"""Transport of fiber vectors and endomorphisms along geodesics.

Every transport system the fixed-step backend takes is the left-acting
fundamental system of a linear ODE on the fiber C^d,

    dW/dt = -(Gamma(gamma') + Phi) W,    W(t_entry) = I,

integrated between the truncation points of a geodesic path; its exit
value is the scattering datum.  The endomorphism solution of the
gauge-equivalence argument, dU = -((Gamma + Phi) U - U Gamma), is
U = W Psi^{-1} with Psi the parallel transport, so gauge recovery needs
only fundamental systems (see ``xray``); ``endomorphism_transport`` keeps
the two-sided system as its own d x d right-hand side and integrates it
adaptively.  The entry value stands in for the limit at minus infinity;
the exponential approach of rho along escaping geodesics makes the
truncation error decay like a power of rho_cut (verified by Richardson
halving rather than certified).

Propagators of a fundamental system obey the cocycle law
W(t2, t0) = W(t2, t1) W(t1, t0), which the fixed-step backend uses: it
cuts every span into m segments, marches all segments at once from the
identity (as extra batch rows of one field evaluation) and multiplies the
segment propagators in order.  For a left-acting linear right-hand side
the classic RK4 step is itself a propagator, so this is the sequential RK4
solution up to rounding, reached in n/m instead of n steps.  The
first-order jet (W, V_1..V_P) of W in P parameters is the fundamental
system of a block-triangular generator, so it obeys the same law, in the
form of the product rule, and is marched the same way; reconstruction
takes its Gauss-Newton Jacobian from it.

Two integrators:

- an adaptive complex RK45 along a single path at positions read from it
  (closed form, or interpolated samples of the integrated geodesic), which
  carries one or more systems and can be read at requested times, and
- the segmented fixed-step classic RK4 vectorized across whole fans of
  closed-form disk geodesics, which is what makes scattering datasets,
  reconstruction loops and gauge recovery cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from ._linalg import mul, unitary_defect
from .bundle import ConnectionField, HiggsFieldData
from .errors import DomainError, RankMismatchError
from .geometry import (AHModel, DiskGeodesic, GeodesicPath, IntegratorConfig,
                       integrate_geodesic)


@dataclass
class TransportConfig:
    rho_cut: float = 1e-6
    rtol: float = 1e-10          # adaptive RK45, for transport and for
    atol: float = 1e-14          # the geodesics a shooting fan integrates
    richardson: bool = False
    n_steps: int = 2048          # fixed-step batch backend resolution

    def __post_init__(self):
        if not 0.0 < self.rho_cut <= 1e-2:
            raise DomainError("rho_cut must lie in (0, 1e-2]")
        for name in ("n_steps", "rtol", "atol"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")


@dataclass
class TransportResult:
    exit_value: np.ndarray
    unitarity_defect: float
    truncation_estimate: Optional[float] = None


def _check_ranks(conn: ConnectionField, higgs: HiggsFieldData,
                 value: np.ndarray) -> int:
    if conn.rank != higgs.rank:
        raise RankMismatchError("connection and Higgs ranks differ")
    if value.shape[0] != conn.rank:
        raise RankMismatchError("initial value rank mismatch")
    return conn.rank


def transport_rhs(conn: ConnectionField, higgs: HiggsFieldData):
    """prep(x, v) -> rhs(W) = -(Gamma(v) + Phi) W, the left-acting
    fundamental system on the fiber.  Positions and velocities may carry
    any leading axes."""

    def prep(x, v):
        gen = conn.along(x, v) + higgs.phi(x)
        return lambda u: -mul(gen, u)

    return prep


def _path_state(model: AHModel, path: GeodesicPath):
    """t -> (x, v): closed form on an analytic path, otherwise the cubic
    Hermite interpolant of the path's samples with derivative data v and
    the geodesic acceleration; exact at sample times, with an error of
    order sample_dt^4 between them."""
    geo = path.analytic
    if geo is not None:
        return lambda t: (geo.position(t), geo.velocity(t))
    ts, ys = path.t, np.concatenate([path.x, path.v], axis=-1)
    dys = np.concatenate([path.v, model.geodesic_rhs(path.x, path.v)], -1)

    def state(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        h = (ts[i + 1] - ts[i])[..., None]
        s = (t - ts[i])[..., None] / h
        y = (1 - s) ** 2 * ((1 + 2 * s) * ys[i] + s * h * dys[i]) \
            + s * s * ((3 - 2 * s) * ys[i + 1] + (s - 1) * h * dys[i + 1])
        return y[..., :2], y[..., 2:]

    return state


def _transport_adaptive(model: AHModel, preps, path: GeodesicPath,
                        u0: np.ndarray, cfg: TransportConfig,
                        t_eval: Optional[np.ndarray] = None):
    """RK45 for the transport systems ``preps``, all from the entry value u0,
    at positions from ``_path_state``, so rtol and atol govern only them.
    Returns (t, x, v, U) at the exit, or at ``t_eval`` clipped to the path;
    U has shape (k, len(t), *u0.shape).
    """
    shape, k = u0.shape, len(preps)
    span = (path.t[0], path.t[-1])
    if t_eval is not None:
        t_eval = np.clip(t_eval, *span)
    state = _path_state(model, path)

    def rhs(t, y):
        x, v = state(t)
        return np.concatenate([prep(x, v)(u.reshape(shape)).reshape(-1)
                               for prep, u in zip(preps, np.split(y, k))])

    y0 = np.tile(u0.astype(complex).reshape(-1), k)
    sol = solve_ivp(rhs, span, y0, method="RK45", rtol=cfg.rtol,
                    atol=cfg.atol, t_eval=t_eval)
    ts, ys = (sol.t, sol.y) if t_eval is not None \
        else (sol.t[-1:], sol.y[:, -1:])
    xs, vs = state(ts)
    us = ys.reshape(k, u0.size, -1)
    return ts, xs, vs, np.moveaxis(us, -1, 1).reshape(k, len(ts), *shape)


def _refined_path(model: AHModel, path: GeodesicPath, rho_cut: float,
                  cfg: TransportConfig) -> GeodesicPath:
    if path.analytic is not None:
        return path.analytic.with_rho_cut(rho_cut).sample()
    icfg = IntegratorConfig(rho_cut=rho_cut, rtol=cfg.rtol, atol=cfg.atol)
    return integrate_geodesic(model, path.midpoint_phasepoint(), icfg)


def _run(model, prep, path, u0, cfg) -> TransportResult:
    """Adaptive transport of u0, read at the exit."""
    exit_value = _transport_adaptive(model, [prep], path, u0, cfg)[3][0, -1]
    estimate = None
    if cfg.richardson:
        fine = _refined_path(model, path, path.rho_cut / 2.0, cfg)
        exit_fine = _transport_adaptive(model, [prep], fine, u0, cfg)[3][0, -1]
        estimate = float(np.linalg.norm(exit_fine - exit_value))
    if exit_value.ndim == 2:
        defect = float(unitary_defect(exit_value))
    else:
        defect = abs(float(np.linalg.norm(exit_value))
                     - float(np.linalg.norm(u0)))
    return TransportResult(exit_value=exit_value, unitarity_defect=defect,
                           truncation_estimate=estimate)


def solve_transport(model: AHModel, conn: ConnectionField,
                    higgs: HiggsFieldData, path: GeodesicPath,
                    e_in: np.ndarray,
                    cfg: Optional[TransportConfig] = None) -> TransportResult:
    """Transport a fiber vector (or the columns of a matrix) along a
    complete path, entry to exit."""
    cfg = cfg or TransportConfig()
    e_in = np.asarray(e_in, dtype=complex)
    _check_ranks(conn, higgs, e_in)
    return _run(model, transport_rhs(conn, higgs), path, e_in, cfg)


def scattering_matrix(model: AHModel, conn: ConnectionField,
                      higgs: HiggsFieldData, path: GeodesicPath,
                      cfg: Optional[TransportConfig] = None) -> TransportResult:
    """Transport of the identity: the exit matrix is the scattering datum
    for this geodesic."""
    return solve_transport(model, conn, higgs, path,
                           np.eye(conn.rank, dtype=complex), cfg)


def parallel_transport(model: AHModel, conn: ConnectionField,
                       path: GeodesicPath, e_in: np.ndarray,
                       cfg: Optional[TransportConfig] = None) -> TransportResult:
    """Transport with zero Higgs field: the entry-to-exit fiber isomorphism."""
    return solve_transport(model, conn, HiggsFieldData.zero(conn.rank),
                           path, e_in, cfg)


def endomorphism_transport(model: AHModel, conn: ConnectionField,
                           higgs: HiggsFieldData, path: GeodesicPath,
                           cfg: Optional[TransportConfig] = None
                           ) -> TransportResult:
    """Entry-normalized endomorphism solution: the connection acts by
    commutator on U and the Higgs field by left multiplication,
    dU/dt = -((Gamma + Phi) U - U Gamma), integrated adaptively as a d x d
    system (the adaptive solver needs no cocycle law)."""
    cfg = cfg or TransportConfig()
    eye = np.eye(conn.rank, dtype=complex)
    _check_ranks(conn, higgs, eye)

    def prep(x, v):
        gam = conn.along(x, v)
        left = gam + higgs.phi(x)
        return lambda u: -(left @ u - u @ gam)

    return _run(model, prep, path, eye, cfg)


def transported_data_action(model: AHModel, conn: ConnectionField,
                            higgs: HiggsFieldData, path: GeodesicPath,
                            e_in: np.ndarray,
                            cfg: Optional[TransportConfig] = None) -> np.ndarray:
    """Datum via the endomorphism factorization: the endomorphism solution
    applied to the parallel transport of the entry vector.  Must agree with
    the direct fundamental-system transport."""
    cfg = cfg or TransportConfig()
    u_exit = endomorphism_transport(model, conn, higgs, path, cfg).exit_value
    w_exit = parallel_transport(model, conn, path, e_in, cfg).exit_value
    return u_exit @ w_exit


# -- fan-vectorized fixed-step backend --------------------------------------

# rows (segments x geodesics) of one field evaluation; bounds its memory
_ROWS = 1024


def _segments(n_steps: int, width: int, order: int = 0) -> int:
    """Segments per span: the largest divisor m of n_steps with
    m * width <= _ROWS, and 1 when there is none.

    A row of a jet of order P holds P + 1 matrices and counts (P + 1) // 2
    times against the budget, which keeps the jet's state in cache (for
    P = 6 on 24 geodesics the sweep runs faster in under a third of the
    memory)."""
    width = max(width, 1) * max(1, (order + 1) // 2)
    m = max(1, min(n_steps, _ROWS // width))
    while n_steps % m:
        m -= 1
    return m


class _BatchPaths:
    """Per-geodesic uniform time grids over truncated spans.

    Mobius parameters are gathered into arrays so one stage evaluation
    covers the whole fan; fractions may be arrays, whose axes lead.
    """

    def __init__(self, geos: Sequence[DiskGeodesic], n_steps: int):
        self.geos = list(geos)
        self.n_steps = n_steps
        self.t0 = np.array([g.t_entry for g in geos])
        self.span = np.array([g.t_exit - g.t_entry for g in geos])
        self.dt = self.span / n_steps
        self.w = np.array([g.w for g in geos])
        self.p = np.array([g.p for g in geos])

    def state(self, frac) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities of every geodesic at fractional times,
        shape frac.shape + (len(geos), 2)."""
        t = self.times(frac)
        z = np.tanh(t / 2.0)
        den = 1.0 + np.conj(self.w) * self.p * z
        pos = (self.p * z + self.w) / den
        vel = self.p * (1.0 - np.abs(self.w) ** 2) / den**2 \
            * (0.5 / np.cosh(t / 2.0) ** 2)
        x = np.stack([pos.real, pos.imag], axis=-1)
        v = np.stack([vel.real, vel.imag], axis=-1)
        return x, v

    def times(self, frac) -> np.ndarray:
        return self.t0 + np.asarray(frac, dtype=float)[..., None] * self.span


def _rk4_step(u, h, f_start, f_mid, f_end):
    """One classic RK4 step; the midpoint right-hand side serves two stages."""
    k1 = f_start(u)
    k2 = f_mid(u + 0.5 * h * k1)
    k3 = f_mid(u + 0.5 * h * k2)
    k4 = f_end(u + h * k3)
    return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _jet_product(a, b):
    """(W2, V2) o (W1, V1) = (W2 W1, V2 W1 + W2 V1) for jets stacked on
    axis -3 (W first, then V_1..V_P): the block-triangular cocycle law."""
    out = mul(a, b[..., :1, :, :])
    out[..., 1:, :, :] += mul(a[..., :1, :, :], b[..., 1:, :, :])
    return out


def batch_transport(prep, geos: Sequence[DiskGeodesic],
                    rank: int | tuple[int, int],
                    cfg: Optional[TransportConfig] = None,
                    record_fracs: Optional[Sequence[float]] = None):
    """Fixed-step RK4 fundamental solutions across closed-form disk
    geodesics, marched as m segments per span.

    Per-geodesic step size span/n_steps.  ``prep`` is a left-acting
    fundamental system of rank d (``transport_rhs``); it is called with
    positions and velocities of shape (m, len(geos), 2), or with snapshot
    axes in front.  Each span is cut into m = ``_segments`` equal
    segments, all marched at once from the identity in n_steps/m steps;
    the cocycle law then gives the propagator to any grid time as the
    partial propagator of its segment times the ordered product of the
    earlier segments' propagators.  m is 1 when n_steps has no divisor that
    fits, and the march is then the plain sequential one.

    ``rank`` is d, or (d, P) to march the first-order jet (W, V_1..V_P)
    of W along P directions: the state then has shape (P + 1, d, d), W
    first, starts at (I, 0, ..., 0), and ``prep`` returns the right-hand
    side of the jet system (dW = -M W, dV_k = -(M V_k + B_k W) for a
    generator M with derivatives B_k).  Jets compose by the product rule
    (W2, V2) o (W1, V1) = (W2 W1, V2 W1 + W2 V1), which is the cocycle law
    of the block-triangular system, so segments and snapshots are formed
    as for P = 0.  RK4 of a linear system is a polynomial in the step
    generators, so the V_k are the exact derivatives of the discrete W.

    Snapshots of the state at the requested fractions of each span are
    taken at the exact requested times: a fractional RK4 side-step from
    the preceding grid time, computed from the identity for all snapshots
    in one evaluation, multiplies the propagator to that grid time, so
    crossing families sample identical base points.

    Returns (W_exit, records), W_exit of shape (len(geos), d, d) or, for
    a jet, (len(geos), P + 1, d, d); records is a time-ordered list of
    (t, x, v, W) batches of states, or None when no fractions were
    requested.
    """
    cfg = cfg or TransportConfig()
    d, order = rank if isinstance(rank, tuple) else (rank, 0)
    eye = np.eye(d, dtype=complex)
    product = mul
    if order:
        eye = np.concatenate([eye[None], np.zeros((order, d, d), complex)])
        product = _jet_product
    n = cfg.n_steps
    batch = _BatchPaths(geos, n)
    width = len(batch.geos)
    m = _segments(n, width, order)
    seg = n // m
    first = np.arange(m) * seg      # grid step where each segment starts
    w = np.broadcast_to(eye, (m, width) + eye.shape).copy()
    dt = batch.dt.reshape((-1,) + (1,) * eye.ndim)

    fracs = np.sort(np.clip(np.asarray(
        [] if record_fracs is None else record_fracs, dtype=float), 0.0, 1.0))
    pos = fracs * n
    grid = np.where(pos < n, np.floor(pos), n).astype(int)
    owner, local = np.divmod(grid, seg)     # owner m: the exit itself
    partial = np.broadcast_to(eye, (len(fracs), width) + eye.shape).copy()

    f_here = prep(*batch.state(first / n))
    for k in range(seg):
        hit = (local == k) & (owner < m)
        partial[hit] = w[owner[hit]]
        f_mid = prep(*batch.state((first + k + 0.5) / n))
        f_next = prep(*batch.state((first + k + 1.0) / n))
        w = _rk4_step(w, dt, f_here, f_mid, f_next)
        f_here = f_next

    prefix = [np.broadcast_to(eye, (width,) + eye.shape)]
    for seg_w in w:
        prefix.append(product(seg_w, prefix[-1]))
    if record_fracs is None:
        return prefix[-1], None

    # a zero side-step is exactly the identity, so grid-time snapshots
    # need no separate path
    delta = pos - grid
    x, v = batch.state(fracs)
    side = _rk4_step(eye, delta.reshape((-1,) + (1,) * dt.ndim) * dt,
                     prep(*batch.state(grid / n)),
                     prep(*batch.state((grid + 0.5 * delta) / n)),
                     prep(x, v))
    snaps = product(product(side, partial), np.stack(prefix)[owner])
    return prefix[-1], list(zip(batch.times(fracs), x, v, snaps))


def batch_scattering(conn: ConnectionField, higgs: HiggsFieldData,
                     geos: Sequence[DiskGeodesic],
                     cfg: Optional[TransportConfig] = None,
                     record_fracs: Optional[Sequence[float]] = None):
    """Scattering matrices for a whole fan of closed-form disk geodesics."""
    if conn.rank != higgs.rank:
        raise RankMismatchError("connection and Higgs ranks differ")
    return batch_transport(transport_rhs(conn, higgs), geos,
                           conn.rank, cfg, record_fracs)
