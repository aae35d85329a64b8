"""Transport of fiber vectors and endomorphisms along geodesics.

Every transport system is the left-acting fundamental system of a linear
ODE on the fiber C^d,

    dW/dt = -(Gamma(gamma') + Phi) W,    W(t_entry) = I,

integrated between the truncation points of a geodesic path; its exit
value is the scattering datum.  The endomorphism solution of the
gauge-equivalence argument, dU = -((Gamma + Phi) U - U Gamma), is
U = W Psi^{-1} with Psi the parallel transport, so gauge recovery needs
only fundamental systems (see ``xray``).  The entry value stands in for
the limit at minus infinity; the exponential approach of rho along
escaping geodesics makes the truncation error decay like a power of
rho_cut (verified by Richardson halving rather than certified).

Propagators obey the cocycle law W(t2, t0) = W(t2, t1) W(t1, t0).  A path
is closed-form disk geodesics and at most one RK4 crossing of the bump,
and ``batch_transport``, the one entry point, multiplies their
propagators in order, for rank-d systems and for the first-order jets of
reconstruction's Jacobian alike.  Both integrators take classic RK4 steps
(``_rk4_step``): ``_march`` steps the closed-form pieces of whole fans at
once, and ``crossing_transport`` steps at the stage states of each ray's
bump crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import mul, unitary_defect
from .bundle import ConnectionField, HiggsFieldData
from .errors import DomainError, RankMismatchError
from .geometry import (AHModel, DiskGeodesic, GeodesicPath, IntegratorConfig,
                       ShotPieces, shoot_from_boundary)


@dataclass
class TransportConfig:
    rho_cut: float = 1e-6
    # read by no solver; kept for callers that still set them (the
    # benchmark's shoot_perturbed reference)
    rtol: float = 1e-10
    atol: float = 1e-14
    richardson: bool = False
    n_steps: int = 2048          # RK4 steps per closed-form piece

    def __post_init__(self):
        if not 0.0 < self.rho_cut <= 1e-2:
            raise DomainError("rho_cut must lie in (0, 1e-2]")
        for name in ("n_steps", "rtol", "atol"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")


@dataclass
class TransportResult:
    exit_value: np.ndarray
    unitarity_defect: float          # of the entry-to-exit propagator
    truncation_estimate: Optional[float] = None


def transport_rhs(conn: ConnectionField, higgs: HiggsFieldData):
    """prep(x, v) -> rhs(W) = -(Gamma(v) + Phi) W, the left-acting
    fundamental system on the fiber.  Positions and velocities may carry
    any leading axes."""

    def prep(x, v):
        gen = conn.along(x, v) + higgs.phi(x)
        return lambda u: -mul(gen, u)

    return prep


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


def _rk4_step(u, h, f1, f2, f3, f4):
    """One classic RK4 step from u, with the right-hand side of each stage."""
    k1 = f1(u)
    k2 = f2(u + 0.5 * h * k1)
    k3 = f3(u + 0.5 * h * k2)
    k4 = f4(u + h * k3)
    return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _jet_product(a, b):
    """(W2, V2) o (W1, V1) = (W2 W1, V2 W1 + W2 V1) for jets stacked on
    axis -3 (W first, then V_1..V_P): the block-triangular cocycle law.
    W2 W1 is a product of W stacks alone, so it takes the path through
    ``mul`` of the rank-d product and equals it bit for bit."""
    w2, w1 = a[..., :1, :, :], b[..., :1, :, :]
    return np.concatenate([mul(w2, w1), mul(a[..., 1:, :, :], w1)
                           + mul(w2, b[..., 1:, :, :])], axis=-3)


def _identity(rank: int | tuple[int, int]):
    """The identity state of rank d or of the jet (d, P), (I, 0, ..., 0)
    of shape (P + 1, d, d), and the product that composes such states."""
    d, order = rank if isinstance(rank, tuple) else (rank, 0)
    eye = np.eye(d, dtype=complex)
    if not order:
        return eye, mul
    return (np.concatenate([eye[None], np.zeros((order, d, d), complex)]),
            _jet_product)


def _march(prep, geos: Sequence[DiskGeodesic], rank: int | tuple[int, int],
           cfg: Optional[TransportConfig] = None,
           record_fracs: Optional[Sequence[float]] = None):
    """Fixed-step RK4 fundamental solutions across closed-form disk
    geodesics, marched as m segments per span.

    Per-geodesic step size span/n_steps.  ``prep`` is called with
    positions and velocities of shape (m, len(geos), 2), or with snapshot
    axes in front.  Each span is cut into m = ``_segments`` equal
    segments, all marched at once from the identity in n_steps/m steps;
    the cocycle law then gives the propagator to any grid time as the
    partial propagator of its segment times the ordered product of the
    earlier segments' propagators.  m is 1 when n_steps has no divisor that
    fits, and the march is then the plain sequential one.

    Snapshots of the state at the requested fractions of each span are
    taken at the exact requested times: a fractional RK4 side-step from
    the preceding grid time, computed from the identity for all snapshots
    in one evaluation, multiplies the propagator to that grid time, so
    crossing families sample identical base points.

    Returns (W_exit, records), W_exit of shape (len(geos),) + the state's
    shape; records is a time-ordered list of (t, x, v, W) batches of
    states, or None when no fractions were requested.
    """
    cfg = cfg or TransportConfig()
    eye, product = _identity(rank)
    n = cfg.n_steps
    batch = _BatchPaths(geos, n)
    width = len(geos)
    m = _segments(n, width, 0 if eye.ndim == 2 else len(eye) - 1)
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
        w = _rk4_step(w, dt, f_here, f_mid, f_mid, f_next)
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
    f_mid = prep(*batch.state((grid + 0.5 * delta) / n))
    side = _rk4_step(eye, delta.reshape((-1,) + (1,) * dt.ndim) * dt,
                     prep(*batch.state(grid / n)), f_mid, f_mid, prep(x, v))
    snaps = product(product(side, partial), np.stack(prefix)[owner])
    return prefix[-1], list(zip(batch.times(fracs), x, v, snaps))


def crossing_transport(prep, crossings: Sequence[ShotPieces],
                       rank: int | tuple[int, int]) -> np.ndarray:
    """Fundamental solutions (or jets) across the bump crossings of shot
    rays, shape (len(crossings),) + the state's shape.

    A crossing stores the stage states (x, v) of every RK4 step of its
    geodesic march, where a joint (x, v, W) march evaluates W's stages, so
    a step propagator is one ``_rk4_step`` from the identity, with ``prep``
    called once per stage over every step of every crossing.  The step
    propagators of each crossing are multiplied in order, pairwise by the
    cocycle law, which equals the joint march up to rounding.
    """
    eye, product = _identity(rank)
    if not crossings:
        return np.zeros((0,) + eye.shape, dtype=complex)
    counts = [len(c.stages) for c in crossings]
    stages = np.concatenate([c.stages for c in crossings])
    h = np.repeat([c.h for c in crossings], counts)
    steps = _rk4_step(np.broadcast_to(eye, stages.shape[:1] + eye.shape),
                      h.reshape((-1,) + (1,) * eye.ndim),
                      *(prep(stages[:, s, 0], stages[:, s, 1])
                        for s in range(4)))
    # identity-padded to a power of two, then halved pairwise
    n = 1 << (max(counts) - 1).bit_length()
    w = np.broadcast_to(eye, (len(crossings), n) + eye.shape).copy()
    for i, (lo, count) in enumerate(zip(np.cumsum([0] + counts), counts)):
        w[i, :count] = steps[lo:lo + count]
    while w.shape[1] > 1:
        w = product(w[:, 1::2], w[:, 0::2])
    return w[:, 0]


# -- paths: closed-form pieces and crossings --------------------------------


def _split(path) -> tuple[tuple[DiskGeodesic, ...], Optional[ShotPieces]]:
    """The closed-form pieces of a path, in order, and its crossing."""
    if isinstance(path, DiskGeodesic):
        return (path,), None
    if path.pieces is not None:
        return (path.pieces.incoming, path.pieces.outgoing), path.pieces
    if path.analytic is not None:
        return (path.analytic,), None
    raise DomainError("path carries neither a closed form nor shot pieces "
                      "(a reversed crossing ray): shoot from its exit datum")


def _piece_fracs(path, pieces, crossing, times: np.ndarray):
    """Per path time: its piece, its clipped fraction of that piece's span
    and the path time of the piece's clock origin; refuses crossing times."""
    shift = 0.0 if isinstance(path, DiskGeodesic) \
        else path.t[0] - pieces[0].t_entry
    local = times - shift
    piece, t_out = np.zeros(len(times), dtype=int), 0.0
    if crossing is not None:
        t_out = pieces[0].t_exit + crossing.h * len(crossing.stages)
        inside = (local > pieces[0].t_exit) & (local < t_out)
        if np.any(inside):
            raise DomainError(
                f"sample time {times[inside][0]!r} lies strictly inside the "
                "bump crossing, where the march holds no state")
        piece = (local >= t_out).astype(int)
    t0 = np.array([g.t_entry for g in pieces])[piece]
    span = np.array([g.t_exit - g.t_entry for g in pieces])[piece]
    fracs = np.clip((local - piece * t_out - t0) / span, 0.0, 1.0)
    return piece, fracs, shift + piece * t_out


def batch_transport(prep, paths: Sequence, rank: int | tuple[int, int],
                    cfg: Optional[TransportConfig] = None,
                    times: Optional[np.ndarray] = None):
    """Fundamental solutions along paths, entry to exit: the one transport
    entry point, shape (len(paths), d, d).

    A path is a ``DiskGeodesic`` or a ``GeodesicPath`` that carries
    ``analytic`` or ``pieces``; ``prep`` is a rank-d system
    (``transport_rhs``).  One ``_march`` call steps every closed-form
    piece, one ``crossing_transport`` call every crossing of the bump, and
    a crossing ray's solution is (W_out W_ball) W_in.

    ``rank`` (d, P) transports the first-order jet (W, V_1..V_P) of W in P
    directions, shape (len(paths), P + 1, d, d), for a ``prep`` of the jet
    system dW = -M W, dV_k = -(M V_k + B_k W) (generator M, derivatives
    B_k).  Jets compose by the cocycle law of this block-triangular system
    (``_jet_product``), and RK4 of a linear system is a polynomial in its
    stage generators, so the V_k are the exact derivatives of the discrete
    W, across crossings too.

    ``times`` (sorted, on the paths' clocks, clipped to their spans) also
    asks for snapshots, returned as (W_exit, (t, x, v, W)) with arrays of
    shape (len(paths), len(times), ...): every piece is recorded at the
    fractions of all, and outgoing snapshots are multiplied by
    W_ball W_in.  A time strictly inside a crossing, where the march holds
    no state, is refused.
    """
    eye, product = _identity(rank)
    splits = [_split(p) for p in paths]
    geos = [g for pieces, _ in splits for g in pieces]
    if not geos:
        return np.zeros((0,) + eye.shape, dtype=complex)
    balls = iter(crossing_transport(
        prep, [c for _, c in splits if c is not None], rank))
    if times is not None:
        times = np.asarray(times, dtype=float)
        where = [_piece_fracs(p, *split, times)
                 for p, split in zip(paths, splits)]
        fracs = np.concatenate([f for _, f, _ in where])
    w_geo, records = _march(prep, geos, rank, cfg,
                            None if times is None else fracs)
    if records is not None:
        # _march records the fractions in sorted order
        rows = np.searchsorted(np.sort(fracs), fracs)
        rec = [np.stack(r)[rows] for r in zip(*records)]

    exits, snaps, first = [], [], 0
    for k, (pieces, crossing) in enumerate(splits):
        w = w_geo[first]
        if crossing is not None:
            w_ball = next(balls)
            w_cross = product(w_ball, w)
            w = product(product(w_geo[first + 1], w_ball), w)
        exits.append(w)
        if records is not None:
            piece, _, origin = where[k]
            at = (k * len(times) + np.arange(len(times)), first + piece)
            t, x, v, w_t = (r[at] for r in rec)
            # outgoing snapshots (crossing rays only), one at a time: mul
            # multiplies long stacks by another summation than single states
            for i in np.flatnonzero(piece == 1):
                w_t[i] = product(w_t[i], w_cross)
            snaps.append((t + origin, x, v, w_t))
        first += len(pieces)
    if records is None:
        return np.array(exits)
    return np.array(exits), tuple(np.array(s) for s in zip(*snaps))


def solve_transport(model: AHModel, conn: ConnectionField,
                    higgs: HiggsFieldData, path: GeodesicPath,
                    e_in: np.ndarray,
                    cfg: Optional[TransportConfig] = None) -> TransportResult:
    """Transport a fiber vector (or the columns of a matrix) along a
    complete path, entry to exit, by ``batch_transport``.  With
    ``cfg.richardson`` the truncation estimate is the change of the exit
    value on the path rebuilt at half its rho_cut."""
    cfg = cfg or TransportConfig()
    e_in = np.asarray(e_in, dtype=complex)
    if conn.rank != higgs.rank:
        raise RankMismatchError("connection and Higgs ranks differ")
    if e_in.shape[0] != conn.rank:
        raise RankMismatchError("initial value rank mismatch")
    prep = transport_rhs(conn, higgs)
    w = batch_transport(prep, [path], conn.rank, cfg)[0]
    estimate = None
    if cfg.richardson:
        # the path rebuilt at half its rho_cut: the closed form there, or
        # the ray re-shot from its entry datum
        half = path.rho_cut / 2.0
        pieces, crossing = _split(path)
        fine = pieces[0].with_rho_cut(half) if crossing is None else \
            shoot_from_boundary(model, path.entry, half,
                                IntegratorConfig(rho_cut=half))
        w_fine = batch_transport(prep, [fine], conn.rank, cfg)[0]
        estimate = float(np.linalg.norm((w_fine - w) @ e_in))
    return TransportResult(exit_value=w @ e_in,
                           unitarity_defect=float(unitary_defect(w)),
                           truncation_estimate=estimate)


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
