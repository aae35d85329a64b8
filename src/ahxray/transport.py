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
rho_cut (measured by halving it in ``truncation_estimate``, not certified).

Propagators obey the cocycle law W(t2, t0) = W(t2, t1) W(t1, t0).  A path
is closed-form disk geodesics and at most one RK4 crossing of the bump,
and ``batch_transport``, the one entry point, composes their
propagators, for rank-d systems and for the first-order jets of
reconstruction's Jacobian alike.  Both integrators take classic RK4 steps
(``_rk4_step``): ``_march`` steps the closed-form pieces of whole fans at
once, uniformly in z = tanh(t/2), where the generator
Gamma(dx/dz) + Phi dt/dz stays smooth up to the ends for a Higgs field
that decays like rho^1 or faster (``transport_rhs`` refuses slower
decay); ``crossing_transport`` steps in time at the stage states of each
ray's bump crossing.  Both compose the propagators s_0, s_1, ... of their
segments or steps into the prefixes s_i ... s_1 s_0 by one log-depth scan
(``_prefix_products``), ceil(log2 m) stack products for m factors.
Positions and velocities are arrays of shape (..., 2),
built as float views of complex values and read componentwise by the
field evaluators, because on these per-node paths a NumPy reduction or
restack over an axis of length 2 costs about three times its arithmetic.

The same holds for the fiber states: they are held matrix-axes-first,
shape (d, d) or, for a jet, (d, d, P + 1), followed by the stack axes
(segments and geodesics, snapshots, crossing steps, paths), from the
march through the scan, the crossing product and the composition of
crossing rays and snapshots, and every product of them is
``_linalg.mul_first`` over those long contiguous axes, one summation for
a lone state and a stack alike.  ``prep(x, v)`` takes positions and
velocities of any leading shape and returns rhs(u) for such matrix-first
u, so a single node's d x d matrix is passed as it is.  States move to
the (..., d, d) layout (``_matrix_last``) only where ``batch_transport``
returns.

``transport_rhs`` forms the generator -(Gamma(v) + Phi) of a node once,
matrix-first, by the one rule of ``bundle._generator``: a terms-first sum
per distinct gauge of the pair, conjugated by that gauge.
``_paired_rhs`` forms the generators of two pairs at one node set, for a
march over the same paths taken twice (gauge recovery, ``xray``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._linalg import frobenius, mul_first
from .bundle import (ConnectionField, HiggsFieldData, _generator,
                     _generators)
from .errors import DomainError, RankMismatchError
from .geometry import DiskGeodesic, ShotPieces


@dataclass
class TransportConfig:
    rho_cut: float = 1e-6
    # read by no solver; kept for callers that still set them (the
    # benchmark's shoot_perturbed reference)
    rtol: float = 1e-10
    atol: float = 1e-14
    n_steps: int = 512           # RK4 steps in z per closed-form piece

    def __post_init__(self):
        if not 0.0 < self.rho_cut <= 1e-2:
            raise DomainError("rho_cut must lie in (0, 1e-2]")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise DomainError("n_steps must be positive and an integer, "
                              f"got {self.n_steps!r}")
        for name in ("rtol", "atol"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")


def _require_decay(decay: int, what: str) -> None:
    """Refuse a field that decays slower than rho^1: its generator in z,
    Phi dt/dz with dt/dz = 2 / (1 - z^2), would not stay bounded at the
    ends of the march's z grid (``_BatchPaths``)."""
    if decay < 1:
        raise DomainError(f"{what} decays like rho^{decay}; transport on the "
                          "z = tanh(t/2) grid needs a decay exponent >= 1")


def _check_pair(conn: ConnectionField, higgs: HiggsFieldData) -> None:
    """The checks of ``transport_rhs``: one rank, and a nonzero Higgs
    field that decays like rho^1 or faster."""
    if conn.rank != higgs.rank:
        raise RankMismatchError(f"connection rank {conn.rank} and Higgs "
                                f"field rank {higgs.rank} differ")
    if not higgs.is_zero:
        _require_decay(higgs.decay_N1, "the Higgs field")


def transport_rhs(conn: ConnectionField, higgs: HiggsFieldData):
    """prep(x, v) -> rhs(W) = -(Gamma(v) + Phi) W, the left-acting
    fundamental system on the fiber, for a connection and Higgs field of
    one rank; a nonzero Higgs field must decay like rho^1 or faster
    (``_require_decay``).  Positions and velocities may carry any leading
    axes; W is matrix-first, shape (d, d) + those axes (or axes that
    broadcast against them), and so is rhs(W).

    The generator is formed once per node, negated and matrix-first, by
    ``bundle._generator``, after the rank and decay checks."""
    _check_pair(conn, higgs)
    generator = _generator(conn, higgs)

    def prep(x, v):
        neg = generator(x, v)[0]
        return lambda u: mul_first(neg, u)

    return prep


def _paired_rhs(pair_a: tuple[ConnectionField, HiggsFieldData],
                pair_b: tuple[ConnectionField, HiggsFieldData]):
    """prep(x, v) -> rhs(W) of the fundamental systems of two pairs side
    by side, for one ``batch_transport`` over ``paths + paths``.

    In every ``prep`` call that ``batch_transport`` makes, the node axis
    just before the coordinate axis holds the nodes of ``paths`` twice, A's
    copy first and B's second (``_march``'s (m, 2w), (1, 2w) and
    (3, S, 2w), ``crossing_transport``'s (steps,) with A's crossings
    first).  Both generators are formed at A's copy, by one rule over both
    pairs (``bundle._generators``: one stacked sum per distinct term set,
    one ``log_derivative`` per distinct gauge), and joined on that axis,
    so rhs(W) applies A's generator to the first half of W and B's to the
    second.  Both pairs have one rank and pass ``transport_rhs``'s checks."""
    if pair_a[0].rank != pair_b[0].rank:
        raise DomainError("gauge candidate requires matching ranks")
    _check_pair(*pair_a)
    _check_pair(*pair_b)
    generator = _generators([pair_a, pair_b])

    def prep(x, v):
        n = x.shape[-2] // 2
        (neg_a, _), (neg_b, _) = generator(x[..., :n, :], v[..., :n, :])
        neg = np.concatenate([neg_a, neg_b], axis=-1)
        return lambda u: mul_first(neg, u)

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
    """Per-geodesic uniform grids in z = tanh(t/2) over truncated spans.

    A disk geodesic is the Mobius image of z, x = (p z + w) / (1 +
    conj(w) p z), and dt/dz = 2 / (1 - z^2).  In z the transport generator
    Gamma(dx/dz) + Phi dt/dz stays smooth up to z = +-1 for fields that
    decay like rho^1 or faster, so a uniform z grid puts its nodes where
    the fields are, while a uniform t grid spends half of each span where
    they have decayed.  Each span runs from tanh(t_entry/2) to
    tanh(t_exit/2) in steps of ``h``.

    Mobius parameters are gathered into arrays so one stage evaluation
    covers the whole fan.  The factors conj(w) p and p (1 - |w|^2) are the
    left-to-right prefixes of the closed form's products, so precomputing
    them keeps every bit.
    """

    def __init__(self, geos: Sequence[DiskGeodesic], n_steps: int):
        self.t0 = np.array([g.t_entry for g in geos])
        self.t1 = np.array([g.t_exit for g in geos])
        self.z0 = np.tanh(self.t0 / 2.0)
        self.dz = np.tanh(self.t1 / 2.0) - self.z0
        self.h = self.dz / n_steps
        self.w = np.array([g.w for g in geos])
        self.p = np.array([g.p for g in geos])
        self._wp = np.conj(self.w) * self.p
        self._dmob = self.p * (1.0 - np.abs(self.w) ** 2)

    def state(self, frac) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions, velocities v = dx/dt and dt/dz of every geodesic at
        fractions ``frac`` of each span in z, an array whose shape
        broadcasts against (len(geos),): positions and velocities have
        that shape + (2,), float views of the complex values, (re, im) on
        the last axis.  1 - z^2 is formed as (1 - z)(1 + z), which near
        z = +-1 keeps the relative accuracy of z."""
        z = self.z0 + frac * self.dz
        den = 1.0 + self._wp * z
        pos = (self.p * z + self.w) / den
        half = 0.5 * ((1.0 - z) * (1.0 + z))        # dz/dt
        vel = self._dmob / den**2 * half
        return (pos.view(float).reshape(pos.shape + (2,)),
                vel.view(float).reshape(vel.shape + (2,)), 1.0 / half)


def _rk4_step(u, h, f1, f2, f3, f4):
    """One classic RK4 step from u, with the right-hand side of each stage.

    ``h`` is the step at the step's start, middle and end node,
    (h0, hm, h1).  For du/ds = c(s) f(s)(u) at step h_s each is h_s c(s)
    at its node, so the factor c rides on the step sizes that the stages
    multiply anyway; a constant step is (h, h, h).  The increments a_i
    are summed into a1 as they come and u + a_i is formed in a_i's
    memory, so three state-sized arrays, not five, outlive each stage;
    the sums and their order, so the bits, are the textbook form's."""
    h0, hm, h1 = h
    a1 = 0.5 * h0 * f1(u)
    a = 0.5 * hm * f2(u + a1)
    a1 += 2.0 * a
    a += u
    a = hm * f3(a)
    a1 += a
    a += u
    k4 = f4(a)
    return u + (a1 / 3.0 + h1 / 6.0 * k4)


def _jet_product(a, b):
    """(W2, V2) o (W1, V1) = (W2 W1, V2 W1 + W2 V1) for matrix-first jets,
    W then V_1..V_P on axis 2: the block-triangular cocycle law.  W2 W1
    is the rank-d product of the W slots, so it equals that product bit
    for bit."""
    w2, w1 = a[:, :, :1], b[:, :, :1]
    return np.concatenate([mul_first(w2, w1), mul_first(a[:, :, 1:], w1)
                           + mul_first(w2, b[:, :, 1:])], axis=2)


def _identity(rank: int | tuple[int, int]):
    """The matrix-first identity state of rank d, I of shape (d, d), or of
    the jet (d, P), (I, 0, ..., 0) of shape (d, d, P + 1); and the product
    that composes such states."""
    d, order = rank if isinstance(rank, tuple) else (rank, 0)
    eye = np.eye(d, dtype=complex)
    if not order:
        return eye, mul_first
    return (np.concatenate([eye[..., None], np.zeros((d, d, order), complex)],
                           axis=2), _jet_product)


def _prefix_products(stack: np.ndarray, product, axis: int) -> np.ndarray:
    """The inclusive ordered products s_i ... s_1 s_0 of a matrix-first
    stack of states s_0, s_1, ... along stack axis ``axis``, by a
    Hillis-Steele scan: after the pass at offset k, row i holds the
    product of its last 2k factors, so ceil(log2 m) stack products give
    all m prefixes."""
    def rows(a, lo, hi=None):
        return a[(slice(None),) * axis + (slice(lo, hi),)]

    out, k = stack, 1
    while k < stack.shape[axis]:
        out = np.concatenate([rows(out, 0, k),
                              product(rows(out, k), rows(out, 0, -k))],
                             axis=axis)
        k *= 2
    return out


def _matrix_last(u: np.ndarray, state_ndim: int) -> np.ndarray:
    """Matrix-first states, shape (d, d) or (d, d, P + 1) followed by stack
    axes, as one contiguous array of shape: the stack axes, then (d, d) or
    (P + 1, d, d), the layout ``batch_transport`` returns."""
    axes = tuple(range(state_ndim, u.ndim)) + tuple(range(2, state_ndim))
    return np.ascontiguousarray(u.transpose(axes + (0, 1)))


def _side_step(prep, batch: _BatchPaths, n: int, one: np.ndarray,
               pos: np.ndarray, grid: np.ndarray, zf: np.ndarray):
    """The fractional RK4 steps of ``_march`` from the identity, each from
    a snapshot's grid node ``grid`` (of ``n`` steps) to its position
    ``pos`` on that scale, fraction ``zf`` of its span, and the
    snapshots' positions and velocities.  A zero side-step is exactly the
    identity, so grid-node snapshots need no separate path; the grid
    nodes, midpoints and snapshots are one evaluation, and each stage
    takes its row of the broadcast state."""
    delta = pos - grid
    x, v, dt_dz = batch.state(np.stack([grid / n, (grid + 0.5 * delta) / n,
                                        zf]))
    f_side, h_side = prep(x, v), delta * (batch.h * dt_dz)
    f = [lambda u, i=i: f_side(u[..., None, :, :])[..., i, :, :]
         for i in range(3)]
    return _rk4_step(one, h_side, f[0], f[1], f[1], f[2]), x[2], v[2]


def _march(prep, geos: Sequence[DiskGeodesic], rank: int | tuple[int, int],
           cfg: Optional[TransportConfig] = None,
           record_times: Optional[np.ndarray] = None):
    """Fixed-step RK4 fundamental solutions across closed-form disk
    geodesics, on uniform grids in z = tanh(t/2) (``_BatchPaths``),
    marched as m segments per span.

    Per-geodesic step size (z-span)/n_steps; the march solves
    dW/dz = (dt/dz) rhs(W), and the factor dt/dz of each node rides on
    the stage step sizes of ``_rk4_step``, so it costs no array operation
    per stage.  ``prep`` is called with positions and velocities
    (v = dx/dt) of shape (m, len(geos), 2), (1, len(geos), 2) or
    (3, snapshots, len(geos), 2).  Each span is cut into m = ``_segments``
    equal segments, all marched at once from the identity in n_steps/m
    steps, as matrix-first states of shape (d, d[, P + 1], m, len(geos)).
    A segment ends at the next one's start node, and one evaluation of the
    m segment ends serves both, so each of the 2 n_steps + 1 nodes of a
    span is evaluated once.  The cocycle law gives the propagator to any
    grid node as the partial propagator of its segment times the ordered
    product of the earlier segments' propagators, s_i ... s_0, all from
    one scan (``_prefix_products``) in ceil(log2 m) stack products.  m is
    1 when n_steps has no divisor that fits: the plain sequential march.

    Snapshots are taken at ``record_times``, times on each geodesic's own
    clock in an array that broadcasts against (snapshots, len(geos)):
    column j holds geodesic j's times.  Each is clipped to its span and
    mapped once to its fraction of the span in z, the ends to 0 and 1
    exactly, and a fractional RK4 side-step from the preceding grid node
    (``_side_step``) multiplies the propagator to that node, so snapshots
    sit at the exact requested times and crossing families sample
    identical base points.  The side-steps are computed from the identity
    for all snapshots in one evaluation of their grid nodes, midpoints
    and snapshots, before the segment loop, so that evaluation (under a
    gauge, a ``log_derivative`` over 3 x snapshots nodes) meets none of
    the march's states, scan or prefixes.

    Returns (W_exit, records), W_exit matrix-first of shape
    (d, d[, P + 1], len(geos)); records is (t, x, v, W), t of shape
    (snapshots, len(geos)), x and v that + (2,) and W matrix-first,
    (d, d[, P + 1], snapshots, len(geos)), or None when no times were
    requested.
    """
    cfg = cfg or TransportConfig()
    eye, product = _identity(rank)
    n = cfg.n_steps
    batch = _BatchPaths(geos, n)
    width = len(geos)
    m = _segments(n, width, 0 if eye.ndim == 2 else eye.shape[2] - 1)
    seg = n // m
    first = np.arange(m)[:, None] * seg     # step where each segment starts
    one = eye[..., None, None]              # I on two stack axes

    def node(frac):
        # the right-hand side at a grid node and its step h dt/dz
        x, v, dt_dz = batch.state(frac)
        return prep(x, v), batch.h * dt_dz

    t = np.clip(np.zeros((0, width)) if record_times is None
                else record_times, batch.t0, batch.t1)
    zf = np.where(t < batch.t1, np.clip(
        (np.tanh(t / 2.0) - batch.z0) / batch.dz, 0.0, 1.0), 1.0)
    pos = zf * n
    grid = np.where(pos < n, np.floor(pos), n).astype(int)
    owner, local = np.divmod(grid, seg)     # owner m: the exit itself
    if record_times is not None:
        side, x, v = _side_step(prep, batch, n, one, pos, grid, zf)
    partial = np.broadcast_to(one, eye.shape + grid.shape).copy()

    # each of the m + 1 segment boundaries is evaluated once: the m ends act
    # on the state in the last step and, after the span's entry, on the
    # identity as the segment starts.  The entry is a call of its own: ends
    # acting on a state padded by a row grew the heap 0.3 MB in the last step
    f_ends, h_ends = node((first + seg) / n)
    f_entry, h_entry = node(np.zeros((1, 1)))

    def starts(u):
        return np.concatenate([f_entry(u), f_ends(u)[..., :-1, :]], axis=-2)

    f_here, h_here = starts, np.concatenate([h_entry, h_ends[:-1]])
    w = one
    for k in range(seg):
        if k and len(t):                    # partial is I at k = 0
            snap, geo = np.nonzero((local == k) & (owner < m))
            partial[..., snap, geo] = w[..., owner[snap, geo], geo]
        f_mid, h_mid = node((first + k + 0.5) / n)
        f_next, h_next = node((first + k + 1.0) / n) if k < seg - 1 \
            else (f_ends, h_ends)
        w = _rk4_step(w, (h_here, h_mid, h_next), f_here, f_mid, f_mid,
                      f_next)
        f_here, h_here = f_next, h_next

    scan = _prefix_products(w, product, eye.ndim)
    if record_times is None:
        return scan[..., -1, :], None

    # the propagator to the start of segment j: I for j = 0, else row j - 1
    prefix = np.concatenate([np.broadcast_to(one, eye.shape + (1, width)),
                             scan], axis=eye.ndim)
    snaps = product(product(side, partial),
                    prefix[..., owner, np.arange(width)])
    return scan[..., -1, :], (t, x, v, snaps)


def crossing_transport(prep, crossings: Sequence[ShotPieces],
                       rank: int | tuple[int, int]) -> np.ndarray:
    """Fundamental solutions (or jets) across the bump crossings of shot
    rays, matrix-first: shape (d, d[, P + 1], len(crossings)).

    A crossing stores the stage states (x, v) of every RK4 step of its
    geodesic march, where a joint (x, v, W) march evaluates W's stages, so
    a step propagator is one ``_rk4_step`` from the identity, with ``prep``
    called once per stage over every step of every crossing (the steps on
    the last axis).  The crossings are padded with the identity to the
    longest one, and one scan (``_prefix_products``) over the steps forms
    every crossing's ordered product by the cocycle law, which equals the
    joint march up to rounding.
    """
    eye, product = _identity(rank)
    if not crossings:
        return np.zeros(eye.shape + (0,), dtype=complex)
    counts = np.array([len(c.stages) for c in crossings])
    stages = np.concatenate([c.stages for c in crossings])
    h = np.repeat([c.h for c in crossings], counts)
    steps = _rk4_step(eye[..., None], (h, h, h), *(
        prep(stages[:, s, 0], stages[:, s, 1]) for s in range(4)))
    # steps on the axis before the last, crossings on the last, padded
    # with the identity to the longest
    which = np.repeat(np.arange(len(crossings)), counts)
    step = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    w = np.broadcast_to(eye[..., None, None], eye.shape
                        + (counts.max(), len(crossings))).copy()
    w[..., step, which] = steps
    return _prefix_products(w, product, eye.ndim)[..., -1, :]


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


# how far (in time) an end may lie from its piece's rho_cut end and still
# count as that end: a shot ray starts where the inverse Mobius map puts
# its entry point, which is the rho_cut end only to about 1e-10
_END_TOL = 1e-8


def _recut(geo: DiskGeodesic, rho_cut: float) -> DiskGeodesic:
    """``geo`` with each end that is its rho_cut end moved to the
    ``rho_cut`` one; an end cut elsewhere (an interior time, the bump's
    ball) stays."""
    full, fine = geo.with_rho_cut(geo.rho_cut), geo.with_rho_cut(rho_cut)
    at_entry = abs(geo.t_entry - full.t_entry) <= _END_TOL
    at_exit = abs(geo.t_exit - full.t_exit) <= _END_TOL
    return fine.span(fine.t_entry if at_entry else geo.t_entry,
                     fine.t_exit if at_exit else geo.t_exit)


def _at_rho_cut(path, rho_cut: float):
    """The path with its closed-form pieces recut at ``rho_cut``
    (``_recut``); a crossing ray keeps its crossing."""
    pieces, crossing = _split(path)
    fine = [_recut(g, rho_cut) for g in pieces]
    if crossing is None:
        return fine[0]
    return replace(path, pieces=replace(crossing, incoming=fine[0],
                                        outgoing=fine[1]))


def _piece_times(path, pieces, crossing, times: np.ndarray):
    """Per path time, its piece and the path time of that piece's clock
    origin; and each piece's clock at every path time, shape
    (len(times), len(pieces)), unclipped (``_march`` clips to the piece's
    span).  Refuses crossing times."""
    shift = 0.0 if isinstance(path, DiskGeodesic) \
        else path.t[0] - pieces[0].t_entry
    local = times - shift
    piece, origins = np.zeros(len(times), dtype=int), np.zeros(1)
    if crossing is not None:
        t_out = pieces[0].t_exit + crossing.h * len(crossing.stages)
        inside = (local > pieces[0].t_exit) & (local < t_out)
        if np.any(inside):
            raise DomainError(
                f"sample time {times[inside][0]!r} lies strictly inside the "
                "bump crossing, where the march holds no state")
        piece, origins = (local >= t_out).astype(int), np.array([0.0, t_out])
    return piece, shift + origins[piece], local[:, None] - origins


def batch_transport(prep, paths: Sequence, rank: int | tuple[int, int],
                    cfg: Optional[TransportConfig] = None,
                    times: Optional[np.ndarray] = None):
    """Fundamental solutions along paths, entry to exit: the one transport
    entry point, shape (len(paths), d, d).

    A path is a ``DiskGeodesic`` or a ``GeodesicPath`` that carries
    ``analytic`` or ``pieces``; ``prep`` is a rank-d system
    (``transport_rhs``).  One ``_march`` call steps every closed-form
    piece, ``cfg.n_steps`` RK4 steps uniform in z = tanh(t/2), one
    ``crossing_transport`` call every crossing of the bump, and a crossing
    ray's solution is W_out (W_ball W_in).

    ``rank`` (d, P) transports the first-order jet (W, V_1..V_P) of W in P
    directions, shape (len(paths), P + 1, d, d), for a ``prep`` of the jet
    system dW = -M W, dV_k = -(M V_k + B_k W) (generator M, derivatives
    B_k).  Jets compose by the cocycle law of this block-triangular system
    (``_jet_product``), and RK4 of a linear system is a polynomial in its
    stage generators, so the V_k are the exact derivatives of the discrete
    W, across crossings too.

    ``times`` (finite, sorted, on the paths' clocks, clipped to spans) also
    asks for snapshots, returned as (W_exit, (t, x, v, W)) with arrays of
    shape (len(paths), len(times), ...): each piece is recorded at its
    own path's times on it (``_piece_times``), so one call snapshots
    len(times) x (pieces) states, and outgoing snapshots are multiplied
    by the W_ball W_in of the exit, so a snapshot at the exit time is
    W_exit bit for bit.  A time strictly inside a crossing, where the
    march holds no state, is refused.

    Every product is elementwise over the paths, but the march cuts its
    spans into ``_segments(n_steps, width)`` segments, width counting the
    pieces of all paths of the call, so a path's result depends in the
    last bits (about 1e-15 at 384 steps) on which other paths share its
    call.
    """
    eye, product = _identity(rank)
    splits = [_split(p) for p in paths]
    geos = [g for pieces, _ in splits for g in pieces]
    if not geos:
        return np.zeros((0,) + eye.shape[2:] + eye.shape[:2], dtype=complex)
    local = None
    if times is not None:
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise DomainError(f"snapshot times must be finite, got {times}")
        piece, origin, clocks = zip(*(_piece_times(p, *split, times)
                                      for p, split in zip(paths, splits)))
        # a piece's column: its path's times on the piece's clock
        local = np.concatenate(clocks, axis=1)
    w_geo, records = _march(prep, geos, rank, cfg, local)

    start = np.cumsum([0] + [len(pieces) for pieces, _ in splits])[:-1]
    crossed = np.array([c is not None for _, c in splits])
    exits = w_geo[..., start]
    # W_ball W_in of each crossing ray, for its exit and its outgoing
    # snapshots alike
    head = product(crossing_transport(
        prep, [c for _, c in splits if c is not None], rank),
        exits[..., crossed])
    exits[..., crossed] = product(w_geo[..., start[crossed] + 1], head)
    if records is None:
        return _matrix_last(exits, eye.ndim)

    piece = np.array(piece)                 # (paths, times)
    at = (np.arange(len(times)), start[:, None] + piece)
    t, x, v, w_t = records
    w_t = w_t[(Ellipsis,) + at]
    ray, snap = np.nonzero(piece)        # outgoing: crossing rays only
    w_t[..., ray, snap] = product(w_t[..., ray, snap],
                                  head[..., np.cumsum(crossed)[ray] - 1])
    t = t[at] + np.array(origin)
    return _matrix_last(exits, eye.ndim), (t, x[at], v[at],
                                           _matrix_last(w_t, eye.ndim))


def truncation_estimate(prep, paths: Sequence, rank: int,
                        cfg: Optional[TransportConfig] = None) -> np.ndarray:
    """Per path, the Frobenius change of the exit value when the ends at
    the path's rho_cut move to half of it (``_at_rho_cut``).  Ends cut
    elsewhere stay: a path cut at an interior time is compared with itself
    extended at its truncated ends only, and a crossing ray keeps its
    crossing, so only truncation moves."""
    coarse = batch_transport(prep, paths, rank, cfg)
    fine = batch_transport(prep, [_at_rho_cut(p, p.rho_cut / 2.0)
                                  for p in paths], rank, cfg)
    return frobenius(fine - coarse)


def scattering_matrix(conn: ConnectionField, higgs: HiggsFieldData, path,
                      cfg: Optional[TransportConfig] = None) -> np.ndarray:
    """The scattering datum of one path, entry to exit: W e transports a
    fiber vector e, and the zero Higgs field gives parallel transport."""
    return batch_transport(transport_rhs(conn, higgs), [path], conn.rank,
                           cfg)[0]
