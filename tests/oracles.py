"""Adaptive reference integrators, kept here as independent oracles.

The library shoots and transports only by fixed-step RK4 on closed-form
pieces.  These scipy RK45 integrators share no code with it:

- ``rk45_geodesic``: the geodesic through an interior phase point,
  integrated both ways until rho <= rho_cut, with boundary data
  extrapolated from the last samples and a dense-output ``state``;
- ``rk45_transport``: a transport system along positions read from a
  state function (a closed form, or an ``rk45_geodesic``'s ``state``);
- ``joint_rk45``: one RK45 state [x, v, U] from a path's first sample,
  which integrates the geodesic again;
- ``two_sided``: right-hand sides of the two-sided endomorphism system
  dU = -((Gamma + Phi) U - U Gamma_R);
- ``ref_expm_skew``: exp(P) and exp(-P) L(P, E) one matrix at a time by
  ``scipy.linalg.expm`` and ``expm_frechet``, which share no code with
  the library's Jacobi diagonalisation.

The other ``ref_*`` functions keep the per-node evaluators in their
reduction form: ``np.sum`` over the length-2 axis of points, and
``np.stack`` of real and imaginary parts.  The library writes them
componentwise, which must give the same values bit for bit.
``ref_log_derivative`` exponentiates the reduction-form exponents of
``ref_gauge_exponents`` by ``ref_expm_skew``, so it agrees with the
library to rounding only.  Their separable weights sit on a last axis of
length K, as do those of the ``last_*`` functions, which keep the
componentwise evaluators with the weights terms-last (``last_weights``,
``last_weights_and_grads``) and the connection, Higgs and gauge
evaluators built on them (``ref_combine`` is the terms-last product with
the generators).  The library holds its weights terms-first, (K, ...),
and must give the values of both forms bit for bit.  ``ref_generic_rhs``
is ``transport_rhs``'s right-hand side formed from ``along`` and ``phi``.

``ref_cross_ball`` keeps the bump crossing's RK4 march in array form: a
(2, 2) state (x, v) and ``AHModel.geodesic_rhs`` at each stage.  The
library steps Python floats through ``AHModel._flow_at``, which must give
the same stages, run and exit geodesic bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, expm_frechet

from ahxray._linalg import expm_skew, matrix_first, mul, mul_first
from ahxray.errors import TrappedGeodesicError
from ahxray.geometry import (AHModel, BoundaryDatum, Direction, DiskGeodesic,
                             _joined)


# -- reduction forms of the per-node evaluators ------------------------------


def ref_rho(x):
    x = np.asarray(x, dtype=float)
    return 1.0 - np.sum(x * x, axis=-1)


def ref_bump_q(bump, x):
    """``ConformalBump._q``: |x - c|^2 / r^2."""
    dx = x - np.asarray(bump.center)
    return np.sum(dx * dx, axis=-1) / bump.radius**2


def ref_geodesic_rhs(model, x, v):
    grad = model.grad_log_conformal(x)
    gv = np.sum(grad * v, axis=-1, keepdims=True)
    v2 = np.sum(v * v, axis=-1, keepdims=True)
    return -(2.0 * v * gv - v2 * grad)


def _ref_bumps(field, x):
    dx = x[..., None, :] - field._centers
    return np.exp(-np.sum(dx * dx, axis=-1) / (2.0 * field._sigma2))


def ref_weights(field, x):
    """``_Separable.weights``: rho^N beta_k, shape (..., K)."""
    x = np.asarray(x, dtype=float)
    return (ref_rho(x) ** field.decay)[..., None] * _ref_bumps(field, x)


def ref_weights_and_grads(field, x):
    """``_Separable.weights_and_grads``: the weights and their partials."""
    x = np.asarray(x, dtype=float)
    n = field.decay
    rho = ref_rho(x)[..., None, None]
    bumps = _ref_bumps(field, x)[..., None, :]
    dx = x[..., :, None] - field._centers.T
    return (rho**n * bumps)[..., 0, :], bumps \
        * (n * rho ** max(n - 1, 0) * (-2.0 * x[..., :, None])
           - rho**n * dx / field._sigma2)


def ref_combine(field, w):
    """``_Separable.combine`` of terms-last weights w, shape (..., K):
    sum_k w_k S_k, shape (..., d, d)."""
    w = np.asarray(w, dtype=float)
    out = w.reshape(math.prod(w.shape[:-1]), w.shape[-1]) @ field._flat
    return out.view(complex).reshape(w.shape[:-1] + (field.rank,) * 2)


def ref_along(field, dirs, x, v):
    """Gamma(v) of ``ConnectionField.from_terms`` over ``field``, term k
    feeding the symbol Gamma_{dirs[k]}."""
    return ref_combine(field, ref_weights(field, x)
                       * np.asarray(v, dtype=float)[..., dirs])


def ref_gauge_exponents(gauge, x, v):
    """The exponent P = rho^M S(x) of a ``GaugeField`` and its derivative
    dP(v), from which ``log_derivative`` exponentiates."""
    f = gauge._factors[0]
    w, dw = ref_weights_and_grads(f, x)
    dp = np.sum(dw * np.asarray(v, dtype=float)[..., :, None], axis=-2)
    return ref_combine(f, w), ref_combine(f, dp)


def ref_expm_skew(p, e=None):
    """``_linalg.expm_skew`` one matrix at a time: exp(P) and, given E
    (which may broadcast against P with more leading axes), exp(-P) L(P, E)
    with L the Frechet derivative of exp."""
    p = np.asarray(p, dtype=complex)
    q = np.empty_like(p)
    for i in np.ndindex(p.shape[:-2]):
        q[i] = expm(p[i])
    if e is None:
        return q
    shape = np.broadcast_shapes(p.shape, np.shape(e))
    pb, eb = np.broadcast_to(p, shape), np.broadcast_to(e, shape)
    qb = np.broadcast_to(q, shape)
    out = np.empty(shape, dtype=complex)
    for i in np.ndindex(shape[:-2]):
        out[i] = qb[i].conj().T @ expm_frechet(pb[i], eb[i],
                                               compute_expm=False)
    return q, out


def ref_log_derivative(gauge, x, v):
    """``GaugeField.log_derivative``: Q and Q^-1 dQ(v)."""
    return ref_expm_skew(*ref_gauge_exponents(gauge, x, v))


# -- terms-last forms of the separable evaluators -----------------------------


def _last_bumps(field, x):
    d0 = x[..., 0, None] - field._centers[:, 0]
    d1 = x[..., 1, None] - field._centers[:, 1]
    d0 *= d0
    d1 *= d1
    d0 += d1
    np.negative(d0, out=d0)
    d0 /= 2.0 * field._sigma2
    return np.exp(d0, out=d0)


def _last_rho(x):
    x0, x1 = x[..., 0], x[..., 1]
    return 1.0 - (x0 * x0 + x1 * x1)


def last_weights(field, x):
    """``_Separable.weights`` terms-last: rho^N beta_k, shape (..., K)."""
    x = np.asarray(x, dtype=float)
    return _last_rho(x)[..., None] ** field.decay * _last_bumps(field, x)


def last_weights_and_grads(field, x):
    """``_Separable.weights_and_grads`` terms-last: the weights and their
    partials d_j, shape (..., 2, K)."""
    x = np.asarray(x, dtype=float)
    n = field.decay
    rho = _last_rho(x)[..., None, None]
    rho_n = rho**n
    bumps = _last_bumps(field, x)
    dx = x[..., :, None] - field._centers.T
    return rho_n[..., 0, :] * bumps, bumps[..., None, :] \
        * (n * rho ** max(n - 1, 0) * (-2.0 * x[..., :, None])
           - rho_n * dx / field._sigma2)


def last_along(field, dirs, x, v):
    """Gamma(v) of ``ConnectionField.from_terms``, terms-last."""
    return ref_combine(field, last_weights(field, x)
                       * np.asarray(v, dtype=float)[..., dirs])


def last_phi(field, x, coeffs=None):
    """Phi = sum_k c_k w_k S_k of ``HiggsFieldData.from_terms`` (c = 1) or
    of ``HiggsParameterization.higgs(c)``, terms-last."""
    w = last_weights(field, x)
    return ref_combine(field, w if coeffs is None else w * coeffs)


def last_curvature(field, dirs, x):
    """f_12 of ``ConnectionField.from_terms``, terms-last."""
    feeds = np.eye(2)[:, dirs]
    w, dw = last_weights_and_grads(field, np.asarray(x, dtype=float))
    gam = ref_combine(field, w[..., None, :] * feeds)
    g1, g2 = gam[..., 0, :, :], gam[..., 1, :, :]
    curl = ref_combine(field, dw[..., 0, :] * feeds[1]
                       - dw[..., 1, :] * feeds[0])
    return curl + (mul(g1, g2) - mul(g2, g1))


def last_log_derivative(gauge, x, v):
    """``GaugeField.log_derivative``, terms-last: ``expm_skew`` of the
    exponent and its derivative dP(v)."""
    f = gauge._factors[0]
    w, dw = last_weights_and_grads(f, x)
    v = np.asarray(v, dtype=float)
    dp = dw[..., 0, :] * v[..., 0, None] + dw[..., 1, :] * v[..., 1, None]
    return expm_skew(ref_combine(f, w), ref_combine(f, dp))


def ref_generic_rhs(conn, higgs):
    """``transport_rhs`` from ``along`` and ``phi``: prep(x, v) -> rhs(u)
    = -(Gamma(v) + Phi) u for matrix-first u."""
    def prep(x, v):
        neg = matrix_first(-(conn.along(x, v) + higgs.phi(x)))
        return lambda u: mul_first(neg, u)
    return prep


def ref_batch_state(batch, frac):
    """``_BatchPaths.state``: positions, velocities and dt/dz of every
    geodesic at fractions ``frac`` of each span in z = tanh(t/2)."""
    z = batch.z0 + frac * batch.dz
    den = 1.0 + np.conj(batch.w) * batch.p * z
    pos = (batch.p * z + batch.w) / den
    half = 0.5 * ((1.0 - z) * (1.0 + z))
    vel = batch.p * (1.0 - np.abs(batch.w) ** 2) / den**2 * half
    return (np.stack([pos.real, pos.imag], axis=-1),
            np.stack([vel.real, vel.imag], axis=-1), 1.0 / half)


def ref_cross_ball(model, y, h, cfg, t0=0.0, head=None):
    """``geometry._cross_ball`` in array form: the stage states (n, 4, 2,
    2), the run (t, x, v) and the disk geodesic the march leaves on, or
    TrappedGeodesicError with the run after ``head``."""
    bump = model.bump
    disk = AHModel()
    stages = []

    def flow(y):
        return np.stack([y[1], model.geodesic_rhs(y[0], y[1])])

    def run(states):
        states = np.array(states)
        return t0 + h * np.arange(len(states)), states[:, 0], states[:, 1]

    while True:
        if len(stages) * h > cfg.max_span:
            part = run([st[0] for st in stages])
            raise TrappedGeodesicError(
                f"no exit from the bump's ball within time budget "
                f"{cfg.max_span} (possibly trapped)",
                partial=part if head is None else _joined(head, part))
        k1 = flow(y)
        y2 = y + 0.5 * h * k1
        k2 = flow(y2)
        y3 = y + 0.5 * h * k2
        k3 = flow(y3)
        y4 = y + h * k3
        stages.append((y, y2, y3, y4))
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + flow(y4))
        if bump._q(y[0]) >= 1.0:
            out = DiskGeodesic.through(
                disk, y[0], math.atan2(y[1, 1], y[1, 0]), cfg.rho_cut)
            again = out.ball_crossing(bump.center, bump.radius)
            if again is None or again[1] <= 0.0:
                return (np.array(stages), run([st[0] for st in stages] + [y]),
                        out)


def two_sided(conn, higgs, right=None):
    """field(x, v) -> rhs(U) of dU/dt = -((Gamma + Phi) U - U Gamma_R) on
    d x d matrices, without any lift."""
    def field(x, v):
        left = conn.along(x, v) + higgs.phi(x)
        if right is None:
            return lambda u: -(left @ u)
        gam_r = right.along(x, v)
        return lambda u: -(left @ u - u @ gam_r)
    return field


def closed_form_state(geo):
    """t -> (x, v) of a closed-form disk geodesic."""
    return lambda t: (geo.position(np.asarray(t)),
                      geo.velocity(np.asarray(t)))


def rk45_transport(prep, state, span, u0, rtol=1e-10, atol=1e-14,
                   t_eval=None):
    """Complex RK45 of dU = prep(x, v)(U) from U(span[0]) = u0 at positions
    ``state(t)``.  Returns U at span[1], or at each of ``t_eval``."""
    shape = u0.shape

    def rhs(t, y):
        return prep(*state(t))(y.reshape(shape)).reshape(-1)

    sol = solve_ivp(rhs, span, u0.astype(complex).reshape(-1),
                    method="RK45", rtol=rtol, atol=atol, t_eval=t_eval)
    if t_eval is None:
        return sol.y[:, -1].reshape(shape)
    return np.moveaxis(sol.y, -1, 0).reshape((-1,) + shape)


def joint_rk45(model, prep, path, u0, rtol=1e-12, atol=1e-16):
    """Reference transport that integrates the geodesic again: one real RK45
    state [x, v, Re U, Im U] from the path's first sample over its span.
    Returns U at the end of the span."""
    n = u0.size

    def rhs(_t, y):
        x, v = y[:2], y[2:4]
        u = (y[4:4 + n] + 1j * y[4 + n:]).reshape(u0.shape)
        du = prep(x, v)(u).reshape(-1)
        return np.concatenate([v, model.geodesic_rhs(x, v), du.real, du.imag])

    y0 = np.concatenate([path.x[0], path.v[0], u0.real.reshape(-1),
                         u0.imag.reshape(-1)])
    sol = solve_ivp(rhs, (path.t[0], path.t[-1]), y0, method="RK45",
                    rtol=rtol, atol=atol)
    y = sol.y[:, -1]
    return (y[4:4 + n] + 1j * y[4 + n:]).reshape(u0.shape)


@dataclass
class RK45Geodesic:
    """Sample times t (t = 0 at the start), extrapolated boundary data, and
    the dense-output state t -> (x, v) over [t[0], t[-1]]."""

    t: np.ndarray
    entry: BoundaryDatum
    exit: BoundaryDatum
    state: Callable


def _extrapolate_datum(model, x, v, direction, n_fit=5):
    """Boundary datum from samples ordered toward the boundary (last =
    closest).

    The polar angle is fitted with a quadratic in rho over the last samples
    and evaluated at rho = 0.  The tangential component is read off in the
    collar rho < epsilon0, where the metric is rotation-symmetric and
    g(v, d/dtheta) is exactly conserved; reading it near rho_cut would
    amplify absolute velocity errors by 4/rho^2.
    """
    xs = x[-n_fit:]
    ang = np.unwrap(np.arctan2(xs[:, 1], xs[:, 0]))
    alpha = float(np.polyval(np.polyfit(model.rho(xs), ang, 2), 0.0))
    rho_all = model.rho(x)
    tail = np.arange(int(np.argmax(rho_all)), len(x))
    window = tail[(rho_all[tail] < 0.5 * model.epsilon0)
                  & (rho_all[tail] > 0.01)]
    eta = float(np.mean(model.angular_momentum(x[window], v[window])))
    return BoundaryDatum(alpha % (2.0 * math.pi), eta, direction)


def _rk45_ray(model, x0, v0, rho_cut, rtol, atol, sample_dt, max_span=80.0):
    """One escaping ray, integrated forward until rho <= rho_cut: samples
    at spacing sample_dt up to the escape time, and the dense output."""
    def rhs(_t, y):
        return np.concatenate([y[2:], model.geodesic_rhs(y[:2], y[2:])])

    def escape(_t, y):
        return model.rho(y[:2]) - rho_cut

    escape.terminal = True
    escape.direction = -1
    sol = solve_ivp(rhs, (0.0, max_span), np.concatenate([x0, v0]),
                    method="RK45", rtol=rtol, atol=atol, events=escape,
                    dense_output=True)
    assert sol.t_events[0].size, "oracle ray did not escape"
    t_end = float(sol.t_events[0][0])
    ts = np.append(np.arange(0.0, t_end, sample_dt), t_end)
    ys = sol.sol(ts)
    return ts, ys[:2].T, ys[2:].T, sol.sol


def rk45_geodesic(model, start, rho_cut=1e-6, rtol=1e-10, atol=1e-14,
                  sample_dt=0.05):
    """The geodesic through the phase point ``start``, integrated both ways
    by adaptive RK45 (atol well below rtol: velocity components shrink to
    O(rho_cut) near the boundary)."""
    t_f, x_f, v_f, dense_f = _rk45_ray(model, start.x, start.v, rho_cut,
                                       rtol, atol, sample_dt)
    t_b, x_b, v_b, dense_b = _rk45_ray(model, start.x, -start.v, rho_cut,
                                       rtol, atol, sample_dt)

    def state(t):
        y = dense_f(t) if t >= 0.0 else dense_b(-t) * [1, 1, -1, -1]
        return y[:2], y[2:]

    return RK45Geodesic(
        t=np.concatenate([-t_b[::-1], t_f[1:]]),
        entry=_extrapolate_datum(model, x_b, -v_b, Direction.INCOMING),
        exit=_extrapolate_datum(model, x_f, v_f, Direction.OUTGOING),
        state=state)
