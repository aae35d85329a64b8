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
  dU = -((Gamma + Phi) U - U Gamma_R).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from ahxray.geometry import BoundaryDatum, Direction


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
