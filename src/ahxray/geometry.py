"""Asymptotically hyperbolic surfaces in the disk model.

The base geometry is the Poincare disk with metric 4|dx|^2 / (1 - |x|^2)^2
and boundary defining function rho = 1 - |x|^2.  Conformal perturbations
multiply the metric by exp(2*psi) where psi is a compactly supported radial
bump kept away from the boundary, so rho and the fiber-angle calculus of the
sphere bundle are unchanged.

Complete geodesics are integrated until rho drops below a truncation level
rho_cut; boundary data (limit angle and tangential covector component) are
extrapolated from the last samples.  For the unperturbed disk, geodesics are
also available in closed form through Mobius transformations, which the rest
of the package uses both as a fast path and as an independent oracle.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DegenerateGeodesicError, DomainError, TrappedGeodesicError

_INTERIOR_MARGIN = 1e-9


class ModelKind(Enum):
    POINCARE_DISK = "poincare_disk"
    CONFORMAL_PERTURBED = "conformal_perturbed"


@dataclass(frozen=True)
class ConformalBump:
    """Radial bump psi(x) = amplitude * exp(1 - 1/(1 - q)), q = |x-c|^2/r^2.

    Smooth, compactly supported in the Euclidean ball of the given radius.
    All derivatives are analytic in q, so curvature needs no differencing.
    """

    center: tuple[float, float]
    radius: float
    amplitude: float

    def _q(self, x: np.ndarray) -> np.ndarray:
        dx = x - np.asarray(self.center)
        return np.sum(dx * dx, axis=-1) / self.radius**2

    @staticmethod
    def _profile(q: np.ndarray) -> np.ndarray:
        out = np.zeros_like(q)
        inside = q < 1.0
        qi = q[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - qi))
        return out

    def psi(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * self._profile(self._q(x))

    def grad_psi(self, x: np.ndarray) -> np.ndarray:
        q = self._q(x)
        dx = x - np.asarray(self.center)
        dprof = np.zeros_like(q)
        inside = q < 1.0
        qi = q[inside]
        dprof[inside] = -np.exp(1.0 - 1.0 / (1.0 - qi)) / (1.0 - qi) ** 2
        return self.amplitude * dprof[..., None] * 2.0 * dx / self.radius**2

    def laplacian_psi(self, x: np.ndarray) -> np.ndarray:
        q = self._q(x)
        d1 = np.zeros_like(q)
        d2 = np.zeros_like(q)
        inside = q < 1.0
        qi = q[inside]
        prof = np.exp(1.0 - 1.0 / (1.0 - qi))
        d1[inside] = -prof / (1.0 - qi) ** 2
        d2[inside] = prof * (1.0 / (1.0 - qi) ** 4 - 2.0 / (1.0 - qi) ** 3)
        return (4.0 * self.amplitude / self.radius**2) * (q * d2 + d1)


@dataclass(frozen=True)
class MetricSample:
    """Metric data at one point: g, its inverse, Christoffels, dg."""

    g: np.ndarray          # (2, 2)
    g_inv: np.ndarray      # (2, 2)
    christoffel: np.ndarray  # (2, 2, 2), Gamma^k_ij indexed [k, i, j]
    dg: np.ndarray         # (2, 2, 2), dg[k, i, j] = d_k g_ij


class AHModel:
    """Disk-model AH surface: the Poincare disk or a conformal perturbation.

    Construction validates that the bump support stays in {rho >= epsilon0}
    and that the sectional curvature remains strictly negative on a grid;
    the amplitude cap is empirical since no quantitative smallness is
    available for the deformation argument.
    """

    def __init__(self, kind: ModelKind = ModelKind.POINCARE_DISK,
                 bump: Optional[ConformalBump] = None,
                 epsilon0: float = 0.1,
                 curvature_grid: int = 64):
        if kind is ModelKind.CONFORMAL_PERTURBED and bump is None:
            raise DomainError("conformal_perturbed model requires a bump")
        if kind is ModelKind.POINCARE_DISK:
            bump = None
        self.kind = kind
        self.bump = bump
        self.dimension = 2
        self.epsilon0 = epsilon0
        if bump is not None:
            reach = math.hypot(*bump.center) + bump.radius
            if reach**2 > 1.0 - epsilon0:
                raise DomainError(
                    f"bump support reaches rho < epsilon0 = {epsilon0}")
            self._validate_curvature(curvature_grid)

    def _validate_curvature(self, n: int) -> None:
        axis = np.linspace(-0.999, 0.999, n)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        inside = np.sum(pts * pts, axis=-1) < 1.0 - _INTERIOR_MARGIN
        k = self.gauss_curvature(pts[inside])
        if not np.all(k < 0.0):
            raise DomainError(
                "bump amplitude too large: curvature grid check found "
                f"max K = {k.max():.3e} >= 0")

    # -- scalar conformal data, batched over points of shape (..., 2) --

    def rho(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 1.0 - np.sum(x * x, axis=-1)

    def log_conformal(self, x: np.ndarray) -> np.ndarray:
        """Phi with g = exp(2*Phi) * (Euclidean metric)."""
        x = np.asarray(x, dtype=float)
        phi = np.log(2.0) - np.log(self.rho(x))
        if self.bump is not None:
            phi = phi + self.bump.psi(x)
        return phi

    def grad_log_conformal(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        grad = 2.0 * x / self.rho(x)[..., None]
        if self.bump is not None:
            grad = grad + self.bump.grad_psi(x)
        return grad

    def gauss_curvature(self, x: np.ndarray) -> np.ndarray:
        """K = -exp(-2 Phi) * Laplacian(Phi) for a conformal surface metric."""
        x = np.asarray(x, dtype=float)
        rho = self.rho(x)
        lap = 4.0 / rho**2
        if self.bump is not None:
            lap = lap + self.bump.laplacian_psi(x)
        return -np.exp(-2.0 * self.log_conformal(x)) * lap

    def _require_interior(self, x: np.ndarray) -> None:
        if np.any(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
                  >= 1.0 - _INTERIOR_MARGIN):
            raise DomainError("point outside the open unit disk")

    def geodesic_rhs(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Acceleration dv/dt of the geodesic flow, batched."""
        grad = self.grad_log_conformal(x)
        gv = np.sum(grad * v, axis=-1, keepdims=True)
        v2 = np.sum(v * v, axis=-1, keepdims=True)
        return -(2.0 * v * gv - v2 * grad)

    def angular_momentum(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Conserved g(v, d/dtheta) wherever the metric is rotation-symmetric."""
        e2phi = np.exp(2.0 * self.log_conformal(x))
        return e2phi * (x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0])

    def speed(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.exp(self.log_conformal(x)) * np.sqrt(np.sum(v * v, axis=-1))

    def config_dict(self) -> dict:
        d = {"kind": self.kind.value}
        if self.bump is not None:
            d.update(bump_center=tuple(self.bump.center),
                     bump_radius=self.bump.radius,
                     bump_amplitude=self.bump.amplitude)
        return d


def metric_at(model: AHModel, x: np.ndarray) -> MetricSample:
    """Metric, inverse, Christoffels and metric gradient at an interior point."""
    x = np.asarray(x, dtype=float)
    model._require_interior(x)
    phi = float(model.log_conformal(x))
    grad = model.grad_log_conformal(x)
    e2 = math.exp(2.0 * phi)
    g = e2 * np.eye(2)
    g_inv = math.exp(-2.0 * phi) * np.eye(2)
    # Gamma^k_ij = delta_ik d_j Phi + delta_jk d_i Phi - delta_ij d_k Phi
    eye = np.eye(2)
    gamma = (np.einsum("ki,j->kij", eye, grad)
             + np.einsum("kj,i->kij", eye, grad)
             - np.einsum("ij,k->kij", eye, grad))
    dg = 2.0 * np.einsum("k,ij->kij", grad, g)
    return MetricSample(g=g, g_inv=g_inv, christoffel=gamma, dg=dg)


def rho_at(model: AHModel, x: np.ndarray) -> float:
    """Boundary defining function 1 - |x|^2 (perturbation-independent)."""
    x = np.asarray(x, dtype=float)
    if np.sum(x * x) > 1.0:
        raise DomainError("point outside the closed unit disk")
    return float(model.rho(x))


def sectional_curvature(model: AHModel, x: np.ndarray) -> float:
    """Gauss curvature at an interior point (-1 on the unperturbed disk)."""
    x = np.asarray(x, dtype=float)
    model._require_interior(x)
    return float(model.gauss_curvature(x))


class Direction(Enum):
    INCOMING = "incoming"   # eta_0 = +1 on the b-cosphere boundary
    OUTGOING = "outgoing"   # eta_0 = -1


@dataclass(frozen=True)
class BoundaryDatum:
    """Limit of a geodesic on the boundary at infinity.

    alpha is the limiting polar angle in [0, 2*pi); eta_tangential is the
    limit of the conserved tangential covector component g(v, d/dtheta).
    """

    alpha: float
    eta_tangential: float
    direction: Direction

    def key(self) -> tuple[float, float]:
        return (self.alpha, self.eta_tangential)


class PhasePoint:
    """Point of the unit sphere bundle: interior x with |v|_g = 1."""

    def __init__(self, model: AHModel, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        model._require_interior(x)
        speed = float(model.speed(x, v))
        if abs(speed - 1.0) >= 1e-10:
            raise DomainError(f"|v|_g = {speed!r} is not unit")
        self.model = model
        self.x = x
        self.v = v

    @classmethod
    def from_angle(cls, model: AHModel, x, theta: float) -> "PhasePoint":
        """Unit vector at x with Euclidean direction angle theta."""
        x = np.asarray(x, dtype=float)
        scale = math.exp(-float(model.log_conformal(x)))
        return cls(model, x, scale * np.array([math.cos(theta), math.sin(theta)]))

    @property
    def theta(self) -> float:
        return math.atan2(self.v[1], self.v[0]) % (2.0 * math.pi)


@dataclass
class IntegratorConfig:
    """Adaptive Runge-Kutta settings for geodesic integration.

    atol defaults well below rtol: velocity components shrink to O(rho_cut)
    near the boundary, and a loose absolute floor there turns into large
    relative errors amplified along the unstable escape direction.
    """

    rho_cut: float = 1e-6
    rtol: float = 1e-10
    atol: float = 1e-14
    max_span: float = 80.0   # time budget per direction before "trapped"
    sample_dt: float = 0.05


@dataclass
class GeodesicPath:
    """Complete unit-speed geodesic truncated at rho = rho_cut on both ends."""

    t: np.ndarray            # (n,), strictly increasing
    x: np.ndarray            # (n, 2)
    v: np.ndarray            # (n, 2)
    entry: BoundaryDatum
    exit: BoundaryDatum
    rho_cut: float
    model: AHModel
    analytic: Optional["DiskGeodesic"] = field(default=None, repr=False)

    def unit_speed_defect(self) -> float:
        return float(np.max(np.abs(self.model.speed(self.x, self.v) - 1.0)))

    def midpoint_phasepoint(self) -> PhasePoint:
        i = len(self.t) // 2
        return PhasePoint(self.model, self.x[i], self.v[i])

    def reversed(self) -> "GeodesicPath":
        rev_analytic = self.analytic.reversed() if self.analytic else None
        return GeodesicPath(
            t=-self.t[::-1], x=self.x[::-1].copy(), v=-self.v[::-1],
            entry=BoundaryDatum(self.exit.alpha, self.exit.eta_tangential,
                                Direction.INCOMING),
            exit=BoundaryDatum(self.entry.alpha, self.entry.eta_tangential,
                               Direction.OUTGOING),
            rho_cut=self.rho_cut, model=self.model, analytic=rev_analytic)

    def to_csv(self, fileobj=None) -> str:
        buf = fileobj or io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "x1", "x2", "v1", "v2"])
        for i in range(len(self.t)):
            writer.writerow([repr(self.t[i]), repr(self.x[i, 0]),
                             repr(self.x[i, 1]), repr(self.v[i, 0]),
                             repr(self.v[i, 1])])
        return buf.getvalue() if fileobj is None else ""


def _extrapolate_datum(model: AHModel, t: np.ndarray, x: np.ndarray,
                       v: np.ndarray, direction: Direction,
                       n_fit: int = 5) -> BoundaryDatum:
    """Boundary datum from samples ordered toward the boundary (last = closest).

    The polar angle is fitted with a quadratic in rho over the last samples
    and evaluated at rho = 0.  The tangential component is read off in the
    collar rho < epsilon0, where the metric is rotation-symmetric and
    g(v, d/dtheta) is exactly conserved; reading it near rho_cut would
    amplify absolute velocity errors by 4/rho^2.
    """
    n = min(n_fit, len(t))
    xs = x[-n:]
    rho_tail = model.rho(xs)
    ang = np.unwrap(np.arctan2(xs[:, 1], xs[:, 0]))
    deg = min(2, n - 1)
    alpha = float(np.polyval(np.polyfit(rho_tail, ang, deg), 0.0)) % (2.0 * math.pi)

    rho_all = model.rho(x)
    tail = np.arange(int(np.argmax(rho_all)), len(t))
    window = tail[(rho_all[tail] < 0.5 * model.epsilon0)
                  & (rho_all[tail] > 0.01)]
    if window.size == 0:
        window = tail[-n:]
    eta0 = float(np.mean(model.angular_momentum(x[window], v[window])))
    return BoundaryDatum(alpha=alpha, eta_tangential=eta0, direction=direction)


def _integrate_ray(model: AHModel, x0, v0, cfg: IntegratorConfig):
    """One escaping ray: forward integration until rho <= rho_cut."""

    def rhs(_t, y):
        x = y[:2]
        v = y[2:]
        return np.concatenate([v, model.geodesic_rhs(x, v)])

    def escape(_t, y):
        return model.rho(y[:2]) - cfg.rho_cut

    escape.terminal = True
    escape.direction = -1
    y0 = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])
    sol = solve_ivp(rhs, (0.0, cfg.max_span), y0, method="RK45",
                    rtol=cfg.rtol, atol=cfg.atol, events=escape,
                    dense_output=True)
    if not sol.t_events[0].size:
        t_part = np.arange(0.0, sol.t[-1], cfg.sample_dt)
        part = sol.sol(t_part)
        raise TrappedGeodesicError(
            f"no escape to rho <= {cfg.rho_cut} within time budget "
            f"{cfg.max_span} (possibly trapped)",
            partial=(t_part, part[:2].T, part[2:].T))
    t_end = float(sol.t_events[0][0])
    ts = np.arange(0.0, t_end, cfg.sample_dt)
    ts = np.append(ts, t_end)
    ys = sol.sol(ts)
    return ts, ys[:2].T, ys[2:].T


def integrate_geodesic(model: AHModel, start: PhasePoint,
                       cfg: Optional[IntegratorConfig] = None) -> GeodesicPath:
    """Integrate the geodesic through ``start`` to the boundary both ways.

    Unit speed is conserved by the flow and monitored, never corrected.
    Raises TrappedGeodesicError (with the partial path) if either direction
    exhausts the time budget before reaching rho <= rho_cut.
    """
    cfg = cfg or IntegratorConfig()
    if model.rho(start.x) <= cfg.rho_cut:
        raise DomainError("start point must satisfy rho > rho_cut")
    t_f, x_f, v_f = _integrate_ray(model, start.x, start.v, cfg)
    t_b, x_b, v_b = _integrate_ray(model, start.x, -start.v, cfg)
    # backward ray covers negative times; flip velocities back
    t = np.concatenate([-t_b[::-1], t_f[1:]])
    x = np.concatenate([x_b[::-1], x_f[1:]])
    v = np.concatenate([-v_b[::-1], v_f[1:]])
    entry = _extrapolate_datum(model, -t_b, x_b, -v_b, Direction.INCOMING)
    exit_ = _extrapolate_datum(model, t_f, x_f, v_f, Direction.OUTGOING)
    return GeodesicPath(t=t, x=x, v=v, entry=entry, exit=exit_,
                        rho_cut=cfg.rho_cut, model=model)


class DiskGeodesic:
    """Closed-form unit-speed geodesic of the unperturbed Poincare disk.

    gamma(t) = (p z + w) / (1 + conj(w) p z) with z = tanh(t/2), |p| = 1 and
    w the point of closest approach to the origin.  Conformality of the
    Mobius map makes the parametrization exactly unit speed.
    """

    def __init__(self, model: AHModel, w: complex, p: complex,
                 rho_cut: float):
        if model.kind is not ModelKind.POINCARE_DISK:
            raise DomainError("closed-form geodesics exist only on the disk")
        self.model = model
        self.w = complex(w)
        self.p = complex(p) / abs(complex(p))
        self.rho_cut = rho_cut
        self.t_entry = -self._truncation_time(-1.0)
        self.t_exit = self._truncation_time(1.0)

    # -- construction ----------------------------------------------------

    @classmethod
    def through(cls, model: AHModel, x0, theta: float,
                rho_cut: float = 1e-6) -> "DiskGeodesic":
        """Geodesic with gamma(0) = x0 and direction angle theta there."""
        x0 = np.asarray(x0, dtype=float)
        w = complex(x0[0], x0[1])
        return cls(model, w, complex(math.cos(theta), math.sin(theta)),
                   rho_cut)

    @classmethod
    def between_boundary_angles(cls, model: AHModel, alpha_in: float,
                                alpha_out: float,
                                rho_cut: float = 1e-6) -> "DiskGeodesic":
        """Unique geodesic with the given boundary limits.

        Antipodal angles give the diameter; otherwise the circular arc
        orthogonal to the unit circle (Euclidean center c with c.A = c.B = 1).
        """
        a = complex(math.cos(alpha_in), math.sin(alpha_in))
        b = complex(math.cos(alpha_out), math.sin(alpha_out))
        if abs(a - b) < 1e-12:
            raise DegenerateGeodesicError(
                "equal boundary angles give no geodesic")
        if abs(a + b) < 1e-12:
            return cls(model, 0.0, b, rho_cut)
        mat = np.array([[a.real, a.imag], [b.real, b.imag]])
        c_vec = np.linalg.solve(mat, np.ones(2))
        c = complex(c_vec[0], c_vec[1])
        radius = math.sqrt(abs(c) ** 2 - 1.0)
        w = c * (1.0 - radius / abs(c))
        p = 1j * c / abs(c)
        geo = cls(model, w, p, rho_cut)
        if abs(geo.boundary_point(-1.0) - a) > 1e-9:
            geo = cls(model, w, -p, rho_cut)
        return geo

    def reversed(self) -> "DiskGeodesic":
        return DiskGeodesic(self.model, self.w, -self.p, self.rho_cut)

    # -- evaluation -------------------------------------------------------

    def boundary_point(self, z_sign: float) -> complex:
        z = 1.0 if z_sign > 0 else -1.0
        val = (self.p * z + self.w) / (1.0 + np.conj(self.w) * self.p * z)
        return complex(val)

    def position(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = np.tanh(t / 2.0)
        num = self.p * z + self.w
        den = 1.0 + np.conj(self.w) * self.p * z
        val = num / den
        return np.stack([val.real, val.imag], axis=-1)

    def velocity(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = np.tanh(t / 2.0)
        den = 1.0 + np.conj(self.w) * self.p * z
        dmob = self.p * (1.0 - abs(self.w) ** 2) / den**2
        val = dmob * 0.5 / np.cosh(t / 2.0) ** 2
        return np.stack([val.real, val.imag], axis=-1)

    def rho_of_t(self, t: np.ndarray) -> np.ndarray:
        x = self.position(t)
        return 1.0 - np.sum(x * x, axis=-1)

    def _truncation_time(self, side: float) -> float:
        """Time |t| at which rho falls to rho_cut on the ``side`` of w.

        Along the geodesic rho = (1 - |w|^2)(1 - z^2) / |1 + conj(w) p z|^2.
        With zeta = 1 - side z, rho = rho_cut is the quadratic
        alpha zeta^2 - 2 beta zeta + gamma = 0, which is negative at
        zeta = 1 (t = 0) and nonnegative at zeta = 0, so its small root is
        the one crossing; it is taken in cancellation-free form.
        """
        r = 1.0 - abs(self.w) ** 2
        if r <= self.rho_cut:
            raise DegenerateGeodesicError(
                f"gamma(0) lies at rho = {r:.3e}, not inside the truncation "
                f"level rho_cut = {self.rho_cut:g}")
        a = side * self.w.conjugate() * self.p
        alpha = r + self.rho_cut * abs(a) ** 2
        beta = r + self.rho_cut * (a.real + abs(a) ** 2)
        gamma = self.rho_cut * abs(1.0 + a) ** 2
        zeta = gamma / (beta + math.sqrt(beta * beta - alpha * gamma))
        return math.log((2.0 - zeta) / zeta)

    def boundary_data(self) -> tuple[BoundaryDatum, BoundaryDatum]:
        a = self.boundary_point(-1.0)
        b = self.boundary_point(1.0)
        x0 = self.position(np.zeros(()))
        v0 = self.velocity(np.zeros(()))
        eta = float(self.model.angular_momentum(x0, v0))
        entry = BoundaryDatum(alpha=math.atan2(a.imag, a.real) % (2 * math.pi),
                              eta_tangential=eta, direction=Direction.INCOMING)
        exit_ = BoundaryDatum(alpha=math.atan2(b.imag, b.real) % (2 * math.pi),
                              eta_tangential=eta, direction=Direction.OUTGOING)
        return entry, exit_

    def sample(self, dt: float = 0.05) -> GeodesicPath:
        n = max(int(math.ceil((self.t_exit - self.t_entry) / dt)), 8)
        t = np.linspace(self.t_entry, self.t_exit, n + 1)
        entry, exit_ = self.boundary_data()
        return GeodesicPath(t=t, x=self.position(t), v=self.velocity(t),
                            entry=entry, exit=exit_, rho_cut=self.rho_cut,
                            model=self.model, analytic=self)

    def with_rho_cut(self, rho_cut: float) -> "DiskGeodesic":
        return DiskGeodesic(self.model, self.w, self.p, rho_cut)


def geodesic_between_boundary_angles(model: AHModel, alpha_in: float,
                                     alpha_out: float,
                                     rho_cut: float = 1e-6,
                                     sample_dt: float = 0.05) -> GeodesicPath:
    """Closed-form disk geodesic between boundary angles, as a sampled path."""
    geo = DiskGeodesic.between_boundary_angles(model, alpha_in, alpha_out,
                                               rho_cut)
    return geo.sample(sample_dt)


def boundary_phase_point(model: AHModel, datum: BoundaryDatum,
                         rho_start: float) -> PhasePoint:
    """Phase point at rho = rho_start realizing an incoming boundary datum.

    Uses the canonical identification of b-cosphere data with unit vectors:
    the tangential component reproduces eta_tangential and the radial
    component points inward with the norm fixed by |v|_g = 1.
    """
    if datum.direction is not Direction.INCOMING:
        raise DomainError("shooting requires an incoming datum")
    r = math.sqrt(1.0 - rho_start)
    x = r * np.array([math.cos(datum.alpha), math.sin(datum.alpha)])
    phi = float(model.log_conformal(x))
    c_theta = datum.eta_tangential * math.exp(-phi) / r
    if abs(c_theta) >= 1.0:
        raise DomainError("rho_start too large for this eta_tangential")
    c_r = -math.sqrt(1.0 - c_theta**2)
    e_r = np.array([math.cos(datum.alpha), math.sin(datum.alpha)])
    e_t = np.array([-math.sin(datum.alpha), math.cos(datum.alpha)])
    v = math.exp(-phi) * (c_r * e_r + c_theta * e_t)
    return PhasePoint(model, x, v)


def shoot_from_boundary(model: AHModel, datum: BoundaryDatum,
                        rho_start: float,
                        cfg: Optional[IntegratorConfig] = None) -> GeodesicPath:
    """Integrate forward from an incoming boundary datum to the exit.

    The map datum -> exit datum is the geodesic relation indexing scattering
    records.  Propagates TrappedGeodesicError on budget exhaustion.
    """
    cfg = cfg or IntegratorConfig()
    if rho_start > cfg.rho_cut:
        raise DomainError("rho_start must not exceed the truncation level")
    start = boundary_phase_point(model, datum, rho_start)
    t, x, v = _integrate_ray(model, start.x, start.v, cfg)
    exit_ = _extrapolate_datum(model, t, x, v, Direction.OUTGOING)
    return GeodesicPath(t=t, x=x, v=v, entry=datum, exit=exit_,
                        rho_cut=cfg.rho_cut, model=model)
