"""Asymptotically hyperbolic surfaces in the disk model.

The base geometry is the Poincare disk with metric 4|dx|^2 / (1 - |x|^2)^2
and boundary defining function rho = 1 - |x|^2.  Conformal perturbations
multiply the metric by exp(2*psi) where psi is a compactly supported radial
bump kept away from the boundary, so rho and the fiber-angle calculus of the
sphere bundle are unchanged.

For the unperturbed disk, geodesics are available in closed form through
Mobius transformations.  Outside the bump's Euclidean ball the metric is
exactly the Poincare metric, so a ray shot from a boundary datum is made of
pieces: the closed-form disk geodesic up to the ball, a fixed-step RK4
crossing of the ball, and the closed-form disk geodesic through the state
that leaves it, which gives the exit datum (limit angle and tangential
covector component) in closed form.  A ray that misses the ball is one disk
geodesic.  The geodesic through an interior phase point
(``integrate_geodesic``) is the closed form on the disk; on a perturbed
model its backward ray is marched out of the ball by the same RK4 crossing,
and the geodesic is the ray shot from the entry datum read there.

The crossing steps one phase point in Python floats (``AHModel._flow_at``),
in the order of the array operations and so with their bits: NumPy on one
2-vector spends about 50 calls per RK4 stage on about 40 flops.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DegenerateGeodesicError, DomainError, TrappedGeodesicError

_INTERIOR_MARGIN = 1e-9
# points per axis of the grid on which a bump's curvature is checked
_CURVATURE_GRID = 64
# largest time step between the samples of a path's (t, x, v)
_SAMPLE_DT = 0.05


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

    def __post_init__(self):
        for name, values in (("center", self.center),
                             ("radius", (self.radius,)),
                             ("amplitude", (self.amplitude,))):
            if not all(map(math.isfinite, values)):
                raise DomainError(f"bump {name} {getattr(self, name)!r} is "
                                  "not finite")
        if not self.radius > 0.0:
            raise DomainError(f"bump radius {self.radius!r} is not positive")

    def _q(self, x: np.ndarray) -> np.ndarray:
        d0 = x[..., 0] - self.center[0]
        d1 = x[..., 1] - self.center[1]
        return (d0 * d0 + d1 * d1) / self.radius**2

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


class AHModel:
    """Disk-model AH surface: the Poincare disk or a conformal perturbation.

    Construction validates that the bump support stays in {rho >= epsilon0}
    and that the sectional curvature remains strictly negative on a grid;
    the amplitude cap is empirical since no quantitative smallness is
    available for the deformation argument.
    """

    def __init__(self, kind: ModelKind = ModelKind.POINCARE_DISK,
                 bump: Optional[ConformalBump] = None,
                 epsilon0: float = 0.1):
        if kind is ModelKind.CONFORMAL_PERTURBED and bump is None:
            raise DomainError("conformal_perturbed model requires a bump")
        if not 0.0 < epsilon0 < 1.0:
            raise DomainError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
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
            self._validate_curvature()

    def _validate_curvature(self) -> None:
        axis = np.linspace(-0.999, 0.999, _CURVATURE_GRID)
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
        x0, x1 = x[..., 0], x[..., 1]
        return 1.0 - (x0 * x0 + x1 * x1)

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
        v0, v1 = v[..., 0, None], v[..., 1, None]
        gv = grad[..., 0, None] * v0 + grad[..., 1, None] * v1
        v2 = v0 * v0 + v1 * v1
        return -(2.0 * v * gv - v2 * grad)

    def _flow_at(self, x0: float, x1: float, v0: float, v1: float
                 ) -> tuple[float, float, float, float]:
        """The geodesic flow (v, ``geodesic_rhs``) at one point in Python
        floats, with the same bits: the operations of ``grad_log_conformal``,
        ``grad_psi`` and ``geodesic_rhs`` in order, (1 - q)**2 as a product
        (an array's square), and NumPy's exp (``math.exp`` may differ)."""
        rho = 1.0 - (x0 * x0 + x1 * x1)
        g0, g1 = 2.0 * x0 / rho, 2.0 * x1 / rho
        bump = self.bump
        if bump is not None:
            d0, d1 = x0 - bump.center[0], x1 - bump.center[1]
            r2 = bump.radius**2
            q = (d0 * d0 + d1 * d1) / r2
            u = 1.0 - q
            dprof = -float(np.exp(1.0 - 1.0 / u)) / (u * u) if q < 1 else 0.0
            s = bump.amplitude * dprof * 2.0
            g0, g1 = g0 + s * d0 / r2, g1 + s * d1 / r2
        gv = g0 * v0 + g1 * v1
        v2 = v0 * v0 + v1 * v1
        return v0, v1, -(2.0 * v0 * gv - v2 * g0), -(2.0 * v1 * gv - v2 * g1)

    def angular_momentum(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Conserved g(v, d/dtheta) wherever the metric is rotation-symmetric."""
        e2phi = np.exp(2.0 * self.log_conformal(x))
        return e2phi * (x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0])

    def speed(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.exp(self.log_conformal(x)) * np.sqrt(np.sum(v * v, axis=-1))


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
    """Geodesic integration settings.

    A ray crosses the bump by classic RK4 at the step (span of the disk
    geodesic it arrives on, between the rho_cut points) / n_steps; at 8192
    steps it keeps unit speed to about 1e-9, at 2048 only to about 2e-7.
    A shooting fan (``xray.fan_paths``) crosses at 4 x the transport's
    n_steps, which is 2048 at the transport default of 512.
    """

    rho_cut: float = 1e-6
    # time budget before "trapped", for each crossing of the bump's ball
    max_span: float = 80.0
    n_steps: int = 8192

    def __post_init__(self):
        if not 0.0 < self.rho_cut <= 1e-2:
            raise DomainError("rho_cut must lie in (0, 1e-2]")
        if not 0.0 < self.max_span < math.inf:
            raise DomainError("max_span must be finite and > 0")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise DomainError("n_steps must be an integer >= 1")


@dataclass(frozen=True)
class ShotPieces:
    """A shot ray that crosses the bump's ball, in three pieces.

    ``incoming`` and ``outgoing`` are closed-form disk geodesics, each
    spanning its piece in its own time (the outgoing piece starts at 0, at
    the state that leaves the ball).  Between them the ray is marched by
    classic RK4 at step h; ``stages[k, s]`` holds the position and
    velocity (axis -2: x, v) at stage s of step k, shape (n, 4, 2, 2),
    which are where the transport of the same step evaluates its fields.
    """

    incoming: "DiskGeodesic"
    h: float
    stages: np.ndarray
    outgoing: "DiskGeodesic"


@dataclass
class GeodesicPath:
    """Complete unit-speed geodesic truncated at rho = rho_cut on both ends.

    A single-piece path carries its disk geodesic in ``analytic``, a ray
    that crosses the bump its pieces in ``pieces``.  ``t`` runs on the
    first piece's clock shifted by t[0] - (first piece).t_entry.
    """

    t: np.ndarray            # (n,), strictly increasing
    x: np.ndarray            # (n, 2)
    v: np.ndarray            # (n, 2)
    entry: BoundaryDatum
    exit: BoundaryDatum
    rho_cut: float
    model: AHModel
    analytic: Optional["DiskGeodesic"] = field(default=None, repr=False)
    pieces: Optional[ShotPieces] = field(default=None, repr=False)

    def unit_speed_defect(self) -> float:
        return float(np.max(np.abs(self.model.speed(self.x, self.v) - 1.0)))

    def boundary_data(self) -> tuple[BoundaryDatum, BoundaryDatum]:
        return self.entry, self.exit

    def reversed(self) -> "GeodesicPath":
        """The same path run backwards.  A shot ray's pieces are dropped (an
        RK4 march run backwards is not the reversed march), so a crossing
        ray's reverse cannot be transported: shoot from its exit datum."""
        rev_analytic = self.analytic.reversed() if self.analytic else None
        return GeodesicPath(
            t=-self.t[::-1], x=self.x[::-1].copy(), v=-self.v[::-1],
            entry=BoundaryDatum(self.exit.alpha, self.exit.eta_tangential,
                                Direction.INCOMING),
            exit=BoundaryDatum(self.entry.alpha, self.entry.eta_tangential,
                               Direction.OUTGOING),
            rho_cut=self.rho_cut, model=self.model, analytic=rev_analytic)

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
        self.model, self.w, self.p = model, complex(w), complex(p)
        if not (cmath.isfinite(self.w) and cmath.isfinite(self.p)):
            raise DomainError("geodesic needs a finite w and p, got "
                              f"{self.w}, {self.p}")
        self.p /= abs(self.p)
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
        return DiskGeodesic(self.model, self.w, -self.p, self.rho_cut).span(
            -self.t_exit, -self.t_entry)

    def span(self, t_entry: float, t_exit: float) -> "DiskGeodesic":
        """A copy truncated at the given times instead of at rho_cut."""
        geo = copy.copy(self)
        geo.t_entry, geo.t_exit = t_entry, t_exit
        return geo

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

    def ball_crossing(self, center, radius: float
                      ) -> Optional[tuple[float, float]]:
        """Times at which the geodesic enters and leaves the Euclidean ball
        |x - center| < radius, or None when it meets the ball in at most
        one point.

        |gamma - c|^2 = r^2 with gamma = num / den is
        |num - c den|^2 = r^2 |den|^2, a real quadratic
        A z^2 + 2 B z + C = 0 in z = tanh(t/2).  For a ball inside the unit
        disk A > 0 and the real roots lie in (-1, 1); they are taken in
        cancellation-free form.
        """
        c = complex(center[0], center[1])
        e = self.w.conjugate() * self.p          # den = 1 + e z
        a = self.p - c * e                       # num - c den = a z + b
        b = self.w - c
        r2 = radius * radius
        qa = abs(a) ** 2 - r2 * abs(e) ** 2
        qb = (a * b.conjugate()).real - r2 * e.real
        qc = abs(b) ** 2 - r2
        disc = qb * qb - qa * qc
        if disc <= 0.0:
            return None
        q = -(qb + math.copysign(math.sqrt(disc), qb))
        z_in, z_out = sorted((q / qa, qc / q))
        return 2.0 * math.atanh(z_in), 2.0 * math.atanh(z_out)

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

    def sample(self) -> GeodesicPath:
        n = max(math.ceil((self.t_exit - self.t_entry) / _SAMPLE_DT), 8)
        t = np.linspace(self.t_entry, self.t_exit, n + 1)
        entry, exit_ = self.boundary_data()
        return GeodesicPath(t=t, x=self.position(t), v=self.velocity(t),
                            entry=entry, exit=exit_, rho_cut=self.rho_cut,
                            model=self.model, analytic=self)

    def with_rho_cut(self, rho_cut: float) -> "DiskGeodesic":
        return DiskGeodesic(self.model, self.w, self.p, rho_cut)

    def time_at(self, x) -> float:
        """Time at which the geodesic passes the point x on it, read from
        the inverse Mobius map."""
        w = complex(x[0], x[1])
        z = (w - self.w) / (self.p * (1.0 - self.w.conjugate() * w))
        return 2.0 * math.atanh(z.real)


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


def _recentred(disk: AHModel, x: np.ndarray, v: np.ndarray,
               rho_cut: float) -> tuple[DiskGeodesic, float]:
    """The disk geodesic through the phase point (x, v), centred at its
    point closest to the origin, and the time at which it passes x.

    ``DiskGeodesic.through`` centres it at x, which it refuses at
    rho <= rho_cut; here it is rebuilt from its two boundary points and
    the time is read from the inverse Mobius map.
    """
    w = complex(x[0], x[1])
    p = complex(v[0], v[1]) / math.hypot(v[0], v[1])
    ends = [cmath.phase((s * p + w) / (1.0 + w.conjugate() * p * s))
            for s in (-1.0, 1.0)]
    geo = DiskGeodesic.between_boundary_angles(disk, *ends, rho_cut)
    return geo, geo.time_at(x)


def _sampled(geo: DiskGeodesic, t0: float, t1: float):
    """Times, positions and velocities of geo on [t0, t1], _SAMPLE_DT apart
    at most."""
    t = np.linspace(t0, t1, max(math.ceil((t1 - t0) / _SAMPLE_DT), 1) + 1)
    return t, geo.position(t), geo.velocity(t)


def _joined(*runs):
    """One (t, x, v) sample run from consecutive ones."""
    return tuple(np.concatenate(parts) for parts in zip(*runs))


def _cross_ball(model: AHModel, y: np.ndarray, h: float,
                cfg: IntegratorConfig, t0: float = 0.0, head=None):
    """Classic RK4 march of the state y = (x, v) at step h, at least one
    step, until the state lies outside the bump's ball and the disk
    geodesic through it (time 0 there) does not meet the ball again.

    Returns the stage states (n, 4, 2, 2), the run (t, x, v) of the n + 1
    states at times t0 + k h, and that disk geodesic.  Raises
    TrappedGeodesicError past the time budget, with the run after ``head``.

    The state (x0, x1, v0, v1) is a tuple of Python floats stepped by
    ``AHModel._flow_at`` in the array march's order of operations, so with
    its bits: NumPy on one point costs ten times as much.  Tuples are
    written out; ``tuple`` of a generator would fill the 4-tuple free list.
    """
    bump = model.bump
    disk = AHModel()
    y = tuple(np.asarray(y, dtype=float).ravel().tolist())
    flow, stages = model._flow_at, []

    def axpy(y, c, k):
        return (y[0] + c * k[0], y[1] + c * k[1], y[2] + c * k[2],
                y[3] + c * k[3])

    def run(states):
        states = np.array(states).reshape(-1, 2, 2)
        return t0 + h * np.arange(len(states)), states[:, 0], states[:, 1]

    while True:
        if len(stages) * h > cfg.max_span:
            part = run([st[:4] for st in stages])
            raise TrappedGeodesicError(
                f"no exit from the bump's ball within time budget "
                f"{cfg.max_span} (possibly trapped)",
                partial=part if head is None else _joined(head, part))
        k1 = flow(*y)
        y2 = axpy(y, 0.5 * h, k1)
        k2 = flow(*y2)
        y3 = axpy(y, 0.5 * h, k2)
        k3 = flow(*y3)
        y4 = axpy(y, h, k3)
        stages.append(y + y2 + y3 + y4)
        y = axpy(y, h / 6.0, [b + 2.0 * c + 2.0 * d + e
                               for b, c, d, e in zip(k1, k2, k3, flow(*y4))])
        d0, d1 = y[0] - bump.center[0], y[1] - bump.center[1]
        if (d0 * d0 + d1 * d1) / bump.radius**2 >= 1.0:
            out = DiskGeodesic.through(disk, y[:2], math.atan2(y[3], y[2]),
                                       cfg.rho_cut)
            again = out.ball_crossing(bump.center, bump.radius)
            if again is None or again[1] <= 0.0:
                return (np.array(stages).reshape(-1, 4, 2, 2),
                        run([st[:4] for st in stages] + [y]), out)


def shoot_from_boundary(model: AHModel, datum: BoundaryDatum,
                        rho_start: float,
                        cfg: Optional[IntegratorConfig] = None) -> GeodesicPath:
    """The ray from an incoming boundary datum to its exit.

    The map datum -> exit datum is the geodesic relation indexing scattering
    records.  The ray follows the disk geodesic through the phase point of
    ``boundary_phase_point`` at rho_start; if that geodesic meets the bump's
    ball in more than one point, it is marched across the ball by classic
    RK4 (``IntegratorConfig``) until the state lies outside the ball and the
    disk geodesic through it does not meet the ball again, and it leaves on
    that disk geodesic.  The exit datum is the closed-form one of the last
    disk geodesic.  Times are those of the incoming disk geodesic.  A
    single-piece ray carries its disk geodesic in ``analytic``, a crossing
    ray its pieces in ``pieces``.  Raises TrappedGeodesicError, with the
    path so far, when the crossing exceeds the time budget.
    """
    cfg = cfg or IntegratorConfig()
    if rho_start > cfg.rho_cut:
        raise DomainError("rho_start must not exceed the truncation level")
    start = boundary_phase_point(model, datum, rho_start)
    disk = model if model.bump is None else AHModel()
    geo, t0 = _recentred(disk, start.x, start.v, cfg.rho_cut)
    bump = model.bump
    hit = None if bump is None else geo.ball_crossing(bump.center,
                                                      bump.radius)
    if hit is None:
        geo = geo.span(t0, geo.t_exit)
        return replace(geo.sample(), entry=datum, model=model)

    t_in = hit[0]
    h = (geo.t_exit - geo.t_entry) / cfg.n_steps
    t, x, v = _sampled(geo, t0, t_in)
    head = (t[:-1], x[:-1], v[:-1])        # the crossing starts at t_in
    stages, ball, out = _cross_ball(model, np.stack([x[-1], v[-1]]), h, cfg,
                                    t_in, head)
    t_o, x_o, v_o = _sampled(out, 0.0, out.t_exit)
    t, x, v = _joined(head, ball, (ball[0][-1] + t_o[1:], x_o[1:], v_o[1:]))
    return GeodesicPath(
        t=t, x=x, v=v, entry=datum, exit=out.boundary_data()[1],
        rho_cut=cfg.rho_cut, model=model,
        pieces=ShotPieces(incoming=geo.span(t0, t_in), h=h, stages=stages,
                          outgoing=out.span(0.0, out.t_exit)))


def integrate_geodesic(model: AHModel, start: PhasePoint,
                       cfg: Optional[IntegratorConfig] = None) -> GeodesicPath:
    """The geodesic through ``start`` to rho_cut both ways, t = 0 there.

    On the disk it is the closed form.  On a perturbed model the backward
    ray is marched out of the bump's ball (``_cross_ball``, at the step
    span / n_steps of the disk geodesic through the start), and the path
    is the ray shot from the entry datum of the disk geodesic it leaves on;
    it passes the start to within the crossing's RK4 error.  Raises
    TrappedGeodesicError, with the backward march so far, past the budget.
    """
    cfg = cfg or IntegratorConfig()
    if model.rho(start.x) <= cfg.rho_cut:
        raise DomainError("start point must satisfy rho > rho_cut")
    disk = model if model.bump is None else AHModel()
    geo = DiskGeodesic.through(disk, start.x, start.theta, cfg.rho_cut)
    if model.bump is None:
        return geo.sample()
    h = (geo.t_exit - geo.t_entry) / cfg.n_steps
    # the disk geodesic is exact outside the ball: go back to it at t_skip
    hit = geo.ball_crossing(model.bump.center, model.bump.radius)
    t_skip = min(hit[1], 0.0) if hit else 0.0
    v = start.v if t_skip == 0.0 else geo.velocity(np.asarray(t_skip))
    _, (t, x, _), back = _cross_ball(
        model, np.stack([geo.position(np.asarray(t_skip)), -v]), h, cfg,
        -t_skip)
    path = shoot_from_boundary(model, back.reversed().boundary_data()[0],
                               cfg.rho_cut, cfg)
    first = path.analytic if path.pieces is None else path.pieces.incoming
    return replace(path, t=path.t - (first.time_at(x[-1]) + t[-1]))
