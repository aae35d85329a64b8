"""Discrete calculus on the unit sphere bundle of a conformal AH surface.

The bundle is coordinatized by (x, theta) with theta the Euclidean direction
angle, which for conformal metrics is fiber arc length.  Sections are held
as fiber Fourier coefficients u = sum_k u_k(x) e^{ik theta} on a band:
``modes`` (nx, ny, width, d) holds the frequencies k_lo .. k_lo + width - 1
in ascending order, and every other coefficient is zero.  The full axis
-(n_theta // 2) .. (n_theta - 1) // 2 is the widest band; theta samples
give it, and ``values``/``coeffs`` pad a band to it for one inverse
transform.  A section of degree m and every term the Pestov identity
builds from it lie in a band of width at most 2m + 3, so the operators
work on a few modes instead of n_theta.  Base derivatives use 4th-order
central stencils on a Cartesian grid masked to {rho >= rho_grid}.  With
d = (d_1 - i d_2)/2, Phi the log conformal factor and
A_+- = (Gamma_1 -+ i Gamma_2)/2, the geodesic vector field splits as
X = eta_+ + eta_- (Guillemin-Kazhdan):

- eta_+ u_k = e^{-Phi} (d - k d Phi + A_+) u_k, placed in mode k + 1
- eta_- u_k = e^{-Phi} (dbar + k dbar Phi + A_-) u_k, placed in mode k - 1
- horizontal derivative h-grad = i (eta_+ - eta_-)
- vertical derivative and divergence: ik (v-grad is the v^perp coefficient)
- vertical Laplacian: k^2.

X and the horizontal operators widen a band by one mode on each side; the
vertical and curvature operators keep it.  A band that would leave the
full axis wraps cyclically onto it, as multiplication by e^{+-i theta}
does on the theta samples, Nyquist mode included, so full-band sections
give the numbers of the theta grid.  The horizontal divergence
is the discrete adjoint of the horizontal derivative under the quadrature
inner product, so the adjoint identity holds by construction and commutator
residuals isolate discretization error.  The curvature operator of the
metric acts on v^perp coefficients as multiplication by the Gauss
curvature; the bundle curvature operator as e^{-2 Phi} f_12.

A grid evaluates a connection once: Gamma_1, Gamma_2 (read by every X)
and f_12 (read by the curvature operator) come from one
``ConnectionField.symbols_and_curvature`` on the mask and sit in one cache
per grid, so a Pestov check evaluates the connection's bumps once per grid
level.  An inner product is one weighted ``np.vdot`` over the band two
sections share, and the base stencils work in place.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional
from weakref import WeakKeyDictionary

import numpy as np

from .bundle import ConnectionField
from .errors import DomainError
from .geometry import AHModel

TWO_PI = 2.0 * math.pi
# relative energy above which a mode counts towards a section's degree
_DEGREE_TOL = 1e-10


class SphereBundleGrid:
    """Square tensor grid on {rho >= rho_grid} x uniform fiber angles.

    Quadrature weight per node is sqrt(det g) * h1 * h2 * dtheta, so the
    total fiber measure over each base point is 2*pi*sqrt(det g)*h1*h2
    exactly.
    """

    def __init__(self, model: AHModel, nx: int = 64, n_theta: int = 64,
                 rho_grid: float = 0.05):
        if nx < 8 or n_theta < 8:
            raise DomainError("grid too small for 4th-order stencils")
        if not 0.0 < rho_grid < 1.0:
            raise DomainError(f"rho_grid must lie in (0, 1), got {rho_grid!r}")
        self.model = model
        self.nx, self.ny, self.n_theta = nx, nx, n_theta
        self.rho_grid = rho_grid
        r_grid = math.sqrt(1.0 - rho_grid)
        self.r_grid = r_grid
        self.xs = np.linspace(-r_grid, r_grid, nx)
        self.ys = np.linspace(-r_grid, r_grid, nx)
        self.h1 = self.xs[1] - self.xs[0]
        self.h2 = self.ys[1] - self.ys[0]
        self.dtheta = TWO_PI / n_theta
        self.thetas = np.arange(n_theta) * self.dtheta
        xx, yy = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.points = np.stack([xx, yy], axis=-1)
        r2 = xx**2 + yy**2
        self.mask = r2 <= r_grid**2 + 1e-12
        self.interior_mask = self._erode(self.mask, 2)

        phi = np.zeros((nx, nx))
        grad = np.zeros((nx, nx, 2))
        gauss = np.zeros((nx, nx))
        pts = self.points[self.mask]
        phi[self.mask] = model.log_conformal(pts)
        grad[self.mask] = model.grad_log_conformal(pts)
        gauss[self.mask] = model.gauss_curvature(pts)
        self.phi = phi
        self.e_mphi = np.where(self.mask, np.exp(-phi), 0.0)
        self.grad_phi = grad
        self.gauss = gauss
        self.sqrt_det_g = np.where(self.mask, np.exp(2.0 * phi), 0.0)
        self.node_weight = self.sqrt_det_g * self.h1 * self.h2 * self.dtheta
        # the weight of a fiber coefficient by Parseval, shaped for a band
        self._mode_weight = (self.node_weight * n_theta)[:, :, None, None]
        self.max_exact_degree = (n_theta - 2) // 4
        self._field_cache: WeakKeyDictionary = WeakKeyDictionary()

    @staticmethod
    def _erode(mask: np.ndarray, width: int) -> np.ndarray:
        padded = np.pad(mask, width, constant_values=False)
        out = mask.copy()
        nx, ny = mask.shape
        for dx in range(-width, width + 1):
            for dy in range(-width, width + 1):
                if dx == 0 and dy == 0:
                    continue
                out &= padded[width + dx: width + dx + nx,
                              width + dy: width + dy + ny]
        return out

    # -- cached field data ------------------------------------------------

    def _fields(self, conn: ConnectionField
                ) -> tuple[np.ndarray, np.ndarray]:
        """Gamma_1, Gamma_2 and f_12 on the mask, zero off it: one
        evaluation of the connection per grid, cached."""
        fields = self._field_cache.get(conn)
        if fields is None:
            fields = tuple(self._on_mask(values) for values in
                           conn.symbols_and_curvature(self.points[self.mask]))
            self._field_cache[conn] = fields
        return fields

    def _on_mask(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros((self.nx, self.ny) + values.shape[1:], dtype=complex)
        out[self.mask] = values
        return out

    def symbols(self, conn: ConnectionField) -> np.ndarray:
        """Gamma_1, Gamma_2 on the mask, from the one cache of
        ``curvature``: every X reads them."""
        return self._fields(conn)[0]

    def curvature(self, conn: ConnectionField) -> np.ndarray:
        """f_12 on the mask, from the one cache of ``symbols``: each
        identity check reads it."""
        return self._fields(conn)[1]

    # -- differential building blocks --------------------------------------

    def dx(self, values: np.ndarray, axis: int) -> np.ndarray:
        """4th-order central difference with zero extension outside,
        (-u[i+2] + 8 u[i+1] - 8 u[i-1] + u[i-2]) / 12h, formed in place on
        the real and imaginary parts (scaled by 1 / 12h, as NumPy divides
        a complex number by a real one): one padded copy, the result and
        one scratch array."""
        h = self.h1 if axis == 0 else self.h2
        values = np.asarray(values)
        cplx = np.iscomplexobj(values)
        # a complex array as the reals (..., 2), the axes in front kept
        real = np.ascontiguousarray(values)[..., None].view(float) if cplx \
            else values
        n = values.shape[axis]
        lead = (slice(None),) * axis
        shape = list(real.shape)
        shape[axis] += 4
        p = np.empty(shape)
        p[lead + (slice(0, 2),)] = 0.0
        p[lead + (slice(n + 2, None),)] = 0.0
        p[lead + (slice(2, n + 2),)] = real

        def s(a):
            return p[lead + (slice(a, a + n),)]

        out = np.negative(s(4))
        tmp = np.multiply(s(3), 8.0)
        out += tmp
        np.multiply(s(1), 8.0, out=tmp)
        out -= tmp
        out += s(0)
        out *= 1.0 / (12.0 * h)
        return out.view(complex)[..., 0] if cplx else out

    def outer_ring_mask(self) -> np.ndarray:
        return self.mask & ~self.interior_mask


def _freq_range(n_theta: int) -> tuple[int, int]:
    """Lowest and highest fiber frequency of an n_theta-point grid."""
    return -(n_theta // 2), (n_theta - 1) // 2


def _check(arr: np.ndarray, grid: SphereBundleGrid,
           compact_support: bool) -> None:
    if arr.ndim != 4 or arr.shape[:2] != (grid.nx, grid.ny):
        raise DomainError("section arrays have shape (nx, ny, fiber, rank) "
                          f"with (nx, ny) = ({grid.nx}, {grid.ny})")
    if not np.all(np.isfinite(arr)):
        raise DomainError("section contains non-finite entries")
    if compact_support and np.any(arr[grid.outer_ring_mask()]):
        raise DomainError("compactly supported section must vanish on "
                          "the two outermost rings")


class _FiberSection:
    """A band of fiber Fourier coefficients: ``modes`` (nx, ny, width, d)
    holds the frequencies k_lo .. k_lo + width - 1 in ascending order.
    Theta samples give the full band, by one forward transform."""

    def __init__(self, samples, grid: SphereBundleGrid,
                 compact_support: bool = False):
        samples = np.asarray(samples)
        _check(samples, grid, compact_support)
        if samples.shape[2] != grid.n_theta:
            raise DomainError(f"section needs {grid.n_theta} fiber samples")
        self.modes = np.fft.fftshift(
            np.fft.fft(samples, axis=2, norm="forward"), axes=2)
        self.k_lo = _freq_range(grid.n_theta)[0]
        self.grid = grid
        self.compact_support = compact_support

    @classmethod
    def from_modes(cls, modes, grid: SphereBundleGrid, k_lo: int,
                   compact_support: bool = False):
        """Section holding the coefficients ``modes`` (nx, ny, width, d) of
        the frequencies k_lo .. k_lo + width - 1, which must lie in the
        grid's range -(n_theta // 2) .. (n_theta - 1) // 2."""
        modes = np.array(modes, dtype=complex)
        _check(modes, grid, compact_support)
        lo, hi = _freq_range(grid.n_theta)
        if k_lo < lo or k_lo + modes.shape[2] - 1 > hi:
            raise DomainError(
                f"band {k_lo}..{k_lo + modes.shape[2] - 1} leaves the "
                f"frequencies {lo}..{hi} of a {grid.n_theta}-point fiber")
        return cls._from_modes(modes, grid, int(k_lo), compact_support)

    @classmethod
    def _from_modes(cls, modes: np.ndarray, grid: SphereBundleGrid,
                    k_lo: int, compact_support: bool = False):
        """Wrap coefficients an operator built: no transform, no checks."""
        out = cls.__new__(cls)
        out.modes, out.k_lo, out.grid = modes, k_lo, grid
        out.compact_support = compact_support
        return out

    @property
    def k(self) -> np.ndarray:
        """Frequencies of the band, ascending."""
        return np.arange(self.k_lo, self.k_lo + self.modes.shape[2])

    @property
    def rank(self) -> int:
        return self.modes.shape[-1]

    def norm(self) -> float:
        return math.sqrt(max(inner(self, self).real, 0.0))

    def _samples(self) -> np.ndarray:
        """Theta samples: the band padded to the full axis, one inverse
        transform."""
        n = self.grid.n_theta
        full = np.zeros(self.modes.shape[:2] + (n, self.rank), dtype=complex)
        full[:, :, self.k % n] = self.modes
        return np.fft.ifft(full, axis=2, norm="forward")


class SectionField(_FiberSection):
    """A section of the pulled-back bundle; ``values`` are its theta
    samples (nx, ny, n_theta, d), one inverse transform per access."""

    def __init__(self, values, grid: SphereBundleGrid,
                 compact_support: bool = False):
        super().__init__(values, grid, compact_support)

    @property
    def values(self) -> np.ndarray:
        return self._samples()


class NSectionField(_FiberSection):
    """Coefficient of the g-unit rotated direction in the normal bundle;
    ``coeffs`` are its theta samples, one inverse transform per access."""

    def __init__(self, coeffs, grid: SphereBundleGrid,
                 compact_support: bool = False):
        super().__init__(coeffs, grid, compact_support)

    @property
    def coeffs(self) -> np.ndarray:
        return self._samples()


def inner(a, b) -> complex:
    """L^2 inner product under the fiberwise Hermitian metric and the
    sphere-bundle quadrature weights, by Parseval on the fiber: only the
    frequencies both bands hold contribute."""
    lo = max(a.k_lo, b.k_lo)
    hi = min(a.k_lo + a.modes.shape[2], b.k_lo + b.modes.shape[2])
    if hi <= lo:
        return 0j
    return _weighted_dot(a.modes[:, :, lo - a.k_lo:hi - a.k_lo],
                         b.modes[:, :, lo - b.k_lo:hi - b.k_lo], a.grid)


def _weighted_dot(a: np.ndarray, b: np.ndarray,
                  grid: SphereBundleGrid) -> complex:
    """sum of a conj(b) over the nodes, the band and the fiber rank,
    under the weights of ``inner``: one weighted ``np.vdot``."""
    return complex(np.vdot(grid._mode_weight * b, a))


def _gather(parts, grid: SphereBundleGrid) -> tuple[np.ndarray, int]:
    """Sum of the bands (k_lo, modes) on the smallest band holding them
    all, and its lowest frequency.  Bands reaching past the grid's
    frequencies wrap cyclically onto the full axis, as multiplication by
    e^{+-i theta} does on the theta samples (Nyquist mode included)."""
    n = grid.n_theta
    lo, hi = _freq_range(n)
    k_lo = min(k for k, _ in parts)
    k_hi = max(k + modes.shape[2] - 1 for k, modes in parts)
    if k_lo < lo or k_hi > hi:
        k_lo, k_hi = lo, hi
    shape = parts[0][1].shape
    total = np.zeros(shape[:2] + (k_hi - k_lo + 1,) + shape[3:],
                     dtype=complex)
    for k, modes in parts:     # one part holds no slot twice
        total[:, :, (np.arange(k, k + modes.shape[2]) - k_lo) % n] += modes
    return total, k_lo


def _sum(*terms):
    """sum of c * section over the (c, section) pairs, as the type of the
    first."""
    first = terms[0][1]
    modes, k_lo = _gather([(sec.k_lo, c * sec.modes) for c, sec in terms],
                          first.grid)
    return type(first)._from_modes(modes, first.grid, k_lo)


def lift_from_base(f, grid: SphereBundleGrid, rank: Optional[int] = None
                   ) -> SectionField:
    """Constant-in-theta section from a base field x -> C^d: the band {0}."""
    if callable(f):
        masked = f(grid.points[grid.mask])
        d = rank or np.asarray(masked).shape[-1]
        vals = np.zeros((grid.nx, grid.ny, d), dtype=complex)
        vals[grid.mask] = masked
    else:
        vals = np.array(f, dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise DomainError("section contains non-finite entries")
    return SectionField._from_modes(vals[:, :, None], grid, 0)


def _raise_lower(v: np.ndarray, k_lo: int, grid: SphereBundleGrid,
                 conn: Optional[ConnectionField], phase: complex,
                 scale: np.ndarray, target_k: bool = False
                 ) -> tuple[np.ndarray, int]:
    """scale (phase E_+ v one mode up + conj(phase) E_- v one mode down),
    E_+ = d - k d Phi + A_+, E_- = dbar + k dbar Phi + A_-, with k the
    frequency of the source mode or, for target_k, of the mode landed in.
    The band k_lo .. k_hi of v goes to k_lo - 1 .. k_hi + 1, wrapped.
    Turning the direction by +90 degrees multiplies e^{+-i theta} by +-i:
    phase i turns X into the horizontal derivative."""
    width = v.shape[2]
    lo = _freq_range(grid.n_theta)[0]
    # frequencies of the result band, each as the mode it lands in
    ks = (np.arange(k_lo - 1, k_lo + width + 1) - lo) % grid.n_theta + lo
    k_plus, k_minus = (ks[2:], ks[:-2]) if target_k else (ks[1:-1],) * 2
    e1 = grid.dx(v, 0)
    e2 = grid.dx(v, 1)
    if conn is not None:
        gam = grid.symbols(conn)
        e1 += np.einsum("abkl,abtl->abtk", gam[:, :, 0], v)
        e2 += np.einsum("abkl,abtl->abtk", gam[:, :, 1], v)
    e2 *= 1j
    plus = e1 - e2                   # 2 (d + A_+) v
    minus = e1
    minus += e2                      # 2 (dbar + A_-) v
    dphi = grid.grad_phi[:, :, 0] - 1j * grid.grad_phi[:, :, 1]
    plus -= (dphi[:, :, None] * k_plus)[..., None] * v
    minus += (np.conj(dphi)[:, :, None] * k_minus)[..., None] * v
    half = 0.5 * scale[:, :, None, None]
    plus *= phase * half
    minus *= np.conj(phase) * half
    return _gather([(k_lo + 1, plus), (k_lo - 1, minus)], grid)


def apply_X(u, conn: Optional[ConnectionField] = None):
    """Geodesic derivative with connection, on sections or normal sections.

    On normal-bundle coefficients the formula is unchanged because the
    rotated direction is parallel along geodesics on a surface.
    """
    modes, k_lo = _raise_lower(u.modes, u.k_lo, u.grid, conn, 1.0,
                               u.grid.e_mphi)
    return type(u)._from_modes(modes, u.grid, k_lo)


def vertical_derivative(u: SectionField) -> NSectionField:
    ik = 1j * u.k[None, None, :, None]
    return NSectionField._from_modes(ik * u.modes, u.grid, u.k_lo)


def vertical_divergence(w: NSectionField) -> SectionField:
    ik = 1j * w.k[None, None, :, None]
    return SectionField._from_modes(ik * w.modes, w.grid, w.k_lo)


def horizontal_derivative(u: SectionField,
                          conn: Optional[ConnectionField] = None
                          ) -> NSectionField:
    modes, k_lo = _raise_lower(u.modes, u.k_lo, u.grid, conn, 1j,
                               u.grid.e_mphi)
    return NSectionField._from_modes(modes, u.grid, k_lo)


def horizontal_divergence(w: NSectionField,
                          conn: Optional[ConnectionField] = None
                          ) -> SectionField:
    """Discrete adjoint of the horizontal derivative (up to sign), built
    from the same stencils so that the adjoint identity is exact: the
    stencils act on sqrt(det g) e^{-Phi} w, and d_theta comes after the
    mode shift, so it takes the frequency of the mode each part lands in."""
    grid = w.grid
    v = (grid.e_mphi * grid.sqrt_det_g)[:, :, None, None] * w.modes
    # 1 / sqrt(det g) = e^{-2 Phi}, zero off the mask
    modes, k_lo = _raise_lower(v, w.k_lo, grid, conn, 1j, grid.e_mphi ** 2,
                               target_k=True)
    return SectionField._from_modes(modes, grid, k_lo)


def curvature_R(w: NSectionField) -> NSectionField:
    """Metric curvature operator: multiplication by the Gauss curvature."""
    return NSectionField._from_modes(
        w.grid.gauss[:, :, None, None] * w.modes, w.grid, w.k_lo)


def curvature_F(u: SectionField, conn: ConnectionField) -> NSectionField:
    """Bundle curvature operator as a normal-bundle coefficient."""
    grid = u.grid
    coeff = np.einsum("abkl,abtl->abtk", grid.curvature(conn), u.modes) \
        * (grid.e_mphi ** 2)[:, :, None, None]
    return NSectionField._from_modes(coeff, grid, u.k_lo)


def vertical_laplacian(u: SectionField) -> SectionField:
    k2 = (u.k ** 2)[None, None, :, None]
    return SectionField._from_modes(k2 * u.modes, u.grid, u.k_lo)


def _mode(u, m: int):
    """The |k| = m part of u, on the band from -m to m that u holds of
    it; an empty band when u holds neither (and for m < 0)."""
    n_theta = u.grid.n_theta
    if m >= n_theta // 2:
        raise DomainError(f"mode {m} aliases on a {n_theta}-point fiber grid")
    k = u.k
    hit = np.nonzero(np.abs(k) == m)[0]
    if not hit.size:
        return type(u)._from_modes(u.modes[:, :, :0], u.grid, u.k_lo)
    band = slice(hit[0], hit[-1] + 1)
    keep = (np.abs(k[band]) == m)[None, None, :, None]
    return type(u)._from_modes(np.where(keep, u.modes[:, :, band], 0.0),
                               u.grid, int(k[hit[0]]))


def mode_energies(u: SectionField, m_max: int) -> np.ndarray:
    """Squared L^2 norms of the Fourier modes, by Parseval on the fiber;
    exactly 0 for the modes outside the band."""
    grid = u.grid
    if m_max >= grid.n_theta // 2:
        raise DomainError(
            f"mode {m_max} aliases on a {grid.n_theta}-point fiber grid")
    per_bin = np.array([_weighted_dot(band, band, grid).real for band in
                        (u.modes[:, :, t:t + 1]
                         for t in range(u.modes.shape[2]))])
    k = np.abs(u.k)
    return np.array([per_bin[k == m].sum() for m in range(m_max + 1)])


def degree(u: SectionField) -> int:
    """Largest mode index above _DEGREE_TOL of the relative energy."""
    total = u.norm() ** 2
    if total == 0.0:
        return 0
    m_max = u.grid.n_theta // 2 - 1
    energies = mode_energies(u, m_max)
    idx = np.nonzero(energies / total > _DEGREE_TOL)[0]
    return int(idx[-1]) if idx.size else 0


def x_split(u: SectionField, m: int,
            conn: Optional[ConnectionField] = None):
    """Split X u of a mode-m section into its m-1 and m+1 parts.

    Returns (minus, plus, leak) with leak the relative energy of X u
    outside the two adjacent modes.  X moves each coefficient by exactly
    one mode, so the leak is rounding-level by construction; it stays as
    a check of the mapping property.
    """
    total = u.norm() ** 2
    inside = _mode(u, m).norm() ** 2
    if total > 0 and (total - inside) / total > 1e-10:
        raise DomainError(f"input section is not concentrated in mode {m}")
    xu = apply_X(u, conn)
    minus, plus = _mode(xu, m - 1), _mode(xu, m + 1)
    e_total = xu.norm() ** 2
    e_kept = minus.norm() ** 2 + plus.norm() ** 2
    leak = (e_total - e_kept) / e_total if e_total > 0 else 0.0
    return minus, plus, float(max(leak, 0.0))


@dataclass
class CommutatorReport:
    vertical: float      # [X, v-grad] + h-grad
    horizontal: float    # [X, h-grad] - R v-grad - F
    divergence: float    # (h-div v-grad - v-div h-grad) - n X
    vertical_div: float  # [X, v-div] + h-div

    def as_dict(self) -> dict:
        return asdict(self)


def commutator_residuals(conn: Optional[ConnectionField],
                         u: SectionField,
                         w: NSectionField) -> CommutatorReport:
    """Relative L^2 residuals of the four structure identities on test
    sections (u for the first three, w for the last)."""
    xu = apply_X(u, conn)
    vgrad_u = vertical_derivative(u)
    hgrad_u = horizontal_derivative(u, conn)

    res1 = _sum((1, apply_X(vgrad_u, conn)), (-1, vertical_derivative(xu)),
                (1, hgrad_u))
    r1 = res1.norm() / max(hgrad_u.norm(), 1e-300)

    lhs2 = _sum((1, apply_X(hgrad_u, conn)),
                (-1, horizontal_derivative(xu, conn)))
    rhs2 = curvature_R(vgrad_u)
    if conn is not None:
        rhs2 = _sum((1, rhs2), (1, curvature_F(u, conn)))
    r2 = _sum((1, lhs2), (-1, rhs2)).norm() \
        / max(rhs2.norm(), lhs2.norm(), 1e-300)

    res3 = _sum((1, horizontal_divergence(vgrad_u, conn)),
                (-1, vertical_divergence(hgrad_u)), (-1, xu))
    r3 = res3.norm() / max(xu.norm(), 1e-300)

    hdiv_w = horizontal_divergence(w, conn)
    res4 = _sum((1, apply_X(vertical_divergence(w), conn)),
                (-1, vertical_divergence(apply_X(w, conn))), (1, hdiv_w))
    r4 = res4.norm() / max(hdiv_w.norm(), 1e-300)

    return CommutatorReport(vertical=float(r1), horizontal=float(r2),
                            divergence=float(r3), vertical_div=float(r4))


@dataclass
class PestovReport:
    lhs: float
    rhs: float
    relative_residual: float
    terms: dict

    def as_dict(self) -> dict:
        return asdict(self)


def pestov_residual(u: SectionField,
                    conn: Optional[ConnectionField] = None) -> PestovReport:
    """Both sides of the energy identity

        ||v-grad X u||^2 = ||X v-grad u||^2 - <R v-grad u, v-grad u>
                           - <F u, v-grad u> + n ||X u||^2

    under grid quadrature, with n = 1.  Exact in the continuum for
    compactly supported sections and unitary connections; the residual is
    pure discretization error.
    """
    if not u.compact_support and np.any(u.modes[u.grid.outer_ring_mask()]):
        raise DomainError("Pestov check needs compactly supported input")
    xu = apply_X(u, conn)
    vgrad_u = vertical_derivative(u)
    lhs = vertical_derivative(xu).norm() ** 2
    t_xv = apply_X(vgrad_u, conn).norm() ** 2
    t_r = inner(curvature_R(vgrad_u), vgrad_u).real
    t_f = inner(curvature_F(u, conn), vgrad_u).real if conn is not None \
        else 0.0
    t_x = xu.norm() ** 2
    rhs = t_xv - t_r - t_f + t_x
    scale = max(lhs, t_xv, abs(t_r), abs(t_f), t_x, 1e-300)
    return PestovReport(lhs=lhs, rhs=rhs,
                        relative_residual=abs(lhs - rhs) / scale,
                        terms={"x_vgrad": t_xv, "curv_metric": -t_r,
                               "curv_bundle": -t_f, "x_norm": t_x})


@dataclass
class CurvatureTermReport:
    holds: bool
    lhs: float
    rhs: float
    kappa: float
    d_m: float


def curvature_term_sign_check(u: SectionField, m: int,
                              model: AHModel) -> CurvatureTermReport:
    """Check -<R v-grad u, v-grad u> >= kappa * lambda_m * ||u||^2 for a
    mode-m section, reporting the contraction coefficient
    d_m = 1 + 1/((2m-1)(m+1)^2) for the record."""
    grid = u.grid
    kappa = -float(np.max(model.gauss_curvature(grid.points[grid.mask])))
    if kappa <= 0.0:
        raise DomainError("model must have a verified negative curvature bound")
    vg = vertical_derivative(u)
    lhs = -inner(curvature_R(vg), vg).real
    lam = m * m              # lambda_m = m (m + n - 1) with n = 1
    rhs = kappa * lam * u.norm() ** 2
    d_m = 1.0 + 1.0 / ((2 * m - 1) * (m + 1) ** 2) if m >= 1 else \
        float("nan")
    return CurvatureTermReport(holds=lhs >= rhs - 1e-12 * max(lhs, rhs, 1.0),
                               lhs=lhs, rhs=rhs, kappa=kappa, d_m=d_m)
