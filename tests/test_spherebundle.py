"""Sphere-bundle calculus tests.

Independent oracles:
- directional derivatives of analytic base functions for the geodesic
  operator on lifted sections,
- a finite-difference flow oracle (one short Runge-Kutta step of the
  geodesic flow applied to an analytic section),
- spectral identities on the fiber circle (exact differentiation of
  trigonometric polynomials),
- grid-refinement studies for the commutator and energy identities.
"""

import math

import numpy as np
import pytest

import ahxray.bundle as bundle
from ahxray.bundle import ConnectionField, HiggsFieldData, gauge_transform
from ahxray.errors import DomainError
from ahxray.geometry import AHModel
from ahxray.spherebundle import (NSectionField, SectionField,
                                 SphereBundleGrid, apply_X,
                                 commutator_residuals, curvature_F,
                                 curvature_R, curvature_term_sign_check,
                                 degree, horizontal_derivative,
                                 horizontal_divergence, inner,
                                 lift_from_base, mode_energies,
                                 pestov_residual, vertical_derivative,
                                 vertical_divergence, vertical_laplacian,
                                 x_split, _mode)
from test_bundle import random_connection, random_gauge


@pytest.fixture(scope="module")
def disk():
    return AHModel()


@pytest.fixture(scope="module")
def grid(disk):
    return SphereBundleGrid(disk, nx=48, n_theta=32)


def bump(x, center=(0.0, 0.0), radius=0.55, power=8):
    """Compactly supported cosine-power window.

    C^(power-1) at the support edge with moderate derivative growth, so
    4th-order stencils reach their asymptotic regime at desk-scale grids
    (an infinitely smooth mollifier has essentially-singular derivative
    spikes at the edge that dominate the stencil error instead).
    """
    s2 = np.sum((x - np.asarray(center)) ** 2, axis=-1) / radius**2
    out = np.zeros_like(s2)
    inside = s2 < 1.0
    out[inside] = np.cos(0.5 * np.pi * np.sqrt(s2[inside])) ** power
    return out


def bump_section(grid, m=1, d=1, vec=None, radius=0.55, kind="exp"):
    """Compactly supported section concentrated in fiber mode m."""
    vec = np.ones(d, dtype=complex) if vec is None else np.asarray(vec)
    b = bump(grid.points, radius=radius)
    if kind == "exp":
        ang = np.exp(1j * m * grid.thetas)
    elif kind == "cos":
        ang = np.cos(m * grid.thetas).astype(complex)
    else:
        ang = np.sin(m * grid.thetas).astype(complex)
    vals = b[:, :, None, None] * ang[None, None, :, None] * vec
    return SectionField(values=vals, grid=grid, compact_support=True)


def bump_nsection(grid, m=1, d=1, radius=0.55):
    s = bump_section(grid, m=m, d=d, radius=radius)
    return NSectionField(coeffs=s.values, grid=grid, compact_support=True)


class TestGridAndQuadrature:
    def test_fiber_measure(self, grid):
        # total fiber measure per base point is 2*pi*sqrt(det g)*h1*h2
        total = grid.node_weight * grid.n_theta
        expected = 2 * math.pi * grid.sqrt_det_g * grid.h1 * grid.h2
        assert np.max(np.abs(total - expected)) < 1e-12

    def test_weights_positive_on_mask(self, grid):
        assert np.all(grid.node_weight[grid.mask] > 0)
        assert np.all(grid.node_weight[~grid.mask] == 0)

    def test_exactness_bound(self, grid):
        assert grid.max_exact_degree == (32 - 2) // 4

    def test_field_data_on_mask(self, grid, rng):
        # one cache holds both fields, each with the bits of its own
        # evaluator, for a connection and for a gauge transform of one
        conn = random_connection(rng, rank=2)
        gauged = gauge_transform(conn, HiggsFieldData.zero(2),
                                 random_gauge(rng))[0]
        pts = grid.points[grid.mask]
        for c in (conn, gauged):
            f12 = grid.curvature(c)
            assert np.array_equal(f12[grid.mask], c.curvature_f12(pts))
            assert not np.any(f12[~grid.mask])
            gam = grid.symbols(c)
            assert np.array_equal(gam[grid.mask], c.symbols(pts))
            assert not np.any(gam[~grid.mask])
            assert grid.symbols(c) is gam and grid.curvature(c) is f12

    def test_one_connection_evaluation_per_grid(self, disk, rng,
                                                monkeypatch):
        # a Pestov check on a fresh grid evaluates the bumps of a term
        # connection once, for the symbols of X and f_12 together
        conn = random_connection(rng, rank=2)
        grid = SphereBundleGrid(disk, nx=24, n_theta=16)
        u = bump_section(grid, m=1, d=2, radius=0.5)
        calls = []
        evaluate = bundle._bumps
        monkeypatch.setattr(bundle, "_bumps",
                            lambda *a: calls.append(1) or evaluate(*a))
        pestov_residual(u, conn)
        assert len(calls) == 1

    @pytest.mark.parametrize("axis", [0, 1])
    def test_stencil_is_the_fourth_order_formula(self, grid, rng, axis):
        # (-u[i+2] + 8 u[i+1] - 8 u[i-1] + u[i-2]) / 12h, zero outside
        vals = rng.normal(size=(grid.nx, grid.ny, 3, 2)) \
            + 1j * rng.normal(size=(grid.nx, grid.ny, 3, 2))
        pad = [(0, 0)] * vals.ndim
        pad[axis] = (2, 2)
        p = np.moveaxis(np.pad(vals, pad), axis, 0)
        n = vals.shape[axis]
        ref = np.moveaxis(-p[4:] + 8.0 * p[3:n + 3] - 8.0 * p[1:n + 1]
                          + p[:n], 0, axis) / (12.0 * grid.h1)
        got = grid.dx(vals, axis)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestLift:
    def test_constant_section(self, grid):
        u = lift_from_base(np.full((grid.nx, grid.ny, 2), 1.5 + 0.5j), grid)
        assert degree(u) == 0
        assert np.max(np.abs(vertical_derivative(u).coeffs)) < 1e-12

    def test_lift_theta_independent(self, grid):
        u = lift_from_base(lambda x: np.stack(
            [x[..., 0] + 1j * x[..., 1]], axis=-1), grid)
        assert np.max(np.abs(u.values[..., 0, :] - u.values[..., 5, :])) == 0


class TestApplyX:
    def test_constant_lift_trivial_conn(self, grid):
        u = lift_from_base(np.full((grid.nx, grid.ny, 1), 2.0 + 0j), grid)
        xu = apply_X(u)
        assert np.max(np.abs(xu.values[grid.interior_mask])) < 1e-12

    def test_directional_derivative_oracle(self, grid, disk):
        # lifted base function f: X u = df(v) = e^{-Phi} (u . grad f)
        def f(x):
            return np.stack([np.sin(1.3 * x[..., 0]) * x[..., 1]], axis=-1)

        def grad_f(x):
            return np.stack([1.3 * np.cos(1.3 * x[..., 0]) * x[..., 1],
                             np.sin(1.3 * x[..., 0])], axis=-1)

        u = lift_from_base(f, grid)
        xu = apply_X(u).values
        pts = grid.points
        gf = np.zeros((grid.nx, grid.ny, 2))
        gf[grid.mask] = grad_f(pts[grid.mask])
        direction = np.stack([np.cos(grid.thetas), np.sin(grid.thetas)])
        expected = grid.e_mphi[:, :, None] * (
            gf[:, :, None, 0] * direction[0][None, None, :]
            + gf[:, :, None, 1] * direction[1][None, None, :])
        err = np.abs(xu[..., 0] - expected)[grid.interior_mask]
        assert np.max(err) < 5e-6     # O(h^4) at this resolution

    def test_flow_oracle(self, grid, disk):
        # (u o flow_t - u o flow_-t) / 2t against apply_X at interior nodes;
        # the profile is entire so the stencil error stays below the bound
        def u_fn(x, theta):
            return np.sin(1.1 * x[..., 0]) * np.cos(0.9 * x[..., 1]) \
                * np.exp(1j * theta) \
                + 0.3 * np.sin(x[..., 0]) * np.cos(2 * theta)

        vals = u_fn(grid.points[:, :, None, :],
                    grid.thetas[None, None, :])[..., None]
        u = SectionField(values=vals.astype(complex), grid=grid)
        xu = apply_X(u).values

        dt = 1e-4
        sel = grid.interior_mask & (np.sum(grid.points**2, axis=-1) < 0.6)
        pts = grid.points[sel][::29]
        for x0 in pts:
            for theta in grid.thetas[::7]:
                v0 = math.exp(-float(disk.log_conformal(x0))) \
                    * np.array([math.cos(theta), math.sin(theta)])
                vals_pm = []
                for sign in (+1.0, -1.0):
                    x, v = x0.copy(), sign * v0.copy()
                    # one RK4 step of the geodesic flow
                    def acc(xx, vv):
                        return disk.geodesic_rhs(xx, vv)
                    k1x, k1v = v, acc(x, v)
                    k2x = v + 0.5 * dt * k1v
                    k2v = acc(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
                    k3x = v + 0.5 * dt * k2v
                    k3v = acc(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
                    k4x = v + dt * k3v
                    k4v = acc(x + dt * k3x, v + dt * k3v)
                    x1 = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
                    v1 = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
                    th1 = math.atan2(sign * v1[1], sign * v1[0])
                    vals_pm.append(complex(u_fn(x1, th1)))
                flow_deriv = (vals_pm[0] - vals_pm[1]) / (2 * dt)
                i = np.argmin(np.abs(grid.xs - x0[0]))
                j = np.argmin(np.abs(grid.ys - x0[1]))
                k = np.argmin(np.abs(grid.thetas - theta))
                assert abs(xu[i, j, k, 0] - flow_deriv) < 1e-5


class TestVerticalOps:
    def test_theta_independent_derivative_zero(self, grid):
        u = bump_section(grid, m=0)
        assert np.max(np.abs(vertical_derivative(u).coeffs)) < 1e-12

    def test_spectral_exactness(self, grid):
        u = bump_section(grid, m=1)
        vg = vertical_derivative(u)
        expected = 1j * u.values
        assert np.max(np.abs(vg.coeffs - expected)) < 1e-12

    def test_linearity(self, grid, rng):
        a = bump_section(grid, m=2)
        b = bump_section(grid, m=3)
        lhs = vertical_derivative(SectionField(
            2.0 * a.values + 1j * b.values, grid)).coeffs
        rhs = 2.0 * vertical_derivative(a).coeffs \
            + 1j * vertical_derivative(b).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_adjoint_identity(self, grid, rng):
        # <v-grad u, w> = -<u, v-div w> for compactly supported fields
        u = bump_section(grid, m=2, d=2, vec=[1.0, 0.5j])
        w_vals = (bump(grid.points, center=(0.1, -0.05), radius=0.5)
                  [:, :, None, None]
                  * np.stack([np.cos(grid.thetas),
                              np.sin(3 * grid.thetas)], axis=-1)
                  [None, None, :, :]).astype(complex)
        w = NSectionField(coeffs=w_vals, grid=grid)
        lhs = inner(vertical_derivative(u), w)
        rhs = -inner(u, vertical_divergence(w))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_div_of_grad_is_second_derivative(self, grid):
        u = bump_section(grid, m=3)
        via = vertical_divergence(vertical_derivative(u)).values
        assert np.max(np.abs(via - (-9.0) * u.values)) < 1e-11


class TestLaplacianAndModes:
    def test_eigenvalues(self, grid):
        for m, expected in ((1, 1.0), (2, 4.0), (6, 36.0)):
            u = bump_section(grid, m=m)
            lap = vertical_laplacian(u).values
            assert np.max(np.abs(lap - expected * u.values)) < 1e-10 * (
                expected + 1)

    def test_constant_mode(self, grid):
        u = bump_section(grid, m=0)
        assert np.max(np.abs(vertical_laplacian(u).values)) < 1e-12
        assert degree(u) == 0

    def test_mode_orthogonality(self, grid):
        u2 = bump_section(grid, m=2)
        u5 = bump_section(grid, m=5)
        assert abs(inner(u2, u5)) < 1e-12 * u2.norm() * u5.norm()

    def test_modes_partition_energy(self, grid):
        vals = sum(k * bump_section(grid, m=k).values for k in range(1, 5))
        u = SectionField(vals, grid)
        energies = mode_energies(u, 8)
        assert abs(np.sum(energies) - u.norm() ** 2) < 1e-10
        assert degree(u) == 4
        # a section holding no mode: an empty band, every energy 0
        assert not np.any(mode_energies(_mode(u, 9), 8))

    def test_laplacian_commutes_with_projection(self, grid):
        vals = bump_section(grid, m=1).values \
            + bump_section(grid, m=4).values
        u = SectionField(vals, grid)
        for m in range(6):
            a = _mode(vertical_laplacian(u), m)
            b = vertical_laplacian(_mode(u, m))
            assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_aliasing_rejected(self, grid):
        u = bump_section(grid, m=1)
        with pytest.raises(DomainError):
            mode_energies(u, grid.n_theta // 2)


class TestXSplit:
    def test_mapping_property(self, grid, rng):
        conn = random_connection(rng)
        for m in range(0, 7):
            u = bump_section(grid, m=m, d=2, vec=[0.7, -0.4j])
            minus, plus, leak = x_split(u, m, conn)
            assert leak < 1e-6

    def test_mode_zero_has_no_minus_part(self, grid):
        u = bump_section(grid, m=0)
        minus, plus, leak = x_split(u, 0)
        assert minus.norm() == 0.0
        assert plus.norm() > 0.0

    def test_energy_partition(self, grid, rng):
        conn = random_connection(rng)
        u = bump_section(grid, m=3, d=2, vec=[1.0, 1.0])
        minus, plus, leak = x_split(u, 3, conn)
        xu = apply_X(u, conn)
        total = xu.norm() ** 2
        kept = minus.norm() ** 2 + plus.norm() ** 2
        assert abs(total - kept - leak * total) < 1e-10 * total

    def test_unconcentrated_input_rejected(self, grid):
        vals = bump_section(grid, m=1).values + bump_section(grid, m=3).values
        with pytest.raises(DomainError):
            x_split(SectionField(vals, grid), 1)


class TestHorizontalOps:
    def test_constant_lift_trivial(self, grid):
        u = lift_from_base(np.full((grid.nx, grid.ny, 1), 1.0 + 0j), grid)
        hg = horizontal_derivative(u)
        assert np.max(np.abs(hg.coeffs[grid.interior_mask])) < 1e-12

    def test_adjoint_by_construction(self, grid, rng):
        conn = random_connection(rng)
        u = bump_section(grid, m=1, d=2, vec=[1.0, -0.3])
        w = bump_nsection(grid, m=2, d=2)
        lhs = inner(horizontal_derivative(u, conn), w)
        rhs = -inner(u, horizontal_divergence(w, conn))
        assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)


class TestCommutators:
    def test_trivial_constant_all_zero(self, grid):
        u = lift_from_base(np.full((grid.nx, grid.ny, 1), 1.0 + 0j), grid)
        xu = apply_X(u)
        vg = vertical_derivative(u)
        hg = horizontal_derivative(u)
        assert np.max(np.abs(xu.values[grid.interior_mask])) < 1e-12
        assert np.max(np.abs(vg.coeffs)) < 1e-12
        assert np.max(np.abs(hg.coeffs[grid.interior_mask])) < 1e-12

    def test_residuals_on_reference_grid(self, disk, rng):
        conn = random_connection(rng)
        grid = SphereBundleGrid(disk, nx=128, n_theta=32)
        u = bump_section(grid, m=1, d=2, vec=[1.0, 0.4j], radius=0.7)
        w = bump_nsection(grid, m=2, d=2, radius=0.7)
        rep = commutator_residuals(conn, u, w)
        for name, val in rep.as_dict().items():
            assert val < 1e-4, (name, val)

    def test_refinement_reduces_residuals(self, disk, rng):
        # 4th-order stencils: halving h shrinks residuals by ~16, >= 8
        # asserted; the first identity is exact discretely (the spectral
        # fiber derivative commutes with the stencils and with bandlimited
        # coefficient products), so it is excluded from the rate check
        conn = random_connection(rng)
        reports = []
        for nx in (64, 128):
            grid = SphereBundleGrid(disk, nx=nx, n_theta=32)
            u = bump_section(grid, m=1, d=2, vec=[1.0, 0.4j], radius=0.7)
            w = bump_nsection(grid, m=2, d=2, radius=0.7)
            reports.append(commutator_residuals(conn, u, w).as_dict())
        for name in reports[0]:
            if reports[0][name] < 1e-12:
                assert reports[1][name] < 1e-12
                continue
            assert reports[1][name] < reports[0][name] / 8.0, name


class TestPestov:
    def test_zero_section(self, grid):
        u = SectionField(np.zeros((grid.nx, grid.ny, grid.n_theta, 1),
                                  dtype=complex), grid,
                         compact_support=True)
        rep = pestov_residual(u)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_scalar_identity_and_refinement(self, disk):
        # simultaneous (h, dtheta) refinement; observed rate must be at
        # least 2nd order (it is ~4th: x-stencil dominated)
        residuals = []
        for nx, ntheta in ((32, 32), (64, 64)):
            grid = SphereBundleGrid(disk, nx=nx, n_theta=ntheta)
            vals = (bump(grid.points, radius=0.5)[:, :, None, None]
                    * np.cos(grid.thetas)[None, None, :, None])
            u = SectionField(vals.astype(complex), grid,
                             compact_support=True)
            residuals.append(pestov_residual(u).relative_residual)
        assert residuals[0] < 1e-2
        assert residuals[1] < residuals[0] / 4.0

    def test_with_connection_mode2(self, disk, rng):
        conn = random_connection(rng, scale=0.3)
        grid = SphereBundleGrid(disk, nx=64, n_theta=32)
        u = bump_section(grid, m=2, d=2, vec=[0.8, 0.6j], radius=0.5)
        rep = pestov_residual(u, conn)
        assert rep.relative_residual < 1e-2

    def test_noncompact_rejected(self, grid):
        u = lift_from_base(np.full((grid.nx, grid.ny, 1), 1.0 + 0j), grid)
        with pytest.raises(DomainError):
            pestov_residual(u)


class TestCurvatureTerm:
    def test_disk_mode1(self, grid, disk):
        u = bump_section(grid, m=1)
        rep = curvature_term_sign_check(u, 1, disk)
        assert rep.holds
        assert rep.kappa == pytest.approx(1.0, abs=1e-9)
        assert rep.lhs >= rep.rhs - 1e-12

    def test_zero_section_degenerate(self, grid, disk):
        u = SectionField(np.zeros((grid.nx, grid.ny, grid.n_theta, 1),
                                  dtype=complex), grid)
        rep = curvature_term_sign_check(u, 1, disk)
        assert rep.holds

    def test_dm_value(self, grid, disk):
        u = bump_section(grid, m=2)
        rep = curvature_term_sign_check(u, 2, disk)
        assert rep.d_m == pytest.approx(1.0 + 1.0 / 27.0, abs=1e-12)
        assert rep.d_m == pytest.approx(1.037037037037037, abs=1e-12)


class TestCurvatureOperators:
    def test_R_is_minus_identity_on_disk(self, grid):
        w = bump_nsection(grid, m=1)
        rw = curvature_R(w)
        sel = grid.mask
        assert np.max(np.abs(rw.coeffs[sel] + w.coeffs[sel])) < 1e-9

    def test_F_vanishes_for_trivial_connection(self, grid):
        u = bump_section(grid, m=1, d=2, vec=[1.0, 1.0])
        f = curvature_F(u, ConnectionField.zero(2))
        assert np.max(np.abs(f.coeffs)) == 0.0


class TestSectionChecks:
    def test_nsection_non_finite_rejected(self, grid):
        coeffs = bump_section(grid, m=1).values
        coeffs[grid.nx // 2, grid.ny // 2, 3, 0] = np.inf
        with pytest.raises(DomainError):
            NSectionField(coeffs, grid)

    def test_nsection_compact_support_checked(self, grid):
        coeffs = np.zeros((grid.nx, grid.ny, grid.n_theta, 1), dtype=complex)
        coeffs[grid.outer_ring_mask()] = 1.0
        NSectionField(coeffs, grid)
        with pytest.raises(DomainError):
            NSectionField(coeffs, grid, compact_support=True)


class TestBands:
    def test_from_modes_checks(self, grid):
        # n_theta = 32 holds the frequencies -16 .. 15
        modes = np.ones((grid.nx, grid.ny, 2, 1), dtype=complex)
        u = SectionField.from_modes(modes, grid, k_lo=14)
        assert list(u.k) == [14, 15]
        assert NSectionField.from_modes(modes, grid, k_lo=-16).k_lo == -16
        for k_lo in (15, -17):
            with pytest.raises(DomainError):
                SectionField.from_modes(modes, grid, k_lo=k_lo)
        bad = modes.copy()
        bad[grid.nx // 2, grid.ny // 2, 1, 0] = np.nan
        with pytest.raises(DomainError):
            SectionField.from_modes(bad, grid, k_lo=0)
        with pytest.raises(DomainError):
            NSectionField.from_modes(modes, grid, k_lo=0,
                                     compact_support=True)
        with pytest.raises(DomainError):
            SectionField.from_modes(modes[1:], grid, k_lo=0)

    def test_band_of_each_operator(self, grid):
        u = lift_from_base(np.full((grid.nx, grid.ny, 1), 1.0 + 0j), grid)
        assert (u.k_lo, u.modes.shape[2]) == (0, 1)
        xu = apply_X(u)
        assert (xu.k_lo, xu.modes.shape[2]) == (-1, 3)
        assert np.all(xu.modes[:, :, 1] == 0.0)
        for op in (vertical_derivative, vertical_laplacian):
            assert op(xu).k_lo == -1 and op(xu).modes.shape[2] == 3
        # a band reaching -16 wraps onto the full axis
        edge = SectionField.from_modes(
            bump_section(grid, m=1).modes[:, :, 17:18], grid, k_lo=-16)
        assert np.max(np.abs(edge.values)) > 0.0
        x_edge = apply_X(edge)
        assert (x_edge.k_lo, x_edge.modes.shape[2]) == (-16, 32)
        assert np.max(np.abs(x_edge.modes[:, :, 31])) > 0.0   # k = 15

    def test_samples_round_trip(self, grid):
        u = bump_section(grid, m=2, d=2, vec=[1.0, 0.5j])
        assert u.modes.shape[2] == grid.n_theta
        assert u.k_lo == -(grid.n_theta // 2)
        narrow = _mode(u, 2)
        assert (narrow.k_lo, narrow.modes.shape[2]) == (-2, 5)
        assert np.max(np.abs(narrow.values - u.values)) < 1e-14


# -- theta-grid reference ---------------------------------------------------
# The operators as they read on theta samples: multiplication by cos and sin
# of the direction angle, with the spectral fiber derivative.  The section
# classes hold fiber Fourier coefficients instead, so these formulas are an
# independent check of the mode-space arithmetic.

def _dtheta(vals):
    k = np.fft.fftfreq(vals.shape[2], d=1.0 / vals.shape[2])
    return np.fft.ifft(1j * k[None, None, :, None]
                       * np.fft.fft(vals, axis=2), axis=2)


def _theta_factors(grid):
    cth = np.cos(grid.thetas)[None, None, :, None]
    sth = np.sin(grid.thetas)[None, None, :, None]
    gp1 = grid.grad_phi[:, :, None, None, 0]
    gp2 = grid.grad_phi[:, :, None, None, 1]
    return cth, sth, gp1, gp2


def _gamma(grid, conn, vals):
    if conn is None:
        return 0.0, 0.0
    gam = grid.symbols(conn)
    return (np.einsum("abkl,abtl->abtk", gam[:, :, 0], vals),
            np.einsum("abkl,abtl->abtk", gam[:, :, 1], vals))


def reference_geodesic(grid, conn, vals, perp):
    """X (perp=False) or the horizontal derivative (perp=True) on samples:
    e^{-Phi} [dir . d_x + (dPhi . dir^perp) d_theta + Gamma(dir)]."""
    cth, sth, gp1, gp2 = _theta_factors(grid)
    c1, c2 = (-sth, cth) if perp else (cth, sth)
    g1, g2 = _gamma(grid, conn, vals)
    out = c1 * grid.dx(vals, 0) + c2 * grid.dx(vals, 1) \
        + (-gp1 * c2 + gp2 * c1) * _dtheta(vals) + c1 * g1 + c2 * g2
    return grid.e_mphi[:, :, None, None] * out


def reference_horizontal_divergence(grid, conn, vals):
    """sqrt(det g)^-1 div(sqrt(det g) e^{-Phi} w u^perp) on samples."""
    cth, sth, gp1, gp2 = _theta_factors(grid)
    e_m = grid.e_mphi[:, :, None, None]
    s = e_m * grid.sqrt_det_g[:, :, None, None]
    div = grid.dx(-sth * s * vals, 0) + grid.dx(cth * s * vals, 1) \
        + _dtheta(-(gp1 * cth + gp2 * sth) * s * vals)
    inv_w = np.where(grid.mask, 1.0 / np.maximum(grid.sqrt_det_g, 1e-300),
                     0.0)
    g1, g2 = _gamma(grid, conn, vals)
    return inv_w[:, :, None, None] * div + e_m * (-sth * g1 + cth * g2)


class TestThetaGridOracle:
    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_mode_space_operators_match_theta_grid(self, disk, rng,
                                                   n_theta):
        # full-band random rank-2 input: at even n_theta the Nyquist mode
        # is live, so the cyclic mode shift must wrap as the samples do
        grid = SphereBundleGrid(disk, nx=24, n_theta=n_theta)
        shape = (grid.nx, grid.ny, n_theta, 2)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u = SectionField(vals, grid)
        w = NSectionField(vals, grid)
        assert np.max(np.abs(u.modes[:, :, u.k == -(n_theta // 2)])) > 0.1

        def rel(got, ref):
            return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

        for conn in (None, random_connection(rng)):
            assert rel(apply_X(u, conn).values,
                       reference_geodesic(grid, conn, vals, False)) < 1e-12
            assert rel(apply_X(w, conn).coeffs,
                       reference_geodesic(grid, conn, vals, False)) < 1e-12
            assert rel(horizontal_derivative(u, conn).coeffs,
                       reference_geodesic(grid, conn, vals, True)) < 1e-12
            assert rel(horizontal_divergence(w, conn).values,
                       reference_horizontal_divergence(grid, conn, vals)) \
                < 1e-12
        assert rel(vertical_derivative(u).coeffs, _dtheta(vals)) < 1e-12
        assert rel(vertical_divergence(w).values, _dtheta(vals)) < 1e-12
        assert rel(vertical_laplacian(u).values,
                   -_dtheta(_dtheta(vals))) < 1e-12
