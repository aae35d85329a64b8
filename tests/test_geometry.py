"""Geometry tests.

Oracles used here and nowhere in the library code:
- radial geodesics of the disk in closed form x(t) = (tanh(t/2), 0),
- a finite-difference Gauss curvature from samples of log_conformal alone,
- the orthogonal-circle construction checked directly against |c|^2 = 1 + R^2.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ahxray.errors import (DegenerateGeodesicError, DomainError,
                           TrappedGeodesicError)
from ahxray.geometry import (AHModel, BoundaryDatum, ConformalBump,
                             DiskGeodesic, Direction, IntegratorConfig,
                             ModelKind, PhasePoint, _cross_ball,
                             integrate_geodesic, sectional_curvature,
                             shoot_from_boundary)
from ahxray.xray import FanSpec
from oracles import ref_cross_ball, rk45_geodesic


def fd_gauss_curvature(model, x, h=1e-4):
    """Independent curvature oracle: K = -exp(-2 Phi) * Lap(Phi) by central
    second differences of Phi read off ``log_conformal`` samples."""
    def phi(p):
        return float(model.log_conformal(p))

    x = np.asarray(x, dtype=float)
    lap = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        lap += (phi(x + e) - 2.0 * phi(x) + phi(x - e)) / h**2
    return -math.exp(-2.0 * phi(x)) * lap


def bisection_truncation_time(geo, side):
    """Reference root of rho(side * t) = rho_cut by bracketing and brentq on
    the sampled rho, independent of the closed-form quadratic."""
    t_hi = 5.0
    while geo.rho_of_t(side * t_hi) > geo.rho_cut:
        t_hi *= 2.0
    return brentq(lambda t: float(geo.rho_of_t(side * t) - geo.rho_cut),
                  0.0, t_hi, xtol=1e-14, rtol=8.9e-16)


class TestMetric:
    """The metric exp(2 Phi) |dx|^2 through Phi = ``log_conformal``."""

    def test_center_values(self, disk):
        x = np.zeros(2)
        assert abs(math.exp(2.0 * disk.log_conformal(x)) - 4.0) < 1e-14
        assert np.allclose(disk.grad_log_conformal(x), 0.0, atol=1e-14)

    def test_half_radius_value(self, disk):
        g = math.exp(2.0 * disk.log_conformal(np.array([0.5, 0.0])))
        assert g == pytest.approx(4.0 / 0.75**2, rel=1e-14)

    def test_dg_matches_finite_differences(self, perturbed, rng):
        # the gradient the geodesic flow uses, against central differences
        # of Phi itself
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 2)
            grad = perturbed.grad_log_conformal(x)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (perturbed.log_conformal(x + e)
                      - perturbed.log_conformal(x - e)) / (2 * h)
                assert abs(fd - grad[k]) < 1e-8 * max(1.0, abs(grad[k]))

    def test_perturbed_equals_disk_outside_bump(self, disk, perturbed):
        x = np.array([-0.6, -0.4])   # outside the bump support
        assert perturbed.log_conformal(x) == disk.log_conformal(x)

    def test_domain_error(self, disk):
        with pytest.raises(DomainError):
            sectional_curvature(disk, (1.0, 0.0))


class TestRho:
    def test_values(self, disk, perturbed):
        assert disk.rho((0.0, 0.0)) == 1.0
        assert abs(disk.rho((0.6, 0.8))) < 1e-15
        assert disk.rho((0.5, 0.0)) == 0.75
        assert perturbed.rho((0.5, 0.0)) == 0.75


class TestCurvature:
    def test_disk_is_minus_one(self, disk, rng):
        for _ in range(50):
            r = math.sqrt(rng.uniform(0.0, 0.98))
            a = rng.uniform(0.0, 2 * math.pi)
            x = r * np.array([math.cos(a), math.sin(a)])
            assert abs(sectional_curvature(disk, x) + 1.0) < 1e-9
        assert abs(sectional_curvature(disk, (0.9, 0.1)) + 1.0) < 1e-9

    def test_perturbed_against_fd_oracle(self, perturbed, rng):
        center = np.asarray(perturbed.bump.center)
        k_center = sectional_curvature(perturbed, center)
        assert k_center < 0.0
        assert abs(k_center - fd_gauss_curvature(perturbed, center)) < 1e-5
        for _ in range(10):
            x = center + rng.uniform(-0.2, 0.2, 2)
            ka = sectional_curvature(perturbed, x)
            assert abs(ka - fd_gauss_curvature(perturbed, x)) < 1e-5

    def test_negativity_on_grid(self, perturbed):
        axis = np.linspace(-0.95, 0.95, 64)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        inside = np.sum(pts * pts, axis=-1) < 0.999
        assert np.all(perturbed.gauss_curvature(pts[inside]) < 0.0)

    def test_amplitude_cap_enforced(self):
        bump = ConformalBump(center=(0.3, 0.0), radius=0.3, amplitude=5.0)
        with pytest.raises(DomainError):
            AHModel(ModelKind.CONFORMAL_PERTURBED, bump=bump)

    def test_bump_near_boundary_rejected(self):
        bump = ConformalBump(center=(0.9, 0.0), radius=0.2, amplitude=0.01)
        with pytest.raises(DomainError):
            AHModel(ModelKind.CONFORMAL_PERTURBED, bump=bump)

    @pytest.mark.parametrize("name, kwargs", [
        ("center", dict(center=(math.nan, 0.0))),
        ("center", dict(center=(0.3, math.inf))),
        ("radius", dict(radius=math.nan)),
        ("radius", dict(radius=math.inf)),
        ("amplitude", dict(amplitude=math.nan)),
        ("amplitude", dict(amplitude=-math.inf))])
    def test_non_finite_bump_value_named(self, name, kwargs):
        # a NaN center or amplitude used to construct, and AHModel then
        # blamed "bump amplitude too large" on its curvature grid
        args = dict(center=(0.3, 0.0), radius=0.3, amplitude=0.04)
        with pytest.raises(DomainError, match=f"bump {name} .* not finite"):
            ConformalBump(**{**args, **kwargs})

    @pytest.mark.parametrize("epsilon0", [math.nan, 0.0, 1.0, -0.1])
    def test_epsilon0_outside_unit_interval_rejected(self, epsilon0):
        # a NaN epsilon0 let a bump reaching the boundary through
        bump = ConformalBump(center=(0.8, 0.0), radius=0.3, amplitude=0.04)
        with pytest.raises(DomainError, match="epsilon0 must lie in"):
            AHModel(ModelKind.CONFORMAL_PERTURBED, bump=bump,
                    epsilon0=epsilon0)


class TestIntegration:
    def test_radial_tanh_oracle(self, disk):
        start = PhasePoint(disk, (0.0, 0.0), (0.5, 0.0))
        path = integrate_geodesic(disk, start)
        sel = np.abs(path.t) <= 6.0
        expected = np.stack([np.tanh(path.t[sel] / 2.0),
                             np.zeros(sel.sum())], axis=-1)
        assert np.max(np.abs(path.x[sel] - expected)) < 1e-6

    def test_unit_speed_conserved(self, disk, perturbed, rng):
        for model in (disk, perturbed):
            x = rng.uniform(-0.4, 0.4, 2)
            start = PhasePoint.from_angle(model, x, rng.uniform(0, 2 * math.pi))
            path = integrate_geodesic(model, start)
            assert path.unit_speed_defect() < 1e-8

    def test_exponential_escape_rate(self, disk):
        # rho along an escaping geodesic behaves like C exp(-t); the fitted
        # log-slope must match -1 within 5%.
        start = PhasePoint.from_angle(disk, (0.1, 0.2), 0.7)
        path = integrate_geodesic(disk, start)
        sel = path.t > 6.0
        rho = disk.rho(path.x[sel])
        slope = np.polyfit(path.t[sel], np.log(rho), 1)[0]
        assert abs(slope + 1.0) < 0.05

    def test_path_invariants(self, disk):
        start = PhasePoint.from_angle(disk, (0.2, -0.3), 1.2)
        path = integrate_geodesic(disk, start)
        assert np.all(np.diff(path.t) > 0)
        rho = disk.rho(path.x)
        assert np.all(rho[1:-1] >= path.rho_cut * (1 - 1e-9))
        assert rho[0] <= 2 * path.rho_cut and rho[-1] <= 2 * path.rho_cut

    def test_time_symmetry(self, disk):
        start = PhasePoint.from_angle(disk, (0.15, 0.05), 2.1)
        path = integrate_geodesic(disk, start)
        i = len(path.t) // 2
        again = integrate_geodesic(disk, PhasePoint(disk, path.x[i],
                                                    path.v[i]))
        assert abs(again.entry.alpha - path.entry.alpha) < 1e-6
        assert abs(again.entry.eta_tangential
                   - path.entry.eta_tangential) < 1e-6

    def test_trapped_budget_raises(self, perturbed):
        # a disk geodesic is closed-form and cannot trap; a start inside
        # the bump's ball has to be marched out of it
        cfg = IntegratorConfig(max_span=0.2)
        start = PhasePoint.from_angle(perturbed, perturbed.bump.center, 0.3)
        with pytest.raises(TrappedGeodesicError) as err:
            integrate_geodesic(perturbed, start, cfg)
        assert err.value.partial is not None

    def test_perturbed_path_passes_start_at_time_zero(self, perturbed):
        for x, theta in (((0.25, -0.1), 0.3), ((0.1, 0.0), 0.4),
                         ((-0.5, 0.4), 1.0)):
            start = PhasePoint.from_angle(perturbed, x, theta)
            path = integrate_geodesic(perturbed, start)
            i = int(np.argmin(np.abs(path.t)))
            assert abs(path.t[i]) < 0.05
            # unit speed is Euclidean speed e^(-Phi) <= 1/2 here
            assert np.linalg.norm(path.x[i] - start.x) \
                <= 0.5 * abs(path.t[i]) + 1e-8

    def test_convergence_order(self, disk):
        # pin the adaptive scheme to a fixed step and halve it: the error
        # against the tanh oracle must shrink by the nominal order-5
        # factor 2^5 = 32, within a factor of 2
        from scipy.integrate import solve_ivp

        def rhs(_t, y):
            x, v = y[:2], y[2:]
            return np.concatenate([v, disk.geodesic_rhs(x, v)])

        errs = []
        for h in (0.2, 0.1):
            sol = solve_ivp(rhs, (0.0, 6.0), np.array([0, 0, 0.5, 0.0]),
                            max_step=h, first_step=h, rtol=1e6, atol=1e6,
                            dense_output=True)
            ts = np.linspace(0.0, 6.0, 200)
            errs.append(np.max(np.abs(sol.sol(ts)[0] - np.tanh(ts / 2))))
        ratio = errs[0] / errs[1]
        assert 2**5 / 2 < ratio < 2**5 * 2


class TestBoundaryAngles:
    def test_diameter(self, disk):
        path = DiskGeodesic.between_boundary_angles(disk, math.pi,
                                                    0.0).sample()
        assert np.max(np.abs(path.x[:, 1])) < 1e-12
        assert path.entry.alpha == pytest.approx(math.pi, abs=1e-12)
        assert path.exit.alpha == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_circle_oracle(self, disk):
        # alpha_in = pi/2, alpha_out = 0 must trace the Euclidean circle
        # centered (1,1) with radius 1; orthogonality |c|^2 = 1 + R^2 exact.
        geo = DiskGeodesic.between_boundary_angles(disk, math.pi / 2, 0.0)
        t = np.linspace(geo.t_entry, geo.t_exit, 200)
        x = geo.position(t)
        dist = np.hypot(x[:, 0] - 1.0, x[:, 1] - 1.0)
        assert np.max(np.abs(dist - 1.0)) < 1e-9
        c = np.array([1.0, 1.0])
        assert abs(np.dot(c, c) - 1.0 - 1.0**2) < 1e-12

    def test_round_trip_angles(self, disk, rng):
        for _ in range(15):
            a_in = rng.uniform(0, 2 * math.pi)
            a_out = (a_in + rng.uniform(0.3, 2 * math.pi - 0.3)) % (2 * math.pi)
            path = DiskGeodesic.between_boundary_angles(disk, a_in,
                                                        a_out).sample()
            assert abs((path.entry.alpha - a_in + math.pi) % (2 * math.pi)
                       - math.pi) < 1e-6
            assert abs((path.exit.alpha - a_out + math.pi) % (2 * math.pi)
                       - math.pi) < 1e-6

    def test_unit_speed_exact(self, disk):
        # conformal parametrization is exact; near rho_cut the measurement
        # itself is limited by rounding of 1 - |x|^2, still far below 1e-8
        path = DiskGeodesic.between_boundary_angles(disk, 2.0, 4.5).sample()
        assert path.unit_speed_defect() < 1e-9
        inner = np.abs(path.t) < 10.0
        speeds = disk.speed(path.x[inner], path.v[inner])
        assert np.max(np.abs(speeds - 1.0)) < 1e-11

    def test_degenerate_raises(self, disk):
        with pytest.raises(DegenerateGeodesicError):
            DiskGeodesic.between_boundary_angles(disk, 1.0, 1.0).sample()

    def test_truncation_time_matches_bisection(self, disk, rng):
        # evaluating rho = 1 - |x|^2 near rho_cut carries an absolute
        # rounding error of a few ulps, and d rho / dt ~ -rho there, so the
        # bisection root itself is known only to about 1e-15 / rho_cut
        for rho_cut in (1e-1, 5e-2, 1e-2, 1e-3, 1e-6):
            for k in range(20):
                if k % 2:
                    a = rng.uniform(0, 2 * math.pi)
                    geo = DiskGeodesic.between_boundary_angles(
                        disk, a, a + rng.uniform(0.05, 2 * math.pi - 0.05),
                        rho_cut)
                else:
                    geo = DiskGeodesic.through(disk, rng.uniform(-0.6, 0.6, 2),
                                               rng.uniform(0, 2 * math.pi),
                                               rho_cut)
                tol = 1e-14 / rho_cut            # 1e-12 at rho_cut = 1e-2
                assert abs(geo.t_exit - bisection_truncation_time(geo, 1.0)) \
                    <= tol
                assert abs(geo.t_entry
                           + bisection_truncation_time(geo, -1.0)) <= tol

    def test_span_copy(self, disk):
        geo = DiskGeodesic.between_boundary_angles(disk, 0.3, 2.0)
        full = (geo.t_entry, geo.t_exit)
        piece = geo.span(-1.0, 2.5)
        assert (piece.t_entry, piece.t_exit) == (-1.0, 2.5)
        assert (geo.t_entry, geo.t_exit) == full
        assert np.array_equal(piece.position(np.linspace(-1, 2.5, 9)),
                              geo.position(np.linspace(-1, 2.5, 9)))
        rev = piece.reversed()
        assert (rev.t_entry, rev.t_exit) == (-2.5, 1.0)
        assert np.allclose(rev.position(np.asarray(-2.0)),
                           geo.position(np.asarray(2.0)), atol=1e-15)
        rev = geo.reversed()
        assert (rev.t_entry, rev.t_exit) == (-full[1], -full[0])

    def test_boundary_hugging_geodesic_refused(self, disk):
        # the chord between nearly equal angles never reaches rho > rho_cut
        with pytest.raises(DegenerateGeodesicError):
            DiskGeodesic.between_boundary_angles(disk, 0.0, 1e-7)
        with pytest.raises(DegenerateGeodesicError):
            DiskGeodesic.through(disk, (0.99, 0.0), 1.0, rho_cut=0.05)

    @pytest.mark.parametrize("x0, theta", [((math.nan, 0.0), 0.3),
                                           ((0.1, math.inf), 0.3),
                                           ((0.1, 0.0), math.nan)])
    def test_non_finite_geodesic_refused(self, disk, x0, theta):
        # a NaN w or p would pass the rho_cut check (NaN compares false)
        # and give NaN spans
        with pytest.raises(DomainError, match="finite"):
            DiskGeodesic.through(disk, x0, theta)

    def test_extrapolated_datum_matches_analytic(self, perturbed):
        # the closed-form boundary data of the piecewise path against the
        # data the RK45 oracle extrapolates from its last samples
        start = PhasePoint.from_angle(perturbed, (0.1, 0.0), 0.4)
        path = integrate_geodesic(perturbed, start)
        assert path.pieces is not None
        ref = rk45_geodesic(perturbed, start)
        assert abs(path.entry.alpha - ref.entry.alpha) < 1e-6
        assert abs(path.exit.alpha - ref.exit.alpha) < 1e-6
        assert abs(path.entry.eta_tangential - ref.entry.eta_tangential) \
            < 1e-6


class TestShooting:
    def test_radial_datum_exits_antipodally(self, disk):
        for alpha in (0.0, 1.1, 4.0):
            datum = BoundaryDatum(alpha, 0.0, Direction.INCOMING)
            path = shoot_from_boundary(disk, datum, 1e-6)
            expected = (alpha + math.pi) % (2 * math.pi)
            assert abs((path.exit.alpha - expected + math.pi) % (2 * math.pi)
                       - math.pi) < 1e-4

    def test_matches_chord_oracle(self, disk):
        # exit of a shot geodesic must invert the analytic chord relation
        geo = DiskGeodesic.between_boundary_angles(disk, 0.8, 2.9)
        entry, exit_ = geo.boundary_data()
        path = shoot_from_boundary(disk, entry, 1e-6)
        assert abs((path.exit.alpha - exit_.alpha + math.pi) % (2 * math.pi)
                   - math.pi) < 1e-4
        assert abs(path.exit.eta_tangential - exit_.eta_tangential) < 1e-4

    def test_richardson_in_rho_start(self, disk):
        datum = BoundaryDatum(0.5, 0.8, Direction.INCOMING)
        exits = [shoot_from_boundary(disk, datum, rs).exit.alpha
                 for rs in (1e-6, 5e-7)]
        assert abs(exits[0] - exits[1]) < 1e-5

    def test_nontrapping_probe_on_perturbed(self, perturbed, rng):
        # fan of >= 200 shot geodesics on an accepted perturbed model:
        # none exceeds the integration budget before escaping
        count = 0
        for alpha in np.linspace(0, 2 * math.pi, 40, endpoint=False):
            for eta in (-2.0, -0.5, 0.0, 0.5, 2.0):
                datum = BoundaryDatum(alpha, eta, Direction.INCOMING)
                path = shoot_from_boundary(perturbed, datum, 1e-6)
                assert perturbed.rho(path.x[-1]) <= 2e-6
                count += 1
        assert count == 200

    def test_closed_form_exit_on_disk(self, disk):
        # on the disk a shot ray is one closed-form geodesic
        geo = DiskGeodesic.between_boundary_angles(disk, 0.8, 2.9)
        entry, exit_ = geo.boundary_data()
        path = shoot_from_boundary(disk, entry, 1e-6)
        assert path.pieces is None and path.analytic is not None
        assert abs(path.exit.alpha - exit_.alpha) < 1e-9
        assert abs(path.exit.eta_tangential - exit_.eta_tangential) < 1e-9
        t = np.linspace(path.t[0], path.t[-1], 50)
        assert np.max(np.abs(path.analytic.position(t)
                             - geo.position(t))) < 1e-9

    def test_ray_through_bump_in_three_pieces(self, perturbed):
        bump = perturbed.bump
        datum = BoundaryDatum(0.0, -1.5, Direction.INCOMING)
        path = shoot_from_boundary(perturbed, datum, 1e-6)
        pieces = path.pieces
        assert pieces is not None and path.analytic is None
        inc, out = pieces.incoming, pieces.outgoing
        # the crossing starts where the incoming piece meets the ball
        start = pieces.stages[0, 0]
        assert np.array_equal(start[0], inc.position(np.asarray(inc.t_exit)))
        assert abs(np.linalg.norm(start[0] - bump.center) - bump.radius) \
            < 1e-12
        # and ends outside it, on a disk geodesic that does not return
        end = out.position(np.zeros(()))
        assert np.linalg.norm(end - bump.center) >= bump.radius
        again = out.ball_crossing(bump.center, bump.radius)
        assert again is None or again[1] <= 0.0
        assert out.t_entry == 0.0
        # samples: increasing, unit speed, truncated at rho_cut
        assert np.all(np.diff(path.t) > 0)
        assert path.unit_speed_defect() < 1e-9
        assert abs(perturbed.rho(path.x[-1]) - 1e-6) < 1e-12
        # angular momentum is conserved only where the metric is the disk's
        assert abs(path.exit.eta_tangential - datum.eta_tangential) > 1e-4

    def test_crossing_keeps_unit_speed_at_default_steps(self, perturbed):
        # at 2048 steps these crossings drift off unit speed by up to 1.7e-7
        worst = 0.0
        for alpha in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            for eta in (-0.5, 0.0, 0.5):
                path = shoot_from_boundary(
                    perturbed, BoundaryDatum(alpha, eta, Direction.INCOMING),
                    1e-6)
                worst = max(worst, path.unit_speed_defect())
        assert worst < 1e-8

    def test_crossing_time_budget(self, perturbed):
        datum = BoundaryDatum(0.0, -1.5, Direction.INCOMING)
        full = shoot_from_boundary(perturbed, datum, 1e-6)
        crossing = full.pieces.h * len(full.pieces.stages)
        assert crossing > 0.2
        with pytest.raises(TrappedGeodesicError) as err:
            shoot_from_boundary(perturbed, datum, 1e-6,
                                IntegratorConfig(max_span=0.2))
        t, x, v = err.value.partial
        n = len(t)
        assert x.shape == v.shape == (n, 2)
        # the partial path is the start of the full one, into the crossing
        assert np.array_equal(t, full.t[:n])
        assert np.array_equal(x, full.x[:n]) and np.array_equal(v, full.v[:n])
        assert t[-1] > full.pieces.incoming.t_exit + 0.2 - full.pieces.h

    def test_outgoing_datum_rejected(self, disk):
        datum = BoundaryDatum(0.0, 0.0, Direction.OUTGOING)
        with pytest.raises(DomainError):
            shoot_from_boundary(disk, datum, 1e-6)


class TestIntegratorConfig:
    @pytest.mark.parametrize("name, value", [
        ("n_steps", 0), ("n_steps", -5), ("n_steps", 2.5), ("n_steps", "8"),
        ("max_span", -1.0), ("max_span", 0.0), ("max_span", math.nan),
        ("max_span", math.inf), ("rho_cut", 0.0), ("rho_cut", 0.02),
        ("rho_cut", math.nan)])
    def test_refused(self, name, value):
        with pytest.raises(DomainError, match=name):
            IntegratorConfig(**{name: value})


class TestCrossingOracle:
    """``_cross_ball`` in Python floats against its array form
    ``oracles.ref_cross_ball``: the same stages, run and exit geodesic,
    bit for bit, or the same partial path when the budget runs out."""

    @staticmethod
    def same(model, y, h, cfg, t0, head=None):
        try:
            got = _cross_ball(model, y, h, cfg, t0, head)
        except TrappedGeodesicError as err:
            with pytest.raises(TrappedGeodesicError) as ref:
                ref_cross_ball(model, y, h, cfg, t0, head)
            for a, b in zip(err.partial, ref.value.partial):
                assert a.shape == b.shape and np.array_equal(a, b)
            return None
        ref = ref_cross_ball(model, y, h, cfg, t0, head)
        for a, b in zip((got[0], *got[1]), (ref[0], *ref[1])):
            assert a.shape == b.shape and np.array_equal(a, b)
        g, r = got[2], ref[2]
        assert (g.w, g.p, g.t_entry, g.t_exit) \
            == (r.w, r.p, r.t_entry, r.t_exit)
        return got

    def test_shooting_fan_crossings(self, perturbed):
        cfg = IntegratorConfig(n_steps=2048)
        crossing = 0
        for datum in FanSpec.uniform_shooting(100, 5, 1.5).data:
            path = shoot_from_boundary(perturbed, datum, 1e-6, cfg)
            if path.pieces is None:
                continue
            crossing += 1
            pieces = path.pieces
            got = self.same(perturbed, pieces.stages[0, 0], pieces.h, cfg,
                            pieces.incoming.t_exit)
            assert np.array_equal(got[0], pieces.stages)
        assert crossing == 44

    def test_backward_march_from_the_ball(self, perturbed, rng):
        # integrate_geodesic's march from a start inside the ball
        cfg = IntegratorConfig()
        bump = perturbed.bump
        for _ in range(12):
            r, a, theta = rng.uniform(size=3)
            a, theta = 2.0 * math.pi * a, 2.0 * math.pi * theta
            x = np.asarray(bump.center) + bump.radius * math.sqrt(r) \
                * np.array([math.cos(a), math.sin(a)])
            start = PhasePoint.from_angle(perturbed, x, theta)
            geo = DiskGeodesic.through(AHModel(), start.x, start.theta)
            assert self.same(perturbed, np.stack([start.x, -start.v]),
                             (geo.t_exit - geo.t_entry) / cfg.n_steps, cfg,
                             -0.0) is not None

    def test_trapped_partial_paths(self, perturbed):
        cfg = IntegratorConfig(max_span=0.2)
        full = shoot_from_boundary(
            perturbed, BoundaryDatum(0.0, -1.5, Direction.INCOMING), 1e-6)
        pieces = full.pieces
        n = int(np.searchsorted(full.t, pieces.incoming.t_exit))
        head = (full.t[:n], full.x[:n], full.v[:n])
        for h in (pieces.h, 0.5 * pieces.h):
            assert self.same(perturbed, pieces.stages[0, 0], h, cfg,
                             pieces.incoming.t_exit, head) is None
        start = PhasePoint.from_angle(perturbed, perturbed.bump.center, 0.3)
        assert self.same(perturbed, np.stack([start.x, -start.v]), 0.01,
                         cfg, -0.0) is None

