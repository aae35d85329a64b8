"""Transport solver tests.

Independent oracles:
- for rank 1 with trivial connection the exit value is exp(-i * integral
  of the scalar potential along the geodesic); the integral is evaluated
  by adaptive quadrature on the closed-form path, never by the transport
  solver itself;
- the segmented batch march is checked against a plain sequential RK4
  march of the d x d systems, kept here as the reference;
- transport along an integrated (non-closed-form) path is checked against
  a joint RK45 of the geodesic and the transport system at tighter
  tolerances, also kept here as the reference.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from ahxray.bundle import ConnectionField, GaussBump, HiggsFieldData
from ahxray.errors import DomainError, RankMismatchError
from ahxray.geometry import (BoundaryDatum, DiskGeodesic, Direction,
                             integrate_geodesic, shoot_from_boundary)
from ahxray.transport import (TransportConfig, _path_state, _segments,
                              _transport_adaptive, batch_scattering,
                              batch_transport, endomorphism_transport,
                              parallel_transport, scattering_matrix,
                              solve_transport, transport_rhs,
                              transported_data_action)
from test_bundle import random_connection, random_gauge, random_higgs


def scalar_higgs(decay=4, center=(0.2, 0.1), sigma=0.3, amp=1.0):
    """Phi = i * amp * rho^decay * gaussian, rank 1."""
    return HiggsFieldData.from_terms(
        1, [(amp * 1j * np.eye(1), GaussBump(center, sigma))], decay)


def phase_integral(higgs, geo):
    """Quadrature oracle for the abelian phase along a closed-form geodesic."""
    def integrand(t):
        return float(higgs.phi(geo.position(np.asarray(t))).imag[0, 0])

    val, err = quad(integrand, geo.t_entry, geo.t_exit, limit=400,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


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


def sequential_rk4(field, geos, rank, n_steps, record_fracs=()):
    """Reference march: one classic RK4 step after another along each span,
    from the identity; each snapshot is a fractional step from the
    preceding grid time.  Positions come from each geodesic's closed form."""
    t0 = np.array([g.t_entry for g in geos])
    span = np.array([g.t_exit for g in geos]) - t0

    def field_at(frac):
        t = t0 + frac * span
        return field(np.stack([g.position(s) for g, s in zip(geos, t)]),
                     np.stack([g.velocity(s) for g, s in zip(geos, t)]))

    def rk4(u, a, b):
        h = ((b - a) * span)[:, None, None]
        f0, fm, f1 = field_at(a), field_at(0.5 * (a + b)), field_at(b)
        k1 = f0(u)
        k2 = fm(u + 0.5 * h * k1)
        k3 = fm(u + 0.5 * h * k2)
        k4 = f1(u + h * k3)
        return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    u = np.broadcast_to(np.eye(rank, dtype=complex),
                        (len(geos), rank, rank)).copy()
    snaps = {}
    for k in range(n_steps + 1):
        for f in record_fracs:
            if k <= f * n_steps < k + 1:
                snaps[f] = rk4(u, k / n_steps, f) if f * n_steps > k else u
        if k < n_steps:
            u = rk4(u, k / n_steps, (k + 1) / n_steps)
    return u, [snaps[f] for f in sorted(record_fracs)]


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


@pytest.fixture(scope="module")
def paths(disk_module):
    angles = [(0.3, 2.5), (1.0, 4.4), (5.8, 2.2)]
    return [DiskGeodesic.between_boundary_angles(disk_module, a, b).sample()
            for a, b in angles]


@pytest.fixture(scope="session")
def disk_module():
    from ahxray.geometry import AHModel
    return AHModel()


class TestSolveTransport:
    def test_trivial_data_is_identity_map(self, disk_module, paths):
        conn = ConnectionField.zero(2)
        higgs = HiggsFieldData.zero(2)
        e_in = np.array([0.6 + 0.2j, -0.3j])
        for path in paths:
            res = solve_transport(disk_module, conn, higgs, path, e_in)
            assert np.max(np.abs(res.exit_value - e_in)) < 1e-10

    def test_scalar_phase_oracle(self, disk_module, paths):
        higgs = scalar_higgs()
        conn = ConnectionField.zero(1)
        for path in paths:
            expected = np.exp(-1j * phase_integral(higgs, path.analytic))
            res = solve_transport(disk_module, conn, higgs, path,
                                  np.array([1.0 + 0j]))
            assert abs(res.exit_value[0] - expected) < 1e-8

    def test_norm_conserved(self, disk_module, paths, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        e_in = rng.normal(size=2) + 1j * rng.normal(size=2)
        for path in paths:
            res = solve_transport(disk_module, conn, higgs, path, e_in)
            assert abs(np.linalg.norm(res.exit_value)
                       - np.linalg.norm(e_in)) < 1e-9
            assert res.unitarity_defect < 1e-9

    def test_rank_mismatch(self, disk_module, paths):
        with pytest.raises(RankMismatchError):
            solve_transport(disk_module, ConnectionField.zero(2),
                            HiggsFieldData.zero(2), paths[0],
                            np.array([1.0 + 0j]))

    def test_integrated_path_agrees_with_analytic(self, disk_module, rng):
        from ahxray.geometry import integrate_geodesic
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        geo = DiskGeodesic.between_boundary_angles(disk_module, 0.9, 3.3)
        analytic_path = geo.sample()
        mid = analytic_path.midpoint_phasepoint()
        numeric_path = integrate_geodesic(disk_module, mid)
        e_in = np.array([1.0, 1j]) / math.sqrt(2)
        a = solve_transport(disk_module, conn, higgs, analytic_path, e_in)
        b = solve_transport(disk_module, conn, higgs, numeric_path, e_in)
        # each backend carries ~rtol * step-count global error over span ~30
        assert np.max(np.abs(a.exit_value - b.exit_value)) < 5e-7


class TestScatteringMatrix:
    def test_trivial_gives_identity(self, disk_module, paths):
        res = scattering_matrix(disk_module, ConnectionField.zero(2),
                                HiggsFieldData.zero(2), paths[0])
        assert np.max(np.abs(res.exit_value - np.eye(2))) < 1e-10

    def test_columns_match_vector_transport(self, disk_module, paths, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        path = paths[1]
        mat = scattering_matrix(disk_module, conn, higgs, path).exit_value
        for k in range(2):
            e = np.zeros(2, dtype=complex)
            e[k] = 1.0
            col = solve_transport(disk_module, conn, higgs, path, e).exit_value
            assert np.max(np.abs(mat[:, k] - col)) < 1e-12

    def test_unitarity_defect_small(self, disk_module, paths, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        for path in paths:
            res = scattering_matrix(disk_module, conn, higgs, path)
            assert res.unitarity_defect < 1e-8

    def test_reversal_gives_inverse(self, disk_module, paths, rng):
        # reversed path with the adjoint Higgs field inverts the matrix
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        path = paths[2]
        u = scattering_matrix(disk_module, conn, higgs, path).exit_value
        v = scattering_matrix(disk_module, conn, higgs.adjoint(),
                              path.reversed()).exit_value
        assert np.max(np.abs(v - np.linalg.inv(u))) < 1e-7

    def test_truncation_estimate(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        cfg = TransportConfig(rho_cut=1e-4, richardson=True)
        geo = DiskGeodesic.between_boundary_angles(disk_module, 1.3, 3.9,
                                                   rho_cut=1e-4)
        res = scattering_matrix(disk_module, conn, higgs, geo.sample(), cfg)
        assert res.truncation_estimate is not None
        fine = DiskGeodesic.between_boundary_angles(disk_module, 1.3, 3.9,
                                                    rho_cut=5e-5)
        res_fine = scattering_matrix(disk_module, conn, higgs, fine.sample())
        change = np.linalg.norm(res_fine.exit_value - res.exit_value)
        assert change <= res.truncation_estimate + 1e-12

    def test_gauge_covariance_slope(self, disk_module, rng):
        # exit matrices of gauge-equivalent pairs differ by O(rho_cut^M);
        # halving rho_cut must shrink the gap consistently with M.  The
        # law is measured at truncation levels where it clears the solver
        # noise floor.
        from ahxray.bundle import gauge_transform
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        gauge = random_gauge(rng, decay_M=4)
        conn2, higgs2 = gauge_transform(conn, higgs, gauge)
        gaps = []
        for rc in (1e-1, 5e-2):
            geo = DiskGeodesic.between_boundary_angles(disk_module, 0.7, 3.5,
                                                       rho_cut=rc)
            path = geo.sample()
            u1 = scattering_matrix(disk_module, conn, higgs, path).exit_value
            u2 = scattering_matrix(disk_module, conn2, higgs2, path).exit_value
            gaps.append(np.linalg.norm(u1 - u2))
        ratio = gaps[0] / gaps[1]
        assert 2**4 / 2.5 < ratio < 2**4 * 2.5


class TestIntegratedPaths:
    """Transport along paths from the geodesic integrator, which it reads
    through the Hermite interpolant of their samples."""

    @pytest.fixture(scope="class")
    def numeric_paths(self, disk_module):
        out = []
        for a, b in ((0.9, 3.3), (0.2, 2.0), (4.0, 1.1)):
            geo = DiskGeodesic.between_boundary_angles(disk_module, a, b)
            out.append((geo.sample(), integrate_geodesic(
                disk_module, geo.sample().midpoint_phasepoint())))
        return out

    def test_path_state_exact_at_samples(self, disk_module, numeric_paths):
        for _, path in numeric_paths:
            for p in (path, path.reversed()):
                x, v = _path_state(disk_module, p)(p.t)
                assert np.array_equal(x, p.x) and np.array_equal(v, p.v)

    def test_matches_closed_form_path(self, disk_module, numeric_paths, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        for analytic, numeric in numeric_paths:
            a = scattering_matrix(disk_module, conn, higgs, analytic)
            b = scattering_matrix(disk_module, conn, higgs, numeric)
            assert np.max(np.abs(a.exit_value - b.exit_value)) < 5e-8

    def test_reversal_gives_inverse(self, disk_module, numeric_paths, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        _, path = numeric_paths[0]
        u = scattering_matrix(disk_module, conn, higgs, path).exit_value
        v = scattering_matrix(disk_module, conn, higgs.adjoint(),
                              path.reversed()).exit_value
        assert np.max(np.abs(v - np.linalg.inv(u))) < 1e-7

    def test_perturbed_shot_matches_joint_oracle(self, perturbed, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        datum = BoundaryDatum(0.0, -1.5, Direction.INCOMING)
        path = shoot_from_boundary(perturbed, datum, 1e-6)
        u = scattering_matrix(perturbed, conn, higgs, path).exit_value
        ref = joint_rk45(perturbed, transport_rhs(conn, higgs), path,
                         np.eye(2, dtype=complex))
        assert np.max(np.abs(u - ref)) < 1e-6


class TestParallelTransport:
    def test_trivial_connection_identity(self, disk_module, paths):
        e_in = np.array([0.3, -0.8j])
        res = parallel_transport(disk_module, ConnectionField.zero(2),
                                 paths[0], e_in)
        assert np.max(np.abs(res.exit_value - e_in)) < 1e-10

    def test_norm_preserved_and_invertible(self, disk_module, paths, rng):
        conn = random_connection(rng)
        basis_images = []
        for k in range(2):
            e = np.zeros(2, dtype=complex)
            e[k] = 1.0
            res = parallel_transport(disk_module, conn, paths[1], e)
            assert abs(np.linalg.norm(res.exit_value) - 1.0) < 1e-9
            basis_images.append(res.exit_value)
        det = np.linalg.det(np.stack(basis_images, axis=-1))
        assert abs(det) > 0.99


class TestDataAction:
    def test_agrees_with_direct_transport(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        cfg = TransportConfig(rtol=1e-12)
        angles = [(0.2 + k, 2.9 + 0.3 * k) for k in range(10)]
        for a, b in angles:
            path = DiskGeodesic.between_boundary_angles(
                disk_module, a % (2 * math.pi), b % (2 * math.pi)).sample()
            for _ in range(5):
                e_in = rng.normal(size=2) + 1j * rng.normal(size=2)
                via = transported_data_action(disk_module, conn, higgs,
                                              path, e_in, cfg)
                direct = solve_transport(disk_module, conn, higgs, path,
                                         e_in, cfg).exit_value
                assert np.max(np.abs(via - direct)) < 1e-8

    def test_trivial_connection_reduces_to_matrix_action(self, disk_module,
                                                         rng, paths):
        higgs = random_higgs(rng)
        conn = ConnectionField.zero(2)
        e_in = np.array([0.5, 0.5j])
        via = transported_data_action(disk_module, conn, higgs, paths[0], e_in)
        mat = scattering_matrix(disk_module, conn, higgs, paths[0]).exit_value
        assert np.max(np.abs(via - mat @ e_in)) < 1e-10

    def test_zero_higgs_reduces_to_parallel(self, disk_module, rng, paths):
        conn = random_connection(rng)
        e_in = np.array([1.0, 0.0], dtype=complex)
        via = transported_data_action(disk_module, conn,
                                      HiggsFieldData.zero(2), paths[0], e_in)
        par = parallel_transport(disk_module, conn, paths[0], e_in).exit_value
        assert np.max(np.abs(via - par)) < 1e-9


class TestBatchBackend:
    def test_matches_adaptive(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, b)
                for a, b in ((0.4, 2.8), (1.5, 5.0), (3.0, 0.3))]
        u_batch, _ = batch_scattering(conn, higgs, geos)
        for i, geo in enumerate(geos):
            ref = scattering_matrix(disk_module, conn, higgs,
                                    geo.sample()).exit_value
            assert np.max(np.abs(u_batch[i] - ref)) < 1e-9

    def test_scalar_phase_oracle(self, disk_module):
        higgs = scalar_higgs()
        conn = ConnectionField.zero(1)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a,
                                                     a + 2.5)
                for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)]
        u_batch, _ = batch_scattering(conn, higgs, geos)
        for i, geo in enumerate(geos):
            expected = np.exp(-1j * phase_integral(higgs, geo))
            assert abs(u_batch[i, 0, 0] - expected) < 1e-8

    def test_records_track_solution(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, 0.2, 3.1)]
        u_exit, records = batch_scattering(conn, higgs, geos,
                                           record_fracs=[0.0, 0.5, 1.0])
        assert len(records) == 3
        t0, x0, v0, q0 = records[0]
        assert np.max(np.abs(q0[0] - np.eye(2))) < 1e-14
        t2, x2, v2, q2 = records[-1]
        assert np.max(np.abs(q2[0] - u_exit[0])) < 1e-14


class TestSegmentedMarch:
    """The segment-parallel march against the sequential reference."""

    def test_fan_with_segments(self, disk_module, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, a + op)
                for a, op in zip(rng.uniform(0, 2 * math.pi, 5),
                                 rng.uniform(0.5, 5.5, 5))]
        n = 256
        assert _segments(n, len(geos)) > 1
        u, _ = batch_scattering(conn, higgs, geos, TransportConfig(n_steps=n))
        ref, _ = sequential_rk4(two_sided(conn, higgs), geos, 2, n)
        assert np.max(np.abs(u - ref)) <= 1e-13

    def test_prime_step_count_marches_plainly(self, disk_module, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, a + 2.4)
                for a in (0.3, 2.1, 4.0)]
        n = 347
        assert _segments(n, len(geos)) == 1
        u, _ = batch_scattering(conn, higgs, geos, TransportConfig(n_steps=n))
        ref, _ = sequential_rk4(two_sided(conn, higgs), geos, 2, n)
        assert np.max(np.abs(u - ref)) <= 1e-13

    def test_gauge_pair_snapshots(self, disk_module, rng):
        conn_a, higgs_a = random_connection(rng), random_higgs(rng)
        conn_b, higgs_b = random_connection(rng), random_higgs(rng)
        geos = [DiskGeodesic.through(disk_module, (-0.2, 0.1), th)
                for th in (0.05, 1.1, 2.2)]
        n = 768
        m = _segments(n, len(geos))
        assert 1 < m < n
        # grid times on and off segment boundaries, and side-steps from
        # several positions inside a segment where the fields are strong
        fracs = [0.0, 1.0, 100 / m, 301 / n, 0.4567, 0.5 + 0.4 / n,
                 0.5 + 1.7 / n, (n - 0.3) / n]
        cfg = TransportConfig(n_steps=n)
        for conn, higgs in ((conn_a, higgs_a), (conn_b, higgs_b)):
            prep = transport_rhs(conn, higgs)
            w_exit, records = batch_transport(prep, geos, 2, cfg, fracs)
            ref_exit, ref_snaps = sequential_rk4(
                two_sided(conn, higgs), geos, 2, n, fracs)
            assert np.max(np.abs(w_exit - ref_exit)) <= 1e-13
            assert len(records) == len(fracs)
            for (t, x, v, w), f, ref in zip(records, sorted(fracs),
                                            ref_snaps):
                assert np.max(np.abs(w - ref)) <= 1e-13
                t_ref = np.array([g.t_entry + f * (g.t_exit - g.t_entry)
                                  for g in geos])
                assert np.max(np.abs(t - t_ref)) <= 1e-13
                assert np.max(np.abs(
                    x - [g.position(s) for g, s in zip(geos, t_ref)])) <= 1e-13

    def test_lifted_endomorphism_matches_two_sided(self, disk_module, paths,
                                                   rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        cfg = TransportConfig()
        for path in paths:
            lifted = endomorphism_transport(disk_module, conn, higgs, path,
                                            cfg)
            direct = _transport_adaptive(
                disk_module, [two_sided(conn, higgs, conn)], path,
                np.eye(2, dtype=complex), cfg)[3][0, -1]
            assert np.max(np.abs(lifted.exit_value - direct)) <= 1e-12
            assert lifted.unitarity_defect < 1e-9


    def test_endomorphism_factors_through_parallel_transport(
            self, disk_module, rng):
        # U = W Psi^{-1}, the factorization gauge recovery relies on, with
        # W and Psi from the fixed-step march and U from the adaptive
        # two-sided system
        conn, higgs = random_connection(rng), random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, b)
                for a, b in ((0.3, 2.5), (1.0, 4.4), (5.8, 2.2))]
        w, _ = batch_scattering(conn, higgs, geos)
        psi, _ = batch_scattering(conn, HiggsFieldData.zero(2), geos)
        for geo, w_i, psi_i in zip(geos, w, psi):
            u = endomorphism_transport(disk_module, conn, higgs,
                                       geo.sample()).exit_value
            assert np.max(np.abs(u - w_i @ np.linalg.inv(psi_i))) < 1e-9


def test_config_validation():
    with pytest.raises(DomainError):
        TransportConfig(rho_cut=0.5)
