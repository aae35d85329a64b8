"""Transport solver tests.

Independent oracles:
- for rank 1 with trivial connection the exit value is exp(-i * integral
  of the scalar potential along the geodesic); the integral is evaluated
  by adaptive quadrature on the closed-form path, never by the transport
  solver itself;
- the segmented batch march is checked against a plain sequential RK4
  march of the d x d systems, kept here as the reference;
- transport along closed-form paths, and along the piecewise paths of the
  perturbed model, is checked against the adaptive RK45 integrators of
  ``oracles`` (the geodesic, the transport and the two-sided endomorphism
  system), at tighter tolerances;
- transport across a shot ray's crossing of the bump is checked against a
  joint fixed-step RK4 march of (x, v, W), step after step.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ahxray.bundle import ConnectionField, GaussBump, HiggsFieldData
from ahxray.errors import DomainError, RankMismatchError
from ahxray.geometry import (BoundaryDatum, DiskGeodesic, Direction,
                             PhasePoint, integrate_geodesic,
                             shoot_from_boundary)
from ahxray.transport import (TransportConfig, _march, _segments,
                              batch_transport, crossing_transport,
                              parallel_transport, scattering_matrix,
                              solve_transport,
                              transport_rhs)
from oracles import (closed_form_state, joint_rk45, rk45_geodesic,
                     rk45_transport, two_sided)
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


def joint_rk4_crossing(model, prep, pieces, rank):
    """Reference march across a shot ray's bump crossing: classic RK4 of
    the joint state (x, v, W) from the crossing's first state and W = I,
    with the crossing's step and step count.  Returns (x, v) and W at the
    end."""
    def f(y, u):
        return (np.stack([y[1], model.geodesic_rhs(y[0], y[1])]),
                prep(y[0], y[1])(u))

    h = pieces.h
    y, u = pieces.stages[0, 0], np.eye(rank, dtype=complex)
    for _ in range(len(pieces.stages)):
        ky1, ku1 = f(y, u)
        ky2, ku2 = f(y + 0.5 * h * ky1, u + 0.5 * h * ku1)
        ky3, ku3 = f(y + 0.5 * h * ky2, u + 0.5 * h * ku2)
        ky4, ku4 = f(y + h * ky3, u + h * ku3)
        y = y + h / 6.0 * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)
        u = u + h / 6.0 * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
    return y, u


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

    def test_integrated_path_agrees_with_analytic(self, perturbed, rng):
        # the piecewise path through an interior phase point of the
        # perturbed model against transport along the RK45 oracle geodesic
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        start = PhasePoint.from_angle(perturbed, (0.1, 0.0), 0.4)
        numeric_path = integrate_geodesic(perturbed, start)
        assert numeric_path.pieces is not None
        oracle = rk45_geodesic(perturbed, start)
        e_in = np.array([1.0, 1j]) / math.sqrt(2)
        a = rk45_transport(transport_rhs(conn, higgs), oracle.state,
                           (oracle.t[0], oracle.t[-1]), e_in)
        b = solve_transport(perturbed, conn, higgs, numeric_path, e_in)
        # each backend carries ~rtol * step-count global error over span ~30
        assert np.max(np.abs(a - b.exit_value)) < 5e-7


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
    """Transport along the piecewise paths of the perturbed model, from
    the geodesic through an interior phase point."""

    @pytest.fixture(scope="class")
    def numeric_paths(self, perturbed):
        out = []
        for x, theta in (((0.1, 0.0), 0.4), ((0.4, -0.3), 2.0),
                         ((0.25, 0.2), 4.5)):
            start = PhasePoint.from_angle(perturbed, x, theta)
            path = integrate_geodesic(perturbed, start)
            assert path.pieces is not None
            out.append((rk45_geodesic(perturbed, start), path))
        return out

    def test_matches_closed_form_path(self, perturbed, numeric_paths, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        prep = transport_rhs(conn, higgs)
        for oracle, numeric in numeric_paths:
            a = rk45_transport(prep, oracle.state,
                               (oracle.t[0], oracle.t[-1]),
                               np.eye(2, dtype=complex))
            b = scattering_matrix(perturbed, conn, higgs, numeric)
            assert np.max(np.abs(a - b.exit_value)) < 5e-8

    def test_reversal_gives_inverse(self, perturbed, numeric_paths, rng):
        # a crossing ray cannot be run backwards; the reverse path is the
        # geodesic through the reversed phase point
        conn, higgs = random_connection(rng), random_higgs(rng)
        _, path = numeric_paths[0]
        i = len(path.t) // 2
        back = integrate_geodesic(perturbed,
                                  PhasePoint(perturbed, path.x[i], -path.v[i]))
        u = scattering_matrix(perturbed, conn, higgs, path).exit_value
        v = scattering_matrix(perturbed, conn, higgs.adjoint(),
                              back).exit_value
        assert np.max(np.abs(v - np.linalg.inv(u))) < 1e-7

    def test_reversed_crossing_ray_refused(self, perturbed, numeric_paths):
        _, path = numeric_paths[0]
        prep = transport_rhs(ConnectionField.zero(2), HiggsFieldData.zero(2))
        with pytest.raises(DomainError, match="exit datum"):
            batch_transport(prep, [path.reversed()], 2)

    def test_perturbed_shot_matches_joint_oracle(self, perturbed, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        datum = BoundaryDatum(0.0, -1.5, Direction.INCOMING)
        path = shoot_from_boundary(perturbed, datum, 1e-6)
        u = scattering_matrix(perturbed, conn, higgs, path).exit_value
        ref = joint_rk45(perturbed, transport_rhs(conn, higgs), path,
                         np.eye(2, dtype=complex))
        assert np.max(np.abs(u - ref)) < 1e-6


class TestCrossingTransport:
    def test_matches_joint_rk4_march(self, perturbed, rng):
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        crossings = [shoot_from_boundary(
            perturbed, BoundaryDatum(alpha, eta, Direction.INCOMING),
            1e-6).pieces for alpha, eta in ((0.0, -1.5), (3.0, -0.3),
                                            (1.0, -0.3))]
        # crossings of different step counts share one call
        assert len({len(c.stages) for c in crossings}) == 3
        w = crossing_transport(prep, crossings, 2)
        for pieces, w_ball in zip(crossings, w):
            y, ref = joint_rk4_crossing(perturbed, prep, pieces, 2)
            assert np.max(np.abs(w_ball - ref)) < 1e-13
            # the joint march leaves where the outgoing piece starts
            assert np.max(np.abs(y[0] - pieces.outgoing.position(
                np.zeros(())))) < 1e-15


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


def endomorphism(conn, higgs, path):
    """The entry-normalized endomorphism solution, from the two-sided RK45
    oracle along the closed form; applied to the parallel transport of an
    entry vector it gives the datum by the endomorphism factorization."""
    return rk45_transport(two_sided(conn, higgs, conn),
                          closed_form_state(path.analytic),
                          (path.t[0], path.t[-1]), np.eye(2, dtype=complex),
                          rtol=1e-12)


class TestDataAction:
    def test_agrees_with_direct_transport(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        angles = [(0.2 + k, 2.9 + 0.3 * k) for k in range(10)]
        for a, b in angles:
            path = DiskGeodesic.between_boundary_angles(
                disk_module, a % (2 * math.pi), b % (2 * math.pi)).sample()
            u = endomorphism(conn, higgs, path)
            for _ in range(5):
                e_in = rng.normal(size=2) + 1j * rng.normal(size=2)
                via = u @ parallel_transport(disk_module, conn, path,
                                             e_in).exit_value
                direct = solve_transport(disk_module, conn, higgs, path,
                                         e_in).exit_value
                assert np.max(np.abs(via - direct)) < 1e-8

    def test_trivial_connection_reduces_to_matrix_action(self, disk_module,
                                                         rng, paths):
        higgs = random_higgs(rng)
        conn = ConnectionField.zero(2)
        e_in = np.array([0.5, 0.5j])
        via = endomorphism(conn, higgs, paths[0]) @ parallel_transport(
            disk_module, conn, paths[0], e_in).exit_value
        mat = scattering_matrix(disk_module, conn, higgs, paths[0]).exit_value
        assert np.max(np.abs(via - mat @ e_in)) < 1e-10

    def test_zero_higgs_reduces_to_parallel(self, disk_module, rng, paths):
        conn = random_connection(rng)
        e_in = np.array([1.0, 0.0], dtype=complex)
        par = parallel_transport(disk_module, conn, paths[0], e_in).exit_value
        via = endomorphism(conn, HiggsFieldData.zero(2), paths[0]) @ par
        assert np.max(np.abs(via - par)) < 1e-9


class TestBatchBackend:
    def test_matches_adaptive(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, b)
                for a, b in ((0.4, 2.8), (1.5, 5.0), (3.0, 0.3))]
        u_batch = batch_transport(transport_rhs(conn, higgs), geos, 2)
        for i, geo in enumerate(geos):
            ref = rk45_transport(transport_rhs(conn, higgs),
                                 closed_form_state(geo),
                                 (geo.t_entry, geo.t_exit),
                                 np.eye(2, dtype=complex))
            assert np.max(np.abs(u_batch[i] - ref)) < 1e-9

    def test_scalar_phase_oracle(self, disk_module):
        higgs = scalar_higgs()
        conn = ConnectionField.zero(1)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a,
                                                     a + 2.5)
                for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)]
        u_batch = batch_transport(transport_rhs(conn, higgs), geos, 1)
        for i, geo in enumerate(geos):
            expected = np.exp(-1j * phase_integral(higgs, geo))
            assert abs(u_batch[i, 0, 0] - expected) < 1e-8

    def test_records_track_solution(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, 0.2, 3.1)]
        u_exit, records = _march(transport_rhs(conn, higgs), geos, 2,
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
        u = batch_transport(transport_rhs(conn, higgs), geos, 2,
                            TransportConfig(n_steps=n))
        ref, _ = sequential_rk4(two_sided(conn, higgs), geos, 2, n)
        assert np.max(np.abs(u - ref)) <= 1e-13

    def test_prime_step_count_marches_plainly(self, disk_module, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, a + 2.4)
                for a in (0.3, 2.1, 4.0)]
        n = 347
        assert _segments(n, len(geos)) == 1
        u = batch_transport(transport_rhs(conn, higgs), geos, 2,
                            TransportConfig(n_steps=n))
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
            w_exit, records = _march(prep, geos, 2, cfg, fracs)
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

    def test_endomorphism_factors_through_parallel_transport(
            self, disk_module, rng):
        # U = W Psi^{-1}, the factorization gauge recovery relies on, with
        # W and Psi from the fixed-step march and U from the two-sided RK45
        # oracle
        conn, higgs = random_connection(rng), random_higgs(rng)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, b)
                for a, b in ((0.3, 2.5), (1.0, 4.4), (5.8, 2.2))]
        w = batch_transport(transport_rhs(conn, higgs), geos, 2)
        psi = batch_transport(transport_rhs(conn, HiggsFieldData.zero(2)),
                              geos, 2)
        for geo, w_i, psi_i in zip(geos, w, psi):
            u = endomorphism(conn, higgs, geo.sample())
            assert np.max(np.abs(u - w_i @ np.linalg.inv(psi_i))) < 1e-9


def test_config_validation():
    with pytest.raises(DomainError):
        TransportConfig(rho_cut=0.5)
