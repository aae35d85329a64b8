"""Transport solver tests.

Independent oracles:
- for rank 1 with trivial connection the exit value is exp(-i * integral
  of the scalar potential along the geodesic); the integral is evaluated
  by adaptive quadrature on the closed-form path, never by the transport
  solver itself;
- the segmented batch march, whose segment propagators a log-depth scan
  composes, is checked against a plain sequential RK4 march of the d x d
  systems, kept here as the reference;
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

import ahxray.transport as transport
from ahxray._linalg import unitary_defect
from ahxray.bundle import (ConnectionField, GaussBump, HiggsFieldData,
                           gauge_transform)
from ahxray.errors import DomainError, RankMismatchError
from ahxray.geometry import (BoundaryDatum, DiskGeodesic, Direction,
                             IntegratorConfig, PhasePoint,
                             integrate_geodesic, shoot_from_boundary)
from ahxray.transport import (TransportConfig, _at_rho_cut, _march,
                              _segments, batch_transport, crossing_transport,
                              scattering_matrix, transport_rhs,
                              truncation_estimate)
from ahxray.xray import FanSpec
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
    """Reference march: one classic RK4 step after another along each
    span, uniform in z = tanh(t/2), of dW/dz = (dt/dz) rhs(W) from the
    identity, with dt/dz = 2 / (1 - z^2) applied to each stage's
    right-hand side; positions and velocities come from each geodesic's
    closed form at t = 2 artanh(z).  A snapshot at a fraction of each
    span in time is a fractional step from the preceding grid node of
    each geodesic."""
    t0 = np.array([g.t_entry for g in geos])
    t1 = np.array([g.t_exit for g in geos])
    z0 = np.tanh(t0 / 2.0)
    dz = np.tanh(t1 / 2.0) - z0

    def field_at(zf):
        z = z0 + zf * dz
        t = 2.0 * np.arctanh(z)
        rhs = field(np.stack([g.position(s) for g, s in zip(geos, t)]),
                    np.stack([g.velocity(s) for g, s in zip(geos, t)]))
        dt_dz = (2.0 / (1.0 - z * z))[:, None, None]
        return lambda u: dt_dz * rhs(u)

    def rk4(u, a, b):
        h = ((b - a) * dz)[:, None, None]
        f0, fm, f1 = field_at(a), field_at(0.5 * (a + b)), field_at(b)
        k1 = f0(u)
        k2 = fm(u + 0.5 * h * k1)
        k3 = fm(u + 0.5 * h * k2)
        k4 = f1(u + h * k3)
        return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    u = np.broadcast_to(np.eye(rank, dtype=complex),
                        (len(geos), rank, rank)).copy()
    nodes = [u]
    for k in range(n_steps):
        u = rk4(u, np.full(len(geos), k / n_steps),
                np.full(len(geos), (k + 1) / n_steps))
        nodes.append(u)
    nodes = np.array(nodes)
    snaps, cols = [], np.arange(len(geos))
    for f in record_fracs:
        zf = np.clip((np.tanh((t0 + f * (t1 - t0)) / 2.0) - z0) / dz, 0, 1)
        zf = np.ones_like(zf) if f >= 1.0 else zf
        k = np.minimum(np.floor(zf * n_steps).astype(int), n_steps)
        snaps.append(rk4(nodes[k, cols], k / n_steps, zf))
    return u, snaps


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
            out = scattering_matrix(conn, higgs, path) @ e_in
            assert np.max(np.abs(out - e_in)) < 1e-10

    def test_scalar_phase_oracle(self, disk_module, paths):
        higgs = scalar_higgs()
        conn = ConnectionField.zero(1)
        for path in paths:
            expected = np.exp(-1j * phase_integral(higgs, path.analytic))
            out = scattering_matrix(conn, higgs, path) @ np.array([1.0 + 0j])
            assert abs(out[0] - expected) < 1e-8

    def test_norm_conserved(self, disk_module, paths, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        e_in = rng.normal(size=2) + 1j * rng.normal(size=2)
        for path in paths:
            w = scattering_matrix(conn, higgs, path)
            assert abs(np.linalg.norm(w @ e_in)
                       - np.linalg.norm(e_in)) < 1e-9
            assert unitary_defect(w) < 1e-9

    def test_rank_mismatch(self, disk_module, paths):
        with pytest.raises(RankMismatchError, match="rank 2 and Higgs"):
            scattering_matrix(ConnectionField.zero(2),
                              HiggsFieldData.zero(1), paths[0])

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
        b = scattering_matrix(conn, higgs, numeric_path) @ e_in
        # each backend carries ~rtol * step-count global error over span ~30
        assert np.max(np.abs(a - b)) < 5e-7


class TestScatteringMatrix:
    def test_trivial_gives_identity(self, disk_module, paths):
        w = scattering_matrix(ConnectionField.zero(2),
                              HiggsFieldData.zero(2), paths[0])
        assert np.max(np.abs(w - np.eye(2))) < 1e-10

    def test_unitarity_defect_small(self, disk_module, paths, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        for path in paths:
            assert unitary_defect(scattering_matrix(conn, higgs, path)) < 1e-8

    def test_reversal_gives_inverse(self, disk_module, paths, rng):
        # reversed path with the adjoint Higgs field inverts the matrix
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        path = paths[2]
        u = scattering_matrix(conn, higgs, path)
        v = scattering_matrix(conn, higgs.adjoint(), path.reversed())
        assert np.max(np.abs(v - np.linalg.inv(u))) < 1e-7

    def test_truncation_estimate(self, disk_module, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        cfg = TransportConfig(rho_cut=1e-4)
        geo = DiskGeodesic.between_boundary_angles(disk_module, 1.3, 3.9,
                                                   rho_cut=1e-4)
        [estimate] = truncation_estimate(transport_rhs(conn, higgs),
                                         [geo.sample()], 2, cfg)
        fine = DiskGeodesic.between_boundary_angles(disk_module, 1.3, 3.9,
                                                    rho_cut=5e-5)
        change = np.linalg.norm(scattering_matrix(conn, higgs, fine.sample())
                                - scattering_matrix(conn, higgs, geo.sample(),
                                                    cfg))
        assert change <= estimate + 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_truncation_estimate_keeps_the_crossing(self, perturbed, rng,
                                                    eta):
        # a ray crossing the bump at a coarse 512-step march: halving
        # rho_cut moves the exit value by about 3e-12, while re-marching
        # the crossing at another step would add the crossing's RK4 error
        # (about 2e-5 at this step)
        conn, higgs = random_connection(rng), random_higgs(rng)
        path = shoot_from_boundary(
            perturbed, BoundaryDatum(5.9, eta, Direction.INCOMING), 1e-6,
            IntegratorConfig(n_steps=512))
        assert path.pieces is not None
        [estimate] = truncation_estimate(transport_rhs(conn, higgs), [path],
                                         2)
        assert estimate < 1e-10

    def test_truncation_estimate_of_a_cut_geodesic(self, disk_module):
        # a geodesic cut at an interior time keeps that end when rho_cut
        # halves; only its truncated end moves, so the estimate is as
        # small as the whole geodesic's, as a DiskGeodesic and as its
        # sample
        rng = np.random.default_rng(0)
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        geo = DiskGeodesic.through(disk_module, (-0.2, 0.1), 0.7)
        cut = geo.span(geo.t_entry, 0.0)
        fine = _at_rho_cut(cut, cut.rho_cut / 2.0)
        assert fine.t_exit == 0.0 and fine.t_entry < cut.t_entry
        assert fine.t_entry == geo.with_rho_cut(cut.rho_cut / 2.0).t_entry
        for path in (geo, cut, cut.sample()):
            [estimate] = truncation_estimate(prep, [path], 2)
            assert estimate < 1e-10

    def test_truncation_estimate_over_a_fan(self, perturbed, rng):
        # one call over a shooting fan whose rays cross the bump or miss
        # it; each value is the one-path estimate up to rounding (the
        # segment layout of the march depends on the batch width)
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        paths = [shoot_from_boundary(perturbed, datum, 1e-6,
                                     IntegratorConfig(n_steps=512))
                 for datum in FanSpec.uniform_shooting(10).data]
        crossing = [p.pieces is not None for p in paths]
        assert any(crossing) and not all(crossing)
        estimates = truncation_estimate(prep, paths, 2)
        assert estimates.shape == (len(paths),)
        assert np.all(estimates < 1e-10)
        for path, estimate in zip(paths, estimates):
            [single] = truncation_estimate(prep, [path], 2)
            assert abs(estimate - single) < 1e-14

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
            u1 = scattering_matrix(conn, higgs, path)
            u2 = scattering_matrix(conn2, higgs2, path)
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
            b = scattering_matrix(conn, higgs, numeric)
            assert np.max(np.abs(a - b)) < 5e-8

    def test_reversal_gives_inverse(self, perturbed, numeric_paths, rng):
        # a crossing ray cannot be run backwards; the reverse path is the
        # geodesic through the reversed phase point
        conn, higgs = random_connection(rng), random_higgs(rng)
        _, path = numeric_paths[0]
        i = len(path.t) // 2
        back = integrate_geodesic(perturbed,
                                  PhasePoint(perturbed, path.x[i], -path.v[i]))
        u = scattering_matrix(conn, higgs, path)
        v = scattering_matrix(conn, higgs.adjoint(), back)
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
        u = scattering_matrix(conn, higgs, path)
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
        assert w.shape == (2, 2, len(crossings))
        for pieces, w_ball in zip(crossings, np.moveaxis(w, -1, 0)):
            y, ref = joint_rk4_crossing(perturbed, prep, pieces, 2)
            assert np.max(np.abs(w_ball - ref)) < 1e-13
            # the joint march leaves where the outgoing piece starts
            assert np.max(np.abs(y[0] - pieces.outgoing.position(
                np.zeros(())))) < 1e-15


class TestParallelTransport:
    def test_trivial_connection_identity(self, disk_module, paths):
        e_in = np.array([0.3, -0.8j])
        out = scattering_matrix(ConnectionField.zero(2),
                                HiggsFieldData.zero(2), paths[0]) @ e_in
        assert np.max(np.abs(out - e_in)) < 1e-10

    def test_norm_preserved_and_invertible(self, disk_module, paths, rng):
        conn = random_connection(rng)
        basis_images = []
        for k in range(2):
            e = np.zeros(2, dtype=complex)
            e[k] = 1.0
            out = scattering_matrix(conn, HiggsFieldData.zero(2),
                                    paths[1]) @ e
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9
            basis_images.append(out)
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
                via = u @ (scattering_matrix(conn, HiggsFieldData.zero(2),
                                             path) @ e_in)
                direct = scattering_matrix(conn, higgs, path) @ e_in
                assert np.max(np.abs(via - direct)) < 1e-8

    def test_trivial_connection_reduces_to_matrix_action(self, disk_module,
                                                         rng, paths):
        higgs = random_higgs(rng)
        conn = ConnectionField.zero(2)
        e_in = np.array([0.5, 0.5j])
        via = endomorphism(conn, higgs, paths[0]) @ (scattering_matrix(
            conn, HiggsFieldData.zero(2), paths[0]) @ e_in)
        mat = scattering_matrix(conn, higgs, paths[0])
        assert np.max(np.abs(via - mat @ e_in)) < 1e-10

    def test_zero_higgs_reduces_to_parallel(self, disk_module, rng, paths):
        conn = random_connection(rng)
        e_in = np.array([1.0, 0.0], dtype=complex)
        par = scattering_matrix(conn, HiggsFieldData.zero(2), paths[0]) @ e_in
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
        geo = DiskGeodesic.between_boundary_angles(disk_module, 0.2, 3.1)
        times = [[geo.t_entry], [0.5 * (geo.t_entry + geo.t_exit)],
                 [geo.t_exit]]
        u_exit, (t, x, v, q) = _march(transport_rhs(conn, higgs), [geo], 2,
                                      record_times=times)
        # matrix-first states: (d, d) in front of (snapshots, geodesics)
        assert t.shape == (3, 1) and q.shape == (2, 2, 3, 1)
        assert u_exit.shape == (2, 2, 1)
        assert np.max(np.abs(q[:, :, 0, 0] - np.eye(2))) < 1e-14
        assert np.max(np.abs(q[:, :, -1, 0] - u_exit[:, :, 0])) < 1e-14

    def test_one_call_snapshots_as_one_path_calls(self, disk_module,
                                                  perturbed, rng):
        # each piece is snapshotted at its own path's times only, so one
        # call over 20 paths gives the states of 20 one-path calls, and its
        # snapshot side-step is one evaluation of (3, times, pieces) nodes
        # (grid node, midpoint, snapshot), not (3, paths x times, pieces)
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        ray = shoot_from_boundary(
            perturbed, BoundaryDatum(0.0, -1.5, Direction.INCOMING), 1e-6)
        span_in, span_out = (g.t_exit - g.t_entry for g in (
            ray.pieces.incoming, ray.pieces.outgoing))
        times = np.concatenate([
            np.linspace(ray.t[0], ray.t[0] + 0.99 * span_in, 80),
            np.linspace(ray.t[-1] - 0.99 * span_out, ray.t[-1], 81)])
        paths = [DiskGeodesic.through(disk_module, (-0.2, 0.1), th)
                 for th in np.linspace(0.1, 3.0, 19)] + [ray]
        # the marches of one call and of one path round alike only where
        # they cut the spans into the same segments
        n, width = 48, len(paths) + 1
        assert _segments(n, width) == _segments(n, 2) == _segments(n, 1)
        cfg = TransportConfig(n_steps=n)
        shapes = set()

        def counted(x, v):
            shapes.add(x.shape[:-1])
            return prep(x, v)

        w, snaps = batch_transport(counted, paths, 2, cfg, times)
        m = _segments(n, width)
        assert m == n
        # the segment ends and midpoints, the span entry, the snapshots
        assert {s for s in shapes if len(s) > 1} == {
            (m, width), (1, width), (3, len(times), width)}
        ones = [batch_transport(prep, [p], 2, cfg, times) for p in paths]
        assert np.array_equal(w, np.concatenate([o[0] for o in ones]))
        for i, snap in enumerate(snaps):
            assert np.array_equal(snap,
                                  np.concatenate([o[1][i] for o in ones]))

    @pytest.mark.parametrize("n, m", [(64, 64), (512, 256)])
    def test_one_step_segments_evaluate_each_node_once(self, disk_module,
                                                        rng, n, m):
        # a segment ends at the next one's start node: the march evaluates
        # the m + 1 segment boundaries once, for one-step segments (m = n)
        # and longer ones (m < n) alike, so no node of a z grid is
        # evaluated twice, 2n + 1 nodes per geodesic
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, a + 2.0)
                for a in (0.3, 2.0, 4.1)]
        assert _segments(n, len(geos)) == m
        nodes = []

        def counted(x, v):
            nodes.append(np.concatenate([x, v], axis=-1).reshape(-1, 4))
            return prep(x, v)

        batch_transport(counted, geos, 2, TransportConfig(n_steps=n))
        nodes = np.concatenate(nodes)
        assert len(nodes) == (2 * n + 1) * len(geos)
        assert len(np.unique(nodes, axis=0)) == len(nodes)

    @pytest.mark.parametrize("n", [384, 512])
    def test_call_width_moves_only_the_last_bits(self, disk_module, rng, n):
        # one call of 20 paths cuts each span into fewer segments than a
        # one-path call (_segments), so the two round apart, by about
        # 3e-15 here
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        paths = [DiskGeodesic.through(disk_module, (-0.2, 0.1), th)
                 for th in np.linspace(0.1, 3.0, 20)]
        assert _segments(n, len(paths)) < _segments(n, 1)
        cfg = TransportConfig(n_steps=n)
        times = np.linspace(-4.0, 4.0, 17)
        w, (_, _, _, snaps) = batch_transport(prep, paths, 2, cfg, times)
        ones = [batch_transport(prep, [p], 2, cfg, times) for p in paths]
        assert np.max(np.abs(w - np.concatenate([o[0] for o in ones]))) \
            <= 1e-14
        assert np.max(np.abs(
            snaps - np.concatenate([o[1][3] for o in ones]))) <= 1e-14


class TestSegmentedMarch:
    """The segment-parallel march against the sequential reference."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_fan_with_segments(self, disk_module, rng, rank):
        conn = random_connection(rng, rank)
        higgs = random_higgs(rng, rank)
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, a + op)
                for a, op in zip(rng.uniform(0, 2 * math.pi, 5),
                                 rng.uniform(0.5, 5.5, 5))]
        n = 256
        assert _segments(n, len(geos)) > 1
        u = batch_transport(transport_rhs(conn, higgs), geos, rank,
                            TransportConfig(n_steps=n))
        ref, _ = sequential_rk4(two_sided(conn, higgs), geos, rank, n)
        assert np.max(np.abs(u - ref)) <= 1e-13

    def test_width_one_march_scans_its_segments(self, disk_module, rng,
                                                monkeypatch):
        # 384 one-step segments, composed in ceil(log2 384) = 9 products
        # of the scan (the stage products are not counted)
        n = 384
        assert _segments(n, 1) == n
        products = []
        scan = transport._prefix_products

        def counted_scan(stack, product, axis):
            def counted(a, b):
                products.append(a.shape)
                return product(a, b)
            return scan(stack, counted, axis)

        monkeypatch.setattr(transport, "_prefix_products", counted_scan)
        geo = DiskGeodesic.between_boundary_angles(disk_module, 1.2, 4.0)
        _march(transport_rhs(random_connection(rng), random_higgs(rng)),
               [geo], 2, TransportConfig(n_steps=n))
        assert 0 < len(products) <= math.ceil(math.log2(n))

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

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_gauge_pair_snapshots(self, disk_module, rng, rank):
        conn_a, higgs_a = (random_connection(rng, rank),
                           random_higgs(rng, rank))
        conn_b, higgs_b = (random_connection(rng, rank),
                           random_higgs(rng, rank))
        geos = [DiskGeodesic.through(disk_module, (-0.2, 0.1), th)
                for th in (0.05, 1.1, 2.2)]
        n = 768
        m = _segments(n, len(geos))
        assert 1 < m < n
        # grid times on and off segment boundaries, and side-steps from
        # several positions inside a segment where the fields are strong
        fracs = [0.0, 1.0, 100 / m, 301 / n, 0.4567, 0.5 + 0.4 / n,
                 0.5 + 1.7 / n, (n - 0.3) / n]
        t0, t1 = (np.array([getattr(g, end) for g in geos])
                  for end in ("t_entry", "t_exit"))
        # each geodesic's own times at the fractions of its span
        times = t0 + np.array(fracs)[:, None] * (t1 - t0)
        cfg = TransportConfig(n_steps=n)
        for conn, higgs in ((conn_a, higgs_a), (conn_b, higgs_b)):
            prep = transport_rhs(conn, higgs)
            w_exit, (t, x, v, w) = _march(prep, geos, rank, cfg, times)
            ref_exit, ref_snaps = sequential_rk4(
                two_sided(conn, higgs), geos, rank, n, fracs)
            assert np.max(np.abs(np.moveaxis(w_exit, -1, 0) - ref_exit)) \
                <= 1e-13
            assert w.shape == (rank, rank, len(fracs), len(geos))
            w = np.moveaxis(w, (0, 1), (-2, -1))
            for t, x, w, t_ref, ref in zip(t, x, w, times, ref_snaps):
                assert np.max(np.abs(w - ref)) <= 1e-13
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


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, 2048.0, "8", None])
def test_step_count_must_be_a_positive_integer(n_steps):
    # 2.5 and 2048.0 used to construct and end in a bare TypeError inside
    # the march
    with pytest.raises(DomainError, match="n_steps must be positive"):
        TransportConfig(n_steps=n_steps)


class TestZGrid:
    """The march's uniform grid in z = tanh(t/2) and what it needs."""

    def test_fourth_order_convergence(self, disk_module):
        # the error against an 8192-step solve falls about 16x per
        # doubling of the step count from 256 steps on
        rng = np.random.default_rng(11)
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        geos = [DiskGeodesic.between_boundary_angles(disk_module, a, b)
                for a, b in FanSpec.uniform_pairs(12, 3).pairs]
        ref = batch_transport(prep, geos, 2, TransportConfig(n_steps=8192))
        errors = [np.max(np.abs(batch_transport(
            prep, geos, 2, TransportConfig(n_steps=n)) - ref))
            for n in (256, 512, 1024)]
        assert errors[0] / errors[1] >= 12.0
        assert errors[1] / errors[2] >= 12.0

    def test_slowly_decaying_higgs_field_refused(self, rng):
        # at decay 0, Phi dt/dz grows like 2 / rho at the ends of the grid
        with pytest.raises(DomainError, match="decays like rho\\^0"):
            transport_rhs(random_connection(rng), random_higgs(rng, decay=0))

    def test_zero_field_and_its_gauge_transforms_pass(self, disk_module,
                                                      rng):
        # the zero field's decay exponent is 0, and says nothing
        conn, zero = random_connection(rng), HiggsFieldData.zero(2)
        assert zero.decay_N1 == 0
        gauged = gauge_transform(conn, zero, random_gauge(rng))
        geo = DiskGeodesic.between_boundary_angles(disk_module, 0.4, 2.8)
        psi = scattering_matrix(conn, zero, geo)
        for pair in ((conn, zero.adjoint()), gauged):
            w = scattering_matrix(*pair, geo)
            assert unitary_defect(w) < 1e-9
        assert np.max(np.abs(scattering_matrix(conn, zero.adjoint(), geo)
                             - psi)) == 0.0
