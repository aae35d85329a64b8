"""Scattering dataset and gauge recovery tests.

Abelian oracle: rank-1 records are phases computed by quadrature along the
closed-form geodesic.  Gauge oracles compare the recovered quotient against
the constructing gauge field, which is known in closed form.
"""

import math

import numpy as np
import pytest

from ahxray._linalg import frobenius, mul, unitary_defect
from ahxray.bundle import (ConnectionField, HiggsFieldData,
                           gauge_transform)
from ahxray.errors import (DatasetError, DomainError, FanMismatchError,
                           IllConditionedGaugeError,
                           InsufficientCrossingsError, RankMismatchError)
from ahxray.geometry import (AHModel, BoundaryDatum, DiskGeodesic,
                             Direction, IntegratorConfig, PhasePoint,
                             integrate_geodesic, shoot_from_boundary)
from ahxray.transport import (TransportConfig, _segments, batch_transport,
                              transport_rhs)
from ahxray.xray import (DegreeZeroReport, FanMode, FanSpec,
                         ScatteringDataset, ScatteringRecord, _gauge_quotient,
                         add_matrix_noise, compare_datasets,
                         compute_scattering_data, fan_paths, gauge_candidate,
                         gauge_degree_zero_check, gauge_field_samples)
from oracles import joint_rk45, rk45_geodesic, rk45_transport
from test_bundle import random_connection, random_gauge, random_higgs
from test_transport import phase_integral, scalar_higgs


@pytest.fixture(scope="module")
def disk():
    return AHModel()


@pytest.fixture(scope="module")
def fan():
    return FanSpec.uniform_pairs(40, n_openings=5)


class TestFanSpec:
    def test_uniform_pairs_count_and_sanity(self):
        fan = FanSpec.uniform_pairs(40, n_openings=5)
        assert len(fan) == 40
        for a, b in fan.pairs:
            assert abs(math.remainder(a - b, 2 * math.pi)) > 1e-3

    def test_uniform_pairs_exact_count(self):
        fan = FanSpec.uniform_pairs(205, n_openings=10)
        assert len(fan) == 205
        assert len(set(fan.pairs)) == 205
        assert len({a for a, _ in fan.pairs}) == 21
        # multiples of the opening count keep their layout
        assert len({a for a, _ in FanSpec.uniform_pairs(200, 10).pairs}) == 20

    def test_uniform_shooting_exact_count(self):
        fan = FanSpec.uniform_shooting(7, n_eta=5)
        assert len(fan) == 7
        assert len({d.key() for d in fan.data}) == 7
        assert len({d.alpha for d in fan.data}) == 2
        # multiples of the eta count keep their layout
        assert len({d.alpha for d in FanSpec.uniform_shooting(10, 5).data}) \
            == 2
        assert len(FanSpec.uniform_shooting(1, 1)) == 1

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DomainError):
            FanSpec(FanMode.BOUNDARY_PAIRS, pairs=((0.5, 0.5),))

    @pytest.mark.parametrize("eta_max", [math.nan, math.inf])
    def test_uniform_shooting_needs_finite_eta_max(self, eta_max):
        with pytest.raises(DomainError, match="eta_max must be finite"):
            FanSpec.uniform_shooting(10, n_eta=5, eta_max=eta_max)

    def test_shooting_requires_incoming(self):
        from ahxray.geometry import BoundaryDatum, Direction
        with pytest.raises(DomainError):
            FanSpec(FanMode.SHOOTING,
                    data=(BoundaryDatum(0.1, 0.0, Direction.OUTGOING),))


class TestComputeScatteringData:
    def test_trivial_pair_gives_identities(self, disk, fan):
        ds = compute_scattering_data(disk, ConnectionField.zero(2),
                                     HiggsFieldData.zero(2), fan)
        assert len(ds.records) == len(fan)
        for r in ds.records:
            assert frobenius(r.matrix - np.eye(2)) < 1e-9

    def test_scalar_records_match_quadrature(self, disk):
        higgs = scalar_higgs()
        conn = ConnectionField.zero(1)
        fan = FanSpec.uniform_pairs(20, n_openings=4)
        ds = compute_scattering_data(disk, conn, higgs, fan)
        ds_by_key = {r.entry.key(): r for r in ds.records}
        for a, b in fan.pairs:
            geo = DiskGeodesic.between_boundary_angles(disk, a, b)
            entry, _ = geo.boundary_data()
            rec = ds_by_key[entry.key()]
            expected = np.exp(-1j * phase_integral(higgs, geo))
            assert abs(rec.matrix[0, 0] - expected) < 1e-8
            assert abs(abs(rec.matrix[0, 0]) - 1.0) < 1e-9

    def test_gauge_pair_same_data(self, disk, fan, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        conn2, higgs2 = gauge_transform(conn, higgs,
                                        random_gauge(rng, decay_M=4))
        ds1 = compute_scattering_data(disk, conn, higgs, fan)
        ds2 = compute_scattering_data(disk, conn2, higgs2, fan)
        report = compare_datasets(ds1, ds2)
        assert report.max_frobenius < 1e-6

    def test_unitarity_of_records(self, disk, fan, rng):
        ds = compute_scattering_data(disk, random_connection(rng),
                                     random_higgs(rng), fan)
        assert max(r.unitarity_defect for r in ds.records) < 1e-7

    def test_shooting_fan_on_perturbed(self, perturbed, rng):
        fan = FanSpec.uniform_shooting(10, n_eta=5, eta_max=1.5)
        ds = compute_scattering_data(perturbed, random_connection(rng),
                                     random_higgs(rng), fan)
        assert len(ds.records) == 10
        assert not ds.failures
        assert max(r.unitarity_defect for r in ds.records) < 1e-7

    @pytest.mark.parametrize("alpha,eta,crosses",
                             [(0.0, -1.5, True), (4.0, -0.3, False)])
    def test_shooting_records_match_joint_oracle(self, perturbed, rng, alpha,
                                                 eta, crosses):
        conn, higgs = random_connection(rng), random_higgs(rng)
        datum = BoundaryDatum(alpha, eta, Direction.INCOMING)
        # the ray the dataset shoots
        fan = FanSpec(FanMode.SHOOTING, data=(datum,))
        [path], _ = fan_paths(perturbed, fan)
        assert (path.pieces is not None) is crosses
        ds = compute_scattering_data(perturbed, conn, higgs, fan)
        ref = joint_rk45(perturbed, transport_rhs(conn, higgs), path,
                         np.eye(2, dtype=complex))
        assert np.max(np.abs(ds.records[0].matrix - ref)) < 1e-7
        assert ds.records[0].exit == path.exit

    def test_fan_crossings_keep_their_step_at_the_default(self, perturbed):
        # a shooting fan crosses the bump at 4 x the transport's 512 steps,
        # bit for bit the crossings shot at 2048 steps
        fan = FanSpec.uniform_shooting(10, n_eta=5, eta_max=1.5)
        paths, _ = fan_paths(perturbed, fan)
        crossing = [p for p in paths if p.pieces is not None]
        assert crossing
        for path in crossing:
            ref = shoot_from_boundary(perturbed, path.entry, 1e-6,
                                      IntegratorConfig(n_steps=2048))
            assert ref.pieces.h == path.pieces.h
            assert np.array_equal(ref.pieces.stages, path.pieces.stages)
            assert ref.exit == path.exit

    def test_boundary_data_computed_once_per_path(self, disk, fan, rng,
                                                  monkeypatch):
        calls = []
        original = DiskGeodesic.boundary_data

        def counted(geo):
            calls.append(geo)
            return original(geo)

        monkeypatch.setattr(DiskGeodesic, "boundary_data", counted)
        ds = compute_scattering_data(disk, random_connection(rng),
                                     random_higgs(rng), fan)
        assert len(calls) == len(ds.records) == len(fan)

    def test_shooting_record_on_disk_is_closed_form(self, disk, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        geo = DiskGeodesic.between_boundary_angles(disk, 0.8, 2.9)
        entry, exit_ = geo.boundary_data()
        ds = compute_scattering_data(disk, conn, higgs,
                                     FanSpec(FanMode.SHOOTING, data=(entry,)))
        rec = ds.records[0]
        path = shoot_from_boundary(disk, entry, 1e-6)
        ref = batch_transport(transport_rhs(conn, higgs), [path.analytic], 2)[0]
        assert np.max(np.abs(rec.matrix - ref)) < 1e-12
        # the chord itself, truncated at rho_cut
        chord = batch_transport(transport_rhs(conn, higgs), [geo], 2)[0]
        assert np.max(np.abs(rec.matrix - chord)) < 1e-9
        assert abs(rec.exit.alpha - exit_.alpha) < 1e-9
        assert abs(rec.exit.eta_tangential - exit_.eta_tangential) < 1e-9

    def test_rank_mismatch_refused(self, disk, rng):
        # used to end in a bare broadcast ValueError inside the march
        with pytest.raises(RankMismatchError, match="connection rank 2 and "
                                                    "Higgs field rank 3"):
            compute_scattering_data(disk, random_connection(rng),
                                    random_higgs(rng, rank=3),
                                    FanSpec.uniform_pairs(4, n_openings=2))

    def test_boundary_pairs_rejected_on_perturbed(self, perturbed, fan, rng):
        with pytest.raises(DomainError):
            compute_scattering_data(perturbed, ConnectionField.zero(2),
                                    HiggsFieldData.zero(2), fan)

    def test_determinism(self, disk, fan, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        a = compute_scattering_data(disk, conn, higgs, fan, fingerprint="f")
        b = compute_scattering_data(disk, conn, higgs, fan, fingerprint="f")
        assert a.to_jsonl() == b.to_jsonl()


class TestCompareDatasets:
    def test_self_distance_zero(self, disk, fan, rng):
        ds = compute_scattering_data(disk, random_connection(rng),
                                     random_higgs(rng), fan)
        assert compare_datasets(ds, ds).max_frobenius == 0.0

    def test_trivial_at_two_rho_cuts(self, disk, fan):
        conn = ConnectionField.zero(2)
        higgs = HiggsFieldData.zero(2)
        a = compute_scattering_data(disk, conn, higgs, fan,
                                    TransportConfig(rho_cut=1e-6))
        b = compute_scattering_data(disk, conn, higgs, fan,
                                    TransportConfig(rho_cut=5e-7))
        assert compare_datasets(a, b).max_frobenius < 1e-9

    def test_distinct_higgs_fields_distinguishable(self, disk, fan, rng):
        conn = ConnectionField.zero(2)
        h1 = random_higgs(rng)
        h2 = random_higgs(rng)
        d1 = compute_scattering_data(disk, conn, h1, fan)
        d2 = compute_scattering_data(disk, conn, h2, fan)
        assert compare_datasets(d1, d2).max_frobenius > 1e-3

    def test_fan_mismatch(self, disk, rng):
        conn = ConnectionField.zero(2)
        higgs = HiggsFieldData.zero(2)
        a = compute_scattering_data(disk, conn, higgs,
                                    FanSpec.uniform_pairs(10, n_openings=2))
        b = compute_scattering_data(disk, conn, higgs,
                                    FanSpec.uniform_pairs(12, n_openings=3))
        with pytest.raises(FanMismatchError):
            compare_datasets(a, b)

    def test_nan_entry_keys_refused(self):
        # a NaN key compares false with every key, so a test for keys that
        # differ by more than the tolerance let it match any fan
        record = ScatteringRecord(
            entry=BoundaryDatum(math.nan, 0.0, Direction.INCOMING),
            exit=BoundaryDatum(1.0, 0.0, Direction.OUTGOING),
            matrix=np.eye(2, dtype=complex), unitarity_defect=0.0)
        ds = ScatteringDataset("", 2, 1e-6, [record])
        with pytest.raises(FanMismatchError, match="entry keys differ"):
            compare_datasets(ds, ds)


class TestSerialization:
    def test_jsonl_round_trip(self, disk, fan, rng):
        ds = compute_scattering_data(disk, random_connection(rng),
                                     random_higgs(rng), fan,
                                     fingerprint="abc123")
        back = ScatteringDataset.from_jsonl(ds.to_jsonl())
        assert back.fingerprint == "abc123"
        assert back.rank == 2
        assert back.rho_cut == ds.rho_cut
        assert len(back.records) == len(ds.records)
        for ra, rb in zip(ds.records, back.records):
            assert frobenius(ra.matrix - rb.matrix) == 0.0
            assert ra.entry.alpha == rb.entry.alpha

    def test_non_finite_matrix_refused(self):
        # NaN passed the singularity check, and JSON reads NaN
        record = ('{"entry_alpha": 0.0, "entry_eta": 0.0, "exit_alpha": 1.0,'
                  ' "exit_eta": 0.0, "matrix": [NaN, 0, 0, 0, 0, 0, 1, 0],'
                  ' "unitarity_defect": 0.0}')
        with pytest.raises(DatasetError, match="non-finite"):
            ScatteringDataset.from_jsonl('{"fingerprint": "", "rank": 2, '
                                         '"rho_cut": 1e-06}\n' + record)

    def test_noise_helper_deterministic(self, disk, fan, rng):
        ds = compute_scattering_data(disk, ConnectionField.zero(2),
                                     HiggsFieldData.zero(2), fan)
        n1 = add_matrix_noise(ds, 1e-3, seed=7)
        n2 = add_matrix_noise(ds, 1e-3, seed=7)
        assert n1.to_jsonl() == n2.to_jsonl()
        assert compare_datasets(ds, n1).max_frobenius > 1e-4


class TestGaugeCandidate:
    def test_identical_pairs_give_identity(self, disk, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        path = DiskGeodesic.between_boundary_angles(disk, 0.4, 3.0).sample()
        curve = gauge_candidate(disk, (conn, higgs), (conn, higgs), path,
                                np.linspace(-3, 3, 13))
        assert np.max(frobenius(curve.q - np.eye(2))) < 1e-9

    def test_recovers_constructing_gauge(self, disk, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        gauge = random_gauge(rng, decay_M=4)
        pair_b = gauge_transform(conn, higgs, gauge)
        path = DiskGeodesic.between_boundary_angles(disk, 1.2, 4.0).sample()
        times = np.linspace(-4, 4, 17)
        curve = gauge_candidate(disk, (conn, higgs), pair_b, path, times)
        expected = gauge.q(curve.x)
        assert np.max(frobenius(curve.q - expected)) < 1e-5

    def test_recovers_constructing_gauge_rank3(self, disk, rng):
        conn = random_connection(rng, rank=3)
        higgs = random_higgs(rng, rank=3)
        gauge = random_gauge(rng, rank=3, decay_M=4)
        pair_b = gauge_transform(conn, higgs, gauge)
        path = DiskGeodesic.between_boundary_angles(disk, 1.2, 4.0).sample()
        curve = gauge_candidate(disk, (conn, higgs), pair_b, path,
                                np.linspace(-4, 4, 17))
        assert np.max(frobenius(curve.q - gauge.q(curve.x))) < 1e-5
        pts = np.array([[-0.3, 0.1], [0.0, 0.0], [0.2, -0.25]])
        thetas = np.linspace(0, 2 * math.pi, 4, endpoint=False)
        q = gauge_field_samples(disk, (conn, higgs), pair_b, pts, thetas)
        expected = gauge.q(pts)[:, None]
        assert np.max(frobenius(q - expected)) < 1e-5

    def test_ill_conditioned_w_b_refused(self):
        w_a = np.eye(2, dtype=complex)[None]
        assert np.array_equal(_gauge_quotient(w_a, 2.0 * w_a), 0.5 * w_a)
        with pytest.raises(IllConditionedGaugeError):
            _gauge_quotient(w_a, np.diag([1.0, 1e-9]).astype(complex)[None])

    def test_recovered_gauge_unitary(self, disk, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        pair_b = gauge_transform(conn, higgs, random_gauge(rng))
        path = DiskGeodesic.between_boundary_angles(disk, 2.0, 5.1).sample()
        curve = gauge_candidate(disk, (conn, higgs), pair_b, path,
                                np.linspace(-3, 3, 9))
        assert np.max(unitary_defect(curve.q)) < 1e-7

    def test_adaptive_branch_matches_batch(self, perturbed, rng):
        # on a piecewise path of the perturbed model, against both pairs'
        # transport along the RK45 oracle geodesic
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        pair_b = gauge_transform(conn, higgs, random_gauge(rng))
        start = PhasePoint.from_angle(perturbed, (-0.4, 0.3), 5.8)
        npath = integrate_geodesic(perturbed, start)
        crossing = npath.pieces
        t_in = crossing.incoming.t_exit + npath.t[0] \
            - crossing.incoming.t_entry
        t_out = t_in + crossing.h * len(crossing.stages)
        # samples on both sides of the crossing, none inside it
        times = np.linspace(-3, 3, 4)
        assert times[2] < t_in < t_out < times[3]
        oracle = rk45_geodesic(perturbed, start)
        c1 = gauge_candidate(perturbed, (conn, higgs), pair_b, npath, times)
        w_a, w_b = (rk45_transport(transport_rhs(*pair), oracle.state,
                                   (oracle.t[0], oracle.t[-1]),
                                   np.eye(2, dtype=complex), t_eval=times)
                    for pair in ((conn, higgs), pair_b))
        assert np.max(frobenius(c1.q - _gauge_quotient(w_a, w_b))) < 1e-6

    def test_one_march_is_two_one_pair_marches(self, disk, perturbed, rng):
        # both pairs march the path taken twice in one batch_transport
        # call: where the doubled width cuts the spans into the segments
        # of one pair's march, Q is the quotient of two one-pair calls bit
        # for bit, and within 1e-14 where it does not
        conn, higgs = random_connection(rng), random_higgs(rng)
        pair_a = (conn, higgs)
        pair_b = gauge_transform(conn, higgs, random_gauge(rng, decay_M=4))
        line = DiskGeodesic.between_boundary_angles(disk, 1.2, 4.0).sample()
        ray = shoot_from_boundary(
            perturbed, BoundaryDatum(0.0, -1.5, Direction.INCOMING), 1e-6)
        t_in = ray.pieces.incoming.t_exit
        t_out = t_in + ray.pieces.h * len(ray.pieces.stages)
        # the ray has two closed-form pieces, so its two copies four
        assert _segments(384, 2) == _segments(384, 1)
        assert _segments(256, 4) == _segments(256, 2)
        assert _segments(1024, 2) != _segments(1024, 1)
        for model, path, times, n, tol in (
                (disk, line, np.linspace(-4, 4, 17), 384, 0.0),
                (perturbed, ray, np.concatenate([
                    np.linspace(ray.t[0], t_in, 5),
                    np.linspace(t_out, ray.t[-1], 5)]), 256, 0.0),
                (disk, line, np.linspace(-4, 4, 17), 1024, 1e-14)):
            cfg = TransportConfig(n_steps=n)
            curve = gauge_candidate(model, pair_a, pair_b, path, times, cfg)
            (t, x, v, w_a), (_, _, _, w_b) = (
                batch_transport(transport_rhs(*pair), [path], 2, cfg,
                                times)[1] for pair in (pair_a, pair_b))
            assert np.array_equal(curve.t, t[0])
            assert np.array_equal(curve.x, x[0])
            assert np.array_equal(curve.v, v[0])
            q = _gauge_quotient(w_a[0], w_b[0])
            assert np.max(np.abs(curve.q - q)) <= tol

        # a fan of 12 geodesics, 24 in the one march, cut otherwise
        pts = np.array([[-0.3, 0.1], [0.0, 0.0], [0.2, -0.25]])
        thetas = np.linspace(0, 2 * math.pi, 4, endpoint=False)
        cfg = TransportConfig()
        assert _segments(cfg.n_steps, 24) != _segments(cfg.n_steps, 12)
        geos = [g.span(g.t_entry, 0.0) for g in (
            DiskGeodesic.through(disk, x, th, cfg.rho_cut)
            for x in pts for th in thetas)]
        w_a, w_b = (batch_transport(transport_rhs(*pair), geos, 2, cfg)
                    for pair in (pair_a, pair_b))
        q = gauge_field_samples(disk, pair_a, pair_b, pts, thetas, cfg)
        assert np.max(np.abs(q - _gauge_quotient(w_a, w_b).reshape(
            q.shape))) < 1e-14

    def test_crossing_interior_refused(self, perturbed, rng):
        conn, higgs = random_connection(rng), random_higgs(rng)
        path = shoot_from_boundary(
            perturbed, BoundaryDatum(0.0, -1.5, Direction.INCOMING), 1e-6)
        t_in = path.pieces.incoming.t_exit
        t_out = t_in + path.pieces.h * len(path.pieces.stages)
        pair = (conn, higgs)
        # the ends of the crossing are states of the closed-form pieces
        curve = gauge_candidate(perturbed, pair, pair, path, [t_in, t_out])
        assert np.max(frobenius(curve.q - np.eye(2))) < 1e-12
        with pytest.raises(DomainError, match="inside the bump crossing"):
            gauge_candidate(perturbed, pair, pair, path,
                            [t_in, 0.5 * (t_in + t_out)])


class TestDegreeZero:
    def _pencil_curves(self, disk, pair_a, pair_b, centers, n_dirs=4):
        # several geodesics through each designated point, sampled on a
        # uniform time grid containing the crossing time 0 exactly
        curves = []
        times = np.linspace(-3.0, 3.0, 161)
        for cx, cy in centers:
            for k in range(n_dirs):
                theta = math.pi * k / n_dirs + 0.05
                geo = DiskGeodesic.through(disk, (cx, cy), theta)
                path = geo.sample()
                curves.append(gauge_candidate(disk, pair_a, pair_b, path,
                                              times))
        return curves

    def test_gauge_pair_degree_zero(self, disk, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        gauge = random_gauge(rng, decay_M=4)
        pair_b = gauge_transform(conn, higgs, gauge)
        centers = [(-0.3, 0.0), (0.0, 0.2), (0.25, -0.15)]
        curves = self._pencil_curves(disk, (conn, higgs), pair_b, centers)
        report = gauge_degree_zero_check(curves, (conn, higgs), pair_b)
        assert report.cells_checked >= len(centers)
        assert report.degree_zero
        assert report.max_theta_variation < 1e-4
        assert report.mode0_residual < 1e-4
        assert report.mode1_residual < 1e-4

    def test_mode1_residual_in_one_evaluation(self, disk, rng):
        # the mode-1 relation is formed over the interior samples of every
        # curve at once, one Gamma(v) evaluation per pair: its residual is
        # the maximum of the per-curve maxima bit for bit, and the report
        # keeps the values of one evaluation per curve
        conn, higgs = random_connection(rng), random_higgs(rng)
        pair_b = gauge_transform(conn, higgs, random_gauge(rng, decay_M=4))
        curves = self._pencil_curves(disk, (conn, higgs), pair_b,
                                     [(-0.3, 0.0), (0.0, 0.2), (0.25, -0.15)])
        calls = []
        along = ConnectionField.along
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ConnectionField, "along",
                          lambda *a: calls.append(1) or along(*a))
            report = gauge_degree_zero_check(curves, (conn, higgs), pair_b)
        assert len(calls) == 2
        per_curve = []
        for curve in curves:
            h = curve.t[1] - curve.t[0]
            dq = (curve.q[:-4] - 8 * curve.q[1:-3] + 8 * curve.q[3:-1]
                  - curve.q[4:]) / (12.0 * h)
            x, v, q = curve.x[2:-2], curve.v[2:-2], curve.q[2:-2]
            gam = conn.along(x, v)
            a_dir = pair_b[0].along(x, v) - gam
            res = dq + mul(gam, q) - mul(q, gam) - mul(q, a_dir)
            per_curve.append(float(np.max(frobenius(res))))
        assert report.mode1_residual == max(per_curve)
        # the worst curve first and last: every curve enters the residual
        k = int(np.argmax(per_curve))
        rest = curves[:k] + curves[k + 1:]
        for order in ([curves[k]] + rest, rest + [curves[k]]):
            assert gauge_degree_zero_check(
                order, (conn, higgs), pair_b).mode1_residual == max(per_curve)
        assert report == DegreeZeroReport(
            degree_zero=True, max_theta_variation=2.20068121682898e-10,
            mode0_residual=3.2410548931356677e-11,
            mode1_residual=1.8304861815613803e-05, cells_checked=3)

    def test_identical_pairs_zero_variation(self, disk, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        curves = self._pencil_curves(disk, (conn, higgs), (conn, higgs),
                                     [(0.1, 0.1)])
        report = gauge_degree_zero_check(curves, (conn, higgs),
                                         (conn, higgs))
        assert report.max_theta_variation < 1e-8

    def test_insufficient_crossings(self, disk, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        path = DiskGeodesic.between_boundary_angles(disk, 0.3, 2.1).sample()
        curve = gauge_candidate(disk, (conn, higgs), (conn, higgs), path,
                                np.linspace(-2, 2, 9))
        with pytest.raises(InsufficientCrossingsError):
            gauge_degree_zero_check([curve], (conn, higgs), (conn, higgs))


class TestDegreeBoundRealization:
    def test_gauge_field_has_fiber_degree_zero(self, disk, rng):
        # the recovered gauge solves a transport equation whose right-hand
        # side has fiber degree <= 1; with the curvature-smallness condition
        # in force its solution has degree zero, realized here by sampling
        # Q over a phase-space grid and checking the fiber spectrum
        conn = random_connection(rng, scale=0.3)
        higgs = random_higgs(rng, scale=0.3)
        gauge = random_gauge(rng, decay_M=4, scale=0.5)
        pair_b = gauge_transform(conn, higgs, gauge)
        from ahxray.bundle import ckt_condition_check
        assert ckt_condition_check(conn, disk).satisfied

        pts = np.array([[x, y] for x in (-0.3, 0.0, 0.3)
                        for y in (-0.25, 0.1, 0.35)])
        thetas = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        q = gauge_field_samples(disk, (conn, higgs), pair_b, pts, thetas)
        w = q - np.eye(2)
        spec = np.fft.fft(w, axis=1)
        energy = np.sum(np.abs(spec) ** 2, axis=(-2, -1))
        zero_mode = energy[:, 0]
        higher = np.sum(energy[:, 1:], axis=1)
        assert np.all(higher < 1e-10 * np.maximum(zero_mode, 1e-30))
        # and the zero mode is the constructing gauge
        expected = gauge.q(pts) - np.eye(2)
        mean_w = np.mean(w, axis=1)
        assert np.max(np.abs(mean_w - expected)) < 1e-6
