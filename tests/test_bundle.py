"""Bundle data tests.

The independent oracle here is a central-finite-difference evaluation of the
curvature component from symbol samples alone; library code never differences.
"""

import numpy as np
import pytest

import ahxray.bundle as bundle
from ahxray._linalg import (dagger, expm_skew, frobenius, mul, skew_defect,
                            unitary_defect)
from ahxray.bundle import (ConnectionField, GaugeField, GaussBump,
                           HiggsFieldData, SeparableTerm, _generator,
                           _generators, ckt_condition_check,
                           gauge_transform, sup_curvature_norm,
                           validation_points)
from ahxray.config import ExperimentConfig
from ahxray.errors import DomainError, RankMismatchError
from ahxray.transport import transport_rhs
from test_cli import BASE_CONFIG, GAUGE_EXTRA

SU2 = [np.array([[1j, 0], [0, -1j]]),
       np.array([[0, 1], [-1, 0]], dtype=complex),
       np.array([[0, 1j], [1j, 0]])]


def random_skew(rng, rank):
    """Random skew-Hermitian generator: su(2) at rank 2, otherwise
    (A - A^H) / 2 for a complex Gaussian A."""
    if rank == 2:
        return sum(rng.normal() * g for g in SU2)
    a = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    return 0.5 * (a - a.conj().T)


def random_connection(rng, rank=2, decay=3, n_terms=3, scale=0.5):
    terms = []
    for _ in range(n_terms):
        s = random_skew(rng, rank)
        terms.append(SeparableTerm(
            direction=int(rng.integers(0, 2)), generator=scale * s,
            bump=GaussBump(center=tuple(rng.uniform(-0.4, 0.4, 2)),
                           sigma=rng.uniform(0.2, 0.4))))
    return ConnectionField.from_terms(rank, terms, decay)


def random_higgs(rng, rank=2, decay=4, n_terms=3, scale=0.5):
    terms = [(scale * random_skew(rng, rank),
              GaussBump(center=tuple(rng.uniform(-0.4, 0.4, 2)),
                        sigma=rng.uniform(0.2, 0.4)))
             for _ in range(n_terms)]
    return HiggsFieldData.from_terms(rank, terms, decay)


def random_gauge(rng, rank=2, decay_M=4, scale=0.6):
    s = scale * random_skew(rng, rank)
    return GaugeField(rank, [(s, GaussBump(center=(0.1, -0.2), sigma=0.35))],
                      decay_M)


def fd_curvature(conn, x, h=1e-5):
    """Central-difference oracle for f12 from symbol samples only."""
    x = np.asarray(x, dtype=float)
    d_gam = []
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        d_gam.append((conn.symbols(x + e) - conn.symbols(x - e)) / (2 * h))
    gam = conn.symbols(x)
    comm = gam[0] @ gam[1] - gam[1] @ gam[0]
    return d_gam[0][1] - d_gam[1][0] + comm


class TestCurvature:
    def test_trivial_connection_is_flat(self):
        conn = ConnectionField.zero(2)
        assert np.allclose(conn.curvature_f12(np.array([0.3, 0.2])), 0.0)

    def test_pure_gauge_is_flat(self, rng):
        gauge = random_gauge(rng)
        conn, _ = gauge_transform(ConnectionField.zero(2),
                                  HiggsFieldData.zero(2), gauge)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            assert frobenius(fd_curvature(conn, x)) < 1e-8
            assert frobenius(conn.curvature_f12(x)) < 1e-12

    def test_matches_fd_oracle(self, rng):
        conn = random_connection(rng)
        for _ in range(100):
            x = rng.uniform(-0.65, 0.65, 2)
            analytic = conn.curvature_f12(x)
            assert frobenius(analytic - fd_curvature(conn, x)) < 1e-6

    def test_skew_for_unitary_connection(self, rng):
        conn = random_connection(rng)
        pts = validation_points(16)
        assert np.max(skew_defect(conn.curvature_f12(pts))) < 1e-12


class TestGaugeTransform:
    def test_identity_gauge_is_noop(self, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        ident = GaugeField(2, [], 4)
        conn2, higgs2 = gauge_transform(conn, higgs, ident)
        pts = rng.uniform(-0.6, 0.6, (10, 2))
        assert np.allclose(conn2.symbols(pts), conn.symbols(pts), atol=1e-14)
        assert np.allclose(higgs2.phi(pts), higgs.phi(pts), atol=1e-14)

    def test_unitarity_and_skewness_preserved(self, rng):
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        conn2, higgs2 = gauge_transform(conn, higgs, random_gauge(rng))
        pts = rng.uniform(-0.6, 0.6, (50, 2))
        assert np.max(skew_defect(conn2.symbols(pts))) < 1e-12
        assert np.max(skew_defect(higgs2.phi(pts))) < 1e-12

    def test_composition(self, rng):
        # Q1 Q2 Q3 acts as three gauge transforms in turn: a composed
        # gauge composes again, and the transforms leave one composed gauge
        # shared by both fields
        conn = random_connection(rng)
        higgs = random_higgs(rng)
        gauges = [random_gauge(rng)] + [random_gauge(rng, scale=0.3)
                                        for _ in range(2)]
        combined = gauge_transform(conn, higgs, gauges[0].compose(
            gauges[1]).compose(gauges[2]))
        thrice = conn, higgs
        for q in gauges:
            thrice = gauge_transform(*thrice, q)
        assert len(thrice[0]._gauge._factors) == 3
        assert thrice[0]._gauge is thrice[1]._gauge
        pts = rng.uniform(-0.6, 0.6, (20, 2))
        assert np.max(np.abs(thrice[0].symbols(pts)
                             - combined[0].symbols(pts))) < 1e-10
        assert np.max(np.abs(thrice[1].phi(pts)
                             - combined[1].phi(pts))) < 1e-10

    def test_rank_mismatch(self, rng):
        with pytest.raises(RankMismatchError):
            gauge_transform(ConnectionField.zero(2), HiggsFieldData.zero(1),
                            random_gauge(rng))

    def test_decay_preserved(self, rng):
        # Q = exp(rho^(N+1) S) keeps decay-N symbols bounded by C rho^N;
        # construction-time validation of the output enforces exactly this
        conn = random_connection(rng, decay=3)
        conn2, _ = gauge_transform(conn, HiggsFieldData.zero(2),
                                   random_gauge(rng, decay_M=4))
        assert conn2.decay_N == 3

    def test_flatness_norm_gauge_invariant(self, rng):
        conn = random_connection(rng)
        conn2, _ = gauge_transform(conn, HiggsFieldData.zero(2),
                                   random_gauge(rng))
        pts = rng.uniform(-0.6, 0.6, (30, 2))
        n1 = frobenius(conn.curvature_f12(pts))
        n2 = frobenius(conn2.curvature_f12(pts))
        assert np.max(np.abs(n1 - n2)) < 1e-8


class TestGaugedNodeCache:
    """A gauged pair's transport generator conjugates the stacked sum of
    its terms with one eigendecomposition per gauge and node, without
    ``along`` or ``phi``; ``phi`` evaluates Q afresh on every call."""

    @pytest.mark.parametrize("composed, calls", [(False, 1), (True, 2)])
    def test_one_eigendecomposition_per_node(self, rng, monkeypatch,
                                             composed, calls):
        gauge = random_gauge(rng)
        if composed:
            gauge = gauge.compose(random_gauge(rng))
        conn_b, higgs_b = gauge_transform(random_connection(rng),
                                          random_higgs(rng), gauge)
        prep = transport_rhs(conn_b, higgs_b)
        seen = []

        def counted(*args):
            seen.append(args[0].shape)
            return expm_skew(*args)

        def unused(*args):
            raise AssertionError("the gauged generator calls along or phi")

        monkeypatch.setattr(bundle, "expm_skew", counted)
        conn_b.along = higgs_b.phi = unused
        for shape in ((2,), (7, 2), (384, 1, 2)):
            seen.clear()
            prep(rng.uniform(-0.5, 0.5, shape), rng.normal(size=shape))
            assert len(seen) == calls

    @pytest.mark.parametrize("shape", [(2,), (7, 2), (5, 3, 2)])
    def test_phi_is_a_fresh_pairs_phi(self, rng, shape):
        conn, higgs = random_connection(rng), random_higgs(rng)
        gauge = random_gauge(rng)
        conn_b, higgs_b = gauge_transform(conn, higgs, gauge)
        x = rng.uniform(-0.5, 0.5, shape)
        v = rng.normal(size=shape)
        fresh = gauge_transform(conn, higgs, gauge)[1]
        for _ in range(2):
            # x changed in place after along: phi sees the new x
            conn_b.along(x, v)
            x *= 0.9
            assert np.array_equal(higgs_b.phi(x), fresh.phi(x))
            conn_b.along(x, v)
            assert np.array_equal(higgs_b.phi(x), fresh.phi(x))


class TestPairedGenerators:
    """Several pairs at one node set, as gauge recovery forms them: one
    stacked sum per distinct term set, one ``log_derivative`` per
    distinct gauge, and each pair's generator that of ``_generator`` bit
    for bit."""

    @pytest.mark.parametrize("kind, passes", [
        ("twin", [1, 3]), ("other higgs", [1, 3, 3]),
        ("own gauge", [1, 1, 3])])
    @pytest.mark.parametrize("shape", [(2,), (384, 2), (3, 4, 2)])
    def test_pairs_share_equal_terms(self, rng, monkeypatch, kind, passes,
                                     shape):
        # pair B is a second parse of A's text plus [gauge]: equal terms
        # in other objects, one bump pass over their 3 terms for both
        # pairs and one over the gauge's 1.  A B with other Higgs terms
        # takes a second pass over 3 terms, an A with a gauge of its own a
        # second over 1
        text_a, text_b = BASE_CONFIG, BASE_CONFIG + GAUGE_EXTRA
        if kind == "other higgs":
            text_b = text_b.replace("sigma=0.3; coeff=0.5",
                                    "sigma=0.3; coeff=0.6")
        if kind == "own gauge":
            text_a += GAUGE_EXTRA.replace("center=0.1,-0.2",
                                          "center=-0.2,0.1")
        pairs = [ExperimentConfig.from_text(text).build_pair()[1:]
                 for text in (text_a, text_b)]
        assert pairs[0][0]._terms[0] is not pairs[1][0]._terms[0]
        x = rng.uniform(-0.6, 0.6, shape)
        v = rng.normal(size=shape)
        refs = [_generator(*pair)(x, v) for pair in pairs]
        sizes = []
        bumps = bundle._bumps
        monkeypatch.setattr(bundle, "_bumps", lambda x, c, s: (
            sizes.append(len(c)) or bumps(x, c, s)))
        got = _generators(pairs)(x, v)
        assert sorted(sizes) == passes
        for (a, w), (a_ref, w_ref) in zip(got, refs):
            assert a.shape == a_ref.shape and np.array_equal(a, a_ref)
            assert w.shape == w_ref.shape and np.array_equal(w, w_ref)


class TestGaugeField:
    def test_unitary_at_samples(self, rng):
        gauge = random_gauge(rng)
        pts = rng.uniform(-0.7, 0.7, (40, 2))
        assert np.max(unitary_defect(gauge.q(pts))) < 1e-12

    def test_identity_at_boundary_ring(self, rng):
        gauge = random_gauge(rng, decay_M=4)
        ring_rho = 1e-4
        r = np.sqrt(1 - ring_rho)
        ang = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        pts = r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        defect = frobenius(gauge.q(pts) - np.eye(2))
        assert np.max(defect) < 10.0 * ring_rho**4

    def test_dq_matches_fd(self, rng):
        gauge = random_gauge(rng)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            dq = gauge.dq(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (gauge.q(x + e) - gauge.q(x - e)) / (2 * h)
                assert frobenius(dq[i] - fd) < 1e-8

    def test_composition_is_one_left_to_right_product(self, rng):
        # a composed gauge is its factors in order, folded left to right:
        # a left-nested product keeps the bits of the pairwise product
        # rule, and a right-nested one, reassociated, agrees within 1e-14
        g1, g2, g3 = (random_gauge(rng, scale=s) for s in (0.6, 0.4, 0.3))
        left = g1.compose(g2).compose(g3)
        right = g1.compose(g2.compose(g3))
        x = rng.uniform(-0.6, 0.6, (30, 2))
        v = rng.normal(size=(30, 2))

        def product(a, b):
            (q1, l1), (q2, l2) = a, b
            return mul(q1, q2), mul(mul(dagger(q2), l1), q2) + l2

        ref = product(product(g1.log_derivative(x, v),
                              g2.log_derivative(x, v)),
                      g3.log_derivative(x, v))
        assert np.array_equal(left.q(x), mul(mul(g1.q(x), g2.q(x)),
                                             g3.q(x)))
        for got, want in zip(left.log_derivative(x, v), ref):
            assert np.array_equal(got, want)
        for got, want in zip((right.q(x), *right.log_derivative(x, v)),
                             (left.q(x), *ref)):
            assert np.max(np.abs(got - want)) < 1e-14
        assert left.decay_M == right.decay_M == 4

    def test_compose_refuses_other_rank(self, rng):
        with pytest.raises(RankMismatchError):
            random_gauge(rng).compose(random_gauge(rng, rank=3))
        with pytest.raises(RankMismatchError):
            random_gauge(rng).compose(random_gauge(rng)).compose(
                random_gauge(rng, rank=3))


class TestSupNormAndCkt:
    def test_trivial_connection(self, disk):
        pts = validation_points(32)
        assert sup_curvature_norm(ConnectionField.zero(2), pts, disk) == 0.0
        rep = ckt_condition_check(ConnectionField.zero(2), disk, pts)
        assert rep.kappa == pytest.approx(1.0, abs=1e-12)
        assert rep.fnorm == 0.0
        assert rep.satisfied

    def test_pure_gauge_flat(self, disk, rng):
        conn, _ = gauge_transform(ConnectionField.zero(2),
                                  HiggsFieldData.zero(2), random_gauge(rng))
        pts = validation_points(32)
        assert sup_curvature_norm(conn, pts, disk) < 1e-7
        assert ckt_condition_check(conn, disk, pts).satisfied

    def test_scaling_between_linear_and_quadratic(self):
        # the same draws at twice the default scale 0.5: Gamma doubles
        conn = random_connection(np.random.default_rng(20240817))
        doubled = random_connection(np.random.default_rng(20240817),
                                    scale=1.0)
        pts = validation_points(24)
        from ahxray.geometry import AHModel
        disk = AHModel()
        n1 = sup_curvature_norm(conn, pts, disk)
        n2 = sup_curvature_norm(doubled, pts, disk)
        assert 2.0 * n1 * (1 - 1e-9) <= n2 <= 4.0 * n1 * (1 + 1e-9)

    def test_large_curvature_violates(self, disk, rng):
        conn = random_connection(rng, scale=40.0)
        rep = ckt_condition_check(conn, disk)
        assert rep.fnorm > rep.kappa
        assert not rep.satisfied


class TestValidation:
    def test_non_skew_generator_rejected(self):
        with pytest.raises(DomainError):
            SeparableTerm(0, np.array([[1.0, 0], [0, 1.0]]),
                          GaussBump((0, 0), 0.3))

    def test_nan_generator_rejected(self):
        # a NaN defect used to pass the skew check
        with pytest.raises(DomainError, match="not skew-Hermitian"):
            SeparableTerm(0, np.array([[np.nan, 0], [0, 0]]),
                          GaussBump((0, 0), 0.3))

    @pytest.mark.parametrize("center,sigma", [
        ((np.nan, 0.0), 0.3), ((0.0, np.inf), 0.3), ((0.0, 0.0), np.nan),
        ((0.0, 0.0), np.inf), ((0.0, 0.0), 0.0), ((0.0, 0.0), -0.3)])
    def test_degenerate_bump_rejected(self, center, sigma):
        with pytest.raises(DomainError, match="sigma > 0"):
            GaussBump(center, sigma)

    @pytest.mark.parametrize("rank", [0, -2])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(DomainError, match="rank must be >= 1"):
            ConnectionField.zero(rank)
        with pytest.raises(DomainError, match="rank must be >= 1"):
            HiggsFieldData.zero(rank)

    def test_higgs_decay_recorded(self, rng):
        higgs = random_higgs(rng, decay=4)
        pts = validation_points(24)
        rho = 1 - np.sum(pts**2, axis=-1)
        norms = frobenius(higgs.phi(pts))
        ring = rho < 0.02
        assert np.all(norms[ring] <= 1e3 * rho[ring] ** 4)

    def test_validation_grid_is_built_once_and_read_only(self):
        # field construction reads the grid many times, so each call form
        # builds it once, and no caller can change the shared copy
        pts = validation_points()
        assert validation_points() is pts
        assert validation_points(24) is validation_points(24)
        assert np.array_equal(validation_points(48, 0.999), pts)
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0
        with pytest.raises(DomainError, match="no interior point"):
            validation_points(1)
