"""Reconstruction tests.

Oracles: the ground truth of every closed loop is known by construction;
the abelian linearization column is an independent quadrature of the
scalar transform of each basis field.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ahxray.bundle import (ConnectionField, GaussBump, HiggsFieldData,
                           gauge_transform)
from ahxray.errors import DomainError, FanMismatchError
from ahxray.geometry import AHModel, DiskGeodesic
from ahxray.reconstruct import (HiggsParameterization, ReconstructionConfig,
                                _fan_jacobian, _fan_residual, _tangent_rhs,
                                forward_map, jacobian_fd, reconstruct_higgs)
from ahxray.transport import (TransportConfig, _march, _segments,
                              crossing_transport, transport_rhs)
from ahxray.xray import (FanSpec, add_matrix_noise, compare_datasets,
                         fan_paths)
from test_bundle import SU2, random_gauge


@pytest.fixture(scope="module")
def disk():
    return AHModel()


def su2_basis(count=6, decay_N1=4, seed=5):
    rng = np.random.default_rng(seed)
    basis = []
    centers = [(0.25, 0.0), (-0.2, 0.2), (0.0, -0.3), (-0.25, -0.15),
               (0.15, 0.3), (0.3, -0.25)]
    for k in range(count):
        gen = SU2[k % 3]
        basis.append((gen, GaussBump(center=centers[k % len(centers)],
                                     sigma=0.25 + 0.05 * (k % 3))))
    return HiggsParameterization(rank=2, basis=basis, decay_N1=decay_N1)


def scalar_basis(count=3, decay_N1=4):
    centers = [(0.2, 0.0), (-0.15, 0.2), (0.0, -0.25)]
    basis = [(1j * np.eye(1), GaussBump(center=c, sigma=0.3))
             for c in centers[:count]]
    return HiggsParameterization(rank=1, basis=basis, decay_N1=decay_N1)


def jacobian_tangent(disk, conn, params, fan, c, cfg):
    """The Gauss-Newton Jacobian of ``reconstruct_higgs`` at c: one
    tangent-linear sweep over the fan."""
    geos, _ = fan_paths(disk, fan, cfg.transport)
    return _fan_jacobian(conn, params, geos, cfg.transport)(c)


class TestForwardMap:
    def test_zero_coeffs_give_identities(self, disk):
        params = su2_basis()
        fan = FanSpec.uniform_pairs(12, n_openings=3)
        ds = forward_map(disk, ConnectionField.zero(2), params, fan)
        for r in ds.records:
            assert np.max(np.abs(r.matrix - np.eye(2))) < 1e-9

    def test_nonlinearity(self, disk):
        # path ordering makes the map nonlinear: doubling coefficients does
        # not double the log-deviation exactly in the non-abelian case
        params = su2_basis(count=2)
        fan = FanSpec.uniform_pairs(4, n_openings=2)
        c = np.array([0.9, -1.1])
        d1 = forward_map(disk, ConnectionField.zero(2),
                         params.with_coeffs(c), fan)
        d2 = forward_map(disk, ConnectionField.zero(2),
                         params.with_coeffs(2 * c), fan)
        one = d1.records[0].matrix - np.eye(2)
        two = d2.records[0].matrix - np.eye(2)
        assert np.max(np.abs(two - 2 * one)) > 1e-4

    def test_curved_connection_refused(self, disk, rng):
        from test_bundle import random_connection
        params = su2_basis()
        fan = FanSpec.uniform_pairs(4, n_openings=2)
        with pytest.raises(DomainError):
            forward_map(disk, random_connection(rng), params, fan)

    def test_flat_gauge_connection_accepted(self, disk, rng):
        from ahxray.bundle import HiggsFieldData, gauge_transform
        conn, _ = gauge_transform(ConnectionField.zero(2),
                                  HiggsFieldData.zero(2), random_gauge(rng))
        params = su2_basis()
        fan = FanSpec.uniform_pairs(4, n_openings=2)
        ds = forward_map(disk, conn, params, fan)
        assert len(ds.records) == 4


class TestJacobian:
    def test_abelian_linearization_oracle(self, disk):
        # at c = 0 the scalar residual column k is (0, -I_k) per record
        # with I_k the scalar transform of the k-th basis field
        params = scalar_basis()
        fan = FanSpec.uniform_pairs(8, n_openings=2)
        jac = jacobian_fd(disk, ConnectionField.zero(1), params, fan,
                          np.zeros(params.size))
        geos = [DiskGeodesic.between_boundary_angles(disk, a, b)
                for a, b in fan.pairs]
        geos.sort(key=lambda g: g.boundary_data()[0].key())
        n = len(geos)
        for k in range(params.size):
            higgs_k = params.with_coeffs(np.eye(params.size)[k]).higgs()

            for i, geo in enumerate(geos):
                def integrand(t):
                    return float(higgs_k.phi(
                        geo.position(np.asarray(t))).imag[0, 0])
                i_k, _ = quad(integrand, geo.t_entry, geo.t_exit,
                              limit=200, epsabs=1e-12, epsrel=1e-12)
                # residual stacking: all real parts, then all imaginaries
                assert abs(jac[i, k] - 0.0) < 1e-5
                assert abs(jac[n + i, k] + i_k) < 1e-5

    def test_full_column_rank(self, disk):
        params = su2_basis()
        fan = FanSpec.uniform_pairs(48, n_openings=6)
        jac = jacobian_fd(disk, ConnectionField.zero(2), params, fan,
                          np.zeros(params.size))
        sv = np.linalg.svd(jac, compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0]
        assert np.linalg.matrix_rank(jac, tol=1e-8 * sv[0]) == params.size

    @pytest.mark.parametrize("n_steps", [128, 127])
    @pytest.mark.parametrize("case", ["rank1", "rank2", "flat_gauge"])
    def test_tangent_matches_finite_differences(self, disk, case, n_steps):
        # the sweep's jets (P = 6 for rank 2) march 128 steps as m = 8
        # segments over 24 geodesics; 127 is prime, so m = 1 (the plain
        # sequential march)
        rng = np.random.default_rng(17)
        if case == "rank1":
            params, conn = scalar_basis(), ConnectionField.zero(1)
        else:
            params, conn = su2_basis(), ConnectionField.zero(2)
        if case == "flat_gauge":
            conn, _ = gauge_transform(conn, HiggsFieldData.zero(2),
                                      random_gauge(rng))
        fan = FanSpec.uniform_pairs(24, n_openings=4)
        assert (_segments(n_steps, len(fan), params.size) > 1) \
            == (n_steps == 128)
        cfg = ReconstructionConfig(
            transport=TransportConfig(n_steps=n_steps))
        c = 0.7 * rng.normal(size=params.size)
        tangent = jacobian_tangent(disk, conn, params, fan, c, cfg)
        fd = jacobian_fd(disk, conn, params, fan, c, cfg)
        assert np.max(np.abs(tangent - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_central_differences_converge_at_second_order(self, disk):
        # at 32 steps the tangent of the continuous map is 7e-4 away; the
        # differences of the discrete map close in on this tangent as h^2
        params = su2_basis(count=3)
        conn = ConnectionField.zero(2)
        fan = FanSpec.uniform_pairs(8, n_openings=2)
        cfg = ReconstructionConfig(transport=TransportConfig(n_steps=32))
        c = np.array([0.8, -0.5, 0.3])
        tangent = jacobian_tangent(disk, conn, params, fan, c, cfg)
        residual = _fan_residual(conn, params,
                                 fan_paths(disk, fan)[0],
                                 cfg.transport, 0.0)
        errors = []
        for h in (1e-3, 5e-4):
            fd = np.stack([(residual(c + h * e) - residual(c - h * e))
                           / (2.0 * h) for e in np.eye(params.size)], -1)
            errors.append(np.max(np.abs(fd - tangent)))
        assert 3.8 < errors[0] / errors[1] < 4.2
        assert errors[1] < 1e-9

    def test_jet_carries_the_forward_transport(self, disk):
        # the jet's W slot is the plain march (same segments at P = 2),
        # at the exit and at snapshots (side-steps included); the V slots
        # of a snapshot are the derivatives of the plain snapshot
        params = su2_basis(count=2)
        conn = ConnectionField.zero(2)
        geos, _ = fan_paths(disk, FanSpec.uniform_pairs(8, n_openings=2))
        cfg = TransportConfig(n_steps=64)
        fracs = [0.3, 0.45, 1.0]
        c = np.array([0.6, -0.4])

        def plain(cc):
            return _march(transport_rhs(conn, params.higgs(cc)),
                          geos, 2, cfg, fracs)

        jet, jet_recs = _march(_tangent_rhs(conn, params, c), geos,
                               (2, params.size), cfg, fracs)
        w, recs = plain(c)
        assert jet.shape == (len(geos), 1 + params.size, 2, 2)
        assert np.max(np.abs(jet[:, 0] - w)) <= 1e-15
        h = 1e-6
        for i, (rec, jet_rec) in enumerate(zip(recs, jet_recs)):
            assert np.max(np.abs(jet_rec[3][:, 0] - rec[3])) <= 1e-15
            for k, e in enumerate(np.eye(params.size)):
                fd = (plain(c + h * e)[1][i][3] - plain(c - h * e)[1][i][3]) \
                    / (2.0 * h)
                assert np.max(np.abs(jet_rec[3][:, k + 1] - fd)) < 1e-8

    def test_doubling_fan_keeps_rank(self, disk):
        params = su2_basis()
        big = FanSpec.uniform_pairs(96, n_openings=6)
        jac = jacobian_fd(disk, ConnectionField.zero(2), params, big,
                          np.zeros(params.size))
        assert np.linalg.matrix_rank(jac, tol=1e-10) == params.size


class TestClosedLoop:
    def test_zero_data_recovers_zero(self, disk):
        params = su2_basis()
        fan = FanSpec.uniform_pairs(24, n_openings=4)
        cfg = ReconstructionConfig(tikhonov=1e-8)
        data = forward_map(disk, ConnectionField.zero(2), params, fan, cfg)
        report = reconstruct_higgs(data, disk, ConnectionField.zero(2),
                                   params, fan, cfg)
        assert np.linalg.norm(report.coeffs) < 1e-6

    def test_noiseless_recovery(self, disk):
        params = su2_basis(count=6)
        fan = FanSpec.uniform_pairs(120, n_openings=8)
        cfg = ReconstructionConfig(tikhonov=1e-10)
        rng = np.random.default_rng(11)
        truth = rng.normal(size=6)
        truth /= np.linalg.norm(truth)
        data = forward_map(disk, ConnectionField.zero(2),
                           params.with_coeffs(truth), fan, cfg)
        report = reconstruct_higgs(data, disk, ConnectionField.zero(2),
                                   params, fan, cfg, ground_truth=truth)
        assert report.coeff_error < 0.05
        assert report.iterations <= 30
        assert all(b <= a + 1e-15 for a, b in
                   zip(report.residual_history, report.residual_history[1:]))

    def test_injectivity_probe(self, disk):
        params = su2_basis()
        fan = FanSpec.uniform_pairs(24, n_openings=4)
        rng = np.random.default_rng(3)
        c1 = rng.normal(size=6)
        c2 = rng.normal(size=6)
        delta = (c1 - c2) / np.linalg.norm(c1 - c2)
        c2 = c1 - delta          # now |c1 - c2| = 1
        d1 = forward_map(disk, ConnectionField.zero(2),
                         params.with_coeffs(c1), fan)
        d2 = forward_map(disk, ConnectionField.zero(2),
                         params.with_coeffs(c2), fan)
        assert compare_datasets(d1, d2).max_frobenius > 1e-4

    def test_noise_robustness_reported(self, disk):
        # with sigma noise the misfit at the optimum is near
        # sigma * sqrt(record count * 2 d^2); reported, not asserted tightly
        params = su2_basis(count=4)
        fan = FanSpec.uniform_pairs(40, n_openings=4)
        cfg = ReconstructionConfig(tikhonov=1e-8)
        rng = np.random.default_rng(23)
        truth = 0.7 * rng.normal(size=4)
        clean = forward_map(disk, ConnectionField.zero(2),
                            params.with_coeffs(truth), fan, cfg)
        sigma = 1e-3
        noisy = add_matrix_noise(clean, sigma, seed=99)
        report = reconstruct_higgs(noisy, disk, ConnectionField.zero(2),
                                   params, fan, cfg, ground_truth=truth)
        expected = sigma * math.sqrt(len(clean.records) * 2 * 4)
        assert report.data_misfit > 0.0
        # factor-5 sanity window around the nominal noise floor
        assert expected / 5 < report.data_misfit < 5 * expected


class TestShootingFans:
    """Reconstruction on the perturbed model, which only shooting fans
    reach: the jets cross the bump with the rays."""

    @staticmethod
    def fan_and_paths(perturbed, count, n_steps):
        fan = FanSpec.uniform_shooting(count)
        paths, failures = fan_paths(perturbed, fan,
                                    TransportConfig(n_steps=n_steps))
        crossing = [p.pieces is not None for p in paths]
        assert not failures and any(crossing) and not all(crossing)
        return fan, paths

    def test_jacobian_through_crossings_matches_fd(self, perturbed):
        params = su2_basis(count=3)
        conn = ConnectionField.zero(2)
        fan, paths = self.fan_and_paths(perturbed, 40, 256)
        cfg = ReconstructionConfig(transport=TransportConfig(n_steps=256))
        c = np.array([0.8, -0.5, 0.3])
        tangent = _fan_jacobian(conn, params, paths, cfg.transport)(c)
        fd = jacobian_fd(perturbed, conn, params, fan, c, cfg)
        assert np.max(np.abs(tangent - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_jet_crossing_carries_the_forward_transport(self, perturbed):
        # the W slot is the rank-d crossing bit for bit; with fewer than 16
        # crossings the last pairwise products of rank d go through matmul,
        # and so do the jet's products of W stacks
        params = su2_basis(count=3)
        conn = ConnectionField.zero(2)
        c = np.array([0.8, -0.5, 0.3])
        _, paths = self.fan_and_paths(perturbed, 40, 256)
        crossings = [p.pieces for p in paths if p.pieces is not None]
        assert len(crossings) < 16
        w = crossing_transport(transport_rhs(conn, params.higgs(c)),
                               crossings, 2)
        jet = crossing_transport(_tangent_rhs(conn, params, c), crossings,
                                 (2, params.size))
        assert jet.shape == (len(crossings), 1 + params.size, 2, 2)
        assert np.array_equal(jet[:, 0], w)

    def test_closed_loop_on_perturbed_model(self, perturbed):
        # criterion 11's loop and gate on a shooting fan of the perturbed
        # model
        params = su2_basis(count=6)
        fan, _ = self.fan_and_paths(perturbed, 40, 256)
        cfg = ReconstructionConfig(tikhonov=1e-10,
                                   transport=TransportConfig(n_steps=256))
        rng = np.random.default_rng(11)
        truth = rng.normal(size=6)
        truth /= np.linalg.norm(truth)
        data = forward_map(perturbed, ConnectionField.zero(2),
                           params.with_coeffs(truth), fan, cfg)
        report = reconstruct_higgs(data, perturbed, ConnectionField.zero(2),
                                   params, fan, cfg, ground_truth=truth)
        assert report.coeff_error < 0.05
        assert report.iterations <= 30

    def test_boundary_pairs_on_perturbed_model_refused(self, perturbed):
        with pytest.raises(DomainError, match="boundary-pair fan needs the "
                                              "unperturbed disk"):
            fan_paths(perturbed, FanSpec.uniform_pairs(8, n_openings=2))


class TestValidation:
    def test_dependent_basis_rejected(self):
        gen = SU2[0]
        bump = GaussBump(center=(0.1, 0.1), sigma=0.3)
        with pytest.raises(DomainError):
            HiggsParameterization(rank=2, basis=[(gen, bump), (gen, bump)],
                                  decay_N1=4)

    def test_empty_basis_named(self):
        with pytest.raises(DomainError, match="basis is empty"):
            HiggsParameterization(rank=2, basis=[], decay_N1=4)

    @pytest.mark.parametrize("openings, rho_cut", [(2, 1e-6), (4, 1e-4)])
    def test_dataset_from_another_fan_refused(self, disk, openings, rho_cut):
        params = su2_basis(count=2)
        fan = FanSpec.uniform_pairs(8, n_openings=4)
        cfg = ReconstructionConfig(transport=TransportConfig(n_steps=64))
        other = ReconstructionConfig(
            transport=TransportConfig(n_steps=64, rho_cut=rho_cut))
        data = forward_map(disk, ConnectionField.zero(2), params,
                           FanSpec.uniform_pairs(8, n_openings=openings),
                           other)
        with pytest.raises(FanMismatchError):
            reconstruct_higgs(data, disk, ConnectionField.zero(2), params,
                              fan, cfg)

    def test_fd_step_window(self, disk):
        with pytest.raises(DomainError):
            jacobian_fd(disk, ConnectionField.zero(2), su2_basis(count=2),
                        FanSpec.uniform_pairs(8, n_openings=2), np.zeros(2),
                        h=1e-2)

    def test_negative_tikhonov_rejected(self):
        with pytest.raises(DomainError):
            ReconstructionConfig(tikhonov=-1.0)
