"""Property tests over generated inputs (Hypothesis).

- ``transport._segments(n, width)`` returns the largest divisor m of n
  whose m * width rows fit ``_ROWS``, and 1 when no divisor fits;
- ``FanSpec.uniform_pairs`` and ``FanSpec.uniform_shooting`` return
  exactly ``count`` items for any positive count and per-angle size;
- ``_linalg.mul`` is ``@`` up to rounding for ranks 1-4 and broadcasting
  leading shapes, single matrices included;
- ``_linalg.expm_skew`` agrees with ``scipy.linalg.expm`` and
  ``expm_frechet`` one matrix at a time, for ranks 1-4, stacks of shapes
  (), (7,) and (5, 3) and directions E with extra leading axes: Q within
  1e-13, exp(-P) L(P, E) within 1e-12, and Q unitary within 1e-14;
- ``_linalg.mul_first`` on the matrix-first forms of two stacks equals
  bit for bit ``mul`` on the stacks, for ranks 1-4,
  broadcasting stack shapes and the jet's (d, d, 1, ...) x
  (d, d, P + 1, ...) product;
- a jet's W slot is the rank-d transport bit for bit, at the exit and at
  snapshots, for ranks 1-3, orders P 1-6, 1-6 closed-form geodesics with
  or without a shot ray that crosses the bump, and step counts down to
  small primes;
- a snapshot at the exit time is the exit value bit for bit, for ranks
  1-3 and jets of order 0-3, on 1-5 closed-form geodesics with or without
  a shot ray that crosses the bump;
- ``transport._prefix_products``, the log-depth scan, gives the
  inclusive ordered products s_i ... s_0 of a sequential left fold within
  1e-13, for matrix-first stacks of 1-600 unitary states (powers of two
  and primes among them), 1-5 geodesics, ranks 1-3 and jets of order 0-3;
  and
  ``crossing_transport`` on crossings of 1, 2, 42 and 43 steps, padded
  to the longest, gives each crossing the ordered product of its own step
  propagators;
- ``batch_transport`` exit matrices of random skew fields of rank 2 and
  3, up to twice criterion 4's field size, are unitary within criterion
  4's tolerance;
- every separable field (connection symbols, their contraction with a
  velocity and their partials, Higgs fields, gauges and their partials,
  the reconstruction basis) equals the sum of its terms taken one at a
  time, for ranks 1-3, 0-4 terms and decay 0-4; no terms is the zero
  field, and the identity gauge;
- the per-node evaluators the transport march and the bump crossing call
  (separable weights and their partials, Gamma(v), Phi, a gauge's
  ``log_derivative``, the fan state ``_BatchPaths.state``, rho, the
  geodesic flow and the conformal bump's q) equal bit for bit their
  reduction forms in ``oracles``, for ranks 1-3 and points of shapes
  (n, 2), (m, w, 2) and (f, m, w, 2); a gauge's ``log_derivative`` is
  ``expm_skew`` of its reduction-form exponents bit for bit, and the
  scipy oracle's within 1e-12;
- every separable field (Gamma(v), Phi, a gauge's q and ``log_derivative``)
  at a lone point x of shape (2,) equals bit for bit its value at x[None],
  for ranks 1-3, 1-4 terms and decay 0-4;
- every separable evaluator, which holds its weights terms-first
  (weights and their partials, Gamma(v), the symbols, f_12, Phi of
  ``from_terms`` fields and of reconstruction iterates, a gauge's q and
  ``log_derivative``, also at the broadcast velocities of ``symbols`` and
  ``dq``) equals bit for bit its terms-last form in ``oracles``
  (``last_*``), for ranks 1-3, 0-4 terms, decay 0-4, a lone point and
  stacks of one to three axes; ``symbols_and_curvature`` equals
  ``symbols`` and ``curvature_f12`` bit for bit, with and without a gauge;
- ``transport_rhs`` of a pair without gauges, one stacked sum over all
  their terms, equals the generator formed from ``along`` and ``phi``
  (``oracles.ref_generic_rhs``) within 1e-15 (1 + |Gamma| + |Phi|) per
  node, for ranks 1-3, 0-4 terms per field in mixed directions, decays
  1-4, ``from_terms`` Higgs fields and reconstruction iterates, a lone
  point, (n,) and (m, w) stacks and the velocities of ``symbols``; it
  still refuses a rank mismatch and a decay below 1; a gauged field
  paired with a field of another gauge (or none) sums each field's terms
  in a block of its own, and its transport is that of
  ``ref_generic_rhs`` bit for bit;
- ``adjoint()`` of a field is the same terms with negated coefficients
  under the same gauge: Phi* = -Phi bit for bit, the pair keeps its one
  stacked sum, and its transport is within 1e-15 (1 + |Gamma| + |Phi|)
  per node of ``ref_generic_rhs``, for ``from_terms`` fields,
  reconstruction iterates and gauged fields, ranks 1-3, a lone point and
  stacks;
- ``transport_rhs`` of two fields gauged by one Q, Q* G Q - Q^-1 dQ(v)
  over the stacked sum G of their terms, equals ``ref_generic_rhs``
  within 1e-15 (1 + |Gamma| + |Phi|) per node, for a gauge, a composed
  gauge, a gauge of a gauged pair (one composed gauge for both fields),
  a Higgs field gauged apart from its connection, a gauge of an adjoint
  pair, and the fields of two pairs gauged by one Q, ranks 1-3, a lone
  point and stacks;
- several pairs at one node set (``bundle._generators``: copies of a
  pair with equal terms in other objects, gauge transforms by shared and
  by distinct gauges, Higgs fields gauged apart, which share the
  connection's block, a gauge of the zero connection and an adjoint)
  give each pair's generator and Higgs weights of ``_generator`` bit for
  bit, for ranks 1-3, a lone point and stacks;
- a gauge of the zero connection beside an ungauged Higgs field (with
  terms, a reconstruction iterate, or zero) skips its connection block,
  which has no terms: the generator is -Q^-1 dQ(v) plus the Higgs block,
  formed with no ``mul_first``, and equals the sum with Q* 0 Q bit for
  bit (+-0 aside), for ranks 1-3, a lone point and stacks;
- ``AHModel._flow_at``, the one-point geodesic flow of the bump crossing,
  is (v, ``AHModel.geodesic_rhs``) bit for bit, for random admissible
  bumps and points inside, on and outside the bump's ball;
- scattering data of random pairs and of their gauge transforms by random
  gauges agree within criterion 5's 1e-6 on a 12-geodesic fan;
- a gauge-transformed connection's Gamma(v) equals
  v^i (Q* Gamma_i Q + Q^-1 d_i Q) formed from ``q`` and ``dq``, for a
  gauge and for a composed gauge of ranks 1-3, and a composed gauge's
  ``log_derivative`` gives the connection of the two transforms in turn;
- every reconstruction iterate ``higgs(c)``, which is built without the
  construction-time field checks (``bundle._check_field``), passes them:
  skew-Hermitian and decaying like rho^(N+1);
- every sphere-bundle operator and functional on a section held as a band
  of fiber modes equals the same on the full-axis section with the same
  theta samples, for random bands at even and odd n_theta, bands that
  reach the ends of the frequency axis (where the mode shift wraps) and
  the full band;
- the Pestov residual of a random rank-2 connection (scale 0.3) and a
  section of mode +-1..3 falls at least 12 times (the 4th-order
  stencils' 16) when nx doubles from 24 to 48 at n_theta 32;
- the ball-entry quadratic of a closed-form disk geodesic: its roots lie
  on the circle |x - c| = r, and a geodesic it reports as missing the
  ball never comes within r on a fine sample, for random geodesics and
  balls inside {rho >= epsilon0}.
- a scattering dataset of rank 1-3 with 0-6 records, any finite keys and
  nonsingular matrices (signed zeros included) comes back bit for bit
  from its JSONL text, and a non-finite key, rho_cut or defect there is
  refused;
- an experiment config over random valid ``[transport]``, ``[fan]`` and
  ``[grid]`` values and connection terms keeps its canonical text and
  fingerprint when read back from that text, and builds the same
  objects.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

import ahxray.spherebundle as sb
from ahxray._linalg import (dagger, expm_skew, frobenius, matrix_first,
                            mul, mul_first, unitary_defect)
import ahxray.bundle as bundle
from ahxray.bundle import (ConnectionField, GaugeField, GaussBump,
                           HiggsFieldData, SeparableTerm,
                           _check_field, _generator, _generators,
                           _Separable,
                           _stacked_generator, gauge_transform,
                           validation_points)
from ahxray.config import ExperimentConfig
from ahxray.errors import DatasetError, DomainError, RankMismatchError
from ahxray.geometry import (AHModel, BoundaryDatum, ConformalBump,
                             Direction, DiskGeodesic, ModelKind)
from ahxray.reconstruct import HiggsParameterization, _tangent_rhs
from ahxray.transport import (_ROWS, TransportConfig, _BatchPaths,
                              _identity, _matrix_last, _prefix_products,
                              _segments, batch_transport, crossing_transport,
                              transport_rhs)
from ahxray.xray import (FanSpec, ScatteringDataset, ScatteringRecord,
                         compare_datasets, compute_scattering_data,
                         fan_paths)
from oracles import (last_along, last_curvature, last_log_derivative,
                     last_phi, last_weights, last_weights_and_grads,
                     ref_along, ref_batch_state, ref_bump_q, ref_combine,
                     ref_expm_skew, ref_gauge_exponents, ref_generic_rhs,
                     ref_geodesic_rhs, ref_log_derivative, ref_rho,
                     ref_weights, ref_weights_and_grads)
from test_bundle import (random_connection, random_gauge, random_higgs,
                         random_skew)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5000), width=st.integers(1, 2 * _ROWS))
def test_segments_is_largest_fitting_divisor(n, width):
    m = _segments(n, width)
    assert n % m == 0
    if m > 1:
        assert m * width <= _ROWS
    assert all(k * width > _ROWS for k in range(m + 1, n + 1) if n % k == 0)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 300), k=st.integers(1, 40))
def test_uniform_fans_have_exact_count(count, k):
    assert len(FanSpec.uniform_pairs(count, k)) == count
    assert len(FanSpec.uniform_shooting(count, k)) == count


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=200, deadline=None)
@given(rank=st.integers(1, 4),
       lead=st.lists(st.integers(1, 5), max_size=3),
       mask_a=st.lists(st.booleans(), min_size=3, max_size=3),
       mask_b=st.lists(st.booleans(), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(rank=3, lead=[], mask_a=[True] * 3, mask_b=[True] * 3, seed=0)
def test_mul_is_matmul(rank, lead, mask_a, mask_b, seed):
    # each operand keeps or collapses to 1 every leading axis, so the
    # pair broadcasts against each other; an empty lead is a lone matrix
    rng = np.random.default_rng(seed)
    a = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_a)) + (rank, rank))
    b = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_b)) + (rank, rank))
    out, ref = mul(a, b), a @ b
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=100, deadline=None)
@given(rank=st.integers(1, 4), stack=st.sampled_from([(), (7,), (5, 3)]),
       extra=st.lists(st.integers(1, 3), max_size=2),
       scale=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_expm_skew_is_scipy_expm(rank, stack, extra, scale, seed):
    # E carries extra leading axes in front of P's stack, as in
    # GaugeField.dq
    rng = np.random.default_rng(seed)
    a = _complex(rng, stack + (rank, rank))
    p = 0.5 * scale * (a - dagger(a))
    e = _complex(rng, tuple(extra) + stack + (rank, rank))
    e = 0.5 * (e - dagger(e))
    q, log_dq = expm_skew(p, e)
    q_ref, log_dq_ref = ref_expm_skew(p, e)
    assert q.shape == p.shape and log_dq.shape == e.shape
    assert np.max(np.abs(q - q_ref), initial=0.0) <= 1e-13
    assert np.max(np.abs(log_dq - log_dq_ref), initial=0.0) <= 1e-12
    assert np.max(unitary_defect(q), initial=0.0) < 1e-14
    assert np.array_equal(expm_skew(p), q)


@settings(max_examples=200, deadline=None)
@given(rank=st.integers(1, 4),
       lead=st.lists(st.integers(1, 5), max_size=3),
       mask_a=st.lists(st.booleans(), min_size=3, max_size=3),
       mask_b=st.lists(st.booleans(), min_size=3, max_size=3),
       order=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_mul_first_is_the_unrolled_mul(rank, lead, mask_a, mask_b, order,
                                       seed):
    # order > 0 puts the jet's axes (1 against P + 1) next to the matrices
    rng = np.random.default_rng(seed)
    jet_a, jet_b = ((1,), (order + 1,)) if order else ((), ())
    a = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_a)) + jet_a + (rank, rank))
    b = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_b)) + jet_b + (rank, rank))
    out = mul_first(matrix_first(a), matrix_first(b))
    _same(np.moveaxis(out, (0, 1), (-2, -1)), mul(a, b))


_SHOT_RAY = {}


def _shot_ray(model):
    """A shooting ray of ``model`` that crosses its bump, shot once."""
    if model not in _SHOT_RAY:
        paths, _ = fan_paths(model, FanSpec.uniform_shooting(2))
        _SHOT_RAY[model] = next(p for p in paths if p.pieces is not None)
    return _SHOT_RAY[model]


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3), order=st.integers(1, 6),
       width=st.integers(1, 6), crossing=st.booleans(),
       n_steps=st.sampled_from([1, 2, 3, 5, 7, 11, 13, 16, 24, 31]),
       seed=st.integers(0, 2**32 - 1))
def test_jet_w_slot_is_the_rank_d_transport(perturbed, rank, order, width,
                                            crossing, n_steps, seed):
    rng = np.random.default_rng(seed)
    # the jet's rows count against the segment budget; the W slot can only
    # repeat the rank-d march where both cut the spans alike
    assume(_segments(n_steps, width + 2 * crossing)
           == _segments(n_steps, width + 2 * crossing, order))
    conn = random_connection(rng, rank)
    centers = [(0.25, 0.0), (-0.2, 0.2), (0.0, -0.3), (-0.25, -0.15),
               (0.15, 0.3), (0.3, -0.25)]
    params = HiggsParameterization(
        rank=rank, decay_N1=4,
        basis=[(random_skew(rng, rank), GaussBump(center=c, sigma=0.3))
               for c in centers[:order]])
    c = rng.normal(size=order)
    paths = [DiskGeodesic.between_boundary_angles(AHModel(), a, a + op)
             for a, op in zip(rng.uniform(0, 2 * np.pi, width),
                              rng.uniform(0.5, 5.5, width))]
    if crossing:
        # snapshots on the ray's incoming and outgoing pieces, which clip
        # to the disk geodesics' spans
        ray = _shot_ray(perturbed)
        spans = [g.t_exit - g.t_entry for g in (ray.pieces.incoming,
                                                ray.pieces.outgoing)]
        times = np.concatenate([ray.t[0] + rng.uniform(0, 1, 2) * spans[0],
                                ray.t[-1] - rng.uniform(0, 0.9, 2) * spans[1]])
        paths.append(ray)
    else:
        times = rng.uniform(-4.0, 4.0, 4)
    times = np.sort(times)
    cfg = TransportConfig(n_steps=n_steps)
    w, (_, _, _, snaps) = batch_transport(
        transport_rhs(conn, params.higgs(c)), paths, rank, cfg, times)
    jet, (_, _, _, jet_snaps) = batch_transport(
        _tangent_rhs(conn, params, c), paths, (rank, order), cfg, times)
    _same(jet[:, 0], w)
    _same(jet_snaps[:, :, 0], snaps)


@settings(max_examples=30, deadline=None)
@given(rank=st.integers(1, 3), order=st.integers(0, 3),
       width=st.integers(1, 5), crossing=st.booleans(),
       n_steps=st.sampled_from([1, 7, 16, 64, 512]),
       seed=st.integers(0, 2**32 - 1))
def test_exit_time_snapshot_is_the_exit(perturbed, rank, order, width,
                                        crossing, n_steps, seed):
    # the snapshot at the last time is composed as the exit is, W_out
    # (W_ball W_in) on a crossing ray, and its side-step is exactly I
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank)
    paths = [DiskGeodesic.between_boundary_angles(AHModel(), a, a + op)
             for a, op in zip(rng.uniform(0, 2 * np.pi, width),
                              rng.uniform(0.5, 5.5, width))]
    if crossing:
        paths.append(_shot_ray(perturbed))
    if order:
        centers = [(0.25, 0.0), (-0.2, 0.2), (0.0, -0.3)]
        params = HiggsParameterization(
            rank=rank, decay_N1=4,
            basis=[(random_skew(rng, rank), GaussBump(center=c, sigma=0.3))
                   for c in centers[:order]])
        prep = _tangent_rhs(conn, params, rng.normal(size=order))
        state = (rank, order)
    else:
        prep, state = transport_rhs(conn, random_higgs(rng, rank)), rank
    ends = [(p.t_entry, p.t_exit) if isinstance(p, DiskGeodesic)
            else (p.t[0], p.t[-1]) for p in paths]
    times = [min(e[0] for e in ends), max(e[1] for e in ends)]
    w_exit, (_, _, _, snaps) = batch_transport(
        prep, paths, state, TransportConfig(n_steps=n_steps), times)
    _same(snaps[:, -1], w_exit)


def _fold(stack, jet):
    """The inclusive ordered products s_i ... s_0 of a stack of rank-d
    states (..., d, d) or jets (..., P + 1, d, d) on axis 0, by a
    sequential left fold with ``@`` and the jet's cocycle law written
    out."""
    out = [stack[0]]
    for s in stack[1:]:
        prev = out[-1]
        if jet:
            w = s[..., :1, :, :] @ prev[..., :1, :, :]
            v = s[..., 1:, :, :] @ prev[..., :1, :, :] \
                + s[..., :1, :, :] @ prev[..., 1:, :, :]
            out.append(np.concatenate([w, v], axis=-3))
        else:
            out.append(s @ prev)
    return np.array(out)


_PRIMES = [2, 3, 5, 7, 11, 13, 31, 61, 127, 251, 383, 509, 599]


@settings(max_examples=60, deadline=None)
@given(m=st.one_of(st.integers(1, 600),
                   st.sampled_from([2**k for k in range(10)]),
                   st.sampled_from(_PRIMES)),
       rank=st.integers(1, 3), order=st.integers(0, 3),
       width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_prefix_scan_is_the_ordered_product(m, rank, order, width, seed):
    # unitary W, as propagators are, and small V, so the products stay of
    # order one over 600 factors and the bound is an absolute one
    rng = np.random.default_rng(seed)
    _, product = _identity((rank, order) if order else rank)
    p = _complex(rng, (m, width, rank, rank))
    w = expm(0.5 * (p - np.conj(np.swapaxes(p, -1, -2))))
    if order:
        v = 1e-3 * _complex(rng, (m, width, order, rank, rank))
        stack = np.concatenate([w[:, :, None], v], axis=2)
    else:
        stack = w
    # matrix-first: (d, d[, P + 1]) in front of the (m, width) stack axes
    state = 2 + (order > 0)
    first = np.moveaxis(stack, (-2, -1, -3)[:state], range(state))
    out = _prefix_products(first, product, state)
    assert out.shape == first.shape
    assert np.max(np.abs(_matrix_last(out, state)
                         - _fold(stack, order > 0))) <= 1e-13


@pytest.mark.parametrize("order", [0, 2])
def test_crossings_of_unequal_lengths_are_ordered_products(perturbed, order):
    # the identity padding to the longest crossing leaves each crossing
    # the ordered product of its own step propagators
    rng = np.random.default_rng(5)
    ray = _shot_ray(perturbed).pieces
    rank = 2
    if order:
        params = HiggsParameterization(
            rank=rank, decay_N1=4,
            basis=[(random_skew(rng, rank), GaussBump(center=c, sigma=0.3))
                   for c in ((0.25, 0.0), (-0.2, 0.2))])
        prep = _tangent_rhs(random_connection(rng), params,
                            rng.normal(size=order))
        state = (rank, order)
    else:
        prep = transport_rhs(random_connection(rng), random_higgs(rng))
        state = rank
    counts = [1, 2, 42, 43]
    assert len(ray.stages) >= max(counts)
    crossings = [replace(ray, stages=ray.stages[-n:]) for n in counts]
    # matrix-first states, moved to the (..., d, d) layout of the fold
    ndim = 2 + (order > 0)
    out = _matrix_last(crossing_transport(prep, crossings, state), ndim)
    for crossing, w in zip(crossings, out):
        steps = _matrix_last(crossing_transport(prep, [
            replace(crossing, stages=step[None]) for step in crossing.stages],
            state), ndim)
        assert np.max(np.abs(w - _fold(steps, order > 0)[-1])) <= 1e-13


@settings(max_examples=12, deadline=None)
@given(rank=st.sampled_from([2, 3]), scale=st.floats(0.1, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_batch_scattering_is_unitary(rank, scale, seed):
    # three-term fields up to twice criterion 4's size (scale 0.5) at the
    # default 512 RK4 steps in z
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank, scale=scale)
    higgs = random_higgs(rng, rank, scale=scale)
    geos, _ = fan_paths(AHModel(), FanSpec.uniform_pairs(12, 3))
    exits = batch_transport(transport_rhs(conn, higgs), geos, rank)
    assert float(np.max(unitary_defect(exits))) < 1e-7


def test_strong_rank_3_fields_stay_within_criterion_4():
    # rank 3 at scale 1.0: 1.17e-7 on the uniform t grid at 2048 steps,
    # about 5e-9 on the z grid at the default 512
    rng = np.random.default_rng(3)
    conn = random_connection(rng, 3, scale=1.0)
    higgs = random_higgs(rng, 3, scale=1.0)
    geos, _ = fan_paths(AHModel(), FanSpec.uniform_pairs(12, 3))
    exits = batch_transport(transport_rhs(conn, higgs), geos, 3)
    assert float(np.max(unitary_defect(exits))) < 1e-7


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scattering_data_are_gauge_covariant(seed):
    # criterion 5 over random pairs and gauges, at the default 512 steps
    rng = np.random.default_rng(seed)
    conn, higgs = random_connection(rng), random_higgs(rng)
    gauge = random_gauge(rng)
    fan, disk = FanSpec.uniform_pairs(12, 3), AHModel()
    data = compute_scattering_data(disk, conn, higgs, fan)
    moved = compute_scattering_data(
        disk, *gauge_transform(conn, higgs, gauge), fan)
    assert compare_datasets(data, moved).max_frobenius < 1e-6


def _same(out, ref):
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 3),
       lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       dirs=st.lists(st.integers(0, 1), min_size=1, max_size=4),
       decay=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_per_node_evaluators_equal_their_reductions(perturbed, rank, lead,
                                                    dirs, decay, seed):
    # the componentwise evaluators on the transport and crossing paths
    # against their np.sum / np.stack forms, at points of shape lead + (2,)
    rng = np.random.default_rng(seed)
    lead = tuple(lead)
    terms = [(random_skew(rng, rank),
              GaussBump(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                        sigma=rng.uniform(0.2, 0.5))) for _ in dirs]
    r = 0.95 * np.sqrt(rng.uniform(size=lead))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=lead)
    x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    v = rng.normal(size=lead + (2,))

    field = _Separable(rank, terms, decay)
    # the library's terms-first weights against terms-last reductions
    w, dw = field.weights_and_grads(x)
    _same(np.moveaxis(field.weights(x), 0, -1), ref_weights(field, x))
    w_ref, dw_ref = ref_weights_and_grads(field, x)
    _same(np.moveaxis(w, 0, -1), w_ref)
    _same(np.moveaxis(dw, (0, 1), (-2, -1)), dw_ref)
    conn = ConnectionField.from_terms(
        rank, [SeparableTerm(i, g, b) for i, (g, b) in zip(dirs, terms)],
        decay)
    _same(conn.along(x, v), ref_along(field, np.array(dirs), x, v))
    higgs = HiggsFieldData.from_terms(rank, terms, decay)
    _same(higgs.phi(x), ref_combine(field, ref_weights(field, x)))
    gauge = GaugeField(rank, terms, max(decay, 1))
    got = gauge.log_derivative(x, v)
    for out, ref in zip(got, expm_skew(*ref_gauge_exponents(gauge, x, v))):
        _same(out, ref)
    for out, ref in zip(got, ref_log_derivative(gauge, x, v)):
        assert np.max(np.abs(out - ref)) <= 1e-12

    # points inside, across and outside the perturbed model's bump
    for model in (AHModel(), perturbed):
        _same(model.rho(x), ref_rho(x))
        _same(model.geodesic_rhs(x, v), ref_geodesic_rhs(model, x, v))
    _same(perturbed.bump._q(x), ref_bump_q(perturbed.bump, x))

    # the fan state: geodesics on the axis before the last, fractions on
    # the axes in front of it
    geos = [DiskGeodesic(AHModel(), complex(*rng.uniform(-0.6, 0.6, 2)),
                         complex(*rng.normal(size=2)), 1e-6)
            for _ in range(lead[-1])]
    batch = _BatchPaths(geos, int(rng.integers(1, 4096)))
    frac = rng.uniform(size=lead[:-1])[..., None]
    for out, ref in zip(batch.state(frac), ref_batch_state(batch, frac)):
        _same(out, ref)


def _term_sum(terms, rank, decay, x):
    """rho^N sum_k beta_k S_k at points x, one term at a time."""
    rho_n = (1.0 - np.sum(x * x, axis=-1)) ** decay
    out = np.zeros(x.shape[:-1] + (rank, rank), dtype=complex)
    for gen, bump in terms:
        out += (rho_n * bump(x))[..., None, None] * gen
    return out


def _central(f, x, h=1e-5):
    """Central differences d_j f, stacked on the axis after x's leading
    axes."""
    return np.stack([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                     for e in np.eye(2)], axis=x.ndim - 1)


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3),
       dirs=st.lists(st.integers(0, 1), min_size=1, max_size=4),
       decay=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_lone_points_equal_batches_of_one(rank, dirs, decay, seed):
    # a NumPy scalar's power rounds otherwise than an array's in about 1
    # of 20 points, so a lone point's rho is raised as an array
    rng = np.random.default_rng(seed)
    terms = [(random_skew(rng, rank),
              GaussBump(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                        sigma=rng.uniform(0.2, 0.5))) for _ in dirs]
    conn = ConnectionField.from_terms(
        rank, [SeparableTerm(i, g, b) for i, (g, b) in zip(dirs, terms)],
        decay)
    higgs = HiggsFieldData.from_terms(rank, terms, decay)
    gauge = GaugeField(rank, terms, max(decay, 1))
    r = 0.95 * np.sqrt(rng.uniform(size=16))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=16)
    points = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    for x, v in zip(points, rng.normal(size=(16, 2))):
        _same(conn.along(x, v), conn.along(x[None], v[None])[0])
        _same(higgs.phi(x), higgs.phi(x[None])[0])
        _same(gauge.q(x), gauge.q(x[None])[0])
        for out, ref in zip(gauge.log_derivative(x, v),
                            gauge.log_derivative(x[None], v[None])):
            _same(out, ref[0])


def _random_terms(rng, rank, count, scale=1.0):
    return [(scale * random_skew(rng, rank),
             GaussBump(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                       sigma=rng.uniform(0.2, 0.5))) for _ in range(count)]


def _disk_points(rng, lead):
    r = 0.95 * np.sqrt(rng.uniform(size=lead))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=lead)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 3),
       lead=st.sampled_from([(), (1,), (7,), (3, 5), (2, 3, 4)]),
       dirs=st.lists(st.integers(0, 1), max_size=4),
       decay=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_terms_first_evaluators_keep_the_terms_last_bits(rank, lead, dirs,
                                                         decay, seed):
    # every separable evaluator against its terms-last form, at a lone
    # point, stacks of points and the broadcast velocities of symbols and
    # GaugeField.dq
    rng = np.random.default_rng(seed)
    terms = _random_terms(rng, rank, len(dirs))
    x, v = _disk_points(rng, lead), rng.normal(size=lead + (2,))
    dirs = np.array(dirs, dtype=int)

    field = _Separable(rank, terms, decay)
    w, dw = field.weights_and_grads(x)
    w_ref, dw_ref = last_weights_and_grads(field, x)
    _same(np.moveaxis(field.weights(x), 0, -1), last_weights(field, x))
    _same(np.moveaxis(w, 0, -1), w_ref)
    _same(np.moveaxis(dw, (0, 1), (-2, -1)), dw_ref)

    conn = ConnectionField.from_terms(
        rank, [SeparableTerm(int(i), g, b) for i, (g, b) in zip(dirs, terms)],
        decay)
    _same(conn.along(x, v), last_along(field, dirs, x, v))
    _same(conn.symbols(x),
          last_along(field, dirs, x[..., None, :], np.eye(2)))
    _same(conn.curvature_f12(x), last_curvature(field, dirs, x))
    _same(HiggsFieldData.from_terms(rank, terms, decay).phi(x),
          last_phi(field, x))
    if terms:
        params = HiggsParameterization(rank, terms, decay)
        c = rng.normal(size=len(terms))
        _same(params.higgs(c).phi(x), last_phi(params._field, x, c))

    gauge = GaugeField(rank, terms, max(decay, 1))
    _same(gauge.q(x), expm_skew(ref_combine(
        gauge._factors[0], last_weights(gauge._factors[0], x))))
    for y, u in ((x, v), (x[..., None, :], np.eye(2))):
        for out, ref in zip(gauge.log_derivative(y, u),
                            last_log_derivative(gauge, y, u)):
            _same(out, ref)
    # a sphere-bundle grid's one evaluation of both fields keeps each
    # field's bits, without a gauge and under one
    for c in (conn, replace(conn, _gauge=gauge)):
        for out, ref in zip(c.symbols_and_curvature(x),
                            (c.symbols(x), c.curvature_f12(x))):
            _same(out, ref)


@settings(max_examples=80, deadline=None)
@given(rank=st.integers(1, 3), lead=st.sampled_from([(), (9,), (4, 6)]),
       symbols=st.booleans(), dirs=st.lists(st.integers(0, 1), max_size=4),
       n_higgs=st.integers(0, 4), decays=st.tuples(st.integers(1, 4),
                                                   st.integers(1, 4)),
       basis=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_term_path_is_the_sum_of_along_and_phi(rank, lead, symbols, dirs,
                                               n_higgs, decays, basis, seed):
    # the one stacked sum of transport_rhs against -(Gamma(v) + Phi) from
    # along and phi, per node within 1e-15 (1 + |Gamma| + |Phi|), for
    # from_terms fields and reconstruction iterates, at a lone point,
    # stacks, and v broadcast against x the way symbols passes it
    rng = np.random.default_rng(seed)
    conn = ConnectionField.from_terms(rank, [
        SeparableTerm(i, g, b) for i, (g, b)
        in zip(dirs, _random_terms(rng, rank, len(dirs), 0.5))], decays[0])
    terms = _random_terms(rng, rank, n_higgs, 0.5)
    if basis and terms:
        params = HiggsParameterization(rank, terms, decays[1])
        higgs = params.higgs(rng.uniform(-1.0, 1.0, n_higgs))
        slow = HiggsParameterization(rank, terms, 0).higgs(np.ones(n_higgs))
    else:
        higgs = HiggsFieldData.from_terms(rank, terms, decays[1])
        slow = HiggsFieldData.from_terms(
            rank, terms or _random_terms(rng, rank, 1), 0)
    x = _disk_points(rng, lead)
    if symbols:
        x, v = x[..., None, :], np.eye(2)
    else:
        v = rng.uniform(-1.0, 1.0, lead + (2,))
    nodes = np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
    eye = np.eye(rank, dtype=complex).reshape((rank, rank)
                                              + (1,) * len(nodes))
    got = transport_rhs(conn, higgs)(x, v)(eye)
    ref = ref_generic_rhs(conn, higgs)(x, v)(eye)
    assert got.shape == ref.shape == (rank, rank) + nodes
    bound = 1e-15 * (1.0 + frobenius(conn.along(x, v))
                     + frobenius(higgs.phi(x)))
    assert np.all(np.max(np.abs(got - ref), axis=(0, 1)) <= bound)

    # the rank and decay checks come before the choice of path
    other = rank % 3 + 1
    with pytest.raises(RankMismatchError):
        transport_rhs(conn, HiggsFieldData.from_terms(
            other, _random_terms(rng, other, 1), decays[1]))
    with pytest.raises(DomainError, match="decay"):
        transport_rhs(conn, slow)


def test_fields_without_terms_keep_the_generic_path(rng):
    # a gauged field paired with a field of another pair, with no gauge in
    # common: each field's terms sum in a block of their own, conjugated
    # by the field's gauge, and the transport is the one formed from along
    # and phi, bit for bit
    conn, higgs = random_connection(rng), random_higgs(rng)
    gauged = gauge_transform(conn, higgs, random_gauge(rng))
    other = gauge_transform(conn, higgs, random_gauge(rng))
    geos = [DiskGeodesic.between_boundary_angles(AHModel(), a, a + 2.5)
            for a in (0.3, 1.9, 4.0)]
    cfg = TransportConfig(n_steps=64)
    for pair in ((gauged[0], higgs), (conn, gauged[1]),
                 (gauged[0], other[1])):
        assert np.array_equal(
            batch_transport(transport_rhs(*pair), geos, 2, cfg),
            batch_transport(ref_generic_rhs(*pair), geos, 2, cfg))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3),
       kind=st.sampled_from(["terms", "iterate", "zero"]),
       lead=st.sampled_from([(), (1,), (7,), (3, 5)]),
       seed=st.integers(0, 2**32 - 1))
def test_a_block_without_terms_is_skipped(rank, kind, lead, seed):
    # a gauge of the zero connection beside an ungauged Higgs field: its
    # connection block has no terms, so the generator is -Q^-1 dQ(v) plus
    # the Higgs block, with no Q* 0 Q formed (no mul_first at all), and
    # equals the sum that forms and adds it, +-0 aside
    rng = np.random.default_rng(seed)
    gauge = random_gauge(rng, rank)
    conn = gauge_transform(ConnectionField.zero(rank),
                           HiggsFieldData.zero(rank), gauge)[0]
    higgs = {"terms": lambda: random_higgs(rng, rank),
             "iterate": lambda: HiggsParameterization(
                 rank, _random_terms(rng, rank, 3), 4).higgs(
                     rng.uniform(-1.0, 1.0, 3)),
             "zero": lambda: HiggsFieldData.zero(rank)}[kind]()
    x = _disk_points(rng, lead)
    v = rng.uniform(-1.0, 1.0, lead + (2,))
    q, log_dq = (matrix_first(b) for b in gauge.log_derivative(x, v))
    fc, fh = conn._terms[0], higgs._terms[0]
    zero, _ = _stacked_generator(
        conn._terms, (_Separable(rank, [], fh.decay), None))(x, v)
    block, w_ref = _stacked_generator(
        (_Separable(rank, [], fc.decay), np.zeros(0, dtype=int)),
        higgs._terms)(x, v)
    ref = mul_first(mul_first(np.conj(q.swapaxes(0, 1)), zero), q) - log_dq
    ref += block
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bundle, "mul_first",
                      lambda *a: calls.append(1) or mul_first(*a))
        a, w = _generator(conn, higgs)(x, v)
    assert not calls
    assert a.shape == ref.shape and np.array_equal(a, ref)
    assert w.shape == w_ref.shape and np.array_equal(w, w_ref)


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(["plain", "copy", "gauge", "other gauge",
                                       "apart", "other apart", "flat",
                                       "adjoint"]), min_size=1, max_size=4),
       lead=st.sampled_from([(), (1,), (7,), (3, 5)]),
       seed=st.integers(0, 2**32 - 1))
def test_several_pairs_keep_each_pairs_generator(rank, kinds, lead, seed):
    # the rule over several pairs at one node set shares a stacked sum
    # between blocks of equal terms ("copy" is "plain" in other objects;
    # the two Higgs fields gauged apart share their connection's block,
    # which neither may add into) and a log_derivative between pairs of
    # one connection gauge, and gives each pair's (A, w) of _generator
    rng = np.random.default_rng(seed)
    state = rng.integers(2**32)
    conn, higgs = (f(np.random.default_rng(state), rank) for f in (
        random_connection, random_higgs))
    conn2, higgs2 = (f(np.random.default_rng(state), rank) for f in (
        random_connection, random_higgs))
    assert conn2._terms[0] is not conn._terms[0]
    g0, g1 = random_gauge(rng, rank), random_gauge(rng, rank)
    zero = ConnectionField.zero(rank), HiggsFieldData.zero(rank)
    pairs = [{"plain": lambda: (conn, higgs),
              "copy": lambda: (conn2, higgs2),
              "gauge": lambda: gauge_transform(conn, higgs, g0),
              "other gauge": lambda: gauge_transform(conn2, higgs2, g1),
              "apart": lambda: (conn, gauge_transform(conn, higgs, g0)[1]),
              "other apart": lambda: (
                  conn2, gauge_transform(conn, higgs2, g1)[1]),
              "flat": lambda: (gauge_transform(*zero, g0)[0], higgs),
              "adjoint": lambda: (conn, higgs.adjoint())}[kind]()
             for kind in kinds]
    x = _disk_points(rng, lead)
    v = rng.uniform(-1.0, 1.0, lead + (2,))
    refs = [_generator(*pair)(x, v) for pair in pairs]
    for (a, w), (a_ref, w_ref) in zip(_generators(pairs)(x, v), refs):
        _same(a, a_ref)
        _same(w, w_ref)


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3),
       kind=st.sampled_from(["terms", "iterate", "gauged"]),
       lead=st.sampled_from([(), (1,), (7,), (3, 5)]),
       seed=st.integers(0, 2**32 - 1))
def test_adjoints_negate_their_coefficients(rank, kind, lead, seed):
    # the adjoint of a field is the same terms with negated coefficients
    # under the same gauge, so the pair keeps its one stacked sum.
    # Phi* = -Phi bit for bit, and the transport is within
    # 1e-15 (1 + |Gamma| + |Phi|) per node of ref_generic_rhs
    rng = np.random.default_rng(seed)
    conn, higgs = random_connection(rng, rank), random_higgs(rng, rank)
    if kind == "iterate":
        params = HiggsParameterization(rank, _random_terms(rng, rank, 3), 4)
        higgs = params.higgs(rng.uniform(-1.0, 1.0, 3))
    if kind == "gauged":
        conn, higgs = gauge_transform(conn, higgs, random_gauge(rng, rank))
    adj = higgs.adjoint()
    assert adj._gauge is conn._gauge
    x = _disk_points(rng, lead)
    v = rng.uniform(-1.0, 1.0, lead + (2,))
    _same(adj.phi(x), -higgs.phi(x))
    eye = np.eye(rank, dtype=complex).reshape((rank, rank)
                                              + (1,) * len(lead))
    got = transport_rhs(conn, adj)(x, v)(eye)
    ref = ref_generic_rhs(conn, adj)(x, v)(eye)
    bound = 1e-15 * (1.0 + frobenius(conn.along(x, v))
                     + frobenius(adj.phi(x)))
    assert np.all(np.max(np.abs(got - ref), axis=(0, 1)) <= bound)


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 3),
       kind=st.sampled_from(["gauge", "composed", "twice", "apart",
                             "adjoint", "shared gauge"]),
       lead=st.sampled_from([(), (1,), (7,), (3, 5)]),
       seed=st.integers(0, 2**32 - 1))
def test_gauged_pairs_conjugate_the_base_generator(rank, kind, lead, seed):
    # two fields gauged by one Q take Q* G Q - Q^-1 dQ(v) over the
    # stacked sum G of their terms, which agrees with -(Gamma(v) + Phi)
    # from their along and phi within 1e-15 (1 + |Gamma| + |Phi|) per
    # node: for a gauge, a composed gauge, a gauge of a gauged pair (one
    # composed gauge for both fields), a Higgs field gauged apart from its
    # connection, a gauge of an adjoint pair, and the connection and Higgs
    # field of two pairs gauged by one Q
    rng = np.random.default_rng(seed)
    conn, higgs = random_connection(rng, rank), random_higgs(rng, rank)
    gauge = random_gauge(rng, rank)
    if kind == "composed":
        gauge = gauge.compose(random_gauge(rng, rank))
    if kind == "apart":
        higgs = gauge_transform(conn, higgs, random_gauge(rng, rank))[1]
    if kind == "adjoint":
        higgs = higgs.adjoint()
    pair = gauge_transform(conn, higgs, gauge)
    if kind == "twice":
        pair = gauge_transform(*pair, random_gauge(rng, rank))
        assert len(pair[0]._gauge._factors) == 2
        assert pair[0]._gauge is pair[1]._gauge
    if kind == "shared gauge":
        pair = pair[0], gauge_transform(random_connection(rng, rank),
                                        random_higgs(rng, rank), gauge)[1]
    x = _disk_points(rng, lead)
    v = rng.uniform(-1.0, 1.0, lead + (2,))
    eye = np.eye(rank, dtype=complex).reshape((rank, rank)
                                              + (1,) * len(lead))
    got = transport_rhs(*pair)(x, v)(eye)
    ref = ref_generic_rhs(*pair)(x, v)(eye)
    assert got.shape == ref.shape == (rank, rank) + lead
    bound = 1e-15 * (1.0 + frobenius(pair[0].along(x, v))
                     + frobenius(pair[1].phi(x)))
    assert np.all(np.max(np.abs(got - ref), axis=(0, 1)) <= bound)


@settings(max_examples=60, deadline=None)
@given(center_r=st.floats(0.0, 0.6), center_angle=st.floats(0.0, 6.28),
       radius_frac=st.floats(0.05, 1.0), steepness=st.floats(-0.5, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_one_point_flow_is_the_batched_flow(center_r, center_angle,
                                            radius_frac, steepness, seed):
    reach = np.sqrt(1.0 - 0.1)                  # |c| + r <= reach
    c = center_r * np.array([np.cos(center_angle), np.sin(center_angle)])
    r = float(radius_frac * (reach - center_r))
    try:
        # the curvature check bounds the amplitude by about r^2
        model = AHModel(ModelKind.CONFORMAL_PERTURBED, ConformalBump(
            center=(float(c[0]), float(c[1])), radius=r,
            amplitude=steepness * r * r))
    except DomainError:
        assume(False)
    rng = np.random.default_rng(seed)
    # inside the ball, on its circle (at an axis end q = 1 often exactly),
    # and outside it
    scales = [*rng.uniform(0.0, 1.0, 6), 1.0, 1.0, *rng.uniform(1.0, 2.0, 4)]
    ang = [*rng.uniform(0.0, 2.0 * np.pi, 7), 0.0,
           *rng.uniform(0.0, 2.0 * np.pi, 4)]
    for scale, a in zip(scales, ang):
        x = c + scale * r * np.array([np.cos(a), np.sin(a)])
        if x @ x >= 0.99:
            continue
        v = rng.normal(size=2)
        for m in (model, AHModel()):
            flow = np.array(m._flow_at(*x.tolist(), *v.tolist()))
            assert np.array_equal(flow[:2], v)
            assert np.array_equal(flow[2:], m.geodesic_rhs(x, v))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3),
       dirs=st.lists(st.integers(0, 1), max_size=4),
       decay=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_separable_fields_are_their_term_sums(rank, dirs, decay, seed):
    rng = np.random.default_rng(seed)
    terms = [(random_skew(rng, rank),
              GaussBump(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                        sigma=rng.uniform(0.2, 0.5))) for _ in dirs]
    r = 0.9 * np.sqrt(rng.uniform(size=(4, 3)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3))
    x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    v = rng.normal(size=(4, 3, 2))
    scale = 1.0 + sum(float(np.max(np.abs(g))) for g, _ in terms)

    def close(a, b, tol=1e-13):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= tol * scale

    # connection: term k feeds Gamma_{dirs[k]}
    conn = ConnectionField.from_terms(
        rank, [SeparableTerm(i, g, b) for i, (g, b) in zip(dirs, terms)],
        decay)
    ref = np.stack([_term_sum([t for i, t in zip(dirs, terms) if i == j],
                              rank, decay, x) for j in range(2)], axis=-3)
    close(conn.symbols(x), ref)
    close(conn.along(x, v), np.einsum("...i,...ikl->...kl", v, ref))
    # f_12 = d_1 Gamma_2 - d_2 Gamma_1 + [Gamma_1, Gamma_2] from symbol
    # samples alone
    d_gam = _central(conn.symbols, x)          # d_j Gamma_i at [..., j, i]
    gam = conn.symbols(x)
    g1, g2 = gam[..., 0, :, :], gam[..., 1, :, :]
    close(conn.curvature_f12(x), d_gam[..., 0, 1, :, :]
          - d_gam[..., 1, 0, :, :] + g1 @ g2 - g2 @ g1, 1e-7)
    assert conn.is_zero == (not terms)

    higgs = HiggsFieldData.from_terms(rank, terms, decay)
    close(higgs.phi(x), _term_sum(terms, rank, decay, x))

    # the gauge exponent decays like rho^M with M >= 1; no terms is the
    # identity gauge
    gauge = GaugeField(rank, terms, max(decay, 1))
    close(gauge.q(x), expm(_term_sum(terms, rank, max(decay, 1), x)),
          1e-12)
    close(gauge.dq(x), _central(gauge.q, x), 1e-7)
    if not terms:
        close(gauge.q(x), np.broadcast_to(np.eye(rank), x.shape[:-1]
                                          + (rank, rank)), 0.0)
        return

    params = HiggsParameterization(rank=rank, basis=terms, decay_N1=decay)
    c = rng.normal(size=len(terms))
    close(params.higgs(c).phi(x),
          _term_sum([(ck * g, b) for ck, (g, b) in zip(c, terms)], rank,
                    decay, x))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3), terms=st.tuples(st.integers(1, 3),
                                               st.integers(1, 3)),
       decays=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_gauge_transform_is_the_symbol_formula(rank, terms, decays, seed):
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank)
    higgs = HiggsFieldData.zero(rank)
    g1, g2 = (GaugeField(rank, [
        (random_skew(rng, rank),
         GaussBump(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                   sigma=rng.uniform(0.2, 0.5))) for _ in range(n)], m)
        for n, m in zip(terms, decays))
    r = 0.9 * np.sqrt(rng.uniform(size=(4, 3)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3))
    x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    v = rng.normal(size=(4, 3, 2))
    gam = conn.symbols(x)

    def formula(q, dq):
        """v^i (Q* Gamma_i Q + Q^-1 d_i Q) from Q and its partials."""
        qi = dagger(q)[..., None, :, :]
        return np.einsum("...i,...ikl->...kl", v,
                         qi @ gam @ q[..., None, :, :] + qi @ dq)

    def close(a, b):
        assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))

    q1, q2 = g1.q(x), g2.q(x)
    close(gauge_transform(conn, higgs, g1)[0].along(x, v),
          formula(q1, g1.dq(x)))
    # the composed gauge Q1 Q2 has partials dQ1 Q2 + Q1 dQ2
    composed = g1.compose(g2)
    close(gauge_transform(conn, higgs, composed)[0].along(x, v),
          formula(q1 @ q2, g1.dq(x) @ q2[..., None, :, :]
                  + q1[..., None, :, :] @ g2.dq(x)))
    twice = gauge_transform(*gauge_transform(conn, higgs, g1), g2)[0]
    q, log_dq = composed.log_derivative(x, v)
    close(q, q1 @ q2)
    close(dagger(q) @ conn.along(x, v) @ q + log_dq, twice.along(x, v))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3), count=st.integers(1, 4),
       decay=st.integers(0, 4), scale=st.floats(1e-3, 1e2),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruction_iterates_pass_the_higgs_checks(rank, count, decay,
                                                       scale, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.5, 0.5, size=(count, 2))
    basis = [(random_skew(rng, rank),
              GaussBump(center=tuple(c), sigma=rng.uniform(0.2, 0.5)))
             for c in centers]
    params = HiggsParameterization(rank=rank, basis=basis, decay_N1=decay)
    _check_field(params.higgs(scale * rng.normal(size=count)).phi, decay,
                 "Higgs field")


_BAND_GRIDS = {}


def _band_grid(n_theta):
    if n_theta not in _BAND_GRIDS:
        _BAND_GRIDS[n_theta] = sb.SphereBundleGrid(AHModel(), nx=12,
                                                   n_theta=n_theta)
    return _BAND_GRIDS[n_theta]


@settings(max_examples=60, deadline=None)
@given(n_theta=st.sampled_from([8, 9, 12, 15, 16]),
       width=st.integers(1, 16), shift=st.integers(0, 15),
       rank=st.integers(1, 2), with_conn=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n_theta=16, width=3, shift=0, rank=2, with_conn=True, seed=1)
@example(n_theta=15, width=2, shift=13, rank=2, with_conn=True, seed=2)
@example(n_theta=16, width=16, shift=0, rank=1, with_conn=True, seed=3)
@example(n_theta=9, width=9, shift=0, rank=2, with_conn=False, seed=4)
@example(n_theta=9, width=1, shift=0, rank=1, with_conn=False, seed=0)
@example(n_theta=15, width=1, shift=7, rank=1, with_conn=False, seed=0)
def test_band_operators_equal_full_axis_operators(n_theta, width, shift,
                                                  rank, with_conn, seed):
    # the band k_lo .. k_lo + width - 1 inside -(n // 2) .. (n - 1) // 2;
    # shift 0 touches the low end, the largest shift the high end
    grid = _band_grid(n_theta)
    width = min(width, n_theta)
    k_lo = -(n_theta // 2) + shift % (n_theta - width + 1)
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank) if with_conn else None
    modes = _complex(rng, (grid.nx, grid.ny, width, rank))
    u = sb.SectionField.from_modes(modes, grid, k_lo)
    w = sb.NSectionField.from_modes(modes[..., ::-1], grid, k_lo)
    u_full = sb.SectionField(u.values, grid)
    w_full = sb.NSectionField(w.coeffs, grid)
    assert u_full.modes.shape[2] == n_theta

    # relative to the operand too: where the exact result vanishes (d_theta
    # of mode 0, say), the full axis gives rounding noise of the operand
    size = np.max(np.abs(u.values))

    def same(a, b):
        ref = b._samples()
        assert np.max(np.abs(a._samples() - ref)) \
            <= 1e-12 * max(np.max(np.abs(ref)), size)

    def close(a, b, scale):
        assert abs(a - b) <= 1e-12 * max(scale, 1e-300)

    same(u, u_full)
    for op in (sb.vertical_derivative, sb.vertical_laplacian,
               lambda s: sb.apply_X(s, conn),
               lambda s: sb.horizontal_derivative(s, conn)):
        same(op(u), op(u_full))
    for op in (sb.vertical_divergence, sb.curvature_R,
               lambda s: sb.apply_X(s, conn),
               lambda s: sb.horizontal_divergence(s, conn)):
        same(op(w), op(w_full))
    if conn is not None:
        same(sb.curvature_F(u, conn), sb.curvature_F(u_full, conn))
    xu, xu_full = sb.apply_X(u, conn), sb.apply_X(u_full, conn)
    # rounding of an inner product scales with the norms of its operands
    close(sb.inner(xu, u), sb.inner(xu_full, u_full),
          xu_full.norm() * u_full.norm())
    close(xu.norm(), xu_full.norm(), xu_full.norm())
    m_max = n_theta // 2 - 1
    energies = sb.mode_energies(xu, m_max)
    assert np.max(np.abs(energies - sb.mode_energies(xu_full, m_max))) \
        <= 1e-12 * np.max(energies)
    assert sb.degree(u) == sb.degree(u_full)

    # a section concentrated in mode +-m, for the split of X
    m = shift % max(n_theta // 2 - 1, 1)
    one = sb.SectionField.from_modes(modes[:, :, :1], grid,
                                     -m if seed % 2 else m)
    one_full = sb.SectionField(one.values, grid)
    for part, part_full in zip(sb.x_split(one, m, conn)[:2],
                               sb.x_split(one_full, m, conn)[:2]):
        same(part, part_full)
    assert abs(sb.x_split(one, m, conn)[2]
               - sb.x_split(one_full, m, conn)[2]) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       radius=st.floats(0.5, 0.7), seed=st.integers(0, 2**32 - 1))
def test_pestov_residual_falls_at_the_stencils_order(mode, radius, seed):
    # halving the base step at a fixed fiber grid cuts the Pestov residual
    # of a random rank-2 connection and a section of mode +-1..3 by the
    # 4th-order stencils' 16 (15.5-16.3 over 60 draws); 12 leaves room
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, 2, scale=0.3)
    vec = _complex(rng, 2)
    residuals = []
    for nx in (24, 48):
        grid = sb.SphereBundleGrid(AHModel(), nx=nx, n_theta=32)
        s = np.minimum(np.sum(grid.points ** 2, axis=-1) / radius**2, 1.0)
        window = np.where(s < 1.0, np.cos(0.5 * np.pi * np.sqrt(s)) ** 8,
                          0.0)
        u = sb.SectionField.from_modes(window[:, :, None, None] * vec, grid,
                                       mode, compact_support=True)
        residuals.append(sb.pestov_residual(u, conn).relative_residual)
    assert residuals[1] * 12.0 <= residuals[0]


@settings(max_examples=300, deadline=None)
@given(alpha_in=st.floats(0.0, 6.28), opening=st.floats(0.05, 6.23),
       center_r=st.floats(0.0, 0.9), center_angle=st.floats(0.0, 6.28),
       radius_frac=st.floats(0.01, 1.0))
@example(0.0, np.pi, 0.0, 0.0, 0.5)          # diameter through the center
@example(0.0, np.pi, 0.5, np.pi / 2, 0.5)    # diameter tangent to the ball
def test_ball_crossing_roots_lie_on_the_circle(alpha_in, opening, center_r,
                                               center_angle, radius_frac):
    eps0 = 0.1
    geo = DiskGeodesic.between_boundary_angles(
        AHModel(), alpha_in, (alpha_in + opening) % (2 * np.pi))
    reach = np.sqrt(1.0 - eps0)                 # |c| + r <= reach
    c = center_r * reach * np.array([np.cos(center_angle),
                                     np.sin(center_angle)])
    r = radius_frac * (reach - np.linalg.norm(c))
    hit = geo.ball_crossing(c, r)
    if hit is None:
        t = np.linspace(geo.t_entry, geo.t_exit, 20001)
        dist = np.linalg.norm(geo.position(t) - c, axis=-1)
        assert np.min(dist) > r - 1e-12
    else:
        assert hit[0] < hit[1]
        for t in hit:
            assert abs(np.linalg.norm(geo.position(np.asarray(t)) - c)
                       - r) < 1e-12


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_KEYS = ("entry_alpha", "entry_eta", "exit_alpha", "exit_eta",
         "unitarity_defect")


@settings(max_examples=80, deadline=None)
@given(rank=st.integers(1, 3),
       keys=st.lists(st.tuples(_FINITE, _FINITE, _FINITE, _FINITE,
                               st.floats(0.0, 1e3)), max_size=6),
       rho_cut=_FINITE, signed_zeros=st.booleans(),
       poison=st.sampled_from(("rho_cut",) + _KEYS),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_dataset_jsonl_round_trip_is_exact(rank, keys, rho_cut, signed_zeros,
                                           poison, bad, seed):
    rng = np.random.default_rng(seed)
    records = []
    for a_in, eta_in, a_out, eta_out, defect in keys:
        mat, _ = np.linalg.qr(_complex(rng, (rank, rank)))
        if signed_zeros:
            mat = np.full((rank, rank), complex(-0.0, -0.0))
            np.fill_diagonal(mat, complex(-0.0, 1.0))
        records.append(ScatteringRecord(
            BoundaryDatum(a_in, eta_in, Direction.INCOMING),
            BoundaryDatum(a_out, eta_out, Direction.OUTGOING), mat, defect))
    ds = ScatteringDataset(f"fp{seed}", rank, rho_cut, records)
    text = ds.to_jsonl()
    back = ScatteringDataset.from_jsonl(text)
    assert (back.fingerprint, back.rank, back.rho_cut) \
        == (ds.fingerprint, ds.rank, ds.rho_cut)
    assert back.to_jsonl() == text
    for a, b in zip(ds.records, back.records):
        assert a.matrix.tobytes() == b.matrix.tobytes()

    # a non-finite number on the header or on the last record is refused
    lines = [json.loads(ln) for ln in text.splitlines()]
    if not records:
        poison = "rho_cut"
    lines[0 if poison == "rho_cut" else -1][poison] = bad
    with pytest.raises(DatasetError, match=f"{poison} must be finite"):
        ScatteringDataset.from_jsonl(
            "".join(json.dumps(obj) + "\n" for obj in lines))


def _matrix_text(mat: np.ndarray) -> str:
    return ",".join(repr(float(p)) for z in mat.reshape(-1)
                    for p in (z.real, z.imag))


@settings(max_examples=40, deadline=None)
@given(rho_cut=st.floats(1e-12, 1e-2), n_steps=st.integers(1, 4096),
       shooting=st.booleans(), count=st.integers(1, 200),
       per_angle=st.integers(1, 20), eta_max=st.floats(0.0, 5.0),
       nx=st.integers(8, 128), ntheta=st.integers(4, 128),
       rho_grid=st.floats(0.01, 0.2), n_terms=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_config_canonical_text_round_trips(rho_cut, n_steps, shooting, count,
                                           per_angle, eta_max, nx, ntheta,
                                           rho_grid, n_terms, seed):
    rng = np.random.default_rng(seed)
    fan = (f"mode = shooting\nn_eta = {per_angle}\neta_max = {eta_max!r}"
           if shooting else f"mode = boundary_pairs\nopenings = {per_angle}")
    terms = "".join(
        f"term.{k} = dir={k % 2}; gen={_matrix_text(random_skew(rng, 2))}; "
        f"center={rng.uniform(-0.4, 0.4)!r},{rng.uniform(-0.4, 0.4)!r}; "
        f"sigma={rng.uniform(0.2, 0.4)!r}; coeff={rng.normal()!r}\n"
        for k in range(n_terms))
    cfg = ExperimentConfig.from_text(
        f"[experiment]\nseed = {seed}\n"
        f"[transport]\nrho_cut = {rho_cut!r}\nn_steps = {n_steps}\n"
        f"[fan]\n{fan}\ncount = {count}\n"
        f"[grid]\nnx = {nx}\nntheta = {ntheta}\nrho_grid = {rho_grid!r}\n"
        f"[connection]\nrank = 2\ndecay = 3\n{terms}")
    again = ExperimentConfig.from_text(cfg.canonical())
    assert again.canonical() == cfg.canonical()
    assert again.fingerprint() == cfg.fingerprint()
    assert again.build_transport() == TransportConfig(rho_cut=rho_cut,
                                                      n_steps=n_steps)
    assert again.build_fan() == cfg.build_fan()
    assert len(again.build_fan()) == count
    assert again.grid_size() == (nx, ntheta)
    x, v = validation_points(8), np.array([0.6, -0.8])
    assert np.array_equal(again.build_connection().along(x, v),
                          cfg.build_connection().along(x, v))
