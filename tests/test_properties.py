"""Property tests over generated inputs (Hypothesis).

- ``transport._segments(n, width)`` returns the largest divisor m of n
  whose m * width rows fit ``_ROWS``, and 1 when no divisor fits;
- ``FanSpec.uniform_pairs`` and ``FanSpec.uniform_shooting`` return
  exactly ``count`` items for any positive count and per-angle size;
- ``_linalg.mul`` is ``@`` up to rounding for ranks 1-4 and broadcasting
  leading shapes, and exactly ``@`` for single matrices and vectors;
- ``batch_scattering`` exit matrices of random skew fields of rank 2 and
  3 are unitary within criterion 4's tolerance;
- every separable field (connection symbols, their contraction with a
  velocity and their partials, Higgs fields, gauges and their partials,
  the reconstruction basis) equals the sum of its terms taken one at a
  time, for ranks 1-3, 0-4 terms and decay 0-4; no terms is the zero
  field, and the identity gauge.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ahxray._linalg import mul, unitary_defect
from ahxray.bundle import (ConnectionField, GaugeField, GaussBump,
                           HiggsFieldData, SeparableTerm)
from ahxray.geometry import AHModel
from ahxray.reconstruct import HiggsParameterization
from ahxray.transport import _ROWS, _segments, batch_scattering
from ahxray.xray import FanSpec, fan_geodesics
from test_bundle import random_connection, random_higgs, random_skew


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
def test_mul_is_matmul(rank, lead, mask_a, mask_b, seed):
    # each operand keeps or collapses to 1 every leading axis, so the
    # pair broadcasts against each other
    rng = np.random.default_rng(seed)
    a = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_a)) + (rank, rank))
    b = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_b)) + (rank, rank))
    out, ref = mul(a, b), a @ b
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=50, deadline=None)
@given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_mul_falls_back_on_single_matrices(rank, seed):
    rng = np.random.default_rng(seed)
    a, b = _complex(rng, (rank, rank)), _complex(rng, (rank, rank))
    vec = _complex(rng, (rank,))
    assert np.array_equal(mul(a, b), a @ b)
    assert np.array_equal(mul(a, vec), a @ vec)


@settings(max_examples=12, deadline=None)
@given(rank=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_batch_scattering_is_unitary(rank, seed):
    # fields of criterion 4's size (three terms of scale 0.5) at its
    # default 2048 RK4 steps
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank)
    higgs = random_higgs(rng, rank)
    geos = fan_geodesics(AHModel(), FanSpec.uniform_pairs(12, 3), 1e-6)
    exits, _ = batch_scattering(conn, higgs, geos)
    assert float(np.max(unitary_defect(exits))) < 1e-7


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
    close(conn.symbol_derivs(x), _central(conn.symbols, x), 1e-7)
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
    close(params.combine(params.weights(x), c),
          _term_sum([(ck * g, b) for ck, (g, b) in zip(c, terms)], rank,
                    decay, x))
