"""Property tests over generated inputs (Hypothesis).

- ``transport._segments(n, width)`` returns the largest divisor m of n
  whose m * width rows fit ``_ROWS``, and 1 when no divisor fits;
- ``FanSpec.uniform_pairs`` and ``FanSpec.uniform_shooting`` return
  exactly ``count`` items for any positive count and per-angle size;
- ``_linalg.mul`` is ``@`` up to rounding for ranks 1-4 and broadcasting
  leading shapes, and exactly ``@`` for single matrices and vectors;
- ``batch_scattering`` exit matrices of random skew fields of rank 2 and
  3 are unitary within criterion 4's tolerance.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ahxray._linalg import mul, unitary_defect
from ahxray.geometry import AHModel
from ahxray.transport import _ROWS, _segments, batch_scattering
from ahxray.xray import FanSpec, fan_geodesics
from test_bundle import random_connection, random_higgs


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
