"""Property tests over generated inputs (Hypothesis).

- ``transport._segments(n, width)`` returns the largest divisor m of n
  whose m * width rows fit ``_ROWS``, and 1 when no divisor fits;
- ``FanSpec.uniform_pairs`` and ``FanSpec.uniform_shooting`` return
  exactly ``count`` items for any positive count and per-angle size.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ahxray.transport import _ROWS, _segments
from ahxray.xray import FanSpec


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
