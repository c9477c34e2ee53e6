"""Property-based tests (hypothesis) for the repro.obs histogram.

The guarantee the profiling layer leans on is **bounded quantile error**:
for arbitrary sample sets, every quantile estimate is within one bucket
boundary of the exact nearest-rank percentile.  The estimate never
under-reports, and over-reports by at most one bucket's growth factor
(``10**(1/BUCKETS_PER_DECADE)``), with the underflow/overflow buckets pinned
to the range floor / observed max.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Histogram
from repro.obs.registry import BUCKETS_PER_DECADE, DECADES, LOWER
from repro.pipeline.openloop import percentile

pytestmark = pytest.mark.slow  # hypothesis-heavy: the CI slow lane

# Positive durations across the histogram's whole dynamic range, plus the
# out-of-range edges (sub-microsecond underflow, kilo-second overflow).
samples = st.lists(
    st.floats(min_value=1e-8, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)
quantiles = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0])


@given(values=samples, q=quantiles)
@settings(max_examples=200, deadline=None)
def test_quantile_estimate_is_within_one_bucket_of_exact(values, q):
    hist = Histogram("prop")
    for value in values:
        hist.observe(value)
    exact = percentile(values, q)
    assert exact is not None
    estimate = hist.quantile(q)
    assert estimate is not None

    growth = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
    top = LOWER * 10.0 ** DECADES
    if exact < LOWER:
        # Underflow bucket: the estimate is pinned to the range floor (or
        # the observed max when every sample underflowed).
        assert estimate <= LOWER * (1 + 1e-9)
    elif exact >= top:
        # Overflow bucket: the estimate is the observed max, which the
        # exact nearest-rank value can never exceed.
        assert exact <= estimate * (1 + 1e-9)
        assert estimate <= max(values) * (1 + 1e-9)
    else:
        # In-range: never under-reports, over-reports by at most one
        # bucket's growth factor (fp slack for samples exactly on an edge).
        assert estimate >= exact * (1 - 1e-9)
        assert estimate <= exact * growth * (1 + 1e-9)

