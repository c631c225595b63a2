"""Property test for the quantile sketch's rank-error bound on
adversarial weight distributions."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=-1000, max_value=1000),  # value
            st.integers(min_value=1, max_value=10_000),    # weight
        ),
        min_size=1,
        max_size=200,
    ),
    m=st.sampled_from([4, 16, 64]),
)
def test_qsk_compress_rank_error_bound(data, m):
    """After one compression, any query point's rank moves by at most
    total/m — even with heavy duplicate weights, two-point
    distributions, or all-equal values."""
    from ocr_ray.ops.sketch import _qsk_compress

    vals = np.array([v for v, _ in data], np.int64)
    wts = np.array([w for _, w in data], np.int64)
    cv, cw = _qsk_compress(vals, wts, m)
    total = int(wts.sum())
    assert int(cw.sum()) == total
    assert len(cv) <= m
    # exact cumulative rank functions at every distinct value
    order = np.argsort(vals, kind="stable")
    sv, sw = vals[order], wts[order]
    scum = np.cumsum(sw)
    ccum = np.cumsum(cw)
    for q in np.unique(np.concatenate([vals, cv])):
        true_rank = int(scum[np.searchsorted(sv, q, side="right") - 1]) if (
            np.searchsorted(sv, q, side="right") > 0
        ) else 0
        est_rank = int(ccum[np.searchsorted(cv, q, side="right") - 1]) if (
            np.searchsorted(cv, q, side="right") > 0
        ) else 0
        assert abs(true_rank - est_rank) <= total // m + 1, (
            q, true_rank, est_rank, total, m
        )
