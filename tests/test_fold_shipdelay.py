"""k-fold balance audit and Neyman allocation vs hand oracles."""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)


def test_fold_balance(ray_session):
    import ray.data as rd

    from ocr_ray.ops.split import fold_balance

    n, k = 1000, 4
    ids = np.arange(n, dtype=np.int64)
    langs = np.where(ids % 3 == 0, "id", "en")
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    got = (
        fold_balance(rd.from_arrow(t).repartition(4), k=k)
        .to_pandas()
        .set_index("fold")
        .sort_index()
    )
    fold = ((ids.astype(np.uint64) * _KNUTH) & _M32) % np.uint64(k)
    assert got.n_docs.sum() == n
    for f in range(k):
        m = fold == f
        assert int(got.loc[f, "n_docs"]) == int(m.sum())
        # chi-square via the identical accumulation
        grand = n
        n_f = int(m.sum())
        chi = np.float64(0.0)
        for lang in sorted(set(langs)):
            obs = int((m & (langs == lang)).sum())
            tot = int((langs == lang).sum())
            num = grand * obs - n_f * tot
            den = grand * n_f * tot
            chi = chi + np.float64(num) * np.float64(num) / np.float64(den)
        assert float(got.loc[f, "chi2"]) == float(chi)
    # hash folding over sequential ids with a 3-periodic lang should be
    # reasonably balanced -> small chi2
    assert (got.chi2 < 10).all()


def test_neyman_allocation_hand(ray_session):
    import math

    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.split import neyman_allocation

    # source A: chars [10, 30] (N=2, var num = 2*1000 - 1600 = 400,
    # w = 20); source B: constant chars (w = 0); source C: [5, 9, 13]
    # (N=3, num = 3*275 - 27^2 = 96, w = isqrt(96) = 9)
    docs = pa.table(
        {
            "doc_id": pa.array(range(7), pa.int64()),
            "source": pa.array(
                ["A", "A", "B", "B", "C", "C", "C"], pa.string()
            ),
            "n_chars": pa.array([10, 30, 7, 7, 5, 9, 13], pa.int64()),
        }
    )
    out = (
        neyman_allocation(rd.from_arrow(docs), budget=10)
        .to_pandas()
        .set_index("source")
    )
    assert out.loc["A", "weight"] == 20
    assert out.loc["B", "weight"] == 0
    assert out.loc["C", "weight"] == math.isqrt(96)
    # W = 29: floors are 10*20//29 = 6, 0, 10*9//29 = 3; leftover 1
    # goes to the largest remainder (A: 200%29=26, C: 90%29=3)
    assert out.loc["A", "alloc"] == 7
    assert out.loc["B", "alloc"] == 0
    assert out.loc["C", "alloc"] == 3
    assert out["alloc"].sum() == 10
