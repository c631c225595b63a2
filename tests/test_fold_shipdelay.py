"""k-fold balance audit, target encoding and Neyman allocation vs hand
oracles."""
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


def test_target_encoding_leave_fold_out(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.split import target_encoding_folds

    users = [1, 2, 3, 4, 5, 6]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    events = pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(["X"] * 6, pa.string()),
            "value": pa.array(vals, pa.float64()),
        }
    )
    out = (
        target_encoding_folds(rd.from_arrow(events), k=3)
        .to_pandas()
        .sort_values("fold")
        .reset_index(drop=True)
    )
    # independent replay of the fold hash and the leave-fold-out means
    folds = [((u * 2654435761) % (1 << 32)) % 3 for u in users]
    cents = [round(v * 100) for v in vals]
    total_n, total_s = len(users), sum(cents)
    for _, row in out.iterrows():
        f = int(row["fold"])
        nf = sum(1 for x in folds if x == f)
        sf = sum(c for x, c in zip(folds, cents) if x == f)
        assert row["n_in_fold"] == nf
        assert row["n_rest"] == total_n - nf
        assert row["enc_cents"] == (total_s - sf) / (total_n - nf)
    assert out["n_in_fold"].sum() == 6


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
