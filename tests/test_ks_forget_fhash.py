"""KS drift gate and feature-hashing BoW vs hand oracles (scipy-free
exact KS; per-token md5 replay)."""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _ks_oracle(vals, groups):
    vals = np.asarray(vals)
    groups = np.asarray(groups)
    grid = np.unique(vals)
    out = {}
    for g in np.unique(groups):
        a = vals[groups == g]
        b = vals[groups != g]
        if len(a) == 0 or len(b) == 0:
            continue
        fa = np.searchsorted(np.sort(a), grid, "right") / len(a)
        fb = np.searchsorted(np.sort(b), grid, "right") / len(b)
        out[str(g)] = (len(a), len(b), float(np.max(np.abs(fa - fb))))
    return out


def test_ks_by_group(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import ks_by_group

    rng = np.random.RandomState(3)
    # source "b" drawn from a shifted distribution -> big KS vs rest
    vals = list(rng.randint(0, 200, 300)) + list(rng.randint(150, 400, 80))
    srcs = ["a"] * 300 + ["b"] * 80
    t = pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )
    got = ks_by_group(rd.from_arrow(t)).to_pandas()
    want = _ks_oracle(vals, srcs)
    assert set(got.source) == set(want)
    for r in got.itertuples():
        ns, nr, ks = want[r.source]
        assert (int(r.n_group), int(r.n_rest)) == (ns, nr)
        assert r.ks_stat == ks  # identical IEEE ops, exact equality
    # the shifted source must look drifted
    ks_b = float(got.set_index("source").loc["b", "ks_stat"])
    assert ks_b > 0.3


def test_ks_single_group_empty_complement(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import ks_by_group

    t = pa.table(
        {
            "source": pa.array(["only"] * 5, pa.string()),
            "n_chars": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    got = ks_by_group(rd.from_arrow(t)).to_pandas()
    assert len(got) == 0  # KS vs empty rest is undefined, row dropped


def test_hashed_bow(ray_session):
    import ray.data as rd

    from ocr_ray.ops.analysis import _WORD_RE
    from ocr_ray.ops.tfidf import hashed_bow

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
        "",  # no tokens -> no rows
        "aa b cc",  # 2-char tokens filtered by the >=3 regex
    ]
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    n_buckets = 8
    got = hashed_bow(rd.from_arrow(t), n_buckets=n_buckets).to_pandas()

    want: dict[tuple[int, int], int] = {}
    for doc_id, text in zip([1, 2, 3, 4], texts):
        for w in _WORD_RE.findall(text.lower()):
            d = hashlib.md5(w.encode()).hexdigest()
            b = int(d[:8], 16) % n_buckets
            s = 1 if int(d[8], 16) % 2 == 0 else -1
            want[(doc_id, b)] = want.get((doc_id, b), 0) + s
    got_map = {
        (int(r.doc_id), int(r.bucket)): int(r.weight) for r in got.itertuples()
    }
    assert got_map == want
    assert all(d != 3 for d, _ in got_map)  # empty doc emits nothing
