"""gini_coefficient vs the classic rank identity on hand data."""
from __future__ import annotations

import pyarrow as pa


def _brute_gini(values):
    v = sorted(values)
    n = len(v)
    tot = sum(v)
    srv = sum((i + 1) * x for i, x in enumerate(v))
    return float(2 * srv - (n + 1) * tot) / float(n * tot)


def test_gini_matches_rank_identity(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import gini_coefficient

    vals = [100, 100, 250, 400, 1, 9_999, 42, 42, 42, 7_000]
    t = pa.table(
        {
            "k": pa.array(list(range(len(vals))), pa.int64()),
            "v": pa.array(vals, pa.int64()),
        }
    )
    r = gini_coefficient(rd.from_arrow(t), "k", "v", bucket_width=64)
    assert r["n"] == len(vals)
    assert r["sum_value"] == sum(vals)
    assert abs(r["gini"] - _brute_gini(vals)) < 1e-12


def test_gini_uniform_is_zero(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import gini_coefficient

    t = pa.table(
        {
            "k": pa.array(list(range(8)), pa.int64()),
            "v": pa.array([5] * 8, pa.int64()),
        }
    )
    r = gini_coefficient(rd.from_arrow(t), "k", "v", bucket_width=2)
    assert abs(r["gini"]) < 1e-12


def test_gini_empty(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import gini_coefficient

    t = pa.schema([("k", pa.int64()), ("v", pa.int64())]).empty_table()
    r = gini_coefficient(rd.from_arrow(t), "k", "v")
    assert r == {"n": 0, "sum_value": 0, "gini": 0.0}
