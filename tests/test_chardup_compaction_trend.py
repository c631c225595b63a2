"""char_dup_coverage / compaction_plan."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_char_dup_coverage_hand(ray_session):
    import ray.data as rd

    from ocr_ray.ops.segdedup import char_dup_coverage

    shared = "S" * 64
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    shared + "A" * 64,  # grams at 0,32,64: [0]=shared dup
                    shared,             # one gram, dup with doc 1
                    "u" * 100,          # grams unique to doc 3
                    "short",            # < 64 chars → excluded
                ],
                pa.string(),
            ),
        }
    )
    out = (
        char_dup_coverage(rd.from_arrow(docs), gram=64, stride=32)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert 4 not in out.index
    # doc1 grams: pos0 = S*64 (dup), pos32 = S32+A32 (unique),
    # pos64 = A*64 (unique) → 1/3 dup
    assert out.loc[1, "n_grams"] == 3
    assert out.loc[1, "n_dup_grams"] == 1
    assert out.loc[1, "dup_millionths"] == 1_000_000 // 3
    assert out.loc[2, "n_grams"] == 1 and out.loc[2, "n_dup_grams"] == 1
    # doc3: all-"u" grams are identical WITHIN the doc but appear in
    # only one distinct doc → not duplicated
    assert out.loc[3, "n_dup_grams"] == 0


def test_compaction_plan_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from ocr_ray.ops.layout import compaction_plan, compaction_plan_sql

    rng = np.random.default_rng(9)
    n = 5000
    docs = pa.table(
        {
            "doc_id": pa.array(
                rng.permutation(np.arange(10, 10 + n)), pa.int64()
            ),
            "n_chars": pa.array(rng.integers(50, 4000, n), pa.int64()),
        }
    )
    got = (
        compaction_plan(rd.from_arrow(docs).repartition(5))
        .to_pandas()
        .sort_values("chunk_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", docs)
    want = (
        con.execute(compaction_plan_sql() + " ORDER BY chunk_id")
        .df()
        .reset_index(drop=True)
    )
    assert got.astype("int64").equals(want.astype("int64"))
    # every chunk except possibly the last crosses the 64 KiB target
    assert (got["bytes"].iloc[:-1].to_numpy() >= 1).all()
