"""token_budget_sample."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_token_budget_sample_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from ocr_ray.ops.sample import token_budget_sample, token_budget_sample_sql

    rng = np.random.default_rng(53)
    n = 2000
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "source": pa.array(
                rng.choice(["s1", "s2", "s3"], n).tolist(), pa.string()
            ),
            "n_chars": pa.array(rng.integers(100, 3000, n), pa.int64()),
        }
    )
    got = (
        token_budget_sample(rd.from_arrow(docs).repartition(4),
                            budget_chars=8_000)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", docs)
    want = (
        con.execute(token_budget_sample_sql(8_000) + " ORDER BY doc_id")
        .df()
        .reset_index(drop=True)
    )
    assert len(got) == len(want) and len(got) > 0
    for c in ["doc_id", "n_chars", "cum_before"]:
        assert got[c].astype("int64").equals(want[c].astype("int64")), c
    # every source keeps at least one doc and stops once the budget is
    # crossed: cum_before of every kept doc is under budget
    assert set(got.source) == {"s1", "s2", "s3"}
    assert (got.cum_before < 8_000).all()
