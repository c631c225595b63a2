"""Cross-source quantile normalisation against its DuckDB oracle."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_quantile_normalize_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from ocr_ray.ops.curate import quantile_normalize, quantile_normalize_sql

    rng = np.random.default_rng(5)
    n = 3000
    # source B systematically longer than A — normalization must map
    # both onto the pooled distribution
    src = np.where(rng.random(n) < 0.5, "a", "b")
    length = np.where(
        src == "a",
        rng.integers(10, 500, n),
        rng.integers(300, 2000, n),
    ).astype(np.int64)
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "source": pa.array(src.tolist(), pa.string()),
            "n_chars": pa.array(length, pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("documents", docs)
    want = (
        con.execute(
            quantile_normalize_sql(col="n_chars", group="source")
            + " ORDER BY doc_id"
        )
        .df()
        .reset_index(drop=True)
    )
    got = (
        quantile_normalize(
            rd.from_arrow(docs).repartition(4),
            col="n_chars",
            group="source",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got.columns) == list(want.columns)
    for c in ["doc_id", "n_chars", "norm_n_chars"]:
        assert got[c].astype("int64").equals(want[c].astype("int64")), c
    assert (got["pct_rank"].to_numpy() == want["pct_rank"].to_numpy()).all()
    assert got["source"].equals(want["source"])
