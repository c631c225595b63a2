"""Data-layout operators — small-files compaction planning.

``compaction_plan`` assigns key-ordered rows to output chunks of a
target byte size (the Delta/Iceberg OPTIMIZE bin layout) with a rule
the DuckDB oracle replays exactly; see its docstring for the scale
shape.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def compaction_plan(rows, key_col: str = "doc_id",
                    bytes_col: str = "n_chars",
                    target_bytes: int = 65_536,
                    key_bucket_width: int = 1_024):
    """Small-files compaction planner: assign key-ordered rows to
    output chunks of ~``target_bytes`` via the floor-of-prefix-sum rule
    ``chunk_id = exclusive_prefix(bytes) // target`` (next-fit packing
    over the canonical key order — the Delta/Iceberg OPTIMIZE bin
    layout, deterministic and SQL-replayable, unlike first-fit-
    decreasing).

    The global ordered prefix sum is distributed, no global sort: keys
    bucket by ``key // width``; per-bucket byte totals collapse to a
    tiny driver cumsum (one row per bucket) that becomes each bucket's
    base offset; one hash shuffle by bucket then computes exact local
    exclusive prefixes vectorized, and a per-chunk keyed sum finishes.

    Output: (chunk_id, n_docs, bytes)."""
    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    row_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            (key_col, pa.int64()),
            (bytes_col, pa.int64()),
        ]
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return row_schema.empty_table()
        k = t.column(key_col).cast(pa.int64())
        return pa.table(
            {
                "bucket": pc.divide(
                    k, pa.scalar(key_bucket_width, pa.int64())
                ),
                key_col: k,
                bytes_col: t.column(bytes_col).cast(pa.int64()),
            }
        )

    bucketed = _with_schema(
        rows.map_batches(add_bucket, batch_format="pyarrow"), row_schema
    ).materialize()
    totals = (
        bucketed.groupby("bucket")
        .aggregate(Sum(bytes_col, alias_name="b"))
        .take_all()
    )  # bounded: one row per key bucket
    totals.sort(key=lambda r: r["bucket"])
    base: dict[int, int] = {}
    acc = 0
    for r in totals:
        base[r["bucket"]] = acc
        acc += r["b"]
    base_ref = ray.put(base)

    part_schema = pa.schema(
        [("chunk_id", pa.int64()), ("n_docs", pa.int64()),
         ("bytes", pa.int64())]
    )

    def chunk_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        offs = ray.get(base_ref)
        bk = block.column("bucket").to_numpy(zero_copy_only=False)
        b = block.column(bytes_col).to_numpy(zero_copy_only=False)
        # exclusive prefix within the (key-sorted) bucket run + base
        prefix = np.concatenate([[0], np.cumsum(b)[:-1]])
        sizes = np.diff(np.append(starts, n))
        run_base = np.array(
            [offs[int(x)] for x in bk[starts]], np.int64
        ) - prefix[starts]
        prefix = prefix + np.repeat(run_base, sizes)
        chunk = prefix // target_bytes
        t2 = pa.table(
            {
                "chunk_id": pa.array(chunk, pa.int64()),
                "n_docs": pa.array(np.ones(n, np.int64), pa.int64()),
                "bytes": pa.array(b, pa.int64()),
            }
        )
        g = t2.group_by("chunk_id").aggregate(
            [("n_docs", "sum"), ("bytes", "sum")]
        )
        return pa.table(
            {
                "chunk_id": g["chunk_id"],
                "n_docs": pc.cast(g["n_docs_sum"], pa.int64()),
                "bytes": pc.cast(g["bytes_sum"], pa.int64()),
            }
        )

    parts = grouped_map(
        bucketed, ["bucket"], chunk_block, sort_within=[key_col]
    )
    return (
        parts.groupby("chunk_id")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("bytes", alias_name="bytes"),
        )
    )


def compaction_plan_sql(table: str = "documents", key_col: str = "doc_id",
                        bytes_col: str = "n_chars",
                        target_bytes: int = 65_536) -> str:
    return (
        "WITH p AS (\n"
        f" SELECT {key_col}, {bytes_col},\n"
        f"  COALESCE(SUM({bytes_col}) OVER (ORDER BY {key_col}\n"
        "   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)"
        " AS prefix\n"
        f" FROM {table}\n"
        ")\n"
        f"SELECT CAST(prefix // {target_bytes} AS BIGINT) AS chunk_id,\n"
        " CAST(COUNT(*) AS BIGINT) AS n_docs,\n"
        f" CAST(SUM({bytes_col}) AS BIGINT) AS bytes\n"
        "FROM p GROUP BY 1"
    )
