"""Information-theoretic dependence audits over categorical columns.

``mutual_information`` measures how much one categorical column tells
you about another (lang ↔ source here) — the dependence screen a
corpus-mixing step runs before treating two stratification keys as
independent. Exact-integer contract: with the identity

    MI = ln N  +  (1/N)·[ Σ_ij n_ij·ln n_ij
                          − Σ_i r_i·ln r_i  −  Σ_j c_j·ln c_j ]

every inner sum uses the established quantized-log trick
(ops/textstats.py:zipf_slope_by_lang): ``qlog(x) = floor(ln(x)·S)`` as an
exact integer, summed as int64 (cell counts are ≤ N, the table is
langs × sources — tiny), so the accumulation order cannot move the
result; the only floats are the shared final expression. The DuckDB
oracle replays the same quantization and closed form.

Scale shape: the contingency table comes from one keyed count of slim
(a, b) rows — bounded by |A|·|B| regardless of corpus size — and the
fold runs in one final block.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

_MI_SCALE = 1_000_000_000


def mutual_information(docs, col_a: str = "lang", col_b: str = "source"):
    """One row: (n, n_cells, mi_nats) for the two categorical columns.

    ``mi_nats`` is the quantized-log plug-in estimate (natural log),
    bit-identical with the SQL oracle."""
    from ray.data.aggregate import Count

    cells = (
        docs.groupby([col_a, col_b])
        .aggregate(Count(alias_name="n"))
        .take_all()
    )  # bounded: |A| × |B| cells
    s = _MI_SCALE

    def qlog(x: int) -> int:
        return int(np.floor(np.log(float(x)) * s))

    n_total = sum(r["n"] for r in cells)
    row_tot: dict = {}
    col_tot: dict = {}
    for r in cells:
        row_tot[r[col_a]] = row_tot.get(r[col_a], 0) + r["n"]
        col_tot[r[col_b]] = col_tot.get(r[col_b], 0) + r["n"]
    s_cells = sum(r["n"] * qlog(r["n"]) for r in cells)
    s_rows = sum(v * qlog(v) for v in row_tot.values())
    s_cols = sum(v * qlog(v) for v in col_tot.values())
    mi = (
        float(qlog(n_total))
        + (float(s_cells) - float(s_rows) - float(s_cols)) / float(n_total)
    ) / float(s)
    return pa.table(
        {
            "n": pa.array([n_total], pa.int64()),
            "n_cells": pa.array([len(cells)], pa.int64()),
            "mi_nats": pa.array([mi], pa.float64()),
        }
    )


def mutual_information_sql(col_a: str = "lang",
                           col_b: str = "source",
                           table: str = "documents") -> str:
    s = _MI_SCALE
    return (
        "WITH c AS (\n"
        f" SELECT {col_a} AS a, {col_b} AS b, COUNT(*) AS n\n"
        f" FROM {table} GROUP BY 1, 2\n"
        "), r AS (SELECT a, SUM(n) AS n FROM c GROUP BY a),\n"
        "k AS (SELECT b, SUM(n) AS n FROM c GROUP BY b),\n"
        "t AS (SELECT SUM(n) AS n FROM c),\n"
        "q AS (\n"
        " SELECT\n"
        f"  (SELECT SUM(CAST(n AS HUGEINT) * CAST(floor(ln(CAST(n AS"
        f" DOUBLE)) * {s}) AS HUGEINT)) FROM c) AS s_cells,\n"
        f"  (SELECT SUM(CAST(n AS HUGEINT) * CAST(floor(ln(CAST(n AS"
        f" DOUBLE)) * {s}) AS HUGEINT)) FROM r) AS s_rows,\n"
        f"  (SELECT SUM(CAST(n AS HUGEINT) * CAST(floor(ln(CAST(n AS"
        f" DOUBLE)) * {s}) AS HUGEINT)) FROM k) AS s_cols,\n"
        "  (SELECT n FROM t) AS n_total,\n"
        "  (SELECT COUNT(*) FROM c) AS n_cells\n"
        ")\n"
        "SELECT CAST(n_total AS BIGINT) AS n,"
        " CAST(n_cells AS BIGINT) AS n_cells,\n"
        f" (CAST(floor(ln(CAST(n_total AS DOUBLE)) * {s}) AS DOUBLE)\n"
        "  + (CAST(s_cells AS DOUBLE) - CAST(s_rows AS DOUBLE)"
        " - CAST(s_cols AS DOUBLE)) / CAST(n_total AS DOUBLE))"
        f" / {float(s)} AS mi_nats\n"
        "FROM q"
    )
