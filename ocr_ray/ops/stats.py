"""Distributed statistics operators over document columns.

- ``top_n_per_group`` / ``global_ranks``: the window-function ranking
  family (per-group top-k, global dense ranks) without a global sort.
- ``length_token_correlation``, ``length_robust_outliers``: exact-int
  moment and median/MAD aggregates over document lengths.
- ``ks_by_group``, ``welch_t_by_group``: two-sample drift tests of a
  numeric column across the values of a group column.

Every accumulation is an exact integer partial (order-free sums), so
the DuckDB oracles reproduce the results bit-for-bit.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def top_n_per_group(ds, group_col: str, order_col: str, id_col: str,
                    k: int = 3):
    """(group, id, order_col, rank) — the rank-based top-``k`` rows per
    group, ordered by (order_col DESC, id ASC); the window-function
    ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC, id)`` family.

    Two-phase: each batch emits only its LOCAL top-k per group (the
    global top-k is a subset of the union), so the shuffle carries
    ≤ k × groups-per-batch slim rows; the final per-group rank is one
    vectorized pass per block."""
    from ocr_ray.stages.grouped import grouped_map

    def _ranked_topk(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out_schema = pa.schema(
            [
                (group_col, pa.string()),
                (id_col, pa.int64()),
                (order_col, pa.int64()),
                ("rank", pa.int64()),
            ]
        )
        if n == 0:
            return out_schema.empty_table()
        vals = t[order_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        gcodes = pc.dictionary_encode(
            t[group_col].combine_chunks()
        ).indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -vals, gcodes))
        g_sorted = gcodes[order]
        starts = np.flatnonzero(np.r_[True, g_sorted[1:] != g_sorted[:-1]])
        sizes = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, sizes)
        keep = order[rank < k]
        return pa.table(
            {
                group_col: t[group_col].take(pa.array(keep)),
                id_col: pa.array(ids[keep], pa.int64()),
                order_col: pa.array(vals[keep], pa.int64()),
                "rank": pa.array((rank[rank < k] + 1), pa.int64()),
            }
        )

    local = ds.map_batches(_ranked_topk, batch_format="pyarrow")

    def final_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        # re-rank the unioned local top-ks; the rank column from the
        # local pass is recomputed (it only bounded the candidates)
        return _ranked_topk(block.drop_columns(["rank"]))

    return grouped_map(local, [group_col], final_block)


# ------------------------------------------- ranks without a global sort

_RANK_BUCKET_WIDTH = 1 << 22  # ~42k currency units per range bucket


def _range_bucket_offsets(rows, key_col: str, value_col: str,
                          bucket_width: int):
    """Range-bucket scaffold of ``global_ranks``: bucket slim (key, value) rows by ``value // bucket_width``, materialize,
    and cumsum the tiny per-bucket counts driver-side into base rank
    offsets. Returns ``(bucketed_ds, offsets, n_total)`` — the global
    rank of a row is its bucket offset + its position within the
    (value, key)-sorted bucket block."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import _with_schema

    tot_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            (key_col, pa.int64()),
            (value_col, pa.int64()),
        ]
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return tot_schema.empty_table()
        v = t.column(value_col).cast(pa.int64())
        return pa.table(
            {
                "bucket": pc.divide(v, pa.scalar(bucket_width, pa.int64())),
                key_col: t.column(key_col).cast(pa.int64()),
                value_col: v,
            }
        )

    bucketed = _with_schema(
        rows.map_batches(add_bucket, batch_format="pyarrow"), tot_schema
    ).materialize()

    counts = (
        bucketed.groupby("bucket").aggregate(Count(alias_name="n"))
    ).take_all()  # bounded: one row per value-range bucket
    counts.sort(key=lambda r: r["bucket"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in counts:
        offsets[r["bucket"]] = acc
        acc += r["n"]
    return bucketed, offsets, acc


def global_ranks(rows, key_col: str, value_col: str,
                 bucket_width: int = _RANK_BUCKET_WIDTH):
    """Distributed ROW_NUMBER: (key, value, rank) with rank the global
    ascending position ordered (value, key). No global sort: rank =
    bucket base offset + in-block position."""
    import ray

    from ocr_ray.stages.grouped import grouped_map

    bucketed, offsets, n_total = _range_bucket_offsets(
        rows, key_col, value_col, bucket_width
    )
    out_schema = pa.schema(
        [(key_col, pa.int64()), (value_col, pa.int64()),
         ("rank", pa.int64())]
    )
    if n_total == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    off_ref = ray.put(offsets)

    def rank_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        base = ray.get(off_ref)
        bk = block.column("bucket").to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, n))
        pos = np.arange(n) - np.repeat(starts, sizes)
        rn = (
            pos
            + np.repeat(
                np.array([base[int(b)] for b in bk[starts]], np.int64), sizes
            )
            + 1
        )
        return pa.table(
            {
                key_col: block.column(key_col).cast(pa.int64()),
                value_col: block.column(value_col).cast(pa.int64()),
                "rank": pa.array(rn, pa.int64()),
            }
        )

    return grouped_map(
        bucketed, ["bucket"], rank_block, sort_within=[value_col, key_col]
    )


def length_token_correlation(docs):
    """(lang, n, corr): Pearson correlation between character length and
    whitespace token count per language — the statistical-moments
    aggregate family. All five moments (Σx, Σy, Σxy, Σx², Σy²)
    accumulate as EXACT int64 map-side partials (order-free sums), so
    the only floating-point work is the final correlation expression —
    subtraction, multiplication, division and IEEE-754 sqrt (exactly
    rounded by spec) over exact integers, shared term-for-term with the
    SQL oracle for a bit-identical result."""
    from ray.data.aggregate import Max, Sum

    from ocr_ray.ops.dedup import _with_schema

    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxy", pa.int64()),
            ("sxx", pa.int64()),
            ("syy", pa.int64()),
            ("mx", pa.int64()),
        ]
    )

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        x = t.column("n_chars").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        y = (
            pc.count_substring_regex(
                pc.coalesce(t.column("text"), pa.scalar("")), pattern=r"\S+"
            )
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        langs = np.asarray(t.column("lang").to_pylist(), dtype=object)
        uniq, codes = np.unique(langs, return_inverse=True)
        k = len(uniq)

        def seg(v):
            out = np.zeros(k, np.int64)
            np.add.at(out, codes, v)
            return out

        ones = np.ones(len(x), np.int64)
        return pa.table(
            {
                "lang": pa.array(uniq, pa.string()),
                "n": pa.array(seg(ones), pa.int64()),
                "sx": pa.array(seg(x), pa.int64()),
                "sy": pa.array(seg(y), pa.int64()),
                "sxy": pa.array(seg(x * y), pa.int64()),
                "sxx": pa.array(seg(x * x), pa.int64()),
                "syy": pa.array(seg(y * y), pa.int64()),
                # per-lang max coordinate: feeds the overflow guard in
                # finish() — the int64 moment sums wrap silently past
                # 2^63, which n·mx² bounds from above
                "mx": pa.array(
                    np.maximum.reduceat(
                        np.maximum(x, y)[np.argsort(codes, kind="stable")],
                        np.searchsorted(np.sort(codes), np.arange(k)),
                    ),
                    pa.int64(),
                ),
            }
        )

    merged = _with_schema(
        docs.map_batches(moments, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"),
            Max("mx", alias_name="mx"),
        ),
        part_schema,
    )

    out_schema = pa.schema(
        [("lang", pa.string()), ("n", pa.int64()), ("corr", pa.float64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        for n_i, mx_i in zip(
            t.column("n").to_pylist(), t.column("mx").to_pylist()
        ):
            # conservative exact bound (Python ints): every per-batch
            # and merged moment sum is ≤ n·mx², so below 2^63 nothing
            # wrapped anywhere in the int64 pipeline
            if int(n_i) * int(mx_i) * int(mx_i) >= 2 ** 63:
                raise OverflowError(
                    "length_token_correlation: int64 moment sums could "
                    "overflow for this group (n*max^2 >= 2^63) — shard "
                    "the corpus or widen the accumulator"
                )
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = t.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = t.column("sxy").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        sxx = t.column("sxx").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        syy = t.column("syy").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        # the exact term order the oracle replays:
        # (n*sxy - sx*sy) / (sqrt(n*sxx - sx*sx) * sqrt(n*syy - sy*sy))
        denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        corr = np.where(denom > 0.0, (n * sxy - sx * sy) / denom, 0.0)
        return pa.table(
            {
                "lang": t.column("lang"),
                "n": t.column("n").cast(pa.int64()),
                "corr": pa.array(corr, pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def length_robust_outliers(docs):
    """Per-language ROBUST length outliers: lower median, median
    absolute deviation, and the count of docs with
    |n_chars − median| > 3·1.4826·MAD — the robust z-score rule
    (Hampel/Iglewicz-Hoaglin), integer-exact end to end so the SQL
    oracle matches bit-for-bit: the only non-integers (3·1.4826) enter
    as the exact ratio 44478/10000, and both medians use the
    PERCENTILE_DISC-style rank (n+1)//2 in pure integer arithmetic.

    Scale shape: one (lang, n_chars) histogram shuffle — the count
    table is bounded by the length DOMAIN per language, not the corpus
    — then one vectorized pass per language block. The complement of
    ``length_outliers`` (mean/std z-score): MAD ignores the heavy tail
    that inflates the standard deviation."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def hist_partials(t: pa.Table) -> pa.Table:
        counted = (
            t.select(["lang", "n_chars"])
            .group_by(["lang", "n_chars"])
            .aggregate([("n_chars", "count")])
        )
        return counted.rename_columns(["lang", "n_chars", "partial"])

    counted = (
        docs.map_batches(hist_partials, batch_format="pyarrow")
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("partial", alias_name="cnt"))
    )

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("median_chars", pa.int64()),
            ("mad_chars", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_outliers", pa.int64()),
        ]
    )

    def _disc_median(values: np.ndarray, counts: np.ndarray) -> int:
        # values ascending; smallest value whose cumulative count
        # reaches rank (n+1)//2 — PERCENTILE_DISC(0.5) semantics
        cum = np.cumsum(counts)
        rank = (int(cum[-1]) + 1) // 2
        return int(values[np.searchsorted(cum, rank, side="left")])

    def finish_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        langs = block.column("lang").to_pylist()
        vals = block.column("n_chars").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        cols: dict[str, list] = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            v, c = vals[s:e], cnts[s:e]  # n_chars-sorted via sort_within
            med = _disc_median(v, c)
            dev = np.abs(v - med)
            order = np.argsort(dev, kind="stable")
            mad = _disc_median(dev[order], c[order])
            n_out = int(c[dev * 10000 > 44478 * mad].sum())
            cols["lang"].append(langs[s])
            cols["median_chars"].append(med)
            cols["mad_chars"].append(mad)
            cols["n_docs"].append(int(c.sum()))
            cols["n_outliers"].append(n_out)
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in out_schema}
        )

    return grouped_map(
        counted, ["lang"], finish_block, sort_within=("n_chars",)
    )


# ---------------------------------------- two-sample KS drift per source


def ks_by_group(rows, value_col: str = "n_chars", group_col: str = "source"):
    """Exact two-sample Kolmogorov-Smirnov statistic of each group's
    ``value_col`` distribution against the REST of the corpus — the
    standard drift / batch-effect gate run before mixing a new source
    into a training corpus (reference analogue: the per-source quality
    rollups in ocr_service.py's stats endpoints; this is their
    distribution-shape counterpart).

    Scale shape (same two-pass broadcast-histogram plan as
    ``curate.length_percent_rank``): pass 1 reduces the corpus to exact
    per-(group, value) counts — map-side per-batch value counts, one
    keyed aggregate; the result is bounded by #groups x #distinct
    values, independent of corpus row count. The KS sup runs entirely
    on that bounded table driver-side: both ECDFs are right-continuous
    step functions, so the supremum is attained on the union grid of
    step points, and evaluating |F_g - F_rest| at every distinct value
    is exact. Each division is a single IEEE op on exact integer
    counts, so the statistic is bit-stable against the SQL oracle's
    window-cumsum formulation.
    """
    from ray.data.aggregate import Sum

    hist = (
        rows.map_batches(
            lambda t: pa.table(
                {
                    "g": t.column(group_col),
                    "v": t.column(value_col),
                    "c": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            )
            .group_by(["g", "v"])
            .aggregate([("c", "sum")])
            .rename_columns(["g", "v", "c"]),
            batch_format="pyarrow",
        )
        .groupby(["g", "v"])
        .aggregate(Sum("c", alias_name="cnt"))
    )
    tbl = pa.Table.from_pylist(
        hist.take_all(),  # bounded by #groups x #distinct values
        schema=pa.schema(
            [("g", pa.string()), ("v", pa.int64()), ("cnt", pa.int64())]
        ),
    ).sort_by([("v", "ascending"), ("g", "ascending")])

    grid, grid_idx = np.unique(
        tbl.column("v").to_numpy(zero_copy_only=False), return_inverse=True
    )
    groups = tbl.column("g").to_pylist()
    cnts = tbl.column("cnt").to_numpy(zero_copy_only=False)
    names = sorted(set(groups))
    g_idx = np.array([names.index(g) for g in groups], dtype=np.int64)

    # dense (#groups x #grid) count matrix -> per-group cumulative counts
    mat = np.zeros((len(names), len(grid)), dtype=np.int64)
    np.add.at(mat, (g_idx, grid_idx), cnts)
    cum = np.cumsum(mat, axis=1)
    cum_all = cum.sum(axis=0)
    n_g = mat.sum(axis=1)
    n_all = int(n_g.sum())

    out_g, out_ns, out_nr, out_ks = [], [], [], []
    for i, name in enumerate(names):
        nr = n_all - int(n_g[i])
        if nr == 0 or n_g[i] == 0:
            continue  # KS vs an empty complement is undefined
        f_g = cum[i].astype(np.float64) / np.float64(n_g[i])
        f_r = (cum_all - cum[i]).astype(np.float64) / np.float64(nr)
        out_g.append(name)
        out_ns.append(int(n_g[i]))
        out_nr.append(nr)
        out_ks.append(float(np.max(np.abs(f_g - f_r))))
    return pa.table(
        {
            group_col: pa.array(out_g, pa.string()),
            "n_group": pa.array(out_ns, pa.int64()),
            "n_rest": pa.array(out_nr, pa.int64()),
            "ks_stat": pa.array(out_ks, pa.float64()),
        }
    )


def ks_by_group_sql(value_col: str = "n_chars", group_col: str = "source",
                    table: str = "documents") -> str:
    """SQL replay: per-(group, value) counts, cross the group list with
    the union value grid, window-cumsum both the group's and the global
    counts, and take MAX(ABS(..)) of the two exactly-divided ECDFs.
    The divisions are the same single IEEE ops the numpy side performs
    on identical integers, so the float compares exactly."""
    return (
        "WITH c AS (\n"
        f" SELECT {group_col} AS g, {value_col} AS v, COUNT(*) AS n\n"
        f" FROM {table} GROUP BY 1, 2\n"
        "), tot AS (SELECT g, SUM(n) AS ns FROM c GROUP BY 1),\n"
        "gtot AS (SELECT SUM(n) AS na FROM c),\n"
        "vall AS (SELECT v, SUM(n) AS nv FROM c GROUP BY 1),\n"
        "sg AS (SELECT t.g, a.v, a.nv FROM tot t CROSS JOIN vall a),\n"
        "j AS (\n"
        " SELECT sg.g, sg.v, sg.nv, COALESCE(c.n, 0) AS n_s\n"
        " FROM sg LEFT JOIN c ON c.g = sg.g AND c.v = sg.v\n"
        "), cum AS (\n"
        " SELECT g, v,\n"
        "  SUM(n_s) OVER (PARTITION BY g ORDER BY v) AS cum_s,\n"
        "  SUM(nv) OVER (PARTITION BY g ORDER BY v) AS cum_all\n"
        " FROM j\n"
        ")\n"
        f"SELECT cum.g AS {group_col},\n"
        " CAST(t.ns AS BIGINT) AS n_group,\n"
        " CAST(gt.na - t.ns AS BIGINT) AS n_rest,\n"
        " MAX(ABS(CAST(cum_s AS DOUBLE) / CAST(t.ns AS DOUBLE)\n"
        "   - CAST(cum_all - cum_s AS DOUBLE)"
        " / CAST(gt.na - t.ns AS DOUBLE))) AS ks_stat\n"
        "FROM cum JOIN tot t USING (g) CROSS JOIN gtot gt\n"
        "WHERE gt.na > t.ns AND t.ns > 0\n"
        "GROUP BY 1, 2, 3"
    )


# ---------------------------------------------- Welch t drift per source


def welch_t_by_group(rows, value_col: str = "n_chars",
                     group_col: str = "source"):
    """Welch's unequal-variance t statistic of each group's
    ``value_col`` mean against the REST of the corpus — the parametric
    sibling of ``ks_by_group`` (KS feels distribution shape, Welch
    feels the mean under unequal variances; pipelines gate on both).

    Exact integer moments (n, Σx, Σx²) per group collapse map-side;
    the t statistic folds driver-side on the bounded group table with
    the float expression written identically in the oracle: unbiased
    variances s² = (n·Σx² − (Σx)²) / (n·(n−1)), then
    t = (m_g − m_r) / sqrt(s²_g/n_g + s²_r/n_r).

    Output: (group, n_group, n_rest, t_stat); groups with fewer than
    2 members on either side are dropped (variance undefined).
    """
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        v = pc.cast(t[value_col], pa.int64()).to_numpy(zero_copy_only=False)
        g = pa.table(
            {
                "g": t[group_col],
                "n": pa.array(np.ones(len(v), np.int64), pa.int64()),
                "s1": pa.array(v, pa.int64()),
                "s2": pa.array(v * v, pa.int64()),
            }
        ).group_by("g").aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")]
        )
        return g.rename_columns(["g", "n", "s1", "s2"])

    rows_agg = (
        rows.map_batches(partials, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s1", alias_name="s1"),
            Sum("s2", alias_name="s2"),
        )
    ).take_all()  # bounded: one row per group

    N = sum(int(r["n"]) for r in rows_agg)
    S1 = sum(int(r["s1"]) for r in rows_agg)
    S2 = sum(int(r["s2"]) for r in rows_agg)

    o_g, o_ng, o_nr, o_t = [], [], [], []
    for r in sorted(rows_agg, key=lambda x: x["g"]):
        n_g, s1_g, s2_g = int(r["n"]), int(r["s1"]), int(r["s2"])
        n_r, s1_r, s2_r = N - n_g, S1 - s1_g, S2 - s2_g
        if n_g < 2 or n_r < 2:
            continue
        m_g = np.float64(s1_g) / np.float64(n_g)
        m_r = np.float64(s1_r) / np.float64(n_r)
        var_g = np.float64(n_g * s2_g - s1_g * s1_g) / np.float64(
            n_g * (n_g - 1)
        )
        var_r = np.float64(n_r * s2_r - s1_r * s1_r) / np.float64(
            n_r * (n_r - 1)
        )
        denom = np.sqrt(
            var_g / np.float64(n_g) + var_r / np.float64(n_r)
        )
        if denom == 0:
            continue
        o_g.append(r["g"])
        o_ng.append(n_g)
        o_nr.append(n_r)
        o_t.append(float((m_g - m_r) / denom))
    return pa.table(
        {
            group_col: pa.array(o_g, pa.string()),
            "n_group": pa.array(o_ng, pa.int64()),
            "n_rest": pa.array(o_nr, pa.int64()),
            "t_stat": pa.array(o_t, pa.float64()),
        }
    )


def welch_t_by_group_sql(value_col: str = "n_chars",
                         group_col: str = "source",
                         table: str = "documents") -> str:
    """Identical IEEE expression tree over HUGEINT-exact moments."""
    return (
        "WITH m AS (\n"
        f" SELECT {group_col} AS g, COUNT(*) AS n,\n"
        f"  SUM(CAST({value_col} AS BIGINT)) AS s1,\n"
        f"  SUM(CAST({value_col} AS BIGINT) * CAST({value_col} AS BIGINT))"
        " AS s2\n"
        f" FROM {table} GROUP BY 1\n"
        "), tot AS (\n"
        " SELECT SUM(n) AS nn, SUM(s1) AS t1, SUM(s2) AS t2 FROM m\n"
        ")\n"
        f"SELECT m.g AS {group_col}, CAST(m.n AS BIGINT) AS n_group,\n"
        " CAST(tot.nn - m.n AS BIGINT) AS n_rest,\n"
        " (CAST(m.s1 AS DOUBLE) / CAST(m.n AS DOUBLE)\n"
        "  - CAST(tot.t1 - m.s1 AS DOUBLE) / CAST(tot.nn - m.n AS DOUBLE))\n"
        " / SQRT(\n"
        "   CAST(m.n * m.s2 - m.s1 * m.s1 AS DOUBLE)"
        " / CAST(m.n * (m.n - 1) AS DOUBLE) / CAST(m.n AS DOUBLE)\n"
        "   + CAST((tot.nn - m.n) * (tot.t2 - m.s2)"
        " - (tot.t1 - m.s1) * (tot.t1 - m.s1) AS DOUBLE)\n"
        "     / CAST((tot.nn - m.n) * (tot.nn - m.n - 1) AS DOUBLE)"
        " / CAST(tot.nn - m.n AS DOUBLE)\n"
        " ) AS t_stat\n"
        "FROM m CROSS JOIN tot\n"
        "WHERE m.n >= 2 AND tot.nn - m.n >= 2\n"
        " AND (CAST(m.n * m.s2 - m.s1 * m.s1 AS DOUBLE)"
        " / CAST(m.n * (m.n - 1) AS DOUBLE) / CAST(m.n AS DOUBLE)\n"
        "  + CAST((tot.nn - m.n) * (tot.t2 - m.s2)"
        " - (tot.t1 - m.s1) * (tot.t1 - m.s1) AS DOUBLE)\n"
        "    / CAST((tot.nn - m.n) * (tot.nn - m.n - 1) AS DOUBLE)"
        " / CAST(tot.nn - m.n AS DOUBLE)) <> 0"
    )
