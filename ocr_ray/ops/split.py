"""Deterministic corpus partitioning for training mixes.

- ``train_split_stats``: assign every document to train/val/test by the
  SQL-reproducible multiplicative hash of ``doc_id`` (the same Knuth
  constant as the samplers in ops/sample.py and ops/tfidf.py) and roll
  up per-(split, lang) document and character counts. The assignment is
  a pure function of the key — stable under re-runs, repartitioning and
  resume, which is the property a 100 TB training-data split actually
  needs (no RNG state, no global coordination).

- ``rollup_lang_source``: GROUPING-SETS-style rollup
  ((lang, source) → (lang) → ()) with the 'ALL' sentinel. Shape: one
  distributed partial aggregation per batch → one tiny groupby on the
  (lang × source)-row base — the super-aggregates are derived from the
  base aggregate, never from a second scan of the corpus.

Both shuffle only a handful of partial-aggregate rows per input batch
regardless of corpus size.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)

# percentile thresholds of the 0-99 hash bucket: [0, 90) train,
# [90, 95) val, [95, 100) test
TRAIN_PCT = 90
VAL_PCT = 95
_SPLIT_NAMES = ("train", "val", "test")


def split_of(ids: np.ndarray) -> np.ndarray:
    """Vectorized split code (0=train, 1=val, 2=test) per doc_id —
    ``((doc_id * 2654435761) mod 2^32) mod 100`` against the
    thresholds; bit-identical to the SQL oracle's HUGEINT arithmetic
    for non-negative ids. Negative ids raise: the engine's uint64
    wraparound is a floor-mod where SQL's HUGEINT ``%`` truncates
    (every negative id would land in 'train' SQL-side), so the two
    would silently disagree — fail loudly instead."""
    if ids.size and int(ids.min()) < 0:
        raise ValueError(
            "split_of requires non-negative doc_id (negative ids hash "
            "differently in the engine and the SQL oracle)"
        )
    pct = ((ids.astype(np.uint64) * _KNUTH) & _M32) % np.uint64(100)
    return (pct >= TRAIN_PCT).astype(np.int8) + (pct >= VAL_PCT).astype(np.int8)


def _partials(batch: pa.Table) -> pa.Table:
    if batch.column("lang").null_count:
        raise ValueError(
            "train_split_stats: null lang values are unsupported — "
            "assign a language upstream (np.unique cannot order None, "
            "and a silent 'None' group would diverge from SQL's NULL)"
        )
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    chars = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
    codes = split_of(ids).astype(np.int64)
    langs, lang_idx = np.unique(
        np.asarray(batch.column("lang").to_pylist(), dtype=object),
        return_inverse=True,
    )
    key = codes * len(langs) + lang_idx
    nkeys = 3 * len(langs)
    n_docs = np.bincount(key, minlength=nkeys)
    sum_chars = np.bincount(key, weights=chars, minlength=nkeys).astype(np.int64)
    live = np.flatnonzero(n_docs)
    return pa.table(
        {
            "split": pa.array(
                [_SPLIT_NAMES[k // len(langs)] for k in live], pa.string()
            ),
            "lang": pa.array([langs[k % len(langs)] for k in live], pa.string()),
            "n_docs": pa.array(n_docs[live], pa.int64()),
            "sum_chars": pa.array(sum_chars[live], pa.int64()),
        }
    )


def train_split_stats(docs):
    """(split, lang, n_docs, sum_chars) — deterministic 90/5/5
    hash split of ``docs`` (needs doc_id, lang, n_chars). The shuffle
    carries ≤ 3 × n_langs partial rows per input batch."""
    from ray.data.aggregate import Sum

    return (
        docs.map_batches(_partials, batch_format="pyarrow")
        .groupby(["split", "lang"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
    )


def train_split_sql() -> str:
    return (
        "WITH b AS (\n"
        " SELECT lang, n_chars,\n"
        "  ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296) % 100 AS pct\n"
        " FROM documents\n"
        "), s AS (\n"
        f" SELECT CASE WHEN pct < {TRAIN_PCT} THEN 'train'\n"
        f"             WHEN pct < {VAL_PCT} THEN 'val'\n"
        "             ELSE 'test' END AS split, lang, n_chars FROM b\n"
        ")\n"
        "SELECT split, lang, CAST(COUNT(*) AS BIGINT) AS n_docs,\n"
        " CAST(SUM(n_chars) AS BIGINT) AS sum_chars\n"
        "FROM s GROUP BY split, lang"
    )


def _base_partials(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    for col in ("lang", "source"):
        c = batch.column(col)
        if c.null_count:
            raise ValueError(
                f"rollup/cube: null {col} values are unsupported — a "
                "silent 'None' group would diverge from SQL's NULL"
            )
        bad = pc.or_(
            pc.equal(c, pa.scalar("ALL")),
            pc.match_substring(c, "\x1f"),
        )
        if pc.any(bad).as_py():
            raise ValueError(
                f"rollup/cube: {col} values colliding with the 'ALL' "
                "sentinel or the \\x1f separator are unsupported"
            )
    chars = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
    langs = np.asarray(batch.column("lang").to_pylist(), dtype=object)
    sources = np.asarray(batch.column("source").to_pylist(), dtype=object)
    pairs, idx = np.unique(
        np.char.add(np.char.add(langs.astype(str), "\x1f"), sources.astype(str)),
        return_inverse=True,
    )
    n_docs = np.bincount(idx, minlength=len(pairs))
    sum_chars = np.bincount(idx, weights=chars, minlength=len(pairs)).astype(
        np.int64
    )
    split_pairs = [p.split("\x1f", 1) for p in pairs]
    return pa.table(
        {
            "lang": pa.array([p[0] for p in split_pairs], pa.string()),
            "source": pa.array([p[1] for p in split_pairs], pa.string()),
            "n_docs": pa.array(n_docs, pa.int64()),
            "sum_chars": pa.array(sum_chars, pa.int64()),
        }
    )


def rollup_lang_source(docs):
    """(lang, source, n_docs, sum_chars) at three grouping levels —
    (lang, source), (lang, 'ALL'), ('ALL', 'ALL') — over ``docs``
    (needs lang, source, n_chars). Super-aggregate levels re-aggregate
    the tiny (lang × source)-row base, not the corpus."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    base = (
        docs.map_batches(_base_partials, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
        # materialize the ≤ (n_langs × n_sources)-row base so the three
        # union branches below share ONE corpus scan instead of each
        # re-executing the aggregate lineage (bounded by key cardinality,
        # never by corpus size)
        .materialize()
    )

    def _all_source(t: pa.Table) -> pa.Table:
        return t.append_column(
            "source", pa.array(["ALL"] * t.num_rows, pa.string())
        )

    lang_level = (
        base.groupby("lang")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
        .map_batches(_all_source, batch_format="pyarrow")
    )

    def _totals(t: pa.Table) -> pa.Table:
        # single ≤(n_langs × n_sources)-row block after repartition(1)
        return pa.table(
            {
                "lang": pa.array(["ALL"], pa.string()),
                "source": pa.array(["ALL"], pa.string()),
                "n_docs": pa.array(
                    [pc.sum(t.column("n_docs")).as_py() or 0], pa.int64()
                ),
                "sum_chars": pa.array(
                    [pc.sum(t.column("sum_chars")).as_py() or 0], pa.int64()
                ),
            }
        )

    total_level = base.repartition(1).map_batches(
        _totals, batch_format="pyarrow"
    )
    cols = ["lang", "source", "n_docs", "sum_chars"]
    return (
        base.select_columns(cols)
        .union(lang_level.select_columns(cols))
        .union(total_level.select_columns(cols))
    )


def rollup_sql() -> str:
    return (
        "SELECT COALESCE(lang, 'ALL') AS lang,"
        " COALESCE(source, 'ALL') AS source,\n"
        " CAST(COUNT(*) AS BIGINT) AS n_docs,"
        " CAST(SUM(n_chars) AS BIGINT) AS sum_chars\n"
        "FROM documents GROUP BY ROLLUP (lang, source)"
    )


def cube_lang_source(docs):
    """Full CUBE over (lang, source): the ROLLUP levels plus the
    source-only marginal — all four grouping sets derived from the SAME
    materialized (lang × source) base aggregate, one corpus scan total
    (the marginal the mixing dashboard reads: per-source totals across
    languages)."""
    from ray.data.aggregate import Sum

    def _all_lang(t: pa.Table) -> pa.Table:
        lang_all = pa.array(["ALL"] * t.num_rows, pa.string())
        return pa.table(
            {
                "lang": lang_all,
                "source": t.column("source"),
                "n_docs": t.column("n_docs"),
                "sum_chars": t.column("sum_chars"),
            }
        )

    rolled = rollup_lang_source(docs)
    # rollup_lang_source materializes the shared base internally; the
    # source marginal re-aggregates the (lang, source) rows of the
    # rolled output (filtering out its super-aggregate rows)
    def _base_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.and_(
                pc.not_equal(t.column("lang"), pa.scalar("ALL")),
                pc.not_equal(t.column("source"), pa.scalar("ALL")),
            )
        )

    rolled = rolled.materialize()
    source_level = (
        rolled.map_batches(_base_only, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
        .map_batches(_all_lang, batch_format="pyarrow")
    )
    cols = ["lang", "source", "n_docs", "sum_chars"]
    return rolled.select_columns(cols).union(
        source_level.select_columns(cols)
    )


def cube_sql() -> str:
    return (
        "SELECT COALESCE(lang, 'ALL') AS lang,"
        " COALESCE(source, 'ALL') AS source,\n"
        " CAST(COUNT(*) AS BIGINT) AS n_docs,"
        " CAST(SUM(n_chars) AS BIGINT) AS sum_chars\n"
        "FROM documents GROUP BY CUBE (lang, source)"
    )


def split_leakage_report(docs):
    """One-row data-leakage QA gate: how many exact-duplicate content
    fingerprints straddle the train/val/test hash split (a duplicate of
    a training document sitting in the eval split contaminates the
    eval), plus how many documents carry such a fingerprint.

    Scale shape: each batch collapses to distinct slim
    (fingerprint, split, partial-count) rows, one keyed sum merges
    them, and the per-fingerprint split-span resolves vectorized inside
    the fingerprint-partitioned block; a final tiny sum pair finishes.
    Documents never shuffle. The oracle reuses the split's HUGEINT hash
    and the dedup family's fingerprint expression verbatim."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _hash_batch, _with_schema
    from ocr_ray.stages.grouped import grouped_map

    part_schema = pa.schema(
        [
            ("fingerprint", pa.string()),
            ("split", pa.int64()),
            ("c", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        hashed = _hash_batch(t)  # (doc_id, fingerprint)
        ids = hashed.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        fps = np.asarray(
            hashed.column("fingerprint").to_pylist(), dtype=object
        )
        sp = split_of(ids).astype(np.int64)
        key = np.char.add(
            np.char.add(fps.astype(str), "\x1f"), sp.astype(str)
        )
        uniq, idx = np.unique(key, return_inverse=True)
        counts = np.bincount(idx, minlength=len(uniq)).astype(np.int64)
        fp_u = np.array([k.split("\x1f")[0] for k in uniq], dtype=object)
        sp_u = np.array([int(k.split("\x1f")[1]) for k in uniq], np.int64)
        return pa.table(
            {
                "fingerprint": pa.array(fp_u, pa.string()),
                "split": pa.array(sp_u, pa.int64()),
                "c": pa.array(counts, pa.int64()),
            }
        )

    merged = _with_schema(
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby(["fingerprint", "split"])
        .aggregate(Sum("c", alias_name="c")),
        part_schema,
    )

    flag_schema = pa.schema(
        [("leaky", pa.int64()), ("leaked_docs", pa.int64())]
    )

    def span_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return flag_schema.empty_table()
        c = block.column("c").to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, n))
        gidx = np.repeat(np.arange(len(starts)), sizes)
        n_splits = np.bincount(gidx, minlength=len(starts))
        docs_per_fp = np.zeros(len(starts), np.int64)
        np.add.at(docs_per_fp, gidx, c)
        leaky = n_splits > 1
        return pa.table(
            {
                "leaky": pa.array(
                    leaky.astype(np.int64), pa.int64()
                ),
                "leaked_docs": pa.array(
                    np.where(leaky, docs_per_fp, 0), pa.int64()
                ),
            }
        )

    agg = grouped_map(merged, ["fingerprint"], span_block).aggregate(
        Sum("leaky", alias_name="n_leaky_fingerprints"),
        Sum("leaked_docs", alias_name="n_leaked_docs"),
    )
    return pa.Table.from_pylist(
        [
            {
                "n_leaky_fingerprints": agg["n_leaky_fingerprints"] or 0,
                "n_leaked_docs": agg["n_leaked_docs"] or 0,
            }
        ],
        schema=pa.schema(
            [
                ("n_leaky_fingerprints", pa.int64()),
                ("n_leaked_docs", pa.int64()),
            ]
        ),
    )


def split_leakage_sql(fp_sql: str) -> str:
    """``fp_sql``: the dedup family's fingerprint SQL expression
    (driver-owned so both oracles stay byte-identical)."""
    _fp = fp_sql
    return (
        "WITH s AS (\n"
        f" SELECT {_fp} AS fp,\n"
        "  CASE WHEN ((CAST(doc_id AS HUGEINT) * 2654435761)"
        f" % 4294967296) % 100 < {TRAIN_PCT} THEN 0\n"
        "       WHEN ((CAST(doc_id AS HUGEINT) * 2654435761)"
        f" % 4294967296) % 100 < {VAL_PCT} THEN 1\n"
        "       ELSE 2 END AS split\n"
        " FROM documents\n"
        "), g AS (\n"
        " SELECT fp, COUNT(DISTINCT split) AS ns, COUNT(*) AS nd\n"
        " FROM s GROUP BY fp\n"
        ")\n"
        "SELECT\n"
        " CAST(COUNT(*) FILTER (WHERE ns > 1) AS BIGINT)"
        " AS n_leaky_fingerprints,\n"
        " CAST(COALESCE(SUM(nd) FILTER (WHERE ns > 1), 0) AS BIGINT)"
        " AS n_leaked_docs\n"
        "FROM g"
    )


# --------------------------------------- k-fold assignment balance audit


def fold_balance(docs, k: int = 5):
    """Hash-assigned k-fold cross-validation folds with a per-fold
    language-balance chi-square: fold = Knuth-hash(doc_id) mod k, and
    for each fold the chi-square of its lang distribution against the
    whole corpus's — a high value means hash folding broke on this
    corpus (correlated ids) and a stratified fold is needed.

    One map-side (fold, lang) count + one tiny keyed aggregate; the
    chi-square folds driver-side on the bounded k x #langs table.
    Output: (fold, n_docs, chi2) with the exact-int-moments float tree
    shared with keyness_terms.
    """
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        if ids.size and int(ids.min()) < 0:
            raise ValueError("fold_balance requires non-negative doc_id")
        fold = (
            (ids.astype(np.uint64) * _KNUTH) & _M32
        ) % np.uint64(k)
        t = pa.table(
            {
                "fold": pa.array(fold.astype(np.int64), pa.int64()),
                "lang": batch.column("lang"),
            }
        )
        g = t.group_by(["fold", "lang"]).aggregate([([], "count_all")])
        return g.rename_columns(["fold", "lang", "n"])

    cells = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby(["fold", "lang"])
        .aggregate(Sum("n", alias_name="n"))
    ).take_all()  # bounded: k x #langs rows

    langs = sorted({r["lang"] for r in cells})
    folds = sorted({int(r["fold"]) for r in cells})
    mat = {(int(r["fold"]), r["lang"]): int(r["n"]) for r in cells}
    lang_tot = {
        lang: sum(mat.get((f, lang), 0) for f in folds) for lang in langs
    }
    grand = sum(lang_tot.values())

    out_fold, out_n, out_chi = [], [], []
    for f in folds:
        n_f = sum(mat.get((f, lang), 0) for lang in langs)
        chi = np.float64(0.0)
        for lang in langs:
            obs = mat.get((f, lang), 0)
            # expected = n_f * lang_tot / grand; chi2 term written as
            # (grand*obs - n_f*tot)^2 / (grand * n_f * tot) with exact
            # integer numerator — identical IEEE tree in the oracle
            num = grand * obs - n_f * lang_tot[lang]
            den = grand * n_f * lang_tot[lang]
            if den:
                chi = chi + np.float64(num) * np.float64(num) / np.float64(
                    den
                )
        out_fold.append(f)
        out_n.append(n_f)
        out_chi.append(float(chi))
    return pa.table(
        {
            "fold": pa.array(out_fold, pa.int64()),
            "n_docs": pa.array(out_n, pa.int64()),
            "chi2": pa.array(out_chi, pa.float64()),
        }
    )


def fold_balance_sql(k: int = 5) -> str:
    """SQL replay of the fold hash and the exact-integer chi-square
    accumulation. The per-lang terms are summed in lang order (the
    engine folds langs sorted), so the float sum order matches:
    SUM() OVER (ORDER BY lang ROWS UNBOUNDED PRECEDING) picks the last
    cumulative value per fold."""
    return (
        "WITH f AS (\n"
        f" SELECT ((doc_id * 2654435761) % 4294967296) % {k} AS fold,"
        " lang FROM documents\n"
        "), cells AS (\n"
        " SELECT fold, lang, COUNT(*) AS n FROM f GROUP BY 1, 2\n"
        "), lt AS (SELECT lang, SUM(n) AS tot FROM cells GROUP BY 1),\n"
        "ft AS (SELECT fold, SUM(n) AS n_f FROM cells GROUP BY 1),\n"
        "g AS (SELECT SUM(n) AS grand FROM cells),\n"
        "grid AS (SELECT ft.fold, ft.n_f, lt.lang, lt.tot"
        " FROM ft CROSS JOIN lt),\n"
        "terms AS (\n"
        " SELECT grid.fold, grid.n_f,\n"
        "  CAST(g.grand * COALESCE(c.n, 0) - grid.n_f * grid.tot"
        " AS DOUBLE) AS num,\n"
        "  CAST(g.grand * grid.n_f * grid.tot AS DOUBLE) AS den,\n"
        "  grid.lang\n"
        " FROM grid CROSS JOIN g\n"
        " LEFT JOIN cells c ON c.fold = grid.fold AND c.lang = grid.lang\n"
        "), cum AS (\n"
        " SELECT fold, n_f, lang,\n"
        "  SUM(num * num / den) OVER (PARTITION BY fold ORDER BY lang\n"
        "   ROWS UNBOUNDED PRECEDING) AS chi,\n"
        "  ROW_NUMBER() OVER (PARTITION BY fold ORDER BY lang DESC) AS rn\n"
        " FROM terms WHERE den <> 0\n"
        ")\n"
        "SELECT fold, CAST(n_f AS BIGINT) AS n_docs, chi AS chi2\n"
        "FROM cum WHERE rn = 1"
    )


def neyman_allocation(docs, budget: int = 1000):
    """Neyman-optimal stratified sample allocation over sources:
    stratum weight w_s = N_s·σ_s computed EXACTLY as
    isqrt(N_s·Σx² − (Σx)²) on the n_chars column (that product is
    N_s²·Var_s, so its integer square root IS N_s·σ_s floored), then
    ``budget`` seats assigned by the largest-remainder method
    (floor(B·w/W) each, leftovers to the largest B·w mod W, ties by
    source ascending) — the classical survey-design allocator, with
    every comparison in exact integers so the oracle replays the
    allocation seat-for-seat.

    Scale shape: one map-side moment partial per batch (count, Σx,
    Σx²), one tiny keyed sum (one row per source); the allocation
    folds driver-side on the bounded source table.  The oracle's
    isqrt is floor(sqrt(DOUBLE)) followed by a ±1 integer correction,
    exact for any BIGINT.

    Output: (source, n_docs, weight, alloc) sorted by source.
    """
    import math

    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        x = t.column("n_chars").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        src = np.asarray(t.column("source").to_pylist(), dtype=object)
        uniq, inv = np.unique(src, return_inverse=True)
        # int64 accumulators (ADVICE r03: float64 bincount weights
        # silently lose exactness past 2^53 — sum of n_chars^2 gets
        # there at web scale)
        s1 = np.zeros(len(uniq), np.int64)
        np.add.at(s1, inv, x)
        s2 = np.zeros(len(uniq), np.int64)
        np.add.at(s2, inv, x * x)
        return pa.table(
            {
                "source": pa.array(list(uniq), pa.string()),
                "n": pa.array(np.bincount(inv), pa.int64()),
                "s1": pa.array(s1, pa.int64()),
                "s2": pa.array(s2, pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s1", alias_name="s1"),
            Sum("s2", alias_name="s2"),
        )
    ).take_all()  # bounded: one row per source
    rows.sort(key=lambda r: r["source"])

    srcs = [r["source"] for r in rows]
    ns = [int(r["n"]) for r in rows]
    ws = [
        math.isqrt(max(int(r["n"]) * int(r["s2"]) - int(r["s1"]) ** 2, 0))
        for r in rows
    ]
    total_w = sum(ws)
    if total_w == 0:
        alloc = [0] * len(ws)
    else:
        alloc = [budget * w // total_w for w in ws]
        rem = [budget * w % total_w for w in ws]
        leftover = budget - sum(alloc)
        order = sorted(
            range(len(ws)), key=lambda i: (-rem[i], srcs[i])
        )
        for i in order[:leftover]:
            alloc[i] += 1
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "n_docs": pa.array(ns, pa.int64()),
            "weight": pa.array(ws, pa.int64()),
            "alloc": pa.array(alloc, pa.int64()),
        }
    )


def neyman_allocation_sql(budget: int = 1000) -> str:
    return (
        "WITH m AS (\n"
        " SELECT source, COUNT(*)::HUGEINT AS n,\n"
        "  SUM(n_chars)::HUGEINT AS s1,\n"
        "  SUM(n_chars::HUGEINT * n_chars)::HUGEINT AS s2\n"
        " FROM documents GROUP BY source\n"
        "), v AS (\n"
        " SELECT source, n, GREATEST(n * s2 - s1 * s1, 0) AS num FROM m\n"
        "), r0 AS (\n"
        " SELECT source, n, num,\n"
        "  CAST(floor(sqrt(CAST(num AS DOUBLE))) AS HUGEINT) AS s_approx\n"
        " FROM v\n"
        "), w AS (\n"
        " SELECT source, n,\n"
        "  s_approx\n"
        "   - CASE WHEN s_approx * s_approx > num THEN 1 ELSE 0 END\n"
        "   + CASE WHEN (s_approx + 1) * (s_approx + 1) <= num"
        " THEN 1 ELSE 0 END AS wt\n"
        " FROM r0\n"
        "), tot AS (SELECT SUM(wt) AS tw FROM w),\n"
        "base AS (\n"
        f" SELECT source, n, wt,\n"
        f"  CASE WHEN tot.tw = 0 THEN 0 ELSE ({budget}::HUGEINT * wt) // tot.tw END AS fl,\n"
        f"  CASE WHEN tot.tw = 0 THEN 0 ELSE ({budget}::HUGEINT * wt) % tot.tw END AS rem\n"
        " FROM w, tot\n"
        "), lo AS (\n"
        f" SELECT {budget} - SUM(fl) AS leftover FROM base\n"
        "), rk AS (\n"
        " SELECT source, n, wt, fl, rem,\n"
        "  ROW_NUMBER() OVER (ORDER BY rem DESC, source ASC) AS rn\n"
        " FROM base\n"
        ")\n"
        "SELECT source, CAST(n AS BIGINT) AS n_docs,\n"
        " CAST(wt AS BIGINT) AS weight,\n"
        " CAST(fl + CASE WHEN (SELECT tw FROM tot) > 0"
        " AND rn <= (SELECT leftover FROM lo)"
        " THEN 1 ELSE 0 END AS BIGINT) AS alloc\n"
        "FROM rk"
    )


def leakage_safe_split(docs, threshold: float = 0.5,
                       shingle_n: int = 3, max_df: int = 256):
    """Near-dup-aware train/val/test assignment — the FIX for what
    ``split_leakage_report`` measures: hashing raw doc_ids scatters
    near-duplicate documents across splits (test leakage), so this
    op splits by the near-dup GROUP instead: every doc adopts its
    connected-component label (min doc_id over the exact-jaccard ≥
    ``threshold`` pair graph; singletons label themselves) and the
    split hash is taken on the LABEL — a whole duplicate cluster lands
    in one split by construction.

    Scale shape: the proven inverted-index pair machinery + pointer-
    doubling components (slim rows); the label join is ONE keyed
    min-aggregate over the union of component rows and identity rows —
    no driver set, no broadcast.

    Output: (doc_id, group_label, split)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    from ocr_ray.ops.dedup import (
        _with_schema,
        connected_components,
        ngram_jaccard_pairs,
    )

    pairs = ngram_jaccard_pairs(
        docs, shingle_n=shingle_n, threshold=threshold, max_df=max_df
    )
    comp = connected_components(pairs)

    lab_schema = pa.schema(
        [("doc_id", pa.int64()), ("group_label", pa.int64())]
    )

    def comp_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "node" not in t.column_names:
            return lab_schema.empty_table()
        return pa.table(
            {
                "doc_id": t.column("node").cast(pa.int64()),
                "group_label": t.column("label").cast(pa.int64()),
            }
        )

    def identity_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return lab_schema.empty_table()
        ids = t.column("doc_id").cast(pa.int64())
        return pa.table({"doc_id": ids, "group_label": ids})

    labels = _with_schema(
        docs.select_columns(["doc_id"])
        .map_batches(identity_rows, batch_format="pyarrow")
        .union(comp.map_batches(comp_rows, batch_format="pyarrow"))
        .groupby("doc_id")
        .aggregate(Min("group_label", alias_name="group_label")),
        lab_schema,
    )

    def assign(t: pa.Table) -> pa.Table:
        out_schema = lab_schema.append(pa.field("split", pa.string()))
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        lab = (
            t.column("group_label")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return t.append_column(
            "split", pa.array(_SPLIT_NAMES_ARR[split_of(lab)], pa.string())
        )

    return labels.map_batches(assign, batch_format="pyarrow")


_SPLIT_NAMES_ARR = np.array(_SPLIT_NAMES)


def leakage_safe_split_sql(shingles_body: str, threshold: float = 0.5,
                           max_df: int = 256) -> str:
    """SQL replay: proven jaccard pairs + recursive-CTE components;
    label = COALESCE(component, doc_id); split hash on the label."""
    return (
        "WITH RECURSIVE " + shingles_body + ",\n"
        "kdf AS (SELECT shingle, COUNT(*) AS dfc FROM sh"
        " GROUP BY shingle),\n"
        "inter AS (\n"
        " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
        " CAST(COUNT(*) AS BIGINT) AS intersection\n"
        " FROM sh a JOIN sh b USING (shingle) JOIN kdf USING (shingle)\n"
        f" WHERE a.doc_id < b.doc_id AND kdf.dfc <= {max_df}"
        " GROUP BY 1, 2\n"
        "), prs AS (\n"
        " SELECT doc_a, doc_b FROM inter\n"
        " JOIN sizes sa ON sa.doc_id = inter.doc_a\n"
        " JOIN sizes sb ON sb.doc_id = inter.doc_b\n"
        " WHERE CAST(intersection AS DOUBLE)"
        " / CAST(sa.sz + sb.sz - intersection AS DOUBLE)"
        f" >= {threshold}\n"
        "), und AS (\n"
        " SELECT doc_a AS a, doc_b AS b FROM prs"
        " UNION SELECT doc_b, doc_a FROM prs\n"
        "), reach(node, r) AS (\n"
        " SELECT a, a FROM und UNION SELECT b, b FROM und\n"
        " UNION SELECT u.a, r.r FROM und u JOIN reach r ON u.b = r.node\n"
        "), comp AS (\n"
        " SELECT node, MIN(r) AS component FROM reach GROUP BY node\n"
        "), lab AS (\n"
        " SELECT d.doc_id,"
        " CAST(COALESCE(c.component, d.doc_id) AS BIGINT)"
        " AS group_label\n"
        " FROM documents d LEFT JOIN comp c ON c.node = d.doc_id\n"
        ")\n"
        "SELECT doc_id, group_label,\n"
        f" CASE WHEN pct < {TRAIN_PCT} THEN 'train'\n"
        f"      WHEN pct < {VAL_PCT} THEN 'val'\n"
        "      ELSE 'test' END AS split\n"
        "FROM (SELECT doc_id, group_label,\n"
        "  ((CAST(group_label AS HUGEINT) * 2654435761) % 4294967296)"
        " % 100 AS pct FROM lab)"
    )
