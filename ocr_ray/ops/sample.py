"""Weighted priority sampling — pick k documents with probability
increasing in a weight column (e.g. sample long/high-quality docs
preferentially when building a training mix).

Scheme: priority sampling (Duffield, Lund, Thorup, JACM 2007): each
row gets priority ``q_i = w_i / u_i`` with ``u_i`` uniform in (0, 1];
the sample is the k rows with the largest priorities. Here ``u_i`` is
the SQL-reproducible multiplicative hash of ``doc_id`` (Knuth constant,
same as the balanced sampler in ops/tfidf.py), so runs are
deterministic and the DuckDB oracle reproduces the sample EXACTLY.

Float-parity note: the priority is computed with IEEE elementary ops
only (one add, one divide — both correctly rounded, so bit-identical
in numpy and DuckDB). No pow/log/exp, whose libm implementations may
differ by an ulp and flip an ORDER BY.

Scale design: the scoring pass emits ONLY each batch's local top-k of
slim (doc_id, weight, priority) rows — the global top-k is a subset of
the union of per-batch top-ks — so the final sort sees at most
k × n_batches rows regardless of corpus size.
"""
from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)
_U32_SPAN = float(1 << 32)


def _priority_block(batch: pa.Table, *, weight_col: str, k: int) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
    h = ((ids.astype(np.uint64) * _KNUTH) & _M32).astype(np.float64)
    # u in (0, 1]; priority = w / u  (one add + one divide, IEEE-exact)
    priority = w * _U32_SPAN / (h + 1.0)
    if len(ids) > k:
        # local top-k: the global top-k can only come from these
        keep = np.argpartition(-priority, k - 1)[:k]
    else:
        keep = np.arange(len(ids))
    return pa.table(
        {
            "doc_id": pa.array(ids[keep], pa.int64()),
            weight_col: batch.column(weight_col).take(pa.array(keep)),
            "priority": pa.array(priority[keep], pa.float64()),
        }
    )


def weighted_sample(docs, weight_col: str = "n_chars", k: int = 25):
    """k rows sampled with probability increasing in ``weight_col``:
    (doc_id, weight_col, priority, rank), rank 1 = highest priority.
    ``docs`` needs (doc_id, weight_col)."""
    import pyarrow.compute as pc

    topk = docs.map_batches(
        functools.partial(_priority_block, weight_col=weight_col, k=k),
        batch_format="pyarrow",
    ).sort(["priority", "doc_id"], descending=[True, False]).limit(k)

    def add_rank(t: pa.Table) -> pa.Table:
        # runs on the ≤ k-row result; ordering is the sort's
        order = pc.sort_indices(
            t, sort_keys=[("priority", "descending"), ("doc_id", "ascending")]
        )
        t = t.take(order)
        return t.append_column(
            "rank", pa.array(np.arange(1, t.num_rows + 1), pa.int64())
        )

    # single ≤ k-row block after limit(); one vectorized rank pass
    return topk.repartition(1).map_batches(add_rank, batch_format="pyarrow")


def oracle_sql(weight_col: str = "n_chars", k: int = 25) -> str:
    """DuckDB reproduction: identical hash, identical IEEE arithmetic,
    identical ordering + tie-break."""
    return (
        "WITH pri AS (\n"
        f" SELECT doc_id, {weight_col},\n"
        f"  CAST({weight_col} AS DOUBLE) * 4294967296.0 /\n"
        "   (CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS DOUBLE) + 1.0)"
        " AS priority\n"
        " FROM documents\n"
        ")\n"
        f"SELECT doc_id, {weight_col}, priority,\n"
        " CAST(ROW_NUMBER() OVER (ORDER BY priority DESC, doc_id ASC) AS BIGINT) AS rank\n"
        "FROM pri ORDER BY priority DESC, doc_id ASC\n"
        f"LIMIT {k}"
    )


def token_budget_sample(docs, budget_chars: int = 8_000):
    """Deterministic per-source downsampling to a character budget —
    the "cap every source at N tokens" step of training-mix
    construction: within each source, docs are taken in the order of
    the SQL-reproducible multiplicative hash (a fixed random-looking
    permutation), accumulating sizes until the budget is crossed; the
    doc that crosses the boundary is included (so every non-empty
    source keeps at least one doc).

    Scale shape: one hash shuffle of slim (doc_id, source, n_chars,
    hkey) rows by source; inside each sorted run the exclusive prefix
    sum + threshold mask are pure vectorized arithmetic. All integers —
    the DuckDB window oracle reproduces the pick set exactly.

    Output: (doc_id, source, n_chars, cum_before)."""
    from ocr_ray.stages.grouped import grouped_map

    row_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("source", pa.string()),
            ("n_chars", pa.int64()),
            ("hkey", pa.int64()),
        ]
    )

    def add_hash(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return row_schema.empty_table()
        ids = (
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        h = ((ids.astype(np.uint64) * _KNUTH) & _M32).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": t.column("source"),
                "n_chars": t.column("n_chars").cast(pa.int64()),
                "hkey": pa.array(h, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("source", pa.string()),
            ("n_chars", pa.int64()),
            ("cum_before", pa.int64()),
        ]
    )

    def pick_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        sizes = np.diff(np.append(starts, n))
        b = block.column("n_chars").to_numpy(zero_copy_only=False)
        prefix = np.concatenate([[0], np.cumsum(b)[:-1]])
        run_base = prefix[starts]
        cum_before = prefix - np.repeat(run_base, sizes)
        keep = cum_before < budget_chars
        kept = block.filter(pa.array(keep))
        return pa.table(
            {
                "doc_id": kept.column("doc_id"),
                "source": kept.column("source"),
                "n_chars": kept.column("n_chars"),
                "cum_before": pa.array(cum_before[keep], pa.int64()),
            }
        )

    rows = docs.map_batches(add_hash, batch_format="pyarrow")
    return grouped_map(
        rows, ["source"], pick_block, sort_within=["hkey", "doc_id"]
    )


def token_budget_sample_sql(budget_chars: int = 8_000) -> str:
    return (
        "WITH h AS (\n"
        " SELECT doc_id, source, n_chars,\n"
        "  CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296"
        " AS BIGINT) AS hkey\n"
        " FROM documents\n"
        "), o AS (\n"
        " SELECT doc_id, source, n_chars,\n"
        "  COALESCE(SUM(n_chars) OVER (PARTITION BY source"
        " ORDER BY hkey, doc_id\n"
        "   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)"
        " AS cum_before\n"
        " FROM h\n"
        ")\n"
        "SELECT doc_id, source, n_chars,"
        " CAST(cum_before AS BIGINT) AS cum_before\n"
        f"FROM o WHERE cum_before < {budget_chars}"
    )


def mixture_waterfill(docs, budget_tokens: int | None = None):
    """Uniform-target water-filling allocation of a token budget across
    sources: every source gets the common water level L (integer) up to
    its own capacity; saturated (small) sources keep their full token
    count and the freed budget redistributes to the rest — the standard
    way to hit "equal representation, capped by availability" when
    mixing corpora for training.  ``budget_tokens`` defaults to HALF
    the corpus total (computed from the same aggregate, so engine and
    oracle agree without a side-channel).

    Exact-integer discipline: capacities are per-source ``\\S+`` token
    sums (tiny keyed aggregate — one row per source; the driver fold is
    over that bounded set), the level is found by the sorted
    prefix-sum pivot, and the remainder below the level distributes +1
    to the first ``rem`` unsaturated sources in source order — the SQL
    replays the identical window arithmetic.

    Output: (source, cap_tokens, alloc_tokens, saturated) sorted by
    source."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema

    part_schema = pa.schema(
        [("source", pa.string()), ("cap", pa.int64())]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "text" not in t.column_names:
            return part_schema.empty_table()
        n = (
            pc.count_substring_regex(
                pc.coalesce(t.column("text"), pa.scalar("")), pattern=r"\S+"
            )
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        src = np.asarray(t.column("source").to_pylist(), dtype=object)
        uniq, inv = np.unique(src, return_inverse=True)
        cap = np.zeros(len(uniq), np.int64)
        np.add.at(cap, inv, n)
        return pa.table(
            {
                "source": pa.array(list(uniq), pa.string()),
                "cap": pa.array(cap, pa.int64()),
            }
        )

    rows = (
        _with_schema(
            docs.map_batches(partials, batch_format="pyarrow"), part_schema
        )
        .groupby("source")
        .aggregate(Sum("cap", alias_name="cap"))
    ).take_all()  # bounded: one row per source
    rows.sort(key=lambda r: r["source"])
    srcs = [r["source"] for r in rows]
    caps = np.array([int(r["cap"]) for r in rows], np.int64)
    total = int(caps.sum())
    budget = int(budget_tokens) if budget_tokens is not None else total // 2
    budget = min(budget, total)

    # pivot by ascending capacity (ties: source order keeps determinism)
    order = np.lexsort((np.arange(len(caps)), caps))
    alloc = np.zeros(len(caps), np.int64)
    remaining = budget
    left = len(caps)
    level = 0
    rem = 0
    unsat = []
    for pos, i in enumerate(order):
        # if the remaining budget spread over the remaining sources
        # stays below this source's capacity, the level settles here
        if left > 0 and remaining // left <= caps[i]:
            level = remaining // left
            rem = remaining % left
            unsat = sorted(order[pos:])  # source order for the +1s
            break
        alloc[i] = caps[i]
        remaining -= caps[i]
        left -= 1
    for j, i in enumerate(unsat):
        alloc[i] = min(caps[i], level + (1 if j < rem else 0))

    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "cap_tokens": pa.array(caps, pa.int64()),
            "alloc_tokens": pa.array(alloc, pa.int64()),
            "saturated": pa.array(
                (alloc == caps).astype(np.int64), pa.int64()
            ),
        }
    )


def mixture_waterfill_sql(budget_tokens: int | None = None) -> str:
    """Window replay: sources sorted by capacity; the pvt is the
    first position where the leftover budget per remaining source fits
    under the capacity; +1 remainders go to the first ``rem``
    unsaturated sources in source order."""
    budget_expr = (
        str(int(budget_tokens))
        if budget_tokens is not None
        else "(SELECT SUM(cap) // 2 FROM caps)"
    )
    return (
        "WITH caps AS (\n"
        " SELECT source,"
        " CAST(SUM(len(regexp_extract_all(COALESCE(text, ''), '\\S+')))"
        " AS BIGINT) AS cap\n"
        " FROM documents GROUP BY source\n"
        "), b AS (\n"
        f" SELECT LEAST({budget_expr}, (SELECT SUM(cap) FROM caps))"
        " AS budget\n"
        "), o AS (\n"
        " SELECT source, cap,\n"
        "  ROW_NUMBER() OVER (ORDER BY cap, source) AS rn,\n"
        "  COALESCE(SUM(cap) OVER (ORDER BY cap, source\n"
        "   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)"
        " AS cum_below,\n"
        "  COUNT(*) OVER () AS k\n"
        " FROM caps\n"
        "), pvt AS (\n"
        " SELECT MIN(rn) AS p FROM o, b\n"
        " WHERE (b.budget - cum_below) // (k - rn + 1) <= cap\n"
        "), lvl AS (\n"
        " SELECT (b.budget - o.cum_below) // (o.k - pvt.p + 1)"
        " AS level,\n"
        "  (b.budget - o.cum_below) % (o.k - pvt.p + 1) AS rem\n"
        " FROM o JOIN pvt ON o.rn = pvt.p CROSS JOIN b\n"
        "), unsat AS (\n"
        " SELECT source,"
        " ROW_NUMBER() OVER (ORDER BY source) AS uord\n"
        " FROM o JOIN pvt ON o.rn >= pvt.p\n"
        ")\n"
        "SELECT o.source, o.cap AS cap_tokens,\n"
        " CAST(CASE WHEN o.rn < pvt.p THEN o.cap\n"
        "      ELSE LEAST(o.cap, lvl.level +"
        " CASE WHEN u.uord <= lvl.rem THEN 1 ELSE 0 END)\n"
        " END AS BIGINT) AS alloc_tokens,\n"
        " CAST(CASE WHEN o.rn < pvt.p THEN 1\n"
        "      ELSE CASE WHEN LEAST(o.cap, lvl.level +"
        " CASE WHEN u.uord <= lvl.rem THEN 1 ELSE 0 END) = o.cap"
        " THEN 1 ELSE 0 END\n"
        " END AS BIGINT) AS saturated\n"
        "FROM o CROSS JOIN pvt CROSS JOIN lvl\n"
        "LEFT JOIN unsat u ON u.source = o.source\n"
        "ORDER BY o.source"
    )
