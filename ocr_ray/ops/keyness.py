"""Corpus-association analytics: discriminative-term mining, exact
rank-sum AUC, categorical contingency audits and BPE merge-candidate
counting.

These are the "which slice of the corpus is different, and how" family
a training-data pipeline runs before rebalancing or filtering:
chi-square keyness finds the words that over-represent one source
(the signature of boilerplate, spam or domain drift), the Mann-Whitney
AUC measures how separable two document populations are on a numeric
feature, the lang x source contingency table quantifies schema-level
association, and the pair counts are the first merge step of BPE
tokenizer training.

Cross-engine float discipline (shared with zipf_slope_by_lang): every
count accumulates as an exact integer; floats appear only in final
expressions built from +,-,*,/ over exact-int casts — basic IEEE ops
are correctly rounded and deterministic across numpy and DuckDB, unlike ln/sqrt, so value hashes match bit-for-bit.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# mirrors driver._WORDS_SQL: regexp_extract_all(lower(text), '[a-zA-Z]{3,}')
_WORD_RE = re.compile(r"[a-zA-Z]{3,}")


# ---------------------------------------------------------------------------
# Exact Mann-Whitney AUC
# ---------------------------------------------------------------------------

def length_auc(docs, value_col: str = "n_chars", label_col: str = "lang",
               positive: str = "en"):
    """Exact Mann-Whitney AUC of ``value_col`` as a classifier score for
    ``label_col == positive``: the probability that a uniformly random
    positive document outranks a random negative one, with the standard
    midrank treatment of ties.

    Scale shape: per-block partial counts collapse each block to slim
    ``(value, n_pos, n_neg)`` rows; ONE keyed sum builds the global
    value histogram, whose size is bounded by the number of distinct
    values (document lengths are bounded by the max document size, not
    the corpus size — the histogram stays small at any corpus scale).
    The driver folds the sorted histogram with arbitrary-precision
    Python ints, so the rank sum is exact; ``rank_sum2`` is TWICE the
    positive midrank sum (always an integer — midranks are halves).
    The only float is the final shared-IEEE division.

    Returns a one-row table ``(n_pos, n_neg, rank_sum2, auc)``;
    ``auc`` is 0.5 by convention when either class is empty.
    ``rank_sum2`` is emitted as int64 — exact to ~3e9 rows of corpus;
    past that the driver fold (already arbitrary precision) would emit
    two 63-bit limbs like the MinHash oracle.
    """
    from ray.data.aggregate import Sum

    out_schema = pa.schema(
        [("n_pos", pa.int64()), ("n_neg", pa.int64()),
         ("rank_sum2", pa.int64()), ("auc", pa.float64())]
    )

    def partials(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = pc.equal(t.column(label_col), positive).to_numpy(
            zero_copy_only=False
        )
        uniq, inv = np.unique(v, return_inverse=True)
        np_ = np.bincount(inv, weights=pos.astype(np.int64),
                          minlength=len(uniq)).astype(np.int64)
        nn_ = np.bincount(inv, minlength=len(uniq)).astype(np.int64) - np_
        return pa.table(
            {
                "v": pa.array(uniq, pa.int64()),
                "p_pos": pa.array(np_, pa.int64()),
                "p_neg": pa.array(nn_, pa.int64()),
            }
        )

    hist = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("p_pos", alias_name="np"), Sum("p_neg", alias_name="nn"))
    )
    # bounded driver fold: one row per distinct value (≤ max doc length)
    rows = hist.take_all()
    rows.sort(key=lambda r: r["v"])
    cum = 0
    rank_sum2 = 0
    n_pos = 0
    n_neg = 0
    for r in rows:
        np_i, nn_i = int(r["np"]), int(r["nn"])
        cnt = np_i + nn_i
        rank_sum2 += np_i * (2 * cum + cnt + 1)
        cum += cnt
        n_pos += np_i
        n_neg += nn_i
    if n_pos == 0 or n_neg == 0:
        auc = 0.5
    else:
        # shared IEEE tree with the SQL oracle: exact-int casts, one divide
        auc = float(rank_sum2 - n_pos * (n_pos + 1)) / float(2 * n_pos * n_neg)
    return pa.table(
        {
            "n_pos": pa.array([n_pos], pa.int64()),
            "n_neg": pa.array([n_neg], pa.int64()),
            "rank_sum2": pa.array([rank_sum2], pa.int64()),
            "auc": pa.array([auc], pa.float64()),
        }
    ).cast(out_schema)


def length_auc_sql(positive: str = "en") -> str:
    """DuckDB oracle for :func:`length_auc` — identical histogram →
    midrank fold in SQL (window cumulative count), identical final
    IEEE expression."""
    return (
        "WITH h AS (\n"
        " SELECT n_chars AS v,\n"
        f"  CAST(SUM(CASE WHEN lang = '{positive}' THEN 1 ELSE 0 END) AS BIGINT) AS np,\n"
        f"  CAST(SUM(CASE WHEN lang = '{positive}' THEN 0 ELSE 1 END) AS BIGINT) AS nn\n"
        " FROM documents GROUP BY n_chars),\n"
        "w AS (\n"
        " SELECT np, nn, COALESCE(SUM(np + nn) OVER\n"
        "   (ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cb\n"
        " FROM h),\n"
        "s AS (\n"
        " SELECT CAST(SUM(np) AS BIGINT) AS n_pos, CAST(SUM(nn) AS BIGINT) AS n_neg,\n"
        "  CAST(SUM(np * (2 * cb + np + nn + 1)) AS BIGINT) AS rank_sum2 FROM w)\n"
        "SELECT n_pos, n_neg, rank_sum2,\n"
        " CASE WHEN n_pos = 0 OR n_neg = 0 THEN 0.5 ELSE\n"
        "  CAST(rank_sum2 - n_pos * (n_pos + 1) AS DOUBLE)\n"
        "   / CAST(2 * n_pos * n_neg AS DOUBLE) END AS auc\n"
        "FROM s"
    )


# ---------------------------------------------------------------------------
# Chi-square keyness: distinctive terms per source
# ---------------------------------------------------------------------------

def keyness_terms(docs, k: int = 15, min_count: int = 5):
    """Top-``k`` over-represented words per source by the chi-square
    keyness statistic over the 2x2 occurrence contingency
    ``(a, b; c, d)`` = (word in source, word elsewhere; other words in
    source, other words elsewhere) — the corpus-linguistics
    "what makes this slice different" query (Dunning's G² ranks almost
    identically but needs ``ln``, whose last-ulp behaviour differs
    between engines; chi-square is basic-ops-only so the oracle hash
    matches bit-for-bit).

    Scale shape: map-side ``(source, word)`` count partials → ONE keyed
    sum (slim integer rows) → per-word totals computed INSIDE the
    word-partitioned block (word is the partition key, so ``n_w`` is a
    segment sum — no df table, no big-big join, the tfidf trick);
    per-source token totals are a tiny broadcast (one row per source).
    Each block emits only its local per-source top-k (a superset filter
    of the global top-k), so the final per-source selection sorts
    ≤ k·blocks rows. int64 overrepresentation cross-products are exact
    to ~3e9 tokens per side; past that, promote to the two-limb HUGEINT
    compare the MinHash oracle uses.

    Output: ``(source, word, n, n_elsewhere, chi2, rank)``, rank 1..k
    by (chi2 DESC, word ASC).
    """
    from collections import Counter

    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        srcs = t.column("source").to_pylist()
        texts = t.column("text").to_pylist()
        for s, text in zip(srcs, texts):
            for w in _WORD_RE.findall((text or "").lower()):
                counts[(s, w)] += 1
        if not counts:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "word": pa.array([], pa.string()),
                    "partial": pa.array([], pa.int64()),
                }
            )
        keys, vals = zip(*sorted(counts.items()))
        return pa.table(
            {
                "source": pa.array([x[0] for x in keys], pa.string()),
                "word": pa.array([x[1] for x in keys], pa.string()),
                "partial": pa.array(vals, pa.int64()),
            }
        )

    counted = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "word"])
        .aggregate(Sum("partial", alias_name="n"))
    ).materialize()
    # materialized because it feeds TWO consumers (the per-source token
    # totals and the word-partitioned candidate pass): without pinning,
    # lineage would re-run the corpus tokenization + keyed shuffle for
    # each — a full duplicate scan at 100 TB. The pinned table is slim
    # (one int row per distinct (source, word)), and the object store
    # spills it if the vocabulary is huge.

    # per-source token totals: tiny (one row per source), bounded collect
    def src_partials(t: pa.Table) -> pa.Table:
        return (
            t.select(["source", "n"])
            .group_by("source")
            .aggregate([("n", "sum")])
            .rename_columns(["source", "partial"])
        )

    tot_rows = (
        counted.map_batches(src_partials, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("partial", alias_name="t"))
        .take_all()
    )
    totals = {r["source"]: int(r["t"]) for r in tot_rows}
    big_n = sum(totals.values())
    totals_ref = ray.put(totals)

    cand_schema = pa.schema(
        [("source", pa.string()), ("word", pa.string()), ("n", pa.int64()),
         ("n_elsewhere", pa.int64()), ("chi2", pa.float64())]
    )

    def word_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n_rows = block.num_rows
        if n_rows == 0 or len(starts) == 0 or big_n == 0:
            return cand_schema.empty_table()
        tmap = ray.get(totals_ref)
        n = block.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        src_arr = block.column("source").to_numpy(zero_copy_only=False)
        words = block.column("word").to_numpy(zero_copy_only=False)
        # per-word totals: segment sums over the word groups
        sizes = np.diff(np.append(starts, n_rows))
        seg_id = np.repeat(np.arange(len(starts)), sizes)
        n_w = np.bincount(seg_id, weights=n, minlength=len(starts)).astype(
            np.int64
        )[seg_id]
        # factorized lookup: one dict probe per DISTINCT source, not per row
        src_u, src_inv = np.unique(src_arr, return_inverse=True)
        t_s = np.array([tmap[s] for s in src_u], np.int64)[src_inv]
        a = n
        b = n_w - a
        c = t_s - a
        d = big_n - t_s - b
        # keep over-represented words with enough mass (exact int compare)
        keep = (a >= min_count) & (a * (big_n - t_s) > b * t_s)
        if not keep.any():
            return cand_schema.empty_table()
        af = a[keep].astype(np.float64)
        bf = b[keep].astype(np.float64)
        cf = c[keep].astype(np.float64)
        df_ = d[keep].astype(np.float64)
        n_w_f = n_w[keep].astype(np.float64)
        t_s_f = t_s[keep].astype(np.float64)
        nf = np.float64(big_n)
        diff = af * df_ - bf * cf
        # shared IEEE tree with keyness_terms_sql (left-assoc products)
        chi2 = nf * diff * diff / (
            n_w_f * (nf - n_w_f) * t_s_f * (nf - t_s_f)
        )
        src_k = src_arr[keep]
        word_k = words[keep]
        n_k = a[keep]
        b_k = b[keep]
        # local per-source top-k: a superset of the global top-k
        sel = []
        for s in np.unique(src_k):
            idx = np.flatnonzero(src_k == s)
            order = idx[np.lexsort((word_k[idx], -chi2[idx]))][:k]
            sel.append(order)
        sel_idx = np.concatenate(sel)
        return pa.table(
            {
                "source": pa.array(src_k[sel_idx], pa.string()),
                "word": pa.array(word_k[sel_idx], pa.string()),
                "n": pa.array(n_k[sel_idx], pa.int64()),
                "n_elsewhere": pa.array(b_k[sel_idx], pa.int64()),
                "chi2": pa.array(chi2[sel_idx], pa.float64()),
            }
        )

    candidates = grouped_map(counted, ["word"], word_block)

    out_schema = pa.schema(
        [("source", pa.string()), ("word", pa.string()), ("n", pa.int64()),
         ("n_elsewhere", pa.int64()), ("chi2", pa.float64()),
         ("rank", pa.int64())]
    )

    def final_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n_rows = block.num_rows
        if n_rows == 0 or len(starts) == 0:
            return out_schema.empty_table()
        chi2 = block.column("chi2").to_numpy(zero_copy_only=False)
        words = block.column("word").to_numpy(zero_copy_only=False)
        bounds = np.append(starts, n_rows)
        parts = []
        for gi in range(len(starts)):
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            order = np.lexsort((words[lo:hi], -chi2[lo:hi]))[:k] + lo
            sub = block.take(pa.array(order, pa.int64()))
            sub = sub.append_column(
                "rank", pa.array(np.arange(1, len(order) + 1), pa.int64())
            )
            parts.append(sub)
        return pa.concat_tables(parts).cast(out_schema)

    return grouped_map(candidates, ["source"], final_block)


def keyness_terms_sql(k: int = 15, min_count: int = 5) -> str:
    """DuckDB oracle for :func:`keyness_terms` — same counts, same
    basic-ops chi-square expression tree, same (chi2 DESC, word) rank
    rule."""
    return (
        "WITH tok AS (\n"
        " SELECT source, unnest(regexp_extract_all(lower(text), '[a-zA-Z]{3,}')) AS word\n"
        " FROM documents),\n"
        "counted AS (SELECT source, word, CAST(COUNT(*) AS BIGINT) AS n\n"
        " FROM tok GROUP BY source, word),\n"
        "wtot AS (SELECT word, CAST(SUM(n) AS BIGINT) AS n_w FROM counted GROUP BY word),\n"
        "stot AS (SELECT source, CAST(SUM(n) AS BIGINT) AS t_s FROM counted GROUP BY source),\n"
        "g AS (SELECT CAST(SUM(n) AS BIGINT) AS big_n FROM counted),\n"
        "cells AS (\n"
        " SELECT c.source, c.word, c.n, (w.n_w - c.n) AS b, s.t_s, w.n_w, g.big_n\n"
        " FROM counted c JOIN wtot w USING (word) JOIN stot s USING (source) CROSS JOIN g\n"
        f" WHERE c.n >= {min_count} AND c.n * (g.big_n - s.t_s) > (w.n_w - c.n) * s.t_s),\n"
        "scored AS (\n"
        " SELECT source, word, n, b AS n_elsewhere,\n"
        "  CAST(big_n AS DOUBLE)\n"
        "   * (CAST(n AS DOUBLE) * CAST(big_n - t_s - b AS DOUBLE)\n"
        "      - CAST(b AS DOUBLE) * CAST(t_s - n AS DOUBLE))\n"
        "   * (CAST(n AS DOUBLE) * CAST(big_n - t_s - b AS DOUBLE)\n"
        "      - CAST(b AS DOUBLE) * CAST(t_s - n AS DOUBLE))\n"
        "   / (CAST(n_w AS DOUBLE) * (CAST(big_n AS DOUBLE) - CAST(n_w AS DOUBLE))\n"
        "      * CAST(t_s AS DOUBLE) * (CAST(big_n AS DOUBLE) - CAST(t_s AS DOUBLE))) AS chi2\n"
        " FROM cells),\n"
        "ranked AS (\n"
        " SELECT source, word, n, n_elsewhere, chi2,\n"
        "  CAST(ROW_NUMBER() OVER (PARTITION BY source ORDER BY chi2 DESC, word) AS BIGINT) AS rank\n"
        " FROM scored)\n"
        f"SELECT * FROM ranked WHERE rank <= {k}"
    )


# ---------------------------------------------------------------------------
# lang x source contingency audit
# ---------------------------------------------------------------------------

def contingency_chi2(docs):
    """Per-cell chi-square contribution of the lang x source
    contingency table: observed count, expected count under
    independence, and ``(obs-exp)^2/exp`` — the categorical-association
    audit behind "is language mix independent of source?". Emitting
    per-CELL rows (not a float total) keeps the result hashable: float
    summation order is engine-defined, per-cell basic-ops expressions
    are not.

    Scale shape: one groupby-count of slim rows; the cell table is
    bounded by |langs| x |sources| regardless of corpus size, so the
    driver fold is bounded.
    """
    from ray.data.aggregate import Count

    cells = (
        docs.select_columns(["lang", "source"])
        .groupby(["lang", "source"])
        .aggregate(Count(alias_name="n"))
        .take_all()
    )
    if not cells:
        return pa.schema(
            [("lang", pa.string()), ("source", pa.string()),
             ("n", pa.int64()), ("expected", pa.float64()),
             ("contrib", pa.float64())]
        ).empty_table()
    row_tot: dict[str, int] = {}
    col_tot: dict[str, int] = {}
    tot = 0
    for r in cells:
        row_tot[r["lang"]] = row_tot.get(r["lang"], 0) + int(r["n"])
        col_tot[r["source"]] = col_tot.get(r["source"], 0) + int(r["n"])
        tot += int(r["n"])
    cells.sort(key=lambda r: (r["lang"], r["source"]))
    langs, srcs, ns, exps, contribs = [], [], [], [], []
    for r in cells:
        nf = float(int(r["n"]))
        # shared IEEE tree with contingency_chi2_sql
        e = float(row_tot[r["lang"]]) * float(col_tot[r["source"]]) / float(tot)
        langs.append(r["lang"])
        srcs.append(r["source"])
        ns.append(int(r["n"]))
        exps.append(e)
        contribs.append((nf - e) * (nf - e) / e)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(srcs, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "expected": pa.array(exps, pa.float64()),
            "contrib": pa.array(contribs, pa.float64()),
        }
    )


CONTINGENCY_CHI2_SQL = (
    "WITH c AS (SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n\n"
    " FROM documents GROUP BY lang, source),\n"
    "t AS (SELECT lang, source, n,\n"
    "  CAST(SUM(n) OVER (PARTITION BY lang) AS BIGINT) AS rt,\n"
    "  CAST(SUM(n) OVER (PARTITION BY source) AS BIGINT) AS ct,\n"
    "  CAST(SUM(n) OVER () AS BIGINT) AS tot FROM c),\n"
    "e AS (SELECT lang, source, n,\n"
    "  CAST(rt AS DOUBLE) * CAST(ct AS DOUBLE) / CAST(tot AS DOUBLE) AS expected\n"
    " FROM t)\n"
    "SELECT lang, source, n, expected,\n"
    " (CAST(n AS DOUBLE) - expected) * (CAST(n AS DOUBLE) - expected) / expected AS contrib\n"
    "FROM e"
)


# ---------------------------------------------------------------------------
# BPE merge candidates: adjacent char-pair counts
# ---------------------------------------------------------------------------

def bpe_merge_pairs(docs, k: int = 50):
    """Top-``k`` most frequent adjacent character pairs inside words —
    the first merge-selection step of BPE tokenizer training, counted
    over word OCCURRENCES (so pair mass reflects the corpus, not the
    vocabulary).

    Scale shape: the word regex is ASCII-alpha, so the pair space is
    bounded at 26^2 = 676 — each block collapses to ≤676 slim rows via
    one vectorized codepoint ``bincount`` (no Python loop over chars),
    one keyed sum merges them, and the ≤676-row result is folded on the
    driver. Tie-break (n DESC, pair ASC) matches the oracle's ORDER BY.
    """
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        chunks = []
        for text in texts:
            ws = _WORD_RE.findall((text or "").lower())
            if ws:
                chunks.append("\n".join(ws))
        if not chunks:
            return pa.table(
                {"pair": pa.array([], pa.string()),
                 "partial": pa.array([], pa.int64())}
            )
        joined = "\n".join(chunks)
        a = np.frombuffer(joined.encode("utf-32-le"), np.uint32).astype(
            np.int64
        )
        left, right = a[:-1], a[1:]
        mask = (left != 10) & (right != 10)
        codes = (left[mask] - 97) * 26 + (right[mask] - 97)
        counts = np.bincount(codes, minlength=676)
        nz = np.flatnonzero(counts)
        pairs = [chr(97 + int(i) // 26) + chr(97 + int(i) % 26) for i in nz]
        return pa.table(
            {
                "pair": pa.array(pairs, pa.string()),
                "partial": pa.array(counts[nz], pa.int64()),
            }
        )

    merged = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("partial", alias_name="n"))
        .take_all()  # bounded: ≤676 rows by construction
    )
    merged.sort(key=lambda r: (-int(r["n"]), r["pair"]))
    top = merged[:k]
    return pa.table(
        {
            "pair": pa.array([r["pair"] for r in top], pa.string()),
            "n": pa.array([int(r["n"]) for r in top], pa.int64()),
        }
    )


def bpe_merge_pairs_sql(k: int = 50) -> str:
    """DuckDB oracle for :func:`bpe_merge_pairs` — per-word adjacent
    ``substr`` pairs, same (n DESC, pair) boundary rule."""
    return (
        "WITH words AS (\n"
        " SELECT unnest(regexp_extract_all(lower(text), '[a-zA-Z]{3,}')) AS w\n"
        " FROM documents),\n"
        "pairs AS (\n"
        " SELECT substr(w, CAST(i AS INTEGER), 2) AS pair\n"
        " FROM words, LATERAL (SELECT unnest(range(1, length(w))) AS i) t),\n"
        "counted AS (SELECT pair, CAST(COUNT(*) AS BIGINT) AS n FROM pairs GROUP BY pair)\n"
        f"SELECT pair, n FROM counted ORDER BY n DESC, pair LIMIT {k}"
    )


def hapax_rate_by_source(docs):
    """Vocabulary richness per source: vocab size, hapax legomena count
    (words occurring exactly once across the whole source) and the
    hapax rate in integer millionths — the classic OCR-noise /
    boilerplate tell (noisy sources run hapax-heavy, template sources
    hapax-light).

    Scale shape: in-batch (source, word) counts → one hash shuffle by
    (source, word) for exact global counts (``grouped_map`` block
    arithmetic, no per-word Python) → per-source partial (vocab, hapax)
    rows → a <= |sources|-row keyed sum."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    row_schema = pa.schema(
        [
            ("source", pa.string()),
            ("word", pa.string()),
            ("c", pa.int64()),
        ]
    )

    def word_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return row_schema.empty_table()
        srcs, words, cs = [], [], []
        from collections import Counter

        for src, text in zip(
            t.column("source").to_pylist(), t.column("text").to_pylist()
        ):
            for w, c in Counter(
                _WORD_RE.findall((text or "").lower())
            ).items():
                srcs.append(src)
                words.append(w)
                cs.append(c)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "word": pa.array(words, pa.string()),
                "c": pa.array(cs, pa.int64()),
            }
        )

    part_schema = pa.schema(
        [
            ("source", pa.string()),
            ("vocab", pa.int64()),
            ("hapax", pa.int64()),
        ]
    )

    def count_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        c = block.column("c").to_numpy(zero_copy_only=False)
        # combine split (source, word) partials: block sorted by key
        totals = np.add.reduceat(c, starts)
        srcs = block.column("source").take(
            pa.array(starts, pa.int64())
        ).to_pylist()
        # per-source rollup within the block (sources repeat across
        # groups; a tiny in-block group_by collapses them)
        t2 = pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "vocab": pa.array(np.ones(len(totals), np.int64)),
                "hapax": pa.array((totals == 1).astype(np.int64)),
            }
        )
        g = t2.group_by("source").aggregate(
            [("vocab", "sum"), ("hapax", "sum")]
        )
        return pa.table(
            {
                "source": g["source"],
                "vocab": pc.cast(g["vocab_sum"], pa.int64()),
                "hapax": pc.cast(g["hapax_sum"], pa.int64()),
            }
        )

    merged = (
        grouped_map(
            docs.map_batches(word_rows, batch_format="pyarrow"),
            ["source", "word"],
            count_block,
        )
        .groupby("source")
        .aggregate(
            Sum("vocab", alias_name="vocab"),
            Sum("hapax", alias_name="hapax"),
        )
    )

    out_schema = pa.schema(
        [
            ("source", pa.string()),
            ("vocab", pa.int64()),
            ("hapax", pa.int64()),
            ("hapax_millionths", pa.int64()),
        ]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        v = t["vocab"].to_numpy(zero_copy_only=False)
        h = t["hapax"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "hapax_millionths", pa.array(h * 1_000_000 // v, pa.int64())
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def hapax_rate_by_source_sql() -> str:
    return (
        "WITH w AS (\n"
        " SELECT source, word, COUNT(*) AS c FROM (\n"
        "  SELECT source,"
        " unnest(regexp_extract_all(lower(text), '[a-zA-Z]{3,}')) AS word\n"
        "  FROM documents\n"
        " ) GROUP BY 1, 2\n"
        ")\n"
        "SELECT source, CAST(COUNT(*) AS BIGINT) AS vocab,\n"
        " CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS hapax,\n"
        " CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) * 1000000 // COUNT(*)"
        " AS BIGINT) AS hapax_millionths\n"
        "FROM w GROUP BY source"
    )
