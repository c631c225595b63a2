"""String-similarity joins over the corpus vocabulary and the sparse
lexical document vectors — training-data-pipeline operators beyond the
reference (SURVEY.md §2 extension surface; the reference's nearest
analogue is the per-token fuzzy dictionary probe,
dictionary_corrector.py:239-263, which scans the whole dictionary per
unknown token — these are the set-at-a-time, shuffle-bounded versions).

Scale shape:

- ``jaro_winkler_pairs``: Jaro-Winkler similarity join over the
  corpus vocabulary (``corpus_vocabulary``: one stateless pass emits
  slim per-batch ``(word, df_partial)`` rows and a tiny keyed sum
  builds the vocabulary — the corpus itself never shuffles).
- ``doc_cosine_pairs_sparse`` (exact-threshold sparse cosine join over
  term-frequency vectors): one stateless pass emits
  ``(word, doc_id, tf)`` postings; one hash shuffle
  by word puts a word's whole postings list in one block, where df is
  just the group size — words with df < 2 or df > ``max_df`` (stop
  words) are skipped in bulk, and the survivors emit BOTH pair partial
  products (triu-vectorized across groups) and per-doc squared-norm
  partials into one union table; a single keyed sum then finishes dots
  and norms in the same shuffle. Only the reduced table (one row per
  doc + one per co-occurring pair, the same candidate-pair regime
  ops/dedup.py materializes) is materialized; norms attach via the
  size-adaptive pair-payload join.
"""
from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from ocr_ray.ops.analysis import _WORD_RE
from ocr_ray.ops.dedup import _intra_group_pair_indices, _with_schema
from ocr_ray.stages.grouped import grouped_map

logger = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# corpus vocabulary


_VOCAB_SCHEMA = pa.schema([("word", pa.string()), ("df", pa.int64())])


def corpus_vocabulary(docs, min_df: int = 2, max_len: int = 24,
                      text_col: str = "text"):
    """(word, df) over the standard [a-zA-Z]{3,} tokenizer, df = number
    of documents containing the word. Each document is complete within
    its batch, so the partial rows are already per-doc-distinct and the
    keyed sum is exact — the corpus text itself never shuffles."""
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        words: dict[str, int] = {}
        for text in batch.column(text_col).to_pylist():
            for w in set(_WORD_RE.findall((text or "").lower())):
                if len(w) <= max_len:
                    words[w] = words.get(w, 0) + 1
        return pa.table(
            {
                "word": pa.array(list(words.keys()), pa.string()),
                "df_p": pa.array(list(words.values()), pa.int64()),
            }
        )

    vocab = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("df_p", alias_name="df"))
    )
    vocab = _with_schema(vocab, _VOCAB_SCHEMA)
    if min_df > 1:
        vocab = vocab.filter(expr=f"df >= {int(min_df)}")
    return vocab


# --------------------------------------------------------------------------
# exact-threshold sparse lexical cosine join

COS_SCALE = 1_000_000  # cosine reported as 1e-6-rounded double

_PARTIAL_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("v", pa.int64())]
)
_COS_SCHEMA = pa.schema(
    [
        ("doc_a", pa.int64()),
        ("doc_b", pa.int64()),
        ("dot", pa.int64()),
        ("cos", pa.float64()),
    ]
)


def doc_cosine_pairs_sparse(docs, threshold: float = 0.5, max_df: int = 256):
    """Document pairs whose raw term-frequency vectors (standard
    [a-zA-Z]{3,} tokenizer, words with 2 ≤ df ≤ ``max_df``) have cosine
    similarity ≥ ``threshold`` — the exact sparse-vector similarity
    join (DIMSUM's exact small-df regime), the lexical complement of
    the MinHash/SimHash estimates in ops/dedup.py.

    Words with df > ``max_df`` are stop words: dropped in bulk with a
    logged count (same documented-underestimate semantics as the
    ngram-Jaccard guard, ops/dedup.py). Dots and norms come out of ONE
    keyed sum over a union of slim integer partials, so the result is
    bit-reproducible regardless of aggregation order.
    """
    from ocr_ray.ops.joins import attach_pair_payloads

    def postings(batch: pa.Table) -> pa.Table:
        from collections import Counter

        words, ids, tfs = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            for w, c in Counter(
                _WORD_RE.findall((text or "").lower())
            ).items():
                words.append(w)
                ids.append(doc_id)
                tfs.append(c)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    def word_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return _PARTIAL_SCHEMA.empty_table()
        gidx = np.zeros(n, dtype=np.int64)
        gidx[starts] = 1
        gidx = np.cumsum(gidx)
        sizes = np.diff(np.append(starts, n))
        keep_group = (sizes >= 2) & (sizes <= max_df)
        n_stop = int(np.count_nonzero(sizes > max_df))
        if n_stop:
            logger.warning(
                "%d words exceed max_df=%d; dropped as stop words "
                "(cosine computed over the remaining terms)",
                n_stop,
                max_df,
            )
        keep_row = np.repeat(keep_group, sizes)
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        tfs = block.column("tf").to_numpy(zero_copy_only=False)
        # pair partials, triu-vectorized across kept groups (rows stay
        # doc_id-sorted within each group, so i < j ⟹ doc_i < doc_j)
        kidx = np.flatnonzero(keep_row)
        ii, jj, _ = _intra_group_pair_indices(
            gidx[kidx], cap=max_df, drop_over=True
        )
        pi, pj = kidx[ii], kidx[jj]
        a = np.concatenate([ids[pi], ids[kidx]])
        b = np.concatenate([ids[pj], np.full(len(kidx), -1, np.int64)])
        v = np.concatenate([tfs[pi] * tfs[pj], tfs[kidx] * tfs[kidx]])
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )

    partials = grouped_map(
        docs.map_batches(postings, batch_format="pyarrow"),
        ["word"],
        word_block,
        sort_within=("doc_id",),
    )
    # ONE shuffle finishes both sums; materialize the reduced table only
    # (one row per doc + one per candidate pair — the regime the other
    # pair ops in this engine already materialize via
    # attach_pair_payloads). grouped_map segment-sum, not the native
    # hash aggregate: the candidate table is millions of mostly-
    # singleton groups (see ops/dedup.py:_ngram_cooccur_counts)
    def sum_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        if block.num_rows == 0 or len(starts) == 0:
            return _PARTIAL_SCHEMA.empty_table()
        v = np.add.reduceat(
            block.column("v").to_numpy(zero_copy_only=False), starts
        )
        idx = pa.array(starts)
        return pa.table(
            {
                "a": block.column("a").take(idx),
                "b": block.column("b").take(idx),
                "v": pa.array(v, pa.int64()),
            }
        )

    reduced = grouped_map(
        _with_schema(partials, _PARTIAL_SCHEMA), ["a", "b"], sum_block
    ).materialize()

    dots = reduced.filter(expr="b >= 0").map_batches(
        lambda t: pa.table(
            {
                "doc_a": t.column("a"),
                "doc_b": t.column("b"),
                "dot": t.column("v"),
            }
        ),
        batch_format="pyarrow",
    )
    norms = reduced.filter(expr="b == -1").map_batches(
        lambda t: pa.table(
            {"doc_id": t.column("a"), "norm_sq": t.column("v")}
        ),
        batch_format="pyarrow",
    )
    enriched = attach_pair_payloads(
        dots,
        norms,
        key_a="doc_a",
        key_b="doc_b",
        side_key="doc_id",
        payloads={"norm_sq": ("norm_a", "norm_b")},
    )

    thr = float(threshold)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _COS_SCHEMA.empty_table()
        dot = t.column("dot").to_numpy(zero_copy_only=False).astype(np.float64)
        na = t.column("norm_a").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = t.column("norm_b").to_numpy(zero_copy_only=False).astype(np.float64)
        cos = dot / np.sqrt(na * nb)
        # round half-away-from-zero at 1e-6 BEFORE thresholding so the
        # SQL oracle (which rounds identically) keeps the same rows
        cos = np.floor(cos * COS_SCALE + 0.5) / COS_SCALE
        keep = cos >= thr
        return pa.table(
            {
                "doc_a": t.column("doc_a").filter(pa.array(keep)),
                "doc_b": t.column("doc_b").filter(pa.array(keep)),
                "dot": t.column("dot").filter(pa.array(keep)),
                "cos": pa.array(cos[keep], pa.float64()),
            }
        )

    return _with_schema(
        enriched.map_batches(finish, batch_format="pyarrow"), _COS_SCHEMA
    )


# --------------------------------------------------------------------------
# Jaro-Winkler fuzzy vocabulary join


def _jaro(a: str, b: str) -> float:
    """Textbook Jaro similarity — verified bit-identical to DuckDB's
    jaro_winkler_similarity jaro core on 4k fuzzed pairs (the oracle for
    jaro_winkler_pairs is DuckDB's NATIVE function, not a re-derivation,
    so the engine implementation must match it exactly)."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    md = max(la, lb) // 2 - 1
    m1 = [False] * la
    m2 = [False] * lb
    matches = 0
    for i, c in enumerate(a):
        lo, hi = max(0, i - md), min(lb, i + md + 1)
        for j in range(lo, hi):
            if not m2[j] and b[j] == c:
                m1[i] = m2[j] = True
                matches += 1
                break
    if not matches:
        return 0.0
    t = 0
    k = 0
    for i in range(la):
        if m1[i]:
            while not m2[k]:
                k += 1
            if a[i] != b[k]:
                t += 1
            k += 1
    t //= 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def _jaro_winkler(a: str, b: str, p: float = 0.1, bt: float = 0.7) -> float:
    j = _jaro(a, b)
    if j <= bt:
        return j
    pl = 0
    for x, y in zip(a, b):
        if x == y and pl < 4:
            pl += 1
        else:
            break
    return j + pl * p * (1 - j)


_JW_SCHEMA = pa.schema(
    [
        ("word_a", pa.string()),
        ("word_b", pa.string()),
        ("df_a", pa.int64()),
        ("df_b", pa.int64()),
        ("jw", pa.float64()),
    ]
)


def jaro_winkler_pairs(docs, threshold: float = 0.9, min_df: int = 2,
                       max_len: int = 24, text_col: str = "text",
                       max_block: int = 4096):
    """Vocabulary word pairs with Jaro-Winkler similarity ≥ ``threshold``
    under the operator's blocking predicate: SAME FIRST LETTER and
    |length difference| ≤ 2 (the predicate is part of the pair
    definition, mirrored verbatim in the SQL oracle — which uses
    DuckDB's NATIVE jaro_winkler_similarity as an independent check of
    the engine's implementation).

    Scale shape: the corpus collapses to the (word, df) vocabulary
    (corpus_vocabulary — text never shuffles); each word emits ≤ 3 slim
    rows keyed by (first letter, candidate shorter length), so every
    qualifying pair co-locates exactly once: equal lengths meet in
    their own block (host-host, ordered), unequal lengths meet in the
    SHORTER word's block (host-visitor). One hash shuffle of vocabulary
    rows; per-block all-pairs verification. Blocks past ``max_block``
    hosts pair only the first ``max_block`` (word-ordered) with a
    logged warning — never a silent drop (the LSH-family contract)."""
    key_schema = pa.schema(
        [
            ("k", pa.string()),
            ("word", pa.string()),
            ("df", pa.int64()),
            ("is_host", pa.bool_()),
        ]
    )

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return key_schema.empty_table()
        ks, ws, dfs, hosts = [], [], [], []
        for w, df in zip(
            t.column("word").to_pylist(), t.column("df").to_pylist()
        ):
            lw = len(w)
            for d in (0, 1, 2):
                lb = lw - d
                if lb < 3:  # the [a-zA-Z]{3,} tokenizer floor
                    break
                ks.append(f"{w[0]}:{lb}")
                ws.append(w)
                dfs.append(df)
                hosts.append(d == 0)
        return pa.table(
            {
                "k": pa.array(ks, pa.string()),
                "word": pa.array(ws, pa.string()),
                "df": pa.array(dfs, pa.int64()),
                "is_host": pa.array(hosts, pa.bool_()),
            }
        )

    def block_pairs(block: pa.Table, starts: np.ndarray) -> pa.Table:
        if block.num_rows == 0:
            return _JW_SCHEMA.empty_table()
        words = block.column("word").to_pylist()
        dfs = block.column("df").to_pylist()
        hostf = block.column("is_host").to_pylist()
        bounds = list(starts) + [block.num_rows]
        wa, wb, da, db, sims = [], [], [], [], []
        n_over = 0
        for g in range(len(bounds) - 1):
            seg = range(bounds[g], bounds[g + 1])
            hosts = sorted(
                (words[i], dfs[i]) for i in seg if hostf[i]
            )
            visitors = sorted(
                (words[i], dfs[i]) for i in seg if not hostf[i]
            )
            if len(hosts) > max_block:
                n_over += len(hosts) - max_block
                hosts = hosts[:max_block]
            for i, (w1, f1) in enumerate(hosts):
                for w2, f2 in hosts[i + 1:]:
                    s = _jaro_winkler(w1, w2)
                    if s >= threshold:
                        wa.append(w1); wb.append(w2)
                        da.append(f1); db.append(f2); sims.append(s)
                for w2, f2 in visitors:
                    s = _jaro_winkler(w1, w2)
                    if s >= threshold:
                        x1, x2 = sorted((w1, w2))
                        g1, g2 = (f1, f2) if x1 == w1 else (f2, f1)
                        wa.append(x1); wb.append(x2)
                        da.append(g1); db.append(g2); sims.append(s)
        if n_over:
            logger.warning(
                "jaro_winkler_pairs: %d hosts past max_block=%d paired "
                "only against the ordered prefix", n_over, max_block,
            )
        return pa.table(
            {
                "word_a": pa.array(wa, pa.string()),
                "word_b": pa.array(wb, pa.string()),
                "df_a": pa.array(da, pa.int64()),
                "df_b": pa.array(db, pa.int64()),
                "jw": pa.array(sims, pa.float64()),
            }
        )

    vocab = corpus_vocabulary(docs, min_df=min_df, max_len=max_len,
                              text_col=text_col)
    exploded = vocab.map_batches(explode, batch_format="pyarrow")
    return _with_schema(
        grouped_map(exploded, keys=["k"], block_fn=block_pairs), _JW_SCHEMA
    )


def jaro_winkler_pairs_sql(words_sql: str, threshold: float = 0.9,
                           min_df: int = 2, max_len: int = 24) -> str:
    """Oracle for :func:`jaro_winkler_pairs` — DuckDB's native
    jaro_winkler_similarity over the same blocked vocabulary join."""
    return (
        "WITH v AS (\n"
        " SELECT w AS word, CAST(COUNT(*) AS BIGINT) AS df\n"
        " FROM (SELECT DISTINCT doc_id, unnest("
        + words_sql
        + ") AS w FROM documents)\n"
        f" WHERE length(w) <= {max_len}\n"
        f" GROUP BY w HAVING COUNT(*) >= {min_df}\n"
        ")\n"
        "SELECT a.word AS word_a, b.word AS word_b,"
        " a.df AS df_a, b.df AS df_b,\n"
        " jaro_winkler_similarity(a.word, b.word) AS jw\n"
        "FROM v a JOIN v b ON a.word < b.word\n"
        " AND substr(a.word, 1, 1) = substr(b.word, 1, 1)\n"
        " AND abs(length(a.word) - length(b.word)) <= 2\n"
        f"WHERE jaro_winkler_similarity(a.word, b.word) >= {threshold}"
    )
