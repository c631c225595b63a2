"""Corpus-relative term weighting and balanced sampling — two more
training-data-pipeline staples over the documents table.

- ``tfidf_top_terms``: per-document top-k terms by tf·idf. The document
  frequency is computed INSIDE the word-partitioned block (each word's
  (doc, tf) rows are co-located after one hash exchange, so df = run
  length) — no separate df table, no big-big join; a second exchange
  ranks per doc. Two shuffles total, both of small derived rows.
- ``stratified_sample_per_group``: deterministic k-per-group sample by
  multiplicative doc_id hash — the balanced-sampling primitive for
  training-mix construction (e.g. equal documents per language). One
  shuffle; the hash order is reproducible in SQL (HUGEINT arithmetic),
  so the driver oracle checks it exactly.

Both deterministic, both DuckDB-oracle-backed.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from ocr_ray.ops.analysis import _WORD_RE

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)


def _word_tf_rows(batch: pa.Table) -> pa.Table:
    ids, words, tfs = [], [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        for w, c in sorted(Counter(_WORD_RE.findall((text or "").lower())).items()):
            ids.append(doc_id)
            words.append(w)
            tfs.append(c)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "word": pa.array(words, pa.string()),
            "tf": pa.array(tfs, pa.int64()),
        }
    )


def tfidf_top_terms(docs, k: int = 5):
    """Top-k terms per document by tf·idf (idf = ln(N/df), ties broken
    by word ascending on the 6-decimal-rounded score). Output
    (doc_id, word, tf, score, rank)."""
    from ocr_ray.stages.grouped import grouped_map

    n_docs = docs.count()  # metadata count of the input table — no scan

    rows = docs.select_columns(["doc_id", "text"]).map_batches(
        _word_tf_rows, batch_format="pyarrow"
    )

    def score_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        # block is hash-partitioned AND sorted by word: df of a word is
        # its run length (one row per (doc, word))
        n = block.num_rows
        if n == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("word", pa.string()),
                 ("tf", pa.int64()), ("score", pa.float64())]
            ).empty_table()
        ends = np.append(starts[1:], n)
        df = np.repeat(ends - starts, ends - starts).astype(np.float64)
        tf = block.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.round(tf * np.log(float(n_docs) / df), 6)
        return block.append_column("score", pa.array(score, pa.float64()))

    scored = grouped_map(rows, ["word"], score_block)

    def topk_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        out = {c: [] for c in ("doc_id", "word", "tf", "score", "rank")}
        ends = np.append(starts[1:], block.num_rows)
        ids = block.column("doc_id").to_pylist()
        words = block.column("word").to_pylist()
        tfs = block.column("tf").to_pylist()
        scores = block.column("score").to_pylist()
        for s, e in zip(starts, ends):
            order = sorted(range(s, e), key=lambda i: (-scores[i], words[i]))[:k]
            for rank, i in enumerate(order, 1):
                out["doc_id"].append(ids[i])
                out["word"].append(words[i])
                out["tf"].append(tfs[i])
                out["score"].append(scores[i])
                out["rank"].append(rank)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "word": pa.array(out["word"], pa.string()),
                "tf": pa.array(out["tf"], pa.int64()),
                "score": pa.array(out["score"], pa.float64()),
                "rank": pa.array(out["rank"], pa.int64()),
            }
        )

    return grouped_map(scored, ["doc_id"], topk_block)


def stratified_sample_per_group(docs, group_col: str = "lang", k: int = 10):
    """Deterministic k rows per group: order by the multiplicative hash
    of doc_id (uniform, input-order-independent), tie-break by doc_id.
    Output (group_col, doc_id, rank). The same hash is expressible in
    SQL ((doc_id * 2654435761) % 2^32 via HUGEINT), so this is
    oracle-checked exactly."""
    from ocr_ray.stages.grouped import grouped_map

    def sample_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        out_g, out_id, out_rank = [], [], []
        ends = np.append(starts[1:], block.num_rows)
        groups = block.column(group_col).to_pylist()
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        h = ((ids.astype(np.uint64) * _KNUTH) & _M32).astype(np.int64)
        for s, e in zip(starts, ends):
            order = sorted(range(s, e), key=lambda i: (h[i], ids[i]))[:k]
            for rank, i in enumerate(order, 1):
                out_g.append(groups[i])
                out_id.append(int(ids[i]))
                out_rank.append(rank)
        return pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_id, pa.int64()),
                "rank": pa.array(out_rank, pa.int64()),
            }
        )

    return grouped_map(
        docs.select_columns([group_col, "doc_id"]), [group_col], sample_block
    )


def unigram_logprob(docs, scale: int = 1_000_000):
    """Per-document unigram language-model score against the corpus's
    own unigram distribution — the perplexity-style quality signal a
    training-mix pipeline uses to rank documents (low average log-prob
    ≈ unusual vocabulary).

    score(d) = Σ_{w∈d} tf(w,d) · qlog(n_w / N) where n_w is the corpus
    count of w, N the corpus token count, and qlog quantizes each log to
    an integer (``floor(ln(p)·scale)``, the bit-verified trick shared
    with ``zipf_slope_by_lang``) so the big sum
    is EXACT int64 and order-free; the per-doc average is the one shared
    IEEE float.

    Scale shape (two shuffles of slim derived rows, like tf-idf): the
    (doc, word, tf) rows materialize once (a single tokenization pass —
    the corpus count N and the word-partitioned pass both read the same
    object-store copy rather than re-tokenizing the 100 TB input);
    word counts n_w resolve inside the word-partitioned block (run
    segment-sums, no df table); per-doc partials pre-combine in-block
    before the final (doc)-keyed sum.

    Output: (doc_id, n_tokens, qlogprob, avg_logprob). Docs with zero
    tokens emit no row (SQL's GROUP BY over an empty unnest agrees).
    """
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    rows = (
        docs.select_columns(["doc_id", "text"])
        .map_batches(_word_tf_rows, batch_format="pyarrow")
        .materialize()
    )
    agg_row = rows.aggregate(Sum("tf", alias_name="t"))
    total = (agg_row or {}).get("t") or 0
    if total == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.schema(
                [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                 ("qlogprob", pa.int64()), ("avg_logprob", pa.float64())]
            ).empty_table()
        )

    part_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
         ("qsum", pa.int64())]
    )

    def contrib_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        ends = np.append(starts[1:], n)
        tf = block.column("tf").to_numpy(zero_copy_only=False)
        # corpus count of each word = segment sum over its run
        n_w = np.repeat(np.add.reduceat(tf, starts), ends - starts)
        # qlog of the double quotient — identical bits to the SQL
        # floor(ln(CAST(n AS DOUBLE)/CAST(N AS DOUBLE)) * scale)
        q = np.floor(
            np.log(n_w.astype(np.float64) / float(total)) * scale
        ).astype(np.int64)
        g = (
            pa.table(
                {
                    "doc_id": block.column("doc_id").cast(pa.int64()),
                    "n_tokens": pa.array(tf, pa.int64()),
                    "qsum": pa.array(tf * q, pa.int64()),
                }
            )
            .group_by("doc_id")
            .aggregate([("n_tokens", "sum"), ("qsum", "sum")])
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "n_tokens": g["n_tokens_sum"].cast(pa.int64()),
                "qsum": g["qsum_sum"].cast(pa.int64()),
            }
        )

    agg = (
        grouped_map(rows, ["word"], contrib_block)
        .groupby("doc_id")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("qsum", alias_name="qlogprob"),
        )
    )

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
         ("qlogprob", pa.int64()), ("avg_logprob", pa.float64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        nt = t["n_tokens"].cast(pa.int64())
        qs = t["qlogprob"].cast(pa.int64())
        avg = (
            qs.to_numpy(zero_copy_only=False).astype(np.float64)
            / nt.to_numpy(zero_copy_only=False).astype(np.float64)
            / float(scale)
        )
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_tokens": nt,
                "qlogprob": qs,
                "avg_logprob": pa.array(avg, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------- feature hashing (hashing trick)


_FH_MEMO: dict[str, tuple[int, int]] = {}
_FH_MEMO_CAP = 1_000_000  # ~60 MB worst case per actor; vocab-bounded anyway


def _fh_bucket_sign(word: str, n_buckets: int) -> tuple[int, int]:
    """(bucket, sign) from md5 — the same digest DuckDB's md5() returns,
    so the assignment is SQL-replayable: bucket = first 8 hex chars as
    uint32 mod n_buckets, sign = parity of the 9th hex char."""
    got = _FH_MEMO.get(word)
    if got is not None:
        return got
    import hashlib

    d = hashlib.md5(word.encode("utf-8")).hexdigest()
    pair = (int(d[:8], 16) % n_buckets, 1 if int(d[8], 16) % 2 == 0 else -1)
    if len(_FH_MEMO) < _FH_MEMO_CAP:
        _FH_MEMO[word] = pair
    return pair


def hashed_bow(docs, n_buckets: int = 64):
    """Feature-hashing (hashing-trick) bag-of-words vectorization: each
    document becomes sparse rows (doc_id, bucket, weight) where weight
    is the signed sum of token counts hashing into the bucket
    (Weinberger et al. 2009 — the fixed-width text featurizer that
    needs NO vocabulary pass, so it's a single stateless map over the
    corpus at any scale; the standard cheap featurizer for quality
    classifiers over web-scale text).

    Scale shape: one ``map_batches`` pass, no shuffle, no global state —
    the hash IS the vocabulary. Per-actor md5 memoization makes the
    digest cost per-distinct-word, not per-occurrence. Rows out are
    bounded by docs x n_buckets. A (doc, bucket) group is emitted iff at
    least one token hashed there (signed counts may cancel to weight 0 —
    emitted as 0, exactly like the SQL GROUP BY it is checked against).
    """

    def batch_fn(t: pa.Table) -> pa.Table:
        out_id, out_b, out_w = [], [], []
        for doc_id, text in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        ):
            acc: dict[int, int] = {}
            for w, c in Counter(
                _WORD_RE.findall((text or "").lower())
            ).items():
                b, s = _fh_bucket_sign(w, n_buckets)
                acc[b] = acc.get(b, 0) + s * c
            for b in sorted(acc):
                out_id.append(doc_id)
                out_b.append(b)
                out_w.append(acc[b])
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "bucket": pa.array(out_b, pa.int64()),
                "weight": pa.array(out_w, pa.int64()),
            }
        )

    return docs.map_batches(batch_fn, batch_format="pyarrow")


def hashed_bow_sql(words_sql: str, n_buckets: int = 64) -> str:
    """SQL replay: md5 via DuckDB's md5(), first 8 hex chars -> uint32
    -> mod n_buckets, 9th hex char parity -> sign, GROUP BY doc/bucket."""
    return (
        "WITH words AS (\n"
        f" SELECT doc_id, unnest({words_sql}) AS w FROM documents\n"
        "), h AS (\n"
        " SELECT doc_id,\n"
        f"  CAST(('0x' || substr(md5(w), 1, 8))::BIGINT % {n_buckets}"
        " AS BIGINT) AS bucket,\n"
        "  CASE WHEN ('0x' || substr(md5(w), 9, 1))::BIGINT % 2 = 0"
        " THEN 1 ELSE -1 END AS s\n"
        " FROM words\n"
        ")\n"
        "SELECT doc_id, bucket, CAST(SUM(s) AS BIGINT) AS weight\n"
        "FROM h GROUP BY 1, 2"
    )


DEFAULT_LOGPROB_THRESHOLDS = tuple(
    t * 1_000_000 for t in range(-12, -3)
)
_LP_OFF = 1 << 40  # sign-safe offset: qlogprob is negative


def logprob_filter_sweep(docs, thresholds=DEFAULT_LOGPROB_THRESHOLDS,
                         scale: int = 1_000_000):
    """Perplexity-filter calibration: for each candidate cutoff on the
    per-document average unigram log-prob, how many documents and
    tokens survive — the survivor curve that picks a quality threshold
    BEFORE committing a 100 TB filtering pass (CCNet-style).

    The per-doc metric is the exact integer
    ``avg_micro = qlogprob // n_tokens`` (floor), computed with the
    sign-safe +2^40·n offset so numpy floor-div and DuckDB
    truncate-div agree on the negative numerator (the repo-wide
    discipline). Rides the proven ``unigram_logprob`` composition;
    the sweep itself is map-side integer partials over slim rows.

    Output per threshold: (threshold_micro, n_kept, tokens_kept)."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema

    ths = [int(t) for t in thresholds]
    scored = unigram_logprob(docs, scale=scale)

    part_schema = pa.schema(
        [
            ("threshold_micro", pa.int64()),
            ("n_kept", pa.int64()),
            ("tokens_kept", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "qlogprob" not in t.column_names:
            return part_schema.empty_table()
        q = (
            t.column("qlogprob")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n = (
            t.column("n_tokens")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        avg = (q + _LP_OFF * n) // n - _LP_OFF
        rows_t, rows_k, rows_tok = [], [], []
        for th in ths:
            keep = avg >= th
            rows_t.append(th)
            rows_k.append(int(keep.sum()))
            rows_tok.append(int(n[keep].sum()))
        return pa.table(
            {
                "threshold_micro": pa.array(rows_t, pa.int64()),
                "n_kept": pa.array(rows_k, pa.int64()),
                "tokens_kept": pa.array(rows_tok, pa.int64()),
            }
        )

    agg = (
        _with_schema(
            scored.map_batches(partials, batch_format="pyarrow"),
            part_schema,
        )
        .groupby("threshold_micro")
        .aggregate(
            Sum("n_kept", alias_name="n_kept"),
            Sum("tokens_kept", alias_name="tokens_kept"),
        )
    ).take_all()  # bounded: len(thresholds) rows
    by_th = {int(r["threshold_micro"]): r for r in agg}
    out = {"threshold_micro": [], "n_kept": [], "tokens_kept": []}
    for th in ths:  # every threshold emits a row even when nothing kept
        r = by_th.get(th)
        out["threshold_micro"].append(th)
        out["n_kept"].append(int(r["n_kept"]) if r else 0)
        out["tokens_kept"].append(int(r["tokens_kept"]) if r else 0)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def logprob_filter_sweep_sql(unigram_sql: str,
                             thresholds=DEFAULT_LOGPROB_THRESHOLDS) -> str:
    """SQL replay over the proven unigram_logprob chain: same offset
    floor-average, thresholds cross-joined, COALESCE'd to zero rows."""
    values = ", ".join(f"({int(t)})" for t in thresholds)
    return (
        "WITH scored AS MATERIALIZED (\n"
        + unigram_sql
        + f"\n), ths(threshold_micro) AS (VALUES {values}),\n"
        "avgd AS (\n"
        " SELECT doc_id, n_tokens,\n"
        f"  (qlogprob + {_LP_OFF}::HUGEINT * n_tokens) // n_tokens"
        f" - {_LP_OFF} AS avg_micro\n"
        " FROM scored\n"
        ")\n"
        "SELECT CAST(threshold_micro AS BIGINT) AS threshold_micro,\n"
        " CAST(COALESCE(SUM(CASE WHEN avg_micro >= threshold_micro"
        " THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_kept,\n"
        " CAST(COALESCE(SUM(CASE WHEN avg_micro >= threshold_micro"
        " THEN n_tokens ELSE 0 END), 0) AS BIGINT) AS tokens_kept\n"
        "FROM ths LEFT JOIN avgd ON TRUE GROUP BY threshold_micro"
    )


def rare_token_ratio(docs, max_count: int = 2):
    """Per-document rare-vocabulary ratio: the fraction of a doc's
    tokens whose CORPUS frequency is ≤ ``max_count`` — the OCR-garbage
    / misspelling / boilerplate-id detector (quality filters cut docs
    whose text is dominated by words nobody else uses; near-zero
    ratios flag template text).

    Scale shape: same two slim shuffles as ``unigram_logprob`` (shared
    (doc, word, tf) rows; corpus counts resolve as segment sums inside
    the word-partitioned block — no frequency table ships anywhere).

    Output: (doc_id, n_tokens, n_rare, rare_ppm); zero-token docs emit
    no row."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    rows = (
        docs.select_columns(["doc_id", "text"])
        .map_batches(_word_tf_rows, batch_format="pyarrow")
        .materialize()
    )

    part_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("n_rare", pa.int64()),
        ]
    )

    def contrib_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        ends = np.append(starts[1:], n)
        tf = block.column("tf").to_numpy(zero_copy_only=False)
        n_w = np.repeat(np.add.reduceat(tf, starts), ends - starts)
        rare = np.where(n_w <= max_count, tf, 0).astype(np.int64)
        g = (
            pa.table(
                {
                    "doc_id": block.column("doc_id").cast(pa.int64()),
                    "n_tokens": pa.array(tf, pa.int64()),
                    "n_rare": pa.array(rare, pa.int64()),
                }
            )
            .group_by("doc_id")
            .aggregate([("n_tokens", "sum"), ("n_rare", "sum")])
        )
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "n_tokens": g["n_tokens_sum"].cast(pa.int64()),
                "n_rare": g["n_rare_sum"].cast(pa.int64()),
            }
        )

    agg = _with_schema(
        grouped_map(rows, ["word"], contrib_block)
        .groupby("doc_id")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_rare", alias_name="n_rare"),
        ),
        part_schema,
    )

    def finalize(t: pa.Table) -> pa.Table:
        out_schema = part_schema.append(pa.field("rare_ppm", pa.int64()))
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        nt = t.column("n_tokens").to_numpy(zero_copy_only=False)
        nr = t.column("n_rare").to_numpy(zero_copy_only=False)
        return t.append_column(
            "rare_ppm",
            pa.array(nr * 1_000_000 // np.maximum(nt, 1), pa.int64()),
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def rare_token_ratio_sql(words_sql: str, max_count: int = 2) -> str:
    return (
        "WITH words AS (\n"
        f" SELECT doc_id, unnest({words_sql}) AS word FROM documents\n"
        "), tf AS (\n"
        " SELECT doc_id, word, CAST(COUNT(*) AS BIGINT) AS tf\n"
        " FROM words GROUP BY 1, 2\n"
        "), cw AS (\n"
        " SELECT word, SUM(tf) AS n_w FROM tf GROUP BY word\n"
        "), agg AS (\n"
        " SELECT tf.doc_id, CAST(SUM(tf.tf) AS BIGINT) AS n_tokens,\n"
        f"  CAST(SUM(CASE WHEN cw.n_w <= {max_count} THEN tf.tf"
        " ELSE 0 END) AS BIGINT) AS n_rare\n"
        " FROM tf JOIN cw USING (word) GROUP BY tf.doc_id\n"
        ")\n"
        "SELECT doc_id, n_tokens, n_rare,\n"
        " CAST(n_rare * 1000000 // n_tokens AS BIGINT) AS rare_ppm\n"
        "FROM agg"
    )


DEFAULT_TRUNC_LENS = (256, 512, 1024, 2048, 4096)


def truncation_loss_sweep(docs, max_lens=DEFAULT_TRUNC_LENS):
    """Context-length truncation audit: for each candidate maximum
    sequence length, how many documents exceed it and how many tokens
    a truncate-at-L policy would DISCARD — the counterpart to
    ``packing_efficiency_sweep`` when the training setup truncates
    instead of packing. One stateless token-count scan, integer
    partials per (batch, L).

    Output: (max_len, n_docs, total_tokens, n_truncated, tokens_lost)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema

    lens = [int(x) for x in max_lens]
    part_schema = pa.schema(
        [
            ("max_len", pa.int64()),
            ("n_docs", pa.int64()),
            ("total_tokens", pa.int64()),
            ("n_truncated", pa.int64()),
            ("tokens_lost", pa.int64()),
        ]
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
        out = {k: [] for k in part_schema.names}
        for L in lens:
            lost = np.maximum(n - L, 0)
            out["max_len"].append(L)
            out["n_docs"].append(len(n))
            out["total_tokens"].append(int(n.sum()))
            out["n_truncated"].append(int((n > L).sum()))
            out["tokens_lost"].append(int(lost.sum()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in out.items()}
        )

    return _with_schema(
        docs.map_batches(partials, batch_format="pyarrow"), part_schema
    ).groupby("max_len").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("total_tokens", alias_name="total_tokens"),
        Sum("n_truncated", alias_name="n_truncated"),
        Sum("tokens_lost", alias_name="tokens_lost"),
    )


def truncation_loss_sql(max_lens=DEFAULT_TRUNC_LENS) -> str:
    values = ", ".join(f"({int(x)})" for x in max_lens)
    return (
        "WITH t AS (\n"
        " SELECT CAST(len(regexp_extract_all(COALESCE(text, ''),"
        " '\\S+')) AS BIGINT) AS n\n"
        " FROM documents\n"
        f"), ls(max_len) AS (VALUES {values})\n"
        "SELECT CAST(max_len AS BIGINT) AS max_len,\n"
        " CAST(COUNT(*) AS BIGINT) AS n_docs,\n"
        " CAST(SUM(n) AS BIGINT) AS total_tokens,\n"
        " CAST(SUM(CASE WHEN n > max_len THEN 1 ELSE 0 END) AS BIGINT)"
        " AS n_truncated,\n"
        " CAST(SUM(CASE WHEN n > max_len THEN n - max_len ELSE 0 END)"
        " AS BIGINT) AS tokens_lost\n"
        "FROM t CROSS JOIN ls GROUP BY max_len"
    )
