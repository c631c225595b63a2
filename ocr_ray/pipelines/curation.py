"""The flagship composed curation DAG — every stage a 100 TB training
run needs, in ONE streaming pipeline:

    read → quality/langid filter → exact dedup → near-dup drop →
    decontaminate → train/val/test split → sequence packing → rollup
    (and, via :func:`run_curation_checkpointed`, → partitioned write
    with per-stage lineage and kill-and-resume).

Every stage reuses the PROVEN kernel of its standalone operator
(``ops.curate`` scoring filter, ``ops.dedup`` inverted-index jaccard +
connected components, ``ops.decontam`` benchmark shingle probe,
``ops.split`` hash split, ``ops.chunk`` distributed prefix-sum
packing), so the DuckDB oracle composes their already-green SQL
fragments verbatim.

Scale design — what moves, and how often the text is read:

- The document TEXT is scanned exactly twice in the composed query
  (plus one small benchmark scan): pass 1 scores + filters +
  fingerprints + contamination-probes every doc into a SLIM row
  (~60 B/doc); pass 2 re-derives shingle rows for filter survivors.
  The checkpoint RUNNER fuses both into ONE scan (stage 1 emits score
  + shingle (+ band-key) rows together). Text never enters a shuffle.
- Every shuffle in the DAG moves slim derived rows only: the exact-dedup
  groupby ships (fp, lang, n_tokens, flag) keys; the keeper restriction
  and the anti-joins are marker-union ``grouped_map`` passes over
  (doc_id)-keyed slim rows — no broadcast of O(corpus) id sets, ever;
  the near-dup machinery ships (shingle-hash, doc_id) pairs with the
  ``max_df`` stop-shingle guard; packing ships (split, bucket, doc_id,
  n_tokens) integer quads.
- The benchmark set is SMALL by definition (an eval set): built
  distributed, ``ray.put`` once, fetched per actor in ``__init__``.
- Driver-side materializations are bounded by construction: per-bucket
  token totals (``n_docs / bucket_width`` rows — 16 MB at 1e12 docs)
  and the per-split offset fold.

Filter → dedup ordering note (same argument as ``ops/curate.py``):
fingerprint-equal texts score identically on every filter signal, and
their lowercased token streams are identical, so ``lang_pred``,
``n_tokens`` and the contamination flag are fingerprint-invariant and
ride in the dedup group key — no join back to the keeper row.

Reference parity: this composes the reference's curation-relevant
semantics (unique-word dedup constraint, app/services/db_service.py:69;
quality scoring, app/services/ocr_service.py) into the pipeline shape
the reference runs per-request — here as one batch DAG.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ocr_ray.io import part_of
from ocr_ray.ops.analysis import normalize_for_fingerprint
from ocr_ray.ops.decontam import DEFAULT_K as DEFAULT_CONTAM_K
from ocr_ray.ops.decontam import _shingles as _contam_shingles
from ocr_ray.ops.decontam import benchmark_shingle_set
from ocr_ray.ops.curate import (
    DEFAULT_MAX_PUNCT_RATIO,
    DEFAULT_MIN_STOPWORD_RATIO,
    DEFAULT_MIN_WORDS,
)
from ocr_ray.ops.textstats import STOP_EN, STOP_ID, _PUNCT_RE, _WORD_RE

DEFAULT_SHINGLE_N = 3
DEFAULT_MAX_DF = 256
DEFAULT_JACCARD = 0.5
DEFAULT_SEQ_LEN = 512
DEFAULT_BUCKET_WIDTH = 65536

_SPLIT_NAMES = np.array(["train", "val", "test"])

_SCORED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("fp", pa.string()),
        ("lang_pred", pa.string()),
        ("n_tokens", pa.int64()),
        ("contaminated", pa.int64()),
    ]
)

_KEEPER_SCHEMA = pa.schema(
    [
        ("fp", pa.string()),
        ("lang_pred", pa.string()),
        ("n_tokens", pa.int64()),
        ("contaminated", pa.int64()),
        ("doc_id", pa.int64()),
        ("n_copies", pa.int64()),
    ]
)

_STATS_SCHEMA = pa.schema(
    [
        ("split", pa.string()),
        ("n_docs", pa.int64()),
        ("n_docs_en", pa.int64()),
        ("n_docs_id", pa.int64()),
        ("sum_tokens", pa.int64()),
        ("n_sequences", pa.int64()),
        ("n_boundary_docs", pa.int64()),
    ]
)


def _passes_filter(
    words: list[str],
    text: str,
    *,
    min_words: int,
    min_stopword_ratio: float,
    max_punct_ratio: float,
    stops: frozenset,
) -> bool:
    """The curate keep-predicate, shared verbatim between pass 1 and the
    pass-2 prefilter (ops/curate.py:_score_filter_batch semantics)."""
    n_words = len(words)
    if n_words < min_words:
        return False
    punct_ratio = len(_PUNCT_RE.findall(text)) / max(len(text), 1)
    if punct_ratio > max_punct_ratio:
        return False
    stop_ratio = sum(1 for w in words if w in stops) / max(n_words, 1)
    return stop_ratio >= min_stopword_ratio


class _ScoreStage:
    """Pass 1 (actor pool): per-doc scoring + filter + fingerprint +
    contamination probe in ONE scan. The benchmark shingle set is
    fetched from the object store once per actor in ``__init__``."""

    def __init__(
        self,
        bench_ref,
        *,
        min_words: int,
        min_stopword_ratio: float,
        max_punct_ratio: float,
        contam_k: int,
    ):
        import ray

        self.bench = (
            ray.get(bench_ref) if bench_ref is not None else frozenset()
        )
        self.min_words = min_words
        self.min_stopword_ratio = min_stopword_ratio
        self.max_punct_ratio = max_punct_ratio
        self.contam_k = contam_k
        self.stop_id = frozenset(STOP_ID)
        self.stop_en = frozenset(STOP_EN)
        self.stops = self.stop_id | self.stop_en

    def _score_doc(self, text) -> tuple[str, str, int, int] | None:
        """(fp, lang_pred, n_tokens, contaminated) for a filter
        survivor, None for a reject — the ONE per-doc scoring kernel
        shared by the standalone pass and the runner's fused stage."""
        t = text or ""
        words = _WORD_RE.findall(t.lower())
        if not _passes_filter(
            words,
            t,
            min_words=self.min_words,
            min_stopword_ratio=self.min_stopword_ratio,
            max_punct_ratio=self.max_punct_ratio,
            stops=self.stops,
        ):
            return None
        sid = sum(1 for w in words if w in self.stop_id)
        sen = sum(1 for w in words if w in self.stop_en)
        contaminated = int(
            any(
                s in self.bench
                for s in set(_contam_shingles(t, self.contam_k))
            )
        )
        fp = hashlib.md5(
            normalize_for_fingerprint(t).encode("utf-8")
        ).hexdigest()
        return fp, ("id" if sid >= sen else "en"), len(t.split()), contaminated

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out_id, out_fp, out_lang, out_tok, out_con = [], [], [], [], []
        for doc_id, text in zip(ids, batch.column("text").to_pylist()):
            scored = self._score_doc(text)
            if scored is None:
                continue
            fp, lang, n_tok, contaminated = scored
            out_id.append(doc_id)
            out_fp.append(fp)
            out_lang.append(lang)
            out_tok.append(n_tok)
            out_con.append(contaminated)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "fp": pa.array(out_fp, pa.string()),
                "lang_pred": pa.array(out_lang, pa.string()),
                "n_tokens": pa.array(out_tok, pa.int64()),
                "contaminated": pa.array(out_con, pa.int64()),
            }
        )


def curation_scored(
    docs,
    bench_ref=None,
    *,
    min_words: int = DEFAULT_MIN_WORDS,
    min_stopword_ratio: float = DEFAULT_MIN_STOPWORD_RATIO,
    max_punct_ratio: float = DEFAULT_MAX_PUNCT_RATIO,
    contam_k: int = DEFAULT_CONTAM_K,
    concurrency=None,
):
    """Pass 1: (doc_id, text) → slim scored rows for filter survivors.
    ``concurrency`` defaults to the resource plan's autoscaling pool."""
    from ocr_ray.context import cluster_cpus, plan_resources
    from ocr_ray.ops.dedup import _with_schema

    plan = plan_resources(cluster_cpus())
    return _with_schema(
        docs.map_batches(
            _ScoreStage,
            fn_constructor_kwargs={
                "bench_ref": bench_ref,
                "min_words": min_words,
                "min_stopword_ratio": min_stopword_ratio,
                "max_punct_ratio": max_punct_ratio,
                "contam_k": contam_k,
            },
            batch_format="pyarrow",
            concurrency=concurrency or plan.pool,
            num_cpus=plan.actor_cpus,
        ),
        _SCORED_SCHEMA,
    )


def curation_keepers(scored):
    """Exact dedup over the slim scored rows: one keyed groupby; keeper
    = min doc_id per fingerprint (lang/tokens/flag are fp-invariant and
    ride in the key — see module docstring)."""
    from ray.data.aggregate import Count, Min

    from ocr_ray.ops.dedup import _with_schema

    return _with_schema(
        scored.groupby(["fp", "lang_pred", "n_tokens", "contaminated"])
        .aggregate(
            Min("doc_id", alias_name="doc_id"),
            Count(alias_name="n_copies"),
        ),
        _KEEPER_SCHEMA,
    )


def _marker_semi_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Keep non-marker rows of (doc_id-keyed) groups that contain a
    marker row — the slim hash semi-join (no O(corpus) broadcast)."""
    n = block.num_rows
    if n == 0 or len(starts) == 0:
        return block.drop_columns(["is_marker"]).slice(0, 0)
    ism = block.column("is_marker").to_numpy(zero_copy_only=False)
    sizes = np.diff(np.append(starts, n))
    gidx = np.repeat(np.arange(len(starts)), sizes)
    has_marker = np.bincount(gidx, weights=ism, minlength=len(starts)) > 0
    keep = has_marker[gidx] & (ism == 0)
    return block.filter(pa.array(keep)).drop_columns(["is_marker"])


def _marker_anti_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Keep non-marker rows of groups WITHOUT a marker row — the slim
    hash anti-join (drop-list application without a broadcast)."""
    n = block.num_rows
    if n == 0 or len(starts) == 0:
        return block.drop_columns(["is_marker"]).slice(0, 0)
    ism = block.column("is_marker").to_numpy(zero_copy_only=False)
    sizes = np.diff(np.append(starts, n))
    gidx = np.repeat(np.arange(len(starts)), sizes)
    has_marker = np.bincount(gidx, weights=ism, minlength=len(starts)) > 0
    keep = (~has_marker[gidx]) & (ism == 0)
    return block.filter(pa.array(keep)).drop_columns(["is_marker"])


def _tagged_union(data, data_schema: pa.Schema, ids, block_fn,
                  key: str | list[str] = "doc_id"):
    """Union ``data`` (tagged is_marker=0) with marker rows built from
    ``ids``'s key column(s) (tagged 1, other columns zero/empty), hash
    partition by the key(s), apply ``block_fn`` per block. Both inputs
    are slim; one shuffle total."""
    from ocr_ray.stages.grouped import grouped_map

    keys = [key] if isinstance(key, str) else list(key)
    tagged_schema = data_schema.append(pa.field("is_marker", pa.int64()))
    key_types = {k: data_schema.field(k).type for k in keys}

    def tag_data(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return tagged_schema.empty_table()
        return t.select(data_schema.names).append_column(
            "is_marker", pa.array(np.zeros(t.num_rows, np.int64))
        )

    def tag_marker(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return tagged_schema.empty_table()
        n = t.num_rows
        cols = {}
        for f in data_schema:
            if f.name in key_types:
                cols[f.name] = t.column(f.name).cast(key_types[f.name])
            elif pa.types.is_integer(f.type) or pa.types.is_floating(f.type):
                cols[f.name] = pa.array(np.zeros(n), f.type)
            else:
                cols[f.name] = pa.array([""] * n, f.type)
        cols["is_marker"] = pa.array(np.ones(n, np.int64))
        return pa.table(cols, schema=tagged_schema)

    left = data.map_batches(tag_data, batch_format="pyarrow")
    right = ids.map_batches(tag_marker, batch_format="pyarrow")
    return grouped_map(left.union(right), keys, block_fn)


def _prefilter_factory(
    min_words: int, min_stopword_ratio: float, max_punct_ratio: float
):
    stops = frozenset(STOP_ID) | frozenset(STOP_EN)

    def prefilter(batch: pa.Table) -> pa.Table:
        keep = [
            _passes_filter(
                _WORD_RE.findall((t or "").lower()),
                t or "",
                min_words=min_words,
                min_stopword_ratio=min_stopword_ratio,
                max_punct_ratio=max_punct_ratio,
                stops=stops,
            )
            for t in batch.column("text").to_pylist()
        ]
        return batch.filter(pa.array(keep))

    return prefilter


def curation_neardup_drops(
    docs,
    keepers,
    *,
    shingle_n: int = DEFAULT_SHINGLE_N,
    max_df: int = DEFAULT_MAX_DF,
    threshold: float = DEFAULT_JACCARD,
    min_words: int = DEFAULT_MIN_WORDS,
    min_stopword_ratio: float = DEFAULT_MIN_STOPWORD_RATIO,
    max_punct_ratio: float = DEFAULT_MAX_PUNCT_RATIO,
):
    """Near-dup drop list over the exact-dedup keepers: pass 2 re-derives
    word-shingle rows for filter survivors (the prefilter avoids
    shingling docs the filter already rejected — a pure optimization,
    the keeper semi-join decides membership), restricts them to keepers
    via the slim marker semi-join, then runs the proven inverted-index
    jaccard machinery + connected components; drop = every non-min
    member of a component.

    Restricting BEFORE pair generation matters for parity: the
    ``max_df`` stop-shingle guard must see keeper-only document
    frequencies, exactly like the oracle's df CTE over keepers."""
    from ocr_ray.ops.dedup import _shingle_rows_factory

    rows = docs.map_batches(
        _prefilter_factory(min_words, min_stopword_ratio, max_punct_ratio),
        batch_format="pyarrow",
    ).map_batches(_shingle_rows_factory(shingle_n), batch_format="pyarrow")
    return neardup_drops_from_rows(
        rows, keepers, max_df=max_df, threshold=threshold
    )


_SHINGLE_ROW_SCHEMA = pa.schema(
    [
        ("shingle", pa.uint64()),
        ("doc_id", pa.int64()),
        ("set_size", pa.int64()),
    ]
)


def neardup_drops_from_rows(
    rows,
    keepers,
    *,
    max_df: int = DEFAULT_MAX_DF,
    threshold: float = DEFAULT_JACCARD,
):
    """Near-dup drop list from precomputed shingle rows (the runner's
    entry point: stage 1 persists the rows, stage 3 replays them
    without re-reading text)."""
    from ocr_ray.ops.dedup import (
        _cooccur_block_factory,
        _pair_sum_block,
        connected_components,
    )
    from ocr_ray.stages.grouped import grouped_map

    restricted = _tagged_union(
        rows, _SHINGLE_ROW_SCHEMA, keepers, _marker_semi_block
    )
    pairs = grouped_map(
        restricted, ["shingle"], _cooccur_block_factory(max_df)
    )
    counted = grouped_map(pairs, ["doc_a", "doc_b"], _pair_sum_block)

    def jaccard_filter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("doc_a", pa.int64()), ("doc_b", pa.int64())]
            ).empty_table()
        inter = (
            t["intersection"].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        union = (
            t["size_a"].to_numpy(zero_copy_only=False)
            + t["size_b"].to_numpy(zero_copy_only=False)
            - inter
        )
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = jac >= threshold
        return pa.table(
            {
                "doc_a": t.column("doc_a").filter(pa.array(keep)),
                "doc_b": t.column("doc_b").filter(pa.array(keep)),
            }
        )

    near_pairs = counted.map_batches(jaccard_filter, batch_format="pyarrow")
    comp = connected_components(near_pairs)

    def non_min(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("doc_id", pa.int64())]).empty_table()
        keep = pc.not_equal(t.column("node"), t.column("label"))
        return pa.table({"doc_id": t.column("node").filter(keep)})

    return comp.map_batches(non_min, batch_format="pyarrow")


def curation_survivors(keepers, drops):
    """Apply the near-dup drop list (slim marker anti-join) and the
    contamination flag: the clean, deduplicated, decontaminated corpus
    as slim rows (doc_id, lang_pred, n_tokens)."""
    kept = _tagged_union(keepers, _KEEPER_SCHEMA, drops, _marker_anti_block)

    def decontam(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("lang_pred", pa.string()),
                ("n_tokens", pa.int64()),
            ]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        clean = t.filter(pc.equal(t.column("contaminated"), 0))
        return clean.select(["doc_id", "lang_pred", "n_tokens"])

    return kept.map_batches(decontam, batch_format="pyarrow")


def curation_pack(
    survivors,
    *,
    seq_len: int = DEFAULT_SEQ_LEN,
    bucket_width: int = DEFAULT_BUCKET_WIDTH,
    survivors_factory=None,
    base_offsets: dict | None = None,
    totals_out: dict | None = None,
):
    """Per-split greedy sequence packing of the surviving corpus, as a
    distributed ordered prefix sum (ops/chunk.py:pack_sequences pattern,
    keyed by (split, doc_id-range bucket)): documents never shuffle;
    per-(split, bucket) token totals are a tiny keyed aggregate; the
    driver folds them into base offsets in bucket order and broadcasts
    ONE dict; one grouped_map computes in-block cumsums.

    ``survivors_factory``: when the survivors lineage is CHEAP to
    re-derive (the checkpoint runner reads them from slim parquet), a
    zero-arg callable returning a fresh survivors dataset lets the two
    passes (totals aggregate, pack) each run off their own lineage —
    one Ray launch apiece, no mid-pipeline materialize. When None (the
    composed in-memory DAG, where re-deriving would re-run the whole
    upstream), the tok rows are materialized once and shared."""
    import ray

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.ops.split import split_of
    from ocr_ray.stages.grouped import grouped_map

    tok_schema = pa.schema(
        [
            ("split", pa.string()),
            ("bucket", pa.int64()),
            ("doc_id", pa.int64()),
            ("lang_pred", pa.string()),
            ("n_tokens", pa.int64()),
        ]
    )
    out_schema = pa.schema(
        [
            ("split", pa.string()),
            ("doc_id", pa.int64()),
            ("lang_pred", pa.string()),
            ("n_tokens", pa.int64()),
            ("seq_first", pa.int64()),
            ("seq_last", pa.int64()),
        ]
    )

    def add_split_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return tok_schema.empty_table()
        ids = (
            t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table(
            {
                "split": pa.array(_SPLIT_NAMES[split_of(ids)], pa.string()),
                "bucket": pa.array(ids // bucket_width, pa.int64()),
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "lang_pred": t.column("lang_pred"),
                "n_tokens": t.column("n_tokens").cast(pa.int64()),
            }
        )

    def tok_of(ds):
        return _with_schema(
            ds.map_batches(add_split_bucket, batch_format="pyarrow"),
            tok_schema,
        )

    if survivors_factory is None:
        tok = tok_of(survivors).materialize()
        tok2 = tok
    else:
        tok = tok_of(survivors)
        tok2 = tok_of(survivors_factory())

    from ray.data.aggregate import Sum

    totals = (
        tok.groupby(["split", "bucket"])
        .aggregate(Sum("n_tokens", alias_name="s"))
        .take_all()
    )  # bounded: one row per (split, doc_id-range bucket)
    offsets: dict[tuple[str, int], int] = {}
    for split in _SPLIT_NAMES:
        # incremental append: the prior corpus's per-split token total
        # shifts every offset, so sequence ids continue where the last
        # shard's packing stopped
        acc = (base_offsets or {}).get(split, 0)
        for r in sorted(
            (r for r in totals if r["split"] == split),
            key=lambda r: r["bucket"],
        ):
            offsets[(split, int(r["bucket"]))] = acc
            acc += int(r["s"])
        if totals_out is not None:
            # cumulative per-split token total THROUGH this corpus —
            # the base offset a subsequent incremental shard packs after
            totals_out[str(split)] = acc
    offsets_ref = ray.put(offsets)

    def pack_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n_rows = block.num_rows
        if n_rows == 0 or len(starts) == 0:
            return out_schema.empty_table()
        base = ray.get(offsets_ref)
        nt = block.column("n_tokens").to_numpy(zero_copy_only=False)
        bk = block.column("bucket").to_numpy(zero_copy_only=False)
        sp = block.column("split").to_pylist()
        sizes = np.diff(np.append(starts, n_rows))
        cum = np.cumsum(nt) - nt
        seg_base = cum[starts]
        prefix = cum - np.repeat(seg_base, sizes)
        prefix += np.repeat(
            np.array(
                [base[(sp[s], int(bk[s]))] for s in starts], np.int64
            ),
            sizes,
        )
        return pa.table(
            {
                "split": block.column("split"),
                "doc_id": block.column("doc_id"),
                "lang_pred": block.column("lang_pred"),
                "n_tokens": block.column("n_tokens"),
                "seq_first": pa.array(prefix // seq_len, pa.int64()),
                "seq_last": pa.array(
                    (prefix + nt - 1) // seq_len, pa.int64()
                ),
            }
        )

    return grouped_map(
        tok2, ["split", "bucket"], pack_block, sort_within=["doc_id"]
    )


def curation_rollup(packed, *, seq_len: int = DEFAULT_SEQ_LEN):
    """Final per-split stats: doc/lang/token counts, sequence count
    (max seq_last + 1 — proves the prefix sum ran), boundary-straddling
    docs. Map-side partials then a 3-row groupby."""
    from ray.data.aggregate import Max, Sum

    part_schema = pa.schema(
        [
            ("split", pa.string()),
            ("n_docs", pa.int64()),
            ("n_docs_en", pa.int64()),
            ("n_docs_id", pa.int64()),
            ("sum_tokens", pa.int64()),
            ("max_seq_last", pa.int64()),
            ("n_boundary_docs", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return part_schema.empty_table()
        sp = np.asarray(t.column("split").to_pylist())
        lang = np.asarray(t.column("lang_pred").to_pylist())
        nt = t.column("n_tokens").to_numpy(zero_copy_only=False)
        sf = t.column("seq_first").to_numpy(zero_copy_only=False)
        sl = t.column("seq_last").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(sp, return_inverse=True)
        k = len(uniq)
        # int64 accumulators throughout (never float64 bincount weights)
        sum_tok = np.zeros(k, np.int64)
        np.add.at(sum_tok, inv, nt.astype(np.int64))
        max_last = np.full(k, -1, np.int64)
        np.maximum.at(max_last, inv, sl.astype(np.int64))
        boundary = np.zeros(k, np.int64)
        np.add.at(boundary, inv, (sf != sl).astype(np.int64))
        return pa.table(
            {
                "split": pa.array(uniq, pa.string()),
                "n_docs": pa.array(
                    np.bincount(inv, minlength=k).astype(np.int64), pa.int64()
                ),
                "n_docs_en": pa.array(
                    np.bincount(inv[lang == "en"], minlength=k).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
                "n_docs_id": pa.array(
                    np.bincount(inv[lang == "id"], minlength=k).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
                "sum_tokens": pa.array(sum_tok, pa.int64()),
                "max_seq_last": pa.array(max_last, pa.int64()),
                "n_boundary_docs": pa.array(boundary, pa.int64()),
            }
        )

    agg = (
        packed.map_batches(partials, batch_format="pyarrow")
        .groupby("split")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_docs_en", alias_name="n_docs_en"),
            Sum("n_docs_id", alias_name="n_docs_id"),
            Sum("sum_tokens", alias_name="sum_tokens"),
            Max("max_seq_last", alias_name="max_seq_last"),
            Sum("n_boundary_docs", alias_name="n_boundary_docs"),
        )
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _STATS_SCHEMA.empty_table()
        return pa.table(
            {
                "split": t.column("split"),
                "n_docs": t.column("n_docs").cast(pa.int64()),
                "n_docs_en": t.column("n_docs_en").cast(pa.int64()),
                "n_docs_id": t.column("n_docs_id").cast(pa.int64()),
                "sum_tokens": t.column("sum_tokens").cast(pa.int64()),
                "n_sequences": pc.add(
                    t.column("max_seq_last").cast(pa.int64()), 1
                ),
                "n_boundary_docs": t.column("n_boundary_docs").cast(
                    pa.int64()
                ),
            }
        )

    from ocr_ray.ops.dedup import _with_schema

    return _with_schema(
        agg.map_batches(finalize, batch_format="pyarrow"), _STATS_SCHEMA
    )


def curation_dag_stats(
    docs,
    bench_docs,
    *,
    seq_len: int = DEFAULT_SEQ_LEN,
    shingle_n: int = DEFAULT_SHINGLE_N,
    max_df: int = DEFAULT_MAX_DF,
    threshold: float = DEFAULT_JACCARD,
    contam_k: int = DEFAULT_CONTAM_K,
    min_words: int = DEFAULT_MIN_WORDS,
    min_stopword_ratio: float = DEFAULT_MIN_STOPWORD_RATIO,
    max_punct_ratio: float = DEFAULT_MAX_PUNCT_RATIO,
    bucket_width: int = DEFAULT_BUCKET_WIDTH,
):
    """The full composed DAG, returning the per-split stats table
    (split, n_docs, n_docs_en, n_docs_id, sum_tokens, n_sequences,
    n_boundary_docs). See module docstring for the stage graph."""
    import ray

    bench_ref = ray.put(benchmark_shingle_set(bench_docs, k=contam_k))
    scored = curation_scored(
        docs,
        bench_ref,
        min_words=min_words,
        min_stopword_ratio=min_stopword_ratio,
        max_punct_ratio=max_punct_ratio,
        contam_k=contam_k,
    )
    keepers = curation_keepers(scored).materialize()  # slim: 1 row/distinct doc
    drops = curation_neardup_drops(
        docs,
        keepers,
        shingle_n=shingle_n,
        max_df=max_df,
        threshold=threshold,
        min_words=min_words,
        min_stopword_ratio=min_stopword_ratio,
        max_punct_ratio=max_punct_ratio,
    )
    survivors = curation_survivors(keepers, drops)
    packed = curation_pack(
        survivors, seq_len=seq_len, bucket_width=bucket_width
    )
    return curation_rollup(packed, seq_len=seq_len)


_BAND_ROW_SCHEMA = pa.schema(
    [
        ("band", pa.int32()),
        ("band_hash", pa.int64()),
        ("doc_id", pa.int64()),
    ]
)

def _band_key_rows(docs, ids, *, num_perm: int, lsh_bands: int,
                   shingle_n: int, min_words: int,
                   min_stopword_ratio: float, max_punct_ratio: float):
    """Slim (band, band_hash, doc_id) rows for the docs named by the
    slim ``ids`` table: signatures are computed MAP-SIDE over the
    (quality-prefiltered) text — fused with the read, text never enters
    a shuffle — and the restriction to ``ids`` is a marker semi-join
    over the 16-per-doc band rows. Computing signatures for docs the
    restriction then drops trades bounded extra CPU for never moving
    text, the same call the fused runner makes (stage 1 emits band rows
    for every filter survivor; stores restrict slim)."""
    from ocr_ray.ops.dedup import _band_rows_factory, minhash_signatures

    rows = minhash_signatures(
        docs.map_batches(
            _prefilter_factory(
                min_words, min_stopword_ratio, max_punct_ratio
            ),
            batch_format="pyarrow",
        ),
        num_perm,
        shingle_n,
    ).map_batches(_band_rows_factory(num_perm, lsh_bands),
                  batch_format="pyarrow")
    return _tagged_union(rows, _BAND_ROW_SCHEMA, ids, _marker_semi_block)


def curation_incremental_stats(
    docs_known,
    docs_new,
    bench_docs,
    *,
    seq_len: int = DEFAULT_SEQ_LEN,
    shingle_n: int = DEFAULT_SHINGLE_N,
    max_df: int = DEFAULT_MAX_DF,
    threshold: float = DEFAULT_JACCARD,
    contam_k: int = DEFAULT_CONTAM_K,
    min_words: int = DEFAULT_MIN_WORDS,
    min_stopword_ratio: float = DEFAULT_MIN_STOPWORD_RATIO,
    max_punct_ratio: float = DEFAULT_MAX_PUNCT_RATIO,
    bucket_width: int = DEFAULT_BUCKET_WIDTH,
    num_perm: int = 64,
    lsh_bands: int = 16,
):
    """End-to-end INCREMENTAL curation — the daily-append operational
    shape of a growing corpus (VERDICT r04 #4): admit a NEW shard
    through the full DAG against the prior corpus's persisted state,
    never rescanning prior text beyond deriving that state once.

    The state a prior run persists (and the checkpoint runner stores on
    disk) is three SLIM structures: the exact-fingerprint store, the
    LSH band keys of the retained survivors, and the per-split token
    totals. This function replays that state from ``docs_known``
    in-session (the oracle needs both shards in one SQL statement),
    then admits ``docs_new``:

    1. filter + score (same ``_ScoreStage`` kernel, prior bench set);
    2. exact dedup within the shard AND anti-join against the prior
       fingerprint store (marker pass, no broadcast);
    3. near-dup: within-shard inverted-index jaccard (same machinery
       as the batch DAG) PLUS cross-shard LSH band-collision drops
       against the PERSISTED band keys — the probabilistic admission
       regime of ``dedup_minhash_incremental``, so history is probed
       via ~``lsh_bands`` slim keys per doc, not re-shingled;
    4. decontamination (flag from the scoring pass);
    5. hash split + sequence packing APPENDED after the prior corpus:
       every per-(split, bucket) offset is shifted by the prior
       split's token total, so sequence ids continue where the last
       shard stopped.

    Output: per-split stats of the ADMITTED new docs only, with
    ``n_sequences`` counting the cumulative sequence count through the
    end of the new shard (proves the append continued the prior
    packing, not restarted it).
    """
    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.ops.split import split_of

    bench_ref = ray.put(benchmark_shingle_set(bench_docs, k=contam_k))
    kw = dict(
        min_words=min_words,
        min_stopword_ratio=min_stopword_ratio,
        max_punct_ratio=max_punct_ratio,
        contam_k=contam_k,
    )
    nd_kw = dict(
        shingle_n=shingle_n, max_df=max_df, threshold=threshold,
        min_words=min_words, min_stopword_ratio=min_stopword_ratio,
        max_punct_ratio=max_punct_ratio,
    )

    # ---- prior-corpus state (slim; persisted stores in the runner) --
    band_kw = dict(
        num_perm=num_perm, lsh_bands=lsh_bands, shingle_n=shingle_n,
        min_words=min_words, min_stopword_ratio=min_stopword_ratio,
        max_punct_ratio=max_punct_ratio,
    )
    keepers1 = curation_keepers(
        curation_scored(docs_known, bench_ref, **kw)
    ).materialize()
    drops1 = curation_neardup_drops(docs_known, keepers1, **nd_kw)
    survivors1 = curation_survivors(keepers1, drops1).materialize()
    known_bands = _band_key_rows(docs_known, survivors1, **band_kw)

    def with_split(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("split", pa.string()), ("n_tokens", pa.int64())]
            ).empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "split": pa.array(_SPLIT_NAMES[split_of(ids)], pa.string()),
                "n_tokens": t.column("n_tokens").cast(pa.int64()),
            }
        )

    totals1 = {
        r["split"]: int(r["s"])
        for r in survivors1.map_batches(with_split, batch_format="pyarrow")
        .groupby("split")
        .aggregate(Sum("n_tokens", alias_name="s"))
        .take_all()
    }

    # ---- admit the new shard ---------------------------------------
    scored2 = curation_scored(docs_new, bench_ref, **kw)
    keepers2 = _with_schema(
        _tagged_union(
            curation_keepers(scored2), _KEEPER_SCHEMA, keepers1,
            _marker_anti_block, key="fp",
        ),
        _KEEPER_SCHEMA,
    ).materialize()
    drops2 = curation_neardup_drops(docs_new, keepers2, **nd_kw)
    band_hits = _tagged_union(
        _band_key_rows(docs_new, keepers2, **band_kw),
        _BAND_ROW_SCHEMA,
        known_bands,
        _marker_semi_block,
        key=["band", "band_hash"],
    )

    def hit_ids(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("doc_id", pa.int64())]).empty_table()
        return pa.table(
            {"doc_id": pc.unique(t.column("doc_id").combine_chunks())}
        )

    keepers2_nb = _with_schema(
        _tagged_union(
            keepers2, _KEEPER_SCHEMA,
            band_hits.map_batches(hit_ids, batch_format="pyarrow"),
            _marker_anti_block,
        ),
        _KEEPER_SCHEMA,
    )
    survivors2 = curation_survivors(keepers2_nb, drops2)
    packed2 = curation_pack(
        survivors2, seq_len=seq_len, bucket_width=bucket_width,
        base_offsets=totals1,
    )
    return curation_rollup(packed2, seq_len=seq_len)


# ------------------------------------------------------------------
# Checkpoint-resumable runner: the DAG as a staged job with per-stage
# lineage, atomic artifact commits, partitioned output and incremental
# (growing-corpus) fingerprint mode.
# ------------------------------------------------------------------

import json as _json
import os as _os
import pathlib as _pathlib
import shutil as _shutil
import time as _time

import pyarrow.parquet  # noqa: F401  (binds pa.parquet for the runner)
from dataclasses import dataclass as _dataclass
from dataclasses import field as _field


@_dataclass
class CurationConfig:
    seq_len: int = DEFAULT_SEQ_LEN
    shingle_n: int = DEFAULT_SHINGLE_N
    max_df: int = DEFAULT_MAX_DF
    threshold: float = DEFAULT_JACCARD
    contam_k: int = DEFAULT_CONTAM_K
    min_words: int = DEFAULT_MIN_WORDS
    min_stopword_ratio: float = DEFAULT_MIN_STOPWORD_RATIO
    max_punct_ratio: float = DEFAULT_MAX_PUNCT_RATIO
    bucket_width: int = DEFAULT_BUCKET_WIDTH
    bench_modulus: int = 50          # benchmark stand-in: doc_id % m == 0
    files_per_partition: int = 1
    known_fingerprints: str | None = None  # incremental mode: prior store
    # partitions per Ray launch in the partitioned stages (1 and 4):
    # 0 = every pending partition in ONE launch (fewest fixed launch
    # costs — the bench default), N = commit-granularity knob (a kill
    # repeats at most one N-partition wave; the SIGKILL exercise runs
    # N=4). Per-partition artifacts and manifests are identical either
    # way — only the launch batching changes.
    partitions_per_launch: int = 0
    # incremental-state chain (VERDICT r04 #4): when True, stage 1 also
    # emits per-doc LSH band keys (same text scan) and stage 3 persists
    # band_store/ (survivor band keys + prior store) and
    # split_totals.json — the slim state the NEXT shard admits against
    # (+1 Ray launch for the band_store write). known_state points at a
    # prior run's output dir: exact dedup anti-joins its fingerprints,
    # near-dup also drops on band collisions vs its band_store, and
    # packing offsets CONTINUE from its split totals — prior TEXT is
    # never re-read.
    incremental_state: bool = False
    known_state: str | None = None
    lsh_num_perm: int = 64
    lsh_bands: int = 16


_STAGE1_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("kind", pa.string()),  # "score" | "shingle" | "band"
        ("doc_id", pa.int64()),
        ("fp", pa.string()),
        ("lang_pred", pa.string()),
        ("n_tokens", pa.int64()),
        ("contaminated", pa.int64()),
        ("shingle", pa.uint64()),
        ("set_size", pa.int64()),
        ("band", pa.int32()),
        ("band_hash", pa.int64()),
    ]
)


class _Stage1Fused(_ScoreStage):
    """The runner's stage 1: ONE text scan per wave producing the slim
    scored rows, the word-shingle rows, and (incremental-state mode)
    the per-doc LSH band keys — all tagged by ``kind`` and routed to
    per-partition artifacts via the ``part`` column: the text is read
    once, not twice, and a whole wave of partitions rides one Ray
    launch (VERDICT r04 #2). Scoring reuses the exact ``_ScoreStage``
    kernel; shingling the exact ``_shingle_rows_factory`` kernel, gated
    on the same filter predicate the standalone prefilter applies (one
    word-split per doc instead of two); band keys the exact
    ``minhash_signature``/``_band_rows_factory`` kernels."""

    def __init__(self, bench_ref, part_map_ref, *, shingle_n: int,
                 lsh_num_perm: int = 0, lsh_bands: int = 0, **kw):
        import ray

        super().__init__(bench_ref, **kw)
        self.part_map = ray.get(part_map_ref)
        self.shingle_n = shingle_n
        self.lsh_num_perm = lsh_num_perm
        self.lsh_bands = lsh_bands
        if lsh_num_perm:
            from ocr_ray.ops.dedup import (
                _band_rows_factory,
                _minhash_params,
            )

            self._mh_a, self._mh_b = _minhash_params(lsh_num_perm)
            self._band_rows = _band_rows_factory(lsh_num_perm, lsh_bands)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ocr_ray.ops.dedup import (
            _stable_hash64,
            minhash_signature,
            word_shingles,
        )

        cols: dict[str, list] = {n: [] for n in _STAGE1_SCHEMA.names}

        def emit(part, kind, doc_id, fp=None, lang=None, n_tok=None,
                 con=None, shingle=None, set_size=None, band=None,
                 band_hash=None):
            cols["part"].append(part)
            cols["kind"].append(kind)
            cols["doc_id"].append(doc_id)
            cols["fp"].append(fp)
            cols["lang_pred"].append(lang)
            cols["n_tokens"].append(n_tok)
            cols["contaminated"].append(con)
            cols["shingle"].append(shingle)
            cols["set_size"].append(set_size)
            cols["band"].append(band)
            cols["band_hash"].append(band_hash)

        sig_ids: list[tuple[int, int]] = []  # (doc_id, part)
        sig_bytes: list[bytes] = []
        memo: dict[str, int] = {}
        for doc_id, text, path in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("path").to_pylist(),
        ):
            scored = self._score_doc(text)
            if scored is None:
                continue
            part = part_of(self.part_map, path)
            fp, lang, n_tok, con = scored
            emit(part, "score", doc_id, fp=fp, lang=lang, n_tok=n_tok,
                 con=con)
            shingles = word_shingles(text, self.shingle_n)
            n_sh = len(shingles)
            for s in shingles:
                emit(part, "shingle", doc_id, shingle=_stable_hash64(s),
                     set_size=n_sh)
            if self.lsh_num_perm:
                sig_ids.append((doc_id, part))
                sig_bytes.append(
                    minhash_signature(
                        shingles, self._mh_a, self._mh_b, memo=memo
                    ).tobytes()
                )
        if sig_bytes:
            part_by_doc = {d: p for d, p in sig_ids}
            bt = self._band_rows(
                pa.table(
                    {
                        "doc_id": pa.array(
                            [d for d, _ in sig_ids], pa.int64()
                        ),
                        "signature": pa.array(sig_bytes, pa.binary()),
                    }
                )
            )
            for band, bh, did in zip(
                bt.column("band").to_pylist(),
                bt.column("band_hash").to_pylist(),
                bt.column("doc_id").to_pylist(),
            ):
                emit(part_by_doc[did], "band", did, band=band, band_hash=bh)
        return pa.table(
            {
                n: pa.array(cols[n], _STAGE1_SCHEMA.field(n).type)
                for n in _STAGE1_SCHEMA.names
            }
        )


def _read_parquet_dir(path, columns=None):
    import ray.data as rd

    if isinstance(path, (list, tuple)):
        path = [str(p) for p in path]
    else:
        path = str(path)
    return rd.read_parquet(path, columns=columns)


class _Artifacts:
    """Atomic artifact store under the run directory: each artifact is a
    directory committed by temp-write + ``os.replace`` with a manifest
    row written AFTER the rename; a resumed run skips every artifact
    whose manifest validates against the same inputs descriptor.
    (Same commit discipline as stages/checkpoint.py:run_wave.)"""

    def __init__(self, out: _pathlib.Path):
        self.out = out
        (out / "_manifests").mkdir(parents=True, exist_ok=True)

    def _manifest(self, name: str) -> _pathlib.Path:
        return self.out / "_manifests" / f"{name.replace('/', '-')}.json"

    def dir(self, name: str) -> _pathlib.Path:
        return self.out / name

    def complete(self, name: str, inputs) -> dict | None:
        mp = self._manifest(name)
        if not mp.exists() or not self.dir(name).exists():
            return None
        try:
            row = _json.loads(mp.read_text())
        except (ValueError, OSError):
            return None
        if row.get("inputs") != inputs:
            return None
        return row

    def commit(self, name: str, tmp: _pathlib.Path, inputs, extra: dict):
        final = self.dir(name)
        if final.exists():
            _shutil.rmtree(final)
        final.parent.mkdir(parents=True, exist_ok=True)
        _os.replace(tmp, final)
        self._manifest(name).write_text(
            _json.dumps({"inputs": inputs, **extra}, default=str)
        )

    def tmp(self, name: str) -> _pathlib.Path:
        t = self.out / "_tmp" / name.replace("/", "-")
        if t.exists():
            _shutil.rmtree(t)
        t.mkdir(parents=True)
        return t


def _pq_count(path: _pathlib.Path) -> int:
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in path.rglob("*.parquet")
    )


def _pq_minmax(path: _pathlib.Path, column: str) -> tuple[int, int]:
    """min/max of an int column across a parquet dir, from row-group
    statistics where available (no data read); row groups whose writer
    omitted min/max stats are scanned column-only so a stats-less file
    can never silently collapse the range to the empty sentinel."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo, hi = None, None
    n_rows = 0
    for f in path.rglob("*.parquet"):
        pf = pq.ParquetFile(f)
        md = pf.metadata
        n_rows += md.num_rows
        idx = md.schema.names.index(column)
        for rg in range(md.num_row_groups):
            if md.row_group(rg).num_rows == 0:
                continue
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                col = pf.read_row_group(rg, columns=[column]).column(0)
                mm = pc.min_max(col).as_py()
                rg_lo, rg_hi = mm["min"], mm["max"]
                if rg_lo is None:
                    continue
            else:
                rg_lo, rg_hi = st.min, st.max
            lo = rg_lo if lo is None else min(lo, rg_lo)
            hi = rg_hi if hi is None else max(hi, rg_hi)
    if lo is None:
        if n_rows:
            raise ValueError(
                f"no min/max derivable for column {column!r} under "
                f"{path} despite {n_rows} rows (all-null column?)"
            )
        return 0, -1
    return int(lo), int(hi)


def run_curation_checkpointed(
    input_path: str,
    output_path: str,
    config: CurationConfig | None = None,
    *,
    resume: bool = True,
    stop_after_partitions: int | None = None,
    stop_after_stage: str | None = None,
) -> dict:
    """Run the full curation DAG over a directory of (doc_id, text)
    parquet files as a checkpoint-resumable staged job.

    Stage graph and artifacts (all committed atomically with lineage):

    - ``bench/``      benchmark shingle set (stage 0, one artifact)
    - ``score/part=K``  per input partition: slim scored rows
      (``kind=score/``) AND word-shingle rows (``kind=shingle/``) from
      ONE fused text scan; a wave of partitions shares one Ray launch
      (``partitions_per_launch``; a killed run repeats at most one
      wave, artifacts and manifests stay per-partition)
    - ``keepers/`` ``drops/`` ``fingerprints/``  exact keepers (incl.
      incremental anti-join against a prior fingerprint store),
      near-dup drop list, and the updated fingerprint store (stage 2)
    - ``assignment/bucket=B/``  survivor (split, seq_first, seq_last)
      rows, hive-partitioned by doc_id-range bucket so the final text
      pass prunes at the directory level (stage 3)
    - ``curated/part=K``  the curated corpus text with its split column,
      one directory per input partition (stage 4, partition-resumable)
    - ``metrics.json``  the whole-run funnel + walls

    ``stop_after_partitions`` / ``stop_after_stage`` are TEST HOOKS that
    abort the run at a stage boundary, simulating a kill; a subsequent
    ``resume=True`` run picks up with zero repeated partitions.
    """
    import ray

    from ocr_ray import io as _io
    from ocr_ray.context import cluster_cpus, plan_resources
    from ocr_ray.ops.dedup import _with_schema

    config = config or CurationConfig()
    plan = plan_resources(cluster_cpus())
    # incremental-state resolution: known_state is a prior run's output
    # dir; it implies state emission (the chain must stay extendable)
    eff_state = bool(config.incremental_state or config.known_state)
    known_fps = config.known_fingerprints
    if config.known_state and not known_fps:
        _kf = _pathlib.Path(config.known_state) / "fingerprints"
        known_fps = str(_kf) if _kf.exists() else None
    known_bands_dir = None
    known_totals: dict = {}
    if config.known_state:
        _kb = _pathlib.Path(config.known_state) / "band_store"
        if _kb.exists():
            known_bands_dir = _kb
        _am = (_pathlib.Path(config.known_state) / "_manifests"
               / "assignment.json")
        if _am.exists():
            try:
                known_totals = _json.loads(_am.read_text()).get(
                    "split_totals", {}
                ) or {}
            except (ValueError, OSError):
                known_totals = {}
    t_start = _time.perf_counter()
    out = _pathlib.Path(output_path)
    out.mkdir(parents=True, exist_ok=True)
    art = _Artifacts(out)
    files = [str(f) for f in _io.input_files(input_path)]
    partitions = [
        files[i : i + config.files_per_partition]
        for i in range(0, len(files), config.files_per_partition)
    ]
    walls: dict[str, float] = {}
    funnel: dict[str, int] = {}
    partitions_run = {"score": 0, "text": 0}
    partitions_skipped = {"score": 0, "text": 0}

    def _wave_cap(pending) -> int:
        """Partitions per Ray launch for one partitioned stage, sized
        from that stage's own pending list."""
        if stop_after_partitions is not None:
            return max(1, stop_after_partitions)
        return max(1, config.partitions_per_launch or len(pending))

    def _stop(stage: str):
        if stop_after_stage == stage:
            raise _StopRun(stage)

    class _StopRun(Exception):
        def __init__(self, stage):
            self.stage = stage

    # ---- stage 0: benchmark shingle set ---------------------------
    bench_inputs = {"files": files, "m": config.bench_modulus,
                    "k": config.contam_k}
    row = art.complete("bench", bench_inputs)
    if row is None or not resume:
        t0 = _time.perf_counter()
        docs = _read_parquet_dir(input_path, columns=["doc_id", "text"])

        def is_bench(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % config.bench_modulus == 0))

        bench_set = benchmark_shingle_set(
            docs.map_batches(is_bench, batch_format="pyarrow"),
            k=config.contam_k,
        )
        tmp = art.tmp("bench")
        pa.parquet.write_table(
            pa.table({"shingle": pa.array(sorted(bench_set), pa.string())}),
            tmp / "bench.parquet",
        )
        art.commit("bench", tmp, bench_inputs,
                   {"n_shingles": len(bench_set)})
        walls["bench"] = round(_time.perf_counter() - t0, 3)
    bench_tbl = pa.parquet.read_table(art.dir("bench") / "bench.parquet")
    bench_ref = ray.put(frozenset(bench_tbl.column("shingle").to_pylist()))
    funnel["bench_shingles"] = bench_tbl.num_rows

    try:
        _stop("bench")

        # ---- stage 1: score + shingle rows, ONE text scan per wave -
        # (fused per VERDICT r04 #2: a wave of partitions shares one
        # Ray launch; per-partition artifacts + manifests are
        # unchanged, so resume granularity is the wave size)
        t0 = _time.perf_counter()
        import ray.data as _rd

        s1_extra = {"state": eff_state}
        pending = []
        for k, part_files in enumerate(partitions):
            if resume and art.complete(
                f"score/part={k:05d}", {"files": part_files, **s1_extra}
            ):
                partitions_skipped["score"] += 1
            else:
                pending.append(k)
        wave_cap = _wave_cap(pending)
        for w0 in range(0, len(pending), wave_cap):
            wave = pending[w0 : w0 + wave_cap]
            files = [f for k in wave for f in partitions[k]]
            part_map_ref = ray.put(_io.wave_part_map(partitions, wave))
            docs = _rd.read_parquet(
                files, columns=["doc_id", "text"], include_paths=True
            )
            fused = docs.map_batches(
                _Stage1Fused,
                fn_constructor_kwargs={
                    "bench_ref": bench_ref,
                    "part_map_ref": part_map_ref,
                    "shingle_n": config.shingle_n,
                    "lsh_num_perm": config.lsh_num_perm if eff_state else 0,
                    "lsh_bands": config.lsh_bands if eff_state else 0,
                    "min_words": config.min_words,
                    "min_stopword_ratio": config.min_stopword_ratio,
                    "max_punct_ratio": config.max_punct_ratio,
                    "contam_k": config.contam_k,
                },
                batch_format="pyarrow",
                concurrency=plan.pool,
                num_cpus=plan.actor_cpus,
            )
            wtmp = art.tmp(f"stage1-wave-{w0}")
            _with_schema(fused, _STAGE1_SCHEMA).write_parquet(
                str(wtmp), partition_cols=["part", "kind"]
            )
            import pyarrow.parquet as _pq

            for k in wave:
                part_files = partitions[k]
                src = wtmp / f"part={k}"
                if not src.exists():  # every doc filtered out
                    src.mkdir(parents=True)
                (src / "kind=score").mkdir(exist_ok=True)
                (src / "kind=shingle").mkdir(exist_ok=True)
                if eff_state:
                    (src / "kind=band").mkdir(exist_ok=True)
                n_raw = sum(
                    _pq.ParquetFile(f).metadata.num_rows
                    for f in part_files
                )
                lo, hi = _pq_minmax(src / "kind=score", "doc_id")
                n_filtered = _pq_count(src / "kind=score")
                art.commit(
                    f"score/part={k:05d}", src,
                    {"files": part_files, **s1_extra}, {
                        "n_raw": n_raw, "n_filtered": n_filtered,
                        "doc_id_min": lo, "doc_id_max": hi,
                    },
                )
                partitions_run["score"] += 1
            _shutil.rmtree(wtmp, ignore_errors=True)
            if (
                stop_after_partitions is not None
                and w0 + wave_cap < len(pending)
            ):
                raise _StopRun("score-partial")
        walls["score"] = round(_time.perf_counter() - t0, 3)
        funnel["n_raw"] = sum(
            art.complete(
                f"score/part={k:05d}", {"files": p, **s1_extra}
            )["n_raw"]
            for k, p in enumerate(partitions)
        )
        funnel["n_filtered"] = sum(
            art.complete(
                f"score/part={k:05d}", {"files": p, **s1_extra}
            )["n_filtered"]
            for k, p in enumerate(partitions)
        )
        _stop("score")

        # lineage chain: downstream inputs carry a digest of every
        # stage-1 manifest row, so a re-run that CHANGED a partition's
        # output invalidates keepers/drops/assignment/curated, while a
        # byte-identical re-run leaves them resumable
        score_digest = hashlib.sha256(
            _json.dumps(
                [
                    art.complete(
                        f"score/part={k:05d}", {"files": p, **s1_extra}
                    )
                    for k, p in enumerate(partitions)
                ],
                sort_keys=True,
                default=str,
            ).encode()
        ).hexdigest()[:16]

        # ---- stage 2: exact dedup (+incremental) and near-dup -----
        dedup_inputs = {
            "partitions": len(partitions),
            "score_digest": score_digest,
            "known": known_fps,
            "known_state": config.known_state,
            "max_df": config.max_df,
            "threshold": config.threshold,
        }
        score_dirs = [
            str(art.dir(f"score/part={k:05d}") / "kind=score")
            for k in range(len(partitions))
        ]
        shingle_dirs = [
            str(art.dir(f"score/part={k:05d}") / "kind=shingle")
            for k in range(len(partitions))
        ]

        def _read_kind(dirs, columns, schema):
            import ray.data as rd

            # a LIST to read_parquet must be file paths, not dirs
            files = [
                str(f)
                for d in dirs
                for f in sorted(_pathlib.Path(d).glob("*.parquet"))
            ]
            if not files:
                return rd.from_arrow(schema.empty_table())
            return rd.read_parquet(files, columns=columns)

        if not (resume and art.complete("keepers", dedup_inputs)
                and art.complete("drops", dedup_inputs)
                and art.complete("fingerprints", dedup_inputs)):
            t0 = _time.perf_counter()
            scored_ds = _read_kind(
                score_dirs, list(_SCORED_SCHEMA.names), _SCORED_SCHEMA
            )
            keepers = curation_keepers(scored_ds)
            if known_fps:
                known = _read_parquet_dir(known_fps, columns=["fp"])
                keepers = _tagged_union(
                    keepers, _KEEPER_SCHEMA, known, _marker_anti_block,
                    key="fp",
                )
            tmp = art.tmp("keepers")
            _with_schema(keepers, _KEEPER_SCHEMA).write_parquet(str(tmp))
            art.commit("keepers", tmp, dedup_inputs,
                       {"n_keepers": _pq_count(tmp)})

            keepers_ds = _read_parquet_dir(art.dir("keepers"))
            rows = _read_kind(
                shingle_dirs,
                list(_SHINGLE_ROW_SCHEMA.names),
                _SHINGLE_ROW_SCHEMA,
            )
            drops = neardup_drops_from_rows(
                rows, keepers_ds,
                max_df=config.max_df, threshold=config.threshold,
            )
            if known_bands_dir is not None:
                # cross-shard admission: drop any keeper whose LSH band
                # key collides with the prior corpus's persisted band
                # store — history probed via slim keys, prior text
                # never re-read (pipelines/curation.py:
                # curation_incremental_stats documents the regime)
                band_dirs = [
                    str(art.dir(f"score/part={k:05d}") / "kind=band")
                    for k in range(len(partitions))
                ]
                new_bands = _with_schema(
                    _tagged_union(
                        _read_kind(
                            band_dirs,
                            list(_BAND_ROW_SCHEMA.names),
                            _BAND_ROW_SCHEMA,
                        ),
                        _BAND_ROW_SCHEMA,
                        keepers_ds,
                        _marker_semi_block,
                    ),
                    _BAND_ROW_SCHEMA,
                )
                hits = _tagged_union(
                    new_bands,
                    _BAND_ROW_SCHEMA,
                    _read_parquet_dir(
                        known_bands_dir, columns=["band", "band_hash"]
                    ),
                    _marker_semi_block,
                    key=["band", "band_hash"],
                )

                def band_hit_ids(t: pa.Table) -> pa.Table:
                    if t.num_rows == 0 or t.num_columns == 0:
                        return pa.schema(
                            [("doc_id", pa.int64())]
                        ).empty_table()
                    return pa.table(
                        {
                            "doc_id": pc.unique(
                                t.column("doc_id").combine_chunks()
                            )
                        }
                    )

                from ray.data.aggregate import Count as _C

                hit_ids = _with_schema(
                    hits.map_batches(band_hit_ids, batch_format="pyarrow")
                    # global dedupe (a doc's bands hit in many blocks):
                    # one slim keyed aggregate, so n_neardup_drops
                    # counts DOCS, not colliding band rows
                    .groupby("doc_id")
                    .aggregate(_C(alias_name="_n")),
                    pa.schema([("doc_id", pa.int64()), ("_n", pa.int64())]),
                ).map_batches(
                    lambda t: t.select(["doc_id"])
                    if t.num_columns
                    else pa.schema([("doc_id", pa.int64())]).empty_table(),
                    batch_format="pyarrow",
                )
                drops = _with_schema(
                    drops, pa.schema([("doc_id", pa.int64())])
                ).union(hit_ids)
            tmp = art.tmp("drops")
            _with_schema(
                drops, pa.schema([("doc_id", pa.int64())])
            ).write_parquet(str(tmp))
            art.commit("drops", tmp, dedup_inputs,
                       {"n_drops": _pq_count(tmp)})

            # updated fingerprint store: every fp this run admitted at
            # the exact stage, plus the prior store (incremental chain).
            # The keepers' fp column IS the new fps (disjoint from the
            # prior store by the anti-join above), so the store is
            # written driver-side — no Ray launch (VERDICT r04 #2) —
            # as fp-only files, one schema in every generation; prior
            # files already in that schema are hardlinked/copied
            tmp = art.tmp("fingerprints")
            srcs = sorted(art.dir("keepers").rglob("*.parquet"))
            if known_fps:
                srcs += sorted(
                    _pathlib.Path(known_fps).rglob("*.parquet")
                )
            for i, f in enumerate(srcs):
                dst = tmp / f"fp-{i:05d}.parquet"
                if pa.parquet.read_schema(f).names != ["fp"]:
                    pa.parquet.write_table(
                        pa.parquet.read_table(f, columns=["fp"]), dst
                    )
                    continue
                try:
                    _os.link(f, dst)
                except OSError:
                    _shutil.copy2(f, dst)
            art.commit("fingerprints", tmp, dedup_inputs,
                       {"n_fps": _pq_count(tmp)})
            walls["dedup"] = round(_time.perf_counter() - t0, 3)
        funnel["n_exact_keepers"] = art.complete(
            "keepers", dedup_inputs)["n_keepers"]
        funnel["n_neardup_drops"] = art.complete(
            "drops", dedup_inputs)["n_drops"]
        _stop("dedup")

        # ---- stage 3: survivors, split, pack, assignment ----------
        pack_inputs = {**dedup_inputs, "seq_len": config.seq_len,
                       "bucket_width": config.bucket_width}
        if not (resume and art.complete("assignment", pack_inputs)):
            t0 = _time.perf_counter()
            def survivors_from_disk():
                return curation_survivors(
                    _read_parquet_dir(art.dir("keepers")),
                    _read_parquet_dir(art.dir("drops")),
                )

            split_totals: dict = {}
            packed = curation_pack(
                survivors_from_disk(),
                seq_len=config.seq_len,
                bucket_width=config.bucket_width,
                # slim-parquet lineage: re-derive per pass instead of a
                # mid-pipeline materialize (one launch per pass)
                survivors_factory=survivors_from_disk,
                # incremental append: offsets continue after the prior
                # corpus's per-split totals; the cumulative totals land
                # in the assignment manifest for the NEXT shard
                base_offsets={
                    k: int(v) for k, v in known_totals.items()
                },
                totals_out=split_totals,
            )

            def with_bucket(t: pa.Table) -> pa.Table:
                if t.num_rows == 0 or t.num_columns == 0:
                    return t
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                return t.append_column(
                    "bucket",
                    pa.array(
                        ids.astype(np.int64) // config.bucket_width,
                        pa.int64(),
                    ),
                )

            tmp = art.tmp("assignment")
            packed.map_batches(
                with_bucket, batch_format="pyarrow"
            ).write_parquet(str(tmp), partition_cols=["bucket"])
            # fill base-only splits the new shard never touched, so the
            # chain's totals stay cumulative
            for s, v in known_totals.items():
                split_totals.setdefault(str(s), int(v))
            art.commit("assignment", tmp, pack_inputs, {
                "n_survivors": _pq_count(tmp),
                "split_totals": split_totals,
            })
            walls["pack"] = round(_time.perf_counter() - t0, 3)

        if eff_state and not (
            resume and art.complete("band_store", pack_inputs)
        ):
            # band_store: distinct LSH band keys of the RETAINED
            # survivors (stage-1 band rows semi-joined to the
            # assignment ids) + the prior store — the slim index the
            # next shard's admission probes (one extra Ray launch,
            # only in incremental-state mode)
            from ray.data.aggregate import Count as _Count

            band_dirs = [
                str(art.dir(f"score/part={k:05d}") / "kind=band")
                for k in range(len(partitions))
            ]
            surv_ids = _read_parquet_dir(
                art.dir("assignment"), columns=["doc_id"]
            )
            surv_bands = _with_schema(
                _tagged_union(
                    _read_kind(
                        band_dirs,
                        list(_BAND_ROW_SCHEMA.names),
                        _BAND_ROW_SCHEMA,
                    ),
                    _BAND_ROW_SCHEMA,
                    surv_ids,
                    _marker_semi_block,
                ),
                _BAND_ROW_SCHEMA,
            )
            keys = surv_bands.groupby(["band", "band_hash"]).aggregate(
                _Count(alias_name="n")
            )
            tmp = art.tmp("band_store")
            _with_schema(
                keys,
                pa.schema(
                    [("band", pa.int32()), ("band_hash", pa.int64()),
                     ("n", pa.int64())]
                ),
            ).write_parquet(str(tmp))
            if known_bands_dir is not None:
                for i, f in enumerate(
                    sorted(known_bands_dir.rglob("*.parquet"))
                ):
                    dst = tmp / f"prior-{i:05d}.parquet"
                    try:
                        _os.link(f, dst)
                    except OSError:
                        _shutil.copy2(f, dst)
            art.commit("band_store", tmp, pack_inputs,
                       {"n_keys": _pq_count(tmp)})
        funnel["n_survivors"] = art.complete(
            "assignment", pack_inputs)["n_survivors"]
        _stop("pack")

        # ---- stage 4: curated text write, ONE launch per wave -----
        t0 = _time.perf_counter()
        pending_t = []
        for k, part_files in enumerate(partitions):
            if resume and art.complete(
                f"curated/part={k:05d}", {"files": part_files, **pack_inputs}
            ):
                partitions_skipped["text"] += 1
            else:
                pending_t.append(k)
        wave_cap = _wave_cap(pending_t)
        for w0 in range(0, len(pending_t), wave_cap):
            wave = pending_t[w0 : w0 + wave_cap]
            files = [f for k in wave for f in partitions[k]]
            part_map = _io.wave_part_map(partitions, wave)
            # directory-level pruning: only assignment buckets that
            # intersect some wave partition's doc_id range are read;
            # the wave's survivor set is one bounded sorted array
            ranges = []
            for k in wave:
                srow = art.complete(
                    f"score/part={k:05d}",
                    {"files": partitions[k], **s1_extra},
                )
                ranges.append((int(srow["doc_id_min"]),
                               int(srow["doc_id_max"])))
            bucket_dirs = sorted(
                {
                    str(art.dir("assignment") / f"bucket={b}")
                    for lo, hi in ranges
                    for b in range(
                        lo // config.bucket_width,
                        hi // config.bucket_width + 1,
                    )
                    if (art.dir("assignment") / f"bucket={b}").exists()
                }
            )
            kid_list, ksp_list = [], []
            for d in bucket_dirs:
                t = pa.parquet.read_table(d, columns=["doc_id", "split"])
                kid = t.column("doc_id").to_numpy(zero_copy_only=False)
                ksp = np.asarray(t.column("split").to_pylist(), dtype=object)
                in_range = np.zeros(len(kid), bool)
                for lo, hi in ranges:
                    in_range |= (kid >= lo) & (kid <= hi)
                kid_list.append(kid[in_range].astype(np.int64))
                ksp_list.append(ksp[in_range])
            kid = (
                np.concatenate(kid_list) if kid_list else np.empty(0, np.int64)
            )
            ksp = (
                np.concatenate(ksp_list)
                if ksp_list
                else np.empty(0, object)
            )
            order = np.argsort(kid, kind="stable")
            keep_ref = ray.put((kid[order], ksp[order]))
            part_map_ref = ray.put(part_map)

            class _KeepFilter:
                """Vectorized membership: the wave's survivor ids
                arrive as a sorted array + parallel split codes
                (fetched once per actor); per batch one np.searchsorted
                probe replaces the per-row dict loop. Emits the part
                column routing rows to per-partition artifacts."""

                def __init__(self, ref, pm_ref):
                    ids, splits = ray.get(ref)
                    self.ids = ids
                    self.splits = splits
                    self.part_map = ray.get(pm_ref)

                def __call__(self, t: pa.Table) -> pa.Table:
                    ids = (
                        t.column("doc_id")
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64)
                    )
                    if len(self.ids) == 0:
                        mask = np.zeros(len(ids), bool)
                    else:
                        pos = np.searchsorted(self.ids, ids)
                        pos_c = np.minimum(pos, len(self.ids) - 1)
                        mask = self.ids[pos_c] == ids
                    parts = [
                        part_of(self.part_map, p)
                        for p in t.column("path").to_pylist()
                    ]
                    kept = (
                        t.append_column(
                            "part", pa.array(parts, pa.int64())
                        )
                        .filter(pa.array(mask))
                        .drop_columns(["path"])
                    )
                    splits = (
                        self.splits[pos_c[mask]]
                        if len(self.ids)
                        else np.empty(0, object)
                    )
                    return kept.append_column(
                        "split", pa.array(splits, pa.string())
                    )

            import ray.data as _rd

            docs = _rd.read_parquet(
                files, columns=["doc_id", "text"], include_paths=True
            )
            wtmp = art.tmp(f"curated-wave-{w0}")
            docs.map_batches(
                _KeepFilter,
                fn_constructor_kwargs={
                    "ref": keep_ref, "pm_ref": part_map_ref
                },
                batch_format="pyarrow",
                concurrency=plan.pool,
                num_cpus=plan.actor_cpus,
            ).write_parquet(str(wtmp), partition_cols=["part"])
            for k in wave:
                src = wtmp / f"part={k}"
                if not src.exists():
                    src.mkdir(parents=True)
                art.commit(
                    f"curated/part={k:05d}", src,
                    {"files": partitions[k], **pack_inputs},
                    {"n_docs": _pq_count(src)},
                )
                partitions_run["text"] += 1
            _shutil.rmtree(wtmp, ignore_errors=True)
        walls["text"] = round(_time.perf_counter() - t0, 3)
        aborted = None
    except _StopRun as s:
        aborted = s.stage

    metrics = {
        "partitions": len(partitions),
        "partitions_run": partitions_run,
        "partitions_skipped": partitions_skipped,
        "funnel": funnel,
        "walls_sec": walls,
        "wall_sec": round(_time.perf_counter() - t_start, 3),
        "aborted_at": aborted,
        "incremental": bool(known_fps or config.known_state),
        "plan": plan.manifest(),
    }
    if aborted is None:
        metrics["docs_per_sec"] = (
            round(funnel.get("n_raw", 0) / max(metrics["wall_sec"], 1e-9), 3)
        )
        (out / "metrics.json").write_text(_json.dumps(metrics, indent=1))
    return metrics
