"""Deduplication operators over a documents table — the large-scale
training-data pipeline family: exact, MinHash-LSH (candidates + exact
verification + connected-component drop lists), SimHash and exact
n-gram Jaccard via an inverted-index join. All deterministic (seeded
hashing, sorted tie-breaks) and expressed as map_batches partials +
small groupbys; no operator materializes the corpus on the driver.

Reference analogue: the only dedup the reference does is exact
word-level (UNIQUE constraint, db_service.py:69; list(set()),
dictionary_corrector.py:235); the near-dup family generalizes it for
100 TB corpora (SURVEY.md §2.7).

Shuffle budget (the numbers that matter at scale, per billion docs):

- MinHash band rows carry ``(band, band_hash, doc_id)`` ONLY (~20 B ×
  bands); the 512-byte signature is shuffled once per *candidate pair*
  side during estimation, never once per band. Candidate pairs are a
  vanishing fraction of the corpus, so signature traffic is bounded by
  the duplicate rate, not the corpus size.
- Hot buckets are never silently truncated: the first ``max_bucket``
  docs pair all-to-all, every overflow doc pairs with the bucket's
  minimum doc_id (its representative) — connectivity for the
  connected-components pass is preserved and no doc drops out of its
  duplicate cluster without a trace.
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ocr_ray.ops.analysis import normalize_for_fingerprint

_WORD_RE = re.compile(r"[a-zA-Z0-9]+")

# ---------------------------------------------------------------- exact


def _hash_batch(batch: pa.Table) -> pa.Table:
    fps = [
        hashlib.md5(normalize_for_fingerprint(t).encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return pa.table(
        {"fingerprint": pa.array(fps, pa.string()), "doc_id": batch.column("doc_id")}
    )


def dedup_exact(docs):
    """Exact dedup: hash-partition on content fingerprint, keep the
    smallest doc_id per group (D2 semantics, deterministic keeper)."""
    from ray.data.aggregate import Count, Min

    return (
        docs.map_batches(_hash_batch, batch_format="pyarrow")
        .groupby("fingerprint")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_copies"))
    )


# ------------------------------------------------------------- shingles


def _stable_hash64(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _md5_hash64(token: str) -> int:
    """64-bit token hash from the md5 hex digest, split in two 32-bit
    halves — chosen over blake2b so a DuckDB oracle can reproduce it
    exactly: ``('0x' || substr(md5(w), 1, 8))::BIGINT`` etc."""
    d = hashlib.md5(token.encode("utf-8")).hexdigest()
    return (int(d[:8], 16) << 32) | int(d[8:16], 16)


def word_shingles(text: str, n: int = 3) -> set[str]:
    words = _WORD_RE.findall((text or "").lower())
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def exact_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Plain set Jaccard of word n-gram shingles (the verification
    kernel for LSH candidates)."""
    sa, sb = word_shingles(text_a, n), word_shingles(text_b, n)
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


# ---------------------------------------------------------- MinHash-LSH

def _minhash_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 62, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, 1 << 62, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: set[str], a: np.ndarray, b: np.ndarray,
                      memo: dict[str, int] | None = None) -> np.ndarray:
    """num_perm uint64 min-hashes via multiply-shift hashing
    ``(a·h + b) mod 2^64`` (odd a; natural uint64 wraparound) — fully
    vectorized (num_perm × n_shingles), no bignum arithmetic. Shingle
    hashes are md5-derived so a DuckDB oracle can rebuild the exact
    signatures (32-bit-limb modular multiply in HUGEINT). ``memo``
    caches shingle→hash across calls (near-dup corpora repeat most
    shingles batch-wide; md5 is the per-shingle hot cost)."""
    if not shingles:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    if memo is None:
        hashes = (_md5_hash64(s) for s in shingles)
    else:
        def _memoized():
            for s in shingles:
                v = memo.get(s)
                if v is None:
                    v = memo[s] = _md5_hash64(s)
                yield v

        hashes = _memoized()
    h = np.fromiter(hashes, dtype=np.uint64, count=len(shingles))
    with np.errstate(over="ignore"):
        prod = a[:, None] * h[None, :] + b[:, None]
    return prod.min(axis=1)


def _band_rows_factory(num_perm: int, bands: int):
    rows_per_band = num_perm // bands

    def band_rows(batch: pa.Table) -> pa.Table:
        """(doc_id, signature) → bands rows of (band, band_hash, doc_id):
        ~20 bytes per band row through the bucket shuffle instead of the
        full signature (the round-1 design shipped 512 B × 16 bands =
        8 KB/doc; this ships ~0.3 KB/doc). The band hash is a vectorized
        FNV-style uint64 fold + avalanche over the band's limbs —
        internal bucketing only (the SQL oracle bands by tuple equality),
        so no cryptographic hash and no per-doc Python loop; int64 keys
        also shuffle lighter than the old 16-char hex strings."""
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        sigs = np.frombuffer(
            b"".join(batch.column("signature").to_pylist()), dtype=np.uint64
        ).reshape(n, num_perm)
        band_col = np.repeat(np.arange(bands, dtype=np.int32), n)
        hash_parts: list[np.ndarray] = []
        fnv = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            for band in range(bands):
                chunk = sigs[:, band * rows_per_band : (band + 1) * rows_per_band]
                h = np.full(n, np.uint64(14695981039346656037))
                for col in chunk.T:
                    h = (h ^ col) * fnv
                # avalanche (splitmix64 finalizer) so near-equal bands
                # don't cluster in the hash partitioner
                h ^= h >> np.uint64(30)
                h *= np.uint64(0xBF58476D1CE4E5B9)
                h ^= h >> np.uint64(27)
                h *= np.uint64(0x94D049BB133111EB)
                h ^= h >> np.uint64(31)
                hash_parts.append(h.view(np.int64))
        return pa.table(
            {
                "band": pa.array(band_col, pa.int32()),
                "band_hash": pa.array(np.concatenate(hash_parts), pa.int64()),
                "doc_id": pa.array(np.tile(ids, bands), pa.int64()),
            }
        )

    return band_rows


def _dedup_sorted_by_group(ids: np.ndarray, gidx: np.ndarray,
                           *payloads: np.ndarray):
    """Sort rows by (group, id), drop duplicate (group, id) rows
    (defensive — upstream emits set-distinct rows), and return the
    deduped (ids, gidx, *payloads) plus nothing else. Fully vectorized."""
    order = np.lexsort((ids, gidx))
    ids_s, g_s = ids[order], gidx[order]
    keep = np.ones(len(ids_s), dtype=bool)
    keep[1:] = (g_s[1:] != g_s[:-1]) | (ids_s[1:] != ids_s[:-1])
    return (ids_s[keep], g_s[keep],
            *[p[order][keep] for p in payloads])


def _intra_group_pair_indices(gidx: np.ndarray, cap: int,
                              drop_over: bool = False):
    """Row-index pairs (ii, jj) for every intra-group (i < j) pair in a
    (group, id)-sorted array, vectorized ACROSS groups by batching the
    groups of each distinct size through one shared triu index template
    — no per-group Python dispatch, so a pathological
    corpus-of-duplicates (every bucket multi-doc) stays vectorized.

    Groups larger than ``cap``: with ``drop_over`` the whole group is
    skipped (stop-shingle guard semantics); otherwise the first ``cap``
    rows pair all-to-all and each overflow row pairs with the group's
    first row (= minimum id — rep-pairing keeps giant buckets connected
    for the component pass). Returns (ii, jj, n_overflow_groups)."""
    n = len(gidx)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    starts = np.flatnonzero(np.r_[True, gidx[1:] != gidx[:-1]])
    sizes = np.diff(np.append(starts, n))
    ii_parts: list[np.ndarray] = []
    jj_parts: list[np.ndarray] = []
    overflow_groups = 0
    for s in np.unique(sizes):
        if s < 2 or (drop_over and s > cap):
            continue
        gs = starts[sizes == s]
        k = int(min(s, cap))
        ti, tj = np.triu_indices(k, k=1)
        ii_parts.append((gs[:, None] + ti[None, :]).ravel())
        jj_parts.append((gs[:, None] + tj[None, :]).ravel())
        if s > cap:
            overflow_groups += len(gs)
            tail = np.arange(cap, s)
            ii_parts.append(np.repeat(gs, len(tail)))
            jj_parts.append((gs[:, None] + tail[None, :]).ravel())
    ii = np.concatenate(ii_parts) if ii_parts else np.empty(0, np.int64)
    jj = np.concatenate(jj_parts) if jj_parts else np.empty(0, np.int64)
    return ii, jj, overflow_groups


def _bucket_pairs_block(block: pa.Table, starts: np.ndarray,
                        max_bucket: int = 1024) -> pa.Table:
    """Candidate (doc_a, doc_b) pairs from every multi-row LSH bucket in
    one sorted block — single-doc buckets (the overwhelming majority)
    contribute nothing and cost one vectorized mask. The first
    ``max_bucket`` docs (by doc_id) pair all-to-all; overflow docs each
    pair with the bucket minimum so giant buckets stay connected for the
    component pass instead of being silently truncated."""
    n = block.num_rows
    if n == 0 or len(starts) == 0:
        empty = pa.array(np.empty(0, np.int64), pa.int64())
        return pa.table({"doc_a": empty, "doc_b": empty})
    ids = block.column("doc_id").to_numpy(zero_copy_only=False)
    gidx = np.repeat(
        np.arange(len(starts)), np.diff(np.append(starts, n))
    )
    ids_d, g_d = _dedup_sorted_by_group(ids, gidx)
    ii, jj, n_over = _intra_group_pair_indices(g_d, max_bucket)
    if n_over:
        import logging

        logging.getLogger("ocr_ray.dedup").warning(
            "%d LSH buckets exceed max_bucket=%d; overflow docs "
            "rep-paired only", n_over, max_bucket,
        )
    return pa.table(
        {
            "doc_a": pa.array(ids_d[ii], pa.int64()),
            "doc_b": pa.array(ids_d[jj], pa.int64()),
        }
    )


def minhash_signatures(docs, num_perm: int = 64, shingle_n: int = 3):
    """Per-doc signature table (doc_id, signature). Task-based (the
    ~1 KB hash params are captured in the closure and shipped once per
    task) — signature work is stateless and fuses with the read, so an
    actor pool would only add spin-up latency."""
    a, b = _minhash_params(num_perm)

    def sig_batch(batch: pa.Table) -> pa.Table:
        memo: dict[str, int] = {}
        sigs = [
            minhash_signature(
                word_shingles(text, shingle_n), a, b, memo=memo
            ).tobytes()
            for text in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "signature": pa.array(sigs, pa.binary())}
        )

    return docs.map_batches(sig_batch, batch_format="pyarrow")


def minhash_candidates(sigs, num_perm: int = 64, bands: int = 16,
                       max_bucket: int = 1024):
    """Candidate pairs (doc_a < doc_b) from banded LSH over a signature
    table. A pair colliding in several bands appears once per band —
    downstream consumers dedupe (``attach_pair_payloads(dedupe=True)``
    does it for free in the small regime, saving a hash exchange).
    Buckets larger than ``max_bucket`` pair all-to-all up to the cap and
    rep-pair the overflow (see ``_bucket_pairs_block``)."""
    import functools

    from ocr_ray.stages.grouped import grouped_map

    assert num_perm % bands == 0
    band_rows = sigs.map_batches(
        _band_rows_factory(num_perm, bands), batch_format="pyarrow"
    )
    return grouped_map(
        band_rows,
        ["band", "band_hash"],
        functools.partial(_bucket_pairs_block, max_bucket=max_bucket),
    )


def _renamed(ds, mapping: dict[str, str]):
    def apply(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])

    return ds.map_batches(apply, batch_format="pyarrow")


def _with_schema(ds, schema: pa.Schema):
    """Normalize every block to ``schema`` (select + cast), replacing the
    SCHEMA-LESS empty blocks Ray's hash aggregate emits for empty
    partitions — joins crash on those ("No match for key field") and
    unions silently mis-merge them."""

    def fix(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        return t.select(schema.names).cast(schema)

    return ds.map_batches(fix, batch_format="pyarrow")


def dedup_minhash(docs, num_perm: int = 64, bands: int = 16, threshold: float = 0.5):
    """MinHash-LSH near-dup pairs with estimated Jaccard ≥ threshold.

    Stages: per-doc signature (once) → slim band rows → block-level
    bucket pairing (grouped_map) → distinct pairs → signatures joined
    back onto the (small) candidate set → per-pair agreement estimate.
    The signature table is materialized once in the OBJECT STORE (8 +
    8·num_perm bytes/doc, distributed, spillable) because it feeds both
    the band derivation and the estimate join.
    """
    from ocr_ray.ops.joins import attach_pair_payloads

    sigs = minhash_signatures(docs, num_perm).materialize()
    cand = minhash_candidates(sigs, num_perm, bands)
    ab = attach_pair_payloads(
        cand, sigs, key_a="doc_a", key_b="doc_b", side_key="doc_id",
        payloads={"signature": ("sig_a", "sig_b")}, dedupe=True,
    )

    def estimate(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        sa = np.stack(
            [np.frombuffer(x, np.uint64) for x in t.column("sig_a").to_pylist()]
        )
        sb = np.stack(
            [np.frombuffer(x, np.uint64) for x in t.column("sig_b").to_pylist()]
        )
        est = (sa == sb).mean(axis=1)
        keep = est >= threshold
        return pa.table(
            {
                "doc_a": t.column("doc_a").filter(pa.array(keep)),
                "doc_b": t.column("doc_b").filter(pa.array(keep)),
                "est_jaccard": pa.array(est[keep], pa.float64()),
            }
        )

    return ab.map_batches(estimate, batch_format="pyarrow")


def minhash_verified_pairs(docs, threshold: float = 0.5, num_perm: int = 64,
                           bands: int = 16, shingle_n: int = 3):
    """LSH candidates verified by EXACT shingle-set Jaccard — the
    standard two-phase near-dedup: cheap banded candidate generation,
    then the texts of only the candidate docs joined back and compared
    exactly. Output (doc_a, doc_b, jaccard double) with jaccard ≥
    threshold; equals the brute-force all-pairs answer whenever LSH
    recall is 1 (guaranteed-in-practice for the ≥0.9-Jaccard dups this
    verifies; DuckDB-oracle-checked in the driver contract)."""
    from ocr_ray.ops.joins import attach_pair_payloads

    sigs = minhash_signatures(docs, num_perm, shingle_n)
    cand = minhash_candidates(sigs, num_perm, bands)
    txt = docs.select_columns(["doc_id", "text"])
    ab = attach_pair_payloads(
        cand, txt, key_a="doc_a", key_b="doc_b", side_key="doc_id",
        payloads={"text": ("text_a", "text_b")}, dedupe=True,
    )

    def verify(t: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        for doc_a, doc_b, ta, tb in zip(
            t.column("doc_a").to_pylist(),
            t.column("doc_b").to_pylist(),
            t.column("text_a").to_pylist(),
            t.column("text_b").to_pylist(),
        ):
            j = exact_jaccard(ta, tb, shingle_n)
            if j >= threshold:
                out_a.append(doc_a)
                out_b.append(doc_b)
                out_j.append(j)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return ab.map_batches(verify, batch_format="pyarrow")


def minhash_calibration(docs, num_perm: int = 64, bands: int = 16,
                        shingle_n: int = 3):
    """Estimator-calibration table for the MinHash pipeline: every LSH
    candidate pair with its signature agreement count (estimate =
    n_agree/num_perm) AND its exact shingle-set overlap (exact Jaccard
    = n_inter/n_union) — all integers, so the result hashes exactly.
    This is the table a pipeline owner reads to pick the dedup
    threshold: it quantifies how far the sketch estimate drifts from
    truth on the corpus's own candidate distribution.

    Scale shape: identical to ``dedup_minhash`` (slim band rows, bucket
    pairing, payloads joined back onto the CANDIDATE set only — one
    broadcast pass small-regime, hash joins at scale); the exact-overlap
    pass touches only candidate texts, never all pairs."""
    from ocr_ray.ops.joins import attach_pair_payloads

    sigs = minhash_signatures(docs, num_perm, shingle_n).materialize()
    cand = minhash_candidates(sigs, num_perm, bands)
    ab = attach_pair_payloads(
        cand, sigs, key_a="doc_a", key_b="doc_b", side_key="doc_id",
        payloads={"signature": ("sig_a", "sig_b")}, dedupe=True,
    )
    ab = attach_pair_payloads(
        ab, docs.select_columns(["doc_id", "text"]),
        key_a="doc_a", key_b="doc_b", side_key="doc_id",
        payloads={"text": ("text_a", "text_b")},
    )

    out_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("n_agree", pa.int64()), ("n_inter", pa.int64()),
         ("n_union", pa.int64())]
    )

    def calibrate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        sa = np.stack(
            [np.frombuffer(x, np.uint64) for x in t.column("sig_a").to_pylist()]
        )
        sb = np.stack(
            [np.frombuffer(x, np.uint64) for x in t.column("sig_b").to_pylist()]
        )
        agree = (sa == sb).sum(axis=1).astype(np.int64)
        inters, unions = [], []
        for ta, tb in zip(
            t.column("text_a").to_pylist(), t.column("text_b").to_pylist()
        ):
            s_a = word_shingles(ta, shingle_n)
            s_b = word_shingles(tb, shingle_n)
            inter = len(s_a & s_b)
            inters.append(inter)
            unions.append(len(s_a) + len(s_b) - inter)
        return pa.table(
            {
                "doc_a": t.column("doc_a").cast(pa.int64()),
                "doc_b": t.column("doc_b").cast(pa.int64()),
                "n_agree": pa.array(agree, pa.int64()),
                "n_inter": pa.array(inters, pa.int64()),
                "n_union": pa.array(unions, pa.int64()),
            }
        )

    return ab.map_batches(calibrate, batch_format="pyarrow")


# ----------------------------------------------- connected components


def connected_components(pairs, col_a: str = "doc_a", col_b: str = "doc_b",
                         max_iters: int = 25, doubling_from: int = 3,
                         local_threshold: int = 2_000_000):
    """Distributed connected components over an undirected pair graph:
    per round, every node adopts the minimum label in its closed
    neighborhood (2 keyed joins + a groupby-min). From round
    ``doubling_from`` onward, a pointer-doubling step joins in each
    node's label-of-label (1 self-join of the label table on a unique
    right key), making the remaining convergence O(log diameter)
    instead of O(diameter) — so a duplicate cluster shaped like a chain
    of thousands of hops (possible via rep-paired overflow buckets)
    converges comfortably inside ``max_iters`` = 25 (covers diameters
    ~2^22). The step is deferred rather than unconditional because real
    near-dup clusters are shallow — they converge within the first 2-3
    propagation rounds and the extra self-join would cost ~2.5× per
    round (measured) for nothing; only a pathological long chain is
    still iterating when the doubling engages. Each round is
    materialized in the object store so the lineage stays flat. Output
    (node, label) where label = min doc_id of the node's component.

    Partitioning assumption: the edge set (near-dup pairs) is a small
    fraction of the corpus — the iteration shuffles edges + labels, never
    documents."""
    from ray.data.aggregate import Min

    from ocr_ray.ops.joins import adaptive_key_join

    edges = pairs.map_batches(
        lambda t: pa.table(
            {
                "src": t.column(col_a).cast(pa.int64()),
                "dst": t.column(col_b).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
            )
        )
    if n_edges <= local_threshold:
        # local fast path: a near-dup edge set this small (~32 MB)
        # is a DRIVER-BOUNDED structure, and one path-compressed
        # union-find beats 3-25 distributed join rounds by ~20 s of
        # fixed per-round overhead (measured at sf0.1). Label = min
        # node id per component — identical semantics to the iterative
        # path; above the cap the distributed rounds take over.
        import ray.data as rd

        tbl = pa.concat_tables(
            [b for b in edges.iter_batches(batch_format="pyarrow")]
        )
        src = tbl.column("src").to_numpy(zero_copy_only=False)
        dst = tbl.column("dst").to_numpy(zero_copy_only=False)
        nodes, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
        si, di = idx[: len(src)], idx[len(src):]
        # vectorized min-label propagation + pointer doubling in
        # index space (nodes are sorted, so min index == min node):
        # O(E) numpy work per round, O(log n) rounds — no per-edge
        # Python loop, so raising local_threshold stays cheap
        lab = np.arange(len(nodes))
        while True:
            before = lab.copy()
            m = np.minimum(lab[si], lab[di])
            np.minimum.at(lab, si, m)
            np.minimum.at(lab, di, m)
            nxt = lab[lab]
            while not np.array_equal(nxt, lab):  # pointer doubling
                lab = nxt
                nxt = lab[lab]
            if np.array_equal(lab, before):
                break
        labels = nodes[lab]
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "label": pa.array(labels, pa.int64()),
                }
            )
        )

    def to_nodes(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [t.column("src").combine_chunks(), t.column("dst").combine_chunks()]
        )
        return pa.table({"node": both})

    label_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    labels = (
        _with_schema(
            edges.map_batches(to_nodes, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Min("node", alias_name="label")),
            label_schema,
        )
        .materialize()
    )
    prev_sum = labels.sum("label")

    def msg(col_keep: str):
        def apply(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or t.num_columns == 0:
                return label_schema.empty_table()
            return pa.table(
                {"node": t.column(col_keep).cast(pa.int64()),
                 "label": t.column("label").cast(pa.int64())}
            )

        return apply

    converged = False
    for it in range(max_iters):
        m1 = adaptive_key_join(
            edges, _renamed(labels, {"node": "src"}), on="src"
        ).map_batches(msg("dst"), batch_format="pyarrow")
        m2 = adaptive_key_join(
            edges, _renamed(labels, {"node": "dst"}), on="dst"
        ).map_batches(msg("src"), batch_format="pyarrow")
        rounds = [m1, m2]
        if it >= doubling_from:
            # pointer doubling: node → label-of-label. The right side
            # keys by node (unique), the left by its label value; labels
            # only decrease, so label_of(label) ≤ label and the union's
            # groupby-min absorbs the shortcut like any other message.
            rounds.append(
                adaptive_key_join(
                    _renamed(labels, {"label": "lab"}),
                    _renamed(labels, {"node": "lab", "label": "lab2"}),
                    on="lab",
                ).map_batches(
                    lambda t: (
                        label_schema.empty_table()
                        if t.num_rows == 0 or t.num_columns == 0
                        else pa.table(
                            {
                                "node": t.column("node").cast(pa.int64()),
                                "label": t.column("lab2").cast(pa.int64()),
                            }
                        )
                    ),
                    batch_format="pyarrow",
                )
            )
        labels = (
            _with_schema(
                labels.union(*rounds)
                .groupby("node")
                .aggregate(Min("label", alias_name="label")),
                label_schema,
            )
            .materialize()
        )
        # labels only ever decrease: the label sum is a monotone
        # convergence witness computable without collecting rows
        new_sum = labels.sum("label")
        if new_sum == prev_sum:
            converged = True
            break
        prev_sum = new_sum
    if not converged:
        # a component shaped like a chain longer than max_iters hops
        # (possible via rep-paired overflow buckets) would otherwise be
        # silently split into several components — keepers of the split
        # pieces survive dedup that should have removed them
        import logging

        logging.getLogger("ocr_ray.dedup").warning(
            "connected_components: label propagation did NOT converge "
            "within max_iters=%d (label sum still changing); components "
            "with diameter > %d are split — rerun with a larger max_iters",
            max_iters, max_iters,
        )
    return labels


def dedup_minhash_components(docs, threshold: float = 0.5, **kwargs):
    """Connected components over the exact-verified MinHash pair graph:
    (doc_id, component) for every doc in at least one pair, component =
    min doc_id of its duplicate cluster."""
    pairs = minhash_verified_pairs(docs, threshold=threshold, **kwargs)
    labels = connected_components(pairs)
    return _renamed(labels, {"node": "doc_id", "label": "component"})


def dedup_minhash_drop_list(docs, threshold: float = 0.5, **kwargs):
    """Docs to REMOVE under MinHash near-dedup: cluster-level semantics —
    keep the minimum doc_id of each connected component of the verified
    pair graph, drop every other member. (Round-1 semantics were
    pairwise-greedy and could keep a doc whose only edges pointed at
    larger ids; component semantics are frozen by the chain test
    (1,2),(3,4),(2,4) → keep {1}.)"""
    import pyarrow.compute as pc

    comp = dedup_minhash_components(docs, threshold=threshold, **kwargs)

    def non_keepers(t: pa.Table) -> pa.Table:
        mask = pc.not_equal(t["doc_id"], t["component"])
        return pa.table({"doc_id": t.column("doc_id").filter(mask)})

    return comp.map_batches(non_keepers, batch_format="pyarrow")


def dedup_minhash_canonical(docs, lengths=None, threshold: float = 0.5,
                            **kwargs):
    """Canonical-document selection per near-dup cluster: within each
    connected component of the verified MinHash pair graph, keep the
    HIGHEST-QUALITY member (longest text by n_chars, ties to the
    smallest doc_id) — the keeper policy real curation pipelines use
    instead of min-id (the longest variant usually carries the least
    truncation/boilerplate damage). Returns
    (component, canonical_doc, canonical_chars, cluster_size).

    Scale shape: the component table (one slim row per DUPLICATE doc,
    not per doc) joins doc lengths via adaptive_key_join — broadcast of
    the component doc_ids when small, hash join at scale; the argmax is
    one vectorized lexsort per component-partitioned block."""
    import numpy as np

    from ocr_ray.ops.joins import adaptive_key_join
    from ocr_ray.stages.grouped import grouped_map

    if lengths is None:
        # derive (doc_id, n_chars) from the text when the caller has no
        # precomputed length column
        def measure(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table(
                {
                    "doc_id": t.column("doc_id").cast(pa.int64()),
                    "n_chars": pc.utf8_length(t.column("text")).cast(
                        pa.int64()
                    ),
                }
            )

        lengths = docs.map_batches(measure, batch_format="pyarrow")

    comp = dedup_minhash_components(docs, threshold=threshold, **kwargs)
    sized = adaptive_key_join(comp, lengths, on="doc_id")

    out_schema = pa.schema(
        [
            ("component", pa.int64()),
            ("canonical_doc", pa.int64()),
            ("canonical_chars", pa.int64()),
            ("cluster_size", pa.int64()),
        ]
    )

    def argmax_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        compv = block.column("component").to_numpy(zero_copy_only=False)
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        chars = block.column("n_chars").to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, n))
        # within each segment: longest first, then smallest id
        order = np.lexsort((ids, -chars, compv))
        win = order[starts]
        return pa.table(
            {
                "component": pa.array(compv[win], pa.int64()),
                "canonical_doc": pa.array(ids[win], pa.int64()),
                "canonical_chars": pa.array(
                    chars[win].astype(np.int64), pa.int64()
                ),
                "cluster_size": pa.array(sizes, pa.int64()),
            }
        )

    return _with_schema(
        grouped_map(sized, ["component"], argmax_block), out_schema
    ).sort("component")


# -------------------------------------------------------------- SimHash


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens weighted by term frequency.

    Token hashes are md5-derived (``_md5_hash64``) so the whole operator
    is reproducible in ANSI SQL — the DuckDB oracle rebuilds the exact
    same simhash with 64 SUM(CASE…) aggregates and compares pairs with
    bit_count(xor(…)).
    """
    counts = Counter(_WORD_RE.findall((text or "").lower()))
    if not counts:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for token, weight in counts.items():
        h = _md5_hash64(token)
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), weight, -weight)
    return int(
        np.bitwise_or.reduce(
            (acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
        )
    )


def _simhash_batch(batch: pa.Table) -> pa.Table:
    """Long format: 4 rows per doc, one per 16-bit chunk table — near-dups
    (hamming ≤ 3 over 4 chunks) collide in ≥1 table (pigeonhole), and one
    pass + one shuffle covers all 4 tables."""
    hashes = [simhash64(t) for t in batch.column("text").to_pylist()]
    ids = batch.column("doc_id").to_pylist()
    n = len(hashes)
    return pa.table(
        {
            "table_id": pa.array([t for t in range(4) for _ in range(n)], pa.int32()),
            "chunk": pa.array(
                [(h >> (16 * t)) & 0xFFFF for t in range(4) for h in hashes],
                pa.int32(),
            ),
            "doc_id": pa.array(ids * 4, pa.int64()),
            "simhash": pa.array(
                np.tile(np.array(hashes, dtype=np.uint64), 4), pa.uint64()
            ),
        }
    )


_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount via a 16-bit lookup table (numpy 1.x
    has no bitwise_count)."""
    x = x.astype(np.uint64)
    m = np.uint64(0xFFFF)
    return (
        _POP16[(x & m).astype(np.int64)].astype(np.int64)
        + _POP16[((x >> np.uint64(16)) & m).astype(np.int64)]
        + _POP16[((x >> np.uint64(32)) & m).astype(np.int64)]
        + _POP16[((x >> np.uint64(48)) & m).astype(np.int64)]
    )


def _simhash_block_pairs_factory(max_hamming: int, max_bucket: int = 8192):
    def block_pairs(block: pa.Table, starts: np.ndarray) -> pa.Table:
        a_out: list[np.ndarray] = []
        b_out: list[np.ndarray] = []
        d_out: list[np.ndarray] = []
        ends = np.append(starts[1:], block.num_rows)
        multi = ends - starts >= 2
        if multi.any():
            ids_col = block.column("doc_id")
            hash_col = block.column("simhash")
            for s, e in zip(starts[multi], ends[multi]):
                ids = ids_col.slice(s, e - s).to_numpy(zero_copy_only=False)
                hashes = hash_col.slice(s, e - s).to_numpy(
                    zero_copy_only=False
                ).astype(np.uint64)
                order = np.argsort(ids)
                ids, hashes = ids[order], hashes[order]
                head_n = min(len(ids), max_bucket)
                # all-pairs hamming inside the (possibly huge) bucket,
                # one vectorized popcount row per doc — exact recall up
                # to max_bucket (8192² half-pairs ≈ 33M popcounts, well
                # under a second with the 16-bit table)
                for x in range(head_n):
                    rest = slice(x + 1, head_n)
                    d = _popcount64(hashes[x] ^ hashes[rest])
                    hit = d <= max_hamming
                    if hit.any():
                        a_out.append(np.full(int(hit.sum()), ids[x]))
                        b_out.append(ids[rest][hit])
                        d_out.append(d[hit])
                if len(ids) > max_bucket:
                    # beyond the cap: pair overflow docs with the bucket
                    # representative only (connectivity preserved, exact
                    # recall necessarily degraded) — and say so
                    import logging

                    logging.getLogger("ocr_ray.dedup").warning(
                        "simhash bucket of %d docs exceeds max_bucket=%d; "
                        "%d overflow docs rep-paired only",
                        len(ids), max_bucket, len(ids) - max_bucket,
                    )
                    tail = slice(max_bucket, None)
                    d = _popcount64(hashes[0] ^ hashes[tail])
                    hit = d <= max_hamming
                    if hit.any():
                        a_out.append(np.full(int(hit.sum()), ids[0]))
                        b_out.append(ids[tail][hit])
                        d_out.append(d[hit])
        a = np.concatenate(a_out) if a_out else np.empty(0, dtype=np.int64)
        b = np.concatenate(b_out) if b_out else np.empty(0, dtype=np.int64)
        d = np.concatenate(d_out) if d_out else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "doc_a": pa.array(a.astype(np.int64), pa.int64()),
                "doc_b": pa.array(b.astype(np.int64), pa.int64()),
                "hamming": pa.array(d.astype(np.int64), pa.int64()),
            }
        )

    return block_pairs


def dedup_simhash(docs, max_hamming: int = 3):
    """SimHash near-dup pairs within hamming distance ≤ max_hamming,
    candidate-generated by 16-bit chunk tables (pigeonhole: d ≤ 3 over 4
    chunks → at least one identical chunk, so recall is exact as long as
    buckets stay under max_bucket — overflow docs are still compared to
    the bucket representative). Output (doc_a, doc_b, hamming BIGINT);
    DuckDB-oracle-checked exactly (md5-based token hashes)."""
    from ray.data.aggregate import Min

    from ocr_ray.stages.grouped import grouped_map

    sims = docs.map_batches(_simhash_batch, batch_format="pyarrow")
    pairs = grouped_map(
        sims, ["table_id", "chunk"], _simhash_block_pairs_factory(max_hamming)
    )
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


def dedup_exact_drop_list(docs):
    """Docs to REMOVE under exact dedup: everything but the min doc_id of
    each fingerprint group. Fully distributed (block-level grouped map on
    the fingerprint — no driver-side keeper set). Output (doc_id)."""
    from ocr_ray.stages.grouped import grouped_map

    hashed = docs.map_batches(_hash_batch, batch_format="pyarrow")

    def drop_non_min(block: pa.Table, starts: np.ndarray) -> pa.Table:
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        ends = np.append(starts[1:], block.num_rows)
        out = []
        for s, e in zip(starts, ends):
            if e - s >= 2:
                grp = np.sort(ids[s:e])
                out.extend(int(x) for x in grp[1:])
        return pa.table({"doc_id": pa.array(sorted(out), pa.int64())})

    return grouped_map(hashed, ["fingerprint"], drop_non_min)


def frequent_shingles(docs, min_df: int = 2, k: int = 50, shingle_n: int = 3):
    """Boilerplate phrase mining (the C4-style repeated-span detector):
    the k word n-grams appearing in the most DISTINCT documents
    (df ≥ min_df), rank by (df DESC, shingle ASC). The global sort runs
    only on the df-filtered vocabulary — the ``min_df`` threshold is the
    scale lever that keeps the top-k sort input tiny. Output
    (shingle, df, rank)."""
    from ray.data.aggregate import Count

    def shingle_rows(batch: pa.Table) -> pa.Table:
        ids, out = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for s in word_shingles(text, shingle_n):
                ids.append(doc_id)
                out.append(s)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shingle": pa.array(out, pa.string()),
            }
        )

    counted = (
        docs.map_batches(shingle_rows, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Count(alias_name="df"))
        .filter(expr=f"df >= {min_df}")
        .sort(["df", "shingle"], descending=[True, False])
        .limit(k)
    )
    rows = counted.take_all()  # ≤ k rows by construction
    return pa.table(
        {
            "shingle": pa.array([r["shingle"] for r in rows], pa.string()),
            "df": pa.array([int(r["df"]) for r in rows], pa.int64()),
            "rank": pa.array(range(1, len(rows) + 1), pa.int64()),
        }
    )


# ------------------------------------------- exact n-gram Jaccard pairs


def _shingle_rows_factory(shingle_n: int):
    def shingle_rows(batch: pa.Table) -> pa.Table:
        sh_out, id_out, size_out = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            shingles = word_shingles(text, shingle_n)
            for s in shingles:
                sh_out.append(_stable_hash64(s))
                id_out.append(doc_id)
                size_out.append(len(shingles))
        return pa.table(
            {
                "shingle": pa.array(np.array(sh_out, dtype=np.uint64), pa.uint64()),
                "doc_id": pa.array(id_out, pa.int64()),
                "set_size": pa.array(size_out, pa.int64()),
            }
        )

    return shingle_rows


def _cooccur_block_factory(max_df: int):
    def cooccur(block: pa.Table, starts: np.ndarray) -> pa.Table:
        """Co-occurrence pair PARTIALS per shingle bucket, vectorized
        across buckets (shared triu template per distinct bucket size —
        see ``_intra_group_pair_indices``). Buckets larger than
        ``max_df`` are dropped whole: the stop-shingle guard, mirrored
        by the oracle's df filter. A pair recurs once per shared
        shingle; the block covers many shingle buckets, so recurrences
        are map-side combined into ``inter_p`` (one lexsort run-length
        pass) before the keyed sum — measured ~40% off the
        pair-aggregate wall at sf0.1 on the high-df synthetic corpus."""
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            empty = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table(
                {"doc_a": empty, "doc_b": empty,
                 "size_a": empty, "size_b": empty, "inter_p": empty}
            )
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        set_sizes = block.column("set_size").to_numpy(zero_copy_only=False)
        gidx = np.repeat(
            np.arange(len(starts)), np.diff(np.append(starts, n))
        )
        ids_d, g_d, sz_d = _dedup_sorted_by_group(ids, gidx, set_sizes)
        ii, jj, _ = _intra_group_pair_indices(g_d, max_df, drop_over=True)
        ia, ib = ids_d[ii], ids_d[jj]
        sa, sb = sz_d[ii], sz_d[jj]
        if len(ia):
            order = np.lexsort((ib, ia))
            ia, ib, sa, sb = ia[order], ib[order], sa[order], sb[order]
            firsts = np.flatnonzero(
                np.r_[True, (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])]
            )
            cnt = np.diff(np.append(firsts, len(ia)))
            ia, ib, sa, sb = ia[firsts], ib[firsts], sa[firsts], sb[firsts]
        else:
            cnt = np.empty(0, np.int64)
        return pa.table(
            {
                "doc_a": pa.array(ia, pa.int64()),
                "doc_b": pa.array(ib, pa.int64()),
                "size_a": pa.array(sa, pa.int64()),
                "size_b": pa.array(sb, pa.int64()),
                "inter_p": pa.array(cnt, pa.int64()),
            }
        )

    return cooccur


def ngram_jaccard_pairs(docs, shingle_n: int = 3, threshold: float = 0.5,
                        max_df: int = 256):
    """n-gram Jaccard similarity for all pairs sharing ≥1 surviving
    shingle, via a distributed inverted-index join: explode (shingle,
    doc) rows → bucket by shingle → co-occurrence pairs (each contributes
    1 to |A∩B|) → groupby-pair count → jaccard = inter/(|A|+|B|−inter).

    Shingles appearing in more than ``max_df`` docs are dropped before
    pairing (stop-shingle skew guard). NOTE: dropped shared shingles
    reduce the measured intersection while |A| and |B| stay full, so for
    pairs that share high-DF shingles the reported jaccard is an
    UNDERESTIMATE of the true set Jaccard — a pair can fall below
    ``threshold`` purely because its overlap is concentrated in
    stop-shingles. This matches the DuckDB oracle exactly (the oracle
    applies the same df filter); use ``minhash_verified_pairs`` when the
    unfiltered set Jaccard is required."""
    import pyarrow.compute as pc

    counted = _ngram_cooccur_counts(docs, shingle_n, max_df)

    def add_jaccard(t: pa.Table) -> pa.Table:
        inter = t["intersection"].to_numpy(zero_copy_only=False).astype(np.float64)
        union = (
            t["size_a"].to_numpy(zero_copy_only=False)
            + t["size_b"].to_numpy(zero_copy_only=False)
            - inter
        )
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        out = t.append_column("jaccard", pa.array(jac, pa.float64()))
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    return counted.map_batches(add_jaccard, batch_format="pyarrow")


def _ngram_cooccur_counts(docs, shingle_n: int, max_df: int):
    """Shared inverted-index core of the shingle-set similarity joins:
    (doc_a, doc_b, intersection, size_a, size_b) for every pair sharing
    ≥1 surviving shingle. One shuffle of slim derived rows (shingle
    bucketing) + one keyed sum of map-side-combined pair partials;
    documents never shuffle. The pair reduction runs through
    ``grouped_map`` (hash repartition + one vectorized segment-sum per
    block) rather than Ray's hash aggregate: the all-pairs candidate
    table has MILLIONS of mostly-singleton groups, and the native
    aggregate's per-group accounting measured ~340 s of aggregator CPU
    on 1.26M rows at sf0.1 where the segment-sum costs milliseconds
    (31 → 9 s end-to-end)."""
    from ocr_ray.stages.grouped import grouped_map

    rows = docs.map_batches(
        _shingle_rows_factory(shingle_n), batch_format="pyarrow"
    )
    pairs = grouped_map(rows, ["shingle"], _cooccur_block_factory(max_df))
    return grouped_map(pairs, ["doc_a", "doc_b"], _pair_sum_block)


def _pair_sum_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per-(doc_a, doc_b) reduction of co-occurrence partials: one
    np.add.reduceat over the group-sorted block. size_a/size_b are
    functionally dependent on the keys (first of group)."""
    out_schema = pa.schema(
        [
            ("doc_a", pa.int64()),
            ("doc_b", pa.int64()),
            ("intersection", pa.int64()),
            ("size_a", pa.int64()),
            ("size_b", pa.int64()),
        ]
    )
    n = block.num_rows
    if n == 0 or len(starts) == 0:
        return out_schema.empty_table()
    inter = np.add.reduceat(
        block.column("inter_p").to_numpy(zero_copy_only=False), starts
    )
    return pa.table(
        {
            "doc_a": block.column("doc_a").take(pa.array(starts)),
            "doc_b": block.column("doc_b").take(pa.array(starts)),
            "intersection": pa.array(inter, pa.int64()),
            "size_a": block.column("size_a").take(pa.array(starts)),
            "size_b": block.column("size_b").take(pa.array(starts)),
        }
    )


def ngram_containment_pairs(docs, shingle_n: int = 3,
                            threshold: float = 0.6, max_df: int = 256):
    """ASYMMETRIC near-dup: n-gram containment C(A→B) = |A∩B| / |A| for
    all pairs sharing ≥1 surviving shingle, kept when EITHER direction
    reaches ``threshold``. Catches quote-inclusion / excerpt relations
    that symmetric Jaccard misses — a short doc fully contained in a
    long one has high containment but low Jaccard (Broder 1997's
    containment measure; the reference has no analogue — its dedup is
    the UNIQUE word constraint, db_service.py:69).

    Same inverted-index core, stop-shingle guard and underestimate
    semantics as ``ngram_jaccard_pairs`` (dropped high-df shared
    shingles shrink the intersection while set sizes stay full); the
    DuckDB oracle applies the identical df filter and IEEE divisions."""
    import pyarrow.compute as pc

    counted = _ngram_cooccur_counts(docs, shingle_n, max_df)

    def add_containment(t: pa.Table) -> pa.Table:
        inter = (
            t["intersection"].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        sa = t["size_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        sb = t["size_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        cont_a = inter / sa
        cont_b = inter / sb
        out = t.append_column("cont_a", pa.array(cont_a, pa.float64()))
        out = out.append_column("cont_b", pa.array(cont_b, pa.float64()))
        return out.filter(
            pc.greater_equal(
                pc.max_element_wise(out["cont_a"], out["cont_b"]), threshold
            )
        )

    return counted.map_batches(add_containment, batch_format="pyarrow")


def dedup_exact_incremental(new_docs, known_docs,
                            broadcast_threshold: int = 2_000_000):
    """Incremental exact dedup — the operational mode of a growing
    corpus: deduplicate a NEW shard against the fingerprints of the
    EXISTING corpus without re-deduplicating the existing corpus.

    Returns the new docs to ADMIT: per content fingerprint the smallest
    new doc_id, and only for fingerprints absent from ``known_docs``.
    The new side always reduces to slim keeper rows with one keyed
    aggregate. The known-overlap check has two plans (same dispatch as
    dedup_minhash_incremental): when the known distinct-fingerprint set
    fits ``broadcast_threshold`` it ships once via ray.put and the
    anti join is a map-side set probe — zero join shuffles; past the
    threshold, distinct known fingerprints with a marker LEFT OUTER
    join the keepers hash-partitioned and null-marker rows survive.
    At 100 TB the known fingerprints would be the persisted output of
    the previous run, read directly (no rescan of known text)."""
    import ray
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min

    new_keepers = (
        new_docs.map_batches(_hash_batch, batch_format="pyarrow")
        .groupby("fingerprint")
        .aggregate(
            Min("doc_id", alias_name="doc_id"),
            Count(alias_name="n_copies_new"),
        )
    )
    known_local = known_docs.map_batches(
        _hash_batch, batch_format="pyarrow"
    ).map_batches(
        lambda t: t.select(["fingerprint"])
        .group_by("fingerprint")
        .aggregate([]),
        batch_format="pyarrow",
    ).materialize()
    # pinned: the broadcast-ability probe below consumes it, and the
    # too-big fallback consumes it AGAIN for the distinct+join — without
    # materialize that second path re-hashes the entire known corpus.

    seen: set = set()
    too_big = False
    for b in known_local.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            seen.update(b.column("fingerprint").to_pylist())
        if len(seen) > broadcast_threshold:
            too_big = True
            break

    if not too_big:
        seen_ref = ray.put(seen)

        def probe(t: pa.Table, _ref=seen_ref) -> pa.Table:
            empty = pa.schema(
                [
                    ("fingerprint", pa.string()),
                    ("doc_id", pa.int64()),
                    ("n_copies_new", pa.int64()),
                ]
            ).empty_table()
            if t.num_rows == 0 or "fingerprint" not in t.column_names:
                return empty
            s = ray.get(_ref)
            keep = pa.array(
                [fp not in s for fp in t.column("fingerprint").to_pylist()]
            )
            return t.select(
                ["fingerprint", "doc_id", "n_copies_new"]
            ).filter(keep)

        return new_keepers.map_batches(probe, batch_format="pyarrow")

    from ocr_ray.ops.joins import large_join

    known_fps = known_local.groupby("fingerprint").aggregate(
        Count(alias_name="_known")
    )
    joined = large_join(
        new_keepers, known_fps, on="fingerprint", join_type="left_outer"
    )

    def admit(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(t["_known"])).select(
            ["fingerprint", "doc_id", "n_copies_new"]
        )

    return joined.map_batches(admit, batch_format="pyarrow")


def dedup_minhash_incremental(new_docs, known_docs, num_perm: int = 64,
                              bands: int = 16,
                              broadcast_threshold: int = 5_000_000):
    """Incremental NEAR-dup admission — the growing-corpus twin of
    :func:`dedup_exact_incremental`: a NEW doc is admitted iff none of
    its LSH bands collides with any KNOWN doc's same-band signature
    (no collision in any band => LSH judges it novel). Returns the
    admitted (doc_id) rows.

    Two plans, picked by the known corpus's distinct band-key count
    (16 keys/doc before dedup — sublinear in corpus size after):

    - fits ``broadcast_threshold``: the key set ships once via
      ``ray.put`` as per-band sorted arrays and every NEW batch checks
      its 16 band hashes map-side (vectorized isin) — signatures,
      banding, membership and the per-doc all-bands reduction all
      happen inside ONE batch, so the plan has ZERO shuffles of new
      rows;
    - larger: slim (band, band_hash) rows LEFT OUTER join the new band
      rows hash-partitioned, keyed per-doc hit sums, admit where zero.
      (This path needs populated partitions — Ray's native join crashes
      on empty ones — which the scale regime guarantees.)

    At 100 TB the known band keys are the persisted LSH index of the
    previous run — read directly, no rescan of known text. Caveats
    shared with dedup_minhash: the engine compares 64-bit band hashes
    (a hash collision between different tuples could spuriously reject,
    ~2^-64 per comparison), and docs with ZERO word tokens carry the
    all-max sentinel signature, so two empty docs collide by
    construction."""
    import ray
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    band_fn = _band_rows_factory(num_perm, bands)

    def band_rows(docs):
        return minhash_signatures(docs, num_perm).map_batches(
            band_fn, batch_format="pyarrow"
        )

    key_schema = pa.schema(
        [("band", pa.int64()), ("band_hash", pa.int64()),
         ("_known", pa.int64())]
    )
    known_keys = _with_schema(
        band_rows(known_docs)
        .map_batches(
            # map-side distinct before the shuffle: a known doc's 16
            # band keys repeat across its duplicates
            lambda t: t.select(["band", "band_hash"])
            .group_by(["band", "band_hash"])
            .aggregate([]),
            batch_format="pyarrow",
        )
        .groupby(["band", "band_hash"])
        .aggregate(Count(alias_name="_known")),
        key_schema,
    ).materialize()

    sigs_new = minhash_signatures(new_docs, num_perm)

    if known_keys.count() <= broadcast_threshold:
        per_band: dict[int, list[np.ndarray]] = {}
        for b in known_keys.iter_batches(batch_format="pyarrow"):
            if not b.num_rows:
                continue
            bs = b.column("band").to_numpy(zero_copy_only=False)
            hs = b.column("band_hash").to_numpy(zero_copy_only=False)
            for band in np.unique(bs):
                per_band.setdefault(int(band), []).append(hs[bs == band])
        lut = {
            band: np.unique(np.concatenate(parts))
            for band, parts in per_band.items()
        }
        lut_ref = ray.put(lut)

        def check(batch: pa.Table, _ref=lut_ref) -> pa.Table:
            empty = pa.schema([("doc_id", pa.int64())]).empty_table()
            n = batch.num_rows
            if n == 0:
                return empty
            rows = band_fn(batch)  # band-major: row b*n+i = (band b, doc i)
            hashes = rows.column("band_hash").to_numpy(
                zero_copy_only=False
            ).reshape(bands, n)
            keys = ray.get(_ref)
            hit = np.zeros(n, dtype=bool)
            for band in range(bands):
                arr = keys.get(band)
                if arr is not None and arr.size:
                    hit |= np.isin(hashes[band], arr)
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return pa.table(
                {"doc_id": pa.array(ids[~hit].astype(np.int64), pa.int64())}
            )

        return sigs_new.map_batches(check, batch_format="pyarrow")

    from ocr_ray.ops.joins import large_join

    new_rows = _with_schema(
        sigs_new.map_batches(band_fn, batch_format="pyarrow"),
        pa.schema(
            [("band", pa.int64()), ("band_hash", pa.int64()),
             ("doc_id", pa.int64())]
        ),
    )
    joined = large_join(
        new_rows, known_keys,
        on=("band", "band_hash"), join_type="left_outer",
    )

    flag_schema = pa.schema([("doc_id", pa.int64()), ("hit", pa.int64())])

    def flag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return flag_schema.empty_table()
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "hit": pc.cast(
                    pc.is_valid(t.column("_known")), pa.int64()
                ),
            }
        )

    agg = (
        _with_schema(
            joined.map_batches(flag, batch_format="pyarrow"), flag_schema
        )
        .groupby("doc_id")
        .aggregate(Sum("hit", alias_name="n_band_hits"))
    )

    def admit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pa.schema([("doc_id", pa.int64())]).empty_table()
        return t.filter(pc.equal(t["n_band_hits"], 0)).select(["doc_id"])

    return agg.map_batches(admit, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PPJoin-style prefix-filtered exact Jaccard join (Xiao et al. 2008) —
# the SCALE PATH for the all-pairs n-gram join: instead of pairing every
# co-occurring (doc_a, doc_b) (Σ C(df, 2) candidates — quadratic in df),
# only each doc's PREFIX shingles (its |surv| − ⌈t·|full|⌉ + 1 rarest,
# under the global (df, shingle) order) generate candidates. Prefix
# filtering is lossless: any pair whose (stop-guard-underestimated)
# jaccard reaches t shares at least one prefix shingle — proof: j ≥ t
# forces inter ≥ ⌈t·|A|⌉; if no shared shingle sat in prefix(A), every
# shared one would be among A's last ⌈t·|A|⌉ − 1, a contradiction (and
# symmetrically for B; the globally smallest shared shingle lies in
# both prefixes). Results are BIT-IDENTICAL to ngram_jaccard_pairs —
# the driver registers it against the same DuckDB oracle.

_PREFIX_PAYLOAD_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("set_size", pa.int64()),
        ("n_surv", pa.int64()),
        ("surv_sorted", pa.binary()),   # uint64 LE, hash-sorted (intersect)
        ("prefix", pa.binary()),        # uint64 LE, (df, shingle)-ordered
    ]
)
_JACCARD_OUT_SCHEMA = pa.schema(
    [
        ("doc_a", pa.int64()),
        ("doc_b", pa.int64()),
        ("intersection", pa.int64()),
        ("size_a", pa.int64()),
        ("size_b", pa.int64()),
        ("jaccard", pa.float64()),
    ]
)


def ngram_jaccard_prefix_pairs(docs, shingle_n: int = 3,
                               threshold: float = 0.5, max_df: int = 256):
    """Exact n-gram Jaccard ≥ threshold via prefix filtering; same
    output (and same stop-shingle underestimate semantics) as
    ``ngram_jaccard_pairs``, different physical plan:

    1. shingle-partitioned pass annotates df in-block and drops stop
       shingles (df > max_df) — the same guard, same semantics;
    2. doc-partitioned pass (sorted by the global (df, shingle) order)
       packs each doc's surviving hash set and its prefix slice; docs
       whose surviving count cannot reach ⌈t·|full|⌉ exit here;
    3. only PREFIX rows shuffle back by shingle for candidate pairing
       (buckets ≤ max_df by construction — stop shingles are gone);
    4. deduped candidates get both packed sets attached
       (size-adaptive pair-payload join) and verify with one
       np.intersect1d each — exact intersection, full sizes, the
       identical IEEE jaccard division the oracle evaluates.

    Candidate volume scales with Σ C(df_prefix, 2) over RARE shingles
    instead of Σ C(df, 2) over all — the difference between quadratic
    blowup on boilerplate-heavy corpora and near-linear work."""
    import math

    from ocr_ray.ops.joins import attach_pair_payloads
    from ocr_ray.stages.grouped import grouped_map

    thr = float(threshold)

    rows = docs.map_batches(
        _shingle_rows_factory(shingle_n), batch_format="pyarrow"
    )

    surv_schema = pa.schema(
        [
            ("shingle", pa.uint64()),
            ("doc_id", pa.int64()),
            ("set_size", pa.int64()),
            ("df", pa.int64()),
        ]
    )

    def df_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return surv_schema.empty_table()
        sizes = np.diff(np.append(starts, n))
        keep_group = sizes <= max_df
        n_stop = int(np.count_nonzero(~keep_group))
        if n_stop:
            import logging

            logging.getLogger("ocr_ray.dedup").warning(
                "%d stop shingles (df > %d) dropped before pairing",
                n_stop, max_df,
            )
        keep = np.repeat(keep_group, sizes)
        df = np.repeat(sizes, sizes)
        idx = pa.array(np.flatnonzero(keep))
        return pa.table(
            {
                "shingle": block.column("shingle").take(idx),
                "doc_id": block.column("doc_id").take(idx),
                "set_size": block.column("set_size").take(idx),
                "df": pa.array(df[keep], pa.int64()),
            }
        )

    surv = grouped_map(rows, ["shingle"], df_block)

    def doc_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return _PREFIX_PAYLOAD_SCHEMA.empty_table()
        sh = block.column("shingle").to_numpy(zero_copy_only=False)
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        full = block.column("set_size").to_numpy(zero_copy_only=False)
        bounds = np.append(starts, n)
        out = {k: [] for k in _PREFIX_PAYLOAD_SCHEMA.names}
        for s, e in zip(bounds[:-1], bounds[1:]):
            s_full = int(full[s])
            n_surv = int(e - s)
            # required overlap for any qualifying pair involving this
            # doc; ceil with a downward epsilon so float fuzz can only
            # LENGTHEN the prefix (longer prefix = still lossless)
            required = max(1, int(math.ceil(thr * s_full - 1e-9)))
            p = n_surv - required + 1
            if p <= 0:
                continue  # cannot reach the threshold with any partner
            grp = sh[s:e]  # (df, shingle)-ordered by sort_within
            out["doc_id"].append(int(ids[s]))
            out["set_size"].append(s_full)
            out["n_surv"].append(n_surv)
            out["surv_sorted"].append(
                np.sort(grp.astype(np.uint64)).tobytes()
            )
            out["prefix"].append(grp[:p].astype(np.uint64).tobytes())
        return pa.Table.from_pydict(out, schema=_PREFIX_PAYLOAD_SCHEMA)

    payloads = grouped_map(
        surv, ["doc_id"], doc_block, sort_within=("df", "shingle")
    ).materialize()

    def explode_prefix(t: pa.Table) -> pa.Table:
        shs, ids, sizes = [], [], []
        for doc_id, size, blob in zip(
            t.column("doc_id").to_pylist(),
            t.column("set_size").to_pylist(),
            t.column("prefix").to_pylist(),
        ):
            arr = np.frombuffer(blob, dtype=np.uint64)
            shs.append(arr)
            ids.append(np.full(len(arr), doc_id, np.int64))
            sizes.append(np.full(len(arr), size, np.int64))
        if not shs:
            return pa.schema(
                [("shingle", pa.uint64()), ("doc_id", pa.int64()),
                 ("set_size", pa.int64())]
            ).empty_table()
        sh = np.concatenate(shs)
        return pa.table(
            {
                "shingle": pa.array(sh, pa.uint64()),
                "doc_id": pa.array(np.concatenate(ids), pa.int64()),
                "set_size": pa.array(np.concatenate(sizes), pa.int64()),
            }
        )

    prefix_rows = payloads.map_batches(explode_prefix, batch_format="pyarrow")
    cand = grouped_map(
        prefix_rows, ["shingle"], _cooccur_block_factory(max_df)
    )

    def first_of_group(block: pa.Table, starts: np.ndarray) -> pa.Table:
        schema = pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64()),
             ("size_a", pa.int64()), ("size_b", pa.int64())]
        )
        if block.num_rows == 0 or len(starts) == 0:
            return schema.empty_table()
        idx = pa.array(starts)
        t = pa.table(
            {
                "doc_a": block.column("doc_a").take(idx),
                "doc_b": block.column("doc_b").take(idx),
                "size_a": block.column("size_a").take(idx),
                "size_b": block.column("size_b").take(idx),
            }
        )
        # lossless length-ratio filter (Xiao et al.): j ≥ t forces
        # min(|A|,|B|) ≥ t·max(|A|,|B|); the epsilon keeps boundary
        # candidates (extra candidates are harmless, dropped ones not)
        sa = t.column("size_a").to_numpy(zero_copy_only=False)
        sb = t.column("size_b").to_numpy(zero_copy_only=False)
        keep = np.minimum(sa, sb) + 1e-9 >= thr * np.maximum(sa, sb)
        return t.filter(pa.array(keep))

    deduped = grouped_map(cand, ["doc_a", "doc_b"], first_of_group)
    ab = attach_pair_payloads(
        deduped,
        payloads,
        key_a="doc_a",
        key_b="doc_b",
        side_key="doc_id",
        payloads={"surv_sorted": ("sh_a", "sh_b")},
    )

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _JACCARD_OUT_SCHEMA.empty_table()
        out = {k: [] for k in _JACCARD_OUT_SCHEMA.names}
        for da, db, sa, sb, ba, bb in zip(
            t.column("doc_a").to_pylist(),
            t.column("doc_b").to_pylist(),
            t.column("size_a").to_pylist(),
            t.column("size_b").to_pylist(),
            t.column("sh_a").to_pylist(),
            t.column("sh_b").to_pylist(),
        ):
            inter = len(
                np.intersect1d(
                    np.frombuffer(ba, np.uint64),
                    np.frombuffer(bb, np.uint64),
                    assume_unique=True,
                )
            )
            if inter == 0:
                continue
            jac = float(inter) / float(sa + sb - inter)
            if jac >= thr:
                out["doc_a"].append(da)
                out["doc_b"].append(db)
                out["intersection"].append(inter)
                out["size_a"].append(sa)
                out["size_b"].append(sb)
                out["jaccard"].append(jac)
        return pa.Table.from_pydict(out, schema=_JACCARD_OUT_SCHEMA)

    return _with_schema(
        ab.map_batches(verify, batch_format="pyarrow"), _JACCARD_OUT_SCHEMA
    )


# ------------------------------------- sorted-neighborhood blocking (ER)

_SNM_PAIR_SCHEMA = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64())]
)


def sorted_neighborhood_pairs(docs, window: int = 3, key_chars: int = 24,
                              bucket_shift: int = 43):
    """Sorted-neighborhood method (the classic entity-resolution
    blocking strategy): sort the corpus by a normalization key — the
    first ``key_chars`` chars of the whitespace-collapsed lowercased
    text — and emit every pair of docs within ``window`` positions of
    each other in that global order (SQL: self-join on
    ``ROW_NUMBER() OVER (ORDER BY key, doc_id)`` with rank distance
    in [1, window]).

    Scale shape — a global ORDER BY without a global sort: the key's
    first 8 bytes, read big-endian, are order-isomorphic to the key
    prefix (UTF-8 preserves codepoint order bytewise), so range buckets
    ``v >> bucket_shift`` partition the corpus in key order; each
    bucket block sorts locally (a bucket never straddles blocks) and
    pairs its in-window rows vectorized. Only boundary rows cross
    buckets: each bucket ships its size plus first/last ``window`` rows
    (2·window per present bucket — bounded by the bucket domain, not
    the corpus) and the driver stitches cross-bucket windows with a
    carry walk over ascending buckets.

    Returns (doc_a, doc_b) with doc_a the earlier row in sort order.
    """
    from ocr_ray.stages.grouped import grouped_map

    key_schema = pa.schema(
        [("bucket", pa.int64()), ("key", pa.string()),
         ("doc_id", pa.int64())]
    )

    def keyed(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return key_schema.empty_table()
        from ocr_ray.ops.analysis import normalize_for_fingerprint

        keys, buckets = [], []
        for text in t.column("text").to_pylist():
            k = normalize_for_fingerprint(text)[:key_chars]
            keys.append(k)
            b = int.from_bytes(k.encode("utf-8")[:8].ljust(8, b"\0"), "big")
            buckets.append((b >> 1) >> bucket_shift)
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                "key": pa.array(keys, pa.string()),
                "doc_id": t.column("doc_id").cast(pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            ("kind", pa.int64()),      # 0 = pair, 1 = boundary row
            ("doc_a", pa.int64()),     # pair: docs; boundary: doc_id
            ("doc_b", pa.int64()),
            ("bucket", pa.int64()),    # boundary bookkeeping
            ("pos", pa.int64()),       # position within the bucket run
            ("size", pa.int64()),      # bucket run length
        ]
    )

    def pair_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        bks = block.column("bucket").to_numpy(zero_copy_only=False)
        ends = np.append(starts[1:], n)
        cols = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            run = ids[s:e]
            m = e - s
            # in-window pairs inside the bucket, vectorized per offset
            for d in range(1, min(window, m - 1) + 1):
                cols["doc_a"].extend(run[:-d].tolist())
                cols["doc_b"].extend(run[d:].tolist())
            n_pairs = len(cols["doc_a"]) - len(cols["kind"])
            cols["kind"].extend([0] * n_pairs)
            cols["bucket"].extend([0] * n_pairs)
            cols["pos"].extend([0] * n_pairs)
            cols["size"].extend([0] * n_pairs)
            # boundary rows: first/last `window` rows of the bucket run
            head = list(range(0, min(window, m)))
            tail = [i for i in range(max(0, m - window), m) if i not in head]
            for i in head + tail:
                cols["kind"].append(1)
                cols["doc_a"].append(int(run[i]))
                cols["doc_b"].append(0)
                cols["bucket"].append(int(bks[s]))
                cols["pos"].append(i)
                cols["size"].append(m)
        return pa.Table.from_pydict(cols, schema=out_schema)

    keyed_ds = docs.select_columns(["doc_id", "text"]).map_batches(
        keyed, batch_format="pyarrow"
    )
    mixed = grouped_map(
        keyed_ds, ["bucket"], pair_block, sort_within=["key", "doc_id"]
    ).materialize()

    pairs = _with_schema(
        mixed.map_batches(
            lambda t: (
                t.filter(pc.equal(t["kind"], 0)).select(["doc_a", "doc_b"])
                if t.num_rows and t.num_columns
                else _SNM_PAIR_SCHEMA.empty_table()
            ),
            batch_format="pyarrow",
        ),
        _SNM_PAIR_SCHEMA,
    )

    # bounded driver fold: 2·window rows per PRESENT bucket
    boundary = sorted(
        (
            r
            for r in mixed.map_batches(
                lambda t: (
                    t.filter(pc.equal(t["kind"], 1))
                    if t.num_rows and t.num_columns
                    else out_schema.empty_table()
                ),
                batch_format="pyarrow",
            ).take_all()
        ),
        key=lambda r: (r["bucket"], r["pos"]),
    )
    cross_a, cross_b = [], []
    carry: list[int] = []  # doc_ids of the last ≤window global rows
    cur_bucket = None
    cur_rows: dict[int, int] = {}
    cur_size = 0

    def flush(rows: dict[int, int], size: int) -> None:
        nonlocal carry
        if not rows:
            return
        head = [rows[p] for p in sorted(rows) if p < window]
        for j, doc in enumerate(head):
            for i, c in enumerate(carry):
                if (len(carry) - i) + j <= window:
                    cross_a.append(c)
                    cross_b.append(doc)
        if size <= window:
            merged = carry + [rows[p] for p in sorted(rows)]
            carry = merged[-window:]
        else:
            carry = [rows[p] for p in sorted(rows) if p >= size - window][
                -window:
            ]

    for r in boundary:
        if r["bucket"] != cur_bucket:
            flush(cur_rows, cur_size)
            cur_bucket, cur_rows = r["bucket"], {}
        cur_rows[int(r["pos"])] = int(r["doc_a"])
        cur_size = int(r["size"])
    flush(cur_rows, cur_size)

    if cross_a:
        import ray.data as rd

        cross = rd.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array(cross_a, pa.int64()),
                    "doc_b": pa.array(cross_b, pa.int64()),
                }
            )
        )
        pairs = pairs.union(cross)
    return pairs


def snm_quality_report(docs, window: int = 3):
    """Entity-resolution blocking quality: precision/recall of the
    sorted-neighborhood candidate pairs against exact-duplicate ground
    truth (pairs sharing the content fingerprint). The standard
    blocking-evaluation rollup (pairs completeness / pairs quality in
    the ER literature) — run before trusting a cheap blocker at corpus
    scale.

    One row: (n_candidates, n_true_pairs, n_found, precision_ppm,
    recall_ppm), rates as exact integer millionths (floor).

    Scale design (r03 VERDICT fix — the previous version collected
    every duplicate-cluster row to the driver and built the truth-pair
    SET in an O(sum cluster^2) Python loop, which at web-crawl dup
    rates means billions of driver rows): nothing is collected now —

    - ``n_true`` = sum of C(n_fp, 2) from the keyed fingerprint-count
      aggregate, reduced map-side to one integer per batch;
    - ``n_found`` streams the candidate pairs through two slim hash
      joins against the (doc_id, fingerprint) table and counts
      fp-equal endpoints — a pair is a true duplicate iff its docs
      share the fingerprint, so no materialized pair set is needed;
    - ``n_cand`` rides the same pass.
    """
    from ray.data.aggregate import Count, Sum

    from ocr_ray.ops.joins import adaptive_key_join

    fps = docs.map_batches(_hash_batch, batch_format="pyarrow").materialize()

    # n_true = sum over fingerprint clusters of C(n, 2)
    fp_counts = _with_schema(
        fps.groupby("fingerprint").aggregate(Count(alias_name="n")),
        pa.schema([("fingerprint", pa.string()), ("n", pa.int64())]),
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return pa.table({"p": pa.array([0], pa.int64())})
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"p": pa.array([int((n * (n - 1) // 2).sum())], pa.int64())}
        )

    true_agg = fp_counts.map_batches(
        pair_partial, batch_format="pyarrow"
    ).aggregate(Sum("p", alias_name="p")) or {"p": 0}
    n_true = int(true_agg["p"] or 0)

    # candidates enriched with each endpoint's fingerprint: two slim
    # joins (pair ids + fp strings only — document text never moves)
    cands = sorted_neighborhood_pairs(docs, window=window)
    c1 = adaptive_key_join(
        cands,
        _renamed(fps, {"doc_id": "doc_a", "fingerprint": "fp_a"}),
        on="doc_a",
    )
    c2 = adaptive_key_join(
        c1,
        _renamed(fps, {"doc_id": "doc_b", "fingerprint": "fp_b"}),
        on="doc_b",
    )

    def count_hits(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "fp_a" not in t.column_names:
            return pa.table(
                {"n": pa.array([0], pa.int64()),
                 "hit": pa.array([0], pa.int64())}
            )
        import pyarrow.compute as pc

        hits = pc.sum(
            pc.cast(pc.equal(t.column("fp_a"), t.column("fp_b")), pa.int64())
        ).as_py() or 0
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "hit": pa.array([int(hits)], pa.int64()),
            }
        )

    agg = c2.map_batches(count_hits, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("hit", alias_name="hit")
    )
    agg = agg or {"n": 0, "hit": 0}
    n_cand = int(agg["n"] or 0)
    n_found = int(agg["hit"] or 0)
    return pa.table(
        {
            "n_candidates": pa.array([n_cand], pa.int64()),
            "n_true_pairs": pa.array([n_true], pa.int64()),
            "n_found": pa.array([n_found], pa.int64()),
            "precision_ppm": pa.array(
                [(n_found * 1_000_000) // n_cand if n_cand else 0],
                pa.int64(),
            ),
            "recall_ppm": pa.array(
                [(n_found * 1_000_000) // n_true if n_true else 0],
                pa.int64(),
            ),
        }
    )


def snm_quality_report_sql(fp_sql: str, window: int = 3,
                           key_chars: int = 24) -> str:
    """SQL replay: the SNM window join, the fingerprint-cluster truth
    pairs, and the same integer-millionth floors."""
    return (
        "WITH k AS (\n"
        " SELECT doc_id, substr(trim(regexp_replace(lower(text),"
        f" '\\s+', ' ', 'g')), 1, {key_chars}) AS key\n"
        " FROM documents\n"
        "), o AS (\n"
        " SELECT doc_id, ROW_NUMBER() OVER (ORDER BY key, doc_id) AS rn"
        " FROM k\n"
        "), snm AS (\n"
        " SELECT LEAST(a.doc_id, b.doc_id) AS da,"
        " GREATEST(a.doc_id, b.doc_id) AS db\n"
        f" FROM o a JOIN o b ON b.rn - a.rn BETWEEN 1 AND {window}\n"
        "), fp AS (\n"
        f" SELECT doc_id, {fp_sql} AS fp FROM documents\n"
        "), truth AS (\n"
        " SELECT x.doc_id AS da, y.doc_id AS db\n"
        " FROM fp x JOIN fp y ON x.fp = y.fp AND x.doc_id < y.doc_id\n"
        "), m AS (\n"
        " SELECT (SELECT COUNT(*) FROM snm) AS n_cand,\n"
        "  (SELECT COUNT(*) FROM truth) AS n_true,\n"
        "  (SELECT COUNT(*) FROM snm JOIN truth USING (da, db)) AS n_found\n"
        ")\n"
        "SELECT CAST(n_cand AS BIGINT) AS n_candidates,\n"
        " CAST(n_true AS BIGINT) AS n_true_pairs,\n"
        " CAST(n_found AS BIGINT) AS n_found,\n"
        " CAST(CASE WHEN n_cand = 0 THEN 0"
        " ELSE (n_found * 1000000) // n_cand END AS BIGINT)"
        " AS precision_ppm,\n"
        " CAST(CASE WHEN n_true = 0 THEN 0"
        " ELSE (n_found * 1000000) // n_true END AS BIGINT)"
        " AS recall_ppm\n"
        "FROM m"
    )



# ------------------------------------------------ LSH parameter planning

DEFAULT_LSH_CONFIGS = ((4, 16), (8, 8), (16, 4), (32, 2))


def lsh_candidate_planner(docs, configs=DEFAULT_LSH_CONFIGS,
                          threshold: float = 0.5,
                          shingle_n: int = 3, max_df: int = 256):
    """MinHash-LSH banding planner, tied to THIS corpus: for each
    candidate (bands, rows_per_band) split of a 64-perm signature,
    the expected number of LSH candidate pairs and the expected
    capture of true near-dups (exact jaccard ≥ ``threshold``), using
    the textbook collision curve p(j) = 1 − (1 − j^r)^b evaluated at
    every co-occurring pair's EXACT jaccard (the proven inverted-index
    machinery — one slim shuffle). This is the table that picks (b, r)
    before committing a 100 TB dedup run: more bands = more recall,
    more candidate volume to verify.

    Float discipline: p(j) is evaluated with LEFT-FOLD multiplication
    chains (x^r as ((x·x)·x)… — NOT libm pow, whose last-ulp behavior
    differs between numpy and DuckDB) and quantized per pair as
    floor(p·1e6) BEFORE the integer sum, so both engines add identical
    integers in any order.

    Output per config: (bands, rows_per_band, n_pairs,
    exp_candidates_micro, n_true_pairs, exp_true_found_micro)."""
    from ray.data.aggregate import Sum

    cfgs = [(int(b), int(r)) for b, r in configs]
    part_schema = pa.schema(
        [
            ("bands", pa.int64()),
            ("rows_per_band", pa.int64()),
            ("n_pairs", pa.int64()),
            ("exp_candidates_micro", pa.int64()),
            ("n_true_pairs", pa.int64()),
            ("exp_true_found_micro", pa.int64()),
        ]
    )
    counted = _ngram_cooccur_counts(docs, shingle_n, max_df)

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "intersection" not in t.column_names:
            return part_schema.empty_table()
        inter = (
            t.column("intersection")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        union = (
            t.column("size_a").to_numpy(zero_copy_only=False)
            + t.column("size_b").to_numpy(zero_copy_only=False)
            - inter
        )
        j = inter / np.maximum(union, 1)
        true = j >= threshold
        rows = {k: [] for k in part_schema.names}
        for b, r in cfgs:
            jr = j.copy()
            for _ in range(r - 1):  # left-fold power, mirrored in SQL
                jr = jr * j
            q = 1.0 - jr
            qb = q.copy()
            for _ in range(b - 1):
                qb = qb * q
            pm = np.floor((1.0 - qb) * 1e6).astype(np.int64)
            rows["bands"].append(b)
            rows["rows_per_band"].append(r)
            rows["n_pairs"].append(len(j))
            rows["exp_candidates_micro"].append(int(pm.sum()))
            rows["n_true_pairs"].append(int(true.sum()))
            rows["exp_true_found_micro"].append(int(pm[true].sum()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    agg = (
        _with_schema(
            counted.map_batches(partials, batch_format="pyarrow"),
            part_schema,
        )
        .groupby(["bands", "rows_per_band"])
        .aggregate(
            Sum("n_pairs", alias_name="n_pairs"),
            Sum("exp_candidates_micro", alias_name="exp_candidates_micro"),
            Sum("n_true_pairs", alias_name="n_true_pairs"),
            Sum("exp_true_found_micro", alias_name="exp_true_found_micro"),
        )
    ).take_all()  # bounded: len(configs) rows
    by_cfg = {(int(r["bands"]), int(r["rows_per_band"])): r for r in agg}
    out = {k: [] for k in part_schema.names}
    for b, r in cfgs:  # every config emits a row even on empty corpora
        row = by_cfg.get((b, r))
        out["bands"].append(b)
        out["rows_per_band"].append(r)
        for k in part_schema.names[2:]:
            out[k].append(int(row[k]) if row else 0)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def _fold_mul_sql(expr: str, n: int) -> str:
    """((expr * expr) * expr)… — the left-fold product chain shared
    with the numpy side (see lsh_candidate_planner float discipline)."""
    out = expr
    for _ in range(n - 1):
        out = f"({out} * {expr})"
    return out


def lsh_candidate_planner_sql(shingles_body: str,
                              configs=DEFAULT_LSH_CONFIGS,
                              threshold: float = 0.5,
                              max_df: int = 256) -> str:
    """SQL replay over the proven shingles fragment: exact pair
    jaccards, then per config the identical left-fold collision curve
    quantized to integer millionths before summing."""
    selects = []
    for b, r in configs:
        jr = _fold_mul_sql("j", int(r))
        p = f"(1.0 - {_fold_mul_sql(f'(1.0 - {jr})', int(b))})"
        pm = f"CAST(floor({p} * 1000000.0) AS BIGINT)"
        selects.append(
            f"SELECT CAST({int(b)} AS BIGINT) AS bands,"
            f" CAST({int(r)} AS BIGINT) AS rows_per_band,\n"
            " CAST(COUNT(*) AS BIGINT) AS n_pairs,\n"
            f" CAST(COALESCE(SUM({pm}), 0) AS BIGINT)"
            " AS exp_candidates_micro,\n"
            f" CAST(COALESCE(SUM(CASE WHEN j >= {threshold} THEN 1"
            " ELSE 0 END), 0) AS BIGINT) AS n_true_pairs,\n"
            f" CAST(COALESCE(SUM(CASE WHEN j >= {threshold} THEN {pm}"
            " ELSE 0 END), 0) AS BIGINT) AS exp_true_found_micro\n"
            "FROM pairs"
        )
    return (
        "WITH " + shingles_body + ",\n"
        "df AS (SELECT shingle, COUNT(*) AS dfc FROM sh"
        " GROUP BY shingle),\n"
        "inter AS (\n"
        " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,"
        " CAST(COUNT(*) AS BIGINT) AS intersection\n"
        " FROM sh a JOIN sh b USING (shingle) JOIN df USING (shingle)\n"
        f" WHERE a.doc_id < b.doc_id AND df.dfc <= {max_df}"
        " GROUP BY 1, 2\n"
        "), pairs AS (\n"
        " SELECT CAST(intersection AS DOUBLE)"
        " / CAST(sa.sz + sb.sz - intersection AS DOUBLE) AS j\n"
        " FROM inter JOIN sizes sa ON sa.doc_id = inter.doc_a\n"
        " JOIN sizes sb ON sb.doc_id = inter.doc_b\n"
        ")\n"
        + "\nUNION ALL\n".join(selects)
    )


def shingle_novelty(docs, shingle_n: int = 3):
    """Temporal novelty score per document: the fraction of its
    distinct word shingles that it is the FIRST document (by doc_id)
    to contain — the streaming "how much genuinely new content does
    each arriving doc add" signal a crawl-ingest pipeline tracks
    (documents whose novelty drops toward 0 are recombinations of
    already-seen text even when no single pair crosses a near-dup
    threshold).

    Scale shape: shingle rows (slim) hash-partition by shingle once;
    per group the min doc_id emits ONE (doc_id, novel=1) row; the
    denominator rides the same rows as per-batch (doc_id, count)
    partials. Numerator and denominator then meet in a single keyed
    sum over a tagged union — no join. Docs with zero words emit no
    rows (no shingles → novelty undefined), mirroring the oracle's
    sizes CTE.

    Output: (doc_id, n_shingles, n_novel, novelty_ppm) with
    novelty_ppm = n_novel·1e6 // n_shingles (exact integer floor)."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    rows = docs.map_batches(
        _shingle_rows_factory(shingle_n), batch_format="pyarrow"
    ).materialize()  # slim: one row per (doc, distinct shingle)

    pair_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_shingles", pa.int64()),
            ("n_novel", pa.int64()),
        ]
    )

    def first_seen(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return pair_schema.empty_table()
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        firsts = ids[starts]  # min doc per shingle (sorted within)
        uniq, cnt = np.unique(firsts, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "n_shingles": pa.array(
                    np.zeros(len(uniq), np.int64), pa.int64()
                ),
                "n_novel": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    novel = grouped_map(
        rows, ["shingle"], first_seen, sort_within=["doc_id"]
    )

    def totals(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return pair_schema.empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "n_shingles": pa.array(cnt.astype(np.int64), pa.int64()),
                "n_novel": pa.array(
                    np.zeros(len(uniq), np.int64), pa.int64()
                ),
            }
        )

    denom = rows.map_batches(totals, batch_format="pyarrow")
    agg = _with_schema(
        denom.union(novel)
        .groupby("doc_id")
        .aggregate(
            Sum("n_shingles", alias_name="n_shingles"),
            Sum("n_novel", alias_name="n_novel"),
        ),
        pair_schema,
    )

    def finalize(t: pa.Table) -> pa.Table:
        out_schema = pair_schema.append(
            pa.field("novelty_ppm", pa.int64())
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        ns = t.column("n_shingles").to_numpy(zero_copy_only=False)
        nv = t.column("n_novel").to_numpy(zero_copy_only=False)
        return t.append_column(
            "novelty_ppm",
            pa.array(nv * 1_000_000 // np.maximum(ns, 1), pa.int64()),
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def shingle_novelty_sql(shingles_body: str) -> str:
    return (
        "WITH " + shingles_body + ",\n"
        "firsts AS (SELECT shingle, MIN(doc_id) AS doc_id FROM sh"
        " GROUP BY shingle),\n"
        "novel AS (SELECT doc_id, COUNT(*) AS n_novel FROM firsts"
        " GROUP BY doc_id)\n"
        "SELECT s.doc_id, CAST(s.sz AS BIGINT) AS n_shingles,\n"
        " CAST(COALESCE(n.n_novel, 0) AS BIGINT) AS n_novel,\n"
        " CAST(COALESCE(n.n_novel, 0) * 1000000 // s.sz AS BIGINT)"
        " AS novelty_ppm\n"
        "FROM sizes s LEFT JOIN novel n USING (doc_id)"
    )


def dup_rate_timeline(docs, n_buckets: int = 10):
    """Duplicate-arrival rate over ingest order: documents are bucketed
    by doc_id range into ``n_buckets`` equal spans and each bucket
    reports how many of its docs are exact duplicates of an EARLIER
    doc (fingerprint first seen at a smaller doc_id) — the dashboard
    curve that tells an ingest pipeline whether duplication is
    accelerating as the crawl ages (rising curve → diminishing novel
    yield, time to tighten frontier policies).

    Scale shape: fingerprint rows hash-partition once; per fp group
    every non-min doc emits a dup marker; markers and totals fold in
    per-batch partials keyed by the integer bucket
    ``(doc_id − min_id) · n_buckets // (max_id − min_id + 1)`` (exact
    integer arithmetic, min/max from one streaming aggregate).

    Output: (bucket, n_docs, n_dups, dup_ppm)."""
    from ray.data.aggregate import Max, Min, Sum

    from ocr_ray.stages.grouped import grouped_map

    fps = docs.map_batches(_hash_batch, batch_format="pyarrow").materialize()
    bounds = fps.aggregate(
        Min("doc_id", alias_name="lo"), Max("doc_id", alias_name="hi")
    ) or {"lo": 0, "hi": 0}
    lo = int(bounds["lo"] or 0)
    hi = int(bounds["hi"] or 0)
    span = hi - lo + 1

    part_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_dups", pa.int64()),
        ]
    )

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        return (ids.astype(np.int64) - lo) * n_buckets // span

    def dup_partials(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        is_first = np.zeros(n, bool)
        is_first[starts] = True  # sorted within group by doc_id
        dup_ids = ids[~is_first]
        if len(dup_ids) == 0:
            return part_schema.empty_table()
        b = bucket_of(dup_ids)
        uniq, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uniq, pa.int64()),
                "n_docs": pa.array(np.zeros(len(uniq), np.int64)),
                "n_dups": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    dups = grouped_map(
        fps, ["fingerprint"], dup_partials, sort_within=["doc_id"]
    )

    def totals(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return part_schema.empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        b = bucket_of(ids)
        uniq, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uniq, pa.int64()),
                "n_docs": pa.array(cnt.astype(np.int64), pa.int64()),
                "n_dups": pa.array(np.zeros(len(uniq), np.int64)),
            }
        )

    agg = _with_schema(
        fps.map_batches(totals, batch_format="pyarrow")
        .union(dups)
        .groupby("bucket")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_dups", alias_name="n_dups"),
        ),
        part_schema,
    )

    def finalize(t: pa.Table) -> pa.Table:
        out_schema = part_schema.append(pa.field("dup_ppm", pa.int64()))
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        nd = t.column("n_docs").to_numpy(zero_copy_only=False)
        du = t.column("n_dups").to_numpy(zero_copy_only=False)
        return t.append_column(
            "dup_ppm",
            pa.array(du * 1_000_000 // np.maximum(nd, 1), pa.int64()),
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def dup_rate_timeline_sql(fp_sql: str, n_buckets: int = 10) -> str:
    return (
        "WITH fp AS (\n"
        f" SELECT doc_id, {fp_sql} AS fp FROM documents\n"
        "), bounds AS (\n"
        " SELECT MIN(doc_id) AS lo, MAX(doc_id) AS hi FROM fp\n"
        "), firsts AS (\n"
        " SELECT fp AS f, MIN(doc_id) AS first_doc FROM fp GROUP BY fp\n"
        "), flagged AS (\n"
        " SELECT fp.doc_id,\n"
        "  CASE WHEN fp.doc_id > firsts.first_doc THEN 1 ELSE 0 END"
        " AS is_dup,\n"
        f"  (fp.doc_id - bounds.lo) * {n_buckets}"
        " // (bounds.hi - bounds.lo + 1) AS bucket\n"
        " FROM fp JOIN firsts ON firsts.f = fp.fp CROSS JOIN bounds\n"
        ")\n"
        "SELECT CAST(bucket AS BIGINT) AS bucket,\n"
        " CAST(COUNT(*) AS BIGINT) AS n_docs,\n"
        " CAST(SUM(is_dup) AS BIGINT) AS n_dups,\n"
        " CAST(SUM(is_dup) * 1000000 // COUNT(*) AS BIGINT) AS dup_ppm\n"
        "FROM flagged GROUP BY bucket"
    )


def near_dup_cluster_profile(docs, threshold: float = 0.5,
                             shingle_n: int = 3, max_df: int = 256):
    """Shape report of the near-duplicate clusters: per connected
    component of the exact-jaccard pair graph, its size, the doc_id
    span (how far apart in ingest order its members arrived — a wide
    span means recurring boilerplate rather than a local double-crawl)
    and the member length stats. The triage view that decides whether
    near-dup clusters are template noise (huge, wide-span, short) or
    genuine re-posts (small, narrow-span).

    Scale shape: components over slim pairs; ONE slim join of the
    component rows against (doc_id, n_chars) metadata; per-component
    rollup is a keyed aggregate bounded by component membership.

    Output: (component, size, id_span, min_chars, max_chars) sorted
    by size DESC, component ASC."""
    from ray.data.aggregate import Count, Max, Min

    from ocr_ray.ops.joins import adaptive_key_join

    pairs = ngram_jaccard_pairs(
        docs, shingle_n=shingle_n, threshold=threshold, max_df=max_df
    )
    comp = connected_components(pairs)
    meta = docs.map_batches(
        lambda t: pa.table(
            {
                "node": t.column("doc_id").cast(pa.int64()),
                "n_chars": pc.utf8_length(
                    pc.coalesce(t.column("text"), pa.scalar(""))
                ).cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = adaptive_key_join(comp, meta, on="node")
    agg = _with_schema(
        joined.groupby("label").aggregate(
            Count(alias_name="size"),
            Min("node", alias_name="min_id"),
            Max("node", alias_name="max_id"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        ),
        pa.schema(
            [
                ("label", pa.int64()),
                ("size", pa.int64()),
                ("min_id", pa.int64()),
                ("max_id", pa.int64()),
                ("min_chars", pa.int64()),
                ("max_chars", pa.int64()),
            ]
        ),
    )

    def finalize(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("component", pa.int64()),
                ("size", pa.int64()),
                ("id_span", pa.int64()),
                ("min_chars", pa.int64()),
                ("max_chars", pa.int64()),
            ]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        return pa.table(
            {
                "component": t.column("label"),
                "size": t.column("size").cast(pa.int64()),
                "id_span": pc.subtract(
                    t.column("max_id"), t.column("min_id")
                ),
                "min_chars": t.column("min_chars").cast(pa.int64()),
                "max_chars": t.column("max_chars").cast(pa.int64()),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow").sort(
        ["size", "component"], descending=[True, False]
    )


def near_dup_cluster_profile_sql(shingles_body: str,
                                 threshold: float = 0.5,
                                 max_df: int = 256) -> str:
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
        ")\n"
        "SELECT CAST(component AS BIGINT) AS component,\n"
        " CAST(COUNT(*) AS BIGINT) AS size,\n"
        " CAST(MAX(c.node) - MIN(c.node) AS BIGINT) AS id_span,\n"
        " CAST(MIN(length(d.text)) AS BIGINT) AS min_chars,\n"
        " CAST(MAX(length(d.text)) AS BIGINT) AS max_chars\n"
        "FROM comp c JOIN documents d ON d.doc_id = c.node\n"
        "GROUP BY component ORDER BY size DESC, component ASC"
    )


def dedup_yield_curve(docs, k: int = 20):
    """Dedup ROI planning curve: the top-``k`` exact-duplicate clusters
    by redundant token mass, with the cumulative tokens a dedup pass
    recovers by processing clusters in that order — the prioritization
    a 100 TB dedup run uses when it cannot afford to process every
    cluster at once (biggest boilerplate first).

    tokens_saved = (n_copies − 1) · n_tokens(keeper); n_tokens is
    fingerprint-invariant so it rides the keyed aggregate. Cluster
    rows are slim; only the top-k reach the driver for the bounded
    cumulative fold.

    Output: (rank, keeper_doc, n_copies, tokens_saved,
    cum_tokens_saved), rank 1-based by (tokens_saved DESC,
    keeper_doc ASC)."""
    import pyarrow.compute as pc2
    from ray.data.aggregate import Count, Min

    def fp_tok(t: pa.Table) -> pa.Table:
        toks = pc2.count_substring_regex(
            pc2.coalesce(t.column("text"), pa.scalar("")), pattern=r"\S+"
        ).cast(pa.int64())
        fps = [
            hashlib.md5(
                normalize_for_fingerprint(x).encode("utf-8")
            ).hexdigest()
            for x in t.column("text").to_pylist()
        ]
        return pa.table(
            {
                "fingerprint": pa.array(fps, pa.string()),
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "n_tokens": toks,
            }
        )

    clusters = _with_schema(
        docs.map_batches(fp_tok, batch_format="pyarrow")
        .groupby(["fingerprint", "n_tokens"])
        .aggregate(
            Min("doc_id", alias_name="keeper_doc"),
            Count(alias_name="n_copies"),
        ),
        pa.schema(
            [
                ("fingerprint", pa.string()),
                ("n_tokens", pa.int64()),
                ("keeper_doc", pa.int64()),
                ("n_copies", pa.int64()),
            ]
        ),
    )

    def saved(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("keeper_doc", pa.int64()),
                ("n_copies", pa.int64()),
                ("tokens_saved", pa.int64()),
            ]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        t = t.filter(pc.greater(t.column("n_copies"), 1))
        if t.num_rows == 0:
            return out_schema.empty_table()
        return pa.table(
            {
                "keeper_doc": t.column("keeper_doc").cast(pa.int64()),
                "n_copies": t.column("n_copies").cast(pa.int64()),
                "tokens_saved": pc.multiply(
                    pc.subtract(
                        t.column("n_copies").cast(pa.int64()), 1
                    ),
                    t.column("n_tokens").cast(pa.int64()),
                ),
            }
        )

    top = (
        clusters.map_batches(saved, batch_format="pyarrow")
        .sort(["tokens_saved", "keeper_doc"], descending=[True, False])
        .limit(k)
        .take_all()
    )  # bounded: k rows
    out = {
        "rank": [], "keeper_doc": [], "n_copies": [],
        "tokens_saved": [], "cum_tokens_saved": [],
    }
    acc = 0
    for i, r in enumerate(top):
        acc += int(r["tokens_saved"])
        out["rank"].append(i + 1)
        out["keeper_doc"].append(int(r["keeper_doc"]))
        out["n_copies"].append(int(r["n_copies"]))
        out["tokens_saved"].append(int(r["tokens_saved"]))
        out["cum_tokens_saved"].append(acc)
    return pa.table({kk: pa.array(v, pa.int64()) for kk, v in out.items()})


def dedup_yield_curve_sql(fp_sql: str, k: int = 20) -> str:
    return (
        "WITH f AS (\n"
        f" SELECT doc_id, {fp_sql} AS fp,\n"
        "  CAST(len(regexp_extract_all(COALESCE(text, ''), '\\S+'))"
        " AS BIGINT) AS n_tokens\n"
        " FROM documents\n"
        "), c AS (\n"
        " SELECT fp, n_tokens, MIN(doc_id) AS keeper_doc,"
        " COUNT(*) AS n_copies\n"
        " FROM f GROUP BY fp, n_tokens\n"
        "), s AS (\n"
        " SELECT keeper_doc, CAST(n_copies AS BIGINT) AS n_copies,\n"
        "  CAST((n_copies - 1) * n_tokens AS BIGINT) AS tokens_saved\n"
        " FROM c WHERE n_copies > 1\n"
        "), r AS (\n"
        " SELECT *, ROW_NUMBER() OVER"
        " (ORDER BY tokens_saved DESC, keeper_doc ASC) AS rank\n"
        " FROM s\n"
        ")\n"
        "SELECT CAST(rank AS BIGINT) AS rank, keeper_doc, n_copies,"
        " tokens_saved,\n"
        " CAST(SUM(tokens_saved) OVER (ORDER BY rank\n"
        "  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)"
        " AS cum_tokens_saved\n"
        f"FROM r WHERE rank <= {k} ORDER BY rank"
    )


def source_dedup_matrix(docs):
    """Cross-source EXACT-duplicate matrix: for every source pair
    (a ≤ b), how many duplicate-document co-occurrences link them —
    n_a·n_b for a ≠ b and C(n, 2) within a source, summed over
    fingerprint clusters (the whole-document analogue of the
    winnowing-fragment cross_source_overlap_matrix). This is the map
    that decides WHICH sources to dedup against each other first when
    a full cross-corpus pass cannot run at once.

    ``docs`` needs (doc_id, text, source). Scale shape: one fingerprint
    scan → slim (fp, source) rows → hash partition by fp → per-cluster
    bounded pair emission (cluster source-multisets are tiny) → keyed
    sum over ≤ |sources|² rows.

    Output: (source_a, source_b, n_cooccurrences), only nonzero rows."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def fp_rows(t: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(
                normalize_for_fingerprint(x).encode("utf-8")
            ).hexdigest()
            for x in t.column("text").to_pylist()
        ]
        return pa.table(
            {
                "fingerprint": pa.array(fps, pa.string()),
                "source": t.column("source"),
            }
        )

    rows = docs.map_batches(fp_rows, batch_format="pyarrow")

    pair_schema = pa.schema(
        [
            ("source_a", pa.string()),
            ("source_b", pa.string()),
            ("c", pa.int64()),
        ]
    )

    def cluster_pairs(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return pair_schema.empty_table()
        srcs = block.column("source").to_pylist()
        ends = np.append(starts[1:], n)
        out_a, out_b, out_c = [], [], []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue  # singleton fingerprint: no duplication
            counts: dict[str, int] = {}
            for x in srcs[s:e]:
                counts[x] = counts.get(x, 0) + 1
            keys = sorted(counts)
            for i, a in enumerate(keys):
                na = counts[a]
                if na >= 2:
                    out_a.append(a)
                    out_b.append(a)
                    out_c.append(na * (na - 1) // 2)
                for b in keys[i + 1:]:
                    out_a.append(a)
                    out_b.append(b)
                    out_c.append(na * counts[b])
        return pa.table(
            {
                "source_a": pa.array(out_a, pa.string()),
                "source_b": pa.array(out_b, pa.string()),
                "c": pa.array(out_c, pa.int64()),
            }
        )

    return _with_schema(
        grouped_map(rows, ["fingerprint"], cluster_pairs)
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("c", alias_name="n_cooccurrences")),
        pa.schema(
            [
                ("source_a", pa.string()),
                ("source_b", pa.string()),
                ("n_cooccurrences", pa.int64()),
            ]
        ),
    )


def source_dedup_matrix_sql(fp_sql: str,
                            source_expr: str = "documents") -> str:
    return (
        "WITH f AS (\n"
        f" SELECT {fp_sql} AS fp, source FROM {source_expr}\n"
        "), g AS (\n"
        " SELECT fp, source, COUNT(*) AS n FROM f GROUP BY 1, 2\n"
        "), sized AS (\n"
        " SELECT fp FROM f GROUP BY fp HAVING COUNT(*) >= 2\n"
        "), p AS (\n"
        " SELECT a.source AS source_a, b.source AS source_b,\n"
        "  CASE WHEN a.source = b.source THEN a.n * (a.n - 1) // 2\n"
        "       ELSE a.n * b.n END AS c\n"
        " FROM g a JOIN g b ON a.fp = b.fp AND a.source <= b.source\n"
        " JOIN sized s ON s.fp = a.fp\n"
        ")\n"
        "SELECT source_a, source_b,"
        " CAST(SUM(c) AS BIGINT) AS n_cooccurrences\n"
        "FROM p GROUP BY 1, 2 HAVING SUM(c) > 0"
    )


def minhash_band_skew_report(docs, num_perm: int = 64, bands: int = 16,
                             max_bucket: int = 8192):
    """Hot-bucket diagnostics for the MinHash-LSH banding: the
    distribution of same-(band, band-signature) bucket sizes — the
    quantity that decides ``max_bucket`` before a 100 TB run, because a
    single boilerplate bucket of a million docs turns the verify stage
    quadratic. Reports per size-class (log2 buckets): how many LSH
    buckets land there, how many candidate PAIRS they would emit
    (Σ C(n,2) — the verify-stage cost), and how many exceed
    ``max_bucket`` (the rep-pair degradation trigger).

    Scale shape: rides the proven signature/banding machinery — slim
    (band, signature-tuple) rows, one keyed count, then a tiny
    histogram fold over bucket-size classes.

    Output: (size_log2, n_buckets, n_docs, n_pairs, n_overflow)."""
    from ray.data.aggregate import Count, Sum

    sigs = minhash_signatures(docs, num_perm=num_perm)
    rows_per_band = num_perm // bands

    def band_tuple_rows(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("band", pa.int64()), ("key", pa.string())]
        )
        if t.num_rows == 0 or "signature" not in t.column_names:
            return schema.empty_table()
        raw = t.column("signature").to_pylist()
        sig = np.frombuffer(b"".join(raw), np.uint64).reshape(
            len(raw), -1
        )
        out_b, out_k = [], []
        for b in range(bands):
            seg = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
            for row in seg:
                out_b.append(b)
                out_k.append(",".join(str(int(x)) for x in row))
        return pa.table(
            {
                "band": pa.array(out_b, pa.int64()),
                "key": pa.array(out_k, pa.string()),
            }
        )

    buckets = _with_schema(
        sigs.map_batches(band_tuple_rows, batch_format="pyarrow")
        .groupby(["band", "key"])
        .aggregate(Count(alias_name="n")),
        pa.schema(
            [("band", pa.int64()), ("key", pa.string()),
             ("n", pa.int64())]
        ),
    )

    part_schema = pa.schema(
        [
            ("size_log2", pa.int64()),
            ("n_buckets", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_pairs", pa.int64()),
            ("n_overflow", pa.int64()),
        ]
    )

    def hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n" not in t.column_names:
            return part_schema.empty_table()
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        # size class = floor(log2(n)) as integer bit length - 1
        cls = np.array([int(x).bit_length() - 1 for x in n], np.int64)
        uniq, inv = np.unique(cls, return_inverse=True)
        nb = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        nd = np.zeros(len(uniq), np.int64)
        np.add.at(nd, inv, n)
        npair = np.zeros(len(uniq), np.int64)
        np.add.at(npair, inv, n * (n - 1) // 2)
        nov = np.zeros(len(uniq), np.int64)
        np.add.at(nov, inv, (n > max_bucket).astype(np.int64))
        return pa.table(
            {
                "size_log2": pa.array(uniq, pa.int64()),
                "n_buckets": pa.array(nb, pa.int64()),
                "n_docs": pa.array(nd, pa.int64()),
                "n_pairs": pa.array(npair, pa.int64()),
                "n_overflow": pa.array(nov, pa.int64()),
            }
        )

    return _with_schema(
        buckets.map_batches(hist, batch_format="pyarrow"), part_schema
    ).groupby("size_log2").aggregate(
        Sum("n_buckets", alias_name="n_buckets"),
        Sum("n_docs", alias_name="n_docs"),
        Sum("n_pairs", alias_name="n_pairs"),
        Sum("n_overflow", alias_name="n_overflow"),
    )
