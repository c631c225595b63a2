"""HyperLogLog and Count-Min sketches, built to be SQL-reproducible.

Standard HLL (Flajolet et al.) with md5-derived hashes so a DuckDB
oracle rebuilds the EXACT same registers: per key, ``bucket`` = low 8
bits of the first md5 half, ``w`` = the remaining 56 bits, ``rho`` =
position of the leftmost 1-bit of ``w`` (57 when zero). The register
table (bucket, max_rho) is integer-exact — the oracle checks it
bit-for-bit, which is a far stronger gate than comparing a single
floating estimate. The estimate itself avoids float-accumulation-order
sensitivity by summing ``2^(57 − rho)`` as exact integers and doing ONE
double division at the end.

Distributed shape: map-side partial registers per batch (at most
``m`` = 256 rows leave each batch regardless of input size) →
groupby-max → 256 rows total. The canonical sketch pattern: constant
shuffle volume at any corpus size, registers mergeable across shards.

Also kept, reached only from their own tests since the events/TPC-H
queries that used them were removed (left for a later deletion batch):
``hll_registers``, ``hll_distinct``, ``histogram_quantiles``,
``bloom_semi_join``, ``kmv_registers``, ``kmv_distinct``,
``kmv_group_registers``, ``kmv_overlap``, ``hll_distinct_incremental``,
``mg_summary``, ``mg_violations``, ``quantile_sketch``,
``quantile_sketch_violations``.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

M = 256  # registers (2^8)
_ALPHA = 0.7213 / (1.0 + 1.079 / M)
_MAX_RHO = 57  # 56-bit w → rho in [1, 57]


def _hash_parts(key: str) -> tuple[int, int]:
    d = hashlib.md5(key.encode("utf-8")).hexdigest()
    hi, lo = int(d[:8], 16), int(d[8:16], 16)
    bucket = hi & (M - 1)
    w = ((hi >> 8) << 32) | lo  # 24 + 32 = 56 bits
    return bucket, w


def _rho(w: int) -> int:
    return _MAX_RHO if w == 0 else _MAX_RHO - w.bit_length()


def hll_registers(ds, key_column: str):
    """Dataset → (bucket int64, max_rho int64), ≤ M rows."""
    from ray.data.aggregate import Max

    def partials(t: pa.Table) -> pa.Table:
        regs: dict[int, int] = {}
        for v in t.column(key_column).to_pylist():
            bucket, w = _hash_parts(str(v))
            r = _rho(w)
            if r > regs.get(bucket, 0):
                regs[bucket] = r
        items = sorted(regs.items())
        return pa.table(
            {
                "bucket": pa.array([b for b, _ in items], pa.int64()),
                "max_rho": pa.array([r for _, r in items], pa.int64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Max("max_rho", alias_name="max_rho"))
    )


def hll_estimate_from_registers(rows: list[dict]) -> float:
    """Registers → cardinality estimate. Exact-integer inner sum
    (Σ 2^(57−rho), absent buckets count as rho=0), one double division,
    linear-counting small-range correction — formula mirrored verbatim
    in the SQL oracle."""
    regs = {int(r["bucket"]) % M: int(r["max_rho"]) for r in rows}
    s_int = sum(1 << (_MAX_RHO - regs.get(b, 0)) for b in range(M))
    estimate = _ALPHA * M * M * float(1 << _MAX_RHO) / float(s_int)
    zeros = M - len([b for b in regs if regs[b] > 0])
    if estimate <= 2.5 * M and zeros > 0:
        estimate = M * math.log(M / zeros)
    return estimate


def hll_distinct(ds, key_column: str):
    """One-row (hll_estimate double ROUND 2, n_registers int64) — the
    register pull to the driver is ≤ M rows by construction."""
    rows = hll_registers(ds, key_column).take_all()
    est = hll_estimate_from_registers(rows)
    return pa.table(
        {
            "hll_estimate": pa.array([round(est, 2)], pa.float64()),
            "n_registers": pa.array([len(rows)], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005), SQL-reproducible like
# the HLL above: the D row-hashes are the four disjoint 32-bit words of
# md5(token), so a DuckDB oracle rebuilds the register table bit-for-bit
# and replays the min-over-rows estimate. Distributed shape: per-batch
# partial registers (≤ D × W slim rows leave a batch regardless of input
# size) → groupby-sum — constant shuffle volume, registers mergeable
# across shards, the canonical sketch pattern.

CMS_D = 4  # hash rows (md5 yields exactly four 32-bit words)
CMS_W = 256  # columns per row (power of two: col = word & (W-1))

def _cms_cols(token: str) -> list[int]:
    d = hashlib.md5(token.encode("utf-8")).hexdigest()
    return [int(d[8 * r : 8 * r + 8], 16) & (CMS_W - 1) for r in range(CMS_D)]


def _cms_partials(batch: pa.Table) -> pa.Table:
    from collections import Counter

    from ocr_ray.ops.analysis import _WORD_RE

    counts: Counter[str] = Counter()
    for text in batch.column("text").to_pylist():
        counts.update(_WORD_RE.findall((text or "").lower()))
    regs: Counter[tuple[int, int]] = Counter()
    for token, c in counts.items():
        for r, col in enumerate(_cms_cols(token)):
            regs[(r, col)] += c
    items = sorted(regs.items())
    return pa.table(
        {
            "row": pa.array([k[0] for k, _ in items], pa.int64()),
            "col": pa.array([k[1] for k, _ in items], pa.int64()),
            "count": pa.array([v for _, v in items], pa.int64()),
        }
    )


def cms_registers(docs):
    """(row, col, count) — the Count-Min register table over the token
    multiset of ``docs`` (needs text); ≤ D × W rows total."""
    from ray.data.aggregate import Sum

    return (
        docs.map_batches(_cms_partials, batch_format="pyarrow")
        .groupby(["row", "col"])
        .aggregate(Sum("count", alias_name="count"))
    )


def cms_heavy_hitters(docs, k: int = 25):
    """(word, exact_count, cms_estimate) for the top-``k`` tokens by
    exact global count (ties broken by word ASC — frozen, SQL-matched).
    The CMS estimate is min over the D probed registers; estimate ≥
    exact always (one-sided error), equality when no collisions.

    Driver-side materializations are bounded by construction: the
    register table (≤ D × W rows) and the k-row top-k. The corpus is
    scanned twice (exact counts, registers) — acceptable for a
    diagnostics query; production top-k-without-exact-counts would pair
    the single-scan ``cms_registers`` with a candidate stream."""
    from ray.data.aggregate import Sum

    exact = (
        docs.map_batches(_token_count_partials, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("partial", alias_name="exact_count"))
        .sort(["exact_count", "word"], descending=[True, False])
        .limit(k)
    )
    regs = {
        (int(r["row"]), int(r["col"])): int(r["count"])
        for r in cms_registers(docs).take_all()
    }

    def estimate(t: pa.Table) -> pa.Table:
        words = t.column("word").to_pylist()
        est = [
            min(regs.get((r, col), 0) for r, col in enumerate(_cms_cols(w)))
            for w in words
        ]
        return t.append_column("cms_estimate", pa.array(est, pa.int64()))

    # ≤ k rows after limit(); one pass to attach estimates
    return exact.map_batches(estimate, batch_format="pyarrow")


def _token_count_partials(batch: pa.Table) -> pa.Table:
    from collections import Counter

    from ocr_ray.ops.analysis import _WORD_RE

    counts: Counter[str] = Counter()
    for text in batch.column("text").to_pylist():
        counts.update(_WORD_RE.findall((text or "").lower()))
    items = sorted(counts.items())
    return pa.table(
        {
            "word": pa.array([w for w, _ in items], pa.string()),
            "partial": pa.array([c for _, c in items], pa.int64()),
        }
    )


HIST_BINS = 4096
HIST_WIDTH = 0.125  # covers [0, 512); out-of-range values clamp to edge bins


def histogram_quantiles(ds, value_col: str = "value",
                        key_col: str = "event_type",
                        qs: tuple[float, ...] = (0.5, 0.9, 0.99)):
    """Mergeable fixed-bin histogram quantile sketch — the
    approximate-percentile scale path (exact percentiles need the full
    value multiset per key; this needs ≤ ``HIST_BINS`` rows per key at
    any corpus size).

    Per batch, values bin to ``floor(v / width)`` clamped to
    [0, bins) and pre-aggregate to (key, bin, count) partials — at most
    keys × bins slim rows leave each batch regardless of input size.
    One keyed aggregate merges shards (counts are addition-mergeable,
    exactly like the HLL/CMS registers); a grouped block pass walks the
    cumulative histogram and reports, for each requested quantile q,
    the LOWER EDGE of the first bin whose cumulative count reaches
    ``ceil(q · n)``. Every step is integer or a single shared IEEE
    expression, so the DuckDB oracle reproduces the estimates
    bit-for-bit. Estimate error is bounded by the bin width.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        bins = np.clip(
            np.floor(vals / HIST_WIDTH), 0, HIST_BINS - 1
        ).astype(np.int64)
        ones = np.ones(len(bins), dtype=np.int64)
        return (
            pa.table(
                {
                    key_col: t.column(key_col),
                    "bin": pa.array(bins, pa.int64()),
                    "c": pa.array(ones, pa.int64()),
                }
            )
            .group_by([key_col, "bin"])
            .aggregate([("c", "sum")])
            .rename_columns([key_col, "bin", "c"])
        )

    hist = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby([key_col, "bin"])
        .aggregate(Sum("c", alias_name="cnt"))
    )

    out_fields = [(key_col, pa.string()), ("n_values", pa.int64())]
    q_names = [f"p{int(q * 100)}_est" for q in qs]
    out_fields += [(name, pa.float64()) for name in q_names]
    schema = pa.schema(out_fields)

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        import math

        nrows = block.num_rows
        if nrows == 0 or len(starts) == 0:
            return schema.empty_table()
        ends = np.append(starts[1:], nrows)
        keys = block.column(key_col).to_pylist()
        bins = block.column("bin").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        out = {name: [] for name in q_names}
        out_keys, out_n = [], []
        for s, e in zip(starts, ends):  # one iteration per KEY (≤ #types)
            cum = np.cumsum(cnts[s:e])
            n = int(cum[-1])
            out_keys.append(keys[s])
            out_n.append(n)
            for q, name in zip(qs, q_names):
                thr = math.ceil(q * n)
                idx = int(np.searchsorted(cum, thr, side="left"))
                out[name].append(float(bins[s + idx]) * HIST_WIDTH)
        cols = {key_col: pa.array(out_keys, pa.string()),
                "n_values": pa.array(out_n, pa.int64())}
        for name in q_names:
            cols[name] = pa.array(out[name], pa.float64())
        return pa.table(cols)

    return grouped_map(hist, [key_col], block_fn, sort_within=["bin"])


BLOOM_M = 4096  # bits (power of two: position = md5 word & (M-1))
BLOOM_H = 2  # probes per key: the first two 32-bit md5 hex words


def _bloom_bits(key: str) -> list[int]:
    d = hashlib.md5(key.encode("utf-8")).hexdigest()
    return [int(d[8 * r : 8 * r + 8], 16) & (BLOOM_M - 1) for r in range(BLOOM_H)]


def bloom_semi_join(big, key_column: str, build, build_key: str):
    """Probabilistic semi join: keep the rows of ``big`` whose
    ``key_column`` probes positive against a Bloom filter built from
    ``build``'s ``build_key`` — the shuffle-avoiding pre-filter in
    front of an expensive exact join at scale. DETERMINISTIC false
    positives: positions are md5-derived (same convention as the
    CMS/HLL sketches), so a SQL oracle rebuilds the exact bit set and
    reproduces the survivor list bit-for-bit, false positives included.

    Scale shape: each build batch emits its DISTINCT set-bit positions
    (≤ BLOOM_M slim rows per batch regardless of build size), one keyed
    dedup bounds the driver collect at BLOOM_M rows, and the packed
    bitmap broadcasts once via ray.put; ``big`` then filters map-side —
    neither side ever shuffles. Probing hashes each DISTINCT key per
    batch once (np.unique memoization)."""
    import ray

    from ocr_ray.ops.dedup import _with_schema

    bit_schema = pa.schema([("bit", pa.int64())])

    def build_bits(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return bit_schema.empty_table()
        keys = np.unique(
            t.column(build_key).cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        bits = {b for k in keys for b in _bloom_bits(str(int(k)))}
        return pa.table({"bit": pa.array(sorted(bits), pa.int64())})

    from ray.data.aggregate import Count

    bit_rows = (
        _with_schema(
            build.map_batches(build_bits, batch_format="pyarrow"), bit_schema
        )
        .groupby("bit")
        .aggregate(Count(alias_name="_n"))
    ).take_all()  # bounded: <= M rows
    bitmap = np.zeros(BLOOM_M, dtype=bool)
    for r in bit_rows:
        bitmap[r["bit"]] = True
    bmp_ref = ray.put(bitmap)

    def probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        bmp = ray.get(bmp_ref)
        keys = t.column(key_column).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uniq, inv = np.unique(keys, return_inverse=True)
        ok_u = np.fromiter(
            (all(bmp[b] for b in _bloom_bits(str(int(k)))) for k in uniq),
            dtype=bool,
            count=len(uniq),
        )
        return t.filter(pa.array(ok_u[inv]))

    return big.map_batches(probe, batch_format="pyarrow")


# -------------------------------------------------- grouped HLL sketch


def hll_vocab_by_source(docs):
    """(source, hll_vocab, n_registers): approximate distinct-word count
    per source — the GROUPED sketch shape: every batch emits per-source
    register partials (≤ sources × M slim rows), one keyed max merges
    them, and per-source estimates compute on the ≤ S × M-row driver
    collect. Registers use the same md5 convention as the global HLL,
    so the SQL oracle rebuilds them bit-for-bit and replays the
    estimate formula (exact vocabulary lives in ``vocab_by_source`` —
    this is its mergeable constant-traffic counterpart)."""
    from ray.data.aggregate import Max

    from ocr_ray.ops.analysis import _WORD_RE
    from ocr_ray.ops.dedup import _with_schema

    reg_schema = pa.schema(
        [
            ("source", pa.string()),
            ("bucket", pa.int64()),
            ("max_rho", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        regs: dict[tuple[str, int], int] = {}
        for source, text in zip(
            t.column("source").to_pylist(), t.column("text").to_pylist()
        ):
            for word in set(_WORD_RE.findall((text or "").lower())):
                bucket, w = _hash_parts(word)
                r = _rho(w)
                key = (source, bucket)
                if r > regs.get(key, 0):
                    regs[key] = r
        items = sorted(regs.items())
        return pa.table(
            {
                "source": pa.array([k[0] for k, _ in items], pa.string()),
                "bucket": pa.array([k[1] for k, _ in items], pa.int64()),
                "max_rho": pa.array([r for _, r in items], pa.int64()),
            }
        )

    rows = (
        _with_schema(
            docs.map_batches(partials, batch_format="pyarrow"), reg_schema
        )
        .groupby(["source", "bucket"])
        .aggregate(Max("max_rho", alias_name="max_rho"))
    ).take_all()  # bounded: <= sources x M rows
    by_source: dict[str, list[dict]] = {}
    for r in rows:
        by_source.setdefault(r["source"], []).append(r)
    out = [
        {
            "source": s,
            "hll_vocab": round(hll_estimate_from_registers(rs), 2),
            "n_registers": len(rs),
        }
        for s, rs in sorted(by_source.items())
    ]
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [
                ("source", pa.string()),
                ("hll_vocab", pa.float64()),
                ("n_registers", pa.int64()),
            ]
        ),
    )


KMV_K = 64
_KMV_MASK62 = (1 << 62) - 1


def _kmv_hash(key: str) -> int:
    # the shared md5-hex-split convention (one definition keeps the
    # SQL-oracle reproducibility contract in one place), masked to 62
    # bits so the value stays inside BIGINT on both engines
    from ocr_ray.ops.dedup import _md5_hash64

    return _md5_hash64(key) & _KMV_MASK62


def kmv_registers(ds, key_column: str, k: int = KMV_K):
    """Dataset → (h int64), the k smallest distinct hashes, sorted."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import _with_schema

    def partials(t: pa.Table) -> pa.Table:
        hs = sorted(
            {_kmv_hash(str(v)) for v in t.column(key_column).to_pylist()}
        )[:k]
        return pa.table({"h": pa.array(hs, pa.int64())})

    parts = ds.map_batches(partials, batch_format="pyarrow")
    # _with_schema both normalizes the aggregate's schema-less empty
    # partition blocks (sort/limit crash on those when distinct keys <
    # partitions) and drops the _n count column via its select
    distinct = _with_schema(
        parts.groupby("h").aggregate(Count(alias_name="_n")),
        pa.schema([("h", pa.int64())]),
    )
    return distinct.sort("h").limit(k)


def kmv_distinct(ds, key_column: str, k: int = KMV_K) -> pa.Table:
    """One-row estimate: (k−1) · 2^62 / h_(k); exact count when the
    register set is not full. The numerator factors are exact doubles
    (63 · 2^62 has a 6-bit mantissa) so the single division is the only
    rounding step — the SQL oracle evaluates the identical expression."""
    rows = kmv_registers(ds, key_column, k).take_all()
    n = len(rows)
    if n < k:
        est = float(n)
        kth = -1
    else:
        kth = int(rows[-1]["h"])
        est = float(k - 1) * float(1 << 62) / float(kth)
    return pa.Table.from_pylist(
        [{"kmv_estimate": est, "kth_hash": kth, "n_regs": n}],
        schema=pa.schema(
            [
                ("kmv_estimate", pa.float64()),
                ("kth_hash", pa.int64()),
                ("n_regs", pa.int64()),
            ]
        ),
    )


def kmv_group_registers(ds, key_column: str, group_column: str,
                        k: int = KMV_K):
    """Per-group KMV registers: (g string, h int64), the k smallest
    distinct hashes of ``key_column`` within each ``group_column``
    value. One scan (≤ k rows per group leave each batch) + one slim
    keyed dedup + one grouped top-k; the corpus never shuffles."""
    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        per: dict[str, set[int]] = {}
        for g, v in zip(
            t.column(group_column).to_pylist(),
            t.column(key_column).to_pylist(),
        ):
            per.setdefault(str(g), set()).add(_kmv_hash(str(v)))
        gs, hs = [], []
        for g, vals in per.items():
            for h in sorted(vals)[:k]:
                gs.append(g)
                hs.append(h)
        return pa.table(
            {"g": pa.array(gs, pa.string()), "h": pa.array(hs, pa.int64())}
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")

    def topk_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        if block.num_rows == 0 or len(starts) == 0:
            return pa.schema(
                [("g", pa.string()), ("h", pa.int64())]
            ).empty_table()
        # rows arrive sorted by (g, h); distinct + first k per group
        gs = block.column("g").to_pylist()
        hs = block.column("h").to_numpy(zero_copy_only=False)
        out_g, out_h = [], []
        bounds = np.append(starts, block.num_rows)
        for s, e in zip(bounds[:-1], bounds[1:]):
            seen = np.unique(hs[s:e])[:k]
            out_g.extend([gs[s]] * len(seen))
            out_h.extend(seen.tolist())
        return pa.table(
            {
                "g": pa.array(out_g, pa.string()),
                "h": pa.array(out_h, pa.int64()),
            }
        )

    return grouped_map(parts, ["g"], topk_block, sort_within=("h",))


def kmv_overlap(ds, key_column: str, group_column: str, ga: str, gb: str,
                k: int = KMV_K) -> pa.Table:
    """Distinct-key overlap between two groups from KMV register
    algebra (Beyer et al. 2007): U = the k smallest hashes of the
    register UNION; jaccard = |A ∩ B ∩ U| / |U| (EXACT when |U| < k —
    the registers are then the complete hash sets); the intersection
    estimate is jaccard × the union estimate. Everything up to the two
    final divisions is exact integers, so the SQL oracle reproduces the
    row bit-for-bit."""
    import pyarrow.compute as pc

    groups = pa.array([ga, gb], pa.string())

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[group_column], value_set=groups))

    regs = kmv_group_registers(
        ds.map_batches(keep, batch_format="pyarrow"),
        key_column,
        group_column,
        k,
    )
    rows = regs.take_all()  # ≤ 2k rows by construction
    a = {r["h"] for r in rows if r["g"] == ga}
    b = {r["h"] for r in rows if r["g"] == gb}
    union = sorted(a | b)[:k]
    n_u = len(union)
    inter_k = sum(1 for h in union if h in a and h in b)
    if n_u < k:
        est_union = float(n_u)
    else:
        est_union = float(k - 1) * float(1 << 62) / float(union[-1])
    jaccard = float(inter_k) / float(n_u) if n_u else 0.0
    return pa.Table.from_pylist(
        [
            {
                "n_union_regs": n_u,
                "inter_k": inter_k,
                "jaccard_est": jaccard,
                "est_union": est_union,
                "est_intersection": jaccard * est_union,
            }
        ],
        schema=pa.schema(
            [
                ("n_union_regs", pa.int64()),
                ("inter_k", pa.int64()),
                ("jaccard_est", pa.float64()),
                ("est_union", pa.float64()),
                ("est_intersection", pa.float64()),
            ]
        ),
    )


def hll_distinct_incremental(ds, key_column: str, chunk_column: str,
                             n_chunks: int = 5):
    """STREAMING-state fold: the dataset is processed as ``n_chunks``
    sequential micro-batches (hash of ``chunk_column`` mod n_chunks —
    any disjoint cover works); each step sketches ONLY its chunk and
    merges registers into the running state (groupby-max over ≤ 2·M
    slim rows). HLL merge is exact — max of register maxima — so the
    final row is IDENTICAL to the one-shot batch sketch, and the driver
    registers this against the SAME oracle as ``hll_distinct``. The
    operational shape of a daily-append pipeline: yesterday's persisted
    registers + today's chunk, never a rescan of history."""
    state: pa.Table | None = None
    for i in range(n_chunks):
        def keep(t: pa.Table, _i: int = i) -> pa.Table:
            mod = np.mod(
                t.column(chunk_column).to_numpy(zero_copy_only=False),
                n_chunks,
            )
            return t.filter(pa.array(mod == _i))

        chunk = ds.map_batches(keep, batch_format="pyarrow")
        regs_rows = hll_registers(chunk, key_column).take_all()  # ≤ M
        regs = pa.Table.from_pylist(
            regs_rows,
            schema=pa.schema([("bucket", pa.int64()), ("max_rho", pa.int64())]),
        )
        if state is None:
            state = regs
        else:
            state = (
                pa.concat_tables([state, regs])
                .group_by("bucket")
                .aggregate([("max_rho", "max")])
                .rename_columns(["bucket", "max_rho"])
            )
    rows = state.to_pylist() if state is not None else []
    est = hll_estimate_from_registers(rows)
    return pa.table(
        {
            "hll_estimate": pa.array([round(est, 2)], pa.float64()),
            "n_registers": pa.array([len(rows)], pa.int64()),
        }
    )


def _mg_compress(items: np.ndarray, counts: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Compress exact (item, count) pairs to <= k survivors by the
    Misra-Gries decrement: subtract the (k+1)-th largest count from
    every counter and drop the non-positive ones. Returns the survivors
    and the decrement applied (the per-step undercount witness)."""
    if len(items) <= k:
        return items, counts, 0
    # (k+1)-th largest via partition — O(m), no full sort
    d = int(np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1])
    keep = counts > d
    return items[keep], counts[keep] - d, d


def mg_summary(ds, col: str, k: int = 64):
    """Distributed Misra-Gries heavy-hitter sketch over ``col``.

    Per-block exact counts compress to <= k slim (item, est) rows plus
    one decrement-witness row per block; a keyed aggregate merges the
    streams (MG merge = counter addition), and one final compress
    bounds the result to k. Returns ``(items, ests, d_total)`` with the
    classic guarantee: for every item,
    ``true - est <= d_total`` and ``est <= true`` — so any item with
    ``true > d_total`` MUST survive. Driver materialization is bounded
    by k + the per-block witness count, never the input.
    """
    import ray
    from ray.data.aggregate import Sum

    part_schema = pa.schema([("item", pa.int64()), ("est", pa.int64())])

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return part_schema.empty_table()
        arr = t[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        x = arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
        items, counts = np.unique(x, return_counts=True)
        items, counts, d = _mg_compress(
            items, counts.astype(np.int64), k
        )
        out_items = np.concatenate([items, [-1]])  # -1 = witness row
        out_counts = np.concatenate([counts, [d]])
        return pa.table(
            {
                "item": pa.array(out_items, pa.int64()),
                "est": pa.array(out_counts, pa.int64()),
            }
        )

    merged = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("item")
        .aggregate(Sum("est", alias_name="est"))
        .take_all()
    )  # bounded: <= k per input block + 1 witness row
    items = np.array([r["item"] for r in merged], np.int64)
    ests = np.array([r["est"] for r in merged], np.int64)
    wit = items == -1
    d_blocks = int(ests[wit].sum()) if wit.any() else 0
    items, ests = items[~wit], ests[~wit]
    items, ests, d_final = _mg_compress(items, ests, k)
    order = np.argsort(items)
    return items[order], ests[order], d_blocks + d_final


def mg_violations(ds, col: str, k: int = 64):
    """Empty-oracle invariant gate for ``mg_summary``: re-counts ``col``
    EXACTLY (distributed groupby) and emits one row per violated
    Misra-Gries guarantee — overcount (est > true), undercount beyond
    the witness (true - est > d_total), or a mandatory heavy hitter
    (true > d_total) missing from the sketch. A correct sketch yields
    zero rows, which is what the SQL oracle states."""
    import ray
    from ray.data.aggregate import Count

    items, ests, d_total = mg_summary(ds, col, k)
    ref = ray.put((items, ests, d_total))

    out_schema = pa.schema(
        [
            ("item", pa.int64()),
            ("true_cnt", pa.int64()),
            ("est", pa.int64()),
            ("reason", pa.string()),
        ]
    )

    exact = ds.groupby(col).aggregate(Count(alias_name="true_cnt"))

    class _Checker:
        def __init__(self, ref):
            self.items, self.ests, self.d_total = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or t.num_columns == 0:
                return out_schema.empty_table()
            its = t[col]
            if isinstance(its, pa.ChunkedArray):
                its = its.combine_chunks()
            x = its.cast(pa.int64()).to_numpy(zero_copy_only=False)
            true = t["true_cnt"].to_numpy(zero_copy_only=False)
            idx = np.searchsorted(self.items, x)
            idx_c = np.clip(idx, 0, max(len(self.items) - 1, 0))
            found = (
                (len(self.items) > 0)
                & (idx < len(self.items))
                & (self.items[idx_c] == x)
            )
            est = np.where(found, self.ests[idx_c], 0)
            over = found & (est > true)
            under = found & (true - est > self.d_total)
            miss = ~found & (true > self.d_total)
            mask = over | under | miss
            if not mask.any():
                return out_schema.empty_table()
            reason = np.where(
                over[mask], "overcount",
                np.where(under[mask], "undercount beyond witness",
                         "mandatory hitter missing"),
            )
            return pa.table(
                {
                    "item": pa.array(x[mask], pa.int64()),
                    "true_cnt": pa.array(true[mask], pa.int64()),
                    "est": pa.array(est[mask], pa.int64()),
                    "reason": pa.array(reason.tolist(), pa.string()),
                }
            )

    from ocr_ray.ops.dedup import _with_schema

    return _with_schema(
        exact.map_batches(
            _Checker,
            fn_constructor_kwargs={"ref": ref},
            batch_format="pyarrow",
            concurrency=(1, 4),
        ),
        out_schema,
    )


QSK_M = 1024  # items kept per compression stage
QSK_PARTS = 32  # intermediate merge fan-in
QSK_QS = tuple((i, i / 20.0) for i in range(1, 20))  # 5%..95% grid


def _qsk_compress(values: np.ndarray, weights: np.ndarray,
                  m: int = QSK_M) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic weighted compression: sort by value, split the
    total weight W into m integer spans ``b_j = floor(j*W/m)``, and
    keep for each span the value holding its midpoint. Total weight is
    preserved exactly; the rank of any value moves by at most W/m per
    compression — the KLL-style epsilon-merge bound without the
    randomness (randomness is banned in this engine's deterministic
    contract)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    if len(v) <= m:
        return v, w
    cum = np.cumsum(w)
    total = int(cum[-1])
    b = (np.arange(m + 1, dtype=np.int64) * total) // m
    new_w = np.diff(b)
    keep = new_w > 0
    mids = (b[:-1] + b[1:] + 1) // 2
    idx = np.searchsorted(cum, mids[keep], side="left")
    return v[idx], new_w[keep]


def quantile_sketch(events, value_col: str = "value",
                    m: int = QSK_M, parts: int = QSK_PARTS):
    """Mergeable quantile sketch over the cents-scaled ``value_col``:
    per-batch compress → hash-partitioned re-merge → one bounded
    driver fold, a three-stage tree whose cumulative rank error is
    ≤ 3·n/m (0.3% at the defaults) while shipping ~m items per stage
    instead of the corpus.

    Returns (estimates, n_total): estimates is a list of
    (q_idx, q, est_cents) on the 5% grid.
    """
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def batch_sketch(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(t[value_col], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        if len(cents) == 0:
            return pa.table(
                {
                    "part": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "w": pa.array([], pa.int64()),
                }
            )
        v, w = _qsk_compress(cents, np.ones(len(cents), np.int64), m)
        # deterministic partition: spread sketches by value-hash so the
        # re-merge stage sees bounded, evenly sized groups
        part = int((v[0] * 2654435761 + len(v)) % parts)
        return pa.table(
            {
                "part": pa.array(np.full(len(v), part), pa.int64()),
                "v": pa.array(v, pa.int64()),
                "w": pa.array(w, pa.int64()),
            }
        )

    rows = events.map_batches(batch_sketch, batch_format="pyarrow")

    def merge_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        out_schema = pa.schema([("v", pa.int64()), ("w", pa.int64())])
        if block.num_rows == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], block.num_rows)
        vs = block.column("v").to_numpy(zero_copy_only=False)
        ws = block.column("w").to_numpy(zero_copy_only=False)
        outs_v, outs_w = [], []
        for s, e in zip(starts, ends):
            v, w = _qsk_compress(vs[s:e], ws[s:e], m)
            outs_v.append(v)
            outs_w.append(w)
        return pa.table(
            {
                "v": pa.array(np.concatenate(outs_v), pa.int64()),
                "w": pa.array(np.concatenate(outs_w), pa.int64()),
            }
        )

    merged = grouped_map(rows, ["part"], merge_block)
    items = merged.take_all()  # bounded: <= parts * m rows
    if not items:
        return [], 0
    v = np.array([r["v"] for r in items], np.int64)
    w = np.array([r["w"] for r in items], np.int64)
    v, w = _qsk_compress(v, w, m)
    cum = np.cumsum(w)
    total = int(cum[-1])
    ests = []
    for q_idx, q in QSK_QS:
        target = int(math.ceil(q * total))
        i = int(np.searchsorted(cum, target, side="left"))
        ests.append((q_idx, q, int(v[i])))
    return ests, total


def quantile_sketch_violations(events, value_col: str = "value",
                               eps: float = 0.01):
    """Empty-oracle invariant gate for ``quantile_sketch``: recompute
    the EXACT rank interval of every estimate distributed (count of
    values strictly below / at-or-below it) and emit one row per
    quantile whose target rank ``ceil(q*n)`` falls farther than
    ``eps*n`` outside that interval. The 3-stage tree's worst-case
    error is 3n/m ≈ 0.003n, so eps=0.01 passes with margin iff the
    merge logic is right."""
    from ray.data.aggregate import Sum

    ests, total = quantile_sketch(events, value_col)
    out_schema = pa.schema(
        [
            ("q_idx", pa.int64()),
            ("est_cents", pa.int64()),
            ("rank_lo", pa.int64()),
            ("rank_hi", pa.int64()),
            ("target", pa.int64()),
        ]
    )
    if not ests:
        return out_schema.empty_table()
    est_v = np.array([e for _, _, e in ests], np.int64)

    def rank_partials(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(t[value_col], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        s = np.sort(cents)
        lt = np.searchsorted(s, est_v, side="left")
        le = np.searchsorted(s, est_v, side="right")
        return pa.table(
            {
                "q_idx": pa.array([q for q, _, _ in ests], pa.int64()),
                "lt": pa.array(lt, pa.int64()),
                "le": pa.array(le, pa.int64()),
            }
        )

    ranks = (
        events.map_batches(rank_partials, batch_format="pyarrow")
        .groupby("q_idx")
        .aggregate(Sum("lt", alias_name="lt"), Sum("le", alias_name="le"))
    ).take_all()  # bounded: one row per quantile
    by_q = {int(r["q_idx"]): (int(r["lt"]), int(r["le"])) for r in ranks}
    slack = int(math.ceil(eps * total))
    rows = []
    for q_idx, q, est in ests:
        lt, le = by_q[q_idx]
        target = int(math.ceil(q * total))
        # true rank of est is anywhere in [lt+1, le]
        if target < lt + 1 - slack or target > le + slack:
            rows.append((q_idx, est, lt + 1, le, target))
    if not rows:
        return out_schema.empty_table()
    cols = list(zip(*rows))
    return pa.table(
        {f.name: pa.array(list(c), f.type)
         for f, c in zip(out_schema, cols)}
    )
