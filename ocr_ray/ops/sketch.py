"""HyperLogLog and Count-Min sketches over corpus tokens, built to be
SQL-reproducible.

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
``m`` = 256 rows per group leave each batch regardless of input size)
→ groupby-max. The canonical sketch pattern: constant shuffle volume at
any corpus size, registers mergeable across shards.
"""
from __future__ import annotations

import hashlib
import math

import pyarrow as pa

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


# -------------------------------------------------- grouped HLL sketch


def hll_vocab_by_source(docs):
    """(source, hll_vocab, n_registers): approximate distinct-word count
    per source — the GROUPED sketch shape: every batch emits per-source
    register partials (≤ sources × M slim rows), one keyed max merges
    them, and per-source estimates compute on the ≤ S × M-row driver
    collect. Registers use the md5 convention above, so the SQL oracle
    rebuilds them bit-for-bit and replays the estimate formula (exact
    vocabulary lives in ``vocab_by_source`` —
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


