"""Per-layer ledger, measured from outside ``ocr_ray``.

Two sources:

- ``parse_stats``/``operator_ledger`` read the public ``Dataset.stats()``
  text of an extraction execution (read, span pool, shuffle, rebuild).
  The parser fails loudly when an expected operator or field is missing,
  for example after a Ray upgrade changes the format, instead of
  reporting zeros.
- ``kernel_ledger`` replays the span pool's work in-process without Ray:
  ``stages.process.process_span`` over every span for the serial rates,
  then each kernel of the repair chain timed on its own, called in
  ``repair_text`` order with its real inputs.
"""
from __future__ import annotations

import re
import time

_HEADER = re.compile(
    r"^\s*(?:Operator \d+|Suboperator \d+) (?P<name>.+?)(?:: | executed in)"
)
_FIELD = re.compile(r"^\s*\* (?P<key>[^:]+): (?P<value>.*)$")
_DURATION = re.compile(r"^([\d.]+)(us|ms|s)$")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


class StatsFormatError(RuntimeError):
    """``Dataset.stats()`` text did not have the expected shape."""


def _total(value: str) -> str:
    for part in value.split(","):
        part = part.strip()
        if part.endswith(" total"):
            return part[: -len(" total")]
    raise StatsFormatError(f"no total in stats field {value!r}")


def _seconds(text: str) -> float:
    m = _DURATION.match(text)
    if not m:
        raise StatsFormatError(f"unparseable duration {text!r}")
    return float(m.group(1)) * _UNIT_S[m.group(2)]


def parse_stats(text: str) -> list[dict]:
    """Operator blocks of one ``Dataset.stats()`` text, in order: each a
    dict with ``name`` and the raw ``* key: value`` fields under it."""
    blocks: list[dict] = []
    for line in text.splitlines():
        head = _HEADER.match(line)
        if head:
            blocks.append({"name": head.group("name"), "fields": {}})
            continue
        field = _FIELD.match(line)
        if field and blocks:
            blocks[-1]["fields"].setdefault(field.group("key"), field.group("value"))
    return blocks


def _find(blocks: list[dict], marker: str) -> list[dict]:
    found = [b for b in blocks if marker in b["name"] and b["fields"]]
    if not found:
        names = [b["name"] for b in blocks]
        raise StatsFormatError(f"no operator matching {marker!r} in {names}")
    return found


def _sum(blocks: list[dict], key: str, conv) -> float:
    total = 0.0
    for b in blocks:
        if key not in b["fields"]:
            raise StatsFormatError(f"operator {b['name']!r} lacks {key!r}")
        total += conv(_total(b["fields"][key]))
    return total


def _peak_heap(blocks: list[dict]) -> float:
    key = "Peak heap memory usage (MiB)"
    peaks = []
    for b in blocks:
        if key not in b["fields"]:
            raise StatsFormatError(f"operator {b['name']!r} lacks {key!r}")
        m = re.search(r"([\d.]+) max", b["fields"][key])
        if not m:
            raise StatsFormatError(f"no max in {b['fields'][key]!r}")
        peaks.append(float(m.group(1)))
    return max(peaks)


WALL, CPU = "Remote wall time", "Remote cpu time"
ROWS, BYTES = "Output num rows per block", "Output size bytes per block"


def _integer(text: str) -> float:
    return float(int(text))


def _ops(blocks: list[dict], marker: str, dedup: set) -> list[dict]:
    found = [b for b in _find(blocks, marker) if id(b) not in dedup]
    dedup.update(id(b) for b in found)
    return found


def operator_ledger(stats_texts: list[str]) -> dict:
    """Per-operator wall, CPU, rows and bytes summed over the extraction
    executions whose ``Dataset.stats()`` texts are given.

    Ray fuses the read with ``explode_spans`` when it can, and fuses the
    rebuild with the write; the read layer covers both read operators and
    reports the span rows they emit, and the rebuild layer reports the
    span rows the shuffle handed it, since the fused write emits only
    one row per written file."""
    read, explode, pool, shuffle, finalize, rebuild = [], [], [], [], [], []
    for text in stats_texts:
        blocks = parse_stats(text)
        seen: set = set()
        explode += _ops(blocks, "MapBatches(explode_spans)", seen)
        read += _ops(blocks, "ReadParquet", seen)
        pool += _ops(blocks, "MapBatches(SpanProcessor)", seen)
        shuffle += _ops(blocks, "_shuffle", seen)
        finalize += _ops(blocks, "_finalize", seen)
        rebuild += _ops(blocks, "MapBatches(rebuild_docs_block)", seen)
    everything = read + explode + pool + shuffle + finalize + rebuild
    return {
        "io.read.wall_s": _sum(read + explode, WALL, _seconds),
        "io.read.rows": _sum(explode, ROWS, _integer),
        "io.read.bytes": _sum(explode, BYTES, _integer),
        "process.span_pool.wall_s": _sum(pool, WALL, _seconds),
        "process.span_pool.cpu_s": _sum(pool, CPU, _seconds),
        "process.span_pool.rows": _sum(pool, ROWS, _integer),
        "process.span_pool.bytes_out": _sum(pool, BYTES, _integer),
        "process.span_pool.peak_heap_mb": _peak_heap(pool),
        "reassemble.shuffle.wall_s": _sum(shuffle + finalize, WALL, _seconds),
        "reassemble.shuffle.bytes_in": _sum(shuffle, BYTES, _integer),
        "reassemble.rebuild.wall_s": _sum(rebuild, WALL, _seconds),
        "reassemble.rebuild.rows": _sum(finalize, ROWS, _integer),
        "ledger.layer_sum_s": _sum(everything, CPU, _seconds),
    }


# ------------------------------------------------------------------ kernels


def _memo_caches() -> list:
    """The per-token memo caches of the repair kernels (functools caches
    with room for more than one entry; the size-1 ones hold loaded
    tables, which a warmed actor keeps)."""
    from ocr_ray.kernels import dictionary, fuzzy, spelling

    caches = {}
    for mod in (dictionary, fuzzy, spelling):
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if info is not None and (info().maxsize or 2) > 1:
                caches[id(obj)] = obj
    return list(caches.values())


def _clear_memos():
    for fn in _memo_caches():
        fn.cache_clear()


def _spans(table) -> list[tuple]:
    from ocr_ray.stages.explode import explode_spans

    flat = explode_spans(table)
    return list(zip(
        flat.column("kind").to_pylist(),
        flat.column("text").to_pylist(),
        flat.column("media_ref").to_pylist(),
    ))


def _serial_pass(spans, engine) -> tuple[float, list[str]]:
    from ocr_ray.stages.process import process_span

    t0 = time.perf_counter()
    texts = [process_span(k, t, r, engine)["text"] for k, t, r in spans]
    return time.perf_counter() - t0, texts


def _split_pass(spans, engine) -> tuple[dict, list[str]]:
    """The span pool's per-span work with each kernel timed separately,
    in the order ``process_span`` and ``repair_text`` call them."""
    from ocr_ray.kernels.currency import normalize_currency_and_numbers
    from ocr_ray.kernels.dictionary import correct_with_stats
    from ocr_ray.kernels.html_extract import extract_main_text
    from ocr_ray.kernels.scoring import calculate_quality_score
    from ocr_ray.kernels.spelling import normalize_with_comparison
    from ocr_ray.stages.process import MEDIA_KINDS

    clock = time.perf_counter
    spent = dict.fromkeys(
        ("read_page", "html", "dictionary", "currency", "spelling", "scoring"), 0.0
    )
    out = []
    for kind, text, ref in spans:
        confidences: list[float] = []
        t0 = clock()
        if kind in MEDIA_KINDS:
            raw, confidences = engine.read_page(ref, "mixed", False)
            spent["read_page"] += clock() - t0
        elif kind == "html":
            raw = extract_main_text(text or "")
            spent["html"] += clock() - t0
        else:
            raw = text or ""
        corrected, n_corr = raw, 0
        if raw:
            t0 = clock()
            corrected, n_corr = correct_with_stats(raw)
            t1 = clock()
            corrected = normalize_currency_and_numbers(corrected)
            spent["dictionary"] += t1 - t0
            spent["currency"] += clock() - t1
        normalized = corrected
        if corrected:
            t0 = clock()
            _, normalized, _ = normalize_with_comparison(corrected)
            spent["spelling"] += clock() - t0
        t0 = clock()
        calculate_quality_score(
            text=(normalized if normalized else corrected) or raw,
            confidence_scores=confidences,
            dictionary_corrections=n_corr,
        )
        spent["scoring"] += clock() - t0
        out.append(normalized)
    return spent, out


def kernel_ledger(table) -> dict:
    """Serial span-pool rates (cold and warm memo caches) and the time of
    each kernel over the exploded spans of ``table``."""
    from ocr_ray.kernels.dictionary import correct_word
    from ocr_ray.kernels.repair import repair_text
    from ocr_ray.stages.engines import make_engine

    spans = _spans(table)
    engine = make_engine()
    # load the dictionary tables and compile the patterns, as each pool
    # actor does in its constructor
    repair_text("warmup djalan Rp.1.--", [0.9])

    _clear_memos()
    cold_s, reference = _serial_pass(spans, engine)
    warm_s, _ = _serial_pass(spans, engine)

    _clear_memos()
    cold, cold_out = _split_pass(spans, engine)
    info = correct_word.cache_info()
    warm, warm_out = _split_pass(spans, engine)
    if cold_out != reference or warm_out != reference:
        raise RuntimeError("kernel replay diverged from stages.process.process_span")

    return {
        "engines.read_page_s": warm["read_page"],
        "kernels.html_extract_s": warm["html"],
        "kernels.dictionary_cold_s": cold["dictionary"],
        "kernels.dictionary_warm_s": warm["dictionary"],
        "kernels.currency_s": warm["currency"],
        "kernels.spelling_s": warm["spelling"],
        "kernels.scoring_s": warm["scoring"],
        "kernels.dictionary.memo_hit_ratio": info.hits / max(1, info.hits + info.misses),
        "process.serial_cold_spans_per_s": len(spans) / cold_s,
        "process.serial_warm_spans_per_s": len(spans) / warm_s,
        "process.serial_cold_docs_per_s": table.num_rows / cold_s,
    }
