"""Plain-Python reference extractor (no Ray) — the correctness oracle.

Runs the same span routing + repair kernels sequentially, document by
document in offset order, exactly as the reference service would process
each request one at a time. The Ray pipeline must reproduce this output
per row — span-sequence equality ``(kind, text, media_ref, order)`` plus
the merged document text (FIXTURES.md F1; BASELINE.json north_star).

Because the oracle shares the *kernels* with the engine (kernels are
pinned to the reference separately by tests/goldens/kernels.json), a
mismatch here isolates a bug in the distributed plumbing: explode,
routing, shuffling, order restoration, or reassembly.
"""
from __future__ import annotations

import pyarrow as pa

from ocr_ray import data
from ocr_ray.pipelines.extract import ExtractConfig
from ocr_ray.stages.engines import make_engine
from ocr_ray.stages.process import process_span
from ocr_ray.stages.reassemble import merge_doc_text


def extract_oracle(table: pa.Table, config: ExtractConfig | None = None) -> dict[str, dict]:
    """doc_id → {"spans": [(kind, text, media_ref, offset)...], "doc_text": str}.

    The config's learned words, none included, make the kamus extension
    for this call only, as they do for each actor of a run; the
    process's previous extension is restored afterwards."""
    config = config or ExtractConfig()
    previous = data._EXTRA_WORDS
    data.set_runtime_extra_words(config.learned_words)
    try:
        return _extract(table, config)
    finally:
        data.set_runtime_extra_words(previous)


def _extract(table: pa.Table, config: ExtractConfig) -> dict[str, dict]:
    engine = make_engine(config.engine, config.language)
    span_kwargs = config.span_kwargs()

    docs: dict[str, dict] = {}
    for row in table.to_pylist():
        spans = sorted(row["spans"], key=lambda s: s["offset"])
        out_spans = []
        for span in spans:
            result = process_span(
                span["kind"], span["text"], span["media_ref"], engine,
                **span_kwargs,
            )
            out_spans.append(
                {
                    "kind": span["kind"],
                    "text": result["text"],
                    "media_ref": span["media_ref"],
                    "offset": span["offset"],
                }
            )
        docs[row["doc_id"]] = {
            "spans": out_spans,
            "doc_text": merge_doc_text(
                [s["kind"] for s in out_spans], [s["text"] for s in out_spans]
            ),
        }
    return docs
