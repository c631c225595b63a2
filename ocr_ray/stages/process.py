"""Span processing stage — kind-routed extraction + text repair.

One callable class, used as a Ray actor pool via
``ds.map_batches(SpanProcessor, fn_constructor_kwargs=..., concurrency=N,
batch_size=None, batch_format="pyarrow")``, one call per input block:

- ``__init__`` runs once per actor: constructs the OCR engine, loads the
  frozen dictionary tables and pre-compiles every kernel regex (the
  reference does this once per process, ocr_service.py:432-482) — nothing
  stateful happens per batch;
- ``__call__`` routes each span by kind (html → boilerplate stripper,
  pdf/image → engine.read_page on media_ref, text → pass-through) and runs
  the reference repair chain (dictionary → currency → spelling → quality,
  app/routers/ocr.py:203-242) on the extracted text.

The string kernels are inherently per-string Python (regex chains), so the
batch loop applies them column-wise over ``to_pylist()`` materialized
columns and rebuilds Arrow arrays once per batch — the Arrow⇄Python
boundary is crossed exactly twice per batch, not per field per row.
"""
from __future__ import annotations

import pyarrow as pa

from ocr_ray.kernels.html_extract import extract_main_text
from ocr_ray.kernels.repair import repair_text
from ocr_ray.stages.engines import make_engine

QUALITY_STRUCT = pa.struct(
    [
        ("overall", pa.int32()),
        ("label", pa.string()),
        ("confidence", pa.float64()),
        ("dictionary_match", pa.float64()),
        ("correction_rate", pa.float64()),
        ("total_words", pa.int32()),
        ("matched_words", pa.int32()),
        ("corrected_words", pa.int32()),
    ]
)

SPAN_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("offset", pa.int32()),
        ("kind", pa.string()),
        ("media_ref", pa.string()),
        ("raw_text", pa.string()),
        ("text", pa.string()),
        ("dictionary_corrections", pa.int32()),
        ("spelling_changes", pa.int32()),
        ("mean_confidence", pa.float64()),
        ("quality", QUALITY_STRUCT),
        ("error_code", pa.string()),
    ]
)

MEDIA_KINDS = frozenset({"pdf", "image"})
VALID_KINDS = frozenset({"text", "html", "pdf", "image"})

# validation error codes kept from the reference
# (app/models/error_codes.py:15-19); invalid spans are ROUTED to an error
# column, not dropped (SURVEY.md §2.2 M2) so reassembly keeps the doc whole
ERR_FILE_TYPE = "FILE_TYPE_NOT_ALLOWED"
ERR_FILE_EMPTY = "FILE_EMPTY"
ERR_FILE_TOO_LARGE = "FILE_TOO_LARGE"
ERR_ENGINE = "OCR_ENGINE_ERROR"

# reference parity: 50 MB upload cap (config.py:43, enforced before OCR in
# ocr.py:167) — applied here to a span's inline payload bytes
MAX_SPAN_BYTES = 50 * 1024 * 1024


def process_span(
    kind: str,
    text: str,
    media_ref: str,
    engine,
    *,
    language: str = "mixed",
    use_dictionary: bool = True,
    normalize_spelling: bool = True,
    score: bool = True,
    max_span_bytes: int = MAX_SPAN_BYTES,
) -> dict:
    """Extract + repair one span. Shared verbatim by the Ray stage and the
    plain-Python oracle so span-sequence equality tests exercise only the
    distributed plumbing."""
    confidences: list[float] = []
    error_code = None
    if kind not in VALID_KINDS:
        raw = ""
        error_code = ERR_FILE_TYPE
    elif (
        max_span_bytes is not None
        and text
        and len(text.encode("utf-8")) > max_span_bytes
    ):
        # size guard BEFORE extraction, like the reference's pre-OCR
        # upload cap (ocr.py:167); the span survives reassembly as an
        # error span, the doc stays whole
        raw = ""
        error_code = ERR_FILE_TOO_LARGE
    elif kind in MEDIA_KINDS:
        if not media_ref:
            raw = ""
            error_code = ERR_FILE_EMPTY
        else:
            try:
                raw, confidences = engine.read_page(media_ref, language)
            except Exception:  # noqa: BLE001 - per-span fault isolation
                raw = ""
                error_code = ERR_ENGINE
    elif kind == "html":
        raw = extract_main_text(text or "")
    else:
        raw = text or ""

    result = repair_text(
        raw,
        confidence_scores=confidences,
        use_dictionary=use_dictionary,
        normalize_spelling=normalize_spelling,
        score=score,
    )
    mean_conf = (
        sum(confidences) / len(confidences) if confidences else None
    )
    return {
        "raw_text": raw,
        "text": result.normalized_text,
        "dictionary_corrections": result.dictionary_corrections,
        "spelling_changes": result.spelling_changes,
        "mean_confidence": mean_conf,
        "quality": result.quality.as_dict() if result.quality else None,
        "error_code": error_code,
    }


class SpanProcessor:
    def __init__(self, engine: str = "auto", learned_words=(), **span_kwargs):
        """``span_kwargs`` are ``process_span``'s keyword arguments; the
        engine reads pages in their ``language`` when one is given."""
        # run-level dictionary extension, applied once per actor — the
        # reference's startup learned-words merge (main.py:147-153). An
        # empty one is set too, so an extension an earlier processor set
        # in this process does not leak into this one.
        from ocr_ray import data

        data.set_runtime_extra_words(learned_words)
        self.engine = make_engine(
            engine, **{k: v for k, v in span_kwargs.items() if k == "language"}
        )
        self.span_kwargs = span_kwargs
        # warm every lazily-compiled kernel table so the first batch pays
        # no compilation cost (multi-word patterns, kamus, spelling rules)
        repair_text("warmup djalan Rp.1.--", [0.9])

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        texts = batch.column("text").to_pylist()
        refs = batch.column("media_ref").to_pylist()

        rows = [
            process_span(k, t, r, self.engine, **self.span_kwargs)
            for k, t, r in zip(kinds, texts, refs)
        ]

        extra = {}
        # the checkpoint runner's partition tag rides along to the rebuild
        if "part" in batch.column_names:
            extra["part"] = batch.column("part")
        return pa.table(
            {
                **extra,
                "doc_id": batch.column("doc_id"),
                "offset": batch.column("offset"),
                "kind": batch.column("kind"),
                "media_ref": batch.column("media_ref"),
                "raw_text": pa.array([r["raw_text"] for r in rows], pa.string()),
                "text": pa.array([r["text"] for r in rows], pa.string()),
                "dictionary_corrections": pa.array(
                    [r["dictionary_corrections"] for r in rows], pa.int32()
                ),
                "spelling_changes": pa.array(
                    [r["spelling_changes"] for r in rows], pa.int32()
                ),
                "mean_confidence": pa.array(
                    [r["mean_confidence"] for r in rows], pa.float64()
                ),
                "quality": pa.array([r["quality"] for r in rows], QUALITY_STRUCT),
                "error_code": pa.array([r["error_code"] for r in rows], pa.string()),
            }
        )
