"""Explode interleaved documents to one row per span — vectorized Arrow.

``(doc_id, spans: list<struct>)`` → ``(doc_id, offset, kind, text,
media_ref)``. The reference's analogue is the PDF→pages explosion
(app/services/ocr_service.py:527-539); here every span becomes an
independent row so the streaming executor can spread a media-heavy
document (the skew exemplar) across many tasks/actors before the
expensive OCR stage (SURVEY.md §4 "Skew").

Pure ``pyarrow`` kernels (``flatten`` + ``list_parent_indices`` +
``take``) — no per-row Python. An input ``part`` column (the checkpoint
runner's partition tag) is carried onto every span row.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def explode_spans(batch: pa.Table) -> pa.Table:
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    parents = pc.list_parent_indices(spans)
    doc_id = pc.take(batch.column("doc_id"), parents)
    part = (
        {"part": pc.take(batch.column("part"), parents)}
        if "part" in batch.column_names
        else {}
    )
    return pa.table(
        {
            **part,
            "doc_id": doc_id,
            "offset": flat.field("offset"),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
        }
    )
