"""Reassemble processed spans into documents, preserving offset order.

The one mandatory shuffle in the pipeline (partitioning key: ``doc_id``).
Implementation follows the exact pattern Ray Data's own
``GroupedData.map_groups`` uses — ``repartition(N, keys=["doc_id"],
sort=True)`` then whole-block ``map_batches`` (``batch_size=None``), which
Ray guarantees keeps every group fully inside one batch — but replaces the
per-group Python UDF dispatch with ONE vectorized rebuild per block:
group boundaries via Arrow/numpy run-length detection, the spans list
column via ``ListArray.from_arrays`` (no per-row Python), per-group stat
sums via ``np.add.reduceat``. Only the document-text merge (a string join
per doc, reference page-merge format ``--- Halaman {n} ---\\n{text}``
joined by blank lines, app/services/ocr_service.py:594-601) touches
Python strings.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_ray.stages.process import MEDIA_KINDS

DOC_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        (
            "spans",
            pa.list_(
                pa.struct(
                    [
                        ("kind", pa.string()),
                        ("text", pa.string()),
                        ("media_ref", pa.string()),
                        ("offset", pa.int32()),
                    ]
                )
            ),
        ),
        ("doc_text", pa.string()),
        ("n_spans", pa.int32()),
        ("n_media_spans", pa.int32()),
        ("n_error_spans", pa.int32()),
        ("dictionary_corrections", pa.int32()),
        ("spelling_changes", pa.int32()),
        ("mean_quality", pa.float64()),
    ]
)


def merge_doc_text(kinds: list[str], texts: list[str]) -> str:
    """Frozen document-text merge: spans in offset order; media spans get a
    1-based ``--- Halaman {n} ---`` header counted over the doc's media
    spans; empty texts skipped; parts joined with blank lines."""
    parts = []
    page_no = 0
    for kind, text in zip(kinds, texts):
        if kind in MEDIA_KINDS:
            page_no += 1
            if text:
                parts.append(f"--- Halaman {page_no} ---\n{text}")
        elif text:
            parts.append(text)
    return "\n\n".join(parts)


def rebuild_docs_block(batch: pa.Table) -> pa.Table:
    """One block of span rows → its documents (DOC_OUT_SCHEMA). A span
    table tagged with the checkpoint runner's ``part`` column is grouped
    on ``(part, doc_id)``, so one ``doc_id`` in two input partitions
    stays two documents, and the output keeps ``part`` as its first
    column."""
    tagged = "part" in batch.column_names
    if batch.num_rows == 0:
        empty = DOC_OUT_SCHEMA.empty_table()
        if tagged:
            empty = empty.add_column(0, "part", pa.array([], pa.int64()))
        return empty

    keys = ["part", "doc_id"] if tagged else ["doc_id"]
    t = batch.sort_by([(k, "ascending") for k in keys + ["offset"]])
    doc_ids = t.column("doc_id").combine_chunks()
    n = len(doc_ids)

    # group boundaries without per-row Python: dictionary-encode each key
    # to integer codes (sorted input → runs) and diff the code arrays
    import pyarrow.compute as pc

    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        codes = pc.dictionary_encode(t.column(k).combine_chunks()).indices
        codes = codes.to_numpy(zero_copy_only=False)
        change[1:] |= codes[1:] != codes[:-1]
    starts = np.flatnonzero(change)
    list_offsets = np.append(starts, n).astype(np.int32)

    spans_struct = pa.StructArray.from_arrays(
        [
            t.column("kind").combine_chunks(),
            t.column("text").combine_chunks(),
            t.column("media_ref").combine_chunks(),
            t.column("offset").combine_chunks().cast(pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    spans_list = pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), spans_struct)

    starts_arr = pa.array(starts, pa.int64())
    group_ids = pc.take(doc_ids, starts_arr)
    n_spans = np.diff(list_offsets).astype(np.int32)

    kinds = t.column("kind").to_pylist()
    texts = t.column("text").to_pylist()
    doc_texts = [
        merge_doc_text(kinds[s:e], texts[s:e])
        for s, e in zip(list_offsets[:-1], list_offsets[1:])
    ]

    is_media = np.isin(np.array(kinds, dtype=object), list(MEDIA_KINDS)).astype(np.int64)
    n_media = np.add.reduceat(is_media, starts).astype(np.int32)

    if "error_code" in t.column_names:
        err_col = t.column("error_code").combine_chunks()
        is_err = pc.is_valid(err_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n_errors = np.add.reduceat(is_err, starts).astype(np.int32)
    else:
        n_errors = np.zeros(len(starts), dtype=np.int32)

    dict_corr = np.add.reduceat(
        t.column("dictionary_corrections").to_numpy(zero_copy_only=False).astype(np.int64),
        starts,
    ).astype(np.int32)
    spell = np.add.reduceat(
        t.column("spelling_changes").to_numpy(zero_copy_only=False).astype(np.int64),
        starts,
    ).astype(np.int32)

    if "quality" in t.column_names:
        overall = (
            t.column("quality").combine_chunks().field("overall")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        mean_q = np.add.reduceat(overall, starts) / n_spans
    else:
        mean_q = np.full(len(starts), np.nan)

    part = (
        {"part": pc.take(t.column("part").combine_chunks(), starts_arr)}
        if tagged
        else {}
    )
    return pa.table(
        {
            **part,
            "doc_id": group_ids,
            "spans": spans_list,
            "doc_text": pa.array(doc_texts, pa.string()),
            "n_spans": pa.array(n_spans, pa.int32()),
            "n_media_spans": pa.array(n_media, pa.int32()),
            "n_error_spans": pa.array(n_errors, pa.int32()),
            "dictionary_corrections": pa.array(dict_corr, pa.int32()),
            "spelling_changes": pa.array(spell, pa.int32()),
            "mean_quality": pa.array(mean_q, pa.float64()),
        }
    )


def reassemble(ds, num_partitions: int | None = None):
    """Hash-partition spans by doc_id and rebuild documents per block.

    Scale path: a ``doc_id`` hash ``repartition`` + one vectorized
    rebuild per block — the same group-integrity guarantee Ray's own
    ``map_groups`` builds on, without its per-group Python dispatch.
    """
    from ocr_ray.context import apply_to_dataset, cluster_cpus, plan_resources

    if num_partitions is None:
        num_partitions = plan_resources(cluster_cpus()).shuffle_partitions
    # sort=False: group co-location needs only the hash partition; the
    # block rebuild sorts by (doc_id, offset) itself, and the shuffle
    # finalizer's sort chokes on fully-empty (schema-less) partitions
    apply_to_dataset(ds)
    shuffled = ds.repartition(num_partitions, keys=["doc_id"], sort=False)
    return shuffled.map_batches(
        rebuild_docs_block, batch_format="pyarrow", batch_size=None
    )
