"""Bulk media ingest — the at-scale replacement for the reference's
per-request MinIO object fetch (app/services/minio_service.py:30-39).

``read_media_files`` wraps ``ray.data.read_binary_files`` into the
engine's media-table shape (media_id, media_ref, payload): one row per
object, payloads stay in the object store as Arrow binary columns, and
``media_ref`` keeps the source URI so downstream stages (a real OCR
engine) can re-fetch or attribute lineage.

``attach_media_payloads`` joins a span table's media_refs against an
ingested media table batch-side (broadcast for small media sets) — the
pattern a real deployment uses instead of the sandbox's deterministic
``synth.media_payload``.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def read_media_files(paths, *, include_paths: bool = True, **kwargs):
    """Directory/list of media files → Dataset(media_id, media_ref, payload)."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=include_paths, **kwargs)

    def shape(batch: pa.Table) -> pa.Table:
        import hashlib

        refs = batch.column("path") if "path" in batch.column_names else pa.array(
            [""] * batch.num_rows, pa.string()
        )
        # stable media_id: 63-bit hash of the source ref
        id_vals = [
            int.from_bytes(
                hashlib.blake2b(str(r).encode(), digest_size=8).digest(), "big"
            )
            >> 1
            for r in refs.to_pylist()
        ]
        return pa.table(
            {
                "media_id": pa.array(id_vals, pa.int64()),
                "media_ref": pc.cast(refs, pa.string()),
                "payload": batch.column("bytes"),
            }
        )

    return ds.map_batches(shape, batch_format="pyarrow")


def attach_media_payloads(spans, media_table: pa.Table):
    """Broadcast-join span rows to ingested payloads by media_ref.

    Suitable when the per-partition media set fits the object store
    (images for one shard); at full scale a deployment instead resolves
    media_ref → object storage inside the OCR actor (the engine
    registry's real path)."""
    from ocr_ray.ops.joins import broadcast_join

    small = media_table.select(["media_ref", "payload"])
    return broadcast_join(spans, small, keys=["media_ref"], join_type="left outer")
