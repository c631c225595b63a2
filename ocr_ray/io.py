"""Lance-or-Parquet storage shim.

The target data model is a Lance table of interleaved documents
(BASELINE.json input_hint). Lance is not installed in this sandbox, so one
module owns the format decision: when ``lance``/``ray.data.read_lance`` is
importable we use it, otherwise we fall back to a Parquet directory with
the IDENTICAL Arrow schema. Every other module goes through these two
functions, so a Lance-enabled environment needs zero changes elsewhere.
"""
from __future__ import annotations

import pathlib

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - absent in this sandbox
    import lance  # type: ignore

    HAS_LANCE = True
except ImportError:
    lance = None
    HAS_LANCE = False


def write_interleaved(table: pa.Table, path: str, max_rows_per_file: int = 100_000) -> str:
    """Write an interleaved-docs table; returns the written path."""
    p = pathlib.Path(path)
    if HAS_LANCE:
        lance.write_dataset(table, str(p), max_rows_per_file=max_rows_per_file)
        return str(p)
    p.mkdir(parents=True, exist_ok=True)
    # shard into multiple files so a Ray read gets parallel fragments
    n = table.num_rows
    shard = 0
    for start in range(0, max(n, 1), max_rows_per_file):
        pq.write_table(
            table.slice(start, max_rows_per_file),
            p / f"part-{shard:05d}.parquet",
        )
        shard += 1
    return str(p)


def _default_read_blocks(path) -> int | None:
    """Input block count for the read: the resource plan's
    ``read_blocks`` (finer blocks for wide actor pools, see
    ``context.plan_resources``), capped at one block per file so the
    read never pays row-group-splitting overhead on many-file corpora;
    None keeps Ray's default."""
    import ray

    if not ray.is_initialized():
        return None
    from ocr_ray.context import cluster_cpus, plan_resources

    plan = plan_resources(cluster_cpus())
    if not plan.read_blocks:
        return None
    # path may be a directory, a single file, or an explicit file list
    # (checkpoint partitions pass lists)
    n_files = (
        len(path) if isinstance(path, (list, tuple)) else len(input_files(path))
    )
    if n_files < 2 * plan.cpus:
        # few big files (fewer than Ray's default ~2×CPU blocks): let
        # Ray's own splitter choose (it can split a single parquet into
        # row-group chunks)
        return None
    return min(plan.read_blocks, n_files)


def read_interleaved(path: str, *, columns: list[str] | None = None, **ray_kwargs):
    """Read the interleaved table as a ``ray.data.Dataset`` (lazy)."""
    import ray.data as rd

    if (
        HAS_LANCE
        and hasattr(rd, "read_lance")
        and isinstance(path, str)
        and pathlib.Path(path).suffix == ".lance"
    ):
        return rd.read_lance(path, columns=columns, **ray_kwargs)
    if "override_num_blocks" not in ray_kwargs:
        nb = _default_read_blocks(path)
        if nb:
            ray_kwargs["override_num_blocks"] = nb
    return rd.read_parquet(path, columns=columns, **ray_kwargs)


def input_files(path: str) -> list[str]:
    """Fragment file list of an interleaved table (checkpoint partitioning)."""
    p = pathlib.Path(path)
    if p.is_file():
        return [str(p)]
    return sorted(str(f) for f in p.glob("*.parquet"))


# --------------------------------------------------------- JSONL source

def write_interleaved_jsonl(
    table: pa.Table, path: str, max_rows_per_file: int = 100_000
) -> str:
    """Write the interleaved table as sharded JSON-lines — the common
    interchange format for document corpora. Row shape:
    ``{"doc_id": ..., "spans": [{"kind", "text", "media_ref",
    "offset"}, ...]}``."""
    import json

    p = pathlib.Path(path)
    p.mkdir(parents=True, exist_ok=True)
    shard = 0
    for start in range(0, max(table.num_rows, 1), max_rows_per_file):
        chunk = table.slice(start, max_rows_per_file)
        with open(p / f"part-{shard:05d}.jsonl", "w") as f:
            for row in chunk.to_pylist():
                f.write(json.dumps(row, separators=(",", ":")) + "\n")
        shard += 1
    return str(p)


def read_interleaved_jsonl(path: str, **ray_kwargs):
    """Read a JSONL interleaved corpus as a ``ray.data.Dataset`` with
    the SAME Arrow schema as the parquet path (spans as
    ``list<struct<kind,text,media_ref,offset:int32>>``), so every
    downstream stage is source-agnostic. The JSON reader infers
    ``offset`` as int64 per block — the normalizing cast below pins the
    canonical schema and guards against per-block drift."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ocr_ray.synth import INTERLEAVED_SCHEMA

    spans_type = INTERLEAVED_SCHEMA.field("spans").type

    def normalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
                "spans": pc.cast(batch.column("spans"), spans_type),
            },
            schema=INTERLEAVED_SCHEMA,
        )

    return rd.read_json(path, **ray_kwargs).map_batches(
        normalize, batch_format="pyarrow"
    )


# ---------------------------------------------------------- CSV source


def documents_csv_path(sf_dir: str) -> str:
    """Quoted-CSV copy of the documents table, written once per sf
    under the /tmp cache — the third source format (parquet/Lance,
    JSONL, CSV) the engine reads natively. Text cells keep embedded
    newlines/quotes through pyarrow's RFC-4180 quoting, so the
    round-trip is byte-exact and any parquet-backed oracle applies
    unchanged to the CSV-read pipeline."""
    import pathlib

    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    key = sf_dir.strip("/").replace("/", "-")
    path = pathlib.Path(f"/tmp/ocr_ray_cache/documents-csv-{key}")
    marker = path / "_SUCCESS"
    if not marker.exists():
        path.mkdir(parents=True, exist_ok=True)
        t = pq.read_table(f"{sf_dir}/documents.parquet")
        pacsv.write_csv(t, str(path / "documents.csv"))
        marker.touch()
    return str(path / "documents.csv")


def read_documents_csv(path: str, **ray_kwargs):
    """ray.data CSV reader for the documents layout: explicit column
    types (no inference drift) and multiline quoted values enabled."""
    import pyarrow.csv as pacsv
    import ray.data as rd

    return rd.read_csv(
        path,
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            column_types={
                "doc_id": pa.int64(),
                "text": pa.string(),
                "lang": pa.string(),
                "source": pa.string(),
                "n_chars": pa.int64(),
            }
        ),
        **ray_kwargs,
    )
