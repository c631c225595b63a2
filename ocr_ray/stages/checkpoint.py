"""Checkpoint-resumable partitioned extraction runs with per-partition
lineage — the batch-engine replacement for the reference's request
history sink (SQLite ``ocr_history``, app/services/db_service.py:197-224).

Layout under ``output_path``::

    part=00000/ ... parquet files      one directory per input partition
    _manifest/part-00000.json          lineage: input files, row counts,
                                       span counts, wall seconds, docs/s
    metrics.json                       whole-run rollup

A partition is the unit of resume, a wave of partitions the unit of
execution. A wave (``partitions_per_launch`` partitions, all pending
ones by default) runs as ONE Ray Data execution: its rows carry their
partition index through the pipeline and are written partitioned by it
into a temp path. Each partition's directory is then atomically renamed
into place, and its manifest row is written only after the rename — a
rerun skips every partition whose manifest row exists and validates, so
a killed job repeats at most one wave's work. At 100 TB a partition is a
group of input fragments; the streaming executor pipelines freely
across the whole wave.
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_ray import io
from ocr_ray.pipelines.extract import (
    ExtractConfig,
    extract_documents,
    extract_plan,
)


@dataclass
class PartitionResult:
    partition: int
    files: list[str]
    n_docs: int
    n_spans: int
    wall_sec: float
    docs_per_sec: float
    skipped: bool = False
    extra: dict = field(default_factory=dict)


def _manifest_path(out: pathlib.Path, k: int) -> pathlib.Path:
    return out / "_manifest" / f"part-{k:05d}.json"


def _partition_dir(out: pathlib.Path, k: int) -> pathlib.Path:
    return out / f"part={k:05d}"


def partition_complete(output_path: str, k: int,
                       expected_files: list[str] | None = None) -> bool:
    """A partition is resumable only if its manifest row is valid AND —
    when ``expected_files`` is given — was produced from exactly the
    same input file list. Without the file check, rerunning with a
    different ``files_per_partition`` (or after the input set changed)
    silently reused stale outputs (ADVICE r01)."""
    out = pathlib.Path(output_path)
    mp = _manifest_path(out, k)
    if not mp.exists() or not _partition_dir(out, k).exists():
        return False
    try:
        row = json.loads(mp.read_text())
    except (ValueError, OSError):
        return False
    if row.get("n_docs", -1) < 0:
        return False
    if expected_files is not None and row.get("files") != [
        str(f) for f in expected_files
    ]:
        return False
    return True


def tag_partitions(batch: pa.Table, part_map: dict[str, int]) -> pa.Table:
    """Replace the read's ``path`` column with the int64 ``part`` (the
    partition index) each row belongs to, under ``io.wave_part_map``."""
    paths = pc.dictionary_encode(batch.column("path").combine_chunks())
    parts = pa.array(
        [io.part_of(part_map, p) for p in paths.dictionary.to_pylist()],
        pa.int64(),
    )
    return batch.drop_columns(["path"]).append_column(
        "part", pc.take(parts, paths.indices)
    )


def _count(part_dir: pathlib.Path) -> tuple[int, int]:
    """(documents, spans) in one written partition directory, from file
    metadata and the ``n_spans`` column alone."""
    n_docs = n_spans = 0
    for f in part_dir.glob("*.parquet"):
        n_docs += pq.ParquetFile(f).metadata.num_rows
        n_spans += pc.sum(
            pq.read_table(f, columns=["n_spans"]).column("n_spans")
        ).as_py() or 0
    return n_docs, n_spans


def run_wave(
    partitions: list[list[str]],
    wave: list[int],
    output_path: str,
    config: ExtractConfig,
    index: int,
) -> tuple[list[PartitionResult], float]:
    """Extract a wave of partitions in ONE Ray Data execution, then
    commit each partition on its own: rename its directory into place
    and write its manifest row. Returns the wave's results and wall.

    Rows are tagged with their partition on read and written with
    ``partition_cols=["part"]``, so the wave pays one span pool, one
    shuffle and one cold dictionary memo. Files whose footer counts no
    rows are left out of the read, and a wave without rows runs no
    execution. A partition's ``wall_sec`` is
    its document share of the wave wall; its manifest's ``extra`` holds
    the resource plan, the wave index and the whole wave's wall."""
    out = pathlib.Path(output_path)
    tmp = out / "_tmp"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    # a zero-row file would reach the pipeline as a schema-less block;
    # its partition is committed empty below all the same
    files = [
        f
        for k in wave
        for f in partitions[k]
        if pq.ParquetFile(f).metadata.num_rows
    ]

    t0 = time.perf_counter()
    if files:
        ds = io.read_interleaved(files, include_paths=True).map_batches(
            tag_partitions,
            fn_kwargs={"part_map": io.wave_part_map(partitions, wave)},
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        # the module global, so a caller can wrap it to observe each wave
        docs = extract_documents(ds, config)
        docs.write_parquet(str(tmp), partition_cols=["part"])
    wall = time.perf_counter() - t0

    counts = {k: _count(tmp / f"part={k}") for k in wave}
    wave_docs = sum(n_docs for n_docs, _ in counts.values())
    extra = {
        "plan": extract_plan(config).manifest(),
        "wave": index,
        "wave_wall_sec": round(wall, 3),
    }
    results = []
    for k in wave:
        n_docs, n_spans = counts[k]
        share = wall * (n_docs / wave_docs if wave_docs else 1 / len(wave))
        src = tmp / f"part={k}"
        src.mkdir(exist_ok=True)  # a partition without rows writes no files
        part_dir = _partition_dir(out, k)
        if part_dir.exists():
            shutil.rmtree(part_dir)
        os.replace(src, part_dir)
        result = PartitionResult(
            partition=k,
            files=[str(f) for f in partitions[k]],
            n_docs=n_docs,
            n_spans=n_spans,
            wall_sec=round(share, 3),
            docs_per_sec=round(n_docs / share, 3) if share > 0 else 0.0,
            extra=extra,
        )
        mp = _manifest_path(out, k)
        mp.parent.mkdir(parents=True, exist_ok=True)
        mp.write_text(json.dumps(result.__dict__, default=str))
        results.append(result)
    shutil.rmtree(tmp)
    return results, wall


def run_extract_checkpointed(
    input_path: str,
    output_path: str,
    config: ExtractConfig | None = None,
    files_per_partition: int = 1,
    resume: bool = True,
    partitions_per_launch: int = 0,
) -> dict:
    """Run the extraction pipeline over ``input_path`` wave by wave;
    returns the whole-run metrics dict (also written to
    ``output_path``/metrics.json).

    ``partitions_per_launch`` partitions run as one wave, one Ray Data
    execution (``run_wave``); 0 puts every pending partition in one
    wave. Each partition still commits on its own, so a kill repeats at
    most one wave. ``wall_sec`` is the sum of the wave walls."""
    config = config or ExtractConfig()
    files = io.input_files(input_path)
    partitions = [
        files[i : i + files_per_partition]
        for i in range(0, len(files), files_per_partition)
    ]
    out = pathlib.Path(output_path)
    out.mkdir(parents=True, exist_ok=True)

    todo: list[int] = []
    skipped: dict[int, PartitionResult] = {}
    for k, part_files in enumerate(partitions):
        if resume and partition_complete(
            output_path, k, expected_files=[str(f) for f in part_files]
        ):
            row = json.loads(_manifest_path(out, k).read_text())
            skipped[k] = PartitionResult(**{**row, "skipped": True})
        else:
            todo.append(k)

    size = max(1, partitions_per_launch or len(todo))
    ran_results: dict[int, PartitionResult] = {}
    wave_walls: list[float] = []
    for w0 in range(0, len(todo), size):
        wave_results, wall = run_wave(
            partitions, todo[w0 : w0 + size], output_path, config,
            index=len(wave_walls),
        )
        ran_results.update((r.partition, r) for r in wave_results)
        wave_walls.append(wall)

    results: list[PartitionResult] = [
        skipped.get(k) or ran_results[k] for k in range(len(partitions))
    ]

    # remove orphan partitions from a previous, differently-partitioned
    # run (part dirs / manifest rows beyond the current layout) so the
    # output directory holds exactly this run's partitions
    orphans = 0
    for d in out.glob("part=*"):
        try:
            idx = int(d.name.split("=")[1])
        except (IndexError, ValueError):
            continue
        if idx >= len(partitions):
            shutil.rmtree(d)
            mp = _manifest_path(out, idx)
            if mp.exists():
                mp.unlink()
            orphans += 1

    ran = [r for r in results if not r.skipped]
    wall = sum(wave_walls)
    metrics = {
        "partitions": len(partitions),
        "partitions_run": len(ran),
        "partitions_skipped": len(results) - len(ran),
        "orphans_removed": orphans,
        "waves": len(wave_walls),
        "n_docs": sum(r.n_docs for r in results),
        "n_spans": sum(r.n_spans for r in results),
        "wall_sec": round(wall, 3),
        "docs_per_sec": (
            round(sum(r.n_docs for r in ran) / max(wall, 1e-9), 3)
            if ran
            else 0.0
        ),
        "plan": extract_plan(config).manifest(),
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1))
    return metrics
