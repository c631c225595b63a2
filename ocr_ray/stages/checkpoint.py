"""Checkpoint-resumable partitioned extraction runs with per-partition
lineage — the batch-engine replacement for the reference's request
history sink (SQLite ``ocr_history``, app/services/db_service.py:197-224).

Layout under ``output_path``::

    part=00000/ ... parquet files      one directory per input partition
    _manifest/part-00000.json          lineage: input files, row counts,
                                       span counts, wall seconds, docs/s
    metrics.json                       whole-run rollup

A partition is the unit of resume: its output directory is written to a
temp path and atomically renamed, and its manifest row is written only
after the rename — a rerun skips every partition whose manifest row
exists and validates, so a killed job repeats at most one partition's
work. At 100 TB a partition is a group of input fragments; the streaming
executor still pipelines freely inside each partition.
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
from dataclasses import dataclass, field, replace

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


def run_partition(
    files: list[str], output_path: str, k: int, config: ExtractConfig
) -> PartitionResult:
    """Extract one partition into its directory and commit its manifest
    row, which records the resource plan in ``extra``."""
    out = pathlib.Path(output_path)
    part_dir = _partition_dir(out, k)
    tmp_dir = out / "_tmp" / f"part-{k:05d}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)

    t0 = time.perf_counter()
    docs = extract_documents(io.read_interleaved(files), config)
    # count via streaming metadata from the written files, not take_all
    docs.write_parquet(str(tmp_dir))
    wall = time.perf_counter() - t0

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    n_docs = n_spans = 0
    for f in tmp_dir.glob("*.parquet"):
        md = pq.ParquetFile(f)
        n_docs += md.metadata.num_rows
        # single-column read + kernel sum (no Python list round-trip)
        n_spans += pc.sum(
            pq.read_table(f, columns=["n_spans"]).column("n_spans")
        ).as_py() or 0

    if part_dir.exists():
        shutil.rmtree(part_dir)
    os.replace(tmp_dir, part_dir)

    result = PartitionResult(
        partition=k,
        files=[str(f) for f in files],
        n_docs=n_docs,
        n_spans=n_spans,
        wall_sec=round(wall, 3),
        docs_per_sec=round(n_docs / wall, 3) if wall > 0 else 0.0,
        extra={"plan": extract_plan(config).manifest()},
    )
    mp = _manifest_path(out, k)
    mp.parent.mkdir(parents=True, exist_ok=True)
    mp.write_text(json.dumps(result.__dict__, default=str))
    return result


def _patch_http_fs_probe_for_threads() -> None:
    """Make Ray's per-read HTTP-filesystem probe thread-safe.

    ``path_util._is_http_filesystem`` retries
    ``from fsspec.implementations.http import HTTPFileSystem`` on every
    dataset construction and only catches ``ModuleNotFoundError``. When
    aiohttp is absent that import fails and is retried each time; two
    threads racing the retry can observe the partially-initialized
    module and get a plain ``ImportError`` ("cannot import name …"),
    which Ray does not catch. Either exception means the same thing —
    no fsspec HTTP filesystem is available — so wrap the probe to
    answer False for both. Idempotent."""
    from ocr_ray.context import missing_ray_symbol

    try:
        import ray.data.datasource.path_util as pu
    except ImportError as e:
        raise missing_ray_symbol("ray.data.datasource.path_util") from e
    probe = getattr(pu, "_is_http_filesystem", None)
    if probe is None:
        raise missing_ray_symbol("path_util._is_http_filesystem")
    if getattr(probe, "_ocr_ray_safe", False):
        return

    def safe_probe(fs):
        try:
            return probe(fs)
        except ImportError:
            return False

    safe_probe._ocr_ray_safe = True
    pu._is_http_filesystem = safe_probe


def run_extract_checkpointed(
    input_path: str,
    output_path: str,
    config: ExtractConfig | None = None,
    files_per_partition: int = 1,
    resume: bool = True,
    max_concurrent: int = 1,
) -> dict:
    """Run the extraction pipeline over ``input_path`` partition by
    partition; returns the whole-run metrics dict (also written to
    ``output_path``/metrics.json).

    ``max_concurrent > 1`` runs that many partitions' pipelines at once
    (driver threads; Ray Data streams them concurrently) — useful for
    many-SMALL-partition layouts where one partition can't saturate the
    cluster. Each partition still commits independently (temp dir +
    atomic rename + manifest), so resume semantics are unchanged;
    ``wall_sec`` stays the SUM of per-partition walls (cost), while
    overlapped wall-clock shows up in ``docs_per_sec`` only."""
    config = config or ExtractConfig()
    files = io.input_files(input_path)
    partitions = [
        files[i : i + files_per_partition]
        for i in range(0, len(files), files_per_partition)
    ]
    out = pathlib.Path(output_path)
    out.mkdir(parents=True, exist_ok=True)

    todo: list[tuple[int, list[str]]] = []
    skipped: dict[int, PartitionResult] = {}
    for k, part_files in enumerate(partitions):
        if resume and partition_complete(
            output_path, k, expected_files=[str(f) for f in part_files]
        ):
            row = json.loads(_manifest_path(out, k).read_text())
            skipped[k] = PartitionResult(**{**row, "skipped": True})
        else:
            todo.append((k, part_files))

    # concurrent partitions each build their own actor pool and
    # shuffle: the plan splits the cluster between them and says how
    # many pools fit at once; each partition then runs its share
    plan = extract_plan(config, pipelines=max_concurrent if len(todo) > 1 else 1)
    ran_results: dict[int, PartitionResult] = {}
    if plan.pipelines > 1:
        from concurrent.futures import ThreadPoolExecutor

        config = replace(
            config,
            ocr_concurrency=plan.pool_actors,
            reassemble_partitions=plan.shuffle_partitions,
        )

        _patch_http_fs_probe_for_threads()
        with ThreadPoolExecutor(max_workers=plan.pipelines) as pool:
            futures = {
                k: pool.submit(run_partition, part_files, output_path, k, config)
                for k, part_files in todo
            }
            ran_results = {k: f.result() for k, f in futures.items()}
    else:
        for k, part_files in todo:
            ran_results[k] = run_partition(part_files, output_path, k, config)

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
    metrics = {
        "partitions": len(partitions),
        "partitions_run": len(ran),
        "partitions_skipped": len(results) - len(ran),
        "orphans_removed": orphans,
        "n_docs": sum(r.n_docs for r in results),
        "n_spans": sum(r.n_spans for r in results),
        "wall_sec": round(sum(r.wall_sec for r in ran), 3),
        "docs_per_sec": (
            round(sum(r.n_docs for r in ran) / max(sum(r.wall_sec for r in ran), 1e-9), 3)
            if ran
            else 0.0
        ),
        "plan": extract_plan(config).manifest(),
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=1))
    return metrics
