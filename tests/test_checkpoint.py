"""Checkpoint/resume: partitioned output, manifest lineage, skip-on-rerun,
and waves — several partitions in one Ray Data execution, each committed
on its own."""
from __future__ import annotations

import hashlib
import json
import logging
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_ray import io, synth
from ocr_ray.stages.checkpoint import run_extract_checkpointed
from ocr_ray.stages.reassemble import DOC_OUT_SCHEMA


def test_checkpoint_run_and_resume(ray_session, tmp_path):
    table = synth.generate_interleaved(n_docs=30, seed=5)
    inp = tmp_path / "input"
    io.write_interleaved(table, str(inp), max_rows_per_file=10)  # 3 files
    out = tmp_path / "out"

    metrics = run_extract_checkpointed(str(inp), str(out), files_per_partition=1)
    assert metrics["partitions"] == 3
    assert metrics["partitions_run"] == 3
    assert metrics["n_docs"] == 30
    assert metrics["docs_per_sec"] > 0

    # partitioned layout + manifests
    parts = sorted(p.name for p in out.glob("part=*"))
    assert parts == ["part=00000", "part=00001", "part=00002"]
    manifest = json.loads((out / "_manifest" / "part-00001.json").read_text())
    assert manifest["n_docs"] == 10 and len(manifest["files"]) == 1

    total_rows = sum(
        pq.ParquetFile(f).metadata.num_rows for f in out.glob("part=*/*.parquet")
    )
    assert total_rows == 30

    # simulate a failed partition: delete one manifest → only it reruns
    (out / "_manifest" / "part-00002.json").unlink()
    before = {f: f.stat().st_mtime for f in out.glob("part=00000/*.parquet")}
    metrics2 = run_extract_checkpointed(str(inp), str(out), files_per_partition=1)
    assert metrics2["partitions_run"] == 1
    assert metrics2["partitions_skipped"] == 2
    after = {f: f.stat().st_mtime for f in out.glob("part=00000/*.parquet")}
    assert before == after  # untouched partitions not rewritten
    assert metrics2["n_docs"] == 30


def test_repartitioned_rerun_invalidates_and_prunes(ray_session, tmp_path):
    """Changing --files-per-partition must NOT silently reuse stale
    partition outputs (the manifest file list no longer matches), and
    part dirs beyond the new layout are removed (ADVICE r01)."""
    table = synth.generate_interleaved(n_docs=30, seed=6)
    inp = tmp_path / "input"
    io.write_interleaved(table, str(inp), max_rows_per_file=10)  # 3 files
    out = tmp_path / "out"

    m1 = run_extract_checkpointed(str(inp), str(out), files_per_partition=1)
    assert m1["partitions"] == 3

    # coarser layout: 2 partitions (2 files + 1 file) — every manifest's
    # file list mismatches, so nothing is skipped, and part=00002 from
    # the finer run is an orphan
    m2 = run_extract_checkpointed(str(inp), str(out), files_per_partition=2)
    assert m2["partitions"] == 2
    assert m2["partitions_run"] == 2 and m2["partitions_skipped"] == 0
    assert m2["orphans_removed"] == 1
    assert sorted(p.name for p in out.glob("part=*")) == ["part=00000", "part=00001"]
    assert not (out / "_manifest" / "part-00002.json").exists()
    assert m2["n_docs"] == 30

    # identical rerun now skips everything
    m3 = run_extract_checkpointed(str(inp), str(out), files_per_partition=2)
    assert m3["partitions_run"] == 0 and m3["partitions_skipped"] == 2


def _partition_tables(root: pathlib.Path) -> dict[str, pa.Table]:
    """Every ``part=K`` directory's rows, in ``doc_id`` order."""
    return {
        d.name: pa.concat_tables(
            [pq.read_table(f) for f in sorted(d.glob("*.parquet"))]
            or [DOC_OUT_SCHEMA.empty_table()]
        ).sort_by("doc_id")
        for d in sorted(root.glob("part=*"))
    }


def _assert_wave_telemetry(out: pathlib.Path, metrics: dict) -> None:
    """Each partition's wall is its document share of its wave's wall,
    so the partitions' walls sum to the run's (within rounding)."""
    rows = [json.loads(p.read_text()) for p in sorted(out.glob("_manifest/*.json"))]
    waves = {r["extra"]["wave"]: r["extra"]["wave_wall_sec"] for r in rows}
    assert len(waves) == metrics["waves"]
    assert abs(sum(waves.values()) - metrics["wall_sec"]) <= 0.001 * len(waves)
    shares = sum(r["wall_sec"] for r in rows)
    assert abs(shares - metrics["wall_sec"]) <= 0.001 * len(rows)
    for r in rows:
        assert r["wall_sec"] <= r["extra"]["wave_wall_sec"] + 0.001


def test_wave_output_equals_one_partition_per_launch(ray_session, tmp_path):
    """One wave of every partition writes exactly the rows that one
    partition per launch writes, partition by partition and column by
    column; files hold DOC_OUT_SCHEMA, without the routing ``part``
    column; and one ``doc_id`` present in two input files stays two
    documents in two partitions (the rebuild groups on ``(part,
    doc_id)``, not on ``doc_id`` alone)."""
    from ocr_ray.pipelines.extract import ExtractConfig

    table = synth.generate_interleaved(n_docs=24, seed=9)
    inp = tmp_path / "input"
    inp.mkdir()
    shared = table.column("doc_id")[0].as_py()
    for k in range(4):
        t = table.slice(6 * k, 6)
        if k == 3:  # file 3's first document reuses file 0's doc_id
            ids = [shared] + t.column("doc_id").to_pylist()[1:]
            t = t.set_column(0, "doc_id", pa.array(ids, pa.string()))
        pq.write_table(t, inp / f"part-{k:05d}.parquet")

    cfg = ExtractConfig(ocr_concurrency=1)
    m_wave = run_extract_checkpointed(str(inp), str(tmp_path / "wave"), config=cfg)
    m_one = run_extract_checkpointed(
        str(inp), str(tmp_path / "one"), config=cfg, partitions_per_launch=1
    )
    assert (m_wave["waves"], m_one["waves"]) == (1, 4)
    assert m_wave["partitions_run"] == m_one["partitions_run"] == 4
    assert m_wave["n_docs"] == m_one["n_docs"] == 24
    assert m_wave["n_spans"] == m_one["n_spans"]

    wave = _partition_tables(tmp_path / "wave")
    one = _partition_tables(tmp_path / "one")
    assert list(wave) == [f"part={k:05d}" for k in range(4)]
    assert list(wave) == list(one)
    for name in wave:
        assert wave[name].equals(one[name]), name

    for f in (tmp_path / "wave").glob("part=*/*.parquet"):
        assert pq.read_schema(f).equals(DOC_OUT_SCHEMA), f

    for k in (0, 3):
        t = wave[f"part={k:05d}"]
        src = table.slice(6 * k, 1)
        row = t.filter(pa.compute.equal(t.column("doc_id"), shared))
        assert row.num_rows == 1, k
        assert row.column("n_spans")[0].as_py() == len(src.column("spans")[0])

    _assert_wave_telemetry(tmp_path / "wave", m_wave)
    _assert_wave_telemetry(tmp_path / "one", m_one)


def _file_digests(paths) -> dict:
    return {
        f: (f.stat().st_mtime_ns, hashlib.sha256(f.read_bytes()).hexdigest())
        for f in paths
    }


def test_concurrent_kill_and_resume_no_reprocessing(ray_session, tmp_path, monkeypatch):
    """Death after the first wave of three partitions commits: the
    resume runs exactly the other five partitions, leaves every
    committed byte untouched and completes the output. Committed
    partitions have done their atomic rename and manifest write, the
    state a SIGKILL between waves leaves behind."""
    from ocr_ray.stages import checkpoint as cp

    table = synth.generate_interleaved(n_docs=120, seed=7)
    inp = tmp_path / "input"
    io.write_interleaved(table, str(inp), max_rows_per_file=15)  # 8 files
    out = tmp_path / "out"

    real_extract = cp.extract_documents
    calls = {"n": 0}

    def dying_extract(ds, config=None):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("simulated mid-run death")
        return real_extract(ds, config)

    monkeypatch.setattr(cp, "extract_documents", dying_extract)
    try:
        cp.run_extract_checkpointed(str(inp), str(out), partitions_per_launch=3)
        raise AssertionError("expected the injected death to propagate")
    except RuntimeError:
        pass
    monkeypatch.setattr(cp, "extract_documents", real_extract)

    committed = sorted(out.glob("_manifest/part-*.json"))
    assert [p.name for p in committed] == [f"part-{k:05d}.json" for k in range(3)]
    before = _file_digests(list(out.glob("part=*/*.parquet")) + committed)

    metrics = cp.run_extract_checkpointed(str(inp), str(out), partitions_per_launch=3)
    assert metrics["partitions"] == 8
    assert metrics["partitions_skipped"] == 3
    assert metrics["partitions_run"] == 5
    assert metrics["waves"] == 2
    assert metrics["n_docs"] == 120
    # zero re-processing: every pre-death output byte untouched
    assert _file_digests(before) == before

    total_rows = sum(
        pq.ParquetFile(f).metadata.num_rows for f in out.glob("part=*/*.parquet")
    )
    assert total_rows == 120


def test_zero_row_file_gets_its_partition(ray_session, tmp_path, monkeypatch):
    """A zero-row input file in a wave still gets its ``part=K``
    directory and an ``n_docs=0`` manifest row, and a rerun skips it.
    The file never reaches the read: Ray would turn it into a
    schema-less block and warn that an operator produced a bundle with
    a different schema. A wave of zero-row files runs no execution."""
    from ocr_ray.synth import INTERLEAVED_SCHEMA

    table = synth.generate_interleaved(n_docs=10, seed=4)
    inp = tmp_path / "input"
    inp.mkdir()
    pq.write_table(table.slice(0, 5), inp / "part-00000.parquet")
    pq.write_table(INTERLEAVED_SCHEMA.empty_table(), inp / "part-00001.parquet")
    pq.write_table(table.slice(5, 5), inp / "part-00002.parquet")
    out = tmp_path / "out"

    # Ray Data re-runs logging.config.dictConfig at each execution,
    # which drops any handler added to its loggers, so the warning is
    # recorded at the logger's method
    warnings: list[str] = []
    schema_log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    )
    log_warning = schema_log.warning

    def record_warning(msg, *args, **kwargs):
        warnings.append(str(msg) % args if args else str(msg))
        log_warning(msg, *args, **kwargs)

    monkeypatch.setattr(schema_log, "warning", record_warning)
    m1 = run_extract_checkpointed(str(inp), str(out))
    assert not [w for w in warnings if "different schema" in w], warnings
    assert (m1["partitions_run"], m1["waves"], m1["n_docs"]) == (3, 1, 10)
    assert (out / "part=00001").is_dir()
    row = json.loads((out / "_manifest" / "part-00001.json").read_text())
    assert (row["n_docs"], row["n_spans"]) == (0, 0)

    # a wave holding only the zero-row file
    (out / "_manifest" / "part-00001.json").unlink()
    from ocr_ray.stages import checkpoint as cp

    executions = []
    real_extract = cp.extract_documents
    monkeypatch.setattr(
        cp, "extract_documents",
        lambda *a: executions.append(a) or real_extract(*a),
    )
    m_empty = run_extract_checkpointed(str(inp), str(out))
    assert executions == []
    assert (m_empty["partitions_run"], m_empty["waves"]) == (1, 1)
    assert (out / "part=00001").is_dir()
    assert not list((out / "part=00001").iterdir())
    row = json.loads((out / "_manifest" / "part-00001.json").read_text())
    assert (row["n_docs"], row["n_spans"]) == (0, 0)

    m2 = run_extract_checkpointed(str(inp), str(out))
    assert (m2["partitions_run"], m2["partitions_skipped"], m2["waves"]) == (0, 3, 0)
    assert m2["n_docs"] == 10
