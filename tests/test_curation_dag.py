"""The flagship composed curation DAG: stats pipeline vs a DuckDB
replay on a corpus with REAL exact dups / near dups / contamination /
quality rejects (the synthetic testdata has no doc-level exact dups, so
these tests plant every funnel stage), plus the checkpoint runner's
kill-and-resume and incremental-fingerprint semantics."""
from __future__ import annotations

import json
import os
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# Each doc interleaves English stopwords with doc-unique tokens: the
# stopword ratio passes the quality filter, while EVERY 3-token (and
# 8-token) window contains a unique token — unrelated docs share zero
# shingles, so only the PLANTED near-dup / contamination relations fire.
_GOOD = (
    "the quick brown fox jumps over the lazy dog while the old miller "
    "watches the river flow past the wooden bridge near the quiet town "
)


def _doc(i: int, salt: str = "") -> str:
    toks = []
    for j in range(40):
        toks.append("the" if j % 2 == 0 else "and")
        toks.append(f"{salt}tok{j}word{i}")
    return " ".join(toks) + " "


def _corpus() -> pa.Table:
    rows: list[tuple[int, str]] = []
    # 0 is a benchmark doc (doc_id % 50 == 0) — a short run of its
    # tokens contaminates doc 7 below
    rows.append((0, _doc(0, "benchmark")))
    # unique good docs
    for i in range(1, 6):
        rows.append((i, _doc(i, f"unique{i}")))
    # exact dup pair: 6 is keeper, 106 drops at the exact stage
    rows.append((6, _doc(6, "twin")))
    rows.append((106, _doc(6, "twin")))
    # whitespace/case variant: same fingerprint as 6 (normalization)
    rows.append((206, ("  " + _doc(6, "twin").upper()).replace(" ", "  ")))
    # near-dup pair: 8 keeps (min id), 108 drops at the near-dup stage
    base = _doc(8, "near")
    rows.append((8, base + "alpha beta gamma delta"))
    rows.append((108, base + "alpha beta gamma epsilon"))
    # contaminated: copies a 10-token run from INSIDE benchmark doc 0's
    # body (3 shared 8-token shingles) — far below the near-dup bar
    rows.append(
        (7, _doc(7, "clean") + " ".join(_doc(0, "benchmark").split()[20:30]))
    )
    # quality rejects: too short / too much punctuation
    rows.append((9, "tiny text"))
    rows.append((10, _GOOD + "!!! ??? *** ((( ))) " * 40))
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> pathlib.Path:
    d = tmp_path_factory.mktemp("curation_corpus")
    t = _corpus()
    # two files → two runner partitions, split by row order
    pq.write_table(t.slice(0, 7), d / "part-0.parquet")
    pq.write_table(t.slice(7), d / "part-1.parquet")
    return d


def _stats_df(ray_session, corpus_dir):
    import ray.data as rd

    from ocr_ray.pipelines.curation import curation_dag_stats

    docs = rd.read_parquet(str(corpus_dir))

    def is_bench(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 50 == 0))

    bench = docs.map_batches(is_bench, batch_format="pyarrow")
    return (
        curation_dag_stats(docs, bench)
        .to_pandas()
        .sort_values("split")
        .reset_index(drop=True)
    )


def test_stats_matches_duckdb_on_planted_funnel(ray_session, corpus_dir):
    import duckdb

    from ocr_ray.driver import _curation_dag_sql

    con = duckdb.connect()
    con.register("documents", _corpus())
    want = (
        con.execute(_curation_dag_sql())
        .df()
        .sort_values("split")
        .reset_index(drop=True)
    )
    got = _stats_df(ray_session, corpus_dir)
    assert want.shape == got.shape
    for col in want.columns:
        assert list(want[col]) == list(got[col]), col


def test_funnel_semantics(ray_session, corpus_dir):
    """Every planted stage fires: the exact twin pair and the
    normalization variant collapse to one keeper; the near-dup twin
    drops; the contaminated doc and the benchmark doc drop; the quality
    rejects never enter."""
    import ray.data as rd

    from ocr_ray.ops.dedup import _shingle_rows_factory
    from ocr_ray.pipelines.curation import (
        curation_keepers,
        curation_neardup_drops,
        curation_scored,
        curation_survivors,
    )

    docs = rd.read_parquet(str(corpus_dir))
    import ray

    from ocr_ray.ops.decontam import benchmark_shingle_set

    def is_bench(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 50 == 0))

    bench_ref = ray.put(
        benchmark_shingle_set(
            docs.map_batches(is_bench, batch_format="pyarrow")
        )
    )
    scored = curation_scored(docs, bench_ref)
    sdf = scored.to_pandas()
    assert 9 not in set(sdf.doc_id) and 10 not in set(sdf.doc_id)
    keepers = curation_keepers(
        curation_scored(docs, bench_ref)
    ).materialize()
    kdf = keepers.to_pandas()
    assert 6 in set(kdf.doc_id)
    assert 106 not in set(kdf.doc_id) and 206 not in set(kdf.doc_id)
    assert int(kdf[kdf.doc_id == 6].n_copies.iloc[0]) == 3
    drops = curation_neardup_drops(docs, keepers)
    assert set(drops.to_pandas().doc_id) == {108}
    surv = curation_survivors(keepers, drops).to_pandas()
    ids = set(surv.doc_id)
    assert 8 in ids and 108 not in ids
    assert 0 not in ids and 7 not in ids  # decontaminated


def test_runner_end_to_end_and_resume(ray_session, corpus_dir, tmp_path):
    from ocr_ray.pipelines.curation import (
        CurationConfig,
        run_curation_checkpointed,
    )

    out = tmp_path / "run"
    cfg = CurationConfig()
    m1 = run_curation_checkpointed(str(corpus_dir), str(out), cfg)
    assert m1["aborted_at"] is None
    assert m1["funnel"]["n_raw"] == 14
    assert m1["funnel"]["n_filtered"] == 12  # 9, 10 rejected
    assert m1["funnel"]["n_exact_keepers"] == 10  # 106, 206 collapse
    assert m1["funnel"]["n_neardup_drops"] == 1  # 108
    assert m1["funnel"]["n_survivors"] == 7  # minus 0 and 7 (contam)

    # curated text carries exactly the survivors, with split labels
    n = 0
    splits = set()
    for f in pathlib.Path(out / "curated").rglob("*.parquet"):
        t = pq.read_table(f, columns=["doc_id", "split"])
        n += t.num_rows
        splits |= set(t.column("split").to_pylist())
    assert n == 7 and splits <= {"train", "val", "test"}

    # full resume: nothing re-runs
    m2 = run_curation_checkpointed(str(corpus_dir), str(out), cfg)
    assert m2["partitions_run"] == {"score": 0, "text": 0}
    assert m2["partitions_skipped"] == {"score": 2, "text": 2}
    assert m2["funnel"] == m1["funnel"]

    # invalidate one score partition manifest → exactly one re-runs,
    # downstream stays resumable (identical outputs → same digest)
    os.remove(out / "_manifests" / "score-part=00001.json")
    m3 = run_curation_checkpointed(str(corpus_dir), str(out), cfg)
    assert m3["partitions_run"]["score"] == 1
    assert m3["partitions_skipped"]["score"] == 1
    assert m3["funnel"] == m1["funnel"]


def test_runner_kill_and_resume_midway(ray_session, corpus_dir, tmp_path):
    """Simulated kill after one score partition: the resumed run skips
    exactly the committed partition and completes with the same funnel
    as an uninterrupted run."""
    from ocr_ray.pipelines.curation import (
        CurationConfig,
        run_curation_checkpointed,
    )

    out = tmp_path / "run"
    cfg = CurationConfig()
    m = run_curation_checkpointed(
        str(corpus_dir), str(out), cfg, stop_after_partitions=1
    )
    assert m["aborted_at"] == "score-partial"
    assert m["partitions_run"]["score"] == 1
    assert not (out / "metrics.json").exists()

    m2 = run_curation_checkpointed(str(corpus_dir), str(out), cfg)
    assert m2["aborted_at"] is None
    assert m2["partitions_skipped"]["score"] == 1
    assert m2["partitions_run"]["score"] == 1
    assert m2["funnel"]["n_survivors"] == 7
    assert (out / "metrics.json").exists()
    disk = json.loads((out / "metrics.json").read_text())
    assert disk["funnel"] == m2["funnel"]


def test_runner_incremental_fingerprints(ray_session, corpus_dir, tmp_path):
    """Incremental mode: a second shard run against the first run's
    fingerprint store drops every doc whose fingerprint is already
    known — the growing-corpus operational shape."""
    from ocr_ray.pipelines.curation import (
        CurationConfig,
        run_curation_checkpointed,
    )

    out1 = tmp_path / "run1"
    cfg = CurationConfig()
    run_curation_checkpointed(str(corpus_dir), str(out1), cfg)

    # shard 2: one doc identical to shard 1's doc 3 (known fp), one new
    shard = tmp_path / "shard2"
    shard.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([300, 301], pa.int64()),
                "text": pa.array([_doc(3, "unique3"), _doc(301, "fresh")]),
            }
        ),
        shard / "part-0.parquet",
    )
    out2 = tmp_path / "run2"
    cfg2 = CurationConfig(
        known_fingerprints=str(out1 / "fingerprints")
    )
    m = run_curation_checkpointed(str(shard), str(out2), cfg2)
    assert m["incremental"]
    assert m["funnel"]["n_filtered"] == 2
    assert m["funnel"]["n_exact_keepers"] == 1  # 300 dropped via store
    kept = pq.read_table(
        sorted((out2 / "keepers").rglob("*.parquet"))[0]
    )
    assert set(kept.column("doc_id").to_pylist()) == {301}
    # updated store contains old + new fingerprints
    fps = set()
    for f in (out2 / "fingerprints").rglob("*.parquet"):
        fps |= set(pq.read_table(f).column("fp").to_pylist())
    old = set()
    for f in (out1 / "fingerprints").rglob("*.parquet"):
        old |= set(pq.read_table(f).column("fp").to_pylist())
    assert old <= fps and len(fps) == len(old) + 1


def test_text_stage_rejects_shared_basename(ray_session, tmp_path,
                                            monkeypatch):
    """Two partitions whose files share a basename: the score stage,
    run one partition per wave, never sees both in one wave and commits
    both artifacts. The resumed run skips scoring and puts both
    partitions into one text wave, which must refuse the ambiguous
    routing exactly as the score stage does."""
    from ocr_ray import io as _io
    from ocr_ray.pipelines.curation import (
        CurationConfig,
        run_curation_checkpointed,
    )

    t = _corpus()
    files = []
    for i, part in enumerate((t.slice(0, 7), t.slice(7))):
        d = tmp_path / f"in{i}"
        d.mkdir()
        pq.write_table(part, d / "part.parquet")
        files.append(str(d / "part.parquet"))
    monkeypatch.setattr(_io, "input_files", lambda path: list(files))

    out = tmp_path / "run"
    src = str(tmp_path / "in0")
    m = run_curation_checkpointed(
        src, str(out), CurationConfig(partitions_per_launch=1),
        stop_after_stage="score",
    )
    assert m["partitions_run"]["score"] == 2

    with pytest.raises(ValueError, match="duplicate input basename"):
        run_curation_checkpointed(
            src, str(out), CurationConfig(partitions_per_launch=2)
        )
    for k in (0, 1):
        assert (out / "_manifests" / f"score-part={k:05d}.json").exists()


def test_pq_minmax_scans_files_without_statistics(tmp_path):
    """_pq_minmax reads row-group statistics when the writer kept them
    and scans the column when it did not; the extremes here sit only in
    the stats-less file, so a stats-only reader would get them wrong."""
    from ocr_ray.pipelines.curation import _pq_minmax

    pq.write_table(
        pa.table({"doc_id": pa.array([50, 60, 70], pa.int64())}),
        tmp_path / "with-stats.parquet",
    )
    sub = tmp_path / "bucket=1"
    sub.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([900, -5, 55, None, 12], pa.int64())}),
        sub / "no-stats.parquet",
        write_statistics=False,
        row_group_size=2,
    )
    md = pq.ParquetFile(sub / "no-stats.parquet").metadata
    assert md.num_row_groups == 3
    assert not any(
        md.row_group(i).column(0).statistics is not None
        and md.row_group(i).column(0).statistics.has_min_max
        for i in range(md.num_row_groups)
    )
    assert _pq_minmax(tmp_path, "doc_id") == (-5, 900)
    assert _pq_minmax(sub, "doc_id") == (-5, 900)
