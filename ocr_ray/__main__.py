"""CLI entry point: run the extraction pipeline over an interleaved-docs
table with checkpoint/resume, or synthesize a test corpus.

    python -m ocr_ray synth --n-docs 1000 --out /tmp/corpus
    python -m ocr_ray curate --input /docs-parquet-dir --output /tmp/curated
    python -m ocr_ray extract --input /tmp/corpus --output /tmp/out \
        [--engine auto] [--no-dictionary] [--no-spelling] \
        [--files-per-partition 4] [--no-resume] [--num-cpus 32]

Owns its Ray session (the driver-contract module never does).
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ocr_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_synth = sub.add_parser("synth", help="generate a deterministic interleaved corpus")
    p_synth.add_argument("--n-docs", type=int, default=1000)
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--out", required=True)

    p_q = sub.add_parser(
        "query",
        help="run any registered operator/pipeline over an sf-dir of "
        "parquet tables (see `query --list`)",
    )
    p_q.add_argument("--name", default=None, help="query name from the registry")
    p_q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    p_q.add_argument("--output", default=None,
                     help="write the result as parquet here instead of printing")
    p_q.add_argument("--limit", type=int, default=20,
                     help="rows to print when no --output is given")
    p_q.add_argument("--list", action="store_true", dest="list_queries")
    p_q.add_argument("--num-cpus", type=int, default=None)

    p_ex = sub.add_parser("extract", help="run the extraction pipeline, resumable")
    p_ex.add_argument("--input", required=True)
    p_ex.add_argument("--output", required=True)
    p_ex.add_argument("--engine", default="auto")
    p_ex.add_argument("--language", default="mixed")
    p_ex.add_argument("--no-dictionary", action="store_true")
    p_ex.add_argument("--no-spelling", action="store_true")
    p_ex.add_argument("--files-per-partition", type=int, default=4)
    p_ex.add_argument("--no-resume", action="store_true")
    p_ex.add_argument("--num-cpus", type=int, default=None)
    p_ex.add_argument(
        "--learned-words",
        default=None,
        help="JSON export (ops/learning_state) whose approved words extend the kamus for this run",
    )

    p_cur = sub.add_parser(
        "curate",
        help="run the composed curation DAG (filter → dedup → "
        "decontam → split → pack) as a checkpoint-resumable staged "
        "job over a directory of (doc_id, text) parquet files",
    )
    p_cur.add_argument("--input", required=True)
    p_cur.add_argument("--output", required=True)
    p_cur.add_argument("--seq-len", type=int, default=512)
    p_cur.add_argument("--files-per-partition", type=int, default=1)
    p_cur.add_argument("--partitions-per-launch", type=int, default=0,
                       help="0 = all pending partitions in one Ray "
                       "launch; N = kill-and-resume granularity knob")
    p_cur.add_argument("--incremental-state", action="store_true",
                       help="persist band_store + split totals for "
                       "incremental chaining")
    p_cur.add_argument("--known-state", default=None,
                       help="prior run output dir: admit this input "
                       "as an incremental shard against its state")
    p_cur.add_argument("--bench-modulus", type=int, default=50,
                       help="benchmark stand-in: doc_id %% m == 0")
    p_cur.add_argument(
        "--known-fingerprints", default=None,
        help="prior run's fingerprints/ dir for incremental dedup",
    )
    p_cur.add_argument("--no-resume", action="store_true")
    p_cur.add_argument("--num-cpus", type=int, default=None)

    args = parser.parse_args(argv)

    if args.cmd == "synth":
        from ocr_ray import io, synth

        table = synth.generate_interleaved(args.n_docs, seed=args.seed)
        path = io.write_interleaved(table, args.out)
        print(json.dumps({"path": path, "n_docs": table.num_rows}))
        return 0

    def _ensure_ray() -> bool:
        """Init a local session if none exists; returns True when this
        call OWNS the session (and should shut it down)."""
        import os

        import ray

        if ray.is_initialized():
            return False
        kwargs = {"ignore_reinit_error": True, "logging_level": "ERROR"}
        if os.environ.get("RAY_ADDRESS", "local") in ("", "local"):
            # standalone: own local session; under `ray job submit`
            # RAY_ADDRESS points at the cluster and we attach to it
            kwargs.update(
                address="local",
                num_cpus=args.num_cpus,
                include_dashboard=False,
            )
        ray.init(**kwargs)
        from ocr_ray.context import configure

        configure()
        return True

    if args.cmd == "query":
        from ocr_ray.driver import QUERIES

        if args.list_queries or not args.name:
            print(json.dumps({"queries": sorted(QUERIES)}))
            return 0
        if args.name not in QUERIES:
            print(json.dumps({"error": f"unknown query {args.name!r}"}))
            return 2
        import ray

        owns = _ensure_ray()
        from ocr_ray.context import configure

        configure()
        result = QUERIES[args.name](args.sf_dir)
        try:
            if args.output:
                if hasattr(result, "write_parquet"):
                    result.write_parquet(args.output)
                    n = None
                else:
                    import pathlib

                    import pyarrow as pa
                    import pyarrow.parquet as pq

                    tbl = (
                        result
                        if isinstance(result, pa.Table)
                        else pa.Table.from_pandas(result)
                    )
                    pathlib.Path(args.output).mkdir(parents=True, exist_ok=True)
                    pq.write_table(tbl, f"{args.output}/part-0.parquet")
                    n = tbl.num_rows
                print(json.dumps({"query": args.name, "output": args.output,
                                  "rows": n}))
            else:
                df = (
                    result.limit(args.limit).to_pandas()
                    if hasattr(result, "limit")
                    else result.to_pandas().head(args.limit)
                    if hasattr(result, "to_pandas")
                    else result.head(args.limit)
                )
                print(df.to_string())
        finally:
            if owns:
                ray.shutdown()
        return 0

    if args.cmd == "extract":
        import ray

        owns_session = _ensure_ray()
        from ocr_ray.context import configure

        configure()
        from ocr_ray.pipelines.extract import ExtractConfig
        from ocr_ray.stages.checkpoint import run_extract_checkpointed

        learned: tuple = ()
        if args.learned_words:
            from ocr_ray.ops import learning_state as ls

            state, _ = ls.import_json(ls.empty_state(), args.learned_words, mode="merge")
            learned = tuple(
                r["word"] for r in state.to_pylist() if r["is_approved"]
            )

        config = ExtractConfig(
            engine=args.engine,
            language=args.language,
            use_dictionary=not args.no_dictionary,
            normalize_spelling=not args.no_spelling,
            learned_words=learned,
        )
        metrics = run_extract_checkpointed(
            args.input,
            args.output,
            config=config,
            files_per_partition=args.files_per_partition,
            resume=not args.no_resume,
        )
        print(json.dumps(metrics))
        if owns_session:
            ray.shutdown()
        return 0

    if args.cmd == "curate":
        import ray

        owns_session = _ensure_ray()
        from ocr_ray.context import configure

        configure()
        from ocr_ray.pipelines.curation import (
            CurationConfig,
            run_curation_checkpointed,
        )

        metrics = run_curation_checkpointed(
            args.input,
            args.output,
            CurationConfig(
                seq_len=args.seq_len,
                files_per_partition=args.files_per_partition,
                partitions_per_launch=args.partitions_per_launch,
                incremental_state=args.incremental_state,
                known_state=args.known_state,
                bench_modulus=args.bench_modulus,
                known_fingerprints=args.known_fingerprints,
            ),
            resume=not args.no_resume,
        )
        print(json.dumps(metrics))
        if owns_session:
            ray.shutdown()
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
