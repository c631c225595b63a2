"""One step of a measured job in a fresh process:
``python3 benchmark/child.py SPEC``.

``SPEC`` is a JSON file written by ``run.py``. The child sets up a Ray
session sized from ``nproc`` and then, by ``SPEC["role"]``:

- ``job``: runs ``run_extract_checkpointed`` once per name in
  ``SPEC["passes"]`` over the job's input and output directories, timing
  each call. With ``SPEC["trace"]`` it also parses the
  ``Dataset.stats()`` of every extraction execution of the cold pass.
- ``ledger``: runs a curation job that persists its incremental state,
  then shuts Ray down and replays the span pool's kernels in-process over
  the extraction corpus.

The result goes to ``SPEC["result"]`` as JSON.
"""
from __future__ import annotations

import json
import pathlib
import sys
import time


def _ray_init(spec: dict) -> float:
    import ray

    from ocr_ray.context import configure

    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=spec["logical_cpus"],
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=spec["object_store_bytes"],
        _temp_dir=spec["ray_temp_dir"],
    )
    configure()
    return time.perf_counter() - t0


class _DatasetRecorder:
    """Wraps ``extract_documents`` as the checkpoint runner sees it, so the
    Dataset of every partition execution can report ``stats()`` later."""

    def __init__(self):
        from ocr_ray.stages import checkpoint

        self.original = checkpoint.extract_documents
        self.datasets: list = []
        checkpoint.extract_documents = self

    def __call__(self, ds, config=None):
        out = self.original(ds, config)
        self.datasets.append(out)
        return out

    def drain(self) -> list[str]:
        texts = [ds.stats() for ds in self.datasets]
        self.datasets = []
        return texts


def run_passes(spec: dict) -> dict:
    from ocr_ray.pipelines.extract import ExtractConfig
    from ocr_ray.stages.checkpoint import run_extract_checkpointed

    from benchmark.ledger import operator_ledger

    cfg = ExtractConfig(ocr_concurrency=spec["actors"])
    recorder = _DatasetRecorder() if spec["trace"] else None
    passes, ledger, trace_s = {}, {}, 0.0
    for name in spec["passes"]:
        t0 = time.perf_counter()
        metrics = run_extract_checkpointed(spec["input"], spec["output"], cfg)
        wall = time.perf_counter() - t0
        passes[name] = {"metrics": metrics, "wall_s": wall}
        if recorder is None:
            continue
        t0 = time.perf_counter()
        texts = recorder.drain()
        if name == "cold":
            ledger.update(operator_ledger(texts))
            ledger["ledger.wall_s"] = wall
            ledger["ray_overhead_s"] = wall - ledger["ledger.layer_sum_s"]
        trace_s += time.perf_counter() - t0
    ledger["trace.overhead_s"] = trace_s
    return {"passes": passes, "ledger": ledger}


def _curated_rows(out: pathlib.Path) -> int:
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in out.glob("curated/**/*.parquet"))


def run_curation(spec: dict) -> tuple[dict, dict]:
    """A cold curation run that persists its incremental state; its
    ``walls_sec`` go to the ledger."""
    from ocr_ray.pipelines.curation import CurationConfig, run_curation_checkpointed

    out = pathlib.Path(spec["output"])
    m = run_curation_checkpointed(
        spec["curation"]["corpus"], str(out), CurationConfig(incremental_state=True)
    )
    ledger = {f"curation.{stage}_s": m["walls_sec"][stage]
              for stage in ("bench", "score", "dedup", "pack", "text")}
    return {"funnel": m["funnel"], "curated_rows": _curated_rows(out)}, ledger


def main(spec_path: str) -> None:
    spec = json.loads(pathlib.Path(spec_path).read_text())
    import ray

    import ocr_ray.context  # noqa: F401
    import ocr_ray.pipelines.extract  # noqa: F401
    import ocr_ray.stages.checkpoint  # noqa: F401

    import_s = time.time() - spec["spawned_at"]
    ray_init_s = _ray_init(spec)
    result = {
        "import_s": import_s,
        "ray_init_s": ray_init_s,
        "setup_s": import_s + ray_init_s,
    }
    if spec["role"] == "job":
        result.update(run_passes(spec))
        ray.shutdown()
    else:
        result["curation"], ledger = run_curation(spec)
        ray.shutdown()

        import pyarrow.parquet as pq

        from benchmark.ledger import kernel_ledger

        ledger.update(kernel_ledger(pq.read_table(spec["corpus"])))
        result["ledger"] = ledger
    pathlib.Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
