"""Checkpoint-overhead benchmark: straight pipeline vs checkpointed
partitions at bench scale, fresh process per run (cold session, pinned).

Usage: python scripts/bench_checkpoint.py [n_docs] [ncpu] [partitions_per_launch]
       [files_per_partition]
Prints one JSON line with both throughputs and the overhead ratio;
the headline claim lives in BASELINE.md.
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 else 80_000
NCPU = int(sys.argv[2]) if len(sys.argv) > 2 else 16
PARTITIONS_PER_LAUNCH = int(sys.argv[3]) if len(sys.argv) > 3 else 0
FILES_PER_PARTITION = int(sys.argv[4]) if len(sys.argv) > 4 else 64

_CHILD = r"""
import sys, time
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus={ncpu}, include_dashboard=False,
         logging_level="ERROR")
from ocr_ray.context import configure
configure()
from ocr_ray import driver as drv, io as oio
from ocr_ray.pipelines.extract import ExtractConfig, extract_documents

path = drv.interleaved_path_n({n_docs})
for f in oio.input_files(path):
    open(f, "rb").read()

mode = {mode!r}
t0 = time.perf_counter()
if mode == "straight":
    extract_documents(oio.read_interleaved(path), ExtractConfig()).write_parquet(
        {out!r}
    )
else:
    from ocr_ray.stages.checkpoint import run_extract_checkpointed

    run_extract_checkpointed(
        path, {out!r}, files_per_partition={fpp},
        partitions_per_launch={partitions_per_launch},
    )
wall = time.perf_counter() - t0
print("WALL", wall, flush=True)
ray.shutdown()
"""


def run_child(mode: str, out: str) -> float:
    if os.path.exists(out):
        shutil.rmtree(out)
    code = _CHILD.format(
        repo=str(pathlib.Path(__file__).resolve().parent.parent),
        ncpu=NCPU,
        n_docs=N_DOCS,
        mode=mode,
        out=out,
        partitions_per_launch=PARTITIONS_PER_LAUNCH,
        fpp=FILES_PER_PARTITION,
    )
    cmd = [sys.executable, "-c", code]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", f"0-{NCPU - 1}"] + cmd
    if os.geteuid() == 0 and shutil.which("nice"):
        cmd = ["nice", "-n", "-10"] + cmd
    out_txt = subprocess.run(
        cmd, capture_output=True, text=True, check=True
    ).stdout
    for line in out_txt.splitlines():
        if line.startswith("WALL"):
            return float(line.split()[1])
    raise RuntimeError(f"no WALL line in child output:\n{out_txt[-2000:]}")


def main() -> None:
    base = "/tmp/ocr_ray_ckpt_bench"
    w_straight = run_child("straight", f"{base}/straight")
    w_ckpt = run_child("checkpoint", f"{base}/ckpt")
    # resume pass over the finished output: must skip everything fast
    w_resume = run_child_resume(f"{base}/ckpt")
    print(
        json.dumps(
            {
                "n_docs": N_DOCS,
                "num_cpus": NCPU,
                "partitions_per_launch": PARTITIONS_PER_LAUNCH,
                "files_per_partition": FILES_PER_PARTITION,
                "straight_wall": round(w_straight, 3),
                "checkpoint_wall": round(w_ckpt, 3),
                "straight_docs_per_sec": round(N_DOCS / w_straight, 3),
                "checkpoint_docs_per_sec": round(N_DOCS / w_ckpt, 3),
                "overhead_pct": round(100 * (w_ckpt / w_straight - 1), 1),
                "resume_noop_wall": round(w_resume, 3),
            }
        )
    )


def run_child_resume(out: str) -> float:
    code = _CHILD.format(
        repo=str(pathlib.Path(__file__).resolve().parent.parent),
        ncpu=NCPU,
        n_docs=N_DOCS,
        mode="checkpoint",
        out=out,
        partitions_per_launch=PARTITIONS_PER_LAUNCH,
        fpp=FILES_PER_PARTITION,
    )
    cmd = [sys.executable, "-c", code]
    if shutil.which("taskset"):
        cmd = ["taskset", "-c", f"0-{NCPU - 1}"] + cmd
    out_txt = subprocess.run(
        cmd, capture_output=True, text=True, check=True
    ).stdout
    for line in out_txt.splitlines():
        if line.startswith("WALL"):
            return float(line.split()[1])
    raise RuntimeError("no WALL line")


if __name__ == "__main__":
    main()
