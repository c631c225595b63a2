"""Benchmark of the extraction engine: checkpointed extraction jobs timed in
fresh processes, with a per-layer ledger on request.

Usage, from the repository root::

    python3 benchmark/run.py --workload extract-bulk --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the ``end_to_end`` list of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` list. The full artifact, with the environment it ran in,
is written under ``benchmark/.work/artifacts/``.

A run measures whole checkpointed extraction jobs (see ``Job``), and
starts jobs until ``--seconds`` have been spent in them, at least one.
Each step of a job runs in a fresh child process (``child.py``) under a
hard wall timeout; a child that overruns has its whole process tree,
Ray daemons and workers included, killed before the run goes on. The
Ray session gets ``nproc + 1`` logical CPUs and the span pool ``nproc``
actors: the extra CPU holds the read task's whole-CPU reservation.

Inputs come from ``--seed`` and are cached per seed and layout. Claims of
a speed-up should also be checked on the held-out seed ``HELD_OUT_SEED``,
which tuning never uses.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
WORK = HERE / ".work"

HELD_OUT_SEED = 9973

# one run must end within this many seconds, children included
RUN_BUDGET_S = 170.0
# wait at most this long for the 1-minute load average to fall to
# LOAD_QUIET_PER_CPU × nproc + 1 before measuring; the + 1 is what the
# previous run's own processes leave behind
LOAD_WAIT_MAX_S = 10.0
LOAD_QUIET_PER_CPU = 2.0
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# Unix socket paths under Ray's temp dir must fit in 107 bytes
RAY_TEMP_MAX_LEN = 40

# the curation leg of the traced run: corpus docs and files; its cost is
# almost all fixed per-stage cost
CURATION = {"n_docs": 240, "n_files": 8}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int          # corpus documents
    n_files: int         # corpus files, one checkpoint partition each
    n_shard: int         # documents in the admitted shard
    kill: tuple          # partitions whose manifests the simulated kill deletes


# Both workloads run the same job; the layout decides which costs show.
# extract-bulk is one partition, one Ray Data execution per pass, so the
# span pool and kernels dominate. extract-resume runs eight small
# partitions one after another in one session, so per-execution fixed
# costs dominate, including the wait for the previous execution's pool
# actor to be released, which can take a garbage collection in the job process.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("extract-bulk", n_docs=800, n_files=1, n_shard=200, kill=(0,)),
        Workload("extract-resume", n_docs=400, n_files=8, n_shard=50, kill=(2, 5)),
    )
}


# ------------------------------------------------------------ environment


def _git_revision() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree
    of its own (a plain export inside another repository included)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or pathlib.Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _nproc() -> int:
    """CPUs as ``nproc`` reports them: the affinity mask, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def _wait_for_quiet(nproc: int) -> dict:
    threshold = LOAD_QUIET_PER_CPU * nproc + 1
    before = os.getloadavg()[0]
    t0 = time.monotonic()
    while os.getloadavg()[0] >= threshold and time.monotonic() - t0 < LOAD_WAIT_MAX_S:
        time.sleep(1.0)
    return {
        "load1_before_wait": before,
        "load1_at_start": os.getloadavg()[0],
        "load_quiet_threshold": threshold,
        "load_wait_s": time.monotonic() - t0,
    }


def _environment(nproc: int) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "logical_cpus": nproc + 1,
        "pool_actors": nproc,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "git_revision": _git_revision(),
    }


# ---------------------------------------------------------------- children


def _session_pids(sid: int) -> list[int]:
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def _reap_session(sid: int, grace_s: float = 10.0) -> int:
    """Stop every process left in the child's session and wait until each
    has ended; returns how many had to be signalled."""
    pids = _session_pids(sid)
    left = len(pids)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            time.sleep(0.1)
            pids = _session_pids(sid)
        if not pids:
            break
    if pids:
        raise RuntimeError(f"processes {pids} survived SIGKILL")
    return left


def _ray_temp_dir() -> str:
    path = WORK / "ray"
    path.mkdir(parents=True, exist_ok=True)
    if len(str(path)) <= RAY_TEMP_MAX_LEN:
        return str(path)
    # too long for Ray's socket paths: use Ray's own default location
    return os.environ.get("RAY_TMPDIR", "/tmp/ray")


def run_child(spec: dict, timeout_s: float) -> dict:
    """Run ``child.py`` in its own session; returns its result, or a dict
    with ``error`` if it crashed or overran ``timeout_s``."""
    result_path = pathlib.Path(spec["result"])
    spec_path = result_path.with_suffix(".spec.json")
    log_path = result_path.with_suffix(".log")
    result_path.unlink(missing_ok=True)
    spec = {**spec, "spawned_at": time.time()}
    spec_path.write_text(json.dumps(spec))
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT),
        "RAY_USAGE_STATS_ENABLED": "0",
        "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
        "RAY_DISABLE_IMPORT_WARNING": "1",
    }
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout_s)
            error = None if code == 0 else f"child exited with code {code}"
        except subprocess.TimeoutExpired:
            error = f"child overran its {timeout_s:.0f} s timeout"
        finally:
            # also when this process is being terminated: no Ray daemon of
            # the child may outlive the run
            leftovers = _reap_session(proc.pid)
            proc.wait()
    wall = time.monotonic() - t0
    if error is None and not result_path.exists():
        error = "child wrote no result"
    if error is not None:
        tail = log_path.read_text()[-3000:]
        print(f"benchmark: {error}; log tail:\n{tail}", file=sys.stderr)
        return {"error": error, "child_wall_s": wall, "leftover_processes": leftovers}
    result = json.loads(result_path.read_text())
    result.update(child_wall_s=wall, leftover_processes=leftovers)
    return result


def _clear_ray_sessions(temp_dir: str):
    """Drop the finished sessions' logs and sockets, when they live in the
    benchmark's own work directory."""
    path = pathlib.Path(temp_dir)
    if WORK in path.parents:
        for d in path.glob("session_*"):
            if not d.is_symlink():
                shutil.rmtree(d, ignore_errors=True)
        (path / "session_latest").unlink(missing_ok=True)


# --------------------------------------------------------------------- job

PASSES = ("cold", "resume", "noop", "admit")


class Job:
    """One checkpointed extraction job over a workload's inputs, each step
    in a fresh child process, as separate invocations would run it:

    1. cold: the whole corpus into an empty output directory;
    2. the simulated kill deletes the manifests of ``Workload.kill``;
    3. resume, then a no-op rerun that must find nothing to do, in one
       child;
    4. the shard file lands in the input directory; admit runs the job
       again.
    """

    def __init__(self, wl: Workload, inputs: dict, base: dict, run_dir: pathlib.Path,
                 deadline: float):
        self.wl, self.inputs, self.deadline = wl, inputs, deadline
        self.dir = run_dir
        self.input, self.output = run_dir / "input", run_dir / "output"
        self.base = {**base, "input": str(self.input), "output": str(self.output)}
        self.children: list[dict] = []
        self.checkpoint: dict = {}

    def child(self, tag: str, **spec) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining < 10:
            res = {"error": "no time left in the run budget", "child_wall_s": 0.0}
        else:
            res = run_child(
                {**self.base, **spec, "result": str(self.dir / f"{tag}.json")},
                timeout_s=remaining,
            )
        _clear_ray_sessions(self.base["ray_temp_dir"])
        res["tag"] = tag
        self.children.append(res)
        return res

    def run(self) -> dict:
        """Pass name -> ``{"metrics", "wall_s"}`` for every pass that ran."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.input.mkdir(parents=True)
        for f in sorted(pathlib.Path(self.inputs["corpus"]).glob("*.parquet")):
            shutil.copyfile(f, self.input / f.name)
        passes: dict = {}
        steps = (
            ("cold", ("cold",), None),
            ("resume", ("resume", "noop"), self._kill),
            ("admit", ("admit",), self._land_shard),
        )
        for tag, names, before in steps:
            if before is not None:
                before()
            res = self.child(tag, role="job", passes=list(names))
            if "error" in res:
                break
            passes.update(res["passes"])
            if tag == "cold" and self.base["trace"]:
                self._record_checkpoint()
        return passes

    def _kill(self):
        for k in self.wl.kill:
            (self.output / "_manifest" / f"part-{k:05d}.json").unlink(missing_ok=True)

    def _land_shard(self):
        shard = pathlib.Path(self.inputs["shard"])
        shutil.copyfile(shard, self.input / shard.name)

    def _record_checkpoint(self):
        walls = [json.loads(p.read_text())["wall_sec"]
                 for p in sorted((self.output / "_manifest").glob("part-*.json"))]
        self.checkpoint = {
            "checkpoint.partition_wall_s": statistics.median(walls),
            "checkpoint.partition_wall_max_s": max(walls),
            "checkpoint.bytes_written": float(sum(
                f.stat().st_size for f in self.output.glob("part=*/*.parquet")
            )),
        }


# ------------------------------------------------------------------ checks


def check_job(wl: Workload, inputs: dict, output: pathlib.Path, passes: dict) -> dict:
    """Pass name -> list of failed checks; a pass that never ran fails."""
    from benchmark.inputs import output_digest

    bad = {name: [] if name in passes else ["did not run"] for name in PASSES}

    def expect(name, what, want):
        if name not in passes:
            return
        got = passes[name]["metrics"][what]
        if got != want:
            bad[name].append(f"{what}: got {got!r}, want {want!r}")

    expect("cold", "partitions_run", wl.n_files)
    expect("cold", "n_docs", wl.n_docs)
    expect("resume", "partitions_run", len(wl.kill))
    expect("resume", "n_docs", wl.n_docs)
    expect("noop", "partitions_run", 0)
    expect("admit", "partitions_run", 1)
    expect("admit", "n_docs", inputs["expected_docs"])
    if "admit" in passes:
        n_docs, digest = output_digest(output)
        if (n_docs, digest) != (inputs["expected_docs"], inputs["expected_digest"]):
            bad["admit"].append(
                f"output has {n_docs} docs, digest {digest[:12]}; the oracle has "
                f"{inputs['expected_docs']} docs, digest {inputs['expected_digest'][:12]}"
            )
    return bad


def check_curation(cur_inputs: dict, run: dict) -> list[str]:
    funnel, bad = run["funnel"], []
    if funnel["n_raw"] != cur_inputs["n_raw"]:
        bad.append(f"curation: n_raw {funnel['n_raw']} != {cur_inputs['n_raw']}")
    if run["curated_rows"] != funnel["n_survivors"]:
        bad.append(f"curation: {run['curated_rows']} curated rows != "
                   f"n_survivors {funnel['n_survivors']}")
    return bad


# -------------------------------------------------------------------- main


def _metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _end_to_end(wl: Workload, jobs: list) -> dict:
    done = [(passes, job) for passes, job in jobs if set(PASSES) <= set(passes)]
    if not done:
        return {}
    med = statistics.median
    return {
        "docs_per_s": med(wl.n_docs / p["cold"]["wall_s"] for p, _ in done),
        "setup_s": med(c["setup_s"] for _, job in done for c in job.children),
        "resume_s": med(p["resume"]["wall_s"] for p, _ in done),
        "admit_s": med(p["admit"]["wall_s"] for p, _ in done),
    }


def _per_layer(wl: Workload, nproc: int, passes: dict, job: Job) -> dict:
    cold = next(c for c in job.children if c["tag"] == "cold")
    ledger_child = next(c for c in job.children if c["tag"] == "ledger")
    values = {
        **cold["ledger"],
        **ledger_child["ledger"],
        **job.checkpoint,
        "session.import_s": cold["import_s"],
        "session.ray_init_s": cold["ray_init_s"],
        "checkpoint.partitions_run": float(passes["resume"]["metrics"]["partitions_run"]),
        "checkpoint.validate_s": passes["noop"]["wall_s"],
    }
    docs_per_s = wl.n_docs / passes["cold"]["wall_s"]
    values["span_pool.efficiency"] = docs_per_s / (
        nproc * values["process.serial_cold_docs_per_s"]
    )
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    # turn SIGTERM into SystemExit so a running child's session is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "ocr_ray" / "__init__.py").is_file():
        print(f"benchmark: no ocr_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    units = _metric_units()

    from benchmark.inputs import curation_inputs, extraction_inputs

    wl = WORKLOADS[args.workload]
    nproc = _nproc()
    env = _environment(nproc)

    # inputs and the oracle digest are built before anything is timed
    inputs = extraction_inputs(WORK, wl, args.seed)
    cur_inputs = curation_inputs(WORK, args.seed, **CURATION) if args.trace else None
    env.update(_wait_for_quiet(nproc))
    env["ray_temp_dir"] = _ray_temp_dir()

    run_dir = WORK / "runs" / f"{wl.name}-s{args.seed}-t{args.trace}"
    base = {
        "trace": bool(args.trace),
        "logical_cpus": nproc + 1,
        "actors": nproc,
        "object_store_bytes": OBJECT_STORE_BYTES,
        "ray_temp_dir": env["ray_temp_dir"],
        "corpus": inputs["corpus"],
        "curation": cur_inputs,
    }

    jobs, attempted, failed, problems = [], 0, 0, []
    measured = 0.0
    while not jobs or (not args.trace and measured < args.seconds):
        if jobs and time.monotonic() + 1.5 * jobs[-1][2] > deadline:
            break
        t0 = time.monotonic()
        job = Job(wl, inputs, base, run_dir / f"job-{len(jobs)}", deadline)
        passes = job.run()
        bad = check_job(wl, inputs, job.output, passes)
        attempted += len(PASSES)
        failed += sum(1 for v in bad.values() if v)
        problems += [f"{k}: {m}" for k, v in bad.items() for m in v]
        problems += [f"{c['tag']}: {c['error']}" for c in job.children if "error" in c]
        if args.trace and "admit" in passes:
            res = job.child("ledger", role="ledger", output=str(job.dir / "curation"))
            attempted += 1
            bad_cur = [res["error"]] if "error" in res else check_curation(
                cur_inputs, res["curation"])
            failed += 1 if bad_cur else 0
            problems += bad_cur
        elapsed = time.monotonic() - t0
        jobs.append((passes, job, elapsed))
        measured += elapsed
        if any(bad.values()):
            break

    metrics: dict = {}
    if failed == 0 and not args.trace:
        values = _end_to_end(wl, [(p, j) for p, j, _ in jobs])
        metrics = {n: {"value": values[n], "unit": u} for n, u in units["end_to_end"].items()}
    elif failed == 0:
        passes, job, _ = jobs[0]
        values = _per_layer(wl, nproc, passes, job)
        metrics = {n: {"value": values[n], "unit": u} for n, u in units["per_layer"].items()}

    env["load1_after"] = os.getloadavg()[0]
    artifact = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "layout": dataclasses.asdict(wl),
        "jobs": [{"passes": p, "children": j.children, "checkpoint": j.checkpoint,
                  "wall_s": e} for p, j, e in jobs],
        "problems": problems,
        "metrics": metrics,
        "run_wall_s": time.monotonic() - started,
    }
    art_dir = WORK / "artifacts"
    art_dir.mkdir(parents=True, exist_ok=True)
    (art_dir / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(artifact, indent=1, default=str)
    )
    for p in problems:
        print(f"benchmark: check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
