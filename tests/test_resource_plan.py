"""The one resource plan (context.plan_resources) and the execution
callback that frees finished executions' actors.

- plan invariants and the tooling check that no engine module keeps its
  own CPU sizing (no Ray);
- the release callback: idempotent, next to Ray's defaults, copied onto
  datasets created earlier, loud when Ray moves the private API;
- the plan recorded in extraction manifests and in both runners'
  metrics.json;
- in fresh subprocesses: the cluster's CPUs are free again after an
  execution without the caller collecting garbage, and the default
  config finishes at 1, 2 and 3 CPUs.
"""
from __future__ import annotations

import ast
import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from ocr_ray.context import plan_resources

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "ocr_ray"


# ------------------------------------------------------------------ plan


def test_plan_leaves_one_task_cpu_at_every_size():
    for cpus in range(1, 65):
        plan = plan_resources(cpus)
        assert plan.cpus == cpus
        assert plan.pool_actors >= 1
        assert 0 <= plan.actor_cpus < 1
        # the pool plus one whole-CPU task fits the cluster
        assert plan.pool_actors * plan.actor_cpus <= cpus - 1 + 1e-9
        assert plan.shuffle_partitions >= 1 and plan.aggregators >= 1
        assert plan.aggregator_cpus == 0
        assert plan.pool == (1, plan.pool_actors)


def test_plan_pool_override_keeps_the_budget():
    for cpus in (1, 2, 3, 8):
        for actors in (1, 2, 5):
            plan = plan_resources(cpus, pool_actors=actors)
            assert plan.pool_actors == actors
            assert actors * plan.actor_cpus <= cpus - 1 + 1e-9
    assert plan_resources(1).actor_cpus == 0  # one core, time-shared
    # below a whole CPU, so Ray keeps explode out of the pool
    assert plan_resources(2, pool_actors=1).actor_cpus < 1


# ------------------------------------------------------ tooling (no Ray)


def _scope() -> list[pathlib.Path]:
    files = sorted((PKG / "pipelines").glob("*.py"))
    files += sorted((PKG / "stages").glob("*.py"))
    return files + [PKG / "io.py", PKG / "context.py"]


def _is_number(node) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _mentions_cpus(node) -> bool:
    for sub in ast.walk(node):
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)
        if isinstance(name, str) and "cpu" in name.lower():
            return True
    return False


def _sizing_literals(tree) -> list[tuple[int, str]]:
    """(line, what) of each CPU-sizing literal outside plan_resources: a
    number inside a ``num_cpus=``/``concurrency=`` argument (or such a
    parameter's default), or a float literal combined with, or assigned
    to, something named after CPUs."""
    exempt = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "plan_resources":
            exempt |= {id(n) for n in ast.walk(fn)}
    found = []

    def literal_in(node):
        return any(_is_number(n) for n in ast.walk(node))

    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.keyword) and node.arg in ("num_cpus", "concurrency"):
            if literal_in(node.value):
                found.append((node.value.lineno, f"{node.arg}= literal"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.args + node.args.kwonlyargs
            defaults = [None] * (len(node.args.args) - len(node.args.defaults))
            defaults += node.args.defaults + node.args.kw_defaults
            for arg, default in zip(args, defaults):
                if (
                    default is not None
                    and arg.arg in ("num_cpus", "concurrency")
                    and literal_in(default)
                ):
                    found.append((default.lineno, f"{arg.arg} default literal"))
        elif isinstance(node, ast.BinOp):
            for lit, other in ((node.left, node.right), (node.right, node.left)):
                if (
                    _is_number(lit)
                    and isinstance(lit.value, float)
                    and _mentions_cpus(other)
                ):
                    found.append((node.lineno, "CPU fraction"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if (
                value is not None
                and any(_mentions_cpus(t) for t in targets)
                and any(
                    _is_number(n) and isinstance(n.value, float)
                    for n in ast.walk(value)
                )
            ):
                found.append((node.lineno, "CPU fraction assigned"))
    return found


def test_no_cpu_sizing_literal_outside_the_plan():
    bad = []
    for path in _scope():
        tree = ast.parse(path.read_text(), str(path))
        for line, what in _sizing_literals(tree):
            bad.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert not bad, "CPU sizing outside context.plan_resources:\n" + "\n".join(bad)


def test_sizing_check_catches_each_form():
    src = textwrap.dedent(
        """
        def f(ds, concurrency=(1, 8)):
            ds.map_batches(g, num_cpus=0.9, concurrency=4)
            n = round(0.75 * cpus)
            ctx.x_num_cpus_override = 0.01

        def plan_resources(cpus):
            return 0.75 * cpus
        """
    )
    kinds = sorted(what for _, what in _sizing_literals(ast.parse(src)))
    assert kinds == [
        "CPU fraction",
        "CPU fraction assigned",
        "concurrency default literal",
        "concurrency= literal",
        "num_cpus= literal",
    ]


# ------------------------------------------------------ release callback


def _release_callbacks(ctx):
    from ray.data._internal.execution.execution_callback import (
        get_execution_callbacks,
    )

    from ocr_ray.context import _release_callback_class

    cls = _release_callback_class()
    return [cb for cb in get_execution_callbacks(ctx) if isinstance(cb, cls)]


def test_release_callback_idempotent_next_to_ray_defaults(ray_session):
    from ray.data._internal.execution.callbacks.insert_issue_detectors import (
        IssueDetectionExecutionCallback,
    )
    from ray.data._internal.execution.execution_callback import (
        get_execution_callbacks,
    )

    from ocr_ray.context import configure

    ctx = configure()
    configure()
    assert len(_release_callbacks(ctx)) == 1
    assert any(
        isinstance(cb, IssueDetectionExecutionCallback)
        for cb in get_execution_callbacks(ctx)
    )


def test_apply_to_dataset_adds_release_callback(ray_session):
    import ray.data
    from ray.data._internal.execution.execution_callback import (
        EXECUTION_CALLBACKS_CONFIG_KEY,
    )

    from ocr_ray.context import apply_to_dataset

    ds = ray.data.range(4)
    # as if created before configure() ran
    ds.context.remove_config(EXECUTION_CALLBACKS_CONFIG_KEY)
    assert not _release_callbacks(ds.context)
    apply_to_dataset(ds)
    assert len(_release_callbacks(ds.context)) == 1


def test_release_callback_names_missing_ray_symbol(monkeypatch):
    import ray
    from ray.data._internal.execution import execution_callback as ec

    from ocr_ray.context import _register_release_callback

    monkeypatch.delattr(ec, "ExecutionCallback")
    with pytest.raises(RuntimeError, match="ExecutionCallback") as e:
        _register_release_callback(object())
    assert ray.__version__ in str(e.value)


# ------------------------------------------------------ plan in manifests


def test_plan_recorded_in_manifests_and_metrics(ray_session, tmp_path):
    from ocr_ray import io, synth
    from ocr_ray.context import cluster_cpus
    from ocr_ray.pipelines.curation import run_curation_checkpointed
    from ocr_ray.stages.checkpoint import run_extract_checkpointed

    want = plan_resources(cluster_cpus()).manifest()
    assert set(want) == {"cpus", "pool_actors", "actor_cpus", "shuffle_partitions"}
    assert want["cpus"] == int(ray_session.cluster_resources()["CPU"])

    table = synth.generate_interleaved(n_docs=20, seed=11)
    inp = tmp_path / "input"
    io.write_interleaved(table, str(inp), max_rows_per_file=10)
    out = tmp_path / "out"
    metrics = run_extract_checkpointed(str(inp), str(out))
    assert metrics["plan"] == want
    assert json.loads((out / "metrics.json").read_text())["plan"] == want
    rows = sorted((out / "_manifest").glob("part-*.json"))
    assert len(rows) == 2
    for mp in rows:
        assert json.loads(mp.read_text())["extra"]["plan"] == want

    docs = tmp_path / "docs"
    docs.mkdir()
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["the cat and the dog", "the sun and the moon"]}),
        docs / "part-0.parquet",
    )
    cur = run_curation_checkpointed(str(docs), str(tmp_path / "cur"))
    assert cur["plan"] == want
    assert json.loads((tmp_path / "cur" / "metrics.json").read_text())["plan"] == want


# ------------------------------------------------- isolated Ray sessions


def _session_pids(sid: int) -> list[int]:
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


def _run_isolated(code: str, timeout_s: float) -> tuple[bool, str]:
    """Run ``code`` in a fresh interpreter in its own session; returns
    (finished in time with exit code 0, output). Every process left in
    the session (the child's Ray daemons and workers) is killed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT), "RAY_USAGE_STATS_ENABLED": "0"}
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired:
        ok = False
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        out += f"\n[timed out after {timeout_s:.0f} s]"
    finally:
        for pid in _session_pids(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while _session_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
    return ok, out


_SESSION = """
import gc, pathlib, sys, time
import ray
ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
         log_to_driver=False)
from ocr_ray.context import configure
configure()
from ocr_ray import io, synth
tmp = pathlib.Path({tmp!r})
io.write_interleaved(synth.generate_interleaved(n_docs=30, seed=3),
                     str(tmp / "in"), max_rows_per_file=15)
"""


def test_cpus_free_after_execution_without_collect(tmp_path):
    """One file through the checkpoint runner, then a trivial execution:
    the first execution's pool actor must be gone, and every CPU free,
    within 5 s, while the driver's garbage collector is off and nothing
    calls gc.collect(). One actor, so that the pool also fits 2 CPUs
    under older sizing."""
    code = _SESSION.format(cpus=2, tmp=str(tmp_path)) + textwrap.dedent(
        """
        gc.disable()
        from ocr_ray.stages.checkpoint import run_extract_checkpointed
        from ocr_ray.pipelines.extract import ExtractConfig
        files = io.input_files(str(tmp / "in"))
        run_extract_checkpointed(files[0], str(tmp / "out"),
                                 ExtractConfig(ocr_concurrency=1))
        ray.data.range(4).map_batches(lambda b: b).take_all()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            free = ray.available_resources().get("CPU", 0)
            if free >= 2:
                print("FREE", free)
                sys.exit(0)
            time.sleep(0.1)
        print("RESERVED", 2 - ray.available_resources().get("CPU", 0))
        sys.exit(1)
        """
    )
    ok, out = _run_isolated(code, timeout_s=150)
    assert ok, out[-3000:]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_default_config_finishes_at_small_cpu_counts(cpus, tmp_path):
    code = _SESSION.format(cpus=cpus, tmp=str(tmp_path)) + textwrap.dedent(
        """
        import pyarrow as pa, pyarrow.parquet as pq
        from ocr_ray.pipelines.extract import extract_documents
        from ocr_ray.stages.checkpoint import run_extract_checkpointed
        from ocr_ray.pipelines.curation import run_curation_checkpointed

        n = extract_documents(io.read_interleaved(str(tmp / "in"))).count()
        assert n == 30, n
        print("extract_documents ok", flush=True)
        m = run_extract_checkpointed(str(tmp / "in"), str(tmp / "out"))
        assert m["n_docs"] == 30, m
        print("run_extract_checkpointed ok", flush=True)
        (tmp / "docs").mkdir()
        for k in range(2):
            ids = list(range(10 * k, 10 * k + 10))
            text = [" ".join(f"the w{i}x{j} and" for j in range(30)) for i in ids]
            pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                     "text": text}),
                           tmp / "docs" / f"part-{k}.parquet")
        c = run_curation_checkpointed(str(tmp / "docs"), str(tmp / "cur"))
        assert c["aborted_at"] is None and c["funnel"]["n_raw"] == 20, c
        print("run_curation_checkpointed ok", flush=True)
        """
    )
    ok, out = _run_isolated(code, timeout_s=240)
    assert ok, out[-3000:]
