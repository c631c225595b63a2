"""Central Ray Data context configuration and the one resource plan.

One place owns the execution knobs so every entry point (driver contract,
bench, tests, CLI) gets the same tuning:

- ``plan_resources(cpus)`` sizes every Ray stage of the engine from the
  cluster's CPU count: the span actor pool and its per-actor CPUs, the
  shuffle partitions and aggregators, the read-block count and the
  curation stage pools.
  Every other module asks the plan instead of keeping its own numbers;
- hash-shuffle strategy (required for key-based repartition — the
  reassembly shuffle — and the efficient path for groupbys);
- an execution callback that frees the actors of finished executions
  before a new execution asks for resources;
- progress bars / verbose logs off.

Never calls ray.init(); callers own the session.
"""
from __future__ import annotations

import dataclasses
import functools
import gc
import os


@dataclasses.dataclass(frozen=True)
class ResourcePlan:
    """How one pipeline spends a cluster of ``cpus`` CPUs; see
    ``plan_resources``."""

    cpus: int
    pool_actors: int
    actor_cpus: float
    shuffle_partitions: int
    aggregators: int
    aggregator_cpus: float
    read_blocks: int

    def manifest(self) -> dict:
        """The plan's sizing as recorded in run manifests."""
        return {
            "cpus": self.cpus,
            "pool_actors": self.pool_actors,
            "actor_cpus": self.actor_cpus,
            "shuffle_partitions": self.shuffle_partitions,
        }

    @property
    def pool(self) -> tuple[int, int]:
        """``concurrency=`` of an autoscaling actor pool under this plan
        (the curation stages): one actor up to the planned pool."""
        return (1, self.pool_actors)


def plan_resources(cpus: int, pool_actors: int | None = None) -> ResourcePlan:
    """Size every Ray stage from the cluster's CPU count.

    The rule that keeps a run from deadlocking at any ``cpus >= 1``:
    every Ray Data task (read, explode, the hash shuffle's map tasks,
    rebuild, write) asks for one whole CPU — the shuffle's map tasks
    hard-code it — so the actor pool reserves at most ``cpus - 1``
    CPUs, and the shuffle aggregators reserve none. One task can then
    always be scheduled next to the pool, and every execution makes
    progress. On one CPU the pool reserves nothing and time-shares the
    core with the tasks.

    ``pool_actors`` overrides the planned size of the span pool
    (``ExtractConfig.ocr_concurrency``); the per-actor CPUs follow the
    same rule for that size."""
    cpus = max(1, int(cpus))
    if pool_actors is None:
        # a FIXED pool of 0.75×CPUs actors: Ray's autoscaling
        # pool ramps up too slowly for short jobs (observed ~5 effective
        # actors of 32), one actor per CPU oversubscribes and thrashes,
        # and the same fraction at every cluster size keeps scaling
        # measurements comparable
        pool_actors = max(1, int(0.75 * cpus))
    pool_actors = max(1, int(pool_actors))
    # at most 0.9 CPU per actor: its kernels are single-threaded, and an
    # actor asking for exactly the whole CPU a task asks for makes Ray
    # fuse the upstream explode task into the pool, which moves explode
    # off the CPUs the pool leaves free and onto the actors
    actor_cpus = min(0.9, (cpus - 1) / pool_actors)
    # partitions ≈ CPUs: one reduce wave fills the cluster, and the
    # per-partition costs (finalize task, aggregator bookkeeping, tiny
    # output blocks) are pure overhead past that — measured at sf0.1 /
    # 32 CPUs, 64 → 32 partitions cut a two-shuffle plan from 19 s to
    # 6 s with identical results
    shuffle_partitions = cpus
    # aggregators only buffer and merge partitions (memory/IPC-bound):
    # one per two CPUs, the setting the partition measurement above ran
    aggregators = max(1, cpus // 2)
    # 0 CPU per aggregator partition: an aggregator holding any CPU can
    # take the fraction a whole-CPU shuffle task needs (observed: a DAG
    # of 0.5-CPU aggregators deadlocked a 4-CPU cluster; on one CPU any
    # reservation at all leaves less than the whole CPU)
    aggregator_cpus = 0.0
    # finer input blocks for wide actor pools: the pool takes one task
    # per input block, so at Ray's default ~2×CPU blocks a 12-actor pool
    # idles a third of itself through the last wave; 8×CPU blocks
    # measured +18% at 16 CPUs, −5% at 4 CPUs (per-task overhead) and
    # neutral-to-−4% at 32 CPUs, so only the measured win range gets
    # them (0 = Ray's default)
    read_blocks = 8 * cpus if 12 <= cpus <= 24 else 0
    return ResourcePlan(
        cpus=cpus,
        pool_actors=pool_actors,
        actor_cpus=actor_cpus,
        shuffle_partitions=shuffle_partitions,
        aggregators=aggregators,
        aggregator_cpus=aggregator_cpus,
        read_blocks=read_blocks,
    )


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster; without one, the CPUs a default
    ``ray.init()`` here would start with."""
    import ray

    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def configure(num_cpus: int | None = None):
    """Tune the global DataContext; returns it. Safe to call repeatedly."""
    from ray.data.context import DataContext, ShuffleStrategy

    plan = plan_resources(num_cpus if num_cpus is not None else cluster_cpus())
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.default_hash_shuffle_parallelism = plan.shuffle_partitions
    ctx.max_hash_shuffle_aggregators = plan.aggregators
    # repartition/join, groupby-aggregate and join each read their own
    # aggregator override; all three follow the plan
    for attr in _AGGREGATOR_CPU_OVERRIDES:
        if hasattr(ctx, attr):
            setattr(ctx, attr, plan.aggregator_cpus)
    _patch_hash_shuffle_empty_blocks()
    _register_release_callback(ctx)
    return ctx


_AGGREGATOR_CPU_OVERRIDES = (
    "hash_shuffle_operator_actor_num_cpus_per_partition_override",
    "hash_aggregate_operator_actor_num_cpus_per_partition_override",
    "join_operator_actor_num_cpus_per_partition_override",
)


def _execution_callback_api():
    try:
        from ray.data._internal.execution import execution_callback as _ec
    except ImportError as e:
        raise missing_ray_symbol(
            "ray.data._internal.execution.execution_callback"
        ) from e
    for name in ("ExecutionCallback", "get_execution_callbacks",
                 "EXECUTION_CALLBACKS_CONFIG_KEY"):
        if not hasattr(_ec, name):
            raise missing_ray_symbol(f"execution_callback.{name}")
    return _ec


@functools.cache
def _release_callback_class():
    _ec = _execution_callback_api()

    class ReleaseFinishedExecutions(_ec.ExecutionCallback):
        """Frees the actors of finished executions before a new
        execution starts its operators.

        A finished Ray Data execution leaves its streaming executor,
        resource manager, actor pools and shuffle aggregator pools as
        cyclic garbage: unreachable, but alive until the collector
        runs. Ray releases a pool actor — and its CPU reservation — only
        when the last handle to it is collected (it does not
        ``ray.kill`` actors after a normal shutdown), so without a
        collection here the next execution can wait many seconds for a
        CPU that no one uses. A full collection costs 0.1–0.4 s, so it
        runs only while some CPU of the cluster is reserved."""

        def before_execution_starts(self, executor):
            import ray

            if ray.available_resources().get("CPU", 0) < cluster_cpus():
                gc.collect()

    return ReleaseFinishedExecutions


def _register_release_callback(ctx) -> None:
    """Add the release callback to ``ctx``'s execution callbacks, next
    to Ray's own defaults (its issue detector); idempotent."""
    _ec = _execution_callback_api()
    cls = _release_callback_class()
    callbacks = list(_ec.get_execution_callbacks(ctx))
    if any(isinstance(cb, cls) for cb in callbacks):
        return
    callbacks.append(cls())
    ctx.set_config(_ec.EXECUTION_CALLBACKS_CONFIG_KEY, callbacks)


def missing_ray_symbol(symbol: str) -> RuntimeError:
    """The error for a Ray private API that one of the patches here
    relies on and the installed Ray lacks: running unpatched would bring
    back the bug the patch works around, so the patch fails loudly."""
    import ray

    return RuntimeError(
        f"Ray {ray.__version__} has no {symbol}; ocr_ray patches it and "
        "needs a Ray version that provides it"
    )


def _patch_hash_shuffle_empty_blocks():
    """Work around a Ray 2.49 hash-shuffle schema-broadcast bug that
    crashes sparse joins: the operator broadcasts each input's schema to
    every aggregator exactly ONCE, piggybacked on the first block — but
    ``_shuffle_block`` early-returns for 0-row blocks WITHOUT sending
    the schema'd empty shards, while the operator still marks the
    broadcast as done. If an input's first block is empty (hash
    aggregates and joins emit 0-row — often column-less — blocks for
    empty partitions), any join partition that then receives no rows
    finalizes ``pa.table({}).join(...)`` and dies with "No match for
    key field". Dropping 0-row blocks from shuffle input bundles fixes
    the broadcast (the first REAL block carries it) and removes the
    pointless shuffle tasks; 0-row blocks contribute nothing to any
    keyed shuffle. Reproduced by tests/test_join_dag.py's sparse-graph
    case; idempotent, pinned to the HashShufflingOperatorBase seam."""
    import dataclasses

    try:
        from ray.data._internal.execution.operators import hash_shuffle as _hs
    except ImportError as e:
        raise missing_ray_symbol(
            "ray.data._internal.execution.operators.hash_shuffle"
        ) from e

    if getattr(_hs, "_ocr_ray_empty_block_patch", False):
        return
    base = getattr(_hs, "HashShufflingOperatorBase", None)
    if base is None:
        raise missing_ray_symbol("hash_shuffle.HashShufflingOperatorBase")
    _orig = getattr(base, "_do_add_input_inner", None)
    if _orig is None:
        raise missing_ray_symbol(
            "hash_shuffle.HashShufflingOperatorBase._do_add_input_inner"
        )

    def _inner(self, input_bundle, input_index):
        blocks = tuple(
            (ref, meta)
            for ref, meta in input_bundle.blocks
            if meta.num_rows is None or meta.num_rows > 0
        )
        if len(blocks) != len(input_bundle.blocks):
            if not blocks:
                return None
            input_bundle = dataclasses.replace(input_bundle, blocks=blocks)
        return _orig(self, input_bundle, input_index)

    _hs.HashShufflingOperatorBase._do_add_input_inner = _inner
    _hs._ocr_ray_empty_block_patch = True


def apply_to_dataset(ds):
    """Copy the tuned knobs onto an already-created Dataset (datasets
    snapshot their context at creation)."""
    src = configure()
    for attr in (
        "shuffle_strategy",
        "default_hash_shuffle_parallelism",
        "max_hash_shuffle_aggregators",
        *_AGGREGATOR_CPU_OVERRIDES,
        "enable_progress_bars",
    ):
        try:
            setattr(ds.context, attr, getattr(src, attr))
        except AttributeError:
            pass
    _register_release_callback(ds.context)
    return ds
