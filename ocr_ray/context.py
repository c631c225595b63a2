"""Central Ray Data context configuration.

One place owns the execution knobs so every entry point (driver contract,
bench, tests, CLI) gets the same tuning:

- hash-shuffle strategy (required for key-based repartition — the
  reassembly shuffle — and the efficient path for groupbys);
- shuffle parallelism / aggregator counts sized to the actual cluster
  instead of the 200-partition default, which on a small local cluster
  starves the map stages (64 aggregators reserving CPUs on an 8-CPU
  node);
- progress bars / verbose logs off.

Never calls ray.init(); callers own the session.
"""
from __future__ import annotations


def configure(num_cpus: int | None = None):
    """Tune the global DataContext; returns it. Safe to call repeatedly."""
    from ray.data.context import DataContext

    try:
        from ray.data.context import ShuffleStrategy
    except ImportError:  # pragma: no cover - older Ray
        ShuffleStrategy = None

    if num_cpus is None:
        import ray

        if ray.is_initialized():
            num_cpus = int(ray.cluster_resources().get("CPU", 8))
        else:
            num_cpus = 8

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    if ShuffleStrategy is not None:
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        # partitions ≈ CPUs: one reduce wave fills the cluster, and the
        # per-partition costs (finalize task, aggregator bookkeeping,
        # tiny output blocks) are pure overhead past that — measured at
        # sf0.1 / 32 CPUs, 64 → 32 partitions cut a two-shuffle plan
        # from 19 s to 6 s with identical results. Still
        # cluster-proportional, so a 4× wider cluster gets 4× the
        # partitions (the scale knob the north rule exercises).
        # Aggregators are IO-light, so cap their pool and their
        # per-partition CPU reservation
        ctx.default_hash_shuffle_parallelism = max(8, min(num_cpus, 64))
        ctx.max_hash_shuffle_aggregators = max(2, num_cpus // 2)
        # near-zero so aggregators can ALWAYS schedule: a full actor pool
        # plus a pending read task must not starve the shuffle (observed
        # deadlock on a 4-CPU cluster: 3 actors + 1 read = 4.0 CPUs, the
        # 0.4-CPU aggregator bundle never started and everything
        # backpressured forever). Aggregators are memory/IPC-bound, not
        # CPU-bound, so oversubscription is safe.
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.01
        # aggregations have their OWN override (join/repartition read the
        # shuffle one above, groupby-aggregate reads this one); left unset
        # it defaults to 0.125 CPU/partition → 0.5-CPU aggregator actors,
        # and a DAG with 3+ hash aggregates deadlocks a 4-CPU cluster
        # (observed: 6 × 0.5-CPU aggregators alive, 2 pending, 0 tasks
        # runnable — everything waits forever)
        if hasattr(ctx, "hash_aggregate_operator_actor_num_cpus_per_partition_override"):
            ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.01
        # ... and joins read a third one (0.125/partition default → 0.5
        # CPU per join aggregator; three joins in one DAG reserve 3 full
        # CPUs before any task runs)
        if hasattr(ctx, "join_operator_actor_num_cpus_per_partition_override"):
            ctx.join_operator_actor_num_cpus_per_partition_override = 0.01
    _patch_hash_shuffle_empty_blocks()
    return ctx


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
        "hash_shuffle_operator_actor_num_cpus_per_partition_override",
        "hash_aggregate_operator_actor_num_cpus_per_partition_override",
        "join_operator_actor_num_cpus_per_partition_override",
        "enable_progress_bars",
    ):
        try:
            setattr(ds.context, attr, getattr(src, attr))
        except AttributeError:
            pass
    return ds
