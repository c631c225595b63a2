"""Block-level grouped map — the scale-friendly alternative to
``GroupedData.map_groups``.

``map_groups`` invokes a Python UDF once per group; with millions of tiny
groups (LSH buckets, shingle postings) the per-group dispatch dominates.
``grouped_map`` uses the same shuffle Ray's map_groups builds on —
``repartition(N, keys, sort=True)``, which guarantees a group never
straddles a block — but hands the UDF the ENTIRE sorted block plus the
precomputed group boundaries, so the UDF can skip single-row groups in
bulk and vectorize across groups.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def group_starts(table: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Start indices of each key-run in a block sorted by ``keys``."""
    n = table.num_rows
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for key in keys:
        col = table.column(key)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = pc.dictionary_encode(col).indices.to_numpy(zero_copy_only=False)
        np.logical_or(change[1:], codes[1:] != codes[:-1], out=change[1:])
    return np.flatnonzero(change)


def grouped_map(
    ds,
    keys: Sequence[str],
    block_fn: Callable[[pa.Table, np.ndarray], pa.Table],
    num_partitions: int | None = None,
    sort_within: Sequence[str] = (),
):
    """Hash-partition ``ds`` by ``keys`` and apply ``block_fn(sorted_block,
    starts)`` once per block. ``starts`` are the group start offsets
    (append ``len(block)`` for end bounds). ``sort_within`` adds
    secondary sort columns inside each group (e.g. a timestamp for
    session/windowed logic)."""
    from ocr_ray.context import apply_to_dataset, cluster_cpus, plan_resources
    from ocr_ray.stages.reassemble import use_hash_shuffle

    keys = list(keys)
    if num_partitions is None:
        num_partitions = plan_resources(cluster_cpus()).shuffle_partitions

    if use_hash_shuffle(ds):
        # sort=False: co-location needs only the hash partition (the
        # block-level apply sorts), and the shuffle finalizer's sort
        # breaks on fully-empty schema-less partitions
        shuffled = apply_to_dataset(
            ds.repartition(num_partitions, keys=keys, sort=False)
        )
    else:  # pragma: no cover - hash shuffle exists in this Ray build
        shuffled = ds.sort(keys)

    sort_keys = [(k, "ascending") for k in (*keys, *sort_within)]

    def apply(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return block_fn(batch, np.empty(0, dtype=np.int64))
        batch = batch.sort_by(sort_keys)
        return block_fn(batch, group_starts(batch, keys))

    return shuffled.map_batches(apply, batch_format="pyarrow", batch_size=None)
