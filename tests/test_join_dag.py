"""Pin the chained multi-hash-join DAG shape that deadlocked twice.

Ray Data's hash join spawns aggregator actors per join; with default
remote args each aggregator reserves 0.5 CPU and a
target_max_block_size-derived logical memory slab. A streaming DAG with
THREE joins (plus a hash aggregate) reserved enough idle CPU/memory at
small cluster sizes that the finalize tasks could never schedule —
observed live at 4 CPUs (CPU reservations, see ocr_ray/context.py) and
at 32 CPUs (memory reservations, see ocr_ray/ops/joins.py:large_join).
Both fixes pin overrides; this test keeps the exact DAG shape running
under the 4-CPU pytest session, where a regression hangs loudly instead
of slipping through (revenue_by_nation used to be the live exercise but
now broadcasts its small sides).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_three_chained_large_joins_complete(ray_session):
    import ray.data as rd

    from ocr_ray.ops.joins import large_join

    n = 2000
    rng = np.random.default_rng(3)
    a = rd.from_arrow(
        pa.table(
            {
                "k1": pa.array(np.arange(n) % 97, pa.int64()),
                "k2": pa.array(np.arange(n) % 61, pa.int64()),
                "v": pa.array(rng.integers(0, 10, n), pa.int64()),
            }
        )
    )
    b = rd.from_arrow(
        pa.table(
            {
                "k1": pa.array(np.arange(97), pa.int64()),
                "w": pa.array(np.arange(97) * 2, pa.int64()),
            }
        )
    )
    c = rd.from_arrow(
        pa.table(
            {
                "k2": pa.array(np.arange(61), pa.int64()),
                "x": pa.array(np.arange(61) * 3, pa.int64()),
            }
        )
    )
    d = rd.from_arrow(
        pa.table(
            {
                "v": pa.array(np.arange(10), pa.int64()),
                "y": pa.array(np.arange(10) * 5, pa.int64()),
            }
        )
    )

    j = large_join(a, b, on="k1")
    j = large_join(j, c, on="k2")
    j = large_join(j, d, on="v")
    out = j.groupby("k1").sum("y")
    rows = out.take_all()
    # every a-row matches in all three dimension tables (inner joins
    # lose nothing), so the grouped sum must cover all 97 k1 values
    assert len(rows) == 97
    total = sum(r["sum(y)"] for r in rows)
    # serial oracle: y = 5·v for every row, same seed/layout
    expect = int(
        (np.random.default_rng(3).integers(0, 10, n) * 5).sum()
    )
    assert total == expect


def test_sparse_graph_join_survives_empty_partitions(ray_session):
    """Regression for the hash-shuffle schema-broadcast bug (see
    ocr_ray/context.py:_patch_hash_shuffle_empty_blocks): a 7-edge
    graph leaves most join partitions empty, so the wedge join's first
    output block is a 0-row column-less block — unpatched, the closure
    join dies with ArrowInvalid in HashShuffleAggregator.finalize."""
    import ray.data as rd

    from ocr_ray.ops.dedup import _renamed
    from ocr_ray.ops.joins import large_join

    edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (5, 6)]
    e = rd.from_arrow(
        pa.table(
            {
                "u": pa.array([u for u, _ in edges], pa.int64()),
                "v": pa.array([v for _, v in edges], pa.int64()),
            }
        )
    ).materialize()
    # wedges a < b < c over the canonical (u < v) edges, closed by (a, c)
    wedge = large_join(
        _renamed(e, {"u": "a", "v": "b"}),
        _renamed(e, {"u": "b2", "v": "c"}),
        on="b",
        right_on="b2",
    )
    tris = large_join(wedge, _renamed(e, {"u": "a", "v": "c"}), on=("a", "c"))
    got = {(r["a"], r["b"], r["c"]) for r in tris.take_all()}
    assert got == {(1, 2, 3), (3, 4, 5)}
