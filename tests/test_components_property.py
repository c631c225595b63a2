"""Property tests: distributed connected components vs an in-test
union-find reference on random graphs; attach_pair_payloads equivalence
between the broadcast (small) and hash-join (large) regimes."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ocr_ray.ops.dedup import connected_components


def _union_find_labels(edges):
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in edges:
        union(a, b)
    return {x: find(x) for x in parent}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_components_match_union_find(ray_session, seed):
    # denser than the old 45-edge config: random sparse graphs drew
    # diameter-17 components, and at test scale each propagation round
    # costs ~10 s of fixed Ray overhead (~250 s/seed). Diameter shrinks
    # to ~4 at 90 edges while the union-find comparison property is
    # unchanged; the deep-diameter path is covered by the long-chain
    # pointer-doubling test below.
    rng = np.random.RandomState(seed)
    n_nodes, n_edges = 60, 90
    a = rng.randint(0, n_nodes, n_edges)
    b = rng.randint(0, n_nodes, n_edges)
    keep = a != b
    edges = list(zip(a[keep].tolist(), b[keep].tolist()))
    pairs = rd.from_arrow(
        pa.table(
            {"doc_a": pa.array([e[0] for e in edges], pa.int64()),
             "doc_b": pa.array([e[1] for e in edges], pa.int64())}
        )
    )
    got = {
        int(r["node"]): int(r["label"])
        for r in connected_components(pairs).take_all()
    }
    assert got == _union_find_labels(edges)


def test_attach_pair_payloads_regime_equivalence(ray_session):
    from ocr_ray.ops.joins import attach_pair_payloads

    rng = np.random.RandomState(3)
    n_pairs = 60
    pairs_tbl = pa.table(
        {
            "doc_a": pa.array(rng.randint(0, 40, n_pairs), pa.int64()),
            "doc_b": pa.array(rng.randint(40, 80, n_pairs), pa.int64()),
        }
    )
    side_tbl = pa.table(
        {
            "doc_id": pa.array(range(80), pa.int64()),
            "payload": pa.array([f"p{i}" for i in range(80)], pa.string()),
        }
    )

    def run(threshold):
        out = attach_pair_payloads(
            rd.from_arrow(pairs_tbl),
            rd.from_arrow(side_tbl),
            key_a="doc_a",
            key_b="doc_b",
            side_key="doc_id",
            payloads={"payload": ("pay_a", "pay_b")},
            dedupe=True,
            small_threshold=threshold,
        ).take_all()
        return sorted(
            (r["doc_a"], r["doc_b"], r["pay_a"], r["pay_b"]) for r in out
        )

    small = run(10_000)  # broadcast regime
    large = run(1)       # forced hash-join regime
    assert small == large and len(small) > 0
    # every payload correctly looked up
    for a, b, pa_, pb in small:
        assert pa_ == f"p{a}" and pb == f"p{b}"


def test_long_chain_converges_via_pointer_doubling(ray_session, caplog):
    """A 64-hop chain with a 12-round budget — pure min-label
    propagation (O(diameter) rounds) could not converge it; pointer
    doubling, which engages after ``doubling_from=3`` propagation-only
    rounds, must — silently, with every node labeled 0. (The 4-CPU test
    fixture pays ~6-10 s of fixed per-round Ray overhead, so the
    in-suite case stays small; a 300-hop chain converges the same
    way — measured out-of-band.)"""
    import logging

    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.dedup import connected_components

    n = 64
    chain = pa.table(
        {
            "doc_a": pa.array(range(n), pa.int64()),
            "doc_b": pa.array(range(1, n + 1), pa.int64()),
        }
    )
    with caplog.at_level(logging.WARNING, logger="ocr_ray.dedup"):
        out = {
            r["node"]: r["label"]
            for r in connected_components(rd.from_arrow(chain), max_iters=12).take_all()
        }
    assert len(out) == n + 1
    assert set(out.values()) == {0}
    assert not any("did NOT converge" in r.message for r in caplog.records)


