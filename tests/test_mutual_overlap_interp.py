"""Unit tests for mutual_nn_pairs and cross_source_overlap_matrix —
hand-computed expectations on tiny inputs."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_mutual_nn_pairs_hand(ray_session):
    import ray.data as rd

    from ocr_ray.ops.similarity import mutual_nn_pairs

    # angles 0, 10, 25 degrees: nn(0)=1, nn(1)=0 (10 < 15), nn(2)=1
    # -> only (0, 1) is mutual
    angs = np.deg2rad([0.0, 10.0, 25.0])
    vecs = np.stack([np.cos(angs), np.sin(angs)], axis=1)
    emb = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array(
                [list(v) for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    out = mutual_nn_pairs(rd.from_arrow(emb)).to_pandas()
    assert len(out) == 1
    assert out["vec_id_a"].tolist() == [0]
    assert out["vec_id_b"].tolist() == [1]
    assert abs(out["sim"][0] - np.cos(np.deg2rad(10.0))) < 1e-6


def test_mutual_nn_pairs_two_clusters(ray_session):
    import ray.data as rd

    from ocr_ray.ops.similarity import mutual_nn_pairs

    angs = np.deg2rad([0.0, 5.0, 90.0, 95.0])
    vecs = np.stack([np.cos(angs), np.sin(angs)], axis=1)
    emb = pa.table(
        {
            "vec_id": pa.array([10, 11, 20, 21], pa.int64()),
            "embedding": pa.array(
                [list(v) for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    out = (
        mutual_nn_pairs(rd.from_arrow(emb))
        .to_pandas()
        .sort_values("vec_id_a")
        .reset_index(drop=True)
    )
    assert out["vec_id_a"].tolist() == [10, 20]
    assert out["vec_id_b"].tolist() == [11, 21]


def test_cross_source_overlap_matrix(ray_session):
    import ray.data as rd

    from ocr_ray.ops.textstats import (
        cross_source_overlap_matrix,
        winnow_fingerprints,
    )

    phrase = "the quick brown fox jumps over the lazy dog again and again"
    other = "entirely different material with no shared phrasing at all ok"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([phrase, phrase, other], pa.string()),
            "source": pa.array(["A", "B", "C"], pa.string()),
        }
    )
    out = (
        cross_source_overlap_matrix(rd.from_arrow(docs))
        .to_pandas()
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )
    n_fps = len(set(winnow_fingerprints(phrase)))
    assert out["source_a"].tolist() == ["A"]
    assert out["source_b"].tolist() == ["B"]
    assert out["n_cooccurrences"].tolist() == [n_fps]


def test_mutual_nn_blocked_matches_exact(ray_session):
    """Plan-equivalence pin (VERDICT r04 #1): the blocked IVF top-1
    path equals the exact broadcast path — on a random corpus with the
    default nprobe=None (exact by construction), and on well-separated
    clusters even with nprobe=1 (the subquadratic config)."""
    import ray.data as rd

    from ocr_ray.ops.similarity import mutual_nn_pairs

    rng = np.random.RandomState(7)
    # 3 well-separated clusters in 8-d
    centers = np.eye(3, 8) * 10.0
    vecs = np.concatenate(
        [c + rng.standard_normal((20, 8)) * 0.05 for c in centers]
    )
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(len(vecs), dtype=np.int64)),
            "embedding": pa.array(
                [list(v) for v in vecs], pa.list_(pa.float64())
            ),
        }
    )

    def canon(ds):
        return (
            ds.to_pandas()
            .sort_values(["vec_id_a", "vec_id_b"])
            .reset_index(drop=True)
        )

    exact = canon(mutual_nn_pairs(rd.from_arrow(emb), mode="exact"))
    assert len(exact) > 0
    blocked_all = canon(mutual_nn_pairs(rd.from_arrow(emb)))
    blocked_sub = canon(
        mutual_nn_pairs(
            rd.from_arrow(emb), n_clusters=3, nprobe=1, sample_size=64
        )
    )
    for got in (blocked_all, blocked_sub):
        assert got["vec_id_a"].tolist() == exact["vec_id_a"].tolist()
        assert got["vec_id_b"].tolist() == exact["vec_id_b"].tolist()
        np.testing.assert_allclose(got["sim"], exact["sim"], atol=1e-9)


def test_mutual_nn_blocked_random_default_exact(ray_session):
    """Default nprobe=None probes every cluster: identical to exact on
    an unstructured random corpus (no cluster separation to lean on)."""
    import ray.data as rd

    from ocr_ray.ops.similarity import mutual_nn_pairs

    rng = np.random.RandomState(11)
    vecs = rng.standard_normal((60, 16))
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(60, dtype=np.int64) * 3 + 1),
            "embedding": pa.array(
                [list(v) for v in vecs], pa.list_(pa.float64())
            ),
        }
    )

    def canon(ds):
        return (
            ds.to_pandas()
            .sort_values(["vec_id_a", "vec_id_b"])
            .reset_index(drop=True)
        )

    exact = canon(mutual_nn_pairs(rd.from_arrow(emb), mode="exact"))
    blocked = canon(mutual_nn_pairs(rd.from_arrow(emb), n_clusters=8))
    assert blocked["vec_id_a"].tolist() == exact["vec_id_a"].tolist()
    assert blocked["vec_id_b"].tolist() == exact["vec_id_b"].tolist()
    np.testing.assert_allclose(blocked["sim"], exact["sim"], atol=1e-9)
