"""Embedding Gram moments vs a dense numpy reference."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_embedding_gram(ray_session):
    import ray.data as rd

    from ocr_ray.ops.search import embedding_gram_moments

    rng = np.random.RandomState(7)
    m = rng.randn(40, 5).astype(np.float32) * 0.3
    t = pa.table(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array(
                [list(map(float, r)) for r in m], pa.list_(pa.float32())
            ),
        }
    )
    out = embedding_gram_moments(rd.from_arrow(t)).to_pandas()
    q = np.floor(m.astype(np.float64) * 1000).astype(np.int64)
    gram = q.T @ q
    got = {(int(r.i), int(r.j)): int(r.s) for r in out.itertuples()}
    assert got[(0, 0)] == 40
    for i in range(5):
        assert got[(i + 1, 0)] == int(q[:, i].sum())
        for j in range(i, 5):
            assert got[(i + 1, j + 1)] == int(gram[i, j])
    assert len(got) == 5 * 6 // 2 + 5 + 1
