"""pii_rate_by_source / cross_label_pairs."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_pii_rate_by_source_hand(ray_session):
    import ray.data as rd

    from ocr_ray.ops.redact import pii_rate_by_source

    docs = pa.table(
        {
            "source": pa.array(["s1", "s1", "s1", "s2"], pa.string()),
            "text": pa.array(
                [
                    "mail me at a.b@example.com or c@d.org",
                    "clean text only",
                    "see https://x.test/page now",
                    "nothing here",
                ],
                pa.string(),
            ),
        }
    )
    out = (
        pii_rate_by_source(rd.from_arrow(docs))
        .to_pandas()
        .set_index("source")
    )
    assert out.loc["s1", "n_docs"] == 3
    assert out.loc["s1", "n_pii_docs"] == 2
    assert out.loc["s1", "n_emails"] == 2
    assert out.loc["s1", "n_urls"] == 1
    assert out.loc["s1", "rate_millionths"] == 2 * 1_000_000 // 3
    assert out.loc["s2", "n_pii_docs"] == 0
    assert out.loc["s2", "rate_millionths"] == 0


def test_cross_label_pairs_hand(ray_session):
    import ray.data as rd

    from ocr_ray.ops.similarity import cross_label_pairs

    rng = np.random.default_rng(23)
    base = rng.standard_normal((6, 16))
    # vec 100 ≈ vec 0 but different label → must surface;
    # vec 101 ≈ vec 1 with the SAME label → must be filtered
    near0 = base[0] + 1e-5
    near1 = base[1] + 1e-5
    vecs = np.vstack([base, near0, near1])
    ids = np.array([0, 1, 2, 3, 4, 5, 100, 101], np.int64)
    labels = np.array([10, 20, 30, 40, 50, 60, 99, 20], np.int64)
    emb = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [row for row in vecs], pa.list_(pa.float64())
            ),
            "label": pa.array(labels, pa.int64()),
        }
    )
    out = cross_label_pairs(
        rd.from_arrow(emb), threshold=0.999
    ).to_pandas()
    pairs = set(zip(out.vec_a, out.vec_b))
    assert (0, 100) in pairs
    assert (1, 101) not in pairs
    row = out[(out.vec_a == 0) & (out.vec_b == 100)].iloc[0]
    assert row.label_a == 10 and row.label_b == 99
    assert row.cosine > 0.999
