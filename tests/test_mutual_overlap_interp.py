"""Unit tests for cross_source_overlap_matrix — hand-computed
expectations on tiny inputs."""
from __future__ import annotations

import pyarrow as pa


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
