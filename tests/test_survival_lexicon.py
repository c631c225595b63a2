"""Unit tests for ops/lexicon.py (phrase matching) — hand-computed
expectations on tiny in-memory inputs."""
from __future__ import annotations

import pyarrow as pa


def test_phrase_match_counts(ray_session):
    import ray.data as rd

    from ocr_ray.ops.lexicon import phrase_match_counts

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "hash value hash value xx",
                    "nothing here",
                    "xx xx hash valueless",
                ],
                pa.string(),
            ),
        }
    )
    out = phrase_match_counts(
        rd.from_arrow(docs), phrases=("hash value", "xx")
    ).to_pandas()
    out = out.sort_values("phrase").reset_index(drop=True)
    assert out["phrase"].tolist() == ["hash value", "xx"]
    # "hash valueless" still contains substring "hash value"
    assert out["n_occurrences"].tolist() == [3, 3]
    assert out["n_docs"].tolist() == [2, 2]
