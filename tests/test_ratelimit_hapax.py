"""hapax_rate_by_source vs a hand-computed case."""
from __future__ import annotations

import pyarrow as pa


def test_hapax_rate_by_source_hand(ray_session):
    import ray.data as rd

    from ocr_ray.ops.keyness import hapax_rate_by_source

    docs = pa.table(
        {
            "source": pa.array(["s1", "s1", "s2"], pa.string()),
            "text": pa.array(
                [
                    "apple banana apple",  # apple ×2, banana ×1
                    "banana cherry",       # banana again ×1 → total 2
                    "dog dog cat",
                ],
                pa.string(),
            ),
        }
    )
    out = (
        hapax_rate_by_source(rd.from_arrow(docs))
        .to_pandas()
        .set_index("source")
    )
    # s1 counts: apple=2, banana=2, cherry=1 → vocab 3, hapax 1
    assert out.loc["s1", "vocab"] == 3
    assert out.loc["s1", "hapax"] == 1
    assert out.loc["s1", "hapax_millionths"] == 1_000_000 // 3
    # s2: dog=2, cat=1 → vocab 2, hapax 1
    assert out.loc["s2", "vocab"] == 2 and out.loc["s2", "hapax"] == 1
