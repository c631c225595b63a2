"""pii_rate_by_source."""
from __future__ import annotations

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
