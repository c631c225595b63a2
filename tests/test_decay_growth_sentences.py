"""sentence_length_hist."""
from __future__ import annotations

import pyarrow as pa


def test_sentence_length_hist_hand(ray_session):
    import ray.data as rd

    from ocr_ray.ops.textstats import sentence_length_hist

    docs = pa.table(
        {
            "text": pa.array(
                ["Hello world. Yes! Ok", "... ", "One two three?"],
                pa.string(),
            )
        }
    )
    out = (
        sentence_length_hist(rd.from_arrow(docs))
        .to_pandas()
        .set_index("wc")
    )
    assert out.loc[1, "n_sentences"] == 2  # "Yes", "Ok"
    assert out.loc[2, "n_sentences"] == 1  # "Hello world"
    assert out.loc[3, "n_sentences"] == 1  # "One two three"
    assert out["n_sentences"].sum() == 4
