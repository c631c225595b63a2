"""unigram_js_divergence extremes."""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def test_jsd_extremes(ray_session):
    import ray.data as rd

    from ocr_ray.ops.analysis import unigram_js_divergence

    # src A and B share NOTHING (jsd = ln 2); A and C are identical
    # distributions (jsd = 0)
    docs = pa.table(
        {
            "source": pa.array(["A", "A", "B", "C", "C"]),
            "text": pa.array(
                [
                    "apple banana",
                    "apple cherry",
                    "delta echo foxtrot golf",
                    "apple banana apple cherry",
                    "",  # empty doc contributes nothing
                ]
            ),
        }
    )
    out = unigram_js_divergence(rd.from_arrow(docs)).to_pandas()
    out = out.set_index(["source_a", "source_b"]).jsd_nano
    ln2_nano = int(np.floor(1e9 * math.log(2.0) + 0.5))
    # disjoint: every word contributes 0.5·p·ln2 (+ symmetric), total ln2.
    # per-word rounding loses < 1 nano per word (7 words) — allow that
    assert abs(int(out[("A", "B")]) - ln2_nano) <= 7
    assert int(out[("A", "C")]) == 0
    assert int(out[("B", "C")]) > 0
    # symmetry of the pair key: only a < b pairs emitted
    assert ("B", "A") not in out.index
