"""Property tests for global_ranks and the sorted neighborhood against
brute-force oracles on randomized inputs. Hypothesis drives the data;
one shared Ray session keeps it fast."""
from __future__ import annotations

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_FAST = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(
    vals=st.lists(
        st.integers(min_value=0, max_value=5_000), min_size=1, max_size=60
    )
)
@_FAST
def test_global_ranks_matches_argsort(ray_session, vals):
    import ray.data as rd

    from ocr_ray.ops.stats import global_ranks

    t = pa.table(
        {
            "k": pa.array(range(len(vals)), pa.int64()),
            "v": pa.array(vals, pa.int64()),
        }
    )
    out = global_ranks(
        rd.from_arrow(t), "k", "v", bucket_width=257
    ).to_pandas()
    got = {int(r.k): int(r.rank) for r in out.itertuples()}
    order = sorted(range(len(vals)), key=lambda i: (vals[i], i))
    want = {k: i + 1 for i, k in enumerate(order)}
    assert got == want


@given(
    texts=st.lists(
        st.text(
            alphabet=st.sampled_from("abc xyz"), min_size=0, max_size=30
        ),
        min_size=1,
        max_size=25,
    ),
    window=st.integers(min_value=1, max_value=4),
)
@_FAST
def test_sorted_neighborhood_property(ray_session, texts, window):
    import re

    import ray.data as rd

    from ocr_ray.ops.dedup import sorted_neighborhood_pairs

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = sorted_neighborhood_pairs(docs, window=window).to_pandas()
    got = {(int(r.doc_a), int(r.doc_b)) for r in out.itertuples()}

    def norm(s):
        return re.sub(r"\s+", " ", s.lower()).strip()[:24]

    keyed = sorted((norm(t), i) for i, t in enumerate(texts))
    want = set()
    for a in range(len(keyed)):
        for b in range(a + 1, min(a + window, len(keyed) - 1) + 1):
            want.add((keyed[a][1], keyed[b][1]))
    assert got == want
    assert len(out) == len(want)
