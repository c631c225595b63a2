"""String-similarity joins (ops/strsim.py): the exact sparse tf-vector
cosine join checked against brute force, the Jaro-Winkler vocabulary
join, and the attach_pair_payloads extra-column regression (both
regimes must preserve non-key pair columns)."""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pytest


def _docs_ds(texts, text_col="text"):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                text_col: pa.array(texts, pa.string()),
            }
        )
    )


COS_TEXTS = [
    "alpha beta beta gamma",
    "alpha beta gamma gamma",
    "alpha delta epsilon zeta",
    "unique words nothing shared",
    "beta beta beta alpha",
    "",  # empty doc: no postings, no pairs
]


def _expected_cosine(threshold, max_df):
    from collections import Counter

    tfs = [
        Counter(re.findall(r"[a-zA-Z]{3,}", t.lower())) for t in COS_TEXTS
    ]
    df = Counter()
    for c in tfs:
        df.update(c.keys())
    kept = {w for w, d in df.items() if 2 <= d <= max_df}
    out = set()
    for i in range(len(tfs)):
        for j in range(i + 1, len(tfs)):
            a = {w: c for w, c in tfs[i].items() if w in kept}
            b = {w: c for w, c in tfs[j].items() if w in kept}
            dot = sum(a[w] * b[w] for w in a.keys() & b.keys())
            if dot == 0:
                continue
            na = sum(v * v for v in a.values())
            nb = sum(v * v for v in b.values())
            cos = dot / np.sqrt(float(na) * float(nb))
            cos = np.floor(cos * 1_000_000 + 0.5) / 1_000_000
            if cos >= threshold:
                out.add((i, j, dot, cos))
    return out


@pytest.mark.parametrize("threshold", [0.3, 0.9])
def test_doc_cosine_pairs_vs_brute(ray_session, threshold):
    from ocr_ray.ops.strsim import doc_cosine_pairs_sparse

    got = {
        (r["doc_a"], r["doc_b"], r["dot"], r["cos"])
        for r in doc_cosine_pairs_sparse(
            _docs_ds(COS_TEXTS), threshold=threshold
        ).take_all()
    }
    assert got == _expected_cosine(threshold, max_df=256)


def test_doc_cosine_max_df_drops_stop_words(ray_session):
    from ocr_ray.ops.strsim import doc_cosine_pairs_sparse

    # with max_df=2 the df-3+ words (alpha df=5, beta df=3, gamma df=2)
    # reduce to gamma only → exactly the (0, 1) pair survives on gamma
    got = doc_cosine_pairs_sparse(
        _docs_ds(COS_TEXTS), threshold=0.0, max_df=2
    ).take_all()
    assert {(r["doc_a"], r["doc_b"]) for r in got} == {(0, 1)}


@pytest.mark.parametrize("small_threshold", [200_000, 0])
def test_attach_pair_payloads_keeps_extra_columns(
    ray_session, small_threshold
):
    """Non-key pair columns must ride through BOTH the broadcast and the
    large-join regimes (regression: the broadcast attacher rebuilt the
    output from keys+payloads only, dropping e.g. the dot column the
    sparse cosine join carries)."""
    import ray.data as rd

    from ocr_ray.ops.joins import attach_pair_payloads

    pairs = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 2, 3], pa.int64()),
                "b": pa.array([2, 3, 4], pa.int64()),
                "dot": pa.array([10, 20, 30], pa.int64()),
            }
        )
    )
    side = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, 4], pa.int64()),
                "w": pa.array([5, 6, 7, 8], pa.int64()),
            }
        )
    )
    out = attach_pair_payloads(
        pairs,
        side,
        key_a="a",
        key_b="b",
        side_key="k",
        payloads={"w": ("w_a", "w_b")},
        small_threshold=small_threshold,
    ).take_all()
    got = {(r["a"], r["b"], r["dot"], r["w_a"], r["w_b"]) for r in out}
    assert got == {(1, 2, 10, 5, 6), (2, 3, 20, 6, 7), (3, 4, 30, 7, 8)}


def test_jaro_winkler_matches_duckdb_native(ray_session):
    """The engine's JW must be bit-identical to DuckDB's native
    function — fuzzed over random letter strings."""
    import random

    import duckdb

    from ocr_ray.ops.strsim import _jaro_winkler

    rng = random.Random(11)
    pairs = [
        (
            "".join(rng.choices("abcdef", k=rng.randint(1, 12))),
            "".join(rng.choices("abcdef", k=rng.randint(1, 12))),
        )
        for _ in range(500)
    ]
    con = duckdb.connect()
    vals = ", ".join(f"('{a}','{b}')" for a, b in pairs)
    rows = con.sql(
        f"SELECT a, b, jaro_winkler_similarity(a, b) "
        f"FROM (VALUES {vals}) t(a, b)"
    ).fetchall()
    for a, b, d in rows:
        assert _jaro_winkler(a, b) == d, (a, b)


def test_jaro_winkler_pairs_blocked_join(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.strsim import jaro_winkler_pairs

    # marthas/marhtas differ by a transposition (same first letter,
    # same length); "zebra" matches nothing in its block
    texts = [
        "marthas marhtas zebra common words",
        "marthas marhtas zebra more common words",
    ]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = jaro_winkler_pairs(docs, threshold=0.9, min_df=2).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["word_a"], row["word_b"]) == ("marhtas", "marthas")
    assert row["df_a"] == 2 and row["df_b"] == 2
    assert 0.9 <= row["jw"] <= 1.0


def test_jaro_winkler_pairs_unequal_lengths_meet_once(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.strsim import jaro_winkler_pairs

    # table/tables: length delta 1 → host-visitor pairing in the
    # shorter word's block; must appear exactly once
    texts = ["table tables filler", "table tables filler"]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = jaro_winkler_pairs(docs, threshold=0.9, min_df=2).to_pandas()
    hits = out[(out["word_a"] == "table") & (out["word_b"] == "tables")]
    assert len(hits) == 1
