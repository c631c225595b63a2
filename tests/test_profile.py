"""bm25_topk — the ranked-retrieval family."""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def _ds(table: pa.Table):
    import ray.data as rd

    return rd.from_arrow(table)


def _bm25_reference(texts: dict[int, str], terms: list[str], k1=1.2, b=0.75):
    """Straightforward float BM25 for ranking comparison."""
    import re

    tok = re.compile(r"[a-zA-Z]{3,}")
    words = {d: tok.findall(t.lower()) for d, t in texts.items()}
    n = len(texts)
    avgdl = sum(len(w) for w in words.values()) / n
    df = {
        t: sum(1 for w in words.values() if t in w) for t in terms
    }
    scores = {}
    for d, w in words.items():
        s = 0.0
        for t in terms:
            tf = w.count(t)
            if tf == 0 or df[t] == 0:
                continue
            idf = math.log((n - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(w) / avgdl))
        if s > 0:
            scores[d] = s
    return sorted(scores, key=lambda d: (-scores[d], d))


def test_bm25_ranking_matches_float_reference(ray_session):
    from ocr_ray.ops.search import bm25_topk

    texts = {
        1: "the hash join uses a hash table for the hash probe",
        2: "merge join and hash join are join strategies",
        3: "filter pushdown prunes early",
        4: "nothing relevant here at all",
        5: "hash hash hash hash hash everywhere in this long document "
        "with many extra words to stretch the length normalizer out",
        6: "join",  # <3 letters words absent; 'join' counts
    }
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values()), pa.string()),
        }
    )
    terms = ["hash", "join", "filter"]
    got = bm25_topk(_ds(t), terms, k=10).to_pandas()
    assert list(got["doc_id"]) == _bm25_reference(texts, terms)
    # integer fixed-point scores, strictly ordered output contract
    assert got["score"].dtype == np.int64
    assert (got["score"].values[:-1] >= got["score"].values[1:]).all()


def test_bm25_rare_term_outranks_common_at_equal_tf(ray_session):
    from ocr_ray.ops.search import bm25_topk

    # 'filter' appears in 1 doc, 'join' in 4 — one hit of the rare term
    # must outscore one hit of the common term at identical dl
    texts = {
        1: "join alpha beta gamma",
        2: "join delta epsilon zeta",
        3: "join eta theta iota",
        4: "join kappa lam mu",
        5: "filter kappa lam mu",
    }
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values()), pa.string()),
        }
    )
    got = bm25_topk(_ds(t), ["join", "filter"], k=5).to_pandas()
    assert got.iloc[0]["doc_id"] == 5


def test_bm25_empty_and_no_match(ray_session):
    from ocr_ray.ops.search import bm25_topk

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["alpha beta", "gamma delta"], pa.string()),
        }
    )
    got = bm25_topk(_ds(t), ["zzzmissing"], k=5)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert len(got) == 0
