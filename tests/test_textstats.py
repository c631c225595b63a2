from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_ray.ops.textstats import (
    rolling_hashes,
    winnow_fingerprints,
)


def test_rolling_hash_shift_invariance():
    # same k-grams → same hash values regardless of position
    h1 = rolling_hashes("abcdefghij", k=4)
    h2 = rolling_hashes("XXabcdefghij"[2:], k=4)
    assert np.array_equal(h1, h2)
    # whitespace-normalized: runs collapse
    assert np.array_equal(
        rolling_hashes("a  b\tc", k=3), rolling_hashes("a b c", k=3)
    )


def test_winnow_overlap_detects_shared_passage():
    base = "surat keterangan nomor dua puluh tujuh tentang penggunaan rumah negara"
    doc_a = "awalan berbeda dulu. " + base + " akhiran lain."
    doc_b = "pembuka teks lain ya. " + base + " dan penutup berbeda."
    doc_c = "dokumen sama sekali tidak mirip dengan lainnya di sini."
    fa, fb, fc = (set(winnow_fingerprints(d)) for d in (doc_a, doc_b, doc_c))
    assert len(fa & fb) > 0           # shared passage → shared fingerprints
    assert len(fa & fc) == 0 or len(fa & fc) < len(fa & fb)


def test_winnow_edge_cases():
    assert winnow_fingerprints("") == []
    assert winnow_fingerprints("abc") == []          # shorter than k
    short = winnow_fingerprints("abcdefgh")          # one window
    assert len(short) == 1


# ---------------------------------------------- tf-idf / balanced sample


def test_tfidf_top_terms_ranks_distinctive_words(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.tfidf import tfidf_top_terms

    texts = [
        "common common common zebra zebra zebra zebra",
        "common common common apple",
        "common common banana",
        "common cherry cherry",
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(4), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    out = tfidf_top_terms(rd.from_arrow(tbl), k=2).to_pandas()
    top = out[out["rank"] == 1].set_index("doc_id")["word"].to_dict()
    # 'common' appears in every doc → idf 0 → never the top term
    assert top == {0: "zebra", 1: "apple", 2: "banana", 3: "cherry"}
    z = out[(out["doc_id"] == 0) & (out["word"] == "zebra")].iloc[0]
    assert z["tf"] == 4
    assert z["score"] == round(4 * float(np.log(4.0 / 1.0)), 6)
    # ln(N/df)=ln(1)=0 for 'common' everywhere
    assert (out[out["word"] == "common"]["score"] == 0.0).all()


def test_stratified_sample_per_group_deterministic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.tfidf import stratified_sample_per_group

    tbl = pa.table(
        {
            "lang": pa.array(["id"] * 40 + ["en"] * 25, pa.string()),
            "doc_id": pa.array(range(65), pa.int64()),
        }
    )
    out1 = stratified_sample_per_group(rd.from_arrow(tbl), k=7).to_pandas()
    # exactly k per group, ranks 1..k
    counts = out1.groupby("lang")["doc_id"].count().to_dict()
    assert counts == {"id": 7, "en": 7}
    assert sorted(out1[out1["lang"] == "en"]["rank"]) == list(range(1, 8))
    # input-order independence: shuffled rows give the identical sample
    perm = tbl.take(list(reversed(range(65))))
    out2 = stratified_sample_per_group(rd.from_arrow(perm), k=7).to_pandas()
    key = lambda df: sorted(map(tuple, df[["lang", "doc_id", "rank"]].values))
    assert key(out1) == key(out2)


def test_term_postings_and_search(ray_session):
    import ray.data as rd

    from ocr_ray.ops.search import search_topk, term_postings

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "hash join hash join filter",
                    "scan filter",
                    "the and of",  # all < 3 chars or stopword-ish, still words
                ]
            ),
        }
    )
    posts = {
        (r["doc_id"], r["word"]): r["tf"]
        for r in term_postings(rd.from_arrow(tbl)).take_all()
    }
    assert posts[(1, "hash")] == 2 and posts[(1, "join")] == 2
    assert posts[(1, "filter")] == 1 and posts[(2, "scan")] == 1
    assert (3, "the") in posts  # 3-letter words count; no stoplist here

    top = search_topk(rd.from_arrow(tbl), ["hash", "filter"], k=2).take_all()
    assert [(r["doc_id"], r["score"]) for r in top] == [(1, 3), (2, 1)]


def test_label_centroids_fixed_point_exact(ray_session):
    import ray.data as rd

    from ocr_ray.ops.search import label_centroids

    tbl = pa.table(
        {
            "label": pa.array([0, 0, 1], pa.int32()),
            "embedding": pa.array(
                [[1.0, 2.0], [3.0, 6.0], [5.0, -1.5]],
                pa.list_(pa.float32()),
            ),
        }
    )
    rows = {
        (r["label"], r["dim"]): (r["centroid"], r["n_vecs"])
        for r in label_centroids(rd.from_arrow(tbl)).take_all()
    }
    assert rows[(0, 1)] == (2.0, 2)
    assert rows[(0, 2)] == (4.0, 2)
    assert rows[(1, 1)] == (5.0, 1)
    assert rows[(1, 2)] == (-1.5, 1)


def test_repetition_stats_hand_checked():
    from ocr_ray.ops.textstats import repetition_stats_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    # 6 words, 3 distinct; "the cat" bigram twice of 5
                    "the cat the cat the dog",
                    # all distinct
                    "alpha beta gamma",
                    # single word
                    "solo",
                    # empty after tokenization
                    "  ...  ",
                ]
            ),
        }
    )
    out = repetition_stats_batch(batch)
    rows = {r["doc_id"]: r for r in out.to_pylist()}

    r1 = rows[1]
    assert r1["n_words"] == 6 and r1["n_distinct_words"] == 3
    assert r1["top_word_count"] == 3  # "the"
    assert r1["top_word_frac"] == 3 / 6
    assert r1["top_bigram_count"] == 2  # "the cat"
    assert r1["top_bigram_frac"] == 2 / 5
    assert r1["dup_word_frac"] == 1.0 - 3 / 6

    r2 = rows[2]
    assert r2["n_words"] == 3 and r2["n_distinct_words"] == 3
    assert r2["top_word_count"] == 1 and r2["top_bigram_count"] == 1
    assert r2["dup_word_frac"] == 0.0

    r3 = rows[3]
    assert r3["n_words"] == 1 and r3["top_bigram_count"] == 0
    assert r3["top_bigram_frac"] == 0.0

    r4 = rows[4]
    assert r4["n_words"] == 0 and r4["n_distinct_words"] == 0
    assert r4["top_word_frac"] == 0.0 and r4["top_bigram_frac"] == 0.0


def test_repetition_stats_pathological_single_token_doc():
    from ocr_ray.ops.textstats import repetition_stats_batch

    batch = pa.table(
        {
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array(["spam " * 100]),
        }
    )
    (r,) = repetition_stats_batch(batch).to_pylist()
    assert r["n_words"] == 100 and r["n_distinct_words"] == 1
    assert r["top_word_frac"] == 1.0
    assert r["top_bigram_count"] == 99 and r["top_bigram_frac"] == 1.0
    assert r["dup_word_frac"] == 1.0 - 1 / 100


def test_zipf_slope_matches_plain_fit(ray_session):
    """Engine slope == plain-Python quantized OLS on a hand-built corpus;
    a single-word language takes the guarded 0.0 branch."""
    import math

    import ray.data as rd

    from ocr_ray.ops.textstats import _ZIPF_SCALE, zipf_slope_by_lang

    # lang 'a': zipfian-ish counts via repeated words; lang 'b': one word
    docs_a = ["alpha " * 8 + "beta " * 4 + "gamma " * 2 + "delta"] * 3
    rows = [{"doc_id": i, "lang": "a", "text": t} for i, t in enumerate(docs_a)]
    rows.append({"doc_id": 99, "lang": "b", "text": "solo solo solo"})
    out = {
        r["lang"]: r
        for r in zipf_slope_by_lang(rd.from_items(rows)).take_all()
    }

    counts = {"alpha": 24, "beta": 12, "gamma": 6, "delta": 3}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    x = [math.floor(math.log(i + 1) * _ZIPF_SCALE) for i in range(len(ranked))]
    y = [math.floor(math.log(n) * _ZIPF_SCALE) for _, n in ranked]
    v = len(x)
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    slope = (float(v) * float(sxy) - float(sx) * float(sy)) / (
        float(v) * float(sxx) - float(sx) * float(sx)
    )
    assert out["a"]["n_words"] == 4
    assert out["a"]["zipf_slope"] == slope
    assert slope < -0.9  # zipf-shaped: roughly -1
    assert out["b"]["n_words"] == 1
    assert out["b"]["zipf_slope"] == 0.0


def test_readability_scores_hand_check(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.textstats import readability_scores

    # doc: 4 words, 2 sentences, syllables: the(1) cat(1) sat(1) happily(3→'a','i','y' groups)
    t = pa.table(
        {
            "lang": pa.array(["en"], pa.string()),
            "text": pa.array(["The cat sat. Happily!"], pa.string()),
        }
    )
    out = readability_scores(rd.from_arrow(t)).to_pandas().iloc[0]
    assert out["n_docs"] == 1 and out["n_words"] == 4
    assert out["n_sents"] == 2 and out["n_syll"] == 6
    w, s, y = 4.0, 2.0, 6.0
    want = 206.835 - 1.015 * (w / s) - 84.6 * (y / w)
    assert out["flesch_micro"] == int(np.floor(1_000_000.0 * want + 0.5))


def test_readability_no_terminator_is_one_sentence(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.textstats import readability_scores

    t = pa.table(
        {
            "lang": pa.array(["en"], pa.string()),
            "text": pa.array(["no punctuation at all here"], pa.string()),
        }
    )
    out = readability_scores(rd.from_arrow(t)).to_pandas().iloc[0]
    assert out["n_sents"] == 1


def test_vocab_concentration_extremes(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.analysis import vocab_concentration

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                [
                    "spam spam spam spam",          # one word: HHI = 1e9
                    "alpha beta gamma delta",       # 4 words once: 1e9/4
                ],
                pa.string(),
            ),
            "source": pa.array(["mono", "flat"], pa.string()),
        }
    )
    out = (
        vocab_concentration(rd.from_arrow(docs))
        .to_pandas()
        .set_index("source")
    )
    assert out.loc["mono", "hhi_ppb"] == 1_000_000_000
    assert out.loc["mono", "n_types"] == 1
    assert out.loc["flat", "hhi_ppb"] == 250_000_000
    assert out.loc["flat", "n_tokens"] == 4


def test_langid_calibration_hand(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.analysis import langid_calibration

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "the and of the",     # words >=3 chars: the,and,the -> margin -3, pred en
                    "yang dan",           # margin 2, pred id
                    "plain words only",   # margin 0, pred id (tie -> id)
                ],
                pa.string(),
            ),
            "lang": pa.array(["en", "id", "en"], pa.string()),
        }
    )
    out = (
        langid_calibration(rd.from_arrow(docs))
        .to_pandas()
        .set_index("margin_bucket")
    )
    assert out.loc[-3, "n_correct"] == 1
    assert out.loc[2, "n_correct"] == 1
    assert out.loc[0, "n_correct"] == 0  # tie predicted id, truth en
    assert out.loc[0, "accuracy"] == 0.0
