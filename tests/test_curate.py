"""Composite curation pipeline (ops/curate.py): score → filter →
exact-dedup → per-language rollup.

Note the word regex is ``[a-zA-Z]{3,}`` (shared with the standalone
queries and their SQL oracles), so only stopwords of length >= 3 count
toward the ratios — fixtures below use those.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from ocr_ray.ops.curate import curate_corpus, curate_stats


def _ds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


# 24 words, heavy >=3-char EN stopwords -> kept, lang en
EN_TEXT = (
    "the report and that this from have not the analysis and that "
    "this from have considered many options the report and that this"
)
# same content, different case + whitespace -> same fingerprint
EN_DUP = "  THE report  and that this from have not the analysis and that\nthis from have considered many options the report and that this "
# >=3-char ID stopwords dominate -> kept, lang id
ID_TEXT = (
    "dan dari dengan adalah pada dalam akan atau ini itu dan dari "
    "dengan adalah pada dalam akan atau ini itu laporan keuangan tahunan"
)
SHORT = "the and that this from"  # < 20 words -> dropped
NO_STOPS = " ".join(f"zzz{i:03d} qqq{i:03d}" for i in range(15))  # 30 words, 0 stopwords
PUNCTY = "!!! ??? ;;; " * 30 + EN_TEXT  # punct_ratio > 0.2 -> dropped


def test_curate_corpus_filter_dedup(ray_session):
    rows = [
        (7, EN_TEXT),
        (3, EN_DUP),     # dup of doc 7 -> keeper is min(3, 7) = 3
        (11, ID_TEXT),
        (20, SHORT),
        (21, NO_STOPS),
        (22, PUNCTY),
    ]
    kept = sorted(
        curate_corpus(_ds(rows)).take_all(), key=lambda r: r["doc_id"]
    )
    assert [r["doc_id"] for r in kept] == [3, 11]
    by_id = {r["doc_id"]: r for r in kept}
    assert by_id[3]["lang_pred"] == "en"
    assert by_id[3]["n_copies"] == 2
    assert by_id[11]["lang_pred"] == "id"
    assert by_id[11]["n_copies"] == 1
    # whitespace-insensitive token count identical across the dup pair
    assert by_id[3]["n_tokens"] == len(EN_TEXT.split())


def test_curate_stats_rollup(ray_session):
    rows = [
        (7, EN_TEXT),
        (3, EN_DUP),
        (11, ID_TEXT),
        (20, SHORT),
    ]
    stats = {r["lang_pred"]: r for r in curate_stats(_ds(rows)).take_all()}
    assert set(stats) == {"en", "id"}
    en, idn = stats["en"], stats["id"]
    assert en["n_docs"] == 1 and en["n_docs_before_dedup"] == 2
    assert en["min_doc_id"] == en["max_doc_id"] == 3
    assert en["sum_tokens"] == len(EN_TEXT.split())
    assert idn["n_docs"] == idn["n_docs_before_dedup"] == 1
    assert idn["sum_tokens"] == len(ID_TEXT.split())


def test_curate_empty_and_all_filtered(ray_session):
    out = curate_corpus(_ds([(1, SHORT), (2, NO_STOPS)])).take_all()
    assert out == []


def test_length_outliers_matches_serial(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.curate import length_outliers

    rng = np.random.default_rng(21)
    n = 400
    langs = np.array(["id", "en"])[rng.integers(0, 2, n)]
    chars = rng.integers(50, 200, n)
    chars[::97] = 5000  # planted high outliers
    chars[5] = 1        # planted low outlier
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array(langs.tolist(), pa.string()),
            "n_chars": pa.array(chars, pa.int64()),
        }
    )
    got = {
        r["doc_id"]
        for r in length_outliers(
            rd.from_arrow(tbl).repartition(7), k_sigma=2.0
        ).take_all()
    }
    expect = set()
    for lang in ("id", "en"):
        sel = langs == lang
        x = chars[sel].astype(np.int64)
        nl, s, ss = float(len(x)), float(x.sum()), float((x * x).sum())
        mean = s / nl
        std = float(np.sqrt(ss / nl - (s / nl) * (s / nl)))
        ids = np.arange(n)[sel]
        mask = (x < mean - 2.0 * std) | (x > mean + 2.0 * std)
        expect.update(ids[mask].tolist())
    assert got == expect
    assert len(got) > 0  # planted outliers must be flagged


def test_length_percent_rank_matches_pandas(ray_session):
    import ray.data as rd

    from ocr_ray.ops.curate import length_percent_rank

    rng = np.random.RandomState(5)
    lengths = rng.randint(10, 40, size=200)  # heavy ties
    tbl = pa.table(
        {
            "doc_id": pa.array(range(200), pa.int64()),
            "n_chars": pa.array(lengths, pa.int64()),
        }
    )
    out = (
        length_percent_rank(rd.from_arrow(tbl))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    df = tbl.to_pandas()
    expect_rank = df["n_chars"].rank(method="min").astype(int)
    assert (out["rnk"] == expect_rank).all()
    expect_pct = (expect_rank - 1) / (len(df) - 1)
    assert np.array_equal(out["pct_rank"].to_numpy(), expect_pct.to_numpy())


def test_vocab_by_source_hand_checked(ray_session):
    import ray.data as rd

    from ocr_ray.ops.analysis import vocab_by_source

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "source": pa.array(["a", "a", "b"], pa.string()),
            # tokenizer is [a-zA-Z]{3,} on lowered text: "to" drops out
            "text": pa.array(
                ["the cat the dog", "the cat runs to", "solo words"]
            ),
        }
    )
    rows = {r["source"]: r for r in vocab_by_source(rd.from_arrow(tbl)).take_all()}
    a = rows["a"]
    # source a tokens: the,cat,the,dog,the,cat,runs → 7; distinct 4
    assert a["n_tokens"] == 7 and a["n_distinct_words"] == 4
    assert a["type_token_ratio"] == 4 / 7
    b = rows["b"]
    assert b["n_tokens"] == 2 and b["n_distinct_words"] == 2
    assert b["type_token_ratio"] == 1.0


def test_length_robust_outliers(ray_session):
    """Median/MAD against a plain-python reference on a corpus with
    planted extreme lengths; the heavy tail must flag as outliers
    without inflating the (robust) spread estimate."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.stats import length_robust_outliers

    lengths = [100 + (i % 21) for i in range(200)]  # tight cluster
    lengths += [5000, 6000, 7000]  # planted extremes
    tbl = pa.table(
        {
            "lang": pa.array(["en"] * len(lengths), pa.string()),
            "n_chars": pa.array(lengths, pa.int64()),
        }
    )
    row = length_robust_outliers(rd.from_arrow(tbl)).take_all()[0]

    def disc_median(vals):
        vals = sorted(vals)
        return vals[(len(vals) + 1) // 2 - 1]

    med = disc_median(lengths)
    mad = disc_median([abs(v - med) for v in lengths])
    n_out = sum(1 for v in lengths if abs(v - med) * 10000 > 44478 * mad)
    assert row == {
        "lang": "en", "median_chars": med, "mad_chars": mad,
        "n_docs": len(lengths), "n_outliers": n_out,
    }
    assert row["n_outliers"] >= 3  # the planted extremes are caught
    assert row["mad_chars"] <= 21  # ...without inflating the spread


def test_length_token_correlation_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.stats import length_token_correlation

    rng = np.random.default_rng(11)
    texts = [" ".join(["w"] * int(k)) for k in rng.integers(1, 50, 40)]
    docs = pa.table(
        {
            "lang": pa.array(["en"] * 40, pa.string()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    out = length_token_correlation(rd.from_arrow(docs)).take_all()
    assert len(out) == 1 and out[0]["n"] == 40
    x = np.array([len(t) for t in texts], float)
    y = np.array([len(t.split()) for t in texts], float)
    expect = np.corrcoef(x, y)[0, 1]
    assert abs(out[0]["corr"] - expect) < 1e-12
    # perfectly linear relation here (n_chars = 2*tokens - 1) -> corr 1
    assert out[0]["corr"] > 0.9999
