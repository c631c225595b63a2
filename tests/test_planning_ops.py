"""Planning operators: packing-efficiency sweep, LSH banding planner,
curriculum NTILE — hand-computed small cases."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_packing_efficiency_hand(ray_session):
    from ocr_ray.ops.chunk import packing_efficiency_sweep

    # token counts: 10, 100, 300, 0 (dropped)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    " ".join(["x"] * 10),
                    " ".join(["y"] * 100),
                    " ".join(["z"] * 300),
                    "",
                ]
            ),
        }
    )
    out = {
        int(r["seq_len"]): r
        for r in packing_efficiency_sweep(_ds(t), seq_lens=(128,)).to_pylist()
    }
    r = out[128]
    assert r["n_docs"] == 3 and r["total_tokens"] == 410
    # padded: ceil(10/128)+ceil(100/128)+ceil(300/128) = 1+1+3 = 5
    assert r["n_seqs_padded"] == 5 and r["waste_padded"] == 5 * 128 - 410
    # packed: ceil(410/128) = 4
    assert r["n_seqs_packed"] == 4 and r["waste_packed"] == 4 * 128 - 410


def test_lsh_planner_hand(ray_session):
    from ocr_ray.ops.dedup import lsh_candidate_planner, word_shingles

    # one identical pair (j=1) and one disjoint doc
    a = "alpha beta gamma delta epsilon zeta eta theta"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([a, a, "totally different words here now"]),
        }
    )
    out = lsh_candidate_planner(_ds(t), configs=((8, 8),)).to_pylist()
    assert len(out) == 1
    r = out[0]
    assert (r["bands"], r["rows_per_band"]) == (8, 8)
    # exactly the (1,2) pair co-occurs; j = 1 → p = 1 → 1e6 micro
    assert r["n_pairs"] == 1
    assert r["exp_candidates_micro"] == 1_000_000
    assert r["n_true_pairs"] == 1
    assert r["exp_true_found_micro"] == 1_000_000


def test_lsh_planner_curve_monotone(ray_session):
    """More bands (shorter rows) must not decrease expected capture."""
    from ocr_ray.ops.dedup import lsh_candidate_planner

    rng = np.random.default_rng(5)
    base = [f"w{i}" for i in range(30)]
    texts = []
    for i in range(12):
        words = list(base)
        for j in range(i):  # increasing perturbation → jaccard spread
            words[j] = f"u{i}x{j}"
        texts.append(" ".join(words))
    t = pa.table(
        {
            "doc_id": pa.array(range(12), pa.int64()),
            "text": pa.array(texts),
        }
    )
    rows = {
        int(r["bands"]): r
        for r in lsh_candidate_planner(_ds(t)).to_pylist()
    }
    caps = [rows[b]["exp_candidates_micro"] for b in (4, 8, 16, 32)]
    assert caps == sorted(caps)  # collision prob rises with band count


def test_curriculum_ntile_matches_window_semantics(ray_session):
    from ocr_ray.ops.curriculum import curriculum_ntile

    # 23 docs, k=5 → DuckDB NTILE: first 3 tiles of 5, then 2 tiles of 4
    n = 23
    rng = np.random.default_rng(11)
    chars = rng.integers(10, 5000, n)
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "n_chars": pa.array(chars, pa.int64()),
        }
    )
    got = (
        curriculum_ntile(_ds(t), k=5, range_width=100)
        .to_pandas()
        .sort_values("position")
        .reset_index(drop=True)
    )
    order = sorted(range(n), key=lambda i: (chars[i], i))
    assert list(got.doc_id) == order
    assert list(got.position) == list(range(n))
    sizes = got.groupby("tile").size()
    assert list(sizes) == [5, 5, 5, 4, 4]
    # positions are contiguous per tile and tiles ordered
    assert (np.diff(got.tile) >= 0).all()


def test_curriculum_ntile_k_exceeds_n(ray_session):
    from ocr_ray.ops.curriculum import curriculum_ntile

    t = pa.table(
        {
            "doc_id": pa.array([7, 3], pa.int64()),
            "n_chars": pa.array([50, 10], pa.int64()),
        }
    )
    got = (
        curriculum_ntile(_ds(t), k=10)
        .to_pandas()
        .sort_values("position")
    )
    assert list(got.doc_id) == [3, 7]
    assert list(got.tile) == [1, 2]


def test_shingle_novelty_hand(ray_session):
    from ocr_ray.ops.dedup import shingle_novelty

    # doc 1 introduces everything; doc 2 repeats doc 1 verbatim (0
    # novel); doc 3 is half doc 1's shingles, half new
    a = "one two three four five"          # shingles: 3
    c = "one two three apple pear plum"    # shares 1, adds 3 new
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([a, a, c]),
        }
    )
    got = {
        int(r["doc_id"]): r for r in shingle_novelty(_ds(t)).take_all()
    }
    assert got[1]["n_novel"] == got[1]["n_shingles"]
    assert got[1]["novelty_ppm"] == 1_000_000
    assert got[2]["n_novel"] == 0 and got[2]["novelty_ppm"] == 0
    assert got[3]["n_shingles"] == 4  # 4 distinct 3-gram shingles
    assert got[3]["n_novel"] == 3
    assert got[3]["novelty_ppm"] == 3 * 1_000_000 // 4


def test_mixture_waterfill_hand(ray_session):
    from ocr_ray.ops.sample import mixture_waterfill

    # capacities: a=2, b=8, c=20 tokens; budget 12 → a saturates (2),
    # leftover 10 over {b, c}: level 5 each
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "source": pa.array(["a", "b", "c"]),
            "text": pa.array(
                [" ".join(["x"] * 2), " ".join(["y"] * 8),
                 " ".join(["z"] * 20)]
            ),
        }
    )
    got = {
        r["source"]: r
        for r in mixture_waterfill(_ds(t), budget_tokens=12).to_pylist()
    }
    assert got["a"]["alloc_tokens"] == 2 and got["a"]["saturated"] == 1
    assert got["b"]["alloc_tokens"] == 5 and got["b"]["saturated"] == 0
    assert got["c"]["alloc_tokens"] == 5
    # remainder case: budget 13 → level 5 rem 1 → first unsat source
    # in source order (b) gets +1
    got = {
        r["source"]: r
        for r in mixture_waterfill(_ds(t), budget_tokens=13).to_pylist()
    }
    assert got["b"]["alloc_tokens"] == 6 and got["c"]["alloc_tokens"] == 5
    # budget beyond capacity: everything saturates
    got = {
        r["source"]: r
        for r in mixture_waterfill(_ds(t), budget_tokens=999).to_pylist()
    }
    assert [got[s]["alloc_tokens"] for s in "abc"] == [2, 8, 20]
    assert all(got[s]["saturated"] == 1 for s in "abc")


def test_term_burstiness_hand(ray_session):
    from ocr_ray.ops.textstats import term_burstiness

    # "apple" appears 4+0+2 → df 2, counts (4,2): mean 3, var 1,
    # vmr 1/3; "the" 1+1+1 → vmr 0 (uniform)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "the apple apple apple apple",
                    "the pear",
                    "the apple apple",
                ]
            ),
        }
    )
    got = {
        r["word"]: r
        for r in term_burstiness(_ds(t), min_df=2, k=10).take_all()
    }
    assert got["apple"]["df"] == 2 and got["apple"]["total"] == 6
    assert got["apple"]["sum_sq"] == 20
    assert got["apple"]["vmr"] == (20 / 2 - 9.0) / 3.0
    assert got["the"]["vmr"] == 0.0
    assert "pear" not in got  # df 1 < min_df


def test_dup_rate_timeline_hand(ray_session):
    from ocr_ray.ops.dedup import dup_rate_timeline

    # ids 0-9, 2 buckets of 5; dups: 6 copies 1 (bucket 1), 9 copies 1
    texts = [f"unique text {i}" for i in range(10)]
    texts[6] = texts[1]
    texts[9] = texts[1]
    t = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array(texts),
        }
    )
    got = {
        int(r["bucket"]): r
        for r in dup_rate_timeline(_ds(t), n_buckets=2).take_all()
    }
    assert got[0]["n_docs"] == 5 and got[0]["n_dups"] == 0
    assert got[1]["n_docs"] == 5 and got[1]["n_dups"] == 2
    assert got[1]["dup_ppm"] == 2 * 1_000_000 // 5


def test_rare_token_ratio_hand(ray_session):
    from ocr_ray.ops.tfidf import rare_token_ratio

    # "common" appears 3x (not rare at max_count=2); each "uniqNN"
    # once (rare)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "common uniqaa uniqbb",
                    "common uniqcc",
                    "common",
                ]
            ),
        }
    )
    got = {
        int(r["doc_id"]): r for r in rare_token_ratio(_ds(t)).take_all()
    }
    assert got[1]["n_tokens"] == 3 and got[1]["n_rare"] == 2
    assert got[1]["rare_ppm"] == 2 * 1_000_000 // 3
    assert got[3]["n_rare"] == 0 and got[3]["rare_ppm"] == 0


def test_truncation_loss_hand(ray_session):
    from ocr_ray.ops.tfidf import truncation_loss_sweep

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                [" ".join(["x"] * 10), " ".join(["y"] * 300)]
            ),
        }
    )
    got = {
        int(r["max_len"]): r
        for r in truncation_loss_sweep(_ds(t), max_lens=(256,)).take_all()
    }
    r = got[256]
    assert r["n_docs"] == 2 and r["total_tokens"] == 310
    assert r["n_truncated"] == 1 and r["tokens_lost"] == 44


def test_leakage_safe_split_groups_together(ray_session):
    from ocr_ray.ops.split import leakage_safe_split

    base = " ".join(f"w{i}" for i in range(30))
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 50, 51], pa.int64()),
            "text": pa.array(
                [
                    base + " alpha",
                    base + " beta",  # near-dup of 1 → same group
                    "completely different something else entirely here",
                    "another unrelated chunk of words goes right here",
                ]
            ),
        }
    )
    got = {
        int(r["doc_id"]): r
        for r in leakage_safe_split(_ds(t)).take_all()
    }
    assert got[1]["group_label"] == got[2]["group_label"] == 1
    assert got[1]["split"] == got[2]["split"]  # never straddle splits
    assert got[50]["group_label"] == 50 and got[51]["group_label"] == 51


def test_dedup_yield_curve_hand(ray_session):
    from ocr_ray.ops.dedup import dedup_yield_curve

    # cluster A: 3 copies of 10 tokens → saves 20; cluster B: 2 copies
    # of 50 tokens → saves 50 (rank 1); unique doc saves nothing
    a = " ".join(["a"] * 10)
    b = " ".join(["b"] * 50)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "text": pa.array([a, a, a, b, b, "solo text here"]),
        }
    )
    rows = dedup_yield_curve(_ds(t), k=5).to_pylist()
    assert [r["rank"] for r in rows] == [1, 2]
    assert rows[0]["keeper_doc"] == 4 and rows[0]["tokens_saved"] == 50
    assert rows[1]["keeper_doc"] == 1 and rows[1]["tokens_saved"] == 20
    assert rows[1]["cum_tokens_saved"] == 70


def test_near_dup_cluster_profile_hand(ray_session):
    from ocr_ray.ops.dedup import near_dup_cluster_profile

    base = " ".join(f"w{i}" for i in range(30))
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 900], pa.int64()),
            "text": pa.array(
                [base + " alpha", base + " beta", base + " gamma"]
            ),
        }
    )
    rows = near_dup_cluster_profile(_ds(t)).take_all()
    assert len(rows) == 1
    r = rows[0]
    assert r["component"] == 1 and r["size"] == 3
    assert r["id_span"] == 899
    assert r["min_chars"] == len(base + " beta")
    assert r["max_chars"] == len(base + " gamma")


def test_source_dedup_matrix_hand(ray_session):
    from ocr_ray.ops.dedup import source_dedup_matrix

    # fp X: 2 in A + 1 in B → (A,A)=1, (A,B)=2; fp Y unique (no rows)
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["same text", "same text", "Same  TEXT",
                              "unique other"]),
            "source": pa.array(["A", "A", "B", "B"]),
        }
    )
    got = {
        (r["source_a"], r["source_b"]): int(r["n_cooccurrences"])
        for r in source_dedup_matrix(_ds(t)).take_all()
    }
    assert got == {("A", "A"): 1, ("A", "B"): 2}


def test_minhash_band_skew_hand(ray_session):
    from ocr_ray.ops.dedup import minhash_band_skew_report

    # 3 identical docs → every band has one bucket of size 3 (class 1:
    # log2(3)=1) plus the two unique docs in singletons (class 0)
    a = "alpha beta gamma delta epsilon zeta eta theta iota"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [a, a, a, "other words entirely here now",
                 "different again with more words"]
            ),
        }
    )
    got = {
        int(r["size_log2"]): r
        for r in minhash_band_skew_report(_ds(t)).take_all()
    }
    assert got[1]["n_buckets"] == 16      # one size-3 bucket per band
    assert got[1]["n_docs"] == 48         # 3 docs × 16 bands
    assert got[1]["n_pairs"] == 16 * 3    # C(3,2) per band
    assert got[0]["n_docs"] == 32         # 2 singles × 16 bands
    assert got[0]["n_pairs"] == 0
    assert all(r["n_overflow"] == 0 for r in got.values())
