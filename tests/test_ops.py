"""Operator tests: dedup family vs brute-force oracles, ANN recall,
learning-state merge semantics."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from ocr_ray.ops import learning_state as ls
from ocr_ray.ops.dedup import (
    minhash_signature,
    simhash64,
    word_shingles,
    _minhash_params,
)


def _docs_table():
    base = "surat keterangan nomor dua puluh tujuh tahun seribu sembilan"
    texts = [
        base,
        base,  # exact dup of 0
        base + " ratus",  # near dup of 0
        "departemen pekerjaan umum dan tenaga kerja jakarta pusat",
        "sesuatu yang sama sekali berbeda dari dokumen lain disini",
        base.upper(),  # exact dup after normalization (lowercase)
    ]
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )


def _ray_ds(table):
    import ray.data as rd

    return rd.from_arrow(table)


def brute_jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = word_shingles(a, n), word_shingles(b, n)
    if not sa and not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def test_exact_dedup(ray_session):
    from ocr_ray.ops.dedup import dedup_exact

    out = dedup_exact(_ray_ds(_docs_table())).to_pandas()
    # rows 0,1,5 share a fingerprint (case/whitespace-normalized)
    assert len(out) == 4
    grp = out[out["n_copies"] == 3]
    assert len(grp) == 1 and grp.iloc[0]["doc_id"] == 0


def test_minhash_estimates_match_jaccard(ray_session):
    tbl = _docs_table()
    from ocr_ray.ops.dedup import dedup_minhash

    pairs = dedup_minhash(_ray_ds(tbl), threshold=0.5).to_pandas()
    texts = tbl.column("text").to_pylist()
    assert len(pairs) >= 3  # (0,1), (0,2)/(1,2), (0,5)...
    for _, row in pairs.iterrows():
        true_j = brute_jaccard(texts[int(row["doc_a"])], texts[int(row["doc_b"])])
        assert abs(row["est_jaccard"] - true_j) < 0.35


def test_minhash_signature_deterministic():
    a, b = _minhash_params(64)
    s1 = minhash_signature({"abc def ghi", "jkl mno pqr"}, a, b)
    s2 = minhash_signature({"jkl mno pqr", "abc def ghi"}, a, b)
    assert np.array_equal(s1, s2)
    # similar sets → mostly equal signature components
    s3 = minhash_signature({"abc def ghi", "jkl mno pqr", "xtra one two"}, a, b)
    assert np.mean(s1 == s3) > 0.4


def test_simhash_near_dup(ray_session):
    from ocr_ray.ops.dedup import dedup_simhash

    out = dedup_simhash(_ray_ds(_docs_table()), max_hamming=3).to_pandas()
    pairs = {(int(r["doc_a"]), int(r["doc_b"])) for _, r in out.iterrows()}
    assert (0, 1) in pairs  # identical docs, hamming 0
    assert (0, 5) in pairs  # case-folded identical
    assert (0, 2) in pairs or simhash64(
        _docs_table().column("text")[2].as_py()
    ) != simhash64(_docs_table().column("text")[0].as_py())


def test_ngram_jaccard_exact(ray_session):
    from ocr_ray.ops.dedup import ngram_jaccard_pairs

    tbl = _docs_table()
    out = ngram_jaccard_pairs(_ray_ds(tbl), threshold=0.3).to_pandas()
    texts = tbl.column("text").to_pylist()
    got = {(int(r["doc_a"]), int(r["doc_b"])): r["jaccard"] for _, r in out.iterrows()}
    # exact: every reported jaccard equals the brute-force value
    for (a, b), j in got.items():
        assert j == pytest.approx(brute_jaccard(texts[a], texts[b]))
    assert got[(0, 1)] == pytest.approx(1.0)


def test_ngram_containment_asymmetric(ray_session):
    """An excerpt (doc fully contained in a longer doc) scores high
    containment but low jaccard — the case the symmetric measure
    misses."""
    from ocr_ray.ops.dedup import (
        ngram_containment_pairs, ngram_jaccard_pairs, word_shingles,
    )
    import ray.data as rd

    long_text = " ".join(f"word{i}" for i in range(40))
    excerpt = " ".join(f"word{i}" for i in range(8))  # prefix excerpt
    other = "completely different content with no shared trigrams at all"
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([long_text, excerpt, other], pa.string()),
        }
    )
    out = ngram_containment_pairs(
        rd.from_arrow(tbl), threshold=0.9
    ).to_pandas()
    got = {
        (int(r["doc_a"]), int(r["doc_b"])): (r["cont_a"], r["cont_b"])
        for _, r in out.iterrows()
    }
    assert set(got) == {(0, 1)}
    n_long = len(word_shingles(long_text, 3))
    n_exc = len(word_shingles(excerpt, 3))
    # every excerpt shingle appears in the long doc
    assert got[(0, 1)][0] == pytest.approx(n_exc / n_long)
    assert got[(0, 1)][1] == pytest.approx(1.0)
    # ...while jaccard stays low: the same pair misses a 0.5 threshold
    jac = ngram_jaccard_pairs(rd.from_arrow(tbl), threshold=0.5).to_pandas()
    assert not any(
        (int(r["doc_a"]), int(r["doc_b"])) == (0, 1) for _, r in jac.iterrows()
    )


def _embeddings_table(n=64, dim=16, seed=3):
    rng = np.random.RandomState(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    vecs[1] = vecs[0] * 1.5  # same direction → cosine 1 with 0
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )


def test_ann_brute_matches_numpy(ray_session):
    from ocr_ray.ops.similarity import ann_brute_topk

    tbl = _embeddings_table()
    mat = np.stack([np.array(v) for v in tbl.column("embedding").to_pylist()]).astype(
        np.float64
    )
    queries = mat[:2]
    out = ann_brute_topk(_ray_ds(tbl), queries, k=5).to_pandas()
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qi in range(2):
        sims = norm @ (queries[qi] / np.linalg.norm(queries[qi]))
        expect = np.lexsort((np.arange(len(sims)), -sims))[:5]
        got = out[out["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
        assert got == list(expect)


def test_ann_ivf_recall(ray_session):
    from ocr_ray.ops.similarity import ann_brute_topk, ann_ivf_topk

    tbl = _embeddings_table(n=256)
    mat = np.stack([np.array(v) for v in tbl.column("embedding").to_pylist()]).astype(
        np.float64
    )
    queries = mat[:3]
    brute = ann_brute_topk(_ray_ds(tbl), queries, k=10).to_pandas()
    ivf = ann_ivf_topk(
        _ray_ds(tbl), queries, k=10, n_clusters=8, nprobe=4, sample_size=256
    ).to_pandas()
    for qi in range(3):
        b = set(brute[brute["query_id"] == qi]["vec_id"])
        i = set(ivf[ivf["query_id"] == qi]["vec_id"])
        assert len(b & i) / len(b) >= 0.5  # nprobe=4 of 8 clusters

def test_embedding_cosine_dedup(ray_session):
    from ocr_ray.ops.similarity import embedding_cosine_dedup

    out = embedding_cosine_dedup(_ray_ds(_embeddings_table()), threshold=0.99).to_pandas()
    pairs = {(int(r["vec_a"]), int(r["vec_b"])) for _, r in out.iterrows()}
    assert (0, 1) in pairs  # colinear vectors


def test_minhash_verified_exact(ray_session):
    from ocr_ray.ops.dedup import minhash_verified_pairs

    tbl = _docs_table()
    out = minhash_verified_pairs(_ray_ds(tbl), threshold=0.3).to_pandas()
    texts = tbl.column("text").to_pylist()
    got = {(int(r["doc_a"]), int(r["doc_b"])): r["jaccard"] for _, r in out.iterrows()}
    # verification is exact: every reported jaccard is the brute value
    for (a, b), j in got.items():
        assert j == pytest.approx(brute_jaccard(texts[a], texts[b]))
    assert got[(0, 1)] == pytest.approx(1.0)
    assert (0, 5) in got  # case-folded identical


def test_connected_components_chain(ray_session):
    """The VERDICT r01 chain case: edges (1,2),(3,4),(2,4) form ONE
    component — pairwise-greedy dropping of every doc_b would have kept
    doc 3; component semantics keep exactly {1}."""
    from ocr_ray.ops.dedup import connected_components

    pairs = _ray_ds(
        pa.table(
            {"doc_a": pa.array([1, 3, 2], pa.int64()),
             "doc_b": pa.array([2, 4, 4], pa.int64())}
        )
    )
    labels = {
        int(r["node"]): int(r["label"])
        for _, r in connected_components(pairs).to_pandas().iterrows()
    }
    assert labels == {1: 1, 2: 1, 3: 1, 4: 1}


def test_connected_components_two_components(ray_session):
    from ocr_ray.ops.dedup import connected_components

    pairs = _ray_ds(
        pa.table(
            {"doc_a": pa.array([10, 20, 11], pa.int64()),
             "doc_b": pa.array([11, 21, 12], pa.int64())}
        )
    )
    labels = {
        int(r["node"]): int(r["label"])
        for _, r in connected_components(pairs).to_pandas().iterrows()
    }
    assert labels == {10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_minhash_drop_list_component_semantics(ray_session):
    from ocr_ray.ops.dedup import dedup_minhash_drop_list

    # docs 0,1,2,5 are one near-dup cluster → keep 0, drop {1,2,5}
    out = dedup_minhash_drop_list(_ray_ds(_docs_table()), threshold=0.5).to_pandas()
    dropped = set(out["doc_id"].astype(int))
    assert 0 not in dropped
    assert {1, 5} <= dropped


def test_stratified_sample_spans_sorted_table(ray_session):
    """A head sample (limit-n) of a cluster-SORTED table sees only the
    first cluster; the hash-stratified sample must span the id range."""
    from ocr_ray.ops.similarity import stratified_sample

    rng = np.random.RandomState(7)
    n, dim = 512, 8
    # three tight clusters laid out contiguously (sorted by cluster)
    centers = rng.standard_normal((3, dim)) * 10
    vecs = np.concatenate(
        [centers[i] + 0.01 * rng.standard_normal((n // 3 + 1, dim)) for i in range(3)]
    )[:n]
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    sample = stratified_sample(_ray_ds(tbl), sample_size=64)
    ids = sample.column("vec_id").to_numpy()
    assert len(ids) <= 64
    # rows drawn from every third of the table, not just the head
    assert (ids < n // 3).any() and (ids >= 2 * n // 3).any()


def test_ivf_recall_on_cluster_sorted_table(ray_session):
    """IVF recall with centroids trained on the stratified sample of a
    cluster-sorted table — the head-sample failure mode (all centroids
    in cluster 0) would tank recall for queries in the later clusters."""
    from ocr_ray.ops.similarity import ann_brute_topk, ann_ivf_topk

    rng = np.random.RandomState(11)
    n, dim = 384, 8
    centers = rng.standard_normal((3, dim)) * 10
    vecs = np.concatenate(
        [centers[i] + 0.05 * rng.standard_normal((n // 3, dim)) for i in range(3)]
    )
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    # one query from the LAST cluster (invisible to a head sample)
    queries = vecs[n - 5 : n - 2].astype(np.float64)
    brute = ann_brute_topk(_ray_ds(tbl), queries, k=10).to_pandas()
    ivf = ann_ivf_topk(
        _ray_ds(tbl), queries, k=10, n_clusters=6, nprobe=3, sample_size=96
    ).to_pandas()
    for qi in range(3):
        b = set(brute[brute["query_id"] == qi]["vec_id"])
        i = set(ivf[ivf["query_id"] == qi]["vec_id"])
        assert len(b & i) / len(b) >= 0.8


def test_cosine_dedup_multitable_recall(ray_session):
    """Every planted near-copy pair (cosine ≈ 0.9999) must be found at
    threshold 0.999 with the 4-table hyperplane LSH."""
    from ocr_ray.ops.similarity import embedding_cosine_dedup

    rng = np.random.RandomState(5)
    n, dim = 48, 16
    vecs = rng.standard_normal((n, dim))
    copies = vecs + 0.002 * rng.standard_normal((n, dim))
    all_vecs = np.concatenate([vecs, copies])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(2 * n), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in all_vecs],
                                  pa.list_(pa.float64())),
        }
    )
    out = embedding_cosine_dedup(
        _ray_ds(tbl), threshold=0.999, bits=16, n_tables=4
    ).to_pandas()
    pairs = {(int(r["vec_a"]), int(r["vec_b"])) for _, r in out.iterrows()}
    assert {(i, i + n) for i in range(n)} <= pairs


# ------------------------------------------------------------ learning


def test_merge_counts_adds_and_auto_approves():
    state = pa.Table.from_pylist(
        [{"word": "foo", "frequency": 3, "is_approved": False}],
        schema=ls.STATE_SCHEMA,
    )
    counts = pa.table(
        {"word": pa.array(["foo", "bar"]), "frequency": pa.array([2, 1], pa.int64())}
    )
    merged = ls.merge_counts(state, counts).to_pylist()
    by_word = {r["word"]: r for r in merged}
    assert by_word["foo"]["frequency"] == 5 and by_word["foo"]["is_approved"]
    assert by_word["bar"]["frequency"] == 1 and not by_word["bar"]["is_approved"]


def test_import_modes():
    state = pa.Table.from_pylist(
        [
            {"word": "foo", "frequency": 7, "is_approved": True},
            {"word": "baz", "frequency": 2, "is_approved": False},
        ],
        schema=ls.STATE_SCHEMA,
    )
    entries = [
        {"word": "foo", "frequency": 3, "is_approved": False},   # max → 7
        {"word": "new", "frequency": 4, "is_approved": True},
        {"word": "x", "frequency": 1, "is_approved": True},      # too short → rejected
        {"word": "pending", "frequency": 1, "is_approved": False},
    ]
    merged, stats = ls.import_words(state, entries, mode="merge")
    by_word = {r["word"]: r for r in merged.to_pylist()}
    assert stats == {"imported": 3, "skipped": 0, "rejected": 1}
    assert by_word["foo"]["frequency"] == 7 and by_word["foo"]["is_approved"]
    assert by_word["new"]["is_approved"]
    assert "pending" in by_word and "baz" in by_word

    replaced, _ = ls.import_words(state, entries, mode="replace")
    assert "baz" not in {r["word"] for r in replaced.to_pylist()}

    approved, stats = ls.import_words(state, entries, mode="approved_only")
    names = {r["word"] for r in approved.to_pylist()}
    assert stats["skipped"] == 2 and "pending" not in names and "new" in names


def test_export_import_roundtrip(tmp_path):
    state = pa.Table.from_pylist(
        [
            {"word": "alpha", "frequency": 9, "is_approved": True},
            {"word": "beta", "frequency": 1, "is_approved": False},
        ],
        schema=ls.STATE_SCHEMA,
    )
    path = tmp_path / "words.json"
    ls.export_json(state, str(path))
    restored, stats = ls.import_json(ls.empty_state(), str(path), mode="merge")
    assert restored.to_pylist() == state.sort_by("word").to_pylist()

    ls.save_state(state, str(tmp_path / "state.parquet"))
    assert ls.load_state(str(tmp_path / "state.parquet")).num_rows == 2


def test_frequent_shingles_boilerplate(ray_session):
    from ocr_ray.ops.dedup import frequent_shingles

    boiler = "all rights reserved contact us for details"
    texts = [f"unique document number {i} says something " + boiler for i in range(6)]
    texts.append("completely unrelated text with no repeats whatsoever here")
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    out = frequent_shingles(_ray_ds(tbl), min_df=2, k=10).to_pandas()
    # brute-force expectation: shingles shared by >= 2 docs, ranked
    # (df DESC, shingle ASC), top 10
    from collections import Counter

    df_counts: Counter = Counter()
    for t in texts:
        df_counts.update(word_shingles(t))
    expected = sorted(
        ((s, c) for s, c in df_counts.items() if c >= 2),
        key=lambda x: (-x[1], x[0]),
    )[:10]
    got = list(zip(out["shingle"], out["df"]))
    assert got == expected
    assert list(out["rank"]) == list(range(1, len(expected) + 1))
    # the boilerplate span is shared by all 6 templated docs
    assert (out["df"] == 6).all()


def test_identical_corpus_cluster_dedup(ray_session):
    """Adversarial single-cluster corpus: 60 byte-identical docs land in
    ONE bucket in every band; the full pipeline (candidates → exact
    verify → components → drop list) must keep exactly the min doc_id,
    agreeing with exact dedup."""
    from ocr_ray.ops.dedup import (
        dedup_exact_drop_list,
        dedup_minhash_components,
        dedup_minhash_drop_list,
    )

    text = "dokumen yang persis sama berulang kali dalam korpus ini " * 3
    tbl = pa.table(
        {"doc_id": pa.array(range(60), pa.int64()),
         "text": pa.array([text] * 60, pa.string())}
    )
    comp = dedup_minhash_components(_ray_ds(tbl), threshold=0.5).to_pandas()
    assert set(comp["component"]) == {0}
    assert set(comp["doc_id"]) == set(range(60))

    drop = set(
        dedup_minhash_drop_list(_ray_ds(tbl), threshold=0.5).to_pandas()["doc_id"]
    )
    exact_drop = set(
        dedup_exact_drop_list(_ray_ds(tbl)).to_pandas()["doc_id"]
    )
    assert drop == exact_drop == set(range(1, 60))


def test_connected_components_nonconvergence_warns(ray_session, caplog):
    """A chain longer than max_iters hops cannot converge — the split
    must be LOUD (ADVICE r02), not a silently wrong drop list."""
    import logging

    from ocr_ray.ops.dedup import connected_components

    chain = pa.table(
        {"doc_a": pa.array(range(8), pa.int64()),
         "doc_b": pa.array(range(1, 9), pa.int64())}
    )
    with caplog.at_level(logging.WARNING, logger="ocr_ray.dedup"):
        connected_components(_ray_ds(chain), max_iters=1, local_threshold=0).take_all()
    assert any("did NOT converge" in r.message for r in caplog.records)

    # and with the default budget the same chain converges silently
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ocr_ray.dedup"):
        out = {
            r["node"]: r["label"]
            for r in connected_components(_ray_ds(chain)).take_all()
        }
    assert set(out.values()) == {0}
    assert not any("did NOT converge" in r.message for r in caplog.records)


def test_minhash_candidates_max_bucket_forwarded(ray_session):
    """ADVICE r02: the max_bucket knob must reach _bucket_pairs_block.
    4 identical docs, cap 2 → head pair (0,1) + rep-pairs (0,2),(0,3);
    the full all-pairs set would be 6 pairs."""
    from ocr_ray.ops.dedup import minhash_candidates, minhash_signatures

    tbl = pa.table(
        {"doc_id": pa.array(range(4), pa.int64()),
         "text": pa.array(["sama persis dokumen ini berisi teks"] * 4)}
    )
    sigs = minhash_signatures(_ray_ds(tbl))
    pairs = {
        (r["doc_a"], r["doc_b"])
        for r in minhash_candidates(sigs, max_bucket=2).take_all()
    }
    assert pairs == {(0, 1), (0, 2), (0, 3)}
    full = {
        (r["doc_a"], r["doc_b"])
        for r in minhash_candidates(sigs).take_all()
    }
    assert full == {(a, b) for a in range(4) for b in range(4) if a < b}


def test_adaptive_key_join_fat_right_flips_to_inverse_broadcast(ray_session):
    """ADVICE r02: a non-unique right key must not blow driver memory.
    With the collect cap exceeded the join flips to broadcasting the
    (bounded) left; the joined row multiset is identical."""
    from ocr_ray.ops.joins import adaptive_key_join

    left = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "lv": pa.array(["a", "b", "c"])}
    )
    # 40 rows per key > 4 * small_threshold(5) = 20 collected rows
    ks, rvs = [], []
    for k in (1, 2, 4):
        for i in range(40):
            ks.append(k)
            rvs.append(k * 1000 + i)
    right = pa.table({"k": pa.array(ks, pa.int64()), "rv": pa.array(rvs, pa.int64())})

    out = adaptive_key_join(
        _ray_ds(left), _ray_ds(right), on="k", small_threshold=5
    ).take_all()
    assert len(out) == 80  # keys 1 and 2 match, 40 rows each
    assert {r["lv"] for r in out} == {"a", "b"}
    assert sorted(r["rv"] for r in out if r["lv"] == "a") == [1000 + i for i in range(40)]
    assert {set(r) == {"k", "lv", "rv"} for r in out} == {True}


def test_stratified_sample_empty_table_raises(ray_session):
    from ocr_ray.ops.similarity import stratified_sample

    empty = pa.table(
        {"vec_id": pa.array([], pa.int64()),
         "vec": pa.array([], pa.list_(pa.float32()))}
    )
    with pytest.raises(ValueError, match="no rows sampled"):
        stratified_sample(_ray_ds(empty), sample_size=8)


def test_vocab_overlap_hand_case(ray_session):
    import ray.data as rd

    from ocr_ray.ops.analysis import vocab_overlap

    # vocabularies (words >= 3 alpha chars, lowercased):
    #   sA: {apple, banana, cherry}   sB: {banana, cherry, dates}
    #   sC: {zebra}
    docs = pa.table(
        {
            "source": pa.array(["sA", "sA", "sB", "sC"], pa.string()),
            "text": pa.array(
                [
                    "Apple banana",
                    "banana cherry",
                    "banana cherry dates",
                    "zebra 42",
                ],
                pa.string(),
            ),
        }
    )
    out = {
        (r["src_a"], r["src_b"]): r
        for r in vocab_overlap(rd.from_arrow(docs)).take_all()
    }
    ab = out[("sA", "sB")]
    assert ab["n_common"] == 2 and ab["n_a"] == 3 and ab["n_b"] == 3
    assert ab["jaccard"] == 2 / 4
    # disjoint vocabularies never meet in a word group -> no row
    assert ("sA", "sC") not in out and ("sB", "sC") not in out


def test_kmeans_integer_separated_clusters(ray_session):
    import ray.data as rd

    from ocr_ray.ops.similarity import kmeans_integer

    # two tight, well-separated blobs in 4-d; seeds (smallest vec_ids)
    # land one in each blob, so Lloyd converges immediately
    lo = [[0.0, 0.0, 0.1, 0.0], [0.1, 0.0, 0.0, 0.1], [0.0, 0.1, 0.0, 0.0]]
    hi = [[5.0, 5.0, 5.1, 5.0], [5.1, 5.0, 5.0, 5.1], [5.0, 5.1, 5.0, 5.0]]
    tbl = pa.table(
        {
            "vec_id": pa.array([0, 2, 4, 1, 3, 5], pa.int64()),
            "embedding": pa.array(
                [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]],
                pa.list_(pa.float32()),
            ),
        }
    )
    out = {
        r["vec_id"]: r["cluster"]
        for r in kmeans_integer(rd.from_arrow(tbl), k=2, iters=3).take_all()
    }
    # vec 0 (lo) is cluster 0's seed, vec 1 (hi) is cluster 1's seed
    assert out[0] == out[2] == out[4] == 0
    assert out[1] == out[3] == out[5] == 1

    with pytest.raises(ValueError, match="exceeds"):
        kmeans_integer(rd.from_arrow(tbl), k=10, iters=1)


def test_validate_documents_counts_violations(ray_session):
    import ray.data as rd

    from ocr_ray.ops.analysis import validate_documents

    docs = pa.table(
        {
            # doc_id 3 duplicated; one null text; one empty; one mismatch
            "doc_id": pa.array([1, 2, 3, 3, 4], pa.int64()),
            "text": pa.array(["abc", None, "", "xy", "hello"], pa.string()),
            "n_chars": pa.array([3, 0, 0, 2, 99], pa.int64()),
        }
    )
    row = validate_documents(rd.from_arrow(docs)).to_pylist()[0]
    assert row["n_rows"] == 5
    assert row["n_null_text"] == 1
    assert row["n_empty_text"] == 2  # the null (coalesced) + the empty
    assert row["n_len_mismatch"] == 1  # 'hello' vs 99
    assert row["n_dup_ids"] == 1
    assert row["min_chars"] == 0 and row["max_chars"] == 99


def test_cluster_top_terms_composition(ray_session):
    import ray.data as rd

    from ocr_ray.ops.similarity import cluster_top_terms

    # two separated blobs; docs of blob 0 say "alpha", blob 1 "omega"
    lo, hi = [0.0, 0.0], [9.0, 9.0]
    emb = pa.table(
        {
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "embedding": pa.array(
                [lo, hi, [0.1, 0.0], [9.1, 9.0]], pa.list_(pa.float32())
            ),
        }
    )
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "alpha alpha beta",
                    "omega omega gamma",
                    "alpha beta beta",
                    "omega gamma",
                ],
                pa.string(),
            ),
        }
    )
    out = cluster_top_terms(
        rd.from_arrow(emb), rd.from_arrow(docs), k=2, iters=2, top=2
    ).take_all()
    by_cluster = {}
    for r in out:
        by_cluster.setdefault(r["cluster"], []).append(r)
    # cluster 0 = {docs 0, 2}: beta x3, alpha x3 -> tie broken word ASC
    c0 = sorted(by_cluster[0], key=lambda r: r["rank"])
    assert [(r["word"], r["c"]) for r in c0] == [("alpha", 3), ("beta", 3)]
    c1 = sorted(by_cluster[1], key=lambda r: r["rank"])
    assert c1[0]["word"] == "omega" and c1[0]["c"] == 3
    assert c1[1]["word"] == "gamma" and c1[1]["c"] == 2


def test_dedup_strategy_overlap_counts(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from ocr_ray.driver import QUERIES

    # doc 0/1 byte-identical (exact + near dup); doc 2 near-dup of 0/1
    # after one word change (minhash only); doc 3 unrelated
    base = "satu dua tiga empat lima enam tujuh delapan sembilan sepuluh " * 4
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [base, base, base.replace("lima", "xxxx", 1),
                 "kata lain sama sekali tanpa hubungan apapun " * 5],
                pa.string(),
            ),
            "lang": pa.array(["id"] * 4, pa.string()),
            "source": pa.array(["s"] * 4, pa.string()),
            "n_chars": pa.array([len(base)] * 4, pa.int64()),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    row = QUERIES["dedup_strategy_overlap"](str(tmp_path)).to_pylist()[0]
    # exact drops {1}; minhash component keeps min {0}, drops {1, 2}
    assert row["n_both"] == 1
    assert row["n_minhash_only"] == 1
    assert row["n_exact_only"] == 0


def test_ngram_jaccard_prefix_plan_equivalence(ray_session):
    """The prefix-filtered plan must return BIT-identical rows to the
    all-pairs inverted-index plan — graded overlaps around every
    threshold, planted near-dups, and a stop-shingle case."""
    import numpy as np
    import ray.data as rd

    from ocr_ray.ops.dedup import (
        ngram_jaccard_pairs, ngram_jaccard_prefix_pairs,
    )

    rng = np.random.default_rng(5)
    seq = [f"tok{i}" for i in range(400)]
    texts = []
    # sliding windows of a shared sequence → smoothly graded overlaps
    for start in range(0, 360, 8):
        width = int(rng.integers(30, 80))
        texts.append(" ".join(seq[start : start + width]))
    texts.append(texts[0])  # exact dup
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )

    def rows(ds):
        return {
            (r["doc_a"], r["doc_b"]): (
                r["intersection"], r["size_a"], r["size_b"], r["jaccard"],
            )
            for r in ds.take_all()
        }

    for thr, max_df, expect_rows in (
        (0.2, 256, True), (0.5, 256, True), (0.5, 6, None),
    ):
        a = rows(ngram_jaccard_pairs(
            rd.from_arrow(tbl), threshold=thr, max_df=max_df))
        b = rows(ngram_jaccard_prefix_pairs(
            rd.from_arrow(tbl), threshold=thr, max_df=max_df))
        assert a == b, (thr, max_df, len(a), len(b))
        if expect_rows:
            assert a, (thr, max_df)  # non-vacuous: some pairs qualify
