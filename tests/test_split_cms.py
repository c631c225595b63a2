"""Train/val/test hash split, ROLLUP grouping sets, per-group top-n
and the Count-Min sketch: semantic properties beyond the SQL
oracles (partition completeness, super-aggregate consistency, CMS
one-sided error, block-layout independence)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ocr_ray.ops.sketch import CMS_D, CMS_W, _cms_cols, cms_heavy_hitters, cms_registers
from ocr_ray.ops.split import rollup_lang_source, split_of, train_split_stats


def _docs_table(n=400, seed=7):
    rng = np.random.default_rng(seed)
    langs = np.array(["id", "en", "mix"])[rng.integers(0, 3, n)]
    sources = np.array(["scan", "web", "pdf", "mail"])[rng.integers(0, 4, n)]
    words = ["dokumen", "gaji", "pasar", "utara", "jalan", "kantor"]
    texts = [
        " ".join(rng.choice(words, rng.integers(3, 12)).tolist()) for _ in range(n)
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array(langs.tolist(), pa.string()),
            "source": pa.array(sources.tolist(), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_split_partitions_every_doc_and_is_stable(ray_session):
    tbl = _docs_table()
    rows = train_split_stats(rd.from_arrow(tbl)).take_all()
    # the three splits partition the corpus: doc and char totals conserved
    assert sum(r["n_docs"] for r in rows) == tbl.num_rows
    assert sum(r["sum_chars"] for r in rows) == sum(
        tbl.column("n_chars").to_pylist()
    )
    # assignment is a pure function of doc_id — block layout irrelevant
    rows2 = train_split_stats(
        rd.from_arrow(tbl).repartition(13)
    ).take_all()
    assert sorted(map(tuple, (sorted(r.items()) for r in rows))) == sorted(
        map(tuple, (sorted(r.items()) for r in rows2))
    )
    # ~90/5/5 by construction of the thresholds
    by_split = {}
    for r in rows:
        by_split[r["split"]] = by_split.get(r["split"], 0) + r["n_docs"]
    assert by_split["train"] > 6 * (by_split["val"] + by_split["test"])


def test_split_code_matches_hash_formula():
    ids = np.array([0, 1, 2, 99, 10**9, 7_654_321], dtype=np.int64)
    pct = ((ids.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)) % 100
    expect = np.where(pct < 90, 0, np.where(pct < 95, 1, 2))
    assert (split_of(ids) == expect).all()


def test_rollup_super_aggregates_consistent(ray_session):
    tbl = _docs_table()
    rows = rollup_lang_source(rd.from_arrow(tbl)).take_all()
    base = [r for r in rows if r["lang"] != "ALL" and r["source"] != "ALL"]
    lang_lvl = [r for r in rows if r["lang"] != "ALL" and r["source"] == "ALL"]
    total = [r for r in rows if r["lang"] == "ALL"]
    assert len(total) == 1 and total[0]["source"] == "ALL"
    assert total[0]["n_docs"] == tbl.num_rows
    assert sum(r["n_docs"] for r in base) == tbl.num_rows
    for lr in lang_lvl:
        member = [r for r in base if r["lang"] == lr["lang"]]
        assert lr["n_docs"] == sum(r["n_docs"] for r in member)
        assert lr["sum_chars"] == sum(r["sum_chars"] for r in member)


def test_cms_estimate_dominates_exact_and_registers_conserve(ray_session):
    tbl = _docs_table(n=300)
    ds = rd.from_arrow(tbl).repartition(7)
    regs = cms_registers(ds).take_all()
    assert len(regs) <= CMS_D * CMS_W
    # every row of the sketch holds the full token mass
    from collections import Counter

    from ocr_ray.ops.analysis import _WORD_RE

    mass = sum(
        Counter(_WORD_RE.findall(t.lower())).total()
        for t in tbl.column("text").to_pylist()
    )
    by_row = Counter()
    for r in regs:
        by_row[r["row"]] += r["count"]
    assert set(by_row) == set(range(CMS_D))
    assert all(v == mass for v in by_row.values())

    hh = cms_heavy_hitters(ds, k=5).take_all()
    assert len(hh) == 5
    for r in hh:
        assert r["cms_estimate"] >= r["exact_count"]


def test_cms_cols_are_disjoint_md5_words():
    import hashlib

    word = "dokumen"
    h = hashlib.md5(word.encode()).hexdigest()
    assert _cms_cols(word) == [
        int(h[0:8], 16) % CMS_W,
        int(h[8:16], 16) % CMS_W,
        int(h[16:24], 16) % CMS_W,
        int(h[24:32], 16) % CMS_W,
    ]


def test_top_n_per_group_matches_serial(ray_session):
    from ocr_ray.ops.stats import top_n_per_group

    tbl = _docs_table(n=500, seed=11)
    got = sorted(
        (r["lang"], r["rank"], r["doc_id"], r["n_chars"])
        for r in top_n_per_group(
            rd.from_arrow(tbl).repartition(11), "lang", "n_chars", "doc_id", k=3
        ).take_all()
    )
    rows = sorted(
        zip(
            tbl.column("lang").to_pylist(),
            [-c for c in tbl.column("n_chars").to_pylist()],
            tbl.column("doc_id").to_pylist(),
        )
    )
    expect = []
    seen: dict[str, int] = {}
    for lang, negc, did in rows:
        r = seen.get(lang, 0) + 1
        seen[lang] = r
        if r <= 3:
            expect.append((lang, r, did, -negc))
    assert got == sorted(expect)


def test_bigram_familiarity_matches_serial(ray_session):
    from collections import Counter

    from ocr_ray.ops.lm import bigram_familiarity

    tbl = _docs_table(n=120, seed=13)
    got = {
        r["doc_id"]: (r["n_pairs"], r["familiarity"])
        for r in bigram_familiarity(
            rd.from_arrow(tbl).repartition(5)
        ).take_all()
    }
    import re

    wre = re.compile(r"[a-zA-Z]{3,}")
    docs_pairs = {}
    model: Counter = Counter()
    for did, text in zip(
        tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()
    ):
        ws = wre.findall(text.lower())
        ps = [ws[i] + " " + ws[i + 1] for i in range(len(ws) - 1)]
        if ps:
            docs_pairs[did] = ps
            model.update(ps)
    expect = {
        did: (len(ps), sum(model[p] for p in ps))
        for did, ps in docs_pairs.items()
    }
    assert got == expect


def test_dedup_exact_incremental_semantics(ray_session):
    from ocr_ray.ops.dedup import dedup_exact_incremental

    known = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["alpha beta", "gamma delta", "epsilon"], pa.string()),
        }
    )
    # new shard: 10 collides with known (whitespace/case variant → same
    # fingerprint), 11+13 are internal duplicates (keeper = min id),
    # 12 is genuinely new
    new = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
            "text": pa.array(
                ["  Alpha   BETA ", "zeta eta", "theta iota", "zeta  eta"],
                pa.string(),
            ),
        }
    )
    rows = {
        r["doc_id"]: r["n_copies_new"]
        for r in dedup_exact_incremental(
            rd.from_arrow(new).repartition(3), rd.from_arrow(known)
        ).take_all()
    }
    assert rows == {11: 2, 12: 1}


def test_bigram_familiarity_join_plan_matches_broadcast(ray_session):
    from ocr_ray.ops.lm import bigram_familiarity

    tbl = _docs_table(n=80, seed=17)
    ds = rd.from_arrow(tbl).repartition(4)
    broadcast = sorted(
        tuple(sorted(r.items()))
        for r in bigram_familiarity(ds).take_all()
    )
    # threshold 0 forces the big-big join plan; results must be identical
    joined = sorted(
        tuple(sorted(r.items()))
        for r in bigram_familiarity(ds, broadcast_threshold=0).take_all()
    )
    assert broadcast == joined


def test_cube_adds_source_marginal(ray_session):
    from ocr_ray.ops.split import cube_lang_source

    tbl = _docs_table()
    rows = cube_lang_source(rd.from_arrow(tbl)).take_all()
    base = [r for r in rows if r["lang"] != "ALL" and r["source"] != "ALL"]
    src_lvl = [r for r in rows if r["lang"] == "ALL" and r["source"] != "ALL"]
    totals = [r for r in rows if r["lang"] == "ALL" and r["source"] == "ALL"]
    assert len(totals) == 1 and totals[0]["n_docs"] == tbl.num_rows
    # the CUBE-only grouping set: one row per source, summed over langs
    assert {r["source"] for r in src_lvl} == {r["source"] for r in base}
    for sr in src_lvl:
        member = [r for r in base if r["source"] == sr["source"]]
        assert sr["n_docs"] == sum(r["n_docs"] for r in member)
        assert sr["sum_chars"] == sum(r["sum_chars"] for r in member)


def test_split_leakage_detects_cross_split_duplicates(ray_session):
    from ocr_ray.ops.split import split_leakage_report, split_of

    # find one id in each of two different splits, then give them
    # identical text (an exact duplicate straddling the split boundary)
    ids = np.arange(0, 500, dtype=np.int64)
    sp = split_of(ids)
    a = int(ids[sp == 0][0])
    b = int(ids[sp != 0][0])
    c = int(ids[sp == 0][1])  # same-split duplicate: NOT leakage
    d = int(ids[sp == 0][2])
    tbl = pa.table(
        {
            "doc_id": pa.array([a, b, c, d], pa.int64()),
            "text": pa.array(
                ["naskah yang sama persis", "naskah yang sama persis",
                 "dokumen kembar dalam satu split",
                 "dokumen kembar dalam satu split"],
                pa.string(),
            ),
        }
    )
    row = split_leakage_report(rd.from_arrow(tbl)).to_pylist()[0]
    assert row["n_leaky_fingerprints"] == 1
    assert row["n_leaked_docs"] == 2
