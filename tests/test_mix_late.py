"""mix_rebalance_weights hand oracle, plus minhash_calibration estimator
invariants on a known corpus."""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write(tmp_path, name: str, table: pa.Table) -> str:
    pq.write_table(table, tmp_path / f"{name}.parquet")
    return str(tmp_path)


def test_mix_rebalance_weights_hand(ray_session, tmp_path):
    from ocr_ray.driver import q_mix_rebalance_weights

    # 3 langs, 6 docs: en=3, fr=2, de=1 → total=6, k=3
    # weight = total/(k·n): en 6/9 → 666_667, fr 6/6 → 1_000_000,
    # de 6/3 → 2_000_000 (floor(x·1e6 + 0.5))
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(6)), pa.int64()),
            "lang": pa.array(["en", "en", "en", "fr", "fr", "de"]),
            "text": pa.array(["x"] * 6),
        }
    )
    sf = _write(tmp_path, "documents", docs)
    out = q_mix_rebalance_weights(sf)
    df = out.to_pandas().sort_values("lang").reset_index(drop=True)
    expect = pd.DataFrame(
        {
            "lang": ["de", "en", "fr"],
            "n_docs": [1, 3, 2],
            "weight_micro": [2_000_000, 666_667, 1_000_000],
        }
    )
    pd.testing.assert_frame_equal(df, expect)
    # rebalance identity: sum(n·w) == total · 1e6 within rounding (±k/2)
    assert abs(int((df.n_docs * df.weight_micro).sum()) - 6_000_000) <= 2


def test_minhash_calibration_invariants(ray_session):
    import ray.data as rd

    from ocr_ray.ops.dedup import minhash_calibration

    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = [
        base,
        base,  # exact dup of 0
        base + " with a small tail change",  # near dup
        "completely different words everywhere nothing shared at all ok",
    ]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts),
            }
        )
    )
    t = minhash_calibration(docs, num_perm=64, bands=16)
    t = t if isinstance(t, pa.Table) else pa.Table.from_pandas(t.to_pandas())
    df = t.to_pandas()
    assert len(df) >= 1  # the exact dup pair must be a candidate
    # invariants: agreement bounded by num_perm, overlap by union
    assert ((df.n_agree >= 0) & (df.n_agree <= 64)).all()
    assert ((df.n_inter >= 0) & (df.n_inter <= df.n_union)).all()
    dup = df[(df.doc_a == 0) & (df.doc_b == 1)]
    assert len(dup) == 1
    # identical text: sketch AND exact estimator both read 1.0
    assert int(dup.n_agree.iloc[0]) == 64
    assert int(dup.n_inter.iloc[0]) == int(dup.n_union.iloc[0]) > 0
    # canonical pair order
    assert (df.doc_a < df.doc_b).all()
    # estimator sanity on this corpus: near-dup pair (if it became a
    # candidate) must agree on more rows than any pair involving doc 3
    near = df[(df.doc_a == 0) & (df.doc_b == 2)]
    far = df[(df.doc_a == 3) | (df.doc_b == 3)]
    if len(near) and len(far):
        assert near.n_agree.min() > far.n_agree.max()
