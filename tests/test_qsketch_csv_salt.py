"""Quantile sketch compression/gate and the CSV source round-trip."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_qsk_compress_preserves_weight_and_bounds_rank_error():
    from ocr_ray.ops.sketch import _qsk_compress

    rng = np.random.RandomState(9)
    vals = rng.randint(0, 10_000, 50_000).astype(np.int64)
    w = np.ones(len(vals), np.int64)
    m = 512
    cv, cw = _qsk_compress(vals, w, m)
    assert len(cv) <= m
    assert int(cw.sum()) == len(vals)
    assert (np.diff(cv) >= 0).all()
    # rank error of any query point <= total/m
    total = len(vals)
    s = np.sort(vals)
    cum = np.cumsum(cw)
    for q in (0.1, 0.5, 0.9):
        target = int(np.ceil(q * total))
        est = int(cv[np.searchsorted(cum, target, side="left")])
        lt = int(np.searchsorted(s, est, side="left"))
        le = int(np.searchsorted(s, est, side="right"))
        err = max(lt + 1 - target, target - le, 0)
        assert err <= total // m + 1


def test_quantile_sketch_estimates_and_gate(ray_session):
    import ray.data as rd

    from ocr_ray.ops.sketch import quantile_sketch, quantile_sketch_violations

    rng = np.random.RandomState(4)
    vals = rng.lognormal(3.0, 1.0, 30_000)
    t = pa.table({"value": pa.array(vals, pa.float64())})
    ds = rd.from_arrow(t).repartition(8)
    ests, total = quantile_sketch(ds)
    assert total == len(vals)
    cents = np.sort(np.round(vals * 100).astype(np.int64))
    for q_idx, q, est in ests:
        true = int(cents[int(np.ceil(q * total)) - 1])
        # estimate's rank within 1% of target
        lt = int(np.searchsorted(cents, est, side="left"))
        le = int(np.searchsorted(cents, est, side="right"))
        target = int(np.ceil(q * total))
        assert lt + 1 - 0.01 * total <= target <= le + 0.01 * total, (
            q, est, true
        )
    gate = quantile_sketch_violations(ds)
    assert gate.num_rows == 0


def test_csv_roundtrip_byte_exact(ray_session, tmp_path):
    import pyarrow.csv as pacsv

    from ocr_ray.io import read_documents_csv

    # adversarial text: embedded newlines, quotes, commas, unicode
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ['line1\nline2, "quoted"', "päivää, maailma", ""],
                pa.string(),
            ),
            "lang": pa.array(["en", "fi", "en"], pa.string()),
            "source": pa.array(["a", "b", "a"], pa.string()),
            "n_chars": pa.array([21, 15, 0], pa.int64()),
        }
    )
    p = tmp_path / "docs.csv"
    pacsv.write_csv(t, str(p))
    back = (
        read_documents_csv(str(p))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = t.to_pandas()
    # empty string survives as empty (not null) after explicit typing?
    # pyarrow CSV reads empty unquoted cells as null; accept either for
    # the empty doc but require exact equality elsewhere
    assert back.doc_id.tolist() == want.doc_id.tolist()
    assert back.text.tolist()[:2] == want.text.tolist()[:2]
    assert back.text.tolist()[2] in ("", None)
    assert back.lang.tolist() == want.lang.tolist()
    assert back.n_chars.tolist() == want.n_chars.tolist()
