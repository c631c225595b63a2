"""HyperLogLog sketch: merge-across-shards associativity of the
registers and the grouped per-source vocabulary estimate."""
from __future__ import annotations

from ocr_ray.ops.sketch import _hash_parts, _rho, hll_estimate_from_registers


def _serial_registers(keys):
    regs: dict[int, int] = {}
    for k in keys:
        b, w = _hash_parts(str(k))
        regs[b] = max(regs.get(b, 0), _rho(w))
    return regs


def test_register_merge_is_shard_order_independent():
    a = _serial_registers(range(0, 3000))
    b = _serial_registers(range(2000, 6000))
    merged = {
        k: max(a.get(k, 0), b.get(k, 0)) for k in set(a) | set(b)
    }
    assert merged == _serial_registers(range(0, 6000))
    rows = [{"bucket": k, "max_rho": v} for k, v in merged.items()]
    est = hll_estimate_from_registers(rows)
    assert abs(est - 6000) / 6000 < 0.20


def test_hll_vocab_by_source_accuracy(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.sketch import hll_vocab_by_source

    def w(i: int) -> str:
        # letters-only token (the [a-zA-Z]{3,} tokenizer drops digits)
        return "w" + "".join(chr(ord("a") + int(d)) for d in str(i).zfill(4))

    # source A: 300 distinct words; source B: 30
    docs_a = [f"{w(i)} {w(i + 100)} {w(i + 200)}" for i in range(100)]
    docs_b = [w(i % 30) for i in range(60)]
    tbl = pa.table(
        {
            "source": pa.array(["A"] * 100 + ["B"] * 60, pa.string()),
            "text": pa.array(docs_a + docs_b, pa.string()),
        }
    )
    out = {
        r["source"]: r for r in hll_vocab_by_source(rd.from_arrow(tbl)).to_pylist()
    }
    # HLL with 256 registers: ~6.5% relative error; allow 3 sigma
    assert abs(out["A"]["hll_vocab"] - 300) / 300 < 0.25
    assert abs(out["B"]["hll_vocab"] - 30) / 30 < 0.25
    assert out["A"]["n_registers"] <= 256


