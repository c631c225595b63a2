"""Z-order (Morton) keys: the per-bit formula, locality order and the
dataset operator."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def _ds(table: pa.Table):
    import ray.data as rd

    return rd.from_arrow(table)


def test_morton_key_matches_per_bit_formula():
    from ocr_ray.ops.layout import morton_key

    rng = np.random.default_rng(3)
    x = rng.integers(0, 1 << 16, 200).astype(np.int64)
    y = rng.integers(0, 1 << 16, 200).astype(np.int64)
    got = morton_key(x, y)
    want = np.zeros(200, np.int64)
    for i in range(16):
        want |= ((x >> i) & 1) << (2 * i)
        want |= ((y >> i) & 1) << (2 * i + 1)
    assert (got == want).all()


def test_morton_key_preserves_locality_order():
    from ocr_ray.ops.layout import morton_key

    # same cell → identical key; nearby cells share a long prefix
    a = morton_key(np.array([5]), np.array([9]))
    b = morton_key(np.array([5]), np.array([9]))
    c = morton_key(np.array([5000]), np.array([9000]))
    assert a == b and a != c


def test_zorder_keys_dataset(ray_session):
    from ocr_ray.ops.layout import zorder_keys

    t = pa.table(
        {
            "event_id": pa.array([1, 2], pa.int64()),
            "user_id": pa.array([3, 70000], pa.int64()),  # 70000 wraps & 65535
            "ts": pa.array(
                [3_600_000_000 * 7, 3_600_000_000 * 8], pa.timestamp("us")
            ),
        }
    )
    out = (
        zorder_keys(
            _ds(t), "event_id", "user_id", "ts",
            y_expr=lambda v: v // 3_600_000_000,
        )
        .to_pandas()
        .set_index("event_id")
    )
    assert out.loc[1, "x_q"] == 3 and out.loc[1, "y_q"] == 7
    assert out.loc[2, "x_q"] == 70000 & 65535
    # interleave(3=0b11, 7=0b111): x even bits, y odd bits → 0b101111
    assert out.loc[1, "zkey"] == 0b101111
