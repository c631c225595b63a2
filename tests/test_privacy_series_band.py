"""Daily value band vs a hand oracle."""
from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pyarrow as pa

T0 = dt.datetime(2024, 1, 1)


def _ts(sec):
    return [T0 + dt.timedelta(seconds=float(s)) for s in sec]


def test_daily_value_band(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import daily_value_band

    rng = np.random.RandomState(5)
    day0 = list(rng.uniform(0, 100, 50))
    day1 = list(rng.uniform(50, 500, 30))
    sec = [i * 10 for i in range(50)] + [86400 + i * 10 for i in range(30)]
    t = pa.table(
        {
            "ts": pa.array(_ts(sec), pa.timestamp("us")),
            "value": pa.array(day0 + day1, pa.float64()),
        }
    )
    got = daily_value_band(rd.from_arrow(t)).to_pandas().sort_values("day")

    def pick(vals, q):
        cents = sorted(int(np.round(v * 100)) for v in vals)
        return cents[math.ceil(q * len(cents)) - 1]

    assert got.n_events.tolist() == [50, 30]
    assert got.p50_cents.tolist() == [pick(day0, 0.5), pick(day1, 0.5)]
    assert got.p95_cents.tolist() == [pick(day0, 0.95), pick(day1, 0.95)]
