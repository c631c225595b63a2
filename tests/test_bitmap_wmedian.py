"""Weighted median price per return flag vs a hand oracle."""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def test_weighted_median_price(ray_session):
    import ray.data as rd

    from ocr_ray.ops.stats import weighted_median_price_by_flag

    rng = np.random.RandomState(21)
    n = 3000
    flags = rng.choice(["A", "N", "R"], n)
    price = rng.uniform(10, 5000, n)
    qty = rng.randint(1, 50, n).astype(np.float64)
    t = pa.table(
        {
            "l_returnflag": pa.array(flags, pa.string()),
            "l_extendedprice": pa.array(price, pa.float64()),
            "l_quantity": pa.array(qty, pa.float64()),
        }
    )
    got = (
        weighted_median_price_by_flag(rd.from_arrow(t).repartition(5))
        .to_pandas()
        .set_index("flag")
    )
    for f in "ANR":
        m = flags == f
        cents = np.round(price[m] * 100).astype(np.int64)
        w = np.round(qty[m]).astype(np.int64)
        order = np.argsort(cents)
        cum = np.cumsum(w[order])
        total = int(cum[-1])
        target = math.ceil(total / 2)
        idx = int(np.searchsorted(cum, target, side="left"))
        assert int(got.loc[f, "wmedian_cents"]) == int(cents[order][idx])
        assert int(got.loc[f, "total_weight"]) == total
