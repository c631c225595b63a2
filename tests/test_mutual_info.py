"""mutual_information vs DuckDB and analytic sanity."""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_mutual_information_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from ocr_ray.ops.infotheory import (
        mutual_information,
        mutual_information_sql,
    )

    rng = np.random.default_rng(61)
    n = 4000
    # half the corpus has lang fully determined by source (dependence),
    # half independent — MI must land strictly between 0 and H(lang)
    src = rng.choice(["s1", "s2", "s3", "s4"], n)
    lang = np.where(
        rng.random(n) < 0.5, np.char.replace(src, "s", "l"),
        rng.choice(["l1", "l2", "l3", "l4"], n),
    )
    docs = pa.table(
        {
            "lang": pa.array(lang.tolist(), pa.string()),
            "source": pa.array(src.tolist(), pa.string()),
        }
    )
    got = mutual_information(
        rd.from_arrow(docs).repartition(4)
    ).to_pandas()
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(mutual_information_sql()).df()
    assert int(got.n[0]) == int(want.n[0]) == n
    assert int(got.n_cells[0]) == int(want.n_cells[0])
    assert got.mi_nats[0] == want.mi_nats[0]
    assert 0.05 < got.mi_nats[0] < np.log(4)


def test_mutual_information_deterministic_is_h(ray_session):
    import ray.data as rd

    from ocr_ray.ops.infotheory import mutual_information

    # lang == f(source) exactly → MI == H(source) = ln 2 (two equal
    # sources), up to the 1e-9 log quantization
    docs = pa.table(
        {
            "lang": pa.array(["a"] * 500 + ["b"] * 500, pa.string()),
            "source": pa.array(["x"] * 500 + ["y"] * 500, pa.string()),
        }
    )
    out = mutual_information(rd.from_arrow(docs)).to_pandas()
    assert abs(out.mi_nats[0] - np.log(2)) < 1e-6
