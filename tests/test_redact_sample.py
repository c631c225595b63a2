"""PII redaction (ops/redact.py) and weighted priority sampling
(ops/sample.py)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_ray.ops.redact import redact_pii
from ocr_ray.ops.sample import _KNUTH, _M32, weighted_sample


def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_redact_pii_categories(ray_session):
    texts = [
        "mail me at jane.doe+spam@example.co.uk or bob@test.org now",
        "see https://example.com/a?b=c and http://foo.bar/x for info",
        "call +62 812-3456-7890 or (021) 555-0199 today",
        "no pii here at all",
        None,
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(5), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    out = sorted(redact_pii(_ds(tbl)).take_all(), key=lambda r: r["doc_id"])
    assert out[0]["n_emails"] == 2 and "<EMAIL>" in out[0]["redacted_text"]
    assert "jane" not in out[0]["redacted_text"]
    assert out[1]["n_urls"] == 2 and out[1]["n_emails"] == 0
    assert out[2]["n_phones"] == 2
    assert "<PHONE>" in out[2]["redacted_text"]
    assert out[3]["redacted_text"] == "no pii here at all"
    assert out[3]["n_urls"] == out[3]["n_emails"] == out[3]["n_phones"] == 0
    assert out[4]["redacted_text"] == ""  # null -> empty, not a crash


def test_redact_staged_order(ray_session):
    # an email-looking string inside a URL is consumed by the URL stage
    tbl = pa.table(
        {"doc_id": pa.array([0], pa.int64()),
         "text": pa.array(["https://x.io/path?u=a@b.com plus c@d.net"],
                          pa.string())}
    )
    (row,) = redact_pii(_ds(tbl)).take_all()
    assert row["n_urls"] == 1
    assert row["n_emails"] == 1  # only the one OUTSIDE the URL
    assert row["redacted_text"] == "<URL> plus <EMAIL>"


def test_weighted_sample_matches_brute_force(ray_session):
    n, k = 400, 10
    ids = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(5)
    w = rng.integers(1, 1000, size=n).astype(np.int64)
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()),
         "n_chars": pa.array(w, pa.int64())}
    )
    out = weighted_sample(_ds(tbl), weight_col="n_chars", k=k).take_all()
    assert [r["rank"] for r in out] == list(range(1, k + 1))

    # brute-force reference: priority = w * 2^32 / (hash + 1), top-k
    h = ((ids.astype(np.uint64) * _KNUTH) & _M32).astype(np.float64)
    pri = w.astype(np.float64) * float(1 << 32) / (h + 1.0)
    order = sorted(range(n), key=lambda i: (-pri[i], ids[i]))[:k]
    assert [r["doc_id"] for r in out] == [int(ids[i]) for i in order]
    assert [r["priority"] for r in out] == [pri[i] for i in order]


def test_weighted_sample_prefers_heavy_rows(ray_session):
    # half the corpus weighs 100x more; the sample should be dominated
    # by heavy rows (probabilistic, but deterministic given the hash)
    n, k = 1000, 50
    ids = np.arange(n, dtype=np.int64)
    w = np.where(ids % 2 == 0, 10_000, 100).astype(np.int64)
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()),
         "n_chars": pa.array(w, pa.int64())}
    )
    out = weighted_sample(_ds(tbl), weight_col="n_chars", k=k).take_all()
    heavy = sum(1 for r in out if r["doc_id"] % 2 == 0)
    assert heavy >= int(0.9 * k)


