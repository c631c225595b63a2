"""§2.10 extension surface end-to-end: the use_dictionary /
normalize_spelling / engine toggles, the span size cap and the learned
words change pipeline behavior exactly as the reference's request flags
and startup merge do, and the oracle tracks every combo."""
from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data as rd

from ocr_ray import synth
from ocr_ray.oracle import extract_oracle
from ocr_ray.pipelines.extract import ExtractConfig, extract_documents


@pytest.fixture(scope="module")
def toggle_table() -> pa.Table:
    return synth.generate_interleaved(n_docs=12, seed=31)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"use_dictionary": False},
        {"normalize_spelling": False},
        {"use_dictionary": False, "normalize_spelling": False},
        {"engine": "paddle"},
        {"max_span_bytes": 64},
        {"learned_words": ("agustoes", "departemem")},
    ],
    ids=lambda k: ",".join(f"{a}={b}" for a, b in k.items()),
)
def test_toggles_match_oracle(ray_session, toggle_table, kwargs):
    config = ExtractConfig(**kwargs)
    docs = extract_documents(rd.from_arrow(toggle_table), config).to_pandas()
    oracle = extract_oracle(toggle_table, config)
    assert len(docs) == len(oracle)
    for _, row in docs.iterrows():
        want = oracle[row["doc_id"]]
        got = [(s["kind"], s["text"], s["media_ref"]) for s in row["spans"]]
        exp = [(s["kind"], s["text"], s["media_ref"]) for s in want["spans"]]
        assert got == exp
        assert row["doc_text"] == want["doc_text"]


def test_toggles_actually_change_output(ray_session, toggle_table):
    base = extract_documents(
        rd.from_arrow(toggle_table), ExtractConfig()
    ).to_pandas().set_index("doc_id")["doc_text"]
    raw = extract_documents(
        rd.from_arrow(toggle_table),
        ExtractConfig(use_dictionary=False, normalize_spelling=False),
    ).to_pandas().set_index("doc_id")["doc_text"]
    # the repair chain must have corrected something somewhere
    assert any(base[d] != raw[d] for d in base.index)
