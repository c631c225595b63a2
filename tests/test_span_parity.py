"""Byte parity of the span pool's per-span work, without Ray.

- A committed digest of ``process_span`` output over a small synthetic
  corpus (100 documents each of two seeds). Any change to the repair
  kernels, the engine or the routing that moves one output byte changes
  the digest.
- ``SpanProcessor`` carries no state between calls: one call over a whole
  exploded block equals the concatenation of calls over its 16-row
  slices, so the size of the batches the pool is handed cannot change
  the output.
"""
from __future__ import annotations

import hashlib
import json

import pyarrow as pa
import pytest

from ocr_ray.stages.engines import make_engine
from ocr_ray.stages.explode import explode_spans
from ocr_ray.stages.process import SpanProcessor, process_span
from ocr_ray.synth import generate_interleaved

DOCS_PER_SEED = 100
SEEDS = (1, 9973)
# sha256 over one sorted-key JSON line per span, seeds in order
SPAN_DIGEST = "af7bb1753368389e616f038909f09f8e78bb759a40fe1694ca9b46fc15f3e566"


def _spans(seed: int) -> pa.Table:
    return explode_spans(generate_interleaved(DOCS_PER_SEED, seed=seed))


def test_process_span_digest():
    engine = make_engine()
    h = hashlib.sha256()
    n = 0
    for seed in SEEDS:
        flat = _spans(seed)
        for kind, text, ref in zip(
            flat.column("kind").to_pylist(),
            flat.column("text").to_pylist(),
            flat.column("media_ref").to_pylist(),
        ):
            out = process_span(kind, text, ref, engine)
            h.update(json.dumps(out, sort_keys=True).encode("utf-8"))
            h.update(b"\n")
            n += 1
    assert n > 0
    assert h.hexdigest() == SPAN_DIGEST


@pytest.mark.parametrize("seed", SEEDS)
def test_whole_block_equals_sliced_batches(seed):
    flat = _spans(seed)
    whole = SpanProcessor()(flat)
    sliced = pa.concat_tables(
        SpanProcessor()(flat.slice(i, 16)) for i in range(0, flat.num_rows, 16)
    )
    assert whole.num_rows == flat.num_rows
    assert whole.equals(sliced)
