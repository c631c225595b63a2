"""Seeded benchmark inputs, built with ``ocr_ray.synth`` and ``ocr_ray.io``
only, and cached under the benchmark's work directory.

Every input directory is keyed by workload layout and seed, so the same
seed always reads the same bytes, and is published by an atomic rename
so an interrupted build is never reused. The span-sequence digest of the
plain-Python oracle (``ocr_ray.oracle.extract_oracle``) is cached next to
each extraction corpus.
"""
from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_ray import io, oracle, synth

# The shard admitted into a finished job is synthesized from its own seed
# space, so its doc ids never collide with the corpus'.
SHARD_SEED_OFFSET = 1_000_000
SHARD_FILE = "shard-00000.parquet"


def _publish(final: pathlib.Path, build) -> pathlib.Path:
    if (final / "_SUCCESS").exists():
        return final
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    (tmp / "_SUCCESS").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


def doc_digest(rows) -> str:
    """Order-insensitive digest of ``(doc_id, spans, doc_text)`` rows; each
    span is ``(kind, text, media_ref, offset)`` in document order."""
    h = hashlib.sha256()
    for doc_id, spans, doc_text in sorted(rows, key=lambda r: r[0]):
        h.update(json.dumps([doc_id, spans, doc_text]).encode())
    return h.hexdigest()


def _span_tuples(spans) -> list:
    return [[s["kind"], s["text"], s["media_ref"], s["offset"]] for s in spans]


def oracle_digest(table: pa.Table) -> str:
    docs = oracle.extract_oracle(table)
    return doc_digest(
        (doc_id, _span_tuples(d["spans"]), d["doc_text"]) for doc_id, d in docs.items()
    )


def output_digest(out_dir: pathlib.Path) -> tuple[int, str]:
    """(doc count, digest) of a checkpointed extraction output."""
    rows = []
    for f in sorted(out_dir.glob("part=*/*.parquet")):
        t = pq.read_table(f, columns=["doc_id", "spans", "doc_text"])
        for r in t.to_pylist():
            rows.append((r["doc_id"], _span_tuples(r["spans"]), r["doc_text"]))
    return len(rows), doc_digest(rows)


def extraction_inputs(work: pathlib.Path, wl, seed: int) -> dict:
    """Corpus directory, admission shard and oracle digest for one
    extraction workload and seed."""
    key = f"{wl.name}-s{seed}-n{wl.n_docs}x{wl.n_files}+{wl.n_shard}"

    def build(d: pathlib.Path):
        corpus = synth.generate_interleaved(wl.n_docs, seed=seed)
        shard = synth.generate_interleaved(wl.n_shard, seed=seed + SHARD_SEED_OFFSET)
        io.write_interleaved(
            corpus, str(d / "corpus"),
            max_rows_per_file=math.ceil(wl.n_docs / wl.n_files),
        )
        io.write_interleaved(shard, str(d / "shard"), max_rows_per_file=wl.n_shard)
        (d / "shard" / "part-00000.parquet").rename(d / "shard" / SHARD_FILE)
        digest = oracle_digest(pa.concat_tables([corpus, shard]))
        (d / "oracle.json").write_text(json.dumps(
            {"n_docs": wl.n_docs + wl.n_shard, "digest": digest}
        ))

    d = _publish(work / "inputs" / key, build)
    expected = json.loads((d / "oracle.json").read_text())
    return {
        "corpus": str(d / "corpus"),
        "shard": str(d / "shard" / SHARD_FILE),
        "expected_docs": expected["n_docs"],
        "expected_digest": expected["digest"],
    }


def curation_inputs(work: pathlib.Path, seed: int, n_docs: int, n_files: int) -> dict:
    """A ``(doc_id, text)`` corpus in ``n_files`` files with one planted
    exact duplicate per five docs."""
    key = f"curate-s{seed}-n{n_docs}x{n_files}"
    n_dup = n_docs // 5

    def build(d: pathlib.Path):
        rng = random.Random(f"curate-{seed}")
        texts = [synth.text_payload(rng, rng.randint(3, 8)) for _ in range(n_docs)]
        corpus = pa.table({
            "doc_id": pa.array(
                list(range(n_docs)) + [10_000_000 + i for i in range(n_dup)], pa.int64()
            ),
            "text": pa.array(texts + texts[:n_dup]),
        })
        io.write_interleaved(
            corpus, str(d / "corpus"),
            max_rows_per_file=math.ceil(corpus.num_rows / n_files),
        )

    d = _publish(work / "inputs" / key, build)
    return {"corpus": str(d / "corpus"), "n_raw": n_docs + n_dup}
