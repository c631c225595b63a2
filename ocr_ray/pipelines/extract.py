"""The flagship extraction pipeline, end-to-end:

    read interleaved table (Lance/Parquet)
      → explode spans            (stateless map_batches, zero-copy Arrow)
      → SpanProcessor actor pool (kind routing + OCR + repair chain)
      → reassemble by doc_id     (hash repartition, offset order restored)

This is the Ray-Data-native rebuild of the reference's per-request flow
(app/routers/ocr.py:79-327): validation → OCR → dictionary correction →
currency normalization → spelling normalization → quality scoring, with
the page-order reassembly of ocr_service.py:594-601 generalized to
interleaved spans.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ocr_ray import io
from ocr_ray.context import ResourcePlan, cluster_cpus, plan_resources
from ocr_ray.stages.explode import explode_spans
from ocr_ray.stages.process import SpanProcessor
from ocr_ray.stages.reassemble import reassemble


@dataclass
class ExtractConfig:
    engine: str = "auto"
    language: str = "mixed"
    use_dictionary: bool = True
    normalize_spelling: bool = True
    enhance: bool = False
    score: bool = True
    # fixed size of the OCR/repair actor pool; None → the resource
    # plan's pool (context.plan_resources: 0.75×CPUs, at least 1).
    # Ray does not fuse the explode task into the actor stage (a map
    # that changes row counts is never fused into a batch_size'd one),
    # so the pool receives SPAN rows and batch_size counts spans: a
    # batch holds parts of several documents, a media-heavy document
    # spreads across the pool (SURVEY.md §4 "Skew"), and the doc_id
    # shuffle brings each document's spans back together.
    ocr_concurrency: Optional[int] = None
    ocr_batch_size: int = 16
    # reassembly shuffle partitions; None → the resource plan's
    reassemble_partitions: Optional[int] = None
    # approved learned words merged into the kamus before the run (frozen
    # during it) — the reference's startup merge, see SpanProcessor
    learned_words: tuple = ()
    # per-span inline payload cap, reference's 50 MB upload limit
    # (config.py:43); oversized spans route to FILE_TOO_LARGE
    max_span_bytes: int = 50 * 1024 * 1024

    def processor_kwargs(self) -> dict:
        return {
            "engine": self.engine,
            "language": self.language,
            "use_dictionary": self.use_dictionary,
            "normalize_spelling": self.normalize_spelling,
            "enhance": self.enhance,
            "score": self.score,
            "learned_words": tuple(self.learned_words),
            "max_span_bytes": self.max_span_bytes,
        }


def extract_plan(config: ExtractConfig, pipelines: int = 1) -> ResourcePlan:
    """The resource plan an extraction runs on: the cluster's plan (for
    ``pipelines`` concurrent extractions), with the config's explicit
    pool size and shuffle partition count in place of the planned."""
    plan = plan_resources(
        cluster_cpus(), pool_actors=config.ocr_concurrency, pipelines=pipelines
    )
    if config.reassemble_partitions:
        plan = dataclasses.replace(
            plan, shuffle_partitions=config.reassemble_partitions
        )
    return plan


def extract_spans(ds, config: ExtractConfig | None = None):
    """Interleaved docs Dataset → processed span rows (SPAN_OUT_SCHEMA)."""
    config = config or ExtractConfig()
    plan = extract_plan(config)
    return ds.map_batches(
        explode_spans, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        SpanProcessor,
        fn_constructor_kwargs=config.processor_kwargs(),
        batch_format="pyarrow",
        batch_size=config.ocr_batch_size,
        concurrency=plan.pool_actors,
        num_cpus=plan.actor_cpus,
    )


def extract_documents(ds, config: ExtractConfig | None = None):
    """Interleaved docs Dataset → reassembled documents (DOC_OUT_SCHEMA)."""
    config = config or ExtractConfig()
    return reassemble(
        extract_spans(ds, config),
        num_partitions=extract_plan(config).shuffle_partitions,
    )


def extract_from_path(path: str, config: ExtractConfig | None = None):
    return extract_documents(io.read_interleaved(path), config)


def extract_table_cells(ds):
    """Side-channel structured extraction: every html span's <table>
    cells as flat rows (ops/htmlops.py:html_table_cells). Runs off the
    SAME interleaved Dataset as the main pipeline — callers wanting
    both outputs should materialize ``ds`` first so the source scan
    executes once:

        src = io.read_interleaved(path).materialize()
        docs  = extract_documents(src, cfg)
        cells = extract_table_cells(src)
    """
    from ocr_ray.ops.htmlops import html_table_cells

    return html_table_cells(ds)
