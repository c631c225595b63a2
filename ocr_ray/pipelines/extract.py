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

from dataclasses import dataclass
from typing import Optional

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
    score: bool = True
    # fixed size of the OCR/repair actor pool; None → the resource
    # plan's pool (context.plan_resources: 0.75×CPUs, at least 1).
    # Ray does not fuse the explode task into the actor stage, so the
    # pool receives SPAN rows, one call per exploded input block: the
    # pool's unit of work is the read's block, and a media-heavy
    # document spreads across the pool only as far as the read splits
    # the input into blocks (SURVEY.md §4 "Skew"). A block holds parts
    # of several documents, and the doc_id shuffle brings each
    # document's spans back together.
    ocr_concurrency: Optional[int] = None
    # approved learned words merged into the kamus before the run (frozen
    # during it) — the reference's startup merge, see SpanProcessor
    learned_words: tuple = ()
    # per-span inline payload cap, reference's 50 MB upload limit
    # (config.py:43); oversized spans route to FILE_TOO_LARGE
    max_span_bytes: int = 50 * 1024 * 1024

    def span_kwargs(self) -> dict:
        """The keyword arguments of ``process_span``: the one source the
        span pool and the plain-Python oracle both take them from."""
        return {
            "language": self.language,
            "use_dictionary": self.use_dictionary,
            "normalize_spelling": self.normalize_spelling,
            "score": self.score,
            "max_span_bytes": self.max_span_bytes,
        }

    def processor_kwargs(self) -> dict:
        return {
            "engine": self.engine,
            "learned_words": tuple(self.learned_words),
            **self.span_kwargs(),
        }


def extract_plan(config: ExtractConfig) -> ResourcePlan:
    """The resource plan an extraction runs on: the cluster's plan, with
    the config's explicit pool size in place of the planned."""
    return plan_resources(cluster_cpus(), pool_actors=config.ocr_concurrency)


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
        batch_size=None,
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
