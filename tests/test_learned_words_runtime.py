"""Run-level learned-words dictionary extension (the reference's startup
merge): extending the kamus changes unknown-word extraction, scoring and
fuzzy targets, and is reversible."""
from __future__ import annotations

from ocr_ray import data
from ocr_ray.kernels import calculate_quality_score, correct_with_stats, get_unknown_words


def test_runtime_extra_words_extend_and_reset():
    novel = "zzqproprietary"
    try:
        assert novel in get_unknown_words(f"kata {novel} muncul")
        base_score = calculate_quality_score(novel).matched_words

        n = data.set_runtime_extra_words([novel, "  OtherWord  "])
        assert n == 2
        assert novel in data.kamus()
        assert "otherword" in data.kamus()
        # no longer unknown; scoring counts it matched
        assert novel not in get_unknown_words(f"kata {novel} muncul")
        assert calculate_quality_score(novel).matched_words == base_score + 1
        # fuzzy can now target the learned word
        corrected, count = correct_with_stats("zzqproprietarx")
        assert corrected == novel and count == 1
    finally:
        data.set_runtime_extra_words(())
        assert novel not in data.kamus()
        assert novel in get_unknown_words(f"kata {novel} muncul")


def test_learned_words_do_not_leak_between_processors():
    """plain → learned → plain in one process: the learned run's kamus
    extension must not reach the processor or the oracle that follow."""
    from ocr_ray.oracle import extract_oracle
    from ocr_ray.pipelines.extract import ExtractConfig
    from ocr_ray.stages.explode import explode_spans
    from ocr_ray.stages.process import SpanProcessor
    from ocr_ray.synth import generate_interleaved

    docs = generate_interleaved(50, seed=1)
    flat = explode_spans(docs)
    learned = ("agustoes", "departemem")

    def span_texts(processor) -> dict:
        out = processor(flat)
        return dict(
            zip(
                zip(out.column("doc_id").to_pylist(),
                    out.column("offset").to_pylist()),
                out.column("text").to_pylist(),
            )
        )

    def oracle_texts(config) -> dict:
        return {
            (doc_id, s["offset"]): s["text"]
            for doc_id, doc in extract_oracle(docs, config).items()
            for s in doc["spans"]
        }

    try:
        plain = span_texts(SpanProcessor())
        with_learned = span_texts(SpanProcessor(learned_words=learned))
        assert with_learned != plain
        assert oracle_texts(ExtractConfig()) == plain
        assert span_texts(SpanProcessor()) == plain
        assert oracle_texts(ExtractConfig(learned_words=learned)) == with_learned
    finally:
        data.set_runtime_extra_words(())
