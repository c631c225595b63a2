"""Relational / training-data operations over document corpora.

Every module here is imported by a pipeline, a stage, the CLI, a
``driver.QUERIES`` entry or another module here, and every public
function or class is called from one of those (tests/test_registry.py
checks both). The exceptions are named in that test: a few
``analysis``, ``joins`` and ``learning_state`` helpers, left for a
later deletion batch.

- analysis: word-frequency learning aggregation (A1), stats (A2-A7),
  top-k (O1), language ID, quality scoring, token counts, fingerprints
- learning_state: learned-words state table, import/export merge modes
- joins: broadcast / adaptive hash joins (J1)
- dedup, segdedup, cdc: exact, MinHash-LSH, SimHash, n-gram Jaccard,
  segment dedup, snapshot diffs
- placement: rendezvous shard placement
- curate, filters, redact, decontam, sample, split, chunk, curriculum:
  the curation DAG's stages and the training-mix planners
- textstats, tfidf, lm, keyness, lexicon, strsim, infotheory,
  rankcorr, stats, sketch, layout, htmlops, spanstats: corpus
  analytics behind the registry queries
"""
