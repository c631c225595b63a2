"""Empty-corpus robustness for the pair-join families: a fully-empty
derived dataset has NO reportable schema in Ray (zero blocks), which
used to crash adaptive_key_join's schema probe and
attach_pair_payloads' empty-side fallback ('NoneType' has no attribute
'names'). Every op must return an empty result instead."""
from __future__ import annotations

import pyarrow as pa


def _empty_docs():
    import ray.data as rd

    return rd.from_arrow(
        pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
        .empty_table()
    )


def test_pair_ops_on_empty_corpus(ray_session):
    from ocr_ray.ops.dedup import ngram_containment_pairs
    from ocr_ray.ops.strsim import doc_cosine_pairs_sparse

    for fn in (doc_cosine_pairs_sparse, ngram_containment_pairs):
        assert fn(_empty_docs()).take_all() == [], fn.__name__


def test_adaptive_join_empty_schemaless_sides(ray_session):
    """Both orders: an empty derived (schema-less) dataset on either
    side of adaptive_key_join must yield an empty join, not a crash."""
    import ray.data as rd

    from ocr_ray.ops.joins import adaptive_key_join

    def derived_empty(cols):
        base = rd.from_arrow(
            pa.table({c: pa.array([], pa.int64()) for c in cols})
        )
        # map over zero rows → Ray reports no schema for the result
        return base.map_batches(lambda t: t, batch_format="pyarrow")

    nonempty = rd.from_arrow(
        pa.table(
            {"id": pa.array([1, 2], pa.int64()),
             "v": pa.array([10, 20], pa.int64())}
        )
    )
    assert adaptive_key_join(
        derived_empty(["id", "w"]), nonempty, on="id"
    ).take_all() == []
    assert adaptive_key_join(
        nonempty, derived_empty(["id", "w"]), on="id"
    ).take_all() == []


def test_continuation_ops_on_empty_docs_and_tables(ray_session):
    import ray.data as rd

    from ocr_ray.ops.split import fold_balance
    from ocr_ray.ops.stats import ks_by_group
    from ocr_ray.ops.tfidf import hashed_bow

    docs = rd.from_arrow(
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("text", pa.string()),
                ("lang", pa.string()),
                ("source", pa.string()),
                ("n_chars", pa.int64()),
            ]
        ).empty_table()
    )
    assert hashed_bow(docs).take_all() == []
    assert ks_by_group(docs).num_rows == 0
    assert fold_balance(docs).num_rows == 0
