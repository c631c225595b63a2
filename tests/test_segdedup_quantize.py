"""Unit tests for the segment-dedup and rank-concordance families (the
oracle harness is the primary gate; these pin the kernel math and edge
cases that SQL comparison can't isolate)."""
import numpy as np
import pyarrow as pa


def _docs_ds(rows):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


class TestSegmenter:
    def test_windows_and_remainder(self):
        from ocr_ray.ops.segdedup import _segment_rows_factory

        batch = pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["a b c d e"], pa.string()),
            }
        )
        out = _segment_rows_factory(2)(batch)
        segs = dict(
            zip(out.column("segment").to_pylist(), out.column("n_words").to_pylist())
        )
        assert segs == {"a b": 2, "c d": 2, "e": 1}

    def test_empty_text_is_one_empty_segment(self):
        from ocr_ray.ops.segdedup import _segment_rows_factory

        batch = pa.table(
            {
                "doc_id": pa.array([7], pa.int64()),
                "text": pa.array([""], pa.string()),
            }
        )
        out = _segment_rows_factory(12)(batch)
        assert out.column("segment").to_pylist() == [""]
        assert out.column("n_words").to_pylist() == [1]

    def test_repeated_segment_collapses_with_count(self):
        from ocr_ray.ops.segdedup import _segment_rows_factory

        batch = pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": pa.array(["x y x y"], pa.string()),
            }
        )
        out = _segment_rows_factory(2)(batch)
        assert out.num_rows == 1
        assert out.column("cnt").to_pylist() == [2]

    def test_hot_segments_end_to_end(self, ray_session):
        from ocr_ray.ops.segdedup import hot_segments, segment_dedup_stats

        docs = _docs_ds(
            [
                (1, "the same line here plus unique one"),
                (2, "the same line here plus other words"),
                (3, "entirely different content nothing shared at all"),
            ]
        )
        hot = hot_segments(docs, width=4, min_docs=2).to_pandas()
        assert hot["segment"].tolist() == ["the same line here"]
        assert hot["n_docs"].tolist() == [2]
        stats = (
            segment_dedup_stats(docs, width=4, min_docs=2)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert stats.loc[1, "n_hot_segments"] == 1
        assert stats.loc[1, "n_kept_words"] == 3
        assert stats.loc[3, "n_hot_segments"] == 0
        assert stats.loc[3, "n_kept_words"] == 7


class TestSegmentDedupDocs:
    def test_transform_removes_every_occurrence_in_order(self, ray_session):
        from ocr_ray.ops.segdedup import segment_dedup_docs

        docs = _docs_ds(
            [
                (1, "the same line here plus unique one"),
                (2, "extra prefix here too the same line here"),
                (3, "entirely different content nothing shared at all"),
                # doc 4 is ONLY the hot segment → empty clean_text
                (4, "the same line here"),
            ]
        )
        out = (
            segment_dedup_docs(docs, width=4, min_docs=2)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert out.loc[1, "clean_text"] == "plus unique one"
        assert out.loc[1, "n_dropped_segments"] == 1
        # doc 2's hot window starts at position 4, kept prefix survives
        assert out.loc[2, "clean_text"] == "extra prefix here too"
        assert out.loc[3, "clean_text"] == (
            "entirely different content nothing shared at all"
        )
        assert out.loc[3, "n_dropped_segments"] == 0
        assert out.loc[4, "clean_text"] == ""
        assert out.loc[4, "n_dropped_segments"] == 1

    def test_within_doc_repeat_drops_both_occurrences(self, ray_session):
        from ocr_ray.ops.segdedup import segment_dedup_docs

        # "x y" appears twice in doc 1 and once in doc 2 → hot; BOTH
        # positions in doc 1 must vanish, the middle survives in place.
        docs = _docs_ds([(1, "x y mid dle x y"), (2, "x y tail word")])
        out = (
            segment_dedup_docs(docs, width=2, min_docs=2)
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[1, "clean_text"] == "mid dle"
        assert out.loc[1, "n_dropped_segments"] == 2
        assert out.loc[2, "clean_text"] == "tail word"


class TestRankCorr:
    def test_inversions_brute(self):
        from ocr_ray.ops.rankcorr import _count_inversions

        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.integers(0, 10, rng.integers(0, 60))
            brute = sum(
                int(a[i] > a[j])
                for i in range(len(a))
                for j in range(i + 1, len(a))
            )
            assert _count_inversions(a) == brute

    def test_category_totals(self):
        from ocr_ray.ops.rankcorr import kendall_counts

        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 30)
        y = rng.integers(0, 4, 30)
        c = kendall_counts(x, y)
        total = sum(v for k, v in c.items() if k != "n_docs")
        assert total == 30 * 29 // 2
