"""The CSV source round-trip."""
from __future__ import annotations

import pyarrow as pa


def test_csv_roundtrip_byte_exact(ray_session, tmp_path):
    import pyarrow.csv as pacsv

    from ocr_ray.io import read_documents_csv

    # adversarial text: embedded newlines, quotes, commas, unicode
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ['line1\nline2, "quoted"', "päivää, maailma", ""],
                pa.string(),
            ),
            "lang": pa.array(["en", "fi", "en"], pa.string()),
            "source": pa.array(["a", "b", "a"], pa.string()),
            "n_chars": pa.array([21, 15, 0], pa.int64()),
        }
    )
    p = tmp_path / "docs.csv"
    pacsv.write_csv(t, str(p))
    back = (
        read_documents_csv(str(p))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = t.to_pandas()
    # empty string survives as empty (not null) after explicit typing?
    # pyarrow CSV reads empty unquoted cells as null; accept either for
    # the empty doc but require exact equality elsewhere
    assert back.doc_id.tolist() == want.doc_id.tolist()
    assert back.text.tolist()[:2] == want.text.tolist()[:2]
    assert back.text.tolist()[2] in ("", None)
    assert back.lang.tolist() == want.lang.tolist()
    assert back.n_chars.tolist() == want.n_chars.tolist()
