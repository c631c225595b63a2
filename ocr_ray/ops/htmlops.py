"""HTML-span link structure over the interleaved corpus.

Beyond main-content stripping (kernels/html_extract.py, used by the
extraction pipeline), web-scale corpora also need per-page
link-density profiles: navigation pages are boilerplate even when
their text density is high. The profile is one stateless
``map_batches`` pass over the interleaved table's html spans — one
corpus scan, no shuffle; output is one row per document with html.

Reference analogue: the span explode + per-kind routing in the
reference's extraction service (ocr_service.py upload path); the link
emitter is the kind='html' branch deepened.
"""
from __future__ import annotations

import pyarrow as pa


_LINK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("n_html_spans", pa.int64()),
        ("n_links", pa.int64()),
        ("link_chars", pa.int64()),
        ("text_chars", pa.int64()),
        ("link_density_millionths", pa.int64()),
    ]
)


def html_link_density(interleaved):
    """Per-doc link-density profile over html spans: link count, link
    text chars, total text chars, density in exact integer millionths
    (floor), the boilerplate-page signal. One scan, no shuffle — spans
    of one doc live in one row of the interleaved table."""
    from ocr_ray.kernels.html_extract import link_stats

    def profile(t: pa.Table) -> pa.Table:
        o = {name: [] for name in _LINK_SCHEMA.names}
        doc_ids = t.column("doc_id").to_pylist()
        spans_col = t.column("spans").to_pylist()
        for doc_id, spans in zip(doc_ids, spans_col):
            n_spans = n_links = link_c = text_c = 0
            for span in spans or []:
                if span.get("kind") != "html":
                    continue
                n_spans += 1
                nl, lc, tc = link_stats(span.get("text"))
                n_links += nl
                link_c += lc
                text_c += tc
            if n_spans == 0:
                continue
            o["doc_id"].append(doc_id)
            o["n_html_spans"].append(n_spans)
            o["n_links"].append(n_links)
            o["link_chars"].append(link_c)
            o["text_chars"].append(text_c)
            o["link_density_millionths"].append(
                (link_c * 1_000_000) // text_c if text_c else 0
            )
        return pa.table(
            {f.name: pa.array(o[f.name], f.type) for f in _LINK_SCHEMA}
        )

    return interleaved.map_batches(profile, batch_format="pyarrow")


_VIOL_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("reason", pa.string()),
    ]
)


def html_link_violations(interleaved):
    """Empty-oracle invariant gate for ``html_link_density``: per doc,
    (a) link chars can never exceed total text chars (links are a
    subset of the DOM text), (b) zero links implies zero link chars,
    (c) the density column must equal the exact integer floor, and
    (d) every synthetic html span carries a planted <nav> link farm,
    so a doc with html spans and NO links means the link walker broke
    (completeness, not just soundness). A correct extractor yields
    zero rows."""
    profile = html_link_density(interleaved)

    def check(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _VIOL_SCHEMA.empty_table()
        doc = t.column("doc_id").to_pylist()
        nl = t.column("n_links").to_numpy(zero_copy_only=False)
        lc = t.column("link_chars").to_numpy(zero_copy_only=False)
        tc = t.column("text_chars").to_numpy(zero_copy_only=False)
        dm = t.column("link_density_millionths").to_numpy(
            zero_copy_only=False
        )
        o_doc, o_reason = [], []
        for i in range(len(doc)):
            if lc[i] > tc[i]:
                o_doc.append(doc[i]); o_reason.append("link_gt_text")
            if nl[i] == 0 and lc[i] != 0:
                o_doc.append(doc[i]); o_reason.append("chars_without_links")
            want = (int(lc[i]) * 1_000_000) // int(tc[i]) if tc[i] else 0
            if int(dm[i]) != want:
                o_doc.append(doc[i]); o_reason.append("density_mismatch")
            if nl[i] == 0:
                o_doc.append(doc[i]); o_reason.append("planted_nav_missing")
        return pa.table(
            {
                "doc_id": pa.array(o_doc, pa.string()),
                "reason": pa.array(o_reason, pa.string()),
            }
        )

    rows = profile.map_batches(
        check, batch_format="pyarrow"
    ).take_all()  # diagnostics: empty on a correct extractor, tiny otherwise
    return pa.Table.from_pylist(rows, schema=_VIOL_SCHEMA)


def html_link_violations_sql() -> str:
    return (
        "SELECT CAST(NULL AS VARCHAR) AS doc_id,"
        " CAST(NULL AS VARCHAR) AS reason\nWHERE FALSE"
    )
