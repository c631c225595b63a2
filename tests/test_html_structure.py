"""HTML table/link structure extraction."""
from __future__ import annotations


import pyarrow as pa


def test_extract_tables_nested_and_headers():
    from ocr_ray.kernels.html_extract import extract_tables

    h = (
        "<html><body><p>before</p>"
        "<table><tr><th>a</th><th>b</th></tr>"
        "<tr><td>1</td><td><table><tr><td>x</td></tr></table>outer</td></tr>"
        "</table>"
        "<table><tr><td>solo</td></tr></table>"
        "</body></html>"
    )
    got = extract_tables(h)
    # outer table, its nested table, then the second top-level table —
    # document order; nested text never duplicated into the outer cell
    assert got == [
        [["a", "b"], ["1", "outer"]],
        [["x"]],
        [["solo"]],
    ]


def test_extract_tables_whitespace_and_empty():
    from ocr_ray.kernels.html_extract import extract_tables

    assert extract_tables("") == []
    assert extract_tables("<p>no tables</p>") == []
    h = "<table><tr><td>  a\n  b </td><td></td></tr></table>"
    assert extract_tables(h) == [[["a b", ""]]]


def test_link_stats_counts_chrome_links():
    from ocr_ray.kernels.html_extract import extract_main_text, link_stats

    h = (
        "<html><body>"
        "<nav><a href='/1'>one</a><a href='/2'>two</a></nav>"
        "<div><p>real content</p><a href='x'>inline</a></div>"
        "<script>var a='<a>not a link</a>';</script>"
        "</body></html>"
    )
    n_links, link_c, total_c = link_stats(h)
    assert n_links == 3  # nav links count; script payload does not
    assert link_c == len("one") + len("two") + len("inline")
    assert total_c == link_c + len("real content")
    # main-content extraction still drops the nav chrome
    assert "one" not in extract_main_text(h)


def test_html_table_cells_and_link_violations(ray_session):
    import ray.data as rd

    from ocr_ray.ops.htmlops import html_link_violations

    spans = [
        [
            {"kind": "html", "offset": 0,
             "text": "<body><nav><a href='/'>home</a></nav>"
                     "<table><tr><td>p</td><td>q</td></tr></table>"
                     "<p>prose</p></body>",
             "media_ref": None},
            {"kind": "text", "offset": 1, "text": "plain", "media_ref": None},
        ],
        [
            {"kind": "text", "offset": 0, "text": "no html", "media_ref": None},
        ],
    ]
    t = pa.table(
        {
            "doc_id": pa.array(["d1", "d2"], pa.string()),
            "spans": spans,
        }
    )
    ds = rd.from_arrow(t)
    viol = html_link_violations(ds).to_pandas()
    assert len(viol) == 0  # d2 has no html spans, so no planted-nav rule
