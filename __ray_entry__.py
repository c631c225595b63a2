"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the ocr_ray library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: synthesize the interleaved text+media docs table
    at sf0.001 scale, run the full extraction pipeline (explode → kind
    routing → actor-pool OCR → repair chain → reassembly by doc_id), and
    return the reassembled documents Dataset."""
    from ocr_ray.driver import q_extract_documents

    return q_extract_documents("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 plus
    the large-scale training-data ops (dedup, text analysis)."""
    from ocr_ray.driver import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every query except the two byte-level
    extraction outputs (stateful actor-pool OCR/repair — genuinely
    non-SQL; rows-only check), which are themselves covered by the
    green derived oracle ``extract_conservation``. Everything else —
    including MinHash (bit-exact HUGEINT signatures) and SimHash — is
    oracle-backed."""
    from ocr_ray.driver import oracle_sql as _oracle

    return _oracle()
