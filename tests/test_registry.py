"""Registry hygiene, checked without a Ray session: every oracle belongs
to a registered query, every query but the rows-only three has an
oracle, the family-first ordering names only registered queries, and
every ``ocr_ray/ops`` module is reachable from a pipeline, a stage, the
CLI or a registered query (so an orphaned module or a stale oracle
fails here instead of lingering)."""
from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "ocr_ray"
ROWS_ONLY = {"extract_documents", "extract_spans", "media_dhash_pairs"}


def test_oracles_match_queries():
    from ocr_ray.driver import QUERIES, oracle_sql

    oracles = set(oracle_sql())
    assert oracles <= set(QUERIES), sorted(oracles - set(QUERIES))
    assert set(QUERIES) - oracles == ROWS_ONLY


def test_family_first_names_registered_queries():
    from ocr_ray.driver import _FAMILY_FIRST_50, QUERIES

    assert set(_FAMILY_FIRST_50) <= set(QUERIES)
    assert list(QUERIES)[: len(_FAMILY_FIRST_50)] == _FAMILY_FIRST_50


def _imported_ops(nodes) -> set[str]:
    """ops module names imported anywhere inside the given AST nodes."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.ImportFrom) and n.module:
                if n.module == "ocr_ray.ops":
                    out.update(a.name for a in n.names)
                elif n.module.startswith("ocr_ray.ops."):
                    out.add(n.module.split(".")[2])
            elif isinstance(n, ast.Import):
                for a in n.names:
                    if a.name.startswith("ocr_ray.ops."):
                        out.add(a.name.split(".")[2])
    return out


def _registered_function_bodies() -> list[ast.AST]:
    """The driver functions registered in QUERIES, plus the driver
    helpers they call (transitively)."""
    from ocr_ray.driver import QUERIES

    tree = ast.parse((PKG / "driver.py").read_text())
    defs = {
        n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
    }
    stack = [fn.__name__ for fn in QUERIES.values()]
    seen: set[str] = set()
    while stack:
        name = stack.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        stack.extend(
            n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)
        )
    return [defs[name] for name in seen]


def test_every_ops_module_has_an_importer():
    ops = {
        p.stem for p in (PKG / "ops").glob("*.py") if p.stem != "__init__"
    }
    roots = [
        ast.parse(p.read_text())
        for p in [
            *(PKG / "pipelines").glob("*.py"),
            *(PKG / "stages").glob("*.py"),
            PKG / "__main__.py",
        ]
    ]
    kept = _imported_ops(roots + _registered_function_bodies())
    frontier = set(kept)
    while frontier:
        mod = frontier.pop()
        if mod not in ops:
            continue
        src = (PKG / "ops" / f"{mod}.py").read_text()
        new = _imported_ops([ast.parse(src)])
        frontier |= new - kept
        kept |= new
    assert ops <= kept, sorted(ops - kept)
