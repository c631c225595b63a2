"""Registry hygiene, checked without a Ray session: every oracle belongs
to a registered query, every query but the rows-only two has an
oracle, the family-first ordering names only registered queries, every
``ocr_ray/ops`` module and public function is reachable from a
pipeline, a stage, the CLI or a registered query, and every
``ocr_ray/kernels`` module is imported from outside the tests (so an
orphaned module, a test-only function or a stale oracle fails here
instead of lingering)."""
from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "ocr_ray"
ROWS_ONLY = {"extract_documents", "extract_spans"}

# Public ops names that nothing but their own tests reaches yet: the
# analysis, joins and learning_state helpers, left for a later deletion
# batch.
UNREACHED_OPS = {
    "analysis.events_by_type",
    "analysis.events_per_day",
    "joins.anti_join_filter",
    "learning_state.export_json",
    "learning_state.export_words",
    "learning_state.load_state",
    "learning_state.merge_counts",
    "learning_state.save_state",
}

# Kernel modules that only tests import: pixels carries the SURVEY
# M3-M6 image-preprocess row, and the PNG codec goes in the next
# deletion batch.
TEST_ONLY_KERNELS = {"pixels", "png"}


def test_oracles_match_queries():
    from ocr_ray.driver import QUERIES, oracle_sql

    oracles = set(oracle_sql())
    assert oracles <= set(QUERIES), sorted(oracles - set(QUERIES))
    assert set(QUERIES) - oracles == ROWS_ONLY


def test_family_first_names_registered_queries():
    from ocr_ray.driver import _FAMILY_FIRST_50, QUERIES

    assert set(_FAMILY_FIRST_50) <= set(QUERIES)
    assert list(QUERIES)[: len(_FAMILY_FIRST_50)] == _FAMILY_FIRST_50


def _imported(nodes, package: str = "ops") -> set[str]:
    """``ocr_ray.<package>`` module names imported anywhere inside the
    given AST nodes."""
    pkg = f"ocr_ray.{package}"
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.ImportFrom) and n.module:
                if n.module == pkg:
                    out.update(a.name for a in n.names)
                elif n.module.startswith(pkg + "."):
                    out.add(n.module.split(".")[2])
            elif isinstance(n, ast.Import):
                for a in n.names:
                    if a.name.startswith(pkg + "."):
                        out.add(a.name.split(".")[2])
    return out


def _registered_function_bodies(*extra: str) -> list[ast.AST]:
    """The driver functions registered in QUERIES and the ``extra``
    driver functions, plus the driver helpers they call (transitively)."""
    from ocr_ray.driver import QUERIES

    tree = ast.parse((PKG / "driver.py").read_text())
    defs = {
        n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
    }
    stack = [fn.__name__ for fn in QUERIES.values()] + list(extra)
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


def _entry_modules() -> list[ast.AST]:
    """The pipelines, the stages and the CLI."""
    return [
        ast.parse(p.read_text())
        for p in [
            *(PKG / "pipelines").glob("*.py"),
            *(PKG / "stages").glob("*.py"),
            PKG / "__main__.py",
        ]
    ]


def test_every_ops_module_has_an_importer():
    ops = {
        p.stem for p in (PKG / "ops").glob("*.py") if p.stem != "__init__"
    }
    roots = _entry_modules()
    kept = _imported(roots + _registered_function_bodies())
    frontier = set(kept)
    while frontier:
        mod = frontier.pop()
        if mod not in ops:
            continue
        src = (PKG / "ops" / f"{mod}.py").read_text()
        new = _imported([ast.parse(src)])
        frontier |= new - kept
        kept |= new
    assert ops <= kept, sorted(ops - kept)


def _used_names(nodes) -> set[str]:
    """Every name the nodes use: plain names, attributes and the names a
    ``from … import`` brings in."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out.update(a.name for a in n.names)
    return out


def test_every_public_ops_function_is_reached():
    """Every public top-level function or class in ``ocr_ray/ops`` is
    used, by name, from the pipelines, the stages, the CLI, a registered
    query or its oracle SQL, or from an ops definition one of those
    reaches. Only ``UNREACHED_OPS`` is exempt, and each of its names
    must still be unreached."""
    defs: dict[str, list[ast.AST]] = {}  # top-level name -> its ops nodes
    public = set()
    for p in (PKG / "ops").glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if not node.name.startswith("_"):
                    public.add(f"{p.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    reached = _used_names(
        _entry_modules() + _registered_function_bodies("oracle_sql")
    )
    frontier = list(reached)
    while frontier:
        for node in defs.get(frontier.pop(), ()):
            new = _used_names([node]) - reached
            reached |= new
            frontier.extend(new)
    unreached = {q for q in public if q.split(".", 1)[1] not in reached}
    assert unreached <= UNREACHED_OPS, sorted(unreached - UNREACHED_OPS)
    assert UNREACHED_OPS <= unreached, sorted(UNREACHED_OPS - unreached)


def test_every_kernel_module_is_imported_outside_tests():
    """Every ``ocr_ray/kernels`` module is imported by another module of
    the package, a script, the benchmark or an entry point. Only
    ``TEST_ONLY_KERNELS`` is exempt, and each of its names must still be
    a kernel module that nothing outside the tests imports."""
    root = PKG.parent
    kernels = {
        p.stem for p in (PKG / "kernels").glob("*.py") if p.stem != "__init__"
    }
    sources = [
        *PKG.rglob("*.py"),
        *(root / "scripts").glob("*.py"),
        *(root / "benchmark").glob("*.py"),
        root / "bench.py",
        root / "__ray_entry__.py",
    ]
    imported = set()
    for p in sources:
        own = p.stem if p.parent == PKG / "kernels" else None
        imported |= _imported([ast.parse(p.read_text())], "kernels") - {own}
    unimported = kernels - imported
    assert unimported <= TEST_ONLY_KERNELS, sorted(
        unimported - TEST_ONLY_KERNELS
    )
    assert TEST_ONLY_KERNELS <= unimported, sorted(
        TEST_ONLY_KERNELS - unimported
    )
