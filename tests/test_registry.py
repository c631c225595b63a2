"""Registry hygiene, checked without a Ray session: every oracle belongs
to a registered query, every query but the rows-only three has an
oracle, the family-first ordering names only registered queries, and
every ``ocr_ray/ops`` module and public function is reachable from a
pipeline, a stage, the CLI or a registered query (so an orphaned
module, a test-only function or a stale oracle fails here instead of
lingering)."""
from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "ocr_ray"
ROWS_ONLY = {"extract_documents", "extract_spans", "media_dhash_pairs"}

# Public ops names that nothing but their own tests reaches yet. The
# multimodal media-codec plumbing goes with kernels/jpeg, png, imagefmt
# and pixels in the next deletion batch; the analysis, joins and
# learning_state helpers are left for a later one.
UNREACHED_OPS = {
    "multimodal.AudioChunkStats",
    "multimodal.DecodeMedia",
    "multimodal.DeskewImage",
    "multimodal.EnhanceImage",
    "multimodal.RemoveBackground",
    "multimodal.ResizeImage",
    "multimodal.SampleFrames",
    "multimodal.SilenceSegments",
    "multimodal.audio_chunk_stats",
    "multimodal.decode_media",
    "multimodal.decode_raw_audio",
    "multimodal.encode_raw_audio",
    "multimodal.enhance_images",
    "multimodal.render_text_page",
    "multimodal.resize_images",
    "multimodal.sample_frames",
    "multimodal.silence_segments",
    "multimodal.synthesize_media",
    "multimodal.synthesize_raw_audio",
    "multimodal.synthesize_raw_images",
    "analysis.events_by_type",
    "analysis.events_per_day",
    "joins.anti_join_filter",
    "learning_state.export_json",
    "learning_state.export_words",
    "learning_state.load_state",
    "learning_state.merge_counts",
    "learning_state.save_state",
}


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
