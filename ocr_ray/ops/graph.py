"""Integer-exact PageRank over a document-pair graph — the iterative
numeric graph algorithm family (the near-dup pair graph from MinHash-LSH
is the natural input: rank identifies the "template hubs" whose
boilerplate radiates through the corpus).

Determinism design: classic PageRank iterates floating-point mass, whose
value depends on accumulation order — useless for a cross-engine bit
equality gate. Here every quantity is an int64: ranks start at
``SCALE``; each iteration a node emits ``r // deg`` (floor division —
identical in numpy and DuckDB for non-negative ints) along every edge,
and collects ``BASE + (DAMP_NUM * Σ incoming) // DAMP_DEN``. Addition is
order-free, so the fixed-``iters`` result is bit-identical however the
partial sums associate — a chained-CTE DuckDB oracle reproduces it
exactly. (The truncated remainders stay in the graph's ~1e-9 relative
noise floor; ranking order matches float PageRank for any real use.)

Scale shape (same partitioning argument as connected components,
ops/dedup.py): iterations shuffle EDGES and slim (node, int) rows —
never documents. Per round: two keyed joins + one keyed sum, each
materialized so lineage stays flat. Overflow bound: the damped inflow
``DAMP_NUM * Σ shares`` stays under 2^63 for connected components up to
~1e8 nodes at ``SCALE`` = 1e9; a runtime guard raises rather than
wrapping silently.

Also kept, reached only from their own tests since the events/TPC-H
queries that used them were removed (left for a later deletion batch):
``copurchase_edges``, ``triangle_counts``, ``clustering_coefficients``,
``kcore``, ``label_propagation``, ``bfs_distances``,
``association_rules``.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SCALE = 10**9
DAMP_NUM, DAMP_DEN = 85, 100
BASE = (SCALE * (DAMP_DEN - DAMP_NUM)) // DAMP_DEN

_RANK_SCHEMA = pa.schema([("node", pa.int64()), ("r", pa.int64())])
_OUT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("rank_scaled", pa.int64())])
_GUARD = (2**63 - 1) // DAMP_NUM


def pagerank(pairs, iters: int = 5, col_a: str = "doc_a", col_b: str = "doc_b"):
    """(col_a, col_b) undirected pair Dataset → (doc_id, rank_scaled)
    after ``iters`` damped integer power iterations."""
    from ray.data.aggregate import Count, Sum

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import adaptive_key_join

    def sym(t: pa.Table) -> pa.Table:
        a = t.column(col_a).cast(pa.int64()).combine_chunks()
        b = t.column(col_b).cast(pa.int64()).combine_chunks()
        return pa.table(
            {"src": pa.concat_arrays([a, b]), "dst": pa.concat_arrays([b, a])}
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        import ray.data as rd

        return rd.from_arrow(_OUT_SCHEMA.empty_table())

    deg = _with_schema(
        edges.groupby("src").aggregate(Count(alias_name="deg")),
        pa.schema([("src", pa.int64()), ("deg", pa.int64())]),
    ).materialize()

    def init_rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("src").cast(pa.int64()),
                "r": pa.array(np.full(t.num_rows, SCALE, np.int64), pa.int64()),
            }
        )

    ranks = _with_schema(
        deg.map_batches(init_rank, batch_format="pyarrow"), _RANK_SCHEMA
    ).materialize()

    def share_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("src", pa.int64()), ("share", pa.int64())]
            ).empty_table()
        r = t.column("r").to_numpy(zero_copy_only=False)
        d = t.column("deg").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": t.column("src").cast(pa.int64()),
                "share": pa.array((r // d).astype(np.int64), pa.int64()),
            }
        )

    def msg_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("node", pa.int64()), ("s", pa.int64())]
            ).empty_table()
        return pa.table(
            {
                "node": t.column("dst").cast(pa.int64()),
                "s": t.column("share").cast(pa.int64()),
            }
        )

    def new_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _RANK_SCHEMA.empty_table()
        s = t.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) and int(s.max()) > _GUARD:
            raise OverflowError(
                "pagerank inflow exceeds the int64 damping bound; "
                "reduce SCALE or split the component"
            )
        return pa.table(
            {
                "node": t.column("node").cast(pa.int64()),
                "r": pa.array(BASE + (DAMP_NUM * s) // DAMP_DEN, pa.int64()),
            }
        )

    for _ in range(iters):
        shares = adaptive_key_join(
            _renamed(ranks, {"node": "src"}), deg, on="src"
        ).map_batches(share_fn, batch_format="pyarrow")
        msgs = adaptive_key_join(edges, shares, on="src").map_batches(
            msg_fn, batch_format="pyarrow"
        )
        ranks = _with_schema(
            msgs.groupby("node")
            .aggregate(Sum("s", alias_name="s"))
            .map_batches(new_rank, batch_format="pyarrow"),
            _RANK_SCHEMA,
        ).materialize()

    return _renamed(ranks, {"node": "doc_id", "r": "rank_scaled"})


def pagerank_sql(pairs_subquery: str, iters: int = 5) -> str:
    """DuckDB equivalent: the pair set nests as a subquery (it may carry
    its own WITH), then ``iters`` chained CTEs replay the damped integer
    power iteration — floor division and order-free integer sums make
    the replay bit-exact."""
    ctes = [
        f"pairs AS (SELECT doc_a, doc_b FROM ({pairs_subquery}))",
        "edges AS (SELECT doc_a AS src, doc_b AS dst FROM pairs"
        " UNION ALL SELECT doc_b AS src, doc_a AS dst FROM pairs)",
        "deg AS (SELECT src AS node, COUNT(*) AS deg FROM edges GROUP BY src)",
        f"r0 AS (SELECT node, {SCALE}::BIGINT AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"r{k} AS (SELECT e.dst AS node,"
            f" {BASE} + ({DAMP_NUM} * SUM(p.r // d.deg)) // {DAMP_DEN} AS r"
            f" FROM edges e"
            f" JOIN r{k - 1} p ON p.node = e.src"
            f" JOIN deg d ON d.node = e.src"
            f" GROUP BY e.dst)"
        )
    return (
        "WITH " + ",\n".join(ctes) + "\n"
        f"SELECT node AS doc_id, CAST(r AS BIGINT) AS rank_scaled FROM r{iters}"
    )


def copurchase_edges(lineitem, max_basket: int = 256):
    """Distinct co-purchase edges (part u, part v), u < v, between parts
    appearing in the same order. Intra-order pairs are generated inside
    the order-partitioned block with the shared vectorized triu
    machinery (ops/dedup.py); baskets larger than ``max_basket`` are
    dropped whole — the hot-basket skew guard, mirrored by the oracle's
    HAVING filter. The global distinct is one keyed aggregate of slim
    (u, v) rows."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import (
        _dedup_sorted_by_group,
        _intra_group_pair_indices,
    )
    from ocr_ray.stages.grouped import grouped_map

    edge_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])

    def pairs_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return edge_schema.empty_table()
        parts = block.column("l_partkey").to_numpy(zero_copy_only=False)
        gidx = np.repeat(
            np.arange(len(starts)), np.diff(np.append(starts, n))
        )
        # sorts by (order, part) and drops in-order duplicates, so the
        # triu pairs below come out canonical (u < v)
        p_d, g_d, _ = _dedup_sorted_by_group(parts, gidx, parts)
        ii, jj, _ = _intra_group_pair_indices(g_d, max_basket, drop_over=True)
        return pa.table(
            {
                "u": pa.array(p_d[ii].astype(np.int64), pa.int64()),
                "v": pa.array(p_d[jj].astype(np.int64), pa.int64()),
            }
        )

    pairs = grouped_map(
        lineitem.select_columns(["l_orderkey", "l_partkey"]),
        ["l_orderkey"],
        pairs_block,
    )
    from ocr_ray.ops.dedup import _with_schema

    return _with_schema(
        pairs.groupby(["u", "v"]).aggregate(Count(alias_name="_n")),
        edge_schema,
    )


def triangle_counts(edges):
    """Per-node triangle participation counts over a canonical (u < v)
    distinct edge Dataset: wedges = edges ⋈ edges on (v = u') giving
    ordered candidates a < b < c, closed against the edge set with one
    two-key hash join, then each triangle credits its three corners via
    a flat explode + keyed count. All shuffles carry slim integer rows;
    the wedge volume is the algorithm's classic cost and is bounded
    upstream by the basket cap (degree-ordered orientation is the
    further refinement at extreme skew)."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join

    edges = edges.materialize()
    wedge = large_join(
        _renamed(edges, {"u": "a", "v": "b"}),
        _renamed(edges, {"u": "b2", "v": "c"}),
        on="b",
        right_on="b2",
    )
    wedge = _with_schema(
        wedge,
        pa.schema([("a", pa.int64()), ("b", pa.int64()), ("c", pa.int64())]),
    )
    tris = large_join(
        wedge,
        _renamed(edges, {"u": "a", "v": "c"}),
        on=("a", "c"),
    )

    def corners(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        cols = [
            t.column(c).cast(pa.int64()).combine_chunks() for c in ("a", "b", "c")
        ]
        return pa.table({"node": pa.concat_arrays(cols)})

    return _with_schema(
        tris.map_batches(corners, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count(alias_name="n_triangles")),
        pa.schema([("node", pa.int64()), ("n_triangles", pa.int64())]),
    )


def clustering_coefficients(edges):
    """Per-node local clustering coefficient over a canonical (u < v)
    distinct edge Dataset: lcc = 2·triangles / (deg·(deg−1)), the
    closed-wedge fraction. Degree is one keyed count over the
    symmetrized edges; triangle credits come from ``triangle_counts``;
    a LEFT OUTER join keeps zero-triangle nodes (lcc = 0, including
    degree-1 nodes via the GREATEST guard — the same single IEEE
    division the SQL oracle performs)."""
    import pyarrow.compute as pc

    from ocr_ray.ops.joins import large_join

    edges = edges.materialize()
    deg = _edge_degrees(edges)
    tris = triangle_counts(edges)
    joined = large_join(deg, tris, on="node", join_type="left_outer")

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [
                    ("node", pa.int64()),
                    ("deg", pa.int64()),
                    ("n_triangles", pa.int64()),
                    ("lcc", pa.float64()),
                ]
            ).empty_table()
        d = t.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
        tri = (
            pc.fill_null(t.column("n_triangles"), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        denom = np.maximum(d * (d - 1), 1).astype(np.float64)
        return pa.table(
            {
                "node": t.column("node").cast(pa.int64()),
                "deg": pa.array(d, pa.int64()),
                "n_triangles": pa.array(tri, pa.int64()),
                "lcc": pa.array((2 * tri).astype(np.float64) / denom, pa.float64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def _edge_degrees(edges):
    """(node, deg) over a canonical (u < v) distinct edge Dataset — one
    symmetrize map + one keyed count."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import _with_schema

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        u = t.column("u").cast(pa.int64()).combine_chunks()
        v = t.column("v").cast(pa.int64()).combine_chunks()
        return pa.table({"node": pa.concat_arrays([u, v])})

    return _with_schema(
        edges.map_batches(sym, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count(alias_name="deg")),
        pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
    )


def kcore(edges, k: int, max_iters: int = 24):
    """k-core decomposition by iterative peeling: repeatedly drop nodes
    with degree < k until the survivor set is stable, then return
    (node, deg) with degrees measured INSIDE the core subgraph.

    Scale shape: every round is one keyed count over symmetrized edges
    plus two hash semi-joins filtering the edge list on its endpoints —
    only slim (node)/(u, v) integer rows ever shuffle, documents/payloads
    never enter the loop, and each round's survivor edge set is
    object-store-materialized so lineage stays flat (same argument as
    ``connected_components``, ops/dedup.py). Driver-side state per round
    is two scalar counts. Raises on non-convergence within ``max_iters``
    instead of returning a silently-wrong superset (ADVICE r02 on the
    components loop); peeling removes ≥1 node per non-converged round,
    so rounds are bounded by the peel depth, not the node count."""
    import ray.data as rd

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join

    edge_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    out_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])
    edges = _with_schema(edges, edge_schema).materialize()

    def keep_mask(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t.column("deg"), k))

    for _ in range(max_iters):
        deg = _edge_degrees(edges).materialize()
        n_nodes = deg.count()
        keep = _with_schema(
            deg.map_batches(keep_mask, batch_format="pyarrow"), out_schema
        ).materialize()
        n_keep = keep.count()
        if n_keep == n_nodes:
            # stable: every remaining node already has deg >= k
            return deg
        if n_keep == 0:
            return rd.from_arrow(out_schema.empty_table())
        keep_nodes = keep.select_columns(["node"])
        filtered = large_join(
            edges, _renamed(keep_nodes, {"node": "u"}), on="u"
        )
        filtered = large_join(
            _with_schema(filtered, edge_schema),
            _renamed(keep_nodes, {"node": "v"}),
            on="v",
        )
        edges = _with_schema(filtered, edge_schema).materialize()
        if edges.count() == 0:
            return rd.from_arrow(out_schema.empty_table())
    raise RuntimeError(
        f"kcore did not converge within max_iters={max_iters}; "
        "raise max_iters (peel depth exceeds the bound)"
    )


def label_propagation(edges, iters: int = 4):
    """Synchronous label-propagation community detection over a
    canonical (u < v) distinct edge Dataset: labels start at the node
    id; each round every node adopts the most frequent label among its
    neighbors, ties to the SMALLEST label — fully deterministic, so a
    chained-CTE SQL oracle replays it exactly (the classic LPA
    randomness is replaced by the frozen min-label tie-break).

    Scale shape per round: one hash join of the symmetrized edges with
    the slim (node, label) table, a keyed count of (node, label)
    message partials, and one vectorized per-node argmax inside the
    node-partitioned block — everything that moves is integer pairs;
    rounds are object-store-materialized like the other iterative graph
    ops. Returns (node, label) after ``iters`` rounds."""
    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join
    from ocr_ray.stages.grouped import grouped_map

    lbl_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    # below this node count the label table broadcasts once per round
    # (ray.put + map-side searchsorted — the edges never shuffle); above
    # it the round falls back to the hash join
    broadcast_limit = 2_000_000

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("src", pa.int64()), ("dst", pa.int64())]
            ).empty_table()
        u = t.column("u").cast(pa.int64()).combine_chunks()
        v = t.column("v").cast(pa.int64()).combine_chunks()
        return pa.table(
            {"src": pa.concat_arrays([u, v]), "dst": pa.concat_arrays([v, u])}
        )

    sym_edges = _with_schema(
        edges.map_batches(sym, batch_format="pyarrow"),
        pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
    ).materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return lbl_schema.empty_table()
        n = t.column("node").cast(pa.int64())
        return pa.table({"node": n, "label": n})

    labels = _with_schema(
        _edge_degrees(edges)
        .select_columns(["node"])
        .map_batches(init_labels, batch_format="pyarrow"),
        lbl_schema,
    ).materialize()

    msg_schema = pa.schema(
        [("node", pa.int64()), ("label", pa.int64()), ("c", pa.int64())]
    )

    def msgs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return msg_schema.empty_table()
        return (
            pa.table(
                {
                    "node": t.column("dst").cast(pa.int64()),
                    "label": t.column("label").cast(pa.int64()),
                }
            )
            .group_by(["node", "label"])
            .aggregate([("label", "count")])
            .rename_columns(["node", "label", "c"])
        )

    def argmax_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return lbl_schema.empty_table()
        node = block.column("node").to_numpy(zero_copy_only=False)
        lab = block.column("label").to_numpy(zero_copy_only=False)
        c = block.column("c").to_numpy(zero_copy_only=False)
        order = np.lexsort((lab, -c, node))
        node_s = node[order]
        g_starts = np.flatnonzero(np.r_[True, node_s[1:] != node_s[:-1]])
        win = order[g_starts]
        return pa.table(
            {
                "node": pa.array(node[win], pa.int64()),
                "label": pa.array(lab[win], pa.int64()),
            }
        )

    n_nodes = labels.count()

    for _ in range(iters):
        if n_nodes <= broadcast_limit:
            # one ray.put per round; every edge batch resolves its src
            # labels with a vectorized searchsorted against the shared
            # object — no shuffle of the edge set at all. Collected
            # columnar (iter_batches + concat), never via per-row dicts.
            lbl_batches = [
                b
                for b in labels.iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
            lt = (
                pa.concat_tables(lbl_batches).combine_chunks()
                if lbl_batches
                else lbl_schema.empty_table()
            )
            nodes_arr = lt.column("node").to_numpy(zero_copy_only=False)
            order = np.argsort(nodes_arr)
            lbl_ref = ray.put(
                (
                    nodes_arr[order],
                    lt.column("label").to_numpy(zero_copy_only=False)[order],
                )
            )

            def attach(t: pa.Table, _ref=lbl_ref) -> pa.Table:
                if t.num_rows == 0 or t.num_columns == 0:
                    return pa.schema(
                        [("dst", pa.int64()), ("label", pa.int64())]
                    ).empty_table()
                nodes_s, labs_s = ray.get(_ref)
                src = t.column("src").to_numpy(zero_copy_only=False)
                idx = np.searchsorted(nodes_s, src)
                # verify every hit: labels cover all edge endpoints by
                # construction, so a miss means a broken caller contract
                # — fail loudly instead of attaching a neighbor's label
                if idx.size and (
                    int(idx.max()) >= len(nodes_s)
                    or not np.array_equal(nodes_s[idx], src)
                ):
                    raise ValueError(
                        "label_propagation: edge src absent from the "
                        "label table (non-canonical edge input?)"
                    )
                return pa.table(
                    {
                        "dst": t.column("dst").cast(pa.int64()),
                        "label": pa.array(labs_s[idx], pa.int64()),
                    }
                )

            joined = sym_edges.map_batches(attach, batch_format="pyarrow")
        else:
            joined = large_join(
                sym_edges, _renamed(labels, {"node": "src"}), on="src"
            )
        partials = _with_schema(
            joined.map_batches(msgs, batch_format="pyarrow"), msg_schema
        )
        counts = _with_schema(
            partials.groupby(["node", "label"]).aggregate(
                Sum("c", alias_name="c")
            ),
            msg_schema,
        )
        labels = _with_schema(
            grouped_map(counts, ["node"], argmax_block), lbl_schema
        ).materialize()

    return labels


def bfs_distances(edges, source: int | None = None, max_rounds: int = 8,
                  broadcast_limit: int = 2_000_000):
    """Multi-round BFS hop distances from one source over a canonical
    (u < v) distinct edge Dataset → (node, dist) for every node reached
    within ``max_rounds`` hops (unreached nodes emit no row; the source
    defaults to the globally smallest node id, so the result is fully
    deterministic and a chained-CTE SQL oracle replays it exactly).

    Scale shape (4th iterative graph family, same partitioning story as
    pagerank/kcore/LPA): per round only FRONTIER-derived slim (node,
    dist) rows move. Below ``broadcast_limit`` visited/frontier sets
    broadcast once per round via ray.put and membership is a vectorized
    searchsorted — the edge set never shuffles; above it each round is
    one hash join of edges with the frontier plus one left-outer
    anti-join against the visited table, everything materialized so
    lineage stays flat. Early exit on an empty frontier equals the
    fixed-round SQL replay (an empty frontier adds nothing)."""
    import ray

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join

    dist_schema = pa.schema([("node", pa.int64()), ("dist", pa.int64())])
    sym_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def sym(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return sym_schema.empty_table()
        u = t.column("u").cast(pa.int64()).combine_chunks()
        v = t.column("v").cast(pa.int64()).combine_chunks()
        return pa.table(
            {"src": pa.concat_arrays([u, v]), "dst": pa.concat_arrays([v, u])}
        )

    sym_edges = _with_schema(
        edges.map_batches(sym, batch_format="pyarrow"), sym_schema
    ).materialize()

    # regime gate on the EXACT node count (one aggregate of slim rows):
    # bounding by 2×edges would push dense graphs (many edges, few
    # nodes) into the join regime — at sf0.1 the co-purchase graph has
    # 1.2M edges but only 20k nodes, and the per-round broadcast path
    # is ~5× cheaper than two hash joins per round
    nodes_ds = _edge_degrees(edges).select_columns(["node"]).materialize()
    n_nodes = nodes_ds.count()
    if n_nodes == 0:
        import ray.data as rd

        return rd.from_arrow(dist_schema.empty_table())
    if source is None:
        source = nodes_ds.min("node")
    source = int(source)

    if n_nodes <= broadcast_limit:
        # ---- broadcast regime: visited/frontier live as sorted numpy,
        # bounded by broadcast_limit (same bound as label_propagation's
        # broadcast path); the edges are mapped, never shuffled
        visited = np.array([source], np.int64)
        dists = np.array([0], np.int64)
        frontier = visited
        for r in range(1, max_rounds + 1):
            ref = ray.put((np.sort(frontier), np.sort(visited)))

            def expand(t: pa.Table, _ref=ref) -> pa.Table:
                if t.num_rows == 0 or t.num_columns == 0:
                    return pa.schema([("node", pa.int64())]).empty_table()
                fr, vis = ray.get(_ref)
                src = t.column("src").to_numpy(zero_copy_only=False)
                dst = t.column("dst").to_numpy(zero_copy_only=False)
                i = np.searchsorted(fr, src)
                in_fr = (i < len(fr)) & (fr[np.minimum(i, len(fr) - 1)] == src)
                j = np.searchsorted(vis, dst)
                seen = (j < len(vis)) & (
                    vis[np.minimum(j, len(vis) - 1)] == dst
                )
                new = np.unique(dst[in_fr & ~seen])
                return pa.table({"node": pa.array(new, pa.int64())})

            parts = [
                b.column("node").to_numpy(zero_copy_only=False)
                for b in sym_edges.map_batches(
                    expand, batch_format="pyarrow"
                ).iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
            frontier = (
                np.unique(np.concatenate(parts))
                if parts
                else np.empty(0, np.int64)
            )
            if frontier.size == 0:
                break
            visited = np.concatenate([visited, frontier])
            dists = np.concatenate(
                [dists, np.full(frontier.size, r, np.int64)]
            )
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(visited, pa.int64()),
                    "dist": pa.array(dists, pa.int64()),
                }
            )
        ).sort("node")

    # ---- distributed regime: per-round frontier join + anti join of
    # slim integer rows; dist/frontier materialized per round
    import ray.data as rd

    dist = rd.from_arrow(
        pa.table(
            {
                "node": pa.array([source], pa.int64()),
                "dist": pa.array([0], pa.int64()),
            }
        )
    ).materialize()
    frontier = dist
    for r in range(1, max_rounds + 1):
        joined = large_join(
            sym_edges,
            _renamed(frontier.select_columns(["node"]), {"node": "src"}),
            on="src",
        )

        def cand(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or t.num_columns == 0:
                return pa.schema([("node", pa.int64())]).empty_table()
            return (
                pa.table({"node": t.column("dst").cast(pa.int64())})
                .group_by(["node"])
                .aggregate([])
            )

        cands = _with_schema(
            joined.map_batches(cand, batch_format="pyarrow"),
            pa.schema([("node", pa.int64())]),
        )
        from ray.data.aggregate import Count

        cands = _with_schema(
            cands.groupby("node")
            .aggregate(Count(alias_name="_n"))
            .select_columns(["node"]),
            pa.schema([("node", pa.int64())]),
        )
        probe = large_join(
            cands,
            _renamed(dist, {"dist": "dist_known"}),
            on="node",
            join_type="left_outer",
        )

        def fresh(t: pa.Table, _r=r) -> pa.Table:
            if t.num_rows == 0 or t.num_columns == 0:
                return dist_schema.empty_table()
            keep = t.filter(pc.is_null(t.column("dist_known")))
            return pa.table(
                {
                    "node": keep.column("node").cast(pa.int64()),
                    "dist": pa.array(
                        np.full(keep.num_rows, _r, np.int64), pa.int64()
                    ),
                }
            )

        frontier = _with_schema(
            probe.map_batches(fresh, batch_format="pyarrow"), dist_schema
        ).materialize()
        if frontier.count() == 0:
            break
        dist = dist.union(frontier).materialize()
    return dist.sort("node")


def association_rules(lineitem, *, min_support: int = 3,
                      max_basket: int = 256):
    """Directed market-basket rules A→B over order baskets (the pair
    case of Agrawal & Srikant 1994): support(A,B) = number of baskets
    containing both parts, confidence(A→B) = supp(AB)/supp(A), lift =
    N·supp(AB)/(supp(A)·supp(B)) over the N in-cap baskets.

    Scale shape: pair supports reuse the shared intra-basket triu
    machinery (one (l_orderkey)-partitioned grouped_map emitting slim
    (u, v) rows, baskets over ``max_basket`` dropped whole — the same
    skew guard as ``copurchase_edges``, mirrored in the SQL oracle's
    HAVING); item supports are a second pass over the SAME capped
    baskets (a sentinel part ``-1`` row per in-cap basket carries N
    through the one keyed count, so no extra aggregate). The rule set
    is bounded by the ``min_support`` filter BEFORE any join, so
    attaching item supports is two adaptive key joins with a small left
    side. Confidence/lift are the only floats, computed by one IEEE
    expression shared verbatim with the oracle."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import (
        _dedup_sorted_by_group,
        _intra_group_pair_indices,
        _renamed,
        _with_schema,
    )
    from ocr_ray.ops.joins import adaptive_key_join
    from ocr_ray.stages.grouped import grouped_map

    slim = lineitem.select_columns(["l_orderkey", "l_partkey"])
    pair_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    item_schema = pa.schema([("part", pa.int64())])

    def _dedup_block(block: pa.Table, starts: np.ndarray):
        n = block.num_rows
        parts = block.column("l_partkey").to_numpy(zero_copy_only=False)
        gidx = np.repeat(
            np.arange(len(starts)), np.diff(np.append(starts, n))
        )
        p_d, g_d, _ = _dedup_sorted_by_group(parts, gidx, parts)
        return p_d, g_d

    def pairs_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        if block.num_rows == 0 or len(starts) == 0:
            return pair_schema.empty_table()
        p_d, g_d = _dedup_block(block, starts)
        ii, jj, _ = _intra_group_pair_indices(g_d, max_basket, drop_over=True)
        return pa.table(
            {
                "u": pa.array(p_d[ii].astype(np.int64), pa.int64()),
                "v": pa.array(p_d[jj].astype(np.int64), pa.int64()),
            }
        )

    def items_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        if block.num_rows == 0 or len(starts) == 0:
            return item_schema.empty_table()
        p_d, g_d = _dedup_block(block, starts)
        sizes = np.bincount(g_d)
        keep = sizes[g_d] <= max_basket
        n_ok = int(np.count_nonzero((sizes > 0) & (sizes <= max_basket)))
        parts = np.concatenate(
            [p_d[keep].astype(np.int64), np.full(n_ok, -1, np.int64)]
        )
        return pa.table({"part": pa.array(parts, pa.int64())})

    pair_supp = _with_schema(
        grouped_map(slim, ["l_orderkey"], pairs_block)
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="supp_pair")),
        pa.schema(
            [("u", pa.int64()), ("v", pa.int64()), ("supp_pair", pa.int64())]
        ),
    )

    def minsup_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["supp_pair"], min_support))

    frequent = pair_supp.map_batches(minsup_filter, batch_format="pyarrow")

    item_supp = _with_schema(
        grouped_map(slim, ["l_orderkey"], items_block)
        .groupby("part")
        .aggregate(Count(alias_name="supp")),
        pa.schema([("part", pa.int64()), ("supp", pa.int64())]),
    ).materialize()

    def sentinel_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["part"], -1))

    n_rows = item_supp.map_batches(
        sentinel_only, batch_format="pyarrow"
    ).take_all()
    n_baskets = float(n_rows[0]["supp"]) if n_rows else 0.0

    with_a = adaptive_key_join(
        frequent,
        _renamed(item_supp, {"supp": "supp_u"}),
        on="u",
        right_on="part",
    )
    with_both = adaptive_key_join(
        with_a,
        _renamed(item_supp, {"supp": "supp_v"}),
        on="v",
        right_on="part",
    )

    out_schema = pa.schema(
        [
            ("antecedent", pa.int64()),
            ("consequent", pa.int64()),
            ("supp_pair", pa.int64()),
            ("supp_antecedent", pa.int64()),
            ("confidence", pa.float64()),
            ("lift", pa.float64()),
        ]
    )

    def rules_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        ab = t.column("supp_pair").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        su = t.column("supp_u").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        sv = t.column("supp_v").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        # one shared IEEE tree with the oracle:
        #   confidence = CAST(ab AS DOUBLE) / CAST(s_ante AS DOUBLE)
        #   lift = (CAST(ab AS DOUBLE) * N) / (CAST(s_a AS DOUBLE) * CAST(s_c AS DOUBLE))
        lift = (ab * n_baskets) / (su * sv)
        return pa.table(
            {
                "antecedent": pa.array(np.concatenate([u, v]), pa.int64()),
                "consequent": pa.array(np.concatenate([v, u]), pa.int64()),
                "supp_pair": pa.array(
                    np.concatenate([ab, ab]).astype(np.int64), pa.int64()
                ),
                "supp_antecedent": pa.array(
                    np.concatenate([su, sv]).astype(np.int64), pa.int64()
                ),
                "confidence": pa.array(
                    np.concatenate([ab / su, ab / sv]), pa.float64()
                ),
                "lift": pa.array(np.concatenate([lift, lift]), pa.float64()),
            }
        )

    return _with_schema(
        with_both.map_batches(rules_block, batch_format="pyarrow"), out_schema
    )
