"""Similarity search over an embedding column (list<float>).

- ``ann_brute_topk``: exact cosine top-k — the baseline. Queries are
  broadcast once (``ray.put``); each batch does one float64 matmul
  against the query matrix and emits a per-batch partial top-k, so the
  final exact merge sees ``n_batches × k`` rows per query, not the
  corpus.
- ``ann_ivf_topk``: the scale path — deterministic mini-KMeans centroids
  from a driver-side sample, broadcast; an assign stage labels vectors;
  queries probe only the ``nprobe`` nearest clusters. Approximate;
  recall is pinned by tests against the brute-force baseline.
- ``embedding_cosine_dedup``: near-dup pairs by cosine ≥ threshold via
  random-hyperplane (SimHash-for-vectors) bucketing.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _batch_matrix(batch: pa.Table, column: str = "embedding") -> np.ndarray:
    col = batch.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(col), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


class _BruteTopK:
    """Per-batch partial top-k against a broadcast query matrix."""

    def __init__(self, queries_ref, k: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q_norm = _normalize(np.asarray(q, dtype=np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        sims = m @ self.q_norm.T  # (batch, n_queries)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        k = min(self.k, sims.shape[0])
        q_out, v_out, s_out = [], [], []
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            top = np.argpartition(-col, k - 1)[:k] if k < len(col) else np.arange(len(col))
            for i in top:
                q_out.append(qi)
                v_out.append(int(vec_ids[i]))
                s_out.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(q_out, pa.int64()),
                "vec_id": pa.array(v_out, pa.int64()),
                "sim": pa.array(s_out, pa.float64()),
            }
        )


def _final_topk_factory(k: int):
    def final_topk(group: pa.Table) -> pa.Table:
        sims = group.column("sim").to_numpy(zero_copy_only=False)
        vec_ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        # deterministic: sort by (-sim, vec_id)
        order = np.lexsort((vec_ids, -sims))[:k]
        qid = group.column("query_id")[0].as_py()
        return pa.table(
            {
                "query_id": pa.array([qid] * len(order), pa.int64()),
                "vec_id": pa.array(vec_ids[order], pa.int64()),
                "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
                "sim": pa.array(np.round(sims[order], 6), pa.float64()),
            }
        )

    return final_topk


def ann_brute_topk(embeddings, queries: np.ndarray, k: int = 10):
    """Exact cosine top-k for each query row; output
    (query_id, vec_id, rank, sim) with rank 1 = most similar, ties by
    vec_id."""
    import ray

    queries_ref = ray.put(np.asarray(queries, dtype=np.float64))
    partials = embeddings.map_batches(
        _BruteTopK,
        fn_constructor_kwargs={"queries_ref": queries_ref, "k": k},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    return partials.groupby("query_id").map_groups(
        _final_topk_factory(k), batch_format="pyarrow"
    )


# ------------------------------------------------------------------ IVF


def train_centroids(sample: np.ndarray, n_clusters: int, iters: int = 8) -> np.ndarray:
    """Deterministic Lloyd KMeans on a sample: init = first distinct rows
    in vec_id order, fixed iteration count, no RNG."""
    sample = np.asarray(sample, dtype=np.float64)
    centroids = sample[:n_clusters].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


class _IvfAssign:
    def __init__(self, centroids_ref):
        import ray

        self.centroids = ray.get(centroids_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        d = ((m[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return batch.append_column("cluster", pa.array(d.argmin(axis=1), pa.int32()))


def stratified_sample(embeddings, sample_size: int) -> pa.Table:
    """Deterministic hash-stratified sample of ~``sample_size`` rows,
    drawn from EVERY block: keep rows where a multiplicative hash of
    vec_id falls under the acceptance threshold. Unbiased w.r.t. file
    order — a head sample (``limit(n)``) reads only the first fragments
    and produces badly skewed centroids when the table is time- or
    cluster-ordered (the normal case for real corpora)."""
    n_total = max(1, embeddings.count())
    # Knuth multiplicative hash → uniform in [0, 2^32); accept the
    # smallest fraction that still yields ~sample_size rows
    frac = min(1.0, (2.0 * sample_size) / n_total)
    cutoff = int(frac * (1 << 32))

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        mask = h < np.uint64(cutoff)
        return t.filter(pa.array(mask)).append_column(
            "_h", pa.array(h[mask].astype(np.int64), pa.int64())
        )

    sampled = embeddings.map_batches(keep, batch_format="pyarrow")
    rows = sampled.limit(4 * sample_size).take_all()
    if not rows:
        raise ValueError(
            "stratified_sample: no rows sampled — the embeddings table "
            "is empty (a schema-less table here would otherwise surface "
            "as a confusing KeyError in _batch_matrix/sort_by)"
        )
    es = embeddings.schema(fetch_if_missing=True)
    schema = pa.schema(
        list(zip(es.names, es.types)) + [("_h", pa.int64())]
    )
    tbl = pa.Table.from_pylist(rows, schema=schema)
    # trim to sample_size by HASH order (uniform, deterministic) — an id
    # sort here would re-introduce exactly the head bias being avoided
    return tbl.sort_by([("_h", "ascending"), ("vec_id", "ascending")]).slice(
        0, sample_size
    ).drop_columns(["_h"])


def ann_ivf_topk(embeddings, queries: np.ndarray, k: int = 10,
                 n_clusters: int = 16, nprobe: int = 4, sample_size: int = 2048):
    """IVF-style ANN: probe only the nprobe nearest clusters per query.

    The centroid sample is a bounded driver-side materialization of a
    hash-STRATIFIED sample (every block contributes, deterministic) —
    at 100 TB this is the one deliberate small-materialization in the
    family; everything else streams.
    """
    import ray
    import pyarrow.compute as pc

    sample = _batch_matrix(stratified_sample(embeddings, sample_size))
    centroids = train_centroids(sample, n_clusters)
    centroids_ref = ray.put(centroids)

    q = np.asarray(queries, dtype=np.float64)
    qd = ((q[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    probe_clusters = np.unique(np.argsort(qd, axis=1)[:, :nprobe])

    assigned = embeddings.map_batches(
        _IvfAssign,
        fn_constructor_kwargs={"centroids_ref": centroids_ref},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    probed = assigned.map_batches(
        lambda t: t.filter(
            pc.is_in(t["cluster"], value_set=pa.array(probe_clusters, pa.int32()))
        ),
        batch_format="pyarrow",
    )
    return ann_brute_topk(probed, q, k)


# ------------------------------------------- cosine near-dup bucketing


class _HyperplaneSig:
    """Multi-table random-hyperplane LSH: ``n_tables`` independent
    ``bits``-bit sign signatures per vector. Emits SLIM rows
    (table_id, bucket, vec_id) only — ~20 B per table row through the
    bucket shuffle; the vector itself is joined back onto the (small)
    candidate pair set for exact verification. Recall for cosine c is
    1 − (1 − p^bits)^n_tables with p = 1 − arccos(c)/π — tables are the
    recall knob, bits the precision knob."""

    def __init__(self, dim: int, bits: int = 16, seed: int = 42,
                 n_tables: int = 4):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((n_tables, dim, bits))
        self.n_tables = n_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch))
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        t_out, b_out, id_out = [], [], []
        for t_id in range(self.n_tables):
            bits = (m @ self.planes[t_id]) > 0
            sig = np.zeros(len(m), dtype=np.int64)
            for i in range(bits.shape[1]):
                sig |= bits[:, i].astype(np.int64) << i
            t_out.append(np.full(len(m), t_id, dtype=np.int32))
            b_out.append(sig)
            id_out.append(ids)
        return pa.table(
            {
                "table_id": pa.array(np.concatenate(t_out), pa.int32()),
                "bucket": pa.array(np.concatenate(b_out), pa.int64()),
                "vec_id": pa.array(np.concatenate(id_out), pa.int64()),
            }
        )


def _bucket_pair_block(block: pa.Table, starts: np.ndarray,
                       max_bucket: int = 2048) -> pa.Table:
    """Distinct candidate (vec_a < vec_b) pairs per bucket; overflow
    docs beyond max_bucket pair with the bucket minimum (representative)
    instead of being silently dropped."""
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    ends = np.append(starts[1:], block.num_rows)
    multi = ends - starts >= 2
    if multi.any():
        ids_col = block.column("vec_id")
        for s, e in zip(starts[multi], ends[multi]):
            ids = np.unique(ids_col.slice(s, e - s).to_numpy(zero_copy_only=False))
            if len(ids) < 2:
                continue
            head = ids[:max_bucket]
            ii, jj = np.triu_indices(len(head), k=1)
            a_out.append(head[ii])
            b_out.append(head[jj])
            tail = ids[max_bucket:]
            if len(tail):
                import logging

                logging.getLogger("ocr_ray.similarity").warning(
                    "hyperplane bucket of %d vecs exceeds max_bucket=%d; "
                    "%d overflow vecs rep-paired only",
                    len(ids), max_bucket, len(tail),
                )
                a_out.append(np.full(len(tail), ids[0], dtype=ids.dtype))
                b_out.append(tail)
    a = np.concatenate(a_out) if a_out else np.empty(0, dtype=np.int64)
    b = np.concatenate(b_out) if b_out else np.empty(0, dtype=np.int64)
    return pa.table(
        {"vec_a": pa.array(a, pa.int64()), "vec_b": pa.array(b, pa.int64())}
    )


def embedding_cosine_dedup(embeddings, threshold: float = 0.95, bits: int = 16,
                           n_tables: int = 4):
    """Near-duplicate vector pairs (cosine ≥ threshold): multi-table
    random-hyperplane candidate generation (slim bucket rows), exact
    cosine verification on the candidate set with the vectors joined
    back. Output (vec_a, vec_b, cosine ROUND 6). Recall is probabilistic
    in (bits, n_tables); exact given a candidate."""
    from ocr_ray.ops.joins import attach_pair_payloads
    from ocr_ray.stages.grouped import grouped_map

    dim = len(embeddings.take(1)[0]["embedding"])
    # task-based: the plane tensor (n_tables×dim×bits float64, ~32 KB)
    # ships in the closure; no actor-pool spin-up for a stateless stage
    sigs = embeddings.map_batches(
        _HyperplaneSig(dim=dim, bits=bits, n_tables=n_tables),
        batch_format="pyarrow",
    )
    cand = grouped_map(sigs, ["table_id", "bucket"], _bucket_pair_block)

    def packed(t: pa.Table) -> pa.Table:
        # pyarrow's hash joins reject list-typed non-key fields — ship
        # the vector as fixed-width float64 bytes instead
        m = _batch_matrix(t)
        return pa.table(
            {
                "vec_id": t.column("vec_id").cast(pa.int64()),
                "emb": pa.array([row.tobytes() for row in m], pa.binary()),
            }
        )

    emb = embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        packed, batch_format="pyarrow"
    )
    ab = attach_pair_payloads(
        cand, emb, key_a="vec_a", key_b="vec_b", side_key="vec_id",
        payloads={"emb": ("emb_a", "emb_b")}, dedupe=True,
    )

    def unpack(col: pa.ChunkedArray) -> np.ndarray:
        return np.stack(
            [np.frombuffer(x, dtype=np.float64) for x in col.to_pylist()]
        )

    def verify(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_a": pa.array([], pa.int64()),
                "vec_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        ma = _normalize(unpack(t.column("emb_a")))
        mb = _normalize(unpack(t.column("emb_b")))
        sims = (ma * mb).sum(axis=1)
        keep = sims >= threshold
        return pa.table(
            {
                "vec_a": t.column("vec_a").filter(pa.array(keep)),
                "vec_b": t.column("vec_b").filter(pa.array(keep)),
                "cosine": pa.array(
                    [round(float(x), 6) for x in sims[keep]], pa.float64()
                ),
            }
        )

    return ab.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------------ integer-exact k-means

_KM_SCALE = 1000
_KM_OFFSET = 32768  # shifts every quantized coordinate positive, so the
# centroid floor division SUM // COUNT never sees a negative numerator —
# floor and truncating integer division agree on non-negatives, making
# the engine (numpy //) and any SQL integer division bit-identical
# without pinning either's negative-operand convention


def _quantize_block(batch: pa.Table) -> pa.Table:
    """(vec_id, embedding) → (vec_id, q: list<int64>) with
    q = floor(float64(x) * SCALE) + OFFSET — the same two IEEE
    elementary ops the oracle replays, so quantization is bit-exact."""
    m = _batch_matrix(batch)
    q = np.floor(m * _KM_SCALE).astype(np.int64) + _KM_OFFSET
    ids = batch.column("vec_id").cast(pa.int64())
    return pa.table(
        {
            "vec_id": ids,
            "q": pa.FixedSizeListArray.from_arrays(
                pa.array(q.ravel(), pa.int64()), q.shape[1]
            ),
        }
    )


def _km_assign(q: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """argmin_c Σ_dim (q − c)², ties to the smallest cluster id (argmin
    returns the first minimum). Integer algebra throughout; the expanded
    form (‖q‖² − 2q·c + ‖c‖²) drops the q-constant term."""
    cross = q @ centroids.T  # int64 (n, k)
    c_norm = np.einsum("kd,kd->k", centroids, centroids)
    return np.argmin(c_norm[None, :] - 2 * cross, axis=1)


def kmeans_integer(embeddings, k: int = 8, iters: int = 5):
    """Distributed Lloyd k-means in pure int64 — bit-identical to a
    chained-CTE SQL replay (integer sums are exact in any order):
    coordinates quantize once, centroids start at the k
    smallest vec_ids' vectors, and each iteration (a) assigns every
    vector to its nearest centroid map-side against a ray.put-broadcast
    (k × dim) matrix, (b) emits per-batch per-cluster partial sums as
    slim (cluster, dim, s, n) rows — k × dim rows per BATCH regardless
    of batch size — and (c) one tiny keyed aggregate + a k × dim driver
    collect rebuilds centroids as SUM // COUNT (empty clusters keep
    their previous centroid). Vectors never shuffle; per-iteration
    traffic is the partial-sum rows only. Returns (vec_id, cluster)
    from the final assignment."""
    from ocr_ray.ops.dedup import _with_schema

    qds = _with_schema(
        embeddings.map_batches(_quantize_block, batch_format="pyarrow"),
        pa.schema(
            [("vec_id", pa.int64()), ("q", pa.list_(pa.int64()))]
        ),
    ).materialize()
    centroids = _fit_centroids(qds, k=k, iters=iters)
    return _assign_clusters(qds, centroids)


def _fit_centroids(qds, k: int, iters: int) -> np.ndarray:
    """The Lloyd iteration loop of :func:`kmeans_integer` on an already
    quantized+materialized (vec_id, q) dataset; returns the final
    (k × dim) int64 centroid matrix. Split out so SemDeDup can assign
    clusters in the same map pass that carries the raw vectors (zero
    joins) instead of re-running the whole k-means entry point."""
    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema

    seed_rows = qds.sort("vec_id").limit(k).take_all()  # k rows, bounded
    if len(seed_rows) < k:
        raise ValueError(f"k={k} exceeds the {len(seed_rows)}-vector input")
    centroids = np.array([r["q"] for r in seed_rows], np.int64)
    dim = centroids.shape[1]

    # Small-input fast path: below ~32 MB of quantized coordinates,
    # fetch the matrix once and run the Lloyd loop locally — int64 sums
    # are order-free, so this is BIT-IDENTICAL to the distributed
    # partial-sum path while skipping iters× (map pass + hash-aggregate
    # spin-up), which dominated wall time on benchmark-sized inputs
    # (32 s → ~2 s for 2k vectors × 5 iterations). Large corpora take
    # the distributed path below.
    if qds.count() * dim <= 4_000_000:
        rows = qds.take_all()  # bounded by the guard above
        rows.sort(key=lambda r: r["vec_id"])
        qm = np.array([r["q"] for r in rows], np.int64)
        for _ in range(iters):
            assign = _km_assign(qm, centroids)
            sums = np.zeros((k, dim), np.int64)
            np.add.at(sums, assign, qm)
            counts = np.bincount(assign, minlength=k).astype(np.int64)
            nz = counts > 0
            new = centroids.copy()
            new[nz] = sums[nz] // counts[nz, None]
            centroids = new
        return centroids

    partial_schema = pa.schema(
        [
            ("cluster", pa.int64()),
            ("dim", pa.int64()),
            ("s", pa.int64()),
            ("n", pa.int64()),
        ]
    )

    for _ in range(iters):
        cref = ray.put(centroids)

        def partials(t: pa.Table, _cref=cref) -> pa.Table:
            if t.num_rows == 0:
                return partial_schema.empty_table()
            cents = ray.get(_cref)
            qm = np.asarray(
                t.column("q").combine_chunks().flatten().to_numpy(
                    zero_copy_only=False
                ),
                np.int64,
            ).reshape(t.num_rows, dim)
            assign = _km_assign(qm, cents)
            ks = cents.shape[0]
            sums = np.zeros((ks, dim), np.int64)
            np.add.at(sums, assign, qm)
            counts = np.bincount(assign, minlength=ks).astype(np.int64)
            cl = np.repeat(np.arange(ks, dtype=np.int64), dim)
            return pa.table(
                {
                    "cluster": pa.array(cl, pa.int64()),
                    "dim": pa.array(np.tile(np.arange(dim), ks), pa.int64()),
                    "s": pa.array(sums.ravel(), pa.int64()),
                    "n": pa.array(np.repeat(counts, dim), pa.int64()),
                }
            )

        agg = (
            _with_schema(
                qds.map_batches(partials, batch_format="pyarrow"),
                partial_schema,
            )
            .groupby(["cluster", "dim"])
            .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        ).take_all()  # bounded: k × dim rows
        new = centroids.copy()
        for r in agg:
            if r["n"] > 0:
                new[r["cluster"], r["dim"]] = r["s"] // r["n"]
        centroids = new

    return centroids


def _assign_clusters(qds, centroids: np.ndarray):
    """(vec_id, cluster) from one map-side pass against the broadcast
    centroid matrix."""
    import ray

    dim = centroids.shape[1]
    cref = ray.put(centroids)

    def final_assign(t: pa.Table, _cref=cref) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [("vec_id", pa.int64()), ("cluster", pa.int64())]
            ).empty_table()
        cents = ray.get(_cref)
        qm = np.asarray(
            t.column("q").combine_chunks().flatten().to_numpy(
                zero_copy_only=False
            ),
            np.int64,
        ).reshape(t.num_rows, dim)
        return pa.table(
            {
                "vec_id": t.column("vec_id").cast(pa.int64()),
                "cluster": pa.array(
                    _km_assign(qm, cents).astype(np.int64), pa.int64()
                ),
            }
        )

    return qds.map_batches(final_assign, batch_format="pyarrow")


def _kmeans_ctes(k: int, iters: int, source: str) -> list:
    """The shared CTE chain of the k-means SQL replays: quantize with
    the same FLOOR(x·SCALE)+OFFSET, seed from the k smallest vec_ids,
    then ``iters`` chained assign/update CTE pairs (MATERIALIZED — each
    references its predecessor repeatedly). Distances compare via the
    same ‖c‖² − 2q·c expansion the engine uses (the ‖q‖² term is
    constant per vec_id and cannot change the argmin); ties break to
    the smallest cluster id."""
    ctes = [
        "qv AS MATERIALIZED (SELECT vec_id,"
        " generate_subscripts(embedding, 1) AS i,"
        f" CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * {_KM_SCALE})"
        f" AS BIGINT) + {_KM_OFFSET} AS v"
        f" FROM {source})",
        "seed AS (SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1"
        " AS cluster FROM (SELECT DISTINCT vec_id FROM qv"
        f" ORDER BY vec_id LIMIT {k}))",
        "c0 AS MATERIALIZED (SELECT s.cluster, q.i, q.v FROM qv q"
        " JOIN seed s USING (vec_id))",
    ]
    for t in range(1, iters + 1):
        p = t - 1
        ctes.append(
            f"a{t} AS MATERIALIZED (SELECT vec_id, cluster FROM ("
            " SELECT vec_id, cluster, ROW_NUMBER() OVER ("
            "  PARTITION BY vec_id ORDER BY d, cluster) AS rn FROM ("
            "  SELECT q.vec_id, c.cluster,"
            "   SUM(c.v * c.v - 2 * q.v * c.v) AS d"
            f"  FROM qv q JOIN c{p} c USING (i)"
            "  GROUP BY q.vec_id, c.cluster)"
            ") WHERE rn = 1)"
        )
        ctes.append(
            f"c{t} AS MATERIALIZED (SELECT prev.cluster, prev.i,"
            " COALESCE(upd.v, prev.v) AS v"
            f" FROM c{p} prev LEFT JOIN ("
            "  SELECT a.cluster, q.i, SUM(q.v) // COUNT(*) AS v"
            f"  FROM qv q JOIN a{t} a USING (vec_id)"
            "  GROUP BY a.cluster, q.i) upd"
            " ON upd.cluster = prev.cluster AND upd.i = prev.i)"
        )
    return ctes


def kmeans_integer_sql(k: int = 8, iters: int = 5,
                       source: str = "embeddings") -> str:
    """DuckDB replay of :func:`kmeans_integer` (see ``_kmeans_ctes``),
    ending with one more assignment against the final centroids."""
    ctes = _kmeans_ctes(k, iters, source)
    return (
        "WITH " + ",\n".join(ctes) + "\n"
        "SELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM ("
        " SELECT vec_id, cluster, ROW_NUMBER() OVER ("
        "  PARTITION BY vec_id ORDER BY d, cluster) AS rn FROM ("
        "  SELECT q.vec_id, c.cluster,"
        "   SUM(c.v * c.v - 2 * q.v * c.v) AS d"
        f"  FROM qv q JOIN c{iters} c USING (i)"
        "  GROUP BY q.vec_id, c.cluster)"
        ") WHERE rn = 1"
    )


def kmeans_inertia_sql(k: int = 8, iters: int = 5,
                       source: str = "embeddings") -> str:
    """DuckDB replay of :func:`kmeans_inertia`: the shared CTE chain,
    the final assignment KEEPING its partial distance d = Σ(c²−2qc),
    then inertia = Σ(d + ‖q‖²) per cluster — the dropped ‖q‖² argmin
    constant is added back so the sum is the true squared distance."""
    ctes = _kmeans_ctes(k, iters, source)
    ctes.append(
        "qq AS MATERIALIZED (SELECT vec_id, SUM(v * v) AS qq"
        " FROM qv GROUP BY vec_id)"
    )
    ctes.append(
        "fa AS MATERIALIZED (SELECT vec_id, cluster, d FROM ("
        " SELECT vec_id, cluster, d, ROW_NUMBER() OVER ("
        "  PARTITION BY vec_id ORDER BY d, cluster) AS rn FROM ("
        "  SELECT q.vec_id, c.cluster,"
        "   SUM(c.v * c.v - 2 * q.v * c.v) AS d"
        f"  FROM qv q JOIN c{iters} c USING (i)"
        "  GROUP BY q.vec_id, c.cluster)"
        ") WHERE rn = 1)"
    )
    return (
        "WITH " + ",\n".join(ctes) + "\n"
        "SELECT CAST(cluster AS BIGINT) AS cluster,"
        " CAST(COUNT(*) AS BIGINT) AS n_vectors,"
        " CAST(SUM(fa.d + qq.qq) AS BIGINT) AS inertia\n"
        "FROM fa JOIN qq USING (vec_id)"
        " GROUP BY cluster ORDER BY cluster"
    )


def kmeans_inertia(embeddings, k: int = 8, iters: int = 5):
    """(cluster, n_vectors, inertia): per-cluster size and the EXACT
    int64 Σ‖q − c‖² of the final Lloyd assignment — the clustering-
    quality rollup (elbow-method input). Same scale shape as
    kmeans_integer: vectors never shuffle; each batch emits one
    (cluster, n, inertia) partial row set and a tiny keyed sum
    finishes. Bit-identical to the chained-CTE SQL replay
    (``kmeans_inertia_sql``)."""
    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema

    out_schema = pa.schema(
        [
            ("cluster", pa.int64()),
            ("n_vectors", pa.int64()),
            ("inertia", pa.int64()),
        ]
    )

    qds = _with_schema(
        embeddings.map_batches(_quantize_block, batch_format="pyarrow"),
        pa.schema([("vec_id", pa.int64()), ("q", pa.list_(pa.int64()))]),
    ).materialize()
    centroids = _fit_centroids(qds, k=k, iters=iters)
    dim = centroids.shape[1]
    cref = ray.put(centroids)

    def partials(t: pa.Table, _cref=cref) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        cents = ray.get(_cref)
        qm = np.asarray(
            t.column("q").combine_chunks().flatten().to_numpy(
                zero_copy_only=False
            ),
            np.int64,
        ).reshape(t.num_rows, dim)
        assign = _km_assign(qm, cents)
        diff = qm - cents[assign]
        dist = np.einsum("nd,nd->n", diff, diff)
        part = pa.table(
            {
                "cluster": pa.array(assign.astype(np.int64), pa.int64()),
                "inertia": pa.array(dist, pa.int64()),
            }
        )
        g = (
            part.group_by("cluster")
            .aggregate([("inertia", "sum"), ("inertia", "count")])
            .rename_columns(["cluster", "inertia", "n_vectors"])
        )
        return g.select(["cluster", "n_vectors", "inertia"])

    return _with_schema(
        qds.map_batches(partials, batch_format="pyarrow")
        .groupby("cluster")
        .aggregate(
            Sum("n_vectors", alias_name="n_vectors"),
            Sum("inertia", alias_name="inertia"),
        ),
        out_schema,
    ).sort("cluster")


def _semdedup_block_factory(threshold: float, max_cluster: int,
                            chunk: int = 1024):
    """Per-block SemDeDup pair scan: for each cluster run (the block is
    grouped by cluster), exact pairwise cosine over the cluster's
    vectors, emitting every vec_id that has a SMALLER-id neighbor with
    cosine ≥ threshold. Row chunking bounds the similarity matrix at
    chunk × max_cluster float64."""

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
            }
        )
        if block.num_rows == 0:
            return empty
        ids_all = block.column("vec_id").to_numpy(zero_copy_only=False)
        cl_all = block.column("cluster").to_numpy(zero_copy_only=False)
        emb_col = block.column("emb").combine_chunks()
        ends = np.append(starts[1:], block.num_rows)
        out_ids: list[np.ndarray] = []
        out_cl: list[np.ndarray] = []
        for s, e in zip(starts, ends):
            n = int(e - s)
            if n < 2:
                continue
            ids = ids_all[s:e]
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            if n > max_cluster:
                import logging

                logging.getLogger("ocr_ray.similarity").warning(
                    "semdedup cluster of %d vecs exceeds max_cluster=%d; "
                    "overflow vecs compared against the first %d ids only "
                    "(overflow-overflow pairs skipped)",
                    n, max_cluster, max_cluster,
                )
            vals = emb_col.slice(s, n).to_pylist()
            m = np.stack(
                [np.frombuffer(vals[int(o)], np.float64) for o in order]
            )
            mn = _normalize(m)
            head = min(n, max_cluster)
            dropped = np.zeros(n, dtype=bool)
            # chunked upper-triangle scan: row i vs columns i+1..head-1
            # (plus every overflow column, which only ever compares
            # against the head — the same bounded-degradation policy as
            # the LSH buckets)
            cols = np.arange(n)[None, :]
            for c0 in range(0, head, chunk):
                c1 = min(c0 + chunk, head)
                sims = mn[c0:c1] @ mn.T  # (c1-c0, n)
                rows = np.arange(c0, c1)[:, None]
                hit = (sims >= threshold) & (cols > rows)
                dropped |= hit.any(axis=0)
            if dropped.any():
                out_ids.append(ids[dropped])
                out_cl.append(np.full(int(dropped.sum()), cl_all[s],
                                      dtype=np.int64))
        if not out_ids:
            return empty
        return pa.table(
            {
                "vec_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "cluster": pa.array(np.concatenate(out_cl), pa.int64()),
            }
        )

    return block_fn


def _assigned_vectors(embeddings, k: int = 8, iters: int = 5):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication by exact pairwise cosine WITHIN k-means clusters —
    the cluster partition bounds the quadratic pair space, which is the
    whole point of the method at corpus scale. Keep rule: a vector is
    dropped iff some SMALLER vec_id in its cluster has cosine ≥
    threshold with it (the deterministic keeper-min rule shared with
    exact dedup). Returns (vec_id, cluster) drop rows, globally unique
    by construction (each vector lives in exactly one cluster, and
    clusters never straddle grouped blocks — no distinct pass needed).

    Scale shape: the integer-exact k-means fit shuffles only slim
    partial-sum rows (see kmeans_integer); assignment AND the raw
    vector travel together out of one map pass (zero joins); the only
    wide op is the single hash partition on cluster. At 100 TB, k grows
    with the corpus (SemDeDup used 50k clusters for LAION) so cluster
    sizes stay ~bounded; clusters past ``max_cluster`` degrade to
    head-only comparison with a logged warning, never a silent drop
    (the SQL oracle compares ALL same-cluster pairs, so it only matches
    while no cluster exceeds ``max_cluster`` — true by orders of
    magnitude at correctness scale)."""
    from ocr_ray.ops.dedup import _with_schema

    def quantize_and_pack(t: pa.Table) -> pa.Table:
        """One scan: quantized coordinates for the centroid fit AND the
        raw float64 vector packed to fixed-width binary for the cluster
        shuffle — the input pipeline executes exactly once."""
        m = _batch_matrix(t)
        q = np.floor(m * _KM_SCALE).astype(np.int64) + _KM_OFFSET
        return pa.table(
            {
                "vec_id": t.column("vec_id").cast(pa.int64()),
                "q": pa.FixedSizeListArray.from_arrays(
                    pa.array(q.ravel(), pa.int64()), q.shape[1]
                ),
                "emb": pa.array([row.tobytes() for row in m], pa.binary()),
            }
        )

    qds = _with_schema(
        embeddings.select_columns(["vec_id", "embedding"]).map_batches(
            quantize_and_pack, batch_format="pyarrow"
        ),
        pa.schema(
            [
                ("vec_id", pa.int64()),
                ("q", pa.list_(pa.int64())),
                ("emb", pa.binary()),
            ]
        ),
    ).materialize()
    centroids = _fit_centroids(qds, k=k, iters=iters)

    import ray

    dim = centroids.shape[1]
    cref = ray.put(centroids)

    def assign(t: pa.Table, _cref=cref) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [
                    ("vec_id", pa.int64()),
                    ("cluster", pa.int64()),
                    ("emb", pa.binary()),
                ]
            ).empty_table()
        cents = ray.get(_cref)
        qm = np.asarray(
            t.column("q").combine_chunks().flatten().to_numpy(
                zero_copy_only=False
            ),
            np.int64,
        ).reshape(t.num_rows, dim)
        return pa.table(
            {
                "vec_id": t.column("vec_id"),
                "cluster": pa.array(
                    _km_assign(qm, cents).astype(np.int64), pa.int64()
                ),
                "emb": t.column("emb"),
            }
        )

    return qds.map_batches(assign, batch_format="pyarrow")


def semdedup_drop_list(embeddings, k: int = 8, iters: int = 5,
                       threshold: float = 0.9, max_cluster: int = 4096):
    """See :func:`_assigned_vectors` (shared fit + assignment) and the
    original SemDeDup docstring there; this is the drop-list tail."""
    from ocr_ray.stages.grouped import grouped_map

    tagged = _assigned_vectors(embeddings, k=k, iters=iters)
    return grouped_map(
        tagged, ["cluster"],
        _semdedup_block_factory(threshold, max_cluster),
    )


def semdedup_sql(k: int = 8, iters: int = 5, threshold: float = 0.9,
                 augmented: bool = False) -> str:
    """DuckDB replay of :func:`semdedup_drop_list`: the full k-means
    CTE chain for the cluster assignment, then same-cluster pairs with
    ``list_cosine_similarity`` ≥ threshold, dropping the larger
    vec_id of each qualifying pair. ``augmented`` replays the
    floor-perturbed near-copy augmentation (vec_id + 1,000,000) the
    driver query uses to make the pair set non-trivial on the
    near-random synthetic embeddings."""
    source = "embeddings"
    prefix = "WITH "
    if augmented:
        source = "aug"
        prefix = (
            "WITH aug AS MATERIALIZED (\n"
            " SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding"
            " FROM embeddings\n"
            " UNION ALL\n"
            " SELECT vec_id + 1000000,"
            " list_transform(CAST(embedding AS DOUBLE[]),"
            " x -> FLOOR(x * 1000.0) / 1000.0) FROM embeddings\n"
            "), "
        )
    return (
        prefix + "assign AS MATERIALIZED (\n"
        + kmeans_integer_sql(k=k, iters=iters, source=source)
        + "\n), pairs AS (\n"
        " SELECT cb.vec_id AS vec_id, cb.cluster AS cluster\n"
        " FROM assign ca JOIN assign cb\n"
        "  ON ca.cluster = cb.cluster AND ca.vec_id < cb.vec_id\n"
        f" JOIN {source} a ON a.vec_id = ca.vec_id\n"
        f" JOIN {source} b ON b.vec_id = cb.vec_id\n"
        " WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),"
        " CAST(b.embedding AS DOUBLE[]))"
        f" >= {threshold}\n"
        ")\n"
        "SELECT DISTINCT vec_id, cluster FROM pairs"
    )


def cluster_top_terms(embeddings, docs, k: int = 8, iters: int = 5,
                      top: int = 3):
    """Label each k-means cluster with its most frequent tokens:
    (cluster, word, c, rank) for the ``top`` highest-count words per
    cluster (ties → word ASC) — operators composing end-to-end: the
    integer-exact k-means assignment joins the documents table
    (vec_id = doc_id), token counting collapses map-side to slim
    (cluster, word, partial) rows, one keyed sum merges them, and a
    local-top-k two-phase rank finishes (each batch forwards only its
    own top rows per cluster).

    The SQL oracle nests the full k-means CTE chain and replays the
    same count + ROW_NUMBER ranking."""
    import re

    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.ops.joins import large_join
    from ocr_ray.stages.grouped import grouped_map

    word_re = re.compile(r"[a-zA-Z]{3,}")
    assign = kmeans_integer(embeddings, k=k, iters=iters)
    joined = large_join(
        docs, assign, on="doc_id", right_on="vec_id"
    ).select_columns(["cluster", "text"])

    count_schema = pa.schema(
        [("cluster", pa.int64()), ("word", pa.string()), ("c", pa.int64())]
    )

    def count_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return count_schema.empty_table()
        from collections import Counter

        counts: Counter[tuple[int, str]] = Counter()
        for cl, text in zip(
            t.column("cluster").to_pylist(), t.column("text").to_pylist()
        ):
            for w in word_re.findall((text or "").lower()):
                counts[(int(cl), w)] += 1
        items = sorted(counts.items())
        return pa.table(
            {
                "cluster": pa.array([i[0][0] for i in items], pa.int64()),
                "word": pa.array([i[0][1] for i in items], pa.string()),
                "c": pa.array([i[1] for i in items], pa.int64()),
            }
        )

    counts = _with_schema(
        joined.map_batches(count_partials, batch_format="pyarrow")
        .groupby(["cluster", "word"])
        .aggregate(Sum("c", alias_name="c")),
        count_schema,
    )

    out_schema = pa.schema(
        [
            ("cluster", pa.int64()),
            ("word", pa.string()),
            ("c", pa.int64()),
            ("rank", pa.int64()),
        ]
    )

    def topk_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        cl = block.column("cluster").to_numpy(zero_copy_only=False)
        c = block.column("c").to_numpy(zero_copy_only=False)
        words = np.asarray(block.column("word").to_pylist(), dtype=object)
        # np.unique returns lexicographically sorted uniques, so code
        # order == word ASC — the tie-break the oracle uses
        _, wcodes = np.unique(words, return_inverse=True)
        order = np.lexsort((wcodes, -c, cl))
        cl_s = cl[order]
        g_starts = np.flatnonzero(np.r_[True, cl_s[1:] != cl_s[:-1]])
        sizes = np.diff(np.append(g_starts, n))
        rank = np.arange(n) - np.repeat(g_starts, sizes)
        keep = rank < top
        idx = order[keep]
        return pa.table(
            {
                "cluster": pa.array(cl[idx], pa.int64()),
                "word": pa.array(words[idx], pa.string()),
                "c": pa.array(c[idx], pa.int64()),
                "rank": pa.array((rank[keep] + 1).astype(np.int64), pa.int64()),
            }
        )

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return count_schema.empty_table()
        t = t.sort_by([("cluster", "ascending")])
        cl = t.column("cluster").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        return topk_block(t, starts).drop_columns(["rank"])

    # phase 1: per-batch local top-k (global winners are a subset);
    # phase 2: one slim shuffle by cluster, final vectorized re-rank
    local = _with_schema(
        counts.map_batches(local_topk, batch_format="pyarrow"), count_schema
    )
    return grouped_map(local, ["cluster"], topk_block)


def cross_label_pairs(embeddings, threshold: float = 0.999,
                      bits: int = 16, n_tables: int = 4):
    """Near-duplicate vector pairs whose two sides carry DIFFERENT
    labels — the cross-partition bridge miner (mislabeled near-copies,
    cross-lingual parallel docs, train/test contamination across
    splits). Input needs (vec_id, embedding, label).

    Scale shape: the pair set comes from the existing multi-table
    hyperplane LSH + exact-verify pipeline (slim bucket rows, candidate
    -only payload joins); labels attach onto the SMALL verified pair
    set via ``attach_pair_payloads`` (broadcast below its threshold,
    two hash joins above), and the label filter is a vectorized mask.
    Output (vec_a, vec_b, cosine, label_a, label_b)."""
    from ocr_ray.ops.joins import attach_pair_payloads

    pairs = embedding_cosine_dedup(
        embeddings.select_columns(["vec_id", "embedding"]),
        threshold=threshold, bits=bits, n_tables=n_tables,
    )

    def label_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": t.column("vec_id").cast(pa.int64()),
                "label": t.column("label").cast(pa.int64()),
            }
        )

    labels = embeddings.select_columns(["vec_id", "label"]).map_batches(
        label_rows, batch_format="pyarrow"
    )
    ab = attach_pair_payloads(
        pairs, labels, key_a="vec_a", key_b="vec_b", side_key="vec_id",
        payloads={"label": ("label_a", "label_b")},
    )
    schema = pa.schema(
        [
            ("vec_a", pa.int64()),
            ("vec_b", pa.int64()),
            ("cosine", pa.float64()),
            ("label_a", pa.int64()),
            ("label_b", pa.int64()),
        ]
    )

    def keep_cross(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        mask = pc.not_equal(t["label_a"], t["label_b"])
        return t.filter(mask).select(schema.names).cast(schema)

    return ab.map_batches(keep_cross, batch_format="pyarrow")


# ---------------- product quantization (PQ) + asymmetric-distance search


PQ_SUB = 16     # subspaces (4 dims each at dim=64)
PQ_K = 64       # centroids per subspace (6-bit codes)
PQ_ITERS = 4
PQ_RERANK = 5   # candidate multiplier: ADC retrieves RERANK*k, exact re-rank


def pq_train(embeddings, m_sub: int = PQ_SUB, k: int = PQ_K,
             iters: int = PQ_ITERS) -> np.ndarray:
    """Per-subspace integer k-means codebooks (Jégou et al. 2011):
    normalize, quantize to the integer grid (the deterministic k-means
    contract shared with kmeans_integer), slice into ``m_sub``
    contiguous subspaces, and Lloyd-fit each with the established
    ``_fit_centroids`` machinery — distributed partial-sum path at
    corpus scale, bounded local path at test scale, bit-identical
    either way.

    Returns an (m_sub, k, dim/m_sub) int64 codebook tensor."""
    from ocr_ray.ops.dedup import _with_schema

    def quantize(t: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(t))
        q = np.floor(m * _KM_SCALE).astype(np.int64) + _KM_OFFSET
        return pa.table(
            {
                "vec_id": t.column("vec_id").cast(pa.int64()),
                "q": pa.FixedSizeListArray.from_arrays(
                    pa.array(q.ravel(), pa.int64()), q.shape[1]
                ),
            }
        )

    qds = _with_schema(
        embeddings.select_columns(["vec_id", "embedding"]).map_batches(
            quantize, batch_format="pyarrow"
        ),
        pa.schema([("vec_id", pa.int64()), ("q", pa.list_(pa.int64()))]),
    ).materialize()

    dim = len(qds.take(1)[0]["q"])
    if dim % m_sub:
        raise ValueError(f"dim {dim} not divisible by m_sub {m_sub}")
    dsub = dim // m_sub

    books = []
    for m_i in range(m_sub):
        lo = m_i * dsub

        def slice_fn(t: pa.Table, _lo=lo) -> pa.Table:
            if t.num_rows == 0:
                return pa.schema(
                    [("vec_id", pa.int64()), ("q", pa.list_(pa.int64()))]
                ).empty_table()
            qm = np.asarray(
                t.column("q").combine_chunks().flatten().to_numpy(
                    zero_copy_only=False
                ),
                np.int64,
            ).reshape(t.num_rows, dim)[:, _lo:_lo + dsub]
            return pa.table(
                {
                    "vec_id": t.column("vec_id"),
                    "q": pa.FixedSizeListArray.from_arrays(
                        pa.array(qm.ravel(), pa.int64()), dsub
                    ),
                }
            )

        sub = _with_schema(
            qds.map_batches(slice_fn, batch_format="pyarrow"),
            pa.schema([("vec_id", pa.int64()), ("q", pa.list_(pa.int64()))]),
        )
        books.append(_fit_centroids(sub, k=k, iters=iters))
    return np.stack(books), qds


def pq_adc_topk(embeddings, queries: np.ndarray, k: int = 10,
                m_sub: int = PQ_SUB, n_codes: int = PQ_K):
    """PQ asymmetric-distance top-k: codes are 4-bit per subspace, each
    query carries an (m_sub × n_codes) int64 LUT of exact squared
    distances from its quantized subvectors to the codebook, and a
    candidate's approximate distance is the exact integer LUT sum —
    deterministic, no floats until nothing. One map pass assigns codes
    AND scans (the per-batch partial top-k ships k rows per query per
    batch), one tiny final fold.

    Returns (query_id, vec_id, rank, adc_dist) rows."""
    import ray

    books, qds = pq_train(embeddings, m_sub=m_sub, k=n_codes)
    dim = books.shape[0] * books.shape[2]
    dsub = books.shape[2]

    qn = _normalize(np.asarray(queries, np.float64))
    qq = np.floor(qn * _KM_SCALE).astype(np.int64) + _KM_OFFSET
    # LUT[q, m, c] = ||query_sub - centroid||^2 (exact int64)
    luts = np.zeros((len(qq), m_sub, n_codes), np.int64)
    for m_i in range(m_sub):
        sub = qq[:, m_i * dsub:(m_i + 1) * dsub]
        diff = sub[:, None, :] - books[m_i][None, :, :]
        luts[:, m_i, :] = (diff * diff).sum(axis=2)
    books_ref = ray.put(books)
    luts_ref = ray.put(luts)

    part_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("vec_id", pa.int64()),
            ("adc_dist", pa.int64()),
        ]
    )

    def scan(t: pa.Table, _b=books_ref, _l=luts_ref) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        bks = ray.get(_b)
        lut = ray.get(_l)
        qm = np.asarray(
            t.column("q").combine_chunks().flatten().to_numpy(
                zero_copy_only=False
            ),
            np.int64,
        ).reshape(t.num_rows, dim)
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        # assign codes per subspace, then gather LUT rows
        dists = np.zeros((len(lut), t.num_rows), np.int64)
        for m_i in range(m_sub):
            sub = qm[:, m_i * dsub:(m_i + 1) * dsub]
            codes = _km_assign(sub, bks[m_i])
            dists += lut[:, m_i, :][:, codes]
        out_q, out_v, out_d = [], [], []
        kk = min(k, t.num_rows)
        for qi in range(len(lut)):
            row = dists[qi]
            idx = np.argpartition(row, kk - 1)[:kk]
            # deterministic tie-break: (dist, vec_id)
            idx = idx[np.lexsort((ids[idx], row[idx]))]
            out_q.extend([qi] * len(idx))
            out_v.extend(int(i) for i in ids[idx])
            out_d.extend(int(d) for d in row[idx])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "adc_dist": pa.array(out_d, pa.int64()),
            }
        )

    partials = qds.map_batches(scan, batch_format="pyarrow").take_all()
    # final fold: bounded by n_queries x k x n_blocks
    best: dict[int, list[tuple[int, int]]] = {}
    for r in partials:
        best.setdefault(int(r["query_id"]), []).append(
            (int(r["adc_dist"]), int(r["vec_id"]))
        )
    out_rows = []
    for qi in sorted(best):
        for rank, (d, v) in enumerate(sorted(best[qi])[:k], start=1):
            out_rows.append((qi, v, rank, d))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in out_rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in out_rows], pa.int64()),
            "rank": pa.array([r[2] for r in out_rows], pa.int64()),
            "adc_dist": pa.array([r[3] for r in out_rows], pa.int64()),
        }
    )



def pq_adc_rerank_topk(embeddings, queries: np.ndarray, k: int = 10,
                       m_sub: int = PQ_SUB, n_codes: int = PQ_K,
                       rerank: int = PQ_RERANK):
    """The standard two-stage PQ pipeline: ADC retrieves ``rerank*k``
    candidates per query (bounded), then the TRUE cosine is recomputed
    on just those candidates (a broadcast semi-filter fetch of
    <= n_queries*rerank*k vectors) and the exact order wins. Candidate
    recall at the defaults calibrates ~0.95 on the synthetic clustered
    embeddings; re-ranking makes the final top-k order exact within
    the candidate set.

    Returns (query_id, vec_id, rank, sim) rows, cosine rounded to 1e-6
    like ann_brute_topk."""
    from ocr_ray.ops.joins import semi_join_filter

    cand = pq_adc_topk(
        embeddings, queries, k=rerank * k, m_sub=m_sub, n_codes=n_codes
    ).to_pylist()
    by_q: dict[int, list[int]] = {}
    all_ids: set[int] = set()
    for r in cand:
        by_q.setdefault(int(r["query_id"]), []).append(int(r["vec_id"]))
        all_ids.add(int(r["vec_id"]))
    out_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("vec_id", pa.int64()),
            ("rank", pa.int64()),
            ("sim", pa.float64()),
        ]
    )
    if not all_ids:
        return out_schema.empty_table()
    rows = semi_join_filter(
        embeddings.select_columns(["vec_id", "embedding"]),
        "vec_id",
        pa.array(sorted(all_ids), pa.int64()),
    ).take_all()  # bounded: <= n_queries * rerank * k vectors
    vecs = {
        int(r["vec_id"]): np.asarray(r["embedding"], np.float64)
        for r in rows
    }
    qn = _normalize(np.asarray(queries, np.float64))
    o_q, o_v, o_r, o_s = [], [], [], []
    for qi in sorted(by_q):
        scored = []
        for vid in by_q[qi]:
            v = vecs.get(vid)
            if v is None:
                continue
            nv = np.linalg.norm(v)
            sim = float(np.dot(qn[qi], v / nv)) if nv else 0.0
            scored.append((round(sim, 6), -vid))
        scored.sort(reverse=True)
        for rank, (sim, nvid) in enumerate(scored[:k], start=1):
            o_q.append(qi)
            o_v.append(-nvid)
            o_r.append(rank)
            o_s.append(sim)
    return pa.table(
        {
            "query_id": pa.array(o_q, pa.int64()),
            "vec_id": pa.array(o_v, pa.int64()),
            "rank": pa.array(o_r, pa.int64()),
            "sim": pa.array(o_s, pa.float64()),
        }
    )


def pq_adc_violations(embeddings, queries: np.ndarray, k: int = 10,
                      mean_recall_floor: float = 0.7):
    """Empty-oracle gate for the PQ/ADC+re-rank path: structural
    invariants on the result set (≤k contiguous ranks, no duplicate
    hits, similarity non-increasing by rank) plus a quality floor —
    mean recall@k vs the exact brute-force top-k must reach
    ``mean_recall_floor`` (the 16×6-bit + 5k-candidate re-rank defaults
    calibrate ~0.95; a broken codebook, LUT, or re-rank collapses
    recall toward k/n and trips the gate)."""
    pq = pq_adc_rerank_topk(embeddings, queries, k=k).to_pylist()
    brute = ann_brute_topk(embeddings, queries, k=k).take_all()

    violations: list[tuple[int, str]] = []
    by_q: dict[int, list[dict]] = {}
    seen = set()
    for r in pq:
        key = (r["query_id"], r["vec_id"])
        if key in seen:
            violations.append((r["query_id"], "duplicate hit"))
        seen.add(key)
        by_q.setdefault(int(r["query_id"]), []).append(r)
    for qi, rows in by_q.items():
        if len(rows) > k:
            violations.append((qi, f"{len(rows)} hits > k"))
        if [r["rank"] for r in rows] != list(range(1, len(rows) + 1)):
            violations.append((qi, "ranks not contiguous"))
        d = [r["sim"] for r in rows]
        if any(a < b - 1e-9 for a, b in zip(d, d[1:])):
            violations.append((qi, "sim increasing by rank"))

    brute_by_q: dict[int, set] = {}
    for r in brute:
        brute_by_q.setdefault(int(r["query_id"]), set()).add(int(r["vec_id"]))
    recalls = []
    for qi, exact in brute_by_q.items():
        got = {int(r["vec_id"]) for r in by_q.get(qi, [])}
        recalls.append(len(got & exact) / max(1, len(exact)))
    mean_recall = sum(recalls) / max(1, len(recalls))
    if mean_recall < mean_recall_floor:
        violations.append(
            (-1, f"mean recall {mean_recall:.3f} < {mean_recall_floor}")
        )

    return pa.table(
        {
            "query_id": pa.array([v[0] for v in violations], pa.int64()),
            "reason": pa.array([v[1] for v in violations], pa.string()),
        }
    )


def pq_adc_violations_sql() -> str:
    return (
        "SELECT CAST(NULL AS BIGINT) AS query_id,"
        " CAST(NULL AS VARCHAR) AS reason\nWHERE FALSE"
    )


# ---------------------------------------------------------- mutual NN


class _NNAgainstAll:
    """Per-batch exact top-1 neighbor against the broadcast corpus
    matrix (one ray.put, read once per actor)."""

    def __init__(self, corpus_ref):
        import ray

        ids, mat = ray.get(corpus_ref)
        self.ids = ids
        self.mat = mat  # already L2-normalized

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "lo": pa.array([], pa.int64()),
                    "hi": pa.array([], pa.int64()),
                    "dirn": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        m = _normalize(_batch_matrix(batch))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        sims = m @ self.mat.T  # (batch, n_corpus)
        lo_o, hi_o, dir_o, sim_o = [], [], [], []
        for i in range(sims.shape[0]):
            row = sims[i]
            # exclude self by id, not position (batch order is arbitrary)
            self_mask = self.ids == vec_ids[i]
            row = np.where(self_mask, -np.inf, row)
            if not np.isfinite(row).any():
                continue  # singleton corpus
            best = row.max()
            # deterministic tie-break: smallest vec_id among maxima
            nn = int(self.ids[np.flatnonzero(row == best)].min())
            a = int(vec_ids[i])
            lo_o.append(min(a, nn))
            hi_o.append(max(a, nn))
            dir_o.append(0 if a < nn else 1)
            sim_o.append(float(best))
        return pa.table(
            {
                "lo": pa.array(lo_o, pa.int64()),
                "hi": pa.array(hi_o, pa.int64()),
                "dirn": pa.array(dir_o, pa.int64()),
                "sim": pa.array(sim_o, pa.float64()),
            }
        )


def _mutuality_reduce(nn):
    """ONE hash shuffle of slim (lo, hi, dirn, sim) rows — a pair is
    mutual iff its unordered key holds both directions. Shared by the
    exact and blocked top-1 producers."""
    from ocr_ray.stages.grouped import grouped_map

    out_schema = pa.schema(
        [
            ("vec_id_a", pa.int64()),
            ("vec_id_b", pa.int64()),
            ("sim", pa.float64()),
        ]
    )

    def mutual(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        lo = block.column("lo").to_numpy(zero_copy_only=False)
        hi = block.column("hi").to_numpy(zero_copy_only=False)
        sim = block.column("sim").to_numpy(zero_copy_only=False)
        ends = np.append(starts[1:], n)
        sizes = ends - starts
        # a mutual pair's unordered key carries exactly both directions
        keep = starts[sizes == 2]
        return pa.table(
            {
                "vec_id_a": pa.array(lo[keep], pa.int64()),
                "vec_id_b": pa.array(hi[keep], pa.int64()),
                "sim": pa.array(np.round(sim[keep], 6), pa.float64()),
            }
        )

    return grouped_map(nn, ["lo", "hi"], mutual)


_NN_PAIR_SCHEMA = pa.schema(
    [
        ("lo", pa.int64()),
        ("hi", pa.int64()),
        ("dirn", pa.int64()),
        ("sim", pa.float64()),
    ]
)

_TOP1_PARTIAL_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("cand", pa.int64()),
        ("sim", pa.float64()),
    ]
)


class _ProbeRows:
    """vec → nprobe slim probe rows (cluster, vec_id, is_member, emb):
    one row per probed cluster carrying the L2-normalized vector as
    fixed-width float64 bytes; is_member marks the nearest cluster (the
    vector's ONE home cluster)."""

    def __init__(self, centroids_ref, nprobe: int):
        import ray

        self.centroids = ray.get(centroids_ref)
        self.nprobe = nprobe

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "cluster": pa.array([], pa.int32()),
                    "vec_id": pa.array([], pa.int64()),
                    "is_member": pa.array([], pa.int8()),
                    "emb": pa.array([], pa.binary()),
                }
            )
        raw = _batch_matrix(batch)
        norm = _normalize(raw)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        # same raw-coordinate assignment rule as _IvfAssign
        d = ((raw[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d, axis=1, kind="stable")[:, : self.nprobe]
        n, p = order.shape
        emb_bytes = [row.tobytes() for row in norm]
        return pa.table(
            {
                "cluster": pa.array(
                    order.ravel().astype(np.int32), pa.int32()
                ),
                "vec_id": pa.array(np.repeat(ids, p), pa.int64()),
                # rank-0 probe == home cluster
                "is_member": pa.array(
                    (np.tile(np.arange(p), n) == 0).astype(np.int8), pa.int8()
                ),
                "emb": pa.array(
                    [emb_bytes[i] for i in np.repeat(np.arange(n), p)],
                    pa.binary(),
                ),
            }
        )


def _unpack_rows(col) -> np.ndarray:
    rows = [np.frombuffer(x, dtype=np.float64) for x in col.to_pylist()]
    return np.stack(rows) if rows else np.empty((0, 0))


def _cluster_top1(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per probed cluster: exact top-1 of every prober against the
    cluster's MEMBERS (each vector is a member of exactly one cluster,
    so a (prober, member) pair is scored at most once globally)."""
    n = block.num_rows
    if n == 0 or len(starts) == 0:
        return _TOP1_PARTIAL_SCHEMA.empty_table()
    ids = block.column("vec_id").to_numpy(zero_copy_only=False)
    member = block.column("is_member").to_numpy(zero_copy_only=False)
    emb_col = block.column("emb")
    ends = np.append(starts[1:], n)
    v_out, c_out, s_out = [], [], []
    for s, e in zip(starts, ends):
        g_ids = ids[s:e]
        g_member = member[s:e].astype(bool)
        if not g_member.any():
            continue
        mat = _unpack_rows(emb_col.slice(s, e - s))
        members = mat[g_member]
        m_ids = g_ids[g_member]
        sims = mat @ members.T  # (probers, members)
        # exclude self by id (a prober's home-cluster row IS a member)
        sims[g_ids[:, None] == m_ids[None, :]] = -np.inf
        best = sims.max(axis=1)
        ok = np.isfinite(best)
        # deterministic tie-break, vectorized: smallest member id among
        # the per-row maxima (no per-prober Python loop)
        cand = np.where(
            sims == best[:, None], m_ids[None, :], np.iinfo(np.int64).max
        ).min(axis=1)
        v_out.append(g_ids[ok].astype(np.int64))
        c_out.append(cand[ok])
        s_out.append(best[ok])
    if not v_out:
        return _TOP1_PARTIAL_SCHEMA.empty_table()
    return pa.table(
        {
            "vec_id": pa.array(np.concatenate(v_out), pa.int64()),
            "cand": pa.array(np.concatenate(c_out), pa.int64()),
            "sim": pa.array(np.concatenate(s_out), pa.float64()),
        }
    )


def _global_top1(block: pa.Table, starts: np.ndarray) -> pa.Table:
    """Per vec_id: fold the ≤ nprobe per-cluster partials to the single
    best (max sim, ties to the smallest candidate id) and emit the
    unordered mutuality row."""
    n = block.num_rows
    if n == 0 or len(starts) == 0:
        return _NN_PAIR_SCHEMA.empty_table()
    vid = block.column("vec_id").to_numpy(zero_copy_only=False)
    cand = block.column("cand").to_numpy(zero_copy_only=False)
    sim = block.column("sim").to_numpy(zero_copy_only=False)
    # lexsort: vec_id asc, sim desc, cand asc — first row per group wins
    order = np.lexsort((cand, -sim, vid))
    vid, cand, sim = vid[order], cand[order], sim[order]
    first = np.zeros(len(vid), dtype=bool)
    first[0] = True
    first[1:] = vid[1:] != vid[:-1]
    a, b, s = vid[first], cand[first], sim[first]
    return pa.table(
        {
            "lo": pa.array(np.minimum(a, b), pa.int64()),
            "hi": pa.array(np.maximum(a, b), pa.int64()),
            "dirn": pa.array((a > b).astype(np.int64), pa.int64()),
            "sim": pa.array(s, pa.float64()),
        }
    )


def mutual_nn_pairs(embeddings, *, mode: str = "blocked",
                    n_clusters: int = 16, nprobe: int | None = None,
                    sample_size: int = 2048):
    """Mutual nearest-neighbor pairs under cosine: (a, b) such that b
    is a's top-1 neighbor AND a is b's top-1 neighbor — the
    high-precision pair-mining step behind bitext alignment and
    near-duplicate canonicalization (mutual-NN survives where one-way
    NN drowns in hubness).

    ``mode="blocked"`` (default, the 100 TB path): IVF-style cluster
    blocking. Centroids train on the bounded hash-stratified sample
    (the family's one deliberate small materialization, same as
    ``ann_ivf_topk``); each vector emits ``nprobe`` SLIM probe rows
    (cluster, vec_id, is_member, normalized-vector bytes); ONE hash
    shuffle co-locates each cluster, where probers score exactly
    against the cluster's members; a second slim shuffle folds the ≤
    nprobe per-cluster partials to the global top-1 per vector; the
    mutuality check is the same one-shuffle reduction as before. The
    corpus is NEVER materialized on the driver and per-task memory is
    bounded by the largest cluster × nprobe fan-in, not n.
    ``nprobe=None`` probes every cluster, which makes the blocked plan
    EXACT by construction (every (prober, member) pair is scored once)
    — the registered query runs this config so the brute-force SQL
    oracle is a true oracle; ``nprobe < n_clusters`` is the documented
    subquadratic knob, exact whenever each vector's true NN shares one
    of its probed clusters (e.g. well-separated clusters).

    ``mode="exact"`` (opt-in small-corpus cross-check): the corpus
    matrix is L2-normalized once driver-side and broadcast via one
    ``ray.put`` (n x d float64 — ~2.5 MB at sf0.1's 5k x 64); each
    batch scores against the broadcast matrix (the ``ann_brute_topk``
    shape). Quadratic AND driver-materializing — keep it for oracle
    checks only.

    Output: (vec_id_a, vec_id_b, sim) with a < b, sim rounded to 6 dp
    (matching the brute-force oracle's ROUND).
    """
    import ray

    if mode == "exact":
        rows = embeddings.take_all()  # exact mode: n x d corpus broadcast
        ids = np.asarray([r["vec_id"] for r in rows], dtype=np.int64)
        mat = _normalize(
            np.asarray([r["embedding"] for r in rows], dtype=np.float64)
        )
        corpus_ref = ray.put((ids, mat))

        nn = embeddings.map_batches(
            _NNAgainstAll,
            fn_constructor_kwargs={"corpus_ref": corpus_ref},
            batch_format="pyarrow",
            concurrency=(1, 8),
        )
        return _mutuality_reduce(nn)
    if mode != "blocked":
        raise ValueError(f"unknown mutual_nn_pairs mode {mode!r}")

    from ocr_ray.stages.grouped import grouped_map

    sample = _batch_matrix(stratified_sample(embeddings, sample_size))
    k_eff = max(1, min(n_clusters, len(sample)))
    centroids = train_centroids(sample, k_eff)
    nprobe_eff = k_eff if nprobe is None else max(1, min(nprobe, k_eff))
    centroids_ref = ray.put(centroids)

    probe = embeddings.map_batches(
        _ProbeRows,
        fn_constructor_kwargs={
            "centroids_ref": centroids_ref,
            "nprobe": nprobe_eff,
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    partial = grouped_map(probe, ["cluster"], _cluster_top1)
    nn = grouped_map(partial, ["vec_id"], _global_top1)
    return _mutuality_reduce(nn)


def mutual_nn_pairs_sql() -> str:
    return (
        "WITH sims AS MATERIALIZED (\n"
        " SELECT a.vec_id AS ai, b.vec_id AS bi,\n"
        "  list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),\n"
        "   CAST(b.embedding AS DOUBLE[])) AS sim\n"
        " FROM embeddings a CROSS JOIN embeddings b\n"
        " WHERE a.vec_id <> b.vec_id\n"
        "), nn AS MATERIALIZED (\n"
        " SELECT ai, bi, sim,\n"
        "  ROW_NUMBER() OVER (PARTITION BY ai ORDER BY sim DESC, bi ASC) AS rn\n"
        " FROM sims\n"
        ")\n"
        "SELECT x.ai AS vec_id_a, x.bi AS vec_id_b, ROUND(x.sim, 6) AS sim\n"
        "FROM nn x JOIN nn y ON y.ai = x.bi AND y.bi = x.ai\n"
        "WHERE x.rn = 1 AND y.rn = 1 AND x.ai < x.bi"
    )


# ------------------------------------------------------- k-center coreset


def kcenter_coreset(embeddings, k: int = 8, scale: int = 1_000_000):
    """Greedy farthest-point (k-center / Gonzalez) coreset selection —
    the diversity-maximizing data-pruning pass: start from the
    min-vec_id vector, then k−1 times pick the vector farthest (max
    min-distance) from everything selected so far.

    Exactness contract: coordinates quantize to ``floor(x * scale)``
    int64 ONCE, and all distances are exact integer squared-Euclidean,
    so the argmax (ties broken by vec_id ASC) is deterministic and the
    oracle's unrolled CTE replay picks the identical centers — no
    float comparison anywhere.

    Scale shape: the canonical k-pass iterative algorithm — each
    round is one map_batches pass emitting ONE candidate row per
    batch (its local farthest point, vector carried along), the
    driver reduces the per-batch candidates and broadcasts the grown
    center list into the next pass via the task closure.  k passes
    over the data, O(#batches) driver rows per pass. Degenerate
    corpora (all points equal) stop early when the max distance hits
    0, in both engines.

    Output: (center_rank, vec_id, min_dist) with min_dist the exact
    integer squared distance to the previously selected set (0 for
    rank 0).
    """

    def quant(batch: pa.Table):
        m = _batch_matrix(batch)
        q = np.floor(m * scale).astype(np.int64)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return ids, q

    def min_id_candidate(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "d": pa.array([], pa.int64()),
                    "v": pa.array([], pa.list_(pa.int64())),
                }
            )
        ids, q = quant(batch)
        i = int(np.argmin(ids))
        return pa.table(
            {
                "vec_id": pa.array([int(ids[i])], pa.int64()),
                "d": pa.array([0], pa.int64()),
                "v": pa.array([q[i].tolist()], pa.list_(pa.int64())),
            }
        )

    cands = embeddings.map_batches(
        min_id_candidate, batch_format="pyarrow"
    ).take_all()
    if not cands:
        return pa.table(
            {
                "center_rank": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "min_dist": pa.array([], pa.int64()),
            }
        )
    first = min(cands, key=lambda r: r["vec_id"])
    centers = [np.asarray(first["v"], dtype=np.int64)]
    out_rank = [0]
    out_id = [int(first["vec_id"])]
    out_d = [0]

    for rank in range(1, k):
        cmat = np.stack(centers)

        def far_candidate(batch: pa.Table, cmat=cmat) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "vec_id": pa.array([], pa.int64()),
                        "d": pa.array([], pa.int64()),
                        "v": pa.array([], pa.list_(pa.int64())),
                    }
                )
            ids, q = quant(batch)
            # exact int sq dist to each center: (n, c) via loop over the
            # few centers (k <= 8), vectorized over rows and dims
            dmin = None
            for c in cmat:
                diff = q - c[None, :]
                d = (diff * diff).sum(axis=1)
                dmin = d if dmin is None else np.minimum(dmin, d)
            best = int(dmin.max())
            tie = ids[np.flatnonzero(dmin == best)]
            i = int(np.flatnonzero(ids == tie.min())[0])
            return pa.table(
                {
                    "vec_id": pa.array([int(ids[i])], pa.int64()),
                    "d": pa.array([best], pa.int64()),
                    "v": pa.array([q[i].tolist()], pa.list_(pa.int64())),
                }
            )

        cands = embeddings.map_batches(
            far_candidate, batch_format="pyarrow"
        ).take_all()
        best = max(cands, key=lambda r: (int(r["d"]), -int(r["vec_id"])))
        if int(best["d"]) == 0:
            break  # all remaining points coincide with a center
        centers.append(np.asarray(best["v"], dtype=np.int64))
        out_rank.append(rank)
        out_id.append(int(best["vec_id"]))
        out_d.append(int(best["d"]))

    return pa.table(
        {
            "center_rank": pa.array(out_rank, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
            "min_dist": pa.array(out_d, pa.int64()),
        }
    )


def kcenter_coreset_sql(k: int = 8, scale: int = 1_000_000) -> str:
    def sq(c: str) -> str:
        return (
            "list_sum(list_transform(q.v, (x, i) ->"
            f" (x - {c}.v[i]) * (x - {c}.v[i])))"
        )

    parts = [
        "WITH q AS MATERIALIZED (\n"
        " SELECT vec_id, list_transform(CAST(embedding AS DOUBLE[]),"
        f" x -> CAST(floor(x * {scale}) AS BIGINT)) AS v\n"
        " FROM embeddings\n"
        "), c0 AS MATERIALIZED (\n"
        " SELECT vec_id, v FROM q ORDER BY vec_id LIMIT 1\n"
        ")"
    ]
    for j in range(1, k):
        prev = ", ".join(f"c{i}" for i in range(j))
        sqs = [sq(f"c{i}") for i in range(j)]
        mind = sqs[0] if j == 1 else "LEAST(" + ", ".join(sqs) + ")"
        parts.append(
            f", c{j} AS MATERIALIZED (\n"
            f" SELECT q.vec_id, q.v, {mind} AS d\n"
            f" FROM q, {prev}\n"
            " WHERE " + mind + " > 0\n"
            " ORDER BY d DESC, q.vec_id ASC LIMIT 1\n"
            ")"
        )
    selects = [
        "SELECT 0::BIGINT AS center_rank, vec_id,"
        " 0::BIGINT AS min_dist FROM c0"
    ] + [
        f"SELECT {j}::BIGINT AS center_rank, vec_id,"
        f" CAST(d AS BIGINT) AS min_dist FROM c{j}"
        for j in range(1, k)
    ]
    return "".join(parts) + "\n" + "\nUNION ALL\n".join(selects)


def embedding_curation_stats(embeddings, k: int = 8, iters: int = 5,
                             threshold: float = 0.999,
                             max_cluster: int = 4096):
    """Composed embedding-side curation rollup — the vector-modality
    sibling of the text curation DAG: ONE k-means fit + assignment
    pass (shared via :func:`_assigned_vectors`, materialized once)
    feeds both the SemDeDup within-cluster drop pass and the per-
    cluster population counts; the rollup meets them in a single
    tagged-union keyed sum.

    Output per cluster: (cluster, n_vecs, n_dropped, n_survivors)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    tagged = _assigned_vectors(embeddings, k=k, iters=iters).materialize()
    drops = grouped_map(
        tagged, ["cluster"],
        _semdedup_block_factory(threshold, max_cluster),
    )

    part_schema = pa.schema(
        [
            ("cluster", pa.int64()),
            ("n_vecs", pa.int64()),
            ("n_dropped", pa.int64()),
        ]
    )

    def pop_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster" not in t.column_names:
            return part_schema.empty_table()
        c = t.column("cluster").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {
                "cluster": pa.array(uniq.astype(np.int64), pa.int64()),
                "n_vecs": pa.array(cnt.astype(np.int64), pa.int64()),
                "n_dropped": pa.array(
                    np.zeros(len(uniq), np.int64), pa.int64()
                ),
            }
        )

    def drop_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cluster" not in t.column_names:
            return part_schema.empty_table()
        c = t.column("cluster").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(c, return_counts=True)
        return pa.table(
            {
                "cluster": pa.array(uniq.astype(np.int64), pa.int64()),
                "n_vecs": pa.array(
                    np.zeros(len(uniq), np.int64), pa.int64()
                ),
                "n_dropped": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    agg = _with_schema(
        tagged.map_batches(pop_partials, batch_format="pyarrow")
        .union(drops.map_batches(drop_partials, batch_format="pyarrow"))
        .groupby("cluster")
        .aggregate(
            Sum("n_vecs", alias_name="n_vecs"),
            Sum("n_dropped", alias_name="n_dropped"),
        ),
        part_schema,
    )

    def finalize(t: pa.Table) -> pa.Table:
        out_schema = part_schema.append(
            pa.field("n_survivors", pa.int64())
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        return t.append_column(
            "n_survivors",
            pc.subtract(t.column("n_vecs"), t.column("n_dropped")),
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def embedding_curation_sql(k: int = 8, iters: int = 5,
                           threshold: float = 0.999) -> str:
    """Composes the proven semdedup chain (augmented) with the
    per-cluster population rollup."""
    base = semdedup_sql(k=k, iters=iters, threshold=threshold,
                        augmented=True)
    tail = "SELECT DISTINCT vec_id, cluster FROM pairs"
    assert base.endswith(tail)
    return (
        base[: -len(tail)]
        + ", drops AS (SELECT DISTINCT vec_id, cluster FROM pairs)\n"
        "SELECT a.cluster, CAST(COUNT(*) AS BIGINT) AS n_vecs,\n"
        " CAST(COUNT(d.vec_id) AS BIGINT) AS n_dropped,\n"
        " CAST(COUNT(*) - COUNT(d.vec_id) AS BIGINT) AS n_survivors\n"
        "FROM assign a LEFT JOIN drops d ON d.vec_id = a.vec_id\n"
        "GROUP BY a.cluster"
    )
