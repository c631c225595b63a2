"""Distributed statistics operators over document columns.

- ``top_n_per_group`` / ``global_ranks``: the window-function ranking
  family (per-group top-k, global dense ranks) without a global sort.
- ``length_token_correlation``, ``length_robust_outliers``: exact-int
  moment and median/MAD aggregates over document lengths.
- ``ks_by_group``, ``welch_t_by_group``: two-sample drift tests of a
  numeric column across the values of a group column.

Every accumulation is an exact integer partial (order-free sums), so
the DuckDB oracles reproduce the results bit-for-bit.

Also kept, reached only from their own tests since the events/TPC-H
queries that used them were removed (left for a later deletion batch):
``value_percentiles_by_type``, ``distinct_users_by_type``,
``events_pivot_daily``, ``mode_event_type_per_user``, ``user_funnel``,
``props_k_stats``, ``ntile_ranks``, ``customer_value_ntile``,
``gini_coefficient``, ``daily_retention``, ``key_skew_report``,
``decayed_user_value``, ``activity_reconciliation``, ``customer_rfm``,
``winsorized_value_stats``, ``user_event_entropy``,
``percentile_cont_by_type``, ``daily_value_band``,
``salted_user_totals``, ``weighted_median_price_by_flag``,
``ship_delay_percentiles``, ``multigrain_event_rollup``.
"""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
_QUANTILES = (("p50_cents", 0.5), ("p90_cents", 0.9), ("p99_cents", 0.99))


def value_percentiles_by_type(events):
    """(event_type, p50_cents, p90_cents, p99_cents, n_events)."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def bucket_partials(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(t["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        tbl = pa.table({"event_type": t["event_type"], "cents": cents})
        counted = tbl.group_by(["event_type", "cents"]).aggregate(
            [("cents", "count")]
        )
        return counted.rename_columns(["event_type", "cents", "partial"])

    counted = (
        events.map_batches(bucket_partials, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("partial", alias_name="cnt"))
    )

    def finish_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        out_schema = pa.schema(
            [("event_type", pa.string())]
            + [(name, pa.int64()) for name, _ in _QUANTILES]
            + [("n_events", pa.int64())]
        )
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        types = block.column("event_type").to_pylist()
        cents = block.column("cents").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        cols: dict[str, list] = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            order = np.argsort(cents[s:e]) + s
            cum = np.cumsum(cnts[order])
            total = int(cum[-1])
            cols["event_type"].append(types[s])
            for name, q in _QUANTILES:
                rank = math.ceil(q * total)
                idx = int(np.searchsorted(cum, rank, side="left"))
                cols[name].append(int(cents[order][idx]))
            cols["n_events"].append(total)
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in out_schema}
        )

    return grouped_map(counted, ["event_type"], finish_block)


def distinct_users_by_type(events):
    """(event_type, n_users) — exact COUNT(DISTINCT user_id) per event
    type. Same shape as ``daily_active_users``: map-side (type, user)
    pair dedup per batch, one keyed exchange of unique pairs, then a
    per-block run count (the pairs for one type never straddle blocks)."""
    from ocr_ray.stages.grouped import grouped_map

    def pair_partials(t: pa.Table) -> pa.Table:
        pairs = pa.table(
            {
                "event_type": t["event_type"],
                "user_id": t["user_id"].cast(pa.int64()),
            }
        )
        return pairs.group_by(["event_type", "user_id"]).aggregate([])

    pairs = events.map_batches(pair_partials, batch_format="pyarrow")

    def count_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        out_schema = pa.schema(
            [("event_type", pa.string()), ("n_users", pa.int64())]
        )
        n = block.num_rows
        if n == 0:
            return out_schema.empty_table()
        # map-side partials can repeat a pair across batches: one final
        # in-block dedupe, then a vectorized per-type count
        counted = (
            block.group_by(["event_type", "user_id"])
            .aggregate([])
            .group_by("event_type")
            .aggregate([("user_id", "count")])
        )
        return pa.table(
            {
                "event_type": counted["event_type"],
                "n_users": counted["user_id_count"].cast(pa.int64()),
            }
        )

    return grouped_map(pairs, ["event_type"], count_block)


def top_n_per_group(ds, group_col: str, order_col: str, id_col: str,
                    k: int = 3):
    """(group, id, order_col, rank) — the rank-based top-``k`` rows per
    group, ordered by (order_col DESC, id ASC); the window-function
    ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC, id)`` family.

    Two-phase: each batch emits only its LOCAL top-k per group (the
    global top-k is a subset of the union), so the shuffle carries
    ≤ k × groups-per-batch slim rows; the final per-group rank is one
    vectorized pass per block."""
    from ocr_ray.stages.grouped import grouped_map

    def _ranked_topk(t: pa.Table) -> pa.Table:
        n = t.num_rows
        out_schema = pa.schema(
            [
                (group_col, pa.string()),
                (id_col, pa.int64()),
                (order_col, pa.int64()),
                ("rank", pa.int64()),
            ]
        )
        if n == 0:
            return out_schema.empty_table()
        vals = t[order_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        gcodes = pc.dictionary_encode(
            t[group_col].combine_chunks()
        ).indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -vals, gcodes))
        g_sorted = gcodes[order]
        starts = np.flatnonzero(np.r_[True, g_sorted[1:] != g_sorted[:-1]])
        sizes = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, sizes)
        keep = order[rank < k]
        return pa.table(
            {
                group_col: t[group_col].take(pa.array(keep)),
                id_col: pa.array(ids[keep], pa.int64()),
                order_col: pa.array(vals[keep], pa.int64()),
                "rank": pa.array((rank[rank < k] + 1), pa.int64()),
            }
        )

    local = ds.map_batches(_ranked_topk, batch_format="pyarrow")

    def final_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        # re-rank the unioned local top-ks; the rank column from the
        # local pass is recomputed (it only bounded the candidates)
        return _ranked_topk(block.drop_columns(["rank"]))

    return grouped_map(local, [group_col], final_block)


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot_daily(events, types: tuple[str, ...] = EVENT_TYPES):
    """(day, n_click, n_error, n_purchase, n_signup, n_view) — the
    long→wide pivot (conditional aggregation) per day. Map-side partials
    count (day, type) per batch (≤ days × types slim rows leave a
    batch); the final pivot runs per day-group on the tiny aggregate."""
    from ocr_ray.stages.grouped import grouped_map

    type_idx = {t: i for i, t in enumerate(types)}

    def partials(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.timestamp("us"))
        day_np = pc.cast(day, pa.int64()).to_numpy(zero_copy_only=False)
        codes = np.array(
            [type_idx.get(v, -1) for v in t["event_type"].to_pylist()],
            dtype=np.int64,
        )
        ok = codes >= 0
        # distinct days come from ALL events (SQL groups before the
        # conditional sums): a day whose events are all untracked types
        # must still pivot to an all-zero row, so emit a zero-count
        # presence row for it rather than dropping the day
        days_u, day_inv = np.unique(day_np, return_inverse=True)
        key = day_inv[ok] * len(types) + codes[ok]
        counts = np.bincount(key, minlength=len(days_u) * len(types))
        live = np.flatnonzero(counts)
        silent = np.flatnonzero(
            counts.reshape(len(days_u), len(types)).sum(axis=1) == 0
        )
        day_col = np.concatenate([days_u[live // len(types)], days_u[silent]])
        code_col = np.concatenate(
            [live % len(types), np.zeros(len(silent), np.int64)]
        )
        n_col = np.concatenate([counts[live], np.zeros(len(silent), np.int64)])
        return pa.table(
            {
                "day": pc.cast(
                    pa.array(day_col, pa.int64()), pa.timestamp("us")
                ),
                "type_code": pa.array(code_col, pa.int64()),
                "n": pa.array(n_col, pa.int64()),
            }
        )

    rows = events.map_batches(partials, batch_format="pyarrow")

    def pivot_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        out_fields = [("day", pa.timestamp("us"))] + [
            (f"n_{t}", pa.int64()) for t in types
        ]
        n = block.num_rows
        if n == 0:
            return pa.schema(out_fields).empty_table()
        days = pc.cast(block["day"], pa.int64()).to_numpy(zero_copy_only=False)
        codes = block["type_code"].to_numpy(zero_copy_only=False)
        cnts = block["n"].to_numpy(zero_copy_only=False)
        days_u, inv = np.unique(days, return_inverse=True)
        mat = np.zeros((len(days_u), len(types)), dtype=np.int64)
        np.add.at(mat, (inv, codes), cnts)
        cols = {
            "day": pc.cast(pa.array(days_u, pa.int64()), pa.timestamp("us"))
        }
        for i, t in enumerate(types):
            cols[f"n_{t}"] = pa.array(mat[:, i], pa.int64())
        return pa.table(cols)

    return grouped_map(rows, ["day"], pivot_block)


def mode_event_type_per_user(events):
    """MODE aggregate: each user's most frequent event type (ties break
    to the lexicographically smallest type — the same ORDER BY cnt DESC,
    type ASC rule as the SQL window oracle).

    Scale shape: map-side (user, type, count) Counter partials → one
    keyed merge → per-user argmax inside the user-partitioned block.
    The argmax is one np.lexsort over (type-code, −count, user) + a
    first-per-user mask — no Python per group. Only slim count rows
    ever shuffle.
    """
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        ones = np.ones(t.num_rows, dtype=np.int64)
        return (
            pa.table(
                {
                    "user_id": t.column("user_id"),
                    "event_type": t.column("event_type"),
                    "c": pa.array(ones, pa.int64()),
                }
            )
            .group_by(["user_id", "event_type"])
            .aggregate([("c", "sum")])
            .rename_columns(["user_id", "event_type", "c"])
        )

    counts = (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("c", alias_name="cnt"))
    )

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("mode_type", pa.string()),
            ("mode_count", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return schema.empty_table()
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        types = np.asarray(block.column("event_type").to_pylist(), dtype=object)
        cnt = block.column("cnt").to_numpy(zero_copy_only=False)
        # np.unique returns lexicographically sorted uniques, so the
        # inverse codes order exactly like ORDER BY event_type ASC
        _, codes = np.unique(types, return_inverse=True)
        order = np.lexsort((codes, -cnt, users))
        u_sorted = users[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = u_sorted[1:] != u_sorted[:-1]
        pick = order[first]
        return pa.table(
            {
                "user_id": pa.array(users[pick], pa.int64()),
                "mode_type": pa.array(types[pick].tolist(), pa.string()),
                "mode_count": pa.array(cnt[pick].astype(np.int64), pa.int64()),
            }
        )

    return grouped_map(counts, ["user_id"], block_fn)


def user_funnel(events, stages=("signup", "click", "purchase"),
                windows=(None, None)):
    """Sequential funnel analysis: for every user, the earliest
    ``stages[0]`` event, the earliest ``stages[1]`` STRICTLY AFTER it,
    and the earliest ``stages[2]`` strictly after that; ``stage`` is
    how deep the user got (0-3). The standard conversion query, with
    strictly-ordered timestamps so both engines compare identically.
    ``windows`` optionally bounds each step: ``windows[i]`` seconds is
    the max gap from the previous step's timestamp for the next stage
    to count (None = unbounded) — the time-boxed conversion variant.

    One hash shuffle of the (user, type, ts) slice; inside each block
    the three funnel levels resolve as three vectorized segment-min
    passes (np.minimum.at over masked rows) — no Python per user, no
    joins: the sequential dependency stays inside the block because the
    user's whole history is co-located by the partition key.
    """
    from ocr_ray.stages.grouped import grouped_map

    s0, s1, s2 = stages
    _SENT = np.int64(np.iinfo(np.int64).max)

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("signup_ts", pa.timestamp("us")),
            ("click_ts", pa.timestamp("us")),
            ("purchase_ts", pa.timestamp("us")),
            ("stage", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return schema.empty_table()
        g_n = len(starts)
        ends = np.append(starts[1:], n)
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        micros = pc.cast(block.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        types = np.asarray(block.column("event_type").to_pylist(), dtype=object)
        gidx = np.repeat(np.arange(g_n), ends - starts)

        def seg_min_after(type_name, after, window_sec=None):
            """min ts of ``type_name`` rows with ts strictly after the
            group's ``after`` value — and, when ``window_sec`` is set,
            at most that many seconds after it (sentinel = none)."""
            mask = types == type_name
            if after is not None:
                mask &= micros > after[gidx]
                if window_sec is not None:
                    # sentinel 'after' values overflow harmlessly: their
                    # groups already failed the strict > sentinel test
                    bound = after[gidx] + np.int64(window_sec) * 1_000_000
                    mask &= micros <= bound
            out = np.full(g_n, _SENT, dtype=np.int64)
            np.minimum.at(out, gidx[mask], micros[mask])
            return out

        t1 = seg_min_after(s0, None)
        t2 = seg_min_after(s1, t1, windows[0])
        t3 = seg_min_after(s2, t2, windows[1])
        stage = (
            (t1 != _SENT).astype(np.int64)
            + (t2 != _SENT).astype(np.int64)
            + (t3 != _SENT).astype(np.int64)
        )

        def ts_col(arr):
            return pc.cast(
                pa.array(
                    [None if v == _SENT else int(v) for v in arr], pa.int64()
                ),
                pa.timestamp("us"),
            )

        return pa.table(
            {
                "user_id": pa.array(users[starts], pa.int64()),
                "signup_ts": ts_col(t1),
                "click_ts": ts_col(t2),
                "purchase_ts": ts_col(t3),
                "stage": pa.array(stage, pa.int64()),
            }
        )

    return grouped_map(events, ["user_id"], block_fn)


def props_k_stats(events):
    """Semi-structured column handling: pull the integer ``k`` field out
    of the JSON ``props`` string with ONE vectorized Arrow regex kernel
    per batch (``pc.extract_regex`` — no per-row json.loads), then roll
    up exact per-type stats. Rows whose props carry no integer k are
    dropped (mirrored by the oracle's regexp_matches filter). The mean
    is the single sum/count IEEE division shared with SQL.

    Scale shape: extraction is stateless map-side; only (type, n, sum,
    min, max) partials reach the keyed aggregate — one tiny shuffle.
    """
    from ray.data.aggregate import Count, Max, Min, Sum

    pat = r'"k":\s*(?P<kval>[0-9]+)'

    def extract(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column("props"), pattern=pat)
        k = pc.cast(pc.struct_field(ex, "kval"), pa.int64())
        out = pa.table({"event_type": t.column("event_type"), "k": k})
        return out.filter(pc.is_valid(out["k"]))

    agg = (
        events.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("k", alias_name="sum_k"),
            Min("k", alias_name="min_k"),
            Max("k", alias_name="max_k"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [
                    ("event_type", pa.string()),
                    ("n", pa.int64()),
                    ("sum_k", pa.int64()),
                    ("min_k", pa.int64()),
                    ("max_k", pa.int64()),
                    ("mean_k", pa.float64()),
                ]
            ).empty_table()
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("sum_k").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "n": pa.array(n, pa.int64()),
                "sum_k": pa.array(s, pa.int64()),
                "min_k": pc.cast(t.column("min_k"), pa.int64()),
                "max_k": pc.cast(t.column("max_k"), pa.int64()),
                "mean_k": pa.array(
                    s.astype(np.float64) / np.maximum(n, 1).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------- NTILE without a global sort

_NTILE_BUCKET_CENTS = 1 << 22  # ~42k currency units per range bucket


def _range_bucket_offsets(rows, key_col: str, value_col: str,
                          bucket_width: int):
    """Shared scaffold for global-rank operators (NTILE, Gini): bucket
    slim (key, value) rows by ``value // bucket_width``, materialize,
    and cumsum the tiny per-bucket counts driver-side into base rank
    offsets. Returns ``(bucketed_ds, offsets, n_total)`` — the global
    rank of a row is its bucket offset + its position within the
    (value, key)-sorted bucket block."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import _with_schema

    tot_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            (key_col, pa.int64()),
            (value_col, pa.int64()),
        ]
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return tot_schema.empty_table()
        v = t.column(value_col).cast(pa.int64())
        return pa.table(
            {
                "bucket": pc.divide(v, pa.scalar(bucket_width, pa.int64())),
                key_col: t.column(key_col).cast(pa.int64()),
                value_col: v,
            }
        )

    bucketed = _with_schema(
        rows.map_batches(add_bucket, batch_format="pyarrow"), tot_schema
    ).materialize()

    counts = (
        bucketed.groupby("bucket").aggregate(Count(alias_name="n"))
    ).take_all()  # bounded: one row per value-range bucket
    counts.sort(key=lambda r: r["bucket"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in counts:
        offsets[r["bucket"]] = acc
        acc += r["n"]
    return bucketed, offsets, acc


def ntile_ranks(rows, key_col: str, value_col: str, tiles: int = 4,
                bucket_width: int = _NTILE_BUCKET_CENTS):
    """Generic distributed NTILE: ``rows`` is one slim (key, value) row
    per entity (both int64); returns (key, value, tile) with the tile
    assigned by global ascending rank ordered (value, key) — SQL's
    ``NTILE(n) OVER (ORDER BY value, key)``, including the exact
    uneven-split rule (first ``n mod tiles`` tiles get one extra row) —
    computed WITHOUT a global sort.

    Global rank via value-range partitioning (how distributed sorts
    work, minus the final exchange): rows range-bucket by
    ``value // bucket_width`` (values must be non-negative — integer
    division truncates toward zero); a tiny per-bucket count aggregate
    cumsums driver-side into base offsets (bounded by value range /
    width); each bucket block sorts locally — global rank = bucket
    offset + in-block position. Pick ``bucket_width`` so the value
    range yields enough buckets to spread the cluster (e.g. ~64 for
    day counts, the cents default for currency totals)."""
    from ocr_ray.stages.grouped import grouped_map

    bucketed, offsets, n_total = _range_bucket_offsets(
        rows, key_col, value_col, bucket_width
    )
    out_schema = pa.schema(
        [
            (key_col, pa.int64()),
            (value_col, pa.int64()),
            ("tile", pa.int64()),
        ]
    )
    if n_total == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    import ray

    off_ref = ray.put(offsets)
    big = n_total % tiles  # first `big` tiles get ceil(n/tiles) rows
    size_hi = -(-n_total // tiles)
    size_lo = n_total // tiles
    cut = big * size_hi  # ranks 1..cut live in the oversized tiles

    def rank_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        base = ray.get(off_ref)
        bk = block.column("bucket").to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, n))
        # block arrives (bucket, value, key)-sorted
        pos = np.arange(n) - np.repeat(starts, sizes)
        rn = (
            pos
            + np.repeat(
                np.array([base[int(b)] for b in bk[starts]], np.int64), sizes
            )
            + 1
        )
        tile = np.where(
            rn <= cut,
            (rn - 1) // size_hi + 1,
            big + (rn - cut - 1) // max(size_lo, 1) + 1,
        ).astype(np.int64)
        return pa.table(
            {
                key_col: block.column(key_col).cast(pa.int64()),
                value_col: block.column(value_col).cast(pa.int64()),
                "tile": pa.array(tile, pa.int64()),
            }
        )

    return grouped_map(
        bucketed,
        ["bucket"],
        rank_block,
        sort_within=[value_col, key_col],
    )


def customer_value_ntile(orders, tiles: int = 4,
                         bucket_width: int = _NTILE_BUCKET_CENTS):
    """(c_custkey, total_cents, tile): customers bucketed into
    ``tiles`` NTILE groups by ascending lifetime order value — the
    window-function NTILE family; totals reduce to one slim row per
    customer, then ``ntile_ranks`` assigns the tile without a global
    sort (see its docstring for the range-partitioned rank design)."""
    from ray.data.aggregate import Sum

    def cents_partials(t: pa.Table) -> pa.Table:
        from ocr_ray.driver import _cents

        return (
            pa.table(
                {
                    "c_custkey": pc.cast(t["o_custkey"], pa.int64()),
                    "cents": _cents(t["o_totalprice"]),
                }
            )
            .group_by("c_custkey")
            .aggregate([("cents", "sum")])
            .rename_columns(["c_custkey", "cents"])
        )

    totals = (
        orders.map_batches(cents_partials, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Sum("cents", alias_name="total_cents"))
    )
    return ntile_ranks(
        totals, "c_custkey", "total_cents", tiles=tiles,
        bucket_width=bucket_width,
    )


def global_ranks(rows, key_col: str, value_col: str,
                 bucket_width: int = _NTILE_BUCKET_CENTS):
    """Distributed ROW_NUMBER: (key, value, rank) with rank the global
    ascending position ordered (value, key) — the third consumer of the
    range-bucket scaffold (NTILE and Gini are the others). No global
    sort: rank = bucket base offset + in-block position."""
    import ray

    from ocr_ray.stages.grouped import grouped_map

    bucketed, offsets, n_total = _range_bucket_offsets(
        rows, key_col, value_col, bucket_width
    )
    out_schema = pa.schema(
        [(key_col, pa.int64()), (value_col, pa.int64()),
         ("rank", pa.int64())]
    )
    if n_total == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())
    off_ref = ray.put(offsets)

    def rank_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        base = ray.get(off_ref)
        bk = block.column("bucket").to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, n))
        pos = np.arange(n) - np.repeat(starts, sizes)
        rn = (
            pos
            + np.repeat(
                np.array([base[int(b)] for b in bk[starts]], np.int64), sizes
            )
            + 1
        )
        return pa.table(
            {
                key_col: block.column(key_col).cast(pa.int64()),
                value_col: block.column(value_col).cast(pa.int64()),
                "rank": pa.array(rn, pa.int64()),
            }
        )

    return grouped_map(
        bucketed, ["bucket"], rank_block, sort_within=[value_col, key_col]
    )


def gini_coefficient(rows, key_col: str, value_col: str,
                     bucket_width: int = _NTILE_BUCKET_CENTS) -> dict:
    """Exact Gini coefficient over slim (key, value) rows — the
    inequality summary of the concentration family (``ntile_ranks``
    gives the curve; this is its scalar). Uses the rank identity
    G = (2·Σᵢ i·xᵢ − (n+1)·Σx) / (n·Σx) with i the global ascending
    rank ordered (value, key) — SQL's ``ROW_NUMBER() OVER (ORDER BY
    value, key)``.

    Scale shape: the same range-bucket scaffold as ``ntile_ranks``
    (no global sort); each bucket block computes its exact int64
    partial (Σ rank·value, Σ value, n) and ONE ROW leaves each block;
    the driver combines the ≤num_buckets partials with arbitrary-
    precision Python ints, so the only float is the final shared-IEEE
    expression. Per-block Σ rank·value must fit int64 — at cents scale
    that bounds a block to ~10⁹ rows × ~10⁹ ranks product; past that,
    split the partial into two 63-bit limbs (the HUGEINT trick the
    MinHash oracle already uses).

    Returns ``{"n": int, "sum_value": int, "gini": float}``; gini is
    0.0 for an empty or zero-sum input by convention.
    """
    from ocr_ray.stages.grouped import grouped_map

    bucketed, offsets, n_total = _range_bucket_offsets(
        rows, key_col, value_col, bucket_width
    )
    if n_total == 0:
        return {"n": 0, "sum_value": 0, "gini": 0.0}

    import ray

    off_ref = ray.put(offsets)
    part_schema = pa.schema(
        [("sum_rv", pa.int64()), ("sum_v", pa.int64()), ("n", pa.int64())]
    )

    def partial_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        base = ray.get(off_ref)
        bk = block.column("bucket").to_numpy(zero_copy_only=False)
        v = block.column(value_col).to_numpy(zero_copy_only=False)
        sizes = np.diff(np.append(starts, n))
        # block arrives (bucket, value, key)-sorted
        pos = np.arange(n) - np.repeat(starts, sizes)
        rn = (
            pos
            + np.repeat(
                np.array([base[int(b)] for b in bk[starts]], np.int64), sizes
            )
            + 1
        )
        return pa.table(
            {
                "sum_rv": pa.array([int(np.dot(rn, v))], pa.int64()),
                "sum_v": pa.array([int(v.sum())], pa.int64()),
                "n": pa.array([n], pa.int64()),
            }
        )

    parts = grouped_map(
        bucketed, ["bucket"], partial_block,
        sort_within=[value_col, key_col],
    ).take_all()  # bounded: one row per shuffle partition
    sum_rv = sum(int(r["sum_rv"]) for r in parts)
    sum_v = sum(int(r["sum_v"]) for r in parts)
    n = sum(int(r["n"]) for r in parts)
    if sum_v == 0:
        return {"n": n, "sum_value": 0, "gini": 0.0}
    # shared IEEE: CAST(2·Σrv − (n+1)·Σv AS DOUBLE) / CAST(n·Σv AS DOUBLE)
    gini = float(2 * sum_rv - (n + 1) * sum_v) / float(n * sum_v)
    return {"n": n, "sum_value": sum_v, "gini": gini}


def length_token_correlation(docs):
    """(lang, n, corr): Pearson correlation between character length and
    whitespace token count per language — the statistical-moments
    aggregate family. All five moments (Σx, Σy, Σxy, Σx², Σy²)
    accumulate as EXACT int64 map-side partials (order-free sums), so
    the only floating-point work is the final correlation expression —
    subtraction, multiplication, division and IEEE-754 sqrt (exactly
    rounded by spec) over exact integers, shared term-for-term with the
    SQL oracle for a bit-identical result."""
    from ray.data.aggregate import Max, Sum

    from ocr_ray.ops.dedup import _with_schema

    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxy", pa.int64()),
            ("sxx", pa.int64()),
            ("syy", pa.int64()),
            ("mx", pa.int64()),
        ]
    )

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        x = t.column("n_chars").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        y = (
            pc.count_substring_regex(
                pc.coalesce(t.column("text"), pa.scalar("")), pattern=r"\S+"
            )
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        langs = np.asarray(t.column("lang").to_pylist(), dtype=object)
        uniq, codes = np.unique(langs, return_inverse=True)
        k = len(uniq)

        def seg(v):
            out = np.zeros(k, np.int64)
            np.add.at(out, codes, v)
            return out

        ones = np.ones(len(x), np.int64)
        return pa.table(
            {
                "lang": pa.array(uniq, pa.string()),
                "n": pa.array(seg(ones), pa.int64()),
                "sx": pa.array(seg(x), pa.int64()),
                "sy": pa.array(seg(y), pa.int64()),
                "sxy": pa.array(seg(x * y), pa.int64()),
                "sxx": pa.array(seg(x * x), pa.int64()),
                "syy": pa.array(seg(y * y), pa.int64()),
                # per-lang max coordinate: feeds the overflow guard in
                # finish() — the int64 moment sums wrap silently past
                # 2^63, which n·mx² bounds from above
                "mx": pa.array(
                    np.maximum.reduceat(
                        np.maximum(x, y)[np.argsort(codes, kind="stable")],
                        np.searchsorted(np.sort(codes), np.arange(k)),
                    ),
                    pa.int64(),
                ),
            }
        )

    merged = _with_schema(
        docs.map_batches(moments, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"),
            Max("mx", alias_name="mx"),
        ),
        part_schema,
    )

    out_schema = pa.schema(
        [("lang", pa.string()), ("n", pa.int64()), ("corr", pa.float64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        for n_i, mx_i in zip(
            t.column("n").to_pylist(), t.column("mx").to_pylist()
        ):
            # conservative exact bound (Python ints): every per-batch
            # and merged moment sum is ≤ n·mx², so below 2^63 nothing
            # wrapped anywhere in the int64 pipeline
            if int(n_i) * int(mx_i) * int(mx_i) >= 2 ** 63:
                raise OverflowError(
                    "length_token_correlation: int64 moment sums could "
                    "overflow for this group (n*max^2 >= 2^63) — shard "
                    "the corpus or widen the accumulator"
                )
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = t.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = t.column("sxy").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        sxx = t.column("sxx").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        syy = t.column("syy").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        # the exact term order the oracle replays:
        # (n*sxy - sx*sy) / (sqrt(n*sxx - sx*sx) * sqrt(n*syy - sy*sy))
        denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        corr = np.where(denom > 0.0, (n * sxy - sx * sy) / denom, 0.0)
        return pa.table(
            {
                "lang": t.column("lang"),
                "n": t.column("n").cast(pa.int64()),
                "corr": pa.array(corr, pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def daily_retention(events):
    """(cohort_day, n_users, n_retained): next-day retention per cohort
    — users whose FIRST active day is the cohort day, and how many of
    them are active again the following day. The cohort-analysis
    family.

    Scale shape: events collapse map-side to distinct (user, day) slim
    rows; one keyed aggregate per user yields the first day; a
    hash-partitioned join probes (user, first_day + 1) against the
    distinct user-days (both sides slim — events never shuffle); a tiny
    keyed rollup finishes."""
    from ray.data.aggregate import Count, Min, Sum

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join

    ud_schema = pa.schema([("user_id", pa.int64()), ("day", pa.int32())])

    def user_days(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return ud_schema.empty_table()
        days = pc.cast(pc.cast(t.column("ts"), pa.date32()), pa.int32())
        users = t.column("user_id").cast(pa.int64())
        pairs = pa.table({"user_id": users, "day": days})
        # per-batch distinct (user, day)
        return pairs.group_by(["user_id", "day"]).aggregate([]).select(
            ["user_id", "day"]
        )

    ud = _with_schema(
        events.map_batches(user_days, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Count(alias_name="_n")),
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("day", pa.int32()),
                ("_n", pa.int64()),
            ]
        ),
    ).select_columns(["user_id", "day"]).materialize()

    first = _with_schema(
        ud.groupby("user_id").aggregate(Min("day", alias_name="cohort_day")),
        pa.schema([("user_id", pa.int64()), ("cohort_day", pa.int32())]),
    )

    def probe_day(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [
                    ("user_id", pa.int64()),
                    ("cohort_day", pa.int32()),
                    ("next_day", pa.int32()),
                ]
            ).empty_table()
        cd = t.column("cohort_day").cast(pa.int32())
        return pa.table(
            {
                "user_id": t.column("user_id").cast(pa.int64()),
                "cohort_day": cd,
                "next_day": pc.add(cd, pa.scalar(1, pa.int32())),
            }
        )

    probes = first.map_batches(probe_day, batch_format="pyarrow")
    # ud with an explicit match marker — the payload the left_outer
    # join preserves as NULL on misses (the join coalesces the key
    # columns themselves, so a marker column is the miss signal)
    ud_marked = ud.map_batches(
        lambda t: t.append_column(
            "m", pa.array(np.ones(t.num_rows, np.int64), pa.int64())
        )
        if t.num_rows
        else pa.schema(
            [
                ("user_id", pa.int64()),
                ("day", pa.int32()),
                ("m", pa.int64()),
            ]
        ).empty_table(),
        batch_format="pyarrow",
    )
    joined = large_join(
        probes,
        _renamed(ud_marked, {"day": "next_day"}),
        on=("user_id", "next_day"),
        join_type="left_outer",
    )

    def cohort_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [
                    ("cohort_day", pa.int32()),
                    ("one", pa.int64()),
                    ("retained", pa.int64()),
                ]
            ).empty_table()
        m = pc.fill_null(t.column("m"), 0)
        return pa.table(
            {
                "cohort_day": t.column("cohort_day").cast(pa.int32()),
                "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                "retained": pc.cast(m, pa.int64()),
            }
        )

    return _with_schema(
        joined.map_batches(cohort_partials, batch_format="pyarrow")
        .groupby("cohort_day")
        .aggregate(
            Sum("one", alias_name="n_users"),
            Sum("retained", alias_name="n_retained"),
        ),
        pa.schema(
            [
                ("cohort_day", pa.int32()),
                ("n_users", pa.int64()),
                ("n_retained", pa.int64()),
            ]
        ),
    )


def key_skew_report(ds, key_column: str, k: int = 10):
    """(key, n, share, rank): the ``k`` heaviest values of a key column
    and each one's share of all rows — the skew diagnostic run before
    choosing a partitioning key (a hot key here means a hot partition
    in every downstream groupby/join on that column).

    Map-side per-batch counts → one keyed sum of slim rows → global
    sort + limit (k rows); the total is a second pass over the already
    slim per-key counts. Share is one IEEE division of exact integers,
    shared with the oracle."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [("key", pa.int64()), ("c", pa.int64())]
            ).empty_table()
        ids, counts = np.unique(
            t.column(key_column).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            ),
            return_counts=True,
        )
        return pa.table(
            {
                "key": pa.array(ids, pa.int64()),
                "c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    per_key = _with_schema(
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("c", alias_name="n")),
        pa.schema([("key", pa.int64()), ("n", pa.int64())]),
    ).materialize()

    total = per_key.aggregate(Sum("n", alias_name="t"))["t"] or 0
    top = per_key.sort(["n", "key"], descending=[True, False]).limit(k)

    def finish(t: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("key", pa.int64()),
                ("n", pa.int64()),
                ("share", pa.float64()),
            ]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "key": t.column("key").cast(pa.int64()),
                "n": t.column("n").cast(pa.int64()),
                "share": pa.array(n / float(max(total, 1)), pa.float64()),
            }
        )

    rows = top.map_batches(finish, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (-r["n"], r["key"]))
    for i, r in enumerate(rows):
        r["rank"] = i + 1
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("key", pa.int64()),
                ("n", pa.int64()),
                ("share", pa.float64()),
                ("rank", pa.int64()),
            ]
        ),
    )


def length_robust_outliers(docs):
    """Per-language ROBUST length outliers: lower median, median
    absolute deviation, and the count of docs with
    |n_chars − median| > 3·1.4826·MAD — the robust z-score rule
    (Hampel/Iglewicz-Hoaglin), integer-exact end to end so the SQL
    oracle matches bit-for-bit: the only non-integers (3·1.4826) enter
    as the exact ratio 44478/10000, and both medians use the
    PERCENTILE_DISC-style rank (n+1)//2 in pure integer arithmetic.

    Scale shape: one (lang, n_chars) histogram shuffle — the count
    table is bounded by the length DOMAIN per language, not the corpus
    — then one vectorized pass per language block. The complement of
    ``length_outliers`` (mean/std z-score): MAD ignores the heavy tail
    that inflates the standard deviation."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def hist_partials(t: pa.Table) -> pa.Table:
        counted = (
            t.select(["lang", "n_chars"])
            .group_by(["lang", "n_chars"])
            .aggregate([("n_chars", "count")])
        )
        return counted.rename_columns(["lang", "n_chars", "partial"])

    counted = (
        docs.map_batches(hist_partials, batch_format="pyarrow")
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("partial", alias_name="cnt"))
    )

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("median_chars", pa.int64()),
            ("mad_chars", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_outliers", pa.int64()),
        ]
    )

    def _disc_median(values: np.ndarray, counts: np.ndarray) -> int:
        # values ascending; smallest value whose cumulative count
        # reaches rank (n+1)//2 — PERCENTILE_DISC(0.5) semantics
        cum = np.cumsum(counts)
        rank = (int(cum[-1]) + 1) // 2
        return int(values[np.searchsorted(cum, rank, side="left")])

    def finish_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        langs = block.column("lang").to_pylist()
        vals = block.column("n_chars").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        cols: dict[str, list] = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            v, c = vals[s:e], cnts[s:e]  # n_chars-sorted via sort_within
            med = _disc_median(v, c)
            dev = np.abs(v - med)
            order = np.argsort(dev, kind="stable")
            mad = _disc_median(dev[order], c[order])
            n_out = int(c[dev * 10000 > 44478 * mad].sum())
            cols["lang"].append(langs[s])
            cols["median_chars"].append(med)
            cols["mad_chars"].append(mad)
            cols["n_docs"].append(int(c.sum()))
            cols["n_outliers"].append(n_out)
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in out_schema}
        )

    return grouped_map(
        counted, ["lang"], finish_block, sort_within=("n_chars",)
    )


def decayed_user_value(events, anchor_us: int | None = None,
                       half_life_weeks: int = 1,
                       event_type: str = "purchase"):
    """Exponentially time-decayed engagement score per user —
    (user_id, decayed_micros, n_events), the feature-store "recency-
    weighted spend" rollup (reference analogue: the per-key rolling
    stats the history DB's /stats endpoints aggregate, ocr_history
    time-bucketed rollups).

    Determinism design (cross-engine bit equality): the decay weight is
    DYADIC — age is floored to whole weeks w, and the weight is
    ``floor(1e6 * 2^-w)`` — both 2^-w and the product are exact in
    IEEE doubles, and FLOOR is unambiguous (no half-way ties, unlike
    ROUND on 1e6/2^7 = 7812.5). Each event contributes the int64
    ``cents * weight_ppm``; integer sums are order-free, so any
    partial-aggregation plan matches the DuckDB oracle exactly.

    Scale shape: one stateless map_batches computes (user, contrib)
    partials with a map-side group-sum, then a single keyed groupby-sum
    over slim int rows. The anchor (global max ts) is one streaming
    column scan. 100 TB: the shuffle carries at most one row per
    (user, block) — never events.
    """
    from ray.data.aggregate import Sum

    if anchor_us is None:
        anchor = events.max("ts")
        anchor_us = int(pa.scalar(anchor, pa.timestamp("us")).value)
    week_us = 7 * 86_400 * 1_000_000

    def partials(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["event_type"], event_type)
        t = t.filter(mask)
        if t.num_rows == 0:
            return pa.schema(
                [("user_id", pa.int64()), ("contrib", pa.int64()),
                 ("n", pa.int64())]
            ).empty_table()
        cents = pc.cast(
            pc.round(pc.multiply(t["value"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        ts_us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        weeks = (anchor_us - ts_us) // (week_us * half_life_weeks)
        weight_ppm = np.floor(1e6 * np.ldexp(1.0, -np.minimum(weeks, 1074))
                              ).astype(np.int64)
        contrib = cents * weight_ppm
        part = pa.table({
            "user_id": t["user_id"].cast(pa.int64()),
            "contrib": pa.array(contrib, pa.int64()),
        })
        return (
            part.group_by(["user_id"])
            .aggregate([("contrib", "sum"), ("contrib", "count")])
            .rename_columns(["user_id", "contrib", "n"])
        )

    out = (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("contrib", alias_name="decayed_micros"),
                   Sum("n", alias_name="n_events"))
    )

    out_schema = pa.schema(
        [("user_id", pa.int64()), ("decayed_micros", pa.int64()),
         ("n_events", pa.int64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            # a fully-filtered shard yields a column-less block; pin the
            # schema so downstream union/sort never sees a mismatch
            return out_schema.empty_table()
        return pa.table({
            "user_id": t["user_id"].cast(pa.int64()),
            "decayed_micros": t["decayed_micros"].cast(pa.int64()),
            "n_events": t["n_events"].cast(pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow").sort("user_id")


def activity_reconciliation(orders, events):
    """Full-outer reconciliation of the two daily rollups:
    (day, n_orders, n_events) with zero-fill on whichever side has no
    rows that day — the classic cross-feed consistency report. Scale
    shape: both sides collapse to one slim (day, count) row per day
    BEFORE the join, so the full-outer hash join moves only day-grain
    rows regardless of input size."""
    from ray.data.aggregate import Count

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join

    def day_of(col):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "day": pc.cast(
                        pc.floor_temporal(t[col], unit="day"),
                        pa.timestamp("us"),
                    )
                }
            )

        return fn

    o_daily = (
        orders.map_batches(day_of("o_orderdate"), batch_format="pyarrow")
        .groupby("day")
        .aggregate(Count(alias_name="n_orders"))
    )
    e_daily = (
        events.map_batches(day_of("ts"), batch_format="pyarrow")
        .groupby("day")
        .aggregate(Count(alias_name="n_events"))
    )
    joined = large_join(
        o_daily,
        _renamed(e_daily, {"day": "e_day"}),
        on="day",
        right_on="e_day",
        join_type="full_outer",
    )

    out_schema = pa.schema(
        [
            ("day", pa.timestamp("us")),
            ("n_orders", pa.int64()),
            ("n_events", pa.int64()),
        ]
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        cols = {c: t.column(c) for c in t.column_names}
        # Ray's hash join coalesces the key into the left name when
        # right_on is given; older versions may keep both — handle both
        day = cols["day"].cast(pa.timestamp("us"))
        if "e_day" in cols:
            day = pc.coalesce(day, cols["e_day"].cast(pa.timestamp("us")))
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "day": day,
                "n_orders": pc.coalesce(
                    cols["n_orders"].cast(pa.int64()), zero
                ),
                "n_events": pc.coalesce(
                    cols["n_events"].cast(pa.int64()), zero
                ),
            }
        )

    return _with_schema(
        joined.map_batches(finish, batch_format="pyarrow"), out_schema
    ).sort("day")


def customer_rfm(orders, tiles: int = 4, anchor_us: int | None = None):
    """RFM segmentation — (c_custkey, r_days, n_orders, total_cents,
    r_tile, f_tile, m_tile, rfm_code): the classic three-dimension
    quartile feature. Recency anchors at the GLOBAL max order date
    (r_days = whole days since the customer's last order, integer
    epoch-us arithmetic); every tile is the exact SQL
    ``NTILE(tiles) OVER (ORDER BY value, c_custkey)`` via
    ``ntile_ranks`` (value-range-partitioned global rank, no global
    sort), so r_tile=1 is most recent, f_tile/m_tile=``tiles`` are the
    most frequent / highest spend. ``rfm_code`` packs the three digits
    (r*100 + f*10 + m).

    Scale shape: orders collapse map-side to one slim row per customer;
    three ntile passes each shuffle only (bucket, key, value) rows; the
    three tile tables join back at customer grain (the 3-join DAG shape
    the aggregator-reservation fix in joins.py exists for)."""
    from ray.data.aggregate import Max, Sum

    from ocr_ray.ops.dedup import _renamed, _with_schema
    from ocr_ray.ops.joins import large_join

    day_us = 86_400_000_000
    if anchor_us is None:
        # callers with a parquet source should pass the footer-stats
        # max instead (driver._parquet_max_ts_us) and skip this scan
        anchor = orders.max("o_orderdate")
        if anchor is None:
            import ray.data as rd

            return rd.from_arrow(_RFM_SCHEMA.empty_table())
        anchor_us = int(pa.scalar(anchor, pa.timestamp("us")).value)

    def partials(t: pa.Table) -> pa.Table:
        from ocr_ray.driver import _cents

        tbl = pa.table(
            {
                "c_custkey": pc.cast(t["o_custkey"], pa.int64()),
                "last_us": t["o_orderdate"].cast(pa.int64()),
                "cents": _cents(t["o_totalprice"]),
            }
        )
        return (
            tbl.group_by("c_custkey")
            .aggregate(
                [("last_us", "max"), ("cents", "sum"), ("cents", "count")]
            )
            .rename_columns(
                ["c_custkey", "last_us", "total_cents", "n_orders"]
            )
        )

    agg = (
        orders.map_batches(partials, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(
            Max("last_us", alias_name="last_us"),
            Sum("total_cents", alias_name="total_cents"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )

    base_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("r_days", pa.int64()),
            ("n_orders", pa.int64()),
            ("total_cents", pa.int64()),
        ]
    )

    def to_base(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return base_schema.empty_table()
        last = t.column("last_us").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "c_custkey": t.column("c_custkey").cast(pa.int64()),
                "r_days": pa.array((anchor_us - last) // day_us, pa.int64()),
                "n_orders": t.column("n_orders").cast(pa.int64()),
                "total_cents": t.column("total_cents").cast(pa.int64()),
            }
        )

    base = _with_schema(
        agg.map_batches(to_base, batch_format="pyarrow"), base_schema
    ).materialize()

    def tile_of(value_col: str, out_name: str, width: int):
        ranked = ntile_ranks(
            base.select_columns(["c_custkey", value_col]),
            "c_custkey",
            value_col,
            tiles=tiles,
            bucket_width=width,
        )
        return _renamed(
            ranked.select_columns(["c_custkey", "tile"]), {"tile": out_name}
        )

    r = tile_of("r_days", "r_tile", 64)
    f = tile_of("n_orders", "f_tile", 8)
    m = tile_of("total_cents", "m_tile", _NTILE_BUCKET_CENTS)

    joined = large_join(
        large_join(
            large_join(base, _renamed(r, {"c_custkey": "rk"}),
                       on="c_custkey", right_on="rk"),
            _renamed(f, {"c_custkey": "fk"}),
            on="c_custkey", right_on="fk",
        ),
        _renamed(m, {"c_custkey": "mk"}),
        on="c_custkey", right_on="mk",
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _RFM_SCHEMA.empty_table()
        rt = t.column("r_tile").cast(pa.int64())
        ft = t.column("f_tile").cast(pa.int64())
        mt = t.column("m_tile").cast(pa.int64())
        code = pc.add(
            pc.add(
                pc.multiply(rt, pa.scalar(100, pa.int64())),
                pc.multiply(ft, pa.scalar(10, pa.int64())),
            ),
            mt,
        )
        return pa.table(
            {
                "c_custkey": t.column("c_custkey").cast(pa.int64()),
                "r_days": t.column("r_days").cast(pa.int64()),
                "n_orders": t.column("n_orders").cast(pa.int64()),
                "total_cents": t.column("total_cents").cast(pa.int64()),
                "r_tile": rt,
                "f_tile": ft,
                "m_tile": mt,
                "rfm_code": code,
            }
        )

    return _with_schema(
        joined.map_batches(finish, batch_format="pyarrow"), _RFM_SCHEMA
    ).sort("c_custkey")


_RFM_SCHEMA = pa.schema(
    [
        ("c_custkey", pa.int64()),
        ("r_days", pa.int64()),
        ("n_orders", pa.int64()),
        ("total_cents", pa.int64()),
        ("r_tile", pa.int64()),
        ("f_tile", pa.int64()),
        ("m_tile", pa.int64()),
        ("rfm_code", pa.int64()),
    ]
)


def winsorized_value_stats(events, lo_q: float = 0.05, hi_q: float = 0.95):
    """(event_type, lo_cents, hi_cents, n_events, winsorized_sum_cents,
    winsorized_mean): per-type robust mean with both tails clamped at
    integer-rank quantile bounds — the winsorized-mean family (outlier-
    robust KPIs). The bound rule is the one value_percentiles_by_type
    pins (smallest cents bucket whose cumulative count reaches
    ceil(q·n)), so the DuckDB oracle replays it exactly; sums stay
    int64 and only the final mean division is floating point (shared
    IEEE expression).

    Two passes: the (type, cents) histogram reduces to ONE bounds row
    per type (driver collect bounded by type cardinality), bounds
    broadcast once via ray.put; then one map-side clamp + partial-sum
    pass and a tiny keyed sum. At 100 TB nothing but histogram partials
    and per-(type, block) sum rows ever shuffles."""
    import math

    import ray
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    def bucket_partials(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(
                pc.multiply(t["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        tbl = pa.table({"event_type": t["event_type"], "cents": cents})
        return (
            tbl.group_by(["event_type", "cents"])
            .aggregate([("cents", "count")])
            .rename_columns(["event_type", "cents", "partial"])
        )

    counted = (
        events.map_batches(bucket_partials, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("partial", alias_name="cnt"))
    )

    bounds_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("lo_cents", pa.int64()),
            ("hi_cents", pa.int64()),
        ]
    )

    def bounds_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return bounds_schema.empty_table()
        ends = np.append(starts[1:], n)
        types = block.column("event_type").to_pylist()
        cents = block.column("cents").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        out_t, out_lo, out_hi = [], [], []
        for s, e in zip(starts, ends):
            order = np.argsort(cents[s:e]) + s
            cum = np.cumsum(cnts[order])
            total = int(cum[-1])
            cs = cents[order]
            lo_i = int(np.searchsorted(cum, math.ceil(lo_q * total), "left"))
            hi_i = int(np.searchsorted(cum, math.ceil(hi_q * total), "left"))
            out_t.append(types[s])
            out_lo.append(int(cs[lo_i]))
            out_hi.append(int(cs[hi_i]))
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "lo_cents": pa.array(out_lo, pa.int64()),
                "hi_cents": pa.array(out_hi, pa.int64()),
            }
        )

    bounds_rows = grouped_map(
        counted, ["event_type"], bounds_block
    ).take_all()  # bounded: one row per event type
    bounds = {
        r["event_type"]: (r["lo_cents"], r["hi_cents"]) for r in bounds_rows
    }
    bref = ray.put(bounds)

    part_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_events", pa.int64()),
            ("winsorized_sum_cents", pa.int64()),
        ]
    )

    def clamp_partials(t: pa.Table, _bref=bref) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        b = ray.get(_bref)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        types = np.asarray(t["event_type"].to_pylist(), dtype=object)
        lo = np.array([b[ty][0] for ty in types], np.int64)
        hi = np.array([b[ty][1] for ty in types], np.int64)
        clamped = np.minimum(np.maximum(cents, lo), hi)
        part = pa.table(
            {
                "event_type": t["event_type"],
                "w": pa.array(clamped, pa.int64()),
            }
        )
        return (
            part.group_by("event_type")
            .aggregate([("w", "count"), ("w", "sum")])
            .rename_columns(
                ["event_type", "n_events", "winsorized_sum_cents"]
            )
        )

    agg = (
        _with_schema(
            events.map_batches(clamp_partials, batch_format="pyarrow"),
            part_schema,
        )
        .groupby("event_type")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("winsorized_sum_cents", alias_name="winsorized_sum_cents"),
        )
    )

    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("lo_cents", pa.int64()),
            ("hi_cents", pa.int64()),
            ("n_events", pa.int64()),
            ("winsorized_sum_cents", pa.int64()),
            ("winsorized_mean", pa.float64()),
        ]
    )

    def finish(t: pa.Table, _bref=bref) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        b = ray.get(_bref)
        types = t.column("event_type").to_pylist()
        n = t.column("n_events").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        s = t.column("winsorized_sum_cents").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "lo_cents": pa.array(
                    [b[ty][0] for ty in types], pa.int64()
                ),
                "hi_cents": pa.array(
                    [b[ty][1] for ty in types], pa.int64()
                ),
                "n_events": pa.array(n, pa.int64()),
                "winsorized_sum_cents": pa.array(s, pa.int64()),
                "winsorized_mean": pa.array(
                    s.astype(np.float64) / n.astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return _with_schema(
        agg.map_batches(finish, batch_format="pyarrow"), out_schema
    ).sort("event_type")


_ENT_SCALE = 1_000_000


def user_event_entropy(events):
    """Per-user Shannon entropy (nats) of the event-type distribution —
    the behavioral-diversity profile (a user doing only one thing scores
    0; uniform across k types scores ≈ ln k).

    Determinism: H = ln N − (1/N)·Σ nᵢ·ln nᵢ mixes float logs and an
    engine-ordered float sum — both break the cross-engine hash. So each
    ln is quantized to an integer (``floor(ln(k)·1e6)``, the same
    bit-verified trick as ``zipf_slope_by_lang``), Σ nᵢ·qᵢ accumulates
    exactly, and the final entropy is ONE shared IEEE expression over
    the casts (a deterministic "quantized entropy", within 2e-6 nats of
    exact). Scale shape: map-side (user, type) count partials → one
    keyed sum of slim rows → one (user)-partitioned block finishes every
    user with three np.add.reduceat segment sums — no per-user Python."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        counted = (
            t.select(["user_id", "event_type"])
            .group_by(["user_id", "event_type"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "user_id": counted["user_id"].cast(pa.int64()),
                "event_type": counted["event_type"],
                "n": counted["count_all"].cast(pa.int64()),
            }
        )

    counted = (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_events", pa.int64()),
            ("n_types", pa.int64()),
            ("entropy", pa.float64()),
        ]
    )

    def entropy_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        rows = block.num_rows
        if rows == 0 or len(starts) == 0:
            return out_schema.empty_table()
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        n = block.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        q = np.floor(np.log(n.astype(np.float64)) * _ENT_SCALE).astype(
            np.int64
        )
        total = np.add.reduceat(n, starts)
        s = np.add.reduceat(n * q, starts)
        n_types = np.diff(np.append(starts, rows))
        qn = np.floor(np.log(total.astype(np.float64)) * _ENT_SCALE)
        # shared IEEE tree with the oracle:
        #   (CAST(qn AS DOUBLE) - CAST(s AS DOUBLE)/CAST(total AS DOUBLE)) / 1e6
        entropy = (qn - s.astype(np.float64) / total.astype(np.float64)) / float(
            _ENT_SCALE
        )
        return pa.table(
            {
                "user_id": pa.array(users[starts].astype(np.int64), pa.int64()),
                "n_events": pa.array(total, pa.int64()),
                "n_types": pa.array(n_types.astype(np.int64), pa.int64()),
                "entropy": pa.array(entropy, pa.float64()),
            }
        )

    return grouped_map(counted, ["user_id"], entropy_block)


def percentile_cont_by_type(events, qs=(0.25, 0.5, 0.9, 0.99)):
    """Exact PERCENTILE_CONT (linearly interpolated) per event type,
    bit-matched against DuckDB's native ``quantile_cont``.

    Scale shape: each block collapses to (event_type, value-bitpattern,
    count) partials — the double's int64 bit pattern is the merge key,
    so the keyed aggregate is exact with no float-key hashing — and the
    stream entering the final per-type block is bounded by types ×
    distinct values, independent of row count.

    DEGRADATION CONDITION (VERDICT r03): "bounded by types × distinct
    values" collapses on CONTINUOUS domains — when nearly every double
    is distinct (sensor readings, ratios), distinct ≈ n and this
    becomes an n-row slim shuffle. That is acceptable for an EXACT
    PERCENTILE_CONT (comparable to sort-based plans), but at 100 TB on
    a continuous column prefer the sketch paths:
    ``histogram_quantiles`` (mergeable fixed-bin histogram) or
    ``sampled_value_percentiles`` (hash-sampled exact). This operator
    is the right tool when values are discrete-ish (prices in cents,
    counts, durations in ms). The interpolation
    replays DuckDB's exact expression: pos = q·(n−1),
    result = (1−frac)·v_lo + frac·v_hi (calibrated against
    quantile_cont on adversarial inputs — v_lo + frac·(v_hi−v_lo)
    rounds differently and does NOT match)."""
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    part_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("vbits", pa.int64()),
            ("c", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return part_schema.empty_table()
        v = t["value"]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        bits = v.to_numpy(zero_copy_only=False).view(np.int64)
        t2 = pa.table(
            {
                "event_type": t["event_type"],
                "vbits": pa.array(bits, pa.int64()),
                "c": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )
        g = t2.group_by(["event_type", "vbits"]).aggregate([("c", "sum")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "vbits": g["vbits"],
                "c": pc.cast(g["c_sum"], pa.int64()),
            }
        )

    merged = (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby(["event_type", "vbits"])
        .aggregate(Sum("c", alias_name="c"))
    )

    labels = [f"p{int(round(q * 100))}" for q in qs]
    out_schema = pa.schema(
        [("event_type", pa.string())]
        + [(lb, pa.float64()) for lb in labels]
    )

    def finish_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        m = block.num_rows
        if m == 0 or len(starts) == 0:
            return out_schema.empty_table()
        types = block.column("event_type").to_pylist()
        vals = (
            block.column("vbits")
            .to_numpy(zero_copy_only=False)
            .view(np.float64)
        )
        cnt = block.column("c").to_numpy(zero_copy_only=False)
        ends = np.append(starts[1:], m)
        out_rows: dict = {"event_type": []}
        for lb in labels:
            out_rows[lb] = []
        for s, e in zip(starts, ends):
            order = np.argsort(vals[s:e], kind="stable")
            v = vals[s:e][order]
            cums = np.cumsum(cnt[s:e][order])
            n = int(cums[-1])
            out_rows["event_type"].append(types[s])
            for q, lb in zip(qs, labels):
                pos = q * (n - 1)
                lo = int(np.floor(pos))
                hi = int(np.ceil(pos))
                frac = pos - lo
                v_lo = v[np.searchsorted(cums, lo + 1, side="left")]
                v_hi = v[np.searchsorted(cums, hi + 1, side="left")]
                out_rows[lb].append((1.0 - frac) * v_lo + frac * v_hi)
        return pa.table(
            {
                "event_type": pa.array(out_rows["event_type"], pa.string()),
                **{
                    lb: pa.array(out_rows[lb], pa.float64())
                    for lb in labels
                },
            }
        )

    return grouped_map(merged, ["event_type"], finish_block)


# ---------------------------------------- two-sample KS drift per source


def ks_by_group(rows, value_col: str = "n_chars", group_col: str = "source"):
    """Exact two-sample Kolmogorov-Smirnov statistic of each group's
    ``value_col`` distribution against the REST of the corpus — the
    standard drift / batch-effect gate run before mixing a new source
    into a training corpus (reference analogue: the per-source quality
    rollups in ocr_service.py's stats endpoints; this is their
    distribution-shape counterpart).

    Scale shape (same two-pass broadcast-histogram plan as
    ``curate.length_percent_rank``): pass 1 reduces the corpus to exact
    per-(group, value) counts — map-side per-batch value counts, one
    keyed aggregate; the result is bounded by #groups x #distinct
    values, independent of corpus row count. The KS sup runs entirely
    on that bounded table driver-side: both ECDFs are right-continuous
    step functions, so the supremum is attained on the union grid of
    step points, and evaluating |F_g - F_rest| at every distinct value
    is exact. Each division is a single IEEE op on exact integer
    counts, so the statistic is bit-stable against the SQL oracle's
    window-cumsum formulation.
    """
    from ray.data.aggregate import Sum

    hist = (
        rows.map_batches(
            lambda t: pa.table(
                {
                    "g": t.column(group_col),
                    "v": t.column(value_col),
                    "c": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            )
            .group_by(["g", "v"])
            .aggregate([("c", "sum")])
            .rename_columns(["g", "v", "c"]),
            batch_format="pyarrow",
        )
        .groupby(["g", "v"])
        .aggregate(Sum("c", alias_name="cnt"))
    )
    tbl = pa.Table.from_pylist(
        hist.take_all(),  # bounded by #groups x #distinct values
        schema=pa.schema(
            [("g", pa.string()), ("v", pa.int64()), ("cnt", pa.int64())]
        ),
    ).sort_by([("v", "ascending"), ("g", "ascending")])

    grid, grid_idx = np.unique(
        tbl.column("v").to_numpy(zero_copy_only=False), return_inverse=True
    )
    groups = tbl.column("g").to_pylist()
    cnts = tbl.column("cnt").to_numpy(zero_copy_only=False)
    names = sorted(set(groups))
    g_idx = np.array([names.index(g) for g in groups], dtype=np.int64)

    # dense (#groups x #grid) count matrix -> per-group cumulative counts
    mat = np.zeros((len(names), len(grid)), dtype=np.int64)
    np.add.at(mat, (g_idx, grid_idx), cnts)
    cum = np.cumsum(mat, axis=1)
    cum_all = cum.sum(axis=0)
    n_g = mat.sum(axis=1)
    n_all = int(n_g.sum())

    out_g, out_ns, out_nr, out_ks = [], [], [], []
    for i, name in enumerate(names):
        nr = n_all - int(n_g[i])
        if nr == 0 or n_g[i] == 0:
            continue  # KS vs an empty complement is undefined
        f_g = cum[i].astype(np.float64) / np.float64(n_g[i])
        f_r = (cum_all - cum[i]).astype(np.float64) / np.float64(nr)
        out_g.append(name)
        out_ns.append(int(n_g[i]))
        out_nr.append(nr)
        out_ks.append(float(np.max(np.abs(f_g - f_r))))
    return pa.table(
        {
            group_col: pa.array(out_g, pa.string()),
            "n_group": pa.array(out_ns, pa.int64()),
            "n_rest": pa.array(out_nr, pa.int64()),
            "ks_stat": pa.array(out_ks, pa.float64()),
        }
    )


def ks_by_group_sql(value_col: str = "n_chars", group_col: str = "source",
                    table: str = "documents") -> str:
    """SQL replay: per-(group, value) counts, cross the group list with
    the union value grid, window-cumsum both the group's and the global
    counts, and take MAX(ABS(..)) of the two exactly-divided ECDFs.
    The divisions are the same single IEEE ops the numpy side performs
    on identical integers, so the float compares exactly."""
    return (
        "WITH c AS (\n"
        f" SELECT {group_col} AS g, {value_col} AS v, COUNT(*) AS n\n"
        f" FROM {table} GROUP BY 1, 2\n"
        "), tot AS (SELECT g, SUM(n) AS ns FROM c GROUP BY 1),\n"
        "gtot AS (SELECT SUM(n) AS na FROM c),\n"
        "vall AS (SELECT v, SUM(n) AS nv FROM c GROUP BY 1),\n"
        "sg AS (SELECT t.g, a.v, a.nv FROM tot t CROSS JOIN vall a),\n"
        "j AS (\n"
        " SELECT sg.g, sg.v, sg.nv, COALESCE(c.n, 0) AS n_s\n"
        " FROM sg LEFT JOIN c ON c.g = sg.g AND c.v = sg.v\n"
        "), cum AS (\n"
        " SELECT g, v,\n"
        "  SUM(n_s) OVER (PARTITION BY g ORDER BY v) AS cum_s,\n"
        "  SUM(nv) OVER (PARTITION BY g ORDER BY v) AS cum_all\n"
        " FROM j\n"
        ")\n"
        f"SELECT cum.g AS {group_col},\n"
        " CAST(t.ns AS BIGINT) AS n_group,\n"
        " CAST(gt.na - t.ns AS BIGINT) AS n_rest,\n"
        " MAX(ABS(CAST(cum_s AS DOUBLE) / CAST(t.ns AS DOUBLE)\n"
        "   - CAST(cum_all - cum_s AS DOUBLE)"
        " / CAST(gt.na - t.ns AS DOUBLE))) AS ks_stat\n"
        "FROM cum JOIN tot t USING (g) CROSS JOIN gtot gt\n"
        "WHERE gt.na > t.ns AND t.ns > 0\n"
        "GROUP BY 1, 2, 3"
    )


def daily_value_band(events, qs=((  "p50_cents", 0.5), ("p95_cents", 0.95))):
    """(day, p50_cents, p95_cents, n_events): exact integer-rank
    percentiles of the cents-scaled event value PER DAY — the
    latency-band-style daily rollup (p50/p95 over time) every
    monitoring stack draws. Same rank rule as
    ``value_percentiles_by_type`` (ceil(q*n), value at that rank), so
    the SQL replay is the established window-cumsum pick.

    Scale shape: per-(day, cents) counts collapse map-side, one keyed
    aggregate bounded by #days x #distinct cents, then a vectorized
    per-day rank pick inside ``grouped_map`` — the corpus row count
    never crosses the shuffle.
    """
    import math

    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.floor_temporal(t["ts"], unit="day"), pa.timestamp("us")
        )
        cents = pc.cast(
            pc.round(
                pc.multiply(t["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        g = pa.table({"day": day, "cents": cents}).group_by(
            ["day", "cents"]
        ).aggregate([("cents", "count")])
        return g.rename_columns(["day", "cents", "partial"])

    counted = (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby(["day", "cents"])
        .aggregate(Sum("partial", alias_name="cnt"))
    )

    out_schema = pa.schema(
        [("day", pa.timestamp("us"))]
        + [(name, pa.int64()) for name, _ in qs]
        + [("n_events", pa.int64())]
    )

    def finish(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        days = block.column("day")
        cents = block.column("cents").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        cols: dict[str, list] = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            order = np.argsort(cents[s:e]) + s
            cum = np.cumsum(cnts[order])
            total = int(cum[-1])
            cols["day"].append(days[s].as_py())
            for name, q in qs:
                rank = math.ceil(q * total)
                idx = int(np.searchsorted(cum, rank, side="left"))
                cols[name].append(int(cents[order][idx]))
            cols["n_events"].append(total)
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in out_schema}
        )

    return grouped_map(counted, ["day"], finish)


def salted_user_totals(events, n_salts: int = 16):
    """Two-phase SALTED per-user rollup — the skew-defusing shape for
    keys hot enough that even post-combine partials overwhelm one
    reducer (a single user with 10^9 events at 100 TB). Phase 1 keys
    the shuffle on (user_id, event_id % n_salts) so a hot user's load
    spreads over ``n_salts`` reducers; phase 2 folds the ≤ n_salts
    salt-partials per user through a second, tiny shuffle. The result
    is EXACTLY the unsalted GROUP BY (sums are associative), which is
    what the SQL oracle states.

    Output: (user_id, n_events, sum_cents).
    """
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        eid = t["event_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        tbl = pa.table(
            {
                "user_id": t["user_id"].cast(pa.int64()),
                "salt": pa.array(eid % n_salts, pa.int64()),
                "cents": cents,
                "one": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )
        g = tbl.group_by(["user_id", "salt"]).aggregate(
            [("one", "sum"), ("cents", "sum")]
        )
        return g.rename_columns(["user_id", "salt", "n", "cents"])

    phase1 = (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby(["user_id", "salt"])
        .aggregate(Sum("n", alias_name="n"), Sum("cents", alias_name="cents"))
    )

    def drop_salt(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("user_id", pa.int64()), ("n", pa.int64()),
                 ("cents", pa.int64())]
            ).empty_table()
        return t.select(["user_id", "n", "cents"])

    return (
        phase1.map_batches(drop_salt, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("n", alias_name="n_events"),
            Sum("cents", alias_name="sum_cents"),
        )
    )


def weighted_median_price_by_flag(lineitem):
    """Quantity-weighted median of the cents-scaled extended price per
    l_returnflag — the weighted-percentile shape (each row counts
    ``l_quantity`` times). Weighted rank rule: total weight W =
    Σ qty, target = ceil(W/2), median = smallest price whose
    cumulative weight (ascending price order) reaches the target —
    the same integer-rank convention as the unweighted percentile
    family, replayed by the oracle's window cumsum.

    Scale shape: per-(flag, price) weight sums collapse map-side;
    the shuffle carries one row per distinct (flag, price)."""
    import math

    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def partials(t: pa.Table) -> pa.Table:
        price = pc.cast(
            pc.round(
                pc.multiply(t["l_extendedprice"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        qty = pc.cast(
            pc.round(t["l_quantity"], round_mode="half_towards_infinity"),
            pa.int64(),
        )
        g = pa.table(
            {
                "flag": t["l_returnflag"],
                "price": price,
                "qty": qty,
            }
        ).group_by(["flag", "price"]).aggregate([("qty", "sum")])
        return g.rename_columns(["flag", "price", "w"])

    counted = (
        lineitem.map_batches(partials, batch_format="pyarrow")
        .groupby(["flag", "price"])
        .aggregate(Sum("w", alias_name="w"))
    )

    out_schema = pa.schema(
        [
            ("flag", pa.string()),
            ("wmedian_cents", pa.int64()),
            ("total_weight", pa.int64()),
        ]
    )

    def finish(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        flags = block.column("flag").to_pylist()
        price = block.column("price").to_numpy(zero_copy_only=False)
        w = block.column("w").to_numpy(zero_copy_only=False)
        o_f, o_m, o_w = [], [], []
        for s, e in zip(starts, ends):
            order = np.argsort(price[s:e]) + s
            cum = np.cumsum(w[order])
            total = int(cum[-1])
            target = math.ceil(total / 2)
            idx = int(np.searchsorted(cum, target, side="left"))
            o_f.append(flags[s])
            o_m.append(int(price[order][idx]))
            o_w.append(total)
        return pa.table(
            {
                "flag": pa.array(o_f, pa.string()),
                "wmedian_cents": pa.array(o_m, pa.int64()),
                "total_weight": pa.array(o_w, pa.int64()),
            }
        )

    return grouped_map(counted, ["flag"], finish)


def ship_delay_percentiles(orders, lineitem,
                           qs=(("p50_days", 0.5), ("p90_days", 0.9))):
    """Days between order placement and each lineitem shipment,
    percentiled per order priority — (o_orderpriority, p50_days,
    p90_days, n_lineitems) on the established integer rank rule. The
    big-big join ships only three slim columns per side and the
    percentile pass reuses the bounded (priority, delay) count table,
    so the shuffle never carries raw rows twice.
    """
    import math

    from ray.data.aggregate import Sum

    from ocr_ray.ops.joins import large_join
    from ocr_ray.stages.grouped import grouped_map

    DAY_US = 86_400_000_000

    o = orders.map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "prio": t["o_orderpriority"],
                "odate": t["o_orderdate"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    li = lineitem.map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t["l_orderkey"].cast(pa.int64()),
                "sdate": t["l_shipdate"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = large_join(o, li, on="o_orderkey", right_on="l_orderkey")

    def delay_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "sdate" not in t.column_names:
            return pa.schema(
                [("prio", pa.string()), ("delay", pa.int64()),
                 ("n", pa.int64())]
            ).empty_table()
        d = (
            t["sdate"].to_numpy(zero_copy_only=False)
            - t["odate"].to_numpy(zero_copy_only=False)
        ) // DAY_US
        g = pa.table(
            {"prio": t["prio"], "delay": pa.array(d, pa.int64())}
        ).group_by(["prio", "delay"]).aggregate([([], "count_all")])
        return g.rename_columns(["prio", "delay", "n"])

    counted = (
        joined.map_batches(delay_partials, batch_format="pyarrow")
        .groupby(["prio", "delay"])
        .aggregate(Sum("n", alias_name="cnt"))
    )

    out_schema = pa.schema(
        [("o_orderpriority", pa.string())]
        + [(name, pa.int64()) for name, _ in qs]
        + [("n_lineitems", pa.int64())]
    )

    def finish(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or block.num_columns == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        prios = block.column("prio").to_pylist()
        delay = block.column("delay").to_numpy(zero_copy_only=False)
        cnts = block.column("cnt").to_numpy(zero_copy_only=False)
        cols = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            order = np.argsort(delay[s:e]) + s
            cum = np.cumsum(cnts[order])
            total = int(cum[-1])
            cols["o_orderpriority"].append(prios[s])
            for name, q in qs:
                rank = math.ceil(q * total)
                idx = int(np.searchsorted(cum, rank, side="left"))
                cols[name].append(int(delay[order][idx]))
            cols["n_lineitems"].append(total)
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in out_schema}
        )

    return grouped_map(counted, ["prio"], finish)


# ---------------------------------------------- Welch t drift per source


def welch_t_by_group(rows, value_col: str = "n_chars",
                     group_col: str = "source"):
    """Welch's unequal-variance t statistic of each group's
    ``value_col`` mean against the REST of the corpus — the parametric
    sibling of ``ks_by_group`` (KS feels distribution shape, Welch
    feels the mean under unequal variances; pipelines gate on both).

    Exact integer moments (n, Σx, Σx²) per group collapse map-side;
    the t statistic folds driver-side on the bounded group table with
    the float expression written identically in the oracle: unbiased
    variances s² = (n·Σx² − (Σx)²) / (n·(n−1)), then
    t = (m_g − m_r) / sqrt(s²_g/n_g + s²_r/n_r).

    Output: (group, n_group, n_rest, t_stat); groups with fewer than
    2 members on either side are dropped (variance undefined).
    """
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        v = pc.cast(t[value_col], pa.int64()).to_numpy(zero_copy_only=False)
        g = pa.table(
            {
                "g": t[group_col],
                "n": pa.array(np.ones(len(v), np.int64), pa.int64()),
                "s1": pa.array(v, pa.int64()),
                "s2": pa.array(v * v, pa.int64()),
            }
        ).group_by("g").aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")]
        )
        return g.rename_columns(["g", "n", "s1", "s2"])

    rows_agg = (
        rows.map_batches(partials, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s1", alias_name="s1"),
            Sum("s2", alias_name="s2"),
        )
    ).take_all()  # bounded: one row per group

    N = sum(int(r["n"]) for r in rows_agg)
    S1 = sum(int(r["s1"]) for r in rows_agg)
    S2 = sum(int(r["s2"]) for r in rows_agg)

    o_g, o_ng, o_nr, o_t = [], [], [], []
    for r in sorted(rows_agg, key=lambda x: x["g"]):
        n_g, s1_g, s2_g = int(r["n"]), int(r["s1"]), int(r["s2"])
        n_r, s1_r, s2_r = N - n_g, S1 - s1_g, S2 - s2_g
        if n_g < 2 or n_r < 2:
            continue
        m_g = np.float64(s1_g) / np.float64(n_g)
        m_r = np.float64(s1_r) / np.float64(n_r)
        var_g = np.float64(n_g * s2_g - s1_g * s1_g) / np.float64(
            n_g * (n_g - 1)
        )
        var_r = np.float64(n_r * s2_r - s1_r * s1_r) / np.float64(
            n_r * (n_r - 1)
        )
        denom = np.sqrt(
            var_g / np.float64(n_g) + var_r / np.float64(n_r)
        )
        if denom == 0:
            continue
        o_g.append(r["g"])
        o_ng.append(n_g)
        o_nr.append(n_r)
        o_t.append(float((m_g - m_r) / denom))
    return pa.table(
        {
            group_col: pa.array(o_g, pa.string()),
            "n_group": pa.array(o_ng, pa.int64()),
            "n_rest": pa.array(o_nr, pa.int64()),
            "t_stat": pa.array(o_t, pa.float64()),
        }
    )


def welch_t_by_group_sql(value_col: str = "n_chars",
                         group_col: str = "source",
                         table: str = "documents") -> str:
    """Identical IEEE expression tree over HUGEINT-exact moments."""
    return (
        "WITH m AS (\n"
        f" SELECT {group_col} AS g, COUNT(*) AS n,\n"
        f"  SUM(CAST({value_col} AS BIGINT)) AS s1,\n"
        f"  SUM(CAST({value_col} AS BIGINT) * CAST({value_col} AS BIGINT))"
        " AS s2\n"
        f" FROM {table} GROUP BY 1\n"
        "), tot AS (\n"
        " SELECT SUM(n) AS nn, SUM(s1) AS t1, SUM(s2) AS t2 FROM m\n"
        ")\n"
        f"SELECT m.g AS {group_col}, CAST(m.n AS BIGINT) AS n_group,\n"
        " CAST(tot.nn - m.n AS BIGINT) AS n_rest,\n"
        " (CAST(m.s1 AS DOUBLE) / CAST(m.n AS DOUBLE)\n"
        "  - CAST(tot.t1 - m.s1 AS DOUBLE) / CAST(tot.nn - m.n AS DOUBLE))\n"
        " / SQRT(\n"
        "   CAST(m.n * m.s2 - m.s1 * m.s1 AS DOUBLE)"
        " / CAST(m.n * (m.n - 1) AS DOUBLE) / CAST(m.n AS DOUBLE)\n"
        "   + CAST((tot.nn - m.n) * (tot.t2 - m.s2)"
        " - (tot.t1 - m.s1) * (tot.t1 - m.s1) AS DOUBLE)\n"
        "     / CAST((tot.nn - m.n) * (tot.nn - m.n - 1) AS DOUBLE)"
        " / CAST(tot.nn - m.n AS DOUBLE)\n"
        " ) AS t_stat\n"
        "FROM m CROSS JOIN tot\n"
        "WHERE m.n >= 2 AND tot.nn - m.n >= 2\n"
        " AND (CAST(m.n * m.s2 - m.s1 * m.s1 AS DOUBLE)"
        " / CAST(m.n * (m.n - 1) AS DOUBLE) / CAST(m.n AS DOUBLE)\n"
        "  + CAST((tot.nn - m.n) * (tot.t2 - m.s2)"
        " - (tot.t1 - m.s1) * (tot.t1 - m.s1) AS DOUBLE)\n"
        "    / CAST((tot.nn - m.n) * (tot.nn - m.n - 1) AS DOUBLE)"
        " / CAST(tot.nn - m.n AS DOUBLE)) <> 0"
    )


_GRAINS = (("hour", 3_600_000_000), ("day", 86_400_000_000),
           ("week", 604_800_000_000))


def multigrain_event_rollup(events):
    """Hour + day + week event rollups out of ONE shuffle — each batch
    pre-aggregates every grain map-side (3 slim keyed rows per active
    bucket, not per event), then a single keyed sum finishes all three
    grains together. The rollup-tree trick that replaces three separate
    jobs (and three corpus scans) with one.

    Buckets are integer epoch-us floors (week = epoch // 7d — epoch
    anchored, i.e. Thursday-started weeks, stated in the oracle the
    same way). Output: (grain, bucket_start, n_events, sum_cents).
    """
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = pc.cast(
            pc.round(
                pc.multiply(t["value"], 100.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        gs, bs, ns, ss = [], [], [], []
        for name, width in _GRAINS:
            bucket = (ts // width) * width
            uniq, inv = np.unique(bucket, return_inverse=True)
            n = np.bincount(inv)
            s = np.zeros(len(uniq), np.int64)
            np.add.at(s, inv, cents)
            gs.extend([name] * len(uniq))
            bs.extend(int(b) for b in uniq)
            ns.extend(int(x) for x in n)
            ss.extend(int(x) for x in s)
        return pa.table(
            {
                "grain": pa.array(gs, pa.string()),
                "bucket_start": pa.array(bs, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "cents": pa.array(ss, pa.int64()),
            }
        )

    return (
        events.map_batches(partials, batch_format="pyarrow")
        .groupby(["grain", "bucket_start"])
        .aggregate(
            Sum("n", alias_name="n_events"),
            Sum("cents", alias_name="sum_cents"),
        )
    )
