"""Windowed aggregates over an event log — batch re-expression of
streaming windows (SURVEY.md §2.9: the reference has none; its closest
analogue is the 60 s sliding-window rate limiter, app/middleware/auth.py:
53-107, which maps to these at engine scale).

Ray Data has no event-time windowing, so windows are expressed as
partitioned batch transforms over the ordered log:

- tumbling: floor the timestamp to the window size (vectorized epoch
  math), then an ordinary grouped aggregate;
- sliding: each event expands to size/slide window-start rows
  (vectorized tile + repeat), then a grouped aggregate — shuffle moves
  (window, partials), not payloads;
- session: per-key gap detection — sort within key, a new session starts
  where the gap exceeds the timeout (``grouped_map`` block-level, no
  per-group Python dispatch).

All window boundaries are integer epoch seconds → deterministic and
DuckDB-checkable.

Reached only from its own tests since the events queries that used it
were removed; left for a later deletion batch.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _epoch_seconds(ts_col) -> np.ndarray:
    if isinstance(ts_col, pa.ChunkedArray):
        ts_col = ts_col.combine_chunks()
    return (
        pc.cast(ts_col, pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000
    )


def _ts_array(epochs: np.ndarray) -> pa.Array:
    return pc.cast(pa.array(epochs * 1_000_000, pa.int64()), pa.timestamp("us"))


def tumbling_window_counts(events, window_sec: int = 3600):
    """(window_start, n_events, sum_cents) per tumbling window."""
    from ray.data.aggregate import Count, Sum

    from ocr_ray.driver import _cents

    def bucket(t: pa.Table) -> pa.Table:
        epochs = _epoch_seconds(t["ts"])
        start = (epochs // window_sec) * window_sec
        return pa.table(
            {
                "window_start": _ts_array(start),
                "cents": _cents(t["value"]),
            }
        )

    def fix_type(t: pa.Table) -> pa.Table:
        idx = t.schema.get_field_index("window_start")
        return t.set_column(
            idx, "window_start", pc.cast(t["window_start"], pa.timestamp("us"))
        )

    return (
        events.map_batches(bucket, batch_format="pyarrow")
        .groupby("window_start")
        .aggregate(Count(alias_name="n_events"), Sum("cents", alias_name="sum_cents"))
        .map_batches(fix_type, batch_format="pyarrow")
        .sort("window_start")
    )


def sliding_window_counts(events, window_sec: int = 3600, slide_sec: int = 900):
    """(window_start, n_events) for windows of ``window_sec`` starting
    every ``slide_sec``; an event belongs to window_sec/slide_sec
    windows. Only complete alignment: starts are multiples of slide_sec."""
    from ray.data.aggregate import Count

    assert window_sec % slide_sec == 0
    k = window_sec // slide_sec

    def expand(t: pa.Table) -> pa.Table:
        epochs = _epoch_seconds(t["ts"])
        anchor = (epochs // slide_sec) * slide_sec
        # windows starting at anchor, anchor - slide, ... anchor-(k-1)*slide
        offsets = (np.arange(k) * slide_sec)[None, :]
        starts = (anchor[:, None] - offsets).ravel()
        return pa.table({"window_start": _ts_array(starts)})

    def fix_type(t: pa.Table) -> pa.Table:
        idx = t.schema.get_field_index("window_start")
        return t.set_column(
            idx, "window_start", pc.cast(t["window_start"], pa.timestamp("us"))
        )

    return (
        events.map_batches(expand, batch_format="pyarrow")
        .groupby("window_start")
        .aggregate(Count(alias_name="n_events"))
        .map_batches(fix_type, batch_format="pyarrow")
        .sort("window_start")
    )


def session_stats_per_user(events, gap_sec: int = 1800):
    """(user_id, n_sessions, n_events): a session break is a gap >
    ``gap_sec`` between consecutive events of the same user. Block-level
    grouped map — the partitioning key is user_id, order restored by
    sorting within the block."""
    from ocr_ray.stages.grouped import grouped_map

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        if block.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        # block arrives sorted by (user_id, ts) via sort_within
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        epochs = _epoch_seconds(block["ts"])
        n = len(users)
        ends = np.append(starts[1:], n)
        uid_out, sess_out, nev_out = [], [], []
        # vectorized inside each user run: count gaps > gap_sec
        for s, e in zip(starts, ends):
            gaps = np.diff(epochs[s:e])
            uid_out.append(int(users[s]))
            sess_out.append(int((gaps > gap_sec).sum()) + 1)
            nev_out.append(int(e - s))
        return pa.table(
            {
                "user_id": pa.array(uid_out, pa.int64()),
                "n_sessions": pa.array(sess_out, pa.int64()),
                "n_events": pa.array(nev_out, pa.int64()),
            }
        )

    return grouped_map(events, ["user_id"], block_fn, sort_within=["ts"])


def user_first_last_event(events):
    """Per-user FIRST_VALUE/LAST_VALUE family: the first and last event
    (timestamp + type) under deterministic (ts, event_id) ordering, plus
    the event count. One hash shuffle; inside each block the first/last
    rows of every group are gathered with two vectorized takes at the
    group boundary offsets — no per-group Python."""
    from ocr_ray.stages.grouped import grouped_map

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("first_ts", pa.timestamp("us")),
            ("first_type", pa.string()),
            ("last_ts", pa.timestamp("us")),
            ("last_type", pa.string()),
            ("n_events", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return schema.empty_table()
        ends = np.append(starts[1:], n)
        first = block.take(pa.array(starts, pa.int64()))
        last = block.take(pa.array(ends - 1, pa.int64()))
        return pa.table(
            {
                "user_id": first.column("user_id"),
                "first_ts": first.column("ts"),
                "first_type": first.column("event_type"),
                "last_ts": last.column("ts"),
                "last_type": last.column("event_type"),
                "n_events": pa.array(
                    (ends - starts).astype(np.int64), pa.int64()
                ),
            }
        )

    return grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )


def inter_event_gap_stats(events):
    """Per-user LAG-family statistics over consecutive-event time gaps
    (microseconds): (user_id, n_events, n_gaps, min_gap_us, max_gap_us,
    mean_gap_us). Order within a user is (ts, event_id) — the same
    deterministic tie-break as the oracle's window frame.

    Fully vectorized across groups: one np.diff over the whole sorted
    block with group-boundary masking, then unbuffered segment
    reductions (np.add.at / minimum.at / maximum.at) — no Python
    dispatch per user. Gaps are exact int64 microseconds; the mean is
    the single IEEE division sum/GREATEST(n_gaps,1) shared with the
    SQL oracle. One hash shuffle of the events, nothing materialized.
    """
    from ocr_ray.stages.grouped import grouped_map

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_events", pa.int64()),
            ("n_gaps", pa.int64()),
            ("min_gap_us", pa.int64()),
            ("max_gap_us", pa.int64()),
            ("mean_gap_us", pa.float64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return schema.empty_table()
        g_n = len(starts)
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        micros = pc.cast(block.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ends = np.append(starts[1:], n)
        sizes = ends - starts
        gidx = np.repeat(np.arange(g_n), sizes)
        diffs = np.diff(micros)
        within = gidx[1:] == gidx[:-1]
        g = gidx[:-1][within]
        d = diffs[within]
        n_gaps = np.bincount(g, minlength=g_n).astype(np.int64)
        sum_g = np.zeros(g_n, dtype=np.int64)
        np.add.at(sum_g, g, d)
        min_g = np.full(g_n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(min_g, g, d)
        min_g[n_gaps == 0] = 0
        max_g = np.zeros(g_n, dtype=np.int64)
        np.maximum.at(max_g, g, d)
        safe = np.maximum(n_gaps, 1).astype(np.float64)
        return pa.table(
            {
                "user_id": pa.array(users[starts], pa.int64()),
                "n_events": pa.array(sizes.astype(np.int64), pa.int64()),
                "n_gaps": pa.array(n_gaps, pa.int64()),
                "min_gap_us": pa.array(min_g, pa.int64()),
                "max_gap_us": pa.array(max_g, pa.int64()),
                "mean_gap_us": pa.array(
                    sum_g.astype(np.float64) / safe, pa.float64()
                ),
            }
        )

    return grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )


def running_total_per_user(events):
    """(event_id, user_id, ts, running_cents): the per-user running sum
    of event value (integer cents — the float window-frame accumulation
    order differs between engines, so the cumulative quantity is kept
    integer-exact), ordered by (ts, event_id) within the user. The SQL
    analogue is ``SUM(...) OVER (PARTITION BY user_id ORDER BY ts,
    event_id)`` — here a block-level grouped map: one hash shuffle on
    user_id, then one vectorized cumsum per block with per-group base
    subtraction (no per-group Python dispatch)."""
    from ocr_ray.driver import _cents
    from ocr_ray.stages.grouped import grouped_map

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "running_cents": pa.array([], pa.int64()),
                }
            )
        # block arrives sorted by (user_id, ts, event_id)
        cents = _cents(block["value"]).to_numpy(zero_copy_only=False)
        cs = np.cumsum(cents)
        base = np.where(starts > 0, cs[starts - 1], 0)
        sizes = np.diff(np.append(starts, n))
        running = cs - np.repeat(base, sizes)
        return pa.table(
            {
                "event_id": block.column("event_id"),
                "user_id": block.column("user_id"),
                "ts": pc.cast(block.column("ts"), pa.timestamp("us")),
                "running_cents": pa.array(running, pa.int64()),
            }
        )

    return grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )


def event_transitions(events):
    """Global Markov transition counts over per-user event sequences:
    for every ordered pair of event types, how often the second
    immediately follows the first in some user's (ts, event_id)-ordered
    stream — the session-flow model a funnel/recommendation step fits.

    Scale shape: one hash shuffle of the events by user, then each
    block resolves its consecutive pairs vectorized (factorized type
    codes, boundary-masked shift compare, one bincount over
    prev·K + next composite keys) and emits AT MOST K² slim partial
    rows per block for K distinct event types; a tiny keyed sum
    finishes. No joins, no per-user Python."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    schema = pa.schema(
        [
            ("prev_type", pa.string()),
            ("next_type", pa.string()),
            ("c", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n < 2 or len(starts) == 0:
            return schema.empty_table()
        types = np.asarray(
            block.column("event_type").to_pylist(), dtype=object
        )
        uniq, codes = np.unique(types, return_inverse=True)
        k = len(uniq)
        sizes = np.diff(np.append(starts, n))
        gidx = np.repeat(np.arange(len(starts)), sizes)
        within = gidx[1:] == gidx[:-1]
        pair_keys = codes[:-1][within] * k + codes[1:][within]
        counts = np.bincount(pair_keys, minlength=k * k)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "prev_type": pa.array(uniq[nz // k], pa.string()),
                "next_type": pa.array(uniq[nz % k], pa.string()),
                "c": pa.array(counts[nz].astype(np.int64), pa.int64()),
            }
        )

    partials = grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )
    return _with_schema(
        _with_schema(partials, schema)
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("c", alias_name="n")),
        pa.schema(
            [
                ("prev_type", pa.string()),
                ("next_type", pa.string()),
                ("n", pa.int64()),
            ]
        ),
    )


def user_event_paths(events):
    """(user_id, n_events, path): each user's full event-type path,
    '->'-joined in (ts, event_id) order — the ordered STRING_AGG /
    collect_list aggregate family (the relational shape of per-key
    sequence assembly; the span reassembly stage is the same pattern
    over document spans).

    One hash shuffle by user; the block arrives (user, ts, event_id)-
    sorted, so each group's path is one slice-and-join over the
    factorized type codes. Path strings are built per group (strings
    are inherently sequential), but grouping, ordering and slicing are
    all vectorized."""
    from ocr_ray.stages.grouped import grouped_map

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_events", pa.int64()),
            ("path", pa.string()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return schema.empty_table()
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        types = block.column("event_type").to_pylist()
        ends = np.append(starts[1:], n)
        return pa.table(
            {
                "user_id": pa.array(users[starts], pa.int64()),
                "n_events": pa.array(
                    (ends - starts).astype(np.int64), pa.int64()
                ),
                "path": pa.array(
                    ["->".join(types[s:e]) for s, e in zip(starts, ends)],
                    pa.string(),
                ),
            }
        )

    return grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )


def moving_window_sum(events, frame: int = 5):
    """Bounded ROWS-frame window: per user, the sum / count / mean of
    event value over the last ``frame`` events INCLUDING the current
    one, ordered by (ts, event_id) — SQL's ``SUM(...) OVER (PARTITION
    BY user_id ORDER BY ts, event_id ROWS BETWEEN frame−1 PRECEDING AND
    CURRENT ROW)``. The frame SUM is integer cents (cumsum differences
    are exact in integers, where float frame sums would depend on
    accumulation order), so the single mean division is the only float
    and both engines evaluate the identical IEEE expression.

    Scale shape: one hash shuffle on user_id, one vectorized cumsum +
    shifted-difference per block with per-group boundary clamping — the
    bounded-frame sibling of ``running_total_per_user``."""
    from ocr_ray.driver import _cents
    from ocr_ray.stages.grouped import grouped_map

    k = int(frame)
    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("frame_cents", pa.int64()),
            ("n_frame", pa.int64()),
            ("moving_avg", pa.float64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        cents = _cents(block["value"]).to_numpy(zero_copy_only=False)
        cs = np.cumsum(cents)
        sizes = np.diff(np.append(starts, n))
        # frame start row (clamped to the group start), frame length
        lo = np.maximum(np.arange(n) - (k - 1), np.repeat(starts, sizes))
        n_frame = np.arange(n) - lo + 1
        base = np.where(lo > 0, cs[lo - 1], 0)
        frame_cents = cs - base
        avg = (
            frame_cents.astype(np.float64)
            / n_frame.astype(np.float64)
        )
        return pa.table(
            {
                "event_id": block.column("event_id"),
                "user_id": block.column("user_id"),
                "frame_cents": pa.array(frame_cents, pa.int64()),
                "n_frame": pa.array(n_frame, pa.int64()),
                "moving_avg": pa.array(avg, pa.float64()),
            }
        )

    return grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )


def sliding_window_distinct(events, window_sec: int = 3600,
                            slide_sec: int = 900):
    """(window_start, n_users): EXACT distinct users per sliding window
    (window_sec wide, a new window every slide_sec). Map-side dedup of
    (window, user) pairs shrinks the shuffle to unique pairs — the
    sliding analogue of daily_active_users; the k-fold window expansion
    happens on slim int columns, never on payloads."""
    from ocr_ray.stages.grouped import grouped_map

    assert window_sec % slide_sec == 0
    k = window_sec // slide_sec

    def expand(t: pa.Table) -> pa.Table:
        epochs = _epoch_seconds(t["ts"])
        anchor = (epochs // slide_sec) * slide_sec
        starts = (
            anchor[:, None] - (np.arange(k) * slide_sec)[None, :]
        ).ravel()
        users = np.repeat(
            t["user_id"].cast(pa.int64()).to_numpy(zero_copy_only=False), k
        )
        pairs = pa.table(
            {
                "ws": pa.array(starts, pa.int64()),
                "user_id": pa.array(users, pa.int64()),
            }
        )
        return pairs.group_by(["ws", "user_id"]).aggregate([])

    pairs = events.map_batches(expand, batch_format="pyarrow")

    out_schema = pa.schema(
        [("window_start", pa.timestamp("us")), ("n_users", pa.int64())]
    )

    def count_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        ws = block.column("ws").to_numpy(zero_copy_only=False)
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        out_ws = ws[starts] * 1_000_000  # epoch sec → us
        out_n = np.array(
            [len(np.unique(users[s:e])) for s, e in zip(starts, ends)],
            np.int64,
        )
        return pa.table(
            {
                "window_start": pa.array(out_ws, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "n_users": pa.array(out_n, pa.int64()),
            }
        )

    return grouped_map(pairs, ["ws"], count_block).sort("window_start")


def peak_concurrent_sessions(events, gap_sec: int = 1800):
    """Global peak number of concurrently-open user sessions and the
    earliest second it is reached — the sweep-line max-prefix-sum over
    session intervals. A session opens at its first event and stays open
    until ``gap_sec`` after its last event (the same 30-min timeout that
    DEFINES the session break), so single-event sessions still occupy
    their timeout window and interval ends are strictly after starts.

    Distributed shape (the ordered-prefix-sum pattern shared with
    ``pack_sequences``): (1) per-user session intervals inside one
    (user_id)-partitioned block — two slim (t, delta) rows per session
    leave it; (2) deltas hash-partition by DAY (monotone in t, so day
    blocks concatenate into the global sweep order) and each day block
    reduces to one (day, total, max_prefix, t_at_max) row via a
    vectorized cumsum sorted by (t, delta) — ends sweep before starts at
    the same second, the half-open interval rule; (3) the driver folds
    the ≤ n_days summary rows: running offset = sum of earlier days'
    totals, peak = max(offset + max_prefix), earliest day and earliest
    in-day position break ties. Only the day summaries materialize."""
    from ocr_ray.stages.grouped import grouped_map

    delta_schema = pa.schema([("day", pa.int64()), ("t", pa.int64()),
                              ("delta", pa.int64())])

    def intervals_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return delta_schema.empty_table()
        epochs = _epoch_seconds(block["ts"])
        ends = np.append(starts[1:], n)
        ts_out, delta_out = [], []
        for s, e in zip(starts, ends):
            seg = epochs[s:e]
            brk = np.flatnonzero(np.diff(seg) > gap_sec)
            first = np.concatenate(([0], brk + 1))
            last = np.concatenate((brk, [e - s - 1]))
            ts_out.append(seg[first])            # session opens
            ts_out.append(seg[last] + gap_sec)   # session closes (exclusive)
            delta_out.append(np.ones(len(first), np.int64))
            delta_out.append(np.full(len(last), -1, np.int64))
        t = np.concatenate(ts_out)
        d = np.concatenate(delta_out)
        return pa.table(
            {
                "day": pa.array(t // 86400, pa.int64()),
                "t": pa.array(t, pa.int64()),
                "delta": pa.array(d, pa.int64()),
            }
        )

    deltas = grouped_map(
        events.select_columns(["user_id", "ts"]),
        ["user_id"],
        intervals_block,
        sort_within=["ts"],
    )

    day_schema = pa.schema(
        [
            ("day", pa.int64()),
            ("total", pa.int64()),
            ("max_prefix", pa.int64()),
            ("t_at_max", pa.int64()),
        ]
    )

    def day_block(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return day_schema.empty_table()
        days = block.column("day").to_numpy(zero_copy_only=False)
        t = block.column("t").to_numpy(zero_copy_only=False)
        d = block.column("delta").to_numpy(zero_copy_only=False)
        ends = np.append(starts[1:], n)
        rows = {"day": [], "total": [], "max_prefix": [], "t_at_max": []}
        for s, e in zip(starts, ends):
            cum = np.cumsum(d[s:e])
            mx = int(cum.max())
            idx = int(np.argmax(cum))  # first position achieving mx
            rows["day"].append(int(days[s]))
            rows["total"].append(int(cum[-1]))
            rows["max_prefix"].append(mx)
            rows["t_at_max"].append(int(t[s + idx]))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    summaries = grouped_map(
        deltas, ["day"], day_block, sort_within=["t", "delta"]
    ).take_all()

    out_schema = pa.schema(
        [("peak_concurrency", pa.int64()), ("peak_at", pa.timestamp("us"))]
    )
    if not summaries:
        return pa.table(
            {"peak_concurrency": pa.array([0], pa.int64()),
             "peak_at": pa.array([None], pa.timestamp("us"))}
        )
    summaries.sort(key=lambda r: r["day"])
    offset = 0
    peak = None
    peak_t = None
    for r in summaries:
        cand = offset + r["max_prefix"]
        if peak is None or cand > peak:
            peak = cand
            peak_t = r["t_at_max"]
        offset += r["total"]
    return pa.table(
        {
            "peak_concurrency": pa.array([peak], pa.int64()),
            "peak_at": _ts_array(np.array([peak_t], np.int64)),
        }
    )


def rate_limit_audit(events, window_us: int = 60_000_000,
                     limit: int = 30):
    """Per-user sliding-window rate audit — the batch re-expression of
    the reference's 60 s sliding-window rate limiter
    (app/middleware/auth.py:53-107): for every user, the maximum number
    of events falling in any trailing ``window_us`` window, and whether
    it exceeds ``limit``.

    One hash shuffle by user_id; inside each time-sorted run the
    trailing count of every event is two vectorized searchsorted calls
    (count = #events in (t-window, t], symmetric under duplicate
    timestamps, matching the SQL self-join count), and the per-user max
    is a segment reduce. Output (user_id, max_in_window,
    limit_exceeded)."""
    from ocr_ray.stages.grouped import grouped_map

    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("max_in_window", pa.int64()),
            ("limit_exceeded", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return schema.empty_table()
        users = block.column("user_id").to_numpy(zero_copy_only=False)
        ts = block.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        ends = np.append(starts[1:], n)
        cnt = np.empty(n, np.int64)
        for s, e in zip(starts, ends):
            run = ts[s:e]
            hi = np.searchsorted(run, run, side="right")
            lo = np.searchsorted(run, run - window_us, side="right")
            cnt[s:e] = hi - lo
        mx = np.maximum.reduceat(cnt, starts)
        return pa.table(
            {
                "user_id": pa.array(users[starts], pa.int64()),
                "max_in_window": pa.array(mx, pa.int64()),
                "limit_exceeded": pa.array(
                    (mx > limit).astype(np.int64), pa.int64()
                ),
            }
        )

    return grouped_map(events, ["user_id"], block_fn, sort_within=["ts"])


def rate_limit_audit_sql(window_us: int = 60_000_000,
                         limit: int = 30) -> str:
    return (
        "WITH e AS (\n"
        " SELECT user_id, epoch_us(ts) AS t FROM events\n"
        "), a AS (SELECT DISTINCT user_id, t FROM e),\n"
        "c AS (\n"
        " SELECT a.user_id, a.t, COUNT(*) AS cnt\n"
        " FROM a JOIN e b ON a.user_id = b.user_id\n"
        f"  AND b.t <= a.t AND b.t > a.t - {window_us}\n"
        " GROUP BY a.user_id, a.t\n"
        ")\n"
        "SELECT user_id, CAST(MAX(cnt) AS BIGINT) AS max_in_window,\n"
        f" CAST(CASE WHEN MAX(cnt) > {limit} THEN 1 ELSE 0 END AS BIGINT)"
        " AS limit_exceeded\n"
        "FROM c GROUP BY user_id"
    )


def event_trigrams(events, k_top: int = 25):
    """Top-k 3-step event-type sequences across all users — the order-2
    extension of ``event_transitions`` (what a funnel/recsys step fits
    when one-step Markov is too coarse).

    Same scale shape: one hash shuffle by user, vectorized boundary-
    masked double-shift compare, one bincount over base-K³ composite
    keys, <= K³ slim partial rows per block, a tiny keyed sum, then a
    global sort bounded to k_top rows. Output (t1, t2, t3, n, rank)
    ordered by (n DESC, t1, t2, t3)."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    schema = pa.schema(
        [
            ("t1", pa.string()),
            ("t2", pa.string()),
            ("t3", pa.string()),
            ("c", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n < 3 or len(starts) == 0:
            return schema.empty_table()
        types = np.asarray(
            block.column("event_type").to_pylist(), dtype=object
        )
        uniq, codes = np.unique(types, return_inverse=True)
        k = len(uniq)
        sizes = np.diff(np.append(starts, n))
        gidx = np.repeat(np.arange(len(starts)), sizes)
        within = (gidx[2:] == gidx[1:-1]) & (gidx[1:-1] == gidx[:-2])
        keys = (
            codes[:-2][within] * k * k
            + codes[1:-1][within] * k
            + codes[2:][within]
        )
        counts = np.bincount(keys, minlength=k * k * k)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "t1": pa.array(uniq[nz // (k * k)], pa.string()),
                "t2": pa.array(uniq[(nz // k) % k], pa.string()),
                "t3": pa.array(uniq[nz % k], pa.string()),
                "c": pa.array(counts[nz].astype(np.int64), pa.int64()),
            }
        )

    partials = grouped_map(
        events, ["user_id"], block_fn, sort_within=["ts", "event_id"]
    )
    merged = _with_schema(
        _with_schema(partials, schema)
        .groupby(["t1", "t2", "t3"])
        .aggregate(Sum("c", alias_name="n")),
        pa.schema(
            [
                ("t1", pa.string()),
                ("t2", pa.string()),
                ("t3", pa.string()),
                ("n", pa.int64()),
            ]
        ),
    )
    ranked = (
        merged.sort(
            ["n", "t1", "t2", "t3"], descending=[True, False, False, False]
        )
        .limit(k_top)
        .repartition(1)  # rank below is position in ONE tiny block
    )

    def add_rank(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rank",
            pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)),
        )

    # the limit() output is a single tiny block — rank is its position
    return ranked.map_batches(
        add_rank, batch_format="pyarrow", batch_size=None
    )


def event_trigrams_sql(k_top: int = 25) -> str:
    return (
        "WITH s AS (\n"
        " SELECT user_id, event_type,\n"
        "  LEAD(event_type, 1) OVER w AS t2,\n"
        "  LEAD(event_type, 2) OVER w AS t3\n"
        " FROM events\n"
        " WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)\n"
        "), g AS (\n"
        " SELECT event_type AS t1, t2, t3, COUNT(*) AS n\n"
        " FROM s WHERE t2 IS NOT NULL AND t3 IS NOT NULL\n"
        " GROUP BY 1, 2, 3\n"
        ")\n"
        "SELECT t1, t2, t3, CAST(n AS BIGINT) AS n,\n"
        " CAST(ROW_NUMBER() OVER (ORDER BY n DESC, t1, t2, t3) AS BIGINT)"
        " AS rank\n"
        f"FROM g ORDER BY n DESC, t1, t2, t3 LIMIT {k_top}"
    )


def temporal_split_audit(events, cutoff_day: int = 15):
    """Temporal-holdout leakage audit: with train = days < cutoff and
    test = days >= cutoff (epoch-day indexed from the stream's first
    day), count users appearing on BOTH sides — entity leakage that
    silently inflates temporal-model evals. One slim per-user min/max
    day aggregate; the verdict is a one-row rollup with the rate in
    exact integer millionths.

    Output: (n_users, n_train_only, n_test_only, n_cross,
    cross_millionths)."""
    from ray.data.aggregate import Max, Min

    perkey = (
        events.map_batches(
            lambda t: pa.table(
                {
                    "user_id": t.column("user_id").cast(pa.int64()),
                    "day": pa.array(
                        _epoch_seconds(t["ts"]) // 86_400, pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("user_id")
        .aggregate(Min("day", alias_name="lo"), Max("day", alias_name="hi"))
    ).materialize()
    # pinned because TWO consumers follow (the first-day probe and the
    # flags rollup): unmaterialized, each would re-run the full events
    # scan + user shuffle. One slim row per user, spill-safe.
    base = perkey.aggregate(Min("lo", alias_name="first_day"))
    first_day = int(base["first_day"])
    cut = first_day + cutoff_day

    out_schema = pa.schema(
        [
            ("n_users", pa.int64()),
            ("n_train_only", pa.int64()),
            ("n_test_only", pa.int64()),
            ("n_cross", pa.int64()),
            ("cross_millionths", pa.int64()),
        ]
    )

    def flags(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        lo = t["lo"].to_numpy(zero_copy_only=False)
        hi = t["hi"].to_numpy(zero_copy_only=False)
        train = lo < cut
        test = hi >= cut
        return pa.table(
            {
                "n_users": pa.array([t.num_rows], pa.int64()),
                "n_train_only": pa.array(
                    [int((train & ~test).sum())], pa.int64()
                ),
                "n_test_only": pa.array(
                    [int((~train & test).sum())], pa.int64()
                ),
                "n_cross": pa.array(
                    [int((train & test).sum())], pa.int64()
                ),
                "cross_millionths": pa.array([0], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    rolled = (
        perkey.map_batches(flags, batch_format="pyarrow")
        .aggregate(
            Sum("n_users", alias_name="n_users"),
            Sum("n_train_only", alias_name="n_train_only"),
            Sum("n_test_only", alias_name="n_test_only"),
            Sum("n_cross", alias_name="n_cross"),
        )
    )
    n_users = int(rolled["n_users"] or 0)
    n_cross = int(rolled["n_cross"] or 0)
    return pa.table(
        {
            "n_users": pa.array([n_users], pa.int64()),
            "n_train_only": pa.array(
                [int(rolled["n_train_only"] or 0)], pa.int64()
            ),
            "n_test_only": pa.array(
                [int(rolled["n_test_only"] or 0)], pa.int64()
            ),
            "n_cross": pa.array([n_cross], pa.int64()),
            "cross_millionths": pa.array(
                [n_cross * 1_000_000 // max(n_users, 1)], pa.int64()
            ),
        }
    )


def latest_event_per_user(events):
    """The QUALIFY shape: each user's LAST event row in full —
    (user_id, ts, event_type, cents), ordered inside each user run by
    (ts, event_id) so equal-timestamp ties are deterministic. One hash
    shuffle on user_id; each run reduces to its final row vectorized
    (the argmax-row primitive behind snapshot/SCD reads)."""
    from ocr_ray.stages.grouped import grouped_map

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"].cast(pa.int64()),
                "ts": t["ts"],
                "event_id": t["event_id"].cast(pa.int64()),
                "event_type": t["event_type"],
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(t["value"], 100.0),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")),
            ("event_type", pa.string()),
            ("cents", pa.int64()),
        ]
    )

    def last_row(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        last = np.append(starts[1:], n) - 1  # runs are (ts, event_id)-sorted
        idx = pa.array(last, pa.int64())
        taken = block.take(idx)
        return pa.table(
            {
                "user_id": taken["user_id"],
                "ts": taken["ts"],
                "event_type": taken["event_type"],
                "cents": taken["cents"],
            }
        )

    tagged = events.map_batches(tag, batch_format="pyarrow")
    return grouped_map(
        tagged, ["user_id"], last_row, sort_within=("ts", "event_id")
    )


def daily_value_ohlc(events):
    """Daily open/close/high/low of the cents-scaled event value —
    (day, open_cents, high_cents, low_cents, close_cents, n_events).
    Open/close follow (ts, event_id) order within the day; high/low
    are plain extrema. One hash shuffle on the day key; first/last
    resolve positionally inside each sorted run."""
    from ocr_ray.stages.grouped import grouped_map

    def tag(t: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.floor_temporal(t["ts"], unit="day"), pa.timestamp("us")
        )
        return pa.table(
            {
                "day": day,
                "ts": t["ts"],
                "event_id": t["event_id"].cast(pa.int64()),
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(t["value"], 100.0),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    out_schema = pa.schema(
        [
            ("day", pa.timestamp("us")),
            ("open_cents", pa.int64()),
            ("high_cents", pa.int64()),
            ("low_cents", pa.int64()),
            ("close_cents", pa.int64()),
            ("n_events", pa.int64()),
        ]
    )

    def ohlc(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return out_schema.empty_table()
        ends = np.append(starts[1:], n)
        days = block.column("day")
        cents = block.column("cents").to_numpy(zero_copy_only=False)
        cols = {f.name: [] for f in out_schema}
        for s, e in zip(starts, ends):
            run = cents[s:e]
            cols["day"].append(days[s].as_py())
            cols["open_cents"].append(int(run[0]))
            cols["high_cents"].append(int(run.max()))
            cols["low_cents"].append(int(run.min()))
            cols["close_cents"].append(int(run[-1]))
            cols["n_events"].append(int(e - s))
        return pa.table(
            {f.name: pa.array(cols[f.name], f.type) for f in out_schema}
        )

    tagged = events.map_batches(tag, batch_format="pyarrow")
    return grouped_map(
        tagged, ["day"], ohlc, sort_within=("ts", "event_id")
    )


def _debounce_run(ts: np.ndarray, gap_us: int) -> int:
    """Survivor count of one (ts-sorted) run under CHAINED debounce:
    each survivor restarts the gap window. Exposed for property tests
    (tests/test_continuation_properties.py)."""
    kept = 1
    last = ts[0]
    for i in range(1, len(ts)):
        if ts[i] - last >= gap_us:
            kept += 1
            last = ts[i]
    return kept


def debounced_event_counts(events, gap_us: int = 5_000_000):
    """Debounce collapse: drop every event that follows a SURVIVING
    event of the same (user, type) by less than ``gap_us`` — the
    double-click/duplicate-fire cleanup every clickstream ingests
    through — and count survivors per type: (event_type, n_raw,
    n_survivors). Chained semantics (each survivor restarts the
    window), so the result is an order-dependent scan within each
    (user, type) run — resolved sequentially per run but vectorized
    across runs via a per-run numpy loop bounded by run length.
    """
    from ray.data.aggregate import Sum

    from ocr_ray.stages.grouped import grouped_map

    def tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"].cast(pa.int64()),
                "event_type": t["event_type"],
                "ts": t["ts"],
                "event_id": t["event_id"].cast(pa.int64()),
            }
        )

    part_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_raw", pa.int64()),
            ("n_survivors", pa.int64()),
        ]
    )

    def collapse(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        ends = np.append(starts[1:], n)
        ts = block.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        types = block.column("event_type").to_pylist()
        agg: dict[str, list[int]] = {}
        for s, e in zip(starts, ends):
            cur = agg.setdefault(types[s], [0, 0])
            cur[0] += int(e - s)
            cur[1] += _debounce_run(ts[s:e], gap_us)
        ks = sorted(agg)
        return pa.table(
            {
                "event_type": pa.array(ks, pa.string()),
                "n_raw": pa.array([agg[k][0] for k in ks], pa.int64()),
                "n_survivors": pa.array([agg[k][1] for k in ks], pa.int64()),
            }
        )

    tagged = events.map_batches(tag, batch_format="pyarrow")
    return (
        grouped_map(
            tagged, ["user_id", "event_type"], collapse,
            sort_within=("ts", "event_id"),
        )
        .groupby("event_type")
        .aggregate(
            Sum("n_raw", alias_name="n_raw"),
            Sum("n_survivors", alias_name="n_survivors"),
        )
    )


DEFAULT_SESSION_TIMEOUTS = (60, 300, 900, 1800, 3600)


def session_timeout_sweep(events, timeouts=DEFAULT_SESSION_TIMEOUTS):
    """Sessionization-parameter sweep: total session count under each
    candidate idle-timeout — the curve that picks the session gap
    before committing a corpus-wide sessionization (too small
    fragments behavior, too large merges visits). One user-partitioned
    pass computes every threshold simultaneously: per user run,
    sessions(t) = 1 + #(gaps > t), folded map-side to one row per
    (block, timeout).

    Output: (timeout_s, n_users, n_sessions)."""
    from ray.data.aggregate import Sum

    from ocr_ray.ops.dedup import _with_schema
    from ocr_ray.stages.grouped import grouped_map

    ts_list = [int(t) for t in timeouts]
    part_schema = pa.schema(
        [
            ("timeout_s", pa.int64()),
            ("n_users", pa.int64()),
            ("n_sessions", pa.int64()),
        ]
    )

    def block_fn(block: pa.Table, starts: np.ndarray) -> pa.Table:
        n = block.num_rows
        if n == 0 or len(starts) == 0:
            return part_schema.empty_table()
        epochs = _epoch_seconds(block["ts"])
        ends = np.append(starts[1:], n)
        gaps = np.diff(epochs)
        # mask out the inter-user boundary gaps
        valid = np.ones(max(n - 1, 0), bool)
        valid[starts[1:] - 1] = False
        n_users = len(starts)
        rows_t, rows_u, rows_s = [], [], []
        for t in ts_list:
            breaks = int(((gaps > t) & valid).sum())
            rows_t.append(t)
            rows_u.append(n_users)
            rows_s.append(n_users + breaks)
        return pa.table(
            {
                "timeout_s": pa.array(rows_t, pa.int64()),
                "n_users": pa.array(rows_u, pa.int64()),
                "n_sessions": pa.array(rows_s, pa.int64()),
            }
        )

    return _with_schema(
        grouped_map(events, ["user_id"], block_fn, sort_within=["ts"]),
        part_schema,
    ).groupby("timeout_s").aggregate(
        Sum("n_users", alias_name="n_users"),
        Sum("n_sessions", alias_name="n_sessions"),
    )

