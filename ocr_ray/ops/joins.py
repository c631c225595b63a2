"""Join primitives, Ray-Data-first.

The reference's only joins are broadcast membership probes against the
in-process dictionary (J1, SURVEY.md §2.4) and keyed upserts (J2/J3 —
see ops/learning_state). At engine scale that generalizes to:

- ``broadcast_join``: the small side is ``ray.put`` once and joined
  inside every ``map_batches`` task with a zero-copy pyarrow hash join —
  no shuffle, the canonical dimension-table pattern;
- ``adaptive_key_join`` / ``attach_pair_payloads``: broadcast the small
  side's key set, mask the large side with ``pc.is_in`` and join the
  bounded remainder — no shuffle for the small-key regime.

Both-sides-large joins use Ray Data's native hash-partitioned
``Dataset.join`` (``large_join`` below) — both sides shuffle on the key,
partition counts sized to the cluster.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


class _BroadcastJoiner:
    """Per-actor: fetch the broadcast table once; per batch: arrow join."""

    def __init__(self, small_ref, keys, join_type: str = "inner"):
        import ray

        small = ray.get(small_ref) if not isinstance(small_ref, pa.Table) else small_ref
        self.small = small.combine_chunks()
        self.keys = list(keys)
        self.join_type = join_type

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.join(
            self.small, keys=self.keys, join_type=self.join_type
        )


def _rename_col(ds, old: str, new: str):
    def apply(t: pa.Table) -> pa.Table:
        return t.rename_columns([new if c == old else c for c in t.column_names])

    return ds.map_batches(apply, batch_format="pyarrow")


def broadcast_join(big, small: pa.Table, keys, join_type: str = "inner",
                   concurrency=(1, 8)):
    """Join a Dataset against a small in-memory Arrow table, shuffle-free.

    ``small`` is put in the object store ONCE and read per actor in
    ``__init__`` — never re-shipped per batch.
    """
    import ray

    small_ref = ray.put(small)
    return big.map_batches(
        _BroadcastJoiner,
        fn_constructor_kwargs={
            "small_ref": small_ref,
            "keys": list(keys) if not isinstance(keys, str) else [keys],
            "join_type": join_type,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def large_join(left, right, on, *, join_type: str = "inner",
               right_on=None, num_partitions: int | None = None):
    """Hash-partitioned join of two large Datasets (both sides shuffle).

    Uses Ray Data's native ``Dataset.join`` under the tuned hash-shuffle
    context; partition count defaults to the cluster CPU count (one
    reduce wave — per-partition overhead is pure tax past that, see
    context.py:configure).
    """
    from ocr_ray.context import apply_to_dataset

    import math

    import ray

    if num_partitions is None:
        cpus = max(8, int(ray.cluster_resources().get("CPU", 8)))
        # size-aware default: one partition per ~32 MB of joined input,
        # clamped to [8, one reduce wave]. At benchmark scale the
        # measured per-partition aggregator tax dominates (32 -> 16.1 s
        # vs 8 -> 7.6 s joining 150k x 600k slim rows at 32 CPUs); at
        # 100 TB the estimate saturates the clamp and the default is
        # the full CPU wave exactly as before. size_bytes() is parquet
        # metadata for reads and a cheap sample probe for mapped
        # lineages — worst case ~1 s, far under the partition tax.
        est = 0
        for side in (left, right):
            try:
                b = side.size_bytes()
            except Exception:
                b = None
            if b is None:
                est = None
                break
            est += b
        if est is None:
            num_partitions = cpus
        else:
            num_partitions = max(8, min(cpus, math.ceil(est / (32 << 20))))
    apply_to_dataset(left)
    apply_to_dataset(right)
    on = (on,) if isinstance(on, str) else tuple(on)
    right_on = (
        None if right_on is None
        else ((right_on,) if isinstance(right_on, str) else tuple(right_on))
    )
    # Explicit aggregator remote args: Ray's default sizes each join
    # aggregator's LOGICAL memory reservation off target_max_block_size
    # (128 MB × ~8 partitions ≈ 1.7-2.6 GB per aggregator) — a DAG with
    # three joins reserves the whole cluster's memory resource in idle
    # aggregators and deadlocks exactly like the CPU reservations did
    # (see context.py). Our joins move slim pre-projected rows, so pin
    # a modest reservation instead; it is a scheduling hint, not a
    # limit, and the object store backstops real pressure by spilling.
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    max_aggs = getattr(ctx, "max_hash_shuffle_aggregators", None) or 8
    ratio = math.ceil(num_partitions / max(1, min(num_partitions, max_aggs)))
    remote_args = {
        "num_cpus": 0.01 * ratio,
        "memory": 128 * 1024 * 1024 * ratio,
        "scheduling_strategy": "SPREAD",
    }
    try:
        return left.join(
            right,
            join_type=join_type,
            num_partitions=num_partitions,
            on=on,
            right_on=right_on,
            aggregator_ray_remote_args=remote_args,
        )
    except TypeError:  # older Ray without the parameter
        return left.join(
            right,
            join_type=join_type,
            num_partitions=num_partitions,
            on=on,
            right_on=right_on,
        )


def adaptive_key_join(left, right, on: str, *, right_on: str | None = None,
                      small_threshold: int = 200_000,
                      num_partitions: int | None = None):
    """Join a (usually small) ``left`` Dataset with a large ``right``.

    Two regimes, picked by the materialized left row count:

    - left ≤ ``small_threshold``: broadcast path — collect left's key set,
      semi-filter ``right`` down to matching rows (a broadcast ``is_in``
      mask, no shuffle), pull that remainder to the driver once and
      broadcast-join it onto ``left``. The collection is row-capped: a
      right side with many rows per key (non-unique join key) could
      otherwise blow driver memory while left stays under the threshold,
      so past ``4 × small_threshold`` collected rows the join flips to
      the INVERSE broadcast — left itself (≤ ``small_threshold`` rows by
      construction) is collected and joined onto the still-distributed
      filtered right. Either way driver materialization is bounded by
      ``4 × small_threshold`` rows.
    - otherwise: Ray's native hash-partitioned ``Dataset.join``. (The
      native join crashes on partitions that receive zero blocks —
      "No match for key field" from a schema-less empty table — which is
      exactly the small-left regime the broadcast path covers; at scale
      every partition is populated and the hash join is the right tool.)

    ``left`` is materialized either way (it is counted and then
    consumed again).
    """
    right_key = right_on or on
    left = left.materialize()
    n = left.count()
    if n > small_threshold:
        return large_join(left, right, on=on, right_on=right_on,
                          num_partitions=num_partitions)

    def _pa_schema(ds) -> pa.Schema | None:
        # None for a fully-empty derived dataset (zero blocks → Ray has
        # no schema to report); callers fall back to what they do know
        s = ds.schema(fetch_if_missing=True)
        if s is None:
            return None
        return pa.schema(list(zip(s.names, s.types)))

    rs = _pa_schema(right)
    if n == 0:
        import ray.data as rd

        ls = _pa_schema(left)
        fields = (
            [] if ls is None else list(zip(ls.names, ls.types))
        ) + (
            []
            if rs is None
            else [
                (nm, ty)
                for nm, ty in zip(rs.names, rs.types)
                if nm != right_key
            ]
        )
        return rd.from_arrow(pa.schema(fields).empty_table())

    keys = pa.concat_tables(
        [pa.table({on: b[on]}) for b in left.iter_batches(batch_format="pyarrow")]
    )[on].combine_chunks()
    filtered = _semi_join_filter(right, right_key, keys)
    collect_cap = 4 * small_threshold
    matched, n_matched = [], 0
    for b in filtered.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            matched.append(b)
            n_matched += b.num_rows
        if n_matched > collect_cap:
            # fat right side (non-unique key): broadcast LEFT instead —
            # bounded at small_threshold rows by construction — onto the
            # distributed filtered right; inner join is symmetric so the
            # row multiset is identical, only which side streams differs
            left_tbl = pa.concat_tables(
                list(left.iter_batches(batch_format="pyarrow"))
            )
            if right_key != on:
                filtered = _rename_col(filtered, right_key, on)
            return broadcast_join(
                filtered, left_tbl.combine_chunks(), keys=[on]
            )
    if not matched and rs is None:
        # right is a fully-empty derived dataset with no schema: the
        # inner join is empty; keep the key column typed from left
        rs = pa.schema([(right_key, keys.type)])
    small = pa.concat_tables(matched) if matched else rs.empty_table()
    if right_key != on:
        small = small.rename_columns(
            [on if c == right_key else c for c in small.column_names]
        )
    return broadcast_join(left, small.combine_chunks(), keys=[on])


class _PairPayloadAttacher:
    """Per-actor: fetch the broadcast payload table once; per batch:
    attach payload columns for BOTH pair keys via index_in + take."""

    def __init__(self, small_ref, key_a, key_b, side_key, payloads):
        import ray

        self.small = ray.get(small_ref)
        self.key_a, self.key_b, self.side_key = key_a, key_b, side_key
        self.payloads = payloads
        self.keys = self.small[side_key].combine_chunks()

    def _extra_names(self, batch: pa.Table) -> list[str]:
        # non-key pair columns ride along untouched (the large-join
        # regime preserves them too — the two regimes must agree)
        return [
            c
            for c in batch.column_names
            if c not in (self.key_a, self.key_b)
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # may be a schema-less empty block — rebuild from known types
            cols = {
                self.key_a: pa.array([], self.keys.type),
                self.key_b: pa.array([], self.keys.type),
            }
            for name in self._extra_names(batch):
                cols[name] = batch[name].combine_chunks()
            for src, (na, nb) in self.payloads.items():
                empty = self.small[src].combine_chunks().slice(0, 0)
                cols[na] = empty
                cols[nb] = empty
            return pa.table(cols)
        ia = pc.index_in(batch[self.key_a], value_set=self.keys)
        ib = pc.index_in(batch[self.key_b], value_set=self.keys)
        ok = pc.and_(pc.is_valid(ia), pc.is_valid(ib))
        batch, ia, ib = (
            batch.filter(ok), ia.filter(ok), ib.filter(ok)
        )
        cols = {self.key_a: batch[self.key_a], self.key_b: batch[self.key_b]}
        for name in self._extra_names(batch):
            cols[name] = batch[name]
        for src, (na, nb) in self.payloads.items():
            col = self.small[src]
            cols[na] = col.take(ia)
            cols[nb] = col.take(ib)
        return pa.table(cols)


def attach_pair_payloads(pairs, side, *, key_a: str, key_b: str, side_key: str,
                         payloads: dict[str, tuple[str, str]],
                         dedupe: bool = False,
                         small_threshold: int = 200_000,
                         num_partitions: int | None = None):
    """Enrich a pair table with per-key payload columns from ``side``
    (one row per key): for each ``payloads[src] = (name_a, name_b)`` the
    output carries ``side[src]`` looked up at ``key_a`` and ``key_b``.
    Inner-join semantics (pairs with a missing key are dropped).

    Small pair sets (the normal near-dup case) use ONE broadcast pass:
    collect the union key set, semi-filter ``side`` down to matching
    rows, broadcast that bounded remainder, and attach both sides in a
    single map_batches — half the passes and none of the barriers of two
    chained joins. Large pair sets fall back to two hash joins.

    ``dedupe=True`` additionally makes (key_a, key_b) distinct — free in
    the small regime (the pair table is on the driver already, no hash
    exchange), one groupby in the large regime. Non-key pair columns are
    dropped when deduping."""
    pairs = pairs.materialize()
    n = pairs.count()
    if n > small_threshold:
        if num_partitions is None:
            # size partitions to the pair count: the native hash join
            # crashes on partitions that receive zero blocks, so never
            # create far more partitions than the data can populate
            num_partitions = max(2, min(n // 10_000, 64))
        if dedupe:
            from ray.data.aggregate import Count

            pairs = (
                pairs.groupby([key_a, key_b])
                .aggregate(Count(alias_name="_n"))
                .drop_columns(["_n"])
            )

        def rename(mapping):
            # project to the contract columns FIRST: any extra side
            # column would ride into both sequential joins under the
            # same name and produce a duplicate-field schema
            cols = [side_key] + list(payloads)

            def apply(t: pa.Table) -> pa.Table:
                t = t.select(cols)
                return t.rename_columns(
                    [mapping.get(c, c) for c in t.column_names]
                )

            return apply

        out = pairs
        for key, idx in ((key_a, 0), (key_b, 1)):
            mapping = {side_key: key}
            mapping.update({src: names[idx] for src, names in payloads.items()})
            out = large_join(
                out,
                side.map_batches(rename(mapping), batch_format="pyarrow"),
                on=key,
                num_partitions=num_partitions,
            )
        return out

    import ray

    pair_blocks = [
        b.select([key_a, key_b])
        for b in pairs.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if dedupe:
        if pair_blocks:
            distinct = (
                pa.concat_tables(pair_blocks)
                .group_by([key_a, key_b])
                .aggregate([])
            )
        else:
            distinct = pa.schema(
                [(key_a, pa.int64()), (key_b, pa.int64())]
            ).empty_table()
        import ray.data as rd

        pairs = rd.from_arrow(distinct.combine_chunks())
        pair_blocks = [distinct] if distinct.num_rows else []
    if not pair_blocks:
        keys = pa.array([], pa.int64())
    else:
        keys = pc.unique(
            pa.concat_arrays(
                [
                    pa.concat_arrays(
                        [b[key_a].combine_chunks(), b[key_b].combine_chunks()]
                    )
                    for b in pair_blocks
                ]
            )
        )
    matched = [
        b
        for b in _semi_join_filter(side, side_key, keys).iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    cols = [side_key] + list(payloads)
    if matched:
        small = pa.concat_tables(matched).select(cols).combine_chunks()
    else:
        # no matching side rows → inner-join semantics make the result
        # empty regardless of payload types; short-circuit (the side may
        # be a fully-empty derived dataset whose schema Ray cannot even
        # report — payload column types are unknowable here)
        return pairs.limit(0)
    small_ref = ray.put(small)
    return pairs.map_batches(
        _PairPayloadAttacher,
        fn_constructor_kwargs={
            "small_ref": small_ref,
            "key_a": key_a,
            "key_b": key_b,
            "side_key": side_key,
            "payloads": payloads,
        },
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def _semi_join_filter(big, key_column: str, key_set: pa.Array):
    """Broadcast semi join: keep rows whose key is in the set."""

    def apply(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[key_column], value_set=key_set))

    return big.map_batches(apply, batch_format="pyarrow")
