"""Relational building blocks used by the query surface: joins and
exact distributed quantiles.

One join policy (SURVEY.md §2.5), on the tier rule of
:mod:`mdvalidate_ray.tiers`: a build side within the budget is
broadcast — ``ray.put`` once on the driver, read once per worker process
(:func:`~mdvalidate_ray.state.proc_cache.get_or_build`), joined per batch
with Arrow's native hash join (:func:`broadcast_join`).  Past the budget
both sides meet in one two-sided exchange,
:func:`~mdvalidate_ray.exchange.co_partition`, and each bucket runs the
same Arrow join (:func:`hash_join`), the as-of probe
(:func:`asof_join_partitioned`) or a sorted key match
(:func:`copartition_antijoin`).  Ray Data's own ``Dataset.join`` is not
used: its hash-shuffle aggregator actors do not finish in a 1-CPU
session (``tests/test_join_engine.py`` fails on a call to it).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray import tiers


_JOIN_STATE: dict = {}


def _broadcast_join_batch(batch: pa.Table, *, small_ref, keys,
                          join_type: str) -> pa.Table:
    """One batch joined against the broadcast small side, which ships
    once via ``ray.put`` and lives in a per-worker-process cache."""
    import ray

    from mdvalidate_ray.state.proc_cache import get_or_build

    small = get_or_build(_JOIN_STATE, small_ref.hex(),
                         lambda: ray.get(small_ref))
    return batch.join(small, keys=[keys] if isinstance(keys, str)
                      else list(keys), join_type=join_type)


def broadcast_join(ds, small: pa.Table, keys, *, join_type: str = "inner"):
    import ray

    small_ref = ray.put(small)
    return ds.map_batches(
        _broadcast_join_batch,
        fn_kwargs={"small_ref": small_ref, "keys": keys,
                   "join_type": join_type},
        batch_format="pyarrow", zero_copy_batch=True)


def collect_table(mat, cols: list[str]) -> pa.Table:
    """``cols`` of a materialized Dataset as one table on the driver.
    0-row blocks are skipped: a filter leftover can be schema-less.  A
    Dataset with no schema at all (no rows) gives null-typed columns."""
    import ray

    blks = [b.select(cols) for b in
            (ray.get(r) for r in mat.to_arrow_refs()) if b.num_rows]
    if blks:
        return pa.concat_tables(blks)
    schema = mat.schema()
    return (pa.table({c: pa.nulls(0) for c in cols}) if schema is None
            else schema.base_schema.empty_table().select(cols))


def exact_quantiles(ds, column: str, qs, *, as_int: bool = True) -> list:
    """Exact (not sketched) quantiles of a bounded-cardinality numeric
    column: per-batch value counts → tiny ``groupby(value).sum`` → driver
    cumsum.  Matches DuckDB ``quantile_disc``: the value at 1-indexed
    position ``ceil(q * n)`` of the sorted column."""
    def counts(b: pa.Table) -> pa.Table:
        vc = b.column(column).drop_null().value_counts()
        return pa.Table.from_arrays(
            [vc.field("values").cast(pa.float64()),
             vc.field("counts").cast(pa.int64())],
            names=["value", "cnt"])

    merged = ds.map_batches(counts, batch_format="pyarrow",
                            zero_copy_batch=True).groupby("value").sum("cnt")
    rows = sorted((r["value"], r["sum(cnt)"]) for r in merged.take_all())
    values = np.array([v for v, _ in rows])
    cum = np.cumsum([c for _, c in rows])
    n = cum[-1] if len(cum) else 0
    out = []
    for q in qs:
        if n == 0:
            out.append(None)
            continue
        pos = max(int(np.ceil(q * n)), 1)
        idx = int(np.searchsorted(cum, pos, side="left"))
        v = values[min(idx, len(values) - 1)]
        out.append(int(v) if as_int else float(v))
    return out


def _sorted_asof_right(right: pa.Table, key: str, right_time: str,
                       tiebreak: str, value_cols: list[str]):
    """Right side as a pandas frame sorted by (time, tiebreak) — stably, so
    among equal (key, time) rows merge_asof's last-match rule picks the
    greatest tiebreak."""
    cols = [key, right_time, tiebreak] + [c for c in value_cols
                                          if c not in (key, right_time,
                                                       tiebreak)]
    df = right.select(list(dict.fromkeys(cols))).to_pandas()
    return df.sort_values([right_time, tiebreak], kind="stable",
                          ignore_index=True)


def _asof_probe(batch: pa.Table, right_df, *, left_key: str,
                left_time: str, key: str, right_time: str,
                value_cols: list[str], out_schema: pa.Schema) -> pa.Table:
    """Vectorized as-of probe of one Arrow batch against the pre-sorted
    right frame; returns left columns + value_cols (inner semantics).
    The probe is one ``pandas.merge_asof`` call — C searchsorted, no
    Python row loop."""
    import pandas as pd

    if batch.num_rows == 0 or len(right_df) == 0:
        return out_schema.empty_table()

    left = batch.to_pandas()
    order = left[left_time].to_numpy().argsort(kind="stable")
    left_sorted = left.iloc[order]
    rcols = list(dict.fromkeys([key, right_time] + value_cols))
    merged = pd.merge_asof(
        left_sorted, right_df[rcols],
        left_on=left_time, right_on=right_time,
        left_by=left_key, right_by=key,
        direction="backward", allow_exact_matches=True,
        suffixes=("", "__r"))
    # unmatched left rows carry NaN in the right-side time column — the
    # right side never has nulls there, so this is a safe inner-join mask
    probe_col = (f"{right_time}__r" if f"{right_time}__r" in merged.columns
                 else right_time)
    matched = merged[merged[probe_col].notna()]
    out_names = [f.name for f in out_schema]
    return pa.Table.from_pandas(
        matched[out_names], preserve_index=False).cast(out_schema)


def asof_join(left_ds, right_ds, *, key: str, left_time: str,
              right_time: str, tiebreak: str, value_cols: list[str],
              left_key: str | None = None, n_parts: int = 64):
    """Tiered as-of join (mirrors referential.py's broadcast/Bloom tiers):
    a right side within the tier budget (:func:`~mdvalidate_ray.tiers
    .plan_dataset` on the materialized right columns) is collected once
    and broadcast (:func:`asof_join_broadcast`); larger right sides never
    touch the driver — both sides co-partition on a hash
    bucket of the key (:func:`asof_join_partitioned`)."""
    rcols = list(dict.fromkeys([key, right_time, tiebreak] + value_cols))
    # materialize ONCE: count() for the tier decision and the collect /
    # co-partition consumer would otherwise each re-execute the right
    # side's lineage
    right_mat = right_ds.select_columns(rcols).materialize()
    if tiers.plan_dataset(right_mat) != "partitioned":
        return asof_join_broadcast(
            left_ds, collect_table(right_mat, rcols), key=key,
            left_key=left_key, left_time=left_time, right_time=right_time,
            tiebreak=tiebreak, value_cols=value_cols)
    return asof_join_partitioned(
        left_ds, right_mat, key=key, left_key=left_key,
        left_time=left_time, right_time=right_time, tiebreak=tiebreak,
        value_cols=value_cols, n_parts=n_parts)


def asof_join_partitioned(left_ds, right_ds, *, key: str, left_time: str,
                          right_time: str, tiebreak: str,
                          value_cols: list[str], left_key: str | None = None,
                          n_parts: int = 64):
    """Co-partitioned as-of join — the large-right-side tier.

    Both sides meet in ONE :func:`~mdvalidate_ray.exchange.co_partition`
    exchange on the key (the right key cast to the left key's type) and
    each bucket runs the same vectorized ``merge_asof``.  Group-call
    count is bounded by ``n_parts`` (not by distinct keys), and neither
    side is ever materialized on the driver.  Partitioning assumption:
    one bucket's rows (both sides) fit in a worker's heap — size
    ``n_parts`` ≈ total_rows / 5M at corpus scale.
    """
    from mdvalidate_ray.exchange import co_partition

    left_key = left_key or key
    l_schema = left_ds.schema().base_schema
    r_schema = right_ds.schema().base_schema
    out_schema = pa.schema(
        list(l_schema) + [r_schema.field(c) for c in value_cols
                          if c not in l_schema.names])
    rcols = list(dict.fromkeys([key, right_time, tiebreak] + value_cols))

    def per_bucket(left_part: pa.Table, right_part: pa.Table) -> pa.Table:
        right_df = _sorted_asof_right(right_part, key, right_time,
                                      tiebreak, value_cols)
        return _asof_probe(left_part, right_df, left_key=left_key,
                           left_time=left_time, key=key,
                           right_time=right_time, value_cols=value_cols,
                           out_schema=out_schema)

    return co_partition(left_ds, right_ds.select_columns(rcols), per_bucket,
                        n_parts, on=left_key, right_on=key)


_ASOF_STATE: dict = {}


def _asof_broadcast_batch(batch: pa.Table, *, right_ref, key: str,
                          right_time: str, tiebreak: str,
                          value_cols: list[str], left_key: str,
                          left_time: str) -> pa.Table:
    """The broadcast as-of probe of one batch: the right side is sorted
    once per worker PROCESS (cached by broadcast ref)."""
    import ray

    from mdvalidate_ray.state.proc_cache import get_or_build

    def build():
        right = ray.get(right_ref)
        return ([right.schema.field(c) for c in value_cols],
                _sorted_asof_right(right, key, right_time, tiebreak,
                                   value_cols))

    value_fields, right_df = get_or_build(_ASOF_STATE, right_ref.hex(),
                                          build)
    out_schema = pa.schema(
        list(batch.schema)
        + [f for f in value_fields if f.name not in batch.schema.names])
    return _asof_probe(batch, right_df, left_key=left_key,
                       left_time=left_time, key=key, right_time=right_time,
                       value_cols=value_cols, out_schema=out_schema)


def asof_join_broadcast(left_ds, right: pa.Table, *, key: str,
                        left_time: str, right_time: str, tiebreak: str,
                        value_cols: list[str], left_key: str | None = None):
    """left Dataset ⋈asof broadcast right table — the small-right-side
    tier (an operator Ray Data lacks; SURVEY.md §2 "custom operators").

    Semantics: for each left row, pick the right row with the greatest
    ``right_time <= left_time`` for the same key; ties broken by the
    greatest ``tiebreak`` column (deterministic — DuckDB's bare ASOF JOIN
    leaves ties unspecified, so oracles must encode the same rule with a
    row_number window).  Left rows with no match are dropped (inner).

    The right side is ``ray.put`` once and sorted once per worker
    process; the per-batch probe is a single vectorized
    ``pandas.merge_asof`` (C searchsorted under the hood) — no Python
    per-row loop.  Partitioning assumption: the right side fits in worker
    memory; when it does not, use :func:`asof_join_partitioned`, which
    co-partitions both sides on a hash bucket of the key and runs the same
    vectorized merge per bucket."""
    import ray

    right_ref = ray.put(right)
    return left_ds.map_batches(
        _asof_broadcast_batch,
        fn_kwargs=dict(right_ref=right_ref, key=key,
                       right_time=right_time, tiebreak=tiebreak,
                       value_cols=value_cols, left_key=left_key or key,
                       left_time=left_time),
        batch_format="pyarrow", zero_copy_batch=True)


def topk_table(ds, k: int, sort_keys: list[tuple[str, str]]) -> pa.Table:
    """Distributed top-k WITHOUT a full sort: each batch contributes its
    local top-k (one vectorized ``sort_indices`` + slice), the driver
    merges the (#batches × k) survivors.  Replaces both
    ``sort().limit(k)`` (an all-to-all exchange of the whole table) and
    ``take_all()`` + driver sort (an unbounded driver materialization).

    ``sort_keys``: [(column, "ascending"|"descending"), ...].
    """
    import ray

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        idx = pc.sort_indices(b, sort_keys=sort_keys)
        return b.take(idx.slice(0, k))

    # materialize BEFORE to_arrow_refs: on a lazy dataset to_arrow_refs
    # runs the plan twice (full pass + a limit-1 schema probe that can't
    # skip an upstream shuffle); on a materialized one it hands back the
    # existing block refs
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    tbls = [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows]
    if not tbls:
        return parts.schema().base_schema.empty_table()
    merged = pa.concat_tables(tbls).combine_chunks()
    idx = pc.sort_indices(merged, sort_keys=sort_keys)
    return merged.take(idx.slice(0, min(k, merged.num_rows)))


def semi_join_keys(ds, keys_ds, *, left_key: str, right_key: str,
                   fp_rate: float = 0.01, n_buckets: int = 256):
    """Keep rows of ``ds`` whose ``left_key`` appears in
    ``keys_ds[right_key]`` — the semi-join twin of referential.py's
    tiered anti-join, tiered by :func:`~mdvalidate_ray.tiers.plan_dataset`
    on the materialized key column:

    * within the budget: the exact key set broadcasts once via
      ``ray.put`` and each task probes its batch with a vectorized
      ``is_in``.  No shuffle.
    * past it: a Bloom filter broadcasts (fixed ~10 bits/key); certain
      misses drop immediately with no exchange, and only the Bloom's
      maybe-hits (true hits + ~fp_rate false positives) co-partition with
      the key rows over ``n_buckets`` buckets for exact verification
      (:func:`bloom_copartition`).

    A null key matches nothing on either tier (SQL semi-join
    semantics); an empty key set keeps no row."""
    # materialize ONCE (count for the tier decision + the collect/bloom
    # consumer would otherwise re-execute the key lineage)
    keys_mat = keys_ds.select_columns([right_key]).materialize()
    n_keys = keys_mat.count()
    if n_keys == 0:
        # an empty key set (an unchanged CDC snapshot) may come with no
        # schema at all, so there is nothing to collect or probe
        return ds.limit(0)
    if tiers.plan_dataset(keys_mat) != "partitioned":
        import ray

        # a filter() upstream can leave 0-row blocks whose schema is
        # EMPTY (no columns at all) — selecting the key column from one
        # raises KeyError, so skip schema-less empties
        blks = [ray.get(r) for r in keys_mat.to_arrow_refs()]
        keys = pa.concat_tables(
            [b.select([right_key]) for b in blks
             if right_key in b.schema.names]).column(
            right_key).combine_chunks()
        # task-based probe, keys broadcast once via ray.put
        keys_ref = ray.put(keys)

        def probe(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            return batch.filter(pc.is_in(batch.column(left_key),
                                         value_set=ks, skip_nulls=True))

        return ds.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True)

    return bloom_copartition(ds, keys_mat, key=left_key, keys_col=right_key,
                             n_keys=n_keys, fp_rate=fp_rate,
                             n_parts=n_buckets, keep_present=True)


def bloom_copartition(ds, keys_mat, *, key: str, keys_col: str,
                      n_keys: int, fp_rate: float, n_parts: int,
                      keep_present: bool):
    """The past-budget tier of :func:`semi_join_keys` and
    :func:`~mdvalidate_ray.stages.referential.check_refs`: rows of
    ``ds`` whose ``key`` is present in (``keep_present``) or absent
    from the materialized ``keys_mat[keys_col]``.

    A Bloom filter of the key set (~10 bits/key) broadcasts once and
    every task probes its batch against it, decoded once per worker
    process.  The Bloom's certain misses need no exchange — a semi-join
    drops them, an anti-join keeps them — and only its maybe-hits (true
    hits + ~``fp_rate`` false positives) co-partition with the key rows
    for the exact match of :func:`copartition_antijoin`."""
    import ray

    from mdvalidate_ray.stages.referential import build_bloom
    from mdvalidate_ray.state.proc_cache import get_or_build
    from mdvalidate_ray.state.sketches import BloomFilter

    bloom_ref = ray.put(build_bloom(keys_mat, column=keys_col,
                                    n_items=n_keys,
                                    fp_rate=fp_rate).to_bytes())

    def probe(batch: pa.Table) -> pa.Table:
        bf = get_or_build(
            _JOIN_STATE, ("bloom", bloom_ref.hex()),
            lambda: BloomFilter.from_bytes(ray.get(bloom_ref)))
        hits = bf.might_contain(
            [str(v) for v in batch.column(key).to_pylist()])
        return batch.append_column(
            "_maybe", pa.array(np.asarray(hits, dtype=bool)))

    def keep(maybe: bool):
        def f(b: pa.Table) -> pa.Table:
            m = b.column("_maybe")
            return b.filter(m if maybe else pc.invert(m)) \
                    .drop_columns(["_maybe"])
        return f

    probed = ds.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True)
    if not keep_present:
        # both branches read the probe: materialize it once
        probed = probed.materialize()
    # the maybe-hits keep the input's columns: asking the filtered stream
    # for them would re-run the probe under a limit(1), all of it when no
    # row maybe-hits
    schema = (ds if keep_present else probed).schema()
    matched = _copartition_match(
        probed.map_batches(keep(True), batch_format="pyarrow"), keys_mat,
        key=key, keys_col=keys_col, n_parts=n_parts,
        keep_present=keep_present,
        schema=None if schema is None else pa.schema(
            [f for f in schema.base_schema if f.name != "_maybe"]))
    if keep_present:
        return matched
    return probed.map_batches(keep(False),
                              batch_format="pyarrow").union(matched)


def sessionize(events_ds, *, key: str, time_col: str,
               gap_seconds: float, agg_value: str | None = None,
               n_parts: int = 64):
    """Session windows: consecutive events of one key belong to one session
    while the gap between them is ≤ ``gap_seconds`` (the classic streaming
    session-window semantics, computed batch-side).

    Plan: co-partition on a coarse key bucket
    (:func:`~mdvalidate_ray.exchange.by_bucket`) — ONE exchange, and the
    number of Python group calls is bounded by ``n_parts``, not by
    distinct keys (grouping by the raw key paid one
    ``map_groups`` call per user — billions of calls at corpus scale).
    Inside each bucket the whole (key, time)-sorted frame sessionizes
    vectorized: one diff + cumsum across ALL keys at once, then a single
    pandas groupby-agg.  Partitioning assumption: one bucket's events fit
    in a worker's heap (size n_parts ≈ total_rows / 5M).
    """
    from mdvalidate_ray.exchange import by_bucket

    out_fields = [(key, pa.int64()), ("session_id", pa.int64()),
                  ("n_events", pa.int64()),
                  ("start_ts", pa.timestamp("us")),
                  ("end_ts", pa.timestamp("us"))]
    if agg_value:
        out_fields.append(("sum_value", pa.float64()))
    out_schema = pa.schema(out_fields)
    gap_us = int(gap_seconds * 1_000_000)

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return out_schema.empty_table()
        df = g.to_pandas()
        df["_ts"] = df[time_col].astype("int64")          # µs
        df = df.sort_values([key, "_ts"], kind="stable", ignore_index=True)
        ts = df["_ts"].to_numpy()
        keys_np = df[key].to_numpy()
        new_key = np.empty(len(df), dtype=bool)
        new_key[0] = True
        new_key[1:] = keys_np[1:] != keys_np[:-1]
        gap_break = np.empty(len(df), dtype=bool)
        gap_break[0] = True
        gap_break[1:] = (ts[1:] - ts[:-1]) > gap_us
        new_session = new_key | gap_break
        sid_global = np.cumsum(new_session) - 1
        df["_sid"] = sid_global
        aggs = {key: (key, "first"), "n_events": ("_sid", "size"),
                "start_ts": ("_ts", "min"), "end_ts": ("_ts", "max")}
        if agg_value:
            aggs["sum_value"] = (agg_value, "sum")
        out = df.groupby("_sid", sort=True).agg(**aggs)
        # per-key ordinal session ids (0-based, time order)
        out["session_id"] = out.groupby(key).cumcount()
        cols = {key: pa.array(out[key].to_numpy(), pa.int64()),
                "session_id": pa.array(out["session_id"].to_numpy(),
                                       pa.int64()),
                "n_events": pa.array(out["n_events"].to_numpy(), pa.int64()),
                "start_ts": pa.array(out["start_ts"].to_numpy(),
                                     pa.timestamp("us")),
                "end_ts": pa.array(out["end_ts"].to_numpy(),
                                   pa.timestamp("us"))}
        if agg_value:
            cols["sum_value"] = pa.array(out["sum_value"].to_numpy(),
                                         pa.float64())
        return pa.Table.from_arrays(list(cols.values()),
                                    schema=out_schema)

    return by_bucket(events_ds, key, per_bucket, n_parts)


def sliding_window_counts(events_ds, *, time_col: str, group_col: str,
                          window_seconds: int, step_seconds: int):
    """Sliding-window counts: each event contributes to every window of
    length ``window_seconds`` advancing by ``step_seconds`` that covers it.

    Per-batch the window assignment is a vectorized fan-out (an event lands
    in ``window/step`` windows) followed by an in-batch combiner, so the
    groupby exchange moves (group, window, partial-count) rows only.
    """
    import numpy as np

    if window_seconds % step_seconds:
        raise ValueError(
            f"window_seconds ({window_seconds}) must be a multiple of "
            f"step_seconds ({step_seconds}); a fractional fanout would "
            "silently under-count windows partially covering an event")
    fanout = window_seconds // step_seconds
    step_us = step_seconds * 1_000_000

    def assign(b: pa.Table) -> pa.Table:
        ts = b.column(time_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)                     # µs
        groups = b.column(group_col).to_pylist()
        last = (ts // step_us) * step_us              # latest window start
        starts = last[:, None] - (np.arange(fanout) * step_us)[None, :]
        n = len(ts)
        tbl = pa.Table.from_arrays(
            [pa.array([groups[i] for i in np.repeat(np.arange(n), fanout)],
                      pa.string()),
             pa.array(starts.ravel()),
             pa.array(np.ones(n * fanout, dtype=np.int64))],
            names=[group_col, "window_start_us", "cnt"])
        g = pa.TableGroupBy(tbl, [group_col, "window_start_us"]).aggregate(
            [("cnt", "sum")])
        return g.rename_columns([group_col, "window_start_us", "cnt"])

    agg = events_ds.map_batches(assign, batch_format="pyarrow",
                                zero_copy_batch=True) \
                   .groupby([group_col, "window_start_us"]).sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column(group_col), b.column("window_start_us"),
             b.column("sum(cnt)").cast(pa.int64())],
            names=[group_col, "window_start_us", "cnt"]),
        batch_format="pyarrow")


def write_bucketed(ds, path: str, *, key: str, n_buckets: int = 64,
                   **write_kwargs):
    """Hash-bucketed partition-keyed parquet layout: rows with the same key
    always land in the same ``bucket=K/`` directory, so later joins or
    groupbys on that key can co-read buckets without an all-to-all
    exchange, and a failed write can be resumed per bucket."""
    from mdvalidate_ray.state.sketches import hash_strings

    def add_bucket(b: pa.Table) -> pa.Table:
        import numpy as np

        keys = [str(v) for v in b.column(key).to_pylist()]
        bucket = (hash_strings(keys) % np.uint64(n_buckets)).astype("int64")
        return b.append_column("bucket", pa.array(bucket))

    with_bucket = ds.map_batches(add_bucket, batch_format="pyarrow",
                                 zero_copy_batch=True)
    with_bucket.write_parquet(path, partition_cols=["bucket"],
                              **write_kwargs)
    return path


def range_join_count(events_ds, intervals_ds, *, key: str, time_col: str,
                     id_col: str, start_col: str, end_col: str,
                     n_parts: int = 32):
    """Keyed RANGE join with count aggregation: for every interval row
    ``(key, id, start, end)``, the number of event rows of the same key
    with ``start <= ts <= end`` (inclusive) — ``JOIN … ON e.key = i.key
    AND e.ts BETWEEN i.start AND i.end`` in SQL, an operator Ray Data
    lacks (as-of join's sibling: N-to-interval containment instead of
    latest-preceding).

    Plan: the events, narrowed to (key as int64, µs time as int64),
    meet the intervals in ONE :func:`~mdvalidate_ray.exchange.co_partition`
    on the key (group calls bounded by n_parts, not keys; the interval
    key is cast to int64 there).  Inside
    a bucket the probe is fully vectorized with a composite-key trick:
    event times collapse to one sorted int64 array of
    ``key_code * span + (ts - t_min)`` and every interval becomes two
    ``np.searchsorted`` probes on it — no per-key or per-interval Python
    loop.  Intervals whose key has no events count 0 (left-join
    semantics).  Output: (key, id_col, n_matched).

    Partitioning assumption: one bucket's rows fit in a worker's heap.
    The composite trick needs ``(#keys_in_bucket + 1) × time_span`` to
    fit int64 — asserted; at a month of µs timestamps that allows ~3.5M
    distinct keys per bucket, far above the heap bound anyway.
    """
    from mdvalidate_ray.exchange import co_partition

    out_schema = pa.schema([(key, pa.int64()), (id_col, pa.int64()),
                            ("n_matched", pa.int64())])
    ev_schema = pa.schema([(key, pa.int64()), (time_col, pa.int64())])

    def us(col) -> np.ndarray:
        return col.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)

    def per_bucket(ev: pa.Table, iv: pa.Table) -> pa.Table:
        if iv.num_rows == 0:
            return out_schema.empty_table()
        iv_keys = iv.column(key).to_numpy(zero_copy_only=False)
        iv_ids = iv.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        if ev.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array(iv_keys), pa.array(iv_ids),
                 pa.array(np.zeros(len(iv_ids), dtype="int64"))],
                schema=out_schema)
        ev_keys = ev.column(key).to_numpy(zero_copy_only=False)
        ts = ev.column(time_col).to_numpy(zero_copy_only=False)
        starts, ends = us(iv.column(start_col)), us(iv.column(end_col))
        # composite codes over the union of keys on both sides
        all_keys, codes = np.unique(np.concatenate([ev_keys, iv_keys]),
                                    return_inverse=True)
        ev_code = codes[:len(ev_keys)].astype(np.int64)
        iv_code = codes[len(ev_keys):].astype(np.int64)
        t_min = min(ts.min(), starts.min())
        span = int(max(ts.max(), ends.max()) - t_min) + 2
        assert (len(all_keys) + 1) * span < 2**63, \
            "composite key range overflows int64; raise n_parts"
        comp = np.sort(ev_code * span + (ts - t_min))
        lo = np.searchsorted(
            comp, iv_code * span + np.maximum(starts - t_min, 0), "left")
        hi = np.searchsorted(
            comp, iv_code * span + np.minimum(ends - t_min, span - 2),
            "right")
        # degenerate start > end intervals count 0, not negative
        return pa.Table.from_arrays(
            [pa.array(iv_keys), pa.array(iv_ids),
             pa.array(np.maximum(hi - lo, 0).astype("int64"))],
            schema=out_schema)

    def narrow(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column(key).cast(pa.int64()),
             pa.array(us(b.column(time_col)))], schema=ev_schema)

    return co_partition(
        events_ds.map_batches(narrow, batch_format="pyarrow",
                              zero_copy_batch=True),
        intervals_ds.select_columns([key, id_col, start_col, end_col]),
        per_bucket, n_parts, on=key, left_schema=ev_schema)


def bucketed_distinct(ds, cols: list[str], *, n_parts: int = 32):
    """Distinct rows over ``cols`` as a streaming Dataset: per-batch
    distinct combiner (a hot key contributes ONE row per batch to the
    exchange) → one coarse key-bucket exchange over all of ``cols``
    (:func:`~mdvalidate_ray.exchange.by_bucket`) → vectorized
    in-bucket distinct (``TableGroupBy.aggregate([])``, no Python loop).
    Group calls are bounded by ``n_parts``; nothing corpus-sized touches
    the driver — consume with ``write_parquet`` / ``take_all`` as the
    result size dictates."""
    from mdvalidate_ray.exchange import by_bucket

    def distinct(b: pa.Table) -> pa.Table:
        return pa.TableGroupBy(b.select(cols), cols).aggregate([])

    return by_bucket(ds.map_batches(distinct, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     cols, distinct, n_parts)


def bucketed_group_sum(ds, *, key: str, sum_cols: list[str],
                       out_names: list[str] | None = None,
                       n_parts: int = 32):
    """Exact per-key sums of already-pre-combined (key, partial…) rows via
    ONE coarse key-bucket exchange (:func:`~mdvalidate_ray.exchange.by_bucket`)
    and a fully-vectorized in-bucket Arrow group-sum — measured ~3× faster than
    ``groupby(key).sum`` (whose sort-based shuffle orders the whole
    table by the raw key), and skew-proof by construction (reducers key
    on the bucket; in-bucket reduction is vectorized, so a hot key costs
    nothing extra).

    Deterministic for float partials: each bucket sorts by
    ``(key, *sum_cols)`` before folding, so the float-addition order
    does not depend on block arrival order.
    """
    return bucketed_group_agg(ds, key=key, agg_cols=sum_cols,
                              aggs=["sum"] * len(sum_cols),
                              out_names=out_names, n_parts=n_parts)


def bucketed_group_agg(ds, *, key: str, agg_cols: list[str],
                       aggs: list[str],
                       out_names: list[str] | None = None,
                       n_parts: int = 32):
    """:func:`bucketed_group_sum` generalized to any decomposable Arrow
    group aggregate (``sum`` / ``min`` / ``max``) per column — same ONE
    coarse key-bucket exchange, same vectorized in-bucket
    fold, same skew-proofness.  Inputs are expected to be per-batch
    partials of the same aggregate (min of mins is min, etc.)."""
    from mdvalidate_ray.exchange import by_bucket

    out_names = out_names or agg_cols

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(
            g, sort_keys=[(c, "ascending") for c in [key] + agg_cols]))
        agg = pa.TableGroupBy(g, key).aggregate(
            list(zip(agg_cols, aggs)))
        return agg.rename_columns([key] + list(out_names))

    return by_bucket(ds, key, per_bucket, n_parts)


def pack_sequences(meta_ds, *, key: str, order_col: str, tokens_col: str,
                   capacity: int, n_parts: int = 8):
    """Greedy sequential sequence packing — the training-data step that
    concatenates documents into fixed-capacity token bins to minimize
    padding.  Within each ``key`` group, rows are scanned in ``order_col``
    order and appended to the current bin while the bin's token total
    stays ≤ ``capacity``; overflow opens a new bin, and a single row
    larger than ``capacity`` occupies a bin alone.  Returns one row per
    (key, bin) with 1-based ``bin_id``, ``n_docs`` and ``bin_tokens``.

    Plan: only (key, order, n_tok) METADATA shuffles — the document texts
    never move; a coarse key-bucket co-partition bounds group
    calls at ``n_parts`` (one call per distinct key would be one per
    corpus shard at scale).  Inside a bucket the scan is a per-BIN jump
    loop (``np.searchsorted`` over the token cumsum finds each bin's end
    in O(log n)), so Python-level iterations equal the number of bins
    emitted, not the number of rows.  The packing recurrence itself is
    inherently sequential per key — the reference point for the semantics
    is first-fit-in-order, the same contract a recursive SQL scan
    expresses.  Partitioning assumption: one bucket's metadata fits in a
    worker's heap (~24 bytes/row)."""
    from mdvalidate_ray.exchange import by_bucket

    out_schema = pa.schema([(key, pa.string()), ("bin_id", pa.int64()),
                            ("n_docs", pa.int64()),
                            ("bin_tokens", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return out_schema.empty_table()
        g = g.take(pc.sort_indices(g, sort_keys=[(key, "ascending"),
                                                 (order_col, "ascending")]))
        keys = np.asarray(g.column(key).to_pandas())
        toks = g.column(tokens_col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        # contiguous key segments after the sort
        seg_starts = np.flatnonzero(
            np.r_[True, keys[1:] != keys[:-1]])
        seg_ends = np.r_[seg_starts[1:], len(keys)]
        out_key, out_bin, out_docs, out_tok = [], [], [], []
        for s, e in zip(seg_starts, seg_ends):
            c = np.cumsum(toks[s:e])
            start, prev, bin_id = 0, 0, 0
            n = e - s
            while start < n:
                j = int(np.searchsorted(c, prev + capacity, side="right"))
                if j <= start:          # oversized row: bin of its own
                    j = start + 1
                bin_id += 1
                out_key.append(keys[s])
                out_bin.append(bin_id)
                out_docs.append(j - start)
                out_tok.append(int(c[j - 1] - prev))
                prev = int(c[j - 1])
                start = j
        return pa.Table.from_arrays(
            [pa.array([str(k) for k in out_key], pa.string()),
             pa.array(out_bin, pa.int64()),
             pa.array(out_docs, pa.int64()),
             pa.array(out_tok, pa.int64())], schema=out_schema)

    return by_bucket(meta_ds, key, per_bucket, n_parts)


def group_count_distinct(ds, *, group_col: str, distinct_col: str,
                         n_parts: int = 64, out_name: str = "n_distinct"):
    """Exact ``COUNT(DISTINCT distinct_col) GROUP BY group_col`` at scale.

    Naive plans either shuffle every raw row on ``group_col`` (hot groups
    melt one reducer) or approximate with HLL.  This one is exact and
    skew-proof: each batch first reduces to its DISTINCT (group, value)
    pairs (the in-batch combiner — repeated pairs never leave the
    block), pairs then co-partition on the (group, value) key bucket,
    so every surviving copy of one pair meets in exactly ONE bucket;
    per-bucket dedup + per-group count therefore yields partial counts
    that SUM exactly across buckets, and only (group, partial_cnt) rows
    enter the final fold (:func:`bucketed_group_sum`).  A hot group's
    pairs spread evenly over all buckets — the skew lands on the
    pair-hash, not the group.  Group calls are bounded by ``n_parts``
    per stage.  Partitioning assumption: one bucket's distinct pairs fit
    in a worker's heap (size ``n_parts`` ≈ distinct_pairs / 5M)."""
    from mdvalidate_ray.exchange import by_bucket

    pair_cols = [group_col, distinct_col]

    def pair_partial(b: pa.Table) -> pa.Table:
        return b.select(pair_cols).group_by(pair_cols).aggregate([])

    def per_bucket(g: pa.Table) -> pa.Table:
        dedup = g.group_by(pair_cols).aggregate([])
        cnt = dedup.group_by(group_col).aggregate([([], "count_all")])
        return cnt.rename_columns([group_col, "cnt"])

    partials = by_bucket(ds.map_batches(pair_partial,
                                        batch_format="pyarrow",
                                        zero_copy_batch=True),
                         pair_cols, per_bucket, n_parts)
    return bucketed_group_sum(partials, key=group_col, sum_cols=["cnt"],
                              out_names=[out_name], n_parts=16)


def hash_join(left_ds, right_ds, *, on: str, right_on: str | None = None,
              n_parts: int = 32, join_type: str = "inner"):
    """Equi-join of two Datasets on the tier rule; the right side is the
    build side.  It is materialized once and sized with
    :func:`~mdvalidate_ray.tiers.plan_dataset`:

    * an ``inner`` or ``left_outer`` join whose right side is within the
      budget is a :func:`broadcast_join` (the right key renamed to the
      left one, no shuffle);
    * past the budget, and always for ``right_outer`` / ``full_outer``
      (not exact per left batch), both sides meet in one
      :func:`~mdvalidate_ray.exchange.co_partition` exchange over
      ``n_parts`` buckets and each bucket runs ``pa.Table.join``.

    Both tiers keep ``pa.Table.join``'s semantics: keys coalesce into the
    left name for inner, left and full outer joins, a right outer join
    keeps the right key name, and a null key never matches.  ``join_type``
    takes Ray's names (``left_outer``) or Arrow's (``left outer``).
    Arrow's join rejects nested non-key columns; join such tables with
    :func:`~mdvalidate_ray.exchange.co_partition` and a matcher of their
    own, as :func:`copartition_antijoin` does."""
    from mdvalidate_ray.exchange import co_partition

    right_on = right_on or on
    how = join_type.replace("_", " ")
    right_mat = right_ds.materialize()
    if tiers.plan_dataset(right_mat) != "partitioned" and \
            how in ("inner", "left outer"):
        names = right_mat.schema().names
        small = collect_table(right_mat, names).rename_columns(
            [on if n == right_on else n for n in names])
        return broadcast_join(left_ds, small, on, join_type=how)
    return co_partition(
        left_ds, right_mat,
        lambda lt, rt: lt.join(rt, keys=on, right_keys=right_on,
                               join_type=how),
        n_parts, on=on, right_on=right_on)


def latest_per_key(ds, *, key: str, order_cols: list[str],
                   n_parts: int = 64):
    """Compaction / upsert resolution: each key's single LATEST row by
    ``order_cols`` (descending, left-to-right tiebreak) — the CDC
    "last write wins" and slowly-changing-dimension collapse.

    Per-batch argmax first (sort the block by key + order_cols
    descending, keep each key's first row — at most one row per (key,
    block) survives), then ONE coarse key-bucket exchange
    re-runs the same vectorized argmax per bucket.  A key updated in
    every block contributes one row per block to the shuffle, never its
    full history; group calls are bounded by ``n_parts``."""
    from mdvalidate_ray.exchange import by_bucket

    def block_latest(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        sort_keys = [(key, "ascending")] + [(c, "descending")
                                            for c in order_cols]
        b = b.take(pc.sort_indices(b, sort_keys=sort_keys))
        keys = np.asarray(b.column(key).to_pandas())
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        return b.take(pa.array(first, pa.int64()))

    return by_bucket(ds.map_batches(block_latest, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     key, block_latest, n_parts)


def shuffle_shards(ds, *, key: str = "doc_id", n_shards: int = 8,
                   salt: str = "shuf"):
    """Deterministic global shuffle for training-data layout:
    ``(key, shard, pos)`` where ``shard = md5_number_lower(salt||key) %
    n_shards`` and ``pos`` ranks rows inside the shard by (hash, key).

    ``random_shuffle`` gives a different order every run (useless for
    resumable jobs) and pays a full unordered all-to-all.  Hashing gives
    the same statistical decorrelation with ONE deterministic exchange:
    stable under re-runs, repartitioning and cluster size, and
    SQL-auditable.  Pick ``n_shards`` so one shard fits a worker (100 TB
    → ~25k shards of ~4 GB): the per-shard sort is a single in-memory
    ``np.lexsort`` inside ``map_groups``, group calls bounded by
    ``n_shards``; writing each group straight to its shard file makes
    the layout resumable per shard."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    def tag(b: pa.Table) -> pa.Table:
        ks = [salt + str(v) for v in b.column(key).to_pylist()]
        if not ks:
            return pa.table({key: pa.array([], b.column(key).type),
                             "_h": pa.array([], pa.uint64()),
                             "shard": pa.array([], pa.int64())})
        h = _md5_token_hashes(ks)
        return pa.Table.from_arrays(
            [b.column(key), pa.array(h),
             pa.array((h % np.uint64(n_shards)).astype("int64"))],
            names=[key, "_h", "shard"])

    def rank(g: pa.Table) -> pa.Table:
        h = np.asarray(g.column("_h").to_pandas(), dtype=np.uint64)
        ids = np.asarray(g.column(key).to_pandas())
        order = np.lexsort((ids, h))
        pos = np.empty(len(order), dtype=np.int64)
        pos[order] = np.arange(len(order))
        return pa.Table.from_arrays(
            [g.column(key), g.column("shard"), pa.array(pos)],
            names=[key, "shard", "pos"])

    return (ds.map_batches(tag, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("shard")
            .map_groups(rank, batch_format="pyarrow"))


def group_zscore(ds, *, group_col: str, value_col: str,
                 out_col: str = "z_bp", keep_cols: list[str] | None = None):
    """Per-group z-score normalization in basis points:
    ``round((x - mean) / std * 10000)`` with population std, emitted as
    int64 so the value is float-order-proof (inputs are exact integer
    moments; both engines evaluate the identical double expression).

    Two-phase broadcast shape — the 100-TB-safe form of a windowed
    ``AVG/STDDEV OVER (PARTITION BY g)``: per-batch integer partials
    ``(count, sum, sum of squares)`` pre-combine before ONE tiny
    exchange (rows = distinct groups), the moments broadcast via
    ``ray.put``, and a second streaming pass annotates every row — the
    big table is read twice but never shuffled."""
    import ray

    def partial(b: pa.Table) -> pa.Table:
        x = b.column(value_col).cast(pa.int64())
        t = pa.Table.from_arrays(
            [b.column(group_col), x, pc.multiply(x, x),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=[group_col, "_s1", "_s2", "_c"])
        g = pa.TableGroupBy(t, group_col).aggregate(
            [("_s1", "sum"), ("_s2", "sum"), ("_c", "sum")])
        return g.rename_columns([group_col, "_s1", "_s2", "_c"])

    rows = (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(group_col)
            .sum(["_s1", "_s2", "_c"])
            .take_all())                     # rows = distinct groups: tiny
    moments = {}
    for r in rows:
        c = float(r["sum(_c)"])
        mean = float(r["sum(_s1)"]) / c
        var = float(r["sum(_s2)"]) / c - mean * mean
        moments[r[group_col]] = (mean, np.sqrt(var) if var > 0 else 0.0)
    ref = ray.put(moments)

    cols = keep_cols if keep_cols is not None else [group_col]

    def annotate(b: pa.Table) -> pa.Table:
        mo = ray.get(ref)
        keys = b.column(group_col).to_pylist()
        mean = np.asarray([mo[k][0] for k in keys])
        sd = np.asarray([mo[k][1] for k in keys])
        x = np.asarray(b.column(value_col).to_pandas(), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0, (x - mean) / sd * 10000.0, 0.0)
        # DuckDB round(): half away from zero
        zi = np.where(z >= 0, np.floor(z + 0.5), np.ceil(z - 0.5))
        out = b.select(cols)
        return out.append_column(out_col,
                                 pa.array(zi.astype(np.int64)))

    return ds.map_batches(annotate, batch_format="pyarrow",
                          zero_copy_batch=True)


def funnel_counts(ds, *, key: str, time_col: str, type_col: str,
                  steps: list[str], n_parts: int = 32):
    """Ordered-funnel analytics: for each step k, the number of keys
    (users) whose events contain the subsequence ``steps[0] → … →
    steps[k]`` in strictly increasing ``time_col`` order, using each
    step's EARLIEST qualifying time (the standard greedy funnel, exactly
    the chained ``min(ts) … WHERE ts > prev`` SQL).

    Scale shape: rows co-partition ONCE on the key bucket (a
    user's whole history meets in one bucket — the sessionize pattern);
    inside a bucket the chain is len(steps) vectorized merge+groupby-min
    passes, no per-user Python.  Buckets emit one partial row per step;
    only ``n_parts × len(steps)`` rows reach the final fold."""
    from mdvalidate_ray.exchange import by_bucket

    step_arr = pa.array(steps, pa.string())

    def in_steps(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b.column(type_col), value_set=step_arr))

    out_schema = pa.schema([("step", pa.int64()), ("n_users", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        prev = None
        counts = []
        for st in steps:
            sub = df[df[type_col] == st][[key, time_col]]
            if prev is not None:
                sub = sub.merge(
                    prev.rename("prev_t").reset_index(), on=key)
                sub = sub[sub[time_col] > sub["prev_t"]]
            t = sub.groupby(key)[time_col].min()
            counts.append(len(t))
            prev = t
        return pa.Table.from_arrays(
            [pa.array(range(1, len(steps) + 1), pa.int64()),
             pa.array(counts, pa.int64())],
            schema=out_schema)

    partials = by_bucket(ds.map_batches(in_steps, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         key, per_bucket, n_parts)
    folded = partials.groupby("step").sum("n_users")
    return folded.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("step"),
             b.column("sum(n_users)").cast(pa.int64())],
            names=["step", "n_users"]),
        batch_format="pyarrow")


def cohort_retention(ds, *, key: str, time_col: str, type_col: str,
                     signup_type: str, n_parts: int = 32):
    """Cohort retention matrix: users cohorted by the DAY of their first
    ``signup_type`` event; for every later event, the whole-day offset
    from that first signup — output (cohort_day, day_offset,
    n_users) with distinct-user counts.

    ONE co-partition exchange on the key bucket (a user's
    events meet in one bucket, so per-bucket distinct users are globally
    distinct and partial counts ADD exactly — no count-distinct
    shuffle); inside a bucket everything is pandas groupby/merge
    vectorized.  Final fold is a tiny ``groupby(cohort, offset).sum``
    over ``n_parts × |matrix|`` partial rows."""
    from mdvalidate_ray.exchange import by_bucket

    out_schema = pa.schema([("cohort", pa.string()),
                            ("day_offset", pa.int64()),
                            ("n_users", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        first = (df[df[type_col] == signup_type]
                 .groupby(key)[time_col].min().rename("ft").reset_index())
        if first.empty:
            return out_schema.empty_table()
        act = df[[key, time_col]].merge(first, on=key)
        act = act[act[time_col] >= act["ft"]]
        secs = (act[time_col].values.astype("datetime64[us]").astype("int64")
                - act["ft"].values.astype("datetime64[us]").astype("int64"))
        act["day_offset"] = secs // (86_400 * 1_000_000)
        act["cohort"] = act["ft"].dt.strftime("%Y-%m-%d")
        cnt = (act.drop_duplicates([key, "cohort", "day_offset"])
               .groupby(["cohort", "day_offset"]).size()
               .rename("n_users").reset_index())
        return pa.Table.from_pandas(cnt, preserve_index=False) \
            .cast(out_schema)

    partials = by_bucket(ds, key, per_bucket, n_parts)
    folded = partials.groupby(["cohort", "day_offset"]).sum("n_users")
    return folded.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("cohort"), b.column("day_offset"),
             b.column("sum(n_users)").cast(pa.int64())],
            names=["cohort", "day_offset", "n_users"]),
        batch_format="pyarrow")


def _group_value_counts(ds, group_col: str, value_col: str, fn,
                        n_parts: int):
    """Shared front half of :func:`group_mode` / :func:`group_entropy`:
    per-batch ``(group, value) → count`` combiner (a hot group/value pair
    contributes ONE row per batch to the exchange), co-partitioned on the
    group so a group's partials meet in one bucket, where ``fn`` runs."""
    from mdvalidate_ray.exchange import by_bucket

    def pre(b: pa.Table) -> pa.Table:
        sel = b.select([group_col, value_col])
        sel = sel.append_column(
            "_c", pa.array(np.ones(sel.num_rows, dtype=np.int64)))
        g = pa.TableGroupBy(sel, [group_col, value_col]).aggregate(
            [("_c", "sum")])
        return g.rename_columns([group_col, value_col, "_c"])

    return by_bucket(ds.map_batches(pre, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     group_col, fn, n_parts)


def _fold_group_value_counts(g: pa.Table, group_col: str,
                             value_col: str) -> pa.Table:
    """In-bucket exact fold of (group, value, _c) partials, returned
    sorted by (group, value) so downstream float folds are order-stable."""
    agg = pa.TableGroupBy(g, [group_col, value_col]).aggregate(
        [("_c", "sum")])
    agg = agg.rename_columns([group_col, value_col, "_c"])
    return agg.take(pc.sort_indices(
        agg, sort_keys=[(group_col, "ascending"),
                        (value_col, "ascending")]))


def group_mode(ds, *, group_col: str, value_col: str,
               out_col: str = "mode_value", cnt_col: str = "cnt",
               n_parts: int = 32):
    """Most frequent ``value_col`` per ``group_col`` (the MODE aggregate)
    with a deterministic tie-break: on equal counts the SMALLEST value
    wins — exactly ``row_number() OVER (PARTITION BY g ORDER BY count(*)
    DESC, v) = 1`` in SQL.

    Scale shape: per-batch (group, value) count combiner → ONE coarse
    group-bucket exchange of partial-count rows → vectorized
    in-bucket fold + per-group argmax (sort by (group, -cnt, value), take
    each group's first row via an adjacent-inequality boundary mask).
    Group calls are bounded by ``n_parts``; a hot group costs one partial
    row per (batch, distinct value), never a raw-row shuffle."""
    def per_bucket(g: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(g, [group_col, value_col]).aggregate(
            [("_c", "sum")])
        agg = agg.rename_columns([group_col, value_col, "_c"])
        agg = agg.take(pc.sort_indices(
            agg, sort_keys=[(group_col, "ascending"),
                            ("_c", "descending"),
                            (value_col, "ascending")]))
        keys = agg.column(group_col).combine_chunks()
        if len(keys) == 0:
            first = np.zeros(0, dtype=np.int64)
        else:
            neq = pc.not_equal(keys.slice(1), keys.slice(0, len(keys) - 1))
            first = np.flatnonzero(
                np.concatenate([[True],
                                np.asarray(neq, dtype=bool)]))
        out = agg.take(pa.array(first))
        return out.rename_columns([group_col, out_col, cnt_col])

    return _group_value_counts(ds, group_col, value_col, per_bucket,
                               n_parts)


def group_entropy(ds, *, group_col: str, value_col: str,
                  out_col: str = "entropy_e4", n_parts: int = 32):
    """Shannon entropy (log2) of the ``value_col`` distribution per
    ``group_col``, scaled ×10000 and rounded half-away-from-zero to
    int64 so the value-hash compare is float-order-proof.  Semantics:
    ``-Σ (c/n)·log2(c/n)`` over each group's exact value counts — the
    explicit-SQL form of DuckDB's ``entropy()`` aggregate.

    Same scale shape as :func:`group_mode`: count partials pre-combine in
    every batch, ONE coarse exchange, and the entropy fold inside the
    bucket is pure numpy over the folded counts (``np.add.reduceat`` on
    group boundaries — no per-group Python).  Terms sum in sorted
    (group, value) order, so the double result is deterministic."""
    def per_bucket(g: pa.Table) -> pa.Table:
        agg = _fold_group_value_counts(g, group_col, value_col)
        keys = agg.column(group_col).combine_chunks()
        if len(keys) == 0:
            return pa.Table.from_arrays(
                [pa.array([], keys.type), pa.array([], pa.int64())],
                names=[group_col, out_col])
        neq = pc.not_equal(keys.slice(1), keys.slice(0, len(keys) - 1))
        starts = np.flatnonzero(
            np.concatenate([[True], np.asarray(neq, dtype=bool)]))
        c = np.asarray(agg.column("_c").combine_chunks(),
                       dtype=np.float64)
        n = np.add.reduceat(c, starts)
        clogc = np.add.reduceat(c * np.log2(c), starts)
        ent = np.log2(n) - clogc / n
        e4 = np.floor(ent * 10000.0 + 0.5)  # ent >= 0: half away = +0.5
        return pa.Table.from_arrays(
            [keys.take(pa.array(starts)),
             pa.array(e4.astype(np.int64))],
            names=[group_col, out_col])

    return _group_value_counts(ds, group_col, value_col, per_bucket,
                               n_parts)


def group_concat(ds, *, group_col: str, value_col: str,
                 out_col: str = "joined", sep: str = ",",
                 n_parts: int = 8):
    """Ordered ``string_agg(value, sep ORDER BY value)`` per group — the
    report-shaping aggregate (group → joined member list).

    One coarse group-bucket exchange of the two pruned columns
    co-locates each group; inside a bucket rows sort once by
    (group, value) and the join itself walks group slices (Python calls
    = groups in the bucket, not rows).  For the low-cardinality strata
    case (nations, sources, langs) — a group's members must fit in one
    bucket, the same contract as
    :func:`mdvalidate_ray.functions.window.group_quantiles`."""
    from mdvalidate_ray.exchange import by_bucket

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(
            g, sort_keys=[(group_col, "ascending"),
                          (value_col, "ascending")]))
        keys = g.column(group_col).combine_chunks()
        if len(keys) == 0:
            return pa.Table.from_arrays(
                [pa.array([], keys.type), pa.array([], pa.string())],
                names=[group_col, out_col])
        neq = pc.not_equal(keys.slice(1), keys.slice(0, len(keys) - 1))
        bounds = np.flatnonzero(
            np.concatenate([[True], np.asarray(neq, dtype=bool)]))
        vals = ["" if v is None else str(v)
                for v in g.column(value_col).to_pylist()]
        ends = np.append(bounds[1:], len(vals))
        joined = [sep.join(vals[s:e]) for s, e in zip(bounds, ends)]
        return pa.Table.from_arrays(
            [keys.take(pa.array(bounds)), pa.array(joined, pa.string())],
            names=[group_col, out_col])

    return by_bucket(ds.select_columns([group_col, value_col]),
                     group_col, per_bucket, n_parts)


def heavy_hitters_exact(ds, *, column: str, k: int,
                        capacity: int = 4096, n_parts: int = 8):
    """EXACT top-``k`` heavy hitters over a (possibly huge-vocabulary)
    key column via a Misra–Gries candidate sketch + exact recount — the
    sketch-then-verify pattern: bounded-memory summaries find the
    candidates, a second exact pass makes the output provably correct.

    Scale shape (contrast with the pre-combine plan in
    ``queries.top_words``, which ships each batch's full distinct
    vocabulary into the exchange):

    1. **sketch pass** — per batch, exact ``value_counts`` shrinks to a
       ≤ ``capacity``-counter :class:`~mdvalidate_ray.state.sketches.
       MisraGries` summary; each batch contributes at most
       ``capacity+1`` tiny (key, cnt) rows REGARDLESS of its vocabulary.
       Partials fold on the driver (count addition is the merge; a
       tree-reduce drops in unchanged at cluster scale).
    2. **recount pass** — the ≤ ``capacity`` candidate keys broadcast
       via ``ray.put``; per-batch pre-combined counts of candidates only
       take one :func:`bucketed_group_sum` exchange, so the reported
       counts are exact.

    Correctness gate (from the MG bounds): every non-candidate's true
    count ≤ accumulated decrement ``err``, so the exact top-k is
    guaranteed iff the k-th candidate's exact count is STRICTLY greater
    than ``err`` — verified at runtime; raises ``ValueError`` (grow
    ``capacity``) otherwise.  Ties break (cnt desc, key asc).

    Returns a pa.Table (key, cnt) of exactly ``min(k, |candidates|)``
    rows.
    """
    import ray

    from mdvalidate_ray.state.sketches import MisraGries

    def sketch(b: pa.Table) -> pa.Table:
        col = b.column(column)
        col = col.combine_chunks() if isinstance(
            col, pa.ChunkedArray) else col
        vc = pc.cast(col, pa.string()).value_counts()
        mg = MisraGries.from_counts(
            np.asarray(vc.field("values").to_pylist(), dtype=object),
            np.asarray(vc.field("counts"), dtype=np.int64), capacity)
        return mg.to_table()

    partial_tbls = []
    for b in ds.map_batches(sketch, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .iter_batches(batch_format="pyarrow"):
        partial_tbls.append(b)
    merged = MisraGries.from_table(pa.concat_tables(partial_tbls), capacity)
    if len(merged.keys) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64())],
            names=[column, "cnt"])
    cand_ref = ray.put(pa.array(sorted(merged.keys), pa.string()))

    def recount(b: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        col = pc.cast(b.column(column), pa.string())
        col = col.combine_chunks() if isinstance(
            col, pa.ChunkedArray) else col
        hits = col.filter(pc.is_in(col, value_set=cands))
        vc = hits.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=[column, "cnt"])

    counted = bucketed_group_sum(
        ds.map_batches(recount, batch_format="pyarrow",
                       zero_copy_batch=True),
        key=column, sum_cols=["cnt"], n_parts=n_parts)
    exact = pa.concat_tables(
        [t for t in ray.get(counted.materialize().to_arrow_refs())
         if t.num_rows])
    exact = exact.take(pc.sort_indices(
        exact, sort_keys=[("cnt", "descending"), (column, "ascending")]))
    top = exact.slice(0, k)
    if merged.err and top.num_rows == k:
        kth = top.column("cnt")[k - 1].as_py()
        if kth <= merged.err:
            raise ValueError(
                f"heavy-hitter guarantee fails: kth exact count {kth} ≤ "
                f"sketch error bound {merged.err}; grow capacity "
                f"(= {capacity})")
    return top


def interval_overlap_join(ds_a, ds_b, *, key_a: str, key_b: str,
                          start_col: str = "start_us",
                          end_col: str = "end_us",
                          bucket_us: int = 3_600_000_000,
                          n_parts: int = 64):
    """Interval × interval OVERLAP join (``a.start < b.end AND b.start <
    a.end`` — the sibling of the point-in-interval range join): every
    overlapping (a, b) pair with its exact overlap duration in
    microseconds.

    Scale shape: each interval REPLICATES to every ``bucket_us`` time
    bucket it intersects (replication factor = len/bucket + 1 — size
    ``bucket_us`` to the typical interval), time buckets co-partition
    over ``n_parts`` exchange buckets (group calls bounded by
    ``n_parts``), and each
    pair is counted exactly ONCE at its owner bucket — the bucket of
    ``max(a.start, b.start)``: overlap implies the later start instant
    lies inside BOTH intervals, so both sides are guaranteed present
    there and nowhere earlier together.  In-bucket matching is a
    vectorized cross test bounded by bucket population.

    Inputs: Datasets with (key, start_us, end_us) int64 columns,
    half-open intervals.  Output: (key_a, key_b, overlap_us) rows.
    """
    from mdvalidate_ray.exchange import co_partition

    rep_schema = pa.schema([("bucket", pa.int64()), ("key", pa.int64()),
                            ("s", pa.int64()), ("e", pa.int64())])

    def replicate(b: pa.Table, *, key: str) -> pa.Table:
        keys = np.asarray(b.column(key).to_pandas(), dtype=np.int64)
        s = np.asarray(b.column(start_col).to_pandas(), dtype=np.int64)
        e = np.asarray(b.column(end_col).to_pandas(), dtype=np.int64)
        first = s // bucket_us
        last = np.maximum(first, (e - 1) // bucket_us)
        reps = (last - first + 1).astype(np.int64)
        # bucket index within each run: arange minus run start
        total = int(reps.sum())
        run_start = np.repeat(np.cumsum(reps) - reps, reps)
        bucket = np.repeat(first, reps) + (
            np.arange(total, dtype=np.int64) - run_start)
        return pa.Table.from_arrays(
            [pa.array(bucket), pa.array(np.repeat(keys, reps)),
             pa.array(np.repeat(s, reps)), pa.array(np.repeat(e, reps))],
            schema=rep_schema)

    out_schema = pa.schema([(key_a, pa.int64()), (key_b, pa.int64()),
                            ("overlap_us", pa.int64())])

    def match(ta: pa.Table, tb: pa.Table) -> pa.Table:
        if ta.num_rows == 0 or tb.num_rows == 0:
            return out_schema.empty_table()

        def cols(t: pa.Table):
            return [t.column(c).to_numpy(zero_copy_only=False)
                    for c in rep_schema.names]

        bk_a, keys_a, s_a, e_a = cols(ta)
        bk_b, keys_b, s_b, e_b = cols(tb)
        out_a, out_b, out_ov = [], [], []
        # bounded loop: distinct buckets in this part ≈ n_buckets/n_parts
        for bk in np.intersect1d(bk_a, bk_b):
            am, bm = bk_a == bk, bk_b == bk
            sa, ea, ka = s_a[am], e_a[am], keys_a[am]
            sb, eb, kb = s_b[bm], e_b[bm], keys_b[bm]
            # vectorized cross test, bounded by bucket population
            ov = (sa[:, None] < eb[None, :]) & (sb[None, :] < ea[:, None])
            later = np.maximum(sa[:, None], sb[None, :])
            owner = (later // bucket_us) == bk   # count once, here
            ai, bi = np.nonzero(ov & owner)
            if len(ai):
                out_a.append(ka[ai])
                out_b.append(kb[bi])
                out_ov.append(np.minimum(ea[ai], eb[bi])
                              - later[ai, bi])
        if not out_a:
            return out_schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(out_a)),
             pa.array(np.concatenate(out_b)),
             pa.array(np.concatenate(out_ov))], schema=out_schema)

    return co_partition(
        ds_a.map_batches(replicate, fn_kwargs={"key": key_a},
                         batch_format="pyarrow", zero_copy_batch=True),
        ds_b.map_batches(replicate, fn_kwargs={"key": key_b},
                         batch_format="pyarrow", zero_copy_batch=True),
        match, n_parts, on="bucket", left_schema=rep_schema)


def rolling_active_users(ds, *, time_col: str, user_col: str,
                         window_days: int = 7, n_parts: int = 32):
    """Exact ROLLING-window distinct-user counts — WAU/MAU-style
    ``count(DISTINCT user) OVER (ORDER BY day RANGE BETWEEN W-1
    PRECEDING AND CURRENT ROW)``, reported for every OBSERVED day.  A
    distinct count over a sliding window cannot be composed from per-day
    counts (users overlap), and shipping per-window user sets is O(days
    × users); instead each user's contribution is computed from ITS OWN
    activity alone: a user is active in day ``d``'s window iff one of
    its event days lies in ``[d-W+1, d]``, i.e. the user covers exactly
    the day-interval union ``∪ [t_i, t_i + W - 1]``.  So:

    1. in-batch DISTINCT (user, epoch-day) combiner;
    2. ONE co-partition on the user bucket (a user's days must
       meet; day skew — everyone active on launch day — costs nothing
       because the exchange key is the user);
    3. per bucket, vectorized: sort by (user, day), dedupe, merge
       overlapping/adjacent intervals (gap > W-1 starts a new one), and
       fan the merged intervals out to per-day ``+1`` partials with one
       ``np.repeat``/``cumsum`` arange trick — fan-out is bounded by
       W × active-days after merging, not days × users;
    4. a tiny :func:`bucketed_group_sum` over the day folds partials
       from all user buckets; a final filter keeps OBSERVED days only
       (the day set — thousands of rows — folds to the driver and
       broadcasts).

    Returns (day, active_users) — ``day`` is the epoch day
    (``epoch_us // 86_400_000_000``)."""
    import ray

    from mdvalidate_ray.exchange import by_bucket
    from mdvalidate_ray.state.sketches import hash_strings

    w = int(window_days)
    pair_schema = pa.schema([("u", pa.int64()), ("day", pa.int64())])

    def pairs(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pair_schema.empty_table()
        ts = b.column(time_col)
        if pa.types.is_timestamp(ts.type):
            day = (ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
                   // 86_400_000_000)
        else:
            day = ts.to_numpy(zero_copy_only=False) // 86_400_000_000
        ucol = b.column(user_col)
        if pa.types.is_integer(ucol.type):
            u = ucol.to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            u = hash_strings([str(x) for x in ucol.to_pylist()]) \
                .astype(np.int64)
        dedup = np.unique(np.stack([u, day.astype(np.int64)], axis=1),
                          axis=0)
        return pa.Table.from_arrays(
            [pa.array(dedup[:, 0]), pa.array(dedup[:, 1])],
            names=pair_schema.names)

    out_schema = pa.schema([("day", pa.int64()), ("n", pa.int64())])

    def cover(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return out_schema.empty_table()
        t = g.sort_by([("u", "ascending"), ("day", "ascending")])
        u = t.column("u").to_numpy(zero_copy_only=False)
        d = t.column("day").to_numpy(zero_copy_only=False)
        keep = np.empty(len(u), dtype=bool)
        keep[0] = True
        keep[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[keep], d[keep]
        # interval starts: new user OR gap > w-1 since previous day
        new_iv = np.empty(len(u), dtype=bool)
        new_iv[0] = True
        new_iv[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] > w - 1)
        starts = d[new_iv]
        # interval end day = last member day + w - 1
        iv_id = np.cumsum(new_iv) - 1
        last_day = np.zeros(iv_id[-1] + 1, dtype=np.int64)
        np.maximum.at(last_day, iv_id, d)
        ends = last_day + w - 1
        lens = (ends - starts + 1).astype(np.int64)
        # fan out each interval to its covered days
        total = int(lens.sum())
        day_rows = np.repeat(starts, lens) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(lens) - lens, lens))
        uniq, cnt = np.unique(day_rows, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(cnt.astype(np.int64))],
            names=out_schema.names)

    pair_ds = ds.map_batches(pairs, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    partials = by_bucket(pair_ds, "u", cover, n_parts)
    folded = bucketed_group_sum(partials, key="day", sum_cols=["n"],
                                out_names=["active_users"],
                                n_parts=min(n_parts, 8))

    # observed-day filter: the distinct day set is calendar-bounded
    observed: set = set()
    for blk in pair_ds.select_columns(["day"]).iter_batches(
            batch_format="pyarrow"):
        observed.update(np.unique(
            blk.column("day").to_numpy(zero_copy_only=False)).tolist())
    obs = np.sort(np.fromiter(observed, dtype=np.int64,
                              count=len(observed)))
    obs_ref = ray.put(obs)

    def keep_observed(b: pa.Table) -> pa.Table:
        o = ray.get(obs_ref)
        d = b.column("day").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(o, d)
        hit = (pos < len(o)) & (o[np.minimum(pos, max(len(o) - 1, 0))]
                                == d) if len(o) else np.zeros(
            len(d), dtype=bool)
        return b.filter(pa.array(hit))

    return folded.map_batches(keep_observed, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_first_last(ds, *, group_cols: list[str],
                       order_cols: list[str], value_col: str,
                       scale: int = 100, n_parts: int = 32):
    """FIRST_VALUE / LAST_VALUE / MIN / MAX / COUNT per group in one
    pass — the OHLC ("open/close") aggregate class: the partials are
    MERGEABLE (first/last carry their order keys; min/max/count are
    plain), so each batch contributes one row per group to the exchange
    no matter how hot the group, and the in-bucket merge is the same
    vectorized segment pass as the combiner.

    ``order_cols`` must be ``(ts, unique_id)`` — a total order within a
    group.  Float values are ×``scale``-scaled ``round`` int64 (cents),
    so every fold is exact integer math.  Returns one row per group:
    ``(*group_cols, open_c, close_c, lo_c, hi_c, n)``."""
    from mdvalidate_ray.exchange import by_bucket

    if len(order_cols) != 2:
        raise ValueError("order_cols must be (ts, unique_id)")

    def _segments(s: pa.Table):
        """Group-boundary scan of a (group-sorted) table."""
        gs = [s.column(c).to_numpy(zero_copy_only=False)
              for c in group_cols]
        n = s.num_rows
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = np.zeros(n - 1, dtype=bool)
        for g in gs:
            new[1:] |= g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n] - 1
        return gs, np.cumsum(new) - 1, starts, ends

    def _emit(gs, starts, open_v, ots, oid, close_v, cts, cid, lo, hi,
              cnt) -> pa.Table:
        cols = {c: pa.array(np.asarray(g)[starts])
                for c, g in zip(group_cols, gs)}
        cols.update({"_vc": pa.array(open_v), "_ots": pa.array(ots),
                     "_oid": pa.array(oid), "_close": pa.array(close_v),
                     "_cts": pa.array(cts), "_cid": pa.array(cid),
                     "_lo": pa.array(lo), "_hi": pa.array(hi),
                     "_n": pa.array(cnt)})
        return pa.table(cols)

    def combine(b: pa.Table) -> pa.Table:
        s = b.select(group_cols + order_cols + [value_col])
        if s.num_rows == 0:
            return _emit([np.zeros(0, dtype=np.int64)] * len(group_cols),
                         np.zeros(0, dtype=np.int64),
                         *([np.zeros(0, dtype=np.int64)] * 9))
        s = s.take(pc.sort_indices(s, sort_keys=[
            (c, "ascending") for c in group_cols + order_cols]))
        gs, seg_id, starts, ends = _segments(s)
        ts = s.column(order_cols[0])
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        ots_all = ts.to_numpy(zero_copy_only=False).astype(np.int64)
        oid_all = s.column(order_cols[1]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = s.column(value_col).to_numpy(zero_copy_only=False)
        vc = (np.round(v * scale).astype(np.int64)
              if v.dtype.kind == "f" else v.astype(np.int64))
        lo = np.full(len(starts), 2**62, dtype=np.int64)
        hi = np.full(len(starts), -2**62, dtype=np.int64)
        cnt = np.zeros(len(starts), dtype=np.int64)
        np.minimum.at(lo, seg_id, vc)
        np.maximum.at(hi, seg_id, vc)
        np.add.at(cnt, seg_id, 1)
        # rows are (group, ts, id)-sorted: head = first, tail = last
        return _emit(gs, starts, vc[starts], ots_all[starts],
                     oid_all[starts], vc[ends], ots_all[ends],
                     oid_all[ends], lo, hi, cnt)

    def merge(g: pa.Table) -> pa.Table:
        out_schema_cols = group_cols + ["open_c", "close_c", "lo_c",
                                        "hi_c", "n"]
        if g.num_rows == 0:
            return pa.table({c: pa.array([], pa.int64())
                             for c in out_schema_cols})
        # sort partials by the carried OPEN order key: the segment head
        # is the global first; the global last needs a per-segment
        # argmax over the carried close keys (np.maximum.at on a fused
        # (ts<<20|id)-style key would overflow; lexsort per segment is
        # bounded by partial rows, not raw rows)
        s = g.take(pc.sort_indices(g, sort_keys=[
            (c, "ascending") for c in group_cols] +
            [("_ots", "ascending"), ("_oid", "ascending")]))
        gs, seg_id, starts, ends = _segments(s)
        lo = np.full(len(starts), 2**62, dtype=np.int64)
        hi = np.full(len(starts), -2**62, dtype=np.int64)
        cnt = np.zeros(len(starts), dtype=np.int64)
        np.minimum.at(lo, seg_id,
                      s.column("_lo").to_numpy(zero_copy_only=False))
        np.maximum.at(hi, seg_id,
                      s.column("_hi").to_numpy(zero_copy_only=False))
        np.add.at(cnt, seg_id,
                  s.column("_n").to_numpy(zero_copy_only=False))
        open_v = s.column("_vc").to_numpy(zero_copy_only=False)[starts]
        c_ts = s.column("_cts").to_numpy(zero_copy_only=False)
        c_id = s.column("_cid").to_numpy(zero_copy_only=False)
        cv = s.column("_close").to_numpy(zero_copy_only=False)
        close_out = np.empty(len(starts), dtype=np.int64)
        for k, (a, e) in enumerate(zip(starts, ends)):
            span = slice(a, e + 1)
            j = np.lexsort((c_id[span], c_ts[span]))[-1]
            close_out[k] = cv[a + j]
        cols = {c: pa.array(np.asarray(gg)[starts])
                for c, gg in zip(group_cols, gs)}
        cols.update({"open_c": pa.array(open_v),
                     "close_c": pa.array(close_out),
                     "lo_c": pa.array(lo), "hi_c": pa.array(hi),
                     "n": pa.array(cnt)})
        return pa.table(cols)

    pre = ds.map_batches(combine, batch_format="pyarrow",
                         zero_copy_batch=True)
    return by_bucket(pre, group_cols, merge, n_parts)


# Brackets of at most this many in-range rows finish by a collect, wider
# ones take another counting pass: a speed trade-off, not a memory limit.
_SELECT_COLLECT_ROWS = 200_000


def quantile_via_selection(ds, column: str, qs, *,
                           sample_per_block: int = 256,
                           n_probes: int = 31,
                           max_rounds: int = 40) -> list:
    """EXACT global quantiles of an UNBOUNDED-cardinality numeric column
    by distributed selection — the scale tier next to
    :func:`exact_quantiles` (whose value-counts fold assumes the distinct
    domain is small) and the KLL sketch (which is approximate).  Matches
    DuckDB ``quantile_disc``: the value at 1-indexed position
    ``ceil(q*n)`` of the sorted column.

    Plan (multi-pivot distributed selection, Munro–Paterson lineage):
    pass 0 streams one (count, min, max, sorted strided sample) partial
    per block; the driver brackets each target rank ``(lo, hi]`` from
    the pooled sample.  Each narrowing round is ONE corpus pass folding
    exact ``count(x <= p)`` at ``n_probes`` interior points per live
    quantile (per-batch ``np.searchsorted`` on a sorted copy — no row
    leaves its worker), shrinking every bracket by ~``n_probes``× per
    round, so even an adversarial tie mass resolves to 1-ulp brackets
    in ``log_{n_probes}(range/ulp)`` ≈ 12 rounds; sub-``n_probes``-ulp
    intervals probe the exact ``np.nextafter`` chain and finish by
    counts alone.  A bracket proven to hold its rank with
    ``<= _SELECT_COLLECT_ROWS`` in-range rows is finished by collecting
    just that range and indexing.  Typical cost: 2 passes (sample + one
    count round) + 1 bounded collect; nothing corpus-sized ever
    reaches the driver.

    Returns ``[float | None, ...]`` aligned with ``qs`` (None iff the
    column is empty)."""
    import ray

    data = ds.select_columns([column])

    def sample_part(b: pa.Table) -> pa.Table:
        arr = b.column(column).drop_null().to_numpy(
            zero_copy_only=False).astype(np.float64)
        n = len(arr)
        m = min(sample_per_block, n)
        if m:
            srt = np.sort(arr)
            samp = srt[np.linspace(0, n - 1, m).astype(np.int64)]
            head = np.array([float(n), srt[0], srt[-1]])
        else:
            samp = np.zeros(0)
            head = np.array([0.0, np.inf, -np.inf])
        return pa.Table.from_arrays(
            [pa.array(np.r_[np.arange(3), np.full(m, 3)].astype(np.int64)),
             pa.array(np.r_[head, samp])], names=["kind", "v"])

    n_total, gmin, gmax, pools = 0, np.inf, -np.inf, []
    for blk in data.map_batches(sample_part, batch_format="pyarrow",
                                zero_copy_batch=True).iter_batches(
                                    batch_format="pyarrow"):
        kind = np.asarray(blk.column("kind").combine_chunks())
        v = np.asarray(blk.column("v").combine_chunks())
        n_total += int(v[kind == 0].sum())
        if (kind == 1).any():
            gmin = min(gmin, float(v[kind == 1].min()))
        if (kind == 2).any():
            gmax = max(gmax, float(v[kind == 2].max()))
        pools.append(v[kind == 3])
        if sum(len(p) for p in pools) > 400_000:   # thin the pool
            allv = np.sort(np.concatenate(pools))
            pools = [allv[np.linspace(0, len(allv) - 1,
                                      200_000).astype(np.int64)]]
    if n_total == 0:
        return [None for _ in qs]
    sample = np.sort(np.concatenate(pools)) if pools else np.zeros(0)
    lo_floor = np.nextafter(gmin, -np.inf)    # count(x <= lo_floor) == 0

    # state per quantile: rank r (1-indexed), bracket (lo, hi] with
    # c_lo = #(x <= lo) (exact once verified), answer when resolved
    ranks = [max(int(np.ceil(q * n_total)), 1) for q in qs]
    margin = max(3, len(sample) // 64)
    st = []
    for r in ranks:
        pos = int(round(r / n_total * (len(sample) - 1)))
        lo = sample[max(pos - margin, 0)] if len(sample) else lo_floor
        hi = sample[min(pos + margin, len(sample) - 1)] \
            if len(sample) else gmax
        st.append({"lo": min(float(lo), gmax), "hi": float(hi),
                   "c_lo": None, "ans": None})

    def probe_points(lo: float, hi: float) -> np.ndarray:
        """Strictly increasing probes lo < p[0] < ... <= hi, ending at
        hi; nextafter chain when the interval is a few ulps wide."""
        pts = np.linspace(lo, hi, n_probes + 2)[1:]
        pts = np.unique(pts[(pts > lo) & (pts <= hi)])
        if len(pts) < n_probes // 2:          # sub-ulp-scale interval
            chain, x = [], lo
            for _ in range(n_probes + 2):
                x = np.nextafter(x, np.inf)
                chain.append(x)
                if x >= hi:
                    break
            pts = np.unique(np.clip(np.array(chain), lo, hi))
        if len(pts) == 0 or pts[-1] < hi:
            pts = np.append(pts, hi)
        return pts

    def count_round(points_per_q: list[np.ndarray]) -> list[np.ndarray]:
        """One pass; exact #(x <= p) for every probe point."""
        flat = np.concatenate(points_per_q)
        offs = np.r_[0, np.cumsum([len(p) for p in points_per_q])]
        flat_ref = ray.put(flat)

        def cnt(b: pa.Table) -> pa.Table:
            pts = ray.get(flat_ref)
            arr = np.sort(b.column(column).drop_null().to_numpy(
                zero_copy_only=False).astype(np.float64))
            c = np.searchsorted(arr, pts, side="right").astype(np.int64)
            return pa.Table.from_arrays(
                [pa.array(np.arange(len(pts), dtype=np.int64)),
                 pa.array(c)], names=["i", "c"])

        tot = np.zeros(len(flat), dtype=np.int64)
        for blk in data.map_batches(cnt, batch_format="pyarrow",
                                    zero_copy_batch=True).iter_batches(
                                        batch_format="pyarrow"):
            np.add.at(tot, np.asarray(blk.column("i").combine_chunks()),
                      np.asarray(blk.column("c").combine_chunks()))
        return [tot[offs[i]:offs[i + 1]]
                for i in range(len(points_per_q))]

    for _ in range(max_rounds):
        live = [i for i, s in enumerate(st)
                if s["ans"] is None and s["c_lo"] is None]
        if not live:
            break
        probes = []
        for i in live:
            s = st[i]
            # probe the current lo too so c_lo is (re)measured exactly
            probes.append(np.r_[s["lo"], probe_points(s["lo"], s["hi"])])
        counts = count_round(probes)
        for i, cc, pp in zip(live, counts, probes):
            s, r = st[i], ranks[i]
            c_lo, c_hi = int(cc[0]), int(cc[-1])
            if not (c_lo < r <= c_hi):        # sample bracket missed
                s["lo"], s["hi"] = lo_floor, gmax
                continue
            # tightest probed bracket still holding the invariant
            below = cc < r
            new_lo_i = int(np.flatnonzero(below)[-1])
            new_hi_i = int(np.flatnonzero(~below)[0])
            s["lo"], c_lo = float(pp[new_lo_i]), int(cc[new_lo_i])
            s["hi"], c_hi = float(pp[new_hi_i]), int(cc[new_hi_i])
            if c_hi - c_lo <= _SELECT_COLLECT_ROWS:  # small: collect
                s["c_lo"] = c_lo
            elif s["hi"] <= np.nextafter(s["lo"], np.inf):
                # adjacent floats: everything in (lo, hi] equals hi
                s["ans"] = s["hi"]
    if any(s["ans"] is None and s["c_lo"] is None for s in st):
        raise RuntimeError(f"selection did not converge in "
                           f"{max_rounds} rounds")
    pending = [i for i, s in enumerate(st) if s["ans"] is None]
    if pending:
        brackets = np.array([[st[i]["lo"], st[i]["hi"]]
                             for i in pending])
        br_ref = ray.put(brackets)

        def collect(b: pa.Table) -> pa.Table:
            br = ray.get(br_ref)
            arr = b.column(column).drop_null().to_numpy(
                zero_copy_only=False).astype(np.float64)
            outs, idxs = [], []
            for j, (lo, hi) in enumerate(br):
                hit = arr[(arr > lo) & (arr <= hi)]
                outs.append(hit)
                idxs.append(np.full(len(hit), j, dtype=np.int64))
            return pa.Table.from_arrays(
                [pa.array(np.concatenate(idxs)),
                 pa.array(np.concatenate(outs))], names=["j", "v"])

        buckets: dict[int, list[np.ndarray]] = {j: [] for j in
                                                range(len(pending))}
        for blk in data.map_batches(collect, batch_format="pyarrow",
                                    zero_copy_batch=True).iter_batches(
                                        batch_format="pyarrow"):
            jj = np.asarray(blk.column("j").combine_chunks())
            vv = np.asarray(blk.column("v").combine_chunks())
            for j in np.unique(jj):
                buckets[int(j)].append(vv[jj == j])
        for j, i in enumerate(pending):
            s = st[i]
            vals = np.sort(np.concatenate(buckets[j])) if buckets[j] \
                else np.zeros(0)
            s["ans"] = float(vals[ranks[i] - s["c_lo"] - 1])
    return [s["ans"] for s in st]


def copartition_antijoin(ds, keys_ds, *, key: str,
                         keys_col: str | None = None,
                         n_parts: int = 64):
    """Drop every row of ``ds`` whose ``key`` appears in ``keys_ds`` —
    WITHOUT the key set ever folding to the driver: both sides meet in
    one :func:`~mdvalidate_ray.exchange.co_partition` exchange on the
    key and each bucket filters its data rows against its sorted key
    slice with one ``np.searchsorted``.  Works for int or string keys
    and preserves every data column INCLUDING nested types (no Arrow
    join kernel is involved — nested non-key columns are exactly what
    ``pa.Table.join`` rejects); key rows never reach the output.  The
    key side is cast to the data side's key type.  NULL data keys match
    nothing (SQL NOT-IN-with-known-keys semantics: the row is KEPT);
    null rows in ``keys_ds`` are ignored."""
    return _copartition_match(ds, keys_ds, key=key,
                              keys_col=keys_col or key, n_parts=n_parts,
                              keep_present=False)


def _copartition_match(ds, keys_ds, *, key: str, keys_col: str,
                       n_parts: int, keep_present: bool,
                       schema: pa.Schema | None = None):
    """Rows of ``ds`` with ``key`` present in ``keys_ds[keys_col]``
    (``keep_present``) or absent from it, over one
    :func:`~mdvalidate_ray.exchange.co_partition` exchange (the key side
    cast to the data side's key type before bucketing); ``schema`` is
    ``ds``'s when the caller knows it."""
    from mdvalidate_ray.exchange import co_partition, int64_keys

    def match(data: pa.Table, keys_t: pa.Table) -> pa.Table:
        hit = np.zeros(data.num_rows, dtype=bool)
        if data.num_rows and keys_t.num_rows:
            kc = keys_t.column(keys_col).drop_null()
            dc = data.column(key)
            if pa.types.is_integer(dc.type):
                ks = np.sort(int64_keys(kc))
                dv = int64_keys(dc)
            else:
                ks = np.sort(np.array(kc.to_pylist()))
                dv = np.array(["" if x is None else str(x)
                               for x in dc.to_pylist()])
            if len(ks):
                i = np.searchsorted(ks, dv)
                hit = (i < len(ks)) & \
                    (ks[np.minimum(i, len(ks) - 1)] == dv)
                # null keys match nothing
                hit &= ~np.asarray(dc.is_null())
        return data.filter(pa.array(hit == keep_present))

    return co_partition(ds, keys_ds, match, n_parts, on=key,
                        right_on=keys_col, left_schema=schema)


def grouped_rank_via_selection(ds, *, group_col: str, value_col: str,
                               rank_of, center: dict | None = None,
                               sample_per_block: int = 128,
                               n_probes: int = 31,
                               max_rounds: int = 40) -> dict:
    """PER-GROUP exact order statistic by distributed multi-pivot
    selection — the tier :func:`quantile_via_selection` documents for
    grouped robust statistics when ONE GROUP'S values exceed a worker
    (so the co-partition-and-sort plan of e.g. orders_priority_mad
    cannot hold a group in memory).  Group CARDINALITY must be
    driver-boundable: the per-group state (count, min, max and one
    sample of ``sample_per_block`` values, 8 B each) must stay within
    :func:`~mdvalidate_ray.tiers.plan_tier`'s budget, else it raises;
    group SIZE is unbounded — no
    group's rows ever co-locate, and nothing corpus-sized reaches the
    driver.

    ``rank_of(n) -> r`` maps a group's row count to the 1-indexed rank
    of the wanted statistic in the group's sorted values (e.g.
    ``lambda n: (n - 1) // 2 + 1`` is the exact LOWER median —
    quantile_disc semantics).  ``center`` (optional, group -> number)
    selects over the DERIVED value ``|x - center[g]|`` instead of x —
    the second level of a MAD — computed in-batch against a broadcast
    map, so the derived column never materializes.

    Same per-round plan as the ungrouped function, state per group:
    pass 0 pools per-(block, group) (count, min, max, strided sample)
    partials; each round is ONE corpus pass folding exact per-group
    ``count(x <= p)`` at ``n_probes`` interior points per live group
    (per-batch group-sliced ``np.searchsorted`` — rows never leave
    their worker); a bracket proven to hold its rank with
    ``<= _SELECT_COLLECT_ROWS`` in-range rows finishes by collecting
    just that range.

    Returns ``{group: (n, value)}`` (value is a float; exact for
    integer-cent inputs ≤ 2**53)."""
    import ray

    data = ds.select_columns([group_col, value_col])
    center_ref = ray.put(center) if center is not None else None

    def group_slices(b: pa.Table):
        """Yield (group_value, sorted float64 values) per group present
        in the batch, with the optional |x - center| derivation."""
        if b.num_rows == 0:
            return
        # groups key as STRINGS end to end (driver state, broadcast
        # maps, the returned dict) so int/str group columns behave
        # identically
        gv = np.asarray([str(x) for x in
                         b.column(group_col).to_pylist()], dtype=object)
        x = b.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        ok = ~np.asarray(b.column(value_col).is_null())
        gv, x = gv[ok], x[ok]
        cmap = ray.get(center_ref) if center_ref is not None else None
        uniq, codes = np.unique(gv, return_inverse=True)
        order = np.argsort(codes, kind="stable")
        codes_s, x_s = codes[order], x[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], codes_s[1:] != codes_s[:-1])))
        ends = np.append(starts[1:], len(codes_s))
        for st, en, g in zip(starts, ends, uniq[codes_s[starts]]):
            vals = x_s[st:en]
            if cmap is not None:
                c = cmap.get(g)
                if c is None:
                    # a silent skip would DROP the group from the
                    # result; centers are keyed by STRINGIFIED group
                    raise ValueError(
                        f"grouped_rank_via_selection: no center for "
                        f"group {g!r} (center keys must be the "
                        "stringified group values)")
                vals = np.abs(vals - float(c))
            yield g, np.sort(vals)

    # ---- pass 0: per-group n / min / max / pooled sample ----
    part_schema = pa.schema([("g", pa.string()), ("kind", pa.int64()),
                             ("v", pa.float64())])

    def sample_part(b: pa.Table) -> pa.Table:
        gs, kinds, vs = [], [], []
        for g, srt in group_slices(b):
            n = len(srt)
            m = min(sample_per_block, n)
            samp = srt[np.linspace(0, n - 1, m).astype(np.int64)]
            gs.extend([str(g)] * (3 + m))
            kinds.extend([0, 1, 2] + [3] * m)
            vs.extend([float(n), float(srt[0]), float(srt[-1])])
            vs.extend(samp.tolist())
        return pa.table({"g": pa.array(gs, pa.string()),
                         "kind": pa.array(kinds, pa.int64()),
                         "v": pa.array(vs, pa.float64())},
                        schema=part_schema)

    info: dict = {}
    for blk in data.map_batches(sample_part, batch_format="pyarrow",
                                zero_copy_batch=True).iter_batches(
                                    batch_format="pyarrow"):
        gg = blk.column("g").to_pylist()
        kind = np.asarray(blk.column("kind").combine_chunks())
        v = np.asarray(blk.column("v").combine_chunks())
        for i, g in enumerate(gg):
            s = info.setdefault(g, {"n": 0, "min": np.inf,
                                    "max": -np.inf, "pool": []})
            if kind[i] == 0:
                s["n"] += int(v[i])
            elif kind[i] == 1:
                s["min"] = min(s["min"], float(v[i]))
            elif kind[i] == 2:
                s["max"] = max(s["max"], float(v[i]))
            else:
                s["pool"].append(float(v[i]))
        if tiers.plan_tier(len(info), 8 * (3 + sample_per_block)) \
                == "partitioned":
            raise ValueError(
                f"per-group selection state of {len(info)} groups "
                f"exceeds the broadcast budget ({tiers.budget()} B)")
    if not info:
        return {}

    groups = sorted(info)
    ranks = {g: max(int(rank_of(info[g]["n"])), 1) for g in groups}
    st = {}
    for g in groups:
        s = info[g]
        pool = np.sort(np.array(s["pool"]))
        lo_floor = np.nextafter(s["min"], -np.inf)
        margin = max(3, len(pool) // 64)
        pos = int(round(ranks[g] / s["n"] * (len(pool) - 1))) \
            if len(pool) else 0
        lo = pool[max(pos - margin, 0)] if len(pool) else lo_floor
        hi = pool[min(pos + margin, len(pool) - 1)] \
            if len(pool) else s["max"]
        st[g] = {"lo": min(float(lo), s["max"]), "hi": float(hi),
                 "c_lo": None, "ans": None,
                 "floor": lo_floor, "gmax": s["max"]}

    def probe_points(lo: float, hi: float) -> np.ndarray:
        pts = np.linspace(lo, hi, n_probes + 2)[1:]
        pts = np.unique(pts[(pts > lo) & (pts <= hi)])
        if len(pts) < n_probes // 2:
            chain, x = [], lo
            for _ in range(n_probes + 2):
                x = np.nextafter(x, np.inf)
                chain.append(x)
                if x >= hi:
                    break
            pts = np.unique(np.clip(np.array(chain), lo, hi))
        if len(pts) == 0 or pts[-1] < hi:
            pts = np.append(pts, hi)
        return pts

    def count_round(probes: dict) -> dict:
        """probes: group -> increasing points.  ONE corpus pass; exact
        per-group #(x <= p) folded with np.add.at."""
        glist = sorted(probes)
        offs = np.r_[0, np.cumsum([len(probes[g]) for g in glist])]
        goff = {g: int(offs[i]) for i, g in enumerate(glist)}
        pr_ref = ray.put({g: np.asarray(probes[g]) for g in glist})
        off_ref = ray.put(goff)

        def cnt(b: pa.Table) -> pa.Table:
            pr = ray.get(pr_ref)
            go = ray.get(off_ref)
            idxs, cs = [], []
            for g, srt in group_slices(b):
                pts = pr.get(g)
                if pts is None:
                    continue
                c = np.searchsorted(srt, pts,
                                    side="right").astype(np.int64)
                idxs.append(go[g] + np.arange(len(pts),
                                              dtype=np.int64))
                cs.append(c)
            if not idxs:
                return pa.schema([("i", pa.int64()),
                                  ("c", pa.int64())]).empty_table()
            return pa.table({"i": pa.array(np.concatenate(idxs)),
                             "c": pa.array(np.concatenate(cs))})

        tot = np.zeros(int(offs[-1]), dtype=np.int64)
        for blk in data.map_batches(cnt, batch_format="pyarrow",
                                    zero_copy_batch=True).iter_batches(
                                        batch_format="pyarrow"):
            np.add.at(tot,
                      np.asarray(blk.column("i").combine_chunks()),
                      np.asarray(blk.column("c").combine_chunks()))
        return {g: tot[goff[g]:goff[g] + len(probes[g])]
                for g in glist}

    for _ in range(max_rounds):
        live = [g for g in groups
                if st[g]["ans"] is None and st[g]["c_lo"] is None]
        if not live:
            break
        probes = {g: np.r_[st[g]["lo"],
                           probe_points(st[g]["lo"], st[g]["hi"])]
                  for g in live}
        counts = count_round(probes)
        for g in live:
            s, r, cc, pp = st[g], ranks[g], counts[g], probes[g]
            c_lo, c_hi = int(cc[0]), int(cc[-1])
            if not (c_lo < r <= c_hi):
                s["lo"], s["hi"] = s["floor"], s["gmax"]
                continue
            below = cc < r
            new_lo_i = int(np.flatnonzero(below)[-1])
            new_hi_i = int(np.flatnonzero(~below)[0])
            s["lo"], c_lo = float(pp[new_lo_i]), int(cc[new_lo_i])
            s["hi"], c_hi = float(pp[new_hi_i]), int(cc[new_hi_i])
            if c_hi - c_lo <= _SELECT_COLLECT_ROWS:
                s["c_lo"] = c_lo
            elif s["hi"] <= np.nextafter(s["lo"], np.inf):
                s["ans"] = s["hi"]
    if any(st[g]["ans"] is None and st[g]["c_lo"] is None
           for g in groups):
        raise RuntimeError(f"grouped selection did not converge in "
                           f"{max_rounds} rounds")
    pending = [g for g in groups if st[g]["ans"] is None]
    if pending:
        br_ref = ray.put({g: (st[g]["lo"], st[g]["hi"])
                          for g in pending})

        def collect(b: pa.Table) -> pa.Table:
            br = ray.get(br_ref)
            gs, vs = [], []
            for g, srt in group_slices(b):
                w = br.get(g)
                if w is None:
                    continue
                hit = srt[(srt > w[0]) & (srt <= w[1])]
                gs.extend([str(g)] * len(hit))
                vs.append(hit)
            if not gs:
                return pa.schema([("g", pa.string()),
                                  ("v", pa.float64())]).empty_table()
            return pa.table({"g": pa.array(gs, pa.string()),
                             "v": pa.array(np.concatenate(vs))})

        buckets: dict = {g: [] for g in pending}
        for blk in data.map_batches(collect, batch_format="pyarrow",
                                    zero_copy_batch=True).iter_batches(
                                        batch_format="pyarrow"):
            gg = blk.column("g").to_pylist()
            vv = np.asarray(blk.column("v").combine_chunks())
            for i, g in enumerate(gg):
                buckets[g].append(float(vv[i]))
        for g in pending:
            vals = np.sort(np.array(buckets[g]))
            st[g]["ans"] = float(vals[ranks[g] - st[g]["c_lo"] - 1])
    return {g: (info[g]["n"], st[g]["ans"]) for g in groups}


def resample_ffill_daily(ds, *, key: str, ts_col: str, value_col: str,
                         tiebreak: str, scale: int = 100,
                         n_parts: int = 32):
    """Time-series GAP FILLING: resample each key's event stream onto
    its own daily grid ``[first event day .. last event day]`` and
    forward-fill the last observed value — the regularization step
    before any per-entity time-series model (churn features, usage
    curves) that SQL spells ``generate_series + last_value(IGNORE
    NULLS) OVER``.

    Per day ``d`` the filled value is the value of the latest event
    with ``day(ts) <= d``, latest = max ``(ts, tiebreak)`` (a total
    order, so ties are deterministic).  Values report as
    ``round(value*scale)`` int64 so oracles compare integers.

    Plan: ONE key-hash co-partition of the pruned (key, day, ts,
    tiebreak, value) rows; inside each bucket everything is vectorized
    — sort, keep the last event per (key, day), then one
    ``np.repeat``/cumsum fan-out whose run length for an event day is
    the gap to the key's next event day (so output size is exactly the
    grid, ``Σ_key (last-first+1)`` rows, never |days|×|keys|).  No
    per-key Python loop; group calls are bounded by ``n_parts``.
    Partitioning assumption: one key's full history fits a worker
    (same contract as sessionize / grouped_first_last).

    Returns (key, day 'YYYY-MM-DD', last_value_cents)."""
    from mdvalidate_ray.exchange import by_bucket
    from mdvalidate_ray.state.sketches import hash_strings

    pruned_schema = pa.schema([
        ("u", pa.int64()), ("day", pa.int64()), ("ts", pa.int64()),
        ("tb", pa.int64()), ("v", pa.int64())])

    def tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pruned_schema.empty_table()
        ts = b.column(ts_col)
        ts_us = (ts.cast(pa.int64()) if pa.types.is_timestamp(ts.type)
                 else ts).to_numpy(zero_copy_only=False).astype(np.int64)
        ucol = b.column(key)
        if pa.types.is_integer(ucol.type):
            u = ucol.to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            u = hash_strings([str(x) for x in ucol.to_pylist()]) \
                .astype(np.int64)
        tb = b.column(tiebreak).to_numpy(
            zero_copy_only=False).astype(np.int64)
        v = np.round(b.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64) * scale) \
            .astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(u), pa.array(ts_us // 86_400_000_000),
             pa.array(ts_us), pa.array(tb), pa.array(v)],
            names=pruned_schema.names)

    out_schema = pa.schema([(key, pa.int64()), ("day", pa.string()),
                            ("last_value_cents", pa.int64())])

    def fill(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return out_schema.empty_table()
        t = g.sort_by([("u", "ascending"), ("day", "ascending"),
                       ("ts", "ascending"), ("tb", "ascending")])
        u = t.column("u").to_numpy(zero_copy_only=False)
        d = t.column("day").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        # last event per (u, day): row where the NEXT row starts a new
        # (u, day) — sort order makes it the (ts, tb)-greatest
        last = np.empty(len(u), dtype=bool)
        last[-1] = True
        last[:-1] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d, v = u[last], d[last], v[last]
        # run length of event-day i = gap to the key's next event day;
        # the key's final event day contributes exactly 1 grid row
        runs = np.ones(len(d), dtype=np.int64)
        same = u[1:] == u[:-1]
        runs[:-1][same] = (d[1:] - d[:-1])[same]
        total = int(runs.sum())
        offs = np.cumsum(runs) - runs
        day_rows = np.repeat(d, runs) + (np.arange(total, dtype=np.int64)
                                         - np.repeat(offs, runs))
        day_str = np.datetime_as_string(
            day_rows.astype("datetime64[D]"), unit="D")
        return pa.Table.from_arrays(
            [pa.array(np.repeat(u, runs)),
             pa.array(day_str.astype(object), pa.string()),
             pa.array(np.repeat(v, runs))], names=out_schema.names)

    cols = [key, ts_col, value_col, tiebreak]
    return by_bucket(ds.select_columns(cols).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True),
        "u", fill, n_parts)


def snapshot_diff(ds_old, ds_new, *, key_col: str,
                  compare_cols: list[str], n_parts: int = 32):
    """CDC-style SNAPSHOT DIFF between two versions of a keyed table:
    which keys were ``added``, ``removed``, or ``changed`` (any compare
    column differs) — the reconciliation/audit primitive behind
    incremental re-validation (only re-check what moved) and dataset
    version reports.

    Plan: each side streams to narrow ``(key, row_hash)`` rows — the
    row hash is one uint64 over the canonicalized compare columns,
    so arbitrarily WIDE rows cost 16 bytes in the exchange (a hash
    collision masking a change has probability 2^-64 per key; the keyed
    full-outer shape itself is exact).  Each side's narrow rows
    materialize once, then the two TIER together by
    :func:`~mdvalidate_ray.tiers.plan_tier` at their mean row width:
    within the budget both fold to the driver and diff in ONE
    vectorized pass — no exchange, the dominant case for daily CDC at
    any corpus size since the narrow table is (key, u64) not the
    corpus; past it, old and new meet in ONE
    :func:`~mdvalidate_ray.exchange.co_partition` on the key, and each
    bucket runs the same ``(old, new)`` diff kernel: sorted key arrays
    per side, two ``np.searchsorted`` membership probes →
    added / removed / changed, all vectorized; unchanged keys never
    leave the bucket (group calls bounded by ``n_parts``).  The tiers
    are parity-pinned (test_snapshot_diff_tiers_agree).  Keys are
    assumed unique per snapshot (primary key).

    Returns (key, status) with status in {'added','removed','changed'}."""
    from mdvalidate_ray.exchange import co_partition
    from mdvalidate_ray.state.sketches import hash_strings

    def _scalar_canon(v) -> "pa.Array":
        """Deterministic injective string form of a scalar column,
        Arrow-side (both snapshots canonicalize identically, so any
        stable formatting works; pc.cast's shortest-roundtrip float
        format is injective on doubles)."""
        v = v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
        s = pc.cast(v, pa.string())
        return pc.fill_null(s, "\x00")

    def _nested_row_hash(v) -> np.ndarray:
        """Vectorized per-row content hash of a list<struct> column
        (the spans shape): one Arrow-side join per leaf field over the
        FLATTENED children, one vectorized hash per element, then a
        position-mixed uint64 fold back to rows — no Python per row.
        Collision odds are the documented 2^-64-per-key of the row-hash
        diff contract."""
        v = v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
        n = len(v)
        # per-slot lengths from VALID slots only (null → 0): flatten()
        # drops null-slot values, so raw offset diffs would misalign
        # every subsequent row's hash after a null list
        counts = pc.fill_null(pc.list_value_length(v), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = v.flatten()            # valid-slot values, offset-aware
        leaf = [pc.fill_null(pc.cast(flat.field(i), pa.string()), "\x00")
                for i in range(flat.type.num_fields)]
        joined = (pc.binary_join_element_wise(*leaf, "\x1f") if leaf
                  else pa.array([""] * len(flat), pa.string()))
        eh = (hash_strings(joined.to_numpy(zero_copy_only=False))
              if len(joined) else np.zeros(0, dtype=np.uint64))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = (np.arange(len(eh), dtype=np.uint64)
               - np.repeat(starts, counts).astype(np.uint64))
        mixed = eh * (np.uint64(2) * pos + np.uint64(1))
        rows = np.zeros(n, dtype=np.uint64)
        np.add.at(rows, np.repeat(np.arange(n), counts), mixed)
        # mix in the span count so [a] vs [a, zero-hash] can't collide
        out = (rows * np.uint64(0x9E3779B97F4A7C15)
               + counts.astype(np.uint64))
        if v.null_count:
            # null list must hash differently from empty list
            valid = v.is_valid().to_numpy(zero_copy_only=False)
            out = np.where(valid, out, np.uint64(0xD1B54A32D192ED03))
        return out

    def narrow_rows(b: pa.Table) -> pa.Table:
        kcol = b.column(key_col)
        h = np.zeros(b.num_rows, dtype=np.uint64)
        scalar_parts = []
        for c in compare_cols:
            v = b.column(c)
            if pa.types.is_list(v.type) or pa.types.is_large_list(v.type):
                h = h * np.uint64(0x100000001B3) + _nested_row_hash(v)
            else:
                scalar_parts.append(_scalar_canon(v))
        if scalar_parts:
            fused = (pc.binary_join_element_wise(*scalar_parts, "\x1f")
                     if len(scalar_parts) > 1 else scalar_parts[0])
            h = (h * np.uint64(0x100000001B3) + hash_strings(
                fused.to_numpy(zero_copy_only=False)))
        if pa.types.is_integer(kcol.type):
            karr = pa.array(kcol.to_numpy(
                zero_copy_only=False).astype(np.int64))
        else:
            karr = pa.array([str(x) for x in kcol.to_pylist()],
                            pa.string())
        return pa.Table.from_arrays(
            [karr, pa.array(h.astype(np.uint64))], names=["k", "h"])

    def diff(old: pa.Table, new: pa.Table) -> pa.Table:
        """One bucket's (or the whole driver fold's) old and new rows →
        (key, status).  A 0-row side may carry its key column alone."""
        key_type = (new if new.num_rows else old).schema.field("k").type
        out_schema = pa.schema([(key_col, key_type),
                                ("status", pa.string())])
        if old.num_rows + new.num_rows == 0:
            return out_schema.empty_table()

        def sorted_side(t: pa.Table):
            if t.num_rows == 0:
                return np.zeros(0, np.int64), np.zeros(0, np.uint64)
            k = t.column("k").to_numpy(zero_copy_only=False)
            h = t.column("h").to_numpy(zero_copy_only=False)
            order = np.argsort(k, kind="stable")
            return k[order], h[order]

        (ko, ho), (kn, hn) = sorted_side(old), sorted_side(new)
        po = np.searchsorted(ko, kn)
        in_old = (po < len(ko)) & (ko[np.minimum(po, max(len(ko) - 1,
                                                         0))] == kn) \
            if len(ko) else np.zeros(len(kn), dtype=bool)
        pn = np.searchsorted(kn, ko)
        in_new = (pn < len(kn)) & (kn[np.minimum(pn, max(len(kn) - 1,
                                                         0))] == ko) \
            if len(kn) else np.zeros(len(ko), dtype=bool)
        added_k = kn[~in_old]
        removed_k = ko[~in_new]
        both_n = kn[in_old]
        changed_k = both_n[hn[in_old] != ho[po[in_old]]]
        keys = np.concatenate([added_k, removed_k, changed_k])
        status = (["added"] * len(added_k) + ["removed"] * len(removed_k)
                  + ["changed"] * len(changed_k))
        return pa.Table.from_arrays(
            [pa.array(keys, key_type), pa.array(status, pa.string())],
            names=out_schema.names)

    cols = [key_col] + list(compare_cols)
    old_t, new_t = (ds.select_columns(cols).map_batches(
        narrow_rows, batch_format="pyarrow", zero_copy_batch=True)
        .materialize() for ds in (ds_old, ds_new))
    rows = old_t.count() + new_t.count()
    row_bytes = (old_t.size_bytes() + new_t.size_bytes()) / max(rows, 1)
    if tiers.plan_tier(rows, row_bytes) == "partitioned":
        return co_partition(old_t, new_t, diff, n_parts, on="k")
    import ray.data

    if rows == 0:
        # Ray DROPS empty blocks (map_batches never ran, neither side
        # has a schema), so the key type comes from the INPUT — a
        # schema probe is cheap here because both sides are empty;
        # string-keyed empty snapshots must not emit an int64 key
        kt = pa.int64()
        try:
            in_sch = getattr(ds_new.schema(), "base_schema", None)
            if in_sch is not None and not pa.types.is_integer(
                    in_sch.field(key_col).type):
                kt = pa.string()
        except Exception:
            pass
        empty = pa.schema([("k", kt), ("h", pa.uint64())]).empty_table()
        return ray.data.from_arrow(diff(empty, empty))
    return ray.data.from_arrow(diff(collect_table(old_t, ["k", "h"]),
                                    collect_table(new_t, ["k", "h"])))


def _tdiv(a: int, b: int) -> int:
    """Integer division TRUNCATING toward zero — DuckDB's ``//`` on
    integers (Python's ``//`` floors, which differs on negatives)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def grouped_ols(ds, *, group_col: str, x_col: str, y_col: str,
                x_scale: int = 100, y_scale: int = 100,
                out_scale: int = 10**6, n_parts: int = 8) -> pa.Table:
    """Per-group simple LINEAR REGRESSION (``regr_slope`` /
    ``regr_intercept``) with EXACT integer-rational arithmetic — the
    finished estimator on top of the mergeable second-moment partials
    (``qty_disc_moments``): trend-per-segment reporting without any
    float-summation order ambiguity.

    Per batch one vectorized group-sum emits the five classic partials
    ``(n, Σx, Σy, Σxx, Σxy)`` over ``round(col*scale)`` int64 values
    (≤ groups rows per batch into the exchange);
    :func:`bucketed_group_sum` folds them exactly.  The driver finish —
    bounded by GROUP CARDINALITY, not rows — computes with Python
    bigints (the products overflow int64 by design)::

        slope_scaled     = trunc(out_scale * (nΣxy − ΣxΣy)
                                 / (nΣxx − Σx²))         # per y/x unit
        intercept_scaled = trunc(out_scale * (Σy·den − num·Σx)
                                 / (n·den)) (in y units × out_scale/y_scale)

    with DuckDB-matching TRUNCATING division so a HUGEINT SQL oracle
    reproduces both bit-for-bit.  Degenerate groups (n < 2 or zero
    x-variance) report NULL slope/intercept.

    Returns a small pa.Table (group, n, slope_e6, intercept_e6)."""
    part_schema = pa.schema([
        ("g", pa.string()), ("n", pa.int64()), ("sx", pa.int64()),
        ("sy", pa.int64()), ("sxx", pa.int64()), ("sxy", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        x = np.round(b.column(x_col).to_numpy(
            zero_copy_only=False).astype(np.float64) * x_scale) \
            .astype(np.int64)
        y = np.round(b.column(y_col).to_numpy(
            zero_copy_only=False).astype(np.float64) * y_scale) \
            .astype(np.int64)
        t = pa.Table.from_arrays(
            [pc.cast(b.column(group_col), pa.string()),
             pa.array(np.ones(len(x), dtype=np.int64)), pa.array(x),
             pa.array(y), pa.array(x * x), pa.array(x * y)],
            names=part_schema.names)
        g = pa.TableGroupBy(t, "g").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("sxy", "sum")])
        return g.rename_columns(part_schema.names)

    folded = bucketed_group_sum(
        ds.select_columns([group_col, x_col, y_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        key="g", sum_cols=["n", "sx", "sy", "sxx", "sxy"],
        n_parts=n_parts)

    rows = []
    for blk in folded.iter_batches(batch_format="pyarrow"):
        for r in blk.to_pylist():
            rows.append(r)
    out_g, out_n, out_s, out_i = [], [], [], []
    for r in sorted(rows, key=lambda r: r["g"]):
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxx, sxy = int(r["sxx"]), int(r["sxy"])
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        out_g.append(r["g"])
        out_n.append(n)
        if n < 2 or den == 0:
            out_s.append(None)
            out_i.append(None)
            continue
        # slope in (y units per x unit): num/den is per (y_scale per
        # x_scale); multiply by x_scale/y_scale to normalize
        out_s.append(_tdiv(out_scale * x_scale * num, y_scale * den))
        out_i.append(_tdiv(out_scale * (sy * den - num * sx),
                           y_scale * n * den))
    return pa.table({
        group_col: pa.array(out_g, pa.string()),
        "n": pa.array(out_n, pa.int64()),
        "slope_e6": pa.array(out_s, pa.int64()),
        "intercept_e6": pa.array(out_i, pa.int64())})


def zorder_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized 2-column Z-ORDER (Morton) value: interleave the low 16
    bits of each column (a on even bit positions, b on odd) into one
    int64 — the space-filling-curve key that makes ONE sort give range
    locality on BOTH columns (the standard lakehouse multi-column
    clustering trick).  Uses the classic bit-spread magic numbers, all
    int64 ops, so DuckDB reproduces it with the same & | << chain."""
    def spread(x: np.ndarray) -> np.ndarray:
        x = x.astype(np.int64) & np.int64(0xFFFF)
        x = (x | (x << 8)) & np.int64(0x00FF00FF)
        x = (x | (x << 4)) & np.int64(0x0F0F0F0F)
        x = (x | (x << 2)) & np.int64(0x33333333)
        x = (x | (x << 1)) & np.int64(0x55555555)
        return x

    return spread(a) | (spread(b) << np.int64(1))


def zorder_partition_stats(ds, *, col_a: str, col_b: str,
                           n_partitions: int = 8):
    """Z-order LAYOUT CLUSTERING report: assign every row to one of
    ``n_partitions`` Morton-curve range partitions and report each
    partition's row count and per-column min/max envelopes — the
    write-side layout step that lets a reader prune files on EITHER
    column's predicate (tight envelopes = effective pruning; see
    test_zorder_pruning_effectiveness).

    Plan: one pass computes z per row (pure bit math); EXACT partition
    boundaries come from the distributed-selection quantile operator
    (:func:`quantile_via_selection` — z is high-cardinality, the
    value-counts fold doesn't apply) at ranks i/n; a second pass assigns
    ``pid = #(boundary < z)`` via ``np.searchsorted`` and pre-combines
    per-(batch, pid) count/min/max partials — the driver folds
    ≤ blocks×partitions tiny rows.  At write time the same pid keys a
    partitioned ``write_parquet``; here the stats table IS the output
    so the oracle can verify the layout exactly."""
    import ray

    zschema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                         ("z", pa.int64())])

    def with_z(batch: pa.Table) -> pa.Table:
        a = batch.column(col_a).to_numpy(
            zero_copy_only=False).astype(np.int64)
        b = batch.column(col_b).to_numpy(
            zero_copy_only=False).astype(np.int64)
        a &= np.int64(0xFFFF)
        b &= np.int64(0xFFFF)
        return pa.Table.from_arrays(
            [pa.array(a), pa.array(b), pa.array(zorder_values(a, b))],
            names=zschema.names)

    zds = ds.select_columns([col_a, col_b]).map_batches(
        with_z, batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()

    qs = [i / n_partitions for i in range(1, n_partitions)]
    bounds = np.asarray(
        [v for v in quantile_via_selection(zds, "z", qs)
         if v is not None], dtype=np.float64)
    b_ref = ray.put(bounds)

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        bd = ray.get(b_ref)
        z = batch.column("z").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        pid = np.searchsorted(bd, z, side="left").astype(np.int64)
        df = pd.DataFrame({
            "pid": pid,
            "a": batch.column("a").to_numpy(zero_copy_only=False),
            "b": batch.column("b").to_numpy(zero_copy_only=False),
            "z": batch.column("z").to_numpy(zero_copy_only=False)})
        g = df.groupby("pid").agg(
            n_rows=("z", "size"), min_a=("a", "min"),
            max_a=("a", "max"), min_b=("b", "min"), max_b=("b", "max"),
            min_z=("z", "min"), max_z=("z", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg: dict[int, list] = {}
    for blk in zds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True).iter_batches(
                                   batch_format="pyarrow"):
        for r in blk.to_pylist():
            cur = agg.get(r["pid"])
            if cur is None:
                agg[r["pid"]] = [r["n_rows"], r["min_a"], r["max_a"],
                                 r["min_b"], r["max_b"], r["min_z"],
                                 r["max_z"]]
            else:
                cur[0] += r["n_rows"]
                cur[1] = min(cur[1], r["min_a"])
                cur[2] = max(cur[2], r["max_a"])
                cur[3] = min(cur[3], r["min_b"])
                cur[4] = max(cur[4], r["max_b"])
                cur[5] = min(cur[5], r["min_z"])
                cur[6] = max(cur[6], r["max_z"])
    pids = sorted(agg)
    cols = list(zip(*[agg[p] for p in pids])) if pids else [[]] * 7
    return pa.table({
        "pid": pa.array(pids, pa.int64()),
        "n_rows": pa.array(cols[0], pa.int64()),
        "min_a": pa.array(cols[1], pa.int64()),
        "max_a": pa.array(cols[2], pa.int64()),
        "min_b": pa.array(cols[3], pa.int64()),
        "max_b": pa.array(cols[4], pa.int64()),
        "min_z": pa.array(cols[5], pa.int64()),
        "max_z": pa.array(cols[6], pa.int64())})


def write_zordered(ds, path: str, *, col_a: str, col_b: str,
                   n_partitions: int = 8, **write_kwargs) -> str:
    """Z-order WRITE layout — the write side of the lakehouse clustering
    trick whose stats :func:`zorder_partition_stats` reports: every row
    gets a Morton-curve range partition id (exact boundaries from
    :func:`quantile_via_selection` over the interleaved z value) and the
    table lands as one ``_zpid=K/`` parquet directory per partition, so
    a later reader can prune whole files on a range predicate over
    EITHER column (see :func:`read_parquet_pruned`).

    Two corpus passes: one to find the z boundaries (selection needs
    exact ranks), one to tag + write.  All original columns are kept;
    only the int64 ``_zpid`` partition key is added.  Resumable like
    every partitioned write here: a failed run can re-write per
    ``_zpid=K/`` directory.

    Reference parity: the reference has no storage-layout step (it
    validates documents in place); this is one of the beyond-reference
    scale operators (SURVEY §2 training-data additions).
    """
    import ray

    def with_z_only(batch: pa.Table) -> pa.Table:
        a = batch.column(col_a).to_numpy(
            zero_copy_only=False).astype(np.int64) & np.int64(0xFFFF)
        b = batch.column(col_b).to_numpy(
            zero_copy_only=False).astype(np.int64) & np.int64(0xFFFF)
        return pa.table({"z": zorder_values(a, b)})

    zds = ds.select_columns([col_a, col_b]).map_batches(
        with_z_only, batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()
    qs = [i / n_partitions for i in range(1, n_partitions)]
    bounds = np.asarray(
        [v for v in quantile_via_selection(zds, "z", qs)
         if v is not None], dtype=np.float64)
    b_ref = ray.put(bounds)

    def tag(batch: pa.Table) -> pa.Table:
        bd = ray.get(b_ref)
        a = batch.column(col_a).to_numpy(
            zero_copy_only=False).astype(np.int64) & np.int64(0xFFFF)
        b = batch.column(col_b).to_numpy(
            zero_copy_only=False).astype(np.int64) & np.int64(0xFFFF)
        z = zorder_values(a, b).astype(np.float64)
        pid = np.searchsorted(bd, z, side="left").astype(np.int64)
        return batch.append_column("_zpid", pa.array(pid))

    ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True) \
        .write_parquet(path, partition_cols=["_zpid"], **write_kwargs)
    return path


def read_parquet_pruned(path: str, *, col: str, lo, hi,
                        columns: "list[str] | None" = None):
    """Envelope-pruned parquet read — the READ-side payoff of
    :func:`write_zordered`: scan only parquet FOOTERS (a driver-side
    metadata pass, the standard planner step — at 100 TB this file list
    lives in a manifest/catalog table and the same overlap test runs as
    a tiny metadata query instead), keep the files whose row-group
    ``[min, max]`` statistics of ``col`` overlap ``[lo, hi]``, and read
    ONLY those with :func:`ray.data.read_parquet`, applying the residual
    row filter vectorized inside ``map_batches``.

    Files without usable stats for ``col`` are kept (pruning must never
    drop rows).  Returns ``(dataset, n_files_total, n_files_read)`` so
    callers (and tests) can assert the prune actually happened.
    """
    import os

    import pyarrow.parquet as pq
    import ray.data

    # Plain walk, NOT pyarrow dataset discovery: pads.dataset() silently
    # drops any path component starting with "_" (treated as metadata,
    # e.g. _metadata/_SUCCESS), which hides the hive "_zpid=K/" dirs
    # write_zordered produces.
    frag_files = sorted(
        os.path.join(root, f)
        for root, _dirs, files in os.walk(path)
        for f in files if f.endswith(".parquet"))
    if not frag_files:
        raise ValueError(f"no parquet files under {path}")
    kept = []
    for f in frag_files:
        md = pq.ParquetFile(f).metadata
        overlap, saw_stats = False, False
        for rg in range(md.num_row_groups):
            row_group = md.row_group(rg)
            for ci in range(row_group.num_columns):
                c = row_group.column(ci)
                if c.path_in_schema != col:
                    continue
                st = c.statistics
                if st is None or not st.has_min_max:
                    overlap = True      # unknown envelope: must keep
                else:
                    saw_stats = True
                    if st.min <= hi and st.max >= lo:
                        overlap = True
                break
            if overlap:
                break
        if overlap or not saw_stats:
            kept.append(f)

    read_paths = kept if kept else frag_files[:1]
    drop_after = columns is not None and col not in columns
    read_cols = ([*columns, col] if drop_after else columns)

    def residual(batch: pa.Table) -> pa.Table:
        v = batch.column(col)
        mask = pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
        out = batch.filter(mask)
        return out.drop_columns([col]) if drop_after else out

    out = ray.data.read_parquet(read_paths, columns=read_cols) \
        .map_batches(residual, batch_format="pyarrow",
                     zero_copy_batch=True)
    # n_files_read = files actually opened (the no-overlap case still
    # reads one fallback file for the schema, and must say so)
    return out, len(frag_files), len(read_paths)


def join_size_exact(ds_a, ds_b, *, key_a: str, key_b: str,
                    n_parts: int = 32) -> dict:
    """EXACT equi-join cardinality WITHOUT running the join:
    ``|A ⋈ B| = Σ_k cA(k)·cB(k)`` — the planning probe a pipeline runs
    before committing to a large×large :func:`hash_join` (a skew-blown
    join is the classic 100-TB incident; ``max_key_product`` is the
    skew alarm that says "salt this key first").

    Plan: each side streams an in-batch ``value_counts`` combiner over
    its key read as a string (a hot key is ONE row per batch in the
    exchange — counts move, rows never do); the two count streams meet
    in ONE :func:`~mdvalidate_ray.exchange.co_partition` on the key;
    per bucket a vectorized count merge emits a single
    ``(Σ cA·cB, max cA·cB)`` partial — the driver folds ≤ n_parts
    rows.

    Returns {"join_rows", "n_a", "n_b", "max_key_product"} (Python
    ints — products of two int64 counts can exceed int64 at web scale,
    so partials carry the factors and the driver multiplies bigints
    only where needed; within-bucket products use float-free int64 and
    raise on overflow risk)."""
    import pandas as pd

    from mdvalidate_ray.exchange import co_partition

    part_schema = pa.schema([("k", pa.string()), ("cnt", pa.int64())])

    def counts_of(b: pa.Table, *, key: str) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        vc = pc.cast(b.column(key), pa.string()).value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            schema=part_schema)

    a_cnt, b_cnt = (ds.select_columns([k]).map_batches(
        counts_of, fn_kwargs={"key": k}, batch_format="pyarrow",
        zero_copy_batch=True) for ds, k in ((ds_a, key_a), (ds_b, key_b)))

    out_schema = pa.schema([("s", pa.int64()), ("mx", pa.int64()),
                            ("na", pa.int64()), ("nb", pa.int64())])

    def per_bucket(ta: pa.Table, tb: pa.Table) -> pa.Table:
        def fold(t: pa.Table):
            c = t.column("cnt").to_numpy(zero_copy_only=False) \
                if t.num_rows else np.zeros(0, np.int64)
            ks = np.asarray(t.column("k").to_pylist(), dtype=object)
            return (pd.DataFrame({"k": ks, "c": c})
                    .groupby("k", sort=True)["c"].sum()), int(c.sum())

        (fa, na), (fb, nb) = fold(ta), fold(tb)
        common = fa.index.intersection(fb.index)
        ca = fa.loc[common].to_numpy(np.int64)
        cb = fb.loc[common].to_numpy(np.int64)
        if len(ca) and (ca.astype(object) * cb.astype(object)).max() \
                > 2**62:
            raise OverflowError("per-key count product near int64 "
                                "range; aggregate with bigints")
        prod = ca * cb
        return pa.Table.from_arrays(
            [pa.array([int(prod.sum())]), pa.array(
                [int(prod.max()) if len(prod) else 0]),
             pa.array([na]), pa.array([nb])], names=out_schema.names)

    folded = co_partition(a_cnt, b_cnt, per_bucket, n_parts, on="k",
                          left_schema=part_schema)
    join_rows = n_a = n_b = max_kp = 0
    for blk in folded.iter_batches(batch_format="pyarrow"):
        for r in blk.to_pylist():
            join_rows += int(r["s"])
            max_kp = max(max_kp, int(r["mx"]))
            n_a += int(r["na"])
            n_b += int(r["nb"])
    return {"join_rows": join_rows, "n_a": n_a, "n_b": n_b,
            "max_key_product": max_kp}


def group_approx_distinct(ds, *, group_col: str, distinct_col: str,
                          p: int = 12, n_parts: int = 16,
                          out_name: str = "approx_distinct"):
    """Approximate ``COUNT(DISTINCT distinct_col) GROUP BY group_col``
    via per-group HyperLogLog partials — the sketch tier above
    :func:`group_count_distinct`: when the exact plan's distinct-pair
    exchange is too wide (10^9+ distinct pairs), this one ships a fixed
    2**p bytes per (group, block) instead, with ~1.04/√2^p relative
    error (p=12 → ~1.6%).

    Plan: each block builds one HLL per group it contains (register
    blob rides as a binary column), blobs co-partition on the group
    bucket, and each bucket max-folds registers per
    group — HLL merge is element-wise max, so partials fold exactly and
    deterministically regardless of block arrival order.  Group calls
    are bounded by ``n_parts``."""
    from mdvalidate_ray.exchange import by_bucket
    from mdvalidate_ray.state.sketches import HyperLogLog

    def block_partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({group_col: pa.array([], pa.string()),
                             "_hll": pa.array([], pa.binary())})
        grp = b.column(group_col)
        grp = grp.combine_chunks() if isinstance(
            grp, pa.ChunkedArray) else grp
        enc = pc.cast(grp, pa.string()).dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vals = np.asarray(
            [str(v) for v in b.column(distinct_col).to_pylist()],
            dtype=object)
        keys, blobs = [], []
        for gi, gname in enumerate(enc.dictionary.to_pylist()):
            hll = HyperLogLog(p=p).add(vals[codes == gi])
            keys.append(gname)
            blobs.append(hll.to_bytes())
        return pa.table({
            group_col: pa.array(keys, pa.string()),
            "_hll": pa.array(blobs, pa.binary())})

    def per_bucket(g: pa.Table) -> pa.Table:
        names = g.column(group_col).to_pylist()
        blobs = g.column("_hll").to_pylist()
        folded: dict = {}
        for name, blob in zip(names, blobs):
            hll = HyperLogLog.from_bytes(blob)
            if name in folded:
                folded[name].merge(hll)
            else:
                folded[name] = hll
        items = sorted(folded.items())
        return pa.table({
            group_col: pa.array([k for k, _ in items], pa.string()),
            out_name: pa.array(
                [int(round(h.estimate())) for _, h in items],
                pa.int64())})

    return by_bucket(ds.map_batches(block_partial, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     group_col, per_bucket, n_parts)


def unpivot(ds, *, id_cols: list[str], value_cols: list[str],
            var_name: str = "metric", value_name: str = "value",
            value_type=None):
    """UNPIVOT / melt: turn ``value_cols`` into (id…, metric, value)
    rows — the reshaping inverse of the pivot in priority_pivot.  Pure
    per-batch restructuring (one slice-and-stack per value column, all
    Arrow-side), no exchange; output rows = input rows × |value_cols|.
    ``value_type`` defaults to the first value column's type (resolved
    ONCE from the dataset schema, so heterogeneous block schemas can't
    yield mixed output value types); all value columns cast to it."""
    ds = ds.select_columns(list(id_cols) + list(value_cols))
    if value_type is None:
        sch = ds.schema()
        value_type = dict(zip(sch.names, sch.types))[value_cols[0]]
    vt = value_type

    def melt(b: pa.Table) -> pa.Table:
        target = vt
        pieces = []
        for c in value_cols:
            arrs = [b.column(i) for i in id_cols]
            arrs.append(pa.array([c] * b.num_rows, pa.string()))
            arrs.append(b.column(c).cast(target))
            pieces.append(pa.Table.from_arrays(
                arrs, names=list(id_cols) + [var_name, value_name]))
        return pa.concat_tables(pieces)

    return ds.map_batches(melt, batch_format="pyarrow",
                          zero_copy_batch=True)


def _skyline_2d_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row mask of the 2-D maximize-both Pareto frontier: row r survives
    iff no row s has (s.x ≥ r.x ∧ s.y ≥ r.y) with one inequality
    strict.  Exact duplicates of a frontier point all survive (no
    strict edge between them).  O(n log n): sort x desc / y desc,
    per-x-group max y, exclusive running max over higher-x groups."""
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = xs[1:] != xs[:-1]
    sidx = np.flatnonzero(starts)
    gmax = ys[sidx]                        # y sorted desc within group
    prev = np.concatenate(
        ([np.iinfo(np.int64).min],
         np.maximum.accumulate(gmax)[:-1]))
    gid = np.cumsum(starts) - 1
    keep_sorted = (ys > prev[gid]) & (ys == gmax[gid])
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def skyline_2d(ds, *, x_col: str, y_col: str):
    """Distributed 2-D skyline / Pareto-frontier operator (Börzsönyi,
    Kossmann & Stocker, ICDE 2001 — "the skyline operator"): the rows
    not dominated on (``x_col``, ``y_col``), both maximized, both
    integer columns.

    Plan: one ``map_batches`` keeps each block's LOCAL skyline (the
    skyline of the union equals the skyline of the union of local
    skylines — dominance is transitive, so a globally dominated row is
    already dominated inside its own block or survives to the refine),
    then ONE refine task merges the survivors (constant-key
    ``map_groups``, never the driver).  Local pruning is what makes it
    scale: each block of a uniform distribution keeps ~O(log² |block|)
    rows, so the refine input is tiny.  The documented assumption: the
    UNION OF LOCAL SKYLINES fits one worker — true unless (x, y) are
    strongly anti-correlated across the whole corpus (the known
    worst case of every skyline algorithm, where the frontier itself
    is O(n) and no operator can return less)."""

    def local(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            # keep one schema across all blocks: an empty block must
            # still carry the groupby key column
            return b.append_column("_sky", pa.array([], pa.int64()))
        xv = b.column(x_col).to_numpy(zero_copy_only=False)
        yv = b.column(y_col).to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(_skyline_2d_kernel(xv, yv)))
        return t.append_column("_sky", pa.array(
            np.zeros(t.num_rows, dtype=np.int64)))

    def refine(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_sky"])
        xv = g.column(x_col).to_numpy(zero_copy_only=False)
        yv = g.column(y_col).to_numpy(zero_copy_only=False)
        return g.filter(pa.array(_skyline_2d_kernel(xv, yv)))

    return ds.map_batches(local, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("_sky").map_groups(refine, batch_format="pyarrow")
