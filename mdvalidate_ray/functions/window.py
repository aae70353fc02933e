"""Keyed window operators: top-N per group (ranking), grouped moving
aggregates, and exact per-group quantiles.

These are the window functions (``row_number() OVER``, ``sum() OVER (…
ROWS BETWEEN)``, ``quantile_cont … GROUP BY``) a training-data pipeline
reaches for constantly — per-source best documents, per-key rolling
volumes, per-stratum length percentiles.  Ray Data has no window
operator, so each is built from the engine's standard co-partition
pattern (same as sessionize / the bucketed anti-join):

* ONE exchange on a coarse key bucket
  (:func:`~mdvalidate_ray.exchange.by_bucket`) — the number of Python
  group calls is bounded by ``n_parts``, never by distinct keys
  (at 10^9 keys a per-key ``map_groups`` would make one Python call per
  key);
* all per-group logic inside a bucket is vectorized over the whole
  bucket frame at once (sort + shifted-array compares), not a per-group
  loop;
* where semantics allow (top-N), a per-batch combiner bounds the
  exchange: each input batch forwards at most N rows per group it has
  seen, so the shuffle carries O(N × groups) rows, not the whole table.

Partitioning assumption (documented per the brief): one bucket's rows
fit in a worker's heap — size ``n_parts ≈ total_rows / 5M``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray.exchange import by_bucket


def _key_change(col) -> np.ndarray:
    """Group-start flags over a key column sorted by key: ``True`` where
    a row's key differs from the previous row's.  Compared in Arrow, so
    exact for every key type (``to_numpy`` would send a nullable int64
    through float64 and merge keys past 2^53); null is its own group."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    change = np.ones(n, dtype=bool)
    if n > 1:
        cur, prev = col.slice(1), col.slice(0, n - 1)
        change[1:] = np.asarray(pc.or_(
            pc.fill_null(pc.not_equal(cur, prev), False),
            pc.not_equal(pc.is_null(cur), pc.is_null(prev))))
    return change


def _topn_take(tbl: pa.Table, group_key: str, sort_keys, n: int) -> pa.Table:
    """Vectorized per-group head-N of one in-memory table: one global
    sort, then a shifted-array group-boundary scan (no per-group loop)."""
    idx = pc.sort_indices(tbl, sort_keys=sort_keys)
    s = tbl.take(idx)
    new_grp = _key_change(s.column(group_key))
    # rank within group = position since the last group boundary
    pos = np.arange(len(new_grp)) - np.maximum.accumulate(
        np.where(new_grp, np.arange(len(new_grp)), 0))
    keep = pos < n
    out = s.filter(pa.array(keep))
    rk = pos[keep] + 1
    return out.append_column("rk", pa.array(rk.astype("int64")))


def top_n_per_group(ds, *, group_key: str, order_col: str, n: int,
                    descending: bool = True, tie_col: str | None = None,
                    n_parts: int = 32):
    """Top-N rows per group with a 1-based ``rk`` rank column —
    ``row_number() OVER (PARTITION BY group ORDER BY order_col)`` ≤ N.

    Deterministic: ties on ``order_col`` break by ``tie_col`` ascending
    (pass the group's unique id).  Per-batch combiner first, then one
    coarse-bucket exchange."""
    order_dir = "descending" if descending else "ascending"
    sort_keys = [(group_key, "ascending"), (order_col, order_dir)]
    if tie_col:
        sort_keys.append((tie_col, "ascending"))

    def combine(b: pa.Table) -> pa.Table:
        return _topn_take(b, group_key, sort_keys, n).drop_columns(["rk"])

    def per_bucket(g: pa.Table) -> pa.Table:
        return _topn_take(g, group_key, sort_keys, n)

    pre = ds.map_batches(combine, batch_format="pyarrow",
                         zero_copy_batch=True)
    return by_bucket(pre, group_key, per_bucket, n_parts)


def grouped_moving_sum(ds, *, key: str, order_cols: list[str],
                       value_col: str, window_rows: int,
                       n_parts: int = 32):
    """Per-key moving-window sum + count over ``window_rows`` rows
    (``SUM(value) OVER (PARTITION BY key ORDER BY order_cols ROWS BETWEEN
    window_rows-1 PRECEDING AND CURRENT ROW)``), emitted as ``mov_sum``
    (int64 — keep the value column integer-valued for cross-engine exact
    parity) and ``n_win``.

    Moving windows need each key's full ordered history co-located, so
    there is no per-batch combiner — one coarse-bucket exchange, then a
    fully vectorized pass per bucket: sort once, and for each shift
    s < window_rows add ``v[i-s]`` wherever row i-s is in row i's group
    (rows are key-sorted, so equality at distance s implies the whole
    window back to s is the same key).  O(window × bucket_rows), no
    Python per-row or per-group loop."""
    assert window_rows >= 1

    sort_keys = [(key, "ascending")] + [(c, "ascending")
                                        for c in order_cols]

    def per_bucket(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=sort_keys)
        s = g.take(idx)
        grp = np.cumsum(_key_change(s.column(key)))
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False).copy()
        mov = v.copy()
        n_win = np.ones(len(v), dtype=np.int64)
        for sh in range(1, window_rows):
            if sh >= len(v):
                break
            same = grp[sh:] == grp[:-sh]
            mov[sh:][same] += v[:-sh][same]
            n_win[sh:][same] += 1
        return s.append_column("mov_sum", pa.array(mov)) \
                .append_column("n_win", pa.array(n_win))

    return by_bucket(ds, key, per_bucket, n_parts)


def grouped_running_sum(ds, *, key: str, order_cols: list[str],
                        value_col: str, n_parts: int = 32):
    """Per-key running total (``SUM(value) OVER (PARTITION BY key ORDER
    BY order_cols ROWS UNBOUNDED PRECEDING)``), emitted as ``run_sum``
    with the running row count ``rn`` (= ``row_number()``).

    The value column must already be integer (scale floats to cents
    upstream) so the fold is order-exact across engines.  Unbounded
    windows can't use the O(window) shift trick of
    :func:`grouped_moving_sum`; instead one global cumsum per bucket is
    rebased at each key boundary — sort once, ``np.cumsum``, subtract
    the cumsum value carried in from the previous key's segment
    (``cs - cs[seg_start] + v[seg_start]``) — fully vectorized, no
    per-group loop.  Same single coarse-bucket exchange and same
    bucket-fits-in-heap partitioning assumption as the module's other
    operators."""

    sort_keys = [(key, "ascending")] + [(c, "ascending")
                                        for c in order_cols]

    def per_bucket(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        n = len(v)
        if n == 0:
            return s.append_column("run_sum", pa.array([], pa.int64())) \
                    .append_column("rn", pa.array([], pa.int64()))
        change = _key_change(s.column(key))
        seg_start = np.maximum.accumulate(
            np.where(change, np.arange(n), 0))
        cs = np.cumsum(v)
        run = cs - cs[seg_start] + v[seg_start]
        rn = np.arange(n, dtype=np.int64) - seg_start + 1
        return s.append_column("run_sum", pa.array(run, pa.int64())) \
                .append_column("rn", pa.array(rn, pa.int64()))

    return by_bucket(ds, key, per_bucket, n_parts)


def grouped_lag_delta(ds, *, key: str, order_cols: list[str],
                      value_col: str, n_parts: int = 32):
    """Per-key previous-row difference — ``value - LAG(value) OVER
    (PARTITION BY key ORDER BY order_cols)`` as ``delta`` (null on each
    key's first row), the time-series feature-engineering primitive.

    Same plan as the module's other keyed windows: one coarse-bucket
    exchange, then a single sort + shifted-array compare per bucket (a
    row's predecessor is its sorted neighbor iff the neighbor has the
    same key).  Integer value column required for exact cross-engine
    deltas."""

    sort_keys = [(key, "ascending")] + [(c, "ascending")
                                        for c in order_cols]

    def per_bucket(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        n = len(v)
        delta = np.zeros(n, dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        if n > 1:
            same = ~_key_change(s.column(key))[1:]
            delta[1:][same] = v[1:][same] - v[:-1][same]
            valid[1:] = same
        return s.append_column(
            "delta", pa.array(delta, pa.int64(), mask=~valid))

    return by_bucket(ds, key, per_bucket, n_parts)


def global_rank(ds, *, order_cols: list[str], n_buckets: int | None = None,
                descending: bool = False):
    """Global ``row_number() OVER (ORDER BY order_cols)`` as ``rk``, plus
    (optionally) the SQL ``ntile(n_buckets)`` bucket as ``bucket`` — the
    length-bucketed-batching / curriculum-ordering primitive.

    The MPP-standard plan: ONE distributed range-partitioning sort (the
    documented all-to-all — global ranking cannot avoid it), then rank
    assignment is metadata-only: sorted block row counts come from block
    metadata (``iter_internal_ref_bundles``, no block fetched to the
    driver), the driver cumsums them into per-block offsets, and one raw
    Ray task per block adds ``offset + arange`` — per the brief's
    escalation rule, raw tasks only because ``map_batches`` cannot see a
    block's global position.

    ``order_cols`` must end in a unique tiebreak column for a
    deterministic total order.  ``ntile`` semantics match SQL: the first
    ``total % n`` buckets get one extra row."""
    import ray
    import ray.data

    s = ds.sort(order_cols, descending=descending).materialize()
    counts, refs = [], []
    for bundle in s.iter_internal_ref_bundles():
        for ref, md in bundle.blocks:
            counts.append(md.num_rows)
            refs.append(ref)
    offsets = np.cumsum([0] + counts[:-1])
    total = int(sum(counts))

    @ray.remote
    def add_rank(block: pa.Table, offset: int) -> pa.Table:
        n = block.num_rows
        rk = offset + np.arange(1, n + 1, dtype=np.int64)
        out = block.append_column("rk", pa.array(rk))
        if n_buckets:
            size_small = total // n_buckets
            n_big = total % n_buckets
            big_span = n_big * (size_small + 1)
            idx0 = rk - 1
            bucket = np.where(
                idx0 < big_span,
                idx0 // (size_small + 1) + 1,
                # guard size_small=0 (more buckets than rows): all rows
                # land in the big buckets, the where-branch is unused
                n_big + (idx0 - big_span) // max(size_small, 1) + 1)
            out = out.append_column("bucket",
                                    pa.array(bucket.astype(np.int64)))
        return out

    ranked = [add_rank.remote(ref, int(off))
              for ref, off in zip(refs, offsets)]
    return ray.data.from_arrow_refs(ranked)


def group_quantiles(ds, *, group_key: str, value_col: str,
                    qs: list[float], n_parts: int = 16):
    """EXACT per-group quantiles (linear interpolation — matches both
    ``np.quantile`` and DuckDB ``quantile_cont`` bit-for-bit on the same
    doubles).  Output rows: (group, q, value).

    Exactness requires co-locating each group's values: one coarse-bucket
    exchange of (group, value) pairs only (columns pruned before the
    shuffle).  For high-cardinality heavy groups, or when approximate
    tails suffice, use the mergeable t-digest/KLL path in stages/drift.py
    instead — this operator is for the low-cardinality strata case
    (sources, languages, shards), where each group's values fit
    comfortably in a bucket."""
    out_schema = pa.schema([(group_key, pa.string()), ("q", pa.float64()),
                            ("q_value", pa.float64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        groups, q_out, v_out = [], [], []
        gb = g.to_pandas().groupby(group_key, sort=True)[value_col]
        for name, vals in gb:
            arr = vals.to_numpy(dtype=np.float64)
            qv = np.quantile(arr, qs)
            for q, v in zip(qs, qv):
                groups.append(str(name))
                q_out.append(q)
                v_out.append(float(v))
        return pa.Table.from_arrays(
            [pa.array(groups, pa.string()), pa.array(q_out, pa.float64()),
             pa.array(v_out, pa.float64())], schema=out_schema)

    return by_bucket(ds.select_columns([group_key, value_col]),
                     group_key, per_bucket, n_parts)


def grouped_range_sum(ds, *, key: str, ts_col: str, value_col: str,
                      range_delta_us: int, order_tie_cols: list[str] | None
                      = None, n_parts: int = 32):
    """Per-key TIME-RANGE window sum + count — ``SUM(value) OVER
    (PARTITION BY key ORDER BY ts RANGE BETWEEN <delta> PRECEDING AND
    CURRENT ROW)`` — emitted as ``range_sum`` and ``n_range``.

    RANGE frames differ from the ROWS frames of
    :func:`grouped_moving_sum` in both directions: the window reaches
    back a fixed TIME interval (a variable number of rows), and
    "CURRENT ROW" means *all peers* sharing the row's ORDER BY value —
    rows with an identical timestamp see each other's contributions
    regardless of physical order (the SQL-standard peer rule, which both
    DuckDB and this kernel implement, keeping the oracle comparison
    exact).  The value column must already be integer (cents-scale
    upstream) so sums are order-exact.

    Same single coarse-bucket exchange as the other operators here; the
    per-bucket pass is fully vectorized: sort once by (key, ts), rebase
    timestamps, lift each key's segment into a disjoint numeric range
    (``ts + seg_id × stride`` with ``stride > span + delta``, so one
    global ``np.searchsorted`` answers every row's window-start — and,
    with ``side='right'``, its peer-group end), then two gathers into a
    zero-prefixed cumsum.  No per-group loop; O(bucket · log bucket).
    ``order_tie_cols`` only canonicalizes the emitted row order for
    deterministic output — the window itself is defined by (key, ts).
    """
    sort_keys = [(key, "ascending"), (ts_col, "ascending")] + \
        [(c, "ascending") for c in (order_tie_cols or [])]
    delta = np.int64(range_delta_us)

    def per_bucket(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        n = s.num_rows
        if n == 0:
            return s.append_column("range_sum", pa.array([], pa.int64())) \
                    .append_column("n_range", pa.array([], pa.int64()))
        ts = s.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = ts - ts.min()                      # rebase: small magnitudes
        change = _key_change(s.column(key))
        seg_id = np.cumsum(change) - 1          # 0-based segment index
        seg_start = np.maximum.accumulate(np.where(change, np.arange(n), 0))
        stride = np.int64(ts.max()) + delta + np.int64(1)
        if seg_id[-1] and stride > np.iinfo(np.int64).max // (seg_id[-1] + 1):
            raise ValueError(
                "grouped_range_sum: segments × time-span overflows the "
                "int64 composite key — raise n_parts so buckets shrink")
        ts_adj = ts + seg_id * stride           # per-segment disjoint
        lo = np.maximum(np.searchsorted(ts_adj, ts_adj - delta, side="left"),
                        seg_start)
        hi = np.searchsorted(ts_adj, ts_adj, side="right") - 1  # peers in
        cs0 = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(v, out=cs0[1:])
        return s.append_column(
            "range_sum", pa.array(cs0[hi + 1] - cs0[lo], pa.int64())) \
            .append_column(
            "n_range", pa.array((hi - lo + 1).astype(np.int64)))

    return by_bucket(ds, key, per_bucket, n_parts)


def grouped_string_agg(ds, *, key: str, value_col: str, sep: str = ",",
                       order_cols: list[str] | None = None,
                       n_parts: int = 16):
    """Deterministic ordered string aggregation per group —
    ``string_agg(value, sep ORDER BY order_cols) GROUP BY key`` — emitted
    as (key, ``agg``, ``n_items``).

    The one aggregate family the engine's (sum/min/max/count) partial
    folds can't express: the result is a variable-length *concatenation*
    whose value depends on total order, so each group must co-locate.
    One coarse-bucket exchange of the pruned (key, order, value) columns,
    then a per-bucket pass with no per-group Python loop: sort once,
    derive segment offsets from key change-points, wrap the value column
    in a ``ListArray`` view over those offsets (zero-copy over the sorted
    values) and emit one ``pc.binary_join`` call for the whole bucket.

    Partitioning note (per the brief): output rows are O(group size) —
    this is for bounded groups (names per nation, tags per doc), not for
    concatenating a 10^9-row group into one cell; the bucket-fits-in-heap
    sizing rule of this module applies to the *largest group*, and skewed
    hot keys should be capped upstream (``top_n_per_group``) first."""
    order_cols = order_cols or [value_col]

    sort_keys = [(key, "ascending")] + [(c, "ascending")
                                        for c in order_cols]

    def per_bucket(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        n = s.num_rows
        key_type = s.column(key).type
        if n == 0:
            return pa.Table.from_arrays(
                [pa.array([], key_type), pa.array([], pa.string()),
                 pa.array([], pa.int64())],
                names=[key, "agg", "n_items"])
        starts = np.flatnonzero(_key_change(s.column(key)))
        offsets = np.append(starts, n).astype(np.int32)
        vals = s.column(value_col).combine_chunks().cast(pa.string())
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.chunk(0) if vals.num_chunks else \
                pa.array([], pa.string())
        lists = pa.ListArray.from_arrays(pa.array(offsets), vals)
        joined = pc.binary_join(lists, sep)
        return pa.Table.from_arrays(
            [s.column(key).take(pa.array(starts)), joined,
             pa.array(np.diff(offsets).astype(np.int64))],
            names=[key, "agg", "n_items"])

    return by_bucket(
        ds.select_columns(list(dict.fromkeys([key, *order_cols, value_col]))),
        key, per_bucket, n_parts)


def global_percent_rank(ds, *, value_col: str):
    """Global ``rank() / percent_rank() / cume_dist() OVER (ORDER BY
    value_col)`` WITH SQL peer (tie) semantics — unlike
    :func:`global_rank`, no unique tiebreak is required: tied rows share
    a rank, and ``cume_dist`` counts the whole peer group.

    Plan: ONE range-partition sort (the unavoidable all-to-all), then —
    like :func:`global_rank` — everything else is METADATA-only: each
    sorted block reports five scalars ``(n_rows, first_val, last_val,
    n_head, n_tail)`` where ``n_head``/``n_tail`` are the lengths of the
    runs equal to the block's boundary values.  The driver resolves
    peer runs that CROSS block boundaries by walking those scalars
    (``run_back[i]`` = occurrences of block i's first value in earlier
    blocks, ``run_fwd[i]`` = occurrences of its last value in later
    blocks; blocks made of one value chain through), then one raw Ray
    task per block assigns, vectorized:

    * ``rnk[v]   = offset + local_first(v) - run_back·[v = first] + 1``
    * ``cum(v)   = offset + local_last(v) + 1 + run_fwd·[v = last]``
    * ``pct_rank = (rnk - 1) / (total - 1)`` (0 when total = 1)
    * ``cume     = cum / total``

    Both ratios are a single IEEE division of exact integers, so they
    equal DuckDB's ``percent_rank()`` / ``cume_dist()`` bit for bit."""
    import ray
    import ray.data

    s = ds.sort(value_col).materialize()
    refs, meta = [], []

    @ray.remote
    def block_meta(block: pa.Table):
        v = block.column(value_col).to_numpy(zero_copy_only=False)
        n = len(v)
        n_head = int(np.searchsorted(v, v[0], side="right"))
        n_tail = n - int(np.searchsorted(v, v[-1], side="left"))
        return n, v[0], v[-1], n_head, n_tail

    for bundle in s.iter_internal_ref_bundles():
        for ref, md in bundle.blocks:
            if md.num_rows:
                refs.append(ref)
    meta = ray.get([block_meta.remote(r) for r in refs])
    counts = [m[0] for m in meta]
    offsets = np.cumsum([0] + counts[:-1]).astype(np.int64)
    total = int(sum(counts))

    n_blocks = len(meta)
    run_back = [0] * n_blocks
    run_fwd = [0] * n_blocks
    for i in range(n_blocks):
        fv = meta[i][1]
        acc = 0
        for j in range(i - 1, -1, -1):
            n_j, f_j, l_j, nh_j, nt_j = meta[j]
            if l_j != fv:
                break
            acc += nt_j
            if not (f_j == l_j and nh_j == n_j):
                break  # run does not span the whole block j
        run_back[i] = acc
        lv = meta[i][2]
        acc = 0
        for j in range(i + 1, n_blocks):
            n_j, f_j, l_j, nh_j, nt_j = meta[j]
            if f_j != lv:
                break
            acc += nh_j
            if not (f_j == l_j and nh_j == n_j):
                break
        run_fwd[i] = acc

    @ray.remote
    def assign(block: pa.Table, offset: int, back: int, fwd: int):
        v = block.column(value_col).to_numpy(zero_copy_only=False)
        n = len(v)
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = v[1:] != v[:-1]
        # local first index of each row's peer run
        first_idx = np.maximum.accumulate(
            np.where(new, np.arange(n), 0))
        # local last index: next run start - 1
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], n] - 1
        last_idx = np.repeat(ends, np.diff(np.r_[starts, n]))
        rnk = offset + first_idx + 1 - np.where(v == v[0], back, 0)
        cum = offset + last_idx + 1 + np.where(v == v[-1], fwd, 0)
        pct = ((rnk - 1) / (total - 1) if total > 1
               else np.zeros(n, dtype=np.float64))
        out = block.append_column("rnk", pa.array(rnk.astype(np.int64)))
        out = out.append_column("pct_rank", pa.array(
            np.asarray(pct, dtype=np.float64)))
        return out.append_column("cume", pa.array(cum / total))

    ranked = [assign.remote(r, int(o), int(b), int(f))
              for r, o, b, f in zip(refs, offsets, run_back, run_fwd)]
    if not ranked:
        schema = ds.schema().base_schema
        schema = schema.append(pa.field("rnk", pa.int64()))
        schema = schema.append(pa.field("pct_rank", pa.float64()))
        schema = schema.append(pa.field("cume", pa.float64()))
        return ray.data.from_arrow(schema.empty_table())
    return ray.data.from_arrow_refs(ranked)


def grouped_percent_rank(ds, *, group_col: str, value_col: str,
                         n_parts: int = 16):
    """Per-group ``rank() / percent_rank() OVER (PARTITION BY group
    ORDER BY value)`` with SQL peer-tie semantics, WITHOUT shuffling
    rows — the per-group quantile-transform / score-calibration
    primitive (normalize a quality score within its domain before
    cross-domain mixing).

    Two-phase plan (the scale shape of
    :func:`~mdvalidate_ray.functions.relational.group_zscore`): phase 1
    folds exact ``(group, value, cnt)`` frequencies through one bounded
    exchange (cardinality of the VALUE domain per group, not rows);
    the driver turns them into per-group sorted value arrays + rank
    prefix sums and broadcasts once via ``ray.put``; phase 2 maps every
    row with a vectorized per-group ``np.searchsorted`` — rows never
    leave their blocks.  ``percent_rank = (rank-1)/(n-1)`` is one IEEE
    division of exact ints → DuckDB-bit-equal.  Partitioning
    assumption: the (group × distinct-value) table fits the driver —
    pre-bin continuous values (same contract as the drift family)."""
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    part_schema = pa.schema([("g", pa.string()), ("v", pa.int64()),
                             ("cnt", pa.int64())])

    def freq(b: pa.Table) -> pa.Table:
        import pandas as pd

        if b.num_rows == 0:
            return part_schema.empty_table()
        gg = (pd.DataFrame({
            "g": [str(x) for x in b.column(group_col).to_pylist()],
            "v": b.column(value_col).to_numpy(
                zero_copy_only=False).astype(np.int64)})
            .groupby(["g", "v"], sort=False).size()
            .reset_index(name="c"))
        key = [f"{g}\x1f{v}" for g, v in zip(gg["g"], gg["v"])]
        return pa.Table.from_arrays(
            [pa.array(key, pa.string()),
             pa.array(gg["c"].to_numpy(np.int64))], names=["k", "cnt"])

    folded = bucketed_group_sum(
        ds.select_columns([group_col, value_col]).map_batches(
            freq, batch_format="pyarrow", zero_copy_batch=True),
        key="k", sum_cols=["cnt"], n_parts=n_parts)

    table: dict = {}
    for blk in folded.iter_batches(batch_format="pyarrow"):
        for k, c in zip(blk.column("k").to_pylist(),
                        blk.column("cnt").to_pylist()):
            g, v = k.rsplit("\x1f", 1)
            table.setdefault(g, []).append((int(v), int(c)))
    mapping = {}
    for g, pairs in table.items():
        pairs.sort()
        vals = np.array([p[0] for p in pairs], dtype=np.int64)
        cnts = np.array([p[1] for p in pairs], dtype=np.int64)
        # rank of value v = 1 + (# rows with smaller value)
        ranks = np.r_[0, np.cumsum(cnts)[:-1]] + 1
        mapping[g] = (vals, ranks, int(cnts.sum()))
    map_ref = ray.put(mapping)

    def assign(b: pa.Table) -> pa.Table:
        mp = ray.get(map_ref)
        gcol = np.asarray([str(x) for x in
                           b.column(group_col).to_pylist()],
                          dtype=object)
        v = b.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rnk = np.zeros(len(v), dtype=np.int64)
        pct = np.zeros(len(v), dtype=np.float64)
        for g in np.unique(gcol):
            mask = gcol == g
            vals, ranks, n_g = mp[g]
            r = ranks[np.searchsorted(vals, v[mask])]
            rnk[mask] = r
            pct[mask] = ((r - 1) / (n_g - 1) if n_g > 1
                         else np.zeros(mask.sum()))
        out = b.append_column("rnk", pa.array(rnk))
        return out.append_column("pct_rank", pa.array(pct))

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def weighted_quantile(values: np.ndarray, counts: np.ndarray,
                      qs: list[float], *,
                      method: str = "linear") -> list[float]:
    """Exact quantiles of the multiset {values[i] × counts[i]} without
    expanding it.  ``values`` must be sorted ascending.

    * ``linear`` — bit-for-bit what ``np.quantile`` / DuckDB
      ``quantile_cont`` return (lerp: v_lo + frac·(v_hi − v_lo)).
    * ``disc`` — DuckDB ``quantile_disc`` / np ``inverted_cdf``: the
      element at 0-based rank ``ceil(q·n) − 1`` (an actual data value,
      never an interpolation)."""
    cum = np.cumsum(counts.astype(np.int64))
    n = int(cum[-1])
    out = []
    for q in qs:
        if method == "disc":
            r = max(int(np.ceil(q * n)) - 1, 0)
            out.append(float(values[np.searchsorted(cum, r,
                                                    side="right")]))
            continue
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        frac = pos - lo
        v_lo = float(values[np.searchsorted(cum, lo, side="right")])
        v_hi = float(values[np.searchsorted(cum, hi, side="right")])
        out.append(v_lo + frac * (v_hi - v_lo))
    return out


def group_quantiles_counts(ds, *, group_key: str, value_col: str,
                           qs: list[float], n_parts: int = 16,
                           method: str = "linear"):
    """EXACT per-group quantiles for SMALL VALUE DOMAINS (quantities,
    ratings, sizes, bucketed lengths): the exchange carries distinct
    (group, value) pairs with counts — in-block combined, so a 10^12-row
    column with 50 distinct values ships ~50 rows per block instead of
    the full pair stream that :func:`group_quantiles` pays.  Same
    linear-interpolation semantics (DuckDB quantile_cont /
    np.quantile).  For wide domains use group_quantiles (bounded
    groups) or the mergeable t-digest/KLL path (approximate)."""
    from mdvalidate_ray.functions.relational import (
        _fold_group_value_counts, _group_value_counts)

    out_schema = pa.schema([(group_key, pa.string()), ("q", pa.float64()),
                            ("q_value", pa.float64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        folded = _fold_group_value_counts(g, group_key, value_col)
        names = np.asarray(folded.column(group_key).to_pylist(),
                           dtype=object)
        vals = np.asarray(folded.column(value_col).to_pandas(),
                          dtype=np.float64)
        cnts = np.asarray(folded.column("_c").to_pandas(),
                          dtype=np.int64)
        groups, q_out, v_out = [], [], []
        for name in np.unique(names):
            m = names == name
            for q, v in zip(qs, weighted_quantile(vals[m], cnts[m], qs,
                                                  method=method)):
                groups.append(str(name))
                q_out.append(q)
                v_out.append(v)
        return pa.Table.from_arrays(
            [pa.array(groups, pa.string()), pa.array(q_out, pa.float64()),
             pa.array(v_out, pa.float64())], schema=out_schema)

    return _group_value_counts(ds, group_key, value_col, per_bucket,
                               n_parts)


def global_ordered_prefix_sum(ds, *, key: str, value_col: str,
                              n_parts: int = 32):
    """Global EXCLUSIVE prefix sum of ``value_col`` over the total order
    of a UNIQUE integer ``key`` — ``SUM(value) OVER (ORDER BY key ROWS
    BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)`` as ``start_off``
    (0 for the first row) — the distributed-scan primitive behind
    GPT-style concat-and-chunk packing: every document's exact global
    token offset in the virtual concatenated training stream.

    Unlike the frequency-fold ranks (:func:`global_percent_rank`) this
    needs order-aligned partial SUMS, and unlike :func:`global_rank` it
    avoids the full range-partitioning sort: keys are integers, so a
    RANGE bucket (``(key - min) // ceil(span / n_parts)``) is itself
    order-aligned.  Three-step plan:

    1. one narrow materialized (key, value) pass → Min/Max(key);
    2. per-batch in-block partial (bucket, sum) rows — the driver folds
       O(blocks × n_parts) tiny partials into n_parts bucket totals and
       exclusive-scans them (n_parts ints, closure-broadcast);
    3. one coarse exchange on the range bucket, per-bucket sort +
       ``cumsum - v + bucket_offset`` (vectorized, no per-row Python).

    Partitioning assumptions (documented per the brief): ``key`` is
    unique (ties would make the order non-total) and one bucket fits a
    worker's heap — size ``n_parts ≈ rows / 5M``.  Skewed key RANGES
    (dense cluster inside a wide span) skew buckets; pre-map keys to a
    dense domain if so."""
    from ray.data.aggregate import Max, Min

    narrow = ds.select_columns([key, value_col]).materialize()
    mm = narrow.aggregate(Min(key), Max(key))
    mn, mx = int(mm[f"min({key})"]), int(mm[f"max({key})"])
    q = max(1, -(-(mx - mn + 1) // n_parts))  # ceil(span / n_parts)

    def tag(b: pa.Table) -> pa.Table:
        k = b.column(key).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column(
            "_bucket", pa.array((k - mn) // q, pa.int64()))

    tagged = narrow.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True)

    def bucket_partials(b: pa.Table) -> pa.Table:
        bk = b.column("_bucket").to_numpy(zero_copy_only=False)
        v = b.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        sums = np.zeros(n_parts, dtype=np.int64)
        np.add.at(sums, bk, v)
        nz = np.flatnonzero(sums)
        return pa.Table.from_arrays(
            [pa.array(nz, pa.int64()), pa.array(sums[nz], pa.int64())],
            names=["_bucket", "_sum"])

    totals = np.zeros(n_parts, dtype=np.int64)
    for part in tagged.map_batches(
            bucket_partials, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        np.add.at(totals, part.column("_bucket").to_numpy(),
                  part.column("_sum").to_numpy())
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def per_bucket(g: pa.Table) -> pa.Table:
        bk = int(g.column("_bucket")[0].as_py())
        g = g.drop_columns(["_bucket"])
        s = g.take(pc.sort_indices(g, sort_keys=[(key, "ascending")]))
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        start = np.cumsum(v) - v + offsets[bk]
        return s.append_column("start_off", pa.array(start, pa.int64()))

    return tagged.groupby("_bucket").map_groups(per_bucket,
                                                batch_format="pyarrow")


def global_ordered_prefix_max(ds, *, key: str, value_col: str,
                              n_parts: int = 32):
    """Global EXCLUSIVE prefix max of ``value_col`` over the total order
    of a UNIQUE integer ``key`` — ``MAX(value) OVER (ORDER BY key ROWS
    BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)`` as ``prev_max``
    (null for the global first row) — the event-time WATERMARK
    primitive: "the furthest event time seen before me in arrival
    order", which classifies late data in streaming systems
    (arrival order = the unique key; lateness = prev_max − own ts).

    Same three-step range-bucket scan as
    :func:`global_ordered_prefix_sum` (integer range buckets are
    order-aligned, so no global sort): per-batch (bucket, max)
    partials, a driver fold of O(blocks × n_parts) tiny rows into
    exclusive per-bucket seeds, one coarse exchange + per-bucket
    vectorized ``np.maximum.accumulate``.  Same partitioning
    assumptions: unique integer key, one bucket per worker heap,
    dense-enough key range."""
    from ray.data.aggregate import Max, Min

    SENT = np.int64(-(2 ** 63))
    narrow = ds.select_columns([key, value_col]).materialize()
    mm = narrow.aggregate(Min(key), Max(key))
    mn, mx = int(mm[f"min({key})"]), int(mm[f"max({key})"])
    q = max(1, -(-(mx - mn + 1) // n_parts))

    def tag(b: pa.Table) -> pa.Table:
        k = b.column(key).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column(
            "_bucket", pa.array((k - mn) // q, pa.int64()))

    tagged = narrow.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True)

    def bucket_partials(b: pa.Table) -> pa.Table:
        bk = b.column("_bucket").to_numpy(zero_copy_only=False)
        v = b.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        maxes = np.full(n_parts, SENT, dtype=np.int64)
        np.maximum.at(maxes, bk, v)
        nz = np.flatnonzero(maxes != SENT)
        return pa.Table.from_arrays(
            [pa.array(nz, pa.int64()), pa.array(maxes[nz], pa.int64())],
            names=["_bucket", "_max"])

    totals = np.full(n_parts, SENT, dtype=np.int64)
    for part in tagged.map_batches(
            bucket_partials, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        np.maximum.at(totals, part.column("_bucket").to_numpy(),
                      part.column("_max").to_numpy())
    # exclusive running max of bucket maxes: seed for bucket b is the
    # max over all rows in buckets < b (SENT = "nothing before")
    seeds = np.concatenate(
        ([SENT], np.maximum.accumulate(totals)[:-1]))

    def per_bucket(g: pa.Table) -> pa.Table:
        bk = int(g.column("_bucket")[0].as_py())
        g = g.drop_columns(["_bucket"])
        s = g.take(pc.sort_indices(g, sort_keys=[(key, "ascending")]))
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        run = np.maximum.accumulate(v)
        prev = np.concatenate(([SENT], run[:-1]))
        prev = np.maximum(prev, seeds[bk])
        arr = pa.array(prev, pa.int64())
        if seeds[bk] == SENT:
            arr = pc.if_else(pc.equal(arr, pa.scalar(int(SENT))),
                             pa.scalar(None, pa.int64()), arr)
        return s.append_column("prev_max", arr)

    return tagged.groupby("_bucket").map_groups(per_bucket,
                                                batch_format="pyarrow")


def pack_nextfit(ds, *, key: str, value_col: str, seq_len: int,
                 n_parts: int = 32):
    """Greedy NEXT-FIT whole-document sequence packing — the other half
    of training-data packing next to the concat-and-chunk manifest
    (:func:`global_ordered_prefix_sum`): documents stay WHOLE (SFT /
    instruction tuning can't split a sample), bins are filled in key
    order and closed when the next document would overflow ``seq_len``;
    a single oversized document gets a bin of its own.

    Distribution contract (the part a naive port gets wrong): next-fit
    is inherently a sequential scan — a bin's contents depend on every
    earlier document — so bins are packed WITHIN range buckets of the
    key order and never cross bucket boundaries.  That is exactly how
    production packing works (each shard packs independently; at most
    ``n_parts - 1`` under-full boundary bins, amortized to nothing at
    scale), and it makes every bucket's packing an independent
    vectorized task instead of a driver-side scan.  Same range-bucket
    rule and partitioning assumptions as
    :func:`global_ordered_prefix_sum` (unique integer key, one bucket
    per worker heap, dense-enough key range).

    Per bucket the cut positions are found with a searchsorted loop
    over the cumulative token counts — O(bins log docs), NOT a per-doc
    Python loop.  Returns one row per document: ``(key, value_col,
    bucket, bin)`` with ``bin`` local to its bucket (0-based), ties to
    the SQL twin in queries.pack_bins' recursive-CTE oracle.
    """
    from ray.data.aggregate import Max, Min

    narrow = ds.select_columns([key, value_col]).materialize()
    mm = narrow.aggregate(Min(key), Max(key))
    mn, mx = int(mm[f"min({key})"]), int(mm[f"max({key})"])
    q = max(1, -(-(mx - mn + 1) // n_parts))

    def tag(b: pa.Table) -> pa.Table:
        k = b.column(key).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return b.append_column(
            "bucket", pa.array((k - mn) // q, pa.int64()))

    tagged = narrow.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True)

    def per_bucket(g: pa.Table) -> pa.Table:
        s = g.take(pc.sort_indices(g, sort_keys=[(key, "ascending")]))
        v = s.column(value_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        c = np.cumsum(v)
        n = len(v)
        cuts = []                      # end index (exclusive) of each bin
        i, consumed = 0, 0
        while i < n:
            j = int(np.searchsorted(c, consumed + seq_len, side="right"))
            if j <= i:                 # oversized doc: bin of its own
                j = i + 1
            cuts.append(j)
            consumed = int(c[j - 1])
            i = j
        sizes = np.diff(np.concatenate(([0], np.asarray(cuts))))
        bins = np.repeat(np.arange(len(cuts), dtype=np.int64), sizes)
        return s.append_column("bin", pa.array(bins, pa.int64()))

    return tagged.groupby("bucket").map_groups(per_bucket,
                                               batch_format="pyarrow")
