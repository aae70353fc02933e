"""The one exchange rule: which bucket a row's key routes it to.

An *exchange bucket* is a column that only routes rows: to a
``groupby(...).map_groups`` co-partition, to ``graph._hash_split``'s
edge buckets, or to BPE's shard actors.  Every exchange bucket comes
from :func:`key_bucket`, one-sided exchanges are :func:`by_bucket`, and
every two-sided exchange is :func:`co_partition` (``tests/test_exchange.py``
fails on a ``.union(`` outside this module that is not on its list).
Equal keys must meet in one bucket, whichever block they come from, so
the rule reads keys exactly and never through float64:

* integer columns are exact int64 (nulls filled on the Arrow side, so
  a block with a null cannot send keys past 2^53 through float64), then
  the multiply-shift hash (golden-ratio constant, top 31 bits);
* every other type hashes ``str(v)`` with :func:`hash_strings`, a null
  reading as ``""``;
* several key columns fold ``h = (h × golden) ^ h_col`` before the
  multiply-shift.

A null integer key therefore shares its bucket with 0 and a null string
with ``""``; it routes like any key, and what it matches is each
operator's own rule.  :func:`co_partition` casts the right key to the
left key's type *before* bucketing, so both sides read the key under
one rule.

Not exchange buckets, and not computed here: hashes that are part of a
result.  ``write_bucketed``'s ``bucket=K`` directories,
``shuffle_shards``' ``shard``, text's hashed feature buckets, the
``% 10000`` train/eval splits, audio fingerprints, ``dedup._CC_G1``'s
edge-set signature and ``snapshot_diff``'s row content hash keep their
bytes; ``tests/test_exchange.py`` lists them by function.  Range
partitions (``window``'s prefix-scan buckets) and the HNSW ``key %
n_shards`` split, which decides each shard's graph and so the index's
answers, are not exchange buckets either.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray.state.sketches import hash_strings

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(33)


def int64_keys(col) -> np.ndarray:
    """An integer key column as exact int64, nulls read as 0 (callers
    that must not match a null mask it themselves).  Filling on the
    Arrow side keeps keys past 2^53 exact: ``to_numpy`` sends a column
    with nulls through float64."""
    return pc.fill_null(col, 0).to_numpy(
        zero_copy_only=False).astype(np.int64)


def _key_hash(col) -> np.ndarray:
    """One key column → uint64: exact integers as they are, anything
    else as the string hash of ``str(v)`` with null as ``""``."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_integer(col.type):
            return int64_keys(col).astype(np.uint64)
        if pa.types.is_string(col.type) or pa.types.is_large_string(
                col.type):
            vals = pc.fill_null(col, "").to_numpy(zero_copy_only=False)
        else:
            vals = ["" if v is None else str(v) for v in col.to_pylist()]
    else:
        col = np.asarray(col)
        if col.dtype.kind in "iu":
            return col.astype(np.int64).astype(np.uint64)
        vals = ["" if v is None else str(v) for v in col.tolist()]
    if len(vals) == 0:
        return np.zeros(0, dtype=np.uint64)
    return hash_strings(vals)


def key_bucket(cols, n_parts: int) -> np.ndarray:
    """int64 bucket in ``[0, n_parts)`` of every row of one key column
    or of a list of key columns (Arrow arrays or numpy arrays)."""
    if not isinstance(cols, (list, tuple)):
        cols = [cols]
    h = _key_hash(cols[0])
    for c in cols[1:]:
        h = (h * _GOLDEN) ^ _key_hash(c)
    return (((h * _GOLDEN) >> _SHIFT)
            % np.uint64(n_parts)).astype(np.int64)


def by_bucket(ds, keys, fn, n_parts: int):
    """One co-partition exchange: tag every row with
    ``key_bucket(keys)``, then ``groupby("_bucket").map_groups(fn)``.
    ``fn`` gets one bucket's rows as a ``pyarrow.Table`` without the
    ``_bucket`` column; the number of group calls is bounded by
    ``n_parts``, not by distinct keys."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def tag(b: pa.Table) -> pa.Table:
        bucket = (key_bucket([b.column(k) for k in keys], n_parts)
                  if b.num_rows else np.zeros(0, dtype=np.int64))
        return b.append_column("_bucket", pa.array(bucket))

    def run(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns(["_bucket"]))

    return ds.map_batches(tag, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("_bucket").map_groups(run, batch_format="pyarrow")


_RIGHT = "_co:right"      # the side tag of a co-partitioned row
_R = "_co:r:"             # name space of the right side's columns


def _base_schema(ds):
    s = ds.schema()
    return None if s is None else s.base_schema


def co_partition(left_ds, right_ds, fn, n_parts: int, *, on: str,
                 right_on: str | None = None,
                 left_schema: pa.Schema | None = None):
    """The one two-sided exchange: equal keys of both sides meet in one
    :func:`by_bucket` bucket, and ``fn(left_tbl, right_tbl)`` runs once
    per bucket.

    Both sides union into one tagged stream: a left row keeps its
    columns, a right row writes its key (``right_on``), cast to the left
    key's type, into the left key column ``on`` and its other columns
    under a name space of their own, so equal names on the two sides
    cannot collide; everything else is padded with typed nulls.  ``fn``
    gets each bucket's two sides back under their own schemas and names,
    the right key column in the left key's type.  Either side may be
    0-row, never schema-less; a side whose Dataset has no schema at all
    (no rows) reads as its key column alone.  Non-key columns, nested
    ones included, ride through untouched.  ``fn`` is called only for
    buckets that hold a row of either side.

    ``left_schema`` is the left side's schema when the caller knows it:
    without it, a lazy ``left_ds`` whose schema is not yet known runs a
    ``limit(1)`` of its plan to learn it (all of the plan when a filter
    leaves no row)."""
    right_on = right_on or on
    ls = left_schema if left_schema is not None else _base_schema(left_ds)
    rs = _base_schema(right_ds)
    if ls is None:
        ls = pa.schema([(on, rs.field(right_on).type
                         if rs is not None else pa.null())])
    key_type = ls.field(on).type
    if rs is None:
        rs = pa.schema([(right_on, key_type)])
    r_fields = [f for f in rs if f.name != right_on]
    unified = pa.schema(list(ls) + [(_RIGHT, pa.bool_())]
                        + [(_R + f.name, f.type) for f in r_fields])
    r_out = pa.schema([f.with_type(key_type) if f.name == right_on else f
                       for f in rs])

    def tag(right: bool):
        def tag_block(b: pa.Table) -> pa.Table:
            n = b.num_rows
            if n == 0:       # a 0-row filter leftover can be schema-less
                return unified.empty_table()
            if right:
                src = {_R + f.name: b.column(f.name) for f in r_fields}
                src[on] = b.column(right_on)
            else:
                src = {name: b.column(name) for name in ls.names}
            src[_RIGHT] = pa.array(np.full(n, right))
            cols = [pa.nulls(n, f.type) if f.name not in src
                    else src[f.name] if src[f.name].type == f.type
                    else src[f.name].cast(f.type) for f in unified]
            return pa.Table.from_arrays(cols, schema=unified)
        return tag_block

    def run(g: pa.Table) -> pa.Table:
        is_right = g.column(_RIGHT)
        lt = g.filter(pc.invert(is_right)).select(ls.names)
        rg = g.filter(is_right)
        rt = pa.Table.from_arrays(
            [rg.column(on if n == right_on else _R + n) for n in rs.names],
            schema=r_out)
        return fn(lt, rt)

    tagged = left_ds.map_batches(
        tag(False), batch_format="pyarrow", zero_copy_batch=True).union(
        right_ds.map_batches(tag(True), batch_format="pyarrow",
                             zero_copy_batch=True))
    return by_bucket(tagged, on, run, n_parts)
