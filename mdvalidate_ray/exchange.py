"""The one exchange rule: which bucket a row's key routes it to.

An *exchange bucket* is a column that only routes rows: to a
``groupby(...).map_groups`` co-partition, to ``graph._hash_split``'s
edge buckets, or to BPE's shard actors.  Every exchange bucket comes
from :func:`key_bucket`, and most exchanges are :func:`by_bucket`.
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
operator's own rule.  A two-sided co-partition casts the key side to
the data side's key type *before* bucketing, so both sides read the key
under one rule.

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
