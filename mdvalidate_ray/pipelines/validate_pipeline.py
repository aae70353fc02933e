"""Incremental corpus re-validation: validate only the documents that
changed between two snapshots.

A whole corpus is validated in one pass by
:func:`mdvalidate_ray.pipelines.fused.run_fused_suite`, which ``entry()``,
the CLI corpus mode and ``bench.py`` run; the checkpointed/resumable form
lives in :mod:`mdvalidate_ray.pipelines.checkpoint`.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray import tiers


def incremental_validate(old_docs, new_docs, *, schema_text: str,
                         key: str = "doc_id",
                         content_col: str = "spans"):
    """INCREMENTAL re-validation: validate only what MOVED between two
    corpus snapshots — the CDC composition that makes a 10^12-doc
    validation run affordable when 0.1% of documents changed (the
    resume analog of the reference's incremental reparse,
    /root/reference/src/cmd.rs:101-122, lifted from one document to the
    corpus).

    Plan: :func:`~mdvalidate_ray.functions.relational.snapshot_diff`
    classifies keys (content compared as one uint64 row hash — wide
    span trees cost 16 bytes in the diff exchange); the
    added ∪ changed key set re-enters the NEW snapshot through the
    tiered :func:`~mdvalidate_ray.functions.relational.semi_join_keys`
    (broadcast within the tier budget, Bloom + co-partition past it),
    and only
    those rows pay
    :func:`~mdvalidate_ray.stages.validate.validate_dataset`.  Removed
    keys come back as tombstones so a verdict store can be compacted.

    Returns {"verdicts": Dataset (validated cols + status
    'added'|'changed'), "removed": Dataset (key, status='removed'),
    "diff": the raw diff Dataset}."""
    import ray

    from mdvalidate_ray.functions.relational import (semi_join_keys,
                                                     snapshot_diff)
    from mdvalidate_ray.stages.validate import validate_dataset

    diff = snapshot_diff(old_docs, new_docs, key_col=key,
                         compare_cols=[content_col]).materialize()
    todo = diff.filter(expr="status != 'removed'").materialize()
    removed = diff.filter(expr="status == 'removed'")

    survivors = semi_join_keys(new_docs, todo, left_key=key,
                               right_key=key)
    validated = validate_dataset(survivors, schema_text)

    # status ('added' vs 'changed') rides back TIERED on the change set
    # (tiers.plan_dataset): within the budget, a broadcast (key, status)
    # table (bounded by the CHANGE SET, not the corpus); past it, one
    # co-partition of the validated rows with the (key, status) diff
    # rows — nothing change-set-sized on the driver.  Both tiers look
    # the status up with the same index_in (bit-equal:
    # test_incremental_status_join_tier_parity).  Validated keys are
    # strings (evaluate_batch casts them), so the diff's keys are cast
    # the same way before the lookup.  Arrow's join kernel rejects
    # nested non-key columns (violations is list<struct>), so neither
    # tier joins; the nested columns ride through untouched.
    def add_status(b: pa.Table, kv: pa.Table) -> pa.Table:
        idx = pc.index_in(b.column(key).cast(pa.string()),
                          value_set=kv.column(key))
        return b.append_column("status", pc.fill_null(
            pc.take(kv.column("status"), idx), "changed"))

    if tiers.plan_dataset(todo) != "partitioned":
        from mdvalidate_ray.functions.relational import collect_table

        kv_ref = ray.put(collect_table(todo, [key, "status"]).cast(
            pa.schema([(key, pa.string()), ("status", pa.string())])))
        verdicts = validated.map_batches(
            lambda b: add_status(b, ray.get(kv_ref)),
            batch_format="pyarrow", zero_copy_batch=True)
    else:
        from mdvalidate_ray.exchange import co_partition

        verdicts = co_partition(validated,
                                todo.select_columns([key, "status"]),
                                add_status, 32, on=key)
    return {
        "verdicts": verdicts,
        "removed": removed,
        "diff": diff,
    }
