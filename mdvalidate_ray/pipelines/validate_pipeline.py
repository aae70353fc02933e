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
                         content_col: str = "spans",
                         batch_size: int | None = None):
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
    validated = validate_dataset(survivors, schema_text,
                                 batch_size=batch_size)

    # status ('added' vs 'changed') rides back TIERED on the change set
    # (tiers.plan_dataset): within the budget, a broadcast (key, status)
    # table (bounded by the CHANGE SET, not the corpus); past it, a
    # hash-partitioned equi-join of the validated rows against the
    # (key, status) diff rows — nothing change-set-sized on the driver
    # (both tiers bit-equal: test_incremental_status_join_tier_parity).
    # Validated keys are strings (evaluate_batch casts them), so the
    # diff's keys are cast the same way before the lookup.
    if tiers.plan_dataset(todo) != "partitioned":
        kv_schema = pa.schema([("k", pa.string()), ("s", pa.string())])
        blks = [b.select([key, "status"]).rename_columns(["k", "s"])
                .cast(kv_schema)
                for b in todo.iter_batches(batch_format="pyarrow")
                if b.num_rows]
        kv_ref = ray.put(pa.concat_tables(blks) if blks
                         else kv_schema.empty_table())

        def add_status(b: pa.Table) -> pa.Table:
            t = ray.get(kv_ref)
            idx = pc.index_in(b.column(key).cast(pa.string()),
                              value_set=t.column("k"))
            return b.append_column("status", pc.fill_null(
                pc.take(t.column("s"), idx), "changed"))

        verdicts = validated.map_batches(add_status,
                                         batch_format="pyarrow",
                                         zero_copy_batch=True)
    else:
        # tagged-union co-partition on the key — Arrow's native join
        # kernel rejects nested non-key columns (violations is
        # list<struct>), so the tier is the house anti-join shape:
        # status rows and validated rows land in the same bucket and a
        # vectorized searchsorted attaches the status; the nested
        # columns ride through untouched
        import numpy as np

        from mdvalidate_ray.exchange import by_bucket
        from mdvalidate_ray.stages.validate import VALIDATED_SCHEMA

        def tag_v(b: pa.Table) -> pa.Table:
            return b.append_column(
                "status", pa.array([""] * b.num_rows, pa.string())) \
                .append_column("_srow", pa.array(
                    np.zeros(b.num_rows, dtype=bool)))

        def tag_s(b: pa.Table) -> pa.Table:
            cols = {}
            for f in VALIDATED_SCHEMA:
                cols[f.name] = (b.column(key).cast(pa.string())
                                if f.name == key
                                else pa.nulls(b.num_rows, f.type))
            cols["status"] = b.column("status")
            cols["_srow"] = pa.array(np.ones(b.num_rows, dtype=bool))
            return pa.table(cols)

        def attach(g: pa.Table) -> pa.Table:
            is_s = g.column("_srow")
            srows = g.filter(is_s)
            vrows = g.filter(pc.invert(is_s))
            if vrows.num_rows == 0:
                return vrows.drop_columns(["_srow"])
            sk = np.array(srows.column(key).to_pylist())
            sv = np.array(srows.column("status").to_pylist())
            o = np.argsort(sk, kind="stable")
            sk, sv = sk[o], sv[o]
            vk = np.array(vrows.column(key).to_pylist())
            st = np.full(len(vk), "changed", dtype=object)
            if len(sk):
                i = np.searchsorted(sk, vk)
                hit = (i < len(sk)) & \
                    (sk[np.minimum(i, len(sk) - 1)] == vk)
                st[hit] = sv[i[hit]]
            out = vrows.set_column(
                vrows.schema.get_field_index("status"), "status",
                pa.array([str(x) for x in st], pa.string()))
            return out.drop_columns(["_srow"])

        # the status side's keys are cast to the validated (string) key
        # type in tag_s, before by_bucket buckets them
        verdicts = by_bucket(validated.map_batches(
            tag_v, batch_format="pyarrow",
            zero_copy_batch=True).union(
            todo.map_batches(tag_s, batch_format="pyarrow",
                             zero_copy_batch=True)), key, attach, 32)
    return {
        "verdicts": verdicts,
        "removed": removed,
        "diff": diff,
    }
