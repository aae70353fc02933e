"""Per-column statistics constraint — stateless ``map_batches`` partials +
a driver-side monoid fold (SURVEY.md §2.5: "MB partial stats per batch →
merge of partials; no shuffle").

The partials are tiny (one row per column per batch), so the fold touches
KiBs regardless of input size; nothing here materializes data.  The same
code path serves both the engine's null-rate constraint on the spans table
and generic column profiling on any Arrow table (which is what the DuckDB
oracle cross-checks).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

PARTIAL_SCHEMA = pa.schema([
    ("column", pa.string()),
    ("n_rows", pa.int64()),
    ("n_null", pa.int64()),
    ("n_empty", pa.int64()),
    ("min_len", pa.int64()),
    ("max_len", pa.int64()),
    ("sum_len", pa.int64()),
    ("min_val", pa.float64()),
    ("max_val", pa.float64()),
    ("sum_val", pa.float64()),
])


def _col_partial(name: str, col: pa.ChunkedArray) -> dict:
    n = len(col)
    n_null = col.null_count
    typ = col.type
    out = {"column": name, "n_rows": n, "n_null": n_null, "n_empty": 0,
           "min_len": None, "max_len": None, "sum_len": None,
           "min_val": None, "max_val": None, "sum_val": None}
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        lens = pc.utf8_length(col)
        out["n_empty"] = int(pc.sum(pc.cast(pc.equal(lens, 0), pa.int64())).as_py() or 0)
        mm = pc.min_max(lens)
        out["min_len"] = mm["min"].as_py()
        out["max_len"] = mm["max"].as_py()
        out["sum_len"] = pc.sum(lens).as_py()
    elif pa.types.is_integer(typ) or pa.types.is_floating(typ):
        mm = pc.min_max(col)
        out["min_val"] = (None if mm["min"].as_py() is None
                          else float(mm["min"].as_py()))
        out["max_val"] = (None if mm["max"].as_py() is None
                          else float(mm["max"].as_py()))
        s = pc.sum(col).as_py()
        out["sum_val"] = None if s is None else float(s)
    return out


def stats_partials(batch: pa.Table, columns: list[str]) -> pa.Table:
    rows = [_col_partial(c, batch.column(c)) for c in columns
            if c in batch.column_names]
    return pa.Table.from_pylist(rows, schema=PARTIAL_SCHEMA)


def _merge2(a: dict, b: dict) -> dict:
    def mn(x, y):
        return y if x is None else (x if y is None else min(x, y))

    def mx(x, y):
        return y if x is None else (x if y is None else max(x, y))

    def sm(x, y):
        return y if x is None else (x if y is None else x + y)

    return {
        "column": a["column"],
        "n_rows": a["n_rows"] + b["n_rows"],
        "n_null": a["n_null"] + b["n_null"],
        "n_empty": a["n_empty"] + b["n_empty"],
        "min_len": mn(a["min_len"], b["min_len"]),
        "max_len": mx(a["max_len"], b["max_len"]),
        "sum_len": sm(a["sum_len"], b["sum_len"]),
        "min_val": mn(a["min_val"], b["min_val"]),
        "max_val": mx(a["max_val"], b["max_val"]),
        "sum_val": sm(a["sum_val"], b["sum_val"]),
    }


def column_stats(ds, columns: list[str]) -> pa.Table:
    """Full-dataset per-column stats.  One streaming pass; the only data
    reaching the driver is one tiny partial row per (column, batch)."""
    partials = ds.map_batches(
        lambda b: stats_partials(b, columns),
        batch_format="pyarrow", zero_copy_batch=True)
    acc: dict[str, dict] = {}
    for row in partials.iter_rows():
        c = row["column"]
        acc[c] = _merge2(acc[c], row) if c in acc else dict(row)
    rows = []
    for c in columns:
        if c not in acc:
            continue
        r = acc[c]
        r["null_rate"] = (r["n_null"] + r["n_empty"]) / max(r["n_rows"], 1)
        r["avg_len"] = (r["sum_len"] / max(r["n_rows"] - r["n_null"], 1)
                        if r["sum_len"] is not None else None)
        rows.append(r)
    return pa.Table.from_pylist(rows)


def length_histogram(ds, column: str, bucket: int = 100):
    """Histogram of string lengths: per-batch pre-aggregated bucket counts →
    one tiny ``groupby(bucket).sum`` — the shuffle moves at most
    (#buckets × #batches) rows, never the data (SURVEY.md §2.5)."""
    def partial(b: pa.Table) -> pa.Table:
        lens = pc.utf8_length(b.column(column)).drop_null()
        buckets = pc.multiply(pc.divide(lens, bucket), bucket)
        import collections

        cnt = collections.Counter(buckets.to_pylist())
        return pa.Table.from_pylist(
            [{"bucket": k, "cnt": v} for k, v in cnt.items()],
            schema=pa.schema([("bucket", pa.int64()), ("cnt", pa.int64())]))

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("bucket").sum("cnt"))


def null_violations(ds):
    """Emit a `null_violation` row per span whose kind or text is NULL
    (FIXTURES.md engine-level kind; pure Arrow, no Python row loop)."""
    from mdvalidate_ray.stages.validate import VIOLATIONS_SCHEMA

    def per_batch(b: pa.Table) -> pa.Table:
        spans = b.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        parents = pc.list_parent_indices(spans)
        bad = pc.or_kleene(pc.is_null(flat.field("kind")),
                           pc.is_null(flat.field("text")))
        bad = pc.fill_null(bad, True)
        if not pc.any(bad).as_py():
            return VIOLATIONS_SCHEMA.empty_table()
        doc_ids = b.column("doc_id").take(parents.filter(bad))
        offsets = pc.fill_null(flat.field("offset").filter(bad), -1)
        n = len(doc_ids)
        return pa.Table.from_arrays(
            [doc_ids,
             pa.array(["nulls"] * n),
             pa.array(["null_violation"] * n),
             pa.array(["non-null kind/text"] * n),
             pa.array(["null"] * n),
             offsets.cast(pa.int32())],
            schema=VIOLATIONS_SCHEMA)

    return ds.map_batches(per_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
