"""Query catalog backing ``__ray_entry__.queries()``.

Every function takes ``sf_dir`` (a /root/testdata/sf* directory) and returns
a Dataset / pyarrow Table.  Functions with a DuckDB oracle must produce the
SAME column names and value types as their SQL twin in
``__ray_entry__.oracle_sql()`` — aggregates are rounded identically on both
sides so float summation order cannot break the value-hash compare.

The validation-engine queries synthesize the spans-shaped corpus (the
BASELINE.json input_hint shape) deterministically, sized from the sf tier's
``documents`` row count; they are rows-only checks (the span walk is not
SQL-expressible).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray import tiers
from mdvalidate_ray.exchange import by_bucket, co_partition


def _half_away(x: float) -> int:
    """DuckDB round() policy: half away from zero (Python round() is
    banker's/half-to-even — a sum landing exactly on .5 would diverge)."""
    import math

    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _pc_round(arr, ndigits: int = 0):
    """pyarrow round with DuckDB's half-away-from-zero policy
    (Arrow calls it half_towards_infinity = greater magnitude)."""
    return pc.round(arr, ndigits, round_mode="half_towards_infinity")

def _read(sf_dir: str, table: str):
    import pyarrow.parquet as pq
    import ray.data

    path = f"{sf_dir}/{table}.parquet"
    # explicit block sizing both ways: the sf testdata files are
    # single-row-group parquet, so without a split hint a big table
    # decodes in ONE read task (downstream stages start single-threaded
    # until the first exchange) — while Ray's default parallelism slices
    # a 5k-row table into ~128 blocks of 40 rows, and every downstream
    # stage then pays ~128 task dispatches for milliseconds of work.
    # 16 blocks max (dispatch stays trivial), 4 min (CPU-heavy per-doc
    # stages — simhash banding, fingerprints — must not serialize onto
    # one task).
    n_rows = pq.ParquetFile(path).metadata.num_rows
    blocks = min(16, max(4, n_rows // 350))
    return ray.data.read_parquet(path, override_num_blocks=blocks)


def _docs_count(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows


def _corpus(sf_dir: str, **kw):
    from mdvalidate_ray.corpus import ray_documents

    n = _docs_count(sf_dir)
    blocks = max(4, n // 250)
    return n, ray_documents(n, override_num_blocks=blocks, **kw)


# --- validation engine (rows-only; the span walk is not SQL) ----------------

def _validated_corpus(sf_dir: str):
    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.stages.validate import validate_dataset

    return validate_dataset(_corpus(sf_dir)[1], flagship_schema_text())


def validate_verdicts(sf_dir: str):
    return _validated_corpus(sf_dir).select_columns(
        ["doc_id", "passed", "captures", "n_spans", "n_violations"])


def validate_violations(sf_dir: str):
    from mdvalidate_ray.stages.validate import violations_dataset

    return violations_dataset(_validated_corpus(sf_dir))


def dangling_media(sf_dir: str):
    import ray.data

    from mdvalidate_ray.corpus import assets_table
    from mdvalidate_ray.stages.referential import dangling_media_refs

    n, docs = _corpus(sf_dir)
    assets = ray.data.from_arrow(assets_table(n))
    return dangling_media_refs(docs, assets)


def drift_by_lang(sf_dir: str):
    """Drift of n_chars per lang group vs the whole corpus (statistic is a
    deterministic sketch computation; rows-only)."""
    from mdvalidate_ray.stages.drift import drift_by_group, kll_of_column

    docs = _read(sf_dir, "documents")
    reference = kll_of_column(docs, "n_chars")
    verdicts = drift_by_group(docs, "lang", "n_chars", reference,
                              threshold=0.15)
    return pa.Table.from_pylist(
        [{"lang": g, "statistic": round(v["statistic"], 4),
          "passed": v["passed"]} for g, v in sorted(verdicts.items())])


def top_words(sf_dir: str):
    """Corpus vocabulary report: top-25 words by occurrence.  Per-batch
    ``value_counts`` combiner (a hot word contributes ONE row per batch
    to the exchange — skew-proof), tiny ``groupby(word).sum``, then the
    partial-top-k merge.  Ties break on the word for determinism."""
    from mdvalidate_ray.functions.relational import topk_table

    docs = _read(sf_dir, "documents").select_columns(["text"])

    def wc(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = tokens.combine_chunks() if isinstance(
            tokens, pa.ChunkedArray) else tokens
        words = flat.flatten()
        words = words.filter(pc.not_equal(words, ""))
        vc = words.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["word", "cnt"])

    agg = docs.map_batches(wc, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("word").sum("cnt")
    named = agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("word"), b.column("sum(cnt)").cast(pa.int64())],
            names=["word", "cnt"]),
        batch_format="pyarrow")
    return topk_table(named, 25, [("cnt", "descending"),
                                  ("word", "ascending")])


def split_counts(sf_dir: str):
    """Deterministic train/test sharding (md5-lower-64 of salt+key mod
    10000): per-split document counts.  The hash is DuckDB's
    ``md5_number_lower``, so the oracle reproduces the exact assignment
    — the split is auditable outside the engine."""
    from mdvalidate_ray.functions.text import add_split

    docs = _read(sf_dir, "documents").select_columns(["doc_id"])

    def count_splits(b: pa.Table) -> pa.Table:
        b = add_split(b, key="doc_id", train_bp=9000)
        g = pa.TableGroupBy(b.select(["split"]), "split").aggregate(
            [([], "count_all")])
        return g.rename_columns(["split", "cnt"])

    agg = docs.map_batches(count_splits, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("split").sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("split"), b.column("sum(cnt)").cast(pa.int64())],
            names=["split", "cnt"]),
        batch_format="pyarrow")


def drift_tdigest(sf_dir: str):
    """Per-source drift of n_chars vs the whole corpus using t-digest
    sketches (the tail-accurate sibling of the KLL family; deterministic,
    rows-only — sketch statistics are not SQL-expressible)."""
    from mdvalidate_ray.stages.drift import (
        drift_check_td,
        tdigest_by_group,
        tdigest_of_column,
    )

    docs = _read(sf_dir, "documents").select_columns(["source", "n_chars"])
    reference = tdigest_of_column(docs, "n_chars")
    groups = tdigest_by_group(docs, "source", "n_chars")
    out = []
    for src, live in sorted(groups.items()):
        v = drift_check_td(live, reference, threshold=0.2)
        out.append({"source": src, "statistic": round(v["statistic"], 4),
                    "passed": v["passed"]})
    return pa.Table.from_pylist(out, schema=pa.schema(
        [("source", pa.string()), ("statistic", pa.float64()),
         ("passed", pa.bool_())]))


# --- wide constraints with SQL oracles --------------------------------------

def stats_text(sf_dir: str):
    from mdvalidate_ray.stages.stats import column_stats

    t = column_stats(_read(sf_dir, "documents"), ["text"]).to_pylist()[0]
    return pa.Table.from_pylist([{
        "n_rows": t["n_rows"], "n_null": t["n_null"],
        "n_empty": t["n_empty"], "min_len": t["min_len"],
        "max_len": t["max_len"], "sum_len": t["sum_len"],
    }])


def hist_text_len(sf_dir: str):
    from mdvalidate_ray.stages.stats import length_histogram

    h = length_histogram(_read(sf_dir, "documents"), "text", 100)
    return h.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("bucket").cast(pa.int64()),
             b.column("sum(cnt)").cast(pa.int64())],
            names=["bucket", "cnt"]),
        batch_format="pyarrow")


def dup_orderkeys(sf_dir: str):
    from mdvalidate_ray.stages.uniqueness import duplicate_keys

    return duplicate_keys(_read(sf_dir, "lineitem"), "l_orderkey")


def orphan_events(sf_dir: str):
    """events.user_id ∄ customer.c_custkey — generic bloom+exact-antijoin
    over int keys (empty on TPC-H-consistent data, and the oracle agrees)."""
    from mdvalidate_ray.functions.relational import broadcast_join

    import ray

    import pyarrow.parquet as pq

    # direct pruned read of the broadcast small side (a Ray execution per
    # dim table pays ~1 s of executor startup for a few MB)
    small = pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey"])
    small = small.append_column("present", pa.array([True] * len(small)))
    small = small.rename_columns(["user_id", "present"])
    joined = broadcast_join(
        _read(sf_dir, "events").select_columns(["user_id"]), small,
        "user_id", join_type="left outer")
    orphans = joined.map_batches(
        lambda b: b.filter(pc.is_null(b.column("present")))
                   .select(["user_id"]),
        batch_format="pyarrow")
    # dedup is DISTRIBUTED (per-batch combiner + coarse bucketed distinct
    # — no driver-side set/sort of raw violations); the final collect is
    # of already-distinct keys only, assembled with an explicit schema
    # because an empty Dataset drops its schema on to_pandas.  At scale,
    # write_parquet the distinct Dataset instead of collecting.
    from mdvalidate_ray.functions.relational import bucketed_distinct

    import ray

    distinct = bucketed_distinct(orphans, ["user_id"])
    parts = [p for p in ray.get(distinct.materialize().to_arrow_refs())
             if p.num_rows]
    schema = pa.schema([("user_id", pa.int64())])
    if not parts:
        return schema.empty_table()
    out = pa.concat_tables([p.select(["user_id"]) for p in parts]).cast(
        schema)
    return out.sort_by("user_id")


def dangling_parts(sf_dir: str):
    """Referential integrity through the REAL tiered machinery
    (stages/referential.check_refs: broadcast exact-key probe ≤ threshold,
    Bloom + co-partitioned anti-join above): lineitem.l_partkey must
    exist in part.p_partkey.  A negative-control set is planted by
    excluding the last 5% of part keys from the 'asset' side, so the
    check is non-degenerate and the oracle can recompute the exact
    dangling pairs."""
    from mdvalidate_ray.stages.referential import check_refs

    part_keys = _read(sf_dir, "part").select_columns(["p_partkey"])
    n_parts_total = part_keys.count()
    cutoff = (n_parts_total * 95) // 100

    def keep_assets(b: pa.Table) -> pa.Table:
        kept = b.filter(pc.less_equal(b.column("p_partkey"), cutoff))
        return pa.Table.from_arrays(
            [pc.cast(kept.column("p_partkey"), pa.string())],
            names=["asset_id"])

    assets = part_keys.map_batches(keep_assets, batch_format="pyarrow")

    refs = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(b.column("l_orderkey"), pa.string()),
             pc.cast(b.column("l_partkey"), pa.string())],
            names=["doc_id", "media_ref"]),
        batch_format="pyarrow")

    dangling = check_refs(refs, assets)
    out = dangling.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(b.column("doc_id"), pa.int64()),
             pc.cast(b.column("media_ref"), pa.int64())],
            names=["l_orderkey", "l_partkey"]),
        batch_format="pyarrow")
    # distributed dedup (coarse bucketed distinct), then an Arrow-native
    # collect of the already-distinct pairs with an explicit schema; at
    # scale, write_parquet the distinct Dataset instead of collecting
    from mdvalidate_ray.functions.relational import bucketed_distinct

    import ray

    distinct = bucketed_distinct(out, ["l_orderkey", "l_partkey"])
    parts = [p for p in ray.get(distinct.materialize().to_arrow_refs())
             if p.num_rows]
    schema = pa.schema([("l_orderkey", pa.int64()),
                        ("l_partkey", pa.int64())])
    if not parts:
        return schema.empty_table()
    tbl = pa.concat_tables(
        [p.select(["l_orderkey", "l_partkey"]) for p in parts]).cast(schema)
    return tbl.sort_by([("l_orderkey", "ascending"),
                        ("l_partkey", "ascending")])


def quantiles_nchars(sf_dir: str):
    from mdvalidate_ray.functions.relational import exact_quantiles

    q25, q50, q75, q90 = exact_quantiles(
        _read(sf_dir, "documents"), "n_chars", [0.25, 0.5, 0.75, 0.9])
    return pa.Table.from_pylist(
        [{"q25": q25, "q50": q50, "q75": q75, "q90": q90}])


# --- relational demos (groupby / join / sort / limit) -----------------------

def q1_pricing(sf_dir: str):
    """TPC-H Q1 shape on the pre-combine + coarse-bucket plan: each batch
    folds to ≤6 (flag|status, partials) rows with one vectorized Arrow
    group-sum, so the exchange moves block-count×6 tiny rows instead of
    the whole fact table — the same plan as top_customers (measured ~3×
    faster than the native sort-based groupby it replaces).  Mean is
    decomposed into (sum, count) partials; money/aggregate floats compare
    as scaled integers since double rounding is not bit-stable across
    engines."""
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount"])

    def precombine(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, ["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("l_discount", "sum"), ([], "count_all")])
        g = g.rename_columns(["l_returnflag", "l_linestatus",
                              "qty_p", "price_p", "disc_p", "n_p"])
        k = pc.binary_join_element_wise(
            g.column("l_returnflag"), g.column("l_linestatus"), "|")
        return pa.Table.from_arrays(
            [k, g.column("qty_p"), g.column("price_p"),
             g.column("disc_p"), g.column("n_p").cast(pa.int64())],
            names=["k", "qty_p", "price_p", "disc_p", "n_p"])

    agg = bucketed_group_sum(
        li.map_batches(precombine, batch_format="pyarrow",
                       zero_copy_batch=True),
        key="k", sum_cols=["qty_p", "price_p", "disc_p", "n_p"],
        n_parts=4)

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_p")
        avg_disc = pc.divide(b.column("disc_p"), pc.cast(n, pa.float64()))
        return pa.Table.from_arrays(
            [pc.utf8_slice_codeunits(b.column("k"), 0, 1),
             pc.utf8_slice_codeunits(b.column("k"), 2, 3),
             _pc_round(pc.multiply(b.column("qty_p"), 100.0)).cast(pa.int64()),
             _pc_round(pc.multiply(b.column("price_p"), 100.0)).cast(pa.int64()),
             _pc_round(pc.multiply(avg_disc, 10000.0)).cast(pa.int64()),
             n.cast(pa.int64())],
            names=["l_returnflag", "l_linestatus", "sum_qty_c100",
                   "sum_base_price_c100", "avg_disc_bp", "count_order"])

    return agg.map_batches(finish, batch_format="pyarrow")


def top_customers(sf_dir: str):
    from mdvalidate_ray.functions.relational import topk_table

    # aggregate on the int key FIRST (smaller shuffle, no string key),
    # with a per-batch combiner so the exchange moves (custkey, partial)
    # rows instead of raw orders; then attach names to the tiny top-k
    # result — the join never touches the fact table, and top-k is
    # per-batch partial + driver merge (nothing unbounded on the driver)
    def precombine(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["o_custkey", "o_totalprice"]),
                            "o_custkey").aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")])
        return g.rename_columns(["o_custkey", "rev_p", "n_p"])

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    agg = bucketed_group_sum(
        _read(sf_dir, "orders").select_columns(
            ["o_custkey", "o_totalprice"]).map_batches(
            precombine, batch_format="pyarrow", zero_copy_batch=True),
        key="o_custkey", sum_cols=["rev_p", "n_p"],
        out_names=["rev", "n_orders"])
    top = topk_table(agg, 10, [("rev", "descending"),
                               ("o_custkey", "ascending")]).to_pylist()
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"])
    names = dict(zip(cust.column("c_custkey").to_pylist(),
                     cust.column("c_name").to_pylist()))
    return pa.Table.from_pylist([{
        "o_custkey": r["o_custkey"], "c_name": names[r["o_custkey"]],
        "revenue_c100": _half_away(r["rev"] * 100),
        "n_orders": r["n_orders"],
    } for r in top])


def events_daily(sf_dir: str):
    """Daily event-type counts with a per-batch combiner: each batch
    folds to ≤(types×days) partial rows before the exchange, so the
    shuffle moves partials, not one row per event."""
    ev = _read(sf_dir, "events").select_columns(["event_type", "ts"])

    def pre(b: pa.Table) -> pa.Table:
        day = pc.strftime(b.column("ts"), format="%Y-%m-%d")
        t = pa.Table.from_arrays(
            [b.column("event_type"), day], names=["event_type", "day"])
        g = pa.TableGroupBy(t, ["event_type", "day"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["event_type", "day", "cnt"])

    agg = ev.map_batches(pre, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby(["event_type", "day"]).sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("event_type"), b.column("day"),
             b.column("sum(cnt)").cast(pa.int64())],
            names=["event_type", "day", "cnt"]),
        batch_format="pyarrow")


def top_events(sf_dir: str):
    """Top-100 events by value: per-batch partial top-k + driver merge —
    no all-to-all sort of the whole table (ties broken by event_id asc,
    deterministic)."""
    from mdvalidate_ray.functions.relational import topk_table

    ev = _read(sf_dir, "events").select_columns(["event_id", "value"])
    top = topk_table(ev, 100, [("value", "descending"),
                               ("event_id", "ascending")])
    return pa.Table.from_arrays(
        [top.column("event_id"),
         _pc_round(pc.multiply(top.column("value"), 1000.0))
           .cast(pa.int64())],
        names=["event_id", "value_m"])


def distinct_sources(sf_dir: str):
    """Set-op demo (DISTINCT): per-batch dedup combiner → tiny groupby."""
    docs = _read(sf_dir, "documents").select_columns(["source"])
    pre = docs.map_batches(
        lambda b: pa.TableGroupBy(b, "source").aggregate([])
                    .rename_columns(["source"]),
        batch_format="pyarrow")
    agg = pre.groupby("source").count()
    return agg.map_batches(lambda b: b.select(["source"]),
                           batch_format="pyarrow")


def stats_by_source(sf_dir: str):
    """Per-group (per-partition-key) column stats — FIXTURES B1's
    per-partition form: per-batch partials → groupby(source) fold of the
    partial columns, so the shuffle moves only partial rows."""
    from ray.data.aggregate import Max, Min, Sum

    docs = _read(sf_dir, "documents").select_columns(["source", "text"])

    def partial(b: pa.Table) -> pa.Table:
        lens = pc.utf8_length(b.column("text")).cast(pa.int64())
        tbl = pa.Table.from_arrays(
            [b.column("source"), lens,
             pa.array([1] * len(b), pa.int64())],
            names=["source", "len", "one"])
        g = pa.TableGroupBy(tbl, "source").aggregate(
            [("one", "sum"), ("len", "sum"), ("len", "min"), ("len", "max")])
        return g.rename_columns(["source", "n", "sum_len", "min_len",
                                 "max_len"])

    partials = docs.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    agg = partials.groupby("source").aggregate(
        Sum("n", alias_name="n"),
        Sum("sum_len", alias_name="sum_len"),
        Min("min_len", alias_name="min_len"),
        Max("max_len", alias_name="max_len"),
    )
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("source"), b.column("n").cast(pa.int64()),
             b.column("sum_len").cast(pa.int64()),
             b.column("min_len").cast(pa.int64()),
             b.column("max_len").cast(pa.int64())],
            names=["source", "n", "sum_len", "min_len", "max_len"]),
        batch_format="pyarrow")


def events_asof_orders(sf_dir: str):
    """As-of join: each event matched to the customer's latest order at or
    before the event time (deterministic tie-break on o_orderkey).
    Tiered: broadcast below the threshold, co-partitioned above."""
    from mdvalidate_ray.functions.relational import asof_join

    joined = asof_join(
        _read(sf_dir, "events").select_columns(["event_id", "user_id", "ts"]),
        _read(sf_dir, "orders").select_columns(
            ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"]),
        key="o_custkey", left_key="user_id", left_time="ts",
        right_time="o_orderdate", tiebreak="o_orderkey",
        value_cols=["o_orderkey", "o_totalprice"])
    return joined.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("event_id"), b.column("o_orderkey"),
             _pc_round(pc.multiply(b.column("o_totalprice"), 100.0))
               .cast(pa.int64())],
            names=["event_id", "o_orderkey", "price_c100"]),
        batch_format="pyarrow")


def user_sessions(sf_dir: str):
    """Session windows over events (30-min gap) per user."""
    from mdvalidate_ray.functions.relational import sessionize

    sess = sessionize(
        _read(sf_dir, "events").select_columns(["user_id", "ts", "value"]),
        key="user_id", time_col="ts", gap_seconds=1800, agg_value="value")
    return sess.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("user_id"), b.column("session_id"),
             b.column("n_events"),
             b.column("start_ts").cast(pa.int64()),
             b.column("end_ts").cast(pa.int64()),
             _pc_round(pc.multiply(b.column("sum_value"), 1000.0))
               .cast(pa.int64())],
            names=["user_id", "session_id", "n_events", "start_us",
                   "end_us", "sum_value_m"]),
        batch_format="pyarrow")


def q3_order_revenue(sf_dir: str):
    """Q3-style: top-20 orders by discounted revenue among pre-1996 orders.
    Tiered semi-join on the filtered order keys (broadcast exact set
    below the threshold, Bloom + co-partitioned verify above) → groupby →
    partial top-k merge — no unbounded driver materialization anywhere."""
    import datetime

    from mdvalidate_ray.functions.relational import (
        bucketed_group_sum,
        semi_join_keys,
        topk_table,
    )

    cutoff = pa.scalar(datetime.datetime(1996, 1, 1))
    keys_ds = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: b.filter(pc.less(b.column("o_orderdate"), cutoff))
                   .select(["o_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True)

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount"])
    kept = semi_join_keys(li, keys_ds, left_key="l_orderkey",
                          right_key="o_orderkey")

    def revenue(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        t = pa.Table.from_arrays([b.column("l_orderkey"), rev],
                                 names=["l_orderkey", "rev"])
        # in-batch combiner before the exchange
        g = pa.TableGroupBy(t, "l_orderkey").aggregate([("rev", "sum")])
        return g.rename_columns(["l_orderkey", "rev"])

    agg = bucketed_group_sum(
        kept.map_batches(revenue, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="l_orderkey", sum_cols=["rev"])
    top = topk_table(agg, 20, [("rev", "descending"),
                               ("l_orderkey", "ascending")]).to_pylist()
    return pa.Table.from_pylist([{
        "l_orderkey": r["l_orderkey"],
        "revenue_c100": _half_away(r["rev"] * 100),
    } for r in top])


def events_sliding(sf_dir: str):
    """Sliding-window counts: 2-hour windows stepping hourly per event
    type (each event lands in two windows)."""
    from mdvalidate_ray.functions.relational import sliding_window_counts

    return sliding_window_counts(
        _read(sf_dir, "events").select_columns(["event_type", "ts"]),
        time_col="ts", group_col="event_type",
        window_seconds=7200, step_seconds=3600)


def quality_filter_counts(sf_dir: str):
    """End-to-end filter pipeline: token-count gate -> per-source survivor
    counts (the shape of a training-data quality filter)."""
    from mdvalidate_ray.functions.text import add_token_counts

    def gate(b: pa.Table) -> pa.Table:
        b = add_token_counts(b)
        keep = pc.and_(pc.greater_equal(b.column("n_tokens"), 20),
                       pc.less_equal(b.column("n_tokens"), 40))
        kept = b.filter(keep).select(["source"])
        # combiner: one (source, cnt) partial row per batch per stratum
        g = pa.TableGroupBy(kept, "source").aggregate([([], "count_all")])
        return g.rename_columns(["source", "cnt"])

    docs = _read(sf_dir, "documents").select_columns(["source", "text"])
    agg = docs.map_batches(gate, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("source").sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("source"), b.column("sum(cnt)").cast(pa.int64())],
            names=["source", "kept"]),
        batch_format="pyarrow")


def props_k_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer field ``k`` out of the
    JSON ``props`` column (vectorized ``pc.extract_regex`` — at scale a
    JSON kernel slots into the same per-batch stage) and aggregate per
    event type.  Shuffle moves only per-batch partial rows."""
    from ray.data.aggregate import Max, Sum

    ev = _read(sf_dir, "events").select_columns(["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(b.column("props"),
                              r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        t = pa.Table.from_arrays([b.column("event_type"), k],
                                 names=["event_type", "k"])
        t = t.filter(pc.is_valid(t.column("k")))
        # combiner: (count, sum, max) decompose exactly, so each batch
        # contributes one partial row per event type to the exchange
        g = pa.TableGroupBy(t, "event_type").aggregate(
            [([], "count_all"), ("k", "sum"), ("k", "max")])
        return g.rename_columns(["event_type", "n_p", "sum_p", "max_p"])

    agg = ev.map_batches(extract, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby("event_type").aggregate(
        Sum("n_p", alias_name="n"),
        Sum("sum_p", alias_name="sum_k"),
        Max("max_p", alias_name="max_k"))
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("event_type"), b.column("n").cast(pa.int64()),
             b.column("sum_k").cast(pa.int64()),
             b.column("max_k").cast(pa.int64())],
            names=["event_type", "n", "sum_k", "max_k"]),
        batch_format="pyarrow")


def part_type_stats(sf_dir: str):
    """Per-type price stats with the pre-combine plan: mean decomposes
    into (sum, count) partials per batch; only partial rows shuffle."""
    from ray.data.aggregate import Sum

    part = _read(sf_dir, "part").select_columns(["p_type",
                                                 "p_retailprice"])

    def pre(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b, "p_type").aggregate(
            [("p_retailprice", "sum"), ([], "count_all")])
        return g.rename_columns(["p_type", "sum_p", "n_p"])

    agg = part.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True) \
              .groupby("p_type").aggregate(
        Sum("sum_p", alias_name="sum_price"),
        Sum("n_p", alias_name="n"))
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("p_type"),
             _pc_round(pc.multiply(
                 pc.divide(b.column("sum_price"),
                           pc.cast(b.column("n"), pa.float64())),
                 100.0)).cast(pa.int64()),
             b.column("n").cast(pa.int64())],
            names=["p_type", "avg_price_c100", "n"]),
        batch_format="pyarrow")


def q6_forecast_revenue(sf_dir: str):
    """Q6-style: filtered revenue sum — pure per-batch filter + partial
    aggregate, ZERO shuffle (the combiner collapses each batch to one
    row; the driver folds #batches scalars)."""
    import datetime

    lo = pa.scalar(datetime.datetime(1996, 1, 1))
    hi = pa.scalar(datetime.datetime(1997, 1, 1))

    def part(b: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.greater_equal(b.column("l_shipdate"), lo),
                    pc.less(b.column("l_shipdate"), hi)),
            pc.and_(
                pc.and_(pc.greater_equal(b.column("l_discount"), 0.05),
                        pc.less_equal(b.column("l_discount"), 0.07)),
                pc.less(b.column("l_quantity"), 24.0)))
        b = b.filter(mask)
        rev = pc.sum(pc.multiply(b.column("l_extendedprice"),
                                 b.column("l_discount"))).as_py() or 0.0
        return pa.Table.from_pylist([{"rev": rev}])

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])
    # canonical fold order: batch arrival order varies run to run, and
    # float addition order must not (cents rounding sits on .5 edges)
    total = sum(sorted(r["rev"] for r in
                       li.map_batches(part, batch_format="pyarrow",
                                      zero_copy_batch=True).take_all()))
    return pa.Table.from_pylist(
        [{"revenue_c100": _half_away(total * 100)}],
        schema=pa.schema([("revenue_c100", pa.int64())]))


class _Q5Join:
    """Per-worker sorted-key lookup tables built ONCE (an Arrow
    ``Table.join`` per batch would rebuild the 150k-row orders hash
    table on every call); the per-batch probe is three vectorized
    ``np.searchsorted`` gathers + one in-batch partial aggregate."""

    def __init__(self, orders, supplier, customer, nations):
        import numpy as np

        def sorted_map(tbl, key, val):
            k = tbl.column(key).to_numpy()
            v = tbl.column(val).to_numpy()
            o = np.argsort(k, kind="stable")
            return k[o], v[o]

        self.okeys, self.ocust = sorted_map(orders, "o_orderkey",
                                            "o_custkey")
        self.skeys, self.snat = sorted_map(supplier, "s_suppkey",
                                           "s_nationkey")
        self.ckeys, self.cnat = sorted_map(customer, "c_custkey",
                                           "c_nationkey")
        self.asia = np.asarray(
            nations.column("n_nationkey").to_pylist())

    @staticmethod
    def _lookup(keys, vals, probe):
        import numpy as np

        idx = np.searchsorted(keys, probe)
        idx_c = np.minimum(idx, len(keys) - 1)
        hit = keys[idx_c] == probe
        return vals[idx_c], hit

    def __call__(self, b: pa.Table) -> pa.Table:
        import numpy as np

        lkey = b.column("l_orderkey").to_numpy()
        lsupp = b.column("l_suppkey").to_numpy()
        ocust, hit_o = self._lookup(self.okeys, self.ocust, lkey)
        snat, hit_s = self._lookup(self.skeys, self.snat, lsupp)
        cnat, hit_c = self._lookup(self.ckeys, self.cnat, ocust)
        mask = (hit_o & hit_s & hit_c & (snat == cnat)
                & np.isin(snat, self.asia))
        if not mask.any():
            return pa.schema([("n_nationkey", pa.int64()),
                              ("rev", pa.float64())]).empty_table()
        price = b.column("l_extendedprice").to_numpy()[mask]
        disc = b.column("l_discount").to_numpy()[mask]
        rev = price * (1.0 - disc)
        nat = snat[mask]
        t = pa.Table.from_arrays(
            [pa.array(nat.astype("int64")), pa.array(rev)],
            names=["n_nationkey", "rev"])
        g = pa.TableGroupBy(t, "n_nationkey").aggregate([("rev", "sum")])
        return g.rename_columns(["n_nationkey", "rev"])


_Q5_STATE: dict = {}


def _q5_task(b: pa.Table, *, tables_ref) -> pa.Table:
    """The Q5 join of one batch: the sorted lookup maps build once per
    worker PROCESS (cached by broadcast ref)."""
    import ray

    from mdvalidate_ray.state.proc_cache import get_or_build

    st = get_or_build(_Q5_STATE, tables_ref.hex(),
                      lambda: _Q5Join(*ray.get(tables_ref)))
    return st(b)


def q5_local_supplier_volume(sf_dir: str):
    """Q5-style: revenue per nation where customer and supplier share the
    nation, for one region and year.  All four non-fact tables are small
    sides: they broadcast once (ray.put) into a per-batch vectorized join
    chain over the lineitem stream (task pool + per-process state cache),
    then ≤5 partial-sum rows per batch fold on the driver in canonical
    order.  At corpus scale the orders map is the first side to outgrow
    broadcast — swap it for the co-partitioned union+bucket groupby join
    (asof_join_partitioned's shape)."""
    import datetime

    import ray

    def _driver_table(name, cols):
        # direct pruned parquet read: these are broadcast SMALL sides the
        # driver needs in hand anyway — a Ray Dataset execution per dim
        # table added ~1 s of executor startup apiece for a few MB
        import pyarrow.parquet as pq

        return pq.read_table(f"{sf_dir}/{name}.parquet", columns=cols)

    region = _driver_table("region", ["r_regionkey", "r_name"])
    nation = _driver_table("nation", ["n_nationkey", "n_name",
                                      "n_regionkey"])
    asia_keys = region.filter(
        pc.equal(region.column("r_name"), "ASIA")).column("r_regionkey")
    nations = nation.filter(
        pc.is_in(nation.column("n_regionkey"), value_set=asia_keys))
    supplier = _driver_table("supplier", ["s_suppkey", "s_nationkey"])
    customer = _driver_table("customer", ["c_custkey", "c_nationkey"])
    orders = _driver_table("orders", ["o_orderkey", "o_custkey",
                                      "o_orderdate"])
    lo = pa.scalar(datetime.datetime(1996, 1, 1))
    hi = pa.scalar(datetime.datetime(1997, 1, 1))
    orders = orders.filter(
        pc.and_(pc.greater_equal(orders.column("o_orderdate"), lo),
                pc.less(orders.column("o_orderdate"), hi))
    ).select(["o_orderkey", "o_custkey"])

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    tables_ref = ray.put((orders, supplier, customer, nations))
    parts = li.map_batches(
        _q5_task, fn_kwargs=dict(tables_ref=tables_ref),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    sums: dict = {}
    # canonical fold: ≤ |nations| keys × #batches partial rows
    for r in sorted(parts, key=lambda r: (r["n_nationkey"], r["rev"])):
        sums[r["n_nationkey"]] = sums.get(r["n_nationkey"], 0.0) + r["rev"]
    names = dict(zip(nations.column("n_nationkey").to_pylist(),
                     nations.column("n_name").to_pylist()))
    out = [{"n_name": names[k],
            "revenue_c100": _half_away(v * 100)}
           for k, v in sums.items()]
    out.sort(key=lambda r: r["n_name"])
    return pa.Table.from_pylist(out, schema=pa.schema(
        [("n_name", pa.string()), ("revenue_c100", pa.int64())]))


# --- dedup / text over documents --------------------------------------------

def _augmented_docs(sf_dir: str):
    """documents ∪ copies of every 10th doc (doc_id + 1_000_000) — the
    deterministic dup-planting both Ray and SQL construct identically."""
    docs = _read(sf_dir, "documents")

    def copies(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id")
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10))
        b = b.filter(pc.equal(mod, 0))
        return b.set_column(0, "doc_id", pc.add(b.column("doc_id"),
                                                1_000_000))

    return docs.union(docs.map_batches(copies, batch_format="pyarrow"))


def dedup_exact(sf_dir: str):
    from mdvalidate_ray.functions.dedup import exact_duplicate_groups

    groups = exact_duplicate_groups(_augmented_docs(sf_dir), "text",
                                    "doc_id")
    return groups.map_batches(
        lambda b: b.select(["fp_md5", "cnt"]),
        batch_format="pyarrow")


def token_counts(sf_dir: str):
    """Whitespace token count + the BPE-ish subword estimate, both
    SQL-auditable (the subword proxy is Σ ceil(len(word)/6) — exact in
    integer arithmetic, so the oracle hash pins it per doc)."""
    from mdvalidate_ray.functions.text import add_token_counts

    out = _read(sf_dir, "documents").map_batches(
        lambda b: add_token_counts(b).select(
            ["doc_id", "n_tokens", "n_subwords"]),
        batch_format="pyarrow")
    return out


def quality(sf_dir: str):
    from mdvalidate_ray.functions.text import add_quality

    def pick(b: pa.Table) -> pa.Table:
        b = add_quality(b)
        return pa.Table.from_arrays(
            [b.column("doc_id"),
             _pc_round(b.column("punct_ratio"), 6),
             _pc_round(b.column("digit_ratio"), 6),
             _pc_round(b.column("upper_ratio"), 6),
             _pc_round(b.column("stopword_ratio"), 6)],
            names=["doc_id", "punct_ratio", "digit_ratio", "upper_ratio",
                   "stopword_ratio"])

    return _read(sf_dir, "documents").map_batches(pick,
                                                  batch_format="pyarrow")


def fingerprints(sf_dir: str):
    from mdvalidate_ray.functions.text import add_fingerprints

    return _read(sf_dir, "documents").map_batches(
        lambda b: add_fingerprints(b).select(["doc_id", "fp_md5"]),
        batch_format="pyarrow")


def lang_pred_counts(sf_dir: str):
    """Language-ID counts.  The heuristic (CJK share → zh, else best
    stopword-hit table over the first 100 words, ties to the earlier
    language, ≥1 hit required) is a pure function of text, so the oracle
    re-derives it in SQL (regexp_split + list_filter) — the hash check
    pins every per-doc prediction, not just the counts' shape.  Counting
    is pre-combined per batch; only (lang, cnt) partials shuffle."""
    from mdvalidate_ray.functions.text import language_id

    out = _read(sf_dir, "documents").select_columns(["text"]).map_batches(
        language_id, batch_format="pyarrow")

    def cnt(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["pred_lang"]),
                            "pred_lang").aggregate([([], "count_all")])
        return g.rename_columns(["pred_lang", "cnt"])

    agg = out.map_batches(cnt, batch_format="pyarrow",
                          zero_copy_batch=True) \
             .groupby("pred_lang").sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("pred_lang"), b.column("sum(cnt)").cast(pa.int64())],
            names=["pred_lang", "cnt"]),
        batch_format="pyarrow")


def minhash_pairs(sf_dir: str):
    """MinHash+LSH candidates (lean exchange: no signatures shuffle) →
    exact distributed n-gram-jaccard verify.  The DuckDB oracle recomputes
    the same 3-word-shingle jaccard for ALL pairs, so this checks both
    precision (every emitted pair is real) and recall (LSH banding with
    16×4 permutations misses a j≥0.9 pair with P < 1e-7)."""
    from mdvalidate_ray.functions.dedup import (
        minhash_near_duplicates,
        verify_pairs_jaccard,
    )

    # two consumers (banding, text lookup) — materialize once so the
    # union+copies lineage doesn't re-execute (at corpus scale you would
    # instead re-read from storage; blocks here are small and spillable)
    docs = _augmented_docs(sf_dir).materialize()
    candidates = minhash_near_duplicates(docs, threshold=0.9, verify="none",
                                         dedup=False)
    verified = verify_pairs_jaccard(candidates, docs, threshold=0.9)
    # pair keys are strings ordered lexicographically inside the operator;
    # normalize to numeric (doc_a < doc_b as ints) for the SQL compare
    a = pc.cast(verified.column("doc_a"), pa.int64())
    b = pc.cast(verified.column("doc_b"), pa.int64())
    return pa.Table.from_arrays(
        [pc.min_element_wise(a, b), pc.max_element_wise(a, b),
         # half_towards_infinity = DuckDB round()'s half-away-from-zero
         # policy (jaccard is never negative here)
         pc.round(pc.multiply(verified.column("jaccard"), 10000.0),
                  0, round_mode="half_towards_infinity").cast(pa.int64())],
        names=["doc_a", "doc_b", "jac_bp"])


def jaccard_pairs(sf_dir: str):
    """Standalone exact n-gram-Jaccard near-dup family (prefix blocking →
    within-block candidates → exact 3-word-shingle jaccard ≥ 0.6).  The
    DuckDB oracle recomputes the identical blocking self-join and shingle
    jaccard in SQL, so precision AND recall of the blocked pair set are
    both hash-checked (blocking is deterministic — no probabilistic
    recall gap to adjudicate, unlike minhash banding)."""
    from mdvalidate_ray.functions.dedup import ngram_jaccard_near_duplicates

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    verified = ngram_jaccard_near_duplicates(docs, k=3, block_words=5,
                                             threshold=0.6)
    a = pc.cast(verified.column("doc_a"), pa.int64())
    b = pc.cast(verified.column("doc_b"), pa.int64())
    return pa.Table.from_arrays(
        [pc.min_element_wise(a, b), pc.max_element_wise(a, b),
         pc.round(pc.multiply(verified.column("jaccard"), 10000.0),
                  0, round_mode="half_towards_infinity").cast(pa.int64())],
        names=["doc_a", "doc_b", "jac_bp"])


def simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs with md5-lower-64 token hashes — the hash
    DuckDB's ``md5_number_lower`` computes, so the oracle rebuilds the
    exact simhash in SQL; pigeonhole banding guarantees full recall at
    hamming ≤ 3, making the pair set exactly SQL-checkable."""
    from mdvalidate_ray.functions.dedup import simhash_near_duplicates

    pairs = simhash_near_duplicates(_augmented_docs(sf_dir), max_hamming=2,
                                    hash_fn="md5")

    def normalize(b: pa.Table) -> pa.Table:
        a = pc.cast(b.column("doc_a"), pa.int64())
        bb = pc.cast(b.column("doc_b"), pa.int64())
        return pa.Table.from_arrays(
            [pc.min_element_wise(a, bb), pc.max_element_wise(a, bb),
             b.column("hamming").cast(pa.int64())],
            names=["doc_a", "doc_b", "hamming"])

    # stays a Dataset end to end — pair sets are tiny on a healthy corpus
    # but O(data) on a degenerate one, exactly when driver collects hurt
    return pairs.map_batches(normalize, batch_format="pyarrow",
                             zero_copy_batch=True)


# --- similarity over embeddings ---------------------------------------------

def knn(sf_dir: str):
    import numpy as np

    from mdvalidate_ray.functions.similarity import knn_brute_force

    emb = _read(sf_dir, "embeddings")
    qrows = sorted(emb.take(16), key=lambda r: r["vec_id"])[:3]
    queries = np.asarray([r["embedding"] for r in qrows], dtype=np.float64)
    out = knn_brute_force(emb, queries, k=5)
    # rank excluded (float noise may swap near-equal ranks) and score
    # compared as integer millis: DuckDB's list_cosine_similarity returns
    # float32, so only scaled-integer compare is bit-stable
    return pa.Table.from_arrays(
        [pa.array([qrows[r["query_id"]]["vec_id"] for r in out.to_pylist()],
                  pa.int64()),
         out.column("key"),
         _pc_round(pc.multiply(out.column("score"), 1000.0)).cast(pa.int64())],
        names=["query_id", "key", "score_m"])


def knn_int_topk(sf_dir: str):
    """Exact maximum-inner-product top-10 with a BIT-EXACT SQL oracle —
    the similarity-search correctness gate (the float-cosine `knn`
    entry drops ranks and compares milli-rounded scores; this one is
    hash-exact end to end): embeddings quantize to round-half-away
    ×1000 int64 on both sides, scores are integer dot products, ranking
    is (score desc, vec_id asc) with self-matches excluded.  Scale
    plan: the 8-query int matrix ships in the task closure; per-batch
    int64 matmul emits ≤ k·n_queries partial rows; the driver
    heap-merges O(blocks·k·queries) rows — corpus vectors never move."""
    import numpy as np

    from mdvalidate_ray.functions.similarity import knn_int_exact

    emb = _read(sf_dir, "embeddings")
    qrows = sorted(
        emb.map_batches(
            lambda b: b.filter(pc.less(b.column("vec_id"), 8)),
            batch_format="pyarrow", zero_copy_batch=True).take_all(),
        key=lambda r: r["vec_id"])
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    qkeys = np.asarray([r["vec_id"] for r in qrows], dtype=np.int64)
    return knn_int_exact(emb, queries, qkeys, k=10)


def hard_negatives(sf_dir: str):
    """Hard-negative mining for contrastive training — for each of the
    first 8 vectors, the 10 most similar vectors of a DIFFERENT label
    (the classic in-batch-negatives upgrade): same integer-exact MIPS
    machinery as :func:`knn_int_topk` (×1000 half-away quantization,
    int64 dot products, (score desc, vec_id asc) ranking) plus the
    label-mismatch mask, so ranks and scores hash-match the SQL
    bit-for-bit.  Scale plan identical: queries in the task closure,
    ≤ k·n_queries partial rows per batch, driver heap merge."""
    import numpy as np

    from mdvalidate_ray.functions.similarity import knn_int_exact

    emb = _read(sf_dir, "embeddings")
    qrows = sorted(
        emb.map_batches(
            lambda b: b.filter(pc.less(b.column("vec_id"), 8)),
            batch_format="pyarrow", zero_copy_batch=True).take_all(),
        key=lambda r: r["vec_id"])
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    qkeys = np.asarray([r["vec_id"] for r in qrows], dtype=np.int64)
    qlabels = np.asarray([r["label"] for r in qrows], dtype=np.int64)
    return knn_int_exact(emb, queries, qkeys, k=10, label_col="label",
                         q_labels=qlabels)


def quality_classifier(sf_dir: str):
    """Quality-classifier training curve: distributed full-batch
    logistic regression (label 0 vs rest) over the embeddings table —
    per-epoch loss (×10⁹ half-away integer) and epoch-start accuracy
    count.  Rows-only (iterative float optimization has no SQL twin);
    the exactness contract — bit-identical to a single-process numpy
    run over the same blocks, canonical fold order — is pinned by
    test_logreg_train_matches_naive."""
    from mdvalidate_ray.functions.similarity import logreg_train

    out = logreg_train(_read(sf_dir, "embeddings"), epochs=12)
    rows = [{"epoch": i + 1, "loss_e9": _half_away(ls * 1e9),
             "n_correct": int(nc)} for i, (ls, nc) in enumerate(
        zip(out["loss_per_epoch"], out["n_correct_per_epoch"]))]
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("epoch", pa.int64()), ("loss_e9", pa.int64()),
         ("n_correct", pa.int64())]))


def kcenter_picks(sf_dir: str):
    """Coreset selection: 16 greedy k-center / farthest-point picks
    over the embeddings (seeded at the smallest vec_id) — pure-coverage
    diversity with exact int64 squared distances of ×1000-quantized
    vectors, smaller-key ties.  Rows-only (greedy is inherently
    sequential); semantics pinned by the naive all-in-memory
    differential (test_kcenter_select_matches_naive)."""
    from mdvalidate_ray.functions.similarity import kcenter_select

    return kcenter_select(_read(sf_dir, "embeddings"), k=16)


def mmr_picks(sf_dir: str):
    """Diversity-aware retrieval: the 16 maximal-marginal-relevance
    picks for vector 0's embedding (λ=0.7) — greedy
    ``0.7·rel − 0.3·max-sim-to-selected`` over integer-exact quantized
    dot products, ties to the smaller vec_id.  Greedy MMR is inherently
    sequential (each pick changes the penalty), so no SQL twin exists —
    rows-only; the semantics are pinned by a naive all-in-memory
    differential test (test_mmr_select_matches_naive)."""
    import numpy as np

    from mdvalidate_ray.functions.similarity import mmr_select

    emb = _read(sf_dir, "embeddings")
    q = emb.map_batches(
        lambda b: b.filter(pc.equal(b.column("vec_id"), 0)),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    if not q:
        raise ValueError(
            "mmr_picks: query convention needs a row with vec_id == 0")
    query = np.asarray(q[0]["embedding"], dtype=np.float64)
    return mmr_select(emb, query, k=16, lam_pct=70, exclude_keys=(0,))


def knn_ivf(sf_dir: str):
    """IVF-pruned approximate nearest neighbours (the ANN scale path):
    k-means centroids from a sample, per-batch cluster assignment prunes
    the stream, exact scoring on the surviving vectors.  Deterministic
    (fixed seeds) but approximate — rows-only check; the recall-vs-exact
    contract is pinned by test_functions.test_ivf_recall."""
    import numpy as np

    from mdvalidate_ray.functions.similarity import knn_ivf as _ivf

    emb = _read(sf_dir, "embeddings")
    qrows = sorted(emb.take(16), key=lambda r: r["vec_id"])[:3]
    queries = np.asarray([r["embedding"] for r in qrows], dtype=np.float64)
    out = _ivf(emb, queries, k=5, n_clusters=8, nprobe=4)
    return pa.Table.from_arrays(
        [pa.array([qrows[r["query_id"]]["vec_id"] for r in out.to_pylist()],
                  pa.int64()),
         out.column("key"),
         _pc_round(pc.multiply(out.column("score"), 1000.0))
           .cast(pa.int64())],
        names=["query_id", "key", "score_m"])


def embedding_dups(sf_dir: str):
    from mdvalidate_ray.functions.similarity import (
        embedding_near_duplicates_auto,
    )

    # 0.45 sits below the synthetic-embedding max offdiag cosine (~0.51)
    # so the check is non-degenerate at every sf tier.  The auto
    # dispatcher picks the exact block-pair path below 20k vectors (all
    # sf tiers here — recall 1.0, oracle-stable) and hyperplane LSH above
    # (measured 5.4× faster than exact at 10⁵ vectors, recall 1.0).
    pairs = embedding_near_duplicates_auto(_read(sf_dir, "embeddings"),
                                           threshold=0.45)
    return pairs.set_column(
        2, "cosine_m",
        _pc_round(pc.multiply(pairs.column("cosine"), 1000.0)).cast(pa.int64()))


# --- multimodal plumbing (rows-only) ----------------------------------------

def media_decode(sf_dir: str):
    """Real decode over mixed mimes: PNG, WAV, QOI and baseline JPEG
    payloads are genuine files whose width/height (resp.
    samples/channels) are parsed from the actual bytes by the
    pure-Python codecs; only mp4 uses the deterministic fake header
    (that codec is genuinely absent).  Rows-only (binary decode has no
    SQL analog)."""
    import ray.data

    from mdvalidate_ray.corpus import assets_table
    from mdvalidate_ray.functions.media import decode_media, synth_media_batch

    n = _docs_count(sf_dir)
    assets = assets_table(n)
    # remap half the jpeg slice to QOI so the real-codec set (png/wav/
    # qoi here; gif via media_frames) sees real bytes through the stage
    mimes = []
    flip = False
    for m in assets.column("mime").to_pylist():
        if m == "image/jpeg":
            mimes.append("image/qoi" if flip else m)
            flip = not flip
        else:
            mimes.append(m)
    media = synth_media_batch(assets.column("asset_id").to_pylist(), mimes)
    return decode_media(ray.data.from_arrow(media))


# --- window / ranking operators ----------------------------------------------

def top_suppliers_per_nation(sf_dir: str):
    """Top-3 suppliers by account balance per nation — the classic
    windowed ``row_number() OVER (PARTITION BY … ORDER BY …) <= N``,
    computed shuffle-light: per-batch top-N combiner, then one coarse
    bucket exchange (functions/window.py)."""
    from mdvalidate_ray.functions.window import top_n_per_group

    sup = _read(sf_dir, "supplier").select_columns(
        ["s_nationkey", "s_suppkey", "s_acctbal"])
    out = top_n_per_group(sup, group_key="s_nationkey",
                          order_col="s_acctbal", n=3, descending=True,
                          tie_col="s_suppkey", n_parts=8)
    return out.map_batches(
        lambda b: b.select(["s_nationkey", "s_suppkey", "s_acctbal", "rk"]),
        batch_format="pyarrow")


def supplier_moving_qty(sf_dir: str):
    """Per-supplier 3-row moving quantity over shipment order —
    ``SUM(qty) OVER (PARTITION BY suppkey ORDER BY shipdate… ROWS 2
    PRECEDING)``.  Integer-valued quantities keep the cross-engine
    comparison exact (no float window-fold association issues)."""
    from mdvalidate_ray.functions.window import grouped_moving_sum

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_suppkey", "l_shipdate", "l_orderkey", "l_linenumber",
         "l_quantity"])
    # l_quantity joins the ORDER BY as the final tiebreak: the corpus
    # plants duplicate (suppkey, shipdate, orderkey, linenumber) keys with
    # differing quantities, so without it the window order is not total and
    # the moving sums of the tied rows are engine-dependent (the one red
    # hash in CORRECTNESS_r02).  With it, the sort key is unique per row.
    out = grouped_moving_sum(
        li, key="l_suppkey",
        order_cols=["l_shipdate", "l_orderkey", "l_linenumber",
                    "l_quantity"],
        value_col="l_quantity", window_rows=3, n_parts=32)
    return out.map_batches(
        lambda b: b.select(["l_suppkey", "l_orderkey", "l_linenumber",
                            "mov_sum", "n_win"]),
        batch_format="pyarrow")


def len_quantiles_by_source(sf_dir: str):
    """Exact per-source document-length quantiles (0.25/0.5/0.75) —
    linear interpolation matching DuckDB quantile_cont bit-for-bit.
    The exact co-located path for low-cardinality strata; the mergeable
    sketch path for heavy groups is drift_by_lang/drift_tdigest."""
    from mdvalidate_ray.functions.window import group_quantiles

    docs = _read(sf_dir, "documents")
    return group_quantiles(docs, group_key="source", value_col="n_chars",
                           qs=[0.25, 0.5, 0.75], n_parts=4)


def sample_strata_counts(sf_dir: str):
    """Deterministic 10% corpus sample (md5 of salted doc_id), counted
    per source stratum — membership is a pure key function: stable under
    re-runs, repartitioning and cluster size, and reproducible in SQL."""
    from mdvalidate_ray.functions.text import sample_deterministic

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "source"])
    kept = sample_deterministic(docs, key="doc_id", rate_bp=1000,
                                salt="sample")

    def cnt(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["source"]), "source").aggregate(
            [([], "count_all")])
        return g.rename_columns(["source", "cnt"])

    agg = kept.map_batches(cnt, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("source").sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("source"), b.column("sum(cnt)").cast(pa.int64())],
            names=["source", "cnt"]),
        batch_format="pyarrow")


def kmeans_clusters(sf_dir: str):
    """Distributed full-corpus Lloyd k-means over the embedding column:
    centroids broadcast per iteration, per-batch partial sums folded on
    the driver (k×dim floats per batch — no shuffle, nothing corpus-sized
    on the driver).  Deterministic seeding from the k smallest vec_ids.
    Iterative + float-fold — no SQL oracle; determinism and monotone
    inertia are pinned by tests."""
    from mdvalidate_ray.functions.similarity import kmeans_fit

    emb = _read(sf_dir, "embeddings")
    fit = kmeans_fit(emb, column="embedding", key="vec_id", k=8, iters=5)
    import numpy as np

    norms = np.linalg.norm(fit["centroids"], axis=1)
    return pa.Table.from_arrays(
        [pa.array(range(8), pa.int64()),
         pa.array(fit["sizes"], pa.int64()),
         pa.array(np.round(norms, 3), pa.float64())],
        names=["cluster_id", "n", "centroid_norm"])


def redact_digits(sf_dir: str):
    """Vectorized regex scrubbing audit: per-document redaction hit count
    and post-redaction length — the PII-scrub primitive, run as pure
    Arrow kernels (replace/count_substring_regex) over the stream."""
    from mdvalidate_ray.functions.text import redact

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def do(b: pa.Table) -> pa.Table:
        r = redact(b, column="text", pattern=r"[0-9]+", replacement="#")
        return pa.Table.from_arrays(
            [r.column("doc_id"),
             r.column("n_hits").cast(pa.int64()),
             pc.utf8_length(r.column("text_redacted")).cast(pa.int64())],
            names=["doc_id", "n_hits", "red_len"])

    return docs.map_batches(do, batch_format="pyarrow", zero_copy_batch=True)


def mixture_rates(sf_dir: str):
    """Temperature-based data-mixing rates DERIVED from the corpus
    itself (the auto-tuned upgrade of mixture_counts' hand-set table):
    per-source keep rate ``round(10⁴·sqrt(n_min/n_s))`` basis points —
    sqrt-temperature (T=2) sampling toward uniform, expressed WITHOUT
    any cross-source float sum (division and sqrt are correctly-rounded
    IEEE ops, so DuckDB computes the identical bits), then the
    deterministic md5 sample actually applied at those rates.  Returns
    (source, n_docs, rate_bp, n_kept).  Scale plan: per-batch source
    count partials → one tiny fold (O(sources)); rates broadcast back
    in the task closure; second scan emits ≤|sources| kept-count
    partials per batch — membership is a pure (salt, doc_id) function,
    stable under repartitioning."""
    import numpy as np

    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "source"])

    def cnt_partial(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["source"]), "source").aggregate(
            [([], "count_all")])
        return g.rename_columns(["source", "n_docs"])

    counts = {r["source"]: int(r["n_docs"]) for r in bucketed_group_sum(
        docs.map_batches(cnt_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="source", sum_cols=["n_docs"], n_parts=4).take_all()}
    n_min = min(counts.values())
    rates = {s: int(_half_away(float(
        np.multiply(10000.0, np.sqrt(np.divide(float(n_min),
                                               float(n)))))))
        for s, n in counts.items()}

    def kept_partial(b: pa.Table) -> pa.Table:
        srcs = b.column("source").to_pylist()
        keys = ["mix" + str(v) for v in b.column("doc_id").to_pylist()]
        if not keys:
            return pa.table({"source": pa.array([], pa.string()),
                             "n_kept": pa.array([], pa.int64())})
        h = _md5_token_hashes(keys) % np.uint64(10000)
        rb = np.fromiter((rates[s] for s in srcs), dtype=np.uint64,
                         count=len(srcs))
        t = pa.table({"source": pa.array(srcs, pa.string()),
                      "n_kept": pa.array((h < rb).astype(np.int64))})
        g = pa.TableGroupBy(t, "source").aggregate([("n_kept", "sum")])
        return g.rename_columns(["source", "n_kept"])

    kept = {r["source"]: int(r["n_kept"]) for r in bucketed_group_sum(
        docs.map_batches(kept_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="source", sum_cols=["n_kept"], n_parts=4).take_all()}
    rows = [{"source": s, "n_docs": counts[s], "rate_bp": rates[s],
             "n_kept": kept.get(s, 0)} for s in sorted(counts)]
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("source", pa.string()), ("n_docs", pa.int64()),
         ("rate_bp", pa.int64()), ("n_kept", pa.int64())]))


def mixture_counts(sf_dir: str):
    """Weighted corpus mixture: keep 20% of documents from sources
    src0–src9 and 5% from the rest, membership a pure (salt, doc_id)
    function — counted per source.  The deterministic mixing primitive
    for combining corpora at fixed ratios."""
    from mdvalidate_ray.functions.text import weighted_mixture

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "source"])
    rates = {f"src{i}": (2000 if i < 10 else 500) for i in range(20)}
    kept = weighted_mixture(docs, group_col="source", key="doc_id",
                            rates_bp=rates, salt="mix")

    def cnt(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["source"]), "source").aggregate(
            [([], "count_all")])
        return g.rename_columns(["source", "cnt"])

    agg = kept.map_batches(cnt, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("source").sum("cnt")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("source"), b.column("sum(cnt)").cast(pa.int64())],
            names=["source", "cnt"]),
        batch_format="pyarrow")


def contamination_pairs(sf_dir: str):
    """Train/test decontamination: exact cross-split text overlap over
    the augmented corpus (planted byte-identical copies guarantee hits).
    Broadcast tier: the test split's fp→ids map ships once via ray.put;
    train-side text never leaves the workers."""
    from mdvalidate_ray.functions.dedup import cross_split_exact_overlap

    docs = _augmented_docs(sf_dir)
    return cross_split_exact_overlap(docs, key="doc_id", text_col="text",
                                     train_bp=9000, salt="split")


def media_frames(sf_dir: str):
    """Multimodal fan-out plumbing: synth payloads → resize (1:1 stage) →
    frame-sample (1→N fan-out rows) → per-asset frame counts.  Two REAL
    container demuxes run side by side: animated GIF (genuine LZW frames
    decoded from bytes, re-encoded as PNG rows) and MP4 (ISO-BMFF
    stsz/stsc/stco sample-table walk slicing opaque samples out of
    mdat).  Rows-only (no SQL analog)."""
    import ray.data

    from mdvalidate_ray.corpus import assets_table
    from mdvalidate_ray.functions.media import (
        resize_media,
        sample_frames,
        synth_media_batch,
    )

    n = _docs_count(sf_dir)
    assets = assets_table(n)
    # remap the jpeg slice to animated GIF and the png slice to
    # MJPEG-in-MP4 so all three REAL multi-frame paths run side by
    # side: GIF (LZW frame decode), opaque-sample MP4 (pure demux),
    # and MJPEG MP4 (demux + real baseline-JPEG frame decode)
    remap = {"image/jpeg": "image/gif", "image/png": "video/mjpeg"}
    mimes = [remap.get(m, m)
             for m in assets.column("mime").to_pylist()[:100]]
    media = synth_media_batch(assets.column("asset_id").to_pylist()[:100],
                              mimes)
    media = media.filter(pc.is_in(media.column("mime"),
                                  value_set=pa.array(["video/mp4",
                                                      "image/gif",
                                                      "video/mjpeg"])))
    ds = resize_media(ray.data.from_arrow(media), width=16, height=16)
    frames = sample_frames(ds, stride=2)

    def cnt(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["asset_id"]), "asset_id").aggregate(
            [([], "count_all")])
        return g.rename_columns(["asset_id", "n_frames"])

    agg = frames.map_batches(cnt, batch_format="pyarrow",
                             zero_copy_batch=True) \
                .groupby("asset_id").sum("n_frames")
    return agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("asset_id"),
             b.column("sum(n_frames)").cast(pa.int64())],
            names=["asset_id", "n_frames"]),
        batch_format="pyarrow")


def events_in_windows(sf_dir: str):
    """Keyed RANGE join (as-of's sibling, an operator Ray Data lacks):
    per-user 'incident windows' — [ts, ts+1h] around every 50th event —
    counted against all of that user's events with
    ``e.ts BETWEEN w.start AND w.end``.  One co-partitioning exchange,
    vectorized composite-key searchsorted probe inside each bucket."""
    from mdvalidate_ray.functions.relational import range_join_count

    events = _read(sf_dir, "events").select_columns(
        ["event_id", "ts", "user_id"])

    def windows(b: pa.Table) -> pa.Table:
        ids = b.column("event_id")
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 50), 50))
        w = b.filter(pc.equal(mod, 0))
        start = w.column("ts").cast(pa.timestamp("us"))
        end = pc.add(start.cast(pa.int64()),
                     3_600_000_000).cast(pa.timestamp("us"))
        return pa.Table.from_arrays(
            [w.column("user_id"), w.column("event_id"), start, end],
            names=["user_id", "win_id", "start_ts", "end_ts"])

    intervals = events.map_batches(windows, batch_format="pyarrow",
                                   zero_copy_batch=True)
    out = range_join_count(events, intervals, key="user_id",
                           time_col="ts", id_col="win_id",
                           start_col="start_ts", end_col="end_ts",
                           n_parts=16)
    return out.map_batches(
        lambda b: b.rename_columns(["user_id", "win_id", "n_matched"]),
        batch_format="pyarrow")


def doc_frequency(sf_dir: str):
    """Inverted-index posting sizes: top-25 tokens by DOCUMENT frequency
    (number of distinct docs containing the token) — the df side of a
    tf-idf / posting-list build.  Each doc lives in exactly one batch, so
    an in-batch (doc, word) dedup makes the per-word partial counts
    EXACT; a hot word then contributes one row per batch to the
    exchange (skew-proof, same shape as :func:`top_words`), and
    :func:`~mdvalidate_ray.functions.relational.bucketed_group_sum` +
    partial top-k finish without a full sort."""
    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     topk_table)

    docs = _read(sf_dir, "documents").select_columns(["text"])

    def df_partial(b: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["word", "df"])
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        parents = pc.list_parent_indices(flat)
        keep = pc.not_equal(words, "")
        words = words.filter(keep)
        parents = parents.filter(keep)
        if len(words) == 0:
            return empty
        enc = words.dictionary_encode()
        n_words = len(enc.dictionary)
        codes = np.asarray(enc.indices).astype(np.int64)
        par = np.asarray(parents).astype(np.int64)
        # one distinct (doc, word) pair per posting: np.unique on the
        # fused pair id, then a bincount over the word codes
        ucodes = np.unique(par * n_words + codes) % n_words
        dfs = np.bincount(ucodes, minlength=n_words)
        nz = np.nonzero(dfs)[0]
        return pa.Table.from_arrays(
            [enc.dictionary.take(pa.array(nz, pa.int64())),
             pa.array(dfs[nz], pa.int64())],
            names=["word", "df"])

    partials = docs.map_batches(df_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    agg = bucketed_group_sum(partials, key="word", sum_cols=["df"],
                             n_parts=16)
    return topk_table(agg, 25, [("df", "descending"),
                                ("word", "ascending")])


def _orders_fine_cells(sf_dir: str) -> pa.Table:
    """Exact (year, priority) order counts + cent-integer price sums.

    Per-batch combiner collapses each block to ≤ |years|×|priorities|
    partial rows (cents become int64 BEFORE summing, so addition is
    exact integer math and immune to float ordering);
    ``bucketed_group_sum`` folds the partials.  The fine grid is
    bounded (7 years × 5 priorities), so materializing it is O(35)."""
    import numpy as np

    import ray
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def part(b: pa.Table) -> pa.Table:
        yr = pc.year(b.column("o_orderdate")).cast(pa.int64())
        pri = pc.cast(b.column("o_orderpriority"), pa.string())
        c100 = pc.cast(_pc_round(pc.multiply(
            b.column("o_totalprice"), 100.0)), pa.int64())
        key = pc.binary_join_element_wise(
            pc.cast(yr, pa.string()), pri, "|")
        key = key.combine_chunks() if isinstance(
            key, pa.ChunkedArray) else key
        enc = key.dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        n = len(enc.dictionary)
        cnt = np.bincount(codes, minlength=n).astype(np.int64)
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, codes,
                  np.asarray(c100.combine_chunks() if isinstance(
                      c100, pa.ChunkedArray) else c100).astype(np.int64))
        return pa.Table.from_arrays(
            [enc.dictionary, pa.array(cnt), pa.array(sums)],
            names=["cell", "cnt", "sum_c100"])

    partials = orders.map_batches(part, batch_format="pyarrow",
                                  zero_copy_batch=True)
    agg = bucketed_group_sum(partials, key="cell",
                             sum_cols=["cnt", "sum_c100"],
                             n_parts=8).materialize()
    tbls = [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tbls).combine_chunks()


def orders_rollup(sf_dir: str):
    """Hierarchical aggregate with ROLLUP margins — (year, priority)
    cells plus per-year subtotals plus a grand total, the SQL
    ``GROUP BY ROLLUP`` operator.  The distributed work is one
    pre-combined exchange (:func:`_orders_fine_cells`); margins are
    derived on the driver from the bounded fine grid, never from row
    data."""
    fine = _orders_fine_cells(sf_dir)
    cells = fine.column("cell").to_pylist()
    cnts = fine.column("cnt").to_pylist()
    sums = fine.column("sum_c100").to_pylist()

    years, pris, out_cnt, out_sum = [], [], [], []
    by_year: dict[int, list[int]] = {}
    for cell, c, s in zip(cells, cnts, sums):
        y_s, pri = cell.split("|", 1)
        y = int(y_s)
        years.append(y)
        pris.append(pri)
        out_cnt.append(c)
        out_sum.append(s)
        t = by_year.setdefault(y, [0, 0])
        t[0] += c
        t[1] += s
    for y, (c, s) in by_year.items():
        years.append(y)
        pris.append(None)
        out_cnt.append(c)
        out_sum.append(s)
    years.append(None)
    pris.append(None)
    out_cnt.append(sum(cnts))
    out_sum.append(sum(sums))
    return pa.Table.from_arrays(
        [pa.array(years, pa.int64()), pa.array(pris, pa.string()),
         pa.array(out_cnt, pa.int64()), pa.array(out_sum, pa.int64())],
        names=["o_year", "o_orderpriority", "cnt", "sum_c100"])


def priority_pivot(sf_dir: str):
    """PIVOT: one row per order-year, one count column per priority
    class (the conditional-aggregation form — stable output schema).
    Reuses the pre-combined fine grid; the pivot itself touches only
    the bounded cell table on the driver."""
    fine = _orders_fine_cells(sf_dir)
    grid: dict[int, dict[str, int]] = {}
    for cell, c in zip(fine.column("cell").to_pylist(),
                       fine.column("cnt").to_pylist()):
        y_s, pri = cell.split("|", 1)
        grid.setdefault(int(y_s), {})[pri] = c
    pri_cols = {"1-URGENT": "p_urgent", "2-HIGH": "p_high",
                "3-MEDIUM": "p_medium", "4-NOT SPECIFIED": "p_notspec",
                "5-LOW": "p_low"}
    years = sorted(grid)
    arrays = [pa.array(years, pa.int64())]
    names = ["o_year"]
    for pri, col in pri_cols.items():
        arrays.append(pa.array([grid[y].get(pri, 0) for y in years],
                               pa.int64()))
        names.append(col)
    return pa.Table.from_arrays(arrays, names=names)


def pack_bins(sf_dir: str):
    """Sequence packing: greedy first-fit-in-order token bins of capacity
    512 per source (see :func:`~mdvalidate_ray.functions.relational.
    pack_sequences`).  Token counts use the same whitespace tokenization
    as :func:`token_counts`, computed vectorized per batch; only the
    (source, doc_id, n_tok) metadata enters the exchange."""
    from mdvalidate_ray.functions.relational import pack_sequences

    docs = _read(sf_dir, "documents").select_columns(
        ["doc_id", "text", "source"])

    def meta(b: pa.Table) -> pa.Table:
        toks = pc.list_value_length(pc.split_pattern_regex(
            pc.utf8_trim(pc.cast(b.column("text"), pa.string()),
                         characters=" "), r"\s+"))
        return pa.Table.from_arrays(
            [pc.cast(b.column("source"), pa.string()), b.column("doc_id"),
             pc.cast(toks, pa.int64())],
            names=["source", "doc_id", "n_tok"])

    metas = docs.map_batches(meta, batch_format="pyarrow",
                             zero_copy_batch=True)
    return pack_sequences(metas, key="source", order_col="doc_id",
                          tokens_col="n_tok", capacity=512, n_parts=8)


def daily_active_users(sf_dir: str):
    """Exact daily COUNT(DISTINCT user_id) over events — the canonical
    distinct-per-group wide operator, computed skew-proof via
    :func:`~mdvalidate_ray.functions.relational.group_count_distinct`
    (in-batch pair dedup → pair-hash co-partition → exact partial-count
    summation; raw rows never shuffle on the group key)."""
    from mdvalidate_ray.functions.relational import group_count_distinct

    ev = _read(sf_dir, "events").select_columns(["ts", "user_id"])

    def day_pairs(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.strftime(b.column("ts"), format="%Y-%m-%d"),
             b.column("user_id")],
            names=["day", "user_id"])

    pairs = ev.map_batches(day_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)
    return group_count_distinct(pairs, group_col="day",
                                distinct_col="user_id",
                                out_name="n_users")


def priority_revenue(sf_dir: str):
    """Per-priority lineitem revenue — a genuine large×large equi-join
    (lineitem × orders, neither broadcast) through
    :func:`~mdvalidate_ray.functions.relational.hash_join`, reduced by
    an in-batch combiner + bucketed fold so only ≤5 partial rows per
    block enter the final exchange.  Revenue rounds to integer cents
    per row BEFORE summation (exact int math, oracle-identical)."""
    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join)

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderpriority"])
    joined = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                       n_parts=8)

    def part(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["o_orderpriority", "cnt", "rev_c100"])
        rev = pc.cast(_pc_round(pc.multiply(pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount"))), 100.0)),
            pa.int64())
        pri = b.column("o_orderpriority")
        pri = pri.combine_chunks() if isinstance(
            pri, pa.ChunkedArray) else pri
        enc = pri.dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        n = len(enc.dictionary)
        cnt = np.bincount(codes, minlength=n).astype(np.int64)
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, codes,
                  np.asarray(rev.combine_chunks() if isinstance(
                      rev, pa.ChunkedArray) else rev).astype(np.int64))
        return pa.Table.from_arrays(
            [enc.dictionary, pa.array(cnt), pa.array(sums)],
            names=["o_orderpriority", "cnt", "rev_c100"])

    partials = joined.map_batches(part, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return bucketed_group_sum(partials, key="o_orderpriority",
                              sum_cols=["cnt", "rev_c100"], n_parts=4)


def latest_events(sf_dir: str):
    """Per-user latest event — upsert/compaction semantics ("last write
    wins" by (ts, event_id)) via
    :func:`~mdvalidate_ray.functions.relational.latest_per_key`."""
    from mdvalidate_ray.functions.relational import latest_per_key

    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "event_id", "ts", "event_type"])
    out = latest_per_key(ev, key="user_id",
                         order_cols=["ts", "event_id"])
    return out.map_batches(
        lambda b: b.select(["user_id", "event_id", "ts", "event_type"]),
        batch_format="pyarrow")


def dedup_clusters(sf_dir: str):
    """Duplicate-cluster resolution: exact-dup pairs over the augmented
    corpus → :func:`~mdvalidate_ray.functions.dedup.connected_components`
    → every clustered doc labeled with its component (the min doc_id —
    the representative a dedup pipeline would keep)."""
    from mdvalidate_ray.functions.dedup import (connected_components,
                                                duplicate_group_edges,
                                                exact_duplicate_groups)

    groups = exact_duplicate_groups(_augmented_docs(sf_dir), "text",
                                    "doc_id")
    comp = connected_components(duplicate_group_edges(groups))
    return comp.rename_columns(["doc_id", "component"])


def dedup_purge(sf_dir: str):
    """Full exact-dedup pipeline over the augmented corpus: the kept
    doc_ids (one representative — the numeric min — per byte-identical
    group, plus every unique doc).  The drop set broadcasts; the corpus
    streams."""
    from mdvalidate_ray.functions.dedup import purge_exact_duplicates

    kept = purge_exact_duplicates(_augmented_docs(sf_dir), "text", "doc_id")
    return kept.map_batches(lambda b: b.select(["doc_id"]),
                            batch_format="pyarrow")


def zscore_nchars(sf_dir: str):
    """Per-source z-score of document length in basis points — the
    two-phase broadcast form of AVG/STDDEV OVER (PARTITION BY source)."""
    from mdvalidate_ray.functions.relational import group_zscore

    return group_zscore(_read(sf_dir, "documents"),
                        group_col="source", value_col="n_chars",
                        keep_cols=["doc_id", "source"])


def shuffle_manifest(sf_dir: str):
    """Deterministic training-shuffle layout: every doc's shard and its
    exact position inside the shard (md5-ordered), stable under re-runs
    and repartitioning."""
    from mdvalidate_ray.functions.relational import shuffle_shards

    return shuffle_shards(_read(sf_dir, "documents"), key="doc_id",
                          n_shards=8, salt="shuf")


def repetition(sf_dir: str):
    """Intra-document repetition signal: total vs distinct word counts
    per doc under an exact single-space split."""
    from mdvalidate_ray.functions.text import add_repetition_stats

    docs = _read(sf_dir, "documents")
    return docs.map_batches(
        lambda b: add_repetition_stats(b).select(
            ["doc_id", "n_words", "n_distinct"]),
        batch_format="pyarrow", zero_copy_batch=True)


def bigram_counts(sf_dir: str):
    """Top-25 word bigrams corpus-wide (n-gram LM statistics).  Same
    skew-proof shape as :func:`top_words`: per-batch vectorized bigram
    ``value_counts`` combiner (a hot bigram contributes ONE row per
    batch to the exchange), tiny ``groupby.sum``, partial top-k."""
    import numpy as np

    from mdvalidate_ray.functions.relational import topk_table

    docs = _read(sf_dir, "documents").select_columns(["text"])

    def bc(b: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["bigram", "cnt"])
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        parents = pc.list_parent_indices(flat)
        keep = pc.not_equal(words, "")
        words = words.filter(keep)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        parents = np.asarray(parents.filter(keep)).astype(np.int64)
        if len(words) < 2:
            return empty
        same_doc = parents[1:] == parents[:-1]
        left = words.slice(0, len(words) - 1).filter(pa.array(same_doc))
        right = words.slice(1).filter(pa.array(same_doc))
        if len(left) == 0:
            return empty
        grams = pc.binary_join_element_wise(left, right, " ")
        vc = grams.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["bigram", "cnt"])

    agg = docs.map_batches(bc, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("bigram").sum("cnt")
    named = agg.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("bigram"), b.column("sum(cnt)").cast(pa.int64())],
            names=["bigram", "cnt"]),
        batch_format="pyarrow")
    return topk_table(named, 25, [("cnt", "descending"),
                                  ("bigram", "ascending")])


def tfidf_top_terms(sf_dir: str):
    """Top-3 tf-idf terms per document — the keyword-extraction side of
    the inverted index.  Integer-exact scoring so the oracle compare is
    float-free: ``score = tf * 1_000_000 * n_docs // df`` (the rational
    tf·(N/df) variant; a monotone transform of tf·N/df for fixed tf).

    Scale shape: pass 1 folds exact per-word document frequencies (the
    :func:`doc_frequency` combiner, full vocabulary — word-level vocab ≪
    corpus, ~100 MB at web scale; hash-bucket the join instead if the
    vocabulary ever outgrows a broadcast); the (word, df) Arrow table is
    broadcast once via ``ray.put`` and probed with the vectorized
    ``pc.index_in`` hash lookup (no Python dict, no per-word driver
    loop); pass 2 streams the corpus, scoring and ranking inside each
    batch (every doc lives in exactly one row — no exchange at all)."""
    import numpy as np
    import ray

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    n_docs = _docs_count(sf_dir)

    def df_partial(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        parents = pc.list_parent_indices(flat)
        keep = pc.not_equal(words, "")
        words = words.filter(keep)
        parents = parents.filter(keep)
        if len(words) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["word", "df"])
        enc = (words.combine_chunks() if isinstance(words, pa.ChunkedArray)
               else words).dictionary_encode()
        n_words = len(enc.dictionary)
        codes = np.asarray(enc.indices).astype(np.int64)
        par = np.asarray(parents).astype(np.int64)
        ucodes = np.unique(par * n_words + codes) % n_words
        dfs = np.bincount(ucodes, minlength=n_words)
        nz = np.nonzero(dfs)[0]
        return pa.Table.from_arrays(
            [enc.dictionary.take(pa.array(nz, pa.int64())),
             pa.array(dfs[nz], pa.int64())],
            names=["word", "df"])

    # the df side stays Arrow end-to-end: aggregated (word, df) blocks are
    # fetched as tables (no Python row hop), concatenated, and broadcast
    # once — workers probe it with the vectorized C++ hash lookup
    # pc.index_in, not a Python dict per word
    agg = (docs.map_batches(df_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("word").sum("df"))
    parts = [p for p in ray.get(agg.materialize().to_arrow_refs())
             if p.num_rows]
    df_tbl = pa.concat_tables(
        [p.select(["word", "sum(df)"]) for p in parts]).rename_columns(
        ["word", "df"])
    df_tbl = pa.Table.from_arrays(
        [df_tbl.column("word").combine_chunks(),
         df_tbl.column("df").cast(pa.int64()).combine_chunks()],
        names=["word", "df"])
    ref = ray.put(df_tbl)

    def score(b: pa.Table) -> pa.Table:
        out_schema = pa.schema([("doc_id", pa.int64()),
                                ("term", pa.string()),
                                ("score", pa.int64())])
        dft = ray.get(ref)                 # zero-copy plasma read
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        parents = pc.list_parent_indices(flat)
        keep = pc.not_equal(words, "")
        words = words.filter(keep)
        parents = parents.filter(keep)
        if len(words) == 0:
            return out_schema.empty_table()
        enc = (words.combine_chunks() if isinstance(words, pa.ChunkedArray)
               else words).dictionary_encode()
        vocab = enc.dictionary.to_pylist()
        n_words = len(vocab)
        codes = np.asarray(enc.indices).astype(np.int64)
        par = np.asarray(parents).astype(np.int64)
        # exact per-(doc, word) term counts
        pair, tf = np.unique(par * n_words + codes, return_counts=True)
        p_doc, p_code = pair // n_words, pair % n_words
        pos = pc.index_in(enc.dictionary, dft.column("word").chunk(0))
        dfv = dft.column("df").take(pos).to_numpy(
            zero_copy_only=False).astype(np.int64)
        sc = tf.astype(np.int64) * 1_000_000 * n_docs // dfv[p_code]
        terms = np.asarray(vocab, dtype=object)[p_code]
        # rank: (doc asc, score desc, term asc), keep first 3 per doc
        order = np.lexsort((terms.astype(str), -sc, p_doc))
        d_sorted = p_doc[order]
        first = np.concatenate(([True], d_sorted[1:] != d_sorted[:-1]))
        run_start = np.maximum.accumulate(
            np.where(first, np.arange(len(order)), 0))
        rank = np.arange(len(order)) - run_start
        sel = order[rank < 3]
        doc_ids = np.asarray(b.column("doc_id").to_pandas(),
                             dtype=np.int64)
        return pa.Table.from_arrays(
            [pa.array(doc_ids[p_doc[sel]]),
             pa.array([terms[i] for i in sel], pa.string()),
             pa.array(sc[sel])],
            schema=out_schema)

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


def stratified_fixed_k(sf_dir: str):
    """Equal-allocation stratified sample: exactly 5 docs per source,
    chosen deterministically (lowest md5-lower-64 of ``'strat'||doc_id``
    first — rate-free cousin of :func:`split_counts`'s hash splits).
    Composes the md5 key with the skew-proof windowed top-N machinery,
    so membership is stable under re-runs and repartitioning."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.window import top_n_per_group
    import numpy as np

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "source"])

    def hash_key(b: pa.Table) -> pa.Table:
        ks = ["strat" + str(v) for v in b.column("doc_id").to_pylist()]
        h = (_md5_token_hashes(ks) if ks
             else np.empty(0, dtype=np.uint64))
        # uint64 → int64 bit-preserving order trick unneeded: Arrow sorts
        # uint64 natively, keep the exact oracle-comparable value
        return b.append_column("h", pa.array(h, pa.uint64()))

    tagged = docs.map_batches(hash_key, batch_format="pyarrow",
                              zero_copy_batch=True)
    out = top_n_per_group(tagged, group_key="source", order_col="h",
                          n=5, descending=False, tie_col="doc_id",
                          n_parts=8)
    return out.map_batches(
        lambda b: b.select(["source", "doc_id", "rk"]),
        batch_format="pyarrow")


def user_running_total(sf_dir: str):
    """Per-user running spend — ``SUM(value) OVER (PARTITION BY user_id
    ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)`` plus the running
    row number.  Values are scaled to cents int64 BEFORE the fold
    (``_pc_round`` half-away = DuckDB ``round``), so the running total
    is order-exact across engines — no float association drift."""
    from mdvalidate_ray.functions.window import grouped_running_sum

    ev = _read(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        c = _pc_round(pc.multiply(b.column("value"), 100.0)) \
            .cast(pa.int64())
        return b.drop_columns(["value"]).append_column("v_c100", c)

    cents = ev.map_batches(to_cents, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = grouped_running_sum(cents, key="user_id",
                              order_cols=["ts", "event_id"],
                              value_col="v_c100", n_parts=32)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("event_id"), b.column("user_id"),
             b.column("run_sum"), b.column("rn")],
            names=["event_id", "user_id", "run_sum_c100", "rn"]),
        batch_format="pyarrow")


def length_ntile(sf_dir: str):
    """Global length ranking + ntile(8) length buckets over all documents
    — the curriculum-ordering / length-bucketed-batching primitive
    (global row_number cannot avoid ONE range-partition sort; rank
    assignment after it is metadata-only, see window.global_rank)."""
    from mdvalidate_ray.functions.window import global_rank

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "n_chars"])
    out = global_rank(docs, order_cols=["n_chars", "doc_id"], n_buckets=8)
    return out.map_batches(
        lambda b: b.select(["doc_id", "rk", "bucket"]),
        batch_format="pyarrow")


def doc_chunks(sf_dir: str):
    """Context-window chunking: 50-token chunks, stride 40 (10-token
    overlap) over every document — pure map fan-out, chunk text
    hash-compared against the SQL reconstruction."""
    from mdvalidate_ray.functions.text import chunk_documents

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return chunk_documents(docs, chunk_size=50, stride=40)


def user_value_deltas(sf_dir: str):
    """Per-user event-to-event spend delta — ``value - LAG(value)``
    over (ts, event_id) order, cents-scaled before differencing so the
    result is integer-exact (null on each user's first event)."""
    from mdvalidate_ray.functions.window import grouped_lag_delta

    ev = _read(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        c = _pc_round(pc.multiply(b.column("value"), 100.0)) \
            .cast(pa.int64())
        return b.drop_columns(["value"]).append_column("v_c100", c)

    cents = ev.map_batches(to_cents, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = grouped_lag_delta(cents, key="user_id",
                            order_cols=["ts", "event_id"],
                            value_col="v_c100", n_parts=32)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("event_id"), b.column("user_id"),
             b.column("delta")],
            names=["event_id", "user_id", "delta_c100"]),
        batch_format="pyarrow")


def part_copurchase_triangles(sf_dir: str):
    """Exact per-node triangle counts on the part co-purchase graph
    (parts sharing an order are connected): the local-clustering /
    community-density primitive over a graph DERIVED inside the engine
    — cooccurrence_edges (group-bucket vectorized pair expansion) into
    triangle_counts (degree-ordered node-iterator, pair-key
    co-partitioned closing probe; graph.py cites Schank & Wagner 2005 /
    Suri & Vassilvitskii 2011).  Integer-exact, so the SQL oracle
    (self-join edge derivation + triple join) recomputes identical
    counts."""
    from mdvalidate_ray.functions.graph import (cooccurrence_edges,
                                                triangle_counts)

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, group_col="l_orderkey",
                               item_col="l_partkey", n_parts=32)
    # cooccurrence output is already canonical-distinct — fuse away the
    # second dedup exchange
    out = triangle_counts(edges, col_a="u", col_b="v", n_parts=32,
                          assume_distinct=True)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("node"), b.column("n_tri")],
            names=["l_partkey", "n_tri"]),
        batch_format="pyarrow")


def user_hourly_spend(sf_dir: str):
    """Per-user TIME-RANGE window spend — ``SUM(value) OVER (PARTITION
    BY user_id ORDER BY ts RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND
    CURRENT ROW)`` — the rate-limit / rolling-exposure primitive.  A
    RANGE frame, unlike the ROWS frames elsewhere in the catalog, spans
    a fixed time interval (variable row count) and includes ALL peers
    sharing the row's timestamp (the SQL peer rule), so it is a distinct
    kernel (window.grouped_range_sum), not a parameterization of
    grouped_moving_sum.  Values are cents-scaled int64 before the fold
    (order-exact), and the emitted (event_id) keys make the comparison
    row-unique even where timestamps tie."""
    from mdvalidate_ray.functions.window import grouped_range_sum

    ev = _read(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        c = _pc_round(pc.multiply(b.column("value"), 100.0)) \
            .cast(pa.int64())
        return b.drop_columns(["value"]).append_column("v_c100", c)

    cents = ev.map_batches(to_cents, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = grouped_range_sum(cents, key="user_id", ts_col="ts",
                            value_col="v_c100",
                            range_delta_us=3_600_000_000,
                            order_tie_cols=["event_id"], n_parts=32)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("event_id"), b.column("user_id"),
             b.column("range_sum"), b.column("n_range")],
            names=["event_id", "user_id", "range_sum_c100", "n_range"]),
        batch_format="pyarrow")


def nation_supplier_names(sf_dir: str):
    """Ordered string aggregation — ``string_agg(s_name, ',' ORDER BY
    s_name) GROUP BY s_nationkey`` — the aggregate family whose result is
    a total-order-dependent variable-length concatenation (sum/min/max
    partials can't express it; groups must co-locate).  Bounded groups
    by construction (suppliers per nation); see
    window.grouped_string_agg for the skew caveat."""
    from mdvalidate_ray.functions.window import grouped_string_agg

    sup = _read(sf_dir, "supplier").select_columns(
        ["s_nationkey", "s_name"])
    out = grouped_string_agg(sup, key="s_nationkey", value_col="s_name",
                             sep=",", order_cols=["s_name"], n_parts=8)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("s_nationkey"), b.column("agg"),
             b.column("n_items")],
            names=["s_nationkey", "names", "n_items"]),
        batch_format="pyarrow")


def funnel(sf_dir: str):
    """Ordered funnel view → click → purchase: per-step user counts with
    greedy earliest-completion chaining (each step's time is the MIN ts
    strictly after the previous step's time)."""
    from mdvalidate_ray.functions.relational import funnel_counts

    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_type"])
    return funnel_counts(ev, key="user_id", time_col="ts",
                         type_col="event_type",
                         steps=["view", "click", "purchase"], n_parts=32)


def retention(sf_dir: str):
    """Cohort retention matrix: users cohorted by first-signup day,
    distinct active users per (cohort_day, whole-day offset)."""
    from mdvalidate_ray.functions.relational import cohort_retention

    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_type"])
    return cohort_retention(ev, key="user_id", time_col="ts",
                            type_col="event_type", signup_type="signup",
                            n_parts=32)


def embedding_int8(sf_dir: str):
    """Per-vector symmetric int8 quantization of every embedding,
    long-form (vec_id, idx, q) — exact value parity with the SQL
    reconstruction."""
    from mdvalidate_ray.functions.similarity import quantize_embeddings_int8

    emb = _read(sf_dir, "embeddings").select_columns(["vec_id", "embedding"])
    return quantize_embeddings_int8(emb)


def normalized_docs(sf_dir: str):
    """Canonical normalization of every document (NFC + lower +
    whitespace collapse + trim) — normalized bytes compared exactly
    against the SQL reconstruction."""
    from mdvalidate_ray.functions.text import add_normalized

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return docs.map_batches(
        lambda b: add_normalized(b).select(["doc_id", "text_norm",
                                            "norm_len"]),
        batch_format="pyarrow", zero_copy_batch=True)


def lineitem_profile(sf_dir: str):
    """Describe-style numeric profile of lineitem in ONE streaming pass
    (stages/stats.column_stats): per column n_rows / n_null / min / max /
    sum.  Float columns scale to integer cents FIRST so partial sums
    fold exactly in any arrival order."""
    from mdvalidate_ray.stages.stats import column_stats

    cols_int = ["l_orderkey", "l_partkey", "l_suppkey"]
    cols_cents = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = _read(sf_dir, "lineitem").select_columns(cols_int + cols_cents)

    def to_cents(b: pa.Table) -> pa.Table:
        arrays, names = [], []
        for c in cols_int:
            arrays.append(b.column(c).cast(pa.int64()))
            names.append(c)
        for c in cols_cents:
            arrays.append(_pc_round(pc.multiply(b.column(c), 100.0))
                          .cast(pa.int64()))
            names.append(c + "_c100")
        return pa.Table.from_arrays(arrays, names=names)

    prof = column_stats(
        li.map_batches(to_cents, batch_format="pyarrow",
                       zero_copy_batch=True),
        cols_int + [c + "_c100" for c in cols_cents])
    return pa.Table.from_arrays(
        [prof.column("column"),
         prof.column("n_rows").cast(pa.int64()),
         prof.column("n_null").cast(pa.int64()),
         pc.cast(pc.round(prof.column("min_val")), pa.int64()),
         pc.cast(pc.round(prof.column("max_val")), pa.int64()),
         pc.cast(pc.round(prof.column("sum_val")), pa.int64())],
        names=["column", "n_rows", "n_null", "min_v", "max_v", "sum_v"])


def mode_event_per_user(sf_dir: str):
    """Per-user modal event type — the grouped MODE aggregate via
    :func:`~mdvalidate_ray.functions.relational.group_mode` (count
    pre-combine → one coarse exchange → vectorized in-bucket argmax;
    ties break to the lexicographically smallest event type, matching
    ``row_number() OVER (ORDER BY count(*) DESC, event_type)``)."""
    from mdvalidate_ray.functions.relational import group_mode

    ev = _read(sf_dir, "events").select_columns(["user_id", "event_type"])
    out = group_mode(ev, group_col="user_id", value_col="event_type",
                     out_col="mode_event", cnt_col="cnt")
    return out.map_batches(
        lambda b: b.set_column(0, "user_id",
                               b.column("user_id").cast(pa.int64())),
        batch_format="pyarrow")


def event_entropy_daily(sf_dir: str):
    """Per-day Shannon entropy (log2, ×10000 as int64) of the event-type
    mix — the drift-style distribution summary, computed exactly from
    per-day value counts via
    :func:`~mdvalidate_ray.functions.relational.group_entropy`."""
    from mdvalidate_ray.functions.relational import group_entropy

    ev = _read(sf_dir, "events").select_columns(["ts", "event_type"])

    def day_pairs(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.strftime(b.column("ts"), format="%Y-%m-%d"),
             b.column("event_type")],
            names=["day", "event_type"])

    pairs = ev.map_batches(day_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)
    return group_entropy(pairs, group_col="day", value_col="event_type",
                         out_col="entropy_e4")


def nation_suppliers(sf_dir: str):
    """Per-nation ordered supplier roster — ``string_agg(s_name, ','
    ORDER BY s_name)`` via
    :func:`~mdvalidate_ray.functions.relational.group_concat` (pruned
    two-column exchange, group calls bounded by the bucket count)."""
    from mdvalidate_ray.functions.relational import group_concat

    sup = _read(sf_dir, "supplier").select_columns(
        ["s_nationkey", "s_name"])
    out = group_concat(sup, group_col="s_nationkey", value_col="s_name",
                       out_col="roster")
    return out.map_batches(
        lambda b: b.set_column(0, "s_nationkey",
                               b.column("s_nationkey").cast(pa.int64())),
        batch_format="pyarrow")


def qty_outliers(sf_dir: str):
    """Per-returnflag Tukey-fence outlier counts over ``l_quantity``:
    exact grouped quartiles (quantile_cont parity) → 1.5×IQR bounds
    broadcast to a streaming counting pass (pre-combined per batch, one
    tiny fold) — the classic distribution-anomaly constraint."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.window import group_quantiles

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_quantity"])
    qrows = group_quantiles(li, group_key="l_returnflag",
                            value_col="l_quantity",
                            qs=[0.25, 0.75]).take_all()   # groups × 2 rows
    by_flag: dict = {}
    for r in qrows:
        by_flag.setdefault(r["l_returnflag"], {})[r["q"]] = r["q_value"]
    bounds = {}
    for flag, qs in by_flag.items():
        q1, q3 = qs[0.25], qs[0.75]
        iqr = q3 - q1
        bounds[flag] = (q1 - 1.5 * iqr, q3 + 1.5 * iqr)
    ref = ray.put(bounds)

    def part(b: pa.Table) -> pa.Table:
        bd = ray.get(ref)
        flags = b.column("l_returnflag")
        flags = flags.combine_chunks() if isinstance(
            flags, pa.ChunkedArray) else flags
        enc = flags.dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        lo = np.asarray([bd[str(f)][0] for f in enc.dictionary])
        hi = np.asarray([bd[str(f)][1] for f in enc.dictionary])
        x = np.asarray(b.column("l_quantity").to_pandas(),
                       dtype=np.float64)
        out_mask = (x < lo[codes]) | (x > hi[codes])
        n = len(enc.dictionary)
        n_out = np.bincount(codes[out_mask], minlength=n).astype(np.int64)
        n_rows = np.bincount(codes, minlength=n).astype(np.int64)
        return pa.Table.from_arrays(
            [enc.dictionary, pa.array(n_out), pa.array(n_rows)],
            names=["l_returnflag", "n_outliers", "n_rows"])

    partials = li.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed_group_sum(partials, key="l_returnflag",
                              sum_cols=["n_outliers", "n_rows"], n_parts=4)


def fingerprint_spread(sf_dir: str):
    """Cross-source content overlap histogram: for each 5-word-prefix
    block fingerprint (the same blocking key the n-gram-jaccard family
    uses), how many DISTINCT sources carry it, histogrammed as
    (n_sources, n_fps).  Composition of the skew-proof count-distinct
    (in-batch pair dedup, pair-hash co-partition) with a tiny count
    fold — the "is this content syndicated across sources?" signal."""
    import hashlib
    import re

    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     group_count_distinct)

    docs = _read(sf_dir, "documents").select_columns(["text", "source"])
    ws = re.compile(r"\s+")

    def fp_pairs(b: pa.Table) -> pa.Table:
        fps = []
        for t in b.column("text").to_pylist():
            words = [w for w in ws.split((t or "").lower()) if w]
            fps.append(hashlib.md5(" ".join(words[:5]).encode())
                       .hexdigest())
        return pa.Table.from_arrays(
            [pa.array(fps, pa.string()), b.column("source")],
            names=["fp", "source"])

    pairs = docs.map_batches(fp_pairs, batch_format="pyarrow",
                             zero_copy_batch=True)
    per_fp = group_count_distinct(pairs, group_col="fp",
                                  distinct_col="source",
                                  out_name="n_sources")

    def hist(b: pa.Table) -> pa.Table:
        ns = np.asarray(b.column("n_sources").to_pandas(), dtype=np.int64)
        vals, cnts = np.unique(ns, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(vals.astype(np.int64)),
             pa.array(cnts.astype(np.int64))],
            names=["n_sources", "n_fps"])

    partials = per_fp.map_batches(hist, batch_format="pyarrow",
                                  zero_copy_batch=True)
    return bucketed_group_sum(partials, key="n_sources",
                              sum_cols=["n_fps"], n_parts=2)


def neardup_purge(sf_dir: str):
    """END-TO-END near-dedup: MinHash+LSH candidates → exact-jaccard
    verify (≥0.9) → connected components over the verified pairs →
    purge everything but each cluster's min-id representative.  The
    full training-data dedup pipeline in one query; the oracle rebuilds
    the identical pair set in SQL and resolves clusters with a
    recursive-CTE transitive closure."""
    import numpy as np
    import ray
    import ray.data

    from mdvalidate_ray.functions.dedup import (connected_components,
                                                minhash_near_duplicates,
                                                verify_pairs_jaccard)

    docs = _augmented_docs(sf_dir).materialize()
    candidates = minhash_near_duplicates(docs, threshold=0.9,
                                         verify="none", dedup=False)
    verified = verify_pairs_jaccard(candidates, docs, threshold=0.9)
    if isinstance(verified, pa.Table):
        verified = ray.data.from_arrow(verified.select(["doc_a", "doc_b"]))
    comp = connected_components(verified, col_a="doc_a", col_b="doc_b")
    node = np.asarray(comp.column(0), dtype=np.int64)
    label = np.asarray(comp.column(1), dtype=np.int64)
    drop_ref = ray.put(np.sort(node[node != label]))

    def keep(b: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        ids = np.asarray(b.column("doc_id").to_pandas(), dtype=np.int64)
        if len(d) == 0:
            keep_mask = np.ones(len(ids), dtype=bool)
        else:
            pos = np.searchsorted(d, ids)
            hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids)
            keep_mask = ~hit
        return pa.Table.from_arrays(
            [pa.array(ids[keep_mask])], names=["doc_id"])

    return docs.map_batches(keep, batch_format="pyarrow",
                            zero_copy_batch=True)


def q4_priority_exists(sf_dir: str):
    """Q4-shaped EXISTS aggregate: orders per priority that have at least
    one deep-discount lineitem (l_discount > 0.05) — the semi-join +
    count pattern (/root/reference has no relational surface; TPC-H Q4 is
    the public shape).  The qualifying order-key set stays distributed:
    per-batch distinct combiner → tiered
    :func:`~mdvalidate_ray.functions.relational.semi_join_keys`
    (broadcast exact set / Bloom + co-partitioned verify) → per-batch
    count partials → one tiny fold."""
    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     semi_join_keys)

    keys_ds = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_discount"]).map_batches(
        lambda b: pa.TableGroupBy(
            b.filter(pc.greater(b.column("l_discount"), 0.05))
             .select(["l_orderkey"]), "l_orderkey").aggregate([]),
        batch_format="pyarrow", zero_copy_batch=True)

    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderpriority"])
    kept = semi_join_keys(orders, keys_ds, left_key="o_orderkey",
                          right_key="l_orderkey")

    def part(b: pa.Table) -> pa.Table:
        t = b.select(["o_orderpriority"]).append_column(
            "n_orders", pa.array([1] * b.num_rows, pa.int64()))
        g = pa.TableGroupBy(t, "o_orderpriority").aggregate(
            [("n_orders", "sum")])
        return g.rename_columns(["o_orderpriority", "n_orders"])

    partials = kept.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)
    return bucketed_group_sum(partials, key="o_orderpriority",
                              sum_cols=["n_orders"], n_parts=4)


def q10_returned_revenue(sf_dir: str):
    """Q10-shaped returned-item report: top-20 customers by revenue of
    RETURNED lineitems (l_returnflag = 'R'), names attached last.
    Plan: filter + per-row integer-cents rounding + in-batch combiner →
    large×large hash join to orders (the only all-to-all) → custkey
    pre-combine + bucketed fold → partial top-k merge → the 20 names
    come from ONE pruned read of the customer dimension."""
    import pyarrow.parquet as pq

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join,
                                                     topk_table)

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])

    def returned_rev(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        rev = pc.cast(_pc_round(pc.multiply(pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount"))), 100.0)),
            pa.int64())
        t = pa.Table.from_arrays([b.column("l_orderkey"), rev],
                                 names=["l_orderkey", "rev_c100"])
        g = pa.TableGroupBy(t, "l_orderkey").aggregate([("rev_c100", "sum")])
        return g.rename_columns(["l_orderkey", "rev_c100"])

    li_rev = li.map_batches(returned_rev, batch_format="pyarrow",
                            zero_copy_batch=True)
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_custkey"])
    joined = hash_join(li_rev, orders, on="l_orderkey",
                       right_on="o_orderkey", n_parts=8)

    def by_cust(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["o_custkey", "rev_c100"]),
                            "o_custkey").aggregate([("rev_c100", "sum")])
        return g.rename_columns(["o_custkey", "rev_c100"])

    agg = bucketed_group_sum(
        joined.map_batches(by_cust, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="o_custkey", sum_cols=["rev_c100"])
    top = topk_table(agg, 20, [("rev_c100", "descending"),
                               ("o_custkey", "ascending")])
    names = pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_name"])
    out = top.join(names, keys=["o_custkey"], right_keys=["c_custkey"])
    out = out.take(pc.sort_indices(
        out, sort_keys=[("rev_c100", "descending"),
                        ("o_custkey", "ascending")]))
    return out.select(["o_custkey", "c_name", "rev_c100"])


def embedding_scores(sf_dir: str):
    """Batched model inference over the embeddings table: a
    deterministic linear head (the batched-inference stage —
    :func:`~mdvalidate_ray.functions.similarity.linear_scores`) scores
    every vector; per-term integer rounding makes the result exact and
    SQL-auditable."""
    from mdvalidate_ray.functions.similarity import score_embeddings_linear

    emb = _read(sf_dir, "embeddings").select_columns(
        ["vec_id", "embedding"])
    return score_embeddings_linear(emb)


def customer_order_counts(sf_dir: str):
    """Per-market-segment histogram of customers' order activity,
    INCLUDING zero-order customers — LEFT OUTER aggregate semantics
    (the breadth case inner joins silently drop).  Order counts fold
    per custkey (pre-combine + bucketed sum); the customer dimension
    left-joins the folded counts with a zero fill, then a tiny second
    fold histograms by (segment, n_orders)."""
    from mdvalidate_ray.functions.relational import (broadcast_join,
                                                     bucketed_group_sum)

    orders = _read(sf_dir, "orders").select_columns(["o_custkey"])

    def pre(b: pa.Table) -> pa.Table:
        t = b.append_column("n_orders",
                            pa.array([1] * b.num_rows, pa.int64()))
        g = pa.TableGroupBy(t, "o_custkey").aggregate([("n_orders", "sum")])
        return g.rename_columns(["o_custkey", "n_orders"])

    import ray

    counts = bucketed_group_sum(
        orders.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="o_custkey", sum_cols=["n_orders"], n_parts=16).materialize()
    # counts has ≤1 row per customer — dimension-sized; broadcast it
    # against the customer dimension (left side keeps every customer,
    # missing → 0 orders)
    blocks = [ray.get(r) for r in counts.to_arrow_refs()]
    counts_tbl = pa.concat_tables(
        [t for t in blocks if t.num_columns]) \
        .rename_columns(["c_custkey", "n_orders"])
    cust = _read(sf_dir, "customer").select_columns(
        ["c_custkey", "c_mktsegment"])
    joined = broadcast_join(cust, counts_tbl, keys=["c_custkey"],
                            join_type="left outer")

    def hist(b: pa.Table) -> pa.Table:
        n = pc.coalesce(b.column("n_orders"), pa.scalar(0, pa.int64()))
        # fuse (segment, n_orders) into one key so the generic
        # single-key bucketed fold applies; n_orders restores from the
        # key after the exchange
        key = pc.binary_join_element_wise(
            b.column("c_mktsegment"), pc.cast(n, pa.string()), "|")
        t = pa.Table.from_arrays(
            [key, pa.array([1] * b.num_rows, pa.int64())],
            names=["_k", "n_customers"])
        g = pa.TableGroupBy(t, "_k").aggregate([("n_customers", "sum")])
        return g.rename_columns(["_k", "n_customers"])

    folded = bucketed_group_sum(
        joined.map_batches(hist, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="_k", sum_cols=["n_customers"], n_parts=4)

    def unfuse(b: pa.Table) -> pa.Table:
        parts = pc.split_pattern(b.column("_k"), "|")
        return pa.Table.from_arrays(
            [pc.list_element(parts, 0),
             pc.cast(pc.list_element(parts, 1), pa.int64()),
             b.column("n_customers")],
            names=["c_mktsegment", "n_orders", "n_customers"])

    return folded.map_batches(unfuse, batch_format="pyarrow")


def lev_pairs(sf_dir: str):
    """Edit-distance near-dup pairs (the fourth near-dup family next to
    MinHash / SimHash / n-gram Jaccard): prefix blocking, then exact
    Levenshtein ≤ 10 verified by ONE pair-vectorized DP per verify
    group.  The DuckDB oracle recomputes the identical blocking
    self-join and ``levenshtein()`` filter in SQL, so precision AND
    recall of the blocked pair set are both hash-checked."""
    from mdvalidate_ray.functions.dedup import levenshtein_near_duplicates

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    verified = levenshtein_near_duplicates(docs, block_words=5, max_dist=10)
    a = pc.cast(verified.column("doc_a"), pa.int64())
    b = pc.cast(verified.column("doc_b"), pa.int64())
    return pa.Table.from_arrays(
        [pc.min_element_wise(a, b), pc.max_element_wise(a, b),
         verified.column("dist")],
        names=["doc_a", "doc_b", "dist"])


def ngram_contamination(sf_dir: str):
    """N-gram-level train/test decontamination (GPT-3/C4-style overlap
    scrubbing): every train doc sharing at least one word-3-gram with
    any test doc, with its contaminated-distinct-gram count.  Broadcast
    tier: the test split's sorted gram-hash set ships once via
    ``ray.put``; train text never leaves the workers."""
    from mdvalidate_ray.functions.dedup import ngram_decontamination

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    out = ngram_decontamination(docs, k=3, train_bp=9000, salt="split")
    return out


def user_churn(sf_dir: str):
    """Set-operation analytics (INTERSECT / EXCEPT over user activity):
    distinct users active on even epoch-days vs odd epoch-days —
    retained (both eras), churned (even only), new (odd only).  Per-batch
    (user, era) dedup collapses the stream; only distinct pairs take the
    user-bucket exchange; per-bucket boolean folds add
    exactly, so one tiny (3-int) partial per bucket reaches the driver —
    no count-distinct shuffle, skew-proof by construction."""
    import ray

    n_parts = 16
    events = _read(sf_dir, "events").select_columns(["user_id", "ts"])

    def pairs(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.divide(pc.cast(b.column("ts"), pa.int64()),
                                 86_400_000_000), pa.int64())
        era = pc.bit_wise_and(days, 1)
        t = pa.Table.from_arrays(
            [b.column("user_id").cast(pa.int64()), era.cast(pa.int8())],
            names=["user_id", "era"])
        return t.group_by(["user_id", "era"]).aggregate([])

    def fold(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        flags = df.groupby("user_id")["era"].agg(
            has0=lambda s: (s == 0).any(), has1=lambda s: (s == 1).any())
        both = int((flags["has0"] & flags["has1"]).sum())
        even_only = int((flags["has0"] & ~flags["has1"]).sum())
        odd_only = int((~flags["has0"] & flags["has1"]).sum())
        return pa.Table.from_arrays(
            [pa.array([even_only], pa.int64()),
             pa.array([odd_only], pa.int64()),
             pa.array([both], pa.int64())],
            names=["users_even_only", "users_odd_only", "users_both"])

    parts = by_bucket(events.map_batches(pairs, batch_format="pyarrow",
                                         zero_copy_batch=True),
                      "user_id", fold, n_parts).materialize()
    tbls = [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows]
    tot = pa.concat_tables(tbls)
    return pa.Table.from_arrays(
        [pa.array([sum(tot.column(c).to_pylist())], pa.int64())
         for c in tot.column_names],
        names=tot.column_names)


def orders_cube(sf_dir: str):
    """Full CUBE margins over (year, priority) — ROLLUP's sibling
    (``GROUP BY CUBE``): fine cells + per-year subtotals + per-priority
    subtotals + grand total.  Same scale shape as :func:`orders_rollup`:
    ONE pre-combined exchange builds the bounded fine grid
    (:func:`_orders_fine_cells`); every margin derives from it on the
    driver, never from row data."""
    fine = _orders_fine_cells(sf_dir)
    cells = fine.column("cell").to_pylist()
    cnts = fine.column("cnt").to_pylist()
    sums = fine.column("sum_c100").to_pylist()

    years, pris, out_cnt, out_sum = [], [], [], []
    by_year: dict[int, list[int]] = {}
    by_pri: dict[str, list[int]] = {}
    for cell, c, s in zip(cells, cnts, sums):
        y_s, pri = cell.split("|", 1)
        y = int(y_s)
        years.append(y)
        pris.append(pri)
        out_cnt.append(c)
        out_sum.append(s)
        ty = by_year.setdefault(y, [0, 0])
        ty[0] += c
        ty[1] += s
        tp = by_pri.setdefault(pri, [0, 0])
        tp[0] += c
        tp[1] += s
    for y, (c, s) in by_year.items():
        years.append(y)
        pris.append(None)
        out_cnt.append(c)
        out_sum.append(s)
    for pri, (c, s) in by_pri.items():
        years.append(None)
        pris.append(pri)
        out_cnt.append(c)
        out_sum.append(s)
    years.append(None)
    pris.append(None)
    out_cnt.append(sum(cnts))
    out_sum.append(sum(sums))
    return pa.Table.from_arrays(
        [pa.array(years, pa.int64()), pa.array(pris, pa.string()),
         pa.array(out_cnt, pa.int64()), pa.array(out_sum, pa.int64())],
        names=["o_year", "o_orderpriority", "cnt", "sum_c100"])


def heavy_hitter_words(sf_dir: str):
    """Exact top-20 words via the Misra–Gries sketch-then-verify plan
    (:func:`~mdvalidate_ray.functions.relational.heavy_hitters_exact`):
    per-batch bounded-memory summaries (≤ capacity rows per batch into
    the fold REGARDLESS of batch vocabulary — the 10^9-vocab-safe
    alternative to :func:`top_words`' full pre-combine), then an exact
    recount of the ≤ capacity candidates.  The word stream is consumed
    twice (sketch + recount) — deliberately re-executing the cheap
    streaming tokenize lineage instead of materializing a corpus-sized
    token table."""
    from mdvalidate_ray.functions.relational import heavy_hitters_exact

    docs = _read(sf_dir, "documents").select_columns(["text"])

    def words(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = tokens.combine_chunks() if isinstance(
            tokens, pa.ChunkedArray) else tokens
        w = flat.flatten()
        w = w.filter(pc.not_equal(w, ""))
        return pa.Table.from_arrays([w], names=["word"])

    stream = docs.map_batches(words, batch_format="pyarrow",
                              zero_copy_batch=True)
    top = heavy_hitters_exact(stream, column="word", k=20, capacity=256)
    return top


def qty_winsorized(sf_dir: str):
    """Per-group winsorization (outlier clipping at exact p05/p95 —
    the robust-statistics preprocessing step): grouped exact quantiles
    (one bounded exchange) broadcast as clip bounds into a streaming
    pre-combined pass; clipped cents are rounded per element BEFORE the
    int64 sum, so both engines add identical integers."""
    import numpy as np

    import ray
    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.window import group_quantiles

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_quantity"])
    qtbl = group_quantiles(li, group_key="l_returnflag",
                           value_col="l_quantity", qs=[0.05, 0.95])
    bounds: dict[str, list[float]] = {}
    for r in qtbl.take_all():
        b = bounds.setdefault(r["l_returnflag"], [0.0, 0.0])
        b[0 if r["q"] == 0.05 else 1] = r["q_value"]
    bounds_ref = ray.put(bounds)

    def part(b: pa.Table) -> pa.Table:
        bd = ray.get(bounds_ref)
        flags = pc.cast(b.column("l_returnflag"), pa.string())
        flags = flags.combine_chunks() if isinstance(
            flags, pa.ChunkedArray) else flags
        enc = flags.dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        cats = enc.dictionary.to_pylist()
        lo = np.array([bd[c][0] for c in cats])[codes]
        hi = np.array([bd[c][1] for c in cats])[codes]
        qty = np.asarray(b.column("l_quantity").cast(pa.float64())
                         .combine_chunks() if isinstance(
                             b.column("l_quantity"), pa.ChunkedArray)
                         else b.column("l_quantity").cast(pa.float64()),
                         dtype=np.float64)
        clipped = np.minimum(np.maximum(qty, lo), hi)
        # DuckDB round(): half away from zero; quantities are positive
        c100 = np.floor(clipped * 100.0 + 0.5).astype(np.int64)
        n = len(cats)
        cnt = np.bincount(codes, minlength=n).astype(np.int64)
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, codes, c100)
        return pa.Table.from_arrays(
            [enc.dictionary, pa.array(cnt), pa.array(sums)],
            names=["l_returnflag", "n", "sum_c100"])

    partials = li.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
    folded = bucketed_group_sum(partials, key="l_returnflag",
                                sum_cols=["n", "sum_c100"], n_parts=4)
    return folded


def qty_disc_moments(sf_dir: str):
    """Grouped second-moment partials — the exact-integer building
    blocks of AVG / STDDEV / COVAR / CORR per group (cents- and
    basis-point-scaled so every sum folds in int64 with no float
    ordering): n, Σq, Σd, Σq², Σd², Σqd per return flag.  One
    pre-combined pass + one bounded exchange; a caller derives corr =
    (nΣqd − ΣqΣd) / √((nΣq²−(Σq)²)(nΣd²−(Σd)²)) driver-side."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_quantity", "l_discount"])

    def part(b: pa.Table) -> pa.Table:
        flags = pc.cast(b.column("l_returnflag"), pa.string())
        flags = flags.combine_chunks() if isinstance(
            flags, pa.ChunkedArray) else flags
        enc = flags.dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        q = np.asarray(b.column("l_quantity").cast(pa.float64())
                       .combine_chunks(), dtype=np.float64)
        d = np.asarray(b.column("l_discount").cast(pa.float64())
                       .combine_chunks(), dtype=np.float64)
        q100 = np.floor(q * 100.0 + 0.5).astype(np.int64)
        d10k = np.floor(d * 10000.0 + 0.5).astype(np.int64)
        n = len(enc.dictionary)
        out = {"n": np.bincount(codes, minlength=n).astype(np.int64)}
        for name, vals in (("sum_q", q100), ("sum_d", d10k),
                           ("sum_qq", q100 * q100),
                           ("sum_dd", d10k * d10k),
                           ("sum_qd", q100 * d10k)):
            acc = np.zeros(n, dtype=np.int64)
            np.add.at(acc, codes, vals)
            out[name] = acc
        return pa.Table.from_arrays(
            [enc.dictionary] + [pa.array(v) for v in out.values()],
            names=["l_returnflag"] + list(out.keys()))

    partials = li.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed_group_sum(
        partials, key="l_returnflag",
        sum_cols=["n", "sum_q", "sum_d", "sum_qq", "sum_dd", "sum_qd"],
        n_parts=4)


def part_supplier_pagerank(sf_dir: str):
    """Link-graph authority scoring: PageRank by distributed power
    iteration (:mod:`mdvalidate_ray.functions.graph`) over the bipartite
    part↔supplier graph from lineitem (node ids disambiguated
    part→2k / supplier→2k+1; edge multiplicity = shipment count acts as
    a natural weight).  Rows-only (iterative float folds have no SQL
    hash analog — like k-means); pinned by a dense-numpy differential
    test.  Returns the top-20 nodes by rank (micro-rank ints for a
    stable report)."""
    import numpy as np

    from mdvalidate_ray.functions.graph import pagerank

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_suppkey"])

    def to_edges(b: pa.Table) -> pa.Table:
        p = pc.add(pc.multiply(b.column("l_partkey").cast(pa.int64()), 2), 0)
        s = pc.add(pc.multiply(b.column("l_suppkey").cast(pa.int64()), 2), 1)
        return pa.Table.from_arrays(
            [p.combine_chunks(), s.combine_chunks()], names=["src", "dst"])

    ranks = pagerank(li.map_batches(to_edges, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     damping=0.85, n_iter=10, symmetric=True)
    r = np.asarray(ranks.column("rank"), dtype=np.float64)
    nodes = np.asarray(ranks.column("node"), dtype=np.int64)
    order = np.lexsort((nodes, -r))[:20]
    return pa.Table.from_arrays(
        [pa.array(nodes[order]),
         pa.array(np.floor(r[order] * 1e12 + 0.5).astype(np.int64))],
        names=["node", "rank_e12"])


def boilerplate_grams(sf_dir: str):
    """Corpus-level repeated-n-gram mining — the boilerplate-detection
    pass of a C4-style cleaning pipeline (find phrases recurring across
    many documents, then scrub them).  Same exact-df plan as
    :func:`doc_frequency` lifted from words to word-4-grams: one
    whitespace split per batch (Arrow), gram assembly on the flattened
    word array (object-array joins), in-batch per-doc dedup so a hot
    gram contributes ONE row per batch to the exchange, bucketed fold,
    then the ``df ≥ 3`` filter (threshold, not top-k: no tie
    ambiguity).  Returns (gram, df) for every cross-doc repeated gram."""
    import numpy as np
    import pandas as pd

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    k = 4
    docs = _read(sf_dir, "documents").select_columns(["text"])
    empty = pa.Table.from_arrays(
        [pa.array([], pa.string()), pa.array([], pa.int64())],
        names=["gram", "df"])

    def gram_partial(b: pa.Table) -> pa.Table:
        arr = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(
            pc.utf8_lower(pc.cast(b.column("text"), pa.string()))))
        arr = arr.combine_chunks() if isinstance(
            arr, pa.ChunkedArray) else arr
        flat = np.asarray(arr.values.to_pylist(), dtype=object)
        offs = np.asarray(arr.offsets)
        n_grams = np.maximum(np.diff(offs) - (k - 1), 0)
        if int(n_grams.sum()) == 0:
            return empty
        doc_idx = np.repeat(np.arange(len(n_grams), dtype=np.int64),
                            n_grams)
        starts = np.concatenate(
            [np.arange(offs[i], offs[i] + n_grams[i])
             for i in range(len(n_grams)) if n_grams[i] > 0]
        ).astype(np.int64)
        grams = flat[starts]
        for j in range(1, k):
            grams = grams + " "
            grams = grams + flat[starts + j]
        dedup = pd.DataFrame({"d": doc_idx, "g": grams}).drop_duplicates()
        vc = dedup["g"].value_counts()
        return pa.Table.from_arrays(
            [pa.array(vc.index.to_numpy(dtype=object), pa.string()),
             pa.array(vc.to_numpy(dtype=np.int64))],
            names=["gram", "df"])

    partials = docs.map_batches(gram_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    agg = bucketed_group_sum(partials, key="gram", sum_cols=["df"],
                             n_parts=16)
    return agg.filter(expr="df >= 3")


def compressibility(sf_dir: str):
    """Per-source compressibility profile: zlib ratio quality signal
    (:func:`~mdvalidate_ray.functions.text.add_compressibility`) folded
    to per-source means — rows-only (zlib output is build-specific, no
    SQL analog; the per-doc signal is pinned by a direct-zlib
    differential test)."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.text import add_compressibility

    docs = _read(sf_dir, "documents").select_columns(["source", "text"])

    def part(b: pa.Table) -> pa.Table:
        b = add_compressibility(b)
        src = pc.cast(b.column("source"), pa.string())
        src = src.combine_chunks() if isinstance(
            src, pa.ChunkedArray) else src
        enc = src.dictionary_encode()
        codes = np.asarray(enc.indices).astype(np.int64)
        n = len(enc.dictionary)
        out = [np.bincount(codes, minlength=n).astype(np.int64)]
        for c in ("raw_len", "comp_len", "ratio_bp"):
            acc = np.zeros(n, dtype=np.int64)
            np.add.at(acc, codes, np.asarray(b.column(c)))
            out.append(acc)
        return pa.Table.from_arrays(
            [enc.dictionary] + [pa.array(v) for v in out],
            names=["source", "n", "sum_raw", "sum_comp", "sum_ratio_bp"])

    return bucketed_group_sum(
        docs.map_batches(part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="source", sum_cols=["n", "sum_raw", "sum_comp",
                                "sum_ratio_bp"], n_parts=4)


def curation_funnel(sf_dir: str):
    """End-to-end training-data curation funnel, ONE corpus pass.

    The composed pipeline every LLM corpus goes through (the individual
    stages each have their own green oracle — this query pins their
    COMPOSITION): language-ID keep-en -> token-count quality gate ->
    exact dedup (min-id representative) -> train-split +
    decontamination against the whole-corpus test split.  Output: one
    row per stage with surviving doc count and the surviving whitespace
    token budget, all exact integers.

    Scale shape: the corpus streams through a single ``map_batches``
    that emits a UNION-shaped compact table (the fused-suite trick,
    pipelines/fused.py): per-batch stage-count partials for stages
    0-2, the stage-2 survivor rows (doc_id, fp, n_tokens, is_train —
    no text), and the whole-corpus test-split fingerprints.  Only that
    narrow table is materialized (two downstream consumers); raw text
    never leaves the pass, nothing corpus-wide shuffles.  The dedup
    drop set (duplicate groups only) and the test-fp set broadcast via
    ``ray.put``; for a corpus whose test split outgrows worker memory,
    swap the exact fp set for the Bloom tier in stages/referential
    (same contract, probabilistic with exact verify).
    """
    import hashlib

    import numpy as np
    import ray

    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.text import add_token_counts, language_id

    out_schema = pa.schema([
        ("kind", pa.string()), ("stage_idx", pa.int64()),
        ("docs", pa.int64()), ("sum_tokens", pa.int64()),
        ("doc_id", pa.int64()), ("fp", pa.string()),
        ("n_tokens", pa.int64()), ("is_train", pa.bool_())])

    def funnel_pass(b: pa.Table) -> pa.Table:
        b = language_id(b)
        b = add_token_counts(b)
        ids = np.asarray(b.column("doc_id").to_pandas(),
                         dtype=np.int64)
        fps = [hashlib.md5((t or "").encode()).hexdigest()
               for t in b.column("text").to_pylist()]
        split = _md5_token_hashes(
            ["split" + str(i) for i in ids]) % np.uint64(10000)
        is_train = split < np.uint64(9000)
        ntok = np.asarray(b.column("n_tokens").to_pandas(),
                          dtype=np.int64)
        m1 = np.asarray(pc.equal(b.column("pred_lang"), "en"))
        m2 = m1 & (ntok >= 20) & (ntok <= 40)
        n = len(ids)
        parts = {
            "kind": ["partial"] * 3,
            "stage_idx": [0, 1, 2],
            "docs": [n, int(m1.sum()), int(m2.sum())],
            "sum_tokens": [int(ntok.sum()), int(ntok[m1].sum()),
                           int(ntok[m2].sum())],
        }
        part_tbl = pa.Table.from_pydict(parts).cast(
            pa.schema([(f.name, f.type) for f in out_schema
                       if f.name in parts]))
        surv = pa.Table.from_pydict({
            "kind": pa.array(["doc"] * int(m2.sum())),
            "doc_id": pa.array(ids[m2]),
            "fp": pa.array([f for f, k in zip(fps, m2) if k]),
            "n_tokens": pa.array(ntok[m2]),
            "is_train": pa.array(is_train[m2]),
        })
        test_fp = pa.Table.from_pydict({
            "kind": pa.array(["test_fp"] * int((~is_train).sum())),
            "fp": pa.array([f for f, k in zip(fps, ~is_train) if k]),
        })

        def pad(t: pa.Table) -> pa.Table:
            cols = []
            for f in out_schema:
                if f.name in t.column_names:
                    cols.append(t.column(f.name).cast(f.type))
                else:
                    cols.append(pa.nulls(t.num_rows, f.type))
            return pa.Table.from_arrays(cols, schema=out_schema)

        return pa.concat_tables([pad(part_tbl), pad(surv),
                                 pad(test_fp)])

    compact = _augmented_docs(sf_dir).map_batches(
        funnel_pass, batch_format="pyarrow",
        zero_copy_batch=True).materialize()

    # stage 0-2 counts: fold the tiny partial rows on the driver
    partials = compact.filter(expr="kind == 'partial'").select_columns(
        ["stage_idx", "docs", "sum_tokens"]).take_all()
    docs_by, toks_by = {}, {}
    for r in partials:
        docs_by[r["stage_idx"]] = docs_by.get(r["stage_idx"], 0) + r["docs"]
        toks_by[r["stage_idx"]] = (toks_by.get(r["stage_idx"], 0)
                                   + r["sum_tokens"])

    survivors = compact.filter(expr="kind == 'doc'")

    # stage 3: exact dedup among survivors — duplicate groups only
    # shuffle as (fp, id) pairs on the fp bucket; drop set broadcasts.

    def drop_non_min(g: pa.Table) -> pa.Table:
        counts = pa.TableGroupBy(g.select(["fp"]), "fp").aggregate(
            [([], "count_all")])
        dup_fps = counts.filter(
            pc.greater(counts.column("count_all"), 1)).column("fp")
        if len(dup_fps) == 0:
            return pa.Table.from_pydict({"doc_id": pa.array([],
                                                            pa.int64())})
        sus = g.filter(pc.is_in(g.column("fp"), value_set=dup_fps))
        mins = pa.TableGroupBy(sus.select(["fp", "doc_id"]),
                               "fp").aggregate([("doc_id", "min")])
        keep_ids = pc.is_in(sus.column("doc_id"),
                            value_set=mins.column("doc_id_min"))
        return pa.Table.from_arrays(
            [sus.filter(pc.invert(keep_ids)).column("doc_id")],
            names=["doc_id"])

    drop_rows = by_bucket(survivors.select_columns(["fp", "doc_id"]),
                          "fp", drop_non_min, 64).take_all()
    drop = np.asarray(sorted(int(r["doc_id"]) for r in drop_rows),
                      dtype=np.int64)
    drop_ref = ray.put(drop)

    test_fps = sorted({r["fp"] for r in compact.filter(
        expr="kind == 'test_fp'").select_columns(["fp"]).take_all()})
    test_ref = ray.put(np.asarray(test_fps, dtype=object))

    def stage34_partials(b: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        ids = np.asarray(b.column("doc_id").to_pandas(), dtype=np.int64)
        if len(d):
            pos = np.searchsorted(d, ids)
            dup = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids)
        else:
            dup = np.zeros(len(ids), dtype=bool)
        m3 = ~dup
        tf = ray.get(test_ref)
        fps = np.asarray(b.column("fp").to_pylist(), dtype=object)
        if len(tf):
            pos = np.searchsorted(tf, fps)
            contaminated = ((pos < len(tf))
                            & (tf[np.minimum(pos, len(tf) - 1)] == fps))
        else:
            contaminated = np.zeros(len(fps), dtype=bool)
        m4 = m3 & np.asarray(b.column("is_train")) & ~contaminated
        ntok = np.asarray(b.column("n_tokens").to_pandas(),
                          dtype=np.int64)
        return pa.Table.from_pydict({
            "stage_idx": pa.array([3, 4], pa.int64()),
            "docs": pa.array([int(m3.sum()), int(m4.sum())], pa.int64()),
            "sum_tokens": pa.array([int(ntok[m3].sum()),
                                    int(ntok[m4].sum())], pa.int64())})

    for r in survivors.map_batches(stage34_partials,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True).take_all():
        docs_by[r["stage_idx"]] = docs_by.get(r["stage_idx"], 0) + r["docs"]
        toks_by[r["stage_idx"]] = (toks_by.get(r["stage_idx"], 0)
                                   + r["sum_tokens"])

    names = ["input", "langid_en", "quality_20_40", "exact_dedup",
             "train_decontam"]
    return pa.Table.from_pydict({
        "stage_idx": pa.array(range(5), pa.int64()),
        "stage": pa.array(names, pa.string()),
        "docs": pa.array([docs_by.get(i, 0) for i in range(5)],
                         pa.int64()),
        "sum_tokens": pa.array([toks_by.get(i, 0) for i in range(5)],
                               pa.int64())})


def rarity_scores(sf_dir: str):
    """Per-document corpus-rarity score — the CCNet-style "how surprising
    is this doc under the corpus unigram distribution" quality signal,
    in integer-exact form so the oracle compare is float-free:
    ``rarity = Σ_words n_total // count(word)`` (inverse-frequency
    weight; rare words contribute big summands).

    Scale shape: pass 1 folds exact corpus term counts (per-batch
    bincount combiner → word-keyed sum — vocab ≪ corpus); the (word,
    cnt) Arrow table broadcasts once via ``ray.put`` and pass 2 streams
    the corpus, probing with the vectorized ``pc.index_in`` hash lookup
    and folding per-doc sums with ``np.add.at`` — no exchange at all in
    pass 2 (each doc lives in one row)."""
    import numpy as np
    import ray

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def _words(b: pa.Table):
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        parents = pc.list_parent_indices(flat)
        keep = pc.not_equal(words, "")
        return words.filter(keep), parents.filter(keep)

    def cnt_partial(b: pa.Table) -> pa.Table:
        words, _ = _words(b)
        if len(words) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["word", "cnt"])
        enc = (words.combine_chunks()
               if isinstance(words, pa.ChunkedArray)
               else words).dictionary_encode()
        counts = np.bincount(np.asarray(enc.indices),
                             minlength=len(enc.dictionary))
        return pa.Table.from_arrays(
            [enc.dictionary, pa.array(counts.astype(np.int64))],
            names=["word", "cnt"])

    agg = (docs.map_batches(cnt_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("word").sum("cnt"))
    parts = [p for p in ray.get(agg.materialize().to_arrow_refs())
             if p.num_rows]
    cnt_tbl = pa.concat_tables(
        [p.select(["word", "sum(cnt)"]) for p in parts]).rename_columns(
        ["word", "cnt"]).combine_chunks()
    n_total = int(pc.sum(cnt_tbl.column("cnt")).as_py() or 0)
    cnt_ref = ray.put((cnt_tbl, n_total))

    def score(b: pa.Table) -> pa.Table:
        tbl, n_tot = ray.get(cnt_ref)
        words, parents = _words(b)
        if len(words) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["doc_id", "rarity"])
        idx = pc.index_in(words, value_set=tbl.column("word"))
        c = np.asarray(tbl.column("cnt").take(idx).to_pandas(),
                       dtype=np.int64)
        w = n_tot // c                       # exact integer weights
        sums = np.zeros(b.num_rows, dtype=np.int64)
        par = np.asarray(parents).astype(np.int64)
        np.add.at(sums, par, w)
        has_words = np.zeros(b.num_rows, dtype=bool)
        has_words[par] = True                # docs with no words: no row
        ids = np.asarray(b.column("doc_id").to_pandas(), dtype=np.int64)
        return pa.Table.from_arrays(
            [pa.array(ids[has_words]), pa.array(sums[has_words])],
            names=["doc_id", "rarity"])

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


def user_order_balance(sf_dir: str):
    """FULL OUTER join of two pre-aggregated sides — event counts per
    user vs order counts per customer, keeping keys present on EITHER
    side (the reconciliation shape: which users browse but never buy,
    which customers buy without events).

    Scale shape: each side pre-combines to (key, cnt) partials inside
    ``map_batches`` (raw rows never shuffle), the two partial streams
    meet in one :func:`~mdvalidate_ray.exchange.co_partition` on the
    key, and the full-outer merge runs vectorized per bucket (union of
    keys via concat + ``np.unique`` — group calls bounded by n_parts,
    not by distinct keys)."""
    import numpy as np

    part_schema = pa.schema([("user_id", pa.int64()), ("cnt", pa.int64())])

    def partials(table: str, key_col: str):
        def part(b: pa.Table) -> pa.Table:
            keys = np.asarray(b.column(key_col).to_pandas(),
                              dtype=np.int64)
            uk, counts = np.unique(keys, return_counts=True)
            return pa.Table.from_arrays(
                [pa.array(uk), pa.array(counts.astype(np.int64))],
                schema=part_schema)
        return _read(sf_dir, table).select_columns([key_col]).map_batches(
            part, batch_format="pyarrow", zero_copy_batch=True)

    def merge(ev: pa.Table, od: pa.Table) -> pa.Table:
        k_ev, k_od = (np.asarray(t.column("user_id"), dtype=np.int64)
                      for t in (ev, od))
        uk = np.unique(np.concatenate([k_ev, k_od]))
        counts = []
        for t, k in ((ev, k_ev), (od, k_od)):
            n = np.zeros(len(uk), dtype=np.int64)
            if len(k):
                np.add.at(n, np.searchsorted(uk, k),
                          np.asarray(t.column("cnt"), dtype=np.int64))
            counts.append(n)
        return pa.Table.from_arrays(
            [pa.array(uk), pa.array(counts[0]), pa.array(counts[1])],
            names=["user_id", "n_events", "n_orders"])

    return co_partition(partials("events", "user_id"),
                        partials("orders", "o_custkey"), merge, 64,
                        on="user_id", left_schema=part_schema)


def frame_dups(sf_dir: str):
    """Multimodal frame-level dedup over REAL media bytes: synthesize
    animated GIFs with deterministically PLANTED shared frames (every
    3rd asset's first frame comes from a 5-frame common pool — intro
    cards / watermark frames), demux them with the real LZW codec,
    fingerprint the DECODED pixels and report frames appearing in >1
    distinct asset (functions/media.py::duplicate_frames).  Rows-only:
    the pixel fingerprints pass through two real codecs (GIF → PNG),
    which has no SQL analog; the planted-pool composition is pinned by
    test_duplicate_frames_* instead."""
    import numpy as np
    import ray.data

    from mdvalidate_ray.functions.media import (duplicate_frames,
                                                gif_encode,
                                                sample_frames)

    n_assets = min(60, _docs_count(sf_dir))
    pool_rng = np.random.default_rng(4242)
    common = [pool_rng.integers(0, 256, (12, 12), dtype=np.uint8)
              for _ in range(5)]
    ids, payloads = [], []
    for i in range(n_assets):
        rng = np.random.default_rng((4242, i))
        frames = rng.integers(0, 256, (int(rng.integers(3, 7)), 12, 12),
                              dtype=np.uint8)
        if i % 3 == 0:                         # plant a shared intro frame
            frames[0] = common[i % 5]
        ids.append(f"vid{i:04d}")
        payloads.append(gif_encode(frames))
    media = pa.Table.from_arrays(
        [pa.array(ids, pa.string()),
         pa.array(["image/gif"] * n_assets, pa.string()),
         pa.array(payloads, pa.binary())],
        names=["asset_id", "mime", "payload"])
    frames_ds = sample_frames(ray.data.from_arrow(media), stride=1)
    return duplicate_frames(frames_ds)


def image_phash_dups(sf_dir: str):
    """Perceptual-hash IMAGE near-dup — the multimodal analog of
    simhash text near-dup and the near-dup sibling of
    :func:`frame_dups`' exact pixel dedup: synthesize a deterministic
    image corpus with PLANTED near-copies (every 4th asset re-encodes
    its predecessor's pixels in a DIFFERENT real codec with a small
    perturbed patch — the re-encoded-thumbnail duplication mode of
    scraped image corpora), fingerprint through the real decoders with
    the 64-bit dHash (functions/media.py::dhash_batch), and pair by
    pigeonhole banding + exact vectorized hamming verify
    (phash_near_duplicates).  Rows-only: the pixels pass through real
    codecs (PNG/QOI/JPEG), which has no SQL analog; the planted-pair
    composition, the dHash bit contract, and the cross-codec
    hamming-0 identity are pinned by test_dhash_* instead."""
    import numpy as np
    import ray.data

    from mdvalidate_ray.functions.media import (dhash_media, jpeg_encode,
                                                phash_near_duplicates,
                                                png_encode, qoi_encode)

    n_assets = min(80, max(_docs_count(sf_dir), 8))
    ids, payloads = [], []
    prev = None
    for i in range(n_assets):
        rng = np.random.default_rng((9191, i))
        if i % 4 == 1 and prev is not None:
            img = prev.copy()                 # near-copy: small patch
            img[2:4, 3:5] = 255 - img[2:4, 3:5]
            payloads.append(qoi_encode(img))  # different codec
        elif i % 4 == 3:
            # blocky low-frequency random (DCT-friendly, and — unlike a
            # monotone gradient, whose dHash is the SAME for every
            # asset — distinct per asset)
            coarse = rng.integers(0, 256, (4, 4, 3))
            base = np.kron(coarse, np.ones((6, 6, 1), dtype=np.int64))
            payloads.append(jpeg_encode(base.astype(np.uint8)))
        else:
            img = rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)
            payloads.append(png_encode(img))
            prev = img
        ids.append(f"img{i:04d}")
    media = pa.Table.from_arrays(
        [pa.array(ids, pa.string()),
         pa.array(["image/*"] * n_assets, pa.string()),
         pa.array(payloads, pa.binary())],
        names=["asset_id", "mime", "payload"])
    hashes = dhash_media(ray.data.from_arrow(media))
    # radius 10 is the SMALL-corpus setting (5-bit bands); web-scale
    # uses the function's default radius-3 / 16-bit-band contract and
    # chains stages — see phash_near_duplicates' scale note
    return phash_near_duplicates(hashes, max_hamming=10)


def audio_fp_dups(sf_dir: str):
    """Audio NEAR-dup — the third leg of the multimodal dedup triple
    (text simhash / image dHash / audio spectral shingles): synthesize
    deterministic tone-sequence WAVs with PLANTED near-copies (every
    3rd asset is its predecessor at 0.4× volume with low-level noise —
    the re-encoded/re-levelled duplication mode of scraped audio),
    fingerprint through the real RIFF/PCM16 decoder
    (functions/media.py::audio_fp_batch — dominant-spectral-band shingle
    hashes, amplitude-invariant by construction), and pair via the
    inverted-index shared-shingle join (audio_near_duplicates).
    Rows-only: FFT band energies have no SQL analog; the planted-pair
    composition and the volume-invariance contract are pinned by
    test_audio_fp_* instead."""
    import numpy as np
    import ray.data

    from mdvalidate_ray.functions.media import (audio_fp_media,
                                                audio_near_duplicates,
                                                wav_encode)

    def tone_seq(rng: np.random.Generator, n_chunks: int = 40,
                 chunk: int = 256) -> np.ndarray:
        # SHORT chunks: the dominant band changes every ~2 frames, so
        # the shingle sequence is high-entropy and independent clips
        # share ~0 shingles (long steady tones made every clip share
        # constant-run boilerplate shingles)
        t = np.arange(chunk)
        parts = []
        for _ in range(n_chunks):
            f = float(rng.uniform(0.02, 0.45))     # cycles/sample
            parts.append(np.sin(2 * np.pi * f * t) * 12000)
        return np.concatenate(parts)

    n_assets = min(60, max(_docs_count(sf_dir), 9))
    ids, payloads = [], []
    prev = None
    for i in range(n_assets):
        rng = np.random.default_rng((7373, i))
        if i % 3 == 1 and prev is not None:
            x = prev * 0.4 + rng.normal(0, 60, len(prev))
        else:
            x = tone_seq(rng)
            prev = x
        ids.append(f"aud{i:04d}")
        payloads.append(wav_encode(
            np.clip(x, -32768, 32767).astype(np.int16)))
    media = pa.Table.from_arrays(
        [pa.array(ids, pa.string()),
         pa.array(["audio/wav"] * n_assets, pa.string()),
         pa.array(payloads, pa.binary())],
        names=["asset_id", "mime", "payload"])
    fps = audio_fp_media(ray.data.from_arrow(media))
    return audio_near_duplicates(fps, min_shared=10)


def label_centroid_dots(sf_dir: str):
    """Exact-integer cross-group embedding similarity: int8-quantize
    every vector (same rule as :func:`embedding_int8` — proven
    SQL-bit-identical), sum the quantized vectors per ``label`` (the
    un-normalized group centroid), then every pairwise integer dot
    product between label sum-vectors — the "how close are these two
    sources/clusters" diagnostic, with NO floats anywhere past
    quantization so the oracle compare is exact.

    Scale shape: one streaming pass emits per-batch (label, idx, s)
    partial sums (k·d tiny rows per batch — labels ≪ corpus); the
    driver folds k·d integers and does the k²·d dot work locally."""
    import numpy as np

    emb = _read(sf_dir, "embeddings").select_columns(
        ["vec_id", "label", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        out_schema = pa.schema([("label", pa.int64()), ("idx", pa.int64()),
                                ("s", pa.int64())])
        n = b.num_rows
        if n == 0:
            return out_schema.empty_table()
        col = b.column("embedding").combine_chunks()
        vals = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        lens = np.diff(offs)
        ma = np.zeros(n, dtype=np.float64)
        nonempty = lens > 0
        if nonempty.any():
            ma[nonempty] = np.maximum.reduceat(np.abs(vals),
                                               offs[:-1][nonempty])
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (vals * 127.0) / np.repeat(ma, lens)
        y[~np.isfinite(y)] = 0.0
        q = np.where(y >= 0, np.floor(y + 0.5),
                     np.ceil(y - 0.5)).astype(np.int64)
        total = int(lens.sum())
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(offs[:-1], lens) + 1)
        labels = np.repeat(
            np.asarray(b.column("label").to_pandas(), dtype=np.int64),
            lens)
        d = int(idx.max()) if total else 0
        uls, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uls), d), dtype=np.int64)
        np.add.at(sums, (codes, idx - 1), q)
        return pa.Table.from_arrays(
            [pa.array(np.repeat(uls, d)),
             pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                              len(uls))),
             pa.array(sums.reshape(-1))],
            schema=out_schema)

    acc: dict = {}
    for r in emb.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all():
        k = (r["label"], r["idx"])
        acc[k] = acc.get(k, 0) + r["s"]
    labels = sorted({l for l, _ in acc})
    d = max((i for _, i in acc), default=0)
    mat = np.zeros((len(labels), d), dtype=np.int64)
    for (l, i), s in acc.items():
        mat[labels.index(l), i - 1] = s
    la, lb, dots = [], [], []
    for a in range(len(labels)):
        for b_ in range(a + 1, len(labels)):
            la.append(labels[a])
            lb.append(labels[b_])
            dots.append(int(mat[a] @ mat[b_]))
    return pa.Table.from_pydict({
        "label_a": pa.array(la, pa.int64()),
        "label_b": pa.array(lb, pa.int64()),
        "dot": pa.array(dots, pa.int64())})


def overlapping_windows(sf_dir: str):
    """Interval × interval overlap join: 1-hour activity windows (every
    50th event) against 2-hour promo windows (every 70th event) — every
    overlapping pair with its exact overlap duration in microseconds
    (functions/relational.py::interval_overlap_join: bucket replication
    + count-once-at-owner-bucket)."""
    from mdvalidate_ray.functions.relational import interval_overlap_join

    ev = _read(sf_dir, "events").select_columns(["event_id", "ts"])

    def windows(mod: int, length_us: int, key: str):
        def mk(b: pa.Table) -> pa.Table:
            ids = b.column("event_id")
            keep = pc.equal(pc.subtract(
                ids, pc.multiply(pc.divide(ids, mod), mod)), 0)
            b = b.filter(keep)
            s = pc.cast(b.column("ts"), pa.int64())
            return pa.Table.from_arrays(
                [b.column("event_id"), s,
                 pc.add(s, length_us)],
                names=[key, "start_us", "end_us"])
        return ev.map_batches(mk, batch_format="pyarrow",
                              zero_copy_batch=True)

    return interval_overlap_join(
        windows(50, 3_600_000_000, "a_id"),
        windows(70, 7_200_000_000, "b_id"),
        key_a="a_id", key_b="b_id")


def qty_mad(sf_dir: str):
    """Per-group median absolute deviation (the robust dispersion
    statistic — winsorize's sibling), exploiting the SMALL VALUE DOMAIN
    of l_quantity (50 distinct values): ONE exchange of in-block-combined
    (flag, qty) counts (≤ groups × 50 rows total), then both exact
    weighted medians — the value median AND the median of |x − median|,
    whose distribution is a pure reshuffle of the same counts — compute
    on the driver.  Replaces two full (group, value) pair shuffles; for
    wide domains use group_quantiles / t-digest instead.  Cents-scaled
    half-away rounding at the very end keeps the oracle compare
    integer-exact."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.window import weighted_quantile

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_quantity"])

    def pre(b: pa.Table) -> pa.Table:
        sel = b.append_column(
            "_c", pa.array(np.ones(b.num_rows, dtype=np.int64)))
        g = pa.TableGroupBy(sel, ["l_returnflag", "l_quantity"]).aggregate(
            [("_c", "sum")])
        g = g.rename_columns(["l_returnflag", "l_quantity", "_c"])
        return g.append_column(
            "k", pc.binary_join_element_wise(
                pc.cast(g.column("l_returnflag"), pa.string()),
                pc.cast(g.column("l_quantity"), pa.string()), "|"))

    counts = bucketed_group_sum(
        li.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(lambda b: b.select(["k", "_c"]),
                     batch_format="pyarrow"),
        key="k", sum_cols=["_c"], n_parts=4).take_all()

    per_group: dict[str, dict[float, int]] = {}
    for r in counts:
        flag, qty = r["k"].split("|")
        per_group.setdefault(flag, {})[float(qty)] = \
            per_group.get(flag, {}).get(float(qty), 0) + int(r["_c"])
    groups = sorted(per_group)
    med, mad = {}, {}
    for g in groups:
        vals = np.array(sorted(per_group[g]), dtype=np.float64)
        cnts = np.array([per_group[g][v] for v in vals], dtype=np.int64)
        med[g] = weighted_quantile(vals, cnts, [0.5])[0]
        # |x − m| re-keys the SAME counts — no second data pass
        dev: dict[float, int] = {}
        for v, c in zip(np.abs(vals - med[g]), cnts):
            dev[float(v)] = dev.get(float(v), 0) + int(c)
        dvals = np.array(sorted(dev), dtype=np.float64)
        dcnts = np.array([dev[v] for v in dvals], dtype=np.int64)
        mad[g] = weighted_quantile(dvals, dcnts, [0.5])[0]
    c100 = lambda x: int(np.floor(x * 100.0 + 0.5))  # noqa: E731
    return pa.Table.from_pydict({
        "l_returnflag": pa.array(groups, pa.string()),
        "median_c100": pa.array([c100(med[g]) for g in groups],
                                pa.int64()),
        "mad_c100": pa.array([c100(mad[g]) for g in groups], pa.int64())})


def trigram_pairs(sf_dir: str):
    """Trigram-posting candidate join (pg_trgm-style content blocking):
    doc pairs sharing ≥12 distinct character 3-grams of lower(text),
    with hot grams (posting > 64 docs) dropped as stop-grams
    (functions/dedup.py::trigram_posting_pairs) — exact integer
    shared-counts, so the SQL oracle recomputes the identical pairs."""
    from mdvalidate_ray.functions.dedup import trigram_posting_pairs

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return trigram_posting_pairs(docs, min_shared=12, max_posting=64)


def violation_report(sf_dir: str):
    """Corpus-level violation report — the reference's ariadne error
    surface (src/cmd.rs:166-176, errors.rs:543+) aggregated over the
    whole corpus: per (kind, constraint_id) violation counts, distinct
    affected docs, and the lexicographically-first example doc — the
    top-of-report a data engineer reads before drilling in.

    Exact n_docs with NO doc-batch co-residency assumption: each batch
    reduces to its distinct (kind, constraint, doc) triples with
    in-batch counts, triples co-partition on the triple hash (every
    surviving copy of one triple meets in exactly ONE bucket — the
    group_count_distinct pair-dedup pattern, skew landing on the hash,
    not on hot constraints), and per-bucket report partials (one row per
    (kind, constraint) per bucket) fold on the driver.  One streaming
    pass; rows-only (the span walk has no SQL analog); deterministic
    output order."""
    from mdvalidate_ray.stages.validate import violations_dataset

    n_parts = 16
    viols = violations_dataset(_validated_corpus(sf_dir))
    triple = ["kind", "constraint_id", "doc_id"]

    def triple_partial(b: pa.Table) -> pa.Table:
        g = b.select(triple).group_by(triple).aggregate([([], "count_all")])
        return g.rename_columns(triple + ["n"])

    def per_bucket(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        t = df.groupby(["kind", "constraint_id", "doc_id"])["n"] \
              .sum().reset_index()
        rep = t.groupby(["kind", "constraint_id"]).agg(
            n=("n", "sum"), n_docs=("doc_id", "size"),
            example_doc=("doc_id", "min")).reset_index()
        return pa.Table.from_pandas(rep, preserve_index=False)

    rows = by_bucket(viols.map_batches(triple_partial,
                                       batch_format="pyarrow",
                                       zero_copy_batch=True),
                     triple, per_bucket, n_parts) \
        .take_all()                             # ≤ n_parts × constraints
    acc: dict = {}
    for r in rows:
        k = (r["kind"], r["constraint_id"])
        if k not in acc:
            acc[k] = [0, 0, r["example_doc"]]
        acc[k][0] += r["n"]
        acc[k][1] += r["n_docs"]
        acc[k][2] = min(acc[k][2], r["example_doc"])
    keys = sorted(acc)
    return pa.Table.from_pydict({
        "kind": pa.array([k for k, _ in keys], pa.string()),
        "constraint_id": pa.array([c for _, c in keys], pa.string()),
        "n_violations": pa.array([acc[k][0] for k in keys], pa.int64()),
        "n_docs": pa.array([acc[k][1] for k in keys], pa.int64()),
        "example_doc": pa.array([acc[k][2] for k in keys], pa.string())})


def window_dups(sf_dir: str):
    """Per-document duplicated-window fraction — the exact-substring
    dedup signal (Lee et al. 2021) over word-5-gram windows: for every
    doc with ≥1 window, how many of its windows occur in ≥2 distinct
    documents.  See :func:`mdvalidate_ray.functions.dedup
    .window_dup_stats` for the tiered plan (broadcast dup-set probe vs
    co-partitioned left-outer hash join)."""
    from mdvalidate_ray.functions.dedup import window_dup_stats

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return window_dup_stats(docs, k=5, min_df=2)


def audio_features(sf_dir: str):
    """Integer-exact acoustic features (duration, peak, energy, RMS,
    zero-crossings) over REAL RIFF/WAVE PCM16 bytes decoded by the
    pure-Python WAV codec — the audio arm of the multimodal surface.
    Rows-only (binary decode has no SQL analog); pinned by a direct
    numpy differential test."""
    import ray.data

    from mdvalidate_ray.corpus import assets_table
    from mdvalidate_ray.functions.media import (extract_audio_features,
                                                synth_media_batch)

    n = _docs_count(sf_dir)
    assets = assets_table(n)
    ids = assets.column("asset_id").to_pylist()[:200]
    media = synth_media_batch(ids, ["audio/wav"] * len(ids))
    return extract_audio_features(ray.data.from_arrow(media))


def weighted_sample(sf_dir: str):
    """Length-weighted deterministic document sample (k=100, weight =
    n_chars) via integer priority sampling — see :func:`mdvalidate_ray
    .functions.text.weighted_sample_k`."""
    from mdvalidate_ray.functions.text import weighted_sample_k

    docs = _read(sf_dir, "documents").select_columns(
        ["doc_id", "n_chars"])
    return weighted_sample_k(docs, key="doc_id", weight_col="n_chars",
                             k=100)


def lang_top_words(sf_dir: str):
    """Top-3 words per language with exact counts — the GROUPED form of
    :func:`top_words` (per-group vocabulary report; the building block
    of per-domain / per-language corpus summaries).  Plan: in-batch
    (lang, word) count combiner (a hot word contributes one row per
    batch), one coarse word-bucket exchange with a
    vectorized two-column in-bucket group-sum (each (lang, word) pair
    lands in exactly one bucket, so the folded counts are exact), then
    :func:`~mdvalidate_ray.functions.window.top_n_per_group` — ties
    break (cnt DESC, word ASC) so the rank is a total order."""
    import numpy as np
    import pandas as pd

    from mdvalidate_ray.functions.window import top_n_per_group

    n_parts = 16
    docs = _read(sf_dir, "documents").select_columns(["lang", "text"])
    empty = pa.schema([("lang", pa.string()), ("word", pa.string()),
                       ("cnt", pa.int64())])

    def wc(b: pa.Table) -> pa.Table:
        arr = pc.split_pattern_regex(pc.utf8_trim(
            pc.utf8_lower(pc.cast(b.column("text"), pa.string())),
            characters=" "), r"\s+")
        arr = arr.combine_chunks() if isinstance(
            arr, pa.ChunkedArray) else arr
        words = np.asarray(arr.values.to_pylist(), dtype=object)
        langs = np.repeat(
            np.asarray(b.column("lang").to_pylist(), dtype=object),
            np.diff(np.asarray(arr.offsets)))
        keep = words != ""
        if not keep.any():
            return empty.empty_table()
        g = (pd.DataFrame({"lang": langs[keep], "word": words[keep]})
             .groupby(["lang", "word"], sort=False).size()
             .reset_index(name="cnt"))
        return pa.Table.from_arrays(
            [pa.array(g["lang"].tolist(), pa.string()),
             pa.array(g["word"].tolist(), pa.string()),
             pa.array(g["cnt"].to_numpy(np.int64))],
            names=["lang", "word", "cnt"])

    def per_bucket(g: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(g, ["lang", "word"]).aggregate(
            [("cnt", "sum")])
        return agg.rename_columns(["lang", "word", "cnt"])

    folded = by_bucket(docs.map_batches(wc, batch_format="pyarrow",
                                        zero_copy_batch=True),
                       "word", per_bucket, n_parts)
    return top_n_per_group(folded, group_key="lang", order_col="cnt",
                           n=3, descending=True, tie_col="word",
                           n_parts=4)


def length_percentiles(sf_dir: str):
    """Document-length percentile report — global ``rank() /
    percent_rank() / cume_dist() OVER (ORDER BY n_chars)`` with SQL
    peer-tie semantics (tied lengths share a rank; ``cume`` counts the
    whole peer group), ties resolved ACROSS sorted block boundaries via
    driver-side boundary metadata only — see :func:`mdvalidate_ray
    .functions.window.global_percent_rank`."""
    from mdvalidate_ray.functions.window import global_percent_rank

    docs = _read(sf_dir, "documents").select_columns(
        ["doc_id", "n_chars"])
    return global_percent_rank(docs, value_col="n_chars")


def part_kcore(sf_dir: str):
    """4-core of the part co-purchase graph (parts sharing an order are
    connected): iterative peeling until every surviving part has ≥4
    surviving neighbors — the density filter that strips tendrils off
    the co-occurrence graph before community analysis.  Exact-integer
    (see :func:`mdvalidate_ray.functions.graph.k_core`), so a
    recursive-CTE SQL oracle reproduces the surviving (node, degree)
    set."""
    from mdvalidate_ray.functions.graph import cooccurrence_edges, k_core

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, group_col="l_orderkey",
                               item_col="l_partkey", n_parts=32)
    return k_core(edges, k=4, n_parts=16)


def weekly_active_users(sf_dir: str):
    """Exact trailing-7-day distinct-user counts per observed day (WAU
    by day) — a sliding COUNT DISTINCT cannot fold from daily counts,
    so each user's coverage interval union is computed user-locally
    after ONE user-keyed co-partition; see :func:`mdvalidate_ray
    .functions.relational.rolling_active_users`."""
    from mdvalidate_ray.functions.relational import rolling_active_users

    ev = _read(sf_dir, "events").select_columns(["ts", "user_id"])
    return rolling_active_users(ev, time_col="ts", user_col="user_id",
                                window_days=7)


_SEARCH_QUERY = "fast hash join merge sort window batch stream"


def doc_search(sf_dir: str):
    """Top-20 documents by token-set Jaccard against a fixed query —
    the retrieval surface over the corpus (see :func:`mdvalidate_ray
    .functions.text.jaccard_search`).  Integer-exact scoring, so the
    SQL oracle (list_intersect on distinct word lists) reproduces the
    identical ranking."""
    from mdvalidate_ray.functions.text import jaccard_search

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return jaccard_search(docs, _SEARCH_QUERY, k=20)


def lineitem_expectations(sf_dir: str):
    """Declarative column-expectation suite over lineitem (bounds,
    enum membership, not-null, regex on the line-status code) — the
    tabular constraint surface; one streaming pass, per-rule
    (n_checked, n_failed, passed) verdicts.  See
    :mod:`mdvalidate_ray.stages.expectations`."""
    from mdvalidate_ray.stages.expectations import evaluate_expectations

    rules = [
        {"col": "l_quantity", "kind": "between", "lo": 1, "hi": 50},
        {"col": "l_discount", "kind": "max", "value": 0.1},
        {"col": "l_extendedprice", "kind": "min", "value": 0},
        {"col": "l_returnflag", "kind": "in_set",
         "values": ["A", "N", "R"]},
        {"col": "l_linestatus", "kind": "regex", "pattern": "[OF]"},
        {"col": "l_shipdate", "kind": "not_null"},
        {"col": "l_tax", "kind": "between", "lo": 0, "hi": 0.08},
    ]
    li = _read(sf_dir, "lineitem")
    return evaluate_expectations(li, rules)


def event_transitions(sf_dir: str):
    """Behavioral Markov transition counts — for each user's event
    stream in (ts, event_id) order, count adjacent (prev_type →
    next_type) transitions corpus-wide: the session-modeling /
    next-action-prediction primitive.  Plan: prune to (user_id, ts,
    event_id, event_type), ONE user-bucket co-partition
    (a user's events must meet; vectorized in-bucket: one sort, one
    shifted-array same-user mask — no per-user loop), per-bucket pair
    counts, tiny :func:`~mdvalidate_ray.functions.relational
    .bucketed_group_sum` fold on the fused pair key."""
    import numpy as np
    import pandas as pd

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    n_parts = 16
    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_id", "event_type"])

    pair_schema = pa.schema([("prev_type", pa.string()),
                             ("next_type", pa.string()),
                             ("cnt", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pair_schema.empty_table()
        g = g.take(pc.sort_indices(
            g, sort_keys=[("user_id", "ascending"), ("ts", "ascending"),
                          ("event_id", "ascending")]))
        u = g.column("user_id").to_numpy(zero_copy_only=False)
        et = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        same = u[1:] == u[:-1]
        if not same.any():
            return pair_schema.empty_table()
        dfp = (pd.DataFrame({"p": et[:-1][same], "n": et[1:][same]})
               .groupby(["p", "n"], sort=False).size()
               .reset_index(name="c"))
        return pa.Table.from_arrays(
            [pa.array(dfp["p"].tolist(), pa.string()),
             pa.array(dfp["n"].tolist(), pa.string()),
             pa.array(dfp["c"].to_numpy(np.int64))],
            names=pair_schema.names)

    partials = by_bucket(ev, "user_id", per_bucket, n_parts)

    def fuse(b: pa.Table) -> pa.Table:
        key = [f"{p}\x1f{n}" for p, n in zip(
            b.column("prev_type").to_pylist(),
            b.column("next_type").to_pylist())]
        return pa.Table.from_arrays(
            [pa.array(key, pa.string()), b.column("cnt")],
            names=["k", "cnt"])

    folded = bucketed_group_sum(
        partials.map_batches(fuse, batch_format="pyarrow"),
        key="k", sum_cols=["cnt"], n_parts=8)

    def unfuse(b: pa.Table) -> pa.Table:
        ks = b.column("k").to_pylist()
        parts = [k.split("\x1f") for k in ks]
        return pa.Table.from_arrays(
            [pa.array([p[0] for p in parts], pa.string()),
             pa.array([p[1] for p in parts], pa.string()),
             b.column("cnt").cast(pa.int64())],
            names=["prev_type", "next_type", "cnt"])

    return folded.map_batches(unfuse, batch_format="pyarrow")


def knn_pq(sf_dir: str):
    """PQ-compressed approximate nearest neighbours (Jégou et al. 2011
    — the COMPRESSION tier of the ANN family next to IVF's pruning
    tier): sampled per-subspace codebooks, corpus scanned as m=8 uint8
    codes per vector (32× smaller than float32 at dim 64), ADC
    lookup-table scoring.  Deterministic but approximate — rows-only;
    the recall-vs-exact contract is pinned by test_pq_recall."""
    import numpy as np

    from mdvalidate_ray.functions.similarity import knn_pq as _pq

    emb = _read(sf_dir, "embeddings")
    qrows = sorted(emb.take(16), key=lambda r: r["vec_id"])[:3]
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    out = _pq(emb, queries, k=5, m=8, k_codes=16)
    return pa.Table.from_arrays(
        [pa.array([qrows[r["query_id"]]["vec_id"]
                   for r in out.to_pylist()], pa.int64()),
         out.column("key"),
         _pc_round(pc.multiply(out.column("score"), 1000.0))
         .cast(pa.int64())],
        names=["query_id", "key", "score_m"])


def knn_hnsw(sf_dir: str):
    """Graph-index approximate nearest neighbours (HNSW, Malkov &
    Yashunin 2018 — the GRAPH tier of the ANN family next to IVF's
    pruning and PQ's compression): per-shard deterministic small-world
    graphs, beam search per query, driver top-k merge.  Deterministic
    (hash-of-key levels, sorted insertion) but approximate —
    rows-only; the recall-vs-exact contract is pinned by
    test_hnsw_recall."""
    import numpy as np

    from mdvalidate_ray.functions.similarity import knn_hnsw as _h

    emb = _read(sf_dir, "embeddings")
    qrows = sorted(emb.take(16), key=lambda r: r["vec_id"])[:3]
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    out = _h(emb, queries, k=5, n_shards=4)
    return pa.Table.from_arrays(
        [pa.array([qrows[r["query_id"]]["vec_id"]
                   for r in out.to_pylist()], pa.int64()),
         out.column("key"),
         _pc_round(pc.multiply(out.column("score"), 1000.0))
         .cast(pa.int64())],
        names=["query_id", "key", "score_m"])


def ks_drift_sources(sf_dir: str):
    """Exact two-sample KS statistic on document length between sources
    src0 and src1 — the integer-exact hypothesis-test complement of the
    sketch drift queries; see :func:`mdvalidate_ray.stages.drift
    .ks_exact`."""
    from mdvalidate_ray.stages.drift import ks_exact

    docs = _read(sf_dir, "documents").select_columns(
        ["n_chars", "source"])
    return ks_exact(docs, value_col="n_chars", group_col="source",
                    group_a="src0", group_b="src1")


def user_daily_ohlc(sf_dir: str):
    """Per-(user, day) OPEN / CLOSE / LOW / HIGH / COUNT of event value
    (cents-scaled) — the FIRST_VALUE/LAST_VALUE aggregate class with
    mergeable order-annotated partials; see :func:`mdvalidate_ray
    .functions.relational.grouped_first_last`."""
    import numpy as np

    from mdvalidate_ray.functions.relational import grouped_first_last

    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_id", "value"])

    def add_day(b: pa.Table) -> pa.Table:
        day = (b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000)
        return b.append_column("day", pa.array(day.astype(np.int64)))

    with_day = ev.map_batches(add_day, batch_format="pyarrow",
                              zero_copy_batch=True)
    return grouped_first_last(with_day, group_cols=["user_id", "day"],
                              order_cols=["ts", "event_id"],
                              value_col="value", scale=100)


def lang_length_pct(sf_dir: str):
    """Within-language length percentile for every document (rank +
    percent_rank with peer ties) — per-domain score calibration without
    shuffling rows; see :func:`mdvalidate_ray.functions.window
    .grouped_percent_rank`."""
    from mdvalidate_ray.functions.window import grouped_percent_rank

    docs = _read(sf_dir, "documents").select_columns(
        ["doc_id", "lang", "n_chars"])
    return grouped_percent_rank(docs, group_col="lang",
                                value_col="n_chars")


def bm25_topk(sf_dir: str):
    """BM25 top-25 lexical retrieval against a fixed query over the
    documents table — integer-exact scoring (k1=1.2, b=0.75 cleared to
    one rational per term); see
    :func:`mdvalidate_ray.functions.text.bm25_search`."""
    from mdvalidate_ray.functions.text import bm25_search

    docs = _read(sf_dir, "documents")
    return bm25_search(
        docs, "fast hash join merge sort window batch stream", k=25)


def price_quantiles(sf_dir: str):
    """Exact global p25/p50/p75/p99 of ``l_extendedprice`` (a high-
    cardinality money double — the case the value-counts fold of
    ``exact_quantiles`` cannot ship at scale) via distributed selection;
    see :func:`mdvalidate_ray.functions.relational.quantile_via_selection`.
    Values are reported in cents (exact in float64) so the oracle
    compares integers."""
    from mdvalidate_ray.functions.relational import quantile_via_selection

    li = _read(sf_dir, "lineitem")
    vals = quantile_via_selection(li, "l_extendedprice",
                                  [0.25, 0.5, 0.75, 0.99])
    return pa.table({
        "q_bp": pa.array([2500, 5000, 7500, 9900], pa.int64()),
        "value_cents": pa.array([int(round(v * 100)) for v in vals],
                                pa.int64())})


def user_value_ffill(sf_dir: str):
    """Daily forward-filled value series per user (gap filling onto each
    user's own event-day grid); see
    :func:`mdvalidate_ray.functions.relational.resample_ffill_daily`."""
    from mdvalidate_ray.functions.relational import resample_ffill_daily

    ev = _read(sf_dir, "events")
    return resample_ffill_daily(ev, key="user_id", ts_col="ts",
                                value_col="value", tiebreak="event_id")


def orders_snapshot_diff(sf_dir: str):
    """CDC snapshot diff between two deterministic versions of orders:
    'old' drops keys ≡0 (mod 11), 'new' drops keys ≡0 (mod 13) and
    bumps o_totalprice by 1.00 on keys ≡0 (mod 7) — so added / removed /
    changed are all non-empty and SQL-recomputable; see
    :func:`mdvalidate_ray.functions.relational.snapshot_diff`.  The
    compared value is cents-exact int64."""
    from mdvalidate_ray.functions.relational import snapshot_diff

    base = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_totalprice"])

    # arrow modulo: a - (a // b) * b  (keys are non-negative)
    def snap(drop_mod: int, bump_mod: int | None):
        def f(b: pa.Table) -> pa.Table:
            k = b.column("o_orderkey")
            rem = pc.subtract(k, pc.multiply(
                pc.divide(k, drop_mod), drop_mod))
            t = b.filter(pc.not_equal(rem, 0))
            k2 = t.column("o_orderkey")
            price = t.column("o_totalprice")
            if bump_mod is not None:
                rem2 = pc.subtract(k2, pc.multiply(
                    pc.divide(k2, bump_mod), bump_mod))
                price = pc.if_else(pc.equal(rem2, 0),
                                   pc.add(price, 1.0), price)
            cents = pc.cast(pc.round(pc.multiply(price, 100.0)),
                            pa.int64())
            return pa.Table.from_arrays([k2, cents],
                                        names=["o_orderkey", "v_cents"])
        return f

    old = base.map_batches(snap(11, None), batch_format="pyarrow")
    new = base.map_batches(snap(13, 7), batch_format="pyarrow")
    return snapshot_diff(old, new, key_col="o_orderkey",
                         compare_cols=["v_cents"])


def qty_price_regression(sf_dir: str):
    """Per-returnflag OLS of extendedprice on quantity (exact
    integer-rational slope/intercept from mergeable moment partials);
    see :func:`mdvalidate_ray.functions.relational.grouped_ols`."""
    from mdvalidate_ray.functions.relational import grouped_ols

    li = _read(sf_dir, "lineitem")
    return grouped_ols(li, group_col="l_returnflag", x_col="l_quantity",
                       y_col="l_extendedprice")


def embedding_pca(sf_dir: str):
    """PCA-reduce the embeddings to 4 components (one-pass moment fold →
    driver eigh → broadcast projection); returns the projected vectors.
    Rows-only (eigendecomposition is not SQL-expressible); the model
    itself is pinned by test_pca_matches_numpy."""
    from mdvalidate_ray.functions.similarity import pca_fit, pca_transform

    emb = _read(sf_dir, "embeddings")
    model = pca_fit(emb, n_components=4)
    proj = pca_transform(emb, model)

    # explode the list<float64> projection into scalar columns so the
    # driver's sorted-row value hash applies
    def explode(b: pa.Table) -> pa.Table:
        col = b.column("pc")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        m = flat.reshape(b.num_rows, 4) if b.num_rows else \
            flat.reshape(0, 4)
        arrays = [b.column("vec_id")] + [pa.array(m[:, j])
                                         for j in range(4)]
        return pa.Table.from_arrays(
            arrays, names=["vec_id", "pc1", "pc2", "pc3", "pc4"])

    return proj.map_batches(explode, batch_format="pyarrow",
                            zero_copy_batch=True)


def embedding_outlier_topk(sf_dir: str):
    """Top-50 farthest-from-assigned-centroid embeddings (k-means based
    anomaly score, trunc(d²·10⁶) int64). Rows-only; planted-outlier
    recovery is pinned by test_embedding_outliers_find_planted."""
    from mdvalidate_ray.functions.similarity import embedding_outliers

    emb = _read(sf_dir, "embeddings")
    return embedding_outliers(emb, top_n=50)


def pmi_bigrams(sf_dir: str):
    """Top-30 collocations by integer-exact PMI ratio over documents
    (min bigram count 5); see
    :func:`mdvalidate_ray.functions.text.pmi_collocations`."""
    from mdvalidate_ray.functions.text import pmi_collocations

    return pmi_collocations(_read(sf_dir, "documents"),
                            min_count=5, k=30)


def _corpus_versions(sf_dir: str):
    """Two deterministic corpus snapshots for the CDC/incremental
    family: v2 adds 5% new docs (tail indices), removes every 17th, and
    edits every 7th surviving doc (one appended paragraph span).
    ``dup_every`` is disabled — snapshot keys are primary keys."""
    import ray.data

    from mdvalidate_ray.corpus import documents_batch

    n = _docs_count(sf_dir)
    n2 = n + max(n // 20, 1)
    blocks = max(4, n // 250)
    NO_DUPS = 10**9

    def gen_v1(b):
        return documents_batch(b["id"], n2, 42, 10, 50, NO_DUPS, 0)

    def gen_v2(b):
        idx = b["id"]
        idx = idx[idx % 17 != 0]                      # removed docs
        t = documents_batch(idx, n2, 42, 10, 50, NO_DUPS, 0)
        spans = t.column("spans").to_pylist()
        for j, i in enumerate(idx):
            if int(i) % 7 == 0:                       # edited docs
                spans[j] = list(spans[j]) + [{
                    "kind": "paragraph", "text": "edited content",
                    "media_ref": "", "offset": 99_999}]
        return pa.Table.from_arrays(
            [t.column("doc_id"),
             pa.array(spans, t.schema.field("spans").type)],
            names=["doc_id", "spans"])

    v1 = ray.data.range(n, override_num_blocks=blocks).map_batches(gen_v1)
    v2 = ray.data.range(n2, override_num_blocks=blocks).map_batches(gen_v2)
    return v1, v2


def incremental_revalidation(sf_dir: str):
    """CDC-driven incremental validation: diff two corpus snapshots,
    re-validate only added/changed docs, report per-status verdict
    counts (rows-only; parity with full validation is pinned by
    test_incremental_validate_parity).  See
    :func:`mdvalidate_ray.pipelines.validate_pipeline
    .incremental_validate`."""
    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.pipelines.validate_pipeline import (
        incremental_validate,
    )

    v1, v2 = _corpus_versions(sf_dir)
    res = incremental_validate(v1, v2,
                               schema_text=flagship_schema_text())
    counts: dict[tuple, int] = {}
    for blk in res["verdicts"].select_columns(
            ["status", "passed"]).iter_batches(batch_format="pyarrow"):
        # vectorized per-block partial: Arrow group_by on the ≤4-row
        # (status, passed) cross — no per-row Python in the fold
        part = pa.table({"status": blk.column("status"),
                         "passed": blk.column("passed")}).group_by(
            ["status", "passed"]).aggregate([([], "count_all")])
        for s_, p_, c_ in zip(part.column("status").to_pylist(),
                              part.column("passed").to_pylist(),
                              part.column("count_all").to_pylist()):
            counts[(s_, bool(p_))] = counts.get((s_, bool(p_)), 0) + c_
    n_removed = res["removed"].count()
    rows = sorted(counts.items())
    return pa.table({
        "status": pa.array([s for (s, _), _ in rows] + ["removed"],
                           pa.string()),
        "passed": pa.array([p for (_, p), _ in rows] + [None],
                           pa.bool_()),
        "n_docs": pa.array([c for _, c in rows] + [n_removed],
                           pa.int64())})


def bpe_merges(sf_dir: str):
    """First 40 learned BPE merges over the documents corpus (rows-only;
    the merge loop is iterative — parity is pinned by
    test_bpe_learn_matches_naive).  See
    :func:`mdvalidate_ray.functions.text.bpe_learn`."""
    from mdvalidate_ray.functions.text import bpe_learn

    merges = bpe_learn(_read(sf_dir, "documents"), n_merges=40)
    return pa.table({
        "rank": pa.array([m["rank"] for m in merges], pa.int64()),
        "left": pa.array([m["left"] for m in merges], pa.string()),
        "right": pa.array([m["right"] for m in merges], pa.string()),
        "count": pa.array([m["count"] for m in merges], pa.int64())})


def orders_union_by_name(sf_dir: str):
    """Schema-evolution union: two derived orders snapshots with
    DIFFERENT schemas (even keys carry (o_orderkey, o_totalprice); odd
    keys carry (o_orderkey, o_orderstatus, o_custkey)) stream as ONE
    dataset with union-by-name semantics — missing columns read NULL;
    see :func:`mdvalidate_ray.sources.io.union_by_name`.  Output folds
    to per-column row/null counts so the oracle compares scalars."""
    from mdvalidate_ray.sources.io import union_by_name

    base = _read(sf_dir, "orders")

    def even(b: pa.Table) -> pa.Table:
        k = b.column("o_orderkey")
        rem = pc.subtract(k, pc.multiply(pc.divide(k, 2), 2))
        t = b.filter(pc.equal(rem, 0))
        return pa.Table.from_arrays(
            [t.column("o_orderkey"),
             pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                          100.0)), pa.int64())],
            names=["o_orderkey", "price_cents"])

    def odd(b: pa.Table) -> pa.Table:
        k = b.column("o_orderkey")
        rem = pc.subtract(k, pc.multiply(pc.divide(k, 2), 2))
        t = b.filter(pc.equal(rem, 1))
        return pa.Table.from_arrays(
            [t.column("o_orderkey"), t.column("o_orderstatus"),
             pc.cast(t.column("o_custkey"), pa.int32())],  # narrow int
            names=["o_orderkey", "o_orderstatus", "o_custkey"])

    a = base.select_columns(["o_orderkey", "o_totalprice"]).map_batches(
        even, batch_format="pyarrow")
    bql = base.select_columns(
        ["o_orderkey", "o_orderstatus", "o_custkey"]).map_batches(
        odd, batch_format="pyarrow")
    u = union_by_name([a, bql])

    def fold(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_rows": pa.array([t.num_rows], pa.int64()),
            "null_price": pa.array(
                [t.column("price_cents").null_count], pa.int64()),
            "null_status": pa.array(
                [t.column("o_orderstatus").null_count], pa.int64()),
            "null_cust": pa.array(
                [t.column("o_custkey").null_count], pa.int64()),
            "sum_price": pa.array(
                [pc.sum(t.column("price_cents")).as_py() or 0],
                pa.int64()),
            "sum_cust": pa.array(
                [pc.sum(t.column("o_custkey")).as_py() or 0],
                pa.int64()),
            "sum_key": pa.array(
                [pc.sum(t.column("o_orderkey")).as_py() or 0],
                pa.int64())})

    parts = u.map_batches(fold, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    agg = parts.sum()
    return pa.table({c: pa.array([int(agg[c])], pa.int64())
                     for c in parts.columns})


def lineitem_zorder_stats(sf_dir: str):
    """Morton-curve layout report over (l_partkey, l_suppkey): 8 z-range
    partitions with exact row counts and per-column envelopes; see
    :func:`mdvalidate_ray.functions.relational.zorder_partition_stats`."""
    from mdvalidate_ray.functions.relational import zorder_partition_stats

    li = _read(sf_dir, "lineitem")
    return zorder_partition_stats(li, col_a="l_partkey",
                                  col_b="l_suppkey", n_partitions=8)


def lineitem_zorder_pruned(sf_dir: str):
    """READ-side payoff of the z-order layout: lay lineitem out as 16
    Morton-range parquet partitions on (l_partkey, l_suppkey) in scratch,
    then answer a narrow l_partkey range query by PRUNING whole files on
    their footer min/max envelopes before any data is read — the
    manifest-pruning step a 100-TB reader does against its catalog.  The
    prune is asserted (fewer files read than written); the returned rows
    are the surviving data aggregated per supplier group, so the oracle
    verifies the pruned read loses nothing.  See
    :func:`mdvalidate_ray.functions.relational.write_zordered` /
    :func:`read_parquet_pruned`."""
    import shutil
    import tempfile

    from mdvalidate_ray.functions.relational import (
        read_parquet_pruned,
        write_zordered,
    )

    lo, hi = 17, 60
    li = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_suppkey", "l_quantity"])
    scratch = tempfile.mkdtemp(prefix="mdv_zorder_", dir="/tmp")
    try:
        write_zordered(li, scratch, col_a="l_partkey", col_b="l_suppkey",
                       n_partitions=16)
        pruned, n_total, n_read = read_parquet_pruned(
            scratch, col="l_partkey", lo=lo, hi=hi,
            columns=["l_partkey", "l_suppkey", "l_quantity"])
        if n_read >= n_total:
            raise AssertionError(
                f"z-order envelope prune ineffective: read {n_read} of "
                f"{n_total} files for l_partkey in [{lo}, {hi}]")

        def partial(b: pa.Table) -> pa.Table:
            import numpy as np

            sg = (b.column("l_suppkey").to_numpy(zero_copy_only=False)
                  % 4).astype(np.int64)
            q = b.column("l_quantity").to_numpy(zero_copy_only=False)
            return pa.table({
                "sgrp": pa.array(np.arange(4, dtype=np.int64)),
                "n_p": pa.array(np.bincount(sg, minlength=4)
                                .astype(np.int64)),
                "qty_p": pa.array(np.bincount(sg, weights=q,
                                              minlength=4))})

        parts = pa.concat_tables(
            pruned.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow", batch_size=None)) \
            .to_pandas()
        g = parts.groupby("sgrp", sort=True).sum().reset_index()
        g = g[g["n_p"] > 0]
        return pa.table({
            "sgrp": pa.array(g["sgrp"].to_numpy(), pa.int64()),
            "n_rows": pa.array(g["n_p"].to_numpy(), pa.int64()),
            "sum_qty_c100": pa.array(
                [int(round(v * 100)) for v in g["qty_p"]], pa.int64())})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def join_size_probe(sf_dir: str):
    """Exact lineitem⋈orders cardinality + skew alarm WITHOUT running
    the join; see
    :func:`mdvalidate_ray.functions.relational.join_size_exact`."""
    from mdvalidate_ray.functions.relational import join_size_exact

    r = join_size_exact(_read(sf_dir, "lineitem"),
                        _read(sf_dir, "orders"),
                        key_a="l_orderkey", key_b="o_orderkey")
    return pa.table({k: pa.array([int(v)], pa.int64())
                     for k, v in r.items()})


def grouped_split_leakage(sf_dir: str):
    """Leakage-safe GROUP-aware train/test split: events split by
    USER (not row), so one user's rows can never straddle splits — the
    GroupShuffleSplit contract.  Reports per-split row counts, distinct
    users, and the leakage count (users in both splits — 0 by
    construction, and the oracle proves it)."""
    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.text import add_split

    ev = _read(sf_dir, "events").select_columns(["user_id"])
    tagged = ev.map_batches(
        lambda b: add_split(b, key="user_id", train_bp=8000,
                            salt="group"),
        batch_format="pyarrow", zero_copy_batch=True)

    def pairs(b: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        df = pd.DataFrame({
            "s": b.column("split").to_pylist(),
            "u": b.column("user_id").to_numpy(zero_copy_only=False)})
        g = df.groupby(["s", "u"], sort=False).size().reset_index(
            name="c")
        key = [f"{s}\x1f{u}" for s, u in zip(g["s"], g["u"])]
        return pa.table({"k": pa.array(key, pa.string()),
                         "cnt": pa.array(g["c"].to_numpy(np.int64))})

    folded = bucketed_group_sum(
        tagged.map_batches(pairs, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="k", sum_cols=["cnt"])
    stats = {"train": [0, 0], "test": [0, 0]}
    users: dict[str, set] = {"train": set(), "test": set()}
    for blk in folded.iter_batches(batch_format="pyarrow"):
        for k, c in zip(blk.column("k").to_pylist(),
                        blk.column("cnt").to_pylist()):
            s, u = k.split("\x1f", 1)
            stats[s][0] += int(c)
            stats[s][1] += 1
            users[s].add(u)
    leaked = len(users["train"] & users["test"])
    return pa.table({
        "split": pa.array(["test", "train"], pa.string()),
        "n_rows": pa.array([stats["test"][0], stats["train"][0]],
                           pa.int64()),
        "n_users": pa.array([stats["test"][1], stats["train"][1]],
                            pa.int64()),
        "leaked_users": pa.array([leaked, leaked], pa.int64())})


# --- round-3 TPC-H-adapted multi-join catalog -------------------------------
# These widen the relational surface with the classic multi-way-join
# shapes the reference's single-doc engine never needed but a complete
# data-processing engine must have: nation-pair volume (Q7), profit
# rollup (Q9), left-join distribution (Q13), promo share (Q14),
# distinct-supplier counts (Q16), HAVING-filtered large orders (Q18),
# disjunctive-bracket revenue (Q19), and churn anti-join (Q22 shape).
# Every plan follows the repo's scale rules: dims broadcast once via
# ray.put, facts stream, fact×fact joins go through hash_join (a
# broadcast within the tier budget, one co-partition past it), partial
# sums fold through bucketed_group_sum.

def _dim_table(sf_dir: str, name: str, cols):
    """Direct pruned parquet read of a broadcast-small dim table (one
    Ray execution per dim costs ~1 s of executor startup for a few MB —
    see q5_local_supplier_volume)."""
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{name}.parquet", columns=cols)


def _int_key_map(keys: pa.ChunkedArray | pa.Array, vals):
    """(sorted int64 keys, values) pair for np.searchsorted gathers."""
    import numpy as np

    k = np.asarray(keys.combine_chunks() if isinstance(
        keys, pa.ChunkedArray) else keys, dtype=np.int64)
    order = np.argsort(k, kind="stable")
    v = np.asarray(vals.combine_chunks() if isinstance(
        vals, pa.ChunkedArray) else vals)
    return k[order], v[order]


def _rev_cents(b: pa.Table) -> "object":
    """l_extendedprice*(1-l_discount) as exact int64 cents per row."""
    return pc.cast(_pc_round(pc.multiply(pc.multiply(
        b.column("l_extendedprice"),
        pc.subtract(pa.scalar(1.0), b.column("l_discount"))), 100.0)),
        pa.int64())


def q7_nation_volume(sf_dir: str):
    """TPC-H Q7 shape: shipping volume between NATION_1 and NATION_2 by
    (supp_nation, cust_nation, ship year), 1996–1997.  Scale plan: both
    nation filters push DOWN before the large×large join — lineitem
    keeps only rows whose supplier sits in either nation (broadcast
    suppkey set), orders keeps only customers in either nation
    (broadcast custkey→nation map) — so the hash_join exchanges only
    the ~2/25 of each fact table that can contribute."""
    import datetime

    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join)

    nation = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    want = nation.filter(pc.is_in(nation.column("n_name"),
                                  value_set=pa.array(["NATION_1",
                                                      "NATION_2"])))
    nkeys = want.column("n_nationkey")
    names = dict(zip(want.column("n_nationkey").to_pylist(),
                     want.column("n_name").to_pylist()))

    supp = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp.filter(pc.is_in(pc.cast(supp.column("s_nationkey"),
                                        pa.int64()), value_set=nkeys))
    cust = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(pc.cast(cust.column("c_nationkey"),
                                        pa.int64()), value_set=nkeys))
    sk, sn = _int_key_map(supp.column("s_suppkey"),
                          pc.cast(supp.column("s_nationkey"), pa.int64()))
    ck, cn = _int_key_map(cust.column("c_custkey"),
                          pc.cast(cust.column("c_nationkey"), pa.int64()))
    out_schema = pa.schema(
        [("supp_nation", pa.string()), ("cust_nation", pa.string()),
         ("l_year", pa.int64()), ("revenue_c100", pa.int64())])
    maps_ref = ray.put((sk, sn, ck, cn))

    lo = pa.scalar(datetime.datetime(1996, 1, 1))
    hi = pa.scalar(datetime.datetime(1998, 1, 1))

    def li_filter(b: pa.Table) -> pa.Table:
        skeys, snat, _, _ = ray.get(maps_ref)
        b = b.filter(pc.and_(pc.greater_equal(b.column("l_shipdate"), lo),
                             pc.less(b.column("l_shipdate"), hi)))
        if b.num_rows == 0 or len(skeys) == 0:
            return b.slice(0, 0)
        v = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, v)
        pos[pos == len(skeys)] = 0
        return b.filter(pa.array(skeys[pos] == v))

    def ord_filter(b: pa.Table) -> pa.Table:
        _, _, ckeys, _ = ray.get(maps_ref)
        v = b.column("o_custkey").to_numpy(zero_copy_only=False)
        if len(v) == 0 or len(ckeys) == 0:
            return b.slice(0, 0)
        pos = np.searchsorted(ckeys, v)
        pos[pos == len(ckeys)] = 0
        return b.filter(pa.array(ckeys[pos] == v))

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
         "l_shipdate"]).map_batches(li_filter, batch_format="pyarrow",
                                    zero_copy_batch=True)
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_custkey"]).map_batches(
        ord_filter, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                       n_parts=8)

    def part(b: pa.Table) -> pa.Table:
        empty = pa.table({"k": pa.array([], pa.string()),
                          "rev_c100": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        skeys, snat, ckeys, cnat = ray.get(maps_ref)
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        cv = b.column("o_custkey").to_numpy(zero_copy_only=False)
        s_nat = snat[np.searchsorted(skeys, sv)]
        c_nat = cnat[np.searchsorted(ckeys, cv)]
        keep = s_nat != c_nat           # cross-nation flows only
        if not keep.any():
            return empty
        year = pc.year(b.column("l_shipdate")).to_numpy(
            zero_copy_only=False)
        rev = np.asarray(_rev_cents(b), dtype=np.int64)
        import pandas as pd

        df = pd.DataFrame({"s": s_nat[keep], "c": c_nat[keep],
                           "y": year[keep], "r": rev[keep]})
        g = df.groupby(["s", "c", "y"], sort=False)["r"].sum()
        ks = [f"{s}|{c}|{y}" for (s, c, y) in g.index]
        return pa.table({"k": pa.array(ks, pa.string()),
                         "rev_c100": pa.array(g.to_numpy(np.int64))})

    folded = bucketed_group_sum(
        joined.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="k", sum_cols=["rev_c100"], n_parts=4)
    rows = []
    for r in folded.take_all():
        s, c, y = r["k"].split("|")
        rows.append({"supp_nation": names[int(s)],
                     "cust_nation": names[int(c)], "l_year": int(y),
                     "revenue_c100": int(r["rev_c100"])})
    rows.sort(key=lambda r: (r["supp_nation"], r["cust_nation"],
                             r["l_year"]))
    return pa.Table.from_pylist(rows, schema=out_schema)


def q9_profit_by_nation_year(sf_dir: str):
    """TPC-H Q9 shape (no partsupp table in this corpus, so profit =
    revenue): Σ l_extendedprice·(1−l_discount) for parts whose name
    contains 'red', grouped by (supplier nation, order year).  The part
    filter pushes down as a broadcast partkey membership probe on the
    lineitem stream; supplier→nation broadcasts as a searchsorted map;
    the only exchange is the large×large lineitem⋈orders hash join on
    the pre-filtered stream (~1/6 of lineitem survives the part probe)."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join)

    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_name"])
    red = part_t.filter(pc.match_substring(part_t.column("p_name"),
                                           "red"))
    pk = np.sort(np.asarray(red.column("p_partkey"), dtype=np.int64))

    nation = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(),
                     nation.column("n_name").to_pylist()))
    supp = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    sk, sn = _int_key_map(supp.column("s_suppkey"),
                          pc.cast(supp.column("s_nationkey"), pa.int64()))
    maps_ref = ray.put((pk, sk, sn))

    def li_filter(b: pa.Table) -> pa.Table:
        pkeys, _, _ = ray.get(maps_ref)
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(v) == 0 or len(pkeys) == 0:
            return b.slice(0, 0)
        pos = np.searchsorted(pkeys, v)
        pos[pos == len(pkeys)] = 0
        return b.filter(pa.array(pkeys[pos] == v))

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
         "l_discount"]).map_batches(li_filter, batch_format="pyarrow",
                                    zero_copy_batch=True)
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderdate"])
    joined = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                       n_parts=8)

    def part(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"k": pa.array([], pa.string()),
                             "profit_c100": pa.array([], pa.int64())})
        _, skeys, snat = ray.get(maps_ref)
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        nat = snat[np.searchsorted(skeys, sv)]
        year = pc.year(b.column("o_orderdate")).to_numpy(
            zero_copy_only=False)
        rev = np.asarray(_rev_cents(b), dtype=np.int64)
        import pandas as pd

        g = pd.DataFrame({"n": nat, "y": year, "r": rev}).groupby(
            ["n", "y"], sort=False)["r"].sum()
        ks = [f"{n}|{y}" for (n, y) in g.index]
        return pa.table({"k": pa.array(ks, pa.string()),
                         "profit_c100": pa.array(g.to_numpy(np.int64))})

    folded = bucketed_group_sum(
        joined.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="k", sum_cols=["profit_c100"], n_parts=8)
    rows = []
    for r in folded.take_all():
        n, y = r["k"].split("|")
        rows.append({"n_name": names[int(n)], "o_year": int(y),
                     "profit_c100": int(r["profit_c100"])})
    rows.sort(key=lambda r: (r["n_name"], r["o_year"]))
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("n_name", pa.string()), ("o_year", pa.int64()),
         ("profit_c100", pa.int64())]))


def q13_order_count_distribution(sf_dir: str):
    """TPC-H Q13 shape: how many customers placed exactly k orders
    (including k=0 — the LEFT-join bucket).  Scale plan avoids the
    customer⋈orders left join entirely: per-custkey counts come from
    one coarse bucketed fold over orders (pre-combined per block), the
    k-distribution is a second tiny fold over the counts, and the zero
    bucket is |customer| − |distinct custkeys| — two scalars.  Nothing
    customer-sized ever shuffles or lands on the driver."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    def per_block(b: pa.Table) -> pa.Table:
        v = b.column("o_custkey").to_numpy(zero_copy_only=False)
        keys, cnt = np.unique(v, return_counts=True)
        return pa.table({"o_custkey": pa.array(keys, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64))})

    counts = bucketed_group_sum(
        _read(sf_dir, "orders").select_columns(["o_custkey"])
        .map_batches(per_block, batch_format="pyarrow",
                     zero_copy_batch=True),
        key="o_custkey", sum_cols=["cnt"], n_parts=16)

    def k_partial(b: pa.Table) -> pa.Table:
        k, n = np.unique(b.column("cnt").to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"c_count": pa.array(k, pa.int64()),
                         "custdist": pa.array(n.astype(np.int64))})

    dist_parts = counts.map_batches(k_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    folded = bucketed_group_sum(dist_parts, key="c_count",
                                sum_cols=["custdist"],
                                n_parts=4).take_all()
    import pyarrow.parquet as pq

    n_cust = pq.ParquetFile(
        f"{sf_dir}/customer.parquet").metadata.num_rows
    # `counts` holds exactly one row per custkey that has orders, so the
    # distribution's custdist total IS the with-orders customer count
    n_with = sum(r["custdist"] for r in folded)
    rows = [{"c_count": int(r["c_count"]),
             "custdist": int(r["custdist"])} for r in folded]
    if n_cust - n_with > 0:
        rows.append({"c_count": 0, "custdist": int(n_cust - n_with)})
    rows.sort(key=lambda r: (-r["custdist"], -r["c_count"]))
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("c_count", pa.int64()), ("custdist", pa.int64())]))


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: PROMO-type share of March-1996 revenue.  The
    part→type flag broadcasts as a sorted partkey array + bitmask;
    per-batch int-cent partial sums fold on the driver (two scalars per
    batch — no exchange at all)."""
    import datetime

    import numpy as np
    import ray

    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_type"])
    pk, ptype = _int_key_map(part_t.column("p_partkey"),
                             part_t.column("p_type"))
    promo = (ptype == "PROMO")
    maps_ref = ray.put((pk, promo))
    lo = pa.scalar(datetime.datetime(1996, 3, 1))
    hi = pa.scalar(datetime.datetime(1996, 4, 1))

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.greater_equal(b.column("l_shipdate"), lo),
                             pc.less(b.column("l_shipdate"), hi)))
        if b.num_rows == 0:
            return pa.table({"promo_c100": pa.array([], pa.int64()),
                             "total_c100": pa.array([], pa.int64())})
        pkeys, is_promo = ray.get(maps_ref)
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        flags = is_promo[np.searchsorted(pkeys, v)]
        rev = np.asarray(_rev_cents(b), dtype=np.int64)
        return pa.table({
            "promo_c100": pa.array([int(rev[flags].sum())], pa.int64()),
            "total_c100": pa.array([int(rev.sum())], pa.int64())})

    parts = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(partial, batch_format="pyarrow",
                  zero_copy_batch=True).take_all()
    promo_c = sum(r["promo_c100"] for r in parts)
    total_c = sum(r["total_c100"] for r in parts)
    pct = _half_away(1_000_000.0 * promo_c / total_c) / 10_000.0
    return pa.table({"promo_c100": pa.array([promo_c], pa.int64()),
                     "total_c100": pa.array([total_c], pa.int64()),
                     "promo_pct": pa.array([pct], pa.float64())})


def q16_part_supplier_cnt(sf_dir: str):
    """TPC-H Q16 shape (supplier relationships come from lineitem — this
    corpus has no partsupp): distinct suppliers per (brand, type, size)
    for parts outside Brand#1 / non-PROMO / 8 candidate sizes.  Distinct
    (part, supplier) pairs reduce in-block first, then the exact
    skew-proof pair-hash co-partition of
    :func:`~mdvalidate_ray.functions.relational.group_count_distinct`
    counts distinct suppliers per composite group."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import group_count_distinct

    sizes = [1, 4, 7, 10, 13, 16, 19, 22]
    part_t = _dim_table(sf_dir, "part",
                        ["p_partkey", "p_brand", "p_type", "p_size"])
    keep = pc.and_(pc.and_(
        pc.invert(pc.equal(part_t.column("p_brand"), "Brand#1")),
        pc.invert(pc.equal(part_t.column("p_type"), "PROMO"))),
        pc.is_in(pc.cast(part_t.column("p_size"), pa.int64()),
                 value_set=pa.array(sizes, pa.int64())))
    part_t = part_t.filter(keep)
    pk, pattr = _int_key_map(
        part_t.column("p_partkey"),
        pc.binary_join_element_wise(
            part_t.column("p_brand"), part_t.column("p_type"),
            pc.cast(part_t.column("p_size"), pa.string()), "|"))
    maps_ref = ray.put((pk, pattr))

    def tag(b: pa.Table) -> pa.Table:
        pkeys, attrs = ray.get(maps_ref)
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(v) == 0 or len(pkeys) == 0:
            return pa.table({"grp": pa.array([], pa.string()),
                             "l_suppkey": pa.array([], pa.int64())})
        pos = np.searchsorted(pkeys, v)
        pos[pos == len(pkeys)] = 0
        hit = pkeys[pos] == v
        b = b.filter(pa.array(hit))
        return pa.table({
            "grp": pa.array(attrs[pos[hit]], pa.string()),
            "l_suppkey": b.column("l_suppkey").combine_chunks()})

    pairs = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_suppkey"]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True)
    counted = group_count_distinct(pairs, group_col="grp",
                                   distinct_col="l_suppkey",
                                   out_name="supplier_cnt", n_parts=32)
    rows = []
    for r in counted.take_all():
        brand, ptype, size = r["grp"].split("|")
        rows.append({"p_brand": brand, "p_type": ptype,
                     "p_size": int(size),
                     "supplier_cnt": int(r["supplier_cnt"])})
    rows.sort(key=lambda r: (-r["supplier_cnt"], r["p_brand"],
                             r["p_type"], r["p_size"]))
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("p_brand", pa.string()), ("p_type", pa.string()),
         ("p_size", pa.int64()), ("supplier_cnt", pa.int64())]))


def q18_large_orders(sf_dir: str):
    """TPC-H Q18 shape: orders whose total quantity exceeds 300, with
    customer name and order attributes.  The per-order quantity fold is
    one coarse bucketed exchange of pre-combined (orderkey, qty) rows;
    the HAVING filter leaves a result-sized key set that re-enters the
    orders scan as a broadcast membership probe (never a join of the
    full orders table), and customer names gather from a broadcast
    map."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    threshold = 300 * 100   # qty in int centi-units

    def per_block(b: pa.Table) -> pa.Table:
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        q = np.asarray(pc.cast(_pc_round(pc.multiply(
            b.column("l_quantity"), 100.0)), pa.int64()),
            dtype=np.int64)
        keys, inv = np.unique(k, return_inverse=True)
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, inv, q)
        return pa.table({"l_orderkey": pa.array(keys, pa.int64()),
                         "qty_c100": pa.array(sums)})

    qty = bucketed_group_sum(
        _read(sf_dir, "lineitem").select_columns(
            ["l_orderkey", "l_quantity"]).map_batches(
            per_block, batch_format="pyarrow", zero_copy_batch=True),
        key="l_orderkey", sum_cols=["qty_c100"], n_parts=16)
    big = qty.filter(expr=f"qty_c100 > {threshold}")
    # HAVING survivors are result-sized by construction (TPC-H Q18
    # returns ~1 row per 60k orders); a driver map is the broadcast side
    big_map = {}
    for blk in big.iter_batches(batch_format="pyarrow"):
        for k_, v_ in zip(blk.column("l_orderkey").to_pylist(),
                          blk.column("qty_c100").to_pylist()):
            big_map[int(k_)] = int(v_)
    if not big_map:
        return pa.Table.from_pylist([], schema=pa.schema(
            [("c_name", pa.string()), ("o_custkey", pa.int64()),
             ("o_orderkey", pa.int64()),
             ("o_totalprice_c100", pa.int64()),
             ("sum_qty_c100", pa.int64())]))
    keys_arr = pa.array(sorted(big_map), pa.int64())
    keys_ref = ray.put(keys_arr)

    def pick_orders(b: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        return b.filter(pc.is_in(b.column("o_orderkey"), value_set=ks))

    hits = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
        pick_orders, batch_format="pyarrow",
        zero_copy_batch=True).take_all()
    cust = _dim_table(sf_dir, "customer", ["c_custkey", "c_name"])
    cmap = dict(zip(cust.column("c_custkey").to_pylist(),
                    cust.column("c_name").to_pylist()))
    rows = [{"c_name": cmap[r["o_custkey"]],
             "o_custkey": int(r["o_custkey"]),
             "o_orderkey": int(r["o_orderkey"]),
             "o_totalprice_c100": _half_away(r["o_totalprice"] * 100),
             "sum_qty_c100": big_map[int(r["o_orderkey"])]}
            for r in hits]
    rows.sort(key=lambda r: (-r["o_totalprice_c100"], r["o_orderkey"]))
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("c_name", pa.string()), ("o_custkey", pa.int64()),
         ("o_orderkey", pa.int64()), ("o_totalprice_c100", pa.int64()),
         ("sum_qty_c100", pa.int64())]))


def q19_bracket_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue from three disjunctive (brand, size,
    quantity) brackets.  Part attributes broadcast once as sorted
    arrays; each lineitem batch evaluates the whole disjunction
    vectorized and emits one partial int-cent sum — no exchange."""
    import numpy as np
    import ray

    part_t = _dim_table(sf_dir, "part",
                        ["p_partkey", "p_brand", "p_size"])
    pk, pbrand = _int_key_map(part_t.column("p_partkey"),
                              part_t.column("p_brand"))
    _, psize = _int_key_map(part_t.column("p_partkey"),
                            pc.cast(part_t.column("p_size"), pa.int64()))
    maps_ref = ray.put((pk, pbrand, psize))
    brackets = [("Brand#12", 1, 5, 1.0, 11.0),
                ("Brand#23", 1, 10, 10.0, 20.0),
                ("Brand#34", 1, 15, 20.0, 30.0)]

    def partial(b: pa.Table) -> pa.Table:
        pkeys, brand, size = ray.get(maps_ref)
        if b.num_rows == 0 or len(pkeys) == 0:
            return pa.table({"revenue_c100": pa.array([], pa.int64())})
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pkeys, v)
        pos[pos == len(pkeys)] = 0
        ok_part = pkeys[pos] == v
        br, sz = brand[pos], size[pos]
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(v), dtype=bool)
        for (bname, lo_s, hi_s, lo_q, hi_q) in brackets:
            keep |= ((br == bname) & (sz >= lo_s) & (sz <= hi_s)
                     & (qty >= lo_q) & (qty <= hi_q))
        keep &= ok_part
        if not keep.any():
            return pa.table({"revenue_c100": pa.array([], pa.int64())})
        rev = np.asarray(_rev_cents(b), dtype=np.int64)
        return pa.table({"revenue_c100": pa.array(
            [int(rev[keep].sum())], pa.int64())})

    parts = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
    ).map_batches(partial, batch_format="pyarrow",
                  zero_copy_batch=True).take_all()
    return pa.table({"revenue_c100": pa.array(
        [sum(r["revenue_c100"] for r in parts)], pa.int64())})


def q8_market_share(sf_dir: str):
    """TPC-H Q8 shape: NATION_2's share of PROMO-part revenue sold into
    the ASIA market, by order year (1995–1996).  Scale plan: the part
    filter and the region's customer set broadcast as sorted int64
    arrays (searchsorted probes — the q9/q19 pattern), the supplier→
    nation map broadcasts once, orders prune on date + region BEFORE
    the single large×large hash join with the part-filtered lineitem;
    the per-year (nation, total) partials are two-int rows.  The share
    is an ×1e6 half-away integer so the hash compare is
    float-order-proof."""
    import datetime

    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join)

    nation = _dim_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"])
    region = _dim_table(sf_dir, "region", ["r_regionkey", "r_name"])
    rkey = region.filter(pc.equal(region.column("r_name"), "ASIA")) \
        .column("r_regionkey")[0].as_py()
    rn = nation.filter(pc.equal(pc.cast(nation.column("n_regionkey"),
                                        pa.int64()), rkey))
    rn_keys = pc.cast(rn.column("n_nationkey"), pa.int64())
    target_key = nation.filter(pc.equal(nation.column("n_name"),
                                        "NATION_2")) \
        .column("n_nationkey")[0].as_py()

    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_type"])
    pkeys = np.sort(part_t.filter(pc.equal(
        part_t.column("p_type"), "PROMO")).column(
        "p_partkey").to_numpy(zero_copy_only=False))
    cust = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ckeys = np.sort(cust.filter(pc.is_in(
        pc.cast(cust.column("c_nationkey"), pa.int64()),
        value_set=rn_keys)).column("c_custkey").to_numpy(
        zero_copy_only=False))
    supp = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    sk, sn = _int_key_map(supp.column("s_suppkey"),
                          pc.cast(supp.column("s_nationkey"), pa.int64()))
    maps_ref = ray.put((pkeys, ckeys, sk, sn))
    out_schema = pa.schema(
        [("o_year", pa.int64()), ("nation_rev_c100", pa.int64()),
         ("total_rev_c100", pa.int64()), ("mkt_share_e6", pa.int64())])
    if len(pkeys) == 0 or len(ckeys) == 0:
        return out_schema.empty_table()

    lo = pa.scalar(datetime.datetime(1995, 1, 1))
    hi = pa.scalar(datetime.datetime(1997, 1, 1))

    def li_filter(b: pa.Table) -> pa.Table:
        pk, _, _, _ = ray.get(maps_ref)
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return b.slice(0, 0)
        pos = np.searchsorted(pk, v)
        pos[pos == len(pk)] = 0
        return b.filter(pa.array(pk[pos] == v))

    def ord_filter(b: pa.Table) -> pa.Table:
        _, ck, _, _ = ray.get(maps_ref)
        b = b.filter(pc.and_(
            pc.greater_equal(b.column("o_orderdate"), lo),
            pc.less(b.column("o_orderdate"), hi)))
        v = b.column("o_custkey").to_numpy(zero_copy_only=False)
        if len(v):
            pos = np.searchsorted(ck, v)
            pos[pos == len(ck)] = 0
            b = b.filter(pa.array(ck[pos] == v))
        # empty blocks keep the projected two-column schema too
        year = pc.cast(pc.year(b.column("o_orderdate")), pa.int64())
        return pa.Table.from_arrays(
            [b.column("o_orderkey"), year], names=["o_orderkey", "o_year"])

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
         "l_discount"]).map_batches(li_filter, batch_format="pyarrow",
                                    zero_copy_batch=True)
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        ord_filter, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(li, orders, on="l_orderkey",
                       right_on="o_orderkey", n_parts=8)

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({"k": pa.array([], pa.string()),
                          "nat": pa.array([], pa.int64()),
                          "tot": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        _, _, skeys, snat = ray.get(maps_ref)
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, sv)
        pos[pos == len(skeys)] = 0
        # a dangling suppkey must not count toward either sum — mirror
        # the oracle's inner JOIN supplier
        ok_s = skeys[pos] == sv
        if not ok_s.all():           # drop dangling rows from BOTH sums
            b = b.filter(pa.array(ok_s))
            if b.num_rows == 0:
                return empty
            pos, sv = pos[ok_s], sv[ok_s]
        is_target = snat[pos] == target_key
        year = b.column("o_year").to_numpy(zero_copy_only=False)
        rev = np.asarray(_rev_cents(b), dtype=np.int64)
        ys = np.unique(year)
        tot = np.zeros(len(ys), dtype=np.int64)
        nat = np.zeros(len(ys), dtype=np.int64)
        idx = np.searchsorted(ys, year)
        np.add.at(tot, idx, rev)
        np.add.at(nat, idx[is_target], rev[is_target])
        return pa.table({"k": pa.array([str(y) for y in ys], pa.string()),
                         "nat": pa.array(nat), "tot": pa.array(tot)})

    folded = bucketed_group_sum(
        joined.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="k", sum_cols=["nat", "tot"], n_parts=4)
    rows = []
    for r in folded.take_all():
        n, t = int(r["nat"]), int(r["tot"])
        rows.append({"o_year": int(r["k"]), "nation_rev_c100": n,
                     "total_rev_c100": t,
                     "mkt_share_e6": (2_000_000 * n + t) // (2 * t)})
    rows.sort(key=lambda r: r["o_year"])
    return pa.Table.from_pylist(rows, schema=out_schema)


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape: the supplier(s) with maximum revenue over the
    1996-Q1 ship window (all ties kept).  Scale plan: date filter at
    the scan, in-batch (suppkey → int-cent revenue) combiners, one
    coarse suppkey exchange (:func:`bucketed_group_sum`), then the
    driver folds the ≤|suppliers| totals for the argmax and a broadcast
    name lookup — no supplier-sized shuffle, no window function."""
    import datetime

    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    lo = pa.scalar(datetime.datetime(1996, 1, 1))
    hi = pa.scalar(datetime.datetime(1996, 4, 1))

    def part(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(
            pc.greater_equal(b.column("l_shipdate"), lo),
            pc.less(b.column("l_shipdate"), hi)))
        if b.num_rows == 0:
            return pa.table({"k": pa.array([], pa.string()),
                             "rev": pa.array([], pa.int64())})
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        rev = np.asarray(_rev_cents(b), dtype=np.int64)
        ks = np.unique(sv)
        out = np.zeros(len(ks), dtype=np.int64)
        np.add.at(out, np.searchsorted(ks, sv), rev)
        return pa.table({"k": pa.array([str(k) for k in ks], pa.string()),
                         "rev": pa.array(out)})

    folded = bucketed_group_sum(
        _read(sf_dir, "lineitem").select_columns(
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]
        ).map_batches(part, batch_format="pyarrow",
                      zero_copy_batch=True),
        key="k", sum_cols=["rev"], n_parts=8)
    totals = {int(r["k"]): int(r["rev"]) for r in folded.take_all()}
    out_schema = pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string()),
         ("total_revenue_c100", pa.int64())])
    if not totals:
        return out_schema.empty_table()
    best = max(totals.values())
    supp = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    names = dict(zip(supp.column("s_suppkey").to_pylist(),
                     supp.column("s_name").to_pylist()))
    # best is the max over the FULL revenue view (the oracle's scalar
    # subquery), but the emit join is inner: a dangling l_suppkey can
    # set the bar yet must not emit a row (mirrors q8's dangling probe)
    rows = [{"s_suppkey": k, "s_name": names[k],
             "total_revenue_c100": v}
            for k, v in sorted(totals.items())
            if v == best and k in names]
    return pa.Table.from_pylist(rows, schema=out_schema)


def q17_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: yearly revenue lost if Brand#13 orders below
    20% of the part's average quantity were no longer filled.  The
    avg-quantity threshold is evaluated as the INTEGER cross-multiply
    ``5·qty·cnt < sum_qty`` (quantities are integral), so no float
    average ever exists to diverge.  Scale plan: brand partkeys
    broadcast; pass 1 folds per-part (sum_qty, cnt) over the
    brand-filtered scan (≤|brand parts| rows — same broadcast class as
    the key set); pass 2 re-scans with the thresholds as a searchsorted
    probe and emits one int-cent partial per batch.  Two scans of a
    1/25 slice beat materializing the slice."""
    import numpy as np
    import ray

    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_brand"])
    pkeys = np.sort(part_t.filter(pc.equal(
        part_t.column("p_brand"), "Brand#13")).column(
        "p_partkey").to_numpy(zero_copy_only=False))
    pk_ref = ray.put(pkeys)
    out_schema = pa.schema(
        [("total_eprice_c100", pa.int64()), ("n_small", pa.int64()),
         ("avg_yearly_c100", pa.int64())])
    if len(pkeys) == 0:
        return pa.table({"total_eprice_c100": [0], "n_small": [0],
                         "avg_yearly_c100": [0]}).cast(out_schema)

    def brand_filter(b: pa.Table) -> pa.Table:
        pk = ray.get(pk_ref)
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return b.slice(0, 0)
        pos = np.searchsorted(pk, v)
        pos[pos == len(pk)] = 0
        return b.filter(pa.array(pk[pos] == v))

    cols = ["l_partkey", "l_quantity", "l_extendedprice"]

    def qty_partial(b: pa.Table) -> pa.Table:
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        q = b.column("l_quantity").to_numpy(
            zero_copy_only=False).astype(np.int64)
        ks = np.unique(v)
        sq = np.zeros(len(ks), dtype=np.int64)
        cn = np.zeros(len(ks), dtype=np.int64)
        idx = np.searchsorted(ks, v)
        np.add.at(sq, idx, q)
        np.add.at(cn, idx, 1)
        return pa.table({"pk": pa.array(ks), "sq": pa.array(sq),
                         "cn": pa.array(cn)})

    agg: dict = {}
    for blk in _read(sf_dir, "lineitem").select_columns(cols) \
            .map_batches(brand_filter, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .map_batches(qty_partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for k, s, c in zip(blk.column("pk").to_pylist(),
                           blk.column("sq").to_pylist(),
                           blk.column("cn").to_pylist()):
            cur = agg.get(k, (0, 0))
            agg[k] = (cur[0] + s, cur[1] + c)

    tk = np.array(sorted(agg), dtype=np.int64)
    tsq = np.array([agg[k][0] for k in tk], dtype=np.int64)
    tcn = np.array([agg[k][1] for k in tk], dtype=np.int64)
    thr_ref = ray.put((tk, tsq, tcn))

    def small_partial(b: pa.Table) -> pa.Table:
        keys, sq, cn = ray.get(thr_ref)
        v = b.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, v)
        q = b.column("l_quantity").to_numpy(
            zero_copy_only=False).astype(np.int64)
        small = 5 * q * cn[pos] < sq[pos]
        cents = pc.cast(_pc_round(pc.multiply(
            b.column("l_extendedprice"), 100.0)), pa.int64())
        cents = np.asarray(cents, dtype=np.int64)
        return pa.table({
            "s": pa.array([int(cents[small].sum())], pa.int64()),
            "n": pa.array([int(small.sum())], pa.int64())})

    parts = _read(sf_dir, "lineitem").select_columns(cols) \
        .map_batches(brand_filter, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .map_batches(small_partial, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    tot = sum(r["s"] for r in parts)
    n = sum(r["n"] for r in parts)
    return pa.table({
        "total_eprice_c100": [tot], "n_small": [n],
        "avg_yearly_c100": [(2 * tot + 7) // 14]}).cast(out_schema)


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape (this corpus has no partsupp, so supply cost is
    the OBSERVED minimum unit price over a (part, supplier)'s lineitems
    — the exact rational ep_c100·10⁴/qty rounded half-away as ONE
    integer expression ``(2·ep_c100·10000 + qty) // (2·qty)``, so no
    float division exists on either side): for STANDARD parts of size
    ≥ 40, the EUROPE-region supplier(s) achieving each part's minimum
    cost, ties kept exactly like the SQL's equi-probe.  Scale plan:
    both dimension filters broadcast (eligible partkeys + region
    suppkeys — dimension-bounded); the lineitem scan prunes to 4
    columns and pre-combines each batch to (part,supp)-min partials, so
    ONE coarse fused-key exchange folds the pair minima
    (:func:`bucketed_group_agg` min); the per-part argmin runs as a
    SECOND coarse exchange keyed on partkey — pair rows are
    O(parts × region suppliers), nothing driver-sized until the final
    qualifying rows, which ARE the answer."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_agg

    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_type", "p_size"])
    keep = pc.and_(pc.equal(part_t.column("p_type"), "STANDARD"),
                   pc.greater_equal(part_t.column("p_size"), 40))
    pk = np.sort(part_t.filter(keep).column("p_partkey").to_numpy(
        zero_copy_only=False))

    region_t = _dim_table(sf_dir, "region", ["r_regionkey", "r_name"])
    rk = region_t.filter(pc.equal(region_t.column("r_name"), "EUROPE")) \
                 .column("r_regionkey")[0].as_py()
    nation = _dim_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"])
    nat = nation.filter(pc.equal(nation.column("n_regionkey"), rk))
    nat_names = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))
    supp = _dim_table(sf_dir, "supplier",
                      ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"])
    supp = supp.filter(pc.is_in(
        pc.cast(supp.column("s_nationkey"), pa.int64()),
        value_set=pa.array(list(nat_names), pa.int64())))
    sk = np.sort(supp.column("s_suppkey").to_numpy(zero_copy_only=False))
    bal_c100 = pc.cast(_pc_round(pc.multiply(
        supp.column("s_acctbal"), 100.0)), pa.int64()).to_pylist()
    s_meta = {int(k): (nm, int(nk), int(bal)) for k, nm, nk, bal in zip(
        supp.column("s_suppkey").to_pylist(),
        supp.column("s_name").to_pylist(),
        supp.column("s_nationkey").to_pylist(), bal_c100)}
    out_schema = pa.schema(
        [("p_partkey", pa.int64()), ("s_suppkey", pa.int64()),
         ("s_name", pa.string()), ("n_name", pa.string()),
         ("s_acctbal_c100", pa.int64()), ("cost_e4", pa.int64())])
    if len(pk) == 0 or len(sk) == 0:
        return out_schema.empty_table()
    assert int(pk.max()) < (1 << 42) and int(sk.max()) < (1 << 20), \
        "q2: fused (partkey<<20 | suppkey) key needs wider packing"
    maps_ref = ray.put((pk, sk))
    empty_pair = pa.table({"k": pa.array([], pa.int64()),
                           "cost_e4": pa.array([], pa.int64())})

    def pair_min(b: pa.Table) -> pa.Table:
        pkeys, skeys = ray.get(maps_ref)
        pv = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(pv) == 0:
            return empty_pair
        pos = np.searchsorted(pkeys, pv)
        pos[pos == len(pkeys)] = 0
        m = pkeys[pos] == pv
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, sv)
        pos[pos == len(skeys)] = 0
        m &= skeys[pos] == sv
        b = b.filter(pa.array(m))
        if b.num_rows == 0:
            return empty_pair
        ep = np.asarray(pc.cast(_pc_round(pc.multiply(
            b.column("l_extendedprice"), 100.0)), pa.int64()),
            dtype=np.int64)
        q = b.column("l_quantity").to_numpy(
            zero_copy_only=False).astype(np.int64)
        cost = (2 * ep * 10000 + q) // (2 * q)
        k = (b.column("l_partkey").to_numpy(zero_copy_only=False)
             .astype(np.int64) << 20) \
            | b.column("l_suppkey").to_numpy(
                zero_copy_only=False).astype(np.int64)
        order = np.lexsort((cost, k))
        ks, first = np.unique(k[order], return_index=True)
        return pa.table({"k": pa.array(ks, pa.int64()),
                         "cost_e4": pa.array(cost[order][first],
                                             pa.int64())})

    pairs = bucketed_group_agg(
        _read(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"])
        .map_batches(pair_min, batch_format="pyarrow",
                     zero_copy_batch=True),
        key="k", agg_cols=["cost_e4"], aggs=["min"], n_parts=8)

    n_buckets = 8

    def tag_part(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "k" not in b.schema.names:
            return pa.table({"p_partkey": pa.array([], pa.int64()),
                             "s_suppkey": pa.array([], pa.int64()),
                             "cost_e4": pa.array([], pa.int64())})
        k = b.column("k").to_numpy(zero_copy_only=False)
        p = k >> 20
        return pa.table({
            "p_partkey": pa.array(p, pa.int64()),
            "s_suppkey": pa.array(k & ((1 << 20) - 1), pa.int64()),
            "cost_e4": b.column("cost_e4")})

    def argmin_group(g: pa.Table) -> pa.Table:
        p = g.column("p_partkey").to_numpy(zero_copy_only=False)
        c = g.column("cost_e4").to_numpy(zero_copy_only=False)
        order = np.lexsort((c, p))
        p_s, c_s = p[order], c[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], p_s[1:] != p_s[:-1])))
        part_min = c_s[starts]
        idx = np.searchsorted(p_s[starts], p_s)
        keep = c_s == part_min[idx]
        return g.take(pa.array(order[keep]))

    winners = by_bucket(pairs.map_batches(tag_part, batch_format="pyarrow",
                                          zero_copy_batch=True),
                        "p_partkey", argmin_group, n_buckets)
    rows = []
    for r in winners.take_all():
        nm, nk, bal = s_meta[int(r["s_suppkey"])]
        rows.append({"p_partkey": int(r["p_partkey"]),
                     "s_suppkey": int(r["s_suppkey"]), "s_name": nm,
                     "n_name": nat_names[nk], "s_acctbal_c100": bal,
                     "cost_e4": int(r["cost_e4"])})
    rows.sort(key=lambda r: (-r["s_acctbal_c100"], r["n_name"],
                             r["s_name"], r["p_partkey"]))
    return pa.Table.from_pylist(rows, schema=out_schema)


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape (no partsupp — 'stock value' is the shipped
    extendedprice cents from region-2 suppliers): parts whose value
    exceeds 1.5× the mean part value, the HAVING-vs-scalar-subquery
    pattern as the exact integer cross-multiply
    ``2·value·n_parts > 3·Σvalue``.  Scale plan: region suppkeys
    broadcast; per-batch partkey→cents combiners; ONE coarse bucketed
    fold.  TIERED finish on the folded (part, cents) rows at 16 B each
    (:func:`~mdvalidate_ray.tiers.plan_tier`): within the budget they
    collect and the scalars + filter run on the driver; past it (the
    10⁹-part case) the folded
    table STAYS a Dataset — the two scalars fold from one-row
    per-batch (n, Σ) partials and broadcast back into a distributed
    filter pass, with only the qualifying rows collected.  Both tiers
    bit-equal (test_q11_forced_distributed_filter_tier)."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    nation = _dim_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    nks = nation.filter(pc.equal(nation.column("n_regionkey"), 2)) \
                .column("n_nationkey").to_pylist()
    supp = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    supp = supp.filter(pc.is_in(
        pc.cast(supp.column("s_nationkey"), pa.int64()),
        value_set=pa.array([int(x) for x in nks], pa.int64())))
    sk = np.sort(supp.column("s_suppkey").to_numpy(zero_copy_only=False))
    sk_ref = ray.put(sk)
    empty = pa.table({"l_partkey": pa.array([], pa.int64()),
                      "value_c100": pa.array([], pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        skeys = ray.get(sk_ref)
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        if len(sv) == 0 or len(skeys) == 0:
            return empty
        pos = np.searchsorted(skeys, sv)
        pos[pos == len(skeys)] = 0
        b = b.filter(pa.array(skeys[pos] == sv))
        if b.num_rows == 0:
            return empty
        ep = np.asarray(pc.cast(_pc_round(pc.multiply(
            b.column("l_extendedprice"), 100.0)), pa.int64()),
            dtype=np.int64)
        p = b.column("l_partkey").to_numpy(zero_copy_only=False)
        ks = np.unique(p)
        s = np.zeros(len(ks), dtype=np.int64)
        np.add.at(s, np.searchsorted(ks, p), ep)
        return pa.table({"l_partkey": pa.array(ks, pa.int64()),
                         "value_c100": pa.array(s)})

    folded_ds = bucketed_group_sum(
        _read(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_suppkey", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        key="l_partkey", sum_cols=["value_c100"], n_parts=8) \
        .materialize()
    out_schema = pa.schema(
        [("l_partkey", pa.int64()), ("value_c100", pa.int64())])
    if tiers.plan_tier(folded_ds.count(), 16) != "partitioned":
        folded = folded_ds.take_all()
        n = len(folded)
        tot = sum(r["value_c100"] for r in folded)
        rows = [{"l_partkey": int(r["l_partkey"]),
                 "value_c100": int(r["value_c100"])} for r in folded
                if 2 * r["value_c100"] * n > 3 * tot]
        rows.sort(key=lambda r: (-r["value_c100"], r["l_partkey"]))
        return pa.Table.from_pylist(rows, schema=out_schema)
    # distributed-filter tier: scalars from one-row per-batch partials,
    # broadcast back; only qualifying rows ever reach the driver
    scalars = folded_ds.map_batches(
        lambda b: pa.table({
            "n": pa.array([b.num_rows], pa.int64()),
            "tot": pa.array([int(pc.sum(b.column(
                "value_c100")).as_py() or 0)], pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).take_all()
    n = sum(r["n"] for r in scalars)
    tot = sum(r["tot"] for r in scalars)

    # exact integer rewrite of 2·v·n > 3·tot (whose product overflows
    # int64): for integer v, that is v > (3·tot) // (2·n) in BOTH the
    # divisible and non-divisible cases — one vectorized compare, the
    # threshold a Python bigint folded once on the driver
    thr = (3 * tot) // (2 * n)

    def dist_filter(b: pa.Table) -> pa.Table:
        v = b.column("value_c100").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(v > thr)).select(
            ["l_partkey", "value_c100"])

    hits = [blk for blk in folded_ds.map_batches(
        dist_filter, batch_format="pyarrow",
        zero_copy_batch=True).iter_batches(batch_format="pyarrow")
        if blk.num_rows]
    out = pa.concat_tables(hits) if hits else out_schema.empty_table()
    idx = pc.sort_indices(out, sort_keys=[
        ("value_c100", "descending"), ("l_partkey", "ascending")])
    return out.take(idx).select(["l_partkey", "value_c100"])


def q12_late_priority(sf_dir: str):
    """TPC-H Q12 shape (no l_shipmode/commitdate in this corpus — the
    mode axis is l_returnflag and 'late' means shipped ≥ 90 days after
    the order date): per returnflag, how many late-shipped 1996 lines
    belong to high-priority (1-URGENT/2-HIGH) vs lower-priority orders
    — the join + CASE-sum report.  Scale plan: lineitem prunes to 3
    columns and date-filters BEFORE the one large×large hash join to
    orders (pruned to 3); the late test is a vectorized int64-µs
    compare; per-batch (flag, high, low) partials (≤|flags| rows each)
    fold in one tiny bucketed exchange."""
    import datetime

    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join)

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    def ship_1996(b: pa.Table) -> pa.Table:
        col = b.column("l_shipdate")
        return b.filter(pc.and_(pc.greater_equal(col, pa.scalar(lo)),
                                pc.less(col, pa.scalar(hi))))

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_returnflag", "l_shipdate"]).map_batches(
        ship_1996, batch_format="pyarrow", zero_copy_batch=True)
    late_us = 90 * 86_400 * 1_000_000
    empty = pa.table({"l_returnflag": pa.array([], pa.string()),
                      "high_line_count": pa.array([], pa.int64()),
                      "low_line_count": pa.array([], pa.int64())})
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderdate", "o_orderpriority"])
    # the date window can drain lineitem entirely; the join then
    # yields no rows and the fold below returns the empty report
    joined = hash_join(li, orders, on="l_orderkey",
                       right_on="o_orderkey", n_parts=8)

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        ship = b.column("l_shipdate").to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view("int64")
        od = b.column("o_orderdate").to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view("int64")
        late = ship >= od + late_us
        high = np.asarray(pc.is_in(
            b.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"])))
        t = pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "high_line_count": pa.array(
                (late & high).astype(np.int64)),
            "low_line_count": pa.array(
                (late & ~high).astype(np.int64))})
        g = pa.TableGroupBy(t, "l_returnflag").aggregate(
            [("high_line_count", "sum"), ("low_line_count", "sum")])
        g = g.rename_columns(
            ["l_returnflag", "high_line_count", "low_line_count"])
        return g.filter(pc.or_(
            pc.greater(g.column("high_line_count"), 0),
            pc.greater(g.column("low_line_count"), 0)))

    return bucketed_group_sum(
        joined.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="l_returnflag",
        sum_cols=["high_line_count", "low_line_count"], n_parts=2)


def q20_excess_suppliers(sf_dir: str):
    """TPC-H Q20 shape (no partsupp.availqty — 'excess availability'
    means the supplier shipped MORE THAN 1/4 of a 'small %' part's
    total 1996 volume, the integer cross-multiply
    ``4·pair_qty > part_qty``): suppliers holding such a dominant share
    of at least one small part, with how many such parts — the nested
    semi-join chain.  Scale plan: prefix partkeys broadcast; per-batch
    (part,supp)→qty combiners; ONE coarse fused-key fold; a SECOND
    coarse exchange keyed on partkey computes per-part totals and the
    share flags entirely in-bucket (pair rows are O(parts×suppliers));
    per-supplier counts fold in a third tiny exchange, O(suppliers)."""
    import datetime

    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_name"])
    pk = np.sort(part_t.filter(pc.starts_with(
        part_t.column("p_name"), "small ")).column("p_partkey")
        .to_numpy(zero_copy_only=False))
    supp_t = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    s_names = dict(zip(supp_t.column("s_suppkey").to_pylist(),
                       supp_t.column("s_name").to_pylist()))
    out_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("s_name", pa.string()),
                            ("n_parts_excess", pa.int64())])
    if len(pk) == 0:
        return out_schema.empty_table()
    assert int(pk.max()) < (1 << 42), "q20: fused key needs wider packing"
    pk_ref = ray.put(pk)
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "qty": pa.array([], pa.int64())})

    def pair_qty(b: pa.Table) -> pa.Table:
        col = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(col, pa.scalar(lo)),
                             pc.less(col, pa.scalar(hi))))
        pkeys = ray.get(pk_ref)
        pv = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(pv) == 0:
            return empty
        pos = np.searchsorted(pkeys, pv)
        pos[pos == len(pkeys)] = 0
        b = b.filter(pa.array(pkeys[pos] == pv))
        if b.num_rows == 0:
            return empty
        sv = b.column("l_suppkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        assert sv.max() < (1 << 20), \
            "q20: fused (partkey<<20 | suppkey) key needs wider packing"
        k = (b.column("l_partkey").to_numpy(zero_copy_only=False)
             .astype(np.int64) << 20) | sv
        q = b.column("l_quantity").to_numpy(
            zero_copy_only=False).astype(np.int64)
        ks = np.unique(k)
        s = np.zeros(len(ks), dtype=np.int64)
        np.add.at(s, np.searchsorted(ks, k), q)
        return pa.table({"k": pa.array(ks, pa.int64()),
                         "qty": pa.array(s)})

    pairs = bucketed_group_sum(
        _read(sf_dir, "lineitem").select_columns(
            ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
        .map_batches(pair_qty, batch_format="pyarrow",
                     zero_copy_batch=True),
        key="k", sum_cols=["qty"], n_parts=8)

    n_buckets = 8

    def tag_part(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "k" not in b.schema.names:
            return pa.table({"p": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "qty": pa.array([], pa.int64())})
        k = b.column("k").to_numpy(zero_copy_only=False)
        p = k >> 20
        return pa.table({
            "p": pa.array(p, pa.int64()),
            "s": pa.array(k & ((1 << 20) - 1), pa.int64()),
            "qty": b.column("qty")})

    def excess_group(g: pa.Table) -> pa.Table:
        p = g.column("p").to_numpy(zero_copy_only=False)
        s = g.column("s").to_numpy(zero_copy_only=False)
        q = g.column("qty").to_numpy(zero_copy_only=False)
        order = np.argsort(p, kind="stable")
        p_s, s_s, q_s = p[order], s[order], q[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], p_s[1:] != p_s[:-1])))
        tot = np.add.reduceat(q_s, starts)
        idx = np.searchsorted(p_s[starts], p_s)
        hit = 4 * q_s > tot[idx]
        sk, cnt = np.unique(s_s[hit], return_counts=True)
        return pa.table({"s_suppkey": pa.array(sk, pa.int64()),
                         "n_parts_excess": pa.array(
                             cnt.astype(np.int64))})

    per_supp = bucketed_group_sum(
        by_bucket(pairs.map_batches(tag_part, batch_format="pyarrow",
                                    zero_copy_batch=True),
                  "p", excess_group, n_buckets),
        key="s_suppkey", sum_cols=["n_parts_excess"], n_parts=4)
    # dangling l_suppkey rows drop like the oracle's inner JOIN supplier
    # (the q8/q15 corpus hazard)
    rows = [{"s_suppkey": int(r["s_suppkey"]),
             "s_name": s_names[int(r["s_suppkey"])],
             "n_parts_excess": int(r["n_parts_excess"])}
            for r in per_supp.take_all()
            if int(r["s_suppkey"]) in s_names]
    rows.sort(key=lambda r: r["s_suppkey"])
    return pa.Table.from_pylist(rows, schema=out_schema)


def q21_waiting_supplier(sf_dir: str):
    """TPC-H Q21 shape (no receipt/commit dates in this corpus — the
    supplier who 'kept the order waiting' is the one whose ship date is
    STRICTLY the latest): per supplier, the number of finished ('F')
    multi-supplier orders where that supplier uniquely shipped last —
    the EXISTS (another supplier) + NOT-EXISTS (another supplier at or
    after my date) pair over the same fact table.  Scale plan: the
    F-orderkey set flows through tiered
    :func:`~mdvalidate_ray.functions.relational.semi_join_keys`
    (broadcast exact set / Bloom + co-partitioned verify); per-batch
    (order,supp)→max-ship combiners; ONE coarse fused-key max fold; a
    SECOND coarse exchange on orderkey decides per-order uniqueness of
    the max entirely in-bucket; per-supplier counts fold in a third
    tiny exchange, O(suppliers)."""
    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_agg,
                                                     bucketed_group_sum,
                                                     semi_join_keys)

    keys_ds = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_orderstatus"]).map_batches(
        lambda b: pa.TableGroupBy(
            b.filter(pc.equal(b.column("o_orderstatus"), "F"))
             .select(["o_orderkey"]), "o_orderkey").aggregate([]),
        batch_format="pyarrow", zero_copy_batch=True)
    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_suppkey", "l_shipdate"])
    fl = semi_join_keys(li, keys_ds, left_key="l_orderkey",
                        right_key="o_orderkey")
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "ship_us": pa.array([], pa.int64())})

    def pair_max(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        ok = b.column("l_orderkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        sv = b.column("l_suppkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        assert ok.max() < (1 << 42) and sv.max() < (1 << 20), \
            "q21: fused (orderkey<<20 | suppkey) key needs wider packing"
        k = (ok << 20) | sv
        ship = b.column("l_shipdate").to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view("int64")
        order = np.lexsort((ship, k))
        ks, first, cnt = np.unique(k[order], return_index=True,
                                   return_counts=True)
        last = first + cnt - 1
        return pa.table({"k": pa.array(ks, pa.int64()),
                         "ship_us": pa.array(ship[order][last],
                                             pa.int64())})

    pair_ship = bucketed_group_agg(
        fl.map_batches(pair_max, batch_format="pyarrow",
                       zero_copy_batch=True),
        key="k", agg_cols=["ship_us"], aggs=["max"], n_parts=8)

    n_buckets = 8

    def tag_order(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "k" not in b.schema.names:
            return pa.table({"o": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "ship_us": pa.array([], pa.int64())})
        k = b.column("k").to_numpy(zero_copy_only=False)
        o = k >> 20
        return pa.table({
            "o": pa.array(o, pa.int64()),
            "s": pa.array(k & ((1 << 20) - 1), pa.int64()),
            "ship_us": b.column("ship_us")})

    def waiting_group(g: pa.Table) -> pa.Table:
        o = g.column("o").to_numpy(zero_copy_only=False)
        s = g.column("s").to_numpy(zero_copy_only=False)
        ship = g.column("ship_us").to_numpy(zero_copy_only=False)
        order = np.lexsort((ship, o))
        o_s, s_s, t_s = o[order], s[order], ship[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], o_s[1:] != o_s[:-1])))
        cnt = np.diff(np.concatenate((starts, [len(o_s)])))
        omax = np.maximum.reduceat(t_s, starts)
        idx = np.searchsorted(o_s[starts], o_s)
        at_max = t_s == omax[idx]
        n_at_max = np.add.reduceat(at_max.astype(np.int64), starts)
        # rows here are per-(order, supplier) maxima, so cnt IS the
        # distinct-supplier count of the order
        win = at_max & (cnt[idx] >= 2) & (n_at_max[idx] == 1)
        sk, c = np.unique(s_s[win], return_counts=True)
        return pa.table({"s_suppkey": pa.array(sk, pa.int64()),
                         "numwait": pa.array(c.astype(np.int64))})

    per_supp = bucketed_group_sum(
        by_bucket(pair_ship.map_batches(tag_order, batch_format="pyarrow",
                                        zero_copy_batch=True),
                  "o", waiting_group, n_buckets),
        key="s_suppkey", sum_cols=["numwait"], n_parts=4)
    supp_t = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    s_names = dict(zip(supp_t.column("s_suppkey").to_pylist(),
                       supp_t.column("s_name").to_pylist()))
    # dangling l_suppkey rows drop like the oracle's inner JOIN supplier
    rows = [{"s_suppkey": int(r["s_suppkey"]),
             "s_name": s_names[int(r["s_suppkey"])],
             "numwait": int(r["numwait"])} for r in per_supp.take_all()
            if int(r["s_suppkey"]) in s_names]
    rows.sort(key=lambda r: (-r["numwait"], r["s_suppkey"]))
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("s_suppkey", pa.int64()), ("s_name", pa.string()),
         ("numwait", pa.int64())]))


def q22_idle_customers(sf_dir: str, *, n_parts: int = 16):
    """TPC-H Q22 shape: per 'country code' (the nationkey, over a fixed
    7-code IN list), count and total balance of customers whose balance
    exceeds the mean POSITIVE balance of the code pool (the scalar
    subquery as the integer cross-multiply ``bal·n_pos > Σ_pos`` — no
    float mean exists) and who placed NO order since 2000-01-01 — the
    NOT-EXISTS anti-join.  Scale plan: customer scans prune to 3
    columns with an in-batch code filter; the mean folds from one-row
    per-batch (n_pos, Σ_pos) partials; the anti-join is TIERED on the
    recent-buyer custkeys at 8 B each
    (:func:`~mdvalidate_ray.tiers.plan_tier`):

    * within the budget — the distinct buyer set folds to the driver
      and broadcasts for an exact per-batch anti-probe.
    * past it — buyer keys NEVER fold: the rich-customer rows and the
      per-batch-deduped buyer keys meet in one anti-join
      :func:`~mdvalidate_ray.exchange.co_partition` on the custkey
      (the rich side passing its schema), and the surviving rows
      PRE-AGGREGATE to ≤7 (code, cnt, tot) partials per block, so the
      final exchange is unchanged.  Both tiers are bit-equal
      (test_q22_forced_copartition_tier_parity).

    ≤7-row per-batch partials fold once."""
    import datetime

    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import (_copartition_match,
                                                     bucketed_group_sum)

    codes = [1, 3, 5, 7, 9, 11, 13]
    code_set = pa.array(codes, pa.int64())
    cutoff = datetime.datetime(2000, 1, 1)

    buyers_ds = _read(sf_dir, "orders").select_columns(
        ["o_custkey", "o_orderdate"]).map_batches(
        lambda b: pa.table({"o_custkey": pa.array(np.unique(
            b.filter(pc.greater_equal(b.column("o_orderdate"),
                                      pa.scalar(cutoff)))
             .column("o_custkey").to_numpy(zero_copy_only=False)),
            pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    use_broadcast = tiers.plan_tier(buyers_ds.count(), 8) != "partitioned"
    if use_broadcast:
        buyers = np.unique(np.concatenate(
            [blk.column("o_custkey").to_numpy(zero_copy_only=False)
             for blk in buyers_ds.iter_batches(batch_format="pyarrow")
             if blk.num_rows] or [np.zeros(0, dtype=np.int64)]))
        buyers_ref = ray.put(buyers)

    pool_schema = pa.schema([("cntrycode", pa.int64()),
                             ("c_custkey", pa.int64()),
                             ("bal_c100", pa.int64())])

    def pool(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(pc.cast(b.column("c_nationkey"),
                                      pa.int64()), value_set=code_set))
        bal = pc.cast(_pc_round(pc.multiply(
            b.column("c_acctbal"), 100.0)), pa.int64())
        return pa.Table.from_arrays(
            [pc.cast(b.column("c_nationkey"), pa.int64()),
             pc.cast(b.column("c_custkey"), pa.int64()), bal],
            schema=pool_schema)

    cust = _read(sf_dir, "customer").select_columns(
        ["c_custkey", "c_nationkey", "c_acctbal"]).map_batches(
        pool, batch_format="pyarrow", zero_copy_batch=True)

    def pos_partial(b: pa.Table) -> pa.Table:
        v = b.column("bal_c100").to_numpy(zero_copy_only=False)
        p = v[v > 0]
        return pa.table({"n_pos": pa.array([len(p)], pa.int64()),
                         "sum_pos": pa.array([int(p.sum())], pa.int64())})

    parts = cust.map_batches(pos_partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    n_pos = sum(r["n_pos"] for r in parts)
    sum_pos = sum(r["sum_pos"] for r in parts)

    empty = pa.table({"cntrycode": pa.array([], pa.int64()),
                      "numcust": pa.array([], pa.int64()),
                      "totacctbal_c100": pa.array([], pa.int64())})

    def agg_partial(b: pa.Table) -> pa.Table:
        """(cntrycode, bal_c100) rows → ≤7 (code, cnt, tot) partials."""
        if b.num_rows == 0:
            return empty
        code = b.column("cntrycode").to_numpy(zero_copy_only=False)
        bal = b.column("bal_c100").to_numpy(zero_copy_only=False)
        ks = np.unique(code)
        idx = np.searchsorted(ks, code)
        cnt = np.zeros(len(ks), dtype=np.int64)
        tot = np.zeros(len(ks), dtype=np.int64)
        np.add.at(cnt, idx, 1)
        np.add.at(tot, idx, bal)
        return pa.table({"cntrycode": pa.array(ks, pa.int64()),
                         "numcust": pa.array(cnt),
                         "totacctbal_c100": pa.array(tot)})

    def rich(b: pa.Table) -> pa.Table:
        bal = b.column("bal_c100").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(bal * n_pos > sum_pos))

    if use_broadcast:
        def partial(b: pa.Table) -> pa.Table:
            b = rich(b)
            bv = ray.get(buyers_ref)
            ck = b.column("c_custkey").to_numpy(zero_copy_only=False)
            if len(bv):
                pos = np.searchsorted(bv, ck)
                pos[pos == len(bv)] = 0
                b = b.filter(pa.array(bv[pos] != ck))
            return agg_partial(b)

        partials = cust.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
    else:
        # co-partitioned tier: buyer keys never fold to the driver; the
        # lazy rich side passes its schema, so no limit(1) rescans it
        partials = _copartition_match(
            cust.map_batches(rich, batch_format="pyarrow",
                             zero_copy_batch=True),
            buyers_ds, key="c_custkey", keys_col="o_custkey",
            n_parts=n_parts, keep_present=False,
            schema=pool_schema).map_batches(agg_partial,
                                            batch_format="pyarrow",
                                            zero_copy_batch=True)
    return bucketed_group_sum(
        partials, key="cntrycode", sum_cols=["numcust", "totacctbal_c100"],
        n_parts=2)


def churned_rich_customers(sf_dir: str):
    """TPC-H Q22 shape, adapted to this corpus (every customer has
    orders, so 'idle' means churned): per market segment, how many
    customers with above-average account balance placed their LAST
    order before 2000-01-01, and their total balance.  The per-customer
    last-order-date comes from
    :func:`~mdvalidate_ray.functions.relational.latest_per_key` (block
    argmax + one coarse exchange); the churned key set then filters the
    customer scan as a broadcast probe — no customer-sized shuffle.  At
    corpus scale the churned set is bounded by the churn rate; past
    broadcast it would flow through semi_join_keys' Bloom tier."""
    import datetime

    import ray

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     latest_per_key)

    cust_ds = _read(sf_dir, "customer").select_columns(
        ["c_custkey", "c_mktsegment", "c_acctbal"])

    # global avg of positive balances: exact int-cent partial sums
    def bal_partial(b: pa.Table) -> pa.Table:
        pos = b.filter(pc.greater(b.column("c_acctbal"), 0.0))
        cents = pc.cast(_pc_round(pc.multiply(
            pos.column("c_acctbal"), 100.0)), pa.int64())
        return pa.table({
            "s": pa.array([int(pc.sum(cents).as_py() or 0)], pa.int64()),
            "n": pa.array([pos.num_rows], pa.int64())})

    parts = cust_ds.map_batches(bal_partial, batch_format="pyarrow",
                                zero_copy_batch=True).take_all()
    tot_c, tot_n = (sum(r["s"] for r in parts), sum(r["n"] for r in parts))
    avg_c100 = tot_c / tot_n   # exact rational; both sides compare > avg

    last = latest_per_key(
        _read(sf_dir, "orders").select_columns(
            ["o_custkey", "o_orderdate"]),
        key="o_custkey", order_cols=["o_orderdate"], n_parts=16)
    cutoff = pa.scalar(datetime.datetime(2000, 1, 1))
    churned = last.map_batches(
        lambda b: b.filter(pc.less(b.column("o_orderdate"), cutoff)),
        batch_format="pyarrow", zero_copy_batch=True)

    import numpy as np

    ck = np.sort(np.concatenate(
        [blk.column("o_custkey").to_numpy(zero_copy_only=False)
         for blk in churned.iter_batches(batch_format="pyarrow")]
        or [np.zeros(0, dtype=np.int64)]))
    ck_ref = ray.put(ck)

    def seg_partial(b: pa.Table) -> pa.Table:
        keys = ray.get(ck_ref)
        cents = pc.cast(_pc_round(pc.multiply(
            b.column("c_acctbal"), 100.0)), pa.int64())
        b = b.set_column(b.schema.get_field_index("c_acctbal"),
                         "c_acctbal", cents)
        b = b.filter(pc.greater(b.column("c_acctbal"),
                                pa.scalar(avg_c100)))
        if b.num_rows == 0 or len(keys) == 0:
            return pa.table({"c_mktsegment": pa.array([], pa.string()),
                             "numcust": pa.array([], pa.int64()),
                             "totacctbal_c100": pa.array([], pa.int64())})
        v = b.column("c_custkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, v)
        pos[pos == len(keys)] = 0
        b = b.filter(pa.array(keys[pos] == v))
        g = pa.TableGroupBy(b, "c_mktsegment").aggregate(
            [([], "count_all"), ("c_acctbal", "sum")])
        return g.rename_columns(["c_mktsegment", "numcust",
                                 "totacctbal_c100"])

    folded = bucketed_group_sum(
        cust_ds.map_batches(seg_partial, batch_format="pyarrow",
                            zero_copy_batch=True),
        key="c_mktsegment", sum_cols=["numcust", "totacctbal_c100"],
        n_parts=4)
    rows = sorted(folded.take_all(), key=lambda r: r["c_mktsegment"])
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("c_mktsegment", pa.string()), ("numcust", pa.int64()),
         ("totacctbal_c100", pa.int64())]))


def bpe_token_stats(sf_dir: str):
    """Tokenizer-cost report: learn 40 BPE merges over the corpus, then
    ENCODE every document with them and fold per-source token totals
    (rows-only; the merge loop is iterative — the encode step's parity
    with a naive per-word BPE is pinned by
    test_bpe_encode_counts_matches_naive).  Learn → encode is the
    round-trip a training pipeline runs to size its packing budget."""
    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.text import bpe_encode_counts, bpe_learn

    docs = _read(sf_dir, "documents")
    merges = bpe_learn(docs, n_merges=40)
    encoded = bpe_encode_counts(docs, merges)

    src = _read(sf_dir, "documents").select_columns(["doc_id", "source"])
    import numpy as np
    import ray

    # doc_id → source broadcast (dims of this corpus; at corpus scale
    # carry `source` through bpe_encode_counts instead of re-joining)
    smap = {}
    for blk in src.iter_batches(batch_format="pyarrow"):
        for d, s in zip(blk.column("doc_id").to_pylist(),
                        blk.column("source").to_pylist()):
            smap[d] = s
    smap_ref = ray.put(smap)

    def tag(b: pa.Table) -> pa.Table:
        m = ray.get(smap_ref)
        srcs = [m[d] for d in b.column("doc_id").to_pylist()]
        t = pa.table({"source": pa.array(srcs, pa.string()),
                      "n_bpe_tokens": b.column("n_bpe_tokens"),
                      "docs": pa.array(np.ones(b.num_rows, np.int64))})
        g = pa.TableGroupBy(t, "source").aggregate(
            [("n_bpe_tokens", "sum"), ("docs", "sum")])
        return g.rename_columns(["source", "sum_tokens", "docs"])

    folded = bucketed_group_sum(
        encoded.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True),
        key="source", sum_cols=["sum_tokens", "docs"], n_parts=4)
    rows = sorted(folded.take_all(), key=lambda r: r["source"])
    return pa.Table.from_pylist(
        [{"source": r["source"], "sum_tokens": int(r["sum_tokens"]),
          "docs": int(r["docs"]),
          "avg_tokens_c100": _half_away(
              100.0 * r["sum_tokens"] / r["docs"])} for r in rows],
        schema=pa.schema([("source", pa.string()),
                          ("sum_tokens", pa.int64()),
                          ("docs", pa.int64()),
                          ("avg_tokens_c100", pa.int64())]))


def approx_users_per_type(sf_dir: str):
    """Approximate distinct users per event type via per-group HLL
    partials (rows-only: SQL cannot reproduce HLL register estimates;
    the ≤5% tracking error vs the exact plan is pinned by
    test_group_approx_distinct_tracks_exact, and determinism across
    blockings by test_group_approx_distinct_deterministic)."""
    from mdvalidate_ray.functions.relational import group_approx_distinct

    ev = _read(sf_dir, "events").select_columns(["event_type", "user_id"])
    out = group_approx_distinct(ev, group_col="event_type",
                                distinct_col="user_id", p=14,
                                out_name="approx_users")
    return out.map_batches(
        lambda b: b.take(pc.sort_indices(
            b, sort_keys=[("event_type", "ascending")])),
        batch_format="pyarrow")


def word_freq_cms(sf_dir: str):
    """Point-frequency estimation WITHOUT holding any keys: a
    Count-Min sketch folds over the corpus word stream (one fixed
    80 KiB grid per block — the exchange is O(blocks), independent of
    vocabulary size), then the exact oracled top-25 words (top_words)
    probe it.  Output carries both numbers so the CMS contract is
    visible in the rows: est_cnt ≥ exact cnt, est_cnt ≤ cnt + ε·N
    (rows-only: SQL cannot reproduce sketch grids; the bound itself is
    pinned by test_word_freq_cms_bounds)."""
    import numpy as np

    from mdvalidate_ray.state.sketches import CountMinSketch

    docs = _read(sf_dir, "documents").select_columns(["text"])

    def partial(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column("text"), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = tokens.combine_chunks() if isinstance(
            tokens, pa.ChunkedArray) else tokens
        words = flat.flatten()
        words = words.filter(pc.not_equal(words, ""))
        vc = words.value_counts()   # in-block combine before sketching
        cms = CountMinSketch(width=4096, depth=5).add(
            vc.field("values").to_numpy(zero_copy_only=False),
            counts=np.asarray(vc.field("counts"), dtype=np.int64))
        return pa.table({"cms": pa.array([cms.to_bytes()], pa.binary()),
                         "n": pa.array([int(len(words))], pa.int64())})

    merged, total = None, 0
    for blk in docs.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True).iter_batches(
            batch_format="pyarrow"):
        for blob, n in zip(blk.column("cms").to_pylist(),
                           blk.column("n").to_pylist()):
            part_cms = CountMinSketch.from_bytes(blob)
            merged = part_cms if merged is None else merged.merge(
                part_cms)
            total += int(n)
    top = top_words(sf_dir)
    words = [r["word"] for r in top.take_all()] if hasattr(
        top, "take_all") else top.column("word").to_pylist()
    exact = ([r["cnt"] for r in top.take_all()] if hasattr(
        top, "take_all") else top.column("cnt").to_pylist())
    est = merged.estimate(words) if merged is not None else []
    return pa.table({
        "word": pa.array(words, pa.string()),
        "cnt": pa.array([int(c) for c in exact], pa.int64()),
        "est_cnt": pa.array([int(e) for e in est], pa.int64()),
        "n_total": pa.array([total] * len(words), pa.int64())})


def qty_quantiles_disc(sf_dir: str):
    """Per-returnflag DISCRETE quantiles of l_quantity (quantile_disc —
    an actual data value at rank ceil(q·n)−1, never an interpolation):
    the counts-based exact plan again — the exchange carries in-block
    combined (flag, qty) value counts, ~50 rows per block regardless of
    corpus size."""
    from mdvalidate_ray.functions.window import group_quantiles_counts

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_returnflag", "l_quantity"])
    out = group_quantiles_counts(li, group_key="l_returnflag",
                                 value_col="l_quantity",
                                 qs=[0.25, 0.5, 0.75], method="disc")

    def fin(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column("l_returnflag"), b.column("q"),
             pc.cast(_pc_round(pc.multiply(b.column("q_value"), 100.0)),
                     pa.int64())],
            names=["l_returnflag", "q", "q_value_c100"])

    return out.map_batches(fin, batch_format="pyarrow",
                           zero_copy_batch=True)


def lineitem_unpivot_stats(sf_dir: str):
    """UNPIVOT (melt) of the four lineitem money/rate columns into long
    form, then per-metric count + exact int-cent sums — the reshaping
    op every report/plotting layer needs, exercised through
    :func:`~mdvalidate_ray.functions.relational.unpivot` (pure
    per-batch restructuring, partial sums fold with no wide exchange:
    the metric key space is 4)."""
    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     unpivot)

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    long = unpivot(_read(sf_dir, "lineitem"),
                   id_cols=["l_orderkey"], value_cols=cols,
                   value_type=pa.float64())

    def partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(_pc_round(pc.multiply(b.column("value"), 100.0)),
                        pa.int64())
        t = pa.table({"metric": b.column("metric").combine_chunks()
                      if isinstance(b.column("metric"), pa.ChunkedArray)
                      else b.column("metric"),
                      "sum_c100": cents,
                      "n": pa.array(np.ones(b.num_rows, np.int64))})
        g = pa.TableGroupBy(t, "metric").aggregate(
            [("sum_c100", "sum"), ("n", "sum")])
        return g.rename_columns(["metric", "sum_c100", "n"])

    folded = bucketed_group_sum(
        long.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="metric", sum_cols=["sum_c100", "n"], n_parts=4)
    rows = sorted(folded.take_all(), key=lambda r: r["metric"])
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("metric", pa.string()), ("sum_c100", pa.int64()),
         ("n", pa.int64())]))


def concat_chunk_manifest(sf_dir: str):
    """GPT-style concat-and-chunk packing manifest: every document's
    exact global token offset in the virtual stream formed by
    concatenating all docs in doc_id order, plus the 64-token training
    chunks it spans — the distributed exclusive prefix-sum primitive
    (window.global_ordered_prefix_sum: range-bucketed scan, no global
    sort).  Token count = single-space split (= DuckDB
    ``len(string_split(text,' '))``), so the whole manifest is
    integer-exact against the SQL window twin."""
    from mdvalidate_ray.functions.window import global_ordered_prefix_sum

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def ntok(b: pa.Table) -> pa.Table:
        col = pc.fill_null(pc.cast(b.column("text"), pa.string()), "")
        n = pc.add(pc.count_substring(col, " "), 1).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("doc_id").cast(pa.int64()), n],
            names=["doc_id", "n_tokens"])

    counted = docs.map_batches(ntok, batch_format="pyarrow",
                               zero_copy_batch=True)
    out = global_ordered_prefix_sum(counted, key="doc_id",
                                    value_col="n_tokens", n_parts=32)

    def finish(b: pa.Table) -> pa.Table:
        off = b.column("start_off").to_numpy(zero_copy_only=False)
        n = b.column("n_tokens").to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [b.column("doc_id"), b.column("n_tokens"),
             b.column("start_off"),
             pa.array(off // 64, pa.int64()),
             pa.array((off + n - 1) // 64, pa.int64())],
            names=["doc_id", "n_tokens", "start_off", "first_chunk",
                   "last_chunk"])

    return out.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def segment_dedup_docs(sf_dir: str):
    """C4-style cross-corpus segment dedup + reassembly: 10-word
    segments, first corpus occurrence (min (doc_id, seg_idx)) wins,
    surviving docs rebuilt from their kept segments in order
    (dedup.corpus_segment_dedup).  String-exact against the SQL twin
    (string_split + list slicing + min-packed-position join +
    string_agg)."""
    from mdvalidate_ray.functions.dedup import corpus_segment_dedup

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return corpus_segment_dedup(docs, key="doc_id", column="text",
                                seg_words=10, n_parts=64)


def semantic_dedup_flags(sf_dir: str):
    """SemDeDup over the embeddings table with planted exact copies
    (every 10th vec_id re-added under vec_id + 1_000_000): k-means
    co-location then per-cluster greedy cosine pruning
    (similarity.semantic_dedup).  Deterministic (fixed k-means seed,
    key-order greedy) but k-means-dependent — rows-only entry, pinned
    by tests/test_functions.py::test_semantic_dedup_*."""
    from mdvalidate_ray.functions.similarity import semantic_dedup

    embs = _read(sf_dir, "embeddings").select_columns(
        ["vec_id", "embedding"])

    def copies(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id")
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10))
        b = b.filter(pc.equal(mod, 0))
        return b.set_column(0, "vec_id",
                            pc.add(b.column("vec_id"), 1_000_000))

    aug = embs.union(embs.map_batches(copies, batch_format="pyarrow"))
    out = semantic_dedup(aug, key="vec_id", column="embedding",
                         k_clusters=8, threshold=0.999, iters=4)
    return out.map_batches(
        lambda b: b.select(["vec_id", "cluster", "kept"]),
        batch_format="pyarrow")


def nation_segment_gap(sf_dir: str):
    """FULL OUTER equi-join (the one join type the catalog lacked):
    per-nation BUILDING-segment customer counts vs per-nation
    high-acctbal supplier counts — nations that have only one side
    survive with a NULL-filled other side.  Both sides are tiny
    pre-aggregates (≤25 rows); a full outer join is not exact per left
    batch, so relational.hash_join runs it as one co-partition with
    Arrow's full-outer join per bucket, and the null-completion
    semantics are Arrow's own."""
    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     hash_join)

    # the acctbal cut keeps some nations on only one side at sf0.01, so
    # BOTH outer directions (null-completed left and right) are exercised
    # and hash-checked — not just the inner core
    cust = _read(sf_dir, "customer").select_columns(
        ["c_nationkey", "c_mktsegment", "c_acctbal"]).filter(
            expr="c_mktsegment == 'BUILDING' and c_acctbal > 9000.0")

    def ones_c(b: pa.Table) -> pa.Table:
        import numpy as np

        return pa.Table.from_arrays(
            [b.column("c_nationkey").cast(pa.int64()),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["nationkey", "_c"])

    c_counts = bucketed_group_sum(
        cust.map_batches(ones_c, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="nationkey", sum_cols=["_c"], n_parts=8).map_batches(
            lambda b: b.rename_columns(["nationkey", "n_building_cust"]),
            batch_format="pyarrow")

    supp = _read(sf_dir, "supplier").select_columns(
        ["s_nationkey", "s_acctbal"]).filter(expr="s_acctbal > 4500.0")

    def ones_s(b: pa.Table) -> pa.Table:
        import numpy as np

        return pa.Table.from_arrays(
            [b.column("s_nationkey").cast(pa.int64()),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["s_nationkey", "_c"])

    s_counts = bucketed_group_sum(
        supp.map_batches(ones_s, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="s_nationkey", sum_cols=["_c"], n_parts=8).map_batches(
            lambda b: b.rename_columns(["s_nationkey", "n_rich_supp"]),
            batch_format="pyarrow")

    joined = hash_join(c_counts, s_counts, on="nationkey",
                       right_on="s_nationkey", n_parts=8,
                       join_type="full_outer")

    def finish(b: pa.Table) -> pa.Table:
        # Arrow's full-outer join coalesces the left/right key columns
        # into the left name; only the measure nulls need completing.
        return pa.Table.from_arrays(
            [b.column("nationkey").cast(pa.int64()),
             pc.fill_null(b.column("n_building_cust"), -1).cast(
                 pa.int64()),
             pc.fill_null(b.column("n_rich_supp"), -1).cast(pa.int64())],
            names=["nationkey", "n_building_cust", "n_rich_supp"])

    return joined.map_batches(finish, batch_format="pyarrow")


def late_events(sf_dir: str):
    """Streaming watermark / late-data classification, batch-exact: the
    watermark before each event = MAX(event time) over all prior
    ARRIVALS (global EXCLUSIVE prefix-max —
    window.global_ordered_prefix_max, the range-bucket scan, no global
    sort), and an event is LATE iff watermark − own ts exceeds the
    1-hour allowed lateness — the rule streaming window systems use to
    route stragglers.  Integer-µs timestamps keep the whole
    classification hash-exact against the SQL window twin.  Output:
    per-event-time-day late vs total counts.

    The synthetic events table is PERFECTLY time-ordered (ts monotone
    in event_id — zero native disorder), so the arrival sequence is
    simulated deterministically on both sides: arrival key =
    ``((ts_us + jitter) // 1000) · 2^20 + event_id % 2^20`` with
    jitter = ``md5_lower64(event_id) % 2h − 1h`` (the DuckDB-parity
    hash) — mostly-ordered ingest with bounded ±1 h shuffling, the
    realistic late-data profile; the event_id low bits make the key
    unique, keeping the order total.  ~5–43 % of events classify late
    across sf0.001–0.1, so both branches of the rule are exercised."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.window import global_ordered_prefix_max

    ev = _read(sf_dir, "events").select_columns(["event_id", "ts"])

    def to_us(b: pa.Table) -> pa.Table:
        import numpy as np

        eid = b.column("event_id").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        ts = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        h = (_md5_token_hashes([str(v) for v in eid]).astype("uint64")
             if len(eid) else np.zeros(0, dtype="uint64"))
        jit = (h % np.uint64(7_200_000_000)).astype(
            "int64") - 3_600_000_000
        # the packed key is a TOTAL order only while event_id < 2^20
        # (widening the id field would overflow int64 at µs·2^23);
        # assert the bound loudly rather than go silently
        # nondeterministic past ~1M events — same packed-key contract
        # as the other ak-style keys in this module
        if len(eid) and int(eid.max()) >= (1 << 20):
            raise ValueError(
                "late_events: event_id >= 2^20 breaks the packed "
                "arrival key's unique-total-order contract")
        ak = (ts + jit) // 1000 * (1 << 20) + (eid % (1 << 20))
        return pa.Table.from_arrays(
            [pa.array(ak, pa.int64()), pa.array(ts, pa.int64())],
            names=["ak", "ts_us"])

    us = ev.map_batches(to_us, batch_format="pyarrow",
                        zero_copy_batch=True)
    marked = global_ordered_prefix_max(us, key="ak",
                                       value_col="ts_us", n_parts=32)

    def classify(b: pa.Table) -> pa.Table:
        ts = b.column("ts_us")
        wm = b.column("prev_max")
        late = pc.and_kleene(
            pc.is_valid(wm),
            pc.greater(pc.subtract(pc.fill_null(wm, 0), ts),
                       3_600_000_000))
        day = pc.divide(ts, 86_400_000_000).cast(pa.int64())
        import numpy as np

        return pa.Table.from_arrays(
            [day,
             pc.fill_null(late, False).cast(pa.int64()),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["day", "_late", "_one"])

    tagged = marked.map_batches(classify, batch_format="pyarrow")
    out = bucketed_group_sum(tagged, key="day",
                             sum_cols=["_late", "_one"], n_parts=8)
    return out.map_batches(
        lambda b: b.rename_columns(["day", "n_late", "n_total"]),
        batch_format="pyarrow")


def customer_pareto(sf_dir: str):
    """Pareto-frontier customers — not dominated on (order count, total
    spend), both maximized: the classic skyline operator (ICDE 2001)
    over an engine-derived aggregate.  Per-customer aggregate via the
    coarse-bucket combiner, then relational.skyline_2d (block-local
    skyline → one refine task).  Cents-scaled integer spend keeps the
    frontier hash-exact against the NOT EXISTS dominance oracle."""
    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     skyline_2d)

    orders = _read(sf_dir, "orders").select_columns(
        ["o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        import numpy as np

        cents = _pc_round(pc.multiply(b.column("o_totalprice"),
                                      100.0)).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("o_custkey").cast(pa.int64()),
             pa.array(np.ones(b.num_rows, dtype=np.int64)), cents],
            names=["custkey", "_n", "_spend"])

    agg = bucketed_group_sum(
        orders.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="custkey", sum_cols=["_n", "_spend"], n_parts=16)
    named = agg.map_batches(
        lambda b: b.rename_columns(["custkey", "n_orders", "spend_c"]),
        batch_format="pyarrow")
    return skyline_2d(named, x_col="n_orders", y_col="spend_c")


def cdc_segment_dedup_docs(sf_dir: str):
    """Content-defined (CDC) cross-corpus segment dedup + reassembly:
    segments end after "gear words" (``md5_lower64(word) % 8 == 0``,
    the DuckDB-parity hash), so boundary positions are functions of the
    text itself and an insertion resynchronizes at the next gear word —
    the property fixed-width ``segment_dedup_docs`` lacks.  First
    corpus occurrence wins, surviving docs rebuilt from kept segments
    (dedup.corpus_segment_dedup with ``gear_mod=8``).  String-exact
    against the SQL twin (per-word hash → running gear count = segment
    id → string_agg → min-packed-position keep-first → reassembly)."""
    from mdvalidate_ray.functions.dedup import corpus_segment_dedup

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return corpus_segment_dedup(docs, key="doc_id", column="text",
                                gear_mod=8, n_parts=64)


def source_lang_mi(sf_dir: str):
    """Mutual information between the source and language columns —
    the feature/label dependence screen a curation pipeline runs before
    trusting a metadata field (MI ≈ 0 ⇒ the field carries no signal).
    ``MI = H(source) + H(lang) − H(source, lang)`` computed exactly
    from joint value counts: per-batch ``group_by`` pre-combine (cells
    bounded by |sources| × |langs|, NOT by rows), a driver fold of
    O(blocks × cells) tiny partials, and one float64 evaluation over
    the ≤100 exact integer counts in sorted-cell order.  ×10000
    half-away rounding to int64 makes the hash compare
    float-order-proof (the group_entropy convention); the oracle is
    DuckDB's own ``entropy()`` identity on the same counts."""
    import numpy as np

    docs = _read(sf_dir, "documents").select_columns(["source", "lang"])

    def part(b: pa.Table) -> pa.Table:
        t = b.group_by(["source", "lang"]).aggregate([([], "count_all")])
        return t.rename_columns(["source", "lang", "_c"])

    agg: dict = {}
    for blk in docs.map_batches(
            part, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        for s, l, c in zip(blk.column("source").to_pylist(),
                           blk.column("lang").to_pylist(),
                           blk.column("_c").to_pylist()):
            agg[(s, l)] = agg.get((s, l), 0) + c

    cells = sorted(agg.items())
    c = np.array([v for _, v in cells], dtype=np.float64)
    n = c.sum()

    def H(counts: np.ndarray) -> float:
        return float(np.log2(n) - (counts * np.log2(counts)).sum() / n)

    xs = sorted({s for (s, _), _ in cells})
    ys = sorted({l for (_, l), _ in cells})
    cx = np.array([sum(v for (s, _), v in cells if s == x)
                   for x in xs], dtype=np.float64)
    cy = np.array([sum(v for (_, l), v in cells if l == y)
                   for y in ys], dtype=np.float64)
    mi = H(cx) + H(cy) - H(c)
    return pa.table({
        "mi_e4": pa.array([int(np.floor(mi * 10000.0 + 0.5))],
                          pa.int64()),
        "n_docs": pa.array([int(n)], pa.int64())})


def part_bfs_hops(sf_dir: str):
    """Single-source BFS hop counts over the part co-purchase graph
    (graph.bfs_hops: unit-weight min-plus rounds that relax only the
    last round's frontier over src-sorted edges — in-process, a
    broadcast frontier over cached edge blocks, or cached edge buckets
    by edge count; O(diameter) rounds, no edge re-shuffle) from the
    smallest part key present in any edge — reachability /
    blast-radius, the fourth graph primitive next to PageRank / k-core /
    components.
    Hop cap 5 on BOTH sides keeps the recursive-CTE oracle's working
    set bounded; integer hops make the comparison exact."""
    from ray.data.aggregate import Min

    from mdvalidate_ray.functions.graph import bfs_hops, cooccurrence_edges

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, group_col="l_orderkey",
                               item_col="l_partkey",
                               n_parts=32).materialize()
    seed = int(edges.aggregate(Min("u"))["min(u)"])
    out = bfs_hops(edges, seed=seed, max_rounds=5)
    return out.rename_columns(["l_partkey", "hops"])


def coverage_picks(sf_dir: str):
    """Greedy maximum-vocabulary-coverage selection of 10 documents
    (text.greedy_coverage_selection — submodular greedy, cached feature
    blocks + broadcast covered-bitset rounds).  Deterministic but
    iterative-greedy, so rows-only; exact-greedy parity is pinned by
    tests/test_functions.py::test_greedy_coverage_matches_bruteforce."""
    from mdvalidate_ray.functions.text import greedy_coverage_selection

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    # bigram features: the synthetic corpus has only ~31 distinct words
    # (one doc saturates unigram coverage); word bigrams give a rich
    # feature space so all 10 greedy rounds exercise
    return greedy_coverage_selection(docs, key="doc_id", column="text",
                                     k=10, ngram=2)


def golden_records(sf_dir: str):
    """Entity-resolution survivorship merge ("golden record"): cluster
    the augmented corpus on CANONICAL text (the normalized_docs
    normalization — NFC, lower, whitespace-collapsed), then merge each
    cluster into one canonical row by deterministic survivorship rules:
    golden_id = smallest member id, representative = the member
    maximizing (n_chars, then smallest id), plus the member count.
    Per-batch partial fold (sort + reduceat — at most one row per
    (batch, entity) ships) → ONE coarse entity-bucket
    exchange → vectorized per-bucket fold; group calls bounded by
    n_parts.  The argmax is packed as ``(C − n_chars)·2²² + doc_id``
    min-fold on BOTH sides, so the SQL twin's tie-breaking is
    bit-identical."""
    import numpy as np

    from mdvalidate_ray.functions.text import add_normalized

    N_PARTS = 16
    PACK = 1 << 22
    C = 100_000

    def partial(b: pa.Table) -> pa.Table:
        b = add_normalized(b, "text")
        doc = b.column("doc_id").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        nch = b.column("n_chars").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        nm = b.column("text_norm").to_pylist()
        order = np.lexsort((doc, np.asarray(nm, dtype=object)))
        nm_s = [nm[i] for i in order]
        doc_s, nch_s = doc[order], nch[order]
        first = np.ones(len(nm_s), dtype=bool)
        first[1:] = [nm_s[i] != nm_s[i - 1]
                     for i in range(1, len(nm_s))]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(nm_s))
        pack = (C - nch_s) * PACK + doc_s
        min_doc = np.minimum.reduceat(doc_s, starts) \
            if len(starts) else doc_s[:0]
        min_pack = np.minimum.reduceat(pack, starts) \
            if len(starts) else pack[:0]
        cnt = (ends - starts).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array([nm_s[i] for i in starts], pa.string()),
             pa.array(min_doc), pa.array(min_pack), pa.array(cnt)],
            names=["nm", "min_doc", "min_pack", "cnt"])

    parts = _augmented_docs(sf_dir).select_columns(
        ["doc_id", "text", "n_chars"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)

    def fold(g: pa.Table) -> pa.Table:
        nm = g.column("nm").to_pylist()
        md = g.column("min_doc").to_numpy(zero_copy_only=False)
        mp = g.column("min_pack").to_numpy(zero_copy_only=False)
        ct = g.column("cnt").to_numpy(zero_copy_only=False)
        order = np.lexsort((md, np.asarray(nm, dtype=object)))
        nm_s = [nm[i] for i in order]
        md, mp, ct = md[order], mp[order], ct[order]
        first = np.ones(len(nm_s), dtype=bool)
        first[1:] = [nm_s[i] != nm_s[i - 1]
                     for i in range(1, len(nm_s))]
        starts = np.flatnonzero(first)
        golden = np.minimum.reduceat(md, starts)
        pack = np.minimum.reduceat(mp, starts)
        members = np.add.reduceat(ct, starts)
        return pa.Table.from_arrays(
            [pa.array(golden), pa.array(members.astype(np.int64)),
             pa.array(pack % PACK),
             pa.array(C - pack // PACK)],
            names=["golden_id", "n_members", "rep_doc", "rep_len"])

    return by_bucket(parts, "nm", fold, N_PARTS)


def k_anonymity_violations(sf_dir: str):
    """Data-governance k-anonymity audit: quasi-identifier groups
    (lang, source, length-bucket) with fewer than k=5 members — rows in
    such groups are re-identifiable by their quasi-identifiers alone
    (Sweeney 2002).  One combiner pass (the coarse-bucket group-sum: the
    packed QI string ships at most once per batch) then a driver-free
    filter + unpack; integer counts keep the audit hash-exact."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    docs = _read(sf_dir, "documents").select_columns(
        ["lang", "source", "n_chars"])
    SEP = "\x1f"

    def prep(b: pa.Table) -> pa.Table:
        lb = pc.divide(b.column("n_chars"), 200).cast(pa.int64())
        qi = pc.binary_join_element_wise(
            pc.cast(b.column("lang"), pa.string()),
            pc.cast(b.column("source"), pa.string()),
            pc.cast(lb, pa.string()), SEP)
        return pa.Table.from_arrays(
            [qi, pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["qi", "_c"])

    counted = bucketed_group_sum(
        docs.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="qi", sum_cols=["_c"], n_parts=8)

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("_c"), 5))
        parts = pc.split_pattern(b.column("qi"), SEP)
        return pa.Table.from_arrays(
            [pc.list_element(parts, 0), pc.list_element(parts, 1),
             pc.cast(pc.list_element(parts, 2), pa.int64()),
             b.column("_c").cast(pa.int64())],
            names=["lang", "source", "len_bucket", "cnt"])

    return counted.map_batches(finish, batch_format="pyarrow")


def label_auc(sf_dir: str):
    """Exact distributed AUC (Mann-Whitney U with midrank tie handling)
    of the deterministic linear head's score for class label==0 — the
    model-evaluation primitive computed WITHOUT any global sort:

    1. task scoring (integer ``score_u``, the linear_scores
       contract) + per-batch (score, n_pos, n_tot) combiner;
    2. one coarse-bucket group-sum → per-DISTINCT-score counts (the
       score becomes a unique integer key);
    3. the range-bucket prefix scan (global_ordered_prefix_sum) over a
       PACKED value ``n_tot·2³¹ + n_pos`` — one scan yields both each
       score's counts and the count of strictly-smaller scores;
    4. a scalar fold: ``Σ n_pos(s)·(2·cum_less(s) + n_tot(s) + 1)``
       = twice the positives' midrank sum.  All integer;
       ``AUC = (u2_pos − n_pos(n_pos+1)) / (2·n_pos·n_neg)`` is one
       IEEE division of exact ints, bit-identical across engines."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.similarity import linear_scores
    from mdvalidate_ray.functions.window import global_ordered_prefix_sum

    emb = _read(sf_dir, "embeddings").select_columns(
        ["vec_id", "embedding", "label"])
    SHIFT = np.int64(1) << 31

    def score(b: pa.Table) -> pa.Table:
        s = linear_scores(b.select(["vec_id", "embedding"]))
        pos = pc.equal(b.column("label").cast(pa.int64()), 0) \
            .cast(pa.int64())
        return pa.Table.from_arrays(
            [s.column("score_u"), pos,
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["score_u", "_pos", "_tot"])

    counts = bucketed_group_sum(
        emb.map_batches(score, batch_format="pyarrow",
                        zero_copy_batch=True),
        key="score_u", sum_cols=["_pos", "_tot"], n_parts=16)

    def pack(b: pa.Table) -> pa.Table:
        v = pc.add(pc.multiply(b.column("_tot"), int(SHIFT)),
                   b.column("_pos"))
        return pa.Table.from_arrays(
            [b.column("score_u").cast(pa.int64()), v.cast(pa.int64())],
            names=["score_u", "_v"])

    scanned = global_ordered_prefix_sum(
        counts.map_batches(pack, batch_format="pyarrow"),
        key="score_u", value_col="_v", n_parts=16)

    def partial(b: pa.Table) -> pa.Table:
        v = b.column("_v").to_numpy(zero_copy_only=False)
        off = b.column("start_off").to_numpy(zero_copy_only=False)
        tot, pos = v // SHIFT, v % SHIFT
        cum_less = off // SHIFT
        u2 = (pos * (2 * cum_less + tot + 1)).sum()
        return pa.Table.from_pylist([{
            "u2": int(u2), "np": int(pos.sum()),
            "nn": int((tot - pos).sum())}])

    u2 = npos = nneg = 0
    for row in scanned.map_batches(
            partial, batch_format="pyarrow").take_all():
        u2 += row["u2"]; npos += row["np"]; nneg += row["nn"]
    auc = (u2 - npos * (npos + 1)) / (2.0 * npos * nneg)
    return pa.table({
        "u2_pos": pa.array([u2], pa.int64()),
        "n_pos": pa.array([npos], pa.int64()),
        "n_neg": pa.array([nneg], pa.int64()),
        "auc_e6": pa.array([int(np.floor(auc * 1e6 + 0.5))],
                           pa.int64())})


def calibration_bins(sf_dir: str):
    """Reliability-diagram bins for the linear head's score against
    label==0 — the calibration companion to label_auc: scores bucket
    into 10 equal-width bins over the observed [min, max] (two-pass:
    Min/Max aggregate, then one combiner pass), each bin reporting
    member count, positives, and the exact integer score sum — ECE and
    the reliability curve derive from these integers.  All-integer
    contract: hash-exact against the SQL twin."""
    import numpy as np

    from ray.data.aggregate import Max, Min

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.similarity import linear_scores

    emb = _read(sf_dir, "embeddings").select_columns(
        ["vec_id", "embedding", "label"])

    def score(b: pa.Table) -> pa.Table:
        s = linear_scores(b.select(["vec_id", "embedding"]))
        pos = pc.equal(b.column("label").cast(pa.int64()), 0) \
            .cast(pa.int64())
        return pa.Table.from_arrays(
            [s.column("score_u"), pos,
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["score_u", "_pos", "_tot"])

    scored = emb.map_batches(score, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    mm = scored.aggregate(Min("score_u"), Max("score_u"))
    lo, hi = int(mm["min(score_u)"]), int(mm["max(score_u)"])
    width = max(1, -(-(hi - lo + 1) // 10))   # ceil; ≥1 guards hi==lo

    def binned(b: pa.Table) -> pa.Table:
        s = b.column("score_u")
        bin_ = pc.divide(pc.subtract(s, lo), width).cast(pa.int64())
        return pa.Table.from_arrays(
            [bin_, b.column("_pos"), b.column("_tot"), s],
            names=["bin", "_pos", "_tot", "_sum"])

    out = bucketed_group_sum(
        scored.map_batches(binned, batch_format="pyarrow"),
        key="bin", sum_cols=["_pos", "_tot", "_sum"], n_parts=4)
    return out.map_batches(
        lambda b: b.rename_columns(["bin", "n_pos", "n_tot",
                                    "score_sum"]),
        batch_format="pyarrow")


def parity_rates(sf_dir: str):
    """Demographic-parity audit: per source (the sensitive attribute
    stand-in) the rate at which the linear head's score clears its
    GLOBAL median — integer counts per group plus the e6-rounded rate;
    the max−min rate gap (the parity metric) derives directly.  The
    global median threshold comes from the exact distributed selection
    quantile, so both engines threshold on the identical integer."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.similarity import linear_scores

    emb = _read(sf_dir, "embeddings").select_columns(
        ["vec_id", "embedding", "label"])

    def score(b: pa.Table) -> pa.Table:
        s = linear_scores(b.select(["vec_id", "embedding"]))
        # sensitive group = label (embeddings carry no source column);
        # the audit shape is the point, the attribute is a stand-in
        return pa.Table.from_arrays(
            [b.column("label").cast(pa.int64()), s.column("score_u")],
            names=["grp", "score_u"])

    scored = emb.map_batches(score, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    # exact global median of an integer column: lower median =
    # quantile(0.5, inverted_cdf) — k-th order statistic, k = ceil(n/2)
    n = scored.count()
    k = (n + 1) // 2

    # distributed k-th smallest via per-block partial sort would be the
    # selection_quantiles path; scores are ≤ a few M distinct ints, so
    # reuse the combiner: per-score counts, then one driver scan over
    # the ≤n tiny (score, cnt) rows in score order
    def ones(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column("score_u"),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["score_u", "_c"])

    counts = bucketed_group_sum(
        scored.map_batches(ones, batch_format="pyarrow"),
        key="score_u", sum_cols=["_c"], n_parts=8)
    rows = sorted((r["score_u"], r["_c"]) for r in counts.take_all())
    acc = 0
    med = rows[-1][0]
    for s_, c_ in rows:
        acc += c_
        if acc >= k:
            med = s_
            break

    def tag(b: pa.Table) -> pa.Table:
        hi = pc.greater(b.column("score_u"), med).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("grp"), hi,
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["grp", "_hi", "_tot"])

    out = bucketed_group_sum(
        scored.map_batches(tag, batch_format="pyarrow"),
        key="grp", sum_cols=["_hi", "_tot"], n_parts=4)

    def finish(b: pa.Table) -> pa.Table:
        hi = b.column("_hi").to_numpy(zero_copy_only=False)
        tot = b.column("_tot").to_numpy(zero_copy_only=False)
        rate = np.floor(hi / tot * 1e6 + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [b.column("grp"), pa.array(hi), pa.array(tot),
             pa.array(rate)],
            names=["grp", "n_above", "n_tot", "rate_e6"])

    return out.map_batches(finish, batch_format="pyarrow")


def part_cheapest_paths(sf_dir: str):
    """Weighted single-source cheapest paths over the part co-purchase
    graph (graph.bellman_ford_costs — min-plus relaxation rounds from
    the nodes the last round improved, on the same core and tiers as
    part_bfs_hops, which is its unit-weight case) from the smallest part
    key, edge weight ``1 + (u + v) % 5`` (a pure endpoint function both
    engines recompute).  3 rounds ⇒ exactly "cheapest cost over ≤ 3-edge
    paths", matching the hop-tracking recursive oracle; small integer
    weights keep the oracle's (node, cost, hops) working set bounded."""
    from ray.data.aggregate import Min

    from mdvalidate_ray.functions.graph import (bellman_ford_costs,
                                                cooccurrence_edges)

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, group_col="l_orderkey",
                               item_col="l_partkey",
                               n_parts=32).materialize()
    seed = int(edges.aggregate(Min("u"))["min(u)"])
    out = bellman_ford_costs(edges, seed=seed, max_rounds=3)
    return out.rename_columns(["l_partkey", "cost"])


def winnow_stats(sf_dir: str):
    """MOSS winnowing fingerprint statistics per document (3-gram
    hashes, window 4 — text.winnow_fingerprint_stats): window count and
    distinct selected-fingerprint count, the position-robust
    local-similarity signature of Schleimer et al. 2003.  Packed
    min/tie rule makes the SQL window-MIN twin bit-identical."""
    from mdvalidate_ray.functions.text import winnow_fingerprint_stats

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return winnow_fingerprint_stats(docs, key="doc_id", column="text",
                                    k=3, w=4)


def shard_assignment(sf_dir: str):
    """Rendezvous / highest-random-weight (HRW) consistent shard
    assignment (Thaler & Ravishankar 1998): every document goes to the
    shard maximizing ``md5_lower64(doc_id || '|' || shard)`` — the
    data-placement primitive whose removal property (deleting a shard
    moves ONLY that shard's keys) makes rebalancing at 100 TB pay
    1/n, not n-1/n, of the data; pinned by
    test_hrw_removal_moves_only_lost_shard.  Output: per-shard doc
    counts, hash-exact against the SQL argmax twin (ties broken to the
    lexically-smallest shard name on both sides — md5 ties are
    astronomically unlikely but the rule is still pinned)."""
    import numpy as np

    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    SHARDS = [f"shard{i:02d}" for i in range(8)]
    docs = _read(sf_dir, "documents").select_columns(["doc_id"])

    def assign(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").cast(pa.int64()).to_pylist()
        if not ids:
            return pa.table({"shard": pa.array([], pa.string()),
                             "_c": pa.array([], pa.int64())})
        # weight matrix: len(ids) × n_shards md5 weights; argmax row-wise
        n = len(ids)
        w = np.empty((n, len(SHARDS)), dtype=np.uint64)
        for j, s in enumerate(SHARDS):
            w[:, j] = _md5_token_hashes(
                [f"{d}|{s}" for d in ids])
        # ties → smallest shard index (np.argmax picks first maximum,
        # and SHARDS is lexically ordered)
        best = np.argmax(w, axis=1)
        return pa.table({
            "shard": pa.array([SHARDS[j] for j in best], pa.string()),
            "_c": pa.array(np.ones(n, dtype=np.int64))})

    counted = bucketed_group_sum(
        docs.map_batches(assign, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="shard", sum_cols=["_c"], n_parts=4)
    return counted.map_batches(
        lambda b: b.rename_columns(["shard", "n_docs"]),
        batch_format="pyarrow")


def custkey_skew(sf_dir: str):
    """Key-skew audit for the o_custkey partitioning key — the
    diagnosis side of the engine's skew-salting machinery
    (stages/skew.py): exact Gini coefficient of the per-key row-count
    distribution plus top-key share, computed WITHOUT materializing
    per-key counts on the driver: per-key counts fold in the coarse-
    bucket combiner, each bucket re-folds to its FREQUENCY-OF-
    FREQUENCIES (distinct count value → #keys), and the driver merges
    only those tiny (count, n_keys) pairs.  Gini from grouped
    frequencies is exact integer math: a run of ``f`` keys sharing
    count ``v`` after ``a`` smaller keys contributes
    ``v·(f·a + f(f+1)/2)`` to ``Σ i·c_(i)``; ``Gini = 2S/(nT) −
    (n+1)/n`` is then one IEEE division of exact integers."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    orders = _read(sf_dir, "orders").select_columns(["o_custkey"])

    def ones(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column("o_custkey").cast(pa.int64()),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["k", "_c"])

    per_key = bucketed_group_sum(
        orders.map_batches(ones, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="k", sum_cols=["_c"], n_parts=16)

    def fof(b: pa.Table) -> pa.Table:
        c = b.column("_c").to_numpy(zero_copy_only=False)
        v, f = np.unique(c, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(v), pa.array(f.astype(np.int64))],
            names=["cnt", "n_keys"])

    merged: dict = {}
    for blk in per_key.map_batches(
            fof, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        for v, f in zip(blk.column("cnt").to_pylist(),
                        blk.column("n_keys").to_pylist()):
            merged[v] = merged.get(v, 0) + f

    vs = sorted(merged)
    n = sum(merged.values())
    T = sum(v * merged[v] for v in vs)
    S = 0
    a = 0
    for v in vs:
        f = merged[v]
        S += v * (f * a + f * (f + 1) // 2)
        a += f
    gini = 2.0 * S / (n * T) - (n + 1) / n
    top_share = max(vs) / T
    return pa.table({
        "n_keys": pa.array([n], pa.int64()),
        "n_rows": pa.array([T], pa.int64()),
        "max_cnt": pa.array([max(vs)], pa.int64()),
        "gini_e6": pa.array([int(np.floor(gini * 1e6 + 0.5))],
                            pa.int64()),
        "top1_share_e6": pa.array([int(np.floor(top_share * 1e6 + 0.5))],
                                  pa.int64())})


def planted_skew_salted(sf_dir: str):
    """Skew-SALTING evidence on a PLANTED hot key: two thirds of
    orders rows collapse onto partition key 0 (the remainder keep
    their custkey), and the query must (a) catch the hot key with the
    sampled-histogram detector (stages/skew.detect_hot_keys — the
    SURVEY §4 north-star) and (b) aggregate through the SALTED
    duplicate-scan plan (uniqueness.duplicate_keys(salt_buckets=N):
    key-independent salt before the shuffle, unsalt by a second fold)
    — the function RAISES if detection misses or salting does not
    engage, so a green driver row proves the salted path executed on
    real skew.  Output: top-20 duplicated keys by (count desc, key
    asc) — exact SQL twin."""
    import numpy as np

    from mdvalidate_ray.functions.relational import topk_table
    from mdvalidate_ray.stages.skew import (detect_hot_keys,
                                            salt_buckets_for)
    from mdvalidate_ray.stages.uniqueness import duplicate_keys

    def plant(b: pa.Table) -> pa.Table:
        k = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        c = b.column("o_custkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"k": pa.array(np.where(k % 3 != 0, 0, c))})

    # one narrow int64 column: materialize so the detector pass and the
    # salted aggregate read the same plasma blocks instead of
    # re-deriving (8 B/row — object-store-bounded at any corpus size)
    planted = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_custkey"]).map_batches(
        plant, batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()
    n_rows = planted.count()
    # the planted key holds ~2/3 of all rows; a >10%-of-rows threshold
    # flags it at every scale with a 6x noise margin while staying far
    # above any natural custkey
    threshold = max(50, n_rows // 10)
    hot = detect_hot_keys(planted, "k", hot_threshold=threshold)
    if "0" not in hot:
        raise RuntimeError(
            f"sampled-histogram detector missed the planted hot key "
            f"(found {hot!r})")
    salt_buckets = salt_buckets_for(hot)   # one detector scan, one rule
    if not salt_buckets:
        raise RuntimeError("salting did not engage on the planted key")
    dups = duplicate_keys(planted, "k", salt_buckets=salt_buckets)
    # topk_table already returns the final (cnt desc, k asc) top-20
    out = topk_table(dups, 20, [("cnt", "descending"),
                                ("k", "ascending")])
    return pa.table({"k": out.column("k").cast(pa.int64()),
                     "cnt": out.column("cnt").cast(pa.int64())})


def ranking_overlap(sf_dir: str):
    """Rank-agreement profile between two rankings of the SAME user
    population — top-20 by total event value vs top-20 by event count:
    per depth d = 1..20 the overlap size |S₁:d ∩ S₂:d|, the integer
    backbone of rank-biased overlap / recall@k agreement metrics
    (heavy agreement expected — value correlates with activity — but
    not identity, so every depth exercises a real intersection).  Both
    rankings come from the distributed partial top-k
    (relational.topk_table — per-batch heads, driver merges #batches ×
    k rows); the per-depth intersection is O(k²) driver math over 40
    ids.  Deterministic tie-break (key ascending) on both sides keeps
    it hash-exact."""
    import numpy as np

    from mdvalidate_ray.functions.relational import (bucketed_group_sum,
                                                     topk_table)

    K = 20
    ev_v = _read(sf_dir, "events").select_columns(["user_id", "value"])

    def prep_o(b: pa.Table) -> pa.Table:
        cents = _pc_round(pc.multiply(b.column("value"),
                                      100.0)).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("user_id").cast(pa.int64()), cents],
            names=["k", "_spend"])

    spend = bucketed_group_sum(
        ev_v.map_batches(prep_o, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="k", sum_cols=["_spend"], n_parts=16)
    top_spend = topk_table(spend, K, [("_spend", "descending"),
                                      ("k", "ascending")])

    events = _read(sf_dir, "events").select_columns(["user_id"])

    def prep_e(b: pa.Table) -> pa.Table:
        import numpy as np

        return pa.Table.from_arrays(
            [b.column("user_id").cast(pa.int64()),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["k", "_n"])

    acts = bucketed_group_sum(
        events.map_batches(prep_e, batch_format="pyarrow",
                           zero_copy_batch=True),
        key="k", sum_cols=["_n"], n_parts=16)
    top_act = topk_table(acts, K, [("_n", "descending"),
                                   ("k", "ascending")])

    r1 = top_spend.column("k").to_pylist()
    r2 = top_act.column("k").to_pylist()
    # all K depths even when a ranking is shorter than K (few distinct
    # keys): prefixes truncate naturally, matching the SQL twin
    depths = list(range(1, K + 1))
    ov = [len(set(r1[:d]) & set(r2[:d])) for d in depths]
    return pa.table({
        "depth": pa.array(depths, pa.int64()),
        "n_overlap": pa.array(ov, pa.int64())})


def lang_confusion(sf_dir: str):
    """Language-ID confusion matrix — (gold lang, predicted lang, n):
    the annotation-agreement artifact (accuracy / Cohen's kappa derive
    from these integer cells) for the stopword language-ID stage.  The
    heuristic has an exact SQL twin (the lang_pred_counts oracle), so
    unlike the marginal pred counts the full JOINT distribution is
    hash-checked.  One task pass + per-batch group_by combiner +
    coarse-bucket fold; cells bounded by |langs|²."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.text import language_id

    pred = _read(sf_dir, "documents").select_columns(
        ["text", "lang"]).map_batches(language_id, batch_format="pyarrow",
                                      zero_copy_batch=True)
    SEP = "\x1f"

    def pairs(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(b.column("lang"), pa.string()),
            pc.cast(b.column("pred_lang"), pa.string()), SEP)
        return pa.Table.from_arrays(
            [key, pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["gp", "_c"])

    counted = bucketed_group_sum(
        pred.map_batches(pairs, batch_format="pyarrow"),
        key="gp", sum_cols=["_c"], n_parts=4)

    def finish(b: pa.Table) -> pa.Table:
        parts = pc.split_pattern(b.column("gp"), SEP)
        return pa.Table.from_arrays(
            [pc.list_element(parts, 0), pc.list_element(parts, 1),
             b.column("_c").cast(pa.int64())],
            names=["lang", "pred_lang", "n"])

    return counted.map_batches(finish, batch_format="pyarrow")


def pack_shards(sf_dir: str):
    """Greedy next-fit packing of the GLOBAL doc_id order into
    shard-local bins (seq_len=64, 4 range buckets) — the epoch-sharding
    variant next to :func:`pack_bins` (per-source first-fit) and
    :func:`concat_chunk_manifest` (concat-and-chunk): documents stay
    whole, bins close when the next doc would overflow, OVERSIZED docs
    get solo bins, and bins never cross shard boundaries (the per-shard
    packing contract; see
    :func:`mdvalidate_ray.functions.window.pack_nextfit`).  Token count
    = single-space split for integer-exact parity with the
    recursive-CTE SQL twin."""
    from mdvalidate_ray.functions.window import pack_nextfit

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def ntok(b: pa.Table) -> pa.Table:
        col = pc.fill_null(pc.cast(b.column("text"), pa.string()), "")
        n = pc.add(pc.count_substring(col, " "), 1).cast(pa.int64())
        return pa.Table.from_arrays(
            [b.column("doc_id").cast(pa.int64()), n],
            names=["doc_id", "n_tokens"])

    counted = docs.map_batches(ntok, batch_format="pyarrow",
                               zero_copy_batch=True)
    return pack_nextfit(counted, key="doc_id", value_col="n_tokens",
                        seq_len=64, n_parts=4)


def shuffle_head(sf_dir: str):
    """First 20 documents of the deterministic (seeded, reproducible)
    global training-order shuffle — a range-partitioned sort on
    md5-lower-64 of ``'shuf' || doc_id``, the resumable 100-TB
    alternative to ``random_shuffle`` (see
    :func:`mdvalidate_ray.functions.text.deterministic_shuffle`)."""
    import numpy as np

    from mdvalidate_ray.functions.text import deterministic_shuffle

    docs = _read(sf_dir, "documents").select_columns(["doc_id"])
    head = deterministic_shuffle(docs, key="doc_id", salt="shuf") \
        .limit(20)
    t = pa.concat_tables(
        head.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.table({
        "rank": pa.array(np.arange(1, t.num_rows + 1, dtype=np.int64)),
        "doc_id": t.column("doc_id").cast(pa.int64())})


def l_diversity_violations(sf_dir: str):
    """Data-governance l-diversity audit (Machanavajjhala et al. 2007):
    quasi-identifier groups (lang, length-bucket) whose SENSITIVE
    attribute (source) takes fewer than l=3 distinct values — such
    groups leak the sensitive value even when k-anonymous.  Two
    skew-proof coarse-bucket folds: per-batch distinct
    (QI, sensitive) pair counts → exact pair table → per-QI distinct
    count + member count; integer counts keep the audit hash-exact."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    docs = _read(sf_dir, "documents").select_columns(
        ["lang", "source", "n_chars"])
    SEP = "\x1f"

    def pairs(b: pa.Table) -> pa.Table:
        lb = pc.divide(b.column("n_chars"), 500).cast(pa.int64())
        key = pc.binary_join_element_wise(
            pc.cast(b.column("lang"), pa.string()),
            pc.cast(lb, pa.string()),
            pc.cast(b.column("source"), pa.string()), SEP)
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        vc = key.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["k3", "_c"])

    pair_tbl = bucketed_group_sum(
        docs.map_batches(pairs, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="k3", sum_cols=["_c"], n_parts=8)

    def to_qi(b: pa.Table) -> pa.Table:
        parts = pc.split_pattern(b.column("k3"), SEP)
        qi = pc.binary_join_element_wise(
            pc.list_element(parts, 0),
            pc.cast(pc.list_element(parts, 1), pa.string()), SEP)
        return pa.Table.from_arrays(
            [qi, pa.array(np.ones(b.num_rows, dtype=np.int64)),
             b.column("_c").cast(pa.int64())],
            names=["qi", "_d", "_c"])

    grouped = bucketed_group_sum(
        pair_tbl.map_batches(to_qi, batch_format="pyarrow",
                             zero_copy_batch=True),
        key="qi", sum_cols=["_d", "_c"], n_parts=8)

    out_schema = pa.schema([("lang", pa.string()),
                            ("len_bucket", pa.int64()),
                            ("n_sources", pa.int64()),
                            ("cnt", pa.int64())])

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("_d"), 3))
        if b.num_rows == 0:
            return out_schema.empty_table()
        parts = pc.split_pattern(b.column("qi"), SEP)
        return pa.Table.from_arrays(
            [pc.list_element(parts, 0).cast(pa.string()),
             pc.cast(pc.list_element(parts, 1), pa.int64()),
             b.column("_d").cast(pa.int64()),
             b.column("_c").cast(pa.int64())],
            names=["lang", "len_bucket", "n_sources", "cnt"])

    res = grouped.map_batches(finish, batch_format="pyarrow")
    # violations are O(QI groups) — collect into ONE schema-stable table
    # (an all-empty Dataset loses its schema: empty coarse buckets emit
    # schema-less blocks out of the groupby)
    blocks = [blk.select(out_schema.names).cast(out_schema)
              for blk in res.iter_batches(batch_format="pyarrow")
              if blk.num_rows]
    return pa.concat_tables([out_schema.empty_table()] + blocks)


def dsir_weights(sf_dir: str):
    """Per-document DSIR importance weight toward the lang='en' target
    slice (hashed unigram models, 4096 buckets) — the published
    data-selection score for "pick raw docs that look like the target
    domain"; see
    :func:`mdvalidate_ray.functions.text.dsir_importance_weights`."""
    from mdvalidate_ray.functions.text import dsir_importance_weights

    return dsir_importance_weights(
        _read(sf_dir, "documents"), id_col="doc_id", text_col="text",
        target_col="lang", target_value="en", n_buckets=4096)


def lm_perplexity_buckets(sf_dir: str):
    """CCNet-style perplexity filter: per-document NLL under the
    corpus-trained add-1 word-bigram LM, bucketed head/middle/tail by
    fixed avg-NLL thresholds; see
    :func:`mdvalidate_ray.functions.text.lm_bigram_nll`."""
    from mdvalidate_ray.functions.text import lm_bigram_nll

    return lm_bigram_nll(_read(sf_dir, "documents"),
                         id_col="doc_id", text_col="text")


def gopher_quality_flags(sf_dir: str):
    """Per-document Gopher quality-rule flags (Rae et al. 2021) over the
    documents corpus; see
    :func:`mdvalidate_ray.functions.text.gopher_quality_flags`."""
    from mdvalidate_ray.functions.text import gopher_quality_flags as g

    return g(_read(sf_dir, "documents"), id_col="doc_id",
             text_col="text")


def gopher_repetition_flags(sf_dir: str):
    """Per-document Gopher repetition-rule flags (dup lines, top / dup
    n-gram coverage) over the documents corpus; see
    :func:`mdvalidate_ray.functions.text.gopher_repetition_flags`."""
    from mdvalidate_ray.functions.text import gopher_repetition_flags as g

    return g(_read(sf_dir, "documents"), id_col="doc_id",
             text_col="text")


def c4_line_filter(sf_dir: str):
    """Per-document C4 line-cleaning outcome (Raffel et al. 2020) over
    the documents corpus; see
    :func:`mdvalidate_ray.functions.text.c4_line_filter`."""
    from mdvalidate_ray.functions.text import c4_line_filter as f

    return f(_read(sf_dir, "documents"), id_col="doc_id",
             text_col="text")


def pii_scan(sf_dir: str):
    """Per-document PII detector counts (email / IPv4 / phone / digit
    runs) over the documents corpus; see
    :func:`mdvalidate_ray.functions.text.pii_scan`."""
    from mdvalidate_ray.functions.text import pii_scan as f

    return f(_read(sf_dir, "documents"), id_col="doc_id",
             text_col="text")


def doc_word_entropy(sf_dir: str):
    """Per-document lexical diversity: Shannon entropy of the word
    distribution (plus exact n_words / n_distinct) — the
    type-token-ratio upgrade a curation pipeline uses to separate
    fluent prose (high entropy) from keyword-stuffed or templated text
    (low).  Entropy evaluates in float64 over EXACT integer counts in
    one pass (``log2 n − Σ c·log2 c / n``) and ships as an ×10⁴
    half-away integer; the oracle is DuckDB's own per-group
    ``entropy(word)`` identity on the same tokens — the
    source_lang_mi convention, per document.

    Scale shape: per-batch dictionary-encode + packed-key np.unique
    (no per-doc loop), zero exchange."""
    import numpy as np

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def score(b: pa.Table) -> pa.Table:
        n = b.num_rows
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.fill_null(pc.cast(b.column("text"), pa.string()), ""),
            characters=" "))
        toks = pc.split_pattern_regex(texts, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        words = toks.flatten()
        par = np.asarray(pc.list_parent_indices(toks)).astype(np.int64)
        keep = np.asarray(pc.not_equal(words, ""))
        words = words.filter(pa.array(keep))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        par = par[keep]
        n_words = np.bincount(par, minlength=n)
        codes = np.asarray(pc.dictionary_encode(words).indices)
        key = (par << np.int64(32)) | codes.astype(np.int64)
        uniq, cnt = np.unique(key, return_counts=True)
        gdoc = (uniq >> np.int64(32)).astype(np.int64)
        n_distinct = np.bincount(gdoc, minlength=n)
        s = np.zeros(n, dtype=np.float64)
        np.add.at(s, gdoc, cnt * np.log2(cnt))
        nz = n_words > 0
        h = np.zeros(n, dtype=np.float64)
        h[nz] = np.log2(n_words[nz]) - s[nz] / n_words[nz]
        e4 = np.floor(h * 10000.0 + 0.5).astype(np.int64)
        out = pa.Table.from_arrays(
            [b.column("doc_id").cast(pa.int64()),
             pa.array(n_words.astype(np.int64)),
             pa.array(n_distinct.astype(np.int64)), pa.array(e4)],
            names=["doc_id", "n_words", "n_distinct", "entropy_e4"])
        # empty docs are absent from the oracle's unnest — drop them
        return out.filter(pa.array(nz))

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


def user_interarrival_stats(sf_dir: str):
    """Per-user inter-arrival gap moments (count / min / max / Σ / Σ²
    of whole-second gaps between consecutive events in (ts, event_id)
    order) — the burstiness/regularity profile behind bot detection and
    session-timeout tuning, kept as EXACT integer moments so the
    LAG-window oracle is bit-equal (the float burstiness index
    (σ−μ)/(σ+μ) is one division away for any consumer).

    Scale shape: ONE user-keyed coarse co-partition (the
    event_transitions pattern), per-bucket vectorized lexsort +
    shifted-array diffs — no per-user loop; users with a single event
    have no gaps and are absent, exactly as the SQL's LAG-filter
    drops them."""
    import numpy as np

    n_parts = 16
    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_id"])

    out_schema = pa.schema(
        [("user_id", pa.int64()), ("n_gaps", pa.int64()),
         ("min_gap_s", pa.int64()), ("max_gap_s", pa.int64()),
         ("sum_gap_s", pa.int64()), ("sum_gap_sq", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, ts = u[order], ts[order]
        if len(u) < 2:
            return out_schema.empty_table()
        same = u[1:] == u[:-1]
        gap = (ts[1:] - ts[:-1]) // 1_000_000
        uu, inv = np.unique(u, return_inverse=True)
        gidx = inv[1:][same]
        gg = gap[same]
        k = len(uu)
        n_gaps = np.bincount(gidx, minlength=k)
        s1 = np.zeros(k, np.int64)
        np.add.at(s1, gidx, gg)
        s2 = np.zeros(k, np.int64)
        np.add.at(s2, gidx, gg * gg)
        mn = np.full(k, np.iinfo(np.int64).max)
        np.minimum.at(mn, gidx, gg)
        mx = np.full(k, np.iinfo(np.int64).min)
        np.maximum.at(mx, gidx, gg)
        hasg = n_gaps > 0
        return pa.Table.from_arrays(
            [pa.array(uu[hasg]), pa.array(n_gaps[hasg].astype(np.int64)),
             pa.array(mn[hasg]), pa.array(mx[hasg]),
             pa.array(s1[hasg]), pa.array(s2[hasg])],
            schema=out_schema)

    return by_bucket(ev, "user_id", per_bucket, n_parts)


def user_spend_drawup(sf_dir: str):
    """Per-user maximum DRAWUP and DRAWDOWN of the cumulative
    event-value series (largest rise above a running minimum / largest
    fall below a running maximum, exact integer cents, events in
    (ts, event_id) order) — the change-magnitude profile behind spree /
    churn-slump detection, and the CUSUM primitive in exact arithmetic.

    Scale shape: ONE user-keyed co-partition; inside a bucket the
    per-user running extrema are fully vectorized with the
    segment-offset trick (each user's values shift by segment_index ×
    2⁴⁴ so one global ``np.minimum.accumulate`` cannot leak across
    users — cents sums stay ≪ 2⁴⁴, asserted).  The oracle is the
    two-layer window SQL (cumsum → running extrema → grouped max),
    bit-equal because everything is int64."""
    import numpy as np

    n_parts = 16
    ev = _read(sf_dir, "events").select_columns(
        ["user_id", "ts", "event_id", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(_pc_round(pc.multiply(
            b.column("value"), 100.0)), pa.int64())
        return pa.Table.from_arrays(
            [b.column("user_id"), b.column("ts"), b.column("event_id"),
             cents], names=["user_id", "ts", "event_id", "cents"])

    out_schema = pa.schema(
        [("user_id", pa.int64()), ("n_events", pa.int64()),
         ("max_drawup_c100", pa.int64()),
         ("max_drawdown_c100", pa.int64())])
    SEG = np.int64(1) << np.int64(44)

    def per_bucket(g: pa.Table) -> pa.Table:
        u = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        if len(u) == 0:
            return out_schema.empty_table()
        order = np.lexsort((eid, ts, u))
        u, cents = u[order], cents[order]
        uu, inv = np.unique(u, return_inverse=True)
        seg_start = np.zeros(len(u), bool)
        seg_start[0] = True
        seg_start[1:] = u[1:] != u[:-1]
        # per-user cumsum: global cumsum minus each segment's base
        # (base forward-filled by np.repeat — sign-safe, unlike a
        # maximum.accumulate carry)
        cum = np.cumsum(cents)
        starts_idx = np.flatnonzero(seg_start)
        seg_base = cum[starts_idx] - cents[starts_idx]
        seg_len = np.diff(np.append(starts_idx, len(u)))
        cum = cum - np.repeat(seg_base, seg_len)
        assert np.abs(cum).max() < int(SEG) // 4, \
            "cents sums exceed the segment-offset headroom"
        # running extrema with per-segment reset: the offset must put
        # EARLIER segments on the losing side of the accumulate — above
        # for a running min (−shift), below for a running max (+shift)
        shift = inv.astype(np.int64) * SEG
        rmin = np.minimum.accumulate(cum - shift) + shift
        rmax = np.maximum.accumulate(cum + shift) - shift
        k = len(uu)
        n_ev = np.bincount(inv, minlength=k)
        up = np.zeros(k, np.int64)
        np.maximum.at(up, inv, cum - rmin)
        dn = np.zeros(k, np.int64)
        np.maximum.at(dn, inv, rmax - cum)
        return pa.Table.from_arrays(
            [pa.array(uu), pa.array(n_ev.astype(np.int64)),
             pa.array(up), pa.array(dn)],
            schema=out_schema)

    return by_bucket(ev.map_batches(to_cents, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     "user_id", per_bucket, n_parts)


def vocab_growth(sf_dir: str):
    """Heaps'-law vocabulary growth: new and cumulative distinct words
    per doc-id decile of the corpus — the saturation curve that tells a
    curator whether more crawl still buys new content (flat tail ⇒
    heavy duplication; the dedup-ROI estimate).  Exact: a word belongs
    to the decile of its FIRST document.

    Scale shape: per-batch (word → min doc_id) combiners via
    dictionary codes + ``np.minimum.at`` (a hot word is ONE row per
    batch in the exchange), one coarse word-hash co-partition folds
    global first-occurrences (each word in exactly one bucket), each
    bucket emits a ≤10-row decile histogram, the driver folds
    O(buckets × 10) ints and prefix-sums."""
    import numpy as np

    n_parts = 16
    n_docs = _docs_count(sf_dir)
    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def part(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.fill_null(pc.cast(b.column("text"), pa.string()), ""),
            characters=" "))
        toks = pc.split_pattern_regex(texts, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        words = toks.flatten()
        par = np.asarray(pc.list_parent_indices(toks)).astype(np.int64)
        keep = np.asarray(pc.not_equal(words, ""))
        words = words.filter(pa.array(keep))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        did = b.column("doc_id").to_numpy(zero_copy_only=False)[par[keep]]
        enc = pc.dictionary_encode(words)
        codes = np.asarray(enc.indices)
        first = np.full(len(enc.dictionary), np.iinfo(np.int64).max)
        np.minimum.at(first, codes, did)
        return pa.Table.from_arrays([enc.dictionary, pa.array(first)],
                                    names=["word", "fd"])

    def per_bucket(g: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(g.column("word").combine_chunks())
        codes = np.asarray(enc.indices)
        first = np.full(len(enc.dictionary), np.iinfo(np.int64).max)
        np.minimum.at(first, codes,
                      g.column("fd").to_numpy(zero_copy_only=False))
        dec = first * 10 // n_docs
        du, cnt = np.unique(dec, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(du.astype(np.int64)),
             pa.array(cnt.astype(np.int64))],
            names=["decile", "new_words"])

    agg: dict = {}
    for blk in by_bucket(docs.map_batches(part, batch_format="pyarrow",
                                          zero_copy_batch=True),
                         "word", per_bucket, n_parts) \
            .iter_batches(batch_format="pyarrow"):
        for d_, c_ in zip(blk.column("decile").to_pylist(),
                          blk.column("new_words").to_pylist()):
            agg[d_] = agg.get(d_, 0) + c_
    ds_ = sorted(agg)
    cums = np.cumsum([agg[d] for d in ds_])
    return pa.table({
        "decile": pa.array(ds_, pa.int64()),
        "new_words": pa.array([agg[d] for d in ds_], pa.int64()),
        "cum_words": pa.array(cums.astype(np.int64)),
    })


def orders_reconciliation(sf_dir: str):
    """Cross-table financial reconciliation audit: per order priority,
    how many orders' ``o_totalprice`` exactly / within-1% match the
    cents sum of their lineitems (``Σ round(eprice·(1−disc)·(1+tax)
    ·100)``), how many have no lineitems at all, and the total absolute
    drift — the ledger-vs-detail consistency check every warehouse runs
    before trusting either table.  All integers (per-row cents rounding
    is identical on both sides), so the oracle is bit-exact.

    Scale plan: lineitem collapses to per-batch (orderkey → cents)
    combiners; the lineitem partials and the orders rows meet ONCE in
    :func:`~mdvalidate_ray.exchange.co_partition` on the orderkey (the
    full-outer pattern of user_order_balance — neither side ever
    broadcasts); each bucket reconciles vectorized and emits ≤
    |priorities| partial rows; the driver folds O(n_parts × 5)."""
    import numpy as np

    n_parts = 16
    li_schema = pa.schema([("k", pa.int64()), ("exp", pa.int64())])

    def li_part(b: pa.Table) -> pa.Table:
        cents = pc.cast(_pc_round(pc.multiply(pc.multiply(
            pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0),
                                    b.column("l_discount"))),
            pc.add(pa.scalar(1.0), b.column("l_tax"))), 100.0)),
            pa.int64())
        k = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        ks = np.unique(k)
        s = np.zeros(len(ks), dtype=np.int64)
        np.add.at(s, np.searchsorted(ks, k),
                  np.asarray(cents, dtype=np.int64))
        return pa.Table.from_arrays([pa.array(ks), pa.array(s)],
                                    schema=li_schema)

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"]
    ).map_batches(li_part, batch_format="pyarrow", zero_copy_batch=True)
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def per_bucket(li_t: pa.Table, od: pa.Table) -> pa.Table:
        # fold lineitem partials per orderkey
        lk = li_t.column("k").to_numpy(zero_copy_only=False)
        le = li_t.column("exp").to_numpy(zero_copy_only=False)
        uk = np.unique(lk)
        s = np.zeros(len(uk), dtype=np.int64)
        np.add.at(s, np.searchsorted(uk, lk), le)
        # probe each order
        ok = od.column("o_orderkey").to_numpy(zero_copy_only=False)
        tot = np.asarray(pc.cast(_pc_round(pc.multiply(
            od.column("o_totalprice"), 100.0)), pa.int64()),
            dtype=np.int64)
        pri = np.asarray(od.column("o_orderpriority").to_pylist(),
                         dtype=object)
        if len(uk):
            pos = np.searchsorted(uk, ok)
            pos_c = np.minimum(pos, len(uk) - 1)
            found = uk[pos_c] == ok
            expo = np.where(found, s[pos_c], 0)
        else:
            found = np.zeros(len(ok), bool)
            expo = np.zeros(len(ok), np.int64)
        diff = tot - expo
        ups = np.unique(pri) if len(pri) else np.array([], object)
        rows = []
        for p in ups:
            m = pri == p
            miss = m & ~found
            hit = m & found
            rows.append((str(p), int(m.sum()), int(miss.sum()),
                         int((hit & (diff == 0)).sum()),
                         int((hit & (100 * np.abs(diff) <= tot)).sum()),
                         int(np.abs(diff[hit]).sum())))
        return pa.Table.from_arrays(
            [pa.array([r[i] for r in rows],
                      pa.string() if i == 0 else pa.int64())
             for i in range(6)],
            names=["o_orderpriority", "n_orders", "n_missing_li",
                   "n_exact", "n_within_1pct", "sum_abs_diff_c100"])

    folded = co_partition(li, orders, per_bucket, n_parts, on="k",
                          right_on="o_orderkey", left_schema=li_schema)
    agg: dict = {}
    for r in folded.take_all():
        cur = agg.get(r["o_orderpriority"], (0, 0, 0, 0, 0))
        agg[r["o_orderpriority"]] = tuple(
            cur[i] + r[c] for i, c in enumerate(
                ["n_orders", "n_missing_li", "n_exact",
                 "n_within_1pct", "sum_abs_diff_c100"]))
    pris = sorted(agg)
    return pa.table({
        "o_orderpriority": pa.array(pris, pa.string()),
        "n_orders": pa.array([agg[p][0] for p in pris], pa.int64()),
        "n_missing_li": pa.array([agg[p][1] for p in pris], pa.int64()),
        "n_exact": pa.array([agg[p][2] for p in pris], pa.int64()),
        "n_within_1pct": pa.array([agg[p][3] for p in pris],
                                  pa.int64()),
        "sum_abs_diff_c100": pa.array([agg[p][4] for p in pris],
                                      pa.int64()),
    })


def curation_scorecard(sf_dir: str):
    """The fused curation funnel report: ONE scan of the corpus runs
    all four rule families (Gopher quality, Gopher repetition, C4 line
    cleaning, PII) per batch and folds per-source keep counts — the
    shape a 100-TB pipeline actually runs (four separate scans of the
    same petabytes would quadruple the read bill; here every family
    shares the block already in memory).  Per-batch partials are ≤
    |sources| rows; one coarse source-keyed fold finishes.  The DuckDB
    oracle is composed verbatim from the four single-family oracles,
    so the fused pass can never drift from its parts."""
    import numpy as np

    from mdvalidate_ray.functions.relational import bucketed_group_sum
    from mdvalidate_ray.functions.text import (_c4_line_kernel,
                                               _gopher_quality_kernel,
                                               _gopher_repetition_kernel,
                                               _pii_kernel)

    qk = _gopher_quality_kernel("doc_id", "text")
    rk = _gopher_repetition_kernel("doc_id", "text")
    ck = _c4_line_kernel("doc_id", "text")
    pk = _pii_kernel("doc_id", "text")
    docs = _read(sf_dir, "documents").select_columns(
        ["doc_id", "text", "source"])
    sums = ["n_docs", "n_quality", "n_repetition", "n_c4_kept",
            "n_pii", "n_keep"]

    def part(b: pa.Table) -> pa.Table:
        q = np.asarray(qk(b).column("gopher_pass"))
        r = np.asarray(rk(b).column("repetition_pass"))
        c = np.asarray(ck(b).column("doc_kept"))
        p = np.asarray(pk(b).column("has_pii"))
        keep = q & r & c & ~p
        t = pa.Table.from_arrays(
            [b.column("source"),
             pa.array(np.ones(b.num_rows, np.int64)),
             pa.array(q.astype(np.int64)), pa.array(r.astype(np.int64)),
             pa.array(c.astype(np.int64)),
             pa.array(p.astype(np.int64)),
             pa.array(keep.astype(np.int64))],
            names=["source"] + sums)
        g = pa.TableGroupBy(t, "source").aggregate(
            [(c_, "sum") for c_ in sums])
        return g.rename_columns(["source"] + sums)

    folded = bucketed_group_sum(
        docs.map_batches(part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="source", sum_cols=sums, n_parts=4)
    rows = sorted(folded.take_all(), key=lambda r: r["source"])
    return pa.table({
        "source": pa.array([r["source"] for r in rows], pa.string()),
        **{c_: pa.array([int(r[c_]) for r in rows], pa.int64())
           for c_ in sums},
    })


def source_vocab_jaccard(sf_dir: str):
    """Pairwise vocabulary Jaccard between sources — the corpus-overlap
    matrix a curator reads before mixing crawls (near-identical vocab ⇒
    the sources are probably the same site scraped twice).  Exact
    distinct-word set intersection/union per source pair, all integers.

    Plan (the 100-TB shape): per-batch ``dictionary_encode`` collapses
    each block to its distinct words with a per-source PRESENCE BITMASK
    (``bitwise_or.at``), so the exchange carries one row per distinct
    (word, block) — never a token stream.  One coarse word-bucket
    co-partition ORs the masks per word (each word lands in
    exactly one bucket), emits a ≤2^|S| mask histogram per bucket, and
    the driver folds O(n_parts × masks) tiny partials into the |S|²/2
    pair table.  No all-pairs join, no word ever compared across
    buckets.  Requires |sources| ≤ 63 (int64 mask) — asserted."""
    import numpy as np

    n_parts = 16
    docs = _read(sf_dir, "documents").select_columns(["source", "text"])
    sources = sorted(docs.unique("source"))
    assert len(sources) <= 63, "int64 presence mask needs |sources| <= 63"
    sid = {s: np.int64(1) << np.int64(i) for i, s in enumerate(sources)}
    empty = pa.schema([("word", pa.string()), ("mask", pa.int64())])

    def marks(b: pa.Table) -> pa.Table:
        # RE2 '\s+' split on a space-only trim — byte-identical to the
        # oracle's string_split_regex(lower(text), '\s+') tokenization
        # (utf8_split_whitespace would also split NBSP-class unicode
        # whitespace the oracle's RE2 leaves alone)
        arr = pc.split_pattern_regex(pc.utf8_trim(
            pc.utf8_lower(pc.cast(b.column("text"), pa.string())),
            characters=" "), r"\s+")
        arr = arr.combine_chunks() if isinstance(
            arr, pa.ChunkedArray) else arr
        words = arr.values
        par = np.asarray(pc.list_parent_indices(arr)).astype(np.int64)
        keep = np.asarray(pc.not_equal(words, ""))
        if not keep.any():
            return empty.empty_table()
        words = words.filter(pa.array(keep))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        par = par[keep]
        src_masks = np.array(
            [sid[s] for s in b.column("source").to_pylist()],
            dtype=np.int64)
        enc = pc.dictionary_encode(words)
        codes = np.asarray(enc.indices)
        dictvals = enc.dictionary
        acc = np.zeros(len(dictvals), dtype=np.int64)
        np.bitwise_or.at(acc, codes, src_masks[par])
        return pa.Table.from_arrays([dictvals, pa.array(acc)],
                                    names=["word", "mask"])

    def per_bucket(g: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(g.column("word").combine_chunks())
        codes = np.asarray(enc.indices)
        acc = np.zeros(len(enc.dictionary), dtype=np.int64)
        np.bitwise_or.at(acc, codes, np.asarray(g.column("mask")))
        masks, cnt = np.unique(acc, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(masks), pa.array(cnt.astype(np.int64))],
            names=["mask", "cnt"])

    folded: dict = {}
    for blk in by_bucket(docs.map_batches(
            marks, batch_format="pyarrow", zero_copy_batch=True),
            "word", per_bucket, n_parts) \
            .iter_batches(batch_format="pyarrow"):
        for m, c in zip(blk.column("mask").to_pylist(),
                        blk.column("cnt").to_pylist()):
            folded[m] = folded.get(m, 0) + c

    masks = np.array(list(folded), dtype=np.int64)
    cnts = np.array([folded[m] for m in folded], dtype=np.int64)
    rows = []
    for i, a in enumerate(sources):
        n_a = int(cnts[(masks >> i) & 1 == 1].sum())
        for j in range(i + 1, len(sources)):
            n_b = int(cnts[(masks >> j) & 1 == 1].sum())
            both = ((masks >> i) & 1 == 1) & ((masks >> j) & 1 == 1)
            common = int(cnts[both].sum())
            if common >= 1:
                rows.append((a, sources[j], n_a, n_b, common,
                             n_a + n_b - common))
    rows.sort()
    return pa.table({
        "source_a": pa.array([r[0] for r in rows], pa.string()),
        "source_b": pa.array([r[1] for r in rows], pa.string()),
        "n_a": pa.array([r[2] for r in rows], pa.int64()),
        "n_b": pa.array([r[3] for r in rows], pa.int64()),
        "n_common": pa.array([r[4] for r in rows], pa.int64()),
        "n_union": pa.array([r[5] for r in rows], pa.int64()),
    })


def benford_order_totals(sf_dir: str):
    """Benford's-law first-digit audit of order totals (the classic
    financial-fraud / synthetic-data smoke test): distribution of the
    leading digit of the int-cent total, with an EXACT ×1e6 proportion
    via the integer half-away identity ``round(a/b) = (2a+b) // (2b)``
    (a,b > 0) — no float division exists on either side, so the oracle
    is bit-exact by construction.  Scale plan: per-batch digit
    histograms (≤9 rows each) fold on the driver — O(9 × blocks)
    partials regardless of input size; the digit is taken from the
    decimal STRING of the cents (same substr both sides), immune to
    log10 boundary error at exact powers of ten."""
    ords = _read(sf_dir, "orders").select_columns(["o_totalprice"])

    def part(b: pa.Table) -> pa.Table:
        cents = _pc_round(pc.multiply(b.column("o_totalprice"),
                                      100.0)).cast(pa.int64())
        digit = pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1)
        g = pa.TableGroupBy(pa.table({"digit": digit}),
                            ["digit"]).aggregate([([], "count_all")])
        return g.rename_columns(["digit", "cnt"])

    folded: dict[str, int] = {}
    for blk in ords.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True) \
            .iter_batches(batch_format="pyarrow"):
        for d, c in zip(blk.column("digit").to_pylist(),
                        blk.column("cnt").to_pylist()):
            folded[d] = folded.get(d, 0) + c
    total = sum(folded.values())
    digits = sorted(folded)
    return pa.table({
        "digit": pa.array([int(d) for d in digits], pa.int64()),
        "cnt": pa.array([folded[d] for d in digits], pa.int64()),
        "prop_e6": pa.array(
            [(2 * folded[d] * 1_000_000 + total) // (2 * total)
             for d in digits], pa.int64()),
    })


def events_daily_outliers(sf_dir: str):
    """Per-event-type daily-volume anomaly flags — the monitoring
    primitive over the engine's own daily rollup.  A day is an outlier
    when its count sits more than 3 population-σ from the type's mean;
    the test is evaluated in EXACT integers by squaring both sides:
    ``(n·x − s)² > 9·(n·q − s²)`` with s = Σcnt, q = Σcnt² — no sqrt,
    no float σ, so the SQL twin is bit-identical (n=1 degenerates to
    0 > 0 = stable).  Scale plan: the daily rollup is the events_daily
    combiner pipeline (≤ types×days partials cross the exchange); the
    per-type moment fold and flag pass run on the driver over those
    O(types×days) rows — at 100 TB the same flag is one broadcast of
    ≤|types| moment triples and a second map over the rollup."""
    daily = events_daily(sf_dir)
    rows = daily.take_all()                      # ≤ types×days
    by_type: dict[str, list] = {}
    for r in rows:
        by_type.setdefault(r["event_type"], []).append(
            (r["day"], int(r["cnt"])))
    et_out, day_out, cnt_out, flag_out = [], [], [], []
    for et in sorted(by_type):
        days = sorted(by_type[et])
        n = len(days)
        s = sum(c for _, c in days)
        q = sum(c * c for _, c in days)
        var_n2 = n * q - s * s                   # n² × population var
        for day, c in days:
            dev = n * c - s                      # n × (x − mean)
            et_out.append(et)
            day_out.append(day)
            cnt_out.append(c)
            flag_out.append(1 if dev * dev > 9 * var_n2 else 0)
    return pa.table({
        "event_type": pa.array(et_out, pa.string()),
        "day": pa.array(day_out, pa.string()),
        "cnt": pa.array(cnt_out, pa.int64()),
        "is_outlier": pa.array(flag_out, pa.int64()),
    })


def star_join_checksum(sf_dir: str):
    """Star-schema denormalization VERIFIED by checksum: widen every
    lineitem with part / supplier / nation / region names (the three
    dimension hops all broadcast — the canonical star join, zero
    shuffle), md5-hash each wide row, and fold (row count, Σhash mod
    2⁶¹−1) — a fact-table-sized transform whose result is two integers,
    so the SQL twin proves EVERY wide row matched without moving any of
    them.  Per-batch partials split the uint64 hashes into hi/lo-32
    sums — each term < 2³², so the int64 partial is exact up to ~2³¹
    rows per BATCH (blocks here are orders of magnitude smaller); the
    driver folds Python ints, so the cross-batch total is unbounded.
    Scale plan: dims broadcast once via ray.put; one pruned 4-column
    fact scan; ≤1 partial row per batch."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    P = (1 << 61) - 1
    part_t = _dim_table(sf_dir, "part", ["p_partkey", "p_name"])
    supp_t = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_name",
                                             "s_nationkey"])
    nation = _dim_table(sf_dir, "nation",
                        ["n_nationkey", "n_name", "n_regionkey"])
    region = _dim_table(sf_dir, "region", ["r_regionkey", "r_name"])
    n_names = dict(zip(nation.column("n_nationkey").to_pylist(),
                       nation.column("n_name").to_pylist()))
    r_names = dict(zip(region.column("r_regionkey").to_pylist(),
                       region.column("r_name").to_pylist()))
    n_region = dict(zip(nation.column("n_nationkey").to_pylist(),
                        nation.column("n_regionkey").to_pylist()))
    pk, pname = _int_key_map(part_t.column("p_partkey"),
                             part_t.column("p_name"))
    # resolve supplier → nation → region names ONCE, dropping suppliers
    # whose dim-to-dim keys dangle — their fact rows then drop exactly
    # like the oracle's chained inner joins
    s_rows = sorted(
        (int(k), nm, n_names[int(nk)],
         r_names[int(n_region[int(nk)])])
        for k, nm, nk in zip(supp_t.column("s_suppkey").to_pylist(),
                             supp_t.column("s_name").to_pylist(),
                             supp_t.column("s_nationkey").to_pylist())
        if int(nk) in n_names and int(nk) in n_region
        and int(n_region[int(nk)]) in r_names)
    sk = np.array([r[0] for r in s_rows], dtype=np.int64)
    sfull = np.asarray([f"{nm}|{nn}|{rn}" for _, nm, nn, rn in s_rows],
                       dtype=object)
    if len(sk) == 0 or len(pk) == 0:     # every fact row would drop
        return pa.table({"n_rows": pa.array([0], pa.int64()),
                         "checksum_m61": pa.array([0], pa.int64())})
    maps_ref = ray.put((pk, pname, sk, sfull))

    def partial(b: pa.Table) -> pa.Table:
        pkeys, pn, skeys, sfl = ray.get(maps_ref)
        pv = b.column("l_partkey").to_numpy(zero_copy_only=False)
        sv = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        pi = np.searchsorted(pkeys, pv)
        pi[pi == len(pkeys)] = 0
        si = np.searchsorted(skeys, sv)
        si[si == len(skeys)] = 0
        # dangling fact keys drop like the oracle's inner joins
        m = (pkeys[pi] == pv) & (skeys[si] == sv)
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False)[m]
        ln = b.column("l_linenumber").to_numpy(
            zero_copy_only=False).astype(np.int64)[m]
        pi, si = pi[m], si[m]
        rows = [f"{o}|{li}|{pn[p]}|{sfl[s]}"
                for o, li, p, s in zip(ok, ln, pi, si)]
        if not rows:
            return pa.table({"n": pa.array([0], pa.int64()),
                             "hi": pa.array([0], pa.int64()),
                             "lo": pa.array([0], pa.int64())})
        h = _md5_token_hashes(rows)
        return pa.table({
            "n": pa.array([len(rows)], pa.int64()),
            "hi": pa.array([int((h >> np.uint64(32)).sum(
                dtype=np.uint64))], pa.int64()),
            "lo": pa.array([int((h & np.uint64(0xFFFFFFFF)).sum(
                dtype=np.uint64))], pa.int64())})

    parts = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True).take_all()
    n = sum(r["n"] for r in parts)
    hi = sum(r["hi"] for r in parts)
    lo = sum(r["lo"] for r in parts)
    checksum = ((hi % P) * ((1 << 32) % P) + lo) % P
    return pa.table({"n_rows": pa.array([n], pa.int64()),
                     "checksum_m61": pa.array([checksum], pa.int64())})


def user_type_scd2(sf_dir: str):
    """Slowly-changing-dimension TYPE-2 builder from a change stream:
    per user, collapse the event sequence (ordered by ts, event_id)
    into validity intervals of ``event_type`` — one row per CHANGE with
    1-based version, ``valid_from_us`` and ``valid_to_us`` (the next
    change's timestamp in µs, −1 while current) — the warehouse
    history-table shape next to snapshot_diff's CDC.  All integers/
    strings, so the LAG/LEAD window SQL twin is bit-identical.  Scale
    plan: ONE coarse user-hash co-partition of the 4-column projection;
    in-bucket work is one lexsort + shifted-array change mask +
    cumcount — no per-user Python loop."""
    import numpy as np

    n_buckets = 16

    def project(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False)
        ts = b.column("ts").to_numpy(
            zero_copy_only=False).astype("datetime64[us]").view("int64")
        return pa.table({
            "u": pa.array(u.astype(np.int64)),
            "ts_us": pa.array(ts),
            "eid": b.column("event_id"),
            "et": b.column("event_type")})

    out_schema = pa.schema(
        [("user_id", pa.int64()), ("version", pa.int64()),
         ("event_type", pa.string()), ("valid_from_us", pa.int64()),
         ("valid_to_us", pa.int64())])

    def collapse(g: pa.Table) -> pa.Table:
        u = g.column("u").to_numpy(zero_copy_only=False)
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        eid = g.column("eid").to_numpy(zero_copy_only=False)
        uniq_et, codes = np.unique(g.column("et").to_pylist(),
                                   return_inverse=True)
        order = np.lexsort((eid, ts, u))
        u_s, ts_s, et_s = u[order], ts[order], codes[order]
        new_user = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        change = new_user | np.concatenate(
            ([True], et_s[1:] != et_s[:-1]))
        ci = np.flatnonzero(change)
        cu, cts, cet = u_s[ci], ts_s[ci], et_s[ci]
        cn = np.concatenate(([True], cu[1:] != cu[:-1]))
        # 1-based version via segment-offset cumcount
        seg_start = np.flatnonzero(cn)
        pos = np.arange(len(ci), dtype=np.int64)
        version = pos - seg_start[np.searchsorted(
            np.flatnonzero(cn), pos, side="right") - 1] + 1
        valid_to = np.concatenate((cts[1:], [np.int64(-1)]))
        valid_to[np.concatenate((cn[1:], [True]))] = -1
        return pa.Table.from_arrays(
            [pa.array(cu, pa.int64()), pa.array(version),
             pa.array([str(uniq_et[i]) for i in cet], pa.string()),
             pa.array(cts, pa.int64()), pa.array(valid_to, pa.int64())],
            schema=out_schema)

    return by_bucket(_read(sf_dir, "events").select_columns(
        ["event_id", "user_id", "ts", "event_type"]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True),
        "u", collapse, n_buckets)


def order_discount_proration(sf_dir: str):
    """Exact integer PRORATION (largest-remainder / Hamilton
    apportionment): allocate each order's 1%-of-total rebate (half-away
    cents) across its lineitems proportional to extendedprice —
    ``base = ⌊R·epᵢ/S⌋`` plus one extra cent to the ``R − Σbase``
    largest remainders, ties to the smaller linenumber.  Per-order
    allocations sum to the rebate EXACTLY — the apportionment shape
    behind revenue attribution, seat allocation and cost spreading,
    with a window-function SQL twin that is bit-identical.  Scale plan:
    ONE large×large hash join attaches the order rebate, then ONE
    coarse orderkey-hash co-partition colocates each order's lines;
    in-bucket work is lexsort + segment reduceat — no per-order Python
    loop."""
    import numpy as np

    from mdvalidate_ray.functions.relational import hash_join

    li = _read(sf_dir, "lineitem").select_columns(
        ["l_orderkey", "l_linenumber", "l_extendedprice"]).map_batches(
        lambda b: pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "l_linenumber": pc.cast(b.column("l_linenumber"),
                                    pa.int64()),
            "ep": pc.cast(_pc_round(pc.multiply(
                b.column("l_extendedprice"), 100.0)), pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    orders = _read(sf_dir, "orders").select_columns(
        ["o_orderkey", "o_totalprice"]).map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "rebate": pc.cast(pc.divide(pc.add(pc.multiply(pc.cast(
                _pc_round(pc.multiply(b.column("o_totalprice"), 100.0)),
                pa.int64()), 2), 100), 200), pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(li, orders, on="l_orderkey",
                       right_on="o_orderkey", n_parts=8)

    n_buckets = 16

    cols = ["l_orderkey", "l_linenumber", "ep", "rebate"]

    def project(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "l_orderkey" not in b.schema.names:
            return pa.table({c: pa.array([], pa.int64()) for c in cols})
        return b.select(cols)

    def prorate(g: pa.Table) -> pa.Table:
        o = g.column("l_orderkey").to_numpy(zero_copy_only=False)
        ln = g.column("l_linenumber").to_numpy(zero_copy_only=False)
        ep = g.column("ep").to_numpy(zero_copy_only=False)
        rb = g.column("rebate").to_numpy(zero_copy_only=False)
        order = np.lexsort((ln, o))
        o_s, ln_s, ep_s, rb_s = o[order], ln[order], ep[order], rb[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], o_s[1:] != o_s[:-1])))
        idx = np.searchsorted(o_s[starts], o_s)
        s = np.add.reduceat(ep_s, starts)[idx]     # per-order Σep
        prod = rb_s * ep_s
        base = prod // s
        rem = prod % s
        leftover = (rb_s[starts]
                    - np.add.reduceat(base, starts))[idx]
        # rank within order by (remainder desc, linenumber asc)
        rorder = np.lexsort((ln_s, -rem, o_s))
        rank = np.empty(len(o_s), dtype=np.int64)
        pos = np.arange(len(o_s), dtype=np.int64)
        rank[rorder] = pos - starts[idx[rorder]]
        alloc = base + (rank < leftover)
        return pa.table({"l_orderkey": pa.array(o_s, pa.int64()),
                         "l_linenumber": pa.array(ln_s, pa.int64()),
                         "alloc_c100": pa.array(alloc.astype(np.int64))})

    return by_bucket(joined.map_batches(project, batch_format="pyarrow",
                                        zero_copy_batch=True),
                     "l_orderkey", prorate, n_buckets)


def _eqdepth_via_selection(sf_dir: str) -> pa.Table:
    """price_eqdepth_hist past the budget: exact edges from
    :func:`~mdvalidate_ray.functions.relational.quantile_via_selection`
    (nothing distinct-value-sized on the driver) plus ONE counting pass
    for the cumulative counts at the 7 edges."""
    import numpy as np
    import ray

    from mdvalidate_ray.functions.relational import quantile_via_selection

    out_schema = pa.schema([("bucket", pa.int64()),
                            ("hi_c100", pa.int64()), ("n", pa.int64())])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({"c": pc.cast(_pc_round(pc.multiply(
            b.column("l_extendedprice"), 100.0)), pa.int64())})

    cents = _read(sf_dir, "lineitem").select_columns(
        ["l_extendedprice"]).map_batches(
        to_cents, batch_format="pyarrow",
        zero_copy_batch=True).materialize()
    qs = [i / 8 for i in range(1, 8)]
    edges = quantile_via_selection(cents, "c", qs)
    if edges[0] is None:
        return out_schema.empty_table()
    e = np.array([int(v) for v in edges], dtype=np.int64)
    e_ref = ray.put(e)

    def cnt(b: pa.Table) -> pa.Table:
        ee = ray.get(e_ref)
        v = np.sort(b.column("c").to_numpy(zero_copy_only=False))
        c = np.searchsorted(v, ee, side="right").astype(np.int64)
        return pa.table({
            "i": pa.array(np.arange(8, dtype=np.int64)),
            "c": pa.array(np.r_[c, np.int64(len(v))])})

    cum = np.zeros(8, dtype=np.int64)
    for blk in cents.map_batches(cnt, batch_format="pyarrow",
                                 zero_copy_batch=True).iter_batches(
                                     batch_format="pyarrow"):
        np.add.at(cum, np.asarray(blk.column("i").combine_chunks()),
                  np.asarray(blk.column("c").combine_chunks()))
    counts = np.diff(np.r_[np.int64(0), cum])
    rows = [{"bucket": i,
             "hi_c100": int(e[i]) if i < 7 else -1,
             "n": int(counts[i])}
            for i in range(8) if counts[i] > 0]
    return pa.Table.from_pylist(rows, schema=out_schema)


def price_eqdepth_hist(sf_dir: str):
    """Equi-DEPTH (equal-frequency) 8-bucket histogram of lineitem
    extendedprice cents — the optimizer-statistics primitive next to
    hist_text_len's equi-width bins: bucket edges are the exact
    quantile_disc values at i/8, and a row's bucket is ``Σ(c > edgeᵢ)``
    — pure integer compares on both sides, so edge ties land
    identically and the SQL twin is bit-exact.  Scale plan: ONE pruned
    scan emits per-batch (value, count) combiners; the driver folds the
    distinct-cents table and derives edges AND bucket counts from the
    same cumsum — no shuffle, no second scan (bounded-cardinality
    assumption, the same contract as exact_quantiles).  PAST that
    contract — when the streamed (value, count) partials outgrow the
    budget at 16 B a row (:func:`~mdvalidate_ray.tiers.plan_tier`) —
    the fold stops and :func:`_eqdepth_via_selection` takes over,
    bit-equal to the default (test_eqdepth_forced_selection_tier_parity).
    """
    import numpy as np

    def vc_partial(b: pa.Table) -> pa.Table:
        c = pc.cast(_pc_round(pc.multiply(
            b.column("l_extendedprice"), 100.0)), pa.int64())
        v, n = np.unique(np.asarray(c, dtype=np.int64),
                         return_counts=True)
        return pa.table({"c": pa.array(v),
                         "cnt": pa.array(n.astype(np.int64))})

    blocks, n_rows = [], 0
    for blk in _read(sf_dir, "lineitem").select_columns(
            ["l_extendedprice"]).map_batches(
            vc_partial, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        n_rows += blk.num_rows
        if tiers.plan_tier(n_rows, 16) == "partitioned":
            return _eqdepth_via_selection(sf_dir)
        if blk.num_rows:
            blocks.append(blk)
    out_schema = pa.schema([("bucket", pa.int64()),
                            ("hi_c100", pa.int64()), ("n", pa.int64())])
    if not blocks:
        return out_schema.empty_table()
    merged = pa.concat_tables(blocks)
    vs = merged.column("c").to_numpy(zero_copy_only=False)
    cs = merged.column("cnt").to_numpy(zero_copy_only=False)
    order = np.argsort(vs, kind="stable")
    vs, cs = vs[order], cs[order]
    starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
    vals = vs[starts]
    cnts = np.add.reduceat(cs, starts)
    cum = np.cumsum(cnts)
    n_total = int(cum[-1])
    # quantile_disc: the value at 1-indexed position ceil(q·n)
    e = np.array([vals[np.searchsorted(
        cum, max(int(np.ceil(i / 8 * n_total)), 1), side="left")]
        for i in range(1, 8)], dtype=np.int64)
    bucket_of = (vals[:, None] > e[None, :]).sum(axis=1)
    by_b = {int(b): int(cnts[bucket_of == b].sum())
            for b in np.unique(bucket_of)}
    # emit only non-empty buckets: heavy edge ties can starve a bucket,
    # and the SQL GROUP BY has no row for it
    rows = [{"bucket": i,
             "hi_c100": int(e[i]) if i < 7 else -1,
             "n": by_b[i]} for i in range(8) if i in by_b]
    return pa.Table.from_pylist(rows, schema=out_schema)


def _priority_mad_via_selection(sf_dir: str) -> pa.Table:
    """orders_priority_mad past the per-group budget: both levels by
    per-group distributed selection
    (:func:`~mdvalidate_ray.functions.relational.grouped_rank_via_selection`)
    — median first, then MAD as selection over the in-batch-derived
    ``|x − med_g|`` — with no group ever co-locating."""
    from mdvalidate_ray.functions.relational import (
        grouped_rank_via_selection)

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "p": pc.cast(b.column("o_orderpriority"), pa.string()),
            "c": pc.cast(_pc_round(pc.multiply(
                b.column("o_totalprice"), 100.0)), pa.int64())})

    cents = _read(sf_dir, "orders").select_columns(
        ["o_orderpriority", "o_totalprice"]).map_batches(
        to_cents, batch_format="pyarrow", zero_copy_batch=True)
    lower_med = lambda n: (n - 1) // 2 + 1   # noqa: E731
    med = grouped_rank_via_selection(
        cents, group_col="p", value_col="c", rank_of=lower_med)
    mad = grouped_rank_via_selection(
        cents, group_col="p", value_col="c", rank_of=lower_med,
        center={g: v for g, (_, v) in med.items()})
    rows = [{"o_orderpriority": g, "n": med[g][0],
             "med_c100": int(med[g][1]),
             "mad_c100": int(mad[g][1])} for g in sorted(med)]
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("o_orderpriority", pa.string()), ("n", pa.int64()),
         ("med_c100", pa.int64()), ("mad_c100", pa.int64())]))


def orders_priority_mad(sf_dir: str):
    """Robust per-group location and spread: exact LOWER-median and MAD
    (median absolute deviation) of the order total in integer cents per
    priority — quantile_disc semantics (sorted[⌊(n−1)/2⌋]) on both
    levels, so the two-level SQL twin is bit-exact with no
    interpolation float.  Scale plan: ONE coarse co-partition on
    hash(priority) of the 2-column (priority, cents) projection — exact
    medians need the group's values together (group-fits-in-worker
    assumption).  The order count bounds the largest group: when its
    (priority, cents) rows at 24 B each exceed the budget
    (:func:`~mdvalidate_ray.tiers.plan_tier`),
    :func:`_priority_mad_via_selection` takes over, bit-equal to the
    default tier (test_priority_mad_forced_selection_tier_parity).
    In-bucket work is one np.sort + segment indexing, no per-row
    Python."""
    import numpy as np
    import pyarrow.parquet as pq

    n_orders = pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    if tiers.plan_tier(n_orders, 24) == "partitioned":
        return _priority_mad_via_selection(sf_dir)

    def project(b: pa.Table) -> pa.Table:
        cents = pc.cast(_pc_round(pc.multiply(
            b.column("o_totalprice"), 100.0)), pa.int64())
        return pa.table({"p": b.column("o_orderpriority").cast(pa.string()),
                         "c": cents})

    def fold(g: pa.Table) -> pa.Table:
        uniq, codes = np.unique(g.column("p").to_pylist(),
                                return_inverse=True)
        c = g.column("c").to_numpy(zero_copy_only=False)
        order = np.lexsort((c, codes))
        p_s, c_s = codes[order], c[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], p_s[1:] != p_s[:-1])))
        ends = np.append(starts[1:], len(p_s))
        rows = []
        for st, en in zip(starts, ends):
            seg = c_s[st:en]
            m = len(seg)
            med = int(seg[(m - 1) // 2])          # seg already sorted
            dev = np.sort(np.abs(seg - med))
            rows.append({"o_orderpriority": str(uniq[p_s[st]]), "n": m,
                         "med_c100": med,
                         "mad_c100": int(dev[(m - 1) // 2])})
        return pa.Table.from_pylist(rows, schema=pa.schema(
            [("o_orderpriority", pa.string()), ("n", pa.int64()),
             ("med_c100", pa.int64()), ("mad_c100", pa.int64())]))

    return by_bucket(_read(sf_dir, "orders").select_columns(
        ["o_orderpriority", "o_totalprice"]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True),
        "p", fold, 4)


def _strict_inversions(c) -> int:
    """#{i<j : c_i > c_j} in O(n log² n): divide-and-conquer with a
    vectorized ``searchsorted`` cross count per merge level (each
    level's halves are already sorted, so cross-half inversions are
    one batched binary search — no per-pair work, no Python inner
    loop)."""
    import numpy as np

    c = np.asarray(c, dtype=np.int64)

    def rec(a: np.ndarray) -> tuple[int, np.ndarray]:
        n = len(a)
        if n <= 1:
            return 0, a
        m = n // 2
        il, left = rec(a[:m])
        ir, right = rec(a[m:])
        # pairs (i in left, j in right) with left_i > right_j
        cross = int(np.searchsorted(right, left, side="left").sum())
        merged = np.concatenate([left, right])
        merged.sort(kind="stable")
        return il + ir + cross, merged

    return rec(c)[0]


def mann_kendall_s(c) -> int:
    """Exact Mann–Kendall ``S = Σ_{i<j} sign(c_j − c_i)`` — TIERED on
    length: the O(n²) vectorized pairwise sign matrix below 2048
    points, the O(n log² n) inversion-count identity above it
    (``S = pairs_total − pairs_tied − 2·inversions`` — the promoted
    form of the seam events_trend_mk's docstring used to name; both
    tiers bit-equal, pinned by test_mann_kendall_inversion_tier)."""
    import numpy as np

    c = np.asarray(c, dtype=np.int64)
    n = len(c)
    if n < 2:
        return 0
    if n < 2048:
        diff = np.sign(c[None, :] - c[:, None])
        return int(np.triu(diff, k=1).sum())
    _, ties = np.unique(c, return_counts=True)
    t = ties.astype(np.int64)
    pairs_total = n * (n - 1) // 2
    pairs_tied = int((t * (t - 1) // 2).sum())
    return pairs_total - pairs_tied - 2 * _strict_inversions(c)


def events_trend_mk(sf_dir: str):
    """Per-event-type Mann–Kendall trend statistic over the daily
    rollup — the nonparametric monotone-trend monitor (Mann 1945,
    Kendall 1975) in EXACT integers: ``S = Σ_{i<j} sign(c_j − c_i)``
    over days in order, and the tie-corrected variance numerator
    ``var18 = n(n−1)(2n+5) − Σ_t t(t−1)(2t+5)`` (18·Var(S)) — no float
    anywhere, so the self-join SQL twin is bit-identical.  Scale plan:
    identical to events_daily_outliers — the rollup's combiner pipeline
    bounds the exchange at types×days partials; the per-type fold runs
    on the driver over those rows through :func:`mann_kendall_s`, which
    switches from the O(n²) sign matrix to the O(n log² n)
    inversion-count form past 2048 days (both tiers parity-pinned)."""
    import numpy as np

    daily = events_daily(sf_dir)
    by_type: dict[str, list] = {}
    for r in daily.take_all():                   # ≤ types×days
        by_type.setdefault(r["event_type"], []).append(
            (r["day"], int(r["cnt"])))
    rows = []
    for et in sorted(by_type):
        days = sorted(by_type[et])               # ISO strings sort right
        c = np.array([x for _, x in days], dtype=np.int64)
        n = len(c)
        s_stat = mann_kendall_s(c)
        _, ties = np.unique(c, return_counts=True)
        t = ties.astype(np.int64)
        var18 = int(n * (n - 1) * (2 * n + 5)
                    - int((t * (t - 1) * (2 * t + 5)).sum()))
        rows.append({"event_type": et, "n_days": n, "s_stat": s_stat,
                     "var18": var18})
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("event_type", pa.string()), ("n_days", pa.int64()),
         ("s_stat", pa.int64()), ("var18", pa.int64())]))
