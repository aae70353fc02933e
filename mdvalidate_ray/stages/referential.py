"""Referential integrity: every non-empty ``media_ref`` must exist in the
asset table (north-star: "referential integrity of media_ref against an
asset table via broadcast Bloom filters with a hash-join fallback").

Plan (SURVEY.md §2.5):

1. **Explode only the ref-bearing spans** — pure Arrow
   (``list_parent_indices`` + filter), never the full spans column
   (SURVEY.md §7(c)): output is (doc_id, media_ref) pairs, deduped per
   batch by the combiner.
2. **Bloom broadcast probe** — the filter is built from the asset table via
   per-batch partial blooms OR-merged on the driver (bit-array size fixed up
   front from the asset count, so partials are mergeable), then shipped ONCE
   per probe actor through its constructor (Ray puts constructor args in the
   object store — the ``ray.put``-broadcast pattern).  A ref the Bloom
   rejects is *certainly* dangling (no false negatives) and is reported
   without any shuffle.
3. **Exact hash semi-join fallback** — refs the Bloom accepts are only
   *maybe* valid (false-positive rate ε); they are verified exactly by
   co-partitioning tagged (probe ∪ asset-key) rows on ``media_ref`` with one
   ``groupby().map_groups`` and emitting probe rows whose group has no asset
   row.  The join input is the *deduped accepted refs + asset keys*, not the
   corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray import tiers
from mdvalidate_ray.state.sketches import BloomFilter

REFS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("media_ref", pa.string()),
])


def explode_media_refs(batch: pa.Table) -> pa.Table:
    """documents batch → deduped (doc_id, media_ref) pairs, pure Arrow."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    parents = pc.list_parent_indices(spans)
    flat = spans.flatten()
    refs = flat.field("media_ref")
    mask = pc.and_kleene(pc.is_valid(refs), pc.not_equal(refs, ""))
    doc_ids = batch.column("doc_id").take(parents.filter(mask))
    pairs = pa.Table.from_arrays([doc_ids, refs.filter(mask)],
                                 schema=REFS_SCHEMA)
    # per-batch combiner: dedup identical (doc, ref) pairs before shuffling
    return pa.TableGroupBy(pairs, ["doc_id", "media_ref"]) \
             .aggregate([]).select(["doc_id", "media_ref"])


def media_refs_dataset(docs_ds):
    return docs_ds.map_batches(explode_media_refs, batch_format="pyarrow",
                               zero_copy_batch=True)


def build_bloom(assets_ds, column: str = "asset_id", n_items: int | None = None,
                fp_rate: float = 0.01) -> BloomFilter:
    """Per-batch partial Blooms (fixed geometry) OR-merged on the driver."""
    if n_items is None:
        n_items = assets_ds.count()

    def partial(b: pa.Table) -> pa.Table:
        bf = BloomFilter(n_items, fp_rate)
        bf.add(b.column(column).drop_null().to_pylist())
        return pa.Table.from_pylist([{"bloom": bf.to_bytes()}])

    merged = BloomFilter(n_items, fp_rate)
    for row in assets_ds.map_batches(partial, batch_format="pyarrow",
                                     zero_copy_batch=True).iter_rows():
        merged.merge(BloomFilter.from_bytes(row["bloom"]))
    return merged


class BloomProbe:
    """Actor-pool stage: constructor receives the serialized Bloom once per
    actor (broadcast); ``__call__`` tags each refs batch with an
    ``in_bloom`` column.  ONE probe pool feeds both consumers (definite
    danglings and exact-join suspects) through stateless downstream
    filters — two separate pools would each reserve min-actors and can
    together starve the task operators sharing the CPU budget."""

    def __init__(self, bloom_bytes: bytes):
        self.bloom = BloomFilter.from_bytes(bloom_bytes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        hits = self.bloom.might_contain(refs)
        return batch.append_column("in_bloom",
                                   pa.array(np.asarray(hits, dtype=bool)))


def _probe(refs_ds, bloom: BloomFilter, concurrency):
    return refs_ds.map_batches(
        BloomProbe,
        fn_constructor_kwargs={"bloom_bytes": bloom.to_bytes()},
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=concurrency)


def exact_antijoin(refs_ds, assets_ds, key_col: str = "asset_id",
                   n_buckets: int = 256):
    """Hash semi-join fallback: tagged union co-partitioned on
    ``hash(media_ref) % n_buckets`` — a fixed-fanout exchange — with a
    vectorized ``is_in`` anti-join inside each bucket group.  Bucketing
    (instead of grouping by raw ref) bounds the number of Python group
    calls at ``n_buckets`` regardless of key cardinality."""
    from mdvalidate_ray.state.sketches import hash_strings

    def _bucket(col) -> pa.Array:
        vals = col.to_pylist()
        if not vals:
            return pa.array([], pa.int64())
        return pa.array((hash_strings(vals) % np.uint64(n_buckets))
                        .astype("int64"))

    tagged_refs = refs_ds.map_batches(
        lambda b: b.append_column("is_asset",
                                  pa.array([False] * len(b), pa.bool_()))
                   .append_column("bucket", _bucket(b.column("media_ref"))),
        batch_format="pyarrow")
    tagged_assets = assets_ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pa.array([""] * len(b), pa.string()),
             b.column(key_col).cast(pa.string()),
             pa.array([True] * len(b), pa.bool_()),
             _bucket(b.column(key_col).cast(pa.string()))],
            names=["doc_id", "media_ref", "is_asset", "bucket"]),
        batch_format="pyarrow")

    def emit_dangling(group: pa.Table) -> pa.Table:
        is_asset = group.column("is_asset")
        probes = group.filter(pc.invert(is_asset))
        asset_keys = group.filter(is_asset).column("media_ref")
        if len(probes) == 0:
            return REFS_SCHEMA.empty_table()
        miss = pc.invert(pc.is_in(probes.column("media_ref"),
                                  value_set=asset_keys.combine_chunks()))
        return probes.filter(miss).select(["doc_id", "media_ref"])

    return (tagged_refs.union(tagged_assets)
            .groupby("bucket")
            .map_groups(emit_dangling, batch_format="pyarrow"))


def dangling_media_refs(docs_ds, assets_ds, *, fp_rate: float = 0.01,
                        concurrency=(1, 8)):
    """Full constraint from the documents table (explodes spans itself)."""
    return check_refs(media_refs_dataset(docs_ds), assets_ds,
                      fp_rate=fp_rate, concurrency=concurrency)


def check_refs(refs0, assets_ds, *, fp_rate: float = 0.01,
               concurrency=(1, 8)):
    """(doc_id, media_ref) Dataset → dangling pairs.

    Tiered by :func:`~mdvalidate_ray.tiers.plan_dataset` on the
    materialized asset key column:

    * within the budget — broadcast the exact key set (an Arrow array;
      ~60 MB per million 50-byte keys) and anti-probe per batch.
      Exact, no shuffle, no Bloom needed.
    * past it — broadcast a Bloom (|assets|×~10 bits regardless of key
      width), report certain misses immediately, verify maybe-hits with
      the co-partitioned hash anti-join.
    """
    # materialize the key column ONCE: count(), the broadcast collect
    # and the Bloom build would otherwise each re-run the asset lineage
    # (and a lazy to_arrow_refs adds its own schema-probe execution)
    asset_keys = assets_ds.select_columns(["asset_id"]).materialize()
    n_assets = asset_keys.count()
    if tiers.plan_dataset(asset_keys) != "partitioned":
        import ray

        blks = [b.select(["asset_id"]) for b in
                (ray.get(r) for r in asset_keys.to_arrow_refs())
                if b.num_rows]   # 0-row filter leftovers can be schema-less
        key_tbl = (pa.concat_tables(blks) if blks else
                   pa.table({"asset_id": pa.array([], pa.string())}))
        keys = key_tbl.column("asset_id").cast(pa.string()).combine_chunks()
        # TASK-based probe with an explicit ray.put broadcast: the key set
        # lives in plasma once, each task reads it zero-copy.  Tasks reuse
        # the warm worker pool — no per-stage actor spawn (an actor pool
        # here paid ~1-2s of process startup for a 2-3s stage).
        keys_ref = ray.put(keys)

        def probe(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            miss = pc.invert(pc.is_in(batch.column("media_ref"),
                                      value_set=ks))
            return batch.filter(miss).select(["doc_id", "media_ref"])

        return refs0.map_batches(probe, batch_format="pyarrow",
                                 zero_copy_batch=True)

    bloom = build_bloom(asset_keys, n_items=n_assets, fp_rate=fp_rate)
    refs = refs0
    # materialize the tagged refs: both downstream branches consume them,
    # and without a barrier each branch would re-execute the probe lineage
    # (two actor pools, double work, and together they can starve the
    # shared CPU budget).  Refs are a small fraction of the corpus —
    # blocks stay in the object store and spill if needed.
    tagged = _probe(refs, bloom, concurrency=concurrency).materialize()
    definite = tagged.map_batches(
        lambda b: b.filter(pc.invert(b.column("in_bloom")))
                   .select(["doc_id", "media_ref"]),
        batch_format="pyarrow")
    suspects = tagged.map_batches(
        lambda b: b.filter(b.column("in_bloom"))
                   .select(["doc_id", "media_ref"]),
        batch_format="pyarrow")
    fallback = exact_antijoin(suspects, asset_keys)
    return definite.union(fallback)
