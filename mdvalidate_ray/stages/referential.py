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
   front from the asset count, so partials are mergeable), then broadcast
   once via ``ray.put``; each task probes its batch, decoding the filter
   once per worker process.  A ref the Bloom rejects is *certainly*
   dangling (no false negatives) and is reported without any shuffle.
3. **Exact co-partitioned anti-join** — refs the Bloom accepts are only
   *maybe* valid (false-positive rate ε); they are verified exactly by
   co-partitioning tagged (probe ∪ asset-key) rows on ``media_ref`` in one
   :func:`~mdvalidate_ray.exchange.by_bucket` exchange and emitting probe
   rows whose bucket holds no equal asset key.  The join input is the
   *deduped accepted refs + asset keys*, not the corpus.  Steps 2–3 are
   :func:`~mdvalidate_ray.functions.relational.bloom_copartition`, shared
   with ``semi_join_keys``.
"""

from __future__ import annotations

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


def dangling_media_refs(docs_ds, assets_ds, *, fp_rate: float = 0.01):
    """Full constraint from the documents table (explodes spans itself)."""
    return check_refs(media_refs_dataset(docs_ds), assets_ds,
                      fp_rate=fp_rate)


def check_refs(refs0, assets_ds, *, fp_rate: float = 0.01):
    """(doc_id, media_ref) Dataset → dangling pairs.

    Tiered by :func:`~mdvalidate_ray.tiers.plan_dataset` on the
    materialized asset key column:

    * within the budget — broadcast the exact key set (an Arrow array;
      ~60 MB per million 50-byte keys) and anti-probe per batch.
      Exact, no shuffle, no Bloom needed.
    * past it — broadcast a Bloom (|assets|×~10 bits regardless of key
      width), report certain misses immediately, verify maybe-hits with
      the co-partitioned anti-join
      (:func:`~mdvalidate_ray.functions.relational.bloom_copartition`).
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

    from mdvalidate_ray.functions.relational import bloom_copartition

    return bloom_copartition(refs0, asset_keys, key="media_ref",
                             keys_col="asset_id", n_keys=n_assets,
                             fp_rate=fp_rate, n_parts=256,
                             keep_present=False)
