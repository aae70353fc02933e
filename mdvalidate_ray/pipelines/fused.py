"""ONE-PASS constraint suite: validate + both parquet sinks + every wide
constraint's partials inside a single streaming ``map_batches`` operator.

The round-1 suite ran read → validate → ``materialize()`` → (write verdicts
‖ write violations ‖ fused sketch pass).  Overlapping the three tail
consumers helped, but the tail itself stayed a FLAT ~5 s at any CPU count
(three extra Dataset executions, a full object-store materialization, and a
verdict-parquet burst write against one disk) — the single largest
scaling-efficiency loss in the 8→32-CPU protocol (BASELINE.md).

This module removes the tail instead of overlapping it.  One task-pool
stage does, per zero-copy Arrow batch:

1. span-structure validation (:class:`ConstraintEvaluator`: the columnar
   block plan, then the per-document walk for the documents it hands
   back);
2. writes the batch's NARROW verdict rows straight to partitioned parquet
   (one file per input block, which is one per input file when read
   through :func:`~mdvalidate_ray.sources.io.read_documents`; named by a
   SHA-1 digest of the rows it writes → fixed-length whatever the
   doc_ids hold, idempotent under Ray task retries and resumable: a
   re-run can skip blocks whose file already exists);
3. writes the batch's exploded violation rows the same way (only ~10% of
   docs carry violations, so this sink is small);
4. folds the batch into the wide-constraint partials — HyperLogLog over
   ``doc_id`` (uniqueness), KLL over spans-per-doc (drift), and the
   broadcast referential probe of ``media_refs`` against the asset key set
   (``ray.get`` once per worker process, zero-copy from plasma; a ref
   cited twice by one document counts once);

and returns ONE summary row (~20 KiB of serialized sketches: HLL at
``p=14`` and KLL at ``k=200``, the sizes the checkpoint manifests merge
into).  Read through ``read_documents``, Ray plans the read and this
stage as one fused ``ReadParquet->MapBatches(fused_task_batch)``
operator.  The driver folds the per-block rows into the suite report —
for a 10^6-doc corpus that is 250 rows ≈ 5 MB through the object store
instead of a 1 GB materialized verdict stream, and at 10^12 docs it is
the only shape that works at all: no mid-pipeline materialization, no
burst write, no second pass over anything.  Disk/object-store output
bandwidth is consumed evenly across the whole run (~60 MB/s here vs a
~900 MB burst), so the write never serializes behind compute — on a
multi-node cluster each node streams to its own local sink, which is
exactly the N→4N-scalable layout the north rule asks for.

Reference lifecycle parity: read → validate → report per document
(reference src/cmd.rs:104–178) — here per block, with the exit-code fold
(`n_failed`) and the wide-constraint verdicts in one report dict.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray.stages.validate import (
    cached_evaluator as _cached_evaluator,
)
from mdvalidate_ray.stages.validate import explode_violations
from mdvalidate_ray.state.sketches import HyperLogLog, KLLSketch

PARTIAL_SCHEMA = pa.schema([
    ("rows", pa.int64()),
    ("n_passed", pa.int64()),
    ("n_violations", pa.int64()),
    ("n_spans", pa.int64()),
    ("hll", pa.binary()),
    ("kll", pa.binary()),
    ("n_dangling", pa.int64()),
    ("dangling_sample", pa.string()),   # JSON list, ≤10 refs
    ("verdict_file", pa.string()),
    ("violations_file", pa.string()),
    # per-batch phase timings (worker-side seconds; the driver fold sums
    # them into cumulative worker-seconds per phase — NOT wall time)
    ("eval_sec", pa.float64()),
    ("write_sec", pa.float64()),
    ("wide_sec", pa.float64()),
])


# Per-worker-process cache of the broadcast asset key set.  Ray reuses
# worker processes across tasks, so tasks get the setup amortization of an
# actor pool without its spin-up wave; the evaluator comes from the
# stage's own per-process cache (:func:`cached_evaluator`).  The key-set
# ray.get is a zero-copy plasma read cached by ObjectRef.
_KEYS_CACHE: dict = {}


def _cached_keys(keys_ref):
    if keys_ref is None:
        return None
    import ray

    from mdvalidate_ray.state.proc_cache import get_or_build

    def build():
        keys = ray.get(keys_ref)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return keys

    return get_or_build(_KEYS_CACHE, keys_ref.hex(), build, keep=4)


def _complete_parquet(path: str) -> bool:
    """True only for a file whose parquet footer parses — a task killed
    mid-write leaves a truncated file that must NOT satisfy
    skip_existing."""
    import pyarrow.parquet as pq

    try:
        pq.read_metadata(path)
        return True
    except Exception:
        return False


def _write_atomic(tbl: pa.Table, path: str) -> None:
    """Write to a pid-suffixed temp path and rename into place: readers
    (and skip_existing probes) never observe a partial file, and
    concurrent task retries last-write-win instead of interleaving."""
    import pyarrow.parquet as pq

    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(tbl, tmp, compression="snappy", use_dictionary=False)
    os.replace(tmp, path)


def _block_digest(*tables: pa.Table) -> str:
    """SHA-1 of the tables' Arrow IPC bytes: the sink files' name, so a
    retried task rewrites its own file and two blocks share a name only
    when they would write the same rows."""
    h = hashlib.sha1()
    for tbl in tables:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, tbl.schema) as w:
            w.write_table(tbl.combine_chunks())
        h.update(sink.getvalue())
    return h.hexdigest()


def _copy_atomic(src: str, dst: str) -> None:
    tmp = f"{dst}.tmp-{os.getpid()}"
    shutil.copyfile(src, tmp)
    os.replace(tmp, dst)


def fused_task_batch(batch: pa.Table, *, schema_text: str, out_dir: str,
                     viol_dir: str, asset_keys_ref=None,
                     skip_existing: bool = False) -> pa.Table:
    """One fused suite batch in, its partial-summary row out; the
    per-process caches hold the compiled schema and the asset key set."""
    import time

    if batch.num_rows == 0:
        return PARTIAL_SCHEMA.empty_table()
    t0 = time.monotonic()
    validated = _cached_evaluator(schema_text)(batch)
    t_eval = time.monotonic()

    # --- sinks: one file per input block, content-keyed name ------------
    verdicts = validated.select(["doc_id", "passed", "captures",
                                 "n_spans", "n_violations"])
    viol = explode_violations(validated)
    stem = _block_digest(verdicts, viol)
    vfile = os.path.join(out_dir, f"verdicts-{stem}.parquet")
    if not (skip_existing and _complete_parquet(vfile)):
        _write_atomic(verdicts, vfile)
    viol_file = ""
    if viol.num_rows:
        viol_file = os.path.join(viol_dir, f"violations-{stem}.parquet")
        if not (skip_existing and _complete_parquet(viol_file)):
            _write_atomic(viol, viol_file)
    t_write = time.monotonic()

    # --- wide-constraint partials ----------------------------------------
    hll = HyperLogLog()
    # straight to an object ndarray — no intermediate Python list hop
    hll.add(validated.column("doc_id").drop_null().to_numpy(
        zero_copy_only=False))
    kll = KLLSketch().update(
        validated.column("n_spans").cast(pa.float64()).to_numpy(
            zero_copy_only=False))
    n_dangling = None
    sample: list = []
    asset_keys = _cached_keys(asset_keys_ref)
    if asset_keys is not None:
        refs = validated.column("media_refs")
        if isinstance(refs, pa.ChunkedArray):
            refs = refs.combine_chunks()
        flat = refs.flatten()
        miss = pc.invert(pc.is_in(flat, value_set=asset_keys))
        # distinct (document, ref) pairs, in order of first appearance
        pairs = pa.TableGroupBy(pa.table({
            "doc": pc.list_parent_indices(refs).filter(miss),
            "ref": flat.filter(miss)}), ["doc", "ref"],
            use_threads=False).aggregate([])
        n_dangling = pairs.num_rows
        sample = pairs.column("ref").slice(0, 10).to_pylist()
    n_passed = pc.sum(pc.cast(validated.column("passed"),
                              pa.int64())).as_py() or 0
    return pa.Table.from_pylist([{
        "rows": validated.num_rows,
        "n_passed": n_passed,
        "n_violations": pc.sum(
            validated.column("n_violations")).as_py() or 0,
        "n_spans": pc.sum(validated.column("n_spans")).as_py() or 0,
        "hll": hll.to_bytes(),
        "kll": kll.to_bytes(),
        "n_dangling": n_dangling,
        "dangling_sample": json.dumps(sample),
        "verdict_file": vfile,
        "violations_file": viol_file,
        "eval_sec": t_eval - t0,
        "write_sec": t_write - t_eval,
        "wide_sec": time.monotonic() - t_write,
    }], schema=PARTIAL_SCHEMA)


def run_fused_suite(docs_ds, schema_text: str, out_dir: str, viol_dir: str,
                    asset_keys=None, *, skip_existing: bool = False) -> dict:
    """Run the whole constraint suite in ONE streaming pass.

    Returns the suite report: verdict counts, uniqueness (HLL estimate +
    bound, and the merged HLL itself), drift sketch (KLL), referential
    (distinct dangling (document, ref) pairs + sample), and the written
    file lists.  ``asset_keys`` is a pyarrow Array (or ChunkedArray) of
    valid asset ids, broadcast once via ``ray.put``, or the ObjectRef of
    one already put (so a caller running many passes broadcasts once);
    ``None`` skips the referential probe and reports ``n_dangling`` and
    ``passed`` as ``None``.  ``skip_existing=True`` makes a re-run
    resume: blocks whose verdict file already exists skip the
    (re-)write but still fold into the report.  Blocks that write
    identical rows (an input file present twice) share one digest name;
    each repeat gets a numbered copy, so the sinks always hold
    ``rows`` verdict rows.

    Each input block is one batch (``batch_size=None``), so a block
    read from one file writes one verdict file.  The stage runs as a
    plain task pool with per-worker-process state caches: setup is
    sub-millisecond here, and a task pool has neither an actor spin-up
    wave nor a fixed pool that can hold every CPU the read tasks need
    (on 1–2 CPUs such a pool never finished).
    """
    import ray

    from mdvalidate_ray.schema.compiler import compile_schema

    compile_schema(schema_text)   # driver-side fail-fast on schema errors
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(viol_dir, exist_ok=True)
    keys_ref = (asset_keys if asset_keys is None
                or isinstance(asset_keys, ray.ObjectRef)
                else ray.put(asset_keys))
    partials = docs_ds.map_batches(
        fused_task_batch,
        fn_kwargs={
            "schema_text": schema_text, "out_dir": out_dir,
            "viol_dir": viol_dir, "asset_keys_ref": keys_ref,
            "skip_existing": skip_existing,
        },
        batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()
    seen: Counter = Counter()
    for r in partials:
        n = seen[r["verdict_file"]]
        seen[r["verdict_file"]] += 1
        for key in ("verdict_file", "violations_file"):
            if n and r[key]:
                base, ext = os.path.splitext(r[key])
                dst = f"{base}-{n}{ext}"
                _copy_atomic(r[key], dst)
                r[key] = dst

    merged_hll = HyperLogLog()
    for r in partials:
        merged_hll.merge(HyperLogLog.from_bytes(r["hll"]))
    merged_kll = KLLSketch()
    for b in sorted(r["kll"] for r in partials):   # canonical merge order
        merged_kll.merge(KLLSketch.from_bytes(b))
    rows = sum(r["rows"] for r in partials)
    n_passed = sum(r["n_passed"] for r in partials)
    n_dangling = (None if keys_ref is None
                  else sum(r["n_dangling"] for r in partials))
    sample = [s for r in partials
              for s in json.loads(r["dangling_sample"])][:10]
    est = merged_hll.estimate()
    bound = 4 * merged_hll.rel_error * max(rows, 1)
    return {
        "rows": rows,
        "n_passed": n_passed,
        "n_failed": rows - n_passed,
        "total_violations": sum(r["n_violations"] for r in partials),
        "total_spans": sum(r["n_spans"] for r in partials),
        "uniqueness": {
            "approx_distinct": est,
            "sketch_bound": bound,
            "passed": abs(rows - est) <= bound,
            "verdict": "no_duplicates_at_sketch_resolution",
        },
        "doc_id_sketch": merged_hll,
        "spans_sketch": merged_kll,
        "referential": {"n_dangling": n_dangling, "sample": sample,
                        "passed": (None if n_dangling is None
                                   else n_dangling == 0)},
        "verdict_files": [r["verdict_file"] for r in partials],
        "violations_files": [r["violations_file"] for r in partials
                             if r["violations_file"]],
        # cumulative worker-seconds per phase (sum over batches across
        # all workers; phases overlap in wall time)
        "phase_worker_sec": {
            "eval": round(sum(r["eval_sec"] for r in partials), 3),
            "write": round(sum(r["write_sec"] for r in partials), 3),
            "wide": round(sum(r["wide_sec"] for r in partials), 3),
        },
    }
