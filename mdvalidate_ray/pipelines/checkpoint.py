"""Per-partition checkpoint / resume (north_rule: "resumable from checkpoint
with per-partition lineage + metrics").

The reference's only resume machinery is intra-document
(``farthest_reached_pos``, reference validator.rs:38, 161–185).  The batch
analog is per-*partition*: the driver splits the input into K partitions
(index ranges for the synthetic corpus, file groups for parquet), runs
the fused one-pass suite partition-by-partition, and appends one manifest
record per finished partition, built from that pass's report:

``{partition_id, lineage, rows, n_passed, n_violations, n_dangling,
sketches (serialized HLL of doc_id + KLL of span counts), wall_sec,
status}`` — ``n_dangling`` is ``null`` when the run has no asset table.

Output parquet is partition-keyed (``out_dir/verdicts/part=K/`` and
``out_dir/violations/part=K/``), so a retried partition overwrites its own
directories idempotently and a resumed run skips every partition already
in the manifest — matching FIXTURES.md B7 (byte-identical global output vs
an uninterrupted run).

Each partition run is itself a streaming Ray Data pipeline; partitions
exist only to bound the blast radius of a failure, not to limit
parallelism (a partition's blocks still fan out across the cluster).
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import time
from typing import Callable

from mdvalidate_ray.pipelines.fused import run_fused_suite
from mdvalidate_ray.sources.io import (
    CorpusInputError,
    corpus_files,
    read_documents,
)
from mdvalidate_ray.state.sketches import HyperLogLog, KLLSketch

MANIFEST = "manifest.jsonl"


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST)


def load_manifest(out_dir: str) -> dict[int, dict]:
    """partition_id → newest record with status=done."""
    done: dict[int, dict] = {}
    path = _manifest_path(out_dir)
    if not os.path.exists(path):
        return done
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("status") == "done":
                done[rec["partition_id"]] = rec
    return done


def _append_manifest(out_dir: str, rec: dict) -> None:
    with open(_manifest_path(out_dir), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")


def run_checkpointed(
    make_partition: Callable[[int], "object"],
    lineage: Callable[[int], dict],
    num_partitions: int,
    out_dir: str,
    schema_text: str,
    *,
    asset_keys=None,
    max_partitions: int | None = None,
) -> list[dict]:
    """Run (or resume) the checkpointed validation suite.

    ``make_partition(k)`` returns partition k's documents Dataset;
    ``lineage(k)`` returns its JSON-serializable lineage record (index
    range / input files).  Each partition is one
    :func:`~mdvalidate_ray.pipelines.fused.run_fused_suite` pass into
    ``verdicts/part=k`` and ``violations/part=k``, with referential
    integrity probed against ``asset_keys`` (``None`` skips it); its
    manifest record comes from that pass's report, so nothing is re-read.
    A finished partition is skipped only if its recorded lineage equals
    ``lineage(k)`` and it was probed against an asset table exactly when
    this run has one — otherwise :class:`CorpusInputError`, since a
    changed input would leave new documents unvalidated while the report
    claims complete.  Records from before ``n_dangling`` was recorded
    (an older verdict layout) are refused the same way.  ``max_partitions`` stops early after that many
    *newly processed* partitions — the test hook for simulated failure.
    """
    import ray

    os.makedirs(out_dir, exist_ok=True)
    done = load_manifest(out_dir)
    for k, rec in sorted(done.items()):
        # compared in JSON form: the manifest stores tuples as lists
        if k >= num_partitions or rec.get("lineage") != json.loads(
                json.dumps(lineage(k))):
            problem = ("was completed with a different input (lineage "
                       "mismatch): the input changed since the last run")
        elif "n_dangling" not in rec:
            problem = "was written by an older version of this tool"
        elif (rec["n_dangling"] is None) != (asset_keys is None):
            problem = "was completed with a different asset-table setting"
        else:
            continue
        raise CorpusInputError(
            f"partition {k} {problem}; use a fresh output directory")
    # one broadcast of the key set serves every partition's pass
    keys_ref = None if asset_keys is None else ray.put(asset_keys)
    records = [done[k] for k in sorted(done)]
    processed = 0
    for k in range(num_partitions):
        if k in done:
            continue
        if max_partitions is not None and processed >= max_partitions:
            break
        t0 = time.monotonic()
        dirs = [os.path.join(out_dir, sink, f"part={k}")
                for sink in ("verdicts", "violations")]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)  # idempotent retry
        rep = run_fused_suite(make_partition(k), schema_text, *dirs,
                              keys_ref)
        rec = {
            "partition_id": k,
            "lineage": lineage(k),
            "rows": rep["rows"],
            "n_passed": rep["n_passed"],
            "n_violations": rep["total_violations"],
            "n_dangling": rep["referential"]["n_dangling"],
            "hll": base64.b64encode(rep["doc_id_sketch"].to_bytes()).decode(),
            "kll": base64.b64encode(rep["spans_sketch"].to_bytes()).decode(),
            "wall_sec": round(time.monotonic() - t0, 3),
            "status": "done",
        }
        _append_manifest(out_dir, rec)
        records.append(rec)
        processed += 1
    return sorted(records, key=lambda r: r["partition_id"])


def run_checkpointed_parquet(input_path: str, partitions: int, out_dir: str,
                             schema_text: str, *, asset_keys=None) -> dict:
    """Checkpointed validation of a parquet input: its files
    (:func:`~mdvalidate_ray.sources.io.corpus_files`) are dealt
    round-robin into ``min(partitions, n_files)`` partitions, each
    lineage-recorded as its file group and read one block per file.
    Returns :func:`global_report`."""
    if partitions < 1:
        raise CorpusInputError(
            f"partitions must be at least 1, got {partitions}")
    files = corpus_files(input_path)
    k = min(partitions, len(files))
    groups = [files[i::k] for i in range(k)]
    run_checkpointed(
        lambda i: read_documents(groups[i]),
        lambda i: {"kind": "parquet_files", "files": groups[i]},
        k, out_dir, schema_text, asset_keys=asset_keys)
    return global_report(out_dir, k)


def global_report(out_dir: str, num_partitions: int) -> dict:
    """Merge the manifest into the run-level verdict: per-partition
    pass/fail + merged sketches (the cross-partition fold is sketch-merge,
    not a data shuffle)."""
    done = load_manifest(out_dir)
    complete = len(done) == num_partitions
    hll = HyperLogLog()
    kll = KLLSketch()
    rows = n_passed = n_viol = 0
    partitions = []
    for k in sorted(done):
        rec = done[k]
        rows += rec["rows"]
        n_passed += rec["n_passed"]
        n_viol += rec["n_violations"]
        hll.merge(HyperLogLog.from_bytes(base64.b64decode(rec["hll"])))
        kll.merge(KLLSketch.from_bytes(base64.b64decode(rec["kll"])))
        partitions.append({
            "partition_id": k, "rows": rec["rows"],
            "n_passed": rec["n_passed"],
            "n_violations": rec["n_violations"],
            "passed": rec["n_violations"] == 0,
        })
    # None: the partitions ran without an asset table
    dangling = [rec.get("n_dangling") for rec in done.values()]
    n_dangling = None if None in dangling else sum(dangling)
    est_distinct = hll.estimate()
    dup_suspect = bool(complete and rows > 0
                       and abs(rows - est_distinct) > 4 * hll.rel_error * rows)
    return {
        "complete": complete,
        "n_partitions_done": len(done),
        "rows": rows,
        "n_passed": n_passed,
        "n_failed": rows - n_passed,
        "n_violations": n_viol,
        "n_dangling": n_dangling,
        "approx_distinct_doc_id": est_distinct,
        "doc_id_duplicates_suspected": dup_suspect,
        "spans_per_doc_quantiles": kll.quantiles([0.1, 0.5, 0.9]),
        "partitions": partitions,
    }
