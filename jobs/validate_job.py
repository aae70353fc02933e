#!/usr/bin/env python
"""Cluster job entrypoint for the full validation suite — the form the
north rule's "submitted via ray job submit to fixed-size clusters"
criterion describes.  On a real cluster:

    ray job submit --working-dir . -- \
        python jobs/validate_job.py \
            --input  s3://bucket/corpus/        \
            --assets s3://bucket/assets.parquet \
            --output s3://bucket/verdicts/      \
            --partitions 256

The driver inside the job connects to the cluster it was submitted to
(``ray.init(address="auto")``); in this sandbox it falls back to a local
session so the entrypoint stays runnable end-to-end:

    python jobs/validate_job.py --input /tmp/corpus --assets a.parquet \
        --output /tmp/out --local-cpus 8

The job runs the checkpointed pipeline (``--partitions`` resumable
partition manifests under ``--output``; each partition is one fused pass
that also probes every media ref against ``--assets``), then folds the
per-partition metrics + sketch states into the global verdict and prints
it as one JSON line — rerunning the same command after a failure skips
finished partitions (the resume contract), and refuses (exit 2) when the
input's file groups changed since the finished partitions ran.

Asset-table size: the ``asset_id`` column is read whole into the driver
(an Arrow string array, ~60 MB per million 50-byte keys), put in the
object store once per run and mapped zero-copy by every worker; each
block's probe is an exact ``is_in`` against it.  Unlike
``stages.referential.check_refs`` there is no Bloom + anti-join tier
above 5M keys, so the driver and every node need room for the whole
key set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# running as `python jobs/validate_job.py` puts jobs/ on sys.path; the
# package lives one level up (ray job submit --working-dir does the same)
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="validate_job")
    p.add_argument("--input", required=True,
                   help="corpus parquet dir (spans-shaped documents)")
    p.add_argument("--assets", required=True, help="asset table parquet")
    p.add_argument("--output", required=True,
                   help="output dir (verdicts, violations, manifest; "
                        "resumable)")
    p.add_argument("--schema", default=None,
                   help="mdschema file (default: flagship schema)")
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--local-cpus", type=int, default=None,
                   help="sandbox fallback: local session size when no "
                        "cluster address is available")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        try:
            ray.init(address="auto", ignore_reinit_error=True)
        except Exception:
            ray.init(address="local",
                     num_cpus=args.local_cpus or os.cpu_count(),
                     include_dashboard=False, logging_level="ERROR")

    import pyarrow.parquet as pq

    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.pipelines.checkpoint import run_checkpointed_parquet
    from mdvalidate_ray.sources.io import CorpusInputError

    schema_text = (open(args.schema).read() if args.schema
                   else flagship_schema_text())
    asset_keys = pq.read_table(args.assets, columns=["asset_id"]) \
        .column("asset_id").cast("string").combine_chunks()
    try:
        report = run_checkpointed_parquet(args.input, args.partitions,
                                          args.output, schema_text,
                                          asset_keys=asset_keys)
    except CorpusInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(json.dumps({k: v for k, v in report.items() if k != "partitions"}))
    ray.shutdown()
    return 0 if (report["complete"] and report["n_violations"] == 0
                 and report["n_dangling"] == 0) else 1


if __name__ == "__main__":
    sys.exit(main())
