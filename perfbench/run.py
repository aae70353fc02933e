"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  Makes the workload's inputs from the
seed (cached under ``.perfbench/cache``), sets up several times and keeps
the median, then runs the workload's operation in a closed loop for
``--seconds``, checking every output.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.

A traced run alternates untraced operations with operations that run
with the layer wrappers installed (see ``tracing.py``), and writes its
spans to ``.perfbench/traces``.  Every run writes a record of the box, the
same-session evaluator control, synthesis and set-up times and any
failed checks to ``.perfbench/runs`` and to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _metric_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def loop(wl, seconds: float, tracer=None) -> dict:
    """Closed loop, one caller: run ``wl.op()`` back to back for
    ``seconds`` (at least once), timing and checking each output.

    With a ``tracer``, every second operation is ``wl.traced_op(tracer)``
    instead, so that traced and bare operations see the same drift of the
    box; their walls and documents are kept apart."""
    st = {"latencies": [], "docs": 0, "traced_latencies": [],
          "traced_docs": 0, "attempted": 0, "failed": 0, "problems": []}
    end = time.perf_counter() + seconds
    least = 1 if tracer is None else 2
    while st["attempted"] < least or time.perf_counter() < end:
        traced = tracer is not None and st["attempted"] % 2 == 1
        st["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out = wl.traced_op(tracer) if traced else wl.op()
        except Exception:
            st["failed"] += 1
            st["problems"].append(traceback.format_exc())
            continue
        dt = time.perf_counter() - t0
        problems = wl.check(out)
        if problems:
            st["failed"] += 1
            st["problems"].extend(problems[:5])
        kind = "traced_" if traced else ""
        st[kind + "latencies"].append(dt)
        st[kind + "docs"] += wl.docs_per_op
    return st


def control_block() -> Path:
    """One fixed 4000-document block of the flagship corpus."""
    from inputs import ensure

    path, _ = ensure("corpus", 42, {"n_docs": 4000, "block_rows": 4000,
                                    "fail_every": 10, "dangling_every": 50,
                                    "dup_every": 1000})
    return path


def control_ms_per_doc(path: Path, reps: int = 3) -> float:
    """The bare ``ConstraintEvaluator`` on the control block: a
    same-session reading of the box, independent of the workload.  The
    median of ``reps`` passes, since one pass moves with the box by up to
    a quarter."""
    import pyarrow.parquet as pq

    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.stages.validate import ConstraintEvaluator

    block = pq.read_table(path / "documents")
    ev = ConstraintEvaluator(flagship_schema_text())
    ev(block.slice(0, 50))
    passes = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ev(block)
        passes.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(passes) / block.num_rows


def run(workload: str, seed: int, seconds: float, trace: bool,
        params: dict | None = None,
        setup_reps: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run record."""
    from system import box, peak_rss_mb
    from tracing import Tracer
    from workloads import WORKLOADS, p99

    wl = WORKLOADS[workload](seed, params)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "box": box(), "params": wl.params}
    record["synthesis_s"] = wl.prepare()
    control = control_block()
    setups = []
    try:
        for k in range(setup_reps or wl.setup_reps):
            if k:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        wl.expect()
        if trace:
            record["synthesis_s"] |= wl.prepare_traced()
        tracer = Tracer() if trace else None
        st = loop(wl, seconds, tracer)
        lat = st["latencies"]
        if not trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "docs_per_s": st["docs"] / sum(lat),
                "latency_p50_ms": 1e3 * statistics.median(lat),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            metrics = wl.layers(tracer, st)
            metrics.setdefault(
                "trace.overhead_ratio",
                statistics.median(st["traced_latencies"])
                / statistics.median(lat) - 1)
            metrics["latency_p99_ms"] = 1e3 * p99(lat)
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{workload}-seed{seed}.json")
        ctl = control_ms_per_doc(control)
    finally:
        wl.teardown()
    record["control.evaluator_ms_per_doc"] = ctl
    if trace:
        metrics["control.evaluator_ms_per_doc"] = ctl
    record["setup_s_samples"] = setups
    record["latency_quartiles_ms"] = [
        1e3 * q for q in statistics.quantiles(lat, n=4)] \
        if len(lat) > 1 else []
    record["operations"] = len(lat)
    attempted, failed = st["attempted"], st["failed"]
    record["problems"] = st["problems"][:20]

    units = _metric_units("per_layer" if trace else "end_to_end")
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # a layer the workload does not exercise reads 0
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                                 "unit": unit}
                          for name, unit in units.items()}}
    record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "mdvalidate_ray" / "__init__.py").is_file():
        print(f"perfbench: no mdvalidate_ray package under {ROOT}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
