"""The benchmark's workloads.

Each workload is a closed loop with one caller: ``op()`` runs one
operation exactly as a user of the engine would and returns its output,
``check()`` compares that output with what the seeded inputs say it must
be, ``traced_op()`` runs one operation with the layer wrappers installed
and ``layers()`` reports per-layer metrics from the traced operations.

* ``suite``: ``pipelines.fused.run_fused_suite`` over the flagship spans
  corpus (the headline; the evaluator does most of the work).
* ``single_doc``: the single-document CLI path in process, no Ray:
  ``compile_schema`` + ``markdown_to_spans`` + ``evaluate_spans``; the
  check feeds the same text to a ``StreamingDocValidator`` in 256-character
  chunks.

The traced ``suite`` operations also run :class:`CatalogSample`: one
catalog query per ``functions`` / ``stages`` module on small seeded
tables, then ``pipelines.validate_pipeline.incremental_validate`` over a
snapshot pair where 1% of the documents moved.
"""

from __future__ import annotations

import glob
import os
import statistics

from inputs import NO_DUPS, ROOT, cdc_plan, ensure, expected_passes
from system import start_ray, stop_ray

WORK = ROOT / ".perfbench" / "work"


def p99(xs: list[float]) -> float:
    """Nearest-rank 99th percentile; with fewer than 100 samples this is
    the slowest one."""
    s = sorted(xs)
    return s[-(-99 * len(s) // 100) - 1]


def _per_op(tot: dict, name: str, n: int, key: str = "total_s") -> float:
    return tot.get(name, {}).get(key, 0.0) / max(n, 1)


def _ms_per_call(tot: dict, name: str) -> float:
    t = tot.get(name, {})
    return 1e3 * t.get("total_s", 0.0) / max(t.get("calls", 0), 1)


class Workload:
    params: dict = {}
    # a Ray set-up (start, warm-up, stop) costs ~8 s on one CPU, so Ray
    # workloads take the median of two to leave the run its measuring time
    setup_reps = 2
    docs_per_op = 1

    def __init__(self, seed: int, params: dict | None = None):
        from mdvalidate_ray.corpus import flagship_schema_text

        self.seed = seed
        self.params = dict(self.params, **(params or {}))
        self.schema = flagship_schema_text()

    def prepare(self) -> dict:
        """Build or find the cached inputs; synthesis seconds by kind."""
        raise NotImplementedError

    def setup(self) -> None:
        """The timed set-up a caller pays before its first operation."""

    def teardown(self) -> None:
        """Undo :meth:`setup`."""

    def expect(self) -> None:
        """Untimed: derive the expected outputs from the inputs."""

    def prepare_traced(self) -> dict:
        """Untimed, in traced runs only, after :meth:`expect`: inputs and
        expected outputs of what only the traced operations run; synthesis
        seconds by kind."""
        return {}

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def traced_op(self, tracer):
        """``op()`` inside an ``op`` span, with the layer wrappers
        installed."""
        self.wrap(tracer)
        try:
            with tracer.span("op"):
                return self.op()
        finally:
            tracer.restore()

    def wrap(self, tracer) -> None:
        raise NotImplementedError

    def layers(self, tracer, stats: dict) -> dict:
        """Per-layer metrics from the spans of the traced operations and
        the loop's stats."""
        raise NotImplementedError


# ---- single-document workload ------------------------------------------

class SingleDoc(Workload):
    """One markdown document through the single-document CLI path, in
    process and with no Ray: ``cli.run_single``'s calls (compile the
    schema, flatten the markdown, walk the spans, encode the captures)
    are the timed operation.  The untimed check then feeds the same text
    to a ``StreamingDocValidator`` in ``CHUNK``-character chunks, as
    ``cli.run_single_stream`` does (with its batch fallback when streaming
    is unsupported), and times that separately."""

    params = {"n_docs": 4000}
    setup_reps = 5
    CHUNK = 256

    def prepare(self) -> dict:
        self.path, syn = ensure("markdown", self.seed, self.params)
        return {"markdown": syn} if syn is not None else {}

    def setup(self) -> None:
        import subprocess
        import sys

        import pyarrow.parquet as pq

        # the start-up every one-document CLI call pays: a fresh
        # interpreter importing the modules of both paths
        subprocess.run([sys.executable, "-c", "import " + ", ".join(
            f"mdvalidate_ray.{m}" for m in (
                "cli", "evaluate.evaluator", "schema.compiler",
                "sources.markdown", "stages.stream_validate"))],
            check=True, cwd=ROOT, timeout=120)
        t = pq.read_table(self.path / "markdown.parquet")
        self.docs = list(zip(t.column("index").to_pylist(),
                             t.column("text").to_pylist()))
        self.next = 0
        self.fallbacks = 0
        self.streamed = 0
        self.stream_lat = []

    def teardown(self) -> None:
        self.docs = []

    def expect(self) -> None:
        self.bytes_per_doc = statistics.fmean(
            len(t.encode()) for _, t in self.docs)

    def op(self):
        from mdvalidate_ray.evaluate import evaluator
        from mdvalidate_ray.schema import compiler
        from mdvalidate_ray.sources import markdown

        i, text = self.docs[self.next % len(self.docs)]
        self.next += 1
        r = evaluator.evaluate_spans(markdown.markdown_to_spans(text),
                                     compiler.compile_schema(self.schema))
        return i, text, (r.passed, r.captures_json())

    def stream(self, text: str):
        """``cli.run_single_stream``'s calls on ``text``; returns the
        verdict and captures JSON and the seconds they took."""
        import time

        from mdvalidate_ray.evaluate import evaluator
        from mdvalidate_ray.schema import compiler
        from mdvalidate_ray.sources import markdown
        from mdvalidate_ray.stages import stream_validate as sv

        t0 = time.perf_counter()
        v = sv.StreamingDocValidator(self.schema)
        try:
            for k in range(0, len(text), self.CHUNK):
                v.feed(text[k:k + self.CHUNK])
            r = v.finish()
        except sv.StreamingUnsupported:
            self.fallbacks += 1
            r = evaluator.evaluate_spans(markdown.markdown_to_spans(text),
                                         compiler.compile_schema(self.schema))
        self.streamed += 1
        return (r.passed, r.captures_json()), time.perf_counter() - t0

    def check(self, out) -> list[str]:
        i, text, batch, *traced = out
        if traced:
            stream = traced[0]
        else:
            stream, dt = self.stream(text)
            self.stream_lat.append(dt)
        problems = []
        if batch[0] != expected_passes(i, markdown=True):
            problems.append(f"doc {i}: passed={batch[0]} against the "
                            "closed form")
        if stream != batch:
            problems.append(f"doc {i}: stream verdict or captures differ "
                            "from batch")
        return problems

    def traced_op(self, tracer):
        """The batch operation, then the stream path, both with the layer
        wrappers installed; the stream latencies are those of the bare
        operations' checks."""
        self.wrap(tracer)
        try:
            with tracer.span("op"):
                i, text, batch = self.op()
            with tracer.span("stream"):
                stream, _ = self.stream(text)
            return i, text, batch, stream
        finally:
            tracer.restore()

    def wrap(self, tracer) -> None:
        from mdvalidate_ray.evaluate import evaluator
        from mdvalidate_ray.schema import compiler
        from mdvalidate_ray.sources import markdown
        from mdvalidate_ray.stages import stream_validate as sv

        tracer.wrap("schema.compile_schema", [compiler, sv],
                    "compile_schema")
        tracer.wrap("sources.markdown.markdown_to_spans", [markdown],
                    "markdown_to_spans")
        tracer.wrap("evaluate.evaluator.evaluate_spans", [evaluator],
                    "evaluate_spans")
        tracer.wrap("stages.stream_validate.feed",
                    [sv.StreamingDocValidator], "feed")
        tracer.wrap("stages.stream_validate.finish",
                    [sv.StreamingDocValidator], "finish")

    def layers(self, tracer, stats: dict) -> dict:
        n = stats["traced_docs"]
        tot = tracer.totals()
        # markdown flattening and span walks of the batch path only: the
        # stream path's fallbacks repeat them
        batch = tracer.totals(within="op")
        traced = [end - start for name, start, end, _ in tracer.spans
                  if name == "op"]
        return {
            # a traced operation also runs the stream path, so the overhead
            # is its batch span against the bare operations
            "trace.overhead_ratio": statistics.median(traced)
            / statistics.median(stats["latencies"]) - 1,
            "single_doc.stream_latency_p50_ms":
                1e3 * statistics.median(self.stream_lat),
            "single_doc.stream_latency_p99_ms": 1e3 * p99(self.stream_lat),
            "schema.compile_ms": _ms_per_call(tot, "schema.compile_schema"),
            "sources.markdown.ms_per_doc": 1e3 * _per_op(
                batch, "sources.markdown.markdown_to_spans", n),
            "evaluate.evaluator.walk_ms_per_doc": 1e3 * _per_op(
                batch, "evaluate.evaluator.evaluate_spans", n),
            "stages.stream_validate.feed_ms_per_doc": 1e3 * _per_op(
                tot, "stages.stream_validate.feed", n),
            "stages.stream_validate.finish_ms_per_doc": 1e3 * _per_op(
                tot, "stages.stream_validate.finish", n),
            "stages.stream_validate.fallback_ratio":
                self.fallbacks / max(self.streamed, 1),
            "single_doc.bytes_per_doc": self.bytes_per_doc,
            "single_doc.chunks_per_doc": _per_op(
                tot, "stages.stream_validate.feed", n, "calls"),
        }


# ---- Ray workloads ------------------------------------------------------

class Suite(Workload):
    """The fused one-pass constraint suite over the flagship corpus with
    the default defect planting (10% failing, 2% dangling media_ref, 0.1%
    duplicate ids)."""

    params = {"n_docs": 8000, "block_rows": 2000, "fail_every": 10,
              "dangling_every": 50, "dup_every": 1000}

    def prepare(self) -> dict:
        self.path, syn = ensure("corpus", self.seed, self.params)
        self.files = sorted(glob.glob(str(self.path / "documents" /
                                          "*.parquet")))
        self.docs_per_op = self.params["n_docs"]
        self.out = WORK / "suite"
        return {"corpus": syn} if syn is not None else {}

    def setup(self) -> None:
        import pyarrow.parquet as pq
        import ray.data

        from mdvalidate_ray.pipelines.fused import run_fused_suite

        start_ray()
        self.asset_keys = pq.read_table(
            self.path / "assets.parquet",
            columns=["asset_id"]).column("asset_id").combine_chunks()
        # worker warm-up: the first task on a worker pays the imports
        run_fused_suite(ray.data.read_parquet(self.files[0]).limit(64),
                        self.schema, str(self.out / "warm-v"),
                        str(self.out / "warm-x"), self.asset_keys)

    def teardown(self) -> None:
        stop_ray()

    def expect(self) -> None:
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray

        from mdvalidate_ray.corpus import doc_id_for_index, expected_fail_mode

        p, n = self.params, self.params["n_docs"]
        failing = [i for i in range(n)
                   if expected_fail_mode(i, p["fail_every"])]
        self.n_failed = len(failing)
        self.failing_ids = {doc_id_for_index(i, n, p["dup_every"])
                            for i in failing}
        # the blocks, asset keys and sinks of the traced replay
        self.blocks = [pq.read_table(f) for f in self.files]
        self.keys_ref = ray.put(self.asset_keys)
        for d in ("rv", "rx"):
            os.makedirs(self.out / d, exist_ok=True)
        self.traced = []
        docs = pa.concat_tables(self.blocks)
        refs = pc.list_flatten(docs.column("spans")).combine_chunks() \
            .field("media_ref")
        self.n_missing = pc.sum(pc.starts_with(refs, "missing-")).as_py()
        self.n_distinct = len(set(docs.column("doc_id").to_pylist()))
        self.catalog_problems = []

    def prepare_traced(self) -> dict:
        self.catalog = CatalogSample(self.seed, self.schema)
        syn = self.catalog.prepare()
        self.catalog.warm()
        self.catalog.expect()
        return syn

    def op(self):
        import ray.data

        from mdvalidate_ray.pipelines.fused import run_fused_suite

        docs = ray.data.read_parquet(self.files,
                                     override_num_blocks=len(self.files))
        return run_fused_suite(docs, self.schema, str(self.out / "v"),
                               str(self.out / "x"), self.asset_keys)

    def check(self, rep) -> list[str]:
        import pyarrow.parquet as pq

        problems, self.catalog_problems = self.catalog_problems, []
        n = self.params["n_docs"]
        if (rep["rows"], rep["n_failed"]) != (n, self.n_failed):
            problems.append(f"rows/n_failed {rep['rows']}/{rep['n_failed']}"
                            f" != {n}/{self.n_failed}")
        viol = pq.read_table(rep["violations_files"], columns=["doc_id"])
        if set(viol.column("doc_id").to_pylist()) != self.failing_ids:
            problems.append("doc ids with violations differ")
        if viol.num_rows != rep["total_violations"]:
            problems.append("violation sink rows != total_violations")
        if rep["referential"]["n_dangling"] != self.n_missing:
            problems.append(f"n_dangling {rep['referential']['n_dangling']}"
                            f" != {self.n_missing} missing-* refs")
        u = rep["uniqueness"]
        if abs(u["approx_distinct"] - self.n_distinct) > u["sketch_bound"]:
            problems.append(f"HLL {u['approx_distinct']:.0f} outside "
                            f"{self.n_distinct}±{u['sketch_bound']:.0f}")
        self.last = rep
        self.sink_bytes = sum(os.path.getsize(f) for f in
                              rep["verdict_files"] + rep["violations_files"])
        return problems

    def traced_op(self, tracer):
        """Ray calls cannot be traced inside their workers, so a traced
        operation is the bare Ray call followed by an in-process replay
        of the same blocks through ``fused_task_batch``: once bare and
        once with the layer functions wrapped, in turns first, since the
        replay right after the Ray call shares the CPU with the session
        settling down.  The wrappers are installed only around the
        replay, never while Ray pickles the task function.  Then one pass
        of the catalog sample, whose problems the next check reports."""
        import time

        from mdvalidate_ray.pipelines import fused

        def replay() -> float:
            t0 = time.perf_counter()
            for b in self.blocks:
                fused.fused_task_batch(
                    b, schema_text=self.schema,
                    out_dir=str(self.out / "rv"),
                    viol_dir=str(self.out / "rx"),
                    asset_keys_ref=self.keys_ref)
            return time.perf_counter() - t0

        def traced_replay() -> float:
            self.wrap(tracer)
            try:
                with tracer.span("suite.replay"):
                    return replay()
            finally:
                tracer.restore()

        t0 = time.perf_counter()
        rep = self.op()
        wall = time.perf_counter() - t0
        if len(self.traced) % 2:
            traced, bare = traced_replay(), replay()
        else:
            bare, traced = replay(), traced_replay()
        self.traced.append({"wall": wall, "phases": rep["phase_worker_sec"],
                            "bare": bare, "traced": traced})
        self.catalog_problems = self.catalog.check(self.catalog.run(tracer))
        return rep

    def wrap(self, tracer) -> None:
        from mdvalidate_ray.pipelines import fused
        from mdvalidate_ray.stages import validate
        from mdvalidate_ray.state.sketches import HyperLogLog, KLLSketch

        tracer.wrap("pipelines.fused.fused_task_batch", [fused],
                    "fused_task_batch")
        tracer.wrap("stages.validate.evaluate_batch", [validate],
                    "evaluate_batch")
        tracer.wrap("evaluate.evaluator.evaluate_spans", [validate],
                    "evaluate_spans")
        tracer.wrap("stages.validate.explode_violations", [fused],
                    "explode_violations")
        tracer.wrap("pipelines.fused.sink", [fused], "_write_atomic")
        for cls, name in ((HyperLogLog, "state.sketches.hll"),
                          (KLLSketch, "state.sketches.kll")):
            tracer.wrap(name, [cls], "add" if cls is HyperLogLog
                        else "update")
            tracer.wrap(name, [cls], "to_bytes")

    def layers(self, tracer, stats: dict) -> dict:
        tot = tracer.totals()
        runs = self.traced
        n = len(runs) * self.params["n_docs"]
        ph = {k: statistics.median(r["phases"][k] for r in runs)
              for k in ("eval", "write", "wide")}
        overheads = [r["wall"] - sum(r["phases"].values()) for r in runs]
        # per traced operation: the replayed layers' self times (which sum
        # to the traced replay) plus the Ray-side remainder, as a share of
        # the Ray call's wall
        accounted = statistics.median(
            (r["traced"] + o) / r["wall"] for r, o in zip(runs, overheads))
        ms = {name: 1e3 * _per_op(tot, name, n, "self_s") for name in tot}
        rep = self.last
        return {
            "pipelines.fused.eval_worker_s": ph["eval"],
            "pipelines.fused.write_worker_s": ph["write"],
            "pipelines.fused.wide_worker_s": ph["wide"],
            "ray_data.overhead_s": statistics.median(overheads),
            "stages.validate.evaluate_batch_ms_per_doc": 1e3 * _per_op(
                tot, "stages.validate.evaluate_batch", n),
            "evaluate.evaluator.walk_ms_per_doc": 1e3 * _per_op(
                tot, "evaluate.evaluator.evaluate_spans", n),
            "stages.validate.self_ms_per_doc":
                ms.get("stages.validate.evaluate_batch", 0.0),
            "stages.validate.explode_ms_per_doc":
                ms.get("stages.validate.explode_violations", 0.0),
            "state.sketches.hll_ms_per_doc":
                ms.get("state.sketches.hll", 0.0),
            "state.sketches.kll_ms_per_doc":
                ms.get("state.sketches.kll", 0.0),
            "pipelines.fused.sink_ms_per_doc":
                ms.get("pipelines.fused.sink", 0.0),
            "pipelines.fused.self_ms_per_doc":
                ms.get("pipelines.fused.fused_task_batch", 0.0),
            "pipelines.fused.sink_bytes_per_doc":
                self.sink_bytes / self.params["n_docs"],
            "pipelines.fused.blocks": len(rep["verdict_files"]),
            "pipelines.fused.rows": rep["rows"],
            "pipelines.fused.violation_rows": rep["total_violations"],
            "pipelines.fused.dangling": rep["referential"]["n_dangling"],
            "trace.accounted_share": accounted,
            # the traced operation also replays, so the overhead is traced
            # against bare replay of the same blocks
            "trace.overhead_ratio":
                statistics.median(r["traced"] for r in runs)
                / statistics.median(r["bare"] for r in runs) - 1,
        } | self.catalog.layers(tracer)


# the catalog sample: one query per module, named after that module
CATALOG = (
    ("functions.relational", "q3_order_revenue", ("orders", "lineitem")),
    ("stages.uniqueness", "planted_skew_salted", ("orders",)),
    ("functions.graph", "part_bfs_hops", ("lineitem",)),
    ("functions.dedup", "minhash_pairs", ("documents",)),
    ("functions.similarity", "knn_int_topk", ("embeddings",)),
    ("functions.window", "user_running_total", ("events",)),
)
CDC_STEP = "pipelines.validate_pipeline.incremental_validate_s"
CATALOG_MODULES = tuple(f"mdvalidate_ray.{m}" for m in (
    "queries", "functions.relational", "functions.graph", "functions.dedup",
    "functions.similarity", "functions.window", "stages.uniqueness",
    "stages.skew", "pipelines.validate_pipeline"))


def _rows(result):
    """Every row of a query result as a pyarrow Table, consuming a lazy
    Dataset batch by batch the way a caller does."""
    import pyarrow as pa

    if isinstance(result, pa.Table):
        return result
    blocks = [b for b in result.iter_batches(batch_format="pyarrow")
              if b.num_rows]
    return pa.concat_tables(blocks, promote_options="default") if blocks \
        else result.schema().base_schema.empty_table()


def _normal_form(t) -> tuple[list, list]:
    """Sorted column names and sorted rows of stringified cells (floats to
    six significant digits), so that results of two engines compare
    regardless of row order and float folding order."""
    cols = sorted(t.column_names)

    def cell(v):
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    rows = sorted(tuple(cell(r[c]) for c in cols)
                  for r in t.select(cols).to_pylist())
    return cols, rows


class CatalogSample:
    """A sample of the query catalog, one query per ``functions`` /
    ``stages`` module, on small seeded tables, followed by incremental
    revalidation of a snapshot pair in which one document in
    ``change_every`` was removed, edited or added (duplicate planting
    off: snapshot keys are primary keys).  Every query result is checked
    against the query's DuckDB twin in ``__ray_entry__.oracle_sql()``;
    the revalidation against closed form.

    It runs in the traced ``suite`` operations, inside that workload's Ray
    session: a pass is about thirty small Ray Data executions, whose wall
    moved by up to 2x with the box between runs, too unsteady for a bounded
    end-to-end metric but enough to tell the layers apart."""

    params = {"orders": 1500, "customers": 150, "max_lines": 7,
              "parts": 200, "documents": 200, "embeddings": 500, "dim": 64,
              "events": 2000, "users": 40, "cdc_docs": 2000,
              "cdc_block_rows": 1000, "change_every": 100}

    def __init__(self, seed: int, schema: str):
        self.seed = seed
        self.schema = schema

    def prepare(self) -> dict:
        self.path, syn = ensure("catalog", self.seed, self.params)
        self.tables = str(self.path / "tables")
        self.old = sorted(glob.glob(str(self.path / "cdc" / "old" /
                                        "*.parquet")))
        self.new = sorted(glob.glob(str(self.path / "cdc" / "new" /
                                        "*.parquet")))
        return {"catalog": syn} if syn is not None else {}

    def warm(self) -> None:
        """Worker warm-up in the running Ray session: the catalog modules'
        imports (in a closure, which Ray pickles by value: workers cannot
        import this file), then the first rows of the old snapshot against
        the last rows of the new one, which hold added documents (an empty
        change set makes semi_join_keys raise)."""
        import pyarrow.parquet as pq
        import ray.data

        modules = CATALOG_MODULES

        def warm(batch):
            import importlib

            for m in modules:
                importlib.import_module(m)
            return batch

        ray.data.range(1).map_batches(warm).materialize()
        tail = pq.read_table(self.new[-1])
        self._cdc(ray.data.read_parquet(self.old[0]).limit(64),
                  ray.data.from_arrow(tail.slice(tail.num_rows - 64)))

    def _cdc(self, old, new):
        from mdvalidate_ray.pipelines import validate_pipeline

        res = validate_pipeline.incremental_validate(
            old, new, schema_text=self.schema)
        return (list(res["verdicts"].iter_batches(batch_format="pyarrow")),
                list(res["removed"].iter_batches(batch_format="pyarrow")))

    def expect(self) -> None:
        import importlib

        import duckdb
        import pyarrow.parquet as pq

        import __ray_entry__
        from mdvalidate_ray.corpus import doc_id_for_index
        from mdvalidate_ray.schema import compiler

        for m in CATALOG_MODULES:
            importlib.import_module(m)
        self.queries = __ray_entry__.queries()
        oracles = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        for t in sorted({t for *_, ts in CATALOG for t in ts}):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"'{self.tables}/{t}.parquet'")
        self.want_tables = {q: _normal_form(con.execute(oracles[q]).arrow())
                            for _, q, _ in CATALOG}
        con.close()

        n = self.params["cdc_docs"]
        plan = cdc_plan(n, self.seed, self.params["change_every"])
        ids = {k: {doc_id_for_index(i, n, NO_DUPS): i for i in v}
               for k, v in plan.items()}
        self.want = {k: set(v) for k, v in ids.items()}
        self.index = {**ids["added"], **ids["changed"]}
        new = pq.read_table(self.new)
        todo = [j for j, d in enumerate(new.column("doc_id").to_pylist())
                if d in self.index]
        sub = new.take(todo)
        self.spans = dict(zip(sub.column("doc_id").to_pylist(),
                              sub.column("spans").to_pylist()))
        self.compiled = compiler.compile_schema(self.schema)
        self.walls = {}

    def _timed(self, name: str, fn):
        import time

        t0 = time.perf_counter()
        out = fn()
        self.walls.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    def run(self, tracer):
        """One pass: the queries bare, each result fully iterated, then the
        revalidation with the layer wrappers installed, which would
        otherwise also catch the queries' relational calls."""
        import ray.data

        got = {q: self._timed(f"{m}.{q}_s",
                              lambda q=q: _rows(self.queries[q](self.tables)))
               for m, q, _ in CATALOG}
        self.wrap(tracer)
        try:
            with tracer.span("catalog.revalidate"):
                cdc = self._timed(CDC_STEP, lambda: self._cdc(
                    ray.data.read_parquet(self.old),
                    ray.data.read_parquet(self.new)))
        finally:
            tracer.restore()
        return got, cdc

    def check(self, out) -> list[str]:
        from mdvalidate_ray.evaluate import evaluator

        got, (verdicts, removed) = out
        problems = []
        for q, t in got.items():
            cols, rows = _normal_form(t)
            want_cols, want_rows = self.want_tables[q]
            if cols != want_cols:
                problems.append(f"{q}: columns {cols} != oracle {want_cols}")
            elif len(rows) != len(want_rows):
                problems.append(f"{q}: {len(rows)} rows != oracle "
                                f"{len(want_rows)}")
            elif rows != want_rows:
                problems.append(f"{q}: values differ from the oracle")

        rows = [r for b in verdicts for r in b.select(
            ["doc_id", "passed", "n_violations", "status"]).to_pylist()]
        got = {"added": {r["doc_id"] for r in rows
                         if r["status"] == "added"},
               "changed": {r["doc_id"] for r in rows
                           if r["status"] == "changed"},
               "removed": {d for b in removed
                           for d in b.column("doc_id").to_pylist()}}
        problems += [f"cdc {k}: {len(got[k])} keys, expected "
                     f"{len(self.want[k])}"
                     for k in self.want if got[k] != self.want[k]]
        self.counts = {k: len(v) for k, v in got.items()}
        for r in rows:
            spans = self.spans.get(r["doc_id"])
            if spans is None:
                problems.append(f"{r['doc_id']} revalidated but unchanged")
                continue
            ref = evaluator.evaluate_spans(spans, self.compiled)
            if (r["passed"], r["n_violations"]) != (
                    ref.passed, len(ref.violations)) or \
                    r["passed"] != expected_passes(
                        self.index[r["doc_id"]], markdown=False):
                problems.append(f"{r['doc_id']}: verdict differs")
        self.revalidated = len(rows)
        return problems

    def wrap(self, tracer) -> None:
        from mdvalidate_ray.functions import relational
        from mdvalidate_ray.pipelines import validate_pipeline
        from mdvalidate_ray.stages import validate

        # The diff, semi-join and validate stages return lazy Datasets that
        # Ray Data fuses into one operator downstream; executing each inside
        # its own span is what lets their times be told apart.
        # compile_schema stays unwrapped: validate_dataset's task closure
        # captures it, and Ray must never pickle a wrapper.
        def run(ds):
            return ds.materialize()

        tracer.wrap("pipelines.validate_pipeline.incremental_validate",
                    [validate_pipeline], "incremental_validate")
        tracer.wrap("functions.relational.snapshot_diff", [relational],
                    "snapshot_diff", then=run)
        tracer.wrap("functions.relational.semi_join_keys", [relational],
                    "semi_join_keys", then=run)
        tracer.wrap("stages.validate.validate_dataset", [validate],
                    "validate_dataset", then=run)

    def layers(self, tracer) -> dict:
        tot = tracer.totals()
        passes = len(self.walls[CDC_STEP])
        iv = tot.get("pipelines.validate_pipeline.incremental_validate",
                     {"total_s": 0.0, "self_s": 0.0})
        # the status attach: incremental_validate's own time plus the
        # consumption of its lazy verdicts, i.e. the revalidation minus the
        # diff, semi-join and validate spans
        attach = tot["catalog.revalidate"]["total_s"] - iv["total_s"] \
            + iv["self_s"]
        return {name: statistics.median(w)
                for name, w in self.walls.items()} | {
            "functions.relational.snapshot_diff_s": _per_op(
                tot, "functions.relational.snapshot_diff", passes),
            "functions.relational.semi_join_keys_s": _per_op(
                tot, "functions.relational.semi_join_keys", passes),
            "stages.validate.validate_dataset_s": _per_op(
                tot, "stages.validate.validate_dataset", passes),
            "pipelines.validate_pipeline.self_s": attach / passes,
            "cdc.revalidated_ratio": self.revalidated / max(
                self.counts["added"] + self.counts["changed"], 1),
            "cdc.added": self.counts["added"],
            "cdc.changed": self.counts["changed"],
            "cdc.removed": self.counts["removed"],
        }


WORKLOADS = {"suite": Suite, "single_doc": SingleDoc}
