#!/usr/bin/env python
"""Benchmark harness.

Default mode: one process, `ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32)`, runs the headline validation suite over a
deterministic spans corpus derived from $GRAFT_SF_DIR (default
/root/testdata/sf0.1) plus a set of catalog queries, and prints ONE JSON
line: {"metric", "value", "unit", "queries", "sf", "num_cpus", ...}.

`--scaling`: runs the headline pipeline in two FRESH subprocesses
(num_cpus=8 and num_cpus=32) on the SAME cached corpus and reports both
throughputs plus scaling efficiency = (docs_sec_32 / docs_sec_8) / 4 —
the sandbox evidence protocol for the north_rule's two-cluster-size
criterion (see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# sf0.1 documents has 5000 rows; ×200 → the 10^6-doc bench tier from
# FIXTURES.md. Smaller corpora are dominated by fixed costs (pool spin-up,
# per-stage reads) and understate scaling efficiency.
DOCS_MULTIPLIER = int(os.environ.get("BENCH_DOCS_MULT", "200"))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def corpus_dir(num_docs: int) -> str:
    return f"/tmp/mdv_bench_corpus_{num_docs}"


def ensure_corpus(num_docs: int) -> str:
    """Materialize the bench corpus parquet once; reused across scaling
    subprocesses so every run reads identical input."""
    import ray

    from mdvalidate_ray.corpus import assets_table, ray_documents

    path = corpus_dir(num_docs)
    marker = os.path.join(path, "_DONE")
    if os.path.exists(marker):
        return path
    log(f"synthesizing bench corpus: {num_docs} docs -> {path}")
    t0 = time.monotonic()
    ds = ray_documents(num_docs, override_num_blocks=max(32, num_docs // 4000))
    ds.write_parquet(os.path.join(path, "documents"))
    import pyarrow.parquet as pq

    pq.write_table(assets_table(num_docs), os.path.join(path, "assets.parquet"))
    with open(marker, "w") as f:
        f.write(str(num_docs))
    log(f"corpus synthesized in {time.monotonic() - t0:.1f}s")
    return path


def run_headline(num_docs: int, num_cpus: int) -> dict:
    """ONE streaming pass: read → fused suite operator (validate + both
    parquet sinks written per-block inside the tasks + HLL/KLL/referential
    partials) → driver folds ~250 tiny partial rows into the report.

    No ``materialize()``, no tail executions, no burst write: the round-1
    suite's flat ~5 s tail (three extra Dataset startups + a 900 MB
    verdict-parquet burst against one disk) was the largest engine-side
    loss in the 8→32 scaling protocol; spreading the write across the
    whole run removes it (see pipelines/fused.py)."""
    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.pipelines.fused import run_fused_suite
    from mdvalidate_ray.sources.io import read_documents

    path = corpus_dir(num_docs)
    out_dir = f"/tmp/mdv_bench_out_{num_cpus}"
    viol_dir = f"/tmp/mdv_bench_viol_{num_cpus}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(viol_dir, ignore_errors=True)

    import pyarrow.parquet as pq

    asset_keys = pq.read_table(
        os.path.join(path, "assets.parquet"),
        columns=["asset_id"]).column("asset_id").combine_chunks()

    # Warm the worker-process pool before the timer: the first task on
    # each Ray worker pays the mdvalidate_ray + pyarrow import (~1s),
    # a FLAT per-worker cost that is paid once per cluster lifetime in
    # the north rule's long-running-job setting but would otherwise land
    # inside a ~20 s leg — and 4× harder on the 32-CPU leg than the
    # 8-CPU one, biasing the scaling ratio.  Steady-state throughput is
    # the quantity under test.
    import ray.data as rd

    def _warm(b):
        from mdvalidate_ray.pipelines.fused import _cached_evaluator

        from mdvalidate_ray.corpus import flagship_schema_text as fst
        _cached_evaluator(fst())
        return b

    t_warm = time.monotonic()
    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        _warm, batch_format="pyarrow").count()
    warmup_sec = time.monotonic() - t_warm

    t0 = time.monotonic()
    # one read task per file, fused with the suite operator: Ray
    # otherwise coalesces pairs of files into double-size tasks, and the
    # 2x task-size skew costs ~10% at 32 CPUs (straggler waves)
    docs = read_documents(os.path.join(path, "documents"))
    report = run_fused_suite(
        docs, flagship_schema_text(), out_dir, viol_dir, asset_keys)
    total = time.monotonic() - t0
    phases = report.get("phase_worker_sec", {})
    return {
        "num_docs": num_docs,
        "wall_sec": round(total, 3),
        "docs_per_sec": round(num_docs / total, 1),
        # warm-up is reported, NOT folded into wall_sec: steady-state
        # throughput is the quantity under test (see the comment above),
        # and keeping it visible makes cross-round comparisons honest
        "warmup_sec": round(warmup_sec, 3),
        # per-phase split in cumulative WORKER-seconds (phases overlap in
        # wall time; divide by the worker count for a rough wall share)
        "eval_worker_sec": phases.get("eval", 0.0),
        "write_worker_sec": phases.get("write", 0.0),
        "wide_worker_sec": phases.get("wide", 0.0),
        "uniqueness_passed": bool(report["uniqueness"]["passed"]),
        "n_dangling": int(report["referential"]["n_dangling"]),
        "spans_q50": report["spans_sketch"].quantile(0.5),
    }


QUERY_NAMES = [
    "stats_text", "hist_text_len", "dup_orderkeys", "quantiles_nchars",
    "q1_pricing", "q3_order_revenue", "q5_local_supplier_volume",
    "q6_forecast_revenue", "top_customers", "top_events", "events_daily",
    "events_asof_orders", "events_sliding", "user_sessions",
    "dedup_exact", "token_counts", "fingerprints",
    "minhash_pairs", "jaccard_pairs", "simhash_pairs", "knn",
    "embedding_dups",
    "top_suppliers_per_nation", "supplier_moving_qty",
    "len_quantiles_by_source", "sample_strata_counts", "kmeans_clusters",
    "redact_digits", "mixture_counts", "contamination_pairs",
    "events_in_windows", "orders_rollup", "priority_pivot",
    "doc_frequency", "pack_bins", "daily_active_users",
    "priority_revenue", "latest_events", "dedup_clusters", "dedup_purge",
    "zscore_nchars", "shuffle_manifest", "repetition",
    "bigram_counts", "tfidf_top_terms", "stratified_fixed_k",
    "user_running_total", "length_ntile", "doc_chunks",
    "user_value_deltas", "funnel", "retention", "embedding_int8",
    "normalized_docs", "lineitem_profile",
    # full-catalog coverage (validate_verdicts/violations are the
    # headline pipeline itself and are timed there)
    "orphan_events", "dangling_parts", "dangling_media",
    "distinct_sources", "part_type_stats", "props_k_stats",
    "stats_by_source", "quality", "quality_filter_counts",
    "lang_pred_counts", "split_counts", "top_words",
    "drift_by_lang", "drift_tdigest", "knn_ivf",
    "media_decode", "media_frames",
    "mode_event_per_user", "event_entropy_daily", "nation_suppliers",
    "qty_outliers", "fingerprint_spread", "neardup_purge",
    "q4_priority_exists", "q10_returned_revenue", "embedding_scores",
    "customer_order_counts",
    "lev_pairs", "ngram_contamination", "user_churn", "orders_cube",
    "heavy_hitter_words", "qty_winsorized",
    "qty_disc_moments", "part_supplier_pagerank", "boilerplate_grams",
    "compressibility", "curation_funnel", "rarity_scores",
    "user_order_balance", "frame_dups", "label_centroid_dots",
    "overlapping_windows", "qty_mad", "trigram_pairs",
    "violation_report", "user_hourly_spend", "nation_supplier_names",
    "part_copurchase_triangles",
    # round-3-late additions
    "window_dups", "audio_features", "weighted_sample",
    "lang_top_words", "length_percentiles", "part_kcore",
    "weekly_active_users", "doc_search", "lineitem_expectations",
    "event_transitions", "knn_pq", "ks_drift_sources", "user_daily_ohlc",
    "lang_length_pct", "bm25_topk", "price_quantiles",
    "user_value_ffill", "orders_snapshot_diff", "qty_price_regression",
    "embedding_pca", "embedding_outlier_topk", "pmi_bigrams",
    "incremental_revalidation", "bpe_merges", "orders_union_by_name",
    "lineitem_zorder_stats", "join_size_probe", "grouped_split_leakage",
    # round-3 TPC-H-adapted multi-join set
    "q7_nation_volume", "q9_profit_by_nation_year",
    "q13_order_count_distribution", "q14_promo_revenue",
    "q16_part_supplier_cnt", "q18_large_orders", "q19_bracket_revenue",
    "churned_rich_customers", "bpe_token_stats", "approx_users_per_type",
    "word_freq_cms", "qty_quantiles_disc", "lineitem_unpivot_stats",
    "concat_chunk_manifest", "segment_dedup_docs",
    "semantic_dedup_flags", "nation_segment_gap", "late_events",
    "customer_pareto", "cdc_segment_dedup_docs", "source_lang_mi",
    "part_bfs_hops", "coverage_picks", "golden_records",
    "k_anonymity_violations", "label_auc", "calibration_bins",
    "parity_rates", "part_cheapest_paths", "winnow_stats",
    "shard_assignment", "custkey_skew", "ranking_overlap",
    "lang_confusion",
    # round-4 additions
    "l_diversity_violations", "dsir_weights", "lm_perplexity_buckets",
    "gopher_quality_flags", "gopher_repetition_flags", "c4_line_filter",
    "pii_scan", "curation_scorecard", "source_vocab_jaccard",
    "pack_shards", "shuffle_head", "lineitem_zorder_pruned",
    "q8_market_share", "q15_top_supplier", "q17_small_qty_revenue",
    "orders_reconciliation", "knn_hnsw", "doc_word_entropy",
    "user_interarrival_stats", "user_spend_drawup", "vocab_growth",
    "benford_order_totals", "events_daily_outliers",
    "q2_min_cost_supplier", "q11_important_parts", "q12_late_priority",
    "q20_excess_suppliers", "q21_waiting_supplier", "q22_idle_customers",
    "knn_int_topk", "hard_negatives", "mixture_rates", "mmr_picks",
    "quality_classifier", "events_trend_mk", "orders_priority_mad",
    "kcenter_picks", "price_eqdepth_hist", "order_discount_proration",
    "user_type_scd2", "star_join_checksum",
    # round-5 additions
    "planted_skew_salted", "image_phash_dups", "audio_fp_dups",
]

# the document-family queries for the 10x bench tier (--tier10x): the
# most expensive catalog entries whose ONLY input is documents.parquet,
# so a replicated 10x documents table scales them honestly (fact tables
# can't be replicated without inventing foreign-key structure)
TIER10X_QUERIES = [
    "incremental_revalidation", "violation_report", "curation_funnel",
    "lang_confusion", "minhash_pairs", "segment_dedup_docs",
    "bpe_token_stats", "dsir_weights", "lm_perplexity_buckets",
    "doc_frequency",
]


def run_queries(sf_dir: str) -> dict:
    import __ray_entry__ as entrymod

    fns = entrymod.queries()
    out = {}
    for name in QUERY_NAMES:
        t0 = time.monotonic()
        res = fns[name](sf_dir)
        if hasattr(res, "count") and not hasattr(res, "num_rows"):
            res.count()            # consume lazy Datasets
        out[name] = round(time.monotonic() - t0, 3)
        log(f"query {name}: {out[name]}s")
    return out


def _quiet_data_context() -> None:
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


def _pin_fsspec_http_stub() -> None:
    """Defuse a threaded-import race in Ray's write path.

    ``path_util._is_http_filesystem`` lazily imports
    ``fsspec.implementations.http`` and catches only ModuleNotFoundError
    (aiohttp is absent here, so the import always fails).  When two
    writer THREADS race that failing import, one can observe a
    partially-initialized module and get a plain ImportError instead —
    uncaught, killing the write.  Pre-installing a stub module with a
    sentinel ``HTTPFileSystem`` makes the import always succeed and the
    isinstance check correctly False, deterministically."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:          # sentinel: matches no real fs
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod


def main_single(include_queries: bool = True) -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    _quiet_data_context()
    _pin_fsspec_http_stub()
    try:
        import pyarrow.parquet as pq

        base_rows = pq.ParquetFile(
            f"{SF_DIR}/documents.parquet").metadata.num_rows
        num_docs = base_rows * DOCS_MULTIPLIER
        ensure_corpus(num_docs)
        headline = run_headline(num_docs, NUM_CPUS)
        queries = run_queries(SF_DIR) if include_queries else {}
        result = {
            "metric": "validated docs/sec (full constraint suite)",
            "value": headline["wall_sec"],
            "unit": "sec",
            "docs_per_sec": headline["docs_per_sec"],
            "headline": headline,
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
        }
        return result
    finally:
        ray.shutdown()


def hw_control(workers: int, n_docs: int = 4000, n_tables: int = 8,
               iters: int = 2) -> float:
    """Pure-multiprocessing evaluator throughput (no Ray): measures the
    shared-box hardware ceiling (all-core clock + memory contention) that
    bounds ANY engine's 8-vs-32-CPU efficiency on one machine.  A real
    N->4N *node* comparison does not pay this penalty.

    Each worker cycles through ``n_tables`` DISTINCT 4000-doc blocks so
    the data streams from DRAM like the real pipeline (a single cached
    1000-doc table measured a cache-resident 0.91 'ceiling' that the
    DRAM-bound engine cannot see — the control must share the engine's
    memory profile to be a ceiling at all)."""
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    with ctx.Pool(workers) as pool:
        rates = pool.map(_hw_worker,
                         [(n_docs, n_tables, iters, w)
                          for w in range(workers)])
    return sum(rates)


def _hw_worker(args) -> float:
    n_docs, n_tables, iters, wid = args
    from mdvalidate_ray.corpus import arrow_documents, flagship_schema_text
    from mdvalidate_ray.stages.validate import ConstraintEvaluator

    # distinct seed per (worker, table): no cross-process page sharing
    tables = [arrow_documents(n_docs, seed=1000 + wid * 100 + k)
              for k in range(n_tables)]
    ev = ConstraintEvaluator(flagship_schema_text())
    ev(tables[0].slice(0, 50))
    t0 = time.monotonic()
    for _ in range(iters):
        for t in tables:
            ev(t)
    return n_docs * n_tables * iters / (time.monotonic() - t0)


def _scaling_pair(lo: int, hi: int, num_docs: int) -> dict:
    """One N-vs-(hi/lo)N pair: ABBA subprocess runs + the
    zero-coordination hardware control at both levels."""

    def warm_cache(path: str) -> None:
        """Read the corpus once so both legs start page-cache-hot; without
        this the first (8-CPU) leg pays cold-read costs the second doesn't,
        biasing the efficiency ratio."""
        import glob

        for f in glob.glob(os.path.join(path, "documents", "*.parquet")):
            with open(f, "rb") as fh:
                while fh.read(1 << 24):
                    pass

    # ABBA order cancels first-order thermal/frequency drift: a leg that
    # runs after heavy all-core work measures a slower box, so each level
    # runs once early and once late and the two are averaged
    results: dict[int, list] = {lo: [], hi: []}
    for cpus in (lo, hi, hi, lo):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus),
                   GRAFT_SF_DIR=SF_DIR, BENCH_DOCS_MULT=str(DOCS_MULTIPLIER))
        log(f"--- scaling run: num_cpus={cpus} ---")
        warm_cache(corpus_dir(num_docs))
        for attempt in (1, 2):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--headline-only"],
                env=env, capture_output=True, text=True, timeout=3600)
            if proc.returncode == 0:
                break
            # transient env flakes (e.g. fsspec lazy-import races) get one
            # retry; a persistent failure still aborts loudly
            log(proc.stderr[-2000:])
            if attempt == 2:
                raise RuntimeError(f"scaling run at {cpus} cpus failed")
        line = proc.stdout.strip().splitlines()[-1]
        results[cpus].append(json.loads(line))
    d_lo = sum(r["docs_per_sec"] for r in results[lo]) / len(results[lo])
    d_hi = sum(r["docs_per_sec"] for r in results[hi]) / len(results[hi])
    ratio = hi / lo
    efficiency = (d_hi / d_lo) / ratio
    log("--- hardware-ceiling control (pure multiprocessing, no Ray) ---")
    hw_lo = hw_control(lo)
    hw_hi = hw_control(hi)
    hw_ceiling = (hw_hi / hw_lo) / ratio
    return {
        "pair": [lo, hi],
        "efficiency": round(efficiency, 3),
        f"docs_per_sec_{lo}": round(d_lo, 1),
        f"docs_per_sec_{hi}": round(d_hi, 1),
        f"docs_per_sec_{lo}_runs": [r["docs_per_sec"] for r in results[lo]],
        f"docs_per_sec_{hi}_runs": [r["docs_per_sec"] for r in results[hi]],
        f"hw_control_docs_per_sec_{lo}": round(hw_lo, 1),
        f"hw_control_docs_per_sec_{hi}": round(hw_hi, 1),
        "hw_ceiling_efficiency": round(hw_ceiling, 3),
        "efficiency_vs_hw_ceiling": round(efficiency / hw_ceiling, 3),
        f"headline_{lo}": results[lo][-1]["headline"],
        f"headline_{hi}": results[hi][-1]["headline"],
    }


def ensure_tier10x_sf(base_sf: str) -> str:
    """A 10x-scale sf dir for the document-family queries: the base
    documents table replicated 10 times with doc_id offsets (text
    payloads repeat — volume scales, vocabulary doesn't, which slightly
    UNDERSTATES tokenizer-table costs and is noted in BASELINE.md)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    # path keyed by the base sf dir: a stale 10x table built from a
    # DIFFERENT $GRAFT_SF_DIR must never be silently reused
    tag = base_sf.strip("/").replace("/", "_")
    path = f"/tmp/mdv_tier10x_sf_{tag}"
    marker = os.path.join(path, "_DONE")
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read().startswith(f"{base_sf}:"):
                return path
    os.makedirs(path, exist_ok=True)
    base = pq.read_table(os.path.join(base_sf, "documents.parquet"))
    n = base.num_rows
    copies = []
    for k in range(10):
        t = base
        idx = t.schema.get_field_index("doc_id")
        t = t.set_column(idx, "doc_id",
                         pc.add(t.column("doc_id"), k * n))
        copies.append(t)
    big = pa.concat_tables(copies)
    pq.write_table(big, os.path.join(path, "documents.parquet"),
                   row_group_size=20_000)
    with open(marker, "w") as f:
        f.write(f"{base_sf}:{big.num_rows}")
    log(f"tier10x sf dir: {big.num_rows} docs -> {path}")
    return path


def main_tier10x() -> dict:
    """The 10x bench tier (VERDICT r4 #5): the fused headline suite at
    10^7 docs (10x the headline corpus — past page-cache comfort, so
    block sizing and object-store spill behavior are actually
    exercised) with per-phase worker-seconds, plus the 10 most
    expensive document-family catalog queries over a 10x-replicated
    documents table."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    _quiet_data_context()
    _pin_fsspec_http_stub()
    try:
        import pyarrow.parquet as pq

        base_rows = pq.ParquetFile(
            f"{SF_DIR}/documents.parquet").metadata.num_rows
        num_docs = base_rows * DOCS_MULTIPLIER * 10
        ensure_corpus(num_docs)
        headline = run_headline(num_docs, NUM_CPUS)

        tier_sf = ensure_tier10x_sf(SF_DIR)
        import __ray_entry__ as entrymod

        fns = entrymod.queries()
        queries = {}
        for name in TIER10X_QUERIES:
            t0 = time.monotonic()
            res = fns[name](tier_sf)
            if hasattr(res, "count") and not hasattr(res, "num_rows"):
                res.count()
            queries[name] = round(time.monotonic() - t0, 3)
            log(f"tier10x query {name}: {queries[name]}s")
        return {
            "metric": "10x tier: fused suite at 10^7 docs "
                      "+ doc-family queries at 10x documents",
            "value": headline["wall_sec"],
            "unit": "sec",
            "docs_per_sec": headline["docs_per_sec"],
            "headline_10x": headline,
            "queries_10x_docs": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
        }
    finally:
        ray.shutdown()


def main_scaling(pairs: "list[tuple[int, int]] | None" = None) -> dict:
    """Fresh process per parallelism level, same cached corpus.

    Default runs TWO N→4N pairs and reports both:

    * **2→8 (primary)** — both legs sit below the box's DRAM-bandwidth
      knee, so the ratio isolates the ENGINE's coordination overhead —
      the quantity the north rule's two-cluster-size criterion actually
      probes (on real N→4N *nodes*, per-node memory bandwidth is
      constant).  The zero-coordination control confirms near-linear
      hardware here (~0.85–0.91).
    * **8→32 (whole-box diagnostic)** — the top leg saturates the shared
      memory bus (the control itself scores 0.62–0.84 depending on box
      state); reported alongside its own control so the engine/hardware
      split is auditable.

    ``--pair lo hi`` restricts the run to a single chosen pair."""
    import pyarrow.parquet as pq

    pairs = pairs or [(2, 8), (8, 32)]
    base_rows = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    num_docs = base_rows * DOCS_MULTIPLIER

    # materialize the corpus once (own session)
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    _quiet_data_context()
    _pin_fsspec_http_stub()
    try:
        ensure_corpus(num_docs)
    finally:
        ray.shutdown()

    per_pair = {}
    for lo, hi in pairs:
        log(f"=== scaling pair {lo}->{hi} ===")
        per_pair[f"{lo}->{hi}"] = _scaling_pair(lo, hi, num_docs)
    primary = per_pair[f"{pairs[0][0]}->{pairs[0][1]}"]
    ratio = pairs[0][1] / pairs[0][0]
    return {
        "metric": (f"N->{ratio:g}N scaling efficiency, primary pair "
                   f"{pairs[0][0]}->{pairs[0][1]} cpus (see 'pairs' for "
                   "all measured pairs + zero-coordination hw controls)"),
        "value": primary["efficiency"],
        "unit": "efficiency",
        "pairs": per_pair,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "queries": {},
    }


def _persist_headline(obj: dict) -> None:
    """Also write the parsed result object to a stable repo path —
    BENCH_r{N}.json is captured from the log tail upstream and has been
    truncated before (r3 lost the headline line); this file makes the
    round-over-round table machine-readable regardless."""
    path = os.environ.get("MDV_BENCH_HEADLINE",
                          os.path.join(os.path.dirname(
                              os.path.abspath(__file__)),
                              "BENCH_HEADLINE_LATEST.json"))
    try:
        with open(path, "w") as f:
            json.dump(obj, f, indent=1)
    except OSError as exc:
        log(f"headline persist failed: {exc!r}")


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        pairs = None
        if "--pair" in sys.argv:
            i = sys.argv.index("--pair")
            pairs = [(int(sys.argv[i + 1]), int(sys.argv[i + 2]))]
        out = main_scaling(pairs)
        os.environ.setdefault(
            "MDV_BENCH_HEADLINE",
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "BENCH_SCALING_LATEST.json"))
        _persist_headline(out)
        print(json.dumps(out))
    elif "--tier10x" in sys.argv:
        out = main_tier10x()
        os.environ.setdefault(
            "MDV_BENCH_HEADLINE",
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "BENCH_TIER10X_LATEST.json"))
        _persist_headline(out)
        print(json.dumps(out))
    elif "--headline-only" in sys.argv:
        print(json.dumps(main_single(include_queries=False)))
    else:
        out = main_single()
        _persist_headline(out)
        print(json.dumps(out))
