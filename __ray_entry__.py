"""Driver contract for the Ray-Data-native validation engine.

``entry()`` runs the flagship validation pipeline on sf0.001;
``queries()`` exposes one callable per operator family (SURVEY.md §2 +
the training-data operators); ``oracle_sql()`` gives the DuckDB twin for
every SQL-expressible query (same column names, same rounding).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in mdvalidate_ray) calls ray.init / ray.shutdown.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from mdvalidate_ray import queries as Q

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline: synthesize the spans corpus at sf0.001 scale, run
    span-structure validation + wide constraints in one fused pass, return
    the verdict table (doc_id, passed, captures, n_spans, n_violations)
    read back from the verdict files it wrote, sorted by doc_id."""
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from mdvalidate_ray.corpus import assets_table, flagship_schema_text
    from mdvalidate_ray.pipelines.fused import run_fused_suite

    n, docs = Q._corpus(SF_SMOKE)
    keys = assets_table(n).column("asset_id").combine_chunks()
    with tempfile.TemporaryDirectory() as tmp:
        report = run_fused_suite(docs, flagship_schema_text(),
                                 f"{tmp}/verdicts", f"{tmp}/violations",
                                 keys)
        return pa.concat_tables(
            pq.read_table(f) for f in report["verdict_files"]
        ).sort_by("doc_id")


def _maybe_dump(name: str, fn: Callable[[str], Any]) -> Callable[[str], Any]:
    """Opt-in result persistence: when ``MDV_DUMP_DIR`` is set, every
    query's actual output table is ALSO written to
    ``$MDV_DUMP_DIR/<name>.parquet`` as it runs — so a hash mismatch in
    a driver session can be diffed cell-by-cell afterwards instead of
    being unreproducible (the r3 ``curation_funnel`` situation).  Off by
    default: zero overhead unless the env var is set."""
    import functools

    @functools.wraps(fn)
    def wrapped(sf_dir: str):
        res = fn(sf_dir)
        import os

        dump_dir = os.environ.get("MDV_DUMP_DIR")
        if dump_dir:
            try:
                import pandas as pd
                import pyarrow as pa
                import pyarrow.parquet as pq

                if isinstance(res, pa.Table):
                    t = res
                elif isinstance(res, pd.DataFrame):
                    t = pa.Table.from_pandas(res, preserve_index=False)
                else:                      # ray.data.Dataset — collect
                    # as ARROW blocks: a pandas round-trip would turn
                    # nullable int64 into float64 and make the dump
                    # hash differently from the driver's own run
                    blocks = list(res.iter_batches(
                        batch_format="pyarrow"))
                    blocks = [blk for blk in blocks if blk.num_rows]
                    if blocks:
                        t = pa.concat_tables(blocks, promote_options="default")
                    else:
                        t = res.schema().base_schema.empty_table()
                os.makedirs(dump_dir, exist_ok=True)
                pq.write_table(t, os.path.join(dump_dir,
                                               f"{name}.parquet"))
                res = t        # hand the driver the already-run table:
                # re-executing a lazy Dataset could diverge from the
                # dumped copy, defeating the post-hoc diff
            except Exception as exc:  # noqa: BLE001 — dump is best-effort
                import sys

                print(f"[mdv-dump] {name}: {exc!r}", file=sys.stderr)
        return res

    return wrapped


def queries() -> dict[str, Callable[[str], Any]]:
    base = _queries_raw()
    import os

    if os.environ.get("MDV_DUMP_DIR"):
        return {name: _maybe_dump(name, fn) for name, fn in base.items()}
    return base


def _queries_raw() -> dict[str, Callable[[str], Any]]:
    return {
        # --- driver window: the first 50 entries are the round-4
        # rotation — curation_funnel (the one r3 red) up front, then
        # the highest-value queries with no driver row yet (TPC-H
        # multi-joins, window family, graph family, quantile
        # selection, snapshot diff). Previously driver-green entries
        # moved below the window; full-catalog evidence lives in
        # SWEEP_r{N}.json. ---
        # (round 5: planted_skew_salted — the forced-salting evidence
        # query — rotates INTO the window; supplier_moving_qty, r4
        # driver-green, moves below.)
        "validate_verdicts": Q.validate_verdicts,
        "validate_violations": Q.validate_violations,
        "curation_funnel": Q.curation_funnel,
        "violation_report": Q.violation_report,
        "planted_skew_salted": Q.planted_skew_salted,
        "q7_nation_volume": Q.q7_nation_volume,
        "q9_profit_by_nation_year": Q.q9_profit_by_nation_year,
        "q13_order_count_distribution": Q.q13_order_count_distribution,
        "q14_promo_revenue": Q.q14_promo_revenue,
        "q16_part_supplier_cnt": Q.q16_part_supplier_cnt,
        "q18_large_orders": Q.q18_large_orders,
        "q19_bracket_revenue": Q.q19_bracket_revenue,
        "top_suppliers_per_nation": Q.top_suppliers_per_nation,
        "len_quantiles_by_source": Q.len_quantiles_by_source,
        "stratified_fixed_k": Q.stratified_fixed_k,
        "user_running_total": Q.user_running_total,
        "l_diversity_violations": Q.l_diversity_violations,
        "dsir_weights": Q.dsir_weights,
        "lm_perplexity_buckets": Q.lm_perplexity_buckets,
        "gopher_quality_flags": Q.gopher_quality_flags,
        "gopher_repetition_flags": Q.gopher_repetition_flags,
        "pack_shards": Q.pack_shards,
        "segment_dedup_docs": Q.segment_dedup_docs,
        "nation_segment_gap": Q.nation_segment_gap,
        "late_events": Q.late_events,
        "customer_pareto": Q.customer_pareto,
        "cdc_segment_dedup_docs": Q.cdc_segment_dedup_docs,
        "source_lang_mi": Q.source_lang_mi,
        "part_bfs_hops": Q.part_bfs_hops,
        "part_cheapest_paths": Q.part_cheapest_paths,
        "part_copurchase_triangles": Q.part_copurchase_triangles,
        "part_kcore": Q.part_kcore,
        "winnow_stats": Q.winnow_stats,
        "shard_assignment": Q.shard_assignment,
        "q2_min_cost_supplier": Q.q2_min_cost_supplier,
        "q11_important_parts": Q.q11_important_parts,
        "q12_late_priority": Q.q12_late_priority,
        "q20_excess_suppliers": Q.q20_excess_suppliers,
        "q21_waiting_supplier": Q.q21_waiting_supplier,
        "q22_idle_customers": Q.q22_idle_customers,
        "knn_int_topk": Q.knn_int_topk,
        "hard_negatives": Q.hard_negatives,
        "mixture_rates": Q.mixture_rates,
        "price_quantiles": Q.price_quantiles,
        "orders_snapshot_diff": Q.orders_snapshot_diff,
        "incremental_revalidation": Q.incremental_revalidation,
        "join_size_probe": Q.join_size_probe,
        "lev_pairs": Q.lev_pairs,
        "ngram_contamination": Q.ngram_contamination,
        "lineitem_zorder_pruned": Q.lineitem_zorder_pruned,
        # --- end of driver window (first 50) ---
        "supplier_moving_qty": Q.supplier_moving_qty,
        "custkey_skew": Q.custkey_skew,
        "k_anonymity_violations": Q.k_anonymity_violations,
        "mmr_picks": Q.mmr_picks,
        "kcenter_picks": Q.kcenter_picks,
        "quality_classifier": Q.quality_classifier,
        "events_trend_mk": Q.events_trend_mk,
        "orders_priority_mad": Q.orders_priority_mad,
        "price_eqdepth_hist": Q.price_eqdepth_hist,
        "order_discount_proration": Q.order_discount_proration,
        "user_type_scd2": Q.user_type_scd2,
        "star_join_checksum": Q.star_join_checksum,
        # round-5 additions (planted_skew_salted sits in the window)
        "image_phash_dups": Q.image_phash_dups,
        "audio_fp_dups": Q.audio_fp_dups,
        "parity_rates": Q.parity_rates,
        "ranking_overlap": Q.ranking_overlap,
        "lang_confusion": Q.lang_confusion,
        "coverage_picks": Q.coverage_picks,
        "golden_records": Q.golden_records,
        "label_auc": Q.label_auc,
        "calibration_bins": Q.calibration_bins,
        "heavy_hitter_words": Q.heavy_hitter_words,
        "c4_line_filter": Q.c4_line_filter,
        "source_vocab_jaccard": Q.source_vocab_jaccard,
        "pii_scan": Q.pii_scan,
        "q8_market_share": Q.q8_market_share,
        "q15_top_supplier": Q.q15_top_supplier,
        "q17_small_qty_revenue": Q.q17_small_qty_revenue,
        "curation_scorecard": Q.curation_scorecard,
        "orders_reconciliation": Q.orders_reconciliation,
        "doc_word_entropy": Q.doc_word_entropy,
        "user_interarrival_stats": Q.user_interarrival_stats,
        "user_spend_drawup": Q.user_spend_drawup,
        "vocab_growth": Q.vocab_growth,
        "concat_chunk_manifest": Q.concat_chunk_manifest,
        "sample_strata_counts": Q.sample_strata_counts,
        "qty_winsorized": Q.qty_winsorized,
        "dangling_media": Q.dangling_media,
        "drift_by_lang": Q.drift_by_lang,
        "drift_tdigest": Q.drift_tdigest,
        "stats_text": Q.stats_text,
        "hist_text_len": Q.hist_text_len,
        "dup_orderkeys": Q.dup_orderkeys,
        "orphan_events": Q.orphan_events,
        "dangling_parts": Q.dangling_parts,
        "quantiles_nchars": Q.quantiles_nchars,
        "q1_pricing": Q.q1_pricing,
        "top_customers": Q.top_customers,
        "events_daily": Q.events_daily,
        "part_type_stats": Q.part_type_stats,
        "props_k_stats": Q.props_k_stats,
        "top_events": Q.top_events,
        "distinct_sources": Q.distinct_sources,
        "stats_by_source": Q.stats_by_source,
        "events_asof_orders": Q.events_asof_orders,
        "events_sliding": Q.events_sliding,
        "events_in_windows": Q.events_in_windows,
        "daily_active_users": Q.daily_active_users,
        "priority_revenue": Q.priority_revenue,
        "latest_events": Q.latest_events,
        "quality_filter_counts": Q.quality_filter_counts,
        "user_sessions": Q.user_sessions,
        "q3_order_revenue": Q.q3_order_revenue,
        "q5_local_supplier_volume": Q.q5_local_supplier_volume,
        "q6_forecast_revenue": Q.q6_forecast_revenue,
        "dedup_exact": Q.dedup_exact,
        "dedup_clusters": Q.dedup_clusters,
        "dedup_purge": Q.dedup_purge,
        "token_counts": Q.token_counts,
        "quality": Q.quality,
        "fingerprints": Q.fingerprints,
        "lang_pred_counts": Q.lang_pred_counts,
        "split_counts": Q.split_counts,
        "top_words": Q.top_words,
        "minhash_pairs": Q.minhash_pairs,
        "jaccard_pairs": Q.jaccard_pairs,
        "simhash_pairs": Q.simhash_pairs,
        "redact_digits": Q.redact_digits,
        "mixture_counts": Q.mixture_counts,
        "contamination_pairs": Q.contamination_pairs,
        "rarity_scores": Q.rarity_scores,
        "user_order_balance": Q.user_order_balance,
        "frame_dups": Q.frame_dups,
        "label_centroid_dots": Q.label_centroid_dots,
        "overlapping_windows": Q.overlapping_windows,
        "qty_mad": Q.qty_mad,
        "trigram_pairs": Q.trigram_pairs,
        "semantic_dedup_flags": Q.semantic_dedup_flags,
        "user_hourly_spend": Q.user_hourly_spend,
        "nation_supplier_names": Q.nation_supplier_names,
        "funnel": Q.funnel,
        "retention": Q.retention,
        "embedding_int8": Q.embedding_int8,
        "normalized_docs": Q.normalized_docs,
        "lineitem_profile": Q.lineitem_profile,
        "zscore_nchars": Q.zscore_nchars,
        "shuffle_manifest": Q.shuffle_manifest,
        "repetition": Q.repetition,
        "orders_rollup": Q.orders_rollup,
        "priority_pivot": Q.priority_pivot,
        "doc_frequency": Q.doc_frequency,
        "bigram_counts": Q.bigram_counts,
        "tfidf_top_terms": Q.tfidf_top_terms,
        "pack_bins": Q.pack_bins,
        "knn": Q.knn,
        "knn_ivf": Q.knn_ivf,
        "embedding_dups": Q.embedding_dups,
        "kmeans_clusters": Q.kmeans_clusters,
        "media_decode": Q.media_decode,
        "media_frames": Q.media_frames,
        "mode_event_per_user": Q.mode_event_per_user,
        "event_entropy_daily": Q.event_entropy_daily,
        "nation_suppliers": Q.nation_suppliers,
        "qty_outliers": Q.qty_outliers,
        "fingerprint_spread": Q.fingerprint_spread,
        "neardup_purge": Q.neardup_purge,
        "q4_priority_exists": Q.q4_priority_exists,
        "q10_returned_revenue": Q.q10_returned_revenue,
        "churned_rich_customers": Q.churned_rich_customers,
        "bpe_token_stats": Q.bpe_token_stats,
        "approx_users_per_type": Q.approx_users_per_type,
        "word_freq_cms": Q.word_freq_cms,
        "qty_quantiles_disc": Q.qty_quantiles_disc,
        "lineitem_unpivot_stats": Q.lineitem_unpivot_stats,
        "embedding_scores": Q.embedding_scores,
        "customer_order_counts": Q.customer_order_counts,
        "user_churn": Q.user_churn,
        "orders_cube": Q.orders_cube,
        "qty_disc_moments": Q.qty_disc_moments,
        "part_supplier_pagerank": Q.part_supplier_pagerank,
        "boilerplate_grams": Q.boilerplate_grams,
        "compressibility": Q.compressibility,
        "window_dups": Q.window_dups,
        "audio_features": Q.audio_features,
        "weighted_sample": Q.weighted_sample,
        "lang_top_words": Q.lang_top_words,
        "length_percentiles": Q.length_percentiles,
        "weekly_active_users": Q.weekly_active_users,
        "doc_search": Q.doc_search,
        "lineitem_expectations": Q.lineitem_expectations,
        "event_transitions": Q.event_transitions,
        "knn_pq": Q.knn_pq,
        "knn_hnsw": Q.knn_hnsw,
        "ks_drift_sources": Q.ks_drift_sources,
        "user_daily_ohlc": Q.user_daily_ohlc,
        "lang_length_pct": Q.lang_length_pct,
        "bm25_topk": Q.bm25_topk,
        "user_value_ffill": Q.user_value_ffill,
        "qty_price_regression": Q.qty_price_regression,
        "embedding_pca": Q.embedding_pca,
        "embedding_outlier_topk": Q.embedding_outlier_topk,
        "pmi_bigrams": Q.pmi_bigrams,
        "bpe_merges": Q.bpe_merges,
        "orders_union_by_name": Q.orders_union_by_name,
        "lineitem_zorder_stats": Q.lineitem_zorder_stats,
        "grouped_split_leakage": Q.grouped_split_leakage,
        "length_ntile": Q.length_ntile,
        "doc_chunks": Q.doc_chunks,
        "user_value_deltas": Q.user_value_deltas,
        "shuffle_head": Q.shuffle_head,
        "benford_order_totals": Q.benford_order_totals,
        "events_daily_outliers": Q.events_daily_outliers,
    }


def oracle_sql() -> dict[str, str]:
    d = {
        "stats_text": """
            SELECT count(*)::BIGINT AS n_rows,
                   coalesce(sum(CASE WHEN text IS NULL THEN 1 ELSE 0 END), 0)::BIGINT AS n_null,
                   coalesce(sum(CASE WHEN text = '' THEN 1 ELSE 0 END), 0)::BIGINT AS n_empty,
                   min(length(text))::BIGINT AS min_len,
                   max(length(text))::BIGINT AS max_len,
                   sum(length(text))::BIGINT AS sum_len
            FROM documents
        """,
        "hist_text_len": """
            SELECT ((length(text) // 100) * 100)::BIGINT AS bucket,
                   count(*)::BIGINT AS cnt
            FROM documents GROUP BY 1
        """,
        "dup_orderkeys": """
            SELECT l_orderkey, count(*)::BIGINT AS cnt
            FROM lineitem GROUP BY 1 HAVING count(*) > 1
        """,
        "orphan_events": """
            SELECT DISTINCT user_id FROM events
            WHERE user_id NOT IN (SELECT c_custkey FROM customer)
        """,
        "dangling_parts": """
            WITH kept AS (
                SELECT p_partkey FROM part
                WHERE p_partkey <= (SELECT (count(*) * 95) // 100 FROM part)
            )
            SELECT DISTINCT l_orderkey, l_partkey
            FROM lineitem
            WHERE l_partkey NOT IN (SELECT p_partkey FROM kept)
        """,
        "quantiles_nchars": """
            SELECT quantile_disc(n_chars, 0.25)::BIGINT AS q25,
                   quantile_disc(n_chars, 0.50)::BIGINT AS q50,
                   quantile_disc(n_chars, 0.75)::BIGINT AS q75,
                   quantile_disc(n_chars, 0.90)::BIGINT AS q90
            FROM documents
        """,
        "q1_pricing": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity) * 100)::BIGINT AS sum_qty_c100,
                   round(sum(l_extendedprice) * 100)::BIGINT AS sum_base_price_c100,
                   round(avg(l_discount) * 10000)::BIGINT AS avg_disc_bp,
                   count(*)::BIGINT AS count_order
            FROM lineitem GROUP BY 1, 2
        """,
        "top_customers": """
            SELECT o_custkey, c_name,
                   round(sum(o_totalprice) * 100)::BIGINT AS revenue_c100,
                   count(*)::BIGINT AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY 1, 2
            ORDER BY sum(o_totalprice) DESC, o_custkey
            LIMIT 10
        """,
        "events_daily": """
            SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                   count(*)::BIGINT AS cnt
            FROM events GROUP BY 1, 2
        """,
        "top_events": """
            SELECT event_id, round(value * 1000)::BIGINT AS value_m
            FROM events ORDER BY value DESC, event_id LIMIT 100
        """,
        "distinct_sources": """
            SELECT DISTINCT source FROM documents
        """,
        "stats_by_source": """
            SELECT source, count(*)::BIGINT AS n,
                   sum(length(text))::BIGINT AS sum_len,
                   min(length(text))::BIGINT AS min_len,
                   max(length(text))::BIGINT AS max_len
            FROM documents GROUP BY 1
        """,
        "quality_filter_counts": """
            SELECT source, count(*)::BIGINT AS kept
            FROM documents
            WHERE len(regexp_split_to_array(trim(text), '\\s+'))
                  BETWEEN 20 AND 40
            GROUP BY 1
        """,
        "events_sliding": """
            WITH assigned AS (
                SELECT event_type,
                       (epoch_us(ts) // 3600000000) * 3600000000 AS w
                FROM events
                UNION ALL
                SELECT event_type,
                       ((epoch_us(ts) // 3600000000) - 1) * 3600000000 AS w
                FROM events
            )
            SELECT event_type, w AS window_start_us, count(*)::BIGINT AS cnt
            FROM assigned GROUP BY 1, 2
        """,
        "events_asof_orders": """
            WITH ranked AS (
                SELECT e.event_id, o.o_orderkey, o.o_totalprice,
                       row_number() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
                       ) AS rn
                FROM events e
                JOIN orders o
                  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
            )
            SELECT event_id, o_orderkey,
                   round(o_totalprice * 100)::BIGINT AS price_c100
            FROM ranked WHERE rn = 1
        """,
        "user_sessions": """
            WITH marked AS (
                SELECT user_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            sess AS (
                SELECT user_id, ts, value,
                       sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                        ROWS UNBOUNDED PRECEDING) - 1
                           AS session_id
                FROM marked
            )
            SELECT user_id, session_id::BIGINT AS session_id,
                   count(*)::BIGINT AS n_events,
                   epoch_us(min(ts))::BIGINT AS start_us,
                   epoch_us(max(ts))::BIGINT AS end_us,
                   round(sum(value) * 1000)::BIGINT AS sum_value_m
            FROM sess GROUP BY 1, 2
        """,
        "q3_order_revenue": """
            SELECT l_orderkey,
                   round(sum(l_extendedprice * (1 - l_discount)) * 100)::BIGINT
                       AS revenue_c100
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderdate < DATE '1996-01-01'
            GROUP BY 1
            ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC, l_orderkey
            LIMIT 20
        """,
        "props_k_stats": """
            SELECT event_type, count(*)::BIGINT AS n,
                   sum(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT
                       AS sum_k,
                   max(CAST(json_extract_string(props, '$.k') AS BIGINT))::BIGINT
                       AS max_k
            FROM events
            WHERE json_extract_string(props, '$.k') IS NOT NULL
            GROUP BY 1
        """,
        "q5_local_supplier_volume": """
            SELECT n_name,
                   round(sum(l_extendedprice * (1 - l_discount)) * 100)::BIGINT
                       AS revenue_c100
            FROM customer
            JOIN orders   ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation   ON s_nationkey = n_nationkey
            JOIN region   ON n_regionkey = r_regionkey
            WHERE r_name = 'ASIA'
              AND c_nationkey = s_nationkey
              AND o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1997-01-01'
            GROUP BY 1
        """,
        "q6_forecast_revenue": """
            SELECT coalesce(round(sum(l_extendedprice * l_discount) * 100),
                            0)::BIGINT AS revenue_c100
            FROM lineitem
            WHERE l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "part_type_stats": """
            SELECT p_type,
                   round(avg(p_retailprice) * 100)::BIGINT AS avg_price_c100,
                   count(*)::BIGINT AS n
            FROM part GROUP BY 1
        """,
        "dedup_exact": """
            WITH aug AS (
                SELECT text FROM documents
                UNION ALL
                SELECT text FROM documents WHERE doc_id % 10 = 0
            )
            SELECT md5(text) AS fp_md5, count(*)::BIGINT AS cnt
            FROM aug GROUP BY 1 HAVING count(*) > 1
        """,
        "token_counts": """
            SELECT doc_id,
                   len(regexp_split_to_array(trim(text), '\\s+'))::BIGINT AS n_tokens,
                   list_sum(list_transform(
                       regexp_split_to_array(trim(text), '\\s+'),
                       w -> ceil(length(w) / 6.0)::BIGINT))::BIGINT AS n_subwords
            FROM documents
        """,
        "quality": """
            SELECT doc_id,
                   round(length(regexp_replace(text, '[^.,!?;:]', '', 'g'))
                         / greatest(length(text), 1)::DOUBLE, 6) AS punct_ratio,
                   round(length(regexp_replace(text, '[^0-9]', '', 'g'))
                         / greatest(length(text), 1)::DOUBLE, 6) AS digit_ratio,
                   round(length(regexp_replace(text, '[^A-Z]', '', 'g'))
                         / greatest(length(text), 1)::DOUBLE, 6) AS upper_ratio,
                   round(len(list_filter(
                             list_filter(string_split_regex(trim(text), '\\s+'),
                                         x -> x <> ''),
                             w -> lower(w) IN ('a','an','and','are','as','at',
                                               'be','by','for','in','is','it',
                                               'of','on','that','the','this',
                                               'to','was','with')))
                         / greatest(len(list_filter(
                             string_split_regex(trim(text), '\\s+'),
                             x -> x <> '')), 1)::DOUBLE, 6) AS stopword_ratio
            FROM documents
        """,
        "fingerprints": """
            SELECT doc_id,
                   md5(lower(regexp_replace(text, '\\s+', ' ', 'g'))) AS fp_md5
            FROM documents
        """,
        "top_words": """
            SELECT w AS word, count(*)::BIGINT AS cnt
            FROM (
                SELECT unnest(list_filter(
                    string_split_regex(lower(trim(text)), '\\s+'),
                    x -> x <> '')) AS w
                FROM documents
            )
            GROUP BY 1
            ORDER BY cnt DESC, word ASC
            LIMIT 25
        """,
        "split_counts": """
            SELECT CASE WHEN md5_number_lower('split' || doc_id::VARCHAR)
                             % 10000 < 9000
                        THEN 'train' ELSE 'test' END AS split,
                   count(*)::BIGINT AS cnt
            FROM documents GROUP BY 1
        """,
        "lang_pred_counts": r"""
            WITH scored AS (
              SELECT
                length(regexp_replace(substr(coalesce(text,''), 1, 200),
                                      '[^一-鿿]', '', 'g')) AS cjk,
                length(substr(coalesce(text,''), 1, 200)) AS len200,
                array_slice(list_filter(
                    regexp_split_to_array(lower(coalesce(text,'')), '\s+'),
                    w -> w <> ''), 1, 100) AS head
              FROM documents
            ), hits AS (
              SELECT cjk, len200,
                len(list_filter(head, w -> w IN ('the','and','of','to','a',
                    'in','is','that','it','for'))) AS en,
                len(list_filter(head, w -> w IN ('el','la','de','que','y',
                    'en','un','los','se','por'))) AS es,
                len(list_filter(head, w -> w IN ('le','la','de','et','les',
                    'des','un','une','du','est'))) AS fr,
                len(list_filter(head, w -> w IN ('der','die','und','das',
                    'ist','von','den','mit','ein','zu'))) AS de
              FROM scored
            ), pred AS (
              SELECT CASE WHEN cjk > 0.2 * len200 THEN 'zh'
                          WHEN greatest(en,es,fr,de) < 1 THEN 'unknown'
                          WHEN en = greatest(en,es,fr,de) THEN 'en'
                          WHEN es = greatest(en,es,fr,de) THEN 'es'
                          WHEN fr = greatest(en,es,fr,de) THEN 'fr'
                          ELSE 'de' END AS pred_lang
              FROM hits
            )
            SELECT pred_lang, count(*)::BIGINT AS cnt
            FROM pred GROUP BY 1
        """,
        "dedup_purge": """
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            g AS (SELECT doc_id, md5(coalesce(text, '')) AS h FROM aug)
            SELECT min(doc_id)::BIGINT AS doc_id FROM g GROUP BY h
        """,
        "stratified_fixed_k": """
            SELECT source, doc_id,
                   row_number() OVER (
                       PARTITION BY source
                       ORDER BY md5_number_lower('strat' || doc_id::VARCHAR)
                                ASC, doc_id ASC)::BIGINT AS rk
            FROM documents
            QUALIFY rk <= 5
        """,
        "lineitem_profile": """
            SELECT 'l_orderkey' AS column, count(*)::BIGINT n_rows,
                   (count(*) - count(l_orderkey))::BIGINT n_null,
                   min(l_orderkey)::BIGINT min_v,
                   max(l_orderkey)::BIGINT max_v,
                   sum(l_orderkey)::BIGINT sum_v FROM lineitem
            UNION ALL
            SELECT 'l_partkey', count(*), count(*) - count(l_partkey),
                   min(l_partkey), max(l_partkey), sum(l_partkey)::BIGINT
            FROM lineitem
            UNION ALL
            SELECT 'l_suppkey', count(*), count(*) - count(l_suppkey),
                   min(l_suppkey), max(l_suppkey), sum(l_suppkey)::BIGINT
            FROM lineitem
            UNION ALL
            SELECT 'l_quantity_c100', count(*),
                   count(*) - count(l_quantity),
                   min(CAST(round(l_quantity * 100) AS BIGINT)),
                   max(CAST(round(l_quantity * 100) AS BIGINT)),
                   sum(CAST(round(l_quantity * 100) AS BIGINT))::BIGINT
            FROM lineitem
            UNION ALL
            SELECT 'l_extendedprice_c100', count(*),
                   count(*) - count(l_extendedprice),
                   min(CAST(round(l_extendedprice * 100) AS BIGINT)),
                   max(CAST(round(l_extendedprice * 100) AS BIGINT)),
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT
            FROM lineitem
            UNION ALL
            SELECT 'l_discount_c100', count(*),
                   count(*) - count(l_discount),
                   min(CAST(round(l_discount * 100) AS BIGINT)),
                   max(CAST(round(l_discount * 100) AS BIGINT)),
                   sum(CAST(round(l_discount * 100) AS BIGINT))::BIGINT
            FROM lineitem
            UNION ALL
            SELECT 'l_tax_c100', count(*), count(*) - count(l_tax),
                   min(CAST(round(l_tax * 100) AS BIGINT)),
                   max(CAST(round(l_tax * 100) AS BIGINT)),
                   sum(CAST(round(l_tax * 100) AS BIGINT))::BIGINT
            FROM lineitem
        """,
        "normalized_docs": """
            SELECT doc_id,
                   trim(regexp_replace(
                       lower(nfc_normalize(coalesce(text, ''))),
                       '\\s+', ' ', 'g')) AS text_norm,
                   length(trim(regexp_replace(
                       lower(nfc_normalize(coalesce(text, ''))),
                       '\\s+', ' ', 'g')))::BIGINT AS norm_len
            FROM documents
        """,
        "embedding_int8": """
            WITH u AS (
                SELECT vec_id, generate_subscripts(embedding, 1) AS idx,
                       unnest(embedding) AS x
                FROM embeddings
            ), m AS (
                SELECT vec_id AS mv, max(abs(x::DOUBLE)) AS ma
                FROM u GROUP BY vec_id
            )
            SELECT u.vec_id, idx::BIGINT AS idx,
                   CASE WHEN ma > 0
                        THEN round(x::DOUBLE * 127.0 / ma)::BIGINT
                        ELSE 0 END AS q
            FROM u JOIN m ON u.vec_id = m.mv
        """,
        "retention": """
            WITH f AS (
                SELECT user_id, min(ts) AS ft FROM events
                WHERE event_type = 'signup' GROUP BY user_id
            ), act AS (
                SELECT e.user_id,
                       strftime(date_trunc('day', f.ft), '%Y-%m-%d')
                           AS cohort,
                       CAST(floor(date_diff('microsecond', f.ft, e.ts)
                                  / 86400000000.0) AS BIGINT)
                           AS day_offset
                FROM events e JOIN f ON e.user_id = f.user_id
                WHERE e.ts >= f.ft
            )
            SELECT cohort, day_offset,
                   count(DISTINCT user_id)::BIGINT AS n_users
            FROM act GROUP BY cohort, day_offset
        """,
        "funnel": """
            WITH s1 AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'view' GROUP BY user_id
            ), s2 AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN s1 ON e.user_id = s1.user_id
                WHERE e.event_type = 'click' AND e.ts > s1.t
                GROUP BY e.user_id
            ), s3 AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN s2 ON e.user_id = s2.user_id
                WHERE e.event_type = 'purchase' AND e.ts > s2.t
                GROUP BY e.user_id
            )
            SELECT 1::BIGINT AS step, count(*)::BIGINT AS n_users FROM s1
            UNION ALL
            SELECT 2::BIGINT, count(*)::BIGINT FROM s2
            UNION ALL
            SELECT 3::BIGINT, count(*)::BIGINT FROM s3
        """,
        "user_value_deltas": """
            SELECT event_id, user_id,
                   (CAST(round(value * 100) AS BIGINT)
                    - lag(CAST(round(value * 100) AS BIGINT)) OVER (
                          PARTITION BY user_id
                          ORDER BY ts, event_id))::BIGINT AS delta_c100
            FROM events
        """,
        "doc_chunks": """
            WITH toks AS (
                SELECT doc_id,
                       string_split(coalesce(text, ''), ' ') AS t
                FROM documents
            ), meta AS (
                SELECT doc_id, t, len(t) AS n FROM toks
            ), starts AS (
                SELECT doc_id, t, n,
                       unnest(range(0, greatest(n, 1), 40)) AS s
                FROM meta
            )
            SELECT doc_id, (s / 40)::BIGINT AS chunk_id,
                   array_to_string(t[s + 1 : least(s + 50, n)], ' ')
                       AS chunk
            FROM starts
            WHERE s = 0 OR s < n
        """,
        "length_ntile": """
            SELECT doc_id,
                   row_number() OVER (ORDER BY n_chars, doc_id)::BIGINT
                       AS rk,
                   ntile(8) OVER (ORDER BY n_chars, doc_id)::BIGINT
                       AS bucket
            FROM documents
        """,
        "part_copurchase_triangles": """
            WITH pairs AS (
              SELECT DISTINCT least(a.l_partkey, b.l_partkey) AS u,
                              greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                   ON a.l_orderkey = b.l_orderkey
                  AND a.l_partkey < b.l_partkey
            ),
            tri AS (
              SELECT e1.u AS x, e1.v AS y, e2.v AS z
              FROM pairs e1
              JOIN pairs e2 ON e2.u = e1.v
              JOIN pairs e3 ON e3.u = e1.u AND e3.v = e2.v
            )
            SELECT node AS l_partkey, count(*)::BIGINT AS n_tri FROM (
              SELECT x AS node FROM tri
              UNION ALL SELECT y FROM tri
              UNION ALL SELECT z FROM tri
            ) GROUP BY node
        """,
        "user_hourly_spend": """
            SELECT event_id, user_id,
                   (sum(CAST(round(value * 100) AS BIGINT)) OVER w)
                       ::BIGINT AS range_sum_c100,
                   count(*) OVER w AS n_range
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                               AND CURRENT ROW)
        """,
        "nation_supplier_names": """
            SELECT s_nationkey,
                   string_agg(s_name, ',' ORDER BY s_name) AS names,
                   count(*)::BIGINT AS n_items
            FROM supplier GROUP BY s_nationkey
        """,
        "user_running_total": """
            SELECT event_id, user_id,
                   SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING)::BIGINT AS run_sum_c100,
                   row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id)::BIGINT AS rn
            FROM events
        """,
        "zscore_nchars": """
            WITH s AS (
                SELECT source, count(*)::DOUBLE AS c,
                       sum(n_chars)::DOUBLE AS s1,
                       sum(n_chars * n_chars)::DOUBLE AS s2
                FROM documents GROUP BY source
            ),
            m AS (
                SELECT source, s1 / c AS mean,
                       sqrt(s2 / c - (s1 / c) * (s1 / c)) AS sd
                FROM s
            )
            SELECT d.doc_id, d.source,
                   CASE WHEN m.sd > 0
                        THEN round((d.n_chars - m.mean) / m.sd * 10000,
                                   0)::BIGINT
                        ELSE 0 END AS z_bp
            FROM documents d JOIN m USING (source)
        """,
        "shuffle_manifest": """
            WITH h AS (
                SELECT doc_id,
                       md5_number_lower('shuf' || doc_id::VARCHAR) AS hv
                FROM documents
            )
            SELECT doc_id, (hv % 8)::BIGINT AS shard,
                   (row_number() OVER (PARTITION BY hv % 8
                                       ORDER BY hv, doc_id) - 1)::BIGINT
                       AS pos
            FROM h
        """,
        "repetition": """
            SELECT doc_id,
                   len(string_split(coalesce(text, ''), ' '))::BIGINT
                       AS n_words,
                   (SELECT count(DISTINCT w)
                    FROM unnest(string_split(coalesce(text, ''), ' '))
                         AS t(w))::BIGINT AS n_distinct
            FROM documents
        """,
        "dedup_clusters": """
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            g AS (SELECT doc_id, md5(coalesce(text, '')) AS h FROM aug),
            d AS (SELECT h, min(doc_id) AS component FROM g
                  GROUP BY h HAVING count(*) > 1)
            SELECT g.doc_id, d.component FROM g JOIN d USING (h)
        """,
        "minhash_pairs": """
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            words AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM aug
            ),
            sh AS (
                SELECT doc_id,
                       CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                            WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                            ELSE list_distinct(list_transform(
                                range(1, len(w) - 1),
                                i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                       END AS s
                FROM words
            ),
            pairs AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.s, b.s)) AS inter,
                       len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))
                           AS uni
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b,
                   round(10000.0 * CASE WHEN uni = 0 THEN 1.0
                                        ELSE inter::DOUBLE / uni END)::BIGINT
                       AS jac_bp
            FROM pairs
            WHERE CASE WHEN uni = 0 THEN 1.0
                       ELSE inter::DOUBLE / uni END >= 0.9
        """,
        "jaccard_pairs": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ),
            sh AS (
                SELECT doc_id,
                       array_to_string(list_slice(w, 1, 5), ' ') AS blk,
                       CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                            WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                            ELSE list_distinct(list_transform(
                                range(1, len(w) - 1),
                                i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                       END AS s
                FROM words
            ),
            pairs AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.s, b.s)) AS inter,
                       len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))
                           AS uni
                FROM sh a JOIN sh b
                    ON a.blk = b.blk AND a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b,
                   round(10000.0 * CASE WHEN uni = 0 THEN 1.0
                                        ELSE inter::DOUBLE / uni END)::BIGINT
                       AS jac_bp
            FROM pairs
            WHERE CASE WHEN uni = 0 THEN 1.0
                       ELSE inter::DOUBLE / uni END >= 0.6
        """,
        "simhash_pairs": """
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            tok AS (
                SELECT a.doc_id, md5_number_lower(t.w) AS h
                FROM aug a,
                     unnest(list_filter(
                         string_split_regex(lower(a.text), '\\s+'),
                         x -> x <> '')) AS t(w)
            ),
            votes AS (
                SELECT doc_id, bits.b AS bit,
                       sum(CASE WHEN (h >> bits.b) & 1 = 1
                                THEN 1 ELSE -1 END) AS v
                FROM tok, (SELECT unnest(range(0, 64)) AS b) bits
                GROUP BY doc_id, bits.b
            ),
            sig AS (
                SELECT doc_id,
                       CAST(sum(CASE WHEN v > 0
                                     THEN CAST(1 AS UBIGINT) << bit
                                     ELSE 0 END) AS UBIGINT) AS s
                FROM votes GROUP BY doc_id
            ),
            sigall AS (
                SELECT a.doc_id, coalesce(s.s, CAST(0 AS UBIGINT)) AS s
                FROM aug a LEFT JOIN sig s ON a.doc_id = s.doc_id
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   bit_count(xor(a.s, b.s))::BIGINT AS hamming
            FROM sigall a JOIN sigall b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.s, b.s)) <= 2
        """,
        "redact_digits": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '[0-9]+'))::BIGINT AS n_hits,
                   length(regexp_replace(text, '[0-9]+', '#', 'g'))::BIGINT
                       AS red_len
            FROM documents
        """,
        "mixture_counts": """
            SELECT source, count(*)::BIGINT AS cnt
            FROM documents
            WHERE md5_number_lower('mix' || doc_id::VARCHAR) % 10000 <
                  CASE WHEN length(source) = 4 THEN 2000 ELSE 500 END
            GROUP BY source
        """,
        "contamination_pairs": """
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            tagged AS (
                SELECT doc_id::VARCHAR AS id, md5(coalesce(text, '')) AS fp,
                       md5_number_lower('split' || doc_id::VARCHAR)
                           % 10000 < 9000 AS is_train
                FROM aug
            )
            SELECT a.id AS train_id, b.id AS test_id, a.fp AS fp
            FROM tagged a JOIN tagged b ON a.fp = b.fp
            WHERE a.is_train AND NOT b.is_train
        """,
        "curation_funnel": r"""
            WITH aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            base AS (
                SELECT doc_id,
                       md5(coalesce(text, '')) AS fp,
                       md5_number_lower('split' || doc_id::VARCHAR)
                           % 10000 < 9000 AS is_train,
                       len(regexp_split_to_array(
                           trim(coalesce(text, '')), '\s+'))::BIGINT
                           AS n_tokens,
                       length(regexp_replace(
                           substr(coalesce(text,''), 1, 200),
                           '[^一-鿿]', '', 'g')) AS cjk,
                       length(substr(coalesce(text,''), 1, 200)) AS len200,
                       array_slice(list_filter(
                           regexp_split_to_array(
                               lower(coalesce(text,'')), '\s+'),
                           w -> w <> ''), 1, 100) AS head
                FROM aug
            ),
            hits AS (
                SELECT *,
                  len(list_filter(head, w -> w IN ('the','and','of','to',
                      'a','in','is','that','it','for'))) AS en,
                  len(list_filter(head, w -> w IN ('el','la','de','que',
                      'y','en','un','los','se','por'))) AS es,
                  len(list_filter(head, w -> w IN ('le','la','de','et',
                      'les','des','un','une','du','est'))) AS fr,
                  len(list_filter(head, w -> w IN ('der','die','und','das',
                      'ist','von','den','mit','ein','zu'))) AS de
                FROM base
            ),
            lang AS (
                SELECT doc_id, fp, is_train, n_tokens,
                  CASE WHEN cjk > 0.2 * len200 THEN 'zh'
                       WHEN greatest(en,es,fr,de) < 1 THEN 'unknown'
                       WHEN en = greatest(en,es,fr,de) THEN 'en'
                       WHEN es = greatest(en,es,fr,de) THEN 'es'
                       WHEN fr = greatest(en,es,fr,de) THEN 'fr'
                       ELSE 'de' END AS pred_lang
                FROM hits
            ),
            s1 AS (SELECT * FROM lang WHERE pred_lang = 'en'),
            s2 AS (SELECT * FROM s1 WHERE n_tokens BETWEEN 20 AND 40),
            s3 AS (SELECT * FROM s2
                   QUALIFY doc_id = min(doc_id) OVER (PARTITION BY fp)),
            s4 AS (SELECT * FROM s3
                   WHERE is_train AND fp NOT IN
                         (SELECT fp FROM lang WHERE NOT is_train))
            SELECT 0::BIGINT AS stage_idx, 'input' AS stage,
                   count(*)::BIGINT AS docs,
                   coalesce(sum(n_tokens), 0)::BIGINT AS sum_tokens
            FROM lang
            UNION ALL SELECT 1, 'langid_en', count(*)::BIGINT,
                   coalesce(sum(n_tokens), 0)::BIGINT FROM s1
            UNION ALL SELECT 2, 'quality_20_40', count(*)::BIGINT,
                   coalesce(sum(n_tokens), 0)::BIGINT FROM s2
            UNION ALL SELECT 3, 'exact_dedup', count(*)::BIGINT,
                   coalesce(sum(n_tokens), 0)::BIGINT FROM s3
            UNION ALL SELECT 4, 'train_decontam', count(*)::BIGINT,
                   coalesce(sum(n_tokens), 0)::BIGINT FROM s4
        """,
        "rarity_scores": r"""
            WITH words AS (
                SELECT doc_id, unnest(list_filter(
                    regexp_split_to_array(lower(trim(coalesce(text,''))),
                                          '\s+'),
                    w -> w <> '')) AS w
                FROM documents
            ),
            cnt AS (SELECT w, count(*)::BIGINT AS c FROM words GROUP BY 1),
            tot AS (SELECT count(*)::BIGINT AS n FROM words)
            SELECT doc_id,
                   sum(tot.n // cnt.c)::BIGINT AS rarity
            FROM words JOIN cnt USING (w) CROSS JOIN tot
            GROUP BY doc_id
        """,
        "trigram_pairs": """
            WITH d AS (
                SELECT doc_id, lower(coalesce(text, '')) AS t
                FROM documents
            ),
            pos AS (
                SELECT doc_id, t,
                       unnest(generate_series(
                           1, greatest(length(t) - 2, 0))) AS i
                FROM d
            ),
            g AS (SELECT DISTINCT doc_id, substr(t, i, 3) AS gram
                  FROM pos),
            ok AS (SELECT gram FROM g GROUP BY gram
                   HAVING count(*) <= 64),
            pairs AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       count(*)::BIGINT AS shared
                FROM g a JOIN ok USING (gram) JOIN g b USING (gram)
                WHERE a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT doc_a, doc_b, shared FROM pairs WHERE shared >= 12
        """,
        "qty_mad": """
            WITH med AS (
                SELECT l_returnflag AS g,
                       quantile_cont(l_quantity, 0.5) AS m
                FROM lineitem GROUP BY 1
            )
            SELECT g AS l_returnflag,
                   round(m * 100)::BIGINT AS median_c100,
                   round(quantile_cont(abs(l_quantity - m), 0.5)
                         * 100)::BIGINT AS mad_c100
            FROM lineitem l JOIN med ON l.l_returnflag = med.g
            GROUP BY g, m
        """,
        "overlapping_windows": """
            WITH a AS (
                SELECT event_id AS a_id, ts AS s,
                       ts + INTERVAL 1 HOUR AS e
                FROM events WHERE event_id % 50 = 0
            ), b AS (
                SELECT event_id AS b_id, ts AS s,
                       ts + INTERVAL 2 HOUR AS e
                FROM events WHERE event_id % 70 = 0
            )
            SELECT a_id, b_id,
                   date_diff('microsecond',
                             greatest(a.s, b.s),
                             least(a.e, b.e))::BIGINT AS overlap_us
            FROM a JOIN b ON a.s < b.e AND b.s < a.e
        """,
        "label_centroid_dots": """
            WITH u AS (
                SELECT vec_id, label,
                       generate_subscripts(embedding, 1) AS idx,
                       unnest(embedding) AS x
                FROM embeddings
            ), m AS (
                SELECT vec_id AS mv, max(abs(x::DOUBLE)) AS ma
                FROM u GROUP BY vec_id
            ), q AS (
                SELECT label, idx,
                       CASE WHEN ma > 0
                            THEN round(x::DOUBLE * 127.0 / ma)::BIGINT
                            ELSE 0 END AS q
                FROM u JOIN m ON u.vec_id = m.mv
            ), c AS (
                SELECT label, idx, sum(q)::BIGINT AS s
                FROM q GROUP BY 1, 2
            )
            SELECT a.label::BIGINT AS label_a, b.label::BIGINT AS label_b,
                   sum(a.s * b.s)::BIGINT AS dot
            FROM c a JOIN c b ON a.idx = b.idx AND a.label < b.label
            GROUP BY 1, 2
        """,
        "user_order_balance": """
            WITH a AS (SELECT user_id, count(*)::BIGINT AS n_events
                       FROM events GROUP BY 1),
            b AS (SELECT o_custkey AS user_id, count(*)::BIGINT AS n_orders
                  FROM orders GROUP BY 1)
            SELECT coalesce(a.user_id, b.user_id)::BIGINT AS user_id,
                   coalesce(n_events, 0)::BIGINT AS n_events,
                   coalesce(n_orders, 0)::BIGINT AS n_orders
            FROM a FULL OUTER JOIN b ON a.user_id = b.user_id
        """,
        "events_in_windows": """
            WITH w AS (
                SELECT user_id, event_id AS win_id,
                       ts AS start_ts,
                       ts + INTERVAL 1 HOUR AS end_ts
                FROM events WHERE event_id % 50 = 0
            )
            SELECT w.user_id, w.win_id,
                   coalesce(sum(CASE WHEN e.ts >= w.start_ts
                                      AND e.ts <= w.end_ts
                                     THEN 1 ELSE 0 END), 0)::BIGINT
                       AS n_matched
            FROM w LEFT JOIN events e ON e.user_id = w.user_id
            GROUP BY w.user_id, w.win_id
        """,
        "orders_rollup": """
            SELECT o_year, o_orderpriority,
                   count(*)::BIGINT AS cnt, sum(c100)::BIGINT AS sum_c100
            FROM (SELECT year(o_orderdate)::BIGINT AS o_year,
                         o_orderpriority,
                         CAST(round(o_totalprice * 100) AS BIGINT) AS c100
                  FROM orders)
            GROUP BY ROLLUP(o_year, o_orderpriority)
        """,
        "priority_pivot": """
            SELECT year(o_orderdate)::BIGINT AS o_year,
                   count(*) FILTER (o_orderpriority = '1-URGENT')::BIGINT
                       AS p_urgent,
                   count(*) FILTER (o_orderpriority = '2-HIGH')::BIGINT
                       AS p_high,
                   count(*) FILTER (o_orderpriority = '3-MEDIUM')::BIGINT
                       AS p_medium,
                   count(*) FILTER (o_orderpriority = '4-NOT SPECIFIED')::BIGINT
                       AS p_notspec,
                   count(*) FILTER (o_orderpriority = '5-LOW')::BIGINT
                       AS p_low
            FROM orders GROUP BY 1
        """,
        "priority_revenue": """
            SELECT o_orderpriority, count(*)::BIGINT AS cnt,
                   sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                            AS BIGINT))::BIGINT AS rev_c100
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY 1
        """,
        "latest_events": """
            SELECT user_id, event_id, ts, event_type FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id
                ORDER BY ts DESC, event_id DESC) = 1
        """,
        "daily_active_users": """
            SELECT strftime(ts, '%Y-%m-%d') AS day,
                   count(DISTINCT user_id)::BIGINT AS n_users
            FROM events GROUP BY 1
        """,
        "calibration_bins": """
            WITH u AS (
                SELECT vec_id, generate_subscripts(embedding, 1) AS idx,
                       unnest(embedding) AS x
                FROM embeddings
            ), sc AS (
                SELECT vec_id,
                       sum(round(x::DOUBLE
                                 * ((((idx * 2654435761) % 2001) - 1000)
                                    / 1000.0)
                                 * 1000000))::BIGINT AS score_u
                FROM u GROUP BY vec_id
            ), j AS (
                SELECT sc.score_u,
                       CASE WHEN e.label = 0 THEN 1 ELSE 0 END AS pos
                FROM sc JOIN embeddings e ON e.vec_id = sc.vec_id
            ), mm AS (
                SELECT min(score_u) AS lo, max(score_u) AS hi FROM j
            )
            SELECT ((j.score_u - mm.lo)
                    // ((mm.hi - mm.lo + 10) // 10))::BIGINT AS bin,
                   sum(j.pos)::BIGINT AS n_pos,
                   count(*)::BIGINT AS n_tot,
                   sum(j.score_u)::BIGINT AS score_sum
            FROM j, mm
            GROUP BY 1
        """,
        "parity_rates": """
            WITH u AS (
                SELECT vec_id, generate_subscripts(embedding, 1) AS idx,
                       unnest(embedding) AS x
                FROM embeddings
            ), sc AS (
                SELECT vec_id,
                       sum(round(x::DOUBLE
                                 * ((((idx * 2654435761) % 2001) - 1000)
                                    / 1000.0)
                                 * 1000000))::BIGINT AS score_u
                FROM u GROUP BY vec_id
            ), j AS (
                SELECT e.label::BIGINT AS grp, sc.score_u
                FROM sc JOIN embeddings e ON e.vec_id = sc.vec_id
            ), m AS (
                SELECT score_u AS med FROM (
                    SELECT score_u,
                           row_number() OVER (ORDER BY score_u) AS rn
                    FROM j)
                WHERE rn = (SELECT (count(*) + 1) // 2 FROM j)
            ), t AS (
                SELECT grp,
                       CASE WHEN score_u > (SELECT med FROM m)
                            THEN 1 ELSE 0 END AS hi
                FROM j
            )
            SELECT grp, sum(hi)::BIGINT AS n_above,
                   count(*)::BIGINT AS n_tot,
                   CAST(floor(sum(hi)::DOUBLE / count(*) * 1000000
                              + 0.5) AS BIGINT) AS rate_e6
            FROM t GROUP BY grp
        """,
        "label_auc": """
            WITH u AS (
                SELECT vec_id, generate_subscripts(embedding, 1) AS idx,
                       unnest(embedding) AS x
                FROM embeddings
            ), sc AS (
                SELECT vec_id,
                       sum(round(x::DOUBLE
                                 * ((((idx * 2654435761) % 2001) - 1000)
                                    / 1000.0)
                                 * 1000000))::BIGINT AS score_u
                FROM u GROUP BY vec_id
            ), j AS (
                SELECT sc.score_u,
                       CASE WHEN e.label = 0 THEN 1 ELSE 0 END AS pos
                FROM sc JOIN embeddings e ON e.vec_id = sc.vec_id
            ), agg AS (
                SELECT score_u, count(*)::BIGINT AS c,
                       sum(pos)::BIGINT AS npos
                FROM j GROUP BY score_u
            ), w AS (
                SELECT score_u, c, npos,
                       coalesce(SUM(c) OVER (ORDER BY score_u
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0)::BIGINT
                           AS cum_less
                FROM agg
            ), t AS (
                SELECT sum(npos * (2 * cum_less + c + 1))::BIGINT
                           AS u2_pos,
                       sum(npos)::BIGINT AS n_pos,
                       sum(c - npos)::BIGINT AS n_neg
                FROM w
            )
            SELECT u2_pos, n_pos, n_neg,
                   CAST(floor(((u2_pos - n_pos * (n_pos + 1))::DOUBLE
                               / (2.0 * n_pos * n_neg)) * 1000000
                              + 0.5) AS BIGINT) AS auc_e6
            FROM t
        """,
        "k_anonymity_violations": """
            SELECT lang, source,
                   (n_chars // 200)::BIGINT AS len_bucket,
                   count(*)::BIGINT AS cnt
            FROM documents
            GROUP BY 1, 2, 3
            HAVING count(*) < 5
        """,
        "golden_records": """
            WITH aug AS (
                SELECT doc_id, text, n_chars FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text, n_chars FROM documents
                WHERE doc_id % 10 = 0
            ), n AS (
                SELECT doc_id, n_chars,
                       trim(regexp_replace(
                           lower(nfc_normalize(coalesce(text, ''))),
                           '\\s+', ' ', 'g')) AS nm
                FROM aug
            )
            SELECT min(doc_id)::BIGINT AS golden_id,
                   count(*)::BIGINT AS n_members,
                   (min((100000 - n_chars) * 4194304 + doc_id)
                    % 4194304)::BIGINT AS rep_doc,
                   (100000 - min((100000 - n_chars) * 4194304 + doc_id)
                    // 4194304)::BIGINT AS rep_len
            FROM n GROUP BY nm
        """,
        "lang_confusion": r"""
            WITH scored AS (
              SELECT lang,
                length(regexp_replace(substr(coalesce(text,''), 1, 200),
                                      '[^一-鿿]', '', 'g')) AS cjk,
                length(substr(coalesce(text,''), 1, 200)) AS len200,
                array_slice(list_filter(
                    regexp_split_to_array(lower(coalesce(text,'')),
                                          '\s+'),
                    w -> w <> ''), 1, 100) AS head
              FROM documents
            ), hits AS (
              SELECT lang, cjk, len200,
                len(list_filter(head, w -> w IN ('the','and','of','to',
                    'a','in','is','that','it','for'))) AS en,
                len(list_filter(head, w -> w IN ('el','la','de','que',
                    'y','en','un','los','se','por'))) AS es,
                len(list_filter(head, w -> w IN ('le','la','de','et',
                    'les','des','un','une','du','est'))) AS fr,
                len(list_filter(head, w -> w IN ('der','die','und','das',
                    'ist','von','den','mit','ein','zu'))) AS de
              FROM scored
            ), pred AS (
              SELECT lang,
                     CASE WHEN cjk > 0.2 * len200 THEN 'zh'
                          WHEN greatest(en,es,fr,de) < 1 THEN 'unknown'
                          WHEN en = greatest(en,es,fr,de) THEN 'en'
                          WHEN es = greatest(en,es,fr,de) THEN 'es'
                          WHEN fr = greatest(en,es,fr,de) THEN 'fr'
                          ELSE 'de' END AS pred_lang
              FROM hits
            )
            SELECT lang, pred_lang, count(*)::BIGINT AS n
            FROM pred GROUP BY 1, 2
        """,
        "ranking_overlap": """
            WITH s AS (
                SELECT user_id::BIGINT AS k,
                       sum(round(value * 100))::BIGINT AS v
                FROM events GROUP BY 1
            ), r1 AS (
                SELECT k, row_number() OVER (ORDER BY v DESC, k) AS r
                FROM s QUALIFY r <= 20
            ), a AS (
                SELECT user_id::BIGINT AS k, count(*)::BIGINT AS v
                FROM events GROUP BY 1
            ), r2 AS (
                SELECT k, row_number() OVER (ORDER BY v DESC, k) AS r
                FROM a QUALIFY r <= 20
            ), d AS (
                SELECT unnest(range(1, 21)) AS depth
            )
            SELECT d.depth::BIGINT AS depth,
                   (SELECT count(*) FROM r1 JOIN r2 ON r1.k = r2.k
                    WHERE r1.r <= d.depth AND r2.r <= d.depth)::BIGINT
                       AS n_overlap
            FROM d
        """,
        "planted_skew_salted": """
            SELECT k, cnt FROM (
                SELECT CASE WHEN o_orderkey % 3 <> 0 THEN 0
                            ELSE o_custkey END::BIGINT AS k,
                       count(*)::BIGINT AS cnt
                FROM orders GROUP BY 1 HAVING count(*) > 1
            ) ORDER BY cnt DESC, k LIMIT 20
        """,
        "custkey_skew": """
            WITH c AS (
                SELECT o_custkey, count(*)::BIGINT AS cnt
                FROM orders GROUP BY 1
            ), r AS (
                SELECT cnt,
                       row_number() OVER (ORDER BY cnt, o_custkey) AS i
                FROM c
            ), t AS (
                SELECT sum(cnt * i)::BIGINT AS S,
                       count(*)::BIGINT AS n,
                       sum(cnt)::BIGINT AS T,
                       max(cnt)::BIGINT AS mx
                FROM r
            )
            SELECT n AS n_keys, T AS n_rows, mx AS max_cnt,
                   CAST(floor((2.0 * S / (n * T) - (n + 1.0) / n)
                              * 1000000 + 0.5) AS BIGINT) AS gini_e6,
                   CAST(floor(mx::DOUBLE / T * 1000000 + 0.5)
                        AS BIGINT) AS top1_share_e6
            FROM t
        """,
        "shard_assignment": """
            WITH shards AS (
                SELECT unnest(['shard00','shard01','shard02','shard03',
                               'shard04','shard05','shard06','shard07'])
                           AS shard
            ), w AS (
                SELECT d.doc_id, s.shard,
                       md5_number_lower(d.doc_id::VARCHAR || '|'
                                        || s.shard) AS wt
                FROM documents d CROSS JOIN shards s
            ), best AS (
                SELECT doc_id, shard,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY wt DESC, shard ASC)
                           AS rn
                FROM w
            )
            SELECT shard, count(*)::BIGINT AS n_docs
            FROM best WHERE rn = 1 GROUP BY shard
        """,
        "winnow_stats": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(
                           string_split_regex(lower(coalesce(text, '')),
                                              '\\s+'),
                           x -> x <> '') AS w
                FROM documents
            ), grams AS (
                SELECT doc_id,
                       CASE WHEN len(w) < 3 THEN CAST([] AS VARCHAR[])
                            ELSE list_transform(
                                range(1, len(w) - 1),
                                i -> w[i] || ' ' || w[i+1] || ' '
                                     || w[i+2])
                       END AS gl
                FROM words
            ), g AS (
                SELECT doc_id, unnest(gl) AS gram,
                       generate_subscripts(gl, 1) AS gi
                FROM grams
            ), h AS (
                SELECT doc_id, gi,
                       (md5_number_lower(gram)
                        % 1099511627776)::BIGINT * 1048576
                       + (1048575 - gi) AS pack
                FROM g
            ), wm AS (
                SELECT doc_id, gi,
                       MIN(pack) OVER (PARTITION BY doc_id ORDER BY gi
                                       ROWS BETWEEN 3 PRECEDING
                                            AND CURRENT ROW) AS sel
                FROM h
            )
            SELECT doc_id,
                   count(*) FILTER (gi >= 4)::BIGINT AS n_windows,
                   count(DISTINCT sel) FILTER (gi >= 4)::BIGINT AS n_fp
            FROM wm GROUP BY doc_id
        """,
        "part_cheapest_paths": """
            WITH RECURSIVE pairs AS (
              SELECT DISTINCT least(a.l_partkey, b.l_partkey) AS u,
                              greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                   ON a.l_orderkey = b.l_orderkey
                  AND a.l_partkey < b.l_partkey
            ), e AS (
              SELECT u AS s, v AS d, 1 + (u + v) % 5 AS w FROM pairs
              UNION ALL
              SELECT v, u, 1 + (u + v) % 5 FROM pairs
            ), walk(node, cost, hops) AS (
              SELECT (SELECT min(u) FROM pairs), 0, 0
              UNION
              SELECT e.d, w2.cost + e.w, w2.hops + 1
              FROM walk w2 JOIN e ON e.s = w2.node
              WHERE w2.hops < 3
            )
            SELECT node::BIGINT AS l_partkey,
                   min(cost)::BIGINT AS cost
            FROM walk GROUP BY node
        """,
        "part_bfs_hops": """
            WITH RECURSIVE pairs AS (
              SELECT DISTINCT least(a.l_partkey, b.l_partkey) AS u,
                              greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                   ON a.l_orderkey = b.l_orderkey
                  AND a.l_partkey < b.l_partkey
            ), e AS (
              SELECT u AS s, v AS d FROM pairs
              UNION ALL SELECT v, u FROM pairs
            ), walk(node, hops) AS (
              SELECT (SELECT min(u) FROM pairs), 0
              UNION
              SELECT e.d, w.hops + 1
              FROM walk w JOIN e ON e.s = w.node
              WHERE w.hops < 5
            )
            SELECT node::BIGINT AS l_partkey,
                   min(hops)::BIGINT AS hops
            FROM walk GROUP BY node
        """,
        "source_lang_mi": """
            SELECT CAST(floor((entropy(source) + entropy(lang)
                               - entropy(source || chr(31) || lang))
                              * 10000 + 0.5) AS BIGINT) AS mi_e4,
                   count(*)::BIGINT AS n_docs
            FROM documents
        """,
        "cdc_segment_dedup_docs": """
            WITH w AS (
                SELECT doc_id,
                       unnest(string_split(coalesce(text, ''), ' '))
                           AS word,
                       generate_subscripts(
                           string_split(coalesce(text, ''), ' '), 1)
                           AS wi
                FROM documents
            ), g AS (
                SELECT doc_id, word, wi,
                       CASE WHEN md5_number_lower(word) % 8 = 0
                            THEN 1 ELSE 0 END AS is_gear
                FROM w
            ), s AS (
                SELECT doc_id, word, wi,
                       coalesce(SUM(is_gear) OVER (
                           PARTITION BY doc_id ORDER BY wi
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0)::BIGINT AS seg_idx
                FROM g
            ), segs AS (
                SELECT doc_id, seg_idx,
                       string_agg(word, ' ' ORDER BY wi) AS seg_text
                FROM s GROUP BY doc_id, seg_idx
            ), firsts AS (
                SELECT seg_text,
                       min(doc_id * 1048576 + seg_idx) AS keep_pos
                FROM segs GROUP BY seg_text
            ), kept AS (
                SELECT s2.doc_id, s2.seg_idx, s2.seg_text
                FROM segs s2 JOIN firsts f
                  ON s2.seg_text = f.seg_text
                 AND s2.doc_id * 1048576 + s2.seg_idx = f.keep_pos
            )
            SELECT doc_id,
                   string_agg(seg_text, ' ' ORDER BY seg_idx)
                       AS clean_text,
                   count(*)::BIGINT AS n_kept
            FROM kept GROUP BY doc_id
        """,
        "customer_pareto": """
            WITH agg AS (
                SELECT o_custkey::BIGINT AS custkey,
                       count(*)::BIGINT AS n_orders,
                       sum(round(o_totalprice * 100))::BIGINT AS spend_c
                FROM orders GROUP BY 1
            )
            SELECT a.custkey, a.n_orders, a.spend_c
            FROM agg a
            WHERE NOT EXISTS (
                SELECT 1 FROM agg b
                WHERE b.n_orders >= a.n_orders
                  AND b.spend_c >= a.spend_c
                  AND (b.n_orders > a.n_orders
                       OR b.spend_c > a.spend_c))
        """,
        "late_events": """
            WITH a AS (
                SELECT event_id, epoch_us(ts) AS tu,
                       (md5_number_lower(event_id::VARCHAR)
                        % 7200000000)::BIGINT - 3600000000 AS jit
                FROM events
            ), k AS (
                SELECT tu,
                       ((tu + jit) // 1000) * 1048576
                           + (event_id % 1048576) AS ak
                FROM a
            ), w AS (
                SELECT tu,
                       MAX(tu) OVER (ORDER BY ak
                                     ROWS BETWEEN UNBOUNDED PRECEDING
                                          AND 1 PRECEDING) AS wm
                FROM k
            )
            SELECT (tu // 86400000000)::BIGINT AS day,
                   sum(CASE WHEN wm IS NOT NULL
                             AND wm - tu > 3600000000
                            THEN 1 ELSE 0 END)::BIGINT AS n_late,
                   count(*)::BIGINT AS n_total
            FROM w GROUP BY 1
        """,
        "nation_segment_gap": """
            SELECT COALESCE(c.nationkey, s.s_nationkey) AS nationkey,
                   COALESCE(c.n_building_cust, -1)::BIGINT
                       AS n_building_cust,
                   COALESCE(s.n_rich_supp, -1)::BIGINT AS n_rich_supp
            FROM (SELECT c_nationkey::BIGINT AS nationkey,
                         count(*)::BIGINT AS n_building_cust
                  FROM customer
                  WHERE c_mktsegment = 'BUILDING' AND c_acctbal > 9000.0
                  GROUP BY 1) c
            FULL OUTER JOIN
                 (SELECT s_nationkey::BIGINT AS s_nationkey,
                         count(*)::BIGINT AS n_rich_supp
                  FROM supplier WHERE s_acctbal > 4500.0
                  GROUP BY 1) s
            ON c.nationkey = s.s_nationkey
        """,
        "concat_chunk_manifest": """
            WITH n AS (
                SELECT doc_id,
                       len(string_split(coalesce(text, ''), ' '))::BIGINT
                           AS n_tokens
                FROM documents
            ), p AS (
                SELECT doc_id, n_tokens,
                       coalesce(SUM(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0)::BIGINT AS start_off
                FROM n
            )
            SELECT doc_id, n_tokens, start_off,
                   (start_off // 64)::BIGINT AS first_chunk,
                   ((start_off + n_tokens - 1) // 64)::BIGINT AS last_chunk
            FROM p
        """,
        "segment_dedup_docs": """
            WITH w AS (
                SELECT doc_id,
                       string_split(coalesce(text, ''), ' ') AS t
                FROM documents
            ), m AS (
                SELECT doc_id, t, len(t) AS n FROM w
            ), starts AS (
                SELECT doc_id, t, n,
                       unnest(range(0, greatest(n, 1), 10)) AS s
                FROM m
            ), segs AS (
                SELECT doc_id, (s / 10)::BIGINT AS seg_idx,
                       array_to_string(t[s + 1 : least(s + 10, n)], ' ')
                           AS seg_text
                FROM starts WHERE s = 0 OR s < n
            ), firsts AS (
                SELECT seg_text,
                       min(doc_id * 1048576 + seg_idx) AS keep_pos
                FROM segs GROUP BY seg_text
            ), kept AS (
                SELECT s.doc_id, s.seg_idx, s.seg_text
                FROM segs s JOIN firsts f
                  ON s.seg_text = f.seg_text
                 AND s.doc_id * 1048576 + s.seg_idx = f.keep_pos
            )
            SELECT doc_id,
                   string_agg(seg_text, ' ' ORDER BY seg_idx)
                       AS clean_text,
                   count(*)::BIGINT AS n_kept
            FROM kept GROUP BY doc_id
        """,
        "pack_bins": """
            WITH RECURSIVE toks AS (
                SELECT source, doc_id,
                       len(regexp_split_to_array(trim(text), '\\s+'))::BIGINT
                           AS n_tok,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY doc_id) AS rn
                FROM documents
            ), pack AS (
                SELECT source, rn, n_tok, 1::BIGINT AS bin_id, n_tok AS fill
                FROM toks WHERE rn = 1
                UNION ALL
                SELECT t.source, t.rn, t.n_tok,
                       CASE WHEN p.fill + t.n_tok <= 512
                            THEN p.bin_id ELSE p.bin_id + 1 END,
                       CASE WHEN p.fill + t.n_tok <= 512
                            THEN p.fill + t.n_tok ELSE t.n_tok END
                FROM pack p JOIN toks t
                  ON t.source = p.source AND t.rn = p.rn + 1
            )
            SELECT source, bin_id, count(*)::BIGINT AS n_docs,
                   sum(n_tok)::BIGINT AS bin_tokens
            FROM pack GROUP BY 1, 2
        """,
        "bigram_counts": """
            WITH t AS (
                SELECT doc_id, unnest(l) AS w,
                       generate_subscripts(l, 1) AS i
                FROM (
                    SELECT doc_id, list_filter(
                        string_split_regex(lower(trim(text)), '\\s+'),
                        x -> x <> '') AS l
                    FROM documents
                )
            ),
            p AS (
                SELECT w || ' ' || lead(w) OVER (PARTITION BY doc_id
                                                 ORDER BY i) AS bigram
                FROM t
            )
            SELECT bigram, count(*)::BIGINT AS cnt
            FROM p WHERE bigram IS NOT NULL
            GROUP BY 1 ORDER BY cnt DESC, bigram ASC LIMIT 25
        """,
        "tfidf_top_terms": """
            WITH w AS (
                SELECT doc_id, unnest(list_filter(
                    string_split_regex(lower(trim(text)), '\\s+'),
                    x -> x <> '')) AS term
                FROM documents
            ),
            tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
                   FROM w GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df
                   FROM w GROUP BY 1),
            n AS (SELECT count(*)::BIGINT AS n FROM documents)
            SELECT tf.doc_id, tf.term,
                   (tf.tf * 1000000 * n.n) // df.df AS score
            FROM tf JOIN df USING (term) CROSS JOIN n
            QUALIFY row_number() OVER (PARTITION BY tf.doc_id
                                       ORDER BY score DESC,
                                                tf.term ASC) <= 3
        """,
        "doc_frequency": """
            SELECT w AS word, count(DISTINCT doc_id)::BIGINT AS df
            FROM (
                SELECT doc_id, unnest(list_filter(
                    string_split_regex(lower(trim(text)), '\\s+'),
                    x -> x <> '')) AS w
                FROM documents
            )
            GROUP BY 1
            ORDER BY df DESC, word ASC
            LIMIT 25
        """,
        "top_suppliers_per_nation": """
            SELECT s_nationkey, s_suppkey, s_acctbal, rk FROM (
                SELECT s_nationkey, s_suppkey, s_acctbal,
                       row_number() OVER (
                           PARTITION BY s_nationkey
                           ORDER BY s_acctbal DESC, s_suppkey
                       )::BIGINT AS rk
                FROM supplier
            ) WHERE rk <= 3
        """,
        "supplier_moving_qty": """
            SELECT l_suppkey, l_orderkey, l_linenumber,
                   (sum(l_quantity::BIGINT) OVER w)::BIGINT AS mov_sum,
                   count(*) OVER w AS n_win
            FROM lineitem
            WINDOW w AS (PARTITION BY l_suppkey
                         ORDER BY l_shipdate, l_orderkey, l_linenumber,
                                  l_quantity
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "len_quantiles_by_source": """
            SELECT source, 0.25 AS q, quantile_cont(n_chars, 0.25) AS q_value
            FROM documents GROUP BY source
            UNION ALL
            SELECT source, 0.5 AS q, quantile_cont(n_chars, 0.5) AS q_value
            FROM documents GROUP BY source
            UNION ALL
            SELECT source, 0.75 AS q, quantile_cont(n_chars, 0.75) AS q_value
            FROM documents GROUP BY source
        """,
        "sample_strata_counts": """
            SELECT source, count(*)::BIGINT AS cnt
            FROM documents
            WHERE md5_number_lower('sample' || doc_id::VARCHAR)
                  % 10000 < 1000
            GROUP BY source
        """,
        "knn": """
            WITH q AS (
                SELECT vec_id AS qid, embedding AS qe
                FROM embeddings WHERE vec_id < 3
            ),
            s AS (
                SELECT q.qid, e.vec_id,
                       list_cosine_similarity(q.qe, e.embedding) AS sim
                FROM q CROSS JOIN embeddings e
            ),
            r AS (
                SELECT qid, vec_id, sim,
                       row_number() OVER (PARTITION BY qid
                                          ORDER BY sim DESC, vec_id) AS rn
                FROM s
            )
            SELECT qid AS query_id, vec_id AS key,
                   round(sim::DOUBLE * 1000)::BIGINT AS score_m
            FROM r WHERE rn <= 5
        """,
        "embedding_dups": """
            SELECT a.vec_id AS key_a, b.vec_id AS key_b,
                   round(list_cosine_similarity(a.embedding, b.embedding)::DOUBLE
                         * 1000)::BIGINT AS cosine_m
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "customer_order_counts": """
            WITH c AS (
                SELECT c_mktsegment,
                       (SELECT count(*) FROM orders
                        WHERE o_custkey = c_custkey)::BIGINT AS n_orders
                FROM customer
            )
            SELECT c_mktsegment, n_orders,
                   count(*)::BIGINT AS n_customers
            FROM c GROUP BY 1, 2
        """,
        "embedding_scores": """
            WITH u AS (
                SELECT vec_id, generate_subscripts(embedding, 1) AS idx,
                       unnest(embedding) AS x
                FROM embeddings
            )
            SELECT vec_id,
                   sum(round(x::DOUBLE
                             * ((((idx * 2654435761) % 2001) - 1000)
                                / 1000.0)
                             * 1000000))::BIGINT AS score_u
            FROM u GROUP BY vec_id
        """,
        "q4_priority_exists": """
            SELECT o_orderpriority, count(*)::BIGINT AS n_orders
            FROM orders
            WHERE EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_discount > 0.05)
            GROUP BY 1
        """,
        "q10_returned_revenue": """
            SELECT o_custkey, c_name,
                   sum(round(l_extendedprice * (1 - l_discount)
                             * 100))::BIGINT AS rev_c100
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE l_returnflag = 'R'
            GROUP BY 1, 2
            ORDER BY 3 DESC, o_custkey
            LIMIT 20
        """,
        "q7_nation_volume": """
            SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                   year(l_shipdate)::BIGINT AS l_year,
                   sum(round(l_extendedprice * (1 - l_discount)
                             * 100))::BIGINT AS revenue_c100
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation n1 ON s_nationkey = n1.n_nationkey
            JOIN nation n2 ON c_nationkey = n2.n_nationkey
            WHERE ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
                OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
              AND l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1998-01-01'
            GROUP BY 1, 2, 3
        """,
        "q9_profit_by_nation_year": """
            SELECT n_name, year(o_orderdate)::BIGINT AS o_year,
                   sum(round(l_extendedprice * (1 - l_discount)
                             * 100))::BIGINT AS profit_c100
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            JOIN part ON l_partkey = p_partkey
            WHERE p_name LIKE '%red%'
            GROUP BY 1, 2
        """,
        "q13_order_count_distribution": """
            SELECT c_count, count(*)::BIGINT AS custdist FROM (
                SELECT c_custkey,
                       count(o_orderkey)::BIGINT AS c_count
                FROM customer LEFT JOIN orders ON c_custkey = o_custkey
                GROUP BY c_custkey)
            GROUP BY c_count
        """,
        "q14_promo_revenue": """
            SELECT promo_c100, total_c100,
                   round(1000000.0 * promo_c100 / total_c100)
                       / 10000.0 AS promo_pct
            FROM (SELECT
                    sum(CASE WHEN p_type = 'PROMO'
                        THEN round(l_extendedprice * (1 - l_discount)
                                   * 100) ELSE 0 END)::BIGINT
                        AS promo_c100,
                    sum(round(l_extendedprice * (1 - l_discount)
                              * 100))::BIGINT AS total_c100
                  FROM lineitem JOIN part ON l_partkey = p_partkey
                  WHERE l_shipdate >= TIMESTAMP '1996-03-01'
                    AND l_shipdate <  TIMESTAMP '1996-04-01')
        """,
        "q16_part_supplier_cnt": """
            SELECT p_brand, p_type, p_size::BIGINT AS p_size,
                   count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
              AND p_size IN (1, 4, 7, 10, 13, 16, 19, 22)
            GROUP BY 1, 2, 3
        """,
        "q18_large_orders": """
            SELECT c_name, o_custkey, o_orderkey,
                   round(o_totalprice * 100)::BIGINT
                       AS o_totalprice_c100,
                   sum_qty_c100
            FROM (SELECT l_orderkey,
                         sum(round(l_quantity * 100))::BIGINT
                             AS sum_qty_c100
                  FROM lineitem GROUP BY 1
                  HAVING sum(round(l_quantity * 100)) > 30000) t
            JOIN orders ON t.l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
        """,
        "q19_bracket_revenue": """
            SELECT coalesce(sum(round(l_extendedprice * (1 - l_discount)
                                      * 100)), 0)::BIGINT AS revenue_c100
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                   AND l_quantity BETWEEN 1 AND 11)
               OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        "qty_quantiles_disc": """
            SELECT l_returnflag, 0.25 AS q,
                   round(quantile_disc(l_quantity, 0.25) * 100)::BIGINT
                       AS q_value_c100
            FROM lineitem GROUP BY l_returnflag
            UNION ALL
            SELECT l_returnflag, 0.5 AS q,
                   round(quantile_disc(l_quantity, 0.5) * 100)::BIGINT
            FROM lineitem GROUP BY l_returnflag
            UNION ALL
            SELECT l_returnflag, 0.75 AS q,
                   round(quantile_disc(l_quantity, 0.75) * 100)::BIGINT
            FROM lineitem GROUP BY l_returnflag
        """,
        "lineitem_unpivot_stats": """
            SELECT metric, sum(round(value * 100))::BIGINT AS sum_c100,
                   count(*)::BIGINT AS n
            FROM (
                SELECT 'l_quantity' AS metric, l_quantity AS value
                FROM lineitem
                UNION ALL
                SELECT 'l_extendedprice', l_extendedprice FROM lineitem
                UNION ALL
                SELECT 'l_discount', l_discount FROM lineitem
                UNION ALL
                SELECT 'l_tax', l_tax FROM lineitem)
            GROUP BY metric
        """,
        "churned_rich_customers": """
            SELECT c_mktsegment, count(*)::BIGINT AS numcust,
                   sum(round(c_acctbal * 100))::BIGINT
                       AS totacctbal_c100
            FROM customer
            WHERE round(c_acctbal * 100) >
                  (SELECT sum(round(c_acctbal * 100)) * 1.0 / count(*)
                   FROM customer WHERE c_acctbal > 0)
              AND c_custkey IN
                  (SELECT o_custkey FROM orders GROUP BY o_custkey
                   HAVING max(o_orderdate) < TIMESTAMP '2000-01-01')
            GROUP BY 1
        """,
        "mode_event_per_user": """
            SELECT user_id, event_type AS mode_event, cnt FROM (
                SELECT user_id, event_type, count(*)::BIGINT AS cnt,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY count(*) DESC,
                                                   event_type) AS rn
                FROM events GROUP BY user_id, event_type
            ) WHERE rn = 1
        """,
        "event_entropy_daily": """
            WITH c AS (
                SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
                       count(*)::DOUBLE AS c
                FROM events GROUP BY 1, 2
            ),
            n AS (SELECT day, sum(c) AS n FROM c GROUP BY 1)
            SELECT c.day,
                   round(-sum((c.c / n.n) * log2(c.c / n.n))
                         * 10000)::BIGINT AS entropy_e4
            FROM c JOIN n USING (day) GROUP BY c.day
        """,
        "nation_suppliers": """
            SELECT s_nationkey,
                   string_agg(s_name, ',' ORDER BY s_name) AS roster
            FROM supplier GROUP BY 1
        """,
        "qty_outliers": """
            WITH q AS (
                SELECT l_returnflag,
                       quantile_cont(l_quantity, 0.25) AS q1,
                       quantile_cont(l_quantity, 0.75) AS q3
                FROM lineitem GROUP BY 1
            )
            SELECT l.l_returnflag,
                   coalesce(sum(CASE WHEN l.l_quantity
                                          < q.q1 - 1.5 * (q.q3 - q.q1)
                                      OR l.l_quantity
                                          > q.q3 + 1.5 * (q.q3 - q.q1)
                                     THEN 1 ELSE 0 END), 0)::BIGINT
                       AS n_outliers,
                   count(*)::BIGINT AS n_rows
            FROM lineitem l JOIN q USING (l_returnflag)
            GROUP BY 1
        """,
        "fingerprint_spread": """
            WITH fs AS (
                SELECT DISTINCT md5(array_to_string(list_slice(
                           list_filter(string_split_regex(
                               lower(coalesce(text, '')), '\\s+'),
                               x -> x <> ''), 1, 5), ' ')) AS fp,
                       source
                FROM documents
            ),
            c AS (SELECT fp, count(*)::BIGINT AS n_sources
                  FROM fs GROUP BY 1)
            SELECT n_sources, count(*)::BIGINT AS n_fps
            FROM c GROUP BY 1
        """,
        "neardup_purge": """
            WITH RECURSIVE aug AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text FROM documents
                WHERE doc_id % 10 = 0
            ),
            words AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM aug
            ),
            sh AS MATERIALIZED (
                SELECT doc_id,
                       CASE WHEN len(w) = 0 THEN CAST([] AS VARCHAR[])
                            WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                            ELSE list_distinct(list_transform(
                                range(1, len(w) - 1),
                                i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                       END AS s
                FROM words
            ),
            pairs AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.s, b.s)) AS inter,
                       len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))
                           AS uni
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            ),
            dup AS MATERIALIZED (
                SELECT doc_a, doc_b FROM pairs
                WHERE CASE WHEN uni = 0 THEN 1.0
                           ELSE inter::DOUBLE / uni END >= 0.9
            ),
            e AS (
                SELECT doc_a AS u, doc_b AS v FROM dup
                UNION ALL
                SELECT doc_b, doc_a FROM dup
            ),
            reach(node, r) AS (
                SELECT u, u FROM (SELECT DISTINCT u FROM e) t
                UNION
                SELECT reach.node, e.v FROM reach JOIN e ON e.u = reach.r
            ),
            lab AS (SELECT node, min(r) AS component
                    FROM reach GROUP BY node)
            SELECT doc_id FROM aug
            WHERE doc_id NOT IN
                (SELECT node FROM lab WHERE node <> component)
        """,
        "lev_pairs": """
            WITH words AS (
                SELECT doc_id, text,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ),
            blk AS (
                SELECT doc_id, text,
                       array_to_string(list_slice(w, 1, 5), ' ') AS b
                FROM words
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   levenshtein(a.text, b.text)::BIGINT AS dist
            FROM blk a JOIN blk b
                ON a.b = b.b AND a.doc_id < b.doc_id
            WHERE levenshtein(a.text, b.text) <= 10
        """,
        "ngram_contamination": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ),
            grams AS (
                SELECT doc_id,
                       list_distinct(list_transform(
                           range(1, len(w) - 1),
                           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                           AS g
                FROM words WHERE len(w) >= 3
            ),
            tagged AS (
                SELECT doc_id, g,
                       md5_number_lower('split' || doc_id::VARCHAR)
                           % 10000 < 9000 AS is_train
                FROM grams
            ),
            test_grams AS (
                SELECT DISTINCT unnest(g) AS gram
                FROM tagged WHERE NOT is_train
            )
            SELECT t.doc_id, count(*)::BIGINT AS n_hits
            FROM (SELECT doc_id, unnest(g) AS gram
                  FROM tagged WHERE is_train) t
            JOIN test_grams USING (gram)
            GROUP BY t.doc_id
        """,
        "window_dups": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ),
            wins AS (
                SELECT doc_id,
                       unnest(list_transform(
                           range(1, len(w) - 3),
                           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                                || ' ' || w[i+3] || ' ' || w[i+4])) AS g
                FROM words WHERE len(w) >= 5
            ),
            dup AS (
                SELECT g FROM wins
                GROUP BY g HAVING count(DISTINCT doc_id) >= 2
            ),
            per_doc AS (
                SELECT w.doc_id,
                       count(*) AS n_windows,
                       coalesce(sum(CASE WHEN d.g IS NOT NULL
                                         THEN 1 ELSE 0 END), 0) AS n_dup
                FROM wins w LEFT JOIN dup d USING (g)
                GROUP BY w.doc_id
            )
            SELECT doc_id,
                   n_windows::BIGINT AS n_windows,
                   n_dup::BIGINT AS n_dup,
                   (n_dup * 10000 // n_windows)::BIGINT AS dup_bp
            FROM per_doc
        """,
        "weighted_sample": """
            SELECT doc_id,
                   greatest(n_chars, 1)::BIGINT AS w,
                   (md5_number_lower('wsamp' || doc_id::VARCHAR)
                        // greatest(n_chars, 1)::UBIGINT) AS priority
            FROM documents
            ORDER BY priority, doc_id
            LIMIT 100
        """,
        "lang_length_pct": """
            SELECT doc_id, lang, n_chars,
                   rank() OVER (PARTITION BY lang
                                ORDER BY n_chars)::BIGINT AS rnk,
                   percent_rank() OVER (PARTITION BY lang
                                        ORDER BY n_chars) AS pct_rank
            FROM documents
        """,
        "bm25_topk": """
            WITH q AS (
                SELECT unnest(list_distinct(list_filter(
                    string_split_regex(
                        lower('fast hash join merge sort window batch stream'),
                        '\\s+'), x -> x <> ''))) AS term
            ),
            w AS (
                SELECT doc_id, unnest(list_filter(
                    string_split_regex(lower(trim(text)), '\\s+'),
                    x -> x <> '')) AS term
                FROM documents
            ),
            a AS (
                SELECT (SELECT count(*) FROM documents)::BIGINT AS n,
                       (SELECT count(*) FROM w)::BIGINT AS wt,
                       ((100 * (SELECT count(*) FROM w))
                        // (SELECT count(*) FROM documents))::BIGINT AS avg_c
            ),
            dl AS (SELECT doc_id, count(*)::BIGINT AS dl
                   FROM w GROUP BY doc_id),
            df AS (
                SELECT q.term,
                       count(DISTINCT w.doc_id)::BIGINT AS df
                FROM q LEFT JOIN w ON w.term = q.term
                GROUP BY q.term
            ),
            tf AS (
                SELECT w.doc_id, w.term, count(*)::BIGINT AS tf
                FROM w JOIN q ON w.term = q.term
                GROUP BY w.doc_id, w.term
            ),
            scored AS (
                SELECT tf.doc_id,
                       sum(((1000000 * (2*a.n - 2*df.df + 1))
                            // (2*df.df + 1) * 22000 * tf.tf)
                           // (10000*tf.tf + 3000
                               + (900000 * dl.dl) // a.avg_c)
                       )::BIGINT AS score
                FROM tf
                JOIN df ON tf.term = df.term
                JOIN dl ON dl.doc_id = tf.doc_id
                CROSS JOIN a
                GROUP BY tf.doc_id
            )
            SELECT doc_id, score FROM scored
            WHERE score > 0
            ORDER BY score DESC, doc_id
            LIMIT 25
        """,
        "price_quantiles": """
            WITH v AS (
                SELECT quantile_disc(l_extendedprice,
                                     [0.25, 0.5, 0.75, 0.99]) AS vs
                FROM lineitem
            )
            SELECT unnest([2500, 5000, 7500, 9900])::BIGINT AS q_bp,
                   round(unnest(vs) * 100)::BIGINT AS value_cents
            FROM v
            ORDER BY q_bp
        """,
        "user_value_ffill": """
            WITH ev AS (
                SELECT user_id,
                       (epoch_us(ts) // 86400000000)::BIGINT AS day,
                       ts, event_id, round(value * 100)::BIGINT AS v
                FROM events
            ),
            evd AS (
                SELECT user_id, day, v FROM (
                    SELECT user_id, day, v,
                           row_number() OVER (
                               PARTITION BY user_id, day
                               ORDER BY ts DESC, event_id DESC) AS rn
                    FROM ev) WHERE rn = 1
            ),
            bounds AS (
                SELECT user_id, min(day) AS d0, max(day) AS d1
                FROM ev GROUP BY user_id
            ),
            grid AS (
                SELECT user_id, unnest(generate_series(d0, d1)) AS day
                FROM bounds
            ),
            f AS (
                SELECT g.user_id, g.day,
                       last_value(e.v IGNORE NULLS) OVER (
                           PARTITION BY g.user_id ORDER BY g.day
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND CURRENT ROW) AS last_value_cents
                FROM grid g LEFT JOIN evd e
                  ON e.user_id = g.user_id AND e.day = g.day
            )
            SELECT user_id,
                   CAST(DATE '1970-01-01' + CAST(day AS INT) AS VARCHAR)
                       AS day,
                   last_value_cents
            FROM f
        """,
        "orders_snapshot_diff": """
            WITH old AS (
                SELECT o_orderkey AS k,
                       round(o_totalprice * 100)::BIGINT AS v
                FROM orders WHERE o_orderkey % 11 <> 0
            ),
            new AS (
                SELECT o_orderkey AS k,
                       round((CASE WHEN o_orderkey % 7 = 0
                                   THEN o_totalprice + 1
                                   ELSE o_totalprice END) * 100)::BIGINT
                           AS v
                FROM orders WHERE o_orderkey % 13 <> 0
            )
            SELECT coalesce(o.k, n.k)::BIGINT AS o_orderkey,
                   CASE WHEN o.k IS NULL THEN 'added'
                        WHEN n.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM old o FULL OUTER JOIN new n ON o.k = n.k
            WHERE o.k IS NULL OR n.k IS NULL OR o.v <> n.v
        """,
        "qty_price_regression": """
            WITH p AS (
                SELECT l_returnflag AS g,
                       count(*)::HUGEINT AS n,
                       sum(round(l_quantity*100)::BIGINT)::HUGEINT AS sx,
                       sum(round(l_extendedprice*100)::BIGINT)::HUGEINT
                           AS sy,
                       sum(round(l_quantity*100)::BIGINT
                           * round(l_quantity*100)::BIGINT)::HUGEINT
                           AS sxx,
                       sum(round(l_quantity*100)::BIGINT
                           * round(l_extendedprice*100)::BIGINT)::HUGEINT
                           AS sxy
                FROM lineitem GROUP BY 1
            )
            SELECT g AS l_returnflag, n::BIGINT AS n,
                   ((1000000::HUGEINT * (n*sxy - sx*sy))
                    // (n*sxx - sx*sx))::BIGINT AS slope_e6,
                   ((1000000::HUGEINT
                     * (sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx))
                    // (100::HUGEINT * n * (n*sxx - sx*sx)))::BIGINT
                       AS intercept_e6
            FROM p ORDER BY g
        """,
        "pmi_bigrams": """
            WITH t AS (
                SELECT doc_id, unnest(l) AS w,
                       generate_subscripts(l, 1) AS i
                FROM (
                    SELECT doc_id, list_filter(
                        string_split_regex(lower(trim(text)), '\\s+'),
                        x -> x <> '') AS l
                    FROM documents
                )
            ),
            uni AS (SELECT w, count(*)::BIGINT AS c FROM t GROUP BY w),
            nu AS (SELECT sum(c)::HUGEINT AS n FROM uni),
            p AS (
                SELECT w AS a,
                       lead(w) OVER (PARTITION BY doc_id ORDER BY i) AS b
                FROM t
            ),
            bi AS (SELECT a, b, count(*)::BIGINT AS c
                   FROM p WHERE b IS NOT NULL GROUP BY a, b),
            nb AS (SELECT sum(c)::HUGEINT AS n FROM bi),
            scored AS (
                SELECT bi.a || ' ' || bi.b AS bigram,
                       bi.c AS c_ab,
                       ((1000000::HUGEINT * bi.c * nu.n * nu.n)
                        // (nb.n * ua.c * ub.c))::BIGINT AS score_e6
                FROM bi
                CROSS JOIN nu CROSS JOIN nb
                JOIN uni ua ON ua.w = bi.a
                JOIN uni ub ON ub.w = bi.b
                WHERE bi.c >= 5
            )
            SELECT bigram, c_ab, score_e6 FROM scored
            ORDER BY score_e6 DESC, bigram ASC
            LIMIT 30
        """,
        "orders_union_by_name": """
            WITH a AS (
                SELECT o_orderkey,
                       round(o_totalprice * 100)::BIGINT AS price_cents,
                       NULL::VARCHAR AS o_orderstatus,
                       NULL::BIGINT AS o_custkey
                FROM orders WHERE o_orderkey % 2 = 0
            ),
            b AS (
                SELECT o_orderkey, NULL::BIGINT AS price_cents,
                       o_orderstatus, o_custkey
                FROM orders WHERE o_orderkey % 2 = 1
            ),
            u AS (SELECT * FROM a UNION ALL SELECT * FROM b)
            SELECT count(*)::BIGINT AS n_rows,
                   sum(CASE WHEN price_cents IS NULL THEN 1 ELSE 0
                       END)::BIGINT AS null_price,
                   sum(CASE WHEN o_orderstatus IS NULL THEN 1 ELSE 0
                       END)::BIGINT AS null_status,
                   sum(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0
                       END)::BIGINT AS null_cust,
                   coalesce(sum(price_cents), 0)::BIGINT AS sum_price,
                   coalesce(sum(o_custkey), 0)::BIGINT AS sum_cust,
                   sum(o_orderkey)::BIGINT AS sum_key
            FROM u
        """,
        "lineitem_zorder_stats": """
            WITH src AS (
                SELECT (l_partkey & 65535)::BIGINT AS a,
                       (l_suppkey & 65535)::BIGINT AS b
                FROM lineitem
            ),
            z AS (
                SELECT a, b,
                       ((((((((((a & 65535) | ((a & 65535) << 8)) & 16711935) | ((((a & 65535) | ((a & 65535) << 8)) & 16711935) << 4)) & 252645135) | ((((((a & 65535) | ((a & 65535) << 8)) & 16711935) | ((((a & 65535) | ((a & 65535) << 8)) & 16711935) << 4)) & 252645135) << 2)) & 858993459) | ((((((((a & 65535) | ((a & 65535) << 8)) & 16711935) | ((((a & 65535) | ((a & 65535) << 8)) & 16711935) << 4)) & 252645135) | ((((((a & 65535) | ((a & 65535) << 8)) & 16711935) | ((((a & 65535) | ((a & 65535) << 8)) & 16711935) << 4)) & 252645135) << 2)) & 858993459) << 1)) & 1431655765)
                        | ((((((((((b & 65535) | ((b & 65535) << 8)) & 16711935) | ((((b & 65535) | ((b & 65535) << 8)) & 16711935) << 4)) & 252645135) | ((((((b & 65535) | ((b & 65535) << 8)) & 16711935) | ((((b & 65535) | ((b & 65535) << 8)) & 16711935) << 4)) & 252645135) << 2)) & 858993459) | ((((((((b & 65535) | ((b & 65535) << 8)) & 16711935) | ((((b & 65535) | ((b & 65535) << 8)) & 16711935) << 4)) & 252645135) | ((((((b & 65535) | ((b & 65535) << 8)) & 16711935) | ((((b & 65535) | ((b & 65535) << 8)) & 16711935) << 4)) & 252645135) << 2)) & 858993459) << 1)) & 1431655765) << 1))::BIGINT AS z
                FROM src
            ),
            bnds AS (SELECT quantile_disc(z, [1/8.0, 2/8.0, 3/8.0, 4/8.0, 5/8.0, 6/8.0, 7/8.0]) AS bl FROM z),
            p AS (
                SELECT a, b, z,
                       len(list_filter((SELECT bl FROM bnds),
                                       x -> x < z))::BIGINT AS pid
                FROM z
            )
            SELECT pid, count(*)::BIGINT AS n_rows,
                   min(a)::BIGINT AS min_a, max(a)::BIGINT AS max_a,
                   min(b)::BIGINT AS min_b, max(b)::BIGINT AS max_b,
                   min(z)::BIGINT AS min_z, max(z)::BIGINT AS max_z
            FROM p GROUP BY pid ORDER BY pid
        """,
        "pack_shards": """
            WITH RECURSIVE
            params AS (
              SELECT min(doc_id) AS mn,
                     ((max(doc_id) - min(doc_id) + 1 + 3) // 4)::BIGINT AS q
              FROM documents
            ),
            d AS (
              SELECT doc_id,
                     len(string_split(coalesce(text, ''), ' '))::BIGINT AS n,
                     ((doc_id - mn) // q)::BIGINT AS bucket
              FROM documents, params
            ),
            c AS (
              SELECT doc_id, n, bucket,
                     sum(n) OVER (PARTITION BY bucket
                                  ORDER BY doc_id)::BIGINT AS c
              FROM d
            ),
            cuts(bucket, cut, bin) AS (
              SELECT DISTINCT bucket, 0::BIGINT, -1::BIGINT FROM c
              UNION ALL
              SELECT cuts.bucket,
                     coalesce((SELECT max(cc.c) FROM c cc
                               WHERE cc.bucket = cuts.bucket
                                 AND cc.c > cuts.cut
                                 AND cc.c <= cuts.cut + 64),
                              (SELECT min(cc.c) FROM c cc
                               WHERE cc.bucket = cuts.bucket
                                 AND cc.c > cuts.cut)),
                     cuts.bin + 1
              FROM cuts
              WHERE cuts.cut < (SELECT max(cc.c) FROM c cc
                                WHERE cc.bucket = cuts.bucket)
            )
            SELECT c.doc_id, c.n AS n_tokens, c.bucket,
                   (SELECT min(k.bin) FROM cuts k
                    WHERE k.bucket = c.bucket AND c.c <= k.cut)::BIGINT
                       AS bin
            FROM c ORDER BY c.doc_id
        """,
        "shuffle_head": """
            SELECT row_number() OVER (
                       ORDER BY md5_number_lower('shuf' || doc_id::VARCHAR),
                                doc_id)::BIGINT AS rank,
                   doc_id
            FROM documents
            ORDER BY rank LIMIT 20
        """,
        "lineitem_zorder_pruned": """
            SELECT (l_suppkey % 4)::BIGINT AS sgrp,
                   count(*)::BIGINT AS n_rows,
                   round(sum(l_quantity) * 100)::BIGINT AS sum_qty_c100
            FROM lineitem
            WHERE l_partkey BETWEEN 17 AND 60
            GROUP BY 1 ORDER BY 1
        """,
        "join_size_probe": """
            WITH ca AS (SELECT l_orderkey AS k, count(*)::BIGINT AS c
                        FROM lineitem GROUP BY 1),
                 cb AS (SELECT o_orderkey AS k, count(*)::BIGINT AS c
                        FROM orders GROUP BY 1)
            SELECT coalesce(sum(ca.c * cb.c), 0)::BIGINT AS join_rows,
                   (SELECT count(*) FROM lineitem)::BIGINT AS n_a,
                   (SELECT count(*) FROM orders)::BIGINT AS n_b,
                   coalesce(max(ca.c * cb.c), 0)::BIGINT
                       AS max_key_product
            FROM ca JOIN cb USING (k)
        """,
        "grouped_split_leakage": """
            WITH tagged AS (
                SELECT user_id,
                       CASE WHEN md5_number_lower(
                                'group' || user_id::VARCHAR) % 10000
                                < 8000
                            THEN 'train' ELSE 'test' END AS split
                FROM events
            ),
            s AS (
                SELECT split, count(*)::BIGINT AS n_rows,
                       count(DISTINCT user_id)::BIGINT AS n_users
                FROM tagged GROUP BY split
            ),
            leak AS (
                SELECT count(*)::BIGINT AS leaked_users FROM (
                    SELECT user_id FROM tagged
                    GROUP BY user_id
                    HAVING count(DISTINCT split) > 1)
            )
            SELECT split, n_rows, n_users, leaked_users
            FROM s CROSS JOIN leak
            ORDER BY split
        """,
        "user_daily_ohlc": """
            WITH e AS (
                SELECT user_id,
                       (epoch_us(ts) // 86400000000)::BIGINT AS day,
                       ts, event_id,
                       CAST(round(value * 100) AS BIGINT) AS vc
                FROM events
            ),
            w AS (
                SELECT user_id, day, vc,
                       row_number() OVER (PARTITION BY user_id, day
                           ORDER BY ts, event_id) AS rn_a,
                       row_number() OVER (PARTITION BY user_id, day
                           ORDER BY ts DESC, event_id DESC) AS rn_d
                FROM e
            )
            SELECT user_id, day,
                   max(CASE WHEN rn_a = 1 THEN vc END)::BIGINT AS open_c,
                   max(CASE WHEN rn_d = 1 THEN vc END)::BIGINT
                       AS close_c,
                   min(vc)::BIGINT AS lo_c,
                   max(vc)::BIGINT AS hi_c,
                   count(*)::BIGINT AS n
            FROM w GROUP BY user_id, day
        """,
        "ks_drift_sources": """
            WITH vals AS (
                SELECT n_chars AS v,
                       CASE WHEN source = 'src0' THEN 1 ELSE 0 END AS a,
                       CASE WHEN source = 'src1' THEN 1 ELSE 0 END AS b
                FROM documents
                WHERE source IN ('src0', 'src1')
            ),
            grp AS (
                SELECT v, sum(a)::BIGINT AS ca, sum(b)::BIGINT AS cb
                FROM vals GROUP BY v
            ),
            scan AS (
                SELECT sum(ca) OVER (ORDER BY v) AS fa,
                       sum(cb) OVER (ORDER BY v) AS fb
                FROM grp
            ),
            tot AS (
                SELECT sum(ca)::BIGINT AS n_a, sum(cb)::BIGINT AS n_b
                FROM grp
            )
            SELECT n_a, n_b,
                   max(abs(fa * n_b - fb * n_a))::BIGINT AS ks_num,
                   (1000000 * max(abs(fa * n_b - fb * n_a))
                        // (n_a * n_b))::BIGINT AS ks_ppm
            FROM scan, tot
            GROUP BY n_a, n_b
        """,
        "event_transitions": """
            WITH seq AS (
                SELECT user_id, event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS prev_type
                FROM events
            )
            SELECT prev_type, event_type AS next_type,
                   count(*)::BIGINT AS cnt
            FROM seq WHERE prev_type IS NOT NULL
            GROUP BY prev_type, event_type
        """,
        "lineitem_expectations": """
            WITH per_rule AS (
                SELECT 'l_quantity_between_1_50' AS rule_id,
                       count(l_quantity)::BIGINT AS n_checked,
                       coalesce(sum(CASE WHEN l_quantity BETWEEN 1 AND 50
                                    THEN 0 ELSE 1 END) FILTER (
                           WHERE l_quantity IS NOT NULL), 0)::BIGINT
                           AS n_failed
                FROM lineitem
                UNION ALL
                SELECT 'l_discount_max_0.1', count(l_discount)::BIGINT,
                       coalesce(sum(CASE WHEN l_discount <= 0.1
                                    THEN 0 ELSE 1 END) FILTER (
                           WHERE l_discount IS NOT NULL), 0)::BIGINT
                FROM lineitem
                UNION ALL
                SELECT 'l_extendedprice_min_0',
                       count(l_extendedprice)::BIGINT,
                       coalesce(sum(CASE WHEN l_extendedprice >= 0
                                    THEN 0 ELSE 1 END) FILTER (
                           WHERE l_extendedprice IS NOT NULL),
                                0)::BIGINT
                FROM lineitem
                UNION ALL
                SELECT 'l_returnflag_in_set',
                       count(l_returnflag)::BIGINT,
                       coalesce(sum(CASE WHEN l_returnflag IN
                                    ('A', 'N', 'R') THEN 0 ELSE 1 END)
                           FILTER (WHERE l_returnflag IS NOT NULL),
                                0)::BIGINT
                FROM lineitem
                UNION ALL
                SELECT 'l_linestatus_regex',
                       count(l_linestatus)::BIGINT,
                       coalesce(sum(CASE WHEN regexp_full_match(
                                    l_linestatus, '(?:[OF])')
                                    THEN 0 ELSE 1 END) FILTER (
                           WHERE l_linestatus IS NOT NULL), 0)::BIGINT
                FROM lineitem
                UNION ALL
                SELECT 'l_shipdate_not_null', count(*)::BIGINT,
                       (count(*) - count(l_shipdate))::BIGINT
                FROM lineitem
                UNION ALL
                SELECT 'l_tax_between_0_0.08', count(l_tax)::BIGINT,
                       coalesce(sum(CASE WHEN l_tax BETWEEN 0 AND 0.08
                                    THEN 0 ELSE 1 END) FILTER (
                           WHERE l_tax IS NOT NULL), 0)::BIGINT
                FROM lineitem
            )
            SELECT rule_id, n_checked, n_failed,
                   (n_failed = 0) AS passed
            FROM per_rule ORDER BY rule_id
        """,
        "doc_search": """
            WITH q AS (
                SELECT list_distinct(list_filter(
                    string_split_regex(
                        lower('fast hash join merge sort window batch stream'),
                        '\\s+'), x -> x <> '')) AS qw
            ),
            d AS (
                SELECT doc_id,
                       list_distinct(list_filter(
                           string_split_regex(lower(text), '\\s+'),
                           x -> x <> '')) AS dw
                FROM documents
            ),
            scored AS (
                SELECT doc_id,
                       len(list_intersect(dw, qw))::BIGINT AS inter,
                       (len(dw) + len(qw)
                        - len(list_intersect(dw, qw)))::BIGINT AS uni
                FROM d, q
            )
            SELECT doc_id, inter, uni,
                   (1000000 * inter // uni)::BIGINT AS score
            FROM scored
            WHERE inter > 0
            ORDER BY score DESC, doc_id
            LIMIT 20
        """,
        "weekly_active_users": """
            WITH du AS (
                SELECT DISTINCT user_id,
                       (epoch_us(ts) // 86400000000) AS day
                FROM events
            ),
            days AS (SELECT DISTINCT day FROM du)
            SELECT d.day::BIGINT AS day,
                   count(DISTINCT u.user_id)::BIGINT AS active_users
            FROM days d
            JOIN du u ON u.day BETWEEN d.day - 6 AND d.day
            GROUP BY d.day
        """,
        "part_kcore": """
            WITH RECURSIVE pairs AS (
              SELECT DISTINCT least(a.l_partkey, b.l_partkey) AS u,
                              greatest(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                   ON a.l_orderkey = b.l_orderkey
                  AND a.l_partkey < b.l_partkey
            ),
            sym AS (
              SELECT u AS a, v AS b FROM pairs
              UNION ALL SELECT v, u FROM pairs
            ),
            removed(node) AS (
              SELECT a FROM sym GROUP BY a HAVING count(*) < 4
              UNION
              SELECT a FROM (
                SELECT s.a,
                       count(*) FILTER (WHERE s.b NOT IN
                           (SELECT node FROM removed)) AS deg
                FROM sym s
                WHERE s.a NOT IN (SELECT node FROM removed)
                GROUP BY s.a
              ) WHERE deg < 4
            )
            SELECT a AS node, count(*)::BIGINT AS deg FROM sym
            WHERE a NOT IN (SELECT node FROM removed)
              AND b NOT IN (SELECT node FROM removed)
            GROUP BY a
        """,
        "length_percentiles": """
            SELECT doc_id, n_chars,
                   rank() OVER (ORDER BY n_chars)::BIGINT AS rnk,
                   percent_rank() OVER (ORDER BY n_chars) AS pct_rank,
                   cume_dist() OVER (ORDER BY n_chars) AS cume
            FROM documents
        """,
        "lang_top_words": """
            WITH words AS (
                SELECT lang,
                       unnest(list_filter(
                           string_split_regex(lower(text), '\\s+'),
                           x -> x <> '')) AS word
                FROM documents
            ),
            cnts AS (
                SELECT lang, word, count(*)::BIGINT AS cnt
                FROM words GROUP BY lang, word
            )
            SELECT lang, word, cnt,
                   row_number() OVER (PARTITION BY lang
                                      ORDER BY cnt DESC, word)::BIGINT
                       AS rk
            FROM cnts
            QUALIFY rk <= 3
        """,
        "user_churn": """
            WITH flags AS (
                SELECT user_id,
                       bool_or((epoch_us(ts) // 86400000000) % 2 = 0)
                           AS has0,
                       bool_or((epoch_us(ts) // 86400000000) % 2 = 1)
                           AS has1
                FROM events GROUP BY user_id
            )
            SELECT
                sum(CASE WHEN has0 AND NOT has1 THEN 1 ELSE 0 END)::BIGINT
                    AS users_even_only,
                sum(CASE WHEN has1 AND NOT has0 THEN 1 ELSE 0 END)::BIGINT
                    AS users_odd_only,
                sum(CASE WHEN has0 AND has1 THEN 1 ELSE 0 END)::BIGINT
                    AS users_both
            FROM flags
        """,
        "orders_cube": """
            SELECT o_year, o_orderpriority,
                   count(*)::BIGINT AS cnt, sum(c100)::BIGINT AS sum_c100
            FROM (SELECT year(o_orderdate)::BIGINT AS o_year,
                         o_orderpriority,
                         CAST(round(o_totalprice * 100) AS BIGINT) AS c100
                  FROM orders)
            GROUP BY CUBE (o_year, o_orderpriority)
        """,
        "heavy_hitter_words": """
            WITH words AS (
                SELECT unnest(list_filter(
                    string_split_regex(lower(trim(text)), '\\s+'),
                    x -> x <> '')) AS word
                FROM documents
            )
            SELECT word, count(*)::BIGINT AS cnt
            FROM words GROUP BY word
            ORDER BY cnt DESC, word ASC
            LIMIT 20
        """,
        "qty_winsorized": """
            WITH b AS (
                SELECT l_returnflag,
                       quantile_cont(l_quantity, 0.05) AS lo,
                       quantile_cont(l_quantity, 0.95) AS hi
                FROM lineitem GROUP BY l_returnflag
            )
            SELECT l.l_returnflag, count(*)::BIGINT AS n,
                   sum(CAST(round(least(greatest(l.l_quantity, b.lo),
                                        b.hi) * 100) AS BIGINT))::BIGINT
                       AS sum_c100
            FROM lineitem l JOIN b USING (l_returnflag)
            GROUP BY l.l_returnflag
        """,
        "qty_disc_moments": """
            SELECT l_returnflag, count(*)::BIGINT AS n,
                   sum(q)::BIGINT AS sum_q, sum(d)::BIGINT AS sum_d,
                   sum(q * q)::BIGINT AS sum_qq,
                   sum(d * d)::BIGINT AS sum_dd,
                   sum(q * d)::BIGINT AS sum_qd
            FROM (SELECT l_returnflag,
                         CAST(round(l_quantity * 100) AS BIGINT) AS q,
                         CAST(round(l_discount * 10000) AS BIGINT) AS d
                  FROM lineitem)
            GROUP BY l_returnflag
        """,
        "boilerplate_grams": """
            WITH words AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ),
            grams AS (
                SELECT doc_id,
                       unnest(list_distinct(list_transform(
                           range(1, len(w) - 2),
                           i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                                || ' ' || w[i+3]))) AS gram
                FROM words WHERE len(w) >= 4
            )
            SELECT gram, count(*)::BIGINT AS df
            FROM grams GROUP BY gram
            HAVING count(*) >= 3
        """,
        "gopher_quality_flags": """
            WITH w AS (
                SELECT doc_id, coalesce(text, '') AS t,
                       list_filter(string_split_regex(
                           trim(coalesce(text, '')), '\\s+'),
                           x -> x <> '') AS words,
                       string_split(coalesce(text, ''), chr(10)) AS lines
                FROM documents
            ),
            m AS (
                SELECT doc_id,
                       len(words)::BIGINT AS n_words,
                       coalesce(list_aggregate(list_transform(words,
                           x -> length(x)), 'sum'), 0)::BIGINT
                           AS tot_wchars,
                       len(list_filter(words, x ->
                           regexp_matches(x, '[a-zA-Z]')))::BIGINT
                           AS n_alpha,
                       ((length(t) - length(replace(t, '#', '')))
                        + (length(t) - length(replace(t, '…', '')))
                        + ((length(t) - length(replace(t, '...', '')))
                           // 3))::BIGINT AS n_sym,
                       len(lines)::BIGINT AS n_lines,
                       len(list_filter(lines, x ->
                           starts_with(x, '- ') OR starts_with(x, '* ')
                           OR starts_with(x, '• ')))::BIGINT AS n_bullet,
                       len(list_filter(lines, x ->
                           right(x, 3) = '...'
                           OR right(x, 1) = '…'))::BIGINT AS n_ell,
                       len(list_distinct(list_filter(
                           list_transform(words, x -> lower(x)),
                           x -> x IN ('the','be','to','of','and','that',
                                      'have','with'))))::BIGINT AS n_stop
                FROM w
            )
            SELECT doc_id, n_words,
                   (n_words >= 50 AND n_words <= 100000) AS r_wordcount,
                   (3 * n_words <= tot_wchars
                    AND tot_wchars <= 10 * n_words) AS r_meanlen,
                   (10 * n_sym <= n_words) AS r_symbol,
                   (10 * n_bullet <= 9 * n_lines) AS r_bullet,
                   (10 * n_ell <= 3 * n_lines) AS r_ellipsis,
                   (5 * n_alpha >= 4 * n_words) AS r_alpha,
                   (n_stop >= 2) AS r_stop,
                   ((n_words >= 50 AND n_words <= 100000)
                    AND (3 * n_words <= tot_wchars
                         AND tot_wchars <= 10 * n_words)
                    AND (10 * n_sym <= n_words)
                    AND (10 * n_bullet <= 9 * n_lines)
                    AND (10 * n_ell <= 3 * n_lines)
                    AND (5 * n_alpha >= 4 * n_words)
                    AND (n_stop >= 2)) AS gopher_pass
            FROM m
        """,
        "vocab_growth": """
            WITH w AS (
                SELECT doc_id,
                       unnest(list_filter(string_split_regex(
                           lower(coalesce(text, '')), '\\s+'),
                           x -> x <> '')) AS word
                FROM documents
            ),
            fw AS (SELECT word, min(doc_id) AS fd FROM w GROUP BY word),
            d AS (
                SELECT (fd * 10 // (SELECT count(*) FROM documents))
                           ::BIGINT AS decile,
                       count(*)::BIGINT AS new_words
                FROM fw GROUP BY 1
            )
            SELECT decile, new_words,
                   sum(new_words) OVER (ORDER BY decile
                       ROWS UNBOUNDED PRECEDING)::BIGINT AS cum_words
            FROM d
        """,
        "user_spend_drawup": """
            WITH c AS (
                SELECT user_id, ts, event_id,
                       sum(round(value * 100)::BIGINT) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM events
            ),
            m AS (
                SELECT user_id, cum,
                       min(cum) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS rmin,
                       max(cum) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS rmax
                FROM c
            )
            SELECT user_id, count(*)::BIGINT AS n_events,
                   max(cum - rmin)::BIGINT AS max_drawup_c100,
                   max(rmax - cum)::BIGINT AS max_drawdown_c100
            FROM m GROUP BY user_id
        """,
        "user_interarrival_stats": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) AS tus,
                       lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS pus
                FROM events
            ),
            g AS (
                SELECT user_id, (tus - pus) // 1000000 AS gap
                FROM o WHERE pus IS NOT NULL
            )
            SELECT user_id, count(*)::BIGINT AS n_gaps,
                   min(gap)::BIGINT AS min_gap_s,
                   max(gap)::BIGINT AS max_gap_s,
                   sum(gap)::BIGINT AS sum_gap_s,
                   sum(gap * gap)::BIGINT AS sum_gap_sq
            FROM g GROUP BY user_id
        """,
        "doc_word_entropy": """
            WITH w AS (
                SELECT doc_id,
                       unnest(list_filter(string_split_regex(
                           lower(coalesce(text, '')), '\\s+'),
                           x -> x <> '')) AS word
                FROM documents
            )
            SELECT doc_id, count(*)::BIGINT AS n_words,
                   count(DISTINCT word)::BIGINT AS n_distinct,
                   CAST(floor(entropy(word) * 10000 + 0.5) AS BIGINT)
                       AS entropy_e4
            FROM w GROUP BY doc_id
        """,
        "orders_reconciliation": """
            WITH li AS (
                SELECT l_orderkey AS k,
                       sum(round(l_extendedprice * (1 - l_discount)
                                 * (1 + l_tax) * 100)::BIGINT) AS exp
                FROM lineitem GROUP BY 1
            ),
            j AS (
                SELECT o_orderpriority AS pri,
                       round(o_totalprice * 100)::BIGINT AS tot,
                       (li.k IS NULL) AS missing,
                       (round(o_totalprice * 100)::BIGINT
                        - coalesce(li.exp, 0)) AS diff
                FROM orders LEFT JOIN li ON o_orderkey = li.k
            )
            SELECT pri AS o_orderpriority,
                   count(*)::BIGINT AS n_orders,
                   sum(CASE WHEN missing THEN 1 ELSE 0 END)::BIGINT
                       AS n_missing_li,
                   sum(CASE WHEN NOT missing AND diff = 0
                            THEN 1 ELSE 0 END)::BIGINT AS n_exact,
                   sum(CASE WHEN NOT missing AND 100 * abs(diff) <= tot
                            THEN 1 ELSE 0 END)::BIGINT AS n_within_1pct,
                   sum(CASE WHEN NOT missing THEN abs(diff)
                            ELSE 0 END)::BIGINT AS sum_abs_diff_c100
            FROM j GROUP BY 1
        """,
        "q8_market_share": """
            WITH j AS (
                SELECT year(o_orderdate)::BIGINT AS o_year,
                       round(l_extendedprice * (1 - l_discount)
                             * 100)::BIGINT AS rev,
                       n2.n_name = 'NATION_2' AS is_target
                FROM lineitem
                JOIN orders ON l_orderkey = o_orderkey
                JOIN customer ON o_custkey = c_custkey
                JOIN nation n1 ON c_nationkey = n1.n_nationkey
                JOIN region ON n1.n_regionkey = r_regionkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation n2 ON s_nationkey = n2.n_nationkey
                JOIN part ON l_partkey = p_partkey
                WHERE r_name = 'ASIA' AND p_type = 'PROMO'
                  AND o_orderdate >= TIMESTAMP '1995-01-01'
                  AND o_orderdate <  TIMESTAMP '1997-01-01'
            )
            SELECT o_year,
                   sum(CASE WHEN is_target THEN rev ELSE 0 END)::BIGINT
                       AS nation_rev_c100,
                   sum(rev)::BIGINT AS total_rev_c100,
                   ((2000000 * sum(CASE WHEN is_target THEN rev
                                        ELSE 0 END) + sum(rev))
                    // (2 * sum(rev)))::BIGINT AS mkt_share_e6
            FROM j GROUP BY o_year
        """,
        "q15_top_supplier": """
            WITH r AS (
                SELECT l_suppkey,
                       sum(round(l_extendedprice * (1 - l_discount)
                                 * 100))::BIGINT AS total_revenue_c100
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1996-04-01'
                GROUP BY l_suppkey
            )
            SELECT s_suppkey, s_name, total_revenue_c100
            FROM supplier JOIN r ON s_suppkey = l_suppkey
            WHERE total_revenue_c100 =
                  (SELECT max(total_revenue_c100) FROM r)
        """,
        "q17_small_qty_revenue": """
            WITH li AS (
                SELECT l_partkey, l_quantity::BIGINT AS qty,
                       round(l_extendedprice * 100)::BIGINT AS ep
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM part
                                    WHERE p_brand = 'Brand#13')
            ),
            thr AS (
                SELECT l_partkey, sum(qty)::BIGINT AS sq,
                       count(*)::BIGINT AS cn
                FROM li GROUP BY l_partkey
            ),
            small AS (
                SELECT ep FROM li JOIN thr USING (l_partkey)
                WHERE 5 * qty * cn < sq
            )
            SELECT coalesce(sum(ep), 0)::BIGINT AS total_eprice_c100,
                   count(*)::BIGINT AS n_small,
                   ((2 * coalesce(sum(ep), 0) + 7) // 14)::BIGINT
                       AS avg_yearly_c100
            FROM small
        """,
        "star_join_checksum": """
            WITH w AS (
                SELECT l_orderkey::VARCHAR || '|'
                       || l_linenumber::VARCHAR || '|' || p_name || '|'
                       || s_name || '|' || n_name || '|' || r_name
                           AS row_str
                FROM lineitem
                JOIN part ON l_partkey = p_partkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation ON s_nationkey = n_nationkey
                JOIN region ON n_regionkey = r_regionkey
            ),
            h AS (SELECT md5_number_lower(row_str)::HUGEINT AS h FROM w)
            SELECT count(*)::BIGINT AS n_rows,
                   (((sum(h // 4294967296) % 2305843009213693951)
                     * (4294967296 % 2305843009213693951)
                     + sum(h % 4294967296)) % 2305843009213693951)
                       ::BIGINT AS checksum_m61
            FROM h
        """,
        "user_type_scd2": """
            WITH e AS (
                SELECT user_id, event_id, event_type,
                       epoch_us(ts)::BIGINT AS ts_us,
                       lag(event_type) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS prev_type
                FROM events
            ),
            ch AS (
                SELECT user_id, event_type, ts_us, event_id
                FROM e
                WHERE prev_type IS NULL OR prev_type <> event_type
            )
            SELECT user_id,
                   row_number() OVER (PARTITION BY user_id
                       ORDER BY ts_us, event_id)::BIGINT AS version,
                   event_type, ts_us AS valid_from_us,
                   coalesce(lead(ts_us) OVER (PARTITION BY user_id
                       ORDER BY ts_us, event_id), -1)::BIGINT
                       AS valid_to_us
            FROM ch
        """,
        "order_discount_proration": """
            WITH li AS (
                SELECT l_orderkey, l_linenumber::BIGINT AS l_linenumber,
                       round(l_extendedprice * 100)::BIGINT AS ep
                FROM lineitem
            ),
            o AS (
                SELECT o_orderkey,
                       ((2 * round(o_totalprice * 100)::BIGINT + 100)
                        // 200)::BIGINT AS rebate
                FROM orders
            ),
            j AS (
                SELECT l_orderkey, l_linenumber, ep, rebate,
                       sum(ep) OVER (PARTITION BY l_orderkey)::BIGINT
                           AS s
                FROM li JOIN o ON l_orderkey = o_orderkey
            ),
            b AS (
                SELECT l_orderkey, l_linenumber,
                       (rebate * ep) // s AS base,
                       rebate - sum((rebate * ep) // s)
                           OVER (PARTITION BY l_orderkey) AS leftover,
                       row_number() OVER (PARTITION BY l_orderkey
                           ORDER BY (rebate * ep) % s DESC,
                                    l_linenumber) AS rk
                FROM j
            )
            SELECT l_orderkey, l_linenumber,
                   (base + CASE WHEN rk <= leftover THEN 1 ELSE 0 END)
                       ::BIGINT AS alloc_c100
            FROM b
        """,
        "price_eqdepth_hist": """
            WITH c AS (
                SELECT round(l_extendedprice * 100)::BIGINT AS c
                FROM lineitem
            ),
            e AS (
                SELECT quantile_disc(c, 0.125)::BIGINT AS e0,
                       quantile_disc(c, 0.250)::BIGINT AS e1,
                       quantile_disc(c, 0.375)::BIGINT AS e2,
                       quantile_disc(c, 0.500)::BIGINT AS e3,
                       quantile_disc(c, 0.625)::BIGINT AS e4,
                       quantile_disc(c, 0.750)::BIGINT AS e5,
                       quantile_disc(c, 0.875)::BIGINT AS e6
                FROM c
            ),
            b AS (
                SELECT ((c > e0)::INT + (c > e1)::INT + (c > e2)::INT
                        + (c > e3)::INT + (c > e4)::INT + (c > e5)::INT
                        + (c > e6)::INT)::BIGINT AS bucket
                FROM c, e
            )
            SELECT bucket,
                   (CASE bucket
                        WHEN 0 THEN (SELECT e0 FROM e)
                        WHEN 1 THEN (SELECT e1 FROM e)
                        WHEN 2 THEN (SELECT e2 FROM e)
                        WHEN 3 THEN (SELECT e3 FROM e)
                        WHEN 4 THEN (SELECT e4 FROM e)
                        WHEN 5 THEN (SELECT e5 FROM e)
                        WHEN 6 THEN (SELECT e6 FROM e)
                        ELSE -1 END)::BIGINT AS hi_c100,
                   count(*)::BIGINT AS n
            FROM b GROUP BY bucket ORDER BY bucket
        """,
        "orders_priority_mad": """
            WITH o AS (
                SELECT o_orderpriority,
                       round(o_totalprice * 100)::BIGINT AS c
                FROM orders
            ),
            m AS (
                SELECT o_orderpriority, count(*)::BIGINT AS n,
                       quantile_disc(c, 0.5)::BIGINT AS med_c100
                FROM o GROUP BY 1
            )
            SELECT m.o_orderpriority, m.n, m.med_c100,
                   quantile_disc(abs(o.c - m.med_c100), 0.5)::BIGINT
                       AS mad_c100
            FROM o JOIN m USING (o_orderpriority)
            GROUP BY m.o_orderpriority, m.n, m.med_c100
            ORDER BY m.o_orderpriority
        """,
        "events_trend_mk": """
            WITH d AS (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                       count(*)::BIGINT AS cnt
                FROM events GROUP BY 1, 2
            ),
            s AS (
                SELECT a.event_type,
                       sum(CASE WHEN b.cnt > a.cnt THEN 1
                                WHEN b.cnt < a.cnt THEN -1
                                ELSE 0 END)::BIGINT AS s_stat
                FROM d a JOIN d b ON a.event_type = b.event_type
                                 AND b.day > a.day
                GROUP BY a.event_type
            ),
            t AS (
                SELECT event_type, cnt, count(*)::BIGINT AS tie
                FROM d GROUP BY event_type, cnt
            ),
            v AS (
                SELECT event_type, sum(tie)::BIGINT AS n_days,
                       (sum(tie) * (sum(tie) - 1) * (2 * sum(tie) + 5)
                        - sum(tie * (tie - 1) * (2 * tie + 5)))::BIGINT
                           AS var18
                FROM t GROUP BY event_type
            )
            SELECT v.event_type, v.n_days,
                   coalesce(s.s_stat, 0)::BIGINT AS s_stat, v.var18
            FROM v LEFT JOIN s USING (event_type) ORDER BY event_type
        """,
        "mixture_rates": """
            WITH c AS (
                SELECT source, count(*)::BIGINT AS n_docs
                FROM documents GROUP BY source
            ),
            m AS (SELECT min(n_docs)::BIGINT AS n_min FROM c),
            r AS (
                SELECT source, n_docs,
                       round(10000.0 * sqrt(n_min::DOUBLE / n_docs))
                           ::BIGINT AS rate_bp
                FROM c, m
            )
            SELECT r.source, r.n_docs, r.rate_bp,
                   sum(CASE WHEN md5_number_lower('mix' || d.doc_id)
                                 % 10000 < r.rate_bp
                            THEN 1 ELSE 0 END)::BIGINT AS n_kept
            FROM documents d JOIN r USING (source)
            GROUP BY r.source, r.n_docs, r.rate_bp
            ORDER BY r.source
        """,
        "hard_negatives": """
            WITH q AS (
                SELECT vec_id AS query_id, label AS qlabel,
                       list_transform(embedding,
                           x -> round(x::DOUBLE * 1000)) AS qv
                FROM embeddings WHERE vec_id < 8
            ),
            c AS (
                SELECT vec_id, label,
                       list_transform(embedding,
                           x -> round(x::DOUBLE * 1000)) AS cv
                FROM embeddings
            ),
            s AS (
                SELECT q.query_id, c.vec_id,
                       list_dot_product(q.qv, c.cv)::BIGINT AS score_e6
                FROM q, c
                WHERE c.vec_id <> q.query_id AND c.label <> q.qlabel
            )
            SELECT query_id,
                   (row_number() OVER (PARTITION BY query_id
                        ORDER BY score_e6 DESC, vec_id))::BIGINT AS rank,
                   vec_id, score_e6
            FROM s QUALIFY rank <= 10 ORDER BY query_id, rank
        """,
        "knn_int_topk": """
            WITH q AS (
                SELECT vec_id AS query_id,
                       list_transform(embedding,
                           x -> round(x::DOUBLE * 1000)) AS qv
                FROM embeddings WHERE vec_id < 8
            ),
            c AS (
                SELECT vec_id,
                       list_transform(embedding,
                           x -> round(x::DOUBLE * 1000)) AS cv
                FROM embeddings
            ),
            s AS (
                SELECT q.query_id, c.vec_id,
                       list_dot_product(q.qv, c.cv)::BIGINT AS score_e6
                FROM q, c WHERE c.vec_id <> q.query_id
            )
            SELECT query_id,
                   (row_number() OVER (PARTITION BY query_id
                        ORDER BY score_e6 DESC, vec_id))::BIGINT AS rank,
                   vec_id, score_e6
            FROM s QUALIFY rank <= 10 ORDER BY query_id, rank
        """,
        "q2_min_cost_supplier": """
            WITH eligible_parts AS (
                SELECT p_partkey FROM part
                WHERE p_type = 'STANDARD' AND p_size >= 40
            ),
            region_supp AS (
                SELECT s_suppkey, s_name, n_name,
                       round(s_acctbal * 100)::BIGINT AS s_acctbal_c100
                FROM supplier JOIN nation ON s_nationkey = n_nationkey
                WHERE n_regionkey = (SELECT r_regionkey FROM region
                                     WHERE r_name = 'EUROPE')
            ),
            pair_cost AS (
                SELECT l_partkey, l_suppkey,
                       min((2 * round(l_extendedprice * 100)::BIGINT
                            * 10000 + l_quantity::BIGINT)
                           // (2 * l_quantity::BIGINT))::BIGINT AS cost_e4
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM eligible_parts)
                  AND l_suppkey IN (SELECT s_suppkey FROM region_supp)
                GROUP BY l_partkey, l_suppkey
            ),
            best AS (
                SELECT l_partkey, min(cost_e4) AS min_cost
                FROM pair_cost GROUP BY l_partkey
            )
            SELECT p.l_partkey AS p_partkey, r.s_suppkey, r.s_name,
                   r.n_name, r.s_acctbal_c100, p.cost_e4
            FROM pair_cost p
            JOIN best b ON p.l_partkey = b.l_partkey
                       AND p.cost_e4 = b.min_cost
            JOIN region_supp r ON p.l_suppkey = r.s_suppkey
            ORDER BY r.s_acctbal_c100 DESC, r.n_name, r.s_name,
                     p.l_partkey
        """,
        "q11_important_parts": """
            WITH v AS (
                SELECT l_partkey,
                       sum(round(l_extendedprice * 100))::BIGINT
                           AS value_c100
                FROM lineitem
                WHERE l_suppkey IN (
                    SELECT s_suppkey FROM supplier
                    JOIN nation ON s_nationkey = n_nationkey
                    WHERE n_regionkey = 2)
                GROUP BY l_partkey
            )
            SELECT l_partkey, value_c100 FROM v
            WHERE 2 * value_c100 * (SELECT count(*) FROM v)
                  > 3 * (SELECT sum(value_c100) FROM v)
            ORDER BY value_c100 DESC, l_partkey
        """,
        "q12_late_priority": """
            SELECT l_returnflag,
                   sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                            THEN 1 ELSE 0 END)::BIGINT
                       AS high_line_count,
                   sum(CASE WHEN o_orderpriority
                            NOT IN ('1-URGENT','2-HIGH')
                            THEN 1 ELSE 0 END)::BIGINT AS low_line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE l_shipdate >= o_orderdate + INTERVAL 90 DAY
              AND l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "q20_excess_suppliers": """
            WITH q AS (
                SELECT l_partkey, l_suppkey,
                       sum(l_quantity::BIGINT)::BIGINT AS qty
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM part
                                    WHERE p_name LIKE 'small %')
                  AND l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1997-01-01'
                GROUP BY l_partkey, l_suppkey
            ),
            tot AS (SELECT l_partkey, sum(qty)::BIGINT AS part_qty
                    FROM q GROUP BY l_partkey),
            hits AS (
                SELECT q.l_suppkey, count(*)::BIGINT AS n_parts_excess
                FROM q JOIN tot USING (l_partkey)
                WHERE 4 * q.qty > tot.part_qty GROUP BY q.l_suppkey
            )
            SELECT s_suppkey, s_name, n_parts_excess
            FROM hits JOIN supplier ON l_suppkey = s_suppkey
            ORDER BY s_suppkey
        """,
        "q21_waiting_supplier": """
            WITH fl AS (
                SELECT l_orderkey, l_suppkey, l_shipdate
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                WHERE o_orderstatus = 'F'
            ),
            waits AS (
                SELECT DISTINCT l1.l_orderkey, l1.l_suppkey
                FROM fl l1
                WHERE EXISTS (SELECT 1 FROM fl l2
                              WHERE l2.l_orderkey = l1.l_orderkey
                                AND l2.l_suppkey <> l1.l_suppkey)
                  AND NOT EXISTS (SELECT 1 FROM fl l3
                                  WHERE l3.l_orderkey = l1.l_orderkey
                                    AND l3.l_suppkey <> l1.l_suppkey
                                    AND l3.l_shipdate >= l1.l_shipdate)
            )
            SELECT s_suppkey, s_name, count(*)::BIGINT AS numwait
            FROM waits JOIN supplier ON l_suppkey = s_suppkey
            GROUP BY s_suppkey, s_name
            ORDER BY numwait DESC, s_suppkey
        """,
        "q22_idle_customers": """
            WITH pool AS (
                SELECT c_custkey, c_nationkey::BIGINT AS cntrycode,
                       round(c_acctbal * 100)::BIGINT AS bal_c100
                FROM customer
                WHERE c_nationkey IN (1,3,5,7,9,11,13)
            ),
            pos AS (SELECT count(*)::BIGINT AS n_pos,
                           sum(bal_c100)::BIGINT AS sum_pos
                    FROM pool WHERE bal_c100 > 0)
            SELECT cntrycode, count(*)::BIGINT AS numcust,
                   sum(bal_c100)::BIGINT AS totacctbal_c100
            FROM pool, pos
            WHERE bal_c100 * n_pos > sum_pos
              AND NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderdate >= TIMESTAMP '2000-01-01')
            GROUP BY cntrycode ORDER BY cntrycode
        """,
        "pii_scan": """
            SELECT doc_id,
                   len(regexp_extract_all(coalesce(text, ''),
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'
                   ))::BIGINT AS n_email,
                   len(regexp_extract_all(coalesce(text, ''),
                       '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'
                   ))::BIGINT AS n_ipv4,
                   len(regexp_extract_all(coalesce(text, ''),
                       '\\+?\\d{1,3}[- ]\\d{3}[- ]\\d{4}\\b'
                   ))::BIGINT AS n_phone,
                   len(regexp_extract_all(coalesce(text, ''),
                       '\\d{6,}'))::BIGINT AS n_digit_run,
                   (len(regexp_extract_all(coalesce(text, ''),
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'
                   )) > 0
                    OR len(regexp_extract_all(coalesce(text, ''),
                       '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'
                   )) > 0
                    OR len(regexp_extract_all(coalesce(text, ''),
                       '\\+?\\d{1,3}[- ]\\d{3}[- ]\\d{4}\\b'
                   )) > 0) AS has_pii
            FROM documents
        """,
        "source_vocab_jaccard": """
            WITH sw AS (
                SELECT DISTINCT source, w FROM (
                    SELECT source,
                           unnest(list_filter(string_split_regex(
                               lower(coalesce(text, '')), '\\s+'),
                               x -> x <> '')) AS w
                    FROM documents)
            ),
            sz AS (SELECT source, count(*)::BIGINT AS n
                   FROM sw GROUP BY source)
            SELECT a.source AS source_a, b.source AS source_b,
                   za.n AS n_a, zb.n AS n_b,
                   count(*)::BIGINT AS n_common,
                   (za.n + zb.n - count(*))::BIGINT AS n_union
            FROM sw a JOIN sw b ON a.w = b.w AND a.source < b.source
            JOIN sz za ON za.source = a.source
            JOIN sz zb ON zb.source = b.source
            GROUP BY a.source, b.source, za.n, zb.n
        """,
        "c4_line_filter": """
            WITH lx AS (
                SELECT doc_id, unnest(string_split(coalesce(text, ''),
                                                   chr(10))) AS line
                FROM documents
            ),
            lk AS (
                SELECT doc_id,
                       count(*)::BIGINT AS n_lines,
                       count(*) FILTER (
                           right(trim(line, ' ' || chr(9) || chr(13)
                                     || chr(10) || chr(11)
                                     || chr(12)), 1)
                               IN ('.', '!', '?', '"')
                           AND len(list_filter(string_split_regex(
                               trim(line), '\\s+'), x -> x <> '')) >= 5
                           AND NOT contains(lower(line), 'javascript')
                       )::BIGINT AS n_kept_lines,
                       coalesce(sum(length(line)) FILTER (
                           right(trim(line, ' ' || chr(9) || chr(13)
                                     || chr(10) || chr(11)
                                     || chr(12)), 1)
                               IN ('.', '!', '?', '"')
                           AND len(list_filter(string_split_regex(
                               trim(line), '\\s+'), x -> x <> '')) >= 5
                           AND NOT contains(lower(line), 'javascript')
                       ), 0)::BIGINT AS kept_chars
                FROM lx GROUP BY doc_id
            )
            SELECT d.doc_id, lk.n_lines, lk.n_kept_lines, lk.kept_chars,
                   contains(lower(coalesce(d.text, '')), 'lorem ipsum')
                       AS has_lorem,
                   contains(coalesce(d.text, ''), '{') AS has_brace,
                   (NOT contains(lower(coalesce(d.text, '')),
                                 'lorem ipsum')
                    AND NOT contains(coalesce(d.text, ''), '{')
                    AND lk.n_kept_lines >= 3) AS doc_kept
            FROM documents d JOIN lk USING (doc_id)
        """,
        "gopher_repetition_flags": """
            WITH w AS (
                SELECT doc_id,
                       list_filter(string_split_regex(
                           trim(coalesce(text, '')), '\\s+'),
                           x -> x <> '') AS words,
                       string_split(coalesce(text, ''), chr(10)) AS lines
                FROM documents
            ),
            base AS (
                SELECT doc_id, words,
                       (coalesce(list_aggregate(list_transform(words,
                            x -> length(x)), 'sum'), 0)
                        + greatest(len(words) - 1, 0))::BIGINT AS norm_len
                FROM w
            ),
            lg AS (
                SELECT doc_id, line, count(*) AS c, length(line) AS ll
                FROM (SELECT doc_id, unnest(lines) AS line FROM w)
                GROUP BY doc_id, line
            ),
            lm AS (
                SELECT doc_id, sum(c)::BIGINT AS n_lines,
                       count(*)::BIGINT AS n_distinct,
                       sum(c * ll)::BIGINT AS tot_line_chars,
                       sum((c - 1) * ll)::BIGINT AS dup_line_chars
                FROM lg GROUP BY doc_id
            ),
            gc2 AS (
                SELECT doc_id, max(c * gl)::BIGINT AS cover FROM (
                    SELECT doc_id, count(*) AS c, length(gram) AS gl
                    FROM (SELECT doc_id, unnest(list_transform(
                              range(1, len(words)), i ->
                              array_to_string(words[i:i+1], ' '))) AS gram
                          FROM base WHERE len(words) >= 2)
                    GROUP BY doc_id, gram)
                GROUP BY doc_id
            ),
            gc3 AS (
                SELECT doc_id, max(c * gl)::BIGINT AS cover FROM (
                    SELECT doc_id, count(*) AS c, length(gram) AS gl
                    FROM (SELECT doc_id, unnest(list_transform(
                              range(1, len(words) - 1), i ->
                              array_to_string(words[i:i+2], ' '))) AS gram
                          FROM base WHERE len(words) >= 3)
                    GROUP BY doc_id, gram)
                GROUP BY doc_id
            ),
            gc4 AS (
                SELECT doc_id, max(c * gl)::BIGINT AS cover FROM (
                    SELECT doc_id, count(*) AS c, length(gram) AS gl
                    FROM (SELECT doc_id, unnest(list_transform(
                              range(1, len(words) - 2), i ->
                              array_to_string(words[i:i+3], ' '))) AS gram
                          FROM base WHERE len(words) >= 4)
                    GROUP BY doc_id, gram)
                GROUP BY doc_id
            ),
            gd5 AS (
                SELECT doc_id, sum(c * gl)::BIGINT AS cover FROM (
                    SELECT doc_id, count(*) AS c, length(gram) AS gl
                    FROM (SELECT doc_id, unnest(list_transform(
                              range(1, len(words) - 3), i ->
                              array_to_string(words[i:i+4], ' '))) AS gram
                          FROM base WHERE len(words) >= 5)
                    GROUP BY doc_id, gram HAVING count(*) >= 2)
                GROUP BY doc_id
            ),
            gd10 AS (
                SELECT doc_id, sum(c * gl)::BIGINT AS cover FROM (
                    SELECT doc_id, count(*) AS c, length(gram) AS gl
                    FROM (SELECT doc_id, unnest(list_transform(
                              range(1, len(words) - 8), i ->
                              array_to_string(words[i:i+9], ' '))) AS gram
                          FROM base WHERE len(words) >= 10)
                    GROUP BY doc_id, gram HAVING count(*) >= 2)
                GROUP BY doc_id
            )
            SELECT b.doc_id, b.norm_len,
                   coalesce(gc2.cover, 0)::BIGINT AS top2_cover,
                   coalesce(gd5.cover, 0)::BIGINT AS dup5_cover,
                   (10 * (lm.n_lines - lm.n_distinct)
                    <= 3 * lm.n_lines) AS r_dup_line,
                   (5 * lm.dup_line_chars
                    <= lm.tot_line_chars) AS r_dup_line_chars,
                   (5 * coalesce(gc2.cover, 0) <= b.norm_len) AS r_top2,
                   (50 * coalesce(gc3.cover, 0)
                    <= 9 * b.norm_len) AS r_top3,
                   (25 * coalesce(gc4.cover, 0)
                    <= 4 * b.norm_len) AS r_top4,
                   (20 * coalesce(gd5.cover, 0)
                    <= 3 * b.norm_len) AS r_dup5,
                   (10 * coalesce(gd10.cover, 0) <= b.norm_len) AS r_dup10,
                   ((10 * (lm.n_lines - lm.n_distinct) <= 3 * lm.n_lines)
                    AND (5 * lm.dup_line_chars <= lm.tot_line_chars)
                    AND (5 * coalesce(gc2.cover, 0) <= b.norm_len)
                    AND (50 * coalesce(gc3.cover, 0) <= 9 * b.norm_len)
                    AND (25 * coalesce(gc4.cover, 0) <= 4 * b.norm_len)
                    AND (20 * coalesce(gd5.cover, 0) <= 3 * b.norm_len)
                    AND (10 * coalesce(gd10.cover, 0) <= b.norm_len))
                       AS repetition_pass
            FROM base b JOIN lm USING (doc_id)
            LEFT JOIN gc2 USING (doc_id) LEFT JOIN gc3 USING (doc_id)
            LEFT JOIN gc4 USING (doc_id) LEFT JOIN gd5 USING (doc_id)
            LEFT JOIN gd10 USING (doc_id)
        """,
        "l_diversity_violations": """
            SELECT lang, (n_chars // 500)::BIGINT AS len_bucket,
                   count(DISTINCT source)::BIGINT AS n_sources,
                   count(*)::BIGINT AS cnt
            FROM documents
            GROUP BY 1, 2
            HAVING count(DISTINCT source) < 3
        """,
        "dsir_weights": """
            WITH tok AS (
                SELECT doc_id, lang, unnest(list_filter(
                    string_split_regex(lower(trim(text)), '\\s+'),
                    x -> x <> '')) AS w
                FROM documents
            ),
            b AS (
                SELECT doc_id,
                       (md5_number_lower(w) % 4096)::BIGINT AS bucket,
                       lang
                FROM tok
            ),
            cnt AS (
                SELECT bucket, count(*)::BIGINT AS c_raw,
                       sum(CASE WHEN lang = 'en' THEN 1
                                ELSE 0 END)::BIGINT AS c_tgt
                FROM b GROUP BY 1
            ),
            tot AS (SELECT sum(c_raw)::BIGINT AS n_raw,
                           sum(c_tgt)::BIGINT AS n_tgt FROM cnt),
            lr AS (
                SELECT bucket,
                       CAST(floor(((ln(c_tgt + 1) - ln(n_tgt + 4096))
                                   - (ln(c_raw + 1) - ln(n_raw + 4096)))
                                  * 1000000 + 0.5) AS BIGINT) AS lr_e6
                FROM cnt CROSS JOIN tot
            )
            SELECT b.doc_id, count(*)::BIGINT AS n_tokens,
                   sum(lr.lr_e6)::BIGINT AS dsir_e6
            FROM b JOIN lr USING (bucket)
            GROUP BY 1
        """,
        "lm_perplexity_buckets": """
            WITH t AS (
                SELECT doc_id, unnest(l) AS w,
                       generate_subscripts(l, 1) AS i
                FROM (
                    SELECT doc_id, list_filter(
                        string_split_regex(lower(trim(text)), '\\s+'),
                        x -> x <> '') AS l
                    FROM documents
                )
            ),
            v AS (SELECT count(DISTINCT w)::BIGINT AS v FROM t),
            p AS (
                SELECT doc_id, w AS a,
                       lead(w) OVER (PARTITION BY doc_id
                                     ORDER BY i) AS b
                FROM t
            ),
            bi AS (SELECT a, b, count(*)::BIGINT AS c12
                   FROM p WHERE b IS NOT NULL GROUP BY 1, 2),
            ctx AS (SELECT a, sum(c12)::BIGINT AS c1 FROM bi GROUP BY 1),
            lp AS (
                SELECT bi.a, bi.b,
                       CAST(floor((ln(bi.c12 + 1) - ln(ctx.c1 + v.v))
                                  * 1000000 + 0.5) AS BIGINT) AS lp_e6
                FROM bi JOIN ctx USING (a) CROSS JOIN v
            ),
            scored AS (
                SELECT p.doc_id, count(*)::BIGINT AS n_bigrams,
                       sum(-lp.lp_e6)::BIGINT AS nll_e6
                FROM p JOIN lp ON p.a = lp.a AND p.b = lp.b
                GROUP BY 1
            )
            SELECT doc_id, n_bigrams, nll_e6,
                   CASE WHEN nll_e6 // n_bigrams < 6500000 THEN 'head'
                        WHEN nll_e6 // n_bigrams < 7500000 THEN 'middle'
                        ELSE 'tail' END AS ppl_bucket
            FROM scored
        """,
        "benford_order_totals": """
            WITH c AS (
                SELECT round(o_totalprice * 100)::BIGINT AS cents
                FROM orders
            ),
            d AS (
                SELECT substr(cents::VARCHAR, 1, 1)::BIGINT AS digit,
                       count(*)::BIGINT AS cnt
                FROM c GROUP BY 1
            ),
            t AS (SELECT sum(cnt)::BIGINT AS total FROM d)
            SELECT digit, cnt,
                   ((2 * cnt * 1000000 + total)
                    // (2 * total))::BIGINT AS prop_e6
            FROM d, t ORDER BY digit
        """,
        "events_daily_outliers": """
            WITH d AS (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                       count(*)::BIGINT AS cnt
                FROM events GROUP BY 1, 2
            ),
            s AS (
                SELECT event_type, count(*)::BIGINT AS n,
                       sum(cnt)::BIGINT AS s, sum(cnt * cnt)::BIGINT AS q
                FROM d GROUP BY 1
            )
            SELECT d.event_type, d.day, d.cnt,
                   (CASE WHEN (s.n * d.cnt - s.s) * (s.n * d.cnt - s.s)
                              > 9 * (s.n * s.q - s.s * s.s)
                         THEN 1 ELSE 0 END)::BIGINT AS is_outlier
            FROM d JOIN s USING (event_type)
        """,
    }
    # the fused curation scorecard's oracle IS the conjunction of the
    # four rule-family oracles — compose them verbatim so both sides
    # can never drift apart
    d["curation_scorecard"] = f"""
        WITH q AS ({d['gopher_quality_flags']}),
             r AS ({d['gopher_repetition_flags']}),
             c AS ({d['c4_line_filter']}),
             p AS ({d['pii_scan']})
        SELECT d.source, count(*)::BIGINT AS n_docs,
               sum(CASE WHEN q.gopher_pass THEN 1 ELSE 0 END)::BIGINT
                   AS n_quality,
               sum(CASE WHEN r.repetition_pass THEN 1 ELSE 0 END)::BIGINT
                   AS n_repetition,
               sum(CASE WHEN c.doc_kept THEN 1 ELSE 0 END)::BIGINT
                   AS n_c4_kept,
               sum(CASE WHEN p.has_pii THEN 1 ELSE 0 END)::BIGINT
                   AS n_pii,
               sum(CASE WHEN q.gopher_pass AND r.repetition_pass
                             AND c.doc_kept AND NOT p.has_pii
                        THEN 1 ELSE 0 END)::BIGINT AS n_keep
        FROM documents d
        JOIN q USING (doc_id) JOIN r USING (doc_id)
        JOIN c USING (doc_id) JOIN p USING (doc_id)
        GROUP BY d.source
    """
    return d
