"""FIXTURES.md group B — wide constraints, cross-checked against DuckDB
oracles on the same data (B1–B5)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from mdvalidate_ray.corpus import (
    arrow_documents,
    assets_table,
    ray_documents,
)
from mdvalidate_ray.stages.drift import (
    drift_by_group,
    drift_check,
    kll_of_column,
    kll_spans_per_doc,
)
from mdvalidate_ray.stages.referential import dangling_media_refs
from mdvalidate_ray.stages.stats import column_stats, length_histogram
from mdvalidate_ray.stages.uniqueness import (
    approx_distinct,
    duplicate_keys,
    uniqueness_check,
)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_parquet(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF_DIR}/documents.parquet")


# --- B1/B2: column stats + length histogram vs duckdb -----------------------

def test_b1_column_stats_match_duckdb(ray_session, docs_parquet):
    stats = {r["column"]: r for r in column_stats(
        docs_parquet, ["text", "n_chars"]).to_pylist()}
    oracle = duckdb.sql(f"""
        SELECT count(*) n, min(length(text)) mn, max(length(text)) mx,
               sum(length(text)) sm, min(n_chars) mnv, max(n_chars) mxv
        FROM '{SF_DIR}/documents.parquet'
    """).fetchone()
    t = stats["text"]
    assert t["n_rows"] == oracle[0]
    assert t["min_len"] == oracle[1]
    assert t["max_len"] == oracle[2]
    assert t["sum_len"] == oracle[3]
    c = stats["n_chars"]
    assert c["min_val"] == oracle[4]
    assert c["max_val"] == oracle[5]


def test_b2_length_histogram_matches_duckdb(ray_session, docs_parquet):
    hist = {r["bucket"]: r["sum(cnt)"]
            for r in length_histogram(docs_parquet, "text", 100).take_all()}
    oracle = dict(duckdb.sql(f"""
        SELECT (length(text) // 100) * 100 AS bucket, count(*)
        FROM '{SF_DIR}/documents.parquet' GROUP BY 1
    """).fetchall())
    assert hist == oracle


# --- B3: uniqueness (planted dups incl. hot key) ----------------------------

def test_b3_uniqueness_sketch_mode_skips_exact_phase(ray_session):
    # non-strict (sketch-resolution) mode may short-circuit, but must say
    # so: the verdict is explicitly weaker than a proof of absence
    ds = ray_documents(2_000, dup_every=10**9, override_num_blocks=4)
    verdict = uniqueness_check(ds, "doc_id", strict=False)
    assert verdict["passed"] and not verdict["exact_phase"]
    assert verdict["verdict"] == "no_duplicates_at_sketch_resolution"
    assert verdict["sketch_bound"] > 0


def test_b3_uniqueness_strict_catches_sub_bound_dup_rate(ray_session):
    # 2000 docs with ONE duplicate pair: far below the ~3.2% HLL error
    # bound, so a sketch-certified pass would silently miss it — strict
    # mode must run the exact phase and fail
    ds = ray_documents(2_000, dup_every=1000, override_num_blocks=4)
    verdict = uniqueness_check(ds, "doc_id")
    assert verdict["exact_phase"]
    assert not verdict["passed"]
    assert verdict["n_duplicate_keys"] >= 1


def test_b3_planted_duplicates_found_exactly(ray_session):
    # 3000 docs: dup planted at i=1007, 2007; hot key = last 500 docs
    ds = ray_documents(3_000, dup_every=1000, hot_copies=500,
                       override_num_blocks=6)
    dups = duplicate_keys(ds, "doc_id", salt_buckets=8).take_all()
    got = {r["doc_id"]: r["cnt"] for r in dups}
    expected = {"doc_hot": 500,
                "doc000000001006": 2, "doc000000002006": 2}
    assert got == expected
    # oracle: duckdb HAVING count(*) > 1 on the same materialized table
    tbl = ds.select_columns(["doc_id"]).to_pandas()
    oracle = dict(duckdb.sql(
        "SELECT doc_id, count(*) FROM tbl GROUP BY 1 HAVING count(*)>1"
    ).fetchall())
    assert got == oracle


def test_b3_hll_approximates_distinct(ray_session):
    ds = ray_documents(5_000, dup_every=10**9, override_num_blocks=4)
    est = approx_distinct(ds, "doc_id")
    assert abs(est - 5_000) / 5_000 < 0.05


# --- B4: referential integrity (planted dangling refs) ----------------------

@pytest.mark.parametrize("tier", ["broadcast", "bloom_join"])
def test_b4_dangling_refs_exactly_the_planted_ones(ray_session, tier,
                                                   force_tier):
    import ray.data

    n = 2_000
    docs = ray_documents(n, override_num_blocks=4)
    assets = ray.data.from_arrow(assets_table(n))
    # a zero budget forces the Bloom + co-partitioned-anti-join scale path
    with force_tier(None if tier == "broadcast" else "partitioned"):
        dangling = dangling_media_refs(docs, assets).take_all()
    got = {r["media_ref"] for r in dangling}
    # oracle: exact anti-join in duckdb over the same materialized tables
    docs_tbl = arrow_documents(n)
    assets_tbl = assets_table(n)
    flat = duckdb.sql("""
        WITH refs AS (
            SELECT doc_id, s.media_ref
            FROM docs_tbl, UNNEST(spans) AS t(s)
            WHERE s.media_ref <> ''
        )
        SELECT DISTINCT media_ref FROM refs
        WHERE media_ref NOT IN (SELECT asset_id FROM assets_tbl)
    """).fetchall()
    oracle = {r[0] for r in flat}
    assert got == oracle
    assert all(ref.startswith("missing-") for ref in got)
    # doc attribution is correct: every pair's doc really references it
    pairs = {(r["doc_id"], r["media_ref"]) for r in dangling}
    oracle_pairs = set(duckdb.sql("""
        SELECT DISTINCT doc_id, s.media_ref
        FROM docs_tbl, UNNEST(spans) AS t(s)
        WHERE s.media_ref <> ''
          AND s.media_ref NOT IN (SELECT asset_id FROM assets_tbl)
    """).fetchall())
    assert pairs == oracle_pairs


# --- B5: drift --------------------------------------------------------------

def test_b5_drift_flags_only_shifted_distribution(ray_session):
    import ray.data

    rng = np.random.default_rng(5)
    base_tbl = pa.table({"part": ["a"] * 20_000, "v": rng.normal(0, 1, 20_000)})
    same_tbl = pa.table({"part": ["b"] * 20_000, "v": rng.normal(0, 1, 20_000)})
    shifted_tbl = pa.table({"part": ["c"] * 20_000,
                            "v": rng.normal(1.5, 1, 20_000)})
    reference = kll_of_column(ray.data.from_arrow(base_tbl), "v")
    live = ray.data.from_arrow(
        pa.concat_tables([same_tbl, shifted_tbl]))
    verdicts = drift_by_group(live, "part", "v", reference, threshold=0.1)
    assert verdicts["b"]["passed"], verdicts["b"]
    assert not verdicts["c"]["passed"], verdicts["c"]


def test_b5_spans_per_doc_sketch_close_to_exact(ray_session):
    ds = ray_documents(1_000, override_num_blocks=4)
    sk = kll_spans_per_doc(ds)
    exact = np.array([len(s) for s in
                      arrow_documents(1_000).column("spans").to_pylist()])
    for q in (0.25, 0.5, 0.75):
        assert abs(sk.quantile(q) - np.quantile(exact, q)) <= 6
    assert drift_check(sk, sk)["passed"]


def test_b1_null_violations_flag_planted_nulls(ray_session):
    import ray.data

    from mdvalidate_ray.corpus import DOCUMENTS_SCHEMA
    from mdvalidate_ray.stages.stats import null_violations

    spans_type = DOCUMENTS_SCHEMA.field("spans").type
    tbl = pa.Table.from_arrays(
        [pa.array(["d0", "d1", "d2"]),
         pa.array([
             [{"kind": "heading1", "text": "ok", "media_ref": "", "offset": 0}],
             [{"kind": "paragraph", "text": None, "media_ref": "", "offset": 0},
              {"kind": None, "text": "x", "media_ref": "", "offset": 1}],
             [{"kind": "text", "text": "fine", "media_ref": "", "offset": 0}],
         ], spans_type)],
        schema=DOCUMENTS_SCHEMA)
    out = null_violations(ray.data.from_arrow(tbl)).take_all()
    assert [(v["doc_id"], v["span_index"]) for v in
            sorted(out, key=lambda v: v["span_index"])] == \
        [("d1", 0), ("d1", 1)]
    assert all(v["kind"] == "null_violation" for v in out)


def test_b3_auto_salting_on_hot_key(ray_session):
    ds = ray_documents(4_000, dup_every=10**9, hot_copies=1_500,
                       override_num_blocks=8)
    verdict = uniqueness_check(ds, "doc_id")
    assert verdict["exact_phase"] and not verdict["passed"]
    assert verdict["salt_buckets"] and verdict["salt_buckets"] >= 8
    dups = {r["doc_id"]: r["cnt"] for r in verdict["duplicates"].take_all()}
    assert dups == {"doc_hot": 1_500}


def test_expectations_suite_counts_and_errors(ray_session):
    """Each expectation kind counts failures vectorized (nulls checked
    only by not_null; bounds inclusive; regex full-match; in_set),
    duplicate rule ids and unknown kinds raise."""
    import pyarrow as pa
    import pytest
    import ray.data

    from mdvalidate_ray.stages.expectations import evaluate_expectations

    t = pa.table({
        "x": pa.array([1, 5, 10, None, -2], pa.int64()),
        "s": pa.array(["ok", "bad!", None, "ok", "meh"]),
    })
    ds = ray.data.from_arrow(t).repartition(2)
    rules = [
        {"col": "x", "kind": "not_null"},
        {"col": "x", "kind": "between", "lo": 0, "hi": 5},
        {"col": "x", "kind": "min", "value": 1},
        {"col": "s", "kind": "in_set", "values": ["ok", "meh"]},
        {"col": "s", "kind": "regex", "pattern": "[a-z]+"},
    ]
    out = evaluate_expectations(ds, rules).to_pandas() \
        .set_index("rule_id")
    assert out.loc["x_not_null"].n_failed == 1
    assert out.loc["x_between_0_5"].n_checked == 4      # nulls skipped
    assert out.loc["x_between_0_5"].n_failed == 2       # 10 and -2
    assert out.loc["x_min_1"].n_failed == 1             # -2
    assert out.loc["s_in_set"].n_failed == 1            # "bad!"
    assert out.loc["s_regex"].n_failed == 1             # "bad!" (full match)
    assert not out.loc["x_not_null"].passed
    assert bool(out.loc["s_regex"].passed) is False

    with pytest.raises(ValueError):
        evaluate_expectations(ds, [{"col": "x", "kind": "nope"}])
    with pytest.raises(ValueError):
        evaluate_expectations(
            ds, [{"col": "x", "kind": "not_null"},
                 {"col": "x", "kind": "not_null"}])
