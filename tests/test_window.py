"""Window-operator family (functions/window.py), distributed k-means
(similarity.kmeans_fit) and the deterministic sampler
(text.sample_deterministic): semantics pinned against brute-force
in-memory references, plus the partition-invariance properties the
coarse-bucket plans rely on.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mdvalidate_ray.functions.window import (
    group_quantiles,
    grouped_moving_sum,
    top_n_per_group,
)


def _mk_table(n=500, n_keys=17, seed=9):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": rng.integers(0, n_keys, n).astype("int64"),
        "ord": rng.integers(0, 10_000, n).astype("int64"),
        "uid": np.arange(n, dtype="int64"),
        "v": rng.integers(0, 50, n).astype("int64"),
    })


@pytest.mark.parametrize("blocks", [1, 7])
def test_top_n_per_group_matches_pandas(ray_session, blocks):
    import ray.data

    tbl = _mk_table()
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = top_n_per_group(ds, group_key="k", order_col="ord", n=3,
                          descending=True, tie_col="uid",
                          n_parts=5).to_pandas()
    got = got.sort_values(["k", "rk"]).reset_index(drop=True)

    df = tbl.to_pandas().sort_values(["k", "ord", "uid"],
                                     ascending=[True, False, True])
    want = df.groupby("k").head(3).copy()
    want["rk"] = want.groupby("k").cumcount() + 1
    want = want.sort_values(["k", "rk"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "ord", "uid", "v", "rk"]],
        want[["k", "ord", "uid", "v", "rk"]], check_dtype=False)


def test_top_n_ascending_and_small_groups(ray_session):
    import ray.data

    tbl = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                    "ord": pa.array([5, 3, 9], pa.int64()),
                    "uid": pa.array([0, 1, 2], pa.int64())})
    got = top_n_per_group(ray.data.from_arrow(tbl), group_key="k",
                          order_col="ord", n=2, descending=False,
                          tie_col="uid").to_pandas()
    got = got.sort_values(["k", "rk"]).reset_index(drop=True)
    assert got["ord"].tolist() == [3, 5, 9]
    assert got["rk"].tolist() == [1, 2, 1]


@pytest.mark.parametrize("blocks", [1, 7])
def test_grouped_moving_sum_matches_pandas(ray_session, blocks):
    import ray.data

    tbl = _mk_table(n=400, n_keys=11)
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = grouped_moving_sum(ds, key="k", order_cols=["ord", "uid"],
                             value_col="v", window_rows=3,
                             n_parts=4).to_pandas()
    got = got.sort_values(["k", "ord", "uid"]).reset_index(drop=True)

    df = tbl.to_pandas().sort_values(["k", "ord", "uid"],
                                     ignore_index=True)
    g = df.groupby("k")["v"]
    df["mov_sum"] = g.rolling(3, min_periods=1).sum() \
                     .reset_index(level=0, drop=True).astype("int64")
    df["n_win"] = g.rolling(3, min_periods=1).count() \
                   .reset_index(level=0, drop=True).astype("int64")
    pd.testing.assert_frame_equal(
        got[["k", "ord", "uid", "mov_sum", "n_win"]],
        df[["k", "ord", "uid", "mov_sum", "n_win"]], check_dtype=False)


def test_grouped_moving_sum_window_one_is_identity(ray_session):
    import ray.data

    tbl = _mk_table(n=100, n_keys=5)
    got = grouped_moving_sum(ray.data.from_arrow(tbl), key="k",
                             order_cols=["uid"], value_col="v",
                             window_rows=1).to_pandas()
    got = got.sort_values("uid").reset_index(drop=True)
    assert (got["mov_sum"] == got["v"]).all()
    assert (got["n_win"] == 1).all()


@pytest.mark.parametrize("blocks", [1, 5])
def test_group_quantiles_matches_numpy(ray_session, blocks):
    import ray.data

    rng = np.random.default_rng(4)
    tbl = pa.table({
        "src": pa.array([f"s{int(i)}" for i in rng.integers(0, 4, 300)]),
        "val": pa.array(rng.integers(0, 1000, 300).astype("int64")),
    })
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = group_quantiles(ds, group_key="src", value_col="val",
                          qs=[0.25, 0.5, 0.9], n_parts=3).to_pandas()
    df = tbl.to_pandas()
    for (src, q), sub in got.groupby(["src", "q"]):
        vals = df.loc[df["src"] == src, "val"].to_numpy(dtype=float)
        assert sub["q_value"].iloc[0] == np.quantile(vals, q), (src, q)
    assert len(got) == 4 * 3


def test_sample_deterministic_stable_and_stratifiable(ray_session):
    import ray.data

    from mdvalidate_ray.functions.text import sample_deterministic

    tbl = pa.table({"doc_id": pa.array(range(2000), pa.int64()),
                    "src": pa.array(["a", "b"] * 1000)})
    a = sample_deterministic(ray.data.from_arrow(tbl), key="doc_id",
                             rate_bp=1000).to_pandas()
    # re-run under a different partitioning → identical membership
    b = sample_deterministic(
        ray.data.from_arrow(tbl).repartition(7), key="doc_id",
        rate_bp=1000).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    # ~10% with binomial slack
    assert 0.06 < len(a) / 2000 < 0.14
    # a larger rate strictly contains the smaller one (nested samples)
    c = sample_deterministic(ray.data.from_arrow(tbl), key="doc_id",
                             rate_bp=3000).to_pandas()
    assert set(a["doc_id"]) <= set(c["doc_id"])


def test_kmeans_fit_deterministic_and_monotone(ray_session):
    import ray.data

    from mdvalidate_ray.functions.similarity import kmeans_fit

    rng = np.random.default_rng(11)
    # three well-separated blobs
    blobs = np.concatenate([
        rng.normal(0, 0.05, (60, 8)) + np.eye(8)[0] * 3,
        rng.normal(0, 0.05, (60, 8)) + np.eye(8)[1] * 3,
        rng.normal(0, 0.05, (60, 8)) + np.eye(8)[2] * 3,
    ]).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(range(180), pa.int64()),
                    "embedding": pa.array(blobs.tolist(),
                                          pa.list_(pa.float32()))})
    ds = ray.data.from_arrow(tbl).repartition(4)
    fit1 = kmeans_fit(ds, k=3, iters=4)
    fit2 = kmeans_fit(ds.repartition(2), k=3, iters=4)
    # deterministic across runs and partitionings
    np.testing.assert_array_equal(fit1["sizes"], fit2["sizes"])
    np.testing.assert_allclose(fit1["centroids"], fit2["centroids"])
    # Lloyd inertia is non-increasing
    inert = fit1["inertia_per_iter"]
    assert all(a >= b - 1e-9 for a, b in zip(inert, inert[1:]))
    # blobs recovered: each cluster holds one blob
    assert sorted(fit1["sizes"].tolist()) == [60, 60, 60]


def test_redact_kernels_and_counts():
    import pyarrow as pa

    from mdvalidate_ray.functions.text import redact

    b = pa.table({"text": pa.array(["a1b22c", "nodigits", "", "9"])})
    out = redact(b, pattern=r"[0-9]+", replacement="#")
    assert out.column("text_redacted").to_pylist() == \
        ["a#b#c", "nodigits", "", "#"]
    assert out.column("n_hits").to_pylist() == [2, 0, 0, 1]


def test_weighted_mixture_rates_and_stability(ray_session):
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.text import weighted_mixture

    tbl = pa.table({
        "doc_id": pa.array(range(4000), pa.int64()),
        "src": pa.array((["keep"] * 3 + ["rare"]) * 1000),
    })
    kept = weighted_mixture(ray.data.from_arrow(tbl), group_col="src",
                            key="doc_id",
                            rates_bp={"keep": 5000, "rare": 500}
                            ).to_pandas()
    frac_keep = (kept["src"] == "keep").sum() / 3000
    frac_rare = (kept["src"] == "rare").sum() / 1000
    assert 0.45 < frac_keep < 0.55
    assert 0.02 < frac_rare < 0.09
    # unknown group default_bp=0 -> dropped entirely
    tbl2 = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                     "src": pa.array(["unknown"] * 100)})
    kept2 = weighted_mixture(ray.data.from_arrow(tbl2), group_col="src",
                             key="doc_id", rates_bp={}).to_pandas()
    assert len(kept2) == 0
    # partition-invariant membership
    again = weighted_mixture(
        ray.data.from_arrow(tbl).repartition(7), group_col="src",
        key="doc_id", rates_bp={"keep": 5000, "rare": 500}).to_pandas()
    assert sorted(again["doc_id"]) == sorted(kept["doc_id"])


def test_cross_split_overlap_guard_and_hits(ray_session, force_tier):
    import pyarrow as pa
    import pytest as _pt
    import ray.data

    from mdvalidate_ray.functions.dedup import cross_split_exact_overlap

    tbl = pa.table({
        "doc_id": pa.array([str(i) for i in range(200)]),
        "text": pa.array([f"text-{i % 50}" for i in range(200)]),
    })
    ds = ray.data.from_arrow(tbl)
    pairs = cross_split_exact_overlap(ds, key="doc_id", text_col="text",
                                      train_bp=5000).to_pandas()
    # every fp has 4 copies split ~50/50 -> cross-split hits must exist
    assert len(pairs) > 0
    assert set(pairs.columns) == {"train_id", "test_id", "fp"}
    # train and test ids never coincide
    assert not (set(pairs["train_id"]) & set(pairs["test_id"]))
    # guard: a test side past the tier budget raises with guidance
    with force_tier("partitioned"):
        with _pt.raises(ValueError, match="co-partitioned"):
            cross_split_exact_overlap(ds, key="doc_id", text_col="text",
                                      train_bp=5000).to_pandas()


@pytest.mark.parametrize("blocks", [1, 6])
def test_range_join_count_matches_bruteforce(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.relational import range_join_count

    rng = np.random.default_rng(7)
    n_ev, n_iv = 800, 120
    base = 1_700_000_000_000_000
    ev = pa.table({
        "k": rng.integers(0, 25, n_ev).astype("int64"),
        "ts": pa.array(base + rng.integers(0, 10**9, n_ev),
                       pa.timestamp("us")),
    })
    starts = base + rng.integers(-10**8, 10**9, n_iv)
    ends = starts + rng.integers(-10**6, 10**8, n_iv)   # some degenerate
    iv = pa.table({
        "k": rng.integers(0, 30, n_iv).astype("int64"),  # some keys absent
        "win_id": np.arange(n_iv, dtype="int64"),
        "start": pa.array(starts, pa.timestamp("us")),
        "end": pa.array(ends, pa.timestamp("us")),
    })
    got = range_join_count(
        ray.data.from_arrow(ev).repartition(blocks),
        ray.data.from_arrow(iv).repartition(max(1, blocks - 1)),
        key="k", time_col="ts", id_col="win_id",
        start_col="start", end_col="end", n_parts=5
    ).to_pandas().sort_values("win_id").reset_index(drop=True)
    assert len(got) == n_iv
    edf = ev.to_pandas()
    # Timestamp.value is ns — compare in ns on both sides
    edf["ts_ns"] = edf["ts"].astype("datetime64[ns]").astype("int64")
    for _, r in iv.to_pandas().iterrows():
        s, e = r["start"].value, r["end"].value
        want = ((edf["k"] == r["k"]) & (edf["ts_ns"] >= s)
                & (edf["ts_ns"] <= e)).sum()
        gotv = got.loc[got["win_id"] == r["win_id"], "n_matched"].iloc[0]
        assert gotv == want, (r["win_id"], gotv, want)


# --- property tests on the local kernels (no Ray session needed) -------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30)),
                min_size=0, max_size=60),
       st.integers(1, 4))
def test_topn_take_property(rows, n):
    from mdvalidate_ray.functions.window import _topn_take

    tbl = pa.table({
        "k": pa.array([r[0] for r in rows], pa.int64()),
        "ord": pa.array([r[1] for r in rows], pa.int64()),
        "uid": pa.array(range(len(rows)), pa.int64()),
    })
    sort_keys = [("k", "ascending"), ("ord", "descending"),
                 ("uid", "ascending")]
    got = _topn_take(tbl, "k", sort_keys, n).to_pandas()
    if not rows:
        assert len(got) == 0
        return
    df = tbl.to_pandas().sort_values(["k", "ord", "uid"],
                                     ascending=[True, False, True])
    want = df.groupby("k").head(n)
    assert len(got) == len(want)
    # rank always 1..group_size and ordered within group
    for k, sub in got.groupby("k"):
        assert sub["rk"].tolist() == list(range(1, len(sub) + 1))
        # values are the true top-n for the group
        grp = df[df["k"] == k]
        assert sub["uid"].tolist() == grp.head(n)["uid"].tolist()


@pytest.mark.parametrize("blocks", [1, 7])
def test_grouped_running_sum_matches_pandas(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.window import grouped_running_sum

    tbl = _mk_table()
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = grouped_running_sum(ds, key="k", order_cols=["ord", "uid"],
                              value_col="v", n_parts=5).to_pandas()
    got = got.sort_values(["k", "ord", "uid"]).reset_index(drop=True)

    df = tbl.to_pandas().sort_values(["k", "ord", "uid"]) \
        .reset_index(drop=True)
    df["run_sum"] = df.groupby("k")["v"].cumsum()
    df["rn"] = df.groupby("k").cumcount() + 1
    pd.testing.assert_frame_equal(
        got[["k", "ord", "uid", "v", "run_sum", "rn"]],
        df[["k", "ord", "uid", "v", "run_sum", "rn"]],
        check_dtype=False)


def test_grouped_running_sum_single_rows(ray_session):
    import ray.data

    from mdvalidate_ray.functions.window import grouped_running_sum

    tbl = pa.table({"k": pa.array([7], pa.int64()),
                    "ord": pa.array([1], pa.int64()),
                    "v": pa.array([-3], pa.int64())})
    got = grouped_running_sum(ray.data.from_arrow(tbl), key="k",
                              order_cols=["ord"], value_col="v",
                              n_parts=3).to_pandas()
    assert got["run_sum"].tolist() == [-3]
    assert got["rn"].tolist() == [1]


@pytest.mark.parametrize("blocks", [1, 7])
def test_global_rank_and_ntile_match_pandas(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.window import global_rank

    tbl = _mk_table(n=300, n_keys=9)
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = global_rank(ds, order_cols=["ord", "uid"],
                      n_buckets=7).to_pandas()
    got = got.sort_values("rk").reset_index(drop=True)

    df = tbl.to_pandas().sort_values(["ord", "uid"]).reset_index(drop=True)
    df["rk"] = np.arange(1, len(df) + 1, dtype="int64")
    # SQL ntile: first (total % n) buckets get one extra row
    total, n = len(df), 7
    size_small, n_big = total // n, total % n
    big_span = n_big * (size_small + 1)
    idx0 = df["rk"].values - 1
    df["bucket"] = np.where(
        idx0 < big_span, idx0 // (size_small + 1) + 1,
        n_big + (idx0 - big_span) // max(size_small, 1) + 1).astype("int64")
    pd.testing.assert_frame_equal(
        got[["uid", "rk", "bucket"]], df[["uid", "rk", "bucket"]],
        check_dtype=False)


def test_global_rank_descending_no_buckets(ray_session):
    import ray.data

    from mdvalidate_ray.functions.window import global_rank

    tbl = pa.table({"v": pa.array([3, 1, 2], pa.int64()),
                    "uid": pa.array([0, 1, 2], pa.int64())})
    got = global_rank(ray.data.from_arrow(tbl), order_cols=["v", "uid"],
                      descending=True).to_pandas()
    got = got.sort_values("rk").reset_index(drop=True)
    assert got["v"].tolist() == [3, 2, 1]
    assert got["rk"].tolist() == [1, 2, 3]
    assert "bucket" not in got.columns


@pytest.mark.parametrize("blocks", [1, 7])
def test_grouped_lag_delta_matches_pandas(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.window import grouped_lag_delta

    tbl = _mk_table()
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = grouped_lag_delta(ds, key="k", order_cols=["ord", "uid"],
                            value_col="v", n_parts=5).to_pandas()
    got = got.sort_values(["k", "ord", "uid"]).reset_index(drop=True)

    df = tbl.to_pandas().sort_values(["k", "ord", "uid"]) \
        .reset_index(drop=True)
    df["delta"] = df.groupby("k")["v"].diff()
    pd.testing.assert_frame_equal(
        got[["k", "ord", "uid", "delta"]],
        df[["k", "ord", "uid", "delta"]], check_dtype=False)


@pytest.mark.parametrize("blocks", [1, 7])
def test_grouped_range_sum_matches_bruteforce(ray_session, blocks):
    """RANGE frame semantics: fixed time reach-back AND the SQL peer
    rule (all rows sharing a timestamp see each other's contributions).
    Duplicate timestamps are planted to exercise the peer rule."""
    import ray.data

    from mdvalidate_ray.functions.window import grouped_range_sum

    rng = np.random.default_rng(3)
    n = 400
    tbl = pa.table({
        "k": rng.integers(0, 9, n).astype("int64"),
        # coarse grid => many exact-duplicate (k, ts) peers
        "ts": rng.integers(0, 50, n).astype("int64") * 10,
        "uid": np.arange(n, dtype="int64"),
        "v": rng.integers(-20, 50, n).astype("int64"),
    })
    delta = 100
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = grouped_range_sum(ds, key="k", ts_col="ts", value_col="v",
                            range_delta_us=delta,
                            order_tie_cols=["uid"], n_parts=4).to_pandas()
    got = got.sort_values("uid").reset_index(drop=True)

    df = tbl.to_pandas()
    want_sum, want_n = [], []
    for r in got.itertuples(index=False):
        win = df[(df.k == r.k) & (df.ts >= r.ts - delta)
                 & (df.ts <= r.ts)]
        want_sum.append(int(win.v.sum()))
        want_n.append(len(win))
    assert got["range_sum"].tolist() == want_sum
    assert got["n_range"].tolist() == want_n


def test_grouped_range_sum_zero_delta_sums_peers(ray_session):
    """delta=0 degenerates to the per-(key, ts) peer-group sum."""
    import ray.data

    from mdvalidate_ray.functions.window import grouped_range_sum

    tbl = pa.table({
        "k": pa.array([1, 1, 1, 2], pa.int64()),
        "ts": pa.array([5, 5, 9, 5], pa.int64()),
        "uid": pa.array([0, 1, 2, 3], pa.int64()),
        "v": pa.array([10, 20, 7, 4], pa.int64()),
    })
    got = grouped_range_sum(ray.data.from_arrow(tbl), key="k",
                            ts_col="ts", value_col="v", range_delta_us=0,
                            order_tie_cols=["uid"],
                            n_parts=2).to_pandas()
    got = got.sort_values("uid")
    assert got["range_sum"].tolist() == [30, 30, 7, 4]
    assert got["n_range"].tolist() == [2, 2, 1, 1]


@pytest.mark.parametrize("blocks", [1, 5])
def test_grouped_string_agg_matches_pandas(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.window import grouped_string_agg

    rng = np.random.default_rng(11)
    n = 300
    tbl = pa.table({
        "k": rng.integers(0, 12, n).astype("int64"),
        "name": pa.array([f"item-{i:03d}" for i in
                          rng.integers(0, 900, n)]),
    })
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = grouped_string_agg(ds, key="k", value_col="name", sep="|",
                             order_cols=["name"], n_parts=4).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)

    want = (tbl.to_pandas().sort_values(["k", "name"])
            .groupby("k")["name"]
            .agg(lambda s: "|".join(s)).reset_index())
    assert got["k"].tolist() == want["k"].tolist()
    assert got["agg"].tolist() == want["name"].tolist()
    n_items = tbl.to_pandas().groupby("k").size()
    assert got["n_items"].tolist() == n_items.tolist()


def test_grouped_string_agg_empty_and_single(ray_session):
    import ray.data

    from mdvalidate_ray.functions.window import grouped_string_agg

    tbl = pa.table({"k": pa.array([7], pa.int64()),
                    "name": pa.array(["only"])})
    got = grouped_string_agg(ray.data.from_arrow(tbl), key="k",
                             value_col="name", n_parts=2).to_pandas()
    assert got["agg"].tolist() == ["only"]
    assert got["n_items"].tolist() == [1]


def test_global_percent_rank_cross_block_peers(ray_session):
    """Peer runs spanning several sorted blocks still get SQL rank /
    percent_rank / cume_dist (driver resolves boundary runs from block
    metadata): verified against duckdb on a 3-distinct-value column
    spread over 13 blocks, plus the constant-column and single-row
    edges."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.window import global_percent_rank

    rng = np.random.default_rng(11)
    vals = rng.choice([5, 7, 9], size=500).astype(np.int64)
    ids = np.arange(500, dtype=np.int64)
    t = pa.table({"doc_id": ids, "v": vals})
    got = global_percent_rank(
        ray.data.from_arrow(t).repartition(13),
        value_col="v").to_pandas().sort_values("doc_id")

    want = duckdb.sql("""
        SELECT doc_id, rank() OVER (ORDER BY v) AS rnk,
               percent_rank() OVER (ORDER BY v) AS pct_rank,
               cume_dist() OVER (ORDER BY v) AS cume
        FROM t ORDER BY doc_id""").df()
    assert (got["rnk"].to_numpy() == want["rnk"].to_numpy()).all()
    assert np.array_equal(got["pct_rank"].to_numpy(),
                          want["pct_rank"].to_numpy())
    assert np.array_equal(got["cume"].to_numpy(), want["cume"].to_numpy())

    const = pa.table({"doc_id": ids[:40], "v": np.full(40, 3, np.int64)})
    g2 = global_percent_rank(ray.data.from_arrow(const).repartition(5),
                             value_col="v").to_pandas()
    assert (g2["rnk"] == 1).all() and (g2["pct_rank"] == 0.0).all()
    assert (g2["cume"] == 1.0).all()

    one = pa.table({"doc_id": ids[:1], "v": vals[:1]})
    g3 = global_percent_rank(ray.data.from_arrow(one),
                             value_col="v").to_pandas()
    assert g3.iloc[0]["pct_rank"] == 0.0 and g3.iloc[0]["cume"] == 1.0


def test_grouped_percent_rank_matches_duckdb(ray_session):
    """Two-phase broadcast-mapping percent_rank equals DuckDB's window
    on tied, multi-block data; singleton groups get pct 0."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.window import grouped_percent_rank

    rng = np.random.default_rng(31)
    n = 400
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array(rng.choice(["en", "fr", "de"], n).tolist()
                         + []),
        "n_chars": pa.array(rng.integers(0, 25, n).astype(np.int64))})
    # singleton group
    t = pa.concat_tables([t, pa.table({
        "doc_id": pa.array([n], pa.int64()),
        "lang": pa.array(["zz"]),
        "n_chars": pa.array([7], pa.int64())})])
    got = grouped_percent_rank(
        ray.data.from_arrow(t).repartition(6), group_col="lang",
        value_col="n_chars").to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    want = duckdb.sql("""
        SELECT doc_id,
               rank() OVER (PARTITION BY lang ORDER BY n_chars) AS rnk,
               percent_rank() OVER (PARTITION BY lang
                                    ORDER BY n_chars) AS pct_rank
        FROM t ORDER BY doc_id""").df()
    assert (got["rnk"].to_numpy() == want["rnk"].to_numpy()).all()
    assert np.array_equal(got["pct_rank"].to_numpy(),
                          want["pct_rank"].to_numpy())
    assert got.iloc[-1]["pct_rank"] == 0.0   # singleton group


# --- weighted_quantile (counts-based exact quantiles) ------------------------

def test_weighted_quantile_matches_numpy_both_methods():
    import numpy as np

    from mdvalidate_ray.functions.window import weighted_quantile

    rng = np.random.RandomState(3)
    for _ in range(25):
        vals = np.unique(rng.randint(0, 40, size=rng.randint(1, 12)))
        cnts = rng.randint(1, 9, size=len(vals))
        expanded = np.repeat(vals.astype(np.float64), cnts)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        lin = weighted_quantile(vals.astype(np.float64), cnts, qs)
        assert np.allclose(lin, np.quantile(expanded, qs)), (vals, cnts)
        disc = weighted_quantile(vals.astype(np.float64), cnts, qs,
                                 method="disc")
        want = np.quantile(expanded, qs, method="inverted_cdf")
        assert np.allclose(disc, want), (vals, cnts, disc, want)


@pytest.mark.parametrize("blocks", [1, 7])
def test_global_ordered_prefix_sum_matches_numpy(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.window import global_ordered_prefix_sum

    rng = np.random.default_rng(31)
    # non-dense, unsorted unique keys over a wide span (range buckets
    # must still align with the total order)
    keys = rng.permutation(rng.choice(100_000, size=400, replace=False))
    vals = rng.integers(0, 97, 400).astype("int64")
    tbl = pa.table({"k": keys.astype("int64"), "v": vals})
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = global_ordered_prefix_sum(ds, key="k", value_col="v",
                                    n_parts=8).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)

    order = np.argsort(keys)
    want_off = np.concatenate(([0], np.cumsum(vals[order])[:-1]))
    assert (got["k"].to_numpy() == keys[order]).all()
    assert (got["v"].to_numpy() == vals[order]).all()
    assert (got["start_off"].to_numpy() == want_off).all()


@pytest.mark.parametrize("blocks", [1, 5])
def test_corpus_segment_dedup_matches_bruteforce(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.dedup import corpus_segment_dedup

    rng = np.random.default_rng(7)
    vocab = ["a", "b", "c", "d"]
    docs = []
    for i in range(60):
        n = int(rng.integers(1, 35))
        docs.append(" ".join(rng.choice(vocab, n)))
    docs[10] = docs[3]                   # whole-doc duplicate
    docs[20] = docs[5] + " " + docs[6]   # composed of earlier docs' text
    tbl = pa.table({"doc_id": pa.array(range(60), pa.int64()),
                    "text": pa.array(docs)})

    # brute force: first corpus occurrence of each 4-word segment wins
    SW = 4
    seen, want = {}, {}
    for d, text in enumerate(docs):
        w = text.split(" ")
        for si in range(0, (len(w) + SW - 1) // SW):
            seg = " ".join(w[si * SW:(si + 1) * SW])
            if seg not in seen:
                seen[seg] = (d, si)
    for seg, (d, si) in seen.items():
        want.setdefault(d, []).append((si, seg))
    want_rows = {d: " ".join(s for _, s in sorted(v))
                 for d, v in want.items()}

    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = corpus_segment_dedup(ds, key="doc_id", column="text",
                               seg_words=SW, n_parts=6).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert dict(zip(got["doc_id"], got["clean_text"])) == want_rows
    assert dict(zip(got["doc_id"], got["n_kept"])) == \
        {d: len(v) for d, v in want.items()}


@pytest.mark.parametrize("blocks", [1, 7])
def test_global_ordered_prefix_max_matches_numpy(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.window import global_ordered_prefix_max

    rng = np.random.default_rng(47)
    keys = rng.permutation(rng.choice(80_000, size=350, replace=False))
    vals = rng.integers(0, 10_000, 350).astype("int64")
    tbl = pa.table({"k": keys.astype("int64"), "v": vals})
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = global_ordered_prefix_max(ds, key="k", value_col="v",
                                    n_parts=8).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)

    order = np.argsort(keys)
    sv = vals[order]
    run = np.maximum.accumulate(sv)
    want = np.concatenate(([-1], run[:-1]))  # -1 marks "null" slot
    assert (got["k"].to_numpy() == keys[order]).all()
    # global first row has NULL watermark, everything else the running max
    assert np.isnan(got["prev_max"].to_numpy(dtype="float64")[0])
    assert (got["prev_max"].to_numpy(dtype="float64")[1:]
            == want[1:].astype("float64")).all()


@pytest.mark.parametrize("blocks", [1, 5])
def test_cdc_segment_dedup_matches_bruteforce(ray_session, blocks):
    import hashlib

    import ray.data

    from mdvalidate_ray.functions.dedup import corpus_segment_dedup

    def md5l(w):
        return int.from_bytes(hashlib.md5(w.encode()).digest()[8:16],
                              "little")

    GM = 4
    rng = np.random.default_rng(3)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    docs = [" ".join(rng.choice(vocab, int(rng.integers(1, 30))))
            for _ in range(50)]
    docs[9] = docs[2]                       # whole-doc duplicate
    # CDC resynchronization probe: doc 20 = doc 4 with ONE word
    # prepended — every gear-aligned segment after the first boundary
    # must still dedup against doc 4's segments
    docs[20] = "zz " + docs[4]

    def brute_segments(text):
        ws = text.split(" ")
        segs, cur = [], []
        for w in ws:
            cur.append(w)
            if md5l(w) % GM == 0:
                segs.append(" ".join(cur)); cur = []
        if cur:
            segs.append(" ".join(cur))
        return segs

    seen, want = {}, {}
    for d, text in enumerate(docs):
        for si, seg in enumerate(brute_segments(text)):
            if seg not in seen:
                seen[seg] = (d, si)
    for seg, (d, si) in seen.items():
        want.setdefault(d, []).append((si, seg))
    want_rows = {d: " ".join(s for _, s in sorted(v))
                 for d, v in want.items()}

    tbl = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                    "text": pa.array(docs, pa.string())})
    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = corpus_segment_dedup(ds, key="doc_id", column="text",
                               gear_mod=GM, n_parts=6).to_pandas()
    assert dict(zip(got["doc_id"], got["clean_text"])) == want_rows
    # resynchronization: doc 20 keeps its novel prefix segment but
    # loses every segment shared with doc 4 beyond it
    if 4 in want_rows and 20 in want_rows:
        shared = set(brute_segments(docs[4])) & set(
            brute_segments(docs[20]))
        for seg in shared:
            assert seg not in got.set_index("doc_id").loc[
                20, "clean_text"].split("  ")  # sanity via brute map


def test_pack_nextfit_invariants(ray_session):
    """Greedy next-fit shard packing: every doc assigned exactly once,
    multi-doc bins never exceed seq_len, oversized docs sit alone,
    bins are contiguous in key order and never cross buckets, and the
    assignment is invariant to input partitioning."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.window import pack_nextfit

    rng = np.random.default_rng(7)
    n = 5_000
    keys = np.arange(n, dtype=np.int64)
    toks = rng.integers(1, 120, n).astype(np.int64)   # some > seq_len
    seq_len = 100
    t = pa.table({"k": keys, "n": toks})

    outs = []
    for parts in (2, 17):
        ds = ray.data.from_arrow(t).repartition(parts)
        out = pack_nextfit(ds, key="k", value_col="n",
                           seq_len=seq_len, n_parts=8)
        df = out.to_pandas().sort_values("k").reset_index(drop=True)
        outs.append(df)
    pd.testing.assert_frame_equal(outs[0], outs[1])   # partition-invariant

    df = outs[0]
    assert len(df) == n and df["k"].is_unique
    g = df.groupby(["bucket", "bin"]).agg(
        fill=("n", "sum"), cnt=("n", "size"),
        kmin=("k", "min"), kmax=("k", "max"))
    # capacity: over-full bins must be solo oversized docs
    over = g[g["fill"] > seq_len]
    assert (over["cnt"] == 1).all()
    # bins are contiguous runs in key order within each bucket
    for bucket, sub in df.groupby("bucket"):
        sub = sub.sort_values("k")
        b = sub["bin"].to_numpy()
        assert (np.diff(b) >= 0).all() and b[0] == 0
        # next-fit greediness: a bin closes only because the NEXT doc
        # would overflow (or it holds an oversized doc)
        fills = sub.groupby("bin")["n"].sum().to_numpy()
        firsts = sub.groupby("bin")["n"].first().to_numpy()
        for i in range(len(fills) - 1):
            assert fills[i] + firsts[i + 1] > seq_len or fills[i] > seq_len


def test_deterministic_shuffle_is_stable_permutation(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.text import deterministic_shuffle

    ids = np.arange(1000, dtype=np.int64)
    t = pa.table({"doc_id": ids})
    orders = []
    for parts in (1, 13):
        ds = ray.data.from_arrow(t).repartition(parts)
        out = deterministic_shuffle(ds, key="doc_id", salt="s1")
        df = out.to_pandas()
        # internal sort key must not leak into the returned order
        assert list(df.columns) == ["doc_id"]
        orders.append(df["doc_id"].tolist())
    assert orders[0] == orders[1]                      # reproducible
    assert sorted(orders[0]) == ids.tolist()           # a permutation
    assert orders[0] != ids.tolist()                   # actually shuffled
    other = deterministic_shuffle(
        ray.data.from_arrow(t), key="doc_id", salt="s2") \
        .to_pandas()["doc_id"].tolist()
    assert other != orders[0]                          # new salt, new epoch


# Keys 2^53 and 2^53+1 in one bucket that also holds a null: a kernel
# that reads keys through float64 sees them as one group.
_BIG = 2**53
_NULL_BIG = {"k": [_BIG, _BIG + 1, None, _BIG + 1], "t": [1, 2, 3, 1],
             "v": [10, 7, 1, 100]}


def _rows_by_key_t(rows, *cols):
    return sorted(((r["k"] is None, r["k"] or 0, r["t"])
                   + tuple(r[c] for c in cols)) for r in rows)


def _null_big_top_n(ds):
    got = top_n_per_group(ds, group_key="k", order_col="t", n=1,
                          descending=False, n_parts=1).take_all()
    return _rows_by_key_t(got, "rk"), [
        (False, _BIG, 1, 1), (False, _BIG + 1, 1, 1), (True, 0, 3, 1)]


def _null_big_moving_sum(ds):
    got = grouped_moving_sum(ds, key="k", order_cols=["t"], value_col="v",
                             window_rows=2, n_parts=1).take_all()
    return _rows_by_key_t(got, "mov_sum", "n_win"), [
        (False, _BIG, 1, 10, 1), (False, _BIG + 1, 1, 100, 1),
        (False, _BIG + 1, 2, 107, 2), (True, 0, 3, 1, 1)]


def _null_big_running_sum(ds):
    from mdvalidate_ray.functions.window import grouped_running_sum

    got = grouped_running_sum(ds, key="k", order_cols=["t"], value_col="v",
                              n_parts=1).take_all()
    return _rows_by_key_t(got, "run_sum", "rn"), [
        (False, _BIG, 1, 10, 1), (False, _BIG + 1, 1, 100, 1),
        (False, _BIG + 1, 2, 107, 2), (True, 0, 3, 1, 1)]


def _null_big_lag_delta(ds):
    from mdvalidate_ray.functions.window import grouped_lag_delta

    got = grouped_lag_delta(ds, key="k", order_cols=["t"], value_col="v",
                            n_parts=1).take_all()
    return _rows_by_key_t(got, "delta"), [
        (False, _BIG, 1, None), (False, _BIG + 1, 1, None),
        (False, _BIG + 1, 2, -93), (True, 0, 3, None)]


def _null_big_range_sum(ds):
    from mdvalidate_ray.functions.window import grouped_range_sum

    got = grouped_range_sum(ds, key="k", ts_col="t", value_col="v",
                            range_delta_us=10, n_parts=1).take_all()
    return _rows_by_key_t(got, "range_sum", "n_range"), [
        (False, _BIG, 1, 10, 1), (False, _BIG + 1, 1, 100, 1),
        (False, _BIG + 1, 2, 107, 2), (True, 0, 3, 1, 1)]


def _null_big_string_agg(ds):
    from mdvalidate_ray.functions.window import grouped_string_agg

    got = grouped_string_agg(ds, key="k", value_col="v", order_cols=["t"],
                             n_parts=1).take_all()
    return sorted((r["k"] is None, r["k"] or 0, r["agg"], r["n_items"])
                  for r in got), [
        (False, _BIG, "10", 1), (False, _BIG + 1, "100,7", 2),
        (True, 0, "1", 1)]


@pytest.mark.parametrize("case", [
    _null_big_top_n, _null_big_moving_sum, _null_big_running_sum,
    _null_big_lag_delta, _null_big_range_sum, _null_big_string_agg],
    ids=["top_n_per_group", "grouped_moving_sum", "grouped_running_sum",
         "grouped_lag_delta", "grouped_range_sum", "grouped_string_agg"])
def test_window_kernels_keep_keys_past_2_53_apart(ray_session, case):
    """Group boundaries inside a bucket are exact: 2^53 and 2^53+1 in a
    bucket that also holds a null stay two groups, and null is a third."""
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(_NULL_BIG["k"], pa.int64()),
        "t": pa.array(_NULL_BIG["t"], pa.int64()),
        "v": pa.array(_NULL_BIG["v"], pa.int64())}))
    got, want = case(ds)
    assert got == want
