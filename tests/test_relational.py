"""Relational operators: broadcast join, as-of join, exact quantiles, IO
gating."""

import numpy as np
import pyarrow as pa
import pytest


def test_broadcast_join_inner(ray_session):
    import ray.data

    from mdvalidate_ray.functions.relational import broadcast_join

    big = ray.data.from_arrow(pa.table({"k": [1, 2, 3, 4, 2], "v": list(range(5))}))
    small = pa.table({"k": [2, 3], "name": ["two", "three"]})
    out = broadcast_join(big, small, "k").take_all()
    assert sorted((r["k"], r["name"]) for r in out) == \
        [(2, "two"), (2, "two"), (3, "three")]


def test_asof_join_semantics(ray_session):
    import ray.data

    from mdvalidate_ray.functions.relational import asof_join_broadcast

    left = ray.data.from_arrow(pa.table({
        "id": [1, 2, 3, 4],
        "k": [10, 10, 10, 99],
        "t": [5, 2, 0, 7],
    }))
    right = pa.table({
        "k": [10, 10, 10],
        "rt": [1, 3, 3],          # two rows tie at rt=3
        "ord": [100, 101, 102],   # tie-break: greatest ord wins
        "val": ["a", "b", "c"],
    })
    out = asof_join_broadcast(left, right, key="k", left_key="k",
                              left_time="t", right_time="rt",
                              tiebreak="ord", value_cols=["ord", "val"])
    rows = {r["id"]: (r["ord"], r["val"]) for r in out.take_all()}
    assert rows[1] == (102, "c")     # t=5 → rt=3, tie → ord 102
    assert rows[2] == (100, "a")     # t=2 → rt=1
    assert 3 not in rows             # t=0 → no rt <= 0 → dropped
    assert 4 not in rows             # key 99 absent → dropped


def test_asof_join_partitioned_matches_broadcast(ray_session, force_tier):
    """The co-partitioned tier (right side too big to broadcast) must give
    identical results to the broadcast tier on the same randomized input —
    exercised through the tier-picking front-end with a zero tier budget
    so the partitioned path is the one that runs."""
    import ray.data

    from mdvalidate_ray.functions.relational import (
        asof_join,
        asof_join_broadcast,
    )

    rng = np.random.default_rng(7)
    n_left, n_right = 500, 300
    left_tbl = pa.table({
        "id": np.arange(n_left),
        "k": rng.integers(0, 40, n_left),
        "t": rng.integers(0, 1000, n_left),
    })
    right_tbl = pa.table({
        "k": rng.integers(0, 40, n_right),
        "rt": rng.integers(0, 1000, n_right),
        "ord": np.arange(n_right),
        "val": rng.normal(size=n_right),
    })
    left = ray.data.from_arrow(left_tbl).repartition(8)
    right = ray.data.from_arrow(right_tbl).repartition(4)

    with force_tier("partitioned"):
        part = asof_join(left, right, key="k", left_key="k", left_time="t",
                         right_time="rt", tiebreak="ord",
                         value_cols=["ord", "val"], n_parts=8)
    bc = asof_join_broadcast(left, right_tbl, key="k", left_key="k",
                             left_time="t", right_time="rt",
                             tiebreak="ord", value_cols=["ord", "val"])
    got = sorted((r["id"], r["ord"]) for r in part.take_all())
    want = sorted((r["id"], r["ord"]) for r in bc.take_all())
    assert got == want and len(got) > 100


def test_topk_table_matches_full_sort(ray_session):
    import ray.data

    from mdvalidate_ray.functions.relational import topk_table

    rng = np.random.default_rng(11)
    vals = rng.normal(size=5000)
    ids = np.arange(5000)
    ds = ray.data.from_arrow(pa.table({"id": ids, "v": vals})).repartition(16)
    got = topk_table(ds, 25, [("v", "descending"), ("id", "ascending")])
    order = np.lexsort((ids, -vals))[:25]
    assert got.column("id").to_pylist() == [int(i) for i in ids[order]]


def test_semi_join_keys_bloom_tier_matches_broadcast(ray_session,
                                                     force_tier):
    """Force the Bloom + co-partitioned verify tier (zero budget) and
    check it keeps exactly the same rows as the broadcast tier."""
    import ray.data

    from mdvalidate_ray.functions.relational import semi_join_keys

    rng = np.random.default_rng(5)
    left = pa.table({"k": rng.integers(0, 500, 2000),
                     "payload": rng.normal(size=2000)})
    keys = pa.table({"rk": np.arange(0, 500, 3)})   # every 3rd key present
    lds = ray.data.from_arrow(left).repartition(8)
    kds = ray.data.from_arrow(keys).repartition(2)

    with force_tier("partitioned"):
        bloom = semi_join_keys(lds, kds, left_key="k", right_key="rk",
                               n_buckets=16)
    bcast = semi_join_keys(lds, kds, left_key="k", right_key="rk")
    got = sorted((r["k"], round(r["payload"], 9)) for r in bloom.take_all())
    want = sorted((r["k"], round(r["payload"], 9)) for r in bcast.take_all())
    assert got == want and len(got) > 100
    assert all(k % 3 == 0 for k, _ in got)

    # a null key matches nothing on either tier, null in the key set or not
    lds = ray.data.from_arrow(pa.table({"k": pa.array([1, None, 3],
                                                      pa.int64())}))
    kds = ray.data.from_arrow(pa.table({"rk": pa.array([1, None],
                                                       pa.int64())}))
    with force_tier("partitioned"):
        bloom = semi_join_keys(lds, kds, left_key="k", right_key="rk",
                               n_buckets=16).take_all()
    bcast = semi_join_keys(lds, kds, left_key="k", right_key="rk").take_all()
    assert [r["k"] for r in bloom] == [r["k"] for r in bcast] == [1]


def _plan_spy(monkeypatch) -> list:
    """The logical plan of every driver-side Dataset execution from here
    on, as its ``dag_str``."""
    from ray.data._internal.plan import ExecutionPlan

    plans = []
    for name in ("execute", "execute_to_iterator"):
        def spy(self, *a, _orig=getattr(ExecutionPlan, name), **kw):
            plans.append(self._logical_plan.dag.dag_str)
            return _orig(self, *a, **kw)
        monkeypatch.setattr(ExecutionPlan, name, spy)
    return plans


def test_semi_join_bloom_tier_runs_probe_once(ray_session, force_tier,
                                              monkeypatch):
    """The Bloom tier's co-partition takes the left schema from the
    input, not from the maybe-hit-filtered stream: asking that stream
    would run the probe pipeline a second time under a ``limit(1)``, all
    of it when no row maybe-hits."""
    import ray.data

    from mdvalidate_ray.functions.relational import semi_join_keys

    plans = _plan_spy(monkeypatch)
    lds = ray.data.from_arrow(pa.table({"k": np.arange(1000, 1100),
                                        "payload": np.ones(100)}))
    kds = ray.data.from_arrow(pa.table({"rk": np.arange(50)}))
    with force_tier("partitioned"):
        out = semi_join_keys(lds, kds, left_key="k", right_key="rk",
                             n_buckets=4).take_all()
    assert out == []
    probe_runs = [p for p in plans if "MapBatches(probe)" in p]
    assert len(probe_runs) == 1, probe_runs


def test_exchange_tiers_run_their_wide_side_once(ray_session, force_tier,
                                                 monkeypatch, tmp_path):
    """A co-partition whose left side is a lazy exchange gets that side's
    schema passed in, so the exchange never runs again under a
    ``limit(1)``.  Past the budget ``triangle_counts`` runs its wedge
    exchange (the only consumer of ``MapBatches(orient)``) in 1 plan and
    ``window_dup_stats`` its filtered ``dup_tbl`` group-sum (the only
    ``Filter``) in 2 — the streamed tier fold and the exchange tier —
    the same counts as when both tiers were hand-tagged unions.
    ``q22_idle_customers`` runs its rich-customer filter in 1 plan and
    ``verify_pairs_jaccard`` its candidate-text filter in 1 (it
    materializes that filter once and tiers on its bytes); without a
    passed schema the q22 side ran a second time under a ``limit(1)``."""
    import datetime

    import pyarrow.parquet as pq
    import ray.data

    from mdvalidate_ray.functions.dedup import (verify_pairs_jaccard,
                                                window_dup_stats)
    from mdvalidate_ray.functions.graph import triangle_counts

    rng = np.random.default_rng(23)
    edges = ray.data.from_arrow(pa.table({
        "u": rng.integers(0, 60, 900), "v": rng.integers(0, 60, 900)}))
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": ["a b c d e f g", "x a b c d e f y", "p q r s t",
                 "m m m m m"]}))

    plans = _plan_spy(monkeypatch)
    with force_tier("partitioned"):
        assert triangle_counts(edges, col_a="u", col_b="v",
                               n_parts=5).count() > 0
    assert len([p for p in plans if "MapBatches(orient)" in p]) == 1, plans

    plans.clear()
    with force_tier("partitioned"):
        assert window_dup_stats(docs, k=3, n_parts=4).count() == 4
    assert len([p for p in plans if "Filter[Filter(" in p]) == 2, plans

    plans.clear()
    pairs = ray.data.from_items([{"doc_a": "0", "doc_b": "1"},
                                 {"doc_a": "2", "doc_b": "3"}])
    with force_tier("partitioned"):
        assert verify_pairs_jaccard(pairs, docs, k=2,
                                    threshold=0.0).num_rows == 2
    assert len([p for p in plans if "MapBatches(keep)" in p]) == 1, plans

    from mdvalidate_ray.queries import q22_idle_customers

    # 40 customers over the 7 codes, the even ones with a recent order
    pq.write_table(pa.table({
        "c_custkey": pa.array(range(40), pa.int64()),
        "c_nationkey": pa.array([1 + 2 * (i % 7) for i in range(40)],
                                pa.int32()),
        "c_acctbal": [float(i * 37 % 101) for i in range(40)]}),
        tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array(range(0, 40, 2), pa.int64()),
        "o_orderdate": pa.array([datetime.datetime(2001, 1, 1)] * 20,
                                pa.timestamp("us"))}),
        tmp_path / "orders.parquet")
    plans.clear()
    with force_tier("partitioned"):
        assert q22_idle_customers(str(tmp_path), n_parts=5).count() > 0
    assert len([p for p in plans if "MapBatches(rich)" in p]) == 1, plans


def test_exact_quantiles_match_numpy(ray_session):
    import ray.data

    from mdvalidate_ray.functions.relational import exact_quantiles

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 1000, 20_000)
    ds = ray.data.from_arrow(pa.table({"x": vals}))
    got = exact_quantiles(ds, "x", [0.25, 0.5, 0.9])
    s = np.sort(vals)
    for q, g in zip([0.25, 0.5, 0.9], got):
        # quantile_disc: value at 1-indexed position ceil(q*n)
        assert g == int(s[int(np.ceil(q * len(s))) - 1])


def test_io_lance_gated(tmp_path, ray_session):
    import pyarrow.parquet as pq

    from mdvalidate_ray.sources.io import have_lance, read_documents

    p = tmp_path / "t.parquet"
    pq.write_table(pa.table({"a": [1, 2]}), p)
    assert read_documents(str(p)).count() == 2
    if not have_lance():
        with pytest.raises(ImportError):
            read_documents("/nonexistent/data.lance")


def test_io_read_lance_path_executes_via_stub(tmp_path, ray_session,
                                              monkeypatch):
    """Execute the prod-named read path (read_documents('….lance') ->
    ray.data.read_lance -> LanceDatasource fragment scan) end to end
    with the API-compatible stub injected as the lance module: multiple
    fragments become parallel read tasks, column projection flows
    through scanner options, and the dataset handle round-trips through
    worker pickling.  The Lance FORMAT itself is out of scope (see
    sources/lance_stub.py docstring)."""
    import sys

    from mdvalidate_ray.sources import lance_stub
    from mdvalidate_ray.sources.io import read_documents

    monkeypatch.setitem(sys.modules, "lance", lance_stub)

    uri = str(tmp_path / "docs.lance")
    table = pa.table({
        "doc_id": [f"d{i}" for i in range(1000)],
        "n": np.arange(1000, dtype=np.int64),
        "payload": ["x" * 10] * 1000,
    })
    lance_stub.write_dataset(table, uri, max_rows_per_file=250)

    ds = read_documents(uri, columns=["doc_id", "n"])
    got = ds.to_pandas().sort_values("n").reset_index(drop=True)
    # projection applied to the actual blocks (the declared read-task
    # schema is unprojected — a known TODO in Ray's LanceDatasource)
    assert set(got.columns) == {"doc_id", "n"}
    assert len(got) == 1000
    assert got["doc_id"].tolist() == [f"d{i}" for i in range(1000)]
    assert int(got["n"].sum()) == 499500


def test_sliding_window_counts(ray_session):
    import datetime

    import ray.data

    from mdvalidate_ray.functions.relational import sliding_window_counts

    base = datetime.datetime(2024, 1, 1)
    rows = []
    for minute in (0, 30, 70, 130):   # events at :00, :30, 1:10, 2:10
        rows.append({"t": base + datetime.timedelta(minutes=minute),
                     "g": "a"})
    tbl = pa.Table.from_pylist(rows).set_column(
        0, "t", pa.array([r["t"] for r in rows], pa.timestamp("us")))
    out = sliding_window_counts(
        ray.data.from_arrow(tbl), time_col="t", group_col="g",
        window_seconds=7200, step_seconds=3600)
    got = {(r["window_start_us"], r["cnt"]) for r in out.take_all()}
    us = lambda h: int((base + datetime.timedelta(hours=h)
                        - datetime.datetime(1970, 1, 1)).total_seconds() * 1e6)
    # window [-1h,1h): events 0,30 → but start -1h covers [..,1h): 2 events
    # window [0,2h): 0,30,70 → 3; window [1h,3h): 70,130 → 2;
    # window [2h,4h): 130 → 1
    assert got == {(us(-1), 2), (us(0), 3), (us(1), 2), (us(2), 1)}


def test_write_bucketed_colocates_keys(ray_session, tmp_path):
    import glob

    import pyarrow.parquet as pq
    import ray.data

    from mdvalidate_ray.functions.relational import write_bucketed

    tbl = pa.table({"k": [f"key{i % 7}" for i in range(1000)],
                    "v": list(range(1000))})
    out = str(tmp_path / "bucketed")
    write_bucketed(ray.data.from_arrow(tbl).repartition(4), out,
                   key="k", n_buckets=4)
    seen: dict[str, set] = {}
    for f in glob.glob(f"{out}/**/*.parquet", recursive=True):
        bucket = [p for p in f.split("/") if p.startswith("bucket=")][0]
        for kk in pq.read_table(f, columns=["k"]).column("k").to_pylist():
            seen.setdefault(kk, set()).add(bucket)
    # every key lives in exactly one bucket directory
    assert all(len(b) == 1 for b in seen.values()), seen
    total = sum(pq.ParquetFile(f).metadata.num_rows
                for f in glob.glob(f"{out}/**/*.parquet", recursive=True))
    assert total == 1000


def _pack_reference(rows, capacity):
    """Row-at-a-time first-fit-in-order — the recursive-SQL semantics."""
    out = {}
    by_key = {}
    for k, _o, t in sorted(rows):
        by_key.setdefault(k, []).append(t)
    for k, toks in by_key.items():
        bin_id, fill = 0, None
        for t in toks:
            if fill is None or fill + t > capacity:
                bin_id += 1
                fill = t
                out[(k, bin_id)] = [1, t]
            else:
                fill += t
                out[(k, bin_id)][0] += 1
                out[(k, bin_id)][1] += t
    return {k: tuple(v) for k, v in out.items()}


def test_pack_sequences_matches_sequential_reference(ray_session):
    import ray.data

    from mdvalidate_ray.functions.relational import pack_sequences

    rng = np.random.default_rng(7)
    rows = [(f"s{i % 5}", i, int(t))
            for i, t in enumerate(rng.integers(1, 90, size=400))]
    # plant an oversized row (> capacity) mid-stream
    rows[123] = (rows[123][0], rows[123][1], 5000)
    ds = ray.data.from_arrow(pa.table({
        "src": [r[0] for r in rows],
        "ord": [r[1] for r in rows],
        "n_tok": [r[2] for r in rows]}))
    got = pack_sequences(ds, key="src", order_col="ord",
                         tokens_col="n_tok", capacity=128,
                         n_parts=3).to_pandas()
    want = _pack_reference(rows, 128)
    got_map = {(r.src, r.bin_id): (r.n_docs, r.bin_tokens)
               for r in got.itertuples()}
    assert got_map == want
    # invariants: every bin <= capacity unless it is a lone oversized doc
    for (_, _), (nd, bt) in got_map.items():
        assert bt <= 128 or nd == 1


def test_group_count_distinct_exact(ray_session):
    import pandas as pd
    import ray.data

    from mdvalidate_ray.functions.relational import group_count_distinct

    rng = np.random.default_rng(11)
    g = rng.integers(0, 7, size=2000)
    v = rng.integers(0, 40, size=2000)
    # one hot group with many repeated values (the skew case)
    g[:800] = 3
    ds = ray.data.from_arrow(pa.table({
        "grp": [f"g{x}" for x in g], "val": [int(x) for x in v]}))
    got = group_count_distinct(ds, group_col="grp", distinct_col="val",
                               n_parts=5, out_name="nd").to_pandas()
    want = (pd.DataFrame({"grp": [f"g{x}" for x in g], "val": v})
            .groupby("grp")["val"].nunique().rename("nd").reset_index())
    got = got.sort_values("grp").reset_index(drop=True)
    want = want.sort_values("grp").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _join_rows(tables) -> list:
    rows = [r for t in tables for r in t.to_pylist()]
    return sorted(rows, key=lambda r: repr(sorted(r.items())))


@pytest.mark.parametrize("tier", ["default", "partitioned"])
@pytest.mark.parametrize("join_type", ["inner", "left_outer",
                                       "right_outer", "full_outer"])
def test_hash_join_matches_broadcast(ray_session, force_tier, join_type,
                                     tier):
    """``hash_join`` returns what ``pa.Table.join`` returns on the whole
    inputs, for every join type on both tiers: null keys on both sides
    (never matched), keys on one side only, int64 keys 2^53 and 2^53+1
    in a block with a null, many-to-many keys, and an entirely empty
    right side, then left side."""
    import contextlib

    import ray
    import ray.data

    from mdvalidate_ray.functions.relational import hash_join

    big = 2**53
    left = [pa.table({"k": pa.array([1, 2, None, big, 7, big + 1],
                                    pa.int64()),
                      "v": pa.array(range(6), pa.int64())}),
            pa.table({"k": pa.array([3, big + 1, None, 2], pa.int64()),
                      "v": pa.array(range(6, 10), pa.int64())})]
    right = [pa.table({"k2": pa.array([1, 2, None, big + 1], pa.int64()),
                       "name": ["a", "b", "null", "big1"]}),
             pa.table({"k2": pa.array([9, 2, None, 11], pa.int64()),
                       "name": ["nine", "b2", "null2", "eleven"]})]
    empty_l = [left[0].schema.empty_table()]
    empty_r = [right[0].schema.empty_table()]
    forced = (force_tier(None, budget=0) if tier == "partitioned"
              else contextlib.nullcontext([]))
    with forced as seen:
        for lt, rt in [(left, right), (left, empty_r), (empty_l, right)]:
            got = hash_join(ray.data.from_arrow(lt),
                            ray.data.from_arrow(rt), on="k",
                            right_on="k2", n_parts=4,
                            join_type=join_type)
            want = pa.concat_tables(lt).join(
                pa.concat_tables(rt), keys="k", right_keys="k2",
                join_type=join_type.replace("_", " "))
            assert _join_rows(ray.get(got.to_arrow_refs())) == \
                _join_rows([want]), (len(lt[0]), len(rt[0]))
    assert tier != "partitioned" or "partitioned" in seen


def test_latest_per_key_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from mdvalidate_ray.functions.relational import latest_per_key

    rng = np.random.default_rng(11)
    n = 2000
    tbl = pa.table({
        "k": [int(x) for x in rng.integers(0, 137, n)],
        "ver": [int(x) for x in rng.integers(0, 50, n)],
        "tie": list(range(n)),
        "payload": [f"p{i}" for i in range(n)],
    })
    got = latest_per_key(ray.data.from_arrow(tbl).repartition(7),
                         key="k", order_cols=["ver", "tie"],
                         n_parts=5).to_pandas()
    df = tbl.to_pandas()
    want = df.sort_values(["k", "ver", "tie"],
                          ascending=[True, False, False]) \
             .groupby("k", as_index=False).head(1)
    got = got.sort_values("k").reset_index(drop=True)[
        ["k", "ver", "tie", "payload"]]
    want = want.sort_values("k").reset_index(drop=True)[
        ["k", "ver", "tie", "payload"]]
    pd.testing.assert_frame_equal(got, want)


def test_latest_per_key_string_keys(ray_session):
    import pandas as pd
    import ray.data

    from mdvalidate_ray.functions.relational import latest_per_key

    tbl = pa.table({"k": ["a", "b", "a", "c", "b"],
                    "v": [1, 5, 9, 2, 3]})
    got = latest_per_key(ray.data.from_arrow(tbl), key="k",
                         order_cols=["v"], n_parts=3).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    want = pd.DataFrame({"k": ["a", "b", "c"], "v": [9, 5, 2]})
    pd.testing.assert_frame_equal(got, want)


def test_shuffle_shards_dense_positions_and_stability(ray_session):
    import pyarrow as pa
    import ray

    from mdvalidate_ray.functions.relational import shuffle_shards

    tbl = pa.table({"doc_id": pa.array(range(400), pa.int64())})
    a = shuffle_shards(ray.data.from_arrow(tbl), n_shards=4).take_all()
    by_shard = {}
    for r in a:
        by_shard.setdefault(r["shard"], []).append(r["pos"])
    assert set(by_shard) == {0, 1, 2, 3}
    for shard, poss in by_shard.items():
        assert sorted(poss) == list(range(len(poss)))  # dense 0..n-1
        assert len(poss) > 50  # roughly balanced
    # stable under a different partitioning of the same input
    b = shuffle_shards(
        ray.data.from_arrow(tbl).repartition(13), n_shards=4).take_all()
    key = lambda rows: sorted((r["doc_id"], r["shard"], r["pos"])
                              for r in rows)
    assert key(a) == key(b)


def test_group_zscore_moments(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from mdvalidate_ray.functions.relational import group_zscore

    rng = np.random.default_rng(7)
    n = 3000
    g = np.repeat(["a", "b", "c"], n // 3)
    x = np.concatenate([rng.integers(0, 100, n // 3),
                        rng.integers(500, 1500, n // 3),
                        np.full(n // 3, 42)])     # zero-variance group
    ds = ray.data.from_arrow(pa.table({
        "grp": pa.array(g), "val": pa.array(x, pa.int64()),
        "rid": pa.array(range(n), pa.int64())}))
    out = group_zscore(ds, group_col="grp", value_col="val",
                       keep_cols=["rid", "grp"]).take_all()
    assert len(out) == n
    import collections
    z = collections.defaultdict(list)
    for r in out:
        z[r["grp"]].append(r["z_bp"])
    for grp in ("a", "b"):
        arr = np.asarray(z[grp], dtype=np.float64) / 10000.0
        assert abs(arr.mean()) < 1e-3
        assert abs(arr.std() - 1.0) < 1e-3
    assert set(z["c"]) == {0}  # zero variance -> defined as 0


def test_funnel_counts_ordering_and_dropoff(ray_session):
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import funnel_counts

    rows = [
        # u1 completes in order: view(1) click(2) purchase(3)
        (1, 1, "view"), (1, 2, "click"), (1, 3, "purchase"),
        # u2 clicks BEFORE viewing — click must not count
        (2, 5, "click"), (2, 6, "view"),
        # u3 views only
        (3, 1, "view"),
        # u4 purchase before click: view(1) purchase(2) click(4) — step3
        # requires a purchase AFTER the click; none exists
        (4, 1, "view"), (4, 2, "purchase"), (4, 4, "click"),
        # u5 same-timestamp click (ties are NOT strictly after) then later
        # click that counts
        (5, 7, "view"), (5, 7, "click"), (5, 9, "click"), (5, 10, "purchase"),
        # u6 never views; click+purchase must not count at any step
        (6, 1, "click"), (6, 2, "purchase"),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = funnel_counts(ray.data.from_arrow(tbl).repartition(3),
                        key="user_id", time_col="ts",
                        type_col="event_type",
                        steps=["view", "click", "purchase"],
                        n_parts=4).to_pandas()
    got = dict(zip(out.step, out.n_users))
    # step1: u1..u5 view (not u6) = 5
    # step2: click strictly after first view: u1, u4, u5 = 3
    # step3: purchase strictly after that click: u1 (3>2), u5 (10>9) = 2
    assert got == {1: 5, 2: 3, 3: 2}, got


def test_cohort_retention_semantics(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import cohort_retention

    def ts(day, hour):
        return np.datetime64(f"2024-01-{day:02d}T{hour:02d}:00:00", "us")

    rows = [
        # u1 signs up day 1 noon; active later that day (offset 0),
        # next morning (18h later -> offset 0), and day 3 (offset 2)
        (1, ts(1, 12), "signup"), (1, ts(1, 18), "click"),
        (1, ts(2, 6), "view"), (1, ts(3, 13), "purchase"),
        # u2 signs up day 1 too; pre-signup activity must NOT count
        (2, ts(1, 1), "view"), (2, ts(1, 2), "signup"), (2, ts(2, 3), "click"),
        # u3 never signs up — excluded entirely
        (3, ts(1, 5), "view"),
    ]
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
    })
    out = cohort_retention(ray.data.from_arrow(tbl).repartition(2),
                           key="user_id", time_col="ts",
                           type_col="event_type", signup_type="signup",
                           n_parts=3).to_pandas()
    got = {(r.cohort, r.day_offset): r.n_users for r in out.itertuples()}
    # offsets measure whole days from the signup INSTANT, not calendar days:
    # u1: signup@d1 12:00 -> click 18:00 (0), view d2 06:00 (0), purchase
    # d3 13:00 (2); u2: signup@d1 02:00 (0), click d2 03:00 (1; 25h)
    assert got == {("2024-01-01", 0): 2, ("2024-01-01", 1): 1,
                   ("2024-01-01", 2): 1}, got


def test_bucketed_distinct_streams_and_dedups(ray_session):
    """Distinct over single and composite keys through the coarse-bucket
    exchange — hot keys collapse in the per-batch combiner."""
    import ray.data

    from mdvalidate_ray.functions.relational import bucketed_distinct

    t = pa.table({
        "a": pa.array([1, 1, 2, 2, 2, 3] * 50, pa.int64()),
        "b": pa.array(["x", "x", "y", "y", "z", "x"] * 50),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    got = {(r["a"], r["b"])
           for r in bucketed_distinct(ds, ["a", "b"]).take_all()}
    assert got == {(1, "x"), (2, "y"), (2, "z"), (3, "x")}
    one = sorted(r["b"] for r in bucketed_distinct(
        ds.select_columns(["b"]), ["b"]).take_all())
    assert one == ["x", "y", "z"]


def test_proc_cache_bounded_lru():
    from mdvalidate_ray.state.proc_cache import get_or_build

    cache: dict = {}
    builds = []
    for k in ("a", "b", "a", "c", "d"):   # keep=2
        get_or_build(cache, k, lambda k=k: builds.append(k) or k.upper())
    # a was refreshed before c, so eviction order was b, then a
    assert set(cache) == {"c", "d"}
    assert builds == ["a", "b", "c", "d"]      # the refreshed 'a' hit
    # hit does not rebuild and refreshes recency
    get_or_build(cache, "c", lambda: builds.append("c2"))
    get_or_build(cache, "e", lambda: builds.append("e") or "E")
    assert set(cache) == {"c", "e"} and "c2" not in builds


def test_heavy_hitters_exact_zipf_and_guarantee_gate(ray_session):
    """Sketch-then-verify top-k: on a skewed stream with capacity ≪
    vocabulary the result equals the exact groupby top-k (counts AND
    order); with a capacity too small for the skew, the runtime
    guarantee gate raises instead of silently returning a wrong set."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from mdvalidate_ray.functions.relational import heavy_hitters_exact

    rng = np.random.default_rng(11)
    vals = [f"k{int(v)}" for v in rng.zipf(1.3, size=20000) % 500]
    ds = ray.data.from_arrow(
        pa.table({"word": pa.array(vals, pa.string())})).repartition(8)

    top = heavy_hitters_exact(ds, column="word", k=5, capacity=64)
    true = {}
    for v in vals:
        true[v] = true.get(v, 0) + 1
    want = sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    got = list(zip(top.column("word").to_pylist(),
                   top.column("cnt").to_pylist()))
    assert got == want

    with pytest.raises(ValueError, match="guarantee"):
        heavy_hitters_exact(ds, column="word", k=60, capacity=64)


def test_interval_overlap_join_matches_brute_force(ray_session):
    """Random intervals (incl. bucket-straddling and many-bucket-long
    ones) against brute force: every overlapping pair exactly once with
    the exact overlap duration — the count-once-at-owner-bucket rule
    must not double-count pairs sharing several buckets."""
    import numpy as np
    import ray.data

    from mdvalidate_ray.functions.relational import interval_overlap_join

    rng = np.random.default_rng(5)
    B = 1000                                  # small bucket → heavy overlap
    def mk(n, max_len, key):
        s = rng.integers(0, 20 * B, n).astype(np.int64)
        ln = rng.integers(1, max_len, n).astype(np.int64)
        return pa.table({key: np.arange(n, dtype=np.int64),
                         "start_us": s, "end_us": s + ln})

    ta = mk(80, 5 * B, "a_id")                # up to 5-bucket intervals
    tb = mk(60, 3 * B, "b_id")
    got = interval_overlap_join(
        ray.data.from_arrow(ta), ray.data.from_arrow(tb),
        key_a="a_id", key_b="b_id", bucket_us=B, n_parts=8).take_all()
    got_set = {(r["a_id"], r["b_id"]): r["overlap_us"] for r in got}
    assert len(got_set) == len(got), "pair emitted more than once"

    truth = {}
    for i in range(ta.num_rows):
        sa, ea = ta["start_us"][i].as_py(), ta["end_us"][i].as_py()
        for j in range(tb.num_rows):
            sb, eb = tb["start_us"][j].as_py(), tb["end_us"][j].as_py()
            if sa < eb and sb < ea:
                truth[(i, j)] = min(ea, eb) - max(sa, sb)
    assert got_set == truth and len(truth) > 50


def test_rolling_active_users_matches_naive(ray_session):
    """Per-user interval-union coverage equals the brute-force trailing
    window distinct count on every observed day, across block splits,
    including single-day users, gap > window, and adjacent intervals."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import rolling_active_users

    rng = np.random.default_rng(7)
    users = rng.integers(0, 25, 400)
    days = rng.integers(100, 160, 400)
    # edge shapes: one-day user, exact-gap user, adjacent-interval user
    users = np.r_[users, [90, 91, 91, 92, 92]]
    days = np.r_[days, [100, 100, 107, 100, 106]]
    ts = pa.array((days * 86_400_000_000).astype("int64")).cast(
        pa.timestamp("us"))
    t = pa.table({"ts": ts, "user_id": pa.array(
        users.astype(np.int64))})

    got = rolling_active_users(
        ray.data.from_arrow(t).repartition(6), time_col="ts",
        user_col="user_id", window_days=7, n_parts=4).to_pandas()
    got_map = dict(zip(got["day"].astype(int),
                       got["active_users"].astype(int)))

    observed = sorted(set(days.tolist()))
    want = {}
    for d in observed:
        active = {u for u, dd in zip(users.tolist(), days.tolist())
                  if d - 6 <= dd <= d}
        want[d] = len(active)
    assert got_map == want
    # gap user 91: active day 100 covers 100..106, day 107 covers its
    # own window — day 107 must count it exactly once
    assert 107 in got_map


def test_grouped_first_last_merges_across_blocks(ray_session):
    """Open/close/min/max/count partials merge correctly when a group
    straddles blocks: the global first/last is decided by the carried
    order keys, ts ties break on the unique id, floats fold as exact
    cents."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import grouped_first_last

    rng = np.random.default_rng(29)
    n = 500
    t = pa.table({
        "u": pa.array(rng.integers(0, 10, n).astype(np.int64)),
        "ts": pa.array(rng.integers(0, 40, n).astype(np.int64)),
        "eid": pa.array(np.arange(n, dtype=np.int64)),
        "value": pa.array(rng.normal(10, 3, n))})
    got = grouped_first_last(
        ray.data.from_arrow(t).repartition(7), group_cols=["u"],
        order_cols=["ts", "eid"], value_col="value", scale=100,
        n_parts=4).to_pandas().set_index("u").sort_index()

    import pandas as pd
    df = t.to_pandas()
    df["vc"] = np.round(df["value"] * 100).astype(np.int64)
    df = df.sort_values(["u", "ts", "eid"])
    want = df.groupby("u").agg(
        open_c=("vc", "first"), close_c=("vc", "last"),
        lo_c=("vc", "min"), hi_c=("vc", "max"), n=("vc", "size"))
    assert got[["open_c", "close_c", "lo_c", "hi_c", "n"]].equals(
        want.astype(np.int64))


def test_quantile_via_selection_matches_ceil_rank(ray_session):
    """Distributed selection equals the quantile_disc rule (value at
    1-indexed position ceil(q*n)) on a high-cardinality double column,
    including q=1.0 and a single-row table."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import quantile_via_selection

    rng = np.random.default_rng(41)
    vals = rng.normal(size=5000) * 1e6
    ds = ray.data.from_arrow(pa.table({"x": vals})).repartition(9)
    qs = [0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
    got = quantile_via_selection(ds, "x", qs)
    s = np.sort(vals)
    want = [float(s[max(int(np.ceil(q * len(s))), 1) - 1]) for q in qs]
    assert got == want

    one = ray.data.from_arrow(pa.table({"x": [7.5]}))
    assert quantile_via_selection(one, "x", [0.5, 1.0]) == [7.5, 7.5]


def test_quantile_via_selection_forced_bisection_and_ties(ray_session,
                                                         monkeypatch):
    """A budget far below n forces count-only bisection rounds; a
    duplicate-heavy column exercises the adjacent-float tie resolution;
    an all-equal column resolves without any collect; empty -> None."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions import relational
    from mdvalidate_ray.functions.relational import quantile_via_selection

    rng = np.random.default_rng(7)
    vals = np.concatenate([rng.uniform(0, 100, 4000),
                           np.full(3000, 42.0),       # heavy tie mass
                           np.full(2000, 42.0000000001)])
    ds = ray.data.from_arrow(pa.table({"x": vals})).repartition(6)
    qs = [0.3, 0.5, 0.7, 0.9]
    monkeypatch.setattr(relational, "_SELECT_COLLECT_ROWS", 50)
    got = quantile_via_selection(ds, "x", qs, sample_per_block=8)
    s = np.sort(vals)
    want = [float(s[max(int(np.ceil(q * len(s))), 1) - 1]) for q in qs]
    assert got == want

    allsame = ray.data.from_arrow(pa.table({"x": np.full(1000, 3.25)}))
    monkeypatch.setattr(relational, "_SELECT_COLLECT_ROWS", 10)
    assert quantile_via_selection(allsame, "x", [0.1, 0.9]) == [3.25, 3.25]

    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    assert quantile_via_selection(empty, "x", [0.5]) == [None]


def test_grouped_rank_via_selection_matches_numpy(ray_session, monkeypatch):
    """Per-group distributed selection equals the per-group sorted-rank
    answer on skewed group sizes, both for the raw value and for the
    |x - center| derivation (the MAD second level); a tiny budget
    forces count-only narrowing rounds."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions import relational
    from mdvalidate_ray.functions.relational import (
        grouped_rank_via_selection)

    rng = np.random.default_rng(19)
    sizes = {"a": 4000, "b": 700, "c": 31, "d": 1}
    gs, xs = [], []
    for g, n in sizes.items():
        gs.extend([g] * n)
        xs.append(np.round(rng.normal(size=n) * 1e4))  # int-valued, ties
    x = np.concatenate(xs)
    ds = ray.data.from_arrow(pa.table(
        {"g": pa.array(gs, pa.string()),
         "x": pa.array(x, pa.float64())})).repartition(7)

    lower_med = lambda n: (n - 1) // 2 + 1           # noqa: E731
    with monkeypatch.context() as m:
        m.setattr(relational, "_SELECT_COLLECT_ROWS", 40)
        got = grouped_rank_via_selection(
            ds, group_col="g", value_col="x", rank_of=lower_med,
            sample_per_block=8)
    meds = {}
    off = 0
    for g, n in sizes.items():
        seg = np.sort(x[off:off + n])
        meds[g] = float(seg[(n - 1) // 2])
        assert got[g] == (n, meds[g]), g
        off += n

    # MAD level: selection over the derived |x - med_g|
    with monkeypatch.context() as m:
        m.setattr(relational, "_SELECT_COLLECT_ROWS", 40)
        got_mad = grouped_rank_via_selection(
            ds, group_col="g", value_col="x", rank_of=lower_med,
            center=meds, sample_per_block=8)
    off = 0
    for g, n in sizes.items():
        dev = np.sort(np.abs(x[off:off + n] - meds[g]))
        assert got_mad[g] == (n, float(dev[(n - 1) // 2])), g
        off += n

    # int group columns key as strings too
    ids = ray.data.from_arrow(pa.table(
        {"g": pa.array([1, 1, 1, 2, 2], pa.int64()),
         "x": pa.array([5.0, 1.0, 3.0, 9.0, 2.0])}))
    gi = grouped_rank_via_selection(
        ids, group_col="g", value_col="x", rank_of=lower_med)
    assert gi == {"1": (3, 3.0), "2": (2, 2.0)}

    assert grouped_rank_via_selection(
        ray.data.from_arrow(pa.table(
            {"g": pa.array([], pa.string()),
             "x": pa.array([], pa.float64())})),
        group_col="g", value_col="x", rank_of=lower_med) == {}


def test_priority_mad_forced_selection_tier_parity(ray_session, force_tier):
    """orders_priority_mad past the per-group budget — the
    group-exceeds-worker tier that never co-locates a group — is
    bit-equal to the default co-partition-and-sort tier at sf0.001.
    The budget holds the five priorities' selection state
    (5 × 8 B × (3 + 128)) but not the orders' 24-byte rows."""
    import os

    import pytest

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        pytest.skip("testdata missing")
    from mdvalidate_ray.queries import orders_priority_mad

    base = orders_priority_mad(sf_dir).to_pandas() \
        .sort_values("o_orderpriority").reset_index(drop=True)
    with force_tier("partitioned", budget=5 * 8 * (3 + 128)):
        forced = orders_priority_mad(sf_dir) \
            .to_pandas().sort_values("o_orderpriority") \
            .reset_index(drop=True)
    assert base.equals(forced) and len(base) > 0


def test_eqdepth_forced_selection_tier_parity(ray_session, force_tier):
    """price_eqdepth_hist past the budget — the
    unbounded-cardinality tier built on quantile_via_selection plus one
    counting pass — is bit-equal to the default distinct-value-fold
    tier at sf0.001."""
    import os

    import pytest

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        pytest.skip("testdata missing")
    from mdvalidate_ray.queries import price_eqdepth_hist

    base = price_eqdepth_hist(sf_dir).to_pandas()
    with force_tier("partitioned"):
        forced = price_eqdepth_hist(sf_dir).to_pandas()
    assert base.equals(forced) and len(base) > 0


def test_copartition_antijoin_null_and_string_keys(ray_session):
    """Null data keys match nothing and are KEPT (previously a
    TypeError in the searchsorted probe); string and int key columns
    both work; null rows in the key side are ignored."""
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import copartition_antijoin

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c", None, "d"], pa.string()),
        "v": pa.array([1, 2, 3, 4, 5], pa.int64())}))
    keys = ray.data.from_arrow(pa.table({
        "k": pa.array(["b", None, "d"], pa.string())}))
    out = copartition_antijoin(ds, keys, key="k",
                               n_parts=3).to_pandas()
    assert sorted(out["v"].tolist()) == [1, 3, 4]   # null row kept

    ids = ray.data.from_arrow(pa.table({
        "k": pa.array([10, 20, None, 40], pa.int64()),
        "v": pa.array([1, 2, 3, 4], pa.int64())}))
    ikeys = ray.data.from_arrow(pa.table({
        "k": pa.array([20, 40], pa.int64())}))
    out2 = copartition_antijoin(ids, ikeys, key="k",
                                n_parts=2).to_pandas()
    assert sorted(out2["v"].tolist()) == [1, 3]

    # int32 data keys against int64 key rows: the key side is cast to the
    # data side's key type before bucketing
    i32 = ray.data.from_arrow(pa.table({
        "k": pa.array([10, 20, None, 40], pa.int32()),
        "v": pa.array([1, 2, 3, 4], pa.int64())}))
    out3 = copartition_antijoin(i32, ikeys, key="k",
                                n_parts=2).to_pandas()
    assert sorted(out3["v"].tolist()) == [1, 3]


_BIG = 2**53 + 1


def _two_blocks(keys1, keys2):
    """Two blocks of (k, t, v): the first carries a null key, so a key
    column read through float64 there would round ``_BIG`` to 2^53."""
    import ray.data

    t1 = pa.table({"k": keys1, "t": pa.array([1, 1], pa.int64()),
                   "v": pa.array([10, 5], pa.int64())})
    t2 = pa.table({"k": keys2, "t": pa.array([2], pa.int64()),
                   "v": pa.array([7], pa.int64())})
    return ray.data.from_arrow([t1, t2])


def _past_2_53_group_sum():
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    ds = _two_blocks(pa.array([_BIG, None], pa.int64()),
                     pa.array([_BIG], pa.int64()))
    got = bucketed_group_sum(ds, key="k", sum_cols=["v"]).take_all()
    return sorted((r["k"] is None, r["k"], r["v"]) for r in got) == \
        [(False, _BIG, 17), (True, None, 5)]


def _past_2_53_distinct():
    from mdvalidate_ray.functions.relational import bucketed_distinct

    ds = _two_blocks(pa.array([_BIG, None], pa.int64()),
                     pa.array([_BIG], pa.int64()))
    got = [r["k"] for r in bucketed_distinct(ds, ["k"]).take_all()]
    return sorted(got, key=lambda k: (k is None, k or 0)) == [_BIG, None]


def _past_2_53_duplicates():
    from mdvalidate_ray.stages.uniqueness import duplicate_keys

    ds = _two_blocks(pa.array([_BIG, None], pa.int64()),
                     pa.array([_BIG], pa.int64()))
    got = [(r["k"], r["cnt"]) for r in duplicate_keys(ds, "k").take_all()]
    return got == [(_BIG, 2)]


def _past_2_53_running_sum():
    from mdvalidate_ray.functions.window import grouped_running_sum

    ds = _two_blocks(pa.array([_BIG, None], pa.int64()),
                     pa.array([_BIG], pa.int64()))
    got = grouped_running_sum(ds, key="k", order_cols=["t"],
                              value_col="v").take_all()
    at2 = [(r["run_sum"], r["rn"]) for r in got
           if r["k"] == _BIG and r["t"] == 2]
    return at2 == [(17, 2)]


def _past_2_53_antijoin():
    """Keys 2^53 and 2^53+1 stay distinct in a data batch that holds a
    null, on both the bucket and the probe."""
    import ray.data

    from mdvalidate_ray.functions.relational import copartition_antijoin

    big = 2**53
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([big, big + 1, None, big + 3], pa.int64()),
        "v": pa.array([1, 2, 3, 4], pa.int64())}))
    keys = ray.data.from_arrow(pa.table({
        "k": pa.array([big + 1, None], pa.int64())}))
    return all(sorted(copartition_antijoin(
        ds, keys, key="k", n_parts=n).to_pandas()["v"].tolist())
        == [1, 3, 4] for n in (1, 3))


def _null_string_key():
    """A null string key routes with "" (exchange.key_bucket's rule)
    but stays its own group: "a", "" and null are three distinct keys."""
    from mdvalidate_ray.exchange import key_bucket
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    col = pa.array([None, "", "a"], pa.string())
    b = key_bucket(col, 32)
    ds = _two_blocks(pa.array(["a", None], pa.string()),
                     pa.array([""], pa.string()))
    got = bucketed_group_sum(ds, key="k", sum_cols=["v"]).take_all()
    return b[0] == b[1] and sorted(
        (r["k"] is None, r["k"] or "", r["v"]) for r in got) == \
        [(False, "", 7), (False, "a", 10), (True, "", 5)]


@pytest.mark.parametrize("case", [
    _past_2_53_group_sum, _past_2_53_distinct, _past_2_53_duplicates,
    _past_2_53_running_sum, _past_2_53_antijoin, _null_string_key],
    ids=["bucketed_group_sum", "bucketed_distinct", "duplicate_keys",
         "grouped_running_sum", "copartition_antijoin", "string_null_key"])
def test_keys_past_2_53_meet_in_one_bucket(ray_session, case):
    """An int64 key past 2^53 in a block that also holds a null must
    route to the same bucket as the same key in a block without one:
    every exchange reads integer keys exactly (exchange.key_bucket)."""
    assert case()


def test_snapshot_diff_empty_keeps_key_type(ray_session):
    """An empty diff of STRING-keyed snapshots emits a string-typed key
    column (previously fabricated as int64), so day-over-day diff
    unions cannot schema-mismatch on an empty day."""
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import snapshot_diff

    empty = pa.table({"doc_id": pa.array([], pa.string()),
                      "v": pa.array([], pa.int64())})
    out = snapshot_diff(ray.data.from_arrow(empty),
                        ray.data.from_arrow(empty),
                        key_col="doc_id", compare_cols=["v"])
    sch = out.schema().base_schema
    assert sch.field("doc_id").type == pa.string()
    assert out.count() == 0


def test_q11_forced_distributed_filter_tier(ray_session, force_tier):
    """q11_important_parts past the budget — the 10⁹-part tier
    where the folded per-part table never collects and the HAVING
    scalars broadcast into a distributed filter — is bit-equal to the
    driver-finish tier at sf0.001."""
    import os

    import pytest

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        pytest.skip("testdata missing")
    from mdvalidate_ray.queries import q11_important_parts

    base = q11_important_parts(sf_dir).to_pandas()
    with force_tier("partitioned"):
        forced = q11_important_parts(sf_dir).to_pandas()
    assert base.equals(forced) and len(base) > 0


def test_q22_forced_copartition_tier_parity(ray_session, force_tier):
    """q22_idle_customers past the budget — the
    buyer-set-exceeds-driver tier where recent-buyer keys co-partition
    with the rich-customer rows instead of folding — is bit-equal to
    the broadcast anti-probe tier at sf0.001."""
    import os

    import pytest

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        pytest.skip("testdata missing")
    from mdvalidate_ray.queries import q22_idle_customers

    base = q22_idle_customers(sf_dir).to_pandas() \
        .sort_values("cntrycode").reset_index(drop=True)
    with force_tier("partitioned"):
        forced = q22_idle_customers(sf_dir, n_parts=5).to_pandas() \
            .sort_values("cntrycode").reset_index(drop=True)
    assert base.equals(forced) and len(base) > 0


def test_resample_ffill_daily_matches_naive(ray_session):
    """Gap filling equals a naive per-user scan: multi-event days keep
    the (ts, tiebreak)-greatest value, gaps forward-fill to the next
    event day, the grid ends at the user's last event day, and same-ts
    ties resolve by the tiebreak — independent of block layout."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import resample_ffill_daily

    US_DAY = 86_400_000_000
    rows = [
        # user 1: two events day 0 (same ts, tiebreak decides), gap to
        # day 4, then day 4
        (1, 0 * US_DAY + 100, 10, 1.00),
        (1, 0 * US_DAY + 100, 11, 2.00),
        (1, 4 * US_DAY + 5, 12, 3.00),
        # user 2: single event
        (2, 2 * US_DAY, 20, 7.25),
        # user 3: descending-value events across days 1,2,5
        (3, 1 * US_DAY + 9, 30, 9.00),
        (3, 2 * US_DAY + 1, 31, 8.00),
        (3, 2 * US_DAY + 2, 32, 8.50),
        (3, 5 * US_DAY, 33, 1.75),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "event_id": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([r[3] for r in rows], pa.float64())})
    ds = ray.data.from_arrow(t).repartition(4)
    got = resample_ffill_daily(ds, key="user_id", ts_col="ts",
                               value_col="value", tiebreak="event_id",
                               n_parts=3).to_pandas()
    got_map = {(int(u), d): int(v) for u, d, v in
               zip(got["user_id"], got["day"],
                   got["last_value_cents"])}
    day = lambda i: np.datetime_as_string(
        np.int64(i).astype("datetime64[D]"), unit="D")
    want = {
        (1, day(0)): 200, (1, day(1)): 200, (1, day(2)): 200,
        (1, day(3)): 200, (1, day(4)): 300,
        (2, day(2)): 725,
        (3, day(1)): 900, (3, day(2)): 850, (3, day(3)): 850,
        (3, day(4)): 850, (3, day(5)): 175,
    }
    assert got_map == want


def test_snapshot_diff_statuses_and_string_keys(ray_session):
    """added/removed/changed classification is exact for int keys, works
    for string keys, treats nulls in compare columns consistently, and
    drops unchanged keys — independent of block layout."""
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import snapshot_diff

    old = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                    "v": pa.array([10.0, 20.0, None, 40.0])})
    new = pa.table({"k": pa.array([2, 3, 4, 5], pa.int64()),
                    "v": pa.array([20.0, None, 41.0, 50.0])})
    got = snapshot_diff(ray.data.from_arrow(old).repartition(3),
                        ray.data.from_arrow(new).repartition(2),
                        key_col="k", compare_cols=["v"],
                        n_parts=4).to_pandas()
    got_map = dict(zip(got["k"].astype(int), got["status"]))
    # 1 removed, 2 unchanged (absent), 3 null==null unchanged (absent),
    # 4 changed, 5 added
    assert got_map == {1: "removed", 4: "changed", 5: "added"}

    olds = pa.table({"k": pa.array(["a", "b"], pa.string()),
                     "v": pa.array([1, 2], pa.int64())})
    news = pa.table({"k": pa.array(["b", "c"], pa.string()),
                     "v": pa.array([9, 3], pa.int64())})
    got2 = snapshot_diff(ray.data.from_arrow(olds),
                         ray.data.from_arrow(news),
                         key_col="k", compare_cols=["v"],
                         n_parts=2).to_pandas()
    assert dict(zip(got2["k"], got2["status"])) == {
        "a": "removed", "b": "changed", "c": "added"}


def test_snapshot_diff_tiers_agree(ray_session, force_tier):
    """A zero tier budget forces the co-partition exchange tier; the
    default small-side driver tier must classify identically on the
    same snapshots (both kernels share per_bucket), including an
    empty-both-sides diff."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import snapshot_diff

    rng = np.random.default_rng(67)
    ko = np.arange(500, dtype=np.int64)
    vo = rng.integers(0, 50, 500)
    kn = np.concatenate([ko[ko % 9 != 0],            # some removed
                         np.arange(500, 540)])       # some added
    vn = np.concatenate([vo[ko % 9 != 0], rng.integers(0, 50, 40)])
    vn = vn.copy()
    vn[::13] += 100                                   # some changed
    old = pa.table({"k": pa.array(ko), "v": pa.array(vo)})
    new = pa.table({"k": pa.array(kn), "v": pa.array(vn)})

    a = snapshot_diff(ray.data.from_arrow(old).repartition(4),
                      ray.data.from_arrow(new).repartition(3),
                      key_col="k", compare_cols=["v"]).to_pandas()
    with force_tier("partitioned"):
        b = snapshot_diff(ray.data.from_arrow(old).repartition(4),
                          ray.data.from_arrow(new).repartition(3),
                          key_col="k", compare_cols=["v"],
                          n_parts=4).to_pandas()
    am = dict(zip(a["k"].astype(int), a["status"]))
    bm = dict(zip(b["k"].astype(int), b["status"]))
    assert am == bm and len(am) > 0
    assert set(am.values()) == {"added", "removed", "changed"}

    empty = pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64())})
    for budget in (0, None):
        with force_tier(None, budget=budget):
            got = snapshot_diff(ray.data.from_arrow(empty),
                                ray.data.from_arrow(empty), key_col="k",
                                compare_cols=["v"])
            assert got.count() == 0


def test_grouped_ols_matches_numpy_and_handles_degenerates(ray_session):
    """Exact-rational grouped OLS equals np.polyfit (to scaled-int
    truncation), negative slopes truncate toward zero like DuckDB //,
    and degenerate groups (n=1, zero x-variance) yield NULLs."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import grouped_ols

    rng = np.random.default_rng(3)
    xs_a = rng.integers(1, 50, 400).astype(np.float64)
    ys_a = 3.5 * xs_a + 10 + rng.normal(0, 2, 400).round(2)
    xs_b = rng.integers(1, 50, 300).astype(np.float64)
    ys_b = -2.25 * xs_b + 100 + rng.normal(0, 1, 300).round(2)
    g = ["a"] * 400 + ["b"] * 300 + ["one", "flat", "flat", "flat"]
    x = np.r_[xs_a, xs_b, [5.0], [7.0, 7.0, 7.0]]
    y = np.r_[ys_a.round(2), ys_b.round(2), [1.0], [1.0, 2.0, 3.0]]
    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(g), "x": pa.array(x), "y": pa.array(y)})) \
        .repartition(5)
    got = grouped_ols(ds, group_col="g", x_col="x", y_col="y").to_pandas()
    gm = {r["g"]: (r["n"], r["slope_e6"], r["intercept_e6"])
          for _, r in got.iterrows()}

    for grp, xv, yv in [("a", xs_a, ys_a.round(2)),
                        ("b", xs_b, ys_b.round(2))]:
        xc = np.round(xv * 100).astype(object)
        yc = np.round(yv * 100).astype(object)
        n = len(xc)
        sx, sy = int(sum(xc)), int(sum(yc))
        sxx = int(sum(a * a for a in xc))
        sxy = int(sum(a * b for a, b in zip(xc, yc)))
        num, den = n * sxy - sx * sy, n * sxx - sx * sx
        tdiv = lambda a, b: (abs(a) // abs(b)) * (
            1 if (a < 0) == (b < 0) else -1)
        want_s = tdiv(10**6 * 100 * num, 100 * den)
        want_i = tdiv(10**6 * (sy * den - num * sx), 100 * n * den)
        assert gm[grp] == (n, want_s, want_i), grp
        # sanity vs float OLS
        slope_f = np.polyfit(xv, yv, 1)[0]
        assert abs(gm[grp][1] / 1e6 - slope_f) < 1e-3

    assert gm["one"][1] is None or np.isnan(gm["one"][1])
    assert gm["flat"][1] is None or np.isnan(gm["flat"][1])
    assert gm["b"][1] < 0          # negative slope truncates like DuckDB


def test_zorder_pruning_effectiveness(ray_session):
    """Morton-curve partitioning actually clusters BOTH dimensions: a
    small 2-D box predicate overlaps strictly fewer partition envelopes
    than a single-column range sort gives on its non-sorted column, and
    z values round-trip the bit interleave exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import (
        zorder_partition_stats,
        zorder_values,
    )

    # exact interleave check vs a naive bit loop
    rng = np.random.default_rng(9)
    a = rng.integers(0, 2**16, 200).astype(np.int64)
    b = rng.integers(0, 2**16, 200).astype(np.int64)
    z = zorder_values(a, b)
    for i in range(20):
        want = 0
        for bit in range(16):
            want |= ((int(a[i]) >> bit) & 1) << (2 * bit)
            want |= ((int(b[i]) >> bit) & 1) << (2 * bit + 1)
        assert int(z[i]) == want

    # uniform grid: every z-range partition should cover a LOCAL box,
    # so a point-ish query box intersects few envelopes
    n = 20_000
    xa = rng.integers(0, 1000, n).astype(np.int64)
    xb = rng.integers(0, 1000, n).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"x": xa, "y": xb})).repartition(8)
    stats = zorder_partition_stats(ds, col_a="x", col_b="y",
                                   n_partitions=16).to_pandas()
    assert stats["n_rows"].sum() == n
    # query box [0,100]x[0,100]: count envelope overlaps
    hit = ((stats["min_a"] <= 100) & (stats["max_a"] >= 0)
           & (stats["min_b"] <= 100) & (stats["max_b"] >= 0)).sum()
    # a plain sort on x gives ~16 partitions all spanning y=[0,1000) →
    # a y-filter prunes nothing; z-order must prune most partitions
    assert hit <= 4, f"z-order envelopes too loose: {hit}/16 overlap"


def test_zorder_write_then_pruned_read(ray_session, tmp_path):
    """The read-side payoff: a z-ordered layout lets the reader PRUNE
    whole parquet files on footer envelopes for a range predicate on
    EITHER clustered column — fewer files actually read, zero rows lost
    (result identical to a full scan + filter)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import (
        read_parquet_pruned,
        write_zordered,
    )

    rng = np.random.default_rng(31)
    n = 20_000
    x = rng.integers(0, 1000, n).astype(np.int64)
    y = rng.integers(0, 1000, n).astype(np.int64)
    v = rng.integers(0, 10**6, n).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y, "v": v})) \
        .repartition(8)
    path = str(tmp_path / "zordered")
    write_zordered(ds, path, col_a="x", col_b="y", n_partitions=16)

    # prune on BOTH dimensions in turn — single-column sort can only
    # serve one; Morton layout serves either
    for col, arr in (("x", x), ("y", y)):
        pruned, n_total, n_read = read_parquet_pruned(
            path, col=col, lo=100, hi=199)
        assert n_total >= 16
        assert n_read < n_total, (
            f"no files pruned on {col}: {n_read}/{n_total}")
        got = pruned.to_pandas().sort_values(["x", "y", "v"]) \
            .reset_index(drop=True)
        mask = (arr >= 100) & (arr <= 199)
        assert len(got) == int(mask.sum())
        assert int(got["v"].sum()) == int(v[mask].sum())

    # projection that excludes the predicate column still filters on it
    pruned, _, _ = read_parquet_pruned(path, col="x", lo=100, hi=199,
                                       columns=["v"])
    t = pruned.to_pandas()
    assert list(t.columns) == ["v"]
    assert int(t["v"].sum()) == int(v[(x >= 100) & (x <= 199)].sum())

    # empty-overlap predicate: nothing matches, reader still works;
    # n_read reports the ONE fallback file actually opened for schema
    pruned, n_total, n_read = read_parquet_pruned(
        path, col="x", lo=5000, hi=6000)
    assert n_read == 1 and pruned.count() == 0


def test_join_size_exact_matches_pandas(ray_session):
    """Exact join cardinality equals the actually-executed join size,
    including a hot key (skew alarm = its count product) and keys
    present on only one side."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from mdvalidate_ray.functions.relational import join_size_exact

    rng = np.random.default_rng(19)
    a = rng.integers(0, 30, 500)
    a = np.r_[a, np.full(200, 7)]             # hot key on side A
    b = rng.integers(10, 40, 400)             # keys 30..39 only in B
    got = join_size_exact(
        ray.data.from_arrow(pa.table({"k": a})).repartition(4),
        ray.data.from_arrow(pa.table({"k": b})).repartition(3),
        key_a="k", key_b="k", n_parts=8)
    joined = pd.merge(pd.DataFrame({"k": a}), pd.DataFrame({"k": b}), on="k")
    ca = pd.Series(a).value_counts()
    cb = pd.Series(b).value_counts()
    common = ca.index.intersection(cb.index)
    assert got["join_rows"] == len(joined)
    assert got["n_a"] == len(a) and got["n_b"] == len(b)
    assert got["max_key_product"] == int(
        (ca.loc[common] * cb.loc[common]).max())


@pytest.mark.parametrize("blocks", [1, 9])
def test_skyline_2d_matches_bruteforce(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.relational import skyline_2d

    rng = np.random.default_rng(11)
    # anti-correlated cloud (worst case: large frontier) + planted
    # exact duplicates of a frontier point + x-ties with differing y
    n = 400
    x = rng.integers(0, 1000, n)
    y = 1000 - x + rng.integers(-80, 80, n)
    x = np.concatenate([x, [2000, 2000, 500, 500]])
    y = np.concatenate([y, [2000, 2000, 900, 880]])
    ids = np.arange(len(x))
    tbl = pa.table({"rid": pa.array(ids, pa.int64()),
                    "x": pa.array(x.astype("int64")),
                    "y": pa.array(y.astype("int64"))})

    got = skyline_2d(ray.data.from_arrow(tbl).repartition(blocks),
                     x_col="x", y_col="y").take_all()
    got_ids = sorted(r["rid"] for r in got)

    keep = []
    for i in range(len(x)):
        dom = ((x >= x[i]) & (y >= y[i])
               & ((x > x[i]) | (y > y[i]))).any()
        if not dom:
            keep.append(i)
    assert got_ids == keep
    # the two identical dominant points must BOTH survive (no strict
    # edge between exact duplicates), and (500, 880) must lose to
    # (500, 900) through the x-tie rule
    assert 400 in got_ids and 401 in got_ids
    assert 403 not in got_ids


@pytest.mark.parametrize("blocks", [1, 6])
def test_bfs_hops_matches_bruteforce(ray_session, blocks):
    import collections

    import ray.data

    from mdvalidate_ray.functions.graph import bfs_hops

    rng = np.random.default_rng(23)
    # random sparse graph + a far chain to exercise the hop cap and an
    # island (nodes 90..93) unreachable from the seed component
    edges = set()
    for _ in range(60):
        a, b = rng.integers(0, 40, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    chain = [0, 50, 51, 52, 53, 54, 55, 56]     # 7 hops off node 0
    edges.update((min(x, y), max(x, y))
                 for x, y in zip(chain, chain[1:]))
    edges.update([(90, 91), (91, 92), (92, 93)])
    u = [a for a, _ in edges]
    v = [b for _, b in edges]
    tbl = pa.table({"u": pa.array(u, pa.int64()),
                    "v": pa.array(v, pa.int64())})

    CAP = 5
    adj = collections.defaultdict(set)
    for a, b in edges:
        adj[a].add(b); adj[b].add(a)
    want, frontier = {0: 0}, [0]
    for hop in range(1, CAP + 1):
        nxt = []
        for n in frontier:
            for m in adj[n]:
                if m not in want:
                    want[m] = hop; nxt.append(m)
        frontier = nxt

    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = {r["node"]: r["hops"]
           for r in bfs_hops(ds, seed=0, max_rounds=CAP).to_pylist()}
    assert got == want
    assert 90 not in got           # island unreachable
    assert got.get(54) == 5 and 55 not in got   # cap stops the chain


def test_bfs_forced_copartition_tier_parity(ray_session, force_tier):
    """A zero tier budget forces the fully
    co-partitioned frontier tier (the past-driver-budget plan where
    (node, dist) stays a Dataset); results must equal the in-process
    tier on a graph with a hop-capped chain and an unreachable
    island."""
    import ray.data

    from mdvalidate_ray.functions.graph import bfs_hops

    rng = np.random.default_rng(41)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, 30, (80, 2))
             if a != b}
    chain = [0, 60, 61, 62, 63, 64, 65]
    edges.update((min(x, y), max(x, y))
                 for x, y in zip(chain, chain[1:]))
    edges.update([(90, 91), (91, 92)])          # unreachable island
    tbl = pa.table({"u": pa.array([e[0] for e in edges], pa.int64()),
                    "v": pa.array([e[1] for e in edges], pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(7)

    base = sorted(map(tuple, (r.values() for r in
                  bfs_hops(ds, seed=0, max_rounds=4).to_pylist())))
    with force_tier("partitioned"):
        forced = sorted(map(tuple, (r.values() for r in
                        bfs_hops(ds, seed=0, max_rounds=4,
                                 n_parts=5).to_pylist())))
    assert base == forced and len(base) > 1
    assert all(h <= 4 for _, h in forced)
    assert not any(n in (90, 91, 92) for n, _ in forced)

    # seed-only graph degenerate: seed with no edges at all
    lone = ray.data.from_arrow(pa.table(
        {"u": pa.array([7], pa.int64()),
         "v": pa.array([8], pa.int64())}))
    with force_tier("partitioned"):
        got = bfs_hops(lone, seed=3, max_rounds=2).to_pylist()
    assert got == [{"node": 3, "hops": 0}]


def test_bellman_forced_copartition_tier_parity(ray_session, force_tier):
    """A zero tier budget forces Bellman-Ford through the fully
    co-partitioned tier (state stays a Dataset; frontier-only
    relaxation) — bit-equal to the default tiers including the
    max_rounds ≤-r-edge-path truncation and the default
    endpoint-derived weights."""
    import ray.data

    from mdvalidate_ray.functions.graph import bellman_ford_costs

    rng = np.random.default_rng(59)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, 28, (90, 2))
             if a != b}
    chain = [0, 70, 71, 72, 73, 74]
    edges.update((min(x, y), max(x, y))
                 for x, y in zip(chain, chain[1:]))
    tbl = pa.table({"u": pa.array([e[0] for e in edges], pa.int64()),
                    "v": pa.array([e[1] for e in edges], pa.int64()),
                    "w": pa.array([(e[0] * 7 + e[1]) % 9 + 1
                                   for e in edges], pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(6)

    for rounds in (2, 3, 4):
        for wcol in (None, "w"):
            base = sorted(map(tuple, (r.values() for r in
                          bellman_ford_costs(
                              ds, seed=0, weight_col=wcol,
                              max_rounds=rounds).to_pylist())))
            with force_tier("partitioned"):
                forced = sorted(map(tuple, (r.values() for r in
                                bellman_ford_costs(
                                    ds, seed=0, weight_col=wcol,
                                    max_rounds=rounds,
                                    n_parts=5).to_pylist())))
            assert base == forced and len(base) > 1, (rounds, wcol)


@pytest.mark.parametrize("blocks", [1, 6])
def test_bellman_ford_matches_bruteforce(ray_session, blocks):
    import heapq

    import ray.data

    from mdvalidate_ray.functions.graph import bellman_ford_costs

    rng = np.random.default_rng(29)
    edges = set()
    for _ in range(80):
        a, b = rng.integers(0, 30, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    tbl = pa.table({"u": pa.array([a for a, _ in edges], pa.int64()),
                    "v": pa.array([b for _, b in edges], pa.int64())})

    def w(a, b):
        return 1 + (a + b) % 5

    R = 3
    # brute force: cheapest cost over paths of <= R edges (the operator's
    # exact truncation contract), via R relaxation rounds
    INF = float("inf")
    cost = {n: INF for e in edges for n in e}
    cost[0] = 0
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b); adj.setdefault(b, []).append(a)
    for _ in range(R):
        nxt = dict(cost)
        for a in adj:
            for b in adj[a]:
                if cost[a] + w(a, b) < nxt[b]:
                    nxt[b] = cost[a] + w(a, b)
        cost = nxt
    want = {n: int(c) for n, c in cost.items() if c < INF}

    ds = ray.data.from_arrow(tbl).repartition(blocks)
    got = {r["node"]: r["cost"]
           for r in bellman_ford_costs(ds, seed=0,
                                       max_rounds=R).to_pylist()}
    assert got == want
    # a multi-hop cheaper-than-direct path must be found when present:
    # weights 1..5 mean some 2-edge paths undercut a weight-5 edge
    direct5 = [(a, b) for a, b in edges if w(a, b) == 5
               and (a == 0 or b == 0)]
    for a, b in direct5:
        other = b if a == 0 else a
        if got.get(other, 99) < 5:
            break


def test_bfs_and_bellman_distributed_tier_match_local(ray_session,
                                                      force_tier):
    """Forcing past the local cut-over runs the distributed (task-wave)
    tier — the
    path that must tolerate Ray's schema-less empty materialize blocks —
    and its results must equal the in-process tier's."""
    import ray.data

    from mdvalidate_ray.functions.graph import bellman_ford_costs, bfs_hops

    rng = np.random.default_rng(31)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, 25, (70, 2))
             if a != b}
    tbl = pa.table({"u": pa.array([min(e) for e in edges], pa.int64()),
                    "v": pa.array([max(e) for e in edges], pa.int64())})
    # many tiny blocks maximizes the chance of empty materialize blocks
    ds = ray.data.from_arrow(tbl).repartition(16)

    b_local = sorted(map(tuple, (r.values() for r in
                     bfs_hops(ds, seed=0, max_rounds=4).to_pylist())))
    with force_tier("broadcast"):
        b_dist = sorted(map(tuple, (r.values() for r in
                        bfs_hops(ds, seed=0, max_rounds=4).to_pylist())))
    assert b_local == b_dist and len(b_local) > 1

    c_local = sorted(map(tuple, (r.values() for r in
                     bellman_ford_costs(ds, seed=0,
                                        max_rounds=3).to_pylist())))
    with force_tier("broadcast"):
        c_dist = sorted(map(tuple, (r.values() for r in
                        bellman_ford_costs(ds, seed=0,
                                           max_rounds=3).to_pylist())))
    assert c_local == c_dist and len(c_local) > 1


def test_bfs_hops_is_unit_weight_bellman_ford(ray_session, force_tier):
    """bfs_hops is bellman_ford_costs with every weight 1: on a random
    graph with a hop-capped chain and an unreachable island both give
    the same rows (``cost`` renamed to ``hops``) on the in-process, the
    broadcast and the cached-edge-bucket tier."""
    import ray.data

    from mdvalidate_ray.functions.graph import bellman_ford_costs, bfs_hops

    rng = np.random.default_rng(67)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, 30, (80, 2))
             if a != b}
    chain = [0, 80, 81, 82, 83, 84, 85]
    edges.update(zip(chain, chain[1:]))
    edges.update([(95, 96), (96, 97)])          # unreachable island
    tbl = pa.table({"u": pa.array([e[0] for e in edges], pa.int64()),
                    "v": pa.array([e[1] for e in edges], pa.int64()),
                    "w": pa.array([1] * len(edges), pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(5)

    for tier in (None, "broadcast", "partitioned"):
        with force_tier(tier):
            hops = sorted(map(tuple, (r.values() for r in bfs_hops(
                ds, seed=0, max_rounds=4, n_parts=4).to_pylist())))
            costs = sorted(map(tuple, (r.values() for r in
                           bellman_ford_costs(
                               ds, seed=0, weight_col="w", max_rounds=4,
                               n_parts=4)
                           .rename_columns(["node", "hops"]).to_pylist())))
        assert hops == costs, tier
        got = dict(hops)
        assert got[83] == 4 and 84 not in got, tier      # hop cap
        assert not {95, 96, 97} & set(got), kw


def test_snapshot_diff_null_lists_vs_empty_lists(ray_session):
    """A null list<struct> row must (a) not misalign the hashes of the
    rows after it in the same block, and (b) hash differently from an
    empty list — the r3 ADVICE null-flatten finding."""
    import ray.data

    from mdvalidate_ray.functions.relational import snapshot_diff

    span_t = pa.list_(pa.struct([("kind", pa.string()),
                                 ("text", pa.string())]))

    def spans(rows):
        return pa.array(rows, span_t)

    # old: k=1 null, k=2 [a], k=3 [b]  /  new: k=1 [], k=2 [a], k=3 [b]
    old = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "spans": spans([None,
                        [{"kind": "t", "text": "a"}],
                        [{"kind": "t", "text": "b"}]])})
    new = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "spans": spans([[],
                        [{"kind": "t", "text": "a"}],
                        [{"kind": "t", "text": "b"}]])})
    got = snapshot_diff(ray.data.from_arrow(old),
                        ray.data.from_arrow(new),
                        key_col="k", compare_cols=["spans"],
                        n_parts=2).to_pandas()
    got_map = dict(zip(got["k"].astype(int), got["status"]))
    # null != empty → k=1 changed; rows AFTER the null stay aligned →
    # k=2 and k=3 unchanged (absent from the diff)
    assert got_map == {1: "changed"}

    # identical snapshots with a null mid-block → empty diff
    same = snapshot_diff(ray.data.from_arrow(old),
                         ray.data.from_arrow(old),
                         key_col="k", compare_cols=["spans"],
                         n_parts=2).to_pandas()
    assert len(same) == 0


def test_skyline_2d_empty_blocks_keep_schema(ray_session):
    """Blocks with zero rows must still carry the _sky groupby key —
    more blocks than rows forces empty blocks through the local stage."""
    import ray.data

    from mdvalidate_ray.functions.relational import skyline_2d

    tbl = pa.table({"x": pa.array([1, 5, 3], pa.int64()),
                    "y": pa.array([9, 2, 7], pa.int64())})
    got = skyline_2d(ray.data.from_arrow(tbl).repartition(8),
                     x_col="x", y_col="y").to_pandas()
    pts = set(zip(got["x"].astype(int), got["y"].astype(int)))
    assert pts == {(1, 9), (5, 2), (3, 7)}


def test_unpivot_resolves_value_type_once(ray_session):
    """value_type=None resolves the target type ONCE from the dataset
    schema (first value column), so every output block agrees."""
    import ray.data

    from mdvalidate_ray.functions.relational import unpivot

    tbl = pa.table({"id": pa.array([1, 2], pa.int64()),
                    "a": pa.array([1.5, 2.5], pa.float64()),
                    "b": pa.array([3, 4], pa.int32())})
    out = unpivot(ray.data.from_arrow(tbl).repartition(2),
                  id_cols=["id"], value_cols=["a", "b"])
    t = out.to_arrow_refs()
    import ray as _ray
    types = {str(_ray.get(r).schema.field("value").type) for r in t}
    assert types <= {"double"}
    rows = sorted(map(tuple, (r.values() for r in out.take_all())))
    assert rows == [(1, "a", 1.5), (1, "b", 3.0),
                    (2, "a", 2.5), (2, "b", 4.0)]


def test_lance_stub_reader_is_one_shot_and_loud(tmp_path):
    """The stub's reader must behave like a real RecordBatchReader:
    one full pass, then a RE-iteration RAISES — silently yielding zero
    batches (the old generator wrap) hides double-consumption row loss,
    and replaying would make the stub more forgiving than the library
    it stands in for."""
    import pyarrow as pa
    import pytest

    from mdvalidate_ray.sources import lance_stub

    uri = str(tmp_path / "d.lance")
    lance_stub.write_dataset(
        pa.table({"k": list(range(100))}), uri, max_rows_per_file=30)
    reader = lance_stub.LanceDataset(uri).scanner(columns=["k"]) \
        .to_reader()
    assert sum(b.num_rows for b in reader) == 100
    with pytest.raises(ValueError, match="already consumed"):
        list(reader)


def test_read_parquet_pruned_empty_dir_raises(tmp_path):
    """An empty/failed layout must fail loudly with the path in the
    message, not crash deep inside ray.data.read_parquet([])."""
    import pytest

    from mdvalidate_ray.functions.relational import read_parquet_pruned

    d = tmp_path / "nothing"
    d.mkdir()
    with pytest.raises(ValueError, match="no parquet files"):
        read_parquet_pruned(str(d), col="x", lo=0, hi=1)
