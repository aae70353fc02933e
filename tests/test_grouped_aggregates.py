"""Tests for the grouped-aggregate helpers added for the report-shaping
query family: group_mode, group_entropy, group_concat — plus the
end-to-end neardup_purge semantics (pairs → components → representative
keep) on a synthetic chained-duplicate corpus."""

import math

import numpy as np
import pyarrow as pa
import pytest


def _tbl(rows, names):
    cols = list(zip(*rows)) if rows else [[] for _ in names]
    return pa.Table.from_arrays([pa.array(list(c)) for c in cols],
                                names=names)


@pytest.mark.parametrize("blocks", [1, 5])
def test_group_mode_counts_and_ties(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.relational import group_mode

    rows = (
        [("u1", "click")] * 3 + [("u1", "view")] * 5 +
        # u2: tie 2-2 → lexicographically smaller value wins
        [("u2", "buy")] * 2 + [("u2", "add")] * 2 +
        [("u3", "view")]
    )
    ds = ray.data.from_arrow(_tbl(rows, ["u", "e"])).repartition(blocks)
    got = {r["u"]: (r["mode_value"], r["cnt"])
           for r in group_mode(ds, group_col="u",
                               value_col="e").take_all()}
    assert got == {"u1": ("view", 5), "u2": ("add", 2), "u3": ("view", 1)}


@pytest.mark.parametrize("blocks", [1, 4])
def test_group_entropy_known_distributions(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.relational import group_entropy

    rows = (
        # g1: uniform over 4 values → exactly 2 bits → 20000
        [("g1", v) for v in ["a", "b", "c", "d"] * 3] +
        # g2: single value → 0 bits
        [("g2", "x")] * 7 +
        # g3: p = (3/4, 1/4) → 0.811278... bits → 8113
        [("g3", "y")] * 3 + [("g3", "z")]
    )
    ds = ray.data.from_arrow(_tbl(rows, ["g", "v"])).repartition(blocks)
    got = {r["g"]: r["entropy_e4"]
           for r in group_entropy(ds, group_col="g",
                                  value_col="v").take_all()}
    p = np.array([0.75, 0.25])
    want_g3 = int(math.floor(-np.sum(p * np.log2(p)) * 10000 + 0.5))
    assert got == {"g1": 20000, "g2": 0, "g3": want_g3}


@pytest.mark.parametrize("blocks", [1, 3])
def test_group_concat_orders_within_group(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.relational import group_concat

    rows = [("n1", "zeta"), ("n1", "alpha"), ("n1", "mid"),
            ("n2", "solo"), ("n3", "b"), ("n3", "a")]
    ds = ray.data.from_arrow(_tbl(rows, ["n", "s"])).repartition(blocks)
    got = {r["n"]: r["joined"]
           for r in group_concat(ds, group_col="n",
                                 value_col="s").take_all()}
    assert got == {"n1": "alpha,mid,zeta", "n2": "solo", "n3": "a,b"}


def test_neardup_chain_keeps_one_representative(ray_session):
    """A~B and B~C near-dup pairs (A~C never emitted) must still purge
    down to the single min-id representative — the connected-components
    step of the neardup_purge pipeline."""
    import ray.data

    from mdvalidate_ray.functions.dedup import (connected_components,
                                                minhash_near_duplicates,
                                                verify_pairs_jaccard)

    base = ("the quick brown fox jumps over the lazy dog again and again "
            "and keeps running through the quiet green field all day")
    b = base.replace("quiet", "calm")           # near-dup of base
    c = b.replace("lazy", "sleepy")             # near-dup of b
    far = "completely unrelated text about matrix multiplication kernels"
    tbl = pa.Table.from_arrays(
        [pa.array([10, 11, 12, 13], pa.int64()),
         pa.array([base, b, c, far], pa.string())],
        names=["doc_id", "text"])
    docs = ray.data.from_arrow(tbl).materialize()
    cand = minhash_near_duplicates(docs, threshold=0.7, verify="none",
                                   dedup=False)
    verified = verify_pairs_jaccard(cand, docs, threshold=0.7)
    assert isinstance(verified, pa.Table)
    pairs = {(int(a), int(bb)) for a, bb in
             zip(verified.column("doc_a").to_pylist(),
                 verified.column("doc_b").to_pylist())}
    assert (10, 11) in pairs and (11, 12) in pairs
    comp = connected_components(
        ray.data.from_arrow(verified.select(["doc_a", "doc_b"])),
        col_a="doc_a", col_b="doc_b")
    labels = dict(zip(comp.column(0).to_pylist(),
                      comp.column(1).to_pylist()))
    assert labels[10] == labels[11] == labels[12] == 10
    assert 13 not in labels


@pytest.mark.parametrize("blocks", [1, 4])
def test_linear_scorer_exact_and_partition_invariant(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.similarity import (linear_scores,
                                                     score_embeddings_linear)

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(40, 8)).astype(np.float32)
    tbl = pa.Table.from_arrays(
        [pa.array(np.arange(40, dtype=np.int64)),
         pa.array([v.tolist() for v in vecs], pa.list_(pa.float32()))],
        names=["vec_id", "embedding"])
    got = {r["vec_id"]: r["score_u"]
           for r in score_embeddings_linear(
               ray.data.from_arrow(tbl).repartition(blocks)).take_all()}
    idx = np.arange(1, 9, dtype=np.int64)
    w = (((idx * 2654435761) % 2001) - 1000) / 1000.0
    for i in range(40):
        t = vecs[i].astype(np.float64) * w * 1_000_000.0
        terms = np.where(t >= 0, np.floor(t + 0.5),
                         np.ceil(t - 0.5)).astype(np.int64)
        assert got[i] == terms.sum()
    # ragged embedding rejected
    ragged = pa.Table.from_arrays(
        [pa.array([0, 1], pa.int64()),
         pa.array([[1.0, 2.0], [1.0]], pa.list_(pa.float32()))],
        names=["vec_id", "embedding"])
    with pytest.raises(ValueError):
        linear_scores(ragged)


def test_lang_top_words_partition_invariance(ray_session, tmp_path):
    """The grouped vocabulary top-3 is exact regardless of how documents
    split across blocks (a hot word spanning every block still folds to
    one count), and ties resolve (cnt DESC, word ASC)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mdvalidate_ray import queries as Q

    docs = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(["b b b a", "a a c b", "z z z z",
                          "y y z x", "m n", "n m"]),
        "lang": pa.array(["en", "en", "fr", "fr", "de", "de"]),
        "source": pa.array(["s"] * 6),
        "n_chars": pa.array([7, 7, 7, 7, 3, 3], pa.int64())})
    pq.write_table(docs, tmp_path / "documents.parquet")

    got = Q.lang_top_words(str(tmp_path)).to_pandas().sort_values(
        ["lang", "rk"]).reset_index(drop=True)
    want = [
        ("en", "a", 3, 1), ("en", "b", 4, 2), ("en", "c", 1, 3),
        ("de", "m", 2, 1), ("de", "n", 2, 2),
        ("fr", "z", 5, 1), ("fr", "y", 2, 2), ("fr", "x", 1, 3),
    ]
    # en: b=4 > a=3 > c=1 ; de tie m/n=2 -> m first
    want = sorted([(l, w, c) for l, w, c, _ in want])
    got_rows = sorted(zip(got["lang"], got["word"], got["cnt"]))
    assert [(l, w, int(c)) for l, w, c in got_rows] == want
    en = got[got["lang"] == "en"].sort_values("rk")
    assert list(en["word"]) == ["b", "a", "c"]
    de = got[got["lang"] == "de"].sort_values("rk")
    assert list(de["word"]) == ["m", "n"]


def test_event_transitions_matches_naive(ray_session, tmp_path):
    """Adjacent-pair transition counts equal a naive per-user scan,
    with users straddling input blocks and ts ties broken by event_id."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mdvalidate_ray import queries as Q

    rng = np.random.default_rng(17)
    n = 300
    users = rng.integers(0, 12, n)
    ts_us = rng.integers(0, 50, n) * 1_000_000
    types = rng.choice(["a", "b", "c"], n)
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array(ts_us.astype("int64")).cast(pa.timestamp("us")),
        "user_id": pa.array(users.astype(np.int64)),
        "event_type": pa.array(types.tolist()),
        "value": pa.array(np.zeros(n)),
        "props": pa.array(["{}"] * n)})
    pq.write_table(t, tmp_path / "events.parquet")

    got = Q.event_transitions(str(tmp_path)).to_pandas()
    got_map = {(r.prev_type, r.next_type): int(r.cnt)
               for r in got.itertuples()}

    rows = sorted(zip(users.tolist(), ts_us.tolist(), range(n),
                      types.tolist()))
    want: dict = {}
    for i in range(1, len(rows)):
        if rows[i][0] == rows[i - 1][0]:
            k = (rows[i - 1][3], rows[i][3])
            want[k] = want.get(k, 0) + 1
    assert got_map == want


# --- group_approx_distinct (per-group HLL) -----------------------------------

@pytest.mark.parametrize("blocks", [1, 6])
def test_group_approx_distinct_tracks_exact(ray_session, blocks):
    import ray.data

    from mdvalidate_ray.functions.relational import (group_approx_distinct,
                                                     group_count_distinct)

    rows = []
    for g, n_distinct in [("a", 5), ("b", 400), ("c", 3000)]:
        for i in range(n_distinct):
            rows.append((g, f"{g}-user-{i}"))
            rows.append((g, f"{g}-user-{i % max(1, n_distinct // 2)}"))
    ds = ray.data.from_arrow(_tbl(rows, ["g", "u"])).repartition(blocks)

    exact = {r["g"]: r["n_distinct"] for r in group_count_distinct(
        ds, group_col="g", distinct_col="u").take_all()}
    approx = {r["g"]: r["approx_distinct"] for r in group_approx_distinct(
        ds, group_col="g", distinct_col="u", p=12).take_all()}
    assert set(approx) == {"a", "b", "c"}
    assert exact == {"a": 5, "b": 400, "c": 3000}
    for g in exact:
        rel = abs(approx[g] - exact[g]) / exact[g]
        assert rel < 0.05, (g, approx[g], exact[g])


def test_group_approx_distinct_deterministic(ray_session):
    import ray.data

    from mdvalidate_ray.functions.relational import group_approx_distinct

    rows = [("g", f"v{i}") for i in range(1000)]
    ds = ray.data.from_arrow(_tbl(rows, ["g", "u"]))
    a = group_approx_distinct(ds, group_col="g", distinct_col="u").take_all()
    b = group_approx_distinct(
        ds.repartition(5), group_col="g", distinct_col="u").take_all()
    # register max-fold is order-independent: same estimate at any blocking
    assert a == b
