"""Link-graph analytics: distributed PageRank by power iteration.

The web-scale authority-scoring primitive (Page et al. 1999; the
reference engine has no graph analog — this extends the training-data
operator family like k-means and connected components in this repo).

Scale shape (mirrors kmeans_fit / the CC broadcast tier):

* edges symmetrize/materialize ONCE and are re-read from the object
  store each iteration — never re-shuffled;
* out-degrees are computed once by the same per-block pre-combine +
  coarse-bucket fold as every other exact group-sum here;
* per iteration, the rank vector broadcasts via ``ray.put`` as one
  sorted (nodes, ranks) pair; each edge block emits per-block
  pre-combined ``Σ rank[src]/deg[src]`` partials for its dst nodes
  (``np.add.at``), a bounded exchange on ``dst`` folds
  them, and ≤ |nodes| rows reach the driver — k×|nodes| traffic per
  iteration, nothing corpus-sized;
* deterministic: fixed iteration count, canonical (sorted-node) fold
  order, no data-dependent float compares.

Like the CC broadcast tier this assumes the NODE VECTOR (not the edge
set) fits on the driver (~10⁸–10⁹ nodes at 16 B); past that, ranks
co-partition with edges by hash(node) the same way
``_connected_components_starring`` partitions labels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc  # noqa: F401  (parity with sibling modules)

from mdvalidate_ray import tiers


def _hash_split(blocks: list, schema: pa.Schema, key: str,
                n_parts: int) -> list:
    """Split edge block refs by ``exchange.key_bucket(key)`` in one
    ``num_returns`` task per block, the one-time setup of every
    cached-edge-bucket tier.  Returns one list per bucket holding that
    bucket's piece ref of every block, in block order.  ``n_parts``
    clamps to >= 2 (``num_returns=1`` hands back a bare ObjectRef, not
    a one-element list), so callers take the bucket count from the
    result's length.  An empty block (materialize() empties carry no
    schema) splits into empty tables of ``schema``."""
    import ray

    from mdvalidate_ray.exchange import key_bucket

    n_parts = max(n_parts, 2)

    @ray.remote(num_cpus=1)
    def split(tbl: pa.Table):
        if tbl.num_rows == 0:
            return (schema.empty_table(),) * n_parts
        bk_v = key_bucket(tbl.column(key), n_parts)
        return tuple(tbl.filter(pa.array(bk_v == b))
                     for b in range(n_parts))

    splits = [split.options(num_returns=n_parts).remote(b) for b in blocks]
    return [[sp[b] for sp in splits] for b in range(n_parts)]


def _pagerank_copartition(edges, *, damping: float, n_iter: int,
                          n_parts: int) -> pa.Table:
    """pagerank's past-the-driver-budget tier — the CACHED-EDGE-BUCKET
    iteration (the kmeans/mmr cached-round pattern applied to a graph):

    * SETUP, once: every materialized edge block splits into
      ``n_parts`` hash(src) sub-tables via ``num_returns`` tasks, so
      per-bucket edge refs live in plasma for the whole run — edges
      are NEVER re-shuffled per iteration (the naive state-as-Dataset
      variant re-exchanged the full edge list every round, which
      measured ~100× the broadcast tier at 1.7M edges);
      the (node, deg) state splits the same way, one state table ref
      per bucket.
    * PER ITERATION, two task waves and only NODE-sized data moves:
      wave 1, one task per src-bucket, maps its state's shares into
      its cached edge blocks and emits ``n_parts`` per-dst-bucket
      contribution partials (``num_returns`` → refs, nothing through
      the driver); wave 2, one task per dst-bucket, folds its incoming
      partials in sorted (node, contrib) order — deterministic float
      addition — applies the rank update, and returns (new state ref,
      scalar dangling partial).  The driver handles only object refs
      and two scalars per round.

    The edge split is :func:`_hash_split`, shared with
    :func:`_k_core_cached` and :func:`_min_plus_cached`, whose per-round
    peel and frontier tables play the share wave's part.  Each bucket's
    pieces stay one ref per block here, so the contribution fold keeps
    its block order.  Deterministic to ~1e-12 vs the broadcast tier
    (different float-addition grouping;
    test_pagerank_forced_copartition_tier_parity)."""
    import ray

    from mdvalidate_ray.exchange import key_bucket

    # ---- setup: split edges and build per-bucket (node, deg) state --
    blocks = list(edges.to_arrow_refs())
    if not blocks:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.float64())],
            names=["node", "rank"])
    edge_refs = _hash_split(blocks, pa.schema([("src", pa.int64()),
                                               ("dst", pa.int64())]),
                            "src", n_parts)
    n_parts = len(edge_refs)

    @ray.remote(num_cpus=1)
    def deg_split(tbl: pa.Table):
        """Per-block (node, deg) partials, split by hash(node)."""
        if tbl.num_rows == 0:
            e = pa.schema([("node", pa.int64()),
                           ("deg", pa.int64())]).empty_table()
            return tuple(e for _ in range(n_parts))
        src = np.asarray(tbl.column("src"), dtype=np.int64)
        dst = np.asarray(tbl.column("dst"), dtype=np.int64)
        u, c = np.unique(src, return_counts=True)
        du = np.unique(dst)
        nodes = np.concatenate([u, du])
        degs = np.concatenate([c.astype(np.int64),
                               np.zeros(len(du), dtype=np.int64)])
        bk_v = key_bucket(nodes, n_parts)
        return tuple(pa.table({"node": pa.array(nodes[bk_v == b]),
                               "deg": pa.array(degs[bk_v == b])})
                     for b in range(n_parts))

    @ray.remote(num_cpus=1)
    def init_state(*pieces):
        """Fold one bucket's (node, deg) partials into its state."""
        t = pa.concat_tables(list(pieces))
        nodes_np = t.column("node").to_numpy(zero_copy_only=False)
        deg_np = t.column("deg").to_numpy(zero_copy_only=False)
        u, inv = np.unique(nodes_np, return_inverse=True)
        acc = np.zeros(len(u), dtype=np.int64)
        np.add.at(acc, inv, deg_np)
        return pa.table({"node": pa.array(u), "deg": pa.array(acc)})

    d_splits = [deg_split.options(num_returns=n_parts).remote(b)
                for b in blocks]
    state_refs = [init_state.remote(*[sp[b] for sp in d_splits])
                  for b in range(n_parts)]
    sizes = ray.get([ray.remote(num_cpus=0)(
        lambda t: t.num_rows).remote(s_) for s_ in state_refs])
    n = int(sum(sizes))
    if n == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.float64())],
            names=["node", "rank"])

    @ray.remote(num_cpus=1)
    def add_rank(state: pa.Table):
        r0 = np.full(state.num_rows, 1.0 / n)
        d0 = state.column("deg").to_numpy(zero_copy_only=False)
        return (state.append_column("rank", pa.array(r0)),
                float(r0[d0 == 0].sum()))

    init = [add_rank.options(num_returns=2).remote(s_)
            for s_ in state_refs]
    state_refs = [i[0] for i in init]
    dangling = float(sum(ray.get([i[1] for i in init])))

    # ---- per-iteration task waves --------------------------------
    @ray.remote(num_cpus=1)
    def contrib(state: pa.Table, *edge_tbls):
        sn = state.column("node").to_numpy(zero_copy_only=False)
        deg_np = state.column("deg").to_numpy(zero_copy_only=False)
        r = state.column("rank").to_numpy(zero_copy_only=False)
        share = r / np.maximum(deg_np, 1)
        acc: dict = {}
        for et in edge_tbls:
            if et.num_rows == 0:
                continue
            src = np.asarray(et.column("src"), dtype=np.int64)
            dst = np.asarray(et.column("dst"), dtype=np.int64)
            sh = share[np.searchsorted(sn, src)]
            bk_v = key_bucket(dst, n_parts)
            for b in np.unique(bk_v):
                m = bk_v == b
                u, inv = np.unique(dst[m], return_inverse=True)
                a = np.zeros(len(u), dtype=np.float64)
                np.add.at(a, inv, sh[m])
                prev = acc.get(int(b))
                if prev is None:
                    acc[int(b)] = [u, a]
                else:
                    # merge into the running per-bucket partial
                    cu = np.concatenate([prev[0], u])
                    ca = np.concatenate([prev[1], a])
                    o = np.argsort(cu, kind="stable")
                    cu, ca = cu[o], ca[o]
                    st = np.flatnonzero(np.concatenate(
                        ([True], cu[1:] != cu[:-1])))
                    acc[int(b)] = [cu[st], np.add.reduceat(ca, st)]
        empty = pa.schema([("node", pa.int64()),
                           ("contrib", pa.float64())]).empty_table()
        return tuple(
            pa.table({"node": pa.array(acc[b][0]),
                      "contrib": pa.array(acc[b][1])})
            if b in acc else empty for b in range(n_parts))

    @ray.remote(num_cpus=1)
    def merge(state: pa.Table, dang: float, *contrib_tbls):
        u = state.column("node").to_numpy(zero_copy_only=False)
        deg_np = state.column("deg").to_numpy(zero_copy_only=False)
        parts = [t for t in contrib_tbls if t.num_rows]
        incoming = np.zeros(len(u), dtype=np.float64)
        if parts:
            ct = pa.concat_tables(parts)
            cn = ct.column("node").to_numpy(zero_copy_only=False)
            cv = ct.column("contrib").to_numpy(zero_copy_only=False)
            o = np.lexsort((cv, cn))
            cn, cv = cn[o], cv[o]
            st = np.flatnonzero(np.concatenate(
                ([True], cn[1:] != cn[:-1])))
            incoming[np.searchsorted(u, cn[st])] =                 np.add.reduceat(cv, st)
        rank = ((1.0 - damping) / n
                + damping * (incoming + dang / n))
        out = pa.table({"node": state.column("node"),
                        "deg": state.column("deg"),
                        "rank": pa.array(rank)})
        return out, float(rank[deg_np == 0].sum())

    for _ in range(n_iter):
        waves = [contrib.options(num_returns=n_parts).remote(
            state_refs[b], *edge_refs[b]) for b in range(n_parts)]
        outs = [merge.options(num_returns=2).remote(
            state_refs[b2], dangling,
            *[waves[b][b2] for b in range(n_parts)])
            for b2 in range(n_parts)]
        state_refs = [o[0] for o in outs]
        dangling = float(sum(ray.get([o[1] for o in outs])))

    tbls = [t for t in ray.get(state_refs) if t.num_rows]
    out = (pa.concat_tables(tbls).select(["node", "rank"]) if tbls
           else pa.table({"node": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.float64())}))
    idx = pc.sort_indices(out, sort_keys=[("node", "ascending")])
    return out.take(idx)


def pagerank(edges_ds, *, col_a: str = "src", col_b: str = "dst",
             damping: float = 0.85, n_iter: int = 10,
             symmetric: bool = True, n_parts: int = 16) -> pa.Table:
    """PageRank over an edge Dataset → (node, rank) table.

    ``symmetric=True`` treats edges as undirected (each edge contributes
    both ways), which also guarantees no dangling nodes; with
    ``symmetric=False`` dangling mass is redistributed uniformly (the
    standard correction) so ranks still sum to 1.

    THREE size tiers, :func:`~mdvalidate_ray.tiers.plan_tier` on the
    symmetrized edges at 16 B each (same rationale as
    ``connected_components``): on the ``local`` tier the edge set is no
    bigger than one rank broadcast, so k per-iteration Dataset launches
    are pure overhead — collect the arrays once and run the identical
    iteration in-process.  On ``broadcast``, the rank vector lives on
    the driver and broadcasts per iteration while contributions fold
    through ``bucketed_group_sum``.  On ``partitioned``, the
    (node, deg, rank) state STAYS a Dataset: each iteration
    is one share⋈edges co-partition on ``hash(src)`` (per-bucket
    per-destination pre-sums) and one state∪partials min-merge on
    ``hash(node)`` with a sorted in-bucket fold — nothing node-sized on
    the driver; only the scalar dangling mass folds per round.  The
    in-bucket fold sorts (node, contrib) before summing, so float
    results match the broadcast tier to ~1e-12 (different addition
    grouping; pinned with that tolerance by
    test_pagerank_forced_copartition_tier_parity).
    """
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    def sym(b: pa.Table) -> pa.Table:
        a = b.column(col_a).cast(pa.int64()).combine_chunks()
        c = b.column(col_b).cast(pa.int64()).combine_chunks()
        if symmetric:
            return pa.Table.from_arrays(
                [pa.concat_arrays([a, c]), pa.concat_arrays([c, a])],
                names=["src", "dst"])
        return pa.Table.from_arrays([a, c], names=["src", "dst"])

    edges = edges_ds.map_batches(sym, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    tier = tiers.plan_tier(edges.count(), 16)
    if tier == "partitioned":
        return _pagerank_copartition(edges, damping=damping,
                                     n_iter=n_iter, n_parts=n_parts)
    if tier == "local":
        tbls = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        if not tbls:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.float64())],
                names=["node", "rank"])
        et = pa.concat_tables(tbls).combine_chunks()
        src = np.asarray(et.column("src"), dtype=np.int64)
        dst = np.asarray(et.column("dst"), dtype=np.int64)
        all_nodes = np.unique(np.concatenate([src, dst]))
        si = np.searchsorted(all_nodes, src)
        di = np.searchsorted(all_nodes, dst)
        n = len(all_nodes)
        deg = np.bincount(si, minlength=n).astype(np.int64)
        ranks = np.full(n, 1.0 / n)
        for _ in range(n_iter):
            share = ranks / np.maximum(deg, 1)
            incoming = np.zeros(n, dtype=np.float64)
            np.add.at(incoming, di, share[si])
            dangling = float(ranks[deg == 0].sum())
            ranks = (1.0 - damping) / n + damping * (incoming
                                                     + dangling / n)
        return pa.Table.from_arrays(
            [pa.array(all_nodes, pa.int64()), pa.array(ranks,
                                                       pa.float64())],
            names=["node", "rank"])

    def deg_part(b: pa.Table) -> pa.Table:
        src = np.asarray(b.column("src"), dtype=np.int64)
        u, c = np.unique(src, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(u), pa.array(c.astype(np.int64))],
            names=["node", "deg"])

    deg_tbls = [t for t in ray.get(
        bucketed_group_sum(
            edges.map_batches(deg_part, batch_format="pyarrow",
                              zero_copy_batch=True),
            key="node", sum_cols=["deg"], n_parts=n_parts)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not deg_tbls:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.float64())],
            names=["node", "rank"])
    dt = pa.concat_tables(deg_tbls).combine_chunks()
    order = pc.sort_indices(dt, sort_keys=[("node", "ascending")])
    dt = dt.take(order)
    # every node with only in-edges still needs a rank slot
    dst_nodes = [t for t in ray.get(
        edges.map_batches(
            lambda b: pa.Table.from_arrays(
                [pa.array(np.unique(np.asarray(b.column("dst"),
                                               dtype=np.int64)))],
                names=["node"]),
            batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    all_nodes = np.unique(np.concatenate(
        [np.asarray(dt.column("node"), dtype=np.int64)]
        + [np.asarray(t.column("node"), dtype=np.int64)
           for t in dst_nodes]))
    deg = np.zeros(len(all_nodes), dtype=np.int64)
    deg[np.searchsorted(all_nodes,
                        np.asarray(dt.column("node"), dtype=np.int64))] = \
        np.asarray(dt.column("deg"), dtype=np.int64)
    n = len(all_nodes)
    ranks = np.full(n, 1.0 / n)

    part_schema = pa.schema([("node", pa.int64()), ("contrib",
                                                    pa.float64())])

    for _ in range(n_iter):
        ref = ray.put((all_nodes, ranks / np.maximum(deg, 1)))

        def contrib(b: pa.Table) -> pa.Table:
            nd, share = ray.get(ref)
            src = np.asarray(b.column("src"), dtype=np.int64)
            dst = np.asarray(b.column("dst"), dtype=np.int64)
            s = share[np.searchsorted(nd, src)]
            u, inv = np.unique(dst, return_inverse=True)
            acc = np.zeros(len(u), dtype=np.float64)
            np.add.at(acc, inv, s)
            return pa.Table.from_arrays(
                [pa.array(u), pa.array(acc)], schema=part_schema)

        folded = [t for t in ray.get(
            bucketed_group_sum(
                edges.map_batches(contrib, batch_format="pyarrow",
                                  zero_copy_batch=True),
                key="node", sum_cols=["contrib"], n_parts=n_parts)
            .materialize().to_arrow_refs()) if t.num_rows]
        incoming = np.zeros(n, dtype=np.float64)
        if folded:
            ft = pa.concat_tables(folded).combine_chunks()
            fo = pc.sort_indices(ft, sort_keys=[("node", "ascending")])
            ft = ft.take(fo)
            incoming[np.searchsorted(
                all_nodes, np.asarray(ft.column("node"),
                                      dtype=np.int64))] = \
                np.asarray(ft.column("contrib"), dtype=np.float64)
        dangling = float(ranks[deg == 0].sum())
        ranks = ((1.0 - damping) / n
                 + damping * (incoming + dangling / n))

    return pa.Table.from_arrays(
        [pa.array(all_nodes, pa.int64()), pa.array(ranks, pa.float64())],
        names=["node", "rank"])


def cooccurrence_edges(ds, *, group_col: str, item_col: str,
                       n_parts: int = 32):
    """Distinct undirected co-occurrence edges: one ``(u, v)`` row
    (``u < v``, node ids) per item pair sharing at least one group —
    the market-basket / co-purchase / co-citation graph builder.

    Groups may straddle input blocks, so rows first co-partition on the
    group (every copy of one group meets in ONE bucket); per bucket the pair expansion is vectorized per group-SIZE
    class (sort by (group, item), dedupe, one ``triu_indices``
    broadcast per distinct size — the bounded-loop pattern shared with
    trigram_posting_pairs), and a final bucketed distinct collapses
    pairs produced by different groups.  Pair fan-out is O(Σ s²) —
    cap pathological group sizes upstream if the corpus has them."""
    import numpy as np

    from mdvalidate_ray.exchange import by_bucket
    from mdvalidate_ray.functions.relational import bucketed_distinct

    empty = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    _TRIU: dict = {}

    def per_bucket(g: pa.Table) -> pa.Table:
        t = g.select([group_col, item_col]).group_by(
            [group_col, item_col]).aggregate([])
        if t.num_rows == 0:
            return empty.empty_table()
        idx = pc.sort_indices(t, sort_keys=[(group_col, "ascending"),
                                            (item_col, "ascending")])
        t = t.take(idx)
        grp = np.asarray(t.column(group_col), dtype=np.int64)
        item = np.asarray(t.column(item_col), dtype=np.int64)
        n = len(grp)
        change = np.ones(n, dtype=bool)
        change[1:] = grp[1:] != grp[:-1]
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, n))
        out_u, out_v = [], []
        for s in np.unique(counts):
            if s < 2:
                continue
            s = int(s)
            if s not in _TRIU:
                _TRIU[s] = np.triu_indices(s, k=1)
            ti, tj = _TRIU[s]
            st = starts[counts == s]
            rows = item[st[:, None] + np.arange(s)]
            a = rows[:, ti].reshape(-1)
            b2 = rows[:, tj].reshape(-1)
            out_u.append(np.minimum(a, b2))
            out_v.append(np.maximum(a, b2))
        if not out_u:
            return empty.empty_table()
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(out_u)),
             pa.array(np.concatenate(out_v))], names=["u", "v"])

    pairs = by_bucket(ds.select_columns([group_col, item_col]), group_col,
                      per_bucket, n_parts)
    return bucketed_distinct(pairs, ["u", "v"], n_parts=n_parts)


def triangle_counts(edges_ds, *, col_a: str = "u", col_b: str = "v",
                    n_parts: int = 32, assume_distinct: bool = False
                    ) -> "object":
    """EXACT per-node triangle counts over an undirected edge Dataset —
    the local-clustering primitive (with connected_components and
    pagerank this completes the graph family).  Returns a Dataset of
    (node, n_tri) rows; the global triangle count is Σ n_tri / 3.

    Classic degree-ordered node-iterator (Schank & Wagner 2005),
    MapReduce-shaped (Suri & Vassilvitskii 2011, "Counting triangles
    and the curse of the last reducer"):

    * canonical distinct edges (min, max) via ONE bucketed-distinct
      exchange (skipped when the caller guarantees distinct canonical
      input with ``assume_distinct=True`` — e.g. straight out of
      :func:`cooccurrence_edges` — the composition-fusion that avoids
      paying the same exchange twice);
    * degrees from per-block partials folded ON THE DRIVER (the same
      node-vector-fits assumption as pagerank's broadcast tier — edge
      rows never centralize, only ≤|nodes| partial rows per block);
    * each edge ORIENTS from its lower-(deg, id) endpoint, bounding
      out-degree by O(√m) and each wedge to ONE generating center;
      wedges expand vectorized per out-degree size class inside
      hash(src) buckets (the wedge-generation exchange);
    * the CLOSING probe is tiered like referential/connected_components
      (:func:`~mdvalidate_ray.tiers.plan_tier` at 8 B per edge key):
      within the budget the sorted fused ``u·2³² + v`` edge-key array
      broadcasts once via ``ray.put`` and every wedge closes IN PLACE
      at its generating bucket — Σ out-deg² wedge rows never enter an
      exchange; past it, wedge pair keys meet the edge keys in one
      :func:`~mdvalidate_ray.exchange.co_partition` on the pair and
      close by sorted ``searchsorted`` probe per bucket (the 100-TB
      shape: nothing broadcast-sized required, skew lands on the pair
      hash).  Matched wedges credit
      all three corners through per-bucket partial counts + one final
      fold (driver fold within the budget, coarse-bucket fold past it).

    Wedge volume is Σ out-deg² (the algorithm's intrinsic cost); in
    the broadcast tier it stays inside worker heaps, in the exchange
    tier it streams through the object store.  Node ids must fit
    uint32 for the pair fuse (checked)."""
    import ray
    import ray.data

    from mdvalidate_ray.exchange import by_bucket, co_partition
    from mdvalidate_ray.functions.relational import (bucketed_distinct,
                                                     bucketed_group_sum)

    canon = edges_ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.min_element_wise(b.column(col_a).cast(pa.int64()),
                                 b.column(col_b).cast(pa.int64())),
             pc.max_element_wise(b.column(col_a).cast(pa.int64()),
                                 b.column(col_b).cast(pa.int64()))],
            names=["u", "v"]),
        batch_format="pyarrow", zero_copy_batch=True).filter(
        expr="u != v")
    if assume_distinct:
        edges = canon.materialize()
    else:
        edges = bucketed_distinct(canon, ["u", "v"],
                                  n_parts=n_parts).materialize()

    empty_out = pa.Table.from_arrays(
        [pa.array([], pa.int64()), pa.array([], pa.int64())],
        names=["node", "n_tri"])

    # --- degrees: per-block partials, driver fold (no exchange) ------
    def deg_part(b: pa.Table) -> pa.Table:
        both = np.concatenate([np.asarray(b.column("u"), dtype=np.int64),
                               np.asarray(b.column("v"),
                                          dtype=np.int64)])
        nd, cnt = np.unique(both, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(nd), pa.array(cnt.astype(np.int64))],
            names=["node", "deg"])

    parts = [t for t in ray.get(
        edges.map_batches(deg_part, batch_format="pyarrow",
                          zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        return ray.data.from_arrow(empty_out)
    allp = pa.concat_tables(parts).combine_chunks()
    pn = np.asarray(allp.column("node"), dtype=np.int64)
    pd_ = np.asarray(allp.column("deg"), dtype=np.int64)
    nodes, inv = np.unique(pn, return_inverse=True)
    degs = np.zeros(len(nodes), dtype=np.int64)
    np.add.at(degs, inv, pd_)
    if nodes.size and int(nodes.max()) >= 2**32:
        raise ValueError("triangle_counts: node ids must fit uint32 "
                         "for the fused pair key")
    deg_ref = ray.put((nodes, degs))

    SHIFT = np.int64(2**32)
    n_edges = edges.count()
    small = tiers.plan_tier(n_edges, 8) != "partitioned"
    edge_key_ref = None
    if small:
        # sorted fused edge-key array broadcasts once (8 B per edge)
        keys = np.sort(np.concatenate(
            [np.asarray(t.column("u"), dtype=np.int64) * SHIFT
             + np.asarray(t.column("v"), dtype=np.int64)
             for t in ray.get(edges.to_arrow_refs()) if t.num_rows]))
        edge_key_ref = ray.put(keys)

    def orient(b: pa.Table) -> pa.Table:
        nd, dg = ray.get(deg_ref)
        u = np.asarray(b.column("u"), dtype=np.int64)
        v = np.asarray(b.column("v"), dtype=np.int64)
        du = dg[np.searchsorted(nd, u)]
        dv = dg[np.searchsorted(nd, v)]
        # lower (deg, id) endpoint generates the wedge
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pa.Table.from_arrays(
            [pa.array(np.where(u_first, u, v)),
             pa.array(np.where(u_first, v, u))], names=["src", "dst"])

    _TRIU: dict = {}

    def _wedge_pairs(g: pa.Table):
        """Per-bucket vectorized wedge expansion → (pair_keys, centers)
        numpy arrays (size-class triu pattern)."""
        idx = pc.sort_indices(g, sort_keys=[("src", "ascending"),
                                            ("dst", "ascending")])
        s_ = g.take(idx)
        src = np.asarray(s_.column("src"), dtype=np.int64)
        dst = np.asarray(s_.column("dst"), dtype=np.int64)
        n = len(src)
        if n == 0:
            return None
        change = np.ones(n, dtype=bool)
        change[1:] = src[1:] != src[:-1]
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, n))
        pairs_out, centers_out = [], []
        for s in np.unique(counts):
            if s < 2:
                continue
            s = int(s)
            if s not in _TRIU:
                _TRIU[s] = np.triu_indices(s, k=1)
            ti, tj = _TRIU[s]
            st = starts[counts == s]
            rows = dst[st[:, None] + np.arange(s)]
            a = rows[:, ti].reshape(-1)
            b2 = rows[:, tj].reshape(-1)
            pairs_out.append(np.minimum(a, b2) * SHIFT
                             + np.maximum(a, b2))
            centers_out.append(np.repeat(src[st], len(ti)))
        if not pairs_out:
            return None
        return np.concatenate(pairs_out), np.concatenate(centers_out)

    count_schema = pa.schema([("node", pa.int64()), ("n", pa.int64())])

    def _credit(tw: np.ndarray, wc: np.ndarray) -> pa.Table:
        corners = np.concatenate([tw // SHIFT, tw % SHIFT, wc])
        nd, cnt = np.unique(corners, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(nd), pa.array(cnt.astype(np.int64))],
            schema=count_schema)

    oriented = edges.map_batches(orient, batch_format="pyarrow",
                                 zero_copy_batch=True)

    if small:
        def close_local(g: pa.Table) -> pa.Table:
            w = _wedge_pairs(g)
            if w is None:
                return count_schema.empty_table()
            wp, wc = w
            ek = ray.get(edge_key_ref)
            pos = np.searchsorted(ek, wp)
            pos[pos == ek.size] = 0
            hit = ek[pos] == wp
            if not hit.any():
                return count_schema.empty_table()
            return _credit(wp[hit], wc[hit])

        partials = [t for t in ray.get(
            by_bucket(oriented, "src", close_local, n_parts)
            .materialize().to_arrow_refs()) if t.num_rows]
        if not partials:
            return ray.data.from_arrow(empty_out)
        pt = pa.concat_tables(partials).combine_chunks()
        cn = np.asarray(pt.column("node"), dtype=np.int64)
        cc = np.asarray(pt.column("n"), dtype=np.int64)
        out_nodes, inv = np.unique(cn, return_inverse=True)
        out_cnt = np.zeros(len(out_nodes), dtype=np.int64)
        np.add.at(out_cnt, inv, cc)
        return ray.data.from_arrow(pa.Table.from_arrays(
            [pa.array(out_nodes), pa.array(out_cnt)],
            names=["node", "n_tri"]))

    # --- exchange tier (the 100-TB shape) ----------------------------
    wedge_schema = pa.schema([("pair", pa.int64()),
                              ("center", pa.int64())])

    def wedges(g: pa.Table) -> pa.Table:
        w = _wedge_pairs(g)
        if w is None:
            return wedge_schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(w[0]), pa.array(w[1])], schema=wedge_schema)

    wedge_rows = by_bucket(oriented, "src", wedges, n_parts)

    def edge_pairs(b: pa.Table) -> pa.Table:
        u = np.asarray(b.column("u"), dtype=np.int64)
        v = np.asarray(b.column("v"), dtype=np.int64)
        return pa.Table.from_arrays([pa.array(u * SHIFT + v)],
                                    names=["pair"])

    def close_and_credit(w: pa.Table, e: pa.Table) -> pa.Table:
        if w.num_rows == 0 or e.num_rows == 0:
            return count_schema.empty_table()
        ek = np.sort(np.asarray(e.column("pair"), dtype=np.int64))
        wp = np.asarray(w.column("pair"), dtype=np.int64)
        pos = np.searchsorted(ek, wp)
        pos[pos == ek.size] = 0
        hit = ek[pos] == wp
        if not hit.any():
            return count_schema.empty_table()
        wc = np.asarray(w.column("center"), dtype=np.int64)
        return _credit(wp[hit], wc[hit])

    partials = co_partition(
        wedge_rows, edges.map_batches(edge_pairs, batch_format="pyarrow",
                                      zero_copy_batch=True),
        close_and_credit, n_parts, on="pair", left_schema=wedge_schema)
    out = bucketed_group_sum(partials, key="node", sum_cols=["n"],
                             n_parts=n_parts)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column("node"), b.column("n").cast(pa.int64())],
            names=["node", "n_tri"]),
        batch_format="pyarrow")


def _k_core_cached(edges_ds, *, k: int, n_parts: int,
                   max_rounds: int) -> pa.Table:
    """k_core's past-the-driver-budget rounds in the CACHED-EDGE-BUCKET
    pattern (_pagerank_copartition's shape): the symmetric edge list
    splits ONCE by ``hash(a)`` (:func:`_hash_split`) into per-bucket
    plasma refs, concatenated once per bucket; each peel
    round is two task waves — per-bucket degree scan + local peel
    detection (a node's a-rows all live in its bucket, so degrees are
    exact locally), then per-bucket drop against the ROUND's peel refs
    (frontier-sized tables passed ref-to-task, never through the
    driver; the driver folds one integer per bucket).  Edges are never
    re-exchanged.  Returns the surviving (node, deg) table."""
    import ray

    deg_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])

    @ray.remote(num_cpus=1)
    def consolidate(*pieces):
        return pa.concat_tables(list(pieces))

    @ray.remote(num_cpus=1)
    def peel_scan(tbl: pa.Table):
        if tbl.num_rows == 0:
            return (deg_schema.empty_table(),
                    pa.table({"node": pa.array([], pa.int64())}), 0)
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        u, c = np.unique(a, return_counts=True)
        peel = u[c < k]
        return (pa.table({"node": pa.array(u),
                          "deg": pa.array(c.astype(np.int64))},
                         schema=deg_schema),
                pa.table({"node": pa.array(peel)}), int(len(peel)))

    @ray.remote(num_cpus=1)
    def drop(tbl: pa.Table, *peels):
        if tbl.num_rows == 0:
            return tbl
        pe = np.sort(np.concatenate(
            [p.column("node").to_numpy(zero_copy_only=False)
             for p in peels] or [np.zeros(0, dtype=np.int64)]))
        if len(pe) == 0:
            return tbl
        a = tbl.column("a").to_numpy(zero_copy_only=False)
        bb = tbl.column("b").to_numpy(zero_copy_only=False)
        ia = np.searchsorted(pe, a)
        ib = np.searchsorted(pe, bb)
        hit_a = (ia < len(pe)) & (pe[np.minimum(ia, len(pe) - 1)] == a)
        hit_b = (ib < len(pe)) & (pe[np.minimum(ib, len(pe) - 1)] == bb)
        return tbl.filter(pa.array(~(hit_a | hit_b)))

    blocks = list(edges_ds.to_arrow_refs())
    if not blocks:
        return deg_schema.empty_table()
    e_refs = [consolidate.remote(*pieces) for pieces in _hash_split(
        blocks, pa.schema([("a", pa.int64()), ("b", pa.int64())]), "a",
        n_parts)]
    for _ in range(max_rounds):
        wave1 = [peel_scan.options(num_returns=3).remote(e)
                 for e in e_refs]
        n_frontier = int(sum(ray.get([w[2] for w in wave1])))
        if n_frontier == 0:
            tbls = [t for t in ray.get([w[0] for w in wave1])
                    if t.num_rows]
            return (pa.concat_tables(tbls) if tbls
                    else deg_schema.empty_table())
        peel_refs = [w[1] for w in wave1]
        e_refs = [drop.remote(e, *peel_refs) for e in e_refs]
    raise RuntimeError(f"k_core did not converge in {max_rounds} rounds")


def k_core(edges_ds, *, k: int, col_a: str = "u", col_b: str = "v",
           n_parts: int = 32, max_rounds: int = 200):
    """k-core membership via iterative peeling (Batagelj–Zaveršnik
    semantics, bulk-synchronous form): repeatedly delete every node
    whose degree in the REMAINING graph is < ``k`` until a fixpoint —
    the standard community/spam-graph density filter next to
    :func:`pagerank` and :func:`triangle_counts`.

    Plan per round, over the symmetric edge list (materialized once,
    then shrinking): per-batch endpoint count combiner → one
    :func:`~mdvalidate_ray.functions.relational.bucketed_group_sum`
    exchange gives exact degrees; the PEEL FRONTIER (nodes with
    ``deg < k``) is the set removed THIS round, not the cumulative
    removal.  Frontier handling is TIERED by
    :func:`~mdvalidate_ray.tiers.plan_tier` at 8 B per frontier node:

    * within the budget — the frontier folds to the
      driver, broadcasts sorted via ``ray.put``, and one vectorized
      ``np.searchsorted`` filter drops edges touching peeled nodes.
    * past it — the frontier never reaches the driver: the remaining
      rounds hand off to :func:`_k_core_cached`, the cached-edge-
      bucket peeler (_pagerank_copartition's pattern — edges split
      ONCE by ``hash(a)`` into per-bucket plasma refs; each round is
      a per-bucket degree/peel scan plus a per-bucket drop against
      ref-passed frontier tables; edges are never re-exchanged,
      measured ~25× the per-round anti-join-exchange variant).  Both
      tiers produce identical results
      (test_k_core_forced_copartition_tier_parity).

    Already-peeled nodes have no edges left, so each round only ships
    its own frontier.  Terminates when a round peels nothing;
    ``max_rounds`` guards pathological chain-shaped graphs (each round
    peels ≥1 node, so rounds ≤ nodes).

    Returns a Dataset of surviving ``(node, deg)`` rows — the degrees
    WITHIN the k-core (all ≥ k).  Exact-integer, so a recursive-CTE SQL
    oracle reproduces it."""
    import ray
    import ray.data

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    sym_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def sym(b: pa.Table) -> pa.Table:
        u = b.column(col_a).to_numpy(zero_copy_only=False).astype(np.int64)
        v = b.column(col_b).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(np.concatenate([u, v])),
             pa.array(np.concatenate([v, u]))], names=["a", "b"])

    cur = edges_ds.map_batches(sym, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()

    def deg_partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema([("a", pa.int64()),
                              ("deg", pa.int64())]).empty_table()
        a = b.column("a").to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(a, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(uniq), pa.array(cnt.astype(np.int64))],
            names=["a", "deg"])

    for rnd in range(max_rounds):
        degs = bucketed_group_sum(
            cur.map_batches(deg_partial, batch_format="pyarrow",
                            zero_copy_batch=True),
            key="a", sum_cols=["deg"], n_parts=n_parts).materialize()
        peel_ds = degs.filter(expr=f"deg < {k}").materialize()
        n_frontier = peel_ds.count()
        if n_frontier == 0:
            return degs.map_batches(
                lambda t: t.rename_columns(["node", "deg"]),
                batch_format="pyarrow", zero_copy_batch=True)
        if tiers.plan_tier(n_frontier, 8) == "partitioned":
            # past-driver-budget rounds: hand the CURRENT shrunken edge
            # set to the cached-edge-bucket peeler (edges split once
            # into plasma, only frontier-sized peel tables move per
            # round) — the _pagerank_copartition pattern; measured
            # ~25x the per-round copartition_antijoin exchange variant
            import ray.data as _rd

            # the cached peeler redoes this round's scan, so it gets
            # the rounds this loop has not used, this one included
            return _rd.from_arrow(_k_core_cached(
                cur, k=k, n_parts=n_parts, max_rounds=max_rounds - rnd))
        else:
            frontier_chunks = [
                blk.column("a").to_numpy(zero_copy_only=False)
                for blk in peel_ds.iter_batches(batch_format="pyarrow")
                if blk.num_rows]
            peel = np.sort(np.concatenate(frontier_chunks))
            peel_ref = ray.put(peel)

            def drop(b: pa.Table) -> pa.Table:
                p = ray.get(peel_ref)
                a = b.column("a").to_numpy(zero_copy_only=False)
                bb = b.column("b").to_numpy(zero_copy_only=False)
                ia = np.searchsorted(p, a)
                ib = np.searchsorted(p, bb)
                hit_a = (ia < len(p)) & \
                    (p[np.minimum(ia, len(p) - 1)] == a)
                hit_b = (ib < len(p)) & \
                    (p[np.minimum(ib, len(p) - 1)] == bb)
                return b.filter(pa.array(~(hit_a | hit_b)))

            nxt = cur.map_batches(drop, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
        cur = nxt
        if cur.count() == 0:
            return ray.data.from_arrow(pa.schema(
                [("node", pa.int64()), ("deg", pa.int64())]).empty_table())
    raise RuntimeError(f"k_core did not converge in {max_rounds} rounds")


_NONE = np.zeros(0, dtype=np.int64)
_WEIGHTED = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                       ("w", pa.int64())])


def _cost_table(node: np.ndarray, cost: np.ndarray) -> pa.Table:
    return pa.table({"node": pa.array(node, pa.int64()),
                     "cost": pa.array(cost, pa.int64())})


def _cols(tbl: pa.Table) -> list:
    """Every column of ``tbl`` as a numpy array."""
    return [c.to_numpy(zero_copy_only=False) for c in tbl.columns]


def _by_src(*pieces: pa.Table) -> pa.Table:
    """The non-empty (src, dst, w) pieces as one table sorted by src, so
    a frontier node's edges are one contiguous run (materialize()
    empties carry no schema, hence the filter)."""
    full = [p for p in pieces if p.num_rows]
    t = pa.concat_tables(full) if full else _WEIGHTED.empty_table()
    return t.take(pc.sort_indices(t, sort_keys=[("src", "ascending")]))


def _min_fold(pairs) -> tuple:
    """(node, cost) candidate pairs folded to distinct ascending nodes,
    each at its least cost."""
    node = np.concatenate([p[0] for p in pairs] + [_NONE])
    cost = np.concatenate([p[1] for p in pairs] + [_NONE])
    if len(node) == 0:
        return _NONE, _NONE
    o = np.argsort(node, kind="stable")
    node = node[o]
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    return node[first], np.minimum.reduceat(cost[o], first)


def _relax(edges, frontier: tuple) -> tuple:
    """One min-plus relaxation out of the (node, cost) frontier over
    src-sorted (src, dst, w) edge arrays: each destination reached and
    its cheapest ``cost + w``."""
    src, dst, w = edges
    fr_node, fr_cost = frontier
    lo = np.searchsorted(src, fr_node, "left")
    n = np.searchsorted(src, fr_node, "right") - lo
    # the frontier nodes' edge runs, gathered back to back
    idx = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    return _min_fold([(dst[idx], np.repeat(fr_cost, n) + w[idx])])


def _min_merge(state: tuple, cands: tuple) -> tuple:
    """Min-merge distinct ascending (node, cost) candidates into the
    ascending (node, cost) state.  Returns the new state and the
    candidates that improved on it, which are the next round's
    frontier."""
    (node, cost), (c_node, c_cost) = state, cands
    i = np.searchsorted(node, c_node)
    found = i < len(node)
    found[found] = node[i[found]] == c_node[found]
    imp = ~found
    imp[found] = c_cost[found] < cost[i[found]]
    cost = cost.copy()
    cost[i[found & imp]] = c_cost[found & imp]
    new = ~found
    return ((np.insert(node, i[new], c_node[new]),
             np.insert(cost, i[new], c_cost[new])),
            (c_node[imp], c_cost[imp]))


def _min_plus_costs(edges_ds, weigh, *, col_a: str, col_b: str, seed: int,
                    max_rounds: int, n_parts: int) -> pa.Table:
    """Single-source shortest-path costs over ≤ ``max_rounds``-edge
    paths of an undirected edge set: the min-plus relaxation core of
    :func:`bfs_hops` (unit weights) and :func:`bellman_ford_costs`.
    ``weigh(batch)`` gives each edge's integer weight, or ``None`` for
    unit weights.  Returns ascending ``(node, cost)`` rows for every
    node reached, the seed at 0 even when it has no edges.

    Each round relaxes only from the nodes the previous round improved:
    a ≤ r-edge path extends a ≤ r−1-edge one whose cost changed in round
    r−1, so this is cost-state-equivalent to relaxing from every reached
    node, and with unit weights the improved set is exactly BFS's
    frontier.  Rounds stop early when nothing improves.  The edges are
    symmetrized and sorted by src once, so a round touches only the
    frontier's edge runs.  THREE tiers,
    :func:`~mdvalidate_ray.tiers.plan_tier` on the symmetrized
    (src, dst, w) edges at 24 B each, all bit-equal
    (test_bfs_forced_copartition_tier_parity,
    test_bellman_forced_copartition_tier_parity):

    * ``local`` — in-process: the edges collect once into
      one src-sorted table and every round runs on the driver (the
      connected_components tradeoff: per-round task launches dominate
      small graphs).
    * ``broadcast`` — each edge block sorts once into a cached
      plasma ref; per round the frontier broadcasts via ``ray.put``,
      one task per block returns its per-destination pre-minned
      candidates, and the driver min-merges them into the (node, cost)
      state.
    * ``partitioned`` — nothing node-sized on the driver:
      :func:`_min_plus_cached`."""
    import ray

    def sym(b: pa.Table) -> pa.Table:
        a, c = (b.column(k).cast(pa.int64()).to_numpy(zero_copy_only=False)
                for k in (col_a, col_b))
        w = (np.ones(len(a), dtype=np.int64) if weigh is None else
             weigh(b).cast(pa.int64()).to_numpy(zero_copy_only=False))
        return pa.table({"src": np.concatenate([a, c]),
                         "dst": np.concatenate([c, a]),
                         "w": np.concatenate([w, w])}, schema=_WEIGHTED)

    edges = edges_ds.map_batches(sym, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    tier = tiers.plan_tier(edges.count(), 24)
    if tier == "partitioned":
        return _min_plus_cached(edges, seed=seed, max_rounds=max_rounds,
                                n_parts=n_parts)
    if tier == "local":
        cols = _cols(_by_src(*ray.get(edges.to_arrow_refs())))

        def relax(frontier: tuple) -> list:
            return [_relax(cols, frontier)]
    else:
        by_src = ray.remote(num_cpus=1)(_by_src)
        refs = [by_src.remote(b) for b in edges.to_arrow_refs()]
        task = ray.remote(num_cpus=1)(
            lambda t, frontier: _relax(_cols(t), frontier))

        def relax(frontier: tuple) -> list:
            fr_ref = ray.put(frontier)
            return ray.get([task.remote(r, fr_ref) for r in refs])

    state = frontier = (np.array([seed], dtype=np.int64),
                        np.zeros(1, dtype=np.int64))
    for _ in range(max_rounds):
        state, frontier = _min_merge(state, _min_fold(relax(frontier)))
        if len(frontier[0]) == 0:
            break
    return _cost_table(*state)


def _min_plus_cached(edges, *, seed: int, max_rounds: int,
                     n_parts: int) -> pa.Table:
    """_min_plus_costs' past-the-driver-budget tier in the
    CACHED-EDGE-BUCKET pattern (_pagerank_copartition's shape): the
    symmetrized edges split ONCE by ``hash(src)`` into per-bucket
    src-sorted plasma refs, and each bucket holds the (node, cost)
    state of its ``hash(node)`` nodes.  Per round, one expand task per
    bucket relaxes its own frontier slice against its cached edges (a
    node's out-edges live in its bucket by construction) and routes the
    per-destination pre-minned candidates to their buckets via
    ``num_returns`` refs; one merge task per bucket min-merges them into
    its state and returns the improved rows as its next frontier.  Only
    frontier-sized tables move, edges are never re-exchanged, and the
    driver sees one count per bucket per round.  The per-round edge
    re-exchange this tier replaced took 44–62 s for five unit-weight
    rounds on the 2.4M-edge sf0.1 part co-purchase graph on 1 CPU;
    this tier takes 1.9 s (BASELINE.md)."""
    import ray

    from mdvalidate_ray.exchange import key_bucket

    buckets = _hash_split(list(edges.to_arrow_refs()), _WEIGHTED, "src",
                          n_parts)
    n_parts = len(buckets)
    by_src = ray.remote(num_cpus=1)(_by_src)
    e_refs = [by_src.remote(*pieces) for pieces in buckets]

    @ray.remote(num_cpus=1)
    def expand(edges_tbl: pa.Table, frontier: pa.Table):
        d, c = _relax(_cols(edges_tbl), _cols(frontier))
        bk_v = key_bucket(d, n_parts)
        return tuple(_cost_table(d[bk_v == b], c[bk_v == b])
                     for b in range(n_parts))

    @ray.remote(num_cpus=1)
    def merge(state: pa.Table, *cands):
        state, improved = _min_merge(
            _cols(state), _min_fold([_cols(t) for t in cands]))
        return (_cost_table(*state), _cost_table(*improved),
                len(improved[0]))

    seed_b = int(key_bucket(np.array([seed], dtype=np.int64),
                              n_parts)[0])
    seed_tbl = _cost_table(np.array([seed]), np.zeros(1, dtype=np.int64))
    state = [ray.put(seed_tbl if b == seed_b else _cost_table(_NONE, _NONE))
             for b in range(n_parts)]
    frontier = state
    for _ in range(max_rounds):
        waves = [expand.options(num_returns=n_parts).remote(
            e_refs[b], frontier[b]) for b in range(n_parts)]
        outs = [merge.options(num_returns=3).remote(
            state[b], *[w[b] for w in waves]) for b in range(n_parts)]
        state = [o[0] for o in outs]
        frontier = [o[1] for o in outs]
        if sum(ray.get([o[2] for o in outs])) == 0:
            break
    out = pa.concat_tables(ray.get(state))
    return out.take(pc.sort_indices(out, sort_keys=[("node", "ascending")]))


def bfs_hops(edges_ds, *, seed: int, col_a: str = "u", col_b: str = "v",
             max_rounds: int = 6, n_parts: int = 32) -> pa.Table:
    """Unweighted single-source shortest hop counts — frontier-expansion
    BFS over an undirected edge set: ``(node, hops)`` for every node
    reachable from ``seed`` within ``max_rounds`` hops (the seed itself
    at 0).  The reachability / blast-radius primitive alongside
    PageRank (influence), k-core (density) and components (identity).

    Hop counts are min-plus costs with every weight 1, so this is
    :func:`_min_plus_costs` with unit weights: its improved-node
    frontier is exactly BFS's, and its three tiers (in-process, a
    broadcast frontier over cached sorted edge blocks, cached edge
    buckets past the budget) are all bit-equal
    (test_bfs_forced_copartition_tier_parity)."""
    out = _min_plus_costs(edges_ds, None, col_a=col_a, col_b=col_b,
                          seed=seed, max_rounds=max_rounds, n_parts=n_parts)
    return out.rename_columns(["node", "hops"])


def bellman_ford_costs(edges_ds, *, seed: int, col_a: str = "u",
                       col_b: str = "v", weight_col: str | None = None,
                       max_rounds: int = 3, n_parts: int = 32
                       ) -> pa.Table:
    """Weighted single-source shortest-path costs — Bellman-Ford
    relaxation rounds over an undirected edge set, the MIN-PLUS
    semiring generalization of :func:`bfs_hops` (which is the
    unit-weight case).  After ``max_rounds`` rounds the result is
    exactly "cheapest cost over paths of ≤ max_rounds edges" — the same
    truncation a hop-tracking recursive SQL oracle expresses, so
    integer weights make the comparison exact.

    Weights come from ``weight_col``, or by default from the endpoints
    as ``1 + (u + v) % 5``.  The rounds run on :func:`_min_plus_costs`,
    relaxing only from the nodes the previous round improved, with the
    same three tiers and gates as bfs_hops, all bit-equal
    (test_bellman_forced_copartition_tier_parity)."""

    def weigh(b: pa.Table):
        if weight_col is not None:
            return b.column(weight_col)
        # default deterministic endpoint-derived weight 1..5 — a pure
        # function of (u, v) any SQL twin can recompute
        s_ = pc.add(b.column(col_a).cast(pa.int64()),
                    b.column(col_b).cast(pa.int64()))
        return pc.add(pc.subtract(s_, pc.multiply(pc.divide(s_, 5), 5)), 1)

    return _min_plus_costs(edges_ds, weigh, col_a=col_a, col_b=col_b,
                           seed=seed, max_rounds=max_rounds, n_parts=n_parts)
