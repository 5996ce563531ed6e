"""Graph metrics over the extracted link graph: PageRank and degree stats.

The reference's graph is consumed by rank-ordered retrieval (RAG over the
code graph); the web-native analog of "which node matters" is PageRank over
the ``links_to`` edge table produced by ``stages/links.py`` (the J4/J8
family, ``import_processor.py:861-983``, ``graph_updater.py:1023-1047``).

Scale design (the whole point):

- **Fixed-point integer arithmetic.** Ranks are int64 in units of
  ``1/scale``; every per-edge contribution is ``(d_num * rank) //
  (d_den * deg)`` — a floor division that is associative-safe (integer sums
  are order-independent), so the distributed result is BIT-EXACT against
  any reference implementation (the DuckDB oracle re-runs the identical
  recurrence with ``//``). Float PageRank would drift across summation
  orders and break hash-exact verification.
- **Partition once, iterate cheap.** The degree-weighted edge table is
  materialized once; each iteration is one bucketed cogroup join
  (edges ⋈ ranks on src), one two-phase grouped sum of contributions, and
  one left cogroup join back onto the node table. No driver-side state
  beyond two scalars per iteration.
- **Dangling mass without an extra pass.** The edges ⋈ ranks join runs
  ``how="right"``: rank rows with no out-edges surface as unmatched rows in
  the SAME shuffle and fold into a sentinel key of the contribution sum, so
  dangling-node mass redistribution costs zero additional joins.
- **Skew**: a whale in-degree node (everyone links to wikipedia.org) is one
  hot key in the contribution sum — handled by the two-phase partial
  aggregate (one partial row per key per block before the shuffle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import (
    adaptive_join,
    bucketed_join,
    partial_groupby_sum,
)

# sentinel dst for dangling-node mass; "\x00" cannot appear in a url
_DANGLING = "\x00dangling"


def pagerank(
    edges: Dataset,
    nodes: Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    node: str = "node",
    iters: int = 4,
    damping_num: int = 85,
    damping_den: int = 100,
    scale: int = 10**12,
) -> Dataset:
    """Fixed-point power-iteration PageRank.

    edges(src, dst) + nodes(node) → (node, rank:int64) after ``iters``
    rounds of::

        base      = ((d_den - d_num) * scale) // (d_den * n)
        contrib_e = (d_num * rank[src_e]) // (d_den * deg[src_e])
        dang      = (d_num * sum(rank[v] for dangling v)) // (d_den * n)
        rank'[u]  = base + dang + sum(contrib_e for e into u)

    ``rank / scale`` approximates true PageRank; the integer recurrence is
    deterministic and order-free, so the result is bit-exact reproducible
    (and oracle-checkable) at any parallelism.
    """
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda b: pa.table({"node": pa.array([], pa.string()),
                                "rank": pa.array([], pa.int64())}),
            batch_format="pyarrow",
        )
    base = ((damping_den - damping_num) * scale) // (damping_den * n)
    r0 = scale // n

    deg = partial_groupby_sum(edges.select_columns([src]), [src], {}, count_alias="deg")
    # right_schema: deg is a lazy groupby output — the hint keeps the
    # join's driver-side name probe from executing the grouped sum early
    # deg is node-scale: broadcast while it fits, bucketed at scale
    wedges = adaptive_join(
        edges, deg, on=src,
        right_schema=pa.schema([(src, pa.string()), ("deg", pa.int64())]),
    ).materialize()

    ranks = nodes.map_batches(
        lambda b, v=r0: pa.table(
            {"node": b[node],
             "rank": pa.array(np.full(b.num_rows, v, np.int64))}
        ),
        batch_format="pyarrow",
    ).materialize()
    node_tbl = nodes.select_columns([node]).materialize()

    for _ in range(iters):
        # flipped from (wedges RIGHT-JOIN ranks): a LEFT join from the
        # node-scale ranks keeps the same rows and lets adaptive_join
        # broadcast the smaller side while it fits a worker budget
        joined = adaptive_join(
            ranks, wedges, on="node", right_on=src, how="left",
            left_schema=pa.schema([("node", pa.string()),
                                   ("rank", pa.int64())]),
            right_schema=pa.schema([(src, pa.string()), (dst, pa.string()),
                                    ("deg", pa.int64())]),
        )

        def to_contrib(b: pa.Table, dn=damping_num, dd=damping_den) -> pa.Table:
            df = b.to_pandas() if isinstance(b, pa.Table) else b
            rank = df["rank"].to_numpy(np.int64)
            matched = df[dst].notna().to_numpy()
            out_key = np.where(matched, df[dst].astype(object), _DANGLING)
            c = np.empty(len(df), np.int64)
            if matched.any():
                # deg rode through a right-join (unmatched rows are NaN) →
                # float64; values are small counts, exact to cast back
                degv = df["deg"].to_numpy(np.float64)
                degi = np.where(matched, degv, 1.0).astype(np.int64)
                c[matched] = (dn * rank[matched]) // (dd * degi[matched])
            # dangling rows carry raw rank mass (damped/divided at the end,
            # AFTER the global sum — floor once, not per row)
            c[~matched] = rank[~matched]
            return pa.table({"dst": pa.array(out_key, pa.string()),
                             "c": pa.array(c, pa.int64())})

        sums = partial_groupby_sum(
            joined.map_batches(to_contrib, batch_format="pyarrow"),
            ["dst"], {"c": "s"},
        ).materialize()

        import pyarrow.compute as pc

        dang_rows = sums.map_batches(
            lambda b: b.filter(pc.equal(b["dst"], _DANGLING)),
            batch_format="pyarrow",
        ).take_all()  # ≤1 row survives the vectorized scan
        dang_mass = int(dang_rows[0]["s"]) if dang_rows else 0
        dang_share = (damping_num * dang_mass) // (damping_den * n)

        upd = adaptive_join(node_tbl, sums, on=node, right_on="dst",
                            how="left")

        def new_rank(b: pa.Table, add=base + dang_share) -> pa.Table:
            df = b.to_pandas() if isinstance(b, pa.Table) else b
            s = df["s"].fillna(0).astype(np.int64).to_numpy()
            return pa.table({"node": pa.array(df[node].astype(str)),
                             "rank": pa.array((add + s).astype(np.int64))})

        ranks = upd.map_batches(new_rank, batch_format="pyarrow").materialize()

    return ranks


def hits(
    edges: Dataset,
    nodes: Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    node: str = "node",
    iters: int = 2,
) -> Dataset:
    """Unnormalized integer HITS (hubs/authorities) — PageRank's sibling
    ranking for the link graph, ``iters`` mutual-reinforcement rounds::

        h_0 ≡ 1
        a_t(v) = Σ_{(u,v)∈E} h_{t-1}(u)     # authorities from hubs
        h_t(u) = Σ_{(u,v)∈E} a_t(v)         # hubs from authorities

    Skipping the per-round normalization keeps every score an exact int64
    (rankings are scale-invariant), so the distributed result is bit-exact
    at ANY parallelism and SQL-replayable by unrolled joins — the same
    exactness discipline as :func:`pagerank`. Magnitudes grow like
    (Σ deg²)^iters; iters=2 is the classic co-citation closure (AᵀA) and
    keeps scores far below int64 on realistic graphs — raise with care.

    Each half-round is one bucketed cogroup join (edges ⋈ scores) plus one
    two-phase grouped sum; no driver-side state at all. Output:
    (node, hub, auth) with 0 for nodes the walk never touches.

    Reference parity: the reference ranks retrieval candidates by graph
    salience (``graph_service.py`` rank-ordered Cypher reads); hubs /
    authorities is the second classic salience axis over ``links_to``.
    """
    str_schema = pa.schema([(src, pa.string()), (dst, pa.string())])
    e = edges.select_columns([src, dst]).materialize()
    node_tbl = nodes.select_columns([node]).materialize()

    def _sum_over(joined: Dataset, key: str, val: str) -> Dataset:
        """group-sum `val` by `key` → (node, s), materialized (tiny)."""

        def emit(b: pa.Table, k=key, v=val) -> pa.Table:
            return pa.table({"node": b[k], "v": b[v]})

        return partial_groupby_sum(
            joined.map_batches(emit, batch_format="pyarrow"), ["node"], {"v": "s"}
        ).materialize()

    score_schema = pa.schema([("node", pa.string()), ("s", pa.int64())])

    # h_0 ≡ 1 ⇒ the first authority pass is plain in-degree (join skipped)
    auth = partial_groupby_sum(
        e.map_batches(lambda b: pa.table({"node": b[dst]}), batch_format="pyarrow"),
        ["node"], {}, count_alias="s",
    ).materialize()

    hub = None
    for t in range(iters):
        # h_t(u) = Σ_{(u,v)} a_t(v): edges ⋈ auth on dst, sum by src
        j = bucketed_join(e, auth, on=dst, right_on="node",
                          left_schema=str_schema, right_schema=score_schema)
        hub = _sum_over(j, src, "s")
        if t + 1 < iters:
            # a_{t+1}(v) = Σ_{(u,v)} h_t(u): edges ⋈ hub on src, sum by dst
            j = bucketed_join(e, hub, on=src, right_on="node",
                              left_schema=str_schema, right_schema=score_schema)
            auth = _sum_over(j, dst, "s")

    # fold both scores onto the node universe (0 where untouched)
    withe_a = bucketed_join(node_tbl, auth, on=node, right_on="node", how="left")
    both = bucketed_join(
        withe_a.map_batches(
            lambda b: pa.table({node: b[node],
                                "auth": pc.fill_null(pc.cast(b["s"], pa.int64()), 0)}),
            batch_format="pyarrow",
        ),
        hub, on=node, right_on="node", how="left",
        left_schema=pa.schema([(node, pa.string()), ("auth", pa.int64())]),
    )
    return both.map_batches(
        lambda b: pa.table({node: b[node],
                            "hub": pc.fill_null(pc.cast(b["s"], pa.int64()), 0),
                            "auth": b["auth"]}),
        batch_format="pyarrow",
    )


def degree_stats(edges: Dataset, *, src: str = "src", dst: str = "dst") -> Dataset:
    """Per-node (out_deg, in_deg) over an edge table.

    One pass, ONE shuffle: each edge emits (node=src, out=1, in=0) and
    (node=dst, out=0, in=1); a two-phase grouped sum reduces both counters
    together — no outer join, no second exchange."""

    def emit(b: pa.Table) -> pa.Table:
        ones = np.ones(b.num_rows, np.int64)
        zeros = np.zeros(b.num_rows, np.int64)
        s = pa.table({"node": b[src], "o": pa.array(ones), "i": pa.array(zeros)})
        d = pa.table({"node": b[dst], "o": pa.array(zeros), "i": pa.array(ones)})
        return pa.concat_tables([s, d])

    both = edges.map_batches(emit, batch_format="pyarrow")
    return partial_groupby_sum(both, ["node"], {"o": "out_deg", "i": "in_deg"})


def triangles(edges: Dataset, *, a: str = "a", b: str = "b") -> Dataset:
    """Triangle listing over an undirected edge table (rows canonical
    ``a < b``, distinct) — the degree-ordered orientation algorithm, the
    one that scales: orienting every edge from its lower-(degree, id)
    endpoint bounds each node's out-degree by O(sqrt(m)), so total wedge
    fan-out is O(m^1.5) instead of Σ deg² (a star graph's whale node emits
    ZERO wedges instead of deg²).

    Plan (all existing primitives): degree per node (one two-phase sum) →
    degrees joined onto both endpoints (two bucketed cogroup joins) →
    orient → wedges per center (groupby.map_groups, out-neighbors only) →
    wedge (v, w) semi-joined against the canonical edge-key set (one more
    bucketed join). Output one row per triangle, vertices sorted
    (ta < tb < tc — matches the SQL a<b<c listing convention).

    Reference parity: the reference surfaces graph-shape diagnostics from
    Memgraph queries (`graph_service.py` summary Cypher); triangle counts /
    clustering structure is the corpus-scale analog computed in-engine.
    """
    from code_graph_rag_ray.stages.relational import adaptive_join

    deg = degree_stats(edges, src=a, dst=b).map_batches(
        lambda t: pa.table(
            {"node": t["node"],
             "deg": pc.add(t["out_deg"], t["in_deg"])}
        ),
        batch_format="pyarrow",
    )
    # schema hints everywhere a side is a lazy groupby/join output: the
    # driver-side name probe would otherwise execute that upstream once
    deg_schema = pa.schema([("node", pa.string()), ("deg", pa.int64())])
    edge_schema = pa.schema([(a, pa.string()), (b, pa.string())])
    with_da = adaptive_join(edges, deg, on=a, right_on="node",
                            left_schema=edge_schema, right_schema=deg_schema)
    with_deg = adaptive_join(with_da, deg.map_batches(
        lambda t: pa.table({"node": t["node"], "deg_b": t["deg"]}),
        batch_format="pyarrow",
    ), on=b, right_on="node",
        left_schema=pa.schema(
            [(a, pa.string()), (b, pa.string()), ("deg", pa.int64())]
        ),
        right_schema=pa.schema([("node", pa.string()), ("deg_b", pa.int64())]))

    def orient(t: pa.Table) -> pa.Table:
        av = np.asarray(t[a].to_pandas(), dtype=object)
        bv = np.asarray(t[b].to_pandas(), dtype=object)
        da = t["deg"].to_numpy(zero_copy_only=False)
        db = t["deg_b"].to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (av < bv))
        src = np.where(a_first, av, bv)
        dst = np.where(a_first, bv, av)
        return pa.table({"src": pa.array(src, pa.string()),
                         "dst": pa.array(dst, pa.string())})

    oriented = with_deg.map_batches(orient, batch_format="pyarrow")

    def wedges(g: pa.Table) -> pa.Table:
        outs = sorted(g["dst"].to_pylist())
        k = len(outs)
        if k < 2:
            return pa.table({"center": pa.array([], pa.string()),
                             "v": pa.array([], pa.string()),
                             "w": pa.array([], pa.string())})
        ia, ib = np.triu_indices(k, 1)
        arr = np.array(outs, dtype=object)
        n = len(ia)
        return pa.table({
            "center": pa.array([g["src"][0].as_py()] * n, pa.string()),
            "v": pa.array(arr[ia], pa.string()),
            "w": pa.array(arr[ib], pa.string()),
        })

    wedge_rows = oriented.groupby("src").map_groups(
        wedges, batch_format="pyarrow"
    )
    # close wedges against the edge set: composite-key SEMI join — only
    # the right's key columns cross the shuffle, wedge payload stays as
    # real (v, w) columns (no ad-hoc concatenated-string key)
    from code_graph_rag_ray.stages.relational import bucketed_join

    closed = bucketed_join(
        wedge_rows, edges.select_columns([a, b]),
        on=["v", "w"], right_on=[a, b], how="semi",
        left_schema=pa.schema([("center", pa.string()), ("v", pa.string()),
                               ("w", pa.string())]),
        right_schema=pa.schema([(a, pa.string()), (b, pa.string())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        # v < w by wedge construction: sorting (center, v, w) reduces to
        # inserting center into the ordered pair — three if_else kernels
        c, v, w = t["center"], t["v"], t["w"]
        c_lt_v = pc.less(c, v)
        c_gt_w = pc.greater(c, w)
        return pa.table({
            "ta": pc.if_else(c_lt_v, c, v),
            "tb": pc.if_else(c_lt_v, v, pc.if_else(c_gt_w, w, c)),
            "tc": pc.if_else(c_gt_w, c, w),
        })

    return closed.map_batches(finish, batch_format="pyarrow")


def bfs_hops(
    edges: Dataset,
    seeds: list[str],
    *,
    src: str = "src",
    dst: str = "dst",
    max_hops: int = 6,
    undirected: bool = True,
    broadcast_frontier_limit: int = 100_000,
) -> Dataset:
    """(node, hops): minimum hop distance from the seed set, bounded by
    ``max_hops`` — distributed frontier BFS (multi-source, unit weights).

    The frontier discipline is the scale decision: each round ships ONLY
    the nodes settled in the previous round (their final distance IS the
    round number under unit weights), never the whole distance table, so
    total message volume across all rounds is O(edges) — a full
    Bellman-Ford relaxation per round would be O(edges × rounds).

    Round shape is ADAPTIVE to frontier size (the Pregel small-frontier
    optimization): while the frontier fits ``broadcast_frontier_limit`` it
    is ``ray.put`` once and every adjacency block is PROBED in place with a
    vectorized ``is_in`` — one streaming scan, no shuffle (point-query BFS
    spends all its rounds here; the all-to-all cost was 6× the answer).
    A frontier past the limit switches to a bucketed semi join
    (out-edges ⋉ frontier, ``relational.bucketed_join`` — Dataset.join
    stays banned per NOTES.md fact 1). Both shapes fold into the distance table
    via the same groupby-min; convergence = an empty frontier.

    Reference parity: the reference answers reachability questions with
    Memgraph path queries (``graph_service.py`` traversal Cypher); this is
    the corpus-scale in-engine equivalent over the link graph.
    """
    import ray.data as rd
    from ray.data.aggregate import Min

    def keyed(b: pa.Table) -> pa.Table:
        fwd = pa.table({"key": pc.cast(b[src], pa.string()),
                        "nbr": pc.cast(b[dst], pa.string())})
        if not undirected:
            return fwd
        rev = pa.table({"key": pc.cast(b[dst], pa.string()),
                        "nbr": pc.cast(b[src], pa.string())})
        return pa.concat_tables([fwd, rev])

    adj = edges.map_batches(keyed, batch_format="pyarrow").materialize()

    dist = rd.from_arrow(
        pa.table({"node": pa.array(sorted(set(seeds)), pa.string()),
                  "hops": pa.array([0] * len(set(seeds)), pa.int64())})
    ).materialize()
    frontier = dist
    fcount = len(set(seeds))

    def to_msgs(b: pa.Table, d: int) -> pa.Table:
        nodes = pc.unique(b["nbr"])
        return pa.table({"node": nodes,
                         "hops": pa.array(np.full(len(nodes), d, np.int64))})

    for r in range(max_hops):
        if fcount <= broadcast_frontier_limit:
            # small frontier: broadcast it, probe adjacency in place
            import ray

            f_ref = ray.put(
                pa.array(sorted({row["node"] for row in frontier.take_all()}),
                         pa.string())
            )

            def probe(b: pa.Table, _d=r + 1, _ref=f_ref) -> pa.Table:
                from code_graph_rag_ray.functions.broadcast import get_broadcast

                return to_msgs(b.filter(pc.is_in(
                    b["key"], value_set=get_broadcast(_ref))), _d)

            msgs = adj.map_batches(probe, batch_format="pyarrow")
        else:
            # large frontier: out-edges ⋉ frontier
            msgs = bucketed_join(
                adj, frontier, on="key", right_on="node", how="semi",
                left_schema=pa.schema([("key", pa.string()), ("nbr", pa.string())]),
                right_schema=pa.schema([("node", pa.string()), ("hops", pa.int64())]),
            ).map_batches(lambda b, _d=r + 1: to_msgs(b, _d),
                          batch_format="pyarrow")
        new_dist = (
            dist.union(msgs)
            .groupby("node")
            .aggregate(Min("hops", alias_name="hops"))
            .materialize()
        )
        frontier = new_dist.filter(expr=f"hops == {r + 1}").materialize()
        dist = new_dist
        fcount = frontier.count()
        if fcount == 0:
            break
    return dist


def k_core(
    edges: Dataset,
    *,
    k: int = 2,
    a: str = "a",
    b: str = "b",
    max_iter: int = 16,
) -> Dataset:
    """k-core decomposition membership: (node, deg) for every node of the
    maximal subgraph where all degrees ≥ k — iterative peeling (remove
    sub-k nodes, recompute, repeat to fixed point).

    Each round is one two-phase degree count plus two bucketed SEMI joins
    (edges ⋉ surviving nodes on each endpoint — only the key column
    crosses the shuffle); the edge table shrinks monotonically, so later
    rounds get cheaper. Peeling depth is data-dependent: rounds are capped
    at ``max_iter`` with an early exit at the fixed point; an uncapped
    pathological chain peels one layer per round (the standard bound), so
    callers on adversarial graphs should raise the cap. Convergence is
    checked on the SURVIVOR COUNT, which strictly decreases until fixed.

    The density screen a link-graph curation pass runs to find the
    boilerplate/link-farm core that degree thresholds alone miss.
    """
    from code_graph_rag_ray.stages.relational import bucketed_join, partial_groupby_sum

    sym = _symmetrize_ab(edges, a, b).materialize()
    cur = sym
    prev_nodes = -1
    for _ in range(max_iter):
        deg = partial_groupby_sum(
            cur.select_columns(["node"]), ["node"], {}, count_alias="deg"
        )
        keep = deg.filter(expr=f"deg >= {k}").materialize()
        n_keep = keep.count()
        if n_keep == 0:
            return keep.select_columns(["node", "deg"])
        if n_keep == prev_nodes:
            return keep.select_columns(["node", "deg"])
        prev_nodes = n_keep
        keep_nodes = keep.select_columns(["node"])
        cur = bucketed_join(
            cur, keep_nodes, on="node", how="semi",
            left_schema=pa.schema([("node", pa.string()), ("nbr", pa.string())]),
            right_schema=pa.schema([("node", pa.string())]),
        )
        cur = bucketed_join(
            cur, keep_nodes, on="nbr", right_on="node", how="semi",
            left_schema=pa.schema([("node", pa.string()), ("nbr", pa.string())]),
            right_schema=pa.schema([("node", pa.string())]),
        ).materialize()
    # cap reached: report degrees over the last peeled graph (a SUPERSET
    # of the true core; log-visible via the deg column)
    final = partial_groupby_sum(
        cur.select_columns(["node"]), ["node"], {}, count_alias="deg"
    )
    return final.filter(expr=f"deg >= {k}")


def _symmetrize_ab(edges: Dataset, a: str, b: str) -> Dataset:
    def both(t: pa.Table) -> pa.Table:
        fwd = pa.table({"node": pc.cast(t[a], pa.string()),
                        "nbr": pc.cast(t[b], pa.string())})
        rev = pa.table({"node": pc.cast(t[b], pa.string()),
                        "nbr": pc.cast(t[a], pa.string())})
        return pa.concat_tables([fwd, rev])

    return edges.map_batches(both, batch_format="pyarrow")


def sssp_bounded(
    edges: Dataset,
    seeds: list[str],
    *,
    src: str = "src",
    dst: str = "dst",
    weight: str = "wt",
    max_hops: int = 6,
    undirected: bool = False,
    broadcast_frontier_limit: int = 100_000,
) -> Dataset:
    """(node, dist): minimum WEIGHTED distance from the seed set over paths
    of ≤ ``max_hops`` edges — bounded-hop Bellman-Ford with
    change-propagation (delta stepping's "only relax improved nodes").

    Weights must be non-negative int64 (scale floats to integer units —
    that is also what makes the result bit-exact against a recursive-CTE
    oracle). Unlike unit-weight BFS, a settled node can improve in a later
    round, so "frontier = nodes whose distance IMPROVED this round"
    requires comparing new candidates to old distances. That compare rides
    INSIDE the fold: rows carry enc = 2·dist + is_new and the round's
    groupby takes min(enc) — an equal-distance candidate loses to the old
    row (2d < 2d+1) and a strictly better one wins (d' < d ⇒ 2d'+1 < 2d
    for integers) — so improvement detection costs zero extra passes:
    dist = enc // 2, improved = enc & 1.

    Round shape follows :func:`bfs_hops`: a frontier under
    ``broadcast_frontier_limit`` is ray.put as a (node → dist) map and the
    adjacency is probed in place (one streaming scan, per-batch partial
    min); a larger frontier relaxes through a bucketed inner join with the
    frontier's base distance (``relational.bucketed_join``). Message
    volume per round is O(improved-nodes' out-edges), not O(E).
    """
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Min

    def keyed(b: pa.Table) -> pa.Table:
        wt = pc.cast(b[weight], pa.int64())
        fwd = pa.table({"key": pc.cast(b[src], pa.string()),
                        "nbr": pc.cast(b[dst], pa.string()), "wt": wt})
        if not undirected:
            return fwd
        rev = pa.table({"key": pc.cast(b[dst], pa.string()),
                        "nbr": pc.cast(b[src], pa.string()), "wt": wt})
        return pa.concat_tables([fwd, rev])

    adj = edges.map_batches(keyed, batch_format="pyarrow").materialize()

    seed_list = sorted(set(seeds))
    dist = rd.from_arrow(
        pa.table({"node": pa.array(seed_list, pa.string()),
                  "enc": pa.array([0] * len(seed_list), pa.int64())})
    ).materialize()
    frontier = [(s, 0) for s in seed_list]  # small-path: [(node, dist)]
    fcount = len(seed_list)
    f_ds = dist  # large-path frontier Dataset (node, enc)

    def relax(nbr, cand) -> pa.Table:
        # candidate enc = 2·dist + 1 (improved bit), per-batch partial min
        t = pa.table({"node": nbr, "enc": pa.array(cand * 2 + 1, pa.int64())})
        g = pa.TableGroupBy(t, ["node"], use_threads=False).aggregate(
            [("enc", "min")])
        return pa.table({"node": g["node"], "enc": g["enc_min"]})

    for _ in range(max_hops):
        if fcount <= broadcast_frontier_limit:
            import ray

            fmap = {n: d for n, d in frontier} if isinstance(frontier, list) else {
                r["node"]: r["enc"] // 2 for r in f_ds.take_all()}
            f_ref = ray.put(pd.Series(fmap, dtype=np.int64))

            def probe(b: pa.Table, _ref=f_ref) -> pa.Table:
                from code_graph_rag_ray.functions.broadcast import get_broadcast

                fs = get_broadcast(_ref)
                hit = b.filter(pc.is_in(b["key"], value_set=pa.array(fs.index)))
                base = fs.loc[hit["key"].to_pylist()].to_numpy()
                return relax(hit["nbr"], base + hit["wt"].to_numpy(zero_copy_only=False))

            msgs = adj.map_batches(probe, batch_format="pyarrow")
        else:
            # large frontier: out-edges ⋈ the frontier's base distance
            base = f_ds.map_batches(
                lambda b: pa.table({"node": b["node"],
                                    "base": pc.divide(b["enc"], 2)}),
                batch_format="pyarrow",
            )
            msgs = bucketed_join(
                adj, base, on="key", right_on="node",
                left_schema=pa.schema([("key", pa.string()), ("nbr", pa.string()),
                                       ("wt", pa.int64())]),
                right_schema=pa.schema([("node", pa.string()), ("base", pa.int64())]),
            ).map_batches(
                lambda b: relax(b["nbr"], pc.add(b["base"], b["wt"]).to_numpy()),
                batch_format="pyarrow",
            )
        new_dist = (
            dist.union(msgs)
            .groupby("node")
            .aggregate(Min("enc", alias_name="enc"))
            .materialize()
        )
        improved = new_dist.map_batches(
            lambda b: b.filter(pc.equal(pc.bit_wise_and(b["enc"], 1), 1)),
            batch_format="pyarrow",
        ).materialize()
        # strip the improved bit so next round's fold compares cleanly
        dist = new_dist.map_batches(
            lambda b: pa.table({
                "node": b["node"],
                "enc": pc.multiply(pc.divide(b["enc"], 2), 2)}),
            batch_format="pyarrow",
        ).materialize()
        fcount = improved.count()
        if fcount == 0:
            break
        if fcount <= broadcast_frontier_limit:
            frontier = [(r["node"], r["enc"] // 2) for r in improved.take_all()]
        else:
            frontier, f_ds = None, improved

    return dist.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "dist": pc.divide(b["enc"], 2)}),
        batch_format="pyarrow",
    )


def neighbor_agg(
    edges: Dataset, *, src: str = "src", dst: str = "dst"
) -> Dataset:
    """GNN-style 1-hop neighbor aggregation: for every node with
    out-edges, the count of its out-neighbors and the sum of their
    IN-degrees — the message-passing primitive (propagate a per-node
    feature along edges, fold at the receiver) demonstrated on the
    feature every graph already has.

    Plan: one :func:`degree_stats` pass (single shuffle), the feature
    joined back onto edge DESTINATIONS through the bucketed cogroup join
    (edge-scale ⋈ node-scale), then a two-phase grouped sum keyed by the
    edge source. Nothing materializes on the driver; a whale receiver
    exchanges O(blocks) partial rows.

    cgr analog: the reference aggregates callee attributes onto callers
    when scoring resolution candidates (``call_resolver``'s callee-count
    preferences); re-targeted as link-graph feature propagation.
    """
    from code_graph_rag_ray.stages.relational import bucketed_join

    deg = degree_stats(edges, src=src, dst=dst).select_columns(
        ["node", "in_deg"]
    )
    j = bucketed_join(
        edges.select_columns([src, dst]), deg, on=dst, right_on="node",
        left_schema=pa.schema([(src, pa.string()), (dst, pa.string())]),
        right_schema=pa.schema([("node", pa.string()),
                                ("in_deg", pa.int64())]),
    )

    def ones(b: pa.Table) -> pa.Table:
        return pa.table(
            {src: b[src], "one": pa.array(np.ones(b.num_rows, np.int64)),
             "in_deg": b["in_deg"]}
        )

    return partial_groupby_sum(
        j.map_batches(ones, batch_format="pyarrow", batch_size=None),
        [src], {"one": "n_out", "in_deg": "sum_nbr_in_deg"},
    )


def label_propagation(
    edges: Dataset,
    nodes: Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    node: str = "node",
    iters: int = 4,
) -> Dataset:
    """Synchronous label-propagation community detection (Raghavan et al.
    2007, public): ``iters`` deterministic rounds where every node adopts
    the most frequent label among its neighbors — ties break to the
    SMALLEST label, isolated nodes keep their own — over the distinct
    undirected non-loop edge set. Labels are initialized to the node id.

    Fully deterministic at any parallelism (the classic algorithm's
    random visit order is replaced by the synchronous update + total-order
    tie-break), so the whole run is bit-exact against an unrolled SQL
    replay. Sync LPA can oscillate on bipartite structure; with a FIXED
    round count both sides replay the identical trajectory, so exactness
    is unaffected.

    Per round: one bucketed cogroup join (edges ⋈ labels on the sending
    endpoint — only (nbr, label) crosses), a two-phase (node, label)
    message count (whale in-degree keys pre-reduce per block), then one
    grouped argmax. The prior label rides as a zero-count candidate row,
    which a real neighbor message (count ≥ 1) always outranks — that is
    what keeps isolated nodes labeled without a second join. Labels are
    node-scale and re-materialized once per round; driver state is nil.

    cgr analog: community structure over the reference's code graph is
    what its retrieval layer approximates with package/module grouping
    (graph_updater.py module hierarchy); this is the content-driven
    version for a web link graph.
    """
    from code_graph_rag_ray.stages.relational import (
        adaptive_join,
        bucketed_groups,
        partial_groupby_sum,
        run_starts,
    )

    def clean(t: pa.Table) -> pa.Table:
        f = t.filter(pc.not_equal(t[src], t[dst]))
        fwd = pa.table({"s": pc.cast(f[src], pa.string()),
                        "d": pc.cast(f[dst], pa.string())})
        rev = pa.table({"s": fwd["d"], "d": fwd["s"]})
        return pa.concat_tables([fwd, rev])

    # distinct undirected edge set: two-phase grouped count, count dropped
    sym = partial_groupby_sum(
        edges.map_batches(clean, batch_format="pyarrow"),
        ["s", "d"], {}, count_alias="m",
    ).select_columns(["s", "d"]).materialize()

    labels = nodes.map_batches(
        lambda b: pa.table({"node": pc.cast(b[node], pa.string()),
                            "label": pc.cast(b[node], pa.string())}),
        batch_format="pyarrow",
    ).materialize()

    def pick(g: pa.Table) -> pa.Table:
        # one vectorized pass per bucket instead of a per-node group —
        # final (node, label) weight sum, then argmax by (w DESC, label ASC)
        g = pa.TableGroupBy(g, ["node", "label"], use_threads=False).aggregate(
            [("w", "sum")])
        g = g.take(pc.sort_indices(g, sort_keys=[
            ("node", "ascending"), ("w_sum", "descending"),
            ("label", "ascending")]))
        return g.filter(pa.array(run_starts(g, ["node"]))).select(
            ["node", "label"])

    def combine_msgs(b: pa.Table) -> pa.Table:
        # batch-local combiner: message rows fold to (node, label, w)
        # partials before the ONE exchange of the round; typed empty for
        # matchless broadcast-join batches (NOTES facts 26/27)
        if b.num_rows == 0:
            return pa.table({"node": pa.array([], pa.string()),
                             "label": pa.array([], pa.string()),
                             "w": pa.array([], pa.int64())})
        t = pa.table({"node": pc.cast(b["d"], pa.string()),
                      "label": pc.cast(b["label"], pa.string())})
        g = pa.TableGroupBy(t, ["node", "label"],
                            use_threads=False).aggregate([([], "count_all")])
        return pa.table({"node": g["node"], "label": g["label"],
                         "w": pc.cast(g["count_all"], pa.int64())})

    for _ in range(iters):
        # labels are node-scale: adaptive_join broadcasts them while they
        # fit a worker budget and degrades to the bucketed cogroup at
        # scale — same rows either way. The whole round is then ONE
        # exchange: batch-combined (node, label, w) partials and the prior
        # labels as zero-weight candidates meet in one bucketed_groups
        # shuffle, vectorized per-bucket sum + argmax.
        msgs = adaptive_join(
            sym, labels, on="s", right_on="node",
            left_schema=pa.schema([("s", pa.string()), ("d", pa.string())]),
            right_schema=pa.schema([("node", pa.string()),
                                    ("label", pa.string())]),
        ).map_batches(combine_msgs, batch_format="pyarrow", batch_size=None)
        selfc = labels.map_batches(
            lambda b: pa.table(
                {"node": b["node"], "label": b["label"],
                 "w": pa.array(np.zeros(b.num_rows, np.int64))}
            ),
            batch_format="pyarrow",
        )
        old = labels
        labels = bucketed_groups([msgs, selfc], "node", pick).materialize()
        del old
    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "community": b["label"]}),
        batch_format="pyarrow",
    )


def clustering_coefficient(
    edges: Dataset, *, a: str = "a", b: str = "b", scale: int = 10**6
) -> Dataset:
    """Per-node local clustering coefficient over an undirected edge
    table (rows canonical ``a < b``, distinct):

        cc(v) = 2·T(v) / (deg(v)·(deg(v)−1))

    quantized to ``cc_micro = (2·T·scale) // (deg·(deg−1))`` — pure
    BIGINT, bit-exact vs SQL. Output (node, deg, n_tri, cc_micro), one
    row per node with ≥ 1 edge; deg < 2 ⇒ cc_micro 0.

    Scale shape: triangles come from :func:`triangles` (degree-ordered
    orientation, O(m^1.5) wedge fan-out); each triangle fans out to its 3
    vertices and folds through ONE two-phase grouped count; degrees are
    the existing two-phase sum; the zero-triangle nodes survive via one
    bucketed LEFT join (never a driver-side fill).

    cgr analog: graph-shape diagnostics the reference pulls from Memgraph
    summary Cypher (graph_service.py) — density/cohesion per node here.
    """
    from code_graph_rag_ray.stages.relational import (
        adaptive_join,
        partial_groupby_sum,
    )

    deg = degree_stats(edges, src=a, dst=b).map_batches(
        lambda t: pa.table(
            {"node": t["node"], "deg": pc.add(t["out_deg"], t["in_deg"])}
        ),
        batch_format="pyarrow",
    )

    def fan3(t: pa.Table) -> pa.Table:
        n = pa.concat_arrays([
            t["ta"].combine_chunks() if isinstance(t["ta"], pa.ChunkedArray) else t["ta"],
            t["tb"].combine_chunks() if isinstance(t["tb"], pa.ChunkedArray) else t["tb"],
            t["tc"].combine_chunks() if isinstance(t["tc"], pa.ChunkedArray) else t["tc"],
        ])
        return pa.table({"node": n})

    tri_n = partial_groupby_sum(
        triangles(edges, a=a, b=b).map_batches(fan3, batch_format="pyarrow"),
        ["node"], {}, count_alias="n_tri",
    )
    j = adaptive_join(
        deg, tri_n, on="node", how="left",
        left_schema=pa.schema([("node", pa.string()), ("deg", pa.int64())]),
        right_schema=pa.schema([("node", pa.string()), ("n_tri", pa.int64())]),
    )

    def finish(b: pa.Table) -> pa.Table:
        d = b["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = np.nan_to_num(
            b["n_tri"].to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        den = d * (d - 1)
        cc = np.where(den > 0, (2 * t * scale) // np.maximum(den, 1), 0)
        return pa.table(
            {"node": b["node"], "deg": pa.array(d), "n_tri": pa.array(t),
             "cc_micro": pa.array(cc.astype(np.int64))}
        )

    return j.map_batches(finish, batch_format="pyarrow")


def personalized_pagerank(
    edges: Dataset,
    nodes: Dataset,
    seeds: list[str],
    *,
    src: str = "src",
    dst: str = "dst",
    node: str = "node",
    iters: int = 4,
    damping_num: int = 85,
    damping_den: int = 100,
    scale: int = 10**12,
) -> Dataset:
    """Fixed-point personalized PageRank: the :func:`pagerank` integer
    recurrence with ALL teleport mass (the 1−d share and the dangling
    redistribution) going to the ``seeds`` set instead of uniformly —
    the GraphRAG "local search" primitive (score the neighborhood of the
    entities a query mentions).

        r0[u]     = scale // |S| if u ∈ S else 0
        rank'[u]  = [u ∈ S]·(base_S + dang_S) + Σ contrib_e(u)

    with base_S = ((d_den − d_num)·scale) // (d_den·|S|) and dang_S the
    damped dangling mass split over the seeds. Deterministic and
    order-free — bit-exact vs the unrolled SQL replay.

    ``seeds`` is QUERY-scale (ray.put-shipped membership set consulted
    per batch) — for corpus-scale seed sets ship membership via a join
    instead. Everything else keeps pagerank's shape: one materialized
    edges⋈deg, per round one bucketed join + two-phase contribution sum.
    """
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast

    seeds = sorted(set(seeds))  # dedupe FIRST: |S| and membership must agree
    ns = len(seeds)
    if ns == 0:
        raise ValueError("personalized_pagerank needs a non-empty seed set")
    base_seed = ((damping_den - damping_num) * scale) // (damping_den * ns)
    r0 = scale // ns
    seed_ref = ray.put(pa.array(seeds, pa.string()))

    deg = partial_groupby_sum(edges.select_columns([src]), [src], {},
                              count_alias="deg")
    # deg is node-scale: broadcast while it fits, bucketed at scale
    wedges = adaptive_join(
        edges, deg, on=src,
        right_schema=pa.schema([(src, pa.string()), ("deg", pa.int64())]),
    ).materialize()

    def init(b: pa.Table) -> pa.Table:
        is_seed = pc.is_in(pc.cast(b[node], pa.string()),
                           value_set=get_broadcast(seed_ref))
        r = np.where(is_seed.to_numpy(zero_copy_only=False), r0, 0)
        return pa.table({"node": pc.cast(b[node], pa.string()),
                         "rank": pa.array(r.astype(np.int64))})

    ranks = nodes.map_batches(init, batch_format="pyarrow").materialize()
    node_tbl = nodes.select_columns([node]).materialize()

    for _ in range(iters):
        # flipped from (wedges RIGHT-JOIN ranks): a LEFT join from the
        # node-scale ranks keeps the same rows and lets adaptive_join
        # broadcast the smaller side while it fits a worker budget
        joined = adaptive_join(
            ranks, wedges, on="node", right_on=src, how="left",
            left_schema=pa.schema([("node", pa.string()),
                                   ("rank", pa.int64())]),
            right_schema=pa.schema([(src, pa.string()), (dst, pa.string()),
                                    ("deg", pa.int64())]),
        )

        def to_contrib(b: pa.Table, dn=damping_num, dd=damping_den) -> pa.Table:
            df = b.to_pandas() if isinstance(b, pa.Table) else b
            rank = df["rank"].to_numpy(np.int64)
            matched = df[dst].notna().to_numpy()
            out_key = np.where(matched, df[dst].astype(object), _DANGLING)
            c = np.empty(len(df), np.int64)
            if matched.any():
                degv = df["deg"].to_numpy(np.float64)
                degi = np.where(matched, degv, 1.0).astype(np.int64)
                c[matched] = (dn * rank[matched]) // (dd * degi[matched])
            c[~matched] = rank[~matched]
            return pa.table({"dst": pa.array(out_key, pa.string()),
                             "c": pa.array(c, pa.int64())})

        sums = partial_groupby_sum(
            joined.map_batches(to_contrib, batch_format="pyarrow"),
            ["dst"], {"c": "s"},
        ).materialize()
        dang_rows = sums.map_batches(
            lambda b: b.filter(pc.equal(b["dst"], _DANGLING)),
            batch_format="pyarrow",
        ).take_all()
        dang_mass = int(dang_rows[0]["s"]) if dang_rows else 0
        add_seed = base_seed + (damping_num * dang_mass) // (damping_den * ns)

        upd = adaptive_join(node_tbl, sums, on=node, right_on="dst",
                            how="left")

        def new_rank(b: pa.Table, add=add_seed) -> pa.Table:
            df = b.to_pandas() if isinstance(b, pa.Table) else b
            s = df["s"].fillna(0).astype(np.int64).to_numpy()
            names = df[node].astype(str)
            is_seed = pc.is_in(
                pa.array(names, pa.string()),
                value_set=get_broadcast(seed_ref),
            ).to_numpy(zero_copy_only=False)
            r = np.where(is_seed, add, 0) + s
            return pa.table({"node": pa.array(names),
                             "rank": pa.array(r.astype(np.int64))})

        ranks = upd.map_batches(new_rank, batch_format="pyarrow").materialize()

    return ranks
