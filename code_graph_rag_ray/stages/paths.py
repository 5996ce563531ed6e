"""K-hop graph-pattern matching over an edge table: a minimal Cypher-ish
pattern DSL, fixed-length path matching with cycle exclusion, and bounded
multi-source reachability.

Reference analog: the reference answers variable-length path questions by
emitting Cypher MATCH over Memgraph (`codebase_rag/tools/codebase_query.py`,
`graph_service.py` traversal queries). Re-expressed Ray-Data-first:

- :func:`match_pattern` — ``(a)-[p1]->(b)-[p2]->(c)-...`` as a chain of
  bucketed cogroup joins, one per hop, keyed on the shared endpoint. The
  path relation streams block-by-block; nothing lands on the driver. Cycle
  exclusion (simple paths) is a vectorized per-batch filter comparing the
  newly bound variable against every carried node column.
- :func:`bounded_reachability` — ``(src)-[*1..k]->(node)`` with min-hop
  distance per (src, node) pair: a LABELED multi-source frontier BFS.
  Unlike :func:`graph_metrics.bfs_hops` (one global distance per node),
  every frontier row carries its origin, so the state is (src, node)
  pairs — the true output relation of the query, reached with O(k)
  exchanges and per-round frontier dedup so cyclic/hub regions never
  re-expand a settled pair.

Scale contract: each hop/round is one bucketed cogroup join (+ one dedup
exchange for reachability); the edge table is shuffled at most once per
hop; path blow-up on hub nodes is bounded by the pattern length, and the
frontier discipline (settled pairs never re-enter) bounds reachability
messages by O(k × edges × seeds-per-node).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

_HOP_RE = re.compile(
    r"\(\s*(?P<src>\w+)\s*\)\s*-\s*\["
    r"\s*(?P<pred>[\w|]*|\*)\s*"
    r"(?:\*\s*(?P<lo>\d+)\s*\.\.\s*(?P<hi>\d+)\s*)?"
    r"\]\s*->"
)
_TAIL_RE = re.compile(r"\(\s*(?P<dst>\w+)\s*\)\s*$")

#: hop spec: (predicates-or-None, min_hops, max_hops); fixed hops are (p, 1, 1)
HopSpec = tuple


def parse_pattern(pattern: str) -> tuple[list[str], list[HopSpec]]:
    """Parse ``(a)-[join]->(b)-[merge|filter]->(c)`` into
    ``(['a','b','c'], [(['join'], 1, 1), (['merge','filter'], 1, 1)])``.

    Hop predicates: a name matches that predicate, ``p|q`` matches either,
    ``*`` or empty matches ANY predicate (``None``). A ``*lo..hi`` suffix
    makes the hop VARIABLE-LENGTH: ``[join*1..3]`` matches 1–3 join
    edges, ``[*1..2]`` 1–2 edges of any predicate (Cypher's ``[:p*1..3]``).
    Variable names must be unique — a repeated variable would be a
    join-back constraint the simple-path matcher doesn't model.
    """
    pos, vars_, hops = 0, [], []
    for m in _HOP_RE.finditer(pattern):
        if m.start() != pos:
            raise ValueError(f"unparsable pattern near {pattern[pos:m.start()]!r}")
        pos = m.end()
        vars_.append(m.group("src"))
        p = m.group("pred")
        preds = None if p in ("", "*") else p.split("|")
        if m.group("lo") is not None:
            lo, hi = int(m.group("lo")), int(m.group("hi"))
            if not (1 <= lo <= hi):
                raise ValueError(f"bad hop range *{lo}..{hi} in {pattern!r}")
        else:
            lo = hi = 1
        hops.append((preds, lo, hi))
    tail = _TAIL_RE.match(pattern[pos:])
    if not hops or tail is None:
        raise ValueError(f"pattern must be (v)-[p]->(v)...: {pattern!r}")
    vars_.append(tail.group("dst"))
    if len(set(vars_)) != len(vars_):
        raise ValueError(f"pattern variables must be unique: {vars_}")
    return vars_, hops


def _hop_edges(edges: Dataset, preds: list[str] | None,
               names: tuple[str, str], *, subj: str, pred: str,
               obj: str) -> Dataset:
    def f(b: pa.Table) -> pa.Table:
        if preds is not None:
            b = b.filter(pc.is_in(b[pred], value_set=pa.array(preds, pa.string())))
        return pa.table({names[0]: pc.cast(b[subj], pa.string()),
                         names[1]: pc.cast(b[obj], pa.string())})
    return edges.map_batches(f, batch_format="pyarrow")


def match_pattern(
    edges: Dataset,
    pattern: str,
    *,
    subj: str = "subj",
    pred: str = "pred",
    obj: str = "obj",
    distinct_nodes: bool = True,
) -> Dataset:
    """Match a path pattern over ``edges``; one output row per path,
    columns = the pattern's NAMED variables (all string).

    Variable-length hops (``[p*lo..hi]``) expand into a UNION of fixed
    expansions (one per length combination — keep ranges small); their
    intermediate nodes are anonymous and projected away, so a path of
    each expanded length contributes one row over the named endpoints.

    ``distinct_nodes=True`` keeps only SIMPLE paths (every bound variable,
    anonymous ones included, distinct — Cypher's trail semantics
    tightened to node uniqueness), applied incrementally after each hop
    so cyclic paths are pruned before they fan out further.
    """
    import itertools

    vars_, hops = parse_pattern(pattern)
    # every hop (and every variable-length expansion) filters `edges`
    # independently — pin the blocks once so the upstream lineage executes
    # exactly once instead of once per hop (measured: a 3-hop pattern over
    # a built KG ran its build 3×, 16.8 s → 7 s at sf0.1)
    edges = edges.materialize()
    if all(lo == 1 and hi == 1 for _, lo, hi in hops):
        return _match_fixed(edges, vars_, [p for p, _, _ in hops],
                            subj=subj, pred=pred, obj=obj,
                            distinct_nodes=distinct_nodes)
    ranges = [range(lo, hi + 1) for _, lo, hi in hops]
    out = None
    for combo in itertools.product(*ranges):
        evars: list[str] = [vars_[0]]
        epreds: list[list[str] | None] = []
        for i, n in enumerate(combo):
            for k in range(n - 1):
                evars.append(f"__v{i}_{k}")
                epreds.append(hops[i][0])
            evars.append(vars_[i + 1])
            epreds.append(hops[i][0])
        m = _match_fixed(edges, evars, epreds, subj=subj, pred=pred,
                         obj=obj, distinct_nodes=distinct_nodes)
        m = m.map_batches(lambda b, _v=tuple(vars_): b.select(list(_v)),
                          batch_format="pyarrow")
        out = m if out is None else out.union(m)
    return out


def _match_fixed(
    edges: Dataset,
    vars_: list[str],
    preds: list[list[str] | None],
    *,
    subj: str,
    pred: str,
    obj: str,
    distinct_nodes: bool,
) -> Dataset:
    from code_graph_rag_ray.stages.relational import bucketed_join

    paths = _hop_edges(edges, preds[0], (vars_[0], vars_[1]),
                       subj=subj, pred=pred, obj=obj)
    if distinct_nodes:
        paths = paths.map_batches(
            lambda b, v=tuple(vars_[:2]): b.filter(
                pc.invert(pc.equal(b[v[0]], b[v[1]]))),
            batch_format="pyarrow",
        )
    bound = [vars_[0], vars_[1]]
    for i, hop_preds in enumerate(preds[1:], start=1):
        prev, new = vars_[i], vars_[i + 1]
        hop = _hop_edges(edges, hop_preds, (prev, new),
                         subj=subj, pred=pred, obj=obj)
        paths = bucketed_join(
            paths, hop, on=prev,
            left_schema=pa.schema([(c, pa.string()) for c in bound]),
            right_schema=pa.schema([(prev, pa.string()), (new, pa.string())]),
        )
        bound = bound + [new]
        if distinct_nodes:
            def no_cycle(b: pa.Table, _new=new,
                         _prior=tuple(c for c in bound[:-1])) -> pa.Table:
                if b.num_rows == 0:
                    return b
                ok = None
                for c in _prior:
                    neq = pc.invert(pc.equal(b[_new], b[c]))
                    ok = neq if ok is None else pc.and_(ok, neq)
                return b.filter(ok)

            paths = paths.map_batches(no_cycle, batch_format="pyarrow")
    return paths


def count_pattern(
    edges: Dataset,
    pattern: str,
    *,
    subj: str = "subj",
    pred: str = "pred",
    obj: str = "obj",
    distinct_nodes: bool = True,
    alias: str = "n_paths",
) -> Dataset:
    """FACTORIZED path counting: (first_var, last_var, alias) with the
    exact same counts as ``path_counts(match_pattern(...))`` — but the
    path relation is never materialized. Each hop table is pre-counted
    per DISTINCT (u, v) pair, joins carry distinct variable BINDINGS with
    a multiplicity column (multiplied at each hop), and the finish is a
    weighted sum. Cycle exclusion still sees full bindings, so simple-path
    semantics are preserved.

    Intermediate size is bounded by DISTINCT bindings instead of the
    path-multiplicity product — on a provenance-multiplicity KG (many
    parallel edges between few entities) this collapses a combinatorial
    blow-up (measured: the 3-hop catalog query's ~39M-row path relation
    becomes ≤|vocab|³ binding rows; 17 s → ~3 s at sf0.1). On graphs with
    mostly unique pairs it degenerates gracefully to the same size as the
    path relation, never worse.
    """
    import itertools

    from code_graph_rag_ray.stages.relational import (
        bucketed_join,
        partial_groupby_sum,
    )

    vars_, hops = parse_pattern(pattern)
    if "__n" in vars_:
        raise ValueError("'__n' is reserved by count_pattern")
    edges = edges.materialize()

    def hop_counted(preds: list[str] | None, names: tuple[str, str]) -> Dataset:
        return partial_groupby_sum(
            _hop_edges(edges, preds, names, subj=subj, pred=pred, obj=obj),
            [names[0], names[1]], {}, count_alias="__n",
        )

    def chain(evars: list[str], epreds: list[list[str] | None]) -> Dataset:
        paths = hop_counted(epreds[0], (evars[0], evars[1]))
        if distinct_nodes:
            paths = paths.map_batches(
                lambda b, v=tuple(evars[:2]): b.filter(
                    pc.invert(pc.equal(b[v[0]], b[v[1]]))),
                batch_format="pyarrow",
            )
        bound = [evars[0], evars[1]]
        for i, hop_preds in enumerate(epreds[1:], start=1):
            prev, new = evars[i], evars[i + 1]
            hop = hop_counted(hop_preds, (prev, new))
            lschema = pa.schema([(c, pa.string()) for c in bound]
                                + [("__n", pa.int64())])
            paths = bucketed_join(
                paths, hop, on=prev, left_schema=lschema,
                right_schema=pa.schema([(prev, pa.string()),
                                        (new, pa.string()),
                                        ("__n", pa.int64())]),
            )
            bound = bound + [new]

            def fold(b: pa.Table, _new=new,
                     _prior=tuple(bound[:-1]),
                     _cols=tuple(bound)) -> pa.Table:
                out_schema = pa.schema(
                    [(c, pa.string()) for c in _cols] + [("__n", pa.int64())])
                if b.num_rows == 0:
                    return out_schema.empty_table()
                n = pc.multiply(pc.cast(b["__n"], pa.int64()),
                                pc.cast(b["__n_r"], pa.int64()))
                b = b.drop_columns(["__n", "__n_r"]).append_column("__n", n)
                if distinct_nodes:
                    ok = None
                    for c in _prior:
                        neq = pc.invert(pc.equal(b[_new], b[c]))
                        ok = neq if ok is None else pc.and_(ok, neq)
                    b = b.filter(ok)
                return b.select(list(_cols) + ["__n"])

            paths = paths.map_batches(fold, batch_format="pyarrow")
        return paths.map_batches(
            lambda b, _s=evars[0], _d=evars[-1]: pa.table(
                {vars_[0]: pc.cast(b[_s], pa.string()),
                 vars_[-1]: pc.cast(b[_d], pa.string()),
                 "__n": pc.cast(b["__n"], pa.int64())}),
            batch_format="pyarrow",
        )

    ranges = [range(lo, hi + 1) for _, lo, hi in hops]
    out = None
    for combo in itertools.product(*ranges):
        evars: list[str] = [vars_[0]]
        epreds: list[list[str] | None] = []
        for i, n in enumerate(combo):
            for k in range(n - 1):
                evars.append(f"__v{i}_{k}")
                epreds.append(hops[i][0])
            evars.append(vars_[i + 1])
            epreds.append(hops[i][0])
        part = chain(evars, epreds)
        out = part if out is None else out.union(part)
    return partial_groupby_sum(out, [vars_[0], vars_[-1]], {"__n": alias})


def path_counts(paths: Dataset, src: str, dst: str,
                alias: str = "n_paths") -> Dataset:
    """Fold a path relation to (src, dst, count) via the standard
    partial-sum shuffle (one partial row per key per batch)."""
    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    def one(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({src: pa.array([], pa.string()),
                             dst: pa.array([], pa.string()),
                             "one": pa.array([], pa.int64())})
        return pa.table({src: pc.cast(b[src], pa.string()),
                         dst: pc.cast(b[dst], pa.string()),
                         "one": pa.array(np.ones(b.num_rows, np.int64))})

    return partial_groupby_sum(
        paths.map_batches(one, batch_format="pyarrow"),
        [src, dst], {"one": alias},
    )


def bounded_reachability(
    edges: Dataset,
    seeds: Dataset,
    *,
    k: int = 3,
    subj: str = "subj",
    obj: str = "obj",
    seed_col: str = "node",
) -> Dataset:
    """(src, node, hops): minimum DIRECTED hop distance ≤ ``k`` from every
    seed to every reachable node — the ``(src)-[*1..k]->(node)`` query.

    Labeled frontier BFS: every frontier row carries its origin seed, so
    distances are per (src, node) PAIR. Round r: frontier ⋈ out-edges
    (bucketed cogroup on the frontier's node), within-round pair dedup
    (partial-count shuffle keeps one row per pair), then a composite-key
    ANTI join against the settled table so cyclic / converging paths never
    re-expand. Settled pairs accumulate via union of per-round Datasets;
    each round's NEW pairs are materialized (they are the next frontier —
    the round boundary is a genuine barrier, and the frontier is the
    smallest relation in flight).

    Seeds with no out-edges still appear with hops=0 (a seed reaches
    itself), matching the recursive-CTE oracle's base case.
    """
    from code_graph_rag_ray.stages.relational import bucketed_join

    pair_schema = pa.schema([("src", pa.string()), ("node", pa.string())])

    def as_pairs(b: pa.Table) -> pa.Table:
        col = pc.cast(b[seed_col], pa.string())
        return pa.table({"src": col, "node": col})

    def with_hops(h: int):
        def f(b: pa.Table) -> pa.Table:
            return pa.table({
                "src": pc.cast(b["src"], pa.string()),
                "node": pc.cast(b["node"], pa.string()),
                "hops": pa.array(np.full(b.num_rows, h, np.int64)),
            })
        return f

    base = seeds.map_batches(as_pairs, batch_format="pyarrow")
    base = _bucketed_distinct(base)
    settled = base.map_batches(with_hops(0), batch_format="pyarrow").materialize()
    frontier = settled
    out_edges = edges.map_batches(
        lambda b: pa.table({"node": pc.cast(b[subj], pa.string()),
                            "nbr": pc.cast(b[obj], pa.string())}),
        batch_format="pyarrow",
    ).materialize()  # joined every round; execute the upstream once

    acc = [settled]
    for r in range(1, k + 1):
        stepped = bucketed_join(
            frontier.select_columns(["src", "node"]), out_edges, on="node",
            left_schema=pair_schema,
            right_schema=pa.schema([("node", pa.string()),
                                    ("nbr", pa.string())]),
        ).map_batches(
            lambda b: pa.table({"src": pc.cast(b["src"], pa.string()),
                                "node": pc.cast(b["nbr"], pa.string())}),
            batch_format="pyarrow",
        )
        stepped = _bucketed_distinct(stepped)
        new = bucketed_join(
            stepped,
            # settled pairs so far: key columns only cross the anti shuffle
            _concat_pairs(acc),
            on=["src", "node"], how="anti",
            left_schema=pair_schema, right_schema=pair_schema,
        ).map_batches(with_hops(r), batch_format="pyarrow").materialize()
        acc.append(new)
        frontier = new
        if new.count() == 0:
            break
    out = acc[0]
    for ds in acc[1:]:
        out = out.union(ds)
    return out


def _concat_pairs(parts: list[Dataset]) -> Dataset:
    out = parts[0].select_columns(["src", "node"])
    for ds in parts[1:]:
        out = out.union(ds.select_columns(["src", "node"]))
    return out


def _bucketed_distinct(pairs: Dataset) -> Dataset:
    """Distinct (src, node) pairs — one Arrow distinct per
    ``bucketed_groups`` bucket instead of a high-cardinality groupby
    (NOTES.md fact 25: ~1M distinct pair groups cost 101 s of per-group
    reduce). The same distinct runs batch-local before the shuffle."""
    from code_graph_rag_ray.stages.relational import bucketed_groups

    def distinct(b: pa.Table) -> pa.Table:
        return pa.TableGroupBy(b.select(["src", "node"]), ["src", "node"],
                               use_threads=False).aggregate([])

    return bucketed_groups(pairs.map_batches(distinct, batch_format="pyarrow"),
                           ["src", "node"], distinct)
