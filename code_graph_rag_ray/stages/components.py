"""Connected components over an edge Dataset — iterative min-label propagation.

Generalizes the reference's partial-group canonicalization
(``graph_updater.py:435-463``: C# partial type declarations grouped by a
stronger symbol identity — SURVEY.md §2.5 A3 calls this the closest thing to
union-find canonicalization) into a reusable distributed operator, also used
by the near-duplicate clustering operators.

Algorithm: every node starts labeled with itself; each round every node
takes the min label over itself and its neighbors; converged when no label
changes. A round is expressed as a **cogroup join** (the tagged edge and
label tables through one ``relational.bucketed_groups`` shuffle on the node
key, a vectorized hash lookup per bucket) followed by a groupby-min —
i.e. two hash shuffles on the node key. We deliberately avoid
``Dataset.join`` inside the loop: in Ray 2.49 a join's empty hash partitions
emit schema-less blocks that poison the schema of downstream joins
(observed: ``ArrowInvalid: No match ... FieldRef.Name(node)``); the cogroup
formulation keeps every intermediate schema explicit.

Rounds are bounded (``max_iter``) with an early-exit convergence check.
Diameter of alias/near-dup graphs is small in practice (2-4), so few rounds
suffice; pathological chains fall back to the bound.

Skew note: a head component (every page mentioning wikipedia.org) makes one
groupby key hot; the groupby-min pre-reduces per block (combiner), so hot
keys shrink to one row per block before the exchange — the two-phase shape
from SURVEY.md §4. The per-node cogroup fan-out is bounded by node degree,
not component size, so head components don't concentrate on one task.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Count, Min


def _symmetrize(edges: Dataset, src: str, dst: str) -> Dataset:
    def both(b: pa.Table) -> pa.Table:
        fwd = pa.table({"node": b[src].cast(pa.string()), "nbr": b[dst].cast(pa.string())})
        rev = pa.table({"node": b[dst].cast(pa.string()), "nbr": b[src].cast(pa.string())})
        return pa.concat_tables([fwd, rev])

    return edges.map_batches(both, batch_format="pyarrow")


def _tagged(ds: Dataset, **cols: str | None) -> Dataset:
    """One side of a tagged-union cogroup: output column ← input column,
    or an all-null string column where the source is None."""
    def tag(b: pa.Table) -> pa.Table:
        return pa.table({out: b[src] if src else pa.nulls(b.num_rows, pa.string())
                         for out, src in cols.items()})

    return ds.map_batches(tag, batch_format="pyarrow")


def _lookup(keys: pa.ChunkedArray, dir_keys: pa.ChunkedArray, vals) -> pa.Array:
    """``vals`` of the first ``dir_keys`` entry equal to each key (null
    where absent) — one vectorized hash lookup, the per-bucket body of
    every cogroup below."""
    return pc.take(vals, pc.index_in(keys, value_set=dir_keys.combine_chunks()))


def _propagate_round(sym: Dataset, labels: Dataset) -> Dataset:
    """One message round: every node sends its label to every neighbor.

    Implemented as a bucketed cogroup join: edge rows and label rows are
    tagged and meet in one ``bucketed_groups`` shuffle on the key; each
    bucket looks its edges' labels up in one vectorized pass —
    skew-bounded (a head node's edges hash to one bucket but the lookup
    is columnar, and the follow-up groupby-min pre-reduces per block)."""
    from code_graph_rag_ray.stages.relational import bucketed_groups

    edge_rows = _tagged(sym, key="node", nbr="nbr", label=None)
    label_rows = _tagged(labels, key="node", nbr=None, label="label")

    def send(g: pa.Table) -> pa.Table:
        edges = g.filter(pc.is_null(g["label"]))
        labs = g.filter(pc.is_valid(g["label"]))
        # neighbor messages (inner join on the key) plus each node's own
        msgs = pa.table({"node": edges["nbr"],
                         "label": _lookup(edges["key"], labs["key"], labs["label"])})
        return pa.concat_tables([
            msgs.filter(pc.is_valid(msgs["label"])),
            pa.table({"node": labs["key"], "label": labs["label"]}),
        ])

    msgs = bucketed_groups([edge_rows, label_rows], "key", send)
    return msgs.groupby("node").aggregate(Min("label", alias_name="label"))


def _compress(labels: Dataset) -> Dataset:
    """Pointer jumping: label(node) ← label(label(node)).

    Contracts label chains exponentially (the union-find path-compression
    analog), so total rounds are O(log diameter) instead of O(diameter).
    Implemented as one cogroup on the label value: every node asks the
    "directory" row of its current label for THAT node's label.
    """
    from code_graph_rag_ray.stages.relational import bucketed_groups

    requests = _tagged(labels, key="label", asker="node", label=None)
    directory = _tagged(labels, key="node", asker=None, label="label")

    def answer(g: pa.Table) -> pa.Table:
        reqs = g.filter(pc.is_valid(g["asker"]))
        dirs = g.filter(pc.is_null(g["asker"]))
        # every label value is itself a node id, so a directory row exists;
        # fall back to the key (self-rooted) defensively
        found = _lookup(reqs["key"], dirs["key"], dirs["label"])
        return pa.table({"node": reqs["asker"],
                         "label": pc.coalesce(found, reqs["key"])})

    return (
        bucketed_groups([requests, directory], "key", answer)
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
    )


def _count_changed(old: Dataset, new: Dataset) -> int:
    from code_graph_rag_ray.stages.relational import bucketed_groups

    a = _tagged(old, node="node", old="label", new=None)
    b_ = _tagged(new, node="node", old=None, new="label")

    def diff(g: pa.Table) -> pa.Table:
        o = g.filter(pc.is_valid(g["old"]))
        n = g.filter(pc.is_valid(g["new"]))
        changed = pc.not_equal(o["old"], _lookup(o["node"], n["node"], n["new"]))
        return pa.table({"c": pa.array([pc.sum(changed).as_py() or 0], pa.int64())})

    out = bucketed_groups([a, b_], "node", diff).sum("c")
    return int(out or 0)


def connected_components(
    edges: Dataset,
    src: str = "src",
    dst: str = "dst",
    *,
    max_iter: int = 8,
) -> Dataset:
    """edges(src, dst) → (node, component) with component = min node id.

    Node ids are compared as strings. The result covers every node that
    appears in at least one edge.
    """
    sym = _symmetrize(edges, src, dst).materialize()
    labels = (
        sym.groupby("node")
        .aggregate(Min("nbr", alias_name="label"))
        .map_batches(
            lambda b: pa.table(
                {"node": b["node"], "label": pc.min_element_wise(b["node"], b["label"])}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    for _ in range(max_iter):
        new = _compress(_propagate_round(sym, labels)).materialize()
        changed = _count_changed(labels, new)
        labels = new
        if changed == 0:
            break
    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "component": b["label"]}),
        batch_format="pyarrow",
    )


def component_sizes(labels: Dataset) -> Dataset:
    return labels.groupby("component").aggregate(Count(alias_name="size"))
