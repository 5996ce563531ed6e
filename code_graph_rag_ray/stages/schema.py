"""Graph schema: typed node labels + relation legality validation.

The reference declares a fixed, code-maintained graph schema: 21 node
labels (``constants/graph.py:87-109``), 25 relationship types with a
source→rel→target legality matrix (``docs/architecture/graph-schema.md:
40-68``), and a schema audit (``AuditCheck``, ``constants/graph.py:
274-307``). Web-text analog:

- node labels come from the alias dictionary's optional ``etype`` column
  (see :func:`~code_graph_rag_ray.stages.canonicalize.entity_type_map`);
  minted externals are always ``ExternalEntity`` — derivable from the
  ``ext::`` id prefix alone,
- a per-predicate **legality matrix** ``{pred: (allowed_subj_labels,
  allowed_obj_labels)}`` (``None`` side = unconstrained) validates edge
  endpoints.

Scale shape: the label map is dictionary-scale → broadcast once (``ray.put``
+ per-worker cache, as two Arrow arrays) and looked up with one
``index_in`` inside a stateless Arrow ``map_batches``; external labels
need no lookup at all. Validation is a single streaming pass — no join,
no shuffle — vectorized per rule (few rules, Arrow masks), never a
per-row Python loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.functions.broadcast import get_broadcast_transformed
from code_graph_rag_ray.stages.canonicalize import entity_type_map
from code_graph_rag_ray.stages.relational import _mapped, _runs, run_starts

# legality matrix type: pred -> (allowed subj labels | None, allowed obj
# labels | None); preds absent from the matrix are unconstrained
Legality = dict[str, tuple[frozenset[str] | None, frozenset[str] | None]]


def _type_arrays(alias_tbl: pa.Table) -> tuple[pa.Array, pa.Array]:
    """:func:`entity_type_map` as aligned (entity id, label) arrays."""
    types = entity_type_map(alias_tbl)
    return pa.array(list(types), pa.string()), pa.array(list(types.values()), pa.string())


def _labels_for(col, types: tuple[pa.Array, pa.Array]):
    """Node label per entity id: ``ExternalEntity`` for a minted ``ext::``
    id, else the dictionary's label (``Entity`` when it has none)."""
    ids, labels = types
    mapped = pc.fill_null(pc.take(labels, pc.index_in(col, value_set=ids)), "Entity")
    return pc.if_else(pc.fill_null(pc.starts_with(col, "ext::"), False),
                      "ExternalEntity", mapped)


def validate_edges(
    edges: Dataset,
    alias_ref,
    legality: Legality,
    *,
    mode: str = "flag",
) -> Dataset:
    """Validate edge endpoints against the legality matrix.

    ``alias_ref`` is a ``ray.ObjectRef`` to the alias table (broadcast once)
    or a plain ``pa.Table`` (tests). ``mode``:

    - ``"flag"``: append a ``violation`` column (``subj-label`` /
      ``obj-label`` / null) — the audit shape (``AuditCheck`` analog),
    - ``"drop"``: keep only legal edges (cgr drops illegal emissions at the
      ingest choke point, ``services/filtering.py:9-53``),
    - ``"violations"``: keep only the offending edges (findings feed).
    """
    if mode not in ("flag", "drop", "violations"):
        raise ValueError(f"unknown mode {mode!r}")
    rules = {
        p: (frozenset(s) if s is not None else None,
            frozenset(o) if o is not None else None)
        for p, (s, o) in legality.items()
    }

    def check(b: pa.Table) -> pa.Table:
        types = get_broadcast_transformed(alias_ref, "etype_arrays", _type_arrays)
        viol = pa.chunked_array([pa.nulls(b.num_rows, pa.string())])
        labels = {}
        for pred, sides in rules.items():
            m = pc.fill_null(pc.equal(b["pred"], pred), False)
            if not pc.any(m).as_py():
                continue
            for col, ok, tag in zip(("subj", "obj"), sides, ("subj-label", "obj-label")):
                if ok is None:
                    continue
                if col not in labels:
                    labels[col] = _labels_for(b[col], types)
                bad = pc.and_(m, pc.invert(pc.is_in(
                    labels[col], value_set=pa.array(sorted(ok), pa.string()))))
                viol = pc.if_else(pc.and_(bad, pc.is_null(viol)), tag, viol)
        if mode == "drop":
            return b.filter(pc.is_null(viol))
        b = b.append_column("violation", viol)
        return b.filter(pc.is_valid(viol)) if mode == "violations" else b

    return _mapped(edges, check)


def induce_schema(edges: Dataset, alias_ref) -> Dataset:
    """Schema INDUCTION — the learned counterpart of :func:`validate_edges`'
    fixed legality matrix (reference: the hand-written per-relation
    endpoint constraints, ``docs/architecture/graph-schema.md:40-68``):
    mine each predicate's dominant ``(subj_label, obj_label)`` signature
    from the edge table itself, with support counts, so constraint tables
    can be bootstrapped from data instead of authored.

    Output per predicate: ``(pred, subj_label, obj_label, support,
    total, support_micro)`` — the most frequent label pair (ties broken
    by label text, deterministic), its edge count, the predicate's total
    edge count, and the integer-exact dominance ratio in micro-units.

    Scale shape: one streaming pass folds batch-local ``(pred, slabel,
    olabel)`` counts (an Arrow ``group_by`` per batch), a grouped sum
    merges the partials, and — because the merged table is SCHEMA-scale
    (≤ |preds| × |labels|², dictionary-bounded, not corpus-bounded) —
    the argmax/total finish runs vectorized in one block. The edge table
    itself never leaves the streaming pass.
    """
    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    keys = ["pred", "subj_label", "obj_label"]

    def partial(b: pa.Table) -> pa.Table:
        types = get_broadcast_transformed(alias_ref, "etype_arrays", _type_arrays)
        t = pa.table({"pred": b["pred"], "subj_label": _labels_for(b["subj"], types),
                      "obj_label": _labels_for(b["obj"], types)})
        g = pa.TableGroupBy(t, keys, use_threads=False).aggregate([([], "count_all")])
        return pa.table({**{k: g[k] for k in keys}, "n": g["count_all"]})

    counts = partial_groupby_sum(_mapped(edges, partial), keys, {"n": "support"})

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            b = pa.schema([(k, pa.string()) for k in keys]
                          + [("support", pa.int64())]).empty_table()
        b = b.take(pc.sort_indices(b, sort_keys=[
            ("pred", "ascending"), ("support", "descending"),
            ("subj_label", "ascending"), ("obj_label", "ascending")]))
        starts, _, _ = _runs(run_starts(b, ["pred"]))
        support = pc.cast(b["support"], pa.int64()).to_numpy()
        total = np.add.reduceat(support, starts) if len(starts) else support
        support = support[starts]
        micro = (support.astype(object) * 10**6) // total  # exact int
        return pa.table({**{k: b[k].take(starts) for k in keys},
                         "support": pa.array(support, pa.int64()),
                         "total": pa.array(total, pa.int64()),
                         "support_micro": pa.array(micro.astype(np.int64))})

    return counts.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None
    )
