"""Entity canonicalization — node table, variant suffixes, name families.

Implements the reference's MERGE-identity semantics over the linked-mention
stream (SURVEY.md §2.5):

- per-entity node rows aggregated from mentions (A1: node MERGE dedup keyed
  on the per-label unique key — here ``entity_id``),
- the duplicate-identity rule: distinct entities whose canonical names
  normalize identically keep BOTH rows, the first (by entity id) keeps the
  plain name and later ones get a deterministic ``@k`` variant suffix —
  cgr's ``register_unique_qn`` (``function_registry.py:69-93``), made
  order-free by deriving rank from the sorted entity id, never arrival
  order,
- ``name_family``: connected components over the alias↔entity bipartite
  graph (A3 generalized — iterative union-find via
  :mod:`code_graph_rag_ray.stages.components`).

Aggregation is two-phase everywhere (batch-local partials before the
groupby) so head entities (the wikipedia.org case) reduce per block before
the exchange — the skew discipline from SURVEY.md §4.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Count

from code_graph_rag_ray.stages.components import connected_components
from code_graph_rag_ray.stages.linking import normalize_surface


def canonical_name_map(alias_tbl: pa.Table) -> dict[str, str]:
    """entity_id → canonical display name.

    The canonical name is the entity's best alias by (prior, length, text) —
    deterministic; for the generated corpus this is always the full name.
    """
    best: dict[str, tuple[float, int, str]] = {}
    for row in alias_tbl.to_pylist():
        key = (row["prior"], len(row["alias"]), row["alias"])
        if row["entity_id"] not in best or key > best[row["entity_id"]]:
            best[row["entity_id"]] = key
    return {eid: k[2] for eid, k in best.items()}


def entity_type_map(alias_tbl: pa.Table) -> dict[str, str]:
    """entity_id → node label from the dictionary's optional ``etype``
    column — the analog of cgr's per-label node taxonomy
    (``constants/graph.py:87-109`` ``NodeLabel``): the dictionary declares
    what KIND of entity each id is; absent column (or null etype) defaults
    to the generic ``Entity`` label."""
    if "etype" not in alias_tbl.column_names:
        return {}
    out: dict[str, str] = {}
    for row in alias_tbl.select(["entity_id", "etype"]).to_pylist():
        if row["etype"]:
            out[row["entity_id"]] = row["etype"]
    return out


def prune_orphans(nodes: Dataset, edges: Dataset) -> Dataset:
    """General orphan pruning (A6 analog, ``graph_updater.py:1961-2049``,
    ``constants/graph.py:371-373``): ExternalEntity nodes survive only when
    some edge references them; internal (dictionary) nodes are always kept
    — cgr keeps every registered definition but prunes ExternalModules with
    no inbound edge.

    Node-vs-edge-endpoint anti-join as a bucketed cogroup (both sides are
    corpus-scale — no broadcast). Endpoints pre-dedup inside each batch so
    the join right side is bounded by distinct entities per block.
    """
    from code_graph_rag_ray.stages.materialize import dedup_batch_local
    from code_graph_rag_ray.stages.relational import bucketed_join

    def endpoints(b: pa.Table) -> pa.Table:
        both = pa.table(
            {"entity_id": pa.concat_arrays(
                [b["subj"].combine_chunks(), b["obj"].combine_chunks()]
            )}
        )
        out = dedup_batch_local(both, ["entity_id"])
        return out.append_column(
            "__ref", pa.array(np.ones(out.num_rows, np.int8))
        )

    refs = edges.map_batches(endpoints, batch_format="pyarrow")
    joined = bucketed_join(
        nodes, refs, on="entity_id", how="left",
        right_schema=pa.schema([("entity_id", pa.string()), ("__ref", pa.int8())]),
    )

    def keep(b: pa.Table) -> pa.Table:
        m = pc.or_(pc.fill_null(pc.not_equal(b["label"], "ExternalEntity"), True),
                   pc.is_valid(b["__ref"]))
        # a node may match many edge-endpoint rows (one per edge block);
        # all copies share the node's bucket, so they sit in ONE cogroup
        # output block — batch_size=None keeps block granularity and makes
        # this per-batch dedup exact
        return dedup_batch_local(b.filter(m).drop_columns(["__ref"]),
                                 ["entity_id"])

    return joined.map_batches(keep, batch_format="pyarrow", batch_size=None)


def canonicalize_entities(
    mentions: Dataset,
    alias_tbl: pa.Table,
) -> Dataset:
    """Linked mentions → node table — DISTRIBUTED end to end.

    Output: (entity_id, name, label, norm_name, n_mentions, name_family).
    ``label`` = the dictionary's ``etype`` for internal entities (default
    ``Entity`` when the column is absent) and ``ExternalEntity`` for minted
    externals — the cgr node-label analog: typed definitions vs
    ExternalModule (``constants/graph.py:87-109``).

    Externals are minted from arbitrary proper-noun runs in page text, so
    at web scale the node universe is CORPUS-sized, not dictionary-sized —
    every assembly step therefore stays a dataset op: mention counts via
    groupby, the dictionary↔counts left join and the family join via the
    bucketed cogroup join, and the variant-suffix rank via one
    ``bucketed_groups`` keyed on ``norm_name``. Only the alias dictionary
    itself (the broadcast side) is driver-resident. ``Dataset.join`` is
    deliberately NOT used: Ray 2.49 materializes empty hash partitions
    with no schema, which breaks pyarrow's join on sparse keys (see
    stages/components.py).
    """
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import (
        _runs,
        bucketed_groups,
        bucketed_join,
        run_starts,
    )

    # DISTRIBUTED 1: mention counts per entity (groupby pre-reduces per
    # block, so head entities shrink before the exchange).
    counts = mentions.groupby("entity_id").aggregate(Count(alias_name="n_mentions"))

    def only_ext(b: pa.Table) -> pa.Table:
        f = b.filter(pc.starts_with(b["entity_id"], "ext::"))
        # ext:: ids were minted via normalize_surface, so the stripped name
        # is already canonical
        return pa.table(
            {"entity_id": f["entity_id"],
             "name": pc.utf8_slice_codeunits(f["entity_id"], start=len("ext::"), stop=2**30),
             "n_mentions": pc.cast(f["n_mentions"], pa.int64()),
             "label": pa.array(["ExternalEntity"] * f.num_rows, pa.string())}
        )

    def only_internal(b: pa.Table) -> pa.Table:
        return b.filter(pc.invert(pc.starts_with(b["entity_id"], "ext::")))

    ext_nodes = counts.map_batches(only_ext, batch_format="pyarrow")
    internal_counts = counts.map_batches(only_internal, batch_format="pyarrow")

    # node universe base = every DICTIONARY entity (cgr: every registered
    # definition gets a node whether or not it is referenced,
    # function_registry.py:18-60) — dictionary-scale, ships as a dataset
    names = canonical_name_map(alias_tbl)
    types = entity_type_map(alias_tbl)
    base = rd.from_arrow(
        pa.table(
            {"entity_id": pa.array(sorted(names), pa.string()),
             "name": pa.array([names[k] for k in sorted(names)], pa.string()),
             "label": pa.array(
                 [types.get(k, "Entity") for k in sorted(names)], pa.string()
             )}
        )
    )
    base_counts = bucketed_join(
        base, internal_counts, on="entity_id", how="left",
        # internal_counts is a lazy groupby output — without the hint the
        # join's driver-side name probe executes the mention-count shuffle
        right_schema=pa.schema(
            [("entity_id", pa.string()), ("n_mentions", pa.int64())]
        ),
    )

    def finish_internal(b: pa.Table) -> pa.Table:
        return pa.table({
            "entity_id": b["entity_id"], "name": b["name"],
            "n_mentions": pc.fill_null(pc.cast(b["n_mentions"], pa.int64()), 0),
            "label": b["label"]})

    internal_nodes = base_counts.map_batches(finish_internal, batch_format="pyarrow")
    nodes = internal_nodes.union(ext_nodes)

    def add_norm(b: pa.Table) -> pa.Table:
        # vectorized normalize_surface (lower == casefold for this ASCII
        # name space; whitespace collapse + trim matches str.split/join)
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.utf8_lower(b["name"]), pattern=r"\s+", replacement=" "
            )
        )
        return b.append_column("norm_name", norm)

    nodes = nodes.map_batches(add_norm, batch_format="pyarrow")

    # duplicate-identity variant suffix: deterministic rank within
    # norm_name (sorted by entity id — content-determined, never arrival
    # order), one vectorized finish per hash bucket of names — a
    # per-norm_name map_groups pays a Python call per DISTINCT NAME,
    # corpus-scale here since externals are minted from page text.
    def rank_bucket(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("norm_name", "ascending"), ("entity_id", "ascending")]))
        _, _, k = _runs(run_starts(t, ["norm_name"]))
        suffixed = pc.binary_join_element_wise(
            t["name"], pa.array(k.astype(str), pa.string()), "@")
        name = pc.if_else(pa.array(k > 0), suffixed, t["name"])
        return t.set_column(t.column_names.index("name"), "name", name)

    nodes = bucketed_groups(nodes, "norm_name", rank_bucket)

    # DISTRIBUTED 2: name families — CC over the alias↔entity bipartite
    # graph (A3 analog), joined back per entity.
    alias_edges_rows = [
        {"src": "s::" + normalize_surface(r["alias"]), "dst": r["entity_id"]}
        for r in alias_tbl.to_pylist()
    ]
    if alias_edges_rows:
        alias_edges = rd.from_arrow(pa.Table.from_pylist(alias_edges_rows))
        comp = connected_components(alias_edges)
        fam = comp.map_batches(
            lambda b: pa.table(
                {"entity_id": b["node"], "name_family": b["component"]}
            ),
            batch_format="pyarrow",
        )
        # nodes is a lazy bucketed_groups output (the variant rank) and
        # fam rides on the CC loop — schema hints keep the join's probe
        # from executing the whole node assembly / CC once for the names
        nodes = bucketed_join(
            nodes, fam, on="entity_id", how="left",
            left_schema=pa.schema(
                [("entity_id", pa.string()), ("name", pa.string()),
                 ("n_mentions", pa.int64()), ("label", pa.string()),
                 ("norm_name", pa.string())]
            ),
            right_schema=pa.schema(
                [("entity_id", pa.string()), ("name_family", pa.string())]
            ),
        )
    else:
        nodes = nodes.map_batches(
            lambda b: b.append_column("name_family", pa.nulls(b.num_rows, pa.string())),
            batch_format="pyarrow",
        )

    cols = ["entity_id", "name", "label", "norm_name", "n_mentions", "name_family"]
    return nodes.map_batches(lambda b: b.select(cols), batch_format="pyarrow")


def prune_unreferenced(
    nodes: Dataset,
    edges: Dataset,
    *,
    id_col: str = "entity_id",
    endpoints: tuple[str, str] = ("subj", "obj"),
    node_schema: pa.Schema | None = None,
) -> Dataset:
    """STRICT orphan-node pruning (A6, graph_updater.py delete-path
    semantics): keep only nodes referenced by at least one LIVE edge — the
    node-vs-live-graph semi-join the reference runs after file deletions
    ("remove nodes whose defining file is gone"), generalized to any
    node/edge tables. Unlike :func:`prune_orphans` (which keeps dictionary
    nodes unconditionally and prunes only externals), every unreferenced
    node goes.

    Scale shape: edge endpoints project into one column with a per-batch
    unique() combiner (a whale node's edges collapse to one row per block
    before the shuffle), then ONE bucketed cogroup SEMI join — both sides
    corpus-scale, never a broadcast, never a driver materialization.
    ``node_schema`` skips the lazy-plan schema probe (NOTES.md fact 22).
    """
    from code_graph_rag_ray.stages.relational import bucketed_join

    def ends(b: pa.Table) -> pa.Table:
        parts = []
        for c in endpoints:
            a = pc.cast(b[c], pa.string())
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            parts.append(a)
        u = pc.unique(pa.concat_arrays(parts).drop_null())
        return pa.table({"__end": u})

    live = edges.map_batches(ends, batch_format="pyarrow")
    return bucketed_join(
        nodes, live, on=id_col, right_on="__end", how="semi",
        left_schema=node_schema,
        right_schema=pa.schema([("__end", pa.string())]),
    )


def dead_nodes(
    nodes: Dataset,
    edges: Dataset,
    *,
    id_col: str = "entity_id",
    endpoints: tuple[str, str] = ("subj", "obj"),
    node_schema: pa.Schema | None = None,
) -> Dataset:
    """The ANTI side of :func:`prune_unreferenced` — nodes no live edge
    references (the reference's ``dead-code`` command: definitions with no
    inbound CALLS, ``dead_code.py``). Same endpoint-combiner + bucketed
    cogroup, anti instead of semi."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    def ends(b: pa.Table) -> pa.Table:
        parts = []
        for c in endpoints:
            a = pc.cast(b[c], pa.string())
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            parts.append(a)
        u = pc.unique(pa.concat_arrays(parts).drop_null())
        return pa.table({"__end": u})

    live = edges.map_batches(ends, batch_format="pyarrow")
    return bucketed_join(
        nodes, live, on=id_col, right_on="__end", how="anti",
        left_schema=node_schema,
        right_schema=pa.schema([("__end", pa.string())]),
    )
