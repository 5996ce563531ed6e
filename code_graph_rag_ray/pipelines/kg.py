"""The flagship pipeline: pages → knowledge graph (nodes + edge triples).

End-to-end Ray Data composition of the stage modules — the analog of the
reference's ``GraphUpdater.run()`` three-pass lifecycle
(``graph_updater.py:604-796``), re-expressed as one streaming dataset
pipeline with explicit shuffles:

    read pages ──map_batches──▶ extract_text (drop html early)
        └─▶ MentionLinker tasks (broadcast alias dict)       [Pass 2+3]
              ├─▶ triples: filter+project → exact_dedup (groupby shuffle)
              └─▶ nodes: canonicalize_entities (groupby + CC)  [A1/A3]
    materialize: hash(subj)-partitioned, sorted parquet + manifests

With ``checkpoint_dir`` set, the mentions stage persists through
:class:`~code_graph_rag_ray.state.lineage.Checkpointer` — both downstream
branches then read one immutable parquet copy (no recompute of the pages
scan per consumer) and a rerun resumes from it.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.canonicalize import canonicalize_entities
from code_graph_rag_ray.stages.extract import extract_text_batch
from code_graph_rag_ray.stages.linking import link_mentions
from code_graph_rag_ray.stages.materialize import exact_dedup, materialize_graph
from code_graph_rag_ray.state.lineage import Checkpointer, partition_manifest


def triples_from_mentions(mentions: Dataset) -> Dataset:
    """Mention rows → raw (subj, pred, obj, provenance_url) triple rows."""

    def project(b: pa.Table) -> pa.Table:
        m = pc.is_valid(b["rel"])
        f = b.filter(m)
        return pa.table(
            {
                "subj": f["entity_id"],
                "pred": f["rel"],
                "obj": f["obj_entity_id"],
                "provenance_url": f["url"],
                "pos": f["start"],
            }
        )

    # whole blocks: the projection is one vectorized filter, and 1,024-row
    # batches only add per-batch cost (a 5,000-page block carries about
    # 143,000 mention rows)
    return mentions.map_batches(project, batch_format="pyarrow", batch_size=None)


def build_kg(
    pages: Dataset,
    alias_tbl: pa.Table,
    *,
    relations: dict[str, str] | None = None,
    registry: dict | None = None,
    checkpoint_dir: str | None = None,
    fingerprint: str = "",
    dedup_scope: str = "provenance-local",
    materialize_mentions: bool = True,
    build_nodes: bool = True,
    build_links: bool = False,
    host_priors: bool = False,
    shouty_two_tier: bool = False,
) -> dict:
    """Run the full KG construction over a pages Dataset.

    Returns dict with lazy Datasets: ``mentions``, ``edges`` (internal,
    exact-deduped on (subj, pred, obj, provenance_url)), ``external_edges``,
    ``nodes``; plus the checkpointer (if any) under ``ckpt``. With
    ``build_links=True``, also ``link_edges`` (links_to from resolved
    hrefs) and ``ext_sites`` — the web-native IMPORTS family emitted in
    the same run, mirroring cgr's verified-IMPORTS flush inside
    ``GraphUpdater.run()`` (``graph_updater.py:752-756``).
    """
    import ray

    alias_ref = ray.put(alias_tbl)

    def build_mentions() -> Dataset:
        text = pages.map_batches(extract_text_batch, batch_format="pyarrow")
        if host_priors:
            # two-pass linking with the corpus-mined host-prior side table
            # (J3 cross-page context) — opt-in: it scans the corpus twice,
            # like the reference's registry-then-resolve two-phase ingest
            from code_graph_rag_ray.stages.linking import link_mentions_two_pass

            return link_mentions_two_pass(
                text, alias_ref, relations=relations, registry=registry,
                shouty_two_tier=shouty_two_tier,
            )
        if shouty_two_tier:
            # ALL-CAPS pages route to the bounded PreciseLinker pool
            # (M13/M14 heavy-frontend analog)
            from code_graph_rag_ray.stages.linking import link_mentions_two_tier

            return link_mentions_two_tier(
                text, alias_ref, relations=relations, registry=registry,
                shouty_to_precise=True,
            )
        return link_mentions(text, alias_ref, relations=relations, registry=registry)

    ckpt = None
    if checkpoint_dir:
        ckpt = Checkpointer(checkpoint_dir, fingerprint=fingerprint)
        mentions = ckpt.stage("mentions", build_mentions)
        if dedup_scope == "provenance-local":
            # parquet re-read re-chunks rows, so one page's mentions CAN
            # straddle two blocks — the block-local dedup argument no longer
            # holds (observed: one duplicate edge surviving a checkpointed
            # build). Fall back to the exact global shuffle.
            dedup_scope = "global"
    elif materialize_mentions:
        # pin once so the edges/nodes/external branches don't re-run the
        # pages scan per consumer
        mentions = build_mentions().materialize()
    else:
        # fully streaming: right when exactly ONE branch will be consumed
        # (e.g. edges-only) — no mid-pipeline barrier, blocks flow with
        # backpressure end to end
        mentions = build_mentions()

    out = derive_graph_outputs(
        mentions, alias_tbl,
        dedup_scope=dedup_scope, build_nodes=build_nodes,
    )
    if build_links:
        from code_graph_rag_ray.stages.links import extract_links, resolve_links

        links = resolve_links(
            extract_links(pages), pages.select_columns(["url"])
        )
        out["link_edges"] = links["internal"]
        out["ext_sites"] = links["external"]
    out["ckpt"] = ckpt
    return out


def derive_graph_outputs(
    mentions: Dataset,
    alias_tbl: pa.Table,
    *,
    dedup_scope: str = "provenance-local",
    build_nodes: bool = True,
) -> dict:
    """Mentions → {edges, external_edges, nodes}. Shared by the clean build
    and the incremental path (both must derive the graph the same way —
    that is what makes incremental == clean provable)."""
    raw = triples_from_mentions(mentions)

    def split_external(b: pa.Table) -> pa.Table:
        return b.append_column(
            "is_external",
            pc.or_(
                pc.starts_with(b["subj"], "ext::"), pc.starts_with(b["obj"], "ext::")
            ),
        )

    tagged = raw.map_batches(split_external, batch_format="pyarrow", batch_size=None)
    internal = tagged.filter(expr="is_external == False").drop_columns(["is_external"])
    external = tagged.filter(expr="is_external == True").drop_columns(["is_external"])

    if dedup_scope == "provenance-local":
        # The edge identity includes provenance_url, and one page's mentions
        # are contiguous within a single linker-output block (one page is
        # processed wholly inside one batch; checkpoint files are written
        # one-per-block and read whole). Duplicates of (s,p,o,url) can
        # therefore only co-occur inside one block → block-local dedup
        # (batch_size=None = whole block) is EXACT with NO shuffle. This is
        # the provenance-scoped analog of cgr's per-pattern buffer dedup
        # (graph_service.py:126-128); measured: removes the single largest
        # fixed cost from the pipeline (a ~12s groupby at bench scale).
        from code_graph_rag_ray.stages.materialize import dedup_batch_local

        keys = ["subj", "pred", "obj", "provenance_url"]
        edges = internal.map_batches(
            lambda b: dedup_batch_local(b, keys),
            batch_format="pyarrow",
            batch_size=None,
        )
    else:  # "global": MERGE-equivalent shuffle dedup for arbitrary inputs
        edges = exact_dedup(
            internal,
            keys=["subj", "pred", "obj", "provenance_url"],
            sort_cols=["subj", "pred", "obj", "provenance_url", "pos"],
            columns=["subj", "pred", "obj", "provenance_url", "pos"],
        )
    # The nodes branch runs the name-family CC loop, which executes eagerly
    # (bounded iteration with convergence checks) — skip it entirely for
    # edges-only consumers (build_nodes=False) instead of paying it as a
    # fixed cost on every build.
    nodes = (
        canonicalize_entities(mentions, alias_tbl)
        if build_nodes
        else None
    )
    return {
        "mentions": mentions,
        "edges": edges,
        "external_edges": external,
        "nodes": nodes,
    }


def incremental_update(
    changed_pages: Dataset,
    alias_tbl: pa.Table,
    *,
    prev_mentions: Dataset,
    relations: dict[str, str] | None = None,
    registry: dict | None = None,
    dedup_scope: str = "global",
    build_nodes: bool = True,
) -> dict:
    """Watch-mode analog (``realtime_updater.py``): re-derive the graph
    after a set of pages changed, WITHOUT reprocessing unchanged pages.

    Semantics = cgr's delete-subtree → re-ingest → re-resolve
    (``graph_updater.py:1227-1351``): the changed pages' old mentions are
    dropped (anti-join on url against the broadcast changed-url set), the
    changed pages are re-extracted and re-linked, and the union feeds the
    SAME derivation as a clean build — so incremental == clean by
    construction (the invariant cgr needed issue #532 to win back). A page
    deleted from the corpus is expressed as a changed page with empty html.

    ``dedup_scope`` defaults to "global" here: ``prev_mentions`` usually
    comes from a parquet checkpoint whose block boundaries don't respect
    page boundaries, so block-local dedup would not be exact.
    """
    import os

    import ray

    import pyarrow.compute as pc2

    alias_ref = ray.put(alias_tbl)

    # changed-url set: small for a watch-mode batch, but MEASURED, not
    # assumed — past the broadcast budget (a full-recrawl change set) the
    # drop degrades to a bucketed ANTI semi-join, the same adaptivity
    # contract every other broadcast in the engine has (relational.py
    # adaptive_join).
    from code_graph_rag_ray.stages.relational import (
        BROADCAST_BUDGET_BYTES,
        bucketed_join,
    )

    url_ds = changed_pages.select_columns(["url"]).materialize()
    budget = int(os.environ.get("GRAFT_BROADCAST_BUDGET",
                                BROADCAST_BUDGET_BYTES))
    if (url_ds.size_bytes() or 0) <= budget:
        changed_urls = set(url_ds.to_pandas()["url"])
        url_arr_ref = ray.put(pa.array(sorted(changed_urls), pa.string()))

        from code_graph_rag_ray.functions.broadcast import get_broadcast

        def drop_changed(b: pa.Table) -> pa.Table:
            return b.filter(
                pc2.invert(pc2.is_in(b["url"],
                                     value_set=get_broadcast(url_arr_ref)))
            )

        surviving = prev_mentions.map_batches(drop_changed,
                                              batch_format="pyarrow")
    else:
        # only the url key column crosses the anti shuffle
        surviving = bucketed_join(
            prev_mentions, url_ds, on="url", how="anti",
            right_schema=pa.schema([("url", pa.string())]),
        )

    text = changed_pages.map_batches(extract_text_batch, batch_format="pyarrow")
    fresh = link_mentions(text, alias_ref, relations=relations, registry=registry)
    mentions = surviving.union(fresh).materialize()

    return derive_graph_outputs(
        mentions, alias_tbl,
        dedup_scope=dedup_scope, build_nodes=build_nodes,
    )


def filter_capture(edges: Dataset, enabled_predicates: set[str]) -> Dataset:
    """Capture-group analog (cgr ``capture.py:88-115`` + FilteringIngestor,
    ``services/filtering.py:9-53``): one choke point that drops relation
    families the user disabled — a vectorized predicate filter on ``pred``."""
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast

    ref = ray.put(pa.array(sorted(enabled_predicates), pa.string()))

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["pred"], value_set=get_broadcast(ref)))

    return edges.map_batches(keep, batch_format="pyarrow")


def export_graph_json(kg: dict, out_dir: str) -> None:
    """JSON graph export (cgr S6, ``graph_service.py:660-679``): nodes and
    edges as JSON-lines directories."""
    import os

    kg["edges"].write_json(os.path.join(out_dir, "edges"))
    if kg.get("nodes") is not None:
        kg["nodes"].write_json(os.path.join(out_dir, "nodes"))


def materialize_kg(kg: dict, out_dir: str, *, num_partitions: int = 16) -> dict:
    """Write edges + nodes hash-partitioned and sorted; return manifests."""
    import os

    edges_dir = os.path.join(out_dir, "edges")
    nodes_dir = os.path.join(out_dir, "nodes")
    materialize_graph(
        kg["edges"], edges_dir, key="subj",
        sort_by=["subj", "pred", "obj", "provenance_url"],
        num_partitions=num_partitions,
    )
    materialize_graph(
        kg["nodes"], nodes_dir, key="entity_id", sort_by=["entity_id"],
        num_partitions=num_partitions,
    )
    # both writes succeeded, so zero-row partitions are complete too: the
    # manifests list all ``num_partitions``, which ``query_edges`` checks
    return {
        "edges": partition_manifest(edges_dir, expected=num_partitions),
        "nodes": partition_manifest(nodes_dir, expected=num_partitions),
    }
