"""Entity co-occurrence graph with fixed-point association lift.

The KG-construction step after mention extraction: which entities appear in
the same documents, and how much more often than chance? Edges weighted by
**lift** = P(a,b) / (P(a)·P(b)) = c_ab·N / (c_a·c_b) — the exp-scale of PMI
— emitted as a floor fixed-point integer (``lift_fp`` = lift × 10^6) so the
result is bit-exact at any parallelism and replayable in SQL with pure
integer arithmetic (log-based PMI would hinge on libm ulp agreement).

Reference parity: the reference materializes CALLS edges between co-located
code entities (``graph_updater.py`` relationship pass); co-occurrence is
the statistical web-text analog (SURVEY.md §2.5 A2 pattern grouping).

Scale shape:
- pair expansion: ``relational._group_pairs``, one ``bucketed_groups``
  pass whose Arrow finish expands all of a bucket's docs at once — fan-out
  is C(k,2) on the per-doc DISTINCT entity count k (vocabulary-bounded),
  never corpus-sized;
- pair counts and entity marginals: two-phase grouped sums;
- marginals reach the pair table ADAPTIVELY: broadcast (``ray.put`` once,
  read per actor) while the measured marginal table fits the
  ``GRAFT_BROADCAST_BUDGET``; past the budget the plan degrades to two
  distributed bucketed joins (the ``item_cocitation`` shape) — both
  physical plans are bit-exact identical, so an open 100 TB entity
  vocabulary never lands on the driver.

Overflow: lift_fp fits int64 while c_ab·N·scale < 2^63 — N ≤ ~3M docs at
scale=10^6. Larger corpora: lower ``scale`` or compute per-shard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import partial_groupby_sum


def entity_cooccurrence(
    mentions: Dataset,
    *,
    doc_col: str = "doc_id",
    ent_col: str = "surface",
    scale: int = 10**6,
    broadcast_budget_bytes: int | None = None,
) -> Dataset:
    """mentions(doc, entity) → (a, b, c_ab, lift_fp) for a < b.

    Input rows need not be distinct per (doc, entity) — duplicates are
    collapsed inside the per-doc group before pair expansion. The marginal
    table's physical plan (driver broadcast vs two bucketed joins) is
    picked from its measured size against ``broadcast_budget_bytes``
    (default: env ``GRAFT_BROADCAST_BUDGET``, else 256 MB); both plans
    produce identical rows."""
    import os

    import ray

    from code_graph_rag_ray.stages.relational import (
        BROADCAST_BUDGET_BYTES,
        _group_pairs,
        bucketed_join,
    )

    pair_counts = partial_groupby_sum(_group_pairs(mentions, doc_col, ent_col),
                                      ["a", "b"], {}, count_alias="c_ab")

    # entity marginals (distinct docs per entity) + corpus size N: the
    # distinct-collapse and counts are two-phase; only vocabulary-sized
    # results reach the driver
    def distinct_de(b: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(
            b.select([doc_col, ent_col]), [doc_col, ent_col],
            use_threads=False,
        ).aggregate([])
        return t.rename_columns([doc_col, ent_col])

    de = mentions.map_batches(distinct_de, batch_format="pyarrow")
    de = de.groupby([doc_col, ent_col]).count().drop_columns(["count()"])
    # marginal table stays a Dataset; materialize once to MEASURE it (the
    # adaptive_join probe pattern) — both plans reuse the pinned blocks
    marg_ds = partial_groupby_sum(de, [ent_col], {}, count_alias="c").materialize()
    # N = distinct docs: two-phase collapse, then a scalar count — no
    # corpus-sized rows ever reach the driver
    n_docs = (
        partial_groupby_sum(de, [doc_col], {}, count_alias="x")
        .select_columns([doc_col])
        .count()
    )
    if broadcast_budget_bytes is None:
        broadcast_budget_bytes = int(
            os.environ.get("GRAFT_BROADCAST_BUDGET", BROADCAST_BUDGET_BYTES)
        )

    if (marg_ds.size_bytes() or 0) <= broadcast_budget_bytes:
        # closed-vocabulary fast path: dict fits a worker heap → ship once
        marg = {r[ent_col]: r["c"] for r in marg_ds.take_all()}
        marg_ref = ray.put(marg)

        def score(b: pa.Table) -> pa.Table:
            from code_graph_rag_ray.functions.broadcast import get_broadcast

            m = get_broadcast(marg_ref)
            ca = np.array([m[x] for x in b["a"].to_pylist()], np.int64)
            cb = np.array([m[x] for x in b["b"].to_pylist()], np.int64)
            c_ab = b["c_ab"].to_numpy(zero_copy_only=False).astype(np.int64)
            lift = (c_ab * np.int64(n_docs) * np.int64(scale)) // (ca * cb)
            return b.append_column("lift_fp", pa.array(lift))

        return pair_counts.map_batches(score, batch_format="pyarrow")

    # open-vocabulary path: marginals reach the pair table via two
    # distributed bucketed joins (the item_cocitation / minhash-verify
    # shape) — zero driver state beyond the scalar n_docs
    pc_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                           ("c_ab", pa.int64())])
    marg_schema = pa.schema([(ent_col, pa.string()), ("c", pa.int64())])
    j1 = bucketed_join(pair_counts, marg_ds, on="a", right_on=ent_col,
                       left_schema=pc_schema, right_schema=marg_schema)
    j1 = j1.map_batches(
        lambda b: pa.table({"a": b["a"], "b": b["b"], "c_ab": b["c_ab"],
                            "c_a": b["c"]}),
        batch_format="pyarrow",
    )
    j2 = bucketed_join(
        j1, marg_ds, on="b", right_on=ent_col,
        left_schema=pa.schema([("a", pa.string()), ("b", pa.string()),
                               ("c_ab", pa.int64()), ("c_a", pa.int64())]),
        right_schema=marg_schema,
    )

    def score_joined(b: pa.Table, n=n_docs) -> pa.Table:
        c_ab = b["c_ab"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = b["c_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = b["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        lift = (c_ab * np.int64(n) * np.int64(scale)) // (ca * cb)
        return pa.table({"a": b["a"], "b": b["b"], "c_ab": pa.array(c_ab),
                         "lift_fp": pa.array(lift)})

    return j2.map_batches(score_joined, batch_format="pyarrow")


def item_cocitation(
    edges: Dataset,
    *,
    group_col: str,
    item_col: str,
    scale: int = 10**6,
    max_items: int = 1000,
) -> Dataset:
    """(group, item) rows → (a, b, c_ab, lift_fp), a < b: pairs of items
    sharing a group, with the same fixed-point lift as
    :func:`entity_cooccurrence`.

    The web-graph instantiation is co-citation: group = link target,
    item = citing page → pairs of pages citing the same page. The
    difference from ``entity_cooccurrence`` is the ITEM UNIVERSE: entities
    are dictionary-bounded (marginals broadcast as a dict), but items here
    are urls — corpus-sized — so the marginal counts stay a Dataset and
    reach the pair table through two DISTRIBUTED bucketed joins; only the
    scalar group count touches the driver. Per-group pair expansion is
    capped at ``max_items`` (sorted-first, deterministic) — the quadratic
    guard for hub groups; truncation is the documented skew trade at scale.
    """
    from code_graph_rag_ray.stages.relational import _group_pairs, bucketed_join

    ge = edges.select_columns([group_col, item_col])
    pair_counts = partial_groupby_sum(
        _group_pairs(ge, group_col, item_col, max_items=max_items),
        ["a", "b"], {}, count_alias="c_ab",
    )

    def distinct_gi(b: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(b, [group_col, item_col], use_threads=False).aggregate([])
        return t.rename_columns([group_col, item_col])

    gi = ge.map_batches(distinct_gi, batch_format="pyarrow")
    gi = gi.groupby([group_col, item_col]).count().drop_columns(["count()"])
    marg = partial_groupby_sum(gi, [item_col], {}, count_alias="c").materialize()
    n_groups = (
        partial_groupby_sum(gi, [group_col], {}, count_alias="x")
        .select_columns([group_col])
        .count()
    )

    pc_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                           ("c_ab", pa.int64())])
    marg_schema = pa.schema([(item_col, pa.string()), ("c", pa.int64())])

    j1 = bucketed_join(pair_counts, marg, on="a", right_on=item_col,
                       left_schema=pc_schema, right_schema=marg_schema)
    j1 = j1.map_batches(
        lambda b: pa.table({"a": b["a"], "b": b["b"], "c_ab": b["c_ab"],
                            "c_a": b["c"]}),
        batch_format="pyarrow",
    )
    j2 = bucketed_join(
        j1, marg, on="b", right_on=item_col,
        left_schema=pa.schema([("a", pa.string()), ("b", pa.string()),
                               ("c_ab", pa.int64()), ("c_a", pa.int64())]),
        right_schema=marg_schema,
    )

    def score(b: pa.Table, n=n_groups) -> pa.Table:
        c_ab = b["c_ab"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = b["c_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = b["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        lift = (c_ab * np.int64(n) * np.int64(scale)) // (ca * cb)
        return pa.table({"a": b["a"], "b": b["b"],
                         "c_ab": pa.array(c_ab),
                         "lift_fp": pa.array(lift)})

    return j2.map_batches(score, batch_format="pyarrow")
