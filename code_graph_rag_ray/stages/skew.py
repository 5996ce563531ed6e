"""Skew-aware salted aggregation for non-algebraic per-key work.

Algebraic aggregates (sum/count/min) are already skew-proof here via
batch-local partials (``relational.partial_groupby_sum``). This module
covers the remaining case the north star names — a head key (the
wikipedia.org entity) whose GROUP processing itself is heavy: salt the hot
key into ``salt_factor`` sub-groups, run the per-group function on each
sub-group in parallel, then merge the sub-results per key. Requires the
per-key computation to be decomposable (partial + merge) — the classic
two-phase contract.

Concrete operator: :func:`salted_topk_per_key` (top-N provenance urls per
entity by mention count) — top-k is mergeable, so the salted two-phase is
exact.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from code_graph_rag_ray.functions.hashing import crc32_array


def global_topk(
    ds: Dataset,
    *,
    item: str,
    n_col: str = "n",
    k: int = 20,
) -> Dataset:
    """(item, n, rank): global top-k rows by ``n_col`` (heavy hitters).

    Local top-k per block (each block can only contribute k survivors)
    → coalesce the ≤ blocks×k partials to one block → final exact top-k
    with rank. Ties break by ``item`` ascending (content-determined).
    Exact when each item's total count lives on one row (i.e. ``ds`` is
    already an aggregated (item, n) table, e.g. from
    ``partial_groupby_sum``) — the single merged block holds O(blocks·k)
    rows, never the vocabulary.
    """

    def local_topk(b: pa.Table) -> pa.Table:
        idx = pa.compute.sort_indices(
            b, sort_keys=[(n_col, "descending"), (item, "ascending")]
        )
        return b.take(idx[:k])

    def final_topk(b: pa.Table) -> pa.Table:
        t = local_topk(b)
        return t.append_column("rank", pa.array(range(1, t.num_rows + 1), pa.int64()))

    return (
        ds.map_batches(local_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", batch_size=None)
    )


def salted_topk_per_key(
    ds: Dataset,
    *,
    key: str,
    item: str,
    k: int = 10,
    salt_factor: int = 16,
) -> Dataset:
    """(key, item, n, rank): top-k items per key by occurrence count.

    Phase 1 groups by ``(key, salt)`` where ``salt = crc32(item) % F`` —
    a head key's rows spread over F parallel sub-groups (salting on the
    ITEM hash keeps equal items in one sub-group, so sub-counts are exact).
    Phase 2 merges the F sub-top-k lists per key (top-k of exact counts is
    mergeable when each item's full count lives in exactly one sub-group).
    """

    def add_salt(b: pa.Table) -> pa.Table:
        return b.append_column(
            "salt", pa.array(crc32_array(b[item]) % salt_factor, pa.int32())
        )

    salted = ds.map_batches(add_salt, batch_format="pyarrow")

    def sub_topk(g: pd.DataFrame) -> pd.DataFrame:
        counts = (
            g.groupby(item).size().reset_index(name="n")
            .sort_values(["n", item], ascending=[False, True], kind="mergesort")
            .head(k)
        )
        counts.insert(0, key, g[key].iloc[0])
        return counts

    partial = salted.groupby([key, "salt"]).map_groups(sub_topk, batch_format="pandas")

    def merge_topk(g: pd.DataFrame) -> pd.DataFrame:
        top = (
            g.sort_values(["n", item], ascending=[False, True], kind="mergesort")
            .head(k)
            .reset_index(drop=True)
        )
        top["rank"] = range(1, len(top) + 1)
        return top[[key, item, "n", "rank"]]

    return partial.groupby(key).map_groups(merge_topk, batch_format="pandas")


def salted_join(
    left: Dataset,
    right: Dataset,
    *,
    on: str,
    right_on: str | None = None,
    hot_keys: list,
    salt_factor: int = 16,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> Dataset:
    """Inner equi-join with whale-key salting — the skew escape hatch for
    ``bucketed_join`` (whose hash buckets put ALL rows of one key in one
    cogroup task: a wikipedia.org-scale key makes that task the straggler
    or OOMs it).

    Rows of the ``hot_keys`` on the probe (left) side are salted into
    ``salt_factor`` sub-keys (round-robin — the join result is
    salt-agnostic, every sub-key still meets the full right match set);
    the matching build (right) rows are REPLICATED once per salt. Cold
    keys pay nothing. Replication cost = |right hot rows| × salt_factor —
    the standard trade: use it when the hot keys' LEFT volume dwarfs their
    right match count (fact×dimension joins), with ``hot_keys`` found by a
    cheap count sample or a prior heavy-hitter pass (stages/skew.global_topk).

    Inner joins only: an unmatched salted left row would otherwise emit
    ``salt_factor`` copies of its null-padded row under left/outer
    semantics.
    """
    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.relational import bucketed_join

    rkey = right_on or on
    hot = {str(k) for k in hot_keys}
    sep = "\x1e"  # record separator: cannot appear in crc/int keys

    hot_arr = pa.array(sorted(hot), pa.string())

    def salt_left(b: pa.Table) -> pa.Table:
        import numpy as np

        key = pc.cast(b[on], pa.string())
        is_hot = pc.is_in(key, value_set=hot_arr)
        salts = (np.arange(b.num_rows) % salt_factor).astype("U")
        salted = pc.binary_join_element_wise(key, pa.array(salts, pa.string()), sep)
        out = pc.if_else(is_hot, salted, key)
        return b.append_column("__sk", out)

    def salt_right(b: pa.Table) -> pa.Table:
        key = pc.cast(b[rkey], pa.string())
        is_hot = pc.is_in(key, value_set=hot_arr)
        cold_mask = pc.invert(is_hot)
        cold = b.filter(cold_mask).append_column("__sk", key.filter(cold_mask))
        hot_tbl = b.filter(is_hot)
        reps = [cold]
        hk = pc.cast(hot_tbl[rkey], pa.string())
        for s in range(salt_factor):
            reps.append(
                hot_tbl.append_column(
                    "__sk",
                    pc.binary_join_element_wise(
                        hk, pa.array([str(s)] * hot_tbl.num_rows, pa.string()), sep
                    ),
                )
            )
        return pa.concat_tables(reps)

    ls = rs = None
    if left_schema is not None:
        ls = pa.schema(list(zip(left_schema.names, left_schema.types))
                       + [("__sk", pa.string())])
    if right_schema is not None:
        rs = pa.schema(list(zip(right_schema.names, right_schema.types))
                       + [("__sk", pa.string())])
    joined = bucketed_join(
        left.map_batches(salt_left, batch_format="pyarrow"),
        right.map_batches(salt_right, batch_format="pyarrow"),
        on="__sk", how="inner",
        left_schema=ls, right_schema=rs,
    )
    drop = ["__sk"] + ([rkey + "_r"] if rkey == on else [rkey])
    return joined.map_batches(
        lambda b: b.drop_columns([c for c in drop if c in b.column_names]),
        batch_format="pyarrow",
    )
