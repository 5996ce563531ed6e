"""Skew-safe per-key work beyond algebraic aggregates.

Algebraic aggregates (sum/count/min) are already skew-proof here via
batch-local partials (``relational.partial_groupby_sum``). The remaining
cases are a head key (the wikipedia.org entity) whose GROUP processing
itself is heavy:

- :func:`salted_topk_per_key` (top-N provenance urls per entity by
  mention count): every block pre-counts its (key, item) pairs, and one
  bucketed pass keyed on the key completes the counts and picks the top
  k (``relational._counted_groups``) — a head key exchanges O(blocks ×
  its distinct items), never its row count.
- :func:`salted_join`: salt a known whale key on the probe side and
  replicate its build rows, so no single join bucket holds the whale.
"""

from __future__ import annotations

import pyarrow as pa
from ray.data import Dataset


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
) -> Dataset:
    """(key, item, n, rank): top-k items per key by occurrence count, ties
    broken by item ascending, rank 1-based. A null item counts as an item
    of its own (SQL ``GROUP BY``) and sorts after every other item on a
    tie.

    Blocks pre-count their (key, item) pairs; one ``bucketed_groups``
    pass keyed on ``key`` completes each item's count and keeps the top k
    of every key in one Arrow pass (``relational._counted_groups``)."""
    from code_graph_rag_ray.stages.relational import (
        _counted_groups,
        _head_k,
        _runs,
        run_starts,
    )

    def top(t: pa.Table) -> pa.Table:
        t = _head_k(t, [(key, "ascending"), ("n", "descending"),
                        (item, "ascending")], k)
        _, _, pos = _runs(run_starts(t, [key]))
        return t.append_column("rank", pa.array(pos + 1, pa.int64()))

    return _counted_groups(ds, key, item, top)


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
