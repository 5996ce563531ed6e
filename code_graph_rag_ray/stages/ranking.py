"""Global ranking (distributed row_number) — order the whole corpus by a
key without ever holding it in one place.

Curriculum ordering, "keep the best N per corpus", and stable exports all
need a total order ``ORDER BY key [DESC] NULLS LAST, tiebreak`` with a
1-based global rank. The classic way is a full sort plus a driver-side
index — neither survives 100 TB. :func:`global_rank` and
``packing.pack_sequences`` share one global exclusive prefix sum over that
order, :func:`_ordered_prefix`, built on range buckets:

1. **Sample** keys with a bounded per-block quantile sketch (each block
   emits ≤ ``_RANGE_BUCKETS`` + 1 evenly-spaced local keys, so the driver
   merges O(blocks × ``_RANGE_BUCKETS``) rows — never a rate-sample of all
   keys) and cut the range boundaries.
2. **Range bucket** every row by ``searchsorted(boundaries, key)``,
   numbered in the output order: flipped under DESC, NaN in its own
   bucket at the top of the float order (DuckDB's rule) and nulls in their
   own last bucket. Equal keys always share a range bucket.
3. **Total** each range bucket's weight (row count or a weight column)
   with one per-block map; the driver sums the O(blocks)
   count vectors and prefix-sums them into range-bucket offsets.
4. **Finish** in one ``relational.bucketed_groups`` keyed on the range
   bucket: sort by (range bucket, key, tiebreak) and add each range
   bucket's offset to the in-bucket running sum. A hash bucket may hold
   several range buckets.

Boundaries set only balance: the results are a pure function of the data,
so ANY boundary choice (and any ``_RANGE_BUCKETS``) yields identical
output. The input pipeline executes three times (sample, totals, finish) —
like any distributed sort, cheaper than materializing; feed it a
checkpointed / parquet-backed dataset for expensive upstreams. A whale key
co-locates its rows in one range bucket, as total-order semantics demand
(same as SQL row_number).

Reference parity: the reference ranks retrieval candidates wholesale in
one process (``evals/retrieval.py`` score sort); this is the corpus-scale
equivalent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import (
    _runs,
    bucketed_groups,
    grouped_top_k,
    partial_groupby_sum,
    run_starts,
)

#: range buckets cut from the key sample of :func:`_ordered_prefix`. They
#: set only the balance of the finish, never a result.
_RANGE_BUCKETS = 64


def _sortable(col, key_type: pa.DataType) -> pa.Array:
    """``col`` without nulls and (for floats) NaN — the keys a boundary
    sample and ``searchsorted`` may compare."""
    col = pc.drop_null(col)
    if pa.types.is_floating(key_type):
        col = col.filter(pc.invert(pc.is_nan(col)))
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _block_key_sample(ds: Dataset, by: str, cap: int) -> Dataset:
    """Per-block bounded key sample: each input block contributes at most
    ``cap`` evenly-spaced keys from its own sorted key column. Driver-side
    sample size is O(blocks × cap) — independent of row count, unlike a
    hash-rate sample (which ships ~n/mod of ALL keys and OOMs the driver
    at corpus scale)."""

    def pick(b: pa.Table) -> pa.Table:
        key_type = b.schema.field(by).type
        col = _sortable(b[by], key_type)
        n = len(col)
        if n == 0:
            return pa.table({by: pa.array([], type=key_type)})
        srt = col.take(pc.sort_indices(col))
        idx = np.unique(np.linspace(0, n - 1, min(cap, n)).astype(np.int64))
        return pa.table({by: srt.take(idx)})

    return ds.map_batches(pick, batch_format="pyarrow")


def _sample_boundaries(ds: Dataset, by: str, num_buckets: int) -> list:
    """Bounded two-phase key sample → ≤ num_buckets-1 sorted cut points.

    Phase 1 (distributed): each block emits ≤ num_buckets+1 evenly-spaced
    local keys (per-block quantile sketch). Phase 2 (driver): merge the
    O(blocks × num_buckets) sampled keys and cut evenly-spaced boundaries.
    Boundary choice affects only bucket balance — ranks/offsets downstream
    are a pure function of the data, so any sample yields identical
    output."""
    sample = _block_key_sample(ds, by, num_buckets + 1).take_all()
    keys = sorted(r[by] for r in sample)
    if not keys:
        return []
    idx = np.linspace(0, len(keys) - 1, num_buckets + 1).astype(int)[1:-1]
    return sorted(set(keys[i] for i in idx))


def _ordered_prefix(
    ds: Dataset,
    by: str,
    fn,
    *,
    tiebreak: str | None = None,
    descending: bool = False,
    weight: str | None = None,
) -> Dataset:
    """Global exclusive prefix sum over ``ORDER BY by [DESC] NULLS LAST,
    tiebreak``: calls ``fn(t, before)`` once per hash bucket, with ``t``
    that bucket's rows in the global order and ``before[i]`` the total
    ``weight`` (the row count when None) of every row ahead of row ``i``
    corpus-wide. Float NaN keys sort above every number, as in DuckDB.
    The steps are in the module docstring; only O(blocks) count vectors
    reach the driver, and the finish is the one exchange."""
    bounds = _sample_boundaries(ds, by, _RANGE_BUCKETS)
    n_b = len(bounds)
    nan_id = 0 if descending else n_b + 1
    n_ids = n_b + 3  # non-null ranges, NaN, null

    def range_ids(b: pa.Table) -> np.ndarray:
        col = b[by]
        key_type = b.schema.field(by).type
        ids = np.full(b.num_rows, n_b + 2, np.int64)  # nulls: last bucket
        ok = pc.is_valid(col)
        if pa.types.is_floating(key_type):
            nan = pc.and_kleene(ok, pc.is_nan(col))
            ids[nan.to_numpy(zero_copy_only=False)] = nan_id
            ok = pc.and_kleene(ok, pc.invert(nan))
        ok = ok.to_numpy(zero_copy_only=False)
        keys = _sortable(col, key_type).to_numpy(zero_copy_only=False)
        cuts = pa.array(bounds, key_type).to_numpy(zero_copy_only=False)
        r = np.searchsorted(cuts, keys, side="right")
        ids[ok] = n_b + 1 - r if descending else r
        return ids

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("__rb", pa.array(range_ids(b), pa.int64()))

    def weights(b: pa.Table) -> np.ndarray:
        if weight is None:
            return np.ones(b.num_rows, np.int64)
        return np.asarray(b[weight].to_numpy(zero_copy_only=False), np.int64)

    def totals(b: pa.Table) -> pa.Table:
        tot = np.zeros(n_ids, np.int64)
        np.add.at(tot, b["__rb"].to_numpy(), weights(b))
        return pa.table({"n": pa.array([tot], pa.list_(pa.int64()))})

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    per_block = tagged.map_batches(totals, batch_format="pyarrow",
                                   batch_size=None).take_all()
    tot = np.zeros(n_ids, np.int64)
    for r in per_block:
        tot += np.asarray(r["n"], np.int64)
    offsets = np.cumsum(tot) - tot

    order = "descending" if descending else "ascending"
    sort_keys = [("__rb", "ascending"), (by, order)]
    if tiebreak:
        sort_keys.append((tiebreak, "ascending"))

    def finish(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        rb = t["__rb"].to_numpy()
        w = weights(t)
        starts, lens, _ = _runs(run_starts(t, ["__rb"]))
        run_sum = np.cumsum(w) - w  # exclusive, over the whole bucket
        before = offsets[rb] + run_sum - np.repeat(run_sum[starts], lens)
        return fn(t.drop_columns(["__rb"]), before)

    return bucketed_groups(tagged, "__rb", finish)


def global_rank(
    ds: Dataset,
    by: str,
    *,
    tiebreak: str,
    descending: bool = False,
    out_col: str = "rank",
) -> Dataset:
    """Add ``out_col`` = 1-based global row_number over
    ``ORDER BY by [DESC] NULLS LAST, tiebreak ASC``. ``tiebreak`` must be
    unique for a deterministic total order (SQL row_number's requirement
    too)."""

    def rank(t: pa.Table, before: np.ndarray) -> pa.Table:
        return t.append_column(out_col, pa.array(before + 1, pa.int64()))

    return _ordered_prefix(ds, by, rank, tiebreak=tiebreak,
                           descending=descending)


def shuffle_rank(
    ds: Dataset,
    *,
    id_col: str,
    shard_size: int,
) -> Dataset:
    """Deterministic global pseudorandom shuffle order + shard assignment —
    the "shuffle the corpus before writing train shards" step, without a
    ``random_shuffle`` (whose output depends on block layout and seed
    plumbing). The order key is the md5-low32 policy hash of the id, so
    the permutation is a pure function of the data: resumable, identical
    at any parallelism, and replayable by ``row_number() OVER (ORDER BY
    md5key, id)`` in SQL.

    Output: input columns + ``shuffle_rank`` (1-based) + ``shard``
    (0-based, ``(rank-1) // shard_size``) — ready to feed a partitioned
    writer one shard directory per shard id.

    Scale shape: the :func:`global_rank` prefix sum (:func:`_ordered_prefix`)
    over the hash key; md5 keys are uniform so the range buckets are
    balanced by construction.
    """
    from code_graph_rag_ray.functions.hashing import md5_low32_array

    def key(b: pa.Table) -> pa.Table:
        u = md5_low32_array(b[id_col]).astype(np.int64)
        return b.append_column("__sk", pa.array(u))

    def rank(t: pa.Table, before: np.ndarray) -> pa.Table:
        r = before + 1
        return (t.drop_columns(["__sk"])
                .append_column("shuffle_rank", pa.array(r, pa.int64()))
                .append_column("shard", pa.array((r - 1) // shard_size,
                                                 pa.int64())))

    return _ordered_prefix(ds.map_batches(key, batch_format="pyarrow"),
                           "__sk", rank, tiebreak=id_col)


def group_rank(
    ds: Dataset,
    group: str,
    by: str,
    *,
    tiebreak: str,
    descending: bool = True,
    out_col: str = "rank",
) -> Dataset:
    """Per-group 1-based dense row_number (``row_number() OVER (PARTITION
    BY group ORDER BY by [DESC] NULLS LAST, tiebreak)``), finished one
    hash bucket of groups at a time (:func:`bucketed_groups`).

    Meant for SMALL groups (top-k lists, per-query candidates): a group
    transits one task whole. For corpus-scale groups use
    :func:`global_rank` per partition or `grouped_top_k` first.
    """
    sort_keys = [(group, "ascending"),
                 (by, "descending" if descending else "ascending"),
                 (tiebreak, "ascending")]

    def rank(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        _, _, pos = _runs(run_starts(t, [group]))
        return t.append_column(out_col, pa.array(pos + 1, pa.int64()))

    return bucketed_groups(ds, group, rank)


def rrf_fuse(
    ranked_lists: list[Dataset],
    *,
    query_col: str = "query_id",
    id_col: str = "doc_id",
    rank_col: str = "rank",
    k: int = 10,
    kappa: int = 60,
    scale: int = 10**6,
) -> Dataset:
    """Reciprocal-rank fusion (Cormack, Clarke & Buettcher 2009, public):
    fuse N per-query rankings into one, score(q, d) = Σ over lists
    containing d of ``scale // (kappa + rank)`` — the fixed-point integer
    variant of Σ 1/(κ+r), so the fused ranking is bit-exact replayable in
    BIGINT SQL. Returns (query_col, id_col, rrf_micro, n_systems) rows —
    the per-query top-``k`` by (rrf_micro DESC, id ASC).

    Scale shape: each input list is already top-k-per-query (tiny rows per
    query); contributions union and fold through ONE two-phase grouped
    sum; grouped_top_k caps the fused output. No broadcast, no driver
    materialization — fusing 10^9 queries streams.

    cgr analog: the reference's retrieval layer merges graph-lookup
    candidates with vector-search candidates before prompting
    (codebase_rag/services/llm.py); RRF is the standard public fusion.
    """
    def contrib(b: pa.Table) -> pa.Table:
        r = b[rank_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {query_col: b[query_col], id_col: b[id_col],
             "c": pa.array(scale // (kappa + r)),
             "one": pa.array(np.ones(len(r), np.int64))}
        )

    parts = [d.map_batches(contrib, batch_format="pyarrow")
             for d in ranked_lists]
    u = parts[0]
    for p in parts[1:]:
        u = u.union(p)
    s = partial_groupby_sum(
        u, [query_col, id_col], {"c": "rrf_micro", "one": "n_systems"})
    return grouped_top_k(s, query_col, "rrf_micro", k,
                         descending=True, tiebreak=id_col)
