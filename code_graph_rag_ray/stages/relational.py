"""Reusable relational operators: broadcast joins, the bucketed join
family, two-phase aggregates, bucketed groups, top-k — the generic engine
surface the DuckDB oracle exercises over the TPC-H-ish tables.

Design rules (SURVEY.md §4 + ray_guide):
- small side broadcast via ``ray.put`` + per-batch vectorized lookup
  (:func:`_join_pairs` + ``take``) — no shuffle,
- large-large joins are ONE family on :func:`bucketed_cogroup` (64 hash
  buckets, per-bucket Arrow-IPC blobs, one groupby(bucket)) with the
  :func:`_join_pairs` match-then-gather kernel: :func:`bucketed_join` here,
  the as-of and range joins in ``stages/asof.py`` / ``stages/rangejoin.py``.
  ``Dataset.join`` is not used (NOTES fact 1: schema-less empty hash
  partitions break it on sparse keys),
- per-key finishes run one hash bucket at a time (:func:`bucketed_groups`),
- aggregates pre-reduce inside ``map_batches`` (one partial row per key per
  batch) before the groupby, so hot keys exchange O(blocks) not O(rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset


#: driver-side cache of concat'd broadcast sides, keyed on block ref ids:
#: key -> (concat ObjectRef, estimated input bytes). Bounded by TOTAL
#: ESTIMATED BYTES (``GRAFT_BROADCAST_CACHE_BUDGET``, default 2 GiB) with
#: a 32-entry FIFO backstop for refs whose size the store can't report —
#: an entry-count bound alone lets 8 near-budget tables pin ~2 GiB even
#: after their joins finish. Entries pin their concat'd table in the
#: object store for the driver's lifetime, so long multi-query sessions
#: should still call :func:`clear_broadcast_cache` between queries —
#: bench.py and the catalog checker do.
_BROADCAST_CONCAT_CACHE: dict = {}
_BROADCAST_CACHE_MAX_ENTRIES = 32


def _broadcast_cache_budget() -> int:
    import os

    return int(os.environ.get("GRAFT_BROADCAST_CACHE_BUDGET",
                              2 * 1024 ** 3))


def clear_broadcast_cache() -> None:
    """Drop all cached broadcast-side concat refs, releasing their pinned
    object-store copies. Safe at any time: the next broadcast_join simply
    rebuilds its side. Call between queries in long-lived sessions."""
    _BROADCAST_CONCAT_CACHE.clear()


def _concat_body(*tables):
    # Ray 2.49's to_arrow_refs takes its zero-copy path whenever the
    # DATASET-level schema reports Arrow — but a mixed-block dataset
    # (pandas stage outputs ∪ Arrow blocks, or a map_groups' schema-less
    # pandas empties, NOTES facts 23/27) then leaks its PANDAS blocks
    # through unconverted, and WHICH block the schema probe lands on is
    # session/parallelism dependent. Normalize per block here.
    norm = []
    for t in tables:
        if t is None:
            continue
        if not isinstance(t, pa.Table):
            if len(getattr(t, "columns", ())) == 0:
                continue  # schema-less empty pandas sort partition
            t = pa.Table.from_pandas(t, preserve_index=False)
        norm.append(t)
    tbls = [t for t in norm if t.num_rows > 0]
    if not tbls:
        return norm[0] if norm else pa.table({})
    return pa.concat_tables(tbls, promote_options="default")


def _get_concat_task():
    """Lazily wrap the concat body as a Ray task (module import must not
    require an initialized Ray)."""
    global _concat_tables_task
    if _concat_tables_task is None:
        import ray

        _concat_tables_task = ray.remote(_concat_body)
    return _concat_tables_task


_concat_tables_task = None


def broadcast_join(
    ds: Dataset,
    small: pd.DataFrame | pa.Table | Dataset,
    *,
    on: str,
    how: str = "inner",
    right_on: str | None = None,
) -> Dataset:
    """Map-side hash join: the small side shipped once as one Arrow table,
    matched per batch with :func:`_join_pairs` and gathered with
    ``Table.take`` — every int64 value stays exact and unmatched rows get
    typed nulls.

    ``small`` may be a pandas frame or Arrow table (driver-resident
    dimension — converted to Arrow once and shipped via ``ray.put``) or a
    **Dataset** — e.g. the output of an upstream distributed join. The
    Dataset path never lands on the driver: its blocks stay in the object
    store (``to_arrow_refs``), a Ray task concats them into one shared
    object, and each worker fetches it once (worker-global cache). Use it
    when the small side fits a worker heap but must not transit the
    driver; beyond that, use :func:`bucketed_join`.

    Output: the batch's columns, then the small side's minus its key
    column (``how="semi"``/``"anti"``: the batch's columns only); right
    columns that clash with left names get an ``_r`` suffix (the
    :func:`bucketed_join` contract). A null key never matches (SQL), on
    either side.
    """
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast

    rkey = right_on or on

    if isinstance(small, Dataset):
        refs = small.to_arrow_refs()  # blocks stay in the object store
        # concat ONCE per distinct materialized block set: iterative
        # stages (pagerank rounds) re-broadcast the same static side every
        # call, which would rebuild and re-pin an identical full-table
        # object per iteration. Keyed on the block ref ids; bounded FIFO.
        key = tuple(r.hex() for r in refs)
        entry = _BROADCAST_CONCAT_CACHE.get(key)
        if entry is None:
            # bytes-aware eviction: estimate this side's size from the
            # store's block metadata (0 when unreported — the FIFO entry
            # backstop covers that case), then evict oldest-first until
            # the running total fits the budget
            try:
                locs = ray.experimental.get_object_locations(refs)
                est = sum(int((locs.get(r) or {}).get("object_size") or 0)
                          for r in refs)
            except Exception:  # pragma: no cover - location API unavailable
                est = 0
            budget = _broadcast_cache_budget()
            cache = _BROADCAST_CONCAT_CACHE
            while cache and (
                len(cache) >= _BROADCAST_CACHE_MAX_ENTRIES
                or sum(b for _, b in cache.values()) + est > budget
            ):
                cache.pop(next(iter(cache)))
            ref = _get_concat_task().remote(*refs)
            cache[key] = (ref, est)
        else:
            ref = entry[0]
    else:
        if not isinstance(small, pa.Table):
            small = pa.Table.from_pandas(small, preserve_index=False)
        ref = ray.put(small)

    def join(batch: pa.Table) -> pa.Table:
        right = get_broadcast(ref)
        rk = right[rkey]
        if rk.type != batch.schema.field(on).type:
            # Arrow's join wants equal key types; the bucketed plan matches
            # string key images, so int32 meets int64 there as well
            rk = pc.cast(rk, batch.schema.field(on).type)
        li, ri = _join_pairs(batch[on], rk, how)
        # the batch's row order, so float folds downstream keep their bits
        order = pa.array(np.argsort(li.to_numpy(), kind="stable"))
        out = batch.take(li.take(order))
        if ri is None:
            return out
        ri = ri.take(order)
        for name in right.column_names:
            if name == rkey:
                continue
            out = out.append_column(
                name + "_r" if name in batch.column_names else name,
                right[name].take(ri))
        return out

    # plain task fn + worker-global cache: no per-stage actor startup
    return ds.map_batches(join, batch_format="pyarrow")


def broadcast_semi_join(ds: Dataset, keys: set, *, on: str, anti: bool = False) -> Dataset:
    """Semi (or anti) join against a broadcast key set — filter, no shuffle."""
    import ray

    import pyarrow.compute as pc

    from code_graph_rag_ray.functions.broadcast import get_broadcast

    ref = ray.put(pa.array(sorted(keys)))

    def semi(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch[on], value_set=get_broadcast(ref))
        if anti:
            m = pc.invert(m)
        return batch.filter(m)

    return ds.map_batches(semi, batch_format="pyarrow")


#: hash buckets of every :func:`bucketed_groups` and
#: :func:`bucketed_cogroup` shuffle. Each group lands whole in one bucket,
#: so no result depends on this number.
_NUM_BUCKETS = 64
_BUCKET = "__bucket"


def _key_image(t: pa.Table, keys: list[str]):
    """The string a group key hashes by: a single string key column as
    is, else the ``\\x1f``-joined string casts of the key columns (null
    when any part is null)."""
    if len(keys) == 1 and pa.types.is_string(t.schema.field(keys[0]).type):
        return t[keys[0]]
    parts = [pc.cast(t[k], pa.string()) for k in keys]
    return parts[0] if len(parts) == 1 else pc.binary_join_element_wise(
        *parts, "\x1f")


def _pack_side(keys: list[str], cols: list[str], side: int,
               drop_null_keys: bool):
    """Batch fn: rows → one (bucket, side, ipc-blob) row per bucket present
    in the batch. The blob is the Arrow-IPC serialization of that bucket's
    sub-table (``__key`` + this side's payload columns only) — the shuffle
    ships exactly the real data, never a null-padded superset of all
    sides' schemas, and the exchanged ROW count is O(batches × buckets),
    not O(input rows)."""
    from code_graph_rag_ray.functions.hashing import partition_ids

    empty = pa.table({_BUCKET: pa.array([], pa.int32()),
                      "__side": pa.array([], pa.int8()),
                      "__blob": pa.array([], pa.binary())})

    def pack(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return empty
        missing = [c for c in (*keys, *cols) if c not in b.column_names]
        if missing:
            # almost always a stale schema PROBE on a filter/select plan
            # (NOTES fact 31) — tell the caller the deterministic fix
            raise KeyError(
                f"bucketed_cogroup pack: columns {missing} not in batch "
                f"schema {b.column_names}; the side's inferred schema is "
                "stale — pass left_schema/right_schema explicitly at the "
                "bucketed_join call site"
            )
        key = _key_image(b, keys)
        if drop_null_keys and key.null_count:
            valid = pc.is_valid(key)
            b, key = b.filter(valid), key.filter(valid)
            if b.num_rows == 0:
                return empty
        sub = pa.table({"__key": key, **{c: b[c] for c in cols}})
        buckets = partition_ids(key, _NUM_BUCKETS)
        order = np.argsort(buckets, kind="stable")
        sorted_tbl = sub.take(pa.array(order, pa.int64()))
        uniq, starts = np.unique(buckets[order], return_index=True)
        ends = np.append(starts[1:], len(order))
        blobs = []
        for s, e in zip(starts, ends):
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, sorted_tbl.schema) as w:
                w.write_table(sorted_tbl.slice(int(s), int(e - s)))
            blobs.append(sink.getvalue().to_pybytes())
        return pa.table({_BUCKET: pa.array(uniq.astype("int32")),
                         "__side": pa.array([side] * len(uniq), pa.int8()),
                         "__blob": pa.array(blobs, pa.binary())})

    return pack


def bucketed_cogroup(sides: list, fn) -> Dataset:
    """Cogroup several datasets by key, one hash BUCKET at a time — the
    shuffle under every join here (:func:`bucketed_join`, as-of and range
    joins).

    ``sides`` is a list of ``(ds, keys, cols, drop_null_keys)``: ``keys``
    lists the side's key columns, ``cols`` is a ``pa.Schema`` of the
    payload columns that cross the shuffle, and ``drop_null_keys`` drops
    rows whose key is null before they are packed (SQL: a null key never
    matches). Rows hash by their key image (the string cast of the key,
    ``\\x1f``-joined when composite, null if any part is null) into
    ``_NUM_BUCKETS`` buckets. Each side's batches are packed into one
    Arrow-IPC blob per bucket (NOTES fact 7), so each side ships only its
    own columns. The packed rows are coalesced to ``max(16, 2 × CPUs)``
    blocks first (the sort pays per input block, NOTES facts 6 and 29),
    then one ``groupby(bucket).map_groups`` calls ``fn(*tables)`` once per
    bucket. Table ``i`` holds side ``i``'s rows of that bucket — ``__key``
    (the key image) plus its ``cols`` — or the side's typed empty table
    when the bucket holds none of them. ``fn`` returns an Arrow table.

    Contract: ``map_groups`` hands each bucket's ``fn`` output downstream
    whole inside one block (several buckets may share a block; Ray slices
    only blocks past 1.5 × its target block size), so a
    ``map_batches(batch_size=None)`` over the output sees every key's rows
    together — ``canonicalize``, ``diff`` and ``graph_metrics`` rely on
    it.
    """
    import ray

    blob_schemas = [pa.schema([("__key", pa.string())] + list(cols))
                    for _, _, cols, _ in sides]

    def finish(g: pa.Table) -> pa.Table:
        side = g["__side"].to_numpy()
        blobs = g["__blob"]
        tables = []
        for i, schema in enumerate(blob_schemas):
            tabs = [pa.ipc.open_stream(blobs[int(j)].as_buffer()).read_all()
                    for j in np.flatnonzero(side == i)]
            tables.append(pa.concat_tables(tabs, promote_options="default")
                          if tabs else schema.empty_table())
        return fn(*tables)

    packed = [
        ds.map_batches(_pack_side(keys, cols.names, i, drop_null_keys),
                       batch_format="pyarrow")
        for i, (ds, keys, cols, drop_null_keys) in enumerate(sides)
    ]
    ncpu = (int(ray.cluster_resources().get("CPU", 16))
            if ray.is_initialized() else 16)
    tagged = packed[0].union(*packed[1:]).repartition(max(16, 2 * ncpu))
    return tagged.groupby(_BUCKET).map_groups(finish, batch_format="pyarrow")


_JOIN_TYPES = {"inner": "inner", "left": "left outer", "right": "right outer",
               "outer": "full outer", "semi": "left semi", "anti": "left anti"}


def _join_pairs(lkey, rkey, how: str):
    """Match two key columns: the (left, right) row-index pairs of the
    ``how`` join, for the payloads to be gathered with ``Table.take`` (a
    null index gathers a null row). Semi/anti return ``(left, None)``.

    Only (key, row index) tables enter Arrow's hash join: its non-key
    fields cannot be lists, and an index gather keeps every payload type
    and every int64 value exact. Arrow's join has SQL null semantics — a
    null key never matches, and anti keeps null-key left rows."""
    lt = pa.table({"k": lkey, "li": pa.array(np.arange(len(lkey)), pa.int64())})
    rt = pa.table({"k": rkey, "ri": pa.array(np.arange(len(rkey)), pa.int64())})
    j = lt.join(rt, "k", join_type=_JOIN_TYPES[how], use_threads=False)
    return j["li"], (j["ri"] if "ri" in j.column_names else None)


def _arrow_schema(ds: Dataset) -> pa.Schema:
    """Dataset schema as a ``pa.Schema`` — a dataset whose last stage ran in
    pandas format reports a PandasBlockSchema (numpy dtypes), which cannot
    parameterize Arrow empty tables. Object dtype maps to string (join keys
    and payloads here are scalars)."""
    s = ds.schema(fetch_if_missing=False)  # free when the plan already knows it
    if s is None:
        s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            fields.append((name, t))
        else:
            try:
                fields.append((name, pa.from_numpy_dtype(t)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append((name, pa.string()))
    return pa.schema(fields)


def bucketed_join(
    left: Dataset,
    right: Dataset,
    *,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    bloom_prefilter: bool = False,
    bloom_bits: int = 1 << 22,
) -> Dataset:
    """Large-large equi-join as a :func:`bucketed_cogroup` hash join.

    Each bucket's finish matches the two key columns to row-index pairs
    (:func:`_join_pairs`) and gathers both sides' payloads with
    ``Table.take`` — every payload type (lists included) and every int64
    value comes out exact, and unmatched rows get typed nulls. This is the
    portable partitioned-hash-join pattern (ray_guide «Joins»), used
    instead of ``Dataset.join``, whose empty hash partitions are
    schema-less and break on sparse keys (NOTES fact 1).

    ``on`` / ``right_on`` may be LISTS for composite keys: rows match when
    every part is equal (a null part never matches — the key image is
    null), and the right key columns ride as ordinary payload
    (``_r``-suffixed on collision). A single right key column is dropped
    from the output except for ``how="outer"``.

    ``bloom_prefilter=True`` (inner/semi only) folds the right keys into
    an m-bit bloom bitmap first and drops non-hitting LEFT rows BEFORE
    the shuffle — when the build side is selective, the probe side's
    exchange shrinks by its miss rate at the cost of one broadcast bitmap
    (no false drops, so the result is identical). The right side is
    pinned (materialize) so the bloom fold does not execute it twice;
    use when right is the smaller side, as in fact⋈dimension joins.

    Hot keys: all rows of one key share a bucket; pre-salt a known whale
    key (:func:`code_graph_rag_ray.stages.skew.salted_join`) if a bucket
    outgrows a worker.

    Null keys follow SQL semantics: null never equals null, so null-key
    rows leave inner/semi joins (and the right side of left joins) before
    the shuffle; outer joins keep them unmatched on both sides.

    Column collision: right-side columns that clash with left names get a
    ``_r`` suffix.

    ``how="semi"`` / ``"anti"`` give EXACT large-large existence joins
    (the decontamination shape when both sides outgrow a broadcast and a
    bloom pre-filter isn't enough): only the right side's KEY crosses the
    shuffle, output is the left schema, anti keeps null-key left rows
    (NOT EXISTS semantics).
    """
    lkeys = on if isinstance(on, list) else [on]
    rkeys = right_on if right_on is not None else on
    rkeys = rkeys if isinstance(rkeys, list) else [rkeys]
    assert len(rkeys) == len(lkeys)
    if bloom_prefilter and how in ("inner", "semi"):
        import ray as _ray

        from code_graph_rag_ray.functions.broadcast import get_broadcast
        from code_graph_rag_ray.stages.bloom import bloom_build, bloom_contains

        right = right.materialize()  # the bloom fold must not re-execute it
        rk = right.map_batches(
            lambda b: pa.table({"__k": _key_image(b, rkeys)}),
            batch_format="pyarrow",
        )
        bits_ref = _ray.put(bloom_build(rk, "__k", m_bits=bloom_bits))
        mb = bloom_bits

        def lfilter(b: pa.Table) -> pa.Table:
            key = _key_image(b, lkeys)
            mask = bloom_contains(get_broadcast(bits_ref), key, m_bits=mb, k=3)
            # null keys may land either way here — inner/semi drop them
            # at pack time regardless
            return b.filter(pa.array(mask))

        left = left.map_batches(lfilter, batch_format="pyarrow")

    # Schema hints matter when a side has an all-to-all upstream
    # (groupby/sort): the ds.schema() probe otherwise EXECUTES that whole
    # upstream once for the names (limit-1 truncates only post-sort
    # stages) — 2× cost plus the limit-cancellation refcount crash
    # (NOTES.md fact 22). The types type a bucket's absent side.
    lschema = left_schema if left_schema is not None else _arrow_schema(left)
    rschema = right_schema if right_schema is not None else _arrow_schema(right)
    if how in ("semi", "anti"):
        rschema = pa.schema([])  # only the right key crosses the shuffle
    else:
        drop = rkeys if isinstance(on, str) and how != "outer" else []
        rschema = pa.schema([f for f in rschema if f.name not in drop])
    rnames = [c + "_r" if c in lschema.names else c for c in rschema.names]

    def finish(lt: pa.Table, rt: pa.Table) -> pa.Table:
        li, ri = _join_pairs(lt["__key"], rt["__key"], how)
        out = lt.drop_columns(["__key"]).take(li)
        if ri is None:
            return out
        rvals = rt.drop_columns(["__key"]).take(ri)
        for name, col in zip(rnames, rvals.columns):
            out = out.append_column(name, col)
        return out

    return bucketed_cogroup([
        # null keys: never match (SQL), so they leave inner/semi/right
        # before the shuffle; anti follows NOT EXISTS semantics — null-key
        # rows are kept (a null key cannot be proven present on the right)
        (left, lkeys, lschema, how in ("inner", "semi", "right")),
        (right, rkeys, rschema, how != "outer"),
    ], finish)


#: default worker-heap budget for a broadcast join side. One broadcast
#: copy is pinned per worker process, so the budget must be a fraction of
#: a worker's heap, not of the node: 256 MB keeps 8-16 workers/node safe.
BROADCAST_BUDGET_BYTES = 256 << 20


def adaptive_join(
    left: Dataset,
    right: Dataset,
    *,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    broadcast_budget_bytes: int | None = None,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> Dataset:
    """Equi-join that PICKS its physical plan from the right side's
    measured size: broadcast (map-side hash lookup, zero shuffle of the
    left) when the right side fits ``broadcast_budget_bytes``, else the
    bucketed cogroup shuffle join — so the scale-safe plan is the
    default, not a comment telling the user to switch.

    The right side is materialized once to measure it; both physical
    plans consume those same object-store blocks (the broadcast path
    reads them via ``to_arrow_refs``, the bucketed path re-streams them),
    so the probe costs no extra pass — only pinning, which the object
    store spills if the side turns out large. At 10^12-doc scale a
    fact-scale right side blows the budget and the plan degrades to the
    bucketed exchange automatically; on a laptop-scale run the broadcast
    fast path wins. Only ``inner``/``left``/``semi`` are eligible for
    broadcast (a broadcast right side cannot produce right-unmatched
    rows); a semi join emits each left row at most once on either plan.

    Env override ``GRAFT_BROADCAST_BUDGET`` (bytes) tunes the threshold
    without code changes — set it per deployment to ~1/8 of a worker
    heap.
    """
    import os

    if broadcast_budget_bytes is None:
        broadcast_budget_bytes = int(
            os.environ.get("GRAFT_BROADCAST_BUDGET", BROADCAST_BUDGET_BYTES)
        )
    right = right.materialize()
    size = right.size_bytes() or 0
    if how in ("inner", "left", "semi") and size <= broadcast_budget_bytes:
        return broadcast_join(left, right, on=on, right_on=right_on, how=how)
    return bucketed_join(
        left, right, on=on, right_on=right_on, how=how,
        left_schema=left_schema, right_schema=right_schema,
    )


def partial_groupby_sum(
    ds: Dataset,
    keys: list[str],
    sums: dict[str, str],
    *,
    count_alias: str | None = None,
) -> Dataset:
    """Two-phase grouped sum/count: Arrow group_by per batch (combiner),
    then a global groupby over the much smaller partials.

    ``sums`` maps input column → output alias. The partial stage emits one
    row per key per batch; the final stage sums partials.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sums]
        gb = pa.TableGroupBy(b, keys, use_threads=False)
        if count_alias:
            aggs.append(([], "count_all"))
        t = gb.aggregate(aggs)
        names = list(keys) + [f"{alias}__p" for alias in sums.values()]
        if count_alias:
            names.append(f"{count_alias}__p")
        # pyarrow returns key cols last or first depending on version — map by name
        colmap = {}
        for c, alias in sums.items():
            colmap[f"{c}_sum"] = f"{alias}__p"
        if count_alias:
            colmap["count_all"] = f"{count_alias}__p"
        arrays, out_names = [], []
        for name in t.column_names:
            out = colmap.get(name, name)
            arrays.append(t[name])
            out_names.append(out)
        return pa.Table.from_arrays([a.combine_chunks() for a in arrays], names=out_names)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # partials are one row per key per input block — hundreds of TINY
    # blocks. The groupby's sort stage pays a fixed cost per input block
    # (NOTES.md fact 6), so coalesce the partial rows first; the extra
    # pass moves only the partial aggregate rows, never the input.
    try:
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 16))
    except Exception:  # pragma: no cover
        ncpu = 16
    partials = partials.repartition(max(8, ncpu // 2))
    aggs = [Sum(f"{alias}__p", alias_name=alias) for alias in sums.values()]
    if count_alias:
        aggs.append(Sum(f"{count_alias}__p", alias_name=count_alias))
    return partials.groupby(keys).aggregate(*aggs)


def top_k(ds: Dataset, by: str, k: int, *, descending: bool = True) -> Dataset:
    """Global top-k: per-batch local top-k (partial), coalesce the ≤
    blocks×k survivors to ONE block, final exact top-k there.

    Avoids a full distributed sort of the input AND avoids
    ``sort().limit(k)``: a LimitOperator early-cancels in-flight upstream
    tasks, which both wastes the already-paid sort and races Ray 2.49's
    reference counting (observed ``reference_count.cc:581`` check-failure
    crash after a limit-truncated sort plan — NOTES.md fact 22)."""

    def local(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = "descending" if descending else "ascending"
        idx = pc.sort_indices(b, sort_keys=[(by, order)])[: k]
        return b.take(idx)

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .repartition(1)
        .map_batches(local, batch_format="pyarrow", batch_size=None)
    )


def bucketed_groups(ds: Dataset | list[Dataset], keys: str | list[str], fn) -> Dataset:
    """Finish the groups of ``keys`` one hash BUCKET at a time (NOTES fact 25).

    Every row is hashed by its key into one of ``_NUM_BUCKETS`` buckets;
    one ``groupby(bucket).map_groups`` shuffle then calls ``fn`` once per
    bucket with that bucket's rows as an Arrow table, bucket column
    dropped. A group is always whole inside one bucket, so ``fn`` finishes
    all of its groups with one vectorized pass — a per-GROUP map_groups
    pays Ray's sort-aggregate cost per group, which dominates at corpus
    group counts.

    ``ds`` may be a list of same-schema datasets (a tagged-union cogroup):
    each is bucketed before the union, so the bucket column is computed
    inside its producer's tasks. ``fn`` only ever receives non-empty
    tables from the shuffle. An all-empty input never reaches a UDF and
    leaves the sort schema-less (NOTES facts 3/28), so an input already
    materialized empty skips the shuffle: ``fn`` runs once on its typed
    empty table, and that result is the (typed) output.
    """
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    from code_graph_rag_ray.functions.hashing import partition_ids

    keys = [keys] if isinstance(keys, str) else list(keys)
    parts = ds if isinstance(ds, list) else [ds]

    def add_bucket(b: pa.Table) -> pa.Table:
        bk = partition_ids(_key_image(b, keys), _NUM_BUCKETS)
        return b.append_column(_BUCKET, pa.array(bk, pa.int32()))

    def finish(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns([_BUCKET]))

    if all(isinstance(d, MaterializedDataset) and d.count() == 0 for d in parts):
        schema = getattr(parts[0].schema(), "base_schema", None)
        if isinstance(schema, pa.Schema):  # metadata only: nothing executes
            return rd.from_arrow(fn(schema.empty_table()))
    tagged = [d.map_batches(add_bucket, batch_format="pyarrow") for d in parts]
    out = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return out.groupby(_BUCKET).map_groups(finish, batch_format="pyarrow")


def run_starts(t: pa.Table, cols: list[str]) -> np.ndarray:
    """First-of-run mask over ``t`` already sorted by ``cols``: True where
    a row's ``cols`` differ from the previous row's. Nulls equal each
    other, as in SQL grouping."""
    n = t.num_rows
    first = np.zeros(n, bool)
    first[:1] = True
    for c in cols if n > 1 else ():
        a = t[c].combine_chunks()
        cur, prev = a.slice(1), a.slice(0, n - 1)
        ne = pc.or_(pc.fill_null(pc.not_equal(cur, prev), False),
                    pc.xor(pc.is_null(cur), pc.is_null(prev)))
        first[1:] |= ne.to_numpy(zero_copy_only=False)
    return first


def _runs(first: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start row, length, each row's position in its run) of the runs a
    :func:`run_starts` mask marks."""
    starts = np.flatnonzero(first)
    lens = np.diff(np.append(starts, len(first)))
    return starts, lens, np.arange(len(first)) - np.repeat(starts, lens)


def _head_k(t: pa.Table, sort_keys: list[tuple[str, str]], k: int) -> pa.Table:
    """Sort ``t`` by ``sort_keys`` (group column first) and keep the first
    ``k`` rows of every group."""
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    _, _, pos = _runs(run_starts(t, [sort_keys[0][0]]))
    return t.filter(pa.array(pos < k))


def _join_runs(t: pa.Table, starts: np.ndarray, col: str, sep: str) -> pa.Array:
    """One ``sep``-joined string per run of ``t`` (runs begin at
    ``starts``), values in row order."""
    offsets = pa.array(np.append(starts, t.num_rows), pa.int32())
    vals = pc.cast(t[col], pa.string()).combine_chunks()
    return pc.binary_join(pa.ListArray.from_arrays(offsets, vals), sep)


def _mapped(ds: Dataset, fn, **kwargs) -> Dataset:
    """``ds.map_batches(fn)`` in Arrow. Ray calls no UDF on an empty block,
    so a map over an input already materialized empty would lose its
    schema; there ``fn`` runs once on the typed empty table instead and
    the result stays materialized, which keeps the :func:`bucketed_groups`
    it feeds typed."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset) and ds.count() == 0:
        schema = getattr(ds.schema(), "base_schema", None)
        if isinstance(schema, pa.Schema):
            return rd.from_arrow(fn(schema.empty_table()))
    return ds.map_batches(fn, batch_format="pyarrow", **kwargs)


def _group_pairs(ds: Dataset, group: str, item: str, *,
                 max_items: int | None = None) -> Dataset:
    """(group, a, b): every pair ``a < b`` of the distinct ``item`` values
    that share a ``group``, one :func:`bucketed_groups` pass. Rows with a
    null group or item pair with nothing (an SQL self-join on the group
    never matches them). ``max_items`` pairs only a group's first items
    in sort order: the quadratic guard for hub groups.

    Each bucket sorts once, keeps the first row of every (group, item)
    run, and expands every group of k items into its C(k, 2) pairs with
    vectorised per-run ``triu`` offsets: row i of a run pairs with the
    rows after it, in ``np.triu_indices`` order."""

    def pairs(t: pa.Table) -> pa.Table:
        t = t.select([group, item])
        t = t.filter(pc.and_(pc.is_valid(t[group]), pc.is_valid(t[item])))
        t = t.take(pc.sort_indices(t, sort_keys=[(group, "ascending"),
                                                 (item, "ascending")]))
        t = t.filter(pa.array(run_starts(t, [group, item])))
        _, lens, pos = _runs(run_starts(t, [group]))
        if max_items is not None:
            lens = np.minimum(lens, max_items)
            t = t.filter(pa.array(pos < max_items))
            pos = pos[pos < max_items]
        fan = np.repeat(lens, lens) - 1 - pos
        ia = np.repeat(np.arange(t.num_rows), fan)
        ib = ia + 1 + np.arange(len(ia)) - np.repeat(np.cumsum(fan) - fan, fan)
        ia, ib = pa.array(ia, pa.int64()), pa.array(ib, pa.int64())
        return pa.table({group: t[group].take(ia), "a": t[item].take(ia),
                         "b": t[item].take(ib)})

    return bucketed_groups(ds, group, pairs)


def _counted_groups(ds: Dataset, key: str, inner: str, fn) -> Dataset:
    """Count the rows of every (``key``, ``inner``) pair and finish them
    per ``key``: each block emits one (key, inner, n) row per pair it holds
    (an Arrow ``group_by`` combiner), then one :func:`bucketed_groups` pass
    keyed on ``key`` alone completes the sums and calls ``fn`` with them,
    unsorted. A hot key exchanges O(blocks × its distinct inner values),
    never its row count. A null ``key`` or ``inner`` is a group of its own
    (SQL ``GROUP BY``)."""

    def partial(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select([key, inner]), [key, inner],
                            use_threads=False).aggregate([([], "count_all")])
        return pa.table({key: g[key], inner: g[inner], "n": g["count_all"]})

    def finish(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, [key, inner], use_threads=False).aggregate(
            [("n", "sum")])
        return fn(pa.table({key: g[key], inner: g[inner], "n": g["n_sum"]}))

    return bucketed_groups(_mapped(ds, partial), key, finish)


def grouped_top_k(
    ds: Dataset,
    group: str,
    by: str,
    k: int,
    *,
    descending: bool = True,
    tiebreak: str | None = None,
) -> Dataset:
    """Per-group top-k without sorting whole groups through the shuffle.

    Phase 1 (map): each block is sorted once and truncated to k rows PER
    GROUP — at most k × groups-in-block rows leave any block, so a whale
    group exchanges O(blocks × k), not its full row count. Phase 2: the
    SAME truncation re-runs once per :func:`bucketed_groups` bucket.
    ``tiebreak`` (ascending) makes the result deterministic under ties at
    the k boundary — REQUIRED for exact oracle comparison; without it rows
    tied at rank k are arbitrary."""
    order = "descending" if descending else "ascending"
    sort_keys = [(group, "ascending"), (by, order)]
    if tiebreak:
        sort_keys.append((tiebreak, "ascending"))

    def local(b: pa.Table) -> pa.Table:
        return _head_k(b, sort_keys, k)

    return bucketed_groups(_mapped(ds, local), group, local)


def grouped_collect(
    ds: Dataset,
    group: str,
    order_by: str,
    val: str,
    k: int,
    *,
    sep: str = ",",
    descending: bool = False,
    tiebreak: str | None = None,
) -> Dataset:
    """Per-group ordered collect of the first ``k`` values — SQL's
    ``string_agg(val, sep ORDER BY order_by) FILTER (rn <= k)`` as a
    distributed operator.

    The cap is the scale contract: an UNCAPPED ordered collect of a whale
    group is a single unbounded string — the cgr analog (per-pattern rel
    grouping, ``graph_service.py:126-128``) buffers bounded batches for the
    same reason. Phase 1 is the ``grouped_top_k`` block-local truncation
    (each block contributes ≤ k rows per group), so the shuffle carries
    O(blocks × k) rows per group; phase 2 re-truncates per bucket and
    joins each group's head-k values (Arrow string casts). ``tiebreak``
    makes boundary ties deterministic — REQUIRED for exact oracle
    comparison.

    Output: (group, collected:string, n_collected:int64).
    """
    order = "descending" if descending else "ascending"
    sort_keys = [(group, "ascending"), (order_by, order)]
    if tiebreak:
        sort_keys.append((tiebreak, "ascending"))

    def local(b: pa.Table) -> pa.Table:
        return _head_k(b, sort_keys, k)

    def collect(t: pa.Table) -> pa.Table:
        t = local(t)
        starts, lens, _ = _runs(run_starts(t, [group]))
        return pa.table({
            group: t[group].take(starts),
            "collected": _join_runs(t, starts, val, sep),
            "n_collected": pa.array(lens, pa.int64()),
        })

    return bucketed_groups(_mapped(ds, local), group, collect)


def grouped_trimmed_sum(
    ds: Dataset,
    group: str,
    val: str,
    k: int,
    *,
    tiebreak: str,
) -> Dataset:
    """Exact k-trimmed grouped aggregate (robust mean): per group, drop the
    k smallest and k largest values under the total order (val, tiebreak)
    and sum/count the remainder — outlier-resistant corpus accounting
    without shipping whole groups.

    One shuffle: each block contributes per group its k smallest + k
    largest rows (the union provably contains the GLOBAL extremes) plus a
    single (sum, count) summary row, so a whale group exchanges
    O(blocks × 2k + blocks) rows, never its size. The per-bucket merge
    re-sorts the survivors and takes each group's k head/tail rows —
    disjoint, since a group with n > 2k keeps ≥ 2k survivors — and
    subtracts them from the summary totals. Groups with n ≤ 2k are
    DROPPED (trimming is undefined there; the oracle's ``HAVING n > 2k``
    mirrors it). Values must be int64 (the fixed-point convention: float
    partial sums would not be exactly re-aggregatable); ``trimmed_mean``
    is the single final IEEE division, bit-exact vs SQL.
    """
    order = [(group, "ascending"), (val, "ascending"), (tiebreak, "ascending")]

    def extremes(t: pa.Table):
        # sorted t, its runs, and each row's (head|tail)-k membership
        t = t.take(pc.sort_indices(t, sort_keys=order))
        starts, lens, pos = _runs(run_starts(t, [group]))
        return t, starts, lens, (pos < k) | (pos >= np.repeat(lens, lens) - k)

    def local(b: pa.Table) -> pa.Table:
        t, starts, lens, keep = extremes(b.select([group, val, tiebreak]))
        vals = np.asarray(t[val].to_numpy(zero_copy_only=False), np.int64)
        sums = np.add.reduceat(vals, starts) if len(starts) else vals[:0]
        kept = t.filter(pa.array(keep))
        return pa.concat_tables([
            kept.append_column("__sum", pa.nulls(kept.num_rows, pa.int64()))
                .append_column("__n", pa.nulls(kept.num_rows, pa.int64())),
            pa.table({
                group: t[group].take(starts),
                val: pa.array(np.zeros(len(starts), np.int64)),
                tiebreak: pa.nulls(len(starts), t[tiebreak].type),
                "__sum": pa.array(sums.astype(np.int64)),
                "__n": pa.array(lens, pa.int64()),
            }),
        ])

    def merge(t: pa.Table) -> pa.Table:
        is_row = pc.is_null(t["__n"])
        rows, _, _, cut = extremes(t.filter(is_row).select([group, val, tiebreak]))
        vals = np.asarray(rows[val].to_numpy(zero_copy_only=False), np.int64)
        summary = t.filter(pc.invert(is_row))
        parts = pa.concat_tables([
            pa.table({group: rows[group],
                      "__cut": pa.array(np.where(cut, vals, 0)),
                      "__sum": pa.array(np.zeros(rows.num_rows, np.int64)),
                      "__n": pa.array(np.zeros(rows.num_rows, np.int64))}),
            pa.table({group: summary[group],
                      "__cut": pa.array(np.zeros(summary.num_rows, np.int64)),
                      "__sum": summary["__sum"], "__n": summary["__n"]}),
        ])
        g = pa.TableGroupBy(parts, group, use_threads=False).aggregate(
            [("__cut", "sum"), ("__sum", "sum"), ("__n", "sum")])
        g = g.filter(pc.greater(g["__n_sum"], 2 * k))
        ts = pc.subtract(g["__sum_sum"], g["__cut_sum"])
        nk = pc.subtract(g["__n_sum"], 2 * k)
        return pa.table({
            group: g[group], "trimmed_sum": ts, "n_kept": nk,
            "trimmed_mean": pc.divide(pc.cast(ts, pa.float64()),
                                      pc.cast(nk, pa.float64())),
        })

    return bucketed_groups(_mapped(ds, local), group, merge)
