"""Distributed as-of join (event-time enrichment, the §2.8 family member
Ray Data lacks).

``asof_join_chunked(left, right, by=key, on=ts)`` attaches to every left
row the latest right row of the same key with ``right.ts <= left.ts`` —
click→view attribution, state-as-of-event enrichment. Construction
(documented partitioning assumption: rows co-locate by (key, time-chunk)):

1. both sides land in ``(key, chunk)`` cogroups (chunk = epoch-µs
   floor-div ``chunk_s``) through
   :func:`code_graph_rag_ray.stages.relational.bucketed_cogroup` (exactly
   each side's own columns move, row count O(batches × buckets)); a whale
   key's events spread over ``span/chunk_s`` groups,
2. a left row's match may precede its chunk, so the right side reduces to
   per-(key, chunk) LAST-row summaries (batch-local combiner first — one
   row per key-chunk per batch crosses the wire), and one per-key pass over
   summaries ∪ left-chunk markers (``bucketed_groups``) computes each left
   chunk's CARRY-IN (the latest right row strictly before the chunk) —
   bounded by #key-chunks,
3. each cogroup locally ``merge_asof``s its left rows against carry-in ∪
   in-chunk right rows over (key, ts, row index) only, then gathers the
   payloads in Arrow — every payload type and int64 value stays exact.

Timestamps are int64 epoch-µs end to end (timestamps change resolution
across shuffle/pandas boundaries — NOTES.md); the output ``on`` column is
int64 µs. LEFT-join semantics (no preceding right row → nulls), DuckDB
``ASOF LEFT JOIN`` parity. Rows with null key or null ts are dropped on
both sides (SQL null-key join semantics; document for callers).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import (
    _arrow_schema,
    bucketed_cogroup,
    bucketed_groups,
    run_starts,
)


def _ts_us(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
    return pc.cast(col, pa.int64())


def asof_join_chunked(
    left: Dataset,
    right: Dataset,
    *,
    by: str,
    on: str = "ts",
    right_cols: list[str] | None = None,
    chunk_s: int = 86400,
    suffix: str = "_r",
    tolerance_s: int | None = None,
) -> Dataset:
    """Left as-of join: latest right row per key with ts ≤ left ts.

    ``tolerance_s`` bounds staleness: a preceding right row older than
    the window yields NO match (nulls) — pandas ``merge_asof(tolerance)``
    semantics, applied at match time inside each cogroup, so the carry
    machinery is unaffected (carries hold real timestamps and simply
    fail the window test when too old)."""
    chunk_us = chunk_s * 1_000_000
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lcols = [c for c in lschema.names if c != on]  # includes `by`
    rcols = right_cols or [c for c in rschema.names if c not in (by, on)]
    # unified schema for right summaries / markers / carries
    sum_schema = pa.schema(
        [(by, lschema.field(by).type), ("__chunk", pa.int64()),
         ("__ts_us", pa.int64())]
        + [(c, rschema.field(c).type) for c in rcols]
    )
    keys = [by, "__chunk"]

    def add_group_cols(b: pa.Table, keep: list[str]) -> pa.Table:
        ts = _ts_us(b[on])
        t = pa.table({"__ts_us": ts, "__chunk": pc.divide(ts, chunk_us),
                      **{c: b[c] for c in keep}})
        # null key or null ts: never matches (SQL) — leave before any shuffle
        return t.filter(pc.and_(pc.is_valid(t[by]), pc.is_valid(ts)))

    left_grouped = left.map_batches(lambda b: add_group_cols(b, lcols),
                                    batch_format="pyarrow")
    right_grouped = right.map_batches(
        lambda b: add_group_cols(b, [by] + rcols), batch_format="pyarrow"
    )
    sortable_rcols = [
        c for c in rcols
        if not pa.types.is_nested(sum_schema.field(c).type)
    ]

    # ---- right per-(key, chunk) last-row summaries (combiner first) ------
    def last_per_group(b: pa.Table) -> pa.Table:
        s = b.select(sum_schema.names)
        s = s.take(pc.sort_indices(s, sort_keys=[
            (by, "ascending"), ("__chunk", "ascending"),
            ("__ts_us", "ascending")] + [(c, "ascending") for c in sortable_rcols]))
        last = np.append(run_starts(s, keys)[1:], True)
        return s.filter(pa.array(last))

    r_partials = right_grouped.map_batches(last_per_group, batch_format="pyarrow")

    # ---- left chunk markers (combiner: unique (key, chunk) per batch) ----
    def markers(b: pa.Table) -> pa.Table:
        u = pa.TableGroupBy(b.select(keys), keys, use_threads=False).aggregate([])
        n = u.num_rows
        return pa.table(
            {by: u[by], "__chunk": u["__chunk"],
             **{f.name: pa.nulls(n, f.type) for f in sum_schema
                if f.name not in keys}},
            schema=sum_schema)

    l_markers = left_grouped.map_batches(markers, batch_format="pyarrow")

    # ---- per-key carry-in for every left chunk (ts-null rows = markers) ---
    # One bucketed_groups pass over BATCH-LEVEL right summaries ∪ markers:
    # the latest right row strictly before a chunk is the last summary
    # row before that chunk's marker in (key, chunk, marker-first, ts,
    # payload) order, whether or not the per-(key, chunk) partials were
    # pre-reduced.
    def carries(t: pa.Table) -> pa.Table:
        t = t.append_column("__row", pc.is_valid(t["__ts_us"]))
        t = t.take(pc.sort_indices(t, sort_keys=[
            (by, "ascending"), ("__chunk", "ascending"), ("__row", "ascending"),
            ("__ts_us", "ascending")] + [(c, "ascending") for c in sortable_rcols]))
        row = t["__row"].to_numpy(zero_copy_only=False)
        key_run = np.cumsum(run_starts(t, [by]))
        # markers sort first in their (key, chunk): the first one stands
        # for the chunk; its carry is the last summary row before it
        need = ~row & run_starts(t, keys)
        last = np.maximum.accumulate(np.where(row, np.arange(len(row)), -1))
        prev = last[need]
        ok = prev >= 0
        ok[ok] = key_run[prev[ok]] == key_run[need][ok]
        carry = t.take(pa.array(prev[ok], pa.int64())).drop_columns(["__row"])
        return carry.set_column(
            carry.schema.get_field_index("__chunk"), "__chunk",
            t["__chunk"].filter(pa.array(need)).filter(pa.array(ok)))

    carry = bucketed_groups([r_partials, l_markers], by, carries)

    # ---- local as-of match per (key, chunk) inside each bucket ------------
    # merge_asof runs over (key, ts, row index) only; payloads are
    # gathered in Arrow, so every type and int64 value comes out exact
    rfields = pa.schema([("__ts_us", pa.int64())]
                        + [sum_schema.field(c) for c in rcols])
    lfields = pa.schema([("__ts_us", pa.int64())]
                        + [lschema.field(c) for c in lcols])
    tolerance = tolerance_s * 1_000_000 if tolerance_s is not None else None

    def merge(lt: pa.Table, rt: pa.Table, ct: pa.Table) -> pa.Table:
        r = pa.concat_tables([rt, ct])
        # deterministic ties: merge_asof takes the LAST right row in
        # (ts, payload) order
        r = r.take(pc.sort_indices(r, sort_keys=[("__ts_us", "ascending")] + [
            (c, "ascending") for c in sortable_rcols]))
        lt = lt.take(pc.sort_indices(lt, sort_keys=[("__ts_us", "ascending")]))
        ri = pa.nulls(lt.num_rows, pa.int64())
        if lt.num_rows and r.num_rows:
            m = pd.merge_asof(
                pd.DataFrame({"__key": lt["__key"].to_numpy(zero_copy_only=False),
                              "__ts": lt["__ts_us"].to_numpy()}),
                pd.DataFrame({"__key": r["__key"].to_numpy(zero_copy_only=False),
                              "__ts": r["__ts_us"].to_numpy(),
                              "__ri": np.arange(r.num_rows)}),
                on="__ts", by="__key", direction="backward",
                allow_exact_matches=True, tolerance=tolerance,
            )["__ri"].to_numpy(np.float64)
            ri = pa.array(np.nan_to_num(m, nan=0).astype(np.int64),
                          mask=np.isnan(m))
        rv = r.take(ri)
        out = {c: lt[c] for c in lcols}
        out[on] = lt["__ts_us"]
        out[f"{on}{suffix}"] = rv["__ts_us"]
        out.update({f"{c}{suffix}": rv[c] for c in rcols})
        return pa.table(out)

    return bucketed_cogroup([
        (left_grouped, keys, lfields, True),
        (right_grouped, keys, rfields, True),
        (carry, keys, rfields, True),
    ], merge)
