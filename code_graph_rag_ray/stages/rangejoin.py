"""Distributed range join (point-in-interval, the second custom join Ray
Data lacks — the companion of :mod:`code_graph_rag_ray.stages.asof`).

``range_join_chunked(points, intervals, by=key, on=ts, start_col, end_col)``
emits one row per (point, interval) pair of the same key with
``start <= ts <= end`` — event→session assignment, record→validity-window
enrichment. Construction (same (key, time-chunk) cogroup discipline as
asof/session_windows_chunked):

1. points land in their ``(key, chunk)`` group; each interval is
   REPLICATED into every chunk it overlaps (``floor(start/chunk_s) ..
   floor(end/chunk_s)`` — interval rows are summaries, so the replication
   cost is rows × spanned-chunks, never point-scale),
2. groups cogroup through
   :func:`code_graph_rag_ray.stages.relational.bucketed_cogroup` (each
   side ships its own columns only),
3. each bucket matches its (key, chunk) ids to row-index pairs
   (``relational._join_pairs``), keeps the pairs whose point lies inside
   the interval and gathers the payloads in Arrow (|P|×|I| candidate
   pairs per group; bounded because chunking caps how many intervals
   co-locate with a point — document interval density when tuning
   ``chunk``).

INNER semantics: points inside no interval emit nothing. Timestamps are
int64 epoch-µs end to end unless the inputs are already integers (then
``unit_us=False`` keeps raw integer units — interval bounds in epoch
SECONDS, like session windows, join with ``ts`` preconverted by caller or
``points_ts_div``). Null key/ts rows are dropped (SQL join semantics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import (
    _arrow_schema,
    _join_pairs,
    bucketed_cogroup,
)


def _as_int(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
    return pc.cast(col, pa.int64())


def _floor_div(a: pa.Array, d: int) -> pa.Array:
    """``a // d`` rounded toward −∞ for ``d > 0`` (Arrow's integer divide
    truncates), nulls kept — the rule the interval side's numpy ``//``
    uses, so a negative point lands in the chunk its interval covers."""
    q = pc.divide(a, d)
    return pc.subtract(q, pc.cast(pc.greater(pc.multiply(q, d), a), pa.int64()))


def range_join_chunked(
    points: Dataset,
    intervals: Dataset,
    *,
    by: str,
    on: str = "ts",
    start_col: str = "start",
    end_col: str = "end",
    chunk: int = 86_400_000_000,
    points_ts_div: int = 1,
    suffix: str = "_iv",
) -> Dataset:
    """Inner point-in-interval join; ``chunk`` is in the BOUND columns'
    integer units (µs for timestamp bounds). ``points_ts_div`` divides the
    point ts into the bounds' units (e.g. 1_000_000 when bounds are epoch
    seconds, points are timestamps)."""
    pschema, ischema = _arrow_schema(points), _arrow_schema(intervals)
    pcols = [c for c in pschema.names if c != on]  # includes by
    icols = [c for c in ischema.names if c != by]  # includes bounds
    keys = [by, "__chunk"]

    def tag_points(b: pa.Table) -> pa.Table:
        ts = _floor_div(_as_int(b[on]), points_ts_div)
        return pa.table({"__ts": ts, "__chunk": _floor_div(ts, chunk),
                         **{c: b[c] for c in pcols}})

    def explode_intervals(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b  # may be schema-less (a groupby upstream); packs to nothing
        s = _as_int(b[start_col]).to_numpy(zero_copy_only=False)
        e = _as_int(b[end_col]).to_numpy(zero_copy_only=False)
        c0 = s // chunk
        c1 = np.maximum(e // chunk, c0)
        reps = (c1 - c0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(b.num_rows), reps)
        # chunk number for each replica: c0[row] + position-within-row
        pos = np.arange(len(idx), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        t = b.select([by] + icols).take(pa.array(idx, pa.int64()))
        return t.append_column("__chunk", pa.array(c0[idx] + pos, pa.int64()))

    def match(P: pa.Table, I: pa.Table) -> pa.Table:
        # one vectorized hash-join on the (key, chunk) cogroup id, then the
        # containment filter — candidate pairs = sum over cogroups of
        # |P_g|·|I_g|, paired in C
        pi, ii = _join_pairs(P["__key"], I["__key"], "inner")
        ts = P["__ts"].take(pi)
        inside = pc.and_(pc.greater_equal(ts, _as_int(I[start_col].take(ii))),
                         pc.less_equal(ts, _as_int(I[end_col].take(ii))))
        pi, ii = pi.filter(inside), ii.filter(inside)
        pv, iv = P.take(pi), I.take(ii)
        return pa.table({**{c: pv[c] for c in pcols}, on: pv["__ts"],
                         **{f"{c}{suffix}": iv[c] for c in icols}})

    return bucketed_cogroup([
        (points.map_batches(tag_points, batch_format="pyarrow"), keys,
         pa.schema([("__ts", pa.int64())] + [pschema.field(c) for c in pcols]),
         True),
        (intervals.map_batches(explode_intervals, batch_format="pyarrow"), keys,
         pa.schema([ischema.field(c) for c in icols]), True),
    ], match)
