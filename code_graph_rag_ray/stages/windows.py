"""Event-stream windowed aggregates (streaming-shaped semantics, §2.8).

Ray Data has no event-time windows; per the reference's model (watch mode is
incremental recompute, not stream processing — ``realtime_updater.py``), a
"stream" here is an ordered, partitioned log: assign each event to a window
in a stateless vectorized pass, then aggregate (two-phase) — tumbling
windows need no cross-row state. The ordered per-key operators (sessions,
sliding/running sums, lag/lead, transitions, funnels) split each key's
events into (key, time-chunk) groups and finish them one hash bucket at a
time in Arrow (``relational.bucketed_groups`` / ``bucketed_cogroup``);
cross-chunk state travels as per-chunk summaries.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import (
    _join_pairs,
    _runs,
    bucketed_cogroup,
    bucketed_groups,
    bucketed_join,
    partial_groupby_sum,
    run_starts,
)


def _int64(col) -> np.ndarray:
    """An integer column as an int64 numpy array. Nulls raise: numpy would
    turn each into INT64_MIN without a word."""
    if col.null_count:
        raise ValueError(f"{col.null_count} null value(s) in an integer column "
                         "of a chunked window op; drop or fill them first")
    return np.asarray(col.to_numpy(zero_copy_only=False), np.int64)


def _with_chunk(b: pa.Table, ts_col: str, chunk_s: int, cols: list[str]) -> pa.Table:
    """``cols`` of ``b`` plus ``ts_us`` (int64 epoch µs, whatever the
    timestamp resolution) and ``__chunk`` (``ts_us`` floor-divided by
    ``chunk_s`` seconds)."""
    ts_us = _int64(pc.cast(pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()))
    return pa.table({**{c: b[c] for c in cols},
                     "ts_us": pa.array(ts_us, pa.int64()),
                     "__chunk": pa.array(ts_us // (chunk_s * 1_000_000), pa.int64())})


def _event_schema(id_col: str, key_col: str, value_col: str) -> pa.Schema:
    """The int64 event columns a chunked carry op ships to its cogroup."""
    return pa.schema([(c, pa.int64()) for c in (id_col, key_col, "ts_us", value_col)])


def _run_ends(first: np.ndarray) -> np.ndarray:
    """Last-of-run mask from a :func:`run_starts` first-of-run mask."""
    return np.append(first[1:], True)[:len(first)]


def tumbling_window_agg(
    events: Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window_s: int = 3600,
) -> Dataset:
    """(key, window_start, n_events, sum_value) per tumbling window.

    ``window_start`` is int64 epoch SECONDS, epoch-aligned
    (``floor(epoch/window)*window``) — kept integral end-to-end because
    timestamp columns change resolution when they round-trip through
    shuffle/pandas boundaries (observed: us→s drift), and the DuckDB oracle
    (``floor(epoch(ts)/w)*w``) is integral too.
    """

    def assign(b: pa.Table) -> pa.Table:
        # normalize to µs explicitly before integer math — the parquet may
        # carry any timestamp resolution
        epoch_us = pc.cast(pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        win_s = (epoch_us // (window_s * 1_000_000)) * window_s
        return pa.table(
            {
                key_col: b[key_col],
                "window_start": pa.array(win_s, pa.int64()),
                value_col: b[value_col],
            }
        )

    assigned = events.map_batches(assign, batch_format="pyarrow")
    return partial_groupby_sum(
        assigned,
        [key_col, "window_start"],
        {value_col: "sum_value"},
        count_alias="n_events",
    )


def hopping_window_agg(
    events: Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window_s: int = 3600,
    hop_s: int = 900,
) -> Dataset:
    """(key, window_start, n_events, sum_value) per hopping/sliding window.

    Each event lands in every hop-aligned window covering it
    (``window_s / hop_s`` windows): membership is computed in integer µs
    (k ∈ [⌊(t−size)/hop⌋+1, ⌊t/hop⌋]) and the replication is one
    vectorized ``np.repeat`` — no per-row loop, no cross-row state — then
    the same two-phase grouped sum as tumbling. The expansion multiplies
    rows by size/hop BEFORE the combiner, but the partials stay one row
    per (key, window) per block, so the shuffle is no bigger than
    tumbling's at the same window granularity.
    """
    size_us = window_s * 1_000_000
    hop_us = hop_s * 1_000_000

    def assign(b: pa.Table) -> pa.Table:
        t_us = pc.cast(pc.cast(b[ts_col], pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        k_hi = t_us // hop_us
        k_lo = (t_us - size_us) // hop_us + 1
        counts = k_hi - k_lo + 1
        total = int(counts.sum())
        rows = np.repeat(np.arange(len(t_us)), counts)
        starts = np.zeros(len(t_us), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        k = np.repeat(k_lo, counts) + (np.arange(total) - np.repeat(starts, counts))
        idx = pa.array(rows, pa.int64())
        return pa.table(
            {
                key_col: pc.take(b[key_col], idx),
                "window_start": pa.array(k * hop_s, pa.int64()),
                value_col: pc.take(b[value_col], idx),
            }
        )

    assigned = events.map_batches(assign, batch_format="pyarrow")
    return partial_groupby_sum(
        assigned,
        [key_col, "window_start"],
        {value_col: "sum_value"},
        count_alias="n_events",
    )


def session_windows(
    events: Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap_s: int = 1800,
) -> Dataset:
    """(key, session_start, session_end, n_events) with gap-based sessions.

    Partition by key, sort by ts within the group, split where the gap
    exceeds ``gap_s`` — the documented ordering assumption: all of one key's
    events co-locate in its group (ray_guide streaming-shaped pattern).
    """

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col, kind="mergesort")
        # gap test at full µs precision; output floored to epoch seconds
        ts_us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        ts = ts_us // 1_000_000
        new_session = np.ones(len(g), dtype=bool)
        new_session[1:] = (ts_us[1:] - ts_us[:-1]) > gap_s * 1_000_000
        sid = np.cumsum(new_session)
        g = g.assign(__sid=sid, __ts_s=ts)
        out = (
            g.groupby("__sid")
            .agg(
                session_start=("__ts_s", "min"),
                session_end=("__ts_s", "max"),
                n_events=("__ts_s", "size"),
            )
            .reset_index(drop=True)
        )
        out.insert(0, key_col, g[key_col].iloc[0])
        return out

    return events.groupby(key_col).map_groups(sessions, batch_format="pandas")


def session_windows_chunked(
    events: Dataset,
    *,
    ts_col: str = "ts",
    key_col: str = "user_id",
    gap_s: int = 1800,
    chunk_s: int = 86400,
) -> Dataset:
    """Skew-safe sessionization, bit-identical to :func:`session_windows`.

    A whale key (one user carrying a large share of the events) makes the
    per-key ``map_groups`` a single giant task. Standard two-phase split,
    each phase one :func:`bucketed_groups` pass finished in Arrow:

    1. sessionize within ``(key, time-chunk)`` groups — chunk = epoch-µs
       floor-divided by ``chunk_s`` (must be ≥ ``gap_s``), so the whale's
       events spread over ``span/chunk_s`` groups; local sessions are
       maximal within their chunk and carry µs-precision bounds,
    2. merge per key over the SESSION summaries (3 ints each — bounded by
       session count, not event count): sorted by start, a session whose
       start is within ``gap_s`` of the previous end continues it (only
       chunk-boundary-adjacent sessions can merge, chained merges handle a
       session spanning many chunks).

    Output is floored to epoch seconds at the very end, like the plain
    version (µs precision is kept through BOTH phases — flooring before the
    merge would change gap decisions).
    """
    if chunk_s < gap_s:
        raise ValueError("chunk_s must be >= gap_s")
    gap_us = gap_s * 1_000_000

    def sessions(t: pa.Table, groups: list[str], lo: str, hi: str):
        # sorted by (groups, lo, hi): a session starts where the group
        # changes or the gap to the previous row's hi exceeds gap_us
        t = t.take(pc.sort_indices(
            t, sort_keys=[(c, "ascending") for c in (*groups, lo, hi)]))
        los, his = _int64(t[lo]), _int64(t[hi])
        new = run_starts(t, groups)
        new[1:] |= (los[1:] - his[:-1]) > gap_us
        starts, lens, _ = _runs(new)
        return t, los, his, starts, starts + lens - 1, lens

    def local_sessions(t: pa.Table) -> pa.Table:
        t, ts, _, st, en, lens = sessions(t, [key_col, "__chunk"], "ts_us", "ts_us")
        return pa.table({key_col: t[key_col].take(st),
                         "start_us": pa.array(ts[st], pa.int64()),
                         "end_us": pa.array(ts[en], pa.int64()),
                         "n_events": pa.array(lens, pa.int64())})

    def merge_sessions(t: pa.Table) -> pa.Table:
        # local sessions never overlap (chunk-disjoint), so within a key
        # the running max of end == the previous end in sorted order
        t, los, his, st, en, _ = sessions(t, [key_col], "start_us", "end_us")
        n = _int64(t["n_events"])
        return pa.table({key_col: t[key_col].take(st),
                         "session_start": pa.array(los[st] // 1_000_000, pa.int64()),
                         "session_end": pa.array(his[en] // 1_000_000, pa.int64()),
                         "n_events": pa.array(np.add.reduceat(n, st) if len(st)
                                              else n, pa.int64())})

    assigned = events.map_batches(
        lambda b: _with_chunk(b, ts_col, chunk_s, [key_col]), batch_format="pyarrow")
    local = bucketed_groups(assigned, [key_col, "__chunk"], local_sessions)
    return bucketed_groups(local, key_col, merge_sessions)


def sliding_time_sum(
    events: Dataset,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value_cents",
    window_s: int = 3600,
    chunk_s: int | None = None,
) -> Dataset:
    """Per-key sliding-window sum: for every event, the sum of ``value_col``
    over that key's events in ``[ts - window, ts]`` (RANGE semantics — all
    equal-ts peers included, so the result is order-free and, with integer
    values, bit-exact vs ``sum(v) OVER (PARTITION BY key ORDER BY ts RANGE
    BETWEEN INTERVAL w PRECEDING AND CURRENT ROW)``).

    Scale shape: ONE :func:`bucketed_groups` shuffle by time chunk
    (``chunk_s ≥ window_s``, so a window spans at most the previous chunk);
    each row is also replicated as a context-only copy into the NEXT chunk
    iff its timestamp lies within ``window_s`` of the boundary (bounded ≤2×
    replication, usually far less). Each bucket then answers the real rows
    of all its chunks with a sorted prefix-sum + per-(chunk, key)
    searchsorted — no per-row Python. A whale key spreads across time
    chunks, unlike a groupby(key) formulation.
    """
    if chunk_s is None:
        chunk_s = window_s
    if chunk_s < window_s:
        raise ValueError("chunk_s must be >= window_s (window spans ≤2 chunks)")
    w_us = window_s * 1_000_000
    c_us = chunk_s * 1_000_000

    def assign_chunk(b: pa.Table) -> pa.Table:
        base = _with_chunk(b, ts_col, chunk_s, [id_col, key_col, value_col])
        # context copy into the next chunk, only for rows near the boundary
        ts, chunk = _int64(base["ts_us"]), _int64(base["__chunk"])
        ctx = base.filter(pa.array(ts >= (chunk + 1) * c_us - w_us))
        ctx = ctx.set_column(ctx.schema.get_field_index("__chunk"), "__chunk",
                             pc.add(ctx["__chunk"], 1))
        return pa.concat_tables([
            base.append_column("__real", pa.array(np.ones(base.num_rows, bool))),
            ctx.append_column("__real", pa.array(np.zeros(ctx.num_rows, bool))),
        ])

    def answer(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("__chunk", "ascending"), (key_col, "ascending"), ("ts_us", "ascending")]))
        ts = _int64(t["ts_us"])
        csum = np.concatenate([[0], np.cumsum(_int64(t[value_col]))])
        # window [ts-w, ts]: lo = first row of the (chunk, key) segment
        # with ts >= ts_i - w; hi = past the last row with ts <= ts_i
        # (peers included)
        lo = np.empty(len(ts), np.int64)
        hi = np.empty(len(ts), np.int64)
        starts, lens, _ = _runs(run_starts(t, ["__chunk", key_col]))
        for s, e in zip(starts, starts + lens):
            seg = ts[s:e]
            lo[s:e] = s + np.searchsorted(seg, seg - w_us, side="left")
            hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        out = pa.table({id_col: t[id_col], key_col: t[key_col], "ts_us": t["ts_us"],
                        "w_sum": pa.array(csum[hi] - csum[lo], pa.int64()),
                        "w_n": pa.array(hi - lo, pa.int64())})
        return out.filter(t["__real"])

    return bucketed_groups(
        events.map_batches(assign_chunk, batch_format="pyarrow"), "__chunk", answer)


def running_total_per_key(
    events: Dataset,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value_c",
    chunk_s: int = 86400,
) -> Dataset:
    """Per-key cumulative running total: for every event, the sum of
    ``value_col`` over ALL of that key's events with ``ts' <= ts`` — SQL's
    ``sum(v) OVER (PARTITION BY key ORDER BY ts)`` with its default RANGE
    frame (equal-ts peers included), so the result is order-free and, with
    integer values, bit-exact vs the oracle.

    The unbounded-frame companion of :func:`sliding_time_sum`. An
    unbounded window cannot use bounded context replication, so the carry
    crosses time chunks as SUMMARIES instead (the asof-join carry
    discipline): batch-local per-(key, chunk) partial sums meet in one
    :func:`bucketed_groups` pass by key, which totals each chunk and gives
    it its carry-in offset (the exclusive prefix over the key's earlier
    chunks; rows = keys × chunks, never event-scale); one
    :func:`bucketed_cogroup` of events and offsets by (key, chunk) then
    computes the local RANGE prefix per bucket and adds the offset. A
    whale key spreads over its time chunks end to end.
    """
    kc = [key_col, "__chunk"]

    def totals(t: pa.Table, col: str) -> pa.Table:
        g = pa.TableGroupBy(t, kc, use_threads=False).aggregate([(col, "sum")])
        return pa.table({key_col: g[key_col], "__chunk": g["__chunk"],
                         "__tot": g[f"{col}_sum"]})

    def offsets(t: pa.Table) -> pa.Table:
        t = totals(t, "__tot")
        t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in kc]))
        tot = _int64(t["__tot"])
        cs = np.cumsum(tot) - tot
        starts, lens, _ = _runs(run_starts(t, [key_col]))
        return pa.table({key_col: t[key_col], "__chunk": t["__chunk"],
                         "__off": pa.array(cs - np.repeat(cs[starts], lens), pa.int64())})

    def local_prefix(ev: pa.Table, off: pa.Table) -> pa.Table:
        li, ri = _join_pairs(ev["__key"], off["__key"], "left")
        t = ev.take(li).append_column("__off", off["__off"].take(ri))
        t = t.take(pc.sort_indices(
            t, sort_keys=[("__key", "ascending"), ("ts_us", "ascending")]))
        v = _int64(t[value_col])
        cs = np.cumsum(v)
        starts, lens, _ = _runs(run_starts(t, ["__key"]))
        # RANGE peers: every row takes the cumsum at the LAST row of its
        # (segment, ts) run
        pst, plen, _ = _runs(run_starts(t, ["__key", "ts_us"]))
        run = (np.repeat(cs[pst + plen - 1], plen)
               - np.repeat(cs[starts] - v[starts], lens)
               + _int64(pc.fill_null(t["__off"], 0)))
        return pa.table({id_col: t[id_col], key_col: t[key_col], "ts_us": t["ts_us"],
                         value_col: t[value_col], "run": pa.array(run, pa.int64())})

    assigned = events.map_batches(
        lambda b: _with_chunk(b, ts_col, chunk_s, [id_col, key_col, value_col]),
        batch_format="pyarrow")
    offs = bucketed_groups(
        assigned.map_batches(lambda t: totals(t, value_col), batch_format="pyarrow"),
        key_col, offsets)
    return bucketed_cogroup([
        (assigned, kc, _event_schema(id_col, key_col, value_col), True),
        (offs, kc, pa.schema([("__off", pa.int64())]), True),
    ], local_prefix)


def lag_per_key(
    events: Dataset,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    value_col: str = "value_c",
    chunk_s: int = 86400,
    direction: str = "lag",
) -> Dataset:
    """Per-key LAG: for every event, the previous event's value under
    ``ORDER BY ts, id`` within the key (SQL ``lag(v) OVER (PARTITION BY
    key ORDER BY ts, id)``); the id tiebreak makes equal-ts order — and
    therefore the result — deterministic. Output ``prev`` is -1 for each
    key's first row (sentinel, dtype-stable like events_attribution).

    Chunked like :func:`running_total_per_key`, but the cross-chunk state
    is one BOUNDARY ROW per (key, chunk). Each batch keeps its (key,
    chunk)s' last (ts, id) rows, so the exchange is O(keys × chunks); one
    :func:`bucketed_groups` pass by key picks each chunk's last row among
    them and hands its value to the key's next nonempty chunk; one
    :func:`bucketed_cogroup` of events and carries by (key, chunk) gathers
    the carry (``-1`` where there is none) and runs the local lag. A whale
    key spreads over its time chunks end to end.

    ``direction="lead"`` flips every step (first boundary row per chunk,
    carry from the NEXT nonempty chunk, next-value local fold; output
    column ``next``) — SQL ``lead()`` under the same deterministic order.
    """
    assert direction in ("lag", "lead")
    lead = direction == "lead"
    out_name = "next" if lead else "prev"
    kc = [key_col, "__chunk"]
    order = [(c, "ascending") for c in (key_col, "__chunk", "ts_us", id_col)]

    def boundary_rows(t: pa.Table) -> pa.Table:
        # each (key, chunk)'s last (ts, id) row — its first for lead
        t = t.select([key_col, "__chunk", "ts_us", id_col, value_col])
        t = t.take(pc.sort_indices(t, sort_keys=order))
        first = run_starts(t, kc)
        return t.filter(pa.array(first if lead else _run_ends(first)))

    def carries(t: pa.Table) -> pa.Table:
        # a key's chunk boundary rows in chunk order: each chunk receives
        # its predecessor's value (its successor's for lead)
        b = boundary_rows(t)
        i = np.flatnonzero(~run_starts(b, [key_col])[1:])  # row i+1 same key
        dst, src = (i, i + 1) if lead else (i + 1, i)
        return pa.table({key_col: b[key_col].take(dst),
                         "__chunk": b["__chunk"].take(dst),
                         "__cv": b[value_col].take(src)})

    def local_lag(ev: pa.Table, car: pa.Table) -> pa.Table:
        li, ri = _join_pairs(ev["__key"], car["__key"], "left")
        t = ev.take(li).append_column("__cv", car["__cv"].take(ri))
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("__key", "ascending"), ("ts_us", "ascending"), (id_col, "ascending")]))
        v = _int64(t[value_col])
        nbr = np.empty(len(v), np.int64)
        first = run_starts(t, ["__key"])
        if lead:
            nbr[:-1] = v[1:]
            edge = _run_ends(first)  # last row of each segment
        else:
            nbr[1:] = v[:-1]
            edge = first
        # the segment edge takes the carry; -1 where the key has none
        carry = _int64(pc.fill_null(t["__cv"], -1))
        return pa.table({id_col: t[id_col], key_col: t[key_col], "ts_us": t["ts_us"],
                         value_col: t[value_col],
                         out_name: pa.array(np.where(edge, carry, nbr), pa.int64())})

    assigned = events.map_batches(
        lambda b: _with_chunk(b, ts_col, chunk_s, [id_col, key_col, value_col]),
        batch_format="pyarrow")
    cars = bucketed_groups(assigned.map_batches(boundary_rows, batch_format="pyarrow"),
                           key_col, carries)
    return bucketed_cogroup([
        (assigned, kc, _event_schema(id_col, key_col, value_col), False),
        (cars, kc, pa.schema([("__cv", pa.int64())]), True),
    ], local_lag)


def entity_timeline(
    ds: Dataset,
    *,
    entity_col: str = "surface",
    ts_col: str = "ts_us",
    weight_col: str | None = None,
    window_s: int = 86_400,
) -> Dataset:
    """Temporal bookkeeping per entity — first/last sighting, total
    mentions, and the number of DISTINCT tumbling windows the entity is
    active in (burst-vs-evergreen signal for KG curation; the reference
    tracks per-node updated_at bookkeeping on every re-ingest, this is the
    corpus-wide batch analog).

    One composite-key two-phase pass, no joins: batch combiner folds
    (entity, window) → (min, max, sum), the grouped reduce folds windows,
    then a second window-scale groupby folds per entity — so a whale
    entity exchanges O(blocks × its windows) rows, never its mention
    count, and the distinct-window count falls out of the first fold for
    free. Timestamps are int64 epoch µs throughout (NOTES.md: timestamp
    columns drift resolution across shuffle/pandas boundaries).

    Output: (entity, first_us, last_us, n_mentions, n_windows).
    """
    from ray.data.aggregate import Max, Min, Sum

    win_us = int(window_s) * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks() if isinstance(b[ts_col], pa.ChunkedArray) else b[ts_col]
        ts64 = pc.cast(ts, pa.int64())
        win = pc.divide(ts64, win_us)  # ts ≥ 0: trunc == floor division
        w = (pc.cast(b[weight_col], pa.int64()) if weight_col
             else pa.array(np.ones(b.num_rows, np.int64)))
        t = pa.table({entity_col: b[entity_col], "win": win,
                      "ts": ts64, "n": w})
        g = pa.TableGroupBy(t, [entity_col, "win"], use_threads=False).aggregate(
            [("ts", "min"), ("ts", "max"), ("n", "sum")])
        return pa.table({
            entity_col: g[entity_col], "win": g["win"],
            "mn": g["ts_min"], "mx": g["ts_max"],
            "n": pc.cast(g["n_sum"], pa.int64()),
        })

    per_window = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([entity_col, "win"])
        .aggregate(Min("mn", alias_name="mn"), Max("mx", alias_name="mx"),
                   Sum("n", alias_name="n"))
    )

    def fold(b: pa.Table) -> pa.Table:
        # batch combiner: per-entity partials (an entity's window rows can
        # straddle blocks after the shuffle, so a grouped reduce follows)
        g = pa.TableGroupBy(b, [entity_col], use_threads=False).aggregate(
            [("mn", "min"), ("mx", "max"), ("n", "sum"), ([], "count_all")])
        return pa.table({
            entity_col: g[entity_col],
            "first_us": g["mn_min"], "last_us": g["mx_max"],
            "n_mentions": pc.cast(g["n_sum"], pa.int64()),
            "n_windows": pc.cast(g["count_all"], pa.int64()),
        })

    return (
        per_window.map_batches(fold, batch_format="pyarrow")
        .groupby(entity_col)
        .aggregate(Min("first_us", alias_name="first_us"),
                   Max("last_us", alias_name="last_us"),
                   Sum("n_mentions", alias_name="n_mentions"),
                   Sum("n_windows", alias_name="n_windows"))
    )


def cohort_retention(
    ds: Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts_us",
    window_s: int = 7 * 86_400,
) -> Dataset:
    """Cohort retention matrix: users bucketed by FIRST-SEEN window, counted
    as active per (cohort, activity-window) — the classic retention
    triangle, distributed.

    Two-phase shape, no whale exposure: (key, window) pairs dedup in a
    batch combiner then ONE grouped min computes both each key's cohort
    (min window) and its distinct activity windows; a second combiner-first
    count folds (cohort, window) cells. The key→cohort attachment is a
    bucketed cogroup join (both sides key-scale — never a broadcast).
    Output: (cohort_win, win, n_active) int64 window indices (µs // window).
    """
    from ray.data.aggregate import Min

    win_us = int(window_s) * 1_000_000

    def pairs(b: pa.Table) -> pa.Table:
        t = pa.table({
            key_col: b[key_col],
            "win": pc.divide(pc.cast(b[ts_col], pa.int64()), win_us),
        })
        g = pa.TableGroupBy(t, [key_col, "win"], use_threads=False).aggregate([])
        return g

    from code_graph_rag_ray.stages.materialize import exact_dedup

    kw = exact_dedup(
        ds.map_batches(pairs, batch_format="pyarrow"),
        keys=[key_col, "win"], columns=[key_col, "win"],
    ).materialize()  # distinct (key, window); feeds both branches below
    cohorts = (
        kw.groupby(key_col).aggregate(Min("win", alias_name="cohort_win"))
    )
    joined = bucketed_join(
        kw, cohorts, on=key_col,
        left_schema=pa.schema([(key_col, pa.int64()), ("win", pa.int64())]),
        right_schema=pa.schema([(key_col, pa.int64()),
                                ("cohort_win", pa.int64())]),
    )
    return partial_groupby_sum(
        joined.select_columns(["cohort_win", "win"]),
        ["cohort_win", "win"], {}, count_alias="n_active",
    )


def transition_counts(
    events: Dataset,
    *,
    id_col: str = "event_id",
    ts_col: str = "ts",
    key_col: str = "user_id",
    type_col: str = "event_type",
    count_alias: str = "n_transitions",
    chunk_s: int = 86400,
) -> Dataset:
    """Per-key Markov transition matrix: counts of (previous type → type)
    over each key's event sequence under ``ORDER BY ts, id`` (SQL
    ``lag(type) OVER (PARTITION BY key ORDER BY ts, id)`` → group count).

    Bigram counting doesn't need a per-event LAG: counting commutes with
    chunking, so ONE (key, time-chunk) :func:`bucketed_groups` exchange
    co-locates each key-chunk's events, a vectorized Arrow pass per bucket
    emits the chunk-local (prev, next) counts PLUS one boundary row per
    (key, chunk) — its first and last type under the deterministic (ts,
    id) order — and a second, O(keys × chunks)-sized pass by key stitches
    consecutive nonempty chunks of the same key into the cross-chunk
    transitions. Counts fold through the two-phase grouped sum. Compare
    :func:`lag_per_key`: that design hands a carry row back to every event
    via a cogroup — a second O(events) exchange this query never needs
    (measured 19 s → ~4 s at sf0.1, 32 cpus).

    A whale key spreads over its time chunks end to end (same
    ``chunk_s`` contract as the other chunked window ops). NULL types
    are excluded up front — SQL's lag/GROUP BY would keep NULL rows;
    adjacency bridges across the dropped rows (the documented semantics;
    the oracle drops them inside its lagged CTE too).

    cgr analog: call-sequence edges — the reference links each call site
    to its predecessor in the function body (``call_processor``'s ordered
    call list); re-targeted as the event-stream bigram/transition counts
    a session-modeling pipeline needs.
    """

    def pair_counts(prev, nxt) -> pa.Table:
        g = pa.TableGroupBy(pa.table({"prev_type": prev, "next_type": nxt}),
                            ["prev_type", "next_type"], use_threads=False)
        g = g.aggregate([([], "count_all")])
        return pa.table({"prev_type": g["prev_type"], "next_type": g["next_type"],
                         "n": g["count_all"]})

    def prep(b: pa.Table) -> pa.Table:
        f = b.filter(pc.is_valid(b[type_col]))
        return _with_chunk(f, ts_col, chunk_s, [key_col, id_col, type_col])

    def local_bigrams(t: pa.Table) -> pa.Table:
        # one table, two row kinds with typed nulls (a union of differently
        # typed blocks fails at execution, NOTES facts 14/23): rows with
        # ``n`` are chunk-local counts, rows without are the per-(key,
        # chunk) boundary first/last types
        t = t.take(pc.sort_indices(t, sort_keys=[
            (c, "ascending") for c in (key_col, "__chunk", "ts_us", id_col)]))
        first = run_starts(t, [key_col, "__chunk"])
        typ = t[type_col]
        i = np.flatnonzero(~first[1:])  # row i+1 follows row i in its chunk
        cnt = pair_counts(typ.take(i), typ.take(i + 1))
        st, en = np.flatnonzero(first), np.flatnonzero(_run_ends(first))
        nc, nb, tt = cnt.num_rows, len(st), typ.type
        return pa.concat_tables([
            cnt.append_column(key_col, pa.nulls(nc, t[key_col].type))
               .append_column("__chunk", pa.nulls(nc, pa.int64()))
               .append_column("first_type", pa.nulls(nc, tt))
               .append_column("last_type", pa.nulls(nc, tt)),
            pa.table({"prev_type": pa.nulls(nb, tt), "next_type": pa.nulls(nb, tt),
                      "n": pa.nulls(nb, pa.int64()), key_col: t[key_col].take(st),
                      "__chunk": t["__chunk"].take(st),
                      "first_type": typ.take(st), "last_type": typ.take(en)}),
        ])

    def stitch(t: pa.Table) -> pa.Table:
        # consecutive NONEMPTY chunks of a key: last(type) → first(type)
        t = t.take(pc.sort_indices(
            t, sort_keys=[(key_col, "ascending"), ("__chunk", "ascending")]))
        i = np.flatnonzero(~run_starts(t, [key_col])[1:])
        return pair_counts(t["last_type"].take(i), t["first_type"].take(i + 1))

    # the ONLY O(events) exchange; its output is O(buckets × T² +
    # keys × chunks) — small — so materializing lets the two consumers
    # below split it without re-running the shuffle
    mixed = bucketed_groups(events.map_batches(prep, batch_format="pyarrow"),
                            [key_col, "__chunk"], local_bigrams).materialize()
    local_cnt = mixed.map_batches(
        lambda t: t.filter(pc.is_valid(t["n"])).select(["prev_type", "next_type", "n"]),
        batch_format="pyarrow")
    bounds = mixed.map_batches(
        lambda t: t.filter(pc.is_null(t["n"])).select(
            [key_col, "__chunk", "first_type", "last_type"]),
        batch_format="pyarrow")
    return partial_groupby_sum(
        local_cnt.union(bucketed_groups(bounds, key_col, stitch)),
        ["prev_type", "next_type"], {"n": count_alias},
    )


def strict_funnel(
    events: Dataset,
    steps: list[str],
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
) -> Dataset:
    """Strict-order funnel: how many keys performed step 1, then step 2
    STRICTLY after their first step 1, then step 3 strictly after that
    first step 2, … (SQL: chained ``min(ts) … WHERE ts > prev_step_ts``
    per key). Returns one row per step: (step, n_keys), step labelled
    ``<i>_<type>`` so the output orders by funnel position.

    Scale shape: rows not in the step set are dropped at the scan; ONE
    :func:`bucketed_groups` shuffle by key (never a per-key group, NOTES
    fact 25); inside each bucket every step is an Arrow grouped min of
    the step's rows that match (``_join_pairs``) and follow the previous
    step's first time; per-bucket partial counts fold through the
    two-phase grouped sum.
    """
    step_set = pa.array(steps, pa.string())
    labels = pa.array([f"{i + 1}_{st}" for i, st in enumerate(steps)], pa.string())

    def funnel(t: pa.Table) -> pa.Table:
        cur = None  # per-key time of the previous step's first occurrence
        n = []
        for st in steps:
            rows = t.filter(pc.equal(t[type_col], st))
            if cur is not None:
                li, ri = _join_pairs(rows[key_col], cur[key_col], "inner")
                rows = rows.take(li)
                rows = rows.filter(pc.greater(rows[ts_col], cur["__prev"].take(ri)))
            first = pa.TableGroupBy(rows, key_col, use_threads=False).aggregate(
                [(ts_col, "min")])
            n.append(first.num_rows)
            cur = pa.table({key_col: first[key_col], "__prev": first[f"{ts_col}_min"]})
        return pa.table({"step": labels, "n_p": pa.array(n, pa.int64())})

    parts = bucketed_groups(
        events.map_batches(
            lambda b: b.filter(pc.is_in(b[type_col], value_set=step_set))
                       .select([key_col, ts_col, type_col]),
            batch_format="pyarrow"),
        key_col, funnel)
    # constant zero seed per step: SQL's chained-CTE funnel always emits
    # one row per step even when NO step-type events exist; without it
    # this would return an empty dataset on that degenerate input
    seed = rd.from_arrow(pa.table(
        {"step": labels, "n_p": pa.array(np.zeros(len(steps)), pa.int64())}))
    return partial_groupby_sum(parts.union(seed), ["step"], {"n_p": "n_keys"})


def decayed_score(
    events: Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    now: str = "2024-01-31 00:00:00",
    half_life_s: int = 86400,
    scale: int = 10**6,
    max_shift: int = 62,
) -> Dataset:
    """Exponential time-decay scoring with EXACT integer arithmetic: each
    event contributes ``scale >> min(age // half_life, max_shift)`` —
    halving per elapsed half-life, quantized to whole half-lives so the
    whole fold is a BIGINT shift on both sides (a float exp() would
    diverge libm-by-libm). Events after ``now`` clamp to shift 0 (full
    weight). Returns (key, n_events, decayed) — the recency-weighted
    engagement score every feed/ranking pipeline keeps per user.

    Scale shape: stateless per-row contribution + ONE two-phase grouped
    sum — no window state, no sort; a whale user pre-reduces per block.

    cgr analog: the reference ranks retrieval candidates with a
    recency-weighted touch count on graph nodes (graph_updater.py
    last-seen bookkeeping); this is the streaming-aggregate form.
    """
    now_us = int(pd.Timestamp(now).value // 1000)
    hl_us = half_life_s * 10**6

    def contrib(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({key_col: pa.array([], b[key_col].type),
                             "one": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        ts = b[ts_col].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        shift = np.clip((now_us - ts) // hl_us, 0, max_shift).astype(np.int64)
        c = np.right_shift(np.int64(scale), shift)
        return pa.table(
            {key_col: b[key_col],
             "one": pa.array(np.ones(b.num_rows, np.int64)),
             "c": pa.array(c)}
        )

    return partial_groupby_sum(
        events.map_batches(contrib, batch_format="pyarrow"),
        [key_col], {"one": "n_events", "c": "decayed"},
    )
