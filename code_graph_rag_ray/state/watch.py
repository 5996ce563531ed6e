"""Watch-mode debounce policy (§2.8 analog of ``realtime_updater.py:88-163``).

The reference's watcher coalesces file events per path with a quiet-period
timer plus a max-wait override: an event (re)starts the quiet timer; when
``quiet_s`` elapses with no new event the path is processed (all pending
events coalesced, last-event-wins); a path receiving a continuous event
stream is force-processed ``max_wait_s`` after its FIRST pending event so
a chatty path can't starve forever.

Batch translation: this is incremental-recompute scheduling, not stream
processing (SURVEY.md §2.8) — given an event log, compute WHEN each path
would have been processed and how many events each processing coalesced.
One ``relational.bucketed_groups`` pass: each bucket sorts its events by
(path, ts) once in Arrow and runs the sequential :func:`_debounce_one`
walk over every path's run; per-path event counts bound that walk.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset


def _debounce_one(ts: list[int], quiet_s: int, max_wait_s: int):
    """Sequential debounce over one path's sorted event times (int64 s).

    Returns rows (process_ts, n_events, forced). ``forced`` marks firings
    driven by the max-wait override rather than quiet-period expiry.
    """
    out = []
    pending_start: int | None = None
    last: int | None = None
    n = 0
    for t in ts:
        if pending_start is None:
            pending_start, last, n = t, t, 1
            continue
        fire_quiet = last + quiet_s
        fire_force = pending_start + max_wait_s
        fire = min(fire_quiet, fire_force)
        if t >= fire:
            out.append((fire, n, fire_force < fire_quiet))
            pending_start, last, n = t, t, 1
        else:
            last, n = t, n + 1
    if pending_start is not None:
        fire_quiet = last + quiet_s
        fire_force = pending_start + max_wait_s
        fire = min(fire_quiet, fire_force)
        out.append((fire, n, fire_force < fire_quiet))
    return out


def debounce_events(
    events: Dataset,
    *,
    quiet_s: int,
    max_wait_s: int,
    path_col: str = "path",
    ts_col: str = "ts",
) -> Dataset:
    """events(path, ts) → (path, process_ts, n_events, forced).

    Timestamps are handled as int64 epoch seconds (a timestamp column is
    floored to whole seconds, whatever its unit).
    """
    from code_graph_rag_ray.stages.relational import _runs, bucketed_groups, run_starts

    def per_path(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_col], pa.int64()).to_numpy()
        if pa.types.is_timestamp(t[ts_col].type):
            # floor, not the cast's truncation toward zero (pre-1970 ticks)
            ts = ts // {"s": 1, "ms": 10**3, "us": 10**6,
                        "ns": 10**9}[t[ts_col].type.unit]
        t = pa.table({path_col: t[path_col], "ts": pa.array(ts, pa.int64())})
        t = t.take(pc.sort_indices(t, sort_keys=[(path_col, "ascending"),
                                                 ("ts", "ascending")]))
        starts, lens, _ = _runs(run_starts(t, [path_col]))
        vals = t["ts"].to_numpy()
        rows, fired = [], []
        for s, n in zip(starts.tolist(), lens.tolist()):
            out = _debounce_one(vals[s:s + n].tolist(), quiet_s, max_wait_s)
            rows += [s] * len(out)
            fired += out
        return pa.table({
            path_col: t[path_col].take(pa.array(rows, pa.int64())),
            "process_ts": pa.array([f[0] for f in fired], pa.int64()),
            "n_events": pa.array([f[1] for f in fired], pa.int64()),
            "forced": pa.array([f[2] for f in fired], pa.bool_()),
        })

    return bucketed_groups(events, path_col, per_path)
