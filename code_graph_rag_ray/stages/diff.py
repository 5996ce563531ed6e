"""Snapshot diff: classify rows between two table versions — the
change-data-capture primitive an incremental 100 TB ingest runs FIRST
(only `added ∪ changed` re-enter the pipeline; `removed` drives deletes).

The reference's change detection is per-file MD5 against a hash cache
(``graph_updater.py:129-211``); this is the distributed two-sided analog:
each side reduces to (key, fingerprint) — md5 over the compared columns,
so the verdict is content-determined and SQL-replayable — and ONE
bucketed pass over both sides classifies every key as
added / removed / changed (unchanged keys are dropped by default: at
corpus scale the interesting output is the delta, not the echo).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.functions.hashing import md5_hex_array
from code_graph_rag_ray.stages.relational import (
    _mapped,
    _runs,
    bucketed_groups,
    run_starts,
)


def _fingerprints(ds: Dataset, key: str, cols: list[str], side: int) -> Dataset:
    """(key, __fp, __side): the md5 of each row's compared columns, tagged
    with its snapshot (0 old, 1 new)."""

    def fp(b: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            *[pc.cast(b[c], pa.string()) for c in cols], "\x1f"
        )
        return pa.table({key: b[key], "__fp": md5_hex_array(joined),
                         "__side": pa.array(np.full(b.num_rows, side, np.int8))})

    return _mapped(ds, fp)


def snapshot_diff(
    old: Dataset,
    new: Dataset,
    *,
    key: str,
    compare_cols: list[str],
    keep_unchanged: bool = False,
) -> Dataset:
    """→ (key, status) with status ∈ added | removed | changed
    (| unchanged when ``keep_unchanged``).

    Both sides shrink to (key, md5-fingerprint) rows BEFORE the shuffle
    (the compared payload never crosses the exchange), then one
    ``bucketed_groups`` pass over their tagged union classifies every key
    in Arrow. Assumes ``key`` is unique and non-null per side (a snapshot
    primary key) and of one type on both sides, which it keeps;
    fingerprints are md5-of-joined-columns so DuckDB replays the exact
    verdicts.
    """

    def classify(t: pa.Table) -> pa.Table:
        # per key: its old row, then its new row
        t = t.take(pc.sort_indices(t, sort_keys=[(key, "ascending"),
                                                 ("__side", "ascending")]))
        starts, lens, _ = _runs(run_starts(t, [key]))
        side = t["__side"].to_numpy()[starts]
        same = pc.equal(t["__fp"].take(starts),
                        t["__fp"].take(np.minimum(starts + 1, t.num_rows - 1)))
        status = np.where(lens == 1, np.where(side == 0, "removed", "added"),
                          np.where(same.to_numpy(zero_copy_only=False),
                                   "unchanged", "changed"))
        out = pa.table({key: t[key].take(starts),
                        "status": pa.array(status.astype(object), pa.string())})
        if keep_unchanged:
            return out
        return out.filter(pc.not_equal(out["status"], "unchanged"))

    return bucketed_groups([_fingerprints(old, key, compare_cols, 0),
                            _fingerprints(new, key, compare_cols, 1)], key, classify)


def diff_materialized(a_dir: str, b_dir: str, *, on: list[str]) -> Dataset:
    """Checkpoint-level CDC: diff two `resume_materialize` output trees
    partition-by-partition, reading ONLY manifests + CHANGED partitions.

    Both trees must share the partitioner (same key, same partition
    count — asserted from the manifests): hash alignment is what makes
    the per-partition diff exact, since a given row can only ever live in
    the same ``part=K`` on both sides. Unchanged partitions are pruned on
    manifest digest equality alone (`state/lineage.py partition_digests`)
    — no data read, no shuffle anywhere; each changed partition is one
    task doing two local reads and two vectorized anti-filters. The
    production shape for "what changed between corpus snapshot N and
    N+1" once both snapshots are checkpointed (the streaming twin,
    `pipelines/catalog.py kg_edge_diff`, rebuilds both sides instead).
    """
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from code_graph_rag_ray.state.lineage import (
        parquet_files,
        partition_digests,
        read_manifest,
    )

    da, db = partition_digests(a_dir), partition_digests(b_dir)
    ma, mb = read_manifest(a_dir), read_manifest(b_dir)
    if set(ma["partitions"]) != set(mb["partitions"]):
        raise ValueError(
            f"partitioner mismatch: {len(ma['partitions'])} vs "
            f"{len(mb['partitions'])} partitions — diff_materialized "
            "requires both trees written with the same key and "
            "num_partitions"
        )
    changed = sorted(p for p in set(da) | set(db) if da.get(p) != db.get(p))
    out_schema = pa.schema([(c, pa.string()) for c in on]
                           + [("change", pa.string())])
    if not changed:
        return rd.from_arrow(out_schema.empty_table())

    def read_part(root: str, part: str) -> pa.Table:
        tabs = [pq.read_table(f, columns=on)
                for f in parquet_files(os.path.join(root, part))]
        if not tabs:
            return pa.schema([(c, pa.string()) for c in on]).empty_table()
        t = pa.concat_tables(tabs)
        return pa.table({c: pc.cast(t[c], pa.string()) for c in on})

    def mint(t: pa.Table):
        cols = [pc.fill_null(t[c], "\x00null") for c in on]
        return cols[0] if len(cols) == 1 else pc.binary_join_element_wise(
            *cols, "\x1f")

    def diff_part(b: pa.Table) -> pa.Table:
        outs = [out_schema.empty_table()]
        for part in b["partname"].to_pylist():
            ta, tb = read_part(a_dir, part), read_part(b_dir, part)
            ka, kb = mint(ta), mint(tb)
            add = tb.filter(pc.invert(pc.is_in(kb, value_set=pc.unique(ka)))) \
                if tb.num_rows else tb
            rem = ta.filter(pc.invert(pc.is_in(ka, value_set=pc.unique(kb)))) \
                if ta.num_rows else ta
            for t, label in ((add, "added"), (rem, "removed")):
                outs.append(t.append_column(
                    "change", pa.array([label] * t.num_rows, pa.string())))
        return pa.concat_tables(outs)

    return rd.from_items(
        [{"partname": p} for p in changed], override_num_blocks=len(changed)
    ).map_batches(diff_part, batch_format="pyarrow", batch_size=None)


def scd2_history(
    ds: Dataset,
    *,
    key: str,
    order_by: str,
    state_cols: list[str],
    tiebreak: str | None = None,
) -> Dataset:
    """Slowly-changing-dimension (type 2) history assembly: collapse a
    per-key observation stream into validity intervals — one row per RUN of
    consecutive identical states, carrying ``valid_from`` (first order_by
    of the run) and ``valid_to`` (next run's valid_from; NULL while
    current). The companion of :func:`snapshot_diff`: diff compares two
    snapshots, this folds the full observation history into the
    change-data-capture table a warehouse would keep.

    One ``bucketed_groups`` pass: each bucket sorts its rows by (key,
    order_by, tiebreak) once, and a run of consecutive equal states (nulls
    equal) is one interval, in Arrow — a key's history sorts and scans in
    one task (histories are version-bounded; a key hot enough to overflow
    a worker should be windowed upstream). ``tiebreak`` makes
    equal-``order_by`` observations deterministic, which the oracle
    (lag/lead window functions) requires. ``order_by`` must be int64
    (epoch µs); ``valid_from`` and ``valid_to`` are int64 (``valid_to``
    null on the current interval) and the state columns keep their types.
    """
    by = [key, order_by] + ([tiebreak] if tiebreak else [])

    def fold(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in by]))
        starts, lens, _ = _runs(run_starts(t, [key, *state_cols]))
        opens_key = run_starts(t, [key])[starts]
        frm = pc.cast(t[order_by], pa.int64()).to_numpy()[starts]
        return pa.table({
            key: t[key].take(starts),
            **{c: t[c].take(starts) for c in state_cols},
            "valid_from": pa.array(frm, pa.int64()),
            # the next interval's start; null where the next interval opens
            # another key (the table's first row always opens one)
            "valid_to": pa.array(np.roll(frm, -1), pa.int64(),
                                 mask=np.roll(opens_key, -1)),
            "n_obs": pa.array(lens, pa.int64()),
        })

    return bucketed_groups(ds, key, fold)
