"""Snapshot diff: classify rows between two table versions — the
change-data-capture primitive an incremental 100 TB ingest runs FIRST
(only `added ∪ changed` re-enter the pipeline; `removed` drives deletes).

The reference's change detection is per-file MD5 against a hash cache
(``graph_updater.py:129-211``); this is the distributed two-sided analog:
each side reduces to (key, fingerprint) — md5 over the compared columns,
so the verdict is content-determined and SQL-replayable — and ONE
full-outer bucketed cogroup join classifies every key as
added / removed / changed (unchanged keys are dropped by default: at
corpus scale the interesting output is the delta, not the echo).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.functions.hashing import md5_hex_array


def _fingerprints(ds: Dataset, key: str, cols: list[str]) -> Dataset:
    def fp(b: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            *[pc.cast(b[c], pa.string()) for c in cols], "\x1f"
        )
        return pa.table({key: b[key], "__fp": md5_hex_array(joined)})

    return ds.map_batches(fp, batch_format="pyarrow")


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
    full-outer bucketed join classifies per key. Assumes ``key`` is
    unique per side (a snapshot primary key); fingerprints are
    md5-of-joined-columns so DuckDB replays the exact verdicts.
    """
    from code_graph_rag_ray.stages.relational import bucketed_join

    o = _fingerprints(old, key, compare_cols)
    n = _fingerprints(new, key, compare_cols).map_batches(
        lambda b: pa.table({"__nk": b[key], "__nfp": b["__fp"]}),
        batch_format="pyarrow",
    )
    j = bucketed_join(
        o, n, on=key, right_on="__nk", how="outer",
        left_schema=pa.schema([(key, pa.int64()), ("__fp", pa.string())]),
        right_schema=pa.schema([("__nk", pa.int64()), ("__nfp", pa.string())]),
    )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        has_old = df["__fp"].notna()
        has_new = df["__nfp"].notna()
        status = pd.Series("unchanged", index=df.index, dtype="object")
        status[~has_old & has_new] = "added"
        status[has_old & ~has_new] = "removed"
        status[has_old & has_new & (df["__fp"] != df["__nfp"])] = "changed"
        k = df[key].astype("Int64").fillna(df["__nk"].astype("Int64"))
        out = pd.DataFrame({key: k.astype("int64"), "status": status})
        if not keep_unchanged:
            out = out[out["status"] != "unchanged"]
        return out.reset_index(drop=True)

    return j.map_batches(classify, batch_format="pandas")


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

    Distributed as a per-key ``map_groups`` — one key's history sorts and
    scans in one task (histories are version-bounded; a key hot enough to
    overflow a worker should be windowed upstream). ``tiebreak`` makes
    equal-``order_by`` observations deterministic, which the oracle
    (lag/lead window functions) requires. ``order_by`` must be int64
    (epoch µs — NOTES.md: timestamps drift resolution across pandas
    boundaries); ``valid_to`` is nullable Int64 for the same reason.
    """
    import numpy as np
    import pandas as pd

    by = [order_by] + ([tiebreak] if tiebreak else [])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by, kind="mergesort")
        st = g[state_cols].reset_index(drop=True)
        chg = np.ones(len(g), bool)
        if len(g) > 1:
            same = np.ones(len(g) - 1, bool)
            for c in state_cols:
                a = st[c].to_numpy()
                same &= (a[1:] == a[:-1]) | (pd.isna(a[1:]) & pd.isna(a[:-1]))
            chg[1:] = ~same
        starts = np.flatnonzero(chg)
        frm = g[order_by].to_numpy()[starts]
        out = pd.DataFrame({
            key: np.repeat(g[key].iloc[0], len(starts)),
            **{c: st[c].to_numpy()[starts] for c in state_cols},
            "valid_from": frm.astype(np.int64),
        })
        nxt = np.empty(len(starts), object)
        nxt[:-1] = frm[1:]
        nxt[-1] = None
        out["valid_to"] = pd.array(nxt, dtype="Int64")
        out["n_obs"] = np.diff(np.append(starts, len(g))).astype(np.int64)
        return out

    return ds.groupby(key).map_groups(fold, batch_format="pandas")
