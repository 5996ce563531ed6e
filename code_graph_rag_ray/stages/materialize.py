"""Exact dedup + partitioned, sorted graph materialization (A1/A2 analog).

The reference's MERGE semantics (``services/graph_service.py:452-546``: node
upsert by per-label unique key, edge dedup by endpoint pattern + merge-key
signature) become explicit dataset operators here:

- :func:`exact_dedup` — two-phase: a vectorized WITHIN-BATCH Arrow dedup
  first (combiner; shrinks the exchange by the local duplication factor),
  then one groupby shuffle on the key with a deterministic per-group pick
  (sorted by the full key, first row wins — order-free determinism, the
  SURVEY.md §7 "tie-breaks must not depend on arrival order" rule).
- :func:`materialize_graph` — adds ``part = stable_hash(subj) % P`` and
  writes each hash partition as ONE sorted parquet file,
  ``part=K/data.parquet`` (resumable layout) — the north-star final stage.
  The task that writes a partition also returns its row count and content
  digest, so the manifest and the checkpoint diff never re-read the data.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.functions.hashing import partition_ids


def dedup_batch_local(batch: pa.Table, keys: list[str]) -> pa.Table:
    """Drop exact-key duplicates inside one Arrow batch (vectorized)."""
    if batch.num_rows == 0:
        return batch
    # stable: first occurrence per key wins within the batch
    idx = pa.table(
        {**{k: batch[k] for k in keys}, "__i": pa.array(range(batch.num_rows), pa.int64())}
    )
    first = idx.group_by(keys, use_threads=False).aggregate([("__i", "min")])
    take = pc.sort_indices(first["__i_min"])
    return batch.take(pc.take(first["__i_min"], take))


def exact_dedup(
    ds: Dataset,
    keys: list[str],
    sort_cols: list[str] | None = None,
    columns: list[str] | None = None,
) -> Dataset:
    """MERGE-equivalent exact dedup on ``keys``; deterministic winner.

    Two-phase and fully vectorized: batch-local Arrow dedup (combiner), then
    ONE groupby shuffle where every non-key column is reduced with Min —
    content-determined, never arrival-order-determined. Column-independent
    Min matches cgr's MERGE property semantics (props merged per key, not
    row-atomic, ``graph_service.py:395-428``); use
    :func:`exact_dedup_rows` when whole-row integrity matters.

    ``sort_cols`` is accepted for API compatibility (the deterministic
    winner is the per-column minimum regardless).

    Pass ``columns`` (the full output column list) whenever ``ds`` has an
    all-to-all upstream (groupby/sort): without it the driver-side
    ``ds.schema()`` probe executes the whole upstream plan once just for
    the names (limit-1 only truncates post-sort stages), doubling the cost
    AND exercising the limit-cancellation path that crashes Ray 2.49's
    reference counter (NOTES.md fact 22).
    """
    from ray.data.aggregate import Min

    del sort_cols
    if columns is None:
        s = ds.schema(fetch_if_missing=False)  # free when the plan knows it
        columns = list((s if s is not None else ds.schema()).names)
    other = [c for c in columns if c not in keys]

    def partial_min(b: pa.Table) -> pa.Table:
        # batch-local combiner with the SAME per-column-min semantics as the
        # global phase — never first-row-wins, which would reintroduce
        # arrival-order dependence
        if b.num_rows == 0:
            return b
        if not other:
            return dedup_batch_local(b, keys)
        t = pa.TableGroupBy(b, keys, use_threads=False).aggregate(
            [(c, "min") for c in other]
        )
        rename = {f"{c}_min": c for c in other}
        return t.rename_columns([rename.get(n, n) for n in t.column_names]).select(
            keys + other
        )

    local = ds.map_batches(partial_min, batch_format="pyarrow")
    # right-size blocks for the sort shuffle: too-few fat blocks serialize
    # the sort, too-many slivers drown it in task overhead (measured on the
    # 800k-triple bench: 18s unpartitioned → 12s at ncpus blocks)
    try:
        import ray

        ncpu = int(ray.cluster_resources().get("CPU", 8))
        local = local.repartition(max(8, ncpu))
    except Exception:  # pragma: no cover - no cluster yet
        pass
    if not other:
        # pure key rows: distinct via count + drop
        from ray.data.aggregate import Count

        return local.groupby(keys).aggregate(Count(alias_name="__n")).drop_columns(["__n"])
    return local.groupby(keys).aggregate(*[Min(c, alias_name=c) for c in other])


def exact_dedup_rows(ds: Dataset, keys: list[str], sort_cols: list[str] | None = None) -> Dataset:
    """Row-atomic exact dedup: the surviving row is one original row, the
    first of its key under ``sort_cols`` (default: all columns). The same
    vectorized sort + first-of-key-run pick runs batch-local (combiner)
    and once per ``relational.bucketed_groups`` bucket, so the survivor
    is content-determined end to end."""
    from code_graph_rag_ray.stages.relational import bucketed_groups, run_starts

    def first_rows(b: pa.Table) -> pa.Table:
        cols = keys + [c for c in (sort_cols or b.column_names) if c not in keys]
        t = b.take(pc.sort_indices(b, sort_keys=[(c, "ascending") for c in cols]))
        return t.filter(pa.array(run_starts(t, keys)))

    return bucketed_groups(ds.map_batches(first_rows, batch_format="pyarrow"),
                           keys, first_rows)


def add_partition_column(ds: Dataset, key: str, num_partitions: int, col: str = "part") -> Dataset:
    def add(b: pa.Table) -> pa.Table:
        return b.append_column(col, pa.array(partition_ids(b[key], num_partitions), pa.int32()))

    return ds.map_batches(add, batch_format="pyarrow")


def write_sorted_partitions(parted: Dataset, out_dir: str,
                            sort_by: list[str]) -> dict[str, tuple[int, str]]:
    """Write each ``part`` group of ``parted`` as one parquet file,
    ``out_dir/part=K/data.parquet``, sorted by ``sort_by`` in Arrow so
    column types reach the file unchanged (``part`` itself lives only in
    the directory name).

    The writing task lands the file through a hidden tmp name and
    ``os.replace``, so a retried task overwrites its partition's file
    instead of adding a second one, and it digests the table it just
    wrote (``state.lineage._digest_table``, cast to the file's own schema
    so the digest equals a read-back's). Returns ``{"part=K": (rows,
    digest)}`` for every partition written. The partition groupby is the
    only all-to-all."""
    order = [(c, "ascending") for c in sort_by]

    def write_part(t: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from code_graph_rag_ray.state.lineage import _digest_table

        part = t["part"][0].as_py()
        t = t.drop_columns(["part"])
        t = t.take(pc.sort_indices(t, sort_keys=order))
        pdir = os.path.join(out_dir, f"part={part}")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, f".data.parquet.{uuid.uuid4().hex}.tmp")
        pq.write_table(t, tmp)
        digest = _digest_table(t.cast(pq.read_schema(tmp)))
        os.replace(tmp, os.path.join(pdir, "data.parquet"))
        return pa.table({"part": pa.array([part], pa.int32()),
                         "rows": pa.array([t.num_rows], pa.int64()),
                         "digest": pa.array([digest], pa.string())})

    written = parted.groupby("part").map_groups(write_part, batch_format="pyarrow")
    return {f"part={r['part']}": (r["rows"], r["digest"]) for r in written.take_all()}


def materialize_graph(
    ds: Dataset,
    out_dir: str,
    *,
    key: str,
    sort_by: list[str],
    num_partitions: int = 16,
) -> None:
    """Write ``ds`` hive-partitioned by ``stable_hash(key) % num_partitions``,
    sorted by ``sort_by`` within each partition.

    One directory and one file per non-empty hash partition
    (``part=K/data.parquet``) → a failed run skips finished partitions on
    resume; never one giant file.
    """
    write_sorted_partitions(add_partition_column(ds, key, num_partitions),
                            out_dir, sort_by)
