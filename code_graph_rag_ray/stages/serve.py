"""Point-query serve path over the materialized, hash-partitioned edge
store — the batch engine's answer to the reference's graph query surface
(``graph_service.py`` lookups: a function's callers/callees, a node's
neighbors), without a graph database.

``materialize_graph`` and ``resume_materialize`` both write through
``materialize.write_sorted_partitions``: edges partitioned by
``stable_hash(subj) % P``, one sorted file ``part=K/data.parquet`` per
non-empty partition; that layout IS the index. A subject lookup computes
the single partition that can contain the key and reads ONLY its files —
O(store/P) bytes touched instead of a full scan — then applies exact
Arrow filters. Object-side lookups have no clustered index (the store is
subject-partitioned, like any table with one clustering key): they scan
every partition file, kept explicit in the API so callers see the
asymmetry.

Reads go straight to ``pq.ParquetFile(f).read(columns=…,
use_threads=False)`` per file, filtered per file before one
``concat_tables``. A ``pyarrow.dataset`` scan of the same partition pays
discovery, fragment and scanner setup on every call (NOTES fact 40: about
2.7 ms against 1.2 ms per partition read), and a thread pool only adds
hand-off cost on a partition this size. Serving stays in plain pyarrow
(no Ray session needed) because one partition of one key range is
dictionary-scale by construction.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from code_graph_rag_ray.functions.hashing import partition_ids
from code_graph_rag_ray.state.lineage import parquet_files, read_manifest


def partition_of(value: str, num_partitions: int) -> int:
    """The one hash partition a key can live in (same function the writer
    used — keep in lockstep with materialize.add_partition_column)."""
    return int(partition_ids(pa.array([value], pa.string()), num_partitions)[0])


def _read_files(files: list[str], columns: list[str] | None,
                match: dict[str, str]) -> pa.Table:
    """Rows of ``files`` whose columns equal ``match``, each file read
    whole on this thread and filtered before the one concat."""
    need = None if columns is None else columns + [c for c in match if c not in columns]
    out = []
    for f in files:
        with pq.ParquetFile(f) as pf:
            t = pf.read(columns=need, use_threads=False)
        mask = None
        for c, v in match.items():
            eq = pc.equal(t[c], v)
            mask = eq if mask is None else pc.and_(mask, eq)
        out.append(t if mask is None else t.filter(mask))
    t = pa.concat_tables(out, promote_options="permissive")
    return t if columns is None else t.select(columns)


def _empty(store_dir: str, columns: list[str] | None) -> pa.Table:
    """An empty result typed by the store's schema, read from the first
    partition file's footer (a store with no file at all has none)."""
    files = parquet_files(store_dir)
    if not files:
        return pa.table({})
    schema = pq.read_schema(files[0])
    return schema.empty_table() if columns is None else pa.schema(
        [schema.field(c) for c in columns]).empty_table()


def query_edges(
    store_dir: str,
    *,
    subj: str | None = None,
    pred: str | None = None,
    obj: str | None = None,
    num_partitions: int = 16,
    columns: list[str] | None = None,
) -> pa.Table:
    """Edges matching the given pattern, with ``columns`` (default all) in
    the given order. ``subj`` given → partition-pruned read (the fast
    path); otherwise a full predicate scan. A partition with no rows gives
    an empty table of the store's schema.

    ``num_partitions`` must be the count the store was written with: when
    the store has a manifest, a subject lookup with another count raises
    ``ValueError`` instead of reading the wrong partition."""
    if not os.path.isdir(store_dir):
        raise FileNotFoundError(f"no materialized store at {store_dir!r}")
    match = {c: v for c, v in (("subj", subj), ("pred", pred), ("obj", obj))
             if v is not None}
    if subj is None:
        files = parquet_files(store_dir)
    else:
        parts = (read_manifest(store_dir) or {}).get("partitions")
        if parts is not None and len(parts) != num_partitions:
            raise ValueError(
                f"{store_dir} was written with {len(parts)} partitions, "
                f"not num_partitions={num_partitions}")
        part = partition_of(subj, num_partitions)
        files = parquet_files(os.path.join(store_dir, f"part={part}"))
    if not files:
        return _empty(store_dir, columns)
    return _read_files(files, columns, match)


def neighbors(store_dir: str, entity: str, *, num_partitions: int = 16) -> dict:
    """Both edge directions for one entity: ``out`` via the pruned subject
    read, ``in`` via the full predicate scan (no object index — the
    reference pays the same asymmetry in reverse with its Cypher indexes).
    """
    return {
        "out": query_edges(store_dir, subj=entity, num_partitions=num_partitions),
        "in": query_edges(store_dir, obj=entity, num_partitions=num_partitions),
    }
