"""Point-query serve path over the materialized, hash-partitioned edge
store — the batch engine's answer to the reference's graph query surface
(``graph_service.py`` lookups: a function's callers/callees, a node's
neighbors), without a graph database.

``materialize_graph`` and ``resume_materialize`` both write through
``materialize.write_sorted_partitions``: edges hive-partitioned by
``stable_hash(subj) % P``, each partition sorted in Arrow; that layout IS
the index. A subject lookup computes the single partition that can contain
the key and reads ONLY that directory — O(store/P) bytes touched instead
of a full scan — then applies exact Arrow filters. Object-side lookups
have no clustered index (the store is subject-partitioned, like any table
with one clustering key): they run a parquet-predicate full scan, kept
explicit in the API so callers see the asymmetry. Serving stays in plain
pyarrow (no Ray session needed) because one partition of one key range is
dictionary-scale by construction.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from code_graph_rag_ray.functions.hashing import partition_ids


def partition_of(value: str, num_partitions: int) -> int:
    """The one hash partition a key can live in (same function the writer
    used — keep in lockstep with materialize.add_partition_column)."""
    return int(partition_ids(pa.array([value], pa.string()), num_partitions)[0])


def _read_dir(path: str, columns=None) -> pa.Table:
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet").to_table(columns=columns)


def query_edges(
    store_dir: str,
    *,
    subj: str | None = None,
    pred: str | None = None,
    obj: str | None = None,
    num_partitions: int = 16,
    columns: list[str] | None = None,
) -> pa.Table:
    """Edges matching the given pattern. ``subj`` given → partition-pruned
    read (the fast path); otherwise a full predicate scan."""
    import os

    if subj is not None:
        part = partition_of(subj, num_partitions)
        path = os.path.join(store_dir, f"part={part}")
        t = _read_dir(path, columns=columns)
        t = t.filter(pc.equal(t["subj"], subj))
    else:
        t = _read_dir(store_dir, columns=columns)
    if pred is not None:
        t = t.filter(pc.equal(t["pred"], pred))
    if obj is not None:
        t = t.filter(pc.equal(t["obj"], obj))
    return t


def neighbors(store_dir: str, entity: str, *, num_partitions: int = 16) -> dict:
    """Both edge directions for one entity: ``out`` via the pruned subject
    read, ``in`` via the full predicate scan (no object index — the
    reference pays the same asymmetry in reverse with its Cypher indexes).
    """
    return {
        "out": query_edges(store_dir, subj=entity, num_partitions=num_partitions),
        "in": query_edges(store_dir, obj=entity, num_partitions=num_partitions),
    }
