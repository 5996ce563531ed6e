"""Per-stage / per-partition lineage records and resume-from-checkpoint.

The reference's resumability is a hash-cache + dir-mtimes + parser
fingerprint manifest plus graph rehydration (``graph_updater.py:129-211,
1049-1225, 1633-1812``), with the hard-won invariant that an incremental run
must equal a clean rebuild (issue #532, ``evals/README.md:133-175``).

Ray-native translation (SURVEY.md §4 "Resume"): every checkpointed stage
writes immutable parquet under its own directory plus a ``_MANIFEST.json``
recording row count, per-file rows, an input fingerprint and status. Resume
= if a stage's manifest is complete AND the fingerprint matches, read the
parquet back instead of recomputing — re-derive, never mutate. A fingerprint
mismatch invalidates the checkpoint (the analog of cgr's parser-fingerprint
stamp invalidating its hash cache).
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ray.data import Dataset

MANIFEST = "_MANIFEST.json"


def _manifest_path(stage_dir: str) -> str:
    return os.path.join(stage_dir, MANIFEST)


def read_manifest(stage_dir: str) -> dict | None:
    p = _manifest_path(stage_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def _write_manifest(stage_dir: str, manifest: dict) -> None:
    """Replace ``_MANIFEST.json`` atomically: a failure mid-dump leaves the
    previous manifest in place, never a truncated one."""
    p = _manifest_path(stage_dir)
    with open(p + ".tmp", "w") as f:
        json.dump(manifest, f, indent=1)
    os.rename(p + ".tmp", p)


class Checkpointer:
    """Stage-granular checkpoint/resume over a root directory.

    ``stage(name, build)`` returns the stage's Dataset, either freshly built
    and persisted (atomically: data lands in ``.tmp`` then renamed) or read
    back from a completed checkpoint. ``resumed`` records which stages were
    skipped — the incremental-equivalence test asserts resumed == clean.
    """

    def __init__(self, root: str, fingerprint: str = ""):
        self.root = root
        self.fingerprint = fingerprint
        self.resumed: list[str] = []
        self.built: list[str] = []
        os.makedirs(root, exist_ok=True)

    def stage_dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def stage(self, name: str, build: Callable[[], Dataset]) -> Dataset:
        import ray.data as rd

        sdir = self.stage_dir(name)
        data_dir = os.path.join(sdir, "data")
        m = read_manifest(sdir)
        if m and m.get("status") == "complete" and m.get("fingerprint") == self.fingerprint:
            self.resumed.append(name)
            return rd.read_parquet(data_dir)

        # (re)build: clear any partial output, write atomically
        import time

        shutil.rmtree(sdir, ignore_errors=True)
        os.makedirs(sdir, exist_ok=True)
        tmp = os.path.join(sdir, ".tmp")
        t0 = time.perf_counter()
        ds = build()
        ds.write_parquet(tmp)
        wall_s = round(time.perf_counter() - t0, 3)
        os.rename(tmp, data_dir)

        files = sorted(
            f for f in os.listdir(data_dir) if f.endswith(".parquet")
        )
        import pyarrow.parquet as pq

        per_file = {f: pq.read_metadata(os.path.join(data_dir, f)).num_rows for f in files}
        manifest = {
            "stage": name,
            "status": "complete",
            "fingerprint": self.fingerprint,
            "rows": int(sum(per_file.values())),
            "files": per_file,
            # per-stage metrics (north-rule "lineage records AND metrics"):
            # build+write wall time; rows above give the throughput
            "wall_s": wall_s,
        }
        _write_manifest(sdir, manifest)
        self.built.append(name)
        return rd.read_parquet(data_dir)


def resume_materialize(
    ds,
    out_dir: str,
    *,
    key: str,
    sort_by: list[str],
    num_partitions: int = 16,
) -> dict:
    """Partition-level resumable materialize (north-star lineage semantics).

    Layout: one hive directory per hash partition (``part=K/``) plus a
    manifest of completed partitions and their digests. On rerun:

    1. partitions listed complete in the manifest are SKIPPED — their rows
       are filtered out before the shuffle, so finished work costs nothing,
    2. partition dirs NOT in the manifest (a crash mid-write) are deleted
       before rewriting — no double-counted partial files,
    3. the manifest is rewritten only after the new partitions land
       (re-derive, never mutate — cgr's incremental==clean invariant,
       ``evals/README.md:133-175``). It records the rows and digests the
       write tasks returned, ``"0:0"`` for zero-row partitions, and the
       prior rows and cached digests of the skipped partitions, whose data
       did not change — so :func:`partition_digests` right after it reads
       nothing.

    Returns the final manifest dict.
    """
    import pyarrow as pa

    from code_graph_rag_ray.stages.materialize import (
        add_partition_column,
        write_sorted_partitions,
    )

    os.makedirs(out_dir, exist_ok=True)
    prior = read_manifest(out_dir) or {"partitions": {}}
    done = {int(p.split("=")[1]) for p in prior.get("partitions", {})}

    # clear partial (unmanifested) partition dirs
    for name in list(os.listdir(out_dir)):
        pdir = os.path.join(out_dir, name)
        if os.path.isdir(pdir) and name.startswith("part="):
            if int(name.split("=")[1]) not in done:
                shutil.rmtree(pdir)

    def finish(written: dict[str, tuple[int, str]]) -> dict:
        parts = dict(prior.get("partitions", {}))
        digests = {p: d for p, d in (prior.get("digests") or {}).items()
                   if p in parts}
        for p, (n, d) in written.items():
            parts[p], digests[p] = n, d
        for k in range(num_partitions):
            if parts.setdefault(f"part={k}", 0) == 0:
                digests[f"part={k}"] = "0:0"
        man = {"partitions": dict(sorted(parts.items())),
               "rows": int(sum(parts.values())),
               "digests": dict(sorted(digests.items()))}
        _write_manifest(out_dir, man)
        return man

    if len(done) >= num_partitions:
        # fully resumed: every partition (including zero-row ones — the
        # manifest records those too) is complete, so the upstream pipeline
        # never executes at all.
        return finish({})

    parted = add_partition_column(ds, key, num_partitions)
    if done:
        import pyarrow.compute as pc

        done_arr = pa.array(sorted(done), pa.int32())

        def skip_done(b: pa.Table) -> pa.Table:
            return b.filter(pc.invert(pc.is_in(b["part"], value_set=done_arr)))

        parted = parted.map_batches(skip_done, batch_format="pyarrow")

    # stream straight into the partitioned write — ONE execution of the
    # upstream pipeline, no terminal materialize (an all-empty remainder
    # writes nothing and returns no partition).
    return finish(write_sorted_partitions(parted, out_dir, sort_by))


def partition_digests(out_dir: str) -> dict[str, str]:
    """Order-insensitive content digest per completed partition, kept in
    the manifest: "<rows>:<hex>" where hex = mod-2^64 sum of stable row
    hashes over every column (sorted by name) — :func:`_digest_table`. A
    checkpoint diff (`stages/diff.py diff_materialized`) prunes unchanged
    partitions on manifest equality alone, reading no data for them.

    :func:`resume_materialize` records every partition's digest from the
    task that wrote it, so right after it this returns the manifest's
    digests without a data read or a task. Only a store written without
    them (an older writer, or a manifest from :func:`partition_manifest`)
    has its missing digests computed here, by ONE read of each such
    partition, then persisted.

    The digest is content-derived and order-insensitive (sum of per-row
    hashes), so it is stable across rewrite ordering, file naming and
    parquet encoder metadata — the properties a bytes-level file hash
    would NOT have.

    Scale shape of the lazy path: ONE RAY TASK PER PARTITION (data is
    read and folded inside the task; the driver collects only (name,
    digest) pairs). Falls back to in-process hashing when no Ray session
    exists — a digest must also be computable from plain tooling."""
    man = read_manifest(out_dir) or partition_manifest(out_dir)
    digests: dict[str, str] = dict(man.get("digests") or {})
    if set(digests) == set(man.get("partitions", {})):
        return digests
    todo = []
    for name, rows in man.get("partitions", {}).items():
        if name in digests:
            continue
        pdir = os.path.join(out_dir, name)
        if rows == 0 or not os.path.isdir(pdir):
            digests[name] = "0:0"
        else:
            todo.append((name, pdir))
    if todo:
        try:
            import ray

            in_ray = ray.is_initialized()
        except Exception:  # pragma: no cover - ray always importable here
            in_ray = False
        if in_ray:
            import ray

            fn = ray.remote(num_cpus=1)(_digest_partition_dir)
            for (name, _), d in zip(
                todo, ray.get([fn.remote(p) for _, p in todo])
            ):
                digests[name] = d
        else:
            for name, pdir in todo:
                digests[name] = _digest_partition_dir(pdir)
    man["digests"] = digests
    _write_manifest(out_dir, man)
    return digests


def _digest_partition_dir(pdir: str) -> str:
    """:func:`_digest_table` of one partition directory's rows — pure
    function of row content (see partition_digests)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = parquet_files(pdir)
    if not files:
        return "0:0"
    return _digest_table(pa.concat_tables([pq.read_table(f) for f in files],
                                          promote_options="permissive"))


def _digest_table(t) -> str:
    """"<rows>:<hex mod-2^64 row-hash sum>" of a table without its
    ``part`` column: each row's columns, sorted by name, cast to string
    (null → ``"\\x00null"``), ``\\x1f``-joined and hashed with
    ``stable_hash_array``. The one digest code path: the partition writer
    digests the table it wrote, :func:`_digest_partition_dir` the files it
    reads back."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from code_graph_rag_ray.functions.hashing import stable_hash_array

    t = t.drop_columns([c for c in t.column_names if c == "part"])
    if t.num_rows == 0:
        return "0:0"
    cols = [pc.fill_null(pc.cast(t[c], pa.string()), "\x00null")
            for c in sorted(t.column_names)]
    joined = cols[0] if len(cols) == 1 else (
        pc.binary_join_element_wise(*cols, "\x1f"))
    with np.errstate(over="ignore"):
        total = stable_hash_array(joined).sum(dtype=np.uint64)
    return f"{t.num_rows}:{int(total):x}"


def parquet_files(path: str) -> list[str]:
    """The parquet data files under ``path``, sorted, descending into
    subdirectories and skipping every name that starts with ``_`` or
    ``.`` (manifests, in-flight tmp files): the files a ``pyarrow.dataset``
    discovery of ``path`` reads."""
    out = []
    for root, dirs, files in os.walk(path):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
        out.extend(os.path.join(root, f) for f in sorted(files)
                   if f.endswith(".parquet") and not f.startswith(("_", ".")))
    return out


def partition_manifest(out_dir: str, *, expected: int | None = None) -> dict:
    """Row counts per hive partition directory under a materialized output.

    Written next to the data so a rerun can skip finished partitions
    (per-partition lineage, north-star requirement). With ``expected=N``
    (call it only after a SUCCESSFUL full write), hash partitions that got
    zero rows — hence no directory — are recorded as complete with count 0,
    so a rerun skips them instead of re-executing the whole pipeline to
    rediscover their emptiness."""
    manifest = _count_partitions(out_dir, expected=expected)
    _write_manifest(out_dir, manifest)
    return manifest


def _count_partitions(out_dir: str, *, expected: int | None = None) -> dict:
    """The manifest :func:`partition_manifest` writes, without writing it."""
    import pyarrow.parquet as pq

    parts: dict[str, int] = {}
    for name in sorted(os.listdir(out_dir)):
        pdir = os.path.join(out_dir, name)
        if not (os.path.isdir(pdir) and "=" in name):
            continue
        parts[name] = sum(pq.read_metadata(f).num_rows
                          for f in parquet_files(pdir))
    if expected is not None:
        for k in range(expected):
            parts.setdefault(f"part={k}", 0)
    return {"partitions": parts, "rows": int(sum(parts.values()))}
