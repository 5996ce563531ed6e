"""Lineage tests: partition-level resume equals a clean run."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from code_graph_rag_ray.state.lineage import (
    MANIFEST,
    partition_manifest,
    read_manifest,
    resume_materialize,
)


def _edges(n=400):
    return rd.from_arrow(
        pa.Table.from_pylist(
            [
                {"subj": f"E{i % 37:04d}", "pred": "rel", "obj": f"E{(i * 7) % 37:04d}",
                 "provenance_url": f"u{i}"}
                for i in range(n)
            ]
        )
    )


def _read_all(out_dir):
    rows = []
    for name in sorted(os.listdir(out_dir)):
        pdir = os.path.join(out_dir, name)
        if os.path.isdir(pdir) and name.startswith("part="):
            for f in sorted(os.listdir(pdir)):
                if f.endswith(".parquet"):
                    rows.extend(pq.read_table(os.path.join(pdir, f)).to_pylist())
    return sorted((r["subj"], r["pred"], r["obj"], r["provenance_url"]) for r in rows)


def test_resume_materialize_clean_run(tmp_path):
    out = str(tmp_path / "g")
    man = resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"], num_partitions=8)
    assert man["rows"] == 400
    assert _read_all(out) == _read_all(out)  # deterministic read
    assert read_manifest(out)["rows"] == 400


def test_resume_skips_completed_and_rewrites_partial(tmp_path):
    out = str(tmp_path / "g")
    resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"], num_partitions=8)
    clean = _read_all(out)
    man = read_manifest(out)

    # simulate a crash: drop one partition from the manifest (it becomes
    # "partial") and delete another partition's data but keep its manifest
    partial = min(p for p, c in man["partitions"].items() if c > 0)
    man2 = {"partitions": {p: c for p, c in man["partitions"].items() if p != partial}}
    with open(os.path.join(out, MANIFEST), "w") as f:
        json.dump(man2, f)
    # corrupt the partial partition dir (stale files must not double-count)
    pdir = os.path.join(out, partial)
    shutil.copyfile(
        os.path.join(pdir, os.listdir(pdir)[0]),
        os.path.join(pdir, "stale-extra.parquet"),
    )

    man3 = resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"], num_partitions=8)
    assert _read_all(out) == clean  # resume == clean, no dup rows
    assert man3["rows"] == 400


def test_full_resume_executes_nothing(tmp_path):
    """A complete manifest (incl. zero-row partitions) short-circuits the
    rerun BEFORE the upstream pipeline executes at all."""
    out = str(tmp_path / "g")
    resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"],
                       num_partitions=8)
    clean = _read_all(out)

    def boom(b: pa.Table) -> pa.Table:
        raise RuntimeError("upstream must not execute on full resume")

    poisoned = _edges().map_batches(boom, batch_format="pyarrow")
    man = resume_materialize(poisoned, out, key="subj", sort_by=["subj", "obj"],
                             num_partitions=8)
    assert man["rows"] == 400
    assert _read_all(out) == clean


def test_partition_manifest_counts(tmp_path):
    out = str(tmp_path / "g")
    resume_materialize(_edges(100), out, key="subj", sort_by=["subj", "obj"], num_partitions=4)
    man = partition_manifest(out)
    assert sum(man["partitions"].values()) == man["rows"] == 100


def test_resume_keeps_cached_digests_so_diff_reads_nothing(tmp_path, monkeypatch):
    """A rerun keeps the cached digests of the partitions it skipped, so a
    diff after a fully resumed run prunes on the manifest alone."""
    from code_graph_rag_ray.stages.diff import diff_materialized
    from code_graph_rag_ray.state import lineage

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"],
                           num_partitions=8)
        lineage.partition_digests(out)
        resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"],
                           num_partitions=8)
        assert set(read_manifest(out)["digests"]) == set(
            read_manifest(out)["partitions"])

    calls = []

    def counted(pdir: str) -> str:
        calls.append(pdir)
        raise AssertionError(f"digest recomputed for {pdir}")

    monkeypatch.setattr(lineage, "_digest_partition_dir", counted)
    assert diff_materialized(a, b, on=["subj", "pred", "obj"]).count() == 0
    assert calls == []


def test_manifest_dump_failure_leaves_prior_manifest(tmp_path, monkeypatch):
    from code_graph_rag_ray.state import lineage

    out = str(tmp_path / "g")
    resume_materialize(_edges(100), out, key="subj", sort_by=["subj", "obj"],
                       num_partitions=4)
    prior = read_manifest(out)

    class HalfJson:
        load = staticmethod(json.load)

        @staticmethod
        def dump(obj, f, **kw):
            f.write('{"partitions": {"part=0"')
            raise OSError("disk full")

    monkeypatch.setattr(lineage, "json", HalfJson)
    for write in (lambda: lineage.partition_digests(out),
                  lambda: partition_manifest(out),
                  lambda: lineage.Checkpointer(str(tmp_path / "ck")).stage(
                      "s", lambda: _edges(10))):
        try:
            write()
        except OSError:
            pass
        else:
            raise AssertionError("the failing dump must propagate")
    monkeypatch.undo()
    assert read_manifest(out) == prior
    assert read_manifest(str(tmp_path / "ck" / "s")) is None
