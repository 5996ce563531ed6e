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
    # a digest-less manifest, so partition_digests has digests to compute
    partition_manifest(out)
    prior = read_manifest(out)
    assert "digests" not in prior

    class HalfJson:
        load = staticmethod(json.load)

        @staticmethod
        def dump(obj, f, **kw):
            f.write('{"partitions": {"part=0"')
            raise OSError("disk full")

    monkeypatch.setattr(lineage, "json", HalfJson)
    for write in (lambda: lineage.partition_digests(out),
                  lambda: partition_manifest(out),
                  lambda: resume_materialize(_edges(100), out, key="subj",
                                             sort_by=["subj", "obj"],
                                             num_partitions=4),
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


def _mixed(n=300):
    """Every digest-relevant type with nulls: int64, a second-unit timestamp
    (parquet stores it in ms), a zoned µs timestamp, large_string and a
    dictionary column."""
    import datetime as dt

    base = dt.datetime(2021, 3, 4, 5, 6, 7)
    return pa.table({
        "subj": [f"s{i % 23}" for i in range(n)],
        "n": pa.array([None if i % 7 == 0 else i * 2**40 for i in range(n)],
                      pa.int64()),
        "ts": pa.array([None if i % 5 == 0 else base + dt.timedelta(seconds=i)
                        for i in range(n)], pa.timestamp("s")),
        "tus": pa.array([None if i % 6 == 0 else base + dt.timedelta(microseconds=i)
                         for i in range(n)], pa.timestamp("us", tz="UTC")),
        "note": pa.array([None if i % 3 == 0 else f"note {i}" for i in range(n)],
                         pa.large_string()),
        "tag": pa.array([None if i % 4 == 0 else f"t{i % 3}"
                         for i in range(n)]).dictionary_encode(),
    })


def test_write_time_digests_equal_read_back(tmp_path):
    """The digest each write task returns equals the digest of its file
    read back, for plain edges and for a mixed table with nulls; every
    partition, empty ones included, has one."""
    from code_graph_rag_ray.state.lineage import _digest_partition_dir

    mixed = _mixed()
    cases = [(_edges(), ["subj", "obj"], 16),
             (rd.from_arrow([mixed.slice(0, 100), mixed.slice(100)]), ["subj", "n"], 4)]
    for i, (ds, sort_by, parts) in enumerate(cases):
        out = str(tmp_path / f"g{i}")
        man = resume_materialize(ds, out, key="subj", sort_by=sort_by,
                                 num_partitions=parts)
        assert set(man["digests"]) == set(man["partitions"]) == {
            f"part={k}" for k in range(parts)}
        for p, digest in man["digests"].items():
            assert digest == _digest_partition_dir(os.path.join(out, p))
            assert digest.split(":")[0] == str(man["partitions"][p])
        assert read_manifest(out) == man
    assert "0:0" in read_manifest(str(tmp_path / "g0"))["digests"].values()


def test_partition_digests_after_resume_reads_nothing(tmp_path, monkeypatch):
    from code_graph_rag_ray.state import lineage

    out = str(tmp_path / "g")
    man = resume_materialize(_edges(), out, key="subj", sort_by=["subj", "obj"],
                             num_partitions=8)

    def boom(pdir: str) -> str:
        raise AssertionError(f"digest recomputed for {pdir}")

    monkeypatch.setattr(lineage, "_digest_partition_dir", boom)
    assert lineage.partition_digests(out) == man["digests"]


def test_partition_writer_rerun_leaves_one_file(tmp_path):
    """A retried write task replaces its partition's file: one file, the
    same digest, the same rows."""
    from code_graph_rag_ray.stages.materialize import (
        add_partition_column,
        write_sorted_partitions,
    )
    from code_graph_rag_ray.state.lineage import _digest_partition_dir

    out = str(tmp_path / "g")
    parted = add_partition_column(_edges(), "subj", 1).materialize()
    first = write_sorted_partitions(parted, out, ["subj", "obj"])
    rows = _read_all(out)
    second = write_sorted_partitions(parted, out, ["subj", "obj"])
    assert first == second == {"part=0": (400, _digest_partition_dir(f"{out}/part=0"))}
    assert os.listdir(f"{out}/part=0") == ["data.parquet"]
    assert _read_all(out) == rows


def test_resume_materialize_pays_one_exchange(tmp_path):
    from perfbench.trace import ExecutorStats

    stats = ExecutorStats()
    with stats:
        resume_materialize(_edges(), str(tmp_path / "g"), key="subj",
                           sort_by=["subj", "obj"], num_partitions=8)
    assert stats.take()["exchanges"] == 1
