"""Checkpoint-level partition diff (stages/diff.py diff_materialized +
state/lineage.py partition_digests)."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pytest
import ray.data as rd

from code_graph_rag_ray.stages.diff import diff_materialized
from code_graph_rag_ray.state.lineage import (
    partition_digests,
    read_manifest,
    resume_materialize,
)

KEY = ["subj", "pred", "obj", "provenance_url"]


def _edges_tbl(rows):
    return pa.table({c: pa.array([r[i] for r in rows], pa.string())
                     for i, c in enumerate(KEY)})


def _mat(tbl, out_dir, nparts=8):
    resume_materialize(rd.from_arrow(tbl), out_dir, key="subj",
                       sort_by=KEY, num_partitions=nparts)


def test_diff_matches_set_difference_and_prunes_unchanged(tmp_path):
    base = [(f"s{i}", "p", f"o{i}", f"u{i}") for i in range(40)]
    removed = base[3]
    added = ("s3", "p", "oNEW", "uNEW")          # same subj → same partition
    v1 = base
    v2 = [r for r in base if r != removed] + [added]

    d1, d2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    _mat(_edges_tbl(v1), d1)
    _mat(_edges_tbl(v2), d2)

    got = diff_materialized(d1, d2, on=KEY).to_pandas()
    gset = set(map(tuple, got[KEY + ["change"]].itertuples(index=False)))
    assert gset == {added + ("added",), removed + ("removed",)}

    # digest equality prunes every partition not containing subj s3
    da, db = partition_digests(d1), partition_digests(d2)
    changed = [p for p in da if da[p] != db.get(p)]
    assert len(changed) < len(da)
    assert all(da[p] == db[p] for p in da if p not in changed)


def test_identical_trees_diff_empty_without_reading_data(tmp_path):
    rows = [(f"s{i}", "p", f"o{i}", f"u{i}") for i in range(20)]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    _mat(_edges_tbl(rows), d1)
    _mat(_edges_tbl(rows), d2)
    # digests computed once, cached in the manifest
    partition_digests(d1), partition_digests(d2)
    assert "digests" in read_manifest(d1)
    # poison the data files: if the diff reads any partition it will crash,
    # proving the manifest-only prune
    for root in (d1, d2):
        for name in os.listdir(root):
            pdir = os.path.join(root, name)
            if os.path.isdir(pdir):
                for f in os.listdir(pdir):
                    os.rename(os.path.join(pdir, f),
                              os.path.join(pdir, f + ".hidden"))
    got = diff_materialized(d1, d2, on=KEY).to_pandas()
    assert len(got) == 0


def test_digest_is_row_order_insensitive(tmp_path):
    rows = [(f"s{i}", "p", f"o{i}", f"u{i}") for i in range(15)]
    d1, d2 = str(tmp_path / "fwd"), str(tmp_path / "rev")
    _mat(_edges_tbl(rows), d1)
    _mat(_edges_tbl(list(reversed(rows))), d2)
    assert partition_digests(d1) == partition_digests(d2)


def test_partitioner_mismatch_raises(tmp_path):
    rows = [("s1", "p", "o1", "u1")]
    d1, d2 = str(tmp_path / "p8"), str(tmp_path / "p4")
    _mat(_edges_tbl(rows), d1, nparts=8)
    _mat(_edges_tbl(rows), d2, nparts=4)
    with pytest.raises(ValueError, match="partitioner mismatch"):
        diff_materialized(d1, d2, on=KEY)


@pytest.mark.parametrize("query", ["kg_edge_diff_ckpt", "warc_pages"])
def test_catalog_scratch_trees_private_and_removed(query, sf_dir, tmp_path,
                                                   monkeypatch):
    """Concurrent runs must not share scratch trees: every call gets its
    own root, the result stays readable, and no tree is left behind."""
    import tempfile

    from code_graph_rag_ray.pipelines import catalog

    roots = []
    real = tempfile.mkdtemp

    def recording(*a, **kw):
        roots.append(real(*a, dir=str(tmp_path), **kw))
        return roots[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording)
    counts = [getattr(catalog, query)(sf_dir).count() for _ in range(2)]
    assert counts[0] == counts[1] > 0
    assert len(roots) == 2 and roots[0] != roots[1]
    assert os.listdir(tmp_path) == []
