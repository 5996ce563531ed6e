"""Binary sink roundtrip (S5 analog) + watch-mode debounce policy (§2.8)."""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.sinks.binary import read_binary_graph, write_binary_graph
from code_graph_rag_ray.state.watch import _debounce_one, debounce_events


def test_binary_sink_roundtrip_with_label_index(tmp_path):
    rows = [
        {"entity_id": f"E{i}", "label": "Entity" if i % 3 else "ExternalEntity",
         "n": i}
        for i in range(20)
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = str(tmp_path / "bin")
    index = write_binary_graph(ds, out, label_col="label")
    assert index["rows"] == 20
    assert set(index["labels"]) == {"Entity", "ExternalEntity"}

    got = read_binary_graph(out)
    assert sorted(r["entity_id"] for r in got) == sorted(r["entity_id"] for r in rows)
    # per-label read prunes via the index
    ext = read_binary_graph(out, label="ExternalEntity")
    assert {r["entity_id"] for r in ext} == {f"E{i}" for i in range(0, 20, 3)}


def test_debounce_policy_quiet_and_max_wait():
    # quiet=10, max_wait=60; gaps >10 fire at last+10
    assert _debounce_one([0], 10, 60) == [(10, 1, False)]
    # burst then silence: one coalesced processing at last+quiet
    assert _debounce_one([0, 5, 9], 10, 60) == [(19, 3, False)]
    # gap splits into two processings
    assert _debounce_one([0, 30], 10, 60) == [(10, 1, False), (40, 1, False)]
    # continuous chatter: forced at first_pending + max_wait
    ts = list(range(0, 120, 5))  # event every 5s < quiet=10 → never quiet
    fired = _debounce_one(ts, 10, 60)
    assert fired[0] == (60, 12, True)  # events 0..55 coalesced, forced
    assert fired[-1][2] in (True, False) and len(fired) == 2


def test_debounce_events_dataset():
    rows = []
    for p, ts in (("a", [0, 5, 9]), ("b", [0, 30])):
        rows += [{"path": p, "ts": t} for t in ts]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = debounce_events(ds, quiet_s=10, max_wait_s=60).to_pandas()
    got = {
        (r.path, r.process_ts, r.n_events, bool(r.forced)) for r in out.itertuples()
    }
    assert got == {("a", 19, 3, False), ("b", 10, 1, False), ("b", 40, 1, False)}


def test_serve_point_query_partition_pruned(tmp_path):
    import os

    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.materialize import materialize_graph
    from code_graph_rag_ray.stages.serve import (
        neighbors,
        partition_of,
        query_edges,
    )

    rows = [{"subj": f"E{i % 7}", "pred": "rel" if i % 2 else "ref",
             "obj": f"E{(i + 1) % 7}", "provenance_url": f"https://x/{i}"}
            for i in range(100)]
    store = str(tmp_path / "store")
    materialize_graph(rd.from_arrow(pa.Table.from_pylist(rows)), store,
                      key="subj", sort_by=["subj", "pred", "obj"],
                      num_partitions=8)

    # the pruned read touches exactly ONE part dir, and it's the right one
    part = partition_of("E3", 8)
    assert os.path.isdir(os.path.join(store, f"part={part}"))
    got = query_edges(store, subj="E3", num_partitions=8).to_pylist()
    want = sorted((r for r in rows if r["subj"] == "E3"),
                  key=lambda r: (r["pred"], r["obj"], r["provenance_url"]))
    assert sorted(got, key=lambda r: (r["pred"], r["obj"],
                                      r["provenance_url"])) == want

    # pattern filters compose; obj-side lookup is the full-scan path
    both = query_edges(store, subj="E3", pred="rel", num_partitions=8)
    assert set(both["pred"].to_pylist()) == {"rel"}
    nb = neighbors(store, "E3", num_partitions=8)
    assert nb["out"].num_rows == len(want)
    assert set(nb["in"]["obj"].to_pylist()) == {"E3"}
    assert nb["in"].num_rows == sum(1 for r in rows if r["obj"] == "E3")


def _store_rows():
    """Few subjects over 16 partitions, so some partitions hold no row."""
    return pa.table({
        "subj": [f"E{i % 5}" for i in range(60)],
        "pred": ["rel" if i % 3 else "ref" for i in range(60)],
        "obj": [f"E{(i * 7) % 11}" for i in range(60)],
        "provenance_url": [f"https://x/{i}" for i in range(60)],
    })


def _canon(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def test_query_edges_equals_arrow_filter(tmp_path):
    """Every subj/pred/obj combination, misses, a subject whose partition
    has no rows and ``columns=`` projections equal an Arrow filter of the
    input, typed like it even when empty."""
    import itertools
    import os

    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.serve import partition_of, query_edges
    from code_graph_rag_ray.state.lineage import resume_materialize

    edges = _store_rows()
    store = str(tmp_path / "store")
    resume_materialize(rd.from_arrow(edges), store, key="subj",
                       sort_by=["subj", "pred", "obj"], num_partitions=16)
    full = {partition_of(s, 16) for s in edges["subj"].to_pylist()}
    empty_subj = next(s for s in (f"zz{i}" for i in range(100))
                      if partition_of(s, 16) not in full)
    assert not os.path.isdir(os.path.join(store, f"part={partition_of(empty_subj, 16)}"))

    subjs = [None, "E0", "E3", "absent", empty_subj]
    preds = [None, "rel", "nope"]
    objs = [None, "E7", "absent"]
    projections = [None, ["obj"], ["provenance_url", "subj"], ["pred", "obj"]]
    for subj, pred, obj, cols in itertools.product(subjs, preds, objs, projections):
        want = edges
        for c, v in (("subj", subj), ("pred", pred), ("obj", obj)):
            if v is not None:
                want = want.filter(pc.equal(want[c], v))
        if cols is not None:
            want = want.select(cols)
        got = query_edges(store, subj=subj, pred=pred, obj=obj, columns=cols)
        case = (subj, pred, obj, cols)
        assert got.schema.equals(want.schema), case
        assert _canon(got).equals(_canon(want)), case


def test_query_edges_partition_count_and_missing_store(tmp_path):
    import pytest

    from code_graph_rag_ray.stages.materialize import materialize_graph
    from code_graph_rag_ray.stages.serve import query_edges
    from code_graph_rag_ray.state.lineage import resume_materialize

    edges = _store_rows()
    store = str(tmp_path / "store")
    resume_materialize(rd.from_arrow(edges), store, key="subj",
                       sort_by=["subj"], num_partitions=16)
    with pytest.raises(ValueError, match="16 partitions"):
        query_edges(store, subj="E0", num_partitions=8)
    assert query_edges(store, subj="E0").num_rows == 12
    with pytest.raises(FileNotFoundError):
        query_edges(str(tmp_path / "nowhere"), subj="E0")

    # a store written without a manifest stays unchecked
    bare = str(tmp_path / "bare")
    materialize_graph(rd.from_arrow(edges), bare, key="subj", sort_by=["subj"],
                      num_partitions=8)
    assert query_edges(bare, subj="E0", num_partitions=8).num_rows == 12
