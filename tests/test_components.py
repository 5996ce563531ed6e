"""connected_components operator tests (union-find canonicalization analog)."""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.components import component_sizes, connected_components


def _cc(pairs):
    t = pa.Table.from_pylist([{"src": a, "dst": b} for a, b in pairs])
    labels = connected_components(rd.from_arrow(t))
    df = labels.to_pandas()
    return dict(zip(df["node"], df["component"]))


def test_two_components():
    got = _cc([("a", "b"), ("b", "c"), ("x", "y")])
    assert got["a"] == got["b"] == got["c"] == "a"
    assert got["x"] == got["y"] == "x"
    assert got["a"] != got["x"]


def test_chain_beyond_one_round():
    # a path graph needs several propagation rounds
    chain = [(f"n{i:02d}", f"n{i + 1:02d}") for i in range(12)]
    got = _cc(chain)
    assert set(got.values()) == {"n00"}


def test_cc_scale_with_whale_hub():
    """10k-node graph with one hub of degree 5000 (head-entity skew shape):
    the bucketed-cogroup rounds must converge and stay vectorized."""
    import time

    pairs = [("hub", f"w{i:05d}") for i in range(5000)]  # whale star
    pairs += [(f"c{i:05d}", f"c{i + 1:05d}") for i in range(0, 4000, 2)]  # 2-chains
    t = pa.Table.from_pylist([{"src": a, "dst": b} for a, b in pairs])
    t0 = time.perf_counter()
    labels = connected_components(rd.from_arrow(t)).to_pandas()
    dt = time.perf_counter() - t0
    comp = dict(zip(labels.node, labels.component))
    star = {comp[f"w{i:05d}"] for i in range(0, 5000, 500)} | {comp["hub"]}
    assert len(star) == 1  # whole star is one component
    assert comp["c00000"] == comp["c00001"]
    assert comp["c00002"] != comp["c00000"]  # separate 2-chain
    sizes = labels.groupby("component").size()
    assert sizes.max() == 5001
    assert (sizes == 2).sum() == 2000
    # generous bound: this is a smoke guard against accidental per-node
    # Python fallback (that regime took >10 min), not a perf benchmark —
    # wall time under a loaded CI box varies widely
    assert dt < 400, f"CC too slow: {dt:.1f}s"


def test_component_sizes():
    t = pa.Table.from_pylist([{"src": a, "dst": b} for a, b in [("a", "b"), ("x", "y"), ("y", "z")]])
    labels = connected_components(rd.from_arrow(t))
    sizes = {r["component"]: r["size"] for r in component_sizes(labels).to_pandas().to_dict("records")}
    assert sizes == {"a": 2, "x": 3}
