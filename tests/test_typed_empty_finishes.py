"""The Arrow group finishes keep their output types on an input that is
already materialized empty: no UDF runs on an empty block, so each of
them must type its result without seeing a row (NOTES facts 3 and 28).

Not listed: finishes that get their rows through a join, a
``partial_groupby_sum`` or a column selection first (``anchor_summary``,
``induce_schema``, ``entity_cooccurrence``, ``item_cocitation``,
``triangles``, ``grouped_mad_outliers``): their input is no longer a
materialized dataset, and an empty one reaches them schema-less. Nor is
``knn_ivf``, whose quantizer training needs at least one vector."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from code_graph_rag_ray.stages import diff, quantiles, relational, schema, similarity, skew
from code_graph_rag_ray.state import watch

S, I = pa.string(), pa.int64()


def _empty(**cols) -> rd.Dataset:
    return rd.from_arrow(pa.schema(list(cols.items())).empty_table()).materialize()


def _vecs() -> rd.Dataset:
    return _empty(vec_id=I, embedding=pa.list_(pa.float32()), label=S)


_Q = np.eye(2, 4)

CASES = {
    "grouped_quantiles": (
        lambda: quantiles.grouped_quantiles(_empty(g=S, v=I), key="g", value_col="v",
                                            qs={"q50": 0.5}),
        {"g": S, "n": I, "q50": I}),
    "grouped_quantiles_cont": (
        lambda: quantiles.grouped_quantiles_cont(_empty(g=S, v=I), key="g", value_col="v",
                                                 qs={"p50": 0.5}),
        {"g": S, "n": I, "p50": pa.float64()}),
    "knn_brute_force": (
        lambda: similarity.knn_brute_force(_vecs(), _Q, ["q0", "q1"], k=3),
        {"query_id": S, "vec_id": I, "cosine": pa.float64(), "rank": I}),
    "knn_lsh": (
        lambda: similarity.knn_lsh(_vecs(), _Q, ["q0", "q1"], k=3),
        {"query_id": S, "vec_id": I, "cosine": pa.float64(), "rank": I}),
    "salted_topk_per_key": (
        lambda: skew.salted_topk_per_key(_empty(e=S, u=S), key="e", item="u", k=3),
        {"e": S, "u": S, "n": I, "rank": I}),
    "scd2_history": (
        lambda: diff.scd2_history(_empty(k=S, ts=I, st=I), key="k", order_by="ts",
                                  state_cols=["st"]),
        {"k": S, "st": I, "valid_from": I, "valid_to": I, "n_obs": I}),
    "snapshot_diff": (
        lambda: diff.snapshot_diff(_empty(k=S, a=S), _empty(k=S, a=S), key="k",
                                   compare_cols=["a"]),
        {"k": S, "status": S}),
    "debounce_events": (
        lambda: watch.debounce_events(_empty(path=S, ts=I), quiet_s=10, max_wait_s=60),
        {"path": S, "process_ts": I, "n_events": I, "forced": pa.bool_()}),
    "validate_edges": (
        lambda: schema.validate_edges(_empty(subj=S, pred=S, obj=S),
                                      pa.table({"entity_id": ["E0"], "etype": ["Org"]}),
                                      {"p": (frozenset({"Org"}), None)}),
        {"subj": S, "pred": S, "obj": S, "violation": S}),
    "_group_pairs": (
        lambda: relational._group_pairs(_empty(d=I, e=S), "d", "e", max_items=4),
        {"d": I, "a": S, "b": S}),
    "_counted_groups": (
        lambda: relational._counted_groups(_empty(t=S, a=S), "t", "a", lambda t: t),
        {"t": S, "a": S, "n": I}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_finish_is_typed_on_empty_input(name):
    run, want = CASES[name]
    out = run()
    assert out.count() == 0
    got = out.schema()
    assert got is not None, name
    assert dict(zip(got.names, got.types)) == want
