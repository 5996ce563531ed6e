"""Reciprocal-rank fusion + per-group rank: naive-reference equivalence,
single-system docs, layout invariance, integer RRF arithmetic."""

import numpy as np
import pyarrow as pa
import ray

from code_graph_rag_ray.stages.ranking import group_rank, rrf_fuse


def _mk(rows, parallelism=3):
    return ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(parallelism)


LIST_A = [  # (query, doc, rank)
    {"query_id": 0, "doc_id": 10, "rank": 1},
    {"query_id": 0, "doc_id": 11, "rank": 2},
    {"query_id": 0, "doc_id": 12, "rank": 3},
    {"query_id": 1, "doc_id": 20, "rank": 1},
]
LIST_B = [
    {"query_id": 0, "doc_id": 11, "rank": 1},   # overlaps A
    {"query_id": 0, "doc_id": 99, "rank": 2},   # B-only
    {"query_id": 1, "doc_id": 21, "rank": 1},   # B-only
]


def _naive(lists, k=10, kappa=60, scale=10**6):
    acc = {}
    for lst in lists:
        for r in lst:
            key = (r["query_id"], r["doc_id"])
            s, n = acc.get(key, (0, 0))
            acc[key] = (s + scale // (kappa + r["rank"]), n + 1)
    out = {}
    for (q, d), (s, n) in acc.items():
        out.setdefault(q, []).append((d, s, n))
    for q in out:
        out[q].sort(key=lambda x: (-x[1], x[0]))
        out[q] = out[q][:k]
    return out


def _run(lists, k=10, parallelism=3):
    ds = rrf_fuse([_mk(l, parallelism) for l in lists], k=k)
    got = {}
    for r in ds.take_all():
        got.setdefault(r["query_id"], []).append(
            (r["doc_id"], r["rrf_micro"], r["n_systems"]))
    for v in got.values():
        v.sort(key=lambda x: (-x[1], x[0]))
    return got


def test_rrf_matches_naive():
    assert _run([LIST_A, LIST_B]) == _naive([LIST_A, LIST_B])


def test_rrf_overlap_outranks_single_system():
    got = _run([LIST_A, LIST_B])
    # doc 11 appears in both lists → must outrank every single-system doc
    top_doc, _, n_sys = got[0][0]
    assert top_doc == 11 and n_sys == 2


def test_rrf_layout_invariance():
    assert _run([LIST_A, LIST_B], parallelism=1) == \
        _run([LIST_A, LIST_B], parallelism=7)


def test_rrf_truncates_to_k():
    got = _run([LIST_A, LIST_B], k=2)
    assert len(got[0]) == 2
    assert got == {q: v[:2] for q, v in _naive([LIST_A, LIST_B]).items()}


def test_group_rank_orders_and_ties():
    rows = [
        {"g": "a", "s": 5, "id": 2}, {"g": "a", "s": 5, "id": 1},
        {"g": "a", "s": 9, "id": 3}, {"g": "b", "s": 1, "id": 4},
    ]
    out = group_rank(_mk(rows), "g", "s", tiebreak="id").take_all()
    got = {(r["g"], r["id"]): r["rank"] for r in out}
    # desc by s, ties asc by id
    assert got == {("a", 3): 1, ("a", 1): 2, ("a", 2): 3, ("b", 4): 1}


def test_group_rank_keeps_int64_values():
    # a null and a value above 2**53 must come back as the exact int64s
    big = 2**53 + 1
    rows = [{"g": "a", "s": big, "id": 1}, {"g": "a", "s": None, "id": 2},
            {"g": "a", "s": 3, "id": 3}, {"g": "b", "s": big - 2, "id": 4}]
    t = pa.Table.from_pylist(rows, schema=pa.schema(
        [("g", pa.string()), ("s", pa.int64()), ("id", pa.int64())]))
    out = group_rank(ray.data.from_arrow(t).repartition(2), "g", "s",
                     tiebreak="id")
    schema = out.schema()
    assert dict(zip(schema.names, schema.types))["s"] == pa.int64()
    got = {r["id"]: (r["s"], r["rank"]) for r in out.take_all()}
    # desc by s, nulls last
    assert got == {1: (big, 1), 3: (3, 2), 2: (None, 3), 4: (big - 2, 1)}
