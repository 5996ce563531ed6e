"""Distributed as-of join tests (stages/asof.py).

Invariants: equivalence with a global pandas merge_asof (the single-node
reference semantics), carry-in across one and MANY empty chunks, misses →
nulls (LEFT semantics), and the whale-key scale argument (one key's events
spread over many (key, chunk) groups, with cross-chunk matches intact).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from code_graph_rag_ray.stages.asof import asof_join_chunked

BASE = 1_704_067_200


def _expected(L: pd.DataFrame, R: pd.DataFrame) -> set:
    exp = set()
    for u, lsub in L.groupby("user"):
        rsub = R[R.user == u].sort_values("ts")
        for _, row in lsub.iterrows():
            prior = rsub[rsub.ts <= row.ts]
            rid = int(prior.iloc[-1].rid) if len(prior) else None
            exp.add((u, int(row.ts.value) // 1000, rid))  # ns → µs
    return exp


def _got(out: pd.DataFrame) -> set:
    return {
        (int(r.user), int(r.ts), None if pd.isna(r.rid_r) else int(r.rid_r))
        for r in out.itertuples()
    }


def test_asof_matches_global_reference_with_whale_key():
    rng = np.random.default_rng(11)
    rows_l, rows_r = [], []
    # strictly-increasing per-user timestamps (stride > jitter) — duplicate
    # ts between two RIGHT rows of one user would make the as-of pick
    # order-ambiguous in any engine, so the fixture avoids planting it
    # whale: user 0 carries 600 of 700 left rows over ~1 week
    for i in range(600):
        rows_l.append({"user": 0, "ts": BASE + i * 977 + int(rng.integers(900)), "lv": i})
    for u in range(1, 11):
        for i in range(10):
            rows_l.append({"user": u, "ts": BASE + i * 50021 + int(rng.integers(50000)), "lv": i})
    for i in range(200):
        rows_r.append({"user": 0, "ts": BASE + i * 2953 + int(rng.integers(2900)), "rid": i})
    for u in range(1, 8):  # users 8-10 have NO right rows → all misses
        for i in range(5):
            rows_r.append({"user": u, "ts": BASE + i * 100003 + int(rng.integers(100000)),
                           "rid": 1000 + u * 10 + i})
    L = pd.DataFrame(rows_l)
    R = pd.DataFrame(rows_r)
    L["ts"] = pd.to_datetime(L.ts, unit="s")
    R["ts"] = pd.to_datetime(R.ts, unit="s")

    out = asof_join_chunked(
        rd.from_pandas(L), rd.from_pandas(R), by="user", on="ts", chunk_s=3600
    ).to_pandas()
    assert _got(out) == _expected(L, R)
    assert len(out) == len(L)
    # users without any right rows are all misses, kept (LEFT semantics)
    assert out[out.user == 9].rid_r.isna().all()


def test_asof_carry_across_many_empty_chunks():
    # one right row, then left rows 1 and 50 chunks later — both must match it
    L = pd.DataFrame({
        "user": [5, 5],
        "ts": pd.to_datetime([BASE + 4000, BASE + 50 * 3600 + 7], unit="s"),
        "lv": ["x", "y"],
    })
    R = pd.DataFrame({
        "user": [5], "ts": pd.to_datetime([BASE + 10], unit="s"), "rid": [77],
    })
    out = asof_join_chunked(
        rd.from_pandas(L), rd.from_pandas(R), by="user", on="ts", chunk_s=3600
    ).to_pandas()
    assert out.rid_r.tolist() == [77, 77]


def test_asof_exact_ts_match_counts():
    # right row exactly AT the left ts matches (ASOF v.ts <= c.ts semantics)
    L = pd.DataFrame({"user": [1], "ts": pd.to_datetime([BASE], unit="s"), "lv": [0]})
    R = pd.DataFrame({"user": [1], "ts": pd.to_datetime([BASE], unit="s"), "rid": [9]})
    out = asof_join_chunked(
        rd.from_pandas(L), rd.from_pandas(R), by="user", on="ts", chunk_s=3600
    ).to_pandas()
    assert out.rid_r.tolist() == [9]


def test_asof_tolerance_rejects_stale_carry():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.asof import asof_join_chunked

    # right rows at t=0s and t=100s; lefts at 50s, 103s, 250s; chunk=60s
    # so the t=100 right reaches the 250s left only via the carry — and the
    # 5s tolerance must reject it there while accepting the 103s left
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "ts": pa.array([50_000_000, 103_000_000, 250_000_000], pa.int64()),
        "lid": pa.array([1, 2, 3], pa.int64()),
    })).repartition(2)
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "ts": pa.array([0, 100_000_000], pa.int64()),
        "rv": pa.array([10, 20], pa.int64()),
    })).repartition(2)
    out = asof_join_chunked(
        left, right, by="k", on="ts", right_cols=["rv"], chunk_s=60,
        tolerance_s=5,
    ).to_pandas().set_index("lid")
    assert pd.isna(out.loc[1, "rv_r"])          # t=0 right is 50s stale
    assert out.loc[2, "rv_r"] == 20             # 3s fresh → match
    assert pd.isna(out.loc[3, "rv_r"])          # carry is 150s stale → reject
    # without tolerance the same carry DOES match
    out2 = asof_join_chunked(
        left, right, by="k", on="ts", right_cols=["rv"], chunk_s=60,
    ).to_pandas().set_index("lid")
    assert out2.loc[3, "rv_r"] == 20


def test_asof_int64_payload_exact_next_to_a_miss():
    """A miss and a match in one cogroup: the matched int64 payload
    2**53 + 1 is not a double and must come back unchanged, as int64."""
    import pyarrow as pa

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "ts": pa.array([5_000_000, 20_000_000], pa.int64()),  # 5s miss, 20s hit
        "lid": pa.array([1, 2], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "ts": pa.array([10_000_000], pa.int64()),
        "rv": pa.array([2**53 + 1], pa.int64()),
    }))
    out = asof_join_chunked(left, right, by="k", on="ts", right_cols=["rv"],
                            chunk_s=3600).take_all()
    got = {r["lid"]: r["rv_r"] for r in out}
    assert got == {1: None, 2: 2**53 + 1}
    assert all(isinstance(r["rv_r"], (int, type(None))) for r in out)
