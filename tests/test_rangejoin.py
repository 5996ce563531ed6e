"""Distributed range join tests (stages/rangejoin.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from code_graph_rag_ray.stages.rangejoin import range_join_chunked

BASE = 1_704_067_200


def test_range_join_matches_global_reference_with_whale_key():
    rng = np.random.default_rng(3)
    # whale user 0: 400 points, 40 intervals over a week; others small;
    # intervals per user are non-overlapping but some span many chunks
    points, ivs = [], []
    for i in range(400):
        points.append({"user": 0, "ts": BASE + i * 1511 + int(rng.integers(1500)),
                       "pid": i})
    for u in (1, 2):
        for i in range(5):
            points.append({"user": u, "ts": BASE + i * 9973, "pid": 1000 + u * 10 + i})
    t = BASE
    for i in range(40):
        span = int(rng.integers(600, 20_000))  # some spans cross 3600s chunks
        ivs.append({"user": 0, "start": t, "end": t + span, "ivid": i})
        t += span + int(rng.integers(100, 2000))
    ivs.append({"user": 2, "start": BASE, "end": BASE + 50_000, "ivid": 99})
    P = pd.DataFrame(points)
    P["ts"] = pd.to_datetime(P.ts, unit="s")
    I = pd.DataFrame(ivs)

    out = range_join_chunked(
        rd.from_pandas(P), rd.from_pandas(I), by="user", on="ts",
        start_col="start", end_col="end", chunk=3600, points_ts_div=1_000_000,
    ).to_pandas()

    exp = set()
    for p in points:
        for iv in ivs:
            if iv["user"] == p["user"] and iv["start"] <= p["ts"] <= iv["end"]:
                exp.add((p["pid"], iv["ivid"]))
    got = {(int(r.pid), int(r.ivid_iv)) for r in out.itertuples()}
    assert got == exp
    assert len(exp) > 100  # the fixture actually exercises containment
    # user 1 has no intervals → inner semantics drop its points
    assert not (out.user == 1).any()


def test_range_join_interval_spanning_many_chunks():
    P = pd.DataFrame({
        "user": [7, 7, 7],
        "ts": pd.to_datetime([BASE + 10, BASE + 30 * 3600, BASE + 80 * 3600], unit="s"),
        "pid": [1, 2, 3],
    })
    I = pd.DataFrame({"user": [7], "start": [BASE], "end": [BASE + 60 * 3600],
                      "ivid": [5]})
    out = range_join_chunked(
        rd.from_pandas(P), rd.from_pandas(I), by="user", on="ts",
        start_col="start", end_col="end", chunk=3600, points_ts_div=1_000_000,
    ).to_pandas()
    assert sorted(out.pid) == [1, 2]  # pid 3 is past the interval end
    assert len(out) == 2  # one match each — replication adds no duplicates


def test_range_join_negative_timestamps_floor_into_the_interval_chunk():
    # a point at -5 and the interval [-7, -3] share chunk -1 only when
    # both sides floor (truncation puts the point in chunk 0)
    P = pd.DataFrame({"user": [1, 1], "ts": [-5, -11], "pid": [1, 2]})
    I = pd.DataFrame({"user": [1], "start": [-7], "end": [-3], "ivid": [9]})
    out = range_join_chunked(
        rd.from_pandas(P), rd.from_pandas(I), by="user", on="ts",
        start_col="start", end_col="end", chunk=10,
    ).to_pandas()
    assert list(zip(out.pid, out.ivid_iv, out.ts)) == [(1, 9, -5)]
