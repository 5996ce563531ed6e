"""Relational-operator unit tests: broadcast joins, partial aggregates,
top-k, exact dedup variants."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.materialize import exact_dedup, exact_dedup_rows
from code_graph_rag_ray.stages.relational import (
    broadcast_join,
    broadcast_semi_join,
    partial_groupby_sum,
    top_k,
)


def _ds(rows):
    return rd.from_arrow(pa.Table.from_pylist(rows))


def test_broadcast_join_inner():
    big = _ds([{"k": 1, "v": 10}, {"k": 2, "v": 20}, {"k": 3, "v": 30}])
    small = pd.DataFrame({"k": [1, 3], "name": ["a", "c"]})
    out = broadcast_join(big, small, on="k").to_pandas().sort_values("k")
    assert out.v.tolist() == [10, 30]
    assert out.name.tolist() == ["a", "c"]


def test_broadcast_semi_and_anti_join():
    ds = _ds([{"k": i} for i in range(6)])
    semi = broadcast_semi_join(ds, {1, 4}, on="k").to_pandas()
    assert sorted(semi.k) == [1, 4]
    anti = broadcast_semi_join(ds, {1, 4}, on="k", anti=True).to_pandas()
    assert sorted(anti.k) == [0, 2, 3, 5]


def test_bucketed_join_inner_and_left():
    from code_graph_rag_ray.stages.relational import bucketed_join

    left = _ds([{"k": 1, "v": 10}, {"k": 2, "v": 20}, {"k": 2, "v": 21}, {"k": 9, "v": 90}])
    right = _ds([{"kk": 1, "w": "a"}, {"kk": 2, "w": "b"}])
    inner = bucketed_join(left, right, on="k", right_on="kk").to_pandas()
    got = sorted(map(tuple, inner[["k", "v", "w"]].itertuples(index=False)))
    assert got == [(1, 10, "a"), (2, 20, "b"), (2, 21, "b")]

    lo = bucketed_join(left, right, on="k", right_on="kk", how="left").to_pandas()
    assert len(lo) == 4
    assert lo[lo.k == 9].w.isna().all()


def test_bucketed_join_column_collision_suffix():
    from code_graph_rag_ray.stages.relational import bucketed_join

    left = _ds([{"k": 1, "v": 10}])
    right = _ds([{"k": 1, "v": 99}])
    out = bucketed_join(left, right, on="k").to_pandas()
    assert sorted(out.columns) == ["k", "v", "v_r"]
    assert out.v.iloc[0] == 10 and out.v_r.iloc[0] == 99


def test_partial_groupby_sum_matches_pandas():
    rows = [{"g": f"g{i % 3}", "x": float(i), "y": float(i * 2)} for i in range(100)]
    ds = _ds(rows)
    out = partial_groupby_sum(ds, ["g"], {"x": "sum_x", "y": "sum_y"}, count_alias="n")
    got = out.to_pandas().set_index("g").sort_index()
    want = pd.DataFrame(rows).groupby("g").agg(sum_x=("x", "sum"), sum_y=("y", "sum"), n=("x", "size"))
    assert got.sum_x.tolist() == want.sum_x.tolist()
    assert got.sum_y.tolist() == want.sum_y.tolist()
    assert got.n.tolist() == want.n.tolist()


def test_top_k():
    ds = _ds([{"v": float(i % 17)} for i in range(100)])
    out = top_k(ds, "v", 5).to_pandas()
    assert out.v.tolist() == [16.0, 16.0, 16.0, 16.0, 16.0]


def test_exact_dedup_column_min_semantics():
    ds = _ds(
        [{"k": "a", "p": 3}, {"k": "a", "p": 1}, {"k": "b", "p": 9}]
    )
    out = exact_dedup(ds, keys=["k"]).to_pandas().sort_values("k")
    assert out.p.tolist() == [1, 9]  # per-column min per key


def test_exact_dedup_rows_row_atomic():
    ds = _ds(
        [{"k": "a", "p": 3, "q": "z"}, {"k": "a", "p": 1, "q": "y"}]
    )
    out = exact_dedup_rows(ds, keys=["k"], sort_cols=["k", "p"]).to_pandas()
    assert len(out) == 1
    assert out.iloc[0].p == 1 and out.iloc[0].q == "y"  # whole winning row


def test_bucketed_join_null_keys_sql_semantics():
    """SQL semantics: null join keys never match (pandas merge would)."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    left = _ds([{"k": "a", "v": 1}, {"k": None, "v": 2}])
    right = _ds([{"k": "a", "w": 10}, {"k": None, "w": 20}])
    inner = bucketed_join(left, right, on="k").to_pandas()
    assert len(inner) == 1 and inner.iloc[0].v == 1 and inner.iloc[0].w == 10

    lo = bucketed_join(left, right, on="k", how="left").to_pandas()
    assert len(lo) == 2
    assert lo[lo.v == 2].w.isna().all()  # null-key left row kept, unmatched


def test_bucketed_join_skewed_whale_key():
    """One whale key (80% of rows on both sides) must join exactly."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    left = _ds(
        [{"k": "whale" if i % 5 else f"t{i}", "v": i} for i in range(200)]
    )
    right = _ds([{"k": "whale", "w": 1}, {"k": "t5", "w": 2}, {"k": "zzz", "w": 3}])
    out = bucketed_join(left, right, on="k").to_pandas()
    n_whale_left = sum(1 for i in range(200) if i % 5)
    assert len(out) == n_whale_left + 1  # every whale row + the t5 row
    assert (out[out.k == "whale"].w == 1).all()


def test_broadcast_join_dataset_small_side():
    """Dataset small side: blocks broadcast via the object store (never the
    driver), concat in a Ray task, worker-cached pandas index."""
    big = _ds([{"k": i, "v": i * 10} for i in range(50)])
    small = _ds([{"k": 7, "tag": "seven"}, {"k": 11, "tag": "eleven"}])
    out = broadcast_join(big, small, on="k").to_pandas().sort_values("k")
    assert list(out.k) == [7, 11]
    assert list(out.tag) == ["seven", "eleven"]
    assert list(out.v) == [70, 110]


def _events(n_groups: int, seed: int = 5) -> pa.Table:
    """~4 rows per group, ties on ts — the many-groups input case."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = n_groups * 4
    return pa.table({
        "g": pa.array(rng.integers(0, n_groups, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 50, n), pa.int64()),
        "id": pa.array(np.arange(n), pa.int64()),
        "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
    })


def test_grouped_top_k_ties_and_small_groups():
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import grouped_top_k

    rows = (
        # whale group: 200 rows, ties at the k boundary
        [{"g": "whale", "v": i % 10, "id": i} for i in range(200)]
        # group smaller than k
        + [{"g": "tiny", "v": 5, "id": 900}]
        # exact ties everywhere — tiebreak decides
        + [{"g": "tie", "v": 1, "id": i} for i in range(905, 910)]
    )
    ds = rd.from_items(rows, override_num_blocks=9)
    got = grouped_top_k(ds, "g", "v", 3, tiebreak="id").take_all()
    by_g = {}
    for r in got:
        by_g.setdefault(r["g"], []).append((r["v"], r["id"]))
    for v in by_g.values():
        v.sort(key=lambda t: (-t[0], t[1]))
    # whale: v=9 rows are ids 9,19,29,... → smallest three ids win
    assert by_g["whale"] == [(9, 9), (9, 19), (9, 29)]
    assert by_g["tiny"] == [(5, 900)]
    assert by_g["tie"] == [(1, 905), (1, 906), (1, 907)]


def test_grouped_collect_ordered_capped():
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import grouped_collect

    rows = (
        # whale group spanning blocks: values ordered by ts, ties on ts
        [{"g": "whale", "ts": i % 4, "id": i, "v": f"e{i}"} for i in range(40)]
        # group smaller than k
        + [{"g": "tiny", "ts": 9, "id": 900, "v": "only"}]
    )
    ds = rd.from_items(rows, override_num_blocks=7)
    got = {r["g"]: r for r in grouped_collect(ds, "g", "ts", "v", 3,
                                              tiebreak="id").take_all()}
    # whale: ts=0 rows are ids 0,4,8,... → first three by (ts, id)
    assert got["whale"]["collected"] == "e0,e4,e8"
    assert got["whale"]["n_collected"] == 3
    assert got["tiny"]["collected"] == "only"
    assert got["tiny"]["n_collected"] == 1

    # 5,000 groups against a pandas brute force
    t = _events(5000)
    df = t.to_pandas().sort_values(["g", "ts", "id"], kind="mergesort")
    want = {g: (",".join(map(str, s.tolist())), len(s))
            for g, s in df.groupby("g").head(3).groupby("g")["v"]}
    got = {r["g"]: (r["collected"], r["n_collected"])
           for r in grouped_collect(rd.from_arrow(t).repartition(6), "g", "ts",
                                    "v", 3, tiebreak="id").take_all()}
    assert got == want


def test_bucketed_semi_anti_with_null_keys():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import bucketed_join

    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c", None, "d"]),
        "v": pa.array([1, 2, 3, 4, 5]),
    })).repartition(3)
    right = rd.from_arrow(pa.table({
        "k": pa.array(["b", "d", "zz", None]),
        "other": pa.array([9, 9, 9, 9]),
    })).repartition(2)

    semi = bucketed_join(left, right, on="k", how="semi").take_all()
    assert sorted(r["v"] for r in semi) == [2, 5]
    assert set(semi[0].keys()) == {"k", "v"}  # left schema only

    anti = bucketed_join(left, right, on="k", how="anti").take_all()
    # NOT EXISTS: null-key left row is kept (null never matches)
    assert sorted(r["v"] for r in anti) == [1, 3, 4]


def test_bucketed_join_outer_both_sides_and_null_keys():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import bucketed_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, None], pa.int64()),
        "lv": pa.array([10, 20, 30, 40], pa.int64()),
    })).repartition(2)
    right = rd.from_arrow(pa.table({
        "k": pa.array([2, 3, 5, None], pa.int64()),
        "rv": pa.array([200, 300, 500, 600], pa.int64()),
    })).repartition(2)
    out = bucketed_join(left, right, on="k", how="outer").to_pandas()
    # matched: k=2, k=3; left-only: k=1 and the null-key left row;
    # right-only: k=5 and the null-key right row (null never matches null)
    assert len(out) == 6
    matched = out[out["lv"].notna() & out["rv"].notna()]
    assert sorted(matched["lv"].astype(int)) == [20, 30]
    left_only = out[out["rv"].isna()]
    assert sorted(left_only["lv"].astype(int)) == [10, 40]
    right_only = out[out["lv"].isna()]
    assert sorted(right_only["rv"].astype(int)) == [500, 600]
    # right key survives (k_r) so right-only rows still carry their key
    assert "k_r" in out.columns
    k5 = out[out["rv"] == 500]
    assert int(k5["k_r"].iloc[0]) == 5


def test_bucketed_join_composite_keys():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import bucketed_join

    left = rd.from_arrow(pa.table({
        "a": pa.array([1, 1, 2, 2, None], pa.int64()),
        "b": pa.array(["x", "y", "x", None, "x"], pa.string()),
        "lv": pa.array([10, 20, 30, 40, 50], pa.int64()),
    })).repartition(2)
    right = rd.from_arrow(pa.table({
        "a": pa.array([1, 2, 1], pa.int64()),
        "b": pa.array(["x", "x", "z"], pa.string()),
        "rv": pa.array([100, 200, 300], pa.int64()),
    })).repartition(2)
    out = bucketed_join(left, right, on=["a", "b"]).to_pandas()
    # matches: (1,x) and (2,x); null-part keys never match
    got = sorted(zip(out["lv"].astype(int), out["rv"].astype(int)))
    assert got == [(10, 100), (30, 200)]
    # right key columns survive as payload (renamed on collision)
    assert "a_r" in out.columns and "b_r" in out.columns
    # semi over composite keys
    semi = bucketed_join(left, right, on=["a", "b"], how="semi").to_pandas()
    assert sorted(semi["lv"].astype(int)) == [10, 30]


def test_bucketed_join_bloom_prefilter_identical_results():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import bucketed_join

    left = rd.from_arrow(pa.table({
        "k": pa.array(list(range(1000)), pa.int64()),
        "lv": pa.array(list(range(1000)), pa.int64()),
    })).repartition(4)
    right = rd.from_arrow(pa.table({
        "k": pa.array([5, 17, 400, 999], pa.int64()),
        "rv": pa.array([1, 2, 3, 4], pa.int64()),
    })).repartition(2)
    plain = bucketed_join(left, right, on="k").to_pandas()
    pref = bucketed_join(left, right, on="k", bloom_prefilter=True).to_pandas()
    cols = ["k", "lv", "rv"]
    a = plain[cols].sort_values(cols).reset_index(drop=True)
    b = pref[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b) and len(a) == 4
    semi = bucketed_join(left, right, on="k", how="semi",
                         bloom_prefilter=True).to_pandas()
    assert sorted(semi["k"].astype(int)) == [5, 17, 400, 999]


def test_grouped_trimmed_sum_exact_vs_brute():
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import grouped_trimmed_sum

    rows = (
        # whale group with duplicate values at the trim boundary
        [{"g": "w", "v": (i * 7) % 20, "id": i} for i in range(60)]
        # group exactly at n == 2k (dropped) and below
        + [{"g": "edge", "v": i, "id": 100 + i} for i in range(4)]
        + [{"g": "tiny", "v": 9, "id": 200}]
        # group with n == 2k + 1 (one survivor)
        + [{"g": "one", "v": i * 3, "id": 300 + i} for i in range(5)]
    )
    k = 2

    def brute(name):
        sub = sorted(((r["v"], r["id"]) for r in rows if r["g"] == name))
        if len(sub) <= 2 * k:
            return None
        kept = sub[k:-k]
        s = sum(v for v, _ in kept)
        return (s, len(kept), s / len(kept))

    t = pa.Table.from_pylist(rows)
    for blocks in (1, 7):
        got = {r["g"]: (r["trimmed_sum"], r["n_kept"], r["trimmed_mean"])
               for r in grouped_trimmed_sum(
                   rd.from_arrow(t).repartition(blocks), "g", "v", k,
                   tiebreak="id").take_all()}
        assert set(got) == {"w", "one"}
        for name in ("w", "one"):
            assert got[name] == brute(name), (name, blocks)

    # 5,000 groups against a pandas brute force
    t = _events(5000)
    want = {}
    for g, sub in t.to_pandas().sort_values(["v", "id"]).groupby("g"):
        if len(sub) > 2 * k:
            kept = sub["v"].iloc[k:-k]
            want[g] = (int(kept.sum()), len(kept), int(kept.sum()) / len(kept))
    got = {r["g"]: (r["trimmed_sum"], r["n_kept"], r["trimmed_mean"])
           for r in grouped_trimmed_sum(rd.from_arrow(t).repartition(6), "g",
                                        "v", k, tiebreak="id").take_all()}
    assert got == want


def test_adaptive_join_both_plans_identical():
    # budget=0 forces the bucketed exchange; a huge budget picks the
    # broadcast fast path — both physical plans must present the SAME
    # schema and rows (VERDICT r2: scale-safe plan as the default)
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import adaptive_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 5], pa.int64()),
        "v": pa.array([10, 20, 21, 30, 50], pa.int64()),
    })).repartition(2)
    right = rd.from_arrow(pa.table({
        "rk": pa.array([1, 2, 4], pa.int64()),
        "w": pa.array(["a", "b", "d"], pa.string()),
    }))

    def run(budget):
        df = adaptive_join(
            left, right, on="k", right_on="rk",
            broadcast_budget_bytes=budget,
            right_schema=pa.schema([("rk", pa.int64()), ("w", pa.string())]),
        ).to_pandas()
        return df.sort_values(["k", "v"]).reset_index(drop=True)

    a, b = run(1 << 40), run(0)
    assert sorted(a.columns) == sorted(b.columns)
    assert len(a) == 3  # k=1 once, k=2 twice, k=3/5 unmatched
    import pandas as pd
    pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)],
                                  check_dtype=False)


def test_adaptive_join_null_keys_sql_semantics_on_both_plans():
    # SQL: a NULL join key never matches. The pandas-merge broadcast path
    # would match NaN==NaN without the small-side null drop.
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import adaptive_join

    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", None, "b"], pa.string()),
        "v": pa.array([1, 2, 3], pa.int64()),
    })).repartition(2)
    right = rd.from_arrow(pa.table({
        "k": pa.array(["a", None], pa.string()),
        "w": pa.array([10, 20], pa.int64()),
    }))

    for budget in (1 << 40, 0):
        inner = adaptive_join(left, right, on="k",
                              broadcast_budget_bytes=budget).to_pandas()
        assert sorted(zip(inner["v"], inner["w"])) == [(1, 10)], budget
        lft = adaptive_join(left, right, on="k", how="left",
                            broadcast_budget_bytes=budget).to_pandas()
        # null-key left rows survive UNMATCHED on both plans
        assert len(lft) == 3 and lft["w"].notna().sum() == 1, budget


def test_adaptive_join_collision_suffix_matches_bucketed():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import adaptive_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "deg": pa.array([7, 8], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "n": pa.array([1, 2], pa.int64()),
        "deg": pa.array([70, 80], pa.int64()),
    }))
    ls = pa.schema([("k", pa.int64()), ("deg", pa.int64())])
    rs = pa.schema([("n", pa.int64()), ("deg", pa.int64())])
    for budget in (1 << 40, 0):
        df = adaptive_join(left, right, on="k", right_on="n",
                           left_schema=ls, right_schema=rs,
                           broadcast_budget_bytes=budget).to_pandas()
        assert {"k", "deg", "deg_r"} <= set(df.columns), (budget, df.columns)
        got = df.sort_values("k")
        assert got["deg"].tolist() == [7, 8]
        assert got["deg_r"].tolist() == [70, 80]


def test_adaptive_join_semi_same_rows_on_both_plans():
    # broadcast (huge budget) and bucketed (budget 0) semi joins: each left
    # row at most once however often its key repeats on the right, and a
    # null key never matches
    from code_graph_rag_ray.stages.relational import adaptive_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, None, 5], pa.int64()),
        "v": pa.array([10, 20, 21, 30, 40, 2**53 + 1], pa.int64()),
    })).repartition(2)
    right = rd.from_arrow(pa.table({"k": pa.array([2, 2, 5, None, 7, 5],
                                                  pa.int64())}))
    for budget in (1 << 40, 0):
        df = adaptive_join(left, right, on="k", how="semi",
                           broadcast_budget_bytes=budget).to_pandas()
        assert list(df.columns) == ["k", "v"], budget
        assert sorted(zip(df["k"], df["v"])) == [
            (2, 20), (2, 21), (5, 2**53 + 1)], budget


def test_broadcast_cache_bytes_bound(ray_session, monkeypatch):
    """The concat cache evicts by ESTIMATED BYTES, not only entry count: a
    1-byte budget keeps at most one entry alive, a repeat side is a cache
    hit, and clear_broadcast_cache() empties it."""
    import pyarrow as pa
    import ray.data as rd

    import code_graph_rag_ray.stages.relational as rel

    monkeypatch.setenv("GRAFT_BROADCAST_CACHE_BUDGET", "1")
    rel.clear_broadcast_cache()
    left = rd.from_arrow(pa.table({"k": list(range(100)), "v": [1.0] * 100}))
    for i in range(3):
        small = rd.from_arrow(pa.table(
            {"k": list(range(50)), f"w{i}": list(range(50))})).materialize()
        assert rel.broadcast_join(left, small, on="k").count() == 50
        assert len(rel._BROADCAST_CONCAT_CACHE) == 1
    small2 = rd.from_arrow(pa.table(
        {"k": list(range(50)), "z": list(range(50))})).materialize()
    rel.broadcast_join(left, small2, on="k").count()
    n = len(rel._BROADCAST_CONCAT_CACHE)
    rel.broadcast_join(left, small2, on="k").count()  # hit — no growth
    assert len(rel._BROADCAST_CONCAT_CACHE) == n
    rel.clear_broadcast_cache()
    assert not rel._BROADCAST_CONCAT_CACHE


def test_bucketed_join_stale_schema_raises_descriptive_error():
    """A wrong explicit schema (stand-in for a stale probe, NOTES fact 31)
    must fail loudly with the pass-schemas fix named, not a bare KeyError
    or — worse — a silently wrong join."""
    import pytest
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import bucketed_join

    left = rd.from_arrow(pa.table({"k": [1, 2], "v": [10, 20]}))
    right = rd.from_arrow(pa.table({"k": [1, 2], "w": [7, 8]}))
    bad = bucketed_join(
        left, right, on="k",
        left_schema=pa.schema([("k", pa.int64()), ("v", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("w", pa.int64()),
                                ("ghost", pa.int64())]),
    )
    with pytest.raises(Exception, match="right_schema explicitly"):
        bad.count()


def test_concat_body_normalizes_mixed_and_schemaless_blocks():
    """Ray 2.49's to_arrow_refs leaks PANDAS blocks through its zero-copy
    path when a mixed-block dataset's schema probe lands on an Arrow block
    (session-dependent — the q3 flake). _concat_body must normalize."""
    import pandas as pd

    from code_graph_rag_ray.stages.relational import _concat_body

    arrow = pa.table({"k": [1], "v": [10]})
    pandas_blk = pd.DataFrame({"k": [2], "v": [20]})
    schemaless_empty = pd.DataFrame()
    out = _concat_body(arrow, pandas_blk, schemaless_empty, None)
    assert isinstance(out, pa.Table)
    assert sorted(out["k"].to_pylist()) == [1, 2]
    # all-empty: still an Arrow table with the typed schema preserved
    out2 = _concat_body(arrow.slice(0, 0), pd.DataFrame())
    assert isinstance(out2, pa.Table) and out2.num_rows == 0
    assert out2.schema.names == ["k", "v"]


def test_broadcast_join_mixed_block_small_side():
    import pandas as pd
    import ray.data as rd

    import code_graph_rag_ray.stages.relational as rel

    rel.clear_broadcast_cache()
    small = rd.from_arrow(pa.table({"k": [1, 2], "w": [7, 8]})).union(
        rd.from_pandas(pd.DataFrame({"k": [3], "w": [9]}))
    ).materialize()
    left = rd.from_arrow(pa.table({"k": [1, 2, 3, 4], "v": [1, 2, 3, 4]}))
    out = rel.broadcast_join(left, small, on="k").to_pandas()
    assert sorted(out["k"]) == [1, 2, 3]
    rel.clear_broadcast_cache()


def _count_per_key():
    # built per test: Ray workers cannot import test modules by name
    def count(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["a", "b"], use_threads=False).aggregate(
            [([], "count_all"), ("v", "sum")])
        return pa.table({"a": g["a"], "b": g["b"], "n": g["count_all"],
                         "s": g["v_sum"]})

    return count


def test_bucketed_groups_empty_input_is_typed():
    from code_graph_rag_ray.stages.relational import bucketed_groups

    empty = rd.from_arrow(pa.schema(
        [("a", pa.int64()), ("b", pa.date32()), ("v", pa.int64())]).empty_table())
    out = bucketed_groups(empty, ["a", "b"], _count_per_key())
    assert out.count() == 0
    assert out.schema().base_schema == pa.schema(
        [("a", pa.int64()), ("b", pa.date32()), ("n", pa.int64()),
         ("s", pa.int64())])


def test_bucketed_groups_multi_key_independent_of_blocks():
    """Non-string composite key (int64, date32, with nulls): every group
    is whole in one bucket, so the result does not depend on blocking."""
    import datetime

    from code_graph_rag_ray.stages.relational import bucketed_groups

    day = datetime.date(2024, 1, 1)
    t = pa.table({
        "a": pa.array([i % 13 if i % 17 else None for i in range(600)], pa.int64()),
        "b": pa.array([day + datetime.timedelta(days=i % 5) for i in range(600)]),
        "v": pa.array(range(600), pa.int64()),
    })

    def run(blocks: int) -> list[tuple]:
        out = bucketed_groups(rd.from_arrow(t).repartition(blocks), ["a", "b"],
                              _count_per_key()).take_all()
        return sorted(((r["a"] is None, r["a"] or 0, r["b"], r["n"], r["s"])
                       for r in out))

    one = run(1)
    assert one == run(7)
    assert sum(r[3] for r in one) == 600 and len(one) == 14 * 5


def test_bucketed_groups_fn_never_sees_bucket_column():
    from code_graph_rag_ray.stages.relational import bucketed_groups

    def cols(t: pa.Table) -> pa.Table:
        return pa.table({"cols": [",".join(t.column_names)],
                         "rows": pa.array([t.num_rows], pa.int64())})

    ds = rd.from_arrow(pa.table({"k": [f"k{i % 50}" for i in range(400)],
                                 "v": list(range(400))})).repartition(4)
    out = bucketed_groups(ds, "k", cols).take_all()
    assert {r["cols"] for r in out} == {"k,v"}
    assert sum(r["rows"] for r in out) == 400


def test_run_starts_cases():
    import numpy as np

    from code_graph_rag_ray.stages.relational import run_starts

    assert run_starts(pa.table({"g": pa.array([], pa.string())}), ["g"]).tolist() == []
    assert run_starts(pa.table({"g": ["x"]}), ["g"]).tolist() == [True]
    t = pa.table({"g": ["a", "a", "b", "b", None, None],
                  "h": [1, 2, 2, 2, 3, 3]})
    assert run_starts(t, ["g"]).tolist() == [True, False, True, False, True, False]
    assert run_starts(t, ["g", "h"]).tolist() == [True, True, True, False, True, False]
    assert run_starts(t, ["h"]).dtype == np.bool_



def _arrow_blocks(ds) -> list[pa.Table]:
    """The dataset's non-empty-schema blocks as Arrow tables, unconverted
    by Ray's dataset-level schema."""
    import ray

    blocks = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
              for b in ray.get(ds.to_arrow_refs())]
    return [b for b in blocks if b.num_columns]


def _precision_sides():
    """200 left keys, 100 of them matched, int64 payloads 2**53 + k."""
    left = rd.from_arrow(pa.table({
        "k": pa.array(range(200), pa.int64()),
        "lv": pa.array(range(200), pa.int64()),
    })).repartition(3)
    right = pa.table({
        "k": pa.array(range(0, 400, 2), pa.int64()),
        "rv": pa.array([2**53 + k for k in range(0, 400, 2)], pa.int64()),
    })
    return left, right


def test_bucketed_join_exact_int64_payload_with_unmatched_rows():
    """Unmatched rows must not turn int64 payloads into doubles: 2**53 + k
    is not a double, so a float round-trip changes every odd value."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    left, right = _precision_sides()
    right = rd.from_arrow(right).repartition(2)
    for how in ("left", "outer"):
        blocks = _arrow_blocks(bucketed_join(left, right, on="k", how=how))
        for b in blocks:
            assert b.schema.field("rv").type == pa.int64(), how
        rows = pa.concat_tables(blocks).to_pylist()
        matched = [r for r in rows if r["lv"] is not None and r["rv"] is not None]
        assert len(matched) == 100, how
        assert all(r["rv"] == 2**53 + r["k"] for r in matched), how
        assert sum(r["rv"] is None for r in rows) == 100, how
        if how == "outer":
            right_only = [r for r in rows if r["lv"] is None]
            assert len(right_only) == 100
            assert all(r["rv"] == 2**53 + r["k_r"] for r in right_only)


def test_adaptive_join_broadcast_keeps_int64_next_to_a_miss():
    """The broadcast plan of a left join: an unmatched key in the same
    batch must not turn the matched payload 2**53 + 1 into a double."""
    from code_graph_rag_ray.stages.relational import adaptive_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                    "rv": pa.array([2**53 + 1], pa.int64())}))
    blocks = _arrow_blocks(adaptive_join(left, right, on="k", how="left"))
    assert all(b.schema.field("rv").type == pa.int64() for b in blocks)
    got = {r["k"]: r["rv"] for b in blocks for r in b.to_pylist()}
    assert got == {1: 2**53 + 1, 2: None}


def test_bucketed_join_list_payload_through_left_join():
    from code_graph_rag_ray.stages.relational import bucketed_join

    left, right = _precision_sides()
    right = rd.from_arrow(right.append_column(
        "rl", pa.array([[k, 2**53 + k] for k in right["k"].to_pylist()],
                       pa.list_(pa.int64())))).repartition(2)
    blocks = _arrow_blocks(bucketed_join(left, right, on="k", how="left"))
    for b in blocks:
        assert b.schema.field("rl").type == pa.list_(pa.int64())
    rows = pa.concat_tables(blocks).to_pylist()
    assert len(rows) == 200
    assert all(r["rl"] == ([r["k"], 2**53 + r["k"]] if r["k"] % 2 == 0 else None)
               for r in rows)


def test_bucketed_join_against_empty_right_keeps_declared_schema():
    from code_graph_rag_ray.stages.relational import bucketed_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "lv": pa.array([10, 20, 30], pa.int64()),
    })).repartition(2)
    rschema = pa.schema([("k", pa.int64()), ("rv", pa.int64()),
                         ("rs", pa.string())])
    right = rd.from_arrow(rschema.empty_table()).materialize()
    declared = pa.schema([("k", pa.int64()), ("lv", pa.int64()),
                          ("rv", pa.int64()), ("rs", pa.string())])
    for how, n in (("inner", 0), ("left", 3)):
        blocks = _arrow_blocks(bucketed_join(left, right, on="k", how=how))
        assert blocks, how
        for b in blocks:
            assert b.schema == declared, (how, b.schema)
        t = pa.concat_tables(blocks)
        assert t.num_rows == n, how
        assert t["rv"].null_count == n and t["rs"].null_count == n, how
