"""Salted aggregation: exactness under a whale key."""

from __future__ import annotations

import collections

import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.skew import salted_topk_per_key


def test_salted_topk_exact_under_whale_key():
    rows = []
    # whale key: 5000 rows over 40 items with a known skewed distribution
    for i in range(5000):
        rows.append({"entity": "whale", "url": f"u{i % 40:03d}" if i % 7 else "u_hot"})
    # tail keys
    for i in range(50):
        rows.append({"entity": f"t{i % 5}", "url": f"u{i:03d}"})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))

    out = salted_topk_per_key(ds, key="entity", item="url", k=5).to_pandas()

    # oracle: plain pandas top-5 per key with the same tie-break
    import pandas as pd

    df = pd.DataFrame(rows)
    for ent, g in df.groupby("entity"):
        want = (
            g.groupby("url").size().reset_index(name="n")
            .sort_values(["n", "url"], ascending=[False, True], kind="mergesort")
            .head(5)
        )
        got = out[out.entity == ent].sort_values("rank")
        assert got.url.tolist() == want.url.tolist(), ent
        assert got.n.tolist() == want.n.tolist(), ent

    counts = collections.Counter(r["url"] for r in rows if r["entity"] == "whale")
    assert out[(out.entity == "whale") & (out["rank"] == 1)].url.iloc[0] == "u_hot"
    assert counts["u_hot"] == out[(out.entity == "whale") & (out["rank"] == 1)].n.iloc[0]

def test_global_topk_exact_across_blocks():
    """global_topk must merge block-local survivors exactly: an item whose
    total is spread across MANY blocks is not the target (inputs are
    pre-aggregated), but block boundaries must not change the answer."""
    import pandas as pd

    from code_graph_rag_ray.stages.skew import global_topk

    rows = [{"term": f"w{i:04d}", "n": (i * 37) % 500 + 1} for i in range(2000)]
    # plant exact ties at the k boundary to exercise item-ascending tie-break
    rows += [{"term": "tie_a", "n": 499}, {"term": "tie_b", "n": 499}]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(16)

    out = global_topk(ds, item="term", n_col="n", k=10).to_pandas()

    df = pd.DataFrame(rows).sort_values(
        ["n", "term"], ascending=[False, True], kind="mergesort"
    ).head(10).reset_index(drop=True)
    assert out.sort_values("rank").term.tolist() == df.term.tolist()
    assert out.sort_values("rank").n.tolist() == df.n.tolist()
    assert out["rank"].tolist() == list(range(1, 11))


def test_salted_join_whale_key_matches_plain_join():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import bucketed_join
    from code_graph_rag_ray.stages.skew import salted_join

    # whale key 7: 5000 left rows; cold keys 1..9: a handful each
    lk = np.r_[np.full(5000, 7), np.arange(1, 10).repeat(3)].astype(np.int64)
    lv = np.arange(len(lk), dtype=np.int64)
    left = rd.from_arrow(pa.table({"k": lk, "lv": lv})).repartition(8)
    right = rd.from_arrow(pa.table({
        "k": pa.array(list(range(1, 10)) + [None], pa.int64()),
        "rv": pa.array([x * 10 for x in range(1, 10)] + [999], pa.int64()),
    })).repartition(2)

    got = salted_join(left, right, on="k", hot_keys=[7], salt_factor=8).to_pandas()
    want = bucketed_join(left, right, on="k", how="inner").to_pandas()
    assert len(got) == len(want) == 5000 + 9 * 3
    key_cols = ["k", "lv", "rv"]
    a = got[key_cols].sort_values(key_cols).reset_index(drop=True)
    b = want[key_cols].sort_values(key_cols).reset_index(drop=True)
    assert a.equals(b)


def test_salted_topk_null_item_is_an_item():
    import duckdb

    t = pa.table({"entity": ["e", "e", "e", "e", "e", "f"],
                  "url": ["u1", None, "u1", None, "u2", None]})
    got = salted_topk_per_key(rd.from_arrow(t).repartition(2), key="entity",
                              item="url", k=5).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        """SELECT entity, url, count(*) AS n,
                  row_number() OVER (PARTITION BY entity
                                     ORDER BY count(*) DESC, url ASC) AS rank
           FROM t GROUP BY entity, url ORDER BY entity, rank""").fetchall()
    got = sorted(got.itertuples(index=False), key=lambda r: (r.entity, r.rank))
    assert [tuple(r) for r in got] == exp
    assert ("e", None, 2, 2) in exp
