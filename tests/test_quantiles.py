"""Exact grouped quantiles (stages/quantiles.py) vs DuckDB quantile_disc."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.quantiles import grouped_quantiles

QS = {"q25": 0.25, "q50": 0.5, "q75": 0.75, "q90": 0.9}


def _compare(df: pd.DataFrame):
    ds = rd.from_pandas(df).repartition(7)
    got = (
        grouped_quantiles(ds, key="g", value_col="v", qs=QS)
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute(
        """SELECT g, count(*)::BIGINT AS n,
                  quantile_disc(v, 0.25) AS q25, quantile_disc(v, 0.50) AS q50,
                  quantile_disc(v, 0.75) AS q75, quantile_disc(v, 0.90) AS q90
           FROM t GROUP BY g ORDER BY g"""
    ).df()
    exp = exp.astype(got.dtypes.to_dict())
    assert got.equals(exp), f"\n{got}\n{exp}"


def test_quantiles_match_duckdb_random():
    rng = np.random.default_rng(11)
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 6, 5000),
            "v": rng.integers(0, 40, 5000).astype(np.int64),
        }
    )
    _compare(df)


def test_quantiles_edge_group_sizes():
    # n=10 with q=0.9 is the float-ceil divergence case; n=1 and n=2 edges
    df = pd.DataFrame(
        {
            "g": [0] * 10 + [1] + [2, 2],
            "v": list(range(1, 11)) + [99] + [5, 7],
        }
    )
    df["v"] = df["v"].astype(np.int64)
    _compare(df)


def test_quantiles_skewed_histogram():
    # one whale value dominating the histogram
    df = pd.DataFrame({"g": [0] * 1000, "v": [3] * 990 + list(range(10))})
    df["v"] = df["v"].astype(np.int64)
    _compare(df)


def test_grouped_quantiles_cont_matches_numpy_linear():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.quantiles import grouped_quantiles_cont

    rng = np.random.default_rng(3)
    rows = []
    for g, n in (("a", 37), ("b", 8), ("c", 1)):
        for v in rng.integers(0, 500, size=n):
            rows.append({"g": g, "v": int(v)})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    out = {r["g"]: r for r in grouped_quantiles_cont(
        ds, key="g", value_col="v", qs={"p50": 0.5, "p90": 0.9}).take_all()}
    for g in ("a", "b", "c"):
        vals = np.array([r["v"] for r in rows if r["g"] == g], np.float64)
        # numpy 'linear' method IS the percentile_cont rule
        assert out[g]["p50"] == np.percentile(vals, 50, method="linear")
        assert out[g]["p90"] == np.percentile(vals, 90, method="linear")
        assert out[g]["n"] == len(vals)


def test_mad_outliers_planted():
    from code_graph_rag_ray.stages.quantiles import grouped_mad_outliers

    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "g": np.where(np.arange(n) % 2 == 0, "a", "b"),
            # tight cluster around 100 plus planted extremes
            "v": rng.integers(95, 106, n).astype(np.int64),
        }
    )
    df.loc[0, "v"] = 10_000   # group a whale
    df.loc[1, "v"] = 0        # group b low outlier
    ds = rd.from_pandas(df).repartition(9)
    got = (
        grouped_mad_outliers(ds, key="g", value_col="v", id_col="id", k=3)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute(
        """WITH med AS (SELECT g, quantile_disc(v, 0.5) AS med FROM t GROUP BY g),
             dev AS (SELECT t.id, t.g, t.v, CAST(abs(t.v - m.med) AS BIGINT) AS adev
                     FROM t JOIN med m USING (g)),
             mad AS (SELECT g, quantile_disc(adev, 0.5) AS mad FROM dev GROUP BY g)
           SELECT v.id, v.g, v.v, v.adev, CAST(m.mad AS BIGINT) AS mad
           FROM dev v JOIN mad m USING (g) WHERE v.adev > 3 * m.mad
           ORDER BY v.id"""
    ).df()
    assert {0, 1} <= set(got["id"])  # planted extremes flagged
    exp = exp.astype(got.dtypes.to_dict())
    assert got.equals(exp), f"\n{got}\n{exp}"


#: key a: [1, 2, 3, null, null]; b: [10, null, 30]; c: only nulls; d:
#: int64 values above 2^53, all in 2 blocks
_NULLS = pa.table({
    "g": ["a"] * 5 + ["b"] * 3 + ["c"] + ["d"] * 3,
    "v": pa.array([1, 2, 3, None, None, 10, None, 30, None,
                   2**53 + 1, 2**53 + 3, 5], pa.int64()),
})


def test_grouped_quantiles_ignore_nulls_and_keep_int64():
    ds = rd.from_arrow([_NULLS.slice(0, 4), _NULLS.slice(4)])
    got = (grouped_quantiles(ds, key="g", value_col="v", qs={"q50": 0.5, "q90": 0.9})
           .to_pandas().sort_values("g").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", _NULLS)
    exp = con.execute(
        """SELECT g, count(*)::BIGINT AS n, quantile_disc(v, 0.5) AS q50,
                  quantile_disc(v, 0.9) AS q90
           FROM t GROUP BY g ORDER BY g""").df()
    assert got.dtypes.to_dict() == exp.dtypes.to_dict()
    assert got.equals(exp), f"\n{got}\n{exp}"
    assert got["q50"].tolist()[:2] == [2, 10]
    assert got["q50"].iloc[3] == 2**53 + 1  # not rounded through a double


def test_grouped_quantiles_cont_ignore_nulls():
    from code_graph_rag_ray.stages.quantiles import grouped_quantiles_cont

    ds = rd.from_arrow([_NULLS.slice(0, 4), _NULLS.slice(4)])
    got = (grouped_quantiles_cont(ds, key="g", value_col="v",
                                  qs={"p50": 0.5, "p90": 0.9})
           .to_pandas().sort_values("g").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", _NULLS)
    # the catalog oracle's window-SQL replay of the interpolation, over the
    # non-null values; n stays count(*)
    exp = con.execute(
        """WITH s AS (
             SELECT g, CAST(v AS DOUBLE) AS v,
                    row_number() OVER (PARTITION BY g ORDER BY v) - 1 AS i,
                    count(*) OVER (PARTITION BY g) AS m
             FROM t WHERE v IS NOT NULL),
           k AS (SELECT g, count(*)::BIGINT AS n FROM t GROUP BY g),
           x AS (SELECT g, max(m) AS m, 0.5::DOUBLE * (max(m) - 1) AS p50x,
                        0.9::DOUBLE * (max(m) - 1) AS p90x
                 FROM s GROUP BY g)
           SELECT k.g, k.n,
                  lo50.v + (x.p50x - floor(x.p50x)) * (hi50.v - lo50.v) AS p50,
                  lo90.v + (x.p90x - floor(x.p90x)) * (hi90.v - lo90.v) AS p90
           FROM k LEFT JOIN x USING (g)
           LEFT JOIN s lo50 ON lo50.g = k.g AND lo50.i = CAST(floor(x.p50x) AS BIGINT)
           LEFT JOIN s hi50 ON hi50.g = k.g
             AND hi50.i = least(CAST(floor(x.p50x) AS BIGINT) + 1, x.m - 1)
           LEFT JOIN s lo90 ON lo90.g = k.g AND lo90.i = CAST(floor(x.p90x) AS BIGINT)
           LEFT JOIN s hi90 ON hi90.g = k.g
             AND hi90.i = least(CAST(floor(x.p90x) AS BIGINT) + 1, x.m - 1)
           ORDER BY k.g""").df()
    assert got.dtypes.to_dict() == exp.dtypes.to_dict()
    assert got.equals(exp), f"\n{got}\n{exp}"
    # DuckDB's own quantile_cont agrees to the ulp (its op order differs)
    ref = con.execute("SELECT g, quantile_cont(v, 0.5) AS p50 FROM t "
                      "GROUP BY g ORDER BY g").df()
    assert np.allclose(got["p50"], ref["p50"], rtol=1e-15, equal_nan=True)
