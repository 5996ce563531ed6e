"""Driver-facing query catalog: named Ray pipelines + DuckDB oracle SQL.

Every entry is one operator/pipeline from SURVEY.md §2 (or a training-data
op the 100 TB engine adds), expressed Ray-Data-first, with an ANSI-SQL
equivalent the driver cross-checks at sf=0.01. Column names match the SQL
exactly (the driver hashes values after sorting columns by name). Float
aggregates are rounded identically on both sides to absorb summation-order
noise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from code_graph_rag_ray.functions.vocab import (
    ENTITY_VOCAB_SORTED,
    RELATION_VOCAB_SORTED,
    STOPWORDS_SORTED,
    sql_in_list,
)
from code_graph_rag_ray.stages.extract import doc_mentions_batch, doc_triples_batch
from code_graph_rag_ray.stages.relational import (
    broadcast_join,
    broadcast_semi_join,
    partial_groupby_sum,
    run_starts,
    top_k,
)
from code_graph_rag_ray.stages.text_analysis import (
    fingerprint_batch,
    quality_batch,
    token_stats_batch,
)
from code_graph_rag_ray.stages.windows import (
    hopping_window_agg,
    session_windows_chunked,
    tumbling_window_agg,
)

_ENT_SQL = sql_in_list(ENTITY_VOCAB_SORTED)
_REL_SQL = sql_in_list(RELATION_VOCAB_SORTED)
_STOP_SQL_LIST = "[" + ", ".join(f"'{w}'" for w in STOPWORDS_SORTED) + "]"


def _pc_round(x, nd: int):
    """Arrow round matching DuckDB's tie behavior (half away from zero);
    Arrow's default half_to_even differs exactly on ties — observed as
    last-digit mismatches under the driver's exact value-hash."""
    return pc.round(x, ndigits=nd, round_mode="half_towards_infinity")


def _cents(col) -> pa.Array:
    """2-decimal money column → exact int64 cents.

    The driver hash-compares values EXACTLY; float sums are
    accumulation-order dependent, so a rounding boundary can flip between
    the Ray plan and DuckDB. Summing integer cents is exact and
    order-free; both the Ray pipelines and the oracle SQL use the same
    integer formulation."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


def _pq(sf_dir: str, table: str, columns: list[str] | None = None):
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# relational (TPC-H-ish)
# ---------------------------------------------------------------------------

def q1_pricing_summary(sf_dir: str):
    """Grouped pricing summary — two-phase (combiner) aggregation."""
    ds = _pq(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def add_exact(b: pa.Table) -> pa.Table:
        price_c = _cents(b["l_extendedprice"])
        disc_c = _cents(b["l_discount"])  # discount in hundredths
        disc_price_cc = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.table(
            {"l_returnflag": b["l_returnflag"], "l_linestatus": b["l_linestatus"],
             "qty": pc.cast(pc.round(b["l_quantity"]), pa.int64()),
             "price_c": price_c, "disc_price_cc": disc_price_cc}
        )

    ds = ds.map_batches(add_exact, batch_format="pyarrow")
    out = partial_groupby_sum(
        ds,
        ["l_returnflag", "l_linestatus"],
        {"qty": "sum_qty_i", "price_c": "base_c", "disc_price_cc": "disc_cc"},
        count_alias="n_rows",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"l_returnflag": b["l_returnflag"], "l_linestatus": b["l_linestatus"],
             "sum_qty": pc.cast(b["sum_qty_i"], pa.float64()),
             "sum_base_price": pc.divide(pc.cast(b["base_c"], pa.float64()), 100.0),
             "sum_disc_price": _pc_round(
                 pc.divide(pc.cast(b["disc_cc"], pa.float64()), 10000.0), 2
             ),
             "n_rows": b["n_rows"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sum_qty,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0 AS sum_base_price,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 2)
           AS sum_disc_price,
       count(*) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q3_top_revenue_orders(sf_dir: str):
    """Fully distributed plan: segment and date filters run as Arrow
    predicates inside tasks; orders ⋈ customer and lineitem ⋈ orders go
    through the bucketed cogroup join; only the 10-row top-k reaches the
    driver. No ``to_pandas``/``take_all`` on any fact-scale table."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    cust = (
        _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
    )

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def date_filter(b: pa.Table) -> pa.Table:
        lim = pa.scalar(pd.Timestamp("1997-01-01").to_pydatetime()).cast(
            b["o_orderdate"].type
        )
        f = b.filter(pc.less(b["o_orderdate"], lim))
        # date as string: timestamp columns change resolution through shuffles
        return pa.table(
            {"o_orderkey": f["o_orderkey"], "o_custkey": f["o_custkey"],
             "o_orderdate": pc.strftime(f["o_orderdate"], format="%Y-%m-%d")}
        )

    orders = orders.map_batches(date_filter, batch_format="pyarrow")
    oc = bucketed_join(
        orders, cust, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.string())]
        ),
        # explicit: a filter(expr)+select_columns plan's schema probe is
        # session-state dependent (NOTES fact 31) — never probe it
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    ).select_columns(["o_orderkey", "o_orderdate"])

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def add_rev(b: pa.Table) -> pa.Table:
        rev_cc = pc.multiply(
            _cents(b["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(b["l_discount"])),
        )
        return pa.table({"l_orderkey": b["l_orderkey"], "rev_cc": rev_cc})

    # lineitem streams against the (filtered) join OUTPUT: adaptive_join
    # measures the date+segment-filtered orders projection and broadcasts
    # it (object-store blocks, never the driver) only while it fits the
    # worker budget — past that it degrades to the bucketed exchange
    # automatically, so the plan survives any scale unchanged.
    from code_graph_rag_ray.stages.relational import adaptive_join

    joined = adaptive_join(
        li.map_batches(add_rev, batch_format="pyarrow"),
        oc, on="l_orderkey", right_on="o_orderkey",
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.string())]),
    )
    agg = partial_groupby_sum(
        joined, ["l_orderkey", "o_orderdate"], {"rev_cc": "rev_cc"},
    )
    top = top_k(agg, "rev_cc", 10).to_pandas()
    top = top.rename(columns={"l_orderkey": "o_orderkey"})
    top = top.sort_values(["rev_cc", "o_orderkey"], ascending=[False, True]).head(10)
    # integer half-away rounding to cents — exact, tie-mode independent
    top["revenue"] = ((top["rev_cc"] + 50) // 100) / 100.0
    return top[["o_orderkey", "o_orderdate", "revenue"]].reset_index(drop=True)


Q3_SQL = """
SELECT o_orderkey, strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 2)
           AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY o_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderkey LIMIT 10
"""


def q5_nation_revenue(sf_dir: str):
    """TPC-H q5 shape (c_nationkey = s_nationkey), distributed: the
    fact-scale orders ⋈ customer join is a bucketed cogroup join, lineitem
    then joins its output on orderkey; only the GENUINELY small dimensions
    (supplier→nation, nation→name) are broadcast lookups."""
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast
    from code_graph_rag_ray.stages.relational import bucketed_join

    nation = _pq(sf_dir, "nation").to_pandas()
    supplier = _pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    ref = ray.put(
        (pd.Series(dict(zip(supplier.s_suppkey, supplier.s_nationkey))),
         pd.Series(dict(zip(nation.n_nationkey, nation.n_name))))
    )

    customer = _pq(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    oc = bucketed_join(
        orders, customer, on="o_custkey", right_on="c_custkey"
    ).select_columns(["o_orderkey", "c_nationkey"])

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        rev_cc = pc.multiply(
            _cents(b["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(b["l_discount"])),
        )
        return pa.table(
            {"l_orderkey": b["l_orderkey"], "l_suppkey": b["l_suppkey"],
             "rev_cc": rev_cc}
        )

    # lineitem joins the orders⋈customer OUTPUT through adaptive_join:
    # the orderkey→nationkey projection is measured, broadcast while it
    # fits the worker budget (object-store blocks, never the driver) and
    # exchanged through the bucketed cogroup once it doesn't — the
    # 100×-scale plan needs no code change.
    from code_graph_rag_ray.stages.relational import adaptive_join

    joined = adaptive_join(
        li.map_batches(prep, batch_format="pyarrow"),
        oc, on="l_orderkey", right_on="o_orderkey",
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("c_nationkey", pa.int64())]),
    )

    def resolve(b: pa.Table) -> pa.Table:
        supp_n, nat_name = get_broadcast(ref)
        sn = pd.Series(b["l_suppkey"].to_numpy(zero_copy_only=False)).map(supp_n).to_numpy()
        cn = b["c_nationkey"].to_numpy(zero_copy_only=False)
        keep = (cn == sn) & ~pd.isna(cn)
        names = pd.Series(cn[keep]).map(nat_name).to_numpy()
        return pa.table(
            {"n_name": pa.array(names, pa.string()),
             "rev_cc": pa.array(b["rev_cc"].to_numpy(zero_copy_only=False)[keep], pa.int64())}
        )

    resolved = joined.map_batches(resolve, batch_format="pyarrow")
    out = partial_groupby_sum(resolved, ["n_name"], {"rev_cc": "rev_cc"})

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"n_name": b["n_name"],
             "revenue": _pc_round(pc.divide(pc.cast(b["rev_cc"], pa.float64()), 10000.0), 2)}
        )

    return out.map_batches(finish, batch_format="pyarrow")


def customer_name_ed1(sf_dir: str):
    """Edit-distance-1 fuzzy name pairs (stages/dedup.editdist1_pairs):
    exact-recall 1-deletion-neighborhood blocking + exact verify — the
    typo-tolerant alias-dedup tier, here over customer names (digit
    substitutions)."""
    from code_graph_rag_ray.stages.dedup import editdist1_pairs

    ds = _pq(sf_dir, "customer", ["c_name"])
    pairs = editdist1_pairs(ds, col="c_name", assume_distinct=True)
    return pairs.select_columns(["a", "b"])


CUSTOMER_NAME_ED1_SQL = """
WITH t AS (SELECT DISTINCT c_name FROM customer)
SELECT a.c_name AS a, b.c_name AS b
FROM t a JOIN t b ON a.c_name < b.c_name
WHERE abs(length(a.c_name) - length(b.c_name)) <= 1
  AND levenshtein(a.c_name, b.c_name) <= 1
"""


def customer_record_linkage(sf_dir: str):
    """Record linkage (Fellegi & Sunter 1969 analog): ED1 name blocking →
    field-agreement scoring → match / possible / non_match classes. The
    integer agreement weights (nation +4, segment +3, |acctbal| ≤ 100.00
    +2; thresholds 7 / 4) are the deterministic rule-based tier of the
    classic probabilistic scorer — learned m/u weights would need EM, so
    the weights are FIXED and documented, which is what keeps the whole
    classifier bit-exact vs SQL.

    Scale shape: exact-recall 1-deletion blocking
    (stages/dedup.editdist1_pairs) generates candidates; record
    attributes reach the pair table through the near-dup payload fetch
    (stages/dedup._attach_pair_payload — broadcast while the suspects
    fit the budget, a bucketed shuffle beyond, never a driver copy of the
    record table); scoring is one vectorized pass."""
    from code_graph_rag_ray.stages.dedup import _attach_pair_payload, editdist1_pairs

    cust = _pq(sf_dir, "customer",
               ["c_name", "c_nationkey", "c_mktsegment", "c_acctbal"])

    def attrs(b: pa.Table) -> pa.Table:
        return pa.table(
            {"name": b["c_name"],
             "nat": pc.cast(b["c_nationkey"], pa.int64()),
             "seg": b["c_mktsegment"],
             "bal_c": _cents(b["c_acctbal"])}
        )

    at = cust.map_batches(attrs, batch_format="pyarrow")
    pairs = editdist1_pairs(
        _pq(sf_dir, "customer", ["c_name"]), col="c_name",
        assume_distinct=True,
    )

    def score(b: pa.Table) -> pa.Table:
        sn = pc.equal(b["nat"], b["nat_r"]).to_numpy(zero_copy_only=False)
        ss = pc.equal(b["seg"], b["seg_r"]).to_numpy(zero_copy_only=False)
        bc = (np.abs(b["bal_c"].to_numpy(zero_copy_only=False)
                     - b["bal_c_r"].to_numpy(zero_copy_only=False))
              <= 10000)
        sc = 4 * sn.astype(np.int64) + 3 * ss.astype(np.int64) \
            + 2 * bc.astype(np.int64)
        klass = np.where(sc >= 7, "match",
                         np.where(sc >= 4, "possible", "non_match"))
        return pa.table(
            {"a": b["a"], "b": b["b"],
             "same_nation": pa.array(sn), "same_segment": pa.array(ss),
             "bal_close": pa.array(bc), "score": pa.array(sc),
             "klass": pa.array(klass.astype(object), pa.string())}
        )

    return _attach_pair_payload(pairs, at, "name", score)


CUSTOMER_RECORD_LINKAGE_SQL = """
WITH t AS (SELECT c_name, c_nationkey, c_mktsegment,
                  CAST(round(c_acctbal * 100) AS BIGINT) AS bal_c
           FROM customer),
p AS (
  SELECT a.c_name AS a, b.c_name AS b,
         (a.c_nationkey = b.c_nationkey) AS same_nation,
         (a.c_mktsegment = b.c_mktsegment) AS same_segment,
         (abs(a.bal_c - b.bal_c) <= 10000) AS bal_close
  FROM t a JOIN t b ON a.c_name < b.c_name
  WHERE abs(length(a.c_name) - length(b.c_name)) <= 1
    AND levenshtein(a.c_name, b.c_name) <= 1),
s AS (
  SELECT *, (CASE WHEN same_nation THEN 4 ELSE 0 END
             + CASE WHEN same_segment THEN 3 ELSE 0 END
             + CASE WHEN bal_close THEN 2 ELSE 0 END)::BIGINT AS score
  FROM p)
SELECT a, b, same_nation, same_segment, bal_close, score,
       CASE WHEN score >= 7 THEN 'match'
            WHEN score >= 4 THEN 'possible'
            ELSE 'non_match' END AS klass
FROM s
"""


def orders_trimmed_mean(sf_dir: str):
    """Exact 5-trimmed mean of order value per priority
    (stages/relational.grouped_trimmed_sum): the robust-aggregation shape —
    block-local extreme survivors + summary rows, one shuffle, integer
    cents, single final IEEE division."""
    from code_graph_rag_ray.stages.relational import grouped_trimmed_sum

    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice", "o_orderkey"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": b["o_orderpriority"],
            "v_cc": _cents(b["o_totalprice"]),
            "o_orderkey": b["o_orderkey"],
        })

    return grouped_trimmed_sum(ds.map_batches(cents, batch_format="pyarrow"),
                               "o_orderpriority", "v_cc", 5,
                               tiebreak="o_orderkey")


ORDERS_TRIMMED_MEAN_SQL = """
WITH t AS (
  SELECT o_orderpriority AS g,
         CAST(round(o_totalprice * 100) AS BIGINT) AS v,
         o_orderkey AS tb
  FROM orders),
r AS (
  SELECT g, v,
         row_number() OVER (PARTITION BY g ORDER BY v, tb) AS ra,
         row_number() OVER (PARTITION BY g ORDER BY v DESC, tb DESC) AS rd,
         count(*) OVER (PARTITION BY g) AS n
  FROM t)
SELECT g AS o_orderpriority,
       CAST(sum(v) AS BIGINT) AS trimmed_sum,
       count(*)::BIGINT AS n_kept,
       CAST(sum(v) AS BIGINT)::DOUBLE / count(*)::DOUBLE AS trimmed_mean
FROM r WHERE ra > 5 AND rd > 5 AND n > 10
GROUP BY g
"""


def q18_large_volume_customers(sf_dir: str):
    """TPC-H q18 shape, fully distributed: the HAVING subquery is a
    combiner-first grouped sum over fact-scale lineitem (quantities are
    exact integers, summed as int64), survivors semi-drive two bucketed
    cogroup joins (orders, then customer). No driver-side fact
    materialization; dates ride as strings (timestamp columns change
    resolution across shuffles)."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qty(b: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "qty": pc.cast(b["l_quantity"], pa.int64())})

    sums = partial_groupby_sum(li.map_batches(qty, batch_format="pyarrow"),
                               ["l_orderkey"], {"qty": "sum_qty"})
    big = sums.map_batches(lambda b: b.filter(pc.greater(b["sum_qty"], 200)),
                           batch_format="pyarrow")

    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def fmt(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"], "o_custkey": b["o_custkey"],
            "o_orderdate": pc.strftime(b["o_orderdate"], format="%Y-%m-%d"),
            "o_totalprice": b["o_totalprice"],
        })

    od = bucketed_join(
        orders.map_batches(fmt, batch_format="pyarrow"), big,
        on="o_orderkey", right_on="l_orderkey",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.string()), ("o_totalprice", pa.float64())]),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("sum_qty", pa.int64())]),
    )
    customer = _pq(sf_dir, "customer", ["c_custkey", "c_name"])
    oc = bucketed_join(
        od, customer, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
             ("o_orderdate", pa.string()), ("o_totalprice", pa.float64()),
             ("sum_qty", pa.int64())]),
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_name", pa.string())]),
    )
    def project(b: pa.Table) -> pa.Table:
        # the cogroup join drops its right key; c_custkey == o_custkey on
        # the inner join, so surface it under the SQL output name
        return pa.table({
            "c_name": b["c_name"], "c_custkey": b["o_custkey"],
            "o_orderkey": b["o_orderkey"], "o_orderdate": b["o_orderdate"],
            "o_totalprice": b["o_totalprice"], "sum_qty": b["sum_qty"],
        })

    return oc.map_batches(project, batch_format="pyarrow")


Q18_SQL = """
WITH big AS (
  SELECT l_orderkey, CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING sum(CAST(l_quantity AS BIGINT)) > 200)
SELECT c.c_name, c.c_custkey, o.o_orderkey,
       strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
       o.o_totalprice, b.sum_qty
FROM big b
JOIN orders o ON o.o_orderkey = b.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
"""


Q5_SQL = """
SELECT n_name,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 2)
           AS revenue
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON c_nationkey = n_nationkey
WHERE c_nationkey = s_nationkey
GROUP BY n_name
"""


def q4_status_revenue(sf_dir: str):
    """Large-large join exercised without broadcast: lineitem ⨝ orders via
    the explicit bucketed cogroup hash join, then combiner aggregation."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    joined = bucketed_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    def add_rev(b: pa.Table) -> pa.Table:
        rev_cc = pc.multiply(
            _cents(b["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(b["l_discount"])),
        )
        return b.append_column("rev_cc", rev_cc)

    out = partial_groupby_sum(
        joined.map_batches(add_rev, batch_format="pyarrow"),
        ["o_orderstatus"], {"rev_cc": "rev_cc"}, count_alias="n_items",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderstatus": b["o_orderstatus"],
             "revenue": _pc_round(pc.divide(pc.cast(b["rev_cc"], pa.float64()), 10000.0), 2),
             "n_items": b["n_items"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


Q4_SQL = """
SELECT o_orderstatus,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 2)
           AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderstatus
"""


def orders_by_priority(sf_dir: str):
    ds = _pq(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderpriority": b["o_orderpriority"], "tp_c": _cents(b["o_totalprice"])}
        )

    out = partial_groupby_sum(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        ["o_orderpriority"], {"tp_c": "tp_c"}, count_alias="n_orders",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderpriority": b["o_orderpriority"],
             "sum_totalprice": pc.divide(pc.cast(b["tp_c"], pa.float64()), 100.0),
             "n_orders": b["n_orders"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


ORDERS_PRIORITY_SQL = """
SELECT o_orderpriority,
       sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS sum_totalprice,
       count(*) AS n_orders
FROM orders GROUP BY o_orderpriority
"""


def parts_by_brand(sf_dir: str):
    """Per-brand part stats (size avg exact via integer sums)."""
    ds = _pq(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {"p_brand": b["p_brand"], "size_i": pc.cast(b["p_size"], pa.int64()),
             "price_c": _cents(b["p_retailprice"])}
        )

    out = partial_groupby_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["p_brand"], {"size_i": "size_sum", "price_c": "price_c"},
        count_alias="n_parts",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"p_brand": b["p_brand"], "n_parts": b["n_parts"],
             "avg_size": _pc_round(
                 pc.divide(pc.cast(b["size_sum"], pa.float64()),
                           pc.cast(b["n_parts"], pa.float64())), 4),
             "sum_retailprice": pc.divide(pc.cast(b["price_c"], pa.float64()), 100.0)}
        )

    return out.map_batches(finish, batch_format="pyarrow")


PARTS_BY_BRAND_SQL = """
SELECT p_brand, count(*) AS n_parts,
       round(CAST(sum(CAST(p_size AS BIGINT)) AS DOUBLE) / count(*), 4) AS avg_size,
       sum(CAST(round(p_retailprice * 100) AS BIGINT)) / 100.0 AS sum_retailprice
FROM part GROUP BY p_brand
"""


def nations_per_region(sf_dir: str):
    """Dimension-chain join (region ⋈ nation) via broadcast lookup."""
    from ray.data.aggregate import Count

    region = _pq(sf_dir, "region").to_pandas()
    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    joined = broadcast_join(
        nation, region[["r_regionkey", "r_name"]], on="n_regionkey", right_on="r_regionkey"
    )
    return joined.groupby("r_name").aggregate(Count(alias_name="n_nations"))


NATIONS_PER_REGION_SQL = """
SELECT r_name, count(*) AS n_nations
FROM nation JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def top10_customers(sf_dir: str):
    ds = _pq(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    t = top_k(ds, "c_acctbal", 10).to_pandas()
    return t.sort_values(["c_acctbal", "c_custkey"], ascending=[False, True]).head(10).reset_index(drop=True)


TOP10_CUSTOMERS_SQL = """
SELECT c_custkey, c_name, c_acctbal FROM customer
ORDER BY c_acctbal DESC, c_custkey LIMIT 10
"""


def distinct_mktsegments(sf_dir: str):
    ds = _pq(sf_dir, "customer", ["c_mktsegment"])
    vals = sorted(ds.unique("c_mktsegment"))
    return pa.table({"c_mktsegment": pa.array(vals, pa.string())})


DISTINCT_MKTSEG_SQL = "SELECT DISTINCT c_mktsegment FROM customer"


def orders_anti_building(sf_dir: str):
    """Exact large-large ANTI join: orders whose customer is NOT in the
    BUILDING segment — the bucketed cogroup existence join
    (stages/relational.bucketed_join how='anti'); only the right key
    column crosses the shuffle. Complements the probabilistic bloom
    pre-filter with the exact path."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr="c_mktsegment == 'BUILDING'"
    ).select_columns(["c_custkey"])
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return bucketed_join(orders, cust, on="o_custkey", right_on="c_custkey",
                         how="anti",
                         left_schema=pa.schema([("o_orderkey", pa.int64()),
                                                ("o_custkey", pa.int64())]),
                         right_schema=pa.schema([("c_custkey", pa.int64())]))


ORDERS_ANTI_BUILDING_SQL = """
SELECT o_orderkey, o_custkey FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM customer c
  WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 'BUILDING')
"""


def orders_rollup(sf_dir: str):
    """Hierarchical subtotals (SQL ROLLUP) over orders: status →
    status+priority → grand total. One two-phase pass over the input;
    coarser levels re-aggregate the (tiny) finest output
    (stages/reshape.py). Integer cents keep every level bit-exact."""
    from code_graph_rag_ray.stages.reshape import rollup_sum

    ds = _pq(sf_dir, "orders",
             ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(b["o_totalprice"], pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(
            {"o_orderstatus": b["o_orderstatus"],
             "o_orderpriority": b["o_orderpriority"], "cents": c}
        )

    return rollup_sum(ds.map_batches(cents, batch_format="pyarrow"),
                      ["o_orderstatus", "o_orderpriority"], "cents",
                      out_col="total_cents")


ORDERS_ROLLUP_SQL = """
SELECT o_orderstatus, o_orderpriority,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
"""


def orders_cube(sf_dir: str):
    """All-subsets subtotals (SQL CUBE) over orders: every grouping set of
    {status, priority} incl. the priority-only marginal ROLLUP lacks.
    The input is aggregated once; the 2^k−1 coarser sets re-aggregate the
    tiny finest table (stages/reshape.py cube_sum)."""
    from code_graph_rag_ray.stages.reshape import cube_sum

    ds = _pq(sf_dir, "orders",
             ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(b["o_totalprice"], pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(
            {"o_orderstatus": b["o_orderstatus"],
             "o_orderpriority": b["o_orderpriority"], "cents": c}
        )

    return cube_sum(ds.map_batches(cents, batch_format="pyarrow"),
                    ["o_orderstatus", "o_orderpriority"], "cents",
                    out_col="total_cents")


ORDERS_CUBE_SQL = """
SELECT o_orderstatus, o_orderpriority,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders GROUP BY CUBE (o_orderstatus, o_orderpriority)
"""


def doc_pivot_sources(sf_dir: str):
    """Long → wide reshaping: per-lang character volume pivoted to one
    column per source (stages/reshape.py pivot_sum) — a single two-phase
    conditional aggregation, no per-column scans."""
    from code_graph_rag_ray.stages.reshape import pivot_sum

    ds = _pq(sf_dir, "documents", ["lang", "source", "n_chars"])
    return pivot_sum(ds, "lang", "source", "n_chars",
                     [f"src{i}" for i in range(20)])


DOC_PIVOT_SOURCES_SQL = "SELECT lang, " + ", ".join(
    f"coalesce(sum(CASE WHEN source = 'src{i}' THEN n_chars END), 0)"
    f"::BIGINT AS src{i}"
    for i in range(20)
) + " FROM documents GROUP BY lang"


def orders_bloom_building(sf_dir: str):
    """Bloom semi-join: orders whose o_custkey hits a bloom built from the
    BUILDING-segment customers — the shuffle-free membership pre-filter
    (stages/bloom.py). m is deliberately small (4096) so the oracle also
    replays the FALSE POSITIVES: DuckDB recomputes the identical md5 double
    hashes and bit positions, proving the distributed bitmap fold is exact,
    not just approximately right."""
    import ray

    from code_graph_rag_ray.stages.bloom import bloom_build, bloom_semi_join

    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr="c_mktsegment == 'BUILDING'"
    )
    bits = bloom_build(cust, "c_custkey", m_bits=4096, k=3, hash_fn="md5")
    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return bloom_semi_join(orders, "o_custkey", ray.put(bits),
                           m_bits=4096, k=3, hash_fn="md5")


# the oracle rebuilds the exact bitmap: h1/h2 = first/second 4 md5 digest
# bytes of the key string, positions (h1 + i*h2) % 4096 — a probe row
# passes iff NONE of its k positions is missing from the build set
ORDERS_BLOOM_SQL = """
WITH i AS (SELECT unnest(range(3)) AS i),
bpos AS (
  SELECT DISTINCT
     (('0x' || substr(md5(CAST(c_custkey AS VARCHAR)), 1, 8))::UBIGINT
      + i.i * ('0x' || substr(md5(CAST(c_custkey AS VARCHAR)), 9, 8))::UBIGINT)
     % 4096 AS p
  FROM customer CROSS JOIN i WHERE c_mktsegment = 'BUILDING')
SELECT o_orderkey, o_custkey
FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM i
  WHERE (('0x' || substr(md5(CAST(o.o_custkey AS VARCHAR)), 1, 8))::UBIGINT
         + i.i * ('0x' || substr(md5(CAST(o.o_custkey AS VARCHAR)), 9, 8))::UBIGINT)
        % 4096 NOT IN (SELECT p FROM bpos))
"""


# ---------------------------------------------------------------------------
# events (stream-shaped)
# ---------------------------------------------------------------------------

def events_hourly(sf_dir: str):
    ds = _pq(sf_dir, "events", ["ts", "event_type", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"ts": b["ts"], "event_type": b["event_type"], "value_c": _cents(b["value"])}
        )

    out = tumbling_window_agg(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        window_s=3600, value_col="value_c",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": b["event_type"], "window_start": b["window_start"],
             "sum_value": pc.divide(pc.cast(b["sum_value"], pa.float64()), 100.0),
             "n_events": b["n_events"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_HOURLY_SQL = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) * 3600 AS BIGINT) AS window_start,
       sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS sum_value,
       count(*) AS n_events
FROM events GROUP BY 1, 2
"""


def events_sliding_hour(sf_dir: str):
    """Per-user sliding 1h-window running sum (RANGE semantics: all events
    of that user in [ts-1h, ts]). One time-chunk shuffle with boundary
    context replication (stages/windows.sliding_time_sum); integer cents →
    bit-exact vs SQL's RANGE window frame."""
    from code_graph_rag_ray.stages.windows import sliding_time_sum

    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "ts": b["ts"], "user_id": b["user_id"],
             "value_c": _cents(b["value"])}
        )

    out = sliding_time_sum(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        value_col="value_c", window_s=3600,
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "user_id": b["user_id"],
             "ts_us": b["ts_us"],
             "w_sum": pc.divide(pc.cast(b["w_sum"], pa.float64()), 100.0),
             "w_n": b["w_n"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_SLIDING_HOUR_SQL = """
SELECT event_id, user_id,
       CAST(epoch_us(CAST(ts AS TIMESTAMP)) AS BIGINT) AS ts_us,
       sum(CAST(round(value * 100) AS BIGINT))
         OVER w / 100.0 AS w_sum,
       CAST(count(*) OVER w AS BIGINT) AS w_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def events_running_total(sf_dir: str):
    """Per-user cumulative running total — the distributed unbounded
    window function ``sum(v) OVER (PARTITION BY user ORDER BY ts)``.
    Chunked two-phase: per-(key, time-chunk) totals → per-key exclusive
    prefix over the SUMMARIES → one cogroup of events and carry-ins runs
    the local RANGE prefix per bucket
    (stages/windows.running_total_per_key). Integer cents → bit-exact."""
    from code_graph_rag_ray.stages.windows import running_total_per_key

    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "ts": b["ts"], "user_id": b["user_id"],
             "value_c": _cents(b["value"])}
        )

    out = running_total_per_key(
        ds.map_batches(to_cents, batch_format="pyarrow"), value_col="value_c"
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "user_id": b["user_id"],
             "ts_us": b["ts_us"],
             "run_total": pc.divide(pc.cast(b["run"], pa.float64()), 100.0)}
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_RUNNING_TOTAL_SQL = """
SELECT event_id, user_id,
       CAST(epoch_us(CAST(ts AS TIMESTAMP)) AS BIGINT) AS ts_us,
       sum(CAST(round(value * 100) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts) / 100.0 AS run_total
FROM events
"""


def events_lag(sf_dir: str):
    """Per-user LAG window function (stages/windows.lag_per_key):
    previous event's value under ORDER BY (ts, event_id) — deterministic
    under equal timestamps. Cross-chunk state is ONE boundary row per
    (key, chunk), two-phase-picked so the exchange is O(keys × chunks).
    Misses carry -1 (dtype-stable sentinel). Integer cents → bit-exact."""
    from code_graph_rag_ray.stages.windows import lag_per_key

    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "ts": b["ts"], "user_id": b["user_id"],
             "value_c": _cents(b["value"])}
        )

    out = lag_per_key(ds.map_batches(to_cents, batch_format="pyarrow"),
                      value_col="value_c")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "user_id": b["user_id"],
             "ts_us": b["ts_us"],
             "prev_value": pc.divide(pc.cast(b["prev"], pa.float64()), 100.0)}
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_LAG_SQL = """
SELECT event_id, user_id,
       CAST(epoch_us(CAST(ts AS TIMESTAMP)) AS BIGINT) AS ts_us,
       COALESCE(lag(CAST(round(value * 100) AS BIGINT))
                  OVER (PARTITION BY user_id ORDER BY ts, event_id),
                -1) / 100.0 AS prev_value
FROM events
"""


def events_lead(sf_dir: str):
    """Per-user LEAD (stages/windows.lag_per_key(direction="lead")): the
    NEXT event's value under the same deterministic (ts, id) order — the
    lag machinery with every step mirrored (first boundary row per chunk,
    carry from the successor chunk). -1 sentinel for each key's last
    row."""
    from code_graph_rag_ray.stages.windows import lag_per_key

    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "ts": b["ts"], "user_id": b["user_id"],
             "value_c": _cents(b["value"])}
        )

    out = lag_per_key(ds.map_batches(to_cents, batch_format="pyarrow"),
                      value_col="value_c", direction="lead")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_id": b["event_id"], "user_id": b["user_id"],
             "ts_us": b["ts_us"],
             "next_value": pc.divide(pc.cast(b["next"], pa.float64()), 100.0)}
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_LEAD_SQL = """
SELECT event_id, user_id,
       CAST(epoch_us(CAST(ts AS TIMESTAMP)) AS BIGINT) AS ts_us,
       COALESCE(lead(CAST(round(value * 100) AS BIGINT))
                  OVER (PARTITION BY user_id ORDER BY ts, event_id),
                -1) / 100.0 AS next_value
FROM events
"""


def events_user_mode(sf_dir: str):
    """Grouped MODE (argmax): each user's most frequent event_type, ties
    broken by smallest event_type — pure composition of existing
    primitives: two-phase (user, type) counts (combiner before the
    shuffle) → block-local per-group truncation (grouped_top_k, k=1), so
    a whale user exchanges O(blocks) candidate rows, never its event
    count."""
    from code_graph_rag_ray.stages.relational import grouped_top_k, partial_groupby_sum

    ds = _pq(sf_dir, "events", ["user_id", "event_type"])
    counts = partial_groupby_sum(ds, ["user_id", "event_type"], {}, count_alias="n")
    top = grouped_top_k(counts, "user_id", "n", 1, tiebreak="event_type")
    return top.map_batches(
        lambda b: pa.table(
            {"user_id": b["user_id"], "mode_event": b["event_type"],
             "n": pc.cast(b["n"], pa.int64())}
        ),
        batch_format="pyarrow",
    )


EVENTS_USER_MODE_SQL = """
SELECT user_id, event_type AS mode_event, n FROM (
  SELECT user_id, event_type, count(*)::BIGINT AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type) AS rk
  FROM events GROUP BY user_id, event_type)
WHERE rk = 1
"""


def events_customer_outer(sf_dir: str):
    """FULL OUTER join: per-user event counts ⟗ customer names on
    user_id = c_custkey (partially overlapping key ranges, so both
    unmatched sides are non-empty). Exercises bucketed_join(how="outer"):
    both sides' unmatched rows survive with nulls, the right key is kept
    for the coalesce, and null keys never match each other."""
    from code_graph_rag_ray.stages.relational import bucketed_join, partial_groupby_sum

    ev = _pq(sf_dir, "events", ["user_id"])
    counts = partial_groupby_sum(ev, ["user_id"], {}, count_alias="n_events")
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = bucketed_join(
        counts, cust, on="user_id", right_on="c_custkey", how="outer",
        left_schema=pa.schema([("user_id", pa.int64()), ("n_events", pa.int64())]),
    )

    def finish(b: pa.Table) -> pa.Table:
        # n_events stays int64 with nulls: to_pandas renders it float64/NaN,
        # as DuckDB's fetchdf renders a NULL-bearing BIGINT
        return pa.table({
            "key": pc.coalesce(b["user_id"], b["c_custkey"]),
            "n_events": b["n_events"], "c_mktsegment": b["c_mktsegment"]})

    return j.map_batches(finish, batch_format="pyarrow")


EVENTS_CUSTOMER_OUTER_SQL = """
SELECT COALESCE(e.user_id, c.c_custkey) AS key,
       e.n_events, c.c_mktsegment
FROM (SELECT user_id, count(*)::BIGINT AS n_events
      FROM events GROUP BY user_id) e
FULL OUTER JOIN customer c ON e.user_id = c.c_custkey
"""


def events_type_distinct_users(sf_dir: str):
    """Exact grouped COUNT(DISTINCT): distinct users per event_type — the
    exact companion of the HLL sketch (events_user_hll). Two-phase:
    batch-local (type, user) dedup shrinks the exchange by the local
    duplication factor, ONE groupby dedups globally, then a combiner
    count. The sketch answers the same question in O(registers); this
    path is for when the answer must be exact."""
    from code_graph_rag_ray.stages.materialize import exact_dedup
    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    ds = _pq(sf_dir, "events", ["event_type", "user_id"])
    pairs = exact_dedup(ds, keys=["event_type", "user_id"],
                        columns=["event_type", "user_id"])
    return partial_groupby_sum(pairs, ["event_type"], {}, count_alias="n_users")


EVENTS_TYPE_DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type
"""


def events_salted_segment_counts(sf_dir: str):
    """Whale-key-salted fact⋈dimension join: events ⋈ customer on
    user_id = c_custkey with the head users salted across 8 sub-keys
    (stages/skew.salted_join — hot LEFT rows split, matching right rows
    replicated once per salt), then a two-phase segment count. The salt is
    invisible in the result: the oracle is the plain inner join."""
    from code_graph_rag_ray.stages.relational import partial_groupby_sum
    from code_graph_rag_ray.stages.skew import salted_join

    ev = _pq(sf_dir, "events", ["user_id", "event_type"])
    cust = _pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    # a deterministic "known-hot" set (in production: a prior heavy-hitter
    # pass / count sample); correctness never depends on the choice
    j = salted_join(ev, cust, on="user_id", right_on="c_custkey",
                    hot_keys=[1, 2, 3, 5, 8], salt_factor=8)
    return partial_groupby_sum(j, ["c_mktsegment"], {}, count_alias="n_events")


EVENTS_SALTED_SEGMENT_COUNTS_SQL = """
SELECT c_mktsegment, count(*)::BIGINT AS n_events
FROM events e JOIN customer c ON e.user_id = c.c_custkey
GROUP BY c_mktsegment
"""


def doc_profile(sf_dir: str):
    """Per-column table profiling over documents (stages/profile.py): row
    count, null count, exact distinct count, lexicographic min/max — the
    first pass a curation pipeline runs on a new data drop. One streaming
    long-format pass with batch-local pre-reduction per branch; the final
    assembly is O(columns) rows."""
    from code_graph_rag_ray.stages.profile import profile_table

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
    return profile_table(ds, ["doc_id", "lang", "source", "n_chars"])


_PROFILE_COL_SQL = """
SELECT '{c}' AS col, count(*)::BIGINT AS n_rows,
       (count(*) - count({c}))::BIGINT AS n_nulls,
       count(DISTINCT {c})::BIGINT AS n_distinct,
       min(CAST({c} AS VARCHAR)) AS min_s,
       max(CAST({c} AS VARCHAR)) AS max_s
FROM documents
"""

DOC_PROFILE_SQL = " UNION ALL ".join(
    _PROFILE_COL_SQL.format(c=c) for c in ["doc_id", "lang", "source", "n_chars"]
)


def events_hopping(sf_dir: str):
    """Hopping windows (1h window / 15min hop): vectorized np.repeat
    replication into hop-aligned windows, then the same two-phase grouped
    sum as tumbling (stages/windows.hopping_window_agg). Integer-cents
    sums keep the double output bit-exact vs the oracle."""
    ds = _pq(sf_dir, "events", ["ts", "event_type", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {"ts": b["ts"], "event_type": b["event_type"], "value_c": _cents(b["value"])}
        )

    out = hopping_window_agg(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        window_s=3600, hop_s=900, value_col="value_c",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": b["event_type"], "window_start": b["window_start"],
             "sum_value": pc.divide(pc.cast(b["sum_value"], pa.float64()), 100.0),
             "n_events": b["n_events"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_HOPPING_SQL = """
WITH e AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS value_c,
         epoch_us(ts) AS t FROM events
), w AS (
  SELECT event_type, value_c,
         unnest(generate_series((t - 3600000000) // 900000000 + 1,
                                t // 900000000)) * 900 AS window_start
  FROM e
)
SELECT event_type, window_start, sum(value_c) / 100.0 AS sum_value,
       count(*) AS n_events
FROM w GROUP BY 1, 2
"""


def events_sessions(sf_dir: str):
    # chunked two-phase sessionization: the skew-safe path (whale user =
    # one giant map_groups task otherwise) is the oracle-checked one
    ds = _pq(sf_dir, "events", ["user_id", "ts"])
    return session_windows_chunked(ds, gap_s=1800)


EVENTS_SESSIONS_SQL = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
              THEN 1 ELSE 0 END AS ns
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts,
         sum(ns) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
)
SELECT user_id,
       CAST(floor(epoch(min(ts))) AS BIGINT) AS session_start,
       CAST(floor(epoch(max(ts))) AS BIGINT) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, sid
"""


# ---------------------------------------------------------------------------
# documents: extraction / text analysis / dedup
# ---------------------------------------------------------------------------

def doc_mentions(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    from ray.data.aggregate import Sum

    partial = ds.map_batches(doc_mentions_batch, batch_format="pyarrow")
    return partial.groupby(["doc_id", "surface"]).aggregate(
        Sum("n_mentions", alias_name="n_mentions")
    )


DOC_MENTIONS_SQL = f"""
SELECT doc_id, w AS surface, count(*) AS n_mentions
FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
WHERE w IN {_ENT_SQL}
GROUP BY doc_id, w
"""


def kg_entity_timeline(sf_dir: str):
    """Temporal bookkeeping per entity (stages/windows.entity_timeline):
    first/last sighting, total mentions, distinct active 60-s tumbling
    windows — one composite-key two-phase pass over the mention stream,
    no joins. Timestamps are the pages fixture's closed-form warc_ts
    (1.7e15 + doc_id·1e6 µs)."""
    from code_graph_rag_ray.stages.windows import entity_timeline

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    m = ds.map_batches(doc_mentions_batch, batch_format="pyarrow")

    def add_ts(b: pa.Table) -> pa.Table:
        ts = pc.add(pc.multiply(pc.cast(b["doc_id"], pa.int64()),
                                1_000_000), 1_700_000_000_000_000)
        return b.append_column("ts_us", ts)

    rows = m.map_batches(add_ts, batch_format="pyarrow")
    return entity_timeline(rows, entity_col="surface",
                           weight_col="n_mentions", window_s=60)


KG_ENTITY_TIMELINE_SQL = f"""
WITH m AS (
  SELECT doc_id, w AS surface
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}),
t AS (SELECT surface, 1700000000000000 + doc_id * 1000000 AS ts_us FROM m),
g AS (SELECT surface, ts_us // 60000000 AS win,
             min(ts_us) AS mn, max(ts_us) AS mx, count(*) AS n
      FROM t GROUP BY 1, 2)
SELECT surface, CAST(min(mn) AS BIGINT) AS first_us,
       CAST(max(mx) AS BIGINT) AS last_us,
       CAST(sum(n) AS BIGINT) AS n_mentions,
       count(*) AS n_windows
FROM g GROUP BY surface
"""


def events_user_hll(sf_dir: str):
    """HyperLogLog registers for distinct users per event type
    (stages/sketch.py): the mergeable bounded-memory count-distinct. The
    oracle replays the register table bit-for-bit — md5-low64 hashes,
    top-11-bit bucket, integer bit-smear rho — proving the two-phase
    distributed max-fold is exact; the float estimate (tested in pytest)
    is a driver-side function of these registers."""
    from code_graph_rag_ray.stages.sketch import hll_registers

    ds = _pq(sf_dir, "events", ["event_type", "user_id"])
    return hll_registers(ds, "user_id", group_col="event_type", p=11)


# rho via bit-smearing (never floor(log2): float rounding near 2^53 can
# disagree across libms). popcount(w | w>>1 | ... | w>>32) = bit_length(w).
EVENTS_USER_HLL_SQL = """
WITH h AS (
  SELECT event_type,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
  FROM events),
b AS (
  SELECT event_type, (h >> 53)::BIGINT AS bucket,
         (h & 9007199254740991::UBIGINT) AS w
  FROM h),
s AS (SELECT event_type, bucket, w | (w >> 1) AS x FROM b),
s2 AS (SELECT event_type, bucket, x | (x >> 2) AS x FROM s),
s3 AS (SELECT event_type, bucket, x | (x >> 4) AS x FROM s2),
s4 AS (SELECT event_type, bucket, x | (x >> 8) AS x FROM s3),
s5 AS (SELECT event_type, bucket, x | (x >> 16) AS x FROM s4),
s6 AS (SELECT event_type, bucket, x | (x >> 32) AS x FROM s5)
SELECT event_type, bucket,
       max(54 - bit_count(x))::BIGINT AS reg
FROM s6 GROUP BY event_type, bucket
"""


def cooccur_triangles(sf_dir: str):
    """Triangle listing over the entity co-occurrence graph — the
    degree-ordered orientation algorithm (stages/graph_metrics.triangles):
    wedge fan-out bounded O(m^1.5), edge closure via bucketed semi-join.
    Oracle: the classic a<b<c three-way self-join."""
    from code_graph_rag_ray.stages.cooccur import entity_cooccurrence
    from code_graph_rag_ray.stages.graph_metrics import triangles

    edges = entity_cooccurrence(doc_mentions(sf_dir)).select_columns(["a", "b"])
    return triangles(edges)


COOCCUR_TRIANGLES_SQL = f"""
WITH m AS (
  SELECT DISTINCT doc_id, w AS e
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}),
e AS (
  SELECT DISTINCT x.e AS a, y.e AS b
  FROM m x JOIN m y ON x.doc_id = y.doc_id AND x.e < y.e)
SELECT e1.a AS ta, e1.b AS tb, e2.b AS tc
FROM e e1
JOIN e e2 ON e2.a = e1.b
JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
"""


COOCCUR_CLUSTERING_SQL = f"""
WITH m AS (
  SELECT DISTINCT doc_id, w AS e
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}),
e AS (
  SELECT a, b FROM (
    SELECT x.e AS a, y.e AS b, count(*) AS c
    FROM m x JOIN m y ON x.doc_id = y.doc_id AND x.e < y.e
    GROUP BY x.e, y.e)
  WHERE c >= 315),
deg AS (SELECT node, count(*)::BIGINT AS deg FROM (
          SELECT a AS node FROM e UNION ALL SELECT b FROM e)
        GROUP BY node),
tri AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
        FROM e e1 JOIN e e2 ON e2.a = e1.b
        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
tn AS (SELECT node, count(*)::BIGINT AS n_tri FROM (
         SELECT x AS node FROM tri
         UNION ALL SELECT y FROM tri
         UNION ALL SELECT z FROM tri) GROUP BY node)
SELECT d.node, d.deg, coalesce(t.n_tri, 0)::BIGINT AS n_tri,
       (CASE WHEN d.deg >= 2
             THEN (2 * coalesce(t.n_tri, 0) * 1000000)
                  // (d.deg * (d.deg - 1))
             ELSE 0 END)::BIGINT AS cc_micro
FROM deg d LEFT JOIN tn t ON d.node = t.node
"""


def cooccur_kcore(sf_dir: str):
    """k-core (k=3) of the entity co-occurrence graph — iterative peeling
    (stages/graph_metrics.k_core), 4 bounded rounds. Oracle parity by
    construction: the SQL unrolls the SAME 4 peel rounds; at a fixed
    point further rounds are identity on both sides, so early exit and
    full unroll agree bit-for-bit."""
    from code_graph_rag_ray.stages.cooccur import entity_cooccurrence
    from code_graph_rag_ray.stages.graph_metrics import k_core

    edges = entity_cooccurrence(doc_mentions(sf_dir)).select_columns(["a", "b"])
    return k_core(edges, k=3, max_iter=4)


def _kcore_sql(k: int, rounds: int) -> str:
    parts = [
        "s0 AS (SELECT a AS node, b AS nbr FROM e UNION ALL SELECT b, a FROM e)"
    ]
    for i in range(1, rounds + 1):
        parts.append(
            f"d{i} AS (SELECT node, count(*)::BIGINT AS deg "
            f"FROM s{i-1} GROUP BY node)"
        )
        parts.append(f"n{i} AS (SELECT node FROM d{i} WHERE deg >= {k})")
        parts.append(
            f"s{i} AS (SELECT s.node, s.nbr FROM s{i-1} s "
            f"JOIN n{i} x ON s.node = x.node JOIN n{i} y ON s.nbr = y.node)"
        )
    d = rounds + 1
    parts.append(
        f"d{d} AS (SELECT node, count(*)::BIGINT AS deg "
        f"FROM s{rounds} GROUP BY node)"
    )
    body = ",\n".join(parts)
    return f",\n{body}\nSELECT node, deg FROM d{d} WHERE deg >= {k}"


COOCCUR_KCORE_SQL = f"""
WITH m AS (
  SELECT DISTINCT doc_id, w AS e
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}),
e AS (
  SELECT DISTINCT x.e AS a, y.e AS b
  FROM m x JOIN m y ON x.doc_id = y.doc_id AND x.e < y.e){_kcore_sql(3, 4)}
"""


def events_value_variance(sf_dir: str):
    """Grouped population variance via exact integer moments: one
    two-phase pass accumulates (n, Σcents, Σcents²) per event_type; the
    variance is formed from the moments on the group-cardinality-sized
    output with ONE division — var = (n·Σv² − (Σv)²) / n², every operand
    an exact integer (bounds: |Σv| ≤ 2^30, Σv² ≤ 2^47 at this scale, the
    products fit int64/HUGEINT on both sides), so the single IEEE divide
    is bit-identical to the oracle's."""
    ds = _pq(sf_dir, "events", ["event_type", "value"])

    def moments(b: pa.Table) -> pa.Table:
        c = _cents(b["value"])
        return pa.table(
            {"event_type": b["event_type"], "v": c,
             "v2": pc.multiply(c, c)}
        )

    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    sums = partial_groupby_sum(
        ds.map_batches(moments, batch_format="pyarrow"),
        ["event_type"], {"v": "sum_c", "v2": "sumsq_c"}, count_alias="n",
    )

    def finish(b: pa.Table) -> pa.Table:
        # python ints: the cross-moment products must not wrap int64
        var = [
            float(n * s2 - s * s) / float(n * n)
            for n, s, s2 in zip(b["n"].to_pylist(), b["sum_c"].to_pylist(),
                                b["sumsq_c"].to_pylist())
        ]
        return pa.table({"event_type": b["event_type"], "n": b["n"],
                         "var_cents2": pa.array(var, pa.float64())})

    return sums.map_batches(finish, batch_format="pyarrow")


EVENTS_VALUE_VARIANCE_SQL = """
WITH m AS (
  SELECT event_type, count(*)::HUGEINT AS n,
         sum(CAST(round(value * 100) AS BIGINT))::HUGEINT AS s,
         sum(CAST(round(value * 100) AS BIGINT) * CAST(round(value * 100) AS BIGINT))::HUGEINT AS s2
  FROM events GROUP BY event_type)
SELECT event_type, n::BIGINT AS n,
       CAST(n * s2 - s * s AS DOUBLE) / CAST(n * n AS DOUBLE) AS var_cents2
FROM m
"""


def events_user_cms(sf_dir: str):
    """Count-min sketch of per-user event frequencies (stages/sketch.py
    cms_counts): mergeable counter matrix via one two-phase grouped sum —
    the bounded-memory frequency screen. The oracle recomputes every
    counter from the same md5 double hashes."""
    from code_graph_rag_ray.stages.sketch import cms_counts

    ds = _pq(sf_dir, "events", ["user_id"])
    return cms_counts(ds, "user_id", depth=4, width=256)


EVENTS_USER_CMS_SQL = """
WITH h AS (
  SELECT ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 8))::UBIGINT AS h1,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 9, 8))::UBIGINT AS h2
  FROM events),
x AS (
  SELECT d.d, ((h1 + d.d * h2) % 256)::BIGINT AS col
  FROM h CROSS JOIN (SELECT unnest(range(4)) AS d) d)
SELECT d, col, count(*)::BIGINT AS cnt FROM x GROUP BY d, col
"""


def doc_cooccurrence(sf_dir: str):
    """Entity co-occurrence edges with fixed-point lift (stages/cooccur.py):
    the statistical web-text analog of the reference's co-located-entity
    relationship pass. lift_fp = floor(c_ab·N·10^6 / (c_a·c_b)) — pure
    integer, so DuckDB replays it bit-exactly."""
    from code_graph_rag_ray.stages.cooccur import entity_cooccurrence

    return entity_cooccurrence(doc_mentions(sf_dir))


DOC_COOCCURRENCE_SQL = f"""
WITH m AS (
  SELECT DISTINCT doc_id, w AS e
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}),
n AS (SELECT count(DISTINCT doc_id) AS n FROM m),
marg AS (SELECT e, count(*) AS c FROM m GROUP BY e),
pc AS (
  SELECT x.e AS a, y.e AS b, count(*) AS c_ab
  FROM m x JOIN m y ON x.doc_id = y.doc_id AND x.e < y.e
  GROUP BY x.e, y.e)
SELECT pc.a, pc.b, pc.c_ab,
       (pc.c_ab * n.n * 1000000) // (ma.c * mb.c) AS lift_fp
FROM pc CROSS JOIN n
JOIN marg ma ON pc.a = ma.e
JOIN marg mb ON pc.b = mb.e
"""


def doc_triples(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(doc_triples_batch, batch_format="pyarrow")


DOC_TRIPLES_SQL = f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, toks, unnest(range(1, len(toks) - 1)) AS i FROM t)
SELECT doc_id, toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
       CAST(i - 1 AS BIGINT) AS pos
FROM idx
WHERE toks[i] IN {_ENT_SQL} AND toks[i+1] IN {_REL_SQL} AND toks[i+2] IN {_ENT_SQL}
"""


def doc_token_stats(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


DOC_TOKEN_STATS_SQL = r"""
SELECT doc_id,
       len(string_split(text, ' ')) AS n_tokens,
       len(regexp_extract_all(text, '[A-Za-z0-9_]+|[^\sA-Za-z0-9_]')) AS n_bpe_tokens,
       length(text) AS n_chars_text
FROM documents
"""


def doc_quality(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(quality_batch, batch_format="pyarrow")

    def round6(b: pa.Table) -> pa.Table:
        # Python round (correctly-rounded decimal) matches DuckDB's round;
        # Arrow/numpy scaled rounds can land 1 ulp off the same double.
        # Runs distributed inside tasks (3 cheap scalar cols), NOT on the
        # driver — the result stays a streaming Dataset.
        for c in ("stop_ratio", "mean_token_len", "quality"):
            vals = [None if v is None else round(v, 6) for v in b[c].to_pylist()]
            b = b.set_column(b.schema.get_field_index(c), c,
                             pa.array(vals, pa.float64()))
        return b

    return out.map_batches(round6, batch_format="pyarrow")


DOC_QUALITY_SQL = f"""
WITH t AS (
  SELECT doc_id, text, string_split(text, ' ') AS toks,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n
  FROM documents
)
SELECT doc_id,
       CAST(n AS BIGINT) AS n_tokens,
       round(len(list_filter(toks, w -> list_contains({_STOP_SQL_LIST}, w))) / greatest(n, 1), 6) AS stop_ratio,
       round((length(text) - (greatest(n, 1) - 1)) / greatest(n, 1), 6) AS mean_token_len,
       round(least(1.0, greatest(n, 1) / 50.0)
             * (1.0 - abs(len(list_filter(toks, w -> list_contains({_STOP_SQL_LIST}, w))) / greatest(n, 1) - 0.2)), 6) AS quality
FROM t
"""


def doc_curation_funnel(sf_dir: str):
    """End-to-end curation funnel report: per-stage survivor counts for
    the canonical training-data chain total → lang filter → quality
    threshold → exact dedup. One flags pass derives (lang_ok, q_ok, md5)
    per doc; the three filter counts fold in a SINGLE aggregate pass and
    the dedup stage counts distinct md5 among survivors (one dedup
    shuffle) — two passes over the cheap flags map, nothing pinned.
    Quality compares the 6-decimal ROUNDED score on both sides so the
    threshold cannot flip on a 1-ulp Arrow/DuckDB double difference."""
    from ray.data.aggregate import Sum

    from code_graph_rag_ray.functions.hashing import md5_hex_array
    from code_graph_rag_ray.stages.materialize import exact_dedup
    from code_graph_rag_ray.stages.text_analysis import quality_batch

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "text"])

    def flags(b: pa.Table) -> pa.Table:
        q = quality_batch(b)
        qv = [round(v, 6) for v in q["quality"].to_pylist()]
        lang_ok = pc.equal(b["lang"], "en")
        q_ok = pa.array([v >= 0.5 for v in qv], pa.bool_())
        lq = pc.and_(lang_ok, q_ok)
        return pa.table(
            {"m": md5_hex_array(b["text"]),
             "one": pa.array(np.ones(b.num_rows, np.int64)),
             "l": pc.cast(lang_ok, pa.int64()),
             "lq_i": pc.cast(lq, pa.int64()),
             "lq": lq}
        )

    f = ds.map_batches(flags, batch_format="pyarrow")
    sums = f.aggregate(Sum("one", alias_name="total"),
                       Sum("l", alias_name="lang_en"),
                       Sum("lq_i", alias_name="quality"))
    survivors = f.filter(expr="lq == True").select_columns(["m"])
    n_dedup = exact_dedup(survivors, keys=["m"], columns=["m"]).count()
    return pa.table(
        {"stage": pa.array(["total", "lang_en", "quality", "exact_dedup"],
                           pa.string()),
         "n_docs": pa.array(
             [int(sums["total"]), int(sums["lang_en"]), int(sums["quality"]),
              int(n_dedup)], pa.int64())}
    )


DOC_CURATION_FUNNEL_SQL = f"""
WITH t AS (
  SELECT doc_id, lang, text, string_split(text, ' ') AS toks,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n
  FROM documents
), f AS (
  SELECT doc_id, lang, md5(text) AS m,
         round(least(1.0, greatest(n, 1) / 50.0)
               * (1.0 - abs(len(list_filter(toks, w -> list_contains({{_STOP}}, w))) / greatest(n, 1) - 0.2)), 6) AS q
  FROM t
)
SELECT 'total' AS stage, count(*)::BIGINT AS n_docs FROM f
UNION ALL SELECT 'lang_en', count(*)::BIGINT FROM f WHERE lang = 'en'
UNION ALL SELECT 'quality', count(*)::BIGINT FROM f WHERE lang = 'en' AND q >= 0.5
UNION ALL SELECT 'exact_dedup', count(DISTINCT m)::BIGINT
  FROM f WHERE lang = 'en' AND q >= 0.5
""".replace("{_STOP}", _STOP_SQL_LIST)


def doc_repetition(sf_dir: str):
    """Gopher-style repetition quality: per-doc duplicate-word / top-1-gram
    fractions + the corpus-filter flag, all in one shuffle-free vectorized
    map_batches (stages/text_analysis.repetition_batch). Each fraction is
    one int/int IEEE division → bit-identical to the SQL oracle."""
    from code_graph_rag_ray.stages.text_analysis import repetition_batch

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


DOC_REPETITION_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term, count(*) AS c FROM tok WHERE term <> '' GROUP BY 1, 2
), agg AS (
  SELECT doc_id, sum(c)::BIGINT AS n_words, count(*)::BIGINT AS n_distinct,
         max(c)::BIGINT AS top_term_n
  FROM tf GROUP BY 1
)
SELECT doc_id, n_words, n_distinct, top_term_n,
       (n_words - n_distinct) / greatest(n_words, 1)::DOUBLE AS dup_word_frac,
       top_term_n / greatest(n_words, 1)::DOUBLE AS top_term_frac,
       (top_term_n / greatest(n_words, 1)::DOUBLE > 0.08
        OR (n_words - n_distinct) / greatest(n_words, 1)::DOUBLE > 0.85)
         AS repetitive
FROM agg
"""


def corpus_top_terms(sf_dir: str):
    """Corpus heavy hitters: global top-20 terms by total occurrences.
    Per-batch tf combiner (tfidf.extract_tf_batch) → two-phase grouped
    sum over terms → block-local top-k → one-block exact merge
    (stages/skew.global_topk); the driver never sees the vocabulary."""
    from code_graph_rag_ray.stages.relational import partial_groupby_sum
    from code_graph_rag_ray.stages.skew import global_topk
    from code_graph_rag_ray.stages.tfidf import extract_tf_batch

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    tf_rows = ds.map_batches(extract_tf_batch, batch_format="pyarrow")
    term_counts = partial_groupby_sum(
        tf_rows.select_columns(["term", "tf"]), ["term"], {"tf": "n"}
    )
    return global_topk(term_counts, item="term", n_col="n", k=20)


CORPUS_TOP_TERMS_SQL = """
WITH tok AS (
  SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
  FROM documents
), tc AS (
  SELECT term, count(*)::BIGINT AS n,
         row_number() OVER (ORDER BY count(*) DESC, term ASC) AS rank
  FROM tok WHERE term <> '' GROUP BY term
)
SELECT term, n, rank FROM tc WHERE rank <= 20
"""


def doc_lm_score(sf_dir: str):
    """Corpus-trained bigram LM score (perplexity-filter analog): add-one
    smoothed bigram likelihood in integer micro-units — train (two grouped
    sums) + score (two bucketed joins) in one pipeline, nothing broadcast
    or driver-side (stages/lm.py). Fixed-point ⇒ bit-exact vs the oracle."""
    from code_graph_rag_ray.stages.lm import lm_score

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return lm_score(ds)


DOC_LM_SCORE_SQL = """
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     w -> w <> '') AS ws
  FROM documents),
idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 1)) AS i
  FROM tok WHERE len(ws) >= 2),
big AS (
  SELECT doc_id, ws[i] AS w1, ws[i + 1] AS w2 FROM idx),
cb AS (SELECT w1, w2, count(*)::BIGINT AS c FROM big GROUP BY 1, 2),
ch AS (SELECT w1, count(*)::BIGINT AS h FROM big GROUP BY 1),
vv AS (SELECT count(DISTINCT w)::BIGINT AS v
       FROM (SELECT unnest(ws) AS w FROM tok)),
per AS (
  SELECT b.doc_id, ((cb.c + 1) * 1000000) // (ch.h + vv.v) AS contrib
  FROM big b
  JOIN cb ON b.w1 = cb.w1 AND b.w2 = cb.w2
  JOIN ch ON b.w1 = ch.w1
  CROSS JOIN vv)
SELECT doc_id, count(*)::BIGINT AS n_bigrams, sum(contrib)::BIGINT AS lm_micro
FROM per GROUP BY doc_id
"""


def doc_len_quantiles_cont(sf_dir: str):
    """Interpolated per-language length percentiles (percentile_cont
    semantics, stages/quantiles.grouped_quantiles_cont): p = q·(n−1) over
    the sorted rows, linear interpolation between the two neighbor rows.
    Oracle replays the identical expression with window SQL (NOT
    quantile_cont, whose internal op order is unspecified) so the
    multiply-add is bit-identical."""
    from code_graph_rag_ray.stages.quantiles import grouped_quantiles_cont

    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_quantiles_cont(
        ds, key="lang", value_col="n_chars", qs={"p50": 0.5, "p90": 0.9}
    )


DOC_LEN_QUANTILES_CONT_SQL = """
WITH s AS (
  SELECT lang, CAST(n_chars AS DOUBLE) AS v,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) - 1 AS i,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents),
g AS (SELECT lang, max(n)::BIGINT AS n,
             -- ::DOUBLE: a bare 0.9 literal is DECIMAL in DuckDB, whose
             -- exact decimal frac diverges 1 ulp from the engine's float64
             0.5::DOUBLE * (max(n) - 1) AS p50x,
             0.9::DOUBLE * (max(n) - 1) AS p90x
      FROM s GROUP BY lang)
SELECT g.lang, g.n,
       lo50.v + (g.p50x - floor(g.p50x)) * (hi50.v - lo50.v) AS p50,
       lo90.v + (g.p90x - floor(g.p90x)) * (hi90.v - lo90.v) AS p90
FROM g
JOIN s lo50 ON lo50.lang = g.lang AND lo50.i = CAST(floor(g.p50x) AS BIGINT)
JOIN s hi50 ON hi50.lang = g.lang
  AND hi50.i = least(CAST(floor(g.p50x) AS BIGINT) + 1, g.n - 1)
JOIN s lo90 ON lo90.lang = g.lang AND lo90.i = CAST(floor(g.p90x) AS BIGINT)
JOIN s hi90 ON hi90.lang = g.lang
  AND hi90.i = least(CAST(floor(g.p90x) AS BIGINT) + 1, g.n - 1)
"""


def doc_len_quantiles(sf_dir: str):
    """Exact per-language length percentiles (curation-cutoff profiling):
    two-phase (lang, n_chars) histogram, per-lang cume_dist pick matching
    DuckDB quantile_disc bit-for-bit (stages/quantiles.py)."""
    from code_graph_rag_ray.stages.quantiles import grouped_quantiles

    ds = _pq(sf_dir, "documents", ["lang", "n_chars"])
    return grouped_quantiles(
        ds,
        key="lang",
        value_col="n_chars",
        qs={"q25": 0.25, "q50": 0.5, "q75": 0.75, "q90": 0.9},
    )


DOC_LEN_QUANTILES_SQL = """
SELECT lang, count(*)::BIGINT AS n,
       quantile_disc(n_chars, 0.25) AS q25,
       quantile_disc(n_chars, 0.50) AS q50,
       quantile_disc(n_chars, 0.75) AS q75,
       quantile_disc(n_chars, 0.90) AS q90
FROM documents GROUP BY lang
"""


_SCRUB_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_SCRUB_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
_SCRUB_PHONE = r"\+\d[\d-]{7,}\d"


def doc_scrub_pii(sf_dir: str):
    """PII redaction (stages/scrub.py): deterministic PII is injected
    closed-form from doc_id (the synthetic corpus carries none), then the
    ordered RE2 rule registry scrubs it vectorized. Arrow and DuckDB both
    compile RE2, so replacement spans — and therefore the scrubbed bytes
    and per-rule counts — are bit-identical to the oracle."""
    from code_graph_rag_ray.stages.scrub import scrub_batch

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        i = pc.cast(b["doc_id"], pa.string())
        n = b.num_rows

        def lit(s: str):
            return pa.array([s] * n, pa.string())

        # last arg of binary_join_element_wise is the separator
        injected = pc.binary_join_element_wise(
            b["text"],
            lit(" contact u"),
            i,
            lit("@mail.example.org from 10."),
            pc.cast(
                pa.array(b["doc_id"].to_numpy(zero_copy_only=False) % 256, pa.int64()),
                pa.string(),
            ),
            lit(".0.1 call +1-555-"),
            pc.utf8_lpad(i, width=4, padding="0"),
            "",
        )
        return pa.table({"doc_id": b["doc_id"], "text": injected})

    return ds.map_batches(inject, batch_format="pyarrow").map_batches(
        scrub_batch, batch_format="pyarrow"
    )


DOC_SCRUB_PII_SQL = f"""
WITH inj AS (
  SELECT doc_id,
         text || ' contact u' || doc_id || '@mail.example.org from 10.'
              || (doc_id % 256) || '.0.1 call +1-555-'
              || lpad(doc_id::VARCHAR, 4, '0') AS text
  FROM documents
)
SELECT doc_id,
       len(regexp_extract_all(text, '{_SCRUB_EMAIL}')) AS n_email,
       len(regexp_extract_all(text, '{_SCRUB_IPV4}')) AS n_ipv4,
       len(regexp_extract_all(text, '{_SCRUB_PHONE}')) AS n_phone,
       regexp_replace(
         regexp_replace(
           regexp_replace(text, '{_SCRUB_EMAIL}', '<EMAIL>', 'g'),
           '{_SCRUB_IPV4}', '<IP>', 'g'),
         '{_SCRUB_PHONE}', '<PHONE>', 'g') AS text_clean
FROM inj
"""


def doc_findings(sf_dir: str):
    """Rule-based findings tier (M12 analog): pluggable RE2 rule registry
    scanned vectorized per batch → typed finding rows."""
    from code_graph_rag_ray.stages.findings import scan_findings

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return scan_findings(ds)


_FINDING_RULES_SQL = (
    ("long_token", "[a-z]{7,}", "info"),
    ("s_word", r"\bs[a-z]+\b", "info"),
    ("vowel_pair", "[aeiou]{2}", "info"),
    ("number_run", "[0-9]+", "warn"),
)

DOC_FINDINGS_SQL = "\nUNION ALL\n".join(
    f"""SELECT doc_id, '{rid}' AS rule_id, '{sev}' AS severity,
       CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_matches
FROM documents
WHERE len(regexp_extract_all(text, '{pat}')) > 0"""
    for rid, pat, sev in _FINDING_RULES_SQL
)


def doc_fingerprint(sf_dir: str):
    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(fingerprint_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "md5"])


DOC_FINGERPRINT_SQL = "SELECT doc_id, md5(text) AS md5 FROM documents"


def doc_exact_dup_clusters(sf_dir: str):
    from code_graph_rag_ray.stages.dedup import exact_dup_clusters

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return exact_dup_clusters(ds)


DOC_EXACT_DUP_SQL = """
SELECT md5(text) AS md5, count(*) AS n_dups, min(doc_id) AS keeper
FROM documents GROUP BY 1
"""


def doc_lang_counts(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _pq(sf_dir, "documents", ["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n_docs"))


DOC_LANG_COUNTS_SQL = "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang"


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------

def knn_brute(sf_dir: str):
    from code_graph_rag_ray.stages.similarity import knn_brute_force

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    # predicate runs in tasks; only the 5 query rows reach the driver
    qdf = pd.DataFrame(ds.filter(expr="vec_id < 5").take_all()).sort_values("vec_id")
    queries = np.stack([np.asarray(v, dtype=np.float64) for v in qdf.embedding])
    out = knn_brute_force(ds, queries, qdf.vec_id.tolist(), k=10)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"query_id": b["query_id"], "vec_id": b["vec_id"],
             "cosine": _pc_round(b["cosine"], 5), "rank": b["rank"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


def doc_pack_bpe(sf_dir: str):
    """TOKENIZER-AWARE sequence packing: concat-and-chunk over REAL
    subword counts — bpe_learn's 6 merges tokenize the corpus
    (stages/bpe.bpe_tokenize) and the packer's budget is BPE tokens, not
    whitespace words (stages/packing.pack_sequences with a counts
    override). Same two-pass global-prefix-sum shape; seq_len 256."""
    from code_graph_rag_ray.stages.bpe import bpe_learn, bpe_tokenize
    from code_graph_rag_ray.stages.packing import pack_sequences

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_learn(docs, num_merges=6)
    counts = bpe_tokenize(docs, merges).map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"],
                            "n_tokens": b["n_bpe_tokens"]}),
        batch_format="pyarrow",
    )
    return pack_sequences(docs, seq_len=256, counts=counts)


# assigned after _bpe_ctes is defined (below, with the other BPE oracles)
DOC_PACK_BPE_SQL = None


def source_trigram_diversity(sf_dir: str):
    """Per-source token-trigram diversity — distinct trigrams over total
    trigram occurrences, the templated/boilerplate-source detector a
    curation pipeline gates on (a source emitting the same template has
    diversity → 0). Scale shape: per-batch (source, trigram) combine →
    ONE two-phase grouped sum over (source, trigram) → per-source fold
    of n_distinct (row count) + n_tri (occurrence sum);
    diversity_micro = (10^6·n_distinct) // n_tri, pure BIGINT."""
    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    ds = _pq(sf_dir, "documents", ["source", "text"])

    def tri_partial(b: pa.Table) -> pa.Table:
        empty = pa.table({"source": pa.array([], pa.string()),
                          "tri": pa.array([], pa.string()),
                          "k": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(pc.utf8_lower(b["text"]),
                                      pattern="[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parent = parent.filter(keep)
        if len(flat) < 3:
            return empty
        f = np.asarray(flat.to_pandas(), dtype=object)
        p = parent.to_numpy(zero_copy_only=False)
        adj = (p[2:] == p[:-2])
        if not adj.any():
            return empty
        tri = np.char.add(
            np.char.add(f[:-2][adj].astype(str), " "),
            np.char.add(np.char.add(f[1:-1][adj].astype(str), " "),
                        f[2:][adj].astype(str)))
        t = pa.table(
            {"source": pc.take(b["source"],
                               pa.array(p[:-2][adj], pa.int64())),
             "tri": pa.array(tri, pa.string())}
        )
        g = pa.TableGroupBy(t, ["source", "tri"],
                            use_threads=False).aggregate([([], "count_all")])
        return pa.table({"source": g["source"], "tri": g["tri"],
                         "k": pc.cast(g["count_all"], pa.int64())})

    per_tri = partial_groupby_sum(
        ds.map_batches(tri_partial, batch_format="pyarrow"),
        ["source", "tri"], {"k": "k"},
    )

    def ones(b: pa.Table) -> pa.Table:
        return pa.table({"source": b["source"], "k": b["k"],
                         "one": pa.array(np.ones(b.num_rows, np.int64))})

    agg = partial_groupby_sum(
        per_tri.map_batches(ones, batch_format="pyarrow"),
        ["source"], {"one": "n_distinct", "k": "n_tri"},
    )

    def fin(b: pa.Table) -> pa.Table:
        d = b["n_distinct"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b["n_tri"].to_numpy(zero_copy_only=False).astype(np.int64)
        dv = (d * 10**6) // np.maximum(t, 1)
        return b.append_column("diversity_micro",
                               pa.array(dv.astype(np.int64)))

    return agg.map_batches(fin, batch_format="pyarrow")


SOURCE_TRIGRAM_DIVERSITY_SQL = """
WITH tok AS (
  SELECT source,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     w -> w <> '') AS ws
  FROM documents),
tri AS (
  SELECT source, ws[j] || ' ' || ws[j + 1] || ' ' || ws[j + 2] AS tri
  FROM (SELECT source, ws, unnest(generate_series(1, len(ws) - 2)) AS j
        FROM tok WHERE len(ws) >= 3)),
per AS (SELECT source, tri, count(*)::BIGINT AS k FROM tri
        GROUP BY source, tri),
ag AS (SELECT source, count(*)::BIGINT AS n_distinct,
              sum(k)::BIGINT AS n_tri
       FROM per GROUP BY source)
SELECT source, n_distinct, n_tri,
       ((n_distinct * 1000000) // greatest(n_tri, 1))::BIGINT
         AS diversity_micro
FROM ag
"""


def events_decayed_score(sf_dir: str):
    """Recency-weighted engagement per user (stages/windows.decayed_score):
    each event contributes 10^6 >> whole elapsed days vs a fixed 'now'
    (2024-01-31) — exponential decay quantized to integer half-lives so
    the fold is a BIGINT shift, bit-exact on both sides. One stateless
    contribution pass + one two-phase grouped sum."""
    from code_graph_rag_ray.stages.windows import decayed_score

    ds = _pq(sf_dir, "events", ["user_id", "ts"])
    return decayed_score(ds, key_col="user_id", ts_col="ts",
                         now="2024-01-31 00:00:00", half_life_s=86400)


EVENTS_DECAYED_SCORE_SQL = """
SELECT user_id, count(*)::BIGINT AS n_events,
       sum(1000000 >> least(greatest(
             (epoch_us(TIMESTAMP '2024-01-31 00:00:00') - epoch_us(ts))
               // 86400000000, 0), 62))::BIGINT AS decayed
FROM events GROUP BY user_id
"""


def knn_hard_negatives(sf_dir: str):
    """Hard-negative mining for contrastive training
    (stages/similarity.knn_brute_force with per-query label masking):
    for each of the 5 query vectors, the top-5 most-similar vectors of a
    DIFFERENT label — the classic in-batch-negatives upgrade. Same
    broadcast-query + partial-top-k-merge scale shape as knn_brute."""
    from code_graph_rag_ray.stages.similarity import knn_brute_force

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    qdf = pd.DataFrame(ds.filter(expr="vec_id < 5").take_all()).sort_values(
        "vec_id")
    queries = np.stack([np.asarray(v, dtype=np.float64) for v in qdf.embedding])
    out = knn_brute_force(
        ds, queries, qdf.vec_id.tolist(), k=5,
        label_col="label", query_exclude_labels=qdf.label.tolist(),
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"query_id": b["query_id"], "vec_id": b["vec_id"],
             "cosine": _pc_round(b["cosine"], 5), "rank": b["rank"]}
        )

    return out.map_batches(finish, batch_format="pyarrow")


KNN_HARD_NEGATIVES_SQL = """
SELECT query_id, vec_id, cosine, rank FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
         round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                      CAST(e.embedding AS DOUBLE[])), 5)
           AS cosine,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                           CAST(e.embedding AS DOUBLE[])) DESC,
                    e.vec_id) AS rank
  FROM embeddings q, embeddings e
  WHERE q.vec_id < 5 AND e.label <> q.label) t
WHERE rank <= 5
"""


# DOUBLE[] casts: duckdb's float32 cosine differs from the engine's float64
# matmul at ~1e-7 — in float64 both agree to <1e-15 (verified bitwise after
# round(5))
KNN_BRUTE_SQL = """
SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
       round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                    CAST(e.embedding AS DOUBLE[])), 5) AS cosine,
       row_number() OVER (PARTITION BY q.vec_id
                          ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                                          CAST(e.embedding AS DOUBLE[])) DESC,
                                   e.vec_id) AS rank
FROM embeddings q, embeddings e
WHERE q.vec_id < 5
QUALIFY rank <= 10
"""


def doc_kmeans(sf_dir: str):
    """Fixed-point distributed k-means over the embeddings table (topic
    bucketing / dedup sharding / curriculum mixing — the "organize the
    corpus" operator). Integer-lattice Lloyd: assignment is a stateless
    map_batches vs a broadcast k×dim int64 matrix, centroid update a
    two-phase grouped sum — so every iteration is deterministic at any
    parallelism and replayable bit-exactly by the unrolled SQL oracle
    (see stages/clustering.py)."""
    from code_graph_rag_ray.stages.clustering import kmeans_fixed_point

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_fixed_point(ds, k=8, iters=2, scale=1000)


def _kmeans_sql(k: int = 8, iters: int = 2, scale: int = 1000,
                dim: int = 64) -> str:
    """Unrolled integer Lloyd — the SAME quantize/argmin/floor-mean updates
    the distributed stage runs. DuckDB round() is half-away-from-zero
    (= pc.round half_towards_infinity); `//` truncates toward zero, so the
    centroid mean uses floor() explicitly to match np.floor_divide."""
    q_cte = f"""
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(round(x * {scale}) AS BIGINT)) AS qv
  FROM embeddings"""
    return ("WITH " + _kmeans_ctes(k, iters, scale, dim, q_cte)
            + "\nSELECT vec_id, cluster, dist FROM asg")


def _kmeans_ctes(k: int, iters: int, scale: int, dim: int, q_cte: str) -> str:
    """CTE chain (``q`` → ``c0`` → unrolled Lloyd steps → ``asg`` final
    assignment) shared by the k-means oracle and the SemDeDup oracle,
    parameterized over the quantized-input CTE body."""
    dist = (f"CAST(list_sum(list_transform(range(1, {dim} + 1), "
            "j -> (q.qv[j] - c.cv[j]) * (q.qv[j] - c.cv[j]))) AS BIGINT)")
    head = f"""
q AS ({q_cte}),
c0 AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster, qv AS cv
  FROM q ORDER BY vec_id LIMIT {k})"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""
a{i} AS (
  SELECT q.vec_id, c.cluster, {dist} AS dist
  FROM q CROSS JOIN c{i-1} c
  QUALIFY row_number() OVER (PARTITION BY q.vec_id
                             ORDER BY dist, c.cluster) = 1),
u{i} AS (
  SELECT a.cluster, generate_subscripts(q.qv, 1) AS j, unnest(q.qv) AS v
  FROM a{i} a JOIN q USING (vec_id)),
c{i} AS (
  SELECT cluster, list(s ORDER BY j) AS cv
  FROM (SELECT cluster, j,
               CAST(floor(sum(v)::DOUBLE / count(*)) AS BIGINT) AS s
        FROM u{i} GROUP BY cluster, j)
  GROUP BY cluster)"""
        )
    final = f"""
asg AS (
  SELECT q.vec_id, c.cluster, {dist} AS dist
  FROM q CROSS JOIN c{iters} c
  QUALIFY row_number() OVER (PARTITION BY q.vec_id
                             ORDER BY dist, c.cluster) = 1)"""
    return head + "," + ",".join(steps) + "," + final


DOC_KMEANS_SQL = _kmeans_sql()


_SEMDEDUP_DELTA = 0.0078125  # 1/128 — exact in binary float64
_SEMDEDUP_PLANT = 40
_SEMDEDUP_OFFSET = 1000


def _plant_near_copies(b: pa.Table) -> pa.Table:
    """Deterministic near-duplicate fixture (the doc_components pattern of
    synthesizing structure from ids): for vec_id < 40, also emit a copy at
    vec_id+1000 with dim0 nudged by exactly 1/128 — cosine ≈ 0.9999, so
    SemDeDup must drop precisely the 40 planted copies."""
    base = pa.table({
        "vec_id": b["vec_id"],
        "embedding": pc.cast(b["embedding"], pa.list_(pa.float64())),
    })
    sel = b.filter(pc.less(b["vec_id"], _SEMDEDUP_PLANT))
    if sel.num_rows == 0:
        return base
    m = np.array(sel["embedding"].to_pylist(), dtype=np.float64)
    m[:, 0] += _SEMDEDUP_DELTA
    cp = pa.table({
        "vec_id": pc.add(sel["vec_id"], pa.scalar(_SEMDEDUP_OFFSET, pa.int64())),
        "embedding": pa.array([list(r) for r in m], pa.list_(pa.float64())),
    })
    return pa.concat_tables([base, cp])


def doc_semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup (Abbas et al. 2023): fixed-point
    k-means bucketing, then exact within-cluster integer-lattice cosine —
    a row is dropped when a lower-id same-cluster row has cos ≥ 0.9. The
    embeddings table has no natural near-dups (max pairwise cos ≈ 0.51),
    so 40 near-copies are planted deterministically; DuckDB replays the
    augmentation, the unrolled Lloyd rounds AND the HUGEINT cosine test
    bit-exactly (stages/dedup.semantic_dedup)."""
    from code_graph_rag_ray.stages.dedup import semantic_dedup

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    aug = ds.map_batches(_plant_near_copies, batch_format="pyarrow")
    return semantic_dedup(aug)


def _semdedup_sql(k: int = 8, iters: int = 2, scale: int = 1000,
                  dim: int = 64, mg: int = 4096,
                  num: int = 9, den: int = 10) -> str:
    base = "SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings"
    q_cte = f"""
  SELECT vec_id, list_transform(e, x -> CAST(round(x * {scale}) AS BIGINT)) AS qv
  FROM ({base}
        UNION ALL
        SELECT vec_id + {_SEMDEDUP_OFFSET},
               list_prepend(e[1] + {_SEMDEDUP_DELTA!r}, e[2:{dim}])
        FROM ({base}) WHERE vec_id < {_SEMDEDUP_PLANT})"""
    tail = f""",
rk AS (SELECT vec_id, cluster,
              row_number() OVER (PARTITION BY cluster ORDER BY vec_id) AS rn
       FROM asg),
nn AS (SELECT vec_id,
              CAST(list_sum(list_transform(qv, x -> x::HUGEINT * x)) AS HUGEINT) AS n2
       FROM q),
pr AS (
  SELECT y.vec_id AS b,
         CAST(list_sum(list_transform(range(1, {dim} + 1),
                                      j -> qx.qv[j]::HUGEINT * qy.qv[j])) AS HUGEINT) AS dot,
         nx.n2 AS na, ny.n2 AS nb
  FROM rk x JOIN rk y ON x.cluster = y.cluster AND x.vec_id < y.vec_id
        AND x.rn <= {mg} AND y.rn <= {mg}
  JOIN q qx ON qx.vec_id = x.vec_id
  JOIN q qy ON qy.vec_id = y.vec_id
  JOIN nn nx ON nx.vec_id = x.vec_id
  JOIN nn ny ON ny.vec_id = y.vec_id),
dropped AS (SELECT DISTINCT b FROM pr
            WHERE dot > 0 AND dot * dot * {den * den} >= {num * num} * na * nb)
SELECT r.vec_id, r.cluster,
       r.vec_id NOT IN (SELECT b FROM dropped) AS keep,
       r.rn > {mg} AS truncated
FROM rk r"""
    return "WITH " + _kmeans_ctes(k, iters, scale, dim, q_cte) + tail


DOC_SEMDEDUP_SQL = _semdedup_sql()


# ---------------------------------------------------------------------------
# pages / KG construction (flagship)
# ---------------------------------------------------------------------------

def _vocab_alias_tbl() -> pa.Table:
    return pa.Table.from_pylist(
        [{"alias": w, "entity_id": w, "prior": 1.0} for w in ENTITY_VOCAB_SORTED],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )


def kg_doc_triples(sf_dir: str):
    """Full KG pipeline (extract → link → pair → dedup) over pages derived
    from documents; equivalent to the trigram rule, so SQL-checkable."""
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    kg = build_kg(
        pages, _vocab_alias_tbl(), relations=relations,
        materialize_mentions=False, build_nodes=False,  # edges-only consumer
    )
    return kg["edges"].select_columns(["subj", "pred", "obj", "provenance_url"])


KG_DOC_TRIPLES_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t)
SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
       'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
FROM idx
WHERE toks[i] IN {_ENT_SQL} AND toks[i+1] IN {_REL_SQL} AND toks[i+2] IN {_ENT_SQL}
"""


def kg_doc_nodes(sf_dir: str):
    """KG node table over documents-derived pages (mention-count per entity,
    including zero-mention dictionary entries — cgr registry semantics)."""
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    kg = build_kg(pages, _vocab_alias_tbl(), relations=relations)
    nodes = kg["nodes"]

    def keep(b: pa.Table) -> pa.Table:
        m = pc.equal(b["label"], "Entity")
        f = b.filter(m)
        return pa.table({"entity_id": f["entity_id"],
                         "n_mentions": pc.cast(f["n_mentions"], pa.int64())})

    return nodes.map_batches(keep, batch_format="pyarrow")


def kg_live_nodes(sf_dir: str):
    """A6 strict orphan pruning (stages/canonicalize.prune_unreferenced): retain only
    every-200th document (the post-deletion live set), then keep nodes
    referenced by a surviving triple — the node-vs-live-graph semi-join
    the reference runs after file deletions."""
    from code_graph_rag_ray.stages.canonicalize import prune_unreferenced

    nodes = kg_doc_nodes(sf_dir)

    def live_only(b: pa.Table) -> pa.Table:
        doc = pc.cast(pc.replace_substring_regex(
            b["provenance_url"], pattern="^.*/doc/", replacement=""), pa.int64())
        keep = pc.equal(pc.subtract(doc, pc.multiply(
            pc.divide(doc, 200), 200)), 0)
        return b.filter(keep)

    edges = kg_doc_triples(sf_dir).map_batches(live_only, batch_format="pyarrow")
    return prune_unreferenced(
        nodes, edges,
        node_schema=pa.schema([("entity_id", pa.string()),
                               ("n_mentions", pa.int64())]))


def kg_dead_nodes(sf_dir: str):
    """Dead-code analog (stages/canonicalize.dead_nodes, reference
    dead_code.py command): dictionary nodes NO live triple references under
    the every-200th-doc live set — the anti side of kg_live_nodes."""
    from code_graph_rag_ray.stages.canonicalize import dead_nodes

    nodes = kg_doc_nodes(sf_dir)

    def live_only(b: pa.Table) -> pa.Table:
        doc = pc.cast(pc.replace_substring_regex(
            b["provenance_url"], pattern="^.*/doc/", replacement=""), pa.int64())
        keep = pc.equal(pc.subtract(doc, pc.multiply(
            pc.divide(doc, 200), 200)), 0)
        return b.filter(keep)

    edges = kg_doc_triples(sf_dir).map_batches(live_only, batch_format="pyarrow")
    return dead_nodes(
        nodes, edges,
        node_schema=pa.schema([("entity_id", pa.string()),
                               ("n_mentions", pa.int64())]))


_ENT_SQL_LIST = "[" + ", ".join(f"'{w}'" for w in ENTITY_VOCAB_SORTED) + "]"

KG_DOC_NODES_SQL = f"""
WITH c AS (
  SELECT w, count(*) AS n
  FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}
  GROUP BY w
)
SELECT v.entity_id, CAST(coalesce(c.n, 0) AS BIGINT) AS n_mentions
FROM (SELECT unnest({_ENT_SQL_LIST}) AS entity_id) v
LEFT JOIN c ON v.entity_id = c.w
"""

KG_LIVE_NODES_SQL = (
    "WITH nodes AS (" + KG_DOC_NODES_SQL + "), e AS ("
    + KG_DOC_TRIPLES_SQL.replace(
        "WHERE toks[i] IN", "WHERE doc_id % 200 = 0 AND toks[i] IN")
    + """)
SELECT n.entity_id, n.n_mentions FROM nodes n
WHERE EXISTS (SELECT 1 FROM e
              WHERE e.subj = n.entity_id OR e.obj = n.entity_id)
""")

KG_DEAD_NODES_SQL = KG_LIVE_NODES_SQL.replace("WHERE EXISTS", "WHERE NOT EXISTS")


def _typed_vocab_alias_tbl() -> pa.Table:
    """Vocab dictionary with a deterministic ``etype`` taxonomy (node-label
    analog, ``constants/graph.py:87-109``): even-length words are ``Term``,
    odd-length ``Metric`` — closed-form, so DuckDB can recompute it."""
    return pa.Table.from_pylist(
        [{"alias": w, "entity_id": w, "prior": 1.0,
          "etype": "Term" if len(w) % 2 == 0 else "Metric"}
         for w in ENTITY_VOCAB_SORTED],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64()), ("etype", pa.string())]),
    )


_LABEL_SQL = "CASE WHEN length({c}) % 2 = 0 THEN 'Term' ELSE 'Metric' END"


def kg_typed_nodes(sf_dir: str):
    """Typed node table: dictionary ``etype`` flows through canonicalization
    into per-node labels (M7/T3 analog — typed definitions instead of one
    generic Entity label)."""
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    kg = build_kg(pages, _typed_vocab_alias_tbl(), relations=relations)
    nodes = kg["nodes"]

    def keep(b: pa.Table) -> pa.Table:
        f = b.filter(pc.invert(pc.equal(b["label"], "ExternalEntity")))
        return pa.table({"entity_id": f["entity_id"], "label": f["label"],
                         "n_mentions": pc.cast(f["n_mentions"], pa.int64())})

    return nodes.map_batches(keep, batch_format="pyarrow")


KG_TYPED_NODES_SQL = f"""
WITH c AS (
  SELECT w, count(*) AS n
  FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}
  GROUP BY w
)
SELECT v.entity_id, {_LABEL_SQL.format(c='v.entity_id')} AS label,
       CAST(coalesce(c.n, 0) AS BIGINT) AS n_mentions
FROM (SELECT unnest({_ENT_SQL_LIST}) AS entity_id) v
LEFT JOIN c ON v.entity_id = c.w
"""


def kg_edge_violations(sf_dir: str):
    """Relation-legality audit (graph-schema legality matrix analog,
    ``docs/architecture/graph-schema.md:40-68``): edges whose endpoint
    labels violate the per-predicate constraint, one streaming pass over
    the edge table against the broadcast dictionary label map."""
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.schema import validate_edges

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    kg = build_kg(
        pages, _typed_vocab_alias_tbl(), relations=relations,
        materialize_mentions=False, build_nodes=False,
    )
    legality = {"dup": (frozenset({"Term"}), None),
                "join": (None, frozenset({"Term"}))}
    out = validate_edges(
        kg["edges"].select_columns(["subj", "pred", "obj", "provenance_url"]),
        _typed_vocab_alias_tbl(), legality, mode="violations",
    )
    return out


KG_EDGE_VIOLATIONS_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {_ENT_SQL} AND toks[i+1] IN {_REL_SQL} AND toks[i+2] IN {_ENT_SQL}
     )
SELECT subj, pred, obj, provenance_url,
       CASE WHEN pred = 'dup' THEN 'subj-label' ELSE 'obj-label' END AS violation
FROM e
WHERE (pred = 'dup' AND {_LABEL_SQL.format(c='subj')} <> 'Term')
   OR (pred = 'join' AND {_LABEL_SQL.format(c='obj')} <> 'Term')
"""


def kg_induced_schema(sf_dir: str):
    """Schema induction: mine each predicate's dominant (subj_label,
    obj_label) signature with support counts from the typed edge table —
    the learned counterpart of kg_edge_violations' fixed legality matrix
    (stages/schema.induce_schema)."""
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.schema import induce_schema

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    kg = build_kg(
        pages, _typed_vocab_alias_tbl(), relations=relations,
        materialize_mentions=False, build_nodes=False,
    )
    import ray

    return induce_schema(
        kg["edges"].select_columns(["subj", "pred", "obj", "provenance_url"]),
        ray.put(_typed_vocab_alias_tbl()),
    )


KG_INDUCED_SCHEMA_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {_ENT_SQL} AND toks[i+1] IN {_REL_SQL} AND toks[i+2] IN {_ENT_SQL}
     ),
     lab AS (
       SELECT pred, {_LABEL_SQL.format(c='subj')} AS subj_label,
              {_LABEL_SQL.format(c='obj')} AS obj_label
       FROM e),
     cnt AS (
       SELECT pred, subj_label, obj_label, CAST(count(*) AS BIGINT) AS support
       FROM lab GROUP BY pred, subj_label, obj_label),
     ranked AS (
       SELECT *,
              row_number() OVER (PARTITION BY pred
                                 ORDER BY support DESC, subj_label, obj_label) AS rn,
              sum(support) OVER (PARTITION BY pred) AS tot
       FROM cnt)
SELECT pred, subj_label, obj_label, support,
       CAST(tot AS BIGINT) AS total,
       CAST((1000000::HUGEINT * support) // tot AS BIGINT) AS support_micro
FROM ranked WHERE rn = 1
"""


def _kg_edges_version(sf_dir: str, mod: int):
    """Edge table of corpus version "documents with doc_id % mod != 0"
    (the kg_edge_diff / kg_edge_diff_ckpt version generator)."""
    import pyarrow.compute as pc

    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import _docs_to_pages_batch

    relations = {w: w for w in RELATION_VOCAB_SORTED}
    alias = pa.Table.from_pylist(
        [{"alias": w, "entity_id": w, "prior": 1.0} for w in ENTITY_VOCAB_SORTED]
    )
    docs = _pq(sf_dir, "documents", ["doc_id", "text", "lang", "source"])

    def keep(b: pa.Table) -> pa.Table:
        m = pc.subtract(b["doc_id"],
                        pc.multiply(pc.divide(b["doc_id"], mod), mod))
        return b.filter(pc.not_equal(m, 0))

    pages = docs.map_batches(keep, batch_format="pyarrow").map_batches(
        _docs_to_pages_batch, batch_format="pyarrow"
    )
    kg = build_kg(pages, alias, relations=relations,
                  materialize_mentions=False, build_nodes=False)
    return kg["edges"].select_columns(["subj", "pred", "obj", "provenance_url"])


def kg_edge_diff(sf_dir: str):
    """KG diff between two corpus versions — the CDC counterpart of
    incremental_update at EDGE granularity (reference analog: the
    incremental == clean equivalence eval, `evals/incremental_scores.csv`):
    v1 = documents with doc_id % 7 != 0, v2 = documents with
    doc_id % 5 != 0 (each version misses some docs, so both directions
    are non-empty). Added = v2-only edges, removed = v1-only edges, via
    the composite-key bucketed ANTI join both ways — edge tables are
    corpus-scale on BOTH sides, so neither is broadcast and nothing
    lands on the driver."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    key = ["subj", "pred", "obj", "provenance_url"]
    schema = pa.schema([(c, pa.string()) for c in key])
    v1 = _kg_edges_version(sf_dir, 7)
    v2 = _kg_edges_version(sf_dir, 5)

    def tag(change: str):
        def f(b: pa.Table) -> pa.Table:
            return b.append_column(
                "change", pa.array([change] * b.num_rows, pa.string()))
        return f

    # each version's lineage re-executes once per consuming branch (plan
    # duplication is the streaming-safe choice; a production diff over a
    # checkpointed build reads the edge parquet twice instead)
    added = bucketed_join(v2, v1, on=key, how="anti",
                          left_schema=schema, right_schema=schema
                          ).map_batches(tag("added"), batch_format="pyarrow")
    removed = bucketed_join(v1, v2, on=key, how="anti",
                            left_schema=schema, right_schema=schema
                            ).map_batches(tag("removed"), batch_format="pyarrow")
    return added.union(removed)


KG_EDGE_DIFF_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT doc_id, toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     ),
     v1 AS (SELECT subj, pred, obj, provenance_url FROM e WHERE doc_id % 7 <> 0),
     v2 AS (SELECT subj, pred, obj, provenance_url FROM e WHERE doc_id % 5 <> 0)
SELECT subj, pred, obj, provenance_url, 'added' AS change
FROM (SELECT * FROM v2 EXCEPT SELECT * FROM v1)
UNION ALL
SELECT subj, pred, obj, provenance_url, 'removed' AS change
FROM (SELECT * FROM v1 EXCEPT SELECT * FROM v2)
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def kg_edge_diff_ckpt(sf_dir: str):
    """Checkpointed CDC twin of kg_edge_diff: materialize both corpus
    versions' edge tables as hash(subj)-partitioned resume_materialize
    trees, then diff PARTITION-BY-PARTITION reading only manifests +
    digest-changed partitions (`stages/diff.py diff_materialized`) — zero
    shuffle, one task per changed partition, identical output to the
    streaming twin (same oracle). The production shape once snapshots are
    checkpointed: snapshot N's tree already exists, so a real run pays
    only v2's build + the changed-partition reads."""
    import shutil
    import tempfile

    from code_graph_rag_ray.stages.diff import diff_materialized
    from code_graph_rag_ray.state.lineage import resume_materialize

    key = ["subj", "pred", "obj", "provenance_url"]
    # a private root per call: concurrent runs never share trees; the
    # diff reads them lazily, so it is materialized before the cleanup
    root = tempfile.mkdtemp(prefix="graft_ediff_")
    try:
        for mod, name in ((7, "v1"), (5, "v2")):
            resume_materialize(
                _kg_edges_version(sf_dir, mod), f"{root}/{name}", key="subj",
                sort_by=key, num_partitions=16,
            )
        return diff_materialized(f"{root}/v1", f"{root}/v2", on=key).materialize()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def kg_path_2hop(sf_dir: str):
    """Graph-pattern query primitive: match (a)-[join]->(b)-[merge]->(c)
    over the KG edge table and aggregate path counts per (a, c) — the
    Ray-Data re-expression of the reference's Cypher traversal surface
    (`graph_service.py` MATCH queries): each hop is a bucketed cogroup
    join keyed on the shared endpoint, the path table never
    materializes on the driver, and counts fold through the standard
    partial-sum shuffle."""
    import pyarrow.compute as pc

    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.relational import (
        bucketed_join,
        partial_groupby_sum,
    )

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    alias = pa.Table.from_pylist(
        [{"alias": w, "entity_id": w, "prior": 1.0} for w in ENTITY_VOCAB_SORTED]
    )
    kg = build_kg(pages, alias, relations=relations,
                  materialize_mentions=False, build_nodes=False)
    # both hops filter the same edge table — pin it once (else the KG
    # build lineage executes once per hop)
    edges = kg["edges"].select_columns(["subj", "pred", "obj"]).materialize()

    def hop(pred: str, names: tuple[str, str]):
        def f(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b["pred"], pred))
            return pa.table({names[0]: b["subj"], names[1]: b["obj"]})
        return edges.map_batches(f, batch_format="pyarrow")

    h1 = hop("join", ("a", "mid"))
    h2 = hop("merge", ("mid", "c"))
    two = pa.schema([("a", pa.string()), ("mid", pa.string())])
    paths = bucketed_join(
        h1, h2, on="mid",
        left_schema=two,
        right_schema=pa.schema([("mid", pa.string()), ("c", pa.string())]),
    )

    def one(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "c": pa.array([], pa.string()),
                             "one": pa.array([], pa.int64())})
        return pa.table({"a": pc.cast(b["a"], pa.string()),
                         "c": pc.cast(b["c"], pa.string()),
                         "one": pa.array(np.ones(b.num_rows, np.int64))})

    # (a, c) path groups are entity-pair-scale (corpus-scale on real
    # data) — return the Dataset; like the rest of the aggregate family,
    # an ALL-empty result degrades to a schema-less empty (facts 23/28)
    return partial_groupby_sum(
        paths.map_batches(one, batch_format="pyarrow"),
        ["a", "c"], {"one": "n_paths"},
    )


KG_PATH_2HOP_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     )
SELECT e1.subj AS a, e2.obj AS c, CAST(count(*) AS BIGINT) AS n_paths
FROM e AS e1 JOIN e AS e2 ON e1.obj = e2.subj
WHERE e1.pred = 'join' AND e2.pred = 'merge'
GROUP BY e1.subj, e2.obj
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def _kg_edges(sf_dir: str):
    """Shared KG edge table for the path-query family (subj, pred, obj
    with per-provenance multiplicity, matching the oracle's DISTINCT
    (subj,pred,obj,provenance_url) edge relation)."""
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir)
    relations = {w: w for w in RELATION_VOCAB_SORTED}
    alias = pa.Table.from_pylist(
        [{"alias": w, "entity_id": w, "prior": 1.0} for w in ENTITY_VOCAB_SORTED]
    )
    kg = build_kg(pages, alias, relations=relations,
                  materialize_mentions=False, build_nodes=False)
    return kg["edges"].select_columns(["subj", "pred", "obj"])


def kg_path_khop(sf_dir: str):
    """Variable-length graph-pattern query: SIMPLE (cycle-excluded) 3-hop
    paths (a)-[join]->(b)-[merge]->(c)-[filter]->(d) over the KG edge
    table, path counts per (a, d) — the k-hop generalization of
    kg_path_2hop via the pattern DSL (stages/paths.py). Reference analog:
    Cypher variable-length MATCH (`tools/codebase_query.py`). FACTORIZED
    counting (stages/paths.py count_pattern): hop tables pre-count per
    distinct pair, joins carry distinct bindings + multiplicities, cycle
    exclusion filters bindings — the combinatorial path relation (~39M
    rows at sf0.1 on the provenance-multiplicity KG) never
    materializes."""
    from code_graph_rag_ray.stages.paths import count_pattern

    return count_pattern(
        _kg_edges(sf_dir), "(a)-[join]->(b)-[merge]->(c)-[filter]->(d)"
    )


KG_PATH_KHOP_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     )
SELECT e1.subj AS a, e3.obj AS d, CAST(count(*) AS BIGINT) AS n_paths
FROM e AS e1
JOIN e AS e2 ON e1.obj = e2.subj
JOIN e AS e3 ON e2.obj = e3.subj
WHERE e1.pred = 'join' AND e2.pred = 'merge' AND e3.pred = 'filter'
  AND e1.subj <> e1.obj
  AND e2.obj <> e1.subj AND e2.obj <> e1.obj
  AND e3.obj <> e1.subj AND e3.obj <> e1.obj AND e3.obj <> e2.obj
GROUP BY e1.subj, e3.obj
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def kg_path_varlen(sf_dir: str):
    """Variable-length pattern segment: (a)-[join*1..2]->(b) simple-path
    counts — the Cypher ``[:join*1..2]`` form, desugared by the DSL into
    a union of fixed expansions with anonymous intermediates projected
    away; counts via the factorized binding-multiplicity chain
    (stages/paths.py count_pattern)."""
    from code_graph_rag_ray.stages.paths import count_pattern

    return count_pattern(_kg_edges(sf_dir), "(a)-[join*1..2]->(b)")


KG_PATH_VARLEN_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     ),
     p1 AS (SELECT subj AS a, obj AS b FROM e
            WHERE pred = 'join' AND subj <> obj),
     p2 AS (SELECT e1.subj AS a, e2.obj AS b
            FROM e AS e1 JOIN e AS e2 ON e1.obj = e2.subj
            WHERE e1.pred = 'join' AND e2.pred = 'join'
              AND e1.subj <> e1.obj
              AND e2.obj <> e1.subj AND e2.obj <> e1.obj),
     u AS (SELECT a, b FROM p1 UNION ALL SELECT a, b FROM p2)
SELECT a, b, CAST(count(*) AS BIGINT) AS n_paths FROM u GROUP BY a, b
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def kg_reachable_k3(sf_dir: str):
    """Bounded multi-source reachability — (src)-[*0..3]->(node) with
    min-hop distance, sources = every subject of a 'join' edge. The
    labeled frontier BFS (stages/paths.py bounded_reachability): every
    frontier row carries its origin, settled (src, node) pairs never
    re-expand, O(k) exchanges total. Reference analog: Memgraph
    variable-length reachability Cypher (`graph_service.py`)."""
    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.paths import bounded_reachability

    # seeds and the per-round adjacency both derive from the edge table —
    # pin it once (else the KG build lineage executes twice)
    edges = _kg_edges(sf_dir).materialize()
    seeds = edges.map_batches(
        lambda b: pa.table(
            {"node": b.filter(pc.equal(b["pred"], "join"))["subj"]}),
        batch_format="pyarrow",
    )
    return bounded_reachability(edges, seeds, k=3)


KG_REACHABLE_K3_SQL = f"""
WITH RECURSIVE
     t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     ),
     seeds AS (SELECT DISTINCT subj AS src FROM e WHERE pred = 'join'),
     r AS (
       SELECT src, src AS node, 0 AS hops FROM seeds
       UNION
       SELECT r.src, e.obj AS node, r.hops + 1 AS hops
       FROM r JOIN e ON e.subj = r.node
       WHERE r.hops < 3
     )
SELECT src, node, CAST(min(hops) AS BIGINT) AS hops
FROM r GROUP BY src, node
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def kg_ego_subgraph(sf_dir: str):
    """Ego-network extraction — the RAG "fetch the neighborhood of this
    entity" query (`tools/semantic_search.py` + Cypher neighborhood MATCH
    analog): the INDUCED subgraph on every node within 2 directed hops of
    the seed entity 'spark'. Composition of bounded labeled reachability
    (stages/paths.py) + two bucketed SEMI joins (edges ⋉ reach on subj,
    then on obj — only the key column crosses each shuffle) + the
    partial-count distinct; the reach set never lands on the driver."""
    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.paths import bounded_reachability
    from code_graph_rag_ray.stages.relational import (
        bucketed_join,
        partial_groupby_sum,
    )

    edges = _kg_edges(sf_dir).materialize()  # consumed by 3 branches
    seeds = rd.from_arrow(pa.table({"node": pa.array(["spark"], pa.string())}))
    reach = bounded_reachability(edges, seeds, k=2).map_batches(
        lambda b: pa.table({"node": pc.cast(b["node"], pa.string())}),
        batch_format="pyarrow",
    )
    eschema = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                         ("obj", pa.string())])
    nschema = pa.schema([("node", pa.string())])
    inner = bucketed_join(edges, reach, on="subj", right_on="node",
                          how="semi", left_schema=eschema,
                          right_schema=nschema)
    inner = bucketed_join(inner, reach, on="obj", right_on="node",
                          how="semi", left_schema=eschema,
                          right_schema=nschema)
    return partial_groupby_sum(
        inner, ["subj", "pred", "obj"], {}, count_alias="__n"
    ).drop_columns(["__n"])


KG_EGO_SUBGRAPH_SQL = f"""
WITH RECURSIVE
     t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     ),
     r AS (
       SELECT 'spark' AS node, 0 AS hops
       UNION
       SELECT e.obj AS node, r.hops + 1 AS hops
       FROM r JOIN e ON e.subj = r.node
       WHERE r.hops < 2
     ),
     reach AS (SELECT DISTINCT node FROM r)
SELECT DISTINCT subj, pred, obj
FROM e
WHERE subj IN (SELECT node FROM reach) AND obj IN (SELECT node FROM reach)
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def kg_fact_fusion(sf_dir: str):
    """Truth discovery over conflicting provenances: per (subj, pred) the
    majority-vote object with vote counts and the integer-exact dominance
    ratio — the content-determined replacement for cgr's last-write-wins
    MERGE (`graph_service.py:395-428`). Votes fold through the standard
    partial-count shuffle; the corpus-scale grouped argmax is the
    hash-bucket + vectorized-pandas pattern (stages/fusion.py)."""
    from code_graph_rag_ray.stages.fusion import fuse_facts

    return fuse_facts(_kg_edges(sf_dir))


KG_FACT_FUSION_SQL = f"""
WITH t AS (SELECT doc_id, source, string_split(text, ' ') AS toks FROM documents),
     idx AS (SELECT doc_id, source, toks, unnest(range(1, len(toks) - 1)) AS i FROM t),
     e AS (
       SELECT DISTINCT toks[i] AS subj, toks[i+1] AS pred, toks[i+2] AS obj,
              'https://' || source || '.example.org/doc/' || doc_id AS provenance_url
       FROM idx
       WHERE toks[i] IN {{ent}} AND toks[i+1] IN {{rel}} AND toks[i+2] IN {{ent}}
     ),
     v AS (SELECT subj, pred, obj, CAST(count(*) AS BIGINT) AS votes
           FROM e GROUP BY subj, pred, obj),
     w AS (
       SELECT subj, pred, obj, votes,
              CAST(sum(votes) OVER (PARTITION BY subj, pred) AS BIGINT) AS total_votes,
              CAST(count(*) OVER (PARTITION BY subj, pred) AS BIGINT) AS n_objs,
              row_number() OVER (PARTITION BY subj, pred
                                 ORDER BY votes DESC, obj ASC) AS rn
       FROM v)
SELECT subj, pred, obj, votes, total_votes, n_objs,
       CAST((1000000::HUGEINT * votes) // total_votes AS BIGINT) AS dominance_micro
FROM w WHERE rn = 1
""".format(ent=_ENT_SQL, rel=_REL_SQL)


def page_hosts(sf_dir: str):
    """Structure pass analog (M4): host hierarchy counts from page urls."""
    from ray.data.aggregate import Count
    from code_graph_rag_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir)

    def host_of(b: pa.Table) -> pa.Table:
        hosts = pc.extract_regex(b["url"], pattern=r"^https://(?P<host>[^/]+)/")
        return pa.table({"host": pc.struct_field(hosts, "host")})

    return pages.map_batches(host_of, batch_format="pyarrow").groupby("host").aggregate(
        Count(alias_name="n_pages")
    )


PAGE_HOSTS_SQL = """
SELECT source || '.example.org' AS host, count(*) AS n_pages
FROM documents GROUP BY 1
"""


def page_extract_text(sf_dir: str):
    """Deterministic HTML→text over documents-derived pages (per-row
    invariant surfaced to the oracle via the closed-form wrap)."""
    from code_graph_rag_ray.stages.extract import extract_text_batch
    from code_graph_rag_ray.sources.pages import pages_from_documents

    pages = pages_from_documents(sf_dir)
    out = pages.map_batches(extract_text_batch, batch_format="pyarrow")
    return out.select_columns(["url", "text"])


PAGE_EXTRACT_TEXT_SQL = """
SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
       'doc ' || doc_id || chr(10) || text || chr(10)
         || (CASE WHEN doc_id % 2 = 0 THEN 'ref' ELSE 'see' END)
         || ' ref' AS text
FROM documents
"""


def warc_pages(sf_dir: str):
    """WARC source end-to-end (`sources/warc.py` — Common Crawl's native
    frame): export the deterministic pages corpus as WARC shards
    (distributed, one shard per batch written inside the task), read it
    back through the WARC frame, extract text. Output (url, text) must
    equal the parquet-path page_extract_text — the oracle is the same
    closed-form SQL, so a frame bug anywhere (date precision, payload
    slicing, record skipping) breaks the hash."""
    import shutil
    import tempfile

    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.sources.warc import (
        read_pages_warc,
        write_pages_warc_dataset,
    )
    from code_graph_rag_ray.stages.extract import extract_text_batch

    # a private root per call, removed once the lazy read is materialized
    out = tempfile.mkdtemp(prefix="graft_warc_")
    try:
        write_pages_warc_dataset(pages_from_documents(sf_dir), out).count()
        return read_pages_warc(out).map_batches(
            extract_text_batch, batch_format="pyarrow"
        ).select_columns(["url", "text"]).materialize()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def page_structure(sf_dir: str):
    """Structure pass (M4 analog): url → host/folder/page containment
    edges, exact-deduped (Pass-1 Package/Folder/CONTAINS_* translation)."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.structure import structure_edges

    return structure_edges(pages_from_documents(sf_dir))


PAGE_STRUCTURE_SQL = """
SELECT DISTINCT source || '.example.org' AS parent,
       source || '.example.org/doc' AS child,
       'CONTAINS_FOLDER' AS rel
FROM documents
UNION ALL
SELECT source || '.example.org/doc' AS parent,
       'https://' || source || '.example.org/doc/' || doc_id AS child,
       'CONTAINS_PAGE' AS rel
FROM documents
"""


# ---------------------------------------------------------------------------
# hyperlink graph (M8-href / J4 / J8 analogs)
# ---------------------------------------------------------------------------

def page_links(sf_dir: str):
    """Raw hyperlink extraction (M8 href analog): every <a href> target per
    page, vectorized from the raw html BEFORE tag-stripping."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links

    return extract_links(pages_from_documents(sf_dir))


PAGE_LINKS_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1,
         'https://ext-' || (doc_id % 7) || '.example.net/' AS t2,
         'HTTPS://' || upper(source) || '.Example.ORG:443/doc/'
           || (doc_id // 3) || '?utm_source=feed#s' AS t3
  FROM documents)
SELECT url, t1 AS target FROM p
UNION ALL
SELECT url, t2 AS target FROM p
UNION ALL
SELECT url, t3 AS target FROM p
"""


def page_links_internal(sf_dir: str):
    """J4/J8 analog: link targets semi-joined against the corpus url set
    (bucketed cogroup, both sides corpus-scale) → links_to edges. Dangling
    targets emit NO edge (cgr's deferred-import verification rule)."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links, resolve_links

    pages = pages_from_documents(sf_dir)
    links = extract_links(pages)
    return resolve_links(links, pages.select_columns(["url"]))["internal"]


PAGE_LINKS_INTERNAL_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents)
SELECT a.url AS src_url, a.t1 AS dst_url
FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url
"""


def page_ext_sites(sf_dir: str):
    """Anti-join side of link resolution: targets with no corpus page
    aggregate into ext_site nodes (site host, inbound-link count) — the
    ExternalModule-minting rule of import_processor.py:861-983."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links, resolve_links

    pages = pages_from_documents(sf_dir)
    links = extract_links(pages)
    return resolve_links(links, pages.select_columns(["url"]))["external"]


PAGE_EXT_SITES_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1,
         'ext-' || (doc_id % 7) || '.example.net' AS t2_site,
         source || '.example.org' AS t1_site
  FROM documents),
u AS (
  SELECT a.t1_site AS site
  FROM p a LEFT JOIN (SELECT url FROM p) b ON a.t1 = b.url
  WHERE b.url IS NULL
  UNION ALL
  SELECT t2_site AS site FROM p
  UNION ALL
  -- the messy-spelled third link NEVER matches raw (case/port/params), so
  -- its lowercased host:port lands on the anti side
  SELECT source || '.example.org:443' AS site FROM documents)
SELECT site, count(*) AS n_links FROM u GROUP BY site
"""


def page_links_normalized(sf_dir: str):
    """J8 with NORMALIZED join keys (the reference canonicalizes request /
    endpoint URLs before its equi-join, graph_updater.py:1023-1047): raw
    targets are canonicalized (lowercase scheme+host, default port,
    fragment, utm params — functions/urls.py) and THEN semi-joined against
    the corpus url set, so messy-spelled links resolve where raw joining
    misses them."""
    from code_graph_rag_ray.functions.urls import normalize_urls
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links, resolve_links

    pages = pages_from_documents(sf_dir)
    links = extract_links(pages)

    def canon(b: pa.Table) -> pa.Table:
        return pa.table({"url": b["url"], "target": normalize_urls(b["target"])})

    normalized = links.map_batches(canon, batch_format="pyarrow")
    return resolve_links(normalized, pages.select_columns(["url"]))["internal"]


PAGE_LINKS_NORMALIZED_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1,
         'https://' || source || '.example.org/doc/' || (doc_id // 3) AS t3n
  FROM documents),
c AS (SELECT url FROM p)
SELECT a.url AS src_url, a.t AS dst_url
FROM (SELECT url, t1 AS t FROM p UNION ALL SELECT url, t3n AS t FROM p) a
JOIN c b ON a.t = b.url
"""


def page_anchor_summary(sf_dir: str):
    """Inbound anchor-text aggregation per internal link target (the J8
    endpoint-linking signal: how the rest of the corpus names a page).
    Semi-join keeps internal targets, then ONE combiner-first (dst, anchor)
    count shuffle; top_anchor tie-break is (count DESC, anchor ASC) so the
    result is deterministic at any parallelism."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import anchor_summary, extract_links

    pages = pages_from_documents(sf_dir)
    links = extract_links(pages, with_anchor=True)
    return anchor_summary(links, pages.select_columns(["url"]))


PAGE_ANCHOR_SUMMARY_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1,
         CASE WHEN doc_id % 2 = 0 THEN 'ref' ELSE 'see' END AS anchor
  FROM documents),
internal AS (
  SELECT a.url AS src_url, a.t1 AS dst_url, a.anchor
  FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
c AS (
  SELECT dst_url, anchor, count(*) AS n
  FROM internal GROUP BY dst_url, anchor)
SELECT dst_url,
       CAST(sum(n) AS BIGINT) AS n_links,
       count(*) AS n_anchors,
       (array_agg(anchor ORDER BY n DESC, anchor ASC))[1] AS top_anchor
FROM c GROUP BY dst_url
"""


def kg_mined_aliases(sf_dir: str):
    """Anchor-text alias dictionary mined from the corpus's own hyperlinks
    (stages/links.mine_anchor_aliases): every internal link votes its
    anchor as a name for its target; prior = P(target | alias). The output
    is schema-compatible with the linker's broadcast alias table — the
    dictionary-bootstrapping loop the reference seeds from declared
    definitions instead."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links, mine_anchor_aliases

    pages = pages_from_documents(sf_dir)
    links = extract_links(pages, with_anchor=True)
    return mine_anchor_aliases(links, pages.select_columns(["url"]), min_count=1)


KG_MINED_ALIASES_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1,
         CASE WHEN doc_id % 2 = 0 THEN 'ref' ELSE 'see' END AS anchor
  FROM documents),
internal AS (
  SELECT a.t1 AS target, a.anchor
  FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
pairs AS (
  SELECT trim(anchor) AS alias, target, count(*) AS n
  FROM internal WHERE trim(anchor) <> '' GROUP BY 1, 2),
tot AS (SELECT alias, sum(n) AS tot FROM pairs GROUP BY alias)
SELECT pr.alias, 'page::' || pr.target AS entity_id,
       pr.n::DOUBLE / t.tot::DOUBLE AS prior,
       CAST(pr.n AS BIGINT) AS n_links
FROM pairs pr JOIN tot t USING (alias)
WHERE pr.n >= 1
"""


def kg_negative_samples(sf_dir: str):
    """Filtered negative sampling over the normalized link graph
    (stages/sampling.negative_samples): k=2 deterministic md5-mod draws per
    positive edge against a global_rank node indexing, true edges
    anti-joined away — the KG-embedding-training data generator."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links, resolve_links
    from code_graph_rag_ray.stages.sampling import negative_samples

    pages = pages_from_documents(sf_dir)
    urls = pages.select_columns(["url"])
    links = extract_links(pages)
    internal = resolve_links(links, urls)["internal"]
    return negative_samples(internal, urls, k=2)


KG_NEGATIVE_SAMPLES_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
edges AS (
  SELECT a.url AS src, a.t1 AS dst
  FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
nodes AS (SELECT url, row_number() OVER (ORDER BY url) - 1 AS idx FROM p),
cand AS (
  SELECT e.src, e.dst, j.j AS neg_ix,
         CAST(('0x' || substr(md5(e.src || '|' || e.dst || '|' || j.j), 1, 16))::UBIGINT
              % (SELECT count(*) FROM nodes) AS BIGINT) AS idx
  FROM edges e CROSS JOIN (SELECT unnest(generate_series(0, 1)) AS j) j)
SELECT c.src, c.dst, CAST(c.neg_ix AS BIGINT) AS neg_ix, nd.url AS neg
FROM cand c JOIN nodes nd USING (idx)
WHERE NOT EXISTS (SELECT 1 FROM edges e
                  WHERE e.src = c.src AND e.dst = nd.url)
"""


def _internal_link_graph(sf_dir: str):
    """(pages, internal links_to edges) — shared input of the graph-metric
    queries."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.links import extract_links, resolve_links

    pages = pages_from_documents(sf_dir)
    links = extract_links(pages)
    internal = resolve_links(links, pages.select_columns(["url"]))["internal"]
    return pages, internal


def page_sssp(sf_dir: str):
    """Bounded-hop weighted shortest paths from the lexicographically first
    page (stages/graph_metrics.sssp_bounded): Bellman-Ford rounds with
    change-propagation; edge weights are integer md5-derived (1..9) so the
    distance table is bit-exact against a recursive-CTE oracle."""
    from code_graph_rag_ray.functions.hashing import md5_low32_array
    from code_graph_rag_ray.stages.graph_metrics import sssp_bounded

    pages, internal = _internal_link_graph(sf_dir)

    def weigh(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(b["src_url"], b["dst_url"], ">")
        wt = (md5_low32_array(key) % np.uint32(9)).astype(np.int64) + 1
        return pa.table({"src": b["src_url"], "dst": b["dst_url"],
                         "wt": pa.array(wt)})

    edges = internal.map_batches(weigh, batch_format="pyarrow")

    # seeds: every 20th document's page — the undirected balls around them
    # cover the fixture's halving-chains non-trivially at every scale
    def mk_seeds(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(pc.subtract(b["doc_id"],
                                          pc.multiply(pc.divide(b["doc_id"], 20),
                                                      20)), 0))
        url = pc.binary_join_element_wise(
            pa.array(["https://"] * f.num_rows, pa.string()), f["source"],
            pa.array([".example.org/doc/"] * f.num_rows, pa.string()),
            pc.cast(f["doc_id"], pa.string()), "")
        return pa.table({"url": url})

    seeds = [r["url"] for r in
             _pq(sf_dir, "documents", ["doc_id", "source"]).map_batches(
                 mk_seeds, batch_format="pyarrow").take_all()]
    return sssp_bounded(edges, seeds, max_hops=4, undirected=True)


PAGE_SSSP_SQL = """
WITH RECURSIVE p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
dir_edges AS (
  SELECT a.url AS src, a.t1 AS dst,
         CAST(1 + ('0x' || substr(md5(a.url || '>' || a.t1), 1, 8))::UBIGINT % 9
              AS BIGINT) AS wt
  FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
edges AS (
  SELECT src, dst, wt FROM dir_edges
  UNION ALL SELECT dst AS src, src AS dst, wt FROM dir_edges),
seeds AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url
  FROM documents WHERE doc_id % 20 = 0),
walk(node, dist, hops) AS (
  SELECT url, 0::BIGINT, 0 FROM seeds
  UNION
  SELECT e.dst, w.dist + e.wt, w.hops + 1
  FROM walk w JOIN edges e ON e.src = w.node
  WHERE w.hops < 4)
SELECT node, CAST(min(dist) AS BIGINT) AS dist FROM walk GROUP BY node
"""


def page_rank(sf_dir: str):
    """Fixed-point PageRank over the links_to graph (the web-native "which
    node matters" metric the reference's retrieval layer ranks by).

    Integer recurrence → bit-exact vs the oracle's unrolled SQL iterations
    at ANY parallelism (see stages/graph_metrics.py)."""
    from code_graph_rag_ray.stages.graph_metrics import pagerank

    pages, internal = _internal_link_graph(sf_dir)
    return pagerank(
        internal,
        pages.select_columns(["url"]),
        src="src_url",
        dst="dst_url",
        node="url",
        iters=4,
    )


def page_ppr(sf_dir: str):
    """Personalized PageRank from every 20th document's page
    (stages/graph_metrics.personalized_pagerank) — the GraphRAG
    local-search primitive: all teleport mass (1−d share + dangling
    redistribution) flows to the seed set, so rank concentrates in the
    seeds' neighborhoods. Same integer recurrence discipline as
    page_rank → bit-exact vs the unrolled SQL replay."""
    from code_graph_rag_ray.stages.graph_metrics import personalized_pagerank

    pages, internal = _internal_link_graph(sf_dir)

    def mk_seeds(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(
            pc.subtract(b["doc_id"],
                        pc.multiply(pc.divide(b["doc_id"], 20), 20)), 0))
        url = pc.binary_join_element_wise(
            pa.array(["https://"] * f.num_rows, pa.string()), f["source"],
            pa.array([".example.org/doc/"] * f.num_rows, pa.string()),
            pc.cast(f["doc_id"], pa.string()), "")
        return pa.table({"url": url})

    seeds = [r["url"] for r in
             _pq(sf_dir, "documents", ["doc_id", "source"]).map_batches(
                 mk_seeds, batch_format="pyarrow").take_all()]
    return personalized_pagerank(
        internal, pages.select_columns(["url"]), seeds,
        src="src_url", dst="dst_url", node="url", iters=4,
    )


def _page_ppr_sql(iters: int = 4, scale: int = 10**12) -> str:
    """Unrolled personalized-PageRank recurrence — identical integer
    updates to the distributed stage, teleport conditional on seed
    membership."""
    head = f"""
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
e AS (SELECT a.url AS src, a.t1 AS dst
      FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
deg AS (SELECT src, count(*) AS c FROM e GROUP BY src),
sd AS (SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url
       FROM documents WHERE doc_id % 20 = 0),
sn AS (SELECT count(*) AS k FROM sd),
r0 AS (SELECT p.url AS node,
              CASE WHEN sd.url IS NOT NULL THEN {scale} // sn.k
                   ELSE 0 END AS rank
       FROM p CROSS JOIN sn LEFT JOIN sd ON p.url = sd.url)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""
d{i} AS (SELECT coalesce(sum(r.rank), 0) AS m
         FROM r{i-1} r LEFT JOIN deg ON r.node = deg.src
         WHERE deg.src IS NULL),
s{i} AS (SELECT e.dst, sum((85 * r.rank) // (100 * deg.c)) AS s
         FROM e JOIN r{i-1} r ON e.src = r.node
                JOIN deg ON e.src = deg.src
         GROUP BY e.dst),
r{i} AS (SELECT p.url AS node,
                (CASE WHEN sd.url IS NOT NULL
                      THEN (15 * {scale}) // (100 * sn.k)
                           + (85 * (SELECT m FROM d{i})) // (100 * sn.k)
                      ELSE 0 END
                 + coalesce(s.s, 0))::BIGINT AS rank
         FROM p CROSS JOIN sn
         LEFT JOIN sd ON p.url = sd.url
         LEFT JOIN s{i} s ON p.url = s.dst)""")
    return head + "," + ",".join(steps) + f"\nSELECT node, rank FROM r{iters}"


PAGE_PPR_SQL = _page_ppr_sql()


def _page_rank_sql(iters: int = 4, scale: int = 10**12) -> str:
    """Unrolled fixed-point PageRank recurrence — the SAME integer updates
    the distributed stage runs, so the match is exact, not approximate."""
    head = f"""
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
e AS (SELECT a.url AS src, a.t1 AS dst
      FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
deg AS (SELECT src, count(*) AS c FROM e GROUP BY src),
nn AS (SELECT count(*) AS n FROM p),
r0 AS (SELECT url AS node, {scale} // n AS rank FROM p CROSS JOIN nn)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""
d{i} AS (SELECT coalesce(sum(r.rank), 0) AS m
         FROM r{i-1} r LEFT JOIN deg ON r.node = deg.src
         WHERE deg.src IS NULL),
s{i} AS (SELECT e.dst, sum((85 * r.rank) // (100 * deg.c)) AS s
         FROM e JOIN r{i-1} r ON e.src = r.node
                JOIN deg ON e.src = deg.src
         GROUP BY e.dst),
r{i} AS (SELECT p.url AS node,
                ((15 * {scale}) // (100 * nn.n)
                 + (85 * (SELECT m FROM d{i})) // (100 * nn.n)
                 + coalesce(s.s, 0))::BIGINT AS rank
         FROM p CROSS JOIN nn LEFT JOIN s{i} s ON p.url = s.dst)""")
    return head + "," + ",".join(steps) + f"\nSELECT node, rank FROM r{iters}"


PAGE_RANK_SQL = _page_rank_sql()


def page_communities(sf_dir: str):
    """Label-propagation communities over the links_to graph
    (stages/graph_metrics.label_propagation): 4 synchronous rounds,
    most-frequent-neighbor label with min-label ties — deterministic at
    any parallelism, bit-exact vs the unrolled SQL replay."""
    from code_graph_rag_ray.stages.graph_metrics import label_propagation

    pages, internal = _internal_link_graph(sf_dir)
    return label_propagation(
        internal, pages.select_columns(["url"]),
        src="src_url", dst="dst_url", node="url", iters=4,
    )


#: CTE chain replaying `_internal_link_graph` over the documents table:
#: p(url, t1) mints every page url + its one internal link candidate,
#: e0(src, dst) keeps candidates that resolve to a real page (non-loop).
#: Shared by the LPA, community-terms and clustering-coefficient oracles.
_LINK_GRAPH_CTES = """
p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
e0 AS (SELECT a.url AS src, a.t1 AS dst
       FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url
       WHERE a.url <> a.t1)"""


def _lpa_ctes(iters: int = 4) -> str:
    """The WITH-body CTE chain of the unrolled synchronous LPA replay —
    same distinct undirected non-loop edge set, same (count DESC, label
    ASC) argmax, prior label as the zero-count candidate. Ends at
    ``l{iters}(node, label)``; shared by the communities and
    community-terms oracles."""
    head = _LINK_GRAPH_CTES + """,
eu AS (SELECT DISTINCT s, d FROM (
         SELECT src AS s, dst AS d FROM e0
         UNION ALL SELECT dst, src FROM e0)),
l0 AS (SELECT url AS node, url AS label FROM p)"""
    steps = []
    for i in range(1, iters + 1):
        prv = i - 1
        steps.append(f"""
c{i} AS (SELECT e.d AS node, l.label, count(*)::BIGINT AS c
         FROM eu e JOIN l{prv} l ON e.s = l.node GROUP BY e.d, l.label),
u{i} AS (SELECT node, label, c FROM c{i}
         UNION ALL SELECT node, label, 0::BIGINT FROM l{prv}),
l{i} AS (SELECT node, label FROM (
           SELECT node, label,
                  row_number() OVER (PARTITION BY node
                                     ORDER BY c DESC, label) AS rn
           FROM u{i}) t WHERE rn = 1)""")
    return head + "," + ",".join(steps)


PAGE_COMMUNITIES_SQL = (
    "WITH " + _lpa_ctes(4) + "\nSELECT node, label AS community FROM l4"
)


def cooccur_clustering(sf_dir: str):
    """Per-node local clustering coefficient over the MIN-SUPPORT entity
    co-occurrence graph (stages/graph_metrics.clustering_coefficient):
    the unthresholded graph is a clique (every entity pair co-occurs in
    a 500-doc bag-of-words corpus — cc uniformly 1.0) and the link graph
    is a triangle-free halving tree, so min_count=315 is what makes cc
    vary (12 distinct values over 17 nodes). cc quantized to integer
    millionths — degree-ordered triangle listing (O(m^1.5) wedge
    fan-out), per-vertex fan-3 count fold, one bucketed LEFT join so
    zero-triangle nodes survive. Bit-exact vs the SQL triangle
    listing."""
    from code_graph_rag_ray.stages.cooccur import entity_cooccurrence
    from code_graph_rag_ray.stages.graph_metrics import clustering_coefficient

    edges = entity_cooccurrence(doc_mentions(sf_dir)).map_batches(
        lambda b: b.filter(
            pc.greater_equal(b["c_ab"], pa.scalar(315, pa.int64()))
        ).select(["a", "b"]),
        batch_format="pyarrow",
    ).materialize()
    return clustering_coefficient(edges)


def page_community_terms(sf_dir: str):
    """GraphRAG-style community summaries: top-3 terms per LPA community
    by summed tf — the content profile the reference's retrieval layer
    approximates with per-module grouping. LPA labels (node-scale) reach
    the tf rows via ONE bucketed join; (community, term) counts fold
    two-phase; grouped_top_k caps every community at 3 rows with
    (n DESC, term ASC) ties."""
    from code_graph_rag_ray.stages.graph_metrics import label_propagation
    from code_graph_rag_ray.stages.relational import (
        adaptive_join,
        grouped_top_k,
        partial_groupby_sum,
    )
    from code_graph_rag_ray.stages.tfidf import extract_tf_batch

    pages, internal = _internal_link_graph(sf_dir)
    labels = label_propagation(
        internal, pages.select_columns(["url"]),
        src="src_url", dst="dst_url", node="url", iters=4,
    )

    def tf_rows(b: pa.Table) -> pa.Table:
        url = pc.binary_join_element_wise(
            pa.array(["https://"] * b.num_rows, pa.string()), b["source"],
            pa.array([".example.org/doc/"] * b.num_rows, pa.string()),
            pc.cast(b["doc_id"], pa.string()), "")
        t = pa.table({"url": url, "text": b["text"]})
        return extract_tf_batch(t, id_col="url", text_col="text")

    tf = _pq(sf_dir, "documents", ["doc_id", "source", "text"]).map_batches(
        tf_rows, batch_format="pyarrow")
    j = adaptive_join(
        tf, labels, on="url", right_on="node",
        left_schema=pa.schema([("url", pa.string()), ("term", pa.string()),
                               ("tf", pa.int64())]),
        right_schema=pa.schema([("node", pa.string()),
                                ("community", pa.string())]),
    )
    agg = partial_groupby_sum(
        j.select_columns(["community", "term", "tf"]),
        ["community", "term"], {"tf": "n"},
    )
    return grouped_top_k(agg, "community", "n", 3,
                         descending=True, tiebreak="term")


PAGE_COMMUNITY_TERMS_SQL = (
    "WITH " + _lpa_ctes(4) + """,
tok AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     w -> w <> '') AS ws
  FROM documents),
tfu AS (SELECT url, f AS term, count(*)::BIGINT AS tf
        FROM (SELECT url, unnest(ws) AS f FROM tok) GROUP BY url, f),
ag AS (SELECT l.label AS community, t.term, sum(t.tf)::BIGINT AS n
       FROM tfu t JOIN l4 l ON t.url = l.node GROUP BY l.label, t.term)
SELECT community, term, n FROM (
  SELECT *, row_number() OVER (PARTITION BY community
                               ORDER BY n DESC, term) AS rn
  FROM ag) t WHERE rn <= 3
""")


def page_cocitation(sf_dir: str):
    """Co-citation pairs over the NORMALIZED link graph: pages citing the
    same target (group = dst, item = citing src), with fixed-point lift —
    composed over the canonicalized resolution so the messy-spelled links
    contribute in-degree (the raw graph's targets are too sparse to
    co-cite). Marginals are corpus-sized (urls, not a dictionary) so they
    reach the pair table via two DISTRIBUTED bucketed joins — never a
    driver broadcast."""
    from code_graph_rag_ray.stages.cooccur import item_cocitation

    internal = page_links_normalized(sf_dir)
    return item_cocitation(internal, group_col="dst_url", item_col="src_url")


PAGE_COCITATION_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1,
         'https://' || source || '.example.org/doc/' || (doc_id // 3) AS t3n
  FROM documents),
c AS (SELECT url FROM p),
e AS (SELECT DISTINCT a.url AS src, a.t AS dst
      FROM (SELECT url, t1 AS t FROM p UNION ALL SELECT url, t3n AS t FROM p) a
      JOIN c b ON a.t = b.url),
n AS (SELECT count(DISTINCT dst) AS n FROM e),
marg AS (SELECT src, count(*) AS c FROM e GROUP BY src),
pc AS (
  SELECT x.src AS a, y.src AS b, count(*) AS c_ab
  FROM e x JOIN e y ON x.dst = y.dst AND x.src < y.src
  GROUP BY x.src, y.src)
SELECT pc.a, pc.b, pc.c_ab,
       (pc.c_ab * n.n * 1000000) // (ma.c * mb.c) AS lift_fp
FROM pc CROSS JOIN n
JOIN marg ma ON pc.a = ma.src
JOIN marg mb ON pc.b = mb.src
"""


def page_hits(sf_dir: str):
    """Integer HITS hubs/authorities over the links_to graph (PageRank's
    sibling salience axis). Unnormalized int64 recurrence → bit-exact vs
    the oracle's unrolled SQL joins at any parallelism."""
    from code_graph_rag_ray.stages.graph_metrics import hits

    pages, internal = _internal_link_graph(sf_dir)
    return hits(
        internal,
        pages.select_columns(["url"]),
        src="src_url",
        dst="dst_url",
        node="url",
        iters=2,
    )


PAGE_HITS_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
e AS (SELECT a.url AS src, a.t1 AS dst
      FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
a1 AS (SELECT dst, count(*)::BIGINT AS s FROM e GROUP BY dst),
h1 AS (SELECT e.src, sum(a1.s)::BIGINT AS s FROM e JOIN a1 USING (dst) GROUP BY e.src),
a2 AS (SELECT e.dst, sum(h1.s)::BIGINT AS s FROM e JOIN h1 ON h1.src = e.src GROUP BY e.dst),
h2 AS (SELECT e.src, sum(a2.s)::BIGINT AS s FROM e JOIN a2 ON a2.dst = e.dst GROUP BY e.src)
SELECT p.url, coalesce(h2.s, 0) AS hub, coalesce(a2.s, 0) AS auth
FROM p LEFT JOIN h2 ON h2.src = p.url LEFT JOIN a2 ON a2.dst = p.url
"""


def doc_top_by_lang(sf_dir: str):
    """Per-group top-k (top-3 longest docs per lang): block-local per-group
    truncation so a whale lang exchanges O(blocks×k) rows, never the group
    (stages/relational.grouped_top_k). Tiebreak on doc_id makes the k-th
    rank deterministic."""
    from code_graph_rag_ray.stages.relational import grouped_top_k

    docs = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return grouped_top_k(docs, "lang", "n_chars", 3, tiebreak="doc_id")


DOC_TOP_BY_LANG_SQL = """
SELECT doc_id, lang, n_chars FROM (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn <= 3
"""


def doc_global_rank(sf_dir: str):
    """Global row_number over the corpus (curriculum ordering): rank every
    document by n_chars DESC with doc_id as the unique tiebreak — the
    two-pass range-bucket ranking stage (stages/ranking.py), where only
    per-bucket counts ever reach the driver."""
    from code_graph_rag_ray.stages.ranking import global_rank

    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])
    return global_rank(ds, "n_chars", tiebreak="doc_id", descending=True)


def doc_ntile_deciles(sf_dir: str):
    """NTILE(10) curriculum bucketing: deciles by n_chars DESC — pure
    composition: global_rank (two-pass range-bucket row_number) + the
    closed-form ntile arithmetic ((rank−1)·n ÷ total + 1) in a map, so
    the decile assignment costs nothing beyond the rank. The count is
    one cheap aggregate of per-block counts."""
    from code_graph_rag_ray.stages.ranking import global_rank

    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])
    total = ds.count()
    ranked = global_rank(ds, "n_chars", tiebreak="doc_id", descending=True)

    def ntile(b: pa.Table, n=10, tot=total) -> pa.Table:
        r = b["rank"].to_numpy(zero_copy_only=False)
        # SQL NTILE: first (tot % n) tiles get ceil(tot/n) rows
        q, rem = divmod(tot, n)
        big = rem * (q + 1)
        t = np.where(r <= big, (r - 1) // (q + 1) + 1,
                     rem + (r - big - 1) // max(q, 1) + 1)
        return pa.table({"doc_id": b["doc_id"], "n_chars": b["n_chars"],
                         "rank": b["rank"],
                         "decile": pa.array(t.astype(np.int64))})

    return ranked.map_batches(ntile, batch_format="pyarrow")


DOC_NTILE_DECILES_SQL = """
SELECT doc_id, n_chars,
       row_number() OVER w AS rank,
       ntile(10) OVER w AS decile
FROM documents
WINDOW w AS (ORDER BY n_chars DESC, doc_id)
"""


DOC_GLOBAL_RANK_SQL = """
SELECT doc_id, n_chars,
       row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rank
FROM documents
"""


def doc_components(sf_dir: str):
    """Connected components (min-label propagation + pointer jumping,
    stages/components.py) upgraded from pytest-pinned to oracle-checked:
    a deterministic stride-50 edge set over contiguous doc_ids yields 50
    ten-node chain components, and DuckDB's recursive-CTE transitive
    closure recomputes the exact min-string label per component."""
    from code_graph_rag_ray.stages.components import connected_components

    ds = _pq(sf_dir, "documents", ["doc_id"])

    def mk_edges(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        src = ids[ids >= 50]
        return pa.table(
            {"src": pa.array([str(i) for i in src]),
             "dst": pa.array([str(i - 50) for i in src])}
        )

    edges = ds.map_batches(mk_edges, batch_format="pyarrow")
    return connected_components(edges, "src", "dst", max_iter=8)


DOC_COMPONENTS_SQL = """
WITH RECURSIVE
e AS (
  SELECT CAST(doc_id AS VARCHAR) AS src, CAST(doc_id - 50 AS VARCHAR) AS dst
  FROM documents WHERE doc_id >= 50),
sym AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
n AS (SELECT DISTINCT src AS node FROM sym),
r AS (
  SELECT node, node AS reach FROM n
  UNION
  SELECT r.node, s.dst AS reach FROM r JOIN sym s ON r.reach = s.src)
SELECT node, min(reach) AS component FROM r GROUP BY node
"""


def page_degree(sf_dir: str):
    """Per-node out/in degree of the links_to graph — one union pass + one
    two-phase grouped sum (no join)."""
    from code_graph_rag_ray.stages.graph_metrics import degree_stats

    _pages, internal = _internal_link_graph(sf_dir)
    return degree_stats(internal, src="src_url", dst="dst_url")


def page_bfs_hops(sf_dir: str):
    """Multi-source frontier BFS over the links_to graph: minimum hop
    distance from the lexicographically LARGEST page url (a leaf of the
    doc_id//2 link tree — the min would be the self-looped root),
    undirected, ≤ 6 hops (stages/graph_metrics.bfs_hops — per-round
    message volume is the frontier's out-edges only, O(edges) total
    across rounds). Oracle: DuckDB recursive CTE (bounded-depth closure,
    min(d) per node)."""
    from ray.data.aggregate import Max

    from code_graph_rag_ray.stages.graph_metrics import bfs_hops

    _pages, internal = _internal_link_graph(sf_dir)
    internal = internal.materialize()  # consumed twice: seed scan + BFS
    seed = internal.aggregate(Max("src_url", alias_name="m"))["m"]
    return bfs_hops(internal, [seed], src="src_url", dst="dst_url",
                    max_hops=6, undirected=True)


PAGE_BFS_HOPS_SQL = """
WITH RECURSIVE p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
l AS (SELECT a.url AS src_url, a.t1 AS dst_url
      FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
e AS (SELECT src_url AS a, dst_url AS b FROM l
      UNION SELECT dst_url, src_url FROM l),
r(node, d) AS (
  SELECT (SELECT max(src_url) FROM l), 0
  UNION
  SELECT e.b, r.d + 1 FROM r JOIN e ON e.a = r.node WHERE r.d < 6
)
SELECT node, min(d)::BIGINT AS hops FROM r GROUP BY node
"""


PAGE_DEGREE_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
e AS (SELECT a.url AS src, a.t1 AS dst
      FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
u AS (SELECT src AS node, 1 AS o, 0 AS i FROM e
      UNION ALL
      SELECT dst AS node, 0 AS o, 1 AS i FROM e)
SELECT node, sum(o)::BIGINT AS out_deg, sum(i)::BIGINT AS in_deg
FROM u GROUP BY node
"""


# ---------------------------------------------------------------------------
# training-data operators without a SQL-expressible oracle (driver records a
# rows-only check; full semantics are pinned by the pytest suite instead)
# ---------------------------------------------------------------------------

def _ensure_cols(df: pd.DataFrame, cols: dict[str, str]) -> pd.DataFrame:
    """Schema-stable empty results: an all-groups-empty groupby loses its
    schema in Ray 2.49 (empty blocks carry no columns) — rebuild it."""
    if df.empty and not list(df.columns):
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return df[list(cols)]


def doc_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-duplicate pairs over documents (Jaccard-verified).

    Bit-exact DuckDB oracle (``_minhash_pairs_sql``): the SQL replays the
    whole LSH pipeline — exact universal-hash signatures, band-key
    candidate grouping (sig 4-tuples stand in for the engine's crc32 band
    compaction), hashed-shingle Jaccard verification — so the distributed
    result is checked end-to-end, not just on the empty synthetic corpus.
    Jaccard stays a raw IEEE double (identical integer division both
    sides). ``truncated`` is always false below ``max_group`` (holds at
    oracle scale; truncation is the documented skew guard at 100 TB).
    """
    from code_graph_rag_ray.stages.dedup import minhash_near_dup_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    # md5 audit family: the DuckDB oracle replays these exact hash values
    out = minhash_near_dup_pairs(ds, verify_threshold=0.8,
                                 hash_family="md5").to_pandas()
    return _ensure_cols(
        out, {"a": "int64", "b": "int64", "truncated": "bool",
              "jaccard": "float64"}
    )


def doc_simhash(sf_dir: str):
    """64-bit SimHash signature per document — bit-exact DuckDB oracle:
    the md5-low32 bigram shingle hashes are recomputed in SQL and the
    per-bit majority vote rebuilt with integer bit math."""
    from code_graph_rag_ray.stages.dedup import simhash_batch_factory

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(simhash_batch_factory(hash_family="md5"),
                          batch_format="pyarrow")


# Shared CTE: per-doc SimHash recomputed exactly — md5-low32 of word-bigram
# shingles (docs with <2 tokens degrade to md5(text), mirroring
# _token_hashes), strict-majority bit votes over bits 0..62 (bit 63 is
# masked off in the Python path).
_SIMHASH_CTE = """
toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT doc_id,
         ('0x' || substr(md5(t[i] || ' ' || t[i+1]), 1, 8))::UBIGINT::BIGINT AS h
  FROM (SELECT doc_id, t, unnest(range(1, len(t))) AS i FROM toks WHERE len(t) >= 2)
  UNION ALL
  SELECT d.doc_id, ('0x' || substr(md5(d.text), 1, 8))::UBIGINT::BIGINT AS h
  FROM documents d JOIN toks USING (doc_id) WHERE len(toks.t) < 2
),
votes AS (
  SELECT doc_id, b,
         CASE WHEN 2 * sum((h >> b) & 1) > count(*) THEN 1 ELSE 0 END AS bit
  FROM sh CROSS JOIN (SELECT unnest(range(0, 63)) AS b) bits
  GROUP BY doc_id, b
),
sig AS (
  SELECT doc_id, CAST(sum(bit * (1::BIGINT << b)) AS BIGINT) AS simhash
  FROM votes GROUP BY doc_id
)
"""

DOC_SIMHASH_SQL = f"WITH {_SIMHASH_CTE} SELECT doc_id, simhash FROM sig"


def doc_minhash_sig(sf_dir: str):
    """Unnested MinHash signatures (64 perms) — the oracle-checked face of
    the MinHash+LSH dedup family: DuckDB replays the exact universal-hash
    min per permutation (stages/dedup.minhash_signature_rows)."""
    from code_graph_rag_ray.stages.dedup import minhash_signature_rows

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return minhash_signature_rows(ds)


def _minhash_sig_sql(num_perm: int = 64, seed: int = 7) -> str:
    from code_graph_rag_ray.stages.dedup import MinHasher

    h = MinHasher(num_perm, seed)
    vals = ", ".join(
        f"({p}, {int(a)}, {int(b)})" for p, (a, b) in enumerate(zip(h.a, h.b))
    )
    return f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT doc_id,
         ('0x' || substr(md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2]), 1, 8))::UBIGINT::BIGINT AS h
  FROM (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i
        FROM toks WHERE len(t) >= 3)
  UNION ALL
  SELECT d.doc_id, ('0x' || substr(md5(d.text), 1, 8))::UBIGINT::BIGINT AS h
  FROM documents d JOIN toks USING (doc_id) WHERE len(toks.t) < 3
),
params(perm, a, b) AS (VALUES {vals})
SELECT sh.doc_id, p.perm,
       CAST(min((p.a::HUGEINT * sh.h + p.b) % 2305843009213693951) AS BIGINT) AS sig
FROM sh CROSS JOIN params p
GROUP BY sh.doc_id, p.perm
"""


DOC_MINHASH_SIG_SQL = _minhash_sig_sql()


def _minhash_pairs_sql(num_perm: int = 64, bands: int = 16, seed: int = 7,
                       threshold: float = 0.8) -> str:
    """Full LSH replay in SQL: signatures → per-band sig-tuple candidate
    grouping → hashed-shingle Jaccard ≥ threshold. The engine buckets on
    crc32(band sig bytes); equality of the underlying 4-sig tuples is the
    same predicate modulo crc32 collisions (none at oracle scale)."""
    return f"""
WITH {_minhash_body_sql(num_perm, bands, seed)}
SELECT a, b, truncated, jaccard FROM scored
WHERE jaccard >= {threshold}::DOUBLE
"""


def _minhash_body_sql(num_perm: int = 64, bands: int = 16, seed: int = 7) -> str:
    """Shared CTE chain (through ``scored``) replaying signatures → band
    candidates → Jaccard — consumed by both the pairs oracle and the
    dedup-apply oracle."""
    from code_graph_rag_ray.stages.dedup import MinHasher

    h = MinHasher(num_perm, seed)
    vals = ", ".join(
        f"({p}, {int(a)}, {int(b)})" for p, (a, b) in enumerate(zip(h.a, h.b))
    )
    rows_per_band = num_perm // bands
    return f"""
toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT doc_id,
         ('0x' || substr(md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2]), 1, 8))::UBIGINT::BIGINT AS h
  FROM (SELECT doc_id, t, unnest(range(1, len(t) - 1)) AS i
        FROM toks WHERE len(t) >= 3)
  UNION ALL
  SELECT d.doc_id, ('0x' || substr(md5(d.text), 1, 8))::UBIGINT::BIGINT AS h
  FROM documents d JOIN toks USING (doc_id) WHERE len(toks.t) < 3
),
shd AS (SELECT DISTINCT doc_id, h FROM sh),
params(perm, a, b) AS (VALUES {vals}),
sig AS (
  SELECT sh.doc_id, p.perm,
         CAST(min((p.a::HUGEINT * sh.h + p.b) % 2305843009213693951) AS BIGINT) AS sig
  FROM sh CROSS JOIN params p GROUP BY sh.doc_id, p.perm
),
bandkey AS (
  SELECT doc_id, perm // {rows_per_band} AS band,
         list(sig ORDER BY perm) AS key
  FROM sig GROUP BY doc_id, perm // {rows_per_band}
),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM bandkey x JOIN bandkey y
    ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id
),
sizes AS (SELECT doc_id, count(*) AS n FROM shd GROUP BY doc_id),
inter AS (
  SELECT c.a, c.b, count(*) AS i
  FROM cand c
  JOIN shd p ON p.doc_id = c.a
  JOIN shd q ON q.doc_id = c.b AND q.h = p.h
  GROUP BY c.a, c.b
),
scored AS (
  SELECT c.a, c.b, FALSE AS truncated,
         CAST(coalesce(i.i, 0) AS DOUBLE)
           / CAST(sa.n + sb.n - coalesce(i.i, 0) AS DOUBLE) AS jaccard
  FROM cand c
  LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
  JOIN sizes sa ON sa.doc_id = c.a
  JOIN sizes sb ON sb.doc_id = c.b
)"""


DOC_MINHASH_PAIRS_SQL = _minhash_pairs_sql()


def doc_minhash_dedup_apply(sf_dir: str):
    """End-to-end MinHash dedup APPLICATION — the row-survival answer a
    training pipeline consumes: LSH pairs → connected-component clusters →
    numeric-min-id keeper per cluster → one ``(doc_id, keep)`` row per
    document. Bit-exact DuckDB oracle: the pairs CTE chain is shared with
    ``doc_minhash_pairs`` verbatim; the cluster step is a recursive-CTE
    transitive closure with ``min(reach)`` keeper (stages/dedup.
    minhash_dedup_apply — zero-padded CC labels make the distributed
    min-string label equal this numeric min)."""
    from code_graph_rag_ray.stages.dedup import minhash_dedup_apply

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    # md5 audit family: the oracle replays these exact hash values
    return minhash_dedup_apply(ds, verify_threshold=0.8, hash_family="md5")


def _minhash_apply_sql(threshold: float = 0.8) -> str:
    return f"""
WITH RECURSIVE {_minhash_body_sql()},
p2 AS (SELECT a, b FROM scored WHERE jaccard >= {threshold}::DOUBLE),
sym AS (SELECT a AS s, b AS d FROM p2 UNION SELECT b, a FROM p2),
r AS (
  SELECT s AS node, s AS reach FROM (SELECT DISTINCT s FROM sym)
  UNION
  SELECT r.node, sym.d FROM r JOIN sym ON r.reach = sym.s),
dropped AS (SELECT node FROM r GROUP BY node HAVING node != min(reach))
SELECT doc_id, doc_id NOT IN (SELECT node FROM dropped) AS keep
FROM documents
"""


DOC_MINHASH_DEDUP_APPLY_SQL = _minhash_apply_sql()


def doc_jaccard_pairs(sf_dir: str):
    """Exact word-trigram Jaccard for consecutive-doc candidate pairs —
    the n-gram Jaccard dedup family member with a full DuckDB oracle
    (intersection/union of exact shingle sets, IEEE-double division both
    sides → bit-identical values)."""
    from code_graph_rag_ray.stages.dedup import ngram_jaccard_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_jaccard_pairs(ds).to_pandas()
    return _ensure_cols(out, {"id_a": "int64", "id_b": "int64",
                              "jaccard": "float64"})


DOC_JACCARD_PAIRS_SQL = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
     g AS (
       SELECT doc_id,
              list_distinct(list_transform(
                range(1, len(toks) - 1),
                i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
              )) AS sh
       FROM t
     )
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
         / CAST(len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS DOUBLE)
         AS jaccard
FROM g a JOIN g b ON b.doc_id = a.doc_id + 1
"""


def doc_simhash_pairs(sf_dir: str):
    """SimHash Hamming-banded near-dup pairs. Pigeonhole banding is
    EXACT-recall for hamming ≤ k (k+1 bands ⇒ any qualifying pair agrees
    on ≥1 band), so the distributed banded result equals the exact
    all-pairs SQL — provided no bucket exceeds ``max_group`` (holds at
    oracle scale; truncation is the documented skew guard at 100 TB)."""
    from code_graph_rag_ray.stages.dedup import simhash_near_dup_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = simhash_near_dup_pairs(ds, max_hamming=3,
                                 hash_family="md5").to_pandas()
    return _ensure_cols(out, {"a": "int64", "b": "int64", "hamming": "int64"})


DOC_SIMHASH_PAIRS_SQL = f"""
WITH {_SIMHASH_CTE}
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT) AS hamming
FROM sig x JOIN sig y ON x.doc_id < y.doc_id
WHERE bit_count(xor(x.simhash, y.simhash)) <= 3
"""


# ---------------------------------------------------------------------------
# deterministic split / stratified sampling (training-data curation ops)
# ---------------------------------------------------------------------------

def doc_split(sf_dir: str):
    """Deterministic 90/5/5 train/val/test assignment by md5-low32 bucket
    of doc_id — order/partitioning independent and auditable in SQL."""
    from code_graph_rag_ray.stages.sampling import hash_split

    ds = _pq(sf_dir, "documents", ["doc_id"])
    return hash_split(ds, id_col="doc_id")


DOC_SPLIT_SQL = """
WITH b AS (
  SELECT doc_id,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 10000 AS bk
  FROM documents)
SELECT doc_id,
       CASE WHEN bk < 9000 THEN 'train'
            WHEN bk < 9500 THEN 'val' ELSE 'test' END AS split
FROM b
"""


def doc_source_mix(sf_dir: str):
    """Source-mix rebalancing (curriculum mixing): thin each source to hit
    integer target ratios derived from the source name (``(idx % 4) + 1``
    — deterministic non-uniform targets over the fixture's 20 uniform
    sources), char-budgeted via the n_chars column so the read prunes to
    three columns. The binding source survives whole; the md5-low32
    accept test is integer-exact (stages/sampling.source_mix_sample)."""
    from code_graph_rag_ray.stages.sampling import source_mix_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    weights = {f"src{i}": (i % 4) + 1 for i in range(20)}
    return source_mix_sample(ds, id_col="doc_id", source_col="source",
                             size_col="n_chars", weights=weights)


DOC_SOURCE_MIX_SQL = """
WITH w AS (
  SELECT source, CAST(sum(n_chars) AS HUGEINT) AS ts,
         CAST((CAST(regexp_extract(source, '[0-9]+$') AS BIGINT) % 4) + 1
              AS HUGEINT) AS ws
  FROM documents GROUP BY source),
m AS (
  SELECT ws AS wm, ts AS tm FROM w
  ORDER BY CAST(ts AS DOUBLE) / CAST(ws AS DOUBLE), source LIMIT 1)
SELECT d.doc_id, d.source,
       (('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8))::UBIGINT::HUGEINT
          * w.ts * m.wm)
         < (4294967296::HUGEINT * w.ws * m.tm) AS sampled
FROM documents d JOIN w USING (source) CROSS JOIN m
"""


def doc_shuffle_rank(sf_dir: str):
    """Deterministic global pseudorandom shuffle order + train-shard
    assignment (stages/ranking.shuffle_rank): rank = row_number over the
    md5-low32 policy hash of doc_id — a data-determined permutation,
    identical at any parallelism (unlike random_shuffle), replayed by a
    SQL window function; shard = (rank-1)//64 feeds a partitioned
    writer."""
    from code_graph_rag_ray.stages.ranking import shuffle_rank

    ds = _pq(sf_dir, "documents", ["doc_id"])
    return shuffle_rank(ds, id_col="doc_id", shard_size=64)


DOC_SHUFFLE_RANK_SQL = """
WITH k AS (
  SELECT doc_id,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT::BIGINT AS sk
  FROM documents),
r AS (SELECT doc_id,
             row_number() OVER (ORDER BY sk, doc_id) AS shuffle_rank
      FROM k)
SELECT doc_id, shuffle_rank, (shuffle_rank - 1) // 64 AS shard FROM r
"""


_BM25_QUERIES = [
    (0, "spark hash join"),
    (1, "window agg sort stream"),
    (2, "vector stream quantile"),  # 'quantile' has df=0 — matched-terms-only path
]


def doc_bm25_topk(sf_dir: str):
    """BM25 full-text retrieval (stages/bm25.bm25_topk): top-10 documents
    per query for 3 fixed queries — the query-time scoring the reference's
    RAG layer runs against its index. Integer-exact BM25: idf quantized to
    integer log2 steps (the DSIR bit-smear convention), tf saturation as a
    pure BIGINT rational (k1=6/5, b=3/4, centitoken avgdl). One corpus
    stats pass, one candidate-postings pass gated by the broadcast query
    term set, dictionary-scale df fold, gather-only scoring, grouped
    top-k with (score DESC, doc_id ASC) ties."""
    from code_graph_rag_ray.stages.bm25 import bm25_topk

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, _BM25_QUERIES, k=10)


def _bm25_ctes(queries, k: int = 10) -> str:
    """CTE chain replaying bm25_topk's integer arithmetic: same tokenizer,
    same centitoken avgdl, same 2^16-scaled smoothed-ratio bit-length idf
    (the DSIR smear), same 10^6-scaled tf rational, same top-k ties. Ends
    at ``bmtop(query_id, doc_id, score, n_terms, brank)`` — shared by the
    BM25 and hybrid-retrieval oracles."""
    from code_graph_rag_ray.stages.bm25 import tokenize_query

    vals = ",\n       ".join(
        f"({qid}::BIGINT, '{t}')"
        for qid, qs in queries for t in tokenize_query(qs)
    )
    return f"""q(query_id, term) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     w -> w <> '') AS ws
  FROM documents),
st AS (SELECT count(*)::BIGINT AS n,
              coalesce(sum(len(ws)), 0)::BIGINT AS tl FROM tok),
av AS (SELECT n, (100 * tl) // n AS ac FROM st),
toks AS (SELECT doc_id, len(ws)::BIGINT AS dl, unnest(ws) AS f FROM tok),
m AS (SELECT doc_id, f AS term, count(*)::BIGINT AS tf, min(dl) AS dl
      FROM toks WHERE f IN (SELECT DISTINCT term FROM q)
      GROUP BY doc_id, f),
dfq AS (SELECT term, count(*)::BIGINT AS df FROM m GROUP BY term),
qv AS (SELECT term, ((2 * a.n - 2 * df + 1) * 65536) // (2 * df + 1) AS x
       FROM dfq CROSS JOIN av a),
s1 AS (SELECT term, x | (x >> 1) AS x FROM qv),
s2 AS (SELECT term, x | (x >> 2) AS x FROM s1),
s3 AS (SELECT term, x | (x >> 4) AS x FROM s2),
s4 AS (SELECT term, x | (x >> 8) AS x FROM s3),
s5 AS (SELECT term, x | (x >> 16) AS x FROM s4),
s6 AS (SELECT term, x | (x >> 32) AS x FROM s5),
lam AS (SELECT term, bit_count(x)::BIGINT - 17 AS w FROM s6),
sc AS (
  SELECT qr.query_id, m.doc_id,
         sum(l.w * ((44 * m.tf * a.ac * 1000000)
                    // (20 * m.tf * a.ac + 6 * a.ac + 1800 * m.dl))
            )::BIGINT AS score,
         count(*)::BIGINT AS n_terms
  FROM m JOIN q qr USING (term) JOIN lam l USING (term) CROSS JOIN av a
  GROUP BY qr.query_id, m.doc_id),
bmtop AS (
  SELECT query_id, doc_id, score, n_terms, rn AS brank FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id
                                 ORDER BY score DESC, doc_id) AS rn
    FROM sc) t
  WHERE rn <= {k})"""


DOC_BM25_TOPK_SQL = (
    "WITH " + _bm25_ctes(_BM25_QUERIES)
    + "\nSELECT query_id, doc_id, score, n_terms FROM bmtop"
)


def hybrid_retrieval(sf_dir: str):
    """Hybrid sparse+dense retrieval with reciprocal-rank fusion
    (stages/ranking.rrf_fuse): BM25 top-10 (text queries 0-2) fused with
    brute-force cosine kNN top-10 (embedding queries vec_id 0-2) by
    score = Σ 10^6 // (60 + rank) — the fixed-point RRF that stays
    bit-exact in BIGINT SQL. Both input rankings are already
    oracle-validated operators; the fusion is one union + two-phase
    grouped sum + grouped top-k, so fusing 10^9 queries streams."""
    from code_graph_rag_ray.stages.bm25 import bm25_topk
    from code_graph_rag_ray.stages.ranking import group_rank, rrf_fuse
    from code_graph_rag_ray.stages.similarity import knn_brute_force

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    bm = group_rank(bm25_topk(docs, _BM25_QUERIES, k=10),
                    "query_id", "score", tiebreak="doc_id")
    bm = bm.map_batches(
        lambda b: pa.table({"query_id": b["query_id"], "doc_id": b["doc_id"],
                            "rank": b["rank"]}),
        batch_format="pyarrow",
    )

    emb = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = pd.DataFrame(
        emb.filter(expr="vec_id < 3").take_all()).sort_values("vec_id")
    qmat = np.stack([np.asarray(v, dtype=np.float64) for v in qdf.embedding])
    kn = knn_brute_force(emb, qmat, qdf.vec_id.tolist(), k=10).map_batches(
        lambda b: pa.table(
            {"query_id": b["query_id"],
             "doc_id": pc.cast(b["vec_id"], pa.int64()),
             "rank": b["rank"]}),
        batch_format="pyarrow",
    )
    return rrf_fuse([bm, kn], k=10)


HYBRID_RETRIEVAL_SQL = (
    "WITH " + _bm25_ctes(_BM25_QUERIES) + """,
kn AS (
  SELECT q.vec_id AS query_id, e.vec_id AS doc_id,
         row_number() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                           CAST(e.embedding AS DOUBLE[])) DESC,
                    e.vec_id) AS krank
  FROM embeddings q, embeddings e WHERE q.vec_id < 3),
kntop AS (SELECT query_id, doc_id, krank FROM kn WHERE krank <= 10),
f AS (
  SELECT coalesce(b.query_id, n.query_id) AS query_id,
         coalesce(b.doc_id, n.doc_id) AS doc_id,
         (coalesce(1000000 // (60 + b.brank), 0)
          + coalesce(1000000 // (60 + n.krank), 0))::BIGINT AS rrf_micro,
         (CASE WHEN b.brank IS NULL THEN 0 ELSE 1 END
          + CASE WHEN n.krank IS NULL THEN 0 ELSE 1 END)::BIGINT AS n_systems
  FROM bmtop b FULL OUTER JOIN kntop n
       ON b.query_id = n.query_id AND b.doc_id = n.doc_id)
SELECT query_id, doc_id, rrf_micro, n_systems FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY rrf_micro DESC, doc_id) AS rn
  FROM f) t
WHERE rn <= 10
""")


def lineitem_unpivot(sf_dir: str):
    """Wide → long UNPIVOT (stages/reshape.unpivot — the inverse of the
    pivot op): late-1998 lineitem measures melted to
    (l_orderkey, l_linenumber, measure, value_c) integer-cent rows.
    Stateless row-expanding map, zero shuffle; the shipdate predicate is
    applied at the scan so only the needed rows leave storage."""
    from code_graph_rag_ray.stages.reshape import unpivot

    ds = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
              "l_discount", "l_tax", "l_shipdate"])

    def prep(b: pa.Table) -> pa.Table:
        f = b.filter(pc.greater_equal(
            b["l_shipdate"],
            pa.scalar(pd.Timestamp("1998-06-01"), pa.timestamp("us"))))
        return pa.table(
            {"l_orderkey": f["l_orderkey"],
             "l_linenumber": pc.cast(f["l_linenumber"], pa.int64()),
             "quantity": _cents(f["l_quantity"]),
             "extendedprice": _cents(f["l_extendedprice"]),
             "discount": _cents(f["l_discount"]),
             "tax": _cents(f["l_tax"])}
        )

    return unpivot(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_orderkey", "l_linenumber"],
        ["quantity", "extendedprice", "discount", "tax"],
        value_col="value_c",
    )


LINEITEM_UNPIVOT_SQL = """
WITH f AS (
  SELECT l_orderkey, l_linenumber::BIGINT AS l_linenumber,
         CAST(round(l_quantity * 100) AS BIGINT) AS q,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS ep,
         CAST(round(l_discount * 100) AS BIGINT) AS d,
         CAST(round(l_tax * 100) AS BIGINT) AS t
  FROM lineitem WHERE l_shipdate >= TIMESTAMP '1998-06-01')
SELECT l_orderkey, l_linenumber, 'quantity' AS measure, q AS value_c FROM f
UNION ALL
SELECT l_orderkey, l_linenumber, 'extendedprice', ep FROM f
UNION ALL
SELECT l_orderkey, l_linenumber, 'discount', d FROM f
UNION ALL
SELECT l_orderkey, l_linenumber, 'tax', t FROM f
"""


def corpus_bpe_fertility(sf_dir: str):
    """Per-language tokenizer fertility (BPE tokens per word, the classic
    multilingual tokenizer-quality metric): learn 6 merges, tokenize the
    corpus (stages/bpe.bpe_tokenize), attach lang via one adaptive join,
    fold per-lang sums two-phase; fertility_micro = (10^6·Σbpe) // Σwords
    — pure BIGINT, bit-exact."""
    from code_graph_rag_ray.stages.bpe import bpe_learn, bpe_tokenize
    from code_graph_rag_ray.stages.relational import (
        adaptive_join,
        partial_groupby_sum,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_learn(docs, num_merges=6)
    tok = bpe_tokenize(docs, merges)
    langs = _pq(sf_dir, "documents", ["doc_id", "lang"])
    j = adaptive_join(
        tok, langs, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_words", pa.int64()),
                               ("n_bpe_tokens", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("lang", pa.string())]),
    )

    def one(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "n_words": pa.array([], pa.int64()),
                             "n_bpe_tokens": pa.array([], pa.int64()),
                             "one": pa.array([], pa.int64())})
        return pa.table(
            {"lang": pc.cast(b["lang"], pa.string()),
             "n_words": pc.cast(b["n_words"], pa.int64()),
             "n_bpe_tokens": pc.cast(b["n_bpe_tokens"], pa.int64()),
             "one": pa.array(np.ones(b.num_rows, np.int64))}
        )

    agg = partial_groupby_sum(
        j.map_batches(one, batch_format="pyarrow"),
        ["lang"],
        {"one": "n_docs", "n_words": "n_words", "n_bpe_tokens": "n_bpe_tokens"},
    )

    def fin(b: pa.Table) -> pa.Table:
        w = b["n_words"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b["n_bpe_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        fert = np.where(w > 0, (t * 10**6) // np.maximum(w, 1), 0)
        return b.append_column("fertility_micro",
                               pa.array(fert.astype(np.int64)))

    return agg.map_batches(fin, batch_format="pyarrow")


# CORPUS_BPE_FERTILITY_SQL is assigned after _bpe_ctes is defined (the
# BPE CTE generator lives with the other tokenizer oracles below).


def doc_dsir_scores(sf_dir: str):
    """DSIR importance scoring (Xie et al. 2023 analog, stages/dsir.py):
    every document scored by how target-domain-like (lang='en') its hashed
    unigram+bigram feature distribution is. Two streaming passes: bincount
    partials → one tiny grouped sum over ≤1024 buckets, then the weight
    table rides ray.put into a gather-only score pass — no shuffle. The
    log-likelihood-ratio weight is quantized to integer log2 steps
    (bit-smearing bit_length over the 2^16-scaled smoothed ratio), which
    is what makes the whole selection policy bit-exact vs the oracle."""
    from code_graph_rag_ray.stages.dsir import dsir_scores

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])
    return dsir_scores(ds, target_value="en", num_buckets=1024,
                       scale_bits=16)


DOC_DSIR_SCORES_SQL = """
WITH tok AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     w -> w <> '') AS ws
  FROM documents),
uni AS (SELECT doc_id, lang, unnest(ws) AS f FROM tok),
idx AS (SELECT doc_id, lang, ws, unnest(generate_series(1, len(ws) - 1)) AS i
        FROM tok WHERE len(ws) >= 2),
big AS (SELECT doc_id, lang, ws[i] || ' ' || ws[i + 1] AS f FROM idx),
occ AS (
  SELECT doc_id, coalesce(lang = 'en', FALSE) AS is_t,
         (('0x' || substr(md5(f), 1, 8))::UBIGINT % 1024)::BIGINT AS b
  FROM (SELECT * FROM uni UNION ALL SELECT * FROM big)),
cnt AS (
  SELECT b, sum(CASE WHEN is_t THEN 1 ELSE 0 END)::BIGINT AS ct,
         sum(CASE WHEN is_t THEN 0 ELSE 1 END)::BIGINT AS cr
  FROM occ GROUP BY b),
qv AS (SELECT b, ((ct + 1) * 65536) // (cr + 1) AS q FROM cnt),
s1 AS (SELECT b, q | (q >> 1) AS x FROM qv),
s2 AS (SELECT b, x | (x >> 2) AS x FROM s1),
s3 AS (SELECT b, x | (x >> 4) AS x FROM s2),
s4 AS (SELECT b, x | (x >> 8) AS x FROM s3),
s5 AS (SELECT b, x | (x >> 16) AS x FROM s4),
s6 AS (SELECT b, x | (x >> 32) AS x FROM s5),
lam AS (SELECT b, bit_count(x)::BIGINT - 17 AS w FROM s6),
per AS (
  SELECT o.doc_id, count(*)::BIGINT AS n_feats, sum(l.w)::BIGINT AS s
  FROM occ o JOIN lam l USING (b) GROUP BY o.doc_id)
SELECT d.doc_id, coalesce(d.lang = 'en', FALSE) AS in_target,
       coalesce(p.n_feats, 0)::BIGINT AS n_feats,
       coalesce(p.s, 0)::BIGINT AS dsir_score
FROM documents d LEFT JOIN per p USING (doc_id)
"""


def doc_sample_stratified(sf_dir: str):
    """Per-stratum deterministic downsampling: keep 20% of English pages,
    100% of French (low-resource upweighting shape), 50% of the rest."""
    from code_graph_rag_ray.stages.sampling import stratified_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(
        ds, id_col="doc_id", strata_col="lang",
        fractions={"en": 0.2, "fr": 1.0}, default_fraction=0.5,
    )


DOC_SAMPLE_STRATIFIED_SQL = """
WITH b AS (
  SELECT doc_id, lang,
         ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 10000 AS bk
  FROM documents)
SELECT doc_id, lang FROM b
WHERE bk < CASE lang WHEN 'en' THEN 2000 WHEN 'fr' THEN 10000 ELSE 5000 END
"""


def doc_sample_weighted(sf_dir: str):
    """Weight-proportional Bernoulli sample: keep each doc with
    p = min(1, n_chars × 0.0005) — quality/length-weighted downsampling,
    stateless and monotone in the weight (stages/sampling.py)."""
    from code_graph_rag_ray.stages.sampling import weighted_sample

    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])
    return weighted_sample(ds, id_col="doc_id", weight_col="n_chars",
                           rate_per_unit=0.0005)


DOC_SAMPLE_WEIGHTED_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 10000
      < floor(least(n_chars * 0.0005, 1.0) * 10000 + 0.5)
"""


def doc_inverted_index(sf_dir: str):
    """Inverted index over the corpus (stages/tfidf.inverted_index):
    (term, exact df, first-32-ids posting list). Deterministic truncation
    rule (smallest ids) makes the capped postings SQL-replayable while hot
    terms stay O(blocks × cap) through the shuffle."""
    from code_graph_rag_ray.stages.tfidf import inverted_index

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return inverted_index(ds, max_postings=32)


DOC_INVERTED_INDEX_SQL = r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
  FROM documents),
tf AS (SELECT DISTINCT doc_id, term FROM tok WHERE term <> ''),
ranked AS (
  SELECT term, doc_id,
         row_number() OVER (PARTITION BY term ORDER BY doc_id) AS rn
  FROM tf),
d AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
SELECT d.term, d.df,
       string_agg(CAST(r.doc_id AS VARCHAR), ',' ORDER BY r.doc_id) AS postings
FROM ranked r JOIN d ON r.term = d.term
WHERE r.rn <= 32
GROUP BY d.term, d.df
"""


def events_attribution(sf_dir: str):
    """Click→view attribution: for every click, the same user's latest
    view at-or-before it — the distributed as-of join (time-chunked
    cogroup, stages/asof.py). Misses carry the -1 sentinel so the output
    is null-free int64 (dtype-stable across blocks and vs the oracle)."""
    from code_graph_rag_ray.stages.asof import asof_join_chunked

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def side(t: str):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["event_type"], t)).drop_columns(["event_type"])
        return f

    clicks = ev.map_batches(side("click"), batch_format="pyarrow")
    views = ev.map_batches(side("view"), batch_format="pyarrow")
    out = asof_join_chunked(
        clicks, views, by="user_id", on="ts",
        right_cols=["event_id"], suffix="_view", chunk_s=21600,
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"], "event_id": b["event_id"], "ts": b["ts"],
            "ts_view": pc.fill_null(pc.cast(b["ts_view"], pa.int64()), -1),
            "event_id_view": pc.fill_null(pc.cast(b["event_id_view"], pa.int64()), -1),
        })

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_ATTRIBUTION_SQL = """
WITH c AS (SELECT event_id, ts, user_id FROM events WHERE event_type = 'click'),
     v AS (SELECT event_id, ts, user_id FROM events WHERE event_type = 'view')
SELECT c.user_id, c.event_id, epoch_us(c.ts) AS ts,
       COALESCE(epoch_us(v.ts), -1) AS ts_view,
       COALESCE(v.event_id, -1) AS event_id_view
FROM c ASOF LEFT JOIN v ON c.user_id = v.user_id AND v.ts <= c.ts
"""


def events_attribution_recent(sf_dir: str):
    """Toleranced attribution: same as-of join but a view older than 1h
    does NOT attribute (asof_join_chunked tolerance_s — staleness window
    applied at match time inside the cogroups; the carry machinery is
    untouched). Oracle: plain ASOF join with the stale matches nulled."""
    from code_graph_rag_ray.stages.asof import asof_join_chunked

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def side(t: str):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["event_type"], t)).drop_columns(["event_type"])
        return f

    clicks = ev.map_batches(side("click"), batch_format="pyarrow")
    views = ev.map_batches(side("view"), batch_format="pyarrow")
    out = asof_join_chunked(
        clicks, views, by="user_id", on="ts",
        right_cols=["event_id"], suffix="_view", chunk_s=21600,
        tolerance_s=3600,
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"], "event_id": b["event_id"], "ts": b["ts"],
            "ts_view": pc.fill_null(pc.cast(b["ts_view"], pa.int64()), -1),
            "event_id_view": pc.fill_null(pc.cast(b["event_id_view"], pa.int64()), -1),
        })

    return out.map_batches(finish, batch_format="pyarrow")


EVENTS_ATTRIBUTION_RECENT_SQL = """
WITH c AS (SELECT event_id, ts, user_id FROM events WHERE event_type = 'click'),
     v AS (SELECT event_id, ts, user_id FROM events WHERE event_type = 'view')
SELECT c.user_id, c.event_id, epoch_us(c.ts) AS ts,
       COALESCE(CASE WHEN epoch_us(c.ts) - epoch_us(v.ts) <= 3600000000
                     THEN epoch_us(v.ts) END, -1) AS ts_view,
       COALESCE(CASE WHEN epoch_us(c.ts) - epoch_us(v.ts) <= 3600000000
                     THEN v.event_id END, -1) AS event_id_view
FROM c ASOF LEFT JOIN v ON c.user_id = v.user_id AND v.ts <= c.ts
"""


def events_session_assign(sf_dir: str):
    """Event→session assignment: the distributed RANGE join
    (stages/rangejoin.py) maps every event into its containing session
    interval — sessions themselves derived by the skew-safe chunked
    sessionizer, so this is the sessionize→assign composition end-to-end."""
    from code_graph_rag_ray.stages.rangejoin import range_join_chunked

    ev = _pq(sf_dir, "events", ["event_id", "ts", "user_id"])
    sessions = session_windows_chunked(
        _pq(sf_dir, "events", ["user_id", "ts"]), gap_s=1800
    )
    return range_join_chunked(
        ev, sessions, by="user_id", on="ts",
        start_col="session_start", end_col="session_end",
        chunk=21600, points_ts_div=1_000_000,
    )


EVENTS_SESSION_ASSIGN_SQL = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
              THEN 1 ELSE 0 END AS ns
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts,
         sum(ns) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
), sess AS (
  SELECT user_id,
         CAST(floor(epoch(min(ts))) AS BIGINT) AS session_start,
         CAST(floor(epoch(max(ts))) AS BIGINT) AS session_end,
         count(*) AS n_events
  FROM s GROUP BY user_id, sid
)
SELECT e.event_id, e.user_id, epoch_us(e.ts) // 1000000 AS ts,
       sess.session_start AS session_start_iv,
       sess.session_end AS session_end_iv,
       sess.n_events AS n_events_iv
FROM events e JOIN sess ON e.user_id = sess.user_id
  AND epoch_us(e.ts) // 1000000 BETWEEN sess.session_start AND sess.session_end
"""


def doc_tfidf_topk(sf_dir: str):
    """Top-5 keywords per document by tf/df — distributed TF-IDF: per-batch
    vectorized tokenize+tf, two-phase df count, object-store broadcast of
    the df table, per-doc rank inside doc-complete blocks
    (stages/tfidf.py). The rank key tf/df is one IEEE division, so score
    and ranking are bit-identical to the DuckDB oracle (ln-idf would be
    libm-dependent)."""
    from code_graph_rag_ray.stages.tfidf import tfidf_topk

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_topk(ds, k=5)


DOC_TFIDF_TOPK_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
  FROM documents
), tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf
  FROM tok WHERE term <> '' GROUP BY doc_id, term
), df AS (
  SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term
), scored AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * 1.0 / df.df DESC, tf.term ASC
         ) AS rank
  FROM tf JOIN df USING (term)
)
SELECT doc_id, term, tf, df, rank FROM scored WHERE rank <= 5
"""


def doc_dup_spans(sf_dir: str):
    """Duplicated 8-token span detection (the ExactSubstr training-data
    dedup analog, stages/dedup.dup_ngram_spans): window fingerprints
    appearing in ≥2 distinct documents — the boilerplate/mirrored-paragraph
    signal exact-doc and MinHash dedup both miss. md5-high-60-bit
    fingerprints are int64-safe and DuckDB-replayable."""
    from code_graph_rag_ray.stages.dedup import dup_ngram_spans

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return dup_ngram_spans(ds, w=8, min_docs=2)


def doc_dup_spans_apply(sf_dir: str):
    """The APPLY step of duplicated-span dedup: cut every corpus-repeated
    8-token window from all but its numerically smallest owner document,
    rebuild each document from the surviving tokens (stages/dedup.
    dup_span_apply — keep-one ExactSubstr semantics). Bit-exact DuckDB
    oracle: the tokenization/window/qualify CTEs are shared with
    doc_dup_spans; the mask expansion + per-position anti-join + ordered
    string_agg replay the rebuild."""
    from code_graph_rag_ray.stages.dedup import dup_span_apply

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return dup_span_apply(ds, w=8, min_docs=2)


def _dup_spans_apply_sql(w: int = 8, min_docs: int = 2) -> str:
    return f"""
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS l
  FROM documents
), win AS (
  SELECT doc_id, i AS pos,
         ('0x' || substr(md5(array_to_string(l[i : i + {w - 1}], ' ')), 1, 15))::UBIGINT::BIGINT AS fp
  FROM tok, LATERAL (SELECT unnest(range(1, len(l) - {w - 2})) AS i) r
  WHERE len(l) >= {w}
), qual AS (
  SELECT fp, min(doc_id) AS min_doc
  FROM (SELECT DISTINCT doc_id, fp FROM win) GROUP BY fp
  HAVING count(*) >= {min_docs}
), masked AS (
  SELECT DISTINCT wn.doc_id, wn.pos + d AS p
  FROM win wn JOIN qual q ON wn.fp = q.fp AND wn.doc_id != q.min_doc,
       LATERAL (SELECT unnest(range(0, {w})) AS d) x
), kept AS (
  SELECT t.doc_id, i AS p, t.l[i] AS tokn
  FROM tok t, LATERAL (SELECT unnest(range(1, len(t.l) + 1)) AS i) r
  WHERE NOT EXISTS (SELECT 1 FROM masked m
                    WHERE m.doc_id = t.doc_id AND m.p = i)
)
SELECT t.doc_id,
       coalesce(agg.ct, '') AS clean_text,
       coalesce(c.nm, 0)::BIGINT AS n_removed
FROM tok t
LEFT JOIN (SELECT doc_id, string_agg(tokn, ' ' ORDER BY p) AS ct
           FROM kept GROUP BY doc_id) agg USING (doc_id)
LEFT JOIN (SELECT doc_id, count(*) AS nm FROM masked GROUP BY doc_id) c
       USING (doc_id)
"""


DOC_DUP_SPANS_APPLY_SQL = _dup_spans_apply_sql()


def doc_minhash_pairs_fast(sf_dir: str):
    """MinHash+LSH near-dup pairs on the PRODUCTION hash family — fully
    vectorized shingling (dict-encoded siphash tokens, rolling polynomial
    windows) and batch signatures; ~3.7× the md5 audit family's per-core
    throughput. Rows-only check by design: siphash isn't replayable in
    SQL — `doc_minhash_pairs` (md5 family, same code path) carries the
    bit-exact oracle, and a pytest pins the fast family's planted-pair
    recall + structural parity with md5."""
    from code_graph_rag_ray.stages.dedup import minhash_near_dup_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = minhash_near_dup_pairs(ds, verify_threshold=0.8,
                                 hash_family="fast").to_pandas()
    return _ensure_cols(
        out, {"a": "int64", "b": "int64", "truncated": "bool",
              "jaccard": "float64"}
    )


def doc_simhash_pairs_fast(sf_dir: str):
    """SimHash near-dup pairs on the production hash family (vectorized
    bit votes via per-bit reduceat). Rows-only: `doc_simhash_pairs` (md5)
    is the SQL-replayable audit twin."""
    from code_graph_rag_ray.stages.dedup import simhash_near_dup_pairs

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = simhash_near_dup_pairs(ds, max_hamming=3,
                                 hash_family="fast").to_pandas()
    return _ensure_cols(out, {"a": "int64", "b": "int64", "hamming": "int64"})


def doc_dup_spans_fast(sf_dir: str):
    """Duplicated-span detection on the production rolling-hash family —
    one vectorized pass per batch (no per-window md5). Rows-only:
    `doc_dup_spans` (md5-high-60) is the SQL-replayable audit twin; a
    pytest pins structural parity ((n_docs, min_doc) multiset) between
    the families."""
    from code_graph_rag_ray.stages.dedup import dup_ngram_spans

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return dup_ngram_spans(ds, w=8, min_docs=2, hash_family="fast")


DOC_DUP_SPANS_SQL = """
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS l
  FROM documents
), win AS (
  SELECT doc_id,
         ('0x' || substr(md5(array_to_string(l[i : i + 7], ' ')), 1, 15))::UBIGINT::BIGINT AS fp
  FROM tok, LATERAL (SELECT unnest(range(1, len(l) - 6)) AS i) r
  WHERE len(l) >= 8
), fps AS (
  SELECT DISTINCT doc_id, fp FROM win
)
SELECT fp, count(*)::BIGINT AS n_docs, min(doc_id)::BIGINT AS min_doc
FROM fps GROUP BY fp HAVING count(*) >= 2
"""


def doc_reservoir_per_lang(sf_dir: str):
    """Deterministic exact-k per-stratum sample: each lang's 5 docs with
    the smallest (md5_low32(doc_id), doc_id) rank
    (stages/sampling.reservoir_per_key) — partitioning-independent and
    SQL-replayable, where a true reservoir is arrival-order dependent.
    Block-local per-group truncation keeps a whale stratum's exchange at
    O(blocks × k)."""
    from code_graph_rag_ray.stages.sampling import reservoir_per_key

    ds = _pq(sf_dir, "documents", ["doc_id", "lang"])
    return reservoir_per_key(ds, key_col="lang", id_col="doc_id", k=5)


DOC_RESERVOIR_PER_LANG_SQL = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT,
                    doc_id) AS rk
  FROM documents)
WHERE rk <= 5
"""


def doc_snapshot_diff(sf_dir: str):
    """Change-data capture between two corpus snapshots
    (stages/diff.snapshot_diff): old = documents; new = a deterministic
    next snapshot (every 10th doc removed, every 7th's text amended,
    every 13th re-added under a shifted id). Both sides reduce to
    (key, md5 fingerprint) before ONE bucketed pass over their union — the
    payload never crosses the shuffle; output is the delta only."""
    from code_graph_rag_ray.stages.diff import snapshot_diff

    old = _pq(sf_dir, "documents", ["doc_id", "text"])

    def make_new(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        keep = b.filter(pa.array(ids % 10 != 0))
        kids = keep["doc_id"].to_numpy(zero_copy_only=False)
        text = pc.if_else(pa.array(kids % 7 == 0),
                          pc.binary_join_element_wise(keep["text"], " v2", ""),
                          keep["text"])
        base = pa.table({"doc_id": keep["doc_id"], "text": text})
        adds = b.filter(pa.array(ids % 13 == 0))
        added = pa.table(
            {"doc_id": pc.add(adds["doc_id"], 100000), "text": adds["text"]}
        )
        return pa.concat_tables([base, added])

    new = old.map_batches(make_new, batch_format="pyarrow")
    return snapshot_diff(old, new, key="doc_id", compare_cols=["text"])


DOC_SNAPSHOT_DIFF_SQL = """
WITH o AS (SELECT doc_id, text FROM documents),
n AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN text || ' v2' ELSE text END AS text
  FROM documents WHERE doc_id % 10 <> 0
  UNION ALL
  SELECT doc_id + 100000, text FROM documents WHERE doc_id % 13 = 0
)
SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            WHEN md5(o.text) <> md5(n.text) THEN 'changed' END AS status
FROM o FULL OUTER JOIN n ON o.doc_id = n.doc_id
WHERE (o.doc_id IS NULL) OR (n.doc_id IS NULL) OR md5(o.text) <> md5(n.text)
"""


def doc_split_leaks(sf_dir: str):
    """Decontamination: 8-token-prefix fingerprints spanning ≥2 of the
    train/val/test splits — the rows a curation pipeline quarantines."""
    from code_graph_rag_ray.stages.sampling import cross_split_leaks

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return cross_split_leaks(ds, id_col="doc_id", text_col="text")


DOC_SPLIT_LEAKS_SQL = """
WITH b AS (
  SELECT md5(array_to_string(string_split(text, ' ')[1:8], ' ')) AS fingerprint,
         CASE WHEN bk < 9000 THEN 'train'
              WHEN bk < 9500 THEN 'val' ELSE 'test' END AS split
  FROM (SELECT text,
               ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
                   % 10000 AS bk
        FROM documents))
SELECT fingerprint,
       CAST(sum(CASE WHEN split = 'train' THEN 1 ELSE 0 END) AS BIGINT) AS n_train,
       CAST(sum(CASE WHEN split = 'val' THEN 1 ELSE 0 END) AS BIGINT) AS n_val,
       CAST(sum(CASE WHEN split = 'test' THEN 1 ELSE 0 END) AS BIGINT) AS n_test
FROM b GROUP BY fingerprint
HAVING count(DISTINCT split) > 1
"""


def embedding_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane-LSH buckets."""
    from code_graph_rag_ray.stages.dedup import embedding_near_dup_pairs

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_near_dup_pairs(ds, threshold=0.95).to_pandas()
    out = _ensure_cols(out, {"a": "int64", "b": "int64", "cosine": "float64"})
    out["cosine"] = out["cosine"].round(4)
    return out


def knn_lsh_recall(sf_dir: str):
    """Self-evaluating ANN quality probe: per-query recall of the
    LSH-bucketed top-10 against the exact brute-force top-10."""
    from code_graph_rag_ray.stages.similarity import knn_brute_force, knn_lsh

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(ds.filter(expr="vec_id < 5").take_all(), key=lambda r: r["vec_id"])
    queries = np.stack([np.asarray(r["embedding"], np.float64) for r in qrows])
    qids = [r["vec_id"] for r in qrows]
    brute = knn_brute_force(ds, queries, qids, k=10).to_pandas()
    approx = knn_lsh(ds, queries, qids, k=10).to_pandas()
    rows = []
    for q in qids:
        b = set(brute[brute.query_id == q].vec_id)
        a = set(approx[approx.query_id == q].vec_id)
        rows.append({"query_id": q, "recall": round(len(a & b) / len(b), 3)})
    return pd.DataFrame(rows)


def knn_ivf_recall(sf_dir: str):
    """Self-evaluating TRAINED-quantizer ANN probe: per-query recall of the
    IVF top-10 (fixed-point k-means cells, n_probe=3 of 8) against the
    exact brute-force top-10 — the kmeans→ANN composition end-to-end."""
    from code_graph_rag_ray.stages.similarity import knn_brute_force, knn_ivf

    ds = _pq(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(ds.filter(expr="vec_id < 5").take_all(), key=lambda r: r["vec_id"])
    queries = np.stack([np.asarray(r["embedding"], np.float64) for r in qrows])
    qids = [r["vec_id"] for r in qrows]
    brute = knn_brute_force(ds, queries, qids, k=10).to_pandas()
    approx = knn_ivf(ds, queries, qids, k=10, n_clusters=8, n_probe=3).to_pandas()
    rows = []
    for q in qids:
        b = set(brute[brute.query_id == q].vec_id)
        a = set(approx[approx.query_id == q].vec_id)
        rows.append({"query_id": q, "recall": round(len(a & b) / len(b), 3)})
    return pd.DataFrame(rows)


def doc_embeddings(sf_dir: str):
    """Text-embedding stage (S8/T5 analog): documents → (doc_id, embedding)
    via the deterministic feature-hashing embedder actor pool. Rows-only
    (feature hashing has no SQL closed form); semantics pinned in
    tests/test_embedding.py including the embed→near-dup chain."""
    from code_graph_rag_ray.stages.embedding import embed_documents

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    # stable scalar projection for the driver's value recorder — computed
    # IN the pipeline (vectorized flatten+reshape over the fixed-dim list
    # column), the result stays a streaming Dataset
    def project(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"doc_id": b["doc_id"],
                             "emb_norm": pa.array([], pa.float64()),
                             "emb_head": pa.array([], pa.float64())})
        emb = b["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        mat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        mat = mat.reshape(b.num_rows, -1)
        return pa.table({
            "doc_id": b["doc_id"],
            "emb_norm": pa.array(np.round(np.linalg.norm(mat, axis=1), 4)),
            "emb_head": pa.array(np.round(mat[:, 0], 6)),
        })

    return embed_documents(ds, dim=64, concurrency=2, batch_size=256).map_batches(
        project, batch_format="pyarrow"
    )


_EMB_AUDIT_DIM = 16


def doc_embedding_vectors(sf_dir: str):
    """AUDIT-mode embeddings, bit-exact oracle-checked (upgrades the S8/T5
    embedding family from rows-only): the md5-low32 hashing embedder's full
    output — every (doc, dimension) value — is recomputed in DuckDB.
    Exactness chain: signed bucket counts are integers; sum-of-squares is
    an exactly-representable double in any summation order; sqrt and the
    divide are single correctly-rounded IEEE ops; the float32 cast rounds
    the same double on both sides. Long-form (doc_id, i, v) output."""
    from code_graph_rag_ray.stages.embedding import embed_documents

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    emb = embed_documents(ds, dim=_EMB_AUDIT_DIM, concurrency=None,
                          hash_mode="md5")

    def explode(b: pa.Table) -> pa.Table:
        n = b.num_rows
        col = b["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, _EMB_AUDIT_DIM)),
            "i": pa.array(np.tile(np.arange(_EMB_AUDIT_DIM, dtype=np.int64), n)),
            "v": col.flatten(),
        })

    return emb.map_batches(explode, batch_format="pyarrow")


DOC_EMBEDDING_VECTORS_SQL = f"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split(text, ' '), s -> s <> '') AS t
  FROM documents),
uni AS (
  SELECT doc_id, i, ('0x' || substr(md5(t[i]), 1, 8))::UBIGINT AS h
  FROM (SELECT doc_id, t, unnest(range(1, len(t) + 1)) AS i FROM toks)),
big AS (
  -- word-bigram hash: h1 * 0x9E3779B9 + h2, both < 2^32 so the uint64
  -- product never wraps — identical arithmetic to the numpy path
  SELECT a.doc_id, (a.h::HUGEINT * 2654435769 + b.h)::UBIGINT AS h
  FROM uni a JOIN uni b ON b.doc_id = a.doc_id AND b.i = a.i + 1),
allh AS (SELECT doc_id, h FROM uni UNION ALL SELECT doc_id, h FROM big),
cnt AS (
  SELECT doc_id, (h % {_EMB_AUDIT_DIM})::BIGINT AS i,
         sum(CASE WHEN (h >> 31) & 1 = 1 THEN -1 ELSE 1 END) AS c
  FROM allh GROUP BY doc_id, h % {_EMB_AUDIT_DIM}),
grid AS (
  SELECT d.doc_id, g.i, coalesce(c.c, 0) AS c
  FROM documents d
  CROSS JOIN (SELECT unnest(range(0, {_EMB_AUDIT_DIM})) AS i) g
  LEFT JOIN cnt c ON c.doc_id = d.doc_id AND c.i = g.i),
norm AS (
  SELECT doc_id, sum(c * c) AS ss FROM grid GROUP BY doc_id)
SELECT g.doc_id, g.i,
       CAST(g.c::DOUBLE
            / sqrt((CASE WHEN n.ss = 0 THEN 1 ELSE n.ss END)::DOUBLE)
            AS REAL) AS v
FROM grid g JOIN norm n USING (doc_id)
"""


def doc_spectral_embeddings(sf_dir: str):
    """LEARNED document embeddings, trained and served entirely in-engine
    (stages/spectral.py): spectral factorization of the corpus PPMI
    co-occurrence matrix (Levy & Goldberg 2014) via distributed
    exact-integer subspace iteration, then an actor-pool inference stage
    (T5 — a model path that genuinely EXECUTES in this container, unlike
    the import-gated SentenceModelEmbedder). Rows-only: the driver-side QR
    has no SQL closed form; determinism and topic structure are pinned in
    tests/test_spectral.py. Long-form (doc_id, i, v) output."""
    from code_graph_rag_ray.stages.spectral import spectral_doc_embeddings

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    dim = 16
    emb = spectral_doc_embeddings(ds, vocab_size=256, dim=dim,
                                  concurrency=2)

    def explode(b: pa.Table) -> pa.Table:
        n = b.num_rows
        col = b["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, dim)),
            "i": pa.array(np.tile(np.arange(dim, dtype=np.int64), n)),
            "v": col.flatten(),
        })

    return emb.map_batches(explode, batch_format="pyarrow")


def doc_lang_pred(sf_dir: str):
    """Heuristic language-ID over documents (actor-pool stage). Bit-exact
    DuckDB oracle: the marker-word argmax (CJK char-range → zh; else
    function-word intersection counts, strict-majority fold over sorted
    langs, 0 hits → 'und') is recomputed in SQL from the same tables."""
    from code_graph_rag_ray.stages.text_analysis import LangId

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(LangId, batch_format="pyarrow", concurrency=2, num_cpus=1)
    return out.select_columns(["doc_id", "lang_pred"])


def _lang_pred_sql() -> str:
    from code_graph_rag_ray.stages.text_analysis import _LANG_MARKERS

    def lst(lang: str) -> str:
        return "[" + ", ".join(f"'{w}'" for w in sorted(_LANG_MARKERS[lang])) + "]"

    hits = ",\n       ".join(
        f"len(list_intersect(words, {lst(l)})) AS h_{l}"
        for l in sorted(_LANG_MARKERS)
    )
    g = "greatest(h_de, h_en, h_es, h_fr)"
    return f"""
WITH w AS (
  SELECT doc_id, text, list_distinct(string_split(lower(text), ' ')) AS words
  FROM documents),
h AS (SELECT doc_id, text, {hits} FROM w)
SELECT doc_id,
  CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
       WHEN {g} = 0 THEN 'und'
       WHEN h_de = {g} THEN 'de'
       WHEN h_en = {g} THEN 'en'
       WHEN h_es = {g} THEN 'es'
       ELSE 'fr' END AS lang_pred
FROM h"""


DOC_LANG_PRED_SQL = _lang_pred_sql()


def media_frames(sf_dir: str):
    """Video frame sampling (stages/multimodal.sample_frames): actor-pool
    stage, one row per sampled frame at a fixed 1000 ms stride capped at
    16 evenly-spaced integer-arithmetic picks per video. The corpus is
    derived CLOSED-FORM from the documents table
    (stages/multimodal.media_from_documents), so the sampling policy is
    replayed bit-exactly by the SQL oracle; only the frame-decode kernel
    stays stubbed."""
    from code_graph_rag_ray.stages.multimodal import (
        media_from_documents,
        sample_frames,
    )

    ds = media_from_documents(_pq(sf_dir, "documents", ["doc_id", "text"]))
    out = sample_frames(ds, every_ms=1000, max_frames=16)
    return out.map_batches(
        lambda b: pa.table(
            {"media_id": b["media_id"],
             "frame_idx": pc.cast(b["frame_idx"], pa.int64()),
             "ts_ms": pc.cast(b["ts_ms"], pa.int64())}
        ),
        batch_format="pyarrow",
    )


def media_thumbs(sf_dir: str):
    """Image resize (stages/multimodal.resize_images): aspect-preserving
    fit inside 64×64, never upscaled, integer floor division — corpus
    derived closed-form from documents (media_from_documents), so the
    dimension policy is oracle-replayed bit-exactly; the pixel kernel is
    the stubbed fake (its output LENGTH out_w×out_h is policy, checked)."""
    from code_graph_rag_ray.stages.multimodal import (
        media_from_documents,
        resize_images,
    )

    ds = media_from_documents(_pq(sf_dir, "documents", ["doc_id", "text"]))
    out = resize_images(ds, max_side=64)
    return out.map_batches(
        lambda b: pa.table(
            {"media_id": b["media_id"],
             "in_w": pc.cast(b["in_w"], pa.int64()),
             "in_h": pc.cast(b["in_h"], pa.int64()),
             "out_w": pc.cast(b["out_w"], pa.int64()),
             "out_h": pc.cast(b["out_h"], pa.int64()),
             "thumb_bytes": pa.array(
                 [len(t or b"") for t in b["thumb"].to_pylist()], pa.int64())}
        ),
        batch_format="pyarrow",
    )


def media_features(sf_dir: str):
    """Multimodal plumbing: deterministic fake media corpus → actor-pool
    decode → feature rows (decode kernels are stubbed; see
    stages/multimodal.py)."""
    import ray.data as rd

    from code_graph_rag_ray.stages.multimodal import decode_media, make_fake_media_table

    del sf_dir  # media corpus is generated deterministically (seeded)
    ds = rd.from_arrow(make_fake_media_table(256))

    def project(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"media_id": b["media_id"], "kind": b["kind"],
                             "payload_bytes": b["payload_bytes"],
                             "feature_norm": pa.array([], pa.float64())})
        feat = b["feature"]
        if isinstance(feat, pa.ChunkedArray):
            feat = feat.combine_chunks()
        mat = feat.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        mat = mat.reshape(b.num_rows, -1)
        return pa.table({
            "media_id": b["media_id"], "kind": b["kind"],
            "payload_bytes": b["payload_bytes"],
            "feature_norm": pa.array(np.round(np.linalg.norm(mat, axis=1), 4)),
        })

    return decode_media(ds, decoder="fake").map_batches(project, batch_format="pyarrow")


def doc_pack_sequences(sf_dir: str):
    """Sequence packing (concat-and-chunk, the pretraining assembly step):
    per-doc token counts → distributed global prefix sum over doc order →
    fixed-length sequence assignment. Bit-exact oracle: the prefix sum is
    a SQL window function; all downstream arithmetic is integral."""
    from code_graph_rag_ray.stages.packing import pack_sequences

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return pack_sequences(ds, seq_len=512)


DOC_PACK_SEQUENCES_SQL = """
WITH t AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '), s -> s <> '')) AS n_tokens
  FROM documents),
o AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS start_off
  FROM t)
SELECT doc_id, n_tokens, start_off,
       CAST(start_off // 512 AS BIGINT) AS seq_first,
       CAST(CASE WHEN n_tokens = 0 THEN start_off // 512
                 ELSE (start_off + n_tokens - 1) // 512 END AS BIGINT)
         AS seq_last
FROM o
"""


def doc_chunks(sf_dir: str):
    """Overlapping fixed-token-window chunking (the RAG/embedding-input
    chunker): 32-token windows every 24 tokens, single-space re-join —
    stateless row-expanding map_batches, no shuffle. Bit-exact oracle:
    DuckDB generate_series chunk starts + list_slice token windows."""
    from code_graph_rag_ray.stages.packing import chunk_documents

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(ds, window=32, stride=24)


DOC_CHUNKS_SQL = """
WITH t AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), s -> s <> '') AS toks
  FROM documents),
s AS (
  SELECT doc_id, toks,
         unnest(generate_series(0, len(toks) - 1, 24)) AS start_tok
  FROM t WHERE len(toks) > 0)
SELECT doc_id,
       (start_tok // 24)::BIGINT AS chunk_idx,
       start_tok::BIGINT AS start_tok,
       least(32, len(toks) - start_tok)::BIGINT AS n_tokens,
       array_to_string(list_slice(toks, start_tok + 1, start_tok + 32), ' ')
         AS chunk_text
FROM s
"""


def events_user_history(sf_dir: str):
    """Per-user ordered event-type history (first 5 events by (ts,
    event_id), comma-joined) — the grouped ordered-collect operator
    (SQL string_agg … ORDER BY with a row_number cap). The cap bounds a
    whale user's group at O(blocks × k) shuffled rows; see
    stages/relational.grouped_collect."""
    from code_graph_rag_ray.stages.relational import grouped_collect

    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return grouped_collect(ds, "user_id", "ts", "event_type", 5,
                           tiebreak="event_id")


EVENTS_USER_HISTORY_SQL = """
WITH r AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events)
SELECT user_id, string_agg(event_type, ',' ORDER BY rn) AS collected,
       count(*)::BIGINT AS n_collected
FROM r WHERE rn <= 5 GROUP BY user_id
"""


def events_heavy_users(sf_dir: str):
    """Exact φ-frequent users (share-of-traffic heavy hitters): the
    two-pass candidate/verify algorithm (stages/sketch.heavy_hitters) — no
    all-keys shuffle, candidates bounded at m−1 per batch. m is derived
    from the row count by integer arithmetic (N//72 + 1, i.e. threshold ≈
    72 events) so the query is nontrivial at every scale factor; N comes
    from parquet footer metadata (no data pass; user_id is non-null in
    these tables and the operator ignores nulls regardless)."""
    import pyarrow.parquet as pq

    from code_graph_rag_ray.stages.sketch import heavy_hitters

    n = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    ds = _pq(sf_dir, "events", ["user_id"])
    return heavy_hitters(ds, "user_id", n // 72 + 1)


EVENTS_HEAVY_USERS_SQL = """
WITH t AS (SELECT user_id FROM events WHERE user_id IS NOT NULL),
p AS (SELECT count(*) AS nn, count(*) // 72 + 1 AS m FROM t)
SELECT user_id, count(*)::BIGINT AS n
FROM t GROUP BY user_id
HAVING count(*) * (SELECT m FROM p) > (SELECT nn FROM p)
"""


def events_scd2(sf_dir: str):
    """SCD-type-2 state history per user (stages/diff.scd2_history):
    consecutive equal event_type observations collapse into validity
    intervals (valid_from/valid_to µs, n_obs) — the change-data-capture
    fold of the full observation stream."""
    from code_graph_rag_ray.stages.diff import scd2_history

    ds = _pq(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def to_us(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"],
            "ts_us": pc.cast(b["ts"], pa.int64()),
            "event_id": b["event_id"],
            "event_type": b["event_type"],
        })

    rows = ds.map_batches(to_us, batch_format="pyarrow")
    # valid_to is int64, NULL on each user's current interval: to_pandas
    # renders it float64/NaN, as DuckDB's fetchdf renders a NULL-bearing
    # BIGINT
    return scd2_history(rows, key="user_id", order_by="ts_us",
                        state_cols=["event_type"], tiebreak="event_id")


EVENTS_SCD2_SQL = """
WITH t AS (
  SELECT user_id, epoch_us(ts) AS ts_us, event_id, event_type FROM events),
s AS (
  SELECT *, lag(event_type) OVER w AS prev
  FROM t WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id)),
c AS (
  SELECT *, CASE WHEN prev IS NULL OR prev <> event_type THEN 1 ELSE 0 END AS chg
  FROM s),
r AS (
  SELECT *, sum(chg) OVER (PARTITION BY user_id
                           ORDER BY ts_us, event_id) AS run
  FROM c),
g AS (
  SELECT user_id, event_type, run,
         CAST(min(ts_us) AS BIGINT) AS valid_from,
         count(*)::BIGINT AS n_obs
  FROM r GROUP BY user_id, event_type, run)
SELECT user_id, event_type, valid_from,
       lead(valid_from) OVER (PARTITION BY user_id ORDER BY valid_from)
         AS valid_to,
       n_obs
FROM g
"""


def events_hourly_top_types(sf_dir: str):
    """Windowed top-k: top-3 event types per hourly tumbling window by
    count — the streaming-analytics composition (window floor → combiner
    count → grouped_top_k block-local truncation; a whale window exchanges
    O(blocks × k), never its row count)."""
    from code_graph_rag_ray.stages.relational import grouped_top_k

    ds = _pq(sf_dir, "events", ["ts", "event_type"])

    def win(b: pa.Table) -> pa.Table:
        hour = pc.multiply(pc.divide(pc.cast(b["ts"], pa.int64()),
                                     3_600_000_000), 3_600_000_000)
        return pa.table({"win_us": hour, "event_type": b["event_type"]})

    counts = partial_groupby_sum(
        ds.map_batches(win, batch_format="pyarrow"),
        ["win_us", "event_type"], {}, count_alias="n")
    return grouped_top_k(counts, "win_us", "n", 3, tiebreak="event_type")


EVENTS_HOURLY_TOP_TYPES_SQL = """
WITH c AS (
  SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS win_us,
         event_type, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
r AS (
  SELECT *, row_number() OVER (PARTITION BY win_us
                               ORDER BY n DESC, event_type) AS rn
  FROM c)
SELECT win_us, event_type, n FROM r WHERE rn <= 3
"""


def events_cohort_retention(sf_dir: str):
    """Cohort retention triangle (stages/windows.cohort_retention): users
    bucketed by first-seen day, active-user counts per (cohort, day) —
    distinct (user, day) combiner, grouped-min cohorts, one bucketed
    cogroup attach."""
    from code_graph_rag_ray.stages.windows import cohort_retention

    ds = _pq(sf_dir, "events", ["user_id", "ts"])

    def to_us(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"],
                         "ts_us": pc.cast(b["ts"], pa.int64())})

    return cohort_retention(ds.map_batches(to_us, batch_format="pyarrow"),
                            window_s=86_400)


EVENTS_COHORT_RETENTION_SQL = """
WITH kw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS win FROM events),
c AS (SELECT user_id, min(win) AS cohort_win FROM kw GROUP BY user_id)
SELECT c.cohort_win, kw.win, count(*)::BIGINT AS n_active
FROM kw JOIN c USING (user_id)
GROUP BY c.cohort_win, kw.win
"""


def events_debounce(sf_dir: str):
    """Watch-mode debounce policy over the events table (§2.8 analog,
    realtime_updater.py:88-163): per-user quiet-period + max-wait
    coalescing. Bit-exact DuckDB oracle: the sequential per-path state
    machine is a linear recurrence over ts-ordered events, replayed as a
    recursive CTE stepping one event per iteration (NOTES.md fact 18 —
    recursion upgrades iterative ops from rows-only to oracle-checked)."""
    from code_graph_rag_ray.state.watch import debounce_events

    ds = _pq(sf_dir, "events", ["user_id", "ts"])
    return debounce_events(ds, quiet_s=600, max_wait_s=3600, path_col="user_id")


EVENTS_DEBOUNCE_SQL = """
WITH RECURSIVE ev AS (
  SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS t,
         row_number() OVER (PARTITION BY user_id ORDER BY ts) AS rn
  FROM events
),
mx AS (SELECT user_id, max(rn) AS mr FROM ev GROUP BY user_id),
scan AS (
  SELECT user_id, rn, t AS pending_start, t AS last_t, 1::BIGINT AS n,
         NULL::BIGINT AS fired_ts, NULL::BIGINT AS fired_n,
         NULL::BOOLEAN AS fired_forced
  FROM ev WHERE rn = 1
  UNION ALL
  SELECT s.user_id, e.rn,
         CASE WHEN e.t >= least(s.last_t + 600, s.pending_start + 3600)
              THEN e.t ELSE s.pending_start END,
         e.t,
         CASE WHEN e.t >= least(s.last_t + 600, s.pending_start + 3600)
              THEN 1 ELSE s.n + 1 END,
         CASE WHEN e.t >= least(s.last_t + 600, s.pending_start + 3600)
              THEN least(s.last_t + 600, s.pending_start + 3600) END,
         CASE WHEN e.t >= least(s.last_t + 600, s.pending_start + 3600)
              THEN s.n END,
         CASE WHEN e.t >= least(s.last_t + 600, s.pending_start + 3600)
              THEN s.pending_start + 3600 < s.last_t + 600 END
  FROM scan s JOIN ev e ON e.user_id = s.user_id AND e.rn = s.rn + 1
)
SELECT user_id, fired_ts AS process_ts, fired_n AS n_events,
       fired_forced AS forced
FROM scan WHERE fired_ts IS NOT NULL
UNION ALL
SELECT s.user_id, least(s.last_t + 600, s.pending_start + 3600) AS process_ts,
       s.n AS n_events,
       s.pending_start + 3600 < s.last_t + 600 AS forced
FROM scan s JOIN mx ON mx.user_id = s.user_id AND s.rn = mx.mr
"""


def kg_fixture_pr(sf_dir: str):
    """North-rule gate as a query: run the FULL KG pipeline on the seeded
    pages fixture (planted ground truth) and emit triple precision/recall.
    The oracle asserts exact resolution (1.0/1.0) — any pipeline drift
    hash-mismatches."""
    import ray.data as rd

    from code_graph_rag_ray.functions.scoring import score_sets
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import generate_pages

    del sf_dir  # fixture corpus is seeded, independent of sf
    fx = generate_pages(300, 42)
    # host_priors: the fixture plants mentions resolvable only via the
    # corpus-mined host-prior tier (J3 cross-page context), so the exact
    # gate requires the two-pass pipeline
    kg = build_kg(rd.from_arrow(fx.pages), fx.alias_dict, build_nodes=False,
                  host_priors=True)
    edges = kg["edges"].to_pandas()
    pred = set(map(tuple, edges[["subj", "pred", "obj", "provenance_url"]].itertuples(index=False)))
    gold = {(r["subj"], r["pred"], r["obj"], r["url"]) for r in fx.expected_triples.to_pylist()}
    s = score_sets(pred, gold)
    return pd.DataFrame(
        [{"precision": round(s.precision, 4), "recall": round(s.recall, 4)}]
    )


KG_FIXTURE_PR_SQL = (
    "SELECT CAST(1.0 AS DOUBLE) AS precision, CAST(1.0 AS DOUBLE) AS recall"
)


def kg_organic_pr(sf_dir: str):
    """Second-family resolution gate: the FULL KG pipeline on the
    Zipf-shaped organic-web fixture (`sources/organic.py` — disjoint name
    space, Zipfian entity popularity, power-law hosts, article-shaped
    html with style/comment/list structure). Gold triples are recorded at
    plant time, independent of the engine; the oracle asserts exact
    resolution (1.0/1.0) — proving P/R=1.0 is not an artifact of the
    first generator's shape (the organic-corpus-eval analog,
    `evals/README.md:61-141`)."""
    import ray.data as rd

    from code_graph_rag_ray.functions.scoring import score_sets
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.organic import generate_organic_pages

    del sf_dir  # fixture corpus is seeded, independent of sf
    fx = generate_organic_pages(300, seed=7)
    kg = build_kg(rd.from_arrow(fx.pages), fx.alias_dict, build_nodes=False)
    edges = kg["edges"].to_pandas()
    pred = set(map(tuple, edges[["subj", "pred", "obj", "provenance_url"]]
                   .itertuples(index=False)))
    gold = {(r["subj"], r["pred"], r["obj"], r["url"])
            for r in fx.expected_triples.to_pylist()}
    s = score_sets(pred, gold)
    return pd.DataFrame(
        [{"precision": round(s.precision, 4), "recall": round(s.recall, 4)}]
    )


KG_ORGANIC_PR_SQL = KG_FIXTURE_PR_SQL


def kg_host_prior_gain(sf_dir: str):
    """J3 cross-page context as a measurable gate: run the KG pipeline
    WITHOUT and WITH the corpus-mined host-prior tier on the seeded
    fixture and report whether each meets the exact-resolution bar. The
    fixture plants mentions resolvable only with host-scoped corpus
    evidence (``sources/pages.py`` host-prior plants), so the single-pass
    run must FAIL the bar and the two-pass run must meet it — pinning that
    the tier has real, measurable resolution gain (the analog of the
    reference's cross-file type-inference lift, ``parsers/
    type_inference.py`` feeding ``call_resolver.py``)."""
    import ray.data as rd

    from code_graph_rag_ray.functions.scoring import score_sets
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import generate_pages

    del sf_dir
    fx = generate_pages(300, 42)
    gold = {(r["subj"], r["pred"], r["obj"], r["url"])
            for r in fx.expected_triples.to_pylist()}

    def exact(host_priors: bool) -> int:
        kg = build_kg(rd.from_arrow(fx.pages), fx.alias_dict,
                      build_nodes=False, host_priors=host_priors)
        edges = kg["edges"].to_pandas()
        pred = set(map(tuple, edges[
            ["subj", "pred", "obj", "provenance_url"]].itertuples(index=False)))
        s = score_sets(pred, gold)
        return int(s.precision == 1.0 and s.recall == 1.0)

    return pd.DataFrame(
        [{"single_pass_exact": exact(False), "two_pass_exact": exact(True),
          "n_plants": fx.host_prior_plants.num_rows}]
    )


KG_HOST_PRIOR_GAIN_SQL = """
SELECT CAST(0 AS BIGINT) AS single_pass_exact,
       CAST(1 AS BIGINT) AS two_pass_exact,
       CAST(4 AS BIGINT) AS n_plants
"""


def kg_precise_tier_gain(sf_dir: str):
    """M13/M14 heavy-frontend analog as a measurable gate: the fixture
    adds ALL-CAPS plant pages whose dictionary mentions the cheap
    case-sensitive tier structurally cannot detect; the two-tier routing
    sends exactly those pages to the bounded PreciseLinker actor pool
    (normalized token-trie detection, ``stages/linking.py``). Reports
    whether the pipeline meets the exact bar without and with the precise
    tier — both runs use host priors, isolating the precise-tier lift
    (the analog of routing C++/C# files to the libclang/Roslyn frontends,
    ``graph_updater.py:320-497``)."""
    import ray.data as rd

    from code_graph_rag_ray.functions.scoring import score_sets
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import generate_pages

    del sf_dir
    fx = generate_pages(300, 42, shouty_plants=4)
    gold = {(r["subj"], r["pred"], r["obj"], r["url"])
            for r in fx.expected_triples.to_pylist()}

    def exact(two_tier: bool) -> int:
        kg = build_kg(rd.from_arrow(fx.pages), fx.alias_dict,
                      build_nodes=False, host_priors=True,
                      shouty_two_tier=two_tier)
        edges = kg["edges"].to_pandas()
        pred = set(map(tuple, edges[
            ["subj", "pred", "obj", "provenance_url"]].itertuples(index=False)))
        s = score_sets(pred, gold)
        return int(s.precision == 1.0 and s.recall == 1.0)

    return pd.DataFrame(
        [{"cheap_only_exact": exact(False), "two_tier_exact": exact(True),
          "n_shouty_plants": 4}]
    )


KG_PRECISE_TIER_GAIN_SQL = """
SELECT CAST(0 AS BIGINT) AS cheap_only_exact,
       CAST(1 AS BIGINT) AS two_tier_exact,
       CAST(4 AS BIGINT) AS n_shouty_plants
"""


def kg_robustness_curve(sf_dir: str):
    """Messy-input eval (the analog of the reference's organic-corpus
    evals, ``evals/README.md:61-141``): deterministic adversarial damage
    — uppercasing, typos, truncation, spam injection — at rising rates
    over the seeded fixture, with the FULL pipeline's precision/recall
    against the unmutated gold per tier (``sources/adversarial.py``).
    Rows-only (no SQL oracle: the metric is a pipeline property, not a
    relational expression); pytest pins rate-0 exactness, monotone recall
    decay, and the per-kind properties."""
    from code_graph_rag_ray.sources.adversarial import robustness_curve

    del sf_dir
    return robustness_curve()


def kg_organic_robustness(sf_dir: str):
    """The degradation eval repeated on the SECOND fixture family
    (Zipf/organic corpus): same deterministic damage, same scoring,
    structurally different generator — degradation behavior is a pipeline
    property, not a generator artifact. Rows-only like its twin (the
    metric is a pipeline property); pytest pins rate-0 exactness and
    recall decay."""
    from code_graph_rag_ray.sources.adversarial import organic_robustness_curve

    del sf_dir
    return organic_robustness_curve()


# ---------------------------------------------------------------------------
# page manifest (S7 dependency-manifest reader analog)
# ---------------------------------------------------------------------------

def page_manifest(sf_dir: str):
    """S7 analog: vectorized <meta name/content> manifest rows per page
    (the web-page 'dependency manifest' — parsers/dependency_parser.py)."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.manifest import extract_manifest

    return extract_manifest(pages_from_documents(sf_dir))


PAGE_MANIFEST_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         doc_id, lang
  FROM documents)
SELECT url, 'generator' AS key,
       'gen-' || (doc_id % 5) || ' 1.' || (doc_id % 3) || '.' || (doc_id % 11) AS value
FROM p
UNION ALL
SELECT url, 'language' AS key, lang AS value FROM p
UNION ALL
SELECT url, 'requires' AS key,
       'lib-' || (doc_id % 4) || '@^2.' || (doc_id % 6) AS value
FROM p
"""


def page_deps(sf_dir: str):
    """DEPENDS_ON_EXTERNAL edges with version_spec parsed from manifest
    values (definition_processor.py:451-478 analog)."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.manifest import extract_manifest, manifest_deps

    return manifest_deps(extract_manifest(pages_from_documents(sf_dir)))


PAGE_DEPS_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url, doc_id
  FROM documents)
SELECT url, 'lib-' || (doc_id % 4) AS dep_name, '^2.' || (doc_id % 6) AS version_spec
FROM p
UNION ALL
SELECT url, 'gen-' || (doc_id % 5) AS dep_name,
       '1.' || (doc_id % 3) || '.' || (doc_id % 11) AS version_spec
FROM p
"""


def ext_packages(sf_dir: str):
    """ExternalPackage node table: per-package dependent counts (MERGE
    aggregation analog). Partial count per batch, dictionary-scale final
    groupby."""
    from code_graph_rag_ray.sources.pages import pages_from_documents
    from code_graph_rag_ray.stages.manifest import (
        extract_manifest, external_packages, manifest_deps,
    )

    deps = manifest_deps(extract_manifest(pages_from_documents(sf_dir)))
    return external_packages(deps)


EXT_PACKAGES_SQL = """
WITH p AS (SELECT doc_id FROM documents),
     d AS (
       SELECT 'lib-' || (doc_id % 4) AS dep_name FROM p
       UNION ALL
       SELECT 'gen-' || (doc_id % 5) AS dep_name FROM p)
SELECT dep_name, CAST(count(*) AS BIGINT) AS n_dependents
FROM d GROUP BY dep_name
"""


def events_transitions(sf_dir: str):
    """Per-user event-type transition matrix (Markov bigram counts):
    lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) →
    two-phase (prev, next) count: chunk-local bigrams plus per-chunk
    boundary types, stitched across chunks per user
    (stages/windows.transition_counts); the exchange is O(blocks × T²)."""
    from code_graph_rag_ray.stages.windows import transition_counts

    ds = _pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return transition_counts(ds)


EVENTS_TRANSITIONS_SQL = """
WITH lagged AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type
  -- NULL-typed events are dropped BEFORE the lag (the impl's documented
  -- semantics: adjacency bridges across null rows), not after
  FROM events WHERE event_type IS NOT NULL)
SELECT prev_type, event_type AS next_type,
       CAST(count(*) AS BIGINT) AS n_transitions
FROM lagged WHERE prev_type IS NOT NULL
GROUP BY prev_type, event_type
"""


def doc_split_by_source(sf_dir: str):
    """Group-holdout train/val/test split: the md5 bucket is taken on the
    SOURCE key, so every document of a source lands in the same split —
    the leak-proof variant of doc_split for grouped corpora (all pages of
    a host must not straddle train/test). Same auditable md5-low32 policy
    hash (functions/hashing.md5_low32_array)."""
    from code_graph_rag_ray.stages.sampling import hash_split

    ds = _pq(sf_dir, "documents", ["doc_id", "source"])
    return hash_split(ds, id_col="source")


DOC_SPLIT_BY_SOURCE_SQL = """
WITH b AS (
  SELECT doc_id, source,
         ('0x' || substr(md5(source), 1, 8))::UBIGINT % 10000 AS bk
  FROM documents)
SELECT doc_id, source,
       CASE WHEN bk < 9000 THEN 'train'
            WHEN bk < 9500 THEN 'val' ELSE 'test' END AS split
FROM b
"""


def doc_mad_outliers(sf_dir: str):
    """Robust length-outlier documents per language: |n_chars − median| >
    2 × MAD (median absolute deviation), computed with two rounds of the
    exact two-phase grouped-quantile histogram
    (stages/quantiles.grouped_mad_outliers). Integer arithmetic end to
    end → bit-exact vs the quantile_disc oracle."""
    from code_graph_rag_ray.stages.quantiles import grouped_mad_outliers

    ds = _pq(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return grouped_mad_outliers(ds, key="lang", value_col="n_chars",
                                id_col="doc_id", k=2)


DOC_MAD_OUTLIERS_SQL = """
WITH med AS (
  SELECT lang, quantile_disc(n_chars, 0.5) AS med
  FROM documents GROUP BY lang),
dev AS (
  SELECT d.doc_id, d.lang, d.n_chars,
         CAST(abs(d.n_chars - m.med) AS BIGINT) AS adev
  FROM documents d JOIN med m USING (lang)),
mad AS (
  SELECT lang, quantile_disc(adev, 0.5) AS mad FROM dev GROUP BY lang)
SELECT v.doc_id, v.lang, v.n_chars, v.adev, CAST(m.mad AS BIGINT) AS mad
FROM dev v JOIN mad m USING (lang)
WHERE v.adev > 2 * m.mad
"""


_PARA_WINDOW_SQL = """
WITH t AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), s -> s <> '') AS toks
  FROM documents),
s AS (
  SELECT doc_id, toks, unnest(generate_series(0, len(toks) - 1, 16)) AS st
  FROM t WHERE len(toks) > 0),
w AS (
  SELECT doc_id, (st // 16)::BIGINT AS para_idx,
         array_to_string(list_slice(toks, st + 1, st + 16), ' ') AS para
  FROM s)
"""


def doc_para_dedup(sf_dir: str):
    """CCNet-style paragraph (16-token window) dedup: keep=1 iff the
    window is the globally first occurrence of its content under
    (doc_id, para_idx) order — one content-hash-bucketed shuffle,
    vectorized winner pick per bucket (stages/paragraphs.paragraph_dedup)."""
    from code_graph_rag_ray.stages.paragraphs import paragraph_dedup

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return paragraph_dedup(ds, window=16)


DOC_PARA_DEDUP_SQL = _PARA_WINDOW_SQL + """
SELECT doc_id, para_idx,
       CAST(CASE WHEN row_number()
                        OVER (PARTITION BY para ORDER BY doc_id, para_idx) = 1
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM w
"""


def doc_boilerplate(sf_dir: str):
    """Per-document boilerplate counts: windows whose content is shared
    by ≥2 distinct documents corpus-wide (navigation/footer analog).
    Same single bucketed shuffle; per-bucket partial counts sum exactly
    (stages/paragraphs.boilerplate_stats)."""
    from code_graph_rag_ray.stages.paragraphs import boilerplate_stats

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return boilerplate_stats(ds, window=16, min_docs=2)


DOC_BOILERPLATE_SQL = _PARA_WINDOW_SQL + """
, c AS (SELECT para, count(DISTINCT doc_id) AS nd FROM w GROUP BY para)
SELECT w.doc_id, CAST(count(*) AS BIGINT) AS n_paras,
       CAST(sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_boiler
FROM w JOIN c USING (para) GROUP BY w.doc_id
"""


def events_value_quantiles(sf_dir: str):
    """EXACT quantiles of the continuous (double) value column — the
    iterative histogram-refinement selection (stages/selection.py): no
    shuffle, O(quantiles × bins) driver state, one streaming pass per
    refinement round. pull_threshold forces the refinement path even at
    test scale."""
    from code_graph_rag_ray.stages.selection import quantile_select_table

    ds = _pq(sf_dir, "events", ["value"])
    return quantile_select_table(
        ds, value_col="value",
        qs={"p25": 0.25, "p50": 0.5, "p90": 0.9, "p99": 0.99},
        pull_threshold=1000,
    )


def events_value_hdr(sf_dir: str):
    """Mergeable HDR-style quantile SKETCH over the value column — the
    bounded-memory 100 TB twin of events_value_quantiles' exact
    refinement: fixed-point milli-units, pure-integer bucketing (top 8
    significant bits kept, bit_length via smear+popcount — NOTES fact
    17), one partial-count shuffle over ≤ (64−7)·2^7 buckets, driver
    finish reads only the bounded bucket table. Estimates carry relative
    error ≤ 2^-7 and are DETERMINISTIC and merge-order independent
    (buckets are pure value functions; merging is addition — unlike
    t-digest/KLL, whose centroids depend on compaction order), which is
    what makes this sketch bit-exactly oracle-checkable."""
    from code_graph_rag_ray.stages.sketch import hdr_quantiles

    ds = _pq(sf_dir, "events", ["value"])
    return hdr_quantiles(ds, "value", {
        "p25_milli": 0.25, "p50_milli": 0.50,
        "p90_milli": 0.90, "p99_milli": 0.99,
    })


EVENTS_VALUE_HDR_SQL = """
WITH v AS (
  SELECT greatest(CAST(floor(value * 1000::DOUBLE) AS BIGINT), 0) AS vi
  FROM events WHERE value IS NOT NULL),
s AS (SELECT vi, vi | (vi >> 1) AS x FROM v),
s2 AS (SELECT vi, x | (x >> 2) AS x FROM s),
s3 AS (SELECT vi, x | (x >> 4) AS x FROM s2),
s4 AS (SELECT vi, x | (x >> 8) AS x FROM s3),
s5 AS (SELECT vi, x | (x >> 16) AS x FROM s4),
s6 AS (SELECT vi, x | (x >> 32) AS x FROM s5),
b AS (SELECT vi, bit_count(x) - 1 AS e FROM s6),
l AS (SELECT CASE WHEN e - 7 > 0 THEN (vi >> (e - 7)) << (e - 7)
             ELSE vi END AS lb
      FROM b),
w AS (SELECT lb, sum(c) OVER (ORDER BY lb) AS cum FROM
      (SELECT lb, count(*) AS c FROM l GROUP BY lb)),
n1 AS (SELECT CAST(count(*) AS BIGINT) AS n FROM l)
SELECT n1.n AS n,
  (SELECT CAST(min(lb) AS BIGINT) FROM w
   WHERE cum >= greatest(ceil(0.25::DOUBLE * n1.n), 1)) AS p25_milli,
  (SELECT CAST(min(lb) AS BIGINT) FROM w
   WHERE cum >= greatest(ceil(0.50::DOUBLE * n1.n), 1)) AS p50_milli,
  (SELECT CAST(min(lb) AS BIGINT) FROM w
   WHERE cum >= greatest(ceil(0.90::DOUBLE * n1.n), 1)) AS p90_milli,
  (SELECT CAST(min(lb) AS BIGINT) FROM w
   WHERE cum >= greatest(ceil(0.99::DOUBLE * n1.n), 1)) AS p99_milli
FROM n1
"""


def events_value_hdr_by_type(sf_dir: str):
    """Per-event-type mergeable HDR quantile sketch — the grouped twin of
    events_value_hdr (same determinism/error contract; the finish reads
    |types| × bounded-buckets rows)."""
    from code_graph_rag_ray.stages.sketch import hdr_quantiles_grouped

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return hdr_quantiles_grouped(ds, "value", "event_type", {
        "p50_milli": 0.50, "p90_milli": 0.90, "p99_milli": 0.99,
    })


EVENTS_VALUE_HDR_BY_TYPE_SQL = """
WITH v AS (
  SELECT event_type,
         greatest(CAST(floor(value * 1000::DOUBLE) AS BIGINT), 0) AS vi
  FROM events WHERE value IS NOT NULL),
s AS (SELECT event_type, vi, vi | (vi >> 1) AS x FROM v),
s2 AS (SELECT event_type, vi, x | (x >> 2) AS x FROM s),
s3 AS (SELECT event_type, vi, x | (x >> 4) AS x FROM s2),
s4 AS (SELECT event_type, vi, x | (x >> 8) AS x FROM s3),
s5 AS (SELECT event_type, vi, x | (x >> 16) AS x FROM s4),
s6 AS (SELECT event_type, vi, x | (x >> 32) AS x FROM s5),
l AS (SELECT event_type,
             CASE WHEN bit_count(x) - 1 - 7 > 0
                  THEN (vi >> (bit_count(x) - 1 - 7)) << (bit_count(x) - 1 - 7)
                  ELSE vi END AS lb
      FROM s6),
g AS (SELECT event_type, lb, count(*) AS c FROM l GROUP BY event_type, lb),
w AS (SELECT event_type, lb,
             sum(c) OVER (PARTITION BY event_type ORDER BY lb) AS cum,
             sum(c) OVER (PARTITION BY event_type) AS n
      FROM g)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(min(CASE WHEN cum >= greatest(ceil(0.50::DOUBLE * n), 1)
                THEN lb END) AS BIGINT) AS p50_milli,
       CAST(min(CASE WHEN cum >= greatest(ceil(0.90::DOUBLE * n), 1)
                THEN lb END) AS BIGINT) AS p90_milli,
       CAST(min(CASE WHEN cum >= greatest(ceil(0.99::DOUBLE * n), 1)
                THEN lb END) AS BIGINT) AS p99_milli
FROM w GROUP BY event_type, n
"""


EVENTS_VALUE_QUANTILES_SQL = """
SELECT CAST(count(value) AS BIGINT) AS n,
       quantile_disc(value, 0.25) AS p25,
       quantile_disc(value, 0.50) AS p50,
       quantile_disc(value, 0.90) AS p90,
       quantile_disc(value, 0.99) AS p99
FROM events
"""


def q10_returned_items(sf_dir: str):
    """TPC-H q10 shape: top-20 customers by revenue lost to returned
    items in one quarter. Fully distributed — lineitem('R') ⋈
    window-filtered orders and per-customer sums ⋈ customer both go
    through the bucketed cogroup join; only nation (25 rows) is a
    broadcast lookup; 20 rows reach the driver."""
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast
    from code_graph_rag_ray.stages.relational import bucketed_join, top_k

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def date_win(b: pa.Table) -> pa.Table:
        lo = pa.scalar(pd.Timestamp("1996-01-01").to_pydatetime()).cast(
            b["o_orderdate"].type
        )
        hi = pa.scalar(pd.Timestamp("1996-07-01").to_pydatetime()).cast(
            b["o_orderdate"].type
        )
        f = b.filter(
            pc.and_(pc.greater_equal(b["o_orderdate"], lo),
                    pc.less(b["o_orderdate"], hi))
        )
        return pa.table({"o_orderkey": f["o_orderkey"], "o_custkey": f["o_custkey"]})

    ow = orders.map_batches(date_win, batch_format="pyarrow")

    li = _pq(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    ).filter(expr="l_returnflag == 'R'")

    def add_rev(b: pa.Table) -> pa.Table:
        rev_cc = pc.multiply(
            _cents(b["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(b["l_discount"])),
        )
        return pa.table({"l_orderkey": b["l_orderkey"], "rev_cc": rev_cc})

    j = bucketed_join(
        li.map_batches(add_rev, batch_format="pyarrow"), ow,
        on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("rev_cc", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]),
    )
    custrev = partial_groupby_sum(
        j.select_columns(["o_custkey", "rev_cc"]), ["o_custkey"],
        {"rev_cc": "rev_cc"},
    )

    cust = _pq(sf_dir, "customer",
               ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
    cj = bucketed_join(
        cust, custrev, on="c_custkey", right_on="o_custkey",
        left_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_name", pa.string()),
             ("c_acctbal", pa.float64()), ("c_nationkey", pa.int64())]
        ),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("rev_cc", pa.int64())]),
    )

    nation = _pq(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nref = ray.put(pd.Series(dict(zip(nation.n_nationkey, nation.n_name))))

    def resolve(b: pa.Table) -> pa.Table:
        nmap = get_broadcast(nref)
        names = pd.Series(
            b["c_nationkey"].to_numpy(zero_copy_only=False)
        ).map(nmap).to_numpy()
        # round to cents BEFORE the top-k: SQL orders by the ROUNDED
        # revenue, and distinct rev_cc values can collide on it
        rev_r = pc.divide(
            pc.add(b["rev_cc"], pa.scalar(50, pa.int64())),
            pa.scalar(100, pa.int64()),
        )
        return pa.table(
            {"c_custkey": b["c_custkey"], "c_name": b["c_name"],
             "rev_r": rev_r, "c_acctbal": b["c_acctbal"],
             "n_name": pa.array(names, pa.string())}
        )

    # k=60 margin: the exact 20 are resolved on the driver under SQL's
    # (revenue DESC, c_custkey) order; margin covers boundary ties
    resolved = cj.map_batches(resolve, batch_format="pyarrow")
    top = top_k(resolved, "rev_r", 60).to_pandas()
    top = top.sort_values(["rev_r", "c_custkey"], ascending=[False, True])
    if len(top) >= 60 and top["rev_r"].iloc[59] == top["rev_r"].iloc[19]:
        # the tie group at the cut may extend past the margin: re-pull
        # every row at or above the boundary value (streaming filter —
        # bounded by the tie-group size, not the table)
        bound = int(top["rev_r"].iloc[19])
        full = resolved.map_batches(
            lambda b, bound=bound: b.filter(pc.greater_equal(b["rev_r"], bound)),
            batch_format="pyarrow",
        ).to_pandas()
        top = full.sort_values(["rev_r", "c_custkey"],
                               ascending=[False, True])
    top = top.head(20)
    top["revenue"] = top["rev_r"] / 100.0
    return top[["c_custkey", "c_name", "revenue", "c_acctbal",
                "n_name"]].reset_index(drop=True)


Q10_SQL = """
SELECT c_custkey, c_name,
       ((sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) + 50) // 100)
         / 100.0 AS revenue,
       c_acctbal, n_name
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation ON c_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1996-07-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey LIMIT 20
"""


def q12_priority_by_returnflag(sf_dir: str):
    """TPC-H q12 shape (adapted to the synthetic schema): per returnflag,
    how many 1996-shipped lineitems belong to high- vs low-priority
    orders (conditional aggregation over a fact ⋈ fact bucketed join)."""
    from code_graph_rag_ray.stages.relational import bucketed_join

    orders = _pq(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    li = _pq(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"])

    def ship_win(b: pa.Table) -> pa.Table:
        lo = pa.scalar(pd.Timestamp("1996-01-01").to_pydatetime()).cast(
            b["l_shipdate"].type
        )
        hi = pa.scalar(pd.Timestamp("1997-01-01").to_pydatetime()).cast(
            b["l_shipdate"].type
        )
        f = b.filter(
            pc.and_(pc.greater_equal(b["l_shipdate"], lo),
                    pc.less(b["l_shipdate"], hi))
        )
        return pa.table({"l_orderkey": f["l_orderkey"],
                         "l_returnflag": f["l_returnflag"]})

    j = bucketed_join(
        li.map_batches(ship_win, batch_format="pyarrow"), orders,
        on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_returnflag", pa.string())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderpriority", pa.string())]),
    )

    def flags(b: pa.Table) -> pa.Table:
        hi = pc.cast(
            pc.is_in(b["o_orderpriority"],
                     value_set=pa.array(["1-URGENT", "2-HIGH"])),
            pa.int64(),
        )
        return pa.table(
            {"l_returnflag": b["l_returnflag"], "high_count": hi,
             "low_count": pc.subtract(pa.scalar(1, pa.int64()), hi)}
        )

    agg = partial_groupby_sum(
        j.map_batches(flags, batch_format="pyarrow"), ["l_returnflag"],
        {"high_count": "high_count", "low_count": "low_count"},
    )
    out = agg.to_pandas().sort_values("l_returnflag").reset_index(drop=True)
    return out[["l_returnflag", "high_count", "low_count"]]


Q12_SQL = """
SELECT l_returnflag,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_count,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS low_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def page_neighbor_agg(sf_dir: str):
    """1-hop neighbor aggregation over the links_to graph
    (stages/graph_metrics.neighbor_agg): per page, out-neighbor count and
    the sum of those neighbors' in-degrees — the message-passing / feature
    propagation primitive."""
    from code_graph_rag_ray.stages.graph_metrics import neighbor_agg

    _pages, internal = _internal_link_graph(sf_dir)

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"src": b["src_url"], "dst": b["dst_url"]})

    out = neighbor_agg(internal.map_batches(rename, batch_format="pyarrow"))
    return out.map_batches(
        lambda b: pa.table(
            {"url": b["src"], "n_out": b["n_out"],
             "sum_nbr_in_deg": b["sum_nbr_in_deg"]}
        ),
        batch_format="pyarrow",
    )


PAGE_NEIGHBOR_AGG_SQL = """
WITH p AS (
  SELECT 'https://' || source || '.example.org/doc/' || doc_id AS url,
         'https://' || source || '.example.org/doc/' || (doc_id // 2) AS t1
  FROM documents),
e AS (SELECT a.url AS src, a.t1 AS dst
      FROM p a JOIN (SELECT url FROM p) b ON a.t1 = b.url),
d AS (SELECT dst AS node, CAST(count(*) AS BIGINT) AS in_deg
      FROM e GROUP BY dst)
SELECT e.src AS url, CAST(count(*) AS BIGINT) AS n_out,
       CAST(sum(d.in_deg) AS BIGINT) AS sum_nbr_in_deg
FROM e JOIN d ON e.dst = d.node
GROUP BY e.src
"""


def corpus_bigrams(sf_dir: str):
    """Corpus bigram counts (stages/tfidf.bigram_counts): the n-gram LM
    count table — vectorized adjacent-pair extraction (pairs never cross
    a document), two-phase grouped count."""
    from code_graph_rag_ray.stages.tfidf import bigram_counts

    ds = _pq(sf_dir, "documents", ["text"])
    return bigram_counts(ds)


CORPUS_BIGRAMS_SQL = """
WITH t AS (
  SELECT list_filter(string_split(text, ' '), s -> s <> '') AS toks
  FROM documents),
s AS (
  SELECT toks, unnest(generate_series(1, len(toks) - 1)) AS i
  FROM t WHERE len(toks) > 1)
SELECT toks[i] AS w1, toks[i + 1] AS w2, CAST(count(*) AS BIGINT) AS n
FROM s GROUP BY w1, w2
"""


def corpus_bpe_merges(sf_dir: str):
    """BPE tokenizer training (stages/bpe.bpe_learn): the top-6 merge
    rules learned from corpus word frequencies. One corpus pass builds
    the vocabulary table; each merge is a vocabulary-scale streaming
    pass (vectorized pair extraction + two-phase count + per-block
    argmax fold — O(blocks) rows reach the driver). The double-space
    symbol encoding makes the greedy left-to-right merge application a
    plain string replace on BOTH sides, so the whole training run is
    bit-exact against the chained-CTE DuckDB replay."""
    import ray.data as rd

    from code_graph_rag_ray.stages.bpe import bpe_learn

    ds = _pq(sf_dir, "documents", ["text"])
    return rd.from_arrow(bpe_learn(ds, num_merges=6))


def _bpe_ctes(num_merges: int) -> str:
    """Chained-CTE replay of ``bpe_learn``: v0 = vocabulary with the
    double-space symbol encoding; each iteration counts adjacent symbol
    pairs (positions, weighted by word count), picks (max cnt, min lft,
    min rgt) and applies the merge with the same boundary-preserving
    replace the impl uses. Ends at ``v{num_merges}`` (the fully merged
    vocabulary) and ``m1..m{num_merges}`` (the chosen rules) — shared by
    the merge-learning and corpus-tokenize oracles."""
    parts = [
        """WITH tok AS (
  SELECT list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     w -> w <> '') AS ws
  FROM documents),
w AS (SELECT unnest(ws) AS word FROM tok),
v0 AS (
  SELECT word, count(*)::BIGINT AS wc,
         regexp_replace(word, '(.)', ' \\1 ', 'g') AS sym
  FROM w GROUP BY word)"""
    ]
    for i in range(1, num_merges + 1):
        p = i - 1
        parts.append(f""",
a{i} AS (SELECT wc, string_split(trim(sym), '  ') AS ss FROM v{p}),
p{i} AS (
  SELECT ss[j] AS lft, ss[j + 1] AS rgt, sum(wc)::BIGINT AS cnt
  FROM (SELECT wc, ss, unnest(generate_series(1, len(ss) - 1)) AS j
        FROM a{i} WHERE len(ss) >= 2)
  GROUP BY lft, rgt),
m{i} AS (SELECT {i}::BIGINT AS step, lft, rgt, cnt FROM p{i}
         ORDER BY cnt DESC, lft, rgt LIMIT 1),
-- single CTE reference per step (one JOIN, not repeated scalar
-- subqueries): an inlining planner would otherwise re-expand the whole
-- v-chain per reference — exponential in the merge count. LEFT JOIN ON
-- TRUE (not CROSS JOIN) so an EXHAUSTED merge step (empty m{i} — the
-- impl's early stop) passes the vocabulary through unchanged instead of
-- annihilating it
v{i} AS (
  SELECT v.word, v.wc,
         CASE WHEN m.lft IS NULL THEN v.sym
              ELSE replace(v.sym, ' ' || m.lft || '  ' || m.rgt || ' ',
                           ' ' || m.lft || m.rgt || ' ') END AS sym
  FROM v{p} v LEFT JOIN m{i} m ON TRUE)""")
    return "".join(parts)


def _bpe_merges_sql(num_merges: int) -> str:
    union = "\nUNION ALL ".join(f"SELECT * FROM m{i}"
                                for i in range(1, num_merges + 1))
    return (_bpe_ctes(num_merges)
            + f"\nSELECT step, lft, rgt, cnt FROM ({union}) ORDER BY step")


CORPUS_BPE_MERGES_SQL = _bpe_merges_sql(6)


def corpus_bpe_tokenize(sf_dir: str):
    """BPE train→APPLY (stages/bpe.bpe_tokenize): learn 6 merge rules,
    then tokenize every document with them — (doc_id, n_words,
    n_bpe_tokens), the corpus token-count table a packing/budgeting stage
    consumes. The apply pass is a stateless one-pass map (the merge list
    rides the task closure; K vectorized non-regex replaces per batch) —
    no join, no vocabulary broadcast, no shuffle."""
    from code_graph_rag_ray.stages.bpe import bpe_learn, bpe_tokenize

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    merges = bpe_learn(ds, num_merges=6)
    return bpe_tokenize(ds, merges)


CORPUS_BPE_FERTILITY_SQL = (_bpe_ctes(6) + """,
vn AS (SELECT word, len(string_split(trim(sym), '  '))::BIGINT AS ns
       FROM v6),
d AS (SELECT doc_id, lang,
             list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         w -> w <> '') AS ws
      FROM documents),
dw AS (SELECT doc_id, unnest(ws) AS word FROM d),
per AS (SELECT dw.doc_id, count(*)::BIGINT AS nw, sum(vn.ns)::BIGINT AS nt
        FROM dw JOIN vn USING (word) GROUP BY dw.doc_id),
lj AS (SELECT d.lang, coalesce(p.nw, 0) AS nw, coalesce(p.nt, 0) AS nt
       FROM d LEFT JOIN per p USING (doc_id)),
ag AS (SELECT lang, count(*)::BIGINT AS n_docs, sum(nw)::BIGINT AS n_words,
              sum(nt)::BIGINT AS n_bpe_tokens
       FROM lj GROUP BY lang)
SELECT lang, n_docs, n_words, n_bpe_tokens,
       (CASE WHEN n_words > 0 THEN (n_bpe_tokens * 1000000) // n_words
             ELSE 0 END)::BIGINT AS fertility_micro
FROM ag
""")


DOC_PACK_BPE_SQL = (_bpe_ctes(6) + """,
vn AS (SELECT word, len(string_split(trim(sym), '  '))::BIGINT AS ns
       FROM v6),
d AS (SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         w -> w <> '') AS ws
      FROM documents),
dw AS (SELECT doc_id, unnest(ws) AS word FROM d),
per AS (SELECT dw.doc_id, sum(vn.ns)::BIGINT AS nt
        FROM dw JOIN vn USING (word) GROUP BY dw.doc_id),
t AS (SELECT d.doc_id, coalesce(p.nt, 0)::BIGINT AS n_tokens
      FROM d LEFT JOIN per p USING (doc_id)),
o AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS start_off
  FROM t)
SELECT doc_id, n_tokens, start_off,
       CAST(start_off // 256 AS BIGINT) AS seq_first,
       CAST(CASE WHEN n_tokens = 0 THEN start_off // 256
                 ELSE (start_off + n_tokens - 1) // 256 END AS BIGINT)
         AS seq_last
FROM o
""")


CORPUS_BPE_TOKENIZE_SQL = (_bpe_ctes(6) + """,
vn AS (SELECT word, len(string_split(trim(sym), '  '))::BIGINT AS ns
       FROM v6),
d AS (SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         w -> w <> '') AS ws
      FROM documents),
dw AS (SELECT doc_id, unnest(ws) AS word FROM d),
per AS (SELECT dw.doc_id, count(*)::BIGINT AS n_words,
               sum(vn.ns)::BIGINT AS n_bpe_tokens
        FROM dw JOIN vn USING (word) GROUP BY dw.doc_id)
SELECT d.doc_id, coalesce(p.n_words, 0)::BIGINT AS n_words,
       coalesce(p.n_bpe_tokens, 0)::BIGINT AS n_bpe_tokens
FROM d LEFT JOIN per p USING (doc_id)
""")


def events_value_quantiles_by_type(sf_dir: str):
    """Per-event-type EXACT continuous quantiles — the grouped
    histogram-refinement selection (stages/selection.grouped_quantile_select):
    one bracket per (type, quantile), one mergeable int64 histogram matrix
    per round, no shuffle."""
    from code_graph_rag_ray.stages.selection import grouped_quantile_select

    ds = _pq(sf_dir, "events", ["event_type", "value"])
    return grouped_quantile_select(
        ds, group_col="event_type", value_col="value",
        qs={"p50": 0.5, "p90": 0.9}, pull_threshold=500,
    )


EVENTS_VALUE_QUANTILES_BY_TYPE_SQL = """
SELECT event_type, CAST(count(value) AS BIGINT) AS n,
       quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.9) AS p90
FROM events GROUP BY event_type
"""


def doc_percent_rank(sf_dir: str):
    """percent_rank + cume_dist over the deterministic (n_chars DESC,
    doc_id) total order — pure composition: the two-pass range-bucket
    row_number plus closed-form arithmetic. The order is tie-free, so
    row_number == rank and both window functions are one IEEE division
    each — bit-exact vs SQL."""
    from code_graph_rag_ray.stages.ranking import global_rank

    ds = _pq(sf_dir, "documents", ["doc_id", "n_chars"])
    total = ds.count()
    ranked = global_rank(ds, "n_chars", tiebreak="doc_id", descending=True)

    def derive(b: pa.Table, tot=total) -> pa.Table:
        r = b["rank"].to_numpy(zero_copy_only=False).astype(np.float64)
        pr = (r - 1.0) / float(tot - 1) if tot > 1 else np.zeros_like(r)
        cd = r / float(tot)
        return pa.table(
            {"doc_id": b["doc_id"], "n_chars": b["n_chars"],
             "rank": b["rank"],
             "pct_rank": pa.array(pr, pa.float64()),
             "cume_dist": pa.array(cd, pa.float64())}
        )

    return ranked.map_batches(derive, batch_format="pyarrow")


DOC_PERCENT_RANK_SQL = """
SELECT doc_id, n_chars,
       row_number() OVER w AS rank,
       percent_rank() OVER w AS pct_rank,
       cume_dist() OVER w AS cume_dist
FROM documents
WINDOW w AS (ORDER BY n_chars DESC, doc_id)
"""


def doc_jaccard_join(sf_dir: str):
    """EXACT all-pairs 5-token-shingle Jaccard ≥ 4/5 via prefix filtering
    (stages/dedup.prefix_jaccard_join) — the deterministic ground truth
    the MinHash+LSH op approximates; integer (inter, uni) output, no
    floats anywhere."""
    from code_graph_rag_ray.stages.dedup import prefix_jaccard_join

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    out = prefix_jaccard_join(ds, shingle=5, tau=(4, 5))

    def strip(b: pa.Table) -> pa.Table:
        # the max_group candidate cap is the ONE exactness caveat: fail
        # loud if it ever bound rather than silently losing pairs
        if pc.any(b["truncated"]).as_py():
            raise ValueError(
                "prefix_jaccard_join candidate group truncated — raise "
                "max_group for exact output")
        return pa.table({"a": b["a"], "b": b["b"], "inter": b["inter"],
                         "uni": b["uni"]})

    return out.map_batches(strip, batch_format="pyarrow", batch_size=None)


DOC_JACCARD_JOIN_SQL = """
WITH t AS (
  SELECT doc_id, text,
         list_filter(string_split(text, ' '), s -> s <> '') AS toks
  FROM documents),
g AS (
  SELECT doc_id,
         CASE WHEN len(toks) < 5 THEN [text]
              ELSE list_distinct(list_transform(
                     range(1, len(toks) - 3),
                     i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                          || ' ' || toks[i+3] || ' ' || toks[i+4]))
         END AS sh
  FROM t),
p AS (
  SELECT a.doc_id AS a, b.doc_id AS b,
         len(list_intersect(a.sh, b.sh)) AS inter,
         len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS uni
  FROM g a JOIN g b ON a.doc_id < b.doc_id)
SELECT a, b, CAST(inter AS BIGINT) AS inter, CAST(uni AS BIGINT) AS uni
FROM p WHERE inter * 5 >= 4 * uni
"""


def doc_para_dedup_apply(sf_dir: str):
    """The APPLY step of paragraph dedup: each document rebuilt from only
    its globally-first-occurrence 16-token windows, original order kept
    (stages/paragraphs.paragraph_dedup_apply) — the cleaned corpus a
    curation pipeline writes out."""
    from code_graph_rag_ray.stages.paragraphs import paragraph_dedup_apply

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return paragraph_dedup_apply(ds, window=16)


DOC_PARA_DEDUP_APPLY_SQL = _PARA_WINDOW_SQL + """
, k AS (
  SELECT doc_id, para_idx, para,
         row_number() OVER (PARTITION BY para ORDER BY doc_id, para_idx) = 1
           AS keep
  FROM w)
SELECT doc_id,
       string_agg(para, ' ' ORDER BY para_idx) AS clean_text,
       CAST(count(*) AS BIGINT) AS n_kept
FROM k WHERE keep GROUP BY doc_id
"""


def doc_compression(sf_dir: str):
    """zlib redundancy signal per document (rows-only: no SQL zlib):
    integer (n_bytes, z_bytes) — stages/text_analysis.compression_ratio_batch;
    semantics pinned by pytest (repetitive text compresses far smaller,
    determinism across partitionings)."""
    from code_graph_rag_ray.stages.text_analysis import compression_ratio_batch

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(compression_ratio_batch, batch_format="pyarrow")


def kg_entity_salience(sf_dir: str):
    """Top-3 salient ENTITIES per document by tf/df over the mention
    stream — the KG path composed with the tf-idf ranker
    (stages/tfidf.topk_from_tf_rows): mention counts are batch-complete
    per doc, df is the two-phase count, the rank key is one IEEE
    division."""
    from code_graph_rag_ray.stages.extract import doc_mentions_batch
    from code_graph_rag_ray.stages.tfidf import topk_from_tf_rows

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "term": b["surface"],
                         "tf": b["n_mentions"]})

    tf_rows = ds.map_batches(doc_mentions_batch, batch_format="pyarrow").map_batches(
        rename, batch_format="pyarrow", batch_size=None
    )
    return topk_from_tf_rows(tf_rows, k=3)


KG_ENTITY_SALIENCE_SQL = f"""
WITH m AS (
  SELECT doc_id, w AS term, count(*)::BIGINT AS tf
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  WHERE w IN {_ENT_SQL}
  GROUP BY doc_id, w
), df AS (
  SELECT term, count(*)::BIGINT AS df FROM m GROUP BY term
), scored AS (
  SELECT m.doc_id, m.term, m.tf, df.df,
         row_number() OVER (
           PARTITION BY m.doc_id
           ORDER BY m.tf * 1.0 / df.df DESC, m.term ASC
         ) AS rank
  FROM m JOIN df USING (term)
)
SELECT doc_id, term, tf, df, rank FROM scored WHERE rank <= 3
"""


def events_rate_spikes(sf_dir: str):
    """Hour-over-hour rate-spike detection per event type: n ≥ 2×previous
    adjacent hour (prev_n = −1 when the prior hour is empty). The hourly
    count table is a two-phase grouped count (the only corpus-scale
    exchange); the lag runs vectorized over that inherently small
    (types × hours) aggregate coalesced to one block."""
    ds = _pq(sf_dir, "events", ["ts", "event_type"])

    def to_hour(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {"event_type": b["event_type"],
             "hour": pc.divide(us, pa.scalar(3_600_000_000, pa.int64()))}
        )

    counts = partial_groupby_sum(
        ds.map_batches(to_hour, batch_format="pyarrow"),
        ["event_type", "hour"], {}, count_alias="n",
    )

    def spikes(b: pa.Table) -> pa.Table:
        b = b.take(pc.sort_indices(b, sort_keys=[("event_type", "ascending"),
                                                 ("hour", "ascending")]))
        n = np.asarray(b["n"].to_numpy(), np.int64)
        hour = b["hour"].to_numpy()
        # the previous row is the same type's adjacent hour
        adj = ~run_starts(b, ["event_type"])
        adj[1:] &= hour[:-1] == hour[1:] - 1
        prev_n = np.where(adj, np.roll(n, 1), -1)
        spike = adj & (n >= 2 * prev_n) & (prev_n > 0)
        return pa.table({"event_type": b["event_type"], "hour": b["hour"],
                         "n": pa.array(n), "prev_n": pa.array(prev_n),
                         "spike": pa.array(spike.astype(np.int64))})

    return counts.repartition(1).map_batches(
        spikes, batch_format="pyarrow", batch_size=None
    )


EVENTS_RATE_SPIKES_SQL = """
WITH c AS (
  SELECT event_type,
         CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
l AS (
  SELECT event_type, hour, n,
         lag(n) OVER (PARTITION BY event_type ORDER BY hour) AS pn,
         lag(hour) OVER (PARTITION BY event_type ORDER BY hour) AS ph
  FROM c)
SELECT event_type, hour, n,
       CAST(CASE WHEN ph = hour - 1 THEN pn ELSE -1 END AS BIGINT) AS prev_n,
       CAST(CASE WHEN ph = hour - 1 AND pn > 0 AND n >= 2 * pn
                 THEN 1 ELSE 0 END AS BIGINT) AS spike
FROM l
"""


def doc_lang_confusion(sf_dir: str):
    """Language-ID evaluation matrix (A5 eval-scoring analog): counts per
    (declared lang, predicted lang) — the LangId actor pool composed with
    a two-phase grouped count; the confusion matrix is
    dictionary-squared-scale."""
    from code_graph_rag_ray.stages.text_analysis import LangId

    ds = _pq(sf_dir, "documents", ["doc_id", "text", "lang"])
    pred = ds.map_batches(LangId, batch_format="pyarrow",
                          concurrency=2, num_cpus=1)
    return partial_groupby_sum(
        pred.select_columns(["lang", "lang_pred"]),
        ["lang", "lang_pred"], {}, count_alias="n",
    )


DOC_LANG_CONFUSION_SQL = f"""
SELECT d.lang, p.lang_pred, count(*)::BIGINT AS n
FROM documents d JOIN ({DOC_LANG_PRED_SQL.strip()}) p ON d.doc_id = p.doc_id
GROUP BY d.lang, p.lang_pred
"""


def events_funnel_strict(sf_dir: str):
    """Strict-order 3-step funnel view → click → purchase
    (stages/windows.strict_funnel): chained first-occurrence-after-prev
    per user, one key-hash bucket shuffle, vectorized inside buckets."""
    from code_graph_rag_ray.stages.windows import strict_funnel

    ds = _pq(sf_dir, "events", ["ts", "user_id", "event_type"])
    return strict_funnel(ds, ["view", "click", "purchase"])


EVENTS_FUNNEL_STRICT_SQL = """
WITH a AS (
  SELECT user_id, min(ts) AS t FROM events
  WHERE event_type = 'view' GROUP BY user_id),
b AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN a ON e.user_id = a.user_id
  WHERE e.event_type = 'click' AND e.ts > a.t GROUP BY e.user_id),
c AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN b ON e.user_id = b.user_id
  WHERE e.event_type = 'purchase' AND e.ts > b.t GROUP BY e.user_id)
SELECT '1_view' AS step, count(*)::BIGINT AS n_keys FROM a
UNION ALL SELECT '2_click', count(*)::BIGINT FROM b
UNION ALL SELECT '3_purchase', count(*)::BIGINT FROM c
"""


def events_bounce_rate(sf_dir: str):
    """Session bounce rollup: total sessions and single-event ("bounce")
    sessions — pure composition over the skew-safe chunked sessionizer,
    folded with a batch-local partial sum (integer counts only; the rate
    is the consumer's division)."""
    from code_graph_rag_ray.stages.windows import session_windows_chunked

    ds = _pq(sf_dir, "events", ["user_id", "ts"])
    sess = session_windows_chunked(ds, gap_s=1800)

    def tag(b: pa.Table) -> pa.Table:
        one = pc.cast(pc.equal(b["n_events"], 1), pa.int64())
        return pa.table(
            {"k": pa.array([0] * b.num_rows, pa.int64()),
             "s": pa.array(np.ones(b.num_rows, np.int64)), "b": one}
        )

    out = partial_groupby_sum(
        sess.map_batches(tag, batch_format="pyarrow", batch_size=None),
        ["k"], {"s": "n_sessions", "b": "n_bounce"},
    )
    return out.map_batches(
        lambda t: pa.table({"n_sessions": t["n_sessions"],
                            "n_bounce": t["n_bounce"]}),
        batch_format="pyarrow", batch_size=None,
    )


EVENTS_BOUNCE_RATE_SQL = """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
              THEN 1 ELSE 0 END AS ns
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts,
         sum(ns) OVER (PARTITION BY user_id ORDER BY ts
                       ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
), g AS (
  SELECT user_id, sid, count(*) AS n FROM s GROUP BY user_id, sid
)
SELECT CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounce
FROM g
"""


def customer_k_anonymity(sf_dir: str):
    """k-anonymity audit over the (nation, segment) quasi-identifier:
    combinations with fewer than 8 members are re-identification risks —
    one two-phase grouped count + an Arrow filter (the privacy-audit
    pre-release gate a curation pipeline runs before publishing)."""
    cust = _pq(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])
    counts = partial_groupby_sum(
        cust, ["c_nationkey", "c_mktsegment"], {}, count_alias="n"
    )
    def risky(b: pa.Table) -> pa.Table:
        f = b.filter(pc.less(b["n"], 8))
        # typed projection: an all-empty filter must not lose its schema
        return pa.table(
            {"c_nationkey": pc.cast(f["c_nationkey"], pa.int64()),
             "c_mktsegment": pc.cast(f["c_mktsegment"], pa.string()),
             "n": pc.cast(f["n"], pa.int64())}
        )

    # the violation set is dictionary-bounded (nations × segments) and can
    # be legitimately EMPTY at larger scales — where Ray's schema-less
    # empty blocks bypass the typed projection (NOTES fact 23) — so the
    # result lands as a schema-stable driver frame like the other
    # dictionary-scale audits
    df = counts.map_batches(
        risky, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    return _ensure_cols(df, {"c_nationkey": "int64",
                             "c_mktsegment": "object", "n": "int64"})


CUSTOMER_K_ANONYMITY_SQL = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, c_mktsegment,
       CAST(count(*) AS BIGINT) AS n
FROM customer GROUP BY c_nationkey, c_mktsegment
HAVING count(*) < 8
"""


def events_dow_hour_heatmap(sf_dir: str):
    """Traffic heatmap: event counts per (day-of-week, hour-of-day) —
    pure integer epoch arithmetic (dow 0=Monday via (days+3)%7 from the
    1970-01-01 Thursday anchor) folded two-phase, so the oracle replays
    the same closed form instead of trusting SQL calendar conventions."""
    ds = _pq(sf_dir, "events", ["ts"])

    def cells(b: pa.Table) -> pa.Table:
        s = pc.divide(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            pa.scalar(1_000_000, pa.int64()),
        )
        days = pc.divide(s, pa.scalar(86400, pa.int64()))
        dow = pc.subtract(
            pc.add(days, pa.scalar(3, pa.int64())),
            pc.multiply(
                pc.divide(pc.add(days, pa.scalar(3, pa.int64())),
                          pa.scalar(7, pa.int64())),
                pa.scalar(7, pa.int64()),
            ),
        )
        hod = pc.divide(
            pc.subtract(s, pc.multiply(days, pa.scalar(86400, pa.int64()))),
            pa.scalar(3600, pa.int64()),
        )
        return pa.table({"dow": dow, "hour_of_day": hod})

    return partial_groupby_sum(
        ds.map_batches(cells, batch_format="pyarrow"),
        ["dow", "hour_of_day"], {}, count_alias="n",
    )


EVENTS_DOW_HOUR_HEATMAP_SQL = """
WITH s AS (
  SELECT CAST(floor(epoch(ts)) AS BIGINT) AS sec FROM events),
c AS (
  SELECT (sec // 86400 + 3) % 7 AS dow,
         (sec % 86400) // 3600 AS hour_of_day
  FROM s)
SELECT CAST(dow AS BIGINT) AS dow,
       CAST(hour_of_day AS BIGINT) AS hour_of_day,
       CAST(count(*) AS BIGINT) AS n
FROM c GROUP BY dow, hour_of_day
"""


def nation_revenue_pareto(sf_dir: str):
    """Cumulative revenue share by nation (Pareto/ABC analysis): the
    distributed q5-style revenue aggregate ordered desc, with cumulative
    integer cents and the exact total carried per row (share = cum/total
    is the consumer's division; integers keep the oracle bit-exact). The
    cumulative pass runs on the 25-row aggregate — inherently tiny."""
    agg = q5_nation_revenue(sf_dir)  # (n_name, revenue) exact cents/100

    def pareto(b: pa.Table) -> pa.Table:
        import pandas as pd  # noqa: F811

        df = b.to_pandas().sort_values(
            ["revenue", "n_name"], ascending=[False, True]
        ).reset_index(drop=True)
        cents = (df["revenue"] * 100).round().astype("int64")
        return pa.table(
            {"n_name": pa.array(df["n_name"], pa.string()),
             "rev_c": pa.array(cents.to_numpy(), pa.int64()),
             "cum_rev_c": pa.array(cents.cumsum().to_numpy(), pa.int64()),
             "total_rev_c": pa.array(
                 np.full(len(df), cents.sum(), np.int64), pa.int64())}
        )

    return agg.repartition(1).map_batches(
        pareto, batch_format="pyarrow", batch_size=None
    )


NATION_REVENUE_PARETO_SQL = """
WITH r AS (
  SELECT n_name,
         round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
               * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 2)
           AS revenue
  FROM lineitem
  JOIN orders ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey = c_custkey
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation ON c_nationkey = n_nationkey
  WHERE c_nationkey = s_nationkey
  GROUP BY n_name),
c AS (
  SELECT n_name, CAST(round(revenue * 100) AS BIGINT) AS rev_c FROM r)
SELECT n_name, rev_c,
       CAST(sum(rev_c) OVER (ORDER BY rev_c DESC, n_name
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_rev_c,
       CAST(sum(rev_c) OVER () AS BIGINT) AS total_rev_c
FROM c
"""


def corpus_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth (stages/tfidf.vocab_growth): per
    document, how many corpus-new terms it introduces (term's first
    occurrence = min doc id) — per-batch Arrow min partials, term-hash
    bucket cogroup fold, two-phase per-doc count."""
    from code_graph_rag_ray.stages.tfidf import vocab_growth

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return vocab_growth(ds)


CORPUS_VOCAB_GROWTH_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
  FROM documents),
f AS (
  SELECT term, min(doc_id) AS first_doc
  FROM tok WHERE term <> '' GROUP BY term)
SELECT first_doc, CAST(count(*) AS BIGINT) AS n_new_terms
FROM f GROUP BY first_doc
"""


def doc_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix-C-style n-gram overlap):
    documents with ``doc_id % 31 == 0`` play the held-out eval set; every
    other document is flagged when any of its word 4-gram md5-low32
    shingles appears in the eval set's shingle vocabulary. One streaming
    corpus pass against a broadcast benchmark hash set — no shuffle
    (`stages/decontaminate.py`; md5 family so DuckDB replays the hashes
    bit-exactly)."""
    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.decontaminate import (
        benchmark_ngram_hashes,
        decontaminate,
    )

    def _mod31(b, keep_zero: bool):
        m = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 31), 31))
        return b.filter(pc.equal(m, 0) if keep_zero else pc.not_equal(m, 0))

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    bench = ds.map_batches(lambda b: _mod31(b, True), batch_format="pyarrow")
    bh = benchmark_ngram_hashes(bench, n=4, hash_family="md5")
    train = ds.map_batches(lambda b: _mod31(b, False), batch_format="pyarrow")
    return decontaminate(train, bh, n=4, hash_family="md5")


def corpus_wordpiece_vocab(sf_dir: str):
    """MaxMatch/WordPiece-style piece vocabulary: top-64 substrings
    (length 2-5) of the corpus's distinct words by occurrence-weighted
    frequency (≥ 5), ties broken by piece text — pure counting, so DuckDB
    replays it exactly (`stages/wordpiece.py`)."""
    from code_graph_rag_ray.stages.wordpiece import wordpiece_vocab

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return wordpiece_vocab(ds, lmax=5, min_freq=5, top_k=64)


def corpus_wordpiece_tokenize(sf_dir: str):
    """Greedy longest-match-first tokenization (the WordPiece inference
    rule) against the mined vocabulary: per-document word, subword-token
    and single-char-fallback counts. The oracle replays the greedy walk
    with a recursive CTE advancing by the longest matching piece."""
    from code_graph_rag_ray.stages.wordpiece import (
        wordpiece_tokenize,
        wordpiece_vocab,
    )

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    # the mined vocab is ≤ 64 rows by construction — bounded driver state
    vt = pa.Table.from_pylist(
        wordpiece_vocab(ds, lmax=5, min_freq=5, top_k=64).take_all(),
        schema=pa.schema([("piece", pa.string()), ("freq", pa.int64())]),
    )
    return wordpiece_tokenize(ds, vt, lmax=5)


_WP_VOCAB_CTES = """
WITH RECURSIVE tok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS word
  FROM documents),
tw AS (SELECT doc_id, word FROM tok WHERE word <> ''),
wcnt AS (SELECT word, CAST(count(*) AS BIGINT) AS wc FROM tw GROUP BY word),
pieces AS (
  SELECT substr(word, i, l) AS piece, CAST(sum(wc) AS BIGINT) AS freq
  FROM (
    SELECT word, wc, l, unnest(range(1, len(word) - l + 2)) AS i
    FROM (SELECT word, wc, unnest([2, 3, 4, 5]) AS l FROM wcnt)
    WHERE len(word) >= l)
  GROUP BY piece),
vocab AS (
  SELECT piece, freq FROM pieces WHERE freq >= 5
  ORDER BY freq DESC, piece ASC LIMIT 64)
"""

CORPUS_WORDPIECE_VOCAB_SQL = _WP_VOCAB_CTES + "SELECT piece, freq FROM vocab"

_WP_WALK_CTES = """,
dwords AS (SELECT DISTINCT word FROM tw),
walk AS (
  SELECT word, 1 AS pos, 0 AS ntok, 0 AS nfb FROM dwords
  UNION ALL
  SELECT word, pos + adv, ntok + 1,
         nfb + CASE WHEN adv = 1 THEN 1 ELSE 0 END
  FROM (
    SELECT w.word, w.pos, w.ntok, w.nfb,
           coalesce((SELECT max(len(v.piece)) FROM vocab v
                     WHERE len(v.piece) <= len(w.word) - w.pos + 1
                       AND substr(w.word, w.pos, len(v.piece)) = v.piece),
                    1) AS adv
    FROM walk w WHERE w.pos <= len(w.word))
),
fin AS (SELECT word, ntok, nfb FROM walk WHERE pos > len(word)),
per_doc AS (
  SELECT t.doc_id,
         CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(f.ntok) AS BIGINT) AS n_wp_tokens,
         CAST(sum(f.nfb) AS BIGINT) AS n_fallback
  FROM tw t JOIN fin f USING (word)
  GROUP BY t.doc_id)
"""

CORPUS_WORDPIECE_TOKENIZE_SQL = _WP_VOCAB_CTES + _WP_WALK_CTES + """
SELECT d.doc_id,
       coalesce(p.n_words, 0) AS n_words,
       coalesce(p.n_wp_tokens, 0) AS n_wp_tokens,
       coalesce(p.n_fallback, 0) AS n_fallback
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def corpus_wordpiece_fertility(sf_dir: str):
    """Per-language MaxMatch tokenizer fertility + fallback rate: the
    corpus_bpe_fertility twin for the WordPiece-style tokenizer, with the
    extra OOV-mass signal the char-fallback rule exposes —
    fallback_rate_micro = (10^6·Σfallback) // Σtokens. Pure BIGINT."""
    from code_graph_rag_ray.stages.relational import (
        adaptive_join,
        partial_groupby_sum,
    )
    from code_graph_rag_ray.stages.wordpiece import (
        wordpiece_tokenize,
        wordpiece_vocab,
    )

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    vt = pa.Table.from_pylist(
        wordpiece_vocab(docs, lmax=5, min_freq=5, top_k=64).take_all(),
        schema=pa.schema([("piece", pa.string()), ("freq", pa.int64())]),
    )
    tok = wordpiece_tokenize(docs, vt, lmax=5)
    langs = _pq(sf_dir, "documents", ["doc_id", "lang"])
    j = adaptive_join(
        tok, langs, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_words", pa.int64()),
                               ("n_wp_tokens", pa.int64()),
                               ("n_fallback", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("lang", pa.string())]),
    )

    def one(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "n_words": pa.array([], pa.int64()),
                             "n_wp_tokens": pa.array([], pa.int64()),
                             "n_fallback": pa.array([], pa.int64()),
                             "one": pa.array([], pa.int64())})
        return pa.table(
            {"lang": pc.cast(b["lang"], pa.string()),
             "n_words": pc.cast(b["n_words"], pa.int64()),
             "n_wp_tokens": pc.cast(b["n_wp_tokens"], pa.int64()),
             "n_fallback": pc.cast(b["n_fallback"], pa.int64()),
             "one": pa.array(np.ones(b.num_rows, np.int64))}
        )

    agg = partial_groupby_sum(
        j.map_batches(one, batch_format="pyarrow"),
        ["lang"],
        {"one": "n_docs", "n_words": "n_words",
         "n_wp_tokens": "n_wp_tokens", "n_fallback": "n_fallback"},
    )

    def fin(b: pa.Table) -> pa.Table:
        w = b["n_words"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b["n_wp_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        f = b["n_fallback"].to_numpy(zero_copy_only=False).astype(np.int64)
        fert = np.where(w > 0, (t * 10**6) // np.maximum(w, 1), 0)
        fbr = np.where(t > 0, (f * 10**6) // np.maximum(t, 1), 0)
        b = b.append_column("fertility_micro", pa.array(fert.astype(np.int64)))
        return b.append_column("fallback_rate_micro",
                               pa.array(fbr.astype(np.int64)))

    return agg.map_batches(fin, batch_format="pyarrow")


CORPUS_WORDPIECE_FERTILITY_SQL = _WP_VOCAB_CTES + _WP_WALK_CTES + """,
base AS (
  SELECT d.doc_id, d.lang,
         coalesce(p.n_words, 0) AS n_words,
         coalesce(p.n_wp_tokens, 0) AS n_wp_tokens,
         coalesce(p.n_fallback, 0) AS n_fallback
  FROM documents d LEFT JOIN per_doc p USING (doc_id))
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS n_words,
       CAST(sum(n_wp_tokens) AS BIGINT) AS n_wp_tokens,
       CAST(sum(n_fallback) AS BIGINT) AS n_fallback,
       CAST(CASE WHEN sum(n_words) > 0
                 THEN (1000000::HUGEINT * sum(n_wp_tokens)) // sum(n_words)
                 ELSE 0 END AS BIGINT) AS fertility_micro,
       CAST(CASE WHEN sum(n_wp_tokens) > 0
                 THEN (1000000::HUGEINT * sum(n_fallback)) // sum(n_wp_tokens)
                 ELSE 0 END AS BIGINT) AS fallback_rate_micro
FROM base GROUP BY lang
"""


def corpus_unigram_vocab(sf_dir: str):
    """Unigram-LM (SentencePiece-style) piece table: every single
    character (coverage set, unconditional) + top-64 length-2..5
    substrings by occurrence-weighted frequency (≥ 5) — pure counting,
    bit-exact in DuckDB (`stages/unigram.py`)."""
    from code_graph_rag_ray.stages.unigram import unigram_vocab

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return unigram_vocab(ds, lmax=5, min_freq=5, top_k=64)


def _unigram_vt(sf_dir: str) -> pa.Table:
    from code_graph_rag_ray.stages.unigram import unigram_vocab

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    # singles (≤ alphabet) + 64 multis — bounded driver state by design
    return pa.Table.from_pylist(
        unigram_vocab(ds, lmax=5, min_freq=5, top_k=64).take_all(),
        schema=pa.schema([("piece", pa.string()), ("freq", pa.int64())]),
    )


def corpus_unigram_tokenize(sf_dir: str):
    """Viterbi maximum-likelihood tokenization (the unigram-LM inference
    rule): per-document word and piece counts. The oracle replays the DP
    bit-exactly with a bounded-width recursive CTE — the last lmax DP
    scores ride as carried columns, both sides accumulate dp[j−l] +
    ln(freq/total) with identical association and break ties toward the
    shortest last piece (NOTES.md fact 30, extended from greedy walks to
    DP)."""
    from code_graph_rag_ray.stages.unigram import unigram_tokenize

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    return unigram_tokenize(ds, _unigram_vt(sf_dir), lmax=5)


def corpus_unigram_fertility(sf_dir: str):
    """Per-language unigram-LM tokenizer fertility — the
    corpus_wordpiece_fertility twin for the Viterbi tokenizer:
    fertility_micro = (10^6·Σpieces) // Σwords. Pure BIGINT."""
    from code_graph_rag_ray.stages.relational import (
        adaptive_join,
        partial_groupby_sum,
    )
    from code_graph_rag_ray.stages.unigram import unigram_tokenize

    docs = _pq(sf_dir, "documents", ["doc_id", "text"])
    tok = unigram_tokenize(docs, _unigram_vt(sf_dir), lmax=5)
    langs = _pq(sf_dir, "documents", ["doc_id", "lang"])
    j = adaptive_join(
        tok, langs, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_words", pa.int64()),
                               ("n_ug_pieces", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("lang", pa.string())]),
    )

    def one(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "n_words": pa.array([], pa.int64()),
                             "n_ug_pieces": pa.array([], pa.int64()),
                             "one": pa.array([], pa.int64())})
        return pa.table(
            {"lang": pc.cast(b["lang"], pa.string()),
             "n_words": pc.cast(b["n_words"], pa.int64()),
             "n_ug_pieces": pc.cast(b["n_ug_pieces"], pa.int64()),
             "one": pa.array(np.ones(b.num_rows, np.int64))}
        )

    agg = partial_groupby_sum(
        j.map_batches(one, batch_format="pyarrow"),
        ["lang"],
        {"one": "n_docs", "n_words": "n_words",
         "n_ug_pieces": "n_ug_pieces"},
    )

    def fin(b: pa.Table) -> pa.Table:
        w = b["n_words"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b["n_ug_pieces"].to_numpy(zero_copy_only=False).astype(np.int64)
        fert = np.where(w > 0, (t * 10**6) // np.maximum(w, 1), 0)
        return b.append_column("fertility_micro",
                               pa.array(fert.astype(np.int64)))

    return agg.map_batches(fin, batch_format="pyarrow")


_UG_VOCAB_CTES = """
WITH RECURSIVE tok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS word
  FROM documents),
tw AS (SELECT doc_id, word FROM tok WHERE word <> ''),
wcnt AS (SELECT word, CAST(count(*) AS BIGINT) AS wc FROM tw GROUP BY word),
pieces AS (
  SELECT substr(word, i, l) AS piece, CAST(sum(wc) AS BIGINT) AS freq
  FROM (
    SELECT word, wc, l, unnest(range(1, len(word) - l + 2)) AS i
    FROM (SELECT word, wc, unnest([1, 2, 3, 4, 5]) AS l FROM wcnt)
    WHERE len(word) >= l)
  GROUP BY piece),
vocab AS (
  SELECT piece, freq FROM pieces WHERE len(piece) = 1
  UNION ALL
  SELECT piece, freq FROM (
    SELECT piece, freq FROM pieces WHERE len(piece) >= 2 AND freq >= 5
    ORDER BY freq DESC, piece ASC LIMIT 64))
"""

CORPUS_UNIGRAM_VOCAB_SQL = _UG_VOCAB_CTES + "SELECT piece, freq FROM vocab"

# Viterbi DP as a bounded-width recursive CTE: pos strictly advances
# (termination); d0..d4 carry dp[pos]..dp[pos-4], k0..k4 the piece counts
# of those DP states. c_l = dp[pos+1-l] + lp(piece ending at pos+1), NULL
# exactly when the lookback is out of range (the carried column is NULL)
# or the piece is OOV; single-char coverage keeps c1 always live. The
# smallest l whose candidate equals the max wins ties — the engine's
# ascending-l strictly-greater scan picks the same l.
_UG_WALK_CTES = """,
lpv AS (
  SELECT piece,
         ln(CAST(freq AS DOUBLE))
           - ln(CAST((SELECT sum(freq) FROM vocab) AS DOUBLE)) AS lp
  FROM vocab),
dwords AS (SELECT DISTINCT word FROM tw),
walk AS (
  SELECT word, 0 AS pos,
         CAST(0 AS DOUBLE) AS d0, CAST(NULL AS DOUBLE) AS d1,
         CAST(NULL AS DOUBLE) AS d2, CAST(NULL AS DOUBLE) AS d3,
         CAST(NULL AS DOUBLE) AS d4,
         0 AS k0, 0 AS k1, 0 AS k2, 0 AS k3, 0 AS k4
  FROM dwords
  UNION ALL
  SELECT word, pos + 1,
         best_s, d0, d1, d2, d3,
         CASE best_l WHEN 1 THEN k0 WHEN 2 THEN k1 WHEN 3 THEN k2
                     WHEN 4 THEN k3 ELSE k4 END + 1,
         k0, k1, k2, k3
  FROM (
    SELECT word, pos, d0, d1, d2, d3, d4, k0, k1, k2, k3, k4,
           greatest(c1, c2, c3, c4, c5) AS best_s,
           CASE WHEN c1 = greatest(c1, c2, c3, c4, c5) THEN 1
                WHEN c2 = greatest(c1, c2, c3, c4, c5) THEN 2
                WHEN c3 = greatest(c1, c2, c3, c4, c5) THEN 3
                WHEN c4 = greatest(c1, c2, c3, c4, c5) THEN 4
                ELSE 5 END AS best_l
    FROM (
      SELECT w.word, w.pos, w.d0, w.d1, w.d2, w.d3, w.d4,
             w.k0, w.k1, w.k2, w.k3, w.k4,
             coalesce(w.d0 + (SELECT lp FROM lpv v
                              WHERE v.piece = substr(w.word, w.pos + 1, 1)),
                      -1e308) AS c1,
             coalesce(w.d1 + (SELECT lp FROM lpv v
                              WHERE v.piece = substr(w.word, w.pos, 2)),
                      -1e308) AS c2,
             coalesce(w.d2 + (SELECT lp FROM lpv v
                              WHERE v.piece = substr(w.word, w.pos - 1, 3)),
                      -1e308) AS c3,
             coalesce(w.d3 + (SELECT lp FROM lpv v
                              WHERE v.piece = substr(w.word, w.pos - 2, 4)),
                      -1e308) AS c4,
             coalesce(w.d4 + (SELECT lp FROM lpv v
                              WHERE v.piece = substr(w.word, w.pos - 3, 5)),
                      -1e308) AS c5
      FROM walk w WHERE w.pos < len(w.word)))
),
fin AS (SELECT word, k0 AS np FROM walk WHERE pos = len(word)),
per_doc AS (
  SELECT t.doc_id,
         CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(f.np) AS BIGINT) AS n_ug_pieces
  FROM tw t JOIN fin f USING (word)
  GROUP BY t.doc_id)
"""

CORPUS_UNIGRAM_TOKENIZE_SQL = _UG_VOCAB_CTES + _UG_WALK_CTES + """
SELECT d.doc_id,
       coalesce(p.n_words, 0) AS n_words,
       coalesce(p.n_ug_pieces, 0) AS n_ug_pieces
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""

CORPUS_UNIGRAM_FERTILITY_SQL = _UG_VOCAB_CTES + _UG_WALK_CTES + """,
base AS (
  SELECT d.doc_id, d.lang,
         coalesce(p.n_words, 0) AS n_words,
         coalesce(p.n_ug_pieces, 0) AS n_ug_pieces
  FROM documents d LEFT JOIN per_doc p USING (doc_id))
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS n_words,
       CAST(sum(n_ug_pieces) AS BIGINT) AS n_ug_pieces,
       CAST(CASE WHEN sum(n_words) > 0
                 THEN (1000000::HUGEINT * sum(n_ug_pieces)) // sum(n_words)
                 ELSE 0 END AS BIGINT) AS fertility_micro
FROM base GROUP BY lang
"""


def doc_decontaminate_fast(sf_dir: str):
    """Benchmark decontamination on the PRODUCTION hash family (dict-encoded
    siphash n-gram combine — the vectorized path `decontaminate` defaults
    to). Rows-only by design: siphash isn't replayable in SQL;
    `doc_decontaminate` (md5 family, same code path) carries the bit-exact
    oracle, and a pytest pins flag/count parity between the families."""
    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.decontaminate import (
        benchmark_ngram_hashes,
        decontaminate,
    )

    def _mod31(b, keep_zero: bool):
        m = pc.subtract(b["doc_id"], pc.multiply(pc.divide(b["doc_id"], 31), 31))
        return b.filter(pc.equal(m, 0) if keep_zero else pc.not_equal(m, 0))

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])
    bench = ds.map_batches(lambda b: _mod31(b, True), batch_format="pyarrow")
    bh = benchmark_ngram_hashes(bench, n=4, hash_family="fast")
    train = ds.map_batches(lambda b: _mod31(b, False), batch_format="pyarrow")
    return decontaminate(train, bh, n=4, hash_family="fast")


DOC_DECONTAMINATE_SQL = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
sh AS (
  SELECT doc_id,
         ('0x' || substr(md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3]), 1, 8))::UBIGINT::BIGINT AS h
  FROM (SELECT doc_id, t, unnest(range(1, len(t) - 2)) AS i
        FROM toks WHERE len(t) >= 4)
  UNION ALL
  SELECT d.doc_id, ('0x' || substr(md5(d.text), 1, 8))::UBIGINT::BIGINT AS h
  FROM documents d JOIN toks USING (doc_id) WHERE len(toks.t) < 4
),
bench AS (SELECT DISTINCT h FROM sh WHERE doc_id % 31 = 0)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_shingles,
       CAST(count(*) FILTER (WHERE h IN (SELECT h FROM bench)) AS BIGINT) AS n_hits,
       (count(*) FILTER (WHERE h IN (SELECT h FROM bench)) > 0) AS contaminated
FROM sh WHERE doc_id % 31 <> 0
GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# Insertion order is deliberate: the driver's correctness gate checks the
# FIRST 50 entries. Rounds 1-3 drove 102 of the catalog green; this round
# ROTATES the window onto the 48 oracle-backed queries that have never had
# a driver CORRECTNESS row (plus the two flagship anchors), so driver
# evidence accumulates across rounds instead of re-proving the same 50.
# Everything below position 50 was driver-green in r01-r03 or is covered
# by tools/check_oracles.py --exact --physical (the driver-equivalent
# sweep).
QUERIES = {
    # ------ driver 50-entry window (exactly 50 entries, ALL oracle- ------
    # ------ backed; rows-only entries live below the boundary) ------
    # r05 focus: the 19 queries never driver-checked in r01-r04 (each
    # pre-verified locally via tools/check_oracles.py --physical)
    "page_manifest": page_manifest,
    "ext_packages": ext_packages,
    "nation_revenue_pareto": nation_revenue_pareto,
    "doc_minhash_sig": doc_minhash_sig,
    "doc_top_by_lang": doc_top_by_lang,
    "page_deps": page_deps,
    "doc_split": doc_split,
    "doc_sample_weighted": doc_sample_weighted,
    "doc_chunks": doc_chunks,
    "events_user_history": events_user_history,
    "corpus_bigrams": corpus_bigrams,
    "events_value_quantiles_by_type": events_value_quantiles_by_type,
    "doc_decontaminate": doc_decontaminate,
    "kg_induced_schema": kg_induced_schema,
    "kg_edge_diff": kg_edge_diff,
    "kg_path_2hop": kg_path_2hop,
    "corpus_wordpiece_vocab": corpus_wordpiece_vocab,
    "corpus_wordpiece_tokenize": corpus_wordpiece_tokenize,
    "corpus_wordpiece_fertility": corpus_wordpiece_fertility,
    # r05 new operators (one anchor moved below the boundary per addition
    # to keep the window at exactly 50)
    "kg_path_khop": kg_path_khop,
    "kg_reachable_k3": kg_reachable_k3,
    "corpus_unigram_vocab": corpus_unigram_vocab,
    "corpus_unigram_tokenize": corpus_unigram_tokenize,
    "corpus_unigram_fertility": corpus_unigram_fertility,
    "kg_fact_fusion": kg_fact_fusion,
    "warc_pages": warc_pages,
    "kg_edge_diff_ckpt": kg_edge_diff_ckpt,
    "kg_organic_pr": kg_organic_pr,
    "kg_ego_subgraph": kg_ego_subgraph,
    "kg_path_varlen": kg_path_varlen,
    "events_value_hdr": events_value_hdr,
    # anchors: driver-green in earlier rounds, re-proved every session
    "kg_doc_triples": kg_doc_triples,
    "kg_fixture_pr": kg_fixture_pr,
    "kg_host_prior_gain": kg_host_prior_gain,
    "kg_precise_tier_gain": kg_precise_tier_gain,
    "q1_pricing_summary": q1_pricing_summary,
    "q3_top_revenue_orders": q3_top_revenue_orders,
    "q5_nation_revenue": q5_nation_revenue,
    "q18_large_volume_customers": q18_large_volume_customers,
    "doc_semdedup": doc_semdedup,
    "doc_minhash_dedup_apply": doc_minhash_dedup_apply,
    "doc_components": doc_components,
    "doc_dsir_scores": doc_dsir_scores,
    "events_attribution": events_attribution,
    "events_session_assign": events_session_assign,
    "events_sessions": events_sessions,
    "page_ppr": page_ppr,
    "page_communities": page_communities,
    "doc_simhash": doc_simhash,
    "doc_global_rank": doc_global_rank,
    # ------- end of the driver's 50-entry window (exactly 50 above) -------
    "events_value_hdr_by_type": events_value_hdr_by_type,
    "customer_record_linkage": customer_record_linkage,
    "corpus_bpe_tokenize": corpus_bpe_tokenize,
    "doc_pack_bpe": doc_pack_bpe,
    "hybrid_retrieval": hybrid_retrieval,
    "doc_tfidf_topk": doc_tfidf_topk,
    "cooccur_clustering": cooccur_clustering,
    "doc_embedding_vectors": doc_embedding_vectors,
    "knn_brute": knn_brute,
    "doc_para_dedup_apply": doc_para_dedup_apply,
    "doc_scrub_pii": doc_scrub_pii,
    # driver-green in r01-r04 (see CORRECTNESS_r0*.json); the oracle
    # sweep re-proves them every session:
    "page_bfs_hops": page_bfs_hops,
    "doc_exact_dup_clusters": doc_exact_dup_clusters,
    "events_scd2": events_scd2,
    "events_debounce": events_debounce,
    "events_funnel_strict": events_funnel_strict,
    "events_bounce_rate": events_bounce_rate,
    "events_cohort_retention": events_cohort_retention,
    "events_hourly_top_types": events_hourly_top_types,
    "events_heavy_users": events_heavy_users,
    "events_rate_spikes": events_rate_spikes,
    "events_decayed_score": events_decayed_score,
    "events_dow_hour_heatmap": events_dow_hour_heatmap,
    "events_user_hll": events_user_hll,
    "events_user_cms": events_user_cms,
    "events_value_quantiles": events_value_quantiles,
    "doc_percent_rank": doc_percent_rank,
    "doc_mad_outliers": doc_mad_outliers,
    "orders_trimmed_mean": orders_trimmed_mean,
    "doc_split_leaks": doc_split_leaks,
    "doc_sample_stratified": doc_sample_stratified,
    "doc_split_by_source": doc_split_by_source,
    "customer_k_anonymity": customer_k_anonymity,
    "lineitem_unpivot": lineitem_unpivot,
    "doc_inverted_index": doc_inverted_index,
    "corpus_vocab_growth": corpus_vocab_growth,
    "source_trigram_diversity": source_trigram_diversity,
    "doc_lang_confusion": doc_lang_confusion,
    "corpus_bpe_fertility": corpus_bpe_fertility,
    "doc_pack_sequences": doc_pack_sequences,
    "knn_hard_negatives": knn_hard_negatives,
    "doc_kmeans": doc_kmeans,
    "doc_jaccard_pairs": doc_jaccard_pairs,
    "doc_shuffle_rank": doc_shuffle_rank,
    "doc_cooccurrence": doc_cooccurrence,
    "cooccur_triangles": cooccur_triangles,
    "page_community_terms": page_community_terms,
    "kg_doc_nodes": kg_doc_nodes,
    "kg_typed_nodes": kg_typed_nodes,
    "kg_edge_violations": kg_edge_violations,
    "kg_mined_aliases": kg_mined_aliases,
    "kg_negative_samples": kg_negative_samples,
    "kg_entity_timeline": kg_entity_timeline,
    "kg_live_nodes": kg_live_nodes,
    "kg_dead_nodes": kg_dead_nodes,
    "kg_entity_salience": kg_entity_salience,
    "page_extract_text": page_extract_text,
    "page_hosts": page_hosts,
    "page_structure": page_structure,
    "page_links": page_links,
    "page_links_internal": page_links_internal,
    "page_links_normalized": page_links_normalized,
    "page_ext_sites": page_ext_sites,
    "page_anchor_summary": page_anchor_summary,
    "page_rank": page_rank,
    "page_hits": page_hits,
    "page_degree": page_degree,
    "page_cocitation": page_cocitation,
    "page_neighbor_agg": page_neighbor_agg,
    "page_sssp": page_sssp,
    "orders_rollup": orders_rollup,
    "orders_cube": orders_cube,
    "events_customer_outer": events_customer_outer,
    "q10_returned_items": q10_returned_items,
    "q12_priority_by_returnflag": q12_priority_by_returnflag,
    "customer_name_ed1": customer_name_ed1,
    "corpus_bpe_merges": corpus_bpe_merges,
    "doc_minhash_pairs": doc_minhash_pairs,
    "doc_simhash_pairs": doc_simhash_pairs,
    "doc_jaccard_join": doc_jaccard_join,
    "doc_para_dedup": doc_para_dedup,
    "doc_boilerplate": doc_boilerplate,
    "doc_dup_spans_apply": doc_dup_spans_apply,
    "doc_source_mix": doc_source_mix,
    "events_transitions": events_transitions,
    "doc_bm25_topk": doc_bm25_topk,
    "doc_dup_spans": doc_dup_spans,
    "q4_status_revenue": q4_status_revenue,
    "orders_by_priority": orders_by_priority,
    "parts_by_brand": parts_by_brand,
    "nations_per_region": nations_per_region,
    "top10_customers": top10_customers,
    "distinct_mktsegments": distinct_mktsegments,
    "orders_bloom_building": orders_bloom_building,
    "orders_anti_building": orders_anti_building,
    "doc_pivot_sources": doc_pivot_sources,
    "events_hourly": events_hourly,
    "events_sliding_hour": events_sliding_hour,
    "events_running_total": events_running_total,
    "events_user_mode": events_user_mode,
    "events_type_distinct_users": events_type_distinct_users,
    "events_salted_segment_counts": events_salted_segment_counts,
    "doc_profile": doc_profile,
    "doc_reservoir_per_lang": doc_reservoir_per_lang,
    "cooccur_kcore": cooccur_kcore,
    "events_value_variance": events_value_variance,
    "media_frames": media_frames,
    "doc_curation_funnel": doc_curation_funnel,
    "doc_len_quantiles_cont": doc_len_quantiles_cont,
    "events_attribution_recent": events_attribution_recent,
    "events_lag": events_lag,
    "doc_ntile_deciles": doc_ntile_deciles,
    "events_lead": events_lead,
    "doc_snapshot_diff": doc_snapshot_diff,
    "media_thumbs": media_thumbs,
    "doc_mentions": doc_mentions,
    "doc_triples": doc_triples,
    "doc_token_stats": doc_token_stats,
    "doc_quality": doc_quality,
    "doc_fingerprint": doc_fingerprint,
    "doc_findings": doc_findings,
    "doc_repetition": doc_repetition,
    "doc_len_quantiles": doc_len_quantiles,
    "doc_lm_score": doc_lm_score,
    "events_hopping": events_hopping,
    "corpus_top_terms": corpus_top_terms,
    "doc_lang_counts": doc_lang_counts,
    "doc_lang_pred": doc_lang_pred,
    # rows-only (no SQL-expressible oracle; semantics pinned in tests/)
    # and production (siphash) hash twins -- md5 twins above carry the
    # bit-exact oracles; pytest pins cross-family structural parity
    "kg_robustness_curve": kg_robustness_curve,
    "kg_organic_robustness": kg_organic_robustness,
    "doc_embeddings": doc_embeddings,
    "doc_spectral_embeddings": doc_spectral_embeddings,
    "embedding_dup_pairs": embedding_dup_pairs,
    "knn_lsh_recall": knn_lsh_recall,
    "knn_ivf_recall": knn_ivf_recall,
    "media_features": media_features,
    "doc_compression": doc_compression,
    "doc_minhash_pairs_fast": doc_minhash_pairs_fast,
    "doc_simhash_pairs_fast": doc_simhash_pairs_fast,
    "doc_dup_spans_fast": doc_dup_spans_fast,
    "doc_decontaminate_fast": doc_decontaminate_fast,
}

MEDIA_FRAMES_SQL = """
WITH v AS (
  SELECT 'm' || CAST(doc_id AS VARCHAR) AS media_id,
         100 + (doc_id * 997) % 59900 AS dur
  FROM documents WHERE doc_id % 3 = 2),
c AS (
  SELECT media_id, dur, (dur + 999) // 1000 AS ncand FROM v),
f AS (
  SELECT media_id, dur, ncand,
         unnest(generate_series(0, least(ncand, 16) - 1)) AS j
  FROM c)
SELECT media_id, CAST(j AS BIGINT) AS frame_idx,
       CAST(CASE WHEN ncand <= 16 THEN j * 1000
                 ELSE ((j * (ncand - 1)) // 15) * 1000 END AS BIGINT) AS ts_ms
FROM f
"""

MEDIA_THUMBS_SQL = """
WITH i AS (
  SELECT 'm' || CAST(doc_id AS VARCHAR) AS media_id,
         16 + (doc_id * 37) % 1904 AS w,
         16 + (doc_id * 53) % 1064 AS h
  FROM documents WHERE doc_id % 3 = 0),
o AS (
  SELECT media_id, w, h,
         CASE WHEN greatest(w, h) <= 64 THEN w
              WHEN w >= h THEN 64
              ELSE greatest(1, (w * 64) // h) END AS ow,
         CASE WHEN greatest(w, h) <= 64 THEN h
              WHEN w >= h THEN greatest(1, (h * 64) // w)
              ELSE 64 END AS oh
  FROM i)
SELECT media_id, CAST(w AS BIGINT) AS in_w, CAST(h AS BIGINT) AS in_h,
       CAST(ow AS BIGINT) AS out_w, CAST(oh AS BIGINT) AS out_h,
       CAST(ow * oh AS BIGINT) AS thumb_bytes
FROM o
"""

ORACLES = {
    "events_value_quantiles": EVENTS_VALUE_QUANTILES_SQL,
    "media_frames": MEDIA_FRAMES_SQL,
    "media_thumbs": MEDIA_THUMBS_SQL,
    "q10_returned_items": Q10_SQL,
    "q12_priority_by_returnflag": Q12_SQL,
    "page_neighbor_agg": PAGE_NEIGHBOR_AGG_SQL,
    "corpus_bigrams": CORPUS_BIGRAMS_SQL,
    "page_communities": PAGE_COMMUNITIES_SQL,
    "corpus_bpe_merges": CORPUS_BPE_MERGES_SQL,
    "doc_bm25_topk": DOC_BM25_TOPK_SQL,
    "page_community_terms": PAGE_COMMUNITY_TERMS_SQL,
    "hybrid_retrieval": HYBRID_RETRIEVAL_SQL,
    "corpus_bpe_tokenize": CORPUS_BPE_TOKENIZE_SQL,
    "customer_record_linkage": CUSTOMER_RECORD_LINKAGE_SQL,
    "cooccur_clustering": COOCCUR_CLUSTERING_SQL,
    "page_ppr": PAGE_PPR_SQL,
    "lineitem_unpivot": LINEITEM_UNPIVOT_SQL,
    "corpus_bpe_fertility": CORPUS_BPE_FERTILITY_SQL,
    "knn_hard_negatives": KNN_HARD_NEGATIVES_SQL,
    "events_decayed_score": EVENTS_DECAYED_SCORE_SQL,
    "source_trigram_diversity": SOURCE_TRIGRAM_DIVERSITY_SQL,
    "doc_pack_bpe": DOC_PACK_BPE_SQL,
    "events_value_quantiles_by_type": EVENTS_VALUE_QUANTILES_BY_TYPE_SQL,
    "doc_percent_rank": DOC_PERCENT_RANK_SQL,
    "doc_jaccard_join": DOC_JACCARD_JOIN_SQL,
    "doc_para_dedup_apply": DOC_PARA_DEDUP_APPLY_SQL,
    "kg_entity_salience": KG_ENTITY_SALIENCE_SQL,
    "events_rate_spikes": EVENTS_RATE_SPIKES_SQL,
    "doc_lang_confusion": DOC_LANG_CONFUSION_SQL,
    "events_funnel_strict": EVENTS_FUNNEL_STRICT_SQL,
    "events_bounce_rate": EVENTS_BOUNCE_RATE_SQL,
    "customer_k_anonymity": CUSTOMER_K_ANONYMITY_SQL,
    "events_dow_hour_heatmap": EVENTS_DOW_HOUR_HEATMAP_SQL,
    "nation_revenue_pareto": NATION_REVENUE_PARETO_SQL,
    "corpus_vocab_growth": CORPUS_VOCAB_GROWTH_SQL,
    "doc_para_dedup": DOC_PARA_DEDUP_SQL,
    "doc_boilerplate": DOC_BOILERPLATE_SQL,
    "events_transitions": EVENTS_TRANSITIONS_SQL,
    "doc_split_by_source": DOC_SPLIT_BY_SOURCE_SQL,
    "doc_mad_outliers": DOC_MAD_OUTLIERS_SQL,
    "q1_pricing_summary": Q1_SQL,
    "q3_top_revenue_orders": Q3_SQL,
    "q4_status_revenue": Q4_SQL,
    "q5_nation_revenue": Q5_SQL,
    "orders_by_priority": ORDERS_PRIORITY_SQL,
    "parts_by_brand": PARTS_BY_BRAND_SQL,
    "nations_per_region": NATIONS_PER_REGION_SQL,
    "top10_customers": TOP10_CUSTOMERS_SQL,
    "distinct_mktsegments": DISTINCT_MKTSEG_SQL,
    "orders_bloom_building": ORDERS_BLOOM_SQL,
    "orders_anti_building": ORDERS_ANTI_BUILDING_SQL,
    "orders_rollup": ORDERS_ROLLUP_SQL,
    "doc_pivot_sources": DOC_PIVOT_SOURCES_SQL,
    "events_hourly": EVENTS_HOURLY_SQL,
    "events_sliding_hour": EVENTS_SLIDING_HOUR_SQL,
    "events_running_total": EVENTS_RUNNING_TOTAL_SQL,
    "events_user_mode": EVENTS_USER_MODE_SQL,
    "doc_dup_spans": DOC_DUP_SPANS_SQL,
    "events_customer_outer": EVENTS_CUSTOMER_OUTER_SQL,
    "events_type_distinct_users": EVENTS_TYPE_DISTINCT_USERS_SQL,
    "orders_cube": ORDERS_CUBE_SQL,
    "events_salted_segment_counts": EVENTS_SALTED_SEGMENT_COUNTS_SQL,
    "doc_profile": DOC_PROFILE_SQL,
    "page_bfs_hops": PAGE_BFS_HOPS_SQL,
    "doc_reservoir_per_lang": DOC_RESERVOIR_PER_LANG_SQL,
    "cooccur_kcore": COOCCUR_KCORE_SQL,
    "events_value_variance": EVENTS_VALUE_VARIANCE_SQL,
    "doc_curation_funnel": DOC_CURATION_FUNNEL_SQL,
    "doc_len_quantiles_cont": DOC_LEN_QUANTILES_CONT_SQL,
    "events_attribution_recent": EVENTS_ATTRIBUTION_RECENT_SQL,
    "events_lag": EVENTS_LAG_SQL,
    "doc_ntile_deciles": DOC_NTILE_DECILES_SQL,
    "events_lead": EVENTS_LEAD_SQL,
    "doc_snapshot_diff": DOC_SNAPSHOT_DIFF_SQL,
    "events_sessions": EVENTS_SESSIONS_SQL,
    "events_debounce": EVENTS_DEBOUNCE_SQL,
    "doc_pack_sequences": DOC_PACK_SEQUENCES_SQL,
    "doc_chunks": DOC_CHUNKS_SQL,
    "events_user_history": EVENTS_USER_HISTORY_SQL,
    "events_heavy_users": EVENTS_HEAVY_USERS_SQL,
    "kg_mined_aliases": KG_MINED_ALIASES_SQL,
    "kg_negative_samples": KG_NEGATIVE_SAMPLES_SQL,
    "kg_entity_timeline": KG_ENTITY_TIMELINE_SQL,
    "page_sssp": PAGE_SSSP_SQL,
    "events_scd2": EVENTS_SCD2_SQL,
    "q18_large_volume_customers": Q18_SQL,
    "customer_name_ed1": CUSTOMER_NAME_ED1_SQL,
    "kg_live_nodes": KG_LIVE_NODES_SQL,
    "events_hourly_top_types": EVENTS_HOURLY_TOP_TYPES_SQL,
    "kg_dead_nodes": KG_DEAD_NODES_SQL,
    "events_cohort_retention": EVENTS_COHORT_RETENTION_SQL,
    "orders_trimmed_mean": ORDERS_TRIMMED_MEAN_SQL,
    "doc_mentions": DOC_MENTIONS_SQL,
    "doc_triples": DOC_TRIPLES_SQL,
    "doc_token_stats": DOC_TOKEN_STATS_SQL,
    "doc_quality": DOC_QUALITY_SQL,
    "doc_fingerprint": DOC_FINGERPRINT_SQL,
    "doc_findings": DOC_FINDINGS_SQL,
    "doc_repetition": DOC_REPETITION_SQL,
    "doc_scrub_pii": DOC_SCRUB_PII_SQL,
    "doc_len_quantiles": DOC_LEN_QUANTILES_SQL,
    "doc_lm_score": DOC_LM_SCORE_SQL,
    "events_hopping": EVENTS_HOPPING_SQL,
    "corpus_top_terms": CORPUS_TOP_TERMS_SQL,
    "doc_exact_dup_clusters": DOC_EXACT_DUP_SQL,
    "doc_jaccard_pairs": DOC_JACCARD_PAIRS_SQL,
    "doc_lang_counts": DOC_LANG_COUNTS_SQL,
    "knn_brute": KNN_BRUTE_SQL,
    "kg_doc_triples": KG_DOC_TRIPLES_SQL,
    "kg_doc_nodes": KG_DOC_NODES_SQL,
    "kg_typed_nodes": KG_TYPED_NODES_SQL,
    "kg_edge_violations": KG_EDGE_VIOLATIONS_SQL,
    "page_hosts": PAGE_HOSTS_SQL,
    "page_extract_text": PAGE_EXTRACT_TEXT_SQL,
    "page_structure": PAGE_STRUCTURE_SQL,
    "page_links": PAGE_LINKS_SQL,
    "page_links_internal": PAGE_LINKS_INTERNAL_SQL,
    "page_ext_sites": PAGE_EXT_SITES_SQL,
    "page_links_normalized": PAGE_LINKS_NORMALIZED_SQL,
    "page_anchor_summary": PAGE_ANCHOR_SUMMARY_SQL,
    "page_rank": PAGE_RANK_SQL,
    "page_hits": PAGE_HITS_SQL,
    "page_cocitation": PAGE_COCITATION_SQL,
    "page_degree": PAGE_DEGREE_SQL,
    "doc_top_by_lang": DOC_TOP_BY_LANG_SQL,
    "doc_global_rank": DOC_GLOBAL_RANK_SQL,
    "doc_components": DOC_COMPONENTS_SQL,
    "doc_cooccurrence": DOC_COOCCURRENCE_SQL,
    "events_user_hll": EVENTS_USER_HLL_SQL,
    "events_user_cms": EVENTS_USER_CMS_SQL,
    "cooccur_triangles": COOCCUR_TRIANGLES_SQL,
    "doc_minhash_sig": DOC_MINHASH_SIG_SQL,
    "doc_minhash_pairs": DOC_MINHASH_PAIRS_SQL,
    "doc_minhash_dedup_apply": DOC_MINHASH_DEDUP_APPLY_SQL,
    "doc_semdedup": DOC_SEMDEDUP_SQL,
    "doc_dup_spans_apply": DOC_DUP_SPANS_APPLY_SQL,
    "doc_source_mix": DOC_SOURCE_MIX_SQL,
    "doc_dsir_scores": DOC_DSIR_SCORES_SQL,
    "doc_shuffle_rank": DOC_SHUFFLE_RANK_SQL,
    "doc_embedding_vectors": DOC_EMBEDDING_VECTORS_SQL,
    "doc_kmeans": DOC_KMEANS_SQL,
    "doc_simhash": DOC_SIMHASH_SQL,
    "doc_simhash_pairs": DOC_SIMHASH_PAIRS_SQL,
    "page_manifest": PAGE_MANIFEST_SQL,
    "page_deps": PAGE_DEPS_SQL,
    "ext_packages": EXT_PACKAGES_SQL,
    "doc_split": DOC_SPLIT_SQL,
    "doc_sample_stratified": DOC_SAMPLE_STRATIFIED_SQL,
    "doc_sample_weighted": DOC_SAMPLE_WEIGHTED_SQL,
    "doc_split_leaks": DOC_SPLIT_LEAKS_SQL,
    "doc_tfidf_topk": DOC_TFIDF_TOPK_SQL,
    "doc_inverted_index": DOC_INVERTED_INDEX_SQL,
    "doc_lang_pred": DOC_LANG_PRED_SQL,
    "events_attribution": EVENTS_ATTRIBUTION_SQL,
    "events_session_assign": EVENTS_SESSION_ASSIGN_SQL,
    "kg_fixture_pr": KG_FIXTURE_PR_SQL,
    "kg_host_prior_gain": KG_HOST_PRIOR_GAIN_SQL,
    "kg_precise_tier_gain": KG_PRECISE_TIER_GAIN_SQL,
    "doc_decontaminate": DOC_DECONTAMINATE_SQL,
    "corpus_wordpiece_vocab": CORPUS_WORDPIECE_VOCAB_SQL,
    "corpus_wordpiece_tokenize": CORPUS_WORDPIECE_TOKENIZE_SQL,
    "corpus_wordpiece_fertility": CORPUS_WORDPIECE_FERTILITY_SQL,
    "kg_induced_schema": KG_INDUCED_SCHEMA_SQL,
    "kg_edge_diff": KG_EDGE_DIFF_SQL,
    "kg_path_2hop": KG_PATH_2HOP_SQL,
    "kg_path_khop": KG_PATH_KHOP_SQL,
    "kg_reachable_k3": KG_REACHABLE_K3_SQL,
    "corpus_unigram_vocab": CORPUS_UNIGRAM_VOCAB_SQL,
    "corpus_unigram_tokenize": CORPUS_UNIGRAM_TOKENIZE_SQL,
    "corpus_unigram_fertility": CORPUS_UNIGRAM_FERTILITY_SQL,
    "kg_fact_fusion": KG_FACT_FUSION_SQL,
    "warc_pages": PAGE_EXTRACT_TEXT_SQL,
    "kg_edge_diff_ckpt": KG_EDGE_DIFF_SQL,
    "kg_organic_pr": KG_ORGANIC_PR_SQL,
    "kg_ego_subgraph": KG_EGO_SUBGRAPH_SQL,
    "kg_path_varlen": KG_PATH_VARLEN_SQL,
    "events_value_hdr": EVENTS_VALUE_HDR_SQL,
    "events_value_hdr_by_type": EVENTS_VALUE_HDR_BY_TYPE_SQL,
}
