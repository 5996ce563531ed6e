"""Global ranking: exact row_number semantics at any block layout and any
range-bucket count, descending and ascending, with whale (all-equal) keys
and null keys."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from code_graph_rag_ray.stages import ranking
from code_graph_rag_ray.stages.ranking import global_rank


def _rows(keys):
    return [{"id": i, "key": k} for i, k in enumerate(keys)]


def _expected(keys, descending):
    order = sorted(range(len(keys)),
                   key=lambda i: (-keys[i] if descending else keys[i], i))
    return {i: r + 1 for r, i in enumerate(order)}


def _check(keys, *, descending, blocks, num_buckets, monkeypatch):
    # the range-bucket count sets only balance; drive it directly
    monkeypatch.setattr(ranking, "_RANGE_BUCKETS", num_buckets)
    ds = rd.from_arrow(pa.Table.from_pylist(_rows(keys))).repartition(blocks)
    out = global_rank(ds, "key", tiebreak="id",
                      descending=descending).take_all()
    exp = _expected(keys, descending)
    assert len(out) == len(keys)
    for r in out:
        assert r["rank"] == exp[r["id"]], (r, exp[r["id"]])


def test_rank_matches_row_number_every_layout(monkeypatch):
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, size=400).tolist()  # heavy ties
    for blocks in (1, 9):
        for nb in (1, 4, 32):
            _check(keys, descending=True, blocks=blocks, num_buckets=nb,
                   monkeypatch=monkeypatch)
    _check(keys, descending=False, blocks=7, num_buckets=8,
           monkeypatch=monkeypatch)


def test_rank_whale_key(monkeypatch):
    # one value dominates: ranks resolved purely by tiebreak, still exact
    keys = [7] * 300 + [1, 99]
    _check(keys, descending=True, blocks=11, num_buckets=16,
           monkeypatch=monkeypatch)


def test_rank_float_keys(monkeypatch):
    rng = np.random.default_rng(5)
    keys = rng.normal(size=257).tolist()
    _check(keys, descending=False, blocks=5, num_buckets=8,
           monkeypatch=monkeypatch)


@pytest.mark.parametrize("descending", [True, False])
@pytest.mark.parametrize("kind", ["int", "string", "float"])
def test_rank_null_keys_match_duckdb(kind, descending):
    """Null keys rank last in both directions and float NaN above every
    number, as DuckDB's ``row_number() OVER (ORDER BY key [DESC] NULLS
    LAST, id)`` orders them."""
    import duckdb

    rng = np.random.default_rng(17)
    ints = rng.integers(0, 12, size=40).tolist()
    vals = {"int": (ints, pa.int64()),
            "string": ([f"k{v:02d}" for v in ints], pa.string()),
            "float": ([v + 0.5 for v in ints[:-3]] + [float("nan")] * 3,
                      pa.float64())}[kind]
    keys = vals[0] + [None] * 5
    t = pa.table({"id": pa.array(range(len(keys)), pa.int64()),
                  "key": pa.array(keys, vals[1])})
    order = "DESC" if descending else "ASC"
    exp = dict(duckdb.sql(
        f"SELECT id, row_number() OVER (ORDER BY key {order} NULLS LAST, id)"
        " FROM t").fetchall())
    ds = rd.from_arrow(t).repartition(4)
    got = {r["id"]: r["rank"] for r in global_rank(
        ds, "key", tiebreak="id", descending=descending).take_all()}
    assert got == exp


def test_boundary_sample_is_bounded_per_block():
    """Driver-side sample row count depends on (blocks × num_buckets),
    NEVER on input row count — the 100 TB safety property (VERDICT r03 #1:
    the retired hash-rate sampler shipped ~n/64 of all keys)."""
    from code_graph_rag_ray.stages.ranking import _block_key_sample

    for n_rows in (100, 10_000):
        t = pa.table({"key": pa.array(range(n_rows), pa.int64())})
        ds = rd.from_arrow(t).repartition(4)
        sample = _block_key_sample(ds, "key", cap=9)
        assert sample.count() <= 4 * 9, n_rows  # blocks × cap, not rows


def test_boundary_sample_handles_nulls_and_empty_blocks():
    from code_graph_rag_ray.stages.ranking import _sample_boundaries

    t = pa.table({"key": pa.array([None, 3, 1, None, 2], pa.int64())})
    bounds = _sample_boundaries(rd.from_arrow(t).repartition(5), "key", 4)
    assert all(b is not None for b in bounds)
    empty = pa.table({"key": pa.array([], pa.int64())})
    assert _sample_boundaries(rd.from_arrow(empty), "key", 4) == []


def test_shuffle_rank_is_total_permutation_and_sharded():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.ranking import shuffle_rank

    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(200), pa.int64())}))
    out = shuffle_rank(ds, id_col="doc_id", shard_size=32).to_pandas()
    assert sorted(out.shuffle_rank) == list(range(1, 201))  # exact permutation
    assert (out.shard == (out.shuffle_rank - 1) // 32).all()
    # pseudorandom, not identity: the hash order must differ from id order
    by_rank = out.sort_values("shuffle_rank").doc_id.to_numpy()
    assert not np.array_equal(by_rank, np.arange(200))


def test_shuffle_rank_partitioning_invariant():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.ranking import shuffle_rank

    t = pa.table({"doc_id": pa.array(range(100), pa.int64())})
    a = shuffle_rank(rd.from_arrow(t), id_col="doc_id", shard_size=10
                     ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = shuffle_rank(rd.from_arrow(t).repartition(7), id_col="doc_id",
                     shard_size=10
                     ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
