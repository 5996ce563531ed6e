"""snapshot_diff: classification against a brute-force reference."""

import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.diff import snapshot_diff


def test_snapshot_diff_classes_and_unchanged_toggle():
    old = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "a": pa.array(["x", "y", "z", "w"], pa.string()),
        "b": pa.array([10, 20, 30, 40], pa.int64()),
    })).repartition(2)
    new = rd.from_arrow(pa.table({
        "k": pa.array([2, 3, 4, 5], pa.int64()),
        "a": pa.array(["y", "z2", "w", "v"], pa.string()),
        "b": pa.array([20, 30, 41, 50], pa.int64()),
    })).repartition(2)
    out = {r["k"]: r["status"] for r in
           snapshot_diff(old, new, key="k", compare_cols=["a", "b"]).take_all()}
    # 1 removed; 2 unchanged (dropped); 3 changed (a); 4 changed (b); 5 added
    assert out == {1: "removed", 3: "changed", 4: "changed", 5: "added"}
    full = {r["k"]: r["status"] for r in
            snapshot_diff(old, new, key="k", compare_cols=["a", "b"],
                          keep_unchanged=True).take_all()}
    assert full[2] == "unchanged" and len(full) == 5


def test_scd2_history_runs_and_nullable_valid_to():
    from code_graph_rag_ray.stages.diff import scd2_history

    rows = [
        # key "u": A A B A — three runs (A, B, A: same state REOPENS a run)
        {"k": "u", "ts": 1, "tb": 0, "st": "A"},
        {"k": "u", "ts": 2, "tb": 0, "st": "A"},
        {"k": "u", "ts": 3, "tb": 0, "st": "B"},
        {"k": "u", "ts": 4, "tb": 0, "st": "A"},
        # tie on ts → tiebreak decides order (B first, then A)
        {"k": "v", "ts": 5, "tb": 1, "st": "B"},
        {"k": "v", "ts": 5, "tb": 2, "st": "A"},
        # single observation
        {"k": "w", "ts": 9, "tb": 0, "st": "Z"},
    ]
    t = pa.Table.from_pylist(rows)
    for blocks in (1, 4):
        got = scd2_history(rd.from_arrow(t).repartition(blocks), key="k",
                           order_by="ts", state_cols=["st"],
                           tiebreak="tb").take_all()
        by = {}
        for r in got:
            by.setdefault(r["k"], []).append(
                (r["valid_from"], r["valid_to"], r["st"], r["n_obs"]))
        for v in by.values():
            v.sort(key=lambda x: (x[0], x[2]))
        assert by["u"] == [(1, 3, "A", 2), (3, 4, "B", 1), (4, None, "A", 1)]
        assert by["v"] == [(5, None, "A", 1), (5, 5, "B", 1)]
        assert by["w"] == [(9, None, "Z", 1)]


def test_scd2_history_keeps_int64_states():
    """State columns come back in their input types and valid_to is a
    nullable int64: an int64 state above 2^53 stays exact."""
    from code_graph_rag_ray.stages.diff import scd2_history

    t = pa.table({"k": pa.array([7, 7, 7, 8], pa.int64()),
                  "ts": pa.array([1, 2, 3, 4], pa.int64()),
                  "st": pa.array([5, None, 2**60 + 1, None], pa.int64())})
    out = scd2_history(rd.from_arrow(t).repartition(2), key="k", order_by="ts",
                       state_cols=["st"])
    schema = out.schema()
    assert dict(zip(schema.names, schema.types)) == {
        "k": pa.int64(), "st": pa.int64(), "valid_from": pa.int64(),
        "valid_to": pa.int64(), "n_obs": pa.int64()}
    rows = sorted((r["k"], r["valid_from"], r["valid_to"], r["st"], r["n_obs"])
                  for r in out.take_all())
    assert rows == [(7, 1, 2, 5, 1), (7, 2, 3, None, 1), (7, 3, None, 2**60 + 1, 1),
                    (8, 4, None, None, 1)]


def test_snapshot_diff_string_key_matches_duckdb():
    import duckdb

    old = pa.table({"url": ["u1", "u2", "u3", "u4"], "text": ["a", "b", "c", "d"]})
    new = pa.table({"url": ["u2", "u3", "u4", "u5"], "text": ["b", "c2", "d", "e"]})
    got = sorted((r["url"], r["status"]) for r in snapshot_diff(
        rd.from_arrow(old).repartition(2), rd.from_arrow(new).repartition(2),
        key="url", compare_cols=["text"], keep_unchanged=True).take_all())
    con = duckdb.connect()
    con.register("o", old)
    con.register("n", new)
    exp = con.execute(
        """SELECT coalesce(o.url, n.url) AS url,
                  CASE WHEN o.url IS NULL THEN 'added'
                       WHEN n.url IS NULL THEN 'removed'
                       WHEN o.text = n.text THEN 'unchanged'
                       ELSE 'changed' END AS status
           FROM o FULL OUTER JOIN n ON o.url = n.url ORDER BY url""").fetchall()
    assert got == exp
