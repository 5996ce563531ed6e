"""Dedup-family tests: exact, MinHash-LSH, SimHash, embedding near-dup."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.dedup import (
    embedding_near_dup_pairs,
    exact_dup_clusters,
    jaccard,
    minhash_near_dup_pairs,
    near_dup_clusters,
    prefix_jaccard_join,
    simhash_batch_factory,
    simhash_near_dup_pairs,
)


def _docs(rows):
    return rd.from_arrow(
        pa.Table.from_pylist(
            [{"doc_id": i, "text": t} for i, t in rows],
            schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        )
    )


BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden outside"
)


def test_exact_dup_clusters():
    ds = _docs([(1, "aaa bbb"), (2, "ccc ddd"), (3, "aaa bbb"), (4, "eee")])
    out = {r["md5"]: (r["n_dups"], r["keeper"]) for r in exact_dup_clusters(ds).to_pandas().to_dict("records")}
    assert len(out) == 3
    assert (2, 1) in out.values()  # the duplicate pair keeps min doc_id


def test_minhash_near_dup_finds_planted_pair():
    near = BASE.replace("lazy", "sleepy")  # high-Jaccard near duplicate
    far = "completely different text about ray data pipelines and arrow batches " * 2
    ds = _docs([(1, BASE), (2, near), (3, far), (4, "tiny")])
    for family in ("md5", "fast"):
        pairs = minhash_near_dup_pairs(
            ds, verify_threshold=0.5, hash_family=family
        ).to_pandas()
        got = set(map(tuple, pairs[["a", "b"]].itertuples(index=False)))
        assert (1, 2) in got, family
        assert all(p == (1, 2) for p in got), family  # no false positives
        assert jaccard(BASE, near, hash_family=family) >= 0.5


def test_near_dup_clusters_from_pairs():
    ds = _docs([(1, BASE), (2, BASE + " x"), (3, "other " * 30)])
    pairs = minhash_near_dup_pairs(ds, verify_threshold=0.5)
    labels = near_dup_clusters(pairs).to_pandas()
    comp = dict(zip(labels.node, labels.component))
    assert comp.get("1") == comp.get("2")


def test_simhash_close_for_near_dups():
    batch = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array([BASE, BASE.replace("lazy", "sleepy"), "zz yy xx ww vv uu tt ss"])}
    )
    out = simhash_batch_factory()(batch).to_pylist()
    h = {r["doc_id"]: r["simhash"] for r in out}
    def ham(a, b):
        return bin(a ^ b).count("1")
    assert ham(h[1], h[2]) < ham(h[1], h[3])
    # deterministic across calls
    out2 = simhash_batch_factory()(batch).to_pylist()
    assert out == out2


def test_embedding_near_dup_pairs(monkeypatch):
    rng = np.random.default_rng(3)
    base = rng.standard_normal(16).astype(np.float32)
    rows = [
        {"vec_id": 1, "embedding": base.tolist()},
        {"vec_id": 2, "embedding": (base + 0.01 * rng.standard_normal(16).astype(np.float32)).tolist()},
        {"vec_id": 3, "embedding": rng.standard_normal(16).astype(np.float32).tolist()},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    for budget in (None, "0"):  # "0": the vectors reach pairs by shuffle
        if budget:
            monkeypatch.setenv("GRAFT_BROADCAST_BUDGET", budget)
        pairs = embedding_near_dup_pairs(ds, threshold=0.95, n_planes=4).to_pandas()
        got = set(map(tuple, pairs[["a", "b"]].itertuples(index=False)))
        assert (1, 2) in got, budget
        assert not any(3 in p for p in got), budget


def test_simhash_near_dup_pairs_planted():
    """Planted near-identical texts must pair within the Hamming budget;
    unrelated docs must not. Both hash families are deterministic, so the
    per-family budgets below are fixed facts of the fixture, not tuning:
    the planted pair sits at Hamming 3 (md5) / 5 (fast) and the nearest
    token-disjoint filler pair at 8 under both."""
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import simhash_near_dup_pairs

    base = ("the quarterly report shows steady growth across all regions "
            "with analysts observing improved margins and new announcements")
    # fillers share NO tokens (per-doc word stems) — any filler pair's
    # shingle sets are disjoint, so their signatures are far apart w.h.p.
    texts = [" ".join(f"w{i}x{j}" for j in range(14)) for i in range(30)]
    texts[4] = base
    texts[19] = base.replace("steady", "stable")  # tiny perturbation
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(30), pa.int64()),
                  "text": pa.array(texts)})
    )
    for family, budget in (("md5", 4), ("fast", 6)):
        out = simhash_near_dup_pairs(
            ds, max_hamming=budget, hash_family=family
        ).to_pandas()
        got = set(map(tuple, out[["a", "b"]].itertuples(index=False)))
        assert (4, 19) in got, family
        row = out[(out.a == 4) & (out.b == 19)].iloc[0]
        assert 0 <= row.hamming <= budget
        # no token-disjoint pair sneaks in below the budget
        for a, b in got:
            assert (a, b) == (4, 19), family


def test_near_dup_caps_are_recorded():
    # 12 identical docs share every band key; max_group=5 pairs only the
    # first 5 ids (10 of the 66 pairs) and every family says so
    ds = _docs([(i, BASE) for i in range(12)])
    capped = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for fn in (simhash_near_dup_pairs, minhash_near_dup_pairs):
        out = fn(ds, max_group=5).to_pandas()
        assert sorted(zip(out.a, out.b)) == capped, fn.__name__
        assert out.truncated.all(), fn.__name__


def _types(ds):
    s = ds.schema()
    return dict(zip(s.names, s.types))


def test_near_dup_pairs_typed_when_no_candidate():
    # no two rows share a band key: the output keeps its columns
    docs = _docs([(1, "alpha beta gamma delta"), (2, "one two three four five")])
    assert _types(simhash_near_dup_pairs(docs, max_hamming=0)) == {
        "a": pa.int64(), "b": pa.int64(), "truncated": pa.bool_(),
        "hamming": pa.int64()}
    vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array([1, 2], pa.int64()),
        "embedding": pa.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]]),
    }))
    assert _types(embedding_near_dup_pairs(vecs)) == {
        "a": pa.int64(), "b": pa.int64(), "truncated": pa.bool_(),
        "cosine": pa.float64()}


def test_unfetched_near_dup_pairs_typed_when_no_pair():
    # the two families that fetch no payload: no name within one edit,
    # no consecutive doc ids
    from code_graph_rag_ray.stages.dedup import editdist1_pairs, ngram_jaccard_pairs

    for t in (pa.string(), pa.large_string()):
        names = rd.from_arrow(pa.table({"name": pa.array(["alpha", "zebra", "kilo"], t)}))
        assert _types(editdist1_pairs(names)) == {
            "a": t, "b": t, "truncated": pa.bool_()}
    for t in (pa.int64(), pa.int32()):
        docs = rd.from_arrow(pa.table({"doc_id": pa.array([1, 5], t),
                                       "text": ["alpha beta gamma", "one two three"]}))
        out = ngram_jaccard_pairs(docs)
        assert _types(out) == {"id_a": t, "id_b": t, "jaccard": pa.float64()}
        assert out.count() == 0


def test_near_dup_empty_ids_follow_the_input_type():
    # string doc ids and no pair: a and b stay strings in every family
    named = rd.from_arrow(pa.table({
        "doc_id": pa.array(["x", "y"], pa.string()),
        "text": pa.array(["alpha beta gamma delta epsilon zeta eta",
                          "one two three four five six seven"], pa.string()),
    }))
    for out in (minhash_near_dup_pairs(named), prefix_jaccard_join(named)):
        types = _types(out)
        assert types["a"] == types["b"] == pa.string()
        assert out.count() == 0


def test_near_dup_payload_fetch_same_on_both_plans(monkeypatch):
    # a zero broadcast budget moves the semi join and both payload joins
    # onto the bucketed shuffle; the pairs must not change
    ds = _docs([(1, BASE), (2, BASE.replace("lazy", "sleepy")),
                (3, "other words entirely " * 8), (4, BASE),
                (5, BASE + " coda")]).repartition(3)

    def run():
        return {fn.__name__: sorted(tuple(r.values()) for r in fn(ds).take_all())
                for fn in (minhash_near_dup_pairs, simhash_near_dup_pairs,
                           prefix_jaccard_join)}

    broadcast = run()
    assert all(broadcast.values())
    monkeypatch.setenv("GRAFT_BROADCAST_BUDGET", "0")
    assert run() == broadcast


def test_near_dup_exchange_budgets():
    """Exchanges per call on a planted corpus: the two bucketed candidate
    steps, and a payload fetch that broadcasts at this size."""
    from perfbench.trace import ExecutorStats

    ds = _docs([(1, BASE), (2, BASE.replace("lazy", "sleepy")),
                (3, "other words entirely " * 8), (4, BASE)])
    for fn in (minhash_near_dup_pairs, simhash_near_dup_pairs):
        stats = ExecutorStats()
        with stats:
            got = {(r["a"], r["b"]) for r in fn(ds).take_all()}
        assert (1, 4) in got, fn.__name__
        assert stats.take()["exchanges"] <= 2, fn.__name__


def test_ngram_jaccard_pairs_consecutive_and_grouped():
    """Exact-set trigram Jaccard over consecutive-id candidate pairs;
    group_col restricts pairing to same-group neighbors."""
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import jaccard_exact, ngram_jaccard_pairs

    texts = [
        "alpha beta gamma delta epsilon zeta",
        "alpha beta gamma delta epsilon eta",   # near dup of 0
        "totally different words entirely here now",
        "alpha beta gamma delta epsilon zeta",  # exact dup of 2? no — of 0, but not adjacent
    ]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts),
        "grp": pa.array(["x", "x", "x", "y"]),
    }))
    out = ngram_jaccard_pairs(ds).to_pandas().set_index("id_a")
    assert sorted(out.index) == [0, 1, 2]
    # (0,1): shingles overlap 3 of 5 distinct → 3/5
    assert out.loc[0, "jaccard"] == jaccard_exact(texts[0], texts[1]) == 3 / 5
    assert out.loc[1, "jaccard"] == 0.0
    assert out.loc[2, "jaccard"] == 0.0

    grouped = ngram_jaccard_pairs(ds, group_col="grp").to_pandas()
    # pair (2,3) crosses groups x|y → dropped; only (0,1) and (1,2) remain
    assert sorted(grouped.id_a) == [0, 1]


def test_dup_ngram_spans_planted_boilerplate():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import dup_ngram_spans

    boiler = "all rights reserved contact us for more information today now"
    docs = [
        (1, "alpha beta gamma delta " + boiler + " epsilon zeta"),
        (2, "one two three four five " + boiler + " six seven"),
        (3, "totally unrelated words nine ten eleven twelve thirteen fourteen"),
        # doc 4 repeats the boilerplate TWICE — per-doc distinctness must
        # count it once
        (4, boiler + " filler filler " + boiler),
    ]
    tbl = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })
    out = dup_ngram_spans(rd.from_arrow(tbl).repartition(3), w=8).take_all()
    assert out, "planted shared 10-token boilerplate must surface w=8 spans"
    by_fp = {r["fp"]: r for r in out}
    # every surfaced fingerprint names docs {1,2,4} at most; doc 3 never appears
    for r in out:
        assert 2 <= r["n_docs"] <= 3
        assert r["min_doc"] == 1
    # the 10-token boilerplate contains exactly 3 distinct 8-token windows,
    # each shared by docs 1, 2 and 4
    shared_all = [r for r in out if r["n_docs"] == 3]
    assert len(shared_all) == 3
    assert len(by_fp) == len(out)  # fingerprints unique in the output


def test_dup_ngram_spans_null_and_short_texts():
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import dup_ngram_spans

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([None, "too short", "also short"], pa.string()),
    })
    for family in ("md5", "fast"):
        out = dup_ngram_spans(
            rd.from_arrow(tbl).repartition(2), w=8, hash_family=family
        ).take_all()
        assert out == [], family  # no window reaches w; nulls never raise


def test_dup_ngram_spans_fast_family_matches_md5_structure():
    """The fast rolling-hash family must surface the SAME duplicated
    windows as the md5 audit family — fingerprint VALUES differ by
    design, but the multiset of (n_docs, min_doc) per surfaced span and
    the per-doc incidence structure are properties of the window texts,
    not the hash."""
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import dup_ngram_spans

    boiler = "all rights reserved contact us for more information today now"
    docs = [
        (1, "alpha beta gamma delta " + boiler + " epsilon zeta"),
        (2, "one two three four five " + boiler + " six seven"),
        (3, "totally unrelated words nine ten eleven twelve thirteen fourteen"),
        (4, boiler + " filler filler " + boiler),
    ]
    tbl = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    shape = {}
    for family in ("md5", "fast"):
        out = dup_ngram_spans(ds, w=8, hash_family=family).take_all()
        assert len({r["fp"] for r in out}) == len(out), family
        shape[family] = sorted((r["n_docs"], r["min_doc"]) for r in out)
    assert shape["fast"] == shape["md5"]


def test_minhash_pairs_sql_oracle_parity_on_planted_dups(tmp_path):
    """The doc_minhash_pairs DuckDB oracle replays the FULL LSH pipeline
    (signatures, band grouping, hashed-shingle Jaccard). The synthetic
    driver corpus has no near-dups (empty == empty there), so pin the
    parity on a corpus WITH planted exact + near duplicates."""
    import duckdb
    import pyarrow.parquet as pq

    from code_graph_rag_ray.pipelines.catalog import (
        DOC_MINHASH_PAIRS_SQL,
        doc_minhash_pairs,
    )

    rows = [
        (1, BASE),
        (2, BASE),                         # exact dup of 1 (jaccard 1.0)
        (3, BASE + " coda"),               # near dup (one extra trigram)
        (4, "completely different text about ray data pipelines " * 3),
        (5, "tiny"),                       # <3 tokens: whole-text shingle
        (6, "tiny"),                       # exact dup of 5
    ]
    tbl = pa.Table.from_pylist(
        [{"doc_id": i, "text": t} for i, t in rows],
        schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")

    got = doc_minhash_pairs(str(tmp_path)).sort_values(["a", "b"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    exp = con.execute(DOC_MINHASH_PAIRS_SQL).df().sort_values(["a", "b"]).reset_index(drop=True)

    assert len(got) >= 3  # (1,2), (1,3) or (2,3)…, (5,6) all survive 0.8
    assert list(got.columns) == ["a", "b", "truncated", "jaccard"]
    assert got["a"].tolist() == exp["a"].tolist()
    assert got["b"].tolist() == exp["b"].tolist()
    assert got["truncated"].tolist() == exp["truncated"].tolist()
    assert got["jaccard"].tolist() == exp["jaccard"].tolist()  # bit-exact


def test_editdist1_pairs_exact_recall_and_verify():
    from code_graph_rag_ray.stages.dedup import _ed_le1, editdist1_pairs

    rows = [
        {"name": "acme"}, {"name": "acme"},      # duplicate collapses
        {"name": "acne"},                        # substitution of acme
        {"name": "acmes"},                       # insertion
        {"name": "ace"},                         # deletion (of acme? a-c-e vs a-c-m-e: yes)
        {"name": "amce"},                        # transposition → dist 2, must NOT pair with acme
        {"name": "zebra"},                       # unrelated
        {"name": "x" * 100},                     # beyond max_len → excluded
        {"name": None},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4)
    got = {(r["a"], r["b"]) for r in
           editdist1_pairs(ds, col="name", max_len=64).take_all()}
    brute = set()
    names = sorted({r["name"] for r in rows
                    if r["name"] and len(r["name"]) <= 64})
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if _ed_le1(a, b):
                brute.add((a, b))
    assert got == brute
    assert ("acme", "acne") in got and ("acme", "acmes") in got
    assert ("ace", "acme") in got
    assert ("acme", "amce") not in got and ("amce", "acne") not in got


def test_prefix_jaccard_join_equals_bruteforce():
    """Prefix-filter completeness: distributed exact join == brute-force
    all-pairs on random small-vocab soup (plus planted near-dups)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import _shingle_set, prefix_jaccard_join

    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, rng.integers(6, 40)))
             for _ in range(120)]
    texts[7] = texts[3]                         # exact dup
    texts[11] = texts[5] + " extra token pad"   # near dup
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    got = {
        (r["a"], r["b"]): (r["inter"], r["uni"])
        for r in prefix_jaccard_join(
            rd.from_pandas(df).repartition(7), shingle=5, tau=(4, 5)
        ).take_all()
    }
    exp = {}
    for i in range(len(texts)):
        si = _shingle_set(texts[i], 5)
        for j in range(i + 1, len(texts)):
            sj = _shingle_set(texts[j], 5)
            inter = len(si & sj)
            uni = len(si | sj)
            if inter * 5 >= 4 * uni:
                exp[(i, j)] = (inter, uni)
    assert got == exp and (3, 7) in got


def test_prefix_jaccard_join_string_ids():
    # id dtype generalization: string doc ids flow through prefix rows,
    # bucketed candidates and the verify joins (ADVICE round-2)
    import ray.data as rd

    from code_graph_rag_ray.stages.dedup import prefix_jaccard_join

    text = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"
    near = text + " w10"  # high-overlap shingle sets
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(["docA", "docB", "docC"], pa.string()),
        "text": pa.array([text, near, "zz aa bb cc dd ee ff gg hh ii"],
                         pa.string()),
    }))
    out = prefix_jaccard_join(ds, tau=(1, 2)).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert ("docA", "docB") in pairs
    assert all(isinstance(a, str) for a in out["a"])


def test_minhash_dedup_apply_keeps_numeric_min_per_cluster():
    from code_graph_rag_ray.stages.dedup import minhash_dedup_apply

    # ids straddle the 1-digit/3-digit boundary where a STRING min would
    # pick "100" over "9" — the zero-padded CC labels must not
    ds = _docs([(9, BASE), (100, BASE + " x"), (101, BASE + " y"),
                (5, "unrelated " * 30), (7, "tiny")])
    out = minhash_dedup_apply(ds, verify_threshold=0.5).to_pandas()
    keep = dict(zip(out.doc_id, out.keep))
    assert len(out) == 5
    assert keep[9] and not keep[100] and not keep[101]  # numeric min wins
    assert keep[5] and keep[7]  # non-dups all survive


def test_minhash_dedup_apply_no_pairs_all_keep():
    from code_graph_rag_ray.stages.dedup import minhash_dedup_apply

    ds = _docs([(1, "alpha " * 20), (2, "beta unrelated " * 15)])
    out = minhash_dedup_apply(ds).to_pandas()
    assert len(out) == 2 and out.keep.all()
    assert str(out.doc_id.dtype) == "int64"


def _vecs(rows):
    return rd.from_arrow(
        pa.Table.from_pylist(
            [{"vec_id": i, "embedding": list(map(float, v))} for i, v in rows],
            schema=pa.schema([("vec_id", pa.int64()),
                              ("embedding", pa.list_(pa.float64()))]),
        )
    )


def test_semantic_dedup_drops_higher_id_near_copy():
    from code_graph_rag_ray.stages.dedup import semantic_dedup

    rng = np.random.default_rng(3)
    base = rng.normal(size=(6, 8))
    rows = [(i, base[i]) for i in range(6)]
    rows.append((10, base[2] + 1e-4))  # near-copy of vec 2
    rows.append((11, -base[3]))        # anti-parallel: cos = -1, never a dup
    out = semantic_dedup(_vecs(rows), k=3, iters=1).to_pandas()
    keep = dict(zip(out.vec_id, out.keep))
    assert len(out) == 8
    assert keep[2] and not keep[10]  # copy dropped, original kept
    assert keep[3] and keep[11]
    assert not out.truncated.any()


def test_semantic_dedup_max_group_truncation_recorded():
    from code_graph_rag_ray.stages.dedup import semantic_dedup

    # one tight cluster of 5 identical vectors, cap at 3: ranks 4-5 skip
    # the pairwise check and survive with truncated=true
    rows = [(i, [1.0, 0.0, 0.0]) for i in range(5)]
    out = semantic_dedup(_vecs(rows), k=1, iters=1, max_group=3).to_pandas()
    out = out.sort_values("vec_id").reset_index(drop=True)
    assert list(out.keep) == [True, False, False, True, True]
    assert list(out.truncated) == [False, False, False, True, True]


def test_semantic_dedup_exists_semantics_not_greedy():
    from code_graph_rag_ray.stages.dedup import semantic_dedup

    # chain 0~1~2 where all three are mutually similar: EXISTS semantics
    # drop BOTH 1 and 2 (each has a lower-id match), keep only 0
    v = [1.0, 1.0, 0.0]
    rows = [(0, v), (1, v), (2, v)]
    out = semantic_dedup(_vecs(rows), k=1, iters=1).to_pandas()
    keep = dict(zip(out.vec_id, out.keep))
    assert keep == {0: True, 1: False, 2: False}


def test_semantic_dedup_k_sizing_rule_and_second_k():
    """k=None derives k = ceil(n / target_cluster_size) (the documented
    100 TB sizing rule); exact duplicates dedup at ANY k because identical
    vectors always share a cluster, and every row appears exactly once."""
    from code_graph_rag_ray.stages.dedup import semantic_dedup

    rng = np.random.default_rng(7)
    base = rng.normal(size=(12, 8))
    rows = [(i, base[i]) for i in range(12)]
    rows.append((20, base[5]))  # exact duplicate of vec 5
    for kwargs in ({"k": None, "target_cluster_size": 4}, {"k": 5}):
        out = semantic_dedup(_vecs(rows), iters=1, **kwargs).to_pandas()
        assert sorted(out.vec_id) == sorted(r[0] for r in rows)
        keep = dict(zip(out.vec_id, out.keep))
        assert keep[5] and not keep[20], kwargs


def test_dup_span_apply_keep_one_semantics():
    from code_graph_rag_ray.stages.dedup import dup_span_apply

    boiler = "this license block is repeated verbatim across many documents here"
    ds = _docs([
        (1, "unique alpha words one two three four five six seven " + boiler),
        (2, boiler + " plus unique beta content eight nine ten eleven"),
        (3, "totally different text with no repeats in any window at all ok"),
        (5, "short"),
    ])
    out = dup_span_apply(ds, w=8).to_pandas().set_index("doc_id")
    assert len(out) == 4
    # min_doc keeps the span; doc 2 loses all 10 boilerplate tokens
    assert out.loc[1, "n_removed"] == 0 and boiler in out.loc[1, "clean_text"]
    assert out.loc[2, "n_removed"] == 10
    assert "license" not in out.loc[2, "clean_text"]
    assert out.loc[2, "clean_text"].startswith("plus unique beta")
    # non-dup and sub-window docs pass through (normalized token stream)
    assert out.loc[3, "n_removed"] == 0
    assert out.loc[5, "clean_text"] == "short"


def test_dup_span_apply_null_text_and_empty_corpus():
    from code_graph_rag_ray.stages.dedup import dup_span_apply

    ds = rd.from_arrow(pa.Table.from_pylist(
        [{"doc_id": 1, "text": None}, {"doc_id": 2, "text": "a b c"}],
        schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])))
    out = dup_span_apply(ds, w=8).to_pandas().set_index("doc_id")
    assert out.loc[1, "clean_text"] == "" and out.loc[1, "n_removed"] == 0
    assert out.loc[2, "clean_text"] == "a b c"
