"""IVF ANN (trained k-means quantizer): full-probe degenerates to exact
brute force; partial probe keeps useful recall on clustered data."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.similarity import knn_brute_force, knn_ivf


def _clustered(n_per=60, k=4, dim=16, seed=9):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, (k, dim)) * 4
    rows = []
    for c in range(k):
        for p in centers[c] + rng.normal(0, 0.15, (n_per, dim)):
            rows.append({"vec_id": len(rows),
                         "embedding": [float(x) for x in p]})
    return rows


def test_full_probe_equals_brute():
    rows = _clustered()
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    queries = np.stack([np.asarray(rows[i]["embedding"]) for i in (0, 7, 100)])
    qids = [0, 7, 100]
    brute = {(r["query_id"], r["rank"]): r["vec_id"]
             for r in knn_brute_force(ds, queries, qids, k=5).take_all()}
    full = {(r["query_id"], r["rank"]): r["vec_id"]
            for r in knn_ivf(ds, queries, qids, k=5, n_clusters=4,
                             n_probe=4).take_all()}
    assert brute == full


def test_partial_probe_recall():
    rows = _clustered()
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    queries = np.stack([np.asarray(rows[i]["embedding"]) for i in (0, 61, 122)])
    qids = [0, 61, 122]
    brute = knn_brute_force(ds, queries, qids, k=10).take_all()
    ivf = knn_ivf(ds, queries, qids, k=10, n_clusters=4, n_probe=1).take_all()
    for q in qids:
        b = {r["vec_id"] for r in brute if r["query_id"] == q}
        a = {r["vec_id"] for r in ivf if r["query_id"] == q}
        # on well-separated clusters the query's own cell holds its
        # neighborhood: 1-probe recall stays high
        assert len(a & b) / len(b) >= 0.8, (q, len(a & b))


def test_empty_corpus_returns_typed_empty():
    rows = pa.table({"vec_id": pa.array([], pa.int64()),
                     "embedding": pa.array([], pa.list_(pa.float64())),
                     "label": pa.array([], pa.string())})
    ds = rd.from_arrow(rows).materialize()
    queries = np.ones((2, 4))
    got = knn_ivf(ds, queries, [0, 1], k=3, n_clusters=2, n_probe=1).materialize()
    want = knn_brute_force(ds, queries, [0, 1], k=3).materialize()
    assert got.count() == 0
    assert got.schema() == want.schema()
