"""Similarity search over an embedding column (list<float>).

Three paths, per the scale guidance, sharing one merge:

- :func:`knn_brute_force` — baseline: the query matrix is broadcast via
  ``ray.put`` once; each batch does one numpy matmul against it and emits
  its LOCAL top-k per query (a partial aggregate). No full shuffle of the
  corpus — only (n_queries × k × n_blocks) candidate rows move.
- :func:`knn_lsh` — scale path: random-hyperplane buckets (IVF-style
  coarse quantization); each query probes only its bucket (and optional
  neighboring buckets by Hamming distance ≤ 1), trading recall for a
  bucket-local scan.
- :func:`knn_ivf` — the same trade with a trained coarse quantizer.

Every path ends in :func:`_merge_top_k`: ``relational.grouped_top_k`` per
query under (−cosine, id) and a 1-based rank, finished in Arrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import (
    _mapped,
    _runs,
    grouped_top_k,
    run_starts,
)


def _to_matrix(col) -> np.ndarray:
    """(n, dim) float32 matrix from an Arrow list column — zero-copy-ish
    fast path (flatten + reshape) when the rows are null-free and
    uniform-width (always true for embedding columns); the per-row Python
    stack survives only as the ragged/null fallback."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count == 0 and len(col):
        if pa.types.is_fixed_size_list(col.type):
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.astype(np.float32, copy=False).reshape(
                len(col), col.type.list_size)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            off = np.asarray(col.offsets, dtype=np.int64)
            widths = np.diff(off)
            if (widths == widths[0]).all():
                flat = col.flatten().to_numpy(zero_copy_only=False)
                return flat.astype(np.float32, copy=False).reshape(
                    len(col), int(widths[0]))
    return np.stack([np.asarray(v, dtype=np.float32) for v in col.to_pylist()])


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _candidates(qids: list, batch: pa.Table, id_col: str, out_q, out_v,
                out_s) -> pa.Table:
    """A batch's (query_id, id, cosine) candidate rows, typed even when
    the batch keeps none (NOTES fact 26): the id type mirrors the input
    column, the query_id type the broadcast query ids."""
    qid_t = pa.array(list(qids)).type if len(qids) else pa.string()
    return pa.table({"query_id": pa.array(out_q, qid_t),
                     id_col: pa.array(out_v, batch[id_col].type),
                     "cosine": pa.array(out_s, pa.float64())})


def _merge_top_k(partials: Dataset, k: int, id_col: str) -> Dataset:
    """(query_id, id, cosine, rank): the global top-k of every query's
    candidates, ties broken by id, rank 1-based. ``grouped_top_k`` leaves
    each bucket's rows sorted by (query, −cosine, id) and whole in one
    block, so the rank is each row's position in its query's run."""

    def rank(b: pa.Table) -> pa.Table:
        _, _, pos = _runs(run_starts(b, ["query_id"]))
        return b.append_column("rank", pa.array(pos + 1, pa.int64()))

    return _mapped(grouped_top_k(partials, "query_id", "cosine", k,
                                 tiebreak=id_col), rank, batch_size=None)


def knn_brute_force(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list,
    *,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str | None = None,
    query_exclude_labels: list | None = None,
) -> Dataset:
    """Exact cosine top-k: (query_id, vec_id, cosine, rank), rank 1-based.

    Ties broken deterministically by (−cosine, vec_id).

    ``label_col`` + ``query_exclude_labels`` (aligned with
    ``query_ids``) turn this into HARD-NEGATIVE MINING: candidates whose
    label equals the query's excluded label are masked out per query —
    the contrastive-training "top-k most similar from a DIFFERENT class"
    selection, same broadcast + partial-top-k-merge scale shape.
    """
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast

    qn = _normalize(queries.astype(np.float64))
    qex = list(query_exclude_labels) if query_exclude_labels is not None else None
    q_ref = ray.put((qn, list(query_ids), qex))

    def local_topk(batch: pa.Table) -> pa.Table:
        q, qids, qx = get_broadcast(q_ref)
        if batch.num_rows == 0:
            return _candidates(qids, batch, id_col, [], [], [])
        vecs = _normalize(_to_matrix(batch[vec_col]).astype(np.float64))
        ids = batch[id_col].to_pylist()
        labels = (batch[label_col].to_pylist()
                  if label_col is not None and qx is not None else None)
        sims = q @ vecs.T  # (nq, nb)
        out_q, out_v, out_s = [], [], []
        ids_np = np.asarray(ids)
        for qi in range(sims.shape[0]):
            row = sims[qi]
            if labels is not None:
                # null-label candidates are EXCLUDED — matching the SQL
                # oracle's `label <> q.label` (NULL <> x is NULL ⇒ drop),
                # not Python's None != x (which would keep them)
                keep = np.array(
                    [lb is not None and lb != qx[qi] for lb in labels], bool)
                if not keep.any():
                    continue
                cand_ids, cand = ids_np[keep], row[keep]
            else:
                cand_ids, cand = ids_np, row
            kk = min(k, len(cand))
            # deterministic partial top-k: sort by (-sim, vec_id)
            order = np.lexsort((cand_ids, -cand))[:kk]
            out_q.extend([qids[qi]] * len(order))
            out_v.extend(cand_ids[order].tolist())
            out_s.extend(cand[order].astype(float).tolist())
        return _candidates(qids, batch, id_col, out_q, out_v, out_s)

    return _merge_top_k(_mapped(ds, local_topk, batch_size=4096), k, id_col)


def knn_lsh(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list,
    *,
    k: int = 10,
    n_planes: int = 6,
    seed: int = 13,
    probe_hamming: int = 1,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """Approximate cosine top-k via random-hyperplane bucketing.

    Corpus vectors land in sign-pattern buckets; each query scans only the
    buckets within Hamming distance ``probe_hamming`` of its own pattern.
    Recall < 1 by design; measured against :func:`knn_brute_force` in tests.
    """
    import ray

    dim = queries.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes)).astype(np.float32)

    def bucket_of(m: np.ndarray) -> np.ndarray:
        signs = (m @ planes > 0).astype(np.uint32)
        return (signs << np.arange(n_planes, dtype=np.uint32)).sum(axis=1)

    qn = _normalize(queries.astype(np.float32))
    q_buckets = bucket_of(qn)
    # probe set per query: own bucket + Hamming-1 neighbors
    probes: dict[int, list[int]] = {}
    for qi, b in enumerate(q_buckets):
        bs = [int(b)]
        if probe_hamming >= 1:
            bs += [int(b) ^ (1 << p) for p in range(n_planes)]
        probes[qi] = bs
    # invert: bucket -> query indexes that probe it
    bucket_queries: dict[int, list[int]] = {}
    for qi, bs in probes.items():
        for b in bs:
            bucket_queries.setdefault(b, []).append(qi)
    from code_graph_rag_ray.functions.broadcast import get_broadcast

    ref = ray.put((qn, list(query_ids), bucket_queries))

    def bucketize(b: pa.Table) -> pa.Table:
        bk = bucket_of(_to_matrix(b[vec_col])) if b.num_rows else np.empty(0)
        return b.append_column("bucket", pa.array(bk.astype(np.int64), pa.int64()))

    def bucket_scan(batch: pa.Table) -> pa.Table:
        # Arrow/numpy end to end: sort by bucket, one matrix build for the
        # whole batch, per-bucket contiguous slices — no pandas conversion
        # and no per-row vector stacking (round-2 review item)
        q, qids, bq = get_broadcast(ref)
        out_q, out_v, out_s = [], [], []
        if batch.num_rows:
            idx = pc.sort_indices(batch, sort_keys=[("bucket", "ascending")])
            s = batch.take(idx)
            buckets = s["bucket"].to_numpy(zero_copy_only=False)
            mat = _normalize(_to_matrix(s[vec_col]))
            ids_np = s[id_col].to_numpy(zero_copy_only=False)
            ubuckets, starts = np.unique(buckets, return_index=True)
            bounds = np.append(starts, len(buckets))
            for bi, bucket in enumerate(ubuckets):
                qis = bq.get(int(bucket))
                if not qis:
                    continue
                lo, hi = int(bounds[bi]), int(bounds[bi + 1])
                ids = ids_np[lo:hi]
                sims = q[qis] @ mat[lo:hi].T
                kk = min(k, sims.shape[1])
                for row_i, qi in enumerate(qis):
                    row = sims[row_i]
                    order = np.lexsort((ids, -row))[:kk]
                    out_q.extend([qids[qi]] * len(order))
                    out_v.extend(ids[order].tolist())
                    out_s.extend(row[order].astype(float).tolist())
        return _candidates(qids, batch, id_col, out_q, out_v, out_s)

    partials = _mapped(_mapped(ds, bucketize), bucket_scan, batch_size=4096)
    return _merge_top_k(partials, k, id_col)


def knn_ivf(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list,
    *,
    k: int = 10,
    n_clusters: int = 8,
    n_probe: int = 2,
    train_iters: int = 2,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """IVF ANN: a TRAINED coarse quantizer instead of knn_lsh's random
    hyperplanes — the trained path of the same trade. The fixed-point
    k-means (stages/clustering.kmeans_train) learns ``n_clusters``
    centroids; each query scans only its ``n_probe`` nearest cells.

    One extra pass over the corpus per Lloyd iteration at TRAIN time; at
    QUERY time each batch computes cluster membership against the broadcast
    centroid matrix and scores only rows whose cell is probed — the same
    partial-top-k merge as knn_brute_force. Recall grows with n_probe
    (n_probe = n_clusters degenerates to brute force); measured against
    brute in tests."""
    import ray

    from code_graph_rag_ray.functions.broadcast import get_broadcast
    from code_graph_rag_ray.stages.clustering import _quantize, kmeans_train

    cent_ids, cent = kmeans_train(
        ds, k=n_clusters, iters=train_iters, scale=scale,
        id_col=id_col, vec_col=vec_col,
    )

    # per-query probe cells: n_probe nearest centroids (integer distances)
    qq = _quantize(pa.array([list(map(float, q)) for q in queries]), scale)
    d = ((qq[:, None, :].astype(np.int64) - cent[None, :, :]) ** 2).sum(axis=2)
    probe_cells = [
        set(cent_ids[np.argsort(d[i], kind="stable")[:n_probe]].tolist())
        for i in range(len(queries))
    ]
    cell_queries: dict[int, list[int]] = {}
    for qi, cells in enumerate(probe_cells):
        for c in cells:
            cell_queries.setdefault(int(c), []).append(qi)

    qn = _normalize(queries.astype(np.float64))
    ref = ray.put((qn, list(query_ids), cell_queries, cent_ids, cent))

    def cell_scan(batch: pa.Table) -> pa.Table:
        q, qids, cq, cids, cm = get_broadcast(ref)
        if batch.num_rows == 0:
            return _candidates(qids, batch, id_col, [], [], [])
        vq = _quantize(batch[vec_col], scale)
        dd = (
            (vq[:, None, :].astype(np.int64) - cm[None, :, :]) ** 2
        ).sum(axis=2)
        cell = cids[np.argmin(dd, axis=1)]
        vecs = _normalize(_to_matrix(batch[vec_col]).astype(np.float64))
        ids = np.asarray(batch[id_col].to_pylist())
        out_q, out_v, out_s = [], [], []
        for c in np.unique(cell):
            qis = cq.get(int(c))
            if not qis:
                continue
            mask = cell == c
            sub_ids = ids[mask]
            sims = q[qis] @ vecs[mask].T
            kk = min(k, sims.shape[1])
            for row_i, qi in enumerate(qis):
                row = sims[row_i]
                order = np.lexsort((sub_ids, -row))[:kk]
                out_q.extend([qids[qi]] * len(order))
                out_v.extend(sub_ids[order].tolist())
                out_s.extend(row[order].astype(float).tolist())
        return _candidates(qids, batch, id_col, out_q, out_v, out_s)

    return _merge_top_k(_mapped(ds, cell_scan, batch_size=4096), k, id_col)
