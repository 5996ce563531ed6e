"""Distributed k-means over an embedding column — integer-lattice Lloyd.

Clustering is the canonical "organize a 100 TB corpus" operator (topic
bucketing, dedup sharding, curriculum mixing). The classic float Lloyd
iteration is NOT reproducible across parallelism (centroid means are
accumulation-order-dependent), so this is a fixed-point variant:

- embeddings quantize once to an int64 lattice (``round(x * scale)``,
  half-away-from-zero — DuckDB's round),
- distances are exact integer ``Σ (q - c)²``; argmin tie-breaks on the
  smallest cluster id,
- centroid update is ``floor(Σ q / n)`` per dimension — exact integer,
  order-free,

so every iteration is deterministic at any block layout AND replayable by
the DuckDB oracle (bit-exact assignments, not approximately-equal ones).
Quantization costs ≤ 0.5/scale per dimension — irrelevant for bucketing.

Scale shape: assignment is a stateless ``map_batches`` against a broadcast
k×dim int64 matrix (tiny); the update is a two-phase grouped sum over
(cluster) of the dim columns — one small shuffle per iteration. Empty
clusters are dropped (matching the oracle's join semantics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import partial_groupby_sum


def _quantize(vecs: pa.Array | pa.ChunkedArray, scale: int) -> np.ndarray:
    """list<float> column → (n, dim) int64 matrix, round half-away (the
    DuckDB ``round``)."""
    if isinstance(vecs, pa.ChunkedArray):
        vecs = vecs.combine_chunks()
    flat = pc.cast(vecs.flatten(), pa.float64())
    q = pc.cast(
        pc.round(pc.multiply(flat, pa.scalar(float(scale))),
                 round_mode="half_towards_infinity"),
        pa.int64(),
    ).to_numpy(zero_copy_only=False)
    n = len(vecs)
    return q.reshape(n, len(q) // n if n else 0)


def kmeans_train(
    embeds: Dataset,
    *,
    k: int = 8,
    iters: int = 2,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the Lloyd loop and return (cluster_ids, centroid_matrix) — the
    trained coarse quantizer (int64 lattice), e.g. for IVF ANN routing
    (stages/similarity.knn_ivf)."""
    ds, cent_ids, cent = _kmeans_impl(
        embeds, k=k, iters=iters, scale=scale, id_col=id_col, vec_col=vec_col
    )
    del ds
    return cent_ids, cent


def kmeans_fixed_point(
    embeds: Dataset,
    *,
    k: int = 8,
    iters: int = 2,
    scale: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> Dataset:
    """embeddings → (vec_id, cluster, dist) after ``iters`` Lloyd rounds.

    Initial centroids are the quantized vectors of the k smallest ids
    (deterministic, content-derived — no RNG). ``cluster`` is the 0-based
    rank of the seed id. The returned assignment uses the FINAL centroids.
    """
    ds, _, _ = _kmeans_impl(
        embeds, k=k, iters=iters, scale=scale, id_col=id_col, vec_col=vec_col
    )
    return ds


def _kmeans_impl(
    embeds: Dataset,
    *,
    k: int,
    iters: int,
    scale: int,
    id_col: str,
    vec_col: str,
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    from code_graph_rag_ray.stages.relational import top_k

    # k seed rows via block-local pruning, never a full sort of the input
    seeds = top_k(embeds, id_col, k, descending=False).take_all()
    cent_ids = np.arange(len(seeds))
    cent = _quantize(
        pa.array([list(map(float, s[vec_col])) for s in seeds],
                 pa.list_(pa.float64())), scale
    )

    def assign_factory(cent: np.ndarray, cent_ids: np.ndarray, emit: str):
        """emit='update' → per-batch partial centroid sums;
        emit='assign' → (id, cluster, dist) rows."""

        def fn(b: pa.Table) -> pa.Table:
            q = _quantize(b[vec_col], scale)
            if q.size == 0:
                if emit == "assign":
                    return pa.table({id_col: pa.array([], pa.int64()),
                                     "cluster": pa.array([], pa.int64()),
                                     "dist": pa.array([], pa.int64())})
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64()),
                                 **{f"d{j}": pa.array([], pa.int64())
                                    for j in range(cent.shape[1])}})
            # exact integer distances: ||q||² + ||c||² − 2 q·c
            qq = (q * q).sum(axis=1)[:, None]
            cc = (cent * cent).sum(axis=1)[None, :]
            d = qq + cc - 2 * (q @ cent.T)
            j = np.argmin(d, axis=1)  # first min = smallest cluster id
            cl = cent_ids[j]
            if emit == "assign":
                return pa.table(
                    {id_col: b[id_col],
                     "cluster": pa.array(cl.astype(np.int64)),
                     "dist": pa.array(d[np.arange(len(j)), j].astype(np.int64))}
                )
            # partial per-cluster sums (combiner): ≤ k rows out per batch
            order = np.argsort(cl, kind="stable")
            cs = cl[order]
            qs = q[order]
            uniq, starts = np.unique(cs, return_index=True)
            ends = np.append(starts[1:], len(cs))
            sums = np.add.reduceat(qs, starts, axis=0)
            cols = {"cluster": pa.array(uniq.astype(np.int64)),
                    "n": pa.array((ends - starts).astype(np.int64))}
            for jdim in range(q.shape[1]):
                cols[f"d{jdim}"] = pa.array(sums[:, jdim])
            return pa.table(cols)

        return fn

    dim = cent.shape[1]
    for _ in range(iters if len(seeds) else 0):
        partial = embeds.map_batches(
            assign_factory(cent, cent_ids, "update"), batch_format="pyarrow"
        )
        sums = partial_groupby_sum(
            partial, ["cluster"],
            {**{f"d{j}": f"d{j}" for j in range(dim)}, "n": "n"},
        ).take_all()  # ≤ k rows
        sums.sort(key=lambda r: r["cluster"])
        cent_ids = np.array([r["cluster"] for r in sums], np.int64)
        cent = np.stack(
            [
                np.floor_divide(
                    np.array([r[f"d{j}"] for j in range(dim)], np.int64),
                    np.int64(r["n"]),
                )
                for r in sums
            ]
        )

    assigned = embeds.map_batches(
        assign_factory(cent, cent_ids, "assign"), batch_format="pyarrow"
    )
    return assigned, cent_ids, cent
