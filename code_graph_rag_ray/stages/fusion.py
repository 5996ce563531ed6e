"""Fact fusion / truth discovery: per (subj, pred) dominant object across
conflicting provenances.

The missing last step between "edge table" and "clean KG": when sources
disagree ((s, p) asserted with different objects by different pages), pick
the majority-vote object with deterministic ties and record the evidence
(vote count, total votes, number of conflicting candidates, integer-exact
dominance ratio). Reference analog: cgr's Memgraph MERGE applies
last-write-wins per key (`graph_service.py:395-428`) — arrival-order
dependent; this stage replaces that with content-determined voting.

Scale shape: votes fold through the standard partial-count shuffle
(one row per (s,p,o) per batch); the grouped argmax runs one vectorized
Arrow sort + first-of-run pick per ``relational.bucketed_groups``
bucket, because (subj, pred) group count is corpus-scale and Ray's
sort-aggregate pays a fixed per-GROUP cost (NOTES.md fact 25). Ties
break by (votes DESC, obj ASC): content-derived, never
arrival-order-derived (NOTES.md «Correctness invariants»).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset


def fuse_facts(
    edges: Dataset,
    *,
    subj: str = "subj",
    pred: str = "pred",
    obj: str = "obj",
) -> Dataset:
    """(subj, pred, obj, votes, total_votes, n_objs, dominance_micro):
    one row per (subj, pred) carrying its majority-vote object.

    ``edges`` rows are treated as one vote each — feed the per-provenance
    deduped edge table (build_kg's contract) so votes = number of distinct
    sources asserting the triple. ``dominance_micro`` =
    (10^6 · votes) // total_votes, exact integer arithmetic.
    """
    from code_graph_rag_ray.stages.relational import (
        _runs,
        bucketed_groups,
        partial_groupby_sum,
        run_starts,
    )

    def norm(b: pa.Table) -> pa.Table:
        return pa.table({"subj": pc.cast(b[subj], pa.string()),
                         "pred": pc.cast(b[pred], pa.string()),
                         "obj": pc.cast(b[obj], pa.string())})

    votes = partial_groupby_sum(
        edges.map_batches(norm, batch_format="pyarrow"),
        ["subj", "pred", "obj"], {}, count_alias="votes",
    )

    def fuse(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[
            ("subj", "ascending"), ("pred", "ascending"),
            ("votes", "descending"), ("obj", "ascending")]))
        starts, n_objs, _ = _runs(run_starts(g, ["subj", "pred"]))
        votes = np.asarray(g["votes"].to_numpy(zero_copy_only=False), np.int64)
        v = votes[starts]
        t = np.add.reduceat(votes, starts) if len(starts) else v
        # object-dtype product: exact past int64 at extreme vote counts
        micro = ((v.astype(object) * 10**6) // t).astype(np.int64)
        d = g.take(starts)
        return pa.table(
            {"subj": d["subj"], "pred": d["pred"], "obj": d["obj"],
             "votes": pa.array(v), "total_votes": pa.array(t),
             "n_objs": pa.array(n_objs, pa.int64()),
             "dominance_micro": pa.array(micro)}
        )

    return bucketed_groups(votes, ["subj", "pred"], fuse)
