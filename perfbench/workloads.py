"""The four benchmark workloads. Why each exists is in ``NOTES.md``.

A workload has four parts, all called by ``run.py``:

* ``generate()`` makes the inputs from the seed (timed as part of set-up,
  several times per run),
* ``run_once()`` is one timed iteration; it returns its samples: the
  wall time ``work_s``, the operations it attempted ``ops``, and any
  finer samples (lookup latencies, per-query walls),
* ``check()`` compares everything the iterations produced with a
  reference computed outside the timed region, and returns how many
  outputs it checked and the failures,
* ``traced()`` is one iteration of the traced run and returns per-layer
  values.

Sizes are fixed constants, chosen so one run fits a 1-CPU Ray session in
well under the run budget; they are not options.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from perfbench import inputs
from perfbench.trace import (
    ExecutorStats,
    LayerCounters,
    LocalDataset,
    NullTracer,
    Tracer,
)

EDGE_COLS = ["subj", "pred", "obj", "provenance_url"]
METHODS = ("exact", "recency", "unique", "prior", "context", "acronym",
           "host_prior", "external")


def edge_digest(t: pa.Table, cols: list[str] = EDGE_COLS) -> int:
    """Order-insensitive digest of an edge table: mod-2^64 sum of per-row
    stable hashes over ``cols`` joined with a unit separator."""
    from code_graph_rag_ray.functions.hashing import stable_hash_array

    if t.num_rows == 0:
        return 0
    joined = pc.binary_join_element_wise(*[t[c] for c in cols], "\x1f")
    with np.errstate(over="ignore"):
        return int(stable_hash_array(joined).sum(dtype=np.uint64))


def count_and_digest(b: pa.Table) -> pa.Table:
    """In-task sink: one (rows, digest) row per block leaves the worker."""
    return pa.table({"n": pa.array([b.num_rows], pa.int64()),
                     "digest": pa.array([edge_digest(b)], pa.uint64())})


def _sum_digests(t: pa.Table) -> tuple[int, int]:
    with np.errstate(over="ignore"):
        d = t["digest"].to_numpy().sum(dtype=np.uint64) if t.num_rows else 0
    return int(pc.sum(t["n"]).as_py() or 0), int(d)


def _layer_metrics(tracer: Tracer, trace_id: int, counters: LayerCounters) -> dict:
    st = tracer.self_times(trace_id)
    ms = {k: v * 1e3 for k, v in st.items()}
    m = {
        "sources.busy_ms": ms.get("sources", 0.0),
        "sources.rows_out": counters.rows_out["sources"],
        "sources.bytes_out": counters.bytes_out["sources"],
        "extract.busy_ms": ms.get("extract", 0.0),
        "extract.rows_in": counters.rows_in["extract"],
        "extract.bytes_in": counters.bytes_in["extract"],
        "extract.bytes_out": counters.bytes_out["extract"],
        "extract.errors": counters.extract_errors,
        "linking.busy_ms": ms.get("linking", 0.0),
        "linking.pages_in": counters.rows_in["linking"],
        "linking.mentions_out": counters.rows_out["linking"],
        "linking.triple_rows": counters.triple_rows,
        "linking.useful_ratio": (counters.triple_rows / counters.rows_out["linking"]
                                 if counters.rows_out["linking"] else 0.0),
        "kg.project_ms": ms.get("kg.project", 0.0),
        "kg.split_ms": ms.get("kg.split", 0.0),
        "kg.dedup_ms": ms.get("kg.dedup", 0.0),
        "kg.raw_triples": counters.rows_out["kg.project"],
        "kg.edges_out": counters.rows_out["kg.dedup"],
        "kg.dedup_ratio": (counters.rows_out["kg.dedup"] / counters.rows_in["kg.dedup"]
                           if counters.rows_in["kg.dedup"] else 0.0),
        # an edges-only build never runs the external branch: count the
        # triple rows its split did not keep as internal
        "kg.external_edges": counters.rows_out["kg.project"] - counters.internal_rows,
    }
    methods = counters.last_methods()
    for name in METHODS:
        m[f"linking.method.{name}"] = methods.get(name, 0)
    return m


class _BuildWorkload:
    """Shared shape of the two build workloads: a KG build over in-memory
    input tables, consumed by an in-task count-and-digest sink."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.outputs: list[tuple[int, int]] = []

    # subclasses: generate(), tables(), build(pages), check(), sizes()

    def _pages(self, ds):
        """The pages dataset the build reads, from the input tables in ``ds``."""
        return ds

    def run_once(self) -> dict:
        import ray
        import ray.data as rd

        t0 = time.perf_counter()
        kg = self.build(self._pages(rd.from_arrow(self.tables())))
        out = kg["edges"].map_batches(count_and_digest, batch_format="pyarrow",
                                      batch_size=None).materialize()
        wall = time.perf_counter() - t0
        self.outputs.append(_sum_digests(pa.concat_tables(ray.get(out.to_arrow_refs()))))
        return {"work_s": wall, "ops": 1}

    def _replay(self, tables: list[pa.Table], tracer: Tracer,
                counters: LayerCounters | None) -> tuple[int, int]:
        """The same build over :class:`LocalDataset`: every stage UDF runs
        in this process with a span around it."""
        with tracer.span("kg.plan"):
            kg = self.build(self._pages(LocalDataset.from_tables(tables, tracer, counters)))
        sink = kg["edges"].map_batches(count_and_digest, batch_format="pyarrow",
                                       batch_size=None)
        return _sum_digests(pa.concat_tables(list(sink.iter_tables())))

    def _untraced_build(self, stats: ExecutorStats) -> tuple[float, dict]:
        stats.take()
        t0 = time.perf_counter()
        self.run_once()
        wall = time.perf_counter() - t0
        return wall, stats.take()

    def _metrics(self, tracer: Tracer, counters: LayerCounters, wall: float,
                 ex: dict, stage_s: float, udf_s: float, overhead_s: float,
                 mine_s: float) -> dict:
        m = _layer_metrics(tracer, tracer.trace_id, counters)
        m.update({
            "linking.host_prior_mine_s": mine_s,
            "executor.udf_s": ex["udf_s"],
            "executor.wall_s": wall,
            "executor.overhead_s": wall - ex["udf_s"],
            "executor.exchanges": ex["exchanges"],
            "executor.tasks": ex["tasks"],
            "trace.stage_self_s": stage_s,
            "trace.reconcile_ratio": stage_s / udf_s,
            "trace.overhead_ms": overhead_s * 1e3,
        })
        return m

    def check(self) -> tuple[int, list[str]]:
        ref = self.reference()
        return len(self.outputs), [
            f"{self.name}: build {i} gave (rows, digest) {got}, reference {ref}"
            for i, got in enumerate(self.outputs) if got != ref]


class _ReplayTask:
    """Ray UDF of the traced headline run: replays the build over one input
    block inside the worker, with spans, so the stage times and the UDF
    time Ray reports come from the same execution. Returns the block's
    (rows, digest) with its spans and counts as JSON."""

    def __init__(self, workload: _BuildWorkload) -> None:
        self.workload = workload

    def __call__(self, block: pa.Table) -> pa.Table:
        tracer, counters = Tracer(), LayerCounters()
        n, digest = self.workload._replay([block], tracer, counters)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "digest": pa.array([digest], pa.uint64()),
                         "spans": [json.dumps(tracer.spans)],
                         "counters": [json.dumps(counters.state())]})


class Headline(_BuildWorkload):
    """Documents replicated into pages with distinct ids, 17 identity
    aliases: extract and the exact-tier linker do the work."""

    name = "headline"
    DOCS = 5000
    COPIES = 2

    def generate(self) -> None:
        from code_graph_rag_ray.functions.vocab import (
            ENTITY_VOCAB_SORTED,
            RELATION_VOCAB_SORTED,
        )

        self.copies = inputs.replicate(inputs.documents(self.DOCS, self.seed), self.COPIES)
        self.alias_tbl = pa.Table.from_pylist(
            [{"alias": w, "entity_id": w, "prior": 1.0} for w in ENTITY_VOCAB_SORTED])
        self.relations = {w: w for w in RELATION_VOCAB_SORTED}

    def tables(self) -> list[pa.Table]:
        return self.copies

    def _pages(self, ds):
        from code_graph_rag_ray.sources.pages import _docs_to_pages_batch

        return ds.map_batches(_docs_to_pages_batch, batch_format="pyarrow")

    def build(self, pages) -> dict:
        from code_graph_rag_ray.pipelines.kg import build_kg

        return build_kg(pages, self.alias_tbl, relations=self.relations,
                        materialize_mentions=False, build_nodes=False)

    def traced(self, tracer: Tracer, stats: ExecutorStats) -> dict:
        """One traced iteration: the Ray build as timed, then a Ray
        execution whose UDF replays the build with spans. Stage self times
        reconcile with that execution's UDF time; the wall-time difference
        between the two executions is the tracing overhead."""
        import ray
        import ray.data as rd

        wall, ex = self._untraced_build(stats)
        t0 = time.perf_counter()
        out = rd.from_arrow(self.tables()).map_batches(
            _ReplayTask(self), batch_format="pyarrow", batch_size=None).materialize()
        traced_wall = time.perf_counter() - t0
        traced_ex = stats.take()
        rows = pa.concat_tables(ray.get(out.to_arrow_refs()))
        counters = LayerCounters()
        for spans, state in zip(rows["spans"].to_pylist(), rows["counters"].to_pylist()):
            tracer.adopt(json.loads(spans))
            counters.merge(json.loads(state))
        self.outputs.append(_sum_digests(rows))
        stage_s = sum(v for k, v in tracer.self_times(tracer.trace_id).items()
                      if k != "kg.plan")
        return self._metrics(tracer, counters, wall, ex, stage_s, traced_ex["udf_s"],
                             traced_wall - wall, 0.0)

    def reference(self) -> tuple[int, int]:
        """Single-process reference from the stage functions: pages →
        extract → link → triple rows → internal edges → distinct."""
        from code_graph_rag_ray.sources.pages import _docs_to_pages_batch
        from code_graph_rag_ray.stages.extract import extract_text_batch
        from code_graph_rag_ray.stages.linking import MentionLinker

        linker = MentionLinker(self.alias_tbl, self.relations)
        parts = []
        for t in self.copies:
            m = linker(extract_text_batch(_docs_to_pages_batch(t)))
            m = m.filter(pc.is_valid(m["rel"]))
            e = pa.table({"subj": m["entity_id"], "pred": m["rel"],
                          "obj": m["obj_entity_id"], "provenance_url": m["url"]})
            ext = pc.or_(pc.starts_with(e["subj"], "ext::"),
                         pc.starts_with(e["obj"], "ext::"))
            parts.append(e.filter(pc.invert(ext)))
        edges = pa.concat_tables(parts).group_by(EDGE_COLS, use_threads=False).aggregate([])
        return edges.num_rows, edge_digest(edges)

    def sizes(self) -> dict:
        return {"pages": self.DOCS * self.COPIES, "docs": self.DOCS,
                "copies": self.COPIES}


class Cascade(_BuildWorkload):
    """The seeded pages fixture with its ambiguous alias table and the
    two-pass host-prior build: the Python resolution cascade is timed."""

    name = "cascade"
    PAGES = 2000

    def generate(self) -> None:
        from code_graph_rag_ray.sources.pages import generate_pages

        self.fx = generate_pages(self.PAGES, self.seed)
        self.gold = {(r["subj"], r["pred"], r["obj"], r["url"])
                     for r in self.fx.expected_triples.to_pylist()}
        self.edge_sets: list[set] = []

    def tables(self) -> list[pa.Table]:
        return [self.fx.pages]

    def build(self, pages) -> dict:
        from code_graph_rag_ray.pipelines.kg import build_kg

        return build_kg(pages, self.fx.alias_dict, host_priors=True, build_nodes=False)

    def run_once(self) -> dict:
        import ray
        import ray.data as rd

        t0 = time.perf_counter()
        kg = self.build(rd.from_arrow(self.tables()))
        out = kg["edges"].select_columns(EDGE_COLS).materialize()
        wall = time.perf_counter() - t0
        edges = pa.concat_tables(ray.get(out.to_arrow_refs()))
        self.edge_sets.append(set(zip(*(edges[c].to_pylist() for c in EDGE_COLS))))
        self.outputs.append((edges.num_rows, edge_digest(edges)))
        return {"work_s": wall, "ops": 1}

    def traced(self, tracer: Tracer, stats: ExecutorStats) -> dict:
        """One traced iteration: the Ray build, the same build replayed in
        this process with spans, and the replay again without spans (the
        difference is the tracing overhead). The replay cannot run inside
        a worker: its mining exchange goes back to Ray, which a 1-CPU
        session cannot schedule from inside a task."""
        wall, ex = self._untraced_build(stats)
        if not tracer.spans:
            # the first in-process build pays one-time set-up (this process's
            # cached linker), which is not tracing overhead
            self._replay(self.tables(), NullTracer(), None)
            stats.take()
        counters = LayerCounters()
        t0 = time.perf_counter()
        self.outputs.append(self._replay(self.tables(), tracer, counters))
        traced_wall = time.perf_counter() - t0
        mined = stats.take()  # the executions the replay handed to Ray
        t0 = time.perf_counter()
        self._replay(self.tables(), NullTracer(), None)
        untraced_wall = time.perf_counter() - t0
        stats.take()
        st = tracer.self_times(tracer.trace_id)
        stage_s = sum(v for k, v in st.items() if k != "kg.plan") + mined["udf_s"]
        # the mining exchange runs in Ray while build_kg plans pass 2
        mine_s = st.get("kg.plan", 0.0) + st.get("linking.host_prior_mine", 0.0)
        return self._metrics(tracer, counters, wall, ex, stage_s, ex["udf_s"],
                             traced_wall - untraced_wall, mine_s)

    def check(self) -> tuple[int, list[str]]:
        """Precision and recall against the planted gold are exactly 1.0,
        and every build (traced replays too) gives the same edges."""
        from code_graph_rag_ray.functions.scoring import score_sets

        bad = []
        for i, got in enumerate(self.edge_sets):
            s = score_sets(got, self.gold)
            if s.precision != 1.0 or s.recall != 1.0:
                bad.append(f"cascade: build {i} precision {s.precision} recall {s.recall}")
        if len(set(self.outputs)) > 1:
            bad.append(f"cascade: builds disagree: {sorted(set(self.outputs))}")
        return len(self.edge_sets) + 1, bad

    def sizes(self) -> dict:
        return {"pages": self.PAGES, "aliases": self.fx.alias_dict.num_rows,
                "gold_triples": len(self.gold)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(np.ceil(q / 100 * len(s))) - 1))]


def _sorted_edges(t: pa.Table) -> pa.Table:
    t = t.select(EDGE_COLS)
    return t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in EDGE_COLS]))


def _rows_by_key(edges: pa.Table, col: str, keys: list[str]) -> dict[str, pa.Table]:
    """``{key: sorted rows of edges whose col == key}`` for every key."""
    hit = _sorted_edges(edges.filter(pc.is_in(edges[col], value_set=pa.array(keys))))
    hit = hit.take(pc.sort_indices(hit[col]))  # stable: keeps the edge order per key
    vals = np.asarray(hit[col].to_pylist(), dtype=object)
    starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]]) if len(vals) else []
    out = {k: hit.slice(0, 0) for k in keys}
    for a, b in zip(starts, list(starts[1:]) + [len(vals)]):
        out[vals[a]] = hit.slice(a, b - a)
    return out


class Store:
    """Materialize a fixture edge table into the hash-partitioned store,
    digest it, then serve Zipf-skewed subject lookups (about 10% misses)
    and object scans, one client in a closed loop.

    Its traced run also sweeps the catalog queries (see :class:`Catalog`),
    so the catalog's per-layer metrics and oracle check are part of every
    set of runs without a timed catalog workload."""

    name = "store"
    ROWS = 60_000
    SUBJECTS = 5000
    PARTS = 16
    SUBJ_LOOKUPS = 200
    OBJ_SCANS = 20

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.bad: list[str] = []
        self.checked = 0
        self.catalog = Catalog(seed, scratch)

    def generate(self) -> None:
        from code_graph_rag_ray.functions.hashing import partition_ids

        self.edges = inputs.edges(self.ROWS, self.SUBJECTS, self.seed)
        rng = np.random.default_rng(self.seed + 1)
        ranks = np.minimum(rng.zipf(1.3, self.SUBJ_LOOKUPS), self.SUBJECTS) - 1
        miss = rng.random(self.SUBJ_LOOKUPS) < 0.1
        self.subj_keys = [f"absent{i}" if m else f"ent{r}"
                          for i, (r, m) in enumerate(zip(ranks, miss))]
        self.obj_keys = [f"ent{k}" for k in rng.integers(0, self.SUBJECTS, self.OBJ_SCANS)]
        # references: Arrow filters of the in-memory edge table, and each
        # partition's row count and digest ("<rows>:<hex>" over the columns
        # in name order, the store's documented digest)
        self.ref_subj = _rows_by_key(self.edges, "subj", self.subj_keys)
        self.ref_obj = _rows_by_key(self.edges, "obj", self.obj_keys)
        part = pa.array(partition_ids(self.edges["subj"], self.PARTS), pa.int32())
        self.part_rows, self.ref_digests = {}, {}
        for p in range(self.PARTS):
            t = self.edges.filter(pc.equal(part, p))
            self.part_rows[f"part={p}"] = t.num_rows
            d = edge_digest(t, sorted(EDGE_COLS))
            self.ref_digests[f"part={p}"] = f"{t.num_rows}:{d:x}" if t.num_rows else "0:0"
        self.part_of = {k: f"part={p}" for k, p in zip(
            self.subj_keys,
            partition_ids(pa.array(self.subj_keys, pa.string()), self.PARTS))}

    def _write(self, out_dir: str, tracer: Tracer) -> dict:
        import ray.data as rd

        from code_graph_rag_ray.state.lineage import (
            partition_digests,
            partition_manifest,
            resume_materialize,
        )

        with tracer.span("materialize.write"):
            resume_materialize(rd.from_arrow(self.edges), out_dir, key="subj",
                               sort_by=EDGE_COLS, num_partitions=self.PARTS)
        if not isinstance(tracer, NullTracer):
            # resume_materialize writes the manifest last; time that step
            # on its own by writing it once more
            with tracer.span("lineage.manifest"):
                partition_manifest(out_dir, expected=self.PARTS)
        with tracer.span("lineage.digest"):
            return partition_digests(out_dir)

    def _read(self, out_dir: str, tracer: Tracer):
        from code_graph_rag_ray.stages.serve import query_edges

        subj_res, obj_res, subj_ms, obj_ms = [], [], [], []
        for k in self.subj_keys:
            t0 = time.perf_counter()
            with tracer.span("serve.subj"):
                subj_res.append(query_edges(out_dir, subj=k, num_partitions=self.PARTS))
            subj_ms.append((time.perf_counter() - t0) * 1e3)
        for k in self.obj_keys:
            t0 = time.perf_counter()
            with tracer.span("serve.obj"):
                obj_res.append(query_edges(out_dir, obj=k, num_partitions=self.PARTS))
            obj_ms.append((time.perf_counter() - t0) * 1e3)
        return subj_res, obj_res, subj_ms, obj_ms

    def _verify(self, out_dir: str, digests: dict, subj_res: list, obj_res: list) -> None:
        from code_graph_rag_ray.state.lineage import read_manifest

        it = self.checked
        if (read_manifest(out_dir) or {}).get("partitions") != self.part_rows:
            self.bad.append(f"store: iteration {it}: manifest rows differ from the reference")
        if digests != self.ref_digests:
            self.bad.append(f"store: iteration {it}: partition digests differ from the reference")
        for k, got in zip(self.subj_keys, subj_res):
            if not _sorted_edges(got).equals(self.ref_subj[k]):
                self.bad.append(f"store: iteration {it}: lookup subj={k} differs")
        for k, got in zip(self.obj_keys, obj_res):
            if not _sorted_edges(got).equals(self.ref_obj[k]):
                self.bad.append(f"store: iteration {it}: scan obj={k} differs")
        self.checked += 1

    def run_once(self) -> dict:
        out_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            t0 = time.perf_counter()
            digests = self._write(out_dir, NullTracer())
            t_write = time.perf_counter() - t0
            subj_res, obj_res, subj_ms, obj_ms = self._read(out_dir, NullTracer())
            wall = time.perf_counter() - t0
            self._verify(out_dir, digests, subj_res, obj_res)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return {"work_s": wall, "materialize_s": t_write, "lookup_subj_ms": subj_ms,
                "lookup_obj_ms": obj_ms, "ops": 1 + len(subj_ms) + len(obj_ms)}

    def traced(self, tracer: Tracer, stats: ExecutorStats) -> dict:
        out_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        tid = tracer.trace_id
        try:
            stats.take()
            with tracer.span("iteration"):
                t0 = time.perf_counter()
                digests = self._write(out_dir, tracer)
                t_write = time.perf_counter() - t0
                ex = stats.take()
                subj_res, obj_res, subj_ms, obj_ms = self._read(out_dir, tracer)
            files = [os.path.join(r, f) for r, _, fs in os.walk(out_dir)
                     for f in fs if f.endswith(".parquet")]
            n_bytes = sum(os.path.getsize(f) for f in files)
            self._verify(out_dir, digests, subj_res, obj_res)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        st = tracer.self_times(tid)
        rows = list(self.part_rows.values())
        examined = (sum(self.part_rows[self.part_of[k]] for k in self.subj_keys)
                    + self.edges.num_rows * len(self.obj_keys))
        results = sum(t.num_rows for t in subj_res + obj_res)
        return self._traced_catalog(tracer, stats) | {
            "executor.udf_s": ex["udf_s"],
            "executor.wall_s": t_write,
            "executor.overhead_s": t_write - ex["udf_s"],
            "executor.exchanges": ex["exchanges"],
            "executor.tasks": ex["tasks"],
            "materialize.write_s": st.get("materialize.write", 0.0),
            "materialize.rows": sum(rows),
            "materialize.bytes_written": n_bytes,
            "materialize.files": len(files),
            "materialize.partition_skew": max(rows) / (sum(rows) / len(rows)),
            "materialize.exchanges": ex["exchanges"],
            "lineage.manifest_ms": st.get("lineage.manifest", 0.0) * 1e3,
            "lineage.digest_s": st.get("lineage.digest", 0.0),
            "serve.subj_ms": statistics.median(subj_ms),
            "serve.subj_p99_ms": percentile(subj_ms, 99),
            "serve.obj_ms": statistics.median(obj_ms),
            "serve.obj_p90_ms": percentile(obj_ms, 90),
            "serve.rows_examined_per_result": examined / max(1, results),
            "serve.miss_rate": sum(t.num_rows == 0 for t in subj_res) / len(subj_res),
        }

    def _traced_catalog(self, tracer: Tracer, stats: ExecutorStats) -> dict:
        """One traced catalog sweep; ``catalog.*`` metrics only (the
        ``executor.*`` ones are the store write's). The first call makes the
        catalog inputs and runs an untraced warm-up sweep."""
        if self.catalog.sf_dir is None:
            self.catalog.generate()
            self.catalog.run_once()
        m = self.catalog.traced(tracer, stats)
        return {k: v for k, v in m.items() if k.startswith("catalog.")}

    def check(self) -> tuple[int, list[str]]:
        if not self.catalog.results:
            return self.checked, self.bad
        n, bad = self.catalog.check()
        return self.checked + n, self.bad + bad

    def sizes(self) -> dict:
        return {"edges": self.edges.num_rows, "subjects": self.SUBJECTS,
                "partitions": self.PARTS, "subj_lookups_per_iter": self.SUBJ_LOOKUPS,
                "obj_scans_per_iter": self.OBJ_SCANS}


class Catalog:
    """A fixed sweep of oracle-backed catalog queries, one per query family
    the bucketed-groups refactor touches, over generated tables."""

    name = "catalog"
    QUERIES = ("page_degree", "kg_path_2hop", "doc_minhash_pairs",
               "events_session_assign", "kg_fact_fusion")
    DOCS = 500
    EVENTS = 10_000
    USERS = 150

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.sf_dir: str | None = None
        self.results: list[dict] = []

    def generate(self) -> None:
        import pyarrow.parquet as pq

        if self.sf_dir:
            shutil.rmtree(self.sf_dir, ignore_errors=True)
        self.sf_dir = tempfile.mkdtemp(prefix="sf-", dir=self.scratch)
        pq.write_table(inputs.documents(self.DOCS, self.seed),
                       os.path.join(self.sf_dir, "documents.parquet"))
        pq.write_table(inputs.events(self.EVENTS, self.USERS, self.seed),
                       os.path.join(self.sf_dir, "events.parquet"))

    def _query(self, name: str):
        import ray.data as rd

        from code_graph_rag_ray.pipelines.catalog import QUERIES

        res = QUERIES[name](self.sf_dir)
        return res.materialize() if isinstance(res, rd.Dataset) else res

    def run_once(self) -> dict:
        from code_graph_rag_ray.stages.relational import clear_broadcast_cache

        sample, out = {"work_s": 0.0, "ops": len(self.QUERIES)}, {}
        for q in self.QUERIES:
            clear_broadcast_cache()
            t0 = time.perf_counter()
            out[q] = self._query(q)
            wall = time.perf_counter() - t0
            sample[f"{q}_s"] = wall
            sample["work_s"] += wall
        self.results.append(out)
        return sample

    def traced(self, tracer: Tracer, stats: ExecutorStats) -> dict:
        from code_graph_rag_ray.stages.relational import clear_broadcast_cache

        m, out = {}, {}
        totals = Counter()
        for q in self.QUERIES:
            clear_broadcast_cache()
            stats.take()
            t0 = time.perf_counter()
            with tracer.span(f"catalog.{q}"):
                out[q] = self._query(q)
            wall = time.perf_counter() - t0
            ex = stats.take()
            m[f"catalog.{q}.wall_s"] = wall
            m[f"catalog.{q}.exchanges"] = ex["exchanges"]
            m[f"catalog.{q}.udf_s"] = ex["udf_s"]
            totals.update({"wall": wall, "udf": ex["udf_s"], "exchanges": ex["exchanges"],
                           "tasks": ex["tasks"]})
        self.results.append(out)
        m.update({
            "executor.udf_s": totals["udf"],
            "executor.wall_s": totals["wall"],
            "executor.overhead_s": totals["wall"] - totals["udf"],
            "executor.exchanges": totals["exchanges"],
            "executor.tasks": totals["tasks"],
        })
        return m

    def check(self) -> tuple[int, list[str]]:
        """Every result equals its DuckDB oracle under the canonical compare
        of ``tools/check_oracles.py``."""
        import importlib.util

        import duckdb

        from code_graph_rag_ray.pipelines.catalog import ORACLES

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "check_oracles", os.path.join(root, "tools", "check_oracles.py"))
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)

        con = duckdb.connect()
        for table in ("documents", "events"):
            path = os.path.join(self.sf_dir, f"{table}.parquet")
            con.execute(f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{path}')")
        bad = []
        for q in self.QUERIES:
            want = con.execute(ORACLES[q]).fetchdf()
            for i, out in enumerate(self.results):
                problems = oracles.compare(q, oracles.to_pandas(out[q]), want)
                bad += [f"catalog: sweep {i} {q}: {p}" for p in problems]
        con.close()
        return len(self.QUERIES) * len(self.results), bad

    def sizes(self) -> dict:
        return {"documents": self.DOCS, "events": self.EVENTS, "users": self.USERS,
                "queries": list(self.QUERIES)}


WORKLOADS = {w.name: w for w in (Headline, Cascade, Store, Catalog)}
