"""Tracing for the traced run (``--trace 1``).

Three pieces, all owned by the benchmark and not by the program:

* :class:`Tracer` records spans (name, start, end, parent, trace id) in
  memory and writes them out once, when the run ends.
* :class:`LocalDataset` stands in for a Ray ``Dataset`` so that a pipeline
  function such as ``build_kg`` runs its per-block stages in this process,
  block by block, with a span around every UDF call. Ray fuses the whole
  build into one operator, so this is how one build gets per-stage times.
* :class:`ExecutorStats` collects the per-execution operator statistics
  that ``Dataset.stats()`` reports (UDF time, tasks, and the all-to-all
  exchanges), for every execution a workload triggers, including
  executions the program starts internally.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator

import pyarrow as pa
import pyarrow.compute as pc


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Spans nest through a stack, so a span's children never overlap each
    other: the time children cover is the sum of their durations.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "trace": self.trace_id,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def self_times(self, trace_id: int | None = None) -> dict[str, float]:
        """Seconds per span name: duration minus the time child spans cover."""
        spans = [s for s in self.spans if trace_id is None or s["trace"] == trace_id]
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(out)

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by another tracer (in a Ray worker) under
        the current trace id, renumbered after the spans already here."""
        base = len(self.spans)
        for sp in spans:
            self.spans.append(sp | {
                "id": sp["id"] + base, "trace": self.trace_id,
                "parent": None if sp["parent"] is None else sp["parent"] + base})

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NullTracer(Tracer):
    """Records nothing: the untraced side of the tracing overhead."""

    def span(self, name: str):  # noqa: ARG002 - same signature as Tracer.span
        return contextlib.nullcontext()


# -- per-stage names for the UDFs the KG build composes ----------------------
# Keyed by the UDF's ``__qualname__``; anything unknown keeps its own name.
STAGE_OF = {
    "_docs_to_pages_batch": "sources",
    "extract_text_batch": "extract",
    "link_mentions.<locals>.link": "linking",
    "triples_from_mentions.<locals>.project": "kg.project",
    "derive_graph_outputs.<locals>.split_external": "kg.split",
    "derive_graph_outputs.<locals>.<lambda>": "kg.dedup",
    "mine_host_priors.<locals>.partial": "linking.host_prior_mine",
    "partial_groupby_sum.<locals>.partial": "linking.host_prior_mine",
}


class LayerCounters:
    """Rows, bytes and layer-specific counts seen at each stage boundary.
    Counted outside the spans, so counting does not show as stage time."""

    def __init__(self) -> None:
        self.rows_in: Counter = Counter()
        self.rows_out: Counter = Counter()
        self.bytes_in: Counter = Counter()
        self.bytes_out: Counter = Counter()
        self.extract_errors = 0
        self.triple_rows = 0
        self.internal_rows = 0
        # one Counter per linker UDF object: a two-pass build links twice,
        # and the final mentions are those of the last pass
        self.methods: dict[int, Counter] = {}

    def observe(self, stage: str, fn: object, batch: pa.Table, out: pa.Table) -> None:
        self.rows_in[stage] += batch.num_rows
        self.rows_out[stage] += out.num_rows
        self.bytes_in[stage] += batch.nbytes
        self.bytes_out[stage] += out.nbytes
        if stage == "extract":
            self.extract_errors += out.num_rows - out["error"].null_count
        elif stage == "linking":
            self.triple_rows += out.num_rows - out["rel"].null_count
            c = self.methods.setdefault(id(fn), Counter())
            for m in pc.value_counts(out["method"]).to_pylist():
                c[m["values"]] += m["counts"]

    def observe_filter(self, keep: bool, out: pa.Table) -> None:
        if not keep:
            self.internal_rows += out.num_rows

    def state(self) -> dict:
        """The counts as plain JSON-able data, to ship out of a Ray worker."""
        return {"rows_in": self.rows_in, "rows_out": self.rows_out,
                "bytes_in": self.bytes_in, "bytes_out": self.bytes_out,
                "extract_errors": self.extract_errors,
                "triple_rows": self.triple_rows, "internal_rows": self.internal_rows,
                "methods": list(self.methods.values())}

    def merge(self, state: dict) -> None:
        for name in ("rows_in", "rows_out", "bytes_in", "bytes_out"):
            getattr(self, name).update(state[name])
        for name in ("extract_errors", "triple_rows", "internal_rows"):
            setattr(self, name, getattr(self, name) + state[name])
        # linking passes line up across blocks: pass k of every block
        # merges into pass k here
        for k, methods in enumerate(state["methods"]):
            self.methods.setdefault(k, Counter()).update(methods)

    def last_methods(self) -> Counter:
        return list(self.methods.values())[-1] if self.methods else Counter()


def _stage_name(fn: object) -> str:
    q = getattr(fn, "__qualname__", type(fn).__qualname__)
    return STAGE_OF.get(q, q)


def _batches(block: pa.Table, batch_size) -> Iterator[pa.Table]:
    if batch_size is None or block.num_rows <= (1024 if batch_size == "default" else batch_size):
        yield block
        return
    step = 1024 if batch_size == "default" else int(batch_size)
    for off in range(0, block.num_rows, step):
        yield block.slice(off, step)


_EXPR = re.compile(r"^\s*(\w+)\s*==\s*(True|False)\s*$")


class LocalDataset:
    """The subset of the Ray ``Dataset`` API that the KG build's per-block
    stages use, executed in this process with a span around every UDF call.

    Lazy like a Ray Dataset: each consumer re-runs the chain, so a stage
    the program streams twice (the two linking passes) is timed twice, as
    Ray runs it twice. Any other method converts the blocks computed so
    far into a real Ray Dataset and continues there (the host-prior
    mining exchange of a two-pass build).
    """

    def __init__(self, blocks: Callable[[], Iterator[pa.Table]],
                 tracer: Tracer, counters: LayerCounters | None) -> None:
        self._blocks = blocks
        self._tracer = tracer
        self._counters = counters

    @classmethod
    def from_tables(cls, tables: list[pa.Table], tracer: Tracer,
                    counters: LayerCounters | None) -> LocalDataset:
        return cls(lambda: iter(tables), tracer, counters)

    def _derive(self, blocks: Callable[[], Iterator[pa.Table]]) -> LocalDataset:
        return LocalDataset(blocks, self._tracer, self._counters)

    def map_batches(self, fn, *, batch_format: str = "default",
                    batch_size="default", fn_constructor_args=None, **_ignored):
        if batch_format != "pyarrow":
            raise NotImplementedError(f"LocalDataset: batch_format={batch_format!r}")
        if isinstance(fn, type):
            fn = fn(*(fn_constructor_args or ()))
        stage, tracer, counters = _stage_name(fn), self._tracer, self._counters

        def run() -> Iterator[pa.Table]:
            for block in self._blocks():
                outs = []
                for batch in _batches(block, batch_size):
                    with tracer.span(stage):
                        out = fn(batch)
                    if counters is not None:
                        counters.observe(stage, fn, batch, out)
                    outs.append(out)
                # Ray builds one output block from a block's batches (below
                # the target block size), and block-local stages rely on it
                yield outs[0] if len(outs) == 1 else pa.concat_tables(
                    outs, promote_options="default")

        return self._derive(run)

    def filter(self, fn=None, *, expr: str | None = None, **_ignored):
        m = _EXPR.match(expr or "")
        if fn is not None or m is None:
            raise NotImplementedError(f"LocalDataset.filter: {expr!r}")
        col, keep = m.group(1), m.group(2) == "True"
        tracer, counters = self._tracer, self._counters

        def run() -> Iterator[pa.Table]:
            for block in self._blocks():
                with tracer.span("kg.split"):
                    out = block.filter(pc.equal(block[col], keep))
                if counters is not None:
                    counters.observe_filter(keep, out)
                yield out

        return self._derive(run)

    def drop_columns(self, cols: list[str], **_ignored):
        return self._derive(lambda: (b.drop_columns(cols) for b in self._blocks()))

    def materialize(self) -> LocalDataset:
        return LocalDataset.from_tables(list(self._blocks()), self._tracer, self._counters)

    def iter_tables(self) -> Iterator[pa.Table]:
        return self._blocks()

    def __getattr__(self, name: str):
        import ray.data as rd

        return getattr(rd.from_arrow(list(self._blocks())), name)


# -- executor statistics -------------------------------------------------------

_EXCHANGE_CLASSES = {"AllToAllOperator", "HashShuffleOperator",
                     "HashAggregateOperator", "JoinOperator"}
_TASKS = re.compile(r"(\d+) tasks executed")


class ExecutorStats:
    """Operator statistics of every Ray Data execution while active.

    ``Dataset.stats()`` only covers the dataset it is called on, and a
    workload's executions mostly happen inside the program (a partitioned
    write, a ``take_all`` in a query). So this hooks the streaming
    executor's shutdown and keeps the stats object it freezes there, which
    is the object ``Dataset.stats()`` prints. Observes only; changes no
    behaviour. Written against Ray 2.49.
    """

    def __init__(self) -> None:
        self._records: list[tuple[object, list[object]]] = []  # (stats, operators)
        self._orig = None

    def __enter__(self) -> ExecutorStats:
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer,
        )
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        orig = self._orig = StreamingExecutor.shutdown
        records = self._records

        def shutdown(executor, *args, **kwargs):
            before = getattr(executor, "_final_stats", None)
            out = orig(executor, *args, **kwargs)
            final = getattr(executor, "_final_stats", None)
            # only the call that froze the stats counts: shutdown runs again
            # when the executor is released, also for executions that ended
            # before this hook was installed
            if final is not None and final is not before:
                ops = [op for op in executor._topology
                       if not isinstance(op, InputDataBuffer)]
                records.append((final, ops))
            return out

        StreamingExecutor.shutdown = shutdown
        return self

    def __exit__(self, *exc) -> None:
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        StreamingExecutor.shutdown = self._orig

    def take(self) -> dict[str, float]:
        """Totals over the executions since the last call, then forget them."""
        udf = 0.0
        tasks = exchanges = 0
        for final, ops in self._records:
            exchanges += sum(
                1 for op in ops
                if _EXCHANGE_CLASSES & {c.__name__ for c in type(op).__mro__})
            # one summary level per executed operator, newest first; the
            # levels above them belong to inputs executed earlier
            summary = final.to_summary()
            for _ in ops:
                for o in summary.operators_stats:
                    udf += (o.udf_time or {}).get("sum", 0.0)
                    m = _TASKS.search(o.block_execution_summary_str or "")
                    tasks += int(m.group(1)) if m else 0
                if not summary.parents:
                    break
                summary = summary.parents[0]
        out = {"udf_s": udf, "tasks": tasks, "exchanges": exchanges,
               "executions": len(self._records)}
        self._records.clear()
        return out
