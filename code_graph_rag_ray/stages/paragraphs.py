"""Paragraph-granularity curation: cross-corpus window dedup + boilerplate.

The web-curation classics (CCNet-style paragraph dedup, boilerplate
detection) operate BELOW document granularity: the unit is a fixed-token
window of the corpus tokenizer (the fixture text has no paragraph breaks,
so "paragraph" = non-overlapping ``window``-token chunk — the same
:func:`~code_graph_rag_ray.stages.packing.chunk_documents` batch function
the RAG chunker uses, at ``stride == window``).

Shape: one row-expanding ``map_batches`` (no state) → ONE
``relational.bucketed_groups`` exchange keyed on the window text, whose
Arrow finish sorts each hash bucket once and reads the windows' runs with
``run_starts`` (never a per-window group — NOTES fact 25). The window
TEXT rides the shuffle so equality decisions are exact and the DuckDB
oracle replays them bit-for-bit; at 10^12-window scale swap the payload
for the 128-bit md5 of the window (hash-only shuffle, text stays in
place) and accept the 2^-64-ish collision odds. Per-document results
(boilerplate counts, the rebuilt text) take a second ``bucketed_groups``
keyed on the document. Inputs without any window still give typed empty
results (see ``_with_marker``).

cgr analog: the reference dedups repeated code snippets per module before
embedding (``graph_updater.py:2051-2181`` skip-if-seen); re-targeted as
corpus-wide repeated-window removal / boilerplate scoring.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.packing import _chunk_batch
from code_graph_rag_ray.stages.relational import (
    _join_runs,
    _runs,
    bucketed_groups,
    run_starts,
)


def _with_marker(b: pa.Table) -> pa.Table:
    """``b`` plus one all-null marker row of the same schema. Every
    shuffle here carries at least one marker, so its finish runs and an
    input without windows still yields a typed empty result (a shuffle of
    only empty blocks never calls its finish and has no schema, NOTES
    fact 3). Each finish drops the markers first: they are the only rows
    whose window text (or the count or text a later stage carries) is
    null."""
    return pa.concat_tables([b, pa.table(
        {f.name: pa.nulls(1, f.type) for f in b.schema})])


def _windows(ds: Dataset, *, window: int, id_col: str, text_col: str) -> Dataset:
    """(id, chunk_idx, chunk_text) per ``window``-token window, plus one
    marker row per input batch (:func:`_with_marker`; made in the same
    task as the windows, since Ray calls no UDF on an empty block)."""

    def windows(b: pa.Table) -> pa.Table:
        w = _chunk_batch(b, window=window, stride=window, id_col=id_col,
                         text_col=text_col)
        return _with_marker(w.select([id_col, "chunk_idx", "chunk_text"]))

    return ds.map_batches(windows, batch_format="pyarrow")


def _winner_sort(t: pa.Table, id_col: str) -> tuple[pa.Table, np.ndarray]:
    """Shared winner rule: the windows (markers dropped) ordered (content,
    id, idx) — id order is numeric for int ids, lexicographic for string
    ids (both deterministic and SQL-replayable) — and a first-occurrence
    mask. The id column's type is kept end to end, so string ids (urls)
    work."""
    t = t.filter(pc.is_valid(t["chunk_text"]))
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("chunk_text", "ascending"), (id_col, "ascending"),
        ("chunk_idx", "ascending")]))
    return t, run_starts(t, ["chunk_text"])


def paragraph_dedup(
    ds: Dataset,
    *,
    window: int = 16,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Corpus-wide exact window dedup: every ``window``-token chunk keeps
    ``keep=1`` iff it is the globally FIRST occurrence of its content
    under ``ORDER BY (doc_id, para_idx)`` — the content-determined winner
    rule shared with ``exact_dedup`` (arrival order never decides).

    Returns (id_col, para_idx: int64, keep: int64 ∈ {0,1}); a consumer
    rebuilds the deduplicated corpus by dropping keep=0 windows.
    """

    def flag(t: pa.Table) -> pa.Table:
        t, first = _winner_sort(t, id_col)
        return pa.table({id_col: t[id_col],
                         "para_idx": t["chunk_idx"],
                         "keep": pa.array(first.astype(np.int64))})

    w = _windows(ds, window=window, id_col=id_col, text_col=text_col)
    return bucketed_groups(w, "chunk_text", flag)


def boilerplate_stats(
    ds: Dataset,
    *,
    window: int = 16,
    min_docs: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Per-document boilerplate counts: of a doc's ``window``-token
    chunks, how many have content shared by ≥ ``min_docs`` DISTINCT
    documents corpus-wide (navigation/footer-style repetition).

    Returns (id_col, n_paras: int64, n_boiler: int64) — integer counts so
    the consumer picks its own fraction cutoff and the oracle stays
    bit-exact. Each window lands in exactly one content bucket, so the
    per-bucket per-doc partial counts sum to the global answer in a
    second ``bucketed_groups`` keyed on the doc (it sees O(docs ×
    buckets-touched) rows).
    """

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["chunk_text"]))
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("chunk_text", "ascending"), (id_col, "ascending")]))
        starts, lens, _ = _runs(run_starts(t, ["chunk_text"]))
        new_doc = run_starts(t, ["chunk_text", id_col]).astype(np.int64)
        n_docs = (np.add.reduceat(new_doc, starts) if len(starts)
                  else new_doc[:0])
        boiler = np.repeat(n_docs >= min_docs, lens).astype(np.int64)
        g = pa.TableGroupBy(pa.table({id_col: t[id_col],
                                      "b": pa.array(boiler)}),
                            id_col, use_threads=False).aggregate(
            [([], "count_all"), ("b", "sum")])
        return _with_marker(pa.table({
            id_col: g[id_col], "np_p": pc.cast(g["count_all"], pa.int64()),
            "nb_p": pc.cast(g["b_sum"], pa.int64())}))

    def total(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["np_p"]))
        g = pa.TableGroupBy(t, id_col, use_threads=False).aggregate(
            [("np_p", "sum"), ("nb_p", "sum")])
        return pa.table({id_col: g[id_col],
                         "n_paras": pc.cast(g["np_p_sum"], pa.int64()),
                         "n_boiler": pc.cast(g["nb_p_sum"], pa.int64())})

    w = _windows(ds, window=window, id_col=id_col, text_col=text_col)
    return bucketed_groups(bucketed_groups(w, "chunk_text", partial),
                           id_col, total)


def paragraph_dedup_apply(
    ds: Dataset,
    *,
    window: int = 16,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """The APPLY step of paragraph dedup: rebuild each document from only
    its globally-first-occurrence windows (drop repeated content, keep
    original window order) — the corpus a curation pipeline actually
    writes out.

    Returns (id_col, clean_text: string, n_kept: int64). Two
    ``bucketed_groups`` exchanges: (1) keyed on the window content, as in
    :func:`paragraph_dedup`, carrying each winning window's text forward;
    (2) keyed on the doc, joining each document's surviving windows in
    window order. Documents whose every window was a duplicate vanish from
    the output, exactly like the SQL ``WHERE keep GROUP BY doc`` replay.
    """

    def winners(t: pa.Table) -> pa.Table:
        t, first = _winner_sort(t, id_col)
        t = t.filter(pa.array(first))
        return _with_marker(pa.table({
            id_col: t[id_col],
            "para_idx": t["chunk_idx"],
            "para": t["chunk_text"]}))

    def rebuild(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["para"]))
        t = t.take(pc.sort_indices(t, sort_keys=[
            (id_col, "ascending"), ("para_idx", "ascending")]))
        starts, lens, _ = _runs(run_starts(t, [id_col]))
        return pa.table({id_col: t[id_col].take(starts),
                         "clean_text": _join_runs(t, starts, "para", " "),
                         "n_kept": pa.array(lens, pa.int64())})

    w = _windows(ds, window=window, id_col=id_col, text_col=text_col)
    return bucketed_groups(bucketed_groups(w, "chunk_text", winners),
                           id_col, rebuild)
