"""Seeded input generators. The same seed always gives the same tables.

The program under test only ever sees what these functions return: the
benchmark never reads data from outside its checkout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from code_graph_rag_ray.functions.vocab import (
    ENTITY_VOCAB_SORTED,
    RELATION_VOCAB_SORTED,
    STOPWORDS_SORTED,
)

_WORDS = np.array(ENTITY_VOCAB_SORTED + RELATION_VOCAB_SORTED + STOPWORDS_SORTED)
_LANGS = np.array(["en", "de", "es", "fr", "zh"])
_LANG_P = np.array([0.4, 0.15, 0.15, 0.15, 0.15])
_EVENT_TYPES = np.array(["click", "error", "purchase", "signup", "view"])


def documents(n_docs: int, seed: int) -> pa.Table:
    """``documents(doc_id, text, lang, source, n_chars)`` with the shape of
    the synthetic corpus the catalog queries are written against: texts of
    8-96 words drawn uniformly from the closed 31-word vocabulary, 20
    round-robin sources, an English majority."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(8, 97, n_docs)
    words = _WORDS[rng.integers(0, len(_WORDS), int(lens.sum()))]
    bounds = np.r_[0, np.cumsum(lens)]
    texts = [" ".join(words[bounds[i]:bounds[i + 1]]) for i in range(n_docs)]
    ids = np.arange(n_docs, dtype=np.int64)
    return pa.table({
        "doc_id": ids,
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(_LANGS, n_docs, p=_LANG_P)),
        "source": pa.array([f"src{i % 20}" for i in ids]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def replicate(docs: pa.Table, copies: int) -> list[pa.Table]:
    """``copies`` copies of ``docs`` with distinct doc ids, one table each
    (one copy per read block, so one copy per build task)."""
    import pyarrow.compute as pc

    cols = ["doc_id", "text", "lang", "source"]
    base = docs.select(cols)
    return [base.set_column(0, "doc_id", pc.add(base["doc_id"], k * 10_000_000))
            for k in range(copies)]


def events(n_events: int, n_users: int, seed: int) -> pa.Table:
    """``events(event_id, ts, user_id, event_type, value, props)``: a
    time-ordered stream with the shape of the synthetic events table (about
    260 s between events, spread over ``n_users``), so most per-user gaps
    exceed the 30-minute session gap and a few fall inside it."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(260.0, n_events)
    ts = 1_704_067_200_000_000 + np.cumsum(gaps * 1e6).astype(np.int64)
    return pa.table({
        "event_id": np.arange(n_events, dtype=np.int64),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": rng.integers(0, n_users, n_events).astype(np.int64),
        "event_type": pa.array(rng.choice(_EVENT_TYPES, n_events)),
        "value": np.round(rng.exponential(25.0, n_events), 2) + 0.01,
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)]),
    })


def edges(n_rows: int, n_subjects: int, seed: int) -> pa.Table:
    """A deduplicated edge table ``(subj, pred, obj, provenance_url)`` with
    Zipf-distributed subjects, the shape a built KG hands to the store."""
    rng = np.random.default_rng(seed)
    ranks = np.minimum(rng.zipf(1.3, n_rows), n_subjects) - 1
    subj = np.char.add("ent", ranks.astype(str))
    obj = np.char.add("ent", rng.integers(0, n_subjects, n_rows).astype(str))
    pred = np.array(RELATION_VOCAB_SORTED)[rng.integers(0, len(RELATION_VOCAB_SORTED), n_rows)]
    url = np.char.add("https://src.example.org/doc/", rng.integers(0, n_rows, n_rows).astype(str))
    t = pa.table({"subj": subj, "pred": pred, "obj": obj, "provenance_url": url})
    return t.group_by(t.column_names, use_threads=False).aggregate([])
