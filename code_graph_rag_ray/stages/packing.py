"""Sequence packing: assign documents to fixed-length training sequences.

Pretraining pipelines concatenate the tokenized corpus in a deterministic
order and slice the stream into fixed-length sequences (GPT-style
concat-and-chunk). The whole operator is ONE global exclusive prefix sum of
per-doc token counts over the doc order — ``ranking._ordered_prefix``, the
range-bucket prefix sum under ``global_rank``, weighted by token counts
instead of counting rows: a bounded per-block key sample, per-block range
totals summed on the driver (O(blocks) count vectors, never a function of
corpus size) and one ``bucketed_groups`` exchange.

Output per doc: ``n_tokens``, ``start_off`` (global token offset of the
doc's first token), ``seq_first`` / ``seq_last`` (the fixed-length
sequences the doc's tokens land in; a zero-token doc degenerates to
``seq_first == seq_last`` at its offset). All integer arithmetic, so a SQL
window-function oracle replays it bit-exactly.

Reference parity: the reference chunks function snippets to an embedding
context budget one process at a time (``graph_updater.py:2051-2181`` batch
loop); this is the corpus-scale batch equivalent for training-sequence
assembly. Range boundaries set only balance — offsets are a pure function
of the data, so any sampled boundary set yields identical output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.extract import _tokenize
from code_graph_rag_ray.stages.ranking import _ordered_prefix


def token_counts(ds: Dataset, *, id_col: str = "doc_id",
                 text_col: str = "text") -> Dataset:
    """(id, text) → (id, n_tokens); single-space split, empty tokens
    dropped (the tokenizer convention shared with the embedder / tf-idf —
    SQL replay: ``len(list_filter(string_split(text, ' '), s -> s <> ''))``)."""

    def with_counts(b: pa.Table) -> pa.Table:
        n = b.num_rows
        flat, row_idx, _ = _tokenize(b[text_col])
        if len(flat):
            lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
            cnt = np.bincount(row_idx[lens > 0], minlength=n).astype(np.int64)
        else:
            cnt = np.zeros(n, np.int64)
        return pa.table({id_col: b[id_col], "n_tokens": pa.array(cnt)})

    return ds.map_batches(with_counts, batch_format="pyarrow")


def pack_sequences(
    ds: Dataset,
    *,
    seq_len: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    counts: Dataset | None = None,
) -> Dataset:
    """Concat-and-chunk packing: docs (ordered by ``id_col``) → per-doc
    (id, n_tokens, start_off, seq_first, seq_last) with sequence ids of the
    ``seq_len``-token training sequences the doc occupies.

    ``counts`` (an (id, n_tokens) dataset) overrides the default
    whitespace token counter — that is how TOKENIZER-AWARE packing works:
    feed ``bpe_tokenize`` output (renamed to n_tokens) and the budget is
    real subword tokens, not words. ``ds``/``text_col`` are ignored when
    counts is given."""
    counted = counts if counts is not None else token_counts(
        ds, id_col=id_col, text_col=text_col)

    def pack(t: pa.Table, start: np.ndarray) -> pa.Table:
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        seq_first = start // seq_len
        seq_last = np.where(n > 0, (start + n - 1) // seq_len, seq_first)
        return pa.table({
            id_col: t[id_col],
            "n_tokens": t["n_tokens"],
            "start_off": pa.array(start, pa.int64()),
            "seq_first": pa.array(seq_first, pa.int64()),
            "seq_last": pa.array(seq_last.astype(np.int64), pa.int64()),
        })

    return _ordered_prefix(counted, id_col, pack, weight="n_tokens")


def chunk_documents(
    ds: Dataset,
    *,
    window: int = 32,
    stride: int = 24,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Overlapping fixed-token-window chunking — the RAG / embedding-input
    chunker (every ``stride`` tokens start a ``window``-token chunk, so
    consecutive chunks overlap by ``window − stride`` tokens).

    Per doc: chunk starts are ``0, stride, 2·stride, … < n_tokens``; each
    chunk is ``tokens[start : start+window]`` re-joined with single spaces
    (the corpus tokenizer convention shared with ``token_counts`` /
    tf-idf: split on ' ', empty tokens dropped). The trailing chunk may be
    shorter than ``window``; a zero-token doc emits nothing. All rules are
    integer/list arithmetic, so a DuckDB ``generate_series`` +
    ``list_slice`` oracle replays the output bit-exactly.

    Scale shape: stateless row-expanding ``map_batches`` — no shuffle, no
    state; output bytes ≈ input text × window/stride (the algorithm's
    inherent duplication). Downstream embedding stages consume it directly
    (the reference chunks function snippets to its embedder's context
    budget one process at a time, ``graph_updater.py:2051-2181``; this is
    the corpus-scale batch equivalent).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return ds.map_batches(
        lambda b: _chunk_batch(b, window=window, stride=stride,
                               id_col=id_col, text_col=text_col),
        batch_format="pyarrow")


def _chunk_batch(b: pa.Table, *, window: int, stride: int, id_col: str,
                 text_col: str) -> pa.Table:
    """One batch of :func:`chunk_documents`."""
    toks = pc.split_pattern(b[text_col], pattern=" ")
    ids, cis, starts, ns, texts = [], [], [], [], []
    for rid, lst in zip(b[id_col].to_pylist(), toks.to_pylist()):
        tl = [t for t in (lst or []) if t]  # null text → no chunks
        n = len(tl)
        for ci, s in enumerate(range(0, n, stride)):
            piece = tl[s : s + window]
            ids.append(rid)
            cis.append(ci)
            starts.append(s)
            ns.append(len(piece))
            texts.append(" ".join(piece))
    return pa.table({
        # id dtype preserved (int doc ids and string urls both work)
        id_col: pa.array(ids, b[id_col].type),
        "chunk_idx": pa.array(cis, pa.int64()),
        "start_tok": pa.array(starts, pa.int64()),
        "n_tokens": pa.array(ns, pa.int64()),
        "chunk_text": pa.array(texts, pa.string()),
    })

