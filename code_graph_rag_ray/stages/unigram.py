"""Unigram-LM (SentencePiece-style) subword tokenizer — piece-probability
vocabulary + Viterbi maximum-likelihood segmentation.

Completes the tokenizer family (BPE learns merge RULES, WordPiece/MaxMatch
mines a vocab and tokenizes greedily): the unigram model (Kudo 2018,
"Subword Regularization") assigns each piece a probability and segments a
word into the piece sequence maximizing Π p(piece) — computed exactly by a
Viterbi DP over word positions. Reference analog: none (the reference
tokenizes code via tree-sitter); this is a training-data-pipeline operator
like the BPE/WordPiece pair (SURVEY.md §2 "beyond the reference").

Determinism/oracle story:

- The vocabulary is pure counting: occurrence-position substring
  frequencies over the distinct-word table (`wordpiece._substring_partials`
  with lmin=1), ALL single characters kept unconditionally (the
  SentencePiece coverage guarantee — every word stays segmentable), plus
  the top_k multi-char pieces by (freq DESC, piece ASC) with freq ≥
  min_freq. Bit-exact in DuckDB via the same substring unnest.
- Piece log-probs are ln(freq) − ln(total) computed with libm ``math.log``
  on the DRIVER over the ≤(top_k + alphabet) vocab rows — the same libm
  ``ln`` DuckDB calls, so the oracle reproduces the exact doubles.
- The Viterbi DP is replayed bit-exactly by a BOUNDED-WIDTH recursive CTE
  (NOTES.md fact 30 extended from greedy walks to DP): the cursor is the
  word position (strictly advancing ⇒ termination) and the DP scores of
  the last ``lmax`` positions ride as carried COLUMNS d0..d{lmax-1}; both
  sides accumulate score as dp[j−l] + lp(piece) (identical association,
  IEEE addition) and break score ties toward the SHORTEST last piece, so
  engine and SQL pick identical segmentations.

Scale shape (10^12 docs): one streaming pass builds the distinct-word
table (`bpe.word_counts`), the substring explosion is vectorized over
distinct words, and the final vocab is a few KB riding the task closure —
tokenization is a STATELESS one-pass map whose DP runs once per
batch-DISTINCT word (dictionary-encode + int gather fan-out, the
wordpiece_tokenize discipline). No shuffle, no broadcast object.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.tfidf import _TOKEN_SPLIT


def unigram_vocab(
    ds: Dataset,
    *,
    text_col: str = "text",
    lmax: int = 5,
    min_freq: int = 5,
    top_k: int = 64,
    token_split: str = _TOKEN_SPLIT,
) -> Dataset:
    """Mine the unigram piece table: (piece, freq) = every single
    character (unconditional — the coverage set) plus the top_k
    length-2..lmax substrings by (freq DESC, piece ASC) with freq ≥
    min_freq; freq is occurrence-position substring frequency weighted
    by word count."""
    from code_graph_rag_ray.stages.bpe import word_counts
    from code_graph_rag_ray.stages.relational import partial_groupby_sum
    from code_graph_rag_ray.stages.wordpiece import _substring_partials

    wc = word_counts(ds, text_col=text_col, token_split=token_split)

    def explode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"piece": pa.array([], pa.string()),
                             "freq": pa.array([], pa.int64())})
        return _substring_partials(
            b["word"].combine_chunks()
            if isinstance(b["word"], pa.ChunkedArray) else b["word"],
            b["wc"].to_numpy(zero_copy_only=False).astype(np.int64),
            lmax, lmin=1,
        )

    piece_freq = partial_groupby_sum(
        wc.map_batches(explode, batch_format="pyarrow"),
        ["piece"], {"freq": "freq"},
    )

    singles = piece_freq.map_batches(
        lambda b: b.filter(pc.equal(pc.utf8_length(b["piece"]), 1)),
        batch_format="pyarrow",
    )

    def local_topk(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.greater_equal(b["freq"], min_freq),
                             pc.greater_equal(pc.utf8_length(b["piece"]), 2)))
        idx = pc.sort_indices(
            b, sort_keys=[("freq", "descending"), ("piece", "ascending")]
        )[:top_k]
        return b.take(idx)

    multis = (
        piece_freq.map_batches(local_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(local_topk, batch_format="pyarrow", batch_size=None)
    )
    # both branches re-execute the piece_freq lineage once each —
    # vocab-scale data, the streaming-safe choice (kg_edge_diff note)
    return singles.union(multis)


def piece_logprobs(vocab: pa.Table) -> dict[str, float]:
    """piece → ln(freq) − ln(Σfreq), libm doubles over the bounded vocab
    (driver-side by design: the vocab is ≤ top_k + alphabet rows)."""
    pieces = vocab["piece"].to_pylist()
    freqs = vocab["freq"].to_pylist()
    lt = math.log(float(sum(freqs)))
    return {p: math.log(float(f)) - lt for p, f in zip(pieces, freqs)}


def _viterbi_pieces(word: str, lp: dict[str, float], lmax: int) -> int:
    """Piece count of the max-likelihood segmentation. Ties prefer the
    SHORTEST last piece (ascending-l scan, strictly-greater update) —
    the rule the SQL oracle's CASE chain reproduces. Raises ``ValueError``
    when no segmentation exists (a character outside the vocab)."""
    n = len(word)
    dp: list[float | None] = [0.0] + [None] * n
    kp = [0] * (n + 1)
    for j in range(1, n + 1):
        best: float | None = None
        bestk = 0
        for l in range(1, min(lmax, j) + 1):
            prev = dp[j - l]
            if prev is None:
                continue
            v = lp.get(word[j - l : j])
            if v is None:
                continue
            cand = prev + v
            if best is None or cand > best:
                best, bestk = cand, kp[j - l] + 1
        dp[j] = best
        kp[j] = bestk
    if dp[n] is None:
        raise ValueError(f"unigram: word {word!r} has no segmentation over "
                         "the vocab (a character outside it)")
    return kp[n]


def unigram_tokenize(
    ds: Dataset,
    vocab: pa.Table,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    lmax: int = 5,
    token_split: str = _TOKEN_SPLIT,
) -> Dataset:
    """Viterbi max-likelihood tokenization against a mined unigram vocab.

    Returns (id, n_words, n_ug_pieces) per document; the DP runs once per
    batch-DISTINCT word (see module docstring). Single-char coverage in
    the vocab guarantees every word is segmentable; a word holding a
    character outside the vocab raises ``ValueError`` naming the word
    instead of miscounting it."""
    lp = piece_logprobs(vocab)

    def tok(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {id_col: pa.array([], b[id_col].type),
             "n_words": pa.array([], pa.int64()),
             "n_ug_pieces": pa.array([], pa.int64())}
        )
        if b.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_lower(b[text_col].combine_chunks()
                          if isinstance(b[text_col], pa.ChunkedArray)
                          else b[text_col]),
            pattern=token_split,
        )
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        nw = np.zeros(b.num_rows, np.int64)
        npc_ = np.zeros(b.num_rows, np.int64)
        if len(flat):
            d = pc.dictionary_encode(flat)
            uniq = d.dictionary.to_pylist()
            per = np.asarray([_viterbi_pieces(w, lp, lmax) for w in uniq],
                             dtype=np.int64)
            gi = d.indices.to_numpy(zero_copy_only=False)
            np.add.at(nw, parent, 1)
            np.add.at(npc_, parent, per[gi])
        return pa.table(
            {id_col: b[id_col], "n_words": pa.array(nw),
             "n_ug_pieces": pa.array(npc_)}
        )

    return ds.map_batches(tok, batch_format="pyarrow")
