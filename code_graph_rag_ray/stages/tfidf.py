"""Distributed TF-IDF keyword extraction (training-data / retrieval op).

Pipeline shape (no full-corpus materialization anywhere):

1. ``extract_tf_batch`` — per-batch vectorized tokenize (RE2
   ``[^a-z0-9]+`` split over lowered text, the same automaton DuckDB's
   ``regexp_split_to_array`` runs, so the oracle tokenizes identically)
   and per-(doc, term) counts via an Arrow groupby. A document is one
   input row, so its counts are complete within its batch — tf needs no
   shuffle.
2. document frequency — two-phase grouped count over the tf rows
   (batch combiner first: a term's partials are one row per block, so hot
   terms exchange O(blocks) not O(docs)).
3. the df table (vocab-scale) is broadcast back onto the tf rows via the
   object-store broadcast join (never lands on the driver), and the
   per-doc top-k runs vectorized inside ``map_batches`` — valid because
   the broadcast join preserves block boundaries and tf blocks are
   doc-complete by construction.

Scoring note: the rank key is ``tf / df`` (a monotone idf surrogate).
One IEEE-754 division is correctly rounded in every engine, so the score
— and therefore the ranking — is bit-identical between numpy and the
DuckDB oracle; ``ln``-based idf is libm-dependent and would break the
exact-value gate. Ties rank by term ascending (content-determined).

cgr analog: the registry's ``simple_name_lookup`` grouped multimap
(function_registry.py:99-101) generalized to a scored term→doc surface;
the embedding sink's "represent a document by salient features"
(graph_updater.py:2051-2181) without a model.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

_TOKEN_SPLIT = "[^a-z0-9]+"


def extract_tf_batch(
    b: pa.Table, *, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """(id, term, tf) rows — vectorized tokenize + Arrow groupby count."""
    # id type mirrors the input (string ids work — the batch schema is
    # present even at 0 rows)
    empty = pa.table(
        {id_col: pa.array([], b.schema.field(id_col).type),
         "term": pa.array([], pa.string()),
         "tf": pa.array([], pa.int64())}
    )
    if b.num_rows == 0:
        return empty
    toks = pc.split_pattern_regex(pc.utf8_lower(b[text_col]), pattern=_TOKEN_SPLIT)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    ids = pc.take(b[id_col], parent)
    keep = pc.not_equal(flat, "")
    pairs = pa.table({id_col: ids, "term": flat}).filter(keep)
    if pairs.num_rows == 0:
        return empty
    g = pa.TableGroupBy(pairs, [id_col, "term"], use_threads=False).aggregate(
        [([], "count_all")]
    )
    return pa.table(
        {id_col: g[id_col], "term": g["term"],
         "tf": pc.cast(g["count_all"], pa.int64())}
    )


def document_frequency(tf_rows: Dataset, *, id_col: str = "doc_id") -> Dataset:
    """(term, df) — each tf row is one (doc, term) incidence, so df is a
    two-phase grouped count over terms."""
    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    terms = tf_rows.select_columns(["term"])
    return partial_groupby_sum(terms, ["term"], {}, count_alias="df")


def tfidf_topk(
    docs: Dataset,
    *,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Top-k terms per document by tf/df: (id, term, tf, df, rank)."""
    tf_rows = docs.map_batches(
        lambda b: extract_tf_batch(b, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )
    return topk_from_tf_rows(tf_rows, k=k, id_col=id_col)


def topk_from_tf_rows(
    tf_rows: Dataset,
    *,
    k: int = 5,
    id_col: str = "doc_id",
) -> Dataset:
    """tf/df top-k rank over ANY (id, term, tf) row stream whose blocks
    are doc-complete (each document's rows in one block — true for any
    map_batches derivation from one-row-per-doc input). Lets other term
    streams (entity mentions, n-grams) reuse the tf-idf ranking."""
    from code_graph_rag_ray.stages.relational import _runs, broadcast_join, run_starts

    df_tbl = document_frequency(tf_rows, id_col=id_col)
    scored = broadcast_join(tf_rows, df_tbl, on="term")

    def topk(b: pa.Table) -> pa.Table:
        score = pc.divide(pc.cast(b["tf"], pa.float64()),
                          pc.cast(b["df"], pa.float64()))
        t = b.append_column("__s", score)
        t = t.take(pc.sort_indices(t, sort_keys=[
            (id_col, "ascending"), ("__s", "descending"),
            ("term", "ascending")]))
        _, _, pos = _runs(run_starts(t, [id_col]))
        head = pos < k
        t = t.filter(pa.array(head))
        return pa.table({id_col: t[id_col], "term": t["term"],
                         "tf": pc.cast(t["tf"], pa.int64()),
                         "df": pc.cast(t["df"], pa.int64()),
                         "rank": pa.array(pos[head] + 1, pa.int64())})

    # doc-complete blocks in, doc-complete blocks out: the broadcast join
    # is a map_batches, so the per-doc rank never needs a shuffle
    return scored.map_batches(topk, batch_format="pyarrow", batch_size=None)


def inverted_index(
    docs: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_postings: int = 32,
) -> Dataset:
    """Inverted index construction: (term, df, postings) with postings =
    comma-joined FIRST ``max_postings`` doc ids ascending.

    The retrieval-side product of the tf pipeline (the reference's
    ``simple_name_lookup`` multimap made corpus-scale). The cap is the
    scale decision, not a shortcut: a stopword's full posting list is
    corpus-sized, so the list is truncated by a DETERMINISTIC rule
    (smallest ids — SQL-replayable) while ``df`` stays the exact count.
    One ordered collect (``relational.grouped_collect``: block-local
    head-k, then one bucketed exchange that joins each term's head-k ids)
    keeps a hot term's shuffle at O(blocks × cap); df is the usual
    two-phase count; the two vocab-keyed tables meet in a bucketed cogroup
    join, never the driver.
    """
    from code_graph_rag_ray.stages.relational import bucketed_join, grouped_collect

    tf = docs.map_batches(
        lambda b: extract_tf_batch(b, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )
    postings = grouped_collect(tf, "term", id_col, id_col, max_postings).map_batches(
        lambda b: pa.table({"term": b["term"], "postings": b["collected"]}),
        batch_format="pyarrow")
    df = document_frequency(tf, id_col=id_col)
    # both sides are lazy groupby outputs — schema hints keep the join's
    # driver-side probe from executing each upstream once just for names
    return bucketed_join(
        postings, df, on="term",
        left_schema=pa.schema([("term", pa.string()), ("postings", pa.string())]),
        right_schema=pa.schema([("term", pa.string()), ("df", pa.int64())]),
    ).select_columns(["term", "df", "postings"])


def extract_bigram_batch(b: pa.Table, *, text_col: str = "text") -> pa.Table:
    """(w1, w2) adjacent-token rows, fully vectorized: Arrow flatten +
    parent indices, numpy shift for adjacency (pairs never cross a
    document boundary; empty tokens dropped BEFORE pairing, so adjacency
    is between consecutive non-empty tokens — the ``list_filter`` +
    slide semantics a SQL oracle replays). Space-split convention shared
    with token_counts / the chunker."""
    empty = pa.table(
        {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string())}
    )
    if b.num_rows == 0:
        return empty
    toks = pc.split_pattern(b[text_col], pattern=" ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    t = flat.to_numpy(zero_copy_only=False)
    keep = t != ""
    t, parent = t[keep], parent[keep]
    if len(t) < 2:
        return empty
    same = parent[1:] == parent[:-1]
    return pa.table(
        {"w1": pa.array(t[:-1][same], pa.string()),
         "w2": pa.array(t[1:][same], pa.string())}
    )


def bigram_counts(ds: Dataset, *, text_col: str = "text") -> Dataset:
    """Corpus bigram counts — the n-gram LM-training table (KenLM-style
    count collection). One two-phase grouped count over the vectorized
    pair stream; at open-vocabulary scale the pair space is corpus-sized,
    so the per-batch Arrow combiner (inside partial_groupby_sum) is what
    keeps the exchange proportional to DISTINCT pairs per block, and a
    min-count filter belongs directly after this operator."""
    from code_graph_rag_ray.stages.relational import partial_groupby_sum

    pairs = ds.map_batches(
        lambda b: extract_bigram_batch(b, text_col=text_col),
        batch_format="pyarrow",
    )
    return partial_groupby_sum(pairs, ["w1", "w2"], {}, count_alias="n")


def vocab_growth(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Heaps-law vocabulary growth: for each document (under the corpus
    doc-id order), how many terms it is the FIRST to introduce — term's
    first occurrence = min doc id, then a grouped count per introducing
    document.

    Scale shape: per-batch Arrow groupby emits one (term, min-doc)
    partial per term per batch; a ``bucketed_groups`` keyed on the term
    folds the global min and counts each bucket's terms per introducing
    document (vocabulary is corpus-scale, so never a per-term group, NOTES
    fact 25); a second one keyed on the document sums those counts.
    Tokenizer = the tf-idf convention (lowercase, ``[^a-z0-9]+`` split).
    """
    from code_graph_rag_ray.stages.relational import bucketed_groups

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({"term": pa.array([], pa.string()),
                          "mn": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        toks = pc.split_pattern_regex(pc.utf8_lower(b[text_col]),
                                      pattern=_TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        ids = pc.take(b[id_col], pc.list_parent_indices(toks))
        pairs = pa.table({"term": flat, "d": ids}).filter(
            pc.not_equal(flat, ""))
        if pairs.num_rows == 0:
            return empty
        g = pa.TableGroupBy(pairs, ["term"], use_threads=False).aggregate(
            [("d", "min")])
        return pa.table({"term": g["term"],
                         "mn": pc.cast(g["d_min"], pa.int64())})

    def first_docs(t: pa.Table) -> pa.Table:
        firsts = pa.TableGroupBy(t, "term", use_threads=False).aggregate(
            [("mn", "min")])
        g = pa.TableGroupBy(firsts, "mn_min", use_threads=False).aggregate(
            [([], "count_all")])
        return pa.table({"first_doc": g["mn_min"],
                         "n": pc.cast(g["count_all"], pa.int64())})

    def total(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, "first_doc", use_threads=False).aggregate(
            [("n", "sum")])
        return pa.table({"first_doc": g["first_doc"],
                         "n_new_terms": pc.cast(g["n_sum"], pa.int64())})

    firsts = bucketed_groups(ds.map_batches(partial, batch_format="pyarrow"),
                             "term", first_docs)
    return bucketed_groups(firsts, "first_doc", total)
