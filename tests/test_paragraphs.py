"""Paragraph-window dedup + boilerplate (stages/paragraphs.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.paragraphs import boilerplate_stats, paragraph_dedup

# 4-token windows over tiny docs; doc 0/1 share a window, doc 2 repeats
# its own window (intra-doc dup: dedup drops it, boilerplate does NOT
# count it — distinct-doc threshold).
DOCS = pd.DataFrame(
    {
        "doc_id": np.array([0, 1, 2, 3], np.int64),
        "text": [
            "a b c d e f g h",          # w0: "a b c d", w1: "e f g h"
            "x y z w a b c d",          # w1 == doc0's w0 (later → dropped)
            "p q r s p q r s",          # intra-doc repeat
            "",                          # zero tokens → no windows
        ],
    }
)


def test_paragraph_dedup_first_occurrence_wins():
    out = (
        paragraph_dedup(rd.from_pandas(DOCS).repartition(3), window=4)
        .to_pandas()
        .set_index(["doc_id", "para_idx"])["keep"]
        .to_dict()
    )
    assert out == {
        (0, 0): 1, (0, 1): 1,
        (1, 0): 1, (1, 1): 0,   # "a b c d" seen first at (0, 0)
        (2, 0): 1, (2, 1): 0,   # intra-doc second copy dropped
    }


def test_boilerplate_counts_distinct_docs_only():
    out = (
        boilerplate_stats(rd.from_pandas(DOCS).repartition(3),
                          window=4, min_docs=2)
        .to_pandas()
        .set_index("doc_id")
        .to_dict("index")
    )
    assert out == {
        0: {"n_paras": 2, "n_boiler": 1},  # "a b c d" shared with doc 1
        1: {"n_paras": 2, "n_boiler": 1},
        2: {"n_paras": 2, "n_boiler": 0},  # repeat is within ONE doc
    }


def test_paragraph_dedup_apply_rebuild():
    from code_graph_rag_ray.stages.paragraphs import paragraph_dedup_apply

    out = {
        r["doc_id"]: (r["clean_text"], r["n_kept"])
        for r in paragraph_dedup_apply(
            rd.from_pandas(DOCS).repartition(3), window=4
        ).take_all()
    }
    assert out == {
        0: ("a b c d e f g h", 2),
        1: ("x y z w", 1),        # its copy of "a b c d" dropped
        2: ("p q r s", 1),        # intra-doc repeat dropped
    }


def test_paragraph_dedup_apply_string_ids():
    """The clean CLI advertises --id-col: string ids (urls) must work —
    winner order becomes lexicographic on the id, documented."""
    import pandas as pd

    from code_graph_rag_ray.stages.paragraphs import paragraph_dedup_apply

    df = pd.DataFrame(
        {"url": ["u/a", "u/b"], "text": ["a b c d e f g h", "x y z w a b c d"]}
    )
    out = {
        r["url"]: (r["clean_text"], r["n_kept"])
        for r in paragraph_dedup_apply(
            rd.from_pandas(df).repartition(2), window=4, id_col="url"
        ).take_all()
    }
    assert out == {"u/a": ("a b c d e f g h", 2), "u/b": ("x y z w", 1)}


# documents without a single token: every result is empty but typed
NO_TOKENS = pd.DataFrame({"doc_id": np.array([0, 1, 2], np.int64),
                          "text": ["", None, "   "]})


def _typed_empty(ds):
    assert ds.count() == 0
    schema = ds.schema()
    assert schema is not None
    return dict(zip(schema.names, schema.types))


def test_paragraph_dedup_typed_empty():
    got = _typed_empty(paragraph_dedup(
        rd.from_pandas(NO_TOKENS).repartition(2), window=4))
    assert got == {"doc_id": pa.int64(), "para_idx": pa.int64(),
                   "keep": pa.int64()}


def test_boilerplate_stats_typed_empty():
    got = _typed_empty(boilerplate_stats(
        rd.from_pandas(NO_TOKENS).repartition(2), window=4))
    assert got == {"doc_id": pa.int64(), "n_paras": pa.int64(),
                   "n_boiler": pa.int64()}


def test_paragraph_dedup_apply_typed_empty():
    from code_graph_rag_ray.stages.paragraphs import paragraph_dedup_apply

    got = _typed_empty(paragraph_dedup_apply(
        rd.from_pandas(NO_TOKENS).repartition(2), window=4))
    assert got == {"doc_id": pa.int64(), "clean_text": pa.string(),
                   "n_kept": pa.int64()}
