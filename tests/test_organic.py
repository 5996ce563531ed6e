"""Second fixture family (sources/organic.py): Zipf-shaped organic web."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.pipelines.kg import build_kg
from code_graph_rag_ray.sources.organic import generate_organic_pages


def test_structure_is_genuinely_different():
    fx = generate_organic_pages(150, seed=7)
    html = b"".join(fx.pages["html"].to_pylist())
    # article-shaped structure the first family never emits
    for marker in (b"<style>", b"<!--", b"<section>", b"<ul>", b"<li>", b"<h2>"):
        assert marker in html, marker
    # Zipf skew: the top entity dominates, the tail is thin
    counts = sorted(fx.mention_counts.values(), reverse=True)
    assert counts[0] >= 5 * counts[len(counts) // 2]
    # extracted text is clean (no tags, no style payload)
    txt = "\n".join(fx.expected_text["text"].to_pylist())
    assert "<" not in txt and "margin" not in txt


def test_resolution_exact_on_organic_family():
    """The family-2 claim: P/R = 1.0 on a corpus with a disjoint name
    space, Zipfian popularity and article-shaped html — gold recorded at
    plant time, independent of the engine."""
    fx = generate_organic_pages(200, seed=7)
    kg = build_kg(rd.from_arrow(fx.pages), fx.alias_dict, build_nodes=False)
    edges = kg["edges"].to_pandas()
    pred = set(map(tuple, edges[["subj", "pred", "obj", "provenance_url"]]
                   .itertuples(index=False)))
    gold = {(r["subj"], r["pred"], r["obj"], r["url"])
            for r in fx.expected_triples.to_pylist()}
    assert pred == gold and len(gold) > 300


def test_unknown_objects_mint_externals_not_internal_edges():
    fx = generate_organic_pages(200, seed=7)
    kg = build_kg(rd.from_arrow(fx.pages), fx.alias_dict, build_nodes=False)
    ext = kg["external_edges"].to_pandas()
    assert len(ext) > 0
    assert ext["obj"].str.startswith("ext::").all()
    # dictionary-absent surfaces never leak into the internal edge table
    internal_objs = set(kg["edges"].to_pandas()["obj"])
    assert not any(o.startswith("ext::") for o in internal_objs)


def test_generator_is_deterministic():
    a = generate_organic_pages(80, seed=11)
    b = generate_organic_pages(80, seed=11)
    assert a.pages.equals(b.pages)
    assert a.expected_triples.equals(b.expected_triples)
    c = generate_organic_pages(80, seed=12)
    assert not a.pages.equals(c.pages)


def test_organic_robustness_rate0_exact_and_decay():
    from code_graph_rag_ray.sources.adversarial import organic_robustness_curve

    df = organic_robustness_curve(rates=(0.0, 0.5), n_pages=150)
    r0 = df[df["rate"] == 0.0].iloc[0]
    assert r0["precision"] == 1.0 and r0["recall"] == 1.0
    assert r0["n_mutated"] == 0
    r5 = df[df["rate"] == 0.5].iloc[0]
    assert r5["n_mutated"] > 0
    assert r5["recall"] <= r0["recall"]
    # damaged pages must not create WRONG internal facts wholesale:
    # precision stays high (spam/typos mint externals, not internal edges)
    assert r5["precision"] >= 0.95


def test_large_corpus_caps_entities_at_name_pool():
    """n_pages // 6 exceeds the 288-name pool from 1,734 pages on: the
    entity count is capped and every planted triple stays in-dictionary."""
    fx = generate_organic_pages(2000, seed=7)
    ids = set(fx.alias_dict["entity_id"].to_pylist())
    assert len(ids) == 288
    planted = set(fx.expected_triples["subj"].to_pylist()) | set(
        fx.expected_triples["obj"].to_pylist())
    assert planted and planted <= ids
    assert set(fx.mention_counts) <= ids
