"""End-to-end KG pipeline tests: P/R gate, externals, variants, resume.

Mirrors the reference's dominant test pattern (SURVEY.md §5): a small seeded
corpus with planted ground truth, full pipeline run, exact node/edge
assertions — plus the incremental-equivalence probe
(``evals/README.md:133-175``: resumed run must equal a clean run).
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from code_graph_rag_ray.functions.scoring import score_sets
from code_graph_rag_ray.pipelines.kg import build_kg, materialize_kg


import pytest


def _edge_set(edges_df):
    return set(
        map(tuple, edges_df[["subj", "pred", "obj", "provenance_url"]].itertuples(index=False))
    )


def _gold_set(fx):
    return {
        (r["subj"], r["pred"], r["obj"], r["url"]) for r in fx.expected_triples.to_pylist()
    }


@pytest.fixture(scope="module")
def kg_run(pages_fixture):
    """One shared pipeline run: edges/nodes/external materialized to pandas."""
    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    # host_priors: the fixture plants mentions resolvable only with the
    # corpus-mined host-prior side table (J3 cross-page context) — the
    # full pipeline must run two-pass to meet the exact P/R gate
    kg = build_kg(pages, fx.alias_dict, host_priors=True)
    return {
        "edges": kg["edges"].to_pandas(),
        "nodes": kg["nodes"].to_pandas(),
        "external_edges": kg["external_edges"].to_pandas(),
        "kg": kg,
    }


def test_kg_triples_meet_pr_gate(pages_fixture, kg_run):
    fx, _ = pages_fixture
    s = score_sets(_edge_set(kg_run["edges"]), _gold_set(fx))
    # north rule: P/R >= 0.95; the seeded corpus is fully resolvable → exact
    assert s.precision >= 0.95 and s.recall >= 0.95, (s.precision, s.recall)
    assert s.precision == 1.0 and s.recall == 1.0, (s.precision, s.recall)


def test_kg_nodes_universe_and_variant_suffix(pages_fixture, kg_run):
    fx, _ = pages_fixture
    nodes = kg_run["nodes"]

    dict_entities = {r["entity_id"] for r in fx.alias_dict.to_pylist()}
    got_internal = set(nodes[nodes.label == "Entity"].entity_id)
    assert got_internal == dict_entities  # every defined entity gets a node

    # collision twin: E00001 shares E00000's name, never mentioned in text →
    # zero mentions, deterministic @1 variant suffix (register_unique_qn rule)
    twin = nodes[nodes.entity_id == "E00001"].iloc[0]
    assert twin.n_mentions == 0
    assert twin["name"].endswith("@1")
    first = nodes[nodes.entity_id == "E00000"].iloc[0]
    assert "@" not in first["name"]
    # same name family (connected through the shared alias)
    assert first["name_family"] == twin["name_family"]


def test_kg_external_minting(pages_fixture, kg_run):
    ext_edges = kg_run["external_edges"]
    assert len(ext_edges) > 0
    assert ext_edges.obj.str.startswith("ext::").all()
    # no external endpoint leaks into the internal edge set
    edges = kg_run["edges"]
    assert not edges.subj.str.startswith("ext::").any()
    assert not edges.obj.str.startswith("ext::").any()
    # External nodes minted for unknown-but-linked names only
    nodes = kg_run["nodes"]
    ext_nodes = set(nodes[nodes.label == "ExternalEntity"].entity_id)
    assert ext_nodes == set(ext_edges.obj.unique())


def test_kg_resume_equals_clean(pages_fixture, tmp_path):
    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    ck = str(tmp_path / "ck")

    clean = build_kg(pages, fx.alias_dict, checkpoint_dir=ck)
    assert clean["ckpt"].built == ["mentions"]
    clean_edges = _edge_set(clean["edges"].to_pandas())

    resumed = build_kg(pages, fx.alias_dict, checkpoint_dir=ck)
    assert resumed["ckpt"].resumed == ["mentions"]
    assert _edge_set(resumed["edges"].to_pandas()) == clean_edges

    # fingerprint change invalidates the checkpoint (parser-fingerprint analog)
    rebuilt = build_kg(pages, fx.alias_dict, checkpoint_dir=ck, fingerprint="v2")
    assert rebuilt["ckpt"].built == ["mentions"]
    assert _edge_set(rebuilt["edges"].to_pandas()) == clean_edges


def test_kg_materialize_partitioned_sorted(pages_fixture, kg_run, tmp_path):
    import os

    import pyarrow.parquet as pq

    kg = kg_run["kg"]
    out = str(tmp_path / "graph")
    mans = materialize_kg(kg, out, num_partitions=8)

    assert mans["edges"]["rows"] == len(kg_run["edges"])
    parts = [d for d in os.listdir(f"{out}/edges") if d.startswith("part=")]
    assert 1 <= len(parts) <= 8
    # sorted within partition by subj
    for d in parts:
        pdir = os.path.join(out, "edges", d)
        for f in os.listdir(pdir):
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(pdir, f))
                subs = t["subj"].to_pylist()
                assert subs == sorted(subs)
    # manifest partition counts match data
    assert sum(mans["edges"]["partitions"].values()) == mans["edges"]["rows"]


def test_capture_filter_and_json_export(pages_fixture, kg_run, tmp_path):
    import json
    import os

    from code_graph_rag_ray.pipelines.kg import export_graph_json, filter_capture

    kg = kg_run["kg"]
    only = filter_capture(kg["edges"], {"acquired", "founded"}).to_pandas()
    assert set(only.pred.unique()) <= {"acquired", "founded"}
    assert len(only) < len(kg_run["edges"])

    out = str(tmp_path / "json")
    export_graph_json(kg, out)
    files = [f for f in os.listdir(os.path.join(out, "edges")) if f.endswith(".json")]
    assert files
    with open(os.path.join(out, "edges", files[0])) as f:
        row = json.loads(f.readline())
    assert {"subj", "pred", "obj", "provenance_url"} <= set(row)


def test_cascade_prefix_context_and_builtin_gate():
    """J2 cascade steps 4-5 analogs: a bare first-token mention resolves to
    the page's latest full mention with that prefix (registry prefix-query
    analog); capitalized function words are gated by the builtin table
    (``call_resolver.py:33-44``) — no mention, no spurious triple."""
    import pyarrow as pa

    from code_graph_rag_ray.stages.linking import MentionLinker

    alias = pa.Table.from_pylist(
        [{"alias": "Acme Systems", "entity_id": "E0", "prior": 1.0},
         {"alias": "Acme Labs", "entity_id": "E1", "prior": 1.0},
         {"alias": "Orbit Media", "entity_id": "E2", "prior": 1.0}],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    linker = MentionLinker(alias)

    def run(text):
        return linker(pa.table({
            "url": pa.array(["https://x/1"]), "text": pa.array([text]),
            "lang": pa.array(["en"]),
        })).to_pandas()

    # prefix context: "Acme" resolves to the LATEST full mention with that
    # first token (E1 after "Acme Labs" supersedes "Acme Systems")
    out = run("Acme Systems sued Orbit Media . Acme Labs founded Orbit Media . "
              "Acme acquired Orbit Media .")
    by_pos = out.sort_values("start")
    ctx = by_pos[by_pos.method == "context"]
    assert len(ctx) == 1 and ctx.iloc[0].entity_id == "E1"
    triples = set(map(tuple, out[out.rel.notna()][
        ["entity_id", "rel", "obj_entity_id"]].itertuples(index=False)))
    assert ("E1", "acquired", "E2") in triples

    # with no antecedent, the bare token mints an external instead
    out2 = run("Acme acquired Orbit Media .")
    assert (out2.method == "context").sum() == 0
    assert set(out2[out2.method == "external"].entity_id) == {"ext::acme"}

    # builtin gate: "Today" never becomes a mention or a triple subject
    out3 = run("Today acquired Orbit Media .")
    assert not (out3.surface == "Today").any()
    assert out3.rel.notna().sum() == 0


def test_cascade_acronym_antecedent():
    """J3 context feature: an all-caps token matching the INITIALS of an
    earlier full mention resolves to it (acronym expansion — the
    receiver-type-chain analog); collisions resolve by recency; with no
    antecedent the token mints an external as before."""
    import pyarrow as pa

    from code_graph_rag_ray.stages.linking import MentionLinker

    alias = pa.Table.from_pylist(
        [{"alias": "Acme Systems", "entity_id": "E0", "prior": 1.0},
         {"alias": "Apex Software", "entity_id": "E1", "prior": 1.0},
         {"alias": "Orbit Media", "entity_id": "E2", "prior": 1.0}],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    linker = MentionLinker(alias)

    def run(text):
        return linker(pa.table({
            "url": pa.array(["https://x/1"]), "text": pa.array([text]),
            "lang": pa.array(["en"]),
        })).to_pandas()

    # basic expansion: AS -> Acme Systems; the triple carries E0
    out = run("Acme Systems sued Orbit Media . AS acquired Orbit Media .")
    acr = out[out.method == "acronym"]
    assert len(acr) == 1 and acr.iloc[0].entity_id == "E0"
    assert acr.iloc[0].surface == "AS"
    triples = set(map(tuple, out[out.rel.notna()][
        ["entity_id", "rel", "obj_entity_id"]].itertuples(index=False)))
    assert ("E0", "acquired", "E2") in triples

    # collision recency: Acme Systems and Apex Software both bind 'AS';
    # the most recent full mention wins
    out2 = run("Acme Systems sued Orbit Media . Apex Software sued "
               "Orbit Media . AS acquired Orbit Media .")
    acr2 = out2[out2.method == "acronym"]
    assert len(acr2) == 1 and acr2.iloc[0].entity_id == "E1"

    # no antecedent on the page -> external mint (only kept in a triple)
    out3 = run("AS acquired Orbit Media .")
    assert (out3.method == "acronym").sum() == 0
    assert set(out3[out3.method == "external"].entity_id) == {"ext::as"}

    # lowercase or mixed-case bare tokens never take the acronym path
    out4 = run("Acme Systems sued Orbit Media . As acquired Orbit Media .")
    assert (out4.method == "acronym").sum() == 0


def test_fixture_plants_acronym_mentions():
    """The hardened fixture must actually exercise the acronym feature:
    planted all-caps acronym mentions exist, and the end-to-end gate
    (test_kg_triples_meet_pr_gate / kg_fixture_pr) therefore covers the
    acronym cascade step. Guards against the plant silently vanishing."""
    from code_graph_rag_ray.sources.pages import generate_pages

    fx = generate_pages(300, 42)
    m = fx.expected_mentions.to_pandas()
    acr = m[(m.surface.str.len() >= 2) & (m.surface.str.len() <= 3)
            & m.surface.str.isupper() & (m.type == "ENTITY")]
    assert len(acr) >= 10, f"acronym plants disappeared: {len(acr)}"


def test_cascade_unique_seen_redirect():
    """J2 cascade step: an ambiguous alias whose candidate set contains
    exactly ONE entity already resolved on this page redirects to it, even
    against a higher global prior (interface → unique-concrete-implementer,
    ``call_resolver.py:2596-2682``). Zero or two seen candidates fall back
    to the prior argmax."""
    import pyarrow as pa

    from code_graph_rag_ray.stages.linking import MentionLinker

    alias = pa.Table.from_pylist(
        [{"alias": "Titan", "entity_id": "EA", "prior": 0.9},
         {"alias": "Titan", "entity_id": "EB", "prior": 0.1},
         {"alias": "Bravo Networks", "entity_id": "EB", "prior": 1.0},
         {"alias": "Alpha Group", "entity_id": "EA", "prior": 1.0},
         {"alias": "Orbit Media", "entity_id": "E2", "prior": 1.0}],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    linker = MentionLinker(alias)

    def run(text):
        return linker(pa.table({
            "url": pa.array(["https://x/1"]), "text": pa.array([text]),
            "lang": pa.array(["en"]),
        })).to_pandas()

    # EB (prior 0.1) is the only candidate seen on the page → redirect
    out = run("Bravo Networks sued Orbit Media . Titan acquired Orbit Media .")
    t = out[out.surface == "Titan"]
    assert len(t) == 1 and t.iloc[0].entity_id == "EB"
    assert t.iloc[0].method == "unique"

    # nothing seen → global prior argmax (EA)
    out2 = run("Titan acquired Orbit Media .")
    t2 = out2[out2.surface == "Titan"]
    assert t2.iloc[0].entity_id == "EA" and t2.iloc[0].method == "prior"

    # BOTH candidates seen → ambiguous again, prior argmax
    out3 = run("Bravo Networks sued Alpha Group . Titan acquired Orbit Media .")
    t3 = out3[out3.surface == "Titan"]
    assert t3.iloc[0].entity_id == "EA" and t3.iloc[0].method == "prior"


def test_cascade_host_prior_tier():
    """J3 cross-page context: the host-prior side table resolves (a) a
    known ambiguous alias with no page-local signal — outranking the
    global prior, but only when the mined winner is a real candidate —
    and (b) an unknown surface before External minting; every page-local
    tier still wins over it, and other hosts are unaffected."""
    import pyarrow as pa

    from code_graph_rag_ray.stages.linking import MentionLinker

    alias = pa.Table.from_pylist(
        [{"alias": "Titan", "entity_id": "EA", "prior": 0.9},
         {"alias": "Titan", "entity_id": "EB", "prior": 0.1},
         {"alias": "Orbit Media", "entity_id": "E2", "prior": 1.0}],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    hp = pa.table({"host": ["h.com", "h.com", "h.com"],
                   "surface": ["Titan", "QX", "Ghost"],
                   "entity_id": ["EB", "E2", "E_NOT_A_CAND"],
                   "n": [3, 2, 2]})
    linker = MentionLinker(alias, host_prior_ref=hp)

    def run(text, url="https://h.com/1"):
        return linker(pa.table({
            "url": pa.array([url]), "text": pa.array([text]),
            "lang": pa.array(["en"]),
        })).to_pandas()

    # (a) known ambiguous, no local signal → host prior beats global prior
    out = run("Titan acquired Orbit Media .")
    t = out[out.surface == "Titan"].iloc[0]
    assert (t.entity_id, t.method) == ("EB", "host_prior")
    # other host → global prior fallback unchanged
    t2 = run("Titan acquired Orbit Media .", "https://z.com/1")
    t2 = t2[t2.surface == "Titan"].iloc[0]
    assert (t2.entity_id, t2.method) == ("EA", "prior")
    # (b) unknown surface in a triple → host prior instead of ext:: mint
    out3 = run("QX acquired Orbit Media .")
    q = out3[out3.surface == "QX"].iloc[0]
    assert (q.entity_id, q.method) == ("E2", "host_prior")
    out4 = run("QX acquired Orbit Media .", "https://z.com/1")
    assert out4[out4.surface == "QX"].iloc[0].entity_id == "ext::qx"
    # page-local unique-seen still outranks the host prior... and a mined
    # winner that is NOT a candidate of the alias never applies
    out5 = run("Orbit Media sued Titan .")
    # (Titan has no seen candidate here: E2 not a Titan candidate → host tier)
    assert out5[out5.surface == "Titan"].iloc[0].method == "host_prior"


def _mention_rows(plants) -> pa.Table:
    """Mention rows for the miner: ``n`` copies of each (url, surface,
    entity_id, method) plant."""
    from code_graph_rag_ray.stages.linking import MENTION_SCHEMA

    return pa.Table.from_pylist(
        [{"url": url, "start": 0, "end": 1, "surface": surface,
          "entity_id": eid, "method": method, "rel": None,
          "obj_entity_id": None, "lang": "en"}
         for url, surface, eid, method, n in plants for _ in range(n)],
        schema=MENTION_SCHEMA)


#: the mining rule's cases, one line each
_RULE_PLANTS = [
    ("https://h1.com/a", "Systems", "EA", "recency", 3),
    ("https://h1.com/b", "Systems", "EB", "recency", 1),   # margin holds
    ("https://h1.com/c", "AS", "EA", "acronym", 2),
    ("https://h2.com/a", "Systems", "EA", "recency", 2),
    ("https://h2.com/b", "Systems", "EB", "recency", 2),   # tie → unmined
    ("https://h3.com/a", "Systems", "EA", "recency", 1),   # < min_count
    ("https://h4.com/a", "Systems", "EA", "prior", 5),     # not confident
]


def test_mine_host_priors_rule(ray_session):
    """Mining rule: confident methods only, min_count floor, strict margin,
    deterministic winner, block-layout invariance."""
    from code_graph_rag_ray.stages.linking import mine_host_priors

    tbl = _mention_rows(_RULE_PLANTS)
    out = (mine_host_priors(rd.from_arrow(tbl).repartition(5))
           .to_pandas().sort_values(["host", "surface"]).reset_index(drop=True))
    assert set(map(tuple, out[["host", "surface", "entity_id"]]
                   .itertuples(index=False))) == {
        ("h1.com", "Systems", "EA"), ("h1.com", "AS", "EA")}
    out2 = (mine_host_priors(rd.from_arrow(tbl).repartition(11))
            .to_pandas().sort_values(["host", "surface"]).reset_index(drop=True))
    assert out.equals(out2)


def test_host_prior_exchange_budgets(pages_fixture):
    """Mining pays one exchange (the bucketed finish), and so does the
    whole two-pass build: the side table reaches the driver without a
    grouped-sum shuffle or a repartition."""
    from code_graph_rag_ray.stages.linking import mine_host_priors
    from perfbench.trace import ExecutorStats

    rows = rd.from_arrow(_mention_rows(_RULE_PLANTS)).repartition(5).materialize()
    stats = ExecutorStats()
    with stats:
        assert len(mine_host_priors(rows).take_all()) == 2
    assert stats.take()["exchanges"] == 1

    fx, fx_dir = pages_fixture
    with stats:
        kg = build_kg(rd.read_parquet(f"{fx_dir}/pages.parquet"), fx.alias_dict,
                      host_priors=True, build_nodes=False)
        edges = kg["edges"].to_pandas()
    assert score_sets(_edge_set(edges), _gold_set(fx)).recall == 1.0
    assert stats.take()["exchanges"] <= 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["://", "/", ":", "HTTP", "https", "\n", "é"]),
                          st.text(max_size=4)), max_size=8).map("".join))
def test_url_host_rule_parity(url):
    """The miner's Arrow host rule and the linker's Python one agree on
    every URL: any scheme case, no scheme, several ``://``, newlines."""
    from code_graph_rag_ray.stages.linking import url_host, url_hosts

    assert url_hosts(pa.array([url], pa.string())).to_pylist() == [url_host(url)]


_TITAN_ALIASES = pa.table({"alias": ["Titan Labs", "Orbit Media"],
                           "entity_id": ["EB", "E2"], "prior": [1.0, 1.0]})


def _pages(texts: dict[str, str]) -> rd.Dataset:
    """Pages with both the text the linker reads and the HTML ``build_kg``
    extracts it from."""
    import datetime

    return rd.from_arrow(pa.table({
        "url": list(texts), "text": list(texts.values()),
        "html": [f"<html><body><p>{t}</p></body></html>".encode() for t in texts.values()],
        "warc_ts": [datetime.datetime(2024, 1, 1)] * len(texts),
        "lang": ["en"] * len(texts)}))


def test_linker_cache_is_content_keyed_and_bounded(monkeypatch):
    """Each build ``ray.put``s its tables afresh; the worker's linker cache
    keys by their content, so a rebuilt broadcast of the same table hits
    it, while tables sharing buffers at other offsets do not. The cache
    holds at most ``_MAX_LINKERS`` linkers."""
    from collections import OrderedDict

    from code_graph_rag_ray.stages import linking

    def key(alias):
        return linking._linker_key(alias, None, None, None, linking.MentionLinker)

    assert len({key(ray.put(_TITAN_ALIASES)) for _ in range(3)}) == 1
    assert key(_TITAN_ALIASES.slice(0, 1)) != key(_TITAN_ALIASES.slice(1, 1))

    monkeypatch.setattr(linking, "_LINKER_CACHE", OrderedDict())
    for i in range(linking._MAX_LINKERS + 3):
        alias = pa.table({"alias": [f"A{i}"], "entity_id": ["E"], "prior": [1.0]})
        first = linking._cached_linker(key(alias), alias, None)
        assert linking._cached_linker(key(alias), alias, None) is first
    assert len(linking._LINKER_CACHE) == linking._MAX_LINKERS


def test_upper_case_scheme_pages_feed_host_priors():
    """Pages whose scheme is upper-case are mined under the host the
    linker looks up: two pages resolve 'Titan' by page context, and a
    third page of the same host resolves it by the host prior."""
    from code_graph_rag_ray.stages.linking import link_mentions_two_pass

    ctx = "Titan Labs acquired Orbit Media . Titan sued Orbit Media ."
    pages = _pages({"HTTP://Example.com/1": ctx, "Https://Example.com/2": ctx,
                    "HTTPS://Example.com/3": "Titan acquired Orbit Media ."})
    out = link_mentions_two_pass(pages, ray.put(_TITAN_ALIASES)).to_pandas()
    hit = out[(out.url == "HTTPS://Example.com/3") & (out.surface == "Titan")]
    assert list(zip(hit.entity_id, hit.method)) == [("EB", "host_prior")]


def test_max_prior_rows_keeps_the_top_rows(caplog):
    """A small cap keeps the most-evidenced rows in (n desc, host, surface)
    order whatever the input's block layout, and the warning counts the
    rows it dropped; a cap the table fits exactly drops and warns
    nothing."""
    import logging

    from code_graph_rag_ray.stages.linking import (
        HOST_PRIOR_SCHEMA,
        _deliver_host_priors,
        mine_host_priors,
    )

    plants = [(f"https://h{i}.com/{j}", f"S{j}", f"E{i % 3}", "exact",
               2 + (7 * i + 3 * j) % 5) for i in range(40) for j in range(5)]
    tbl = _mention_rows(plants)
    full = pa.Table.from_pylist(
        sorted(({"host": url.split("/")[2], "surface": surface, "entity_id": eid, "n": n}
                for url, surface, eid, _, n in plants),
               key=lambda r: (-r["n"], r["host"], r["surface"])),
        schema=HOST_PRIOR_SCHEMA)
    for k in (2, 37, 200):
        for parts in (5, 11):
            caplog.clear()
            with caplog.at_level(logging.WARNING, "code_graph_rag_ray.stages.linking"):
                got = _deliver_host_priors(
                    mine_host_priors(rd.from_arrow(tbl).repartition(parts)), k)
            assert got.equals(full.slice(0, k)), (k, parts)
            warned = [r.getMessage() for r in caplog.records]
            assert warned == ([f"host-prior table over max_prior_rows={k}: dropped the "
                               f"{200 - k} least-attested priors (raise the cap or "
                               f"min_count)"] if k < 200 else []), (k, parts)


def test_no_confident_resolution_gives_typed_empty_table():
    """A corpus resolved only by the global prior and External minting
    mines nothing: the side table is the typed empty table, and the
    two-pass build's edges equal the single-pass build's."""
    from code_graph_rag_ray.stages.linking import (
        HOST_PRIOR_SCHEMA,
        _deliver_host_priors,
        link_mentions,
        mine_host_priors,
    )

    alias = pa.table({"alias": ["Titan", "Titan", "Nova", "Nova"],
                      "entity_id": ["EA", "EB", "N1", "N2"],
                      "prior": [0.9, 0.1, 0.6, 0.4]})
    texts = {f"https://h{i % 2}.com/{i}": s for i, s in enumerate(
        ["Titan acquired Nova .", "Nova sued Ghost Corp .",
         "Ghost Corp founded Titan .", "Titan partnered with Nova ."])}
    mentions = link_mentions(_pages(texts), ray.put(alias)).materialize()
    assert set(mentions.to_pandas().method) == {"prior", "external"}
    got = _deliver_host_priors(mine_host_priors(mentions), 1_000_000)
    assert got.schema == HOST_PRIOR_SCHEMA and got.num_rows == 0

    two = build_kg(_pages(texts), alias, host_priors=True, build_nodes=False)
    one = build_kg(_pages(texts), alias, host_priors=False, build_nodes=False)
    edges = _edge_set(two["edges"].to_pandas())
    assert edges and edges == _edge_set(one["edges"].to_pandas())


def test_fixture_plants_exercise_new_cascade_steps(pages_fixture, kg_run):
    """The seeded corpus must actually contain prefix-context and
    builtin-gated plants (otherwise the P/R gate doesn't pin them)."""
    import ray.data as rd

    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import BUILTINS_PLANTED

    fx, fx_dir = pages_fixture
    mentions = build_kg(
        rd.read_parquet(f"{fx_dir}/pages.parquet"), fx.alias_dict,
        build_nodes=False,
    )["mentions"].to_pandas()
    assert (mentions.method == "context").sum() > 0
    assert not mentions.surface.isin(BUILTINS_PLANTED).any()
    # the head entity's collision-twin surface re-resolves via the
    # unique-seen redirect once the head entity has appeared on the page
    assert (mentions.method == "unique").sum() > 0
    # planted builtin sentences exist in the raw text
    texts = " ".join(r["text"] for r in fx.expected_text.to_pylist())
    assert any(b + " " in texts for b in BUILTINS_PLANTED)


def test_host_prior_tier_recovers_plants(pages_fixture, kg_run):
    """J3 cross-page context: the fixture's host-prior plants are
    resolvable ONLY with the corpus-mined side table — single-pass linking
    must lose exactly those gold triples, two-pass must recover them, and
    the recovered mention rows must carry method == host_prior."""
    import ray.data as rd

    from code_graph_rag_ray.pipelines.kg import build_kg

    fx, fx_dir = pages_fixture
    plants = fx.host_prior_plants.to_pylist()
    assert len(plants) >= 2, "fixture lost its host-prior plants"
    assert {p["kind"] for p in plants} == {"known", "unknown"}

    gold = _gold_set(fx)
    single = build_kg(
        rd.read_parquet(f"{fx_dir}/pages.parquet"), fx.alias_dict,
        build_nodes=False, host_priors=False,
    )["edges"].to_pandas()
    s1 = score_sets(_edge_set(single), gold)
    assert s1.recall < 1.0, "plants resolvable single-pass — not planted right"
    plant_urls = {p["url"] for p in plants}
    missing = {g for g in gold - _edge_set(single)}
    assert {u for _, _, _, u in missing} <= plant_urls

    # the two-pass run (kg_run) is exact, and each plant page's subject
    # mention resolved via the host-prior tier to the mined winner
    s2 = score_sets(_edge_set(kg_run["edges"]), gold)
    assert s2.precision == 1.0 and s2.recall == 1.0
    mentions = kg_run["kg"]["mentions"].to_pandas()
    hp = mentions[mentions.method == "host_prior"]
    for p in plants:
        rows = hp[(hp.url == p["url"]) & (hp.surface == p["surface"])]
        assert len(rows) == 1 and rows.iloc[0].entity_id == p["entity_id"], p


def test_head_entity_skew_present(pages_fixture):
    """The corpus stresses skew: head entity dominates mentions (salting path)."""
    fx, _ = pages_fixture
    import collections

    gold = collections.Counter(r["subj"] for r in fx.expected_triples.to_pylist())
    assert gold["E00000"] / sum(gold.values()) > 0.4


def test_canonicalize_externals_exceed_dictionary():
    """Node assembly must be distributed: a corpus whose EXTERNAL entity
    universe dwarfs the dictionary (the web-scale shape — externals are
    minted from arbitrary proper-noun runs) still builds a correct node
    table, with counts, labels and variant suffixes intact."""
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.canonicalize import canonicalize_entities
    from code_graph_rag_ray.stages.linking import MENTION_SCHEMA

    alias_tbl = pa.Table.from_pylist(
        [{"alias": "Acme Corp", "entity_id": "E0", "prior": 1.0},
         {"alias": "Acme corp", "entity_id": "E1", "prior": 1.0}],  # norm collision
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    n_ext = 500  # >> 2 dictionary entries
    rows = []
    for i in range(n_ext):
        eid = f"ext::unknown co {i}"
        reps = 1 + (i % 3)
        for r in range(reps):
            rows.append(
                {"url": f"https://x/{i}/{r}", "start": 0, "end": 5,
                 "surface": f"Unknown Co {i}", "entity_id": eid,
                 "method": "external", "rel": "acquired",
                 "obj_entity_id": "E0", "lang": "en"}
            )
    rows.append({"url": "https://x/e0", "start": 0, "end": 9,
                 "surface": "Acme Corp", "entity_id": "E0", "method": "exact",
                 "rel": None, "obj_entity_id": None, "lang": "en"})
    mentions = rd.from_arrow(pa.Table.from_pylist(rows, schema=MENTION_SCHEMA))

    nodes = canonicalize_entities(mentions, alias_tbl).to_pandas()
    assert len(nodes) == n_ext + 2
    ext = nodes[nodes.label == "ExternalEntity"]
    assert len(ext) == n_ext
    by_id = nodes.set_index("entity_id")
    assert by_id.loc["ext::unknown co 7", "n_mentions"] == 1 + (7 % 3)
    assert by_id.loc["E0", "n_mentions"] == 1
    assert by_id.loc["E1", "n_mentions"] == 0  # dictionary node, unreferenced
    # variant suffix: E0/E1 share a norm_name; rank by sorted entity id
    assert by_id.loc["E0", "name"] == "Acme Corp"
    assert by_id.loc["E1", "name"] == "Acme corp@1"


def test_prune_orphans_drops_unreferenced_externals():
    """A6 analog: ExternalEntity nodes survive only when an edge references
    them; dictionary nodes always survive (cgr keeps every registered
    definition, prunes orphan ExternalModules)."""
    import pyarrow as pa

    from code_graph_rag_ray.stages.canonicalize import prune_orphans

    nodes = rd.from_arrow(pa.Table.from_pylist(
        [{"entity_id": "E0", "label": "Entity"},
         {"entity_id": "E1", "label": "Entity"},          # unreferenced, kept
         {"entity_id": "ext::a", "label": "ExternalEntity"},   # referenced
         {"entity_id": "ext::b", "label": "ExternalEntity"}]   # orphan, pruned
    ))
    edges = rd.from_arrow(pa.Table.from_pylist(
        [{"subj": "E0", "pred": "acquired", "obj": "ext::a"},
         {"subj": "E0", "pred": "founded", "obj": "E0"},
         {"subj": "E0", "pred": "sued", "obj": "ext::a"}]  # dup endpoint
    ))
    out = prune_orphans(nodes, edges).to_pandas()
    assert sorted(out.entity_id) == ["E0", "E1", "ext::a"]
    assert len(out) == len(set(out.entity_id))  # no duplicated survivors


def test_prune_unreferenced_semi_join_endpoints():
    import ray.data as rd

    from code_graph_rag_ray.stages.canonicalize import prune_unreferenced

    nodes = rd.from_arrow(pa.table({
        "entity_id": pa.array(["A", "B", "C", "D", "E"]),
        "n_mentions": pa.array([5, 0, 2, 1, 9], pa.int64()),
    })).repartition(3)
    # A lives as subj (whale: many edges), D only as OBJ, others orphaned;
    # null endpoints ignored
    edges = rd.from_arrow(pa.table({
        "subj": pa.array(["A"] * 50 + ["Z", None]),
        "obj": pa.array(["Z"] * 50 + ["D", "C_nope"]),
    })).repartition(4)
    got = sorted(r["entity_id"] for r in prune_unreferenced(
        nodes, edges,
        node_schema=pa.schema([("entity_id", pa.string()),
                               ("n_mentions", pa.int64())])).take_all())
    assert got == ["A", "D"]
