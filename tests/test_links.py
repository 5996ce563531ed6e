"""Hyperlink extraction + link-graph resolution tests (M8-href / J4 / J8).

The pages fixture plants ``<a href>`` targets on ~25% of subject mentions
(``sources/pages.py``), all pointing at HEAD_HOST page urls that may or may
not exist in the corpus — so the semi/anti join is non-trivial and the
expected split is recomputable exactly in Python.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.links import (
    extract_hrefs,
    extract_links,
    resolve_links,
)


def test_extract_hrefs_vectorized_edge_cases():
    html = pa.array(
        [
            '<a href="https://x/1">one</a> text <a href="https://x/2">two</a>',
            "no links here",
            '<a href="https://y/unterminated',  # no closing quote → dropped
            "",
            None,
            'href="https://z/bare"',  # attribute form without a tag still matches
        ]
    )
    targets, rows = extract_hrefs(html)
    assert targets.to_pylist() == ["https://x/1", "https://x/2", "https://z/bare"]
    assert rows.tolist() == [0, 0, 5]


def test_extract_hrefs_anchors_edge_cases():
    from code_graph_rag_ray.stages.links import extract_hrefs_anchors

    html = pa.array(
        [
            '<a href="https://x/1">one</a> <a href="https://x/2" class="c">two</a>',
            '<a href="https://x/3"><b>bold</b> tail</a>',  # nested → empty lead run
            '<a href="https://y/unterminated',  # dropped entirely
            '<a href="https://x/4">',  # anchor never closed → to first '<' / end
            None,
        ]
    )
    targets, anchors, rows = extract_hrefs_anchors(html)
    assert targets.to_pylist() == [
        "https://x/1", "https://x/2", "https://x/3", "https://x/4",
    ]
    assert anchors.to_pylist() == ["one", "two", "", ""]
    assert rows.tolist() == [0, 0, 1, 3]


def test_extract_links_anchor_matches_fixture(pages_fixture):
    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    got = extract_links(pages, with_anchor=True).to_pandas()
    got_set = set(map(tuple, got.itertuples(index=False)))
    exp_set = {
        (r["url"], r["target"], r["anchor"])
        for r in fx.expected_links.to_pylist()
    }
    assert got_set == exp_set
    assert len({a for _, _, a in exp_set}) > 3  # anchors are data-dependent


def test_anchor_summary_matches_python_recompute(pages_fixture):
    from code_graph_rag_ray.stages.links import anchor_summary

    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    links = extract_links(pages, with_anchor=True)
    got = anchor_summary(links, pages.select_columns(["url"])).to_pandas()

    corpus = {r["url"] for r in fx.pages.select(["url"]).to_pylist()}
    counts: dict[str, dict[str, int]] = {}
    for r in fx.expected_links.to_pylist():
        if r["target"] in corpus:
            counts.setdefault(r["target"], {})
            counts[r["target"]][r["anchor"]] = (
                counts[r["target"]].get(r["anchor"], 0) + 1
            )
    exp = {
        dst: (
            sum(c.values()),
            len(c),
            min(c, key=lambda a: (-c[a], a)),
        )
        for dst, c in counts.items()
    }
    got_map = {
        r.dst_url: (int(r.n_links), int(r.n_anchors), r.top_anchor)
        for r in got.itertuples(index=False)
    }
    assert got_map == exp
    # the fixture actually exercises multi-anchor targets + the tie-break
    assert any(v[1] > 1 for v in exp.values())


def test_extract_links_matches_fixture(pages_fixture):
    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    got = extract_links(pages).to_pandas()
    got_set = set(map(tuple, got.itertuples(index=False)))
    exp_set = {(r["url"], r["target"]) for r in fx.expected_links.to_pylist()}
    assert got_set == exp_set
    assert len(exp_set) > 10  # fixture actually plants links


def test_resolve_links_semi_anti_split(pages_fixture):
    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    links = extract_links(pages)
    out = resolve_links(links, pages.select_columns(["url"]))

    corpus = {r["url"] for r in fx.pages.select(["url"]).to_pylist()}
    planted = [(r["url"], r["target"]) for r in fx.expected_links.to_pylist()]
    exp_internal = {(u, t) for u, t in planted if t in corpus}
    exp_ext_sites: dict[str, int] = {}
    for _u, t in planted:
        if t not in corpus:
            host = t.split("://", 1)[1].split("/", 1)[0].lower()
            exp_ext_sites[host] = exp_ext_sites.get(host, 0) + 1

    internal = out["internal"].to_pandas()
    got_internal = set(map(tuple, internal.itertuples(index=False)))
    assert got_internal == exp_internal
    assert len(exp_internal) > 0  # some targets resolve…

    external = out["external"].to_pandas()
    got_ext = dict(zip(external.site, external.n_links))
    assert got_ext == exp_ext_sites
    assert sum(exp_ext_sites.values()) > 0  # …and some dangle (anti side)


def test_build_kg_emits_link_graph(pages_fixture):
    """build_links=True: the flagship run also emits the verified link
    graph (cgr's verified-IMPORTS flush inside the same lifecycle)."""
    from code_graph_rag_ray.pipelines.kg import build_kg

    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    kg = build_kg(pages, fx.alias_dict, build_nodes=False, build_links=True)

    corpus = {r["url"] for r in fx.pages.select(["url"]).to_pylist()}
    planted = [(r["url"], r["target"]) for r in fx.expected_links.to_pylist()]
    exp_internal = {(u, t) for u, t in planted if t in corpus}

    got = set(map(tuple, kg["link_edges"].to_pandas().itertuples(index=False)))
    assert got == exp_internal
    ext = kg["ext_sites"].to_pandas()
    assert int(ext.n_links.sum()) == sum(1 for _u, t in planted if t not in corpus)


def test_structure_edges_depth_and_dedup():
    """M4 analog: host → folder prefixes → page chain, deduped containers,
    depth-capped, unparseable urls skipped."""
    import pyarrow as pa

    from code_graph_rag_ray.stages.structure import structure_edges

    urls = [
        "https://a.org/x/y/p1",
        "https://a.org/x/y/p2",   # shares both folders
        "https://a.org/p3",       # page at host root
        "https://b.org/z/deep/nest/p4",  # depth capped at 2
        "not a url",              # skipped
    ]
    pages = rd.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    out = structure_edges(pages, max_depth=2).to_pandas()
    got = set(map(tuple, out.itertuples(index=False)))
    assert got == {
        ("a.org", "a.org/x", "CONTAINS_FOLDER"),
        ("a.org/x", "a.org/x/y", "CONTAINS_FOLDER"),
        ("a.org/x/y", "https://a.org/x/y/p1", "CONTAINS_PAGE"),
        ("a.org/x/y", "https://a.org/x/y/p2", "CONTAINS_PAGE"),
        ("a.org", "https://a.org/p3", "CONTAINS_PAGE"),
        ("b.org", "b.org/z", "CONTAINS_FOLDER"),
        ("b.org/z", "b.org/z/deep", "CONTAINS_FOLDER"),
        ("b.org/z/deep", "https://b.org/z/deep/nest/p4", "CONTAINS_PAGE"),
    }


def test_mine_anchor_aliases_exact_counts_and_priors():
    from code_graph_rag_ray.stages.links import mine_anchor_aliases

    # links: "Orbit Relay" names in-corpus page P 3x, page Q 1x; "  Orbit
    # Relay " trims to the same alias; one vote goes to an EXTERNAL target
    # (dropped by the semi-join); empty anchors dropped.
    links = rd.from_arrow(pa.table({
        "url": pa.array([f"https://s/{i}" for i in range(7)]),
        "target": pa.array(["https://c/P", "https://c/P", "https://c/P",
                            "https://c/Q", "https://ext/x",
                            "https://c/P", "https://c/Q"]),
        "anchor": pa.array(["Orbit Relay", "Orbit Relay", " Orbit Relay ",
                            "Orbit Relay", "Orbit Relay", "", "hub"]),
    })).repartition(4)
    corpus = rd.from_arrow(pa.table(
        {"url": pa.array(["https://c/P", "https://c/Q"])}))
    got = {(r["alias"], r["entity_id"]): (r["prior"], r["n_links"])
           for r in mine_anchor_aliases(links, corpus, min_count=1).take_all()}
    assert got == {
        ("Orbit Relay", "page::https://c/P"): (3 / 4, 3),
        ("Orbit Relay", "page::https://c/Q"): (1 / 4, 1),
        ("hub", "page::https://c/Q"): (1.0, 1),
    }
    # min_count prunes the singletons
    got2 = {r["alias"] for r in
            mine_anchor_aliases(links, corpus, min_count=2).take_all()}
    assert got2 == {"Orbit Relay"}


def test_mined_aliases_bootstrap_the_linker():
    """The dictionary-bootstrapping loop: anchors mint alias rows that,
    unioned into the broadcast dictionary, let the linker resolve mentions
    the base dictionary misses."""
    from code_graph_rag_ray.stages.linking import MentionLinker
    from code_graph_rag_ray.stages.links import mine_anchor_aliases

    links = rd.from_arrow(pa.table({
        "url": pa.array(["https://s/1", "https://s/2"]),
        "target": pa.array(["https://c/relay"] * 2),
        "anchor": pa.array(["Orbit Relay Hub"] * 2),
    }))
    corpus = rd.from_arrow(pa.table({"url": pa.array(["https://c/relay"])}))
    mined = mine_anchor_aliases(links, corpus, min_count=2)
    mined_tbl = pa.Table.from_pandas(
        mined.to_pandas()[["alias", "entity_id", "prior"]],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    base = pa.Table.from_pylist(
        [{"alias": "Acme Systems", "entity_id": "E0", "prior": 1.0}],
        schema=mined_tbl.schema)
    page = pa.table({
        "url": pa.array(["https://x/1"]),
        "text": pa.array(["Acme Systems talked to Orbit Relay Hub today."]),
        "lang": pa.array(["en"]),
    })
    miss = MentionLinker(base)(page).to_pandas()
    assert "page::https://c/relay" not in set(miss["entity_id"])
    hit = MentionLinker(pa.concat_tables([base, mined_tbl]))(page).to_pandas()
    assert {"E0", "page::https://c/relay"} <= set(hit["entity_id"])


def test_incremental_links_equals_clean(pages_fixture):
    from code_graph_rag_ray.stages.links import extract_links, incremental_links

    fx, fx_dir = pages_fixture
    pages = rd.read_parquet(f"{fx_dir}/pages.parquet")
    prev = extract_links(pages).materialize()

    # change page 0 (new html with one new link), delete page 1 (empty html)
    first_two = pages.take(2)
    changed = rd.from_items([
        {"url": first_two[0]["url"], "warc_ts": first_two[0]["warc_ts"],
         "html": b'<a href="https://new.example.org/x">n</a>',
         "text": "", "lang": "en"},
        {"url": first_two[1]["url"], "warc_ts": first_two[1]["warc_ts"],
         "html": b"", "text": "", "lang": "en"},
    ])
    inc = incremental_links(changed, prev)

    # clean rebuild over the same corpus state
    import pyarrow.compute as pc2
    urls = {first_two[0]["url"], first_two[1]["url"]}
    remaining = pages.map_batches(
        lambda b: b.filter(pc2.invert(pc2.is_in(
            b["url"], value_set=pa.array(sorted(urls))))),
        batch_format="pyarrow")
    clean = extract_links(remaining.union(changed))

    def key(rows):
        return sorted((r["url"], r["target"]) for r in rows)

    assert key(inc.take_all()) == key(clean.take_all())
    # the new link is present, page 1 contributes nothing
    assert (first_two[0]["url"], "https://new.example.org/x") in key(inc.take_all())
    assert all(u != first_two[1]["url"] for u, _ in key(inc.take_all()))


def test_anchor_summary_null_anchor_is_a_group():
    """A null anchor counts as one anchor of its own and sorts after the
    others on a count tie, as in SQL ``GROUP BY`` + ``array_agg(ORDER BY
    n DESC, anchor ASC)``."""
    import duckdb

    from code_graph_rag_ray.stages.links import anchor_summary

    links = pa.table({
        "url": [f"s{i}" for i in range(9)],
        "target": ["t1"] * 4 + ["t2"] * 3 + ["t3", "gone"],
        "anchor": ["x", None, None, "x", None, None, "y", None, "z"],
    })
    urls = pa.table({"url": ["t1", "t2", "t3"]})
    got = anchor_summary(rd.from_arrow(links).repartition(3),
                         rd.from_arrow(urls)).to_pandas()
    got = sorted(map(tuple, got[["dst_url", "n_links", "n_anchors",
                                 "top_anchor"]].itertuples(index=False)))
    con = duckdb.connect()
    con.register("l", links)
    con.register("u", urls)
    exp = con.execute(
        """WITH c AS (
             SELECT target AS dst_url, anchor, count(*) AS n
             FROM l WHERE target IN (SELECT url FROM u) GROUP BY 1, 2)
           SELECT dst_url, CAST(sum(n) AS BIGINT) AS n_links,
                  count(*) AS n_anchors,
                  (array_agg(anchor ORDER BY n DESC, anchor ASC))[1] AS top_anchor
           FROM c GROUP BY dst_url ORDER BY dst_url""").fetchall()
    assert got == exp
    assert exp[0] == ("t1", 4, 2, "x") and exp[1] == ("t2", 3, 2, None)
