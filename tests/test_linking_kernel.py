"""The batch path of ``MentionLinker``.

A batch reaches ``MentionLinker.__call__``; every ASCII page without the
marker byte is linked and paired over flat span arrays (``_BatchLinker``:
one RE2 span finder, a ``take`` for the pages whose spans all have one
candidate, one loop of the chained tiers for the rest), the other pages
by the per-page ``_link_page``. The oracle here is the per-page path
alone: ``_link_page`` over every page, in order, into one ``_Cols``. The
linker's table must equal it on every input.
"""

from __future__ import annotations

import inspect
import pathlib
import re

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from code_graph_rag_ray.pipelines.kg import build_kg
from code_graph_rag_ray.sources.pages import RELATIONS
from code_graph_rag_ray.stages import linking
from code_graph_rag_ray.stages.linking import (
    HOST_PRIOR_SCHEMA,
    MentionLinker,
    PreciseLinker,
    _Cols,
    link_mentions,
    link_mentions_two_pass,
)

ALIAS_SCHEMA = pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())])


def _alias(rows) -> pa.Table:
    return pa.Table.from_pylist(
        [{"alias": a, "entity_id": e, "prior": p} for a, e, p in rows],
        schema=ALIAS_SCHEMA)


def _batch(texts, langs=None, *, lang_col=True) -> pa.Table:
    cols = {"url": pa.array([f"https://h{i % 3}.example.org/p{i}"
                             for i in range(len(texts))], pa.string()),
            "text": pa.array(texts, pa.string())}
    if lang_col:
        cols["lang"] = pa.array(langs if langs is not None else ["en"] * len(texts),
                                pa.string())
    return pa.table(cols)


def _oracle(linker: MentionLinker, batch: pa.Table) -> pa.Table:
    out = _Cols()
    texts = batch["text"].to_pylist()
    langs = (batch["lang"].to_pylist() if "lang" in batch.column_names
             else [None] * len(texts))
    for url, text, lang in zip(batch["url"].to_pylist(), texts, langs):
        linker._link_page(url, text or "", lang, out)
    return out.to_table()


def _check(linker: MentionLinker, batch: pa.Table) -> pa.Table:
    got = linker(batch)
    want = _oracle(linker, batch)
    assert got.equals(want), (got.to_pylist(), want.to_pylist())
    return got


PLANTED = _alias([
    ("spark", "E_spark", 1.0), ("table", "E_table", 1.0),
    ("acme systems", "E_acme", 1.0), ("Acme Systems", "E_acme", 1.0),
    ("orbit", "E_orbit", 1.0), ("orbit labs", "E_orbit_labs", 1.0),
    ("u.s. steel", "E_uss", 1.0), ("at&t", "E_att", 1.0), ("c++", "E_cpp", 1.0),
    ("mercury", "E_planet", 0.6), ("mercury", "E_element", 0.4),
])
PLANTED_RELATIONS = {**RELATIONS, "join": "joins", "uses": "uses"}


@pytest.fixture
def linker() -> MentionLinker:
    lk = MentionLinker(PLANTED, PLANTED_RELATIONS)
    assert lk._batch is not None
    return lk


@pytest.fixture
def calls(monkeypatch) -> list:
    """The text of every page the per-page path links."""
    seen: list = []
    inner = MentionLinker._link_page

    def counting(self, url, text, lang, out):
        seen.append(text)
        return inner(self, url, text, lang, out)

    monkeypatch.setattr(MentionLinker, "_link_page", counting)
    return seen


def test_planted_case_and_unicode_pages(linker):
    out = _check(linker, _batch([
        "Acme Systems acquired Orbit Labs . spark join table",   # cap runs
        "Today spark join table",                                # builtin only
        "mercury uses spark . spark join mercury",               # ambiguous
        "sparké join table",                                     # \b disagrees
        "spark join table",
    ]))
    # Python's \b sees é as a word character: no 'spark' on page 3
    assert out.filter(pc.equal(out["url"], "https://h0.example.org/p3")
                      )["surface"].to_pylist() == ["table"]


def test_planted_bytes_and_nulls(linker):
    _check(linker, _batch([
        "spark \x01 join table",          # marker byte
        "spark \x1c join\t table",        # gap that str.strip() trims
        "spark\x1f\x1ejoin\x1dtable",
        "spark \x0b\x0c join \r\n table",
        "",
        None,
        "spark join table",
    ], ["en", None, "fr", "de", None, None, None]))
    _check(linker, _batch(["spark join table", None, "Spark join table"],
                          lang_col=False))


def test_planted_registry_and_punctuated_aliases(linker):
    _check(linker, _batch([
        "acme systems a acquis orbit labs",          # fr surface, ASCII
        "acme systems a fondé orbit labs",           # fr surface, non-ASCII
        "acme systems übernahm orbit labs",          # de surface
        "acme systems acquired orbit labs",
        "u.s. steel sued at&t . at&t join c++x c++ uses u.s. steel",
        "orbit labs join orbit . orbit labs . orbit lab orbit",  # longest first
        "spark,table;spark..table spark_table spark",
    ], ["fr", "fr", "de", "de", "en", "es", None]))


def test_kernel_rows_and_offsets(linker):
    out = _check(linker, _batch(["  spark  join\ttable uses orbit labs  "]))
    assert out.select(["start", "end", "surface", "entity_id", "method", "rel",
                       "obj_entity_id"]).to_pylist() == [
        {"start": 2, "end": 7, "surface": "spark", "entity_id": "E_spark",
         "method": "exact", "rel": "joins", "obj_entity_id": "E_table"},
        {"start": 14, "end": 19, "surface": "table", "entity_id": "E_table",
         "method": "exact", "rel": "uses", "obj_entity_id": "E_orbit_labs"},
        {"start": 25, "end": 35, "surface": "orbit labs",
         "entity_id": "E_orbit_labs", "method": "exact", "rel": None,
         "obj_entity_id": None},
    ]


def _check_halves(linker: MentionLinker, batch: pa.Table) -> None:
    _check(linker, batch)
    # batch boundaries do not matter: two halves give the same rows
    half = batch.num_rows // 2
    assert pa.concat_tables([linker(batch.slice(0, half)),
                             linker(batch.slice(half))]).equals(linker(batch))


CAPS_ALIAS = _alias([
    ("Acme Systems", "E_acme", 1.0), ("Acme", "E_acme", 0.5), ("Acme", "E_acme_bank", 0.4),
    ("Orbit Labs", "E_orbit", 1.0), ("orbit", "E_orbit", 1.0), ("Labs", "E_lab", 1.0),
    ("mercury", "E_planet", 0.6), ("mercury", "E_element", 0.4),
    ("Mercury Corp", "E_mercury_corp", 1.0), ("The Hub", "E_hub", 1.0),
    ("spark", "E_spark", 1.0), ("table", "E_table", 1.0), ("NASA", "E_nasa", 1.0),
])
CAPS_PAGES = {
    "capitalised aliases": [
        "Acme Systems acquired Orbit Labs .", "Orbit Labs sued Acme Systems",
        "NASA join spark", "The Hub uses table"],
    "ambiguous aliases": [
        "mercury join spark . mercury uses table", "Acme acquired spark . Acme",
        "Mercury Corp acquired mercury . mercury join Mercury Corp",
        "Acme Systems acquired spark . Acme sued table"],
    "builtin capitals only": [
        "Today spark join table", "The spark uses table . However table",
        "Monday , spark join table . It acquired orbit", "I A An"],
    "cap runs next to aliases": [
        "Big Acme Systems acquired Zed", "Acme SystemsX join spark",
        "Orbit Labs Group acquired Qqux Inc", "Zed Orbit Labs sued Acme Systems Inc",
        "Qqux Inc acquired Zed Corp . ZC sued Qqux", "Zed Corp acquired spark . Zed sued spark",
        "Acme Systems acquired Zed . AS sued Zed", "NASAX NASA_x NASA Ames", "spark_Table",
        "Orbit Labs acquired Orbit Labs . Labs sued Acme . Qqux Labs join table"],
    "mixed ascii and non-ascii": [
        "Acme Systems acquired Zürich Labs", "spark join table", None,
        "mercury über Orbit Labs", "Orbit Labs acquired Éclair Inc", "",
        "Mercury Corp a fondé Acme Systems"],
    "marker bytes": [
        "Acme Systems \x01 acquired Orbit Labs", "spark join table",
        "\x01", "Zed \x01Corp acquired mercury", "mercury join spark"],
}


@pytest.mark.parametrize("host_priors", [False, True], ids=["plain", "host_priors"])
@pytest.mark.parametrize("case", sorted(CAPS_PAGES))
def test_planted_span_finder_cases(case, host_priors):
    texts = CAPS_PAGES[case]
    batch = _batch(texts, (["en", "fr", None, "de"] * 3)[:len(texts)])
    hp = _host_priors(batch, CAPS_ALIAS) if host_priors else None
    lk = MentionLinker(CAPS_ALIAS, PLANTED_RELATIONS, host_prior_ref=hp)
    assert lk._batch is not None
    _check_halves(lk, batch)


def test_span_finder_drops_builtins_and_overlaps():
    lk = MentionLinker(CAPS_ALIAS, PLANTED_RELATIONS)
    got = lk(_batch(["Today Big Acme Systems acquired Zed Corp", "The Hub join Monday"]))
    assert got.select(["surface", "method"]).to_pylist() == [
        {"surface": "Acme Systems", "method": "exact"},
        {"surface": "Zed Corp", "method": "external"},
        {"surface": "The Hub", "method": "exact"},
    ]


_ALPHABET = "ab .+&-_\t\x1cAé\x01"
_aliases = st.lists(st.text(alphabet=_ALPHABET, min_size=1, max_size=5),
                    min_size=0, max_size=6, unique=True)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), aliases=_aliases,
       relations=st.lists(st.text(alphabet="ab +\x1c", max_size=3), max_size=4))
def test_kernel_matches_per_page_path(data, aliases, relations):
    rows = [(a, f"E{i}", 1.0) for i, a in enumerate(aliases)]
    rows += [(a, f"F{i}", 0.5) for i, a in enumerate(aliases)
             if data.draw(st.booleans())]
    lk = MentionLinker(_alias(rows), {r: "p_" + r for r in relations})
    piece = st.one_of(st.sampled_from(aliases or ["a"]),
                      st.sampled_from(relations or ["b"]),
                      st.text(alphabet=_ALPHABET, max_size=3))
    texts = data.draw(st.lists(
        st.one_of(st.none(), st.lists(piece, max_size=8).map(" ".join)),
        min_size=1, max_size=6))
    langs = data.draw(st.lists(st.sampled_from([None, "en", "fr", "de"]),
                               min_size=len(texts), max_size=len(texts)))
    _check(lk, _batch(texts, langs))


_WORDS = ["Acme", "Systems", "acme", "AS", "Zed", "Corp", "ZC", "The", "Today",
          "mercury", "Mercury", "Labs", "x", "Ab", "B", "b_", "é", "\x01", "acquired",
          "join"]
_SEPS = [" ", "  ", " . ", ", ", "\t", ""]
_phrase = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), aliases=st.lists(_phrase, max_size=8, unique=True))
def test_span_finder_matches_per_page_path(data, aliases):
    """Capitalised and ambiguous aliases, builtins, cap runs that overlap
    or abut aliases, non-ASCII and marker pages, with host priors on known
    and unknown surfaces."""
    rows = [(a, f"E{i}", 1.0) for i, a in enumerate(aliases)]
    rows += [(a, f"F{i}", 0.5) for i, a in enumerate(aliases) if data.draw(st.booleans())]
    alias = _alias(rows)
    words = st.lists(st.tuples(st.one_of(st.sampled_from(aliases or ["x"]), _phrase),
                               st.sampled_from(_SEPS)), max_size=8)
    texts = data.draw(st.lists(
        st.one_of(st.none(), words.map(lambda ws: "".join(w + s for w, s in ws))),
        min_size=1, max_size=6))
    batch = _batch(texts)
    hosts = sorted({u.split("/")[2] for u in batch["url"].to_pylist()})
    priors = data.draw(st.lists(
        st.tuples(st.sampled_from(hosts), st.one_of(st.sampled_from(aliases or ["x"]), _phrase),
                  st.sampled_from(["E0", "F0", "E1", "G"])),
        max_size=6, unique_by=lambda r: r[:2]))
    hp = pa.Table.from_pylist([{"host": h, "surface": s, "entity_id": e, "n": 2}
                               for h, s, e in priors], schema=HOST_PRIOR_SCHEMA)
    lk = MentionLinker(alias, {"acquired": "acquired", "join": "joins"}, host_prior_ref=hp)
    _check_halves(lk, batch)


def _host_priors(batch: pa.Table, alias_tbl: pa.Table) -> pa.Table:
    """Every (host, alias) → the alias's last-listed entity: a table that
    changes ambiguous resolutions on the per-page path."""
    hosts = sorted({u.split("/")[2] for u in batch["url"].to_pylist()})
    last = dict(zip(alias_tbl["alias"].to_pylist(), alias_tbl["entity_id"].to_pylist()))
    return pa.Table.from_pylist(
        [{"host": h, "surface": a, "entity_id": e, "n": 2}
         for h in hosts for a, e in sorted(last.items())],
        schema=HOST_PRIOR_SCHEMA)


def _lowered(batch: pa.Table, alias_tbl: pa.Table) -> tuple[pa.Table, pa.Table]:
    """The lowercase image: most pages pass the gate, and aliases that
    collide under lowercasing turn ambiguous."""
    return (batch.set_column(batch.column_names.index("text"), "text",
                             pc.utf8_lower(batch["text"])),
            alias_tbl.set_column(0, "alias", pc.utf8_lower(alias_tbl["alias"])))


def _headline(seed: int) -> tuple[pa.Table, pa.Table, dict]:
    from code_graph_rag_ray.functions.vocab import (
        ENTITY_VOCAB_SORTED,
        RELATION_VOCAB_SORTED,
    )
    from code_graph_rag_ray.sources.pages import _docs_to_pages_batch
    from code_graph_rag_ray.stages.extract import extract_text_batch
    from perfbench.inputs import documents

    pages = extract_text_batch(_docs_to_pages_batch(documents(300, seed)))
    alias = _alias([(w, w, 1.0) for w in ENTITY_VOCAB_SORTED])
    return pages, alias, {w: w for w in RELATION_VOCAB_SORTED}


def _fixture(kind: str, seed: int) -> tuple[pa.Table, pa.Table, dict | None]:
    from code_graph_rag_ray.sources.organic import generate_organic_pages
    from code_graph_rag_ray.sources.pages import generate_pages
    from code_graph_rag_ray.stages.extract import extract_text_batch

    if kind == "headline":
        return _headline(seed)
    fx = (generate_pages(200, seed) if kind.startswith("pages")
          else generate_organic_pages(120, seed))
    pages, alias = extract_text_batch(fx.pages), fx.alias_dict
    if kind.endswith("lower"):
        pages, alias = _lowered(pages, alias)
    return pages, alias, None


@pytest.mark.parametrize("host_priors", [False, True], ids=["plain", "host_priors"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["pages", "pages_lower", "organic",
                                  "organic_lower", "headline"])
def test_seeded_corpora(kind, seed, host_priors):
    pages, alias, relations = _fixture(kind, seed)
    hp = _host_priors(pages, alias) if host_priors else None
    lk = MentionLinker(alias, relations, host_prior_ref=hp)
    assert lk._batch is not None
    _check_halves(lk, pages)


@pytest.mark.parametrize("host_priors", [False, True], ids=["plain", "host_priors"])
@pytest.mark.parametrize("seed", [1, 2])
def test_adversarial_pages(seed, host_priors):
    from code_graph_rag_ray.sources.adversarial import mutate_pages
    from code_graph_rag_ray.sources.pages import generate_pages
    from code_graph_rag_ray.stages.extract import extract_text_batch

    fx = generate_pages(200, seed)
    pages = extract_text_batch(mutate_pages(fx.pages, 0.6, seed=seed)[0])
    hp = _host_priors(pages, fx.alias_dict) if host_priors else None
    lk = MentionLinker(fx.alias_dict, host_prior_ref=hp)
    _check_halves(lk, pages)


def test_only_non_ascii_pages_take_the_per_page_path(calls):
    from code_graph_rag_ray.sources.pages import generate_pages
    from code_graph_rag_ray.stages.extract import extract_text_batch

    fx = generate_pages(2000, 2)
    pages = extract_text_batch(fx.pages)
    lk = MentionLinker(fx.alias_dict)
    lk(pages)
    text = pc.fill_null(pages["text"], "")
    assert not pc.any(pc.match_substring(text, "\x01")).as_py()
    ascii_ = pc.string_is_ascii(text)
    assert calls == text.filter(pc.invert(ascii_)).to_pylist()
    assert 0 < len(calls) < 30


#: the per-build method mix of the two-pass cascade build on
#: ``generate_pages(2000, 2)``, as the per-page path gives it
CASCADE_METHODS = {"exact": 7781, "host_prior": 1488, "unique": 765, "recency": 378,
                   "external": 287, "acronym": 203, "context": 200}


def test_cascade_method_mix_is_pinned():
    """Pass 1, the host priors mined in-process with the miner's own block
    and bucket functions, pass 2: the method counts are pinned, and the
    internal edges meet the planted gold exactly."""
    from code_graph_rag_ray.functions.scoring import score_sets
    from code_graph_rag_ray.sources.pages import generate_pages
    from code_graph_rag_ray.stages.extract import extract_text_batch

    fx = generate_pages(2000, 2)
    pages = extract_text_batch(fx.pages)
    first = MentionLinker(fx.alias_dict)(pages)
    priors = linking._winners(linking._partial_counts(first), 2)
    lk = MentionLinker(fx.alias_dict, host_prior_ref=priors)
    got = lk(pages)
    assert got.equals(_oracle(lk, pages))
    methods = got["method"].value_counts().to_pylist()
    assert {m["values"]: m["counts"] for m in methods} == CASCADE_METHODS
    t = got.filter(pc.is_valid(got["rel"]))
    edges = {(s, p, o, u) for s, p, o, u in zip(*(t[c].to_pylist() for c in (
        "entity_id", "rel", "obj_entity_id", "url"))) if not (
        s.startswith("ext::") or o.startswith("ext::"))}
    gold = {(r["subj"], r["pred"], r["obj"], r["url"])
            for r in fx.expected_triples.to_pylist()}
    s = score_sets(edges, gold)
    assert (s.precision, s.recall) == (1.0, 1.0)


def test_exact_batch_takes_no_per_page_call(calls):
    pages, alias, relations = _headline(4)
    lk = MentionLinker(alias, relations)
    got = lk(pages)
    assert calls == []
    assert got.equals(_oracle(lk, pages))


def test_mixed_batch_calls_once_per_gated_page(linker, calls):
    # capitals and ambiguous aliases stay on the batch path; only pages
    # that are not ASCII or hold the marker byte reach ``_link_page``
    gated = ["sparké join table", "spark \x01 join table"]
    batch = _batch(["spark join table", "Spark join table", "", "mercury join spark",
                    None, gated[0], "orbit uses c++x", gated[1]])
    got = linker(batch)
    assert calls == gated
    assert got.equals(_oracle(linker, batch))


def test_precise_linker_calls_once_per_page(calls):
    lk = PreciseLinker(PLANTED, PLANTED_RELATIONS)
    assert lk._batch is None
    batch = _batch(["spark join table", "SPARK JOIN TABLE", ""])
    lk(batch)
    assert calls == batch["text"].to_pylist()


def test_uncompilable_pattern_takes_per_page_path(monkeypatch, calls):
    monkeypatch.setattr(linking, "_re2_escape", lambda alias: "(")
    lk = MentionLinker(PLANTED, PLANTED_RELATIONS)
    assert lk._batch is None
    batch = _batch(["spark join table", "orbit labs uses c++x"])
    assert lk(batch).equals(_oracle(lk, batch))
    assert len(calls) == 2 * batch.num_rows  # the linker, then the oracle


def test_empty_alias_takes_per_page_path():
    # Python's alternation then matches the empty string at every word
    # boundary, which the split pieces cannot express
    lk = MentionLinker(_alias([("", "E_empty", 1.0), ("spark", "E_spark", 1.0)]))
    assert lk._batch is None
    _check(lk, _batch(["spark acquired spark"]))


def _params(fn) -> list[tuple]:
    return [(p.name, p.kind.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


def test_kernel_has_no_knob():
    """No option or environment variable switches the batch path: the
    signatures stay as they were before it, the batch path is built from
    the linker's own tables only, and the module reads no environment."""
    empty = inspect.Parameter.empty
    kw = "KEYWORD_ONLY"
    assert _params(link_mentions) == [
        ("pages_text_ds", "POSITIONAL_OR_KEYWORD", empty),
        ("alias_ref", "POSITIONAL_OR_KEYWORD", empty),
        ("relations", kw, None), ("registry", kw, None),
        ("concurrency", kw, None), ("batch_size", kw, None),
        ("host_prior_ref", kw, None), ("linker_cls", kw, MentionLinker)]
    assert _params(link_mentions_two_pass) == [
        ("pages_text_ds", "POSITIONAL_OR_KEYWORD", empty),
        ("alias_ref", "POSITIONAL_OR_KEYWORD", empty),
        ("relations", kw, None), ("registry", kw, None),
        ("max_prior_rows", kw, 1_000_000), ("shouty_two_tier", kw, False),
        ("precise_concurrency", kw, 2)]
    assert _params(build_kg) == [
        ("pages", "POSITIONAL_OR_KEYWORD", empty),
        ("alias_tbl", "POSITIONAL_OR_KEYWORD", empty),
        ("relations", kw, None), ("registry", kw, None),
        ("checkpoint_dir", kw, None), ("fingerprint", kw, ""),
        ("dedup_scope", kw, "provenance-local"),
        ("materialize_mentions", kw, True), ("build_nodes", kw, True),
        ("build_links", kw, False), ("host_priors", kw, False),
        ("shouty_two_tier", kw, False)]
    pos = "POSITIONAL_OR_KEYWORD"
    assert _params(MentionLinker.__init__) == [
        ("self", pos, empty), ("alias_ref", pos, empty),
        ("relations", pos, None), ("registry", pos, None),
        ("host_prior_ref", pos, None)]
    assert _params(linking._BatchLinker.__init__) == [
        ("self", pos, empty), ("index", pos, empty), ("relations", pos, empty),
        ("rel_by_lang", pos, empty), ("host_prior", pos, empty)]
    src = pathlib.Path(linking.__file__).read_text()
    assert not re.search(r"\benviron\b|\bgetenv\b", src)
