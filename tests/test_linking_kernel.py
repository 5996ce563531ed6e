"""Exact-tier link kernel of ``MentionLinker``.

A batch reaches ``MentionLinker.__call__``; the pages that provably
resolve on the exact tier are linked and paired by one Arrow RE2 pass
(``_ExactKernel``), the rest by the per-page ``_link_page``. The oracle
here is the per-page path alone: ``_link_page`` over every page, in order,
into one ``_Cols``. The linker's table must equal it on every input.
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
    assert lk._kernel is not None
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
    assert lk._kernel is not None
    _check(lk, pages)
    # batch boundaries do not matter: two halves give the same rows
    half = pages.num_rows // 2
    assert pa.concat_tables([lk(pages.slice(0, half)),
                             lk(pages.slice(half))]).equals(lk(pages))


def test_exact_batch_takes_no_per_page_call(calls):
    pages, alias, relations = _headline(4)
    lk = MentionLinker(alias, relations)
    got = lk(pages)
    assert calls == []
    assert got.equals(_oracle(lk, pages))


def test_mixed_batch_calls_once_per_gated_page(linker, calls):
    gated = ["Spark join table", "mercury join spark", "sparké join table",
             "spark \x01 join table"]
    batch = _batch(["spark join table", gated[0], "", gated[1], None, gated[2],
                    "orbit uses c++x", gated[3]])
    got = linker(batch)
    assert calls == gated
    assert got.equals(_oracle(linker, batch))


def test_precise_linker_calls_once_per_page(calls):
    lk = PreciseLinker(PLANTED, PLANTED_RELATIONS)
    assert lk._kernel is None
    batch = _batch(["spark join table", "SPARK JOIN TABLE", ""])
    lk(batch)
    assert calls == batch["text"].to_pylist()


def test_uncompilable_pattern_takes_per_page_path(monkeypatch, calls):
    monkeypatch.setattr(linking, "_re2_escape", lambda alias: "(")
    lk = MentionLinker(PLANTED, PLANTED_RELATIONS)
    assert lk._kernel is None
    batch = _batch(["spark join table", "orbit labs uses c++x"])
    assert lk(batch).equals(_oracle(lk, batch))
    assert len(calls) == 2 * batch.num_rows  # the linker, then the oracle


def test_empty_alias_takes_per_page_path():
    # Python's alternation then matches the empty string at every word
    # boundary, which the split pieces cannot express
    lk = MentionLinker(_alias([("", "E_empty", 1.0), ("spark", "E_spark", 1.0)]))
    assert lk._kernel is None
    _check(lk, _batch(["spark acquired spark"]))


def _params(fn) -> list[tuple]:
    return [(p.name, p.kind.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


def test_kernel_has_no_knob():
    """No option or environment variable switches the kernel: the
    signatures stay as they were before it, and the module reads no
    environment."""
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
    src = pathlib.Path(linking.__file__).read_text()
    assert not re.search(r"\benviron\b|\bgetenv\b", src)
