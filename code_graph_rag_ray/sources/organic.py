"""Second fixture family: a Zipf-shaped "organic web" corpus, structurally
DIFFERENT from `sources/pages.py generate_pages` on every axis that could
have been overfit:

- entity POPULARITY is Zipfian (exponent 1.2) instead of one head entity +
  uniform tail — resolution quality is measured under realistic skew;
- the entity NAME SPACE is disjoint (syllable-generated org names, unique
  full names, NO shared-noun ambiguity, no planted collisions) — every
  mention resolves through the exact tier, so gold truth is well-posed
  without mirroring the cascade's recency maps;
- HOST topology is a 16-host power law instead of 40% head + 5 tails;
- PAGE STRUCTURE is article-shaped html (style blocks, comments, h2
  headings, sections, lists) instead of flat <p> paragraphs — the
  extractor's block/comment/style rules are load-bearing for linking here;
- FILLER vocabulary and relation-usage distribution differ.

What this family proves (VERDICT r04 "What's missing" #3): the KG
pipeline's exact resolution (P/R = 1.0) is not an artifact of the first
generator's shape. Gold triples are recorded at PLANT time from the
sentence structure — independent of the engine; expected text is derived
with the scalar `extract_text` (the byte-identity invariant itself is
pinned by family 1's lockstep construction, not re-proven here — but a
text-extraction regression on these richer structures still breaks the
P/R gate, because mentions the linker cannot find lose gold triples).

Reference analog: the organic-corpus evaluation cgr runs on django/django
(`evals/README.md:61-141`) — a second, independently-shaped corpus with
known answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from code_graph_rag_ray.sources.pages import RELATIONS, _REL_SURFACES

_SYL_A = ("Zor", "Quan", "Vel", "Marn", "Tol", "Bren", "Casp", "Dorn",
          "Fenn", "Galt", "Hax", "Jov", "Kelb", "Lum", "Nir", "Oss",
          "Prav", "Rud", "Silq", "Tev", "Urm", "Vox", "Wynn", "Yalt")
_SYL_B = ("vex", "trel", "dane", "mir", "bek", "gorn", "lyth", "pex",
          "quill", "rosk", "thane", "wick")
_ORG = ("Holdings", "Collective", "Syndicate", "Consortium", "Ventures",
        "Foundry", "Cooperative", "Assembly")
# reserved first-token space for unknown (dictionary-absent) entities
_UNK_A = ("Xenq", "Yzor", "Qwil")

_HOSTS = tuple(f"{a.lower()}{b}.example.org"
               for a, b in zip(_SYL_A[:16], (_SYL_B * 2)[:16]))

_FILLER2 = ("commentators", "noted", "an", "unusual", "pattern", "in",
            "regional", "filings", "as", "volumes", "rose", "again",
            "despite", "ongoing", "uncertainty", "over", "policy")

_LANGS2 = ("en", "en", "en", "en", "en", "fr", "de", "pt", "it", "nl")


@dataclass
class OrganicFixture:
    pages: pa.Table
    expected_text: pa.Table
    expected_triples: pa.Table
    alias_dict: pa.Table
    #: per-entity planted mention counts (Zipf-skew audit surface)
    mention_counts: dict


def generate_organic_pages(n_pages: int = 300, seed: int = 7) -> OrganicFixture:
    """Seeded organic corpus over ``max(16, n_pages // 6)`` Zipf-popular
    entities, capped at the name pool (288 distinct names, reached at
    ``n_pages`` ≥ 1,734): larger corpora reuse the same entities."""
    from code_graph_rag_ray.functions.html import extract_text

    rng = np.random.default_rng(seed)
    n_entities = max(16, n_pages // 6)
    first = [a + b for a in _SYL_A for b in _SYL_B]
    order = rng.permutation(len(first))
    names, seen = [], set()
    for k in order:
        nm = f"{first[int(k)]} {_ORG[int(k) % len(_ORG)]}"
        if nm not in seen:
            seen.add(nm)
            names.append(nm)
        if len(names) == n_entities:
            break
    n_entities = len(names)  # the name pool caps the entity count
    entities = [{"entity_id": f"Z{i:05d}", "name": nm}
                for i, nm in enumerate(names)]
    alias_dict = pa.Table.from_pylist(
        [{"alias": e["name"], "entity_id": e["entity_id"], "prior": 1.0}
         for e in entities],
        schema=pa.schema([("alias", pa.string()), ("entity_id", pa.string()),
                          ("prior", pa.float64())]),
    )
    unknowns = [f"{a} Trust" for a in _UNK_A]

    # Zipf popularity over entity rank; power-law host weights
    zw = 1.0 / np.arange(1, n_entities + 1) ** 1.2
    zp = zw / zw.sum()
    hw = 1.0 / np.arange(1, len(_HOSTS) + 1)
    hp = hw / hw.sum()
    rw = 1.0 / np.arange(1, len(_REL_SURFACES) + 1) ** 0.8
    rp = rw / rw.sum()

    def zipf_entity() -> dict:
        return entities[int(rng.choice(n_entities, p=zp))]

    urls: list[str] = []
    warc_ts: list[int] = []
    htmls: list[bytes] = []
    langs: list[str] = []
    texts: list[str] = []
    exp_text_rows: list[dict] = []
    triple_rows: list[dict] = []
    mention_counts: dict[str, int] = {}
    base_ts = 1_720_000_000_000_000  # fixed epoch micros (2024-07-03)

    for i in range(n_pages):
        host = _HOSTS[int(rng.choice(len(_HOSTS), p=hp))]
        url = f"https://{host}/article/{i:06d}"
        urls.append(url)
        warc_ts.append(base_ts + i * 1_000_000)
        langs.append(_LANGS2[int(rng.integers(len(_LANGS2)))])

        def filler_words(lo: int, hi: int) -> str:
            n_w = lo + int(rng.integers(hi - lo + 1))
            return " ".join(_FILLER2[int(rng.integers(len(_FILLER2)))]
                            for _ in range(n_w))

        def fact_sentence() -> str:
            subj = zipf_entity()
            rel = _REL_SURFACES[int(rng.choice(len(_REL_SURFACES), p=rp))]
            if rng.random() < 0.06:  # dictionary-absent object → ext:: mint
                obj_name, obj_id = unknowns[int(rng.integers(len(unknowns)))], None
            else:
                obj = zipf_entity()
                obj_name, obj_id = obj["name"], obj["entity_id"]
            mention_counts[subj["entity_id"]] = (
                mention_counts.get(subj["entity_id"], 0) + 1)
            if obj_id is not None:
                mention_counts[obj_id] = mention_counts.get(obj_id, 0) + 1
                triple_rows.append(
                    {"subj": subj["entity_id"], "pred": RELATIONS[rel],
                     "obj": obj_id, "url": url})
            return f"{subj['name']} {rel} {obj_name} ."

        def sentence() -> str:
            return (fact_sentence() if rng.random() < 0.7
                    else filler_words(4, 9) + " .")

        # article-shaped html: style + comments + headings + lists
        body: list[str] = [f"<!-- article {i:06d} generated -->"]
        n_sections = 1 + int(rng.integers(3))
        for _sec in range(n_sections):
            sec: list[str] = [f"<h2>{filler_words(2, 4)}</h2>"]
            sec.append("<p>" + " ".join(
                sentence() for _ in range(1 + int(rng.integers(3)))) + "</p>")
            if rng.random() < 0.5:
                items = "".join(f"<li>{sentence()}</li>"
                                for _ in range(1 + int(rng.integers(3))))
                sec.append(f"<ul>{items}</ul>")
            if rng.random() < 0.3:
                sec.append(f"<!-- {filler_words(2, 5)} -->")
            body.append("<section>" + "".join(sec) + "</section>")
        title = f"dispatch {i:06d}"
        html = (
            f"<html><head><title>{title}</title>"
            "<style>p { margin: 0 }</style></head>"
            "<body><article>" + "".join(body) + "</article></body></html>"
        )
        htmls.append(html.encode())
        txt = extract_text(html)
        texts.append(txt)
        exp_text_rows.append({"url": url, "text": txt})

    pages = pa.table(
        {"url": pa.array(urls, pa.string()),
         "warc_ts": pa.array(warc_ts, pa.timestamp("us")),
         "html": pa.array(htmls, pa.binary()),
         "text": pa.array(texts, pa.string()),
         "lang": pa.array(langs, pa.string())}
    )
    return OrganicFixture(
        pages=pages,
        expected_text=pa.Table.from_pylist(
            exp_text_rows,
            schema=pa.schema([("url", pa.string()), ("text", pa.string())])),
        expected_triples=pa.Table.from_pylist(
            triple_rows,
            schema=pa.schema([("subj", pa.string()), ("pred", pa.string()),
                              ("obj", pa.string()), ("url", pa.string())])),
        alias_dict=alias_dict,
        mention_counts=mention_counts,
    )
