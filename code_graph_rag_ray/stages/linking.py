"""Entity-mention detection + candidate-link scoring (Pass 3 analog).

The reference resolves each call-site/mention against a process-global
registry trie with a preference cascade (``parsers/call_resolver.py:297-318``
exact qn → receiver-type chain → suffix fallback; registry
``function_registry.py:18-283``). Here that becomes:

- the **alias dictionary** is broadcast ONCE via ``ray.put`` and each
  :class:`MentionLinker` actor rehydrates it in ``__init__`` — never
  re-shipped per batch (SURVEY.md §2.3 T1 mapping),
- mention **detection** is one batch-level **span finder**
  (:class:`_BatchLinker`), set up once per actor, the analog of cgr
  loading tree-sitter parsers once per process (``parser_loader.py:482``).
  For every page whose text is ASCII and free of the marker byte, two
  Arrow RE2 passes per batch find the spans: the longest-first,
  word-bounded alternation of every ASCII alias over all pages, and the
  cap-run detector over the pages holding an uppercase letter. Each pass
  wraps its matches in the marker byte and splits the text into
  alternating gap and match pieces. Cap runs that are builtin surfaces or
  overlap an alias span drop out, and the result is flat (page, start,
  end, alias id | unknown) arrays in (page, start) order. Pages whose
  spans are all single-candidate aliases resolve by one ``take``; the
  rest run the chained tiers below in one Python loop over those lists.
  Pairing (a per-lang ``index_in`` of the trimmed gaps), the external
  drop and row assembly are array operations for every page. The span
  finder is ASCII-only because RE2's ``\\b`` is ASCII while Python's str
  ``\\b`` is Unicode, and RE2 offsets are bytes (NOTES fact 38): every
  other page, and every page of the precise tier, takes the **per-page
  path** ``_link_page`` (one compiled alternation regex, the cap-run
  detector and the cascade). Both paths give the same rows, merged in
  (page, start) order,
- the **cascade** (the analog of the reference's six-step resolver,
  ``parsers/call_resolver.py:297-318``): for dictionary aliases —
  unique candidate (exact qn) → page-local *suffix* recency antecedent
  (the trie ``find_ending_with`` analog) → **unique-seen redirect**: an
  ambiguous alias whose candidate set contains exactly ONE entity already
  resolved on this page links to it (the interface→unique-concrete-
  implementer redirect, ``call_resolver.py:2596-2682``) → highest-prior
  candidate with deterministic entity-id tie-break; for unknown
  proper-noun runs —
  builtin-table gate (capitalized function words are never entities;
  the builtin-table tier + fallback gates, ``call_resolver.py:33-44``)
  → page-local *prefix* antecedent (single token matching the first
  token of an earlier full mention, the registry's prefix-query analog,
  ``function_registry.py:18-283``) → page-local *acronym* antecedent
  (all-caps token matching the initials of an earlier full mention —
  the J3 receiver-type-chain analog for web text,
  ``parsers/type_inference.py``; 'Acme Systems … AS sued X')
  → External minting,
- **unknown** proper-noun runs surviving both gates and participating in
  a relation pattern mint ``ext::<normalized>`` External entities (cgr's
  deferred-import rule: unknown target ⇒ ExternalModule node,
  ``import_processor.py:861-983``),
- the **host-prior tier** (cross-page J3 context — the web analog of the
  reference's cross-file receiver-type propagation,
  ``parsers/type_inference.py`` feeding ``call_resolver.py``): a first
  corpus pass mines host-scoped mention→entity frequencies from the
  CONFIDENT cascade tiers (:func:`mine_host_priors`), and a second pass
  consults that side table — after every page-local signal, before the
  global-prior fallback (known aliases) / External minting (unknown runs).
  Page-local evidence always outranks corpus evidence, mirroring the
  reference's local-scope-first resolution order,
- **triple pairing** happens in the same pass: consecutive mentions whose
  gap text strips to a known relation surface form a triple, attached to
  the subject mention row (``rel``/``obj_*`` columns) so downstream stages
  never need the page text again.

Output schema (one row per detected mention):
    url, start, end, surface, entity_id, method, rel, obj_entity_id, lang
``method`` ∈ {exact, recency, unique, context, acronym, host_prior, prior,
external}.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from code_graph_rag_ray.sources.pages import RELATIONS

_CAP_RUN = re.compile(r"\b[A-Z][a-zA-Z0-9]*(?: [A-Z][a-zA-Z0-9]*)*\b")

# Builtin surface table — the reference cascade's last tier is a builtin
# lookup table plus fallback gates that stop spurious linking
# (``call_resolver.py:33-44``, step 6 of ``:297-318``). Web-text analog:
# capitalized function words / temporal adverbs are never entity mentions;
# without this gate they mint spurious ``ext::`` externals and pair into
# false triples ("Today acquired X"). Applies only to UNKNOWN cap-runs —
# a user dictionary alias always wins over the gate.
BUILTIN_SURFACES = frozenset({
    "The", "A", "An", "It", "He", "She", "They", "We", "You", "I",
    "This", "That", "These", "Those", "There", "Here", "But", "And", "Or",
    "Today", "Yesterday", "Tomorrow", "Meanwhile", "However", "Moreover",
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday",
    "Sunday", "January", "February", "March", "April", "June", "July",
    "August", "September", "October", "November", "December",
})


@dataclass(frozen=True)
class ExtractorSpec:
    """Per-content-type extraction spec — the analog of cgr's pluggable
    ``LanguageSpec`` registry (``models.py:80-95``, ``language_spec.py``)
    and its YAML ast-grep tier dispatched per language
    (``ast_grep_tier.py:38-62``): drop a spec into the registry and pages
    carrying that ``lang`` get their own relation-surface table.

    ``relations`` maps in-text relation surfaces to predicate ids. At link
    time a page's effective table is ``default ∪ lang_spec`` (lang-specific
    surfaces EXTEND the default tier — unknown langs fall back to the
    default alone, mirroring cgr's fallback tier for spec-less languages).
    """

    relations: tuple[tuple[str, str], ...]


# Built-in registry: the default (en-shaped) tier plus two non-English
# specs proving the plug point.
DEFAULT_REGISTRY: dict[str, ExtractorSpec] = {
    "fr": ExtractorSpec(
        (("a acquis", "acquired"), ("a fondé", "founded"),
         ("s'est associé à", "partnered_with"),
         ("a investi dans", "invested_in"), ("a poursuivi", "sued"))
    ),
    "de": ExtractorSpec(
        (("übernahm", "acquired"), ("gründete", "founded"),
         ("kooperierte mit", "partnered_with"),
         ("investierte in", "invested_in"), ("verklagte", "sued"))
    ),
}


def _registry_key(registry: dict[str, ExtractorSpec] | None) -> tuple | None:
    if registry is None:
        return None
    return tuple(
        (lang, registry[lang].relations) for lang in sorted(registry)
    )

MENTION_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("surface", pa.string()),
        ("entity_id", pa.string()),
        ("method", pa.string()),
        ("rel", pa.string()),
        ("obj_entity_id", pa.string()),
        ("lang", pa.string()),
    ]
)


def normalize_surface(s: str) -> str:
    """Canonical surface form: casefold + whitespace collapse (A1 analog)."""
    return " ".join(s.casefold().split())


def url_host(url: str) -> str:
    """The host the host-prior tier keys a page by: the text after the
    first ``://`` (any scheme, any case) up to the next ``/``; a URL with
    no ``://`` keys by its text up to the first ``/``."""
    i = url.find("://")
    return (url[i + 3 :] if i >= 0 else url).split("/", 1)[0]


#: :func:`url_host` as one RE2 replace over a column (the miner's side);
#: ``(?s)`` because a URL may hold a newline, which RE2's ``.`` skips
_HOST_RE = r"(?s)^(?:.*?://)?([^/]*).*$"


def url_hosts(urls) -> pa.Array:
    """:func:`url_host` of every URL of a string column, vectorized."""
    return pc.replace_substring_regex(urls, pattern=_HOST_RE, replacement=r"\1")


def build_alias_index(alias_tbl: pa.Table) -> dict[str, list[tuple[str, float]]]:
    """alias_dict(alias, entity_id, prior) → alias → [(entity_id, prior)…]
    sorted by (-prior, entity_id) so index 0 is the deterministic argmax."""
    idx: dict[str, list[tuple[str, float]]] = {}
    for row in alias_tbl.to_pylist():
        idx.setdefault(row["alias"], []).append((row["entity_id"], row["prior"]))
    for alias, cands in idx.items():
        cands.sort(key=lambda c: (-c[1], c[0]))
    return idx


class MentionLinker:
    """Actor-pool stage: pages(text) batches → linked-mention rows.

    ``alias_ref`` is a ``ray.ObjectRef`` to the alias table (broadcast once)
    or a plain ``pa.Table`` (tests). All setup — dictionary rehydration and
    regex compilation — happens here in ``__init__``, once per actor.

    A batch takes two paths. Every page whose text is ASCII and holds no
    marker byte goes through the batch path (:class:`_BatchLinker`): one
    span finder over all of them, a ``take`` for the pages whose spans all
    have one candidate, one loop of the chained tiers over the flat span
    lists of the rest, and array pairing and assembly. Other pages go
    through ``_link_page`` one by one, unchanged. A linker whose
    ``_extra_spans`` adds spans (the precise tier), an empty alias, or a
    pattern RE2 rejects sends every page through ``_link_page``. No
    option switches the batch path: its rows equal the per-page path's.
    """

    def __init__(
        self,
        alias_ref,
        relations: dict[str, str] | None = None,
        registry: dict[str, ExtractorSpec] | None = None,
        host_prior_ref=None,
    ):
        import ray

        alias_tbl = ray.get(alias_ref) if isinstance(alias_ref, ray.ObjectRef) else alias_ref
        self.index = build_alias_index(alias_tbl)
        # host-prior side table (second broadcast, J3 cross-page context):
        # (host, surface) → entity_id. None/empty disables the tier.
        hp_tbl = (
            ray.get(host_prior_ref)
            if host_prior_ref is not None and isinstance(host_prior_ref, ray.ObjectRef)
            else host_prior_ref
        )
        self.host_prior: dict[tuple[str, str], str] = {}
        if hp_tbl is not None and hp_tbl.num_rows:
            for h, s, e in zip(
                hp_tbl["host"].to_pylist(),
                hp_tbl["surface"].to_pylist(),
                hp_tbl["entity_id"].to_pylist(),
            ):
                self.host_prior[(h, s)] = e
        # longest alias first → leftmost-longest match in Python's re
        alts = sorted(self.index, key=len, reverse=True)
        self.alias_re = (
            re.compile(r"\b(?:" + "|".join(re.escape(a) for a in alts) + r")\b")
            if alts
            else None
        )
        self.relations = dict(RELATIONS) if relations is None else dict(relations)
        # per-lang effective tables precomputed once per actor/worker
        # (default ∪ lang spec; unknown langs use the default alone)
        self.registry = DEFAULT_REGISTRY if registry is None else registry
        self._rel_by_lang = {
            lang: {**self.relations, **dict(spec.relations)}
            for lang, spec in self.registry.items()
        }
        # normalized relation tables are a precise-tier feature (see
        # PreciseLinker); the base tier keeps them empty so its pairing
        # semantics — and every oracle built on them — are unchanged
        self._rel_norm_by_lang: dict = {}
        self._rel_norm_default = None
        # the batch path links every ASCII, marker-free page; a linker
        # that adds spans of its own (the precise tier) sends every page
        # through ``_link_page``, and so does an empty alias (Python's
        # regex then matches the empty string at every word boundary)
        self._batch = None
        if type(self)._extra_spans is MentionLinker._extra_spans and "" not in self.index:
            try:
                self._batch = _BatchLinker(self.index, self.relations,
                                           self._rel_by_lang, self.host_prior)
            except pa.ArrowInvalid:  # RE2 rejects the pattern (e.g. too large)
                pass

    # -- detection hooks (overridden by the precise tier) -------------------
    def _extra_spans(
        self, text: str, spans: list[tuple[int, int, str, list | None]]
    ) -> None:
        """Append additional KNOWN spans (with their candidate lists) the
        base alternation regex cannot find. Base tier: none."""

    # -- per-page resolution ------------------------------------------------
    def _link_page(self, url: str, text: str, lang: str, out: "_Cols") -> None:
        if not text:
            return
        # span = (start, end, surface, candidates-or-None); None = unknown
        spans: list[tuple[int, int, str, list | None]] = []
        index = self.index
        if self.alias_re is not None:
            for m in self.alias_re.finditer(text):
                s = m.group()
                spans.append((m.start(), m.end(), s, index[s]))
        self._extra_spans(text, spans)
        spans.sort()
        # overlap check against the KNOWN spans: sorted and non-overlapping
        # by construction — the only candidate overlap for a cap-run match
        # is the last known span starting before its end (bisect, O(log n)
        # instead of the quadratic any() scan)
        known_starts = [s for s, _, _, _ in spans]
        known_ends = [e for _, e, _, _ in spans]
        builtins = BUILTIN_SURFACES
        for m in _CAP_RUN.finditer(text):
            if m.group() in builtins:
                continue
            i = bisect_left(known_starts, m.end())
            if i and known_ends[i - 1] > m.start():
                continue
            spans.append((m.start(), m.end(), m.group(), None))
        spans.sort()

        # cascade link for dictionary mentions — parallel local arrays (a
        # dict per mention dominated the profile)
        recent_full: dict[str, str] = {}    # suffix token -> entity_id
        recent_prefix: dict[str, str] = {}  # first token  -> entity_id
        recent_acr: dict[str, str] = {}     # initials     -> entity_id
        seen: set[str] = set()              # entity ids resolved on this page
        host_prior = self.host_prior
        host = url_host(url) if host_prior else ""
        n = len(spans)
        eids: list[str] = [""] * n
        methods: list[str] = [""] * n
        rels: list[str | None] = [None] * n
        objs: list[str | None] = [None] * n
        for i, (start, end, surface, cands) in enumerate(spans):
            if cands is None:
                # prefix-antecedent step: a bare capitalized token matching
                # the FIRST token of an earlier full mention on this page
                # resolves to that entity (registry prefix query analog);
                # then the acronym-antecedent step: an all-caps token
                # matching the INITIALS of an earlier full mention resolves
                # to it (the J3 context feature — the receiver-type-chain
                # analog for web text: 'Acme Systems … AS sued X'; the
                # most recent binding wins, like the other recency maps) —
                # only then does External minting apply
                eid = None
                if " " not in surface:
                    eid = recent_prefix.get(surface)
                    if eid is not None:
                        eids[i] = eid
                        methods[i] = "context"
                    elif len(surface) >= 2 and surface.isupper():
                        eid = recent_acr.get(surface)
                        if eid is not None:
                            eids[i] = eid
                            methods[i] = "acronym"
                if eid is None and host_prior:
                    # host-prior tier (J3 cross-page context): the corpus-
                    # mined host-scoped expansion of this surface — consulted
                    # only after every page-local antecedent missed, before
                    # External minting
                    eid = host_prior.get((host, surface))
                    if eid is not None:
                        eids[i] = eid
                        methods[i] = "host_prior"
                if eid is None:
                    eids[i] = "ext::" + normalize_surface(surface)
                    methods[i] = "external"
                continue
            if len(cands) == 1:
                eid, method = cands[0][0], "exact"
            elif " " not in surface and surface in recent_full:
                eid, method = recent_full[surface], "recency"
            else:
                # unique-seen redirect: exactly one candidate was already
                # resolved on this page → it wins over the global prior
                # (interface → unique concrete implementer,
                # call_resolver.py:2596-2682)
                hit: str | None = None
                for c, _p in cands:
                    if c in seen:
                        if hit is None:
                            hit = c
                        elif hit != c:
                            hit = None
                            break
                if hit is not None:
                    eid, method = hit, "unique"
                else:
                    # host-prior tier for KNOWN ambiguous aliases: the
                    # corpus-mined host-scoped winner outranks the global
                    # dictionary prior, but only if it is actually a
                    # candidate of this alias (the dictionary constrains)
                    hp = host_prior.get((host, surface)) if host_prior else None
                    if hp is not None and any(c == hp for c, _ in cands):
                        eid, method = hp, "host_prior"
                    else:
                        eid, method = cands[0][0], "prior"
            if " " in surface:
                recent_full[surface.rsplit(" ", 1)[1]] = eid
                recent_prefix[surface.split(" ", 1)[0]] = eid
                # acronym binding: initials of every known multi-word
                # mention (must stay bit-identical to sources/pages._acronym)
                recent_acr["".join(t[0] for t in surface.split())] = eid
            seen.add(eid)
            eids[i] = eid
            methods[i] = method

        # triple pairing: gap between consecutive mentions == relation
        # surface — dispatched per content type (lang) through the registry
        in_triple = bytearray(n)
        relations = self._rel_by_lang.get(lang, self.relations)
        # precise tier only: normalized relation-surface fallback (base
        # linkers carry no normalized tables, so this stays None for them
        # and the hot loop is unchanged)
        rel_norm = self._rel_norm_by_lang.get(lang, self._rel_norm_default)
        for i in range(n - 1):
            gap = text[spans[i][1] : spans[i + 1][0]].strip()
            pred = relations.get(gap)
            if pred is None and rel_norm is not None:
                pred = rel_norm.get(normalize_surface(gap))
            if pred is not None:
                rels[i] = pred
                objs[i] = eids[i + 1]
                in_triple[i] = 1
                in_triple[i + 1] = 1

        # keep external mentions only when they participate in a triple.
        # The column lists are bound to locals: 9 direct C-level appends
        # per mention, no per-mention method-call frame (the ``add()``
        # method was ~30% of the round-1 profile) and no end-of-batch
        # transpose (a zip(*rows) rebuild measured just as expensive).
        (c_url, c_start, c_end, c_surface, c_eid, c_method, c_rel, c_obj,
         c_lang) = out.cols
        for i in range(n):
            if methods[i] == "external" and not in_triple[i]:
                continue
            start, end, surface, _ = spans[i]
            c_url.append(url)
            c_start.append(start)
            c_end.append(end)
            c_surface.append(surface)
            c_eid.append(eids[i])
            c_method.append(methods[i])
            c_rel.append(rels[i])
            c_obj.append(objs[i])
            c_lang.append(lang)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._batch is None:
            return self._link_pages(batch)[0]
        fast, fast_pages, slow = self._batch(batch)
        if not len(slow):
            return fast
        rest, rows = self._link_pages(batch.take(slow))
        if not fast.num_rows:
            return rest
        # each page's rows come from one path, in start order: a stable
        # sort on the page index merges the two in (page, start) order
        order = np.argsort(np.r_[fast_pages, np.repeat(slow, rows)], kind="stable")
        return pa.concat_tables([fast, rest]).take(order)

    def _link_pages(self, batch: pa.Table) -> tuple[pa.Table, np.ndarray]:
        """The per-page path over every page of ``batch``: the mention
        table and the number of rows each page emitted."""
        out = _Cols()
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * len(urls)
        ends = []
        c_url = out.cols[0]
        for url, text, lang in zip(urls, texts, langs):
            self._link_page(url, text or "", lang, out)
            ends.append(len(c_url))
        return out.to_table(), np.diff(np.array(ends, np.int64), prepend=0)


class _Cols:
    """Columnar mention accumulator: one Python list per output column,
    appended via locally-bound references in the hot loop (see
    ``_link_page``), one ``pa.array`` per column at batch end."""

    __slots__ = ("cols",)

    def __init__(self):
        self.cols: tuple[list, ...] = tuple([] for _ in MENTION_SCHEMA)

    def to_table(self) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array(col, f.type) for col, f in zip(self.cols, MENTION_SCHEMA)],
            schema=MENTION_SCHEMA,
        )


#: the byte the span finder wraps around every match
_MARK = "\x01"
#: the ASCII characters ``str.strip()`` removes (``str.isspace()``);
#: Arrow's ``ascii_trim_whitespace`` keeps ``\x1c``–``\x1f``
_ASCII_SPACE = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
#: a page holding one of these takes the per-page path: the marker byte,
#: or any character that is not ASCII
_GATED = r"[^\x00\x02-\x7f]"
_GATED_OR_UPPER = r"[^\x00\x02-\x40\x5b-\x7f]"
_BUILTINS = pa.array(sorted(BUILTIN_SURFACES), pa.string())
_EXACT = pa.array(["exact"], pa.string())


def _re2_escape(alias: str) -> str:
    """An ASCII alias as an RE2 literal: letters and digits as they are,
    every other character as a ``\\xHH`` escape."""
    return "".join(c if c.isalnum() else f"\\x{ord(c):02x}" for c in alias)


def _utf8(col) -> pa.Array:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return col if col.type == pa.string() else pc.cast(col, pa.string())


def _has(text: pa.Array, pattern: str) -> np.ndarray:
    return pc.match_substring_regex(text, pattern).to_numpy(zero_copy_only=False)


def _offsets(text: pa.Array) -> np.ndarray:
    """Where each string of ``text`` starts in its data buffer, and where
    the last one ends."""
    return np.frombuffer(text.buffers()[1], np.int32)[
        text.offset : text.offset + len(text) + 1].astype(np.int64)


def _matches(text: pa.Array, pattern: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, pa.Array]:
    """Every match of ``pattern`` in an ASCII, marker-free string array,
    as (page, start, length, surface) with ``start`` an offset into the
    page: one RE2 pass wraps each match in the marker byte, and the split
    gives alternating gap and match pieces, 2c + 1 for a page with c
    matches. So match q of the array, on page p, is piece 2q + p + 1, and
    the pieces' own offsets are text positions (ASCII: bytes are
    characters)."""
    pieces = pc.split_pattern(
        pc.replace_substring_regex(text, pattern, _MARK + r"\0" + _MARK), _MARK)
    page = np.repeat(np.arange(len(text)),
                     pc.list_value_length(pieces).to_numpy() // 2)
    m = 2 * np.arange(len(page)) + page + 1
    flat = pieces.flatten()
    pos = _offsets(flat)
    off = _offsets(text)
    return (page, pos[m] - pos[0] - (off[page] - off[0]), pos[m + 1] - pos[m],
            flat.take(pa.array(m)))


class _BatchLinker:
    """The batch path of :class:`MentionLinker`: links and pairs every
    ASCII, marker-free page of a batch over flat span arrays, and hands
    back the rest.

    Built once per linker: the RE2 alternation of every ASCII alias
    (longest first, as ``alias_re``), the alias → candidates arrays, and
    each relation table as a surface array plus one predicate array for
    all tables. A pattern RE2 rejects raises ``pa.ArrowInvalid`` here,
    once.
    """

    def __init__(self, index: dict, relations: dict[str, str],
                 rel_by_lang: dict[str, dict[str, str]],
                 host_prior: dict[tuple[str, str], str]):
        live = sorted((a for a in index if a.isascii() and _MARK not in a),
                      key=len, reverse=True)
        self.pattern = None
        if live:
            self.pattern = r"\b(?:" + "|".join(map(_re2_escape, live)) + r")\b"
            pc.replace_substring_regex(pa.array([""]), self.pattern, "")
        self.aliases = pa.array(live, pa.string())
        self.cands = [index[a] for a in live]
        self.ambiguous = np.array([len(c) > 1 for c in self.cands], bool)
        self.eids = pa.array([c[0][0] for c in self.cands], pa.string())
        # what a multi-word alias binds on its page: its last token (for
        # recency), its first token (context) and its initials (acronym)
        self.binds = [(a.rsplit(" ", 1)[1], a.split(" ", 1)[0],
                       "".join(t[0] for t in a.split())) if " " in a else None
                      for a in live]
        self.host_prior = host_prior
        self.langs = pa.array(list(rel_by_lang), pa.string())
        # per-lang tables first, the default table last; a None predicate
        # pairs nothing, exactly like a missing surface
        tables = [{s: p for s, p in t.items() if p is not None}
                  for t in (*rel_by_lang.values(), relations)]
        self.rel_keys = [pa.array(list(t), pa.string()) for t in tables]
        self.preds = pa.array([p for t in tables for p in t.values()], pa.string())
        self.pred_base = np.cumsum([0] + [len(t) for t in tables])[:-1]

    def spans(self, text: pa.Array, caps: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, pa.Array]:
        """The span finder: (page, start, end, alias id, surface) of every
        span of an ASCII, marker-free string array, in (page, start)
        order, with ``start``/``end`` offsets into the array's data buffer
        and alias id -1 for an unknown cap run.

        The alias alternation runs over every page, ``_CAP_RUN`` only over
        the pages ``caps``, the ones holding an uppercase letter. A cap run
        that is a builtin surface or overlaps an alias span is dropped; the
        overlap test is one ``searchsorted`` of the sorted, disjoint alias
        spans."""
        off = _offsets(text)
        page = start = length = aid = np.zeros(0, np.int64)
        surface = pa.array([], pa.string())
        if self.pattern is not None:
            page, start, length, surface = _matches(text, self.pattern)
            aid = pc.index_in(surface, self.aliases).to_numpy()
        start = off[page] + start
        end = start + length
        if not len(caps):
            return page, start, end, aid, surface
        cpage, cstart, clen, csurface = _matches(text.take(caps), _CAP_RUN.pattern)
        cpage = caps[cpage]
        cstart = off[cpage] + cstart
        cend = cstart + clen
        # the last alias span starting before the run's end is the only
        # one that can overlap it
        prev_end = np.r_[-1, end][np.searchsorted(start, cend)]
        keep = np.flatnonzero((prev_end <= cstart) & ~pc.is_in(
            csurface, _BUILTINS).to_numpy(zero_copy_only=False))
        page = np.r_[page, cpage[keep]]
        start = np.r_[start, cstart[keep]]
        order = np.argsort(start, kind="stable")
        return (page[order], start[order], np.r_[end, cend[keep]][order],
                np.r_[aid, np.full(len(keep), -1)][order],
                pa.concat_arrays([surface, csurface.take(keep)]).take(order))

    def chain(self, surfaces: list[str], aids: list[int], pages: list[int],
              urls: list[str] | None) -> tuple[list[str], list[str]]:
        """The chained tiers: the entity id and method of every span of
        the pages that hold an unknown cap run or an ambiguous alias, in
        (page, start) order. ``recency``, ``unique``, ``context``,
        ``acronym`` and ``host_prior`` read earlier resolutions on the
        same page, so this is one sequential loop: ``_link_page``'s
        cascade over the finder's lists, with each alias's bindings
        looked up instead of split per mention."""
        cands_of, binds = self.cands, self.binds
        host_prior = self.host_prior
        n = len(surfaces)
        eids: list[str] = [""] * n
        methods: list[str] = [""] * n
        cur = -1
        for i, (surface, a, p) in enumerate(zip(surfaces, aids, pages)):
            if p != cur:
                cur = p
                recent_full: dict[str, str] = {}
                recent_prefix: dict[str, str] = {}
                recent_acr: dict[str, str] = {}
                seen: set[str] = set()
                host = url_host(urls[p]) if host_prior else ""
            if a < 0:
                eid = None
                if " " not in surface:
                    eid = recent_prefix.get(surface)
                    if eid is not None:
                        method = "context"
                    elif len(surface) >= 2 and surface.isupper():
                        eid = recent_acr.get(surface)
                        method = "acronym"
                if eid is None and host_prior:
                    eid = host_prior.get((host, surface))
                    method = "host_prior"
                if eid is None:
                    eid, method = "ext::" + normalize_surface(surface), "external"
                eids[i] = eid
                methods[i] = method
                continue
            cands = cands_of[a]
            bind = binds[a]
            if len(cands) == 1:
                eid, method = cands[0][0], "exact"
            elif bind is None and surface in recent_full:
                eid, method = recent_full[surface], "recency"
            else:
                hit: str | None = None
                for c, _p in cands:
                    if c in seen:
                        if hit is None:
                            hit = c
                        elif hit != c:
                            hit = None
                            break
                if hit is not None:
                    eid, method = hit, "unique"
                else:
                    hp = host_prior.get((host, surface)) if host_prior else None
                    if hp is not None and any(c == hp for c, _ in cands):
                        eid, method = hp, "host_prior"
                    else:
                        eid, method = cands[0][0], "prior"
            if bind is not None:
                recent_full[bind[0]] = eid
                recent_prefix[bind[1]] = eid
                recent_acr[bind[2]] = eid
            seen.add(eid)
            eids[i] = eid
            methods[i] = method
        return eids, methods

    def __call__(self, batch: pa.Table) -> tuple[pa.Table, np.ndarray, np.ndarray]:
        """→ (the mention rows of the ASCII, marker-free pages, in (page,
        start) order; the page of each row; the pages left over)."""
        text = pc.fill_null(_utf8(batch["text"]), "")
        # one scan finds the pages that may be gated or hold a capital;
        # only those are scanned again, for each of the two
        odd = np.flatnonzero(_has(text, _GATED_OR_UPPER))
        sub = text.take(odd)
        slow = odd[_has(sub, _GATED)]
        upper = odd[_has(sub, "[A-Z]")]
        pages = np.setdiff1d(np.arange(len(text)), slow)
        text = text.take(pages)
        urls = _utf8(batch["url"]).take(pages)
        lang = (_utf8(batch["lang"]).take(pages) if "lang" in batch.column_names
                else pa.nulls(len(pages), pa.string()))
        page, start, end, aid, surface = self.spans(
            text, np.searchsorted(pages, np.setdiff1d(upper, slow)))
        n = len(page)
        if not n:
            return MENTION_SCHEMA.empty_table(), page, slow

        # entity and method, as indices into an entity pool and a method
        # pool: the alias's first candidate on the pages whose spans are
        # all single-candidate aliases, the chained tiers on the rest
        unknown = aid < 0
        known = np.flatnonzero(~unknown)
        chained = np.zeros(len(pages), bool)
        chained[page[unknown]] = True
        chained[page[known[self.ambiguous[aid[known]]]]] = True
        k = np.flatnonzero(chained[page])
        eidx = aid.astype(np.int64)
        midx = np.zeros(n, np.int64)
        eid_pool, method_pool = self.eids, _EXACT
        is_ext = np.zeros(n, bool)
        if len(k):
            # ``to_numpy().tolist()``: Arrow's ``to_pylist`` builds a
            # scalar per string and costs about 15x more
            eids, methods = self.chain(
                surface.take(pa.array(k)).to_numpy(zero_copy_only=False).tolist(),
                aid[k].tolist(), page[k].tolist(),
                urls.to_numpy(zero_copy_only=False).tolist() if self.host_prior else None)
            eid_pool = pa.concat_arrays([self.eids, pa.array(eids, pa.string())])
            methods = pa.array(methods, pa.string())
            method_pool = pa.concat_arrays([_EXACT, methods])
            eidx[k] = len(self.eids) + np.arange(len(k))
            midx[k] = 1 + np.arange(len(k))
            is_ext[k] = pc.equal(methods, "external").to_numpy(zero_copy_only=False)

        # pairing: the trimmed gap before the next span of the same page,
        # looked up in the page's relation table. Every span and the gap
        # after it is one zero-copy string array over the text buffer:
        # element 2j is span j, element 2j + 1 the text up to span j + 1
        bounds = np.empty(2 * n, np.int32)
        bounds[0::2], bounds[1::2] = start, end
        pieces = pa.Array.from_buffers(
            pa.string(), 2 * n - 1, [None, pa.py_buffer(bounds), text.buffers()[2]])
        i = np.flatnonzero(page[:-1] == page[1:])
        gaps = pc.ascii_trim(pieces.take(pa.array(2 * i + 1)), _ASCII_SPACE)
        tid = pc.fill_null(pc.index_in(lang, self.langs), len(self.langs)).to_numpy()[page[i]]
        pred = np.full(n, -1, np.int64)
        for t in np.unique(tid):
            sel = np.flatnonzero(tid == t)
            hit = pc.fill_null(pc.index_in(gaps.take(sel), self.rel_keys[t]), -1).to_numpy()
            pred[i[sel]] = np.where(hit >= 0, hit + self.pred_base[t], -1)
        paired = pred >= 0
        in_triple = paired | np.r_[False, paired[:-1]]

        # an external mention stays only inside a triple
        rows = np.flatnonzero(~is_ext | in_triple)
        obj = eidx[np.minimum(rows + 1, n - 1)]
        if len(rows) < n:
            page, start, end, eidx, midx, pred = (
                a[rows] for a in (page, start, end, eidx, midx, pred))
            surface = surface.take(pa.array(rows))
        paired = pred >= 0
        local = start - _offsets(text)[page]
        return pa.Table.from_arrays([
            urls.take(pa.array(page)),
            pa.array(local), pa.array(local + end - start),
            surface,
            eid_pool.take(pa.array(eidx)),
            method_pool.take(pa.array(midx)),
            self.preds.take(pa.array(pred, mask=~paired)),
            eid_pool.take(pa.array(obj, mask=~paired)),
            lang.take(pa.array(page)),
        ], schema=MENTION_SCHEMA), pages[page], slow


_TOKEN = re.compile(r"[A-Za-z0-9]+")


class PreciseLinker(MentionLinker):
    """The genuinely heavy precise tier (M13/M14 analog — the place the
    reference pays for a libclang/Roslyn subprocess frontend,
    ``graph_updater.py:320-497``): a case- and punctuation-insensitive
    token-trie matcher layered over the base detection.

    Heavy per-actor state, built once in ``__init__`` (the actor-pool
    justification): a trie over the NORMALIZED token sequences of every
    dictionary alias, plus normalized relation-surface tables per lang.
    Per page it tokenizes the text and greedily longest-matches the trie
    over token runs the base regex left uncovered — catching mentions the
    cheap tier structurally cannot see (ALL-CAPS headline text, case- or
    hyphen-mangled surfaces: ``ACME SYSTEMS``, ``acme-systems``), at
    roughly 2× the per-page cost. Precedence: base exact spans win over
    trie spans; trie spans win over unknown cap-runs (on a shouty page
    the whole sentence is one capitalized run — without the trie tier it
    would mint one garbage External and lose every triple).

    The cascade is shared with the base class (spans carry their candidate
    lists), so resolution semantics — including the host-prior tier — are
    identical; only DETECTION is stronger.
    """

    def __init__(
        self,
        alias_ref,
        relations: dict[str, str] | None = None,
        registry: dict[str, ExtractorSpec] | None = None,
        host_prior_ref=None,
    ):
        super().__init__(alias_ref, relations, registry, host_prior_ref)
        # trie over normalized alias token tuples: node = {token: node},
        # terminal candidates under the None key
        root: dict = {}
        for alias, cands in self.index.items():
            node = root
            for tok in _TOKEN.findall(alias.lower()):
                node = node.setdefault(tok, {})
            node[None] = cands
        self._trie = root
        self._rel_norm_by_lang = {
            lang: {normalize_surface(s): p for s, p in tbl.items()}
            for lang, tbl in self._rel_by_lang.items()
        }
        self._rel_norm_default = {
            normalize_surface(s): p for s, p in self.relations.items()
        }

    def _extra_spans(
        self, text: str, spans: list[tuple[int, int, str, list | None]]
    ) -> None:
        # base spans come sorted & non-overlapping (finditer); bisect for
        # the overlap test like the cap-run scan does
        known_starts = [s for s, _, _, _ in spans]
        known_ends = [e for _, e, _, _ in spans]
        toks = [(m.start(), m.end(), m.group().lower())
                for m in _TOKEN.finditer(text)]
        trie = self._trie
        extra: list[tuple[int, int, str, list]] = []
        i, n = 0, len(toks)
        while i < n:
            node = trie.get(toks[i][2])
            j = i
            best = None  # (end_token_idx, cands) of the LONGEST terminal
            while node is not None:
                if None in node:
                    best = (j, node[None])
                j += 1
                node = node.get(toks[j][2]) if j < n else None
            if best is None:
                i += 1
                continue
            jend, cands = best
            start, end = toks[i][0], toks[jend][1]
            k = bisect_left(known_starts, end)
            if k and known_ends[k - 1] > start:
                i += 1  # base detection already covers this region
                continue
            extra.append((start, end, text[start:end], cands))
            i = jend + 1
        spans.extend(extra)


# per-worker-process linker cache: state (dictionary index + compiled
# alternation regex) is built once per worker per alias table, exactly like
# an actor's __init__ — but task pools reuse warm worker processes, so no
# per-execution actor startup cost (measured: actor ramp was a fixed ~2-4s
# per pipeline run). Keyed by table CONTENT, not by ObjectRef: every build
# ``ray.put``s its tables afresh, and a ref key would build new linkers per
# build. A small LRU, like ``functions/broadcast.py``'s: long-lived workers
# serve many builds.
_LINKER_CACHE: OrderedDict[tuple, MentionLinker] = OrderedDict()
_MAX_LINKERS = 8


def _table_content_key(tbl: pa.Table) -> tuple:
    """Content digest of a (dictionary-scale) table — plain tables must NOT
    be keyed by ``id()``: CPython reuses ids after GC, so a different alias
    table could silently hit a stale cached linker. Slices share their
    parent's buffers, so each column's offset and length count too."""
    import hashlib

    h = hashlib.md5(str(tbl.schema).encode())
    for batch in tbl.to_batches():
        for col in batch.columns:
            h.update(b"%d:%d" % (col.offset, len(col)))
            for buf in col.buffers():
                if buf is not None:
                    h.update(buf)
    return (tbl.num_rows, h.hexdigest())


def _linker_key(alias_ref, relations, registry, host_prior_ref, linker_cls) -> tuple:
    """The cache key of a linker: the content of its tables (fetched once,
    on the driver) and its configuration."""
    import ray

    def content(ref):
        if ref is None:
            return None
        return _table_content_key(ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref)

    return (
        content(alias_ref),
        None if relations is None else tuple(sorted(relations.items())),
        _registry_key(registry),
        content(host_prior_ref),
        f"{linker_cls.__module__}.{linker_cls.__qualname__}",
    )


def _cached_linker(
    key: tuple,
    alias_ref,
    relations: dict[str, str] | None,
    registry: dict[str, ExtractorSpec] | None = None,
    host_prior_ref=None,
    linker_cls: type = MentionLinker,
) -> MentionLinker:
    linker = _LINKER_CACHE.get(key)
    if linker is not None:
        _LINKER_CACHE.move_to_end(key)
        return linker
    linker = _LINKER_CACHE[key] = linker_cls(alias_ref, relations, registry, host_prior_ref)
    while len(_LINKER_CACHE) > _MAX_LINKERS:
        _LINKER_CACHE.popitem(last=False)
    return linker


def link_mentions(
    pages_text_ds,
    alias_ref,
    *,
    relations: dict[str, str] | None = None,
    registry: dict[str, ExtractorSpec] | None = None,
    concurrency: int | None = None,
    batch_size: int | None = None,
    host_prior_ref=None,
    linker_cls: type = MentionLinker,
):
    """Wire the linking stage: pages-with-text Dataset → mentions Dataset.

    Default = stateless tasks with a per-worker cached ``MentionLinker``
    (broadcast dictionary fetched once per worker; regex compiled once per
    worker). Pass ``concurrency`` to switch to a bounded actor pool — right
    when the per-actor state is heavy (a model, a large index) and you must
    cap how many copies exist.

    ``batch_size=None`` (default) batches per upstream block: when this
    stage fuses with upstream maps, Ray bundles *input* rows to reach a
    numeric batch_size — with row-expanding upstream stages that coalesces
    many blocks into one task and serializes the pool (observed: a 200-block
    input collapsed to 1 task). Per-block batching keeps task granularity =
    input block granularity.
    """
    if concurrency is not None:
        return pages_text_ds.map_batches(
            linker_cls,
            fn_constructor_args=(alias_ref, relations, registry, host_prior_ref),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
            num_cpus=1,
        )

    key = _linker_key(alias_ref, relations, registry, host_prior_ref, linker_cls)

    def link(batch: pa.Table) -> pa.Table:
        return _cached_linker(
            key, alias_ref, relations, registry, host_prior_ref, linker_cls
        )(batch)

    return pages_text_ds.map_batches(link, batch_format="pyarrow", batch_size=batch_size)


def link_mentions_two_tier(
    pages_text_ds,
    alias_ref,
    *,
    precise_langs: set[str] = frozenset(),
    registry: dict[str, ExtractorSpec] | None = None,
    relations: dict[str, str] | None = None,
    precise_concurrency: int = 2,
    shouty_to_precise: bool = False,
    host_prior_ref=None,
):
    """Two-tier extraction routing (M13/M14 analog).

    cgr layers optional heavyweight frontends (libclang C++,
    ``graph_updater.py:320-383``; Roslyn C#, ``:384-497``) over the cheap
    tree-sitter default, routing inputs by predicate and merging results.
    Here two content predicates route to a bounded ACTOR-POOL
    :class:`PreciseLinker` (normalized token-trie detection — the
    genuinely heavier frontend):

    - ``lang ∈ precise_langs`` — per-language registry dispatch, and
    - ``shouty_to_precise`` — pages whose text equals its own uppercase
      image (ALL-CAPS headline/teletype content): the cheap tier's
      case-sensitive alternation structurally cannot match a dictionary
      surface there, and its cap-run fallback sees the whole sentence as
      one run — so these pages are exactly the ones worth the heavy tier.

    Everything else takes the cheap stateless-task tier. The union feeds
    the same downstream derivation. Both tiers filter the same upstream;
    materialize the input first if the scan is expensive enough that two
    passes matter.
    """
    langs_arr = pa.array(sorted(precise_langs), pa.string())

    def precise_mask(b: pa.Table):
        m = pc.is_in(b["lang"], value_set=langs_arr)
        if shouty_to_precise:
            t = b["text"]
            shouty = pc.and_(
                pc.equal(t, pc.utf8_upper(t)),      # no lowercase letters
                pc.not_equal(t, pc.utf8_lower(t)),  # …but has letters
            )
            m = pc.or_kleene(m, shouty)
        return pc.fill_null(m, False)

    def precise_rows(b: pa.Table) -> pa.Table:
        return b.filter(precise_mask(b))

    def cheap_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.invert(precise_mask(b)))

    # when routing is purely lang-based, the cheap tier never sees a
    # spec-lang page, so it can skip the registry entirely (original
    # behavior); shouty routing sends pages of ANY lang to the precise
    # tier, so the cheap tier keeps the registry for the rest
    cheap_registry = registry if shouty_to_precise else {}
    cheap = link_mentions(
        pages_text_ds.map_batches(cheap_rows, batch_format="pyarrow"),
        alias_ref, relations=relations, registry=cheap_registry,
        host_prior_ref=host_prior_ref,
    )
    precise = link_mentions(
        pages_text_ds.map_batches(precise_rows, batch_format="pyarrow"),
        alias_ref, relations=relations, registry=registry,
        concurrency=precise_concurrency, host_prior_ref=host_prior_ref,
        linker_cls=PreciseLinker,
    )
    return cheap.union(precise)


# ---------------------------------------------------------------------------
# host-prior mining (J3 cross-page context, pass 1 → side table)
# ---------------------------------------------------------------------------

#: cascade methods whose resolutions count as corpus evidence. ``prior`` is
#: deliberately excluded (it is the fallback the mined table improves on —
#: counting it would launder the global prior into the host prior), and so
#: are ``external``/``host_prior`` (no entity grounding / pass-2-only).
CONFIDENT_METHODS = ("exact", "recency", "unique", "context", "acronym")

HOST_PRIOR_SCHEMA = pa.schema(
    [("host", pa.string()), ("surface", pa.string()),
     ("entity_id", pa.string()), ("n", pa.int64())]
)


def _sum_counts(t: pa.Table) -> pa.Table:
    """``t`` with ``n`` summed per (host, surface, entity_id)."""
    g = t.group_by(["host", "surface", "entity_id"], use_threads=False).aggregate(
        [("n", "sum")])
    return pa.table([g["host"], g["surface"], g["entity_id"], g["n_sum"]],
                    schema=HOST_PRIOR_SCHEMA)


def mine_host_priors(
    mentions,
    *,
    min_count: int = 2,
):
    """Mine host-scoped alias priors from a pass-1 mentions Dataset.

    The J3 cross-page context feature (receiver-type-propagation analog,
    ``parsers/type_inference.py``): for every (host, surface) pair, count
    how CONFIDENT cascade tiers resolved that surface across the host's
    pages, and keep the winner iff it has ``min_count`` sightings AND a
    strict margin over the runner-up (no-margin pairs stay unmined — an
    ambiguous host signal must not override the global prior). The host
    is :func:`url_host`, the rule the linker looks priors up by.

    Scale shape: a block-local Arrow combiner (one row per (host, surface,
    entity) per block) feeds ONE ``relational.bucketed_groups`` shuffle
    keyed by (host, surface). A (host, surface) group is whole inside its
    bucket, so the bucket finish sums the partial counts per (host,
    surface, entity) and scans for winners in one vectorized pass; no
    separate grouped-sum exchange is needed. Output is bounded by hosts ×
    confidently-seen surfaces — dictionary-scale per host; delivery caps
    it with the broadcast budget (see :func:`link_mentions_two_pass`).

    Returns a Dataset with schema ``HOST_PRIOR_SCHEMA``.
    """
    from code_graph_rag_ray.stages.relational import bucketed_groups

    return bucketed_groups(mentions.map_batches(_partial_counts, batch_format="pyarrow"),
                           ["host", "surface"], lambda g: _winners(g, min_count))


def _partial_counts(b: pa.Table) -> pa.Table:
    """One block's (host, surface, entity_id, n) counts of its confident
    resolutions."""
    f = b.filter(pc.is_in(b["method"], value_set=pa.array(CONFIDENT_METHODS, pa.string())))
    return _sum_counts(pa.table(
        [url_hosts(f["url"]), f["surface"], f["entity_id"],
         pa.array(np.ones(f.num_rows, np.int64))],
        schema=HOST_PRIOR_SCHEMA))


def _winners(g: pa.Table, min_count: int) -> pa.Table:
    """The mined priors of partial counts that hold every (host, surface)
    group whole: per group the most-counted entity, if it has
    ``min_count`` sightings and a strict margin over the runner-up."""
    from code_graph_rag_ray.stages.relational import run_starts

    g = _sum_counts(g)
    t = g.take(pc.sort_indices(
        g, sort_keys=[("host", "ascending"), ("surface", "ascending"),
                      ("n", "descending"), ("entity_id", "ascending")]
    ))
    n = t["n"].to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(run_starts(t, ["host", "surface"]))
    # strict margin: winner count > runner-up count (single-candidate
    # groups have no runner-up → margin holds by definition)
    nxt = np.r_[idx[1:], len(n)]
    has_runner = (nxt - idx) > 1
    runner_n = np.where(has_runner, n[np.minimum(idx + 1, len(n) - 1)], -1)
    keep = (n[idx] >= min_count) & (n[idx] > runner_n)
    return t.take(pa.array(idx[keep], pa.int64()))


#: the delivery order of the side table, most-evidenced first; (host,
#: surface) is unique in it, so the order is total
_PRIOR_ORDER = [("n", "descending"), ("host", "ascending"), ("surface", "ascending")]


def _top_priors(t: pa.Table, k: int) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=_PRIOR_ORDER)[:k])


def _deliver_host_priors(priors, max_prior_rows: int) -> pa.Table:
    """The mined side table on the driver: its ``max_prior_rows``
    most-evidenced rows in ``_PRIOR_ORDER``, typed ``HOST_PRIOR_SCHEMA``
    (also when nothing was mined).

    Each bucket is capped right after its finish, so at most
    ``max_prior_rows`` rows per bucket leave the cluster; a bucket that
    drops rows appends one tally row (``entity_id`` null, ``n`` = rows
    dropped; a mined row always has an entity) so the driver can say how
    many priors the cap cost. The blocks are pulled as Arrow with
    ``iter_batches``, which runs the plan once (``to_arrow_refs`` would
    first probe the schema with a ``limit=1`` run of the whole mining
    plan, NOTES fact 22); schema-less empty blocks are skipped.
    """
    k = max_prior_rows

    def cap(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        tally = pa.table([[None], [None], [None], [b.num_rows - k]], schema=HOST_PRIOR_SCHEMA)
        return pa.concat_tables([_top_priors(b, k), tally])

    blocks = [
        b.cast(HOST_PRIOR_SCHEMA)
        for b in priors.map_batches(cap, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    tbl = pa.concat_tables(blocks) if blocks else HOST_PRIOR_SCHEMA.empty_table()
    tally = pc.is_null(tbl["entity_id"])
    dropped = pc.sum(tbl["n"].filter(tally)).as_py() or 0
    tbl = tbl.filter(pc.invert(tally))
    out = _top_priors(tbl, k)
    dropped += tbl.num_rows - out.num_rows
    if dropped:
        import logging

        logging.getLogger(__name__).warning(
            "host-prior table over max_prior_rows=%d: dropped the %d "
            "least-attested priors (raise the cap or min_count)", k, dropped,
        )
    return out


def link_mentions_two_pass(
    pages_text_ds,
    alias_ref,
    *,
    relations: dict[str, str] | None = None,
    registry: dict[str, ExtractorSpec] | None = None,
    max_prior_rows: int = 1_000_000,
    shouty_two_tier: bool = False,
    precise_concurrency: int = 2,
):
    """Two-pass linking with corpus-mined host priors (J3 cross-page
    context). Pass 1 links with page-local context only; the confident
    resolutions are mined into a (host, surface) → entity side table; pass
    2 re-links with that table as a SECOND broadcast consulted after every
    page-local signal.

    Delivery: the mined table's buckets are capped in the cluster and
    pulled to the driver as Arrow blocks, concatenated, capped again and
    ``ray.put`` as the broadcast — the mining plan runs once and pays one
    exchange. Its size must stay within the broadcast budget: the table is
    bounded by hosts × confidently-evidenced surfaces, and
    ``max_prior_rows`` enforces a hard cap by keeping the most-evidenced
    rows (deterministic order: n desc, host, surface) and logging how many
    were dropped — the degrade mode loses the least-attested priors first,
    never correctness (an unmined pair simply falls back to pass-1
    behavior).

    Cost model: the corpus is scanned twice (the reference pays the same
    shape — its pass 2 re-walks every AST with the registry built by pass
    1, ``graph_updater.py`` two-phase ingest). Materialize the text
    upstream if extraction dominates and memory allows; by default both
    passes stream.
    """
    import ray

    def _link(host_prior_ref=None):
        if shouty_two_tier:
            return link_mentions_two_tier(
                pages_text_ds, alias_ref, relations=relations,
                registry=registry, precise_concurrency=precise_concurrency,
                shouty_to_precise=True, host_prior_ref=host_prior_ref,
            )
        return link_mentions(
            pages_text_ds, alias_ref, relations=relations, registry=registry,
            host_prior_ref=host_prior_ref,
        )

    tbl = _deliver_host_priors(mine_host_priors(_link()), max_prior_rows)
    return _link(host_prior_ref=ray.put(tbl))
