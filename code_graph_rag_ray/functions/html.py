"""Deterministic HTML→text extraction.

Analog of the reference's deterministic per-file tree-sitter parse
(``graph_updater.py:1831``, ``parsers/cpp/preproc_recovery.py``): the one
per-row invariant the whole pipeline rests on is that ``extract_text(html)``
is byte-identical per url across runs, batch boundaries and parallelism
levels (SURVEY.md §7 step 1).

The transform is a fixed sequence of RE2 regex substitutions executed with
``pyarrow.compute.replace_substring_regex`` — vectorized over whole Arrow
string arrays, zero Python-per-row work, and trivially deterministic because
every step is a pure string rewrite:

1. drop <script>/<style> blocks and HTML comments,
2. closing block tags (</p>, </div>, </hN>, </li>, </tr>, </title>, …) and
   <br>/<hr> become newlines (one pass),
3. every remaining tag becomes a single space,
4. the six standard character entities are decoded (&amp; last),
5. whitespace is normalized: runs of spaces/tabs collapse to one space,
   spaces adjacent to newlines are absorbed, newline runs collapse, and the
   result is trimmed.

Malformed markup (unclosed tags, stray ``<``) is NOT an error: the rewrite
rules simply don't match it and the bytes pass through — deterministic
degradation, mirroring the reference's parse-error recovery tier.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# The script/style/comment passes run only when some row of the batch holds
# one of their openers. One (?i) regex scan guards all three: a guard is
# never stricter than the regex it guards (a lone '<sCrIpT>' batch must not
# skip the script pass), and skipping passes that cannot match keeps the
# byte-identity invariant.
_DROP_GUARD = r"(?i)<script|<style|<!--"
_DROP_STEPS: list[tuple[str, str]] = [
    (r"(?is)<script\b[^>]*>.*?</script>", " "),
    (r"(?is)<style\b[^>]*>.*?</style>", " "),
    (r"(?s)<!--.*?-->", " "),
]

_BLOCK_CLOSE = r"</(?:p|div|h[1-6]|li|tr|title|ul|ol|table|head|section|article)>"

# (guard_substring, pattern, replacement) applied in order with global RE2
# replace; a pass is skipped when no row of the batch holds its guard (the
# extract stage is memory-bandwidth-bound, so each skipped pass saves a
# full rewrite of the batch). Closing block tags and <br>/<hr> both become
# a newline in one pass. A <br> may hold closing block tags where its
# whitespace goes ('<br</p>>'): replaced first, they would leave a <br>
# around a newline, so the one pass takes them as part of the <br>.
_TAG_STEPS: list[tuple[str, str, str]] = [
    ("<", rf"(?i){_BLOCK_CLOSE}|<(?:br|hr)(?:\s|{_BLOCK_CLOSE})*/?>", "\n"),
    ("<", r"<[^>]*>", " "),
]

# Literal entity decodes, each run only when its literal occurs after the
# passes before it; &amp; must be last so "&amp;lt;" → "&lt;" not "<".
_ENTITY_STEPS: list[tuple[str, str]] = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
    ("&amp;", "&"),
]

# Runs of spaces/tabs collapse to one space. Only the runs that change
# match: a lone space is left alone, which is most of the text's runs.
_WS_STEPS: list[tuple[str | None, str, str]] = [
    (None, r"[\t\r\f\v][ \t\r\f\v]*| [ \t\r\f\v]+", " "),
    ("\n", r"[ \t]*\n[ \t\n]*", "\n"),
]


def _present(arr, lit: str) -> bool:
    return pc.any(pc.match_substring(arr, lit)).as_py() or False


def _replace_steps(out, steps):
    for guard, pattern, repl in steps:
        if guard is None or _present(out, guard):
            out = pc.replace_substring_regex(out, pattern=pattern, replacement=repl)
    return out


def extract_text_array(html: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """Vectorized HTML→text over an Arrow string array. Pure, deterministic."""
    out = html
    if pc.any(pc.match_substring_regex(out, _DROP_GUARD)).as_py():
        for pattern, repl in _DROP_STEPS:
            out = pc.replace_substring_regex(out, pattern=pattern, replacement=repl)
    out = _replace_steps(out, _TAG_STEPS)
    if _present(out, "&"):
        for lit, repl in _ENTITY_STEPS:
            if _present(out, lit):
                out = pc.replace_substring(out, pattern=lit, replacement=repl)
    out = _replace_steps(out, _WS_STEPS)
    return pc.utf8_trim_whitespace(out)


def extract_text(html: str) -> str:
    """Scalar convenience wrapper (tests / fixture generation)."""
    return extract_text_array(pa.array([html], type=pa.string()))[0].as_py()


def decode_html_binary(
    html: pa.Array | pa.ChunkedArray,
) -> tuple[pa.Array, pa.Array]:
    """binary → (utf8 string, error string-or-null) with per-row isolation.

    The happy path is a single zero-copy Arrow cast. Only when the batch
    contains invalid UTF-8 do we fall back to per-row decoding with
    ``errors="replace"``, recording ``"utf8-decode-error"`` in the error
    column for those rows — the analog of the reference's per-file
    try/except skip-and-log (``definition_processor.py:447-449``): one bad
    row must never abort a partition.
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    try:
        text = html.cast(pa.string())
        errors = pa.nulls(len(html), pa.string())
        return text, errors
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        pass
    decoded: list[str | None] = []
    errs: list[str | None] = []
    for v in html:
        b = v.as_py()
        if b is None:
            decoded.append(None)
            errs.append("null-html")
            continue
        try:
            decoded.append(b.decode("utf-8"))
            errs.append(None)
        except UnicodeDecodeError:
            decoded.append(b.decode("utf-8", errors="replace"))
            errs.append("utf8-decode-error")
    return pa.array(decoded, type=pa.string()), pa.array(errs, type=pa.string())
