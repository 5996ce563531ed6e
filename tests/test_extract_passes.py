"""The RE2 passes of ``functions/html.py`` against the step list they
replaced: one guard for the script/style/comment passes, one pass for
closing block tags and <br>/<hr>, and a whitespace collapse that matches
only the runs it changes. Output must be byte-identical per row."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from code_graph_rag_ray.functions.html import (
    _ENTITY_STEPS,
    decode_html_binary,
    extract_text_array,
)

#: the reference: every pass on its own, each behind a case-insensitive
#: substring guard
REFERENCE_STEPS = [
    ("<script", r"(?is)<script\b[^>]*>.*?</script>", " "),
    ("<style", r"(?is)<style\b[^>]*>.*?</style>", " "),
    ("<!--", r"(?s)<!--.*?-->", " "),
    ("<", r"(?i)</(?:p|div|h[1-6]|li|tr|title|ul|ol|table|head|section|article)>", "\n"),
    ("<", r"(?i)<(?:br|hr)\s*/?>", "\n"),
    ("<", r"<[^>]*>", " "),
]
REFERENCE_WS_STEPS = [
    (None, r"[ \t\r\f\v]+", " "),
    ("\n", r"[ \t]*\n[ \t\n]*", "\n"),
]


def _reference(html):
    def present(arr, lit):
        return pc.any(pc.match_substring(arr, lit, ignore_case=True)).as_py() or False

    out = html
    for guard, pattern, repl in REFERENCE_STEPS:
        if present(out, guard):
            out = pc.replace_substring_regex(out, pattern=pattern, replacement=repl)
    if present(out, "&"):
        for lit, repl in _ENTITY_STEPS:
            out = pc.replace_substring(out, pattern=lit, replacement=repl)
    for guard, pattern, repl in REFERENCE_WS_STEPS:
        if guard is None or present(out, guard):
            out = pc.replace_substring_regex(out, pattern=pattern, replacement=repl)
    return pc.utf8_trim_whitespace(out)


def _check(htmls):
    arr = pa.array(htmls, pa.string())
    got = extract_text_array(arr)
    assert got.equals(_reference(arr)), list(zip(htmls, got.to_pylist(),
                                                 _reference(arr).to_pylist()))
    # a row's text does not depend on the rest of its batch
    for h, g in zip(htmls, got.to_pylist()):
        assert extract_text_array(pa.array([h], pa.string()))[0].as_py() == g


def test_planted_rows():
    _check([
        # a <br> around closing block tags is one newline, as when the
        # block tags were replaced first
        "a<br</p>>b", "<br</p>>", "a<BR </DIV>\t</p> />x", "<hr</li>", "<br\n/>",
        "a \t b", "a  b", "a\tb", "a \x0b\x0c\r b", " lone space ", "<p>a</p>\n \n<p>b</p>",
        "<sCrIpT>x</ScRiPt>y", "<STYLE a>b</style>c", "<!-- c -->d", "<!--x",
        "&amp;lt; &nbsp;&nbsp;x", "<div>a<br/>b<hr>c</div>", "", None, "é \t ü",
    ])
    _check(["no markup at all", "a b c"])       # every guard false
    _check(["<script>only</script>", "plain"])  # one guarded row in the batch


_PIECES = st.sampled_from([
    "<", ">", "/", "</", "<br", "<BR", "<hr", "</p>", "</P>", "</div>", "</li>",
    "<p>", "<br/>", "<hr >", "<script>", "</script>", "<sTyLe>", "</style>",
    "<!--", "-->", "&amp;", "&lt;", "&nbsp;", " ", "  ", "\t", "\n", "\r",
    "\x0b", "\x0c", "a", "B", "é",
])
_HTML = st.lists(st.one_of(_PIECES, st.text(alphabet="ab <>/\t\n", max_size=4)),
                 max_size=14).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), _HTML), min_size=1, max_size=6))
def test_passes_equal_the_reference(htmls):
    _check(htmls)


def _digest_equal(html):
    got, want = extract_text_array(html), _reference(html)
    assert pc.all(pc.equal(got, want)).as_py() and got.null_count == want.null_count


def test_generated_pages_equal_the_reference():
    from code_graph_rag_ray.sources.pages import _docs_to_pages_batch, generate_pages
    from perfbench.inputs import documents

    _digest_equal(decode_html_binary(generate_pages(2000, 2).pages["html"])[0])
    _digest_equal(decode_html_binary(_docs_to_pages_batch(documents(2000, 11))["html"])[0])


def test_sf_pages_equal_the_reference(sf_dir):
    from code_graph_rag_ray.sources.pages import _docs_to_pages_batch

    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    _digest_equal(decode_html_binary(_docs_to_pages_batch(docs)["html"])[0])
