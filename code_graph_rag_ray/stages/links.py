"""Hyperlink extraction + cross-document link resolution (the web-native
IMPORTS/RESOLVES_TO family).

The reference defers every import edge until all modules are known, then
verifies: an internal target must exist among known module qns or NO edge is
emitted, while unknown targets mint ExternalModule nodes
(``import_processor.py:831-844`` defer, ``:861-983`` flush; invoked
``graph_updater.py:752-756``). Endpoint linking joins request URLs to
endpoint Resources cross-project on a normalized URL key
(``graph_updater.py:1023-1047``, ``parsers/endpoints.py``).

Web-text translation:

- :func:`extract_links_batch` — per-page ``<a href="...">`` target
  extraction, run on the RAW html BEFORE tag-stripping (extract_text throws
  the tags away). Fully vectorized: one Arrow ``split_pattern`` on the
  ``href="`` literal, numpy offset bookkeeping to drop each row's pre-href
  prefix, one ``extract_regex`` for the closing quote.
- :func:`resolve_links` — the J4-style verification as a DISTRIBUTED
  semi/anti join of link targets against the corpus url set (both sides are
  corpus-scale, so this is a bucketed cogroup join, never a broadcast):
  internal targets become ``links_to`` edges, external targets aggregate
  into ``ext_site::<host>`` site nodes with inbound-link counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.functions.html import decode_html_binary

_HOST_RE = r"^[a-z][a-z0-9+.-]*://(?P<host>[^/]+)"


def extract_hrefs(html: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
    """Vectorized href targets from an html STRING array.

    Returns (targets, row_idx): every ``href="<target>"`` occurrence, with
    the index of the source row. Unterminated hrefs (no closing quote —
    malformed markup) are dropped, mirroring extract_text's deterministic
    degradation.
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    html = pc.fill_null(html, "")
    parts = pc.split_pattern(html, pattern='href="')
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = pc.list_flatten(parts)
    offsets = np.asarray(parts.offsets, dtype=np.int64)
    counts = np.diff(offsets)
    if len(flat) == 0:
        return pa.array([], pa.string()), np.empty(0, dtype=np.int64)
    row_idx_all = np.repeat(np.arange(len(counts)), counts)
    # element 0 of each row's split is the text BEFORE the first href — drop
    pos_in_row = np.arange(len(flat), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    keep = np.flatnonzero(pos_in_row > 0)
    cand = pc.take(flat, pa.array(keep, pa.int64()))
    row_idx = row_idx_all[keep]
    m = pc.extract_regex(cand, pattern='^(?P<t>[^"]*)"')
    targets = pc.struct_field(m, "t")
    valid = pc.is_valid(targets).to_numpy(zero_copy_only=False)
    sel = np.flatnonzero(valid)
    return pc.take(targets, pa.array(sel, pa.int64())), row_idx[sel]


def extract_hrefs_anchors(
    html: pa.Array | pa.ChunkedArray,
) -> tuple[pa.Array, pa.Array, np.ndarray]:
    """Like :func:`extract_hrefs` but also captures each link's ANCHOR TEXT.

    The anchor is the text between the tag close (``>`` after the href's
    closing quote, skipping any further attributes) and the first ``<`` —
    nested markup inside the anchor degrades to its leading text run, and a
    link whose anchor cannot be parsed keeps the link with an EMPTY anchor
    (the link itself is still ground truth; only the label is missing).
    """
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    html = pc.fill_null(html, "")
    parts = pc.split_pattern(html, pattern='href="')
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = pc.list_flatten(parts)
    offsets = np.asarray(parts.offsets, dtype=np.int64)
    counts = np.diff(offsets)
    if len(flat) == 0:
        empty = pa.array([], pa.string())
        return empty, empty, np.empty(0, dtype=np.int64)
    row_idx_all = np.repeat(np.arange(len(counts)), counts)
    pos_in_row = np.arange(len(flat), dtype=np.int64) - np.repeat(offsets[:-1], counts)
    keep = np.flatnonzero(pos_in_row > 0)
    cand = pc.take(flat, pa.array(keep, pa.int64()))
    row_idx = row_idx_all[keep]
    m = pc.extract_regex(cand, pattern='^(?P<t>[^"]*)"')
    targets = pc.struct_field(m, "t")
    ma = pc.extract_regex(cand, pattern='^[^"]*"[^>]*>(?P<a>[^<]*)')
    anchors = pc.fill_null(pc.struct_field(ma, "a"), "")
    valid = pc.is_valid(targets).to_numpy(zero_copy_only=False)
    sel = pa.array(np.flatnonzero(valid), pa.int64())
    return pc.take(targets, sel), pc.take(anchors, sel), row_idx[valid]


def extract_links_batch(batch: pa.Table, *, with_anchor: bool = False) -> pa.Table:
    """pages(url, html, …) → (url, target[, anchor]) link rows.

    Runs BEFORE extract_text in the pipeline order (the html column is
    dropped by extract_text; hrefs only exist in the raw markup). One bad
    row degrades to zero links, never a task failure.
    """
    decoded, _errs = decode_html_binary(batch["html"])
    if with_anchor:
        targets, anchors, row_idx = extract_hrefs_anchors(decoded)
        urls = pc.take(batch["url"], pa.array(row_idx, pa.int64()))
        return pa.table({"url": urls, "target": targets, "anchor": anchors})
    targets, row_idx = extract_hrefs(decoded)
    urls = pc.take(batch["url"], pa.array(row_idx, pa.int64()))
    return pa.table({"url": urls, "target": targets})


def extract_links(pages: Dataset, *, with_anchor: bool = False) -> Dataset:
    import functools

    fn = functools.partial(extract_links_batch, with_anchor=with_anchor)
    return pages.map_batches(fn, batch_format="pyarrow")


def _host_of(targets: pa.Array | pa.ChunkedArray) -> pa.Array:
    m = pc.extract_regex(pc.utf8_lower(targets), pattern=_HOST_RE)
    return pc.struct_field(m, "host")


def resolve_links(links: Dataset, corpus_urls: Dataset) -> dict:
    """J4/J8 verification: link targets ⋈ corpus url set.

    ``corpus_urls`` is a Dataset with a ``url`` column (corpus-scale — the
    join is a bucketed cogroup, NOT a broadcast). Returns dict of lazy
    Datasets:

    - ``internal``: (src_url, dst_url) ``links_to`` edges whose target is a
      real page (the semi-join side — dangling targets emit NO edge, cgr's
      deferred-import rule),
    - ``external``: (site, n_links) ``ext_site::``-style nodes aggregated
      per target host (the anti-join side — unknown target ⇒ External
      node, ``import_processor.py:861-983``).
    """
    from ray.data.aggregate import Sum

    from code_graph_rag_ray.stages.relational import bucketed_join

    marker = corpus_urls.map_batches(
        lambda b: pa.table(
            {"__t": b["url"], "__hit": pa.array(np.ones(b.num_rows, np.int8))}
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_join(
        links, marker, on="target", right_on="__t", how="left",
        left_schema=pa.schema([("url", pa.string()), ("target", pa.string())]),
        right_schema=pa.schema([("__t", pa.string()), ("__hit", pa.int8())]),
    )

    def split_internal(b: pa.Table) -> pa.Table:
        f = b.filter(pc.is_valid(b["__hit"]))
        return pa.table({"src_url": f["url"], "dst_url": f["target"]})

    def split_external(b: pa.Table) -> pa.Table:
        f = b.filter(pc.is_null(b["__hit"]))
        hosts = _host_of(f["target"])
        ok = pc.is_valid(hosts)
        t = pa.table({"site": pc.drop_null(hosts)})
        del ok
        # partial aggregate inside the batch before the (small) groupby
        return pa.TableGroupBy(t, ["site"], use_threads=False).aggregate(
            [([], "count_all")]
        ).rename_columns(["site", "n"])

    internal = joined.map_batches(split_internal, batch_format="pyarrow")
    external = (
        joined.map_batches(split_external, batch_format="pyarrow")
        .groupby("site")
        .aggregate(Sum("n", alias_name="n_links"))
    )
    return {"internal": internal, "external": external}


def anchor_summary(links: Dataset, corpus_urls: Dataset) -> Dataset:
    """Inbound anchor-text aggregation per internal link target.

    The classic web-graph signal (how the REST of the corpus names a page —
    the analog of the reference aggregating call-sites per resolved
    function, ``graph_updater.py:1023-1047``): for every link target that is
    a real corpus page, aggregate its inbound links into

    - ``n_links``  — inbound link count,
    - ``n_anchors`` — distinct anchor strings,
    - ``top_anchor`` — the most frequent anchor (ties → lexicographically
      smallest, so the result is deterministic and oracle-exact).

    A null anchor is one anchor of its own (SQL ``GROUP BY``) and sorts
    after every other anchor on a count tie.

    Scale shape: one bucketed SEMI join keeps only internal targets (both
    sides corpus-scale, never a broadcast), then every block pre-counts
    its ``(dst, anchor)`` pairs and ONE bucketed pass keyed on the dst
    completes the counts and summarizes each dst in Arrow
    (``relational._counted_groups``), so a whale target (everyone links
    to the same page) exchanges O(blocks × anchors), never its in-degree.
    """
    from code_graph_rag_ray.stages.relational import (
        _counted_groups,
        _runs,
        bucketed_join,
        run_starts,
    )

    internal = bucketed_join(
        links,
        corpus_urls,
        on="target",
        right_on="url",
        how="semi",
        left_schema=pa.schema(
            [("url", pa.string()), ("target", pa.string()), ("anchor", pa.string())]
        ),
        right_schema=pa.schema([("url", pa.string())]),
    )

    def summarize(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("target", "ascending"), ("n", "descending"), ("anchor", "ascending")]))
        starts, lens, _ = _runs(run_starts(t, ["target"]))
        n = t["n"].to_numpy()
        return pa.table({
            "dst_url": t["target"].take(starts),
            "n_links": pa.array(np.add.reduceat(n, starts) if len(starts) else n,
                                pa.int64()),
            "n_anchors": pa.array(lens, pa.int64()),
            "top_anchor": t["anchor"].take(starts),
        })

    return _counted_groups(internal, "target", "anchor", summarize)


def mine_anchor_aliases(
    links: Dataset,
    corpus_urls: Dataset,
    *,
    min_count: int = 2,
    entity_prefix: str = "page::",
    broadcast_totals: bool = True,
) -> Dataset:
    """Anchor-text alias dictionary mining — bootstrap the linker's alias
    table from the corpus's own hyperlinks (the Wikipedia-anchor-dictionary
    pattern): every internal link votes that its anchor text is a NAME for
    its target, and ``prior = P(target | alias)`` is the vote share.

    The KG-construction loop this closes: the reference seeds its registry
    from declared definitions (function_registry ingest) and only then
    resolves call sites; here the corpus itself mints dictionary entries —
    mined rows are schema-compatible with ``linking.build_alias_index``
    ((alias, entity_id, prior)), so the output unions straight into the
    broadcast dictionary for a second linking pass (pytest pins that loop).

    Scale shape: bucketed SEMI join to internal targets (both sides
    corpus-scale), combiner-first (alias, target) count — a whale alias
    exchanges O(blocks × targets), not its link count — then one
    alias-total join. Totals are distinct-anchor-scale (dictionary-scale on
    real web text); ``broadcast_totals=False`` switches to the bucketed
    cogroup join when the anchor vocabulary outgrows a worker heap.
    Aliases are trimmed but KEEP their case (they feed a case-sensitive
    surface matcher); prior is a single IEEE-754
    division (n/tot), so the table is bit-exact against a SQL oracle.
    """
    from code_graph_rag_ray.stages.relational import (
        bucketed_join,
        broadcast_join,
        partial_groupby_sum,
    )

    internal = bucketed_join(
        links,
        corpus_urls,
        on="target",
        right_on="url",
        how="semi",
        left_schema=pa.schema(
            [("url", pa.string()), ("target", pa.string()), ("anchor", pa.string())]
        ),
        right_schema=pa.schema([("url", pa.string())]),
    )

    def normalize(b: pa.Table) -> pa.Table:
        alias = pc.utf8_trim_whitespace(pc.fill_null(b["anchor"], ""))
        t = pa.table({"alias": alias, "target": b["target"]})
        return t.filter(pc.not_equal(alias, ""))

    pairs = partial_groupby_sum(
        internal.map_batches(normalize, batch_format="pyarrow"),
        ["alias", "target"],
        {},
        count_alias="n",
    )
    totals = partial_groupby_sum(
        pairs.select_columns(["alias", "n"]), ["alias"], {"n": "tot"}
    )
    if broadcast_totals:
        joined = broadcast_join(pairs, totals, on="alias")
    else:
        joined = bucketed_join(
            pairs,
            totals,
            on="alias",
            left_schema=pa.schema(
                [("alias", pa.string()), ("target", pa.string()), ("n", pa.int64())]
            ),
            right_schema=pa.schema([("alias", pa.string()), ("tot", pa.int64())]),
        )

    def score(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["n"], min_count))
        n = pc.cast(b["n"], pa.float64())
        tot = pc.cast(b["tot"], pa.float64())
        return pa.table({
            "alias": b["alias"],
            "entity_id": pc.binary_join_element_wise(
                pa.array([entity_prefix] * b.num_rows, type=pa.string()),
                b["target"], ""),
            "prior": pc.divide(n, tot),
            "n_links": pc.cast(b["n"], pa.int64()),
        })

    return joined.map_batches(score, batch_format="pyarrow")


def incremental_links(
    changed_pages: Dataset,
    prev_links: Dataset,
    *,
    with_anchor: bool = False,
) -> Dataset:
    """Watch-mode maintenance of the RAW link table (J9 applied to the
    hyperlink family): drop the changed pages' old link rows (anti-join on
    the broadcast changed-url set), re-extract links for just those pages,
    union — incremental == clean by construction, because raw href
    extraction is strictly page-local.

    Deliberately maintains the RAW (url, target) table, not the RESOLVED
    one: resolution depends on the whole corpus url set (adding a page can
    turn another page's dangling target internal — the reference re-runs
    its deferred-import flush for the same reason,
    import_processor.py:861-983), so callers re-run ``resolve_links`` over
    the maintained table; that pass is a semi-join, not a re-parse. A
    deleted page is a changed page with empty html (zero rows extracted).
    """
    import ray

    changed_urls = pa.array(
        sorted({r["url"] for r in
                changed_pages.select_columns(["url"]).take_all()}),
        pa.string())
    ref = ray.put(changed_urls)

    def drop_changed(b: pa.Table) -> pa.Table:
        from code_graph_rag_ray.functions.broadcast import get_broadcast

        return b.filter(pc.invert(pc.is_in(b["url"],
                                           value_set=get_broadcast(ref))))

    kept = prev_links.map_batches(drop_changed, batch_format="pyarrow")
    fresh = extract_links(changed_pages, with_anchor=with_anchor)
    return kept.union(fresh)
