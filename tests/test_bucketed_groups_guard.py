"""Guard: the bucketed-groups pattern (NOTES fact 25) lives in ONE operator,
``relational.bucketed_groups``, and the join family in ONE cogroup,
``relational.bucketed_cogroup``. The modules and functions ported onto them
must not grow a hand-made bucket shuffle, a pandas group finish or a
bucket knob again, the graph build takes no partition count it ignores,
and the package's ``batch_format="pandas"`` sites only ever go down."""

from __future__ import annotations

import inspect
import pathlib
import re

import pytest

from code_graph_rag_ray.pipelines import kg
from code_graph_rag_ray.stages import (
    asof,
    canonicalize,
    components,
    dedup,
    fusion,
    graph_metrics,
    linking,
    materialize,
    packing,
    paragraphs,
    paths,
    rangejoin,
    ranking,
    relational,
    skew,
    tfidf,
    windows,
)
from code_graph_rag_ray.state import lineage

HAND_BUCKET_GROUPBY = re.compile(
    r"""groupby\(\s*\[?[^)\]]*["'](bucket|__bk|__kb|__b\d?|__db|pbucket|__bucket)["']""")
PANDAS_BATCH_FORMAT = re.compile(r"""batch_format\s*=\s*["']pandas["']""")
PANDAS_GROUP_FINISH = re.compile(
    r"""map_groups\([^()]*(\([^()]*\)[^()]*)*batch_format\s*=\s*["']pandas["']""",
    re.S)

#: a ``groupby(…).map_groups`` written out by hand: one Ray group and one
#: UDF call per distinct key (NOTES fact 25), where ``bucketed_groups``
#: finishes 64 buckets
OWN_GROUPBY = re.compile(r"\.groupby\([^)]*\)\s*\.map_groups\(", re.S)

SOURCES = {
    **{m.__name__: m for m in (asof, canonicalize, components, fusion, linking,
                               materialize, packing, paragraphs, paths,
                               rangejoin, ranking, tfidf, lineage)},
    **{f"{f.__module__}.{f.__name__}": f for f in (
        dedup._lsh_pairs, dedup._attach_pair_payload,
        dedup.minhash_near_dup_pairs, dedup.simhash_near_dup_pairs,
        dedup.embedding_near_dup_pairs, dedup.prefix_jaccard_join,
        dedup.ngram_jaccard_pairs, dedup.semantic_dedup,
        dedup.editdist1_pairs, dedup.dup_ngram_spans, dedup.dup_span_apply,
        graph_metrics.bfs_hops, graph_metrics.label_propagation,
        graph_metrics.sssp_bounded, relational.bucketed_join,
        relational.grouped_top_k, relational.grouped_collect,
        relational.grouped_trimmed_sum,
        windows.session_windows_chunked, windows.sliding_time_sum,
        windows.running_total_per_key, windows.lag_per_key,
        windows.transition_counts, windows.strict_funnel)},
}

#: ``batch_format="pandas"`` sites under ``code_graph_rag_ray/``. Each port
#: to Arrow lowers it; it never rises.
PANDAS_SITES = 19

BUCKETED_OPS = (
    relational.bucketed_cogroup, relational.bucketed_join,
    relational.adaptive_join, asof.asof_join_chunked,
    rangejoin.range_join_chunked, skew.salted_join, paths.match_pattern,
    paths._match_fixed, paths.count_pattern, paths.bounded_reachability,
    graph_metrics.bfs_hops, graph_metrics.sssp_bounded,
    windows.session_windows_chunked, windows.transition_counts,
    windows.strict_funnel,
)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_hand_rolled_bucket_shuffle(name):
    src = inspect.getsource(SOURCES[name])
    assert not HAND_BUCKET_GROUPBY.search(src), (
        f"{name}: groupby on a hand-made bucket column — use "
        "relational.bucketed_groups")
    assert not PANDAS_GROUP_FINISH.search(src), (
        f"{name}: pandas map_groups finish — finish groups in Arrow via "
        "relational.bucketed_groups")


#: the store writer groups by its partition id on purpose: one group per
#: partition file it writes
OWN_GROUPBY_ALLOWED = {materialize.__name__}


@pytest.mark.parametrize("name", sorted(set(SOURCES) - OWN_GROUPBY_ALLOWED))
def test_no_own_groupby_map_groups(name):
    assert not OWN_GROUPBY.search(inspect.getsource(SOURCES[name])), (
        f"{name}: groupby(...).map_groups of its own — use "
        "relational.bucketed_groups or grouped_collect")


def test_guard_patterns_catch_the_old_shapes():
    assert OWN_GROUPBY.search(
        'capped.groupby("term").map_groups(concat, batch_format="pyarrow")')
    assert OWN_GROUPBY.search('ds.groupby(["a", "b"])\n    .map_groups(f)')
    assert not OWN_GROUPBY.search('ds.groupby("k").aggregate(Count())')
    assert HAND_BUCKET_GROUPBY.search('x.groupby("__bk").map_groups(f)')
    assert HAND_BUCKET_GROUPBY.search("x.groupby(['table', 'bucket'])")
    for col in ("__b", "__b2", "__kb"):
        assert HAND_BUCKET_GROUPBY.search(f'x.groupby("{col}").map_groups(f)')
    assert not HAND_BUCKET_GROUPBY.search('x.groupby("__bounds")')
    assert PANDAS_GROUP_FINISH.search(
        'x.groupby("k")\n  .map_groups(lambda g: f(g, 1),\n'
        '              batch_format="pandas")')
    assert not PANDAS_GROUP_FINISH.search(
        'x.groupby("k").map_groups(f, batch_format="pyarrow")')
    assert not PANDAS_BATCH_FORMAT.search('batch_format="pyarrow"')
    assert len(PANDAS_BATCH_FORMAT.findall(
        'map_batches(f, batch_format="pandas")\n'
        "map_groups(g, batch_format = 'pandas')")) == 2


@pytest.mark.parametrize("fn", BUCKETED_OPS, ids=lambda f: f.__name__)
def test_join_family_has_no_bucket_knobs(fn):
    # results never depend on the bucket count; the cogroup owns it
    params = set(inspect.signature(fn).parameters)
    assert not params & {"num_buckets", "coalesce"}, fn.__name__


@pytest.mark.parametrize("fn", (
    components.connected_components, canonicalize.canonicalize_entities,
    kg.derive_graph_outputs, kg.build_kg, kg.incremental_update,
), ids=lambda f: f.__name__)
def test_graph_build_has_no_partition_knob(fn):
    # none of these writes partitions; only materialize/serve take the count
    assert "num_partitions" not in inspect.signature(fn).parameters, fn.__name__


def test_pack_side_only_feeds_bucketed_cogroup():
    root = pathlib.Path(relational.__file__).parents[1]
    users = {p.relative_to(root).as_posix(): p.read_text().count("_pack_side")
             for p in root.rglob("*.py")}
    users = {k: n for k, n in users.items() if n}
    in_cogroup = inspect.getsource(relational.bucketed_cogroup).count("_pack_side")
    assert in_cogroup == 1
    assert users == {"stages/relational.py": 1 + in_cogroup}  # def + its call


def test_pandas_batch_format_ratchet():
    root = pathlib.Path(relational.__file__).parents[1]
    n = sum(len(PANDAS_BATCH_FORMAT.findall(p.read_text())) for p in root.rglob("*.py"))
    assert n <= PANDAS_SITES, (
        f'{n} batch_format="pandas" sites, pinned at {PANDAS_SITES}: finish '
        "in Arrow instead")
