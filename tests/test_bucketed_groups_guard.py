"""Guard: the bucketed-groups pattern (NOTES fact 25) lives in ONE operator,
``relational.bucketed_groups``. The modules and functions ported onto it
must not grow a hand-made bucket shuffle or a pandas group finish again."""

from __future__ import annotations

import inspect
import re

import pytest

from code_graph_rag_ray.stages import (
    components,
    dedup,
    fusion,
    graph_metrics,
    linking,
    materialize,
    paths,
    relational,
)
from code_graph_rag_ray.state import lineage

HAND_BUCKET_GROUPBY = re.compile(
    r"""groupby\(\s*\[?[^)\]]*["'](bucket|__bk|__db|pbucket|__bucket)["']""")
PANDAS_GROUP_FINISH = re.compile(
    r"""map_groups\([^()]*(\([^()]*\)[^()]*)*batch_format\s*=\s*["']pandas["']""",
    re.S)

SOURCES = {
    **{m.__name__: m for m in (components, fusion, linking, materialize, paths,
                               lineage)},
    **{f"{f.__module__}.{f.__name__}": f for f in (
        dedup._dedup_pairs_bucketed, dedup._pairs_from_buckets,
        dedup.editdist1_pairs, dedup.dup_ngram_spans, dedup.dup_span_apply,
        graph_metrics.label_propagation, relational.grouped_top_k,
        relational.grouped_collect, relational.grouped_trimmed_sum)},
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_hand_rolled_bucket_shuffle(name):
    src = inspect.getsource(SOURCES[name])
    assert not HAND_BUCKET_GROUPBY.search(src), (
        f"{name}: groupby on a hand-made bucket column — use "
        "relational.bucketed_groups")
    assert not PANDAS_GROUP_FINISH.search(src), (
        f"{name}: pandas map_groups finish — finish groups in Arrow via "
        "relational.bucketed_groups")


def test_guard_patterns_catch_the_old_shapes():
    assert HAND_BUCKET_GROUPBY.search('x.groupby("__bk").map_groups(f)')
    assert HAND_BUCKET_GROUPBY.search("x.groupby(['table', 'bucket'])")
    assert PANDAS_GROUP_FINISH.search(
        'x.groupby("k")\n  .map_groups(lambda g: f(g, 1),\n'
        '              batch_format="pandas")')
    assert not PANDAS_GROUP_FINISH.search(
        'x.groupby("k").map_groups(f, batch_format="pyarrow")')
