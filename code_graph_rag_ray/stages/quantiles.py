"""Exact distributed grouped quantiles (discrete / percentile_disc semantics).

Shape: combiner-first value counts finished per key
(``relational._counted_groups``): each block emits one (key, value, n)
row per distinct pair with an Arrow ``group_by``, then ONE
``bucketed_groups`` pass keyed on the key completes the counts and picks
every requested quantile of all the bucket's keys in one vectorized pass
over the sorted histogram — a hot value exchanges O(blocks) rows, not
O(rows).

Selection rule = SQL ``percentile_disc`` / DuckDB ``quantile_disc``:
the smallest value whose cumulative distribution ``cum/n >= q``, with
``cum/n`` computed as ONE int/int IEEE-754 double division — verified
empirically to reproduce DuckDB bit-for-bit including the q=0.9, n=10
case where a float ``ceil(q*n)`` rule diverges (0.9*10 rounds above 9).

Nulls follow DuckDB: a null value counts in ``n`` (``count(*)``) but
not in the distribution, and a key without a non-null value gets null
quantiles.

Scale note: the shuffled state is the per-group distinct-value histogram,
so this is exact AND cheap for discrete-ish columns (lengths, counts,
scores on a grid). For continuous doubles the histogram degenerates to
row count — pre-bin (e.g. ``round(x, 3)``) or switch to a sketch before
reaching for this operator.

cgr analog: the findings/metrics summarizer (analyzers aggregate stats
per module, M12); re-targeted as corpus length/score distribution
profiling for curation cutoffs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.stages.relational import _counted_groups, _runs, run_starts


def _histogram_quantiles(ds: Dataset, key: str, value_col: str, pick) -> Dataset:
    """One (key, n, <pick columns>) row per key. ``pick(vals, cum, starts,
    lens, nn)`` gets a bucket's histogram sorted by (key, value), nulls
    last in each key: its value column, the running count of non-null
    rows over the whole bucket, the keys' runs and their non-null row
    counts. It returns {alias: one array per key}."""

    def finish(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(
            t, sort_keys=[(key, "ascending"), (value_col, "ascending")]))
        starts, lens, _ = _runs(run_starts(t, [key]))
        cnt = t["n"].to_numpy()
        counted = np.where(pc.is_valid(t[value_col]).to_numpy(
            zero_copy_only=False), cnt, 0)
        cum = np.cumsum(counted)
        nn = np.add.reduceat(counted, starts) if len(starts) else cnt[:0]
        n = np.add.reduceat(cnt, starts) if len(starts) else cnt[:0]
        return pa.table({key: t[key].take(starts), "n": pa.array(n, pa.int64()),
                         **pick(t[value_col], cum, starts, lens, nn)})

    return _counted_groups(ds, key, value_col, finish)


def grouped_quantiles(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    qs: dict[str, float],
) -> Dataset:
    """Per-``key`` exact quantiles of ``value_col``.

    ``qs`` maps output column name → quantile in (0, 1]. Returns one row
    per key: (key, n, <alias...>) with aliases in ``qs`` insertion order;
    the quantiles keep the value column's type.
    """

    def pick(vals, cum, starts, lens, nn):
        # each row's cume_dist in its key, ONE int/int double division; it
        # never falls inside a key, so the rows below q give the offset
        base = np.append(0, cum)[starts]
        cd = (cum - np.repeat(base, lens)) / np.repeat(
            np.maximum(nn, 1), lens).astype(np.float64)
        out = {}
        for alias, q in qs.items():
            below = (np.add.reduceat((cd < np.float64(q)).astype(np.int64), starts)
                     if len(starts) else starts)
            out[alias] = vals.take(pa.array(starts + below, pa.int64(), mask=nn == 0))
        return out

    return _histogram_quantiles(ds, key, value_col, pick)


def grouped_quantiles_cont(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    qs: dict[str, float],
) -> Dataset:
    """Per-``key`` INTERPOLATED quantiles (``percentile_cont`` semantics):
    position p = q·(n−1) over the sorted non-null rows, result =
    v[⌊p⌋] + (p − ⌊p⌋)·(v[⌊p⌋+1] − v[⌊p⌋]).

    Same combiner-first histogram as :func:`grouped_quantiles` (a hot
    value exchanges O(blocks) rows); the finish finds the two neighbor
    ROW indices of every key with one ``searchsorted`` over the running
    counts and interpolates. The oracle does NOT use the engine-internal
    ``quantile_cont`` (whose interpolation op order is unspecified) — it
    replays this exact expression with window SQL, so the single
    multiply-add is bit-identical on both sides.
    """

    def pick(vals, cum, starts, lens, nn):
        base = np.append(0, cum)[starts]
        v = np.asarray(pc.fill_null(vals, 0).to_numpy(zero_copy_only=False)
                       ).astype(np.float64)

        def at(r):
            # sorted row r of a key = its first histogram row with cum > r
            return v[np.minimum(np.searchsorted(cum, base + r + 1, side="left"),
                                len(v) - 1)]

        out = {}
        for alias, q in qs.items():
            p = np.float64(q) * (nn - 1).astype(np.float64)
            lo = np.floor(p)
            vlo = at(lo.astype(np.int64))
            vhi = at(np.minimum(lo.astype(np.int64) + 1, nn - 1))
            out[alias] = pa.array(vlo + (p - lo) * (vhi - vlo), pa.float64(),
                                  mask=nn == 0)
        return out

    return _histogram_quantiles(ds, key, value_col, pick)


def grouped_mad_outliers(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    id_col: str,
    k: int = 3,
) -> Dataset:
    """Robust per-group outlier rows: ``|x − median| > k × MAD`` (median
    absolute deviation), the standard heavy-tail-safe alternative to
    z-scores for corpus curation cutoffs (doc lengths are power-law-ish;
    mean/stddev are dragged by the tail, median/MAD are not).

    Two rounds of :func:`grouped_quantiles` (each a combiner-first
    value-count histogram with one exchange — scale-safe for integer-ish
    columns), the per-group
    median/MAD tables are group-cardinality-sized and broadcast via the
    object store (never the driver); everything else is a vectorized
    Arrow filter. Integer in → integer comparisons → bit-exact vs a SQL
    ``quantile_disc`` oracle.

    cgr analog: the findings analyzers' per-module statistical cutoffs
    (M12, ``analyzers/``) — re-targeted as distribution-based document
    filtering.
    """
    from code_graph_rag_ray.stages.relational import broadcast_join

    base = ds.select_columns([id_col, key, value_col])
    med = grouped_quantiles(base, key=key, value_col=value_col,
                            qs={"med": 0.5}).select_columns([key, "med"])

    def adev(b: pa.Table) -> pa.Table:
        d = pc.abs(pc.subtract(b[value_col], b["med"]))
        return pa.table(
            {id_col: b[id_col], key: b[key], value_col: b[value_col],
             "adev": pc.cast(d, pa.int64())}
        )

    dev = broadcast_join(base, med, on=key).map_batches(
        adev, batch_format="pyarrow"
    )
    mad = grouped_quantiles(dev, key=key, value_col="adev",
                            qs={"mad": 0.5}).select_columns([key, "mad"])

    def flag(b: pa.Table) -> pa.Table:
        m = pc.greater(b["adev"], pc.multiply(pa.scalar(k, pa.int64()), b["mad"]))
        f = b.filter(m)
        return pa.table(
            {id_col: f[id_col], key: f[key], value_col: f[value_col],
             "adev": f["adev"], "mad": f["mad"]}
        )

    return broadcast_join(dev, mad, on=key).map_batches(
        flag, batch_format="pyarrow"
    )
