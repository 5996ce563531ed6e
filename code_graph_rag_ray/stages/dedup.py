"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

The reference has only exact MERGE dedup (SURVEY.md §2.6: "no near-dup
detection anywhere"); a 100 TB web corpus needs the near-dup family, so
these are first-class operators here. The LSH members (MinHash, SimHash,
prefix Jaccard, embedding, edit distance 1) share one shape — partition
by signature, verify locally, emit each pair once:

    per-batch vectorized signature → explode to (band key, id) rows →
    _lsh_pairs: capped pairs per band key, then each (a, b) once →
    _attach_pair_payload: semi-join the corpus to the suspect ids, attach
    their payload to a and b → per-pair verify → connected components
    over verified pairs → keep min-id per component

Signatures are computed with numpy over Arrow batches (stateless tasks).
The shuffles are the two bucketed candidate steps, the payload fetch only
when the suspects outgrow a broadcast, and the CC rounds. Band keys bound
pairwise work: a key shared by k docs yields k² candidates, and the
``max_group`` guard caps degenerate keys with the truncation recorded (the
skew discipline of SURVEY.md §4 — a boilerplate shingle shared by every
page must not become one giant task).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from code_graph_rag_ray.functions.hashing import (
    _MULT,
    _splitmix,
    md5_hex_array,
)
from code_graph_rag_ray.stages.components import connected_components

_M61 = (1 << 61) - 1
_MASK32 = np.uint64(0xFFFFFFFF)


def _token_hashes(text: str, n: int = 3) -> np.ndarray:
    """md5-low32 hashes of word n-gram shingles.

    md5 rather than crc32 so the signatures are DuckDB-recomputable —
    ``('0x' || substr(md5(s),1,8))::UBIGINT`` rebuilds these exact values,
    which is what upgrades the simhash queries from rows-only to bit-exact
    oracle checks. Values stay < 2^32, preserving the exact-product
    property the MinHasher relies on."""
    import hashlib

    toks = text.split()
    if len(toks) < n:
        return np.asarray(
            [int.from_bytes(hashlib.md5(text.encode()).digest()[:4], "big")],
            dtype=np.uint64,
        )
    return np.asarray(
        [
            int.from_bytes(
                hashlib.md5(" ".join(toks[i : i + n]).encode()).digest()[:4], "big"
            )
            for i in range(len(toks) - n + 1)
        ],
        dtype=np.uint64,
    )


def _token_hashes_flat(toks) -> tuple[np.ndarray, np.ndarray]:
    """Split tokens → ``(hashes, counts)``: the uint64 siphash of every
    non-empty token, flat in document order, and each document's count
    of them — the tokenization step of the fast hash family.

    Arrow keeps empty boundary tokens (``" a b "`` → ``["","a","b",""]``),
    Python's ``.split()`` drops them, so they are filtered out here. The
    vocabulary is hashed once and gathered per token: the values equal
    hashing every token (``hash_array`` is element-independent), but the
    Python-object hashing cost is O(vocab), not O(tokens).
    """
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    off = np.asarray(toks.offsets, dtype=np.int64)
    off = off - off[0]
    keep = pc.greater(pc.utf8_length(flat), 0)
    # kept-token count per doc via one cumsum (no astype copy / reduceat)
    kc = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(keep.to_numpy(zero_copy_only=False), dtype=np.int64, out=kc[1:])
    d = pc.dictionary_encode(flat.filter(keep))
    uh = pd.util.hash_array(d.dictionary.to_numpy(zero_copy_only=False))
    return uh[d.indices.to_numpy(zero_copy_only=False)], kc[off[1:]] - kc[off[:-1]]


def _fast_shingle_hashes_flat(
    texts, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-VECTORIZED word-n-gram shingle hashes — the fast hash family.

    Returns ``(hashes, offsets)``: ``hashes`` is the flat uint64 array of
    per-window hashes (masked to 32 bits, preserving MinHasher's
    exact-product property), doc ``d``'s windows live at
    ``hashes[offsets[d]:offsets[d+1]]``. Docs with fewer than ``n`` tokens
    contribute ONE whole-text hash (mirroring the md5 family's fallback),
    so every doc has at least one hash.

    Zero Python-per-row work: Arrow splits tokens and dictionary-encodes
    the flat token array (C++), ``pd.util.hash_array`` (cython siphash
    with pandas' fixed default key — deterministic across
    processes/platforms) hashes only the UNIQUE tokens (vocab ≪ token
    count), an int gather fans the hashes back out, the n-gram combine is
    ``n-1`` fused multiply-adds over the flat token-hash array, and the
    ragged per-doc gather is a repeat/cumsum index build. This is the
    default family for the dedup signatures; ``hash_family="md5"``
    selects the per-shingle md5 loop whose values DuckDB can replay (the
    audit/oracle variant — same split as ``stages/bloom.py``).
    """
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(pc.cast(texts, pa.string()), "")
    ndocs = len(texts)
    th, counts = _token_hashes_flat(pc.utf8_split_whitespace(texts))

    m = len(th) - (n - 1)
    acc = np.empty(0, dtype=np.uint64)
    if m > 0:
        acc = th[:m].copy()
        for k in range(1, n):
            acc *= _MULT
            acc += th[k : k + m]
        acc = _splitmix(acc) & _MASK32
    tok_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]

    out_counts = np.where(counts >= n, counts - n + 1, 1)
    out_off = np.concatenate(([0], np.cumsum(out_counts)))
    total = int(out_off[-1])
    doc_of = np.repeat(np.arange(ndocs, dtype=np.int64), out_counts)
    pos_in_doc = np.arange(total, dtype=np.int64) - np.repeat(
        out_off[:-1], out_counts
    )
    out = np.empty(total, dtype=np.uint64)
    is_win = (counts >= n)[doc_of]
    if is_win.any():
        out[is_win] = acc[(tok_starts[doc_of] + pos_in_doc)[is_win]]
    if not is_win.all():
        short = np.flatnonzero(counts < n)  # one fallback hash per short doc
        fb = _splitmix(pd.util.hash_array(
            texts.take(pa.array(short)).to_numpy(zero_copy_only=False)
        )) & _MASK32
        out[~is_win] = fb  # out_counts is exactly 1 for every short doc
    return out, out_off


def _token_hashes_fast(text: str, n: int = 3) -> np.ndarray:
    """Single-doc wrapper over :func:`_fast_shingle_hashes_flat`."""
    h, _ = _fast_shingle_hashes_flat([text], n)
    return h


def _token_hashes_family(text: str, n: int, hash_family: str) -> np.ndarray:
    if hash_family == "fast":
        return _token_hashes_fast(text, n)
    if hash_family != "md5":
        raise ValueError(f"unknown hash_family {hash_family!r}")
    return _token_hashes(text, n)


class MinHasher:
    """num_perm universal-hash minhash signatures ((a*x+b) mod p)."""

    def __init__(self, num_perm: int = 64, seed: int = 7):
        rng = np.random.default_rng(seed)
        # a < 2^31 and x < 2^32 (md5-low32 shingles) keep a*x < 2^63, so the
        # uint64 product is EXACT — a full-width a would wrap mod 2^64
        # before the mod-M61, silently breaking the universal-hash property
        # (biased signatures → reduced LSH recall).
        self.a = rng.integers(1, 1 << 31, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _M61, size=num_perm, dtype=np.uint64)

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        # (num_perm, n_shingles) → min along shingles
        x = shingles.astype(np.uint64) & np.uint64(0xFFFFFFFF)
        vals = (np.outer(self.a, x) + self.b[:, None]) % _M61
        return vals.min(axis=1)

    def signatures_flat(
        self, hashes: np.ndarray, offsets: np.ndarray,
        *, chunk: int = 8192,
    ) -> np.ndarray:
        """(ndocs, num_perm) signatures for a WHOLE batch in one shot.

        One (num_perm × chunk) universal-hash matrix at a time over the
        flat shingle array, per-doc mins via ``minimum.reduceat`` — no
        Python-per-doc loop. Every doc must own ≥ 1 hash (the flat
        producer guarantees a fallback hash), so reduceat segments are
        never empty. Bounded peak memory: chunked along the shingle axis.
        """
        ndocs = len(offsets) - 1
        P = len(self.a)
        sig = np.full((ndocs, P), np.iinfo(np.uint64).max, dtype=np.uint64)
        x = hashes & _MASK32
        starts = offsets[:-1]
        m61 = np.uint64(_M61)
        for lo in range(0, len(x), chunk):
            hi = min(lo + chunk, len(x))
            # (a*x+b) mod M61 via the Mersenne fold — a is 31-bit and x
            # 32-bit so a*x+b < 2^64 never overflows; fold ≡ mod for
            # inputs < 2^64 here and skips uint64 division (~1.4×)
            vals = self.a[:, None] * x[None, lo:hi]
            vals += self.b[:, None]
            folded = vals & m61
            folded += vals >> np.uint64(61)
            np.subtract(folded, m61, out=folded, where=folded >= m61)
            # docs whose windows intersect [lo, hi)
            d0 = int(np.searchsorted(starts, lo, side="right") - 1)
            d1 = int(np.searchsorted(starts, hi, side="left"))
            seg = np.clip(starts[d0:d1], lo, hi) - lo
            part = np.minimum.reduceat(folded, seg, axis=1).T
            np.minimum(sig[d0:d1], part, out=sig[d0:d1])
        return sig


def minhash_bands_batch_factory(*, num_perm: int = 64, bands: int = 16, shingle: int = 3,
                                id_col: str = "doc_id", text_col: str = "text",
                                hash_family: str = "fast"):
    """Stateless batch fn: docs → (id, band, band_hash) rows (LSH explode).

    ``hash_family="fast"`` (default) is fully vectorized end to end:
    batch shingle hashes (:func:`_fast_shingle_hashes_flat`), batch
    signatures (``MinHasher.signatures_flat``), and a polynomial band
    fold — no Python loop anywhere. ``"md5"`` keeps the per-shingle md5 +
    per-band crc32 values that the DuckDB oracle replays bit-exactly
    (the audit variant; same fast/md5 split as ``stages/bloom.py``).
    """
    hasher = MinHasher(num_perm)
    rows_per_band = num_perm // bands

    def fn_md5(batch: pa.Table) -> pa.Table:
        import zlib

        ids, bands_out, hashes = [], [], []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            sig = hasher.signature(_token_hashes(t or "", shingle))
            for b in range(bands):
                h = zlib.crc32(sig[b * rows_per_band : (b + 1) * rows_per_band].tobytes())
                ids.append(i)
                bands_out.append(b)
                hashes.append(h)
        return pa.table(
            {id_col: pa.array(ids), "band": pa.array(bands_out, pa.int32()),
             "band_hash": pa.array(hashes, pa.int64())}
        )

    def fn_fast(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {id_col: pa.array([], batch[id_col].type),
                 "band": pa.array([], pa.int32()),
                 "band_hash": pa.array([], pa.int64())}
            )
        h, off = _fast_shingle_hashes_flat(batch[text_col], shingle)
        sig = hasher.signatures_flat(h, off)          # (n, num_perm)
        grp = sig.reshape(n, bands, rows_per_band)    # fold each band
        acc = grp[:, :, 0].copy()
        for k in range(1, rows_per_band):
            acc *= _MULT
            acc += grp[:, :, k]
        bh = (_splitmix(acc) >> np.uint64(1)).astype(np.int64)  # int64-safe
        ids = batch[id_col].take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), bands)))
        return pa.table(
            {id_col: ids,
             "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
             "band_hash": pa.array(bh.reshape(-1))}
        )

    if hash_family == "fast":
        return fn_fast
    if hash_family != "md5":
        raise ValueError(f"unknown hash_family {hash_family!r}")
    return fn_md5


def simhash_batch_factory(*, bits: int = 64, shingle: int = 2,
                          id_col: str = "doc_id", text_col: str = "text",
                          hash_family: str = "fast"):
    """Stateless batch fn: docs → (id, simhash) 64-bit signatures.

    ``hash_family="fast"`` (default) computes bit votes for the whole
    batch with one (total_shingles × bits) unpack + per-doc ``reduceat``;
    ``"md5"`` is the oracle-replayable audit variant (per-shingle md5)."""

    def fn_md5(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch[text_col].to_pylist():
            hs = _token_hashes(t or "", shingle)
            # accumulate bit votes
            bitmat = ((hs[:, None] >> np.arange(bits, dtype=np.uint64)) & 1).astype(np.int64)
            votes = bitmat.sum(axis=0) * 2 - len(hs)
            sim = int(((votes > 0).astype(np.uint64) << np.arange(bits, dtype=np.uint64)).sum())
            out.append(sim & 0x7FFFFFFFFFFFFFFF)
        return pa.table({id_col: batch[id_col], "simhash": pa.array(out, pa.int64())})

    def fn_fast(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "simhash": pa.array([], pa.int64())})
        h, off = _fast_shingle_hashes_flat(batch[text_col], shingle)
        counts = np.diff(off)
        sims = np.zeros(n, dtype=np.uint64)
        # one small reduceat pass per bit position (hashes are 32-bit, so
        # higher bits always vote 0) — a single (shingles × bits) vote
        # matrix would be a >100 MB allocation, which this VM class pays
        # dearly for; 32 cache-sized passes are strictly faster
        for b in range(min(bits, 32)):
            bitvals = ((h >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            ones = np.add.reduceat(bitvals, off[:-1])
            sims |= ((ones * 2 - counts) > 0).astype(np.uint64) << np.uint64(b)
        sims &= np.uint64(0x7FFFFFFFFFFFFFFF)
        return pa.table({id_col: batch[id_col],
                         "simhash": pa.array(sims.astype(np.int64))})

    if hash_family == "fast":
        return fn_fast
    if hash_family != "md5":
        raise ValueError(f"unknown hash_family {hash_family!r}")
    return fn_md5


def _lsh_pairs(rows: Dataset, band_cols: list[str], id_col: str,
               max_group: int) -> Dataset:
    """LSH candidates: ``(a, b, truncated)`` with a < b, each pair once.

    Two ids are candidates when a row of each shares a band key (the
    ``band_cols`` values). Band keys are corpus-scale (docs × bands) and
    Ray's sort-aggregate pays a fixed per-GROUP cost that dominates there
    (NOTES fact 25), so both steps run one hash bucket at a time on
    ``relational.bucketed_groups``: the first enumerates the pairs of all
    of a bucket's keys in one vectorized pass, the second keeps one row
    per pair. A key with more than ``max_group`` distinct ids pairs only
    its first ``max_group`` ids by sort order and marks those pairs
    ``truncated`` — no silent caps. A pair surfaced by several keys keeps
    the smallest flag (False wins).
    """
    from code_graph_rag_ray.stages.relational import (
        _key_image,
        _runs,
        bucketed_groups,
        run_starts,
    )

    def key_rows(b: pa.Table) -> pa.Table:
        return pa.table({"__k": _key_image(b, band_cols), id_col: b[id_col]})

    def pairs(g: pa.Table) -> pa.Table:
        d = pa.TableGroupBy(g, ["__k", id_col], use_threads=False).aggregate([])
        d = d.take(pc.sort_indices(d, sort_keys=[("__k", "ascending"),
                                                  (id_col, "ascending")]))
        _, lens, pos = _runs(run_starts(d, ["__k"]))
        # each row pairs with the later rows of its capped group: ids are
        # distinct and sorted within a key, so a < b
        later = np.maximum(np.repeat(np.minimum(lens, max_group), lens) - pos - 1, 0)
        ii = np.repeat(np.arange(d.num_rows), later)
        jj = ii + 1 + (np.arange(len(ii)) - np.repeat(np.cumsum(later) - later, later))
        ids = d[id_col]
        return pa.table({"a": ids.take(ii), "b": ids.take(jj),
                         "truncated": pa.array(np.repeat(lens > max_group, lens)[ii],
                                               pa.bool_())})

    def first_of_pair(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[
            ("a", "ascending"), ("b", "ascending"), ("truncated", "ascending")]))
        return g.filter(pa.array(run_starts(g, ["a", "b"])))

    cand = bucketed_groups(rows.map_batches(key_rows, batch_format="pyarrow"),
                           "__k", pairs)
    return bucketed_groups(cand, ["a", "b"], first_of_pair)


def _pairs_or_typed_empty(out: Dataset, ds: Dataset, col: str,
                          names: tuple[str, str], last: tuple) -> Dataset:
    """``out``, or, when it holds no row, the empty table of ``names``
    typed as ``ds[col]`` plus the ``last`` field: a map over an empty
    dataset never calls its UDF, so an empty result would be schema-less."""
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import _arrow_schema

    out = out.materialize()
    if out.count():
        return out
    t = _arrow_schema(ds).field(col).type
    return rd.from_arrow(pa.schema([(n, t) for n in names] + [last]).empty_table())


def _attach_pair_payload(pairs: Dataset, rows: Dataset, id_col: str,
                         verify) -> Dataset:
    """``verify`` over candidate pairs with both sides' payload attached.

    ``rows`` holds ``id_col`` plus the payload columns (texts, signatures,
    vectors). Its rows are semi-joined to the suspect ids ``a ∪ b`` — a
    semi join emits each row at most once, so no distinct step — and the
    surviving payload is pinned once, then attached to ``a`` and to ``b``
    (the ``b`` side's payload columns get the ``_r`` suffix). All three
    joins are ``relational.adaptive_join`` calls: each broadcasts its
    right side when it fits the budget, so at scale the corpus crosses
    one shuffle only. ``verify`` maps a batch of ``(a, b, truncated,
    <payload>, <payload>_r)`` to output rows.

    No candidates: ``verify`` runs once on the typed empty batch, ids
    typed as in ``rows``, so the output keeps its schema — a map over an
    empty dataset never calls its UDF and would leave it schema-less.
    """
    import ray.data as rd

    from code_graph_rag_ray.stages.relational import _arrow_schema, adaptive_join

    pairs = pairs.materialize()
    schema = _arrow_schema(rows)
    payload = [f for f in schema if f.name != id_col]
    if pairs.count() == 0:
        id_t = schema.field(id_col).type
        empty = pa.schema([("a", id_t), ("b", id_t), ("truncated", pa.bool_()),
                           *payload, *(f.with_name(f.name + "_r") for f in payload)])
        return rd.from_arrow(verify(empty.empty_table()))

    def suspect_ids(b: pa.Table) -> pa.Table:
        return pa.table({id_col: pa.concat_arrays(
            [b["a"].combine_chunks(), b["b"].combine_chunks()])})

    suspects = adaptive_join(
        rows, pairs.map_batches(suspect_ids, batch_format="pyarrow"),
        on=id_col, how="semi").materialize()
    with_a = adaptive_join(pairs, suspects, on="a", right_on=id_col)
    # with_a may be a lazy shuffle output: name its schema so a bucketed
    # plan's probe does not execute it (NOTES fact 22)
    with_b = adaptive_join(with_a, suspects, on="b", right_on=id_col,
                           left_schema=pa.schema([*_arrow_schema(pairs), *payload]))
    return with_b.map_batches(verify, batch_format="pyarrow")


def simhash_near_dup_pairs(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
    shingle: int = 2,
    max_group: int = 500,
    hash_family: str = "fast",
) -> Dataset:
    """SimHash near-dup pairs: (a, b, truncated, hamming) with a < b and
    hamming ≤ ``max_hamming``.

    Banded by the pigeonhole principle: the 64-bit signature is split
    into ``max_hamming + 1`` equal bands — two signatures within Hamming
    distance k must agree EXACTLY on at least one band, so the
    (band, band_value) keys of :func:`_lsh_pairs` surface every
    qualifying pair (``max_group``-capped, truncation recorded). The
    signatures are computed once and pinned: they feed the band rows and
    are the ``(id, simhash)`` payload that :func:`_attach_pair_payload`
    brings to each pair for the popcount verify.
    """
    n_bands = max_hamming + 1
    band_bits = 64 // n_bands
    shifts = np.arange(n_bands, dtype=np.uint64) * np.uint64(band_bits)
    mask = np.uint64((1 << band_bits) - 1)
    sigs = ds.map_batches(
        simhash_batch_factory(shingle=shingle, id_col=id_col,
                              text_col=text_col, hash_family=hash_family),
        batch_format="pyarrow",
    ).materialize()

    def band_rows(b: pa.Table) -> pa.Table:
        sim = b["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(sim)
        vals = (sim[None, :] >> shifts[:, None]) & mask  # (band, doc)
        return pa.table({
            id_col: b[id_col].take(pa.array(np.tile(np.arange(n), n_bands))),
            "band": pa.array(np.repeat(np.arange(n_bands, dtype=np.int32), n)),
            "band_val": pa.array(vals.reshape(-1).astype(np.int64)),
        })

    def verify(b: pa.Table) -> pa.Table:
        x = np.bitwise_xor(b["simhash"].to_numpy(zero_copy_only=False),
                           b["simhash_r"].to_numpy(zero_copy_only=False))
        # vectorized popcount over the raw bytes
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
        t = pa.table({"a": b["a"], "b": b["b"], "truncated": b["truncated"],
                      "hamming": pa.array(ham.astype(np.int64))})
        return t.filter(pa.array(ham <= max_hamming))

    pairs = _lsh_pairs(sigs.map_batches(band_rows, batch_format="pyarrow"),
                       ["band", "band_val"], id_col, max_group)
    return _attach_pair_payload(pairs, sigs, id_col, verify)


def jaccard(a: str, b: str, n: int = 3, hash_family: str = "md5") -> float:
    sa = set(_token_hashes_family(a, n, hash_family).tolist())
    sb = set(_token_hashes_family(b, n, hash_family).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def _shingle_set(text: str, n: int) -> set[str]:
    toks = text.split()
    if len(toks) < n:
        return {text}
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def jaccard_exact(a: str, b: str, n: int = 3) -> float:
    """Word-n-gram Jaccard over EXACT shingle string sets (no hashing).

    The hashed :func:`jaccard` is the fast verify kernel (md5-low32 shingles);
    this variant is collision-free and bit-reproducible by any engine that
    forms the same shingle sets (the DuckDB oracle recomputes it exactly —
    intersection/union counts divided as IEEE doubles)."""
    sa, sb = _shingle_set(a, n), _shingle_set(b, n)
    return len(sa & sb) / len(sa | sb)


def ngram_jaccard_pairs(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    group_col: str | None = None,
    n: int = 3,
) -> Dataset:
    """n-gram Jaccard similarity for consecutive-id candidate pairs.

    Deterministic candidate generator: pair each document with ``id + 1``
    (within ``group_col`` when given) via a distributed self-join on a
    derived key — the linear-candidate shape (O(rows) pairs, no n²). The
    per-pair exact-set verify runs inside the join's cogroup batches, the
    same kernel placement as the MinHash verify stage. Output:
    (id_a, id_b, jaccard).
    """
    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.relational import bucketed_join

    extra = [group_col] if group_col else []

    def left(b: pa.Table) -> pa.Table:
        cols = {"k": b[id_col], "id_a": b[id_col], "text_a": b[text_col]}
        for c in extra:
            cols["ga_" + c] = b[c]
        return pa.table(cols)

    def right(b: pa.Table) -> pa.Table:
        cols = {"k": pc.add(b[id_col], -1), "id_b": b[id_col], "text_b": b[text_col]}
        for c in extra:
            cols["gb_" + c] = b[c]
        return pa.table(cols)

    joined = bucketed_join(
        ds.map_batches(left, batch_format="pyarrow"),
        ds.map_batches(right, batch_format="pyarrow"),
        on="k", how="inner",
    )

    def compute(b: pa.Table) -> pa.Table:
        for c in extra:
            b = b.filter(pc.equal(b["ga_" + c], b["gb_" + c]))
        js = [jaccard_exact(x, y, n) for x, y in
              zip(b["text_a"].to_pylist(), b["text_b"].to_pylist())]
        return pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                         "jaccard": pa.array(js, pa.float64())})

    return _pairs_or_typed_empty(joined.map_batches(compute, batch_format="pyarrow"),
                                 ds, id_col, ("id_a", "id_b"), ("jaccard", pa.float64()))


def exact_dup_clusters(ds: Dataset, *, id_col: str = "doc_id", text_col: str = "text") -> Dataset:
    """Exact dedup: (md5, n_dups, keeper=min id) per content-hash cluster.

    Hash-partition + per-group first — the A1 MERGE shuffle with a
    content-derived key.
    """
    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(
        lambda b: pa.table({id_col: b[id_col], "md5": md5_hex_array(b[text_col])}),
        batch_format="pyarrow",
    )
    return hashed.groupby("md5").aggregate(
        Count(alias_name="n_dups"), Min(id_col, alias_name="keeper")
    )


def minhash_near_dup_pairs(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle: int = 3,
    verify_threshold: float = 0.8,
    max_group: int = 200,
    hash_family: str = "fast",
) -> Dataset:
    """MinHash+LSH near-dup: candidate pairs verified by true Jaccard.

    Returns (a, b, truncated, jaccard) with a < b and jaccard ≥ threshold.

    Scale shape: signatures/bands are stateless batch work; candidates
    come from the (band, band_hash) keys of :func:`_lsh_pairs`
    (``max_group``-capped, truncation recorded); the suspects' texts reach
    the pairs through :func:`_attach_pair_payload` — broadcast while they
    fit a worker's budget, a bucketed shuffle beyond it, never a
    driver-side copy of the corpus.
    """
    bucket_rows = ds.map_batches(
        minhash_bands_batch_factory(
            num_perm=num_perm, bands=bands, shingle=shingle,
            id_col=id_col, text_col=text_col, hash_family=hash_family,
        ),
        batch_format="pyarrow",
    )

    def verify(batch: pa.Table) -> pa.Table:
        ta = batch[text_col].to_pylist()
        tb = batch[text_col + "_r"].to_pylist()
        js = [jaccard(x or "", y or "", shingle, hash_family)
              for x, y in zip(ta, tb)]
        t = pa.table(
            {"a": batch["a"], "b": batch["b"], "truncated": batch["truncated"],
             "jaccard": pa.array(js, pa.float64())}
        )
        return t.filter(pc.greater_equal(t["jaccard"], verify_threshold))

    pairs = _lsh_pairs(bucket_rows, ["band", "band_hash"], id_col, max_group)
    return _attach_pair_payload(pairs, ds.select_columns([id_col, text_col]),
                                id_col, verify)


def near_dup_clusters(pairs: Dataset, *, max_iter: int = 6) -> Dataset:
    """Verified pairs → (node, component) clusters via connected components."""

    def to_edges(b: pa.Table) -> pa.Table:
        return pa.table({"src": b["a"].cast(pa.string()), "dst": b["b"].cast(pa.string())})

    return connected_components(pairs.map_batches(to_edges, batch_format="pyarrow"), max_iter=max_iter)


def embedding_near_dup_pairs(
    ds: Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    n_planes: int = 8,
    n_tables: int = 4,
    seed: int = 11,
    max_group: int = 500,
) -> Dataset:
    """Embedding-cosine near-dup via MULTI-TABLE random-hyperplane LSH:
    (a, b, truncated, cosine) with a < b and cosine ≥ ``threshold``.

    One sign-bucket table misses any near-pair split by a single
    hyperplane (at cosine 0.97 a pair lands in the same 8-plane bucket only
    ~60% of the time — observed deterministically in tests). The standard
    fix is banding: ``n_tables`` independent plane sets, a pair is a
    candidate if it collides in ANY table (miss rate ≈ (1-p)^L). Only
    (id, table, bucket) rows cross the :func:`_lsh_pairs` shuffles
    (``max_group``-capped, truncation recorded); the vectors are the
    payload :func:`_attach_pair_payload` brings to each candidate pair,
    and the verify is a per-pair float32 cosine of the unit vectors.
    """
    first = ds.take(1)
    dim = len(first[0][vec_col]) if first else 0
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, dim, n_planes)) if dim else None
    powers = (np.uint32(1) << np.arange(n_planes, dtype=np.uint32))

    def matrix(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return flat.astype(np.float32).reshape(len(col), dim)

    def band_rows(b: pa.Table) -> pa.Table:
        vecs = matrix(b[vec_col])
        out = []
        for t in range(n_tables):
            signs = (vecs @ planes[t] > 0).astype(np.uint32)
            bucket = (signs * powers).sum(axis=1)
            out.append(
                pa.table(
                    {id_col: b[id_col],
                     "table": pa.array(np.full(len(vecs), t, np.int32)),
                     "bucket": pa.array(bucket.astype(np.int64))}
                )
            )
        return pa.concat_tables(out)

    def unit(col) -> np.ndarray:
        vecs = matrix(col)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vecs / norms

    def verify(b: pa.Table) -> pa.Table:
        cos = np.einsum("ij,ij->i", unit(b[vec_col]), unit(b[vec_col + "_r"]))
        t = pa.table({"a": b["a"], "b": b["b"], "truncated": b["truncated"],
                      "cosine": pa.array(cos.astype(np.float64))})
        return t.filter(pa.array(cos >= threshold))

    pairs = _lsh_pairs(ds.map_batches(band_rows, batch_format="pyarrow"),
                       ["table", "bucket"], id_col, max_group)
    return _attach_pair_payload(pairs, ds.select_columns([id_col, vec_col]),
                                id_col, verify)


def minhash_signature_rows(
    ds: Dataset, *, num_perm: int = 64, shingle: int = 3,
    id_col: str = "doc_id", text_col: str = "text",
    hash_family: str = "md5",
) -> Dataset:
    """docs → (id, perm, sig) unnested MinHash signature rows.

    The oracle-facing form of the MinHash family, so ``hash_family``
    defaults to ``"md5"``: md5-low32 shingles and 31-bit ``a`` keep every
    (a*x+b) product exact, so DuckDB can replay the identical
    universal-hash min per permutation (HUGEINT product, mod M61) —
    upgrading MinHash from rows-only/pytest-pinned to a bit-exact oracle
    check. Signature values < 2^61 fit int64. ``"fast"`` computes the
    same shape from the vectorized hash family (no SQL replay)."""
    hasher = MinHasher(num_perm)

    def fn(batch: pa.Table) -> pa.Table:
        ids, perms, sigs = [], [], []
        prange = np.arange(num_perm, dtype=np.int32)
        if hash_family == "fast" and batch.num_rows:
            h, off = _fast_shingle_hashes_flat(batch[text_col], shingle)
            sig = hasher.signatures_flat(h, off).astype(np.int64)
            n = batch.num_rows
            return pa.table(
                {id_col: batch[id_col].take(pa.array(
                    np.repeat(np.arange(n, dtype=np.int64), num_perm))),
                 "perm": pa.array(np.tile(prange, n)),
                 "sig": pa.array(sig.reshape(-1))}
            )
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            sig = hasher.signature(_token_hashes(t or "", shingle))
            ids.extend([i] * num_perm)
            perms.append(prange)
            sigs.append(sig.astype(np.int64))
        if not ids:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "perm": pa.array([], pa.int32()),
                             "sig": pa.array([], pa.int64())})
        return pa.table(
            {id_col: pa.array(ids),
             "perm": pa.array(np.concatenate(perms)),
             "sig": pa.array(np.concatenate(sigs))}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def dup_ngram_spans(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    w: int = 8,
    min_docs: int = 2,
    hash_family: str = "md5",
) -> Dataset:
    """Corpus-wide duplicated w-token span detection — the distributed
    n-gram-fingerprint analog of exact-substring training-data dedup
    (Lee et al. 2021's suffix-array ExactSubstr, as approximated by the
    big open curation pipelines): every w-token window of every document
    is fingerprinted; a fingerprint appearing in ≥ ``min_docs`` DISTINCT
    documents marks a repeated span (boilerplate, license blocks, mirrored
    paragraphs) that exact-doc and MinHash dedup both miss.

    Output: (fp, n_docs, min_doc) for qualifying fingerprints.

    Scale shape: window fingerprinting is stateless per-doc batch work
    (rows out ≈ tokens in — the known cost of the algorithm); per-doc
    distinctness is FREE (a doc's windows are deduped inside its own
    batch), so the single shuffle groups pre-reduced (fp, doc) incidence
    rows. ``hash_family="md5"`` (default — the oracle-facing form) keeps
    fingerprints md5-high-60-bit (int64-safe) so DuckDB replays them
    exactly (``('0x' || substr(md5(s),1,15))::UBIGINT``); ``"fast"`` is
    the vectorized rolling-hash family for production throughput (same
    output contract, no SQL replay).
    """
    import hashlib

    import pyarrow.compute as pc

    from code_graph_rag_ray.stages.tfidf import _TOKEN_SPLIT

    def fps_md5(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(b[text_col]), pattern=_TOKEN_SPLIT)
        ids_out: list[int] = []
        fp_out: list[int] = []
        for i, lst in zip(b[id_col].to_pylist(), toks.to_pylist()):
            tl = [t for t in (lst or []) if t]  # null text → no windows
            if len(tl) < w:
                continue
            seen: set[int] = set()
            for s in range(len(tl) - w + 1):
                h = int(hashlib.md5(" ".join(tl[s : s + w]).encode()).hexdigest()[:15], 16)
                seen.add(h)
            ids_out.extend([i] * len(seen))
            fp_out.extend(sorted(seen))
        return pa.table(
            {"fp": pa.array(fp_out, pa.int64()), id_col: pa.array(ids_out, pa.int64())}
        )

    def fps_fast(b: pa.Table) -> pa.Table:
        empty = pa.table({"fp": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        th, counts = _token_hashes_flat(pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(b[text_col], "")), pattern=_TOKEN_SPLIT))
        m = len(th) - (w - 1)
        if m <= 0 or not (counts >= w).any():
            return empty
        acc = th[:m].copy()
        for k in range(1, w):
            acc *= _MULT
            acc += th[k : k + m]
        # >>1 keeps fingerprints int64-positive like the md5-60-bit family
        acc = (_splitmix(acc) >> np.uint64(1)).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        nwin = np.maximum(counts - (w - 1), 0)
        doc_idx = np.repeat(np.arange(b.num_rows, dtype=np.int64), nwin)
        win_pos = (np.arange(int(nwin.sum()), dtype=np.int64)
                   - np.repeat(np.cumsum(nwin) - nwin, nwin))
        fps_all = acc[starts[doc_idx] + win_pos]
        ids_all = b[id_col].to_numpy(zero_copy_only=False)[doc_idx]
        # per-doc distinct: lexsort then first-occurrence mask (vectorized)
        order = np.lexsort((fps_all, ids_all))
        fa, ia = fps_all[order], ids_all[order]
        first = np.ones(len(fa), dtype=bool)
        first[1:] = (fa[1:] != fa[:-1]) | (ia[1:] != ia[:-1])
        return pa.table({"fp": pa.array(fa[first]),
                         id_col: pa.array(ia[first].astype(np.int64))})

    fps = fps_fast if hash_family == "fast" else fps_md5
    if hash_family not in ("fast", "md5"):
        raise ValueError(f"unknown hash_family {hash_family!r}")

    from code_graph_rag_ray.stages.relational import bucketed_groups

    # fingerprint cardinality ≈ corpus tokens, and Ray's sort-aggregate
    # pays a fixed per-GROUP cost that dominates there (NOTES fact 25):
    # one vectorized Arrow group_by per bucket instead — same single
    # shuffle, per-bucket cost O(rows) not O(groups)
    def agg_bucket(g: pa.Table) -> pa.Table:
        r = pa.TableGroupBy(g, "fp", use_threads=False).aggregate(
            [([], "count_all"), (id_col, "min")])
        r = r.filter(pc.greater_equal(r["count_all"], min_docs))
        return pa.table({"fp": r["fp"], "n_docs": r["count_all"],
                         "min_doc": r[f"{id_col}_min"]})

    return bucketed_groups(ds.map_batches(fps, batch_format="pyarrow"), "fp",
                           agg_bucket)


def _ed_le1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check in one pass (no DP table)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        seen = False
        for x, y in zip(a, b):
            if x != y:
                if seen:
                    return False
                seen = True
        return True
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def editdist1_pairs(
    ds: Dataset,
    *,
    col: str = "name",
    max_len: int = 64,
    max_group: int = 200,
    assume_distinct: bool = False,
) -> Dataset:
    """Edit-distance-≤1 similarity SELF-JOIN with EXACT recall — fuzzy
    entity-name dedup (typo'd aliases, off-by-one identifiers) without an
    n² comparison.

    Blocking is the 1-deletion neighborhood: each distinct string emits
    itself plus its length-L single-deletion variants as bucket keys; two
    strings within edit distance 1 (substitution, insertion, deletion, or
    equality) ALWAYS share a key — substitution at i ⇒ equal i-deletions;
    insertion/deletion ⇒ the shorter string is itself a deletion of the
    longer — so unlike MinHash this candidate generator misses nothing.
    False positives (e.g. transpositions sharing a deletion) are removed
    by the exact one-pass verify. Candidate buckets are tiny (strings
    sharing a deletion differ only at one position, ≤ alphabet size);
    ``max_group`` caps pathological buckets with the truncation recorded.

    Contract: strings longer than ``max_len`` are EXCLUDED (the
    neighborhood is O(length) rows per string — entity names, not
    documents); nulls are ignored. Output: (a, b, truncated) with a < b,
    edit distance exactly ≤ 1 (= 1 after the distinct step).

    cgr analog: the reference resolves near-miss names only via exact
    registry lookups (function_registry trie); this is the typo-tolerant
    candidate tier a web-scale alias table needs.
    """
    from code_graph_rag_ray.stages.materialize import exact_dedup

    nonnull = ds.select_columns([col]).map_batches(
        lambda b: b.filter(pc.is_valid(b[col])), batch_format="pyarrow")
    # assume_distinct skips one whole shuffle when the caller's column is
    # already unique (e.g. a key-derived name column)
    distinct = nonnull if assume_distinct else exact_dedup(
        nonnull, keys=[col], columns=[col])

    def keys(b: pa.Table) -> pa.Table:
        out_k: list[str] = []
        out_s: list[str] = []
        for s in b[col].to_pylist():
            if s is None or len(s) > max_len:
                continue
            out_k.append(s)
            out_s.append(s)
            for i in range(len(s)):
                out_k.append(s[:i] + s[i + 1:])
                out_s.append(s)
        return pa.table({"key": pa.array(out_k, pa.string()),
                         col: pa.array(out_s, b[col].type)})

    # deletion keys are HIGH-cardinality (≈ length × distinct strings):
    # bucketed candidate generation, never per-key groups (NOTES fact 25)
    cand = _lsh_pairs(distinct.map_batches(keys, batch_format="pyarrow"),
                      ["key"], col, max_group)

    def verify(b: pa.Table) -> pa.Table:
        ok = pa.array([_ed_le1(x, y) for x, y in
                       zip(b["a"].to_pylist(), b["b"].to_pylist())],
                      pa.bool_())
        return b.filter(ok)

    return _pairs_or_typed_empty(cand.map_batches(verify, batch_format="pyarrow"),
                                 ds, col, ("a", "b"), ("truncated", pa.bool_()))


def prefix_jaccard_join(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle: int = 5,
    tau: tuple[int, int] = (4, 5),
    max_group: int = 200,
) -> Dataset:
    """EXACT all-pairs shingle-set Jaccard join via PREFIX FILTERING — the
    deterministic ground-truth counterpart of the probabilistic
    MinHash+LSH op (same output contract, no recall loss).

    Prefix-filter lemma: order each document's distinct ``shingle``-token
    shingles by a fixed global total order (md5-low32 of the shingle,
    then the shingle — a frequency-agnostic order keeps the lemma intact;
    df-ascending order is only a candidate-count optimization); if
    J(x, y) ≥ τ then x and y share at least one of their first
    ``n − ceil(τ·n) + 1`` shingles. So emitting ONLY that prefix (as its
    32-bit hash — collisions merely merge candidate groups, never drop a
    true pair) and pairing within equal prefix elements is complete; the
    exact per-pair verify then removes false candidates.

    Scale shape identical to :func:`minhash_near_dup_pairs`: prefix rows
    are stateless batch work, candidates come from :func:`_lsh_pairs`
    keyed by prefix hash (``max_group``-capped with recorded truncation —
    the cap is the ONLY exactness caveat and only binds under adversarial
    hot shingles), texts reach pairs via :func:`_attach_pair_payload`, and
    the integer (inter, uni) verify runs on the joined batches. τ is a
    rational (num, den) so the threshold compare is pure integer —
    bit-exact against a brute-force SQL oracle.
    """
    import hashlib

    num, den = tau

    def prefix_rows(b: pa.Table) -> pa.Table:
        ids, ph = [], []
        hcache: dict[str, int] = {}

        def h(x: str) -> int:
            # md5-low32 — the same auditable convention as
            # functions/hashing.md5_low32_array, scalar-cached per batch
            v = hcache.get(x)
            if v is None:
                v = int.from_bytes(hashlib.md5(x.encode()).digest()[:4], "big")
                hcache[x] = v
            return v

        for rid, txt in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            s = _shingle_set(txt or "", shingle)
            nsh = len(s)
            if nsh == 0:
                continue
            p = nsh - ((num * nsh + den - 1) // den) + 1
            ordered = sorted(s, key=lambda x: (h(x), x))
            for x in ordered[:p]:
                ids.append(rid)
                ph.append(h(x))
        # ids keep the input dtype (string doc ids work — same
        # generalization as packing.chunk_documents)
        return pa.table({id_col: pa.array(ids, b[id_col].type),
                         "ph": pa.array(ph, pa.int64())})

    def verify(batch: pa.Table) -> pa.Table:
        inter_l, uni_l = [], []
        for x, y in zip(batch[text_col].to_pylist(),
                        batch[text_col + "_r"].to_pylist()):
            sa, sb = _shingle_set(x or "", shingle), _shingle_set(y or "", shingle)
            i = len(sa & sb)
            inter_l.append(i)
            uni_l.append(len(sa) + len(sb) - i)
        t = pa.table(
            {"a": batch["a"], "b": batch["b"], "truncated": batch["truncated"],
             "inter": pa.array(inter_l, pa.int64()),
             "uni": pa.array(uni_l, pa.int64())}
        )
        keep = pc.greater_equal(
            pc.multiply(t["inter"], pa.scalar(den, pa.int64())),
            pc.multiply(t["uni"], pa.scalar(num, pa.int64())),
        )
        return t.filter(keep)

    pairs = _lsh_pairs(ds.map_batches(prefix_rows, batch_format="pyarrow"),
                       ["ph"], id_col, max_group)
    return _attach_pair_payload(pairs, ds.select_columns([id_col, text_col]),
                                id_col, verify)


def minhash_dedup_apply(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    shingle: int = 3,
    verify_threshold: float = 0.8,
    max_group: int = 200,
    hash_family: str = "fast",
) -> Dataset:
    """End-to-end MinHash dedup APPLICATION: pairs → clusters → keep flag.

    The detection ops (``minhash_near_dup_pairs``) answer "which documents
    are near-duplicates?"; this operator answers the question a training
    pipeline actually asks — "which ROWS survive?". Per near-dup cluster
    the NUMERICALLY smallest id wins (content/id-determined, so the result
    is independent of block layout and parallelism); every other cluster
    member is dropped. Output is one row per input document:
    ``(id_col, keep bool)``.

    Scale shape: pairs come from the distributed LSH pipeline; clusters
    from pointer-jumping CC over the pair edges (ids are zero-padded to
    make the CC's min-STRING label equal the min-NUMERIC id — no extra
    keeper groupby); the drop set flows back to the corpus through a
    bucketed left join, never a driver-side set. Reference analog: the
    MERGE-on-qualified-name node dedup (graph_updater.py:1483-1520), which
    is exact-key only — near-dup apply is the web-corpus generalization.
    """
    from code_graph_rag_ray.stages.relational import bucketed_join

    pairs = minhash_near_dup_pairs(
        ds, id_col=id_col, text_col=text_col, num_perm=num_perm,
        bands=bands, shingle=shingle, verify_threshold=verify_threshold,
        max_group=max_group, hash_family=hash_family,
    )

    # zero-pad ids so the CC min-label IS the numeric min (ids are
    # non-negative int64: 19 digits suffice)
    def to_edges(b: pa.Table) -> pa.Table:
        pad = 19
        return pa.table({
            "src": pc.utf8_lpad(pc.cast(b["a"], pa.string()), pad, "0"),
            "dst": pc.utf8_lpad(pc.cast(b["b"], pa.string()), pad, "0"),
        })

    comp = connected_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"), "src", "dst"
    )

    def non_keepers(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b["node"], b["component"]))
        return pa.table({
            id_col: pc.cast(t["node"], pa.int64()),
            "__dup": pa.array([1] * t.num_rows, pa.int8()),
        })

    dropped = comp.map_batches(non_keepers, batch_format="pyarrow").materialize()
    docs = ds.select_columns([id_col])
    if dropped.count() == 0:
        return docs.map_batches(
            lambda b: pa.table(
                {id_col: b[id_col],
                 "keep": pa.array([True] * b.num_rows, pa.bool_())}
            ),
            batch_format="pyarrow",
        )
    joined = bucketed_join(docs, dropped, on=id_col, how="left")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({id_col: b[id_col],
                         "keep": pc.is_null(b["__dup"])})

    return joined.map_batches(finish, batch_format="pyarrow")


def semantic_dedup(
    ds: Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int | None = 8,
    iters: int = 2,
    scale: int = 1000,
    threshold_num: int = 9,
    threshold_den: int = 10,
    max_group: int = 4096,
    target_cluster_size: int = 1024,
) -> Dataset:
    """SemDeDup-style semantic dedup: k-means bucketing, then exact
    within-cluster cosine; a row is dropped when a LOWER-id row in the
    same cluster has cosine ≥ threshold_num/threshold_den.

    All arithmetic is integer-exact on the k-means quantization lattice
    (``round(x*scale)``): the cosine test ``cos ≥ n/d`` is evaluated as
    ``dot > 0 AND dot²·d² ≥ n²·‖a‖²·‖b‖²`` in unbounded Python ints, so
    the result is bit-replayable by a DuckDB HUGEINT oracle and invariant
    to block layout (greedy SemDeDup with deterministic id order replaces
    the paper's RNG-seeded keep policy).

    Scale shape: clustering is the fixed-point distributed k-means
    (broadcast centroid matrix, two-phase update); the pairwise stage
    runs one ``relational.bucketed_groups`` bucket of clusters at a time,
    its quadratic work confined to one cluster — ``max_group`` caps
    degenerate clusters (rows ranked by id beyond the cap skip the
    pairwise check and survive with ``truncated=true``, the same
    recorded-truncation discipline as the LSH band cap). Reference
    analog: semantic grouping is absent from the reference (exact MERGE
    only); this is the embedding-space member of
    the near-dup family (SemDeDup, Abbas et al. 2023, arXiv:2303.09540).

    **k-sizing rule**: the within-cluster pairwise stage is O(cluster²),
    so k must GROW with the corpus — pass ``k=None`` and k is derived as
    ``ceil(n / target_cluster_size)`` from one streaming count (the
    SemDeDup paper's n/expected-cluster-size sizing; at 10^10 docs and
    target 1024 that is ~10^7 clusters, all distributed state). The
    default k=8 is a FIXTURE-SCALE setting (540 vectors → ~64/cluster)
    and must not ship to a 100 TB run; ``keep``/``truncated`` flags are
    exact at any k, only the recall/cost trade moves.
    """
    from code_graph_rag_ray.stages.clustering import _quantize, kmeans_train
    from code_graph_rag_ray.stages.relational import _runs, bucketed_groups, run_starts

    if k is None:
        n = ds.count()
        k = max(1, -(-n // target_cluster_size))

    cent_ids, cent = kmeans_train(
        ds, k=k, iters=iters, scale=scale, id_col=id_col, vec_col=vec_col
    )

    def assign(b: pa.Table) -> pa.Table:
        q = _quantize(b[vec_col], scale)
        if q.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "qv": pa.array([], pa.list_(pa.int64()))})
        qq = (q * q).sum(axis=1)[:, None]
        cc = (cent * cent).sum(axis=1)[None, :]
        d = qq + cc - 2 * (q @ cent.T)
        j = np.argmin(d, axis=1)  # first min = smallest cluster id
        return pa.table({
            id_col: b[id_col],
            "cluster": pa.array(cent_ids[j].astype(np.int64)),
            "qv": pa.array(list(q), pa.list_(pa.int64())),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    n2, d2 = threshold_num * threshold_num, threshold_den * threshold_den

    def pairwise(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[("cluster", "ascending"),
                                                  (id_col, "ascending")]))
        starts, lens, pos = _runs(run_starts(g, ["cluster"]))
        qv = g["qv"].combine_chunks()
        qm = qv.flatten().to_numpy(zero_copy_only=False).reshape(len(qv), -1)
        keep = np.ones(g.num_rows, dtype=bool)
        for s, m in zip(starts, lens):
            head = min(m, max_group)
            q = qm[s:s + head].astype(object)
            dot = q @ q.T  # object ints: overflow-proof exact arithmetic
            norms = np.diag(dot).copy()
            # dropped iff ANY lower-id row (row index < col index after the
            # id sort) clears the threshold — a plain EXISTS, replayed 1:1
            # in SQL
            mask = np.asarray(
                (dot > 0) & (dot * dot * d2 >= n2 * np.outer(norms, norms)),
                dtype=bool,
            )
            keep[s:s + head] = ~np.triu(mask, 1).any(axis=0)
        return pa.table({id_col: g[id_col], "cluster": g["cluster"],
                         "keep": pa.array(keep),
                         "truncated": pa.array(pos >= max_group)})

    return bucketed_groups(assigned, "cluster", pairwise)


def dup_span_apply(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    w: int = 8,
    min_docs: int = 2,
    hash_family: str = "md5",
) -> Dataset:
    """The APPLY step of duplicated-span dedup (ExactSubstr analog, Lee
    et al. 2021): every w-token window whose fingerprint appears in ≥
    ``min_docs`` DISTINCT documents is cut from every document EXCEPT the
    numerically smallest one that contains it (keep-one semantics); each
    document is rebuilt from its surviving tokens.

    Output: one row per input document — ``(id_col, clean_text,
    n_removed)`` where ``clean_text`` is the kept tokens of the
    lowercase/alnum token stream joined by single spaces (the normalized
    form shared with ``dup_ngram_spans``) and ``n_removed`` counts masked
    token positions.

    Scale shape: ONE fp-keyed ``relational.bucketed_groups`` shuffle
    serves both detection and the cover join (the per-bucket pass counts
    distinct docs per fp AND selects the covered position rows it already
    holds — NOTES fact 25 discipline, never per-fp groups); the masked
    positions then ride a doc-keyed bucketed_groups collect and a
    bucketed left join back to the corpus, and rebuild re-tokenizes
    locally. Every exchange is O(windows), never O(corpus²).
    """
    import hashlib

    from code_graph_rag_ray.stages.relational import (
        _join_runs,
        bucketed_groups,
        bucketed_join,
        run_starts,
    )
    from code_graph_rag_ray.stages.tfidf import _TOKEN_SPLIT

    if hash_family != "md5":
        raise ValueError("dup_span_apply is oracle-facing: md5 family only")

    def fps_pos(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(b[text_col], "")),
                                      pattern=_TOKEN_SPLIT)
        ids_out: list[int] = []
        pos_out: list[int] = []
        fp_out: list[int] = []
        for i, lst in zip(b[id_col].to_pylist(), toks.to_pylist()):
            tl = [t for t in (lst or []) if t]
            for s in range(len(tl) - w + 1):
                h = int(hashlib.md5(
                    " ".join(tl[s:s + w]).encode()).hexdigest()[:15], 16)
                ids_out.append(i)
                pos_out.append(s)
                fp_out.append(h)
        return pa.table({"fp": pa.array(fp_out, pa.int64()),
                         id_col: pa.array(ids_out, pa.int64()),
                         "pos": pa.array(pos_out, pa.int64())})

    def cover_in_bucket(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[("fp", "ascending"),
                                                  (id_col, "ascending")]))
        fp_first = run_starts(g, ["fp"])
        gid = np.cumsum(fp_first) - 1
        # distinct docs per fp, and its smallest doc (sorted first)
        n_docs = np.bincount(gid, weights=run_starts(g, ["fp", id_col]))
        ids = np.asarray(g[id_col].to_numpy(zero_copy_only=False), np.int64)
        min_doc = ids[np.flatnonzero(fp_first)][gid]
        keep = (n_docs[gid] >= min_docs) & (ids != min_doc)
        return pa.table({id_col: pa.array(ids[keep]),
                         "pos": g["pos"].filter(pa.array(keep))})

    def collect_per_doc(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[(id_col, "ascending"),
                                                  ("pos", "ascending")]))
        starts = np.flatnonzero(run_starts(g, [id_col]))
        return pa.table({id_col: g[id_col].take(starts),
                         "starts": _join_runs(g, starts, "pos", ",")})

    cover = bucketed_groups(ds.map_batches(fps_pos, batch_format="pyarrow"),
                            "fp", cover_in_bucket)
    starts_per_doc = bucketed_groups(cover, id_col, collect_per_doc)

    # starts_per_doc has a groupby upstream: pass its schema so the join's
    # probe doesn't execute the whole plan twice (NOTES fact 22)
    joined = bucketed_join(
        ds.select_columns([id_col, text_col]), starts_per_doc,
        on=id_col, how="left",
        right_schema=pa.schema([(id_col, pa.int64()),
                                ("starts", pa.string())]),
    )

    def rebuild(b: pa.Table) -> pa.Table:
        ids, texts = b[id_col].to_pylist(), b[text_col].to_pylist()
        starts_col = b["starts"].to_pylist()
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(b[text_col], "")), pattern=_TOKEN_SPLIT
        ).to_pylist()
        clean_out: list[str] = []
        nrem_out: list[int] = []
        for lst, starts in zip(toks, starts_col):
            tl = [t for t in (lst or []) if t]
            mask = np.zeros(len(tl), dtype=bool)
            if starts:
                for s in starts.split(","):
                    p = int(s)
                    mask[p:p + w] = True
            clean_out.append(" ".join(t for t, m in zip(tl, mask) if not m))
            nrem_out.append(int(mask.sum()))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "clean_text": pa.array(clean_out, pa.string()),
                         "n_removed": pa.array(nrem_out, pa.int64())})

    return joined.map_batches(rebuild, batch_format="pyarrow")
