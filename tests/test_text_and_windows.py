"""Text-analysis, window, multimodal and lineage unit tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.multimodal import decode_media, make_fake_media_table
from code_graph_rag_ray.stages.text_analysis import (
    LangId,
    fingerprint_batch,
    quality_batch,
    token_stats_batch,
)
from code_graph_rag_ray.stages.windows import (
    session_windows_chunked,
    tumbling_window_agg,
)


def test_token_stats():
    b = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["ab cd, ef"])})
    r = token_stats_batch(b).to_pylist()[0]
    assert r["n_tokens"] == 3  # whitespace tokens: 'ab' 'cd,' 'ef'
    assert r["n_bpe_tokens"] == 4  # ab, cd, ',', ef
    assert r["n_chars_text"] == 9


def test_quality_monotone_in_length():
    short = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array(["spark join"])})
    long = pa.table(
        {"doc_id": pa.array([2], pa.int64()), "text": pa.array([" ".join(["spark"] * 60)])}
    )
    qs = quality_batch(short).to_pylist()[0]["quality"]
    ql = quality_batch(long).to_pylist()[0]["quality"]
    assert ql > qs


def test_lang_id_heuristic():
    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "the cat and the dog sat in a house that is warm",
                    "le chat et le chien est dans la maison",
                    "der Hund und die Katze ist nicht hier",
                    "这是一个中文句子",
                ]
            ),
        }
    )
    out = LangId()(b).to_pylist()
    assert [r["lang_pred"] for r in out] == ["en", "fr", "de", "zh"]


def test_fingerprint_deterministic():
    b = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array([" ".join(f"w{i}" for i in range(20))])})
    a1 = fingerprint_batch(b).to_pylist()
    a2 = fingerprint_batch(b).to_pylist()
    assert a1 == a2
    assert len(a1[0]["md5"]) == 32


def test_tumbling_window_epoch_alignment():
    rows = [
        {"ts": pd.Timestamp("2024-01-01 00:10:00"), "event_type": "a", "value": 1.0},
        {"ts": pd.Timestamp("2024-01-01 00:50:00"), "event_type": "a", "value": 2.0},
        {"ts": pd.Timestamp("2024-01-01 01:10:00"), "event_type": "a", "value": 4.0},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = tumbling_window_agg(ds, window_s=3600).to_pandas().sort_values("window_start")
    assert out.n_events.tolist() == [2, 1]
    assert out.sum_value.tolist() == [3.0, 4.0]
    assert out.window_start.tolist() == [1704067200, 1704070800]


def _gap_sessions(df: pd.DataFrame, gap_s: int) -> pd.DataFrame:
    """DuckDB reference: a user's events sorted by ts split where the gap
    to the previous event exceeds ``gap_s`` at µs precision; bounds are
    floored to epoch seconds."""
    import duckdb

    con = duckdb.connect()
    con.register("ev", df)
    return con.execute(f"""
        WITH t AS (
          SELECT user_id, epoch_us(ts) AS us,
                 coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER (
                   PARTITION BY user_id ORDER BY ts) > {gap_s} * 1000000,
                   true) AS new
          FROM ev),
        s AS (
          SELECT user_id, us, sum(new::INT) OVER (
                   PARTITION BY user_id ORDER BY us
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
          FROM t)
        SELECT user_id, min(us) // 1000000 AS session_start,
               max(us) // 1000000 AS session_end, count(*) AS n_events
        FROM s GROUP BY user_id, sid""").df()


def test_session_windows_gap_split():
    t0 = pd.Timestamp("2024-01-01 00:00:00")
    rows = [
        {"user_id": 1, "ts": t0},
        {"user_id": 1, "ts": t0 + pd.Timedelta(minutes=10)},
        {"user_id": 1, "ts": t0 + pd.Timedelta(minutes=70)},  # > 30min gap → new
        {"user_id": 2, "ts": t0},
    ]
    df = pd.DataFrame(rows)
    out = session_windows_chunked(rd.from_pandas(df), gap_s=1800).to_pandas()
    u1 = out[out.user_id == 1].sort_values("session_start")
    assert u1.n_events.tolist() == [2, 1]
    assert len(out[out.user_id == 2]) == 1
    assert _norm_sessions(out) == _norm_sessions(_gap_sessions(df, 1800))


def _norm_sessions(df):
    return sorted(map(tuple, df[["user_id", "session_start", "session_end",
                                 "n_events"]].itertuples(index=False)))


def test_session_windows_chunked_equals_plain_across_boundaries():
    """Two-phase (skew-safe) sessionization is bit-identical to the plain
    gap-session query, including sessions that straddle one or MANY chunk
    boundaries (chained merges) and events exactly on a boundary."""
    rng = np.random.default_rng(7)
    base = 1_704_067_200  # 2024-01-01, a multiple of 3600
    rows = []
    # random users with random gaps
    for u in range(8):
        t = base + int(rng.integers(86_400))
        for _ in range(60):
            t += int(rng.integers(4000))  # gaps straddle the 1800s threshold
            rows.append({"user_id": u, "ts": pd.Timestamp(t, unit="s")})
    # a session spanning MANY chunks: events every 1000s for 5 hours, with
    # chunk_s=3600 → ~18 boundary crossings, all within-gap → ONE session
    t = base + 500
    for _ in range(18):
        t += 1000
        rows.append({"user_id": 99, "ts": pd.Timestamp(t, unit="s")})
    # an event exactly on a chunk boundary
    rows.append({"user_id": 98, "ts": pd.Timestamp(base + 3600, unit="s")})
    rows.append({"user_id": 98, "ts": pd.Timestamp(base + 3600 + 1800, unit="s")})
    df = pd.DataFrame(rows)

    plain = _gap_sessions(df, 1800)
    chunked = session_windows_chunked(
        rd.from_pandas(df), gap_s=1800, chunk_s=3600
    ).to_pandas()
    assert _norm_sessions(chunked) == _norm_sessions(plain)
    u99 = chunked[chunked.user_id == 99]
    assert len(u99) == 1 and u99.iloc[0].n_events == 18  # chained merge


def test_session_windows_chunked_whale_user_splits_groups():
    """The whale key's events must spread over many phase-1 groups (the
    scale argument), while output matches the plain gap-session query."""
    base = 1_704_067_200
    rows = [{"user_id": 0, "ts": pd.Timestamp(base + i * 2000, unit="s")}
            for i in range(500)]  # gaps 2000s > 1800s → 500 sessions
    rows += [{"user_id": 1, "ts": pd.Timestamp(base + 100, unit="s")}]
    df = pd.DataFrame(rows)
    chunked = session_windows_chunked(
        rd.from_pandas(df), gap_s=1800, chunk_s=7200
    ).to_pandas()
    plain = _gap_sessions(df, 1800)
    assert _norm_sessions(chunked) == _norm_sessions(plain)
    assert len(chunked[chunked.user_id == 0]) == 500


def test_multimodal_decode_plumbing():
    tbl = make_fake_media_table(32)
    ds = rd.from_arrow(tbl)
    out = decode_media(ds, decoder="fake").to_pandas()
    assert len(out) == 32
    assert set(out.columns) == {"media_id", "kind", "feature", "payload_bytes"}
    assert all(len(f) == 8 for f in out.feature)
    # deterministic per payload
    out2 = decode_media(rd.from_arrow(tbl), decoder="fake").to_pandas()
    a = out.sort_values("media_id").feature.tolist()
    b = out2.sort_values("media_id").feature.tolist()
    assert all(list(x) == list(y) for x, y in zip(a, b))


def test_multimodal_real_decoder_gated():
    """The real kernels are IMPORT-gated: in this container (PIL / PyAV /
    sentence_transformers absent) construction raises NotImplementedError
    from the ImportError handler — that handler is the ONLY unreal path;
    with the libs present the same constructors wire the real decode."""
    import pytest

    from code_graph_rag_ray.stages.embedding import SentenceModelEmbedder
    from code_graph_rag_ray.stages.multimodal import (
        FrameSampler,
        ImageResizer,
        MediaDecoder,
    )

    for ctor in (lambda: MediaDecoder(decoder="pil"),
                 lambda: FrameSampler(decoder="pyav"),
                 lambda: ImageResizer(decoder="pil"),
                 lambda: SentenceModelEmbedder()):
        with pytest.raises(NotImplementedError):
            ctor()

    # unknown names are a ValueError, not a gate
    with pytest.raises(ValueError):
        MediaDecoder(decoder="nope")


def test_embed_documents_embedder_switch():
    import pytest
    import ray.data as rd

    from code_graph_rag_ray.stages.embedding import embed_documents

    ds = rd.from_arrow(pa.table({"doc_id": pa.array([1], pa.int64()),
                                 "text": pa.array(["hello world"])}))
    with pytest.raises(ValueError):
        embed_documents(ds, embedder="nope")
    out = embed_documents(ds, concurrency=None).take_all()
    assert len(out) == 1 and len(out[0]["embedding"]) == 64


def test_repetition_batch_planted():
    from code_graph_rag_ray.stages.text_analysis import repetition_batch

    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a a a a a a a a a b",          # one whale unigram
                    "alpha beta gamma delta eps",    # all distinct
                    "x y  x y",                      # double space -> empty token dropped
                ]
            ),
        }
    )
    r = {
        row["doc_id"]: row
        for row in repetition_batch(
            b, top_frac_max=0.5, dup_frac_max=0.85
        ).to_pylist()
    }
    assert r[1]["n_words"] == 10 and r[1]["top_term_n"] == 9
    assert r[1]["top_term_frac"] == 0.9 and r[1]["repetitive"]
    assert r[2]["n_distinct"] == 5 and r[2]["dup_word_frac"] == 0.0
    assert not r[2]["repetitive"]
    assert r[3]["n_words"] == 4 and r[3]["n_distinct"] == 2
    assert r[3]["dup_word_frac"] == 0.5


def test_repetition_batch_composition_invariant():
    """Per-row outputs must not depend on batch composition."""
    from code_graph_rag_ray.stages.text_analysis import repetition_batch

    texts = ["q w e r t", "q q q q", "solo", "m n m n m n"]
    b = pa.table(
        {"doc_id": pa.array(range(4), pa.int64()), "text": pa.array(texts)}
    )
    whole = repetition_batch(b).to_pylist()
    singles = [repetition_batch(b.slice(i, 1)).to_pylist()[0] for i in range(4)]
    assert whole == singles


def test_hopping_window_membership():
    from code_graph_rag_ray.stages.windows import hopping_window_agg

    # event at t=3700s with 3600s window / 900s hop lands in starts
    # {900, 1800, 2700, 3600}; event at t=100 in {-3500.. step 900} ∩ (t-size, t]
    ts = pd.to_datetime([3700, 100], unit="s")
    df = pd.DataFrame({"ts": ts, "event_type": ["a", "a"], "value": [1.0, 1.0]})
    out = (
        hopping_window_agg(rd.from_pandas(df), window_s=3600, hop_s=900)
        .to_pandas()
        .sort_values("window_start")
    )
    got = {int(r.window_start): int(r.n_events) for r in out.itertuples()}
    # t=100 covers starts {-2700,-1800,-900,0}; t=3700 covers {900..3600}
    assert got == {w: 1 for w in (-2700, -1800, -900, 0, 900, 1800, 2700, 3600)}


def test_sliding_time_sum_boundaries_and_peers():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import sliding_time_sum

    # timestamps in µs; window = 10 s, chunk = 10 s → windows cross chunks
    w_us = 10_000_000
    rows = []
    # user 1: events at t=1,9,11,21 s (11 sees 1? no: 11-10=1 inclusive → yes)
    for i, t in enumerate([1, 9, 11, 21]):
        rows.append({"event_id": i, "ts": t * 1_000_000, "user_id": 1, "v": 10 + i})
    # user 2: equal-ts peers at t=15 (both include each other, RANGE semantics)
    rows.append({"event_id": 10, "ts": 15_000_000, "user_id": 2, "v": 1})
    rows.append({"event_id": 11, "ts": 15_000_000, "user_id": 2, "v": 2})
    tbl = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
        "v": pa.array([r["v"] for r in rows], pa.int64()),
    })
    ds = rd.from_arrow(tbl).repartition(3)
    out = sliding_time_sum(ds, value_col="v", window_s=10)
    got = {r["event_id"]: (r["w_sum"], r["w_n"]) for r in out.take_all()}
    # brute-force reference
    want = {}
    for r in rows:
        s = sum(q["v"] for q in rows
                if q["user_id"] == r["user_id"]
                and r["ts"] - 10_000_000 <= q["ts"] <= r["ts"])
        n = sum(1 for q in rows
                if q["user_id"] == r["user_id"]
                and r["ts"] - 10_000_000 <= q["ts"] <= r["ts"])
        want[r["event_id"]] = (s, n)
    assert got == want
    # the t=11 event (chunk 1) must see the t=1 and t=9 events from chunk 0
    assert got[2] == (10 + 11 + 12, 3)
    assert got[10] == (3, 2) and got[11] == (3, 2)


def test_running_total_per_key_chunks_peers_and_whale():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import running_total_per_key

    rows = []
    # user 1: events across 4 day-chunks (chunk_s=10 s here), incl. equal-ts
    # peers inside one chunk and a chunk with several events
    ts_list = [1, 2, 2, 9, 11, 25, 31, 31, 38]
    for i, t in enumerate(ts_list):
        rows.append({"event_id": i, "ts": t * 1_000_000, "user_id": 1, "v": i + 1})
    # user 2: whale with 50 events spread over many chunks
    for j in range(50):
        rows.append(
            {"event_id": 100 + j, "ts": j * 3_000_000, "user_id": 2, "v": 2 * j + 1}
        )
    tbl = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
        "v": pa.array([r["v"] for r in rows], pa.int64()),
    })
    ds = rd.from_arrow(tbl).repartition(5)
    out = running_total_per_key(ds, value_col="v", chunk_s=10)
    got = {r["event_id"]: r["run"] for r in out.take_all()}
    assert len(got) == len(rows)
    # brute-force RANGE-frame reference: sum of all same-user v with ts' <= ts
    for r in rows:
        want = sum(
            q["v"] for q in rows
            if q["user_id"] == r["user_id"] and q["ts"] <= r["ts"]
        )
        assert got[r["event_id"]] == want, r
    # equal-ts peers share the running value (RANGE, not ROWS, semantics)
    assert got[1] == got[2] == 1 + 2 + 3


def test_frame_sampler_policy_and_determinism():
    import ray.data as rd

    from code_graph_rag_ray.stages.multimodal import (
        FrameSampler,
        make_fake_media_table,
        sample_frames,
    )

    tbl = make_fake_media_table(48, seed=9)
    ds = rd.from_arrow(tbl).repartition(4)
    out = sample_frames(ds, every_ms=1000, max_frames=16).to_pandas()
    vids = {r["media_id"]: int(r["duration_ms"])
            for r in tbl.to_pylist() if r["kind"] == "video"}
    # only video rows emit frames; every video with duration > 0 appears
    assert set(out["media_id"]) == {m for m, d in vids.items() if d > 0}
    per = out.groupby("media_id")
    for mid, g in per:
        dur = vids[mid]
        expect = FrameSampler(every_ms=1000, max_frames=16).sample_times(dur)
        assert list(g.sort_values("frame_idx")["ts_ms"]) == expect
        assert len(g) <= 16
        assert all(0 <= t < dur for t in g["ts_ms"])
    # deterministic across runs/partitionings
    out2 = sample_frames(rd.from_arrow(tbl).repartition(7),
                         every_ms=1000, max_frames=16).to_pandas()
    a = out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    b = out2.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)
    assert a[["media_id", "frame_idx", "ts_ms"]].equals(
        b[["media_id", "frame_idx", "ts_ms"]])
    assert a["frame_feature"].map(tuple).equals(b["frame_feature"].map(tuple))


def _lag_rows():
    rows = []
    # user 1: events spanning chunks (chunk_s=10), incl. an EMPTY middle
    # chunk (t jumps 9 -> 35) and equal-ts peers disambiguated by id
    for i, t in enumerate([1, 5, 5, 9, 35, 47]):
        rows.append({"event_id": i, "ts": t * 1_000_000, "user_id": 1, "v": 10 + i})
    # user 2: single event (no carry either way: -1)
    rows.append({"event_id": 100, "ts": 3_000_000, "user_id": 2, "v": 7})
    # user 3: values above 2**53 (no float64 holds them) carried across
    # the chunk-0/chunk-1 boundary, next to user 2's missing carry
    for i, (t, v) in enumerate([(2, 2**53 + 1), (12, 2**53 + 3), (13, 5)]):
        rows.append({"event_id": 200 + i, "ts": t * 1_000_000, "user_id": 3, "v": v})
    tbl = pa.table({
        "event_id": pa.array([r["event_id"] for r in rows], pa.int64()),
        "ts": pa.array([r["ts"] for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
        "v": pa.array([r["v"] for r in rows], pa.int64()),
    })
    return rows, tbl


def _brute_lag(rows, lead):
    # reference lag/lead ordered by (ts, id) per user; -1 at the key edge
    want = {}
    for u in {r["user_id"] for r in rows}:
        ordered = sorted([r for r in rows if r["user_id"] == u],
                         key=lambda r: (r["ts"], r["event_id"]))
        if lead:
            ordered = ordered[::-1]
        want[ordered[0]["event_id"]] = -1
        for prev, cur in zip(ordered, ordered[1:]):
            want[cur["event_id"]] = prev["v"]
    return want


def test_lag_per_key_cross_chunk_and_ties():
    from code_graph_rag_ray.stages.windows import lag_per_key

    rows, tbl = _lag_rows()
    ds = lag_per_key(rd.from_arrow(tbl).repartition(4), value_col="v", chunk_s=10)
    out = {r["event_id"]: r["prev"] for r in ds.take_all()}
    assert out == _brute_lag(rows, lead=False)
    # the cross-empty-chunk carry: event 4 (t=35) must see event 3 (t=9)
    assert out[4] == 13
    # the int64 carry stays exact: 2**53 + 1 is not 2**53
    assert out[201] == 2**53 + 1 and ds.schema().base_schema.field("prev").type == pa.int64()


def test_lead_per_key_mirrors_lag():
    from code_graph_rag_ray.stages.windows import lag_per_key

    rows, tbl = _lag_rows()
    ds = lag_per_key(rd.from_arrow(tbl).repartition(4), value_col="v",
                     chunk_s=10, direction="lead")
    out = {r["event_id"]: r["next"] for r in ds.take_all()}
    assert out == _brute_lag(rows, lead=True)
    # cross-empty-chunk lead: event 3 (t=9) must see event 4 (t=35)
    assert out[3] == 14
    assert out[200] == 2**53 + 3 and ds.schema().base_schema.field("next").type == pa.int64()


def test_chunked_window_ops_reject_null_values():
    # a null value would come back as INT64_MIN; it must raise instead
    import pytest

    from code_graph_rag_ray.stages.windows import (
        lag_per_key,
        running_total_per_key,
        sliding_time_sum,
    )

    _, tbl = _lag_rows()
    tbl = tbl.set_column(3, "v", pa.array([None] + tbl["v"].to_pylist()[1:], pa.int64()))
    for op, kw in ((lag_per_key, {"chunk_s": 10}),
                   (running_total_per_key, {"chunk_s": 10}),
                   (sliding_time_sum, {"window_s": 10})):
        with pytest.raises(Exception, match="null value"):
            op(rd.from_arrow(tbl), value_col="v", **kw).take_all()


def test_image_resizer_policy_and_thumb_size():
    import ray.data as rd

    from code_graph_rag_ray.stages.multimodal import (
        ImageResizer,
        make_fake_media_table,
        resize_images,
    )

    r = ImageResizer(max_side=64)
    assert r.target_size(1920, 1080) == (64, 36)
    assert r.target_size(1080, 1920) == (36, 64)
    assert r.target_size(50, 40) == (50, 40)      # never upscale
    assert r.target_size(10000, 3) == (64, 1)     # extreme aspect floors to 1
    assert r.target_size(0, 100) == (0, 0)

    tbl = make_fake_media_table(48, seed=11)
    out = resize_images(rd.from_arrow(tbl).repartition(4), max_side=64).to_pandas()
    imgs = {r["media_id"]: r for r in tbl.to_pylist() if r["kind"] == "image"}
    assert set(out["media_id"]) == set(imgs)
    for _, row in out.iterrows():
        w, h = imgs[row["media_id"]]["width"], imgs[row["media_id"]]["height"]
        assert (row["out_w"], row["out_h"]) == ImageResizer(max_side=64).target_size(w, h)
        assert len(row["thumb"]) == row["out_w"] * row["out_h"]
        assert max(row["out_w"], row["out_h"]) <= 64


def test_entity_timeline_windows_and_weights():
    from code_graph_rag_ray.stages.windows import entity_timeline

    us = 1_000_000
    rows = [
        # "a": 3 sightings across 2 windows (10s windows), weights 1+2+1
        {"surface": "a", "ts_us": 1 * us, "n_mentions": 1},
        {"surface": "a", "ts_us": 9 * us, "n_mentions": 2},
        {"surface": "a", "ts_us": 25 * us, "n_mentions": 1},
        # "b": single sighting
        {"surface": "b", "ts_us": 11 * us, "n_mentions": 5},
        # window-boundary exactness: 20s lands in window 2, not 1
        {"surface": "c", "ts_us": 19_999_999, "n_mentions": 1},
        {"surface": "c", "ts_us": 20_000_000, "n_mentions": 1},
    ]
    t = pa.Table.from_pylist(rows)
    for blocks in (1, 6):
        got = {r["surface"]: r for r in entity_timeline(
            rd.from_arrow(t).repartition(blocks),
            weight_col="n_mentions", window_s=10,
        ).take_all()}
        assert got["a"] == {"surface": "a", "first_us": 1 * us,
                            "last_us": 25 * us, "n_mentions": 4,
                            "n_windows": 2}
        assert got["b"]["n_mentions"] == 5 and got["b"]["n_windows"] == 1
        assert got["c"]["n_windows"] == 2
        assert got["c"]["first_us"] == 19_999_999


def test_cohort_retention_matrix():
    from code_graph_rag_ray.stages.windows import cohort_retention

    d = 86_400 * 1_000_000
    rows = (
        # u1 first seen day 0, active days 0,1,3 (two events day 0: dedup)
        [{"user_id": 1, "ts_us": 0}, {"user_id": 1, "ts_us": 100},
         {"user_id": 1, "ts_us": d + 5}, {"user_id": 1, "ts_us": 3 * d}]
        # u2 first seen day 1, active days 1,3
        + [{"user_id": 2, "ts_us": d + 1}, {"user_id": 2, "ts_us": 3 * d + 9}]
        # u3 only day 3
        + [{"user_id": 3, "ts_us": 3 * d}]
    )
    t = pa.Table.from_pylist(rows)
    for blocks in (1, 5):
        got = {(r["cohort_win"], r["win"]): r["n_active"]
               for r in cohort_retention(rd.from_arrow(t).repartition(blocks),
                                         window_s=86_400).take_all()}
        assert got == {(0, 0): 1, (0, 1): 1, (0, 3): 1,
                       (1, 1): 1, (1, 3): 1, (3, 3): 1}


def test_transition_counts_vs_pandas():
    """Markov bigram counts under ORDER BY (ts, id) per key — cross-chunk
    boundaries exercised (events straddle the 86400s lag chunk)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import transition_counts

    rng = np.random.default_rng(3)
    n = 3000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, 40, n),
            "ts": pd.to_datetime(
                rng.integers(0, 5 * 86400, n) * 1_000_000, unit="us"
            ),
            "event_type": rng.choice(["a", "b", "c", "d"], n),
        }
    )
    got = (
        transition_counts(rd.from_pandas(df).repartition(11))
        .to_pandas()
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    s = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = s.groupby("user_id")["event_type"].shift(1)
    exp = (
        pd.DataFrame({"prev_type": prev, "next_type": s["event_type"]})
        .dropna()
        .value_counts()
        .rename("n_transitions")
        .reset_index()
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    exp["n_transitions"] = exp["n_transitions"].astype("int64")
    assert got.equals(exp), f"\n{got}\n{exp}"


def test_group_holdout_split_leakfree():
    """hash_split keyed on a GROUP column: every row of a group lands in
    one split (the group-holdout guarantee doc_split_by_source relies on)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.sampling import hash_split

    df = pd.DataFrame(
        {
            "doc_id": np.arange(2000, dtype=np.int64),
            "source": [f"host-{i % 37}" for i in range(2000)],
        }
    )
    out = hash_split(rd.from_pandas(df).repartition(8), id_col="source").to_pandas()
    per_group = out.groupby("source")["split"].nunique()
    assert (per_group == 1).all()
    assert set(out["split"]) == {"train", "val", "test"}  # 37 groups hit all


def test_compression_ratio_signal():
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.text_analysis import compression_ratio_batch

    df = pd.DataFrame(
        {"doc_id": [0, 1], "text": ["spark " * 200, "the quick brown fox " * 3]}
    )
    ds = rd.from_pandas(df).repartition(2)
    out = {r["doc_id"]: r for r in ds.map_batches(
        compression_ratio_batch, batch_format="pyarrow").take_all()}
    # 200x-repeated token compresses to a tiny fraction; short varied text less so
    assert out[0]["z_bytes"] * 20 < out[0]["n_bytes"]
    assert out[1]["z_bytes"] * 20 > out[1]["n_bytes"]
    # deterministic across partitionings
    out2 = {r["doc_id"]: r for r in rd.from_pandas(df).map_batches(
        compression_ratio_batch, batch_format="pyarrow").take_all()}
    assert all(out[k]["z_bytes"] == out2[k]["z_bytes"] for k in out)


def test_strict_funnel_hand_case():
    """Order strictness: a click BEFORE the first view must not count; a
    purchase between view and click must not count."""
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import strict_funnel

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 1: full ordered funnel
        (1, t0, "view"), (1, t0 + m, "click"), (1, t0 + 2 * m, "purchase"),
        # user 2: click precedes the first view → stops after step 1
        (2, t0, "click"), (2, t0 + m, "view"),
        # user 3: purchase before click → steps 1-2 only
        (3, t0, "view"), (3, t0 + m, "purchase"), (3, t0 + 2 * m, "click"),
        # user 4: never views → contributes nothing
        (4, t0, "click"), (4, t0 + m, "purchase"),
        # user 5: equal-ts click with the view (strict > excludes it)
        (5, t0, "view"), (5, t0, "click"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    out = {r["step"]: r["n_keys"] for r in strict_funnel(
        rd.from_pandas(df).repartition(4),
        ["view", "click", "purchase"]).take_all()}
    assert out == {"1_view": 4, "2_click": 2, "3_purchase": 1}


def test_transition_counts_null_types_dropped():
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import transition_counts

    df = pd.DataFrame(
        {"event_id": [0, 1, 2, 3],
         "user_id": [1, 1, 1, 1],
         "ts": pd.to_datetime([0, 1, 2, 3], unit="s"),
         "event_type": ["a", None, "b", "a"]}
    )
    got = {(r["prev_type"], r["next_type"]): r["n_transitions"]
           for r in transition_counts(rd.from_pandas(df)).take_all()}
    # null row dropped entirely: sequence is a -> b -> a
    assert got == {("a", "b"): 1, ("b", "a"): 1}


def test_transition_counts_bridges_empty_chunks():
    """Cross-chunk stitching must connect consecutive NONEMPTY chunks:
    a key with one event per far-apart day (every chunk boundary a gap)
    still yields the full bigram chain."""
    import pandas as pd
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import transition_counts

    # user 1: single events on days 0, 5, 9 -> a->b, b->a across gaps
    # user 2: two events inside one chunk + one 3 days later
    df = pd.DataFrame(
        {"event_id": [0, 1, 2, 10, 11, 12],
         "user_id": [1, 1, 1, 2, 2, 2],
         "ts": pd.to_datetime(
             [0, 5 * 86400, 9 * 86400, 100, 200, 3 * 86400],
             unit="s"),
         "event_type": ["a", "b", "a", "x", "y", "x"]}
    )
    got = {(r["prev_type"], r["next_type"]): r["n_transitions"]
           for r in transition_counts(
               rd.from_pandas(df).repartition(3)).take_all()}
    assert got == {("a", "b"): 1, ("b", "a"): 1,
                   ("x", "y"): 1, ("y", "x"): 1}


def test_strict_funnel_no_step_events_emits_zero_rows():
    # degenerate input: no step-type events at all — SQL's chained-CTE
    # funnel still emits one zero-count row per step (ADVICE round-2)
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import strict_funnel

    ds = rd.from_arrow(pa.table({
        "user_id": pa.array([1, 2], pa.int64()),
        "ts": pa.array([10, 20], pa.int64()),
        "event_type": pa.array(["other", "noise"], pa.string()),
    }))
    out = {r["step"]: r["n_keys"]
           for r in strict_funnel(ds, ["view", "cart", "buy"]).take_all()}
    assert out == {"1_view": 0, "2_cart": 0, "3_buy": 0}



def test_decayed_score_integer_shifts_and_clamp():
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from code_graph_rag_ray.stages.windows import decayed_score

    now = "2024-01-31 00:00:00"
    ts = [
        "2024-01-30 23:00:00",  # age < 1 day  -> shift 0 -> 10^6
        "2024-01-29 00:00:00",  # age 2 days   -> shift 2 -> 250000
        "2024-02-05 00:00:00",  # FUTURE       -> clamp 0 -> 10^6
        "2020-01-01 00:00:00",  # huge age     -> clamp 62 -> 0
    ]
    t = pa.table({
        "user_id": pa.array([1, 1, 2, 2], pa.int64()),
        "ts": pa.array([pd.Timestamp(x) for x in ts], pa.timestamp("us")),
    })
    out = {r["user_id"]: (r["n_events"], r["decayed"])
           for r in decayed_score(rd.from_arrow(t).repartition(3),
                                  now=now).take_all()}
    assert out == {1: (2, 10**6 + 250000), 2: (2, 10**6 + 0)}
