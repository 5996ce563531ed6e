"""WARC page source tests: frame roundtrip + parquet-path equivalence."""

from __future__ import annotations

import pyarrow as pa
import pytest
import ray.data as rd

from code_graph_rag_ray.sources.warc import (
    parse_warc_records,
    read_pages_warc,
    write_pages_warc,
    write_pages_warc_dataset,
    PAGES_SCHEMA,
)


def test_warc_roundtrips_pages_exactly(tmp_path):
    from code_graph_rag_ray.sources.pages import write_fixture

    fx = write_fixture(str(tmp_path / "fx"), n_pages=60, seed=13)
    path = str(tmp_path / "pages.warc")
    write_pages_warc(fx.pages, path)
    got = read_pages_warc(path).to_pandas().sort_values("url").reset_index(drop=True)
    want = fx.pages.to_pandas().sort_values("url").reset_index(drop=True)
    assert list(got.columns) == PAGES_SCHEMA.names
    assert got["url"].tolist() == want["url"].tolist()
    assert got["html"].tolist() == want["html"].tolist()  # invalid-utf8 plants too
    assert got["lang"].tolist() == want["lang"].tolist()
    # µs-exact timestamps (WARC/1.1 fractional-second dates)
    assert (got["warc_ts"].astype("int64") == want["warc_ts"].astype("int64")).all()
    assert (got["text"] == "").all()  # text derives downstream by contract


def test_parse_skips_non_page_records_and_rejects_garbage():
    rec = (b"WARC/1.0\r\nWARC-Type: warcinfo\r\nContent-Length: 4\r\n\r\nabcd\r\n\r\n"
           b"WARC/1.1\r\nWARC-Type: conversion\r\n"
           b"WARC-Target-URI: http://example.org/x\r\n"
           b"WARC-Date: 2024-01-02T03:04:05.000007Z\r\n"
           b"Content-Length: 3\r\n\r\nxyz\r\n\r\n"
           b"WARC/1.1\r\nWARC-Type: request\r\n"
           b"WARC-Target-URI: http://example.org/x\r\n"
           b"Content-Length: 2\r\n\r\nhi\r\n\r\n")
    t = parse_warc_records(rec)
    assert t.num_rows == 1
    assert t["url"][0].as_py() == "http://example.org/x"
    assert t["html"][0].as_py() == b"xyz"
    assert t["warc_ts"][0].value == 1704164645000007  # µs survive

    with pytest.raises(ValueError, match="Content-Length"):
        parse_warc_records(b"WARC/1.1\r\nWARC-Type: conversion\r\n\r\n")
    with pytest.raises(ValueError, match="truncated payload"):
        parse_warc_records(
            b"WARC/1.1\r\nWARC-Type: conversion\r\nContent-Length: 99\r\n\r\nshort")
    with pytest.raises(ValueError, match="version"):
        parse_warc_records(b"HTTP/1.1 200 OK\r\n\r\n")


def test_frame_fuzz_roundtrip_hostile_payloads():
    """Payloads containing CRLF runs, 'WARC/1.1' banners and fake headers
    must roundtrip intact — the Content-Length jump never scans payload
    bytes, so embedded frame-lookalikes cannot desync the walk."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from code_graph_rag_ray.sources.warc import _record_bytes

    hostile = st.binary(max_size=60).map(
        lambda b: b + b"\r\n\r\nWARC/1.1\r\nContent-Length: 999\r\n\r\n")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.binary(max_size=80), hostile),
                    min_size=0, max_size=6))
    def run(payloads):
        data = b"".join(
            _record_bytes(f"http://example.org/{i}", 1_000_000 + i, p, "en")
            for i, p in enumerate(payloads)
        )
        t = parse_warc_records(data)
        assert t["html"].to_pylist() == list(payloads)
        assert t["url"].to_pylist() == [
            f"http://example.org/{i}" for i in range(len(payloads))]

    run()


def test_distributed_export_then_read_back(tmp_path):
    from code_graph_rag_ray.sources.pages import generate_pages

    fx = generate_pages(120, seed=21)
    ds = rd.from_arrow(fx.pages).repartition(5)
    out = str(tmp_path / "shards")
    man = write_pages_warc_dataset(ds, out).to_pandas()
    assert man["n_records"].sum() == fx.pages.num_rows
    got = read_pages_warc(out).to_pandas().sort_values("url").reset_index(drop=True)
    want = fx.pages.to_pandas().sort_values("url").reset_index(drop=True)
    assert got["html"].tolist() == want["html"].tolist()
    assert (got["warc_ts"].astype("int64") == want["warc_ts"].astype("int64")).all()
    # shard names follow batch boundaries: a second export into the same
    # directory could leave stale shards that this read-back counts twice
    with pytest.raises(FileExistsError, match="shard"):
        write_pages_warc_dataset(ds.repartition(3), out)


def test_kg_identical_from_warc_and_parquet(tmp_path):
    from code_graph_rag_ray.pipelines.kg import build_kg
    from code_graph_rag_ray.sources.pages import generate_pages

    fx = generate_pages(100, seed=31)
    path = str(tmp_path / "corpus.warc")
    write_pages_warc(fx.pages, path)

    def edge_set(kg):
        df = kg["edges"].to_pandas()
        return set(map(tuple, df[["subj", "pred", "obj", "provenance_url"]]
                       .itertuples(index=False)))

    kg_pq = build_kg(rd.from_arrow(fx.pages), fx.alias_dict,
                     materialize_mentions=False, build_nodes=False)
    kg_wc = build_kg(read_pages_warc(path), fx.alias_dict,
                     materialize_mentions=False, build_nodes=False,
                     dedup_scope="global")
    assert edge_set(kg_pq) == edge_set(kg_wc)
