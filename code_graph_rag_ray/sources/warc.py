"""WARC-framed page source — Common Crawl's native frame, the third corpus
format next to Parquet and JSONL (`sources/jsonl.py` shows the shape).

Reference analog: the reference ingests a file TREE (S1,
`graph_updater.py` scanner); the web engine's analog of "another source
format" is crawl archives arriving as WARC record streams. `read_pages_warc`
yields a Dataset in the canonical pages schema

    (url: string, warc_ts: timestamp[us], html: binary,
     text: string, lang: string)

so every downstream pipeline (build_kg, catalog queries) runs unchanged.
``text`` comes back EMPTY by contract — a WARC record carries the raw
payload; text derives downstream via `extract_text_batch`, which is the
pipeline's actual contract (it re-extracts from html and ignores any
incoming text column).

Record form (WARC/1.1 `conversion` records; fractional seconds kept so
the µs timestamp roundtrips exactly — WARC 1.1 permits ISO-8601 with
sub-second precision):

    WARC/1.1\\r\\n
    WARC-Type: conversion\\r\\n
    WARC-Target-URI: <url>\\r\\n
    WARC-Date: YYYY-MM-DDTHH:MM:SS.ffffffZ\\r\\n
    WARC-Identified-Content-Language: <lang>\\r\\n
    Content-Length: <n>\\r\\n
    \\r\\n
    <n payload bytes>\\r\\n\\r\\n

Scale shape: `ray.data.read_binary_files` streams one task per shard
file; the per-file walk JUMPS record to record by Content-Length —
O(records) small header parses, no scanning through payload bytes — and
payload slices stay views into the file buffer until the single Arrow
binary-array assembly at the end. Non-page record types (warcinfo,
request, metadata) are skipped, as when pointing at real crawl output.
Writes are distributed: one shard per batch, written inside the task,
with a content-derived deterministic shard name (resumable-output rule:
re-running overwrites the same names, never duplicates)."""

from __future__ import annotations

import os
from datetime import datetime, timedelta

import pyarrow as pa
from ray.data import Dataset

_EPOCH = datetime(1970, 1, 1)
_PAGE_TYPES = ("conversion", "response")

PAGES_SCHEMA = pa.schema(
    [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
     ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string())]
)


def _ts_to_warc_date(micros: int) -> str:
    dt = _EPOCH + timedelta(microseconds=int(micros))
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%f") + "Z"


def _warc_date_to_micros(s: str) -> int:
    s = s.strip()
    if s.endswith("Z"):
        s = s[:-1]
    fmt = "%Y-%m-%dT%H:%M:%S.%f" if "." in s else "%Y-%m-%dT%H:%M:%S"
    # timezone-FREE: WARC-Date is UTC by spec; never route through
    # .timestamp() (host-local shift — the jsonl.py lesson)
    return (datetime.strptime(s, fmt) - _EPOCH) // timedelta(microseconds=1)


def _record_bytes(url: str, micros: int, payload: bytes, lang: str) -> bytes:
    head = (
        "WARC/1.1\r\n"
        "WARC-Type: conversion\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {_ts_to_warc_date(micros)}\r\n"
        f"WARC-Identified-Content-Language: {lang}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode()
    return head + payload + b"\r\n\r\n"


def parse_warc_records(data: bytes) -> pa.Table:
    """One WARC shard's bytes → pages table (text empty; see module doc).

    The cursor jumps by Content-Length; unknown record types are skipped;
    a malformed frame raises with the byte offset."""
    urls: list[str] = []
    tss: list[int] = []
    htmls: list[bytes] = []
    langs: list[str] = []
    pos, n = 0, len(data)
    while pos < n:
        while data.startswith(b"\r\n", pos):
            pos += 2
        if pos >= n:
            break
        he = data.find(b"\r\n\r\n", pos)
        if he < 0:
            raise ValueError(f"truncated WARC header at byte {pos}")
        lines = data[pos:he].decode("utf-8", errors="replace").split("\r\n")
        if not lines[0].startswith("WARC/"):
            raise ValueError(f"missing WARC version line at byte {pos}")
        h: dict[str, str] = {}
        for ln in lines[1:]:
            k, _, v = ln.partition(":")
            h[k.strip().lower()] = v.strip()
        try:
            clen = int(h["content-length"])
        except KeyError:
            raise ValueError(f"record at byte {pos} lacks Content-Length")
        payload = data[he + 4 : he + 4 + clen]
        if len(payload) != clen:
            raise ValueError(f"truncated payload at byte {he + 4}")
        pos = he + 4 + clen
        if h.get("warc-type", "").lower() in _PAGE_TYPES:
            urls.append(h.get("warc-target-uri", ""))
            tss.append(_warc_date_to_micros(h.get("warc-date", "1970-01-01T00:00:00Z")))
            htmls.append(bytes(payload))
            langs.append(h.get("warc-identified-content-language", ""))
    return pa.table(
        {"url": pa.array(urls, pa.string()),
         "warc_ts": pa.array(tss, pa.timestamp("us")),
         "html": pa.array(htmls, pa.binary()),
         "text": pa.array([""] * len(urls), pa.string()),
         "lang": pa.array(langs, pa.string())}
    )


def read_pages_warc(paths, **read_kwargs) -> Dataset:
    """WARC shard files → Dataset in the canonical pages schema."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, **read_kwargs)

    def parse(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return PAGES_SCHEMA.empty_table()
        return pa.concat_tables(
            [parse_warc_records(v.as_py()) for v in b["bytes"]]
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def _batch_to_warc_bytes(b: pa.Table) -> bytes:
    import pyarrow.compute as pc

    micros = pc.cast(b["warc_ts"], pa.int64()).to_pylist()
    urls = b["url"].to_pylist()
    htmls = b["html"].to_pylist()
    langs = b["lang"].to_pylist()
    return b"".join(
        _record_bytes(u, m, h or b"", lg or "")
        for u, m, h, lg in zip(urls, micros, htmls, langs)
    )


def write_pages_warc(pages: pa.Table, path: str) -> None:
    """Driver-side single-shard writer for tests/fixtures."""
    with open(path, "wb") as f:
        f.write(_batch_to_warc_bytes(pages))


def write_pages_warc_dataset(ds: Dataset, out_dir: str) -> Dataset:
    """Distributed WARC export: one ``.warc`` shard per batch, written
    INSIDE the task (only a manifest row ships to the driver — the
    write_parquet data-movement shape). Shard names derive from the
    batch's urls, and batch boundaries can differ between runs, so a
    second write into the same directory could leave stale shards that
    :func:`read_pages_warc` reads twice: ``out_dir`` must hold no
    ``.warc`` file yet (``FileExistsError`` at call time otherwise).
    Returns the manifest Dataset (shard, n_records); consume it to drive
    the write."""
    import glob
    import hashlib

    stale = glob.glob(os.path.join(glob.escape(out_dir), "*.warc"))
    if stale:
        raise FileExistsError(
            f"{out_dir} already holds {len(stale)} .warc shard(s); write "
            "into an empty directory")
    os.makedirs(out_dir, exist_ok=True)

    def write_shard(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.string()),
                             "n_records": pa.array([], pa.int64())})
        name = hashlib.md5(
            "\x1f".join(b["url"].to_pylist()).encode()
        ).hexdigest()[:16] + ".warc"
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(_batch_to_warc_bytes(b))
        os.replace(tmp, path)
        return pa.table({"shard": pa.array([name], pa.string()),
                         "n_records": pa.array([b.num_rows], pa.int64())})

    return ds.map_batches(write_shard, batch_format="pyarrow")
