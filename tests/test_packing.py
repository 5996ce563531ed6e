"""Sequence-packing tests: concat-and-chunk assignment semantics."""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from code_graph_rag_ray.stages.packing import pack_sequences


def _docs(rows):
    return rd.from_arrow(
        pa.Table.from_pylist(
            [{"doc_id": i, "text": t} for i, t in rows],
            schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        )
    )


def test_pack_sequences_hand_checked():
    rows = [
        (1, "a b c"),        # 3 tokens @ off 0  → seq 0..0
        (2, ""),             # 0 tokens @ off 3  → seq 0..0 (degenerate)
        (3, "d e f g"),      # 4 tokens @ off 3  → crosses into seq 1
        (4, "h"),            # 1 token  @ off 7  → seq 1
    ]
    out = pack_sequences(_docs(rows), seq_len=4).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out["n_tokens"].tolist() == [3, 0, 4, 1]
    assert out["start_off"].tolist() == [0, 3, 3, 7]
    assert out["seq_first"].tolist() == [0, 0, 0, 1]
    assert out["seq_last"].tolist() == [0, 0, 1, 1]


def test_pack_sequences_partitioning_invariant(monkeypatch):
    """Offsets are a pure function of the data: any block layout (and thus
    any sampled bucket boundaries) must give identical assignments."""
    from code_graph_rag_ray.stages import ranking

    rows = [(i, ("tok " * ((i * 7) % 13 + 1)).strip()) for i in range(200)]
    one = pack_sequences(_docs(rows), seq_len=32).to_pandas()
    monkeypatch.setattr(ranking, "_RANGE_BUCKETS", 8)
    many = pack_sequences(_docs(rows).repartition(17), seq_len=32).to_pandas()
    one = one.sort_values("doc_id").reset_index(drop=True)
    many = many.sort_values("doc_id").reset_index(drop=True)
    assert one.equals(many)
    # stream property: start offsets are the exclusive cumsum of counts
    assert (one["start_off"].diff().fillna(one["start_off"].iloc[0])
            [1:].to_numpy() == one["n_tokens"].to_numpy()[:-1]).all()


def test_chunk_documents_hand_checked():
    from code_graph_rag_ray.stages.packing import chunk_documents

    rows = [
        (1, "a b c d e f g"),   # 7 tokens: starts 0,3,6 at stride 3
        (2, ""),                # no chunks
        (3, "  x   y "),        # empty tokens dropped → 2 tokens, one chunk
    ]
    out = chunk_documents(_docs(rows), window=4, stride=3).to_pandas()
    out = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    got = list(map(tuple, out.to_numpy()))
    assert got == [
        (1, 0, 0, 4, "a b c d"),
        (1, 1, 3, 4, "d e f g"),
        (1, 2, 6, 1, "g"),
        (3, 0, 0, 2, "x y"),
    ]


def test_chunk_documents_overlap_reconstructs_stream():
    """stride < window ⇒ consecutive chunks overlap by window−stride
    tokens, and dropping each chunk's first (window−stride) tokens past
    chunk 0 reconstructs the token stream exactly."""
    from code_graph_rag_ray.stages.packing import chunk_documents

    text = " ".join(f"t{i}" for i in range(50))
    out = chunk_documents(_docs([(1, text)]), window=8, stride=5).to_pandas()
    out = out.sort_values("chunk_idx")
    rebuilt: list[str] = []
    for _, r in out.iterrows():
        toks = r["chunk_text"].split(" ")
        rebuilt.extend(toks if r["chunk_idx"] == 0 else toks[3:])
    assert rebuilt == text.split(" ")
