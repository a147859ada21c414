"""Gate queries for the BPE and unigram tokenizers."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _t


@register("unigram_train")
def _q_unigram_train(sf_dir: str):
    """Unigram-LM (SentencePiece-style, Kudo 2018) tokenizer training
    — the standard BPE alternative. Deterministic integer Viterbi-EM
    over the candidate-piece lattice (kernel/unigram.py): scores
    compare by exact big-int cross-multiplication, ties to (fewer
    pieces, lex-smallest sequence); the corpus contributes ONE
    streaming distinct-piece histogram pass (the train_bpe
    reduction). Rows-only gate (EM is not SQL-expressible); pytest
    pins distributed == serial == a hand-computed lattice. Output:
    the final (piece_id, piece, cnt) vocabulary in rank order."""
    from pdf_extractor_ray.functions.tokenizer import train_unigram

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    model = train_unigram(
        docs, vocab_size=2000, n_em=2, max_piece_len=6, seed_size=50_000
    )
    items = sorted(
        model.counts.items(), key=lambda kv: (-kv[1], kv[0])
    )
    return pd.DataFrame(
        {
            "piece_id": np.arange(len(items), dtype=np.int64),
            "piece": [p for p, _ in items],
            "cnt": np.array([c for _, c in items], dtype=np.int64),
        }
    )


@register("unigram_tokens")
def _q_unigram_tokens(sf_dir: str):
    """Distributed Viterbi encoding under the trained UnigramModel:
    per-doc (n_pieces, pieces_md5) where the md5 fingerprints the
    exact piece-id sequence. Actor-pool stage — the model broadcasts
    once, segmentations cache per distinct pre-token inside each
    actor. Rows-only gate + pytest distributed == serial pin."""
    from pdf_extractor_ray.functions.tokenizer import (
        train_unigram,
        unigram_encode_corpus,
    )

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    model = train_unigram(
        docs, vocab_size=2000, n_em=2, max_piece_len=6, seed_size=50_000
    )
    return unigram_encode_corpus(docs, model)


@register("bpe_tokens")
def _q_bpe_tokens(sf_dir: str):
    """Per-document BPE token counts as an actor-pool tokenizer stage
    (ranks table + compiled pre-tokenizer load once per actor in
    __init__ — kernel/bpe.py implements the full tiktoken-compatible
    engine; the vendored trained table runs offline, a real
    cl100k_base.tiktoken drops into the same path). Each doc gets an
    id-derived OOV suffix so the byte-pair merge loop genuinely runs
    (the corpus itself merge-saturates the small table). Not
    SQL-expressible (the merge loop), so rows-only at the gate; exact
    distributed-vs-serial equality is pytest-pinned."""
    from pdf_extractor_ray.functions.textstats import bpe_token_stats

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_oov(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = [
            f"{t} zq{i}vx"
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(texts, pa.string()),
            }
        )

    return bpe_token_stats(docs.map_batches(with_oov, batch_format="pyarrow"))


@register("bpe_piece_hist", oracle="""
            WITH w AS (
                SELECT unnest(regexp_extract_all(text,
                    '[^ \\t\\n\\r\\f\\x0b]+')) AS piece
                FROM documents)
            SELECT piece, CAST(count(*) AS BIGINT) AS cnt
            FROM w GROUP BY piece HAVING count(*) >= 2
        """)
def _q_bpe_piece_hist(sf_dir: str):
    """The distributed half of BPE tokenizer training: the corpus's
    pre-tokenization piece histogram (functions/tokenizer.py). Pieces
    here are whitespace-split words (the pattern a SQL oracle can
    replay; the cl100k pattern's lookahead is not RE2-expressible),
    counted with per-batch Counter partials and one coarse
    piece-hash-bucket exchange. min_count=2 prunes the singleton tail
    — the knob that bounds the driver-side merge-loop table at
    corpus scale."""
    from pdf_extractor_ray.functions.tokenizer import piece_histogram

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return piece_histogram(docs, pattern=r"\S+", min_count=2)


@register("bpe_train")
def _q_bpe_train(sf_dir: str):
    """END-TO-END distributed BPE training: Ray piece histogram ->
    deterministic incremental merge loop (ties to the
    lexicographically smallest pair) -> the learned ranks table as
    rows (token_b64, rank). Iterative/non-SQL (rows-only at the
    gate); pytest pins distributed == serial trainer and that the
    vendored graft_bpe_small.tiktoken is reproduced byte-identically
    from its corpus."""
    from pdf_extractor_ray.functions.tokenizer import train_bpe

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    enc = train_bpe(docs, vocab_size=320, pattern=r"\S+", min_count=2)
    import base64

    toks = sorted(enc.ranks.items(), key=lambda kv: kv[1])
    return pa.table(
        {
            "token_b64": pa.array(
                [base64.b64encode(t).decode() for t, _ in toks], pa.string()
            ),
            "rank": pa.array([r for _, r in toks], pa.int64()),
        }
    )
