"""Distributed tokenizer training: piece histogram + BPE merge loop.

The scalable shape of BPE training (Sennrich et al. 2016; the same
reduction HuggingFace tokenizers uses): the corpus contributes ONLY a
(distinct piece -> count) histogram — computed here as a streaming
Ray Data pass with per-batch Counter partials and one coarse
piece-hash-bucket exchange — and the iterative merge loop runs over
that bounded table on the driver (kernel/bpe.py
:func:`train_from_histogram`, incremental pair updates). At 100 TB
the corpus is unbounded but the distinct-piece table is not (Heaps'
law); ``min_count`` prunes the long singleton tail to keep the driver
table small, exactly the knob real tokenizer trainers expose
(min_frequency).

The reference counts tokens with tiktoken's cl100k_base
(/root/reference/src/pdf_extractor/markdown_extractor.py:237,287);
this module is how that table's SHAPE gets produced from a corpus in
the first place — engine (kernel/bpe.py), trainer (here), counter
(stages via textutils) complete the tokenizer story end to end.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup, exchange_width
from pdf_extractor_ray.functions.shards import cluster_cpus
from pdf_extractor_ray.kernel.bpe import (
    BPEEncoder,
    CL100K_PATTERN,
    train_from_histogram,
)

__all__ = [
    "piece_histogram",
    "train_bpe",
    "encode_corpus",
    "train_unigram",
    "unigram_encode_corpus",
]


class _EncodeBatch:
    """Actor-pool encoding stage: the ranks table loads and the
    pre-tokenizer compiles ONCE per actor in ``__init__``; ``__call__``
    encodes a batch. ``ranks_path=None`` uses the vendored builtin
    table; a real cl100k_base.tiktoken path drops in unchanged."""

    def __init__(self, ranks_path: Optional[str], pattern: str):
        from pdf_extractor_ray.kernel.bpe import (
            BPEEncoder,
            get_builtin_encoder,
        )

        if ranks_path is None:
            self.enc = get_builtin_encoder()
        else:
            self.enc = BPEEncoder.from_tiktoken_file(
                ranks_path, pattern=pattern
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = self.enc
        ids_out = [
            np.asarray(enc.encode(t or ""), dtype=np.int32)
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "ids": pa.array(
                    [a.tolist() for a in ids_out], pa.list_(pa.int32())
                ),
                "n_tokens": pa.array(
                    [len(a) for a in ids_out], pa.int64()
                ),
            }
        )


def encode_corpus(
    ds: ray.data.Dataset,
    ranks_path: Optional[str] = None,
    text_col: str = "text",
    id_col: str = "doc_id",
    pattern: str = CL100K_PATTERN,
    concurrency: int = 4,
    batch_size: int = 256,
) -> ray.data.Dataset:
    """Tokenize every document into BPE token ids — the step that
    turns curated text into model-ready input. Output: (doc_id,
    ids: list<int32>, n_tokens). Streaming actor-pool map_batches;
    the encoder state lives per actor, never per batch."""
    if text_col != "text" or id_col != "doc_id":
        ds = ds.map_batches(
            lambda b: pa.table(
                {"doc_id": b[id_col], "text": b[text_col]}
            ),
            batch_format="pyarrow",
        )
    return ds.map_batches(
        _EncodeBatch,
        fn_constructor_args=(ranks_path, pattern),
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )


def piece_histogram(
    ds: ray.data.Dataset,
    text_col: str = "text",
    pattern: str = CL100K_PATTERN,
    min_count: int = 1,
    n_buckets: Optional[int] = None,
) -> ray.data.Dataset:
    """Corpus pre-tokenization histogram: one row per DISTINCT piece,
    (piece: string, cnt: int64). Per-batch Counter partials (each
    batch emits its distinct pieces once), ONE coarse piece-hash
    exchange to total, per-bucket min_count pruning. Driver holds
    nothing; the output is the bounded distinct-piece table."""
    if n_buckets is None:
        n_buckets = 4 * exchange_width()

    def partial(batch: pa.Table) -> pa.Table:
        import regex as _regex
        from collections import Counter

        pat = _regex.compile(pattern)  # regex module caches compiles
        c: Counter = Counter()
        for t in batch[text_col].to_pylist():
            c.update(pat.findall(t or ""))
        return pa.table(
            {
                "piece": pa.array(list(c.keys()), pa.string()),
                "cnt": pa.array(list(c.values()), pa.int64()),
            }
        )

    def merge(group):
        import pandas as pd

        g = group.groupby("piece", as_index=False)["cnt"].sum()
        if min_count > 1:
            g = g[g["cnt"] >= min_count]
        return pd.DataFrame({"piece": g["piece"], "cnt": g["cnt"]})

    return cogroup(
        {"group": (ds.map_batches(partial, batch_format="pyarrow"), "piece")},
        lambda group: merge(group.to_pandas()),
        pa.schema([("piece", pa.string()), ("cnt", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def train_bpe(
    ds: ray.data.Dataset,
    vocab_size: int,
    text_col: str = "text",
    pattern: str = CL100K_PATTERN,
    min_count: int = 1,
) -> BPEEncoder:
    """Distributed BPE training: the Ray histogram pass above feeds
    the deterministic incremental merge loop. Returns a ready
    :class:`BPEEncoder`. Driver state = the (pruned) distinct-piece
    histogram — corpus-size-independent by construction."""
    hist: dict[bytes, int] = {}
    for batch in piece_histogram(
        ds, text_col=text_col, pattern=pattern, min_count=min_count
    ).iter_batches(batch_size=65536, batch_format="pyarrow"):
        for piece, cnt in zip(
            batch["piece"].to_pylist(), batch["cnt"].to_pylist()
        ):
            hist[piece.encode("utf-8")] = (
                hist.get(piece.encode("utf-8"), 0) + int(cnt)
            )
    ranks = train_from_histogram(hist, vocab_size)
    return BPEEncoder(ranks, pattern=pattern)


def train_unigram(
    ds: ray.data.Dataset,
    vocab_size: int,
    text_col: str = "text",
    pattern: str = CL100K_PATTERN,
    min_count: int = 1,
    n_em: int = 2,
    max_piece_len: int = 8,
    seed_size: int = 100_000,
):
    """Distributed Unigram-LM (SentencePiece-style) training: the SAME
    bounded-histogram reduction as :func:`train_bpe` — the corpus
    contributes one streaming distinct-piece histogram pass — feeding
    the deterministic integer Viterbi-EM loop
    (kernel/unigram.py::train_unigram_from_histogram). Returns a
    ready :class:`~pdf_extractor_ray.kernel.unigram.UnigramModel`.
    Driver state = the (min_count-pruned) histogram; corpus-size
    independent by Heaps' law, the identical scale argument as BPE."""
    from pdf_extractor_ray.kernel.unigram import (
        train_unigram_from_histogram,
    )

    hist: dict[str, int] = {}
    for batch in piece_histogram(
        ds, text_col=text_col, pattern=pattern, min_count=min_count
    ).iter_batches(batch_size=65536, batch_format="pyarrow"):
        for piece, cnt in zip(
            batch["piece"].to_pylist(), batch["cnt"].to_pylist()
        ):
            hist[piece] = hist.get(piece, 0) + int(cnt)
    return train_unigram_from_histogram(
        hist,
        vocab_size,
        n_em=n_em,
        max_piece_len=max_piece_len,
        seed_size=seed_size,
    )


class _UnigramEncodeBatch:
    """Actor-pool Viterbi encoding stage: the model (bounded piece
    table) ships once via ray.put and deserializes ONCE per actor in
    ``__init__``; per batch, each DISTINCT pre-tokenized piece is
    segmented once (an in-actor cache — Zipf makes the hit rate high)
    and per-doc outputs are assembled from the cache."""

    def __init__(self, model_ref, pattern: str):
        import regex as _regex

        self.model = ray.get(model_ref)
        self.pat = _regex.compile(pattern)
        self.cache: dict[str, list[int]] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        ids_out, np_out, md5_out = [], [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks: list[int] = []
            for w in self.pat.findall(t or ""):
                got = self.cache.get(w)
                if got is None:
                    got = self.model.encode_ids(w)
                    self.cache[w] = got
                toks.extend(got)
            ids_out.append(doc_id)
            np_out.append(len(toks))
            md5_out.append(
                hashlib.md5(
                    ",".join(map(str, toks)).encode()
                ).hexdigest()
            )
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "n_pieces": pa.array(np_out, pa.int64()),
                "pieces_md5": pa.array(md5_out, pa.string()),
            }
        )


def unigram_encode_corpus(
    ds: ray.data.Dataset,
    model,
    text_col: str = "text",
    pattern: str = CL100K_PATTERN,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Distributed Viterbi encoding under a trained
    :class:`UnigramModel`: (doc_id, n_pieces, pieces_md5) per doc,
    where pieces_md5 fingerprints the exact id sequence. The model is
    broadcast once; tokenization is the only per-row Python step and
    segmentations are cached per distinct piece inside each actor."""
    model_ref = ray.put(model)
    if text_col != "text":
        ds = ds.select_columns(["doc_id", text_col]).rename_columns(
            {text_col: "text"}
        )
    # leave >= 1 CPU for the upstream read/repartition tasks — an
    # actor pool equal to the whole cluster deadlocks the stream
    # (observed at the 4-CPU pytest session)
    concurrency = max(1, min(concurrency, cluster_cpus() - 1))
    return ds.map_batches(
        _UnigramEncodeBatch,
        fn_constructor_args=(model_ref, pattern),
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=512,
    )
