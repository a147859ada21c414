"""Hashed-feature linear text classifier (fastText-style quality gate).

Behavioral spec: web-corpus curation pipelines (CCNet, GPT-3's
quality filter, DataComp) train a cheap linear classifier over hashed
bag-of-words features to separate wanted from unwanted documents, then
score the whole crawl with it. The reference repo has no classifier
(its quality signals are rule-based, SURVEY §2.5); this module supplies
the trainable member of that family with fully integer semantics so a
SQL oracle replays both training and scoring bit for bit:

    feat(tok)  = int(md5(tok)[:8], 16) % n_features
    c0/c1      = token-occurrence counts per class over the corpus
    w(feat)    = (scale * (c1 + 1)) // (c0 + c1 + 2)
                 (add-one-smoothed scaled P(class 1 | token))
    score(doc) = (sum_tokens w(feat)) // n_tokens
    predicted  = score >= scale // 2

The probability-sum score is the integer-exact sibling of Naive
Bayes' log-probability sum — same features, same sufficient
statistics, monotone in the same per-token evidence — chosen so the
whole pipeline stays in int64 (no float log whose summation order
could diverge between engines).

Distributed shape: training is the canonical combiner pattern — each
batch pre-aggregates (feat, class) counts into a bounded partial
(<= n_features rows), ONE groupby-sum exchange merges them; the model
is an n_features-bounded table, never corpus-sized. Scoring
broadcasts the dense weight vector once (``ray.put`` of an int64
numpy array; plasma reads are zero-copy per batch) and streams —
no shuffle. Per-worker md5 results are memoized per distinct token
(Zipfian text makes the cache effective).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup

__all__ = [
    "hash_feature",
    "train_hashed_linear",
    "weights_to_dense",
    "score_hashed_linear",
]

_SCALE = 1_000_000


def hash_feature(token: str, n_features: int) -> int:
    """md5-bucket feature id — the same arithmetic a SQL oracle can
    compute (``('0x' || substring(md5(tok),1,8))::UBIGINT % F``)."""
    return (
        int(hashlib.md5(token.encode("utf-8")).hexdigest()[:8], 16)
        % n_features
    )


class _FeatCache:
    """Per-worker token -> feature memo (md5 once per distinct token)."""

    def __init__(self, n_features: int):
        self.n = n_features
        self.memo: dict[str, int] = {}

    def feats(self, tokens: list[str]) -> list[int]:
        memo = self.memo
        out = []
        for t in tokens:
            f = memo.get(t)
            if f is None:
                f = hash_feature(t, self.n)
                memo[t] = f
            out.append(f)
        return out


def train_hashed_linear(
    ds: ray.data.Dataset,
    text_col: str = "text",
    label_col: str = "label",
    n_features: int = 65_536,
    scale: int = _SCALE,
) -> ray.data.Dataset:
    """Class-conditional token statistics -> integer weight table.

    Output (one row per OBSERVED feature): ``(feat, c0, c1, w)`` with
    ``w = (scale*(c1+1)) // (c0+c1+2)``. Unobserved features default
    to ``scale // 2`` at scoring time (the same smoothing formula at
    c0 = c1 = 0). Labels are 0/1; tokens are whitespace-split, every
    occurrence counts (bag of words, not a set).
    """
    cache = _FeatCache(n_features)

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[int, list[int]] = {}
        for text, lab in zip(
            batch[text_col].to_pylist(), batch[label_col].to_pylist()
        ):
            if not text:
                continue
            col = 1 if int(lab) else 0
            for f in cache.feats(text.split()):
                c = counts.get(f)
                if c is None:
                    counts[f] = c = [0, 0]
                c[col] += 1
        feats = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        return pa.table(
            {
                "feat": pa.array(feats),
                "c0": pa.array(
                    np.array([counts[f][0] for f in feats], dtype=np.int64)
                ),
                "c1": pa.array(
                    np.array([counts[f][1] for f in feats], dtype=np.int64)
                ),
            }
        )

    def merge(group: pd.DataFrame) -> pa.Table:
        g = group.groupby("feat", as_index=False)[["c0", "c1"]].sum()
        c0 = g["c0"].to_numpy(dtype=np.int64)
        c1 = g["c1"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "feat": pa.array(g["feat"].to_numpy(dtype=np.int64)),
                "c0": pa.array(c0),
                "c1": pa.array(c1),
                "w": pa.array(scale * (c1 + 1) // (c0 + c1 + 2)),
            }
        )

    # coarse exchange: 256 feature buckets, each merged with ONE
    # vectorized pandas groupby-sum (Ray's row-level Aggregate reduce is
    # Python-per-row — measured 50x slower on the same partial stream)
    i64 = pa.int64()
    return cogroup(
        {
            "group": (
                ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
                "feat",
            )
        },
        lambda group: merge(group.to_pandas()),
        pa.schema([("feat", i64), ("c0", i64), ("c1", i64), ("w", i64)]),
        n_buckets=256,
        coalesce=True,
    )


def weights_to_dense(
    weights: pd.DataFrame, n_features: int, scale: int = _SCALE
) -> np.ndarray:
    """Weight table -> dense int64 vector (unseen feats = scale//2,
    the smoothing formula at zero counts). The model is
    n_features-bounded (512 KiB at 2^16) — broadcastable, never
    corpus-sized."""
    dense = np.full(n_features, scale // 2, dtype=np.int64)
    dense[weights["feat"].to_numpy(dtype=np.int64)] = (
        weights["w"].to_numpy(dtype=np.int64)
    )
    return dense


def score_hashed_linear(
    ds: ray.data.Dataset,
    dense_weights: np.ndarray,
    text_col: str = "text",
    id_col: str = "doc_id",
    scale: int = _SCALE,
) -> ray.data.Dataset:
    """Stream-score documents against a broadcast weight vector:
    ``(doc_id, n_tokens, score, predicted)`` with
    ``score = sum(w) // n_tokens`` (0 for empty docs) and
    ``predicted = score >= scale // 2``. One ``ray.put`` for the
    model; zero-copy plasma read per batch; no shuffle."""
    n_features = len(dense_weights)
    ref = ray.put(dense_weights)
    cache = _FeatCache(n_features)

    def score(batch: pa.Table) -> pa.Table:
        w = ray.get(ref)
        ids, n_toks, scores = [], [], []
        for i, text in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            toks = text.split() if text else []
            ids.append(i)
            n_toks.append(len(toks))
            if toks:
                fs = np.array(cache.feats(toks), dtype=np.int64)
                scores.append(int(w[fs].sum()) // len(toks))
            else:
                scores.append(0)
        sc = np.array(scores, dtype=np.int64)
        return pa.table(
            {
                id_col: pa.array(ids),
                "n_tokens": pa.array(n_toks, pa.int64()),
                "score": pa.array(sc),
                "predicted": pa.array(
                    (sc >= scale // 2).astype(np.int64)
                ),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", batch_size=None)
