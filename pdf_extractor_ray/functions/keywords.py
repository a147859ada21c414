"""Corpus keyphrase extraction (RAKE) and cross-document novelty.

``rake_keywords`` is a distributed, corpus-level variant of RAKE
(Rose et al. 2010, public): candidate phrases are maximal runs of
non-stopword words between punctuation/stopword boundaries; word
score = degree/frequency over all phrase occurrences in exact
milli-units; phrase score = sum of member word scores. The corpus
pass collapses each batch to a (phrase, count) Counter, so the
exchange carries the phrase vocabulary, never the token stream; the
word-stat and scoring passes run over that already-aggregated phrase
table. Every step is integer arithmetic on counts, so the DuckDB
oracle replays scores exactly.

``ngram_novelty`` scores each document by how much of it is new
relative to every earlier document (doc_id order): n_novel = number
of its distinct word n-grams whose FIRST appearance (min doc_id) is
this document. This is the curation signal behind "keep the first
copy, drop recombinations of old text". Shape: distinct (gram, doc)
pairs pre-collapsed per batch, one gram-bucket exchange, per-bucket
reduction to per-(bucket, doc) partial counts, then a tiny per-doc
sum — the pair stream crosses the wire once.

Reference behavior: the reference repo scores/extracts keywords per
document during markdown structuring (see SURVEY.md §2.8 text
utilities); this module generalizes that to corpus scale.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import cogroup

__all__ = ["RAKE_STOPWORDS", "rake_keywords", "ngram_novelty"]

# Fixed public English stopword list — ORDER AND CONTENT ARE THE
# CONTRACT: the SQL oracle embeds the same alternation, so changing
# this list is an operator version change.
RAKE_STOPWORDS = (
    "the", "of", "and", "to", "a", "in", "that", "is", "was", "for",
    "on", "with", "as", "by", "at", "it", "be", "this", "are", "or",
    "an", "from", "not", "but", "have", "has", "had", "they", "you",
    "we",
)

_PUNCT_SPLIT_RE = re.compile(r"[^a-z0-9\s]+")
_WORD_RE = re.compile(r"[a-z0-9]+")
_STOPSET = frozenset(RAKE_STOPWORDS)


def _phrases_of(text: str) -> list[str]:
    """Candidate phrases: split lower(text) into segments at
    punctuation, tokenize [a-z0-9]+, break runs at stopwords."""
    out: list[str] = []
    for seg in _PUNCT_SPLIT_RE.split((text or "").lower()):
        run: list[str] = []
        for w in _WORD_RE.findall(seg):
            if w in _STOPSET:
                if run:
                    out.append(" ".join(run))
                    run = []
            else:
                run.append(w)
        if run:
            out.append(" ".join(run))
    return out


def rake_keywords(
    ds: ray.data.Dataset,
    k: int = 20,
    min_count: int = 2,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Corpus-level RAKE top-k keyphrases: (phrase, n, score_milli).

    deg(w) = sum over occurrences of w (weighted by phrase count) of
    the phrase word-length; freq(w) = occurrence count;
    word_score_milli = (1000 * deg) // freq; phrase score = sum of
    member word scores (duplicated words count per occurrence).
    Ties: (score_milli DESC, phrase ASC). Phrases below ``min_count``
    occurrences are dropped AFTER word stats are computed (rare
    phrases still contribute degree mass, as in per-document RAKE).

    Scale: the only corpus-sized pass is the per-batch phrase
    Counter; word stats and scoring run over the aggregated phrase
    vocabulary (bounded by distinct-phrase count, zipf-small), with a
    coarse-bucket exchange for each aggregate and the word-score
    table broadcast into the scoring pass.
    """
    from ray.data.aggregate import Sum

    def phrase_counts(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch[text_col].to_pylist():
            counts.update(_phrases_of(t))
        phrases = list(counts.keys())
        return pa.table(
            {
                "phrase": pa.array(phrases, pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("phrase", as_index=False).agg(n=("n", "sum"))

    ptable = cogroup(
        {"group": (ds.map_batches(phrase_counts, batch_format="pyarrow"), "phrase")},
        lambda group: merge_bucket(group.to_pandas()),
        pa.schema([("phrase", pa.string()), ("n", pa.int64())]),
        n_buckets=256,
        coalesce=True,
    ).materialize()  # consumed twice (word stats + scoring); phrase-vocab-sized

    def word_stats(batch: pa.Table) -> pa.Table:
        ws: Counter = Counter()
        degs: Counter = Counter()
        for phrase, n in zip(
            batch["phrase"].to_pylist(), batch["n"].to_pylist()
        ):
            words = phrase.split(" ")
            plen = len(words)
            for w in words:
                ws[w] += n
                degs[w] += n * plen
        keys = list(ws.keys())
        return pa.table(
            {
                "w": pa.array(keys, pa.string()),
                "freq": pa.array([ws[w] for w in keys], pa.int64()),
                "deg": pa.array([degs[w] for w in keys], pa.int64()),
            }
        )

    wtable = (
        ptable.map_batches(word_stats, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("freq", alias_name="freq"), Sum("deg", alias_name="deg"))
    ).to_pandas()  # bounded: distinct-word vocabulary of the phrase table
    scores = {
        w: (1000 * int(d)) // int(f)
        for w, f, d in zip(wtable["w"], wtable["freq"], wtable["deg"])
    }
    scores_ref = ray.put(scores)

    def score_phrases(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.greater_equal(batch["n"], min_count))
        sc = ray.get(scores_ref)
        out = []
        for phrase in batch["phrase"].to_pylist():
            out.append(sum(sc[w] for w in phrase.split(" ")))
        return pa.table(
            {
                "phrase": batch["phrase"],
                "n": batch["n"],
                "score_milli": pa.array(out, pa.int64()),
            }
        )

    scored = ptable.map_batches(score_phrases, batch_format="pyarrow")
    return scored.sort(["score_milli", "phrase"], descending=[True, False]).limit(k)


def ngram_novelty(
    ds: ray.data.Dataset,
    n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-document novelty vs all earlier documents (doc-id order):
    (doc_id, n_grams, n_novel) with n_grams = distinct word n-grams
    in the doc and n_novel = those whose min doc_id over the corpus
    is this doc. Documents with fewer than ``n`` words emit no row
    (the oracle filters the same way).

    Shape: per-batch distinct (gram, doc) pairs with a 256-way gram
    bucket; ONE pair-stream exchange; the bucket reducer computes
    first-owner per gram and immediately collapses to per-(doc)
    partial (total, novel) counts, so the second exchange is
    doc-count-sized.
    """

    def pairs(batch: pa.Table) -> pa.Table:
        grams_out: list[str] = []
        docs_out: list[int] = []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            words = _WORD_RE.findall((t or "").lower())
            if len(words) < n:
                continue
            grams = {
                " ".join(words[j : j + n]) for j in range(len(words) - n + 1)
            }
            grams_out.extend(grams)
            docs_out.extend([i] * len(grams))
        return pa.table(
            {
                "gram": pa.array(grams_out, pa.string()),
                id_col: pa.array(docs_out, pa.int64()),
            }
        )

    def reduce_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # distinct within bucket (cross-batch duplicates of the same
        # (gram, doc) pair land in the same bucket)
        g = group.drop_duplicates(["gram", id_col])
        firsts = g.groupby("gram")[id_col].transform("min")
        out = g.assign(novel=(g[id_col] == firsts).astype("int64"))
        return out.groupby(id_col, as_index=False).agg(
            n_grams=("gram", "size"), n_novel=("novel", "sum")
        )

    i64 = pa.int64()
    counts = pa.schema([(id_col, i64), ("n_grams", i64), ("n_novel", i64)])
    partials = cogroup(
        {"group": (ds.map_batches(pairs, batch_format="pyarrow"), "gram")},
        lambda group: reduce_bucket(group.to_pandas()),
        counts,
        n_buckets=256,
        coalesce=True,
    )
    # final per-doc fold via the coarse doc-bucket pattern — a
    # corpus-cardinality key through Ray's Aggregate API is the
    # measured group-explosion trap (BASELINE round 4)
    def sum_per_doc(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(id_col, as_index=False)[
            ["n_grams", "n_novel"]
        ].sum()
        return out.astype(np.int64)

    return cogroup(
        {"group": (partials, id_col)},
        lambda group: sum_per_doc(group.to_pandas()),
        counts,
        n_buckets=256,
        coalesce=True,
    )
