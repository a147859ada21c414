"""Corpus-count n-gram familiarity scoring and positional phrase
search — the two workhorse "does the corpus know this sequence"
primitives, in exact integer arithmetic.

``bigram_familiarity`` is the integer-exact cousin of n-gram-LM
perplexity filtering (CCNet/KenLM-style): a document scores high when
its bigrams are common corpus-wide and low when they are rare. The
log is ``floor(log2(count))`` — computed as bit length, which SQL
replays verbatim via ``length(printf('%b', n)) - 1`` — so there is no
float in the pipeline and the DuckDB oracle hash-matches. Structure:
one count exchange into sharded count actors (hapax tail dropped at
the source — singletons score 0 exactly), then EITHER a one-pass
local scoring against the broadcast packed head table (when the
counted head fits ``BROADCAST_LIMIT`` rows) or the bigram-bucket cogroup
for corpora whose repeated-bigram vocabulary exceeds it.

``phrase_count`` is the positional-index phrase intersection: postings
(doc, position) are built ONLY for the phrase's words (everything else
is dropped at the scan), exchanged by doc bucket, and the match count
per doc is |pos(w1) ∩ (pos(w2) - 1) ∩ ...| — the classic positional
AND. The SQL oracle replays it over the tokenized word arrays.

Reference parity: the reference scores/validates extracted text
quality per document (SURVEY.md §2.9 G4) and searches it via its DB
layer; these are the corpus-scale, from-scratch equivalents of its
sequence-frequency and phrase-lookup shapes.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .common import bucket_ids
from .exchange import cogroup
from .shards import Shard, cluster_cpus, push, shard_actors

__all__ = ["bigram_familiarity", "phrase_count"]

_WORD_RE = re.compile(r"[a-z0-9]+")

# repeated-bigram head rows up to which bigram_familiarity scores
# against a broadcast of the head (read per call)
BROADCAST_LIMIT = 6_000_000


def _words(text: str) -> list[str]:
    return _WORD_RE.findall((text or "").lower())


@ray.remote
class _BigramCountShard(Shard):
    """Owns the corpus counts for its hash range of the bigram
    vocabulary. Pushed per-batch Counter partials are merged on
    arrival (sums are commutative, so arrival order is irrelevant).
    ``head()`` returns only the repeated (count >= 2) bigrams as an
    Arrow table ref — the hapax tail (the bulk of distinct types)
    never leaves the shard."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self.c: Counter = Counter()

    def add(self, bg: np.ndarray, n: np.ndarray) -> None:
        self.c.update(dict(zip(bg.tolist(), n.tolist())))

    def head(self) -> pa.Table:
        ks = [k for k, v in self.c.items() if v >= 2]
        return pa.table(
            {
                "bg": pa.array(ks, pa.string()),
                "n": pa.array([self.c[k] for k in ks], pa.int64()),
            }
        )


def _bigram_counts_sharded(
    ds: ray.data.Dataset, text_col: str, n_shards: int | None = None
) -> ray.data.Dataset:
    """Exact repeated-bigram count table via sharded count actors.

    The naive route (per-batch Counter partials -> groupby(bucket) ->
    in-bucket sum) is correct but pays Ray Data's sort-based shuffle
    over every partial row — and the hapax tail cannot pre-compress
    (each singleton appears in exactly one batch), so that is ~1 sorted
    row per bigram TOKEN. Measured at 1M docs / 78M bigram tokens the
    sort machinery was ~95% of the pass (64 s; per-batch Counter CPU
    is ~2 s across 32 cores). Pushing the same partials straight into
    hash-sharded count actors (C-speed Counter merge, no sort) moves
    the identical byte volume once and skips the machinery — the same
    one-exchange argument as graph.py's shard index. Owner:
    ``bucket_ids(bigram, S)``."""
    with shard_actors(_BigramCountShard, n_shards) as shards:
        S = len(shards)

        def by_bucket(batch: pa.Table):
            c: Counter = Counter()
            for t in batch[text_col].to_pylist():
                ws = _words(t)
                c.update(" ".join(p) for p in zip(ws, ws[1:]))
            bg = np.asarray(list(c.keys()), dtype=object)
            n = np.asarray(list(c.values()), dtype=np.int64)
            return bucket_ids(bg, S), {"bg": bg, "n": n}

        push(ds, shards, by_bucket)
        return ray.data.from_arrow_refs(
            [s.head.remote() for s in shards]
        ).materialize()


class _BroadcastBigramScorer:
    """Actor-pool scorer for the broadcast path. State built ONCE per
    actor in __init__ (the word pd.Index deserializes per ray.get,
    unlike numeric plasma reads, so the stateless-task form would pay
    it every batch): a pd.Index over the HEAD-BIGRAM words only, the
    sorted packed (id_a << 32 | id_b) head keys, and their lg values.

    Per batch the only Python-level loop is tokenization; word->id is
    one C-speed hash get_indexer over the batch's concatenated words,
    bigram lookup is one searchsorted over int64, and the per-doc sum
    is one reduceat. A bigram containing any word OUTSIDE the head
    vocabulary cannot be repeated corpus-wide, so mapping unknown
    words to -1 and scoring their pairs 0 is exact — same argument as
    the singleton drop itself."""

    def __init__(self, ref, text_col: str, id_col: str) -> None:
        words, packed, lg = ray.get(ref)
        self.widx = pd.Index(words)
        self.packed = packed  # sorted int64
        self.lg = lg          # aligned with packed
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids: list[int] = []
        nw_per_doc: list[int] = []
        all_words: list[str] = []
        for i, t in zip(
            batch[self.id_col].to_pylist(), batch[self.text_col].to_pylist()
        ):
            ws = _words(t)
            if len(ws) < 2:
                continue
            doc_ids.append(int(i))
            nw_per_doc.append(len(ws))
            all_words.extend(ws)
        if not doc_ids:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_bigrams": pa.array([], pa.int64()),
                    "fam_sum": pa.array([], pa.int64()),
                    "fam_milli": pa.array([], pa.int64()),
                }
            )
        ids = self.widx.get_indexer(
            np.asarray(all_words, dtype=object)
        ).astype(np.int64)
        nw = np.asarray(nw_per_doc, dtype=np.int64)
        ends = np.cumsum(nw)
        a, b = ids[:-1], ids[1:]
        # drop the pairs that straddle a document boundary
        if len(nw) > 1:
            cross = ends[:-1] - 1
            keep = np.ones(len(a), dtype=bool)
            keep[cross] = False
            a, b = a[keep], b[keep]
        valid = (a >= 0) & (b >= 0)
        packed = np.where(valid, (a << np.int64(32)) | b, np.int64(-1))
        if len(self.packed):
            pos = np.searchsorted(self.packed, packed)
            pos_c = np.minimum(pos, len(self.packed) - 1)
            hit = valid & (self.packed[pos_c] == packed)
            fam_pos = np.where(hit, self.lg[pos_c], 0)
        else:
            fam_pos = np.zeros(len(packed), dtype=np.int64)
        # bigram segment for doc d starts at word-offset minus d
        # (each boundary removed exactly one pair)
        starts = np.zeros(len(nw), dtype=np.int64)
        starts[1:] = ends[:-1]
        offs = starts - np.arange(len(nw), dtype=np.int64)
        fam = np.add.reduceat(fam_pos, offs)
        nb = nw - 1
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(doc_ids, np.int64), pa.int64()),
                "n_bigrams": pa.array(nb, pa.int64()),
                "fam_sum": pa.array(fam, pa.int64()),
                "fam_milli": pa.array((1000 * fam) // nb, pa.int64()),
            }
        )


def _bigram_score_broadcast(
    ds: ray.data.Dataset,
    counts: ray.data.Dataset,
    text_col: str,
    id_col: str,
) -> ray.data.Dataset:
    """One-pass local scoring against the broadcast head table.
    Driver pull is bounded by the BROADCAST_LIMIT row cap the caller
    enforced before selecting this path; the shipped state is ~16
    bytes per head bigram (packed int64 key + int64 lg) plus the
    head-WORD vocabulary strings (far fewer than head bigrams)."""
    head = counts.to_pandas()
    cn = head["n"].to_numpy(dtype=np.int64)
    lg = (np.frexp(cn.astype(np.float64))[1] - 1).astype(np.int64)
    if len(head) >= (1 << 31):
        raise ValueError(
            "head table too large for 32-bit word ids — "
            "lower BROADCAST_LIMIT below 2**31 to score by exchange"
        )
    if len(head):
        parts = head["bg"].str.split(" ", n=1, expand=True)
        words = pd.unique(
            np.concatenate([parts[0].to_numpy(), parts[1].to_numpy()])
        )
        widx = pd.Index(words)
        ia = widx.get_indexer(parts[0]).astype(np.int64)
        ib = widx.get_indexer(parts[1]).astype(np.int64)
        packed = (ia << np.int64(32)) | ib
        order = np.argsort(packed)
        packed, lg = packed[order], lg[order]
        words = np.asarray(words, dtype=object)
    else:
        words = np.empty(0, dtype=object)
        packed = np.empty(0, dtype=np.int64)
        lg = np.empty(0, dtype=np.int64)
    ref = ray.put((words, packed, lg))
    n_actors = max(2, cluster_cpus() - 2)
    return ds.map_batches(
        _BroadcastBigramScorer,
        fn_constructor_args=(ref, text_col, id_col),
        batch_format="pyarrow",
        concurrency=n_actors,
    )


def bigram_familiarity(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 128,
) -> ray.data.Dataset:
    """Per-document bigram familiarity: (doc_id, n_bigrams, fam_sum,
    fam_milli) where fam_sum = sum over the doc's bigram TOKENS
    (multiplicity counts) of floor(log2(corpus_count(bigram))) and
    fam_milli = (1000 * fam_sum) // n_bigrams. Docs with < 2 words
    emit no row (mirrored by the oracle).

    Boilerplate/templated text scores high (its bigrams repeat
    corpus-wide), rare/garbled text scores near zero — the same
    discrimination KenLM perplexity gates buy, in exact integers.

    Exactness-preserving frequency split: a singleton bigram
    (corpus count 1) contributes floor(log2(1)) = 0, so only the
    REPEATED-bigram count table (count >= 2 — the Zipf head plus the
    doubletons; a small fraction of distinct types) is ever needed to
    score. The scoring path is chosen by counting that head (Dataset
    metadata after materialize) — the same count-then-choose contract
    as ``dedup.minhash_dedup_pairs``:

    - at most ``BROADCAST_LIMIT`` rows: broadcast. Ship the head table
      once via ``ray.put`` and score each doc locally in ONE pass — no
      (doc, bigram) exchange at all (the measured 1M-doc wall was that
      ~60M-row exchange). Absent bigrams default to lg = 0, which is
      exactly the singleton value, so the result is bit-identical.
      The broadcast state is ~16 bytes per head bigram (packed int64
      word-id pair + lg) plus the head-word strings; at the measured
      4.3M-row head the broadcast path still beat the exchange path
      (55 vs 69 s at 1M docs / 78.5M bigram tokens), hence the 6M
      default.
    - more: exchange. The bigram-bucket cogroup, for corpora whose
      repeated-bigram vocabulary exceeds driver/worker memory (the
      count side is still head-only; per-doc token totals ride a
      separate doc-bucket union so singleton occurrences never ship).

    The input is consumed twice (count pass + score pass), so it is
    materialized once up front — the repo's standard multi-consumer
    contract (see packing.sequence_pack).
    """
    ds = ds.select_columns([id_col, text_col]).materialize()

    # ---- pass 1: exact repeated-bigram counts (sharded count actors;
    # singletons score floor(log2(1)) = 0, so the head() read drops
    # the hapax tail and neither scoring path ever carries it)
    counts = _bigram_counts_sharded(ds, text_col)

    if counts.count() <= BROADCAST_LIMIT:  # metadata only after materialize
        return _bigram_score_broadcast(ds, counts, text_col, id_col)

    # ---- pass 2: per-(doc, bigram) occurrences cogrouped with counts
    def doc_partials(batch: pa.Table) -> pa.Table:
        ids, bgs, ms = [], [], []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            ws = _words(t)
            if len(ws) < 2:
                continue
            c = Counter(" ".join(p) for p in zip(ws, ws[1:]))
            ids.extend([int(i)] * len(c))
            bgs.extend(c.keys())
            ms.extend(c.values())
        return pa.table(
            {
                "bg": pa.array(bgs, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "n": pa.array(ms, pa.int64()),
            }
        )

    def score_in_bucket(occ: pa.Table, cnt: pa.Table) -> pd.DataFrame:
        cnt = cnt.to_pandas().rename(columns={"n": "cn"})
        occ = occ.to_pandas()
        # inner merge against the HEAD-only count side: singleton
        # occurrences drop here, which is exact because they score 0;
        # per-doc token totals ride the doc_totals union instead
        m = occ.merge(cnt, on="bg", how="inner")
        # floor(log2(count)) = bit_length - 1, via frexp's exponent
        # (exact: counts < 2^53 convert to float64 losslessly and the
        # exponent field is integer metadata, no rounding involved);
        # SQL replays it as length(printf('%b', n)) - 1
        cn = m["cn"].to_numpy(dtype=np.int64)
        lg = np.frexp(cn.astype(np.float64))[1].astype(np.int64) - 1
        m = m.assign(fam=m["n"].to_numpy(np.int64) * lg)
        out = m.groupby("doc_id", as_index=False).agg(
            fam_sum=("fam", "sum")
        )
        out["n_bigrams"] = 0
        return out[["doc_id", "n_bigrams", "fam_sum"]].astype(
            {"doc_id": np.int64, "n_bigrams": np.int64, "fam_sum": np.int64}
        )

    def doc_totals(batch: pa.Table) -> pa.Table:
        ids, nbs = [], []
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            nw = len(_words(t))
            if nw >= 2:
                ids.append(int(i))
                nbs.append(nw - 1)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_bigrams": pa.array(nbs, pa.int64()),
                "fam_sum": pa.array(
                    np.zeros(len(ids), dtype=np.int64), pa.int64()
                ),
            }
        )

    i64 = pa.int64()
    per_doc_schema = pa.schema([("doc_id", i64), ("n_bigrams", i64), ("fam_sum", i64)])
    per_bucket = cogroup(
        {
            "occ": (
                ds.map_batches(doc_partials, batch_format="pyarrow"),
                "bg",
                pa.schema([("bg", pa.string()), ("doc_id", i64), ("n", i64)]),
            ),
            "cnt": (
                counts.select_columns(["bg", "n"]),
                "bg",
                pa.schema([("bg", pa.string()), ("n", i64)]),
            ),
        },
        score_in_bucket,
        per_doc_schema,
        n_buckets=n_buckets,
        coalesce=True,
    ).union(ds.map_batches(doc_totals, batch_format="pyarrow"))

    # final per-doc sum: coarse doc-bucket map_groups, NOT the
    # Aggregate API — a ~doc-cardinality key through Ray's Aggregate
    # reduce is the measured 40x-CPU trap recorded in BASELINE.md
    # (clf_train, round 4); one vectorized pandas sum per bucket
    def sum_per_doc(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("doc_id", as_index=False)[
            ["n_bigrams", "fam_sum"]
        ].sum()
        return out.astype(np.int64)

    per_doc = cogroup(
        {"group": (per_bucket, "doc_id", per_doc_schema)},
        lambda group: sum_per_doc(group.to_pandas()),
        per_doc_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )

    def finish(batch: pa.Table) -> pa.Table:
        nb = batch["n_bigrams"].to_numpy(zero_copy_only=False).astype(np.int64)
        fs = batch["fam_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_bigrams": pa.array(nb, pa.int64()),
                "fam_sum": pa.array(fs, pa.int64()),
                "fam_milli": pa.array((1000 * fs) // nb, pa.int64()),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def phrase_count(
    ds: ray.data.Dataset,
    phrase: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Exact phrase-match counts via positional-postings intersection:
    (doc_id, n_matches) for every document where the phrase's words
    occur consecutively at least once (word alphabet = [a-z0-9]+ of
    lower(text), same as the rest of the text family).

    The scan emits postings (doc, word_index, position) ONLY for words
    that appear in the phrase — column pruning applied to the posting
    stream itself — then one doc-bucket exchange intersects
    pos(w_k) - k per doc. Phrases of length 1 degenerate to a term
    count; empty phrases are rejected.
    """
    pw = _words(phrase)
    if not pw:
        raise ValueError("phrase must contain at least one [a-z0-9]+ word")
    word_to_idx: dict[str, list[int]] = {}
    for k, w in enumerate(pw):
        word_to_idx.setdefault(w, []).append(k)
    n_words = len(pw)

    uniq_words = sorted(word_to_idx)
    # per unique phrase word: its widx list, for vectorized expansion
    widx_lists = [np.asarray(word_to_idx[w], dtype=np.int64) for w in uniq_words]

    def postings(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # vectorized tokenize: lower + split on non-[a-z0-9] in Arrow
        # C kernels; word positions are per-doc offsets into the flat
        # token stream (empties from leading/trailing separators are
        # skipped positionally, matching the regex-findall alphabet)
        low = pc.utf8_lower(
            pc.coalesce(batch[text_col], pa.scalar("", pa.string()))
        )
        split = pc.split_pattern_regex(low, r"[^a-z0-9]+")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        flat = split.flatten()
        offsets = split.offsets.to_numpy()
        n_flat = len(flat)
        nonempty = pc.invert(pc.equal(flat, "")).to_numpy(
            zero_copy_only=False
        ) if n_flat else np.empty(0, dtype=bool)
        doc_ids_np = (
            batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        # doc index of each flat token + position within its doc's
        # NON-EMPTY token sequence (exactly the findall order):
        # pos(i) = (# non-empty before i) - (# non-empty before the
        # doc's first token)
        doc_of = np.repeat(np.arange(len(doc_ids_np)), np.diff(offsets))
        if n_flat:
            cum_before = np.cumsum(nonempty) - nonempty
            starts = offsets[:-1]
            doc_start_cum = cum_before[starts.clip(max=n_flat - 1)]
            pos_in_doc = cum_before - doc_start_cum[doc_of]
        else:
            pos_in_doc = np.empty(0, dtype=np.int64)

        ids_l, idxs_l, poss_l = [], [], []
        for w, wl in zip(uniq_words, widx_lists):
            if not n_flat:
                break
            # Arrow C-kernel equality, not object-dtype numpy compare
            m = pc.equal(flat, w).to_numpy(zero_copy_only=False) & nonempty
            if not m.any():
                continue
            d = doc_ids_np[doc_of[m]]
            p = pos_in_doc[m]
            for k in wl:
                ids_l.append(d)
                idxs_l.append(np.full(len(d), k, dtype=np.int64))
                poss_l.append(p)
        if ids_l:
            ids = np.concatenate(ids_l)
            idxs = np.concatenate(idxs_l)
            poss = np.concatenate(poss_l)
        else:
            ids = idxs = poss = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "widx": pa.array(idxs, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
            }
        )

    def intersect_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized positional AND across the whole bucket: an
        # anchor (doc, p) survives iff word k appears at (doc, p + k)
        # for every k — one hash merge per phrase word, never a
        # per-document Python loop (measured: the loop version spent
        # its wall time iterating ~1M pandas groups)
        anchors = group.loc[group["widx"] == 0, ["doc_id", "pos"]]
        anchors = anchors.drop_duplicates()
        for k in range(1, n_words):
            wk = group.loc[group["widx"] == k, ["doc_id", "pos"]].copy()
            if anchors.empty or wk.empty:
                anchors = anchors.iloc[0:0]
                break
            wk["pos"] = wk["pos"] - k
            anchors = anchors.merge(
                wk.drop_duplicates(), on=["doc_id", "pos"], how="inner"
            )
        out = anchors.groupby("doc_id", as_index=False).size()
        out = out.rename(columns={"size": "n_matches"})
        return out.astype(np.int64)

    return cogroup(
        {
            "group": (
                ds.select_columns([id_col, text_col]).map_batches(
                    postings, batch_format="pyarrow"
                ),
                "doc_id",
            )
        },
        lambda group: intersect_in_bucket(group.to_pandas()),
        pa.schema([("doc_id", pa.int64()), ("n_matches", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )
