"""Corpus-level deduplication operators.

All shuffles here move NARROW data (hashes + ids), never full documents:

  - exact dedup: per-batch partial aggregation (hash -> min id, count)
    BEFORE the groupby, so the all-to-all exchange carries one row per
    distinct hash per batch instead of one per document
  - MinHash-LSH near-dup: shingle -> 64-perm minhash per batch
    (vectorized numpy over crc32 shingle hashes, deterministic across
    processes — no PYTHONHASHSEED dependence) -> explode to
    (band, band_hash, doc_id) rows -> push to band-hash-owned shard
    actors -> candidate pairs -> exact-Jaccard verification
  - SimHash near-dup: 64-bit sign-sum sketch, 4x16-bit band blocking,
    Hamming-distance verification

Verification picks its path from the counted candidate pair table.
At most ``AUTO_BROADCAST_MAX`` pairs take the broadcast path
(candidate texts broadcast via ``ray.put``; its driver state scales
with the near-dup fraction, not the corpus). More take the bucket
path, a hash-partitioned pair join that never touches the driver:
candidate pairs dedupe in a coarse pair-bucket groupby, candidate
texts are selected by an id-bucketed cogroup semi-join (the only
corpus-sized exchange), and each pair picks up its two texts through
candidate-sized cogroup joins before a streaming exact-Jaccard
verify. The LSH banding itself carries 16 x 8-byte keys per
document.

Order of operations at corpus scale: run ``exact_dedup`` BEFORE the
near-dup passes. MinHash/SimHash candidate generation is O(pairs
within a band bucket) — a corpus with large exact-duplicate clusters
(k copies -> k^2/2 candidate pairs per cluster) pays quadratically for
work the exact pass removes linearly. Measured: 505k unique docs +
5k planted pairs verify in ~21 s, while the same row count drawn from
only 5k distinct texts (~100x duplication) generates ~25M candidate
pairs.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import zlib

import numpy as np
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup, exchange_width
from pdf_extractor_ray.functions.shards import Shard, push, shard_actors

__all__ = [
    "md5_hex",
    "exact_dedup_summary",
    "exact_dedup",
    "key_dedup_summary",
    "incremental_dedup",
    "content_hashes",
    "minhash_signature",
    "minhash_band_table",
    "minhash_candidates",
    "minhash_dedup_pairs",
    "incremental_minhash",
    "simhash64",
    "simhash_dedup_pairs",
    "hash64_pairs",
    "ngram_jaccard",
    "jaccard_join_prefix",
    "dup_ngram_span_stats",
    "exact_dup_spans",
    "scd2_history",
]

_WORD_RE = re.compile(r"\S+")

# candidate-pair count up to which verification broadcasts the
# candidate texts instead of running the bucket path (read per call)
AUTO_BROADCAST_MAX = 50_000

# 64 fixed random-ish odd multipliers/offsets for the minhash
# permutations (seeded once at import; deterministic).
_N_PERM = 64
_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(42)
_PERM_A = _rng.randint(1, _MERSENNE, size=_N_PERM, dtype=np.int64) | 1
_PERM_B = _rng.randint(0, _MERSENNE, size=_N_PERM, dtype=np.int64)


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("utf-8", errors="replace")).hexdigest()


# ---------------------------------------------------------------- exact


def exact_dedup_summary(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Per distinct content hash: the kept (minimum) id and the
    duplicate count.

    Shuffle carries per-batch partials (one row per distinct hash per
    batch), keyed by a COARSE bucket of the hash — a corpus has one
    group per distinct document, and keying the exchange on the raw
    hash put millions of groups into the aggregate machinery (the
    10M-row pathology fixed across this repo); the fine merge is a
    vectorized pandas groupby inside each bucket."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_pylist()
        agg: dict[str, list] = {}
        for i, t in zip(ids, texts):
            h = md5_hex(t or "")
            cur = agg.get(h)
            if cur is None:
                agg[h] = [i, 1]
            else:
                cur[0] = min(cur[0], i)
                cur[1] += 1
        hashes = list(agg.keys())
        return pa.table(
            {
                "text_hash": hashes,
                "keep_doc_id": [v[0] for v in agg.values()],
                "dup_count": [v[1] for v in agg.values()],
            }
        )

    def merge(rows: pa.Table):
        return rows.to_pandas().groupby("text_hash", as_index=False).agg(
            keep_doc_id=("keep_doc_id", "min"), dup_count=("dup_count", "sum")
        )

    return cogroup(
        {"rows": (ds.map_batches(partial, batch_format="pyarrow"), "text_hash")},
        merge,
        lambda rows: pa.schema(
            [("text_hash", pa.string()), rows.field("keep_doc_id"), ("dup_count", pa.int64())]
        ),
        n_buckets=1024,
        coalesce=True,
    )


def exact_dedup(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Keep the minimum-id row per distinct content hash.

    Shuffle shape: the partition key is a COARSE bucket of the hash
    (1024 of them), not the hash itself — a corpus has one group per
    distinct document and per-group task overhead would dominate. Rows
    co-locate by hash inside a bucket, where a vectorized pandas
    sort + drop_duplicates keeps the min-id row per hash. One pass,
    one shuffle (unavoidable: the output is full surviving rows).
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t or "") for t in batch[text_col].to_pylist()]
        return batch.append_column("text_hash", pa.array(hashes, pa.string()))

    def keep_first(rows: pa.Table):  # one coarse bucket of rows
        g = rows.to_pandas().sort_values(["text_hash", id_col])
        return g.drop_duplicates(subset=["text_hash"], keep="first")

    return cogroup(
        {"rows": (ds.map_batches(add_hash, batch_format="pyarrow"), "text_hash")},
        keep_first,
        lambda rows: rows,
        n_buckets=1024,
        coalesce=False,
    )


def key_dedup_summary(
    ds: ray.data.Dataset, key_col: str = "url", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Exact dedup on a key column (url-dedup, SURVEY.md §7.1 step 8):
    per distinct key, the kept (minimum) id and the duplicate count.

    Same shuffle shape as ``exact_dedup_summary``: per-batch partials
    (one row per distinct key per batch), a coarse key-bucket exchange,
    and a vectorized in-bucket merge — never one aggregate group per
    distinct key.
    """

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table({key_col: batch[key_col], id_col: batch[id_col]}).to_pandas()
        g = df.groupby(key_col, as_index=False).agg(
            keep_doc_id=(id_col, "min"), dup_count=(id_col, "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(rows: pa.Table):
        return rows.to_pandas().groupby(key_col, as_index=False).agg(
            keep_doc_id=("keep_doc_id", "min"), dup_count=("dup_count", "sum")
        )

    return cogroup(
        {"rows": (ds.map_batches(partial, batch_format="pyarrow"), key_col)},
        merge,
        lambda rows: pa.schema(
            [rows.field(key_col), rows.field("keep_doc_id"), ("dup_count", pa.int64())]
        ),
        n_buckets=1024,
        coalesce=True,
    )


def content_hashes(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """Project a corpus to its content-hash column (the persisted
    "seen" side of incremental dedup — what a crawl pipeline keeps
    between dumps)."""

    def to_hash(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "text_hash": pa.array(
                    [md5_hex(t or "") for t in batch[text_col].to_pylist()],
                    pa.string(),
                )
            }
        )

    return ds.map_batches(to_hash, batch_format="pyarrow")


def incremental_dedup(
    new_ds: ray.data.Dataset,
    known_hashes: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 512,
) -> ray.data.Dataset:
    """Cross-dump dedup: keep only NEW documents whose content hash is
    absent from ``known_hashes`` (a Dataset with a ``text_hash``
    column — e.g. the persisted output of ``content_hashes`` over all
    previous crawl dumps).

    Distributed shape: a bucketed cogroup ANTI-join. Both sides key on
    a coarse bucket of the hash (one exchange each, narrow rows:
    hash + id), each bucket co-locates, and a vectorized isin drops
    the already-seen rows. Neither side broadcasts, nothing touches
    the driver — at 100 TB the known side is itself corpus-sized
    (every hash ever crawled) and must shuffle, not ship.
    Output: (id_col, text_hash) of the surviving new documents.
    """

    def tag_new(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t or "") for t in batch[text_col].to_pylist()]
        return pa.table(
            {id_col: batch[id_col], "text_hash": pa.array(hashes, pa.string())}
        )

    def anti(new: pa.Table, known: pa.Table):
        seen = set(known["text_hash"].to_pylist())
        new = new.to_pandas()
        return new[~new["text_hash"].isin(seen)]

    out_schema = pa.schema([(id_col, pa.int64()), ("text_hash", pa.string())])
    return cogroup(
        {
            "new": (new_ds.map_batches(tag_new, batch_format="pyarrow"), "text_hash", out_schema),
            "known": (
                known_hashes.select_columns(["text_hash"]),
                "text_hash",
                pa.schema([("text_hash", pa.string())]),
            ),
        },
        anti,
        out_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )


# Per-worker cache of broadcast verify sides (keyed by object ref hex):
# Arrow bytes live zero-copy in plasma; the Python dict view of them is
# built once per process, not once per batch.
_VERIFY_SIDE_CACHE: dict = {}


def _verify_side_cached(side_ref, id_col: str, text_col: str) -> dict:
    key = side_ref.hex()
    cached = _VERIFY_SIDE_CACHE.get(key)
    if cached is None:
        side_t = ray.get(side_ref)
        cached = dict(
            zip(side_t[id_col].to_pylist(), side_t[text_col].to_pylist())
        )
        _VERIFY_SIDE_CACHE.clear()  # one corpus at a time per worker
        _VERIFY_SIDE_CACHE[key] = cached
    return cached


# ------------------------------------------------- duplicate ngram spans


# position-weight base for the rolling n-gram combine (odd 64-bit)
_NGRAM_P = np.uint64(0x9E3779B97F4A7C15)


def _batch_word_hashes(
    texts: list, n: int
) -> tuple[list[list[str]], np.ndarray, np.ndarray]:
    """The word-hash step of the n-gram and shingle kernels: each doc's
    lowercased words, ONE vectorized ``pandas.util.hash_array`` call
    over every word in the batch (SipHash at C speed; uint64, docs
    concatenated in order), and the ``n`` position weights
    ``_NGRAM_P ** j`` that combine a window of word hashes into one
    uint64 polynomial."""
    import pandas as pd

    per_doc_words = [_WORD_RE.findall((t or "").lower()) for t in texts]
    flat = [w for ws in per_doc_words for w in ws]
    if flat:
        wh = pd.util.hash_array(np.array(flat, dtype=object), categorize=False)
    else:
        wh = np.empty(0, dtype=np.uint64)
    return per_doc_words, wh, _NGRAM_P ** np.arange(n, dtype=np.uint64)


def _batch_ngram_hashes(texts: list, n: int) -> list[np.ndarray]:
    """Per-doc uint64 n-gram position hashes for a whole batch.

    Each doc's n-gram hash is a position-weighted uint64 polynomial
    over a sliding window of its word hashes (`_batch_word_hashes`; the
    per-ngram md5 loop this replaced cost ~25 s of worker CPU per 16M
    positions). The span oracle groups on the n-gram STRING, so the
    hash only needs to be deterministic and collision-sparse (64-bit —
    ~1e-5 collision odds at 16M distinct n-grams), not
    SQL-replayable."""
    per_doc_words, wh, powers = _batch_word_hashes(texts, n)
    out: list[np.ndarray] = []
    pos = 0
    for ws in per_doc_words:
        m = len(ws)
        if m < n:
            out.append(np.empty(0, dtype=np.uint64))
        else:
            win = np.lib.stride_tricks.sliding_window_view(
                wh[pos : pos + m], n
            )
            out.append((win * powers).sum(axis=1, dtype=np.uint64))
        pos += m
    return out


def dup_ngram_span_stats(
    ds: ray.data.Dataset,
    n: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-document exact substring-duplication signal (Lee et al.
    2022, "Deduplicating Training Data Makes Language Models Better"):
    for each doc, how many of its word n-gram positions carry an
    n-gram that occurs more than once in the WHOLE corpus (other docs
    or repeats within the same doc). Output: (doc_id, n_ngrams,
    n_dup), both BIGINT; docs with < n words appear with zeros.

    Scale shape: per-batch (doc, hash)->count partials, ONE coarse
    hash-bucket exchange to total each n-gram and classify positions,
    then ONE coarse doc-bucket exchange summing per-doc partials.
    Never a per-ngram group, never a driver materialization; skew-safe
    because md5 buckets are uniform regardless of text skew.
    n_buckets defaults to 8x the coalesce width (cluster-proportional:
    enough groups for parallelism, few enough that per-group task
    overhead stays amortized).
    """
    if n_buckets is None:
        n_buckets = 8 * exchange_width()
    doc_buckets = 2 * exchange_width()

    def emit(batch: pa.Table) -> pa.Table:
        ids_out: list[np.ndarray] = []
        hs_out: list[np.ndarray] = []
        cnt_out: list[np.ndarray] = []
        per_doc = _batch_ngram_hashes(batch[text_col].to_pylist(), n)
        for i, hs64 in zip(batch[id_col].to_pylist(), per_doc):
            hs = hs64.view(np.int64)
            if len(hs) == 0:
                # per-doc sentinel (negative: the &-masked hashes below
                # can't produce it) keeps empty docs in the output with
                # zero counts
                ids_out.append(np.array([i], dtype=np.int64))
                hs_out.append(np.array([-1 - (i % 1024)], dtype=np.int64))
                cnt_out.append(np.zeros(1, dtype=np.int64))
                continue
            hs = hs & np.int64(0x7FFFFFFFFFFFFFFF)
            uh, c = np.unique(hs, return_counts=True)
            ids_out.append(np.full(len(uh), i, dtype=np.int64))
            hs_out.append(uh)
            cnt_out.append(c.astype(np.int64))
        ids_np = np.concatenate(ids_out) if ids_out else np.empty(0, np.int64)
        hs_np = np.concatenate(hs_out) if hs_out else np.empty(0, np.int64)
        cnt_np = np.concatenate(cnt_out) if cnt_out else np.empty(0, np.int64)
        return pa.table(
            {
                "h": pa.array(hs_np),
                id_col: pa.array(ids_np),
                "cnt": pa.array(cnt_np),
            }
        )

    def per_hash_bucket(group):
        import pandas as pd

        # pure numpy (bincount over unique-inverse) — a pandas
        # groupby-transform here costs ~10ms/group of fixed overhead,
        # which dominates when buckets are small
        h = group["h"].to_numpy()
        cnt = group["cnt"].to_numpy()
        ids = group[id_col].to_numpy()
        uh, hinv = np.unique(h, return_inverse=True)
        tot = np.bincount(hinv, weights=cnt)
        dup = np.where(tot[hinv] > 1, cnt, 0)
        uid, dinv = np.unique(ids, return_inverse=True)
        return pd.DataFrame(
            {
                id_col: uid,
                "tot_partial": np.bincount(dinv, weights=cnt).astype(np.int64),
                "dup_partial": np.bincount(dinv, weights=dup).astype(np.int64),
            }
        )

    def per_doc_bucket(group):
        g = group.groupby(id_col, as_index=False)[
            ["tot_partial", "dup_partial"]
        ].sum()
        return g.rename(
            columns={"tot_partial": "n_ngrams", "dup_partial": "n_dup"}
        )

    i64 = pa.int64()
    partials = cogroup(
        {"pairs": (ds.map_batches(emit, batch_format="pyarrow"), "h")},
        lambda pairs: per_hash_bucket(pairs.to_pandas()),
        pa.schema([(id_col, i64), ("tot_partial", i64), ("dup_partial", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return cogroup(
        {"partials": (partials, id_col)},
        lambda partials: per_doc_bucket(partials.to_pandas()),
        pa.schema([(id_col, i64), ("n_ngrams", i64), ("n_dup", i64)]),
        n_buckets=doc_buckets,
        coalesce=True,
    )


def _dup_positions(
    ds: ray.data.Dataset, n: int, text_col: str, id_col: str, n_buckets: int
) -> ray.data.Dataset:
    """(id_col, pos) of every word n-gram window that occurs more than
    once corpus-wide: one row per window position (its 63-bit hash
    ``h``) goes into a coarse hash-bucket exchange that totals each
    hash and keeps only duplicated positions."""

    def emit_positions(batch: pa.Table) -> pa.Table:
        ids_out, hs_out, pos_out = [], [], []
        per_doc = _batch_ngram_hashes(batch[text_col].to_pylist(), n)
        for i, hs64 in zip(batch[id_col].to_pylist(), per_doc):
            # a doc shorter than n words has no window
            if len(hs64) == 0:
                continue
            hs = hs64.view(np.int64) & np.int64(0x7FFFFFFFFFFFFFFF)
            ids_out.append(np.full(len(hs), i, dtype=np.int64))
            hs_out.append(hs)
            pos_out.append(np.arange(len(hs), dtype=np.int64))
        if not ids_out:
            return pa.table(
                {
                    "h": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                }
            )
        hs_np = np.concatenate(hs_out)
        return pa.table(
            {
                "h": pa.array(hs_np),
                id_col: pa.array(np.concatenate(ids_out)),
                "pos": pa.array(np.concatenate(pos_out)),
            }
        )

    def dup_positions(group: pa.Table) -> pa.Table:
        # all-numeric group: pyarrow format, zero-copy numpy views
        h = group["h"].to_numpy(zero_copy_only=False)
        _, hinv, tot = np.unique(h, return_inverse=True, return_counts=True)
        keep = tot[hinv] > 1
        ids = group[id_col].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                id_col: pa.array(ids),
                "pos": pa.array(
                    group["pos"].to_numpy(zero_copy_only=False)[keep]
                ),
            }
        )

    i64 = pa.int64()
    return cogroup(
        {"group": (ds.map_batches(emit_positions, batch_format="pyarrow"), "h")},
        dup_positions,
        pa.schema([(id_col, i64), ("pos", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def exact_dup_spans(
    ds: ray.data.Dataset,
    min_len: int = 50,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """EXACT any-length >= ``min_len`` duplicated-substring spans —
    the detection step of Lee et al. 2022 ("Deduplicating Training
    Data Makes Language Models Better") with their 50-token rule,
    emitted as per-doc maximal intervals (doc_id, span_start,
    span_len) over the lowercased word sequence.

    Why no suffix array: Lee et al. build one to find all substrings
    of length >= L that occur twice. For the COVERAGE semantics their
    removal step actually uses, a fixed window at k = L is exact:

      a position p lies inside SOME corpus-duplicated substring of
      length >= L  <=>  some L-window containing p is duplicated.

      (=>) a duplicated substring s ∋ p with |s| >= L contains an
      L-window around p — pick start clamp(p-L+1, a, a+|s|-L) for s
      at [a, a+|s|) — and every window inside a duplicated substring
      is itself duplicated. (<=) a duplicated L-window IS a
      duplicated substring of length L >= L containing p.

    So hashing every L-word window (the vectorized sliding-window
    polynomial kernel, `_batch_ngram_hashes`) and unioning duplicated
    window intervals produces EXACTLY the positions a suffix-array
    pass would mark — in two bucketed exchanges instead of a
    distributed suffix sort. This is NOT the round-4
    ``strip_dup_spans(n=5, min_span_words=50)`` proxy, which marks
    positions covered by duplicated *5*-grams and then keeps runs of
    >= 50: two adjacent 30-word blocks duplicated from DIFFERENT
    sources chain into a 60-run the proxy cuts even though no
    50-token substring is duplicated anywhere (the planted-chimera
    pytest + the `suffix_dup_spans` oracle pin this divergence).

    Removal form: ``strip_dup_spans(ds, n=min_len)`` (min_span_words
    left 0) cuts exactly these intervals and rebuilds kept_text.

    Scale shape: exchange 1 ships one row per L-window position into
    a coarse hash-bucket groupby that keeps duplicated positions;
    exchange 2 cogroups the survivors per doc bucket and folds them
    into maximal intervals with the +1/-1 diff-array union. Driver
    holds nothing corpus-proportional. Window hashes are 63-bit
    polynomial values — collisions (~1e-5 at 16M distinct windows)
    can only over-mark, the same contract as the n-gram family.
    """
    n = int(min_len)
    if n_buckets is None:
        n_buckets = 8 * exchange_width()
    doc_buckets = 2 * exchange_width()

    def runs(group: pa.Table) -> pa.Table:
        ids_all = group[id_col].to_numpy(zero_copy_only=False)
        pos_all = group["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos_all, ids_all))
        ids_all, pos_all = ids_all[order], pos_all[order]
        uids, first_idx = np.unique(ids_all, return_index=True)
        out_id, out_s, out_l = [], [], []
        for i, ps in zip(uids.tolist(), np.split(pos_all, first_idx[1:])):
            # interval union over [p, p+n): maximal islands via the
            # +1/-1 diff array, sized by the largest endpoint
            m = int(ps[-1]) + n
            diff = np.zeros(m + 1, dtype=np.int64)
            np.add.at(diff, ps, 1)
            np.add.at(diff, ps + n, -1)
            mask = np.cumsum(diff[:m]) > 0
            mm = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
            starts = np.flatnonzero(mm == 1)
            ends = np.flatnonzero(mm == -1)
            out_id.extend([int(i)] * len(starts))
            out_s.extend(starts.tolist())
            out_l.extend((ends - starts).tolist())
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "span_start": pa.array(out_s, pa.int64()),
                "span_len": pa.array(out_l, pa.int64()),
            }
        )

    i64 = pa.int64()
    dups = _dup_positions(ds, n, text_col, id_col, n_buckets)
    return cogroup(
        {"group": (dups, id_col)},
        runs,
        pa.schema([(id_col, i64), ("span_start", i64), ("span_len", i64)]),
        n_buckets=doc_buckets,
        coalesce=True,
    )


def strip_dup_spans(
    ds: ray.data.Dataset,
    n: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int | None = None,
    min_span_words: int = 0,
) -> ray.data.Dataset:
    """The REMOVAL step of Lee et al. 2022 exact substring dedup: cut
    every word position covered by a word n-gram that occurs more than
    once corpus-wide, then re-join the survivors. Output one row per
    input doc: (doc_id, n_words, n_removed, kept_text) where kept_text
    joins the surviving lowercased words with single spaces (the
    operator's contract is over the normalized word sequence, same
    tokenization as :func:`dup_ngram_span_stats`).

    ``min_span_words > 0`` applies Lee et al.'s actual threshold rule
    (their 50-token minimum): adjacent/overlapping duplicated n-gram
    positions merge into MAXIMAL spans first, and only maximal spans
    of at least ``min_span_words`` words are cut — an isolated
    duplicated 5-gram survives a ``min_span_words=50`` run, a 60-word
    verbatim block does not. Values ``<= n`` are a no-op (every
    maximal span is at least ``n`` words long by construction).

    Scale shape: exchange 1 carries one row per n-gram POSITION into a
    coarse hash-bucket groupby that totals each n-gram and keeps only
    duplicated positions — the honest currency of substring dedup;
    exchange 2 is a doc-bucket cogroup of (texts ∪ dup positions), so
    each doc's cut happens once, in its bucket, with numpy
    interval-union masking. Driver holds nothing corpus-proportional;
    no per-ngram groups; md5-free (vectorized hash_array n-grams).
    """
    if n_buckets is None:
        n_buckets = 8 * exchange_width()
    doc_buckets = 2 * exchange_width()

    # two consumers below (position pass + text tag); a lazy input
    # would re-run its whole upstream lineage per consumer, and a
    # nondeterministic upstream would make the position pass and the
    # text pass disagree — materialize once unconditionally (same
    # contract as sequence_pack)
    ds = ds.materialize()

    def tag_texts(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch[id_col], text_col: batch[text_col]})

    def cut(dup: pa.Table, docs: pa.Table) -> pa.Table:
        # ints zero-copy; TEXT materializes Python strings only for the
        # doc rows
        doc_ids = docs[id_col].to_numpy(zero_copy_only=False)
        doc_texts = docs[text_col].to_pylist()
        p_ids = dup[id_col].to_numpy(zero_copy_only=False)
        p_pos = dup["pos"].to_numpy(zero_copy_only=False)
        order = np.argsort(p_ids, kind="stable")
        p_ids, p_pos = p_ids[order], p_pos[order]
        uids, first_idx = np.unique(p_ids, return_index=True)
        starts_by_doc: dict[int, np.ndarray] = dict(
            zip(uids.tolist(), np.split(p_pos, first_idx[1:]))
        )
        out_id: list[int] = []
        out_nw: list[int] = []
        out_rm: list[int] = []
        out_txt: list[str] = []
        for i, t in zip(doc_ids, doc_texts):
            words = _WORD_RE.findall((t or "").lower())
            m = len(words)
            ps = starts_by_doc.get(int(i))
            if ps is None or m == 0:
                out_id.append(int(i))
                out_nw.append(m)
                out_rm.append(0)
                out_txt.append(" ".join(words))
                continue
            # interval-union mask over [p, p+n) via a +1/-1 diff array
            diff = np.zeros(m + n + 1, dtype=np.int64)
            np.add.at(diff, ps, 1)
            np.add.at(diff, ps + n, -1)
            mask = np.cumsum(diff[:m]) > 0
            if min_span_words > n:
                # keep only MAXIMAL covered runs >= the threshold:
                # run boundaries from the mask's edge diffs, then the
                # same diff-array trick rebuilds the filtered mask
                mm = np.diff(
                    np.concatenate(([0], mask.astype(np.int8), [0]))
                )
                starts = np.flatnonzero(mm == 1)
                ends = np.flatnonzero(mm == -1)
                long = (ends - starts) >= min_span_words
                diff2 = np.zeros(m + 1, dtype=np.int64)
                np.add.at(diff2, starts[long], 1)
                np.add.at(diff2, ends[long], -1)
                mask = np.cumsum(diff2[:m]) > 0
            kept = [w for w, dead in zip(words, mask) if not dead]
            out_id.append(int(i))
            out_nw.append(m)
            out_rm.append(int(mask.sum()))
            out_txt.append(" ".join(kept))
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "n_words": pa.array(out_nw, pa.int64()),
                "n_removed": pa.array(out_rm, pa.int64()),
                "kept_text": pa.array(out_txt, pa.string()),
            }
        )

    i64 = pa.int64()
    pos_schema = pa.schema([(id_col, i64), ("pos", i64)])
    dup_pos = _dup_positions(ds, n, text_col, id_col, n_buckets)
    return cogroup(
        {
            "dup": (dup_pos, id_col, pos_schema),
            "docs": (
                ds.map_batches(tag_texts, batch_format="pyarrow"),
                id_col,
                pa.schema([(id_col, i64), (text_col, pa.string())]),
            ),
        },
        cut,
        pa.schema(
            [(id_col, i64), ("n_words", i64), ("n_removed", i64), ("kept_text", pa.string())]
        ),
        n_buckets=doc_buckets,
        coalesce=True,
    )


# -------------------------------------------------------------- minhash


def _batch_shingle_hashes(texts: list, k: int = 3) -> list[np.ndarray]:
    """Per-doc int64 hashes of the UNIQUE word k-shingles for a whole
    batch, fully vectorized: ONE ``pandas.util.hash_array`` call hashes
    every word in the batch (SipHash at C speed), then each shingle's
    hash is a position-weighted uint64 polynomial over a sliding window
    of its word hashes — the `_batch_ngram_hashes` pattern, replacing
    the former per-shingle ``zlib.crc32`` Python loop AND the per-
    shingle string construction it hashed. Hash identity is internal:
    LSH candidate sets depend on it only via recall, and hashed-set
    Jaccard equals string-set Jaccard modulo 64-bit collisions
    (~1e-5 odds at 16M distinct shingles). Docs shorter than ``k``
    words hash their whole word sequence as one shingle; empty docs
    hash to the single constant 0 (matching the old ``crc32(b"")``)."""
    per_doc_words, wh, powers = _batch_word_hashes(texts, k)
    mask = np.int64(0x7FFFFFFFFFFFFFFF)
    out: list[np.ndarray] = []
    pos = 0
    for ws in per_doc_words:
        m = len(ws)
        if m == 0:
            h = np.zeros(1, dtype=np.int64)
        elif m < k:
            v = (wh[pos : pos + m] * powers[:m]).sum(dtype=np.uint64)
            h = np.array([v], dtype=np.uint64).view(np.int64) & mask
        else:
            win = np.lib.stride_tricks.sliding_window_view(
                wh[pos : pos + m], k
            )
            h = (
                (win * powers).sum(axis=1, dtype=np.uint64).view(np.int64)
                & mask
            )
        out.append(np.unique(h))
        pos += m
    return out


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Unique word-k-shingle hashes of one text (deterministic across
    processes); thin wrapper over the vectorized batch kernel."""
    return _batch_shingle_hashes([text], k)[0]


# cap on shingle positions per perm-matmul chunk: 64 perms x 64k
# shingles x 8 B = 32 MiB of transient int64 — bounded regardless of
# batch size or document length
_SIG_CHUNK_SHINGLES = 65536


def _batch_minhash_signatures(texts: list, k: int = 3) -> np.ndarray:
    """(n_docs, 64) int64 minhash signatures for a whole batch: one
    perm "matmul" per bounded chunk of concatenated shingle hashes with
    a ``np.minimum.reduceat`` segment-min per doc, instead of a Python-
    level 64-perm matmul call per document."""
    hs = _batch_shingle_hashes(texts, k)
    n = len(hs)
    if n == 0:
        return np.empty((0, _N_PERM), dtype=np.int64)
    sigs = np.empty((n, _N_PERM), dtype=np.int64)
    start = 0
    while start < n:
        end, tot = start, 0
        # every doc contributes >= 1 hash, so the chunk always advances
        while end < n and (tot == 0 or tot + len(hs[end]) <= _SIG_CHUNK_SHINGLES):
            tot += len(hs[end])
            end += 1
        allh = np.concatenate(hs[start:end])
        vals = (
            _PERM_A[:, None] * allh[None, :] + _PERM_B[:, None]
        ) % _MERSENNE  # (64, tot) — int64 wrap-mangle, same as before
        offs = np.zeros(end - start, dtype=np.int64)
        np.cumsum(
            [len(h) for h in hs[start : end - 1]], out=offs[1:]
        )
        sigs[start:end] = np.minimum.reduceat(vals, offs, axis=1).T
        start = end
    return sigs


def minhash_signature(text: str, k: int = 3) -> np.ndarray:
    """64-perm minhash signature (int64[64])."""
    return _batch_minhash_signatures([text], k)[0]


# Odd multipliers for the vectorized band hash (splitmix-style mixing;
# any deterministic injective-ish combine works — identical signatures
# always produce identical band hashes, which is the only property the
# LSH banding relies on). The first four are pinned (test-pinned band
# hashes for the default n_bands=16); rows beyond four — any n_bands
# that divides 64, e.g. n_bands=8 -> 8 rows — extend via splitmix64 of
# the row index, so every valid n_bands works.
_BAND_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93],
    dtype=np.uint64,
)


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _band_mix(rows: int) -> np.ndarray:
    if rows <= len(_BAND_MIX):
        return _BAND_MIX[:rows]
    extra = [
        np.uint64(_splitmix64(j) | 1) for j in range(len(_BAND_MIX), rows)
    ]
    return np.concatenate([_BAND_MIX, np.array(extra, dtype=np.uint64)])


def _band_hashes(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, 64) signatures -> (n_docs, n_bands) int64 band hashes,
    fully vectorized (no per-band Python hashing)."""
    n, width = sigs.shape
    rows, rem = divmod(width, n_bands)
    if rem:
        raise ValueError(
            f"n_bands={n_bands} must divide the signature width {width}"
        )
    bands = sigs.astype(np.uint64).reshape(n, n_bands, rows)
    mix = _band_mix(rows)
    acc = np.zeros((n, n_bands), dtype=np.uint64)
    for j in range(rows):
        acc ^= (bands[:, :, j] + np.uint64(j + 1)) * mix[j]
        acc ^= acc >> np.uint64(29)
    return acc.view(np.int64)


def minhash_band_table(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_bands: int = 16,
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """(doc_id, band, band_hash) LSH band rows for every document —
    n_bands rows per doc, one shuffle-free vectorized pass.

    This IS the persistable minhash signature store (the band rows are
    all that LSH probing ever reads): ``write_parquet`` its output
    after each crawl dump and feed it back to
    :func:`incremental_minhash` as the ``store`` side when the next
    dump arrives — the cross-dump analogue of the ``content_hashes``
    parquet-store pattern used by :func:`incremental_dedup`."""

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        if not ids:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        sigs = _batch_minhash_signatures(
            [t or "" for t in texts], shingle_k
        )  # (n, 64), one vectorized pass over the whole batch
        hashes = _band_hashes(sigs, n_bands)  # (n, n_bands), vectorized
        n = len(ids)
        return pa.table(
            {
                "band": pa.array(
                    np.tile(np.arange(n_bands, dtype=np.int32), n)
                ),
                "band_hash": pa.array(hashes.ravel()),
                "doc_id": pa.array(
                    np.repeat(np.asarray(ids, dtype=np.int64), n_bands)
                ),
            }
        )

    return ds.map_batches(to_bands, batch_format="pyarrow")


@ray.remote
class _BandShard(Shard):
    """Owns one hash range of the LSH band space. ``emit_pairs``
    lexsorts the pushed (band, band_hash, doc_id) rows LOCALLY (C
    speed) and run-detects colliding groups — the sort-based
    shuffle's work without its machinery."""

    def __init__(self, sid: int, n: int, max_bucket: int) -> None:
        super().__init__(sid, n)
        self.max_bucket = max_bucket

    def emit_pairs(self) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
            }
        )
        band, h = self.take("band"), self.take("band_hash")
        ids = self.take("doc_id")
        if not len(ids):
            return empty
        order = np.lexsort((ids, h, band))
        band, h, ids = band[order], h[order], ids[order]
        # a replayed push (task retry) repeats whole rows: keep one, so
        # a doc never pairs with itself or crowds the max_bucket window
        first = np.ones(len(h), bool)
        first[1:] = (band[1:] != band[:-1]) | (h[1:] != h[:-1]) | (ids[1:] != ids[:-1])
        band, h, ids = band[first], h[first], ids[first]
        new = np.ones(len(h), bool)
        new[1:] = (band[1:] != band[:-1]) | (h[1:] != h[:-1])
        grp = np.cumsum(new) - 1
        counts = np.bincount(grp)
        multi = np.flatnonzero(counts >= 2)
        if len(multi) == 0:
            return empty
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        seen: set[tuple] = set()
        for g in multi:
            s = int(starts[g])
            sub = ids[s : s + int(counts[g])][: self.max_bucket]
            seen.update(itertools.combinations(sub.tolist(), 2))
        out = sorted(seen)
        return pa.table(
            {
                "doc_a": pa.array([p[0] for p in out], pa.int64()),
                "doc_b": pa.array([p[1] for p in out], pa.int64()),
            }
        )


def minhash_candidates(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_bands: int = 16,
    shingle_k: int = 3,
    max_bucket: int = 200,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Candidate near-dup pairs via LSH banding.

    Emits unique (doc_a < doc_b) pairs from any shared band bucket.
    Each (band, band_hash) group keeps its ``max_bucket`` smallest ids
    before pairing — a hot bucket at corpus scale means a degenerate
    shingle (boilerplate); salt or drop it rather than exploding
    O(n^2) pairs.

    The band rows are pushed into ``_BandShard`` actors, owner
    ``uint64(band_hash) % S``, that lexsort locally — none of Ray's
    sort machinery (the band stream is 16 rows/doc and a sort-based
    groupby was 3x the signature cost at 1M docs; A/B in
    BASELINE.md). A pair can come from more than one shard (one per
    colliding band); callers dedupe the (small) candidate set
    (`_dedupe_pairs_bucketed` / the verified output).
    """
    bands = minhash_band_table(ds, text_col, id_col, n_bands, shingle_k)
    with shard_actors(_BandShard, n_shards, max_bucket) as shards:
        S = np.uint64(len(shards))

        def by_band_hash(batch: pa.Table):
            cols = {
                c: batch[c].to_numpy(zero_copy_only=False)
                for c in ("band", "band_hash", "doc_id")
            }
            h = cols["band_hash"].astype(np.uint64)
            return (h % S).astype(np.int64), cols

        push(bands, shards, by_band_hash)
        return ray.data.from_arrow_refs(
            [s.emit_pairs.remote() for s in shards]
        ).materialize()


def _dedupe_pairs_bucketed(
    cand: ray.data.Dataset, n_buckets: int = 128
) -> ray.data.Dataset:
    """Drop cross-bucket duplicate (doc_a, doc_b) rows WITHOUT funneling
    everything through one partition: key each pair on a coarse hash
    bucket of the pair itself (all copies of a pair land in the same
    bucket), then a vectorized drop_duplicates inside each bucket."""

    def add_pb(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pb = (a * np.uint64(0x9E3779B97F4A7C15) + b) % np.uint64(n_buckets)
        return batch.append_column("_pb", pa.array(pb.astype(np.int64)))

    def dd(rows: pa.Table):
        return rows.to_pandas().drop_duplicates(subset=["doc_a", "doc_b"])

    return cogroup(
        {"rows": (cand.map_batches(add_pb, batch_format="pyarrow"), "_pb")},
        dd,
        lambda rows: pa.schema([f for f in rows if f.name != "_pb"]),
        n_buckets=n_buckets,
        coalesce=False,
    )


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-gram Jaccard similarity."""
    a = set(_shingle_hashes(text_a, k).tolist())
    b = set(_shingle_hashes(text_b, k).tolist())
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def minhash_dedup_pairs(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_k: int = 3,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """LSH candidates verified by exact n-gram Jaccard >= threshold.

    The verify path is chosen from a count: the candidate-pair table
    is materialized (narrow: 2 int64/row; both paths consume it
    materialized anyway) and counted from its metadata.

    - At most ``AUTO_BROADCAST_MAX`` pairs: the broadcast path. The
      (provably small) pair table is collected driver-side, the
      distinct candidate ids select texts via a broadcast-filter pass,
      and verify tasks read the candidate-sized broadcast — cheaper
      while candidates fit on one node, which a 30%-dup 100 TB crawl
      would not.
    - More: the bucket path (the 100 TB path) keeps everything on the
      cluster. Candidate pairs dedupe in a coarse pair-bucket groupby,
      a bounded Bloom filter of candidate ids (built on-cluster, OR-ed
      on the driver as a stream of fixed-size bitmaps) prefilters the
      corpus, and the candidate-sized remainder flows through two
      bucketed cogroup exchanges that attach each pair's texts and
      verify. Driver state is one Bloom bitmap (capped 256 MiB) —
      never ids, pairs, or texts.

    Both paths produce identical results (pytest-pinned), so the
    switch is purely a cost choice.
    """
    cand = minhash_candidates(ds, text_col, id_col, shingle_k=shingle_k)
    return _verify_candidates(
        cand, ds, text_col, id_col, threshold, shingle_k,
        n_buckets,
    )


def _verify_candidates(
    cand: ray.data.Dataset,
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    threshold: float,
    shingle_k: int,
    n_buckets: int,
) -> ray.data.Dataset:
    """Exact n-gram-Jaccard verification of candidate (doc_a, doc_b)
    pairs against the texts in ``ds`` — the counted bucket / broadcast
    choice documented on :func:`minhash_dedup_pairs`, shared with
    :func:`incremental_minhash` (where ``ds`` is the union of the new
    dump and the old corpus, ids globally unique across dumps) and
    :func:`jaccard_join_prefix`."""
    cand = cand.materialize()
    n_cand = cand.count()  # metadata only after materialize

    if n_cand > AUTO_BROADCAST_MAX:
        # Fully distributed verify. Driver state is ONE fixed-size
        # Bloom bitmap — never ids, pairs, or texts:
        #   0. candidate pairs materialize into the object store
        #      (narrow: 2 int64 / row; consumed twice below) —
        #      cross-band duplicate pairs are NOT deduped here; they
        #      collapse for free inside the verify groupby (step 3), so
        #      no extra all-to-all is spent on them;
        #   1. a Bloom filter of candidate ids is built on the cluster
        #      (per-block bitmaps OR-ed on the driver via streaming
        #      iter_batches — memory stays at one bitmap) and broadcast;
        #      it prefilters the corpus so only candidate(+false
        #      positive) texts enter the exchange;
        #   2. each pair is emitted twice — keyed by bucket(doc_a) with
        #      pos=0 and bucket(doc_b) with pos=1 — and unioned with the
        #      filtered docs keyed by bucket(doc_id); one groupby
        #      co-locates each id bucket, where a vectorized pandas
        #      merge attaches that side's text;
        #   3. the two half-rows of every pair meet in a coarse
        #      pair-bucket groupby, where the exact-Jaccard verify runs
        #      (Bloom false positives carry harmless extra texts that
        #      simply match no pair).
        if n_cand == 0:
            import pandas as pd

            return ray.data.from_pandas(
                pd.DataFrame(
                    {
                        "doc_a": pd.Series([], dtype="int64"),
                        "doc_b": pd.Series([], dtype="int64"),
                        "jaccard": pd.Series([], dtype="float64"),
                    }
                )
            )
        # ~32 bits per candidate id, k=2 hashes -> ~0.4% FP; capped at
        # 256 MiB so the broadcast stays bounded no matter the corpus.
        m_bits = int(min(max(64 * n_cand, 8192), 1 << 31))
        m_bytes = (m_bits + 7) // 8

        def _bloom_positions(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            u = ids.astype(np.uint64)
            h1 = (u * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(m_bits)
            h2 = (
                u * np.uint64(0xBF58476D1CE4E5B9) + np.uint64(0x94D049BB133111EB)
            ) % np.uint64(m_bits)
            return h1, h2

        def block_bloom(batch: pa.Table) -> pa.Table:
            ids = np.concatenate(
                [
                    batch["doc_a"].to_numpy(zero_copy_only=False),
                    batch["doc_b"].to_numpy(zero_copy_only=False),
                ]
            )
            bloom = np.zeros(m_bytes, dtype=np.uint8)
            for pos in _bloom_positions(ids):
                np.bitwise_or.at(
                    bloom,
                    (pos >> np.uint64(3)).astype(np.int64),
                    (np.uint8(1) << (pos & np.uint64(7))).astype(np.uint8),
                )
            return pa.table({"bloom": pa.array([bloom.tobytes()], pa.binary())})

        bloom = np.zeros(m_bytes, dtype=np.uint8)
        for part in cand.map_batches(
            block_bloom, batch_format="pyarrow"
        ).iter_batches(batch_size=1, batch_format="pyarrow"):
            for buf in part["bloom"].to_pylist():
                bloom |= np.frombuffer(buf, dtype=np.uint8)
        bloom_ref = ray.put(bloom)

        def keep_candidates(batch: pa.Table) -> pa.Table:
            bl = ray.get(bloom_ref)  # zero-copy plasma read
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            h1, h2 = _bloom_positions(ids)
            hit = np.ones(len(ids), dtype=bool)
            for pos in (h1, h2):
                byte = (pos >> np.uint64(3)).astype(np.int64)
                bit = (np.uint8(1) << (pos & np.uint64(7))).astype(np.uint8)
                hit &= (bl[byte] & bit) != 0
            return batch.filter(pa.array(hit))

        def tag_pair_sides(batch: pa.Table) -> pa.Table:
            a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
            n = len(a)
            return pa.table(
                {
                    "_key": pa.array(np.concatenate([a, b])),
                    "_pos": pa.array(
                        np.concatenate(
                            [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
                        )
                    ),
                    "doc_a": pa.array(np.concatenate([a, a])),
                    "doc_b": pa.array(np.concatenate([b, b])),
                }
            )

        def tag_docs(batch: pa.Table) -> pa.Table:
            return pa.table({"_key": batch[id_col], "text": batch[text_col]})

        def attach_in_bucket(pairs: pa.Table, docs: pa.Table) -> pa.Table:
            # int columns read zero-copy; the TEXT column materializes
            # Python strings only for the doc rows
            a = pairs["doc_a"].to_numpy(zero_copy_only=False)
            b = pairs["doc_b"].to_numpy(zero_copy_only=False)
            pos = pairs["_pos"].to_numpy(zero_copy_only=False)
            doc_ids = docs["_key"].to_numpy(zero_copy_only=False)
            doc_texts = docs["text"].to_pylist()
            tmap = dict(zip(doc_ids.tolist(), doc_texts))
            key = np.where(pos == 0, a, b)
            texts = [tmap.get(int(k), "") for k in key]
            pb = (
                (
                    a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                    + b.astype(np.uint64)
                )
                % np.uint64(n_buckets)
            ).astype(np.int64)
            return pa.table(
                {
                    "doc_a": pa.array(a, pa.int64()),
                    "doc_b": pa.array(b, pa.int64()),
                    "_pos": pa.array(pos.astype(np.int8)),
                    "text": pa.array(texts, pa.string()),
                    "_pbucket": pa.array(pb),
                }
            )

        def verify_in_bucket(group: pa.Table) -> pa.Table:
            a = group["doc_a"].to_numpy(zero_copy_only=False).astype(
                np.int64, copy=False
            )
            b = group["doc_b"].to_numpy(zero_copy_only=False).astype(
                np.int64, copy=False
            )
            pos = group["_pos"].to_numpy(zero_copy_only=False)
            # dedup (a, b, pos) keeping the first, then pair up the
            # pos-0/pos-1 halves: after a (a, b, pos) sort, a matched
            # pair is exactly a row with pos 0 followed by the same
            # (a, b) with pos 1 — no pandas merge machinery
            order = np.lexsort((pos, b, a))
            a, b, pos = a[order], b[order], pos[order]
            texts = group["text"].take(pa.array(order)).to_pylist()
            if len(a) == 0:
                return pa.table(
                    {
                        "doc_a": pa.array([], pa.int64()),
                        "doc_b": pa.array([], pa.int64()),
                        "jaccard": pa.array([], pa.float64()),
                    }
                )
            first = np.ones(len(a), bool)
            first[1:] = (
                (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (pos[1:] != pos[:-1])
            )
            keep_idx = np.flatnonzero(first)
            a, b, pos = a[keep_idx], b[keep_idx], pos[keep_idx]
            texts = [texts[i] for i in keep_idx]
            pairmatch = np.zeros(len(a), bool)
            if len(a) > 1:
                pairmatch[:-1] = (
                    (a[:-1] == a[1:])
                    & (b[:-1] == b[1:])
                    & (pos[:-1] == 0)
                    & (pos[1:] == 1)
                )
            out_a, out_b, out_j = [], [], []
            for i in np.flatnonzero(pairmatch):
                j = ngram_jaccard(
                    texts[i] or "", texts[i + 1] or "", shingle_k
                )
                if j >= threshold:
                    out_a.append(int(a[i]))
                    out_b.append(int(b[i]))
                    out_j.append(j)
            return pa.table(
                {
                    "doc_a": pa.array(out_a, pa.int64()),
                    "doc_b": pa.array(out_b, pa.int64()),
                    "jaccard": pa.array(out_j, pa.float64()),
                }
            )

        # The union carries ~190 near-empty blocks at small scale and
        # sort-based groupby pays per-block reduce-task overhead, so
        # both exchanges coalesce.
        i64 = pa.int64()
        half_schema = pa.schema(
            [("doc_a", i64), ("doc_b", i64), ("_pos", pa.int8()),
             ("text", pa.string()), ("_pbucket", i64)]
        )
        halves = cogroup(
            {
                "pairs": (
                    cand.map_batches(tag_pair_sides, batch_format="pyarrow"),
                    "_key",
                    pa.schema(
                        [("_key", i64), ("_pos", pa.int8()), ("doc_a", i64), ("doc_b", i64)]
                    ),
                ),
                "docs": (
                    ds.map_batches(keep_candidates, batch_format="pyarrow")
                    .map_batches(tag_docs, batch_format="pyarrow"),
                    "_key",
                    pa.schema([("_key", i64), ("text", pa.string())]),
                ),
            },
            attach_in_bucket,
            half_schema,
            n_buckets=n_buckets,
            coalesce=True,
        )
        return cogroup(
            {"group": (halves, "_pbucket")},
            verify_in_bucket,
            pa.schema([("doc_a", i64), ("doc_b", i64), ("jaccard", pa.float64())]),
            n_buckets=n_buckets,
            coalesce=True,
        )

    # ---- broadcast (driver-bounded fast path) ----
    cand_df = cand.to_pandas().drop_duplicates(subset=["doc_a", "doc_b"])
    if cand_df.empty:
        import pandas as pd

        return ray.data.from_pandas(
            pd.DataFrame({"doc_a": [], "doc_b": [], "jaccard": []})
        )
    ids = np.sort(
        np.unique(
            np.concatenate(
                [cand_df["doc_a"].to_numpy(), cand_df["doc_b"].to_numpy()]
            )
        )
    )
    ids_ref = ray.put(ids)

    def pick(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)  # zero-copy
        vals = batch[id_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(wanted, vals)
        idx[idx >= len(wanted)] = 0
        mask = wanted[idx] == vals
        return pa.table(
            {
                id_col: batch[id_col],
                text_col: batch[text_col],
            }
        ).filter(pa.array(mask))

    side = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    # Arrow-table broadcast (plasma zero-copy); verify tasks build the
    # dict view once per worker (_verify_side_cached)
    side_ref = ray.put(
        pa.table({id_col: side[id_col].tolist(), text_col: side[text_col].tolist()})
    )
    cand = ray.data.from_pandas(cand_df)

    def verify_b(batch: pa.Table) -> pa.Table:
        # The id->text dict is built ONCE per worker process and cached
        # (rebuilding Python strings from the Arrow broadcast per batch
        # would cost O(corpus) per candidate batch).
        import pyarrow.compute as pc

        texts = _verify_side_cached(side_ref, id_col, text_col)
        doc_a = batch["doc_a"].to_pylist()
        doc_b = batch["doc_b"].to_pylist()
        jac = [
            ngram_jaccard(texts.get(a, ""), texts.get(b, ""), shingle_k)
            for a, b in zip(doc_a, doc_b)
        ]
        out = pa.table(
            {
                "doc_a": pa.array(doc_a, pa.int64()),
                "doc_b": pa.array(doc_b, pa.int64()),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    # cross-bucket duplicate pairs were already dropped driver-side
    return cand.map_batches(verify_b, batch_format="pyarrow")


def incremental_minhash(
    new_ds: ray.data.Dataset,
    store: ray.data.Dataset,
    old_ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.8,
    max_bucket: int = 200,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Cross-dump NEAR-dup detection: LSH-probe a new crawl dump
    against the persisted band-row ``store`` of all previous dumps
    (:func:`minhash_band_table` output, round-tripped through parquet),
    then verify every candidate by exact n-gram Jaccard >= threshold.

    Output: (doc_a, doc_b, jaccard) with doc_a from the NEW dump and
    doc_b from the OLD corpus. Document ids must be globally unique
    across dumps (the crawl contract — ids are per-dump offsets or
    content hashes).

    Distributed shape: only the NEW dump is re-shingled/signed (the
    store already holds the old dump's band rows — the whole point of
    persisting it); probe is one coarse band-hash-bucket cogroup
    (new-side x store-side merge per fine (band, band_hash) group,
    both sides capped at ``max_bucket`` ids per fine group); verified
    via the same bucket/broadcast machinery as
    :func:`minhash_dedup_pairs`, reading texts from new ∪ old. The
    driver never holds band rows, candidates, or texts (bucket path).
    """

    def probe(new: pa.Table, old: pa.Table):
        import pandas as pd

        new = new.to_pandas()
        old = old.to_pandas()
        if new.empty or old.empty:
            return None
        cols = ["band", "band_hash", "doc_id"]
        cap = lambda side: (  # noqa: E731 — local, used twice
            side[cols]
            .sort_values("doc_id")
            .groupby(["band", "band_hash"], sort=False)
            .head(max_bucket)
        )
        m = cap(new).merge(
            cap(old), on=["band", "band_hash"], suffixes=("_n", "_o")
        )
        if m.empty:
            return None
        out = m[["doc_id_n", "doc_id_o"]].drop_duplicates()
        return pd.DataFrame(
            {
                "doc_a": out["doc_id_n"].to_numpy(dtype=np.int64),
                "doc_b": out["doc_id_o"].to_numpy(dtype=np.int64),
            }
        )

    band_schema = pa.schema(
        [("band", pa.int32()), ("band_hash", pa.int64()), ("doc_id", pa.int64())]
    )
    new_bands = minhash_band_table(new_ds, text_col, id_col, n_bands, shingle_k)
    cand = _dedupe_pairs_bucketed(
        cogroup(
            {
                "new": (new_bands, "band_hash", band_schema),
                "old": (store, "band_hash", band_schema),
            },
            probe,
            pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
            n_buckets=128,
            coalesce=True,
        )
    )
    texts = new_ds.select_columns([id_col, text_col]).union(
        old_ds.select_columns([id_col, text_col])
    )
    return _verify_candidates(
        cand, texts, text_col, id_col, threshold, shingle_k,
        n_buckets,
    )


# -------------------------------------------------------------- simhash


def simhash64(text: str) -> int:
    """64-bit SimHash over word unigrams (md5-low-64 features, weight 1).

    The feature hash is ``md5(word)`` bytes 8..16 little-endian —
    exactly DuckDB's ``md5_number_lower``, so the whole sketch (and the
    Hamming-distance pair set) is replayable as a SQL value oracle.
    Bit expansion via ``np.unpackbits`` on the little-endian byte view
    (bit i of the unpacked row == ``(x >> i) & 1``) — ~25% cheaper than
    the shift-matrix formulation, identical output.
    """
    words = _WORD_RE.findall(text.lower())
    if not words:
        return 0
    feats = np.fromiter(
        (
            int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[8:16], "little")
            for w in words
        ),
        dtype=np.uint64,
        count=len(words),
    )
    bytes_ = feats.view(np.uint8).reshape(len(feats), 8)
    bits = np.unpackbits(bytes_, axis=1, bitorder="little")
    sums = (2 * bits.astype(np.int32) - 1).sum(axis=0)
    # bit i set iff sums[i] > 0; packbits inverts unpackbits exactly
    return int(
        np.packbits(sums > 0, bitorder="little").view(np.uint64)[0]
    )


def hash64_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    sig_col: str = "sig",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Near-dup pairs by Hamming distance over ANY 64-bit signature
    column (SimHash over text, dHash over image pixels, ...) —
    (doc_a, doc_b, hamming) with hamming <= max_hamming.

    Blocking: 4 x 16-bit bands — any pair within Hamming distance 3
    shares at least one exact band (pigeonhole), so candidate recall is
    exact for max_hamming <= 3. The shuffle carries
    (band, band16, doc_id, sig) only.
    """
    if max_hamming > 3:
        raise ValueError(
            "4x16-bit banding guarantees exact recall only for "
            f"max_hamming <= 3 (got {max_hamming})"
        )

    def to_bands(batch: pa.Table) -> pa.Table:
        # the 4-band expansion is a vectorized repeat/shift over the
        # signature array (int64 column viewed as uint64 bit pattern)
        sh = (
            batch[sig_col]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        n = len(ids)
        shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
        band16 = ((sh[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)).ravel()
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
                "band16": pa.array(band16.astype(np.int64)),
                "doc_id": pa.array(np.repeat(ids, 4)),
                "simhash": pa.array(np.repeat(sh.view(np.int64), 4)),
            }
        )

    def add_bucket(batch: pa.Table) -> pa.Table:
        bands_np = batch["band"].to_numpy(zero_copy_only=False).astype(np.int64)
        band16 = batch["band16"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_bk", pa.array(((bands_np * 65536 + band16) % 128).astype("int64"))
        )

    def pairs(group):  # one coarse bucket; fine grouping in pandas
        import pandas as pd

        out: dict[tuple, int] = {}
        for (_, _), sub in group.groupby(["band", "band16"]):
            recs = sorted(zip(sub["doc_id"].tolist(), sub["simhash"].tolist()))[:200]
            for (ida, sa), (idb, sb) in itertools.combinations(recs, 2):
                key = (ida, idb)
                if key in out:
                    continue
                ham = bin(
                    (int(sa) & 0xFFFFFFFFFFFFFFFF)
                    ^ (int(sb) & 0xFFFFFFFFFFFFFFFF)
                ).count("1")
                if ham <= max_hamming:
                    out[key] = ham
        if not out:
            return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
        items = sorted(out.items())
        return pd.DataFrame(
            {
                "doc_a": [k[0] for k, _ in items],
                "doc_b": [k[1] for k, _ in items],
                "hamming": [v for _, v in items],
            }
        )

    bands = ds.map_batches(to_bands, batch_format="pyarrow").map_batches(
        add_bucket, batch_format="pyarrow"
    )
    cand = cogroup(
        {"rows": (bands, "_bk")},
        lambda rows: pairs(rows.to_pandas()),
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int64())]),
        n_buckets=128,
        coalesce=True,
    )
    # cross-bucket duplicate pairs (same pair from bands in different
    # buckets, hamming equal) dedupe in a coarse pair-bucket groupby —
    # no single-partition funnel.
    return _dedupe_pairs_bucketed(cand, n_buckets=128)


def simhash_dedup_pairs(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Near-dup pairs with SimHash Hamming distance <= max_hamming:
    per-document simhash64 signatures feeding the generic
    :func:`hash64_pairs` band machinery."""

    def sigs(batch: pa.Table) -> pa.Table:
        sh = np.array(
            [simhash64(t or "") for t in batch[text_col].to_pylist()],
            dtype=np.uint64,
        )
        return pa.table(
            {
                id_col: batch[id_col],
                "sig": pa.array(sh.view(np.int64)),
            }
        )

    return hash64_pairs(
        ds.map_batches(sigs, batch_format="pyarrow"),
        id_col=id_col,
        sig_col="sig",
        max_hamming=max_hamming,
    )


def latest_version(
    ds: ray.data.Dataset,
    key_col: str = "url",
    ts_col: str = "fetch_ts",
    id_col: str = "doc_id",
    n_buckets: int = 1024,
) -> ray.data.Dataset:
    """Crawl-refresh compaction: keep the NEWEST row per key across
    dumps (max ``ts_col``, ties broken by max ``id_col`` so the pick is
    deterministic under any block layout).

    The snapshot-merge step of an incremental crawl: union the
    partitioned outputs of N dumps, then last-writer-wins per url.
    Same shuffle shape as ``exact_dedup``: a coarse key-bucket exchange
    (never one group per url) with a vectorized in-bucket
    sort + drop_duplicates. One pass, one shuffle — unavoidable, the
    output is full surviving rows.
    """

    def keep_newest(rows: pa.Table):
        g = rows.to_pandas().sort_values(
            [key_col, ts_col, id_col], ascending=[True, False, False]
        )
        return g.drop_duplicates(subset=[key_col], keep="first")

    return cogroup(
        {"rows": (ds, key_col)},
        keep_newest,
        lambda rows: rows,
        n_buckets=n_buckets,
        coalesce=False,
    )


def content_change_log(
    ds: ray.data.Dataset,
    key_col: str = "url",
    ts_col: str = "fetch_ts",
    id_col: str = "doc_id",
    hash_col: str = "text_hash",
    n_buckets: int = 1024,
) -> ray.data.Dataset:
    """Crawl content-change detection: per key, keep the first fetch
    ('new') and every fetch whose content hash differs from the
    PREVIOUS fetch ('changed'); unchanged revisits drop. The diff step
    of incremental crawl storage — what turns N dumps of mostly-static
    pages into a change log.

    Shuffle shape: rows enter the exchange already narrowed to
    (key, ts, id, hash); a coarse key-bucket co-locates each key's
    history, and the in-bucket kernel is one vectorized sort + groupby
    shift compare (never one aggregate group per key). The SQL replay
    is the lag() window the oracle runs.
    """

    def diff(group):
        # sorted by (key, ts, id), so "previous fetch of the same key"
        # is just the previous ROW when its key matches — a plain shift
        # + equality mask, no per-key pandas groupby (1.6x faster at 1M
        # rows than groupby(key).shift())
        g = group.sort_values([key_col, ts_col, id_col])
        same_key = g[key_col].eq(g[key_col].shift())
        prev_hash = g[hash_col].shift()
        keep = ~same_key | (g[hash_col] != prev_hash)
        kept = g[keep].copy()
        kept["change_type"] = np.where(
            same_key[keep], "changed", "new"
        )
        return kept

    return cogroup(
        {"rows": (ds, key_col)},
        lambda rows: diff(rows.to_pandas()),
        lambda rows: rows.append(pa.field("change_type", pa.string())),
        n_buckets=n_buckets,
        coalesce=False,
    )


def scd2_history(
    ds: ray.data.Dataset,
    key_col: str = "url",
    ts_col: str = "fetch_ts",
    id_col: str = "doc_id",
    open_end: int = 9_999_999,
    n_buckets: int = 1024,
) -> ray.data.Dataset:
    """Type-2 slowly-changing-dimension history build: every fetched
    version of a key becomes a validity interval
    ``[valid_from, valid_to)`` with the NEXT fetch's timestamp as the
    exclusive end and ``open_end`` on the current version — the shape
    a warehouse keeps crawl snapshots in (query any point in time with
    a BETWEEN).

    One coarse key-bucket exchange; each key's full version chain
    lands in one group, where a vectorized sort + shift derives the
    intervals. Ordering ties on ``ts_col`` break by ``id_col`` — the
    full deterministic order the SQL lead() window replays.

    Output: (key, doc_id, valid_from, valid_to, is_current int64).
    """

    def intervals(group: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = group.sort_values([key_col, ts_col, id_col])
        nxt = g.groupby(key_col)[ts_col].shift(-1)
        out = pd.DataFrame(
            {
                key_col: g[key_col].to_numpy(),
                id_col: g[id_col].to_numpy(np.int64),
                "valid_from": g[ts_col].to_numpy(np.int64),
                "valid_to": nxt.fillna(open_end).to_numpy(np.int64),
                "is_current": nxt.isna().to_numpy().astype(np.int64),
            }
        )
        return out

    i64 = pa.int64()
    return cogroup(
        {"rows": (ds.select_columns([key_col, id_col, ts_col]), key_col)},
        lambda rows: intervals(rows.to_pandas()),
        lambda rows: pa.schema(
            [rows.field(key_col), (id_col, i64), ("valid_from", i64),
             ("valid_to", i64), ("is_current", i64)]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def jaccard_join_prefix(
    ds: ray.data.Dataset,
    threshold_pm: int = 600,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 3,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """EXACT set-similarity self-join via prefix filtering (the
    AllPairs/PPJoin family — Bayardo et al. 2007, Xiao et al. 2008):
    all pairs with word-``shingle_k``-gram Jaccard >=
    ``threshold_pm``/1000. Unlike the MinHash-LSH candidate path
    (probabilistic: a pair can miss every band), prefix filtering is
    LOSSLESS — if ``|a n b| / |a u b| >= t`` the two prefixes must
    share a token — so this is the exact-at-scale dedup join.

    Shape (each exchange narrow, no driver materialization):

      1. tokenize: per-doc DISTINCT shingle hashes + set size
      2. global document frequency per token (bucketed count exchange)
      3. df attach (token-bucket cogroup)
      4. per-doc prefix (doc-bucket group): tokens sorted by
         (df ASC, token) — rarest first, the order that minimizes
         candidates — keep ``n - ceil(t*n) + 1``
      5. candidate pairs (token-bucket group): docs sharing a prefix
         token, with the size filter ``t * |big| <= 1000 * |small|``
         (Jaccard >= t forces the length ratio), pre-deduped in-bucket
      6. global pair dedup + the shared exact-Jaccard verification
         (:func:`_verify_candidates` — same machinery as MinHash)

    Prefix tokens are rare by construction (sorted by df), so step 5's
    per-token candidate blowup is bounded by the rare-token df, not
    the corpus.
    """
    t_pm = int(threshold_pm)

    def tok(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = _batch_shingle_hashes(batch[text_col].to_pylist(), shingle_k)
        out_doc, out_tok, out_size = [], [], []
        for d, h in zip(ids, hs):
            u = np.unique(h.astype(np.int64))
            out_doc.append(np.full(len(u), d, dtype=np.int64))
            out_tok.append(u)
            out_size.append(np.full(len(u), len(u), dtype=np.int64))
        if out_doc:
            doc = np.concatenate(out_doc)
            tokv = np.concatenate(out_tok)
            size = np.concatenate(out_size)
        else:
            doc = tokv = size = np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "doc": pa.array(doc, pa.int64()),
                "token": pa.array(tokv, pa.int64()),
                "size": pa.array(size, pa.int64()),
            }
        )

    toks = ds.map_batches(tok, batch_format="pyarrow").materialize()

    # 2. global df per token (partial counts in-batch, one exchange)
    def df_partial(batch: pa.Table) -> pa.Table:
        t, c = np.unique(
            batch["token"].to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        return pa.table(
            {
                "token": pa.array(t, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def df_merge(group):
        g = group.groupby("token", as_index=False)["c"].sum()
        return g.rename(columns={"c": "df"})

    i64 = pa.int64()
    tok_schema = pa.schema([("doc", i64), ("token", i64), ("size", i64)])
    df_schema = pa.schema([("token", i64), ("df", i64)])
    dfs = cogroup(
        {"rows": (toks.map_batches(df_partial, batch_format="pyarrow"), "token")},
        lambda rows: df_merge(rows.to_pandas()),
        df_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )

    # 3. attach df: token-bucket cogroup of token rows + df rows
    def attach(toks: pa.Table, dfs: pa.Table):
        return toks.to_pandas().merge(dfs.to_pandas(), on="token", how="left")

    with_df = cogroup(
        {"toks": (toks, "token", tok_schema), "dfs": (dfs, "token", df_schema)},
        attach,
        pa.schema(list(tok_schema) + [("df", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )

    # 4. per-doc prefix (doc-bucket exchange)
    def prefix(group):
        import pandas as pd

        outs = []
        for d, g in group.groupby("doc"):
            n = int(g["size"].iloc[0])
            p = n - (t_pm * n + 999) // 1000 + 1
            g = g.sort_values(["df", "token"]).head(max(p, 0))
            outs.append(g[["doc", "token", "size"]])
        if not outs:
            return None
        return pd.concat(outs, ignore_index=True)

    prefixes = cogroup(
        {"rows": (with_df, "doc")},
        lambda rows: prefix(rows.to_pandas()),
        tok_schema,
        n_buckets=n_buckets,
        coalesce=False,
    )

    # 5. candidate pairs per prefix token (token-bucket exchange):
    # in-bucket self-merge on the token, id-ordered, size-ratio filter
    def cand_pairs(group):
        g = group[["doc", "token", "size"]]
        m = g.merge(g, on="token", suffixes=("_a", "_b"))
        m = m[m["doc_a"] < m["doc_b"]]
        small = np.minimum(m["size_a"], m["size_b"])
        big = np.maximum(m["size_a"], m["size_b"])
        m = m[t_pm * big <= 1000 * small]
        return m[["doc_a", "doc_b"]].drop_duplicates()

    pair_schema = pa.schema([("doc_a", i64), ("doc_b", i64)])
    cand = cogroup(
        {"rows": (prefixes, "token")},
        lambda rows: cand_pairs(rows.to_pandas()),
        pair_schema,
        n_buckets=n_buckets,
        coalesce=False,
    )

    # 6. global pair dedup + shared exact verification
    def tag_pair(batch: pa.Table) -> pa.Table:
        key = (
            batch["doc_a"].to_numpy(zero_copy_only=False) * 1_000_003
            + batch["doc_b"].to_numpy(zero_copy_only=False)
        )
        return batch.append_column(
            "_pb", pa.array(key % n_buckets, pa.int64())
        )

    cand = cogroup(
        {"rows": (cand.map_batches(tag_pair, batch_format="pyarrow"), "_pb")},
        lambda rows: rows.to_pandas().drop_duplicates(subset=["doc_a", "doc_b"]),
        pair_schema,
        n_buckets=n_buckets,
        coalesce=False,
    )
    return _verify_candidates(
        cand, ds, text_col, id_col, t_pm / 1000.0, shingle_k,
        n_buckets,
    )
