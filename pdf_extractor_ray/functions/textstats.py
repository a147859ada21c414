"""Text analysis operators: language ID, quality scoring, token
counting, document fingerprinting.

Every per-document statistic here is defined twice on purpose — once in
Python (this module, used inside ``map_batches``) and once in ANSI SQL
(__ray_entry__.oracle_sql) — with *identical* semantics, so the driver's
DuckDB comparison validates the distributed implementation value-for-
value. That forces the definitions to stay in RE2-compatible regex
territory (no lookahead, ASCII classes):

    n_words        count of \\S+ runs
    n_tokens       count of [A-Za-z0-9]+|[^A-Za-z0-9\\s]  (BPE-ish split)
    n_punct        count of [^A-Za-z0-9\\s]
    stop_{en,fr,de} count of language stopword hits (\\b-delimited)
    pred_lang      argmax of the three stopword counts, ties en>fr>de,
                   all-zero -> 'und'
    fingerprint    md5(lower -> collapse \\s+ to ' ' -> trim)
    quality_class  'long'/'ok'/'short' by n_words vs (200, 30)

The stage is a stateless ``map_batches`` task (compiled regexes are
module-level; per-batch work is C-level regex scans per row).
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa

from pdf_extractor_ray.functions.common import coalesce_for_exchange
from pdf_extractor_ray.functions.exchange import cogroup

__all__ = [
    "kwic_snippets",
    "lexical_diversity",
    "lexical_diversity_batch",
    "doc_stats_batch",
    "normalize_text",
    "normalize_batch",
    "word_topk",
    "word_heavy_hitters",
    "tfidf_top_terms",
    "BPETokenCounter",
    "bpe_token_stats",
    "STOPWORDS",
    "QUALITY_LONG",
    "QUALITY_SHORT",
]

_WORD_RE = re.compile(r"\S+")
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")
_PUNCT_RE = re.compile(r"[^A-Za-z0-9\s]")
_WS_RE = re.compile(r"\s+")
_INDEX_TOKEN_RE = re.compile(r"[a-z0-9]+")

STOPWORDS = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "for"),
    "fr": ("le", "la", "les", "de", "des", "et", "est", "dans"),
    "de": ("der", "die", "das", "und", "ist", "mit", "von", "für"),
}
_STOP_RES = {
    lang: re.compile(r"\b(?:" + "|".join(words) + r")\b")
    for lang, words in STOPWORDS.items()
}

QUALITY_LONG = 200
QUALITY_SHORT = 30


def _doc_stats(text: str) -> dict:
    text = text or ""
    lower = text.lower()
    n_words = len(_WORD_RE.findall(text))
    n_tokens = len(_TOKEN_RE.findall(text))
    n_punct = len(_PUNCT_RE.findall(text))
    stops = {lang: len(rx.findall(lower)) for lang, rx in _STOP_RES.items()}
    best = max(stops.values())
    if best == 0:
        pred = "und"
    else:  # tie-break en > fr > de (fixed order, mirrored in SQL CASE)
        pred = next(l for l in ("en", "fr", "de") if stops[l] == best)
    fingerprint = hashlib.md5(
        _WS_RE.sub(" ", lower).strip().encode("utf-8")
    ).hexdigest()
    if n_words >= QUALITY_LONG:
        quality = "long"
    elif n_words >= QUALITY_SHORT:
        quality = "ok"
    else:
        quality = "short"
    return {
        "n_words": n_words,
        "n_tokens": n_tokens,
        "n_punct": n_punct,
        "stop_en": stops["en"],
        "stop_fr": stops["fr"],
        "stop_de": stops["de"],
        "pred_lang": pred,
        "fingerprint": fingerprint,
        "quality_class": quality,
    }


_WORD_TOKEN_RE = re.compile(r"[a-z0-9]+")


def word_topk(ds, k: int = 20, text_col: str = "text"):
    """Global top-k word frequencies over a text column.

    The explode (doc -> words) never leaves the batch: a per-batch
    Counter collapses each batch to one row per distinct word before
    the groupby, so the all-to-all carries the batch vocabulary (~10^4
    rows) instead of the token stream (~10^6). The final sort runs on
    the already-aggregated vocabulary. Tokenization is
    ``lower(text)`` scanned with ``[a-z0-9]+`` (mirrored in the SQL
    oracle's regexp_extract_all).
    """
    from collections import Counter

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch[text_col].to_pylist():
            counts.update(_WORD_TOKEN_RE.findall((t or "").lower()))
        words = list(counts.keys())
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    # coarse word-bucket exchange + in-bucket merge + per-bucket top-k
    # pruning (global top-k is a subset of the union of bucket top-ks);
    # a vocabulary-keyed aggregate would explode the group count at
    # web-scale vocabularies
    def bucket_topk(group):
        import pandas as pd

        g = group.groupby("word", as_index=False).agg(n=("n", "sum"))
        return g.sort_values(["n", "word"], ascending=[False, True]).head(k)

    word_n = pa.schema([("word", pa.string()), ("n", pa.int64())])
    agg = cogroup(
        {"group": (ds.map_batches(partial, batch_format="pyarrow"), "word")},
        lambda group: bucket_topk(group.to_pandas()),
        word_n,
        n_buckets=256,
        coalesce=True,
    )
    return agg.sort(["n", "word"], descending=[True, False]).limit(k)


def doc_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append the per-document stats columns to an Arrow batch."""
    stats = [_doc_stats(t) for t in batch[text_col].to_pylist()]
    for name, typ in (
        ("n_words", pa.int64()),
        ("n_tokens", pa.int64()),
        ("n_punct", pa.int64()),
        ("stop_en", pa.int64()),
        ("stop_fr", pa.int64()),
        ("stop_de", pa.int64()),
        ("pred_lang", pa.string()),
        ("fingerprint", pa.string()),
        ("quality_class", pa.string()),
    ):
        batch = batch.append_column(name, pa.array([s[name] for s in stats], typ))
    return batch


# Explicit ASCII whitespace class, NOT \s: Python's \s additionally
# matches unicode spaces (\xa0,  , ...) that RE2/DuckDB's \s does
# not, so the oracle would silently diverge on non-ASCII whitespace.
_ASCII_WS_RE = re.compile(r"[ \t\n\r\f\v]+")


def normalize_text(text: str) -> str:
    """Canonical text normalization for dedup/fingerprint pipelines:
    unicode NFC, ASCII-whitespace runs collapsed to one space, outer
    whitespace stripped. Exactly mirrored by the SQL oracle
    (nfc_normalize + regexp_replace + trim)."""
    import unicodedata

    return _ASCII_WS_RE.sub(" ", unicodedata.normalize("NFC", text or "")).strip()


def normalize_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc normalized length + content hash (the usual precursor
    columns for exact dedup over normalized text). NFC + whitespace
    collapse run as Arrow kernels (utf8proc / RE2); only the md5 is a
    per-row loop (no vectorized digest kernel exists)."""
    import unicodedata

    import pyarrow.compute as pc

    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    # NFC: pyarrow 16's utf8_normalize(form="NFC") decomposes but
    # never composes (upstream bug, fixed in Arrow 17), so compose in
    # Python — but only the rows that need it: NFC is the identity on
    # pure-ASCII strings, and byte length == codepoint length detects
    # those without leaving Arrow.
    nonascii = pc.not_equal(pc.binary_length(col), pc.utf8_length(col))
    if pc.any(nonascii).as_py():
        vals = col.to_pylist()
        flags = nonascii.to_pylist()
        col = pa.array(
            [
                unicodedata.normalize("NFC", v) if f else v
                for v, f in zip(vals, flags)
            ],
            pa.string(),
        )
    normed = pc.utf8_trim(
        pc.replace_substring_regex(
            col,
            pattern=_ASCII_WS_RE.pattern,
            replacement=" ",
        ),
        characters=" ",
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars_norm": pc.utf8_length(normed).cast(pa.int64()),
            "norm_hash": pa.array(
                [
                    hashlib.md5(n.encode("utf-8")).hexdigest()
                    for n in normed.to_pylist()
                ],
                pa.string(),
            ),
        }
    )


def word_heavy_hitters(ds, k: int = 20, capacity: int = 2048, text_col: str = "text"):
    """Approximate top-k words via mergeable Misra-Gries summaries.

    The exact ``word_topk`` shuffles the full vocabulary; at web scale
    the vocabulary itself is huge, so the sketch path bounds state: each
    batch keeps a ``capacity``-counter Misra-Gries summary (any word
    with frequency > n/capacity is guaranteed to survive), summaries
    merge by counter addition + decrement, and only ``capacity`` rows
    per batch enter the shuffle regardless of vocabulary size. Counts
    are lower bounds; a final exact re-count pass (filter to the
    candidate set) recovers exact frequencies when needed — here the
    candidates are re-scored exactly via a broadcast membership filter
    so the output matches the exact top-k on every corpus where the
    true top-k words clear the sketch's frequency floor.
    """
    from collections import Counter

    import ray

    def mg_summary(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch[text_col].to_pylist():
            for w in _WORD_TOKEN_RE.findall((t or "").lower()):
                if w in counts or len(counts) < capacity:
                    counts[w] += 1
                else:  # decrement-all step, vectorized over the dict
                    counts.subtract(dict.fromkeys(counts, 1))
                    counts += Counter()  # drop zeros
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    # Candidate merge follows the coarse-bucket discipline: the MG
    # summaries still contain up to capacity DISTINCT words per batch,
    # so a raw-word groupby + driver collect would scale with batch
    # count x capacity. Instead each word's partials meet in one of 64
    # hash buckets, merge vectorized, and prune to the bucket-local
    # top-4k (the global top-4k by summed MG count is a subset of the
    # union, since a word lives in exactly one bucket) — the driver
    # sees at most 64 x 4k rows regardless of corpus size.
    import numpy as np
    import pandas as pd

    def bucket_merge_prune(group):
        g = group.groupby("word", as_index=False).agg(n=("n", "sum"))
        return g.nlargest(4 * k, "n")

    cand = cogroup(
        {"group": (ds.map_batches(mg_summary, batch_format="pyarrow"), "word")},
        lambda group: bucket_merge_prune(group.to_pandas()),
        pa.schema([("word", pa.string()), ("n", pa.int64())]),
        n_buckets=64,
        coalesce=True,
    )
    cand_df = cand.to_pandas().nlargest(4 * k, "n")
    cand_ref = ray.put(frozenset(cand_df["word"]))

    # exact re-count restricted to the candidate set (broadcast filter)
    def recount(batch: pa.Table) -> pa.Table:
        keep = ray.get(cand_ref)
        counts: Counter = Counter()
        for t in batch[text_col].to_pylist():
            counts.update(
                w for w in _WORD_TOKEN_RE.findall((t or "").lower()) if w in keep
            )
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    exact = (
        ds.map_batches(recount, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
    )
    return exact.sort(["n", "word"], descending=[True, False]).limit(k)


def tfidf_top_terms(
    ds,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 2,
):
    """Per-document top-k TF-IDF terms — the two-pass global-statistic
    pattern: pass 1 computes document frequencies (per-batch DISTINCT
    word sets collapse before the groupby, so the shuffle carries the
    batch vocabulary), the resulting df table broadcasts once, and pass
    2 scores each document locally against the broadcast. idf =
    ln(N/df); score ties broken by ascending term. Scores are emitted
    as integer milli-units (floor(x*1000 + 0.5)) so the SQL oracle
    comparison is exact.
    """
    import math
    from collections import Counter

    import numpy as np
    import ray

    n_docs = ds.count()


    def df_partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch[text_col].to_pylist():
            counts.update(set(_WORD_TOKEN_RE.findall((t or "").lower())))
        words = list(counts.keys())
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "df": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def df_merge(group):
        import pandas as pd

        return group.groupby("word", as_index=False).agg(df=("df", "sum"))

    # coarse word-bucket exchange (vocabulary-keyed aggregate groups
    # explode at web scale), vectorized merge per bucket
    df_tbl = cogroup(
        {"group": (ds.map_batches(df_partial, batch_format="pyarrow"), "word")},
        lambda group: df_merge(group.to_pandas()),
        pa.schema([("word", pa.string()), ("df", pa.int64())]),
        n_buckets=256,
        coalesce=True,
    ).to_pandas()
    df_tbl = df_tbl[df_tbl["df"] >= min_df]
    idf_ref = ray.put(
        dict(zip(df_tbl["word"], np.log(n_docs / df_tbl["df"].to_numpy())))
    )

    def score(batch: pa.Table) -> pa.Table:
        idf = ray.get(idf_ref)
        out = []
        for doc_id, t in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            tf = Counter(_WORD_TOKEN_RE.findall((t or "").lower()))
            # rank on the ROUNDED milli-score (not the raw double):
            # both sides of the oracle comparison then order on the
            # same integers, immune to last-ulp ln() differences
            scored = [
                (w, int(math.floor(n * idf[w] * 1000 + 0.5)))
                for w, n in tf.items()
                if w in idf
            ]
            scored.sort(key=lambda x: (-x[1], x[0]))
            for rank, (w, s_m) in enumerate(scored[:k], 1):
                out.append(
                    {id_col: doc_id, "term": w, "score_m": s_m, "rank": rank}
                )
        import pandas as pd

        return pa.Table.from_pandas(
            pd.DataFrame(out, columns=[id_col, "term", "score_m", "rank"]),
            preserve_index=False,
        )

    return ds.map_batches(score, batch_format="pyarrow")


def inverted_index_summary(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 2,
    n_buckets: int = 512,
):
    """Sharded inverted-index build: per term, its document frequency
    and an md5 fingerprint of the sorted postings list.

    The retrieval-index shape at corpus scale: per-batch the doc->word
    explode collapses to DISTINCT (word, doc) pairs (in-batch set, so
    the exchange carries the batch's postings, never the token
    stream), pairs co-locate by a coarse WORD bucket — each bucket is
    one shard of the index, the partitioning a real postings store
    would persist per shard — and the in-bucket merge builds each
    term's sorted postings vectorized. Output per term: ``df`` and
    ``postings_fp`` = md5 of the comma-joined sorted ids (the full
    list is shard-local; only the fingerprint leaves, so the result
    stays term-cardinality-sized). Tokenization matches word_topk:
    ``[a-z0-9]+`` over lower(text), mirrored by the SQL oracle.
    """
    import hashlib

    def pairs(batch: pa.Table) -> pa.Table:
        words_out: list[str] = []
        ids_out: list[int] = []
        for did, text in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            for w in set(_INDEX_TOKEN_RE.findall((text or "").lower())):
                words_out.append(w)
                ids_out.append(did)
        return pa.table(
            {
                "word": pa.array(words_out, pa.string()),
                id_col: pa.array(ids_out, pa.int64()),
            }
        )

    def build_shard(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["word", id_col]).drop_duplicates(
            ["word", id_col]
        )
        agg = g.groupby("word")[id_col].agg(
            df="size",
            postings_fp=lambda s: hashlib.md5(
                ",".join(str(i) for i in s).encode()
            ).hexdigest(),
        )
        agg = agg.reset_index()
        agg["df"] = agg["df"].astype("int64")
        return agg[agg["df"] >= min_df]

    return cogroup(
        {"group": (ds.map_batches(pairs, batch_format="pyarrow"), "word")},
        lambda group: build_shard(group.to_pandas()),
        pa.schema([("word", pa.string()), ("df", pa.int64()), ("postings_fp", pa.string())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def bm25_topk(
    ds,
    query: str,
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    k1: float = 1.2,
    b: float = 0.75,
):
    """Distributed BM25 retrieval: global top-k documents for a query.

    The retrieval counterpart of ``inverted_index_summary`` — the
    two-pass global-statistic pattern ``tfidf_top_terms`` uses, with
    the Robertson idf ``ln((N - df + 0.5)/(df + 0.5) + 1)``:

    pass 1: one streaming scan emits per-batch partials for the only
      global stats BM25 needs — doc count, total token count (for
      avgdl), and per-QUERY-TERM document frequencies (|query| + 2
      rows per batch; the exchange is constant-size, never
      vocabulary-sized).
    pass 2: the tiny {term: df, N, avgdl} table broadcasts into a
      stateless map_batches that scores each document locally
      (tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl)) per term) and
      keeps its batch's top-k; the k x n_batches candidate stream
      coalesces and a global sort + limit finishes. Driver never sees
      more than the candidate stream.

    Scores are emitted as integer milli-units (floor(x*1000 + 0.5)),
    ties broken by ascending id — the exact rank the SQL oracle
    replays. Zero-scoring documents (no query term) are dropped.
    """
    import math
    from collections import Counter

    import numpy as np
    import pandas as pd

    terms = sorted(set(_WORD_TOKEN_RE.findall(query.lower())))
    if not terms:
        raise ValueError("query has no indexable terms")

    def stat_partial(batch: pa.Table) -> pa.Table:
        df_counts: Counter = Counter()
        n = batch.num_rows
        total_len = 0
        for t in batch[text_col].to_pylist():
            words = _WORD_TOKEN_RE.findall((t or "").lower())
            total_len += len(words)
            wset = set(words)
            for q in terms:
                if q in wset:
                    df_counts[q] += 1
        keys = ["_n_docs", "_total_len"] + terms
        vals = [n, total_len] + [df_counts.get(q, 0) for q in terms]
        return pa.table(
            {
                "stat": pa.array(keys, pa.string()),
                "value": pa.array(vals, pa.int64()),
            }
        )

    stats = (
        coalesce_for_exchange(
            ds.map_batches(stat_partial, batch_format="pyarrow")
        )
        .groupby("stat")
        .sum("value")
        .to_pandas()  # |query| + 2 rows
    )
    stat = dict(zip(stats["stat"], stats["sum(value)"])) if len(stats) else {}
    n_docs = int(stat.get("_n_docs", 0))
    if n_docs == 0 or int(stat.get("_total_len", 0)) == 0:
        # empty corpus (or all-empty texts): nothing can score
        return ds.map_batches(
            lambda b: pa.table(
                {id_col: pa.array([], pa.int64()),
                 "score_m": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    avgdl = float(stat["_total_len"]) / n_docs
    idf = {
        q: math.log((n_docs - int(stat.get(q, 0)) + 0.5)
                    / (int(stat.get(q, 0)) + 0.5) + 1.0)
        for q in terms
    }

    # prune early: only docs containing SOME query term ever pay the
    # full tokenization (dl) — the prefilter matches a term exactly as
    # a maximal [a-z0-9]+ run (lookarounds, NOT \b: \b treats '_' as a
    # word char, the token class does not)
    qt_re = re.compile(
        r"(?<![a-z0-9])(?:" + "|".join(re.escape(q) for q in terms)
        + r")(?![a-z0-9])"
    )

    def score_batch(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        out_ids: list[int] = []
        out_scores: list[int] = []
        for did, t in zip(ids, batch[text_col].to_pylist()):
            lower = (t or "").lower()
            hits = qt_re.findall(lower)
            if not hits:
                continue
            dl = len(_WORD_TOKEN_RE.findall(lower))
            tf = Counter(hits)
            score = 0.0
            norm = k1 * (1.0 - b + b * dl / avgdl)
            for q in terms:
                f = tf.get(q, 0)
                if f:
                    score += idf[q] * f * (k1 + 1.0) / (f + norm)
            if score > 0.0:
                out_ids.append(did)
                out_scores.append(int(np.floor(score * 1000 + 0.5)))
        df = pd.DataFrame({id_col: out_ids, "score_m": out_scores})
        df = df.sort_values(
            ["score_m", id_col], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        coalesce_for_exchange(
            ds.map_batches(score_batch, batch_format="pyarrow")
        )
        .sort(["score_m", id_col], descending=[True, False])
        .limit(k)
    )


# Unicode script ranges, expressed as plain codepoint ranges (NOT \p
# classes: the Python and DuckDB/RE2 sides must share the exact same
# character sets, and Python re has no \p support). Tie order below is
# fixed and mirrored in the SQL oracle's CASE.
_SCRIPT_RES = (
    ("latin", re.compile("[A-Za-zÀ-ɏ]")),
    ("cyrillic", re.compile("[Ѐ-ӿ]")),
    ("greek", re.compile("[Ͱ-Ͽ]")),
    ("cjk", re.compile("[一-鿿぀-ヿ]")),
    ("arabic", re.compile("[؀-ۿ]")),
)


def script_counts_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document Unicode-script character counts + dominant script
    ('none' when no scripted character occurs; ties resolve in the
    fixed order latin > cyrillic > greek > cjk > arabic). The
    mixed-script / wrong-script signal of web curation (e.g. latin
    pages stuffed with CJK spam), stateless and shuffle-free."""
    texts = batch[text_col].to_pylist()
    counts = {
        name: [len(rx.findall(t or "")) for t in texts]
        for name, rx in _SCRIPT_RES
    }
    dominant = []
    for i in range(len(texts)):
        best_name, best_n = "none", 0
        for name, _ in _SCRIPT_RES:
            n = counts[name][i]
            if n > best_n:
                best_name, best_n = name, n
        dominant.append(best_name)
    res = batch
    for name, _ in _SCRIPT_RES:
        res = res.append_column(
            f"n_{name}", pa.array(counts[name], pa.int64())
        )
    return res.append_column("script", pa.array(dominant, pa.string()))


class BPETokenCounter:
    """Actor-pool tokenizer stage: the BPE ranks table loads ONCE per
    actor in ``__init__`` (the model-load pattern — the table plus its
    compiled pre-tokenizer and piece cache are per-process state, never
    rebuilt per batch); ``__call__`` counts per row. ``table="cl100k"``
    uses the real cl100k_base ranks when present on disk and falls back
    to the vendored trained table (kernel/bpe.py) otherwise.

    BPE counts are not SQL-expressible (the merge loop), so the driver
    gate is rows-only; exact value checks are pytest (distributed ==
    serial driver-side encode, including OOV pieces that exercise the
    merge loop)."""

    def __init__(
        self,
        table: str = "builtin",
        text_col: str = "text",
        id_col: str = "doc_id",
    ):
        from pdf_extractor_ray.kernel.bpe import (
            get_builtin_encoder,
            get_cl100k_encoder,
        )

        self.enc = get_cl100k_encoder() if table == "cl100k" else None
        if self.enc is None:
            self.enc = get_builtin_encoder()
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        count = self.enc.count
        n = [count(t or "") for t in batch[self.text_col].to_pylist()]
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_bpe_tokens": pa.array(n, pa.int64()),
            }
        )


def bpe_token_stats(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    table: str = "builtin",
    concurrency: int = 4,
):
    """Per-document BPE token counts as an actor-pool stage."""
    return ds.map_batches(
        BPETokenCounter,
        fn_constructor_kwargs={
            "table": table, "text_col": text_col, "id_col": id_col,
        },
        concurrency=concurrency,
        batch_format="pyarrow",
    )


def lexical_diversity_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Exact integer lexical-diversity indices per document.

    Words are ``[a-z0-9]+`` runs of ``lower(text)`` — the same
    RE2-compatible tokenization as :func:`word_topk`, so DuckDB
    replays every value exactly. Emitted per document:

        n_tokens     total word occurrences
        n_types      distinct words (vocabulary size)
        simpson_num  sum over types of c*(c-1) — the numerator of the
                     Simpson repeat/collision index; the classic
                     repetitiveness signal (MassiveText's
                     fraction-of-unique-words gate is n_types/n_tokens,
                     both exposed here as exact integers so callers
                     form either ratio float-free)
        top_count    occurrences of the single most frequent word

    Zero-token documents emit (0, 0, 0, 0) so the operator is total.
    Shape: stateless per-row map — no shuffle, embarrassingly
    parallel at 100 TB. The explode never leaves the batch: words are
    factorized and counted with one C-level pandas groupby per batch.
    """
    import numpy as np
    import pandas as pd

    texts = batch[text_col].to_pylist()
    per_doc: list[list[str]] = [
        _INDEX_TOKEN_RE.findall((t or "").lower()) for t in texts
    ]
    lens = np.fromiter((len(w) for w in per_doc), dtype=np.int64, count=len(per_doc))
    doc_ix = np.repeat(np.arange(len(per_doc), dtype=np.int64), lens)
    flat: list[str] = [w for ws in per_doc for w in ws]
    n = len(per_doc)
    n_types = np.zeros(n, dtype=np.int64)
    simpson = np.zeros(n, dtype=np.int64)
    top = np.zeros(n, dtype=np.int64)
    if flat:
        codes, _ = pd.factorize(np.asarray(flat, dtype=object))
        df = pd.DataFrame({"d": doc_ix, "w": codes})
        cnt = df.groupby(["d", "w"], sort=False).size()
        g = cnt.groupby(level=0)
        d_ix = g.size().index.to_numpy()
        n_types[d_ix] = g.size().to_numpy()
        c = cnt.to_numpy()
        simpson[d_ix] = (
            pd.Series(c * (c - 1), index=cnt.index.get_level_values(0))
            .groupby(level=0)
            .sum()
            .to_numpy()
        )
        top[d_ix] = g.max().to_numpy()
    return pa.table(
        {
            id_col: batch[id_col],
            "n_tokens": pa.array(lens, pa.int64()),
            "n_types": pa.array(n_types, pa.int64()),
            "simpson_num": pa.array(simpson, pa.int64()),
            "top_count": pa.array(top, pa.int64()),
        }
    )


def lexical_diversity(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-document exact lexical-diversity indices (see
    :func:`lexical_diversity_batch`)."""
    return ds.map_batches(
        lambda b: lexical_diversity_batch(b, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )


def kwic_snippets(
    docs,
    term: str,
    context: int = 20,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Keyword-in-context: for every document containing ``term``, the
    1-based CHARACTER position of its first occurrence plus a snippet of
    ``context`` characters either side — the concordance view a corpus
    linguist (or a filter-rule author) samples before writing a rule.

    Embarrassingly parallel (no shuffle) and fully vectorized with
    per-row-varying bounds handled WITHOUT Python loops: the row is
    split at the first occurrence (``split_pattern`` max_splits=1), the
    head keeps its last ``context`` codepoints (negative-start slice),
    the tail its first ``term_len + context``, and the term is spliced
    back as the join separator. Codepoint-exact: ``utf8_length`` /
    ``utf8_slice_codeunits`` are codepoint-indexed, so multibyte text
    positions and slices match SQL ``strpos``/``substr`` exactly.

    Output: (id_col, pos [1-based char], snippet).
    """
    import pyarrow.compute as pc

    stop_tail = context  # codepoints kept after the term

    def scan(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        hit = pc.greater_equal(pc.find_substring(text, term), 0)
        ids = batch[id_col].filter(hit)
        text = text.filter(hit)
        parts = pc.split_pattern(text, term, max_splits=1)
        head = pc.list_element(parts, 0)
        tail = pc.list_element(parts, 1)
        pos0 = pc.utf8_length(head)
        snippet = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(head, start=-context, stop=1 << 30),
            pc.utf8_slice_codeunits(tail, start=0, stop=stop_tail),
            term,
        )
        return pa.table(
            {
                id_col: ids,
                "pos": pc.add(pc.cast(pos0, pa.int64()), 1),
                "snippet": snippet,
            }
        )

    return docs.map_batches(scan, batch_format="pyarrow")
