"""Exact all-pairs TF-IDF cosine similarity join (AllPairs/PPJoin
family, integer-exact variant).

Finds every document pair whose TF-IDF cosine clears a threshold —
the exact counterpart to the MinHash/SimHash *approximate* near-dup
family: no hashing, no bands, no recall loss, replayable in SQL.

Semantics (all integers, so the DuckDB oracle replays bit for bit):

- terms are word 3-grams of ``[a-z0-9]+`` tokens of lower(text) (the
  repo's standard tokenizer); term frequency ``tf`` counts gram
  occurrences per doc.
- only terms with ``2 <= df <= df_cap`` participate (in weights,
  norms AND dots). df=1 terms cannot contribute to any pair; the cap
  is the OPERATOR'S volume contract — it bounds per-term pair fan-out
  at df_cap^2 and is the standard prefix-filter analogue (a term
  shared by half the corpus carries no similarity signal and would
  otherwise emit O(corpus^2) candidate pairs).
- weight ``w(t,d) = tf * bit_length(N // df(t))`` — the integer-idf
  convention shared with the bigram-LM operator (floor-log2 idf keeps
  every weight, norm and dot an exact int64; SQL replays bit_length
  as ``length(printf('%b', x))``).
- a pair passes when ``cos >= threshold_pm/1000``, evaluated without
  any sqrt or divide: ``dot^2 * 1e6 >= t_pm^2 * ||a||^2 * ||b||^2``
  (dot >= 0 here since weights are non-negative) — the final compare
  runs in unbounded Python ints, so no overflow at any corpus size.

Distributed shape (three narrow exchanges, corpus touched once):

  1. gram-bucket exchange of (gram, doc, tf) rows; the bucket task
     computes df per gram IN-BUCKET (every row of a gram co-locates),
     drops out-of-band dfs, and emits BOTH per-doc norm partials and
     per-pair dot partials, each pre-summed inside the bucket.
  2. pair-bucket groupby folds dot partials -> exact dots.
  3. doc-bucket cogroups attach ||a||^2 then ||b||^2 to each pair
     (norms are doc-sized; nothing is broadcast).

Reference parity: no reference analogue; covers the exact-similarity
end of SURVEY.md §2's dedup/similarity axis (the oracle family the
approximate operators are graded against).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .exchange import cogroup

__all__ = ["tfidf_cosine_pairs", "containment_pairs"]

_WORD_RE = re.compile(r"[a-z0-9]+")


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorized int bit_length via frexp (exact for x < 2^53)."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


def _band_spans(group: pd.DataFrame, df_cap: int):
    """Sort the bucket's rows by gram; return (sorted frame, span
    starts, span sizes) for grams inside the df band [2, df_cap]."""
    g = group.sort_values("gram", kind="stable").reset_index(drop=True)
    grams = g["gram"].to_numpy()
    # span boundaries without per-gram iteration
    change = np.concatenate(([True], grams[1:] != grams[:-1]))
    starts = np.flatnonzero(change)
    sizes = np.diff(np.concatenate((starts, [len(g)])))
    band = (sizes >= 2) & (sizes <= df_cap)
    return g, starts[band], sizes[band]


def _concat_aranges(sizes: np.ndarray) -> np.ndarray:
    """[arange(s) for s in sizes] concatenated, without a Python loop."""
    total = int(sizes.sum())
    if not total:
        return np.empty(0, np.int64)
    out = np.ones(total, np.int64)
    ends = np.cumsum(sizes)
    out[0] = 0
    out[ends[:-1]] = 1 - sizes[:-1]
    return np.cumsum(out)


def _bucket_sum(
    ds: ray.data.Dataset,
    keys: tuple[str, ...],
    val: str,
    alias: str,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """High-cardinality grouped SUM via the repo-standard coarse
    bucket + in-bucket pandas groupby. Routing a per-doc or per-pair
    key through Ray's Aggregate API is the measured group-explosion
    trap (BASELINE round 4: 40x CPU on clf_train, 10.4 of
    cosine_pairs' 20.4 s here before this helper)."""

    def tag(batch: pa.Table) -> pa.Table:
        k = batch[keys[0]].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 2:
            k = k * np.int64(1_000_003) + batch[keys[1]].to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
        return batch.append_column("_k", pa.array(k))

    def sum_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(list(keys), as_index=False)[val].sum()
        return out.rename(columns={val: alias}).astype(np.int64)

    return cogroup(
        {"group": (ds.map_batches(tag, batch_format="pyarrow"), "_k")},
        lambda group: sum_in_bucket(group.to_pandas()),
        pa.schema([(c, pa.int64()) for c in (*keys, alias)]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def _mixed_schema(val: str) -> pa.Schema:
    """Per-gram output of the pair joins: kind 0 rows carry a per-doc
    partial, kind 1 rows a per-pair partial."""
    i64 = pa.int64()
    return pa.schema([("kind", pa.int8()), ("doc_a", i64), ("doc_b", i64), (val, i64)])


def _pair_indices(starts: np.ndarray, sizes: np.ndarray):
    """All in-span row-index pairs, vectorized per size class (sizes
    are df-capped, so there are at most df_cap-1 classes)."""
    ia_all, ib_all = [], []
    for s in np.unique(sizes):
        sel = starts[sizes == s]
        # (k, s) matrix of row indices for every span of this size
        mat = sel[:, None] + np.arange(s)[None, :]
        iu1, iu2 = np.triu_indices(s, k=1)
        ia_all.append(mat[:, iu1].ravel())
        ib_all.append(mat[:, iu2].ravel())
    if not ia_all:
        e = np.empty(0, np.int64)
        return e, e
    return np.concatenate(ia_all), np.concatenate(ib_all)


def tfidf_cosine_pairs(
    docs: ray.data.Dataset,
    threshold_pm: int = 500,
    df_cap: int = 20,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 128,
) -> pd.DataFrame:
    """All pairs with TF-IDF cosine >= threshold_pm/1000. Returns
    (doc_a, doc_b, dot, norm_a, norm_b) with doc_a < doc_b; callers
    derive cos = dot / sqrt(norm_a*norm_b) if they want the float."""

    n_docs = docs.count()

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        out_g, out_d, out_tf = [], [], []
        for did, text in zip(ids, batch[text_col].to_pylist()):
            ws = _WORD_RE.findall((text or "").lower())
            if len(ws) < 3:
                continue
            counts: dict[str, int] = {}
            for i in range(len(ws) - 2):
                g = f"{ws[i]} {ws[i+1]} {ws[i+2]}"
                counts[g] = counts.get(g, 0) + 1
            out_g.extend(counts.keys())
            out_d.extend([int(did)] * len(counts))
            out_tf.extend(counts.values())
        return pa.table(
            {
                "gram": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "tf": pa.array(out_tf, pa.int64()),
            }
        )

    def per_gram(group: pd.DataFrame) -> pd.DataFrame:
        """df filter + weights + norm partials + pair-dot partials —
        fully vectorized (span detection by sorted-gram boundaries,
        pair expansion by size class; no per-gram Python loop: the
        loop was 15x the runtime at 160k grams/bucket)."""
        g, starts, sizes = _band_spans(group, df_cap)
        if not len(starts):
            return None
        in_band = np.zeros(len(g), bool)
        row_df = np.zeros(len(g), np.int64)
        idx = np.repeat(starts, sizes) + _concat_aranges(sizes)
        in_band[idx] = True
        row_df[idx] = np.repeat(sizes, sizes)
        d_all = g["doc_id"].to_numpy(np.int64)
        tf_all = g["tf"].to_numpy(np.int64)
        w_all = np.zeros(len(g), np.int64)
        w_all[in_band] = tf_all[in_band] * _bit_length(
            n_docs // row_df[in_band]
        )
        norm = (
            pd.DataFrame({"doc_a": d_all[in_band], "dot": w_all[in_band] ** 2})
            .groupby("doc_a", as_index=False)["dot"].sum()
        )
        ia, ib = _pair_indices(starts, sizes)
        lo = np.minimum(d_all[ia], d_all[ib])
        hi = np.maximum(d_all[ia], d_all[ib])
        pairs = (
            pd.DataFrame({"doc_a": lo, "doc_b": hi, "dot": w_all[ia] * w_all[ib]})
            .groupby(["doc_a", "doc_b"], as_index=False)["dot"].sum()
        )
        norm["kind"] = np.int8(0)
        norm["doc_b"] = np.int64(0)
        pairs["kind"] = np.int8(1)
        cols = ["kind", "doc_a", "doc_b", "dot"]
        return pd.concat([norm[cols], pairs[cols]], ignore_index=True)

    mixed = cogroup(
        {
            "group": (
                docs.select_columns([id_col, text_col]).map_batches(
                    gram_rows, batch_format="pyarrow"
                ),
                "gram",
            )
        },
        lambda group: per_gram(group.to_pandas()),
        _mixed_schema("dot"),
        n_buckets=n_buckets,
        coalesce=True,
    ).materialize()  # consumed twice: norm lane + pair lane

    def norm_lane(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch["kind"], 0)).select(
            ["doc_a", "dot"]
        )

    norms = (
        _bucket_sum(
            mixed.map_batches(norm_lane, batch_format="pyarrow"),
            ("doc_a",),
            "dot",
            "n2",
        )
        .to_pandas()
        .rename(columns={"doc_a": "doc_id"})
    )

    def tag_pairs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flt = batch.filter(pc.equal(batch["kind"], 1))
        return flt.select(["doc_a", "doc_b", "dot"])

    dots = _bucket_sum(
        mixed.map_batches(tag_pairs, batch_format="pyarrow"),
        ("doc_a", "doc_b"),
        "dot",
        "dot",
    ).to_pandas()

    cols = ["doc_a", "doc_b", "dot", "norm_a", "norm_b"]
    if not len(dots) or not len(norms):
        # ray's to_pandas drops column names on fully-empty datasets
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})

    # final threshold in unbounded Python ints (pair-sized, driver ok:
    # output pairs are the operator's result set; at 100 TB this fold
    # moves to one more pair-bucket map — the arithmetic is identical)
    out = dots.merge(
        norms.rename(columns={"doc_id": "doc_a", "n2": "norm_a"}), on="doc_a"
    ).merge(
        norms.rename(columns={"doc_id": "doc_b", "n2": "norm_b"}), on="doc_b"
    )
    t2 = int(threshold_pm) * int(threshold_pm)
    keep = [
        int(d) * int(d) * 1_000_000 >= t2 * int(na) * int(nb)
        for d, na, nb in zip(out["dot"], out["norm_a"], out["norm_b"])
    ]
    out = out[np.array(keep, bool)] if len(out) else out
    out = out[["doc_a", "doc_b", "dot", "norm_a", "norm_b"]].astype(np.int64)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def containment_pairs(
    docs: ray.data.Dataset,
    threshold_pm: int = 700,
    df_cap: int = 20,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 128,
) -> pd.DataFrame:
    """Asymmetric near-dup: pairs where the SMALLER document's 3-gram
    set is mostly inside the larger's — ``|A ∩ B| >= t * min(|A|,|B|)``
    — the partial-copy / quote-expansion signal cosine misses (a
    paragraph quoted inside a long page has low cosine but high
    containment). Set semantics (tf ignored); same gram-bucket
    exchange and df band contract as ``tfidf_cosine_pairs``; the
    threshold is integer cross-multiplied (no divide).

    Set sizes count ONLY df-band grams (the same universe the
    intersection is computed over, so containment is well-defined and
    the oracle replays it exactly).

    Output: (doc_a, doc_b, n_common, size_a, size_b), doc_a < doc_b.
    """

    n_docs = docs.count()

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        out_g, out_d = [], []
        for did, text in zip(ids, batch[text_col].to_pylist()):
            ws = _WORD_RE.findall((text or "").lower())
            seen = set()
            for i in range(len(ws) - 2):
                seen.add(f"{ws[i]} {ws[i+1]} {ws[i+2]}")
            out_g.extend(seen)
            out_d.extend([int(did)] * len(seen))
        return pa.table(
            {
                "gram": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
            }
        )

    def per_gram(group: pd.DataFrame) -> pd.DataFrame:
        """Vectorized like the cosine twin: boundary spans + size-class
        pair expansion, no per-gram loop."""
        g, starts, sizes = _band_spans(group, df_cap)
        if not len(starts):
            return None
        d_all = g["doc_id"].to_numpy(np.int64)
        band_idx = np.repeat(starts, sizes) + _concat_aranges(sizes)
        size = (
            pd.DataFrame({"doc_a": d_all[band_idx], "n": np.int64(1)})
            .groupby("doc_a", as_index=False)["n"].sum()
        )
        ia, ib = _pair_indices(starts, sizes)
        lo = np.minimum(d_all[ia], d_all[ib])
        hi = np.maximum(d_all[ia], d_all[ib])
        pair = (
            pd.DataFrame({"doc_a": lo, "doc_b": hi, "n": np.int64(1)})
            .groupby(["doc_a", "doc_b"], as_index=False)["n"].sum()
        )
        size["kind"] = np.int8(0)
        size["doc_b"] = np.int64(0)
        pair["kind"] = np.int8(1)
        cols = ["kind", "doc_a", "doc_b", "n"]
        return pd.concat([size[cols], pair[cols]], ignore_index=True)

    mixed = cogroup(
        {
            "group": (
                docs.select_columns([id_col, text_col]).map_batches(
                    gram_rows, batch_format="pyarrow"
                ),
                "gram",
            )
        },
        lambda group: per_gram(group.to_pandas()),
        _mixed_schema("n"),
        n_buckets=n_buckets,
        coalesce=True,
    ).materialize()  # consumed twice: size lane + pair lane

    def size_lane(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch["kind"], 0)).select(
            ["doc_a", "n"]
        )

    sizes = (
        _bucket_sum(
            mixed.map_batches(size_lane, batch_format="pyarrow"),
            ("doc_a",),
            "n",
            "sz",
        )
        .to_pandas()
        .rename(columns={"doc_a": "doc_id"})
    )

    def pair_lane(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch["kind"], 1)).select(
            ["doc_a", "doc_b", "n"]
        )

    inter = _bucket_sum(
        mixed.map_batches(pair_lane, batch_format="pyarrow"),
        ("doc_a", "doc_b"),
        "n",
        "n_common",
    ).to_pandas()

    cols = ["doc_a", "doc_b", "n_common", "size_a", "size_b"]
    if not len(inter) or not len(sizes):
        return pd.DataFrame({c: pd.Series([], dtype=np.int64) for c in cols})

    out = inter.merge(
        sizes.rename(columns={"doc_id": "doc_a", "sz": "size_a"}), on="doc_a"
    ).merge(
        sizes.rename(columns={"doc_id": "doc_b", "sz": "size_b"}), on="doc_b"
    )
    mn = np.minimum(out["size_a"].to_numpy(), out["size_b"].to_numpy())
    keep = out["n_common"].to_numpy() * 1000 >= int(threshold_pm) * mn
    out = out[keep][cols].astype(np.int64)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
