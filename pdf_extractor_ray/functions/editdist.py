"""Blocked pairwise edit-distance (Levenshtein) near-duplicate scan.

Character-level edit distance is the classic record-linkage /
near-duplicate similarity for SHORT text (titles, names, template
instances); unlike MinHash it is exact, order-sensitive, and catches
single-character template edits. All-pairs is O(N^2), so the operator
uses the standard blocking shape: a cheap deterministic block key
(first word + length band), pairs generated only WITHIN a block, and
the global result reduced to the top-k most-similar pairs under a
total order — the same plan a record-linkage pipeline runs at scale,
where the block key is the tuning knob.

Everything is exact integer arithmetic: DuckDB ships a `levenshtein()`
scalar, so the oracle replays the identical blocking self-join and the
identical distances (sf0.01 gate: `editdist_neardup`).

Scale notes: the only corpus-sized pass is the per-batch block-key
tagging; the exchange carries (block, id, text) grouped by a hash
bucket of the block key, and the pair stream exists only inside the
bucket task. Block-size skew is the real-world risk (a hot template
→ quadratic pairs in one bucket); `max_block` bounds it explicitly —
oversized blocks are DROPPED (and counted) rather than silently
stalling a task, mirroring how production linkage systems cap block
cardinality. The DP itself is the O(min*max) two-row numpy kernel
(vectorized inner row + the minimum-accumulate trick for the left
dependency), ~1us/cell-row, not a per-cell Python loop.

Reference parity: the reference validates/cross-references extracted
records by fuzzy similarity (SURVEY.md §2.7 D2-D4 header/marker
similarity); this is the corpus-scale generalization of that pairwise
text-similarity shape with an exact metric.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import cogroup

__all__ = ["levenshtein", "blocked_edit_distance", "edit_distance_clusters"]

_FIRST_WORD_RE = re.compile(r"[a-z0-9]+")


def _units(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-8"), dtype=np.uint8)


def levenshtein(a: str, b: str) -> int:
    """Exact Levenshtein distance (unit costs) over UTF-8 BYTES —
    deliberately DuckDB's `levenshtein()` alphabet (measured: DuckDB
    scores 'héllo'→'hello' as 2, i.e. bytes, not codepoints), so the
    SQL oracle replays these values verbatim. Identical to codepoint
    distance on ASCII text.

    Two-row DP with a vectorized inner loop: substitution/deletion
    terms are one numpy expression per row, and the sequential
    insertion dependency cur[j] = min(cur[j], cur[j-1]+1) is resolved
    with the minimum-accumulate identity on (cur[j] - j) — running
    min of d[j]=cur[j]-j equals the propagated insertion chain.
    Common prefix/suffix are trimmed first; the outer loop runs over
    the SHORTER string.
    """
    if a == b:
        return 0
    x, y = _units(a), _units(b)
    # trim common prefix / suffix (cheap, vectorized)
    n = min(x.size, y.size)
    if n:
        neq = x[:n] != y[:n]
        p = int(np.argmax(neq)) if neq.any() else n
        x, y = x[p:], y[p:]
        n = min(x.size, y.size)
    if n:
        neq = x[::-1][:n] != y[::-1][:n]
        s = int(np.argmax(neq)) if neq.any() else n
        if s:
            x, y = x[:-s], y[:-s]
    if x.size == 0:
        return int(y.size)
    if y.size == 0:
        return int(x.size)
    if x.size > y.size:
        x, y = y, x
    m = y.size
    idx = np.arange(m + 1, dtype=np.int64)
    prev = idx.copy()
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(x.size):
        cur[0] = i + 1
        np.minimum(prev[:m] + (y != x[i]), prev[1:] + 1, out=cur[1:])
        d = cur - idx
        np.minimum.accumulate(d, out=d)
        np.add(d, idx, out=cur)
        prev, cur = cur, prev
    return int(prev[m])


def _blocked_pairs(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    len_band: int,
    max_block: int,
    n_buckets: int,
) -> ray.data.Dataset:
    """Shared candidate stage: (doc_a, doc_b, len_a, len_b, dist) for
    every in-block pair (doc_a < doc_b). Block key = (first [a-z0-9]+
    word of lower(text), codepoint_length // len_band); documents with
    no word emit no candidate (mirrored by the oracle's predicate).
    Blocks larger than ``max_block`` are dropped whole — a documented
    cap, not a silent truncation (see module docstring); the default
    is far above any block this corpus produces, so the oracle (which
    has no cap) agrees.
    """

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = [(t or "").lower() for t in batch[text_col].to_pylist()]
        keep_ids, keys, kept = [], [], []
        for i, t in zip(ids, texts):
            m = _FIRST_WORD_RE.search(t)
            if m is None:
                continue
            keep_ids.append(int(i))
            keys.append(f"{m.group(0)}|{len(t) // len_band}")
            kept.append(t)
        return pa.table(
            {
                "block": pa.array(keys, pa.string()),
                "id": pa.array(keep_ids, pa.int64()),
                "t": pa.array(kept, pa.string()),
            }
        )

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, la, lb, dd = [], [], [], [], []
        for _, blk in group.groupby("block", sort=False):
            if len(blk) < 2 or len(blk) > max_block:
                continue
            blk = blk.sort_values("id")
            ids = blk["id"].to_numpy(dtype=np.int64)
            ts = blk["t"].tolist()
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    out_a.append(ids[i])
                    out_b.append(ids[j])
                    la.append(len(ts[i]))
                    lb.append(len(ts[j]))
                    dd.append(levenshtein(ts[i], ts[j]))
        return pd.DataFrame(
            {
                "doc_a": pd.Series(out_a, dtype=np.int64),
                "doc_b": pd.Series(out_b, dtype=np.int64),
                "len_a": pd.Series(la, dtype=np.int64),
                "len_b": pd.Series(lb, dtype=np.int64),
                "dist": pd.Series(dd, dtype=np.int64),
            }
        )

    i64 = pa.int64()
    return cogroup(
        {
            "group": (
                ds.select_columns([id_col, text_col]).map_batches(
                    tag, batch_format="pyarrow"
                ),
                "block",
            )
        },
        lambda group: pairs_in_bucket(group.to_pandas()),
        pa.schema(
            [("doc_a", i64), ("doc_b", i64), ("len_a", i64), ("len_b", i64), ("dist", i64)]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )


def blocked_edit_distance(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    len_band: int = 64,
    top_pairs: int = 50,
    max_block: int = 4096,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Top-k most-similar in-block document pairs by exact Levenshtein
    distance: (doc_a, doc_b, len_a, len_b, dist), ordered by
    (dist ASC, doc_a ASC, doc_b ASC) — a total order, so the LIMIT
    boundary is deterministic and SQL-replayable. See
    ``_blocked_pairs`` for the blocking contract.
    """
    pairs = _blocked_pairs(ds, text_col, id_col, len_band, max_block, n_buckets)
    # pair stream is block-bounded (documented above); the global
    # top-k is a sort over that already-small stream, not the corpus
    return pairs.sort(["dist", "doc_a", "doc_b"]).limit(top_pairs)


def edit_distance_clusters(
    ds: ray.data.Dataset,
    max_dist: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
    len_band: int = 64,
    max_block: int = 4096,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Entity-resolution composite: blocking -> exact pairwise edit
    distance -> match edges (dist <= max_dist) -> connected-component
    clusters. Output (doc_id, cluster_id) for every document that has
    at least one match edge; cluster_id = min doc_id in the component
    (the record-linkage 'golden record key' convention).

    This is the classic three-stage linkage plan (block, compare,
    cluster) run as one streaming Ray pipeline; the CC stage is the
    repo's label-propagation ``connected_components`` (match edges
    pushed once into the graph shard index, driver sees one scalar
    per round). The SQL
    oracle replays blocking + levenshtein edges + a recursive-CTE
    transitive closure.
    """
    import pyarrow.compute as pc

    from .graph import connected_components

    pairs = _blocked_pairs(ds, text_col, id_col, len_band, max_block, n_buckets)
    edges = pairs.map_batches(
        lambda b: b.filter(pc.less_equal(b["dist"], max_dist)).select(
            ["doc_a", "doc_b"]
        ),
        batch_format="pyarrow",
    )
    return connected_components(edges, id_a="doc_a", id_b="doc_b")
