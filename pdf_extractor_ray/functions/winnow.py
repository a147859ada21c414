"""Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
SIGMOD 2003 — the MOSS algorithm).

Selects, for every window of ``w`` consecutive word-``k``-gram hashes,
the minimum hash (rightmost position on ties — "robust winnowing"),
giving a position-stable fingerprint set whose density is ~2/(w+1)
per gram: the classic sublinear sketch for plagiarism / near-dup
detection over large corpora.  The reference repo fingerprints whole
documents with one md5 (`src/pdf_extractor/utils.py` hash helpers);
winnowing is the span-level generalization a crawl-scale curation
stack needs.

Hash choice: md5 of the lowercased space-joined gram — the hash VALUE
drives window-min selection, so it must be replayable cross-engine for
the DuckDB oracle (unlike `dedup._batch_ngram_hashes`, whose oracle
groups on gram STRINGS and can therefore use the vectorized
non-replayable SipHash).  A production deployment would swap the md5
constant for that uint64 SipHash path and drop the oracle; everything
else (window-min, exchanges) is hash-agnostic.  Window-min itself is
vectorized: one ``sliding_window_view`` + reversed ``argmin`` per doc
over a big-endian-uint64 view of the digests (first 8 bytes — ties
beyond 64 bits occur only for identical grams, where full-md5 and
prefix order agree).

Scale shape: one map pass emits ~n_grams/w fingerprint rows per doc;
two coarse-bucket exchanges (one keyed on fingerprint hash for the
cross-doc sharing counts, one keyed on doc id for the per-doc fold).
No driver-side materialization; the fingerprint stream is ~20% of the
gram count, not the text size.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import cogroup

_WORD_RE = re.compile(r"\S+")


def _doc_fingerprints(text: str, k: int, w: int):
    """(n_grams, positions, hex_digests) of one doc's winnowing set."""
    words = _WORD_RE.findall((text or "").lower())
    ng = max(len(words) - k + 1, 0)
    if ng == 0:
        return 0, np.empty(0, dtype=np.int64), []
    dg = [
        hashlib.md5(
            " ".join(words[j : j + k]).encode("utf-8", "surrogatepass")
        ).digest()
        for j in range(ng)
    ]
    # big-endian uint64 view of the first 8 digest bytes: numeric order
    # == lexicographic order on the hex strings the oracle compares
    hv = np.frombuffer(b"".join(dg), dtype=">u8")[::2]
    width = min(w, ng)
    sw = np.lib.stride_tricks.sliding_window_view(hv, width)
    # first-min of the reversed window == rightmost-min of the window
    rev = sw[:, ::-1].argmin(axis=1)
    pos = np.arange(sw.shape[0], dtype=np.int64) + (width - 1 - rev)
    sel = np.unique(pos)
    return ng, sel, [dg[p].hex() for p in sel]


def winnow_fingerprints(
    ds: ray.data.Dataset,
    k: int = 4,
    w: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-doc winnowing summary: (doc_id, n_grams, n_fp, n_shared,
    fp_digest).

    ``n_fp`` is the winnowing fingerprint count, ``fp_digest`` the md5
    of the position-ordered concatenated fingerprint hashes (an exact,
    order-sensitive set checksum), and ``n_shared`` how many of the
    doc's DISTINCT fingerprint hashes also occur in at least one other
    doc — the cross-doc overlap signal MOSS ranks matches by.
    """

    def emit_fp(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id: list[int] = []
        out_ng: list[int] = []
        out_pos: list[int] = []
        out_h: list[str] = []
        for i, t in zip(ids, texts):
            ng, sel, hexes = _doc_fingerprints(t, k, w)
            if ng == 0:
                # stub row keeps empty docs visible to the final fold
                out_id.append(int(i))
                out_ng.append(0)
                out_pos.append(-1)
                out_h.append("")
                continue
            out_id.extend([int(i)] * len(sel))
            out_ng.extend([ng] * len(sel))
            out_pos.extend(int(p) for p in sel)
            out_h.extend(hexes)
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "ng": pa.array(out_ng, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
                "h": pa.array(out_h, pa.string()),
                "nsb": pa.array([0] * len(out_id), pa.int64()),
            }
        )

    # two consumers below (sharing exchange + per-doc fold): materialize
    # once so a lazy upstream is not re-executed / free to diverge
    fp = ds.map_batches(emit_fp, batch_format="pyarrow").materialize()

    # ---- exchange 1: fingerprint-hash buckets -> per-doc shared counts
    def tag_h(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["pos"] >= 0][[id_col, "h"]].drop_duplicates()
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy(), pa.int64()),
                "h": pa.array(df["h"].to_numpy(), pa.string()),
            }
        )

    def shared_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([id_col, "h"])
        nd = g.groupby("h")[id_col].nunique()
        shared = set(nd[nd >= 2].index)
        g = g[g["h"].isin(shared)]
        per_doc = g.groupby(id_col).size()
        return pd.DataFrame(
            {
                id_col: per_doc.index.astype("int64"),
                "ng": np.full(len(per_doc), -1, dtype="int64"),
                "pos": np.full(len(per_doc), -2, dtype="int64"),
                "h": [""] * len(per_doc),
                "nsb": per_doc.to_numpy().astype("int64"),
            }
        )

    i64 = pa.int64()
    fp_schema = pa.schema(
        [(id_col, i64), ("ng", i64), ("pos", i64), ("h", pa.string()), ("nsb", i64)]
    )
    shared = cogroup(
        {"g": (fp.map_batches(tag_h, batch_format="pyarrow"), "h")},
        lambda g: shared_in_bucket(g.to_pandas()),
        fp_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )

    # ---- exchange 2: doc buckets -> final per-doc fold
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        own = g[g["pos"] >= -1]
        fps = own[own["pos"] >= 0].sort_values([id_col, "pos"])
        ngs = own.groupby(id_col)["ng"].max()
        nfp = fps.groupby(id_col).size().reindex(ngs.index, fill_value=0)
        dig = (
            fps.groupby(id_col)["h"]
            .agg(lambda s: hashlib.md5("".join(s).encode()).hexdigest())
            .reindex(ngs.index, fill_value=hashlib.md5(b"").hexdigest())
        )
        nsh = (
            g[g["nsb"] > 0]
            .groupby(id_col)["nsb"]
            .sum()
            .reindex(ngs.index, fill_value=0)
        )
        return pd.DataFrame(
            {
                id_col: ngs.index.astype("int64"),
                "n_grams": ngs.to_numpy().astype("int64"),
                "n_fp": nfp.to_numpy().astype("int64"),
                "n_shared": nsh.to_numpy().astype("int64"),
                "fp_digest": dig.to_numpy(),
            }
        )

    return cogroup(
        {"g": (fp.union(shared), id_col, fp_schema)},
        lambda g: fold(g.to_pandas()),
        pa.schema(
            [(id_col, i64), ("n_grams", i64), ("n_fp", i64), ("n_shared", i64),
             ("fp_digest", pa.string())]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )
