"""Binary token-shard export (.bin/.idx) + byte-exact read-back audit.

Behavioral spec (public): GPT-style training stacks don't read Parquet
in the inner loop — they memory-map flat binary token shards. The two
canonical public layouts are nanoGPT's ``train.bin`` (a bare array of
little-endian uint16 token ids, np.memmap'd by the dataloader) and
Megatron-LM's indexed dataset (``.bin`` payload + ``.idx`` offsets).
This module is that export step as a Ray-Data-native sink over the
output of :func:`packing.token_stream_chunks`:

  shard s  <-  every chunk with ``chunk_id % n_shards == s``,
               concatenated in chunk_id order
  s.bin    =   uint16 little-endian token ids, chunk after chunk
  s.idx    =   int64 little-endian triples (chunk_id, token_offset,
               n_tokens) — enough to memory-map any chunk directly

Distributed shape: one ``groupby(shard)`` exchange moves each token
exactly once (unavoidable — bytes must be contiguous per file); each
group task writes its file pair ATOMICALLY (tmp + rename) so a
re-run overwrites cleanly and a killed run leaves no half shard —
the same resumability contract as the repo's parquet lineage sink.
At scale, pick ``n_shards = total_tokens * 2 / target_shard_bytes``
so shards stay memory-mappable; the driver holds only the manifest
(one row per shard).

The audit half (:func:`read_token_bin_manifest`) re-reads the ACTUAL
files and fingerprints their raw bytes — so the correctness gate
checks the bits on disk, not the writer's intent: ``bin_md5`` is the
md5 of the .bin byte stream (hex form) and ``idx_md5`` the md5 of the
decoded (chunk_id, offset, n_tokens) triple list. Both are exactly
SQL-replayable when the token stream itself is (hex-expand each
uint16 LE: low byte then high byte).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import cogroup

__all__ = ["export_token_bin_shards", "read_token_bin_manifest"]


def export_token_bin_shards(
    chunks: ray.data.Dataset,
    out_dir: str,
    n_shards: int = 8,
    chunk_col: str = "chunk_id",
    ids_col: str = "ids",
) -> list[int]:
    """Write ``{out_dir}/shard-{s:05d}.bin/.idx`` pairs; returns the
    list of shard ids written. Tokens must fit uint16 (vocab < 65536
    — the nanoGPT contract); a larger id raises in the worker."""
    os.makedirs(out_dir, exist_ok=True)

    def tag(batch: pa.Table) -> pa.Table:
        cid = batch[chunk_col].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "_shard", pa.array(cid % n_shards, pa.int64())
        )

    def write_shard(group: pd.DataFrame) -> pd.DataFrame:
        s = int(group["_shard"].iloc[0])
        g = group.sort_values(chunk_col)
        toks = np.concatenate(
            [np.asarray(x, dtype=np.int64) for x in g[ids_col]]
        ) if len(g) else np.array([], dtype=np.int64)
        if toks.size and int(toks.max()) >= 65536:
            raise ValueError(
                f"token id {int(toks.max())} exceeds uint16 vocab"
            )
        if toks.size and int(toks.min()) < 0:
            raise ValueError("negative token id")
        lens = g[ids_col].map(len).to_numpy(dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]]) if len(g) else []
        idx = np.column_stack(
            [g[chunk_col].to_numpy(dtype=np.int64), offs, lens]
        ) if len(g) else np.empty((0, 3), dtype=np.int64)

        bin_path = os.path.join(out_dir, f"shard-{s:05d}.bin")
        idx_path = os.path.join(out_dir, f"shard-{s:05d}.idx")
        # atomic: write tmp, rename — a killed task leaves no half file
        for path, payload in (
            (bin_path, toks.astype("<u2").tobytes()),
            (idx_path, idx.astype("<i8").tobytes()),
        ):
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)
        return pd.DataFrame({"shard": [np.int64(s)]})

    written = cogroup(
        {"group": (chunks.map_batches(tag, batch_format="pyarrow"), "_shard")},
        lambda group: write_shard(group.to_pandas()),
        pa.schema([("shard", pa.int64())]),
        n_buckets=n_shards,
        coalesce=False,
    ).to_pandas()  # one row per shard
    return sorted(int(s) for s in written["shard"])


def read_token_bin_manifest(
    out_dir: str, shards: list[int]
) -> pd.DataFrame:
    """Audit pass: decode each ACTUAL file pair and fingerprint it.

    Returns (shard, n_chunks, n_tokens, bin_md5, idx_md5) — bin_md5
    over the .bin bytes' hex form, idx_md5 over the decoded
    ``chunk:offset:len`` triple list. Runs as a parallel map over the
    shard list (one task per file pair); the driver sees only the
    n_shards-row manifest."""

    def audit(batch: pa.Table) -> pa.Table:
        out = {
            "shard": [],
            "n_chunks": [],
            "n_tokens": [],
            "bin_md5": [],
            "idx_md5": [],
        }
        for s in batch["shard"].to_pylist():
            with open(os.path.join(out_dir, f"shard-{s:05d}.bin"), "rb") as f:
                raw = f.read()
            with open(os.path.join(out_dir, f"shard-{s:05d}.idx"), "rb") as f:
                idx = np.frombuffer(f.read(), dtype="<i8").reshape(-1, 3)
            out["shard"].append(s)
            out["n_chunks"].append(len(idx))
            out["n_tokens"].append(len(raw) // 2)
            out["bin_md5"].append(hashlib.md5(raw.hex().encode()).hexdigest())
            trip = ",".join(f"{c}:{o}:{n}" for c, o, n in idx)
            out["idx_md5"].append(hashlib.md5(trip.encode()).hexdigest())
        return pa.table(
            {
                "shard": pa.array(out["shard"], pa.int64()),
                "n_chunks": pa.array(out["n_chunks"], pa.int64()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "bin_md5": pa.array(out["bin_md5"], pa.string()),
                "idx_md5": pa.array(out["idx_md5"], pa.string()),
            }
        )

    ds = ray.data.from_arrow(
        pa.table({"shard": pa.array(shards, pa.int64())})
    )
    return (
        ds.map_batches(audit, batch_format="pyarrow", batch_size=1)
        .to_pandas()
        .sort_values("shard")
        .reset_index(drop=True)
    )
