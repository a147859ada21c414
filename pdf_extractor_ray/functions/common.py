"""Shared helpers for the corpus operators: the bucket owner rule,
the pre-exchange coalesce, and the size-proportional parquet read.

The bucket exchange itself (bucket, tag, union, exchange, split) is
:func:`pdf_extractor_ray.functions.exchange.cogroup`; its module
docstring states the exchange contract. ``bucket_ids`` here is its
owner rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .shards import cluster_cpus

__all__ = ["coalesce_for_exchange", "bucket_ids", "sized_read_parquet"]


def bucket_ids(col, n_buckets: int) -> np.ndarray:
    """Vectorized per-row bucket ids for a coarse-bucket exchange.

    Integer columns bucket by ``value % n_buckets`` (cheap, and keeps
    the existing int-key bucket layout); everything else hashes with
    ``pd.util.hash_array`` — the repo's standard vectorized 64-bit
    hash (C-speed siphash, PYTHONHASHSEED-independent, deterministic
    across processes). Replaces per-row ``zlib.crc32(str(k).encode())``
    Python loops that sat on 10M-row measured paths. Bucket values
    never leave the operator that made them (groups are merged/reduced
    in-bucket), so only uniformity and run-to-run determinism matter,
    not any specific hash function.

    Accepts a ``pa.Array`` / ``pa.ChunkedArray`` / numpy array / list.
    """
    import pandas as pd

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array):
        if pa.types.is_integer(col.type):
            vals = col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
            return np.abs(vals) % n_buckets
        arr = np.asarray(col.to_pandas(), dtype=object)
    else:
        arr = np.asarray(col)
        if arr.dtype.kind in "iu":
            return np.abs(arr.astype(np.int64, copy=False)) % n_buckets
        if arr.dtype != object:
            arr = arr.astype(object)
    # categorize=False is NOT an optimization knob here: the
    # categorize path factorizes with C-string semantics, so strings
    # containing '\x00' collapse to the first-seen representative —
    # the SAME key then buckets DIFFERENTLY in different tasks
    # (order-dependent), silently splitting groups. Direct hashing is
    # value-exact (and measured no slower on repetitive key arrays).
    h = pd.util.hash_array(arr, categorize=False)
    return (h % np.uint64(n_buckets)).astype(np.int64)


def coalesce_for_exchange(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Local (no-shuffle) coalesce to ``exchange.exchange_width()``
    blocks ahead of an exchange that is not a bucket cogroup (a groupby
    on a real data column, an aggregate). Use on NARROW pre-aggregated
    partial streams; full-row streams keep data-proportional block
    counts. ``exchange.cogroup`` applies the same rule through its
    ``coalesce`` argument."""
    from .exchange import exchange_width

    return ds.repartition(exchange_width(), shuffle=False)


def sized_read_parquet(path, columns=None, target_block_bytes: int = 32 * 1024 * 1024, **kwargs):
    """``read_parquet`` with a block count proportional to the on-disk
    size instead of Ray's CPU-count-driven default split.

    Ray splits even a 50 KiB dimension table into ~2x-CPUs blocks, so
    every downstream stage pays one scheduling round of near-empty
    tasks (~50 ms each x 64 tasks x several stages — measured 14.2 s ->
    5.8 s on the 4-join market_share chain at sf0.1). One block per
    ``target_block_bytes`` of file keeps small inputs to a handful of
    tasks while leaving genuinely large inputs to Ray's own streaming
    split (no override once the size-derived count reaches the default
    parallelism) — so the behavior is identical at 100 TB and only the
    small-table overhead disappears.

    Use this ONLY for scans whose per-row work is a trivial vectorized
    tag (the relational star-schema tables). Compute-dense tables
    (documents/embeddings: BPE, quality gates, matmuls) compress far
    smaller than their CPU cost — on-disk bytes are the WRONG proxy
    there, and capping their block count would serialize the lane;
    they keep Ray's CPU-count-driven split.
    """
    import os

    import ray

    paths = [path] if isinstance(path, (str, bytes)) else list(path)
    total = 0
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                total += sum(
                    os.path.getsize(os.path.join(root, f))
                    for f in files
                    if f.endswith(".parquet")
                )
        elif os.path.exists(p):
            total += os.path.getsize(p)
    cpus = cluster_cpus()
    size_blocks = max(1, -(-total // target_block_bytes))
    if total and size_blocks < 2 * cpus:
        kwargs.setdefault("override_num_blocks", int(size_blocks))
    return ray.data.read_parquet(path, columns=columns, **kwargs)
