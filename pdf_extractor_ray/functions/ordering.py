"""Range-partitioned global sort + sorted export (no `ds.sort`).

Behavioral spec: downstream consumers of a curated corpus often need
globally key-ordered output (binary-searchable shards, merge-joinable
exports, time-ordered replays). Ray's `ds.sort` is a full all-to-all
with opaque boundary sampling; at 100 TB the scale-honest shape is the
classic range-partition sort:

  1. ONE bounded histogram pass over coarse key cells
     (``key >> cell_shift``; choose cell_shift so the cell count is
     <= ~2^16 — the driver holds cell counts, never keys),
  2. a DETERMINISTIC cell -> partition map: partition =
     ``min(n_parts-1, cum_before * n_parts // total)`` (pure integer
     arithmetic on the cumulative histogram, so a SQL oracle derives
     the identical boundaries — no RNG sampling like `ds.sort`),
  3. one exchange on the partition id, each partition sorted
     in-memory (partition size ~ total/n_parts by construction —
     pick n_parts so a partition fits a worker),
  4. partitions tile the key space in order, so reading
     ``part=0..B-1`` back-to-back IS the global sort; each part
     carries a manifest row (part, min_key, max_key, n_rows[,
     keys_md5]) for verification and resumable/mergeable consumption.

Skew note: cells are the granularity of balance — a single hot KEY
(duplicates beyond total/n_parts) cannot be split and lands in one
partition, the same contract as every equal-range sort. The histogram
makes that visible before the exchange (the driver can see the hot
cell and raise n_parts or pre-salt).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from pdf_extractor_ray.functions.exchange import cogroup

__all__ = ["range_partition_map", "range_sort_manifest", "range_sorted_export"]


def range_partition_map(
    ds: ray.data.Dataset,
    key_col: str,
    n_parts: int,
    cell_shift: int = 16,
) -> dict[int, int]:
    """Pass 1: coarse-cell histogram -> deterministic cell->partition
    dict (driver state: one int per non-empty cell)."""

    def cells(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uk, c = np.unique(k >> cell_shift, return_counts=True)
        return pa.table(
            {
                "cell": pa.array(uk),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("cell", as_index=False)["c"].sum()

    hist = cogroup(
        {"group": (ds.map_batches(cells, batch_format="pyarrow", batch_size=None), "cell")},
        lambda group: merge(group.to_pandas()),
        pa.schema([("cell", pa.int64()), ("c", pa.int64())]),
        n_buckets=256,
        coalesce=True,
    ).to_pandas()  # bounded: one row per non-empty cell
    if hist.empty:  # empty input: groupby yields no groups/columns
        return {}
    hist = hist.sort_values("cell").reset_index(drop=True)
    total = int(hist["c"].sum())
    if total == 0:
        return {}
    cum_before = hist["c"].cumsum().shift(fill_value=0).to_numpy(dtype=np.int64)
    parts = np.minimum(n_parts - 1, cum_before * n_parts // total)
    return dict(zip(hist["cell"].astype(int), parts.astype(int)))


def _assign_and_group(
    ds: ray.data.Dataset,
    key_col: str,
    n_parts: int,
    cell_shift: int,
    part_of: dict[int, int] | None = None,
):
    if part_of is None:
        part_of = range_partition_map(ds, key_col, n_parts, cell_shift)

    def assign(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        p = np.array([part_of[c] for c in (k >> cell_shift)], dtype=np.int64)
        return batch.append_column("part", pa.array(p))

    return ds.map_batches(assign, batch_format="pyarrow", batch_size=None)


def range_sort_manifest(
    ds: ray.data.Dataset,
    key_col: str,
    n_parts: int = 8,
    cell_shift: int = 16,
    fingerprint: bool = True,
    part_of: dict[int, int] | None = None,
) -> ray.data.Dataset:
    """Manifest of the range-partition sort: one row per partition —
    ``(part, min_key, max_key, n_rows[, keys_md5])`` where keys_md5
    is the md5 of the comma-joined SORTED keys (proves the in-part
    order, and since parts tile the key range, the global order).
    Input is consumed twice (histogram + assign) -> materialized."""
    ds = ds.materialize()
    assigned = _assign_and_group(ds, key_col, n_parts, cell_shift, part_of)

    def manifest(group: pd.DataFrame) -> pd.DataFrame:
        keys = np.sort(group[key_col].to_numpy(dtype=np.int64))
        out = {
            "part": [int(group["part"].iloc[0])],
            "min_key": [int(keys[0])],
            "max_key": [int(keys[-1])],
            "n_rows": [len(keys)],
        }
        if fingerprint:
            out["keys_md5"] = [
                hashlib.md5(
                    ",".join(str(x) for x in keys).encode()
                ).hexdigest()
            ]
        return pd.DataFrame(out)

    return assigned.groupby("part").map_groups(
        manifest, batch_format="pandas"
    )


def range_sorted_export(
    ds: ray.data.Dataset,
    out_dir: str,
    key_col: str,
    n_parts: int = 8,
    cell_shift: int = 16,
) -> ray.data.Dataset:
    """Write the globally-ordered corpus as ``part=N`` hive dirs
    (rows sorted within each part; parts tile the key space in order)
    and return the manifest. Reading part=0..B-1 sequentially replays
    the global sort without any consumer-side merge."""
    ds = ds.materialize()
    part_of = range_partition_map(ds, key_col, n_parts, cell_shift)
    assigned = _assign_and_group(ds, key_col, n_parts, cell_shift, part_of)

    def sort_part(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(key_col).reset_index(drop=True)

    assigned.groupby("part").map_groups(
        sort_part, batch_format="pandas"
    ).write_parquet(out_dir, partition_cols=["part"])
    return range_sort_manifest(
        ds, key_col, n_parts, cell_shift, fingerprint=False, part_of=part_of
    )
