"""The flagship pipeline: pages parquet -> extraction rows -> parquet.

Shape (SURVEY.md §3.5):

    read_parquet(pages)                       # column-pruned read
      -> map_batches(extract_batch)           # stateless tasks, batch_size=128
      -> write_parquet + lineage sidecars     # resumable (state/lineage.py)

Skew & memory design (measured on the 100k-row bench corpus, where the
~2.5% giant documents are ~80% of the bytes):

  - **Bounded batches.** The stage takes a modest row cap,
    ``batch_size=128``, so a batch's *byte* size is bounded by 128x the
    largest document. ``batch_size=None`` instead takes whole blocks,
    which Ray has already split to ``target_max_block_size`` bytes, so
    a run of multi-MB documents lands in a small-row batch. Either way
    a batch's byte size is bounded. This is the single-read answer to
    size skew; the streaming executor's backpressure does the rest.
  - **One lane.** A two-lane split that gave the giant documents
    (``GIANT_PAYLOAD_BYTES`` and up) their own stage read the input
    twice; on the ``cc_mix_write`` benchmark workload (1 CPU) it ran at
    about half the docs/s of the single stage (226-231 vs 425-479).
  - **Tasks, not actors.** The kernel holds no per-worker state beyond
    module imports (compiled regexes), so stateless tasks need no pool
    sizing. A fixed actor pool of ``max(2, CPUs - 2)`` reserved its
    CPUs up front and could not be placed on a 1-CPU host: the same
    benchmark hung until its timeout on every run.

Parallelism note: read parallelism is bounded by input granularity
(files x row groups). The corpus writer emits 1024-row groups so local
runs split well; real CC dumps have thousands of shards. Measured here:
extraction scales 4->16 CPUs at ~0.86 efficiency; beyond ~16 workers
this single socket saturates on memory bandwidth (see BASELINE.md).
"""

from __future__ import annotations

import functools
from typing import Optional

import ray.data

from pdf_extractor_ray.config import CONFIG
from pdf_extractor_ray.kernel.tables import MERGE_STRATEGIES
from pdf_extractor_ray.stages.extract_stage import extract_batch

__all__ = ["extract_pages", "run_resumable_extraction", "GIANT_PAYLOAD_BYTES"]

# Payloads of at least this many bytes are the "giant" documents of the
# size-skew notes above (GRAFT_GIANT_PAYLOAD_BYTES overrides).
GIANT_PAYLOAD_BYTES = CONFIG.giant_payload_bytes

_PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def extract_pages(
    source: "str | list[str] | ray.data.Dataset",
    merge_strategy: str = "conservative",
    batch_size: Optional[int] = 128,
    finalize: bool = False,
) -> ray.data.Dataset:
    """Build the (lazy) extraction pipeline over a pages table.

    ``source`` is a parquet path/paths or an existing Dataset with the
    pages schema. Returns the lazy extraction Dataset — consume it with
    ``write_parquet`` / ``iter_batches`` / an aggregate. An unknown
    ``merge_strategy`` raises ``ValueError`` before anything is read.
    """
    if merge_strategy not in MERGE_STRATEGIES:
        raise ValueError(
            f"unknown merge_strategy {merge_strategy!r}; "
            f"expected one of {MERGE_STRATEGIES}"
        )
    if isinstance(source, ray.data.Dataset):
        ds = source
    else:
        ds = ray.data.read_parquet(source, columns=_PAGE_COLUMNS)
    fn = functools.partial(
        extract_batch, merge_strategy=merge_strategy, finalize=finalize
    )
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def run_resumable_extraction(
    input_files: list[str],
    out_dir: str,
    merge_strategy: str = "conservative",
    shard_size: int = 1,
    partition_cols: Optional[list] = None,
    **extract_kwargs,
) -> dict:
    """Run the pipeline shard-by-shard with per-partition lineage.

    Each shard (``shard_size`` input parquet files) writes to its own
    ``part={pid}`` directory plus a ``_lineage/part-{pid}.json`` sidecar
    recording url range, row count and a url-set checksum. A rerun skips
    every shard whose sidecar already exists — resume from the last
    committed partition (north rule). See state/lineage.py.
    """
    from pdf_extractor_ray.state.lineage import (
        completed_partitions,
        write_partition_with_lineage,
    )

    done = completed_partitions(out_dir)
    shards = [
        (pid, input_files[i : i + shard_size])
        for pid, i in enumerate(range(0, len(input_files), shard_size))
    ]
    ran, skipped = [], []
    for pid, files in shards:
        if pid in done:
            skipped.append(pid)
            continue
        ds = extract_pages(files, merge_strategy=merge_strategy, **extract_kwargs)
        write_partition_with_lineage(
            ds, out_dir, pid, input_files=files, partition_cols=partition_cols
        )
        ran.append(pid)
    return {"ran": ran, "skipped": skipped, "out_dir": out_dir}
