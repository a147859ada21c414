"""The flagship pipeline: pages parquet -> extraction rows -> parquet.

Shape (SURVEY.md §3.5):

    read_parquet(pages)                       # column-pruned read
      -> map_batches(extract_batch)           # stateless tasks (default)
      -> write_parquet + lineage sidecars     # resumable (state/lineage.py)

Skew & memory design (measured on the 100k-row bench corpus, where the
~2.5% giant documents are ~80% of the bytes):

  - **Bounded batches.** The default is a modest row cap,
    ``batch_size=128``, so a batch's *byte* size is bounded by 128x the
    largest document. ``batch_size=None`` instead takes whole blocks,
    which Ray has already split to ``target_max_block_size`` bytes, so
    a run of multi-MB documents lands in a small-row batch. Either way
    a batch's byte size is bounded. This is the single-read answer to
    size skew; the streaming executor's backpressure does the rest.
  - **Optional two-lane split** (``split_by_size=True``): for extreme
    skew (hundreds-of-MB PDFs) the giant lane gets its own stage with
    ``batch_size=giant_batch_size`` and (optionally) an actor pool with
    reserved memory. Costs a second pass over the input metadata (both
    lanes re-read), so it's off by default.
  - **Tasks vs actors.** The extraction kernel holds no per-worker
    state beyond module imports (compiled regexes), so stateless tasks
    are the right default — elastic, no pool sizing. A warmed-state
    parser (spaCy/pdfminer analog, SURVEY.md §2.3 A2/A3) is the
    ``use_actor_pool=True`` path: a fixed-size ``ExtractDocuments`` pool
    sized to cpus-2 so read/write stages keep breathing room.

Parallelism note: read parallelism is bounded by input granularity
(files x row groups). The corpus writer emits 1024-row groups so local
runs split well; real CC dumps have thousands of shards. Measured here:
extraction scales 4->16 CPUs at ~0.86 efficiency; beyond ~16 workers
this single socket saturates on memory bandwidth (see BASELINE.md).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from pdf_extractor_ray.stages.extract_stage import ExtractDocuments, extract_batch

__all__ = ["extract_pages", "run_resumable_extraction", "GIANT_PAYLOAD_BYTES"]

from pdf_extractor_ray.config import CONFIG

# Payloads above this byte length go to the giant lane when the
# two-lane split is enabled (GRAFT_GIANT_PAYLOAD_BYTES overrides).
GIANT_PAYLOAD_BYTES = CONFIG.giant_payload_bytes

_PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def _filter_by_size(small: bool):
    threshold = GIANT_PAYLOAD_BYTES

    def fn(batch: pa.Table) -> pa.Table:
        sizes = pc.fill_null(pc.binary_length(batch["html"]), 0)
        mask = (
            pc.less(sizes, threshold) if small else pc.greater_equal(sizes, threshold)
        )
        return batch.filter(mask)

    return fn


def extract_pages(
    source: "str | list[str] | ray.data.Dataset",
    merge_strategy: str = "conservative",
    batch_size: Optional[int] = 128,
    split_by_size: bool = False,
    use_actor_pool: bool = False,
    giant_batch_size: int = 4,
    concurrency: Optional[int] = None,
    finalize: bool = False,
) -> ray.data.Dataset:
    """Build the (lazy) extraction pipeline over a pages table.

    ``source`` is a parquet path/paths or an existing Dataset with the
    pages schema. Returns the lazy extraction Dataset — consume it with
    ``write_parquet`` / ``iter_batches`` / an aggregate.

    ``concurrency`` is the TOTAL actor budget across lanes: with
    ``split_by_size`` the two actor-pool lanes each get half. Fixed
    actor pools RESERVE their CPUs, so two full-size pools on a small
    cluster would starve the upstream read tasks and deadlock the
    pipeline — per-lane sizing keeps scheduling headroom.
    """
    if isinstance(source, ray.data.Dataset):
        ds = source
    else:
        ds = ray.data.read_parquet(source, columns=_PAGE_COLUMNS)

    n_lanes = 2 if split_by_size else 1

    def stage(inp: ray.data.Dataset, bs: Optional[int]) -> ray.data.Dataset:
        if use_actor_pool:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            total = concurrency if concurrency is not None else max(2, cpus - 2)
            pool = max(1, total // n_lanes)
            return inp.map_batches(
                ExtractDocuments,
                fn_constructor_kwargs={
                    "merge_strategy": merge_strategy,
                    "finalize": finalize,
                },
                batch_format="pyarrow",
                batch_size=bs,
                concurrency=pool,
            )
        import functools

        fn = functools.partial(
            extract_batch, merge_strategy=merge_strategy, finalize=finalize
        )
        return inp.map_batches(fn, batch_format="pyarrow", batch_size=bs)

    if not split_by_size:
        return stage(ds, batch_size)

    small = stage(
        ds.map_batches(_filter_by_size(small=True), batch_format="pyarrow"),
        batch_size,
    )
    giant = stage(
        ds.map_batches(_filter_by_size(small=False), batch_format="pyarrow"),
        giant_batch_size,
    )
    return small.union(giant)


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
