"""The flagship pipeline: pages parquet -> extraction rows -> parquet.

Shape (SURVEY.md §3.5): one Ray task per parquet row group, from the
read to the sink.

    units = (file, row group) per footer      # listed by the caller
    one stateless task per unit:
      iter_batches(row group, 128 rows)       #   column-pruned read
      -> extract_batch                        #   the extraction stage
      -> the sink                             #   see below

``extract_pages`` returns the units as a lazy Dataset,
``from_items(units).map_batches(one unit per task)``, so its sink is a
downstream map fused into the same task, or any consumer. A
``Dataset`` source keeps ``ds.map_batches(extract_batch, batch_size)``.

``run_resumable_extraction`` submits the units as plain Ray tasks,
``_write_unit``, each writing into its partition's ``part=N.tmp``; the
driver commits part=N and its lineage sidecar in partition order
(state/lineage.py). No block moves between its tasks, so it starts no
Ray Data execution, and with it none of Ray Data's stats and
autoscaler actors. On ``cc_mix_write`` (1 CPU) those two held 312 of
the 930 MB peak RSS summed over the driver and Ray processes, and
set-up fell by 1.8 s without them (median of 10 runs).

Design notes (measured on the 100k-row bench corpus, where the ~2.5%
giant documents are ~80% of the bytes, and on the ``cc_mix_write``
benchmark workload):

  - **Read inside the task.** Ray does not fuse ``ReadParquet`` into a
    ``batch_size=128`` map, so with ``read_parquet`` every input block
    crossed the object store between a read task and an extraction
    task, and a pass ran one execution per output partition. A unit
    task reads its own row group, so only the unit rows (a path and an
    index) and the task's output leave the task: ``cc_mix_write`` runs
    2 tasks instead of 12, ``html_small`` 8 instead of 24.
  - **Bounded batches.** The unit task streams its row group in
    ``batch_size=128``-row batches (``ParquetFile.iter_batches``), so a
    batch's *byte* size is bounded by 128x the largest document, and a
    task's output goes to the sink one batch at a time.
    ``batch_size=None`` reads the whole row group as one batch.
  - **One lane.** A two-lane split that gave the giant documents
    (``GIANT_PAYLOAD_BYTES`` and up) their own stage read the input
    twice; on ``cc_mix_write`` (1 CPU) it ran at about half the docs/s
    of the single stage (226-231 vs 425-479).
  - **Tasks, not actors.** The kernel holds no per-worker state beyond
    module imports (compiled regexes), so stateless tasks need no pool
    sizing. A fixed actor pool of ``max(2, CPUs - 2)`` reserved its
    CPUs up front and could not be placed on a 1-CPU host: the same
    benchmark hung until its timeout on every run.

Parallelism note: parallelism is bounded by input granularity (files x
row groups). The corpus writer emits 1024-row groups so local runs split
well (bench.py's 2500-row files give 3 units each); real CC dumps have
thousands of shards. Measured with the earlier read_parquet shape:
extraction scales 4->16 CPUs at ~0.86 efficiency; beyond ~16 workers
this single socket saturates on memory bandwidth (see BASELINE.md).
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Iterator, Optional

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from pdf_extractor_ray.config import CONFIG
from pdf_extractor_ray.kernel.tables import MERGE_STRATEGIES
from pdf_extractor_ray.stages.extract_stage import EXTRACT_SCHEMA, extract_batch
from pdf_extractor_ray.state.lineage import (
    commit_partition,
    completed_partitions,
    prepare_partition,
)

__all__ = ["extract_pages", "run_resumable_extraction", "GIANT_PAYLOAD_BYTES"]

# Payloads of at least this many bytes are the "giant" documents of the
# size-skew notes above (GRAFT_GIANT_PAYLOAD_BYTES overrides).
GIANT_PAYLOAD_BYTES = CONFIG.giant_payload_bytes

_PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]


def _extract_fn(merge_strategy: str, finalize: bool = False) -> Callable[[pa.Table], pa.Table]:
    if merge_strategy not in MERGE_STRATEGIES:
        raise ValueError(
            f"unknown merge_strategy {merge_strategy!r}; "
            f"expected one of {MERGE_STRATEGIES}"
        )
    return functools.partial(
        extract_batch, merge_strategy=merge_strategy, finalize=finalize
    )


def _parquet_files(source: "str | list[str]") -> list[str]:
    """The files ``read_parquet`` reads for ``source``: each path is a
    file, or a directory searched recursively, skipping names that start
    with ``_`` or ``.`` (``_COMPLETE`` markers, ``.crc`` files). Local
    paths are made absolute, since Ray workers do not share the
    caller's working directory; a URI is read as one file."""
    files = []
    for path in [source] if isinstance(source, str) else source:
        if "://" not in path:
            path = os.path.abspath(path)
        if not os.path.isdir(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
            files += [
                os.path.join(root, n)
                for n in sorted(names)
                if not n.startswith(("_", "."))
            ]
    return files


def _row_groups(files: list[str]) -> list[tuple[str, int]]:
    """(file, row group) for every row group, from the parquet footers."""
    return [
        (f, rg) for f in files for rg in range(pq.read_metadata(f).num_row_groups)
    ]


def _extract_unit(
    path: str, row_group: int, extract: Callable, batch_size: Optional[int]
) -> Iterator[pa.Table]:
    """One row group, read in ``batch_size``-row batches (whole for
    None), each through ``extract``."""
    with pq.ParquetFile(path) as pf:
        if batch_size is None:
            batches = [pf.read_row_group(row_group, columns=_PAGE_COLUMNS)]
        else:
            batches = (
                pa.Table.from_batches([rb])
                for rb in pf.iter_batches(
                    batch_size=batch_size, row_groups=[row_group], columns=_PAGE_COLUMNS
                )
            )
        for batch in batches:
            yield extract(batch)


def _extract_units(
    units: pa.Table, extract: Callable, batch_size: Optional[int]
) -> Iterator[pa.Table]:
    for path, rg in zip(units["path"].to_pylist(), units["row_group"].to_pylist()):
        yield from _extract_unit(path, rg, extract, batch_size)


# Ray Data's retry policy for its own tasks (ray/data/_internal/remote_fn.py)
@ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])
def _write_unit(
    unit: dict, extract: Callable, batch_size: Optional[int], partition_cols: Optional[list]
) -> float:
    """Extract one unit into its partition's ``part=N.tmp`` directory and
    return the seconds it took. File names are fixed per unit, so a
    retried task overwrites its own files."""
    t0 = time.perf_counter()
    batches = (
        rb
        for out in _extract_unit(unit["path"], unit["row_group"], extract, batch_size)
        for rb in out.to_batches()
    )
    pads.write_dataset(
        pa.RecordBatchReader.from_batches(EXTRACT_SCHEMA, batches),
        unit["dir"],
        format="parquet",
        basename_template=f"unit-{unit['unit']:05d}-{{i}}.parquet",
        partitioning=partition_cols,
        partitioning_flavor="hive",
        existing_data_behavior="overwrite_or_ignore",
    )
    return time.perf_counter() - t0


def extract_pages(
    source: "str | list[str] | ray.data.Dataset",
    merge_strategy: str = "conservative",
    batch_size: Optional[int] = 128,
    finalize: bool = False,
) -> ray.data.Dataset:
    """Build the (lazy) extraction pipeline over a pages table.

    ``source`` is a parquet path/paths or an existing Dataset with the
    pages schema. A parquet source runs one task per row group, which
    reads and extracts it; the footers are read here. Returns the lazy
    extraction Dataset — consume it with ``write_parquet`` /
    ``iter_batches`` / an aggregate, and a downstream ``map_batches``
    fuses into the same tasks. An unknown ``merge_strategy`` raises
    ``ValueError`` before anything is read.
    """
    extract = _extract_fn(merge_strategy, finalize)
    if isinstance(source, ray.data.Dataset):
        return source.map_batches(extract, batch_format="pyarrow", batch_size=batch_size)
    units = [
        {"path": path, "row_group": rg}
        for path, rg in _row_groups(_parquet_files(source))
    ]
    return ray.data.from_items(units, override_num_blocks=max(1, len(units))).map_batches(
        _extract_units, fn_kwargs={"extract": extract, "batch_size": batch_size},
        batch_size=1, batch_format="pyarrow",
    )


def run_resumable_extraction(
    input_files: list[str],
    out_dir: str,
    merge_strategy: str = "conservative",
    shard_size: int = 1,
    partition_cols: Optional[list] = None,
    **extract_kwargs,
) -> dict:
    """Run the pipeline over every uncommitted shard with per-partition
    lineage.

    Each shard (``shard_size`` input parquet files) writes to its own
    ``part={pid}`` directory plus a ``_lineage/part-{pid}.json`` sidecar
    recording url range, row count and a url-set checksum. A rerun skips
    every shard whose sidecar already exists — resume from the last
    committed partition (north rule). See state/lineage.py.

    The row groups of every pending shard run as plain Ray tasks, one
    each, writing into ``part={pid}.tmp``. Partition N is committed
    once its last task has finished and every pending partition before
    it is committed, so a failed task leaves no committed partition at
    or after its own; the other tasks are cancelled and have ended
    before its error is raised. A shard whose footer cannot be read
    ends the listing: the shards before it run and commit, then its
    error is raised.
    """
    batch_size = extract_kwargs.pop("batch_size", 128)
    extract = _extract_fn(merge_strategy, **extract_kwargs)
    done = completed_partitions(out_dir)
    shards = [
        (pid, input_files[i : i + shard_size])
        for pid, i in enumerate(range(0, len(input_files), shard_size))
    ]
    skipped = [pid for pid, _ in shards if pid in done]
    pending, units, failure = [], [], None
    for pid, files in shards:
        if pid in done:
            continue
        try:
            groups = _row_groups(files)
        except (OSError, pa.ArrowException) as exc:
            failure = exc
            break
        pending.append((pid, files, len(groups)))
        tmp_dir = prepare_partition(out_dir, pid)
        units += [
            {"unit": len(units) + k, "path": path, "row_group": rg, "dir": tmp_dir}
            for k, (path, rg) in enumerate(groups)
        ]

    # A partition's units are contiguous and are awaited in order, so
    # partition N commits once its last unit is done and after N-1.
    refs = [_write_unit.remote(u, extract, batch_size, partition_cols) for u in units]
    ran, first = [], 0
    try:
        for pid, files, n in pending:
            part = refs[first : first + n]
            first += n
            # an empty shard has no task, and ray.get([]) would start Ray
            wall_s = sum(ray.get(part)) if part else 0.0
            commit_partition(out_dir, pid, input_files=files, wall_s=wall_s)
            ran.append(pid)
    except BaseException:
        # end every task before raising: none may write into a part=N.tmp
        # once this call has returned
        for ref in refs:
            ray.cancel(ref)
        if refs:
            ray.wait(refs, num_returns=len(refs))
        raise
    if failure is not None:
        raise failure
    return {"ran": ran, "skipped": skipped, "out_dir": out_dir}
