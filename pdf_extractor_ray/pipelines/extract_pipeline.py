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

``run_resumable_extraction`` runs the units as plain Ray tasks,
``_write_unit``, each writing into its partition's ``part=N.tmp``; the
driver commits part=N and its lineage sidecar in partition order
(state/lineage.py). No block moves between its tasks, so it starts no
Ray Data execution and none of Ray Data's stats and autoscaler actors.

  - **What a unit task's worker imports.** This module, the stage and
    the kernel, ``pyarrow.parquet``, ``pyarrow.compute`` and Ray core;
    ``extract_pages`` imports ``ray.data`` itself. So the worker loads
    neither Ray Data nor ``pyarrow.dataset`` (nor the ``pyarrow.acero``
    that ``Table.group_by`` would load). pandas still comes in: pyarrow's
    ``pa.array`` imports it on first use to test for pandas inputs.
  - **A streaming writer.** The task writes each 128-row batch as it
    comes, into one ``pq.ParquetWriter`` per hive directory, under the
    file names ``pads.write_dataset`` gave (tests/test_unit_writer.py
    keeps that writer as the oracle).
  - **A window.** At most ``_window()`` (two per cluster CPU) unit
    tasks are in flight, and a shard's footer is read when the window
    reaches it, so the driver holds O(CPUs) tasks however long the
    listing, and the first partition commits after one shard's
    footer: 0.012-0.016 s over 2,000 one-row files, where reading
    every footer and submitting every unit first took 0.50-0.66 s.

  On ``cc_mix_write`` (1 CPU, seed 701, one run per side) the
  extraction worker's peak RSS (VmHWM) fell from 307 to 260 MB, with the
  driver at 284 MB either way; the benchmark's ``peak_rss_mb``, their
  sum, fell from a median of 615 to 564 MB over 10 pairs.

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
from collections import deque
from typing import Callable, Iterator, NamedTuple, Optional
from urllib.parse import quote

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from pdf_extractor_ray.config import CONFIG
from pdf_extractor_ray.functions.shards import cluster_cpus
from pdf_extractor_ray.kernel.tables import MERGE_STRATEGIES
from pdf_extractor_ray.stages.extract_stage import extract_batch
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
# the directory name hive partitioning gives a null value
_HIVE_NULL = "__HIVE_DEFAULT_PARTITION__"


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


def _hive_groups(
    table: pa.Table, partition_cols: Optional[list]
) -> Iterator[tuple[str, pa.Table]]:
    """``table``'s rows by hive directory: ``col=value/...`` for each
    distinct tuple of ``partition_cols`` values (Arrow's string cast,
    URI-quoted; null is ``__HIVE_DEFAULT_PARTITION__``), in first-seen
    order, without the partition columns. No partition columns: one
    group, ``""``, holding every row."""
    if not partition_cols:
        yield "", table
        return
    keys = zip(*(pc.cast(table[c], pa.string()).to_pylist() for c in partition_cols))
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    rows = table.drop_columns(partition_cols)
    for key, idx in groups.items():
        subdir = "/".join(
            f"{col}={_HIVE_NULL if v is None else quote(v, safe='')}"
            for col, v in zip(partition_cols, key)
        )
        yield subdir, rows if len(groups) == 1 else rows.take(idx)


# Ray Data's retry policy for its own tasks (ray/data/_internal/remote_fn.py)
@ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])
def _write_unit(
    unit: dict, extract: Callable, batch_size: Optional[int], partition_cols: Optional[list]
) -> float:
    """Extract one unit into its partition's ``part=N.tmp`` directory and
    return the seconds it took.

    Each batch is written as it comes: one ``ParquetWriter`` per hive
    directory the unit's rows go to (``part=N.tmp`` itself without
    ``partition_cols``), opened on its first rows. The file name,
    ``unit-NNNNN-0.parquet``, is fixed per unit, so a retried task
    truncates and rewrites its own files. A unit with no rows writes
    none."""
    t0 = time.perf_counter()
    name = f"unit-{unit['unit']:05d}-0.parquet"
    writers: dict[str, pq.ParquetWriter] = {}
    try:
        for out in _extract_unit(unit["path"], unit["row_group"], extract, batch_size):
            if not out.num_rows:
                continue
            for subdir, rows in _hive_groups(out, partition_cols):
                writer = writers.get(subdir)
                if writer is None:
                    path = os.path.join(unit["dir"], subdir, name)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    writer = writers[subdir] = pq.ParquetWriter(path, rows.schema)
                writer.write_table(rows)
    finally:
        for writer in writers.values():
            writer.close()
    return time.perf_counter() - t0


class _Listed(NamedTuple):
    """A shard whose footer has been read and whose partition is not yet
    committed."""

    pid: int
    files: list
    units: deque  # (path, row group, part=N.tmp) of the units not yet submitted
    refs: list  # of the units submitted


def _window() -> int:
    """The unit tasks ``run_resumable_extraction`` keeps in flight: two
    per cluster CPU, so a CPU that finishes a task finds the next one
    queued while the driver refills."""
    return 2 * max(1, cluster_cpus())


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
    import ray.data  # here, so the unit tasks' workers never load Ray Data

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
    each, writing into ``part={pid}.tmp``. At most ``_window()`` of
    them (two per cluster CPU) are in flight; a shard's footer is read
    and its ``part={pid}.tmp`` prepared when the window reaches it.
    Partition N is committed once its last task has finished and every
    pending partition before it is committed, so a failed task leaves
    no committed partition at or after its own; the tasks in flight are
    cancelled and have ended before its error is raised. A shard whose
    footer cannot be read ends the listing: the shards before it run
    and commit, then its error is raised.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    batch_size = extract_kwargs.pop("batch_size", 128)
    extract = _extract_fn(merge_strategy, **extract_kwargs)
    done = completed_partitions(out_dir)
    shards = [
        (pid, input_files[i : i + shard_size])
        for pid, i in enumerate(range(0, len(input_files), shard_size))
    ]
    skipped = [pid for pid, _ in shards if pid in done]
    todo = iter([(pid, files) for pid, files in shards if pid not in done])
    listed: deque[_Listed] = deque()  # in partition order
    in_flight: set = set()
    window, n_units, ran, failure = None, 0, [], None
    try:
        while True:
            # Submit until the window is full, listing the next shard's
            # footer and preparing its part=N.tmp once the last listed
            # shard has no unit left to submit.
            while failure is None and (window is None or len(in_flight) < window):
                if not listed or not listed[-1].units:
                    pid, files = next(todo, (None, None))
                    if pid is None:
                        break
                    try:
                        groups = _row_groups(files)
                    except (OSError, pa.ArrowException) as exc:
                        failure = exc
                        break
                    tmp_dir = prepare_partition(out_dir, pid)
                    units = deque((path, rg, tmp_dir) for path, rg in groups)
                    listed.append(_Listed(pid, files, units, []))
                    continue
                shard = listed[-1]
                path, rg, tmp_dir = shard.units.popleft()
                unit = {"unit": n_units, "path": path, "row_group": rg, "dir": tmp_dir}
                shard.refs.append(_write_unit.remote(unit, extract, batch_size, partition_cols))
                in_flight.add(shard.refs[-1])
                n_units += 1
                if window is None:  # Ray runs now: the first submit starts it
                    window = _window()
            # partition N commits once its last unit is done and after N-1
            while listed and not listed[0].units and in_flight.isdisjoint(listed[0].refs):
                shard = listed.popleft()
                # an empty shard has no task, and ray.get([]) would start Ray
                wall_s = sum(ray.get(shard.refs)) if shard.refs else 0.0
                commit_partition(out_dir, shard.pid, input_files=shard.files, wall_s=wall_s)
                ran.append(shard.pid)
            if not in_flight:
                break
            ready, _ = ray.wait(list(in_flight), num_returns=1)
            in_flight.difference_update(ready)
    except BaseException:
        # end every task before raising: none may write into a part=N.tmp
        # once this call has returned
        for ref in in_flight:
            ray.cancel(ref)
        if in_flight:
            ray.wait(list(in_flight), num_returns=len(in_flight))
        raise
    if failure is not None:
        raise failure
    return {"ran": ran, "skipped": skipped, "out_dir": out_dir}
