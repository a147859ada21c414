"""Per-partition lineage sidecars -> resumable runs (north rule).

Layout under ``out_dir``:

    part=00000/ *.parquet        extraction rows for partition 0
    part=00001/ ...
    _lineage/part-00000.json     {partition_id, input_files, url_min,
                                  url_max, row_count, url_sha256, wall_s}

Commit protocol, in two steps:

  - ``prepare_partition`` removes what an earlier run left of partition
    N without committing it (a ``part=N.tmp`` directory, or a ``part=N``
    with no sidecar) and makes an empty ``part=N.tmp``. Rows are written
    there, by any number of tasks: ``run_resumable_extraction`` prepares
    a partition when its window of unit tasks reaches the shard, and
    each unit task (a plain Ray task) streams its rows into its own
    files, one ``unit-NNNNN-0.parquet`` per hive directory.
  - ``commit_partition`` runs in the calling process once every writer of
    partition N has finished. It computes the sidecar from the *written*
    files (cheap single-column re-read of ``url``), atomically renames
    the directory to ``part=N`` and only then lands the sidecar. When a unit
    task fails, ``run_resumable_extraction`` cancels every task in
    flight and waits for them before raising, so no ``part=N.tmp``
    changes after it has returned.

``write_partition_with_lineage`` is both steps around one
``ds.write_parquet``. A crash mid-partition therefore leaves either a
``.tmp`` directory (ignored and overwritten on rerun) or a fully
committed partition — never duplicates, never gaps
(SURVEY.md §4.2 "Resumable output"). ``wall_s`` is the seconds spent
writing the partition: the ``write_parquet`` call, or the sum of the
unit tasks' walls.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

__all__ = [
    "commit_partition",
    "completed_partitions",
    "prepare_partition",
    "read_lineage",
    "write_partition_with_lineage",
]


def _lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def _sidecar_path(out_dir: str, pid: int) -> str:
    return os.path.join(_lineage_dir(out_dir), f"part-{pid:05d}.json")


def completed_partitions(out_dir: str) -> set[int]:
    """Partition ids with a committed sidecar."""
    ldir = _lineage_dir(out_dir)
    if not os.path.isdir(ldir):
        return set()
    done = set()
    for name in os.listdir(ldir):
        if name.startswith("part-") and name.endswith(".json"):
            try:
                done.add(int(name[len("part-"):-len(".json")]))
            except ValueError:
                continue
    return done


def _part_dir(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"part={pid:05d}")


def _tmp_dir(out_dir: str, pid: int) -> str:
    return _part_dir(out_dir, pid) + ".tmp"


def prepare_partition(out_dir: str, pid: int) -> str:
    """Drop partition ``pid``'s uncommitted leftovers and return its
    empty ``part=N.tmp`` directory."""
    part_dir = _part_dir(out_dir, pid)
    tmp_dir = _tmp_dir(out_dir, pid)
    for d in (tmp_dir, part_dir):  # part_dir without a sidecar is a leftover
        if os.path.isdir(d):
            shutil.rmtree(d)
    os.makedirs(tmp_dir)
    os.makedirs(_lineage_dir(out_dir), exist_ok=True)
    return tmp_dir


def commit_partition(
    out_dir: str,
    pid: int,
    input_files: list[str] | None = None,
    wall_s: float = 0.0,
) -> dict:
    """Commit the rows written into ``part=N.tmp``: sidecar facts from
    the written files, atomic rename to ``part=N``, sidecar last."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    tmp_dir = _tmp_dir(out_dir, pid)
    # single narrow column re-read; never re-executes the pipeline. The
    # explicit schema lets a partition with no rows commit too.
    urls = (
        pads.dataset(tmp_dir, format="parquet", schema=pa.schema([("url", pa.string())]))
        .to_table(columns=["url"])
        .column("url")
        .to_pylist()
    )
    urls_sorted = sorted(urls)
    digest = hashlib.sha256("\n".join(urls_sorted).encode()).hexdigest()

    os.replace(tmp_dir, _part_dir(out_dir, pid))
    sidecar = {
        "partition_id": pid,
        "input_files": input_files or [],
        "url_min": urls_sorted[0] if urls_sorted else "",
        "url_max": urls_sorted[-1] if urls_sorted else "",
        "row_count": len(urls),
        "url_sha256": digest,
        "wall_s": round(wall_s, 3),
    }
    tmp_sidecar = _sidecar_path(out_dir, pid) + ".tmp"
    with open(tmp_sidecar, "w") as f:
        json.dump(sidecar, f, indent=1)
    os.replace(tmp_sidecar, _sidecar_path(out_dir, pid))
    return sidecar


def write_partition_with_lineage(
    ds,
    out_dir: str,
    pid: int,
    input_files: list[str] | None = None,
    partition_cols: list[str] | None = None,
) -> dict:
    """Consume ``ds`` into partition ``pid`` with the commit protocol.

    ``partition_cols`` additionally hive-partitions the parquet INSIDE
    the shard directory (e.g. ``part=00000/lang=en/...``) — keyed
    layout for downstream readers without touching the resume unit.
    """
    tmp_dir = prepare_partition(out_dir, pid)
    t0 = time.monotonic()
    ds.write_parquet(tmp_dir, partition_cols=partition_cols)
    return commit_partition(out_dir, pid, input_files, time.monotonic() - t0)


def read_lineage(out_dir: str) -> list[dict]:
    """All committed sidecars, ordered by partition id."""
    out = []
    for pid in sorted(completed_partitions(out_dir)):
        with open(_sidecar_path(out_dir, pid)) as f:
            out.append(json.load(f))
    return out
