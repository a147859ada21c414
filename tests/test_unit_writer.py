"""The resumable writer's unit task and its driver.

``_write_unit`` streams each unit's rows into one ``pq.ParquetWriter``
per hive directory, in a worker that loads neither Ray Data nor pandas;
``run_resumable_extraction`` keeps a window of unit tasks in flight.
These pin the worker's imports, the writer's parity with
``pads.write_dataset`` (the writer the unit task used before, kept here
as the oracle) and the window's bound.
"""

import itertools
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from pdf_extractor_ray.pipelines import extract_pipeline
from pdf_extractor_ray.sources.corpus import write_pages_parquet
from pdf_extractor_ray.stages.extract_stage import EXTRACT_SCHEMA, extract_batch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Loads the unit task as a worker does and runs one unit's write in
# this process, plain and partitioned, printing the heavy modules loaded
# after each step.
_WORKER = """
import sys

def heavy():
    mods = ("ray.data", "pandas", "pyarrow.dataset", "pyarrow.acero")
    return ",".join(m for m in mods if m in sys.modules) or "-"

from pdf_extractor_ray.pipelines.extract_pipeline import _extract_fn, _write_unit

print(heavy())
path, out = sys.argv[1], sys.argv[2]
for k, cols in enumerate([None, ["kind"]]):
    unit = {"unit": k, "path": path, "row_group": 0, "dir": f"{out}/{k}"}
    _write_unit._function(unit, _extract_fn("conservative"), 128, cols)
print(heavy())
"""


def test_unit_task_loads_no_ray_data_or_dataset_layer(tmp_path):
    [path] = write_pages_parquet(str(tmp_path / "pages"), 60, rows_per_file=60)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, path, str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # Loading the task loads none of them. pandas comes in with the
    # first rows: pyarrow's Python-to-Arrow conversion (pa.array, so
    # Table.from_pylist in extract_batch) imports it to test whether
    # its input is a pandas object.
    assert proc.stdout.split() == ["-", "pandas"]
    assert os.listdir(out / "0") == ["unit-00000-0.parquet"]
    assert sorted(os.listdir(out / "1")) == ["kind=html", "kind=pdf", "kind=text"]


_ODD_VALUES = ["", None, "a b/c", "é", "x=y"]


def _odd_lang(batch: pa.Table) -> pa.Table:
    """The extraction rows with ``lang`` cycling through values that
    hive directory names must quote, or null."""
    out = extract_batch(batch)
    odd = pa.array(list(itertools.islice(itertools.cycle(_ODD_VALUES), out.num_rows)), pa.string())
    return out.set_column(out.schema.get_field_index("lang"), "lang", odd)


def _oracle_write(unit: dict, extract, partition_cols) -> None:
    """The unit write as ``pads.write_dataset`` does it."""
    batches = (
        rb
        for out in extract_pipeline._extract_unit(unit["path"], unit["row_group"], extract, 128)
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


def _files(root: str, partition_cols) -> dict[str, list[dict]]:
    """Each file's rows, by path relative to ``root``, sorted by url,
    read back with the hive partition columns."""
    hive = pads.partitioning(
        pa.schema([(c, pa.string()) for c in partition_cols or []]), flavor="hive"
    )
    return {
        os.path.relpath(os.path.join(d, n), root): pads.dataset(
            os.path.join(d, n), format="parquet",
            partitioning=hive, partition_base_dir=root,
        ).to_table().sort_by("url").to_pylist()
        for d, _, names in os.walk(root)
        for n in names
        if n.endswith(".parquet")
    }


@pytest.mark.parametrize(
    "extract, partition_cols",
    [
        (extract_batch, None),
        (extract_batch, ["kind"]),
        (_odd_lang, ["lang"]),
        (_odd_lang, ["kind", "lang"]),
    ],
    ids=["plain", "kind", "odd-strings", "kind-and-odd-strings"],
)
def test_writer_matches_write_dataset(tmp_path, extract, partition_cols):
    [path] = write_pages_parquet(str(tmp_path / "pages"), 300, rows_per_file=300)
    got, want = str(tmp_path / "got"), str(tmp_path / "want")
    for out in (got, want):
        os.makedirs(out)
    unit = {"unit": 7, "path": path, "row_group": 0}
    extract_pipeline._write_unit._function({**unit, "dir": got}, extract, 128, partition_cols)
    _oracle_write({**unit, "dir": want}, extract, partition_cols)
    files = _files(got, partition_cols)
    assert files == _files(want, partition_cols)
    dirs = {os.path.dirname(f).split("/")[-1] for f in files}
    if partition_cols and partition_cols[-1] == "lang":
        assert dirs == {
            "lang=", "lang=__HIVE_DEFAULT_PARTITION__", "lang=a%20b%2Fc",
            "lang=%C3%A9", "lang=x%3Dy",
        }
    else:
        assert len(dirs) == (3 if partition_cols else 1)


class _Counting:
    """Stands in for the unit task in the driver: at every submit, the
    refs submitted before it that have not finished, plus the new one."""

    def __init__(self, task):
        self.task, self.refs, self.in_flight = task, [], []

    def remote(self, *args):
        import ray

        pending = ray.wait(self.refs, num_returns=len(self.refs), timeout=0)[1] if self.refs else []
        self.in_flight.append(len(pending) + 1)
        self.refs.append(self.task.remote(*args))
        return self.refs[-1]


def _counted_run(monkeypatch, files, out, window=None):
    from pdf_extractor_ray.state.lineage import read_lineage

    counting = _Counting(extract_pipeline._write_unit)
    with monkeypatch.context() as m:
        m.setattr(extract_pipeline, "_write_unit", counting)
        if window is not None:
            m.setattr(extract_pipeline, "_window", lambda: window)
        res = extract_pipeline.run_resumable_extraction(files, out)
    sidecars = [{k: v for k, v in s.items() if k != "wall_s"} for s in read_lineage(out)]
    return res["ran"], counting.in_flight, _files(out, None), sidecars


def test_window_bounds_the_unit_tasks_in_flight(ray_session, monkeypatch, tmp_path):
    n = 240
    files = write_pages_parquet(str(tmp_path / "pages"), n, rows_per_file=1)
    assert {pq.read_metadata(f).num_row_groups for f in files} == {1}
    window = extract_pipeline._window()
    assert window == 2 * int(ray_session.cluster_resources()["CPU"])

    ran, in_flight, written, sidecars = _counted_run(monkeypatch, files, str(tmp_path / "w"))
    assert ran == list(range(n))
    assert len(in_flight) == n
    assert max(in_flight) <= window

    # every unit submitted at once, as before the window: the count
    # sees the difference, and the output is the same
    ran_all, in_flight_all, written_all, sidecars_all = _counted_run(
        monkeypatch, files, str(tmp_path / "all"), window=n
    )
    assert max(in_flight_all) > window
    assert ran_all == ran
    assert written == written_all
    assert sidecars == sidecars_all
