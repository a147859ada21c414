"""One Ray task per parquet row group, from the read to the sink.

``extract_pages`` over parquet files and ``run_resumable_extraction``
list (file, row group) units from the footers and run each unit in one
task that reads, extracts and sinks it. These pin the unit count, the
poison-row and failure contracts of that shape, and the resume rules
of the single execution.
"""

import os
import re

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from pdf_extractor_ray.sources.corpus import PAGES_SCHEMA, make_page_row, write_pages_parquet

_OPERATOR_RE = re.compile(r"Operator \d+ (.+?): (\d+) tasks executed")


def _urls(path: str) -> list[str]:
    return sorted(
        pads.dataset(
            path, format="parquet", partitioning="hive",
            ignore_prefixes=["_lineage", "."],
        ).to_table(columns=["url"])["url"].to_pylist()
    )


def test_unit_lister_gives_three_units_per_bench_file(tmp_path):
    from pdf_extractor_ray.pipelines.extract_pipeline import _parquet_files, _row_groups

    # bench.py's default corpus: 100k rows in 2500-row files (the corpus
    # writer emits 1024-row groups), next to a _COMPLETE marker
    d = str(tmp_path)
    write_pages_parquet(d, 2500, rows_per_file=2500)
    with open(os.path.join(d, "_COMPLETE"), "w") as f:
        f.write("ok")
    files = _parquet_files(d)
    assert [os.path.basename(f) for f in files] == ["pages-00000.parquet"]
    # 3 units per file: 120 for the 40 files, 3.75 per CPU at 32 CPUs
    assert len(_row_groups(files)) == 3


def test_one_task_per_row_group_and_no_read_operator(ray_session, tmp_path):
    from pdf_extractor_ray.pipelines import extract_pages

    k = 3
    files = write_pages_parquet(str(tmp_path), 100 * k, rows_per_file=100)
    assert [pq.read_metadata(f).num_row_groups for f in files] == [1] * k
    ds = extract_pages(files)
    assert len(ds.take_all()) == 100 * k
    stats = ds.stats()
    # FromItems makes the unit blocks in this process; one operator reads
    # and extracts, one task per row group
    assert [(op, int(n)) for op, n in _OPERATOR_RE.findall(stats)] == [
        ("FromItems", 1), ("MapBatches(_extract_units)", k),
    ]
    assert "ReadParquet" not in stats


def _poison_file(path: str) -> str:
    """Six pages; the third is a json payload with a lone surrogate escape."""
    rows = [make_page_row(i, 5) for i in range(6)]
    rows[2] = {**rows[2], "html": b'{"a": "\\ud800 x"}', "text": ""}
    pq.write_table(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA), path)
    return rows[2]["url"]


def test_lone_surrogate_row_does_not_fail_the_run(ray_session, tmp_path):
    from pdf_extractor_ray.pipelines import extract_pages, run_resumable_extraction

    f = str(tmp_path / "poison.parquet")
    poison_url = _poison_file(f)
    want = sorted(pq.read_table(f, columns=["url"])["url"].to_pylist())

    rows = extract_pages([f]).take_all()
    assert sorted(r["url"] for r in rows) == want
    [poison] = [r for r in rows if r["url"] == poison_url]
    assert (poison["status"], poison["kind"]) == ("ok", "json")
    assert "\ufffd x" in poison["extracted_text"]

    out = str(tmp_path / "out")
    assert run_resumable_extraction([f], out)["ran"] == [0]
    assert _urls(out) == want


def test_in_task_failure_commits_nothing_at_or_after_its_shard(ray_session, tmp_path):
    from pdf_extractor_ray.pipelines import run_resumable_extraction
    from pdf_extractor_ray.state.lineage import read_lineage

    files = write_pages_parquet(str(tmp_path / "pages"), 400, rows_per_file=100)
    # shard 1 keeps a valid footer but loses its url column
    good = pq.read_table(files[1])
    pq.write_table(good.drop_columns(["url"]), files[1])

    out = str(tmp_path / "out")
    with pytest.raises(Exception):
        run_resumable_extraction(files, out)
    assert {l["partition_id"] for l in read_lineage(out)} <= {0}
    assert not any(os.path.exists(os.path.join(out, f"part={p:05d}")) for p in (1, 2, 3))

    pq.write_table(good, files[1])
    res = run_resumable_extraction(files, out)
    assert sorted(res["ran"] + res["skipped"]) == [0, 1, 2, 3]
    assert [l["partition_id"] for l in read_lineage(out)] == [0, 1, 2, 3]
    assert not [d for d in os.listdir(out) if d.endswith(".tmp")]
    src = sorted(pads.dataset(files, format="parquet").to_table(columns=["url"])["url"].to_pylist())
    assert _urls(out) == src


def test_unreadable_footer_ends_the_listing(ray_session, tmp_path):
    from pdf_extractor_ray.pipelines import run_resumable_extraction
    from pdf_extractor_ray.state.lineage import read_lineage

    files = write_pages_parquet(str(tmp_path / "pages"), 300, rows_per_file=100)
    good = open(files[1], "rb").read()
    with open(files[1], "wb") as f:
        f.write(good[: len(good) // 3])

    out = str(tmp_path / "out")
    with pytest.raises(pa.ArrowInvalid):
        run_resumable_extraction(files, out)
    assert [l["partition_id"] for l in read_lineage(out)] == [0]
    # the listing stopped at shard 1: shard 2 was neither run nor prepared
    assert sorted(os.listdir(out)) == ["_lineage", "part=00000"]

    with open(files[1], "wb") as f:
        f.write(good)
    assert run_resumable_extraction(files, out)["ran"] == [1, 2]


def test_empty_shard_commits_an_empty_partition(ray_session, tmp_path):
    from pdf_extractor_ray.pipelines import run_resumable_extraction
    from pdf_extractor_ray.state.lineage import read_lineage

    files = write_pages_parquet(str(tmp_path / "pages"), 100, rows_per_file=100)
    empty = str(tmp_path / "pages" / "pages-empty.parquet")
    pq.write_table(PAGES_SCHEMA.empty_table(), empty)

    out = str(tmp_path / "out")
    res = run_resumable_extraction([files[0], empty], out)
    assert res["ran"] == [0, 1]
    assert [l["row_count"] for l in read_lineage(out)] == [100, 0]
