"""``run_resumable_extraction`` runs its units as plain Ray tasks.

These pin what that shape promises beyond the unit contracts of
tests/test_extract_units.py: no Ray Data execution (so none of its
service actors), no task still writing once a failed run has raised,
and poison rows of every kind through both Ray paths.
"""

import os
import subprocess
import sys
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from pdf_extractor_ray.sources.corpus import PAGES_SCHEMA, make_page_row, write_pages_parquet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A fresh session: the shared ray_session has already run Ray Data,
# whose service actors outlive the execution that started them.
_ACTORS_AFTER_RUN = """
import sys
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from pdf_extractor_ray.pipelines import run_resumable_extraction
from pdf_extractor_ray.sources.corpus import write_pages_parquet

files = write_pages_parquet(sys.argv[1] + "/pages", 40, rows_per_file=20)
assert run_resumable_extraction(files, sys.argv[1] + "/out")["ran"] == [0, 1]
for actor in ray.util.list_named_actors(all_namespaces=True):
    print(actor["name"])
ray.shutdown()
"""


def test_resumable_run_starts_no_ray_data_actors(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.run(
        [sys.executable, "-c", _ACTORS_AFTER_RUN, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    actors = proc.stdout.split()
    assert "datasets_stats_actor" not in actors
    assert "AutoscalingRequester" not in actors


def _listing(root: str) -> list[tuple[str, int]]:
    return sorted(
        (os.path.join(d, n), os.path.getsize(os.path.join(d, n)))
        for d, _, names in os.walk(root)
        for n in names
    )


def test_failed_run_leaves_no_task_writing(ray_session, tmp_path):
    from pdf_extractor_ray.pipelines import run_resumable_extraction

    files = write_pages_parquet(str(tmp_path / "pages"), 3200, rows_per_file=800)
    # shard 0 keeps a valid footer but loses its url column; shards 1-3
    # are still extracting when its task fails
    pq.write_table(pq.read_table(files[0]).drop_columns(["url"]), files[0])

    out = str(tmp_path / "out")
    with pytest.raises(Exception):
        run_resumable_extraction(files, out)
    before = _listing(out)
    time.sleep(2)
    assert _listing(out) == before


def _poison_rows() -> list[dict]:
    """One poison payload of each kind, each between two good pages."""
    payloads = [
        b'{"a": "\\ud800 x"}',                              # lone surrogate escape
        b'{"kind": "pdf", "pages": 7, "title": [1]}',      # pdf shape, wrong types
        b"<p>ok \xff\xfe not utf-8</p>",                   # invalid UTF-8
        b"<p>a\x00b\x00c</p>",                             # NUL bytes
        b"[" * 100_000 + b"]" * 100_000,                   # nested 100k deep
    ]
    rows = [make_page_row(i, 9) for i in range(2 * len(payloads) + 1)]
    for k, payload in enumerate(payloads):
        rows[2 * k + 1] = {**rows[2 * k + 1], "html": payload, "text": ""}
    return rows


def test_poison_rows_of_every_kind_through_ray(ray_session, tmp_path):
    from pdf_extractor_ray.kernel import extract_document
    from pdf_extractor_ray.pipelines import extract_pages, run_resumable_extraction

    rows = _poison_rows()
    f = str(tmp_path / "poison.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA), f)
    want = {
        r["url"]: extract_document(r["url"], r["warc_ts"], r["html"], r["text"], r["lang"])
        for r in rows
    }
    assert {w["status"] for w in want.values()} == {"ok", "error"}

    out = str(tmp_path / "out")
    assert run_resumable_extraction([f], out)["ran"] == [0]
    written = pads.dataset(
        out, format="parquet", ignore_prefixes=["_lineage"]
    ).to_table(columns=["url", "status", "error"]).to_pylist()
    for got in (extract_pages([f]).take_all(), written):
        assert sorted(r["url"] for r in got) == sorted(want)
        for r in got:
            assert (r["status"], r["error"]) == (
                want[r["url"]]["status"], want[r["url"]]["error"]
            ), r["url"]
