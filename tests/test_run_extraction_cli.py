"""Smoke test of scripts/run_extraction.py: a subprocess run on a
2-file pages corpus writes one partition per file, a rerun skips both,
and the output url set equals the input url set."""

import json
import os
import subprocess
import sys

import pyarrow.dataset as pads

from pdf_extractor_ray.sources.corpus import write_pages_parquet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "run_extraction.py")


def _run(inp: str, out: str, address: str) -> dict:
    # attach to the test session's cluster, as under `ray job submit`
    env = dict(os.environ, RAY_ADDRESS=address)
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--input", inp, "--output", out,
         "--shard-size", "1"],
        capture_output=True, text=True, env=env, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_runs_then_resumes(ray_session, tmp_path):
    inp, out = str(tmp_path / "pages"), str(tmp_path / "out")
    write_pages_parquet(inp, 40, rows_per_file=20)
    address = ray_session.get_runtime_context().gcs_address

    first = _run(inp, out, address)
    assert first["ran"] == [0, 1]
    assert first["skipped"] == []

    second = _run(inp, out, address)
    assert second["ran"] == []
    assert second["skipped"] == [0, 1]

    want = pads.dataset(inp).to_table(columns=["url"])["url"].to_pylist()
    got = [
        u
        for pid in (0, 1)
        for u in pads.dataset(os.path.join(out, f"part={pid:05d}"))
        .to_table(columns=["url"])["url"]
        .to_pylist()
    ]
    assert sorted(got) == sorted(want)
    assert len(got) == len(set(got)) == 40
