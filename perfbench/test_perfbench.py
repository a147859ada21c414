"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench/test_perfbench.py

The planted-fault tests need no Ray. ``test_current_code_reads_zero``
runs every workload end to end with one second of measurement, which
still makes two passes each (two to four minutes at one CPU).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from perfbench import bench, measure, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _expected(n: int = 10) -> dict[str, str]:
    return {f"u{i}": measure.text_sha(f"text {i}") for i in range(n)}


def _rows(expected: dict[str, str]) -> list[tuple[str, str, str]]:
    return [(url, "ok", sha) for url, sha in expected.items()]


def _failed_frac(expected, rows) -> float:
    return measure.extraction_failures(expected, rows) / len(expected)


def test_correct_pass_reads_zero():
    exp = _expected()
    assert _failed_frac(exp, _rows(exp)) == 0


@pytest.mark.parametrize(
    "plant",
    [
        # wrong extracted_text
        lambda rows: [(u, s, measure.text_sha("other")) if u == "u3" else (u, s, h)
                      for u, s, h in rows],
        # dropped url
        lambda rows: rows[:-1],
        # duplicated url
        lambda rows: rows + rows[:1],
        # error row
        lambda rows: [(u, "error" if u == "u0" else s, h) for u, s, h in rows],
        # a url that was never input
        lambda rows: rows + [("stray", "ok", "x")],
    ],
    ids=["wrong_text", "dropped_url", "duplicated_url", "error_status", "stray_url"],
)
def test_planted_extraction_fault_raises_failed_frac(plant):
    exp = _expected()
    assert _failed_frac(exp, plant(_rows(exp))) == pytest.approx(0.1)


def test_every_row_wrong_caps_at_attempted():
    exp = _expected()
    rows = [(u, "error", "x") for u in exp] + [("stray", "ok", "x")]
    assert _failed_frac(exp, rows) == 1.0


def _write_shard(out_dir, shard: int, tokens: list[int], idx: list[tuple[int, int, int]]):
    with open(os.path.join(out_dir, f"shard-{shard:05d}.bin"), "wb") as f:
        f.write(b"".join(t.to_bytes(2, "little") for t in tokens))
    with open(os.path.join(out_dir, f"shard-{shard:05d}.idx"), "wb") as f:
        f.write(b"".join(v.to_bytes(8, "little", signed=True) for row in idx for v in row))


def test_bin_shard_manifest_matches_binexport_format(tmp_path):
    _write_shard(tmp_path, 0, [1, 2, 65535], [(0, 0, 2), (4, 2, 1)])
    (row,) = measure.bin_shard_manifest(str(tmp_path), [0])
    raw = bytes([1, 0, 2, 0, 255, 255])
    assert row == {
        "shard": 0,
        "n_chunks": 2,
        "n_tokens": 3,
        "bin_md5": hashlib.md5(raw.hex().encode()).hexdigest(),
        "idx_md5": hashlib.md5(b"0:0:2,4:2:1").hexdigest(),
    }


def test_changed_manifest_md5_fails_the_pass():
    pinned = workloads.PINNED_MANIFEST
    assert measure.manifest_ok(pinned, list(reversed(pinned)), pinned)
    changed = [dict(r) for r in pinned]
    changed[2]["bin_md5"] = "0" * 32
    # from the chain's returned manifest, or from the files on disk
    assert not measure.manifest_ok(changed, pinned, pinned)
    assert not measure.manifest_ok(pinned, changed, pinned)
    assert not measure.manifest_ok(pinned, pinned[:-1], pinned)


def test_self_times_account_for_the_traced_wall():
    tr = tracing.Tracer("w")
    with tr.span("pass"):
        with tr.span("a"):
            with tr.span("b"):
                sum(range(10_000))
        with tr.span("a"):
            sum(range(10_000))
    acc = tr.accounting("pass")
    assert sum(acc["self_s"].values()) == pytest.approx(acc["wall_s"])
    assert acc["remainder_s"] == acc["self_s"]["pass"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.REPORTED
    ]


def test_current_code_reads_zero():
    """Every workload, one short run each: no operation fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--seed", "5",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(run.WORKLOADS)
    for name, r in results.items():
        assert r["correct"] and r["failed_frac"] == 0, (name, r)
