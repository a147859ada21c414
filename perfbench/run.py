"""Repository benchmark: one command, one fresh process and Ray session
per workload. See README.md in this directory.

    python3 perfbench/run.py --workload html_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one summary

Run from the checkout root. The result is the last line of stdout, as
JSON; the engine's and Ray's output goes to stderr. A workload that
crashes or outlives its time limit is reported with every operation
failed and the exception type, and the remaining workloads still run.
Exit codes: 0 when every workload produced a result, 1 when one
crashed or timed out, 2 when the engine is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("html_small", "cc_mix_write", "pretrain_chain")
# a run must end within 180 s; leave room to stop the child and report
CHILD_TIMEOUT_S = 170.0


def _metric_units(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _failure(trace: int, error: str) -> dict:
    metrics = {name: {"value": 0.0, "unit": unit} for name, unit in _metric_units(trace).items()}
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": metrics, "error": error}


def _group_alive(pgid: int) -> bool:
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever the child left in its process group (Ray's raylet,
    GCS and workers live there) and wait until all of it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh child process; always returns a result."""
    # only the last run's Ray session logs are kept
    shutil.rmtree(os.path.join(ROOT, ".perfbench_ray"), ignore_errors=True)
    tmp = os.path.join(ROOT, ".perfbench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p),
        TMPDIR=tmp,
    )
    cmd = [
        sys.executable, "-m", "perfbench.run", "--child", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        return _failure(trace, f"TimeoutExpired: no result after {CHILD_TIMEOUT_S:.0f} s")
    _stop_group(proc)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return _failure(trace, f"ChildProcessError: exit code {proc.returncode}, no result")
    if "error" in result:
        return _failure(trace, result["error"])
    return result


def _child(args: argparse.Namespace) -> int:
    result_fd = os.dup(1)
    os.dup2(2, 1)  # whatever the engine or Ray prints lands on stderr
    try:
        from perfbench import bench

        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
        code = 0
    except Exception as exc:  # reported as a failed workload by the parent
        import traceback

        traceback.print_exc()
        result, code = {"error": f"{type(exc).__name__}: {exc}"}, 1
    with os.fdopen(result_fd, "w") as f:
        f.write(json.dumps(result) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "pdf_extractor_ray", "__init__.py")):
        print(f"perfbench: no pdf_extractor_ray package under {ROOT}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, args.trace)
        if "error" in r:
            print(f"perfbench: {name} failed: {r['error']}", file=sys.stderr)
        summary = {k: v["value"] for k, v in r["metrics"].items()} if not args.trace else ""
        print(
            f"perfbench: {name} failed_frac={r['failed'] / r['attempted']:.4f} {summary}",
            file=sys.stderr,
        )
        results[name] = r
    crashed = any("error" in r for r in results.values())
    if args.workload != "all":
        (r,) = results.values()
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({
            name: dict(r, failed_frac=r["failed"] / r["attempted"])
            for name, r in results.items()
        }))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
