"""One workload in one process that owns one Ray session.

Called by ``run.py`` in a fresh child process whose working directory is
the checkout root. Everything it writes stays under that root:

    .perfbench_work/<workload>/     inputs and pass outputs, removed at the end
    .perfbench_ray/                 Ray's session directory
    .perfbench_results/<code>/      untraced results and trace files, kept;
                                    <code> hashes the engine's and the
                                    benchmark's sources, so both kinds of
                                    file for the same code sit side by side
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import time

from perfbench import measure, tracing, workloads

WORK_DIR = ".perfbench_work"
RAY_DIR = ".perfbench_ray"
RESULTS_DIR = ".perfbench_results"
SETUP_REPS = 3
# a pretrain_chain pass takes 12-25 s, longer than a 10-s run; a second
# pass keeps one slow pass from deciding the run
MIN_PASSES = 2
OBJECT_STORE_BYTES = 512 * 2**20

E2E_UNITS = {"docs_per_s": "docs/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def num_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may run on, capped
    by ``OMP_NUM_THREADS`` when that is set."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def _ray_init() -> None:
    import ray
    from ray.data import DataContext

    # Ray's unix socket paths must stay under 107 bytes however deep the
    # checkout is; /proc/<pid>/cwd names the checkout root (this
    # process's working directory) in a few bytes.
    ray.init(
        address="local",
        num_cpus=num_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=f"/proc/{os.getpid()}/cwd/{RAY_DIR}",
        object_store_memory=OBJECT_STORE_BYTES,
    )
    DataContext.get_current().enable_progress_bars = False


def _reset_peak_rss() -> None:
    """Restart this process's VmHWM, so input generation and the serial
    control do not count towards ``peak_rss_mb``."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def code_fingerprint(root: str) -> str:
    h = hashlib.sha256()
    for pkg in ("pdf_extractor_ray", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, pkg)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:12]


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Set up, measure for ``seconds``, check every pass; with ``trace``
    also make the traced run. Returns the result line."""
    import ray

    work = os.path.join(root, WORK_DIR, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.make(name, seed, work)
    t0 = time.perf_counter()
    wl.make_inputs()
    wl.reference()
    prepare_s = time.perf_counter() - t0

    _reset_peak_rss()
    setups: list[float] = []
    passes: list[dict] = []
    layers = record = None
    trace_ok = True
    try:
        for k in range(SETUP_REPS):
            if k:
                ray.shutdown()
            t0 = time.perf_counter()
            _ray_init()
            wl.warmup()
            setups.append(time.perf_counter() - t0)
        # the traced run reads ds.stats() of the first pass
        stats: list[str] | None = [] if trace else None
        t_start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
            passes.append(wl.run_pass(len(passes), stats=None if passes else stats))
        peak = measure.peak_rss_mb(os.getpid())
        if trace:
            layers, record, trace_ok = tracing.run(
                wl, work, [p["wall_s"] for p in passes], stats
            )
    finally:
        ray.shutdown()
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    rates = [p["docs"] / p["wall_s"] for p in passes]
    e2e = {
        "docs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "ok_frac": 1 - failed / attempted,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "num_cpus": num_cpus(),
        "metrics": e2e,
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "docs_per_s": measure.summarize(rates),
        "pass_walls_s": [p["wall_s"] for p in passes],
        "docs_per_pass": passes[0]["docs"],
        "setups_s": setups,
        "prepare_s": prepare_s,
        "serial_kernel_s": wl.serial_s,
        "lane_shares": wl.properties(),
    }
    out_dir = os.path.join(root, RESULTS_DIR, code_fingerprint(root))
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if trace else "untraced"
    with open(os.path.join(out_dir, f"{name}.seed{seed}.{kind}.json"), "w") as f:
        json.dump(dict(detail, trace=record) if trace else detail, f, indent=1)

    if trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in tracing.REPORTED}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
