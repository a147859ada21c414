"""Correctness checks, statistics and /proc readings for the benchmark.

Nothing here imports Ray or the engine, so the benchmark's own test can
plant faults into these checks without starting a cluster.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from collections import Counter
from typing import Iterable


def text_sha(text: str | None) -> str:
    """sha256 of one document's ``extracted_text``."""
    return hashlib.sha256((text or "").encode("utf-8")).hexdigest()


def extraction_failures(
    expected: dict[str, str], rows: Iterable[tuple[str, str, str]]
) -> int:
    """Failed documents of one extraction pass.

    ``expected`` maps each input url to the text sha of serial
    ``kernel.extract_document`` on the same input row; ``rows`` are the
    pipeline's (url, status, text_sha) rows. A document fails when its
    row is missing, duplicated, ``status="error"`` or carries another
    text sha. A row for a url that was never input also counts as one
    failure. The count is capped at the number of documents attempted.
    """
    seen: Counter[str] = Counter()
    bad: set[str] = set()
    unexpected = 0
    for url, status, sha in rows:
        seen[url] += 1
        if url not in expected:
            unexpected += 1
        elif status == "error" or sha != expected[url]:
            bad.add(url)
    failed = sum(1 for url in expected if seen[url] != 1 or url in bad)
    return min(len(expected), failed + unexpected)


def bin_shard_manifest(out_dir: str, shards: Iterable[int]) -> list[dict]:
    """Recompute the (shard, n_chunks, n_tokens, bin_md5, idx_md5) rows
    of ``functions.binexport.read_token_bin_manifest`` from the files in
    ``out_dir``, independently of the engine."""
    out = []
    for s in sorted(shards):
        with open(os.path.join(out_dir, f"shard-{s:05d}.bin"), "rb") as f:
            raw = f.read()
        with open(os.path.join(out_dir, f"shard-{s:05d}.idx"), "rb") as f:
            idx = f.read()
        triples = [
            tuple(
                int.from_bytes(idx[o + 8 * k : o + 8 * k + 8], "little", signed=True)
                for k in range(3)
            )
            for o in range(0, len(idx), 24)
        ]
        out.append(
            {
                "shard": s,
                "n_chunks": len(triples),
                "n_tokens": len(raw) // 2,
                "bin_md5": hashlib.md5(raw.hex().encode()).hexdigest(),
                "idx_md5": hashlib.md5(
                    ",".join(f"{c}:{o}:{n}" for c, o, n in triples).encode()
                ).hexdigest(),
            }
        )
    return out


_MANIFEST_KEYS = ("shard", "n_chunks", "n_tokens", "bin_md5", "idx_md5")


def manifest_ok(manifest: list[dict], audit: list[dict], pinned: list[dict]) -> bool:
    """A pretrain pass is correct when the manifest the chain returned,
    the benchmark's own re-read of the shard files and the pinned
    manifest all agree."""

    def norm(rows: list[dict]) -> list[tuple]:
        return sorted(tuple(r[k] for k in _MANIFEST_KEYS) for r in rows)

    return norm(manifest) == norm(audit) == norm(pinned)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _proc_status(pid: int) -> dict[str, str]:
    out = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, val = line.partition(":")
            out[key] = val.strip()
    return out


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_proc_status(int(name))["PPid"])
        except (OSError, KeyError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        return f.read().replace(b"\0", b" ").decode(errors="replace")


def peak_rss_mb(main_pid: int) -> float:
    """Sum of ``VmHWM`` over the process that started Ray and the Ray
    worker processes under it (process title ``ray::...``), in MB
    (10^6 bytes)."""
    pids = [main_pid]
    for pid in _descendants(main_pid):
        try:
            if _cmdline(pid).startswith("ray::"):
                pids.append(pid)
        except OSError:
            continue
    total_kb = 0
    for pid in pids:
        try:
            total_kb += int(_proc_status(pid).get("VmHWM", "0 kB").split()[0])
        except (OSError, ValueError):
            continue
    return total_kb * 1024 / 1e6
