"""Per-operator profile of any driver query: wall time, rows, and
task counts straight from Ray Data's ``ds.stats()``.

Usage: python scripts/profile_query.py <query_name> [sf_dir]

The feedback loop behind every round's perf work: run, find the
operator that dominates wall time, check whether it is useful compute
(UDF time close to wall) or exchange/scheduling overhead, fix, rerun.
"""

from __future__ import annotations

import re
import sys
import time

sys.path.insert(0, ".")


def main(name: str, sf_dir: str) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=32, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pdf_extractor_ray import gate

    fn = gate.queries()[name]
    t0 = time.monotonic()
    res = fn(sf_dir)
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        res = res.materialize()
        wall = time.monotonic() - t0
        stats = res.stats()
        print(f"== {name}: {wall:.2f}s total, {res.count()} rows ==")
        for m in re.finditer(
            r"Operator (\d+) ([^:]+): (?:(\d+) tasks executed, \d+ blocks"
            r" produced in ([\d.]+)s|executed in ([\d.]+)s)",
            stats,
        ):
            op_wall = m.group(4) or m.group(5)
            tasks = m.group(3) or "-"
            print(f"  op{m.group(1):>3} {m.group(2)[:70]:<70} "
                  f"wall={op_wall:>8}s tasks={tasks}")
    else:
        wall = time.monotonic() - t0
        print(f"== {name}: {wall:.2f}s total, {len(res)} rows "
              f"(driver-side result; per-op stats unavailable) ==")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    sf = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.1"
    raise SystemExit(main(sys.argv[1], sf))
