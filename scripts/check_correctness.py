"""Local stand-in for the driver's correctness gate.

Runs every registered gate query (``pdf_extractor_ray/gate/``) at a
given sf_dir, converts the result to pandas, and for entries with an
oracle compares row count, sorted column names, and order-insensitive
values against DuckDB. Each line gives the Ray time and the oracle time
apart; the last lines give their totals.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
(with query names given, only those entries run)
"""

from __future__ import annotations

import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, ".")

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return (
        df.sort_values(list(df.columns)).reset_index(drop=True)
    )


def main(sf_dir: str, only: list[str] | None = None) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pdf_extractor_ray import gate

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    qs = gate.queries()
    oracles = gate.oracle_sql()
    if only:
        unknown = [n for n in only if n not in qs]
        if unknown:
            print("unknown queries:", unknown)
            return 1
        qs = {n: qs[n] for n in only}
    failures = []
    ray_total = duck_total = 0.0
    for name, fn in qs.items():
        t0 = time.monotonic()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as exc:
            failures.append(name)
            print(f"FAIL  {name}: query raised {type(exc).__name__}: {exc}")
            continue
        ray_s = time.monotonic() - t0
        ray_total += ray_s
        if name not in oracles:
            print(f"ROWS  {name}: {len(got)} rows, {len(got.columns)} cols "
                  f"(ray {ray_s:.1f}s) [no oracle]")
            continue
        t0 = time.monotonic()
        want = canon(con.sql(oracles[name]).df())
        duck_s = time.monotonic() - t0
        duck_total += duck_s
        status = "OK  "
        if list(got.columns) != list(want.columns):
            status = "FAIL(cols)"
        elif len(got) != len(want):
            status = "FAIL(rows)"
        else:
            try:
                pd.testing.assert_frame_equal(
                    got, want, check_dtype=False, check_exact=True
                )
            except AssertionError as exc:
                status = "FAIL(vals)"
                print(str(exc)[:400])
        if status != "OK  ":
            failures.append(name)
        print(f"{status}  {name}: ray={len(got)}r duck={len(want)}r "
              f"cols={list(got.columns)} (ray {ray_s:.1f}s, "
              f"oracle {duck_s:.1f}s)")
    print(f"\nTOTAL ray {ray_total:.1f}s, oracle {duck_total:.1f}s")
    print("FAILURES:", failures or "none")
    return 1 if failures else 0


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    raise SystemExit(main(sf, sys.argv[2:] or None))
