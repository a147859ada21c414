"""Cluster entry point for the extraction pipeline.

Designed for ``ray job submit`` (north rule): the script owns its Ray
session only when launched standalone — under ``ray job submit`` the
cluster is already up and ``ray.init(address="auto")`` attaches to it.

    ray job submit --working-dir . -- \
        python scripts/run_extraction.py \
        --input /data/pages --output /data/extracted \
        --shard-size 4 --merge-strategy conservative

Resumability: output is written shard-by-shard as ``part=NNNNN/``
directories with ``_lineage/part-NNNNN.json`` sidecars (partition id,
url range, row count, url-set checksum, wall seconds). Re-running the
same command skips every shard whose sidecar exists — resume from the
last committed partition after any interruption.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pdf_extractor_ray.kernel.tables import MERGE_STRATEGIES  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="parquet file, glob, or directory of pages shards")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--merge-strategy", default="conservative",
                    choices=MERGE_STRATEGIES)
    ap.add_argument("--shard-size", type=int, default=1,
                    help="input files per output partition (resume unit)")
    ap.add_argument("--batch-size", type=int, default=128)
    ap.add_argument("--partition-by", default=None,
                    help="comma-separated columns for hive-partitioned "
                         "output inside each shard (e.g. lang,kind)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # Under `ray job submit` RAY_ADDRESS is set and attaches to the
        # cluster; standalone runs come up in local mode.
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)

    if os.path.isdir(args.input):
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    elif os.path.exists(args.input):
        files = [args.input]
    else:
        files = sorted(glob.glob(args.input))
    if not files:
        print(f"no parquet inputs under {args.input}", file=sys.stderr)
        return 2

    from pdf_extractor_ray.pipelines import run_resumable_extraction

    result = run_resumable_extraction(
        files,
        args.output,
        merge_strategy=args.merge_strategy,
        shard_size=args.shard_size,
        partition_cols=(
            args.partition_by.split(",") if args.partition_by else None
        ),
        batch_size=args.batch_size,
    )
    print(json.dumps(result))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
