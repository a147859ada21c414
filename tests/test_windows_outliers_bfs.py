"""peak_moving_window / mad_outliers (relational.py) + bfs_hops (graph.py)."""

import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events_table(rows):
    return pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "event_id": pa.array([r[2] for r in rows], pa.int64()),
            "value": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


def _brute_peak(rows, w=4):
    """Per-user peak w-row moving sum of cents, ORDER BY (ts, event_id)."""
    out = {}
    by_user = {}
    for u, ts, eid, v in rows:
        by_user.setdefault(u, []).append((ts, eid, int(np.floor(v * 100 + 0.5))))
    for u, evs in by_user.items():
        evs.sort()
        vals = [c for _, _, c in evs]
        peak = max(
            sum(vals[max(0, i - w + 1): i + 1]) for i in range(len(vals))
        )
        out[u] = (peak, len(vals))
    return out


class TestPeakMovingWindow:
    def test_matches_bruteforce_random(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.relational import peak_moving_window

        rng = random.Random(7)
        rows = [
            (
                rng.randrange(20),
                rng.randrange(10_000) * 1_000_000,
                i,
                rng.uniform(-50, 200),
            )
            for i in range(800)
        ]
        got = peak_moving_window(
            ray.data.from_arrow(_events_table(rows)), window_rows=4
        ).to_pandas()
        want = _brute_peak(rows, 4)
        assert len(got) == len(want)
        for _, r in got.iterrows():
            peak, n = want[r["user_id"]]
            assert (r["peak_window_c"], r["n_events"]) == (peak, n)

    def test_partial_windows_at_start_count(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.relational import peak_moving_window

        # all-negative values: the peak is the FIRST (1-row) partial
        # window, which a full-frames-only implementation would miss
        rows = [(1, i * 1_000_000, i, -1.0 * (i + 1)) for i in range(6)]
        got = peak_moving_window(
            ray.data.from_arrow(_events_table(rows)), window_rows=4
        ).to_pandas()
        assert got.iloc[0]["peak_window_c"] == -100  # -1.00 in cents

    def test_tie_timestamps_break_on_event_id(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.relational import peak_moving_window

        rows = [(5, 0, eid, float(eid)) for eid in (3, 1, 2, 0)]
        got = peak_moving_window(
            ray.data.from_arrow(_events_table(rows)), window_rows=2
        ).to_pandas()
        # sorted by event_id: 0,1,2,3 -> windows 0,1,3,5 -> peak 500c
        assert got.iloc[0]["peak_window_c"] == 500


class TestMadOutliers:
    @staticmethod
    def _brute(vals, k=3):
        s = sorted(vals)
        n = len(s)
        med2 = s[(n - 1) // 2] * 2 if n % 2 else s[n // 2 - 1] + s[n // 2]
        dev2 = sorted(abs(2 * v - med2) for v in vals)
        mad4 = (
            dev2[(n - 1) // 2] * 2 if n % 2 else dev2[n // 2 - 1] + dev2[n // 2]
        )
        n_out = sum(1 for v in vals if 2 * abs(2 * v - med2) > k * mad4)
        return med2, mad4, n_out

    def test_matches_bruteforce_random(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.relational import mad_outliers

        rng = random.Random(11)
        rows = []
        for g in ("a", "b", "c"):
            n = rng.randrange(50, 120)
            rows += [(g, rng.randrange(0, 500)) for _ in range(n)]
            rows += [(g, 10_000 + rng.randrange(50))]  # a far outlier
        tbl = pa.table(
            {
                "source": pa.array([r[0] for r in rows]),
                "n_chars": pa.array([r[1] for r in rows], pa.int64()),
            }
        )
        got = mad_outliers(
            ray.data.from_arrow(tbl), value_col="n_chars",
            group_col="source", k=3,
        ).to_pandas().set_index("source")
        for g in ("a", "b", "c"):
            vals = [v for s, v in rows if s == g]
            med2, mad4, n_out = self._brute(vals)
            r = got.loc[g]
            assert (r["med2"], r["mad4"], r["n_outliers"], r["n_rows"]) == (
                med2, mad4, n_out, len(vals),
            )

    def test_constant_group_has_no_outliers(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.relational import mad_outliers

        tbl = pa.table(
            {
                "source": pa.array(["x"] * 10),
                "n_chars": pa.array([7] * 10, pa.int64()),
            }
        )
        got = mad_outliers(
            ray.data.from_arrow(tbl), value_col="n_chars", group_col="source"
        ).to_pandas()
        assert int(got.iloc[0]["mad4"]) == 0
        assert int(got.iloc[0]["n_outliers"]) == 0


class TestBfsHops:
    @staticmethod
    def _brute(edges, seeds, max_depth):
        from collections import deque

        adj = {}
        for s, d in edges:
            adj.setdefault(s, []).append(d)
        dist = {s: 0 for s in seeds}
        q = deque(seeds)
        while q:
            u = q.popleft()
            if dist[u] >= max_depth:
                continue
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def _run(self, ray, edges, seeds, max_depth):
        from pdf_extractor_ray.functions.graph import bfs_hops

        e = pa.table(
            {
                "src": pa.array([s for s, _ in edges], pa.int64()),
                "dst": pa.array([d for _, d in edges], pa.int64()),
            }
        )
        s = pa.table({"node": pa.array(seeds, pa.int64())})
        out = bfs_hops(
            ray.data.from_arrow(e), ray.data.from_arrow(s),
            max_depth=max_depth, n_shards=4,
        ).to_pandas()
        return dict(zip(out["node"], out["hops"]))

    def test_matches_bruteforce_random(self, ray_session):
        import ray

        rng = random.Random(3)
        edges = [
            (rng.randrange(200), rng.randrange(200)) for _ in range(600)
        ]
        seeds = [0, 50, 150]
        got = self._run(ray, edges, seeds, 4)
        assert got == self._brute(edges, seeds, 4)

    def test_depth_bound_respected(self, ray_session):
        import ray

        # a pure path 0->1->2->3->4->5; depth 3 stops at node 3
        edges = [(i, i + 1) for i in range(5)]
        got = self._run(ray, edges, [0], 3)
        assert got == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_min_hop_wins_over_longer_path(self, ray_session):
        import ray

        # 0->1->2->3 and a shortcut 0->3
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        got = self._run(ray, edges, [0], 4)
        assert got[3] == 1

    def test_early_exit_on_exhausted_frontier(self, ray_session):
        import ray

        got = self._run(ray, [(0, 1)], [0], 4)
        assert got == {0: 0, 1: 1}
