"""Gate queries over the ``events`` table: sessions, windows, funnels,
as-of and band joins."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from pdf_extractor_ray.functions.common import (
    coalesce_for_exchange,
    sized_read_parquet as _rp,
)
from pdf_extractor_ray.functions.exchange import cogroup
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _cents, _t


_RANGE_BAND_SQL = """
            WITH r AS (
                SELECT i*25 AS lo, i*25 + 18 AS hi,
                       'band-' || lpad(CAST(i AS VARCHAR), 2, '0')
                           AS range_key
                FROM range(40) t(i)),
            j AS (
                SELECT r.range_key,
                       CAST(floor(e.value*100 + 0.5) AS BIGINT) AS value_c
                FROM events e
                JOIN r ON e.value >= r.lo AND e.value < r.hi)
            SELECT range_key,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(value_c) AS BIGINT) AS sum_value_c
            FROM j GROUP BY range_key
        """


_ASOF_ORDERS_SQL = """
            WITH r AS (SELECT o_custkey, o_orderdate,
                              max(o_totalprice) AS o_totalprice
                       FROM orders GROUP BY o_custkey, o_orderdate)
            SELECT e.event_type,
                   count(*) AS n_events,
                   count(r.o_totalprice) AS n_matched,
                   CAST(coalesce(sum(CAST(floor(r.o_totalprice*100 + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS sum_price_c
            FROM events e ASOF LEFT JOIN r
              ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
            GROUP BY e.event_type
        """


# skew_join_events: plain JOIN replay — the hot/cold split is
# routing only, invisible to the result.
@register("skew_join_events", bench=True, oracle="""
            WITH f AS (
                SELECT event_id,
                       CASE WHEN user_id % 5 = 0 THEN 0
                            ELSE user_id % 997 END AS k
                FROM events),
            dim AS (
                SELECT CAST(unnest(range(997)) AS BIGINT) AS k),
            dimw AS (SELECT k, k * 3 + 1 AS w FROM dim),
            j AS (SELECT f.event_id, f.k, d.w
                  FROM f JOIN dimw d USING(k))
            SELECT CASE WHEN k = 0 THEN 'hot' ELSE 'cold' END AS k_class,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(w) AS BIGINT) AS sum_w,
                   CAST(sum(event_id) AS BIGINT) AS sum_event
            FROM j GROUP BY 1
        """)
def _q_skew_join(sf_dir: str):
    """Skew-aware hash join over an induced hot key: every 5th event
    lands on key 0 (~20% of the fact mass — the one-domain-dominates
    crawl shape), the rest spread over 997 keys. skew_join detects the
    heavy hitter from per-batch local tops, broadcasts its build row,
    and shuffles only the cold mass. Output: exact per-class rollup
    (hot vs cold) of joined rows; oracle = the plain JOIN + CASE
    rollup — the skew split is pure routing, so results are identical
    whichever path a key takes."""
    from pdf_extractor_ray.functions.relational import skew_join

    ev = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        k = np.where(uid % 5 == 0, 0, uid % 997).astype(np.int64)
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "event_id": batch["event_id"],
            }
        )

    big = ev.map_batches(keyed, batch_format="pyarrow").materialize()

    def mk_dim(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array(ids, pa.int64()),
                "w": pa.array(ids * 3 + 1, pa.int64()),
            }
        )

    dim = (
        ray.data.range(997)
        .map_batches(mk_dim, batch_format="pyarrow")
        .materialize()
    )

    joined = skew_join(big, dim, on="k", hot_permille=50)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {"k_class": pd.Series(dtype="object"),
                 "n_rows": pd.Series(dtype="int64"),
                 "sum_w": pd.Series(dtype="int64"),
                 "sum_event": pd.Series(dtype="int64")}
            )
        batch = batch.assign(
            k_class=np.where(batch["k"] == 0, "hot", "cold")
        )
        g = batch.groupby("k_class", as_index=False).agg(
            n_rows=("k", "size"),
            sum_w=("w", "sum"),
            sum_event=("event_id", "sum"),
        )
        return g

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k_class": [group["k_class"].iloc[0]],
                "n_rows": np.int64(group["n_rows"].sum()),
                "sum_w": np.int64(group["sum_w"].sum()),
                "sum_event": np.int64(group["sum_event"].sum()),
            }
        )

    return (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("k_class")
        .map_groups(fold, batch_format="pandas")
    )


@register("events_window", bench=True, oracle="""
            SELECT event_type,
                   CAST(floor(epoch(ts)/3600) AS BIGINT) * 3600 AS window_start,
                   count(*) AS n_events,
                   CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_c
            FROM events
            GROUP BY event_type, window_start
        """)
def _q_events_window(sf_dir: str):
    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )

    def bucket(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        # numpy // floors toward -inf, matching the oracle's floor();
        # per-batch partial agg so the shuffle carries windows, not events
        secs = us.to_numpy(zero_copy_only=False) // 1_000_000
        win = (secs // 3600) * 3600
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "window_start": win,
                "value_c": _cents(batch["value"]).to_numpy(),
            }
        )
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value_c", "size"), sum_value_c=("value_c", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        events.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_c", alias_name="sum_value_c"),
        )
    )


@register("events_hopping", oracle="""
            WITH w AS (
                SELECT event_type,
                       unnest([CAST(floor(epoch(ts)/1800) AS BIGINT) * 1800,
                               CAST(floor(epoch(ts)/1800) AS BIGINT) * 1800 - 1800])
                           AS window_start,
                       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c
                FROM events
            )
            SELECT event_type, window_start,
                   count(*) AS n_events,
                   CAST(sum(value_c) AS BIGINT) AS sum_value_c
            FROM w GROUP BY event_type, window_start
        """)
def _q_events_hopping(sf_dir: str):
    from pdf_extractor_ray.functions.relational import events_hopping_window

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )
    return events_hopping_window(events, size_s=3600, hop_s=1800)


@register("events_pivot", oracle="""
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type='click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type='error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type='purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type='signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type='view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """)
def _q_events_pivot(sf_dir: str):
    """Pivot: one row per user, one count column per event type. The
    pivot happens inside each batch (pandas crosstab -> fixed columns),
    so the shuffle carries one row per user per batch with 5 int
    columns — never the raw event stream."""
    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    types = ["click", "error", "purchase", "signup", "view"]

    cols = [f"n_{t}" for t in types]

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"user_id": batch["user_id"], "event_type": batch["event_type"]}
        ).to_pandas()
        pv = pd.crosstab(df["user_id"], df["event_type"])
        for t in types:
            if t not in pv.columns:
                pv[t] = 0
        pv = pv[types].reset_index()
        pv.columns = ["user_id"] + cols
        return pa.Table.from_pandas(pv, preserve_index=False)

    # coarse user-bucket exchange + in-bucket merge (user-cardinality
    # aggregate groups are the 10M-row pathology)
    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("user_id", as_index=False)[cols].sum()

    return cogroup(
        {"group": (events.map_batches(partial, batch_format="pyarrow"), "user_id")},
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )


@register("value_quantiles", oracle="""
            SELECT event_type,
                   quantile_disc(CAST(floor(value*100 + 0.5) AS BIGINT), 0.5)
                       AS p50_c,
                   quantile_disc(CAST(floor(value*100 + 0.5) AS BIGINT), 0.9)
                       AS p90_c
            FROM events GROUP BY event_type
        """)
def _q_value_quantiles(sf_dir: str):
    from pdf_extractor_ray.functions.relational import exact_quantiles

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "value"]
    )
    return exact_quantiles(events, qs=(0.5, 0.9))


@register("distinct_users", bench=True, oracle="""
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """)
def _q_distinct_users(sf_dir: str):
    from pdf_extractor_ray.functions.relational import distinct_users_per_type

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return distinct_users_per_type(events)


@register("peak_window", oracle="""
            WITH v AS (
                SELECT user_id, ts, event_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
                FROM events
            ),
            w AS (
                SELECT user_id,
                       sum(value_c) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
                       ) AS win_c
                FROM v
            )
            SELECT user_id, CAST(max(win_c) AS BIGINT) AS peak_window_c,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM w GROUP BY user_id
        """)
def _q_peak_window(sf_dir: str):
    """Row-frame moving window: per user, peak 4-event sliding sum of
    value (exact integer cents) under ORDER BY (ts, event_id) — the
    burst-spend signal. One coarse user-bucket exchange; the frame fold
    is a clamped cumulative-sum diff, no Python loop."""
    from pdf_extractor_ray.functions.relational import peak_moving_window

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )
    return peak_moving_window(events, window_rows=4)


@register("hourly_spikes", oracle="""
            WITH h AS (
                SELECT user_id,
                       epoch_us(ts) // 1000000 // 3600 AS hour,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            ),
            u AS (
                SELECT user_id, count(*) AS nh, sum(n) AS ne,
                       max(n) AS peak
                FROM h GROUP BY 1
            )
            SELECT h.user_id,
                   CAST(any_value(u.nh) AS BIGINT) AS n_active_hours,
                   CAST(sum(CASE WHEN h.n * u.nh > 1 * u.ne
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_spike_hours,
                   CAST(any_value(u.peak) AS BIGINT) AS peak_hour_events
            FROM h JOIN u USING (user_id)
            GROUP BY h.user_id
        """)
def _q_hourly_spikes(sf_dir: str):
    """Access-log burst detection: per user, count of hours whose
    event count exceeds the user's mean over ACTIVE hours (factor=1).
    Integer-exact spike test (count * n_active_hours > factor *
    n_events); two-level pre-aggregation before one user-bucket
    exchange — the exchange carries (user, hour) partials, never
    events."""
    from pdf_extractor_ray.functions.relational import hourly_spikes

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts"]
    )
    return hourly_spikes(events, factor=1)


@register("running_totals", oracle="""
            SELECT event_id, user_id,
                   CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS BIGINT)
                       AS running_c
            FROM events
        """)
def _q_running_totals(sf_dir: str):
    """Per-user cumulative spend over time (SUM OVER PARTITION BY /
    ORDER BY window): one user-bucket exchange, in-bucket vectorized
    sort + cumsum, exact integer cents, ties broken by event_id."""
    from pdf_extractor_ray.functions.relational import running_totals

    events = _rp(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "value"],
    )
    return running_totals(events)


@register("max_concurrency", oracle="""
            WITH pts AS (
                SELECT epoch_us(ts) AS t, 1 AS delta FROM events
                UNION ALL
                SELECT epoch_us(ts) + 600000000, -1 FROM events
            ),
            net AS (
                SELECT t AS ts_us, CAST(SUM(delta) AS BIGINT) AS d
                FROM pts GROUP BY 1
            ),
            run AS (
                SELECT ts_us,
                       SUM(d) OVER (ORDER BY ts_us
                                    ROWS UNBOUNDED PRECEDING) AS r
                FROM net
            )
            SELECT CAST((SELECT max(r) FROM run) AS BIGINT)
                       AS max_concurrent,
                   CAST((SELECT min(ts_us) FROM run
                         WHERE r = (SELECT max(r) FROM run)) AS BIGINT)
                       AS at_ts_us
        """)
def _q_max_concurrency(sf_dir: str):
    """Sweep-line peak concurrency (each event holds a slot 10 min):
    the distributed global-prefix-sum pattern — per-window local scans
    plus a driver-side carry fold over one int per time window."""
    from pdf_extractor_ray.functions.relational import max_concurrency

    events = _rp(_t(sf_dir, "events"), columns=["ts"])
    return max_concurrency(events, hold_s=600)


@register("props_rollup", oracle="""
            WITH v AS (
                SELECT event_type,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS k
                FROM events
            )
            SELECT event_type,
                   CAST(count(k) AS BIGINT) AS n,
                   CAST(sum(k) AS BIGINT) AS sum_k,
                   CAST(min(k) AS BIGINT) AS min_k,
                   CAST(max(k) AS BIGINT) AS max_k
            FROM v WHERE k IS NOT NULL GROUP BY event_type
        """)
def _q_props_rollup(sf_dir: str):
    """Semi-structured lane: numeric field "k" extracted from the
    props JSON column with zero-copy Arrow RE2 (no per-row
    json.loads), rolled up per event_type; misses surface as NULL and
    drop, exactly like json_extract + CAST in the oracle."""
    from pdf_extractor_ray.functions.relational import json_prop_rollup

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "props"]
    )
    return json_prop_rollup(events, key="k")


@register("event_trigrams", oracle="""
            WITH s AS (
                SELECT event_type AS t1, ts,
                       lead(event_type, 1) OVER w AS t2,
                       lead(event_type, 2) OVER w AS t3,
                       lead(ts, 1) OVER w AS ts2,
                       lead(ts, 2) OVER w AS ts3
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
            FROM s
            WHERE t3 IS NOT NULL
              AND epoch_us(ts2) - epoch_us(ts)  <= 3600000000
              AND epoch_us(ts3) - epoch_us(ts2) <= 3600000000
            GROUP BY 1, 2, 3
        """)
def _q_event_trigrams(sf_dir: str):
    """CEP-style multi-pattern counts: every ordered event-type triple
    occurring as three consecutive events with gaps <= 1h, counted per
    pattern in ONE pass (second-order transitions + session gap)."""
    from pdf_extractor_ray.functions.relational import event_trigrams

    events = _rp(
        _t(sf_dir, "events"),
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    return event_trigrams(events, max_gap_s=3600)


@register("full_outer_activity", oracle="""
            WITH a AS (
                SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n_a
                FROM events
                WHERE ts >= '2024-01-01' AND ts < '2024-01-04'
                GROUP BY 1, 2
            ),
            b AS (
                SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n_b
                FROM events
                WHERE ts >= '2024-01-28' AND ts < '2024-01-31'
                GROUP BY 1, 2
            )
            SELECT coalesce(a.user_id, b.user_id) AS user_id,
                   coalesce(a.event_type, b.event_type) AS event_type,
                   coalesce(a.n_a, 0) AS n_a,
                   coalesce(b.n_b, 0) AS n_b,
                   CASE WHEN a.user_id IS NOT NULL AND b.user_id IS NOT NULL
                        THEN 'both'
                        WHEN a.user_id IS NOT NULL THEN 'a_only'
                        ELSE 'b_only' END AS status
            FROM a FULL OUTER JOIN b
              ON a.user_id = b.user_id AND a.event_type = b.event_type
        """)
def _q_full_outer_activity(sf_dir: str):
    """FULL OUTER join shape: (user, event_type) activity across two
    disjoint weeks, null-extended both ways with a derived churn
    status — one pass, one bucket exchange."""
    from pdf_extractor_ray.functions.relational import full_outer_activity

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    return full_outer_activity(events)


@register("conversion_latency", oracle="""
            WITH fv AS (
                SELECT user_id, min(ts) AS v
                FROM events WHERE event_type = 'view' GROUP BY 1
            ),
            fp AS (
                SELECT e.user_id, min(e.ts) AS p
                FROM events e JOIN fv ON e.user_id = fv.user_id
                WHERE e.event_type = 'purchase' AND e.ts >= fv.v
                GROUP BY 1
            )
            SELECT fv.user_id,
                   CAST(epoch_us(fp.p) - epoch_us(fv.v) AS BIGINT)
                       AS latency_us
            FROM fv JOIN fp USING (user_id)
        """)
def _q_conversion_latency(sf_dir: str):
    """Per-user view->purchase funnel latency in microseconds (first
    purchase at/after the first view). One scan, one user-bucket
    exchange; the from-side ships per-batch min partials, the to-side
    ships only purchase rows (narrow int64 pairs)."""
    from pdf_extractor_ray.functions.relational import conversion_latency

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    return conversion_latency(events)


@register("interarrival", oracle="""
            WITH o AS (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS gap
                FROM events
            )
            SELECT user_id,
                   CAST(count(gap) AS BIGINT) AS n_gaps,
                   CAST(min(gap) AS BIGINT) AS min_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us,
                   CAST(sum(gap) AS BIGINT) AS sum_gap_us
            FROM o WHERE gap IS NOT NULL
            GROUP BY user_id
        """)
def _q_interarrival(sf_dir: str):
    """Per-user inter-arrival gap stats (n/min/max/sum of consecutive
    deltas, exact microseconds, ORDER BY ts, event_id) — one
    user-bucket exchange, vectorized lexsort+diff fold."""
    from pdf_extractor_ray.functions.relational import interarrival_stats

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id"]
    )
    return interarrival_stats(events)


@register("attribution", oracle="""
            WITH o AS (
                SELECT event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev
                FROM events
            )
            SELECT coalesce(prev, 'none') AS attributed_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM o WHERE event_type = 'purchase'
            GROUP BY 1
        """)
def _q_attribution(sf_dir: str):
    """Last-touch attribution: counts of purchases by the type of the
    latest strictly-preceding event in the user's history ('none' when
    the purchase is the user's first event). Buckets emit <=|types|+1
    partial rows each."""
    from pdf_extractor_ray.functions.relational import last_touch_attribution

    events = _rp(
        _t(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return last_touch_attribution(events, target_type="purchase")


@register("range_band", bench=True, oracle=_RANGE_BAND_SQL)
@register("range_band_partitioned", oracle=_RANGE_BAND_SQL)
def _q_range_band(sf_dir: str):
    """Range join (functions/relational.py::range_join):
    events banded by value into 40 disjoint [i*25, i*25+18) intervals
    (gaps drop rows — inner semantics), broadcast side probed with one
    searchsorted per batch. Oracle joins the same VALUES list with a
    BETWEEN predicate and aggregates per band."""
    from pdf_extractor_ray.functions.relational import range_join

    events = _rp(
        _t(sf_dir, "events"), columns=["event_id", "value"]
    )
    ranges = pd.DataFrame(
        {
            "lo": [i * 25 for i in range(40)],
            "hi": [i * 25 + 18 for i in range(40)],
            "range_key": [f"band-{i:02d}" for i in range(40)],
        }
    )
    joined = range_join(events, ranges, value_col="value")

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "range_key": batch["range_key"],
                "value_c": pc.cast(
                    pc.floor(
                        pc.add(pc.multiply(batch["value"], 100.0), 0.5)
                    ),
                    pa.int64(),
                ),
            }
        ).to_pandas()
        g = df.groupby("range_key", as_index=False).agg(
            n_events=("value_c", "size"), sum_value_c=("value_c", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        coalesce_for_exchange(
            joined.map_batches(partial, batch_format="pyarrow")
        )
        .groupby("range_key")
        .aggregate(Sum("n_events"), Sum("sum_value_c"))
        .rename_columns(
            {
                "sum(n_events)": "n_events",
                "sum(sum_value_c)": "sum_value_c",
            }
        )
    )


@register("sessionize", bench=True, oracle="""
            WITH x AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                                    > 1800 * 1000000
                            THEN 1 ELSE 0 END AS is_start
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            )
            SELECT user_id, CAST(sum(is_start) AS BIGINT) AS n_sessions,
                   count(*) AS n_events
            FROM x GROUP BY user_id
        """)
def _q_sessionize(sf_dir: str):
    from pdf_extractor_ray.functions.relational import sessionize_users

    events = _rp(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return sessionize_users(events, gap_s=1800)


@register("sessionize_events", oracle="""
            WITH x AS (
                SELECT event_id, user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                                    > 1800 * 1000000
                            THEN 1 ELSE 0 END AS is_start
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT event_id, user_id,
                   CAST(sum(is_start) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id
                                            ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS session_idx
            FROM x
        """)
def _q_sessionize_events(sf_dir: str):
    from pdf_extractor_ray.functions.relational import sessionize_events

    events = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    return sessionize_events(events, gap_s=1800)


@register("asof_orders", bench=True, oracle=_ASOF_ORDERS_SQL)
@register("asof_orders_partitioned", oracle=_ASOF_ORDERS_SQL)
def _q_asof_orders(sf_dir: str):
    from pdf_extractor_ray.functions.relational import latest_order_asof

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id", "ts"]
    )
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )
    return latest_order_asof(events, orders)


@register("funnel", oracle="""
            WITH a AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY user_id),
            b AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN a ON e.user_id = a.user_id
              WHERE e.event_type = 'click' AND e.ts > a.t
              GROUP BY e.user_id),
            c AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN b ON e.user_id = b.user_id
              WHERE e.event_type = 'purchase' AND e.ts > b.t
              GROUP BY e.user_id)
            SELECT * FROM (
              SELECT CAST(0 AS BIGINT) AS step_idx, 'view' AS step,
                     CAST((SELECT count(*) FROM a) AS BIGINT) AS n_users
              UNION ALL
              SELECT CAST(1 AS BIGINT), 'click',
                     CAST((SELECT count(*) FROM b) AS BIGINT)
              UNION ALL
              SELECT CAST(2 AS BIGINT), 'purchase',
                     CAST((SELECT count(*) FROM c) AS BIGINT))
        """)
def _q_funnel(sf_dir: str):
    """Ordered funnel view -> click -> purchase: users completing each
    prefix in strictly increasing ts order (greedy earliest-occurrence
    walk == the oracle's nested-min SQL)."""
    from pdf_extractor_ray.functions.relational import funnel_steps

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    return funnel_steps(events, steps=["view", "click", "purchase"])


@register("transitions", oracle="""
            WITH o AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id)
                         AS from_type
              FROM events)
            SELECT from_type, event_type AS to_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM o WHERE from_type IS NOT NULL
            GROUP BY from_type, to_type
        """)
def _q_transitions(sf_dir: str):
    """Markov transition counts between event types along each user's
    (ts, event_id)-ordered stream; oracle = lag window replay."""
    from pdf_extractor_ray.functions.relational import transition_counts

    events = _rp(
        _t(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "event_id"],
    )
    return transition_counts(events)


@register("retention", oracle="""
            WITH uw AS (
              SELECT DISTINCT user_id,
                     (CAST(epoch_us(ts) AS BIGINT) // 86400000000 - 4) // 7
                         AS week
              FROM events),
            act AS (SELECT week, count(*) AS n_active FROM uw GROUP BY week),
            ret AS (SELECT a.week, count(*) AS n_retained
                    FROM uw a JOIN uw b
                      ON a.user_id = b.user_id AND b.week = a.week + 1
                    GROUP BY a.week)
            SELECT act.week,
                   CAST(act.n_active AS BIGINT) AS n_active,
                   CAST(coalesce(ret.n_retained, 0) AS BIGINT) AS n_retained
            FROM act LEFT JOIN ret ON act.week = ret.week
        """)
def _q_retention(sf_dir: str):
    """Weekly retention cohorts: per Monday-aligned week, active users
    and how many return the next week (integer week arithmetic on
    epoch micros, replayed exactly in SQL)."""
    from pdf_extractor_ray.functions.relational import retention_cohorts

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts"]
    )
    return retention_cohorts(events)


@register("cooccurrence", oracle="""
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            -- per-user deterministic item cap (max_items_per_user=200):
            -- keep each user's 200 smallest items, mirroring the
            -- operator's bot-user pair-explosion guard
            ut AS (SELECT user_id, event_type FROM (
                       SELECT user_id, event_type,
                              row_number() OVER (PARTITION BY user_id
                                                 ORDER BY event_type) AS rn
                       FROM d) WHERE rn <= 200),
            p AS (SELECT a.user_id, a.event_type AS t1, b.event_type AS t2
                  FROM ut a JOIN ut b
                    ON a.user_id = b.user_id
                   AND a.event_type < b.event_type)
            SELECT t1, t2, CAST(count(*) AS BIGINT) AS n_users
            FROM p GROUP BY t1, t2
        """)
def _q_cooccurrence(sf_dir: str):
    """Pairwise event-type co-occurrence (2-itemset market-basket):
    users whose history contains both types, per unordered pair."""
    from pdf_extractor_ray.functions.relational import cooccurrence_pairs

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    return cooccurrence_pairs(events)


@register("group_topk", oracle="""
            WITH c AS (SELECT event_type, user_id, count(*) AS n_events
                       FROM events GROUP BY event_type, user_id),
                 r AS (SELECT *, row_number() OVER (
                                     PARTITION BY event_type
                                     ORDER BY n_events DESC, user_id) AS rank
                       FROM c)
            SELECT event_type, user_id, n_events, rank FROM r WHERE rank <= 3
        """)
def _q_group_topk(sf_dir: str):
    """Top-3 most active users per event_type (windowed rank). The
    per-(type, user) counts come from per-batch partials merged inside
    user buckets — never a (type, user)-keyed aggregate group set."""
    from pdf_extractor_ray.functions.relational import topk_per_group

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"event_type": batch["event_type"], "user_id": batch["user_id"]}
        ).to_pandas()
        g = df.groupby(["event_type", "user_id"], as_index=False).agg(
            n_events=("user_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(["event_type", "user_id"], as_index=False).agg(
            n_events=("n_events", "sum")
        )

    counted = cogroup(
        {"group": (events.map_batches(partial, batch_format="pyarrow"), "user_id")},
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )
    return topk_per_group(
        counted, group_col="event_type", order_col="n_events",
        tiebreak_col="user_id", k=3,
    )
