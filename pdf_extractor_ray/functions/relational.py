"""Relational operators over the star-schema tables, Ray-Data-first.

Patterns demonstrated (each is the scale-path shape, not the easy one):

  - pre-aggregated join: partial sums per batch BEFORE the exchange
    (``order_priority_revenue``) so the exchange carries one row per
    key per batch, not one per lineitem
  - range join: disjoint ranges broadcast once, probed per batch with
    one ``searchsorted`` (``range_join``) — no shuffle of the big side
  - top-k: groupby-aggregate then global ``sort.limit`` over the
    already-small aggregate
  - distinct-count: two-stage groupby (key,user -> key) so the heavy
    distinct happens as a hash shuffle of narrow pairs
  - hopping window: event-time windowed aggregate (each event expands
    to the windows it falls in) — Ray Data has no watermarks; batch
    semantics are exact for a bounded table
  - sessionization: gap-based sessions need every row of one user
    co-located AND time-sorted — shuffled by a COARSE user bucket
    (cheap hash exchange of narrow rows), with the per-user sort +
    gap fold vectorized in pandas inside each bucket group
  - as-of join: latest order at-or-before each event's timestamp, one
    vectorized backward ``pd.merge_asof`` per batch or bucket. The
    order side's size picks the route (``exchange.fits_broadcast``): a
    small side rides as a broadcast and the event side never shuffles;
    a big one co-locates both sides on a coarse customer bucket.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from pdf_extractor_ray.functions.common import coalesce_for_exchange
from pdf_extractor_ray.functions.exchange import cogroup, fits_broadcast
from ray.data.aggregate import Max, Min, Sum

__all__ = [
    "skew_join",
    "range_join",
    "events_hopping_window",
    "distinct_users_per_type",
    "brand_revenue_topk",
    "sessionize_users",
    "sessionize_events",
    "latest_order_asof",
    "topk_per_group",
    "order_priority_revenue",
    "exact_quantiles",
    "peak_moving_window",
    "mad_outliers",
    "hourly_spikes",
    "nation_revenue",
    "returned_revenue_topk",
    "promo_revenue_by_month",
    "rollup_counts",
    "conversion_latency",
    "interarrival_stats",
    "last_touch_attribution",
    "profile_columns",
    "customers_without_orders",
    "orders_with_returns",
    "customer_order_distribution",
]


def skew_join(
    big: ray.data.Dataset,
    small: ray.data.Dataset,
    on: str,
    hot_permille: int = 10,
    top_per_batch: int = 64,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Inner hash join that handles HOT KEYS explicitly — the classic
    skew-join split every shuffle engine implements (detect heavy
    hitters, broadcast their build rows map-side, shuffle only the
    cold mass). A single hot key (one domain with 20% of the crawl,
    one null-ish default id) otherwise lands its entire row mass in
    one reduce task and stalls the stage.

    Three phases:

      1. DETECT (one narrow pass over ``big``): each batch emits its
         local top-``top_per_batch`` key counts; a coarse groupby sums
         them and the driver keeps keys whose count reaches
         ``hot_permille``/1000 of the total. Detection is heuristic on
         purpose — a genuinely hot key appears in nearly every batch's
         local top, and the SPLIT AFFECTS ONLY ROUTING: the joined
         output is identical whichever side of the threshold a key
         lands on (tested), so partial detection can never corrupt the
         join.
      2. HOT path: the small side's rows for hot keys (bounded —
         |hot| x rows-per-key on the build side; one row per key for
         FK joins) broadcast via ``ray.put``, probed per batch — the
         hot row mass NEVER shuffles.
      3. COLD path: both sides hash-bucketed on the key and cogrouped
         once (the standard bucket-join exchange).

    The driver holds the hot-key list and its build rows, never data
    proportional to ``big``. Both inputs are consumed twice (detect +
    route on ``big``, filter + route on ``small``): pass materialized
    or cheap-to-recompute datasets.
    """

    # -------- phase 1: heavy-hitter detection
    def batch_meta(batch: pa.Table) -> pa.Table:
        vals, counts = np.unique(
            batch[on].to_numpy(zero_copy_only=False), return_counts=True
        )
        if len(vals) > top_per_batch:
            keep = np.argsort(-counts)[:top_per_batch]
            vals, counts = vals[keep], counts[keep]
        t = pa.table(
            {
                on: pa.array(vals),
                "_cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )
        return t

    tops = (
        coalesce_for_exchange(
            big.map_batches(batch_meta, batch_format="pyarrow")
        )
        .groupby(on)
        .sum("_cnt")
        .to_pandas()  # bounded: <= top_per_batch x n_batches keys,
        # pre-summed per key by the exchange
    )
    total = big.count()
    threshold = max(1, total * hot_permille // 1000)
    cnt_col = "sum(_cnt)" if "sum(_cnt)" in tops.columns else "_cnt"
    hot_keys = set(tops.loc[tops[cnt_col] >= threshold, on].tolist())

    # -------- phase 2: hot path (broadcast build rows, no shuffle)
    def _arrow_types(ds: ray.data.Dataset) -> dict:
        sch = ds.schema()
        base = sch.base_schema
        if isinstance(base, pa.Schema):
            return {c: base.field(c).type for c in base.names}
        # pandas-block schema: numpy dtypes
        return {
            c: pa.from_numpy_dtype(t)
            for c, t in zip(base.names, base.types)
        }

    big_types = _arrow_types(big)
    small_types = _arrow_types(small)
    big_cols = list(big_types)
    small_cols = list(small_types)
    all_types = big_types | small_types
    all_cols = big_cols + [c for c in small_cols if c not in big_cols]

    if hot_keys:
        hot_arr = pa.array(list(hot_keys), type=all_types[on])
        hot_small = (
            small.map_batches(
                lambda b: b.filter(pc.is_in(b[on], value_set=hot_arr)),
                batch_format="pyarrow",
            ).to_pandas()
        )  # bounded: build rows of the few hot keys
    else:
        hot_arr = None
        hot_small = pd.DataFrame(
            {c: pd.Series(dtype="object") for c in small_cols}
        )
    hot_ref = ray.put(hot_small)

    def probe_hot(batch: pa.Table) -> pd.DataFrame:
        if hot_arr is None:
            mask = pa.array(np.zeros(batch.num_rows, dtype=bool))
        else:
            mask = pc.is_in(batch[on], value_set=hot_arr)
        sub = batch.filter(mask).to_pandas()
        return sub.merge(ray.get(hot_ref), on=on, how="inner")

    hot_join = big.map_batches(probe_hot, batch_format="pyarrow")

    # -------- phase 3: cold path (bucket cogroup)
    def drop_hot(batch: pa.Table) -> pa.Table:
        if hot_arr is None:
            return batch
        return batch.filter(pc.invert(pc.is_in(batch[on], value_set=hot_arr)))

    def merge(big_rows: pa.Table, small_rows: pa.Table) -> pd.DataFrame:
        return big_rows.to_pandas().merge(small_rows.to_pandas(), on=on, how="inner")

    big_schema = pa.schema([(c, all_types[c]) for c in big_cols])
    small_schema = pa.schema([(c, all_types[c]) for c in small_cols])
    cold_join = cogroup(
        {
            "big_rows": (big.map_batches(drop_hot, batch_format="pyarrow"), on, big_schema),
            "small_rows": (small.map_batches(drop_hot, batch_format="pyarrow"), on, small_schema),
        },
        merge,
        pa.schema(list(big_schema) + [f for f in small_schema if f.name != on]),
        n_buckets=n_buckets,
        coalesce=True,
    )

    return hot_join.union(cold_join)


def range_join(
    ds: ray.data.Dataset,
    ranges: pd.DataFrame,
    value_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    key_col: str = "range_key",
    how: str = "inner",
) -> ray.data.Dataset:
    """Interval-lookup join: each row matches the range with
    ``lo <= value < hi`` (IP-geolocation / time-window / price-band
    shape). The range table must be NON-OVERLAPPING; it is sorted by
    ``lo`` once on the driver, broadcast with ``ray.put``, and probed
    per batch with one vectorized ``searchsorted`` — the big side
    never shuffles and the probe is O(log n_ranges) per row.
    ``how='left'`` keeps non-matching rows with a null key; 'inner'
    drops them. Overlapping ranges need an interval tree instead —
    assert-guarded here rather than silently wrong.

    Ray Data has no native range join; the composition is the
    documented custom-operator path (broadcast small side + map_batches
    probe). The range table arrives as a driver-side frame, so it is
    always small enough to broadcast."""
    r = ranges.sort_values(lo_col).reset_index(drop=True)
    lo = r[lo_col].to_numpy()
    hi = r[hi_col].to_numpy()
    if len(r) > 1 and not (hi[:-1] <= lo[1:]).all():
        raise ValueError("ranges overlap; range_join needs disjoint ranges")
    ref = ray.put((lo, hi, r[key_col].to_numpy()))

    def probe(batch: pa.Table) -> pa.Table:
        l, h, k = ray.get(ref)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(l, v, side="right") - 1
        safe = np.clip(idx, 0, None)
        ok = (idx >= 0) & (v < h[safe]) & (v >= l[safe])
        keys = np.where(ok, k[safe], None)
        out = batch.append_column(key_col, pa.array(keys.tolist()))
        if how == "inner":
            out = out.filter(pa.array(ok))
        return out

    return ds.map_batches(probe, batch_format="pyarrow")


def distinct_users_per_type(
    events: ray.data.Dataset, n_buckets: int = 256
) -> ray.data.Dataset:
    """count(distinct user_id) per event_type.

    Shape: per-batch dedupe of (type, user) pairs, ONE hash exchange
    keyed by a coarse user bucket (all copies of a pair co-locate), a
    vectorized drop_duplicates + per-type count inside each bucket,
    then a tiny per-type sum. Avoids a groupby keyed on the raw pair —
    millions of groups put the heavy lifting in the aggregate machinery
    instead of one pandas pass. The sketch alternative when even the
    distinct pair set is too wide is ``sketches.hll_distinct_per_key``.
    """
    def local_distinct(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"event_type": batch["event_type"], "user_id": batch["user_id"]}
        ).to_pandas()
        df = df.drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def count_in_bucket(pairs: pa.Table) -> pd.DataFrame:
        g = pairs.to_pandas().drop_duplicates(subset=["event_type", "user_id"])
        return g.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "size")
        )

    partial = cogroup(
        {
            "pairs": (
                events.select_columns(["event_type", "user_id"]).map_batches(
                    local_distinct, batch_format="pyarrow"
                ),
                "user_id",
            )
        },
        count_in_bucket,
        lambda pairs: pa.schema([pairs.field("event_type"), ("n_users", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return partial.groupby("event_type").aggregate(
        Sum("n_users", alias_name="n_users")
    )


def brand_revenue_topk(
    lineitem: ray.data.Dataset,
    part_small: pd.DataFrame,
    k: int = 5,
    cents: bool = False,
) -> ray.data.Dataset:
    """Revenue per part brand, top-k (inner-join semantics: lineitems
    whose partkey is absent from the dimension are dropped).

    The partkey->brand dimension rides as two broadcast numpy arrays
    (zero-copy per task) and the join folds INTO the per-batch partial
    aggregation: each batch emits one row per brand, so the shuffle
    carries the brand cardinality (~dozens), never lineitems. With
    ``cents=True`` revenue is per-row floor(x*100 + 0.5) integer
    centi-units (the driver-oracle convention) in a ``revenue_c``
    column.
    """
    rev_col = "revenue_c" if cents else "revenue"
    dim = part_small.sort_values("p_partkey")
    keys_ref = ray.put(dim["p_partkey"].to_numpy())
    brands_ref = ray.put(dim["p_brand"].to_numpy())

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = ray.get(keys_ref)
        brands = ray.get(brands_ref)
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        ).to_numpy()
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, pk)
        idx[idx >= len(keys)] = 0
        hit = keys[idx] == pk  # membership guard: unknown keys drop out
        if cents:
            rev = np.floor(rev * 100 + 0.5).astype("int64")
        df = pd.DataFrame({"p_brand": brands[idx][hit], rev_col: rev[hit]})
        g = df.groupby("p_brand", as_index=False).agg(**{rev_col: (rev_col, "sum")})
        return pa.Table.from_pandas(g, preserve_index=False)

    per_brand = (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Sum(rev_col, alias_name=rev_col))
    )
    return per_brand.sort([rev_col, "p_brand"], descending=[True, False]).limit(k)


def sessionize_users(
    events: ray.data.Dataset,
    gap_s: int = 1800,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Gap-based sessionization: per user, a new session starts when the
    gap to the previous event exceeds ``gap_s``.

    Output per user_id: ``n_sessions``, ``n_events``. The shuffle key is
    a coarse user-id bucket (narrow rows, bounded
    group count); all rows of one user land in one bucket, and the
    session fold inside a bucket is a vectorized pandas sort + diff —
    no per-user task overhead. Equal-timestamp ties cannot split a
    session (gap 0 <= gap_s), so the count is order-stable.
    """
    gap_us = gap_s * 1_000_000
    def project(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"]
        # normalize whatever timestamp unit the source used to us
        ts_us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        return pa.table({"user_id": uid, "ts_us": ts_us})

    def sessions(rows: pa.Table) -> pd.DataFrame:
        g = rows.to_pandas().sort_values(["user_id", "ts_us"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts_us"].diff()
        start = (new_user | (gap > gap_us)).astype("int64")
        return (
            g.assign(is_start=start)
            .groupby("user_id", as_index=False)
            .agg(n_sessions=("is_start", "sum"), n_events=("is_start", "size"))
        )

    return cogroup(
        {
            "rows": (
                events.select_columns(["user_id", "ts"]).map_batches(
                    project, batch_format="pyarrow"
                ),
                "user_id",
            )
        },
        sessions,
        lambda rows: pa.schema(
            [rows.field("user_id"), ("n_sessions", pa.int64()), ("n_events", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def sessionize_events(
    events: ray.data.Dataset,
    gap_s: int = 1800,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-EVENT session assignment (the row-level form of
    ``sessionize_users``): every event gets its user's running session
    index (1-based). Same coarse-bucket shuffle; the cumulative-sum fold
    inside a bucket is the Ray analogue of
    ``sum(is_start) OVER (PARTITION BY user ORDER BY ts, event_id)``.
    ``event_id`` breaks timestamp ties so the fold is deterministic.
    Output: (event_id, user_id, session_idx).
    """
    gap_us = gap_s * 1_000_000
    def project(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"]
        ts_us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": uid,
                "ts_us": ts_us,
            }
        )

    def assign(rows: pa.Table) -> pd.DataFrame:
        g = rows.to_pandas().sort_values(["user_id", "ts_us", "event_id"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts_us"].diff()
        start = (new_user | (gap > gap_us)).astype("int64")
        g = g.assign(session_idx=start.groupby(g["user_id"]).cumsum())
        return g[["event_id", "user_id", "session_idx"]]

    return cogroup(
        {
            "rows": (
                events.select_columns(["event_id", "user_id", "ts"]).map_batches(
                    project, batch_format="pyarrow"
                ),
                "user_id",
            )
        },
        assign,
        lambda rows: pa.schema(
            [rows.field("event_id"), rows.field("user_id"), ("session_idx", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def _latest_orders(orders: pd.DataFrame) -> pd.DataFrame:
    """The as-of join's order side: one row per (custkey, orderdate)
    keeping max(o_totalprice), so the match is well-defined on ties,
    sorted by date as ``merge_asof`` requires."""
    right = (
        orders.groupby(["o_custkey", "o_orderdate"], as_index=False)
        .agg(o_totalprice=("o_totalprice", "max"))
        .sort_values("o_orderdate")
        .reset_index(drop=True)
    )
    # merge_asof requires IDENTICAL time dtypes on both keys; sources
    # differ (parquet yields us, pd.to_datetime yields ns) — pin both
    right["o_orderdate"] = right["o_orderdate"].astype("datetime64[us]")
    return right


def _asof_partial(events: pd.DataFrame, latest: pd.DataFrame) -> pd.DataFrame:
    """Per-event_type partial of the as-of join: each event matches
    its user's latest order at or before ``ts`` (one vectorized
    backward ``merge_asof``)."""
    b = events[["event_type", "user_id", "ts"]].sort_values("ts")
    b["ts"] = b["ts"].astype("datetime64[us]")
    m = pd.merge_asof(
        b,
        latest,
        left_on="ts",
        right_on="o_orderdate",
        left_by="user_id",
        right_by="o_custkey",
        direction="backward",
    )
    matched = m["o_totalprice"].notna()
    price_c = np.floor(m["o_totalprice"].fillna(0.0) * 100 + 0.5).astype("int64")
    part = pd.DataFrame(
        {
            "event_type": m["event_type"],
            "matched": matched.astype("int64"),
            "price_c": price_c.where(matched, 0),
        }
    )
    return part.groupby("event_type", as_index=False).agg(
        n_events=("matched", "size"),
        n_matched=("matched", "sum"),
        sum_price_c=("price_c", "sum"),
    )


def latest_order_asof(
    events: ray.data.Dataset, orders: ray.data.Dataset
) -> ray.data.Dataset:
    """As-of join: for each event, the customer's latest order with
    ``o_orderdate <= ts``; rolled up per event_type.

    Output per event_type: ``n_events``, ``n_matched``,
    ``sum_price_c`` (matched o_totalprice in integer centi-units).

    The order side's three columns are materialized once and the route
    follows their size (:func:`exchange.fits_broadcast`). A small side
    is deduped on the driver and broadcast once; each event batch runs
    the as-of kernel against it and the event side never shuffles. A
    larger side co-locates both sides on a customer bucket in one
    exchange and runs the same kernel per bucket. Either way each
    batch or bucket emits a per-type partial, so the final groupby
    carries a handful of rows per task.
    """
    orders = orders.select_columns(
        ["o_custkey", "o_orderdate", "o_totalprice"]
    ).materialize()
    if fits_broadcast(orders):
        latest_ref = ray.put(_latest_orders(orders.to_pandas()))
        partials = events.map_batches(
            lambda batch: _asof_partial(batch, ray.get(latest_ref)),
            batch_format="pandas",
        )
    else:
        ts_us = pa.timestamp("us")
        partials = cogroup(
            {
                "evs": (
                    events,
                    "user_id",
                    pa.schema(
                        [("event_type", pa.string()), ("user_id", pa.int64()),
                         ("ts", ts_us)]
                    ),
                ),
                "ords": (
                    orders,
                    "o_custkey",
                    pa.schema(
                        [("o_custkey", pa.int64()), ("o_orderdate", ts_us),
                         ("o_totalprice", pa.float64())]
                    ),
                ),
            },
            lambda evs, ords: _asof_partial(
                evs.to_pandas(), _latest_orders(ords.to_pandas())
            ),
            pa.schema(
                [("event_type", pa.string()), ("n_events", pa.int64()),
                 ("n_matched", pa.int64()), ("sum_price_c", pa.int64())]
            ),
            n_buckets=64,
            coalesce=False,
        )
    return partials.groupby("event_type").aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("n_matched", alias_name="n_matched"),
        Sum("sum_price_c", alias_name="sum_price_c"),
    )


def topk_per_group(
    counted: ray.data.Dataset,
    group_col: str,
    order_col: str,
    tiebreak_col: str,
    k: int = 3,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Group-wise top-k (windowed rank) over a pre-aggregated dataset.

    Rows are shuffled by a coarse hash bucket of ``group_col`` (all rows
    of one group co-locate; bounded group count keeps per-group task
    overhead off the critical path) and ranked inside each bucket with a
    vectorized pandas sort + cumcount — the Ray analogue of
    ``row_number() OVER (PARTITION BY g ORDER BY v DESC)``. Order:
    ``order_col`` descending, ``tiebreak_col`` ascending.
    """

    def rank(rows: pa.Table) -> pd.DataFrame:
        g = rows.to_pandas().sort_values(
            [group_col, order_col, tiebreak_col],
            ascending=[True, False, True],
        )
        g["rank"] = g.groupby(group_col).cumcount() + 1
        return g[g["rank"] <= k]

    return cogroup(
        {"rows": (counted, group_col)},
        rank,
        lambda rows: rows.append(pa.field("rank", pa.int64())),
        n_buckets=n_buckets,
        coalesce=True,
    )


def order_priority_revenue(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Big-big join: revenue per order priority. Neither side
    broadcasts at 100 TB.

    A bucket-cogroup join: both sides are tagged and unioned, ONE
    exchange co-locates each orderkey bucket, and a vectorized pandas
    merge inside the bucket joins and collapses straight to the
    per-priority partials. Measured 8x faster than Ray's native
    ``Dataset.join`` hash join at 10M lineitems x 2.5M orders (12 s vs
    100 s), because the fact side is pre-aggregated per batch before
    the exchange and the join output never materializes beyond each
    bucket.
    """

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(disc, pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64(),
        )
        df = pa.table(
            {"l_orderkey": batch["l_orderkey"], "rev_c": cents}
        ).to_pandas()
        g = df.groupby("l_orderkey", as_index=False).agg(rev_c=("rev_c", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    def join_in_bucket(li: pa.Table, od: pa.Table) -> pd.DataFrame:
        l = li.to_pandas().groupby(
            "l_orderkey", as_index=False
        ).agg(rev_c=("rev_c", "sum"))
        rt = od.to_pandas().rename(columns={"o_orderkey": "l_orderkey"})
        m = l.merge(rt, on="l_orderkey", how="inner")
        return m.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("l_orderkey", "size"), revenue_c=("rev_c", "sum")
        )

    per_bucket = cogroup(
        {
            "li": (
                lineitem.map_batches(partial, batch_format="pyarrow"),
                "l_orderkey",
                pa.schema([("l_orderkey", pa.int64()), ("rev_c", pa.int64())]),
            ),
            "od": (
                orders.select_columns(["o_orderkey", "o_orderpriority"]),
                "o_orderkey",
                pa.schema([("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]),
            ),
        },
        join_in_bucket,
        pa.schema(
            [("o_orderpriority", pa.string()), ("n_orders", pa.int64()),
             ("revenue_c", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return per_bucket.groupby("o_orderpriority").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("revenue_c", alias_name="revenue_c"),
    )


def events_hopping_window(
    events: ray.data.Dataset,
    size_s: int = 3600,
    hop_s: int = 1800,
) -> ray.data.Dataset:
    """Hopping (sliding) event-time window per event_type: each event
    belongs to ``size_s / hop_s`` overlapping windows, assigned by an
    in-batch expansion (the flat_map never leaves the task), then
    pre-aggregated per batch so the shuffle carries one row per
    (type, window) per batch — the same partial-agg discipline as the
    tumbling window, just with a replication factor.
    """
    if size_s % hop_s:
        raise ValueError("size_s must be a multiple of hop_s")
    n_hops = size_s // hop_s

    def expand(batch: pa.Table) -> pa.Table:
        import numpy as np

        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        # numpy // floors toward -inf (Arrow divide truncates toward 0,
        # which mis-windows pre-epoch timestamps vs the SQL floor())
        secs = us.to_numpy(zero_copy_only=False) // 1_000_000
        base = (secs // hop_s) * hop_s
        etype = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        value = batch["value"].to_numpy(zero_copy_only=False)
        frames = []
        for i in range(n_hops):
            start = base - i * hop_s
            frames.append(
                pd.DataFrame(
                    {"event_type": etype, "window_start": start, "value": value}
                )
            )
        df = pd.concat(frames, ignore_index=True)
        cents = np.floor(df["value"] * 100 + 0.5).astype("int64")
        g = (
            df.assign(value_c=cents)
            .groupby(["event_type", "window_start"], as_index=False)
            .agg(n_events=("value_c", "size"), sum_value_c=("value_c", "sum"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        coalesce_for_exchange(events.map_batches(expand, batch_format="pyarrow"))
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_c", alias_name="sum_value_c"),
        )
    )


def exact_quantiles(
    events: ray.data.Dataset,
    value_col: str = "value",
    group_col: str = "event_type",
    qs: tuple = (0.5, 0.9),
) -> ray.data.Dataset:
    """Exact distributed quantiles per group via value histograms.

    The wide step is a histogram build — per-batch counts per
    (group, centi-value) collapse before the shuffle, so the exchange
    carries the value cardinality, not the row count. Quantiles then
    come from cumulative counts per group (discrete definition: the
    value at sorted index ``ceil(q*n) - 1``, matching DuckDB's
    ``quantile_disc``). Exact whenever value cardinality is bounded
    (prices, scores, counts); for unbounded reals swap the histogram
    for a mergeable sketch (t-digest/KLL) at the same pipeline shape.
    """

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        cents = np.floor(
            batch[value_col].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype("int64")
        df = pd.DataFrame(
            {group_col: batch[group_col].to_pylist(), "value_c": cents}
        )
        g = df.groupby([group_col, "value_c"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n"}), preserve_index=False
        )

    # ONE shuffle keyed on the group column (handful of groups); the
    # per-batch histograms merge inside the group pass with a vectorized
    # pandas groupby-sum. Keying the exchange on (group, value) instead
    # put tens of thousands of groups into the aggregate machinery —
    # measured 3x slower at 10M rows for zero benefit.
    hist = events.map_batches(partial, batch_format="pyarrow")

    def quantiles(group: pd.DataFrame) -> pd.DataFrame:
        from fractions import Fraction

        merged = (
            group.groupby("value_c")["n"].sum().sort_index()
        )
        cum = merged.cumsum()
        total = int(cum.iloc[-1])
        out = {group_col: [group[group_col].iloc[0]]}
        for q in qs:
            # exact-rational ceil: float math.ceil(q*total) overshoots
            # when q*total lands epsilon above an integer (e.g.
            # 0.07*100 == 7.000000000000001 -> 8, wrong rank)
            frac = Fraction(q).limit_denominator(1_000_000)
            target = -((-frac.numerator * total) // frac.denominator)
            val = int(cum.index[(cum >= target).argmax()])
            out[f"p{round(q * 100)}_c"] = [val]
        return pd.DataFrame(out)

    return (
        coalesce_for_exchange(hist)
        .groupby(group_col)
        .map_groups(quantiles, batch_format="pandas")
    )


def peak_moving_window(
    events: ray.data.Dataset,
    window_rows: int = 4,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Row-frame moving-window aggregate: per user, the peak sum of
    ``value`` over a sliding window of the last ``window_rows`` events
    (SQL ``SUM(value_c) OVER (PARTITION BY user ORDER BY ts, event_id
    ROWS BETWEEN window_rows-1 PRECEDING AND CURRENT ROW)``, partial
    windows at the start included, then ``max`` per user).

    The reference engine has no window frames; this is the burst-load
    signal (peak short-horizon spend) a crawl scheduler throttles on.
    Shuffle shape matches ``sessionize_users``: one coarse user-bucket
    exchange of narrow rows; inside a bucket the frame fold is a single
    vectorized cumulative-sum diff with the window start clamped to the
    user's first row — no per-user task, no Python loop. Values are
    folded to exact integer centi-units before any sum so the result is
    bit-identical to the SQL oracle.

    Output per user_id: ``peak_window_c`` (int64), ``n_events``.
    """
    w = int(window_rows)

    def project(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"]
        ts_us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        value_c = pc.cast(
            pc.floor(
                pc.add(pc.multiply(batch["value"], pa.scalar(100.0)),
                       pa.scalar(0.5))
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "user_id": uid,
                "ts_us": ts_us,
                "event_id": batch["event_id"],
                "value_c": value_c,
            }
        )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts_us", "event_id"])
        v = g["value_c"].to_numpy(np.int64)
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(v)])
        # position of each row within its user run (sorted -> runs)
        pos = g.groupby("user_id").cumcount().to_numpy(np.int64)
        i = np.arange(len(v), dtype=np.int64)
        start = i - np.minimum(pos, w - 1)  # clamp to user's first row
        win = cs[i + 1] - cs[start]
        return (
            g.assign(win_c=win)
            .groupby("user_id", as_index=False)
            .agg(peak_window_c=("win_c", "max"), n_events=("win_c", "size"))
        )

    return cogroup(
        {
            "rows": (
                events.select_columns(["user_id", "ts", "event_id", "value"])
                .map_batches(project, batch_format="pyarrow"),
                "user_id",
            )
        },
        lambda rows: fold(rows.to_pandas()),
        lambda rows: pa.schema(
            [rows.field("user_id"), ("peak_window_c", pa.int64()), ("n_events", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def mad_outliers(
    ds: ray.data.Dataset,
    value_col: str,
    group_col: str,
    k: int = 3,
) -> ray.data.Dataset:
    """Robust per-group outlier detection: flag rows whose deviation
    from the group median exceeds ``k`` times the group's median
    absolute deviation (MAD). The classic length-outlier gate of a
    curation pipeline (truncated pages, concatenation blowups).

    Exactness without a second data pass: the single wide step builds a
    per-(group, value) count histogram (the exchange carries value
    cardinality, not rows — same shape as ``exact_quantiles``); median,
    MAD, and the outlier count are then all derived from that histogram
    inside one ``map_groups``, because the absolute deviation of a
    histogram bin depends only on (value, group median). Medians of
    even-sized groups are half-integers, so everything is carried
    doubled: ``med2`` = 2*median, ``mad4`` = 4*MAD, and the outlier
    test |v - med| > k*MAD becomes the integer comparison
    ``2*dev2 > k*mad4`` with ``dev2 = |2v - med2|``.

    Output per group: ``n_rows``, ``med2``, ``mad4``, ``n_outliers``
    (all int64, bit-exact against a SQL median()/abs() oracle).
    """

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                group_col: batch[group_col].to_pylist(),
                "v": batch[value_col].to_numpy(zero_copy_only=False).astype(
                    np.int64
                ),
            }
        )
        g = df.groupby([group_col, "v"], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n"}), preserve_index=False
        )

    hist = ds.map_batches(partial, batch_format="pyarrow")

    def doubled_weighted_median(
        vals: np.ndarray, cum: np.ndarray, n: int
    ) -> int:
        # lo = value at rank ceil(n/2), hi = value at rank floor(n/2)+1
        lo = vals[np.searchsorted(cum, (n + 1) // 2)]
        hi = vals[np.searchsorted(cum, n // 2 + 1)]
        return int(lo) + int(hi)

    def stats(group: pd.DataFrame) -> pd.DataFrame:
        merged = group.groupby("v")["n"].sum().sort_index()
        vals = merged.index.to_numpy(np.int64)
        cnt = merged.to_numpy(np.int64)
        n = int(cnt.sum())
        med2 = doubled_weighted_median(vals, np.cumsum(cnt), n)
        dev2 = np.abs(2 * vals - med2)
        order = np.argsort(dev2, kind="stable")
        dv, dc = dev2[order], cnt[order]
        uniq, idx = np.unique(dv, return_index=True)
        dcc = np.add.reduceat(dc, idx)
        mad4 = doubled_weighted_median(uniq, np.cumsum(dcc), n)
        n_out = int(cnt[2 * dev2 > k * mad4].sum())
        return pd.DataFrame(
            {
                group_col: [group[group_col].iloc[0]],
                "n_rows": [n],
                "med2": [med2],
                "mad4": [mad4],
                "n_outliers": [n_out],
            }
        )

    return (
        coalesce_for_exchange(hist)
        .groupby(group_col)
        .map_groups(stats, batch_format="pandas")
    )


def hourly_spikes(
    events: ray.data.Dataset,
    factor: int = 3,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Burst detection: per user, hours whose event count exceeds
    ``factor`` times the user's mean count over their ACTIVE hours —
    the bot-burst / scrape-storm signal of an access-log curation run.

    Two-level pre-aggregation, integer-exact throughout: per-batch
    (user, hour) count partials collapse before the single coarse
    user-bucket exchange, and the spike test ``count * n_active_hours >
    factor * n_events`` is pure int64 (no float mean). The exchange
    carries one row per (user, hour) per batch, never per event.

    Output per user: ``n_active_hours``, ``n_spike_hours``,
    ``peak_hour_events``.
    """
    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(
            pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        hour = (ts_us // 1_000_000) // 3600
        df = pd.DataFrame({"user_id": uid, "hour": hour})
        g = df.groupby(["user_id", "hour"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        hours = group.groupby(["user_id", "hour"], as_index=False)["n"].sum()
        per_user = hours.groupby("user_id")
        tot = per_user["n"].transform("sum")
        nh = per_user["hour"].transform("size")
        spike = (hours["n"] * nh) > (factor * tot)
        return (
            hours.assign(spike=spike.astype(np.int64))
            .groupby("user_id", as_index=False)
            .agg(
                n_active_hours=("hour", "size"),
                n_spike_hours=("spike", "sum"),
                peak_hour_events=("n", "max"),
            )
        )

    return cogroup(
        {
            "rows": (
                events.select_columns(["user_id", "ts"])
                .map_batches(partial, batch_format="pyarrow"),
                "user_id",
            )
        },
        lambda rows: fold(rows.to_pandas()),
        lambda rows: pa.schema(
            [rows.field("user_id"), ("n_active_hours", pa.int64()),
             ("n_spike_hours", pa.int64()), ("peak_hour_events", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def nation_revenue(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    customer: ray.data.Dataset,
    supplier: ray.data.Dataset,
    nation: pd.DataFrame,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q5 shape: revenue per nation from lineitems whose supplier
    and ordering customer share a nation ("local supplier volume").

    Three consecutive big-big hash joins, each a single coarse-bucket
    cogroup exchange keyed on the join column — NO side is broadcast,
    because at corpus scale lineitem, orders, customer and supplier all
    grow with the data (only ``nation``, a fixed 25-row table, rides the
    closure). Revenue folds to exact integer cents per lineitem row
    BEFORE any aggregation (floor(ep*(1-disc)*100 + 0.5), the repo money
    contract), and each bucket task pre-aggregates on its output key so
    exchange N+1 carries partial sums, not rows:

      1. lineitem x orders   on orderkey -> (custkey, suppkey, rev_c)
         pre-summed per (custkey, suppkey) in the bucket
      2. stage1   x customer on custkey  -> (suppkey, c_nation, rev_c)
         pre-summed per (suppkey, c_nation)
      3. stage2   x supplier on suppkey  -> filter c_nation == s_nation
         -> partial per nationkey
      4. tiny groupby(nationkey).sum + pandas merge with `nation`

    Output: (n_name, revenue_c), one row per nation with local volume.
    """

    def tag_lineitem(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        rev_c = np.floor(ep * (1.0 - disc) * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame(
            {
                "key": keys,
                "a": batch["l_suppkey"].to_numpy(zero_copy_only=False),
                "rev_c": rev_c,
            }
        )
        g = df.groupby(["key", "a"], as_index=False)["rev_c"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    i64 = pa.int64()
    dim_schema = pa.schema([("key", i64), ("a", i64)])
    fact_schema = pa.schema([("key", i64), ("a", i64), ("b", i64), ("rev_c", i64)])

    def dim(ds: ray.data.Dataset, key: str, val: str) -> tuple:
        tagged = ds.map_batches(
            lambda b: pa.table({"key": b[key], "a": b[val]}), batch_format="pyarrow"
        )
        return (tagged, "key", dim_schema)

    def join(facts: tuple, dims: tuple, fold, out_schema) -> ray.data.Dataset:
        return cogroup(
            {"facts": facts, "dims": dims},
            lambda facts, dims: fold(facts.to_pandas(), dims.to_pandas()),
            out_schema,
            n_buckets=n_buckets,
            coalesce=True,
        )

    # stage 1: lineitem x orders on orderkey. The next join is on
    # custkey, so the looked-up o_custkey becomes the new `key` and
    # l_suppkey rides along in `a` until stage 3 needs it.
    li = lineitem.map_batches(tag_lineitem, batch_format="pyarrow")

    def swap_cogroup(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        dims = dims[["key", "a"]].rename(columns={"a": "looked_up"})
        facts = facts[["key", "a", "rev_c"]]
        m = facts.merge(dims, on="key", how="inner")
        out = m.groupby(["looked_up", "a"], as_index=False)["rev_c"].sum()
        return pd.DataFrame(
            {
                "key": out["looked_up"].to_numpy(np.int64),  # custkey
                "a": out["a"].to_numpy(np.int64),  # suppkey
                "b": np.zeros(len(out), np.int64),
                "rev_c": out["rev_c"].to_numpy(np.int64),
            }
        )

    stage1 = join(
        (li, "key", pa.schema([("key", i64), ("a", i64), ("rev_c", i64)])),
        dim(orders, "o_orderkey", "o_custkey"),
        swap_cogroup,
        fact_schema,
    )

    # stage 2: x customer on custkey -> key=suppkey, b=c_nationkey
    def stage2_cogroup(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        dims = dims[["key", "a"]].rename(columns={"a": "c_nation"})
        facts = facts[["key", "a", "rev_c"]]
        m = facts.merge(dims, on="key", how="inner")
        out = m.groupby(["a", "c_nation"], as_index=False)["rev_c"].sum()
        return pd.DataFrame(
            {
                "key": out["a"].to_numpy(np.int64),  # suppkey
                "a": np.zeros(len(out), np.int64),
                "b": out["c_nation"].to_numpy(np.int64),
                "rev_c": out["rev_c"].to_numpy(np.int64),
            }
        )

    # stage1 carries key=custkey; cogroup with customer dim
    stage2 = join(
        (stage1, "key", fact_schema),
        dim(customer, "c_custkey", "c_nationkey"),
        stage2_cogroup,
        fact_schema,
    )

    # stage 3: x supplier on suppkey, keep c_nation == s_nation
    def stage3_cogroup(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        dims = dims[["key", "a"]].rename(columns={"a": "s_nation"})
        facts = facts[["key", "b", "rev_c"]]
        m = facts.merge(dims, on="key", how="inner")
        m = m[m["b"] == m["s_nation"]]
        out = m.groupby("s_nation", as_index=False)["rev_c"].sum()
        return pd.DataFrame(
            {
                "nationkey": out["s_nation"].to_numpy(np.int64),
                "rev_c": out["rev_c"].to_numpy(np.int64),
            }
        )

    stage3 = join(
        (stage2, "key", fact_schema),
        dim(supplier, "s_suppkey", "s_nationkey"),
        stage3_cogroup,
        pa.schema([("nationkey", i64), ("rev_c", i64)]),
    )

    agg = stage3.groupby("nationkey").aggregate(
        Sum("rev_c", alias_name="revenue_c")
    )

    names = nation[["n_nationkey", "n_name"]].copy()

    def attach(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().merge(
            names, left_on="nationkey", right_on="n_nationkey", how="inner"
        )
        return pa.Table.from_pandas(
            df[["n_name", "revenue_c"]], preserve_index=False
        )

    return agg.map_batches(attach, batch_format="pyarrow")


def returned_revenue_topk(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    k: int = 20,
    date_lo: str = "1996-01-01",
    date_hi: str = "1997-01-01",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """TPC-H Q10 shape: top-k customers by revenue from RETURNED items
    (l_returnflag = 'R') on orders placed inside [date_lo, date_hi).

    Big-big join without a broadcast side: lineitem pre-aggregates
    returned revenue (exact integer cents) per orderkey inside each
    batch, orders filters to the date window, one orderkey-bucket
    cogroup produces (custkey, rev_c) partials, and a second
    custkey-bucket exchange finalizes per-customer totals. Because
    bucket = custkey % n_buckets, the per-bucket sum IS the exact
    customer total, so each bucket emits only its local top-k and the
    final sort touches <= n_buckets * k rows.

    Output: (c_custkey, revenue_c), k rows, ties broken by custkey ASC.
    """
    lo = pd.Timestamp(date_lo).value // 1_000
    hi = pd.Timestamp(date_hi).value // 1_000  # us epoch bounds

    def li_partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "key": t["l_orderkey"].to_numpy(zero_copy_only=False),
                "rev_c": np.floor(ep * (1.0 - disc) * 100 + 0.5).astype(
                    np.int64
                ),
            }
        )
        g = df.groupby("key", as_index=False)["rev_c"].sum()
        return pa.table(
            {
                "key": pa.array(g["key"].to_numpy(np.int64)),
                "val": pa.array(g["rev_c"].to_numpy(np.int64)),
            }
        )

    def od_tag(batch: pa.Table) -> pa.Table:
        us = pc.cast(
            pc.cast(batch["o_orderdate"], pa.timestamp("us")), pa.int64()
        )
        mask = pc.and_(
            pc.greater_equal(us, pa.scalar(lo)), pc.less(us, pa.scalar(hi))
        )
        t = batch.filter(mask)
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(keys),
                "val": pa.array(
                    t["o_custkey"].to_numpy(zero_copy_only=False).astype(
                        np.int64
                    )
                ),
            }
        )

    def join_bucket(facts: pa.Table, dims: pa.Table) -> pd.DataFrame:
        dims = dims.to_pandas().rename(columns={"val": "custkey"})
        facts = facts.to_pandas()
        m = facts.merge(dims, on="key", how="inner")
        out = m.groupby("custkey", as_index=False)["val"].sum()
        return pd.DataFrame(
            {
                "custkey": out["custkey"].to_numpy(np.int64),
                "rev_c": out["val"].to_numpy(np.int64),
            }
        )

    def topk_bucket(rows: pa.Table) -> pd.DataFrame:
        per = rows.to_pandas().groupby("custkey", as_index=False)["rev_c"].sum()
        per = per.sort_values(
            ["rev_c", "custkey"], ascending=[False, True]
        ).head(k)
        return pd.DataFrame(
            {
                "c_custkey": per["custkey"].to_numpy(np.int64),
                "revenue_c": per["rev_c"].to_numpy(np.int64),
            }
        )

    pair = pa.schema([("key", pa.int64()), ("val", pa.int64())])
    partial_schema = pa.schema([("custkey", pa.int64()), ("rev_c", pa.int64())])
    partials = cogroup(
        {
            "facts": (lineitem.map_batches(li_partial, batch_format="pyarrow"), "key", pair),
            "dims": (orders.map_batches(od_tag, batch_format="pyarrow"), "key", pair),
        },
        join_bucket,
        partial_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )
    candidates = cogroup(
        {"rows": (partials, "custkey")},
        topk_bucket,
        pa.schema([("c_custkey", pa.int64()), ("revenue_c", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return candidates.sort(
        ["revenue_c", "c_custkey"], descending=[True, False]
    ).limit(k)


def promo_revenue_by_month(
    lineitem: ray.data.Dataset,
    part: ray.data.Dataset,
    promo_type: str = "ECONOMY",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """TPC-H Q14 shape: per ship month, revenue from parts of the promo
    type vs total revenue — the promotion-effect time series.

    part grows with the corpus, so this is a big-big partkey join, not
    a broadcast: lineitem pre-aggregates exact integer-cent revenue per
    (partkey, ym) inside each batch, part ships one (partkey, is_promo)
    bit per row, one partkey-bucket cogroup folds to per-(ym, is_promo)
    partials, and the final groupby touches one row per month per
    bucket. Months are int64 ym = year*100 + month of l_shipdate.

    Output: (ym, promo_revenue_c, total_revenue_c).
    """

    def li_partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch["l_shipdate"], pa.timestamp("us"))
        ym = pc.add(
            pc.multiply(pc.cast(pc.year(ship), pa.int64()), 100),
            pc.cast(pc.month(ship), pa.int64()),
        )
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "key": batch["l_partkey"].to_numpy(zero_copy_only=False),
                "ym": ym.to_numpy(zero_copy_only=False),
                "rev_c": np.floor(ep * (1.0 - disc) * 100 + 0.5).astype(
                    np.int64
                ),
            }
        )
        g = df.groupby(["key", "ym"], as_index=False)["rev_c"].sum()
        return pa.table(
            {
                "key": pa.array(g["key"].to_numpy(np.int64)),
                "ym": pa.array(g["ym"].to_numpy(np.int64)),
                "rev_c": pa.array(g["rev_c"].to_numpy(np.int64)),
            }
        )

    def part_tag(batch: pa.Table) -> pa.Table:
        keys = batch["p_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        promo = pc.equal(batch["p_type"], promo_type)
        return pa.table(
            {"key": pa.array(keys), "is_promo": pc.cast(promo, pa.int64())}
        )

    def fold_bucket(facts: pa.Table, dims: pa.Table) -> pd.DataFrame:
        dims = dims.to_pandas()
        facts = facts.to_pandas()
        m = facts.merge(dims, on="key", how="inner")
        m["promo_c"] = m["rev_c"] * m["is_promo"]
        out = m.groupby("ym", as_index=False).agg(
            promo_revenue_c=("promo_c", "sum"),
            total_revenue_c=("rev_c", "sum"),
        )
        return out

    i64 = pa.int64()
    partials = cogroup(
        {
            "facts": (
                lineitem.map_batches(li_partial, batch_format="pyarrow"),
                "key",
                pa.schema([("key", i64), ("ym", i64), ("rev_c", i64)]),
            ),
            "dims": (
                part.map_batches(part_tag, batch_format="pyarrow"),
                "key",
                pa.schema([("key", i64), ("is_promo", i64)]),
            ),
        },
        fold_bucket,
        pa.schema([("ym", i64), ("promo_revenue_c", i64), ("total_revenue_c", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return partials.groupby("ym").aggregate(
        Sum("promo_revenue_c", alias_name="promo_revenue_c"),
        Sum("total_revenue_c", alias_name="total_revenue_c"),
    )


def cooccurrence_pairs(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    item_col: str = "event_type",
    n_buckets: int = 256,
    max_items_per_user: int = 200,
) -> ray.data.Dataset:
    """Pairwise co-occurrence mining (the 2-itemset of market-basket
    analysis): for every unordered item pair (t1 < t2), the number of
    users whose history contains both.

    Distributed shape: per-batch DISTINCT (user, item) partials (the
    exchange carries each user's item set, never the event stream), a
    coarse user-bucket exchange co-locates each user's items, pairs
    emit and PRE-AGGREGATE inside the bucket (one row per pair per
    bucket), and a final small groupby sums partials.

    ``max_items_per_user`` caps the per-user pair explosion: a user's
    item set is truncated DETERMINISTICALLY to its
    ``max_items_per_user`` smallest items (sorted order) before
    pairing, so one bot/crawler user with 10^4 distinct items emits at
    most cap*(cap-1)/2 pairs instead of 5*10^7 in a single bucket
    task. The truncation happens after the user-bucket exchange
    co-locates the user's FULL distinct item set, so the kept subset
    is a pure function of the data (same pattern as SimHash's
    per-band document cap). The SQL oracle mirrors the cap with a
    per-user row_number filter.
    """
    import itertools

    def distinct_partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {user_col: batch[user_col], item_col: batch[item_col]}
        ).to_pandas()
        g = df.drop_duplicates([user_col, item_col])
        return pa.Table.from_pandas(g, preserve_index=False)

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates([user_col, item_col])
        rows: dict[tuple, int] = {}
        for _, items in g.groupby(user_col)[item_col]:
            s = sorted(set(items))
            if len(s) > max_items_per_user:
                s = s[:max_items_per_user]
            for t1, t2 in itertools.combinations(s, 2):
                rows[(t1, t2)] = rows.get((t1, t2), 0) + 1
        if not rows:
            return pd.DataFrame({"t1": [], "t2": [], "n_users": []})
        keys = list(rows.keys())
        return pd.DataFrame(
            {
                "t1": [k[0] for k in keys],
                "t2": [k[1] for k in keys],
                "n_users": pd.Series(
                    [rows[k] for k in keys], dtype="int64"
                ),
            }
        )

    def pair_schema(rows: pa.Schema) -> pa.Schema:
        t = rows.field(item_col).type
        return pa.schema([("t1", t), ("t2", t), ("n_users", pa.int64())])

    return (
        cogroup(
            {
                "rows": (
                    events.map_batches(distinct_partial, batch_format="pyarrow"),
                    user_col,
                )
            },
            lambda rows: bucket_pairs(rows.to_pandas()),
            pair_schema,
            n_buckets=n_buckets,
            coalesce=True,
        )
        .groupby(["t1", "t2"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def retention_cohorts(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Weekly retention: per Monday-aligned week index, how many users
    were active, and how many of them were also active the NEXT week.

    Week index is pure integer arithmetic on epoch microseconds
    ((days - 4) // 7, Monday-aligned), replayed exactly by the SQL
    oracle. Distributed shape: per-batch DISTINCT (user, week)
    partials, a coarse user-bucket exchange co-locates each user's
    week set, the in-bucket kernel counts per-week activity and
    week -> week+1 transitions vectorized, and a small final groupby
    sums partials (weeks are few; users are not).
    """
    import numpy as np

    def week_partial(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        # normalize the unit first — inputs arrive as timestamp[s/ms/us]
        # depending on the source, and a raw int64 cast would read the
        # stored unit verbatim
        us = (
            ts.cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        week = (us // 86_400_000_000 - 4) // 7
        df = pd.DataFrame(
            {
                user_col: batch[user_col].to_numpy(zero_copy_only=False),
                "week": week,
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def bucket_cohorts(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates([user_col, "week"]).sort_values(
            [user_col, "week"]
        )
        active = g.groupby("week").size()
        nxt = g["week"].shift(-1)
        same_user = g[user_col].eq(g[user_col].shift(-1))
        retained_rows = g[same_user & (nxt == g["week"] + 1)]
        retained = retained_rows.groupby("week").size()
        out = pd.DataFrame(
            {
                "week": active.index.astype("int64"),
                "n_active": active.to_numpy().astype("int64"),
                "n_retained": retained.reindex(active.index, fill_value=0)
                .to_numpy()
                .astype("int64"),
            }
        )
        return out

    return (
        cogroup(
            {"rows": (events.map_batches(week_partial, batch_format="pyarrow"), user_col)},
            lambda rows: bucket_cohorts(rows.to_pandas()),
            pa.schema(
                [("week", pa.int64()), ("n_active", pa.int64()), ("n_retained", pa.int64())]
            ),
            n_buckets=n_buckets,
            coalesce=True,
        )
        .groupby("week")
        .aggregate(
            Sum("n_active", alias_name="n_active"),
            Sum("n_retained", alias_name="n_retained"),
        )
    )


def transition_counts(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Markov transition counts: for each ordered pair (from_type,
    to_type), how many consecutive event pairs in a user's
    (ts, id)-ordered stream make that transition. The behavioral-model
    counterpart of sessionization, same shuffle shape: full rows only
    narrow to (user, type, ts, id), one coarse user-bucket exchange,
    and the in-bucket kernel is a sort + shift compare (no per-user
    groupby); final small groupby sums per-bucket partials.
    """

    def narrow(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        us = (
            ts.cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        df = pd.DataFrame(
            {
                user_col: batch[user_col].to_numpy(zero_copy_only=False),
                type_col: batch[type_col].to_pylist(),
                "_ts": us,
                id_col: batch[id_col].to_numpy(zero_copy_only=False),
            }
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def bucket_transitions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values([user_col, "_ts", id_col])
        same_user = g[user_col].eq(g[user_col].shift())
        pairs = pd.DataFrame(
            {
                "from_type": g[type_col].shift(),
                "to_type": g[type_col],
            }
        )[same_user]
        if not len(pairs):
            return pd.DataFrame(
                {"from_type": [], "to_type": [], "n": []}
            )
        out = pairs.groupby(
            ["from_type", "to_type"], as_index=False
        ).size().rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    def transition_schema(rows: pa.Schema) -> pa.Schema:
        t = rows.field(type_col).type
        return pa.schema([("from_type", t), ("to_type", t), ("n", pa.int64())])

    return (
        cogroup(
            {"rows": (events.map_batches(narrow, batch_format="pyarrow"), user_col)},
            lambda rows: bucket_transitions(rows.to_pandas()),
            transition_schema,
            n_buckets=n_buckets,
            coalesce=True,
        )
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


def funnel_steps(
    events: ray.data.Dataset,
    steps: list,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Ordered funnel completion: for each prefix of ``steps``, how
    many users performed those event types in strictly increasing
    timestamp order (first occurrence of step k AFTER the first
    qualifying occurrence of step k-1).

    Shape: rows narrow to (user, step_idx, ts) — only events whose
    type is a funnel step survive the map — one coarse user-bucket
    exchange, and the in-bucket kernel walks each user's per-step
    earliest-qualifying times vectorized per step (len(steps) passes
    over the bucket, no per-user Python loop). Output: one row per
    step with the completing-user count.
    """
    step_idx = {s: i for i, s in enumerate(steps)}

    def narrow(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        us = (
            ts.cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        types = batch[type_col].to_pylist()
        idx = np.array([step_idx.get(t, -1) for t in types], dtype=np.int64)
        keep = idx >= 0
        df = pd.DataFrame(
            {
                user_col: batch[user_col].to_numpy(zero_copy_only=False)[
                    keep
                ],
                "_step": idx[keep],
                "_ts": us[keep],
            }
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    n_steps = len(steps)

    def bucket_funnel(group: pd.DataFrame) -> pd.DataFrame:
        # users as categorical index 0..u-1
        users, uidx = np.unique(group[user_col].to_numpy(), return_inverse=True)
        u = len(users)
        sidx = group["_step"].to_numpy()
        ts = group["_ts"].to_numpy()
        INF = np.iinfo(np.int64).max
        # reach[k][user] = earliest time user completed steps 0..k in order
        reach = np.full(u, -1, dtype=np.int64)  # step -1: completed at -inf
        counts = []
        for k in range(n_steps):
            mask = sidx == k
            # earliest event of step k per user that is strictly after
            # the user's reach time for step k-1
            cand_t = ts[mask]
            cand_u = uidx[mask]
            ok = cand_t > reach[cand_u]
            best = np.full(u, INF, dtype=np.int64)
            np.minimum.at(best, cand_u[ok], cand_t[ok])
            reach = best
            counts.append(int((best != INF).sum()))
        return pd.DataFrame(
            {
                "step_idx": pd.Series(range(n_steps), dtype="int64"),
                "step": [steps[k] for k in range(n_steps)],
                "n_users": pd.Series(counts, dtype="int64"),
            }
        )

    return (
        cogroup(
            {"rows": (events.map_batches(narrow, batch_format="pyarrow"), user_col)},
            lambda rows: bucket_funnel(rows.to_pandas()),
            pa.schema(
                [("step_idx", pa.int64()), ("step", pa.string()), ("n_users", pa.int64())]
            ),
            n_buckets=n_buckets,
            coalesce=True,
        )
        .groupby(["step_idx", "step"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def customers_without_orders(
    customer: ray.data.Dataset,
    orders: ray.data.Dataset,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Big-big ANTI join: per-nation count and balance of customers
    that placed no order (TPC-H Q22's anti-join core, without the
    phone/balance predicates).

    Neither side is assumed broadcastable: order custkeys are
    pre-collapsed to DISTINCT per batch, both sides are tagged into
    the same custkey-hash bucket, and each bucket task subtracts the
    order-key set from its customers and immediately pre-aggregates
    per nation — so the second exchange carries one row per
    (bucket, nation), never per customer. Balance is exact cents
    (floor(x*100 + 0.5), the repo-wide money contract).

    Reference parity: the reference joins/cross-references tables via
    its DB layer; this is the from-scratch distributed equivalent of
    its "records in A with no match in B" reporting shape.
    """
    from ray.data.aggregate import Sum

    import numpy as np

    def tag_cust(batch: pa.Table) -> pa.Table:
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "custkey": batch["c_custkey"],
                "c_nationkey": batch["c_nationkey"],
                "bal_c": pa.array(np.floor(bal * 100 + 0.5).astype(np.int64)),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        keys = np.unique(batch["o_custkey"].to_numpy(zero_copy_only=False))
        return pa.table({"custkey": pa.array(keys)})

    def anti_in_bucket(cust: pa.Table, ords: pa.Table) -> pd.DataFrame:
        have = set(ords["custkey"].to_pylist())
        cust = cust.to_pandas()
        miss = cust[~cust["custkey"].isin(have)]
        return miss.groupby("c_nationkey", as_index=False).agg(
            n_customers=("custkey", "size"), acctbal_c=("bal_c", "sum")
        )

    i64 = pa.int64()
    per_bucket = cogroup(
        {
            "cust": (
                customer.select_columns(["c_custkey", "c_nationkey", "c_acctbal"])
                .map_batches(tag_cust, batch_format="pyarrow"),
                "custkey",
                pa.schema([("custkey", i64), ("c_nationkey", i64), ("bal_c", i64)]),
            ),
            "ords": (
                orders.select_columns(["o_custkey"]).map_batches(
                    tag_orders, batch_format="pyarrow"
                ),
                "custkey",
                pa.schema([("custkey", i64)]),
            ),
        },
        anti_in_bucket,
        pa.schema([("c_nationkey", i64), ("n_customers", i64), ("acctbal_c", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return per_bucket.groupby("c_nationkey").aggregate(
        Sum("n_customers", alias_name="n_customers"),
        Sum("acctbal_c", alias_name="acctbal_c"),
    )


def _int_bloom_build(
    ds: ray.data.Dataset, col: str, bits_p: int
) -> "np.ndarray":
    """Bloom bitmap (2^bits_p bits, two affine int64 probes) of an
    int64 key column. Per-block partials are FIXED-SIZE packed
    bitmaps (2^bits_p / 8 bytes), so the driver-side OR fold is
    bounded by block count x bitmap size, never by key count; on a
    cluster the same fold runs as a log-depth tree reduce.

    Internal pruning structure only: false positives are fine (they
    just reach the exact in-bucket check), so nothing here faces an
    oracle."""
    import numpy as np

    n_bytes = (1 << bits_p) // 8
    mask = np.int64((1 << bits_p) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        bm = np.zeros(n_bytes, dtype=np.uint8)
        for mult, add in ((np.int64(0x9E3779B1), np.int64(0x85EBCA6B)),
                          (np.int64(0xC2B2AE35), np.int64(0x27D4EB2F))):
            h = ((keys * mult + add) & mask).astype(np.int64)
            np.bitwise_or.at(bm, h >> 3, np.uint8(1) << (h & 7).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], pa.binary())})

    out = np.zeros(n_bytes, dtype=np.uint8)
    for row in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).take_all():
        out |= np.frombuffer(row["bm"], dtype=np.uint8)
    return out


def _int_bloom_probe(keys, bloom: "np.ndarray", bits_p: int) -> "np.ndarray":
    """Vectorized membership mask for int64 keys against the bitmap."""
    import numpy as np

    mask = np.int64((1 << bits_p) - 1)
    ok = np.ones(len(keys), dtype=bool)
    keys = np.asarray(keys, dtype=np.int64)
    for mult, add in ((np.int64(0x9E3779B1), np.int64(0x85EBCA6B)),
                      (np.int64(0xC2B2AE35), np.int64(0x27D4EB2F))):
        h = ((keys * mult + add) & mask).astype(np.int64)
        ok &= (bloom[h >> 3] & (np.uint8(1) << (h & 7).astype(np.uint8))) != 0
    return ok


def orders_with_returns(
    orders: ray.data.Dataset,
    lineitem: ray.data.Dataset,
    n_buckets: int = 64,
    bloom_bits_p: int | None = None,
) -> ray.data.Dataset:
    """Big-big SEMI join (TPC-H Q4 shape, adapted to this corpus'
    columns): per-priority count and total price of orders that have
    AT LEAST ONE returned lineitem (``l_returnflag = 'R'``).

    The lineitem side is filtered and collapsed to DISTINCT orderkeys
    per batch before the exchange, both sides hash-bucket on orderkey,
    and the bucket task intersects and pre-aggregates per priority —
    the second exchange carries one row per (bucket, priority). Price
    is exact cents (floor(x*100 + 0.5), the repo money contract).

    EXISTS semantics (not join multiplicity): an order with five
    returned lineitems counts once, which is why the probe side is
    deduplicated rather than joined.

    ``bloom_bits_p`` enables Bloom pushdown: a 2^p-bit filter of the
    probe keys is built first (fixed-size per-block bitmap partials,
    bounded driver fold) and broadcast; orders whose key cannot match
    are dropped BEFORE the exchange. Results are identical — false
    positives still hit the exact in-bucket set check — so this is a
    pure exchange-volume knob; it pays when the probe side is
    selective (few matching orders) and loses when most orders match
    (measured A/B in BASELINE.md). It costs one extra pass over the
    probe side, so the probe dataset is materialized when enabled.
    """
    from ray.data.aggregate import Sum

    import numpy as np
    import ray as _ray

    def tag_orders(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "orderkey": pa.array(keys, pa.int64()),
                "o_orderpriority": batch["o_orderpriority"],
                "price_c": pa.array(
                    np.floor(price * 100 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    def tag_lineitem(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flt = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        keys = np.unique(flt["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"orderkey": pa.array(keys, pa.int64())})

    li = lineitem.select_columns(["l_orderkey", "l_returnflag"])
    orders_src = orders.select_columns(
        ["o_orderkey", "o_orderpriority", "o_totalprice"]
    )

    if bloom_bits_p is not None:
        import pyarrow.compute as pc

        li = li.materialize()  # consumed by the bloom pass + the exchange

        def r_keys(batch: pa.Table) -> pa.Table:
            flt = batch.filter(pc.equal(batch["l_returnflag"], "R"))
            keys = np.unique(flt["l_orderkey"].to_numpy(zero_copy_only=False))
            return pa.table({"k": pa.array(keys, pa.int64())})

        bloom = _int_bloom_build(
            li.map_batches(r_keys, batch_format="pyarrow"), "k", bloom_bits_p
        )
        bloom_ref = _ray.put(bloom)
        bp = bloom_bits_p

        def prefilter_orders(batch: pa.Table) -> pa.Table:
            bm = _ray.get(bloom_ref)
            keys = batch["o_orderkey"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(_int_bloom_probe(keys, bm, bp)))

        orders_src = orders_src.map_batches(
            prefilter_orders, batch_format="pyarrow"
        )

    def semi_in_bucket(ords: pa.Table, rets: pa.Table) -> pd.DataFrame:
        have = set(rets["orderkey"].to_pylist())
        ords = ords.to_pandas()
        hit = ords[ords["orderkey"].isin(have)]
        return hit.groupby("o_orderpriority", as_index=False).agg(
            n_orders=("orderkey", "size"), totalprice_c=("price_c", "sum")
        )

    i64 = pa.int64()
    per_bucket = cogroup(
        {
            "ords": (
                orders_src.map_batches(tag_orders, batch_format="pyarrow"),
                "orderkey",
                pa.schema(
                    [("orderkey", i64), ("o_orderpriority", pa.string()), ("price_c", i64)]
                ),
            ),
            "rets": (
                li.map_batches(tag_lineitem, batch_format="pyarrow"),
                "orderkey",
                pa.schema([("orderkey", i64)]),
            ),
        },
        semi_in_bucket,
        pa.schema(
            [("o_orderpriority", pa.string()), ("n_orders", i64), ("totalprice_c", i64)]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return per_bucket.groupby("o_orderpriority").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("totalprice_c", alias_name="totalprice_c"),
    )


def customer_order_distribution(
    customer: ray.data.Dataset,
    orders: ray.data.Dataset,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q13: distribution of customers by how many orders they
    placed, INCLUDING zero-order customers (the LEFT OUTER part).
    Output: (c_count, custdist) — "custdist customers placed exactly
    c_count orders".

    Shape: a big-big left-outer join reduced to counts without ever
    materializing joined rows. The order side pre-counts per custkey
    inside each batch (partial combiner), both sides bucket on
    custkey, each bucket task sums order counts per custkey, left-
    extends customers with no orders to count 0, and collapses to
    per-(bucket, c_count) histogram rows — the second exchange is a
    bounded histogram, never per-customer.
    """
    from ray.data.aggregate import Sum

    import numpy as np

    def tag_orders(batch: pa.Table) -> pa.Table:
        keys, counts = np.unique(
            batch["o_custkey"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "custkey": pa.array(keys, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def hist_in_bucket(custs: pa.Table, ords: pa.Table) -> pd.DataFrame:
        per_cust = ords.to_pandas().groupby("custkey", as_index=True)["n"].sum()
        cust = custs.to_pandas()["custkey"]
        c_count = per_cust.reindex(cust, fill_value=0).astype(np.int64)
        hist = c_count.value_counts()
        return pd.DataFrame(
            {
                "c_count": hist.index.to_numpy(dtype=np.int64),
                "custdist": hist.to_numpy(dtype=np.int64),
            }
        )

    i64 = pa.int64()
    per_bucket = cogroup(
        {
            "custs": (
                customer.select_columns(["c_custkey"]).rename_columns(["custkey"]),
                "custkey",
                pa.schema([("custkey", i64)]),
            ),
            "ords": (
                orders.select_columns(["o_custkey"]).map_batches(
                    tag_orders, batch_format="pyarrow"
                ),
                "custkey",
                pa.schema([("custkey", i64), ("n", i64)]),
            ),
        },
        hist_in_bucket,
        pa.schema([("c_count", i64), ("custdist", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return per_bucket.groupby("c_count").aggregate(
        Sum("custdist", alias_name="custdist")
    )


def rollup_counts(
    ds: ray.data.Dataset,
    keys: tuple[str, str] = ("source", "lang"),
    value_col: str = "n_chars",
    all_label: str = "(all)",
) -> pd.DataFrame:
    """GROUP BY ROLLUP over two keys: finest-grain (k1, k2) rows plus
    per-k1 subtotals plus the grand total — the OLAP report shape.

    The corpus is touched ONCE: per-batch (k1, k2) count/sum partials
    feed a groupby whose cardinality is the key-domain product (tiny:
    sources x languages), and every subtotal level is derived from that
    finest aggregate on the driver — never a second corpus pass per
    level, which is how a naive rollup multiplies shuffle volume by
    the number of levels. Subtotal rows carry ``all_label`` instead of
    SQL NULL so the result is hash-comparable.

    Output: (k1, k2, n_rows, sum_value), int64 aggregates.
    """
    k1, k2 = keys

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                k1: batch[k1].to_pylist(),
                k2: batch[k2].to_pylist(),
                "n_rows": np.ones(batch.num_rows, np.int64),
                "sum_value": batch[value_col]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = df.groupby([k1, k2], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    finest = (
        ds.select_columns([k1, k2, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([k1, k2])
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("sum_value", alias_name="sum_value"),
        )
        # bounded by |k1 domain| x |k2 domain| rows
        .to_pandas()
    )
    sub = finest.groupby(k1, as_index=False)[["n_rows", "sum_value"]].sum()
    sub[k2] = all_label
    grand = pd.DataFrame(
        {
            k1: [all_label],
            k2: [all_label],
            "n_rows": [finest["n_rows"].sum()],
            "sum_value": [finest["sum_value"].sum()],
        }
    )
    out = pd.concat(
        [finest, sub[[k1, k2, "n_rows", "sum_value"]], grand],
        ignore_index=True,
    )
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["sum_value"] = out["sum_value"].astype(np.int64)
    return out


def cube_counts(
    ds: ray.data.Dataset,
    keys: tuple[str, str] = ("source", "lang"),
    value_col: str = "n_chars",
    all_label: str = "(all)",
) -> pd.DataFrame:
    """GROUP BY CUBE over two keys: the full subtotal lattice —
    (k1, k2), (k1, *), (*, k2), (*, *). Same one-corpus-pass contract
    as ``rollup_counts``: the corpus feeds ONE finest-grain aggregate
    (bounded by the key-domain product) and all 2^2 lattice levels are
    derived from it on the driver. Subtotals carry ``all_label``
    instead of SQL NULL so the result is hash-comparable.

    Output: (k1, k2, n_rows, sum_value), int64 aggregates.
    """
    k1, k2 = keys

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                k1: batch[k1].to_pylist(),
                k2: batch[k2].to_pylist(),
                "n_rows": np.ones(batch.num_rows, np.int64),
                "sum_value": batch[value_col]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = df.groupby([k1, k2], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    finest = (
        ds.select_columns([k1, k2, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([k1, k2])
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("sum_value", alias_name="sum_value"),
        )
        .to_pandas()  # bounded by |k1 domain| x |k2 domain| rows
    )
    sub1 = finest.groupby(k1, as_index=False)[["n_rows", "sum_value"]].sum()
    sub1[k2] = all_label
    sub2 = finest.groupby(k2, as_index=False)[["n_rows", "sum_value"]].sum()
    sub2[k1] = all_label
    grand = pd.DataFrame(
        {
            k1: [all_label],
            k2: [all_label],
            "n_rows": [finest["n_rows"].sum()],
            "sum_value": [finest["sum_value"].sum()],
        }
    )
    cols = [k1, k2, "n_rows", "sum_value"]
    out = pd.concat(
        [finest[cols], sub1[cols], sub2[cols], grand[cols]],
        ignore_index=True,
    )
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["sum_value"] = out["sum_value"].astype(np.int64)
    return out


def running_totals(
    events: ray.data.Dataset,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-user cumulative running totals over time — the classic
    ``SUM(...) OVER (PARTITION BY user ORDER BY ts, id)`` window, as
    one user-bucket exchange with an in-bucket vectorized sort +
    cumsum per user (each user's history lands in exactly one group;
    the cumulative is exact integer cents).

    Ties on ts break by event_id — the full ordering key — so the
    prefix sums are deterministic and the window oracle replays them.
    Output: (event_id, user_id, value_c, running_c).
    """

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        val = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": uid,
                "ts": batch["ts"],
                "value_c": np.floor(val * 100 + 0.5).astype(np.int64),
            }
        )

    def cum_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"])
        g["running_c"] = g.groupby("user_id")["value_c"].cumsum()
        return g[["event_id", "user_id", "value_c", "running_c"]]

    return cogroup(
        {"rows": (events.map_batches(tag, batch_format="pyarrow"), "user_id")},
        lambda rows: cum_in_bucket(rows.to_pandas()),
        lambda rows: pa.schema(
            [rows.field("event_id"), ("user_id", pa.int64()), ("value_c", pa.int64()),
             ("running_c", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def max_concurrency(
    events: ray.data.Dataset,
    hold_s: int = 600,
    window_s: int = 86_400,
) -> pd.DataFrame:
    """Sweep-line maximum concurrency: each event holds a resource for
    ``hold_s`` seconds; find the peak number simultaneously held and
    the earliest instant it is reached — the load-sizing question every
    event system asks, and the repo's distributed GLOBAL PREFIX SUM
    pattern (a running sum over a globally time-ordered stream, which
    no single groupby expresses).

    Shape: (1) one pass folds events into +1/-1 boundary points,
    pre-aggregated per (time-window, ts, delta) — the exchange carries
    net deltas per distinct instant, not events; (2) an in-window task
    sorts locally and emits BOTH the window's prefix maxima and its
    TOTAL net delta; (3) the driver folds the per-window totals (one
    int per window) into exclusive carries — the classic scan carry
    step — and the final answer is max over windows of
    (carry + local running max). Ends sort before starts at the same
    instant (half-open intervals), which the oracle replays by
    ordering on (ts, delta).

    Output: one row (max_concurrent, at_ts_us).
    """
    hold_us = hold_s * 1_000_000
    win_us = window_s * 1_000_000

    def points(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        t0 = ts.astype(np.int64)
        t1 = t0 + hold_us
        all_ts = np.concatenate([t0, t1])
        delta = np.concatenate(
            [np.ones(len(t0), np.int64), -np.ones(len(t1), np.int64)]
        )
        df = pd.DataFrame({"ts_us": all_ts, "delta": delta})
        g = df.groupby("ts_us", as_index=False)["delta"].sum()
        g["win"] = g["ts_us"] // win_us
        return pa.Table.from_pandas(g, preserve_index=False)

    def window_scan(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("ts_us", as_index=False)["delta"].sum()
        g = g.sort_values("ts_us")
        run = g["delta"].cumsum().to_numpy()
        # NOTE: net delta per instant already encodes "ends before
        # starts" — at one instant the -1s and +1s collapse into one
        # net step, and the running value AFTER the step is the
        # concurrency ON the half-open interval starting there
        best = int(run.max()) if len(run) else 0
        at = int(g["ts_us"].to_numpy()[int(np.argmax(run))]) if len(run) else 0
        total = int(g["delta"].sum())
        return pd.DataFrame(
            {
                "win": [int(group["win"].iloc[0])],
                "local_max": [best],
                "at_ts_us": [at],
                "net": [total],
            }
        )

    per_win = (
        coalesce_for_exchange(events.map_batches(points, batch_format="pyarrow"))
        .groupby("win")
        .map_groups(window_scan, batch_format="pandas")
        .to_pandas()  # one row per time window: bounded by time span
        .sort_values("win")
        .reset_index(drop=True)
    )
    # scan carry: concurrency entering window k = sum of nets before k
    carry = np.concatenate(([0], np.cumsum(per_win["net"].to_numpy())[:-1]))
    totals = carry + per_win["local_max"].to_numpy()
    best_i = int(np.argmax(totals))
    # earliest instant: among windows achieving the max, the first
    # (windows are time-ordered and at_ts_us is the window's earliest
    # argmax because cumsum argmax returns the first hit)
    return pd.DataFrame(
        {
            "max_concurrent": [int(totals[best_i])],
            "at_ts_us": [int(per_win["at_ts_us"].iloc[best_i])],
        }
    )


def json_prop_rollup(
    events: ray.data.Dataset,
    key: str = "k",
) -> ray.data.Dataset:
    """Typed extraction of a numeric field from the ``props`` JSON
    column, rolled up per event_type — the semi-structured-payload
    lane (every event pipeline carries one).

    The extraction is zero-copy Arrow RE2 (``pc.extract_regex`` with a
    named group), not a per-row ``json.loads`` loop — the regex
    handles the flat ``"key": <int>`` shape; rows where it misses
    (absent key, non-numeric value, nested object) surface as NULL and
    are excluded from the aggregates exactly like SQL's
    ``json_extract``-then-CAST. Per-batch partials feed one tiny
    groupby. Output: (event_type, n, sum_k, min_k, max_k).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max as _Max, Min as _Min, Sum as _Sum

    pat = r'"' + re.escape(key) + r'":\s*(?P<v>-?\d+)'

    def partial(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["props"], pattern=pat)
        v = pc.cast(pc.struct_field(ext, "v"), pa.int64())
        t = pa.table({"event_type": batch["event_type"], "v": v})
        t = t.filter(pc.is_valid(t["v"]))
        df = t.to_pandas()
        g = df.groupby("event_type", as_index=False).agg(
            n=("v", "size"), sum_k=("v", "sum"),
            min_k=("v", "min"), max_k=("v", "max"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        coalesce_for_exchange(
            events.map_batches(partial, batch_format="pyarrow")
        )
        .groupby("event_type")
        .aggregate(
            _Sum("n", alias_name="n"),
            _Sum("sum_k", alias_name="sum_k"),
            _Min("min_k", alias_name="min_k"),
            _Max("max_k", alias_name="max_k"),
        )
    )


def event_trigrams(
    events: ray.data.Dataset,
    max_gap_s: int = 3600,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Multi-pattern sequence counts (CEP-style, contiguous variant):
    for every ordered event-type triple (a, b, c), how many times a
    user's stream contains it as THREE CONSECUTIVE events with each
    inter-event gap <= ``max_gap_s`` — the second-order extension of
    ``transition_counts`` with a session-gap constraint, counting all
    observed patterns in ONE pass (no per-pattern scans).

    One user-bucket exchange; in-bucket per-user ts-order (ties by
    event_id) + two vectorized shifts + gap masks + a tiny rollup, so
    the second exchange carries one row per (bucket, a, b, c).
    Output: (t1, t2, t3, n).
    """
    from ray.data.aggregate import Sum as _Sum

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": uid,
                "event_id": batch["event_id"],
                "ts": batch["ts"],
                "event_type": batch["event_type"],
            }
        )

    def count_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"])
        same2 = g["user_id"].to_numpy() == g["user_id"].shift(-1).to_numpy()
        same3 = g["user_id"].to_numpy() == g["user_id"].shift(-2).to_numpy()
        ts = g["ts"].astype("int64").to_numpy()  # us
        gap1 = np.roll(ts, -1) - ts
        gap2 = np.roll(ts, -2) - np.roll(ts, -1)
        lim = max_gap_s * 1_000_000
        ok = same2 & same3 & (gap1 <= lim) & (gap2 <= lim)
        ok[-2:] = False
        t = g["event_type"].to_numpy()
        df = pd.DataFrame(
            {
                "t1": t[:-2][ok[:-2]],
                "t2": t[1:-1][ok[:-2]],
                "t3": t[2:][ok[:-2]],
            }
        )
        out = df.groupby(["t1", "t2", "t3"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    def trigram_schema(rows: pa.Schema) -> pa.Schema:
        t = rows.field("event_type").type
        return pa.schema([("t1", t), ("t2", t), ("t3", t), ("n", pa.int64())])

    return (
        cogroup(
            {"rows": (events.map_batches(tag, batch_format="pyarrow"), "user_id")},
            lambda rows: count_in_bucket(rows.to_pandas()),
            trigram_schema,
            n_buckets=n_buckets,
            coalesce=False,
        )
        .groupby(["t1", "t2", "t3"])
        .aggregate(_Sum("n", alias_name="n"))
    )


def full_outer_activity(
    events: ray.data.Dataset,
    win_a: tuple[str, str] = ("2024-01-01", "2024-01-04"),
    win_b: tuple[str, str] = ("2024-01-28", "2024-01-31"),
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """FULL OUTER join shape: (user, event_type) activity compared
    across two disjoint time windows, null-extended BOTH ways — the
    churn/retention report (appeared / disappeared / persisted).

    One pass over events filters both windows and pre-aggregates
    per-batch (user, type, side) counts; a single (user,type)-bucket
    exchange folds the two sides together, zero-filling whichever side
    is absent (that IS the full outer semantics — neither side is
    privileged, unlike the left-outer custdist). Status is derived
    in-bucket so the oracle can replay it with a CASE.

    Output: (user_id, event_type, n_a, n_b, status) where status in
    {'both', 'a_only', 'b_only'}.
    """
    a_lo, a_hi = np.datetime64(win_a[0], "us"), np.datetime64(win_a[1], "us")
    b_lo, b_hi = np.datetime64(win_b[0], "us"), np.datetime64(win_b[1], "us")

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        in_a = (ts >= a_lo) & (ts < a_hi)
        in_b = (ts >= b_lo) & (ts < b_hi)
        keep = in_a | in_b
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"]
                .to_numpy(zero_copy_only=False)[keep]
                .astype(np.int64),
                "event_type": np.asarray(batch["event_type"].to_pylist())[
                    keep
                ],
                "n_a": in_a[keep].astype(np.int64),
                "n_b": in_b[keep].astype(np.int64),
            }
        )
        g = df.groupby(["user_id", "event_type"], as_index=False)[
            ["n_a", "n_b"]
        ].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["user_id", "event_type"], as_index=False)[
            ["n_a", "n_b"]
        ].sum()
        na = g["n_a"].to_numpy(np.int64)
        nb = g["n_b"].to_numpy(np.int64)
        g["status"] = np.where(
            (na > 0) & (nb > 0), "both", np.where(na > 0, "a_only", "b_only")
        )
        return g

    i64 = pa.int64()
    return cogroup(
        {"rows": (events.map_batches(partial, batch_format="pyarrow"), "user_id")},
        lambda rows: fold(rows.to_pandas()),
        pa.schema(
            [("user_id", i64), ("event_type", pa.string()), ("n_a", i64), ("n_b", i64),
             ("status", pa.string())]
        ),
        n_buckets=n_buckets,
        coalesce=False,
    )


def conversion_latency(
    events: ray.data.Dataset,
    from_type: str = "view",
    to_type: str = "purchase",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Funnel latency: per user, microseconds from the FIRST
    ``from_type`` event to the first ``to_type`` event at or after it —
    the time-to-convert distribution behind "how long from first view
    to purchase".

    One scan, one user-bucket exchange: the from-side collapses to a
    per-(user, batch) min timestamp partial; the to-side must ship its
    event rows (a later conversion can precede the batch-local first
    view, so no batch-local prune against an unknown global minimum is
    sound) — but only rows of ``to_type`` (one narrow int64 pair each),
    the same honesty as sessionize. The in-bucket fold is vectorized:
    per-user min of from-partials, then min of to-rows >= it.

    Output: (user_id, latency_us), one row per converting user.
    """

    def partial(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(
            pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)

        from_mask = et == from_type
        fdf = (
            pd.DataFrame({"user_id": uid[from_mask], "ts": ts_us[from_mask]})
            .groupby("user_id", as_index=False)["ts"]
            .min()
        )
        fdf["is_to"] = np.int8(0)
        to_mask = et == to_type
        tdf = pd.DataFrame(
            {
                "user_id": uid[to_mask],
                "ts": ts_us[to_mask],
                "is_to": np.full(int(to_mask.sum()), 1, np.int8),
            }
        )
        out = pd.concat([fdf, tdf], ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        first = (
            group[group["is_to"] == 0]
            .groupby("user_id")["ts"]
            .min()
            .rename("v")
        )
        to = group[group["is_to"] == 1].merge(
            first, left_on="user_id", right_index=True
        )
        to = to[to["ts"] >= to["v"]]
        if to.empty:
            return None
        conv = to.groupby("user_id", as_index=False).agg(
            p=("ts", "min"), v=("v", "min")
        )
        return pd.DataFrame(
            {
                "user_id": conv["user_id"].to_numpy(np.int64),
                "latency_us": (conv["p"] - conv["v"]).to_numpy(np.int64),
            }
        )

    return cogroup(
        {
            "rows": (
                events.select_columns(["user_id", "ts", "event_type"]).map_batches(
                    partial, batch_format="pyarrow"
                ),
                "user_id",
            )
        },
        lambda rows: fold(rows.to_pandas()),
        pa.schema([("user_id", pa.int64()), ("latency_us", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def interarrival_stats(
    events: ray.data.Dataset,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-user inter-arrival gap statistics: number of gaps and the
    min/max/sum of consecutive-event time deltas under ORDER BY
    (ts, event_id) — the visit-cadence signal (bot detection, churn
    modeling) in exact microseconds.

    Consecutive diffs are inherently order-dependent across the whole
    user history, so the user-bucket exchange ships one narrow
    (user, ts, event_id) row per event — the sessionize honesty — and
    the in-bucket fold is fully vectorized: one lexsort, one np.diff,
    user-boundary gaps masked out. Users with a single event have no
    gaps and are dropped.

    Output: (user_id, n_gaps, min_gap_us, max_gap_us, sum_gap_us).
    """

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(
            pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts": pa.array(ts_us),
                "event_id": batch["event_id"],
            }
        )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        uid = group["user_id"].to_numpy(np.int64)
        ts = group["ts"].to_numpy(np.int64)
        eid = group["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        gaps = np.diff(ts)
        same_user = uid[1:] == uid[:-1]
        df = pd.DataFrame(
            {"user_id": uid[1:][same_user], "gap": gaps[same_user]}
        )
        if df.empty:
            return None
        return df.groupby("user_id", as_index=False).agg(
            n_gaps=("gap", "size"),
            min_gap_us=("gap", "min"),
            max_gap_us=("gap", "max"),
            sum_gap_us=("gap", "sum"),
        )

    i64 = pa.int64()
    return cogroup(
        {
            "rows": (
                events.select_columns(["user_id", "ts", "event_id"]).map_batches(
                    tag, batch_format="pyarrow"
                ),
                "user_id",
            )
        },
        lambda rows: fold(rows.to_pandas()),
        pa.schema(
            [("user_id", i64), ("n_gaps", i64), ("min_gap_us", i64),
             ("max_gap_us", i64), ("sum_gap_us", i64)]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )


def last_touch_attribution(
    events: ray.data.Dataset,
    target_type: str = "purchase",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Last-touch attribution: for every ``target_type`` event, the
    type of the latest event strictly preceding it in the user's
    history (ORDER BY ts, event_id), counted per attributed type —
    "what did users do right before purchasing". A target with no
    prior event attributes to 'none'.

    The lag is order-dependent across the whole user history, so the
    user-bucket exchange ships narrow (user, ts, event_id, type) rows;
    the in-bucket fold is one lexsort + one shift, and each bucket
    emits at most |event types|+1 partial count rows, so the second
    aggregation is constant-size.

    Output: (attributed_type, n).
    """

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(
            pc.cast(batch["ts"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "ts": pa.array(ts_us),
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
            }
        )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        uid = group["user_id"].to_numpy(np.int64)
        ts = group["ts"].to_numpy(np.int64)
        eid = group["event_id"].to_numpy(np.int64)
        et = group["event_type"].to_numpy()
        if len(et) == 0:
            return None
        order = np.lexsort((eid, ts, uid))
        uid, et = uid[order], et[order]
        prev = np.empty_like(et)
        prev[0] = "none"
        prev[1:] = et[:-1]
        prev[1:][uid[1:] != uid[:-1]] = "none"
        mask = et == target_type
        df = pd.DataFrame({"attributed_type": prev[mask]})
        g = df.groupby("attributed_type", as_index=False).size()
        return g.rename(columns={"size": "n"})

    partials = cogroup(
        {
            "rows": (
                events.select_columns(
                    ["user_id", "ts", "event_id", "event_type"]
                ).map_batches(tag, batch_format="pyarrow"),
                "user_id",
            )
        },
        lambda rows: fold(rows.to_pandas()),
        pa.schema([("attributed_type", pa.string()), ("n", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return partials.groupby("attributed_type").aggregate(
        Sum("n", alias_name="n")
    )


def profile_columns(
    ds: ray.data.Dataset,
    int_cols: tuple = (),
    cent_cols: tuple = (),
) -> ray.data.Dataset:
    """ANALYZE-style numeric column profile: per column, row count,
    null count, min, max and sum — the first thing a data engineer
    runs on an unfamiliar 100-TB table. Float columns are profiled in
    exact integer cents (floor(v*100+0.5)) so the distributed fold and
    the oracle comparison carry no float drift.

    One pass, no shuffle of data rows: each batch emits one partial
    row PER COLUMN, and the final aggregation touches
    O(columns x blocks) rows.

    Output: (col, n_rows, n_null, min_v, max_v, sum_v).
    """
    cols = list(int_cols) + list(cent_cols)
    cents = set(cent_cols)

    def partial(batch: pa.Table) -> pa.Table:
        out = {
            "col": [], "n_rows": [], "n_null": [],
            "min_v": [], "max_v": [], "sum_v": [],
        }
        for c in cols:
            arr = batch[c]
            n = len(arr)
            n_null = arr.null_count
            vals = arr.drop_null().to_numpy(zero_copy_only=False)
            if c in cents:
                vals = np.floor(vals * 100 + 0.5).astype(np.int64)
            else:
                vals = vals.astype(np.int64)
            out["col"].append(c)
            out["n_rows"].append(n)
            out["n_null"].append(n_null)
            # sentinel extremes for an all-null batch keep min/max exact
            out["min_v"].append(
                int(vals.min()) if len(vals) else np.iinfo(np.int64).max
            )
            out["max_v"].append(
                int(vals.max()) if len(vals) else np.iinfo(np.int64).min
            )
            out["sum_v"].append(int(vals.sum()))
        return pa.table(
            {
                "col": pa.array(out["col"]),
                "n_rows": pa.array(out["n_rows"], pa.int64()),
                "n_null": pa.array(out["n_null"], pa.int64()),
                "min_v": pa.array(out["min_v"], pa.int64()),
                "max_v": pa.array(out["max_v"], pa.int64()),
                "sum_v": pa.array(out["sum_v"], pa.int64()),
            }
        )

    return (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("col")
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_null", alias_name="n_null"),
            Min("min_v", alias_name="min_v"),
            Max("max_v", alias_name="max_v"),
            Sum("sum_v", alias_name="sum_v"),
        )
    )
