"""Classic decorrelated-subquery / threshold join shapes (TPC-H
Q11/Q15/Q17/Q18/Q21 skeletons, adapted to this corpus' columns).

Each operator here exists because its *distributed shape* was missing
from the relational family, not because of the business meaning:

- ``top_revenue_supplier``  (Q15): argmax-with-ties over an aggregate —
  a global scalar max derived from a pre-aggregated table, then an
  exact tie-keeping filter.
- ``large_volume_orders``   (Q18): GROUP BY ... HAVING over the big
  fact table, then the tiny surviving key set is *broadcast back* to
  enrich from two other tables — no big-big exchange after the HAVING.
- ``small_quantity_revenue`` (Q17): correlated scalar subquery
  (``l_quantity < 0.2 * avg(qty) per part``) decorrelated into a
  per-key aggregate pass + a broadcast-probe scoring pass, with the
  fractional compare folded into exact integer math
  (``5*qty*cnt < sum_qty``) so no float divide touches the result.
- ``sole_return_suppliers`` (Q21): multi-self-"join" on the fact table
  collapsed into ONE per-orderkey cogroup (EXISTS + NOT-EXISTS both
  become per-group set tests), never an actual self-join.
- ``revenue_share_parts``   (Q11): global-scalar threshold — a total
  computed once, folded to an exact integer cutoff on the driver, and
  applied as a broadcast filter over the per-key aggregate.

Money follows the repo contract: exact integer cents per *row*
(``floor(x*100 + 0.5)``) before any aggregation, so sums are
associative integers and replay bit-exactly in the DuckDB oracle.

Scale notes (100 TB): every exchange below carries pre-aggregated
partials keyed by a bucketed join key; the only driver-side
materializations are provably tiny sets (HAVING survivors, argmax
ties, a global scalar). The part-side key broadcast in Q17 is
``O(#selected parts)`` int64s — the part table is orders of magnitude
smaller than lineitem; if that ever stopped holding the probe flips to
the bucket-cogroup path used by ``orders_with_returns``.

Reference parity: the reference engine has no relational module; these
cover the survey's "wide aggregation / join shapes" axis
(SURVEY.md §2 relational extensions) the same way custdist/semi_join
do.

Round-4 session 8 adds the REMAINING classic shapes (Q2/Q6/Q9/Q12/
Q16/Q19/Q20 skeletons; the Q7/Q8 join chains live in
``join_indexed.py``; no ``partsupp`` table or shipmode/
commitdate columns exist in the synthetic schema, so Q2/Q9/Q12/Q16/
Q20 re-express their join/aggregate shape over ``lineitem`` shipment
history -- each docstring states the exact adaptation). All big-big
equi-joins go through ``_bucket_join``: ONE coarse-bucket cogroup
exchange per join with both sides tagged, in-bucket vectorized pandas
merge, and partials pre-aggregated on the NEXT stage's key before
they leave the task. Only the fixed 25/5-row nation/region tables
ride closures.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

from .common import coalesce_for_exchange
from .exchange import cogroup

__all__ = [
    "top_revenue_supplier",
    "large_volume_orders",
    "small_quantity_revenue",
    "sole_return_suppliers",
    "revenue_share_parts",
    "discount_band_revenue",
    "late_lines_by_priority",
    "supplier_count_by_part",
    "disjunctive_revenue",
    "min_acctbal_supplier",
    "dominant_part_suppliers",
    "profit_by_nation_year",
]


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100 + 0.5).astype(np.int64)


# --------------------------------------------------------------- Q15


def top_revenue_supplier(
    lineitem: ray.data.Dataset,
    supplier: ray.data.Dataset,
    date_lo: str = "1996-01-01",
    date_hi: str = "1996-04-01",
    n_buckets: int = 64,
) -> pd.DataFrame:
    """TPC-H Q15 shape: the supplier(s) with MAX revenue in a shipdate
    window — argmax *with ties kept*, exactly as the spec's view+max
    formulation.

    Plan: per-batch partial cents per suppkey (window filter first) ->
    one narrow exchange to exact per-supplier revenue -> global max as
    a driver scalar (the per-supplier table is O(#suppliers), and the
    max is one number) -> tie-keeping filter -> only the *winners'*
    keys are looked up in supplier (broadcast of a near-singleton key
    set, never the whole supplier table).

    Output: (s_suppkey, s_name, total_revenue_c), revenue in exact
    cents, sorted by suppkey.
    """
    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        m = (ship >= lo) & (ship < hi)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)[m]
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[m]
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)[m]
        df = pd.DataFrame({"s_suppkey": sk, "rev_c": _cents(ep * (1.0 - disc))})
        g = df.groupby("s_suppkey", as_index=False)["rev_c"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_supp = (
        coalesce_for_exchange(
            lineitem.map_batches(partial, batch_format="pyarrow")
        )
        .groupby("s_suppkey")
        .aggregate(Sum("rev_c", alias_name="total_revenue_c"))
        .materialize()  # consumed twice: max scan + tie filter (tiny)
    )
    best = per_supp.max("total_revenue_c")

    winners = per_supp.map_batches(
        lambda b: b.filter(pc.equal(b["total_revenue_c"], best)),
        batch_format="pyarrow",
    ).to_pandas()

    keys = set(winners["s_suppkey"].tolist())
    names = supplier.map_batches(
        lambda b: b.filter(
            pa.array(np.isin(b["s_suppkey"].to_numpy(zero_copy_only=False), list(keys)))
        ).select(["s_suppkey", "s_name"]),
        batch_format="pyarrow",
    ).to_pandas()

    out = winners.merge(names, on="s_suppkey", how="inner")
    out = out[["s_suppkey", "s_name", "total_revenue_c"]]
    return out.sort_values("s_suppkey").reset_index(drop=True)


# --------------------------------------------------------------- Q18


def large_volume_orders(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    customer: ray.data.Dataset,
    min_qty: int = 250,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds
    ``min_qty``, enriched with customer name and the order row.

    The HAVING runs FIRST and entirely on pre-aggregated partials
    (quantities are integer-valued, so the sums are exact int64); the
    surviving orderkey set is tiny by construction (a threshold tail —
    ~1% of orders at min_qty=250), so both enrichment joins are
    broadcast-probe filters over orders/customer, not exchanges.

    Output: (c_name, o_custkey, o_orderkey, o_orderdate,
    o_totalprice_c, sum_qty).
    """

    def qty_partial(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"o_orderkey": ok, "sum_qty": q})
        g = df.groupby("o_orderkey", as_index=False)["sum_qty"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    survivors = (
        coalesce_for_exchange(
            lineitem.map_batches(qty_partial, batch_format="pyarrow")
        )
        .groupby("o_orderkey")
        .aggregate(Sum("sum_qty", alias_name="sum_qty"))
        .map_batches(  # vectorized HAVING: the agg is per-ORDER sized
            lambda b: b.filter(pc.greater(b["sum_qty"], min_qty)),
            batch_format="pyarrow",
        )
        .to_pandas()  # threshold tail: tiny by construction
    )
    ok_set_ref = ray.put(
        np.sort(survivors["o_orderkey"].to_numpy(np.int64))
    )

    def probe_orders(batch: pa.Table) -> pa.Table:
        keys = ray.get(ok_set_ref)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        flt = batch.filter(pa.array(np.isin(ok, keys)))
        price_c = _cents(flt["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "o_orderkey": flt["o_orderkey"],
                "o_custkey": flt["o_custkey"],
                "o_orderdate": flt["o_orderdate"],
                "o_totalprice_c": pa.array(price_c, pa.int64()),
            }
        )

    hit_orders = orders.map_batches(
        probe_orders, batch_format="pyarrow"
    ).to_pandas()

    ck_set_ref = ray.put(
        np.sort(hit_orders["o_custkey"].unique().astype(np.int64))
    )

    def probe_cust(batch: pa.Table) -> pa.Table:
        keys = ray.get(ck_set_ref)
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ck, keys))).select(
            ["c_custkey", "c_name"]
        )

    names = customer.map_batches(probe_cust, batch_format="pyarrow").to_pandas()

    out = (
        hit_orders.merge(survivors, on="o_orderkey")
        .merge(names, left_on="o_custkey", right_on="c_custkey")
        .drop(columns=["c_custkey"])
    )
    out = out[
        ["c_name", "o_custkey", "o_orderkey", "o_orderdate",
         "o_totalprice_c", "sum_qty"]
    ]
    return out.sort_values(
        ["o_totalprice_c", "o_orderkey"], ascending=[False, True]
    ).reset_index(drop=True)


# --------------------------------------------------------------- Q17


def small_quantity_revenue(
    lineitem: ray.data.Dataset,
    part: ray.data.Dataset,
    max_size: int = 5,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """TPC-H Q17 shape: total price of lineitems whose quantity is
    below 20% of the per-part average quantity, for small parts
    (``p_size <= max_size``).

    The correlated scalar subquery decorrelates into (1) a per-part
    (sum_qty, cnt) aggregate over the *selected* parts only, and
    (2) a scoring pass that re-probes lineitem with the aggregate
    broadcast. The fractional predicate ``qty < 0.2 * sum/cnt`` is
    evaluated in exact integer math as ``5*qty*cnt < sum_qty`` —
    bit-reproducible and oracle-replayable with no float divide.

    Output: one row, (total_price_c,).
    """

    part_keys = part.map_batches(
        lambda b: b.filter(
            pa.compute.less_equal(b["p_size"], max_size)
        ).select(["p_partkey"]),
        batch_format="pyarrow",
    ).to_pandas()["p_partkey"].to_numpy(np.int64)
    pk_ref = ray.put(np.sort(part_keys))

    def agg_partial(batch: pa.Table) -> pa.Table:
        sel = ray.get(pk_ref)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        m = np.isin(pk, sel)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)[m].astype(np.int64)
        df = pd.DataFrame({"l_partkey": pk[m], "sum_qty": q, "cnt": 1})
        g = df.groupby("l_partkey", as_index=False).agg(
            sum_qty=("sum_qty", "sum"), cnt=("cnt", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # materialized once: the per-part aggregate is consumed on the
    # driver (broadcast dict) and is O(#selected parts), not O(rows)
    per_part = (
        coalesce_for_exchange(
            lineitem.map_batches(agg_partial, batch_format="pyarrow")
        )
        .groupby("l_partkey")
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("cnt", alias_name="cnt"),
        )
        .to_pandas()
    )
    per_part = per_part.sort_values("l_partkey")
    agg_ref = ray.put(
        (
            per_part["l_partkey"].to_numpy(np.int64),
            per_part["sum_qty"].to_numpy(np.int64),
            per_part["cnt"].to_numpy(np.int64),
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        keys, sumq, cnt = ray.get(agg_ref)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, pk)
        idx_c = np.clip(idx, 0, len(keys) - 1) if len(keys) else idx
        hit = (
            (keys[idx_c] == pk) & (5 * q * cnt[idx_c] < sumq[idx_c])
            if len(keys)
            else np.zeros(len(pk), bool)
        )
        total = int(_cents(ep)[hit].sum())
        return pa.table({"partial_c": pa.array([total], pa.int64())})

    total_c = lineitem.map_batches(score, batch_format="pyarrow").sum(
        "partial_c"
    )
    return pd.DataFrame({"total_price_c": [int(total_c)]})


# --------------------------------------------------------------- Q21


def sole_return_suppliers(
    lineitem: ray.data.Dataset,
    supplier: ray.data.Dataset,
    top_k: int = 25,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """TPC-H Q21 shape (EXISTS + NOT-EXISTS multi-self-join), adapted
    to this corpus' columns: suppliers that were the SOLE supplier
    with a returned line on a multi-supplier order, counted per
    supplier.

    The spec's two correlated self-joins both collapse into one
    per-orderkey cogroup: EXISTS(another supplier on the order) is
    ``n_distinct_suppliers >= 2`` and NOT-EXISTS(another supplier who
    also returned) is ``n_distinct_returners == 1`` — set tests inside
    the group, no self-join exchange. Per-batch collapse to distinct
    (orderkey, suppkey, returned-any) keeps the single exchange narrow;
    the bucket task emits per-supplier partial counts.

    Output: top ``top_k`` by (numwait DESC, s_suppkey ASC) with names
    attached by a winners-only broadcast lookup.
    """

    def collapse(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "ok": batch["l_orderkey"].to_numpy(zero_copy_only=False),
                "sk": batch["l_suppkey"].to_numpy(zero_copy_only=False),
                "ret": (
                    batch["l_returnflag"].to_numpy(zero_copy_only=False) == "R"
                ).astype(np.int8),
            }
        )
        g = df.groupby(["ok", "sk"], as_index=False)["ret"].max()
        return pa.Table.from_pandas(g, preserve_index=False)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # exact per-orderkey fold (per-batch partials may split an
        # orderkey): re-collapse, then the two set tests
        g = group.groupby(["ok", "sk"], as_index=False)["ret"].max()
        st = g.groupby("ok").agg(ns=("sk", "nunique"), nr=("ret", "sum"))
        sole = st[(st["ns"] >= 2) & (st["nr"] == 1)].index
        winners = g[g["ok"].isin(sole) & (g["ret"] == 1)]
        out = winners.groupby("sk", as_index=False).size()
        return out.rename(columns={"sk": "s_suppkey", "size": "numwait"})

    counts = (
        cogroup(
            {"group": (lineitem.map_batches(collapse, batch_format="pyarrow"), "ok")},
            lambda group: per_bucket(group.to_pandas()),
            lambda group: pa.schema([("s_suppkey", group.field("sk").type), ("numwait", pa.int64())]),
            n_buckets=n_buckets,
            coalesce=True,
        )
        .groupby("s_suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
        .to_pandas()  # O(#suppliers) rows
    )
    counts = counts.sort_values(
        ["numwait", "s_suppkey"], ascending=[False, True]
    ).head(top_k)

    keys = set(counts["s_suppkey"].tolist())
    names = supplier.map_batches(
        lambda b: b.filter(
            pa.array(
                np.isin(b["s_suppkey"].to_numpy(zero_copy_only=False), list(keys))
            )
        ).select(["s_suppkey", "s_name"]),
        batch_format="pyarrow",
    ).to_pandas()

    out = counts.merge(names, on="s_suppkey")
    return out[["s_suppkey", "s_name", "numwait"]].reset_index(drop=True)


# --------------------------------------------------------------- Q11


def revenue_share_parts(
    lineitem: ray.data.Dataset,
    mult_num: int = 5,
    mult_den: int = 4,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q11 shape: parts whose revenue exceeds a multiple of the
    AVERAGE per-part revenue — a global scalar aggregate feeding a
    threshold filter over the per-key aggregate. (Average-relative,
    not total-relative, so the predicate is scale-invariant: a fixed
    fraction of the total selects nothing once #parts grows past the
    fraction's reciprocal.)

    The per-part table is built once (pre-aggregated partials, one
    narrow exchange) and materialized; the global total and part count
    are two driver scalars off it. The cutoff folds to an exact
    integer threshold on the driver
    (``rev_c * den * n_parts > num * total``  <=>
    ``rev_c >= (num*total)//(den*n_parts) + 1`` in unbounded Python
    ints — no int64 overflow, no float), then applies as a cheap
    broadcast filter. Output: (l_partkey, revenue_c) above the cut.
    """

    def partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"l_partkey": pk, "revenue_c": _cents(ep * (1.0 - disc))})
        g = df.groupby("l_partkey", as_index=False)["revenue_c"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_part = (
        coalesce_for_exchange(
            lineitem.map_batches(partial, batch_format="pyarrow")
        )
        .groupby("l_partkey")
        .aggregate(Sum("revenue_c", alias_name="revenue_c"))
        .materialize()  # consumed twice: total scan + threshold filter
    )
    total = int(per_part.sum("revenue_c"))
    n_parts = int(per_part.count())
    # rev_c*den*n > num*total  <=>  rev_c >= (num*total)//(den*n) + 1
    # (unbounded Python ints -> no int64 overflow at any scale)
    thr = (mult_num * total) // (mult_den * n_parts) + 1

    return per_part.map_batches(
        lambda b: b.filter(pc.greater_equal(b["revenue_c"], thr)),
        batch_format="pyarrow",
    )


def _rev_cents(ep: np.ndarray, disc: np.ndarray) -> np.ndarray:
    return np.floor(ep * (1.0 - disc) * 100 + 0.5).astype(np.int64)


def _bucket_join(
    fact: tuple,
    dim: tuple,
    post: Callable[[pd.DataFrame, pd.DataFrame], pd.DataFrame],
    out_schema: pa.Schema,
    n_buckets: int,
) -> ray.data.Dataset:
    """One coarse-bucket cogroup on the ``key`` column: ``fact`` and
    ``dim`` are ``(ds, payload schema)`` pairs, and ``post(facts,
    dims)`` runs once per bucket on the two pandas sides and returns
    the (pre-aggregated) partial rows for the next stage."""
    return cogroup(
        {"facts": (fact[0], "key", fact[1]), "dims": (dim[0], "key", dim[1])},
        lambda facts, dims: post(facts.to_pandas(), dims.to_pandas()),
        out_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )


_I64 = pa.int64()
_REVENUE = pa.schema([("revenue_c", _I64)])


def _single_fold(
    partials: ray.data.Dataset,
    fold: Callable[[pd.DataFrame], pd.DataFrame],
    out_schema: pa.Schema,
) -> ray.data.Dataset:
    """Fold a tiny partial stream (one row per upstream batch) in one
    task — the driver never touches rows."""
    key = out_schema.names[0]
    return cogroup(
        {"rows": (partials, key)},
        lambda rows: fold(rows.to_pandas()),
        out_schema,
        n_buckets=1,
        coalesce=False,
    )


# ---------------------------------------------------------------------------
# Q6 — forecasting revenue change: pure filter + scan aggregate
# ---------------------------------------------------------------------------


def discount_band_revenue(
    lineitem: ray.data.Dataset,
    year: int = 1996,
    disc_lo_pm: int = 5,
    disc_hi_pm: int = 7,
    max_qty: int = 24,
) -> ray.data.Dataset:
    """TPC-H Q6: revenue (``sum(extendedprice*discount)``, exact
    cents) that would be recovered by eliminating discounts in the
    [lo, hi] percent band for small-quantity lines shipped in one
    year. Map-only — one int64 partial per batch, a single-task fold,
    zero corpus-sized exchange; the discount filter compares exact
    integer permille (``floor(disc*100+0.5)``), never floats."""

    def partial(batch: pa.Table) -> pa.Table:
        ship_year = pc.year(batch["l_shipdate"]).to_numpy(
            zero_copy_only=False
        )
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        disc_pm = _cents(disc)  # discount in integer percent units
        keep = (
            (ship_year == year)
            & (disc_pm >= disc_lo_pm)
            & (disc_pm <= disc_hi_pm)
            & (qty < max_qty)
        )
        rev = np.floor(ep[keep] * disc[keep] * 100 + 0.5).astype(np.int64)
        return pa.table({"revenue_c": [int(rev.sum())]})

    return _single_fold(
        lineitem.map_batches(partial, batch_format="pyarrow"),
        lambda df: pd.DataFrame(
            {"revenue_c": np.array([df["revenue_c"].sum()], np.int64)}
        ),
        _REVENUE,
    )


# ---------------------------------------------------------------------------
# Q12 — shipping-delay vs order priority (adapted: no shipmode column;
# "late" = shipped > `late_days` days after the order date)
# ---------------------------------------------------------------------------


def late_lines_by_priority(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    late_days: int = 60,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q12 shape: one big-big orderkey cogroup between lineitem
    and orders, then a conditional aggregate per order priority —
    late (shipped > ``late_days`` after the order date) vs total line
    counts. The in-bucket pre-aggregate leaves at most
    ``n_priorities`` rows per bucket for the final tiny groupby."""

    def tag_li(batch: pa.Table) -> pa.Table:
        k = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ship = batch["l_shipdate"].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False
        )
        day = (ship.astype("datetime64[D]").astype(np.int64)).astype(
            np.int64
        )
        return pa.table({"key": k, "day": day})

    def tag_od(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        od = batch["o_orderdate"].cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False
        )
        day = od.astype("datetime64[D]").astype(np.int64)
        return pa.table({"key": k, "day": day, "prio": batch["o_orderpriority"]})

    def post(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[["key", "day"]].merge(
            dims[["key", "day", "prio"]].rename(
                columns={"day": "oday"}
            ),
            on="key",
            how="inner",
        )
        late = (
            m["day"].to_numpy(np.int64)
            - m["oday"].to_numpy(np.int64)
        ) > late_days
        g = (
            pd.DataFrame({"prio": m["prio"], "late": late.astype(np.int64)})
            .groupby("prio", as_index=False)
            .agg(n_late=("late", "sum"), n_lines=("late", "size"))
        )
        return pd.DataFrame(
            {
                "o_orderpriority": g["prio"],
                "n_late": g["n_late"].to_numpy(np.int64),
                "n_lines": g["n_lines"].to_numpy(np.int64),
            }
        )

    key_day = [("key", _I64), ("day", _I64)]
    joined = _bucket_join(
        (lineitem.map_batches(tag_li, batch_format="pyarrow"), pa.schema(key_day)),
        (
            orders.map_batches(tag_od, batch_format="pyarrow"),
            pa.schema(key_day + [("prio", pa.string())]),
        ),
        post,
        pa.schema(
            [("o_orderpriority", pa.string()), ("n_late", _I64), ("n_lines", _I64)]
        ),
        n_buckets,
    )
    return joined.groupby("o_orderpriority").aggregate(
        Sum("n_late", alias_name="n_late"),
        Sum("n_lines", alias_name="n_lines"),
    )


# ---------------------------------------------------------------------------
# Q16 — distinct shipping suppliers per (brand, type), one brand excluded
# ---------------------------------------------------------------------------


def supplier_count_by_part(
    lineitem: ray.data.Dataset,
    part: ray.data.Dataset,
    exclude_brand: str = "Brand#5",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q16 shape (partsupp re-expressed over shipments): count
    of DISTINCT suppliers that shipped each (p_brand, p_type) family,
    excluding one brand. Two exchanges: a partkey cogroup (lineitem
    pairs pre-distincted per batch AND per bucket) then a (brand,
    type) exchange of already-distinct narrow triples, where nunique
    is exact because each (brand, type) lands in one bucket."""

    def tag_li(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": batch["l_partkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "supp": batch["l_suppkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def tag_part(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch["p_brand"], exclude_brand)
        t = batch.filter(keep)
        k = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"key": k, "brand": t["p_brand"], "ptype": t["p_type"]})

    def post(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = (
            facts[["key", "supp"]]
            .drop_duplicates()
            .merge(
                dims[["key", "brand", "ptype"]], on="key", how="inner"
            )
        )
        m = m[["brand", "ptype", "supp"]].drop_duplicates()
        return m.assign(bt=m["brand"] + "\x1f" + m["ptype"])

    s64 = pa.string()
    triples = _bucket_join(
        (
            lineitem.map_batches(tag_li, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("supp", _I64)]),
        ),
        (
            part.map_batches(tag_part, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("brand", s64), ("ptype", s64)]),
        ),
        post,
        pa.schema([("brand", s64), ("ptype", s64), ("supp", _I64), ("bt", s64)]),
        n_buckets,
    )

    def count_distinct(group: pd.DataFrame) -> pd.DataFrame:
        g = (
            group[["brand", "ptype", "supp"]]
            .drop_duplicates()
            .groupby(["brand", "ptype"], as_index=False)
            .agg(supplier_cnt=("supp", "size"))
        )
        return pd.DataFrame(
            {
                "p_brand": g["brand"],
                "p_type": g["ptype"],
                "supplier_cnt": g["supplier_cnt"].to_numpy(np.int64),
            }
        )

    return cogroup(
        {"group": (triples, "bt")},
        lambda group: count_distinct(group.to_pandas()),
        pa.schema([("p_brand", s64), ("p_type", s64), ("supplier_cnt", _I64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )


# ---------------------------------------------------------------------------
# Q19 — disjunctive brand/quantity/size predicate revenue
# ---------------------------------------------------------------------------


def disjunctive_revenue(
    lineitem: ray.data.Dataset,
    part: ray.data.Dataset,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q19: one partkey cogroup, then a vectorized OR-of-ANDs
    predicate over (brand, quantity band, size band); the three arms
    use the spec's graduated bands. Single int64 revenue result."""
    ARMS = (
        ("Brand#1", 1, 11, 1, 5),
        ("Brand#2", 10, 20, 1, 10),
        ("Brand#3", 20, 30, 1, 15),
    )

    def tag_li(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        qty = (
            batch["l_quantity"]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table({"key": k, "qty": qty, "rev_c": _rev_cents(ep, disc)})

    def tag_part(batch: pa.Table) -> pa.Table:
        k = batch["p_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "key": k,
                "size": batch["p_size"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "brand": batch["p_brand"],
            }
        )

    def post(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[["key", "qty", "rev_c"]].merge(
            dims[["key", "size", "brand"]], on="key", how="inner"
        )
        qty = m["qty"].to_numpy(np.int64)
        size = m["size"].to_numpy(np.int64)
        brand = m["brand"].to_numpy()
        keep = np.zeros(len(m), bool)
        for b, qlo, qhi, slo, shi in ARMS:
            keep |= (
                (brand == b)
                & (qty >= qlo)
                & (qty <= qhi)
                & (size >= slo)
                & (size <= shi)
            )
        return pd.DataFrame(
            {
                "revenue_c": np.array(
                    [m["rev_c"].to_numpy(np.int64)[keep].sum()], np.int64
                )
            }
        )

    partials = _bucket_join(
        (
            lineitem.map_batches(tag_li, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("qty", _I64), ("rev_c", _I64)]),
        ),
        (
            part.map_batches(tag_part, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("size", _I64), ("brand", pa.string())]),
        ),
        post,
        _REVENUE,
        n_buckets,
    )
    return _single_fold(
        partials,
        lambda df: pd.DataFrame(
            {"revenue_c": np.array([df["revenue_c"].sum()], np.int64)}
        ),
        _REVENUE,
    )


# ---------------------------------------------------------------------------
# Q2 — cheapest-capital supplier per filtered part within a region
# ---------------------------------------------------------------------------


def min_acctbal_supplier(
    lineitem: ray.data.Dataset,
    supplier: ray.data.Dataset,
    part: ray.data.Dataset,
    nation: pd.DataFrame,
    region_name: str = "EUROPE",
    p_size: int = 15,
    p_type: str = "SMALL",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q2 shape (supplycost re-expressed as account balance over
    shipment history): for every part of one size+type, the
    region-resident supplier that shipped it with the MINIMUM account
    balance (ties broken by suppkey — the decorrelated min-subquery
    shape). Exchanges: suppkey cogroup (distinct shipment pairs x
    supplier, region-filtered via the broadcast 25-row nation map),
    then a partkey cogroup whose per-bucket argmin is exact because a
    part's candidates all land in its bucket."""
    if "r_name" in nation.columns:
        region_nats = set(
            int(k)
            for k in nation.loc[
                nation["r_name"] == region_name, "n_nationkey"
            ]
        )
    else:  # fall back: treat regionkey as resolvable via n_regionkey
        raise ValueError("nation frame must carry r_name")

    def tag_li(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": batch["l_suppkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "part": batch["l_partkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def tag_su(batch: pa.Table) -> pa.Table:
        k = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "key": k,
                "acct_c": _cents(
                    batch["s_acctbal"].to_numpy(zero_copy_only=False)
                ),
                "nat": batch["s_nationkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )

    def post1(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        d = dims[dims["nat"].isin(region_nats)]
        m = (
            facts[["key", "part"]]
            .drop_duplicates()
            .merge(d[["key", "acct_c"]], on="key", how="inner")
        )
        # per (part) keep only this bucket's best candidate: exact,
        # the global argmin is the min over bucket-local argmins
        m = m.sort_values(["part", "acct_c", "key"]).drop_duplicates(
            "part"
        )
        return pd.DataFrame(
            {
                "key": m["part"].to_numpy(np.int64),  # partkey now
                "supp": m["key"].to_numpy(np.int64),
                "acct_c": m["acct_c"].to_numpy(np.int64),
            }
        )

    cand_schema = pa.schema([("key", _I64), ("supp", _I64), ("acct_c", _I64)])
    cands = _bucket_join(
        (
            lineitem.map_batches(tag_li, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("part", _I64)]),
        ),
        (
            supplier.map_batches(tag_su, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("acct_c", _I64), ("nat", _I64)]),
        ),
        post1,
        cand_schema,
        n_buckets,
    )

    def tag_part(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch["p_size"], p_size),
            pc.equal(batch["p_type"], p_type),
        )
        t = batch.filter(keep)
        k = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"key": k})

    def post2(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[facts["key"].isin(set(dims["key"]))]
        m = m.sort_values(["key", "acct_c", "supp"]).drop_duplicates(
            "key"
        )
        return pd.DataFrame(
            {
                "p_partkey": m["key"].to_numpy(np.int64),
                "s_suppkey": m["supp"].to_numpy(np.int64),
                "acctbal_c": m["acct_c"].to_numpy(np.int64),
            }
        )

    return _bucket_join(
        (cands, cand_schema),
        (part.map_batches(tag_part, batch_format="pyarrow"), pa.schema([("key", _I64)])),
        post2,
        pa.schema([("p_partkey", _I64), ("s_suppkey", _I64), ("acctbal_c", _I64)]),
        n_buckets,
    )


# ---------------------------------------------------------------------------
# Q20 — suppliers that dominate a part's shipped volume
# ---------------------------------------------------------------------------


def dominant_part_suppliers(
    lineitem: ray.data.Dataset,
    part: ray.data.Dataset,
    name_token: str = "plate",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q20 shape (availqty-vs-half-demand re-expressed over
    shipments): per part whose name contains ``name_token``, the
    LEADING supplier by shipped quantity (ties broken by suppkey) with
    the exact integer share numerators (supp_qty, total_qty) — the
    spec's ``> 0.5 * demand`` test is a caller-side threshold on these
    two columns (on the uniform synthetic corpus no supplier clears
    50%, so the operator reports the exact leader + share instead of a
    degenerate empty set). One partkey exchange of per-(part, supp)
    quantity partials (pre-summed per batch) co-grouped with the
    name-filtered part dim; the per-bucket argmax is exact because a
    part's rows all land in its bucket."""

    def tag_li(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "key": batch["l_partkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "supp": batch["l_suppkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "qty": batch["l_quantity"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = df.groupby(["key", "supp"], as_index=False)["qty"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    def tag_part(batch: pa.Table) -> pa.Table:
        keep = pc.match_substring(batch["p_name"], name_token)
        t = batch.filter(keep)
        k = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"key": k})

    def post(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[facts["key"].isin(set(dims["key"]))]
        g = m.groupby(["key", "supp"], as_index=False)["qty"].sum()
        g["total_qty"] = g.groupby("key")["qty"].transform("sum")
        lead = g.sort_values(
            ["key", "qty", "supp"], ascending=[True, False, True]
        ).drop_duplicates("key")
        return pd.DataFrame(
            {
                "p_partkey": lead["key"].to_numpy(np.int64),
                "l_suppkey": lead["supp"].to_numpy(np.int64),
                "supp_qty": lead["qty"].to_numpy(np.int64),
                "total_qty": lead["total_qty"].to_numpy(np.int64),
            }
        )

    return _bucket_join(
        (
            lineitem.map_batches(tag_li, batch_format="pyarrow"),
            pa.schema([("key", _I64), ("supp", _I64), ("qty", _I64)]),
        ),
        (part.map_batches(tag_part, batch_format="pyarrow"), pa.schema([("key", _I64)])),
        post,
        pa.schema(
            [("p_partkey", _I64), ("l_suppkey", _I64), ("supp_qty", _I64),
             ("total_qty", _I64)]
        ),
        n_buckets,
    )


# ---------------------------------------------------------------------------
# Q9 — profit by supplier nation and order year for a part-name family
# ---------------------------------------------------------------------------


def profit_by_nation_year(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    supplier: ray.data.Dataset,
    part: ray.data.Dataset,
    nation: pd.DataFrame,
    name_token: str = "red",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """TPC-H Q9 shape (supplycost re-expressed as the part's retail
    price): profit = revenue - quantity*retail, exact integer cents,
    for parts whose name contains ``name_token``, grouped by supplier
    nation and order year. Three chained big-big cogroups (partkey ->
    orderkey -> suppkey), each pre-aggregated on the next key; nation
    names attach from the broadcast 25-row table at the end."""

    def tag_li(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": k,
                "a": batch["l_orderkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "b": batch["l_suppkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "qty": batch["l_quantity"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "money": _rev_cents(ep, disc),
            }
        )

    def tag_part(batch: pa.Table) -> pa.Table:
        keep = pc.match_substring(batch["p_name"], name_token)
        t = batch.filter(keep)
        k = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "key": k,
                "money": _cents(
                    t["p_retailprice"].to_numpy(zero_copy_only=False)
                ),
            }
        )

    # stage 1: x part on partkey -> profit per (orderkey, suppkey)
    def post1(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[["key", "a", "b", "qty", "money"]].merge(
            dims[["key", "money"]].rename(columns={"money": "retail_c"}),
            on="key",
            how="inner",
        )
        profit = m["money"].to_numpy(np.int64) - m["qty"].to_numpy(
            np.int64
        ) * m["retail_c"].to_numpy(np.int64)
        g = (
            pd.DataFrame(
                {"a": m["a"], "b": m["b"], "profit_c": profit}
            )
            .groupby(["a", "b"], as_index=False)["profit_c"]
            .sum()
        )
        return pd.DataFrame(
            {
                "key": g["a"].to_numpy(np.int64),  # orderkey
                "a": g["b"].to_numpy(np.int64),  # suppkey
                "b": np.zeros(len(g), np.int64),
                "money": g["profit_c"].to_numpy(np.int64),
            }
        )

    key_money = pa.schema([("key", _I64), ("money", _I64)])
    stage = pa.schema([("key", _I64), ("a", _I64), ("b", _I64), ("money", _I64)])
    s1 = _bucket_join(
        (
            lineitem.map_batches(tag_li, batch_format="pyarrow"),
            pa.schema(
                [("key", _I64), ("a", _I64), ("b", _I64), ("qty", _I64), ("money", _I64)]
            ),
        ),
        (part.map_batches(tag_part, batch_format="pyarrow"), key_money),
        post1,
        stage,
        n_buckets,
    )

    def tag_orders(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        yr = pc.year(batch["o_orderdate"]).to_numpy(zero_copy_only=False)
        return pa.table({"key": k, "a": yr.astype(np.int64)})

    def tag_su(batch: pa.Table) -> pa.Table:
        k = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "key": k,
                "a": batch["s_nationkey"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )

    # stage 2: x orders on orderkey -> key=suppkey, b=o_year
    def post2(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[["key", "a", "money"]].merge(
            dims[["key", "a"]].rename(columns={"a": "o_year"}),
            on="key",
            how="inner",
        )
        g = m.groupby(["a", "o_year"], as_index=False)["money"].sum()
        return pd.DataFrame(
            {
                "key": g["a"].to_numpy(np.int64),  # suppkey
                "a": np.zeros(len(g), np.int64),
                "b": g["o_year"].to_numpy(np.int64),
                "money": g["money"].to_numpy(np.int64),
            }
        )

    key_a = pa.schema([("key", _I64), ("a", _I64)])
    s2 = _bucket_join(
        (s1, stage),
        (orders.map_batches(tag_orders, batch_format="pyarrow"), key_a),
        post2,
        stage,
        n_buckets,
    )

    # stage 3: x supplier on suppkey -> (s_nat, o_year)
    def post3(facts: pd.DataFrame, dims: pd.DataFrame) -> pd.DataFrame:
        m = facts[["key", "b", "money"]].merge(
            dims[["key", "a"]].rename(columns={"a": "s_nat"}),
            on="key",
            how="inner",
        )
        g = m.groupby(["s_nat", "b"], as_index=False)["money"].sum()
        return pd.DataFrame(
            {
                "s_nat": g["s_nat"].to_numpy(np.int64),
                "o_year": g["b"].to_numpy(np.int64),
                "profit_part": g["money"].to_numpy(np.int64),
            }
        )

    s3 = _bucket_join(
        (s2, stage),
        (supplier.map_batches(tag_su, batch_format="pyarrow"), key_a),
        post3,
        pa.schema([("s_nat", _I64), ("o_year", _I64), ("profit_part", _I64)]),
        n_buckets,
    )

    agg = s3.groupby(["s_nat", "o_year"]).aggregate(
        Sum("profit_part", alias_name="profit_c")
    )
    names = nation[["n_nationkey", "n_name"]]

    def attach(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().merge(
            names, left_on="s_nat", right_on="n_nationkey", how="inner"
        )
        return pa.Table.from_pandas(
            df[["n_name", "o_year", "profit_c"]], preserve_index=False
        )

    return agg.map_batches(attach, batch_format="pyarrow")
