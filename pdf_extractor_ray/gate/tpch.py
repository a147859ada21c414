"""Gate queries over the TPC-H tables."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from pdf_extractor_ray.functions.common import sized_read_parquet as _rp
from pdf_extractor_ray.functions.exchange import cogroup
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _cents, _t


@register("q1_pricing", bench=True, oracle="""
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_quantity*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_c,
                   CAST(sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_c,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_c,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
        """)
def _q_q1_pricing(sf_dir: str):
    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_c": _cents(batch["l_quantity"]),
                "base_c": _cents(batch["l_extendedprice"]),
                "disc_c": _cents(disc),
            }
        )
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty_c=("qty_c", "sum"),
            sum_base_c=("base_c", "sum"),
            sum_disc_c=("disc_c", "sum"),
            n_rows=("qty_c", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty_c", alias_name="sum_qty_c"),
            Sum("sum_base_c", alias_name="sum_base_c"),
            Sum("sum_disc_c", alias_name="sum_disc_c"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )


@register("q3_top_orders", bench=True, oracle="""
            WITH rev AS (
                SELECT l_orderkey,
                       CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c
                FROM lineitem GROUP BY l_orderkey
            )
            SELECT rev.l_orderkey, rev.revenue_c
            FROM rev
            JOIN orders o ON o.o_orderkey = rev.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = 'BUILDING'
            ORDER BY revenue_c DESC, rev.l_orderkey
            LIMIT 10
        """)
def _q_q3_top_orders(sf_dir: str):
    import pyarrow.parquet as pq

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = pq.read_table(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    ).to_pandas()
    customer = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()

    # Broadcast semi-join BEFORE the aggregation: only lineitems of
    # BUILDING-segment orders enter the shuffle (~1/5 of keys), the
    # rest never leave their batch.
    seg_keys = np.sort(
        orders.merge(
            customer.loc[customer["c_mktsegment"] == "BUILDING", ["c_custkey"]],
            left_on="o_custkey",
            right_on="c_custkey",
        )["o_orderkey"].to_numpy()
    )
    keys_ref = ray.put(seg_keys)

    # Stateless task, not an actor pool: ray.get of a numpy array is a
    # zero-copy plasma read, so re-"loading" the broadcast per batch is
    # free and the task form skips the actor pool's slow ramp-up.
    def partial(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, ok)
        idx[idx >= len(keys)] = 0
        mask = keys[idx] == ok
        batch = batch.filter(pa.array(mask))
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        df = pa.table(
            {"l_orderkey": batch["l_orderkey"], "rev_c": _cents(disc)}
        ).to_pandas()
        g = df.groupby("l_orderkey", as_index=False).agg(
            revenue_c=("rev_c", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # Coarse orderkey-bucket exchange, in-bucket merge, and per-bucket
    # top-10 pruning (the global top-10 is a subset of the union of
    # bucket top-10s) — the final sort sees 256 x 10 rows, and no
    # order-cardinality group set ever hits the aggregate machinery.
    def bucket_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("l_orderkey", as_index=False).agg(
            revenue_c=("revenue_c", "sum")
        )
        return g.sort_values(
            ["revenue_c", "l_orderkey"], ascending=[False, True]
        ).head(10)

    per_order = cogroup(
        {"group": (lineitem.map_batches(partial, batch_format="pyarrow"), "l_orderkey")},
        lambda group: bucket_topk(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )
    return per_order.sort(
        ["revenue_c", "l_orderkey"], descending=[True, False]
    ).limit(10)


@register("pricing_rollup", oracle="""
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_c,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """)
def _q_pricing_rollup(sf_dir: str):
    """Grouping-sets rollup: revenue at (flag, status), (flag), and
    grand-total levels, each from the SAME per-batch partials — the
    fine-grained aggregate re-aggregates to the coarser levels without
    touching the fact table again. NULL group keys encode the level
    (SQL ROLLUP convention)."""
    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "rev_c": _cents(disc),
            }
        )
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            revenue_c=("rev_c", "sum"), n_rows=("rev_c", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("revenue_c", alias_name="revenue_c"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )
    fine_df = fine.to_pandas()  # tiny (6 rows)
    by_flag = (
        fine_df.groupby("l_returnflag", as_index=False)[["revenue_c", "n_rows"]]
        .sum()
        .assign(l_linestatus=None)
    )
    total = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "revenue_c": [fine_df["revenue_c"].sum()],
            "n_rows": [fine_df["n_rows"].sum()],
        }
    )
    cols = ["l_returnflag", "l_linestatus", "revenue_c", "n_rows"]
    return pd.concat(
        [fine_df[cols], by_flag[cols], total[cols]], ignore_index=True
    )


@register("anti_join", oracle="""
            -- Customers with no URGENT order, per nation; balance in
            -- exact cents (floor(x*100 + 0.5), the repo money rule).
            SELECT c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_customers,
                   CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS acctbal_c
            FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
            )
            GROUP BY c_nationkey
        """)
def _q_anti_join(sf_dir: str):
    """Big-big anti join (TPC-H Q22 core): customers with no URGENT
    order, per nation — bucket cogroup with per-batch distinct
    collapse on the order side and in-bucket pre-aggregation. (Every
    customer in this corpus has SOME order, so the filter keeps the
    anti-join non-degenerate.)"""
    from pdf_extractor_ray.functions.relational import customers_without_orders

    customer = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderpriority"]
    )

    def urgent_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.equal(batch["o_orderpriority"], "1-URGENT")
        ).select(["o_custkey"])

    return customers_without_orders(
        customer, orders.map_batches(urgent_only, batch_format="pyarrow")
    )


@register("semi_join", oracle="""
            -- Orders with at least one returned lineitem (EXISTS, not
            -- join multiplicity), per priority; price in exact cents.
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS totalprice_c
            FROM orders
            WHERE o_orderkey IN (
                SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R'
            )
            GROUP BY o_orderpriority
        """)
def _q_semi_join(sf_dir: str):
    """Big-big SEMI join (TPC-H Q4 shape): orders with >=1 returned
    lineitem, per priority — EXISTS semantics via per-batch distinct
    collapse, bucket cogroup, in-bucket pre-aggregation."""
    from pdf_extractor_ray.functions.relational import orders_with_returns

    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    lineitem = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_returnflag"]
    )
    return orders_with_returns(orders, lineitem)


@register("semi_join_bloom", oracle="""  -- identical contract: bloom only prunes
            -- Orders with at least one returned lineitem (EXISTS, not
            -- join multiplicity), per priority; price in exact cents.
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS totalprice_c
            FROM orders
            WHERE o_orderkey IN (
                SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R'
            )
            GROUP BY o_orderpriority
        """)
def _q_semi_join_bloom(sf_dir: str):
    """Same semi join through the Bloom-pushdown path (2^20-bit
    broadcast filter prunes the orders side BEFORE the exchange;
    false positives still hit the exact in-bucket check, so the
    result — and the oracle — are identical to `semi_join`)."""
    from pdf_extractor_ray.functions.relational import orders_with_returns

    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    lineitem = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_returnflag"]
    )
    return orders_with_returns(orders, lineitem, bloom_bits_p=20)


@register("custdist", oracle="""
            -- TPC-H Q13: distribution of customers by order count,
            -- zero-order customers included (LEFT OUTER).
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM (
                SELECT c.c_custkey,
                       CAST(count(o.o_custkey) AS BIGINT) AS c_count
                FROM customer c
                LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                GROUP BY c.c_custkey
            )
            GROUP BY c_count
        """)
def _q_custdist(sf_dir: str):
    """TPC-H Q13: customer count by order count, zero-order customers
    included — left-outer reduced to a histogram; the second exchange
    carries per-(bucket, c_count) rows, never per-customer rows."""
    from pdf_extractor_ray.functions.relational import customer_order_distribution

    customer = _rp(_t(sf_dir, "customer"), columns=["c_custkey"])
    orders = _rp(_t(sf_dir, "orders"), columns=["o_custkey"])
    return customer_order_distribution(customer, orders)


@register("nation_revenue", oracle="""
            SELECT n.n_name,
                   CAST(sum(CAST(floor(l.l_extendedprice *
                                       (1 - l.l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_c
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            WHERE c.c_nationkey = s.s_nationkey
            GROUP BY n.n_name
        """)
def _q_nation_revenue(sf_dir: str):
    """TPC-H Q5 shape (local supplier volume): revenue per nation from
    lineitems whose supplier and ordering customer share a nation.
    Three consecutive big-big hash joins (lineitem x orders on
    orderkey, x customer on custkey, x supplier on suppkey) — each one
    coarse-bucket cogroup exchange with in-bucket pre-aggregation on
    the NEXT key, so exchange volume shrinks monotonically; only the
    25-row nation table is broadcast."""
    from pdf_extractor_ray.functions.relational import nation_revenue

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    cu = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nat = pd.read_parquet(_t(sf_dir, "nation"))
    return nation_revenue(li, od, cu, su, nat)


@register("returns_topk", oracle="""
            WITH per AS (
                SELECT o.o_custkey AS c_custkey,
                       sum(CAST(floor(l.l_extendedprice *
                                      (1 - l.l_discount) * 100 + 0.5)
                                AS BIGINT)) AS revenue_c
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                WHERE l.l_returnflag = 'R'
                  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o.o_orderdate <  TIMESTAMP '1997-01-01'
                GROUP BY 1
            )
            SELECT c_custkey, CAST(revenue_c AS BIGINT) AS revenue_c
            FROM per
            ORDER BY revenue_c DESC, c_custkey
            LIMIT 20
        """)
def _q_returns_topk(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by returned-item revenue in
    1996. Big-big orderkey cogroup (no broadcast side) -> custkey
    bucket exchange where the per-bucket sum is the exact customer
    total, so each bucket emits only its local top-20 and the final
    sort touches <= n_buckets*20 rows."""
    from pdf_extractor_ray.functions.relational import returned_revenue_topk

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
    )
    od = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    return returned_revenue_topk(li, od, k=20)


@register("promo_revenue", oracle="""
            SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate)
                        AS BIGINT) AS ym,
                   CAST(sum(CASE WHEN p.p_type = 'ECONOMY'
                                 THEN CAST(floor(l.l_extendedprice *
                                                 (1 - l.l_discount) * 100
                                                 + 0.5) AS BIGINT)
                                 ELSE 0 END) AS BIGINT)
                       AS promo_revenue_c,
                   CAST(sum(CAST(floor(l.l_extendedprice *
                                       (1 - l.l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT)
                       AS total_revenue_c
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY 1
        """)
def _q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: per ship month, promo-part revenue vs total
    revenue (exact integer cents). part grows with the corpus, so the
    partkey join is a big-big bucket cogroup with per-(partkey, ym)
    pre-aggregation on the lineitem side — never a broadcast."""
    from pdf_extractor_ray.functions.relational import promo_revenue_by_month

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    return promo_revenue_by_month(li, pt)


@register("profile", oracle="""
            WITH s AS (
                SELECT 'l_quantity' AS col, CAST(l_quantity AS BIGINT) AS v
                FROM lineitem
                UNION ALL
                SELECT 'l_extendedprice',
                       CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                FROM lineitem
                UNION ALL
                SELECT 'l_discount',
                       CAST(floor(l_discount * 100 + 0.5) AS BIGINT)
                FROM lineitem
                UNION ALL
                SELECT 'l_tax', CAST(floor(l_tax * 100 + 0.5) AS BIGINT)
                FROM lineitem
            )
            SELECT col,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(*) - count(v) AS BIGINT) AS n_null,
                   CAST(min(v) AS BIGINT) AS min_v,
                   CAST(max(v) AS BIGINT) AS max_v,
                   CAST(sum(v) AS BIGINT) AS sum_v
            FROM s GROUP BY col
        """)
def _q_profile(sf_dir: str):
    """ANALYZE-style numeric profile of lineitem (row/null counts,
    min/max/sum; money columns in exact integer cents). One pass, one
    partial row per column per batch — no row-level shuffle."""
    from pdf_extractor_ray.functions.relational import profile_columns

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )
    return profile_columns(
        li,
        int_cols=("l_quantity",),
        cent_cols=("l_extendedprice", "l_discount", "l_tax"),
    )


@register("brand_topk", oracle="""
            WITH rev AS (
                SELECT l_partkey,
                       CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT) AS rev_c
                FROM lineitem
            )
            SELECT p.p_brand, CAST(sum(rev_c) AS BIGINT) AS revenue_c
            FROM rev JOIN part p ON p.p_partkey = rev.l_partkey
            GROUP BY p.p_brand
            ORDER BY revenue_c DESC, p_brand
            LIMIT 5
        """)
def _q_brand_topk(sf_dir: str):
    import pyarrow.parquet as pq

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    part = pq.read_table(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand"]
    ).to_pandas()

    from pdf_extractor_ray.functions.relational import brand_revenue_topk

    return brand_revenue_topk(lineitem, part, k=5, cents=True)


@register("priority_revenue", oracle="""
            WITH rev AS (
                SELECT l_orderkey,
                       CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS rev_c
                FROM lineitem GROUP BY l_orderkey
            )
            SELECT o.o_orderpriority,
                   count(*) AS n_orders,
                   CAST(sum(rev.rev_c) AS BIGINT) AS revenue_c
            FROM rev JOIN orders o ON o.o_orderkey = rev.l_orderkey
            GROUP BY o.o_orderpriority
        """)
def _q_priority_revenue(sf_dir: str):
    """Big-big hash join (native Dataset.join): revenue per priority."""
    from pdf_extractor_ray.functions.relational import order_priority_revenue

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    )
    return order_priority_revenue(lineitem, orders)


# TPC-H Q15: argmax with ties over windowed per-supplier revenue
@register("top_supplier", oracle="""
            WITH rev AS (
                SELECT l_suppkey AS s_suppkey,
                       SUM(CAST(floor(l_extendedprice*(1-l_discount)*100
                                      + 0.5) AS BIGINT)) AS total_revenue_c
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1996-04-01'
                GROUP BY 1
            )
            SELECT r.s_suppkey, s.s_name, r.total_revenue_c
            FROM rev r JOIN supplier s ON s.s_suppkey = r.s_suppkey
            WHERE r.total_revenue_c = (SELECT max(total_revenue_c) FROM rev)
        """)
def _q_top_supplier(sf_dir: str):
    """TPC-H Q15: supplier(s) with MAX revenue in a shipdate window —
    argmax with ties kept; only the winners' keys touch supplier."""
    from pdf_extractor_ray.functions.tpch_extra import top_revenue_supplier

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    supplier = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
    )
    return top_revenue_supplier(lineitem, supplier)


# TPC-H Q18: HAVING over lineitem qty, enriched from orders+customer
@register("large_volume_orders", oracle="""
            WITH t AS (
                SELECT l_orderkey,
                       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                           AS sum_qty
                FROM lineitem GROUP BY 1
                HAVING SUM(CAST(l_quantity AS BIGINT)) > 250
            )
            SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
                   CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT)
                       AS o_totalprice_c,
                   t.sum_qty
            FROM t
            JOIN orders o   ON o.o_orderkey = t.l_orderkey
            JOIN customer c ON c.c_custkey  = o.o_custkey
        """)
def _q_large_volume_orders(sf_dir: str):
    """TPC-H Q18: HAVING sum(qty) > 250 over lineitem first; the tiny
    survivor key set broadcasts back over orders + customer."""
    from pdf_extractor_ray.functions.tpch_extra import large_volume_orders

    lineitem = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity"]
    )
    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    customer = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_name"]
    )
    return large_volume_orders(lineitem, orders, customer, min_qty=250)


# TPC-H Q17: qty < 0.2*avg(qty per part) as exact ints
@register("small_qty_revenue", oracle="""
            WITH agg AS (
                SELECT l_partkey,
                       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sq,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM lineitem
                WHERE l_partkey IN
                      (SELECT p_partkey FROM part WHERE p_size <= 5)
                GROUP BY 1
            )
            SELECT CAST(COALESCE(SUM(CAST(floor(l.l_extendedprice*100 + 0.5)
                                          AS BIGINT)), 0) AS BIGINT)
                       AS total_price_c
            FROM lineitem l JOIN agg a ON a.l_partkey = l.l_partkey
            WHERE 5 * CAST(l.l_quantity AS BIGINT) * a.c < a.sq
        """)
def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17: correlated avg-quantity subquery decorrelated into a
    per-part aggregate + broadcast-probe pass; the 0.2*avg compare is
    exact integer math (5*qty*cnt < sum_qty)."""
    from pdf_extractor_ray.functions.tpch_extra import small_quantity_revenue

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    part = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size"]
    )
    return small_quantity_revenue(lineitem, part, max_size=5)


# TPC-H Q21 shape: sole returning supplier on multi-supplier orders
@register("sole_return_suppliers", oracle="""
            WITH per AS (
                SELECT l_orderkey,
                       COUNT(DISTINCT l_suppkey) AS ns,
                       COUNT(DISTINCT CASE WHEN l_returnflag = 'R'
                                           THEN l_suppkey END) AS nr,
                       MIN(CASE WHEN l_returnflag = 'R'
                                THEN l_suppkey END) AS sole_sk
                FROM lineitem GROUP BY 1
            ),
            cnt AS (
                SELECT sole_sk AS s_suppkey,
                       CAST(COUNT(*) AS BIGINT) AS numwait
                FROM per WHERE ns >= 2 AND nr = 1 GROUP BY 1
            )
            SELECT c.s_suppkey, s.s_name, c.numwait
            FROM cnt c JOIN supplier s USING (s_suppkey)
            ORDER BY c.numwait DESC, c.s_suppkey ASC
            LIMIT 25
        """)
def _q_sole_return_suppliers(sf_dir: str):
    """TPC-H Q21 shape: EXISTS + NOT-EXISTS self-joins collapsed into
    one per-orderkey cogroup (set tests in-group, no self-join)."""
    from pdf_extractor_ray.functions.tpch_extra import sole_return_suppliers

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    )
    supplier = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
    )
    return sole_return_suppliers(lineitem, supplier, top_k=25)


# 2-D Pareto skyline: NOT EXISTS domination with a strict clause
@register("pareto_parts", oracle="""
            WITH pts AS (
                SELECT p_partkey,
                       CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                           AS price_c,
                       CAST(p_size AS BIGINT) AS p_size
                FROM part
            )
            SELECT p.p_partkey, p.price_c, p.p_size
            FROM pts p
            WHERE NOT EXISTS (
                SELECT 1 FROM pts q
                WHERE q.price_c <= p.price_c AND q.p_size >= p.p_size
                  AND (q.price_c < p.price_c OR q.p_size > p.p_size)
            )
        """)
def _q_pareto_parts(sf_dir: str):
    """2-D Pareto skyline of parts (min price, max size): per-block
    local skyline prune, then a single-task merge of the candidates —
    the exchange carries skylines, never the table."""
    from pdf_extractor_ray.functions.skyline import skyline_2d

    part = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        price = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "price_c": pa.array(
                    np.floor(price * 100 + 0.5).astype(np.int64)
                ),
                "p_size": batch["p_size"],
            }
        )

    return skyline_2d(
        part.map_batches(to_cents, batch_format="pyarrow"),
        "p_partkey", "price_c", "p_size",
    )


# TPC-H Q11 shape: parts earning > 1.25x the average part revenue
@register("revenue_share_parts", oracle="""
            WITH pp AS (
                SELECT l_partkey,
                       SUM(CAST(floor(l_extendedprice*(1-l_discount)*100
                                      + 0.5) AS BIGINT)) AS revenue_c
                FROM lineitem GROUP BY 1
            )
            SELECT l_partkey, revenue_c FROM pp
            WHERE CAST(revenue_c AS HUGEINT) * 4 *
                  (SELECT CAST(count(*) AS HUGEINT) FROM pp) >
                  5 * (SELECT CAST(SUM(revenue_c) AS HUGEINT) FROM pp)
        """)
def _q_revenue_share_parts(sf_dir: str):
    """TPC-H Q11 shape: global average part revenue -> exact integer
    cutoff on the driver -> broadcast threshold filter over the
    per-part aggregate (parts earning > 1.25x the average)."""
    from pdf_extractor_ray.functions.tpch_extra import revenue_share_parts

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    return revenue_share_parts(lineitem, mult_num=5, mult_den=4)


def _nation_region(sf_dir: str) -> pd.DataFrame:
    """nation pre-joined with region (25 + 5 fixed rows — the only
    tables small enough to ride a closure)."""
    nation = pd.read_parquet(_t(sf_dir, "nation"))
    region = pd.read_parquet(_t(sf_dir, "region"))
    return nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    )


# TPC-H Q6: discount-band revenue, exact integer permille filter
@register("discount_band_revenue", oracle="""
            SELECT CAST(coalesce(sum(CAST(floor(
                       l_extendedprice*l_discount*100+0.5) AS BIGINT)), 0)
                   AS BIGINT) AS revenue_c
            FROM lineitem
            WHERE year(l_shipdate) = 1996
              AND CAST(floor(l_discount*100+0.5) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24
        """)
def _q_discount_band_revenue(sf_dir: str):
    """TPC-H Q6: revenue recoverable by dropping the 5-7% discount
    band for small-qty 1996 lines. Map-only scan aggregate — one int64
    partial per batch, a single-task fold, zero exchange; discounts
    compare as exact integer permille, never floats."""
    from pdf_extractor_ray.functions.tpch_extra import discount_band_revenue

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_shipdate", "l_extendedprice", "l_discount",
                 "l_quantity"],
    )
    return discount_band_revenue(li)


# TPC-H Q12 shape: late (>60 days after order) lines by priority
@register("late_lines_priority", oracle="""
            SELECT o_orderpriority,
                   CAST(sum(CASE WHEN l_shipdate >
                                      o_orderdate + INTERVAL 60 DAY
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
                   CAST(count(*) AS BIGINT) AS n_lines
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY 1
        """)
def _q_late_lines_priority(sf_dir: str):
    """TPC-H Q12 shape (no shipmode column exists: "late" = shipped
    > 60 days after the order date): one big-big orderkey cogroup,
    conditional counts per order priority."""
    from pdf_extractor_ray.functions.tpch_extra import late_lines_by_priority

    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    )
    od = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    return late_lines_by_priority(li, od, late_days=60)


# TPC-H Q7: cross-nation volume per ship year
@register("nation_pair_volume", bench=True, oracle="""
            SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_c
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ns ON s_nationkey = ns.n_nationkey
            JOIN nation nc ON c_nationkey = nc.n_nationkey
            WHERE s_nationkey <> c_nationkey
              AND year(l_shipdate) IN (1995, 1996)
            GROUP BY 1, 2, 3
        """)
def _q_nation_pair_volume(sf_dir: str):
    """TPC-H Q7: revenue from a supplier nation to a DIFFERENT
    customer nation per ship year (1995-1996). Sharded-lookup engine
    (join_indexed.py): orders/customer/supplier partitioned across
    lookup shard actors, ONE streaming lineitem pass with two batched
    RPC waves, zero sort exchanges for the joins (r4 A/B: 8.65 s
    bucket cogroup / 7.2 s native join / ~1.9 s this path)."""
    from pdf_extractor_ray.functions.join_indexed import (
        cross_nation_volume_indexed as cross_nation_volume,
    )

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    cu = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nation = pd.read_parquet(_t(sf_dir, "nation"))
    return cross_nation_volume(li, od, cu, su, nation)


# TPC-H Q8 shape: NATION_2 share of the ASIA PROMO market
@register("market_share", bench=True, oracle="""
            SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(CASE WHEN s_nationkey = 2
                                 THEN CAST(floor(l_extendedprice *
                                      (1-l_discount)*100+0.5) AS BIGINT)
                                 ELSE 0 END) AS BIGINT) AS nation_rev_c,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS total_rev_c
            FROM lineitem
            JOIN part ON l_partkey = p_partkey
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation n ON c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            WHERE p_type = 'PROMO' AND r.r_name = 'ASIA'
            GROUP BY 1
        """)
def _q_market_share(sf_dir: str):
    """TPC-H Q8 shape: ASIA-market PROMO-part revenue split per order
    year into NATION_2's share vs total (exact integer cents for both
    — the division is the reader's). Sharded-lookup engine
    (join_indexed.py): part/orders/customer/supplier partitioned
    across lookup shard actors — part is never broadcast — ONE
    streaming lineitem pass, two RPC waves, zero join sort exchanges
    (r4 A/B: 7.4 s bucket cogroup / ~1.4 s this path)."""
    from pdf_extractor_ray.functions.join_indexed import (
        market_share_indexed as market_share,
    )

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_orderkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    cu = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    return market_share(li, od, cu, su, pt, _nation_region(sf_dir))


# TPC-H Q16 shape: distinct shipping suppliers per (brand, type)
@register("supplier_part_counts", oracle="""
            SELECT p_brand, p_type,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) li
            JOIN part ON l_partkey = p_partkey
            WHERE p_brand <> 'Brand#5'
            GROUP BY 1, 2
        """)
def _q_supplier_part_counts(sf_dir: str):
    """TPC-H Q16 shape (partsupp re-expressed over shipments):
    DISTINCT shipping suppliers per (brand, type), one brand excluded.
    Two exchanges: partkey cogroup of pre-distincted pairs, then a
    (brand, type)-bucket exchange where nunique is bucket-exact."""
    from pdf_extractor_ray.functions.tpch_extra import supplier_count_by_part

    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"]
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_type"]
    )
    return supplier_count_by_part(li, pt, exclude_brand="Brand#5")


# TPC-H Q19: OR-of-ANDs brand/qty/size predicate revenue
@register("disjunctive_revenue", oracle="""
            SELECT CAST(coalesce(sum(CAST(floor(
                       l_extendedprice*(1-l_discount)*100+0.5)
                       AS BIGINT)), 0) AS BIGINT) AS revenue_c
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#1' AND l_quantity BETWEEN 1 AND 11
                   AND p_size BETWEEN 1 AND 5)
               OR (p_brand = 'Brand#2' AND l_quantity BETWEEN 10 AND 20
                   AND p_size BETWEEN 1 AND 10)
               OR (p_brand = 'Brand#3' AND l_quantity BETWEEN 20 AND 30
                   AND p_size BETWEEN 1 AND 15)
        """)
def _q_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19: OR-of-ANDs (brand x quantity band x size band)
    revenue — one partkey cogroup, vectorized disjunctive predicate,
    single int64 result."""
    from pdf_extractor_ray.functions.tpch_extra import disjunctive_revenue

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )
    return disjunctive_revenue(li, pt)


# TPC-H Q2 shape: min-acctbal EUROPE supplier per filtered part
@register("min_cost_supplier", oracle="""
            WITH shipped AS (
                SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
            ),
            cand AS (
                SELECT p_partkey, s_suppkey,
                       CAST(floor(s_acctbal*100+0.5) AS BIGINT)
                           AS acctbal_c,
                       row_number() OVER (
                           PARTITION BY p_partkey
                           ORDER BY CAST(floor(s_acctbal*100+0.5)
                                         AS BIGINT), s_suppkey
                       ) AS rn
                FROM shipped
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation n ON s_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
                JOIN part ON l_partkey = p_partkey
                WHERE r.r_name = 'EUROPE'
                  AND p_size = 15 AND p_type = 'SMALL'
            )
            SELECT p_partkey, s_suppkey, acctbal_c FROM cand WHERE rn = 1
        """)
def _q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape (supplycost re-expressed as account balance):
    per SMALL/size-15 part, the EUROPE supplier that shipped it with
    minimum account balance (tie: suppkey) — the decorrelated
    min-subquery. suppkey cogroup then partkey cogroup; per-bucket
    argmin partials keep every exchange narrow."""
    from pdf_extractor_ray.functions.tpch_extra import min_acctbal_supplier

    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"),
        columns=["s_suppkey", "s_acctbal", "s_nationkey"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size", "p_type"]
    )
    return min_acctbal_supplier(li, su, pt, _nation_region(sf_dir))


# TPC-H Q20 shape: leading supplier + exact share per part
@register("part_leading_supplier", oracle="""
            WITH sq AS (
                SELECT l_partkey, l_suppkey,
                       CAST(sum(l_quantity) AS BIGINT) AS q
                FROM lineitem GROUP BY 1, 2
            ),
            tot AS (
                SELECT l_partkey, CAST(sum(q) AS BIGINT) AS t
                FROM sq GROUP BY 1
            ),
            lead AS (
                SELECT sq.l_partkey, sq.l_suppkey, sq.q, tot.t,
                       row_number() OVER (
                           PARTITION BY sq.l_partkey
                           ORDER BY sq.q DESC, sq.l_suppkey
                       ) AS rn
                FROM sq
                JOIN tot USING (l_partkey)
                JOIN part ON sq.l_partkey = p_partkey
                WHERE p_name LIKE '%plate%'
            )
            SELECT l_partkey AS p_partkey, l_suppkey,
                   q AS supp_qty, t AS total_qty
            FROM lead WHERE rn = 1
        """)
def _q_part_leading_supplier(sf_dir: str):
    """TPC-H Q20 shape: per 'plate'-named part, the leading supplier
    by shipped quantity with exact share numerators (the spec's >50%
    demand test is a caller-side threshold on supp_qty/total_qty; the
    uniform synthetic corpus makes the raw filter empty). One partkey
    exchange of per-(part,supp) quantity partials."""
    from pdf_extractor_ray.functions.tpch_extra import dominant_part_suppliers

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_name"]
    )
    return dominant_part_suppliers(li, pt, name_token="plate")


# TPC-H Q9 shape: profit by supplier nation x order year
@register("nation_profit", oracle="""
            SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                       + 0.5) AS BIGINT)
                            - CAST(l_quantity AS BIGINT) *
                              CAST(floor(p_retailprice*100+0.5)
                                   AS BIGINT)) AS BIGINT) AS profit_c
            FROM lineitem
            JOIN part ON l_partkey = p_partkey
            JOIN orders ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_name LIKE '%red%'
            GROUP BY 1, 2
        """)
def _q_nation_profit(sf_dir: str):
    """TPC-H Q9 shape (supplycost re-expressed as retail price):
    profit = revenue - qty*retail (exact cents) for 'red' parts,
    grouped by supplier nation x order year. Three chained big-big
    cogroups (partkey -> orderkey -> suppkey)."""
    from pdf_extractor_ray.functions.tpch_extra import profit_by_nation_year

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_orderkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    pt = _rp(
        _t(sf_dir, "part"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    )
    nation = pd.read_parquet(_t(sf_dir, "nation"))
    return profit_by_nation_year(li, od, su, pt, nation, name_token="red")
