"""Sharded-lookup join engine (functions/join_indexed.py) — pinned
equal to a pandas merge over the same random tables."""

import numpy as np
import pandas as pd
import pytest

import pdf_extractor_ray  # noqa: F401  (package import side effects)


def _mk_tables(seed=5, n_li=4000, n_ord=800, n_cust=120, n_supp=30,
               n_part=200):
    rng = np.random.RandomState(seed)
    nations = np.arange(10, dtype=np.int64)
    nat = pd.DataFrame(
        {
            "n_nationkey": nations,
            "n_name": [f"NATION_{i}" for i in nations],
            "n_regionkey": nations % 3,
        }
    )
    nat["r_name"] = np.where(nat["n_regionkey"] == 0, "ASIA", "OTHER")
    cust = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n_cust + 1, dtype=np.int64),
            "c_nationkey": rng.randint(0, 10, n_cust).astype(np.int64),
        }
    )
    supp = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n_supp + 1, dtype=np.int64),
            "s_nationkey": rng.randint(0, 10, n_supp).astype(np.int64),
        }
    )
    part = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n_part + 1, dtype=np.int64),
            "p_type": rng.choice(["PROMO", "STD", "ECO"], n_part),
        }
    )
    odate = pd.to_datetime("1994-01-01") + pd.to_timedelta(
        rng.randint(0, 365 * 4, n_ord), unit="D"
    )
    orders = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n_ord + 1, dtype=np.int64),
            "o_custkey": rng.randint(1, n_cust + 1, n_ord).astype(
                np.int64
            ),
            "o_orderdate": odate,
        }
    )
    sdate = pd.to_datetime("1994-01-01") + pd.to_timedelta(
        rng.randint(0, 365 * 4, n_li), unit="D"
    )
    li = pd.DataFrame(
        {
            # some orderkeys/partkeys out of range: exercises the
            # inner-join drop path
            "l_orderkey": rng.randint(1, n_ord + 50, n_li).astype(
                np.int64
            ),
            "l_partkey": rng.randint(1, n_part + 20, n_li).astype(
                np.int64
            ),
            "l_suppkey": rng.randint(1, n_supp + 1, n_li).astype(
                np.int64
            ),
            "l_shipdate": sdate,
            "l_extendedprice": rng.uniform(10, 5000, n_li).round(2),
            "l_discount": rng.choice(
                [0.0, 0.02, 0.05, 0.1], n_li
            ),
        }
    )
    return li, orders, cust, supp, part, nat


@pytest.fixture(scope="module")
def tables():
    return _mk_tables()


def _ds(ray_session, df, parts=5):
    import ray.data

    return ray.data.from_pandas(df).repartition(parts)


def _rev_c(df: pd.DataFrame) -> np.ndarray:
    """Exact integer cents per row, the tpch money contract."""
    return np.floor(
        df["l_extendedprice"] * (1.0 - df["l_discount"]) * 100 + 0.5
    ).astype(np.int64)


def _market_share_ref(li, od, cu, su, pt, nat, nation_name,
                      region_name="ASIA", p_type="PROMO"):
    region_nats = nat.loc[nat["r_name"] == region_name, "n_nationkey"]
    target = nat.loc[nat["n_name"] == nation_name, "n_nationkey"].iloc[0]
    df = (
        li.merge(pt[pt["p_type"] == p_type], left_on="l_partkey",
                 right_on="p_partkey")
        .merge(od, left_on="l_orderkey", right_on="o_orderkey")
        .merge(cu, left_on="o_custkey", right_on="c_custkey")
        .merge(su, left_on="l_suppkey", right_on="s_suppkey")
    )
    df = df[df["c_nationkey"].isin(region_nats)]
    rev = _rev_c(df)
    return (
        pd.DataFrame(
            {
                "o_year": df["o_orderdate"].dt.year.astype(np.int64),
                "nation_rev_c": np.where(
                    df["s_nationkey"] == target, rev, 0
                ),
                "total_rev_c": rev,
            }
        )
        .groupby("o_year", as_index=False)
        .sum()
    )


def _cross_nation_ref(li, od, cu, su, nat, years):
    li = li[li["l_shipdate"].dt.year.isin(years)]
    df = (
        li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
        .merge(cu, left_on="o_custkey", right_on="c_custkey")
        .merge(su, left_on="l_suppkey", right_on="s_suppkey")
    )
    df = df[df["c_nationkey"] != df["s_nationkey"]]
    names = nat.set_index("n_nationkey")["n_name"]
    return (
        pd.DataFrame(
            {
                "supp_nation": df["s_nationkey"].map(names),
                "cust_nation": df["c_nationkey"].map(names),
                "l_year": df["l_shipdate"].dt.year.astype(np.int64),
                "revenue_c": _rev_c(df),
            }
        )
        .groupby(["supp_nation", "cust_nation", "l_year"], as_index=False)
        .sum()
    )


class TestMarketShareIndexed:
    def test_equals_pandas_merge(self, ray_session, tables):
        from pdf_extractor_ray.functions.join_indexed import (
            market_share_indexed,
        )

        li, od, cu, su, pt, nat = tables
        got = (
            market_share_indexed(
                _ds(ray_session, li),
                _ds(ray_session, od),
                _ds(ray_session, cu),
                _ds(ray_session, su),
                _ds(ray_session, pt),
                nat,
                nation_name="NATION_2",
            )
            .to_pandas()
            .sort_values("o_year")
            .reset_index(drop=True)
        )
        want = _market_share_ref(li, od, cu, su, pt, nat, "NATION_2")
        pd.testing.assert_frame_equal(
            got[want.columns], want, check_dtype=False
        )
        assert len(want) > 0

    def test_empty_customer_dim(self, ray_session, tables):
        from pdf_extractor_ray.functions.join_indexed import (
            market_share_indexed,
        )

        li, od, cu, su, pt, nat = tables
        out = market_share_indexed(
            _ds(ray_session, li),
            _ds(ray_session, od),
            _ds(ray_session, cu.iloc[:0]),
            _ds(ray_session, su),
            _ds(ray_session, pt),
            nat,
        )
        assert out.count() == 0

    def test_shard_count_invariance(self, ray_session, tables):
        from pdf_extractor_ray.functions.join_indexed import (
            market_share_indexed,
        )

        li, od, cu, su, pt, nat = tables
        runs = []
        for s in (2, 7):
            runs.append(
                market_share_indexed(
                    _ds(ray_session, li),
                    _ds(ray_session, od),
                    _ds(ray_session, cu),
                    _ds(ray_session, su),
                    _ds(ray_session, pt),
                    nat,
                    n_shards=s,
                )
                .to_pandas()
                .sort_values("o_year")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(runs[0], runs[1])


class TestCrossNationIndexed:
    def test_equals_pandas_merge(self, ray_session, tables):
        from pdf_extractor_ray.functions.join_indexed import (
            cross_nation_volume_indexed,
        )

        li, od, cu, su, pt, nat = tables
        key = ["supp_nation", "cust_nation", "l_year"]
        got = (
            cross_nation_volume_indexed(
                _ds(ray_session, li),
                _ds(ray_session, od),
                _ds(ray_session, cu),
                _ds(ray_session, su),
                nat,
                years=(1995, 1996),
            )
            .to_pandas()
            .sort_values(key)
            .reset_index(drop=True)
        )
        want = _cross_nation_ref(li, od, cu, su, nat, (1995, 1996))
        pd.testing.assert_frame_equal(
            got[want.columns], want, check_dtype=False
        )
        assert len(want) > 0

    def test_empty_customer_dim(self, ray_session, tables):
        from pdf_extractor_ray.functions.join_indexed import (
            cross_nation_volume_indexed,
        )

        li, od, cu, su, pt, nat = tables
        out = cross_nation_volume_indexed(
            _ds(ray_session, li),
            _ds(ray_session, od),
            _ds(ray_session, cu.iloc[:0]),
            _ds(ray_session, su),
            nat,
        )
        assert out.count() == 0
