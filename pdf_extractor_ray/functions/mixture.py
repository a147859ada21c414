"""Temperature-sampled training-mix composition (mT5 / UniMax family).

Behavioral spec (public): multilingual / multi-source pretraining mixes
are not proportional to raw source sizes — large sources would drown
small ones — nor uniform — tiny sources would repeat until memorized.
The standard compromise (Raffel et al. 2020 §3.4.3 "temperature-scaled
mixing"; Xue et al. 2021 mT5 §3.2, alpha=0.3; Chung et al. 2023 UniMax)
samples source i with probability proportional to ``n_i ** alpha`` for
a temperature ``0 < alpha < 1``. This module makes that allocation a
DETERMINISTIC, engine-replayable operator:

1. ``temperature_quotas`` — per-source document quotas from per-source
   counts: weights ``w_i = floor(sqrt(n_i * 10^6))`` (the alpha = 0.5
   point; IEEE-754 requires sqrt correctly rounded, so numpy and any
   SQL engine produce the identical integer for ``n_i * 10^6 < 2^53``),
   then a largest-remainder apportionment of the document budget
   ``B``: ``q_i = B*w_i // W`` plus one extra doc for the
   ``B - sum(q_i)`` largest remainders (ties by source name ASC).
   Exact integer arithmetic after the one pinned sqrt — a SQL oracle
   replays every quota.
2. ``select_mixture`` — the distributed selection: within each source,
   keep exactly the ``q_i`` documents with the smallest
   ``(md5(str(id)), id)`` — the repo's standard salted hash rank, so
   membership is partition- and run-invariant and SQL-replayable
   (``ORDER BY md5(CAST(id AS VARCHAR)), id``).

Scale shape of ``select_mixture`` (the interesting part): a naive
per-source rank is a full sort per source. Instead, the same histogram
trick as ``selection.select_top_k_global``, vectorized across sources
in ONE pass each:

  pass 1  per-(source, salt_cell) counts, cell = first 3 hex chars of
          the md5 (4096 cells); partial-agg inside the batch, then one
          coarse groupby — driver holds <= n_sources * 4096 count rows,
          never documents.
  pass 2  pull ONLY each source's boundary cell's members (expected
          ``n_i / 4096`` rows per source) and find the exact in-cell
          cutoff ``(salt_hex, id)`` at the quota rank.
  pass 3  a pure per-row filter: keep ``cell < boundary`` or
          ``cell == boundary and (salt_hex, id) <= cutoff``.

Driver state is the quota table + one boundary cutoff per source —
constant in the corpus size. No shuffle of document rows at all: the
only exchange is the 4096-cell count stream.

Reference scope note: the reference repo has no mixing/sampling at all
(SURVEY.md section 2.6); this operator is part of the beyond-reference
training-data tier (SURVEY.md section 8.4).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray.data

from pdf_extractor_ray.functions.common import coalesce_for_exchange
from pdf_extractor_ray.functions.exchange import cogroup, exchange_width

__all__ = [
    "temperature_quotas",
    "select_mixture",
    "kfold_assign",
]


def _salt_hex(ids) -> list[str]:
    return [hashlib.md5(str(i).encode()).hexdigest() for i in ids]


def temperature_quotas(
    counts: dict[str, int], budget: int
) -> dict[str, dict[str, int]]:
    """Largest-remainder temperature (alpha=0.5) apportionment.

    Returns ``{key: {"n_docs": n, "weight": w, "quota": q}}`` with
    ``sum(q) == min(budget, sum(n))`` and ``q_i <= n_i``.

    Exactness contract: ``w_i = floor(sqrt(n_i * 10^6))`` is the one
    non-integer step; IEEE sqrt is correctly rounded, so any engine
    computes the same ``w_i`` for ``n_i <= ~9e9`` docs per source
    (the ``n_i * 10^6 < 2^53`` bound). Everything after is integer.
    """
    keys = sorted(counts)
    n = {k: int(counts[k]) for k in keys}
    w = {k: int(math.floor(math.sqrt(n[k] * 1_000_000.0))) for k in keys}
    W = sum(w.values())
    budget = min(int(budget), sum(n.values()))
    if W == 0 or budget <= 0:
        return {k: {"n_docs": n[k], "weight": w[k], "quota": 0} for k in keys}
    q0 = {k: budget * w[k] // W for k in keys}
    rem = {k: budget * w[k] % W for k in keys}
    extra = budget - sum(q0.values())
    # one extra doc to the `extra` largest remainders, ties by key ASC
    order = sorted(keys, key=lambda k: (-rem[k], k))
    q = dict(q0)
    for k in order[:extra]:
        q[k] += 1
    # cap at n_i and redistribute overflow to the next-largest
    # remainders that still have headroom (rare: only when a tiny
    # source's quota exceeds its size)
    overflow = 0
    for k in keys:
        if q[k] > n[k]:
            overflow += q[k] - n[k]
            q[k] = n[k]
    if overflow:
        for k in order:
            if overflow == 0:
                break
            room = n[k] - q[k]
            if room > 0:
                take = min(room, overflow)
                q[k] += take
                overflow -= take
    return {
        k: {"n_docs": n[k], "weight": w[k], "quota": q[k]} for k in keys
    }


def select_mixture(
    ds: ray.data.Dataset,
    budget: int,
    key_col: str = "source",
    id_col: str = "doc_id",
    n_cells: int = 4096,
) -> ray.data.Dataset:
    """Keep exactly ``quota[key]`` rows per key — the ``quota[key]``
    smallest by ``(md5(str(id)), id)`` within each key — where quotas
    come from :func:`temperature_quotas` over the per-key counts.

    The input is consumed once: a prep pass stamps each row's md5
    salt and cell (the only interpreted per-row step) and
    materializes; the histogram, boundary-refine and filter passes
    reuse the stamped columns instead of re-hashing.
    ``n_cells`` must be a power of 16 divisor of the hex space
    (16, 256, 4096, 65536): the cell is the first ``log16(n_cells)``
    hex chars of the salt, so cell order IS salt-prefix order.
    """
    hex_chars = {16: 1, 256: 2, 4096: 3, 65536: 4}[n_cells]

    # prep once: the md5 salt is an interpreted per-row hashlib call
    # (the one non-vectorizable step — the oracle pins md5 exactly),
    # so compute it in a SINGLE pass and let the histogram, boundary
    # and filter passes reuse the materialized columns instead of
    # re-hashing three times
    def prep(batch: pa.Table) -> pa.Table:
        hexes = _salt_hex(batch[id_col].to_pylist())
        cell = np.array(
            [int(h[:hex_chars], 16) for h in hexes], dtype=np.int64
        )
        return batch.append_column(
            "_salt_hex", pa.array(hexes, pa.string())
        ).append_column("_cell", pa.array(cell, pa.int64()))

    ds = ds.map_batches(prep, batch_format="pyarrow").materialize()

    # pass 1: per-(key, cell) counts, partial-agg in the batch
    def hist(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "k": batch[key_col].to_pylist(),
                "c": batch["_cell"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["k", "c"], as_index=False).size()
        return pa.table(
            {
                key_col: pa.array(g["k"], pa.string()),
                "cell": pa.array(g["c"], pa.int64()),
                "cnt": pa.array(g["size"], pa.int64()),
            }
        )

    def merge_cells(group):
        return group.groupby([key_col, "cell"], as_index=False)["cnt"].sum()

    cells = (
        coalesce_for_exchange(ds.map_batches(hist, batch_format="pyarrow"))
        .groupby(key_col)
        .map_groups(merge_cells, batch_format="pandas")
        .to_pandas()  # bounded: n_keys x n_cells count rows
    )

    counts = cells.groupby(key_col)["cnt"].sum().to_dict()
    quotas = temperature_quotas(counts, budget)

    # per-key boundary cell + in-boundary need
    boundary_cell: dict[str, int] = {}  # cell holding the quota rank
    need_in_boundary: dict[str, int] = {}
    for k, g in cells.groupby(key_col):
        q = quotas[k]["quota"]
        if q <= 0:
            boundary_cell[k] = -1  # keep nothing
            continue
        if q >= quotas[k]["n_docs"]:
            boundary_cell[k] = n_cells  # keep everything
            continue
        g = g.sort_values("cell")
        cum = g["cnt"].cumsum().to_numpy()
        b = int(np.searchsorted(cum, q))
        boundary_cell[k] = int(g["cell"].iloc[b])
        need_in_boundary[k] = q - (int(cum[b - 1]) if b > 0 else 0)

    # pass 2: pull each key's ONE boundary cell, find the exact cutoff
    probe = {k: c for k, c in boundary_cell.items() if k in need_in_boundary}

    def in_boundary(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch[key_col].to_pylist(), dtype=object)
        cell = batch["_cell"].to_numpy(zero_copy_only=False)
        mask = np.zeros(len(keys), dtype=bool)
        for k, c in probe.items():
            mask |= (keys == k) & (cell == c)
        sub = batch.filter(pa.array(mask))
        return pa.table(
            {
                key_col: sub[key_col],
                "salt_hex": sub["_salt_hex"],
                id_col: sub[id_col],
            }
        )

    cutoff: dict[str, tuple[str, int]] = {}
    if probe:
        members = ds.map_batches(
            in_boundary, batch_format="pyarrow"
        ).to_pandas()  # expected sum_i n_i / n_cells rows
        for k, g in members.groupby(key_col):
            g = g.sort_values(["salt_hex", id_col]).reset_index(drop=True)
            row = g.iloc[need_in_boundary[k] - 1]
            cutoff[k] = (str(row["salt_hex"]), int(row[id_col]))

    # pass 3: pure per-row filter (vectorized per distinct key — the
    # key set is the mix's source list, a handful of values)
    def keep(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch[key_col].to_pylist(), dtype=object)
        cell = batch["_cell"].to_numpy(zero_copy_only=False)
        hex_arr = np.asarray(batch["_salt_hex"].to_pylist(), dtype=object)
        id_arr = batch[id_col].to_numpy(zero_copy_only=False).astype(
            np.int64, copy=False
        )
        mask = np.zeros(len(keys), dtype=bool)
        for k in set(keys.tolist()):
            b = boundary_cell.get(k, -1)
            km = keys == k
            mask |= km & (cell < b)
            co = cutoff.get(k)
            if co is not None:
                ch, cid = co
                mask |= (
                    km
                    & (cell == b)
                    & ((hex_arr < ch) | ((hex_arr == ch) & (id_arr <= cid)))
                )
        return batch.filter(pa.array(mask)).drop_columns(
            ["_salt_hex", "_cell"]
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def kfold_assign(
    ds: ray.data.Dataset,
    k: int,
    strata_col: str = "lang",
    id_col: str = "doc_id",
    n_cells: int = 4096,
) -> ray.data.Dataset:
    """EXACTLY balanced stratified k-fold assignment: within each
    stratum, row rank by ``(md5(str(id)), id)`` modulo ``k`` — so fold
    sizes per stratum differ by at most 1 (cross-validation and eval
    splits want exact balance, not hash-approximate), and membership
    is partition/run-invariant and SQL-replayable
    (``row_number() OVER (PARTITION BY stratum ORDER BY md5(id), id)``).

    Distributed shape: the exact global rank needs no sort — a
    per-(stratum, salt-cell) count histogram (driver-held, bounded)
    yields each cell's exclusive prefix offset; one cogroup exchange
    keyed by (stratum, cell) then ranks each cell's few rows locally
    (cell size ~ n/stratum/4096) and adds the offset. Output: the
    input rows plus a ``fold`` int64 column.
    """
    hex_chars = {16: 1, 256: 2, 4096: 3, 65536: 4}[n_cells]

    def prep(batch: pa.Table) -> pa.Table:
        hexes = _salt_hex(batch[id_col].to_pylist())
        cell = np.array(
            [int(h[:hex_chars], 16) for h in hexes], dtype=np.int64
        )
        return batch.append_column(
            "_salt_hex", pa.array(hexes, pa.string())
        ).append_column("_cell", pa.array(cell, pa.int64()))

    ds = ds.map_batches(prep, batch_format="pyarrow").materialize()

    def hist(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "s": batch[strata_col].to_pylist(),
                "c": batch["_cell"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["s", "c"], as_index=False).size()
        return pa.table(
            {
                "s": pa.array(g["s"], pa.string()),
                "c": pa.array(g["c"], pa.int64()),
                "cnt": pa.array(g["size"], pa.int64()),
            }
        )

    def merge_cells(group):
        return group.groupby(["s", "c"], as_index=False)["cnt"].sum()

    cells = (
        coalesce_for_exchange(ds.map_batches(hist, batch_format="pyarrow"))
        .groupby("s")
        .map_groups(merge_cells, batch_format="pandas")
        .to_pandas()  # bounded: n_strata x n_cells
    )
    cells = cells.sort_values(["s", "c"])
    cells["off"] = cells.groupby("s")["cnt"].cumsum() - cells["cnt"]
    offsets = {
        (r["s"], int(r["c"])): int(r["off"]) for _, r in cells.iterrows()
    }

    def rank_group(group):
        import pandas as pd

        s = group[strata_col].iloc[0]
        c = int(group["_cell"].iloc[0])
        g = group.sort_values(["_salt_hex", id_col]).reset_index(drop=True)
        ranks = offsets[(s, c)] + np.arange(len(g), dtype=np.int64)
        g["fold"] = ranks % k
        return g.drop(columns=["_salt_hex", "_cell", "_sc"])

    def tag_sc(batch: pa.Table) -> pa.Table:
        sc = [
            f"{s}|{c}"
            for s, c in zip(
                batch[strata_col].to_pylist(),
                batch["_cell"].to_numpy(zero_copy_only=False),
            )
        ]
        return batch.append_column("_sc", pa.array(sc, pa.string()))

    def rank_cells(rows: pa.Table):
        import pandas as pd

        return pd.concat(
            [rank_group(g) for _, g in rows.to_pandas().groupby("_sc", sort=False)]
        )

    return cogroup(
        {"rows": (ds.map_batches(tag_sc, batch_format="pyarrow"), "_sc")},
        rank_cells,
        lambda rows: pa.schema(
            [f for f in rows if f.name not in ("_salt_hex", "_cell", "_sc")]
            + [("fold", pa.int64())]
        ),
        n_buckets=exchange_width(),
        coalesce=False,
    )
