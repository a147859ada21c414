"""Exact global top-K selection without a global sort.

The quality-pruning step of a training-data pipeline ("keep the best
20% of the corpus by score") is a selection, not a sort: nobody needs
the 100 TB survivor set ordered, only membership. A full
``Dataset.sort`` + ``limit`` is an all-to-all exchange of every row;
this operator does it with two streaming scans and O(cells) driver
state:

1. histogram pass — per-batch counts per (score, salt_byte) cell,
   where ``salt_byte`` is the first byte of ``md5(str(id))`` (uniform
   regardless of id skew). The cell table is ``distinct_scores x 256``
   rows — tiny for quantized scores (the documented assumption: use
   integer / centi-unit scores, same rule the driver oracles follow).
2. the driver orders cells by rank key (score DESC, salt ASC),
   cumulates to find the boundary cell, and refines ONLY that cell:
   its members (expected ties/256) are collected, ranked exactly by
   (salt_hex, id), and the final cutoff row is fixed.
3. filter pass — a broadcast predicate (score, boundary cell, cutoff
   within cell) keeps exactly K rows.

Rank order is (score DESC, md5(str(id)) ASC, id ASC) — replayable in
SQL as ``row_number() OVER (ORDER BY score DESC, md5(CAST(id AS
VARCHAR)), id) <= K``, which is the driver oracle for
``quality_topk``. The md5 salt also makes the kept set stable and
unbiased within a score tie (keeping "smallest doc_id" would bias
toward whatever the id order encodes — usually crawl time).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from pdf_extractor_ray.functions.common import coalesce_for_exchange
from pdf_extractor_ray.functions.exchange import cogroup

__all__ = [
    "select_top_k_global",
    "select_token_budget",
    "group_quantile_split",
    "percentile_rank",
]


def _salt_hex(ids) -> list[str]:
    return [hashlib.md5(str(i).encode()).hexdigest() for i in ids]


def select_top_k_global(
    ds: ray.data.Dataset,
    k: int,
    score_col: str = "score",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Rows with global rank <= k by (score DESC, md5(id) ASC, id ASC).

    Driver state: the (score, salt_byte) cell histogram plus the one
    boundary cell's members — never the dataset. Input is consumed
    twice (histogram + filter), so pass a cheap-to-recompute or
    persisted dataset, not an expensive unfused pipeline tail.
    """
    if k <= 0:
        return ds.filter(lambda row: False)

    def hist(batch: pa.Table) -> pa.Table:
        scores = batch[score_col].to_numpy(zero_copy_only=False)
        salts = np.array(
            [int(h[:2], 16) for h in _salt_hex(batch[id_col].to_pylist())],
            dtype=np.int64,
        )
        key = scores.astype(np.int64) * 256 + salts
        uk, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "score": pa.array(uk // 256),
                "salt_byte": pa.array(uk % 256),
                "cnt": pa.array(c.astype(np.int64)),
            }
        )

    def merge_cells(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(["score", "salt_byte"], as_index=False)[
            "cnt"
        ].sum()

    cells = (
        coalesce_for_exchange(ds.map_batches(hist, batch_format="pyarrow"))
        .groupby("score")
        .map_groups(merge_cells, batch_format="pandas")
        .to_pandas()  # bounded: distinct_scores x 256 rows
    )
    # rank order: score DESC, salt ASC
    cells = cells.sort_values(
        ["score", "salt_byte"], ascending=[False, True]
    ).reset_index(drop=True)
    cum = cells["cnt"].cumsum()
    total = int(cum.iloc[-1]) if len(cum) else 0
    if k >= total:
        return ds
    b = int(np.searchsorted(cum.to_numpy(), k))  # first cell where cum >= k
    need_in_boundary = k - (int(cum.iloc[b - 1]) if b > 0 else 0)
    b_score = int(cells.loc[b, "score"])
    b_salt = int(cells.loc[b, "salt_byte"])

    if need_in_boundary == 0:
        boundary_cutoff = None  # boundary cell entirely excluded
    else:
        # refine: exact rank inside the ONE boundary cell
        def in_boundary(batch: pa.Table) -> pa.Table:
            scores = batch[score_col].to_numpy(zero_copy_only=False)
            ids = batch[id_col].to_pylist()
            hexes = _salt_hex(ids)
            mask = (scores == b_score) & np.array(
                [int(h[:2], 16) == b_salt for h in hexes]
            )
            sel = np.flatnonzero(mask)
            return pa.table(
                {
                    "salt_hex": pa.array([hexes[j] for j in sel]),
                    id_col: pa.array([ids[j] for j in sel]),
                }
            )

        members = (
            ds.map_batches(in_boundary, batch_format="pyarrow").to_pandas()
        )  # expected ties/256 rows
        members = members.sort_values(["salt_hex", id_col]).reset_index(
            drop=True
        )
        row = members.iloc[need_in_boundary - 1]
        cid = row[id_col]
        # ids may be ints (doc_id) or strings (para_hash) — normalize
        # numpy scalars so the (salt, id) tuple comparisons in keep()
        # stay same-typed
        cid = int(cid) if isinstance(cid, (int, np.integer)) else str(cid)
        boundary_cutoff = (str(row["salt_hex"]), cid)

    def keep(batch: pa.Table) -> pa.Table:
        scores = batch[score_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_pylist()
        hexes = _salt_hex(ids)
        salts = np.array([int(h[:2], 16) for h in hexes], dtype=np.int64)
        mask = (scores > b_score) | (
            (scores == b_score) & (salts < b_salt)
        )
        if boundary_cutoff is not None:
            ch, cid = boundary_cutoff
            in_cell = (scores == b_score) & (salts == b_salt)
            within = np.array(
                [
                    (h, i) <= (ch, cid)
                    for h, i in zip(hexes, ids)
                ]
            )
            mask |= in_cell & within
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def select_token_budget(
    ds: ray.data.Dataset,
    budget: int,
    score_col: str = "score",
    token_col: str = "n_tokens",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Greedy-prefix selection under a TOKEN budget: walk rows in rank
    order (score DESC, md5(str(id)) ASC, id ASC) and keep every row
    while the running token total (including the row) stays <= budget.

    The real form of training-corpus selection — "the best N tokens",
    not "the best N documents". Same machinery as
    ``select_top_k_global`` with the histogram carrying per-cell TOKEN
    sums next to counts: two streaming scans, O(distinct_scores x 256)
    driver state, one boundary cell refined exactly. SQL-replayable as
    ``sum(tokens) OVER (ORDER BY score DESC, md5(...), id) <= budget``
    (the driver oracle), which is what pins the greedy-prefix
    semantics: a later smaller doc never back-fills a skipped slot.
    """
    if budget <= 0:
        # keep the schema (a filter(False) yields column-less blocks)
        return ds.map_batches(
            lambda b: b.slice(0, 0), batch_format="pyarrow"
        )

    def hist(batch: pa.Table) -> pa.Table:
        scores = batch[score_col].to_numpy(zero_copy_only=False)
        toks = batch[token_col].to_numpy(zero_copy_only=False).astype(np.int64)
        salts = np.array(
            [int(h[:2], 16) for h in _salt_hex(batch[id_col].to_pylist())],
            dtype=np.int64,
        )
        key = scores.astype(np.int64) * 256 + salts
        uk, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(inv)
        tok = np.bincount(inv, weights=toks).astype(np.int64)
        return pa.table(
            {
                "score": pa.array(uk // 256),
                "salt_byte": pa.array(uk % 256),
                "cnt": pa.array(cnt.astype(np.int64)),
                "tok": pa.array(tok),
            }
        )

    def merge_cells(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(["score", "salt_byte"], as_index=False)[
            ["cnt", "tok"]
        ].sum()

    cells = (
        coalesce_for_exchange(ds.map_batches(hist, batch_format="pyarrow"))
        .groupby("score")
        .map_groups(merge_cells, batch_format="pandas")
        .to_pandas()  # bounded: distinct_scores x 256 rows
    )
    if not len(cells):
        return ds
    cells = cells.sort_values(
        ["score", "salt_byte"], ascending=[False, True]
    ).reset_index(drop=True)
    cum_tok = cells["tok"].cumsum()
    if budget >= int(cum_tok.iloc[-1]):
        return ds
    # boundary cell: the first whose cumulative tokens exceed budget
    b = int(np.searchsorted(cum_tok.to_numpy(), budget + 1))
    spent_before = int(cum_tok.iloc[b - 1]) if b > 0 else 0
    b_score = int(cells.loc[b, "score"])
    b_salt = int(cells.loc[b, "salt_byte"])

    # refine inside the boundary cell: exact (salt_hex, id) walk with
    # running token totals
    def in_boundary(batch: pa.Table) -> pa.Table:
        scores = batch[score_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_pylist()
        hexes = _salt_hex(ids)
        toks = batch[token_col].to_numpy(zero_copy_only=False)
        mask = (scores == b_score) & np.array(
            [int(h[:2], 16) == b_salt for h in hexes]
        )
        sel = np.flatnonzero(mask)
        return pa.table(
            {
                "salt_hex": pa.array([hexes[j] for j in sel]),
                id_col: pa.array([ids[j] for j in sel]),
                "tok": pa.array(
                    toks[sel].astype(np.int64), pa.int64()
                ),
            }
        )

    members = (
        ds.map_batches(in_boundary, batch_format="pyarrow").to_pandas()
    )  # expected ties/256 rows
    members = members.sort_values(["salt_hex", id_col]).reset_index(drop=True)
    within_cum = members["tok"].cumsum() + spent_before
    fits = within_cum <= budget
    if not bool(fits.any()):
        boundary_cutoff = None  # boundary cell entirely excluded
    else:
        last = int(fits[fits].index[-1])
        # greedy prefix: the FIRST overflow stops the walk — rows after
        # it in the cell are out even if individually small
        if not bool(fits.iloc[: last + 1].all()):
            last = int(np.flatnonzero(~fits.to_numpy())[0]) - 1
        if last < 0:
            boundary_cutoff = None
        else:
            row = members.iloc[last]
            boundary_cutoff = (str(row["salt_hex"]), int(row[id_col]))

    def keep(batch: pa.Table) -> pa.Table:
        scores = batch[score_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_pylist()
        hexes = _salt_hex(ids)
        salts = np.array([int(h[:2], 16) for h in hexes], dtype=np.int64)
        mask = (scores > b_score) | ((scores == b_score) & (salts < b_salt))
        if boundary_cutoff is not None:
            ch, cid = boundary_cutoff
            in_cell = (scores == b_score) & (salts == b_salt)
            within = np.array(
                [(h, i) <= (ch, cid) for h, i in zip(hexes, ids)]
            )
            mask |= in_cell & within
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def group_quantile_split(
    ds: ray.data.Dataset,
    n_buckets: int = 3,
    score_col: str = "score",
    id_col: str = "doc_id",
    group_col: str = "lang",
) -> ray.data.Dataset:
    """Exact per-group quantile bucketing without a global sort —
    CCNet's per-language head/middle/tail split (Wenzek et al. 2020,
    arXiv:1911.00359 §4.3: sort each language by LM perplexity and cut
    into equal thirds).

    Each row gets ``bucket = (n_buckets * (rank - 1)) // n_group``
    where ``rank`` is its 1-based position within its group under
    (score ASC, md5(str(id)) ASC, id ASC) — pure integer arithmetic, so
    a SQL oracle replays it verbatim with ``row_number() OVER
    (PARTITION BY group ORDER BY score, md5(...), id)``. Scores are
    integers (quantize upstream), ascending = CCNet's "lower perplexity
    is better"; bucket 0 is the head.

    Scale shape (the ``select_top_k_global`` histogram pattern, per
    group): pass 1 builds a (group, score, salt_byte) cell histogram —
    the only exchange, pre-aggregated per batch; the driver orders each
    group's cells and fixes each cell's bucket by rank arithmetic. Only
    cells STRADDLING a bucket boundary (at most ``n_buckets - 1`` per
    group) are refined by collecting their members (expected ties/256
    rows each) and ranking exactly. Pass 2 assigns buckets from the
    broadcast cell map. Driver state: the cell table + boundary-cell
    members — never the dataset; a whole language NEVER ships through
    one task the way ``groupby(lang).map_groups(sort)`` would.

    Input is consumed twice (histogram + assign): pass a persisted or
    cheap-to-recompute dataset. Output: (id, group, score, bucket).
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")

    def hist(batch: pa.Table) -> pa.Table:
        g = pd.DataFrame(
            {
                "g": batch[group_col].to_pylist(),
                "score": batch[score_col].to_numpy(zero_copy_only=False),
                "salt_byte": [
                    int(h[:2], 16)
                    for h in _salt_hex(batch[id_col].to_pylist())
                ],
            }
        )
        out = (
            g.groupby(["g", "score", "salt_byte"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        return pa.table(
            {
                "g": pa.array(out["g"].astype(str)),
                "score": pa.array(out["score"].to_numpy(np.int64)),
                "salt_byte": pa.array(out["salt_byte"].to_numpy(np.int64)),
                "cnt": pa.array(out["cnt"].to_numpy(np.int64)),
            }
        )

    def merge_cells(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(
            ["g", "score", "salt_byte"], as_index=False
        )["cnt"].sum()

    cells = (
        coalesce_for_exchange(ds.map_batches(hist, batch_format="pyarrow"))
        .groupby("g")
        .map_groups(merge_cells, batch_format="pandas")
        .to_pandas()  # bounded: groups x distinct_scores x 256 rows
    )
    if not len(cells):
        return ds.map_batches(
            lambda b: pa.table(
                {
                    id_col: b[id_col],
                    group_col: b[group_col],
                    score_col: b[score_col],
                    "bucket": pa.array(
                        np.zeros(b.num_rows, dtype=np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        )

    # driver: per group, rank-range per cell -> bucket or "boundary"
    uniform: dict[tuple, int] = {}  # (g, score, salt) -> bucket
    boundary: dict[tuple, int] = {}  # (g, score, salt) -> start rank lo
    group_n: dict[str, int] = {}
    for gname, gc in cells.groupby("g", sort=False):
        gc = gc.sort_values(["score", "salt_byte"]).reset_index(drop=True)
        n_g = int(gc["cnt"].sum())
        group_n[str(gname)] = n_g
        hi = gc["cnt"].cumsum().to_numpy()  # rank of cell's last row
        lo = hi - gc["cnt"].to_numpy() + 1  # rank of cell's first row
        b_lo = (n_buckets * (lo - 1)) // n_g
        b_hi = (n_buckets * (hi - 1)) // n_g
        for i in range(len(gc)):
            key = (
                str(gname),
                int(gc.loc[i, "score"]),
                int(gc.loc[i, "salt_byte"]),
            )
            if b_lo[i] == b_hi[i]:
                uniform[key] = int(b_lo[i])
            else:
                boundary[key] = int(lo[i])

    row_bucket: dict[tuple, int] = {}  # (g, id) -> bucket, boundary rows
    if boundary:
        bkeys = set(boundary)

        def in_boundary(batch: pa.Table) -> pa.Table:
            gs = batch[group_col].to_pylist()
            scores = batch[score_col].to_numpy(zero_copy_only=False)
            ids = batch[id_col].to_pylist()
            hexes = _salt_hex(ids)
            sel = [
                j
                for j in range(len(ids))
                if (str(gs[j]), int(scores[j]), int(hexes[j][:2], 16))
                in bkeys
            ]
            return pa.table(
                {
                    "g": pa.array([str(gs[j]) for j in sel]),
                    "score": pa.array(
                        np.asarray(
                            [scores[j] for j in sel], dtype=np.int64
                        )
                    ),
                    "salt_hex": pa.array([hexes[j] for j in sel]),
                    id_col: pa.array([ids[j] for j in sel]),
                }
            )

        members = (
            ds.map_batches(in_boundary, batch_format="pyarrow").to_pandas()
        )  # bounded: <= (n_buckets-1) cells/group x expected ties/256
        members["salt_byte"] = [
            int(h[:2], 16) for h in members["salt_hex"]
        ]
        for (gname, sc, sb), cell in members.groupby(
            ["g", "score", "salt_byte"], sort=False
        ):
            lo_rank = boundary[(str(gname), int(sc), int(sb))]
            n_g = group_n[str(gname)]
            cell = cell.sort_values(["salt_hex", id_col])
            for off, i in enumerate(cell[id_col]):
                rank = lo_rank + off
                row_bucket[(str(gname), i)] = int(
                    (n_buckets * (rank - 1)) // n_g
                )

    uniform_ref = ray.put(uniform)
    rows_ref = ray.put(row_bucket)

    def assign(batch: pa.Table) -> pa.Table:
        uni = ray.get(uniform_ref)
        rows = ray.get(rows_ref)
        gs = batch[group_col].to_pylist()
        scores = batch[score_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_pylist()
        hexes = _salt_hex(ids)
        out = np.empty(len(ids), dtype=np.int64)
        for j in range(len(ids)):
            key = (str(gs[j]), int(scores[j]), int(hexes[j][:2], 16))
            b = uni.get(key)
            out[j] = b if b is not None else rows[(str(gs[j]), ids[j])]
        return pa.table(
            {
                id_col: batch[id_col],
                group_col: batch[group_col],
                score_col: batch[score_col],
                "bucket": pa.array(out),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def percentile_rank(
    ds: ray.data.Dataset,
    score_col: str = "score",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Exact global percentile calibration WITHOUT a global sort:
    every row gains ``rnk`` = RANK() (ties share the min rank, i.e.
    1 + count(scores strictly below)) and ``pct_milli`` =
    (1000 * (rnk - 1)) // (N - 1)  (0 for N == 1).

    Rank-normalizing a quality score is the standard way to turn an
    uncalibrated scorer into a keep-fraction gate ("drop the bottom
    30%") that is stable across corpus versions. A sort-based window
    would exchange every row; this is two streaming scans plus
    O(distinct scores) driver state:

    1. per-batch partial histogram -> one score-bucket exchange for
       exact per-score counts;
    2. the count table (bounded by the score's VALUE RANGE, not by N —
       the same quantized-integer-score contract select_top_k_global
       documents; scores here are milli-units with a bounded range)
       is cumulated on the driver and broadcast via ray.put;
    3. a map_batches pass attaches rnk/pct_milli from the lookup.

    SQL oracle: RANK() OVER (ORDER BY score).
    """
    import ray as _ray

    ds = ds.materialize()  # consumed by histogram pass + attach pass

    def hist_partial(batch: pa.Table) -> pa.Table:
        vals, cnts = np.unique(
            batch[score_col].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {
                "s": pa.array(vals, pa.int64()),
                "n": pa.array(cnts.astype(np.int64), pa.int64()),
            }
        )

    def sum_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("s", as_index=False)["n"].sum()
        return out.astype(np.int64)

    # coarse-bucket map_groups, not the Aggregate API (the measured
    # high-cardinality-key trap recorded in BASELINE.md, clf_train r4).
    # Collect with to_pandas (vectorized block concat), NOT take_all —
    # row iteration over pandas-format blocks was measured at
    # ~780us/row (165 s for a 212k-row count table)
    counts = (
        cogroup(
            {"group": (ds.map_batches(hist_partial, batch_format="pyarrow"), "s")},
            lambda group: sum_in_bucket(group.to_pandas()),
            pa.schema([("s", pa.int64()), ("n", pa.int64())]),
            n_buckets=256,
            coalesce=True,
        )
        .to_pandas()  # bounded by distinct score values (range-bounded contract)
        .sort_values("s")
    )
    ss = counts["s"].to_numpy(dtype=np.int64)
    ns = counts["n"].to_numpy(dtype=np.int64)
    total = int(ns.sum())
    cum_below = np.concatenate([[0], np.cumsum(ns[:-1])]).astype(np.int64)
    lookup_ref = _ray.put((ss, cum_below))  # broadcast once, read per task
    denom = max(total - 1, 1)

    def attach(batch: pa.Table) -> pa.Table:
        ss_, cum_ = _ray.get(lookup_ref)
        s = batch[score_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # every score is present in ss_ by construction: searchsorted
        # returns its exact position
        rnk = cum_[np.searchsorted(ss_, s)] + 1
        pct = (1000 * (rnk - 1)) // denom if total > 1 else np.zeros(
            len(rnk), dtype=np.int64
        )
        return batch.append_column(
            "rnk", pa.array(rnk, pa.int64())
        ).append_column("pct_milli", pa.array(pct, pa.int64()))

    return ds.map_batches(attach, batch_format="pyarrow")
