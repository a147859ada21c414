"""Corpus distribution diagnostics: vocabulary drift between dumps
and the Zipf log-log histogram.

``vocab_drift`` is the monitoring primitive behind "did this month's
crawl change?": exact per-word counts for two slices of the corpus
(two dumps, two sources, two snapshots) and the top-k words by
absolute count delta. Catching a template explosion or a scraper
regression via vocabulary drift is cheaper than any content diff —
the exchange carries the word vocabulary (zipf-small), never text.

``zipf_histogram`` folds the word-frequency table into
(floor(log2(count)), n_words, total_occurrences) — the log-log
rank/frequency curve that a healthy natural-language corpus keeps
roughly straight. Garbled corpora (flat histogram) and template
corpora (mass in one high bucket) both show up immediately. The log
is integer bit-length, so the SQL oracle replays it verbatim via
``length(printf('%b', n)) - 1``.

Both operators share one shape: per-batch word Counters (the only
corpus-sized pass), a word-hash-bucket exchange with vectorized
in-bucket sums, then a bounded tail (top-k sort over the vocab table
or a <=64-row histogram).

Reference parity: the reference reports per-document element/word
statistics during extraction (SURVEY.md §2.9 G2/G6); these are the
corpus-scale distribution versions of that reporting shape.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import cogroup

__all__ = ["vocab_drift", "zipf_histogram", "corr_moments", "ks_statistic"]

_WORD_RE = re.compile(r"[a-z0-9]+")


def _word_counts(
    ds: ray.data.Dataset,
    text_col: str,
    n_buckets: int,
    side_of_row=None,
) -> ray.data.Dataset:
    """(word, n_a, n_b) exact counts via per-batch Counter partials +
    one word-bucket exchange. ``side_of_row(batch) -> bool ndarray``
    marks rows belonging to side B; None counts everything as side A
    with n_b = 0."""

    def partials(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        sides = (
            side_of_row(batch)
            if side_of_row is not None
            else np.zeros(len(texts), dtype=bool)
        )
        ca: Counter = Counter()
        cb: Counter = Counter()
        for t, b in zip(texts, sides):
            (cb if b else ca).update(_WORD_RE.findall((t or "").lower()))
        words = sorted(set(ca) | set(cb))
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n_a": pa.array([ca.get(w, 0) for w in words], pa.int64()),
                "n_b": pa.array([cb.get(w, 0) for w in words], pa.int64()),
            }
        )

    def sum_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("word", as_index=False)[["n_a", "n_b"]].sum()
        out[["n_a", "n_b"]] = out[["n_a", "n_b"]].astype(np.int64)
        return out

    return cogroup(
        {"group": (ds.map_batches(partials, batch_format="pyarrow"), "word")},
        lambda group: sum_in_bucket(group.to_pandas()),
        pa.schema([("word", pa.string()), ("n_a", pa.int64()), ("n_b", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def vocab_drift(
    ds: ray.data.Dataset,
    side_col: str,
    side_b_value: str,
    side_a_value: str | None = None,
    text_col: str = "text",
    k: int = 20,
    n_buckets: int = 128,
) -> ray.data.Dataset:
    """Top-k words by absolute count delta between two corpus slices:
    (word, n_a, n_b, delta), ordered by (delta DESC, word ASC) — a
    total order, so the LIMIT boundary is deterministic.

    ``side_a_value=None`` means "everything that is not side B", the
    usual new-dump-vs-rest monitoring query.
    """

    def side_of_row(batch: pa.Table) -> np.ndarray:
        vals = np.asarray(batch[side_col].to_pylist(), dtype=object)
        return vals == side_b_value

    src = ds
    if side_a_value is not None:
        import pyarrow.compute as pc

        src = ds.map_batches(
            lambda b: b.filter(
                pc.or_(
                    pc.equal(b[side_col], side_a_value),
                    pc.equal(b[side_col], side_b_value),
                )
            ),
            batch_format="pyarrow",
        )

    counts = _word_counts(src, text_col, n_buckets, side_of_row)

    def add_delta(batch: pa.Table) -> pa.Table:
        na = batch["n_a"].to_numpy(zero_copy_only=False)
        nb = batch["n_b"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "delta", pa.array(np.abs(na - nb), pa.int64())
        )

    # vocab table is zipf-small; the top-k sort runs over it, not the corpus
    return (
        counts.map_batches(add_delta, batch_format="pyarrow")
        .sort(["delta", "word"], descending=[True, False])
        .limit(k)
    )


def zipf_histogram(
    ds: ray.data.Dataset,
    text_col: str = "text",
    n_buckets: int = 128,
) -> ray.data.Dataset:
    """Word-frequency log-log histogram: (lg_count, n_words, n_occurrences)
    with lg_count = floor(log2(corpus count)) = bit_length - 1.
    At most ~40 rows regardless of corpus size.
    """
    from ray.data.aggregate import Sum

    counts = _word_counts(ds, text_col, n_buckets, None)

    def fold(batch: pa.Table) -> pa.Table:
        n = batch["n_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        lg = np.frexp(n.astype(np.float64))[1].astype(np.int64) - 1
        return pa.table(
            {
                "lg_count": pa.array(lg, pa.int64()),
                "n_words": pa.array(np.ones(len(n), dtype=np.int64)),
                "n_occurrences": pa.array(n, pa.int64()),
            }
        )

    # <= ~40 distinct lg values: Aggregate API is fine here
    return counts.map_batches(fold, batch_format="pyarrow").groupby(
        "lg_count"
    ).aggregate(
        Sum("n_words", alias_name="n_words"),
        Sum("n_occurrences", alias_name="n_occurrences"),
    )


def corr_moments(
    ds: ray.data.Dataset,
    group_col: str = "source",
    x_col: str = "n_chars",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Exact per-group second-moment sufficient statistics for the
    (chars, words) relationship: n, sum_x, sum_y, sum_xx, sum_yy,
    sum_xy as int64 — everything Pearson r / a least-squares slope /
    Welford variance needs, with zero float drift in the distributed
    fold (the one float division happens at the consumer).

    y = word count = space count + 1, computed vectorized
    (``count_substring``), matching SQL ``length - length(replace)``
    exactly. One per-batch partial per group, then a tiny groupby over
    group cardinality — no corpus-sized exchange.

    int64 headroom: sum_xx grows as n * x^2; at 5k-char docs that is
    ~2.5e7 per row, overflowing int64 only past ~3.7e11 rows PER
    GROUP — beyond the 100 TB design point; shard the group key if a
    corpus ever exceeds it.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        import pyarrow.compute as pc

        y = (
            pc.count_substring(batch[text_col], " ")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            + 1
        )
        df = pd.DataFrame(
            {
                group_col: batch[group_col].to_pylist(),
                "n": np.ones(len(x), np.int64),
                "sum_x": x,
                "sum_y": y,
                "sum_xx": x * x,
                "sum_yy": y * y,
                "sum_xy": x * y,
            }
        )
        g = df.groupby(group_col, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.select_columns([group_col, x_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_x", alias_name="sum_x"),
            Sum("sum_y", alias_name="sum_y"),
            Sum("sum_xx", alias_name="sum_xx"),
            Sum("sum_yy", alias_name="sum_yy"),
            Sum("sum_xy", alias_name="sum_xy"),
        )
    )


def ks_statistic(
    ds: ray.data.Dataset,
    side_col: str = "source",
    side_b_value: str = "src3",
    value_col: str = "n_chars",
) -> pd.DataFrame:
    """Two-sample Kolmogorov-Smirnov distance between ``value_col``'s
    distribution in slice B (side_col == side_b_value) and the rest of
    the corpus — the distribution-drift alarm for a new crawl dump,
    INTEGER-EXACT: the statistic is reported as
    ``ks_num = max_v |cdf_a(v)*n_b - cdf_b(v)*n_a|`` over the common
    value grid, so D = ks_num / (n_a*n_b) with no float in the
    distributed fold or the comparison.

    Shape: per-batch (value, side) count partials collapse before one
    value-bucket exchange; the driver then folds one row per DISTINCT
    value (bounded by the value domain — n_chars has ~thousands of
    distinct values, documented at the call site), sorts once, and
    takes the running-max of the cumulative difference.

    Returns a 1-row DataFrame: (n_a, n_b, ks_num).
    """

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = pc.equal(batch[side_col], side_b_value).to_numpy(
            zero_copy_only=False
        )
        df = pd.DataFrame(
            {
                "value": batch[value_col].to_numpy(zero_copy_only=False),
                "is_b": side.astype(np.int64),
            }
        )
        g = df.groupby(["value", "is_b"], as_index=False).size()
        g = g.rename(columns={"size": "n"})
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(["value", "is_b"], as_index=False)["n"].sum()

    counts = cogroup(
        {
            "group": (
                ds.select_columns([side_col, value_col]).map_batches(
                    partial, batch_format="pyarrow"
                ),
                "value",
            )
        },
        lambda group: fold(group.to_pandas()),
        lambda group: pa.schema(
            [group.field("value"), ("is_b", pa.int64()), ("n", pa.int64())]
        ),
        n_buckets=64,
        coalesce=True,
        # driver fold bounded by the DISTINCT value domain of value_col
        # (per-value counts, not rows)
    ).to_pandas()
    piv = (
        counts.pivot_table(
            index="value", columns="is_b", values="n", fill_value=0,
            aggfunc="sum",
        )
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    n_a = int(piv[0].sum())
    n_b = int(piv[1].sum())
    cum_a = piv[0].cumsum().to_numpy(np.int64)
    cum_b = piv[1].cumsum().to_numpy(np.int64)
    ks_num = int(np.abs(cum_a * n_b - cum_b * n_a).max()) if len(piv) else 0
    return pd.DataFrame(
        {"n_a": [n_a], "n_b": [n_b], "ks_num": [ks_num]}
    ).astype(np.int64)
