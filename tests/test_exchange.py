"""The bucket-exchange primitive (functions/exchange.py::cogroup): side
split, typed empties, the owner rule and exact int64 round-trips."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pdf_extractor_ray.functions.exchange import cogroup

BIG = 2**62


def _ds(ray_session, rows: dict, parts: int):
    import ray.data

    return ray.data.from_arrow(pa.table(rows)).repartition(parts)


def _blocks(ds) -> list:
    import ray

    return ray.get(ds.to_arrow_refs())


LEFT = pa.schema([("k", pa.int64()), ("v", pa.int64())])
RIGHT = pa.schema([("k", pa.int64()), ("s", pa.string()), ("w", pa.float64())])
SEEN = pa.schema(
    [
        ("k", pa.int64()),
        ("v", pa.int64()),
        ("n_right", pa.int64()),
        ("right_schema", pa.string()),
        ("left_schema", pa.string()),
    ]
)


def _prober():
    """The reducer, built in a function so Ray workers receive it by
    value (a test module is not importable in a worker)."""

    def probe(left: pa.Table, right: pa.Table) -> pa.Table:
        n = left.num_rows
        return pa.table(
            {
                "k": left["k"],
                "v": left["v"],
                "n_right": pa.array([right.num_rows] * n, pa.int64()),
                "right_schema": pa.array([str(right.schema)] * n, pa.string()),
                "left_schema": pa.array([str(left.schema)] * n, pa.string()),
            }
        )

    return probe


def test_one_sided_bucket_gets_typed_empty_other_side(ray_session):
    left = _ds(ray_session, {"k": np.arange(12), "v": BIG + np.arange(12)}, 3)
    # right rows only in bucket 0 (k % 4 == 0): buckets 1..3 are left-only
    right = _ds(
        ray_session,
        {"k": [0, 4], "s": ["a", "b"], "w": [0.5, 1.5]},
        1,
    )
    out = cogroup(
        {"left": (left, "k", LEFT), "right": (right, "k", RIGHT)},
        _prober(),
        SEEN,
        n_buckets=4,
        coalesce=True,
    ).to_pandas()
    assert sorted(out["k"]) == list(range(12))
    lonely = out[out["k"] % 4 != 0]
    assert (lonely["n_right"] == 0).all()
    # the zero-row side still carries every one of its columns, typed,
    # and nothing of the exchange's own tags
    assert set(lonely["right_schema"]) == {str(RIGHT)}
    assert set(out["left_schema"]) == {str(LEFT)}
    paired = out[out["k"] % 4 == 0]
    assert (paired["n_right"] == 2).all()


def test_large_int64_values_survive_the_padded_union(ray_session):
    vals = BIG + np.arange(50, dtype=np.int64) * 7919
    left = _ds(ray_session, {"k": np.arange(50), "v": vals}, 4)
    right = _ds(ray_session, {"k": [1], "s": ["x"], "w": [2.0]}, 1)
    out = cogroup(
        {"left": (left, "k", LEFT), "right": (right, "k", RIGHT)},
        _prober(),
        SEEN,
        n_buckets=8,
        coalesce=False,
    ).to_arrow_refs()
    import ray

    t = pa.concat_tables(b for b in ray.get(out) if b.num_rows).sort_by("k")
    assert t["v"].type == pa.int64()
    assert t["v"].to_pylist() == vals.tolist()


def test_single_input_form(ray_session):
    ds = _ds(ray_session, {"word": list("abcabcab"), "n": [1] * 8}, 3)

    def total(rows: pa.Table) -> pd.DataFrame:
        assert rows.column_names == ["word", "n"]
        return rows.to_pandas().groupby("word", as_index=False)["n"].sum()

    out = cogroup(
        {"rows": (ds, "word")},
        total,
        pa.schema([("word", pa.string()), ("n", pa.int64())]),
        n_buckets=2,
        coalesce=True,
    ).to_pandas()
    assert dict(zip(out["word"], out["n"])) == {"a": 3, "b": 3, "c": 2}


def test_zero_buckets_raises_before_any_exchange(ray_session):
    ds = _ds(ray_session, {"k": [1, 2]}, 1)
    with pytest.raises(ValueError, match="n_buckets"):
        cogroup(
            {"rows": (ds, "k")},
            lambda rows: rows,
            pa.schema([("k", pa.int64())]),
            n_buckets=0,
            coalesce=True,
        )


def test_every_output_block_has_out_schema(ray_session):
    """Most buckets return nothing (and some partitions get no real
    rows at all): every block still carries exactly ``out_schema``."""
    ds = _ds(ray_session, {"k": np.arange(40), "v": np.arange(40)}, 5)
    out_schema = pa.schema([("k", pa.int64()), ("v2", pa.int64())])

    def only_bucket_zero(rows: pa.Table) -> pd.DataFrame:
        df = rows.to_pandas()
        df = df[df["k"] % 8 == 0]
        return pd.DataFrame({"k": df["k"], "v2": df["v"] * 2})

    res = cogroup(
        {"rows": (ds, "k")},
        only_bucket_zero,
        out_schema,
        n_buckets=8,
        coalesce=True,
    )
    blocks = _blocks(res)
    assert blocks
    assert all(b.schema == out_schema for b in blocks), [b.schema for b in blocks]
    got = pa.concat_tables(blocks).sort_by("k")
    assert got["k"].to_pylist() == list(range(0, 40, 8))
