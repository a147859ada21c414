"""The bucket-exchange primitive: bucket, tag, union, exchange and split
for every corpus operator that co-locates rows by a key it builds
itself (the bucket cogroup joins, the per-key reducers, the two-pass
dedup and span passes).

Exchange contract (:func:`cogroup`):

- owner rule: each input names a key column, and a row's bucket is
  ``common.bucket_ids(batch[key], n_buckets)`` for every input of every
  operator. A site whose bucket is computed (an id range, a pair hash)
  first adds that value as a key column in its own map; an int key
  already in ``[0, n_buckets)`` buckets to itself. Bucket ids never
  leave the exchange.
- side split: with more than one input, each input declares its
  payload schema. Rows are padded to the union of those schemas for
  the one exchange, and each bucket is split back by input in Arrow,
  before any pandas conversion, so a padded column never turns an
  int64 into a float64 with nulls. ``reduce`` is called once per
  bucket as ``reduce(**{name: pa.Table})``; each table holds only its
  input's own columns with their own types. An input with no rows in
  the bucket arrives as a zero-row table with its full schema.
- typed empties: ``reduce`` returns a ``pa.Table``, a ``pd.DataFrame``
  or ``None``; the result is cast to ``out_schema`` and a block with no
  rows becomes ``out_schema.empty_table()``.
- coalesce: a narrow pre-aggregated partial stream is coalesced (local,
  no shuffle) to :func:`exchange_width` blocks, and its bucket ids are
  range-partitioned into at most that many fixed ranges; every tagged
  batch carries one null sentinel row per range, so no reduce partition
  is empty and every output block has ``out_schema`` (Ray's sort turns
  an empty partition into a column-less block that no map UDF sees). A
  full-row stream keeps Ray's sampled, block-proportional partitioning.
  Each operator states which it is; there is no default.

Route rule (:func:`fits_broadcast`): an operator that can either
broadcast one side or exchange both materializes that side and
broadcasts it when its in-memory size is at most
``BROADCAST_MAX_BYTES``. The two row-count thresholds
(``dedup.AUTO_BROADCAST_MAX``, ``ngram_lm.BROADCAST_LIMIT``) are the
package's only other route rules; a planner that estimates cost would
replace all three.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .common import bucket_ids
from .shards import cluster_cpus

__all__ = ["BROADCAST_MAX_BYTES", "cogroup", "exchange_width", "fits_broadcast"]

_BUCKET = "_xb"
_INPUT = "_xi"  # input index; -1 marks a sentinel row

# largest side, in in-memory bytes, that an operator broadcasts
# instead of exchanging
BROADCAST_MAX_BYTES = 64 << 20


def fits_broadcast(ds: ray.data.Dataset) -> bool:
    """True when the materialized ``ds`` is small enough to broadcast.
    ``size_bytes()`` of a materialized dataset sums block metadata, so
    the check costs no pass. The bound is read at call time."""
    return ds.size_bytes() <= BROADCAST_MAX_BYTES


def exchange_width() -> int:
    """Block count of coalesced exchanges, and the base of the bucket
    counts that operators size to the cluster: 2x cluster CPUs, at
    least 16. Sort-based exchanges pay per-block reduce-task overhead,
    so a pile of near-empty partial blocks makes the exchange
    overhead-bound; 2 x total cores matches the partition count to the
    cluster and still grows with it (BASELINE.md, round 2)."""
    return max(16, 2 * cluster_cpus())


def _as_table(out, schema: pa.Schema) -> pa.Table:
    if out is None or len(out) == 0:
        return schema.empty_table()
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, schema=schema, preserve_index=False)
    return out.select(schema.names).cast(schema).replace_schema_metadata(None)


def cogroup(
    inputs: Mapping[str, tuple],
    reduce: Callable[..., "pa.Table | pd.DataFrame | None"],
    out_schema: "pa.Schema | Callable[..., pa.Schema]",
    *,
    n_buckets: int,
    coalesce: bool,
) -> ray.data.Dataset:
    """One bucket exchange over one or more inputs; see the module
    docstring for the contract.

    ``inputs`` maps a name to ``(ds, key)`` or ``(ds, key, schema)``.
    The payload schema is required when there is more than one input;
    it comes from the caller, never from ``ds.schema()``, which would
    run an unmaterialized upstream twice. ``reduce`` takes one keyword
    argument per input name. ``out_schema`` may instead be a function
    of the input payload schemas (same keywords), for an operator whose
    output carries input columns it does not declare.
    """
    n_buckets = int(n_buckets)
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    if not inputs:
        raise ValueError("cogroup needs at least one input")
    names = list(inputs)
    specs = [tuple(inputs[n]) for n in names]
    schemas = [s[2] if len(s) > 2 else None for s in specs]
    if len(specs) > 1 and None in schemas:
        raise ValueError("every input of a multi-input cogroup needs a schema")

    fields: dict[str, pa.Field] = {}
    for sch in schemas:
        for f in sch or ():
            if fields.setdefault(f.name, f).type != f.type:
                raise TypeError(f"column {f.name!r} has two types across inputs")
    union = pa.schema(list(fields.values()))

    if coalesce:
        parts = min(n_buckets, exchange_width())
        bounds = [j * n_buckets // parts for j in range(1, parts)] or [1]
        sentinels = np.array([0] + bounds, np.int64)
    else:
        bounds, sentinels = None, np.zeros(0, np.int64)

    def tagger(i: int, key: str, schema):
        def tag(batch: pa.Table) -> pa.Table:
            if schema is not None:
                batch = pa.Table.from_arrays(
                    [
                        batch[f.name].cast(f.type)
                        if f.name in schema.names
                        else pa.nulls(batch.num_rows, f.type)
                        for f in union
                    ],
                    schema=union,
                )
            b = bucket_ids(batch[key], n_buckets)
            side = np.full(len(b), i, np.int8)
            if len(sentinels):
                pad = [pa.nulls(len(sentinels), f.type) for f in batch.schema]
                batch = pa.concat_tables(
                    [batch, pa.Table.from_arrays(pad, schema=batch.schema)]
                )
                b = np.concatenate([b, sentinels])
                side = np.concatenate([side, np.full(len(sentinels), -1, np.int8)])
            # no pandas metadata: Ray dedupes block schemas by hash
            return (
                batch.replace_schema_metadata(None)
                .append_column(_BUCKET, pa.array(b, pa.int64()))
                .append_column(_INPUT, pa.array(side, pa.int8()))
            )

        return tag

    tagged = [
        spec[0].map_batches(tagger(i, spec[1], schemas[i]), batch_format="pyarrow")
        for i, spec in enumerate(specs)
    ]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    if coalesce:
        ds = ds.repartition(exchange_width(), shuffle=False)

    def reduce_block(block: pa.Table) -> pa.Table:
        if len(names) > 1 and not coalesce:
            block = block.sort_by([(_BUCKET, "ascending"), (_INPUT, "ascending")])
        payload = block.schema.names[:-2]
        cols = [payload if sch is None else sch.names for sch in schemas]
        schema = out_schema
        if callable(schema):
            schema = schema(**{n: block.select(c).schema for n, c in zip(names, cols)})
        out = []
        b = block[_BUCKET].to_numpy()
        xi = block[_INPUT].to_numpy()
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(b)) + 1, [len(b)]))
        for s, e in zip(cuts[:-1], cuts[1:]):
            # rows are ordered by input within the bucket, sentinels
            # first: each input is one zero-copy slice
            at = s + np.searchsorted(xi[s:e], np.arange(len(names) + 1))
            if at[0] == e:
                continue
            sides = {
                n: block.slice(at[i], at[i + 1] - at[i]).select(cols[i])
                for i, n in enumerate(names)
            }
            t = _as_table(reduce(**sides), schema)
            if t.num_rows:
                out.append(t)
        return pa.concat_tables(out) if out else schema.empty_table()

    # fixed bucket ranges (coalesce) let the sort also order each bucket
    # by input; a sampled boundary must key on the bucket alone, or it
    # could fall between two inputs of one bucket
    keys = [_BUCKET, _INPUT] if coalesce else [_BUCKET]
    return ds.sort(keys, boundaries=bounds).map_batches(
        reduce_block, batch_size=None, batch_format="pyarrow"
    )
