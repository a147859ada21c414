"""Sequence packing — group documents into fixed token-budget packs.

The standard LLM-training preprocessing step the reference (a
per-document extractor) stops short of: once per-document token counts
exist, training wants documents concatenated into packs of ~budget
tokens. Packing needs a GLOBAL order and a GLOBAL running token total —
the distributed shape here is a two-pass range-partitioned prefix sum,
the canonical way to compute cumulative sums on a cluster without a
single-node scan:

  pass 1: per-batch partials -> per-range token totals (one row per
          id-range bucket; the exchange carries n_buckets rows);
          the driver turns the TINY per-bucket table (n_buckets rows,
          bounded by the constant bucket count, never by corpus size)
          into exclusive prefix offsets and broadcasts them;
  pass 2: an id-range groupby co-locates each range, where a vectorized
          in-bucket sort + cumsum + the broadcast offset assigns every
          document its exclusive global prefix, hence its pack.

Pack rule (start-based packing): a document belongs to the pack where
its exclusive prefix lands — pack_id = floor(prefix_before / budget).
Deterministic given the id order, and exactly expressible in SQL as a
window cumsum, which is what the driver oracle checks:

    sum(n_tokens) OVER (ORDER BY doc_id) - n_tokens -> floor(/budget)

A pack may overrun the budget by at most one document's tokens (the
straddling document stays whole — training-side chunking handles the
tail), which is the usual contract for document-preserving packing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.functions.common import coalesce_for_exchange
from pdf_extractor_ray.functions.exchange import cogroup
from ray.data.aggregate import Max, Min, Sum

__all__ = ["sequence_pack", "token_stream_chunks"]

_CHUNKS = pa.schema(
    [("chunk_id", pa.int64()), ("ids", pa.list_(pa.int32())),
     ("n_tokens", pa.int64()), ("n_pieces", pa.int64())]
)


def token_stream_chunks(
    ds: ray.data.Dataset,
    chunk_len: int = 2048,
    id_col: str = "doc_id",
    ids_col: str = "ids",
    n_buckets: int = 256,
    chunk_buckets: int = 64,
) -> ray.data.Dataset:
    """GPT-style concat-and-split: conceptually concatenate every
    document's token ids in ``id_col`` order into ONE global stream and
    cut it into fixed ``chunk_len`` sequences — exactly what training
    dataloaders consume — without ever materializing the stream.

    Distributed shape: the same two-pass range-partitioned prefix sum
    as :func:`sequence_pack` gives every doc its exclusive global token
    offset; each doc then emits one PIECE row per chunk it overlaps
    (a doc splits across at most ceil(n/chunk_len)+1 chunks), and one
    coarse chunk-bucket groupby assembles each chunk from its pieces by
    offset order. Driver state: the id range + the n_buckets offset
    table. Output: (chunk_id, ids: list<int32>, n_tokens, n_pieces);
    the final tail chunk may be shorter than ``chunk_len``.
    """
    ds = ds.materialize()
    bounds = ds.aggregate(Min(id_col), Max(id_col))
    lo, hi = bounds[f"min({id_col})"], bounds[f"max({id_col})"]
    if lo is None:  # empty input -> zero chunks
        return ray.data.from_arrow(_CHUNKS.empty_table())
    width = max(1, (int(hi) - int(lo) + n_buckets) // n_buckets)

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        return (ids - int(lo)) // width

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = pc.list_value_length(batch[ids_col]).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        df = pd.DataFrame({"_bucket": bucket_of(ids), "t": toks})
        g = df.groupby("_bucket", as_index=False).agg(t=("t", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    totals = (
        coalesce_for_exchange(
            ds.map_batches(partial, batch_format="pyarrow")
        )
        .groupby("_bucket")
        .aggregate(Sum("t", alias_name="t"))
        .to_pandas()
    )
    offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    for _, row in totals.iterrows():
        offsets[int(row["_bucket"]) + 1] = int(row["t"])
    offsets = np.cumsum(offsets)
    offsets_ref = ray.put(offsets)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("_bucket", pa.array(bucket_of(ids)))

    def pieces(group: pd.DataFrame) -> pa.Table:
        off = ray.get(offsets_ref)  # zero-copy plasma read
        g = group.sort_values(id_col).reset_index(drop=True)
        toks = np.array([len(a) for a in g[ids_col]], dtype=np.int64)
        before = np.cumsum(toks) - toks + off[int(g["_bucket"].iloc[0])]
        chunk_out: list[int] = []
        poff_out: list[int] = []
        ids_out: list[np.ndarray] = []
        for doc_ids, b, n in zip(g[ids_col], before, toks):
            if n == 0:
                continue
            arr = np.asarray(doc_ids, dtype=np.int32)
            p = 0
            while p < n:
                gpos = int(b) + p
                c = gpos // chunk_len
                take = min(n - p, (c + 1) * chunk_len - gpos)
                chunk_out.append(c)
                poff_out.append(gpos - c * chunk_len)
                ids_out.append(arr[p : p + take])
                p += take
        return pa.table(
            {
                "chunk_id": pa.array(chunk_out, pa.int64()),
                "poff": pa.array(poff_out, pa.int64()),
                "piece": pa.array(ids_out, pa.list_(pa.int32())),
            }
        )

    def assemble(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["chunk_id", "poff"])
        cids: list[int] = []
        ids_out: list[np.ndarray] = []
        ntok: list[int] = []
        npc: list[int] = []
        for cid, sub in g.groupby("chunk_id", sort=True):
            merged = np.concatenate(
                [np.asarray(p, dtype=np.int32) for p in sub["piece"]]
            )
            cids.append(int(cid))
            ids_out.append(merged)
            ntok.append(len(merged))
            npc.append(len(sub))
        return pa.table(
            {
                "chunk_id": pa.array(cids, pa.int64()),
                "ids": pa.array(ids_out, pa.list_(pa.int32())),
                "n_tokens": pa.array(ntok, pa.int64()),
                "n_pieces": pa.array(npc, pa.int64()),
            }
        )

    piece_ds = cogroup(
        {"group": (ds.map_batches(tag, batch_format="pyarrow"), "_bucket")},
        lambda group: pieces(group.to_pandas()),
        pa.schema(
            [("chunk_id", pa.int64()), ("poff", pa.int64()),
             ("piece", pa.list_(pa.int32()))]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )
    return cogroup(
        {"group": (piece_ds, "chunk_id")},
        lambda group: assemble(group.to_pandas()),
        _CHUNKS,
        n_buckets=chunk_buckets,
        coalesce=True,
    )


def sequence_pack(
    ds: ray.data.Dataset,
    budget: int = 2048,
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Assign each row a pack_id so consecutive (by ``id_col``) rows
    fill ~``budget`` tokens per pack. Input needs ``id_col`` and
    ``tokens_col``; output adds ``pack_id``.

    Driver state: the id range (two scalars) + one n_buckets-row
    offset table — constant-bounded, never corpus-proportional.
    """
    # The input is consumed three times (id bounds, per-bucket totals,
    # the assignment pass); with a lazy Dataset each consumption would
    # re-execute the whole upstream lineage — ruinous when the input is
    # the tail of an extraction+dedup chain. Materialize once: callers
    # pass the projected (id, tokens) columns, so the object-store
    # footprint is ~16 bytes/row and spills if needed.
    ds = ds.materialize()
    bounds = ds.aggregate(Min(id_col), Max(id_col))  # one pass, not two
    lo, hi = bounds[f"min({id_col})"], bounds[f"max({id_col})"]
    if lo is None:  # empty input -> empty output, same added column
        return ds.map_batches(
            lambda b: b.append_column(
                "pack_id", pa.array([], pa.int64())
            ),
            batch_format="pyarrow",
        )
    width = max(1, (int(hi) - int(lo) + n_buckets) // n_buckets)

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        return (ids - int(lo)) // width

    # pass 1: per-bucket token totals (partial-agg inside the batch so
    # the exchange carries one row per bucket per batch)
    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        toks = batch[tokens_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"_bucket": bucket_of(ids), "t": toks})
        g = df.groupby("_bucket", as_index=False).agg(t=("t", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    totals = (
        coalesce_for_exchange(
            ds.select_columns([id_col, tokens_col]).map_batches(
                partial, batch_format="pyarrow"
            )
        )
        .groupby("_bucket")
        .aggregate(Sum("t", alias_name="t"))
        .to_pandas()  # n_buckets rows — bounded by the constant
    )
    offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    for _, row in totals.iterrows():
        offsets[int(row["_bucket"]) + 1] = int(row["t"])
    offsets = np.cumsum(offsets)
    offsets_ref = ray.put(offsets)

    # pass 2: in-range exclusive prefix + broadcast offset -> pack_id
    def tag(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "_bucket", pa.array(bucket_of(ids))
        )

    def assign(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)  # zero-copy plasma read
        g = group.sort_values(id_col).reset_index(drop=True)
        toks = g[tokens_col].to_numpy().astype(np.int64)
        before = np.cumsum(toks) - toks + off[int(g["_bucket"].iloc[0])]
        g["pack_id"] = before // budget
        return g

    return cogroup(
        {"group": (ds.map_batches(tag, batch_format="pyarrow"), "_bucket")},
        lambda group: assign(group.to_pandas()),
        lambda group: pa.schema(
            [f for f in group if f.name != "_bucket"] + [("pack_id", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )
