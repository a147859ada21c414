"""The end-to-end pretraining-corpus composite — every curation stage
this engine implements, chained into ONE pipeline whose final artifact
is the nanoGPT-style binary token shards plus their byte-exact
read-back manifest.

Stage chain (each stage is a previously oracle-green operator):

  1. Gopher quality gate           (quality.gopher_stats_batch)
  2. exact content dedup           (dedup.exact_dedup, keep min id)
  3. MinHash-LSH near-dup cluster survivors
                                   (dedup.minhash_dedup_pairs ->
                                    graph.connected_components ->
                                    full-row anti-join)
  4. contamination SPAN removal against an eval set
                                   (decontaminate.strip_contaminated_spans)
  5. temperature (alpha=0.5) mixture selection by source/language
                                   (mixture.select_mixture, capped
                                    largest-remainder quotas)
  6. tokenize -> global 512-token chunks
                                   (packing.token_stream_chunks)
  7. uint16-LE .bin/.idx shard export + re-read audit
                                   (binexport.export_token_bin_shards,
                                    read_token_bin_manifest)

The output manifest's per-shard bin_md5/idx_md5 pin the EXACT byte
stream, so a single gate row verifies the whole chain end to end: any
divergence in any stage (a doc wrongly gated, a dup wrongly kept, a
span wrongly cut, a quota off by one, a chunk boundary misplaced)
changes the fingerprints.

Scale shape: no stage materializes corpus rows on the driver. The
gate and strip are shuffle-free map passes (broadcast eval-set hash
store); exact dedup is one coarse-bucket exchange; MinHash is the
bucketed band cogroup; the survivor anti-join is one narrow id
exchange against O(duplicates) drop rows; mixture selection moves
only 4096-cell count partials; chunking is the distributed prefix-sum
assembly; export is one chunk-shard exchange with atomic tmp+rename
files. Driver state: quota table + per-source boundary cutoffs + the
n_shards-row manifest.

Tokenizer note: the default token fn is the repo's SQL-derivable
synthetic scheme (doc d -> (d*31 + j) % 32000 per kept word j) so the
DuckDB oracle can replay the chain bit for bit; swap ``token_fn`` for
an `encode_corpus`-style real-BPE batch fn to produce real shards
(pytest pins distributed == serial for that path instead).

Reference scope: the reference has no corpus-curation pipeline at all
(its unit is one PDF); this is the SURVEY.md §8 training-data tier
composed end to end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import cogroup

__all__ = ["drop_rows_by_ids", "pretrain_corpus_chain"]


def drop_rows_by_ids(
    rows: ray.data.Dataset,
    drop_ids: ray.data.Dataset,
    id_col: str = "doc_id",
    n_buckets: int = 512,
) -> ray.data.Dataset:
    """Full-row ANTI-join: every row of ``rows`` whose id is NOT in
    ``drop_ids`` (a Dataset with an ``id_col`` column). One bucketed
    cogroup on the id — the drop side is O(duplicates) but still
    exchanges distributed, never broadcast (the
    `graph.canonical_doc_ids` argument, extended to full rows)."""
    schema = rows.schema()
    names = list(schema.names)

    def _pa_type(t):
        # Ray's Schema carries numpy dtypes for pandas-block datasets;
        # map them to the arrow types the pyarrow-format map produces
        # (object columns surface as string)
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (TypeError, pa.lib.ArrowNotImplementedError):
            return pa.string()

    pa_types = [_pa_type(t) for t in schema.types]

    def anti(rows: pa.Table, drops: pa.Table):
        drop = set(drops[id_col].to_pylist())
        keep = rows.to_pandas()
        return keep[~keep[id_col].isin(drop)]

    row_schema = pa.schema(list(zip(names, pa_types)))
    return cogroup(
        {
            "rows": (rows, id_col, row_schema),
            "drops": (
                drop_ids.select_columns([id_col]),
                id_col,
                pa.schema([row_schema.field(id_col)]),
            ),
        },
        anti,
        row_schema,
        n_buckets=n_buckets,
        coalesce=True,
    )


def _synthetic_token_fn(text_col: str):
    """doc d -> (d*31 + j) % 32000 per word j — the SQL-derivable
    tokenizer stand-in shared with the token_chunks/bin_export gates."""

    def to_ids(batch: pa.Table) -> pa.Table:
        dids = batch["doc_id"].to_pylist()
        ids_out = [
            (
                (d * 31 + np.arange(len((t or "").split()), dtype=np.int64))
                % 32000
            ).astype(np.int32)
            for d, t in zip(dids, batch[text_col].to_pylist())
        ]
        return pa.table(
            {
                "doc_id": pa.array(dids, pa.int64()),
                "ids": pa.array(
                    [x.tolist() for x in ids_out], pa.list_(pa.int32())
                ),
            }
        )

    return to_ids


def pretrain_corpus_chain(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    out_dir: str,
    chunk_len: int = 512,
    n_shards: int = 4,
    key_col: str = "lang",
    id_col: str = "doc_id",
    text_col: str = "text",
    minhash_threshold: float = 0.8,
    contam_n: int = 8,
    min_stopwords: int = 1,
    budget_num: int = 2,
    budget_den: int = 5,
    token_fn=None,
    tokenize_ds=None,
    collect_stats: list | None = None,
) -> pd.DataFrame:
    """Run the full curation chain; returns the shard manifest
    (shard, n_chunks, n_tokens, bin_md5, idx_md5).

    ``docs`` must carry (id_col, text_col, key_col). ``benchmark`` is
    the eval set to decontaminate against (id_col, text_col). The
    token budget is ``budget_num/budget_den`` of the post-dedup,
    post-strip document count, apportioned by sqrt-temperature over
    ``key_col``. Pass ``collect_stats=[]`` to receive per-stage
    ``ds.stats()`` strings (appended in chain order).
    """
    from .binexport import export_token_bin_shards, read_token_bin_manifest
    from .decontaminate import strip_contaminated_spans
    from .dedup import exact_dedup, minhash_dedup_pairs
    from .graph import connected_components
    from .mixture import select_mixture
    from .packing import token_stream_chunks
    from .quality import gopher_stats_batch

    def note(tag, ds):
        if collect_stats is not None:
            try:
                collect_stats.append((tag, ds.stats()))
            except Exception:
                pass

    # 1. Gopher gate (shuffle-free)
    def gate(batch: pa.Table) -> pa.Table:
        stats = gopher_stats_batch(
            batch, text_col=text_col, min_stopwords=min_stopwords
        )
        return batch.filter(stats["passes"])

    gated = docs.map_batches(gate, batch_format="pyarrow")

    # 2. exact dedup (one coarse-bucket exchange); consumed twice
    # (pair generation + survivor anti-join) -> materialize
    dd = (
        exact_dedup(gated, text_col=text_col, id_col=id_col)
        .drop_columns(["text_hash"])
        .materialize()
    )
    note("exact_dedup", dd)

    # 3. MinHash near-dup clusters -> survivor rows
    pairs = minhash_dedup_pairs(
        dd, threshold=minhash_threshold, text_col=text_col, id_col=id_col
    )
    clusters = connected_components(pairs)

    def non_canonical(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pa.compute.not_equal(batch["doc_id"], batch["cluster_id"])
        )

    drops = clusters.map_batches(non_canonical, batch_format="pyarrow")
    surv = drop_rows_by_ids(dd, drops, id_col=id_col)

    # 4. contamination span removal (broadcast eval hash store,
    # shuffle-free); materialized because the count feeds the budget
    stripped = strip_contaminated_spans(
        surv,
        benchmark,
        n=contam_n,
        text_col=text_col,
        id_col=id_col,
        carry_cols=(key_col,),
    ).materialize()
    note("strip_contaminated", stripped)
    n_docs = stripped.count()

    # 5. temperature mixture selection (cell-histogram exchanges only)
    budget = budget_num * n_docs // budget_den
    sel = select_mixture(
        stripped, budget, key_col=key_col, id_col=id_col
    )

    # 6. tokenize kept_text -> global fixed-length chunks.
    # ``tokenize_ds`` (Dataset -> Dataset[doc_id, ids]) plugs in an
    # actor-pool tokenizer (e.g. the real BPE engine via
    # tokenizer.encode_corpus); the default is the SQL-derivable
    # synthetic scheme so the gate oracle replays the whole chain.
    if tokenize_ds is not None:
        ids_ds = tokenize_ds(sel)
    else:
        to_ids = token_fn or _synthetic_token_fn("kept_text")
        ids_ds = sel.map_batches(to_ids, batch_format="pyarrow")
    chunks = token_stream_chunks(ids_ds, chunk_len=chunk_len)

    # 7. binary shard export + byte-exact read-back audit
    shards = export_token_bin_shards(chunks, out_dir, n_shards=n_shards)
    return read_token_bin_manifest(out_dir, shards)
