"""Gate queries for sampling, splits, packing, export and the
training-data composites."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Sum

from pdf_extractor_ray.functions.common import (
    coalesce_for_exchange,
    sized_read_parquet as _rp,
)
from pdf_extractor_ray.functions.exchange import cogroup, exchange_width
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import (
    _DUP_SQL,
    _TOKEN_PAT_SQL,
    _benchmark_docs,
    _docs_with_dups,
    _docs_with_urls,
    _t,
)


_CLF_CNT_CTE = """
        toks AS (
            SELECT doc_id, 'common_' || (doc_id % 7) AS tok FROM documents
            UNION ALL
            SELECT doc_id, 'common_' || ((doc_id * 3) % 7) FROM documents
            UNION ALL
            SELECT doc_id, CASE WHEN doc_id % 2 = 1
                                THEN 'spam_' || (doc_id % 13)
                                ELSE 'ham_' || (doc_id % 11) END
            FROM documents
            UNION ALL
            SELECT doc_id, CASE WHEN doc_id % 2 = 1
                                THEN 'spam_' || ((doc_id * 5) % 13)
                                ELSE 'ham_' || ((doc_id * 5) % 11) END
            FROM documents
            UNION ALL
            SELECT doc_id, CASE WHEN doc_id % 2 = 1
                                THEN 'ham_' || (doc_id % 11)
                                ELSE 'spam_' || (doc_id % 13) END
            FROM documents WHERE doc_id % 3 = 0),
        feats AS MATERIALIZED (
            SELECT doc_id,
                   CAST(('0x' || substring(md5(tok), 1, 8))::UBIGINT
                        % 65536 AS BIGINT) AS feat
            FROM toks),
        cnt AS MATERIALIZED (
            SELECT feat,
                   CAST(sum(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS c0,
                   CAST(sum(CASE WHEN doc_id % 2 = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS c1
            FROM feats GROUP BY feat)"""


def _chunks_with_md5(chunks: ray.data.Dataset) -> ray.data.Dataset:
    """(chunk_id, n_tokens, n_pieces, ids_md5): md5 of the
    comma-joined ids proves exact content AND order of every
    assembled chunk in a hash-comparable string column."""

    def fp(batch: pa.Table) -> pa.Table:
        import hashlib

        fps = [
            hashlib.md5(
                ",".join(str(int(x)) for x in ids).encode()
            ).hexdigest()
            for ids in batch["ids"].to_pylist()
        ]
        return pa.table(
            {
                "chunk_id": batch["chunk_id"],
                "n_tokens": batch["n_tokens"],
                "n_pieces": batch["n_pieces"],
                "ids_md5": pa.array(fps, pa.string()),
            }
        )

    return chunks.map_batches(fp, batch_format="pyarrow")


def _synthetic_token_ids(text_col: str = "text"):
    """Batch fn: doc d contributes token (d*31 + j) % 32000 per word
    j of ``text_col`` — the SQL-derivable synthetic token stream the
    tokenizer-tail gate queries share. Vectorized: word counts via
    C-speed str.split (same count as the \\S+ regex), ids via one
    numpy arange per doc instead of a Python modulo loop (measured
    the dominant wall of bin_export/fim_chunks at sf0.1)."""

    def to_ids(batch: pa.Table) -> pa.Table:
        dids = batch["doc_id"].to_pylist()
        ids_out = [
            ((d * 31 + np.arange(len((t or "").split()), dtype=np.int64))
             % 32000).astype(np.int32)
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


def _synthetic_chunks(sf_dir: str) -> ray.data.Dataset:
    """The documents' synthetic token stream (``_synthetic_token_ids``)
    cut into 512-token chunks."""
    from pdf_extractor_ray.functions.packing import token_stream_chunks

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    to_ids = _synthetic_token_ids()
    return token_stream_chunks(
        docs.map_batches(to_ids, batch_format="pyarrow"), chunk_len=512
    )


@register("token_chunks", bench=True, oracle="""
            WITH w AS (
                SELECT doc_id,
                       len(regexp_extract_all(text,
                           '[^ \\t\\n\\r\\f\\x0b]+')) AS nw
                FROM documents),
            o AS (
                SELECT doc_id, nw,
                       sum(nw) OVER (ORDER BY doc_id) - nw AS off
                FROM w),
            tok AS (
                SELECT doc_id, off, unnest(range(nw)) AS j FROM o),
            c AS (
                SELECT (off + j) // 512 AS chunk_id,
                       off + j AS pos,
                       (doc_id * 31 + j) % 32000 AS tid,
                       doc_id
                FROM tok)
            SELECT CAST(chunk_id AS BIGINT) AS chunk_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_pieces,
                   md5(string_agg(CAST(tid AS VARCHAR), ','
                       ORDER BY pos)) AS ids_md5
            FROM c GROUP BY chunk_id
        """)
def _q_token_chunks(sf_dir: str):
    """GPT-style concat-and-split over a SQL-derivable token stream:
    doc d contributes one token (d*31 + j) % 32000 per word j, the
    global stream (doc_id order) is cut into 512-token chunks by the
    distributed prefix-sum + piece-assembly operator
    (functions/packing.py token_stream_chunks), and each chunk's
    ids_md5 pins exact content and order. The oracle replays the
    stream with a window cumsum and string_agg(... ORDER BY pos)."""
    return _chunks_with_md5(_synthetic_chunks(sf_dir))


# bin_export: byte-exact replay of the on-disk uint16-LE .bin
# shards + int64 .idx triples — same chunk CTE as
# token_chunks, then per-shard (chunk_id % 4) hex streams.
@register("bin_export", bench=True, oracle="""
            WITH w AS (
                SELECT doc_id,
                       len(regexp_extract_all(text,
                           '[^ \\t\\n\\r\\f\\x0b]+')) AS nw
                FROM documents),
            o AS (
                SELECT doc_id, nw,
                       sum(nw) OVER (ORDER BY doc_id) - nw AS off
                FROM w),
            tok AS (
                SELECT doc_id, off, unnest(range(nw)) AS j FROM o),
            c AS (
                SELECT (off + j) // 512 AS chunk_id,
                       off + j AS pos,
                       (doc_id * 31 + j) % 32000 AS tid
                FROM tok),
            h AS (
                SELECT chunk_id % 4 AS shard, chunk_id, pos,
                       lpad(lower(to_hex(tid % 256)), 2, '0') ||
                       lpad(lower(to_hex(tid // 256)), 2, '0') AS hx
                FROM c),
            per_chunk AS (
                SELECT shard, chunk_id, count(*) AS n
                FROM h GROUP BY shard, chunk_id),
            idx AS (
                SELECT shard, chunk_id, n,
                       sum(n) OVER (PARTITION BY shard
                                    ORDER BY chunk_id) - n AS off
                FROM per_chunk),
            idxagg AS (
                SELECT shard, CAST(count(*) AS BIGINT) AS n_chunks,
                       md5(string_agg(chunk_id || ':' || off || ':' || n,
                                      ',' ORDER BY chunk_id)) AS idx_md5
                FROM idx GROUP BY shard),
            binagg AS (
                SELECT shard, CAST(count(*) AS BIGINT) AS n_tokens,
                       md5(string_agg(hx, '' ORDER BY pos)) AS bin_md5
                FROM h GROUP BY shard)
            SELECT CAST(shard AS BIGINT) AS shard, n_chunks, n_tokens,
                   bin_md5, idx_md5
            FROM binagg JOIN idxagg USING(shard)
            ORDER BY shard
        """)
def _q_bin_export(sf_dir: str):
    """nanoGPT/Megatron-style binary token-shard export with a
    byte-exact read-back audit: the SQL-derivable token stream (doc d
    contributes (d*31+j)%32000 per word j, as in token_chunks) is cut
    into 512-token chunks, the chunks land in 4 uint16-LE .bin shards
    (+ int64 .idx offset triples) by chunk_id % 4 — one groupby
    exchange, atomic tmp+rename per file — and the manifest the query
    returns comes from RE-READING the actual files: bin_md5 is the md5
    of the on-disk byte stream's hex, idx_md5 the decoded offset
    triples. The oracle rebuilds both fingerprints from the chunk CTE
    (uint16 LE = low-byte hex then high-byte hex per token)."""
    from pdf_extractor_ray.functions.binexport import (
        export_token_bin_shards,
        read_token_bin_manifest,
    )

    chunks = _synthetic_chunks(sf_dir)
    out_dir = os.path.join(
        "/tmp/graft_bin_export", os.path.basename(sf_dir.rstrip("/"))
    )
    shards = export_token_bin_shards(chunks, out_dir, n_shards=4)
    return read_token_bin_manifest(out_dir, shards)


# fim_chunks: PSM permutation replayed with position CASE
# arithmetic (jj = pos % 512 is the within-chunk index; a
# transformed chunk maps prefix j->j+1, suffix j->j-b+a+2,
# middle j->j+n-b+3) plus three sentinel rows per chunk.
@register("fim_chunks", bench=True, oracle="""
            WITH w AS (
                SELECT doc_id,
                       len(regexp_extract_all(text,
                           '[^ \\t\\n\\r\\f\\x0b]+')) AS nw
                FROM documents),
            o AS (
                SELECT doc_id, nw,
                       sum(nw) OVER (ORDER BY doc_id) - nw AS off
                FROM w),
            tok AS (
                SELECT doc_id, off, unnest(range(nw)) AS j FROM o),
            c AS (
                SELECT (off + j) // 512 AS chunk_id,
                       (off + j) % 512 AS jj,
                       (doc_id * 31 + j) % 32000 AS tid
                FROM tok),
            n AS (SELECT chunk_id, count(*) AS n
                  FROM c GROUP BY chunk_id),
            f AS (
                SELECT chunk_id, n,
                       ((('0x' || substring(md5(CAST(chunk_id AS VARCHAR)),
                                            1, 8))::UBIGINT % 100) < 50
                        AND n >= 3) AS fim,
                       n // 3 AS a, 2 * n // 3 AS b
                FROM n),
            toks AS (
                SELECT c.chunk_id,
                       CASE WHEN NOT f.fim THEN c.jj
                            WHEN c.jj < f.a THEN c.jj + 1
                            WHEN c.jj >= f.b THEN c.jj - f.b + f.a + 2
                            ELSE c.jj + f.n - f.b + 3 END AS op,
                       c.tid
                FROM c JOIN f USING(chunk_id)
                UNION ALL
                SELECT chunk_id, 0, 32001 FROM f WHERE fim
                UNION ALL
                SELECT chunk_id, a + 1, 32002 FROM f WHERE fim
                UNION ALL
                SELECT chunk_id, a + n - b + 2, 32003 FROM f WHERE fim)
            SELECT t.chunk_id, f.fim AS fim_applied,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   md5(string_agg(CAST(t.tid AS VARCHAR), ','
                                  ORDER BY t.op)) AS ids_md5
            FROM toks t JOIN f USING(chunk_id)
            GROUP BY t.chunk_id, f.fim
            ORDER BY t.chunk_id
        """)
def _q_fim_chunks(sf_dir: str):
    """Fill-in-the-middle training transform (Bavarian et al. 2022,
    the StarCoder/CodeLlama data-prep step): 50% of the 512-token
    chunks — selected by the standard md5(chunk_id) percent hash —
    are reordered PSM ([PRE] prefix [SUF] suffix [MID] middle, splits
    at n//3 and 2n//3, sentinels 32001-32003). Pure per-row map, no
    exchange. ids_md5 pins the exact transformed token order; the
    oracle replays the permutation with position CASE arithmetic plus
    three sentinel UNION rows per transformed chunk."""
    from pdf_extractor_ray.functions.fim import fim_transform

    chunks = _synthetic_chunks(sf_dir)
    fim = fim_transform(chunks, rate_pct=50)

    def rollup(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(
                ",".join(str(int(t)) for t in ids).encode()
            ).hexdigest()
            for ids in batch["ids"].to_pylist()
        ]
        return pa.table(
            {
                "chunk_id": batch["chunk_id"],
                "fim_applied": batch["fim_applied"],
                "n_tokens": batch["n_tokens"],
                "ids_md5": pa.array(fps, pa.string()),
            }
        )

    return fim.map_batches(rollup, batch_format="pyarrow")


# span_corrupt: inputs keyed by original position (sentinel
# sits at its span's start — corrupted positions vacate the
# range, so keys stay unique); targets by span-linearized key
# j*(span_len+1) + offset.
@register("span_corrupt", oracle="""
            WITH w AS (
                SELECT doc_id,
                       len(regexp_extract_all(text,
                           '[^ \\t\\n\\r\\f\\x0b]+')) AS nw
                FROM documents),
            o AS (
                SELECT doc_id, nw,
                       sum(nw) OVER (ORDER BY doc_id) - nw AS off
                FROM w),
            tok AS (
                SELECT doc_id, off, unnest(range(nw)) AS j FROM o),
            c AS (
                SELECT (off + j) // 512 AS chunk_id,
                       (off + j) % 512 AS jj,
                       (doc_id * 31 + j) % 32000 AS tid
                FROM tok),
            n AS (SELECT chunk_id, count(*) AS n
                  FROM c GROUP BY chunk_id),
            spans AS (
                SELECT chunk_id,
                       CAST(unnest(range((n - 1) // 20 + 1)) AS BIGINT)
                           AS sp
                FROM n),
            inp AS (
                SELECT chunk_id, jj AS k, tid FROM c WHERE jj % 20 >= 3
                UNION ALL
                SELECT chunk_id, sp * 20 AS k, 32100 + sp AS tid
                FROM spans),
            tgt AS (
                SELECT chunk_id, sp * 4 AS k, 32100 + sp AS tid
                FROM spans
                UNION ALL
                SELECT chunk_id,
                       (jj // 20) * 4 + 1 + (jj % 20) AS k, tid
                FROM c WHERE jj % 20 < 3),
            ia AS (
                SELECT chunk_id, CAST(count(*) AS BIGINT) AS n_inputs,
                       md5(string_agg(CAST(tid AS VARCHAR), ','
                                      ORDER BY k)) AS inputs_md5
                FROM inp GROUP BY chunk_id),
            ta AS (
                SELECT chunk_id, CAST(count(*) AS BIGINT) AS n_targets,
                       md5(string_agg(CAST(tid AS VARCHAR), ','
                                      ORDER BY k)) AS targets_md5
                FROM tgt GROUP BY chunk_id)
            SELECT chunk_id, n_inputs, n_targets, inputs_md5,
                   targets_md5
            FROM ia JOIN ta USING(chunk_id) ORDER BY chunk_id
        """)
def _q_span_corrupt(sf_dir: str):
    """T5-style span corruption (Raffel et al. 2020 §3.1.4, the
    UL2/T5 pretraining objective) over the 512-token chunk stream:
    pinned deterministic geometry (3-token span every 20 positions,
    ~15% corruption), sentinels 32100+j; inputs collapse each span to
    its sentinel, targets emit sentinel-prefixed spans. Pure per-row
    map. The oracle replays both sequences with position arithmetic
    (inputs keyed by original position, targets by span-linearized
    key) and pins each side's md5."""
    from pdf_extractor_ray.functions.fim import span_corrupt

    chunks = _synthetic_chunks(sf_dir)
    sc = span_corrupt(chunks, span_len=3, stride=20)

    def rollup(batch: pa.Table) -> pa.Table:
        fi = [
            hashlib.md5(
                ",".join(str(int(t)) for t in ids).encode()
            ).hexdigest()
            for ids in batch["inputs"].to_pylist()
        ]
        ft = [
            hashlib.md5(
                ",".join(str(int(t)) for t in ids).encode()
            ).hexdigest()
            for ids in batch["targets"].to_pylist()
        ]
        return pa.table(
            {
                "chunk_id": batch["chunk_id"],
                "n_inputs": batch["n_inputs"],
                "n_targets": batch["n_targets"],
                "inputs_md5": pa.array(fi, pa.string()),
                "targets_md5": pa.array(ft, pa.string()),
            }
        )

    return sc.map_batches(rollup, batch_format="pyarrow")


@register("tokenize_chunks")
def _q_tokenize_chunks(sf_dir: str):
    """The REAL training-data export tail: BPE-encode every document
    with the actor-pool stage (vendored ranks table; a real cl100k
    table drops in via ranks_path) and cut the global id stream into
    512-token chunks. Token ids come from the merge loop, so no SQL
    oracle (rows-only); pytest pins encode_corpus == serial encode and
    token_stream_chunks == serial concat+split exactly."""
    from pdf_extractor_ray.functions.packing import token_stream_chunks
    from pdf_extractor_ray.functions.tokenizer import encode_corpus

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    enc = encode_corpus(docs).map_batches(
        lambda b: b.select(["doc_id", "ids"]), batch_format="pyarrow"
    )
    return _chunks_with_md5(token_stream_chunks(enc, chunk_len=512))


@register("shuffle_export", oracle="""
            WITH s AS (
                SELECT doc_id,
                       md5(CAST(doc_id AS VARCHAR)) AS salt_hex,
                       CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 16
                            AS BIGINT) AS shard
                FROM documents)
            SELECT doc_id, shard,
                   CAST(row_number() OVER (
                        PARTITION BY shard
                        ORDER BY salt_hex, doc_id) - 1 AS BIGINT) AS pos
            FROM s
        """)
def _q_shuffle_export(sf_dir: str):
    """Deterministic training shuffle + sharding
    (functions/sampling.py::shuffle_shards): md5 permutation of the
    corpus into 16 shards with in-shard positions; one shard-key
    exchange. Oracle replays shard and rank with md5_number_lower +
    a row_number window."""
    from pdf_extractor_ray.functions.sampling import shuffle_shards

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    return shuffle_shards(docs, n_shards=16).select_columns(
        ["doc_id", "shard", "pos"]
    )


@register("hash_sample", oracle="""
            SELECT lang, count(*) AS n_docs
            FROM documents
            WHERE (('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
                   % 100) < 10
            GROUP BY lang
        """)
def _q_hash_sample(sf_dir: str):
    """Deterministic 10% hash sample of documents, rolled up per lang
    (membership = md5(doc_id) bucket, mirrored exactly by the oracle)."""
    from pdf_extractor_ray.functions.sampling import hash_sample

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "lang"])
    return hash_sample(docs, pct=10).groupby("lang").aggregate(
        Count(alias_name="n_docs")
    )


def _clf_docs(sf_dir: str) -> ray.data.Dataset:
    """Labeled text for the hashed-linear classifier: label = d%2;
    every doc carries two 'common_*' tokens (shared vocabulary), two
    class-marker tokens ('spam_*' for label 1, 'ham_*' for label 0),
    and every 3rd doc one NOISE token from the opposite class — so
    perfect separation requires actual evidence weighing, not a
    single-token lookup. Token duplicates within a doc (d%7 ==
    (d*3)%7 when 7|d) count twice on both sides (bag semantics)."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_rows(batch: pa.Table) -> pa.Table:
        ids, texts, labels = [], [], []
        for d in batch["doc_id"].to_pylist():
            toks = [f"common_{d % 7}", f"common_{(d * 3) % 7}"]
            if d % 2 == 1:
                toks += [f"spam_{d % 13}", f"spam_{(d * 5) % 13}"]
                if d % 3 == 0:
                    toks.append(f"ham_{d % 11}")
            else:
                toks += [f"ham_{d % 11}", f"ham_{(d * 5) % 11}"]
                if d % 3 == 0:
                    toks.append(f"spam_{d % 13}")
            ids.append(d)
            texts.append(" ".join(toks))
            labels.append(d % 2)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "label": pa.array(labels, pa.int64()),
            }
        )

    return docs.map_batches(to_rows, batch_format="pyarrow")


@register("sorted_export", oracle="""
            WITH k AS (
                SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                           AS key
                FROM orders),
            cells AS (
                SELECT key >> 16 AS cell, count(*) AS c
                FROM k GROUP BY 1),
            cum AS (
                SELECT cell,
                       SUM(c) OVER (ORDER BY cell
                                    ROWS UNBOUNDED PRECEDING) - c
                           AS cum_before
                FROM cells),
            parts AS (
                SELECT cell,
                       LEAST(7, CAST(cum_before * 8
                                     // (SELECT count(*) FROM k)
                                     AS BIGINT)) AS part
                FROM cum),
            assigned AS (
                SELECT k.key, p.part
                FROM k JOIN parts p ON (k.key >> 16) = p.cell)
            SELECT part,
                   min(key) AS min_key,
                   max(key) AS max_key,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   md5(string_agg(CAST(key AS VARCHAR), ','
                                  ORDER BY key)) AS keys_md5
            FROM assigned GROUP BY part
        """)
def _q_sorted_export(sf_dir: str):
    """Range-partition global sort of orders by total-price cents —
    `ds.sort` without `ds.sort`: one bounded coarse-cell histogram
    picks deterministic integer boundaries, one exchange on the
    partition id, in-part sorts; the manifest (part, min/max key,
    count, md5 of the sorted key string) proves tiling AND order.
    The oracle derives the identical boundaries from the same
    cumulative-histogram arithmetic."""
    from pdf_extractor_ray.functions.ordering import range_sort_manifest

    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )

    def key(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pa.table(
            {"o_orderkey": batch["o_orderkey"], "key": pa.array(cents)}
        )

    return range_sort_manifest(
        orders.map_batches(key, batch_format="pyarrow"),
        key_col="key", n_parts=8, cell_shift=16,
    )


@register("clf_train", oracle="WITH " + _CLF_CNT_CTE + """
            SELECT feat, c0, c1,
                   CAST(1000000 * (c1 + 1) // (c0 + c1 + 2) AS BIGINT) AS w
            FROM cnt
        """)
def _q_clf_train(sf_dir: str):
    """Hashed-feature classifier training: per-batch (feat, class)
    combiner partials, one groupby-sum exchange, integer smoothed
    weights. The oracle recomputes every count and weight through the
    same md5 feature hash over the regenerated token rows."""
    from pdf_extractor_ray.functions.classifier import train_hashed_linear

    return train_hashed_linear(
        _clf_docs(sf_dir), text_col="text", label_col="label",
        n_features=65_536,
    )


@register("clf_score", oracle="WITH " + _CLF_CNT_CTE + """,
            w AS (SELECT feat,
                         CAST(1000000 * (c1 + 1) // (c0 + c1 + 2)
                              AS BIGINT) AS wv
                  FROM cnt)
            SELECT f.doc_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(sum(w.wv) // count(*) AS BIGINT) AS score,
                   CAST(CASE WHEN sum(w.wv) // count(*) >= 500000
                             THEN 1 ELSE 0 END AS BIGINT) AS predicted
            FROM feats f JOIN w ON w.feat = f.feat
            GROUP BY f.doc_id
        """)
def _q_clf_score(sf_dir: str):
    """Train-then-score composite: the weight table (bounded:
    <= n_features rows) collapses to a dense broadcast vector, every
    doc streams against it — score = sum(w) // n_tokens, predicted =
    score >= 500000, all integer-exact vs the SQL replay."""
    from pdf_extractor_ray.functions.classifier import (
        score_hashed_linear,
        train_hashed_linear,
        weights_to_dense,
    )

    docs = _clf_docs(sf_dir).materialize()  # consumed by train + score
    weights = train_hashed_linear(
        docs, text_col="text", label_col="label", n_features=65_536
    ).to_pandas()  # model-sized: <= 65536 rows regardless of corpus
    dense = weights_to_dense(weights, 65_536)
    return score_hashed_linear(docs, dense, text_col="text")


@register("curation_v2", oracle="WITH " + _CLF_CNT_CTE + """,
            w AS (SELECT feat,
                         CAST(1000000 * (c1 + 1) // (c0 + c1 + 2)
                              AS BIGINT) AS wv
                  FROM cnt),
            s AS (SELECT f.doc_id,
                         CAST(sum(w.wv) // count(*) AS BIGINT) AS score
                  FROM feats f JOIN w ON w.feat = f.feat
                  GROUP BY f.doc_id),
            kept AS (SELECT doc_id, score, score // 10000 AS weight
                     FROM s WHERE score >= 500000),
            pri AS (SELECT doc_id, score, weight,
                           CAST(('0x' || substring(
                                    md5(CAST(doc_id AS VARCHAR)), 1, 15)
                                )::UBIGINT AS BIGINT) // weight
                               AS priority,
                           md5(CAST(doc_id AS VARCHAR)) AS h
                    FROM kept)
            SELECT doc_id, score, CAST(weight AS BIGINT) AS weight,
                   priority
            FROM pri
            ORDER BY priority, h, CAST(doc_id AS VARCHAR)
            LIMIT 50
        """)
def _q_curation_v2(sf_dir: str):
    """End-to-end curation composite chaining the session's operators
    in ONE streaming run: hashed-classifier training (combiner + one
    exchange, model bounded) -> broadcast scoring -> quality gate
    (predicted class 1) -> score-weighted exact sampling (k=50,
    weight = score // 10000). Every stage is integer-exact, so the
    oracle replays the whole chain: counts -> weights -> scores ->
    gate -> priorities -> selection."""
    from pdf_extractor_ray.functions.classifier import (
        score_hashed_linear,
        train_hashed_linear,
        weights_to_dense,
    )
    from pdf_extractor_ray.functions.sampling import weighted_sample

    docs = _clf_docs(sf_dir).materialize()  # consumed by train + score
    weights = train_hashed_linear(
        docs, text_col="text", label_col="label", n_features=65_536
    ).to_pandas()  # model-sized: <= 65536 rows
    dense = weights_to_dense(weights, 65_536)
    scored = score_hashed_linear(docs, dense, text_col="text")

    def gate(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(batch["predicted"], 1))
        score = keep["score"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": keep["doc_id"],
                "score": keep["score"],
                "weight": pa.array(score // 10_000),
            }
        )

    kept = scored.map_batches(gate, batch_format="pyarrow")
    out = weighted_sample(kept, k=50, weight_col="weight", id_col="doc_id")
    return out.select_columns(["doc_id", "score", "weight", "priority"])


@register("holdout_split", oracle="""
            WITH p AS (
                SELECT doc_id,
                       'site-' || (doc_id % 37) || '.example.com' AS host
                FROM documents
            ),
            s AS (
                SELECT host,
                       CASE WHEN (('0x' || substring(md5(host), 1, 8))::UBIGINT
                                  % 1000) < 900 THEN 'train'
                            WHEN (('0x' || substring(md5(host), 1, 8))::UBIGINT
                                  % 1000) < 950 THEN 'val'
                            ELSE 'test' END AS split
                FROM p
            )
            SELECT split, count(*)::BIGINT AS n_docs,
                   count(DISTINCT host)::BIGINT AS n_hosts
            FROM s GROUP BY split
        """)
def _q_holdout_split(sf_dir: str):
    """Leakage-safe train/val/test split keyed on the HOST (all pages
    of a site land in one split, so near-dups never straddle train and
    eval). Per-split doc + distinct-host counts; assignment is the
    md5-permille rule the oracle replays exactly."""
    import pandas as pd

    from pdf_extractor_ray.functions.sampling import domain_holdout_split
    from pdf_extractor_ray.functions.weburl import add_host

    docs = domain_holdout_split(add_host(_docs_with_urls(sf_dir)))

    # per-batch partial counts per host (host determines split), one
    # coarse host-bucket exchange, in-bucket merge -> one row per host;
    # the final groupby runs on 3 split rows per bucket
    def partial(batch: pa.Table) -> pa.Table:
        df = (
            batch.select(["host", "split"])
            .to_pandas()
            .groupby(["host", "split"], as_index=False)
            .size()
        )
        hosts = df["host"].tolist()
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "split": pa.array(df["split"].tolist(), pa.string()),
                "n": pa.array(df["size"].to_numpy(), pa.int64()),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["host", "split"], as_index=False).agg(n=("n", "sum"))
        return g.groupby("split", as_index=False).agg(
            n_docs=("n", "sum"), n_hosts=("host", "size")
        )

    per_bucket = cogroup(
        {"group": (docs.map_batches(partial, batch_format="pyarrow"), "host")},
        lambda group: merge(group.to_pandas()),
        pa.schema([("split", pa.string()), ("n_docs", pa.int64()), ("n_hosts", pa.int64())]),
        n_buckets=256,
        coalesce=True,
    )
    from ray.data.aggregate import Sum

    return per_bucket.groupby("split").aggregate(
        Sum("n_docs", alias_name="n_docs"), Sum("n_hosts", alias_name="n_hosts")
    )


@register("schema_gate", oracle="""
            WITH p AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 13 = 0 THEN NULL
                            WHEN doc_id % 17 = 0 THEN 'ftp://site/' || doc_id
                            ELSE 'https://site-' || (doc_id % 37)
                                 || '.example.com/page/' || doc_id END AS url,
                       CASE WHEN doc_id % 29 = 0 THEN 915148800000
                            ELSE 1704067200000
                                 + (doc_id % 365) * 86400000 END AS fetch_ms,
                       CASE WHEN doc_id % 19 = 0 THEN ''
                            WHEN doc_id % 31 = 0 THEN repeat('x', 2500)
                            ELSE text END AS t,
                       CASE WHEN doc_id % 23 = 0 THEN 'xx'
                            ELSE lang END AS lg
                FROM documents
            ),
            r AS (
                SELECT CASE
                    WHEN url IS NULL OR url = '' THEN 'url_missing'
                    WHEN NOT (url LIKE 'http://%' OR url LIKE 'https://%')
                        THEN 'url_scheme'
                    WHEN fetch_ms < 946684800000
                         OR fetch_ms >= 2051222400000 THEN 'ts_out_of_range'
                    WHEN t IS NULL OR t = '' THEN 'text_empty'
                    WHEN length(t) > 2000 THEN 'text_oversize'
                    WHEN lg NOT IN ('en', 'fr', 'de', 'es', 'und')
                        THEN 'lang_unknown'
                    ELSE 'ok' END AS reason
                FROM p
            )
            SELECT reason, count(*)::BIGINT AS n_rows FROM r GROUP BY reason
        """)
def _q_schema_gate(sf_dir: str):
    """Ingest record-validation gate + dead-letter routing: violations
    (null url, bad scheme, out-of-window fetch ts, empty/oversize
    body, unknown lang) are injected deterministically from doc_id;
    each row gets its FIRST failing rule as a reason and the query
    returns per-reason counts. The oracle replays the priority chain
    as a SQL CASE."""
    from pdf_extractor_ray.functions.validate import (
        dead_letter_summary,
        schema_gate,
    )

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )

    def to_pages(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = batch["lang"].to_pylist()
        url, ms, txt, lg = [], [], [], []
        for i, t, l in zip(ids, texts, langs):
            url.append(
                None if i % 13 == 0
                else f"ftp://site/{i}" if i % 17 == 0
                else f"https://site-{i % 37}.example.com/page/{i}"
            )
            ms.append(
                915_148_800_000 if i % 29 == 0
                else 1_704_067_200_000 + (i % 365) * 86_400_000
            )
            txt.append(
                "" if i % 19 == 0 else "x" * 2500 if i % 31 == 0 else t
            )
            lg.append("xx" if i % 23 == 0 else l)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array(url, pa.string()),
                "fetch_ms": pa.array(ms, pa.int64()),
                "text": pa.array(txt, pa.string()),
                "lang": pa.array(lg, pa.string()),
            }
        )

    gated = schema_gate(
        docs.map_batches(to_pages, batch_format="pyarrow"), max_chars=2000
    )
    return dead_letter_summary(gated)


@register("weighted_sample", oracle="""
            WITH p AS (
                SELECT doc_id,
                       CAST(1 + doc_id % 100 AS BIGINT) AS weight,
                       CAST(('0x' || substring(
                                md5(CAST(doc_id AS VARCHAR)), 1, 15)
                            )::UBIGINT AS BIGINT)
                           // (1 + doc_id % 100) AS priority,
                       md5(CAST(doc_id AS VARCHAR)) AS h
                FROM documents)
            SELECT doc_id, weight, priority
            FROM p
            ORDER BY priority, h, CAST(doc_id AS VARCHAR)
            LIMIT 100
        """)
def _q_weighted_sample(sf_dir: str):
    """Exact weighted sampling without replacement (integer priority
    sampling): k=100 docs with weight 1 + doc_id%100 — higher weight,
    smaller md5-derived priority, more likely selected. Bounded driver
    state (2^16 cell counts + one boundary cell); the oracle computes
    the identical subset by ordering the same integer priorities."""
    from pdf_extractor_ray.functions.sampling import weighted_sample

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def add_weight(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "weight", pa.array(1 + ids % 100, pa.int64())
        )

    ds = docs.map_batches(add_weight, batch_format="pyarrow")
    return weighted_sample(ds, k=100, weight_col="weight", id_col="doc_id")


def _pack_rollup(packed: ray.data.Dataset) -> ray.data.Dataset:
    """Per pack_id of a packed corpus: its doc count and token total."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"pack_id": batch["pack_id"], "n_tokens": batch["n_tokens"]}
        ).to_pandas()
        g = df.groupby("pack_id", as_index=False).agg(
            n_docs=("n_tokens", "size"), pack_tokens=("n_tokens", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        coalesce_for_exchange(packed.map_batches(partial, batch_format="pyarrow"))
        .groupby("pack_id")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("pack_tokens", alias_name="pack_tokens"),
        )
    )


@register("training_mix", oracle=f"""
            WITH d AS ({_DUP_SQL}),
            t AS (
              SELECT doc_id,
                     len(regexp_extract_all('1. Document', '{_TOKEN_PAT_SQL}'))
                       + len(regexp_extract_all(text, '{_TOKEN_PAT_SQL}'))
                       AS n_tokens,
                     md5('1. Document' || chr(10) || chr(10) || text) AS h
              FROM d
            ),
            f AS (SELECT * FROM t WHERE n_tokens >= 50),
            k AS (SELECT *, row_number() OVER (PARTITION BY h
                                               ORDER BY doc_id) AS rn
                  FROM f),
            s AS (SELECT doc_id, n_tokens FROM k WHERE rn = 1),
            c AS (SELECT doc_id, n_tokens,
                         sum(n_tokens) OVER (ORDER BY doc_id
                                             ROWS UNBOUNDED PRECEDING)
                           - n_tokens AS before
                  FROM s)
            SELECT CAST(floor(before / 4096) AS BIGINT) AS pack_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS pack_tokens
            FROM c GROUP BY 1
        """)
def _q_training_mix(sf_dir: str):
    """End-to-end training-data pipeline composition, one streaming
    execution: wrap docs (incl. injected exact dups) as HTML pages ->
    extract -> token-count quality filter -> exact dedup (keep min id
    per extracted-text hash) -> sequence-pack survivors -> per-pack
    rollup. Every stage is SQL-reproducible, so the oracle replays the
    whole chain in CTEs. The page heading is CONSTANT (not id-derived)
    so a re-crawled duplicate extracts byte-identically to its
    original and the dedup stage has real work."""
    import datetime

    from pdf_extractor_ray.functions.dedup import exact_dedup
    from pdf_extractor_ray.functions.packing import sequence_pack
    from pdf_extractor_ray.pipelines import extract_pages
    from pdf_extractor_ray.sources.corpus import PAGES_SCHEMA

    docs = _docs_with_dups(sf_dir)

    def to_pages(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = (
                "<html><body><h1>Document</h1>"
                f"<p>{text}</p></body></html>"
            )
            rows.append(
                {
                    "url": f"https://mix.example.org/{doc_id:08d}",
                    "warc_ts": datetime.datetime(2025, 1, 1),
                    "html": body.encode("utf-8"),
                    "text": "",
                    "lang": "en",
                }
            )
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    extracted = extract_pages(docs.map_batches(to_pages, batch_format="pyarrow"))

    def project(batch: pa.Table) -> pa.Table:
        ids = [int(u.rsplit("/", 1)[1]) for u in batch["url"].to_pylist()]
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pc.cast(batch["n_tokens"], pa.int64()),
                "extracted_text": batch["extracted_text"],
            }
        )
        return t.filter(pc.greater_equal(t["n_tokens"], 50))

    filtered = extracted.map_batches(project, batch_format="pyarrow")
    deduped = exact_dedup(filtered, text_col="extracted_text", id_col="doc_id")
    packed = sequence_pack(
        deduped.select_columns(["doc_id", "n_tokens"]), budget=4096
    )

    return _pack_rollup(packed)


@register("sequence_pack", oracle="""
            WITH t AS (
              SELECT doc_id,
                     len(regexp_extract_all(text,
                         '[A-Za-z0-9]+|[^A-Za-z0-9\\s]')) AS n_tokens
              FROM documents
            ),
            c AS (
              SELECT doc_id, n_tokens,
                     sum(n_tokens) OVER (ORDER BY doc_id
                                         ROWS UNBOUNDED PRECEDING)
                       - n_tokens AS before
              FROM t
            )
            SELECT CAST(floor(before / 4096) AS BIGINT) AS pack_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS pack_tokens
            FROM c GROUP BY 1
        """)
def _q_sequence_pack(sf_dir: str):
    """Sequence packing (training-data sample packing): documents in
    id order fill ~4096-token packs via a two-pass range-partitioned
    prefix sum; rolled up per pack. Oracle = SQL window cumsum."""
    from pdf_extractor_ray.functions.packing import sequence_pack
    from pdf_extractor_ray.functions.textstats import doc_stats_batch

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    stats = docs.map_batches(doc_stats_batch, batch_format="pyarrow")
    packed = sequence_pack(
        stats.select_columns(["doc_id", "n_tokens"]), budget=4096
    )

    return _pack_rollup(packed)


@register("training_chain", oracle="""
            WITH s AS (
              SELECT doc_id, text,
                     len(regexp_extract_all(text, '\\S+')) AS n_words,
                     length(regexp_replace(text, '\\s', '', 'g')) AS word_chars,
                     len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*')) AS n_alpha,
                     list_filter(string_split(text, chr(10)),
                                 x -> regexp_matches(x, '\\S')) AS lines,
                     len(list_distinct(regexp_extract_all(lower(text),
                         '\\b(?:the|be|to|of|and|that|have|with)\\b')))
                       AS n_stop
              FROM documents),
            g AS (
              SELECT doc_id, text FROM s
              WHERE (n_words BETWEEN 50 AND 100000)
                AND CASE WHEN n_words > 0
                         THEN word_chars / CAST(n_words AS DOUBLE)
                         ELSE 0 END BETWEEN 3.0 AND 10.0
                AND CASE WHEN n_words > 0
                         THEN n_alpha / CAST(n_words AS DOUBLE)
                         ELSE 0 END >= 0.80
                AND CASE WHEN len(lines) > 0
                         THEN 1.0 - len(list_distinct(lines))
                                      / CAST(len(lines) AS DOUBLE)
                         ELSE 0 END <= 0.30
                AND n_stop >= 1),
            d AS (
              SELECT min(doc_id) AS doc_id, text FROM g GROUP BY text),
            t AS (
              SELECT doc_id,
                     len(regexp_extract_all(text,
                         '[A-Za-z0-9]+|[^A-Za-z0-9\\s]')) AS n_tokens
              FROM d),
            c AS (
              SELECT doc_id, n_tokens,
                     sum(n_tokens) OVER (ORDER BY doc_id
                                         ROWS UNBOUNDED PRECEDING)
                       - n_tokens AS before
              FROM t)
            SELECT CAST(floor(before / 2048) AS BIGINT) AS pack_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS pack_tokens
            FROM c GROUP BY 1
        """)
def _q_training_chain(sf_dir: str):
    """The composed training-data chain over the documents table —
    gopher quality gate -> exact content dedup (keep min id) ->
    2048-token sequence packing -> per-pack rollup — each stage a
    prior oracle-green operator, the whole chain replayed in one CTE
    stack (like crawl_curate for the crawl side)."""
    from pdf_extractor_ray.functions.dedup import exact_dedup
    from pdf_extractor_ray.functions.packing import sequence_pack
    from pdf_extractor_ray.functions.quality import gopher_stats_batch
    from pdf_extractor_ray.functions.textstats import doc_stats_batch

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def gate(batch: pa.Table) -> pa.Table:
        stats = gopher_stats_batch(batch, text_col="text", min_stopwords=1)
        return batch.filter(stats["passes"])

    gated = docs.map_batches(gate, batch_format="pyarrow")
    deduped = exact_dedup(gated, text_col="text", id_col="doc_id")
    stats = deduped.map_batches(doc_stats_batch, batch_format="pyarrow")
    packed = sequence_pack(
        stats.select_columns(["doc_id", "n_tokens"]), budget=2048
    )

    return _pack_rollup(packed)


@register("pretrain_corpus_bpe")
def _q_pretrain_corpus_bpe(sf_dir: str):
    """The flagship seven-stage chain with the REAL tokenizer: stage
    6 swaps the SQL-derivable synthetic ids for the actual BPE engine
    (kernel/bpe.py, vendored trained table) running as the
    tokenizer.encode_corpus actor pool — proving the chain composes
    with a genuine model-ready tokenize stage, shards still
    byte-audited by re-reading the files. Rows-only at the gate (the
    BPE merge loop is not SQL-expressible; the synthetic-id twin
    `pretrain_corpus` hash-checks every other stage, and BPE encoding
    itself is pytest-pinned distributed == serial elsewhere)."""
    from pdf_extractor_ray.functions.pretrain import pretrain_corpus_chain
    from pdf_extractor_ray.functions.tokenizer import encode_corpus

    corpus = _pretrain_input(sf_dir)
    benchmark = _benchmark_docs(sf_dir)
    out_dir = os.path.join(
        "/tmp/graft_pretrain_bpe", os.path.basename(sf_dir.rstrip("/"))
    )
    return pretrain_corpus_chain(
        corpus,
        benchmark,
        out_dir,
        tokenize_ds=lambda sel: encode_corpus(sel, text_col="kept_text"),
    )


def _pretrain_input(sf_dir: str) -> ray.data.Dataset:
    """The flagship-chain corpus: documents plus an injected EXACT
    copy of every 10th doc (id +1_000_000 — food for the exact-dedup
    stage) plus an injected NEAR copy of every 7th doc (id +2_000_000,
    one appended word — survives exact dedup, lands in a MinHash
    cluster whenever its 3-gram Jaccard >= 0.8, i.e. docs of >= 10
    words). Mirrored exactly by the oracle's UNION ALL stack."""
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )

    def dup_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dups = batch.filter(pa.array(ids % 10 == 0))
        return pa.table(
            {
                "doc_id": pc.add(dups["doc_id"], 1_000_000),
                "text": dups["text"],
                "lang": dups["lang"],
            }
        )

    def near_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        near = batch.filter(pa.array(ids % 7 == 0))
        return pa.table(
            {
                "doc_id": pc.add(near["doc_id"], 2_000_000),
                "text": pc.binary_join_element_wise(
                    near["text"], pa.scalar("graftpad"), " "
                ),
                "lang": near["lang"],
            }
        )

    return docs.union(
        docs.map_batches(dup_rows, batch_format="pyarrow"),
        docs.map_batches(near_rows, batch_format="pyarrow"),
    )


# pretrain_corpus: the WHOLE seven-stage flagship chain in one
# CTE stack — gopher gate, exact dedup, recursive
# Jaccard-cluster closure (MinHash survivors), 8-gram
# contamination interval strip, capped largest-remainder
# temperature quotas + (md5(id), id) rank selection, kept-word
# token stream, 512-token chunk/4-shard hex fingerprints.
@register("pretrain_corpus", bench=True, oracle="""
            WITH RECURSIVE
            d AS (
                SELECT doc_id, text, lang FROM documents
                UNION ALL
                SELECT doc_id + 1000000, text, lang FROM documents
                WHERE doc_id % 10 = 0
                UNION ALL
                SELECT doc_id + 2000000, text || ' graftpad', lang
                FROM documents WHERE doc_id % 7 = 0
            ),
            gs AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\\S+')) AS n_words,
                       length(regexp_replace(text, '\\s', '', 'g'))
                           AS word_chars,
                       len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*'))
                           AS n_alpha,
                       list_filter(string_split(text, chr(10)),
                                   x -> regexp_matches(x, '\\S')) AS lines,
                       len(list_distinct(regexp_extract_all(lower(text),
                           '\\b(?:the|be|to|of|and|that|have|with)\\b')))
                           AS n_stop
                FROM d
            ),
            gq AS (
                SELECT doc_id FROM gs
                WHERE (n_words BETWEEN 50 AND 100000)
                  AND (CASE WHEN n_words > 0
                            THEN word_chars / CAST(n_words AS DOUBLE)
                            ELSE 0 END) BETWEEN 3.0 AND 10.0
                  AND (CASE WHEN n_words > 0
                            THEN n_alpha / CAST(n_words AS DOUBLE)
                            ELSE 0 END) >= 0.80
                  AND (CASE WHEN len(lines) > 0
                            THEN 1.0 - len(list_distinct(lines))
                                       / CAST(len(lines) AS DOUBLE)
                            ELSE 0 END) <= 0.30
                  AND n_stop >= 1
            ),
            gd AS (SELECT d.* FROM d JOIN gq USING (doc_id)),
            x AS (
                SELECT doc_id, text, lang FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY md5(text) ORDER BY doc_id) AS rn
                    FROM gd) WHERE rn = 1
            ),
            sh AS (
                SELECT doc_id,
                       list_distinct(
                         CASE WHEN len(words) < 3
                              THEN [array_to_string(words, ' ')]
                              ELSE list_transform(range(1, len(words)-1),
                                     i -> words[i] || ' ' || words[i+1]
                                          || ' ' || words[i+2])
                         END) AS sset
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '\\S+')
                                 AS words
                      FROM x)
            ),
            pr AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.sset, b.sset))::DOUBLE /
                       len(list_distinct(list_concat(a.sset, b.sset)))
                           AS j
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            ),
            e AS (
                SELECT doc_a AS a, doc_b AS b FROM pr WHERE j >= 0.8
                UNION
                SELECT doc_b, doc_a FROM pr WHERE j >= 0.8
            ),
            reach(a, b) AS (
                SELECT a, b FROM e
                UNION
                SELECT r.a, e.b FROM reach r JOIN e ON r.b = e.a
            ),
            clusters AS (
                SELECT a AS doc_id, least(a, min(b)) AS cluster_id
                FROM reach GROUP BY a
            ),
            surv AS (
                SELECT x.* FROM x
                WHERE doc_id NOT IN (SELECT doc_id FROM clusters
                                     WHERE doc_id != cluster_id)
            ),
            bw AS (SELECT regexp_extract_all(text, '\\S+') AS ws
                   FROM documents WHERE doc_id < 20),
            bg AS (SELECT DISTINCT
                          md5(array_to_string(
                              list_slice(ws, i + 1, i + 8), ' ')) AS g
                   FROM bw, UNNEST(range(0, greatest(len(ws) - 7, 0)))
                       AS t(i)),
            dw AS (SELECT doc_id, lang,
                          regexp_extract_all(text, '\\S+') AS ws
                   FROM surv),
            hit AS (
                SELECT doc_id, i
                FROM dw, UNNEST(range(0, greatest(len(ws) - 7, 0)))
                    AS t(i)
                WHERE md5(array_to_string(
                          list_slice(ws, i + 1, i + 8), ' '))
                      IN (SELECT g FROM bg)
            ),
            cov AS (
                SELECT DISTINCT doc_id, i + k AS jpos
                FROM hit, UNNEST(range(0, 8)) AS t2(k)
            ),
            poss AS (SELECT doc_id, ws, j
                     FROM dw, UNNEST(range(0, len(ws))) AS t(j)),
            keptw AS (
                SELECT p.doc_id, p.ws[p.j + 1] AS w, p.j,
                       row_number() OVER (PARTITION BY p.doc_id
                                          ORDER BY p.j) - 1 AS jj
                FROM poss p LEFT JOIN cov c
                  ON c.doc_id = p.doc_id AND c.jpos = p.j
                WHERE c.jpos IS NULL
            ),
            cnt AS (SELECT lang, count(*) AS n_docs
                    FROM surv GROUP BY lang),
            tot AS (SELECT sum(n_docs) AS N FROM cnt),
            wq AS (SELECT lang, n_docs,
                          CAST(floor(sqrt(n_docs * 1000000.0))
                               AS BIGINT) AS wt
                   FROM cnt),
            wsum AS (SELECT sum(wt) AS W FROM wq),
            bb AS (SELECT CAST(2 * N // 5 AS BIGINT) AS B FROM tot),
            base AS (SELECT lang, n_docs, wt,
                            B * wt // W AS q0, B * wt % W AS rem
                     FROM wq, wsum, bb),
            ex AS (SELECT *,
                          row_number() OVER (ORDER BY rem DESC,
                                             lang) AS rk,
                          (SELECT B FROM bb) - sum(q0) OVER () AS extra
                   FROM base),
            quota0 AS (SELECT lang, n_docs, wt, rk,
                              q0 + CASE WHEN rk <= extra
                                        THEN 1 ELSE 0 END AS q
                       FROM ex),
            capd AS (SELECT lang, n_docs, wt, rk,
                            LEAST(q, n_docs) AS qc,
                            GREATEST(q - n_docs, 0) AS over,
                            n_docs - LEAST(q, n_docs) AS room
                     FROM quota0),
            ov AS (SELECT sum(over) AS overflow FROM capd),
            redis AS (SELECT *,
                             COALESCE(sum(room) OVER (
                                 ORDER BY rk
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING), 0) AS cumroom
                      FROM capd),
            quota AS (SELECT lang,
                             qc + LEAST(room,
                                  GREATEST(overflow - cumroom, 0)) AS q
                      FROM redis, ov),
            selr AS (SELECT s2.doc_id, s2.lang,
                            row_number() OVER (
                                PARTITION BY s2.lang
                                ORDER BY md5(CAST(s2.doc_id AS VARCHAR)),
                                         s2.doc_id) AS rn
                     FROM surv s2),
            sel AS (SELECT selr.doc_id
                    FROM selr JOIN quota USING (lang)
                    WHERE selr.rn <= quota.q),
            nw AS (SELECT sel.doc_id, COALESCE(k.c, 0) AS nwords
                   FROM sel LEFT JOIN (SELECT doc_id, count(*) AS c
                                       FROM keptw GROUP BY doc_id) k
                       USING (doc_id)),
            o AS (SELECT doc_id, nwords,
                         sum(nwords) OVER (ORDER BY doc_id) - nwords
                             AS off
                  FROM nw),
            ctok AS (
                SELECT (o.off + k.jj) // 512 AS chunk_id,
                       o.off + k.jj AS pos,
                       (k.doc_id * 31 + k.jj) % 32000 AS tid
                FROM o JOIN keptw k USING (doc_id)
            ),
            h AS (SELECT chunk_id % 4 AS shard, chunk_id, pos,
                         lpad(lower(to_hex(tid % 256)), 2, '0') ||
                         lpad(lower(to_hex(tid // 256)), 2, '0') AS hx
                  FROM ctok),
            per_chunk AS (SELECT shard, chunk_id, count(*) AS n
                          FROM h GROUP BY shard, chunk_id),
            idx AS (SELECT shard, chunk_id, n,
                           sum(n) OVER (PARTITION BY shard
                                        ORDER BY chunk_id) - n AS off
                    FROM per_chunk),
            idxagg AS (SELECT shard, CAST(count(*) AS BIGINT)
                              AS n_chunks,
                              md5(string_agg(chunk_id || ':' || off
                                             || ':' || n,
                                             ',' ORDER BY chunk_id))
                                  AS idx_md5
                       FROM idx GROUP BY shard),
            binagg AS (SELECT shard, CAST(count(*) AS BIGINT)
                              AS n_tokens,
                              md5(string_agg(hx, '' ORDER BY pos))
                                  AS bin_md5
                       FROM h GROUP BY shard)
            SELECT CAST(shard AS BIGINT) AS shard, n_chunks, n_tokens,
                   bin_md5, idx_md5
            FROM binagg JOIN idxagg USING(shard)
            ORDER BY shard
        """)
def _q_pretrain_corpus(sf_dir: str):
    """THE flagship end-to-end pretraining-data composite
    (functions/pretrain.py::pretrain_corpus_chain): Gopher gate ->
    exact dedup -> MinHash cluster survivors -> contamination SPAN
    removal vs the eval set (docs 0..19) -> temperature (alpha=0.5)
    mixture selection at a 40%% budget -> synthetic-id tokenize ->
    global 512-token chunks -> uint16-LE .bin/.idx shard export with
    byte-exact read-back audit. The 4-row manifest (bin_md5/idx_md5
    per shard) pins the ENTIRE chain: the oracle replays all seven
    stages in one CTE stack (recursive Jaccard-cluster closure,
    8-gram interval strip, capped largest-remainder quotas, prefix-sum
    chunk assembly, hex fingerprints)."""
    from pdf_extractor_ray.functions.pretrain import pretrain_corpus_chain

    corpus = _pretrain_input(sf_dir)
    benchmark = _benchmark_docs(sf_dir)
    out_dir = os.path.join(
        "/tmp/graft_pretrain", os.path.basename(sf_dir.rstrip("/"))
    )
    return pretrain_corpus_chain(corpus, benchmark, out_dir)


@register("stratified_sample", oracle="""
            SELECT lang, count(*) AS n_docs
            FROM documents
            WHERE (('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
                   % 100)
                  < CASE lang WHEN 'en' THEN 80 WHEN 'de' THEN 40
                              WHEN 'fr' THEN 40 WHEN 'es' THEN 20
                              WHEN 'zh' THEN 10 ELSE 5 END
            GROUP BY lang
        """)
def _q_stratified_sample(sf_dir: str):
    """Per-language rebalancing sample (deterministic hash membership,
    shuffle-free) — per-stratum keep rates, rolled up per lang."""
    from pdf_extractor_ray.functions.sampling import stratified_sample

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang"]
    )
    rates = {"en": 80, "de": 40, "fr": 40, "es": 20, "zh": 10}
    return stratified_sample(docs, rates, default_pct=5).groupby(
        "lang"
    ).aggregate(Count(alias_name="n_docs"))


# bitext_mine: ratio-margin mining replayed in closed form —
# x side en, y side de (vec_id joined to documents.lang), k=4
# neighbor averages on both sides, global top-20 by margin
# with (src_id, tgt_id) tie order.
@register("bitext_mine", bench=True, oracle="""
            WITH x AS (SELECT e.vec_id AS id, e.embedding AS v
                       FROM embeddings e JOIN documents d
                         ON d.doc_id = e.vec_id
                       WHERE d.lang = 'en'),
                 y AS (SELECT e.vec_id AS id, e.embedding AS v
                       FROM embeddings e JOIN documents d
                         ON d.doc_id = e.vec_id
                       WHERE d.lang = 'de'),
                 s AS (SELECT x.id AS xid, y.id AS yid,
                              list_cosine_similarity(x.v, y.v) AS cos
                       FROM x CROSS JOIN y),
                 fx AS (SELECT *, row_number() OVER (
                            PARTITION BY xid
                            ORDER BY cos DESC, yid) AS rn
                        FROM s),
                 ax AS (SELECT xid, avg(cos) AS a
                        FROM fx WHERE rn <= 4 GROUP BY xid),
                 fy AS (SELECT *, row_number() OVER (
                            PARTITION BY yid
                            ORDER BY cos DESC, xid) AS rn
                        FROM s),
                 ay AS (SELECT yid, avg(cos) AS a
                        FROM fy WHERE rn <= 4 GROUP BY yid),
                 m AS (SELECT f.xid, f.yid,
                              f.cos / ((ax.a + ay.a) / 2) AS margin
                       FROM fx f JOIN ax USING(xid) JOIN ay USING(yid)
                       WHERE f.rn <= 4),
                 r AS (SELECT xid AS src_id, yid AS tgt_id,
                              row_number() OVER (
                                  ORDER BY margin DESC, xid, yid) AS rank
                       FROM m)
            SELECT src_id, tgt_id, rank FROM r WHERE rank <= 20
        """)
def _q_bitext_mine(sf_dir: str):
    """Margin-based bitext mining (Artetxe & Schwenk 2019; CCMatrix):
    top-20 en->de document pairs by ratio margin cos/((avg_x+avg_y)/2)
    over each side's top-4 cross-lingual neighbors. The de side (the
    smaller language of the pair shard) is broadcast; the en side
    streams through one fused top-k+margin map_batches; per-y averages
    come from the existing knn_bruteforce tree merge. Oracle replays
    the full margin arithmetic with window functions over the exact
    cosine cross join."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.bitext import bitext_margin_pairs

    langs = pq.read_table(
        _t(sf_dir, "documents"), columns=["doc_id", "lang"]
    ).to_pandas()
    de_ids = set(langs.loc[langs["lang"] == "de", "doc_id"].astype(int))
    en_ids = set(langs.loc[langs["lang"] == "en", "doc_id"].astype(int))

    # target side (de): bounded driver load — the broadcast matrix
    yt = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    ydf = yt.to_pandas()
    ydf = ydf[ydf["vec_id"].isin(de_ids)].sort_values("vec_id")
    y_ids = ydf["vec_id"].tolist()
    y_mat = np.asarray(
        [np.asarray(v, dtype=np.float64) for v in ydf["embedding"]]
    )

    # source side (en): streams
    en_ref = ray.put(np.array(sorted(en_ids), dtype=np.int64))

    def only_en(batch: pa.Table) -> pa.Table:
        keep = np.isin(
            batch["vec_id"].to_numpy(zero_copy_only=False), ray.get(en_ref)
        )
        return batch.filter(pa.array(keep))

    x_ds = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    ).map_batches(only_en, batch_format="pyarrow")

    return bitext_margin_pairs(x_ds, y_ids, y_mat, k=4, top_n=20)


# mixture_select: temperature (alpha=0.5) quota apportionment
# in exact integer arithmetic (the one sqrt is IEEE correctly
# rounded on both engines), then per-language hash-rank
# selection with the repo's standard (md5(id), id) order.
@register("mixture_select", bench=True, oracle="""
            WITH n AS (SELECT lang, count(*) AS n_docs
                       FROM documents GROUP BY lang),
                 tot AS (SELECT sum(n_docs) AS N FROM n),
                 w AS (SELECT lang, n_docs,
                              CAST(floor(sqrt(n_docs * 1000000.0))
                                   AS BIGINT) AS wt
                       FROM n),
                 ws AS (SELECT sum(wt) AS W FROM w),
                 b AS (SELECT CAST(2 * N // 5 AS BIGINT) AS B FROM tot),
                 base AS (SELECT lang, n_docs, wt,
                                 B * wt // W AS q0, B * wt % W AS rem
                          FROM w, ws, b),
                 ex AS (SELECT *,
                               row_number() OVER (ORDER BY rem DESC,
                                                  lang) AS rk,
                               (SELECT B FROM b) - sum(q0) OVER ()
                                   AS extra
                        FROM base),
                 quota0 AS (SELECT lang, n_docs, wt, rk,
                                   q0 + CASE WHEN rk <= extra
                                             THEN 1 ELSE 0 END AS q
                            FROM ex),
                 -- cap q_i <= n_i, then redistribute the overflow
                 -- greedily in (rem DESC, lang) order to sources with
                 -- headroom: granted = min(room, max(0, OF - cumroom))
                 -- (the engine's temperature_quotas contract)
                 capd AS (SELECT lang, n_docs, wt, rk,
                                 LEAST(q, n_docs) AS qc,
                                 GREATEST(q - n_docs, 0) AS over,
                                 n_docs - LEAST(q, n_docs) AS room
                          FROM quota0),
                 ov AS (SELECT sum(over) AS overflow FROM capd),
                 redis AS (SELECT *,
                                  COALESCE(sum(room) OVER (
                                      ORDER BY rk
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND 1 PRECEDING), 0) AS cumroom
                           FROM capd),
                 quota AS (SELECT lang, n_docs, wt,
                                  qc + LEAST(room,
                                       GREATEST(overflow - cumroom, 0))
                                      AS q
                           FROM redis, ov),
                 sel AS (SELECT d.lang, d.doc_id,
                                row_number() OVER (
                                    PARTITION BY d.lang
                                    ORDER BY md5(CAST(d.doc_id AS VARCHAR)),
                                             d.doc_id) AS rn
                         FROM documents d),
                 keep AS (SELECT s.lang, s.doc_id
                          FROM sel s JOIN quota q USING(lang)
                          WHERE s.rn <= q.q)
            SELECT q.lang, q.n_docs, q.wt AS weight, q.q AS quota,
                   CAST(count(k.doc_id) AS BIGINT) AS n_selected,
                   COALESCE(md5(string_agg(CAST(k.doc_id AS VARCHAR), ','
                                           ORDER BY k.doc_id)), '')
                       AS sel_md5
            FROM quota q LEFT JOIN keep k USING(lang)
            GROUP BY q.lang, q.n_docs, q.wt, q.q
            ORDER BY q.lang
        """)
def _q_mixture_select(sf_dir: str):
    """Temperature-sampled training-mix composition (mT5/UniMax
    family, alpha=0.5): per-language quotas = largest-remainder
    apportionment of a 40%% document budget over sqrt-scaled counts
    (`functions/mixture.py::temperature_quotas` — exact integer after
    one IEEE-correctly-rounded sqrt), then EXACT per-language
    hash-rank selection via the grouped histogram selector (no
    per-source sort; driver holds cell counts + one cutoff per
    language). Output: per-language (n_docs, weight, quota,
    n_selected, sel_md5) where sel_md5 pins the exact membership. The
    oracle replays quota arithmetic with windows and the selection
    with the identical (md5(id), id) rank."""
    from pdf_extractor_ray.functions.mixture import select_mixture

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang"]
    )
    n = docs.count()  # parquet metadata only
    sel = select_mixture(
        docs.materialize(), 2 * n // 5, key_col="lang", id_col="doc_id"
    )

    # bounded verification rollup (n_langs rows): per-batch id lists,
    # then per-lang sorted-id md5 — same shape as partitioned_sink
    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("lang")["doc_id"].agg(list).rename("ids")
        g = g.reset_index()
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "ids": pa.array(g["ids"], pa.list_(pa.int64())),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(i for lst in group["ids"] for i in lst)
        return pd.DataFrame(
            {
                "lang": [group["lang"].iloc[0]],
                "n_selected": np.int64(len(ids)),
                "sel_md5": [
                    hashlib.md5(
                        ",".join(str(i) for i in ids).encode()
                    ).hexdigest()
                ],
            }
        )

    rolled = (
        sel.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()  # n_langs rows
    )

    # quota table replay (driver-side, n_langs entries — the same
    # counts the operator derived internally)
    from pdf_extractor_ray.functions.mixture import temperature_quotas

    counts = (
        ray.data.read_parquet(_t(sf_dir, "documents"), columns=["lang"])
        .groupby("lang")
        .count()
        .to_pandas()
    )
    quotas = temperature_quotas(
        dict(zip(counts["lang"], counts["count()"])), 2 * n // 5
    )
    qdf = pd.DataFrame(
        [
            {
                "lang": k,
                "n_docs": np.int64(v["n_docs"]),
                "weight": np.int64(v["weight"]),
                "quota": np.int64(v["quota"]),
            }
            for k, v in quotas.items()
        ]
    )
    out = qdf.merge(rolled, on="lang", how="left")
    out["n_selected"] = out["n_selected"].fillna(0).astype(np.int64)
    out["sel_md5"] = out["sel_md5"].fillna("")
    return out.sort_values("lang").reset_index(drop=True)


# kfold_split: row_number window modulo k, exact balance.
@register("kfold_split", oracle="""
            WITH r AS (
                SELECT lang, doc_id,
                       (row_number() OVER (
                            PARTITION BY lang
                            ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                     doc_id) - 1) % 5 AS fold
                FROM documents)
            SELECT lang, CAST(fold AS BIGINT) AS fold,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   md5(string_agg(CAST(doc_id AS VARCHAR), ','
                                  ORDER BY doc_id)) AS ids_md5
            FROM r GROUP BY lang, fold
        """)
def _q_kfold_split(sf_dir: str):
    """Exactly balanced stratified k-fold assignment (cross-validation
    splits want exact balance, not hash-approximate): within each
    language, rank by (md5(id), id) modulo 5 — computed WITHOUT a
    sort via the per-(stratum, salt-cell) count histogram + one
    cogroup exchange (functions/mixture.py::kfold_assign). Output:
    per-(lang, fold) count + membership md5; the oracle replays the
    row_number window modulo k."""
    from pdf_extractor_ray.functions.mixture import kfold_assign

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang"]
    )
    folded = kfold_assign(docs, k=5, strata_col="lang", id_col="doc_id")

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["lang", "fold"])["doc_id"]
            .agg(list)
            .rename("ids")
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "fold": pa.array(g["fold"], pa.int64()),
                "ids": pa.array(g["ids"], pa.list_(pa.int64())),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(i for lst in group["ids"] for i in lst)
        return pd.DataFrame(
            {
                "lang": [group["lang"].iloc[0]],
                "fold": np.int64(group["fold"].iloc[0]),
                "n_rows": np.int64(len(ids)),
                "ids_md5": [
                    hashlib.md5(
                        ",".join(str(i) for i in ids).encode()
                    ).hexdigest()
                ],
            }
        )

    def tag(batch: pa.Table) -> pa.Table:
        lf = [
            f"{l}|{f}"
            for l, f in zip(
                batch["lang"].to_pylist(),
                batch["fold"].to_numpy(zero_copy_only=False),
            )
        ]
        return batch.append_column("_lf", pa.array(lf, pa.string()))

    def merge_cells(rows: pa.Table) -> pd.DataFrame:
        return pd.concat(
            [merge(g) for _, g in rows.to_pandas().groupby("_lf", sort=False)]
        )

    return cogroup(
        {
            "rows": (
                folded.map_batches(partial, batch_format="pyarrow").map_batches(
                    tag, batch_format="pyarrow"
                ),
                "_lf",
            )
        },
        merge_cells,
        pa.schema(
            [("lang", pa.string()), ("fold", pa.int64()), ("n_rows", pa.int64()),
             ("ids_md5", pa.string())]
        ),
        n_buckets=exchange_width(),
        coalesce=False,
    )


@register("strip_tokenize_chain", oracle=f"""
            WITH d AS ({_DUP_SQL}),
            w0 AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text),
                           '[^ \\t\\n\\r\\f\\x0b]+') AS ws
                FROM d),
            w AS (
                SELECT doc_id,
                       unnest(ws) AS word,
                       unnest(range(len(ws))) AS pos
                FROM w0),
            g AS (
                SELECT doc_id,
                       CASE WHEN len(ws) >= 5
                            THEN list_transform(range(1, len(ws) - 3),
                                 i -> ws[i] || ' ' || ws[i+1] || ' ' ||
                                      ws[i+2] || ' ' || ws[i+3] || ' ' ||
                                      ws[i+4])
                            ELSE [] END AS gs
                FROM w0),
            p AS (SELECT doc_id, unnest(gs) AS gram,
                         unnest(range(len(gs))) AS pos
                  FROM g),
            t AS (SELECT gram FROM p GROUP BY gram HAVING count(*) > 1),
            st AS (SELECT p.doc_id, p.pos FROM p JOIN t USING (gram)),
            cov AS (SELECT DISTINCT w.doc_id, w.pos
                    FROM w JOIN st ON st.doc_id = w.doc_id
                                  AND w.pos BETWEEN st.pos AND st.pos + 4),
            kept AS (
                SELECT w.doc_id, count(*) AS n_kept
                FROM w
                WHERE NOT EXISTS (SELECT 1 FROM cov
                                  WHERE cov.doc_id = w.doc_id
                                    AND cov.pos = w.pos)
                GROUP BY w.doc_id),
            k2 AS (
                SELECT w0.doc_id,
                       COALESCE(kept.n_kept, 0) AS nw
                FROM w0 LEFT JOIN kept ON w0.doc_id = kept.doc_id),
            o AS (
                SELECT doc_id, nw,
                       sum(nw) OVER (ORDER BY doc_id) - nw AS off
                FROM k2),
            tok AS (
                SELECT doc_id, off, unnest(range(nw)) AS j FROM o),
            c AS (
                SELECT (off + j) // 256 AS chunk_id,
                       off + j AS pos,
                       (doc_id * 31 + j) % 32000 AS tid,
                       doc_id
                FROM tok)
            SELECT CAST(chunk_id AS BIGINT) AS chunk_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_pieces,
                   md5(string_agg(CAST(tid AS VARCHAR), ','
                       ORDER BY pos)) AS ids_md5
            FROM c GROUP BY chunk_id
        """)
def _q_strip_tokenize_chain(sf_dir: str):
    """Composite: exact substring-dedup REMOVAL feeding GPT-style
    token chunking — the cut corpus (strip_dup_spans kept_text)
    becomes a SQL-derivable token stream ((doc_id*31 + j) % 32000 per
    SURVIVING word j) that token_stream_chunks splits into 256-token
    sequences. One streaming execution end to end; the oracle chains
    the full strip CTE stack into the window-cumsum chunk replay, so
    every chunk's content and order reflects the deduped corpus
    bit for bit."""
    from pdf_extractor_ray.functions.dedup import strip_dup_spans
    from pdf_extractor_ray.functions.packing import token_stream_chunks

    stripped = strip_dup_spans(_docs_with_dups(sf_dir), n=5)

    to_ids = _synthetic_token_ids("kept_text")

    chunks = token_stream_chunks(
        stripped.map_batches(to_ids, batch_format="pyarrow"), chunk_len=256
    )
    return _chunks_with_md5(chunks)
