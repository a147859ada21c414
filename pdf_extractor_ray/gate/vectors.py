"""Gate queries over the ``embeddings`` table: kNN, ANN, clustering
and coresets."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count

from pdf_extractor_ray.functions.common import coalesce_for_exchange
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _load_query_vectors, _t


def _kcenter_sql(k: int) -> str:
    """Unrolled farthest-first replay over centi-quantized vectors."""
    parts = [
        """WITH x AS (
    SELECT vec_id, unnest(embedding) AS v,
           unnest(range(len(embedding))) AS i
    FROM embeddings),
q AS (
    SELECT vec_id AS id, i,
           CAST(floor(CAST(v AS DOUBLE) * 100 + 0.5) AS BIGINT) AS qv
    FROM x),
c0 AS (SELECT min(id) AS id FROM q)"""
    ]
    for r in range(1, k):
        if r == 1:
            parts.append(
                f"""d{r} AS (
    SELECT a.id, sum((a.qv - b.qv) * (a.qv - b.qv)) AS md
    FROM q a JOIN q b
      ON b.id = (SELECT id FROM c{r - 1}) AND a.i = b.i
    GROUP BY a.id)"""
            )
        else:
            parts.append(
                f"""d{r} AS (
    SELECT a.id, LEAST(p.md, sum((a.qv - b.qv) * (a.qv - b.qv))) AS md
    FROM q a JOIN q b
      ON b.id = (SELECT id FROM c{r - 1}) AND a.i = b.i
    JOIN d{r - 1} p ON p.id = a.id
    GROUP BY a.id, p.md)"""
            )
        parts.append(
            f"c{r} AS (SELECT id FROM d{r} ORDER BY md DESC, id LIMIT 1)"
        )
    sel = " UNION ALL ".join(
        f"SELECT {r} AS rank, (SELECT id FROM c{r}) AS center_id"
        for r in range(k)
    )
    return (
        ",\n".join(parts)
        + "\nSELECT CAST(rank AS BIGINT) AS rank,"
        + " CAST(center_id AS BIGINT) AS center_id"
        + f" FROM ({sel}) ORDER BY rank"
    )


def _nsw_sql(
    rounds: int = 3,
    ef: int = 8,
    k: int = 5,
    m: int = 4,
    mx: int = 0,
    n_link_cells: int = 1,
    n_cells: int = 16,
    n_queries: int = 5,
) -> str:
    """Chained-CTE replay of the NSW build + beam search; every CTE
    referenced twice is MATERIALIZED (the `hits` lesson — DuckDB
    would otherwise inline the beam chain exponentially)."""
    head = f"""WITH x AS (
    SELECT vec_id, unnest(embedding) AS v,
           unnest(range(len(embedding))) AS i
    FROM embeddings),
q AS MATERIALIZED (
    SELECT vec_id AS id, i,
           CAST(floor(CAST(v AS DOUBLE) * 100 + 0.5) AS BIGINT) AS qv
    FROM x),
nodes AS MATERIALIZED (SELECT DISTINCT id FROM q),
cent AS (
    SELECT id, row_number() OVER (ORDER BY id) - 1 AS cidx
    FROM nodes ORDER BY id LIMIT {n_cells}),
cd AS (
    SELECT a.id, c.cidx,
           sum((a.qv - b.qv) * (a.qv - b.qv)) AS d2
    FROM q a
    JOIN cent c ON TRUE
    JOIN q b ON b.id = c.id AND b.i = a.i
    GROUP BY a.id, c.cidx),
cells AS MATERIALIZED (
    SELECT id, cidx FROM (
        SELECT id, cidx,
               row_number() OVER (PARTITION BY id
                                  ORDER BY d2, cidx) AS rn
        FROM cd) WHERE rn = 1),
pd AS (
    SELECT a.id AS src, b.id AS dst,
           sum((qa.qv - qb.qv) * (qa.qv - qb.qv)) AS d2
    FROM cells a
    JOIN cells b ON a.cidx = b.cidx AND a.id <> b.id
    JOIN q qa ON qa.id = a.id
    JOIN q qb ON qb.id = b.id AND qb.i = qa.i
    GROUP BY a.id, b.id),
cells2 AS MATERIALIZED (
    SELECT id, cidx FROM (
        SELECT id, cidx,
               row_number() OVER (PARTITION BY id
                                  ORDER BY d2, cidx) AS rn
        FROM cd) WHERE rn BETWEEN 2 AND {1 + n_link_cells}),
pdx AS (
    SELECT a.id AS src, a.cidx AS vcell, b.id AS dst,
           sum((qa.qv - qb.qv) * (qa.qv - qb.qv)) AS d2
    FROM cells2 a
    JOIN cells b ON a.cidx = b.cidx AND a.id <> b.id
    JOIN q qa ON qa.id = a.id
    JOIN q qb ON qb.id = b.id AND qb.i = qa.i
    GROUP BY a.id, a.cidx, b.id),
edges AS MATERIALIZED (
    SELECT src, dst FROM (
        SELECT src, dst,
               row_number() OVER (PARTITION BY src
                                  ORDER BY d2, dst) AS rn
        FROM pd) WHERE rn <= {m}
    UNION ALL
    SELECT src, dst FROM (
        SELECT src, dst,
               row_number() OVER (PARTITION BY src, vcell
                                  ORDER BY d2, dst) AS rn
        FROM pdx) WHERE rn <= {mx}
    UNION ALL
    SELECT a.id AS src, b.id AS dst
    FROM cent a JOIN cent b ON a.id <> b.id),
qs AS (SELECT id AS qid FROM nodes ORDER BY id LIMIT {n_queries}),
qd AS MATERIALIZED (
    SELECT qs.qid, qa.id,
           sum((qa.qv - qq.qv) * (qa.qv - qq.qv)) AS d2
    FROM qs
    JOIN q qq ON qq.id = qs.qid
    JOIN q qa ON qa.i = qq.i
    GROUP BY qs.qid, qa.id),
e0 AS (SELECT min(id) AS node FROM nodes),
b0 AS MATERIALIZED (
    SELECT qid, (SELECT node FROM e0) AS node FROM qs)"""
    parts = [head]
    for r in range(1, rounds + 1):
        parts.append(
            f"""c{r} AS (
    SELECT qid, node FROM b{r - 1}
    UNION
    SELECT b.qid, e.dst AS node
    FROM b{r - 1} b JOIN edges e ON e.src = b.node),
b{r} AS MATERIALIZED (
    SELECT qid, node FROM (
        SELECT c.qid, c.node,
               row_number() OVER (PARTITION BY c.qid
                                  ORDER BY qd.d2, c.node) AS rn
        FROM c{r} c
        JOIN qd ON qd.qid = c.qid AND qd.id = c.node)
    WHERE rn <= {ef})"""
        )
    tail = f"""SELECT qid AS query_id, node AS neighbor_id,
       CAST(rn AS BIGINT) AS rank
FROM (
    SELECT b.qid, b.node,
           row_number() OVER (PARTITION BY b.qid
                              ORDER BY qd.d2, b.node) AS rn
    FROM b{rounds} b
    JOIN qd ON qd.qid = b.qid AND qd.id = b.node)
WHERE rn <= {k} ORDER BY query_id, rank"""
    return ",\n".join(parts) + "\n" + tail


def _kmeans_sql(k: int = 8, iters: int = 2) -> str:
    """Chained-CTE replay of distributed integer Lloyd k-means
    (`similarity.kmeans_lloyd`): micro-unit quantization, k-lowest-id
    init, argmin assignment with (d ASC, j ASC) ties, truncated-//
    centroid update with empty clusters keeping their centroid, and a
    final assignment under the last centroids."""
    parts = [
        """WITH q AS (
    SELECT vec_id, i AS dim,
           CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000000 + 0.5)
                AS BIGINT) AS val
    FROM embeddings, unnest(generate_series(1, len(embedding))) AS t(i)
),
cen0 AS (
    SELECT dense_rank() OVER (ORDER BY vec_id) - 1 AS j, dim,
           val AS cval
    FROM q
    QUALIFY dense_rank() OVER (ORDER BY vec_id) <= {k}
)""".format(k=k)
    ]
    for it in range(1, iters + 2):
        parts.append(
            """a{it} AS (
    SELECT vec_id, j FROM (
        SELECT q.vec_id, c.j,
               sum((q.val - c.cval) * (q.val - c.cval)) AS d
        FROM q JOIN cen{prev} c USING (dim)
        GROUP BY q.vec_id, c.j
    ) QUALIFY row_number() OVER (
        PARTITION BY vec_id ORDER BY d ASC, j ASC) = 1
)""".format(it=it, prev=it - 1)
        )
        if it <= iters:
            parts.append(
                """cen{it} AS (
    SELECT c.j, c.dim, COALESCE(s.sv // s.n, c.cval) AS cval
    FROM cen{prev} c LEFT JOIN (
        SELECT a.j, q.dim, sum(q.val) AS sv, count(*) AS n
        FROM a{it} a JOIN q USING (vec_id)
        GROUP BY a.j, q.dim
    ) s ON s.j = c.j AND s.dim = c.dim
)""".format(it=it, prev=it - 1)
            )
    return (
        ",\n".join(parts)
        + "\nSELECT CAST(vec_id AS BIGINT) AS vec_id, "
        + "CAST(j AS BIGINT) AS cluster FROM a{f}".format(f=iters + 1)
    )


_KNN_BRUTE_SQL = """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 5),
                 s AS (SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                              list_cosine_similarity(q.qe, e.embedding) AS cos
                       FROM q CROSS JOIN embeddings e
                       WHERE e.vec_id <> q.qid),
                 r AS (SELECT query_id, neighbor_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, neighbor_id) AS rn
                       FROM s)
            SELECT query_id, neighbor_id, rn AS rank FROM r WHERE rn <= 5
        """


_KNN_LSH_SQL = """
            WITH p AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS plane,
                              embedding AS pe
                       FROM embeddings ORDER BY vec_id LIMIT 6),
                 codes AS (SELECT e.vec_id,
                                  CAST(sum(CASE WHEN list_dot_product(e.embedding, p.pe) > 0
                                                THEN CAST(1 << p.plane AS BIGINT)
                                                ELSE 0 END) AS BIGINT) AS code
                           FROM embeddings e CROSS JOIN p GROUP BY e.vec_id),
                 q AS (SELECT vec_id AS qid, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 5),
                 qc AS (SELECT q.qid, c.code FROM q JOIN codes c ON c.vec_id = q.qid),
                 probe AS (SELECT DISTINCT code FROM (
                               SELECT code FROM qc
                               UNION ALL
                               SELECT xor(code, CAST(1 << i AS BIGINT)) AS code
                               FROM qc CROSS JOIN (SELECT unnest(range(6)) AS i) t(i))),
                 kept AS (SELECT e.vec_id, e.embedding
                          FROM embeddings e JOIN codes c ON c.vec_id = e.vec_id
                          WHERE c.code IN (SELECT code FROM probe)),
                 s AS (SELECT q.qid AS query_id, kept.vec_id AS neighbor_id,
                              list_cosine_similarity(q.qe, kept.embedding) AS cos
                       FROM q CROSS JOIN kept),
                 r AS (SELECT query_id, neighbor_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, neighbor_id) AS rn
                       FROM s)
            SELECT query_id, neighbor_id, rn AS rank FROM r WHERE rn <= 5
        """


# SemDeDup: centroids are the 16 lowest vec_ids (data-point
# training state); cluster = centroid rank by assignment
# argmax (cos DESC, centroid id ASC); an item is dropped when
# ANY earlier item in keep order (centroid-cos ASC, id ASC)
# within its cluster is >= 0.99 similar.
@register("semantic_dedup", oracle="""
            WITH e AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 1000000 AS vec_id, embedding
                FROM embeddings WHERE vec_id % 10 = 0),
            c AS (
                SELECT vec_id AS cid, embedding AS ce,
                       CAST(row_number() OVER (ORDER BY vec_id) - 1
                            AS BIGINT) AS crank
                FROM embeddings ORDER BY vec_id LIMIT 16),
            ac AS (
                SELECT e.vec_id, e.embedding, c.crank,
                       list_cosine_similarity(e.embedding, c.ce) AS ccos,
                       row_number() OVER (
                           PARTITION BY e.vec_id
                           ORDER BY list_cosine_similarity(
                               e.embedding, c.ce) DESC, c.cid ASC) AS rn
                FROM e CROSS JOIN c),
            asn AS (
                SELECT vec_id, embedding, crank AS cluster, ccos
                FROM ac WHERE rn = 1)
            SELECT j.vec_id, j.cluster
            FROM asn j
            WHERE NOT EXISTS (
                SELECT 1 FROM asn i
                WHERE i.cluster = j.cluster
                  AND (i.ccos < j.ccos
                       OR (i.ccos = j.ccos AND i.vec_id < j.vec_id))
                  AND list_cosine_similarity(
                          i.embedding, j.embedding) >= 0.99)
        """)
def _q_semantic_dedup(sf_dir: str):
    """SemDeDup over embeddings + planted exact copies: k-means
    bucket (data-point centroids = the 16 lowest vec_ids — SQL-
    replayable training state), then per-cluster predecessor-
    dominates pruning at eps=0.99 in keep order (centroid-cos ASC,
    id ASC). The oracle replays assignment with a row_number over
    the centroid cross join and the prune with one EXISTS; planted
    copies sit at cosine 1.0 so the threshold decision is float-
    robust on both sides."""
    from pdf_extractor_ray.functions.similarity import semantic_dedup

    return semantic_dedup(
        _emb_with_dups(sf_dir),
        eps=0.99,
        n_clusters=16,
        iters=0,
        init="first",
    )


@register("knn_brute", bench=True, oracle=_KNN_BRUTE_SQL)
def _q_knn_brute(sf_dir: str):
    from pdf_extractor_ray.functions.similarity import knn_bruteforce

    ids, mat = _load_query_vectors(sf_dir, 5)
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_bruteforce(emb, mat, ids, k=6)  # pandas (bounded candidates)
    out = out[out["neighbor_id"] != out["query_id"]]
    out = out.groupby("query_id", as_index=False).head(5).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", "neighbor_id", "rank"]]


@register("dedup_embedding", oracle="""
            WITH q AS (SELECT vec_id AS qid, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 20),
                 s AS (SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                              list_cosine_similarity(q.qe, e.embedding) AS cos
                       FROM q CROSS JOIN embeddings e
                       WHERE e.vec_id <> q.qid),
                 r AS (SELECT query_id, neighbor_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, neighbor_id) AS rn
                       FROM s)
            SELECT query_id, neighbor_id FROM r WHERE rn = 1
        """)
def _q_dedup_embedding(sf_dir: str):
    """Nearest neighbor (top-1, self excluded) per probe vector —
    embedding-cosine near-dup candidates."""
    from pdf_extractor_ray.functions.similarity import knn_bruteforce

    ids, mat = _load_query_vectors(sf_dir, 20)
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_bruteforce(emb, mat, ids, k=2)  # pandas (bounded candidates)
    out = out[out["neighbor_id"] != out["query_id"]]
    out = out.groupby("query_id", as_index=False).head(1)
    return out[["query_id", "neighbor_id"]].reset_index(drop=True)


# hard_negatives: cosine cross join restricted to different
# labels; self is excluded automatically (same label).
@register("hard_negatives", oracle="""
            WITH q AS (SELECT vec_id AS qid, embedding AS qe,
                              label AS ql
                       FROM embeddings ORDER BY vec_id LIMIT 20),
                 s AS (SELECT q.qid, e.vec_id AS nid,
                              list_cosine_similarity(q.qe, e.embedding)
                                  AS cos
                       FROM q JOIN embeddings e ON e.label <> q.ql),
                 r AS (SELECT qid, nid,
                              row_number() OVER (PARTITION BY qid
                                  ORDER BY cos DESC, nid) AS rn
                       FROM s)
            SELECT qid AS query_id, nid AS neighbor_id, rn AS rank
            FROM r WHERE rn <= 3
        """)
def _q_hard_negatives(sf_dir: str):
    """Hard-negative mining for contrastive embedding training (the
    offline step of every dense-retrieval pipeline): for each of the
    20 lowest-id vectors, the top-3 most-similar vectors with a
    DIFFERENT label — same-label rows are masked in the batch kernel
    before the top-k prune, so they can never surface. Oracle = the
    exact cosine cross join with the label-inequality predicate."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.functions.similarity import knn_hard_negatives

    t = pq.read_table(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding", "label"]
    )
    df = t.to_pandas().sort_values("vec_id").head(20)
    ids = df["vec_id"].tolist()
    labs = df["label"].tolist()
    mat = np.asarray(
        [np.asarray(v, dtype=np.float64) for v in df["embedding"]]
    )
    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"),
        columns=["vec_id", "embedding", "label"],
    )
    out = knn_hard_negatives(emb, mat, ids, labs, k=3)
    return out[["query_id", "neighbor_id", "rank"]]


# LSH replay: planes = the 6 lowest-id vectors; bucket code =
# bit pattern of dot-product signs (scale-invariant, so raw
# dots replay the library's normalized ones); probe set = each
# query's code plus its 6 Hamming-1 neighbors (multiprobe).
@register("knn_lsh", oracle=_KNN_LSH_SQL)
def _q_knn_lsh(sf_dir: str):
    """Random-hyperplane LSH ANN with data-sampled planes: hyperplanes
    = the 6 lowest-id corpus vectors, so the sign-pattern bucketing is
    exactly replayable by the SQL oracle (raw dot products — signs are
    scale-invariant). Value-checked end to end at the driver gate; the
    seeded-Gaussian-planes default stays pinned by pytest."""
    from pdf_extractor_ray.functions.similarity import knn_lsh

    pids, planes = _load_query_vectors(sf_dir, 6)
    ids, mat = pids[:5], planes[:5]
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_lsh(emb, mat, ids, k=5, plane_vectors=planes)  # pandas
    return out[["query_id", "neighbor_id", "rank"]]


# composed oracle: ANN recall = LSH top-5 vs brute top-5 overlap,
# built from the two leg oracles verbatim so the contract can't
# drift from what the legs themselves are gated on
@register(
    "ann_recall",
    oracle=(
        "SELECT b.query_id, "
        "CAST(count(l.neighbor_id) AS BIGINT) AS n_hit, "
        "CAST(1000 * count(l.neighbor_id) // 5 AS BIGINT) AS recall_pm "
        "FROM (" + _KNN_BRUTE_SQL + ") b LEFT JOIN ("
        + _KNN_LSH_SQL + ") l ON l.query_id = b.query_id "
        "AND l.neighbor_id = b.neighbor_id GROUP BY b.query_id"
    ),
)
def _q_ann_recall(sf_dir: str):
    """ANN quality evaluation: per-query recall of the LSH index
    against the exact brute-force top-5 — the accept/reject metric
    for any approximate index before it replaces the exact path at
    scale. Composes the two existing legs (each independently
    hash-gated); the merge is Q x k rows, driver-bounded. Oracle =
    the two leg oracles joined verbatim."""
    b = _q_knn_brute(sf_dir)
    lsh = _q_knn_lsh(sf_dir)
    b = b.to_pandas() if hasattr(b, "to_pandas") else b
    lsh = lsh.to_pandas() if hasattr(lsh, "to_pandas") else lsh
    hit = b.merge(
        lsh[["query_id", "neighbor_id"]].assign(_hit=1),
        on=["query_id", "neighbor_id"],
        how="left",
    )
    g = hit.groupby("query_id", as_index=False)["_hit"].count()
    g["n_hit"] = g["_hit"].astype("int64")
    g["recall_pm"] = (1000 * g["n_hit"] // 5).astype("int64")
    return g[["query_id", "n_hit", "recall_pm"]]


def _emb_with_dups(sf_dir: str) -> ray.data.Dataset:
    """embeddings plus an exact copy of every 10th vector (id
    +1_000_000) — near-dup ground truth mirrored by the oracle."""
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    def dup_rows(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        dups = batch.filter(pa.array(ids % 10 == 0))
        return pa.table(
            {
                "vec_id": pc.add(dups["vec_id"], 1_000_000),
                "embedding": dups["embedding"],
            }
        )

    return emb.union(emb.map_batches(dup_rows, batch_format="pyarrow"))


@register("neardup_bucketed", oracle="""
            WITH e AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 1000000 AS vec_id, embedding
                FROM embeddings WHERE vec_id % 10 = 0
            )
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99
        """)
def _q_neardup_bucketed(sf_dir: str):
    """IVF-bucketed embedding near-dup (scale path: in-cluster pairwise
    only). Injected exact copies are the ground-truth pairs; identical
    vectors always share a cluster, so recall is exact and the SQL
    cross-join oracle matches."""
    from pdf_extractor_ray.functions.similarity import embedding_neardup_bucketed

    out = embedding_neardup_bucketed(_emb_with_dups(sf_dir), threshold=0.99)
    return out.select_columns(["vec_a", "vec_b"])


# PQ/ADC replay: normalize every vector, codebook_j = subvector
# j of the 256 lowest-id normalized vectors (iters=0,
# init="first"); encode = per-subspace nearest codeword
# (list_distance, ties -> lowest codeword); ADC distance =
# sum_j d2(query_sub_j, codeword(code_vj)); rank by (dist asc,
# neighbor asc) — exactly the library's (-score desc, id asc).
@register("knn_pq", oracle="""
            WITH en AS (SELECT vec_id,
                               list_transform(embedding,
                                   x -> x / sqrt(list_dot_product(embedding, embedding))) AS e
                        FROM embeddings),
                 bk AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, e AS be
                        FROM en ORDER BY vec_id LIMIT 256),
                 sp AS (SELECT unnest(range(8)) AS j),
                 enc AS (SELECT v.vec_id, sp.j, bk.c,
                                row_number() OVER (PARTITION BY v.vec_id, sp.j
                                    ORDER BY list_distance(
                                        list_slice(v.e, sp.j * 8 + 1, sp.j * 8 + 8),
                                        list_slice(bk.be, sp.j * 8 + 1, sp.j * 8 + 8)) ASC,
                                        bk.c ASC) AS rn
                         FROM en v CROSS JOIN sp CROSS JOIN bk),
                 vcodes AS (SELECT vec_id, j, c FROM enc WHERE rn = 1),
                 q AS (SELECT vec_id AS qid, e AS qe
                       FROM en ORDER BY vec_id LIMIT 5),
                 adc AS (SELECT q.qid, sp.j, bk.c,
                                power(list_distance(
                                    list_slice(q.qe, sp.j * 8 + 1, sp.j * 8 + 8),
                                    list_slice(bk.be, sp.j * 8 + 1, sp.j * 8 + 8)), 2) AS d2
                         FROM q CROSS JOIN sp CROSS JOIN bk),
                 dist AS (SELECT adc.qid AS query_id, vcodes.vec_id AS neighbor_id,
                                 sum(adc.d2) AS dist
                          FROM vcodes
                          JOIN adc ON adc.j = vcodes.j AND adc.c = vcodes.c
                          GROUP BY 1, 2),
                 r AS (SELECT query_id, neighbor_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY dist ASC, neighbor_id) AS rn
                       FROM dist)
            SELECT query_id, neighbor_id, rn AS rank FROM r WHERE rn <= 5
        """)
def _q_knn_pq(sf_dir: str):
    """Product-quantization ANN (ADC search over m=8 x 8-bit codes) —
    the compressed-vector end of the ANN family. The driver-gated
    config uses data-point codebooks (iters=0, init="first": codewords
    = the 256 lowest-id normalized vectors' subvectors), which the SQL
    oracle replays exactly (list_slice + list_distance argmin encode,
    ADC table join); the Lloyd-trained default stays pinned by pytest
    (recall/determinism/degeneration anchors)."""
    from pdf_extractor_ray.functions.similarity import knn_pq

    ids, mat = _load_query_vectors(sf_dir, 5)
    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    out = knn_pq(emb, mat, ids, k=5, m=8, nbits=8, iters=0, init="first")
    return out[["query_id", "neighbor_id", "rank"]]


# IVF replay: centroids = the 16 lowest-id vectors (iters=0,
# init="first"); every vector goes to its argmax-cosine cell
# (ties -> lowest cell), queries probe their top-4 cells, and
# the exact top-5 is taken over vectors in the probed union.
@register("knn_ivf", bench=True, oracle="""
            WITH c AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cell,
                              embedding AS ce
                       FROM embeddings ORDER BY vec_id LIMIT 16),
                 q AS (SELECT vec_id AS qid, embedding AS qe
                       FROM embeddings ORDER BY vec_id LIMIT 5),
                 qc AS (SELECT q.qid, c.cell,
                               row_number() OVER (PARTITION BY q.qid
                                                  ORDER BY list_cosine_similarity(q.qe, c.ce) DESC,
                                                           c.cell) AS rn
                        FROM q CROSS JOIN c),
                 probe AS (SELECT DISTINCT cell FROM qc WHERE rn <= 4),
                 a AS (SELECT e.vec_id, c.cell,
                              row_number() OVER (PARTITION BY e.vec_id
                                                 ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                                          c.cell) AS rn
                       FROM embeddings e CROSS JOIN c),
                 kept AS (SELECT e.vec_id, e.embedding
                          FROM embeddings e
                          JOIN a ON a.vec_id = e.vec_id AND a.rn = 1
                          JOIN probe ON probe.cell = a.cell),
                 s AS (SELECT q.qid AS query_id, kept.vec_id AS neighbor_id,
                              list_cosine_similarity(q.qe, kept.embedding) AS cos
                       FROM q CROSS JOIN kept),
                 r AS (SELECT query_id, neighbor_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, neighbor_id) AS rn
                       FROM s)
            SELECT query_id, neighbor_id, rn AS rank FROM r WHERE rn <= 5
        """)
def _q_knn_ivf(sf_dir: str):
    """Partial-probe IVF (nprobe=4 of 16 cells) with data-point
    centroids (iters=0, init="first": the 16 lowest-id vectors), so
    cell assignment, probed-cell selection and the final top-k are all
    replayed exactly by the SQL oracle. The Lloyd-trained default is
    still exercised by ``knn_ivf_fullprobe`` (centroid-invariant) and
    pytest."""
    from pdf_extractor_ray.functions.similarity import knn_ivf

    ids, mat = _load_query_vectors(sf_dir, 5)
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_ivf(emb, mat, ids, k=5, n_cells=16, nprobe=4, iters=0, init="first")
    return out[["query_id", "neighbor_id", "rank"]]


@register("knn_ivf_fullprobe", oracle=_KNN_BRUTE_SQL)
def _q_knn_ivf_fullprobe(sf_dir: str):
    """IVF with nprobe == n_cells degrades EXACTLY to brute force (the
    FAISS nprobe=nlist equivalence) — the approximate machinery under
    the same SQL oracle as knn_brute. The partial-probe config stays
    driver-visible as the rows-only `knn_ivf`."""
    from pdf_extractor_ray.functions.similarity import knn_ivf

    ids, mat = _load_query_vectors(sf_dir, 5)
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_ivf(emb, mat, ids, k=6, n_cells=8, nprobe=8)
    out = out[out["neighbor_id"] != out["query_id"]]
    out = out.groupby("query_id", as_index=False).head(5).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", "neighbor_id", "rank"]]


# Cluster-count replay: same data-point centroids as knn_ivf's
# oracle; assignment = argmax cosine (ties -> lowest cell).
@register("embedding_clusters", oracle="""
            WITH c AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cell,
                              embedding AS ce
                       FROM embeddings ORDER BY vec_id LIMIT 16),
                 a AS (SELECT e.vec_id, c.cell,
                              row_number() OVER (PARTITION BY e.vec_id
                                                 ORDER BY list_cosine_similarity(e.embedding, c.ce) DESC,
                                                          c.cell) AS rn
                       FROM embeddings e CROSS JOIN c)
            SELECT cell AS cluster, count(*) AS n_vectors
            FROM a WHERE rn = 1 GROUP BY cell
        """)
def _q_embedding_clusters(sf_dir: str):
    """Per-cluster vector counts after broadcast centroid assignment.
    Data-point centroids (iters=0, init="first": the 16 lowest-id
    vectors) make the assignment a pure cosine argmax the SQL oracle
    replays row for row; the Lloyd-trained path stays pytest-pinned."""
    from pdf_extractor_ray.functions.similarity import cluster_assign

    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return (
        cluster_assign(emb, n_clusters=16, iters=0, init="first")
        .groupby("cluster")
        .aggregate(Count(alias_name="n_vectors"))
    )


@register("kmeans_lloyd", bench=True, oracle=_kmeans_sql(8, 2))
def _q_kmeans_lloyd(sf_dir: str):
    """Distributed full-corpus Lloyd k-means (2 iterations, k=8) in
    exact integer micro-units: every vector contributes to every
    centroid update via per-batch (cluster, count, sum-vector)
    partials through one k-group exchange; the driver holds k x d
    integers. The oracle replays the identical arithmetic with
    chained CTEs (truncated // update, ties to lowest centroid)."""
    from pdf_extractor_ray.functions.similarity import kmeans_lloyd

    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    return kmeans_lloyd(emb, n_clusters=8, iters=2)


@register(
    "cluster_balanced_sample",
    oracle=_kmeans_sql(8, 2).replace(
        "\nSELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "CAST(j AS BIGINT) AS cluster FROM a3",
        """,
final AS (
    SELECT CAST(vec_id AS BIGINT) AS vec_id,
           CAST(j AS BIGINT) AS cluster
    FROM a3
)
SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster, row_number() OVER (
        PARTITION BY cluster
        ORDER BY md5(CAST(vec_id AS VARCHAR)) ASC, vec_id ASC
    ) AS rn FROM final
) WHERE rn <= 32""",
    ),
)
def _q_cluster_balanced_sample(sf_dir: str):
    """Embedding-curation composite (SemDeDup / DataComp-style mix
    balancing): distributed full-corpus Lloyd k-means, then keep at
    most CAP vectors per cluster by the deterministic md5-salted
    order — over-represented embedding regions are capped while
    sparse regions keep everything. One k-group exchange for the
    per-cluster rank (k = 8 groups)."""
    import hashlib

    from pdf_extractor_ray.functions.similarity import kmeans_lloyd

    CAP = 32
    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    assigned = kmeans_lloyd(emb, n_clusters=8, iters=2)

    def salt(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = [
            hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids
        ]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": batch["cluster"].cast(pa.int64()),
                "_salt": pa.array(s, pa.string()),
            }
        )

    def cap_in_cluster(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["_salt", "vec_id"], kind="mergesort").head(CAP)
        return g[["vec_id", "cluster"]].astype(np.int64)

    return (
        assigned.map_batches(salt, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(cap_in_cluster, batch_format="pandas")
    )


@register("embedding_dim_stats", oracle="""
            SELECT CAST(i - 1 AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(floor(CAST(e AS DOUBLE)*1000000 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS sum_u,
                   CAST(MIN(CAST(floor(CAST(e AS DOUBLE)*1000000 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS min_u,
                   CAST(MAX(CAST(floor(CAST(e AS DOUBLE)*1000000 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS max_u
            FROM (SELECT unnest(embedding) AS e,
                         generate_subscripts(embedding, 1) AS i
                  FROM embeddings)
            GROUP BY 1
        """)
def _q_embedding_dim_stats(sf_dir: str):
    """Tensor-column reduction: per-dimension n/sum/min/max over the
    embedding list column, exact via float64-promoted micro-unit
    quantization (floor(x*1e6+0.5) — float32 -> double is exact, so
    both sides see identical integers). Per-batch 2-D numpy fold emits
    64 partial rows per block; one tiny groupby."""
    from ray.data.aggregate import Max as _Max, Min as _Min, Sum as _Sum

    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["embedding"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        arr = np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
        u = np.floor(arr.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
        d = u.shape[1]
        return pa.table(
            {
                "dim": np.arange(d, dtype=np.int64),
                "n": np.full(d, u.shape[0], np.int64),
                "sum_u": u.sum(axis=0),
                "min_u": u.min(axis=0),
                "max_u": u.max(axis=0),
            }
        )

    return (
        coalesce_for_exchange(emb.map_batches(partial, batch_format="pyarrow"))
        .groupby("dim")
        .aggregate(
            _Sum("n", alias_name="n"),
            _Sum("sum_u", alias_name="sum_u"),
            _Min("min_u", alias_name="min_u"),
            _Max("max_u", alias_name="max_u"),
        )
    )


@register("embedding_gram", oracle="""
            WITH x AS (
                SELECT vec_id,
                       unnest(embedding) AS v,
                       unnest(range(len(embedding))) AS i
                FROM embeddings),
            q AS (
                SELECT vec_id, i,
                       CAST(floor(CAST(v AS DOUBLE) * 100 + 0.5)
                            AS BIGINT) AS qv
                FROM x)
            SELECT a.i AS i, b.i AS j,
                   CAST(sum(a.qv * b.qv) AS BIGINT) AS gram_cc
            FROM q a JOIN q b
              ON a.vec_id = b.vec_id AND a.i <= b.i
            GROUP BY a.i, b.i
        """)
def _q_embedding_gram(sf_dir: str):
    """Exact integer Gram (second-moment) matrix over the embeddings
    table — the distributed-PCA accumulation: per-batch numpy Q.T@Q
    partials over centi-quantized vectors (the exchange carries 2,080
    upper-triangle cells per batch, never the row count), one tiny
    groupby-sum. The SQL oracle replays the quantization and the full
    pairwise-dimension product sum bit for bit."""
    from pdf_extractor_ray.functions.similarity import embedding_gram

    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    return embedding_gram(emb)


@register("kcenter_coreset", bench=True, oracle=_kcenter_sql(6))
def _q_kcenter(sf_dir: str):
    """Greedy k-center coreset selection (Gonzalez farthest-first, the
    Sener & Savarese core-set rule): 6 maximally-spread embedding rows,
    seed = lowest id, distances EXACT integers over centi-quantized
    vectors so the trajectory is engine-replayable bit for bit. Driver
    state = the 6 centers; per round one linear min-dist update pass +
    a 1-row-per-block reduce, no shuffle. Oracle unrolls the six steps
    as chained CTEs over the same quantization."""
    from pdf_extractor_ray.functions.coreset import kcenter_select

    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    return kcenter_select(emb, k=6)


@register("graph_ann", bench=True, oracle=_nsw_sql(rounds=3, ef=8, k=5, m=4, mx=2))
def _q_graph_ann(sf_dir: str):
    """Graph-based ANN (NSW/HNSW-family greedy beam search) with a
    fully engine-replayable trajectory: bucketed kNN graph build +
    3 synchronous beam rounds (ef=8) from the lowest-id entry, every
    distance an exact int64 over centi-quantized vectors with id
    tie-breaks — so even the SEARCH WALK is SQL-oracle-checked, not
    just recall-tested. Recall quality is separately pinned by pytest
    against brute force."""
    from pdf_extractor_ray.functions.graphann import (
        nsw_build_edges,
        nsw_search,
    )

    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    edges = nsw_build_edges(emb, n_cells=16, m=4, mx=2).materialize()
    ids, mat = _load_query_vectors(sf_dir, 5)
    return nsw_search(
        emb, edges, mat, ids, ef=8, rounds=3, k=5
    )
