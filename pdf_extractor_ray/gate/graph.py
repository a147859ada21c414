"""Gate queries over the affine 3-out-link document graph (PageRank,
HITS, k-core, walks, triangles, ...). The ``*_indexed`` names run the
same engine as their base names and gate against the same oracle."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from pdf_extractor_ray.functions.exchange import cogroup
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _t


def _hits_sql(n_iters: int = 3) -> str:
    """Chained-CTE replay of integer max-normalized HITS: same edge
    derivation as _pagerank_sql; each half-step sums the opposite
    endpoint's value then rescales by the global max via HUGEINT
    floor division (DuckDB // == Python // for non-negatives)."""
    cte = """
        nodes AS (SELECT doc_id FROM documents),
        edges AS (
            SELECT DISTINCT src, dst FROM (
                SELECT doc_id AS src,
                       (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 13 + 2) % (SELECT count(*) FROM documents)
                FROM documents WHERE doc_id % 3 >= 1
                UNION ALL
                SELECT doc_id,
                       (doc_id * 31 + 3) % (SELECT count(*) FROM documents)
                FROM documents WHERE doc_id % 3 >= 2)
            WHERE src <> dst),
        h0 AS (SELECT doc_id, CAST(1000000 AS BIGINT) AS v FROM nodes)"""
    for k in range(1, n_iters + 1):
        cte += f""",
        ar{k} AS MATERIALIZED (
            SELECT nd.doc_id, CAST(COALESCE(s.c, 0) AS BIGINT) AS raw
            FROM nodes nd LEFT JOIN (
                SELECT e.dst AS doc_id, sum(p.v) AS c
                FROM edges e JOIN h{k - 1} p ON p.doc_id = e.src
                GROUP BY e.dst) s ON s.doc_id = nd.doc_id),
        a{k} AS MATERIALIZED (
            SELECT doc_id,
                   CAST(COALESCE(CAST(raw AS HUGEINT) * 1000000
                        // NULLIF((SELECT max(raw) FROM ar{k}), 0), 0)
                        AS BIGINT) AS v
            FROM ar{k}),
        hr{k} AS MATERIALIZED (
            SELECT nd.doc_id, CAST(COALESCE(s.c, 0) AS BIGINT) AS raw
            FROM nodes nd LEFT JOIN (
                SELECT e.src AS doc_id, sum(p.v) AS c
                FROM edges e JOIN a{k} p ON p.doc_id = e.dst
                GROUP BY e.src) s ON s.doc_id = nd.doc_id),
        h{k} AS MATERIALIZED (
            SELECT doc_id,
                   CAST(COALESCE(CAST(raw AS HUGEINT) * 1000000
                        // NULLIF((SELECT max(raw) FROM hr{k}), 0), 0)
                        AS BIGINT) AS v
            FROM hr{k})"""
    return (
        "WITH " + cte
        + f"""
        SELECT a.doc_id, a.v AS auth_u, h.v AS hub_u
        FROM a{n_iters} a JOIN h{n_iters} h ON h.doc_id = a.doc_id"""
    )


def _mis_sql(max_rounds: int = 8) -> str:
    """Chained-CTE replay of deterministic Luby MIS
    (`graph.mis`) over the affine 3-out-link graph:
    per round, priority = (first-8-md5-hex("node:r"), node); a node
    joins iff no alive neighbor precedes it; winners + neighborhoods
    die. Rounds past exhaustion are empty no-ops."""
    prio = (
        "CAST(('0x' || substring(md5(CAST({n} AS VARCHAR) || ':{r}'), "
        "1, 8))::UBIGINT AS BIGINT)"
    )
    parts = [
        """WITH nn AS (SELECT count(*) AS n FROM documents),
raw AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
    FROM documents, nn
    UNION ALL SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
    UNION ALL SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
),
e0 AS MATERIALIZED (
    SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
    FROM raw WHERE src <> dst
),
e AS MATERIALIZED (
    SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
alive0 AS MATERIALIZED (SELECT DISTINCT a AS node FROM e)"""
    ]
    for r in range(1, max_rounds + 1):
        pv = prio.format(n="a.node", r=r)
        pu = prio.format(n="e.b", r=r)
        parts.append(
            """mis{r} AS MATERIALIZED (
    SELECT a.node FROM alive{prev} a WHERE NOT EXISTS (
        SELECT 1 FROM e JOIN alive{prev} al ON al.node = e.b
        WHERE e.a = a.node
          AND ({pu} < {pv}
               OR ({pu} = {pv} AND e.b < a.node))
    )
)""".format(r=r, prev=r - 1, pu=pu, pv=pv)
        )
        parts.append(
            """alive{r} AS MATERIALIZED (
    SELECT node FROM alive{prev}
    WHERE node NOT IN (SELECT node FROM mis{r})
      AND node NOT IN (
          SELECT e.b FROM e JOIN mis{r} m ON e.a = m.node)
)""".format(r=r, prev=r - 1)
        )
    union = "\nUNION ALL ".join(
        "SELECT CAST(node AS BIGINT) AS node, CAST({r} AS BIGINT) AS round "
        "FROM mis{r}".format(r=r)
        for r in range(1, max_rounds + 1)
    )
    return ",\n".join(parts) + "\n" + union


def _kcore_sql(k: int = 6, n_rounds: int = 12) -> str:
    """Chained-CTE replay of the k-core peel over the nucleus+tree
    synthetic graph. Any round count >= the operator's converged
    round count replays exactly (post-fixpoint rounds are no-ops);
    12 rounds is 3x the measured 4-round cascade at both sf levels."""
    cte = """
        nn AS (SELECT greatest(count(*) // 10, 10) AS m FROM documents),
        raw AS (
            SELECT doc_id AS src, doc_id // 2 AS dst
            FROM documents WHERE doc_id >= 1
            UNION ALL
            SELECT doc_id, doc_id // 3 FROM documents WHERE doc_id >= 1
            UNION ALL
            SELECT doc_id, (doc_id * 7 + 1) % nn.m
            FROM documents, nn WHERE doc_id < nn.m
            UNION ALL
            SELECT doc_id, (doc_id * 13 + 2) % nn.m
            FROM documents, nn WHERE doc_id < nn.m
            UNION ALL
            SELECT doc_id, (doc_id * 31 + 3) % nn.m
            FROM documents, nn WHERE doc_id < nn.m
            UNION ALL
            SELECT doc_id, (doc_id * 17 + 5) % nn.m
            FROM documents, nn WHERE doc_id < nn.m
            UNION ALL
            SELECT doc_id, (doc_id * 23 + 7) % nn.m
            FROM documents, nn WHERE doc_id < nn.m
        ),
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
            FROM raw WHERE src <> dst
        )"""
    # MATERIALIZED is load-bearing: each round references the previous
    # round's edge set twice, so default CTE inlining re-expands the
    # whole chain (exponential base-file scans -> "too many open
    # files" at 12 rounds)
    for r in range(n_rounds):
        cte += f""",
        d{r} AS MATERIALIZED (
            SELECT node, count(*) AS deg FROM (
                SELECT u AS node FROM e{r} UNION ALL SELECT v FROM e{r}
            ) GROUP BY node),
        a{r} AS MATERIALIZED (SELECT node FROM d{r} WHERE deg >= {k}),
        e{r + 1} AS MATERIALIZED (
            SELECT e.u, e.v FROM e{r} e
            JOIN a{r} x ON x.node = e.u
            JOIN a{r} y ON y.node = e.v)"""
    return (
        "WITH " + cte + f""",
        df AS (
            SELECT node, count(*) AS deg FROM (
                SELECT u AS node FROM e{n_rounds}
                UNION ALL SELECT v FROM e{n_rounds}
            ) GROUP BY node)
        SELECT CAST(node AS BIGINT) AS doc_id, CAST(deg AS BIGINT) AS deg
        FROM df WHERE deg >= {k}"""
    )


def _sssp_sql(n_rounds: int = 8) -> str:
    """Chained min-fold CTE replay of Bellman-Ford: d_k = per-node min
    of (d_{k-1} UNION ALL every one-edge relaxation of d_{k-1})."""
    cte = """
        e AS (
            SELECT src, dst,
                   (src * 7919 + dst * 104729) % 9 + 1 AS w
            FROM (
                SELECT doc_id AS src,
                       (doc_id * 7 + 1) % (SELECT count(*) FROM documents)
                           AS dst
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 13 + 2) % (SELECT count(*) FROM documents)
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 31 + 3) % (SELECT count(*) FROM documents)
                FROM documents)
        ),
        d0 AS (SELECT CAST(0 AS BIGINT) AS node, CAST(0 AS BIGINT) AS d)"""
    for k in range(1, n_rounds + 1):
        cte += f""",
        d{k} AS (
            SELECT node, CAST(MIN(d) AS BIGINT) AS d FROM (
                SELECT node, d FROM d{k - 1}
                UNION ALL
                SELECT e.dst AS node, p.d + e.w AS d
                FROM e JOIN d{k - 1} p ON p.node = e.src
            ) GROUP BY node)"""
    return (
        "WITH " + cte
        + f"\n        SELECT node, d AS dist FROM d{n_rounds}"
    )


def _pagerank_personalized_sql(n_iters: int = 5) -> str:
    """Chained-CTE replay of personalized PageRank: identical edge
    derivation and floor arithmetic, but the teleport base and the
    initial rank land only on seeds {doc_id % 97 == 0}."""
    cte = """
        nodes AS (SELECT doc_id FROM documents),
        edges AS (
            SELECT DISTINCT src, dst FROM (
                SELECT doc_id AS src,
                       (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 13 + 2) % (SELECT count(*) FROM documents)
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 31 + 3) % (SELECT count(*) FROM documents)
                FROM documents)
            WHERE src <> dst),
        outdeg AS (SELECT src, count(*) AS deg FROM edges GROUP BY src),
        r0 AS (SELECT doc_id,
                      CAST(CASE WHEN doc_id % 97 = 0 THEN 1000000
                                ELSE 0 END AS BIGINT) AS r
               FROM nodes)"""
    for k in range(1, n_iters + 1):
        cte += f""",
        r{k} AS (
            SELECT nd.doc_id,
                   CAST(CASE WHEN nd.doc_id % 97 = 0 THEN 150000 ELSE 0 END
                        + (85 * COALESCE(s.c, 0)) // 100 AS BIGINT) AS r
            FROM nodes nd LEFT JOIN (
                SELECT e.dst AS doc_id,
                       CAST(sum(p.r // o.deg) AS BIGINT) AS c
                FROM edges e
                JOIN r{k - 1} p ON p.doc_id = e.src
                JOIN outdeg o ON o.src = e.src
                GROUP BY e.dst) s ON s.doc_id = nd.doc_id)"""
    return (
        "WITH " + cte
        + f"\n        SELECT doc_id, r AS rank_u FROM r{n_iters}"
    )


def _pagerank_sql(n_iters: int = 5) -> str:
    """Chained-CTE replay of the integer micro-unit PageRank: same
    synthetic edge derivation, same floor-division update per
    iteration (DuckDB // == Python // for the all-positive ranks)."""
    cte = """
        nodes AS (SELECT doc_id FROM documents),
        edges AS (
            SELECT DISTINCT src, dst FROM (
                SELECT doc_id AS src,
                       (doc_id * 7 + 1) % (SELECT count(*) FROM documents) AS dst
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 13 + 2) % (SELECT count(*) FROM documents)
                FROM documents
                UNION ALL
                SELECT doc_id,
                       (doc_id * 31 + 3) % (SELECT count(*) FROM documents)
                FROM documents)
            WHERE src <> dst),
        outdeg AS (SELECT src, count(*) AS deg FROM edges GROUP BY src),
        r0 AS (SELECT doc_id, CAST(1000000 AS BIGINT) AS r FROM nodes)"""
    for k in range(1, n_iters + 1):
        cte += f""",
        r{k} AS (
            SELECT nd.doc_id,
                   CAST(150000 + (85 * COALESCE(s.c, 0)) // 100 AS BIGINT) AS r
            FROM nodes nd LEFT JOIN (
                SELECT e.dst AS doc_id,
                       CAST(sum(p.r // o.deg) AS BIGINT) AS c
                FROM edges e
                JOIN r{k - 1} p ON p.doc_id = e.src
                JOIN outdeg o ON o.src = e.src
                GROUP BY e.dst) s ON s.doc_id = nd.doc_id)"""
    return (
        "WITH " + cte
        + f"\n        SELECT doc_id, r AS rank_u FROM r{n_iters}"
    )


_TRIANGLES_SQL = """
            -- Degree-oriented wedge-check triangle count over the
            -- affine 3-out-link graph (same graph as `pagerank`).
            -- Orientation: lower (deg, id) -> higher; each triangle
            -- has one apex with two out-edges, and its closing edge
            -- is oriented between the heads in the same order.
            WITH nn AS (SELECT count(*) AS n FROM documents),
            raw AS (
                SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
            ),
            e AS (
                SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            deg AS (
                SELECT node, count(*) AS deg FROM (
                    SELECT u AS node FROM e UNION ALL SELECT v FROM e
                ) GROUP BY node
            ),
            o AS (
                SELECT CASE WHEN du.deg < dv.deg
                                 OR (du.deg = dv.deg AND e.u < e.v)
                            THEN e.u ELSE e.v END AS tail,
                       CASE WHEN du.deg < dv.deg
                                 OR (du.deg = dv.deg AND e.u < e.v)
                            THEN e.v ELSE e.u END AS head
                FROM e
                JOIN deg du ON du.node = e.u
                JOIN deg dv ON dv.node = e.v
            ),
            od AS (
                SELECT o.tail, o.head, d.deg AS deg_head
                FROM o JOIN deg d ON d.node = o.head
            ),
            w AS (
                SELECT a.head AS b, b2.head AS c
                FROM od a JOIN od b2 ON a.tail = b2.tail
                WHERE a.deg_head < b2.deg_head
                   OR (a.deg_head = b2.deg_head AND a.head < b2.head)
            )
            SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
                   CAST((SELECT count(*) FROM w) AS BIGINT) AS n_wedges,
                   CAST((SELECT count(*) FROM w JOIN o
                         ON o.tail = w.b AND o.head = w.c) AS BIGINT)
                       AS n_triangles
        """


_KCORE_SQL = _kcore_sql(6, 12)


_PAGERANK_SQL = _pagerank_sql(5)


_HITS_SQL = _hits_sql(3)


def _all_links(ids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> pa.Table:
    return pa.table({"src": src, "dst": dst})


def _no_self_links(ids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> pa.Table:
    keep = src != dst
    return pa.table({"src": src[keep], "dst": dst[keep]})


def _simple_links(ids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> pa.Table:
    """Self-loops and repeated edges dropped."""
    df = pd.DataFrame({"src": src, "dst": dst})
    df = df[df["src"] != df["dst"]].drop_duplicates()
    return pa.Table.from_pandas(df, preserve_index=False)


def _affine_graph(sf_dir: str, shape: Callable[..., pa.Table]):
    """The affine 3-out-link graph over documents: doc i links to
    (7i + 1, 13i + 2, 31i + 3) mod N, three (src, dst) rows per doc in
    doc order, which ``shape(ids, src, dst)`` turns into each batch's
    edge table. Returns (doc_id Dataset, edge Dataset); the oracles
    derive the same graph in SQL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        return shape(ids, src, dst)

    return docs, docs.map_batches(mk_edges, batch_format="pyarrow")


@register("triangles", oracle=_TRIANGLES_SQL)
@register("triangles_indexed", bench=True, oracle=_TRIANGLES_SQL)
def _q_triangles(sf_dir: str):
    """Exact triangle count over the deterministic affine link graph
    (same graph as `pagerank`): degree-oriented wedge-check — the
    orientation bounds max out-degree at O(sqrt(m)), which is the
    thing that makes a hub-skewed web graph countable at all."""
    from pdf_extractor_ray.functions.graph import triangle_count

    _, edges = _affine_graph(sf_dir, _simple_links)

    return triangle_count(edges)


@register("random_walks", bench=True, oracle="""
            -- Deterministic DeepWalk corpus: recursive CTE replay of
            -- H(node, step, walk) = first-8-md5-hex % outdeg over
            -- ascending-ranked outlinks; walks end at sink nodes.
            WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
            e AS (
                SELECT DISTINCT src, dst FROM (
                    SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                    FROM documents, nn
                    UNION ALL
                    SELECT doc_id, (doc_id * 13 + 2) % nn.n
                    FROM documents, nn
                    UNION ALL
                    SELECT doc_id, (doc_id * 31 + 3) % nn.n
                    FROM documents, nn
                ) WHERE src <> dst
            ),
            adj AS (
                SELECT src, dst,
                       row_number() OVER (PARTITION BY src ORDER BY dst)
                           - 1 AS rnk,
                       count(*) OVER (PARTITION BY src) AS odeg
                FROM e
            ),
            wk(start, walk, step, node) AS (
                SELECT DISTINCT src, w.walk, 0, src
                FROM adj, (SELECT unnest(generate_series(0, 1)) AS walk) w
                UNION ALL
                SELECT wk.start, wk.walk, wk.step + 1, a.dst
                FROM wk JOIN adj a ON a.src = wk.node
                 AND a.rnk = CAST(
                     ('0x' || substring(md5(
                         CAST(wk.node AS VARCHAR) || ':' ||
                         CAST(wk.step + 1 AS VARCHAR) || ':' ||
                         CAST(wk.walk AS VARCHAR)), 1, 8))::UBIGINT
                     % a.odeg AS BIGINT)
                WHERE wk.step + 1 <= 5
            )
            SELECT CAST(start AS BIGINT) AS start,
                   CAST(walk AS BIGINT) AS walk,
                   CAST(step AS BIGINT) AS step,
                   CAST(node AS BIGINT) AS node
            FROM wk
        """)
def _q_random_walks(sf_dir: str):
    """Deterministic DeepWalk corpus over the affine 3-out-link graph
    (same graph as `pagerank`/`triangles`): 2 walks per source node,
    length 6, step choice = first-8-md5-hex("node:step:walk") %
    outdeg over ascending-ranked outlinks — exactly replayed by the
    oracle's recursive CTE. Edge set exchanged once into shard
    actors; each round moves only live walk-state triples."""
    from pdf_extractor_ray.functions.graph import random_walks

    _, edges = _affine_graph(sf_dir, _no_self_links)

    return random_walks(
        edges,
        walk_len=6,
        walks_per_node=2,
    )


@register("walk_skipgrams", oracle="""
            -- Skip-gram pairs over the deterministic walk corpus:
            -- same recursive-CTE walks as `random_walks`, then a
            -- windowed self-join within each (start, walk).
            WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
            e AS (
                SELECT DISTINCT src, dst FROM (
                    SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                    FROM documents, nn
                    UNION ALL
                    SELECT doc_id, (doc_id * 13 + 2) % nn.n
                    FROM documents, nn
                    UNION ALL
                    SELECT doc_id, (doc_id * 31 + 3) % nn.n
                    FROM documents, nn
                ) WHERE src <> dst
            ),
            adj AS (
                SELECT src, dst,
                       row_number() OVER (PARTITION BY src ORDER BY dst)
                           - 1 AS rnk,
                       count(*) OVER (PARTITION BY src) AS odeg
                FROM e
            ),
            wk(start, walk, step, node) AS (
                SELECT DISTINCT src, w.walk, 0, src
                FROM adj, (SELECT unnest(generate_series(0, 1)) AS walk) w
                UNION ALL
                SELECT wk.start, wk.walk, wk.step + 1, a.dst
                FROM wk JOIN adj a ON a.src = wk.node
                 AND a.rnk = CAST(
                     ('0x' || substring(md5(
                         CAST(wk.node AS VARCHAR) || ':' ||
                         CAST(wk.step + 1 AS VARCHAR) || ':' ||
                         CAST(wk.walk AS VARCHAR)), 1, 8))::UBIGINT
                     % a.odeg AS BIGINT)
                WHERE wk.step + 1 <= 5
            )
            SELECT CAST(a.node AS BIGINT) AS center,
                   CAST(b.node AS BIGINT) AS context,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM wk a JOIN wk b
              ON a.start = b.start AND a.walk = b.walk
             AND abs(a.step - b.step) BETWEEN 1 AND 2
            GROUP BY a.node, b.node
        """)
def _q_walk_skipgrams(sf_dir: str):
    """DeepWalk training-pair extraction composed on the walk corpus:
    skip-gram (center, context) counts with window 2 over the same
    deterministic walks as `random_walks` — one walk-bucket exchange
    (pairs pre-aggregated in bucket) + one pair-bucket sum."""
    from pdf_extractor_ray.functions.graph import random_walks, skipgram_pairs

    _, edges = _affine_graph(sf_dir, _no_self_links)

    walks = random_walks(
        edges,
        walk_len=6,
        walks_per_node=2,
    )
    return skipgram_pairs(walks, window=2)


@register("mis", bench=True, oracle=_mis_sql(8))
def _q_mis(sf_dir: str):
    """Deterministic Luby maximal independent set over the affine
    graph — parallel symmetry-breaking (maximal conflict-free task
    batch). Priorities are pure (node, round) md5 functions computed
    shard-local; each round exchanges only the death set (every node
    dies exactly once across all rounds)."""
    from pdf_extractor_ray.functions.graph import mis

    _, edges = _affine_graph(sf_dir, _no_self_links)

    return mis(
        edges, max_rounds=8
    )


@register("lpa_communities", oracle="""
            -- 3 rounds of synchronous majority-label propagation over
            -- the symmetrized affine graph; ties to the smaller label
            -- (count DESC, label ASC row_number), label_0(v) = v.
            WITH nn AS (SELECT count(*) AS n FROM documents),
            raw AS (
                SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
            ),
            e0 AS (
                SELECT DISTINCT least(src, dst) AS u,
                       greatest(src, dst) AS v
                FROM raw WHERE src <> dst
            ),
            e AS (
                SELECT u AS a, v AS b FROM e0
                UNION ALL SELECT v, u FROM e0
            ),
            lab0 AS (SELECT DISTINCT a AS node, a AS label FROM e),
            c1 AS (
                SELECT e.a AS node, l.label, count(*) AS c
                FROM e JOIN lab0 l ON l.node = e.b
                GROUP BY e.a, l.label
            ),
            lab1 AS (
                SELECT node, label FROM (
                    SELECT node, label, row_number() OVER (
                        PARTITION BY node ORDER BY c DESC, label ASC
                    ) AS rn FROM c1) WHERE rn = 1
            ),
            c2 AS (
                SELECT e.a AS node, l.label, count(*) AS c
                FROM e JOIN lab1 l ON l.node = e.b
                GROUP BY e.a, l.label
            ),
            lab2 AS (
                SELECT node, label FROM (
                    SELECT node, label, row_number() OVER (
                        PARTITION BY node ORDER BY c DESC, label ASC
                    ) AS rn FROM c2) WHERE rn = 1
            ),
            c3 AS (
                SELECT e.a AS node, l.label, count(*) AS c
                FROM e JOIN lab2 l ON l.node = e.b
                GROUP BY e.a, l.label
            ),
            lab3 AS (
                SELECT node, label FROM (
                    SELECT node, label, row_number() OVER (
                        PARTITION BY node ORDER BY c DESC, label ASC
                    ) AS rn FROM c3) WHERE rn = 1
            )
            SELECT CAST(node AS BIGINT) AS node,
                   CAST(label AS BIGINT) AS community
            FROM lab3
        """)
def _q_lpa_communities(sf_dir: str):
    """Synchronous majority-label propagation (3 rounds, ties to the
    smaller label) over the symmetrized affine graph — finds dense
    sub-communities; the oracle replays each round with a chained
    count + row_number CTE. One direct-push edge exchange; rounds
    ship pre-aggregated (dst, label, count) partials."""
    from pdf_extractor_ray.functions.graph import lpa_communities

    _, edges = _affine_graph(sf_dir, _no_self_links)

    return lpa_communities(
        edges, n_iters=3
    )


@register("cocitation", oracle="""
            -- Top-20 pairs by number of distinct common in-linking
            -- sources, over the affine 3-out-link graph; ties by
            -- (x, y) ASC (total order -> deterministic LIMIT).
            WITH nn AS (SELECT count(*) AS n FROM documents),
            raw AS (
                SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
            ),
            e AS (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
            p AS (
                SELECT a.dst AS x, b.dst AS y
                FROM e a JOIN e b ON a.src = b.src AND a.dst < b.dst
            )
            SELECT x, y, CAST(count(*) AS BIGINT) AS n_common
            FROM p GROUP BY x, y
            ORDER BY n_common DESC, x ASC, y ASC
            LIMIT 20
        """)
def _q_cocitation(sf_dir: str):
    """Top-20 co-cited page pairs ("related pages") over the affine
    link graph: per-source neighbor-pair expansion with in-bucket
    pre-aggregation, one pair-bucket sum exchange, top-k under a
    total order."""
    from pdf_extractor_ray.functions.graph import cocitation_topk

    _, edges = _affine_graph(sf_dir, _all_links)

    return cocitation_topk(
        edges, k=20
    )


@register("bfs_hops", oracle="""
            -- Min hop distance (<=4) from seeds {doc_id % 97 == 0} over
            -- the affine 3-out-link graph, as a hop histogram.
            WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
            e AS (
                SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
            ),
            bfs(node, d) AS (
                SELECT doc_id, 0 FROM documents WHERE doc_id % 97 = 0
                UNION
                SELECT e.dst, bfs.d + 1
                FROM bfs JOIN e ON e.src = bfs.node
                WHERE bfs.d < 4
            ),
            dist AS (SELECT node, MIN(d) AS hops FROM bfs GROUP BY node)
            SELECT CAST(hops AS BIGINT) AS hops,
                   CAST(count(*) AS BIGINT) AS n_nodes
            FROM dist GROUP BY hops
        """)
def _q_bfs_hops(sf_dir: str):
    """Multi-source BFS over the affine 3-out-link web graph: hop
    distance (<=4) from the seed set {doc_id % 97 == 0}, reported as a
    hop-count histogram. Level-synchronous frontier expansion on the
    shard index (one edge exchange total); the driver sees one count
    per shard per level.
    Oracle: recursive CTE with min-hop fold."""
    from pdf_extractor_ray.functions.graph import bfs_hops

    docs, edges = _affine_graph(sf_dir, _all_links)

    def mk_seeds(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": ids[ids % 97 == 0]})

    visited = bfs_hops(
        edges,
        docs.map_batches(mk_seeds, batch_format="pyarrow"),
        max_depth=4,
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"hops": batch["hops"].to_numpy(zero_copy_only=False)})
        g = df.groupby("hops", as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n"}), preserve_index=False
        )

    return (
        visited.map_batches(partial, batch_format="pyarrow")
        .groupby("hops")
        .aggregate(Sum("n", alias_name="n_nodes"))
    )


@register("kcore", oracle=_KCORE_SQL)
@register("kcore_indexed", bench=True, oracle=_KCORE_SQL)
def _q_kcore(sf_dir: str):
    """6-core of a nucleus+periphery synthetic web graph (dense
    affine nucleus on the lowest 10% of ids + a tree periphery that
    peels away over ~4 cascade rounds). The edge set is exchanged
    once into shard actors; each round moves only death-decrement
    partials and the driver sees one death count per shard."""
    from pdf_extractor_ray.functions.graph import k_core

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only
    m = max(n // 10, 10)

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tree = ids[ids >= 1]
        src = [np.concatenate([tree, tree])]
        dst = [np.concatenate([tree // 2, tree // 3])]
        nuc = ids[ids < m]
        for a, b in ((7, 1), (13, 2), (31, 3), (17, 5), (23, 7)):
            src.append(nuc)
            dst.append((nuc * a + b) % m)
        s = np.concatenate(src)
        d = np.concatenate(dst)
        keep = s != d
        return pa.table({"src": s[keep], "dst": d[keep]})

    return k_core(docs.map_batches(mk_edges, batch_format="pyarrow"), k=6)


@register("pagerank", oracle=_PAGERANK_SQL)
@register("pagerank_indexed", bench=True, oracle=_PAGERANK_SQL)
def _q_pagerank(sf_dir: str):
    """Link-graph PageRank over a deterministic synthetic web graph
    (3 out-links per doc via fixed affine maps mod N, self-loops and
    duplicate edges removed — both sides derive the same graph). Five
    damped iterations in exact integer micro-units (floor division
    everywhere), so the SQL oracle replays each iteration bit for bit
    through chained CTEs. On the shard index an iteration exchanges
    only (dst, contribution) partial arrays; the driver holds
    nothing."""
    from pdf_extractor_ray.functions.graph import pagerank

    docs, edges = _affine_graph(sf_dir, _simple_links)
    return pagerank(edges, docs, n_iters=5, damping_pct=85)


@register("pagerank_personalized", oracle=_pagerank_personalized_sql(5))
def _q_pagerank_personalized(sf_dir: str):
    """Personalized (topic-sensitive / TrustRank) PageRank on the
    shard index: teleport mass lands only on the seed set
    {doc_id % 97 == 0}, so ranks measure link proximity to the trusted
    seeds — the seed-relative crawl-prioritization signal. Same
    integer semantics and exchange shape as `pagerank`; the
    oracle replays every iteration with a seed CASE in the base
    term."""
    from pdf_extractor_ray.functions.graph import pagerank

    docs, edges = _affine_graph(sf_dir, _simple_links)

    def mk_seeds(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": ids[ids % 97 == 0]})

    seeds = docs.map_batches(mk_seeds, batch_format="pyarrow")
    return pagerank(edges, docs, n_iters=5, seeds=seeds)


@register("sssp", oracle=_sssp_sql(8))
def _q_sssp(sf_dir: str):
    """Weighted single-source shortest paths (Bellman-Ford, 8
    relaxation rounds) from doc 0 over the affine link graph with
    deterministic integer weights w = (src*7919 + dst*104729) % 9 + 1.
    Each round ships pre-folded per-dst MIN(dist+w) partials on the
    shard index; the oracle replays the same 8 rounds as chained
    min-fold CTEs."""
    from pdf_extractor_ray.functions.graph import sssp

    def weighted(ids, src, dst) -> pa.Table:
        w = (src * 7919 + dst * 104729) % 9 + 1
        return pa.table({"src": src, "dst": dst, "w": w})

    _, edges = _affine_graph(sf_dir, weighted)
    return sssp(edges, seed=0, max_rounds=8)


# composite: pagerank scores joined to gated documents, top 20
@register(
    "authority_topk",
    oracle=(
        "SELECT dd.doc_id, dd.lang, CAST(dd.n_chars AS BIGINT) AS n_chars,"
        " pr.rank_u FROM (" + _pagerank_sql(5) + ") pr"
        " JOIN documents dd ON dd.doc_id = pr.doc_id"
        " WHERE dd.n_chars >= 500"
        " ORDER BY pr.rank_u DESC, dd.doc_id ASC LIMIT 20"
    ),
)
def _q_authority_topk(sf_dir: str):
    """Composite: link-authority page selection — indexed PageRank
    over the affine graph, scores joined back to documents via a
    doc-bucket cogroup (no broadcast of the node-sized rank table),
    length-gated (n_chars >= 500), top 20 by (rank DESC, doc_id ASC).
    Oracle: the pagerank CTE stack joined to documents with the same
    gate and order."""
    from pdf_extractor_ray.functions.graph import pagerank

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"]
    )
    ids, edges = _affine_graph(sf_dir, _simple_links)
    ranks = pagerank(edges, ids, n_iters=5)

    # doc-bucket cogroup join (both sides node-sized; nothing broadcast)
    nb = 64

    def tag_docs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        flt = batch.filter(_pc.greater_equal(batch["n_chars"], 500))
        return flt.select(["doc_id", "lang", "n_chars"])

    def join_topk(r: pa.Table, d: pa.Table) -> pd.DataFrame:
        m = d.to_pandas().merge(r.to_pandas(), on="doc_id")
        # per-bucket prune to the bucket's own top 20: the global
        # top 20 is a subset of the per-bucket top 20s
        return m.sort_values(
            ["rank_u", "doc_id"], ascending=[False, True]
        ).head(20)

    i64 = pa.int64()
    cand = cogroup(
        {
            "r": (
                ranks.select_columns(["doc_id", "rank_u"]),
                "doc_id",
                pa.schema([("doc_id", i64), ("rank_u", i64)]),
            ),
            "d": (
                docs.map_batches(tag_docs, batch_format="pyarrow"),
                "doc_id",
                pa.schema([("doc_id", i64), ("lang", pa.string()), ("n_chars", i64)]),
            ),
        },
        join_topk,
        pa.schema(
            [("doc_id", i64), ("lang", pa.string()), ("n_chars", i64), ("rank_u", i64)]
        ),
        n_buckets=nb,
        coalesce=True,
    ).to_pandas()  # <= 20 * n_buckets rows
    out = cand.sort_values(
        ["rank_u", "doc_id"], ascending=[False, True]
    ).head(20)
    return out[["doc_id", "lang", "n_chars", "rank_u"]].reset_index(drop=True)


# double-sweep pseudo-diameter: two chained min-hop closures
@register("pseudo_diameter", oracle="""
            WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
            e AS (
                SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
            ),
            b1(node, d) AS (
                SELECT CAST(0 AS BIGINT), 0
                UNION
                SELECT e.dst, b1.d + 1 FROM b1 JOIN e ON e.src = b1.node
                WHERE b1.d < 64
            ),
            d1 AS (SELECT node, MIN(d) AS d FROM b1 GROUP BY node),
            far1 AS (
                SELECT min(node) AS node FROM d1
                WHERE d = (SELECT max(d) FROM d1)
            ),
            b2(node, d) AS (
                SELECT node, 0 FROM far1
                UNION
                SELECT e.dst, b2.d + 1 FROM b2 JOIN e ON e.src = b2.node
                WHERE b2.d < 64
            ),
            d2 AS (SELECT node, MIN(d) AS d FROM b2 GROUP BY node)
            SELECT (SELECT CAST(node AS BIGINT) FROM far1) AS sweep2_start,
                   (SELECT CAST(min(node) AS BIGINT) FROM d2
                    WHERE d = (SELECT max(d) FROM d2)) AS far_node,
                   (SELECT CAST(max(d) AS BIGINT) FROM d2) AS diameter_lb
        """)
def _q_pseudo_diameter(sf_dir: str):
    """Graph pseudo-diameter by double BFS sweep (the standard
    lower-bound heuristic, exact per its own definition): full BFS
    closure from doc 0 on the shard index, pick the farthest node
    (max hops, ties to the smallest id), full closure again from it —
    the second eccentricity is the reported bound. Both sweeps are
    O(diameter) frontier rounds with ZERO per-level edge movement.
    Oracle: two chained recursive-CTE min-hop closures (the SQL
    recursion needs an explicit d<64 cap to terminate — safe: this
    graph family's diameter is ~log n, and a >=64 engine result would
    mismatch loudly rather than silently)."""
    from pdf_extractor_ray.functions.graph import bfs_hops

    _, edges = _affine_graph(sf_dir, _all_links)
    edges = edges.materialize()

    def far_node(closure) -> tuple[int, int]:
        # distributed argmax with min-id tie-break; the closure table
        # is node-sized, the driver sees two scalars
        mx = closure.max("hops")
        far = closure.map_batches(
            lambda b: b.filter(pc.equal(b["hops"], mx)),
            batch_format="pyarrow",
        ).min("node")
        return int(far), int(mx)

    sweep1 = bfs_hops(edges, ray.data.from_items([{"node": 0}]))
    start2, _ = far_node(sweep1)
    sweep2 = bfs_hops(
        edges, ray.data.from_items([{"node": start2}])
    )
    end, lb = far_node(sweep2)
    return pd.DataFrame(
        {"sweep2_start": [start2], "far_node": [end], "diameter_lb": [lb]}
    )


@register("hits", oracle=_HITS_SQL)
@register("hits_indexed", bench=True, oracle=_HITS_SQL)
def _q_hits(sf_dir: str):
    """Kleinberg HITS hubs & authorities over a deterministic
    synthetic web graph. The pagerank query's 3-affine-map graph is
    perfectly 3-regular (the maps are bijections mod N), which makes
    HITS constant — so here out-degree varies: doc d emits the first
    1 + d%3 of the affine links, giving genuinely skewed in/out
    degrees and dispersed scores. Three max-normalized iterations in
    exact integer units — edge sums are int64, the node-sized
    normalize multiply is Python-int exact, and the SQL oracle replays
    every half-step through HUGEINT floor division. On the shard index
    each half-step ships per-key partial sums; the driver holds two
    ints per iteration."""
    from pdf_extractor_ray.functions.graph import hits

    def first_links(ids, src, dst) -> pa.Table:
        # doc i keeps its first (i % 3) + 1 links
        keep = np.repeat(ids % 3, 3) >= np.tile(
            np.arange(3, dtype=np.int64), len(ids)
        )
        return _simple_links(ids, src[keep], dst[keep])

    docs, edges = _affine_graph(sf_dir, first_links)
    return hits(edges, docs, n_iters=3)


# SCC of doc 0: forward closure INTERSECT backward closure
@register("scc_component", oracle="""
            WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
            e AS (
                SELECT doc_id AS src, (doc_id * 7 + 1) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 2) % nn.n FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 31 + 3) % nn.n FROM documents, nn
            ),
            fwd(node) AS (
                SELECT CAST(0 AS BIGINT)
                UNION
                SELECT e.dst FROM fwd JOIN e ON e.src = fwd.node
            ),
            bwd(node) AS (
                SELECT CAST(0 AS BIGINT)
                UNION
                SELECT e.src FROM bwd JOIN e ON e.dst = bwd.node
            )
            SELECT CAST(f.node AS BIGINT) AS node
            FROM fwd f JOIN bwd b ON b.node = f.node
        """)
def _q_scc_component(sf_dir: str):
    """Strongly connected component of doc 0 in the affine 3-out-link
    graph via forward-backward BFS closure on the actor-sharded
    adjacency index (ONE edge exchange per direction instead of one
    per level). Oracle: two recursive CTE closures intersected."""
    from pdf_extractor_ray.functions.graph import scc_members

    _, edges = _affine_graph(sf_dir, _all_links)

    return scc_members(
        edges, seed=0
    )
