"""Gate queries for exact, near-duplicate and span dedup, dup clusters
and versioned-url change tracking."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import (
    _DUP_SQL,
    _benchmark_docs,
    _docs_with_dups,
    _t,
)


def _strip_spans_min_sql(thr: int) -> str:
    """strip_dup_spans oracle + a gaps-and-islands window: covered
    positions group into maximal runs (pos - row_number is constant
    within a run), and only runs of >= thr positions stay cut."""
    return f"""
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
        isl AS (SELECT doc_id, pos,
                       pos - row_number() OVER (PARTITION BY doc_id
                                                ORDER BY pos) AS grp
                FROM cov),
        lens AS (SELECT doc_id, grp, count(*) AS L
                 FROM isl GROUP BY doc_id, grp),
        cov2 AS (SELECT isl.doc_id, isl.pos
                 FROM isl JOIN lens USING (doc_id, grp)
                 WHERE lens.L >= {thr}),
        kept AS (
            SELECT w.doc_id,
                   count(*) AS n_kept,
                   string_agg(w.word, ' ' ORDER BY w.pos) AS kt
            FROM w
            WHERE NOT EXISTS (SELECT 1 FROM cov2
                              WHERE cov2.doc_id = w.doc_id
                                AND cov2.pos = w.pos)
            GROUP BY w.doc_id)
        SELECT w0.doc_id,
               CAST(len(w0.ws) AS BIGINT) AS n_words,
               CAST(len(w0.ws) - COALESCE(k.n_kept, 0) AS BIGINT)
                   AS n_removed,
               COALESCE(k.kt, '') AS kept_text
        FROM w0 LEFT JOIN kept k ON w0.doc_id = k.doc_id
    """


# Shared CTE chain for the cluster oracles: exact 3-gram Jaccard pairs
# (same derivation the dedup_minhash oracle uses) -> symmetric edges ->
# transitive closure by recursive CTE -> min reachable id per node.
_CLUSTER_CTES = f"""
    d AS ({_DUP_SQL}),
    s AS (
        SELECT doc_id,
               list_distinct(
                 CASE WHEN len(words) < 3
                      THEN [array_to_string(words, ' ')]
                      ELSE list_transform(range(1, len(words)-1),
                             i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])
                 END) AS sh
        FROM (SELECT doc_id,
                     regexp_extract_all(lower(text), '\\S+') AS words
              FROM d)
    ),
    p AS (
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               len(list_intersect(a.sh, b.sh))::DOUBLE /
               len(list_distinct(list_concat(a.sh, b.sh))) AS j
        FROM s a JOIN s b ON a.doc_id < b.doc_id
    ),
    e AS (
        SELECT doc_a AS a, doc_b AS b FROM p WHERE j >= 0.8
        UNION
        SELECT doc_b, doc_a FROM p WHERE j >= 0.8
    ),
    reach(a, b) AS (
        SELECT a, b FROM e
        UNION
        SELECT r.a, e.b FROM reach r JOIN e ON r.b = e.a
    ),
    clusters AS (
        SELECT a AS doc_id, least(a, min(b)) AS cluster_id
        FROM reach GROUP BY a
    )
"""


_DUP_CLUSTERS_SQL = f"""
            WITH RECURSIVE {_CLUSTER_CTES}
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(cluster_id AS BIGINT) AS cluster_id
            FROM clusters
        """


@register("dedup_exact", bench=True, oracle=f"""
            WITH d AS ({_DUP_SQL})
            SELECT md5(text) AS text_hash,
                   min(doc_id) AS keep_doc_id,
                   count(*) AS dup_count
            FROM d GROUP BY 1
        """)
def _q_dedup_exact(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import exact_dedup_summary

    return exact_dedup_summary(_docs_with_dups(sf_dir))


@register("dedup_exact_rows", oracle=f"""
            WITH d AS ({_DUP_SQL}),
                 r AS (SELECT doc_id, md5(text) AS text_hash,
                              row_number() OVER (PARTITION BY md5(text)
                                                 ORDER BY doc_id) AS rn
                       FROM d)
            SELECT doc_id, text_hash FROM r WHERE rn = 1
        """)
def _q_dedup_exact_rows(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import exact_dedup

    out = exact_dedup(_docs_with_dups(sf_dir))
    return out.select_columns(["doc_id", "text_hash"])


# ground truth for the near-dup sketches: ALL pairs with exact
# word-3-gram Jaccard >= threshold, computed by brute-force
# cross join in SQL. O(n^2) BY DESIGN — ~10 s at the sf0.01
# gate scale (where the driver runs oracles, TESTDATA.md), but
# ~100x that at sf0.1; the Ray pipeline itself stays subsecond-
# per-10k-docs at every scale.
# MinHash-LSH at 16 bands x 4 rows has >= 0.9998 recall at
# J=0.8, and on this deterministic corpus it finds exactly the
# true pair set, so the comparison is stable.
@register("dedup_minhash", bench=True, oracle=f"""
            WITH d AS ({_DUP_SQL}),
            s AS (
                SELECT doc_id,
                       list_distinct(
                         CASE WHEN len(words) < 3
                              THEN [array_to_string(words, ' ')]
                              ELSE list_transform(range(1, len(words)-1),
                                     i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])
                         END) AS sh
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '\\S+') AS words
                      FROM d)
            ),
            p AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.sh, b.sh))::DOUBLE /
                       len(list_distinct(list_concat(a.sh, b.sh))) AS j
                FROM s a JOIN s b ON a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b FROM p WHERE j >= 0.8
        """)
def _q_dedup_minhash(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs

    out = minhash_dedup_pairs(_docs_with_dups(sf_dir), threshold=0.8)
    return out.select_columns(["doc_a", "doc_b"])


# Cross-dump ground truth: exact 3-gram Jaccard over new x old
# (brute force BY DESIGN, like dedup_minhash). The new dump is
# the same deterministic derivation the Ray query builds.
@register("incremental_minhash", bench=True, oracle="""
            WITH newd AS (
                SELECT doc_id + 2000000 AS doc_id, text
                FROM documents WHERE doc_id % 10 = 5
                UNION ALL
                SELECT doc_id + 3000000 AS doc_id,
                       'fresh ' || CAST(doc_id AS VARCHAR) AS text
                FROM documents WHERE doc_id % 10 = 3
            ),
            sh AS (
                SELECT doc_id, 0 AS is_new,
                       list_distinct(
                         CASE WHEN len(words) < 3
                              THEN [array_to_string(words, ' ')]
                              ELSE list_transform(range(1, len(words)-1),
                                     i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])
                         END) AS sh
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '\\S+') AS words
                      FROM documents)
                UNION ALL
                SELECT doc_id, 1 AS is_new,
                       list_distinct(
                         CASE WHEN len(words) < 3
                              THEN [array_to_string(words, ' ')]
                              ELSE list_transform(range(1, len(words)-1),
                                     i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])
                         END) AS sh
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '\\S+') AS words
                      FROM newd)
            ),
            p AS (
                SELECT n.doc_id AS doc_a, o.doc_id AS doc_b,
                       len(list_intersect(n.sh, o.sh))::DOUBLE /
                       len(list_distinct(list_concat(n.sh, o.sh))) AS j
                FROM sh n JOIN sh o ON n.is_new = 1 AND o.is_new = 0
            )
            SELECT doc_a, doc_b FROM p WHERE j >= 0.8
        """)
def _q_incremental_minhash(sf_dir: str):
    """Cross-dump near-dup: the old corpus's LSH band rows persist to
    a parquet signature store; a new dump (exact copies of every
    %10==5 doc at id+2M — the planted near-dups — plus fresh unmatched
    %10==3 docs at id+3M) probes the store and candidates verify by
    exact 3-gram Jaccard >= 0.8. Only the NEW dump is re-signed; the
    oracle brute-forces exact Jaccard over new x old."""
    import tempfile

    from pdf_extractor_ray.functions.dedup import (
        incremental_minhash,
        minhash_band_table,
    )

    old = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def new_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        copies = batch.filter(pa.array(ids % 10 == 5))
        fresh = batch.filter(pa.array(ids % 10 == 3))
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate(
                        [
                            copies["doc_id"].to_numpy(zero_copy_only=False)
                            + 2_000_000,
                            fresh["doc_id"].to_numpy(zero_copy_only=False)
                            + 3_000_000,
                        ]
                    ).astype(np.int64)
                ),
                "text": pa.array(
                    copies["text"].to_pylist()
                    + [
                        f"fresh {i}"
                        for i in fresh["doc_id"].to_pylist()
                    ],
                    pa.string(),
                ),
            }
        )

    new = old.map_batches(new_rows, batch_format="pyarrow")

    # round-trip the signature store through parquet — the persisted
    # cross-dump artifact the operator exists for
    store_dir = tempfile.mkdtemp(prefix="incr_minhash_store_")
    minhash_band_table(old).write_parquet(store_dir)
    store = ray.data.read_parquet(store_dir)

    out = incremental_minhash(new, store, old, threshold=0.8)
    return out.select_columns(["doc_a", "doc_b"])


# Exact SimHash replay: md5_number_lower == the Python feature
# hash (md5 digest bytes 8..16 little-endian) by construction,
# so per-doc sketches match bit-for-bit; pigeonhole blocking
# (4 x 16-bit bands) makes candidate recall exact at hamming<=3,
# so the pair set is simply ALL pairs within the radius.
@register("dedup_simhash", oracle=f"""
            WITH d AS ({_DUP_SQL}),
            w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                              '[^ \\t\\n\\r\\f\\x0b]+')) AS w
                FROM d),
            bits AS (
                SELECT doc_id, b.i,
                       sum(CASE WHEN (md5_number_lower(w) >> b.i) & 1 = 1
                                THEN 1 ELSE -1 END) AS s
                FROM w CROSS JOIN (SELECT unnest(range(64)) AS i) b(i)
                GROUP BY doc_id, b.i),
            sh0 AS (
                SELECT d.doc_id,
                       COALESCE(sum(CASE WHEN bits.s > 0
                                         THEN (1::HUGEINT << bits.i)
                                         ELSE 0 END), 0) AS h
                FROM d LEFT JOIN bits ON d.doc_id = bits.doc_id
                GROUP BY d.doc_id),
            sh AS (
                SELECT doc_id,
                       CASE WHEN h >= (1::HUGEINT << 63)
                            THEN (h - (1::HUGEINT << 64))::BIGINT
                            ELSE h::BIGINT END AS sh
                FROM sh0)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   bit_count(xor(a.sh, b.sh))::BIGINT AS hamming
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.sh, b.sh)) <= 3
        """)
def _q_dedup_simhash(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import simhash_dedup_pairs

    return simhash_dedup_pairs(_docs_with_dups(sf_dir), max_hamming=3)


# Span oracle groups on the n-gram STRING itself — no hash to
# replicate; positions joined back classify per-doc counts.
@register("dup_ngram_spans", bench=True, oracle=f"""
            WITH d AS ({_DUP_SQL}),
            w AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text),
                           '[^ \\t\\n\\r\\f\\x0b]+') AS ws
                FROM d),
            g AS (
                SELECT doc_id,
                       CASE WHEN len(ws) >= 5
                            THEN list_transform(range(1, len(ws) - 3),
                                 i -> ws[i] || ' ' || ws[i+1] || ' ' ||
                                      ws[i+2] || ' ' || ws[i+3] || ' ' ||
                                      ws[i+4])
                            ELSE [] END AS gs
                FROM w),
            p AS (SELECT doc_id, unnest(gs) AS gram FROM g),
            t AS (SELECT gram, count(*) AS tot FROM p GROUP BY gram),
            dd AS (
                SELECT p.doc_id, CAST(count(*) AS BIGINT) AS n_dup
                FROM p JOIN t USING (gram) WHERE t.tot > 1
                GROUP BY p.doc_id)
            SELECT g.doc_id,
                   CAST(len(g.gs) AS BIGINT) AS n_ngrams,
                   CAST(COALESCE(dd.n_dup, 0) AS BIGINT) AS n_dup
            FROM g LEFT JOIN dd ON g.doc_id = dd.doc_id
        """)
def _q_dup_ngram_spans(sf_dir: str):
    """Exact substring-duplication signal (Lee et al. 2022): per doc,
    total word-5-gram positions and how many carry a 5-gram occurring
    >1 time corpus-wide. Two coarse exchanges (hash bucket, then doc
    bucket); the planted exact copies light up with n_dup == n_ngrams."""
    from pdf_extractor_ray.functions.dedup import dup_ngram_span_stats

    return dup_ngram_span_stats(_docs_with_dups(sf_dir), n=5)


@register("strip_dup_spans", bench=True, oracle=f"""
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
                SELECT w.doc_id,
                       count(*) AS n_kept,
                       string_agg(w.word, ' ' ORDER BY w.pos) AS kt
                FROM w
                WHERE NOT EXISTS (SELECT 1 FROM cov
                                  WHERE cov.doc_id = w.doc_id
                                    AND cov.pos = w.pos)
                GROUP BY w.doc_id)
            SELECT w0.doc_id,
                   CAST(len(w0.ws) AS BIGINT) AS n_words,
                   CAST(len(w0.ws) - COALESCE(k.n_kept, 0) AS BIGINT)
                       AS n_removed,
                   COALESCE(k.kt, '') AS kept_text
            FROM w0 LEFT JOIN kept k ON w0.doc_id = k.doc_id
        """)
def _q_strip_dup_spans(sf_dir: str):
    """The REMOVAL step of Lee et al. 2022 exact substring dedup:
    every word position covered by a corpus-duplicated 5-gram is cut
    and the survivors re-joined (normalized word sequence contract).
    Exchange 1 carries one row per n-gram position (the honest
    substring-dedup currency); exchange 2 cogroups texts with dup
    positions per doc bucket and cuts with an interval-union mask.
    The oracle replays tokenization, 5-gram counting, position
    coverage and the surviving join in SQL."""
    from pdf_extractor_ray.functions.dedup import strip_dup_spans

    return strip_dup_spans(_docs_with_dups(sf_dir), n=5)


def _q_strip_spans_min(sf_dir: str, thr: int):
    """Maximal-span removal (Lee et al.'s actual threshold rule):
    duplicated 5-gram positions merge into maximal covered spans and
    only spans >= thr words are cut — an isolated duplicated phrase
    survives, a long verbatim block does not. The oracle extends the
    strip_dup_spans CTE stack with a gaps-and-islands window over the
    covered positions."""
    from pdf_extractor_ray.functions.dedup import strip_dup_spans

    return strip_dup_spans(_docs_with_dups(sf_dir), n=5, min_span_words=thr)


@register("strip_spans_min8", oracle=_strip_spans_min_sql(8))
def _q_strip_spans_min8(sf_dir: str):
    return _q_strip_spans_min(sf_dir, 8)


@register("strip_spans_min30", oracle=_strip_spans_min_sql(30))
def _q_strip_spans_min30(sf_dir: str):
    return _q_strip_spans_min(sf_dir, 30)


# jaccard_join: the exact-Jaccard cross join over docs +
# injected copies — completeness check for the lossless
# prefix-filter candidate generation.
@register("jaccard_join", oracle=f"""
            WITH d AS ({_DUP_SQL}),
            s AS (
                SELECT doc_id,
                       list_distinct(
                         CASE WHEN len(words) < 3
                              THEN [array_to_string(words, ' ')]
                              ELSE list_transform(range(1, len(words)-1),
                                     i -> words[i] || ' ' || words[i+1]
                                          || ' ' || words[i+2])
                         END) AS sh
                FROM (SELECT doc_id,
                             regexp_extract_all(lower(text), '\\S+')
                                 AS words
                      FROM d)
            ),
            p AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.sh, b.sh))::DOUBLE /
                       len(list_distinct(list_concat(a.sh, b.sh))) AS j
                FROM s a JOIN s b ON a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b FROM p WHERE j >= 0.6
        """)
def _q_jaccard_join(sf_dir: str):
    """EXACT set-similarity self-join via prefix filtering (the
    AllPairs/PPJoin family): all pairs with word-3-gram Jaccard >=
    0.6 over documents + injected exact copies. Unlike the MinHash
    leg this candidate generation is LOSSLESS (a qualifying pair must
    share a prefix token), so the oracle — the exact-Jaccard cross
    join — checks COMPLETENESS, not just precision."""
    from pdf_extractor_ray.functions.dedup import jaccard_join_prefix

    out = jaccard_join_prefix(_docs_with_dups(sf_dir), threshold_pm=600)
    return out.map_batches(
        lambda b: b.select(["doc_a", "doc_b"]), batch_format="pyarrow"
    )


@register("dedup_ngram", oracle="""
            WITH s AS (
                SELECT doc_id, source,
                       list_distinct(
                         CASE WHEN len(words) < 3
                              THEN [array_to_string(words, ' ')]
                              ELSE list_transform(range(1, len(words)-1),
                                     i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])
                         END) AS sh
                FROM (SELECT doc_id, source,
                             regexp_extract_all(lower(text), '\\S+') AS words
                      FROM documents)
            ),
            p AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       len(list_intersect(a.sh, b.sh))::DOUBLE /
                       len(list_distinct(list_concat(a.sh, b.sh))) AS j
                FROM s a JOIN s b
                  ON a.source = b.source AND a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b FROM p WHERE j >= 0.2
        """)
def _q_dedup_ngram(sf_dir: str):
    """Pairwise exact 3-gram Jaccard within each source group."""
    from pdf_extractor_ray.functions.dedup import ngram_jaccard

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "source"]
    )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        import itertools

        recs = sorted(zip(group["doc_id"], group["text"]))
        out = []
        for (ida, ta), (idb, tb) in itertools.combinations(recs, 2):
            j = ngram_jaccard(ta, tb)
            if j >= 0.2:
                out.append((ida, idb))
        return pd.DataFrame(
            {"doc_a": [p[0] for p in out], "doc_b": [p[1] for p in out]}
        )

    return docs.groupby("source").map_groups(pairs, batch_format="pandas")


@register("dup_clusters", oracle=_DUP_CLUSTERS_SQL)
@register("dup_clusters_indexed", oracle=_DUP_CLUSTERS_SQL)
def _q_dup_clusters(sf_dir: str):
    """Transitive near-dup clusters: verified MinHash pairs fed to the
    distributed hash-min connected-components pass (A~B, B~C put A and
    C in one cluster even when A!~C). cluster_id = min member id."""
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs
    from pdf_extractor_ray.functions.graph import connected_components

    pairs = minhash_dedup_pairs(_docs_with_dups(sf_dir), threshold=0.8)
    return connected_components(pairs)


# cluster_safe_split: COALESCE to own id for singletons, then
# the standard md5-percent hash on the CLUSTER key.
@register("cluster_safe_split", oracle=f"""
            WITH RECURSIVE {_CLUSTER_CTES},
            splitkey AS (
                SELECT d.doc_id,
                       COALESCE(c.cluster_id, d.doc_id) AS key
                FROM d LEFT JOIN clusters c USING (doc_id)
            ),
            splitass AS (
                SELECT doc_id, key,
                       CASE WHEN ('0x' || substring(
                                md5(CAST(key AS VARCHAR)), 1, 8))::UBIGINT
                                % 10 < 2
                            THEN 'test' ELSE 'train' END AS split
                FROM splitkey
            )
            SELECT split,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT key) AS BIGINT) AS n_keys,
                   md5(string_agg(CAST(doc_id AS VARCHAR), ','
                                  ORDER BY doc_id)) AS ids_md5
            FROM splitass GROUP BY split
        """)
def _q_cluster_safe_split(sf_dir: str):
    """Leakage-safe train/test split keyed on the NEAR-DUP CLUSTER
    (the code-model-paper rule: a near-duplicate of a test document
    must not reach train, which a doc-keyed hash split cannot
    guarantee): split = md5 hash of the connected-component cluster
    id (own id for singletons), so every near-dup cluster moves as a
    unit. One doc-bucket cogroup attaches cluster ids; the split is a
    pure per-row hash after that. Output per split: doc count,
    distinct key count, membership md5."""
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs
    from pdf_extractor_ray.functions.graph import connected_components

    docs = _docs_with_dups(sf_dir)
    clusters = connected_components(
        minhash_dedup_pairs(docs, threshold=0.8)
    )

    def tag_doc(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "key": pa.array(np.full(len(ids), -1), pa.int64()),
            }
        )

    def tag_cluster(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "key": batch["cluster_id"].cast(pa.int64()),
            }
        )

    def assign(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("key", ascending=False)  # cluster rows first
        g = g.drop_duplicates(subset=["doc_id"], keep="first")
        key = np.where(g["key"] < 0, g["doc_id"], g["key"])
        split = [
            "test"
            if int(
                hashlib.md5(str(int(k)).encode()).hexdigest()[:8], 16
            )
            % 10
            < 2
            else "train"
            for k in key
        ]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "key": key.astype(np.int64),
                "split": split,
            }
        )

    tagged = docs.map_batches(
        lambda b: tag_doc(b.select(["doc_id"])), batch_format="pyarrow"
    ).union(clusters.map_batches(tag_cluster, batch_format="pyarrow"))
    assigned = cogroup(
        {"group": (tagged, "doc_id")},
        lambda group: assign(group.to_pandas()),
        pa.schema([("doc_id", pa.int64()), ("key", pa.int64()), ("split", pa.string())]),
        n_buckets=64,
        coalesce=False,
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby("split")
            .agg(ids=("doc_id", list), keys=("key", lambda s: list(set(s))))
            .reset_index()
        )
        return pa.table(
            {
                "split": pa.array(g["split"], pa.string()),
                "ids": pa.array(g["ids"], pa.list_(pa.int64())),
                "keys": pa.array(g["keys"], pa.list_(pa.int64())),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(i for lst in group["ids"] for i in lst)
        keys = set(k for lst in group["keys"] for k in lst)
        return pd.DataFrame(
            {
                "split": [group["split"].iloc[0]],
                "n_docs": np.int64(len(ids)),
                "n_keys": np.int64(len(keys)),
                "ids_md5": [
                    hashlib.md5(
                        ",".join(str(i) for i in ids).encode()
                    ).hexdigest()
                ],
            }
        )

    return (
        assigned.map_batches(partial, batch_format="pyarrow")
        .groupby("split")
        .map_groups(merge, batch_format="pandas")
    )


# exact AllPairs cosine: integer idf/norm/dot, sqrt-free compare
@register("cosine_pairs", bench=True, oracle="""
            WITH w0 AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ),
            g AS (
                SELECT doc_id,
                       ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS gram
                FROM w0,
                     unnest(generate_series(1, greatest(len(ws) - 2, 0)))
                         t(i)
            ),
            tf AS (
                SELECT doc_id, gram, CAST(count(*) AS BIGINT) AS tf
                FROM g GROUP BY 1, 2
            ),
            dft AS (SELECT gram, count(*) AS df FROM tf GROUP BY 1),
            nn AS (SELECT count(*) AS n FROM documents),
            wt AS (
                SELECT t.doc_id, t.gram,
                       t.tf * length(printf('%b', nn.n // d.df)) AS w
                FROM tf t JOIN dft d USING (gram), nn
                WHERE d.df BETWEEN 2 AND 20
            ),
            nrm AS (
                SELECT doc_id, CAST(SUM(w * w) AS BIGINT) AS n2
                FROM wt GROUP BY 1
            ),
            dt AS (
                SELECT a.doc_id AS da, b.doc_id AS db,
                       CAST(SUM(a.w * b.w) AS BIGINT) AS d
                FROM wt a JOIN wt b
                  ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT dt.da AS doc_a, dt.db AS doc_b, dt.d AS dot,
                   na.n2 AS norm_a, nb.n2 AS norm_b
            FROM dt
            JOIN nrm na ON na.doc_id = dt.da
            JOIN nrm nb ON nb.doc_id = dt.db
            WHERE CAST(dt.d AS HUGEINT) * dt.d * 1000000 >=
                  CAST(500 AS HUGEINT) * 500 * na.n2 * nb.n2
        """)
def _q_cosine_pairs(sf_dir: str):
    """Exact all-pairs TF-IDF cosine join (AllPairs family): every doc
    pair with cosine >= 0.5 over 3-gram terms with df in [2,20] —
    integer idf (bit_length), integer norms/dots, and a sqrt-free
    cross-multiplied threshold, so the SQL self-join replays it
    bit-exactly. The exact counterpart to the MinHash/SimHash
    approximate family."""
    from pdf_extractor_ray.functions.allpairs import tfidf_cosine_pairs

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return tfidf_cosine_pairs(docs, threshold_pm=500, df_cap=20)


# asymmetric containment over distinct df-band 3-gram sets
@register("containment_pairs", oracle="""
            WITH w0 AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ),
            g AS (
                SELECT DISTINCT doc_id,
                       ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS gram
                FROM w0,
                     unnest(generate_series(1, greatest(len(ws) - 2, 0)))
                         t(i)
            ),
            dft AS (SELECT gram, count(*) AS df FROM g GROUP BY 1),
            gb AS (
                SELECT g.doc_id, g.gram FROM g JOIN dft USING (gram)
                WHERE dft.df BETWEEN 2 AND 20
            ),
            sz AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS sz
                FROM gb GROUP BY 1
            ),
            inter AS (
                SELECT a.doc_id AS da, b.doc_id AS db,
                       CAST(count(*) AS BIGINT) AS n_common
                FROM gb a JOIN gb b
                  ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT i.da AS doc_a, i.db AS doc_b, i.n_common,
                   sa.sz AS size_a, sb.sz AS size_b
            FROM inter i
            JOIN sz sa ON sa.doc_id = i.da
            JOIN sz sb ON sb.doc_id = i.db
            WHERE i.n_common * 1000 >= 700 * least(sa.sz, sb.sz)
        """)
def _q_containment_pairs(sf_dir: str):
    """Asymmetric near-dup: the smaller doc's 3-gram SET mostly inside
    the larger's (|A∩B| >= 0.7*min set size) — catches partial copies
    and quote expansions that cosine misses. Same gram-bucket exchange
    and df-band contract as cosine_pairs; integer cross-multiplied
    threshold."""
    from pdf_extractor_ray.functions.allpairs import containment_pairs

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return containment_pairs(docs, threshold_pm=700, df_cap=20)


@register("cluster_size_hist", oracle=f"""
            WITH RECURSIVE {_CLUSTER_CTES},
            sz AS (
                SELECT cluster_id, CAST(count(*) AS BIGINT) AS size
                FROM clusters GROUP BY 1
            )
            SELECT size, CAST(count(*) AS BIGINT) AS n_clusters
            FROM sz GROUP BY size
        """)
def _q_cluster_size_hist(sf_dir: str):
    """Dedup report: histogram of near-dup cluster sizes (how much of
    the corpus duplicates, and in what clump sizes) — an aggregate OF
    an aggregate: indexed label-prop clusters -> per-cluster member
    counts -> counts per size. Both rollups are narrow exchanges."""
    from ray.data.aggregate import Count as _Count
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs
    from pdf_extractor_ray.functions.graph import connected_components

    pairs = minhash_dedup_pairs(_docs_with_dups(sf_dir), threshold=0.8)
    clusters = connected_components(pairs)
    sizes = clusters.groupby("cluster_id").aggregate(
        _Count(alias_name="size")
    )
    return (
        sizes.groupby("size")
        .aggregate(_Count(alias_name="n_clusters"))
        .map_batches(
            lambda b: pa.table(
                {
                    "size": b["size"].cast(pa.int64()),
                    "n_clusters": b["n_clusters"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


@register("dedup_survivors", oracle=f"""
            WITH RECURSIVE {_CLUSTER_CTES}
            SELECT CAST(doc_id AS BIGINT) AS doc_id FROM d
            WHERE doc_id NOT IN
                  (SELECT doc_id FROM clusters WHERE doc_id != cluster_id)
        """)
def _q_dedup_survivors(sf_dir: str):
    """Fuzzy-dedup survivor ids: one canonical doc per near-dup
    cluster plus every unclustered doc (bucketed anti-join, nothing
    broadcast)."""
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs
    from pdf_extractor_ray.functions.graph import (
        canonical_doc_ids,
        connected_components,
    )

    docs = _docs_with_dups(sf_dir)
    clusters = connected_components(
        minhash_dedup_pairs(docs, threshold=0.8)
    )
    return canonical_doc_ids(docs.select_columns(["doc_id"]), clusters)


@register("winnow", oracle="""
            -- Robust winnowing (Schleimer et al. 2003), k=4, w=5.
            -- Rightmost-tie window min is folded into one sortable key:
            -- md5hex (32 chars) || zero-padded (999999999 - pos), so a
            -- plain window min() selects the rightmost minimal gram.
            WITH w0 AS (
                SELECT doc_id,
                       regexp_extract_all(lower(coalesce(text, '')), '\\S+') AS ws
                FROM documents
            ),
            meta AS (
                SELECT doc_id, ws, greatest(len(ws) - 3, 0) AS ng FROM w0
            ),
            g AS (
                SELECT doc_id, ng, least(5, ng) AS width,
                       unnest(generate_series(1, ng)) AS j, ws
                FROM meta WHERE ng > 0
            ),
            g3 AS (
                SELECT doc_id, ng, width, j - 1 AS pos,
                       md5(array_to_string(ws[j : j + 3], ' ')) AS h
                FROM g
            ),
            keyed AS (
                SELECT doc_id, ng, width, pos, h,
                       h || lpad(CAST(999999999 - pos AS VARCHAR), 9, '0') AS kk
                FROM g3
            ),
            wmin AS (
                SELECT doc_id, ng, width, pos,
                       min(kk) OVER (PARTITION BY doc_id ORDER BY pos
                                     ROWS BETWEEN CURRENT ROW AND 4 FOLLOWING) AS mk
                FROM keyed
            ),
            selpos AS (
                SELECT DISTINCT doc_id,
                       999999999 - CAST(substr(mk, 33, 9) AS BIGINT) AS pos
                FROM wmin WHERE pos <= ng - width
            ),
            sel AS (
                SELECT s.doc_id, s.pos, k.h
                FROM selpos s
                JOIN keyed k ON k.doc_id = s.doc_id AND k.pos = s.pos
            ),
            per_doc AS (
                SELECT doc_id, count(*) AS n_fp,
                       md5(string_agg(h, '' ORDER BY pos)) AS fp_digest
                FROM sel GROUP BY doc_id
            ),
            shared_h AS (
                SELECT h FROM (SELECT DISTINCT doc_id, h FROM sel)
                GROUP BY h HAVING count(*) >= 2
            ),
            nsh AS (
                SELECT doc_id, count(DISTINCT h) AS n_shared
                FROM sel WHERE h IN (SELECT h FROM shared_h)
                GROUP BY doc_id
            )
            SELECT m.doc_id,
                   m.ng AS n_grams,
                   coalesce(p.n_fp, 0) AS n_fp,
                   coalesce(n.n_shared, 0) AS n_shared,
                   coalesce(p.fp_digest, md5('')) AS fp_digest
            FROM meta m
            LEFT JOIN per_doc p USING (doc_id)
            LEFT JOIN nsh n USING (doc_id)
        """)
def _q_winnow(sf_dir: str):
    """Winnowing (MOSS) fingerprints: per-doc window-min sketch counts,
    order-exact fingerprint digest, and cross-doc shared-hash counts."""
    from pdf_extractor_ray.functions.winnow import winnow_fingerprints

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return winnow_fingerprints(docs, k=4, w=5)


def _versioned_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents as versions of 200 synthetic urls (doc_id % 200, so
    collision groups exist at every sf, ~2-3 dumps' worth of versions
    per url) with a deterministic fetch_ts; the oracles rebuild the
    same (url, doc_id, fetch_ts) rows."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def versions(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = [f"https://example.org/page-{i % 200}" for i in ids]
        ts = (ids * 7919) % 1000000
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "doc_id": batch["doc_id"],
                "fetch_ts": pa.array(ts, pa.int64()),
            }
        )

    return docs.map_batches(versions, batch_format="pyarrow")


@register("crawl_refresh", bench=True, oracle="""
            WITH v AS (
              SELECT doc_id,
                     'https://example.org/page-' || CAST(doc_id % 200 AS VARCHAR) AS url,
                     CAST((doc_id * 7919) % 1000000 AS BIGINT) AS fetch_ts
              FROM documents),
            r AS (
              SELECT *, row_number() OVER (
                  PARTITION BY url ORDER BY fetch_ts DESC, doc_id DESC) AS rn
              FROM v)
            SELECT url, doc_id, fetch_ts FROM r WHERE rn = 1
        """)
def _q_crawl_refresh(sf_dir: str):
    """Crawl-refresh compaction (last-writer-wins per url): documents
    wear synthetic versioned urls (doc_id % 200, ~2-3 dumps' worth of
    versions per url) and a deterministic fetch_ts; keep the newest
    version per url via the coarse url-bucket exchange."""
    from pdf_extractor_ray.functions.dedup import latest_version

    return latest_version(_versioned_pages(sf_dir))


@register("scd2_history", oracle="""
            WITH v AS (
                SELECT 'https://example.org/page-' || (doc_id % 200)
                           AS url,
                       doc_id,
                       (doc_id * 7919) % 1000000 AS fetch_ts
                FROM documents
            ),
            iv AS (
                SELECT url, doc_id,
                       CAST(fetch_ts AS BIGINT) AS valid_from,
                       lead(fetch_ts) OVER (
                           PARTITION BY url ORDER BY fetch_ts, doc_id
                       ) AS nxt
                FROM v
            )
            SELECT url, doc_id, valid_from,
                   CAST(coalesce(nxt, 9999999) AS BIGINT) AS valid_to,
                   CAST(CASE WHEN nxt IS NULL THEN 1 ELSE 0 END AS BIGINT)
                       AS is_current
            FROM iv
        """)
def _q_scd2_history(sf_dir: str):
    """SCD type-2 history build over the crawl_refresh versioned
    input: every (url, version) becomes a [valid_from, valid_to)
    interval with the next fetch as the exclusive end (open end
    9_999_999 on the current row). One url-bucket exchange; the
    oracle replays the lead() window."""
    from pdf_extractor_ray.functions.dedup import scd2_history

    return scd2_history(_versioned_pages(sf_dir))


@register("crawl_changes", oracle="""
            WITH v AS (
              SELECT doc_id,
                     'https://example.org/page-' || CAST(doc_id % 100 AS VARCHAR) AS url,
                     doc_id AS fetch_ts,
                     md5('https://example.org/page-' || CAST(doc_id % 100 AS VARCHAR)
                         || ':' || CAST(doc_id // 300 AS VARCHAR)) AS text_hash
              FROM documents),
            d AS (
              SELECT *, lag(text_hash) OVER (
                  PARTITION BY url ORDER BY fetch_ts, doc_id) AS prev_hash
              FROM v)
            SELECT url, doc_id, fetch_ts, text_hash,
                   CASE WHEN prev_hash IS NULL THEN 'new'
                        ELSE 'changed' END AS change_type
            FROM d
            WHERE prev_hash IS NULL OR text_hash <> prev_hash
        """)
def _q_crawl_changes(sf_dir: str):
    """Content-change detection over synthetic revisits: 100 urls x ~5
    fetches each (doc_id % 100), content version flips every 3rd
    revisit (doc_id // 300), hash = md5(url:ver). Keeps first fetch +
    changed fetches via the coarse url-bucket exchange; the oracle
    replays the lag() window."""
    from pdf_extractor_ray.functions.dedup import content_change_log

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def revisits(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = [f"https://example.org/page-{i % 100}" for i in ids]
        hashes = [
            hashlib.md5(f"{u}:{i // 300}".encode()).hexdigest()
            for u, i in zip(urls, ids)
        ]
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "doc_id": batch["doc_id"],
                "fetch_ts": batch["doc_id"],
                "text_hash": pa.array(hashes, pa.string()),
            }
        )

    return content_change_log(docs.map_batches(revisits, batch_format="pyarrow"))


@register("editdist_neardup", oracle="""
            -- Blocked Levenshtein near-dup: block on (first word,
            -- codepoint-length // 64) of lower(text); in-block pairs
            -- (a.id < b.id); top-50 by (dist, doc_a, doc_b) — a total
            -- order, so the LIMIT boundary is deterministic. DuckDB's
            -- levenshtein() is UTF-8-byte based; the Ray kernel
            -- matches that alphabet exactly.
            WITH d AS (
                SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents
            ),
            b AS (
                SELECT doc_id, t,
                       regexp_extract(t, '[a-z0-9]+') AS w1,
                       length(t) // 64 AS band
                FROM d
                WHERE regexp_extract(t, '[a-z0-9]+') <> ''
            )
            SELECT a.doc_id AS doc_a, c.doc_id AS doc_b,
                   CAST(length(a.t) AS BIGINT) AS len_a,
                   CAST(length(c.t) AS BIGINT) AS len_b,
                   CAST(levenshtein(a.t, c.t) AS BIGINT) AS dist
            FROM b a JOIN b c
              ON a.w1 = c.w1 AND a.band = c.band AND a.doc_id < c.doc_id
            ORDER BY dist ASC, doc_a ASC, doc_b ASC
            LIMIT 50
        """)
def _q_editdist_neardup(sf_dir: str):
    """Blocked exact-Levenshtein near-dup scan: top-50 most-similar
    in-block pairs under a total order. Distances are UTF-8-byte
    Levenshtein (DuckDB semantics), verified exact vs the oracle."""
    from pdf_extractor_ray.functions.editdist import blocked_edit_distance

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return blocked_edit_distance(docs, len_band=64, top_pairs=50)


@register("entity_clusters", oracle="""
            -- Blocking + levenshtein <= 10 match edges + recursive
            -- transitive closure; cluster_id = min doc_id reachable.
            WITH RECURSIVE d AS (
                SELECT doc_id, lower(coalesce(text, '')) AS t FROM documents
            ),
            b AS (
                SELECT doc_id, t,
                       regexp_extract(t, '[a-z0-9]+') AS w1,
                       length(t) // 64 AS band
                FROM d
                WHERE regexp_extract(t, '[a-z0-9]+') <> ''
            ),
            p AS (
                SELECT a.doc_id AS doc_a, c.doc_id AS doc_b
                FROM b a JOIN b c
                  ON a.w1 = c.w1 AND a.band = c.band AND a.doc_id < c.doc_id
                WHERE levenshtein(a.t, c.t) <= 10
            ),
            e AS (
                SELECT doc_a AS a, doc_b AS b FROM p
                UNION
                SELECT doc_b, doc_a FROM p
            ),
            reach(a, b) AS (
                SELECT a, b FROM e
                UNION
                SELECT r.a, e.b FROM reach r JOIN e ON r.b = e.a
            ),
            clusters AS (
                SELECT a AS doc_id, least(a, min(b)) AS cluster_id
                FROM reach GROUP BY a
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(cluster_id AS BIGINT) AS cluster_id
            FROM clusters
        """)
def _q_entity_clusters(sf_dir: str):
    """Record-linkage composite: blocking -> exact Levenshtein match
    edges (dist <= 10) -> connected-component entity clusters with
    min-doc-id golden keys. The oracle replays blocking + levenshtein
    + a recursive-CTE transitive closure."""
    from pdf_extractor_ray.functions.editdist import edit_distance_clusters

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return edit_distance_clusters(docs, max_dist=10, len_band=64)


@register("url_dedup", bench=True, oracle="""
            WITH p AS (SELECT 'https://example.org/page-' || (doc_id % 200) AS url,
                              doc_id
                       FROM documents)
            SELECT url, min(doc_id) AS keep_doc_id, count(*) AS dup_count
            FROM p GROUP BY url
        """)
def _q_url_dedup(sf_dir: str):
    """Exact url-dedup: urls synthesized as doc_id % 200 so collision
    groups exist at every sf (mirrored by the oracle's printf)."""
    from pdf_extractor_ray.functions.dedup import key_dedup_summary

    return key_dedup_summary(
        _versioned_pages(sf_dir), key_col="url", id_col="doc_id"
    )


@register("fold_dedup", oracle="""
            WITH f AS (
                SELECT doc_id,
                       md5(trim(regexp_replace(regexp_replace(
                            lower(strip_accents(coalesce(text, ''))),
                            '[!-/:-@\\[-`{-~]', '', 'g'),
                            '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' '))
                           AS fold_md5
                FROM documents)
            SELECT fold_md5,
                   CAST(min(doc_id) AS BIGINT) AS keep_doc_id,
                   CAST(count(*) AS BIGINT) AS dup_count
            FROM f GROUP BY fold_md5
        """)
def _q_fold_dedup(sf_dir: str):
    """CCNet-style normalized dedup: aggressive fold (NFD accent
    strip -> lower -> ASCII punctuation drop -> whitespace collapse,
    every step cross-engine exact — see kernel ccnet_fold) -> md5
    key -> the standard key-dedup exchange. Catches near-identical
    bodies that exact_dedup misses (case, accents, punctuation,
    spacing variants)."""
    import hashlib as _hl

    from pdf_extractor_ray.functions.dedup import key_dedup_summary
    from pdf_extractor_ray.kernel.textutils import ccnet_fold

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def fold(batch: pa.Table) -> pa.Table:
        keys = [
            _hl.md5(ccnet_fold(t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fold_md5": pa.array(keys, pa.string()),
            }
        )

    return key_dedup_summary(
        docs.map_batches(fold, batch_format="pyarrow"),
        key_col="fold_md5", id_col="doc_id",
    )


@register("decontaminate", oracle=f"""
            WITH d AS ({_DUP_SQL}),
            bw AS (
              SELECT regexp_extract_all(text, '\\S+') AS ws
              FROM documents WHERE doc_id < 20
            ),
            bg AS (
              SELECT DISTINCT
                     md5(array_to_string(list_slice(ws, i + 1, i + 8), ' '))
                         AS g
              FROM bw, UNNEST(range(0, greatest(len(ws) - 7, 0))) AS t(i)
            ),
            dw AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM d),
            dg AS (
              SELECT DISTINCT doc_id,
                     md5(array_to_string(list_slice(ws, i + 1, i + 8), ' '))
                         AS g
              FROM dw, UNNEST(range(0, greatest(len(ws) - 7, 0))) AS t(i)
            ),
            h AS (SELECT doc_id, count(*) AS n_hits
                  FROM dg JOIN bg USING (g) GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
                   coalesce(h.n_hits, 0) > 0 AS contaminated
            FROM d LEFT JOIN h USING (doc_id)
        """)
def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: the corpus (with injected re-crawl
    dups) checked for 8-gram overlap against an eval set (docs 0..19).
    Contaminated = the benchmark docs themselves plus their duplicate
    copies; per-doc hit counts value-checked."""
    from pdf_extractor_ray.functions.decontaminate import contamination_flags

    corpus = _docs_with_dups(sf_dir)
    benchmark = _benchmark_docs(sf_dir)
    return contamination_flags(corpus, benchmark, n=8)


# decontaminate_strip: hit positions -> covered intervals
# ([i, i+8) per hit, DISTINCT union) -> kept words by
# anti-join, re-joined in position order.
@register("decontaminate_strip", oracle=f"""
            WITH d AS ({_DUP_SQL}),
            bw AS (
              SELECT regexp_extract_all(text, '\\S+') AS ws
              FROM documents WHERE doc_id < 20
            ),
            bg AS (
              SELECT DISTINCT
                     md5(array_to_string(list_slice(ws, i + 1, i + 8), ' '))
                         AS g
              FROM bw, UNNEST(range(0, greatest(len(ws) - 7, 0))) AS t(i)
            ),
            dw AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
                   FROM d),
            hit AS (
              SELECT doc_id, i
              FROM dw, UNNEST(range(0, greatest(len(ws) - 7, 0))) AS t(i)
              WHERE md5(array_to_string(list_slice(ws, i + 1, i + 8), ' '))
                    IN (SELECT g FROM bg)
            ),
            cov AS (
              SELECT DISTINCT doc_id, i + k AS j
              FROM hit, UNNEST(range(0, 8)) AS t2(k)
            ),
            poss AS (SELECT doc_id, ws, j
                     FROM dw, UNNEST(range(0, len(ws))) AS t(j)),
            kept AS (
              SELECT p.doc_id, p.ws[p.j + 1] AS w, p.j
              FROM poss p LEFT JOIN cov c
                ON c.doc_id = p.doc_id AND c.j = p.j
              WHERE c.j IS NULL
            ),
            ka AS (
              SELECT doc_id,
                     md5(string_agg(w, ' ' ORDER BY j)) AS kept_md5
              FROM kept GROUP BY doc_id
            ),
            nr AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_removed
                   FROM cov GROUP BY doc_id)
            SELECT dw.doc_id,
                   CAST(len(dw.ws) AS BIGINT) AS n_words,
                   COALESCE(nr.n_removed, 0) AS n_removed,
                   COALESCE(ka.kept_md5, md5('')) AS kept_md5
            FROM dw LEFT JOIN nr USING (doc_id)
                    LEFT JOIN ka USING (doc_id)
        """)
def _q_decontaminate_strip(sf_dir: str):
    """Contamination REMOVAL (cut the overlapping span, keep the
    document): every word position covered by an 8-gram shared with
    the eval set (docs 0..19) is cut; benchmark docs and their
    injected copies end up gutted, innocents pass untouched. One
    shuffle-free pass over the broadcast hash set; the oracle expands
    hit positions to covered intervals and rebuilds each kept_text
    md5 with list arithmetic."""
    from pdf_extractor_ray.functions.decontaminate import (
        strip_contaminated_spans,
    )

    corpus = _docs_with_dups(sf_dir)
    benchmark = _benchmark_docs(sf_dir)
    out = strip_contaminated_spans(corpus, benchmark, n=8)

    def roll(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5((t or "").encode("utf-8", "replace")).hexdigest()
            for t in batch["kept_text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": batch["n_words"],
                "n_removed": batch["n_removed"],
                "kept_md5": pa.array(fps, pa.string()),
            }
        )

    return out.map_batches(roll, batch_format="pyarrow")


@register("incremental_dedup", oracle="""
            WITH known AS (
              SELECT md5(text) AS h FROM documents WHERE doc_id % 5 = 0
            )
            SELECT d.doc_id, md5(d.text) AS text_hash
            FROM documents d
            WHERE NOT EXISTS (SELECT 1 FROM known k WHERE k.h = md5(d.text))
        """)
def _q_incremental_dedup(sf_dir: str):
    """Cross-dump incremental dedup (bucketed cogroup anti-join): new
    docs surviving against the persisted hash set of a previous dump
    (modeled as every 5th document)."""
    from pdf_extractor_ray.functions.dedup import (
        content_hashes,
        incremental_dedup,
    )

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def known_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 5 == 0))

    known = content_hashes(
        ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
        .map_batches(known_only, batch_format="pyarrow")
    )
    return incremental_dedup(docs, known)


# suffix_dup_spans: exact >= 50-token duplicated-substring
# coverage — literal 50-word-gram equality (the window form
# provably equal to suffix-array coverage), gaps-and-islands
# maximal intervals. Chimera plants (first30+last30) must
# produce NO rows; true 60-word plants produce [0, 60) spans
# in both the source and the planted doc.
@register("suffix_dup_spans", bench=True, oracle="""
            WITH d AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 3000000,
                       array_to_string(list_slice(ws, 1, 30), ' ')
                       || ' ' ||
                       array_to_string(
                           list_slice(ws, len(ws) - 29, len(ws)), ' ')
                FROM (SELECT doc_id,
                             regexp_extract_all(text, '\\S+') AS ws
                      FROM documents)
                WHERE doc_id % 13 = 0 AND len(ws) >= 61
                UNION ALL
                SELECT doc_id + 4000000,
                       array_to_string(list_slice(ws, 1, 60), ' ')
                FROM (SELECT doc_id,
                             regexp_extract_all(text, '\\S+') AS ws
                      FROM documents)
                WHERE doc_id % 11 = 0 AND len(ws) >= 61
            ),
            w AS (SELECT doc_id,
                         regexp_extract_all(lower(text), '\\S+') AS ws
                  FROM d),
            g AS (SELECT doc_id, i AS pos,
                         array_to_string(
                             list_slice(ws, i + 1, i + 50), ' ') AS gram
                  FROM w, UNNEST(range(0, greatest(len(ws) - 49, 0)))
                      AS t(i)),
            t AS (SELECT gram FROM g GROUP BY gram HAVING count(*) > 1),
            st AS (SELECT g.doc_id, g.pos FROM g JOIN t USING (gram)),
            cov AS (SELECT DISTINCT doc_id, pos + k AS j
                    FROM st, UNNEST(range(0, 50)) AS t2(k)),
            isl AS (SELECT doc_id, j,
                           j - row_number() OVER (PARTITION BY doc_id
                                                  ORDER BY j) AS grp
                    FROM cov)
            SELECT doc_id, CAST(min(j) AS BIGINT) AS span_start,
                   CAST(count(*) AS BIGINT) AS span_len
            FROM isl GROUP BY doc_id, grp
        """)
def _q_suffix_dup_spans(sf_dir: str):
    """EXACT any-length >= 50-token duplicated-substring spans (Lee
    et al. 2022 semantics) via `dedup.exact_dup_spans` — the fixed
    L=50 window-coverage form that is provably EQUAL to suffix-array
    coverage (see its docstring theorem), NOT the r4 5-gram +
    run-length proxy. The input plants both divergence cases: a
    CHIMERA doc (first-30 + last-30 words of a source doc — each
    block duplicated, no 50-token substring duplicated; the 5-gram
    proxy cuts its 60-word run, this operator correctly emits
    nothing) and a TRUE 60-word duplicated block (both agree). The
    oracle replays coverage with literal 50-word-gram string equality
    and gaps-and-islands interval assembly."""
    from pdf_extractor_ray.functions.dedup import exact_dup_spans

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def planted(batch: pa.Table) -> pa.Table:
        out_i, out_t = [], []
        for i, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = (t or "").split()
            if len(ws) < 61:
                continue
            if i % 13 == 0:  # chimera: blocks from two places
                out_i.append(i + 3_000_000)
                out_t.append(
                    " ".join(ws[:30]) + " " + " ".join(ws[-30:])
                )
            if i % 11 == 0:  # true long duplicate
                out_i.append(i + 4_000_000)
                out_t.append(" ".join(ws[:60]))
        return pa.table(
            {
                "doc_id": pa.array(out_i, pa.int64()),
                "text": pa.array(out_t, pa.string()),
            }
        )

    corpus = docs.union(docs.map_batches(planted, batch_format="pyarrow"))
    return exact_dup_spans(corpus, min_len=50)
