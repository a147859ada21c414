"""Gate queries for document quality scores, filters and selection."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _t


_DSIR_SCORE_SQL = """
            WITH wds AS (SELECT doc_id,
                                unnest(regexp_extract_all(lower(text),
                                                          '[a-z0-9]+')) AS word
                         FROM documents),
                 bx AS (SELECT doc_id,
                               CAST(md5_number_lower(word) % 256 AS BIGINT) AS bin
                        FROM wds),
                 bins AS (SELECT unnest(range(256)) AS bin),
                 tc AS (SELECT bin, count(*) AS c FROM bx
                        WHERE doc_id < 50 GROUP BY bin),
                 sc AS (SELECT bin, count(*) AS c FROM bx GROUP BY bin),
                 tot AS (SELECT (SELECT count(*) FROM bx WHERE doc_id < 50) AS tt,
                                (SELECT count(*) FROM bx) AS st),
                 wt AS (SELECT bins.bin,
                               CAST((CAST(COALESCE(tc.c, 0) + 1 AS HUGEINT)
                                       * (tot.st + 256) * 1000)
                                    // (CAST(COALESCE(sc.c, 0) + 1 AS HUGEINT)
                                       * (tot.tt + 256)) AS BIGINT) AS w
                        FROM bins
                        LEFT JOIN tc ON tc.bin = bins.bin
                        LEFT JOIN sc ON sc.bin = bins.bin
                        CROSS JOIN tot)
            SELECT d.doc_id,
                   CAST(COALESCE(sum(wt.w), 0) AS BIGINT) AS dsir_score
            FROM documents d
            LEFT JOIN bx ON bx.doc_id = d.doc_id
            LEFT JOIN wt ON wt.bin = bx.bin
            GROUP BY d.doc_id
"""


_LEXICON = ("zorblex", "quimvat", "drulpan", "xefgorb", "minthrax",
            "velqoru")


@register("lexicon_filter", oracle="""
            SELECT doc_id,
                   CAST(doc_id % 4 AS BIGINT) AS n_hits,
                   CAST(doc_id % 4 AS BIGINT) AS n_terms,
                   CAST(CASE WHEN doc_id % 4 >= 2 THEN 1 ELSE 0 END
                        AS BIGINT) AS flagged
            FROM documents
        """)
def _q_lexicon_filter(sf_dir: str):
    """Blocklist-lexicon gate: d%4 planted terms per doc (rotating
    through a 6-term synthetic lexicon, title-cased on odd docs to
    prove case-insensitivity), plus a substring decoy ``zorblexify``
    on every doc that word-boundary matching must not count. The
    oracle replays the plant arithmetic (n_hits = n_terms = d%4) — a
    green hash proves the compiled alternation matched every planted
    case variant and nothing else."""
    from pdf_extractor_ray.functions.quality import lexicon_hits

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def plant(batch: pa.Table) -> pa.Table:
        ids, texts = [], []
        for d, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            words = [_LEXICON[(d + i) % 6] for i in range(d % 4)]
            if d % 2:
                words = [w.title() for w in words]
            ids.append(d)
            texts.append(f"{t} {' '.join(words)} zorblexify".rstrip())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return lexicon_hits(
        docs.map_batches(plant, batch_format="pyarrow"), list(_LEXICON)
    )


# domain_curation: gopher verdict per doc (same CTEs as
# gopher_quality), rolled up per synthetic host in exact
# integer permille; blocked hosts keep zero docs.
@register("domain_curation", oracle="""
            WITH s AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '\\S+')) AS n_words,
                     length(regexp_replace(text, '\\s', '', 'g')) AS word_chars,
                     len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*')) AS n_alpha,
                     list_filter(string_split(text, chr(10)),
                                 x -> regexp_matches(x, '\\S')) AS lines,
                     len(list_distinct(regexp_extract_all(lower(text),
                         '\\b(?:the|be|to|of|and|that|have|with)\\b')))
                       AS n_stop
              FROM documents
            ),
            c AS (
              SELECT doc_id, n_words, n_stop,
                     CASE WHEN n_words > 0
                          THEN word_chars / CAST(n_words AS DOUBLE)
                          ELSE 0 END AS mean_len,
                     CASE WHEN n_words > 0
                          THEN n_alpha / CAST(n_words AS DOUBLE)
                          ELSE 0 END AS alpha_frac,
                     CASE WHEN len(lines) > 0
                          THEN 1.0 - len(list_distinct(lines))
                                       / CAST(len(lines) AS DOUBLE)
                          ELSE 0 END AS dup_frac
              FROM s
            ),
            v AS (
              SELECT doc_id,
                     (n_words BETWEEN 50 AND 100000)
                       AND mean_len BETWEEN 3.0 AND 10.0
                       AND alpha_frac >= 0.80
                       AND dup_frac <= 0.30
                       AND n_stop >= 1 AS passes
              FROM c
            ),
            h AS (
              SELECT 'h' || (doc_id % 40) AS host,
                     CAST(count(*) AS BIGINT) AS n_docs,
                     CAST(sum(CASE WHEN passes THEN 0 ELSE 1 END)
                          AS BIGINT) AS n_fail
              FROM v GROUP BY 1
            )
            SELECT host, n_docs, n_fail,
                   CAST(1000 * n_fail // n_docs AS BIGINT)
                       AS fail_permille,
                   (1000 * n_fail // n_docs) >= 500 AS blocked,
                   CAST(CASE WHEN (1000 * n_fail // n_docs) >= 500
                             THEN 0 ELSE n_docs - n_fail END
                        AS BIGINT) AS n_kept
            FROM h
        """)
def _q_domain_curation(sf_dir: str):
    """Host-level curation (RefinedWeb/C4-style domain filtering): the
    per-document Gopher gate rolled up per synthetic host
    ('h'||doc_id%40); hosts whose fail rate reaches 500 permille are
    blocked wholesale, surviving docs = individual passes on unblocked
    hosts. One coarse host exchange; the oracle replays the gopher CTE
    plus the host rollup in exact integer permille."""
    from pdf_extractor_ray.functions.quality import gopher_quality

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    gq = gopher_quality(docs, min_stopwords=1)

    def partial(batch: pa.Table) -> pa.Table:
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        passes = batch["passes"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {"host": [f"h{d % 40}" for d in dids], "p": passes}
        )
        g = df.groupby("host").agg(
            n_docs=("p", "size"), n_fail=("p", lambda s: int((~s).sum()))
        )
        g = g.reset_index()
        return pa.table(
            {
                "host": pa.array(g["host"], pa.string()),
                "n_docs": pa.array(g["n_docs"], pa.int64()),
                "n_fail": pa.array(g["n_fail"], pa.int64()),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        n = int(group["n_docs"].sum())
        f = int(group["n_fail"].sum())
        pm = 1000 * f // n
        blocked = pm >= 500
        return pd.DataFrame(
            {
                "host": [group["host"].iloc[0]],
                "n_docs": np.int64(n),
                "n_fail": np.int64(f),
                "fail_permille": np.int64(pm),
                "blocked": [bool(blocked)],
                "n_kept": np.int64(0 if blocked else n - f),
            }
        )

    return (
        gq.map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .map_groups(merge, batch_format="pandas")
    )


@register("quality_percentile", oracle="""
            -- RANK() calibration of the exact-integer Flesch score
            -- (same fre_m CTE as `readability`); pct_milli =
            -- (1000*(rnk-1)) // (N-1).
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\\S+')) AS word
                FROM documents),
            runs AS (
                SELECT doc_id,
                       regexp_replace(lower(word), '[aeiouy]+', 'V', 'g') AS r
                FROM w),
            syl AS (
                SELECT doc_id,
                       CAST(count(*) AS BIGINT) AS n_words,
                       CAST(sum(GREATEST(
                            length(r) - length(replace(r, 'V', '')), 1))
                            AS BIGINT) AS n_syll
                FROM runs GROUP BY doc_id),
            sents AS (
                SELECT doc_id,
                       GREATEST(len(regexp_extract_all(text, '[.!?]')), 1)
                           AS n_sents
                FROM documents),
            f AS (
                SELECT d.doc_id,
                       CAST(CASE WHEN s.n_words IS NULL THEN 0
                            ELSE 206835 - (1015 * s.n_words) // t.n_sents
                                 - (84600 * s.n_syll) // s.n_words
                            END AS BIGINT) AS fre_m
                FROM documents d
                LEFT JOIN syl s ON s.doc_id = d.doc_id
                JOIN sents t ON t.doc_id = d.doc_id),
            r AS (
                SELECT doc_id, fre_m,
                       CAST(rank() OVER (ORDER BY fre_m) AS BIGINT) AS rnk,
                       count(*) OVER () AS n
                FROM f)
            SELECT doc_id, fre_m, rnk,
                   CAST(CASE WHEN n > 1
                        THEN (1000 * (rnk - 1)) // (n - 1)
                        ELSE 0 END AS BIGINT) AS pct_milli
            FROM r
        """)
def _q_quality_percentile(sf_dir: str):
    """Exact percentile-rank calibration of the Flesch readability
    score without a global sort: score-histogram exchange + driver
    cumsum over the (range-bounded) distinct-score table + broadcast
    lookup. rnk = RANK() semantics (ties share the min rank)."""
    from pdf_extractor_ray.functions.quality import readability_scores
    from pdf_extractor_ray.functions.selection import percentile_rank

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    scored = readability_scores(docs).select_columns(["doc_id", "fre_m"])
    return percentile_rank(scored, score_col="fre_m", id_col="doc_id")


@register("compression_ratio")
def _q_compression_ratio(sf_dir: str):
    """zlib compression ratio per document (RefinedWeb-style template
    detector). Deterministic but not SQL-replayable (no DEFLATE in
    the oracle engine) -> rows-only gate; values pinned in pytest."""
    from pdf_extractor_ray.functions.quality import compression_stats

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return compression_stats(docs)


@register("c4_filters", oracle="""
            WITH m AS (
              SELECT doc_id,
                     replace(text, ' table ', '.' || chr(10))
                     || CASE WHEN doc_id % 97 = 0
                             THEN chr(10) || 'lorem ipsum dolor'
                             ELSE '' END
                     || CASE WHEN doc_id % 89 = 0
                             THEN chr(10) || 'if (x) { return; }'
                             ELSE '' END AS t
              FROM documents),
            l AS (SELECT doc_id, t, string_split(t, chr(10)) AS lines FROM m),
            k AS (SELECT doc_id, t, len(lines) AS n_lines,
                         list_filter(lines,
                           x -> regexp_matches(x, '[.!?"][ \\t\\r\\f\\x0b]*$')
                                AND len(regexp_extract_all(x,
                                        '[^ \\t\\r\\f\\x0b]+')) >= 5) AS kept
                  FROM l)
            SELECT doc_id, n_lines, len(kept) AS n_kept,
                   contains(lower(t), 'lorem ipsum') AS has_lorem,
                   contains(t, '{') AS has_brace,
                   len(kept) >= 3
                     AND NOT contains(lower(t), 'lorem ipsum')
                     AND NOT contains(t, '{') AS c4_keep,
                   md5(COALESCE(array_to_string(kept, chr(10)), '')) AS clean_fp
            FROM k
        """)
def _q_c4_filters(sf_dir: str):
    """C4 line-filter stats (Raffel et al. 2020 §2.2) over documents
    re-lined deterministically (every ' table ' becomes '.\\n' — the
    synthetic corpus has no punctuation, so this plants terminal-dot
    lines of naturally varying word counts), with 'lorem ipsum' /
    code-brace poison on deterministic doc_ids. Per-doc verdict + md5
    of the kept lines; the oracle replays every rule in SQL."""
    from pdf_extractor_ray.functions.webclean import c4_stats

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def reline(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = []
        for i, t in zip(ids, batch["text"].to_pylist()):
            t = (t or "").replace(" table ", ".\n")
            if i % 97 == 0:
                t += "\nlorem ipsum dolor"
            if i % 89 == 0:
                t += "\nif (x) { return; }"
            texts.append(t)
        return pa.table(
            {"doc_id": batch["doc_id"], "text": pa.array(texts, pa.string())}
        )

    return c4_stats(docs.map_batches(reline, batch_format="pyarrow"))


@register("quality_topk", bench=True, oracle="""
            WITH s AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text,
                            '[^ \\t\\n\\r\\f\\x0b]+')) AS BIGINT) AS score
                FROM documents),
            r AS (
                SELECT doc_id, score,
                       row_number() OVER (
                           ORDER BY score DESC,
                                    md5(CAST(doc_id AS VARCHAR)) ASC,
                                    doc_id ASC) AS rn
                FROM s)
            SELECT doc_id, score FROM r
            WHERE rn <= (SELECT CAST(count(*) // 5 AS BIGINT)
                         FROM documents)
        """)
def _q_quality_topk(sf_dir: str):
    """Quality pruning as exact global top-K selection
    (functions/selection.py): keep the best 20% of documents by an
    integer score (word count here) with the md5-salted tie-break —
    two streaming scans + a histogram, never a global sort. The
    oracle replays the identical rank as a row_number window."""
    from pdf_extractor_ray.functions.selection import select_top_k_global

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    n = docs.count()  # parquet metadata only

    def score(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "score": pc.cast(
                    pc.count_substring_regex(
                        batch["text"], r"[^ \t\n\r\f\v]+"
                    ),
                    pa.int64(),
                ),
            }
        )

    scored = docs.map_batches(score, batch_format="pyarrow")
    return select_top_k_global(scored, k=n // 5)


# CCNet terciles: bucket = (3 * (rank-1)) // n_lang with rank =
# row_number within the language ordered by (pseudo-ppl ASC,
# md5(id) ASC, id ASC) — the exact integer arithmetic the
# distributed histogram operator computes.
@register("ccnet_buckets", oracle="""
            WITH s AS (
                SELECT doc_id, lang,
                       1000000 // (CAST(len(regexp_extract_all(text,
                            '[^ \\t\\n\\r\\f\\x0b]+')) AS BIGINT) + 1)
                           AS score
                FROM documents),
            r AS (
                SELECT doc_id, lang, score,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY score ASC,
                                    md5(CAST(doc_id AS VARCHAR)) ASC,
                                    doc_id ASC) AS rn,
                       count(*) OVER (PARTITION BY lang) AS n
                FROM s)
            SELECT doc_id, lang, score,
                   CAST((3 * (rn - 1)) // n AS BIGINT) AS bucket
            FROM r
        """)
def _q_ccnet_buckets(sf_dir: str):
    """CCNet-style per-language head/middle/tail split (Wenzek et al.
    2020 §4.3) via the distributed exact per-group quantile operator
    (functions/selection.py::group_quantile_split): an integer
    pseudo-perplexity (1e6 // (word_count + 1) — monotone-decreasing in
    length, ascending = better, like LM perplexity) is terciled WITHIN
    each language by exact rank arithmetic, never a global sort. The
    oracle replays the identical rank with a partitioned row_number."""
    from pdf_extractor_ray.functions.selection import group_quantile_split

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )

    def score(batch: pa.Table) -> pa.Table:
        wc = pc.cast(
            pc.count_substring_regex(batch["text"], r"[^ \t\n\r\f\v]+"),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "score": pc.divide(
                    pa.scalar(1000000, pa.int64()),
                    pc.add(wc, pa.scalar(1, pa.int64())),
                ),
            }
        )

    # two-pass consumer (histogram + assign): persist the scored rows
    # so the text scan runs once, not per pass
    scored = docs.map_batches(score, batch_format="pyarrow").materialize()
    return group_quantile_split(
        scored, n_buckets=3, score_col="score",
        id_col="doc_id", group_col="lang",
    )


@register("token_budget", bench=True, oracle="""
            WITH s AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text,
                            '[^ \\t\\n\\r\\f\\x0b]+')) AS BIGINT) AS score,
                       CAST(len(regexp_extract_all(text,
                            '[A-Za-z0-9]+|[^A-Za-z0-9\\s]')) AS BIGINT) AS n_tokens
                FROM documents),
            r AS (
                SELECT doc_id, score, n_tokens,
                       sum(n_tokens) OVER (
                           ORDER BY score DESC,
                                    md5(CAST(doc_id AS VARCHAR)) ASC,
                                    doc_id ASC
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM s)
            SELECT doc_id, score, n_tokens FROM r WHERE cum <= 16000
        """)
def _q_token_budget(sf_dir: str):
    """Training-corpus selection under a TOKEN budget (the real
    currency): greedy prefix in rank order (word-count score DESC,
    md5-salted tie-break) while the running token total stays within
    budget. Same histogram machinery as quality_topk with per-cell
    token sums; the oracle replays the identical walk as a window
    cumsum."""
    from pdf_extractor_ray.functions.selection import select_token_budget

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "score": pc.cast(
                    pc.count_substring_regex(
                        batch["text"], r"[^ \t\n\r\f\v]+"
                    ),
                    pa.int64(),
                ),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(
                        batch["text"], r"[A-Za-z0-9]+|[^A-Za-z0-9\s]"
                    ),
                    pa.int64(),
                ),
            }
        )

    scored = docs.map_batches(score, batch_format="pyarrow")
    return select_token_budget(scored, budget=16_000)


@register("readability_by_lang", oracle="""
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\\S+')) AS word
                FROM documents),
            runs AS (
                SELECT doc_id,
                       regexp_replace(lower(word), '[aeiouy]+', 'V', 'g')
                           AS r
                FROM w),
            syl AS (
                SELECT doc_id, count(*) AS n_words,
                       sum(GREATEST(
                            length(r) - length(replace(r, 'V', '')), 1))
                           AS n_syll
                FROM runs GROUP BY doc_id),
            fre AS (
                SELECT d.lang,
                       CASE WHEN s.n_words IS NULL THEN 0
                            ELSE 206835
                                 - (1015 * s.n_words)
                                   // GREATEST(len(regexp_extract_all(
                                        d.text, '[.!?]')), 1)
                                 - (84600 * s.n_syll) // s.n_words
                       END AS fre_m
                FROM documents d
                LEFT JOIN syl s ON s.doc_id = d.doc_id)
            SELECT lang,
                   CAST(quantile_disc(fre_m, 0.5) * 100 AS BIGINT)
                       AS p50_c,
                   CAST(quantile_disc(fre_m, 0.9) * 100 AS BIGINT)
                       AS p90_c
            FROM fre GROUP BY lang
        """)
def _q_readability_by_lang(sf_dir: str):
    """Per-language readability profile: exact distributed p50/p90 of
    the Flesch milli-score via the histogram-quantile machinery (the
    exchange carries score cardinality, not row count) — the
    per-language quality-floor signal a multilingual curation run
    tunes against. Oracle = readability CTE + quantile_disc."""
    from pdf_extractor_ray.functions.quality import readability_scores
    from pdf_extractor_ray.functions.relational import exact_quantiles

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang", "text"]
    )
    scores = readability_scores(docs, keep_cols=("lang",))
    return exact_quantiles(
        scores, value_col="fre_m", group_col="lang", qs=(0.5, 0.9)
    )


@register("garbled_score", oracle="""
            WITH aug AS (
                SELECT doc_id,
                       text
                       || CASE WHEN doc_id % 5 = 0 THEN ' l0rem q3x7' ELSE '' END
                       || CASE WHEN doc_id % 7 = 0 THEN ' bcdfghjk' ELSE '' END
                       || CASE WHEN doc_id % 11 = 0 THEN chr(65533) || chr(65533) ELSE '' END
                       || CASE WHEN doc_id % 3 = 0 THEN ' café résumé' ELSE '' END
                       AS t
                FROM documents
            )
            SELECT doc_id,
                   len(regexp_extract_all(t, '\\S+'))::BIGINT AS n_words,
                   len(regexp_extract_all(lower(t),
                       '[a-z0-9]*([a-z][0-9]|[0-9][a-z])[a-z0-9]*'))::BIGINT AS n_mixed,
                   len(regexp_extract_all(lower(t),
                       '[bcdfghjklmnpqrstvwxz]{5,}'))::BIGINT AS n_consrun,
                   (length(t) - length(replace(t, chr(65533), '')))::BIGINT AS n_repl,
                   (length(t) - length(regexp_replace(t, '[^\\x00-\\x7f]', '', 'g')))::BIGINT
                       AS n_nonascii
            FROM aug
        """)
def _q_garbled_score(sf_dir: str):
    """Garbled-text / encoding-artifact counts (OCR confusions,
    consonant mash, U+FFFD, mojibake bursts). The corpus bodies are
    clean ASCII, so artifacts are injected deterministically from
    doc_id (the url_features golden-in-SQL pattern): the oracle builds
    the SAME augmented text with string concatenation and replays
    every count with RE2."""
    from pdf_extractor_ray.functions.quality import garbled_stats

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for d, t in zip(ids, texts):
            t = t or ""
            if d % 5 == 0:
                t += " l0rem q3x7"
            if d % 7 == 0:
                t += " bcdfghjk"
            if d % 11 == 0:
                t += "��"
            if d % 3 == 0:
                t += " café résumé"
            out.append(t)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(out, pa.string()),
            }
        )

    return garbled_stats(docs.map_batches(augment, batch_format="pyarrow"))


@register("readability", oracle="""
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\\S+')) AS word
                FROM documents),
            runs AS (
                SELECT doc_id,
                       regexp_replace(lower(word), '[aeiouy]+', 'V', 'g')
                           AS r
                FROM w),
            syl AS (
                SELECT doc_id,
                       CAST(count(*) AS BIGINT) AS n_words,
                       CAST(sum(GREATEST(
                            length(r) - length(replace(r, 'V', '')), 1))
                            AS BIGINT) AS n_syll
                FROM runs GROUP BY doc_id),
            sents AS (
                SELECT doc_id,
                       GREATEST(len(regexp_extract_all(text, '[.!?]')), 1)
                           AS n_sents
                FROM documents)
            SELECT d.doc_id,
                   CAST(coalesce(s.n_words, 0) AS BIGINT) AS n_words,
                   CAST(CASE WHEN s.n_words IS NULL THEN 0
                             ELSE t.n_sents END AS BIGINT) AS n_sents,
                   CAST(coalesce(s.n_syll, 0) AS BIGINT) AS n_syll,
                   CAST(CASE WHEN s.n_words IS NULL THEN 0
                        ELSE 206835 - (1015 * s.n_words) // t.n_sents
                             - (84600 * s.n_syll) // s.n_words
                        END AS BIGINT) AS fre_m
            FROM documents d
            LEFT JOIN syl s ON s.doc_id = d.doc_id
            JOIN sents t ON t.doc_id = d.doc_id
        """)
def _q_readability(sf_dir: str):
    """Flesch Reading Ease in exact milli-units over the real document
    bodies — integer floor arithmetic end to end, so the oracle
    replays words/sentences/syllables/score per document."""
    from pdf_extractor_ray.functions.quality import readability_scores

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return readability_scores(docs)


@register("lm_quality")
def _q_lm_quality(sf_dir: str):
    """CCNet-style LM quality tier: bits-per-char under a char-trigram
    LM trained on a bounded reference sample, scored by a warmed actor
    pool (model deserialized once per worker). Not SQL-expressible
    (model state); anchored by value-level pytest instead
    (determinism, clean-vs-gibberish separation)."""
    from pdf_extractor_ray.functions.lm import lm_score

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    train = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return lm_score(docs, train, train_rows=256)


# Repetition filters: n-gram char weight = count * (chars of
# the joined n-gram minus its n-1 separators); top = heaviest
# repeated n-gram, dup = all repeated n-grams (overlap-naive).
@register("repetition_stats", oracle="""
            WITH w AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS ws,
                     length(regexp_replace(lower(text), '[^a-z0-9]', '', 'g'))
                       AS total
              FROM documents
            ),
            g2 AS (
              SELECT doc_id, ws[i] || ' ' || ws[i+1] AS ngram
              FROM w, UNNEST(range(1, len(ws))) AS t(i)
            ),
            c2 AS (
              SELECT doc_id,
                     max(CASE WHEN cnt >= 2
                         THEN cnt * (length(ngram) - 1) ELSE 0 END) AS v
              FROM (SELECT doc_id, ngram, count(*) AS cnt
                    FROM g2 GROUP BY doc_id, ngram)
              GROUP BY doc_id
            ),
            g3 AS (
              SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS ngram
              FROM w, UNNEST(range(1, len(ws) - 1)) AS t(i)
            ),
            c3 AS (
              SELECT doc_id,
                     max(CASE WHEN cnt >= 2
                         THEN cnt * (length(ngram) - 2) ELSE 0 END) AS v
              FROM (SELECT doc_id, ngram, count(*) AS cnt
                    FROM g3 GROUP BY doc_id, ngram)
              GROUP BY doc_id
            ),
            g5 AS (
              SELECT doc_id,
                     ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' '
                       || ws[i+3] || ' ' || ws[i+4] AS ngram
              FROM w, UNNEST(range(1, len(ws) - 3)) AS t(i)
            ),
            c5 AS (
              SELECT doc_id,
                     sum(CASE WHEN cnt >= 2
                         THEN cnt * (length(ngram) - 4) ELSE 0 END) AS v
              FROM (SELECT doc_id, ngram, count(*) AS cnt
                    FROM g5 GROUP BY doc_id, ngram)
              GROUP BY doc_id
            ),
            f AS (
              SELECT w.doc_id,
                     CASE WHEN total > 0
                          THEN coalesce(c2.v, 0) / CAST(total AS DOUBLE)
                          ELSE 0 END AS top2,
                     CASE WHEN total > 0
                          THEN coalesce(c3.v, 0) / CAST(total AS DOUBLE)
                          ELSE 0 END AS top3,
                     CASE WHEN total > 0
                          THEN coalesce(c5.v, 0) / CAST(total AS DOUBLE)
                          ELSE 0 END AS dup5
              FROM w
              LEFT JOIN c2 ON w.doc_id = c2.doc_id
              LEFT JOIN c3 ON w.doc_id = c3.doc_id
              LEFT JOIN c5 ON w.doc_id = c5.doc_id
            )
            SELECT doc_id,
                   CAST(floor(top2 * 100 + 0.5) AS BIGINT) AS top2_frac_c,
                   CAST(floor(top3 * 100 + 0.5) AS BIGINT) AS top3_frac_c,
                   CAST(floor(dup5 * 100 + 0.5) AS BIGINT) AS dup5_frac_c,
                   top2 <= 0.20 AND top3 <= 0.18 AND dup5 <= 0.15
                       AS rep_passes
            FROM f
        """)
def _q_repetition_stats(sf_dir: str):
    """Gopher §A1.2 repetition filters: top-2/3-gram and duplicated
    5-gram character fractions + verdict, value-checked per document."""
    from pdf_extractor_ray.functions.quality import repetition_stats

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return repetition_stats(docs)


@register("gopher_quality", oracle="""
            WITH s AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '\\S+')) AS n_words,
                     length(regexp_replace(text, '\\s', '', 'g')) AS word_chars,
                     len(regexp_extract_all(text, '\\S*[A-Za-z]\\S*')) AS n_alpha,
                     list_filter(string_split(text, chr(10)),
                                 x -> regexp_matches(x, '\\S')) AS lines,
                     len(list_distinct(regexp_extract_all(lower(text),
                         '\\b(?:the|be|to|of|and|that|have|with)\\b')))
                       AS n_stop
              FROM documents
            ),
            c AS (
              SELECT doc_id, n_words, n_stop,
                     CASE WHEN n_words > 0
                          THEN word_chars / CAST(n_words AS DOUBLE)
                          ELSE 0 END AS mean_len,
                     CASE WHEN n_words > 0
                          THEN n_alpha / CAST(n_words AS DOUBLE)
                          ELSE 0 END AS alpha_frac,
                     CASE WHEN len(lines) > 0
                          THEN 1.0 - len(list_distinct(lines))
                                       / CAST(len(lines) AS DOUBLE)
                          ELSE 0 END AS dup_frac
              FROM s
            )
            SELECT doc_id,
                   CAST(n_words AS BIGINT) AS n_words,
                   CAST(floor(mean_len * 100 + 0.5) AS BIGINT)
                       AS mean_word_len_c,
                   CAST(floor(alpha_frac * 100 + 0.5) AS BIGINT)
                       AS alpha_frac_c,
                   CAST(floor(dup_frac * 100 + 0.5) AS BIGINT)
                       AS dup_line_frac_c,
                   CAST(n_stop AS BIGINT) AS n_stopwords,
                   (n_words BETWEEN 50 AND 100000)
                     AND mean_len BETWEEN 3.0 AND 10.0
                     AND alpha_frac >= 0.80
                     AND dup_frac <= 0.30
                     AND n_stop >= 1 AS passes
            FROM c
        """)
def _q_gopher_quality(sf_dir: str):
    """Gopher rule-based quality gate (Rae et al. 2021 §A1.1 subset):
    per-document surface statistics + pass/fail verdict, value-checked
    per document by the oracle."""
    from pdf_extractor_ray.functions.quality import gopher_quality

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    # min_stopwords=1: the synthetic vocabulary contains exactly one
    # English stop-word ('the'), so the published floor of 2 would fail
    # every document and the verdict column would carry no signal
    return gopher_quality(docs, min_stopwords=1)


@register("dsir_score", oracle=_DSIR_SCORE_SQL)
def _q_dsir_score(sf_dir: str):
    """DSIR-shaped data-selection importance scoring: hashed unigram
    features (md5_number_lower % 256), Laplace-smoothed target/source
    probability ratios kept as exact integer permille, per-doc score =
    occurrence-sum of bin weights (functions/importance.py). Target
    sample = docs 0..49. Bounded driver state (two 256-long count
    vectors + the weight table); scoring is shuffle-free. The SQL
    oracle replays counts, weights (HUGEINT floor arithmetic) and
    scores bit for bit."""
    from pdf_extractor_ray.functions.importance import dsir_importance

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    target = docs.filter(
        expr="doc_id < 50"
    )
    return dsir_importance(docs, target, n_bins=256)


@register("dsir_select", bench=True, oracle=f"""
            WITH s AS ({_DSIR_SCORE_SQL}),
                 r AS (SELECT doc_id, dsir_score,
                              row_number() OVER (
                                  ORDER BY dsir_score DESC,
                                           md5(CAST(doc_id AS VARCHAR)) ASC,
                                           doc_id ASC) AS rn
                       FROM s)
            SELECT doc_id, dsir_score FROM r WHERE rn <= 100
        """)
def _q_dsir_select(sf_dir: str):
    """DSIR selection end to end: importance scores (dsir_score) fed
    into the exact global top-K selector (histogram + one boundary
    cell, no global sort) — the 'importance resampling' step that
    keeps the most target-like 100 documents. Oracle replays the
    identical (score DESC, md5-salt ASC, id ASC) rank window over the
    same score CTE."""
    from pdf_extractor_ray.functions.selection import select_top_k_global

    scores = _q_dsir_score(sf_dir)
    return select_top_k_global(
        scores.materialize(), 100, score_col="dsir_score", id_col="doc_id"
    )
