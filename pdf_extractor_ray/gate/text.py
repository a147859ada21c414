"""Gate queries for text statistics, retrieval and keyword operators."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Sum

from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _load_query_vectors, _t


def _bm25_ndcg_sql() -> str:
    from pdf_extractor_ray.functions.ireval import discount_milli

    disc_rows = ", ".join(
        f"({i + 1}, {d})" for i, d in enumerate(discount_milli(10))
    )
    return f"""
        WITH w AS (SELECT doc_id,
                          unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                              AS term
                   FROM documents),
        dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl
               FROM w GROUP BY doc_id),
        st AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                      (SELECT sum(dl) FROM dl) AS total_len),
        tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
               FROM w WHERE term IN ('hash', 'join', 'stream')
               GROUP BY doc_id, term),
        dfq AS (SELECT term, CAST(count(*) AS DOUBLE) AS df
                FROM tf GROUP BY term),
        sc AS (SELECT tf.doc_id,
                      sum(ln((st.n_docs - dfq.df + 0.5) / (dfq.df + 0.5)
                             + 1.0)
                          * tf.tf * (1.2 + 1.0)
                          / (tf.tf + 1.2 * (1.0 - 0.75
                              + 0.75 * dl.dl
                                / (st.total_len / st.n_docs)))) AS score
               FROM tf JOIN dfq USING (term) JOIN dl USING (doc_id)
                    CROSS JOIN st
               GROUP BY tf.doc_id),
        run AS (SELECT doc_id,
                       row_number() OVER (
                           ORDER BY floor(score * 1000 + 0.5) DESC,
                                    doc_id) AS rnk
                FROM sc ORDER BY rnk LIMIT 10),
        g AS (SELECT doc_id,
                     LEAST(3, len(list_filter(
                         regexp_extract_all(lower(text), '[a-z0-9]+'),
                         x -> x = 'hash'))) AS gain
              FROM documents),
        disc(rnk, dm) AS (VALUES {disc_rows}),
        dcg AS (SELECT COALESCE(sum(g.gain * disc.dm), 0) AS v
                FROM run JOIN disc USING (rnk)
                LEFT JOIN g USING (doc_id)),
        ideal AS (SELECT gain,
                         row_number() OVER (ORDER BY gain DESC,
                                            doc_id) AS rnk
                  FROM g ORDER BY rnk LIMIT 10),
        idcg AS (SELECT COALESCE(sum(ideal.gain * disc.dm), 0) AS v
                 FROM ideal JOIN disc USING (rnk))
        SELECT CAST(dcg.v AS BIGINT) AS dcg_milli,
               CAST(idcg.v AS BIGINT) AS idcg_milli,
               CAST(CASE WHEN idcg.v > 0
                         THEN 1000000 * dcg.v // idcg.v
                         ELSE 0 END AS BIGINT) AS ndcg_pm
        FROM dcg, idcg
    """


_STATS_EXPR = """
    len(regexp_extract_all(text, '\\S+')) AS n_words,
    len(regexp_extract_all(text, '[A-Za-z0-9]+|[^A-Za-z0-9\\s]')) AS n_tokens,
    len(regexp_extract_all(text, '[^A-Za-z0-9\\s]')) AS n_punct,
    len(regexp_extract_all(lower(text), '\\b(?:the|and|of|to|in|is|that|for)\\b')) AS stop_en,
    len(regexp_extract_all(lower(text), '\\b(?:le|la|les|de|des|et|est|dans)\\b')) AS stop_fr,
    len(regexp_extract_all(lower(text), '\\b(?:der|die|das|und|ist|mit|von|für)\\b')) AS stop_de
"""


_PRED_LANG_EXPR = """
    CASE WHEN greatest(stop_en, stop_fr, stop_de) = 0 THEN 'und'
         WHEN stop_en >= stop_fr AND stop_en >= stop_de THEN 'en'
         WHEN stop_fr >= stop_de THEN 'fr'
         ELSE 'de' END AS pred_lang
"""


_INVERTED_INDEX_SQL = """
            WITH p AS (
              SELECT DISTINCT word, doc_id FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                FROM documents)),
            a AS (
              SELECT word, CAST(count(*) AS BIGINT) AS df,
                     md5(string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id))
                         AS postings_fp
              FROM p GROUP BY word)
            SELECT word, df, postings_fp FROM a WHERE df >= 5
        """


_WORD_TOPK_SQL = """
            WITH w AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                       FROM documents)
            SELECT word, count(*) AS n FROM w
            GROUP BY word ORDER BY n DESC, word LIMIT 20
        """


def _stats_ds(sf_dir: str) -> ray.data.Dataset:
    from pdf_extractor_ray.functions.textstats import doc_stats_batch

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    return docs.map_batches(doc_stats_batch, batch_format="pyarrow")


@register("text_stats", bench=True, oracle=f"""
            WITH s AS (SELECT lang, {_STATS_EXPR} FROM documents)
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_words) AS BIGINT) AS sum_words,
                   CAST(sum(n_tokens) AS BIGINT) AS sum_tokens,
                   CAST(sum(n_punct) AS BIGINT) AS sum_punct
            FROM s GROUP BY lang
        """)
def _q_text_stats(sf_dir: str):
    return _stats_ds(sf_dir).groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_words", alias_name="sum_words"),
        Sum("n_tokens", alias_name="sum_tokens"),
        Sum("n_punct", alias_name="sum_punct"),
    )


@register("lang_id", oracle=f"""
            WITH s AS (SELECT lang, {_STATS_EXPR} FROM documents),
                 p AS (SELECT lang, {_PRED_LANG_EXPR} FROM s)
            SELECT lang, pred_lang, count(*) AS n_docs
            FROM p GROUP BY lang, pred_lang
        """)
def _q_lang_id(sf_dir: str):
    return (
        _stats_ds(sf_dir)
        .groupby(["lang", "pred_lang"])
        .aggregate(Count(alias_name="n_docs"))
    )


@register("quality_hist", oracle="""
            WITH s AS (SELECT lang,
                              len(regexp_extract_all(text, '\\S+')) AS n_words
                       FROM documents),
                 c AS (SELECT lang,
                              CASE WHEN n_words >= 200 THEN 'long'
                                   WHEN n_words >= 30 THEN 'ok'
                                   ELSE 'short' END AS quality_class
                       FROM s)
            SELECT lang, quality_class, count(*) AS n_docs
            FROM c GROUP BY lang, quality_class
        """)
def _q_quality_hist(sf_dir: str):
    return (
        _stats_ds(sf_dir)
        .groupby(["lang", "quality_class"])
        .aggregate(Count(alias_name="n_docs"))
    )


@register("fingerprint", oracle="""
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fingerprint
            FROM documents
        """)
def _q_fingerprint(sf_dir: str):
    return _stats_ds(sf_dir).select_columns(["doc_id", "fingerprint"])


@register("inverted_index", oracle=_INVERTED_INDEX_SQL)
def _q_inverted_index(sf_dir: str):
    """Sharded inverted-index build: per term (df >= 5), document
    frequency + md5 fingerprint of the sorted postings list."""
    from pdf_extractor_ray.functions.textstats import inverted_index_summary

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return inverted_index_summary(docs, min_df=5)


@register("index_sink", oracle=_INVERTED_INDEX_SQL)
def _q_index_sink(sf_dir: str):
    """Inverted-index shards persisted to a partitioned parquet store
    (one directory per word-hash shard — the resumable layout a
    postings store needs) and read back: the round trip must preserve
    every (term, df, postings_fp) exactly, which the inverted_index
    oracle then checks value-for-value."""
    import shutil
    import zlib

    from pdf_extractor_ray.functions.textstats import inverted_index_summary

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    idx = inverted_index_summary(docs, min_df=5)

    def add_shard(batch: pa.Table) -> pa.Table:
        shards = [
            zlib.crc32(w.encode()) % 8 for w in batch["word"].to_pylist()
        ]
        return batch.append_column("shard", pa.array(shards, pa.int64()))

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/graft_index_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    idx.map_batches(add_shard, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["shard"]
    )
    back = ray.data.read_parquet(out_dir)
    return back.select_columns(["word", "df", "postings_fp"])


@register("rake_keywords", oracle="""
            -- Corpus-level RAKE: segments split at punctuation, runs
            -- split at the fixed 30-word stopword alternation (the
            -- operator's contract — see keywords.RAKE_STOPWORDS);
            -- word score = (1000*deg)//freq, phrase score = sum of
            -- member word scores; top-20 by (score DESC, phrase ASC).
            WITH seg AS (
                SELECT unnest(string_split_regex(lower(coalesce(text, '')),
                                                 '[^a-z0-9\\s]+')) AS seg
                FROM documents
            ),
            ph0 AS (
                SELECT unnest(string_split(
                    regexp_replace(seg,
                        '\\b(the|of|and|to|a|in|that|is|was|for|on|with|as|by|at|it|be|this|are|or|an|from|not|but|have|has|had|they|you|we)\\b',
                        '|', 'g'), '|')) AS p
                FROM seg
            ),
            ph AS (
                SELECT array_to_string(regexp_extract_all(p, '[a-z0-9]+'), ' ') AS phrase
                FROM ph0
            ),
            pc AS (SELECT phrase, count(*) AS n FROM ph WHERE phrase <> '' GROUP BY phrase),
            pw AS (
                SELECT phrase, n,
                       len(regexp_extract_all(phrase, '[a-z0-9]+')) AS plen,
                       unnest(regexp_extract_all(phrase, '[a-z0-9]+')) AS w
                FROM pc
            ),
            ws AS (SELECT w, sum(n) AS freq, sum(n * plen) AS deg FROM pw GROUP BY w),
            wsc AS (SELECT w, (1000 * deg) // freq AS sc FROM ws),
            psc AS (
                SELECT p.phrase, p.n, CAST(sum(wsc.sc) AS BIGINT) AS score_milli
                FROM pw p JOIN wsc ON wsc.w = p.w GROUP BY p.phrase, p.n
            )
            SELECT phrase, CAST(n AS BIGINT) AS n, score_milli
            FROM psc WHERE n >= 2
            ORDER BY score_milli DESC, phrase ASC LIMIT 20
        """)
def _q_rake_keywords(sf_dir: str):
    """Corpus-level RAKE keyphrases (Rose et al. 2010): exact integer
    degree/frequency scores over the aggregated phrase vocabulary;
    the token stream never crosses the exchange."""
    from pdf_extractor_ray.functions.keywords import rake_keywords

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return rake_keywords(docs, k=20, min_count=2)


@register("ngram_novelty", oracle="""
            -- Per-doc novelty: distinct word 3-grams whose corpus-wide
            -- first owner (min doc_id) is this doc. Docs with < 3
            -- words emit no row (mirrors the operator).
            WITH w AS (
                SELECT doc_id,
                       regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ws
                FROM documents
            ),
            g AS (
                SELECT doc_id, unnest(generate_series(1, len(ws) - 2)) AS j, ws
                FROM w WHERE len(ws) >= 3
            ),
            grams AS (
                SELECT DISTINCT doc_id, array_to_string(ws[j : j + 2], ' ') AS gram
                FROM g
            ),
            firsts AS (SELECT gram, min(doc_id) AS first_doc FROM grams GROUP BY gram)
            SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(sum(CASE WHEN g.doc_id = f.first_doc THEN 1 ELSE 0 END) AS BIGINT) AS n_novel
            FROM grams g JOIN firsts f USING (gram) GROUP BY g.doc_id
        """)
def _q_ngram_novelty(sf_dir: str):
    """Per-document novelty vs all earlier docs (min-doc-id first
    ownership of distinct 3-grams) — the 'keep first copy' curation
    signal, one pair-stream exchange with in-bucket reduction."""
    from pdf_extractor_ray.functions.keywords import ngram_novelty

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return ngram_novelty(docs, n=3)


@register("bigram_familiarity", bench=True, oracle="""
            -- Integer n-gram-LM familiarity: floor(log2(count)) is
            -- the bit length minus one, replayed float-free via
            -- printf('%b'). Docs with < 2 words emit no row.
            WITH w AS (
                SELECT doc_id,
                       regexp_extract_all(lower(coalesce(text, '')),
                                          '[a-z0-9]+') AS ws
                FROM documents
            ),
            g AS (
                SELECT doc_id, ws[i] || ' ' || ws[i+1] AS bg
                FROM (SELECT doc_id, ws,
                             unnest(generate_series(1, len(ws) - 1)) AS i
                      FROM w WHERE len(ws) >= 2)
            ),
            c AS (SELECT bg, count(*) AS n FROM g GROUP BY bg),
            s AS (
                SELECT g.doc_id,
                       count(*) AS n_bigrams,
                       sum(length(printf('%b', c.n)) - 1) AS fam_sum
                FROM g JOIN c USING (bg) GROUP BY g.doc_id
            )
            SELECT doc_id,
                   CAST(n_bigrams AS BIGINT) AS n_bigrams,
                   CAST(fam_sum AS BIGINT) AS fam_sum,
                   CAST((1000 * fam_sum) // n_bigrams AS BIGINT) AS fam_milli
            FROM s
        """)
def _q_bigram_familiarity(sf_dir: str):
    """Integer-exact n-gram-LM familiarity gate (KenLM-perplexity
    cousin): per-doc sum of floor(log2(corpus bigram count)) over the
    doc's bigram tokens, in milli-units. Count pass + big-big
    bigram-bucket cogroup with per-(bucket, doc) pre-aggregation."""
    from pdf_extractor_ray.functions.ngram_lm import bigram_familiarity

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return bigram_familiarity(docs)


@register("phrase_search", oracle="""
            -- Exact phrase occurrences of 'value table' over the
            -- [a-z0-9]+ word stream; docs with zero matches emit no
            -- row (mirrors the positional intersection).
            WITH w AS (
                SELECT doc_id,
                       regexp_extract_all(lower(coalesce(text, '')),
                                          '[a-z0-9]+') AS ws
                FROM documents
            ),
            g AS (
                SELECT doc_id,
                       CASE WHEN ws[i] = 'value' AND ws[i+1] = 'table'
                            THEN 1 ELSE 0 END AS hit
                FROM (SELECT doc_id, ws,
                             unnest(generate_series(1, len(ws) - 1)) AS i
                      FROM w WHERE len(ws) >= 2)
            )
            SELECT doc_id, CAST(sum(hit) AS BIGINT) AS n_matches
            FROM g GROUP BY doc_id HAVING sum(hit) > 0
        """)
def _q_phrase_search(sf_dir: str):
    """Positional-postings phrase intersection for 'value table':
    postings emitted only for the phrase's words, one doc-bucket
    exchange, per-doc anchor intersection pos(w0) & (pos(w1)-1)."""
    from pdf_extractor_ray.functions.ngram_lm import phrase_count

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return phrase_count(docs, phrase="value table")


@register("length_outliers", oracle="""
            -- med2 = 2*median, mad4 = 4*MAD (doubled so even-count
            -- medians stay integral); outlier test 2*dev2 > 3*mad4
            -- is the integer form of |v - med| > 3*MAD.
            WITH m AS (
                SELECT source, CAST(2 * median(n_chars) AS BIGINT) AS med2,
                       count(*) AS n_rows
                FROM documents GROUP BY source
            ),
            d AS (
                SELECT doc.source, abs(2 * doc.n_chars - m.med2) AS dev2
                FROM documents doc JOIN m ON doc.source = m.source
            ),
            md AS (
                SELECT source, CAST(2 * median(dev2) AS BIGINT) AS mad4
                FROM d GROUP BY source
            )
            SELECT m.source, CAST(m.n_rows AS BIGINT) AS n_rows,
                   m.med2, md.mad4,
                   CAST((SELECT count(*) FROM d
                         WHERE d.source = m.source
                           AND 2 * d.dev2 > 3 * md.mad4) AS BIGINT)
                       AS n_outliers
            FROM m JOIN md ON m.source = md.source
        """)
def _q_length_outliers(sf_dir: str):
    """Per-source robust length-outlier gate: rows with
    |n_chars - median| > 3*MAD, counted per source. One wide step (a
    per-(source, n_chars) count histogram); median, MAD and the outlier
    count all derive from the histogram — carried doubled (med2 = 2*med,
    mad4 = 4*MAD) so every output is an exact int64."""
    from pdf_extractor_ray.functions.relational import mad_outliers

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "n_chars"]
    )
    return mad_outliers(docs, value_col="n_chars", group_col="source", k=3)


@register("kwic", oracle="""
            SELECT doc_id,
                   CAST(strpos(text, 'data') AS BIGINT) AS pos,
                   substr(text,
                          greatest(strpos(text, 'data') - 20, 1),
                          (strpos(text, 'data')
                           - greatest(strpos(text, 'data') - 20, 1))
                          + length('data') + 20) AS snippet
            FROM documents
            WHERE strpos(text, 'data') > 0
        """)
def _q_kwic(sf_dir: str):
    """Keyword-in-context concordance for 'data': 1-based character
    position of the first occurrence plus a +/-20-codepoint snippet.
    Shuffle-free and fully vectorized (split_pattern + negative-start
    utf8_slice_codeunits handle per-row-varying bounds without Python
    loops); codepoint semantics match SQL strpos/substr exactly."""
    from pdf_extractor_ray.functions.textstats import kwic_snippets

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return kwic_snippets(docs, term="data", context=20)


@register("corr_moments", oracle="""
            WITH v AS (
                SELECT source,
                       CAST(n_chars AS BIGINT) AS x,
                       CAST(length(text) - length(replace(text, ' ', ''))
                            + 1 AS BIGINT) AS y
                FROM documents
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sum_x,
                   CAST(sum(y) AS BIGINT) AS sum_y,
                   CAST(sum(x * x) AS BIGINT) AS sum_xx,
                   CAST(sum(y * y) AS BIGINT) AS sum_yy,
                   CAST(sum(x * y) AS BIGINT) AS sum_xy
            FROM v GROUP BY source
        """)
def _q_corr_moments(sf_dir: str):
    """Exact per-source second-moment statistics of the chars-vs-words
    relationship (n, sum_x, sum_y, sum_xx, sum_yy, sum_xy, all int64)
    — everything Pearson r / an OLS slope needs, with zero float in
    the distributed fold. Per-batch partials, then a source-cardinality
    groupby; no corpus-sized exchange."""
    from pdf_extractor_ray.functions.corpus_stats import corr_moments

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "n_chars", "text"]
    )
    return corr_moments(docs)


@register("ks_drift", oracle="""
            WITH c AS (
                SELECT n_chars AS value,
                       CASE WHEN source = 'src3' THEN 1 ELSE 0 END AS is_b,
                       count(*) AS n
                FROM documents GROUP BY 1, 2
            ),
            tot AS (
                SELECT sum(CASE WHEN is_b = 0 THEN n ELSE 0 END) AS n_a,
                       sum(CASE WHEN is_b = 1 THEN n ELSE 0 END) AS n_b
                FROM c
            ),
            grid AS (SELECT DISTINCT value FROM c),
            cum AS (
                SELECT g.value,
                       sum(CASE WHEN c.is_b = 0 THEN c.n ELSE 0 END) AS ca,
                       sum(CASE WHEN c.is_b = 1 THEN c.n ELSE 0 END) AS cb
                FROM grid g JOIN c ON c.value <= g.value
                GROUP BY g.value
            )
            SELECT CAST(tot.n_a AS BIGINT) AS n_a,
                   CAST(tot.n_b AS BIGINT) AS n_b,
                   CAST(max(abs(cum.ca * tot.n_b - cum.cb * tot.n_a))
                        AS BIGINT) AS ks_num
            FROM cum, tot GROUP BY tot.n_a, tot.n_b
        """)
def _q_ks_drift(sf_dir: str):
    """Two-sample KS distance between src3's n_chars distribution and
    the rest of the corpus, integer-exact (ks_num = max |cdf_a*n_b -
    cdf_b*n_a|; D = ks_num/(n_a*n_b)). One value-bucket exchange of
    per-value count partials; the driver folds one row per distinct
    n_chars value."""
    from pdf_extractor_ray.functions.corpus_stats import ks_statistic

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "n_chars"]
    )
    return ks_statistic(docs, side_col="source", side_b_value="src3")


@register("rollup", oracle="""
            SELECT coalesce(source, '(all)') AS source,
                   coalesce(lang, '(all)') AS lang,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(n_chars) AS BIGINT) AS sum_value
            FROM documents
            GROUP BY ROLLUP(source, lang)
        """)
def _q_rollup(sf_dir: str):
    """GROUP BY ROLLUP (source, lang): finest cells + per-source
    subtotals + grand total, one corpus pass — subtotal levels derive
    from the finest aggregate on the driver (bounded by the key-domain
    product), never a second shuffle per level."""
    from pdf_extractor_ray.functions.relational import rollup_counts

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "lang", "n_chars"]
    )
    return rollup_counts(docs)


@register("cube", oracle="""
            SELECT coalesce(source, '(all)') AS source,
                   coalesce(lang, '(all)') AS lang,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(n_chars) AS BIGINT) AS sum_value
            FROM documents
            GROUP BY CUBE(source, lang)
        """)
def _q_cube(sf_dir: str):
    """GROUP BY CUBE (source, lang): the full 2^2 subtotal lattice
    from ONE corpus pass — every level derived from the finest
    aggregate on the driver, never a shuffle per lattice level."""
    from pdf_extractor_ray.functions.relational import cube_counts

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "lang", "n_chars"]
    )
    return cube_counts(docs)


@register("vocab_drift", oracle="""
            -- Top-20 words by |count(src3) - count(rest)|; ties by
            -- word ASC (total order -> deterministic LIMIT boundary).
            WITH w AS (
                SELECT CASE WHEN source = 'src3' THEN 1 ELSE 0 END AS b,
                       unnest(regexp_extract_all(lower(coalesce(text, '')),
                                                 '[a-z0-9]+')) AS word
                FROM documents
            ),
            c AS (
                SELECT word,
                       CAST(sum(1 - b) AS BIGINT) AS n_a,
                       CAST(sum(b) AS BIGINT) AS n_b
                FROM w GROUP BY word
            )
            SELECT word, n_a, n_b, CAST(abs(n_a - n_b) AS BIGINT) AS delta
            FROM c
            ORDER BY delta DESC, word ASC
            LIMIT 20
        """)
def _q_vocab_drift(sf_dir: str):
    """Crawl-monitoring vocabulary drift: top-20 words by absolute
    count delta between source 'src3' and the rest of the corpus —
    per-batch Counter partials, one word-bucket exchange, top-k over
    the zipf-small vocab table."""
    from pdf_extractor_ray.functions.corpus_stats import vocab_drift

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["text", "source"]
    )
    return vocab_drift(docs, side_col="source", side_b_value="src3", k=20)


@register("zipf_histogram", oracle="""
            -- floor(log2(count)) buckets over the word-frequency
            -- table, float-free via printf('%b').
            WITH w AS (
                SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                                 '[a-z0-9]+')) AS word
                FROM documents
            ),
            c AS (SELECT word, count(*) AS n FROM w GROUP BY word)
            SELECT CAST(length(printf('%b', n)) - 1 AS BIGINT) AS lg_count,
                   CAST(count(*) AS BIGINT) AS n_words,
                   CAST(sum(n) AS BIGINT) AS n_occurrences
            FROM c GROUP BY lg_count
        """)
def _q_zipf_histogram(sf_dir: str):
    """Word-frequency log-log histogram (Zipf curve) in exact
    floor-log2 buckets — the corpus-health diagnostic; <= ~40 rows
    out regardless of corpus size."""
    from pdf_extractor_ray.functions.corpus_stats import zipf_histogram

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return zipf_histogram(docs)


@register("normalize_text", oracle="""
            WITH m AS (SELECT doc_id,
                              ' ' || chr(9) || replace(text, ' ', '  ')
                                  || chr(10) || chr(10) AS t
                       FROM documents),
            n AS (SELECT doc_id,
                         trim(regexp_replace(nfc_normalize(t),
                                             '[ \\t\\n\\r\\f\\x0b]+', ' ', 'g'))
                             AS norm
                  FROM m)
            SELECT doc_id,
                   length(norm) AS n_chars_norm,
                   md5(norm) AS norm_hash
            FROM n
        """)
def _q_normalize_text(sf_dir: str):
    """Canonical text normalization (NFC + ASCII-whitespace collapse +
    strip) over deterministically dirtied documents: leading ' \\t',
    doubled inner spaces, trailing blank lines. Arrow-kernel path
    (textstats.normalize_batch); the oracle rebuilds the dirtying and
    normalization with nfc_normalize/regexp_replace/trim/md5."""
    from pdf_extractor_ray.functions.textstats import normalize_batch

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def dirty(batch: pa.Table) -> pa.Table:
        texts = [
            " \t" + (t or "").replace(" ", "  ") + "\n\n"
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": batch["doc_id"], "text": pa.array(texts, pa.string())}
        )

    return docs.map_batches(dirty, batch_format="pyarrow").map_batches(
        normalize_batch, batch_format="pyarrow"
    )


@register("script_stats", oracle="""
            WITH c AS (
              SELECT doc_id,
                len(regexp_extract_all(text, '[A-Za-zÀ-ɏ]')) AS latin,
                len(regexp_extract_all(text, '[Ѐ-ӿ]')) AS cyrillic,
                len(regexp_extract_all(text, '[Ͱ-Ͽ]')) AS greek,
                len(regexp_extract_all(text, '[一-鿿぀-ヿ]')) AS cjk,
                len(regexp_extract_all(text, '[؀-ۿ]')) AS arabic
              FROM documents),
            d AS (
              SELECT CASE
                WHEN latin=0 AND cyrillic=0 AND greek=0 AND cjk=0
                     AND arabic=0 THEN 'none'
                WHEN latin >= cyrillic AND latin >= greek AND latin >= cjk
                     AND latin >= arabic THEN 'latin'
                WHEN cyrillic >= greek AND cyrillic >= cjk
                     AND cyrillic >= arabic THEN 'cyrillic'
                WHEN greek >= cjk AND greek >= arabic THEN 'greek'
                WHEN cjk >= arabic THEN 'cjk'
                ELSE 'arabic' END AS script
              FROM c)
            SELECT script, CAST(count(*) AS BIGINT) AS n_docs
            FROM d GROUP BY script
        """)
def _q_script_stats(sf_dir: str):
    """Per-document Unicode-script classification rolled up to doc
    counts per dominant script — the wrong-script / mixed-script spam
    signal. Stateless map_batches; tiny direct groupby (<= 6 groups)."""
    from pdf_extractor_ray.functions.textstats import script_counts_batch

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return (
        docs.map_batches(script_counts_batch, batch_format="pyarrow")
        .groupby("script")
        .aggregate(Count(alias_name="n_docs"))
    )


@register("bm25", bench=True, oracle="""
            WITH w AS (SELECT doc_id,
                              unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                                  AS term
                       FROM documents),
            dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl
                   FROM w GROUP BY doc_id),
            st AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                          (SELECT sum(dl) FROM dl) AS total_len),
            tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
                   FROM w WHERE term IN ('hash', 'join', 'stream')
                   GROUP BY doc_id, term),
            dfq AS (SELECT term, CAST(count(*) AS DOUBLE) AS df
                    FROM tf GROUP BY term),
            sc AS (SELECT tf.doc_id,
                          sum(ln((st.n_docs - dfq.df + 0.5) / (dfq.df + 0.5)
                                 + 1.0)
                              * tf.tf * (1.2 + 1.0)
                              / (tf.tf + 1.2 * (1.0 - 0.75
                                  + 0.75 * dl.dl
                                    / (st.total_len / st.n_docs)))) AS score
                   FROM tf JOIN dfq USING (term) JOIN dl USING (doc_id)
                        CROSS JOIN st
                   GROUP BY tf.doc_id)
            SELECT doc_id, CAST(floor(score * 1000 + 0.5) AS BIGINT) AS score_m
            FROM sc ORDER BY score_m DESC, doc_id LIMIT 10
        """)
def _q_bm25(sf_dir: str):
    """Distributed BM25 retrieval for the query 'stream hash join':
    constant-size global-stats pass (N, avgdl, per-term df), broadcast
    scoring, per-batch top-k + tiny global merge. Scores in integer
    milli-units; the oracle replays the identical Robertson-idf
    formula with matching float associativity."""
    from pdf_extractor_ray.functions.textstats import bm25_topk

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return bm25_topk(docs, "stream hash join", k=10)


@register("bm25_ndcg", oracle=_bm25_ndcg_sql())
def _q_bm25_ndcg(sf_dir: str):
    """Retrieval-quality evaluation: exact-integer nDCG@10 of the
    BM25 run ('stream hash join') against graded gains
    min(3, occurrences of the token 'hash') — the standard
    graded-relevance metric with PRECOMPUTED milli-discounts inlined
    as literals on both engines (no runtime log anywhere), so the
    oracle replays DCG, ideal DCG, and the permille ratio bit for
    bit."""
    from pdf_extractor_ray.functions.ireval import ndcg_at_k
    from pdf_extractor_ray.functions.textstats import bm25_topk

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    run = bm25_topk(docs, "stream hash join", k=10).to_pandas()  # k rows

    import re as _re

    tok_re = _re.compile(r"[a-z0-9]+")

    def gain(batch: pa.Table) -> pa.Table:
        g = [
            min(3, tok_re.findall((t or "").lower()).count("hash"))
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "gain": pa.array(g, pa.int64()),
            }
        )

    gains = docs.map_batches(gain, batch_format="pyarrow")
    return ndcg_at_k(run, gains, k=10)


# RRF hybrid fusion: the bm25 CTE stack above + a single-query
# exact-cosine leg, fused with integer micro-unit reciprocal
# ranks (1_000_000 // (60 + rank)) — pure integer arithmetic
# after the two legs' own rank orders, so the replay is exact.
@register("hybrid_rrf", bench=True, oracle="""
            WITH w AS (SELECT doc_id,
                              unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                                  AS term
                       FROM documents),
            dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl
                   FROM w GROUP BY doc_id),
            st AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                          (SELECT sum(dl) FROM dl) AS total_len),
            tf AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
                   FROM w WHERE term IN ('hash', 'join', 'stream')
                   GROUP BY doc_id, term),
            dfq AS (SELECT term, CAST(count(*) AS DOUBLE) AS df
                    FROM tf GROUP BY term),
            sc AS (SELECT tf.doc_id,
                          sum(ln((st.n_docs - dfq.df + 0.5) / (dfq.df + 0.5)
                                 + 1.0)
                              * tf.tf * (1.2 + 1.0)
                              / (tf.tf + 1.2 * (1.0 - 0.75
                                  + 0.75 * dl.dl
                                    / (st.total_len / st.n_docs)))) AS score
                   FROM tf JOIN dfq USING (term) JOIN dl USING (doc_id)
                        CROSS JOIN st
                   GROUP BY tf.doc_id),
            bm AS (SELECT doc_id,
                          row_number() OVER (
                              ORDER BY CAST(floor(score * 1000 + 0.5) AS BIGINT)
                                           DESC,
                                       doc_id) AS rank
                   FROM sc),
            q AS (SELECT vec_id AS qid, embedding AS qe
                  FROM embeddings ORDER BY vec_id LIMIT 1),
            s AS (SELECT e.vec_id AS doc_id,
                         list_cosine_similarity(q.qe, e.embedding) AS cos
                  FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid),
            kn AS (SELECT doc_id,
                          row_number() OVER (ORDER BY cos DESC, doc_id) AS rank
                   FROM s),
            u AS (SELECT doc_id,
                         CAST(1000000 AS BIGINT) // (60 + rank) AS part
                  FROM bm WHERE rank <= 10
                  UNION ALL
                  SELECT doc_id,
                         CAST(1000000 AS BIGINT) // (60 + rank) AS part
                  FROM kn WHERE rank <= 10),
            f AS (SELECT doc_id, CAST(sum(part) AS BIGINT) AS rrf_score_u
                  FROM u GROUP BY doc_id)
            SELECT doc_id, rrf_score_u,
                   CAST(row_number() OVER (
                       ORDER BY rrf_score_u DESC, doc_id) AS BIGINT) AS rank
            FROM f ORDER BY rrf_score_u DESC, doc_id LIMIT 10
        """)
def _q_hybrid_rrf(sf_dir: str):
    """Hybrid retrieval: BM25 leg ('stream hash join', top-10) fused
    with an embedding leg (exact cosine top-10 for the lowest-vec_id
    query vector, self excluded) via reciprocal-rank fusion in exact
    integer micro-units — the reference's hybrid search semantics
    (arangodb/search_api/hybrid.py:154-226) with score
    sum(1_000_000 // (60 + rank)). Both legs are k-bounded, so the
    fusion pipeline touches n_legs x 10 rows however big the corpus."""
    from pdf_extractor_ray.functions.fusion import rank_from_scores, rrf_fuse
    from pdf_extractor_ray.functions.similarity import knn_bruteforce
    from pdf_extractor_ray.functions.textstats import bm25_topk

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    bm25_leg = rank_from_scores(
        bm25_topk(docs, "stream hash join", k=10), "score_m"
    )

    ids, mat = _load_query_vectors(sf_dir, 1)
    emb = ray.data.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    knn = knn_bruteforce(emb, mat, ids, k=11)  # pandas (bounded)
    knn = knn[knn["neighbor_id"] != knn["query_id"]].head(10).copy()
    knn["rank"] = range(1, len(knn) + 1)
    knn_leg = ray.data.from_pandas(
        knn.rename(columns={"neighbor_id": "doc_id"})[["doc_id", "rank"]]
    )
    return rrf_fuse([bm25_leg, knn_leg], rrf_k=60, top_n=10)


@register("word_topk", bench=True, oracle=_WORD_TOPK_SQL)
def _q_word_topk(sf_dir: str):
    from pdf_extractor_ray.functions.textstats import word_topk

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return word_topk(docs, k=20)


@register("word_heavy_hitters", oracle=_WORD_TOPK_SQL)
def _q_word_heavy_hitters(sf_dir: str):
    """Sketch path for top-k words: per-batch Misra-Gries summaries +
    exact re-count of the candidate set. Output provably equals the
    exact top-k whenever the true top-k clears the sketch's frequency
    floor (it does on this corpus), so it shares word_topk's oracle."""
    from pdf_extractor_ray.functions.textstats import word_heavy_hitters

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return word_heavy_hitters(docs, k=20)


@register("tfidf_terms", oracle="""
            WITH w AS (SELECT doc_id,
                              unnest(regexp_extract_all(lower(text), '[a-z0-9]+'))
                                  AS term
                       FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM w GROUP BY doc_id, term),
            dfq AS (SELECT term, count(*) AS df FROM tf
                    GROUP BY term HAVING count(*) >= 2),
            n AS (SELECT count(*) AS n_docs FROM documents),
            s AS (SELECT tf.doc_id, tf.term,
                         CAST(floor(tf.tf * ln(n.n_docs::DOUBLE / dfq.df) * 1000
                                    + 0.5) AS BIGINT) AS score_m
                  FROM tf JOIN dfq USING(term) CROSS JOIN n),
            r AS (SELECT doc_id, term, score_m,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY score_m DESC, term) AS rank
                  FROM s)
            SELECT doc_id, term, score_m, rank FROM r WHERE rank <= 3
        """)
def _q_tfidf_terms(sf_dir: str):
    from pdf_extractor_ray.functions.textstats import tfidf_top_terms

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return tfidf_top_terms(docs, k=3)


@register("lexical_diversity", oracle="""
            WITH w AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                FROM documents
            ),
            c AS (
                SELECT doc_id, word, count(*) AS c FROM w GROUP BY 1, 2
            ),
            agg AS (
                SELECT doc_id,
                       sum(c)::BIGINT AS n_tokens,
                       count(*)::BIGINT AS n_types,
                       sum(c * (c - 1))::BIGINT AS simpson_num,
                       max(c)::BIGINT AS top_count
                FROM c GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(a.n_tokens, 0) AS n_tokens,
                   coalesce(a.n_types, 0) AS n_types,
                   coalesce(a.simpson_num, 0) AS simpson_num,
                   coalesce(a.top_count, 0) AS top_count
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """)
def _q_lexical_diversity(sf_dir: str):
    """Exact integer lexical-diversity indices (token/type counts,
    Simpson collision numerator, top word count) per document — the
    MassiveText fraction-of-unique-words repetitiveness signal with
    both ratio legs exposed as exact integers. Map-only, no shuffle."""
    from pdf_extractor_ray.functions.textstats import lexical_diversity

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return lexical_diversity(docs)


@register("sentences", oracle="""
            WITH s AS (
                SELECT doc_id,
                       regexp_extract_all(text, '[^.!?]+[.!?]*') AS arr
                FROM documents WHERE text IS NOT NULL AND text <> ''),
            e AS (
                SELECT doc_id, unnest(range(len(arr))) AS i, arr
                FROM s),
            t AS (
                SELECT doc_id, i,
                       trim(arr[i + 1],
                            ' ' || chr(9) || chr(10) || chr(13)
                                || chr(12) || chr(11)) AS sentence
                FROM e)
            SELECT doc_id,
                   CAST(row_number() OVER (PARTITION BY doc_id ORDER BY i)
                        - 1 AS BIGINT) AS sent_idx,
                   sentence,
                   CAST(len(regexp_extract_all(sentence, '\\S+'))
                        AS BIGINT) AS n_words
            FROM t WHERE sentence <> ''
        """)
def _q_sentences(sf_dir: str):
    """Sentence-level explode over the real corpus bodies (the unit
    for sentence dedup and pretraining segmentation). The split rule
    is RE2-compatible by construction, so the oracle replays it with
    regexp_extract_all + positional unnest."""
    from pdf_extractor_ray.functions.chunking import sentence_split

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return sentence_split(docs)


# Chunking: starts at word indices 0, stride, 2*stride, ...
# (stride = 40 - 10 = 30); list_slice is 1-based inclusive.
@register("chunk_documents", oracle="""
            WITH w AS (
              SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
              FROM documents
            ),
            c AS (
              SELECT doc_id, i AS chunk_idx,
                     list_slice(ws, i * 30 + 1, i * 30 + 40) AS chunk
              FROM w, UNNEST(range(0,
                     CAST(ceil(len(ws) / 30.0) AS BIGINT))) AS t(i)
              WHERE len(ws) > 0
            )
            SELECT doc_id, chunk_idx,
                   CAST(len(chunk) AS BIGINT) AS n_words_chunk,
                   md5(array_to_string(chunk, ' ')) AS chunk_fp
            FROM c
        """)
def _q_chunk_documents(sf_dir: str):
    """Overlapping-window chunking (pretraining/RAG prep): per-chunk
    word counts + fingerprints, value-checked per chunk."""
    from pdf_extractor_ray.functions.chunking import chunk_documents

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = chunk_documents(
        docs, chunk_words=40, overlap=10, with_fingerprint=True
    )
    return out.select_columns(
        ["doc_id", "chunk_idx", "n_words_chunk", "chunk_fp"]
    )


# Exact per-group median via value-histogram exchange
@register("median_chars", oracle="""
            SELECT lang, median(n_chars) AS median
            FROM documents GROUP BY lang
        """)
def _q_median_chars(sf_dir: str):
    """Exact per-language median doc length via the value-histogram
    exchange — (lang, n_chars, n) partials shuffle, never rows."""
    from pdf_extractor_ray.functions.grouped_stats import group_median

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["lang", "n_chars"]
    )
    return group_median(docs, "lang", "n_chars")


# Histogram argmax: most common length bucket, ties -> smallest
@register("mode_length_bucket", oracle="""
            SELECT lang, bucket AS mode_value, n FROM (
                SELECT lang, n_chars // 100 AS bucket,
                       CAST(count(*) AS BIGINT) AS n,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY count(*) DESC, n_chars // 100 ASC
                       ) AS rn
                FROM documents GROUP BY lang, n_chars // 100
            ) WHERE rn = 1
        """)
def _q_mode_length_bucket(sf_dir: str):
    """Most common 100-char length bucket per language (ties to the
    smallest bucket) — the histogram exchange feeding an argmax."""
    from pdf_extractor_ray.functions.grouped_stats import group_mode

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["lang", "n_chars"]
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        n = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"lang": batch["lang"], "bucket": n // 100})

    return group_mode(
        docs.map_batches(bucketize, batch_format="pyarrow"), "lang", "bucket"
    )


# Histogram quantiles: the SQL mirrors the engine's exact
# integer position/interpolation arithmetic so doubles match
@register("length_quantiles", oracle="""
            WITH h AS (
                SELECT lang, n_chars AS v, count(*) AS c
                FROM documents GROUP BY 1, 2
            ),
            tot AS (SELECT lang, CAST(sum(c) AS BIGINT) AS n FROM h GROUP BY 1),
            cum AS (
                SELECT lang, v,
                       sum(c) OVER (PARTITION BY lang ORDER BY v) AS cum
                FROM h
            ),
            qs AS (SELECT * FROM (VALUES (500), (900), (990)) t(q_pm)),
            pos AS (
                SELECT tot.lang, q_pm,
                       (n - 1) * q_pm // 1000 AS lo_idx,
                       (n - 1) * q_pm % 1000  AS frac_th
                FROM tot CROSS JOIN qs
            ),
            lo AS (
                SELECT p.lang, p.q_pm, min(c.v) AS lo_v
                FROM pos p JOIN cum c
                  ON c.lang = p.lang AND c.cum >= p.lo_idx + 1
                GROUP BY 1, 2
            ),
            hi AS (
                SELECT p.lang, p.q_pm, min(c.v) AS hi_v
                FROM pos p JOIN cum c
                  ON c.lang = p.lang AND c.cum >= p.lo_idx + 2
                GROUP BY 1, 2
            )
            SELECT p.lang, CAST(p.q_pm AS BIGINT) AS q_pm,
                   CASE WHEN p.frac_th = 0 THEN CAST(lo_v AS DOUBLE)
                        ELSE CAST(lo_v AS DOUBLE)
                             + (CAST(hi_v AS DOUBLE) - CAST(lo_v AS DOUBLE))
                               * (CAST(p.frac_th AS DOUBLE) / 1000.0)
                   END AS value
            FROM pos p
            JOIN lo ON lo.lang = p.lang AND lo.q_pm = p.q_pm
            LEFT JOIN hi ON hi.lang = p.lang AND hi.q_pm = p.q_pm
        """)
def _q_length_quantiles(sf_dir: str):
    """Exact per-language p50/p90/p99 doc length off ONE histogram
    exchange; the interpolation arithmetic is mirrored verbatim in the
    oracle so the doubles match bit-for-bit."""
    from pdf_extractor_ray.functions.grouped_stats import group_quantiles

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["lang", "n_chars"]
    )
    return group_quantiles(docs, "lang", "n_chars", qs=(0.5, 0.9, 0.99))
