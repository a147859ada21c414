"""Gate queries for the probabilistic sketches (HLL, CMS, Bloom,
sampled quantiles)."""

from __future__ import annotations

import pyarrow as pa
import ray.data

from pdf_extractor_ray.functions.common import sized_read_parquet as _rp
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _t


@register("quantiles_sampled", oracle="""
            WITH s AS (
                SELECT event_type, value FROM events
                WHERE (('0x' || substring(md5(CAST(event_id AS VARCHAR)), 1, 8))::UBIGINT
                       % 100) < 10
            )
            SELECT event_type,
                   quantile_disc(CAST(floor(value*100 + 0.5) AS BIGINT), 0.5)
                       AS p50_c,
                   quantile_disc(CAST(floor(value*100 + 0.5) AS BIGINT), 0.9)
                       AS p90_c
            FROM s GROUP BY event_type
        """)
def _q_quantiles_sampled(sf_dir: str):
    """Sampled-quantile sketch path (deterministic 10% hash sample ->
    exact histogram quantiles on the sample). Approximate vs the full
    data (pinned in tests) but bit-deterministic, so the oracle replays
    the identical sample in SQL and matches exactly."""
    from pdf_extractor_ray.functions.sketches import sampled_quantiles

    events = _rp(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"]
    )
    return sampled_quantiles(events, qs=(0.5, 0.9), pct=10)


@register("distinct_users_hll")
def _q_distinct_users_hll(sf_dir: str):
    """Sketch path for distinct counting (HLL, ~1.6% error at 2^12
    registers) — approximate, so rows-only at the gate; the test suite
    asserts the estimates against the exact counts."""
    from pdf_extractor_ray.functions.sketches import hll_distinct_per_key

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return hll_distinct_per_key(events)


@register("hll_registers", oracle="""
            -- md5-hashed HLL registers, p=8: h = first 64 md5 bits of
            -- the user id, bucket = low 8 bits, rank = leading-zero
            -- count of the remaining 56 bits + 1, replayed with
            -- length(bin()) (DuckDB prints no leading zeros; the
            -- rest=0 case maps to Python's bit_length(0)==0).
            WITH h AS (
                SELECT event_type,
                       ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM events
            ),
            r AS (
                SELECT event_type,
                       CAST(h % 256 AS BIGINT) AS bucket,
                       h // 256 AS rest
                FROM h
            )
            SELECT event_type, bucket,
                   CAST(max(57 - CASE WHEN rest = 0 THEN 0
                                      ELSE length(bin(rest)) END) AS BIGINT) AS register
            FROM r GROUP BY event_type, bucket
        """)
def _q_hll_registers(sf_dir: str):
    """md5-hashed HLL register table (p=8) — the sketch CONTENT is the
    gate contract: every (key, bucket, max-rank) register is rebuilt
    exactly by the SQL oracle (md5 prefix -> UBIGINT, div/mod bucket
    split, bin()-length rank)."""
    from pdf_extractor_ray.functions.sketches import hll_md5_registers

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return hll_md5_registers(events, p=8)


@register("hll_estimate", oracle="""
            -- Exact-integer HLL estimate: the harmonic sum is scaled
            -- by 2^57 into a HUGEINT power sum (empty buckets
            -- contribute 2^57), raw = alpha_m * m^2 / sum in
            -- milli-units via integer division; linear counting
            -- (raw <= 2.5m, empty buckets exist) uses ln() over its
            -- 256-value input domain, exhaustively verified
            -- bit-identical between the two engines.
            WITH h AS (
                SELECT event_type,
                       ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
                FROM events
            ),
            r AS (
                SELECT event_type, h % 256 AS bucket, h // 256 AS rest FROM h
            ),
            regs AS (
                SELECT event_type, bucket,
                       max(57 - CASE WHEN rest = 0 THEN 0
                                     ELSE length(bin(rest)) END) AS register
                FROM r GROUP BY event_type, bucket
            ),
            s AS (
                SELECT event_type, count(*) AS regs_hit,
                       sum(1::HUGEINT << (57 - register))
                       + (256 - count(*)) * (1::HUGEINT << 57) AS ssum
                FROM regs GROUP BY event_type
            ),
            est AS (
                SELECT event_type,
                       CAST(regs_hit AS BIGINT) AS regs_hit,
                       CAST((1000::HUGEINT * 7213 * 16777216 * (1::HUGEINT << 57))
                            // (2570790::HUGEINT * ssum) AS BIGINT) AS raw_est_milli
                FROM s
            )
            SELECT event_type, regs_hit, raw_est_milli,
                   CASE WHEN regs_hit < 256 AND raw_est_milli <= 640000
                        THEN CAST(floor(1000.0 * 256.0
                                        * ln(256.0 / (256 - regs_hit))) AS BIGINT)
                        ELSE raw_est_milli END AS est_milli
            FROM est
        """)
def _q_hll_estimate(sf_dir: str):
    """Exact-integer HLL estimate per key: harmonic power sum in
    HUGEINT milli-units + exhaustively-verified linear-counting
    branch — an APPROXIMATE algorithm with an EXACT-value gate."""
    from pdf_extractor_ray.functions.sketches import hll_md5_estimate

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return hll_md5_estimate(events, p=8)


@register("cms_counters", oracle="""
            -- Count-Min counter grid, depth 4 x width 512: row r maps
            -- word w to bucket md5(w#r)[:32 bits] % 512; counters are
            -- exact occurrence sums. Tokenization is the repo-wide
            -- [a-z0-9]+ over lower(text).
            WITH words AS (
                SELECT unnest(regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+')) AS w
                FROM documents
            ),
            wc AS (SELECT w, count(*) AS n FROM words GROUP BY w),
            cells AS (
                SELECT rr.r AS r,
                       CAST(('0x' || substr(md5(w || '#' || CAST(rr.r AS VARCHAR)), 1, 8))::UBIGINT
                            % 512 AS BIGINT) AS bucket,
                       n
                FROM wc CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS r) rr
            )
            SELECT r, bucket, CAST(sum(n) AS BIGINT) AS cnt
            FROM cells GROUP BY r, bucket
        """)
def _q_cms_counters(sf_dir: str):
    """Count-Min sketch counter grid (4x512) over the corpus word
    stream; per-batch collapse keeps the exchange sketch-sized."""
    from pdf_extractor_ray.functions.sketches import cms_register_table

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return cms_register_table(docs, depth=4, width=512)


@register("cms_topk", oracle="""
            -- Exact global top-20 words (word_topk's n DESC, word ASC
            -- contract) annotated with the Count-Min point query
            -- (min over the 4 rows' counters); n_cms >= n_exact by
            -- construction.
            WITH words AS (
                SELECT unnest(regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+')) AS w
                FROM documents
            ),
            wc AS (SELECT w, count(*) AS n FROM words GROUP BY w),
            top AS (SELECT w AS word, n FROM wc ORDER BY n DESC, w ASC LIMIT 20),
            grid AS (
                SELECT rr.r AS r,
                       CAST(('0x' || substr(md5(w || '#' || CAST(rr.r AS VARCHAR)), 1, 8))::UBIGINT
                            % 512 AS BIGINT) AS bucket,
                       sum(n) AS cnt
                FROM wc CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS r) rr
                GROUP BY 1, 2
            )
            SELECT t.word, CAST(t.n AS BIGINT) AS n_exact,
                   CAST(min(g.cnt) AS BIGINT) AS n_cms
            FROM top t
            CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS r) rr
            JOIN grid g ON g.r = rr.r
              AND g.bucket = CAST(('0x' || substr(md5(t.word || '#' || CAST(rr.r AS VARCHAR)), 1, 8))::UBIGINT
                                  % 512 AS BIGINT)
            GROUP BY t.word, t.n
        """)
def _q_cms_topk(sf_dir: str):
    """Exact global top-20 words annotated with their Count-Min
    estimate (min over 4 rows) — n_cms >= n_exact always; the oracle
    replays both legs and the k-bounded join."""
    from pdf_extractor_ray.functions.sketches import cms_topk_report

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return cms_topk_report(docs, k=20)


@register("bloom_filter", oracle="""
            -- Bloom membership, k=5 hashes into 2^14 bits: bit i of
            -- value v is md5(v#i)[:32 bits] % 16384. bloom_hit = all
            -- five probe bits present in the member bit set; false
            -- positives are deterministic and hashed by the gate.
            WITH members AS (
                SELECT 'v-' || CAST(doc_id AS VARCHAR) AS v
                FROM documents WHERE doc_id % 3 = 0
            ),
            probes AS (
                SELECT doc_id,
                       CAST(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END AS BIGINT) AS truth,
                       'v-' || CAST(doc_id AS VARCHAR) AS v
                FROM documents
            ),
            idx AS (SELECT unnest(generate_series(0, 4)) AS i),
            mbits AS (
                SELECT DISTINCT
                       ('0x' || substr(md5(m.v || '#' || CAST(i.i AS VARCHAR)), 1, 8))::UBIGINT
                       % 16384 AS bit
                FROM members m CROSS JOIN idx i
            ),
            pb AS (
                SELECT p.doc_id, p.truth,
                       ('0x' || substr(md5(p.v || '#' || CAST(i.i AS VARCHAR)), 1, 8))::UBIGINT
                       % 16384 AS bit
                FROM probes p CROSS JOIN idx i
            )
            SELECT doc_id, truth,
                   CAST(min(CASE WHEN bit IN (SELECT bit FROM mbits)
                                 THEN 1 ELSE 0 END) AS BIGINT) AS bloom_hit
            FROM pb GROUP BY doc_id, truth
        """)
def _q_bloom_filter(sf_dir: str):
    """Bloom-filter membership (k=5, 2^14 bits) — members are docs
    with doc_id % 3 == 0, probes are all docs; false positives are
    DETERMINISTIC (md5 bit positions) so the gate hashes the exact
    hit pattern. The filter itself (2 KiB bitmap) is the only
    broadcast state — the crawl-frontier seen-set shape."""
    from pdf_extractor_ray.functions.sketches import bloom_membership_report

    ids = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def mk_members(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_pandas()
        d = d[d % 3 == 0]
        return pa.table({"v": pa.array([f"v-{i}" for i in d], pa.string())})

    def mk_probes(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_pandas()
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "truth": pa.array((d % 3 == 0).astype("int64"), pa.int64()),
                "v": pa.array([f"v-{i}" for i in d], pa.string()),
            }
        )

    members = ids.map_batches(mk_members, batch_format="pyarrow")
    probes = ids.map_batches(mk_probes, batch_format="pyarrow")
    return bloom_membership_report(members, probes, k=5, bits_p=14)
