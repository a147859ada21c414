"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2 + the corpus-level training-data operators); each takes an
``sf_dir`` and returns a Dataset / DataFrame / Arrow table.
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible query (same column names, same value semantics —
float aggregates are compared as integer centi-units via
``floor(x*100 + 0.5)`` on BOTH sides so value hashes are exact).

Ray is initialised by the driver BEFORE this module is imported — no
ray.init()/ray.shutdown() here or in the library code these call.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections.abc import Callable
from typing import Any

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

# ----------------------------------------------------------------- util


def _t(sf_dir: str, name: str) -> str:
    return f"{sf_dir}/{name}.parquet"


def _docs_with_dups(sf_dir: str) -> ray.data.Dataset:
    """documents plus an injected exact copy of every 10th doc (id
    +1_000_000) — gives the dedup operators real duplicates to find.
    Mirrored exactly by the oracle's UNION ALL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def dup_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dups = batch.filter(pa.array(ids % 10 == 0))
        return pa.table(
            {
                "doc_id": pc.add(dups["doc_id"], 1_000_000),
                "text": dups["text"],
            }
        )

    return docs.union(docs.map_batches(dup_rows, batch_format="pyarrow"))


_DUP_SQL = (
    "SELECT doc_id, text FROM documents "
    "UNION ALL "
    "SELECT doc_id + 1000000 AS doc_id, text FROM documents WHERE doc_id % 10 = 0"
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


def _cents(col):
    """float -> exact integer centi-units: floor(x*100 + 0.5)."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(col, pa.scalar(100.0)), pa.scalar(0.5))),
        pa.int64(),
    )


def _pages_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Deterministically wrap each document's text in an HTML page so
    the extraction pipeline has a pages-table input derived from sf_dir
    (no external data)."""
    import datetime

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )

    def to_pages(batch: pa.Table) -> pa.Table:
        from pdf_extractor_ray.sources.corpus import PAGES_SCHEMA

        rows = []
        for doc_id, text, lang in zip(
            batch["doc_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["lang"].to_pylist(),
        ):
            body = (
                f"<html><head><title>doc {doc_id}</title></head><body>"
                f"<h1>Document {doc_id}</h1><p>{text}</p>"
                f"<script>tracker({doc_id});</script></body></html>"
            )
            rows.append(
                {
                    "url": f"https://docs.example.org/{doc_id:08d}",
                    "warc_ts": datetime.datetime(2025, 1, 1)
                    + datetime.timedelta(seconds=int(doc_id)),
                    "html": body.encode("utf-8"),
                    "text": "",
                    "lang": lang,
                }
            )
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _linked_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents wrapped in HTML carrying deterministic anchors: doc d
    gets (d % 3) + 1 links to https://t.example.org/{(d*7 + 13*j + 1) %
    100000} with inner-markup anchor text 'see <b>doc N</b>', plus a
    DECOY anchor inside a <script> body that a correct parser must not
    emit. Both sides (Ray parser / SQL oracle) derive the same edges."""
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            k = (doc_id % 3) + 1
            links = "".join(
                f'<p>ref: <a href="https://t.example.org/'
                f'{(doc_id * 7 + 13 * j + 1) % 100000}">see <b>doc '
                f"{(doc_id * 7 + 13 * j + 1) % 100000}</b></a></p>"
                for j in range(k)
            )
            urls.append(f"https://docs.example.org/{doc_id:08d}")
            htmls.append(
                f"<html><body><h1>Doc {doc_id}</h1><p>{text}</p>{links}"
                f"<script>var s='<a href=\"https://evil.example/x\">"
                f"decoy</a>';</script></body></html>".encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _meta_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents wrapped in HTML whose <head> carries deterministic
    metadata: title with whitespace noise (every 5th doc) that the
    parser must collapse, canonical link absent on every 3rd doc with
    attribute order flipped on odd docs, robots meta absent on every
    11th / noindex on every 7th, single-quoted description on even
    docs only, og:title with content-before-property order — plus a
    COMMENT title decoy and a SCRIPT title decoy on every page that a
    correct parser must not see. Both sides derive the same fields."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            title = (
                f"Doc  {d} \t title" if d % 5 == 0 else f"Doc {d} title"
            )
            canonical = (
                (
                    f'<link href="https://canon.example.org/{d // 2}" rel=canonical>'
                    if d % 2
                    else f'<link rel="canonical" href="https://canon.example.org/{d // 2}">'
                )
                if d % 3 != 0
                else ""
            )
            robots = (
                ""
                if d % 11 == 0
                else (
                    '<meta name=ROBOTS content="noindex,follow">'
                    if d % 7 == 0
                    else '<meta name="robots" content="index,follow">'
                )
            )
            desc = (
                f"<meta name='description' content='desc {d * 13 % 997}'>"
                if d % 2 == 0
                else ""
            )
            urls.append(f"https://docs.example.org/{d:08d}")
            htmls.append(
                (
                    "<html><head>"
                    "<!-- <title>comment decoy</title> -->"
                    f"<title>{title}</title>"
                    f'<meta content="OG {d}" property="og:title">'
                    f"{canonical}{robots}{desc}"
                    "<script>var t='<title>script decoy</title>';</script>"
                    f"</head><body><h1>Doc {d}</h1></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _q_head_meta(sf_dir: str):
    """Head-metadata harvesting (title/canonical/robots/description/
    og:title + the noindex curation flag) with the same tokenizer as
    the link harvester. The oracle rebuilds every field from the
    deterministic wrapper rule; NULLs are projected to '' so the
    driver compare is NaN-free."""
    from pdf_extractor_ray.functions.webgraph import page_head_meta

    out = page_head_meta(_meta_pages(sf_dir))

    def fill(batch: pa.Table) -> pa.Table:
        cols = {}
        for name in batch.column_names:
            col = batch[name]
            cols[name] = (
                pc.fill_null(col, "") if pa.types.is_string(col.type) else col
            )
        return pa.table(cols)

    return out.map_batches(fill, batch_format="pyarrow")


def _q_pii_spans(sf_dir: str):
    """Span-level PII annotation with original-text codepoint offsets
    (email/phone/IPv4, ownership-resolved overlaps). The plant mixes
    variable-width ids and a non-ASCII 'café' before the IP so a green
    hash proves CODEPOINT (not byte) offset arithmetic; the phone
    regex's trailing-space capture is part of the replayed contract."""
    from pdf_extractor_ray.functions.scrub import pii_spans

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def mk(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        f"id {d} mail user{d}@ex.org tel 555-123-4"
                        f"{d % 10}00 note café 10.0.{d % 256}.7 end"
                        for d in ids
                    ],
                    pa.string(),
                ),
            }
        )

    return pii_spans(docs.map_batches(mk, batch_format="pyarrow"))


def _q_fetch_plan(sf_dir: str):
    """Politeness-budgeted fetch planning: per-host Crawl-delay
    (group precedence with an exact-agent group on every 5th host, a
    first-wins duplicate, comment decoys, and hosts with no robots at
    all) x frontier pending counts -> planned = min(horizon//delay,
    pending). One host-bucket cogroup; oracle replays the delay CASE
    and the budget arithmetic."""
    from pdf_extractor_ray.functions.weburl import host_fetch_plan

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def mk_robots(batch: pa.Table) -> pa.Table:
        hosts, bodies = [], []
        seen = set()
        for d in batch["doc_id"].to_pylist():
            x = d % 20
            if x in seen or x % 4 == 0:  # every 4th host: no robots
                continue
            seen.add(x)
            lines = [
                "# decoy comment Crawl-delay: 99",
                "User-agent: otherbot",
                "Crawl-delay: 50",
                "User-agent: *",
                "Disallow: /private",
            ]
            if x % 3 != 0:
                lines += [f"Crawl-delay: {x % 7 + 2}", "Crawl-delay: 60"]
            if x % 5 == 0:
                lines += ["User-agent: graftbot",
                          f"Crawl-delay: {x % 4 + 3}"]
            hosts.append(f"h{x}")
            bodies.append("\n".join(lines).encode("utf-8"))
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "robots_txt": pa.array(bodies, pa.binary()),
            }
        )

    def mk_frontier(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"host": pa.array([f"h{d % 20}" for d in ids], pa.string())}
        )

    robots = docs.map_batches(mk_robots, batch_format="pyarrow")
    frontier = docs.map_batches(mk_frontier, batch_format="pyarrow")
    return host_fetch_plan(robots, frontier, agent="graftbot", horizon_s=60)


def _q_reciprocal_links(sf_dir: str):
    """Host-level link reciprocity (link-farm fingerprint): three
    affine host maps over 23 hosts — map 3 is the modular INVERSE of
    map 1, so reciprocity is dense (44 of 64 directed edges) and the
    unordered-pair cogroup is genuinely exercised. Oracle = EXISTS
    self-join replay over the same derived edge set."""
    from pdf_extractor_ray.functions.webgraph import reciprocal_link_stats

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def mk_edges(batch: pa.Table) -> pa.Table:
        src, dst = [], []
        for d in batch["doc_id"].to_pylist():
            x = d % 23
            src.append(f"h{x}")
            dst.append(f"h{(5 * x + 1) % 23}")
            if d % 2 == 0:
                src.append(f"h{x}")
                dst.append(f"h{(7 * x + 3) % 23}")
            if d % 3 == 0:
                src.append(f"h{x}")
                dst.append(f"h{(14 * x + 9) % 23}")
        return pa.table(
            {
                "src_host": pa.array(src, pa.string()),
                "dst_host": pa.array(dst, pa.string()),
            }
        )

    return reciprocal_link_stats(
        docs.map_batches(mk_edges, batch_format="pyarrow")
    )


def _q_host_mirrors(sf_dir: str):
    """Mirror detection: host pairs sharing content hashes, with the
    per-content host cap (>4 hosts = boilerplate noise, dropped) and
    integer containment per-mille. host = h{d%16}, content =
    c{d%401} (coprime mods, so sharing crosses hosts); the oracle
    replays distinct -> cap -> pair -> rollup in plain SQL."""
    from pdf_extractor_ray.functions.webgraph import host_mirror_pairs

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "host": pa.array([f"h{d % 16}" for d in ids], pa.string()),
                "content_hash": pa.array(
                    [f"c{d % 401}" for d in ids], pa.string()
                ),
            }
        )

    return host_mirror_pairs(
        docs.map_batches(rows, batch_format="pyarrow"),
        max_hosts_per_content=4, min_shared=1,
    )


def _q_html_tables(sf_dir: str):
    """HTML <table> -> normalized cell grid through the real chain
    (tokenizer -> pipe-markdown -> segmentation -> table parser).
    Deterministic plant: table 0 is (2+d%2) cols x (2+d%3) data rows
    with cell v{(d+7r+13c)%100}; every 7th doc appends an
    ARITY-MISMATCHED row the parser must drop (appended last so kept
    row indices don't shift); every 5th doc a second 1-col table;
    comment and script table decoys must stay invisible."""
    from pdf_extractor_ray.functions.content import page_html_tables

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            ncol = 2 + d % 2
            nrow = 2 + d % 3
            rows_html = [
                "<tr>" + "".join(f"<th>H{c}</th>" for c in range(ncol))
                + "</tr>"
            ]
            for r in range(1, nrow + 1):
                rows_html.append(
                    "<tr>"
                    + "".join(
                        f"<td>v{(d + r * 7 + c * 13) % 100}</td>"
                        for c in range(ncol)
                    )
                    + "</tr>"
                )
            if d % 7 == 0:
                rows_html.append(
                    "<tr>" + "<td>bad</td>" * (ncol + 1) + "</tr>"
                )
            t0 = "<table>" + "".join(rows_html) + "</table>"
            t1 = (
                f"<table><tr><th>Z</th></tr><tr><td>q{d % 9}</td></tr>"
                "</table>"
                if d % 5 == 0
                else ""
            )
            urls.append(f"https://docs.example.org/{d:08d}")
            htmls.append(
                (
                    "<html><body>"
                    "<!-- <table><tr><th>DECOY</th></tr></table> -->"
                    "<script>var t='<table><tr><td>S</td></tr></table>';"
                    "</script>"
                    f"<h1>Doc {d}</h1>{t0}<p>between</p>{t1}"
                    "</body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return page_html_tables(
        docs.map_batches(to_pages, batch_format="pyarrow")
    )


def _q_canonical_clusters(sf_dir: str):
    """Real-web canonical clustering composite: head-meta harvest
    (rel=canonical with attribute-order/quote variance and decoys,
    from _meta_pages) -> the declared target resolved through a
    redirect table by pointer doubling -> cluster rollup. Redirect
    rule over canon ids x: odd x -> x-1, x%4==2 -> x-2, so
    final(x) = x - x%4 with 0/1/1/2 hops — the oracle replays that
    arithmetic; pages without a canonical (every 3rd) self-cluster."""
    from pdf_extractor_ray.functions.webgraph import (
        canonical_clusters,
        page_head_meta,
    )

    pages = page_head_meta(_meta_pages(sf_dir))
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only
    max_x = (n - 1) // 2

    def mk_redirects(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        xs = ids[ids <= max_x]
        src, dst = [], []
        for x in xs:
            if x % 2 == 1:
                src.append(f"https://canon.example.org/{x}")
                dst.append(f"https://canon.example.org/{x - 1}")
            elif x % 4 == 2:
                src.append(f"https://canon.example.org/{x}")
                dst.append(f"https://canon.example.org/{x - 2}")
        return pa.table(
            {
                "src_url": pa.array(src, pa.string()),
                "dst_url": pa.array(dst, pa.string()),
            }
        )

    redirects = docs.map_batches(mk_redirects, batch_format="pyarrow")
    out = canonical_clusters(pages, redirects)

    def fill(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cluster_url": batch["cluster_url"],
                "n_pages": batch["n_pages"],
                "n_redirected": batch["n_redirected"],
            }
        )

    return out.map_batches(fill, batch_format="pyarrow")


def _ldjson_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents wrapped in pages carrying deterministic JSON-LD, by
    doc_id ``d``:  every page has an Article block (headline with a
    JSON-escaped quote and an em-dash, datePublished 2024-(d%12+1)-
    (d%28+1), author "Author {d%97}" — shaped as a list of Person
    objects when d%10==0, a bare string when d%5==0, else a Person
    object; the type attribute is written ``Application/LD+JSON``
    single-quoted on odd d and gains ``; charset=utf-8`` when d%4==0);
    every 3rd page adds an ``@graph`` block (Organization "Org {d%11}"
    + WebSite "Site {d%13}"); every 9th a top-level-array block
    (BreadcrumbList "Crumbs {d%5}"); every 7th a syntactically-invalid
    block (trailing comma) that must be counted, not parsed.  Decoys a
    correct parser must not see: a commented-out ld+json script and a
    text/javascript script with an entity-shaped body.  The JSON
    payloads are built with ``json.dumps`` so escaping is honest."""
    import json as _json

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            author_name = f"Author {d % 97}"
            if d % 10 == 0:
                author = [
                    {"@type": "Person", "name": author_name},
                    {"@type": "Person", "name": f"Second {d}"},
                ]
            elif d % 5 == 0:
                author = author_name
            else:
                author = {"@type": "Person", "name": author_name}
            art = _json.dumps(
                {
                    "@context": "https://schema.org",
                    "@type": "Article",
                    "headline": f'Headline "q{d % 10}" — {d}',
                    "datePublished": f"2024-{d % 12 + 1:02d}-{d % 28 + 1:02d}",
                    "author": author,
                },
                ensure_ascii=False,
            )
            if d % 4 == 0:
                ta = '"application/ld+json; charset=utf-8"'
            elif d % 2 == 1:
                ta = "'Application/LD+JSON'"
            else:
                ta = '"application/ld+json"'
            blocks = [f"<script type={ta}>{art}</script>"]
            if d % 3 == 0:
                graph = _json.dumps(
                    {
                        "@context": "https://schema.org",
                        "@graph": [
                            {"@type": "Organization", "name": f"Org {d % 11}"},
                            {"@type": "WebSite", "name": f"Site {d % 13}"},
                        ],
                    }
                )
                blocks.append(
                    f'<script type="application/ld+json">{graph}</script>'
                )
            if d % 9 == 0:
                arr = _json.dumps(
                    [{"@type": ["BreadcrumbList", "Thing"],
                      "name": f"Crumbs {d % 5}"}]
                )
                blocks.append(
                    f'<script type="application/ld+json">{arr}</script>'
                )
            if d % 7 == 0:
                blocks.append(
                    '<script type="application/ld+json">'
                    '{"@type":"Article","headline":"bad",}</script>'
                )
            urls.append(f"https://docs.example.org/{d:08d}")
            htmls.append(
                (
                    "<html><head>"
                    '<!-- <script type="application/ld+json">'
                    '{"@type":"CommentDecoy"}</script> -->'
                    '<script type="text/javascript">'
                    'var x={"@type":"Decoy","name":"nope"};</script>'
                    + "".join(blocks)
                    + f"</head><body><h1>Doc {d}</h1></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _q_json_ld(sf_dir: str):
    """Schema.org entity harvesting from JSON-LD script blocks —
    media-type parameter/case tolerance, @graph and top-level-array
    flattening, author-shape normalization, invalid-block counting,
    comment/wrong-type decoy invisibility. The oracle rebuilds every
    entity row from the deterministic wrapper rule."""
    from pdf_extractor_ray.functions.webgraph import page_json_ld

    return page_json_ld(_ldjson_pages(sf_dir))


def _dated_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents wrapped in pages whose publication date is recoverable
    through exactly one stage of the htmldate cascade, by doc_id%4:
    0 -> a machine-readable meta (full ISO timestamp; a conflicting
    <time> with the NEXT day rides along — on every 8th doc BEFORE the
    meta — so a green hash proves class priority, not document order);
    1 -> only a <time datetime> (plus a meta decoy dated 2050 that the
    plausibility gate must reject to fall through); 2 -> no markup
    date, but a /YYYY/M/D/ path in the url (unpadded, testing the
    %d parse); 3 -> nothing. Every page carries a script-body meta and
    a comment meta decoy dated 1999 that the tokenizer must not see.
    The true date is a pure function of doc_id: year 2001+d%24,
    month 1+(7d)%12, day 1+(11d)%28."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            y, mo, da = 2001 + d % 24, 1 + (7 * d) % 12, 1 + (11 * d) % 28
            iso = f"{y:04d}-{mo:02d}-{da:02d}"
            branch = d % 4
            if branch == 2:
                url = (
                    f"https://h{d % 11}.example.org/{y}/{mo}/{da}/"
                    f"post-{d}.html"
                )
            else:
                url = f"https://h{d % 11}.example.org/posts/{d}.html"
            body = ""
            if branch == 0:
                meta = (
                    f'<meta property="article:published_time" '
                    f'content="{iso}T08:30:00+00:00">'
                    if d % 8
                    else f'<meta content="{iso}T08:30:00+00:00" '
                    f'property="ARTICLE:PUBLISHED_TIME">'
                )
                conflict = (
                    f'<time datetime="{y:04d}-{mo:02d}-{da + 1:02d}">'
                    "updated</time>"
                )
                body = conflict + meta if d % 8 == 0 else meta + conflict
            elif branch == 1:
                body = (
                    '<meta name="date" content="2050-01-01">'
                    f'<time datetime="{iso}">published</time>'
                )
            urls.append(url)
            htmls.append(
                (
                    "<html><head>"
                    "<!-- <meta name=date content=1999-01-01> -->"
                    f"<title>Doc {d}</title></head><body>{body}"
                    "<script>var m='<meta name=\"date\" "
                    "content=\"1999-12-31\">';</script>"
                    f"<p>Doc {d} body</p></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _sniff_pages(sf_dir: str) -> ray.data.Dataset:
    """Fetch bodies exercising every lane of the charset/content-type
    sniff cascade, by doc_id%6: 0 -> UTF-8 BOM html carrying a LYING
    ``<meta charset=iso-8859-1>`` the BOM must override; 1 -> UTF-16LE
    BOM html with a non-ASCII word; 2 -> windows-1252 html whose meta
    declaration is the ONLY correct decode (bytes 0x93/0x94 are smart
    quotes in cp1252 but control chars under the latin-1 fallback — a
    matching hash proves detection, not luck); 3 -> bare utf-8 plain
    text; 4 -> a %PDF- binary; 5 -> a PNG binary. Binary junk bytes
    never surface in the output columns."""
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def to_bodies(batch: pa.Table) -> pa.Table:
        urls, bodies = [], []
        for d, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            branch = d % 6
            if branch == 0:
                s = (
                    '<html><head><meta charset="iso-8859-1"></head>'
                    f"<body><p>{t}</p></body></html>"
                )
                body = b"\xef\xbb\xbf" + s.encode("utf-8")
            elif branch == 1:
                s = f"<html><body><p>{t} café</p></body></html>"
                body = b"\xff\xfe" + s.encode("utf-16-le")
            elif branch == 2:
                s = (
                    '<html><head><meta charset="windows-1252"></head>'
                    f"<body><p>{t} “quoted”</p></body></html>"
                )
                body = s.encode("windows-1252")
            elif branch == 3:
                body = t.encode("utf-8")
            elif branch == 4:
                body = b"%PDF-1.7\n" + bytes([d % 256, 0, 255, 7])
            else:
                body = b"\x89PNG\r\n\x1a\n" + bytes([d % 256, 254])
            urls.append(f"https://fetch.example.org/{d:08d}")
            bodies.append(body)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(bodies, pa.binary()),
            }
        )

    return docs.map_batches(to_bodies, batch_format="pyarrow")


# Publicly documented test PANs (Visa / Mastercard / Amex) — Luhn-valid
# by construction; the "broken" variant bumps the check digit by one,
# which always fails Luhn (the check digit is unique given the rest).
_CARD_BASES = (
    "4532015112830366",
    "5425233430109903",
    "374245455400126",
)


def _fmt_card(digits: str, fmt: int) -> str:
    if fmt % 2 == 0:
        return digits
    groups = (
        [digits[0:4], digits[4:10], digits[10:]]
        if len(digits) == 15
        else [digits[i : i + 4] for i in range(0, len(digits), 4)]
    )
    return (" " if fmt == 1 else "-").join(groups)


def _card_texts(sf_dir: str) -> ray.data.Dataset:
    """Documents with one planted payment-card mention each: doc_id%3
    picks the brand (16/16/15 digits), doc_id%4 the grouping (plain /
    space / hyphen / plain), and doc_id%2 whether the number is the
    genuine test PAN (even: must be redacted) or its check-digit-broken
    variant (odd: must survive untouched)."""
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def plant(batch: pa.Table) -> pa.Table:
        ids, texts = [], []
        for d, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            base = _CARD_BASES[d % 3]
            if d % 2:
                base = base[:-1] + str((int(base[-1]) + 1) % 10)
            ids.append(d)
            texts.append(f"{t} pay {_fmt_card(base, d % 4)} ok")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return docs.map_batches(plant, batch_format="pyarrow")


def _q_pii_cards(sf_dir: str):
    """Luhn-gated payment-card redaction. The oracle replays the
    plant rule: even docs end '<CARD> ok' with n_cards=1, odd docs
    keep their broken number verbatim with n_cards=0 — so a green
    hash proves the regex found every grouping AND the Luhn gate
    separated valid from check-digit-broken numbers."""
    from pdf_extractor_ray.functions.scrub import redact_cards

    out = redact_cards(_card_texts(sf_dir))

    def fp(batch: pa.Table) -> pa.Table:
        import hashlib

        md5s = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_cards": batch["n_cards"],
                "redacted_md5": pa.array(md5s, pa.string()),
            }
        )

    return out.map_batches(fp, batch_format="pyarrow")


def _q_clean_export(sf_dir: str):
    """The dump-processing tail as ONE streaming chain: raw bytes ->
    charset sniff + decode (three encodings of the SAME logical text
    per 3-doc dup group: plain utf-8 / BOM utf-8 / BOM utf-16-le) ->
    Luhn card redaction -> email/phone/IP redaction -> exact dedup
    (min doc_id survives) -> per-survivor word count + fingerprint.
    The oracle rebuilds each group's redacted text (broken cards
    survive verbatim via the shared literal CASE) and replays the
    dedup rule — a green hash proves all three decode lanes converged
    byte-identically BEFORE hashing, both redactors fired exactly
    once, and the survivor rule picked the minimum doc over each
    distinct REDACTED text (groups differing only in their redacted
    email/card merge — the privacy-preserving dedup semantics; at
    sf0.1 that is 633 survivors, not 1667 groups)."""
    from pdf_extractor_ray.functions.dedup import exact_dedup
    from pdf_extractor_ray.functions.scrub import redact_cards, redact_pii
    from pdf_extractor_ray.functions.webclean import sniff_bodies

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_bodies(batch: pa.Table) -> pa.Table:
        ids, bodies = [], []
        for d in batch["doc_id"].to_pylist():
            g = d - d % 3
            base = _CARD_BASES[g % 3]
            if g % 2:
                base = base[:-1] + str((int(base[-1]) + 1) % 10)
            t = (
                f"corpus body {g % 211} café contact "
                f"u{g}@mail.example.org pay {_fmt_card(base, g % 4)} end"
            )
            branch = d % 3
            if branch == 0:
                body = t.encode("utf-8")
            elif branch == 1:
                body = b"\xef\xbb\xbf" + t.encode("utf-8")
            else:
                body = b"\xff\xfe" + t.encode("utf-16-le")
            ids.append(d)
            bodies.append(body)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "html": pa.array(bodies, pa.binary()),
            }
        )

    bodies = docs.map_batches(to_bodies, batch_format="pyarrow")
    decoded = sniff_bodies(bodies, emit_text=True)
    redacted = redact_pii(redact_cards(decoded))
    survivors = exact_dedup(redacted, text_col="text", id_col="doc_id")

    def project(batch: pa.Table) -> pa.Table:
        import hashlib

        texts = batch["text"].to_pylist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "charset": batch["charset"],
                "n_words": pa.array(
                    [len(t.split(" ")) for t in texts], pa.int64()
                ),
                "red_md5": pa.array(
                    [
                        hashlib.md5(t.encode("utf-8")).hexdigest()
                        for t in texts
                    ],
                    pa.string(),
                ),
            }
        )

    return survivors.map_batches(project, batch_format="pyarrow")


_LEXICON = ("zorblex", "quimvat", "drulpan", "xefgorb", "minthrax",
            "velqoru")


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


def _q_outlinks(sf_dir: str):
    """Outbound-link spam features over synthesized pages: d%6 links
    per page, every (d+j)%3==0-th external to one of 5 spam hosts,
    internal links alternating relative/absolute-same-host (both must
    count as internal), plus script/comment anchor decoys. The oracle
    replays the j-loop with a range unnest; zero-link pages emit
    zeroed rows through the left join."""
    from pdf_extractor_ray.functions.webgraph import outlink_features

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            own = f"h{d % 11}.example.org"
            links = []
            for j in range(d % 6):
                if (d + j) % 3 == 0:
                    links.append(
                        f'<a href="https://ext{(d + j) % 5}.example.net'
                        f'/x{j}">spam {j}</a>'
                    )
                elif j % 2:
                    links.append(f'<a href="/a{j}">rel {j}</a>')
                else:
                    links.append(
                        f'<a href="https://{own}/abs{j}">abs {j}</a>'
                    )
            urls.append(f"https://{own}/p{d}")
            htmls.append(
                (
                    "<html><body>"
                    "<!-- <a href='https://decoy.example/c'>c</a> -->"
                    + "".join(links)
                    + "<script>var a='<a href=\"https://decoy.example/s\">"
                    "s</a>';</script>"
                    f"<p>Doc {d}</p></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return outlink_features(docs.map_batches(to_pages, batch_format="pyarrow"))


def _q_url_features(sf_dir: str):
    """Lexical URL quality features over a synthesized URL mix (bare /
    subdomain / double-subdomain / IP-literal hosts x shallow-to-deep
    digit-heavy paths x 0-3 query params). The oracle recomputes every
    feature with DuckDB string kernels — digit density in integer
    per-mille so the compare is float-free."""
    from pdf_extractor_ray.functions.weburl import url_features

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        urls = []
        for d in batch["doc_id"].to_pylist():
            host = (
                "example.com",
                "blog.example.com",
                f"a{d % 7}.b.example.net",
                f"192.168.{d % 256}.{d % 200}",
            )[d % 4]
            path = ("/", f"/post/{d}", f"/a/{d % 10}/b-{d}/c{d * 3 % 1000}/")[
                d % 3
            ]
            query = ("", f"?id={d}", f"?id={d}&ref=rss&s={d % 7}", "", "")[
                d % 5
            ]
            urls.append(f"https://{host}{path}{query}")
        return pa.table({"url": pa.array(urls, pa.string())})

    return url_features(docs.map_batches(to_urls, batch_format="pyarrow"))


def _redirect_edges(sf_dir: str) -> ray.data.Dataset:
    """Redirect table over the doc-id URL space: docs with d%8 in
    {1,2,3} redirect one step down (chains 3->2->1->0, lengths 1-3
    ending at the d%8==0 terminal); docs with d%8==5 redirect to d+1
    and d%8==6 back to d-1 (a planted 2-cycle pair), the d%8==5 edge
    dropped at the table's upper boundary. d%8 in {0,4,7} emit no
    edge."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n_docs = docs.max("doc_id") + 1  # scalar driver state: one int

    def u(e: int) -> str:
        return f"https://r.example.org/{e}"

    def to_edges(batch: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for d in batch["doc_id"].to_pylist():
            r = d % 8
            if r in (1, 2, 3):
                srcs.append(u(d))
                dsts.append(u(d - 1))
            elif r == 5 and d + 1 < n_docs:
                srcs.append(u(d))
                dsts.append(u(d + 1))
            elif r == 6:
                srcs.append(u(d))
                dsts.append(u(d - 1))
        return pa.table(
            {
                "src_url": pa.array(srcs, pa.string()),
                "dst_url": pa.array(dsts, pa.string()),
            }
        )

    return docs.map_batches(to_edges, batch_format="pyarrow")


def _q_redirects(sf_dir: str):
    """Redirect-chain resolution by pointer doubling (log-round
    self-cogroup). The oracle recomputes final target and hop count
    arithmetically per chain rule and flags the planted 2-cycles; a
    green hash proves chains resolved transitively (not one hop) and
    loops were detected, not spun on."""
    from pdf_extractor_ray.functions.webgraph import resolve_redirects

    return resolve_redirects(_redirect_edges(sf_dir), max_rounds=4)


def _refresh_pages(sf_dir: str) -> ray.data.Dataset:
    """The redirect-edge rule of :func:`_redirect_edges` expressed as
    real pages: redirecting docs carry a ``<meta http-equiv=refresh>``
    naming the target (delay d%30, quote/case/attribute-order varied),
    non-redirecting docs carry either no refresh or a URL-LESS
    delay-only refresh (every 16th doc — reload, not redirect, must
    not become an edge). Every page carries a script-body refresh
    decoy pointing at a trap URL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n_docs = docs.max("doc_id") + 1

    def u(e: int) -> str:
        return f"https://r.example.org/{e}"

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            r = d % 8
            target = None
            if r in (1, 2, 3):
                target = u(d - 1)
            elif r == 5 and d + 1 < n_docs:
                target = u(d + 1)
            elif r == 6:
                target = u(d - 1)
            if target is not None:
                meta = (
                    f'<meta http-equiv="refresh" '
                    f'content="{d % 30}; url={target}">'
                    if d % 2
                    else f"<META CONTENT='{d % 30};URL={target}' "
                    "HTTP-EQUIV=Refresh>"
                )
            elif d % 16 == 0:
                meta = f'<meta http-equiv="refresh" content="{d % 30}">'
            else:
                meta = ""
            urls.append(u(d))
            htmls.append(
                (
                    f"<html><head>{meta}<title>Doc {d}</title></head>"
                    "<body><script>var m='<meta http-equiv=refresh "
                    "content=\"0;url=https://trap.example/x\">';</script>"
                    f"<p>Doc {d}</p></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _q_refresh_redirects(sf_dir: str):
    """Crawl-lifecycle composite: harvest meta-refresh redirect edges
    from real page HTML, then resolve chains/cycles by pointer
    doubling — one streaming execution, same oracle arithmetic as
    ``redirect_resolve``. A green hash proves the harvester read only
    genuine url-bearing refresh metas (no script decoys, no delay-only
    reloads) AND the resolver composed them transitively."""
    from pdf_extractor_ray.functions.webgraph import (
        page_refresh_edges,
        resolve_redirects,
    )

    edges = page_refresh_edges(_refresh_pages(sf_dir)).drop_columns(
        ["delay_s"]
    )
    return resolve_redirects(edges, max_rounds=4)


def _hreflang_pages(sf_dir: str) -> ray.data.Dataset:
    """Docs grouped 4-to-a-cluster (c = d//4): each page declares the
    full 4-language alternate set (de/en/fr/x-default) of its cluster,
    with attribute order flipped on odd docs, a rel token-list form
    (``alternate stylesheet``) on every 5th, a lang-less alternate and
    a script-body decoy on every page. The table tail's last cluster
    has fewer than 4 member pages but still declares all 4 URLs."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        langs = ("de", "en", "fr", "x-default")
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            c, v = d // 4, d % 4
            links = []
            for lg in langs:
                href = f"https://l.example.org/{c}/{lg}"
                links.append(
                    f'<link rel="alternate" hreflang="{lg}" href="{href}">'
                    if d % 2 == 0
                    else f"<link href='{href}' hreflang={lg} rel=alternate>"
                )
            if d % 5 == 0:
                links[0] = links[0].replace(
                    'rel="alternate"', 'rel="alternate stylesheet"'
                ).replace("rel=alternate", 'rel="alternate stylesheet"')
            urls.append(f"https://l.example.org/{c}/{langs[v]}")
            htmls.append(
                (
                    "<html><head>"
                    + "".join(links)
                    + '<link rel="alternate" href="/no-lang">'
                    "<script>var x='<link rel=alternate hreflang=zz "
                    "href=https://trap.example/x>';</script>"
                    f"</head><body><p>Doc {d}</p></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _q_hreflang(sf_dir: str):
    """hreflang language-variant clustering: parse alternate sets from
    real head HTML, key each page by the lexicographic-min declared
    URL, roll up per cluster in one coarse-bucket exchange. The oracle
    regenerates cluster membership from d//4 (tail cluster smaller)."""
    from pdf_extractor_ray.functions.webgraph import hreflang_clusters

    return hreflang_clusters(_hreflang_pages(sf_dir))


# Shared oracle for the HTTP-3xx and meta-refresh redirect queries:
# both plant the same chain/cycle rule over the doc-id URL space.
_REDIRECT_RESOLVE_SQL = """
    WITH n AS (SELECT max(doc_id) AS mx FROM documents),
    s AS (SELECT doc_id AS d, doc_id % 8 AS r FROM documents, n
          WHERE doc_id % 8 IN (1, 2, 3, 6)
             OR (doc_id % 8 = 5 AND doc_id + 1 <= mx))
    SELECT 'https://r.example.org/' || d AS src_url,
           CASE WHEN r IN (1, 2, 3)
                THEN 'https://r.example.org/' || (d - r)
                ELSE '' END AS final_url,
           CAST(CASE WHEN r IN (1, 2, 3) THEN r ELSE 0 END
                AS BIGINT) AS n_hops,
           CAST(CASE WHEN r IN (5, 6) THEN 1 ELSE 0 END
                AS BIGINT) AS is_cycle
    FROM s
"""


def _broken_card_case(expr: str) -> str:
    """SQL CASE over ``expr % 12`` yielding the check-digit-broken PAN
    literal for each odd (brand, grouping) combo — shared by every
    oracle that plants cards via the (id%3 brand, id%4 format, odd =
    broken) rule."""
    return (
        f"CASE {expr} % 12 "
        + " ".join(
            "WHEN {r} THEN '{lit}'".format(
                r=r,
                lit=_fmt_card(
                    _CARD_BASES[r % 3][:-1]
                    + str((int(_CARD_BASES[r % 3][-1]) + 1) % 10),
                    r % 4,
                ),
            )
            for r in (1, 3, 5, 7, 9, 11)
        )
        + " END"
    )


# Oracle for pii_cards: odd docs keep their broken number verbatim;
# the 6 odd (brand, grouping) combos are spelled out as literals.
_PII_CARDS_SQL = (
    "SELECT doc_id, "
    "CAST(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END AS BIGINT)"
    " AS n_cards, "
    "md5(text || ' pay ' || "
    "CASE WHEN doc_id % 2 = 0 THEN '<CARD>' ELSE "
    + _broken_card_case("doc_id")
    + " END || ' ok') AS redacted_md5 FROM documents"
)


def _sitemap_docs(sf_dir: str) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """(sitemaps, crawled) pair for frontier discovery. Every doc with
    d%5!=0 publishes a <urlset> sitemap listing the page URLs of docs
    {d, (d+1)%N, (d+7)%N} — whitespace-padded locs on odd d, a
    CDATA-wrapped loc on d%3==0, sm:-namespace-prefixed tags on
    d%7==0, and a comment-decoy loc on every sitemap. Docs with
    d%5==0 publish a <sitemapindex> instead (child-sitemap refs only:
    zero page discoveries — the classifier must not count them).
    The crawled set is the pages of docs with d%3==0."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n_docs = docs.max("doc_id") + 1  # scalar driver state: one int

    def page(e: int) -> str:
        return f"https://site.example.org/page/{e}"

    def to_sitemaps(batch: pa.Table) -> pa.Table:
        urls, xmls = [], []
        for d in batch["doc_id"].to_pylist():
            urls.append(f"https://h{d % 11}.example.org/sitemap-{d}.xml")
            if d % 5 == 0:
                xmls.append(
                    "<?xml version='1.0'?><sitemapindex>"
                    "<!-- <loc>https://decoy.example/idx</loc> -->"
                    f"<sitemap><loc>https://h{d % 11}.example.org/"
                    f"sitemap-{d}-child.xml</loc>"
                    "<lastmod>2020-01-01</lastmod></sitemap>"
                    "</sitemapindex>"
                )
                continue
            p = "sm:" if d % 7 == 0 else ""
            ns = (
                ' xmlns:sm="http://www.sitemaps.org/schemas/sitemap/0.9"'
                if p
                else ' xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"'
            )
            entries = []
            for e in (d, (d + 1) % n_docs, (d + 7) % n_docs):
                loc = page(e)
                if d % 3 == 0:
                    inner = f"<![CDATA[{loc}]]>"
                elif d % 2 == 1:
                    inner = f"\n  {loc} \n"
                else:
                    inner = loc
                entries.append(
                    f"<{p}url><{p}loc>{inner}</{p}loc>"
                    f"<{p}priority>0.5</{p}priority></{p}url>"
                )
            xmls.append(
                f"<?xml version='1.0'?><{p}urlset{ns}>"
                "<!-- <loc>https://decoy.example/page</loc> -->"
                + "".join(entries)
                + f"</{p}urlset>"
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "xml": pa.array(
                    [x.encode("utf-8") for x in xmls], pa.binary()
                ),
            }
        )

    def to_crawled(batch: pa.Table) -> pa.Table:
        urls = [
            page(d)
            for d in batch["doc_id"].to_pylist()
            if d % 3 == 0
        ]
        return pa.table({"url": pa.array(urls, pa.string())})

    return (
        docs.map_batches(to_sitemaps, batch_format="pyarrow"),
        docs.map_batches(to_crawled, batch_format="pyarrow"),
    )


def _q_sitemap_discover(sf_dir: str):
    """Sitemap-based frontier discovery: parse urlset/sitemapindex XML
    (comments, CDATA, namespace prefixes), count listings per page
    URL, anti-join the crawled set in one hash-bucket exchange. The
    oracle regenerates the three-loc listing rule per publishing doc
    and the d%3==0 crawled set in pure arithmetic."""
    from pdf_extractor_ray.functions.weburl import sitemap_discover

    sitemaps, crawled = _sitemap_docs(sf_dir)
    return sitemap_discover(sitemaps, crawled)


def _q_discovery_chain(sf_dir: str):
    """The crawl's FULL discovery chain in one streaming execution:
    robots.txt fetch -> ``Sitemap:`` declarations (RFC 9309 global
    lines; commented decoys stripped; declarations of nonexistent
    files dropped by the join) -> hash-partitioned semi-join keeps
    only declared sitemap documents (official = d%3==0 publishers) ->
    urlset parse -> count + anti-join vs the crawled set. The oracle
    restricts the generation rule to declared publishers."""
    from pdf_extractor_ray.functions.weburl import (
        filter_declared_sitemaps,
        robots_sitemap_urls,
        sitemap_discover,
    )

    sitemaps, crawled = _sitemap_docs(sf_dir)
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n_docs = docs.max("doc_id") + 1

    def to_robots(batch: pa.Table) -> pa.Table:
        hosts, texts = [], []
        for h in batch["id"].to_pylist():
            lines = [
                "User-agent: *",
                "Disallow: /private",
                f"# Sitemap: https://h{h}.example.org/sitemap-decoy.xml",
                f"SITEMAP: https://h{h}.example.org/"
                f"sitemap-{n_docs + h}.xml",  # declared but nonexistent
            ]
            for d in range(h, n_docs, 11):
                if d % 5 != 0 and d % 3 == 0:
                    lines.append(
                        f"Sitemap: https://h{h}.example.org/sitemap-{d}.xml"
                    )
            hosts.append(f"h{h}.example.org")
            texts.append("\n".join(lines))
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "robots_txt": pa.array(texts, pa.string()),
            }
        )

    robots = ray.data.range(11).map_batches(
        to_robots, batch_format="pyarrow"
    )
    declared = robots_sitemap_urls(robots)
    kept = filter_declared_sitemaps(sitemaps, declared)
    return sitemap_discover(kept, crawled)


def _q_charset_sniff(sf_dir: str):
    """Content-type + charset sniffing over raw fetch bodies (magic >
    BOM > meta declaration > utf-8/latin-1 fallback). The oracle
    rebuilds each branch's logical decoded string in SQL and compares
    md5 + codepoint length — the cp1252 branch only matches if the
    meta-declared codec actually drove the decode."""
    from pdf_extractor_ray.functions.webclean import sniff_bodies

    return sniff_bodies(_sniff_pages(sf_dir))


def _q_date_extract(sf_dir: str):
    """Publication-date extraction (htmldate-style cascade: meta >
    <time> > URL path, per-source plausibility gate). The oracle
    recomputes date and source from the wrapper's doc_id arithmetic;
    a green hash proves the parser read the right source on every
    branch, rejected the 2050 decoy, never saw the script/comment
    metas, and zero-padded the URL-path date."""
    from pdf_extractor_ray.functions.webgraph import page_pub_dates

    return page_pub_dates(_dated_pages(sf_dir))


def _content_pages(
    sf_dir: str, curation_head: bool = False
) -> ray.data.Dataset:
    """Documents rendered as full pages with deterministic boilerplate
    for the main-content extractor: a nav block of 3+d%4 pure-link
    words, an ``<h1>Doc d</h1>``, the doc text split into paragraphs
    of 11+d%7 words (the first word of every (d+i)%5==0 paragraph
    wrapped in an inline anchor), and a footer of 2+d%3 pure-link
    words — plus a script-body paragraph decoy and a comment decoy
    that a correct tokenizer never sees. Every block's word count and
    link-word count (hence the whole WSDM-2010 decision tree) is a
    pure function of (doc_id, text) the oracle replays.

    With ``curation_head=True`` (the web_curation composite), urls
    spread over 11 hosts and each page gains a ``<head>`` with a
    title plus — for every 13th doc — a robots-noindex meta. The
    ``<head>`` subtree is invisible to the block classifier
    (kernel/content_extract.py ``_SKIP_CONTENT``), so the block
    oracle stack is IDENTICAL for both page shapes."""
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = text.split(" ")
            csz = 11 + d % 7
            nav = " ".join(
                f'<a href="/n{k}">nav{d}w{k}</a>' for k in range(3 + d % 4)
            )
            paras = []
            for i in range(0, len(ws), csz):
                chunk = ws[i : i + csz]
                pi = i // csz
                if (d + pi) % 5 == 0:
                    chunk = [f'<a href="/x{d}">{chunk[0]}</a>'] + chunk[1:]
                paras.append(f"<p>{' '.join(chunk)}</p>")
            foot = " ".join(
                f'<a href="/f{k}">foot{d}w{k}</a>' for k in range(2 + d % 3)
            )
            if curation_head:
                urls.append(f"https://h{d % 11}.example.org/d/{d:08d}")
                head = (
                    f"<head><title>Doc {d}</title>"
                    + (
                        '<meta name="robots" content="noindex">'
                        if d % 13 == 0
                        else ""
                    )
                    + "</head>"
                )
            else:
                urls.append(f"https://docs.example.org/{d:08d}")
                head = ""
            htmls.append(
                (
                    f'<html>{head}<body><div class="nav">{nav}</div>'
                    f"<h1>Doc {d}</h1>"
                    "<script>var x='<p>decoy decoy decoy</p>';</script>"
                    "<!-- <p>comment decoy</p> -->"
                    f"{''.join(paras)}"
                    f"<div>{foot}</div></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _q_content_blocks(sf_dir: str):
    """Text-density block segmentation + NumWordsRules labels over
    real HTML: one row per block with its features and classification.
    The oracle rebuilds every block's (words, link-words) from the
    wrapper rule and replays the exact-integer decision tree with
    LAG/LEAD; is_content is cast to int64 for a NaN-free compare."""
    from pdf_extractor_ray.functions.content import content_blocks

    out = content_blocks(_content_pages(sf_dir))

    def cast(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("is_content"),
            "is_content",
            pc.cast(batch["is_content"], pa.int64()),
        )

    return out.map_batches(cast, batch_format="pyarrow")


def _q_main_content(sf_dir: str):
    """Per-page main-content rollup: boilerplate stripped, content
    blocks joined; main_md5 commits to the exact extracted bytes so a
    green hash proves byte-identical extraction vs the oracle's
    reconstruction."""
    from pdf_extractor_ray.functions.content import main_content

    return main_content(_content_pages(sf_dir))


def _q_frontier_schedule(sf_dir: str):
    """Politeness-aware crawl-frontier scheduling: per-host fetch
    slots (priority DESC, url ASC) with a 3 s politeness delay and a
    7-fetch per-host budget, over a deterministic 23-host frontier.
    The oracle replays the rank with ROW_NUMBER() and the timestamps
    with integer arithmetic."""
    from pdf_extractor_ray.functions.weburl import frontier_schedule

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_frontier(batch: pa.Table) -> pa.Table:
        urls, prios = [], []
        for d in batch["doc_id"].to_pylist():
            urls.append(f"https://h{d % 23}.example.org/p/{d:06d}")
            prios.append(d * 37 % 1000)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "priority": pa.array(prios, pa.int64()),
            }
        )

    frontier = docs.map_batches(to_frontier, batch_format="pyarrow")
    return frontier_schedule(
        frontier,
        delay_s=3,
        max_per_host=7,
        crawl_start=1_700_000_000,
    )


def _q_web_curation(sf_dir: str):
    """The flagship web-curation composite, one streaming execution,
    every stage a prior oracle-green operator: pages (11 hosts, head
    metadata) -> robots-noindex gate (head-meta kernel; drops every
    13th doc) -> WSDM-2010 main-content extraction -> quality gate
    (content_words >= 40) -> per-host cap (20 docs/host by the
    deterministic md5 rank, stat columns riding the exchange). The
    oracle replays the whole chain: the content_blocks CTE stack ->
    per-doc rollup -> the two gates -> a partitioned row_number cap.
    main_md5 commits to the exact extracted bytes end-to-end."""
    from pdf_extractor_ray.functions.content import main_content
    from pdf_extractor_ray.functions.weburl import cap_per_domain
    from pdf_extractor_ray.kernel.html_to_md import extract_head_meta

    pages = _content_pages(sf_dir, curation_head=True)

    def noindex_gate(batch: pa.Table) -> pa.Table:
        keep = []
        for h in batch["html"].to_pylist():
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else (h or "")
            )
            robots = (extract_head_meta(s)["robots"] or "").lower()
            keep.append(
                "noindex" not in robots.replace(" ", "").split(",")
            )
        return batch.filter(pa.array(keep, pa.bool_()))

    mc = main_content(
        pages.map_batches(noindex_gate, batch_format="pyarrow")
    )

    def finalize(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.greater_equal(
                batch["content_words"], pa.scalar(40, pa.int64())
            )
        )
        tail = pc.extract_regex(t["url"], r"/d/(?P<id>[0-9]+)$")
        return pa.table(
            {
                "doc_id": pc.cast(
                    pc.struct_field(tail, ["id"]), pa.int64()
                ),
                "url": t["url"],
                "content_words": t["content_words"],
                "main_md5": t["main_md5"],
            }
        )

    return cap_per_domain(
        mc.map_batches(finalize, batch_format="pyarrow"),
        url_col="url",
        id_col="doc_id",
        k=20,
        keep_cols=["content_words", "main_md5"],
    )


def _q_url_templates(sf_dir: str):
    """Structural URL-template mining over a deterministic 5-pattern
    x 7-host crawl frontier (product pages, dated blog posts, user
    profiles, a static page, flat item files): every digit run in the
    path collapses to '{n}', urls are counted per template, exact
    global top-25 by (n DESC, template ASC). The oracle rebuilds the
    urls from the same rule and replays the templating with
    regexp_replace."""
    from pdf_extractor_ray.functions.weburl import url_templates

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        urls = []
        for d in batch["doc_id"].to_pylist():
            p = d % 5
            if p == 0:
                path = f"/product/{d}/view"
            elif p == 1:
                path = f"/blog/2024/{d % 12 + 1:02d}/post-{d}"
            elif p == 2:
                path = f"/user/{d}/profile"
            elif p == 3:
                path = "/static/about"
            else:
                path = f"/item{d}.html"
            urls.append(f"https://h{d % 7}.example.org{path}")
        return pa.table({"url": pa.array(urls, pa.string())})

    return url_templates(
        docs.map_batches(to_urls, batch_format="pyarrow"), k=25
    )


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


def _q_link_graph(sf_dir: str):
    """Distributed HTML link harvesting: the kernel tokenizer walks
    each page (script bodies skipped — the planted decoy anchor must
    NOT appear; inner <b> markup stripped from anchor text) and emits
    one (src_url, pos, href, anchor) edge per anchor tag. The oracle
    rebuilds the exact expected edge list from the deterministic
    wrapper rule."""
    from pdf_extractor_ray.functions.webgraph import extract_links

    return extract_links(_linked_pages(sf_dir))


def _q_anchor_stats(sf_dir: str):
    """Per-target inbound-link stats over the harvested edges:
    (href, n_inlinks, n_src) via distinct-pair partials + one coarse
    href-hash exchange — the anchor-aggregation step search engines
    run over the whole crawl."""
    from pdf_extractor_ray.functions.webgraph import anchor_stats, extract_links

    return anchor_stats(extract_links(_linked_pages(sf_dir)))


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


def _q_token_chunks(sf_dir: str):
    """GPT-style concat-and-split over a SQL-derivable token stream:
    doc d contributes one token (d*31 + j) % 32000 per word j, the
    global stream (doc_id order) is cut into 512-token chunks by the
    distributed prefix-sum + piece-assembly operator
    (functions/packing.py token_stream_chunks), and each chunk's
    ids_md5 pins exact content and order. The oracle replays the
    stream with a window cumsum and string_agg(... ORDER BY pos)."""
    from pdf_extractor_ray.functions.packing import token_stream_chunks

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    to_ids = _synthetic_token_ids()

    chunks = token_stream_chunks(
        docs.map_batches(to_ids, batch_format="pyarrow"), chunk_len=512
    )
    return _chunks_with_md5(chunks)


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
    from pdf_extractor_ray.functions.packing import token_stream_chunks

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    to_ids = _synthetic_token_ids()

    chunks = token_stream_chunks(
        docs.map_batches(to_ids, batch_format="pyarrow"), chunk_len=512
    )
    out_dir = os.path.join(
        "/tmp/graft_bin_export", os.path.basename(sf_dir.rstrip("/"))
    )
    shards = export_token_bin_shards(chunks, out_dir, n_shards=4)
    return read_token_bin_manifest(out_dir, shards)


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
    from pdf_extractor_ray.functions.packing import token_stream_chunks

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    to_ids = _synthetic_token_ids()

    chunks = token_stream_chunks(
        docs.map_batches(to_ids, batch_format="pyarrow"), chunk_len=512
    )
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
    from pdf_extractor_ray.functions.packing import token_stream_chunks

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    to_ids = _synthetic_token_ids()

    chunks = token_stream_chunks(
        docs.map_batches(to_ids, batch_format="pyarrow"), chunk_len=512
    )
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


# ---------------------------------------------------------------- entry


def entry() -> Any:
    """Flagship: extraction pipeline over pages derived from sf0.001."""
    from pdf_extractor_ray.pipelines import extract_pages

    pages = _pages_from_documents("/root/testdata/sf0.001")
    ds = extract_pages(pages)
    return ds.select_columns(
        [
            "url", "kind", "status", "n_elements", "n_text", "n_heading",
            "n_table", "n_code", "n_image", "n_tokens",
        ]
    )


# -------------------------------------------------------------- queries


def _q_extract_corpus(sf_dir: str):
    """Flagship extraction with a value-level oracle: per-url element
    counts, token totals, and an md5 fingerprint of the extracted text.
    The synthetic page wrapper is deterministic (heading 'Document {id}'
    auto-numbered to '1. ...' + the document text round-tripped
    byte-identically through html->md->elements), so the oracle SQL can
    rebuild the exact extracted text and token counts from `documents`."""
    from pdf_extractor_ray.pipelines import extract_pages

    ds = extract_pages(_pages_from_documents(sf_dir))

    def add_fp(batch: pa.Table) -> pa.Table:
        import hashlib

        fps = [
            hashlib.md5(t.encode("utf-8", errors="replace")).hexdigest()
            for t in batch["extracted_text"].to_pylist()
        ]
        return batch.append_column("extract_fp", pa.array(fps, pa.string()))

    return ds.map_batches(add_fp, batch_format="pyarrow").select_columns(
        [
            "url", "kind", "status", "n_elements", "n_text", "n_heading",
            "n_table", "n_code", "n_image", "n_tokens", "extract_fp",
        ]
    )


def _q_extract_synthetic(sf_dir: str):
    """Extraction over the self-generated mixed corpus (HTML +
    pdf-shaped + edge cases, fixed 1000 rows — deterministic regardless
    of sf); per-kind rollup."""
    from pdf_extractor_ray.pipelines import extract_pages
    from pdf_extractor_ray.sources.corpus import pages_table

    n = 1000
    pages = ray.data.from_arrow(pages_table(0, n))
    ds = extract_pages(pages)
    return ds.groupby("kind").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_elements", alias_name="n_elements"),
        Sum("n_table", alias_name="n_tables"),
        Sum("n_tokens", alias_name="n_tokens"),
    )


def _q_dedup_exact(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import exact_dedup_summary

    return exact_dedup_summary(_docs_with_dups(sf_dir))


def _q_dedup_exact_rows(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import exact_dedup

    out = exact_dedup(_docs_with_dups(sf_dir))
    return out.select_columns(["doc_id", "text_hash"])


def _q_dedup_minhash(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs

    out = minhash_dedup_pairs(_docs_with_dups(sf_dir), threshold=0.8)
    return out.select_columns(["doc_a", "doc_b"])


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


def _q_dedup_simhash(sf_dir: str):
    from pdf_extractor_ray.functions.dedup import simhash_dedup_pairs

    return simhash_dedup_pairs(_docs_with_dups(sf_dir), max_hamming=3)


def _q_dup_ngram_spans(sf_dir: str):
    """Exact substring-duplication signal (Lee et al. 2022): per doc,
    total word-5-gram positions and how many carry a 5-gram occurring
    >1 time corpus-wide. Two coarse exchanges (hash bucket, then doc
    bucket); the planted exact copies light up with n_dup == n_ngrams."""
    from pdf_extractor_ray.functions.dedup import dup_ngram_span_stats

    return dup_ngram_span_stats(_docs_with_dups(sf_dir), n=5)


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


def _q_strip_spans_min8(sf_dir: str):
    return _q_strip_spans_min(sf_dir, 8)


def _q_strip_spans_min30(sf_dir: str):
    return _q_strip_spans_min(sf_dir, 30)


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


def _q_dup_clusters(sf_dir: str):
    """Transitive near-dup clusters: verified MinHash pairs fed to the
    distributed hash-min connected-components pass (A~B, B~C put A and
    C in one cluster even when A!~C). cluster_id = min member id."""
    from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs
    from pdf_extractor_ray.functions.graph import connected_components

    pairs = minhash_dedup_pairs(_docs_with_dups(sf_dir), threshold=0.8)
    return connected_components(pairs)


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


def _load_query_vectors(sf_dir: str, n: int):
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").head(n)
    ids = df["vec_id"].tolist()
    mat = np.asarray([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    return ids, mat


def _q_knn_brute(sf_dir: str):
    from pdf_extractor_ray.functions.similarity import knn_bruteforce

    ids, mat = _load_query_vectors(sf_dir, 5)
    emb = ray.data.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    out = knn_bruteforce(emb, mat, ids, k=6)  # pandas (bounded candidates)
    out = out[out["neighbor_id"] != out["query_id"]]
    out = out.groupby("query_id", as_index=False).head(5).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", "neighbor_id", "rank"]]


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


def _q_skew_join(sf_dir: str):
    """Skew-aware hash join over an induced hot key: every 5th event
    lands on key 0 (~20% of the fact mass — the one-domain-dominates
    crawl shape), the rest spread over 997 keys. skew_join detects the
    heavy hitter from per-batch local tops, broadcasts its build row,
    and shuffles only the cold mass. Output: exact per-class rollup
    (hot vs cold) of joined rows; oracle = the plain JOIN + CASE
    rollup — the skew split is pure routing, so results are identical
    whichever path a key takes."""
    from pdf_extractor_ray.functions.relational import skew_join

    ev = ray.data.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        k = np.where(uid % 5 == 0, 0, uid % 997).astype(np.int64)
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "event_id": batch["event_id"],
            }
        )

    big = ev.map_batches(keyed, batch_format="pyarrow").materialize()

    def mk_dim(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array(ids, pa.int64()),
                "w": pa.array(ids * 3 + 1, pa.int64()),
            }
        )

    dim = (
        ray.data.range(997)
        .map_batches(mk_dim, batch_format="pyarrow")
        .materialize()
    )

    joined = skew_join(big, dim, on="k", hot_permille=50)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {"k_class": pd.Series(dtype="object"),
                 "n_rows": pd.Series(dtype="int64"),
                 "sum_w": pd.Series(dtype="int64"),
                 "sum_event": pd.Series(dtype="int64")}
            )
        batch = batch.assign(
            k_class=np.where(batch["k"] == 0, "hot", "cold")
        )
        g = batch.groupby("k_class", as_index=False).agg(
            n_rows=("k", "size"),
            sum_w=("w", "sum"),
            sum_event=("event_id", "sum"),
        )
        return g

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k_class": [group["k_class"].iloc[0]],
                "n_rows": np.int64(group["n_rows"].sum()),
                "sum_w": np.int64(group["sum_w"].sum()),
                "sum_event": np.int64(group["sum_event"].sum()),
            }
        )

    return (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("k_class")
        .map_groups(fold, batch_format="pandas")
    )


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


def _stats_ds(sf_dir: str) -> ray.data.Dataset:
    from pdf_extractor_ray.functions.textstats import doc_stats_batch

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    return docs.map_batches(doc_stats_batch, batch_format="pyarrow")


def _q_text_stats(sf_dir: str):
    return _stats_ds(sf_dir).groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_words", alias_name="sum_words"),
        Sum("n_tokens", alias_name="sum_tokens"),
        Sum("n_punct", alias_name="sum_punct"),
    )


def _q_lang_id(sf_dir: str):
    return (
        _stats_ds(sf_dir)
        .groupby(["lang", "pred_lang"])
        .aggregate(Count(alias_name="n_docs"))
    )


def _q_quality_hist(sf_dir: str):
    return (
        _stats_ds(sf_dir)
        .groupby(["lang", "quality_class"])
        .aggregate(Count(alias_name="n_docs"))
    )


def _q_fingerprint(sf_dir: str):
    return _stats_ds(sf_dir).select_columns(["doc_id", "fingerprint"])


def _q_winnow(sf_dir: str):
    """Winnowing (MOSS) fingerprints: per-doc window-min sketch counts,
    order-exact fingerprint digest, and cross-doc shared-hash counts."""
    from pdf_extractor_ray.functions.winnow import winnow_fingerprints

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return winnow_fingerprints(docs, k=4, w=5)


def _q_q1_pricing(sf_dir: str):
    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_c": _cents(batch["l_quantity"]),
                "base_c": _cents(batch["l_extendedprice"]),
                "disc_c": _cents(disc),
            }
        )
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty_c=("qty_c", "sum"),
            sum_base_c=("base_c", "sum"),
            sum_disc_c=("disc_c", "sum"),
            n_rows=("qty_c", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty_c", alias_name="sum_qty_c"),
            Sum("sum_base_c", alias_name="sum_base_c"),
            Sum("sum_disc_c", alias_name="sum_disc_c"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )


def _q_q3_top_orders(sf_dir: str):
    import pyarrow.parquet as pq

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = pq.read_table(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    ).to_pandas()
    customer = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()

    # Broadcast semi-join BEFORE the aggregation: only lineitems of
    # BUILDING-segment orders enter the shuffle (~1/5 of keys), the
    # rest never leave their batch.
    seg_keys = np.sort(
        orders.merge(
            customer.loc[customer["c_mktsegment"] == "BUILDING", ["c_custkey"]],
            left_on="o_custkey",
            right_on="c_custkey",
        )["o_orderkey"].to_numpy()
    )
    keys_ref = ray.put(seg_keys)

    # Stateless task, not an actor pool: ray.get of a numpy array is a
    # zero-copy plasma read, so re-"loading" the broadcast per batch is
    # free and the task form skips the actor pool's slow ramp-up.
    def partial(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys, ok)
        idx[idx >= len(keys)] = 0
        mask = keys[idx] == ok
        batch = batch.filter(pa.array(mask))
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        df = pa.table(
            {"l_orderkey": batch["l_orderkey"], "rev_c": _cents(disc)}
        ).to_pandas()
        g = df.groupby("l_orderkey", as_index=False).agg(
            revenue_c=("rev_c", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    # Coarse orderkey-bucket exchange, in-bucket merge, and per-bucket
    # top-10 pruning (the global top-10 is a subset of the union of
    # bucket top-10s) — the final sort sees 256 x 10 rows, and no
    # order-cardinality group set ever hits the aggregate machinery.
    def bucket_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("l_orderkey", as_index=False).agg(
            revenue_c=("revenue_c", "sum")
        )
        return g.sort_values(
            ["revenue_c", "l_orderkey"], ascending=[False, True]
        ).head(10)

    per_order = cogroup(
        {"group": (lineitem.map_batches(partial, batch_format="pyarrow"), "l_orderkey")},
        lambda group: bucket_topk(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )
    return per_order.sort(
        ["revenue_c", "l_orderkey"], descending=[True, False]
    ).limit(10)


def _q_events_window(sf_dir: str):
    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )

    def bucket(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")), pa.int64())
        # numpy // floors toward -inf, matching the oracle's floor();
        # per-batch partial agg so the shuffle carries windows, not events
        secs = us.to_numpy(zero_copy_only=False) // 1_000_000
        win = (secs // 3600) * 3600
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "window_start": win,
                "value_c": _cents(batch["value"]).to_numpy(),
            }
        )
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value_c", "size"), sum_value_c=("value_c", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        events.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_c", alias_name="sum_value_c"),
        )
    )


def _q_events_hopping(sf_dir: str):
    from pdf_extractor_ray.functions.relational import events_hopping_window

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )
    return events_hopping_window(events, size_s=3600, hop_s=1800)


def _q_events_pivot(sf_dir: str):
    """Pivot: one row per user, one count column per event type. The
    pivot happens inside each batch (pandas crosstab -> fixed columns),
    so the shuffle carries one row per user per batch with 5 int
    columns — never the raw event stream."""
    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    types = ["click", "error", "purchase", "signup", "view"]

    cols = [f"n_{t}" for t in types]

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"user_id": batch["user_id"], "event_type": batch["event_type"]}
        ).to_pandas()
        pv = pd.crosstab(df["user_id"], df["event_type"])
        for t in types:
            if t not in pv.columns:
                pv[t] = 0
        pv = pv[types].reset_index()
        pv.columns = ["user_id"] + cols
        return pa.Table.from_pandas(pv, preserve_index=False)

    # coarse user-bucket exchange + in-bucket merge (user-cardinality
    # aggregate groups are the 10M-row pathology)
    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("user_id", as_index=False)[cols].sum()

    return cogroup(
        {"group": (events.map_batches(partial, batch_format="pyarrow"), "user_id")},
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )


def _q_pricing_rollup(sf_dir: str):
    """Grouping-sets rollup: revenue at (flag, status), (flag), and
    grand-total levels, each from the SAME per-batch partials — the
    fine-grained aggregate re-aggregates to the coarser levels without
    touching the fact table again. NULL group keys encode the level
    (SQL ROLLUP convention)."""
    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "rev_c": _cents(disc),
            }
        )
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            revenue_c=("rev_c", "sum"), n_rows=("rev_c", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("revenue_c", alias_name="revenue_c"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )
    fine_df = fine.to_pandas()  # tiny (6 rows)
    by_flag = (
        fine_df.groupby("l_returnflag", as_index=False)[["revenue_c", "n_rows"]]
        .sum()
        .assign(l_linestatus=None)
    )
    total = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "revenue_c": [fine_df["revenue_c"].sum()],
            "n_rows": [fine_df["n_rows"].sum()],
        }
    )
    cols = ["l_returnflag", "l_linestatus", "revenue_c", "n_rows"]
    return pd.concat(
        [fine_df[cols], by_flag[cols], total[cols]], ignore_index=True
    )


def _q_value_quantiles(sf_dir: str):
    from pdf_extractor_ray.functions.relational import exact_quantiles

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "value"]
    )
    return exact_quantiles(events, qs=(0.5, 0.9))


def _q_crawl_refresh(sf_dir: str):
    """Crawl-refresh compaction (last-writer-wins per url): documents
    wear synthetic versioned urls (doc_id % 200, ~2-3 dumps' worth of
    versions per url) and a deterministic fetch_ts; keep the newest
    version per url via the coarse url-bucket exchange."""
    from pdf_extractor_ray.functions.dedup import latest_version

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

    return latest_version(docs.map_batches(versions, batch_format="pyarrow"))


def _q_scd2_history(sf_dir: str):
    """SCD type-2 history build over the crawl_refresh versioned
    input: every (url, version) becomes a [valid_from, valid_to)
    interval with the next fetch as the exclusive end (open end
    9_999_999 on the current row). One url-bucket exchange; the
    oracle replays the lead() window."""
    from pdf_extractor_ray.functions.dedup import scd2_history

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

    return scd2_history(docs.map_batches(versions, batch_format="pyarrow"))


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


def _q_inverted_index(sf_dir: str):
    """Sharded inverted-index build: per term (df >= 5), document
    frequency + md5 fingerprint of the sorted postings list."""
    from pdf_extractor_ray.functions.textstats import inverted_index_summary

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return inverted_index_summary(docs, min_df=5)


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


def _q_distinct_users(sf_dir: str):
    from pdf_extractor_ray.functions.relational import distinct_users_per_type

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return distinct_users_per_type(events)


def _q_distinct_users_hll(sf_dir: str):
    """Sketch path for distinct counting (HLL, ~1.6% error at 2^12
    registers) — approximate, so rows-only at the gate; the test suite
    asserts the estimates against the exact counts."""
    from pdf_extractor_ray.functions.sketches import hll_distinct_per_key

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return hll_distinct_per_key(events)


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


def _q_hll_estimate(sf_dir: str):
    """Exact-integer HLL estimate per key: harmonic power sum in
    HUGEINT milli-units + exhaustively-verified linear-counting
    branch — an APPROXIMATE algorithm with an EXACT-value gate."""
    from pdf_extractor_ray.functions.sketches import hll_md5_estimate

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    return hll_md5_estimate(events, p=8)


def _q_cms_counters(sf_dir: str):
    """Count-Min sketch counter grid (4x512) over the corpus word
    stream; per-batch collapse keeps the exchange sketch-sized."""
    from pdf_extractor_ray.functions.sketches import cms_register_table

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return cms_register_table(docs, depth=4, width=512)


def _q_cms_topk(sf_dir: str):
    """Exact global top-20 words annotated with their Count-Min
    estimate (min over 4 rows) — n_cms >= n_exact always; the oracle
    replays both legs and the k-bounded join."""
    from pdf_extractor_ray.functions.sketches import cms_topk_report

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return cms_topk_report(docs, k=20)


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


def _q_rake_keywords(sf_dir: str):
    """Corpus-level RAKE keyphrases (Rose et al. 2010): exact integer
    degree/frequency scores over the aggregated phrase vocabulary;
    the token stream never crosses the exchange."""
    from pdf_extractor_ray.functions.keywords import rake_keywords

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return rake_keywords(docs, k=20, min_count=2)


def _q_ngram_novelty(sf_dir: str):
    """Per-document novelty vs all earlier docs (min-doc-id first
    ownership of distinct 3-grams) — the 'keep first copy' curation
    signal, one pair-stream exchange with in-bucket reduction."""
    from pdf_extractor_ray.functions.keywords import ngram_novelty

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return ngram_novelty(docs, n=3)


def _q_anti_join(sf_dir: str):
    """Big-big anti join (TPC-H Q22 core): customers with no URGENT
    order, per nation — bucket cogroup with per-batch distinct
    collapse on the order side and in-bucket pre-aggregation. (Every
    customer in this corpus has SOME order, so the filter keeps the
    anti-join non-degenerate.)"""
    from pdf_extractor_ray.functions.relational import customers_without_orders

    customer = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderpriority"]
    )

    def urgent_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.equal(batch["o_orderpriority"], "1-URGENT")
        ).select(["o_custkey"])

    return customers_without_orders(
        customer, orders.map_batches(urgent_only, batch_format="pyarrow")
    )


def _q_semi_join(sf_dir: str):
    """Big-big SEMI join (TPC-H Q4 shape): orders with >=1 returned
    lineitem, per priority — EXISTS semantics via per-batch distinct
    collapse, bucket cogroup, in-bucket pre-aggregation."""
    from pdf_extractor_ray.functions.relational import orders_with_returns

    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    lineitem = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_returnflag"]
    )
    return orders_with_returns(orders, lineitem)


def _q_semi_join_bloom(sf_dir: str):
    """Same semi join through the Bloom-pushdown path (2^20-bit
    broadcast filter prunes the orders side BEFORE the exchange;
    false positives still hit the exact in-bucket check, so the
    result — and the oracle — are identical to `semi_join`)."""
    from pdf_extractor_ray.functions.relational import orders_with_returns

    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    lineitem = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_returnflag"]
    )
    return orders_with_returns(orders, lineitem, bloom_bits_p=20)


def _q_custdist(sf_dir: str):
    """TPC-H Q13: customer count by order count, zero-order customers
    included — left-outer reduced to a histogram; the second exchange
    carries per-(bucket, c_count) rows, never per-customer rows."""
    from pdf_extractor_ray.functions.relational import customer_order_distribution

    customer = _rp(_t(sf_dir, "customer"), columns=["c_custkey"])
    orders = _rp(_t(sf_dir, "orders"), columns=["o_custkey"])
    return customer_order_distribution(customer, orders)


def _q_editdist_neardup(sf_dir: str):
    """Blocked exact-Levenshtein near-dup scan: top-50 most-similar
    in-block pairs under a total order. Distances are UTF-8-byte
    Levenshtein (DuckDB semantics), verified exact vs the oracle."""
    from pdf_extractor_ray.functions.editdist import blocked_edit_distance

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return blocked_edit_distance(docs, len_band=64, top_pairs=50)


def _q_triangles(sf_dir: str):
    """Exact triangle count over the deterministic affine link graph
    (same graph as `pagerank`): degree-oriented wedge-check — the
    orientation bounds max out-degree at O(sqrt(m)), which is the
    thing that makes a hub-skewed web graph countable at all."""
    from pdf_extractor_ray.functions.graph import triangle_count

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        df = pd.DataFrame({"src": src, "dst": dst})
        df = df[df["src"] != df["dst"]].drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    return triangle_count(docs.map_batches(mk_edges, batch_format="pyarrow"))


def _q_random_walks(sf_dir: str):
    """Deterministic DeepWalk corpus over the affine 3-out-link graph
    (same graph as `pagerank`/`triangles`): 2 walks per source node,
    length 6, step choice = first-8-md5-hex("node:step:walk") %
    outdeg over ascending-ranked outlinks — exactly replayed by the
    oracle's recursive CTE. Edge set exchanged once into shard
    actors; each round moves only live walk-state triples."""
    from pdf_extractor_ray.functions.graph import random_walks

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        keep = src != dst
        return pa.table({"src": src[keep], "dst": dst[keep]})

    return random_walks(
        docs.map_batches(mk_edges, batch_format="pyarrow"),
        walk_len=6,
        walks_per_node=2,
    )


def _q_walk_skipgrams(sf_dir: str):
    """DeepWalk training-pair extraction composed on the walk corpus:
    skip-gram (center, context) counts with window 2 over the same
    deterministic walks as `random_walks` — one walk-bucket exchange
    (pairs pre-aggregated in bucket) + one pair-bucket sum."""
    from pdf_extractor_ray.functions.graph import random_walks, skipgram_pairs

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        keep = src != dst
        return pa.table({"src": src[keep], "dst": dst[keep]})

    walks = random_walks(
        docs.map_batches(mk_edges, batch_format="pyarrow"),
        walk_len=6,
        walks_per_node=2,
    )
    return skipgram_pairs(walks, window=2)


def _q_mis(sf_dir: str):
    """Deterministic Luby maximal independent set over the affine
    graph — parallel symmetry-breaking (maximal conflict-free task
    batch). Priorities are pure (node, round) md5 functions computed
    shard-local; each round exchanges only the death set (every node
    dies exactly once across all rounds)."""
    from pdf_extractor_ray.functions.graph import mis

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        keep = src != dst
        return pa.table({"src": src[keep], "dst": dst[keep]})

    return mis(
        docs.map_batches(mk_edges, batch_format="pyarrow"), max_rounds=8
    )


def _q_lpa_communities(sf_dir: str):
    """Synchronous majority-label propagation (3 rounds, ties to the
    smaller label) over the symmetrized affine graph — finds dense
    sub-communities; the oracle replays each round with a chained
    count + row_number CTE. One direct-push edge exchange; rounds
    ship pre-aggregated (dst, label, count) partials."""
    from pdf_extractor_ray.functions.graph import lpa_communities

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        keep = src != dst
        return pa.table({"src": src[keep], "dst": dst[keep]})

    return lpa_communities(
        docs.map_batches(mk_edges, batch_format="pyarrow"), n_iters=3
    )


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


def _q_phrase_search(sf_dir: str):
    """Positional-postings phrase intersection for 'value table':
    postings emitted only for the phrase's words, one doc-bucket
    exchange, per-doc anchor intersection pos(w0) & (pos(w1)-1)."""
    from pdf_extractor_ray.functions.ngram_lm import phrase_count

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return phrase_count(docs, phrase="value table")


def _q_cocitation(sf_dir: str):
    """Top-20 co-cited page pairs ("related pages") over the affine
    link graph: per-source neighbor-pair expansion with in-bucket
    pre-aggregation, one pair-bucket sum exchange, top-k under a
    total order."""
    from pdf_extractor_ray.functions.graph import cocitation_topk

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        return pa.table({"src": src, "dst": dst})

    return cocitation_topk(
        docs.map_batches(mk_edges, batch_format="pyarrow"), k=20
    )


def _q_bfs_hops(sf_dir: str):
    """Multi-source BFS over the affine 3-out-link web graph: hop
    distance (<=4) from the seed set {doc_id % 97 == 0}, reported as a
    hop-count histogram. Level-synchronous frontier expansion on the
    shard index (one edge exchange total); the driver sees one count
    per shard per level.
    Oracle: recursive CTE with min-hop fold."""
    from pdf_extractor_ray.functions.graph import bfs_hops

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        return pa.table({"src": src, "dst": dst})

    def mk_seeds(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": ids[ids % 97 == 0]})

    visited = bfs_hops(
        docs.map_batches(mk_edges, batch_format="pyarrow"),
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


def _q_peak_window(sf_dir: str):
    """Row-frame moving window: per user, peak 4-event sliding sum of
    value (exact integer cents) under ORDER BY (ts, event_id) — the
    burst-spend signal. One coarse user-bucket exchange; the frame fold
    is a clamped cumulative-sum diff, no Python loop."""
    from pdf_extractor_ray.functions.relational import peak_moving_window

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )
    return peak_moving_window(events, window_rows=4)


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


def _q_hourly_spikes(sf_dir: str):
    """Access-log burst detection: per user, count of hours whose
    event count exceeds the user's mean over ACTIVE hours (factor=1).
    Integer-exact spike test (count * n_active_hours > factor *
    n_events); two-level pre-aggregation before one user-bucket
    exchange — the exchange carries (user, hour) partials, never
    events."""
    from pdf_extractor_ray.functions.relational import hourly_spikes

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts"]
    )
    return hourly_spikes(events, factor=1)


def _q_nation_revenue(sf_dir: str):
    """TPC-H Q5 shape (local supplier volume): revenue per nation from
    lineitems whose supplier and ordering customer share a nation.
    Three consecutive big-big hash joins (lineitem x orders on
    orderkey, x customer on custkey, x supplier on suppkey) — each one
    coarse-bucket cogroup exchange with in-bucket pre-aggregation on
    the NEXT key, so exchange volume shrinks monotonically; only the
    25-row nation table is broadcast."""
    from pdf_extractor_ray.functions.relational import nation_revenue

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    cu = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nat = pd.read_parquet(_t(sf_dir, "nation"))
    return nation_revenue(li, od, cu, su, nat)


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


def _q_returns_topk(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by returned-item revenue in
    1996. Big-big orderkey cogroup (no broadcast side) -> custkey
    bucket exchange where the per-bucket sum is the exact customer
    total, so each bucket emits only its local top-20 and the final
    sort touches <= n_buckets*20 rows."""
    from pdf_extractor_ray.functions.relational import returned_revenue_topk

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
    )
    od = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    return returned_revenue_topk(li, od, k=20)


def _q_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: per ship month, promo-part revenue vs total
    revenue (exact integer cents). part grows with the corpus, so the
    partkey join is a big-big bucket cogroup with per-(partkey, ym)
    pre-aggregation on the lineitem side — never a broadcast."""
    from pdf_extractor_ray.functions.relational import promo_revenue_by_month

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    return promo_revenue_by_month(li, pt)


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


def _q_cube(sf_dir: str):
    """GROUP BY CUBE (source, lang): the full 2^2 subtotal lattice
    from ONE corpus pass — every level derived from the finest
    aggregate on the driver, never a shuffle per lattice level."""
    from pdf_extractor_ray.functions.relational import cube_counts

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["source", "lang", "n_chars"]
    )
    return cube_counts(docs)


def _q_running_totals(sf_dir: str):
    """Per-user cumulative spend over time (SUM OVER PARTITION BY /
    ORDER BY window): one user-bucket exchange, in-bucket vectorized
    sort + cumsum, exact integer cents, ties broken by event_id."""
    from pdf_extractor_ray.functions.relational import running_totals

    events = _rp(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "value"],
    )
    return running_totals(events)


def _q_max_concurrency(sf_dir: str):
    """Sweep-line peak concurrency (each event holds a slot 10 min):
    the distributed global-prefix-sum pattern — per-window local scans
    plus a driver-side carry fold over one int per time window."""
    from pdf_extractor_ray.functions.relational import max_concurrency

    events = _rp(_t(sf_dir, "events"), columns=["ts"])
    return max_concurrency(events, hold_s=600)


def _q_props_rollup(sf_dir: str):
    """Semi-structured lane: numeric field "k" extracted from the
    props JSON column with zero-copy Arrow RE2 (no per-row
    json.loads), rolled up per event_type; misses surface as NULL and
    drop, exactly like json_extract + CAST in the oracle."""
    from pdf_extractor_ray.functions.relational import json_prop_rollup

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "props"]
    )
    return json_prop_rollup(events, key="k")


def _q_event_trigrams(sf_dir: str):
    """CEP-style multi-pattern counts: every ordered event-type triple
    occurring as three consecutive events with gaps <= 1h, counted per
    pattern in ONE pass (second-order transitions + session gap)."""
    from pdf_extractor_ray.functions.relational import event_trigrams

    events = _rp(
        _t(sf_dir, "events"),
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    return event_trigrams(events, max_gap_s=3600)


def _q_full_outer_activity(sf_dir: str):
    """FULL OUTER join shape: (user, event_type) activity across two
    disjoint weeks, null-extended both ways with a derived churn
    status — one pass, one bucket exchange."""
    from pdf_extractor_ray.functions.relational import full_outer_activity

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    return full_outer_activity(events)


def _q_conversion_latency(sf_dir: str):
    """Per-user view->purchase funnel latency in microseconds (first
    purchase at/after the first view). One scan, one user-bucket
    exchange; the from-side ships per-batch min partials, the to-side
    ships only purchase rows (narrow int64 pairs)."""
    from pdf_extractor_ray.functions.relational import conversion_latency

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    return conversion_latency(events)


def _q_interarrival(sf_dir: str):
    """Per-user inter-arrival gap stats (n/min/max/sum of consecutive
    deltas, exact microseconds, ORDER BY ts, event_id) — one
    user-bucket exchange, vectorized lexsort+diff fold."""
    from pdf_extractor_ray.functions.relational import interarrival_stats

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id"]
    )
    return interarrival_stats(events)


def _q_attribution(sf_dir: str):
    """Last-touch attribution: counts of purchases by the type of the
    latest strictly-preceding event in the user's history ('none' when
    the purchase is the user's first event). Buckets emit <=|types|+1
    partial rows each."""
    from pdf_extractor_ray.functions.relational import last_touch_attribution

    events = _rp(
        _t(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return last_touch_attribution(events, target_type="purchase")


def _q_profile(sf_dir: str):
    """ANALYZE-style numeric profile of lineitem (row/null counts,
    min/max/sum; money columns in exact integer cents). One pass, one
    partial row per column per batch — no row-level shuffle."""
    from pdf_extractor_ray.functions.relational import profile_columns

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )
    return profile_columns(
        li,
        int_cols=("l_quantity",),
        cent_cols=("l_extendedprice", "l_discount", "l_tax"),
    )


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


def _q_zipf_histogram(sf_dir: str):
    """Word-frequency log-log histogram (Zipf curve) in exact
    floor-log2 buckets — the corpus-health diagnostic; <= ~40 rows
    out regardless of corpus size."""
    from pdf_extractor_ray.functions.corpus_stats import zipf_histogram

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return zipf_histogram(docs)


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


def _q_compression_ratio(sf_dir: str):
    """zlib compression ratio per document (RefinedWeb-style template
    detector). Deterministic but not SQL-replayable (no DEFLATE in
    the oracle engine) -> rows-only gate; values pinned in pytest."""
    from pdf_extractor_ray.functions.quality import compression_stats

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return compression_stats(docs)


def _q_brand_topk(sf_dir: str):
    import pyarrow.parquet as pq

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    part = pq.read_table(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand"]
    ).to_pandas()

    from pdf_extractor_ray.functions.relational import brand_revenue_topk

    return brand_revenue_topk(lineitem, part, k=5, cents=True)


def _q_url_dedup(sf_dir: str):
    """Exact url-dedup: urls synthesized as doc_id % 200 so collision
    groups exist at every sf (mirrored by the oracle's printf)."""
    from pdf_extractor_ray.functions.dedup import key_dedup_summary

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def add_url(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = [f"https://example.org/page-{i % 200}" for i in ids]
        return pa.table({"url": pa.array(urls, pa.string()), "doc_id": batch["doc_id"]})

    pages = docs.map_batches(add_url, batch_format="pyarrow")
    return key_dedup_summary(pages, key_col="url", id_col="doc_id")


def _docs_with_urls(sf_dir: str):
    """Documents with synthetic crawl urls: host site-{doc_id % 37}
    .example.com (37 domains at every sf), path /page/{doc_id}. The
    domain_* oracles rebuild the same host expression in SQL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def add_url(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = [f"https://site-{i % 37}.example.com/page/{i}" for i in ids]
        return pa.table(
            {"doc_id": batch["doc_id"], "url": pa.array(urls, pa.string())}
        )

    return docs.map_batches(add_url, batch_format="pyarrow")


def _q_domain_counts(sf_dir: str):
    """Docs per registrable host over synthetic crawl urls: zero-copy
    RE2 host extraction, per-batch value_counts collapse, one coarse
    host-bucket exchange (functions/weburl.py)."""
    from pdf_extractor_ray.functions.weburl import domain_counts

    return domain_counts(_docs_with_urls(sf_dir))


def _q_domain_cap(sf_dir: str):
    """Per-domain quota: keep <=5 docs per host by the deterministic
    md5(doc_id) rank (reproduced by the oracle's row_number window).
    Batch-local prune first, so the exchange carries <=k rows per
    (host, batch)."""
    from pdf_extractor_ray.functions.weburl import cap_per_domain

    return cap_per_domain(_docs_with_urls(sf_dir), k=5)


def _q_domain_blocklist(sf_dir: str):
    """Host blocklist filter: hosts site-{0,7,14,21,28,35}.example.com
    are blocked; the list ships via one ray.put, never per batch."""
    from pdf_extractor_ray.functions.weburl import (
        add_host,
        filter_blocked_domains,
    )

    blocked = frozenset(f"site-{j}.example.com" for j in range(0, 37, 7))
    kept = filter_blocked_domains(_docs_with_urls(sf_dir), blocked)
    return add_host(kept).select_columns(["doc_id", "host"])


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


def _docs_with_messy_urls(sf_dir: str):
    """Documents with deliberately messy crawl urls (5 deterministic
    variants by doc_id % 5: uppercase scheme/host, explicit default
    ports, utm/fbclid tracking params, fragments) over 50 shared
    paths, so canonicalization collapses them. The oracles rebuild the
    same CASE expression in SQL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def add_url(batch: pa.Table) -> pa.Table:
        urls = []
        for i in batch["doc_id"].to_pylist():
            b = i % 50
            v = i % 5
            if v == 0:
                u = f"HTTPS://Site-{b}.Example.COM/a/{b}"
            elif v == 1:
                u = f"https://site-{b}.example.com:443/a/{b}"
            elif v == 2:
                u = f"https://site-{b}.example.com/a/{b}?utm_source=rss&id={b}"
            elif v == 3:
                u = f"https://site-{b}.example.com/a/{b}#section-2"
            else:
                u = f"http://site-{b}.example.com:80/a/{b}?fbclid=abc"
            urls.append(u)
        return pa.table(
            {"doc_id": batch["doc_id"], "url": pa.array(urls, pa.string())}
        )

    return docs.map_batches(add_url, batch_format="pyarrow")


def _q_url_canonical(sf_dir: str):
    """Per-row url canonicalization (functions/webclean.py): lowercase
    scheme/host, default-port strip, fragment drop, tracking-param
    drop. Pure map_batches — no shuffle."""
    from pdf_extractor_ray.functions.webclean import canonicalize

    return canonicalize(_docs_with_messy_urls(sf_dir)).select_columns(
        ["doc_id", "canon_url"]
    )


def _q_url_canonical_dedup(sf_dir: str):
    """Canonicalize-then-dedup: raw url variants collapse onto their
    canonical form; per canonical url the kept (min) doc and variant
    count via the coarse key-bucket exchange."""
    from pdf_extractor_ray.functions.webclean import canonical_url_dedup

    return canonical_url_dedup(_docs_with_messy_urls(sf_dir))


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


def _warc_dir(sf_dir: str) -> str:
    """Deterministic WARC shards synthesized from the documents table
    (one gzipped file per ~100 docs, doc -> shard by doc_id % n, each
    shard's records sorted by doc_id). Built once per sf_dir under
    /tmp and reused; the build is input synthesis, not pipeline
    compute, so a single-process writer is fine at oracle scale."""
    import shutil

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/graft_warc_{tag}"
    if not os.path.exists(os.path.join(d, "_DONE")):
        import pyarrow.parquet as pq

        from pdf_extractor_ray.sources.warc import write_warc

        t = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        n_files = max(1, len(ids) // 100)
        shards: list[list] = [[] for _ in range(n_files)]
        for i, txt in zip(ids, texts):
            shards[i % n_files].append((i, txt))
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for k, sh in enumerate(shards):
            write_warc(
                os.path.join(tmp, f"part-{k:05d}.warc.gz"),
                sorted(sh),
                compress=True,
            )
        with open(os.path.join(tmp, "_DONE"), "w") as fh:
            fh.write("ok")
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    return d


def _q_warc_extract(sf_dir: str):
    """WARC ingest lane (sources/warc.py): documents round-tripped
    through gzipped multi-record WARC shards, read back by the
    streaming WarcDatasource (one read task per file group, only
    parsed Arrow blocks in the object store), then a per-record parse
    emitting the fields the oracle recomputes from the original documents
    table: doc_id (from the target URI), HTTP status, body byte length
    and body md5."""
    from pdf_extractor_ray.sources.warc import read_warc

    ds = read_warc(_warc_dir(sf_dir), warc_types=("response",))

    def parse(batch: pa.Table) -> pa.Table:
        ids = pc.cast(
            pc.struct_field(
                pc.extract_regex(batch["url"], r"/doc/(?P<id>\d+)$"), "id"
            ),
            pa.int64(),
        )
        md5s = [
            hashlib.md5(b or b"").hexdigest()
            for b in batch["body"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": ids,
                "http_status": pc.cast(batch["http_status"], pa.int64()),
                "body_len": pc.cast(
                    pc.binary_length(batch["body"]), pa.int64()
                ),
                "body_md5": pa.array(md5s, pa.string()),
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def _jsonl_dir(sf_dir: str) -> str:
    """Deterministic JSONL shards from the documents table (the
    interchange format most corpus releases ship as): one file per
    ~100 docs, doc -> shard by doc_id % n, records sorted by doc_id.
    Built once per sf_dir under /tmp, same pattern as _warc_dir."""
    import json
    import shutil

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/graft_jsonl_{tag}"
    if not os.path.exists(os.path.join(d, "_DONE")):
        import pyarrow.parquet as pq

        t = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        n_files = max(1, len(ids) // 100)
        shards: list[list] = [[] for _ in range(n_files)]
        for i, txt in zip(ids, texts):
            shards[i % n_files].append((i, txt))
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for k, sh in enumerate(shards):
            with open(os.path.join(tmp, f"part-{k:05d}.jsonl"), "w") as fh:
                for i, txt in sorted(sh):
                    fh.write(
                        json.dumps({"doc_id": i, "text": txt or ""}) + "\n"
                    )
        with open(os.path.join(tmp, "_DONE"), "w") as fh:
            fh.write("ok")
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    return d


def _q_jsonl_extract(sf_dir: str):
    """JSONL ingest lane: documents round-tripped through sharded
    .jsonl files, read back with ray.data.read_json (Arrow streaming
    JSON reader, one task per file group), then a per-record parse
    emitting what the oracle recomputes from `documents`."""
    ds = ray.data.read_json(
        _jsonl_dir(sf_dir), file_extensions=["jsonl"]
    )

    def parse(batch: pa.Table) -> pa.Table:
        md5s = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_chars": pc.cast(
                    pc.utf8_length(batch["text"]), pa.int64()
                ),
                "text_md5": pa.array(md5s, pa.string()),
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def _csv_dir(sf_dir: str) -> str:
    """Deterministic CSV shards from the documents table (QUOTE_ALL,
    embedded newlines/quotes/commas preserved) — same staging pattern
    as _jsonl_dir."""
    import csv
    import shutil

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/graft_csv_{tag}"
    if not os.path.exists(os.path.join(d, "_DONE")):
        import pyarrow.parquet as pq

        t = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        n_files = max(1, len(ids) // 100)
        shards: list[list] = [[] for _ in range(n_files)]
        for i, txt in zip(ids, texts):
            shards[i % n_files].append((i, txt))
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for k, sh in enumerate(shards):
            with open(os.path.join(tmp, f"part-{k:05d}.csv"), "w", newline="") as fh:
                w = csv.writer(fh, quoting=csv.QUOTE_ALL)
                w.writerow(["doc_id", "text"])
                for i, txt in sorted(sh):
                    w.writerow([i, txt or ""])
        with open(os.path.join(tmp, "_DONE"), "w") as fh:
            fh.write("ok")
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    return d


def _q_csv_extract(sf_dir: str):
    """CSV ingest lane: documents round-tripped through sharded .csv
    files (QUOTE_ALL, embedded newlines preserved), read back with
    ray.data.read_csv (Arrow CSV reader, newlines_in_values on), then
    the same per-record digest the oracle recomputes from documents."""
    from pyarrow import csv as pacsv

    ds = ray.data.read_csv(
        _csv_dir(sf_dir),
        file_extensions=["csv"],
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            column_types={"doc_id": pa.int64(), "text": pa.string()}
        ),
    )

    def parse(batch: pa.Table) -> pa.Table:
        md5s = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        texts = batch["text"]
        n_chars = pc.fill_null(
            pc.cast(pc.utf8_length(texts), pa.int64()), 0
        )
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_chars": n_chars,
                "text_md5": pa.array(md5s, pa.string()),
            }
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def _q_range_band(sf_dir: str):
    """Range join (functions/relational.py::range_join):
    events banded by value into 40 disjoint [i*25, i*25+18) intervals
    (gaps drop rows — inner semantics), broadcast side probed with one
    searchsorted per batch. Oracle joins the same VALUES list with a
    BETWEEN predicate and aggregates per band."""
    from pdf_extractor_ray.functions.relational import range_join

    events = _rp(
        _t(sf_dir, "events"), columns=["event_id", "value"]
    )
    ranges = pd.DataFrame(
        {
            "lo": [i * 25 for i in range(40)],
            "hi": [i * 25 + 18 for i in range(40)],
            "range_key": [f"band-{i:02d}" for i in range(40)],
        }
    )
    joined = range_join(events, ranges, value_col="value")

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "range_key": batch["range_key"],
                "value_c": pc.cast(
                    pc.floor(
                        pc.add(pc.multiply(batch["value"], 100.0), 0.5)
                    ),
                    pa.int64(),
                ),
            }
        ).to_pandas()
        g = df.groupby("range_key", as_index=False).agg(
            n_events=("value_c", "size"), sum_value_c=("value_c", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        coalesce_for_exchange(
            joined.map_batches(partial, batch_format="pyarrow")
        )
        .groupby("range_key")
        .aggregate(Sum("n_events"), Sum("sum_value_c"))
        .rename_columns(
            {
                "sum(n_events)": "n_events",
                "sum(sum_value_c)": "sum_value_c",
            }
        )
    )


def _q_robots_gate(sf_dir: str):
    """RFC 9309 robots.txt crawl gate: URL d maps to host
    h{(d // 6) % 20}.example.org (decoupled from the path kind so every
    path shape hits both host classes) with one of six deterministic
    path shapes (d % 6); EVEN hosts serve a graftbot group exercising wildcard,
    end-anchor and longest-match-with-Allow-tiebreak rules plus a
    deny-all * group (group selection must pick graftbot); ODD hosts
    serve only the deny-all * group. The oracle rebuilds the expected
    decision from the rule — the parser/matcher sees only real
    robots.txt text."""
    from pdf_extractor_ray.functions.webclean import robots_gate

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        urls, hosts = [], []
        for d in batch["doc_id"].to_pylist():
            host = f"h{(d // 6) % 20}.example.org"
            k = d % 6
            path = (
                f"/public/{d}",
                f"/private/{d}",
                "/private/ok",
                f"/tmp/{d}.html",
                f"/a/{d}/end",
                f"/cgi-bin/q?x={d}",
            )[k]
            urls.append(f"https://{host}{path}")
            hosts.append(host)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "host": pa.array(hosts, pa.string()),
            }
        )

    urls = docs.map_batches(to_urls, batch_format="pyarrow")

    graftbot_txt = (
        "# synthetic robots\n"
        "User-agent: graftbot\n"
        "Disallow: /private/*\n"
        "Allow: /private/ok$\n"
        "Disallow: /tmp/*.html$\n"
        "Disallow: /a/*/end\n"
        "\n"
        "User-agent: *\n"
        "Disallow: /\n"
    )
    star_txt = "User-agent: *\nDisallow: /\n"
    robots = ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(
                    [f"h{i}.example.org" for i in range(20)], pa.string()
                ),
                "robots_txt": pa.array(
                    [
                        graftbot_txt if i % 2 == 0 else star_txt
                        for i in range(20)
                    ],
                    pa.string(),
                ),
            }
        )
    )
    return robots_gate(urls, robots, agent="graftbot")


def _q_crawl_admission(sf_dir: str):
    """End-to-end crawl ADMISSION chain in one streaming execution,
    every stage a prior oracle-green operator: deterministic pages
    (host h{(d//6)%20}, path kind d%4, head carrying a noindex meta on
    every 7th doc and canonical https://canon.example.org/{d%250}) ->
    page_head_meta (real HTML parse) -> robots_gate (real robots.txt
    parse; the 20-host store broadcasts) -> keep noindex==0 AND
    allowed==1 -> coarse canonical-bucket rollup to
    (canonical, n_admitted, min_doc). The oracle replays the whole
    admission rule in closed form."""
    from pdf_extractor_ray.functions.webclean import robots_gate
    from pdf_extractor_ray.functions.webgraph import page_head_meta

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for d in batch["doc_id"].to_pylist():
            host = f"h{(d // 6) % 20}.example.org"
            k = d % 4
            path = (
                f"/public/{d}",
                f"/private/{d}",
                f"/tmp/{d}.html",
                f"/a/{d}/end",
            )[k]
            robots_meta = (
                '<meta name="robots" content="noindex">'
                if d % 7 == 0
                else '<meta name="robots" content="index,follow">'
            )
            urls.append(f"https://{host}{path}")
            htmls.append(
                (
                    "<html><head>"
                    f"<title>Doc {d}</title>{robots_meta}"
                    f'<link rel="canonical" '
                    f'href="https://canon.example.org/{d % 250}">'
                    f"</head><body><p>doc {d}</p></body></html>"
                ).encode("utf-8")
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    pages = docs.map_batches(to_pages, batch_format="pyarrow")
    meta = page_head_meta(pages)

    graftbot_txt = (
        "User-agent: graftbot\n"
        "Disallow: /private/*\n"
        "Disallow: /tmp/*.html$\n"
        "Disallow: /a/*/end\n"
        "\n"
        "User-agent: *\n"
        "Disallow: /\n"
    )
    star_txt = "User-agent: *\nDisallow: /\n"
    robots_table = pa.table(
        {
            "host": pa.array(
                [f"h{i}.example.org" for i in range(20)], pa.string()
            ),
            "robots_txt": pa.array(
                [graftbot_txt if i % 2 == 0 else star_txt for i in range(20)],
                pa.string(),
            ),
        }
    )
    gated = robots_gate(
        meta, ray.data.from_arrow(robots_table), agent="graftbot"
    )

    def admit(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch["noindex"], 0), pc.equal(batch["allowed"], 1)
        )
        t = batch.filter(keep)
        docs_ = pc.cast(
            pc.struct_field(
                pc.extract_regex(t["url"], r"/public/(?P<d>\d+)$"), "d"
            ),
            pa.int64(),
        )
        schema = pa.schema(
            [
                pa.field("canonical", pa.string()),
                pa.field("n_admitted", pa.int64()),
                pa.field("min_doc", pa.int64()),
            ]
        )
        df = pd.DataFrame(
            {"canonical": t["canonical"].to_pylist(), "doc": docs_.to_pylist()}
        )
        if df.empty:
            return schema.empty_table()
        g = df.groupby("canonical", as_index=False).agg(
            n_admitted=("doc", "size"), min_doc=("doc", "min")
        )
        return pa.Table.from_pandas(g, preserve_index=False).cast(schema)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("canonical", as_index=False).agg(
            n_admitted=("n_admitted", "sum"), min_doc=("min_doc", "min")
        )
        return out

    return cogroup(
        {"group": (gated.map_batches(admit, batch_format="pyarrow"), "canonical")},
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=64,
        coalesce=False,
    )


def _q_crawl_curate(sf_dir: str):
    """End-to-end crawl curation chain, every stage a prior
    oracle-green operator: WARC shards -> streaming record parse ->
    messy-url attach -> canonicalize -> exact URL-level dedup (keep
    min doc per canonical url, full rows via the coarse-bucket
    exchange) -> C4 line filter -> surviving (doc_id, canon_url,
    clean_fp). The oracle replays the whole chain in one CTE stack."""
    from pdf_extractor_ray.functions.dedup import exact_dedup
    from pdf_extractor_ray.functions.webclean import (
        c4_stats_batch,
        canonicalize,
    )
    from pdf_extractor_ray.sources.warc import read_warc

    recs = read_warc(_warc_dir(sf_dir), warc_types=("response",))

    def parse(batch: pa.Table) -> pa.Table:
        ids = pc.cast(
            pc.struct_field(
                pc.extract_regex(batch["url"], r"/doc/(?P<id>\d+)$"), "id"
            ),
            pa.int64(),
        ).to_pylist()
        texts = [
            (b or b"").decode("utf-8") for b in batch["body"].to_pylist()
        ]
        urls = []
        for i in ids:
            b, v = i % 50, i % 5
            if v == 0:
                u = f"HTTPS://Site-{b}.Example.COM/a/{b}"
            elif v == 1:
                u = f"https://site-{b}.example.com:443/a/{b}"
            elif v == 2:
                u = f"https://site-{b}.example.com/a/{b}?utm_source=rss&id={b}"
            elif v == 3:
                u = f"https://site-{b}.example.com/a/{b}#section-2"
            else:
                u = f"http://site-{b}.example.com:80/a/{b}?fbclid=abc"
            urls.append(u)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "url": pa.array(urls, pa.string()),
            }
        )

    rows = canonicalize(recs.map_batches(parse, batch_format="pyarrow"))
    # exact_dedup keys on its text_col's md5 — the canonical url here —
    # and keeps the min-id FULL row per key via the bucket exchange
    kept = exact_dedup(rows, text_col="canon_url")

    def c4_pass(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        relined = []
        for i, t in zip(ids, batch["text"].to_pylist()):
            t = (t or "").replace(" table ", ".\n")
            if i % 97 == 0:
                t += "\nlorem ipsum dolor"
            if i % 89 == 0:
                t += "\nif (x) { return; }"
            relined.append(t)
        stats = c4_stats_batch(
            pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "text": pa.array(relined, pa.string()),
                }
            )
        )
        out = pa.table(
            {
                "doc_id": batch["doc_id"],
                "canon_url": batch["canon_url"],
                "clean_fp": stats["clean_fp"],
                "c4_keep": stats["c4_keep"],
            }
        )
        return out.filter(pc.equal(out["c4_keep"], True)).drop_columns(
            ["c4_keep"]
        )

    return kept.map_batches(c4_pass, batch_format="pyarrow")


def _q_partitioned_sink(sf_dir: str):
    """Partitioned parquet sink round trip (the resumable-output
    shape: one directory per partition key): write documents
    hive-partitioned by lang, read the directory back, and emit
    per-lang recovery proof — count, id sum, char sum, and an md5 of
    the sorted id list. The oracle computes the same four from the
    source table, so a lost/duplicated row or mangled text in the
    sink path breaks the hash."""
    import shutil

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    out_dir = f"/tmp/graft_sink_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    docs.write_parquet(out_dir, partition_cols=["lang"])
    back = ray.data.read_parquet(out_dir)

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "lang": batch["lang"],
                "doc_id": batch["doc_id"],
                "n_chars": pc.utf8_length(batch["text"]),
            }
        ).to_pandas()
        g = df.groupby("lang").agg(
            ids=("doc_id", lambda s: list(s)),
            sum_chars=("n_chars", "sum"),
        )
        g = g.reset_index()
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "ids": pa.array(g["ids"], pa.list_(pa.int64())),
                "sum_chars": pa.array(
                    g["sum_chars"].astype("int64"), pa.int64()
                ),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(i for lst in group["ids"] for i in lst)
        return pd.DataFrame(
            {
                "lang": [group["lang"].iloc[0]],
                "n_docs": np.int64(len(ids)),
                "sum_doc_id": np.int64(sum(ids)),
                "sum_chars": np.int64(group["sum_chars"].sum()),
                "ids_md5": [
                    hashlib.md5(
                        ",".join(str(i) for i in ids).encode()
                    ).hexdigest()
                ],
            }
        )

    return (
        back.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pandas")
    )


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


def _q_word_topk(sf_dir: str):
    from pdf_extractor_ray.functions.textstats import word_topk

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return word_topk(docs, k=20)


def _q_word_heavy_hitters(sf_dir: str):
    """Sketch path for top-k words: per-batch Misra-Gries summaries +
    exact re-count of the candidate set. Output provably equals the
    exact top-k whenever the true top-k clears the sketch's frequency
    floor (it does on this corpus), so it shares word_topk's oracle."""
    from pdf_extractor_ray.functions.textstats import word_heavy_hitters

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return word_heavy_hitters(docs, k=20)


def _q_doc_metadata(sf_dir: str):
    """M9 metadata extraction (kernel/parsers.py) over synthesized
    front-matter headers: each document gets a deterministic
    'Title:/Author:/Date:' block derived from doc_id, mirrored by the
    oracle's string building + regexp_extract."""
    from pdf_extractor_ray.kernel.parsers import extract_metadata

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def extract(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = (
                f"Title: Report {doc_id}\n"
                f"Author: Analyst {doc_id % 7}\n"
                f"Date: 2025-01-{1 + doc_id % 28:02d}\n\n{text}"
            )
            meta = extract_metadata(body)
            rows.append(
                {
                    "doc_id": doc_id,
                    "title": meta.get("title", ""),
                    "author": meta.get("author", ""),
                    "date": meta.get("date", ""),
                }
            )
        return pa.Table.from_pylist(rows)

    return docs.map_batches(extract, batch_format="pyarrow")


def _q_tfidf_terms(sf_dir: str):
    from pdf_extractor_ray.functions.textstats import tfidf_top_terms

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return tfidf_top_terms(docs, k=3)


def _q_sessionize(sf_dir: str):
    from pdf_extractor_ray.functions.relational import sessionize_users

    events = _rp(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return sessionize_users(events, gap_s=1800)


def _q_sessionize_events(sf_dir: str):
    from pdf_extractor_ray.functions.relational import sessionize_events

    events = _rp(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    return sessionize_events(events, gap_s=1800)


def _q_asof_orders(sf_dir: str):
    from pdf_extractor_ray.functions.relational import latest_order_asof

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id", "ts"]
    )
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )
    return latest_order_asof(events, orders)


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


def _q_neardup_bucketed(sf_dir: str):
    """IVF-bucketed embedding near-dup (scale path: in-cluster pairwise
    only). Injected exact copies are the ground-truth pairs; identical
    vectors always share a cluster, so recall is exact and the SQL
    cross-join oracle matches."""
    from pdf_extractor_ray.functions.similarity import embedding_neardup_bucketed

    out = embedding_neardup_bucketed(_emb_with_dups(sf_dir), threshold=0.99)
    return out.select_columns(["vec_a", "vec_b"])


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


def _q_priority_revenue(sf_dir: str):
    """Big-big hash join (native Dataset.join): revenue per priority."""
    from pdf_extractor_ray.functions.relational import order_priority_revenue

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    )
    return order_priority_revenue(lineitem, orders)


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


def _q_readability(sf_dir: str):
    """Flesch Reading Ease in exact milli-units over the real document
    bodies — integer floor arithmetic end to end, so the oracle
    replays words/sentences/syllables/score per document."""
    from pdf_extractor_ray.functions.quality import readability_scores

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return readability_scores(docs)


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


def _q_funnel(sf_dir: str):
    """Ordered funnel view -> click -> purchase: users completing each
    prefix in strictly increasing ts order (greedy earliest-occurrence
    walk == the oracle's nested-min SQL)."""
    from pdf_extractor_ray.functions.relational import funnel_steps

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    return funnel_steps(events, steps=["view", "click", "purchase"])


def _q_transitions(sf_dir: str):
    """Markov transition counts between event types along each user's
    (ts, event_id)-ordered stream; oracle = lag window replay."""
    from pdf_extractor_ray.functions.relational import transition_counts

    events = _rp(
        _t(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "event_id"],
    )
    return transition_counts(events)


def _q_retention(sf_dir: str):
    """Weekly retention cohorts: per Monday-aligned week, active users
    and how many return the next week (integer week arithmetic on
    epoch micros, replayed exactly in SQL)."""
    from pdf_extractor_ray.functions.relational import retention_cohorts

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "ts"]
    )
    return retention_cohorts(events)


def _q_cooccurrence(sf_dir: str):
    """Pairwise event-type co-occurrence (2-itemset market-basket):
    users whose history contains both types, per unordered pair."""
    from pdf_extractor_ray.functions.relational import cooccurrence_pairs

    events = _rp(
        _t(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    return cooccurrence_pairs(events)


def _q_group_topk(sf_dir: str):
    """Top-3 most active users per event_type (windowed rank). The
    per-(type, user) counts come from per-batch partials merged inside
    user buckets — never a (type, user)-keyed aggregate group set."""
    from pdf_extractor_ray.functions.relational import topk_per_group

    events = _rp(
        _t(sf_dir, "events"), columns=["event_type", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"event_type": batch["event_type"], "user_id": batch["user_id"]}
        ).to_pandas()
        g = df.groupby(["event_type", "user_id"], as_index=False).agg(
            n_events=("user_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(["event_type", "user_id"], as_index=False).agg(
            n_events=("n_events", "sum")
        )

    counted = cogroup(
        {"group": (events.map_batches(partial, batch_format="pyarrow"), "user_id")},
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )
    return topk_per_group(
        counted, group_col="event_type", order_col="n_events",
        tiebreak_col="user_id", k=3,
    )


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


def _q_element_types(sf_dir: str):
    """Element-type histogram over the extraction output (SURVEY.md §2.5
    G2): explode the nested elements column inside each batch, partial-
    count per type, tiny final groupby."""
    from pdf_extractor_ray.pipelines import extract_pages

    ds = extract_pages(_pages_from_documents(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for elements in batch["elements"].to_pylist():
            for el in elements or []:
                counts[el["type"]] += 1
        return pa.table(
            {
                "element_type": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        coalesce_for_exchange(ds.map_batches(partial, batch_format="pyarrow"))
        .groupby("element_type")
        .aggregate(Sum("n", alias_name="n"))
    )


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


def _q_repetition_stats(sf_dir: str):
    """Gopher §A1.2 repetition filters: top-2/3-gram and duplicated
    5-gram character fractions + verdict, value-checked per document."""
    from pdf_extractor_ray.functions.quality import repetition_stats

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return repetition_stats(docs)


def _q_pii_redact(sf_dir: str):
    """PII redaction (C4/CCNet-style scrub): emails, phones, IPv4s
    replaced with typed placeholders; deterministic PII is appended to
    every document so the oracle can rebuild the exact redacted text
    (md5 fingerprint) and per-kind counts."""
    from pdf_extractor_ray.functions.scrub import redact_pii_batch

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_pii(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = (
                f"{text} Contact user{doc_id}@example.com or call "
                f"+1 555 {1000 + doc_id % 9000}. Server "
                f"10.0.{doc_id % 256}.{(doc_id * 7) % 256}."
            )
            rows.append({"doc_id": doc_id, "text": body})
        return pa.Table.from_pylist(rows)

    def finish(batch: pa.Table) -> pa.Table:
        import hashlib

        fps = [
            hashlib.md5(t.encode("utf-8", "replace")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_emails": batch["n_emails"],
                "n_phones": batch["n_phones"],
                "n_ips": batch["n_ips"],
                "redacted_fp": pa.array(fps, pa.string()),
            }
        )

    return (
        docs.map_batches(with_pii, batch_format="pyarrow")
        .map_batches(redact_pii_batch, batch_format="pyarrow")
        .map_batches(finish, batch_format="pyarrow")
    )


def _q_paragraph_dedup(sf_dir: str):
    """Cross-document repeated-paragraph inventory (boilerplate
    detection): every 4th document carries a shared footer paragraph;
    the operator finds exactly that hash with its document count."""
    from pdf_extractor_ray.functions.scrub import paragraph_hash_counts

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_footer(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = text
            if doc_id % 4 == 0:
                body += "\n\nStandard footer boilerplate text for the corpus"
            rows.append({"doc_id": doc_id, "text": body})
        return pa.Table.from_pylist(rows)

    return paragraph_hash_counts(
        docs.map_batches(with_footer, batch_format="pyarrow"), min_count=2
    )


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: the corpus (with injected re-crawl
    dups) checked for 8-gram overlap against an eval set (docs 0..19).
    Contaminated = the benchmark docs themselves plus their duplicate
    copies; per-doc hit counts value-checked."""
    from pdf_extractor_ray.functions.decontaminate import contamination_flags

    corpus = _docs_with_dups(sf_dir)

    def bench_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < 20))

    benchmark = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(bench_only, batch_format="pyarrow")
    return contamination_flags(corpus, benchmark, n=8)


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

    def bench_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < 20))

    benchmark = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(bench_only, batch_format="pyarrow")
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


def _q_strip_boilerplate(sf_dir: str):
    """Detect-then-strip loop: the repeated-footer inventory from
    paragraph_hash_counts broadcasts (bounded) and every document loses
    exactly its boilerplate paragraphs; per-doc cleaned fingerprint +
    removal count, value-checked."""
    from pdf_extractor_ray.functions.scrub import (
        paragraph_hash_counts,
        strip_boilerplate,
    )

    def with_footer(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            body = text
            if doc_id % 4 == 0:
                body += "\n\nStandard footer boilerplate text for the corpus"
            rows.append({"doc_id": doc_id, "text": body})
        return pa.Table.from_pylist(rows)

    def built():
        return ray.data.read_parquet(
            _t(sf_dir, "documents"), columns=["doc_id", "text"]
        ).map_batches(with_footer, batch_format="pyarrow")

    # max_inventory exercises the bounded-broadcast path at the gate
    # (10k never binds at sf scale, so the oracle is unchanged)
    inv = paragraph_hash_counts(built(), min_count=2, max_inventory=10_000)
    cleaned = strip_boilerplate(built(), inv)

    def finish(batch: pa.Table) -> pa.Table:
        import hashlib

        fps = [
            hashlib.md5(t.encode("utf-8", "replace")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_removed": batch["n_removed"],
                "cleaned_fp": pa.array(fps, pa.string()),
            }
        )

    return cleaned.map_batches(finish, batch_format="pyarrow")


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


def _q_unigram_train(sf_dir: str):
    """Unigram-LM (SentencePiece-style, Kudo 2018) tokenizer training
    — the standard BPE alternative. Deterministic integer Viterbi-EM
    over the candidate-piece lattice (kernel/unigram.py): scores
    compare by exact big-int cross-multiplication, ties to (fewer
    pieces, lex-smallest sequence); the corpus contributes ONE
    streaming distinct-piece histogram pass (the train_bpe
    reduction). Rows-only gate (EM is not SQL-expressible); pytest
    pins distributed == serial == a hand-computed lattice. Output:
    the final (piece_id, piece, cnt) vocabulary in rank order."""
    from pdf_extractor_ray.functions.tokenizer import train_unigram

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    model = train_unigram(
        docs, vocab_size=2000, n_em=2, max_piece_len=6, seed_size=50_000
    )
    items = sorted(
        model.counts.items(), key=lambda kv: (-kv[1], kv[0])
    )
    return pd.DataFrame(
        {
            "piece_id": np.arange(len(items), dtype=np.int64),
            "piece": [p for p, _ in items],
            "cnt": np.array([c for _, c in items], dtype=np.int64),
        }
    )


def _q_unigram_tokens(sf_dir: str):
    """Distributed Viterbi encoding under the trained UnigramModel:
    per-doc (n_pieces, pieces_md5) where the md5 fingerprints the
    exact piece-id sequence. Actor-pool stage — the model broadcasts
    once, segmentations cache per distinct pre-token inside each
    actor. Rows-only gate + pytest distributed == serial pin."""
    from pdf_extractor_ray.functions.tokenizer import (
        train_unigram,
        unigram_encode_corpus,
    )

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    model = train_unigram(
        docs, vocab_size=2000, n_em=2, max_piece_len=6, seed_size=50_000
    )
    return unigram_encode_corpus(docs, model)


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

    def bench_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < 20))

    benchmark = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(bench_only, batch_format="pyarrow")

    out_dir = os.path.join(
        "/tmp/graft_pretrain_bpe", os.path.basename(sf_dir.rstrip("/"))
    )
    return pretrain_corpus_chain(
        corpus,
        benchmark,
        out_dir,
        tokenize_ds=lambda sel: encode_corpus(sel, text_col="kept_text"),
    )


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

    def bench_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < 20))

    benchmark = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(bench_only, batch_format="pyarrow")

    out_dir = os.path.join(
        "/tmp/graft_pretrain", os.path.basename(sf_dir.rstrip("/"))
    )
    return pretrain_corpus_chain(corpus, benchmark, out_dir)


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

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        df = pd.DataFrame({"src": src, "dst": dst})
        df = df[df["src"] != df["dst"]].drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return pagerank(edges, docs, n_iters=5, damping_pct=85)


def _q_pagerank_personalized(sf_dir: str):
    """Personalized (topic-sensitive / TrustRank) PageRank on the
    shard index: teleport mass lands only on the seed set
    {doc_id % 97 == 0}, so ranks measure link proximity to the trusted
    seeds — the seed-relative crawl-prioritization signal. Same
    integer semantics and exchange shape as `pagerank`; the
    oracle replays every iteration with a seed CASE in the base
    term."""
    from pdf_extractor_ray.functions.graph import pagerank

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        df = pd.DataFrame({"src": src, "dst": dst})
        df = df[df["src"] != df["dst"]].drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def mk_seeds(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": ids[ids % 97 == 0]})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    seeds = docs.map_batches(mk_seeds, batch_format="pyarrow")
    return pagerank(edges, docs, n_iters=5, seeds=seeds)


def _q_sssp(sf_dir: str):
    """Weighted single-source shortest paths (Bellman-Ford, 8
    relaxation rounds) from doc 0 over the affine link graph with
    deterministic integer weights w = (src*7919 + dst*104729) % 9 + 1.
    Each round ships pre-folded per-dst MIN(dist+w) partials on the
    shard index; the oracle replays the same 8 rounds as chained
    min-fold CTEs."""
    from pdf_extractor_ray.functions.graph import sssp

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        w = (src * 7919 + dst * 104729) % 9 + 1
        return pa.table({"src": src, "dst": dst, "w": w})

    return sssp(
        docs.map_batches(mk_edges, batch_format="pyarrow"),
        seed=0, max_rounds=8,
    )


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
    ids = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = ids.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        i = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(i, 3)
        dst = np.stack(
            [(i * 7 + 1) % n, (i * 13 + 2) % n, (i * 31 + 3) % n], axis=1
        ).reshape(-1)
        df = pd.DataFrame({"src": src, "dst": dst})
        df = df[df["src"] != df["dst"]].drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    ranks = pagerank(
        ids.map_batches(mk_edges, batch_format="pyarrow"), ids, n_iters=5
    )

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

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        return pa.table({"src": src, "dst": dst})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow").materialize()

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

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        keep = np.repeat(ids % 3, 3) >= np.tile(
            np.arange(3, dtype=np.int64), len(ids)
        )
        df = pd.DataFrame({"src": src[keep], "dst": dst[keep]})
        df = df[df["src"] != df["dst"]].drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return hits(edges, docs, n_iters=3)


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


def _q_bpe_tokens(sf_dir: str):
    """Per-document BPE token counts as an actor-pool tokenizer stage
    (ranks table + compiled pre-tokenizer load once per actor in
    __init__ — kernel/bpe.py implements the full tiktoken-compatible
    engine; the vendored trained table runs offline, a real
    cl100k_base.tiktoken drops into the same path). Each doc gets an
    id-derived OOV suffix so the byte-pair merge loop genuinely runs
    (the corpus itself merge-saturates the small table). Not
    SQL-expressible (the merge loop), so rows-only at the gate; exact
    distributed-vs-serial equality is pytest-pinned."""
    from pdf_extractor_ray.functions.textstats import bpe_token_stats

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def with_oov(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = [
            f"{t} zq{i}vx"
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.array(texts, pa.string()),
            }
        )

    return bpe_token_stats(docs.map_batches(with_oov, batch_format="pyarrow"))


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


def _q_bpe_piece_hist(sf_dir: str):
    """The distributed half of BPE tokenizer training: the corpus's
    pre-tokenization piece histogram (functions/tokenizer.py). Pieces
    here are whitespace-split words (the pattern a SQL oracle can
    replay; the cl100k pattern's lookahead is not RE2-expressible),
    counted with per-batch Counter partials and one coarse
    piece-hash-bucket exchange. min_count=2 prunes the singleton tail
    — the knob that bounds the driver-side merge-loop table at
    corpus scale."""
    from pdf_extractor_ray.functions.tokenizer import piece_histogram

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return piece_histogram(docs, pattern=r"\S+", min_count=2)


def _q_bpe_train(sf_dir: str):
    """END-TO-END distributed BPE training: Ray piece histogram ->
    deterministic incremental merge loop (ties to the
    lexicographically smallest pair) -> the learned ranks table as
    rows (token_b64, rank). Iterative/non-SQL (rows-only at the
    gate); pytest pins distributed == serial trainer and that the
    vendored graft_bpe_small.tiktoken is reproduced byte-identically
    from its corpus."""
    from pdf_extractor_ray.functions.tokenizer import train_bpe

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    enc = train_bpe(docs, vocab_size=320, pattern=r"\S+", min_count=2)
    import base64

    toks = sorted(enc.ranks.items(), key=lambda kv: kv[1])
    return pa.table(
        {
            "token_b64": pa.array(
                [base64.b64encode(t).decode() for t, _ in toks], pa.string()
            ),
            "rank": pa.array([r for _, r in toks], pa.int64()),
        }
    )


def _q_camelot_search(sf_dir: str):
    """Per-page Camelot parameter search (reference
    table_extraction.py:544-575 find_best_table_extraction +
    corrections save/load :637-654): every page tries the 5-entry
    parameter grid, each attempt scored by the quality blend under its
    deterministic stand-in accuracy (md5_number_lower replayable), and
    the best attempt wins (score desc, set index asc). One synthetic
    single-table page per document; with no stream variant the grid is
    constant across attempts, so the winner is the accuracy argmax the
    SQL oracle replays exactly. Corrections-cache reuse is pinned in
    pytest (cache hits skip the search)."""
    from pdf_extractor_ray.kernel.pdfshape import find_best_table_extraction

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def search(batch: pa.Table) -> pa.Table:
        ids, idxs, flavors, accs = [], [], [], []
        for doc_id in batch["doc_id"].to_pylist():
            page = {
                "page_number": 1,
                "blocks": [
                    {
                        "type": "table",
                        "bbox": [10.0, 20.0, 100.0, 50.0],
                        "cells": [
                            {"row": 0, "col": 0, "text": "h1"},
                            {"row": 0, "col": 1, "text": "h2"},
                            {"row": 1, "col": 0, "text": f"v{doc_id}"},
                            {"row": 1, "col": 1, "text": "x"},
                        ],
                    }
                ],
            }
            best = find_best_table_extraction(page, str(doc_id))
            ids.append(doc_id)
            idxs.append(best["param_idx"])
            flavors.append(best["parameters"]["flavor"])
            accs.append(int(math.floor(best["accuracy"] * 100 + 0.5)))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "param_idx": pa.array(idxs, pa.int64()),
                "flavor": pa.array(flavors, pa.string()),
                "accuracy_c": pa.array(accs, pa.int64()),
            }
        )

    return docs.map_batches(search, batch_format="pyarrow")


def _q_pdf_stream_fallback(sf_dir: str):
    """Quality-driven re-extraction fallback (reference
    context7/table_extractor.py:95-108: lattice accuracy < 80 retries
    the stream flavor, keeps the better). Deterministic pdf-shaped
    layouts derived from documents: doc_id%3==0 -> low lattice (50) with
    a better stream variant (90) -> fallback fires; %3==1 -> high
    lattice (95) -> threshold gates the fallback off even though a
    better variant exists; %3==2 -> low lattice (60) with a WORSE
    stream variant (30) -> lattice kept."""
    from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def extract(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id in batch["doc_id"].to_pylist():
            m = doc_id % 3
            block = {
                "type": "table",
                "bbox": [10.0, 20.0, 100.0, 50.0],
                "accuracy": [50.0, 95.0, 60.0][m],
                "cells": [
                    {"row": 0, "col": 0, "text": "h1"},
                    {"row": 0, "col": 1, "text": "h2"},
                    {"row": 1, "col": 0, "text": f"v{doc_id}"},
                    {"row": 1, "col": 1, "text": "x"},
                ],
                "stream_cells": [
                    {"row": 0, "col": 0, "text": "h1"},
                    {"row": 0, "col": 1, "text": "h2"},
                    {"row": 1, "col": 0, "text": f"s{doc_id}"},
                    {"row": 1, "col": 1, "text": "y"},
                ],
                "stream_accuracy": [90.0, 99.0, 30.0][m],
            }
            text_block = {
                "type": "text",
                "bbox": [10.0, 60.0, 100.0, 70.0],
                "spans": [{"text": "context paragraph under the table " * 4}],
            }
            doc = {
                "kind": "pdf",
                "pages": [{"page_number": 1, "blocks": [block, text_block]}],
            }
            _, records = extract_pdf_document(doc)
            r = records[0]
            rows.append(
                {
                    "doc_id": doc_id,
                    "flavor": r["flavor"],
                    "accuracy_c": int(r["accuracy"] * 100 + 0.5),
                    "cell": r["data"][1][0],
                }
            )
        return pa.Table.from_pylist(rows)

    return docs.map_batches(extract, batch_format="pyarrow")


def _q_media_features(sf_dir: str):
    from pdf_extractor_ray.functions.multimodal import media_features

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "payload": pc.cast(batch["text"], pa.binary()),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = media_features(media, decoder="fake")
    return out.select_columns(["media_id", "n_bytes", "n_chunks"])


def _media_ds(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["doc_id"],
                "payload": pc.cast(batch["text"], pa.binary()),
            }
        )

    return docs.map_batches(to_media, batch_format="pyarrow")


def _image_ds(sf_dir: str) -> ray.data.Dataset:
    """Genuine image payloads: deterministic RGB gradient
    (pixel[y,x,c] = (3x + 7y + 11c + id) % 256) at formula-derived
    dims (w = 16 + 37*id % 48, h = 16 + 53*id % 48), encoded as REAL
    P6 PPM (even ids) / 24-bit BMP (odd ids) bytes — both decoders
    exercised, one SQL-replayable pixel truth."""
    from pdf_extractor_ray.kernel.imagecodec import (
        encode_bmp,
        encode_ppm,
        gradient_image,
    )

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            px = gradient_image(i, 16 + (i * 37) % 48, 16 + (i * 53) % 48)
            payloads.append(
                encode_ppm(px) if i % 2 == 0 else encode_bmp(px)
            )
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_images, batch_format="pyarrow")


def _q_image_decode(sf_dir: str):
    """REAL pixel decode of PPM/BMP payloads (pure-Python codecs —
    public formats, no PIL needed): width/height from the actual
    binary headers, order-sensitive pixel checksum, integer channel
    means. The oracle rebuilds every pixel from the gradient formula,
    never touching the binary — so a green hash proves the decoders
    parse real bytes correctly."""
    from pdf_extractor_ray.functions.multimodal import image_decode

    return image_decode(_image_ds(sf_dir))


def _q_media_resize(sf_dir: str):
    """Real decode -> exact integer box-filter resize (aspect
    preserved by integer arithmetic, target box 8) -> PPM re-encode.
    Output (media_id, width, height, checksum of resized pixels); the
    oracle replays the box sums and floor divisions from the gradient
    formula."""
    from pdf_extractor_ray.functions.multimodal import media_resize

    out = media_resize(_image_ds(sf_dir), target=8, decoder="real")
    return out.select_columns(["media_id", "width", "height", "checksum"])


def _audio_ds(sf_dir: str) -> ray.data.Dataset:
    """Genuine audio payloads: deterministic int16 waveform
    (s[i] = ((13i + 17*id) % 65536) - 32768, mono) of formula-derived
    length (n = 1000 + 31*id % 1000) encoded as REAL RIFF/WAVE 16-bit
    PCM bytes at 8 kHz — the decoder reads actual chunk headers, the
    oracle rebuilds every sample from the formula."""
    from pdf_extractor_ray.kernel.audiocodec import encode_wav, synth_wave

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_audio(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = [
            encode_wav(synth_wave(i, 1000 + (i * 31) % 1000), 8000)
            for i in ids
        ]
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_audio, batch_format="pyarrow")


def _q_audio_features(sf_dir: str):
    """REAL PCM decode of WAV payloads (pure-Python RIFF chunk walker —
    public format, no librosa/ffmpeg needed): sample rate and count
    from the actual chunks, integer duration/peak/energy/
    zero-crossings/checksum. The oracle rebuilds every sample from the
    waveform formula, never touching the binary."""
    from pdf_extractor_ray.functions.multimodal import audio_features

    return audio_features(_audio_ds(sf_dir))


def _q_audio_resample(sf_dir: str):
    """Real WAV decode -> exact integer 1-D box-filter resample
    8 kHz -> 2 kHz -> WAV re-encode. Output (media_id, out_rate, n_out,
    checksum of resampled samples); the oracle replays box boundaries
    and FLOOR divisions (negative box sums floor toward -inf, spelled
    out explicitly since DuckDB ``//`` truncates)."""
    from pdf_extractor_ray.functions.multimodal import audio_resample

    out = audio_resample(_audio_ds(sf_dir), target_rate=2000)
    return out.select_columns(["media_id", "out_rate", "n_out", "checksum"])


def _video_ds(sf_dir: str) -> ray.data.Dataset:
    """Genuine video payloads: deterministic gradient frames
    (pixel[f][y,x,c] = (3x + 7y + 11c + 19f + id) % 256) at
    formula-derived dims (w = 8 + 5*id % 9, h = 8 + 3*id % 9,
    n_frames = 2 + id % 7) in a REAL YUV4MPEG2 C444 container — the
    sampler parses actual FRAME markers and planes."""
    from pdf_extractor_ray.kernel.videocodec import encode_y4m

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_videos(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            w, h, nf = 8 + (i * 5) % 9, 8 + (i * 3) % 9, 2 + i % 7
            x = np.arange(w, dtype=np.int64)[None, None, :, None]
            y = np.arange(h, dtype=np.int64)[None, :, None, None]
            c = np.arange(3, dtype=np.int64)[None, None, None, :]
            f = np.arange(nf, dtype=np.int64)[:, None, None, None]
            frames = ((3 * x + 7 * y + 11 * c + 19 * f + i) % 256).astype(
                np.uint8
            )
            payloads.append(encode_y4m(frames))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_videos, batch_format="pyarrow")


def _q_video_frames(sf_dir: str):
    """REAL frame sampling from Y4M containers (pure-Python parser —
    public format, no ffmpeg needed): every 2nd frame decoded from
    actual container bytes, order-sensitive pixel checksum per frame.
    The oracle rebuilds every sampled frame's pixels from the gradient
    formula, never touching the binary."""
    from pdf_extractor_ray.functions.multimodal import frame_sample

    frames = frame_sample(_video_ds(sf_dir), every_n=2, decoder="real")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": batch["media_id"],
                "frame_idx": pc.cast(batch["frame_idx"], pa.int64()),
                "frame_crc": batch["frame_crc"],
            }
        )

    return frames.map_batches(project, batch_format="pyarrow")


def _dhash_images(sf_dir: str) -> ray.data.Dataset:
    """Image corpus with PLANTED near-duplicates for perceptual-hash
    dedup: every 5 consecutive docs share a base image (b = d // 5,
    nonlinear pixel formula (3x + 7y + 11c + b + (xy + b*x^2) % 251)
    % 256 at dims w = 24 + 7b % 16, h = 24 + 5b % 16 — measured: 1000
    bases -> 1000 distinct dhashes, worst 16-bit band multiplicity 5,
    zero cross-base collisions); copies d%5 in {0,1,2} are exact,
    {3,4} get one pixel blasted to 255 at a base-derived position
    (a near-dup). PPM for even d, BMP for odd."""
    from pdf_extractor_ray.kernel.imagecodec import encode_bmp, encode_ppm

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for d in ids:
            b = d // 5
            w, h = 24 + (b * 7) % 16, 24 + (b * 5) % 16
            x = np.arange(w, dtype=np.int64)[None, :, None]
            y = np.arange(h, dtype=np.int64)[:, None, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            px = (
                (3 * x + 7 * y + 11 * c + b + (x * y + b * x * x) % 251)
                % 256
            ).astype(np.uint8)
            v = d % 5
            if v == 3:
                px[(b * 3) % h, (b * 2) % w, :] = 255
            elif v == 4:
                px[(b * 5 + 1) % h, (b * 3 + 1) % w, :] = 255
            payloads.append(encode_ppm(px) if d % 2 == 0 else encode_bmp(px))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return docs.map_batches(to_images, batch_format="pyarrow")


def _q_image_dhash(sf_dir: str):
    """Perceptual dHash over REAL decoded pixels (box-resize to 9x8,
    integer grayscale, 64 gradient bits, hex-packed). The oracle
    recomputes the full pipeline — box means, luma, bit comparisons,
    byte packing, hex formatting — from the pixel formula."""
    from pdf_extractor_ray.functions.multimodal import image_dhash

    return image_dhash(_dhash_images(sf_dir)).select_columns(
        ["media_id", "dhash"]
    )


def _q_image_neardup(sf_dir: str):
    """Image near-dup pairs: real decode -> dHash signature -> the
    generic 64-bit banded Hamming pair machinery (shared with SimHash).
    Planted near-dups (one blasted pixel) land within distance 3 of
    their base; the oracle self-joins the SQL-recomputed hashes on
    band equality + bit_count(xor) <= 3 — the operator's exact
    contract."""
    from pdf_extractor_ray.functions.dedup import hash64_pairs
    from pdf_extractor_ray.functions.multimodal import image_dhash

    sigs = image_dhash(_dhash_images(sf_dir))
    pairs = hash64_pairs(sigs, id_col="media_id", sig_col="sig")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": pc.cast(batch["doc_a"], pa.int64()),
                "doc_b": pc.cast(batch["doc_b"], pa.int64()),
                "hamming": pc.cast(batch["hamming"], pa.int64()),
            }
        )

    return pairs.map_batches(project, batch_format="pyarrow")


def _q_frame_sample(sf_dir: str):
    """Frame-sampling explode (one media row -> sampled frames),
    rolled up to frames per media row. Per-batch partial counts are
    merged through a coarse media-bucket exchange — Ray Data's dynamic
    block splitting may split an oversized FrameSampler output block
    mid-media, so per-block counts alone are NOT guaranteed exact; the
    (tiny) bucketed merge makes the rollup correct under any block
    layout."""
    from pdf_extractor_ray.functions.multimodal import frame_sample

    frames = frame_sample(_media_ds(sf_dir), every_n=2)

    def count_in_batch(batch: pa.Table) -> pa.Table:
        df = pa.table({"media_id": batch["media_id"]}).to_pandas()
        g = df.groupby("media_id", as_index=False).agg(
            n_frames=("media_id", "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("media_id", as_index=False).agg(
            n_frames=("n_frames", "sum")
        )

    return cogroup(
        {
            "group": (
                frames.map_batches(count_in_batch, batch_format="pyarrow", batch_size=None),
                "media_id",
            )
        },
        lambda group: merge(group.to_pandas()),
        lambda group: group,
        n_buckets=256,
        coalesce=True,
    )


def _q_top_supplier(sf_dir: str):
    """TPC-H Q15: supplier(s) with MAX revenue in a shipdate window —
    argmax with ties kept; only the winners' keys touch supplier."""
    from pdf_extractor_ray.functions.tpch_extra import top_revenue_supplier

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    supplier = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
    )
    return top_revenue_supplier(lineitem, supplier)


def _q_large_volume_orders(sf_dir: str):
    """TPC-H Q18: HAVING sum(qty) > 250 over lineitem first; the tiny
    survivor key set broadcasts back over orders + customer."""
    from pdf_extractor_ray.functions.tpch_extra import large_volume_orders

    lineitem = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity"]
    )
    orders = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    customer = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_name"]
    )
    return large_volume_orders(lineitem, orders, customer, min_qty=250)


def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17: correlated avg-quantity subquery decorrelated into a
    per-part aggregate + broadcast-probe pass; the 0.2*avg compare is
    exact integer math (5*qty*cnt < sum_qty)."""
    from pdf_extractor_ray.functions.tpch_extra import small_quantity_revenue

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    part = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size"]
    )
    return small_quantity_revenue(lineitem, part, max_size=5)


def _q_sole_return_suppliers(sf_dir: str):
    """TPC-H Q21 shape: EXISTS + NOT-EXISTS self-joins collapsed into
    one per-orderkey cogroup (set tests in-group, no self-join)."""
    from pdf_extractor_ray.functions.tpch_extra import sole_return_suppliers

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    )
    supplier = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
    )
    return sole_return_suppliers(lineitem, supplier, top_k=25)


def _q_median_chars(sf_dir: str):
    """Exact per-language median doc length via the value-histogram
    exchange — (lang, n_chars, n) partials shuffle, never rows."""
    from pdf_extractor_ray.functions.grouped_stats import group_median

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["lang", "n_chars"]
    )
    return group_median(docs, "lang", "n_chars")


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


def _q_length_quantiles(sf_dir: str):
    """Exact per-language p50/p90/p99 doc length off ONE histogram
    exchange; the interpolation arithmetic is mirrored verbatim in the
    oracle so the doubles match bit-for-bit."""
    from pdf_extractor_ray.functions.grouped_stats import group_quantiles

    docs = ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["lang", "n_chars"]
    )
    return group_quantiles(docs, "lang", "n_chars", qs=(0.5, 0.9, 0.99))


def _q_pareto_parts(sf_dir: str):
    """2-D Pareto skyline of parts (min price, max size): per-block
    local skyline prune, then a single-task merge of the candidates —
    the exchange carries skylines, never the table."""
    from pdf_extractor_ray.functions.skyline import skyline_2d

    part = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        price = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "price_c": pa.array(
                    np.floor(price * 100 + 0.5).astype(np.int64)
                ),
                "p_size": batch["p_size"],
            }
        )

    return skyline_2d(
        part.map_batches(to_cents, batch_format="pyarrow"),
        "p_partkey", "price_c", "p_size",
    )


def _q_scc_component(sf_dir: str):
    """Strongly connected component of doc 0 in the affine 3-out-link
    graph via forward-backward BFS closure on the actor-sharded
    adjacency index (ONE edge exchange per direction instead of one
    per level). Oracle: two recursive CTE closures intersected."""
    from pdf_extractor_ray.functions.graph import scc_members

    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    n = docs.count()  # parquet metadata only

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.repeat(ids, 3)
        dst = np.stack(
            [(ids * 7 + 1) % n, (ids * 13 + 2) % n, (ids * 31 + 3) % n],
            axis=1,
        ).reshape(-1)
        return pa.table({"src": src, "dst": dst})

    return scc_members(
        docs.map_batches(mk_edges, batch_format="pyarrow"), seed=0
    )


def _q_revenue_share_parts(sf_dir: str):
    """TPC-H Q11 shape: global average part revenue -> exact integer
    cutoff on the driver -> broadcast threshold filter over the
    per-part aggregate (parts earning > 1.25x the average)."""
    from pdf_extractor_ray.functions.tpch_extra import revenue_share_parts

    lineitem = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    return revenue_share_parts(lineitem, mult_num=5, mult_den=4)


def _nation_region(sf_dir: str) -> pd.DataFrame:
    """nation pre-joined with region (25 + 5 fixed rows — the only
    tables small enough to ride a closure)."""
    nation = pd.read_parquet(_t(sf_dir, "nation"))
    region = pd.read_parquet(_t(sf_dir, "region"))
    return nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    )


def _q_discount_band_revenue(sf_dir: str):
    """TPC-H Q6: revenue recoverable by dropping the 5-7% discount
    band for small-qty 1996 lines. Map-only scan aggregate — one int64
    partial per batch, a single-task fold, zero exchange; discounts
    compare as exact integer permille, never floats."""
    from pdf_extractor_ray.functions.tpch_extra import discount_band_revenue

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_shipdate", "l_extendedprice", "l_discount",
                 "l_quantity"],
    )
    return discount_band_revenue(li)


def _q_late_lines_priority(sf_dir: str):
    """TPC-H Q12 shape (no shipmode column exists: "late" = shipped
    > 60 days after the order date): one big-big orderkey cogroup,
    conditional counts per order priority."""
    from pdf_extractor_ray.functions.tpch_extra import late_lines_by_priority

    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    )
    od = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    return late_lines_by_priority(li, od, late_days=60)


def _q_nation_pair_volume(sf_dir: str):
    """TPC-H Q7: revenue from a supplier nation to a DIFFERENT
    customer nation per ship year (1995-1996). Sharded-lookup engine
    (join_indexed.py): orders/customer/supplier partitioned across
    lookup shard actors, ONE streaming lineitem pass with two batched
    RPC waves, zero sort exchanges for the joins (r4 A/B: 8.65 s
    bucket cogroup / 7.2 s native join / ~1.9 s this path)."""
    from pdf_extractor_ray.functions.join_indexed import (
        cross_nation_volume_indexed as cross_nation_volume,
    )

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    cu = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nation = pd.read_parquet(_t(sf_dir, "nation"))
    return cross_nation_volume(li, od, cu, su, nation)


def _q_market_share(sf_dir: str):
    """TPC-H Q8 shape: ASIA-market PROMO-part revenue split per order
    year into NATION_2's share vs total (exact integer cents for both
    — the division is the reader's). Sharded-lookup engine
    (join_indexed.py): part/orders/customer/supplier partitioned
    across lookup shard actors — part is never broadcast — ONE
    streaming lineitem pass, two RPC waves, zero join sort exchanges
    (r4 A/B: 7.4 s bucket cogroup / ~1.4 s this path)."""
    from pdf_extractor_ray.functions.join_indexed import (
        market_share_indexed as market_share,
    )

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_orderkey", "l_suppkey",
                 "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    cu = _rp(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    return market_share(li, od, cu, su, pt, _nation_region(sf_dir))


def _q_supplier_part_counts(sf_dir: str):
    """TPC-H Q16 shape (partsupp re-expressed over shipments):
    DISTINCT shipping suppliers per (brand, type), one brand excluded.
    Two exchanges: partkey cogroup of pre-distincted pairs, then a
    (brand, type)-bucket exchange where nunique is bucket-exact."""
    from pdf_extractor_ray.functions.tpch_extra import supplier_count_by_part

    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"]
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_type"]
    )
    return supplier_count_by_part(li, pt, exclude_brand="Brand#5")


def _q_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19: OR-of-ANDs (brand x quantity band x size band)
    revenue — one partkey cogroup, vectorized disjunctive predicate,
    single int64 result."""
    from pdf_extractor_ray.functions.tpch_extra import disjunctive_revenue

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )
    return disjunctive_revenue(li, pt)


def _q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape (supplycost re-expressed as account balance):
    per SMALL/size-15 part, the EUROPE supplier that shipped it with
    minimum account balance (tie: suppkey) — the decorrelated
    min-subquery. suppkey cogroup then partkey cogroup; per-bucket
    argmin partials keep every exchange narrow."""
    from pdf_extractor_ray.functions.tpch_extra import min_acctbal_supplier

    li = _rp(
        _t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"]
    )
    su = _rp(
        _t(sf_dir, "supplier"),
        columns=["s_suppkey", "s_acctbal", "s_nationkey"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size", "p_type"]
    )
    return min_acctbal_supplier(li, su, pt, _nation_region(sf_dir))


def _q_part_leading_supplier(sf_dir: str):
    """TPC-H Q20 shape: per 'plate'-named part, the leading supplier
    by shipped quantity with exact share numerators (the spec's >50%
    demand test is a caller-side threshold on supp_qty/total_qty; the
    uniform synthetic corpus makes the raw filter empty). One partkey
    exchange of per-(part,supp) quantity partials."""
    from pdf_extractor_ray.functions.tpch_extra import dominant_part_suppliers

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    )
    pt = _rp(
        _t(sf_dir, "part"), columns=["p_partkey", "p_name"]
    )
    return dominant_part_suppliers(li, pt, name_token="plate")


def _q_nation_profit(sf_dir: str):
    """TPC-H Q9 shape (supplycost re-expressed as retail price):
    profit = revenue - qty*retail (exact cents) for 'red' parts,
    grouped by supplier nation x order year. Three chained big-big
    cogroups (partkey -> orderkey -> suppkey)."""
    from pdf_extractor_ray.functions.tpch_extra import profit_by_nation_year

    li = _rp(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_orderkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    od = _rp(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    )
    su = _rp(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    pt = _rp(
        _t(sf_dir, "part"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    )
    nation = pd.read_parquet(_t(sf_dir, "nation"))
    return profit_by_nation_year(li, od, su, pt, nation, name_token="red")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "extract_corpus": _q_extract_corpus,
        "extract_synthetic": _q_extract_synthetic,
        "dedup_exact": _q_dedup_exact,
        "dedup_exact_rows": _q_dedup_exact_rows,
        "dedup_minhash": _q_dedup_minhash,
        "incremental_minhash": _q_incremental_minhash,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_ngram": _q_dedup_ngram,
        "jaccard_join": _q_jaccard_join,
        "dup_ngram_spans": _q_dup_ngram_spans,
        "strip_dup_spans": _q_strip_dup_spans,
        "strip_spans_min8": _q_strip_spans_min8,
        "strip_spans_min30": _q_strip_spans_min30,
        "dup_clusters": _q_dup_clusters,
        "cluster_safe_split": _q_cluster_safe_split,
        "dup_clusters_indexed": _q_dup_clusters,
        "cluster_size_hist": _q_cluster_size_hist,
        "cosine_pairs": _q_cosine_pairs,
        "containment_pairs": _q_containment_pairs,
        "dedup_survivors": _q_dedup_survivors,
        "dedup_embedding": _q_dedup_embedding,
        "neardup_bucketed": _q_neardup_bucketed,
        "knn_brute": _q_knn_brute,
        "knn_ivf_fullprobe": _q_knn_ivf_fullprobe,
        "knn_lsh": _q_knn_lsh,
        "hard_negatives": _q_hard_negatives,
        "skew_join_events": _q_skew_join,
        "domain_curation": _q_domain_curation,
        "ann_recall": _q_ann_recall,
        "knn_ivf": _q_knn_ivf,
        "knn_pq": _q_knn_pq,
        "url_dedup": _q_url_dedup,
        "domain_counts": _q_domain_counts,
        "domain_cap": _q_domain_cap,
        "domain_blocklist": _q_domain_blocklist,
        "url_canonical": _q_url_canonical,
        "url_canonical_dedup": _q_url_canonical_dedup,
        "c4_filters": _q_c4_filters,
        "warc_extract": _q_warc_extract,
        "jsonl_extract": _q_jsonl_extract,
        "csv_extract": _q_csv_extract,
        "quality_topk": _q_quality_topk,
        "ccnet_buckets": _q_ccnet_buckets,
        "token_budget": _q_token_budget,
        "bm25": _q_bm25,
        "bm25_ndcg": _q_bm25_ndcg,
        "hybrid_rrf": _q_hybrid_rrf,
        "script_stats": _q_script_stats,
        "shuffle_export": _q_shuffle_export,
        "partitioned_sink": _q_partitioned_sink,
        "robots_gate": _q_robots_gate,
        "crawl_admission": _q_crawl_admission,
        "crawl_curate": _q_crawl_curate,
        "range_band": _q_range_band,
        "range_band_partitioned": _q_range_band,
        "normalize_text": _q_normalize_text,
        "word_topk": _q_word_topk,
        "word_heavy_hitters": _q_word_heavy_hitters,
        "tfidf_terms": _q_tfidf_terms,
        "doc_metadata": _q_doc_metadata,
        "sessionize": _q_sessionize,
        "sessionize_events": _q_sessionize_events,
        "asof_orders": _q_asof_orders,
        "asof_orders_partitioned": _q_asof_orders,
        "element_types": _q_element_types,
        "embedding_clusters": _q_embedding_clusters,
        "kmeans_lloyd": _q_kmeans_lloyd,
        "cluster_balanced_sample": _q_cluster_balanced_sample,
        "hash_sample": _q_hash_sample,
        "weighted_sample": _q_weighted_sample,
        "clf_train": _q_clf_train,
        "sorted_export": _q_sorted_export,
        "clf_score": _q_clf_score,
        "curation_v2": _q_curation_v2,
        "funnel": _q_funnel,
        "transitions": _q_transitions,
        "retention": _q_retention,
        "cooccurrence": _q_cooccurrence,
        "group_topk": _q_group_topk,
        "priority_revenue": _q_priority_revenue,
        "text_stats": _q_text_stats,
        "lang_id": _q_lang_id,
        "quality_hist": _q_quality_hist,
        "fingerprint": _q_fingerprint,
        "winnow": _q_winnow,
        "q1_pricing": _q_q1_pricing,
        "q3_top_orders": _q_q3_top_orders,
        "events_window": _q_events_window,
        "events_hopping": _q_events_hopping,
        "value_quantiles": _q_value_quantiles,
        "events_pivot": _q_events_pivot,
        "pricing_rollup": _q_pricing_rollup,
        "crawl_refresh": _q_crawl_refresh,
        "scd2_history": _q_scd2_history,
        "crawl_changes": _q_crawl_changes,
        "inverted_index": _q_inverted_index,
        "index_sink": _q_index_sink,
        "quantiles_sampled": _q_quantiles_sampled,
        "distinct_users": _q_distinct_users,
        "distinct_users_hll": _q_distinct_users_hll,
        "hll_registers": _q_hll_registers,
        "hll_estimate": _q_hll_estimate,
        "cms_counters": _q_cms_counters,
        "cms_topk": _q_cms_topk,
        "bloom_filter": _q_bloom_filter,
        "rake_keywords": _q_rake_keywords,
        "ngram_novelty": _q_ngram_novelty,
        "anti_join": _q_anti_join,
        "semi_join": _q_semi_join,
        "semi_join_bloom": _q_semi_join_bloom,
        "custdist": _q_custdist,
        "top_supplier": _q_top_supplier,
        "large_volume_orders": _q_large_volume_orders,
        "small_qty_revenue": _q_small_qty_revenue,
        "sole_return_suppliers": _q_sole_return_suppliers,
        "revenue_share_parts": _q_revenue_share_parts,
        "discount_band_revenue": _q_discount_band_revenue,
        "late_lines_priority": _q_late_lines_priority,
        "nation_pair_volume": _q_nation_pair_volume,
        "market_share": _q_market_share,
        "supplier_part_counts": _q_supplier_part_counts,
        "disjunctive_revenue": _q_disjunctive_revenue,
        "min_cost_supplier": _q_min_cost_supplier,
        "part_leading_supplier": _q_part_leading_supplier,
        "nation_profit": _q_nation_profit,
        "median_chars": _q_median_chars,
        "mode_length_bucket": _q_mode_length_bucket,
        "length_quantiles": _q_length_quantiles,
        "pareto_parts": _q_pareto_parts,
        "scc_component": _q_scc_component,
        "editdist_neardup": _q_editdist_neardup,
        "entity_clusters": _q_entity_clusters,
        "triangles": _q_triangles,
        "triangles_indexed": _q_triangles,
        "random_walks": _q_random_walks,
        "walk_skipgrams": _q_walk_skipgrams,
        "lpa_communities": _q_lpa_communities,
        "mis": _q_mis,
        "bigram_familiarity": _q_bigram_familiarity,
        "phrase_search": _q_phrase_search,
        "quality_percentile": _q_quality_percentile,
        "cocitation": _q_cocitation,
        "bfs_hops": _q_bfs_hops,
        "peak_window": _q_peak_window,
        "length_outliers": _q_length_outliers,
        "hourly_spikes": _q_hourly_spikes,
        "nation_revenue": _q_nation_revenue,
        "kwic": _q_kwic,
        "returns_topk": _q_returns_topk,
        "promo_revenue": _q_promo_revenue,
        "corr_moments": _q_corr_moments,
        "ks_drift": _q_ks_drift,
        "rollup": _q_rollup,
        "cube": _q_cube,
        "running_totals": _q_running_totals,
        "full_outer_activity": _q_full_outer_activity,
        "event_trigrams": _q_event_trigrams,
        "props_rollup": _q_props_rollup,
        "max_concurrency": _q_max_concurrency,
        "conversion_latency": _q_conversion_latency,
        "interarrival": _q_interarrival,
        "attribution": _q_attribution,
        "profile": _q_profile,
        "kcore": _q_kcore,
        "kcore_indexed": _q_kcore,
        "vocab_drift": _q_vocab_drift,
        "zipf_histogram": _q_zipf_histogram,
        "compression_ratio": _q_compression_ratio,
        "brand_topk": _q_brand_topk,
        "lm_quality": _q_lm_quality,
        "repetition_stats": _q_repetition_stats,
        "pii_redact": _q_pii_redact,
        "paragraph_dedup": _q_paragraph_dedup,
        "strip_boilerplate": _q_strip_boilerplate,
        "chunk_documents": _q_chunk_documents,
        "decontaminate": _q_decontaminate,
        "decontaminate_strip": _q_decontaminate_strip,
        "gopher_quality": _q_gopher_quality,
        "readability": _q_readability,
        "sentences": _q_sentences,
        "lexical_diversity": _q_lexical_diversity,
        "garbled_score": _q_garbled_score,
        "holdout_split": _q_holdout_split,
        "schema_gate": _q_schema_gate,
        "fold_dedup": _q_fold_dedup,
        "readability_by_lang": _q_readability_by_lang,
        "training_mix": _q_training_mix,
        "incremental_dedup": _q_incremental_dedup,
        "sequence_pack": _q_sequence_pack,
        "training_chain": _q_training_chain,
        "pretrain_corpus": _q_pretrain_corpus,
        "pretrain_corpus_bpe": _q_pretrain_corpus_bpe,
        "suffix_dup_spans": _q_suffix_dup_spans,
        "unigram_train": _q_unigram_train,
        "unigram_tokens": _q_unigram_tokens,
        "stratified_sample": _q_stratified_sample,
        "pdf_stream_fallback": _q_pdf_stream_fallback,
        "camelot_search": _q_camelot_search,
        "bpe_tokens": _q_bpe_tokens,
        "bpe_piece_hist": _q_bpe_piece_hist,
        "bpe_train": _q_bpe_train,
        "head_meta": _q_head_meta,
        "json_ld": _q_json_ld,
        "canonical_clusters": _q_canonical_clusters,
        "html_tables": _q_html_tables,
        "host_mirrors": _q_host_mirrors,
        "reciprocal_links": _q_reciprocal_links,
        "fetch_plan": _q_fetch_plan,
        "pii_spans": _q_pii_spans,
        "date_extract": _q_date_extract,
        "charset_sniff": _q_charset_sniff,
        "sitemap_discover": _q_sitemap_discover,
        "discovery_chain": _q_discovery_chain,
        "pii_cards": _q_pii_cards,
        "redirect_resolve": _q_redirects,
        "refresh_redirects": _q_refresh_redirects,
        "url_features": _q_url_features,
        "outlink_features": _q_outlinks,
        "lexicon_filter": _q_lexicon_filter,
        "clean_export_chain": _q_clean_export,
        "hreflang_clusters": _q_hreflang,
        "content_blocks": _q_content_blocks,
        "main_content": _q_main_content,
        "frontier_schedule": _q_frontier_schedule,
        "url_templates": _q_url_templates,
        "web_curation": _q_web_curation,
        "semantic_dedup": _q_semantic_dedup,
        "link_graph": _q_link_graph,
        "anchor_stats": _q_anchor_stats,
        "token_chunks": _q_token_chunks,
        "bin_export": _q_bin_export,
        "fim_chunks": _q_fim_chunks,
        "span_corrupt": _q_span_corrupt,
        "tokenize_chunks": _q_tokenize_chunks,
        "embedding_gram": _q_embedding_gram,
        "kcenter_coreset": _q_kcenter,
        "graph_ann": _q_graph_ann,
        "strip_tokenize_chain": _q_strip_tokenize_chain,
        "pagerank": _q_pagerank,
        "pagerank_indexed": _q_pagerank,
        "pagerank_personalized": _q_pagerank_personalized,
        "sssp": _q_sssp,
        "authority_topk": _q_authority_topk,
        "embedding_dim_stats": _q_embedding_dim_stats,
        "pseudo_diameter": _q_pseudo_diameter,
        "hits": _q_hits,
        "hits_indexed": _q_hits,
        "dsir_score": _q_dsir_score,
        "dsir_select": _q_dsir_select,
        "mixture_select": _q_mixture_select,
        "bitext_mine": _q_bitext_mine,
        "kfold_split": _q_kfold_split,
        "media_features": _q_media_features,
        "media_resize": _q_media_resize,
        "image_decode": _q_image_decode,
        "image_dhash": _q_image_dhash,
        "image_neardup_dhash": _q_image_neardup,
        "audio_features": _q_audio_features,
        "audio_resample": _q_audio_resample,
        "video_frames": _q_video_frames,
        "frame_sample": _q_frame_sample,
    }


# --------------------------------------------------------------- oracle

# kernel/textutils.py:_TOKEN_RE re-expressed for RE2/DuckDB ('' escapes
# the leading quote of the contraction branch inside the SQL literal).
# It counts as the kernel does only on text whose whitespace is
# [\t\n\f\r ] and comes in runs of one char:
#   - RE2 has no lookahead, so the \s+(?!\S) branch is dropped, and the
#     kernel cuts a longer whitespace run one char short of a following
#     non-space: 'x\n\ny' is 3 matches here and 4 in the kernel;
#   - RE2's \s lacks \v, \x1c-\x1f and the non-ASCII spaces, which it
#     reads as punctuation.
# The gate's documents meet that (no whitespace run of two or more in
# the 500, 500 and 5,000 texts at sf0.001, sf0.01 and sf0.1);
# tests/test_token_oracle.py checks it at sf0.01.
_TOKEN_PAT_SQL = (
    "''(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]{1,3}| ?[^\\sA-Za-z0-9]+|\\s+"
)

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


# Shared CTE stack recomputing the dHash pipeline in SQL for the
# _dhash_images corpus: box-filter means on the 9x8 grid (with the
# planted single-pixel perturbation), integer luma, gradient bits,
# MSB-first byte packing. Ends with sigs(media_id, dhash, u).
_DHASH_SQL_CTE = """
    m AS (SELECT doc_id AS media_id, doc_id // 5 AS b,
                 24 + ((doc_id // 5) * 7) % 16 AS w,
                 24 + ((doc_id // 5) * 5) % 16 AS h,
                 doc_id % 5 AS v
          FROM documents),
    p AS (SELECT media_id,
                 CASE WHEN v = 3 THEN (b*3) % h
                      WHEN v = 4 THEN (b*5+1) % h END AS py,
                 CASE WHEN v = 3 THEN (b*2) % w
                      WHEN v = 4 THEN (b*3+1) % w END AS px
          FROM m),
    grid AS (SELECT m.media_id, m.b, m.w, m.h, p.py, p.px, i.i, j.j,
                    (i.i * m.h) // 8 AS y0, ((i.i+1) * m.h) // 8 AS y1,
                    (j.j * m.w) // 9 AS x0, ((j.j+1) * m.w) // 9 AS x1
             FROM m JOIN p USING (media_id)
             CROSS JOIN (SELECT unnest(range(8)) AS i) i
             CROSS JOIN (SELECT unnest(range(9)) AS j) j),
    bx AS (SELECT g.media_id, g.i, g.j,
                  CAST(sum(CASE WHEN g.py = y.y AND g.px = x.x THEN 255
                           ELSE (3*x.x + 7*y.y + g.b
                                 + (x.x*y.y + g.b*x.x*x.x) % 251) % 256
                           END)
                       // ((g.y1-g.y0)*(g.x1-g.x0)) AS BIGINT) AS r,
                  CAST(sum(CASE WHEN g.py = y.y AND g.px = x.x THEN 255
                           ELSE (3*x.x + 7*y.y + 11 + g.b
                                 + (x.x*y.y + g.b*x.x*x.x) % 251) % 256
                           END)
                       // ((g.y1-g.y0)*(g.x1-g.x0)) AS BIGINT) AS gc,
                  CAST(sum(CASE WHEN g.py = y.y AND g.px = x.x THEN 255
                           ELSE (3*x.x + 7*y.y + 22 + g.b
                                 + (x.x*y.y + g.b*x.x*x.x) % 251) % 256
                           END)
                       // ((g.y1-g.y0)*(g.x1-g.x0)) AS BIGINT) AS bc
           FROM grid g
           JOIN (SELECT unnest(range(40)) AS x) x
                ON x.x >= g.x0 AND x.x < g.x1
           JOIN (SELECT unnest(range(40)) AS y) y
                ON y.y >= g.y0 AND y.y < g.y1
           GROUP BY g.media_id, g.i, g.j, g.y0, g.y1, g.x0, g.x1),
    lum AS (SELECT media_id, i, j,
                   (299*r + 587*gc + 114*bc) // 1000 AS l
            FROM bx),
    bits AS (SELECT a.media_id, a.i, a.j,
                    CASE WHEN b.l > a.l THEN 1 ELSE 0 END AS bit
             FROM lum a JOIN lum b
                  ON a.media_id = b.media_id AND a.i = b.i
                 AND b.j = a.j + 1
             WHERE a.j < 8),
    bytes AS (SELECT media_id, i,
                     CAST(sum(bit * (1 << (7 - j))) AS BIGINT) AS byte
              FROM bits GROUP BY media_id, i),
    sigs AS (SELECT media_id,
                    string_agg(printf('%02x', byte), '' ORDER BY i)
                        AS dhash,
                    CAST(sum(CAST(byte AS UBIGINT)
                             * (CAST(1 AS UBIGINT) << (8 * (7 - i))))
                         AS UBIGINT) AS u
             FROM bytes GROUP BY media_id)
"""


def oracle_sql() -> dict[str, str]:
    from pdf_extractor_ray.functions.scrub import EMAIL_RE, IP_RE, PHONE_RE

    d = {
        # Repetition filters: n-gram char weight = count * (chars of
        # the joined n-gram minus its n-1 separators); top = heaviest
        # repeated n-gram, dup = all repeated n-grams (overlap-naive).
        "repetition_stats": """
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
        """,
        # PII redaction: same RE2 patterns, same replacement order as
        # functions/scrub.py (emails -> phones -> IPs); counts taken on
        # each stage's pre-replacement string exactly like subn.
        "pii_redact": f"""
            WITH t AS (
              SELECT doc_id,
                     text || ' Contact user' || CAST(doc_id AS VARCHAR)
                       || '@example.com or call +1 555 '
                       || CAST(1000 + doc_id % 9000 AS VARCHAR)
                       || '. Server 10.0.' || CAST(doc_id % 256 AS VARCHAR)
                       || '.' || CAST((doc_id * 7) % 256 AS VARCHAR) || '.'
                       AS body
              FROM documents
            ),
            r1 AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(body, '{EMAIL_RE}')) AS BIGINT)
                         AS n_emails,
                     regexp_replace(body, '{EMAIL_RE}', '<EMAIL>', 'g') AS b
              FROM t
            ),
            r2 AS (
              SELECT doc_id, n_emails,
                     CAST(len(regexp_extract_all(b, '{PHONE_RE}')) AS BIGINT)
                         AS n_phones,
                     regexp_replace(b, '{PHONE_RE}', '<PHONE>', 'g') AS b
              FROM r1
            ),
            r3 AS (
              SELECT doc_id, n_emails, n_phones,
                     CAST(len(regexp_extract_all(b, '{IP_RE}')) AS BIGINT)
                         AS n_ips,
                     regexp_replace(b, '{IP_RE}', '<IP>', 'g') AS b
              FROM r2
            )
            SELECT doc_id, n_emails, n_phones, n_ips, md5(b) AS redacted_fp
            FROM r3
        """,
        "decontaminate": f"""
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
        """,
        # decontaminate_strip: hit positions -> covered intervals
        # ([i, i+8) per hit, DISTINCT union) -> kept words by
        # anti-join, re-joined in position order.
        "decontaminate_strip": f"""
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
        """,
        # Chunking: starts at word indices 0, stride, 2*stride, ...
        # (stride = 40 - 10 = 30); list_slice is 1-based inclusive.
        "chunk_documents": """
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
        """,
        "strip_boilerplate": """
            -- boilerplate = the injected footer PLUS any document body
            -- that repeats verbatim across docs (the sf0.1 table has 8
            -- such dup groups; their single-paragraph bodies hit
            -- min_count=2 and are legitimately stripped to '')
            WITH dup AS (
                SELECT text FROM documents
                GROUP BY text HAVING count(*) >= 2)
            SELECT doc_id,
                   CAST(CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END
                        + CASE WHEN text IN (SELECT text FROM dup)
                               THEN 1 ELSE 0 END AS BIGINT) AS n_removed,
                   md5(CASE WHEN text IN (SELECT text FROM dup)
                            THEN '' ELSE text END) AS cleaned_fp
            FROM documents
        """,
        "paragraph_dedup": """
            WITH built AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 4 = 0
                          THEN text || chr(10) || chr(10)
                               || 'Standard footer boilerplate text for the corpus'
                          ELSE text END AS body
              FROM documents
            ),
            p AS (
              SELECT unnest(string_split(body, chr(10) || chr(10))) AS para
              FROM built
            )
            SELECT md5(para) AS para_hash,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM p
            WHERE regexp_matches(para, '\\S')
            GROUP BY 1 HAVING count(*) >= 2
        """,
        # Value-level oracle for the flagship extraction: the synthetic
        # page wrapper (_pages_from_documents) is deterministic, so the
        # per-url extracted text is exactly '1. Document {id}\n\n' +
        # documents.text and every count is SQL-reproducible.
        "extract_corpus": f"""
            SELECT
              'https://docs.example.org/' || lpad(CAST(doc_id AS VARCHAR), 8, '0')
                  AS url,
              'html' AS kind,
              'ok' AS status,
              CAST(2 AS BIGINT) AS n_elements,
              CAST(1 AS BIGINT) AS n_text,
              CAST(1 AS BIGINT) AS n_heading,
              CAST(0 AS BIGINT) AS n_table,
              CAST(0 AS BIGINT) AS n_code,
              CAST(0 AS BIGINT) AS n_image,
              CAST(
                len(regexp_extract_all('1. Document ' || CAST(doc_id AS VARCHAR),
                                       '{_TOKEN_PAT_SQL}')) +
                len(regexp_extract_all(text, '{_TOKEN_PAT_SQL}'))
                AS BIGINT) AS n_tokens,
              md5('1. Document ' || CAST(doc_id AS VARCHAR)
                  || chr(10) || chr(10) || text) AS extract_fp
            FROM documents
        """,
        "element_types": """
            SELECT element_type, CAST(n AS BIGINT) AS n FROM (
              SELECT 'heading' AS element_type, count(*) AS n FROM documents
              UNION ALL
              SELECT 'text' AS element_type, count(*) AS n FROM documents
            ) t
        """,
        # skew_join_events: plain JOIN replay — the hot/cold split is
        # routing only, invisible to the result.
        "skew_join_events": """
            WITH f AS (
                SELECT event_id,
                       CASE WHEN user_id % 5 = 0 THEN 0
                            ELSE user_id % 997 END AS k
                FROM events),
            dim AS (
                SELECT CAST(unnest(range(997)) AS BIGINT) AS k),
            dimw AS (SELECT k, k * 3 + 1 AS w FROM dim),
            j AS (SELECT f.event_id, f.k, d.w
                  FROM f JOIN dimw d USING(k))
            SELECT CASE WHEN k = 0 THEN 'hot' ELSE 'cold' END AS k_class,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(w) AS BIGINT) AS sum_w,
                   CAST(sum(event_id) AS BIGINT) AS sum_event
            FROM j GROUP BY 1
        """,
        # hard_negatives: cosine cross join restricted to different
        # labels; self is excluded automatically (same label).
        "hard_negatives": """
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
        """,
        # domain_curation: gopher verdict per doc (same CTEs as
        # gopher_quality), rolled up per synthetic host in exact
        # integer permille; blocked hosts keep zero docs.
        "domain_curation": """
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
        """,
        "gopher_quality": """
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
        """,
        "training_mix": f"""
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
        """,
        "incremental_dedup": """
            WITH known AS (
              SELECT md5(text) AS h FROM documents WHERE doc_id % 5 = 0
            )
            SELECT d.doc_id, md5(d.text) AS text_hash
            FROM documents d
            WHERE NOT EXISTS (SELECT 1 FROM known k WHERE k.h = md5(d.text))
        """,
        "sequence_pack": """
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
        """,
        "training_chain": """
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
        """,
        "stratified_sample": """
            SELECT lang, count(*) AS n_docs
            FROM documents
            WHERE (('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
                   % 100)
                  < CASE lang WHEN 'en' THEN 80 WHEN 'de' THEN 40
                              WHEN 'fr' THEN 40 WHEN 'es' THEN 20
                              WHEN 'zh' THEN 10 ELSE 5 END
            GROUP BY lang
        """,
        "pdf_stream_fallback": """
            SELECT doc_id,
              CASE WHEN doc_id % 3 = 0 THEN 'stream' ELSE 'lattice' END
                  AS flavor,
              CAST(CASE doc_id % 3 WHEN 0 THEN 9000 WHEN 1 THEN 9500
                   ELSE 6000 END AS BIGINT) AS accuracy_c,
              CASE WHEN doc_id % 3 = 0
                   THEN 's' || CAST(doc_id AS VARCHAR)
                   ELSE 'v' || CAST(doc_id AS VARCHAR) END AS cell
            FROM documents
        """,
        # parameter-search replay: the stand-in accuracy of attempt i
        # on page doc_id is md5_number_lower('{doc_id}:{i}') % 10000
        # centi-%; with a constant grid across attempts the quality
        # blend is strictly monotone in accuracy, so the winner is the
        # accuracy argmax (ties -> lowest set index). Sets 0-2 are
        # lattice, 3-4 stream.
        "pagerank": _pagerank_sql(5),
        "pagerank_personalized": _pagerank_personalized_sql(5),
        "sssp": _sssp_sql(8),
        "kcore": _kcore_sql(6, 12),
        "kmeans_lloyd": _kmeans_sql(8, 2),
        "cluster_balanced_sample": (
            _kmeans_sql(8, 2).replace(
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
            )
        ),
        "mis": _mis_sql(8),
        "cocitation": """
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
        """,
        "bfs_hops": """
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
        """,
        "peak_window": """
            WITH v AS (
                SELECT user_id, ts, event_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
                FROM events
            ),
            w AS (
                SELECT user_id,
                       sum(value_c) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
                       ) AS win_c
                FROM v
            )
            SELECT user_id, CAST(max(win_c) AS BIGINT) AS peak_window_c,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM w GROUP BY user_id
        """,
        "hourly_spikes": """
            WITH h AS (
                SELECT user_id,
                       epoch_us(ts) // 1000000 // 3600 AS hour,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            ),
            u AS (
                SELECT user_id, count(*) AS nh, sum(n) AS ne,
                       max(n) AS peak
                FROM h GROUP BY 1
            )
            SELECT h.user_id,
                   CAST(any_value(u.nh) AS BIGINT) AS n_active_hours,
                   CAST(sum(CASE WHEN h.n * u.nh > 1 * u.ne
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_spike_hours,
                   CAST(any_value(u.peak) AS BIGINT) AS peak_hour_events
            FROM h JOIN u USING (user_id)
            GROUP BY h.user_id
        """,
        "nation_revenue": """
            SELECT n.n_name,
                   CAST(sum(CAST(floor(l.l_extendedprice *
                                       (1 - l.l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_c
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            WHERE c.c_nationkey = s.s_nationkey
            GROUP BY n.n_name
        """,
        "kwic": """
            SELECT doc_id,
                   CAST(strpos(text, 'data') AS BIGINT) AS pos,
                   substr(text,
                          greatest(strpos(text, 'data') - 20, 1),
                          (strpos(text, 'data')
                           - greatest(strpos(text, 'data') - 20, 1))
                          + length('data') + 20) AS snippet
            FROM documents
            WHERE strpos(text, 'data') > 0
        """,
        "returns_topk": """
            WITH per AS (
                SELECT o.o_custkey AS c_custkey,
                       sum(CAST(floor(l.l_extendedprice *
                                      (1 - l.l_discount) * 100 + 0.5)
                                AS BIGINT)) AS revenue_c
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                WHERE l.l_returnflag = 'R'
                  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o.o_orderdate <  TIMESTAMP '1997-01-01'
                GROUP BY 1
            )
            SELECT c_custkey, CAST(revenue_c AS BIGINT) AS revenue_c
            FROM per
            ORDER BY revenue_c DESC, c_custkey
            LIMIT 20
        """,
        "promo_revenue": """
            SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate)
                        AS BIGINT) AS ym,
                   CAST(sum(CASE WHEN p.p_type = 'ECONOMY'
                                 THEN CAST(floor(l.l_extendedprice *
                                                 (1 - l.l_discount) * 100
                                                 + 0.5) AS BIGINT)
                                 ELSE 0 END) AS BIGINT)
                       AS promo_revenue_c,
                   CAST(sum(CAST(floor(l.l_extendedprice *
                                       (1 - l.l_discount) * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT)
                       AS total_revenue_c
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY 1
        """,
        "interarrival": """
            WITH o AS (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS gap
                FROM events
            )
            SELECT user_id,
                   CAST(count(gap) AS BIGINT) AS n_gaps,
                   CAST(min(gap) AS BIGINT) AS min_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us,
                   CAST(sum(gap) AS BIGINT) AS sum_gap_us
            FROM o WHERE gap IS NOT NULL
            GROUP BY user_id
        """,
        "attribution": """
            WITH o AS (
                SELECT event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev
                FROM events
            )
            SELECT coalesce(prev, 'none') AS attributed_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM o WHERE event_type = 'purchase'
            GROUP BY 1
        """,
        "profile": """
            WITH s AS (
                SELECT 'l_quantity' AS col, CAST(l_quantity AS BIGINT) AS v
                FROM lineitem
                UNION ALL
                SELECT 'l_extendedprice',
                       CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                FROM lineitem
                UNION ALL
                SELECT 'l_discount',
                       CAST(floor(l_discount * 100 + 0.5) AS BIGINT)
                FROM lineitem
                UNION ALL
                SELECT 'l_tax', CAST(floor(l_tax * 100 + 0.5) AS BIGINT)
                FROM lineitem
            )
            SELECT col,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(*) - count(v) AS BIGINT) AS n_null,
                   CAST(min(v) AS BIGINT) AS min_v,
                   CAST(max(v) AS BIGINT) AS max_v,
                   CAST(sum(v) AS BIGINT) AS sum_v
            FROM s GROUP BY col
        """,
        "conversion_latency": """
            WITH fv AS (
                SELECT user_id, min(ts) AS v
                FROM events WHERE event_type = 'view' GROUP BY 1
            ),
            fp AS (
                SELECT e.user_id, min(e.ts) AS p
                FROM events e JOIN fv ON e.user_id = fv.user_id
                WHERE e.event_type = 'purchase' AND e.ts >= fv.v
                GROUP BY 1
            )
            SELECT fv.user_id,
                   CAST(epoch_us(fp.p) - epoch_us(fv.v) AS BIGINT)
                       AS latency_us
            FROM fv JOIN fp USING (user_id)
        """,
        "rollup": """
            SELECT coalesce(source, '(all)') AS source,
                   coalesce(lang, '(all)') AS lang,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(n_chars) AS BIGINT) AS sum_value
            FROM documents
            GROUP BY ROLLUP(source, lang)
        """,
        "cube": """
            SELECT coalesce(source, '(all)') AS source,
                   coalesce(lang, '(all)') AS lang,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(n_chars) AS BIGINT) AS sum_value
            FROM documents
            GROUP BY CUBE(source, lang)
        """,
        "embedding_dim_stats": """
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
        """,
        "max_concurrency": """
            WITH pts AS (
                SELECT epoch_us(ts) AS t, 1 AS delta FROM events
                UNION ALL
                SELECT epoch_us(ts) + 600000000, -1 FROM events
            ),
            net AS (
                SELECT t AS ts_us, CAST(SUM(delta) AS BIGINT) AS d
                FROM pts GROUP BY 1
            ),
            run AS (
                SELECT ts_us,
                       SUM(d) OVER (ORDER BY ts_us
                                    ROWS UNBOUNDED PRECEDING) AS r
                FROM net
            )
            SELECT CAST((SELECT max(r) FROM run) AS BIGINT)
                       AS max_concurrent,
                   CAST((SELECT min(ts_us) FROM run
                         WHERE r = (SELECT max(r) FROM run)) AS BIGINT)
                       AS at_ts_us
        """,
        "props_rollup": """
            WITH v AS (
                SELECT event_type,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS k
                FROM events
            )
            SELECT event_type,
                   CAST(count(k) AS BIGINT) AS n,
                   CAST(sum(k) AS BIGINT) AS sum_k,
                   CAST(min(k) AS BIGINT) AS min_k,
                   CAST(max(k) AS BIGINT) AS max_k
            FROM v WHERE k IS NOT NULL GROUP BY event_type
        """,
        "event_trigrams": """
            WITH s AS (
                SELECT event_type AS t1, ts,
                       lead(event_type, 1) OVER w AS t2,
                       lead(event_type, 2) OVER w AS t3,
                       lead(ts, 1) OVER w AS ts2,
                       lead(ts, 2) OVER w AS ts3
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
            FROM s
            WHERE t3 IS NOT NULL
              AND epoch_us(ts2) - epoch_us(ts)  <= 3600000000
              AND epoch_us(ts3) - epoch_us(ts2) <= 3600000000
            GROUP BY 1, 2, 3
        """,
        "full_outer_activity": """
            WITH a AS (
                SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n_a
                FROM events
                WHERE ts >= '2024-01-01' AND ts < '2024-01-04'
                GROUP BY 1, 2
            ),
            b AS (
                SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n_b
                FROM events
                WHERE ts >= '2024-01-28' AND ts < '2024-01-31'
                GROUP BY 1, 2
            )
            SELECT coalesce(a.user_id, b.user_id) AS user_id,
                   coalesce(a.event_type, b.event_type) AS event_type,
                   coalesce(a.n_a, 0) AS n_a,
                   coalesce(b.n_b, 0) AS n_b,
                   CASE WHEN a.user_id IS NOT NULL AND b.user_id IS NOT NULL
                        THEN 'both'
                        WHEN a.user_id IS NOT NULL THEN 'a_only'
                        ELSE 'b_only' END AS status
            FROM a FULL OUTER JOIN b
              ON a.user_id = b.user_id AND a.event_type = b.event_type
        """,
        "running_totals": """
            SELECT event_id, user_id,
                   CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS BIGINT)
                       AS running_c
            FROM events
        """,
        "corr_moments": """
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
        """,
        "ks_drift": """
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
        """,
        "length_outliers": """
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
        """,
        "hits": _hits_sql(3),
        "dsir_score": _DSIR_SCORE_SQL,
        # bitext_mine: ratio-margin mining replayed in closed form —
        # x side en, y side de (vec_id joined to documents.lang), k=4
        # neighbor averages on both sides, global top-20 by margin
        # with (src_id, tgt_id) tie order.
        "bitext_mine": """
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
        """,
        # kfold_split: row_number window modulo k, exact balance.
        "kfold_split": """
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
        """,
        # mixture_select: temperature (alpha=0.5) quota apportionment
        # in exact integer arithmetic (the one sqrt is IEEE correctly
        # rounded on both engines), then per-language hash-rank
        # selection with the repo's standard (md5(id), id) order.
        "mixture_select": """
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
        """,
        "dsir_select": f"""
            WITH s AS ({_DSIR_SCORE_SQL}),
                 r AS (SELECT doc_id, dsir_score,
                              row_number() OVER (
                                  ORDER BY dsir_score DESC,
                                           md5(CAST(doc_id AS VARCHAR)) ASC,
                                           doc_id ASC) AS rn
                       FROM s)
            SELECT doc_id, dsir_score FROM r WHERE rn <= 100
        """,
        "camelot_search": """
            WITH ps AS (SELECT unnest(range(5)) AS idx),
                 acc AS (SELECT d.doc_id, ps.idx,
                                CAST(md5_number_lower(
                                    CAST(d.doc_id AS VARCHAR) || ':' ||
                                    CAST(ps.idx AS VARCHAR)) % 10000
                                    AS BIGINT) AS acc_c
                         FROM documents d CROSS JOIN ps),
                 r AS (SELECT doc_id, idx, acc_c,
                              row_number() OVER (PARTITION BY doc_id
                                                 ORDER BY acc_c DESC, idx) AS rn
                       FROM acc)
            SELECT doc_id, CAST(idx AS BIGINT) AS param_idx,
                   CASE WHEN idx <= 2 THEN 'lattice' ELSE 'stream' END AS flavor,
                   acc_c AS accuracy_c
            FROM r WHERE rn = 1
        """,
        "dedup_exact": f"""
            WITH d AS ({_DUP_SQL})
            SELECT md5(text) AS text_hash,
                   min(doc_id) AS keep_doc_id,
                   count(*) AS dup_count
            FROM d GROUP BY 1
        """,
        "dedup_exact_rows": f"""
            WITH d AS ({_DUP_SQL}),
                 r AS (SELECT doc_id, md5(text) AS text_hash,
                              row_number() OVER (PARTITION BY md5(text)
                                                 ORDER BY doc_id) AS rn
                       FROM d)
            SELECT doc_id, text_hash FROM r WHERE rn = 1
        """,
        "dedup_embedding": """
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
        """,
        "neardup_bucketed": """
            WITH e AS (
                SELECT vec_id, embedding FROM embeddings
                UNION ALL
                SELECT vec_id + 1000000 AS vec_id, embedding
                FROM embeddings WHERE vec_id % 10 = 0
            )
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99
        """,
        "knn_ivf_fullprobe": """
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
        """,
        "knn_brute": """
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
        """,
        # LSH replay: planes = the 6 lowest-id vectors; bucket code =
        # bit pattern of dot-product signs (scale-invariant, so raw
        # dots replay the library's normalized ones); probe set = each
        # query's code plus its 6 Hamming-1 neighbors (multiprobe).
        "knn_lsh": """
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
        """,
        # IVF replay: centroids = the 16 lowest-id vectors (iters=0,
        # init="first"); every vector goes to its argmax-cosine cell
        # (ties -> lowest cell), queries probe their top-4 cells, and
        # the exact top-5 is taken over vectors in the probed union.
        "knn_ivf": """
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
        """,
        # PQ/ADC replay: normalize every vector, codebook_j = subvector
        # j of the 256 lowest-id normalized vectors (iters=0,
        # init="first"); encode = per-subspace nearest codeword
        # (list_distance, ties -> lowest codeword); ADC distance =
        # sum_j d2(query_sub_j, codeword(code_vj)); rank by (dist asc,
        # neighbor asc) — exactly the library's (-score desc, id asc).
        "knn_pq": """
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
        """,
        # Cluster-count replay: same data-point centroids as knn_ivf's
        # oracle; assignment = argmax cosine (ties -> lowest cell).
        "embedding_clusters": """
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
        """,
        "text_stats": f"""
            WITH s AS (SELECT lang, {_STATS_EXPR} FROM documents)
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_words) AS BIGINT) AS sum_words,
                   CAST(sum(n_tokens) AS BIGINT) AS sum_tokens,
                   CAST(sum(n_punct) AS BIGINT) AS sum_punct
            FROM s GROUP BY lang
        """,
        "lang_id": f"""
            WITH s AS (SELECT lang, {_STATS_EXPR} FROM documents),
                 p AS (SELECT lang, {_PRED_LANG_EXPR} FROM s)
            SELECT lang, pred_lang, count(*) AS n_docs
            FROM p GROUP BY lang, pred_lang
        """,
        "quality_hist": """
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
        """,
        "hll_registers": """
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
        """,
        "hll_estimate": """
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
        """,
        "cms_counters": """
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
        """,
        "cms_topk": """
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
        """,
        "bloom_filter": """
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
        """,
        "rake_keywords": """
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
        """,
        "ngram_novelty": """
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
        """,
        "anti_join": """
            -- Customers with no URGENT order, per nation; balance in
            -- exact cents (floor(x*100 + 0.5), the repo money rule).
            SELECT c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_customers,
                   CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS acctbal_c
            FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
            )
            GROUP BY c_nationkey
        """,
        "semi_join": """
            -- Orders with at least one returned lineitem (EXISTS, not
            -- join multiplicity), per priority; price in exact cents.
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS totalprice_c
            FROM orders
            WHERE o_orderkey IN (
                SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R'
            )
            GROUP BY o_orderpriority
        """,
        "semi_join_bloom": """  -- identical contract: bloom only prunes
            -- Orders with at least one returned lineitem (EXISTS, not
            -- join multiplicity), per priority; price in exact cents.
            SELECT o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                       AS totalprice_c
            FROM orders
            WHERE o_orderkey IN (
                SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R'
            )
            GROUP BY o_orderpriority
        """,
        "custdist": """
            -- TPC-H Q13: distribution of customers by order count,
            -- zero-order customers included (LEFT OUTER).
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM (
                SELECT c.c_custkey,
                       CAST(count(o.o_custkey) AS BIGINT) AS c_count
                FROM customer c
                LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                GROUP BY c.c_custkey
            )
            GROUP BY c_count
        """,
        # TPC-H Q15: argmax with ties over windowed per-supplier revenue
        "top_supplier": """
            WITH rev AS (
                SELECT l_suppkey AS s_suppkey,
                       SUM(CAST(floor(l_extendedprice*(1-l_discount)*100
                                      + 0.5) AS BIGINT)) AS total_revenue_c
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1996-04-01'
                GROUP BY 1
            )
            SELECT r.s_suppkey, s.s_name, r.total_revenue_c
            FROM rev r JOIN supplier s ON s.s_suppkey = r.s_suppkey
            WHERE r.total_revenue_c = (SELECT max(total_revenue_c) FROM rev)
        """,
        # TPC-H Q18: HAVING over lineitem qty, enriched from orders+customer
        "large_volume_orders": """
            WITH t AS (
                SELECT l_orderkey,
                       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                           AS sum_qty
                FROM lineitem GROUP BY 1
                HAVING SUM(CAST(l_quantity AS BIGINT)) > 250
            )
            SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
                   CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT)
                       AS o_totalprice_c,
                   t.sum_qty
            FROM t
            JOIN orders o   ON o.o_orderkey = t.l_orderkey
            JOIN customer c ON c.c_custkey  = o.o_custkey
        """,
        # TPC-H Q17: qty < 0.2*avg(qty per part) as exact ints
        "small_qty_revenue": """
            WITH agg AS (
                SELECT l_partkey,
                       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sq,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM lineitem
                WHERE l_partkey IN
                      (SELECT p_partkey FROM part WHERE p_size <= 5)
                GROUP BY 1
            )
            SELECT CAST(COALESCE(SUM(CAST(floor(l.l_extendedprice*100 + 0.5)
                                          AS BIGINT)), 0) AS BIGINT)
                       AS total_price_c
            FROM lineitem l JOIN agg a ON a.l_partkey = l.l_partkey
            WHERE 5 * CAST(l.l_quantity AS BIGINT) * a.c < a.sq
        """,
        # TPC-H Q21 shape: sole returning supplier on multi-supplier orders
        "sole_return_suppliers": """
            WITH per AS (
                SELECT l_orderkey,
                       COUNT(DISTINCT l_suppkey) AS ns,
                       COUNT(DISTINCT CASE WHEN l_returnflag = 'R'
                                           THEN l_suppkey END) AS nr,
                       MIN(CASE WHEN l_returnflag = 'R'
                                THEN l_suppkey END) AS sole_sk
                FROM lineitem GROUP BY 1
            ),
            cnt AS (
                SELECT sole_sk AS s_suppkey,
                       CAST(COUNT(*) AS BIGINT) AS numwait
                FROM per WHERE ns >= 2 AND nr = 1 GROUP BY 1
            )
            SELECT c.s_suppkey, s.s_name, c.numwait
            FROM cnt c JOIN supplier s USING (s_suppkey)
            ORDER BY c.numwait DESC, c.s_suppkey ASC
            LIMIT 25
        """,
        # TPC-H Q11 shape: parts earning > 1.25x the average part revenue
        "revenue_share_parts": """
            WITH pp AS (
                SELECT l_partkey,
                       SUM(CAST(floor(l_extendedprice*(1-l_discount)*100
                                      + 0.5) AS BIGINT)) AS revenue_c
                FROM lineitem GROUP BY 1
            )
            SELECT l_partkey, revenue_c FROM pp
            WHERE CAST(revenue_c AS HUGEINT) * 4 *
                  (SELECT CAST(count(*) AS HUGEINT) FROM pp) >
                  5 * (SELECT CAST(SUM(revenue_c) AS HUGEINT) FROM pp)
        """,
        # TPC-H Q6: discount-band revenue, exact integer permille filter
        "discount_band_revenue": """
            SELECT CAST(coalesce(sum(CAST(floor(
                       l_extendedprice*l_discount*100+0.5) AS BIGINT)), 0)
                   AS BIGINT) AS revenue_c
            FROM lineitem
            WHERE year(l_shipdate) = 1996
              AND CAST(floor(l_discount*100+0.5) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24
        """,
        # TPC-H Q12 shape: late (>60 days after order) lines by priority
        "late_lines_priority": """
            SELECT o_orderpriority,
                   CAST(sum(CASE WHEN l_shipdate >
                                      o_orderdate + INTERVAL 60 DAY
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
                   CAST(count(*) AS BIGINT) AS n_lines
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY 1
        """,
        # TPC-H Q7: cross-nation volume per ship year
        "nation_pair_volume": """
            SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_c
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ns ON s_nationkey = ns.n_nationkey
            JOIN nation nc ON c_nationkey = nc.n_nationkey
            WHERE s_nationkey <> c_nationkey
              AND year(l_shipdate) IN (1995, 1996)
            GROUP BY 1, 2, 3
        """,
        # TPC-H Q8 shape: NATION_2 share of the ASIA PROMO market
        "market_share": """
            SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(CASE WHEN s_nationkey = 2
                                 THEN CAST(floor(l_extendedprice *
                                      (1-l_discount)*100+0.5) AS BIGINT)
                                 ELSE 0 END) AS BIGINT) AS nation_rev_c,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS total_rev_c
            FROM lineitem
            JOIN part ON l_partkey = p_partkey
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation n ON c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            WHERE p_type = 'PROMO' AND r.r_name = 'ASIA'
            GROUP BY 1
        """,
        # TPC-H Q16 shape: distinct shipping suppliers per (brand, type)
        "supplier_part_counts": """
            SELECT p_brand, p_type,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) li
            JOIN part ON l_partkey = p_partkey
            WHERE p_brand <> 'Brand#5'
            GROUP BY 1, 2
        """,
        # TPC-H Q19: OR-of-ANDs brand/qty/size predicate revenue
        "disjunctive_revenue": """
            SELECT CAST(coalesce(sum(CAST(floor(
                       l_extendedprice*(1-l_discount)*100+0.5)
                       AS BIGINT)), 0) AS BIGINT) AS revenue_c
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#1' AND l_quantity BETWEEN 1 AND 11
                   AND p_size BETWEEN 1 AND 5)
               OR (p_brand = 'Brand#2' AND l_quantity BETWEEN 10 AND 20
                   AND p_size BETWEEN 1 AND 10)
               OR (p_brand = 'Brand#3' AND l_quantity BETWEEN 20 AND 30
                   AND p_size BETWEEN 1 AND 15)
        """,
        # TPC-H Q2 shape: min-acctbal EUROPE supplier per filtered part
        "min_cost_supplier": """
            WITH shipped AS (
                SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
            ),
            cand AS (
                SELECT p_partkey, s_suppkey,
                       CAST(floor(s_acctbal*100+0.5) AS BIGINT)
                           AS acctbal_c,
                       row_number() OVER (
                           PARTITION BY p_partkey
                           ORDER BY CAST(floor(s_acctbal*100+0.5)
                                         AS BIGINT), s_suppkey
                       ) AS rn
                FROM shipped
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation n ON s_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
                JOIN part ON l_partkey = p_partkey
                WHERE r.r_name = 'EUROPE'
                  AND p_size = 15 AND p_type = 'SMALL'
            )
            SELECT p_partkey, s_suppkey, acctbal_c FROM cand WHERE rn = 1
        """,
        # TPC-H Q20 shape: leading supplier + exact share per part
        "part_leading_supplier": """
            WITH sq AS (
                SELECT l_partkey, l_suppkey,
                       CAST(sum(l_quantity) AS BIGINT) AS q
                FROM lineitem GROUP BY 1, 2
            ),
            tot AS (
                SELECT l_partkey, CAST(sum(q) AS BIGINT) AS t
                FROM sq GROUP BY 1
            ),
            lead AS (
                SELECT sq.l_partkey, sq.l_suppkey, sq.q, tot.t,
                       row_number() OVER (
                           PARTITION BY sq.l_partkey
                           ORDER BY sq.q DESC, sq.l_suppkey
                       ) AS rn
                FROM sq
                JOIN tot USING (l_partkey)
                JOIN part ON sq.l_partkey = p_partkey
                WHERE p_name LIKE '%plate%'
            )
            SELECT l_partkey AS p_partkey, l_suppkey,
                   q AS supp_qty, t AS total_qty
            FROM lead WHERE rn = 1
        """,
        # TPC-H Q9 shape: profit by supplier nation x order year
        "nation_profit": """
            SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100
                                       + 0.5) AS BIGINT)
                            - CAST(l_quantity AS BIGINT) *
                              CAST(floor(p_retailprice*100+0.5)
                                   AS BIGINT)) AS BIGINT) AS profit_c
            FROM lineitem
            JOIN part ON l_partkey = p_partkey
            JOIN orders ON l_orderkey = o_orderkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_name LIKE '%red%'
            GROUP BY 1, 2
        """,
        # Exact per-group median via value-histogram exchange
        "median_chars": """
            SELECT lang, median(n_chars) AS median
            FROM documents GROUP BY lang
        """,
        # Histogram argmax: most common length bucket, ties -> smallest
        "mode_length_bucket": """
            SELECT lang, bucket AS mode_value, n FROM (
                SELECT lang, n_chars // 100 AS bucket,
                       CAST(count(*) AS BIGINT) AS n,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY count(*) DESC, n_chars // 100 ASC
                       ) AS rn
                FROM documents GROUP BY lang, n_chars // 100
            ) WHERE rn = 1
        """,
        # Histogram quantiles: the SQL mirrors the engine's exact
        # integer position/interpolation arithmetic so doubles match
        "length_quantiles": """
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
        """,
        # 2-D Pareto skyline: NOT EXISTS domination with a strict clause
        "pareto_parts": """
            WITH pts AS (
                SELECT p_partkey,
                       CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)
                           AS price_c,
                       CAST(p_size AS BIGINT) AS p_size
                FROM part
            )
            SELECT p.p_partkey, p.price_c, p.p_size
            FROM pts p
            WHERE NOT EXISTS (
                SELECT 1 FROM pts q
                WHERE q.price_c <= p.price_c AND q.p_size >= p.p_size
                  AND (q.price_c < p.price_c OR q.p_size > p.p_size)
            )
        """,
        # SCC of doc 0: forward closure INTERSECT backward closure
        "scc_component": """
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
        """,
        "editdist_neardup": """
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
        """,
        "random_walks": """
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
        """,
        "lpa_communities": """
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
        """,
        "walk_skipgrams": """
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
        """,
        "triangles": """
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
        """,
        "entity_clusters": """
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
        """,
        "bigram_familiarity": """
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
        """,
        "vocab_drift": """
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
        """,
        "zipf_histogram": """
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
        """,
        "quality_percentile": """
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
        """,
        "phrase_search": """
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
        """,
        "fingerprint": """
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))) AS fingerprint
            FROM documents
        """,
        "winnow": """
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
        """,
        "q1_pricing": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_quantity*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_c,
                   CAST(sum(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_c,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_c,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
        """,
        "q3_top_orders": """
            WITH rev AS (
                SELECT l_orderkey,
                       CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c
                FROM lineitem GROUP BY l_orderkey
            )
            SELECT rev.l_orderkey, rev.revenue_c
            FROM rev
            JOIN orders o ON o.o_orderkey = rev.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = 'BUILDING'
            ORDER BY revenue_c DESC, rev.l_orderkey
            LIMIT 10
        """,
        "events_window": """
            SELECT event_type,
                   CAST(floor(epoch(ts)/3600) AS BIGINT) * 3600 AS window_start,
                   count(*) AS n_events,
                   CAST(sum(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_c
            FROM events
            GROUP BY event_type, window_start
        """,
        "events_hopping": """
            WITH w AS (
                SELECT event_type,
                       unnest([CAST(floor(epoch(ts)/1800) AS BIGINT) * 1800,
                               CAST(floor(epoch(ts)/1800) AS BIGINT) * 1800 - 1800])
                           AS window_start,
                       CAST(floor(value*100 + 0.5) AS BIGINT) AS value_c
                FROM events
            )
            SELECT event_type, window_start,
                   count(*) AS n_events,
                   CAST(sum(value_c) AS BIGINT) AS sum_value_c
            FROM w GROUP BY event_type, window_start
        """,
        "events_pivot": """
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type='click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type='error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type='purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type='signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type='view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """,
        "pricing_rollup": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_c,
                   count(*) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        "value_quantiles": """
            SELECT event_type,
                   quantile_disc(CAST(floor(value*100 + 0.5) AS BIGINT), 0.5)
                       AS p50_c,
                   quantile_disc(CAST(floor(value*100 + 0.5) AS BIGINT), 0.9)
                       AS p90_c
            FROM events GROUP BY event_type
        """,
        "scd2_history": """
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
        """,
        "crawl_refresh": """
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
        """,
        "crawl_changes": """
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
        """,
        "index_sink": """
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
        """,
        "inverted_index": """
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
        """,
        "quantiles_sampled": """
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
        """,
        "distinct_users": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "brand_topk": """
            WITH rev AS (
                SELECT l_partkey,
                       CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT) AS rev_c
                FROM lineitem
            )
            SELECT p.p_brand, CAST(sum(rev_c) AS BIGINT) AS revenue_c
            FROM rev JOIN part p ON p.p_partkey = rev.l_partkey
            GROUP BY p.p_brand
            ORDER BY revenue_c DESC, p_brand
            LIMIT 5
        """,
        # ground truth for the near-dup sketches: ALL pairs with exact
        # word-3-gram Jaccard >= threshold, computed by brute-force
        # cross join in SQL. O(n^2) BY DESIGN — ~10 s at the sf0.01
        # gate scale (where the driver runs oracles, TESTDATA.md), but
        # ~100x that at sf0.1; the Ray pipeline itself stays subsecond-
        # per-10k-docs at every scale.
        # MinHash-LSH at 16 bands x 4 rows has >= 0.9998 recall at
        # J=0.8, and on this deterministic corpus it finds exactly the
        # true pair set, so the comparison is stable.
        "dedup_minhash": f"""
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
        """,
        # Cross-dump ground truth: exact 3-gram Jaccard over new x old
        # (brute force BY DESIGN, like dedup_minhash). The new dump is
        # the same deterministic derivation the Ray query builds.
        "incremental_minhash": """
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
        """,
        # Exact SimHash replay: md5_number_lower == the Python feature
        # hash (md5 digest bytes 8..16 little-endian) by construction,
        # so per-doc sketches match bit-for-bit; pigeonhole blocking
        # (4 x 16-bit bands) makes candidate recall exact at hamming<=3,
        # so the pair set is simply ALL pairs within the radius.
        "dedup_simhash": f"""
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
        """,
        # Span oracle groups on the n-gram STRING itself — no hash to
        # replicate; positions joined back classify per-doc counts.
        "dup_ngram_spans": f"""
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
        """,
        "strip_dup_spans": f"""
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
        """,
        "strip_spans_min8": _strip_spans_min_sql(8),
        "strip_spans_min30": _strip_spans_min_sql(30),
        "dup_clusters": f"""
            WITH RECURSIVE {_CLUSTER_CTES}
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(cluster_id AS BIGINT) AS cluster_id
            FROM clusters
        """,
        # cluster_safe_split: COALESCE to own id for singletons, then
        # the standard md5-percent hash on the CLUSTER key.
        "cluster_safe_split": f"""
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
        """,
        "dedup_survivors": f"""
            WITH RECURSIVE {_CLUSTER_CTES}
            SELECT CAST(doc_id AS BIGINT) AS doc_id FROM d
            WHERE doc_id NOT IN
                  (SELECT doc_id FROM clusters WHERE doc_id != cluster_id)
        """,
        "cluster_size_hist": f"""
            WITH RECURSIVE {_CLUSTER_CTES},
            sz AS (
                SELECT cluster_id, CAST(count(*) AS BIGINT) AS size
                FROM clusters GROUP BY 1
            )
            SELECT size, CAST(count(*) AS BIGINT) AS n_clusters
            FROM sz GROUP BY size
        """,
        # jaccard_join: the exact-Jaccard cross join over docs +
        # injected copies — completeness check for the lossless
        # prefix-filter candidate generation.
        "jaccard_join": f"""
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
        """,
        "dedup_ngram": """
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
        """,
        "url_dedup": """
            WITH p AS (SELECT 'https://example.org/page-' || (doc_id % 200) AS url,
                              doc_id
                       FROM documents)
            SELECT url, min(doc_id) AS keep_doc_id, count(*) AS dup_count
            FROM p GROUP BY url
        """,
        "domain_counts": """
            WITH p AS (SELECT 'site-' || (doc_id % 37) || '.example.com' AS host
                       FROM documents)
            SELECT host, count(*) AS n FROM p GROUP BY host
        """,
        "domain_cap": """
            WITH p AS (SELECT doc_id,
                              'site-' || (doc_id % 37) || '.example.com' AS host
                       FROM documents)
            SELECT doc_id, host FROM p
            QUALIFY row_number() OVER (
                PARTITION BY host
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5
        """,
        "domain_blocklist": """
            SELECT doc_id,
                   'site-' || (doc_id % 37) || '.example.com' AS host
            FROM documents
            WHERE (doc_id % 37) % 7 <> 0
        """,
        # The messy-url CTE shared by the canonicalization oracles:
        # same 5-variant CASE the Ray side synthesizes.
        "url_canonical": """
            WITH u AS (
              SELECT doc_id,
                     CASE doc_id % 5
                       WHEN 0 THEN 'HTTPS://Site-' || (doc_id % 50)
                                   || '.Example.COM/a/' || (doc_id % 50)
                       WHEN 1 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com:443/a/' || (doc_id % 50)
                       WHEN 2 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com/a/' || (doc_id % 50)
                                   || '?utm_source=rss&id=' || (doc_id % 50)
                       WHEN 3 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com/a/' || (doc_id % 50)
                                   || '#section-2'
                       ELSE 'http://site-' || (doc_id % 50)
                            || '.example.com:80/a/' || (doc_id % 50)
                            || '?fbclid=abc'
                     END AS url
              FROM documents),
            p AS (
              SELECT doc_id,
                lower(regexp_extract(url,
                    '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                lower(regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)) AS hostport,
                regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*([^?#]*)', 1) AS path,
                regexp_extract(url, '^[^?#]*\\?([^#]*)', 1) AS query
              FROM u),
            c AS (
              SELECT doc_id, scheme,
                CASE WHEN scheme = 'http'
                         THEN regexp_replace(hostport, ':80$', '')
                     WHEN scheme = 'https'
                         THEN regexp_replace(hostport, ':443$', '')
                     ELSE hostport END AS host,
                CASE WHEN path = '' THEN '/' ELSE path END AS path,
                COALESCE(array_to_string(
                  list_filter(string_split(query, '&'),
                    x -> NOT (x = ''
                              OR starts_with(lower(split_part(x, '=', 1)),
                                             'utm_')
                              OR lower(split_part(x, '=', 1)) IN
                                 ('fbclid','gclid','msclkid','mc_eid',
                                  'igshid'))),
                  '&'), '') AS q
              FROM p)
            SELECT doc_id,
                   scheme || '://' || host || path
                     || CASE WHEN q = '' THEN '' ELSE '?' || q END
                       AS canon_url
            FROM c
        """,
        "url_canonical_dedup": """
            WITH u AS (
              SELECT doc_id,
                     CASE doc_id % 5
                       WHEN 0 THEN 'HTTPS://Site-' || (doc_id % 50)
                                   || '.Example.COM/a/' || (doc_id % 50)
                       WHEN 1 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com:443/a/' || (doc_id % 50)
                       WHEN 2 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com/a/' || (doc_id % 50)
                                   || '?utm_source=rss&id=' || (doc_id % 50)
                       WHEN 3 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com/a/' || (doc_id % 50)
                                   || '#section-2'
                       ELSE 'http://site-' || (doc_id % 50)
                            || '.example.com:80/a/' || (doc_id % 50)
                            || '?fbclid=abc'
                     END AS url
              FROM documents),
            p AS (
              SELECT doc_id,
                lower(regexp_extract(url,
                    '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                lower(regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)) AS hostport,
                regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*([^?#]*)', 1) AS path,
                regexp_extract(url, '^[^?#]*\\?([^#]*)', 1) AS query
              FROM u),
            c AS (
              SELECT doc_id, scheme ||  '://' ||
                CASE WHEN scheme = 'http'
                         THEN regexp_replace(hostport, ':80$', '')
                     WHEN scheme = 'https'
                         THEN regexp_replace(hostport, ':443$', '')
                     ELSE hostport END ||
                CASE WHEN path = '' THEN '/' ELSE path END ||
                CASE WHEN COALESCE(array_to_string(
                  list_filter(string_split(query, '&'),
                    x -> NOT (x = ''
                              OR starts_with(lower(split_part(x, '=', 1)),
                                             'utm_')
                              OR lower(split_part(x, '=', 1)) IN
                                 ('fbclid','gclid','msclkid','mc_eid',
                                  'igshid'))),
                  '&'), '') = '' THEN ''
                ELSE '?' || array_to_string(
                  list_filter(string_split(query, '&'),
                    x -> NOT (x = ''
                              OR starts_with(lower(split_part(x, '=', 1)),
                                             'utm_')
                              OR lower(split_part(x, '=', 1)) IN
                                 ('fbclid','gclid','msclkid','mc_eid',
                                  'igshid'))),
                  '&') END AS canon_url
              FROM p)
            SELECT canon_url, min(doc_id) AS keep_doc_id,
                   count(*) AS dup_count
            FROM c GROUP BY canon_url
        """,
        "c4_filters": """
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
        """,
        # WARC round trip: writer emits each document as an HTTP/200
        # response whose body is exactly the utf-8 text, so every
        # parsed field recomputes from `documents` alone.
        "warc_extract": """
            SELECT doc_id,
                   CAST(200 AS BIGINT) AS http_status,
                   CAST(strlen(text) AS BIGINT) AS body_len,
                   md5(text) AS body_md5
            FROM documents
        """,
        "range_band": """
            WITH r AS (
                SELECT i*25 AS lo, i*25 + 18 AS hi,
                       'band-' || lpad(CAST(i AS VARCHAR), 2, '0')
                           AS range_key
                FROM range(40) t(i)),
            j AS (
                SELECT r.range_key,
                       CAST(floor(e.value*100 + 0.5) AS BIGINT) AS value_c
                FROM events e
                JOIN r ON e.value >= r.lo AND e.value < r.hi)
            SELECT range_key,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(value_c) AS BIGINT) AS sum_value_c
            FROM j GROUP BY range_key
        """,
        "range_band_partitioned": """
            WITH r AS (
                SELECT i*25 AS lo, i*25 + 18 AS hi,
                       'band-' || lpad(CAST(i AS VARCHAR), 2, '0')
                           AS range_key
                FROM range(40) t(i)),
            j AS (
                SELECT r.range_key,
                       CAST(floor(e.value*100 + 0.5) AS BIGINT) AS value_c
                FROM events e
                JOIN r ON e.value >= r.lo AND e.value < r.hi)
            SELECT range_key,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(value_c) AS BIGINT) AS sum_value_c
            FROM j GROUP BY range_key
        """,
        "crawl_curate": """
            WITH u AS (
              SELECT doc_id, text,
                     CASE doc_id % 5
                       WHEN 0 THEN 'HTTPS://Site-' || (doc_id % 50)
                                   || '.Example.COM/a/' || (doc_id % 50)
                       WHEN 1 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com:443/a/' || (doc_id % 50)
                       WHEN 2 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com/a/' || (doc_id % 50)
                                   || '?utm_source=rss&id=' || (doc_id % 50)
                       WHEN 3 THEN 'https://site-' || (doc_id % 50)
                                   || '.example.com/a/' || (doc_id % 50)
                                   || '#section-2'
                       ELSE 'http://site-' || (doc_id % 50)
                            || '.example.com:80/a/' || (doc_id % 50)
                            || '?fbclid=abc'
                     END AS url
              FROM documents),
            p AS (
              SELECT doc_id, text,
                lower(regexp_extract(url,
                    '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                lower(regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)) AS hostport,
                regexp_extract(url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*([^?#]*)', 1) AS path,
                regexp_extract(url, '^[^?#]*\\?([^#]*)', 1) AS query
              FROM u),
            c AS (
              SELECT doc_id, text, scheme || '://' ||
                CASE WHEN scheme = 'http'
                         THEN regexp_replace(hostport, ':80$', '')
                     WHEN scheme = 'https'
                         THEN regexp_replace(hostport, ':443$', '')
                     ELSE hostport END ||
                CASE WHEN path = '' THEN '/' ELSE path END ||
                CASE WHEN COALESCE(array_to_string(
                  list_filter(string_split(query, '&'),
                    x -> NOT (x = ''
                              OR starts_with(lower(split_part(x, '=', 1)),
                                             'utm_')
                              OR lower(split_part(x, '=', 1)) IN
                                 ('fbclid','gclid','msclkid','mc_eid',
                                  'igshid'))),
                  '&'), '') = '' THEN ''
                ELSE '?' || array_to_string(
                  list_filter(string_split(query, '&'),
                    x -> NOT (x = ''
                              OR starts_with(lower(split_part(x, '=', 1)),
                                             'utm_')
                              OR lower(split_part(x, '=', 1)) IN
                                 ('fbclid','gclid','msclkid','mc_eid',
                                  'igshid'))),
                  '&') END AS canon_url
              FROM p),
            s AS (
              SELECT doc_id, text, canon_url,
                     row_number() OVER (PARTITION BY canon_url
                                        ORDER BY doc_id) AS rn
              FROM c),
            m AS (
              SELECT doc_id, canon_url,
                     replace(text, ' table ', '.' || chr(10))
                     || CASE WHEN doc_id % 97 = 0
                             THEN chr(10) || 'lorem ipsum dolor'
                             ELSE '' END
                     || CASE WHEN doc_id % 89 = 0
                             THEN chr(10) || 'if (x) { return; }'
                             ELSE '' END AS t
              FROM s WHERE rn = 1),
            l AS (SELECT doc_id, canon_url, t,
                         string_split(t, chr(10)) AS lines FROM m),
            k AS (SELECT doc_id, canon_url, t,
                         list_filter(lines,
                           x -> regexp_matches(x, '[.!?"][ \\t\\r\\f\\x0b]*$')
                                AND len(regexp_extract_all(x,
                                        '[^ \\t\\r\\f\\x0b]+')) >= 5) AS kept
                  FROM l)
            SELECT doc_id, canon_url,
                   md5(COALESCE(array_to_string(kept, chr(10)), ''))
                       AS clean_fp
            FROM k
            WHERE len(kept) >= 3
              AND NOT contains(lower(t), 'lorem ipsum')
              AND NOT contains(t, '{')
        """,
        "partitioned_sink": """
            SELECT lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(doc_id) AS BIGINT) AS sum_doc_id,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars,
                   md5(string_agg(CAST(doc_id AS VARCHAR), ','
                                  ORDER BY doc_id)) AS ids_md5
            FROM documents GROUP BY lang
        """,
        "shuffle_export": """
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
        """,
        "script_stats": """
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
        """,
        "strip_tokenize_chain": f"""
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
        """,
        "embedding_gram": """
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
        """,
        "kcenter_coreset": _kcenter_sql(6),
        "graph_ann": _nsw_sql(rounds=3, ef=8, k=5, m=4, mx=2),
        "token_chunks": """
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
        """,
        # bin_export: byte-exact replay of the on-disk uint16-LE .bin
        # shards + int64 .idx triples — same chunk CTE as
        # token_chunks, then per-shard (chunk_id % 4) hex streams.
        "bin_export": """
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
        """,
        # suffix_dup_spans: exact >= 50-token duplicated-substring
        # coverage — literal 50-word-gram equality (the window form
        # provably equal to suffix-array coverage), gaps-and-islands
        # maximal intervals. Chimera plants (first30+last30) must
        # produce NO rows; true 60-word plants produce [0, 60) spans
        # in both the source and the planted doc.
        "suffix_dup_spans": """
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
        """,
        # pretrain_corpus: the WHOLE seven-stage flagship chain in one
        # CTE stack — gopher gate, exact dedup, recursive
        # Jaccard-cluster closure (MinHash survivors), 8-gram
        # contamination interval strip, capped largest-remainder
        # temperature quotas + (md5(id), id) rank selection, kept-word
        # token stream, 512-token chunk/4-shard hex fingerprints.
        "pretrain_corpus": """
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
        """,
        # fim_chunks: PSM permutation replayed with position CASE
        # arithmetic (jj = pos % 512 is the within-chunk index; a
        # transformed chunk maps prefix j->j+1, suffix j->j-b+a+2,
        # middle j->j+n-b+3) plus three sentinel rows per chunk.
        "fim_chunks": """
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
        """,
        # span_corrupt: inputs keyed by original position (sentinel
        # sits at its span's start — corrupted positions vacate the
        # range, so keys stay unique); targets by span-linearized key
        # j*(span_len+1) + offset.
        "span_corrupt": """
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
        """,
        # robots gate: the oracle rebuilds the expected allow/deny
        # decision from the synthetic rule (host parity selects the
        # agent group; path kind selects which wildcard/anchor/
        # longest-match rule fires) — only the Ray side ever parses
        # robots.txt text.
        "robots_gate": """
            SELECT 'https://h' || ((doc_id // 6) % 20) || '.example.org'
                   || CASE doc_id % 6
                        WHEN 0 THEN '/public/' || doc_id
                        WHEN 1 THEN '/private/' || doc_id
                        WHEN 2 THEN '/private/ok'
                        WHEN 3 THEN '/tmp/' || doc_id || '.html'
                        WHEN 4 THEN '/a/' || doc_id || '/end'
                        ELSE '/cgi-bin/q?x=' || doc_id END AS url,
                   'h' || ((doc_id // 6) % 20) || '.example.org' AS host,
                   CAST(CASE WHEN (doc_id // 6) % 2 = 1 THEN 0
                             WHEN doc_id % 6 IN (1, 3, 4) THEN 0
                             ELSE 1 END AS BIGINT) AS allowed
            FROM documents
        """,
        # crawl admission composite: real HTML head parse + real
        # robots.txt gate + canonical rollup, replayed in closed form
        # (admitted iff even host AND /public path AND no noindex).
        "crawl_admission": """
            WITH adm AS (
                SELECT doc_id AS d,
                       'https://canon.example.org/' || (doc_id % 250)
                           AS canonical
                FROM documents
                WHERE (doc_id // 6) % 2 = 0
                  AND doc_id % 4 = 0
                  AND doc_id % 7 <> 0
            )
            SELECT canonical,
                   CAST(count(*) AS BIGINT) AS n_admitted,
                   CAST(min(d) AS BIGINT) AS min_doc
            FROM adm GROUP BY canonical
        """,
        # head-metadata harvesting: the oracle rebuilds every field
        # from the deterministic _meta_pages wrapper rule (comment and
        # script title decoys, attribute-order flips and quote variety
        # are parser-side hazards the rule never mentions — a green
        # hash proves the tokenizer handled them).
        "head_meta": """
            SELECT 'https://docs.example.org/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
                   'Doc ' || doc_id || ' title' AS title,
                   CASE WHEN doc_id % 3 <> 0
                        THEN 'https://canon.example.org/'
                             || CAST(doc_id // 2 AS VARCHAR)
                        ELSE '' END AS canonical,
                   CASE WHEN doc_id % 11 = 0 THEN ''
                        WHEN doc_id % 7 = 0 THEN 'noindex,follow'
                        ELSE 'index,follow' END AS robots,
                   CASE WHEN doc_id % 2 = 0
                        THEN 'desc ' || CAST(doc_id * 13 % 997 AS VARCHAR)
                        ELSE '' END AS description,
                   'OG ' || doc_id AS og_title,
                   CAST(CASE WHEN doc_id % 11 <> 0 AND doc_id % 7 = 0
                             THEN 1 ELSE 0 END AS BIGINT) AS noindex
            FROM documents
        """,
        # One row per JSON-LD entity, replayed from the deterministic
        # wrapper rule (_ldjson_pages): Article always at ent_idx 0;
        # @graph pair at 1/2 when d%3=0; breadcrumb (d%9=0 implies
        # d%3=0) therefore always at idx 3; the d%7=0 invalid block
        # parses to nothing but bumps n_bad on every row of its page.
        # L/M = decimal widths of doc_id and doc_id%256; offsets are
        # CODEPOINTS (the 'café' before the IP shifts bytes, not cps).
        "pii_spans": """
            WITH d AS (
                SELECT doc_id,
                       length(CAST(doc_id AS VARCHAR)) AS l,
                       length(CAST(doc_id % 256 AS VARCHAR)) AS m
                FROM documents)
            SELECT doc_id, CAST(0 AS BIGINT) AS span_idx,
                   'email' AS kind,
                   CAST(9 + l AS BIGINT) AS start_cp,
                   CAST(20 + 2 * l AS BIGINT) AS end_cp
            FROM d
            UNION ALL
            SELECT doc_id, 1, 'phone', 25 + 2 * l, 38 + 2 * l FROM d
            UNION ALL
            SELECT doc_id, 2, 'ip', 48 + 2 * l, 55 + 2 * l + m FROM d
        """,
        "fetch_plan": """
            WITH hosts AS (SELECT DISTINCT doc_id % 20 AS x FROM documents),
            pend AS (
                SELECT doc_id % 20 AS x, count(*) AS pending
                FROM documents GROUP BY 1),
            d AS (
                SELECT x,
                       CASE WHEN x % 4 = 0 THEN 1
                            WHEN x % 5 = 0 THEN x % 4 + 3
                            WHEN x % 3 <> 0 THEN x % 7 + 2
                            ELSE 1 END AS delay_s
                FROM hosts)
            SELECT 'h' || x AS host,
                   CAST(delay_s AS BIGINT) AS delay_s,
                   CAST(60 // delay_s AS BIGINT) AS budget,
                   CAST(pending AS BIGINT) AS pending,
                   CAST(LEAST(60 // delay_s, pending) AS BIGINT) AS planned
            FROM d JOIN pend USING (x)
        """,
        "reciprocal_links": """
            WITH e AS (
                SELECT DISTINCT src, dst FROM (
                    SELECT 'h' || (doc_id % 23) AS src,
                           'h' || ((5 * (doc_id % 23) + 1) % 23) AS dst
                    FROM documents
                    UNION ALL
                    SELECT 'h' || (doc_id % 23),
                           'h' || ((7 * (doc_id % 23) + 3) % 23)
                    FROM documents WHERE doc_id % 2 = 0
                    UNION ALL
                    SELECT 'h' || (doc_id % 23),
                           'h' || ((14 * (doc_id % 23) + 9) % 23)
                    FROM documents WHERE doc_id % 3 = 0)
                WHERE src <> dst)
            SELECT src AS host,
                   CAST(count(*) AS BIGINT) AS n_out,
                   CAST(sum(CASE WHEN EXISTS (
                            SELECT 1 FROM e r
                            WHERE r.src = e.dst AND r.dst = e.src)
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_recip,
                   CAST(1000 * sum(CASE WHEN EXISTS (
                            SELECT 1 FROM e r
                            WHERE r.src = e.dst AND r.dst = e.src)
                        THEN 1 ELSE 0 END) // count(*) AS BIGINT)
                       AS recip_pm
            FROM e GROUP BY src
        """,
        "html_tables": """
            WITH d AS (
                SELECT doc_id,
                       2 + doc_id % 2 AS ncol,
                       2 + doc_id % 3 AS nrow,
                       'https://docs.example.org/'
                           || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url
                FROM documents),
            hdr AS (
                SELECT url, doc_id, unnest(range(ncol)) AS c FROM d),
            rc AS (
                SELECT url, doc_id, ncol,
                       unnest(range(nrow)) + 1 AS r
                FROM d),
            rcc AS (
                SELECT url, doc_id, r, unnest(range(ncol)) AS c FROM rc)
            SELECT url, CAST(0 AS BIGINT) AS table_idx,
                   CAST(0 AS BIGINT) AS row_idx,
                   CAST(c AS BIGINT) AS col_idx,
                   'H' || c AS cell
            FROM hdr
            UNION ALL
            SELECT url, 0, r, c,
                   'v' || ((doc_id + r * 7 + c * 13) % 100)
            FROM rcc
            UNION ALL
            SELECT url, 1, 0, 0, 'Z' FROM d WHERE doc_id % 5 = 0
            UNION ALL
            SELECT url, 1, 1, 0, 'q' || (doc_id % 9)
            FROM d WHERE doc_id % 5 = 0
        """,
        "host_mirrors": """
            WITH r AS (
                SELECT DISTINCT 'h' || (doc_id % 16) AS host,
                                'c' || (doc_id % 401) AS content
                FROM documents),
            eligible AS (
                SELECT content FROM r GROUP BY content
                HAVING count(*) BETWEEN 2 AND 4),
            pairs AS (
                SELECT a.host AS ha, b.host AS hb
                FROM r a
                JOIN r b ON a.content = b.content AND a.host < b.host
                JOIN eligible e ON e.content = a.content),
            cnt AS (
                SELECT ha, hb, count(*) AS n_shared
                FROM pairs GROUP BY ha, hb),
            sizes AS (SELECT host, count(*) AS n FROM r GROUP BY host)
            SELECT ha AS host_a, hb AS host_b,
                   CAST(n_shared AS BIGINT) AS n_shared,
                   CAST(sa.n AS BIGINT) AS n_a,
                   CAST(sb.n AS BIGINT) AS n_b,
                   CAST(1000 * n_shared // LEAST(sa.n, sb.n) AS BIGINT)
                       AS containment_pm
            FROM cnt
            JOIN sizes sa ON sa.host = cnt.ha
            JOIN sizes sb ON sb.host = cnt.hb
        """,
        # Cluster key: declared canonical (d%3<>0 -> canon id d//2)
        # resolved through the redirect rule final(x) = x - x%4; every
        # 3rd page self-clusters on its own URL. n_redirected counts
        # members whose canonical id needed >= 1 hop (x%4 <> 0).
        "canonical_clusters": """
            WITH pg AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 3 <> 0
                            THEN 'https://canon.example.org/'
                                 || CAST((doc_id // 2) - (doc_id // 2) % 4
                                         AS VARCHAR)
                            ELSE 'https://docs.example.org/'
                                 || lpad(CAST(doc_id AS VARCHAR), 8, '0')
                       END AS cluster_url,
                       CASE WHEN doc_id % 3 <> 0
                                 AND (doc_id // 2) % 4 <> 0
                            THEN 1 ELSE 0 END AS red
                FROM documents)
            SELECT cluster_url,
                   CAST(count(*) AS BIGINT) AS n_pages,
                   CAST(sum(red) AS BIGINT) AS n_redirected
            FROM pg GROUP BY cluster_url
        """,
        "readability_by_lang": """
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
        """,
        "fold_dedup": """
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
        """,
        "lexical_diversity": """
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
        """,
        "schema_gate": """
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
        """,
        "holdout_split": """
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
        """,
        "garbled_score": """
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
        """,
        "sentences": """
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
        """,
        "readability": """
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
        """,
        "json_ld": """
            WITH u AS (
                SELECT doc_id,
                       'https://docs.example.org/'
                           || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
                       CAST(CASE WHEN doc_id % 7 = 0 THEN 1 ELSE 0 END
                            AS BIGINT) AS n_bad
                FROM documents)
            SELECT url, CAST(0 AS BIGINT) AS ent_idx,
                   'Article' AS ent_type,
                   'Headline "q' || (doc_id % 10) || '" — '
                       || doc_id AS name,
                   '2024-' || lpad(CAST(doc_id % 12 + 1 AS VARCHAR), 2, '0')
                       || '-'
                       || lpad(CAST(doc_id % 28 + 1 AS VARCHAR), 2, '0')
                       AS date_published,
                   'Author ' || (doc_id % 97) AS author, n_bad
            FROM u
            UNION ALL
            SELECT url, 1, 'Organization', 'Org ' || (doc_id % 11),
                   '', '', n_bad
            FROM u WHERE doc_id % 3 = 0
            UNION ALL
            SELECT url, 2, 'WebSite', 'Site ' || (doc_id % 13),
                   '', '', n_bad
            FROM u WHERE doc_id % 3 = 0
            UNION ALL
            SELECT url, 3, 'BreadcrumbList', 'Crumbs ' || (doc_id % 5),
                   '', '', n_bad
            FROM u WHERE doc_id % 9 = 0
        """,
        "pii_cards": _PII_CARDS_SQL,
        # Dedup runs on REDACTED text, so groups whose only difference
        # was the (redacted) email/card legitimately merge — the
        # oracle's GROUP BY red replays exactly that (found at the
        # sf0.1 gate: 633 survivors = 211 even residue classes + 422
        # odd (g%211, g%12) CRT pairs, not 1667 leaders).
        "clean_export_chain": (
            "WITH lead AS (SELECT DISTINCT doc_id - doc_id % 3 AS g"
            " FROM documents), "
            "t AS (SELECT g, 'corpus body ' || (g % 211)"
            " || ' café contact <EMAIL> pay ' || "
            "CASE WHEN g % 2 = 0 THEN '<CARD>' ELSE "
            + _broken_card_case("g")
            + " END || ' end' AS red FROM lead), "
            "dd AS (SELECT red, min(g) AS doc_id FROM t GROUP BY red) "
            "SELECT doc_id, 'utf-8' AS charset, "
            "CAST(len(string_split(red, ' ')) AS BIGINT) AS n_words, "
            "md5(red) AS red_md5 FROM dd"
        ),
        "lexicon_filter": """
            SELECT doc_id,
                   CAST(doc_id % 4 AS BIGINT) AS n_hits,
                   CAST(doc_id % 4 AS BIGINT) AS n_terms,
                   CAST(CASE WHEN doc_id % 4 >= 2 THEN 1 ELSE 0 END
                        AS BIGINT) AS flagged
            FROM documents
        """,
        "outlink_features": """
            WITH l AS (
                SELECT doc_id, unnest(range(doc_id % 6)) AS j
                FROM documents),
            e AS (
                SELECT doc_id, j,
                       (doc_id + j) % 3 = 0 AS ext,
                       (doc_id + j) % 5 AS eh
                FROM l),
            agg AS (
                SELECT doc_id,
                       count(*) AS n_links,
                       sum(CASE WHEN ext THEN 1 ELSE 0 END) AS n_external,
                       count(DISTINCT CASE WHEN ext THEN eh END)
                           AS n_ext_hosts
                FROM e GROUP BY doc_id)
            SELECT 'https://h' || (d.doc_id % 11) || '.example.org/p'
                       || d.doc_id AS url,
                   CAST(coalesce(a.n_links, 0) AS BIGINT) AS n_links,
                   CAST(coalesce(a.n_external, 0) AS BIGINT) AS n_external,
                   CAST(coalesce(a.n_ext_hosts, 0) AS BIGINT)
                       AS n_ext_hosts,
                   CAST(CASE WHEN coalesce(a.n_links, 0) > 0
                             THEN 1000 * a.n_external // a.n_links
                             ELSE 0 END AS BIGINT) AS external_permille
            FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
        """,
        "hreflang_clusters": """
            SELECT 'https://l.example.org/' || (doc_id // 4) || '/de'
                       AS cluster_key,
                   count(*) AS n_pages,
                   CAST(4 AS BIGINT) AS n_langs,
                   'de,en,fr,x-default' AS langs
            FROM documents
            GROUP BY doc_id // 4
        """,
        "url_features": """
            WITH u AS (
              SELECT doc_id,
                     'https://'
                     || CASE doc_id % 4
                          WHEN 0 THEN 'example.com'
                          WHEN 1 THEN 'blog.example.com'
                          WHEN 2 THEN 'a' || (doc_id % 7) || '.b.example.net'
                          ELSE '192.168.' || (doc_id % 256) || '.'
                               || (doc_id % 200) END
                     || CASE doc_id % 3
                          WHEN 0 THEN '/'
                          WHEN 1 THEN '/post/' || doc_id
                          ELSE '/a/' || (doc_id % 10) || '/b-' || doc_id
                               || '/c' || (doc_id * 3 % 1000) || '/' END
                     || CASE doc_id % 5
                          WHEN 1 THEN '?id=' || doc_id
                          WHEN 2 THEN '?id=' || doc_id || '&ref=rss&s='
                                      || (doc_id % 7)
                          ELSE '' END AS url
              FROM documents),
            p AS (
              SELECT url,
                     regexp_extract(url,
                         '^[a-z][a-z0-9+.-]*://([^/:?#]+)', 1) AS host,
                     regexp_extract(url,
                         '^[a-z][a-z0-9+.-]*://[^/?#]*([^?#]*)', 1) AS path,
                     regexp_extract(url, '^[^?#]*\\?([^#]*)', 1) AS query
              FROM u),
            f AS (
              SELECT url, host,
                     regexp_matches(host,
                         '^\\d+\\.\\d+\\.\\d+\\.\\d+$') AS is_ip,
                     length(host) - length(replace(host, '.', '')) AS dots,
                     len(regexp_extract_all(path, '/[^/]+')) AS path_depth,
                     length(url) AS url_len,
                     length(regexp_replace(url, '[^0-9]', '', 'g'))
                         AS n_digits,
                     CASE WHEN query = '' THEN 0
                          ELSE len(string_split(query, '&')) END AS n_params,
                     regexp_extract(host, '\\.([a-z0-9-]+)$', 1) AS last_lbl
              FROM p)
            SELECT url, host,
                   CAST(CASE WHEN is_ip THEN 0
                             ELSE greatest(dots - 1, 0) END AS BIGINT)
                       AS subdomain_depth,
                   CAST(CASE WHEN is_ip THEN 1 ELSE 0 END AS BIGINT)
                       AS is_ip_host,
                   CASE WHEN is_ip THEN '' ELSE last_lbl END AS tld,
                   CAST(path_depth AS BIGINT) AS path_depth,
                   CAST(url_len AS BIGINT) AS url_len,
                   CAST(n_digits * 1000 // url_len AS BIGINT)
                       AS digit_permille,
                   CAST(n_params AS BIGINT) AS n_params
            FROM f
        """,
        "redirect_resolve": _REDIRECT_RESOLVE_SQL,
        # the meta-refresh composite plants the SAME chain/cycle rule
        # as real page HTML, so its oracle is identical arithmetic
        "refresh_redirects": _REDIRECT_RESOLVE_SQL,
        "discovery_chain": """
            WITH n AS (SELECT max(doc_id) + 1 AS nn FROM documents),
            pub AS (SELECT doc_id AS d FROM documents
                    WHERE doc_id % 5 <> 0 AND doc_id % 3 = 0),
            gen AS (
                SELECT d, d AS e FROM pub
                UNION ALL SELECT d, (d + 1) % nn FROM pub, n
                UNION ALL SELECT d, (d + 7) % nn FROM pub, n)
            SELECT 'https://site.example.org/page/' || e AS url,
                   count(*) AS n_listings
            FROM gen WHERE e % 3 <> 0
            GROUP BY e
        """,
        "sitemap_discover": """
            WITH n AS (SELECT max(doc_id) + 1 AS nn FROM documents),
            pub AS (SELECT doc_id AS d FROM documents WHERE doc_id % 5 <> 0),
            gen AS (
                SELECT d, d AS e FROM pub
                UNION ALL SELECT d, (d + 1) % nn FROM pub, n
                UNION ALL SELECT d, (d + 7) % nn FROM pub, n)
            SELECT 'https://site.example.org/page/' || e AS url,
                   count(*) AS n_listings
            FROM gen WHERE e % 3 <> 0
            GROUP BY e
        """,
        "charset_sniff": """
            WITH s AS (
                SELECT doc_id,
                       'https://fetch.example.org/'
                           || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
                       CASE doc_id % 6
                           WHEN 0 THEN '<html><head>'
                               || '<meta charset="iso-8859-1"></head>'
                               || '<body><p>' || text || '</p></body></html>'
                           WHEN 1 THEN '<html><body><p>' || text
                               || ' café</p></body></html>'
                           WHEN 2 THEN '<html><head>'
                               || '<meta charset="windows-1252"></head>'
                               || '<body><p>' || text
                               || ' “quoted”</p></body></html>'
                           WHEN 3 THEN text
                           ELSE '' END AS logical_text
                FROM documents)
            SELECT url,
                   CASE doc_id % 6
                       WHEN 3 THEN 'text/plain'
                       WHEN 4 THEN 'application/pdf'
                       WHEN 5 THEN 'image/png'
                       ELSE 'text/html' END AS content_type,
                   CASE doc_id % 6
                       WHEN 0 THEN 'utf-8'
                       WHEN 1 THEN 'utf-16-le'
                       WHEN 2 THEN 'windows-1252'
                       WHEN 3 THEN 'utf-8'
                       ELSE '' END AS charset,
                   CAST(length(logical_text) AS BIGINT) AS n_chars,
                   CASE WHEN logical_text = '' THEN ''
                        ELSE md5(logical_text) END AS text_md5
            FROM s
        """,
        "date_extract": """
            WITH d AS (
                SELECT doc_id,
                       2001 + doc_id % 24 AS y,
                       1 + (7 * doc_id) % 12 AS mo,
                       1 + (11 * doc_id) % 28 AS da
                FROM documents)
            SELECT CASE WHEN doc_id % 4 = 2
                        THEN 'https://h' || (doc_id % 11)
                             || '.example.org/' || y || '/' || mo || '/'
                             || da || '/post-' || doc_id || '.html'
                        ELSE 'https://h' || (doc_id % 11)
                             || '.example.org/posts/' || doc_id || '.html'
                   END AS url,
                   CASE WHEN doc_id % 4 = 3 THEN ''
                        ELSE y || '-' || lpad(CAST(mo AS VARCHAR), 2, '0')
                               || '-' || lpad(CAST(da AS VARCHAR), 2, '0')
                   END AS pub_date,
                   CASE doc_id % 4 WHEN 0 THEN 'meta' WHEN 1 THEN 'time'
                        WHEN 2 THEN 'url' ELSE '' END AS date_source
            FROM d
        """,
        # main-content extraction: the oracle rebuilds each page's
        # block sequence (nav / h1 / paragraphs / footer with the
        # wrapper's word and link-word counts) and replays the
        # WSDM-2010 NumWordsRules tree in exact-integer CASE form
        # (density thresholds 1/3 and 5/9 as cross-multiplications,
        # matching kernel/content_extract.py). The script/comment
        # paragraph decoys are absent from the rule — a green hash
        # proves the tokenizer never surfaced them.
        "content_blocks": """
            WITH d AS (
                SELECT doc_id,
                       string_split(text, ' ') AS ws,
                       len(string_split(text, ' ')) AS n,
                       11 + doc_id % 7 AS csz
                FROM documents),
            nav AS (
                SELECT doc_id, 0 AS block_idx,
                       3 + doc_id % 4 AS n_words,
                       3 + doc_id % 4 AS n_link_words,
                       list_aggregate(
                           list_transform(range(3 + doc_id % 4),
                               k -> 'nav' || doc_id || 'w' || k),
                           'string_agg', ' ') AS text
                FROM d),
            h1 AS (
                SELECT doc_id, 1 AS block_idx, 2 AS n_words,
                       0 AS n_link_words, 'Doc ' || doc_id AS text
                FROM d),
            paras AS (
                SELECT doc_id, 2 + i AS block_idx,
                       least(csz, n - i * csz) AS n_words,
                       CASE WHEN (doc_id + i) % 5 = 0 THEN 1 ELSE 0 END
                           AS n_link_words,
                       array_to_string(
                           ws[i * csz + 1 : least(n, (i + 1) * csz)],
                           ' ') AS text
                FROM d CROSS JOIN (SELECT unnest(range(10)) AS i) g
                WHERE i * csz < n),
            foot AS (
                SELECT doc_id,
                       2 + (n + csz - 1) // csz AS block_idx,
                       2 + doc_id % 3 AS n_words,
                       2 + doc_id % 3 AS n_link_words,
                       list_aggregate(
                           list_transform(range(2 + doc_id % 3),
                               k -> 'foot' || doc_id || 'w' || k),
                           'string_agg', ' ') AS text
                FROM d),
            blocks AS (
                SELECT * FROM nav UNION ALL SELECT * FROM h1
                UNION ALL SELECT * FROM paras UNION ALL SELECT * FROM foot),
            feat AS (
                SELECT doc_id, block_idx, n_words, n_link_words, text,
                       COALESCE(LAG(n_words) OVER w, 0) AS prev_w,
                       COALESCE(LAG(n_link_words) OVER w, 0) AS prev_l,
                       COALESCE(LEAD(n_words) OVER w, 0) AS next_w
                FROM blocks
                WINDOW w AS (PARTITION BY doc_id ORDER BY block_idx))
            SELECT 'https://docs.example.org/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
                   CAST(block_idx AS BIGINT) AS block_idx,
                   CAST(n_words AS BIGINT) AS n_words,
                   CAST(n_link_words AS BIGINT) AS n_link_words,
                   CAST(CASE WHEN 3 * n_link_words <= n_words THEN
                       CASE WHEN 9 * prev_l <= 5 * prev_w THEN
                           CASE WHEN n_words <= 16 THEN
                               CASE WHEN next_w <= 15
                                    THEN CASE WHEN prev_w > 4
                                              THEN 1 ELSE 0 END
                                    ELSE 1 END
                           ELSE 1 END
                       ELSE CASE WHEN n_words <= 40
                                 THEN CASE WHEN next_w > 17
                                           THEN 1 ELSE 0 END
                                 ELSE 1 END
                       END
                   ELSE 0 END AS BIGINT) AS is_content,
                   text
            FROM feat
        """,
        "main_content": """
            WITH d AS (
                SELECT doc_id,
                       string_split(text, ' ') AS ws,
                       len(string_split(text, ' ')) AS n,
                       11 + doc_id % 7 AS csz
                FROM documents),
            nav AS (
                SELECT doc_id, 0 AS block_idx,
                       3 + doc_id % 4 AS n_words,
                       3 + doc_id % 4 AS n_link_words,
                       list_aggregate(
                           list_transform(range(3 + doc_id % 4),
                               k -> 'nav' || doc_id || 'w' || k),
                           'string_agg', ' ') AS text
                FROM d),
            h1 AS (
                SELECT doc_id, 1 AS block_idx, 2 AS n_words,
                       0 AS n_link_words, 'Doc ' || doc_id AS text
                FROM d),
            paras AS (
                SELECT doc_id, 2 + i AS block_idx,
                       least(csz, n - i * csz) AS n_words,
                       CASE WHEN (doc_id + i) % 5 = 0 THEN 1 ELSE 0 END
                           AS n_link_words,
                       array_to_string(
                           ws[i * csz + 1 : least(n, (i + 1) * csz)],
                           ' ') AS text
                FROM d CROSS JOIN (SELECT unnest(range(10)) AS i) g
                WHERE i * csz < n),
            foot AS (
                SELECT doc_id,
                       2 + (n + csz - 1) // csz AS block_idx,
                       2 + doc_id % 3 AS n_words,
                       2 + doc_id % 3 AS n_link_words,
                       list_aggregate(
                           list_transform(range(2 + doc_id % 3),
                               k -> 'foot' || doc_id || 'w' || k),
                           'string_agg', ' ') AS text
                FROM d),
            blocks AS (
                SELECT * FROM nav UNION ALL SELECT * FROM h1
                UNION ALL SELECT * FROM paras UNION ALL SELECT * FROM foot),
            feat AS (
                SELECT doc_id, block_idx, n_words, n_link_words, text,
                       COALESCE(LAG(n_words) OVER w, 0) AS prev_w,
                       COALESCE(LAG(n_link_words) OVER w, 0) AS prev_l,
                       COALESCE(LEAD(n_words) OVER w, 0) AS next_w
                FROM blocks
                WINDOW w AS (PARTITION BY doc_id ORDER BY block_idx)),
            lab AS (
                SELECT doc_id, block_idx, n_words, text,
                       CASE WHEN 3 * n_link_words <= n_words THEN
                           CASE WHEN 9 * prev_l <= 5 * prev_w THEN
                               CASE WHEN n_words <= 16 THEN
                                   CASE WHEN next_w <= 15
                                        THEN CASE WHEN prev_w > 4
                                                  THEN 1 ELSE 0 END
                                        ELSE 1 END
                               ELSE 1 END
                           ELSE CASE WHEN n_words <= 40
                                     THEN CASE WHEN next_w > 17
                                               THEN 1 ELSE 0 END
                                     ELSE 1 END
                           END
                       ELSE 0 END AS is_content
                FROM feat)
            SELECT 'https://docs.example.org/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
                   CAST(count(*) AS BIGINT) AS n_blocks,
                   CAST(sum(is_content) AS BIGINT) AS n_content_blocks,
                   CAST(sum(n_words) AS BIGINT) AS total_words,
                   CAST(sum(CASE WHEN is_content = 1 THEN n_words
                                 ELSE 0 END) AS BIGINT) AS content_words,
                   COALESCE(string_agg(
                       CASE WHEN is_content = 1 THEN text END,
                       chr(10) || chr(10) ORDER BY block_idx), '')
                       AS main_text,
                   md5(COALESCE(string_agg(
                       CASE WHEN is_content = 1 THEN text END,
                       chr(10) || chr(10) ORDER BY block_idx), ''))
                       AS main_md5
            FROM lab GROUP BY doc_id
        """,
        # SemDeDup: centroids are the 16 lowest vec_ids (data-point
        # training state); cluster = centroid rank by assignment
        # argmax (cos DESC, centroid id ASC); an item is dropped when
        # ANY earlier item in keep order (centroid-cos ASC, id ASC)
        # within its cluster is >= 0.99 similar.
        "semantic_dedup": """
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
        """,
        "frontier_schedule": """
            WITH f AS (
                SELECT 'https://h' || (doc_id % 23) || '.example.org/p/'
                           || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS url,
                       'h' || (doc_id % 23) || '.example.org' AS host,
                       CAST(doc_id * 37 % 1000 AS BIGINT) AS priority
                FROM documents),
            r AS (
                SELECT url, host, priority,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY host
                           ORDER BY priority DESC, url ASC) - 1
                           AS BIGINT) AS slot
                FROM f)
            SELECT url, host, priority, slot,
                   CAST(1700000000 + slot * 3 AS BIGINT) AS fetch_ts
            FROM r WHERE slot < 7
        """,
        # template = host || path-with-digit-runs-collapsed; exact
        # top-25 by (n DESC, template ASC) — boundary ties are broken
        # by the template string in both engines.
        "url_templates": """
            WITH u AS (
                SELECT 'https://h' || (doc_id % 7) || '.example.org' ||
                    CASE doc_id % 5
                        WHEN 0 THEN '/product/' || doc_id || '/view'
                        WHEN 1 THEN '/blog/2024/' ||
                            lpad(CAST(doc_id % 12 + 1 AS VARCHAR), 2, '0')
                            || '/post-' || doc_id
                        WHEN 2 THEN '/user/' || doc_id || '/profile'
                        WHEN 3 THEN '/static/about'
                        ELSE '/item' || doc_id || '.html'
                    END AS url
                FROM documents),
            t AS (
                SELECT regexp_extract(url,
                        '^[a-z][a-z0-9+.-]*://([^/:?#]+)([^?#]*)', 1)
                    || regexp_replace(
                        regexp_extract(url,
                            '^[a-z][a-z0-9+.-]*://([^/:?#]+)([^?#]*)', 2),
                        '[0-9]+', '{n}', 'g') AS template
                FROM u)
            SELECT template, CAST(count(*) AS BIGINT) AS n
            FROM t GROUP BY template
            ORDER BY n DESC, template ASC
            LIMIT 25
        """,
        # the flagship curation chain: the content_blocks stack (the
        # <head> subtree is invisible to the classifier so the stack
        # is unchanged), rolled up per doc, noindex gate (doc_id %
        # 13), quality gate (content_words >= 40), then the per-host
        # md5-rank cap as a partitioned row_number.
        "web_curation": """
            WITH d AS (
                SELECT doc_id,
                       string_split(text, ' ') AS ws,
                       len(string_split(text, ' ')) AS n,
                       11 + doc_id % 7 AS csz
                FROM documents),
            nav AS (
                SELECT doc_id, 0 AS block_idx,
                       3 + doc_id % 4 AS n_words,
                       3 + doc_id % 4 AS n_link_words,
                       list_aggregate(
                           list_transform(range(3 + doc_id % 4),
                               k -> 'nav' || doc_id || 'w' || k),
                           'string_agg', ' ') AS text
                FROM d),
            h1 AS (
                SELECT doc_id, 1 AS block_idx, 2 AS n_words,
                       0 AS n_link_words, 'Doc ' || doc_id AS text
                FROM d),
            paras AS (
                SELECT doc_id, 2 + i AS block_idx,
                       least(csz, n - i * csz) AS n_words,
                       CASE WHEN (doc_id + i) % 5 = 0 THEN 1 ELSE 0 END
                           AS n_link_words,
                       array_to_string(
                           ws[i * csz + 1 : least(n, (i + 1) * csz)],
                           ' ') AS text
                FROM d CROSS JOIN (SELECT unnest(range(10)) AS i) g
                WHERE i * csz < n),
            foot AS (
                SELECT doc_id,
                       2 + (n + csz - 1) // csz AS block_idx,
                       2 + doc_id % 3 AS n_words,
                       2 + doc_id % 3 AS n_link_words,
                       list_aggregate(
                           list_transform(range(2 + doc_id % 3),
                               k -> 'foot' || doc_id || 'w' || k),
                           'string_agg', ' ') AS text
                FROM d),
            blocks AS (
                SELECT * FROM nav UNION ALL SELECT * FROM h1
                UNION ALL SELECT * FROM paras UNION ALL SELECT * FROM foot),
            feat AS (
                SELECT doc_id, block_idx, n_words, n_link_words, text,
                       COALESCE(LAG(n_words) OVER w, 0) AS prev_w,
                       COALESCE(LAG(n_link_words) OVER w, 0) AS prev_l,
                       COALESCE(LEAD(n_words) OVER w, 0) AS next_w
                FROM blocks
                WINDOW w AS (PARTITION BY doc_id ORDER BY block_idx)),
            lab AS (
                SELECT doc_id, block_idx, n_words, text,
                       CASE WHEN 3 * n_link_words <= n_words THEN
                           CASE WHEN 9 * prev_l <= 5 * prev_w THEN
                               CASE WHEN n_words <= 16 THEN
                                   CASE WHEN next_w <= 15
                                        THEN CASE WHEN prev_w > 4
                                                  THEN 1 ELSE 0 END
                                        ELSE 1 END
                               ELSE 1 END
                           ELSE CASE WHEN n_words <= 40
                                     THEN CASE WHEN next_w > 17
                                               THEN 1 ELSE 0 END
                                     ELSE 1 END
                           END
                       ELSE 0 END AS is_content
                FROM feat),
            mc AS (
                SELECT doc_id,
                       CAST(sum(CASE WHEN is_content = 1 THEN n_words
                                     ELSE 0 END) AS BIGINT)
                           AS content_words,
                       md5(COALESCE(string_agg(
                           CASE WHEN is_content = 1 THEN text END,
                           chr(10) || chr(10) ORDER BY block_idx), ''))
                           AS main_md5
                FROM lab GROUP BY doc_id),
            gated AS (
                SELECT * FROM mc
                WHERE doc_id % 13 <> 0 AND content_words >= 40),
            ranked AS (
                SELECT doc_id,
                       'h' || (doc_id % 11) || '.example.org' AS host,
                       content_words, main_md5,
                       row_number() OVER (
                           PARTITION BY doc_id % 11
                           ORDER BY md5(CAST(doc_id AS VARCHAR)) ASC,
                                    doc_id ASC) AS rn
                FROM gated)
            SELECT doc_id, host, content_words, main_md5
            FROM ranked WHERE rn <= 20
        """,
        "link_graph": """
            WITH l AS (
                SELECT doc_id, unnest(range((doc_id % 3) + 1)) AS j
                FROM documents)
            SELECT 'https://docs.example.org/' ||
                       lpad(CAST(doc_id AS VARCHAR), 8, '0') AS src_url,
                   CAST(j AS BIGINT) AS pos,
                   'https://t.example.org/' ||
                       CAST((doc_id * 7 + 13 * j + 1) % 100000 AS VARCHAR)
                       AS href,
                   'see doc ' ||
                       CAST((doc_id * 7 + 13 * j + 1) % 100000 AS VARCHAR)
                       AS anchor
            FROM l
        """,
        "anchor_stats": """
            WITH l AS (
                SELECT doc_id, unnest(range((doc_id % 3) + 1)) AS j
                FROM documents),
            e AS (
                SELECT 'https://docs.example.org/' ||
                           lpad(CAST(doc_id AS VARCHAR), 8, '0') AS src,
                       'https://t.example.org/' ||
                           CAST((doc_id * 7 + 13 * j + 1) % 100000
                                AS VARCHAR) AS href
                FROM l)
            SELECT href,
                   CAST(count(*) AS BIGINT) AS n_inlinks,
                   CAST(count(DISTINCT src) AS BIGINT) AS n_src
            FROM e GROUP BY href
        """,
        "bpe_piece_hist": """
            WITH w AS (
                SELECT unnest(regexp_extract_all(text,
                    '[^ \\t\\n\\r\\f\\x0b]+')) AS piece
                FROM documents)
            SELECT piece, CAST(count(*) AS BIGINT) AS cnt
            FROM w GROUP BY piece HAVING count(*) >= 2
        """,
        "bm25": """
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
        """,
        "bm25_ndcg": _bm25_ndcg_sql(),
        # RRF hybrid fusion: the bm25 CTE stack above + a single-query
        # exact-cosine leg, fused with integer micro-unit reciprocal
        # ranks (1_000_000 // (60 + rank)) — pure integer arithmetic
        # after the two legs' own rank orders, so the replay is exact.
        "hybrid_rrf": """
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
        """,
        "token_budget": """
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
        """,
        "quality_topk": """
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
        """,
        # CCNet terciles: bucket = (3 * (rank-1)) // n_lang with rank =
        # row_number within the language ordered by (pseudo-ppl ASC,
        # md5(id) ASC, id ASC) — the exact integer arithmetic the
        # distributed histogram operator computes.
        "ccnet_buckets": """
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
        """,
        "jsonl_extract": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   md5(text) AS text_md5
            FROM documents
        """,
        # asymmetric containment over distinct df-band 3-gram sets
        "containment_pairs": """
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
        """,
        # exact AllPairs cosine: integer idf/norm/dot, sqrt-free compare
        "cosine_pairs": """
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
        """,
        "csv_extract": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   md5(text) AS text_md5
            FROM documents
        """,
        # double-sweep pseudo-diameter: two chained min-hop closures
        "pseudo_diameter": """
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
        """,
        "normalize_text": """
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
        """,
        "word_topk": """
            WITH w AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                       FROM documents)
            SELECT word, count(*) AS n FROM w
            GROUP BY word ORDER BY n DESC, word LIMIT 20
        """,
        "word_heavy_hitters": """
            WITH w AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                       FROM documents)
            SELECT word, count(*) AS n FROM w
            GROUP BY word ORDER BY n DESC, word LIMIT 20
        """,
        "doc_metadata": """
            SELECT doc_id,
                   'Report ' || doc_id AS title,
                   'Analyst ' || (doc_id % 7) AS author,
                   strftime(make_date(2025, 1, CAST(1 + doc_id % 28 AS INT)),
                            '%Y-%m-%d') AS date
            FROM documents
        """,
        "tfidf_terms": """
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
        """,
        "sessionize": """
            WITH x AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                                    > 1800 * 1000000
                            THEN 1 ELSE 0 END AS is_start
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            )
            SELECT user_id, CAST(sum(is_start) AS BIGINT) AS n_sessions,
                   count(*) AS n_events
            FROM x GROUP BY user_id
        """,
        "sessionize_events": """
            WITH x AS (
                SELECT event_id, user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                                    > 1800 * 1000000
                            THEN 1 ELSE 0 END AS is_start
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT event_id, user_id,
                   CAST(sum(is_start) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id
                                            ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS session_idx
            FROM x
        """,
        "asof_orders_partitioned": """
            WITH r AS (SELECT o_custkey, o_orderdate,
                              max(o_totalprice) AS o_totalprice
                       FROM orders GROUP BY o_custkey, o_orderdate)
            SELECT e.event_type,
                   count(*) AS n_events,
                   count(r.o_totalprice) AS n_matched,
                   CAST(coalesce(sum(CAST(floor(r.o_totalprice*100 + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS sum_price_c
            FROM events e ASOF LEFT JOIN r
              ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
            GROUP BY e.event_type
        """,
        "asof_orders": """
            WITH r AS (SELECT o_custkey, o_orderdate,
                              max(o_totalprice) AS o_totalprice
                       FROM orders GROUP BY o_custkey, o_orderdate)
            SELECT e.event_type,
                   count(*) AS n_events,
                   count(r.o_totalprice) AS n_matched,
                   CAST(coalesce(sum(CAST(floor(r.o_totalprice*100 + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS sum_price_c
            FROM events e ASOF LEFT JOIN r
              ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
            GROUP BY e.event_type
        """,
        "priority_revenue": """
            WITH rev AS (
                SELECT l_orderkey,
                       CAST(sum(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS rev_c
                FROM lineitem GROUP BY l_orderkey
            )
            SELECT o.o_orderpriority,
                   count(*) AS n_orders,
                   CAST(sum(rev.rev_c) AS BIGINT) AS revenue_c
            FROM rev JOIN orders o ON o.o_orderkey = rev.l_orderkey
            GROUP BY o.o_orderpriority
        """,
        "curation_v2": "WITH " + _CLF_CNT_CTE + """,
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
        """,
        "sorted_export": """
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
        """,
        "clf_train": "WITH " + _CLF_CNT_CTE + """
            SELECT feat, c0, c1,
                   CAST(1000000 * (c1 + 1) // (c0 + c1 + 2) AS BIGINT) AS w
            FROM cnt
        """,
        "clf_score": "WITH " + _CLF_CNT_CTE + """,
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
        """,
        "weighted_sample": """
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
        """,
        "hash_sample": """
            SELECT lang, count(*) AS n_docs
            FROM documents
            WHERE (('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT
                   % 100) < 10
            GROUP BY lang
        """,
        "funnel": """
            WITH a AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY user_id),
            b AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN a ON e.user_id = a.user_id
              WHERE e.event_type = 'click' AND e.ts > a.t
              GROUP BY e.user_id),
            c AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN b ON e.user_id = b.user_id
              WHERE e.event_type = 'purchase' AND e.ts > b.t
              GROUP BY e.user_id)
            SELECT * FROM (
              SELECT CAST(0 AS BIGINT) AS step_idx, 'view' AS step,
                     CAST((SELECT count(*) FROM a) AS BIGINT) AS n_users
              UNION ALL
              SELECT CAST(1 AS BIGINT), 'click',
                     CAST((SELECT count(*) FROM b) AS BIGINT)
              UNION ALL
              SELECT CAST(2 AS BIGINT), 'purchase',
                     CAST((SELECT count(*) FROM c) AS BIGINT))
        """,
        "transitions": """
            WITH o AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id)
                         AS from_type
              FROM events)
            SELECT from_type, event_type AS to_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM o WHERE from_type IS NOT NULL
            GROUP BY from_type, to_type
        """,
        "retention": """
            WITH uw AS (
              SELECT DISTINCT user_id,
                     (CAST(epoch_us(ts) AS BIGINT) // 86400000000 - 4) // 7
                         AS week
              FROM events),
            act AS (SELECT week, count(*) AS n_active FROM uw GROUP BY week),
            ret AS (SELECT a.week, count(*) AS n_retained
                    FROM uw a JOIN uw b
                      ON a.user_id = b.user_id AND b.week = a.week + 1
                    GROUP BY a.week)
            SELECT act.week,
                   CAST(act.n_active AS BIGINT) AS n_active,
                   CAST(coalesce(ret.n_retained, 0) AS BIGINT) AS n_retained
            FROM act LEFT JOIN ret ON act.week = ret.week
        """,
        "cooccurrence": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            -- per-user deterministic item cap (max_items_per_user=200):
            -- keep each user's 200 smallest items, mirroring the
            -- operator's bot-user pair-explosion guard
            ut AS (SELECT user_id, event_type FROM (
                       SELECT user_id, event_type,
                              row_number() OVER (PARTITION BY user_id
                                                 ORDER BY event_type) AS rn
                       FROM d) WHERE rn <= 200),
            p AS (SELECT a.user_id, a.event_type AS t1, b.event_type AS t2
                  FROM ut a JOIN ut b
                    ON a.user_id = b.user_id
                   AND a.event_type < b.event_type)
            SELECT t1, t2, CAST(count(*) AS BIGINT) AS n_users
            FROM p GROUP BY t1, t2
        """,
        "group_topk": """
            WITH c AS (SELECT event_type, user_id, count(*) AS n_events
                       FROM events GROUP BY event_type, user_id),
                 r AS (SELECT *, row_number() OVER (
                                     PARTITION BY event_type
                                     ORDER BY n_events DESC, user_id) AS rank
                       FROM c)
            SELECT event_type, user_id, n_events, rank FROM r WHERE rank <= 3
        """,
        "frame_sample": """
            SELECT doc_id AS media_id,
                   (greatest(1, octet_length(encode(text)) // 4096) + 1) // 2
                       AS n_frames
            FROM documents
        """,
        "media_features": """
            SELECT doc_id AS media_id,
                   octet_length(encode(text)) AS n_bytes,
                   greatest(1, CAST(ceil(octet_length(encode(text))/65536.0) AS INT)) AS n_chunks
            FROM documents
        """,
        # Golden-in-SQL: the extract_synthetic corpus is a FIXED
        # seeded 1000-page table (sources/corpus.pages_table(0, 1000),
        # independent of sf), so its per-kind rollup is a deterministic
        # constant — pinned here exactly like a golden-file fixture so
        # the driver value-checks the full mixed-corpus extraction
        # (HTML + pdf-shaped + edge cases), not just its row count.
        "extract_synthetic": """
            SELECT * FROM (VALUES
                ('html', CAST(750 AS BIGINT), CAST(5744 AS BIGINT),
                         CAST(477 AS BIGINT), CAST(2346578 AS BIGINT)),
                ('pdf',  CAST(200 AS BIGINT), CAST(1692 AS BIGINT),
                         CAST(352 AS BIGINT), CAST(43673 AS BIGINT)),
                ('text', CAST(50 AS BIGINT),  CAST(50 AS BIGINT),
                         CAST(0 AS BIGINT),   CAST(995 AS BIGINT))
            ) AS t(kind, n_docs, n_elements, n_tables, n_tokens)
        """,
        # REAL pixel decode: the payloads are genuine PPM/BMP bytes of
        # the gradient pixel[y,x,c] = (3x + 7y + 11c + id) % 256 at
        # formula-derived dims; the oracle rebuilds every pixel from
        # the FORMULA (never the binary), so a green hash proves the
        # pure-Python decoders parse real image bytes correctly.
        "image_decode": """
            WITH m AS (SELECT doc_id AS media_id,
                              16 + (doc_id * 37) % 48 AS w,
                              16 + (doc_id * 53) % 48 AS h
                       FROM documents),
            px AS (SELECT m.media_id, m.w, m.h, x.x, y.y, c.c,
                          (3*x.x + 7*y.y + 11*c.c + m.media_id) % 256 AS v
                   FROM m
                   CROSS JOIN (SELECT unnest(range(64)) AS x) x
                   CROSS JOIN (SELECT unnest(range(64)) AS y) y
                   CROSS JOIN (SELECT unnest(range(3)) AS c) c
                   WHERE x.x < m.w AND y.y < m.h)
            SELECT media_id,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(sum(v * (1 + x + y*w + c*w*h)) AS BIGINT)
                       AS checksum,
                   CAST(sum(CASE WHEN c = 0 THEN v END) // (w*h) AS BIGINT)
                       AS mean_r,
                   CAST(sum(CASE WHEN c = 1 THEN v END) // (w*h) AS BIGINT)
                       AS mean_g,
                   CAST(sum(CASE WHEN c = 2 THEN v END) // (w*h) AS BIGINT)
                       AS mean_b
            FROM px GROUP BY media_id, w, h
        """,
        # Perceptual dHash over real decoded pixels: the oracle
        # recomputes box means, integer luma, gradient bits, byte
        # packing and hex formatting from the pixel formula.
        "image_dhash": f"""
            WITH {_DHASH_SQL_CTE}
            SELECT media_id, dhash FROM sigs
        """,
        # Image near-dup pairs: self-join the SQL-recomputed hashes on
        # 16-bit band equality (the operator's exact blocking) and keep
        # bit_count(xor) <= 3.
        "image_neardup_dhash": f"""
            WITH {_DHASH_SQL_CTE}
            SELECT a.media_id AS doc_a, b.media_id AS doc_b,
                   CAST(bit_count(xor(a.u, b.u)) AS BIGINT) AS hamming
            FROM sigs a JOIN sigs b ON a.media_id < b.media_id
            WHERE bit_count(xor(a.u, b.u)) <= 3
              AND ((a.u >> 0) & 65535 = (b.u >> 0) & 65535
                OR (a.u >> 16) & 65535 = (b.u >> 16) & 65535
                OR (a.u >> 32) & 65535 = (b.u >> 32) & 65535
                OR (a.u >> 48) & 65535 = (b.u >> 48) & 65535)
        """,
        # REAL Y4M frame sampling: payloads are genuine YUV4MPEG2 C444
        # containers of gradient frames pixel[f][y,x,c] =
        # (3x + 7y + 11c + 19f + id) % 256 (w = 8 + 5*id % 9,
        # h = 8 + 3*id % 9, nf = 2 + id % 7); every 2nd frame is
        # sampled. The oracle rebuilds each sampled frame's pixels from
        # the FORMULA — a green hash proves the container parser reads
        # real FRAME markers and planes.
        "video_frames": """
            WITH m AS (SELECT doc_id AS media_id,
                              8 + (doc_id * 5) % 9 AS w,
                              8 + (doc_id * 3) % 9 AS h,
                              2 + doc_id % 7 AS nf
                       FROM documents),
            fr AS (SELECT m.media_id, m.w, m.h, f.f
                   FROM m
                   CROSS JOIN (SELECT unnest(range(8)) AS f) f
                   WHERE f.f < m.nf AND f.f % 2 = 0),
            px AS (SELECT fr.media_id, fr.w, fr.h, fr.f, x.x, y.y, c.c,
                          (3*x.x + 7*y.y + 11*c.c + 19*fr.f
                           + fr.media_id) % 256 AS v
                   FROM fr
                   CROSS JOIN (SELECT unnest(range(16)) AS x) x
                   CROSS JOIN (SELECT unnest(range(16)) AS y) y
                   CROSS JOIN (SELECT unnest(range(3)) AS c) c
                   WHERE x.x < fr.w AND y.y < fr.h)
            SELECT media_id,
                   CAST(f AS BIGINT) AS frame_idx,
                   CAST(sum(v * (1 + x + y*w + c*w*h)) AS BIGINT)
                       AS frame_crc
            FROM px GROUP BY media_id, f, w, h
        """,
        # REAL PCM decode: payloads are genuine RIFF/WAVE 16-bit PCM of
        # the waveform s[i] = ((13i + 17*id) % 65536) - 32768 (mono,
        # 8 kHz, n = 1000 + 31*id % 1000); the oracle rebuilds every
        # sample from the FORMULA — a green hash proves the chunk
        # walker parses real WAV bytes correctly. Zero crossings =
        # channel-0 sign-bit transitions via a lag window.
        "audio_features": """
            WITH m AS (SELECT doc_id AS media_id,
                              1000 + (doc_id * 31) % 1000 AS n
                       FROM documents),
            s AS (SELECT m.media_id, m.n, i.i,
                         ((13*i.i + 17*m.media_id) % 65536) - 32768 AS v
                  FROM m
                  CROSS JOIN (SELECT unnest(range(2000)) AS i) i
                  WHERE i.i < m.n),
            s2 AS (SELECT media_id, n, i, v,
                          lag(v) OVER (PARTITION BY media_id ORDER BY i)
                              AS pv
                   FROM s)
            SELECT media_id,
                   CAST(8000 AS BIGINT) AS sample_rate,
                   CAST(n AS BIGINT) AS n_samples,
                   CAST((n * 1000) // 8000 AS BIGINT) AS duration_ms,
                   CAST(max(abs(v)) AS BIGINT) AS peak,
                   CAST(sum(v * v) AS BIGINT) AS energy,
                   CAST(sum(CASE WHEN pv IS NOT NULL
                                  AND ((v >= 0) <> (pv >= 0))
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS zero_crossings,
                   CAST(sum(v * (1 + i)) AS BIGINT) AS checksum
            FROM s2 GROUP BY media_id, n
        """,
        # Real WAV decode -> integer 1-D box resample 8 kHz -> 2 kHz
        # (m = n * 2000 // 8000) -> checksum of the RESAMPLED samples.
        # Box sums can be negative and the kernel FLOORS; DuckDB //
        # truncates toward zero, so floor division is spelled out.
        "audio_resample": """
            WITH m AS (SELECT doc_id AS media_id,
                              1000 + (doc_id * 31) % 1000 AS n
                       FROM documents),
            d AS (SELECT media_id, n,
                         greatest(1, (n * 2000) // 8000) AS m
                  FROM m),
            b AS (SELECT d.media_id, d.n, d.m, j.j,
                         (j.j * d.n) // d.m AS lo,
                         ((j.j + 1) * d.n) // d.m AS hi
                  FROM d
                  CROSS JOIN (SELECT unnest(range(500)) AS j) j
                  WHERE j.j < d.m),
            v AS (SELECT b.media_id, b.m, b.j,
                         sum(((13*i.i + 17*b.media_id) % 65536) - 32768)
                             AS s,
                         b.hi - b.lo AS l
                  FROM b
                  JOIN (SELECT unnest(range(2000)) AS i) i
                       ON i.i >= b.lo AND i.i < b.hi
                  GROUP BY b.media_id, b.m, b.j, b.hi, b.lo),
            o AS (SELECT media_id, m, j,
                         CASE WHEN s >= 0 THEN s // l
                              ELSE -((-s + l - 1) // l) END AS val
                  FROM v)
            SELECT media_id,
                   CAST(2000 AS BIGINT) AS out_rate,
                   CAST(m AS BIGINT) AS n_out,
                   CAST(sum(val * (1 + j)) AS BIGINT) AS checksum
            FROM o GROUP BY media_id, m
        """,
        # Real decode -> integer box-filter resize to an 8-box (aspect
        # preserved by integer arithmetic) -> checksum of the RESIZED
        # pixels. The oracle replays box boundaries (i*sh//th ..),
        # box sums and floor divisions from the gradient formula.
        "media_resize": """
            WITH m AS (SELECT doc_id AS media_id,
                              16 + (doc_id * 37) % 48 AS w,
                              16 + (doc_id * 53) % 48 AS h
                       FROM documents),
            d AS (SELECT media_id, w AS sw, h AS sh,
                         greatest(1, (w * 8) // greatest(w, h)) AS tw,
                         greatest(1, (h * 8) // greatest(w, h)) AS th
                  FROM m),
            b AS (SELECT d.media_id, d.sw, d.sh, d.tw, d.th,
                         i.i AS oy, j.j AS ox, c.c AS c,
                         (i.i * d.sh) // d.th AS y0,
                         ((i.i + 1) * d.sh) // d.th AS y1,
                         (j.j * d.sw) // d.tw AS x0,
                         ((j.j + 1) * d.sw) // d.tw AS x1
                  FROM d
                  CROSS JOIN (SELECT unnest(range(8)) AS i) i
                  CROSS JOIN (SELECT unnest(range(8)) AS j) j
                  CROSS JOIN (SELECT unnest(range(3)) AS c) c
                  WHERE i.i < d.th AND j.j < d.tw),
            v AS (SELECT b.media_id, b.tw, b.th, b.oy, b.ox, b.c,
                         CAST(sum((3*x.x + 7*y.y + 11*b.c + b.media_id)
                                  % 256)
                              // ((b.y1 - b.y0) * (b.x1 - b.x0))
                              AS BIGINT) AS val
                  FROM b
                  JOIN (SELECT unnest(range(64)) AS x) x
                       ON x.x >= b.x0 AND x.x < b.x1
                  JOIN (SELECT unnest(range(64)) AS y) y
                       ON y.y >= b.y0 AND y.y < b.y1
                  GROUP BY b.media_id, b.tw, b.th, b.oy, b.ox, b.c,
                           b.y0, b.y1, b.x0, b.x1),
            o AS (SELECT media_id, tw, th,
                         CAST(sum(val * (1 + ox + oy*tw + c*tw*th))
                              AS BIGINT) AS checksum
                  FROM v GROUP BY media_id, tw, th)
            SELECT media_id,
                   CAST(tw AS BIGINT) AS width,
                   CAST(th AS BIGINT) AS height,
                   checksum
            FROM o
        """,
        # Rows-only (no oracle entry): dedup_simhash / knn_lsh /
        # knn_ivf / embedding_clusters / distinct_users_hll (sketch- or
        # geometry-specific approximation), lm_quality (model state).
        # Each has value-level assertions in tests/ instead
        # (determinism, tolerance-vs-exact, full-probe==brute,
        # byte-identity).
    }
    # composed oracle: ANN recall = LSH top-5 vs brute top-5 overlap,
    # built from the two leg oracles verbatim so the contract can't
    # drift from what the legs themselves are gated on
    # the *_indexed gate names run the same engine as their base
    # names, so they gate against the very same oracles
    d["pagerank_indexed"] = d["pagerank"]
    # composite: pagerank scores joined to gated documents, top 20
    d["authority_topk"] = (
        "SELECT dd.doc_id, dd.lang, CAST(dd.n_chars AS BIGINT) AS n_chars,"
        " pr.rank_u FROM (" + _pagerank_sql(5) + ") pr"
        " JOIN documents dd ON dd.doc_id = pr.doc_id"
        " WHERE dd.n_chars >= 500"
        " ORDER BY pr.rank_u DESC, dd.doc_id ASC LIMIT 20"
    )
    d["dup_clusters_indexed"] = d["dup_clusters"]
    d["hits_indexed"] = d["hits"]
    d["triangles_indexed"] = d["triangles"]
    d["kcore_indexed"] = d["kcore"]
    d["ann_recall"] = (
        "SELECT b.query_id, "
        "CAST(count(l.neighbor_id) AS BIGINT) AS n_hit, "
        "CAST(1000 * count(l.neighbor_id) // 5 AS BIGINT) AS recall_pm "
        "FROM (" + d["knn_brute"] + ") b LEFT JOIN ("
        + d["knn_lsh"] + ") l ON l.query_id = b.query_id "
        "AND l.neighbor_id = b.neighbor_id GROUP BY b.query_id"
    )
    return d

