"""Gate queries over synthetic HTML pages: head metadata, links,
redirects, tables and main content."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import _html_pages, _t


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


def _linked_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents wrapped in HTML carrying deterministic anchors: doc d
    gets (d % 3) + 1 links to https://t.example.org/{(d*7 + 13*j + 1) %
    100000} with inner-markup anchor text 'see <b>doc N</b>', plus a
    DECOY anchor inside a <script> body that a correct parser must not
    emit. Both sides (Ray parser / SQL oracle) derive the same edges."""

    def page(doc_id, text) -> tuple[str, str]:
        k = (doc_id % 3) + 1
        links = "".join(
            f'<p>ref: <a href="https://t.example.org/'
            f'{(doc_id * 7 + 13 * j + 1) % 100000}">see <b>doc '
            f"{(doc_id * 7 + 13 * j + 1) % 100000}</b></a></p>"
            for j in range(k)
        )
        html = (
            f"<html><body><h1>Doc {doc_id}</h1><p>{text}</p>{links}"
            f"<script>var s='<a href=\"https://evil.example/x\">"
            f"decoy</a>';</script></body></html>"
        )
        return f"https://docs.example.org/{doc_id:08d}", html

    return _html_pages(sf_dir, page, ("doc_id", "text"))


def _meta_pages(sf_dir: str) -> ray.data.Dataset:
    """Documents wrapped in HTML whose <head> carries deterministic
    metadata: title with whitespace noise (every 5th doc) that the
    parser must collapse, canonical link absent on every 3rd doc with
    attribute order flipped on odd docs, robots meta absent on every
    11th / noindex on every 7th, single-quoted description on even
    docs only, og:title with content-before-property order — plus a
    COMMENT title decoy and a SCRIPT title decoy on every page that a
    correct parser must not see. Both sides derive the same fields."""

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><head>"
            "<!-- <title>comment decoy</title> -->"
            f"<title>{title}</title>"
            f'<meta content="OG {d}" property="og:title">'
            f"{canonical}{robots}{desc}"
            "<script>var t='<title>script decoy</title>';</script>"
            f"</head><body><h1>Doc {d}</h1></body></html>"
        )
        return f"https://docs.example.org/{d:08d}", html

    return _html_pages(sf_dir, page)


# head-metadata harvesting: the oracle rebuilds every field
# from the deterministic _meta_pages wrapper rule (comment and
# script title decoys, attribute-order flips and quote variety
# are parser-side hazards the rule never mentions — a green
# hash proves the tokenizer handled them).
@register("head_meta", oracle="""
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
        """)
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


@register("reciprocal_links", oracle="""
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
        """)
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


@register("host_mirrors", oracle="""
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
        """)
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


@register("html_tables", oracle="""
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
        """)
def _q_html_tables(sf_dir: str):
    """HTML <table> -> normalized cell grid through the real chain
    (tokenizer -> pipe-markdown -> segmentation -> table parser).
    Deterministic plant: table 0 is (2+d%2) cols x (2+d%3) data rows
    with cell v{(d+7r+13c)%100}; every 7th doc appends an
    ARITY-MISMATCHED row the parser must drop (appended last so kept
    row indices don't shift); every 5th doc a second 1-col table;
    comment and script table decoys must stay invisible."""
    from pdf_extractor_ray.functions.content import page_html_tables

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><body>"
            "<!-- <table><tr><th>DECOY</th></tr></table> -->"
            "<script>var t='<table><tr><td>S</td></tr></table>';"
            "</script>"
            f"<h1>Doc {d}</h1>{t0}<p>between</p>{t1}"
            "</body></html>"
        )
        return f"https://docs.example.org/{d:08d}", html

    return page_html_tables(
        _html_pages(sf_dir, page)
    )


# Cluster key: declared canonical (d%3<>0 -> canon id d//2)
# resolved through the redirect rule final(x) = x - x%4; every
# 3rd page self-clusters on its own URL. n_redirected counts
# members whose canonical id needed >= 1 hop (x%4 <> 0).
@register("canonical_clusters", oracle="""
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
        """)
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

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><head>"
            '<!-- <script type="application/ld+json">'
            '{"@type":"CommentDecoy"}</script> -->'
            '<script type="text/javascript">'
            'var x={"@type":"Decoy","name":"nope"};</script>'
            + "".join(blocks)
            + f"</head><body><h1>Doc {d}</h1></body></html>"
        )
        return f"https://docs.example.org/{d:08d}", html

    return _html_pages(sf_dir, page)


# One row per JSON-LD entity, replayed from the deterministic
# wrapper rule (_ldjson_pages): Article always at ent_idx 0;
# @graph pair at 1/2 when d%3=0; breadcrumb (d%9=0 implies
# d%3=0) therefore always at idx 3; the d%7=0 invalid block
# parses to nothing but bumps n_bad on every row of its page.
@register("json_ld", oracle="""
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
        """)
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

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><head>"
            "<!-- <meta name=date content=1999-01-01> -->"
            f"<title>Doc {d}</title></head><body>{body}"
            "<script>var m='<meta name=\"date\" "
            "content=\"1999-12-31\">';</script>"
            f"<p>Doc {d} body</p></body></html>"
        )
        return url, html

    return _html_pages(sf_dir, page)


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


@register("outlink_features", oracle="""
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
        """)
def _q_outlinks(sf_dir: str):
    """Outbound-link spam features over synthesized pages: d%6 links
    per page, every (d+j)%3==0-th external to one of 5 spam hosts,
    internal links alternating relative/absolute-same-host (both must
    count as internal), plus script/comment anchor decoys. The oracle
    replays the j-loop with a range unnest; zero-link pages emit
    zeroed rows through the left join."""
    from pdf_extractor_ray.functions.webgraph import outlink_features

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><body>"
            "<!-- <a href='https://decoy.example/c'>c</a> -->"
            + "".join(links)
            + "<script>var a='<a href=\"https://decoy.example/s\">"
            "s</a>';</script>"
            f"<p>Doc {d}</p></body></html>"
        )
        return f"https://{own}/p{d}", html

    return outlink_features(_html_pages(sf_dir, page))


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


@register("redirect_resolve", oracle=_REDIRECT_RESOLVE_SQL)
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

    def page(d) -> tuple[str, str]:
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
        html = (
            f"<html><head>{meta}<title>Doc {d}</title></head>"
            "<body><script>var m='<meta http-equiv=refresh "
            "content=\"0;url=https://trap.example/x\">';</script>"
            f"<p>Doc {d}</p></body></html>"
        )
        return u(d), html

    return _html_pages(sf_dir, page)


# the meta-refresh composite plants the SAME chain/cycle rule
# as real page HTML, so its oracle is identical arithmetic
@register("refresh_redirects", oracle=_REDIRECT_RESOLVE_SQL)
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
    langs = ("de", "en", "fr", "x-default")

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><head>"
            + "".join(links)
            + '<link rel="alternate" href="/no-lang">'
            "<script>var x='<link rel=alternate hreflang=zz "
            "href=https://trap.example/x>';</script>"
            f"</head><body><p>Doc {d}</p></body></html>"
        )
        return f"https://l.example.org/{c}/{langs[v]}", html

    return _html_pages(sf_dir, page)


@register("hreflang_clusters", oracle="""
            SELECT 'https://l.example.org/' || (doc_id // 4) || '/de'
                       AS cluster_key,
                   count(*) AS n_pages,
                   CAST(4 AS BIGINT) AS n_langs,
                   'de,en,fr,x-default' AS langs
            FROM documents
            GROUP BY doc_id // 4
        """)
def _q_hreflang(sf_dir: str):
    """hreflang language-variant clustering: parse alternate sets from
    real head HTML, key each page by the lexicographic-min declared
    URL, roll up per cluster in one coarse-bucket exchange. The oracle
    regenerates cluster membership from d//4 (tail cluster smaller)."""
    from pdf_extractor_ray.functions.webgraph import hreflang_clusters

    return hreflang_clusters(_hreflang_pages(sf_dir))


@register("charset_sniff", oracle="""
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
        """)
def _q_charset_sniff(sf_dir: str):
    """Content-type + charset sniffing over raw fetch bodies (magic >
    BOM > meta declaration > utf-8/latin-1 fallback). The oracle
    rebuilds each branch's logical decoded string in SQL and compares
    md5 + codepoint length — the cp1252 branch only matches if the
    meta-declared codec actually drove the decode."""
    from pdf_extractor_ray.functions.webclean import sniff_bodies

    return sniff_bodies(_sniff_pages(sf_dir))


@register("date_extract", oracle="""
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
        """)
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
    def page(d, text) -> tuple[str, str]:
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
            url = f"https://h{d % 11}.example.org/d/{d:08d}"
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
            url = f"https://docs.example.org/{d:08d}"
            head = ""
        html = (
            f'<html>{head}<body><div class="nav">{nav}</div>'
            f"<h1>Doc {d}</h1>"
            "<script>var x='<p>decoy decoy decoy</p>';</script>"
            "<!-- <p>comment decoy</p> -->"
            f"{''.join(paras)}"
            f"<div>{foot}</div></body></html>"
        )
        return url, html

    return _html_pages(sf_dir, page, ("doc_id", "text"))


# main-content extraction: the oracle rebuilds each page's
# block sequence (nav / h1 / paragraphs / footer with the
# wrapper's word and link-word counts) and replays the
# WSDM-2010 NumWordsRules tree in exact-integer CASE form
# (density thresholds 1/3 and 5/9 as cross-multiplications,
# matching kernel/content_extract.py). The script/comment
# paragraph decoys are absent from the rule — a green hash
# proves the tokenizer never surfaced them.
@register("content_blocks", oracle="""
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
        """)
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


@register("main_content", oracle="""
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
        """)
def _q_main_content(sf_dir: str):
    """Per-page main-content rollup: boilerplate stripped, content
    blocks joined; main_md5 commits to the exact extracted bytes so a
    green hash proves byte-identical extraction vs the oracle's
    reconstruction."""
    from pdf_extractor_ray.functions.content import main_content

    return main_content(_content_pages(sf_dir))


# the flagship curation chain: the content_blocks stack (the
# <head> subtree is invisible to the classifier so the stack
# is unchanged), rolled up per doc, noindex gate (doc_id %
# 13), quality gate (content_words >= 40), then the per-host
# md5-rank cap as a partitioned row_number.
@register("web_curation", oracle="""
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
        """)
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


@register("link_graph", oracle="""
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
        """)
def _q_link_graph(sf_dir: str):
    """Distributed HTML link harvesting: the kernel tokenizer walks
    each page (script bodies skipped — the planted decoy anchor must
    NOT appear; inner <b> markup stripped from anchor text) and emits
    one (src_url, pos, href, anchor) edge per anchor tag. The oracle
    rebuilds the exact expected edge list from the deterministic
    wrapper rule."""
    from pdf_extractor_ray.functions.webgraph import extract_links

    return extract_links(_linked_pages(sf_dir))


@register("anchor_stats", bench=True, oracle="""
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
        """)
def _q_anchor_stats(sf_dir: str):
    """Per-target inbound-link stats over the harvested edges:
    (href, n_inlinks, n_src) via distinct-pair partials + one coarse
    href-hash exchange — the anchor-aggregation step search engines
    run over the whole crawl."""
    from pdf_extractor_ray.functions.webgraph import anchor_stats, extract_links

    return anchor_stats(extract_links(_linked_pages(sf_dir)))
