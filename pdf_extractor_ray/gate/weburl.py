"""Gate queries over urls: domains, canonicalization, robots, crawl
admission and frontier scheduling."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup
from pdf_extractor_ray.gate import register
from pdf_extractor_ray.gate.fixtures import (
    _docs_with_urls,
    _html_pages,
    _t,
    _warc_dir,
)


@register("fetch_plan", oracle="""
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
        """)
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


@register("url_features", oracle="""
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
        """)
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


@register("sitemap_discover", oracle="""
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
        """)
def _q_sitemap_discover(sf_dir: str):
    """Sitemap-based frontier discovery: parse urlset/sitemapindex XML
    (comments, CDATA, namespace prefixes), count listings per page
    URL, anti-join the crawled set in one hash-bucket exchange. The
    oracle regenerates the three-loc listing rule per publishing doc
    and the d%3==0 crawled set in pure arithmetic."""
    from pdf_extractor_ray.functions.weburl import sitemap_discover

    sitemaps, crawled = _sitemap_docs(sf_dir)
    return sitemap_discover(sitemaps, crawled)


@register("discovery_chain", oracle="""
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
        """)
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


@register("frontier_schedule", oracle="""
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
        """)
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


# template = host || path-with-digit-runs-collapsed; exact
# top-25 by (n DESC, template ASC) — boundary ties are broken
# by the template string in both engines.
@register("url_templates", oracle="""
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
        """)
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


@register("domain_counts", oracle="""
            WITH p AS (SELECT 'site-' || (doc_id % 37) || '.example.com' AS host
                       FROM documents)
            SELECT host, count(*) AS n FROM p GROUP BY host
        """)
def _q_domain_counts(sf_dir: str):
    """Docs per registrable host over synthetic crawl urls: zero-copy
    RE2 host extraction, per-batch value_counts collapse, one coarse
    host-bucket exchange (functions/weburl.py)."""
    from pdf_extractor_ray.functions.weburl import domain_counts

    return domain_counts(_docs_with_urls(sf_dir))


@register("domain_cap", oracle="""
            WITH p AS (SELECT doc_id,
                              'site-' || (doc_id % 37) || '.example.com' AS host
                       FROM documents)
            SELECT doc_id, host FROM p
            QUALIFY row_number() OVER (
                PARTITION BY host
                ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5
        """)
def _q_domain_cap(sf_dir: str):
    """Per-domain quota: keep <=5 docs per host by the deterministic
    md5(doc_id) rank (reproduced by the oracle's row_number window).
    Batch-local prune first, so the exchange carries <=k rows per
    (host, batch)."""
    from pdf_extractor_ray.functions.weburl import cap_per_domain

    return cap_per_domain(_docs_with_urls(sf_dir), k=5)


@register("domain_blocklist", oracle="""
            SELECT doc_id,
                   'site-' || (doc_id % 37) || '.example.com' AS host
            FROM documents
            WHERE (doc_id % 37) % 7 <> 0
        """)
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


def _messy_url(i: int) -> str:
    """Doc i's url: one of 5 messy spellings (case, default port,
    tracking query, fragment) of one of 50 clean urls."""
    b, v = i % 50, i % 5
    if v == 0:
        return f"HTTPS://Site-{b}.Example.COM/a/{b}"
    if v == 1:
        return f"https://site-{b}.example.com:443/a/{b}"
    if v == 2:
        return f"https://site-{b}.example.com/a/{b}?utm_source=rss&id={b}"
    if v == 3:
        return f"https://site-{b}.example.com/a/{b}#section-2"
    return f"http://site-{b}.example.com:80/a/{b}?fbclid=abc"


def _docs_with_messy_urls(sf_dir: str):
    """Documents with deliberately messy crawl urls (5 deterministic
    variants by doc_id % 5: uppercase scheme/host, explicit default
    ports, utm/fbclid tracking params, fragments) over 50 shared
    paths, so canonicalization collapses them. The oracles rebuild the
    same CASE expression in SQL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def add_url(batch: pa.Table) -> pa.Table:
        urls = [_messy_url(i) for i in batch["doc_id"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "url": pa.array(urls, pa.string())}
        )

    return docs.map_batches(add_url, batch_format="pyarrow")


# The messy-url CTE shared by the canonicalization oracles:
# same 5-variant CASE the Ray side synthesizes.
@register("url_canonical", oracle="""
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
        """)
def _q_url_canonical(sf_dir: str):
    """Per-row url canonicalization (functions/webclean.py): lowercase
    scheme/host, default-port strip, fragment drop, tracking-param
    drop. Pure map_batches — no shuffle."""
    from pdf_extractor_ray.functions.webclean import canonicalize

    return canonicalize(_docs_with_messy_urls(sf_dir)).select_columns(
        ["doc_id", "canon_url"]
    )


@register("url_canonical_dedup", oracle="""
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
        """)
def _q_url_canonical_dedup(sf_dir: str):
    """Canonicalize-then-dedup: raw url variants collapse onto their
    canonical form; per canonical url the kept (min) doc and variant
    count via the coarse key-bucket exchange."""
    from pdf_extractor_ray.functions.webclean import canonical_url_dedup

    return canonical_url_dedup(_docs_with_messy_urls(sf_dir))


# robots gate: the oracle rebuilds the expected allow/deny
# decision from the synthetic rule (host parity selects the
# agent group; path kind selects which wildcard/anchor/
# longest-match rule fires) — only the Ray side ever parses
# robots.txt text.
@register("robots_gate", oracle="""
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
        """)
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


# crawl admission composite: real HTML head parse + real
# robots.txt gate + canonical rollup, replayed in closed form
# (admitted iff even host AND /public path AND no noindex).
@register("crawl_admission", oracle="""
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
        """)
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

    def page(d) -> tuple[str, str]:
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
        html = (
            "<html><head>"
            f"<title>Doc {d}</title>{robots_meta}"
            f'<link rel="canonical" '
            f'href="https://canon.example.org/{d % 250}">'
            f"</head><body><p>doc {d}</p></body></html>"
        )
        return f"https://{host}{path}", html

    pages = _html_pages(sf_dir, page)
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


@register("crawl_curate", oracle="""
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
        """)
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
        urls = [_messy_url(i) for i in ids]
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
