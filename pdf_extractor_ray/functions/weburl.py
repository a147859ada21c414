"""URL/domain operators for crawl-corpus curation.

Common-Crawl-style pipelines filter and rebalance by registrable
domain before anything else touches the text: per-domain quotas stop a
single link-farm from dominating the training mix, and blocklists drop
known-bad hosts outright. The reference operates on single documents
and has no corpus-level URL surface, so these are corpus-scale
extension operators (SURVEY.md §8.4), not ports.

Shapes:
  - host extraction is a zero-copy Arrow regex (pyarrow.compute
    ``extract_regex`` — RE2, compiled once per process);
  - per-domain counting mirrors word_topk: per-batch value_counts
    collapse, then ONE coarse host-bucket exchange with an in-bucket
    pandas merge (hosts are high-cardinality — never a raw
    ``groupby(host)``);
  - the quota cap prunes per batch first (the k survivors of a batch
    are a superset of that batch's global survivors), so the exchange
    carries at most k rows per (host, batch);
  - the blocklist is the broadcast-small-side pattern: one ``ray.put``
    of a frozenset, read per task, never re-shipped per batch.

Ranking inside a quota is by ``md5(str(doc_id))`` — a deterministic,
seedless uniform order that DuckDB reproduces exactly
(``md5(CAST(doc_id AS VARCHAR))``), so the cap is value-checkable.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .exchange import cogroup

__all__ = [
    "add_host",
    "domain_counts",
    "cap_per_domain",
    "filter_blocked_domains",
    "frontier_schedule",
    "url_templates",
    "sitemap_discover",
    "url_features",
    "robots_sitemap_urls",
    "filter_declared_sitemaps",
]

# pc.extract_regex requires NAMED groups (unnamed groups raise)
_HOST_RE = r"^[a-z][a-z0-9+.-]*://(?P<host>[^/:?#]+)"


def _host_array(urls: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized host extraction; non-matching urls -> null."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    ex = pc.extract_regex(urls, _HOST_RE)
    return pc.struct_field(ex, ["host"])


# coarse bucket count of the host- and template-keyed exchanges
_HOST_BUCKETS = 512


def add_host(ds: ray.data.Dataset, url_col: str = "url") -> ray.data.Dataset:
    """Append a ``host`` column extracted from ``url_col``."""

    def ex(batch: pa.Table) -> pa.Table:
        return batch.append_column("host", _host_array(batch[url_col]))

    return ds.map_batches(ex, batch_format="pyarrow")


def domain_counts(
    ds: ray.data.Dataset, url_col: str = "url"
) -> ray.data.Dataset:
    """Docs per host: per-batch collapse -> one host-bucket exchange."""

    def partial(batch: pa.Table) -> pa.Table:
        hosts = _host_array(batch[url_col]).to_pandas()
        vc = hosts.value_counts()
        return pa.table(
            {
                "host": pa.array(vc.index.astype(str)),
                "n": pa.array(vc.to_numpy().astype(np.int64)),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("host", as_index=False)["n"].sum()

    return cogroup(
        {"group": (ds.map_batches(partial, batch_format="pyarrow"), "host")},
        lambda group: merge(group.to_pandas()),
        pa.schema([("host", pa.string()), ("n", pa.int64())]),
        n_buckets=_HOST_BUCKETS,
        coalesce=True,
    )


def _rank_keys(ids) -> list[str]:
    return [hashlib.md5(str(i).encode()).hexdigest() for i in ids]


def cap_per_domain(
    ds: ray.data.Dataset,
    url_col: str = "url",
    id_col: str = "doc_id",
    k: int = 5,
    keep_cols: Optional[list[str]] = None,
) -> ray.data.Dataset:
    """Keep at most ``k`` docs per host, chosen by the deterministic
    md5 rank order. Output: Dataset[doc_id, host, *keep_cols] —
    ``keep_cols`` rides through both exchanges unchanged so a
    composite chain can cap without a join back to its stats."""
    keep_cols = list(keep_cols or [])

    def local_prune(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "doc_id": batch[id_col].to_numpy(zero_copy_only=False),
                "host": _host_array(batch[url_col]).to_pandas(),
                **{
                    c: batch[c].to_numpy(zero_copy_only=False)
                    for c in keep_cols
                },
            }
        )
        df["_rk"] = _rank_keys(df["doc_id"])
        # ties impossible (md5 of distinct ids), but doc_id breaks any
        kept = (
            df.sort_values(["_rk", "doc_id"])
            .groupby("host", sort=False)
            .head(k)
        )
        return pa.Table.from_pandas(kept, preserve_index=False)

    def global_prune(group: pd.DataFrame) -> pd.DataFrame:
        kept = (
            group.sort_values(["_rk", "doc_id"])
            .groupby("host", sort=False)
            .head(k)
        )
        return kept[["doc_id", "host"] + keep_cols]

    return cogroup(
        {"group": (ds.map_batches(local_prune, batch_format="pyarrow"), "host")},
        lambda group: global_prune(group.to_pandas()),
        lambda group: pa.schema(
            [group.field(c) for c in ["doc_id", "host"] + keep_cols]
        ),
        n_buckets=_HOST_BUCKETS,
        coalesce=True,
    )


def filter_blocked_domains(
    ds: ray.data.Dataset,
    blocked: frozenset[str] | set[str],
    url_col: str = "url",
) -> ray.data.Dataset:
    """Drop rows whose host is in ``blocked``. The blocklist is put in
    the object store ONCE and read per task (zero-copy plasma), never
    serialized per batch."""
    blocked_ref = ray.put(sorted(set(blocked)))

    def keep(batch: pa.Table, *, _ref=blocked_ref) -> pa.Table:
        bl_arr = _blocked_value_set(_ref)
        hosts = _host_array(batch[url_col])
        mask = pc.fill_null(
            pc.and_(
                pc.is_valid(hosts),
                pc.invert(pc.is_in(hosts, value_set=bl_arr)),
            ),
            False,
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# per-process cache: the Arrow value_set is built once per worker,
# not once per batch
_BLOCK_CACHE: dict = {}


def _blocked_value_set(ref) -> pa.Array:
    key = ref.hex()
    if key not in _BLOCK_CACHE:
        _BLOCK_CACHE.clear()  # one live blocklist per worker is enough
        _BLOCK_CACHE[key] = pa.array(ray.get(ref), pa.string())
    return _BLOCK_CACHE[key]


# pc.extract_regex requires named groups; path stops at query/fragment
_HOST_PATH_RE = (
    r"^[a-z][a-z0-9+.-]*://(?P<host>[^/:?#]+)(?P<path>[^?#]*)"
)


def url_templates(
    ds: ray.data.Dataset, url_col: str = "url", k: int = 25
) -> ray.data.Dataset:
    """Structural URL-template mining: collapse every digit run in the
    PATH to ``{n}`` (host kept verbatim), count urls per resulting
    template, return the exact global top-``k`` by (n DESC, template
    ASC).

    Crawl curation uses this to find the site sections that dominate a
    crawl (``/product/{n}/view`` vs ``/blog/{n}/{n}/post-{n}``) so
    quotas/blocklists can act on page *templates* instead of raw urls
    — raw-url frequency is useless when every product page has a
    unique id. The reference has no corpus-level URL surface; this is
    a corpus-scale extension operator (SURVEY.md §8.4).

    Scale shape mirrors ``word_topk``/``domain_counts``: the template
    extraction is zero-copy Arrow regex per batch, each batch
    collapses to one row per distinct template (a bounded set — that
    is the point of templating) before ONE coarse template-bucket
    exchange; each bucket merges and prunes to its own top-k (the
    global top-k is a subset of the union of bucket top-ks), so the
    final sort sees at most 512*k rows. Urls without a parseable host
    are dropped.
    """

    def partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(
            batch[url_col].combine_chunks()
            if isinstance(batch[url_col], pa.ChunkedArray)
            else batch[url_col],
            _HOST_PATH_RE,
        )
        host = pc.struct_field(ex, ["host"])
        path = pc.replace_substring_regex(
            pc.struct_field(ex, ["path"]), r"[0-9]+", "{n}"
        )
        tpl = pc.binary_join_element_wise(host, path, "")
        vc = tpl.drop_null().to_pandas().value_counts()
        tpls = vc.index.to_numpy()
        return pa.table(
            {
                "template": pa.array(tpls.astype(str)),
                "n": pa.array(vc.to_numpy().astype(np.int64)),
            }
        )

    def bucket_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("template", as_index=False).agg(n=("n", "sum"))
        return g.sort_values(
            ["n", "template"], ascending=[False, True]
        ).head(k)

    agg = cogroup(
        {"group": (ds.map_batches(partial, batch_format="pyarrow"), "template")},
        lambda group: bucket_topk(group.to_pandas()),
        pa.schema([("template", pa.string()), ("n", pa.int64())]),
        n_buckets=_HOST_BUCKETS,
        coalesce=True,
    )
    return agg.sort(["n", "template"], descending=[True, False]).limit(k)


def frontier_schedule(
    ds: ray.data.Dataset,
    url_col: str = "url",
    priority_col: str = "priority",
    delay_s: int = 2,
    max_per_host: Optional[int] = None,
    crawl_start: int = 0,
) -> ray.data.Dataset:
    """Politeness-aware crawl-frontier scheduling: per-host fetch
    slots with one request every ``delay_s`` seconds.

    Every crawler serializes requests per host (Heritrix/Nutch-style
    politeness queues); distributed, that is a per-host ranking:

        slot     = 0-based rank of the url within its host by
                   (priority DESC, url ASC)  [deterministic]
        fetch_ts = crawl_start + slot * delay_s   [epoch seconds]

    Rows ranked at or beyond ``max_per_host`` are dropped (per-host
    crawl budget). Output: ``(url, host, priority, slot, fetch_ts)``;
    rows without a parseable host are dropped.

    Scale shape: the rank is inherently per-host global, so the rows
    take ONE coarse host-hash-bucket exchange (the repo's standard
    currency — hosts co-bucket, buckets are map_groups tasks). When
    ``max_per_host`` is set, each batch first prunes to its local
    per-host top-k — a row below k inside its own batch cannot make
    the global top-k — so hot hosts (the skew case: a million-URL
    domain) ship at most k rows per input batch instead of all of
    them; without a cap the full frontier legitimately moves once.
    """

    def local(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "url": batch[url_col].to_pandas(),
                "priority": batch[priority_col].to_numpy(
                    zero_copy_only=False
                ),
                "host": _host_array(batch[url_col]).to_pandas(),
            }
        )
        df = df[df["host"].notna()]
        df = df.sort_values(
            ["host", "priority", "url"], ascending=[True, False, True]
        )
        if max_per_host is not None:
            df = df.groupby("host", sort=False).head(max_per_host)
        return pa.Table.from_pandas(df, preserve_index=False)

    def schedule(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["host", "priority", "url"], ascending=[True, False, True]
        )
        slot = g.groupby("host", sort=False).cumcount().to_numpy(np.int64)
        g = g.assign(
            slot=slot,
            fetch_ts=np.int64(crawl_start) + slot * np.int64(delay_s),
        )
        if max_per_host is not None:
            g = g[g["slot"] < max_per_host]
        return g[["url", "host", "priority", "slot", "fetch_ts"]]

    return cogroup(
        {"group": (ds.map_batches(local, batch_format="pyarrow"), "host")},
        lambda group: schedule(group.to_pandas()),
        lambda group: pa.schema(
            [("url", pa.string()), ("host", pa.string()), group.field("priority"),
             ("slot", pa.int64()), ("fetch_ts", pa.int64())]
        ),
        n_buckets=_HOST_BUCKETS,
        coalesce=True,
    )


def sitemap_discover(
    sitemaps: ray.data.Dataset,
    crawled: ray.data.Dataset,
    xml_col: str = "xml",
    crawled_url_col: str = "url",
) -> ray.data.Dataset:
    """Crawl-frontier discovery from sitemap documents: parse every
    sitemap (:func:`kernel.sitemap.parse_sitemap` — comments/CDATA/
    namespace-prefix aware), keep the page-URL entries, and anti-join
    against the already-crawled URL set. One row per UNcrawled URL:
    ``(url, n_listings)`` — how many sitemaps list it (a freshness /
    priority signal for the frontier scheduler).

    Scale shape: both sides map to narrow ``(url, src)`` partial rows
    (sitemap locs pre-counted per batch, so the exchange carries one
    row per distinct loc per batch, not per listing), then ONE
    hash-bucket groupby does count + anti-join together. The crawled
    side ships url-only rows — never page bodies — and nothing lands
    on the driver. At 100 TB the crawled set is far too big to
    broadcast; this is the hash-partitioned variant by construction.
    """
    from pdf_extractor_ray.kernel.sitemap import parse_sitemap

    def locs(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for x in batch[xml_col].to_pylist():
            if not x:
                continue
            s = (
                x.decode("utf-8", errors="replace")
                if isinstance(x, (bytes, bytearray))
                else x
            )
            for kind, loc in parse_sitemap(s):
                if kind == "url":
                    counts[loc] = counts.get(loc, 0) + 1
        return pa.table(
            {
                "url": pa.array(list(counts), pa.string()),
                "n_listings": pa.array(list(counts.values()), pa.int64()),
                "crawled": pa.array([0] * len(counts), pa.int64()),
            }
        )

    def crawled_rows(batch: pa.Table) -> pa.Table:
        urls = pc.drop_null(batch[crawled_url_col])
        n = len(urls)
        return pa.table(
            {
                "url": urls,
                "n_listings": pa.array([0] * n, pa.int64()),
                "crawled": pa.array([1] * n, pa.int64()),
            }
        )

    listed = sitemaps.map_batches(locs, batch_format="pyarrow")
    seen = crawled.map_batches(crawled_rows, batch_format="pyarrow")

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby("url", as_index=False)
            .agg(n_listings=("n_listings", "sum"), crawled=("crawled", "max"))
        )
        out = out[(out["crawled"] == 0) & (out["n_listings"] > 0)]
        return out[["url", "n_listings"]]

    return cogroup(
        {"group": (listed.union(seen), "url")},
        lambda group: resolve(group.to_pandas()),
        pa.schema([("url", pa.string()), ("n_listings", pa.int64())]),
        n_buckets=512,
        coalesce=True,
    )


def url_features(
    ds: ray.data.Dataset, url_col: str = "url"
) -> ray.data.Dataset:
    """Lexical URL spam/quality features (the RefinedWeb/FineWeb-style
    URL-filtering signals): host, subdomain depth, IP-literal flag,
    TLD, path depth, URL length, digit density (per-mille), query
    parameter count. Entirely ``pyarrow.compute`` kernels — zero
    Python per-row work, shuffle-free, the cheapest possible gate to
    run before fetching or extracting anything."""

    def feats(batch: pa.Table) -> pa.Table:
        urls = batch[url_col]
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        host = pc.struct_field(
            pc.extract_regex(urls, r"^[a-z][a-z0-9+.-]*://(?P<h>[^/:?#]+)"),
            ["h"],
        )
        host = pc.fill_null(host, "")
        path = pc.fill_null(
            pc.struct_field(
                pc.extract_regex(
                    urls, r"^[a-z][a-z0-9+.-]*://[^/?#]*(?P<p>[^?#]*)"
                ),
                ["p"],
            ),
            "",
        )
        query = pc.fill_null(
            pc.struct_field(
                pc.extract_regex(urls, r"^[^?#]*\?(?P<q>[^#]*)"), ["q"]
            ),
            "",
        )
        url_len = pc.utf8_length(urls)
        n_digits = pc.count_substring_regex(urls, r"[0-9]")
        digit_permille = pc.divide(
            pc.multiply(pc.cast(n_digits, pa.int64()), 1000),
            pc.cast(url_len, pa.int64()),
        )
        path_depth = pc.count_substring_regex(path, r"/[^/]+")
        n_params = pc.if_else(
            pc.equal(query, ""),
            pa.scalar(0, pa.int64()),
            pc.add(
                pc.cast(pc.count_substring(query, "&"), pa.int64()), 1
            ),
        )
        dots = pc.count_substring(host, ".")
        subdomain_depth = pc.max_element_wise(
            pc.subtract(pc.cast(dots, pa.int64()), 1),
            pa.scalar(0, pa.int64()),
        )
        is_ip = pc.match_substring_regex(
            host, r"^\d+\.\d+\.\d+\.\d+$"
        )
        tld = pc.fill_null(
            pc.struct_field(
                pc.extract_regex(host, r"\.(?P<t>[a-z0-9-]+)$"), ["t"]
            ),
            "",
        )
        tld = pc.if_else(is_ip, pa.scalar("", pa.string()), tld)
        subdomain_depth = pc.if_else(
            is_ip, pa.scalar(0, pa.int64()), subdomain_depth
        )
        return pa.table(
            {
                "url": urls,
                "host": host,
                "subdomain_depth": subdomain_depth,
                "is_ip_host": pc.cast(is_ip, pa.int64()),
                "tld": tld,
                "path_depth": pc.cast(path_depth, pa.int64()),
                "url_len": pc.cast(url_len, pa.int64()),
                "digit_permille": digit_permille,
                "n_params": n_params,
            }
        )

    return ds.map_batches(feats, batch_format="pyarrow")


def robots_sitemap_urls(
    robots: ray.data.Dataset,
    robots_col: str = "robots_txt",
    host_col: str = "host",
) -> ray.data.Dataset:
    """``(host, sitemap_url)`` per ``Sitemap:`` declaration across the
    robots corpus (global lines per RFC 9309 §2.2.4 — group placement
    and field case immaterial, comments stripped). Pure streaming
    flat-map; the discovery chain feeds these into
    :func:`filter_declared_sitemaps`."""
    from pdf_extractor_ray.kernel.robots import extract_sitemaps

    def rows(batch: pa.Table) -> pa.Table:
        hosts, urls = [], []
        for h, t in zip(
            batch[host_col].to_pylist(), batch[robots_col].to_pylist()
        ):
            if not t:
                continue
            s = (
                t.decode("utf-8", errors="replace")
                if isinstance(t, (bytes, bytearray))
                else t
            )
            for sm in extract_sitemaps(s):
                hosts.append(h)
                urls.append(sm)
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "sitemap_url": pa.array(urls, pa.string()),
            }
        )

    return robots.map_batches(rows, batch_format="pyarrow")


def filter_declared_sitemaps(
    sitemaps: ray.data.Dataset,
    declared: ray.data.Dataset,
    url_col: str = "url",
    declared_col: str = "sitemap_url",
    n_buckets: int = 512,
) -> ray.data.Dataset:
    """Keep only sitemap documents whose URL is declared in some
    robots.txt — the trust gate of the discovery chain (undeclared
    sitemap files are spam-injection vectors). Hash-partitioned
    semi-join: BOTH sides bucket on the sitemap URL and meet in one
    cogroup — the declared side is host-cardinality-proportional and
    the sitemap side carries bodies, so neither is broadcastable at
    100 TB; bodies cross exactly one exchange."""
    import pandas as pd

    def keep(sm: pa.Table, dec: pa.Table) -> pa.Table:
        ok = pa.array(sorted(set(dec["url"].to_pylist())), pa.string())
        return sm.filter(pc.is_in(sm["url"], value_set=ok))

    return cogroup(
        {
            "sm": (
                sitemaps.select_columns([url_col, "xml"]).rename_columns(["url", "xml"]),
                "url",
                pa.schema([("url", pa.string()), ("xml", pa.binary())]),
            ),
            "dec": (
                declared.map_batches(
                    lambda b: pa.table({"url": pc.drop_null(b[declared_col])}),
                    batch_format="pyarrow",
                ),
                "url",
                pa.schema([("url", pa.string())]),
            ),
        },
        keep,
        pa.schema([("url", pa.string()), ("xml", pa.binary())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def host_fetch_plan(
    robots: ray.data.Dataset,
    frontier: ray.data.Dataset,
    agent: str,
    horizon_s: int = 3600,
    default_delay: int = 1,
    host_col: str = "host",
    body_col: str = "robots_txt",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Politeness-budgeted fetch plan per host for the next scheduling
    horizon: ``(host, delay_s, budget, pending, planned)`` with
    ``delay_s`` = the agent's effective Crawl-delay (group precedence,
    first-wins, floored at 1 — kernel/robots.py:crawl_delay_for),
    ``budget = horizon_s // delay_s``, ``pending`` = the host's
    frontier URL count, ``planned = min(budget, pending)``. Hosts with
    no robots body get the default delay; hosts with no pending URLs
    plan 0.

    Scale shape: the robots side is host-bounded, the frontier side is
    corpus-sized but collapses to per-batch (host, count) partials —
    ONE host-bucket cogroup joins them, vectorized inside the group."""
    import pandas as pd

    from pdf_extractor_ray.kernel.robots import crawl_delay_for

    def tag_robots(batch: pa.Table) -> pa.Table:
        hosts = batch[host_col].to_pylist()
        delays = []
        for b in batch[body_col].to_pylist():
            text = (
                b.decode("utf-8", errors="replace")
                if isinstance(b, (bytes, bytearray))
                else (b or "")
            )
            delays.append(crawl_delay_for(text, agent, default_delay))
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "val": pa.array(delays, pa.int64()),
            }
        )

    def tag_frontier(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"host": batch[host_col].to_pylist()})
        g = df.groupby("host", as_index=False).size()
        hosts = g["host"].tolist()
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "val": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    def plan(rb: pa.Table, fr: pa.Table) -> pd.DataFrame:
        rb = rb.to_pandas()
        fr = fr.to_pandas()
        pend = fr.groupby("host")["val"].sum()
        delays = rb.groupby("host")["val"].first()
        hosts = sorted(set(pend.index) | set(delays.index))
        d = delays.reindex(hosts).fillna(
            max(default_delay, 1)
        ).to_numpy(dtype=np.int64)
        p = pend.reindex(hosts).fillna(0).to_numpy(dtype=np.int64)
        budget = horizon_s // d
        return pd.DataFrame(
            {
                "host": hosts,
                "delay_s": d,
                "budget": budget,
                "pending": p,
                "planned": np.minimum(budget, p),
            }
        )

    i64 = pa.int64()
    host_val = pa.schema([("host", pa.string()), ("val", i64)])
    return cogroup(
        {
            "rb": (robots.map_batches(tag_robots, batch_format="pyarrow"), "host", host_val),
            "fr": (frontier.map_batches(tag_frontier, batch_format="pyarrow"), "host", host_val),
        },
        plan,
        pa.schema(
            [("host", pa.string()), ("delay_s", i64), ("budget", i64),
             ("pending", i64), ("planned", i64)]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )
