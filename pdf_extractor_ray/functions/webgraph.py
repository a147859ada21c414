"""Web link-graph harvesting: anchor extraction + per-target stats.

The web-scale companion to crawl curation and PageRank: harvest
``(src_url, href, anchor_text)`` edges from raw page HTML with the
kernel's real tokenizer (script/style contents invisible, inner markup
stripped from anchor text — kernel/html_to_md.py:extract_anchors), and
aggregate inbound-link stats per target with the repo's standard
partial-plus-coarse-bucket-exchange shape. At 100 TB the edge stream
is corpus-sized by nature (it IS the link graph); both operators
stream — nothing is driver-materialized.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.functions.exchange import cogroup, exchange_width
from pdf_extractor_ray.kernel.html_to_md import extract_anchors

__all__ = [
    "extract_links", "anchor_stats", "page_head_meta", "page_pub_dates",
    "resolve_redirects",
    "page_refresh_edges",
    "hreflang_clusters",
    "outlink_features",
]


def extract_links(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """One row per anchor tag: (src_url, pos, href, anchor). ``pos``
    is the 0-based anchor index within its page, making the output a
    deterministic, orderable edge list. Pure streaming map_batches —
    parsing is inherently per-document, but each batch is one task and
    nothing leaves the operator except the edge rows."""

    def links(batch: pa.Table) -> pa.Table:
        src_out: list[str] = []
        pos_out: list[int] = []
        href_out: list[str] = []
        anchor_out: list[str] = []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            for j, (href, anchor) in enumerate(extract_anchors(s)):
                src_out.append(u)
                pos_out.append(j)
                href_out.append(href)
                anchor_out.append(anchor)
        return pa.table(
            {
                "src_url": pa.array(src_out, pa.string()),
                "pos": pa.array(pos_out, pa.int64()),
                "href": pa.array(href_out, pa.string()),
                "anchor": pa.array(anchor_out, pa.string()),
            }
        )

    return ds.map_batches(links, batch_format="pyarrow")


def anchor_stats(
    links: ray.data.Dataset,
    n_buckets: Optional[int] = None,
) -> ray.data.Dataset:
    """Per-target inbound stats: (href, n_inlinks, n_src). Per-batch
    partials collapse to distinct (href, src) pairs with counts — the
    same honest currency as the inverted-index build — then ONE coarse
    href-hash-bucket exchange totals links and counts distinct
    sources per target."""
    if n_buckets is None:
        n_buckets = 2 * exchange_width()

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "href": batch["href"].to_pylist(),
                "src": batch["src_url"].to_pylist(),
            }
        )
        g = df.groupby(["href", "src"], as_index=False).size()
        return pa.table(
            {
                "href": pa.array(g["href"], pa.string()),
                "src": pa.array(g["src"], pa.string()),
                "cnt": pa.array(g["size"].to_numpy(np.int64)),
            }
        )

    def total(group):
        import pandas as pd

        g = group.groupby("href").agg(
            n_inlinks=("cnt", "sum"), n_src=("src", "nunique")
        )
        return pd.DataFrame(
            {
                "href": g.index,
                "n_inlinks": g["n_inlinks"].to_numpy(np.int64),
                "n_src": g["n_src"].to_numpy(np.int64),
            }
        )

    return cogroup(
        {"group": (links.map_batches(partial, batch_format="pyarrow"), "href")},
        lambda group: total(group.to_pandas()),
        pa.schema([("href", pa.string()), ("n_inlinks", pa.int64()), ("n_src", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def page_head_meta(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """One row per page: head metadata for crawl curation — title,
    canonical URL, robots directive (plus the derived ``noindex``
    flag the curation filter keys on), description, og:title. Pure
    streaming map_batches over :func:`extract_head_meta` (same
    tokenizer as the link harvester: script/comment decoys are
    invisible, attribute order and quote style don't matter)."""
    from pdf_extractor_ray.kernel.html_to_md import extract_head_meta

    def metas(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {
            "url": [], "title": [], "canonical": [], "robots": [],
            "description": [], "og_title": [], "noindex": [],
        }
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            m = extract_head_meta(s)
            cols["url"].append(u)
            cols["title"].append(m["title"])
            cols["canonical"].append(m["canonical"])
            cols["robots"].append(m["robots"])
            cols["description"].append(m["description"])
            cols["og_title"].append(m["og_title"])
            robots = (m["robots"] or "").lower()
            cols["noindex"].append(
                1 if "noindex" in robots.replace(" ", "").split(",") else 0
            )
        return pa.table(
            {
                "url": pa.array(cols["url"], pa.string()),
                "title": pa.array(cols["title"], pa.string()),
                "canonical": pa.array(cols["canonical"], pa.string()),
                "robots": pa.array(cols["robots"], pa.string()),
                "description": pa.array(cols["description"], pa.string()),
                "og_title": pa.array(cols["og_title"], pa.string()),
                "noindex": pa.array(cols["noindex"], pa.int64()),
            }
        )

    return ds.map_batches(metas, batch_format="pyarrow")


def page_pub_dates(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """One row per page: ``(url, pub_date, date_source)`` from the
    htmldate-style cascade (:func:`extract_pub_date` — meta > <time>
    > URL-path, implausible dates rejected per source). Pure streaming
    map_batches; pages with no recoverable date emit empty strings so
    downstream freshness joins stay NULL-free."""
    from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

    def dates(batch: pa.Table) -> pa.Table:
        urls, dts, srcs = [], [], []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            d, src = extract_pub_date(s, u or "")
            urls.append(u)
            dts.append(d)
            srcs.append(src)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "pub_date": pa.array(dts, pa.string()),
                "date_source": pa.array(srcs, pa.string()),
            }
        )

    return ds.map_batches(dates, batch_format="pyarrow")


def resolve_redirects(
    edges: ray.data.Dataset,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    max_rounds: int = 6,
    n_buckets: int = 512,
) -> ray.data.Dataset:
    """Resolve HTTP redirect chains to their final targets by pointer
    doubling: ``(src_url, final_url, n_hops, is_cycle)`` per redirect
    source. Input is the crawl's redirect table — one row per 3xx
    response, a URL appears as source at most once (HTTP semantics).

    Scale shape: each round is ONE hash-bucket cogroup of the state
    with itself (probe keyed on the current endpoint, map keyed on the
    source), after which every known path DOUBLES in length — chains
    up to 2^max_rounds resolve in max_rounds exchanges, not one per
    hop. Rows finalize when their endpoint has no outgoing edge (a
    terminal URL) or lands on an already-final row; rows still pending
    after the cap are redirect LOOPS (or chains longer than
    2^max_rounds, indistinguishable without more rounds) and come
    back flagged ``is_cycle=1`` with an empty final. The state is materialized once
    per round (object store, never the driver); the driver sees one
    pending-count scalar per round for early exit.
    """
    import pandas as pd
    import pyarrow.compute as pc

    def init(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "src": batch[src_col],
                "cur": batch[dst_col],
                "hops": pa.array([1] * n, pa.int64()),
                "done": pa.array([0] * n, pa.int64()),
            }
        )

    def to_probe(batch: pa.Table) -> pa.Table:
        pend = batch.filter(pc.equal(batch["done"], 0))
        return pa.table(
            {
                "key": pend["cur"],
                "src": pend["src"],
                "cur": pend["cur"],
                "hops": pend["hops"],
            }
        )

    def to_map(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch["src"],
                "cur": batch["cur"],
                "hops": batch["hops"],
                "done": batch["done"],
            }
        )

    def step(probes: pa.Table, maps: pa.Table) -> pd.DataFrame:
        # vectorized probe->map join (a URL is a map key at most once,
        # so the left merge is 1:at-most-1 and never fans out)
        maps = maps.to_pandas()
        probes = probes.to_pandas()
        j = probes.merge(
            maps, on="key", how="left", suffixes=("", "_m"), copy=False
        )
        hit = j["cur_m"].notna()
        out = pd.DataFrame(
            {
                "src": j["src"].astype(object),
                "cur": j["cur"].where(~hit, j["cur_m"]).astype(object),
                "hops": (
                    j["hops"]
                    + j["hops_m"].fillna(0).astype("int64")
                ).astype("int64"),
                # no map entry -> terminal (done); else inherit the
                # map row's done flag (landing on a final row ends it)
                "done": j["done"].fillna(1).astype("int64"),
            }
        )
        return out

    s64, i64 = pa.string(), pa.int64()
    probe_schema = pa.schema([("key", s64), ("src", s64), ("cur", s64), ("hops", i64)])
    map_schema = pa.schema([("key", s64), ("cur", s64), ("hops", i64), ("done", i64)])
    state_schema = pa.schema([("src", s64), ("cur", s64), ("hops", i64), ("done", i64)])
    state = edges.map_batches(init, batch_format="pyarrow").materialize()
    prev_pending = None
    for _ in range(max_rounds):
        pending = state.map_batches(to_probe, batch_format="pyarrow")
        n_pending = pending.count()
        # Convergence: while any pending non-loop row exists, the one
        # with the smallest remaining distance finalizes every round,
        # so an UNCHANGED pending count means only loops remain — stop
        # early instead of letting their hop counters double to the cap.
        if n_pending == 0 or n_pending == prev_pending:
            break
        prev_pending = n_pending
        finished = state.map_batches(
            lambda b: b.filter(pc.equal(b["done"], 1)),
            batch_format="pyarrow",
        )
        mapside = state.map_batches(to_map, batch_format="pyarrow")
        advanced = cogroup(
            {
                "probes": (pending, "key", probe_schema),
                "maps": (mapside, "key", map_schema),
            },
            step,
            state_schema,
            n_buckets=n_buckets,
            coalesce=True,
        )
        state = advanced.union(finished).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        done = batch["done"].to_pylist()
        curs = batch["cur"].to_pylist()
        hops = batch["hops"].to_pylist()
        return pa.table(
            {
                "src_url": batch["src"],
                "final_url": pa.array(
                    [c if d else "" for c, d in zip(curs, done)],
                    pa.string(),
                ),
                "n_hops": pa.array(
                    [h if d else 0 for h, d in zip(hops, done)], pa.int64()
                ),
                "is_cycle": pa.array([1 - d for d in done], pa.int64()),
            }
        )

    return state.map_batches(finish, batch_format="pyarrow")


def page_refresh_edges(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """Harvest the in-document redirect table: one row per page whose
    first ``<meta http-equiv=refresh>`` names a target URL —
    ``(src_url, dst_url, delay_s)``. Pure streaming map_batches over
    :func:`kernel.html_to_md.extract_meta_refresh`; rows compose
    directly with :func:`resolve_redirects` (meta-refresh is the
    crawl's second redirect mechanism next to HTTP 3xx)."""
    from pdf_extractor_ray.kernel.html_to_md import extract_meta_refresh

    def edges(batch: pa.Table) -> pa.Table:
        srcs, dsts, delays = [], [], []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            delay, target = extract_meta_refresh(s)
            if target:
                srcs.append(u)
                dsts.append(target)
                delays.append(delay)
        return pa.table(
            {
                "src_url": pa.array(srcs, pa.string()),
                "dst_url": pa.array(dsts, pa.string()),
                "delay_s": pa.array(delays, pa.int64()),
            }
        )

    return ds.map_batches(edges, batch_format="pyarrow")


def hreflang_clusters(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
    n_buckets: int = 512,
) -> ray.data.Dataset:
    """Language-variant clusters from hreflang declarations: pages
    listing the same ``<link rel=alternate hreflang>`` set are one
    multilingual document (the international-SEO analogue of a
    canonical cluster — variants must NOT near-dedup each other away).
    Cluster key = lexicographic min of the declared alternate URLs, a
    pure function of the page so no join is needed to assign it. One
    narrow row per page ships into ONE coarse-bucket exchange:
    ``(cluster_key, n_pages, n_langs, langs)`` per cluster."""
    import pandas as pd

    from pdf_extractor_ray.kernel.html_to_md import extract_hreflang

    def page_rows(batch: pa.Table) -> pa.Table:
        keys, langs_joined = [], []
        for h in batch[html_col].to_pylist():
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            alts = extract_hreflang(s)
            if not alts:
                continue
            keys.append(min(href for _, href in alts))
            langs_joined.append(",".join(sorted({l for l, _ in alts})))
        return pa.table(
            {
                "cluster_key": pa.array(keys, pa.string()),
                "langs": pa.array(langs_joined, pa.string()),
            }
        )

    def rollup(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("cluster_key", as_index=False).agg(
            n_pages=("langs", "size"), langs=("langs", "min")
        )
        agg["n_langs"] = (
            agg["langs"].str.count(",").astype("int64") + 1
        )
        return agg[["cluster_key", "n_pages", "n_langs", "langs"]]

    return cogroup(
        {"group": (ds.map_batches(page_rows, batch_format="pyarrow"), "cluster_key")},
        lambda group: rollup(group.to_pandas()),
        pa.schema(
            [("cluster_key", pa.string()), ("n_pages", pa.int64()),
             ("n_langs", pa.int64()), ("langs", pa.string())]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )


def outlink_features(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """Per-page outbound-link spam signals: total links, external
    links (absolute href whose host differs from the page's own;
    relative hrefs are internal by construction), distinct external
    hosts, and external share in integer per-mille. Link-farm pages
    light up on external_permille + n_ext_hosts; pure streaming
    map_batches over the kernel anchor harvester (script/comment
    decoys invisible)."""
    import re as _re

    from pdf_extractor_ray.kernel.html_to_md import extract_anchors

    host_re = _re.compile(r"^[a-z][a-z0-9+.-]*://([^/:?#]+)", _re.I)

    def feats(batch: pa.Table) -> pa.Table:
        urls, n_links, n_ext, n_hosts, permille = [], [], [], [], []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            mu = host_re.match(u or "")
            own = mu.group(1).lower() if mu else ""
            anchors = extract_anchors(s)
            ext_hosts = []
            for href, _ in anchors:
                m = host_re.match(href)
                if m and m.group(1).lower() != own:
                    ext_hosts.append(m.group(1).lower())
            urls.append(u)
            n_links.append(len(anchors))
            n_ext.append(len(ext_hosts))
            n_hosts.append(len(set(ext_hosts)))
            permille.append(
                1000 * len(ext_hosts) // len(anchors) if anchors else 0
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "n_links": pa.array(n_links, pa.int64()),
                "n_external": pa.array(n_ext, pa.int64()),
                "n_ext_hosts": pa.array(n_hosts, pa.int64()),
                "external_permille": pa.array(permille, pa.int64()),
            }
        )

    return ds.map_batches(feats, batch_format="pyarrow")


def page_json_ld(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """One row per schema.org entity found in a page's
    ``application/ld+json`` blocks: ``(url, ent_idx, ent_type, name,
    date_published, author, n_bad)`` — ``ent_idx`` is the entity's
    document-order position, ``n_bad`` the page's count of
    syntactically-invalid JSON-LD blocks (repeated on each of the
    page's rows).  Missing fields come back as ``''`` so the schema
    stays all-string.  Pages with zero parseable entities emit no
    rows.  Pure streaming map_batches over
    :func:`~pdf_extractor_ray.kernel.html_to_md.extract_json_ld` —
    no shuffle, scales linearly with page count."""
    from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

    def ents(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        idxs: list[int] = []
        types: list[str] = []
        names: list[str] = []
        dates: list[str] = []
        authors: list[str] = []
        bads: list[int] = []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            entities, n_bad = extract_json_ld(s)
            for i, e in enumerate(entities):
                urls.append(u)
                idxs.append(i)
                types.append(e["type"] or "")
                names.append(e["name"] or "")
                dates.append(e["date_published"] or "")
                authors.append(e["author"] or "")
                bads.append(n_bad)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "ent_idx": pa.array(idxs, pa.int64()),
                "ent_type": pa.array(types, pa.string()),
                "name": pa.array(names, pa.string()),
                "date_published": pa.array(dates, pa.string()),
                "author": pa.array(authors, pa.string()),
                "n_bad": pa.array(bads, pa.int64()),
            }
        )

    return ds.map_batches(ents, batch_format="pyarrow")


def canonical_clusters(
    pages: ray.data.Dataset,
    redirect_edges: ray.data.Dataset,
    url_col: str = "url",
    canonical_col: str = "canonical",
    n_buckets: int = 256,
    max_rounds: int = 6,
) -> ray.data.Dataset:
    """Duplicate-URL clustering by rel=canonical, with the declared
    canonical target itself resolved through the crawl's redirect
    table — the real-web composite (sites routinely declare a
    canonical that 301s to the live URL). One row per cluster:
    ``(cluster_url, n_pages, n_redirected)`` where ``n_redirected``
    counts member pages whose canonical needed >= 1 redirect hop.
    Pages with no declared canonical ('' / null) are self-canonical.

    Scale shape: :func:`resolve_redirects` (pointer doubling) gives
    the final-target map; pages then cogroup with that map on a
    string-hash bucket of the declared target (ONE exchange — neither
    side is broadcastable: the map is redirect-table-sized, pages are
    the corpus), and the cluster rollup is a second coarse-bucket
    exchange on the cluster URL. Cycle rows (is_cycle=1) keep the
    DECLARED target as the cluster key — a looping canonical still
    groups its declarers together without inventing a final."""
    import pandas as pd
    import pyarrow.compute as pc

    finals = resolve_redirects(
        redirect_edges, max_rounds=max_rounds
    )

    def tag_map(batch: pa.Table) -> pa.Table:
        ok = batch.filter(pc.equal(batch["is_cycle"], 0))
        return pa.table({"key": ok["src_url"], "val": ok["final_url"]})

    def tag_pages(batch: pa.Table) -> pa.Table:
        urls = batch[url_col].to_pylist()
        canon = batch[canonical_col].to_pylist()
        keys = [c if c else u for u, c in zip(urls, canon)]
        return pa.table({"key": pa.array(keys, pa.string())})

    def resolve(m: pa.Table, pg: pa.Table) -> pd.DataFrame | None:
        if not pg.num_rows:
            return None
        m = m.to_pandas()
        pg = pg.to_pandas()
        fmap = pd.Series(m["val"].to_numpy(), index=m["key"].to_numpy())
        resolved = fmap.reindex(pg["key"].to_numpy())
        hit = resolved.notna().to_numpy()
        cluster = np.where(hit, resolved.to_numpy(), pg["key"].to_numpy())
        return pd.DataFrame(
            {"cluster_url": cluster, "red": hit.astype(np.int64)}
        )

    s64 = pa.string()
    resolved = cogroup(
        {
            "m": (
                finals.map_batches(tag_map, batch_format="pyarrow"),
                "key",
                pa.schema([("key", s64), ("val", s64)]),
            ),
            "pg": (
                pages.map_batches(tag_pages, batch_format="pyarrow"),
                "key",
                pa.schema([("key", s64)]),
            ),
        },
        resolve,
        pa.schema([("cluster_url", s64), ("red", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )

    def rollup(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("cluster_url", as_index=False).agg(
            n_pages=("red", "size"), n_redirected=("red", "sum")
        )
        return g.astype({"n_pages": "int64", "n_redirected": "int64"})

    return cogroup(
        {"group": (resolved, "cluster_url")},
        lambda group: rollup(group.to_pandas()),
        pa.schema(
            [("cluster_url", s64), ("n_pages", pa.int64()), ("n_redirected", pa.int64())]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )


def host_mirror_pairs(
    ds: ray.data.Dataset,
    host_col: str = "host",
    content_col: str = "content_hash",
    max_hosts_per_content: int = 4,
    min_shared: int = 1,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Mirror/scrape detection: host pairs sharing content hashes —
    ``(host_a, host_b, n_shared, n_a, n_b, containment_pm)`` with
    ``host_a < host_b``, ``n_*`` = each host's distinct-content count
    and ``containment_pm = 1000 * n_shared // min(n_a, n_b)``.

    Pair generation is capped: a content hash on more than
    ``max_hosts_per_content`` distinct hosts is dropped from pairing
    (boilerplate/error pages shared by hundreds of hosts are pure
    noise and quadratic cost — the cooccurrence cap pattern; the SQL
    oracle replays the cap, so it is part of the contract, not a
    hidden approximation).

    Scale shape: exchange 1 cogroups (host, content) rows on a
    content-hash bucket — in-bucket distinct, cap, and pair emission
    (O(shared-pairs), never all-pairs); exchange 2 rolls pairs up on
    a pair bucket. Host sizes are a host-bounded rollup broadcast
    into the pair stream.
    """
    import pandas as pd

    ds = ds.materialize()  # consumed twice: pairing + host sizes

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({"host": batch[host_col], "content": batch[content_col]})

    def emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["content", "host"])
        out_a, out_b = [], []
        for _, sub in g.groupby("content"):
            hosts = sorted(sub["host"])
            if len(hosts) < 2 or len(hosts) > max_hosts_per_content:
                continue
            for i in range(len(hosts)):
                for j in range(i + 1, len(hosts)):
                    out_a.append(hosts[i])
                    out_b.append(hosts[j])
        return pd.DataFrame({"host_a": out_a, "host_b": out_b})

    pairs = cogroup(
        {"group": (ds.map_batches(tag, batch_format="pyarrow"), "content")},
        lambda group: emit_pairs(group.to_pandas()),
        lambda group: pa.schema(
            [("host_a", group.field("host").type), ("host_b", group.field("host").type)]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )

    # host sizes: distinct contents per host — host-bounded, broadcast
    def size_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "host": batch[host_col].to_pylist(),
                "content": batch[content_col].to_pylist(),
            }
        ).drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def size_merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["host", "content"])
        return (
            g.groupby("host", as_index=False)
            .agg(n=("content", "size"))
            .astype({"n": "int64"})
        )

    sizes = cogroup(
        {"group": (ds.map_batches(size_partial, batch_format="pyarrow"), "host")},
        lambda group: size_merge(group.to_pandas()),
        lambda group: pa.schema([group.field("host"), ("n", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    ).to_pandas()  # bounded: one row per host
    size_ref = ray.put(
        pd.Series(sizes["n"].to_numpy(), index=sizes["host"].to_numpy())
    )

    def tag_pair(batch: pa.Table) -> pa.Table:
        # \x1f unit separator: can't appear in a hostname, and unlike
        # \x00 it survives every string-hash path (see bucket_ids)
        key = [
            f"{a}\x1f{b}"
            for a, b in zip(
                batch["host_a"].to_pylist(), batch["host_b"].to_pylist()
            )
        ]
        return batch.append_column("_pk", pa.array(key, pa.string()))

    def rollup(group: pd.DataFrame) -> pd.DataFrame:
        smap = ray.get(size_ref)
        g = group.groupby(["host_a", "host_b"], as_index=False).agg(
            n_shared=("host_a", "size")
        )
        g = g[g["n_shared"] >= min_shared]
        na = smap.reindex(g["host_a"].to_numpy()).to_numpy(dtype=np.int64)
        nb = smap.reindex(g["host_b"].to_numpy()).to_numpy(dtype=np.int64)
        ns = g["n_shared"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "host_a": g["host_a"].to_numpy(),
                "host_b": g["host_b"].to_numpy(),
                "n_shared": ns,
                "n_a": na,
                "n_b": nb,
                "containment_pm": 1000 * ns // np.minimum(na, nb),
            }
        )

    i64 = pa.int64()
    return cogroup(
        {"group": (pairs.map_batches(tag_pair, batch_format="pyarrow"), "_pk")},
        lambda group: rollup(group.to_pandas()),
        lambda group: pa.schema(
            [group.field("host_a"), group.field("host_b"), ("n_shared", i64),
             ("n_a", i64), ("n_b", i64), ("containment_pm", i64)]
        ),
        n_buckets=n_buckets,
        coalesce=True,
    )


def reciprocal_link_stats(
    edges: ray.data.Dataset,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Link-nepotism signal: per source host, how much of its distinct
    out-neighborhood links back — ``(host, n_out, n_recip, recip_pm)``
    with ``recip_pm = 1000 * n_recip // n_out``. High reciprocity at
    the host level is the classic link-farm fingerprint (Fetterly et
    al.; TrustRank-era spam features). Self-loops are ignored.

    Scale shape: each directed edge is tagged with its UNORDERED pair
    key, so both directions of a pair land in one bucket group (ONE
    exchange); the group detects reciprocation with a vectorized set
    probe and emits per-src partials, which roll up per host in a
    second coarse exchange."""
    import pandas as pd

    def tag(batch: pa.Table) -> pa.Table:
        src = batch[src_col].to_pylist()
        dst = batch[dst_col].to_pylist()
        keep = [i for i, (s, d) in enumerate(zip(src, dst)) if s != d]
        src = [src[i] for i in keep]
        dst = [dst[i] for i in keep]
        pair = [
            f"{s}\x1f{d}" if s < d else f"{d}\x1f{s}"
            for s, d in zip(src, dst)
        ]
        return pa.table(
            {
                "src": pa.array(src, pa.string()),
                "dst": pa.array(dst, pa.string()),
                "_pk": pa.array(pair, pa.string()),
            }
        )

    def detect(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["src", "dst"])
        fwd = set(zip(g["src"], g["dst"]))
        recip = np.array(
            [(d, s) in fwd for s, d in zip(g["src"], g["dst"])],
            dtype=np.int64,
        )
        out = pd.DataFrame({"host": g["src"].to_numpy(), "r": recip})
        return out.groupby("host", as_index=False).agg(
            n_out=("r", "size"), n_recip=("r", "sum")
        )

    i64 = pa.int64()
    partials = cogroup(
        {
            "group": (
                edges.map_batches(tag, batch_format="pyarrow", batch_size=None),
                "_pk",
            )
        },
        lambda group: detect(group.to_pandas()),
        pa.schema([("host", pa.string()), ("n_out", i64), ("n_recip", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )

    def rollup(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("host", as_index=False)[["n_out", "n_recip"]].sum()
        n_out = g["n_out"].to_numpy(dtype=np.int64)
        n_recip = g["n_recip"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "host": g["host"].to_numpy(),
                "n_out": n_out,
                "n_recip": n_recip,
                "recip_pm": 1000 * n_recip // n_out,
            }
        )

    return cogroup(
        {"group": (partials, "host")},
        lambda group: rollup(group.to_pandas()),
        pa.schema([("host", pa.string()), ("n_out", i64), ("n_recip", i64), ("recip_pm", i64)]),
        n_buckets=n_buckets,
        coalesce=True,
    )
