"""Sitemap XML parsing (sitemaps.org protocol) for crawl discovery.

A crawl frontier discovers URLs from ``/sitemap.xml`` documents: a
``<urlset>`` lists page URLs (``<url><loc>…</loc></url>``), a
``<sitemapindex>`` lists child sitemaps (``<sitemap><loc>…</loc>``).
The reference repo stops at fetched documents; discovery is the
corpus-scale step in front of its crawl lifecycle operators
(SURVEY.md §8.4 crawl_curate/crawl_refresh). This kernel is the pure
parser: the distributed anti-join against the already-crawled set
lives in :mod:`functions.weburl`.

Parsing rules (the subset real sitemaps exercise):
  - XML comments are invisible — a ``<loc>`` inside ``<!-- -->`` is
    not a discovery;
  - ``<loc>`` values are whitespace-trimmed and may be CDATA-wrapped;
  - namespace prefixes on element names (``<sm:loc>``) are ignored,
    as are attributes (``xmlns=...``);
  - a loc is classified by its nearest open container: ``url`` ->
    a page URL, ``sitemap`` -> a child sitemap reference; bare locs
    outside either container are ignored (malformed).

Pure function, no Ray imports (kernel contract).
"""

from __future__ import annotations

import re

from pdf_extractor_ray.kernel.html_to_md import _bogus_end

__all__ = ["parse_sitemap"]

# comments | close tag | open tag (prefix stripped via group). A tag
# spans at most 1+64+1+64+129+128+4096+1 = 4484 chars, under the html
# scan's _FAIL_JUMP_MARGIN, so its fail-jump (_bogus_end) skips no '<'
# where a tag could match. CDATA is data here: _CDATA_RE unwraps a loc.
_XML_TOKEN_RE = re.compile(
    r"<!--.*?-->"
    r"|<!--.*"  # unterminated comment swallows to EOF (HTML5-style)
    r"|<\s{0,64}(/?)\s{0,64}(?:[A-Za-z0-9_.-]{1,128}:)?"
    r"([A-Za-z0-9_.-]{1,128})[^>]{0,4096}?>",
    re.S,
)
_CDATA_RE = re.compile(r"^\s*<!\[CDATA\[(.*?)\]\]>\s*$", re.S)


def parse_sitemap(xml: str) -> list[tuple[str, str]]:
    """``[(kind, loc), ...]`` in document order; ``kind`` is ``url``
    (page discovery) or ``sitemap`` (child sitemap reference)."""
    out: list[tuple[str, str]] = []
    container: str | None = None
    pending: str | None = None  # inside a <loc>, collecting raw text
    match = _XML_TOKEN_RE.match
    pos = last = 0
    while (lt := xml.find("<", pos)) != -1:
        m = match(xml, lt)
        if m is None:
            pos = _bogus_end(xml, lt, -1)  # CDATA starts no token here
            continue
        if pending is not None and lt > last:
            pending += xml[last:lt]
        closing, name = m.group(1), m.group(2)
        pos = last = m.end()
        if name is None:  # comment token
            continue
        name = name.lower()
        if closing:
            if name == "loc" and pending is not None:
                raw = pending
                cm = _CDATA_RE.match(raw)
                loc = (cm.group(1) if cm else raw).strip()
                if container is not None and loc:
                    out.append((container, loc))
                pending = None
            elif name in ("url", "sitemap"):
                container = None
        else:
            if name in ("url", "sitemap"):
                container = name
                pending = None
            elif name == "loc":
                pending = ""
    return out
