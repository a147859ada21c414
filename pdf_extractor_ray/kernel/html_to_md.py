"""HTML -> markdown/text conversion kernel (SURVEY.md M18 / S2).

Behavioral spec: the reference converts HTML with
``html2text.html2text(html)`` then strips any remaining tags with
``bleach.clean(text, tags=[], strip=True)``
(/root/reference/src/pdf_extractor/llm_integration/utils/corpus_utils.py:138-147).
Neither library is available offline, so this module re-implements the
needed subset:

  - <script>/<style>/<head>/<template>/<noscript> contents dropped
    entirely (the reference test corpus requires the <script> body to be
    absent from the output, /root/reference/tests/corpus/test_corpus.html:16)
  - h1..h6 -> ``#``-style markdown headings
  - p / div / br -> paragraph breaks
  - b/strong -> ``**..**``, i/em -> ``*..*``
  - a -> link text only (boilerplate-strip semantics: hrefs are noise at
    corpus scale)
  - ul/ol/li -> ``- item`` lines
  - table/tr/td/th -> pipe-markdown rows with a ``|---|`` separator after
    the first row (feeds parse_markdown_table downstream)
  - pre > code -> fenced code block, language from ``class="language-x"``
  - img -> ``![alt](src)``
  - HTML comments preserved ONLY when they are page markers
    ``<!-- page: N -->`` (the multi-page convention the markdown
    extractor understands, markdown_extractor.py:373-379)
  - entities unescaped

Implementation note: ``html_blocks`` is the one tag walk — a single
function whose loop makes one anchored regex match per token (the data
run, then the tag / comment / doctype at its end), not the stdlib
HTMLParser, which walks Python-level char by char. Raw-text elements
(script/style/...) are skipped with a case-insensitive scan to their
closing tag, so their content is never tokenized at all. The walk emits
typed blocks: the html lane feeds them straight to the markdown scanner
(markdown_extract.extract_html_rows), and ``html_to_markdown`` only
renders them.
"""

from __future__ import annotations

import re
from html import unescape

__all__ = [
    "html_blocks",
    "render_block",
    "html_to_markdown",
    "strip_html_tags",
    "extract_anchors",
    "extract_head_meta",
    "extract_pub_date",
    "extract_meta_refresh",
    "extract_hreflang",
]

_RAW_TEXT = ("script", "style", "template", "noscript")
# Closing-tag finders for raw-text skipping. Positions MUST be computed
# on the original string: str.lower() can change the string's LENGTH
# (e.g. 'İ' U+0130 lowercases to two codepoints), so a lowercase copy's
# offsets are wrong offsets into the original — found by hypothesis,
# it made skipped <style> content leak into the output.
_RAW_CLOSE_RE = {
    tag: re.compile(rf"<\s*/\s*{tag}", re.I) for tag in _RAW_TEXT
}
_BLOCK_BREAK = {"p", "div", "section", "article", "main", "body", "blockquote"}
_VOID = {"br", "img", "hr", "meta", "link", "input", "col", "area", "base",
         "embed", "param", "source", "track", "wbr"}
_WS_RE = re.compile(r"[ \t\r\f\v]+")
_ANY_WS_RE = re.compile(r"\s+")
_PAGE_COMMENT_RE = re.compile(r"^\s*page:\s*\d+\s*$")
_LANG_CLASS_RE = re.compile(r"language-([\w+-]+)")
_TAG_RE = re.compile(r"<[^>]+>")

# One pass: comments | doctype/decls | closing tags | opening tags.
# The bare `<!--.*` branch handles UNTERMINATED comments: per HTML5 an
# unclosed comment swallows everything to EOF. Without it, `<!--junk`
# fell through to the `<![^>]*>` declaration branch, which stops at the
# first `>` — mis-tokenizing the rest of the document and leaking
# raw-text (script/style) content that a browser would never render
# (found by fuzzing).
# The attribute section is an ATOMIC group with a bounded repeat count:
# without it, a flood of unterminated tags ("<a " * 100k) made the
# engine re-scan to EOF from every candidate '<' — quadratic blowup
# measured in minutes (found by pathological-input timing). Atomic
# kills the backtracking; the 4096-rep cap bounds any single scan
# (real-world tags are far smaller; a longer one degrades to text).
# Whitespace runs and tag names are CAPPED (not unbounded) so that
# every '>'-requiring token form fits inside _FAIL_JUMP_MARGIN bytes of
# its '<' — the bogus-tag fail-jump below relies on that bound, and an
# unbounded `\s*` / name run would let a legal token start inside a
# jumped region. Tags exceeding the caps are treated as bogus data
# (documented grammar bound, matching the 4096 attr cap).
_TOKEN_RE = re.compile(
    r"<!--(.*?)-->"
    r"|<!--.*"
    r"|<!\[CDATA\[.*?\]\]>"
    r"|<![^>]{0,4096}>"
    r"|<\s{0,64}/\s{0,64}([a-zA-Z][a-zA-Z0-9-]{0,512})\s{0,4096}>"
    r"|<\s{0,64}([a-zA-Z][a-zA-Z0-9-]{0,512})((?>\"[^\"]*\"|'[^']*'|[^>\"']){0,4096})>"
    r"|<\?[^>]{0,4096}>",
    re.S,
)
# On a failed anchored attempt, candidates more than this far from the
# next '>' cannot match any '>'-requiring token form either — the scan
# loop jumps them wholesale (see html_to_markdown). Above the largest
# cap sum (close tag: 1+64+1+64+513+4096 = 4739).
_FAIL_JUMP_MARGIN = 4800
_ATTR_RE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:.-]*)\s*=\s*(\"([^\"]*)\"|'([^']*)'|([^\s>]+))"
)


def _collapse(text: str) -> str:
    """``_WS_RE.sub(" ", text)`` with a C-level identity fast path: the
    sub only changes strings containing a tab-class char or a 2+ space
    run, so most single-spaced blocks skip the regex entirely."""
    if (
        "  " in text or "\t" in text or "\r" in text
        or "\f" in text or "\v" in text
    ):
        return _WS_RE.sub(" ", text)
    return text


def _parse_attrs(raw: str) -> dict[str, str]:
    out = {}
    for m in _ATTR_RE.finditer(raw):
        out[m.group(1).lower()] = m.group(3) or m.group(4) or m.group(5) or ""
    return out


# The walk's scanner: one anchored match per token, the data run up to
# the next '<' and then the token there, if one matches. Groups shift
# by one against _TOKEN_RE: 2 comment, 3 close-tag name, 4 open-tag
# name, 5 attributes (all None for data only, or a declaration, CDATA,
# processing instruction or unterminated comment).
_SCAN_RE = re.compile(r"([^<]*)(?:" + _TOKEN_RE.pattern + ")?", re.S)
_RAW = frozenset(_RAW_TEXT)
_CELL = frozenset(("td", "th"))
_HEADING = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))
_MARK = {"b": "**", "strong": "**", "i": "*", "em": "*"}


def _inline_text(inline: list[str]) -> str:
    """The collapsed, stripped text of an inline run, which it empties
    (pure whitespace, the common inter-tag case, skips the regex)."""
    joined = "".join(inline)
    inline.clear()
    return "" if joined.isspace() else _collapse(joined).strip()


def html_blocks(html: str) -> list[tuple[str, str, object]]:
    """The tag walk: an HTML document as its markdown blocks, in order.

    Each block is ``(kind, text, extra)``:

      ``("p", text, None)``        paragraph (an inline run, collapsed)
      ``("h", text, level)``       heading; level 0 for a ``</hN>`` that
                                   closes no open heading
      ``("li", text, None)``       list item
      ``("table", md, rows)``      pipe table: its markdown and cell rows
      ``("code", code, lang)``     ``<pre>`` body, ``language-x`` class
      ``("img", alt, src)``        image
      ``("page", comment, None)``  ``<!-- page: N -->`` (comment text)

    :func:`render_block` gives a block's markdown. The tag dispatch
    tests the most frequent tags first: table cells, then p, li, tr.
    """
    blocks: list[tuple[str, str, object]] = []
    inline: list[str] = []  # the open paragraph / heading / item run
    skip = 0  # <head> depth; everything inside is dropped
    level = 0  # open heading level
    in_pre = in_table = in_cell = False
    pre_parts: list[str] = []
    lang = ""
    cells: list[str] = []  # the open table row
    rows: list[list[str]] = []
    scan = _SCAN_RE.match
    pos = 0
    n = len(html)
    # A token's effects — the block kind its inline run becomes (fx: the
    # heading level), a block added after it, an inline marker — apply at
    # the top of the next turn, where a self-closing tag's implied close
    # also comes back through the close dispatch without a scan.
    flush = add = mark = fx = implied_close = None
    while True:
        if flush and inline:
            text = _inline_text(inline)
            if text:
                blocks.append((flush, text, fx))
        if add:
            blocks.append(add)
        if mark:
            if in_pre:
                pre_parts.append(mark)
            elif in_cell and cells:
                cells[-1] += mark
            elif inline or mark != "\n":
                inline.append(mark)
        flush = add = mark = fx = None
        if implied_close is None:
            if pos >= n:
                break
            m = scan(html, pos)
            text, comment, close, name, attrs = m.groups()
            end = m.end()
            lt = pos + len(text)
            if end == lt:
                # No token at lt. If no '>' remains anywhere, no token can
                # ever match again (every form except the unterminated-
                # comment branch needs one, and that branch matches on
                # sight) — the rest is data, which keeps tag-flood inputs
                # linear instead of retrying a long scan at every '<'.
                gt = html.find(">", lt) if lt < n else -1
                if gt == -1:
                    text, pos = html[pos:], n
                else:
                    # Bogus-tag recovery with a bounded jump: every
                    # remaining candidate further than the margin from the
                    # next '>' would fail the same way (all token forms
                    # except comments and CDATA need a '>' within their
                    # caps), so skip them as data in one step. Comments
                    # match on sight and CDATA sections close on ']]>'
                    # (possibly far past gt), so never jump past a '<!--'
                    # or a '<![CDATA[' start.
                    jump = gt - _FAIL_JUMP_MARGIN
                    nxt = html.find("<!--", lt + 1, gt)
                    if nxt != -1:
                        jump = min(jump, nxt)
                    nxt = html.find("<![CDATA[", lt + 1, gt)
                    if nxt != -1:
                        jump = min(jump, nxt)
                    jump = max(jump, lt + 1)
                    text, pos = html[pos:jump], jump
                name = close = comment = None
            else:
                pos = end
            if text and not skip:
                if "&" in text:
                    text = unescape(text)
                if in_pre:
                    pre_parts.append(text)
                elif in_cell and cells:
                    cells[-1] += text
                elif inline or not text.isspace():
                    # leading whitespace would be stripped at flush time
                    # anyway; dropping it keeps the run empty across
                    # inter-tag gaps
                    inline.append(text)
            if name is not None:
                tag = name.lower()
                if tag in _RAW:
                    # skip raw content wholesale: find the closing tag
                    raw_end = _RAW_CLOSE_RE[tag].search(html, pos)
                    if raw_end is None:
                        break
                    gt = html.find(">", raw_end.end())
                    pos = n if gt == -1 else gt + 1
                elif tag == "head":
                    skip += 1
                elif skip:
                    pass
                elif tag in _CELL:
                    if in_table:
                        cells.append("")
                        in_cell = True
                elif tag == "p" or tag == "li":
                    flush = "p"
                elif tag == "tr":
                    if in_table:
                        cells = []
                elif tag in _HEADING:
                    flush = "p"
                    level = int(tag[1])
                elif tag in _MARK:
                    mark = _MARK[tag]
                elif tag == "br":
                    mark = "\n"
                elif tag == "pre":
                    flush = "p"
                    in_pre = True
                    pre_parts = []
                    lang = ""
                elif tag == "code":
                    if in_pre:
                        cm = _LANG_CLASS_RE.search(
                            _parse_attrs(attrs).get("class", "")
                        )
                        if cm:
                            lang = cm.group(1)
                    else:
                        mark = "`"
                elif tag == "img":
                    a = _parse_attrs(attrs)
                    alt = unescape(a.get("alt", "")).strip()
                    src = unescape(a.get("src", "")).strip()
                    # an attribute value containing '<' means the tag
                    # swallowed mis-nested markup (e.g. src='...<script>
                    # ...'); emitting it would resurface content a
                    # browser never renders as text — the img is junk
                    if "<" not in alt and "<" not in src:
                        flush = "p"
                        add = ("img", alt, src)
                elif tag == "table":
                    flush = "p"
                    in_table = True
                    rows = []
                elif tag in _BLOCK_BREAK or tag == "ul" or tag == "ol":
                    flush = "p"
                if (
                    attrs
                    and attrs.rstrip().endswith("/")
                    and tag not in _VOID
                    and tag not in _RAW
                ):
                    implied_close = tag
                continue
            if close is None:
                if comment is not None and not skip and _PAGE_COMMENT_RE.match(comment):
                    flush = "p"
                    add = ("page", comment, None)
                continue
            tag = close.lower()
        else:
            tag, implied_close = implied_close, None
        if tag == "head":
            skip = max(0, skip - 1)
        elif skip:
            pass
        elif tag in _CELL:
            in_cell = False
        elif tag == "p":
            flush = "p"
        elif tag == "li":
            flush = "li"
        elif tag == "tr":
            if in_table:
                if cells:
                    rows.append([_collapse(c).strip() for c in cells])
                cells = []
                # a </tr> with an unclosed <td> must end the cell too, or
                # later text would index into the emptied cell list
                in_cell = False
        elif tag in _HEADING:
            flush = "h"
            fx = level
            level = 0
        elif tag in _MARK:
            mark = _MARK[tag]
        elif tag == "pre":
            in_pre = False
            add = ("code", "".join(pre_parts).strip("\n"), lang)
            pre_parts = []
        elif tag == "code":
            if not in_pre:
                mark = "`"
        elif tag == "table":
            in_table = in_cell = False
            if rows:
                md = ["| " + " | ".join(r) + " |" for r in rows]
                md.insert(1, "|" + "---|" * len(rows[0]))
                add = ("table", "\n".join(md), rows)
            rows = []
        elif tag in _BLOCK_BREAK or tag == "ul" or tag == "ol":
            flush = "p"
    if inline:
        text = _inline_text(inline)
        if text:
            blocks.append(("p", text, None))
    return blocks


def render_block(kind: str, text: str, extra) -> str:
    """One :func:`html_blocks` block as markdown."""
    if kind == "p" or kind == "table":
        return text
    if kind == "h":
        return "#" * extra + " " + text
    if kind == "li":
        return "- " + text
    if kind == "code":
        return f"```{extra}\n{text}\n```"
    if kind == "img":
        return f"![{text}]({extra})"
    return f"<!--{text}-->"


def html_to_markdown(html: str) -> str:
    """Convert an HTML document to deterministic markdown text: the
    :func:`html_blocks` of the one tag walk, rendered and joined by a
    blank line."""
    return "\n\n".join([render_block(*b) for b in html_blocks(html)])


def strip_html_tags(text: str) -> str:
    """Remove any residual angle-bracket tags (the bleach ``tags=[]``
    pass of corpus_utils.py:143)."""
    return _TAG_RE.sub("", text)


def extract_anchors(html: str) -> list[tuple[str, str]]:
    """``(href, anchor_text)`` for every ``<a href=...>`` in document
    order. Uses the same tokenizer and raw-text skipping as
    :func:`html_to_markdown`, so ``<script>``/``<style>`` contents are
    invisible (a decoy anchor inside a script body is NOT a link) and
    inner markup is stripped from the anchor text (only data segments
    are collected, whitespace-collapsed). Anchors without an ``href``
    attribute are ignored; entities are left as-is (the tokenizer
    contract throughout this module)."""
    out: list[tuple[str, str]] = []
    pos = 0
    href: str | None = None
    parts: list[str] = []
    n = len(html)
    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            if href is not None:
                parts.append(html[pos:])
            break
        if m.start() > pos and href is not None:
            parts.append(html[pos : m.start()])
        close_name, open_name, open_attrs = m.group(2), m.group(3), m.group(4)
        pos = m.end()
        if open_name:
            tag = open_name.lower()
            if tag in _RAW_TEXT:
                mc = _RAW_CLOSE_RE[tag].search(html, pos)
                pos = mc.end() if mc else n
            elif tag == "a":
                attrs = _parse_attrs(open_attrs or "")
                href = attrs.get("href")
                parts = []
        elif close_name and close_name.lower() == "a":
            if href is not None:
                text = _collapse(
                    _ANY_WS_RE.sub(" ", "".join(parts))
                ).strip()
                out.append((href, text))
            href = None
            parts = []
    return out


def extract_head_meta(html: str) -> dict:
    """Head metadata for crawl curation: first ``<title>`` text, the
    canonical URL (``<link rel=canonical href=...>``), and the
    ``robots`` / ``description`` / ``og:title`` meta values —
    first-occurrence-wins for each field, matching browser behavior.

    Same tokenizer and raw-text skipping as :func:`html_to_markdown`:
    a decoy ``<title>`` inside a ``<script>`` body or an HTML comment
    is invisible; attribute order, quote style (single/double/bare)
    and tag case don't matter (``_parse_attrs``); entities are left
    as-is (the tokenizer contract throughout this module). Missing
    fields come back as ``None``.
    """
    out = {
        "title": None,
        "canonical": None,
        "robots": None,
        "description": None,
        "og_title": None,
    }
    pos = 0
    title_parts: list[str] | None = None
    n = len(html)
    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            break
        if m.start() > pos and title_parts is not None:
            title_parts.append(html[pos : m.start()])
        close_name, open_name, open_attrs = m.group(2), m.group(3), m.group(4)
        pos = m.end()
        if open_name:
            tag = open_name.lower()
            if tag in _RAW_TEXT:
                mc = _RAW_CLOSE_RE[tag].search(html, pos)
                pos = mc.end() if mc else n
            elif tag == "title" and out["title"] is None:
                title_parts = []
            elif tag == "meta":
                attrs = _parse_attrs(open_attrs or "")
                key = (attrs.get("name") or attrs.get("property") or "").lower()
                content = attrs.get("content")
                if content is None:
                    continue
                if key == "robots" and out["robots"] is None:
                    out["robots"] = content
                elif key == "description" and out["description"] is None:
                    out["description"] = content
                elif key == "og:title" and out["og_title"] is None:
                    out["og_title"] = content
            elif tag == "link":
                attrs = _parse_attrs(open_attrs or "")
                rel = (attrs.get("rel") or "").lower()
                if rel == "canonical" and out["canonical"] is None:
                    out["canonical"] = attrs.get("href")
        elif close_name and close_name.lower() == "title":
            if title_parts is not None:
                out["title"] = _collapse(
                    _ANY_WS_RE.sub(" ", "".join(title_parts))
                ).strip()
                title_parts = None
    return out


# -- publication-date extraction (htmldate-style cascade) -------------
#
# Behavioral spec: trafilatura/htmldate recover a publication date from
# web pages by a fixed-priority cascade — machine-readable metadata
# first (article:published_time / name=date / dcterms.date /
# itemprop=datePublished), then a visible <time datetime=...> element,
# then a /YYYY/MM/DD/ segment in the URL path. The reference repo's
# metadata extractor keeps a per-document `date` field with no
# populated source (SURVEY §2.2 M9); this kernel supplies the web-side
# population rule. Priority is by SOURCE CLASS (meta > time > url),
# first occurrence within a class, regardless of document order — a
# <time> tag appearing before the meta cannot shadow it.

_DATE_META_KEYS = frozenset(
    ("article:published_time", "date", "dcterms.date", "datepublished")
)
_ISO_PREFIX_RE = re.compile(r"^\s*(\d{4})-(\d{2})-(\d{2})")
_URL_DATE_RE = re.compile(r"/((?:19|20)\d{2})/(\d{1,2})/(\d{1,2})(?=/|$)")
_DAYS_IN_MONTH = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _valid_ymd(y: int, mo: int, da: int) -> bool:
    """Sanity window for web publication dates. February accepts 29
    unconditionally (leap arithmetic buys nothing for a plausibility
    gate; a false Feb-29 is as plausible as the page claims)."""
    return (
        1990 <= y <= 2035
        and 1 <= mo <= 12
        and 1 <= da <= _DAYS_IN_MONTH[mo - 1]
    )


def _iso_or_none(value: str | None) -> str | None:
    if not value:
        return None
    m = _ISO_PREFIX_RE.match(value)
    if m is None:
        return None
    y, mo, da = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not _valid_ymd(y, mo, da):
        return None
    return f"{y:04d}-{mo:02d}-{da:02d}"


def extract_pub_date(html: str, url: str = "") -> tuple[str, str]:
    """``(iso_date, source)`` for a page, ``("", "")`` when nothing
    matches. ``source`` is one of ``meta`` / ``time`` / ``url``.

    Same tokenizer and raw-text skipping as :func:`extract_head_meta`:
    a date-bearing meta tag inside a ``<script>`` body or an HTML
    comment is invisible; attribute order, quote style and tag case
    don't matter. Meta values and ``datetime`` attributes may carry a
    full ISO timestamp — only the leading ``YYYY-MM-DD`` is taken, and
    implausible dates (outside 1990..2035 or a nonexistent day) are
    rejected so the cascade can fall through to the next source.
    """
    meta_date: str | None = None
    time_date: str | None = None
    pos = 0
    n = len(html)
    while pos < n and meta_date is None:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            break
        open_name, open_attrs = m.group(3), m.group(4)
        pos = m.end()
        if not open_name:
            continue
        tag = open_name.lower()
        if tag in _RAW_TEXT:
            mc = _RAW_CLOSE_RE[tag].search(html, pos)
            pos = mc.end() if mc else n
        elif tag == "meta":
            attrs = _parse_attrs(open_attrs or "")
            key = (
                attrs.get("property")
                or attrs.get("name")
                or attrs.get("itemprop")
                or ""
            ).lower()
            if key in _DATE_META_KEYS:
                meta_date = _iso_or_none(attrs.get("content"))
        elif tag == "time" and time_date is None:
            time_date = _iso_or_none(
                _parse_attrs(open_attrs or "").get("datetime")
            )
    if meta_date:
        return meta_date, "meta"
    if time_date:
        return time_date, "time"
    mu = _URL_DATE_RE.search(url)
    if mu:
        y, mo, da = int(mu.group(1)), int(mu.group(2)), int(mu.group(3))
        if _valid_ymd(y, mo, da):
            return f"{y:04d}-{mo:02d}-{da:02d}", "url"
    return "", ""


# -- meta-refresh redirect extraction ---------------------------------

_REFRESH_CONTENT_RE = re.compile(
    r"^\s*(\d{1,9})\s*(?:;\s*url\s*=\s*['\"]?([^'\"\s]+)['\"]?\s*)?$",
    re.I,
)


def extract_meta_refresh(html: str) -> tuple[int, str]:
    """First ``<meta http-equiv=refresh>`` directive as ``(delay_s,
    target_url)``; ``(-1, "")`` when absent. A delay-only refresh
    (no ``url=``) reloads the same page and comes back as
    ``(delay, "")``. Same tokenizer and raw-text skipping as
    :func:`extract_head_meta` — script/comment decoys invisible,
    attribute order / quote style / case immaterial. Meta-refresh is
    the in-document leg of the crawl redirect table: rows it emits
    feed :func:`functions.webgraph.resolve_redirects` exactly like
    HTTP 3xx rows."""
    pos = 0
    n = len(html)
    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            break
        open_name, open_attrs = m.group(3), m.group(4)
        pos = m.end()
        if not open_name:
            continue
        tag = open_name.lower()
        if tag in _RAW_TEXT:
            mc = _RAW_CLOSE_RE[tag].search(html, pos)
            pos = mc.end() if mc else n
        elif tag == "meta":
            attrs = _parse_attrs(open_attrs or "")
            if (attrs.get("http-equiv") or "").lower() != "refresh":
                continue
            cm = _REFRESH_CONTENT_RE.match(attrs.get("content") or "")
            if cm is None:
                continue
            return int(cm.group(1)), cm.group(2) or ""
    return -1, ""


def extract_hreflang(html: str) -> list[tuple[str, str]]:
    """``(lang, href)`` per ``<link rel=alternate hreflang=...>`` in
    document order — the page's declared language-variant set (the
    signal international-SEO dedup clusters on). ``rel`` is matched as
    a whitespace-separated token list per the HTML spec, lang tags are
    lowercased; same tokenizer contract as the other head harvesters
    (script/comment decoys invisible, attribute order/quoting/case
    immaterial)."""
    out: list[tuple[str, str]] = []
    pos = 0
    n = len(html)
    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            break
        open_name, open_attrs = m.group(3), m.group(4)
        pos = m.end()
        if not open_name:
            continue
        tag = open_name.lower()
        if tag in _RAW_TEXT:
            mc = _RAW_CLOSE_RE[tag].search(html, pos)
            pos = mc.end() if mc else n
        elif tag == "link":
            attrs = _parse_attrs(open_attrs or "")
            rel = (attrs.get("rel") or "").lower().split()
            lang = attrs.get("hreflang")
            href = attrs.get("href")
            if "alternate" in rel and lang and href:
                out.append((lang.lower(), href))
    return out


# -- JSON-LD structured-data extraction -------------------------------
#
# Behavioral spec: search engines and curation pipelines read
# schema.org entities from ``<script type="application/ld+json">``
# blocks (Google structured-data guidelines; trafilatura's
# extract_metadata JSON-LD branch).  The reference repo's metadata
# extractor (SURVEY §2.2 M9) keeps per-document title/date/author
# fields with no web-side population rule; this kernel supplies it.

_LD_JSON_TYPE = "application/ld+json"


def _ld_first_name(v) -> str | None:
    """``author``/``name`` normalization: an object ``{"name": ...}``,
    a bare string, or a list of either — first name wins (Google's
    multiple-author rule)."""
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        n = v.get("name")
        return n if isinstance(n, str) else None
    if isinstance(v, list):
        for item in v:
            n = _ld_first_name(item)
            if n is not None:
                return n
    return None


def extract_json_ld(html: str) -> tuple[list[dict], int]:
    """Schema.org entities from ``application/ld+json`` script blocks,
    in document order, plus the count of syntactically-invalid blocks.

    Media-type match is case-insensitive and ignores RFC 2045
    parameters (``Application/LD+JSON; charset=utf-8`` matches).
    Script bodies are raw text — a decoy block inside an HTML comment
    or a ``text/javascript`` script is invisible, and entity values
    are JSON-unescaped but never HTML-decoded (script CDATA contract,
    same tokenizer as :func:`html_to_markdown`).  A top-level array
    and the ``@graph`` envelope both flatten to their member entities;
    non-dict members are skipped.  Per entity: ``type`` (``@type``,
    first of a list), ``name`` (``headline`` wins over ``name`` —
    Article convention), ``date_published``, ``author`` (object /
    string / list-of-either, first name — :func:`_ld_first_name`).
    """
    import json

    entities: list[dict] = []
    n_bad = 0
    pos = 0
    n = len(html)
    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        if m is None:
            break
        open_name, open_attrs = m.group(3), m.group(4)
        pos = m.end()
        if not open_name:
            continue
        tag = open_name.lower()
        if tag not in _RAW_TEXT:
            continue
        mc = _RAW_CLOSE_RE[tag].search(html, pos)
        body_end = mc.start() if mc else n
        body = html[pos:body_end]
        pos = mc.end() if mc else n
        if tag != "script":
            continue
        attrs = _parse_attrs(open_attrs or "")
        mtype = (attrs.get("type") or "").split(";", 1)[0].strip().lower()
        if mtype != _LD_JSON_TYPE:
            continue
        try:
            doc = json.loads(body)
        except ValueError:
            n_bad += 1
            continue
        if isinstance(doc, list):
            members = doc
        elif isinstance(doc, dict) and isinstance(doc.get("@graph"), list):
            members = doc["@graph"]
        else:
            members = [doc]
        for ent in members:
            if not isinstance(ent, dict):
                continue
            etype = ent.get("@type")
            if isinstance(etype, list):
                etype = etype[0] if etype else None
            name = ent.get("headline")
            if not isinstance(name, str):
                name = ent.get("name")
                if not isinstance(name, str):
                    name = None
            date = ent.get("datePublished")
            entities.append(
                {
                    "type": etype if isinstance(etype, str) else None,
                    "name": name,
                    "date_published": date if isinstance(date, str) else None,
                    "author": _ld_first_name(ent.get("author")),
                }
            )
    return entities, n_bad
