"""Markdown -> element-stream extraction kernel (SURVEY.md M1-M6).

Behavioral spec: /root/reference/src/pdf_extractor/markdown_extractor.py:200-642
(`extract_from_markdown`). Re-implemented from scratch as a line-based
block scanner (markdown-it is unavailable offline; the reference used its
token stream only as a block segmenter). The scanner is one state
machine with two feeds: the lines of a markdown string, or typed blocks
one at a time. Every lane of ``extract.extract_document`` takes its
element rows from it: the text lane feeds lines
(``extract_text_rows``), the html lane the tag walk's blocks
(``extract_html_rows``), and the pdf lane its page walk's blocks
(``pdfshape.extract_pdf_document``). ``extract_from_markdown_text``
feeds lines and keeps the reference's envelope dicts, for the marker
path and its options. Semantics kept:

  - text blocks: consecutive paragraphs / list items accumulate into ONE
    text element; a gap of >= 2 blank lines flushes (the reference's
    ``token.map[0] > last_line + 1`` rule, markdown_extractor.py:317-319)
  - headings: update the section hierarchy; explicit ``N.N.`` numeric
    prefixes are honored, otherwise per-level auto-counters numbered with
    counters below the level reset (markdown_extractor.py:337-357)
  - section hierarchy: a *correct* hierarchical stack (path of titles
    root -> current), md5 title hashes — the fixture-validated behavior
    (SURVEY.md §1.4; the reference's importable fallback was a flat list)
  - page markers ``<!-- page: N -->`` switch current_page and flush
    (markdown_extractor.py:373-379)
  - images ``![alt](src)`` on their own line flush text and emit an
    image element (markdown_extractor.py:383-435)
  - pipe-table runs parse via parse_markdown_table; invalid tables are
    dropped silently (markdown_extractor.py:437-519)
  - fenced code emits a code element with code_type from the fence info
    string (markdown_extractor.py:524-562)
  - every element carries the envelope {type, content, line_span,
    token_count, section_id, section_path, section_hash_path, page,
    metadata} (markdown_extractor.py:289-304)

Determinism deltas vs the reference (deliberate, SURVEY.md §7.4):
  - ``extraction_date`` is the caller-supplied warc_ts, never wall clock
  - token counts use the deterministic tokenizer in textutils.py
  - heading elements ARE emitted (the golden fixture
    BHT_CV32A65X_expected.json contains heading nodes with token counts;
    the markdown_extractor path only tracked hierarchy)
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring as _json_str
from typing import Any, Optional

from pdf_extractor_ray.kernel.html_to_md import html_blocks, render_block
from pdf_extractor_ray.kernel.textutils import (
    clean_section_title,
    fill_token_counts,
    hash_string,
    token_count_cl100k,
)

__all__ = [
    "SectionHierarchy",
    "parse_markdown_table",
    "parse_markdown_image",
    "extract_from_markdown_text",
    "extract_text_rows",
    "extract_html_rows",
]

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_SECTION_NUM_RE = re.compile(r"(\d+(?:\.\d+)*\.?)\s*(.*)")
_PAGE_MARKER_RE = re.compile(r"<!--\s*page:\s*(\d+)\s*-->")
_IMAGE_RE = re.compile(r"!\[(.*?)\]\((.*?)\)")
_TABLE_LINE_RE = re.compile(r"\|.*\|")
_TABLE_SEP_CELL_RE = re.compile(r"[-: ]+")
_LIST_ITEM_RE = re.compile(r"^(\s*)(?:[-*+]|\d{1,9}[.)])\s+(.*)$")
_FENCE_RE = re.compile(r"^(`{3,}|~{3,})\s*(.*)$")
# commonmark structures the markdown-it path parses and this scanner
# must agree on (tests/test_commonmark_parity.py):
_SETEXT_RE = re.compile(r"^(=+|-+)\s*$")
# commonmark html_block start (kinds 1-6 union, approximated): an
# open/close tag, comment, declaration, CDATA, or processing
# instruction at line start. markdown-it emits an html_block token the
# reference walk has NO branch for — the whole block (through the next
# blank line) vanishes from the element stream without flushing text.
_HTML_BLOCK_RE = re.compile(
    r"<(?:/?[A-Za-z][A-Za-z0-9-]*(?:[\s/>]|$)|!--|![A-Za-z]|!\[CDATA\[|\?)"
)
# link reference definition '[label]: dest' — consumed by the
# commonmark parser itself (no token at all reaches the reference
# walk); single-line form only, and only at a block start (a ref def
# cannot interrupt a paragraph).
_LINK_DEF_RE = re.compile(r"\[[^\]\[]+\]:\s*\S+")
_HR_RE = re.compile(r"^(?:-\s*){3,}$|^(?:\*\s*){3,}$|^(?:_\s*){3,}$")
_BLOCKQUOTE_RE = re.compile(r"^(?:>\s?)+")
_INDENT_CODE_RE = re.compile(r"^(?:    |\t)(.*)$")


def _indent_width(line: str) -> int:
    """Leading-indent width in columns (commonmark tab stop = 4)."""
    w = 0
    for ch in line:
        if ch == " ":
            w += 1
        elif ch == "\t":
            w += 4 - (w % 4)
        else:
            break
    return w


def _strip_indent_cols(line: str, cols: int) -> str:
    """Remove ``cols`` columns of leading indentation."""
    w = 0
    i = 0
    for ch in line:
        if w >= cols:
            break
        if ch == " ":
            w += 1
        elif ch == "\t":
            w += 4 - (w % 4)
        else:
            break
        i += 1
    return line[i:]

# Paired inline emphasis/code markers, stripped by the marker-style
# path (marker's JSON blocks carry plain text + style spans; the
# markers never reach its element texts — marker_processor.py).
_EMPH_RES = (
    re.compile(r"\*\*(.+?)\*\*", re.S),
    re.compile(r"__(.+?)__", re.S),
    re.compile(r"\*([^*\n]+)\*"),
    re.compile(r"(?<![A-Za-z0-9_])_([^_\n]+)_(?![A-Za-z0-9_])"),
    re.compile(r"`([^`\n]+)`"),
)


def _strip_emphasis(text: str) -> str:
    for rx in _EMPH_RES:
        text = rx.sub(r"\1", text)
    return text


class SectionHierarchy:
    """Hierarchical section path: a stack of (level, display, hash).

    ``update`` pops every entry at the same or deeper level, then pushes
    the new section, so ``get_titles()`` returns the root->current path
    (single entry for an h1-only document, matching the golden fixture).
    """

    def __init__(self) -> None:
        self._stack: list[tuple[int, str, str]] = []

    def update(self, number: str, title: str, level: int) -> None:
        while self._stack and self._stack[-1][0] >= level:
            self._stack.pop()
        display = f"{number}. {title}" if number else title
        self._stack.append((level, display, hash_string(title)))

    def get_titles(self) -> list[str]:
        return [entry[1] for entry in self._stack]

    def get_hashes(self) -> list[str]:
        return [entry[2] for entry in self._stack]


def parse_markdown_table(content: str) -> Optional[dict[str, Any]]:
    """``| a | b |`` header + ``|---|---|`` separator + rows -> {headers,
    rows}; rows whose arity differs from the header are dropped; None on
    any structural failure."""
    lines = [line.strip() for line in content.strip().split("\n") if line.strip()]
    if len(lines) < 2:
        return None
    headers = [h.strip() for h in lines[0].strip("|").split("|") if h.strip()]
    if not headers:
        return None
    separator = lines[1].strip("|").split("|")
    if not all(_TABLE_SEP_CELL_RE.fullmatch(s.strip()) for s in separator):
        return None
    rows = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == len(headers):
            rows.append(cells)
    return {"headers": headers, "rows": rows}


def parse_markdown_image(content: str) -> Optional[dict[str, str]]:
    """``![alt](src)`` -> {alt, src}; None when not an image."""
    match = _IMAGE_RE.match(content.strip())
    if match:
        return {"alt": match.group(1).strip(), "src": match.group(2).strip()}
    return None


def _meta_json(etype: str, meta: dict[str, Any]) -> str:
    """``json.dumps(meta, sort_keys=True, ensure_ascii=False)`` for the
    five fixed metadata shapes of an element without marker joins —
    written out with the encoder's own string escaper."""
    if etype == "text":
        return "{}"
    if etype == "heading":
        number = _json_str(meta["section_number"])
        return f'{{"level": {meta["level"]}, "section_number": {number}}}'
    if etype == "code":
        ct, n = _json_str(meta["code_type"]), meta["code_metadata"]["length"]
        meta = f'{{"language": {ct}, "length": {n}}}'
        return f'{{"code_metadata": {meta}, "code_type": {ct}}}'
    if etype == "image":
        alt, src = _json_str(meta["alt"]), _json_str(meta["src"])
        return f'{{"alt": {alt}, "source": "markdown", "src": {src}}}'
    table = meta["table"]
    rows = ", ".join("[" + ", ".join(map(_json_str, r)) + "]" for r in table["rows"])
    return (
        '{"table": {"headers": [' + ", ".join(map(_json_str, table["headers"]))
        + '], "rows": [' + rows + ']}, "validation": {"issues": [], '
        '"source": "markdown", "valid": true}}'
    )


# First characters that can make a line more than paragraph text:
# blockquote, fence, page marker / raw html, link definition, heading,
# thematic break, image, table, list item.
_TRIGGER = frozenset(">`~<[#-*_!|+ 0123456789")
# multi-line blocks that stay open across runs of lines
_FENCE_MODE, _INDENT_MODE, _HTML_MODE = 1, 2, 3


class _Scanner:
    """The line scanner as a state machine.

    :meth:`lines` classifies a run of markdown lines; its one lookahead
    (a setext underline) stays inside the run, and the multi-line blocks
    (fenced / indented code, raw html) are modes that stay open across
    runs. :meth:`block` feeds one tag-walk block. ``rows=True`` emits
    ``ELEMENT_FIELDS`` rows (kernel/extract.py), not envelope dicts.
    Elements leave it uncounted (``token_count`` None): the callers
    count a whole list at once (``_count``).
    """

    def __init__(
        self, url="", repo_link="", extraction_date="", table_cache=None,
        marker_tables=None, marker_images=None, default_code_type="md",
        marker_style=False, rows=False,
    ) -> None:  # the options of extract_from_markdown_text, plus rows
        self.out: list[dict[str, Any]] = []
        self.rows = rows
        self.url, self.repo_link = url, repo_link
        self.extraction_date = extraction_date
        self.table_cache = table_cache
        self.marker_tables, self.marker_images = marker_tables, marker_images
        self.default_code_type = default_code_type
        self.marker_style = marker_style
        self.flush_gap = 1 if marker_style else 2
        self.hierarchy = SectionHierarchy()
        self.section_counts = [0] * 6
        self.page = 1
        self.text: list[str] = []  # accumulated text-element lines
        self.text_start = self.text_last = 0
        # The current blank-free paragraph run inside ``text`` — a
        # setext underline promotes exactly this run (commonmark binds
        # the underline to the whole preceding paragraph, and
        # markdown-it hands the reference its full multi-line inline
        # content): its index in ``text``, its first source line and
        # ``text_last`` before it began.
        self.para_idx = self.para_lineno = self.para_prev_last = 0
        # a thematic break ends the paragraph without flushing text
        # (the reference walk has no hr branch)
        self.hr_pending = False
        # Active list context: content column of the most recent list
        # item (None outside lists). Inside a list, commonmark moves the
        # indented-code threshold to content-col + 4 — a 4-space line
        # after a blank is a PARAGRAPH of the loose item, not code — and
        # markdown-it hands the reference that paragraph's inline
        # content, which the <2-line-gap rule then merges into the
        # item's text.
        self.list_ctx: Optional[int] = None
        self.blank_run = 0  # blank lines seen since the last content line
        self.table: Optional[list[str]] = None  # lines of the open table
        self.table_start = 0
        self.mode: Optional[int] = None  # the open multi-line block
        self.code: Optional[list[str]] = None
        self.code_start = 0
        self.code_arg: Any = None  # fence marker / indented strip columns
        self.code_type = ""

    def _emit(
        self, etype: str, content: str, start: int, end: int, meta: dict[str, Any]
    ) -> None:
        h = self.hierarchy
        if self.rows:  # in ELEMENT_FIELDS order
            self.out.append({
                "type": etype, "content": content, "page": self.page,
                "line_span": [start, end], "token_count": None,
                "section_id": hash_string(content),
                "section_path": h.get_titles(),
                "section_hash_path": h.get_hashes(),
                "metadata_json": _meta_json(etype, meta),
            })
            return
        self.out.append({
            "file_path": self.url, "repo_link": self.repo_link,
            "extraction_date": self.extraction_date, "type": etype,
            "content": content, "line_span": [start, end],
            "token_count": None,
            "section_id": hash_string(content),
            "section_path": h.get_titles(),
            "section_hash_path": h.get_hashes(),
            "page": self.page, "metadata": meta,
        })

    def _flush_text(self) -> None:
        if self.text:
            content = "\n".join(self.text).strip()
            if self.marker_style:
                content = _strip_emphasis(content)
            if content:
                self._emit("text", content, self.text_start, self.text_last, {})
            self.text = []

    def _table(
        self, content: str, start: int, end: int, grid: Optional[list] = None
    ) -> None:
        """A pipe table; ``grid``, the cell rows ``content`` was rendered
        from when no cell holds a '|' or a newline, gives its parse."""
        if grid is None:
            table_data = parse_markdown_table(content)
        else:  # the parser strips cells, drops empty headers and ragged rows
            headers = [h for h in map(str.strip, grid[0]) if h]
            rows = [
                [c.strip() for c in r] for r in grid[1:] if len(r) == len(headers)
            ]
            table_data = {"headers": headers, "rows": rows} if headers else None
        if table_data is None:
            return
        validation: dict[str, Any] = {"valid": True, "issues": [], "source": "markdown"}
        if self.marker_tables:
            # J1: first marker table on the same page enriches the
            # element (markdown_extractor.py:460-472).
            matching = next(
                (t for t in self.marker_tables if t.get("page") == self.page), None
            )
            if matching is not None:
                if matching.get("table_data") is not None:
                    table_data["marker_data"] = matching["table_data"]
                validation["source"] = "marker_json"
                if matching.get("bbox") is not None:
                    validation["bbox"] = list(matching["bbox"])
        if self.table_cache:
            # Semi-join vs the cached table records for this document:
            # valid iff any cache entry on the same page overlaps
            # (IoU > 0.5) or carries no bbox (markdown_extractor.py:474-493).
            from pdf_extractor_ray.kernel.tables import calculate_iou

            bbox = validation.get("bbox")
            ok = any(
                t.get("page") == self.page
                and (
                    bbox is None
                    or t.get("bbox") is None
                    or calculate_iou(list(t["bbox"]), list(bbox)) > 0.5
                )
                for t in self.table_cache
            )
            if not ok:
                validation["issues"].append("No matching table in table_cache")
                validation["valid"] = False
        self._emit(
            "table", content, start, end,
            {"table": table_data, "validation": validation},
        )

    def _end_table(self, end: int) -> None:
        if self.table is not None:
            self._table("\n".join(self.table), self.table_start, end)
            self.table = None

    def _heading(self, raw_title: str, level: int, start: int, end: int) -> None:
        counts = self.section_counts
        num_match = _SECTION_NUM_RE.match(raw_title)
        if num_match:
            section_number = num_match.group(1).rstrip(".")
            cleaned = clean_section_title(
                num_match.group(2) or "Unnamed Section", to_ascii=True
            )
        else:
            cleaned = clean_section_title(raw_title, to_ascii=True)
            for j in range(level, len(counts)):
                counts[j] = 0
            counts[level - 1] += 1
            section_number = ".".join(str(c) for c in counts[:level] if c > 0)
        if self.marker_style:
            # marker path: heading text is the raw (cleaned) title —
            # auto-numbers live only in metadata, and the section path
            # carries the title as written (fixture headings
            # '4.1.5.4. BHT ...' and 'State Diagram')
            display = (
                clean_section_title(raw_title, to_ascii=True)
                if num_match else cleaned
            )
            self.hierarchy.update("", display, level)
        else:
            self.hierarchy.update(section_number, cleaned, level)
            display = f"{section_number}. {cleaned}"
        self._emit(
            "heading", display, start, end,
            {"level": level, "section_number": section_number},
        )

    def _code(self, code: str, start: int, end: int, code_type: str) -> None:
        meta = {"language": code_type, "length": len(code)}
        self._emit(
            "code", code, start, end, {"code_type": code_type, "code_metadata": meta}
        )

    def _close_code(self, end: int) -> None:
        code, start = self.code, self.code_start
        if self.mode == _FENCE_MODE:
            self._code("\n".join(code).strip(), start, end, self.code_type)
        else:  # indented code: trailing blank lines are not part of it
            while code and not code[-1].strip():
                code.pop()
            text = "\n".join(code).strip("\n")
            if text.strip():
                self._code(
                    text, start, start + len(code) - 1, self.default_code_type
                )
            self.blank_run = 1  # the run ended on a blank or block boundary
        self.mode = self.code = None

    def _image(self, stripped: str, lineno: int) -> None:
        metadata = {**parse_markdown_image(stripped), "source": "markdown"}
        if self.marker_images:
            # J2: first marker image on the same page contributes a
            # bbox (markdown_extractor.py:398-413).
            matching = next(
                (m for m in self.marker_images if m.get("page") == self.page),
                None,
            )
            if matching is not None:
                if matching.get("bbox") is not None:
                    metadata["bbox"] = list(matching["bbox"])
                metadata["source"] = "marker_json"
        self._emit("image", stripped, lineno, lineno, metadata)

    def _start_line(self) -> int:
        """A content line begins: markdown path, >= 2 blank lines since
        the last block flush the accumulated text
        (markdown_extractor.py:317-319); marker path, every blank line
        is a block boundary. Returns the blank-line gap."""
        gap = self.blank_run
        if gap >= self.flush_gap:
            self._flush_text()
        self.blank_run = 0
        return gap

    def _boundary(self, lineno: int) -> None:
        """A block that flushes text, ends any table and any list."""
        self._flush_text()
        self._end_table(lineno - 1)
        self.list_ctx = None

    def _text(
        self, content: str, raw: str, lineno: int, prev_blank: bool,
        item_col: Optional[int],
    ) -> None:
        """A paragraph line, or a list item whose content starts at
        column ``item_col``."""
        if item_col is not None:
            self.list_ctx = item_col
        elif (
            prev_blank
            and self.list_ctx is not None
            and _indent_width(raw) < self.list_ctx
        ):
            # an unindented paragraph after a blank ends the list
            self.list_ctx = None
        text = self.text
        if not text:
            self.text_start = lineno
        if not text or prev_blank or self.hr_pending:
            self.para_idx = len(text)
            self.para_lineno = lineno
            self.para_prev_last = self.text_last
        self.hr_pending = False
        text.append(content)
        self.text_last = lineno

    def lines(self, lines: list[str], lineno: int) -> None:
        """Classify ``lines``, the first being source line ``lineno``."""
        marker_style = self.marker_style
        n = len(lines)
        i = 0
        while i < n:
            raw = lines[i]
            ln = lineno + i
            i += 1
            if self.mode is not None:
                if self.mode == _FENCE_MODE:
                    if raw.strip().startswith(self.code_arg):
                        self._close_code(ln)
                    else:
                        self.code.append(raw)
                    continue
                if self.mode == _HTML_MODE:
                    # the block's source lines widen the paragraph gap
                    # (see the vanished-token note below)
                    if raw.strip():
                        self.blank_run += 1
                        continue
                    self.mode = None
                elif not raw.strip() or _indent_width(raw) >= self.code_arg:
                    self.code.append(
                        _strip_indent_cols(raw, self.code_arg) if raw.strip() else ""
                    )
                    continue
                else:
                    self._close_code(ln)
            stripped = raw.strip()

            # blockquote markers strip off and the remainder re-classifies
            # (markdown-it parses block structure INSIDE quotes; its token
            # walk sees the dequoted inline content — the reference never
            # emits '>' into text)
            if stripped.startswith(">"):
                stripped = _BLOCKQUOTE_RE.sub("", stripped).strip()
                raw = stripped

            if not stripped:
                self._end_table(ln - 1)
                self.blank_run += 1
                continue

            # prev_gap: lines separating this line from the last
            # content; vanished tokens (hr, html_block, link def)
            # re-enter this count below, because the reference's flush
            # rule compares SOURCE line numbers (token.map[0] >
            # last_line + 1) and the vanished token's lines widen that gap
            prev_gap = self._start_line()
            prev_blank = prev_gap > 0

            # indented code block (4 spaces / tab at a block start — after
            # a blank line or at a structural boundary): markdown-it
            # tokenizes it as code_block, which the reference emits as a
            # code element after flushing text (markdown_extractor.py:524).
            # Checked before the first-char dispatch — '    # x' is code,
            # not a heading, and an indented fence/table line is code too.
            # Inside a list the threshold is content-col + 4 (commonmark);
            # below it the line falls through to the text path as a
            # paragraph of the loose item.
            if (
                not marker_style
                and (prev_blank or not self.text)
                and self.table is None
                and _INDENT_CODE_RE.match(raw)
            ):
                code_strip = 4 if self.list_ctx is None else self.list_ctx + 4
                if _indent_width(raw) >= code_strip:
                    self._flush_text()
                    self.mode, self.code_arg = _INDENT_MODE, code_strip
                    self.code_start = ln
                    self.code = [_strip_indent_cols(raw, code_strip)]
                    continue

            # First-char dispatch: every special line class is identified
            # by stripped[0], so plain prose (the overwhelming majority)
            # skips all five class regexes entirely. Byte-identical: each
            # class regex anchors on that same first character.
            c0 = stripped[0]

            # fenced code block: open until a line starting with the marker
            fence = _FENCE_RE.match(stripped) if c0 in "`~" else None
            if fence:
                self._boundary(ln)
                info = fence.group(2).strip()
                self.mode, self.code_arg = _FENCE_MODE, fence.group(1)
                self.code_start, self.code = ln, []
                self.code_type = (
                    info.split()[0].lower() if info else self.default_code_type
                )
                continue

            # page marker
            page_match = _PAGE_MARKER_RE.match(stripped) if c0 == "<" else None
            if page_match:
                self._boundary(ln)
                self.page = int(page_match.group(1))
                continue

            # raw HTML block (markdown-it html_block): skip through the
            # next blank line WITHOUT flushing accumulated text — the
            # reference walk has no branch for the token, so the block
            # leaves no trace; it still ends the current paragraph (a
            # following setext underline must not bind across it) and any
            # open list.
            if c0 == "<" and not marker_style and _HTML_BLOCK_RE.match(stripped):
                self._end_table(ln - 1)
                self.mode = _HTML_MODE
                self.hr_pending = True
                self.list_ctx = None
                self.blank_run = prev_gap + 1
                continue

            # link reference definition: vanishes before tokenization (the
            # walk never sees it); its source line still widens the gap
            if (
                c0 == "["
                and not marker_style
                and (prev_blank or not self.text or self.hr_pending)
                and _LINK_DEF_RE.match(stripped)
            ):
                self.blank_run = prev_gap + 1
                continue

            # heading (ATX)
            heading = _HEADING_RE.match(stripped) if c0 == "#" else None
            if heading:
                self._boundary(ln)
                self._heading(
                    heading.group(2).strip(), len(heading.group(1)), ln, ln
                )
                continue

            # thematic break: markdown-it emits an hr token that the
            # reference walk has no branch for — the line vanishes from the
            # element stream WITHOUT flushing accumulated text
            # (markdown_extractor.py token loop). Checked before list-item
            # classification because '- - -' is a break, not a bullet.
            if c0 in "-*_" and _HR_RE.match(stripped):
                self._end_table(ln - 1)
                self.hr_pending = True
                self.list_ctx = None  # a thematic break ends any open list
                if not marker_style:
                    # the hr's own source line widens the paragraph gap
                    self.blank_run = prev_gap + 1
                continue

            # image on its own line
            if c0 == "!" and _IMAGE_RE.match(stripped):
                self._boundary(ln)
                self._image(stripped, ln)
                continue

            # table line
            if c0 == "|" and _TABLE_LINE_RE.match(stripped):
                self._flush_text()
                if self.table is None:
                    self.table, self.table_start = [], ln
                    self.list_ctx = None
                self.table.append(stripped)
                continue
            self._end_table(ln - 1)

            # plain text: paragraph line or list item. markdown path strips
            # the list marker (one entry per item — mirrors the reference's
            # per-inline append); marker path keeps the line as written
            # (fixture texts carry their '- ' markers)
            item = (
                _LIST_ITEM_RE.match(raw)
                if not marker_style and c0 in "-*+0123456789"
                else None
            )

            # setext heading: a paragraph underlined by === (h1) or ---
            # (h2) on the very next line (commonmark; markdown-it emits
            # heading_open h1/h2 for it). The underline binds to the WHOLE
            # preceding blank-free paragraph run — markdown-it hands the
            # reference a multi-line inline content whose soft breaks
            # clean_section_title then drops (category-C strip,
            # markdown_extractor.py:116-140), so 'l1\nl2\n===' titles as
            # 'l1l2' here exactly as it does there.
            if (
                not marker_style
                and item is None
                and i < n
                and lines[i][:1] in ("=", "-", " ", "\t")  # cheap gate:
                # almost every next line starts with prose; only candidate
                # underlines (possibly indented) pay the strip + regex
            ):
                nxt = lines[i].strip()
                if nxt and nxt[0] in "=-" and _SETEXT_RE.match(nxt):
                    title, start = stripped, ln
                    if self.text and not prev_blank and not self.hr_pending:
                        para = self.text[self.para_idx:]
                        del self.text[self.para_idx:]
                        self.text_last = self.para_prev_last
                        title = "\n".join(para + [stripped])
                        start = self.para_lineno
                    self._flush_text()
                    self.list_ctx = None
                    self._heading(title, 1 if nxt[0] == "=" else 2, start, ln + 1)
                    i += 1
                    continue

            if item:
                self._text(item.group(2), raw, ln, prev_blank, item.start(2))
            else:
                self._text(stripped, raw, ln, prev_blank, None)

    def block(
        self, kind: str, text: str, extra: Any, lineno: int, last: bool
    ) -> int:
        """Feed one ``html_blocks`` block rendered from source line
        ``lineno`` (a blank separator line follows unless ``last``);
        returns its last line.

        A canonical block takes one direct step, with the state changes
        its rendered lines would make: a one-line paragraph or list item
        whose first character is no ``_TRIGGER``; a non-empty heading of
        level 1-6, an image or a page marker with no newline in its
        text; a table with no newline or '|' in a cell; a code block
        with no fence-marker line. Any other block, and every block
        while a multi-line block is open, goes through :meth:`lines` as
        its rendered lines. Text is stripped, as the tag walk's is.
        """
        if self.mode is None:
            if kind == "p" or kind == "li":
                canonical = text[0] not in _TRIGGER and "\n" not in text
            elif kind == "table":  # a line per row, no '|' inside a cell
                canonical = text.count("\n") == len(extra) and text.count("|") == (
                    sum(map(len, extra)) + len(extra) + len(extra[0]) + 1
                )
            elif kind == "code":
                canonical = "```" not in text
            elif kind == "img":
                canonical = "\n" not in text and "\n" not in extra
            elif kind == "h":
                canonical = 0 < extra <= 6 and text and "\n" not in text
            else:
                canonical = "\n" not in text
            if canonical:
                prev_gap = self._start_line()
                end = lineno
                if kind == "p" or kind == "li":  # an item's text is at column 2
                    item_col = 2 if kind == "li" else None
                    self._text(text, text, lineno, prev_gap > 0, item_col)
                else:
                    self._boundary(lineno)
                    if kind == "h":
                        self._heading(text, extra, lineno, lineno)
                    elif kind == "table":
                        end += len(extra)
                        self._table(text, lineno, end, extra)
                    elif kind == "code":
                        end += text.count("\n") + 2
                        lang = extra.lower() or self.default_code_type
                        self._code(text.strip(), lineno, end, lang)
                    elif kind == "img":
                        self._image(render_block(kind, text, extra), lineno)
                    else:
                        line = render_block(kind, text, extra)
                        self.page = int(_PAGE_MARKER_RE.match(line).group(1))
                if not last:
                    self.blank_run += 1
                return end
        lines = render_block(kind, text, extra).split("\n")
        end = lineno + len(lines) - 1
        self.lines(lines if last else lines + [""], lineno)
        return end

    def finish(self, n_lines: int) -> list[dict[str, Any]]:
        """End of a document of ``n_lines`` lines: close what is open."""
        if self.mode == _FENCE_MODE or self.mode == _INDENT_MODE:
            self._close_code(n_lines)
        self._end_table(n_lines)
        self._flush_text()
        return self.out


def _count(
    elements: list[dict[str, Any]], marker_style: bool = False
) -> list[dict[str, Any]]:
    if marker_style:
        for e in elements:
            e["token_count"] = token_count_cl100k(e["content"])
    else:
        fill_token_counts(elements)
    return elements


def extract_from_markdown_text(
    markdown_content: str,
    url: str = "",
    repo_link: str = "",
    extraction_date: str = "",
    table_cache: Optional[list[dict[str, Any]]] = None,
    marker_tables: Optional[list[dict[str, Any]]] = None,
    marker_images: Optional[list[dict[str, Any]]] = None,
    default_code_type: str = "md",
    marker_style: bool = False,
    *,
    count_tokens: bool = True,
) -> list[dict[str, Any]]:
    """Extract the element stream from a markdown string.

    Returns a list of element dicts with the reference envelope. Pure and
    deterministic: same input -> same output, byte for byte.
    ``count_tokens=False`` leaves every ``token_count`` None, for a
    caller that counts many element lists in one ``token_counts`` pass
    (``extract_document`` under ``stages.extract_stage.extract_batch``).

    ``marker_tables`` / ``marker_images`` are the row-local enrichment
    joins (markdown_extractor.py:460-472 / :398-413): the FIRST marker
    record on the same page attaches its table data / bbox to the
    element and flips ``source`` to "marker_json". The bbox set by the
    table join then participates in the ``table_cache`` IoU validation,
    matching the reference's ordering.

    ``marker_style=True`` emulates the reference's MARKER path
    (marker_processor.py — the path that produced the golden fixture
    BHT_CV32A65X_expected.json) instead of its markdown-it path:
    every block flushes separately (single blank line splits text, vs
    the markdown path's two — markdown_extractor.py:317-319 only
    flushes when ``token.map[0] > last_line + 1``), list-item lines
    keep their markers, paired emphasis/code markers are stripped
    (marker's JSON blocks carry plain text), heading content is the
    raw title without auto-number recombination, and token counts use
    the cl100k-pinned calibration (kernel/cl100k_calibration.py).
    Validated golden-for-golden against the fixture in
    tests/test_fixture_parity.py.
    """
    scanner = _Scanner(
        url, repo_link, extraction_date, table_cache, marker_tables,
        marker_images, default_code_type, marker_style,
    )
    lines = markdown_content.split("\n")
    scanner.lines(lines, 1)
    out = scanner.finish(len(lines))
    return _count(out, marker_style) if count_tokens else out


def extract_text_rows(markdown: str) -> list[dict[str, Any]]:
    """The text lane: the lines of ``markdown`` scanned as
    ``ELEMENT_FIELDS`` rows, uncounted. Equal to slimming
    ``extract_from_markdown_text(markdown)``'s envelopes."""
    scanner = _Scanner(rows=True)
    lines = markdown.split("\n")
    scanner.lines(lines, 1)
    return scanner.finish(len(lines))


def extract_html_rows(html: str) -> list[dict[str, Any]]:
    """The html lane: the blocks of the one tag walk
    (``html_to_md.html_blocks``) fed straight into the scanner, as
    ``ELEMENT_FIELDS`` rows, uncounted. Equal to slimming
    ``extract_from_markdown_text(html_to_markdown(html),
    count_tokens=False)``, without the markdown string, the line split
    or the envelope dicts."""
    scanner = _Scanner(rows=True)
    blocks = html_blocks(html)
    lineno = end = 1
    for k, (kind, text, extra) in enumerate(blocks, 1):
        end = scanner.block(kind, text, extra, lineno, k == len(blocks))
        lineno = end + 2
    return scanner.finish(end)
