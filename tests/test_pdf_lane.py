"""The pdf lane's rows: the page walk's blocks fed straight into the scanner.

``extract_pdf_document`` must equal the composition it replaces — every
page rendered to a markdown string, re-scanned by
``extract_from_markdown_text``, each envelope slimmed — which this file
keeps as the oracle, except that a table element takes the record of
the table block its lines came from, not the next record in order. The
one input class where they differ: two pages with the same number that
both hold a table. There the oracle's per-page table ids repeat, while
the lane counts a page number's tables across pages, so each table
keeps its own record (``TestRepeatedPageNumbers``). The
generated docs draw what html never produces: heading levels outside
1-6 and empty headings, text that starts with a trigger character or
opens a fence left open across a page end, padded, empty and '|' or
newline cells, negative and repeated page numbers, dropped and merged
tables.
"""

import json

from hypothesis import assume, given, settings, strategies as st

import pdf_extractor_ray.kernel.extract as kx
import pdf_extractor_ray.kernel.markdown_extract as mx
import pdf_extractor_ray.kernel.pdfshape as pdfshape
from pdf_extractor_ray.kernel.extract import extract_document
from pdf_extractor_ray.kernel.markdown_extract import extract_from_markdown_text
from pdf_extractor_ray.kernel.pdfshape import (
    _cells_to_grid,
    _reading_order,
    extract_pdf_document,
    is_scanned_pdf,
    ocr_preprocess,
)
from pdf_extractor_ray.kernel.tables import parse_table_data
from test_html_lane import GOLDEN_ROWS, _digest, _slim_element


def _record(record: dict) -> dict:
    return {
        "id": record["id"],
        "page": record["page"],
        "bbox": record["bbox"],
        "accuracy": record["accuracy"],
        "rows": record["rows"],
        "cols": record["cols"],
        "is_multi_page": bool(record.get("is_multi_page", False)),
        "page_range": record.get("page_range", str(record["page"])),
        "quality": record["quality"],
        "above_text": record["above_text"],
        "below_text": record["below_text"],
        "parsed": parse_table_data(record["data"]),
    }


def _two_pass(doc: dict, merge_strategy: str = "conservative") -> list[dict]:
    """Render the pages to markdown, re-scan it, slim the envelopes, and
    give each table element the record of its source table block."""
    _, merged = extract_pdf_document(doc, merge_strategy)
    by_id = {t["id"]: t for t in merged}
    if is_scanned_pdf(doc):
        doc = ocr_preprocess(doc)
    md_lines: list[str] = []
    sources: list[tuple[int, int, dict]] = []  # table line range, record
    line = 1

    def add(md: str) -> None:
        nonlocal line
        md_lines.append(md)
        line += md.count("\n") + 2

    for page in doc.get("pages") or []:
        page_no = int(page.get("page_number", 1))
        add(f"<!-- page: {page_no} -->")
        t_idx = 0
        for block in _reading_order(page.get("blocks") or []):
            btype = block.get("type")
            if btype == "heading":
                level = int(block.get("level", 1))
                add("#" * level + " " + str(block.get("text", "")).strip())
            elif btype == "text":
                text = " ".join(
                    s.get("text", "") for s in block.get("spans") or []
                ).strip()
                if text:
                    add(text)
            elif btype == "image":
                alt = str(block.get("alt", "")).strip()
                src = str(block.get("src", "")).strip()
                add(f"![{alt}]({src})")
            elif btype == "table":
                if not _cells_to_grid(block.get("cells") or []):
                    continue
                rec = by_id.get(f"table_{page_no}_{t_idx}")
                t_idx += 1
                if rec is None:
                    continue  # dropped or merged into an earlier anchor
                grid = rec["data"]
                lines = ["| " + " | ".join(grid[0]) + " |"]
                lines.append("|" + "---|" * len(grid[0]))
                for row in grid[1:]:
                    lines.append("| " + " | ".join(row) + " |")
                md = "\n".join(lines)
                sources.append((line, line + md.count("\n"), rec))
                add(md)
        add("")  # page break -> double blank line flushes text

    elements = extract_from_markdown_text("\n\n".join(md_lines), count_tokens=False)
    for e in elements:
        if e["type"] == "table":
            start = e["line_span"][0]
            for first, last, rec in sources:
                if first <= start <= last:
                    e["metadata"]["record"] = _record(rec)
    return [_slim_element(e) for e in elements]


_WORD = st.sampled_from(["alpha", "Beta gamma", "4.1. Numbered", "naïve", "x y"])
_TRICKY = st.sampled_from([
    "", " ", "1. x", "2) y", "# x", "#", "- a", "* b", "+ c", "> q", "```",
    "``` py", "~~~", "    four", "\tTab", "a\nb", "a\n===", "a\n---", "---",
    "***", "| x |", "|", "[x]: /u", "<div>", "<!-- page: 9 -->", "<!--",
    "![a](b)", "a]( b", "x\n```", "x\n\n    code", "\n\n", "_u_",
])
_TEXT = st.lists(st.one_of(_TRICKY, _WORD), min_size=1, max_size=3).map(" ".join)
_CELL = st.one_of(
    _WORD,
    st.sampled_from([
        "", " ", "  pad ", "a|b", "|", "x\ny", "\n```", "```", "-", "---",
        ":-:", "# h", "1. n",
    ]),
)
_Y = st.sampled_from([0.0, 10.0, 10.4, 40.0, 100.0, 300.0])
_X = st.sampled_from([0.0, 50.0])


def _bbox(y, x):
    return [x, y, x + 100.0, y + 20.0]


_HEADING = st.builds(
    lambda level, text, y, x: {
        "type": "heading", "level": level, "text": text, "bbox": _bbox(y, x),
    },
    st.integers(-1, 8), st.one_of(_TEXT, _WORD), _Y, _X,
)
_PARA = st.builds(
    lambda spans, y, x: {
        "type": "text", "spans": [{"text": t} for t in spans], "bbox": _bbox(y, x),
    },
    st.lists(st.one_of(_TEXT, _WORD), max_size=3), _Y, _X,
)
_IMAGE = st.builds(
    lambda alt, src, y, x: {
        "type": "image", "alt": alt, "src": src, "bbox": _bbox(y, x),
    },
    st.one_of(_WORD, st.sampled_from(["", " a ", "x\ny", "]("])),
    st.sampled_from(["f.png", " f.png ", "", "a)b", "x\ny"]),
    _Y, _X,
)


def _table(grid, accuracy, y, x):
    cells = [
        {"row": r, "col": c, "text": v}
        for r, row in enumerate(grid)
        for c, v in enumerate(row)
    ]
    return {
        "type": "table", "cells": cells, "accuracy": accuracy, "bbox": _bbox(y, x),
    }


_GRID = st.one_of(
    # the same header on every page: continuations merge
    st.lists(st.lists(_WORD, min_size=2, max_size=2), max_size=2).map(
        lambda rows: [["Signal", "IO"], *rows]
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_CELL, min_size=n, max_size=n), max_size=3)
    ),
)
_TABLE = st.builds(
    _table, _GRID, st.sampled_from([98.0, 98.0, 70.0, 10.0]), _Y, _X,
)
_BLOCK = st.one_of(_HEADING, _PARA, _IMAGE, _TABLE)
_PAGE = st.builds(
    lambda n, blocks: {"page_number": n, "blocks": blocks},
    st.sampled_from([1, 2, 3, 1, -1, 0]),
    st.lists(_BLOCK, max_size=6),
)
_DOC = st.builds(
    lambda pages: {"kind": "pdf", "pages": pages}, st.lists(_PAGE, max_size=3)
)


def _repeats_a_table_page(doc: dict) -> bool:
    """Whether two pages with the same number both hold a table block."""
    seen = set()
    for page in doc["pages"]:
        if any(b["type"] == "table" for b in page["blocks"]):
            if page["page_number"] in seen:
                return True
            seen.add(page["page_number"])
    return False


class TestRowsEqualTwoPass:
    @settings(max_examples=400, deadline=None)
    @given(doc=_DOC, strategy=st.sampled_from(["conservative", "none"]))
    def test_rows_equal_slimmed_envelopes(self, doc, strategy):
        # the named exception: the oracle's table ids repeat there
        assume(not _repeats_a_table_page(doc))
        rows, _ = extract_pdf_document(doc, strategy)
        assert rows == _two_pass(doc, strategy)

    def test_open_fence_crosses_the_page_end(self):
        p1 = {"page_number": 1, "blocks": [
            {"type": "text", "bbox": _bbox(0, 0), "spans": [{"text": "``` py"}]},
        ]}
        p2 = {"page_number": 2, "blocks": [
            {"type": "heading", "level": 1, "text": "H", "bbox": _bbox(0, 0)},
        ]}
        doc = {"kind": "pdf", "pages": [p1, p2]}
        rows, _ = extract_pdf_document(doc)
        assert [r["type"] for r in rows] == ["code"]
        assert rows[0]["content"] == "<!-- page: 2 -->\n\n# H"
        assert rows[0]["line_span"] == [3, 11]
        assert rows == _two_pass(doc)

    def test_heading_levels_outside_one_to_six(self):
        blocks = [
            {"type": "heading", "level": level, "text": text, "bbox": _bbox(y, 0)}
            for y, (level, text) in enumerate(
                [(7, "seven"), (0, "zero"), (1, ""), (6, "six"), (-2, "neg")]
            )
        ]
        doc = {"kind": "pdf", "pages": [{"page_number": 1, "blocks": blocks}]}
        rows, _ = extract_pdf_document(doc)
        assert [(r["type"], r["content"]) for r in rows] == [
            ("text", "####### seven\nzero\n#"),
            ("heading", "1. six"),
            ("text", "neg"),
        ]
        assert rows == _two_pass(doc)


class TestTableRecords:
    def test_record_follows_its_own_table(self):
        # The first table passes the confidence floor, but its header row
        # is all empty, so the pipe parse emits no row for it; the
        # second table's row must carry the second table's record.
        empty_header = _table([["", ""], ["1", "2"], ["3", "4"]], 98.0, 0.0, 0.0)
        valid = _table([["A", "B"], ["5", "6"]], 98.0, 100.0, 0.0)
        doc = {"kind": "pdf", "pages": [
            {"page_number": 1, "blocks": [empty_header, valid]},
        ]}
        _, records = extract_pdf_document(doc)
        assert [r["id"] for r in records] == ["table_1_0", "table_1_1"]
        out = extract_document("u", None, json.dumps(doc).encode(), None)
        tables = [r for r in out["elements"] if r["type"] == "table"]
        assert len(tables) == 1
        meta = json.loads(tables[0]["metadata_json"])
        assert meta["record"]["id"] == "table_1_1"
        assert meta["record"]["parsed"]["headers"] == ["A", "B"]
        assert meta["table"]["headers"] == ["A", "B"]

    def test_table_with_no_cells_keeps_its_place(self):
        # a table block whose cells give no grid renders nothing; the
        # next table still renders at its own block
        doc = {"kind": "pdf", "pages": [{"page_number": 1, "blocks": [
            _table([], 98.0, 0.0, 0.0),
            {"type": "text", "bbox": _bbox(50, 0), "spans": [{"text": "between"}]},
            _table([["A", "B"], ["5", "6"]], 98.0, 100.0, 0.0),
        ]}]}
        rows, _ = extract_pdf_document(doc)
        assert [r["type"] for r in rows] == ["text", "table"]


class TestNoMarkdownRescan:
    def test_golden_rows_without_extract_from_markdown_text(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("extract_from_markdown_text called")

        monkeypatch.setattr(mx, "extract_from_markdown_text", boom)
        monkeypatch.setattr(kx, "extract_from_markdown_text", boom)
        monkeypatch.setattr(pdfshape, "extract_from_markdown_text", boom, raising=False)
        assert _digest(False, lambda i: True) == GOLDEN_ROWS


class TestRepeatedPageNumbers:
    def test_every_table_keeps_its_own_record(self):
        # two pages both numbered 1: the second page's tables go on
        # counting, so neither table is lost or emitted twice
        doc = {"kind": "pdf", "pages": [
            {"page_number": 1, "blocks": [
                _table([["A", "B"], ["1", "2"]], 98.0, 0.0, 0.0),
            ]},
            {"page_number": 1, "blocks": [
                _table([["X", "Y", "Z"], ["3", "4", "5"]], 98.0, 0.0, 0.0),
            ]},
        ]}
        _, records = extract_pdf_document(doc, "none")
        assert [r["id"] for r in records] == ["table_1_0", "table_1_1"]
        out = extract_document("u", None, json.dumps(doc).encode(), None)
        tables = [
            (r["content"].split("\n", 1)[0], json.loads(r["metadata_json"])["record"]["id"])
            for r in out["elements"]
            if r["type"] == "table"
        ]
        assert tables == [("| A | B |", "table_1_0"), ("| X | Y | Z |", "table_1_1")]

    def test_unique_page_numbers_keep_their_ids(self):
        doc = {"kind": "pdf", "pages": [
            {"page_number": n, "blocks": [
                _table([["A", "B"], ["1", "2"]], 98.0, 0.0, 0.0),
                _table([["C", "D", "E"], ["1", "2", "3"]], 98.0, 100.0, 0.0),
            ]}
            for n in (2, 1)
        ]}
        _, records = extract_pdf_document(doc, "none")
        assert [r["id"] for r in records] == [
            "table_2_0", "table_2_1", "table_1_0", "table_1_1",
        ]


_DEEP_HEADING = st.builds(
    lambda level, text, y: {
        "type": "heading", "level": level, "text": text, "bbox": _bbox(y, 0.0),
    },
    st.one_of(st.integers(-2, 8), st.integers(9, 10**7)), _WORD, _Y,
)
_DEEP_DOC = st.lists(
    st.lists(st.one_of(_DEEP_HEADING, _PARA), min_size=1, max_size=4),
    min_size=1, max_size=3,
).map(lambda pages: {"kind": "pdf", "pages": [
    {"page_number": n, "blocks": blocks} for n, blocks in enumerate(pages, 1)
]})


class TestOutputBoundedByInput:
    @settings(max_examples=200, deadline=None)
    @given(doc=_DEEP_DOC)
    def test_heading_level_cannot_amplify(self, doc):
        # a poison row costs O(its bytes): a claimed heading level of
        # 10**7 must not become a 10**7-char '#' run
        payload = json.dumps(doc).encode()
        out = extract_document("u", None, payload, None)
        assert out["status"] == "ok"
        chars = sum(len(r["content"]) for r in out["elements"])
        assert chars <= 2 * len(payload) + 64

    def test_levels_up_to_the_bound_are_unchanged(self):
        blocks = [
            {"type": "heading", "level": level, "text": "t", "bbox": _bbox(y, 0)}
            for y, level in enumerate([pdfshape.MAX_HEADING_LEVEL, 10**7])
        ]
        doc = {"kind": "pdf", "pages": [{"page_number": 1, "blocks": blocks}]}
        rows, _ = extract_pdf_document(doc)
        bound = "#" * pdfshape.MAX_HEADING_LEVEL + " t"
        assert [(r["type"], r["content"]) for r in rows] == [
            ("text", bound + "\n" + bound),
        ]
