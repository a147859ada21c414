"""A poison row costs O(its bytes) in every lane.

One property over ``extract_document``: the characters a row's elements
hold are at most ``a * payload bytes + b``, with ``(a, b)`` per lane.
The draws claim sizes the kernel must not believe (heading levels, cell
indices, page numbers), nest markup and containers, and leave
constructs unterminated.

The json lane keeps the reference's pretty-print
(``json.dumps(indent=2)``), whose indentation grows with depth, so its
bound is ``c * bytes * depth`` instead. Nesting deeper than the
recursion limit is not capped: that row comes back ``status="error"``
with a ``RecursionError``.
"""

import json
import sys

from hypothesis import example, given, settings, strategies as st

from pdf_extractor_ray.kernel.extract import extract_document
from pdf_extractor_ray.config import CONFIG
from pdf_extractor_ray.kernel.pdfshape import GRID_AREA_FLOOR

# (a, b) per lane. Markup only adds a few marker chars per tag ('#',
# '**', '| ', '|---|'), and each tag takes at least 3 bytes. A pdf table
# densifies to at most max(GRID_AREA_FLOOR, GRID_AREA_PER_CELL * cells)
# slots of at most ~3.2 chars (' | ' per empty slot, '---|' per
# column); the floor dominates, and a kept table takes more than 64
# payload bytes (_FLOOR_TABLES: 88 bytes and ~3,270 chars per table).
_BOUNDS = {
    "empty": (0, 0),
    "text": (2, 64),
    "html": (2, 64),
    "pdf": (4 * GRID_AREA_FLOOR // 64, 64),
}
# json: chars <= _JSON_C * bytes * (depth + 1)
_JSON_C = 2


def _chars(row: dict) -> int:
    return sum(len(e["content"]) for e in row["elements"])


def _depth(obj) -> int:
    if isinstance(obj, list):
        return 1 + max(map(_depth, obj), default=0)
    if isinstance(obj, dict):
        return 1 + max(map(_depth, obj.values()), default=0)
    return 0


_WORD = st.sampled_from(["x", "alpha", "Beta gamma", "naïve", "4.1.", "&amp;", "&#x41;", " ", "\n"])

# html: tags of every kind the walk dispatches on, open and closed,
# nested, plus unterminated constructs
_TAG = st.sampled_from([
    "p", "div", "h1", "h3", "h6", "li", "ul", "ol", "table", "tr", "td", "th",
    "pre", "code", "b", "strong", "i", "em", "a", "head", "title", "blockquote",
])
_UNTERMINATED = st.sampled_from([
    "<![CDATA[", "<!--", "<a ", "<script>", "<style>x", "<td", "</", "<",
    '<a href="', "<img src=", "<!-- page: 3", "]]>", ">",
])
_LEAF = st.one_of(
    _WORD,
    _UNTERMINATED,
    _TAG.map(lambda t: f"<{t}>"),
    _TAG.map(lambda t: f"</{t}>"),
    st.just('<img src="s" alt="a">'),
    st.just("<br>"),
    st.just("<!-- page: 2 -->"),
)
_MARKUP = st.recursive(
    st.lists(_LEAF, max_size=8).map("".join),
    lambda inner: st.tuples(_TAG, st.lists(inner, max_size=4)).map(
        lambda t: f"<{t[0]}>" + "".join(t[1]) + f"</{t[0]}>"
    ),
    max_leaves=40,
)
_HTML = st.one_of(
    _MARKUP.map(lambda m: "<html><body>" + m),
    st.tuples(_TAG, st.integers(1, 300)).map(lambda t: "<html><body>" + f"<{t[0]}>" * t[1]),
    st.tuples(_UNTERMINATED, st.integers(1, 300)).map(lambda t: "<html><body>" + t[0] * t[1]),
)

# pdf-shaped: claimed levels, page numbers and cell indices
_BIG = st.one_of(st.integers(-3, 40), st.integers(41, 10**9))
_BBOX = st.sampled_from([[0, 0, 100, 20], [0, 40, 100, 60], [50, 300, 150, 320]])
_BLOCK = st.one_of(
    st.builds(
        lambda level, text, bbox: {"type": "heading", "level": level, "text": text, "bbox": bbox},
        _BIG, _WORD, _BBOX,
    ),
    st.builds(
        lambda spans, bbox: {"type": "text", "spans": [{"text": t} for t in spans], "bbox": bbox},
        st.lists(_WORD, max_size=3), _BBOX,
    ),
    st.builds(
        lambda alt, src, bbox: {"type": "image", "alt": alt, "src": src, "bbox": bbox},
        _WORD, _WORD, _BBOX,
    ),
    st.builds(
        lambda cells, acc, bbox: {"type": "table", "cells": cells, "accuracy": acc, "bbox": bbox},
        st.lists(
            st.builds(lambda r, c, t: {"row": r, "col": c, "text": t}, _BIG, _BIG, _WORD),
            max_size=12,
        ),
        st.sampled_from([100.0, 90.0, 50.0]),
        _BBOX,
    ),
)
_PDF = st.lists(
    st.tuples(_BIG, st.lists(_BLOCK, max_size=6)), min_size=1, max_size=3,
).map(lambda pages: json.dumps({"kind": "pdf", "pages": [
    {"page_number": n, "blocks": blocks} for n, blocks in pages
]}))

# json: any values, and plain nests up to a few hundred deep
_JSON = st.one_of(
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _WORD),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(_WORD, inner, max_size=4)
        ),
        max_leaves=30,
    ).filter(lambda v: isinstance(v, (list, dict))).map(json.dumps),
    st.integers(1, 400).map(lambda d: "[" * d + "]" * d),
    st.integers(1, 200).map(lambda d: '{"k": ' * d + "1" + "}" * d),
)

_TEXT = st.one_of(
    st.text(max_size=300),
    st.lists(st.sampled_from(["# h", "- a", "| x |", "```", "1. x", "text", "\n", "\n\n"]), max_size=30)
    .map(" ".join),
)

# tables of two cells, one at each corner of the smallest grid the
# area floor admits: the most chars per payload byte a table gives
_FLOOR_TABLES = json.dumps({"kind": "pdf", "pages": [{"page_number": 1, "blocks": [
    {"type": "table", "cells": [
        {"row": 0, "col": 0, "text": "x"}, {"row": 31, "col": 31, "text": "x"},
    ]}
] * 50}]}, separators=(",", ":")).encode()

_PAYLOADS = st.one_of(
    st.just(""), st.just(" \n "), _TEXT, _HTML, _PDF, _JSON,
).map(lambda s: s.encode("utf-8", "surrogatepass"))


class TestOutputBoundedByInput:
    @settings(max_examples=400, deadline=None)
    @given(payload=_PAYLOADS)
    @example(payload=b"[" * 900 + b"]" * 900)
    @example(payload=b'{"kind": "pdf", "pages": [{"page_number": 1, "blocks": ['
             b'{"type": "heading", "level": 10000000, "text": "t"}]}]}')
    @example(payload=b'{"kind": "pdf", "pages": [{"page_number": 1, "blocks": [{"type": '
             b'"table", "cells": [{"row": 9999, "col": 9999, "text": "x"}]}]}]}')
    @example(payload=_FLOOR_TABLES)
    @example(payload=b"<html><body>" + b"<![CDATA[" * 3000 + b">")
    @example(payload=b"<html><body><table>" + b"<tr><td>x</td><td>" * (CONFIG.giant_payload_bytes // 18))
    def test_every_lane(self, payload):
        out = extract_document("u", None, payload, None)
        assert out["status"] == "ok", out["error"]
        chars = _chars(out)
        if out["kind"] == "json":
            depth = _depth(json.loads(payload))
            assert chars <= _JSON_C * len(payload) * (depth + 1), (len(payload), depth, chars)
        else:
            a, b = _BOUNDS[out["kind"]]
            assert chars <= a * len(payload) + b, (out["kind"], len(payload), chars)

    def test_nesting_beyond_the_recursion_limit_is_an_error_row(self):
        d = 3 * sys.getrecursionlimit()
        out = extract_document("u", None, b"[" * d + b"]" * d, None)
        assert out["status"] == "error"
        assert out["error"].startswith("RecursionError"), out["error"]
        assert out["elements"] == []
