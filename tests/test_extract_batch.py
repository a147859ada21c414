"""Token counting once per batch.

``extract_batch`` asks ``extract_document`` for uncounted rows and counts
the elements of its whole batch in one ``token_counts`` pass; its rows
must equal the per-row oracle's, counts included, on every lane. The
html and markdown entry points still return counted elements.
"""

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from pdf_extractor_ray.kernel.extract import count_row_tokens, extract_document
from pdf_extractor_ray.kernel.html_to_md import html_to_markdown
from pdf_extractor_ray.kernel.markdown_extract import (
    extract_from_markdown_text,
    extract_html_rows,
)
from pdf_extractor_ray.kernel.textutils import token_count
from pdf_extractor_ray.sources.corpus import PAGES_SCHEMA, make_page_row
from pdf_extractor_ray.stages.extract_stage import extract_batch


def _pages() -> list[dict]:
    # rows 0-39: html, pdf-shaped, empty payload with a text column,
    # latin-1 bytes, a script-heavy page and one ~1 MB giant (row 39)
    rows = [make_page_row(i, 3) for i in range(40)]
    extra = [
        b'{"a": [1, 2], "b": "it\'s 1234567 \\u00e9"}',  # json lane
        b'{"kind": "pdf", "pages": 5}',  # poison: the pdf lane raises
        b'{"a": "\\ud800 x"}',  # a lone surrogate escape
        None,
    ]
    for k, html in enumerate(extra):
        rows.append({**make_page_row(40 + k, 3), "html": html, "text": ""})
    return rows


def _expected(rows: list[dict], finalize: bool) -> list[dict]:
    out = []
    for r in rows:
        row = extract_document(
            r["url"], r["warc_ts"], r["html"], r["text"], r["lang"],
            finalize=finalize,
        )
        out.append({**row, "payload_bytes": len(r["html"]) if r["html"] else 0})
    return out


@pytest.mark.parametrize("finalize", [False, True])
def test_batch_equals_rows(finalize):
    rows = _pages()
    got = extract_batch(
        pa.Table.from_pylist(rows, schema=PAGES_SCHEMA), finalize=finalize
    ).to_pylist()
    want = _expected(rows, finalize)

    assert {r["kind"] for r in want} >= {"html", "pdf", "json", "text", "empty"}
    assert any(r["status"] == "error" for r in want)
    assert max(len(e["content"]) for r in want for e in r["elements"]) > 1 << 17
    assert got == want
    for row in got:
        counts = [e["token_count"] for e in row["elements"]]
        assert counts == [token_count(e["content"]) for e in row["elements"]]
        assert row["n_tokens"] == sum(counts)


def test_entry_points_return_counted_elements():
    html = make_page_row(0, 3)["html"].decode()
    for elements in (
        extract_from_markdown_text(html_to_markdown(html)),
        extract_document("u", None, html.encode(), None)["elements"],
    ):
        assert elements
        for e in elements:
            assert e["token_count"] == token_count(e["content"])


def test_uncounted_rows_leave_counts_to_the_caller():
    html = make_page_row(0, 3)["html"]
    row = extract_document("u", None, html, None, count_tokens=False)
    assert row["n_tokens"] is None
    assert {e["token_count"] for e in row["elements"]} == {None}
    rows = extract_html_rows(html.decode())
    assert rows
    assert {e["token_count"] for e in rows} == {None}


def test_lone_surrogate_row_is_counted():
    # json.loads turns "\\ud800" into a lone surrogate; routing replaces
    # it with U+FFFD, and the row counts alike on either path
    payload = b'{"a": "\\ud800 x", "b": "it\'s"}'
    row = extract_document("u", None, payload, None)
    assert (row["status"], row["kind"]) == ("ok", "json")
    [e] = row["elements"]
    assert "\ufffd x" in e["content"] and "\ud800" not in e["content"]
    assert e["token_count"] == token_count(e["content"]) == row["n_tokens"]

    rows = [
        extract_document("u", None, p, None, count_tokens=False)
        for p in (payload, make_page_row(0, 3)["html"])
    ]
    count_row_tokens(rows)
    assert rows[0] == row


# JSON string bodies: plain characters mixed with \\uXXXX escapes, lone
# surrogates (D800-DFFF) included
_JSON_CHARS = st.characters(blacklist_characters='"\\', blacklist_categories=("Cc", "Cs"))
_JSON_STRING = st.lists(
    st.one_of(st.text(_JSON_CHARS, max_size=4),
              st.integers(0, 0xFFFF).map("\\u{:04x}".format),
              st.integers(0xD800, 0xDFFF).map("\\u{:04X}".format)),
    max_size=6,
).map(lambda parts: '"' + "".join(parts) + '"')
_JSON_VALUE = st.one_of(_JSON_STRING, st.integers().map(str), st.just("null"),
                        st.lists(_JSON_STRING, max_size=3).map(lambda v: "[" + ",".join(v) + "]"))
_PAYLOADS = st.one_of(
    st.tuples(_JSON_STRING, _JSON_VALUE).map(lambda kv: "{%s: %s}" % kv),
    # pdf-shaped records whose fields have the wrong types
    st.tuples(st.sampled_from(["pages", "title", "blocks"]), _JSON_VALUE)
    .map(lambda kv: '{"kind": "pdf", "%s": %s}' % kv),
    st.integers(1, 3000).map(lambda n: "[" * n + "]" * n),
).map(str.encode) | st.binary(max_size=64) | st.binary(max_size=16).map(
    lambda b: b"<p>a\x00" + b + b"\xff</p>"
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_PAYLOADS, min_size=1, max_size=5))
def test_any_payload_batch_equals_rows(payloads):
    rows = [
        {**make_page_row(k, 3), "html": p, "text": ""} for k, p in enumerate(payloads)
    ]
    got = extract_batch(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)).to_pylist()
    assert got == _expected(rows, False)
