"""Top-level per-document extraction kernel.

``extract_document`` is the single-document oracle AND the exact code the
Ray ``map_batches`` UDFs execute per row — which is what makes the
per-url byte-identity invariant (BASELINE.json input_hint) trivially
testable: the distributed pipeline can only differ from the oracle
through plumbing bugs (batching, Arrow round-trips, ordering), which the
golden tests then catch.

Lifecycle per row (mirrors the reference's process_pdf chain,
/root/reference/src/pdf_extractor/pdf_to_json_converter.py:166-249, with
the corpus loader's per-suffix dispatch,
llm_integration/utils/corpus_utils.py:119-165):

  route(html bytes) -> lane:
    empty -> fall back to the ``text`` column when present, else an
             empty-but-ok result (log-and-continue semantics: errors are
             a status column, never an exception — README.md:33-36)
    pdf   -> pdf-layout kernel (tables, reading order, multi-page
             merge); its page walk feeds the markdown scanner blocks
             (pdfshape.extract_pdf_document)
    json  -> pretty-printed JSON string as a single text element
             (corpus_utils.py:132-137)
    html  -> the tag walk's blocks feed the markdown scanner
             (markdown_extract.extract_html_rows)
    text  -> the markdown scanner over the text's lines
             (markdown_extract.extract_text_rows)

Every lane builds ``ELEMENT_FIELDS`` rows directly: no markdown string
is re-scanned and no envelope dict is built.

Token counts: no lane counts while it builds elements. The row's
elements are counted at the end, in one ``token_counts`` pass — or,
with ``count_tokens=False``, not at all: ``stages.extract_stage.
extract_batch`` passes that and counts all the rows of its batch at
once (``count_row_tokens``), since the numpy counter's fixed cost per
call outweighs a small document's tokens.

Determinism: nothing reads the wall clock; ids are content-md5 /
positional (never uuid4).
"""

from __future__ import annotations

import json
from typing import Any, Optional

from pdf_extractor_ray.kernel.finalize import ensure_element_types
from pdf_extractor_ray.kernel.markdown_extract import (
    extract_html_rows,
    extract_text_rows,
)
from pdf_extractor_ray.kernel.payload import route_payload
from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document
from pdf_extractor_ray.kernel.textutils import fill_token_counts, hash_string

# unused here, but perfbench's traced run wraps them by attribute
from pdf_extractor_ray.kernel.html_to_md import html_to_markdown  # noqa: F401
from pdf_extractor_ray.kernel.markdown_extract import (  # noqa: F401
    extract_from_markdown_text,
)

__all__ = ["extract_document", "count_row_tokens", "ELEMENT_FIELDS"]

# The element struct the pipelines serialize (FIXTURES.md F2).
ELEMENT_FIELDS = (
    "type",
    "content",
    "page",
    "line_span",
    "token_count",
    "section_id",
    "section_path",
    "section_hash_path",
    "metadata_json",
)

_COUNTED_TYPES = ("text", "heading", "table", "code", "image")


def extract_document(
    url: str,
    warc_ts: Any,
    html: Optional[bytes],
    text: Optional[str],
    lang: Optional[str] = None,
    merge_strategy: str = "conservative",
    finalize: bool = False,
    *,
    count_tokens: bool = True,
) -> dict[str, Any]:
    """Extract one document. Never raises: failures become status='error'.

    Returns a flat dict (one output row): url, kind, status, error,
    extracted_text, elements (``ELEMENT_FIELDS`` rows), per-type counts,
    n_tokens. ``finalize=True`` additionally pads the stream with the
    reference's synthetic text/table elements (kernel/finalize.py M16)
    — opt-in because the byte-identity invariant is defined against the
    raw stream. ``count_tokens=False`` leaves every element's
    ``token_count`` and the row's ``n_tokens`` None, for
    ``count_row_tokens`` to fill over a whole batch.
    """
    kind = "empty"
    status = "ok"
    error = ""
    elements: list[dict[str, Any]] = []

    try:
        route = route_payload(html)
        kind = route.kind

        if kind == "empty" and text:
            kind = "text"
            route.text = text

        if kind == "pdf":
            elements, _tables = extract_pdf_document(route.json_obj, merge_strategy)
        elif kind == "json":
            dumped = json.dumps(route.json_obj, indent=2, ensure_ascii=False)
            elements = [{
                "type": "text", "content": dumped, "page": 1,
                "line_span": [1, dumped.count("\n") + 1], "token_count": None,
                "section_id": hash_string(dumped), "section_path": [],
                "section_hash_path": [], "metadata_json": '{"source": "json"}',
            }]
        elif kind == "html":
            elements = extract_html_rows(route.text)
        elif kind == "text":
            elements = extract_text_rows(route.text)
        # kind == "empty": zero elements, status stays ok
    except Exception as exc:  # log-and-continue: poison rows become columns
        status = "error"
        error = f"{type(exc).__name__}: {exc}"
        elements = []

    if finalize and status == "ok":
        elements = ensure_element_types(elements, url)
    extracted_text = "\n\n".join(e["content"] for e in elements)
    counts = {t: 0 for t in _COUNTED_TYPES}
    for e in elements:
        if e["type"] in counts:
            counts[e["type"]] += 1

    row = {
        "url": url,
        "warc_ts": warc_ts,
        "lang": lang or "",
        "kind": kind,
        "status": status,
        "error": error,
        "extracted_text": extracted_text,
        "elements": elements,
        "n_elements": len(elements),
        "n_text": counts["text"],
        "n_heading": counts["heading"],
        "n_table": counts["table"],
        "n_code": counts["code"],
        "n_image": counts["image"],
        "n_tokens": None,
    }
    if count_tokens:
        count_row_tokens([row])
    return row


def count_row_tokens(rows: list[dict[str, Any]]) -> None:
    """Fill every element's ``token_count`` and every row's
    ``n_tokens``, with one ``token_counts`` pass over all their
    elements."""
    fill_token_counts([e for r in rows for e in r["elements"]])
    for r in rows:
        r["n_tokens"] = sum(e["token_count"] for e in r["elements"])
