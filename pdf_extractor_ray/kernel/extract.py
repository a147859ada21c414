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
    pdf   -> pdf-layout kernel (tables, reading order, multi-page merge)
    json  -> pretty-printed JSON string as a single text element
             (corpus_utils.py:132-137)
    html  -> one pass: the tag walk's blocks feed the markdown scanner,
             which emits the element rows directly
             (markdown_extract.extract_html_rows) — no markdown string,
             no line re-split, no envelope dicts
    text  -> markdown element extraction directly

Other lanes' envelope dicts are flattened by ``_slim_element``.

Determinism: ``extraction_date`` is derived from ``warc_ts`` (never wall
clock); ids are content-md5 / positional (never uuid4).
"""

from __future__ import annotations

import json
from typing import Any, Optional

# unused here, but perfbench's traced run wraps it by attribute
from pdf_extractor_ray.kernel.html_to_md import html_to_markdown  # noqa: F401
from pdf_extractor_ray.kernel.markdown_extract import (
    extract_from_markdown_text,
    extract_html_rows,
)
from pdf_extractor_ray.kernel.payload import route_payload
from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document
from pdf_extractor_ray.kernel.textutils import token_count

__all__ = ["extract_document", "ELEMENT_FIELDS"]

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


def _slim_element(element: dict[str, Any]) -> dict[str, Any]:
    """Envelope dict -> flat struct row (metadata canonical-JSON'd).

    Fields default so the synthetic elements of the opt-in finalize
    pass (kernel/finalize.py, which mirror the reference's sparser
    shapes) serialize without special-casing."""
    content = element["content"]
    meta = element.get("metadata", {})
    tc = element.get("token_count")
    if tc is None:
        # only recount when the envelope didn't carry a count —
        # dict.get's default evaluates eagerly, which silently doubled
        # the per-element tokenization cost (14% of kernel wall)
        tc = token_count(content)
    return {
        "type": element["type"],
        "content": content,
        "page": element.get("page", meta.get("page", 1)),
        "line_span": list(element.get("line_span", (0, 0))),
        "token_count": tc,
        "section_id": element.get("section_id", ""),
        "section_path": list(element.get("section_path", ())),
        "section_hash_path": list(element.get("section_hash_path", ())),
        "metadata_json": json.dumps(meta, sort_keys=True, ensure_ascii=False),
    }


def extract_document(
    url: str,
    warc_ts: Any,
    html: Optional[bytes],
    text: Optional[str],
    lang: Optional[str] = None,
    merge_strategy: str = "conservative",
    finalize: bool = False,
) -> dict[str, Any]:
    """Extract one document. Never raises: failures become status='error'.

    Returns a flat dict (one output row): url, kind, status, error,
    extracted_text, elements (list of slim structs), per-type counts,
    n_tokens. ``finalize=True`` additionally applies the reference's
    context7 output-contract passes (kernel/finalize.py M15-M17:
    required-field defaulting, text/table type padding, positional
    table ids) — opt-in because the byte-identity invariant is defined
    against the raw stream.
    """
    extraction_date = str(warc_ts) if warc_ts is not None else ""
    kind = "empty"
    status = "ok"
    error = ""
    elements: list[dict[str, Any]] = []
    slim: list[dict[str, Any]] = []  # the html lane builds rows directly

    try:
        route = route_payload(html)
        kind = route.kind

        if kind == "empty" and text:
            kind = "text"
            route.text = text

        if kind == "pdf":
            elements, _tables = extract_pdf_document(
                route.json_obj,
                url=url,
                extraction_date=extraction_date,
                merge_strategy=merge_strategy,
            )
        elif kind == "json":
            dumped = json.dumps(route.json_obj, indent=2, ensure_ascii=False)
            elements = [
                {
                    "file_path": url,
                    "repo_link": "",
                    "extraction_date": extraction_date,
                    "type": "text",
                    "content": dumped,
                    "line_span": [1, dumped.count("\n") + 1],
                    "token_count": token_count(dumped),
                    "section_id": "",
                    "section_path": [],
                    "section_hash_path": [],
                    "page": 1,
                    "metadata": {"source": "json"},
                }
            ]
            from pdf_extractor_ray.kernel.textutils import hash_string

            elements[0]["section_id"] = hash_string(dumped)
        elif kind == "html":
            slim = extract_html_rows(route.text)
        elif kind == "text":
            elements = extract_from_markdown_text(
                route.text, url=url, extraction_date=extraction_date
            )
        # kind == "empty": zero elements, status stays ok
    except Exception as exc:  # log-and-continue: poison rows become columns
        status = "error"
        error = f"{type(exc).__name__}: {exc}"
        elements = []
        slim = []

    slim += [_slim_element(e) for e in elements]
    if finalize and status == "ok":
        from pdf_extractor_ray.kernel.finalize import ensure_element_types

        # of the finalize passes only the padding touches a row column;
        # slimming fills the defaults its sparser elements omit
        slim += [
            _slim_element(e)
            for e in ensure_element_types(slim, url)[len(slim):]
        ]
    extracted_text = "\n\n".join(e["content"] for e in slim)
    counts = {t: 0 for t in _COUNTED_TYPES}
    for e in slim:
        if e["type"] in counts:
            counts[e["type"]] += 1

    return {
        "url": url,
        "warc_ts": warc_ts,
        "lang": lang or "",
        "kind": kind,
        "status": status,
        "error": error,
        "extracted_text": extracted_text,
        "elements": slim,
        "n_elements": len(slim),
        "n_text": counts["text"],
        "n_heading": counts["heading"],
        "n_table": counts["table"],
        "n_code": counts["code"],
        "n_image": counts["image"],
        "n_tokens": sum(e["token_count"] for e in slim),
    }
