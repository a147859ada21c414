"""Output-contract finalization (M16): element-type padding.

Behavioral spec (reference, studied not copied):
  - ensure_element_types: append a synthetic text and/or table element
    when that type is absent (context7/pdf_to_json_converter.py:191-238)

The reference's other context7 passes set no element-row column: its
field defaulting (file_path / repo_link / section_path,
pdf_to_json_converter.py:169-188) fills envelope fields a row does not
carry, or that every row already has, and its table ids (positional
``table_{i}`` in marker_processor.py:110-125, uuid4 in
pdf_to_json_converter.py:151-163) live in the pdf lane's table records
(kernel/pdfshape.py), positional so the per-url byte-identity
invariant holds (SURVEY.md §7.4).

The padding is a row-local post-pass over one document's element rows.
It is OPT-IN (``extract_document(..., finalize=True)``) rather than
always-on: the per-url byte-identity invariant is defined against the
raw extraction stream, and the reference applies it only on its
context7 converter path — when enabled it runs inside the same
``map_batches`` UDF as the kernel, no extra stage, no shuffle.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["ensure_element_types"]


def _row(etype: str, content: str, meta: dict[str, Any]) -> dict[str, Any]:
    """A synthetic element row (``extract.ELEMENT_FIELDS`` order)."""
    return {
        "type": etype, "content": content, "page": 1, "line_span": [0, 0],
        "token_count": None, "section_id": "", "section_path": ["1. Document"],
        "section_hash_path": [],
        "metadata_json": json.dumps(meta, sort_keys=True),
    }


def ensure_element_types(
    rows: list[dict[str, Any]], file_path: str
) -> list[dict[str, Any]]:
    """Pad the rows so at least one text and one table element exist
    (M16). The synthetic elements carry the reference's content and
    metadata."""
    result = list(rows)
    if not any(r["type"] == "text" for r in rows):
        basename = file_path.rsplit("/", 1)[-1]
        result.append(_row(
            "text", f"Content extracted from {basename}",
            {"page": 1, "source": "finalize"},
        ))
    if not any(r["type"] == "table" for r in rows):
        result.append(_row(
            "table", json.dumps([["Header", "Value"], ["Sample", "Data"]]),
            {"page": 1, "rows": 2, "cols": 2, "source": "finalize"},
        ))
    return result
