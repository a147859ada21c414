"""Output-contract finalization (M15-M17): field defaulting, element-
type padding, deterministic table ids.

Behavioral spec (reference, studied not copied):
  - ensure_required_fields: inject missing file_path / repo_link /
    section_path=["1. Document"]
    (context7/pdf_to_json_converter.py:169-188)
  - ensure_element_types: append a synthetic text and/or table element
    when that type is absent (context7/pdf_to_json_converter.py:191-238)
  - table ids: positional ``table_{i}`` (context7/marker_processor.py:
    110-125); the top-level copy's uuid4
    (pdf_to_json_converter.py:151-163) is deliberately replaced — ids
    must be reproducible for the per-url byte-identity invariant
    (SURVEY.md §7.4).

All three are row-local post-passes over one document's element list.
They are OPT-IN (``extract_document(..., finalize=True)``) rather than
always-on: the per-url byte-identity invariant is defined against the
raw extraction stream, and the reference applies these passes only on
its context7 converter path — when enabled they run inside the same
``map_batches`` UDF as the kernel, no extra stage, no shuffle. Of the
three, only ``ensure_element_types`` changes an output row (of the
fields the others set, only section_path is an ``ELEMENT_FIELDS``
column, and every kernel element already has one), so
``extract_document`` applies just that one, to the rows of every lane.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "ensure_required_fields",
    "ensure_element_types",
    "assign_table_ids",
]

_DEFAULT_SECTION_PATH = ["1. Document"]


def ensure_required_fields(
    elements: list[dict[str, Any]], file_path: str, repo_link: str = ""
) -> list[dict[str, Any]]:
    """Inject missing envelope fields in place (M15)."""
    for elem in elements:
        if "file_path" not in elem:
            elem["file_path"] = file_path
        if "repo_link" not in elem:
            elem["repo_link"] = repo_link
        if "section_path" not in elem:
            elem["section_path"] = list(_DEFAULT_SECTION_PATH)
    return elements


def ensure_element_types(
    elements: list[dict[str, Any]], file_path: str, repo_link: str = ""
) -> list[dict[str, Any]]:
    """Pad the stream so at least one text and one table element exist
    (M16). Synthetic elements mirror the reference's shapes; the
    synthetic table's id is positional (``table_0`` — the branch only
    runs when no real table exists), not uuid4."""
    has_text = any(e.get("type") == "text" for e in elements)
    has_table = any(e.get("type") == "table" for e in elements)
    result = list(elements)
    basename = file_path.rsplit("/", 1)[-1]
    if not has_text:
        result.append(
            {
                "type": "text",
                "content": f"Content extracted from {basename}",
                "file_path": file_path,
                "repo_link": repo_link,
                "section_path": list(_DEFAULT_SECTION_PATH),
                "metadata": {"page": 1, "source": "finalize"},
            }
        )
    if not has_table:
        result.append(
            {
                "type": "table",
                "content": json.dumps([["Header", "Value"], ["Sample", "Data"]]),
                "file_path": file_path,
                "repo_link": repo_link,
                "section_path": list(_DEFAULT_SECTION_PATH),
                "table_id": "table_0",
                "metadata": {
                    "page": 1,
                    "rows": 2,
                    "cols": 2,
                    "source": "finalize",
                },
            }
        )
    return result


def assign_table_ids(elements: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Positional ``table_{i}`` id per table element, in stream order
    (M17, deterministic variant)."""
    i = 0
    for elem in elements:
        if elem.get("type") == "table":
            elem["table_id"] = f"table_{i}"
            i += 1
    return elements
