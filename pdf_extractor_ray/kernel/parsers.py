"""Metadata extraction kernel (SURVEY.md M9).

Behavioral spec: /root/reference/src/mcp_doc_retriever/context7/pdf_extractor/parsers.py
  - extract_metadata (:154-189): regex Key: Value pairs plus
    Title/Author/Date patterns
"""

from __future__ import annotations

import re

__all__ = ["extract_metadata"]

_KV_RE = re.compile(r"^([A-Za-z0-9_\- ]+):\s*(.+)$", re.MULTILINE)
_TITLE_RE = re.compile(r"^(?:Title|#)\s*[:.\s]*\s*(.+)$", re.MULTILINE)
_AUTHOR_RE = re.compile(r"^(?:Author|By)\s*[:.\s]*\s*(.+)$", re.MULTILINE)
_DATE_RE = re.compile(r"^(?:Date|Published)\s*[:.\s]*\s*(.+)$", re.MULTILINE)


def extract_metadata(text: str) -> dict[str, str]:
    """Extract key:value metadata plus Title/Author/Date patterns."""
    metadata: dict[str, str] = {}
    for match in _KV_RE.finditer(text):
        key = match.group(1).strip().lower().replace(" ", "_")
        metadata[key] = match.group(2).strip()
    title = _TITLE_RE.search(text)
    if title:
        metadata["title"] = title.group(1).strip()
    author = _AUTHOR_RE.search(text)
    if author:
        metadata["author"] = author.group(1).strip()
    date = _DATE_RE.search(text)
    if date:
        metadata["date"] = date.group(1).strip()
    return metadata
