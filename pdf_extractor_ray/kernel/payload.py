"""Payload routing: classify a raw ``html`` binary payload into a lane.

The reference dispatches on file suffix
(corpus_utils.py:119-165: .pdf / .json / .html / .txt,.md / fallback
with utf-8 -> latin-1). A Common-Crawl-style pages table has no
suffixes, so routing sniffs content — the same lanes, keyed on bytes:

  kind = "empty"    b"" or whitespace-only
  kind = "pdf"      pdf-shaped JSON layout record ({"kind": "pdf", ...})
  kind = "json"     any other valid JSON object/array payload
  kind = "html"     looks like an HTML document (doctype / <html / tags)
  kind = "text"     utf-8 (or latin-1 fallback) plain text / markdown

Routing is pure and cheap (prefix sniff, no full parse except for JSON
candidates that start with '{'/'[').

A JSON ``\\ud800``-style escape without its pair parses to a lone
surrogate, which no UTF-8 encoder (Arrow's included) accepts, so parsed
payloads carry U+FFFD in its place, as a UTF-8 decode with
``errors="replace"`` would.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from pdf_extractor_ray.kernel.textutils import decode_bytes

__all__ = ["route_payload", "PayloadRoute"]

_HTML_SNIFF_RE = re.compile(
    rb"^\s*(?:<!doctype\s+html|<html[\s>]|<head[\s>]|<body[\s>])", re.IGNORECASE
)
_HTML_TAG_RE = re.compile(
    rb"<(?:p|div|h[1-6]|table|ul|ol|span|a|br|script|title)[\s>/]", re.IGNORECASE
)
# a JSON escape of a UTF-16 surrogate; json.loads joins valid pairs
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _replace_surrogates(obj: Any) -> Any:
    if isinstance(obj, str):
        return _SURROGATE_RE.sub("\ufffd", obj)
    if isinstance(obj, list):
        return [_replace_surrogates(v) for v in obj]
    if isinstance(obj, dict):
        return {_replace_surrogates(k): _replace_surrogates(v) for k, v in obj.items()}
    return obj


class PayloadRoute:
    """Routing result: lane kind plus the decoded payload."""

    __slots__ = ("kind", "text", "json_obj")

    def __init__(self, kind: str, text: str = "", json_obj: Optional[Any] = None):
        self.kind = kind
        self.text = text
        self.json_obj = json_obj


def route_payload(payload: Optional[bytes]) -> PayloadRoute:
    if not payload or not payload.strip():
        return PayloadRoute("empty")

    head = payload[:512]
    if _HTML_SNIFF_RE.match(head):
        return PayloadRoute("html", decode_bytes(payload))

    stripped = payload.lstrip()
    if stripped[:1] in (b"{", b"["):
        try:
            text = payload.decode("utf-8")
            obj = json.loads(text)
        except (ValueError, UnicodeDecodeError):
            obj = None
        if obj is not None and _SURROGATE_ESCAPE_RE.search(text):
            obj = _replace_surrogates(obj)
        if isinstance(obj, dict) and obj.get("kind") == "pdf":
            return PayloadRoute("pdf", json_obj=obj)
        if obj is not None and isinstance(obj, (dict, list)):
            return PayloadRoute("json", json_obj=obj)

    if _HTML_TAG_RE.search(head):
        return PayloadRoute("html", decode_bytes(payload))

    return PayloadRoute("text", decode_bytes(payload))
