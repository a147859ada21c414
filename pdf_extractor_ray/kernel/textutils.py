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
    offline, so the count is that of a deterministic GPT-2-style
    pre-tokenizer regex, ``_TOKEN_RE`` — stable across runs and
    platforms, which is what the per-url byte-identity invariant needs.
    The kernel never runs that regex: ``token_counts`` reads the number
    of its matches for a whole list of strings from one class array
    (one kind per char, the six alternatives' boundaries all read from
    it), so a batch of elements is counted with a few numpy calls per
    64k chars. ``token_count`` (the regex itself) is the reference the
    tests hold it to.
  - latin-1 decode fallback: corpus_utils.py:156-162.
  - word-set Jaccard similarity: marker_processor.py:280-300.
"""

from __future__ import annotations

import hashlib
import re
import string
import unicodedata

import numpy as np

__all__ = [
    "clean_section_title",
    "hash_string",
    "token_count",
    "token_counts",
    "fill_token_counts",
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
    """The number of ``_TOKEN_RE`` matches in ``text``, by the regex
    itself: the reference ``token_counts`` is held to."""
    if not text:
        return 0
    return _TOKEN_RE.subn("", text)[1]


# Char kinds of the pattern's classes. ``\s`` is ``str.isspace``: the
# ASCII ones below, and 19 code points beyond ASCII.
_OTHER, _LETTER, _DIGIT, _SPACE = 0, 1, 2, 3
_ASCII_SPACE = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
_UNICODE_SPACE = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _kind_table() -> bytes:
    table = bytearray(256)
    for kind, chars in (
        (_LETTER, string.ascii_letters),
        (_DIGIT, string.digits),
        (_SPACE, _ASCII_SPACE),
    ):
        for c in chars:
            table[ord(c)] = kind
    return bytes(table)


_KIND = _kind_table()  # a bytes.translate table: ASCII byte -> kind
_KIND_LUT = np.frombuffer(_KIND[:129], np.uint8)  # code point (128 = any non-ASCII) -> kind
_UNICODE_SPACE_CP = np.array([ord(c) for c in _UNICODE_SPACE], np.uint32)
# the contraction suffixes: one letter's code, or two letters' a*256+b
_SUFFIXES = np.array(
    [ord(c) for c in "sdmt"] + [ord(a) * 256 + ord(b) for a, b in ("ll", "ve", "re")]
)
_QUOTE, _BLANK = ord("'"), ord(" ")
_WINDOW = 1 << 16
# where a long string may be cut: no rule looks across a whitespace
# char whose previous char is not whitespace
_CUT_RE = re.compile(r"(?<!\s)\s")


def _window_counts(text: str, offs: np.ndarray) -> np.ndarray:
    """Token counts of the non-empty segments of ``text`` that start at
    ``offs`` (ascending, ``offs[0] == 0``).

    A token starts where the char kind changes; a run of one kind is one
    token, with four corrections:
      - a digit run splits every 3 digits;
      - a ``' '`` before a non-space goes to the next token (-1);
      - ``\\s+(?!\\S)`` stops one char short of a following non-space, so a
        longer whitespace run before one is two tokens (+1);
      - ``'`` that starts a token, followed by a letter run that is just
        ``s d m t ll ve re``, is one token with it (-1).
    None of them looks across a segment start."""
    if text.isascii():
        data = text.encode("ascii")
        raw = np.frombuffer(data, np.uint8)
        kind = np.frombuffer(data.translate(_KIND), np.uint8)
    else:
        # a lone surrogate (json.loads makes them) is a code point >= 128
        raw = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        kind = _KIND_LUT[np.minimum(raw, 128)]
        kind[np.isin(raw, _UNICODE_SPACE_CP)] = _SPACE
    n = len(raw)
    brk = np.empty(n, bool)
    brk[0] = True
    np.not_equal(kind[1:], kind[:-1], out=brk[1:])
    brk[offs] = True
    starts = np.flatnonzero(brk)  # of the runs
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    length = ends - starts
    rkind = kind[starts]
    seg = np.searchsorted(starts, offs)  # each segment's first run
    followed = np.ones(len(starts), bool)  # by a run of the same segment
    followed[seg[1:] - 1] = False
    followed[-1] = False

    count = np.ones(len(starts), np.int64)
    digits = rkind == _DIGIT
    count[digits] += (length[digits] - 1) // 3
    space = np.flatnonzero((rkind == _SPACE) & followed)
    count[space] += length[space] >= 2
    count[space] -= raw[ends[space] - 1] == _BLANK
    # contractions: a one-char run "'" before a letter run of <= 2
    q = np.flatnonzero((length == 1) & (rkind == _OTHER) & followed)
    q = q[raw[starts[q]] == _QUOTE]
    q = q[(rkind[q + 1] == _LETTER) & (length[q + 1] <= 2)]
    if len(q):
        q = q[(raw[starts[q] - 1] != _BLANK) | np.isin(q, seg)]  # else a ' ' took it
        at = starts[q + 1]
        suffix = raw[at].astype(np.int64)
        two = length[q + 1] == 2
        suffix[two] = suffix[two] * 256 + raw[at[two] + 1]
        count[q[np.isin(suffix, _SUFFIXES)]] -= 1
    return np.add.reduceat(count, seg)


def token_counts(texts: list[str]) -> list[int]:
    """``token_count`` of every string, exactly, with a few numpy calls
    per ~64k chars (see ``_window_counts``). Strings are packed into
    windows; one longer than a window is cut where no rule looks across,
    so a window stays near 64k chars unless a string has no whitespace
    for that long. The cut keeps the arrays small: on one Xeon core, a
    758k-char element counted as one window took 11 ms and an 11 MB
    transient, cut into windows 4-6 ms and 1 MB."""
    counts = [0] * len(texts)
    window: list[str] = []
    owners: list[int] = []
    size = 0

    def flush() -> None:
        offs = np.zeros(len(window), np.int64)
        np.cumsum([len(p) for p in window[:-1]], out=offs[1:])
        for i, c in zip(owners, _window_counts("".join(window), offs).tolist()):
            counts[i] += c
        window.clear()
        owners.clear()

    for i, text in enumerate(texts):
        start = 0
        while start < len(text):
            end = len(text)
            if end - start > _WINDOW:
                cut = _CUT_RE.search(text, start + _WINDOW)
                if cut is not None:
                    end = cut.start()
            if window and size + end - start > _WINDOW:
                flush()
                size = 0
            window.append(text[start:end])
            owners.append(i)
            size += end - start
            start = end
    if window:
        flush()
    return counts


def fill_token_counts(elements: list[dict]) -> None:
    """Set every element's ``token_count`` from one ``token_counts``
    pass over their contents."""
    for e, n in zip(elements, token_counts([e["content"] for e in elements])):
        e["token_count"] = n


def token_count_cl100k(text: str) -> int:
    """Reference-parity token count. Precedence:

    1. the REAL cl100k_base BPE when its public ranks table is on disk
       ($GRAFT_CL100K_PATH / data/cl100k_base.tiktoken) — exact
       tiktoken counts on arbitrary text (kernel/bpe.py implements the
       full engine: cl100k pre-tokenizer + byte-pair merge loop);
    2. the pinned cl100k value when the text appears in the reference
       golden fixture (kernel/cl100k_calibration.py — those pins ARE
       tiktoken outputs, so 1 and 2 agree when both apply);
    3. the deterministic count (``token_counts``).

    Used by the marker-style extraction path whose golden is the
    reference's tiktoken-counted fixture."""
    from pdf_extractor_ray.kernel.bpe import get_cl100k_encoder
    from pdf_extractor_ray.kernel.cl100k_calibration import cl100k_pinned_count

    enc = get_cl100k_encoder()
    if enc is not None:
        return enc.count(text)
    pinned = cl100k_pinned_count(text)
    return pinned if pinned is not None else token_counts([text])[0]


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
