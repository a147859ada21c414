"""Boilerpipe-style main-content extraction (text-density classifier).

The north-star transform for web pages: strip navigation / footer /
link-list boilerplate from raw HTML and keep the article body. The
reference repo reaches the same goal for its corpus through
``html2text`` + tag stripping (corpus_utils.py:138-147); at crawl
scale the published, deterministic alternative is the shallow-text-
feature classifier of Kohlschuetter, Fankhauser & Nejdl, "Boilerplate
Detection using Shallow Text Features" (WSDM 2010) — the
``NumWordsRulesClassifier`` decision tree shipped by the public
boilerpipe library. This module re-implements that tree from the
paper's published rule set over blocks read from the scan step of
kernel/html_to_md.py, the one every HTML parser there shares
(script/style/head contents invisible, entities unescaped, whitespace
collapsed).

Block contract
--------------
A *block* is a maximal run of text between block-level tags
(`_BLOCK_TAGS`); both the opening and closing form of a block tag end
the current block. Per block the features are:

  n_words       whitespace-split token count of the collapsed text
  n_link_words  sum over the block's ``<a>`` elements of the
                whitespace-split token count of each anchor's text
                (per-anchor, so adjacent anchors never merge words)

Link density is ``n_link_words / n_words``. Blocks with no words are
never emitted.

Classifier (exact-integer form)
-------------------------------
The WSDM-2010 NumWordsRules tree, with its two density thresholds
expressed as exact rationals so a SQL oracle can replay the decision
bit-for-bit (1/3 for the current block, 5/9 for the previous block —
the paper's 0.333333 / 0.555556 literals):

  curr_density <= 1/3:
    prev_density <= 5/9:
      curr_words <= 16:
        next_words <= 15:
          prev_words <= 4  -> BOILERPLATE
          prev_words  > 4  -> CONTENT
        next_words  > 15   -> CONTENT
      curr_words  > 16     -> CONTENT
    prev_density > 5/9:
      curr_words <= 40:
        next_words <= 17   -> BOILERPLATE
        next_words  > 17   -> CONTENT
      curr_words  > 40     -> CONTENT
  curr_density > 1/3       -> BOILERPLATE

prev/next of the first/last block are the zero block (0 words,
density 0).
"""

from __future__ import annotations

from html import unescape

import numpy as np

from pdf_extractor_ray.kernel.html_to_md import _CLOSE, _DATA, _OPEN, _tokens

__all__ = ["segment_blocks", "classify_blocks", "extract_main_content"]

# Tags whose opening OR closing form terminates the current block.
_BLOCK_TAGS = frozenset(
    {
        "p", "div", "h1", "h2", "h3", "h4", "h5", "h6",
        "li", "ul", "ol", "dl", "dt", "dd",
        "table", "tr", "td", "th", "thead", "tbody", "tfoot",
        "blockquote", "pre", "section", "article", "main", "body",
        "header", "footer", "nav", "aside", "form", "fieldset",
        "hr", "br",
    }
)
_SKIP_CONTENT = frozenset({"head"})


def segment_blocks(html: str) -> list[tuple[str, int, int]]:
    """Split an HTML document into text blocks.

    Returns ``[(text, n_words, n_link_words), ...]`` in document
    order; empty blocks are dropped. Reads the scan step of
    kernel/html_to_md.py (``_tokens``), so raw-text elements
    (script/style/template/noscript) and the <head> subtree are
    invisible, comments are ignored, and entities are unescaped.
    """
    blocks: list[tuple[str, int, int]] = []
    parts: list[str] = []          # data runs of the current block
    anchor_parts: list[str] = []   # runs of the currently-open <a>
    link_words = 0                 # finalized anchor word count so far
    anchor_open = False
    skip_depth = 0

    def close_anchor() -> None:
        nonlocal link_words, anchor_open
        if anchor_open:
            link_words += len("".join(anchor_parts).split())
        anchor_parts.clear()
        anchor_open = False

    def flush() -> None:
        nonlocal link_words
        close_anchor()
        if parts:
            text = " ".join("".join(parts).split())
            parts.clear()
            if text:
                blocks.append((text, len(text.split(" ")), link_words))
        link_words = 0

    for kind, tag, value in _tokens(html):
        if kind == _DATA:
            if skip_depth:
                continue
            if "&" in value:
                value = unescape(value)
            parts.append(value)
            if anchor_open:
                anchor_parts.append(value)
        elif kind == _CLOSE:
            if tag in _SKIP_CONTENT:
                skip_depth = max(0, skip_depth - 1)
            elif tag == "a":
                close_anchor()
            elif tag in _BLOCK_TAGS:
                flush()
        elif kind == _OPEN:
            if tag in _SKIP_CONTENT:
                skip_depth += 1
            elif tag == "a":
                if not skip_depth:
                    # nested <a> is auto-closed by browsers: finalize
                    # the open anchor before starting the new one
                    close_anchor()
                    anchor_open = True
                    if value.rstrip().endswith("/"):
                        close_anchor()
            elif tag in _BLOCK_TAGS:
                flush()
        # raw-text bodies: invisible
    flush()
    return blocks


def classify_blocks(
    n_words: np.ndarray, n_link_words: np.ndarray
) -> np.ndarray:
    """Vectorized NumWordsRules labels for one document's block
    sequence: ``True`` = content, ``False`` = boilerplate. All
    comparisons are exact-integer (densities as cross-multiplied
    rationals), so a SQL CASE tree replays them bit-for-bit."""
    nw = np.asarray(n_words, dtype=np.int64)
    nl = np.asarray(n_link_words, dtype=np.int64)
    if nw.size == 0:
        return np.zeros(0, dtype=bool)
    zero = np.zeros(1, dtype=np.int64)
    prev_w = np.concatenate((zero, nw[:-1]))
    prev_l = np.concatenate((zero, nl[:-1]))
    next_w = np.concatenate((nw[1:], zero))

    curr_low = 3 * nl <= nw          # density <= 1/3
    prev_low = 9 * prev_l <= 5 * prev_w  # density <= 5/9

    return np.where(
        curr_low,
        np.where(
            prev_low,
            np.where(
                nw <= 16,
                np.where(next_w <= 15, prev_w > 4, True),
                True,
            ),
            np.where(nw <= 40, next_w > 17, True),
        ),
        False,
    )


def extract_main_content(html: str) -> dict:
    """Segment + classify one page; join the content blocks.

    Returns ``main_text`` (content blocks joined with blank lines, in
    document order) plus the block/word accounting a curation pipeline
    filters on.
    """
    blocks = segment_blocks(html)
    if not blocks:
        return {
            "main_text": "",
            "n_blocks": 0,
            "n_content_blocks": 0,
            "total_words": 0,
            "content_words": 0,
        }
    nw = np.fromiter((b[1] for b in blocks), np.int64, len(blocks))
    nl = np.fromiter((b[2] for b in blocks), np.int64, len(blocks))
    labels = classify_blocks(nw, nl)
    main_text = "\n\n".join(
        b[0] for b, keep in zip(blocks, labels) if keep
    )
    return {
        "main_text": main_text,
        "n_blocks": len(blocks),
        "n_content_blocks": int(labels.sum()),
        "total_words": int(nw.sum()),
        "content_words": int(nw[labels].sum()),
    }
