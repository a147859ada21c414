"""Main-content extraction operators over raw page HTML.

Distributed form of kernel/content_extract.py (the WSDM-2010
text-density boilerplate classifier): per-block feature rows for
auditing/training, and the per-page rollup a curation pipeline
actually consumes (main text + word accounting). Both are single
streaming ``map_batches`` passes — parsing is inherently
per-document, no exchange, nothing driver-materialized; at 100 TB
each block of pages is one task and only the (much smaller) extracted
rows leave the operator.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.kernel.content_extract import (
    classify_blocks,
    extract_main_content,
    segment_blocks,
)

__all__ = ["content_blocks", "main_content", "page_html_tables"]


def _decode(h) -> str:
    if h is None:
        return ""
    if isinstance(h, (bytes, bytearray)):
        return h.decode("utf-8", errors="replace")
    return h


def content_blocks(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """One row per text block: ``(url, block_idx, n_words,
    n_link_words, is_content, text)``. ``is_content`` is the
    NumWordsRules label (exact-integer thresholds — see
    kernel/content_extract.py)."""

    def blocks(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        idxs: list[int] = []
        words: list[int] = []
        links: list[int] = []
        labels: list[bool] = []
        texts: list[str] = []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            bl = segment_blocks(_decode(h))
            if not bl:
                continue
            nw = np.fromiter((b[1] for b in bl), np.int64, len(bl))
            nl = np.fromiter((b[2] for b in bl), np.int64, len(bl))
            lab = classify_blocks(nw, nl)
            urls.extend([u] * len(bl))
            idxs.extend(range(len(bl)))
            words.extend(nw.tolist())
            links.extend(nl.tolist())
            labels.extend(bool(x) for x in lab)
            texts.extend(b[0] for b in bl)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "block_idx": pa.array(idxs, pa.int64()),
                "n_words": pa.array(words, pa.int64()),
                "n_link_words": pa.array(links, pa.int64()),
                "is_content": pa.array(labels, pa.bool_()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return ds.map_batches(blocks, batch_format="pyarrow")


def main_content(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """Per-page rollup: ``(url, n_blocks, n_content_blocks,
    total_words, content_words, main_text, main_md5)``. ``main_md5``
    commits to the exact bytes of the extracted text so a hash
    compare proves byte-level agreement without shipping the text
    twice."""

    def extract(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        out = {
            "n_blocks": [],
            "n_content_blocks": [],
            "total_words": [],
            "content_words": [],
        }
        texts: list[str] = []
        md5s: list[str] = []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            r = extract_main_content(_decode(h))
            urls.append(u)
            for k in out:
                out[k].append(r[k])
            texts.append(r["main_text"])
            md5s.append(
                hashlib.md5(r["main_text"].encode("utf-8")).hexdigest()
            )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "n_blocks": pa.array(out["n_blocks"], pa.int64()),
                "n_content_blocks": pa.array(
                    out["n_content_blocks"], pa.int64()
                ),
                "total_words": pa.array(out["total_words"], pa.int64()),
                "content_words": pa.array(
                    out["content_words"], pa.int64()
                ),
                "main_text": pa.array(texts, pa.string()),
                "main_md5": pa.array(md5s, pa.string()),
            }
        )

    return ds.map_batches(extract, batch_format="pyarrow")


def page_html_tables(
    ds: ray.data.Dataset,
    url_col: str = "url",
    html_col: str = "html",
) -> ray.data.Dataset:
    """HTML ``<table>`` extraction to a normalized cell grid — the
    web-side sibling of the PDF cell-grid lane (north rule: "table
    cell-grid detection"): one row per cell, ``(url, table_idx,
    row_idx, col_idx, cell)``, with ``row_idx`` 0 = the header row.
    Runs the html lane of the extraction kernel
    (`markdown_extract.extract_html_rows`: script/comment decoys
    invisible, nested markup stripped, markdown table parser —
    arity-mismatched rows dropped, the parser's documented contract);
    the cell grid is each table element's parsed metadata.
    Single streaming map_batches; only cell rows leave the operator."""
    import json

    from pdf_extractor_ray.kernel.markdown_extract import extract_html_rows

    def cells(batch: pa.Table) -> pa.Table:
        urls, t_idx, r_idx, c_idx, vals = [], [], [], [], []
        for u, h in zip(
            batch[url_col].to_pylist(), batch[html_col].to_pylist()
        ):
            if h is None:
                continue
            s = (
                h.decode("utf-8", errors="replace")
                if isinstance(h, (bytes, bytearray))
                else h
            )
            ti = 0
            for el in extract_html_rows(s, count_tokens=False):
                if el["type"] != "table":
                    continue
                parsed = json.loads(el["metadata_json"])["table"]
                grid = [parsed["headers"]] + parsed["rows"]
                for r, row in enumerate(grid):
                    for c, v in enumerate(row):
                        urls.append(u)
                        t_idx.append(ti)
                        r_idx.append(r)
                        c_idx.append(c)
                        vals.append(v)
                ti += 1
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "table_idx": pa.array(t_idx, pa.int64()),
                "row_idx": pa.array(r_idx, pa.int64()),
                "col_idx": pa.array(c_idx, pa.int64()),
                "cell": pa.array(vals, pa.string()),
            }
        )

    return ds.map_batches(cells, batch_format="pyarrow")
