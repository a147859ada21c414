"""The extraction stage.

One batch in = one ``pyarrow.Table`` of pages rows (read from parquet
inside the same task, or zero-copy from the object store for a Dataset
source); one batch out = extraction rows with a typed nested
``elements`` column. The per-row loop here is a loop over *documents*
(each document is an order-dependent fold — section numbering, table
merging — that cannot be vectorized across documents; SURVEY.md §7.4);
all the per-cell work inside a document is handled by the kernel.
Token counting is the one step that runs per batch, not per document:
the rows come back from ``extract_document`` uncounted, and one
``count_row_tokens`` call counts the elements of all of them (the
numpy counter's fixed cost per call is paid once per batch).

``extract_batch`` is a plain function run in stateless tasks: one task
per parquet row group, fed 128-row batches (pipelines/extract_pipeline.py),
or ``map_batches(extract_batch, batch_size=128)`` over a Dataset. The
kernel's only per-worker state is module imports and compiled regexes,
which each worker process loads once.
"""

from __future__ import annotations

from typing import Any, Optional

import pyarrow as pa

from pdf_extractor_ray.kernel.extract import count_row_tokens, extract_document

__all__ = ["ELEMENT_TYPE", "EXTRACT_SCHEMA", "extract_batch"]

ELEMENT_TYPE = pa.struct(
    [
        pa.field("type", pa.string()),
        pa.field("content", pa.string()),
        pa.field("page", pa.int32()),
        pa.field("line_span", pa.list_(pa.int32())),
        pa.field("token_count", pa.int32()),
        pa.field("section_id", pa.string()),
        pa.field("section_path", pa.list_(pa.string())),
        pa.field("section_hash_path", pa.list_(pa.string())),
        pa.field("metadata_json", pa.string()),
    ]
)

EXTRACT_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("status", pa.string()),
        pa.field("error", pa.string()),
        pa.field("extracted_text", pa.string()),
        pa.field("elements", pa.list_(ELEMENT_TYPE)),
        pa.field("n_elements", pa.int32()),
        pa.field("n_text", pa.int32()),
        pa.field("n_heading", pa.int32()),
        pa.field("n_table", pa.int32()),
        pa.field("n_code", pa.int32()),
        pa.field("n_image", pa.int32()),
        pa.field("n_tokens", pa.int32()),
        pa.field("payload_bytes", pa.int64()),
    ]
)


def extract_batch(
    batch: pa.Table, merge_strategy: str = "conservative", finalize: bool = False
) -> pa.Table:
    """Extract every document in an Arrow batch of pages rows."""
    urls = batch["url"].to_pylist()
    ts = batch["warc_ts"].to_pylist()
    htmls = batch["html"].to_pylist()
    texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * len(urls)
    langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * len(urls)

    rows: list[dict[str, Any]] = []
    for url, warc_ts, html, text, lang in zip(urls, ts, htmls, texts, langs):
        out = extract_document(
            url, warc_ts, html, text, lang,
            merge_strategy=merge_strategy, finalize=finalize, count_tokens=False,
        )
        out["payload_bytes"] = len(html) if html else 0
        rows.append(out)
    count_row_tokens(rows)
    return pa.Table.from_pylist(rows, schema=EXTRACT_SCHEMA)

