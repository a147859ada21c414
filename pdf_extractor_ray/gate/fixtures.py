"""Inputs shared by the gate families: table paths, the injected
duplicates, the url-bearing documents and the on-disk shard formats."""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _t(sf_dir: str, name: str) -> str:
    return f"{sf_dir}/{name}.parquet"


def _docs_with_dups(sf_dir: str) -> ray.data.Dataset:
    """documents plus an injected exact copy of every 10th doc (id
    +1_000_000) — gives the dedup operators real duplicates to find.
    Mirrored exactly by the oracle's UNION ALL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def dup_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dups = batch.filter(pa.array(ids % 10 == 0))
        return pa.table(
            {
                "doc_id": pc.add(dups["doc_id"], 1_000_000),
                "text": dups["text"],
            }
        )

    return docs.union(docs.map_batches(dup_rows, batch_format="pyarrow"))


def _benchmark_docs(sf_dir: str) -> ray.data.Dataset:
    """The stand-in evaluation benchmark of the decontamination and
    pretrain-chain queries: documents with doc_id < 20."""

    def bench_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < 20))

    return ray.data.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(bench_only, batch_format="pyarrow")


_DUP_SQL = (
    "SELECT doc_id, text FROM documents "
    "UNION ALL "
    "SELECT doc_id + 1000000 AS doc_id, text FROM documents WHERE doc_id % 10 = 0"
)


def _cents(col):
    """float -> exact integer centi-units: floor(x*100 + 0.5)."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(col, pa.scalar(100.0)), pa.scalar(0.5))),
        pa.int64(),
    )


def _load_query_vectors(sf_dir: str, n: int):
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    df = t.to_pandas().sort_values("vec_id").head(n)
    ids = df["vec_id"].tolist()
    mat = np.asarray([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    return ids, mat


def _docs_with_urls(sf_dir: str):
    """Documents with synthetic crawl urls: host site-{doc_id % 37}
    .example.com (37 domains at every sf), path /page/{doc_id}. The
    domain_* oracles rebuild the same host expression in SQL."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def add_url(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = [f"https://site-{i % 37}.example.com/page/{i}" for i in ids]
        return pa.table(
            {"doc_id": batch["doc_id"], "url": pa.array(urls, pa.string())}
        )

    return docs.map_batches(add_url, batch_format="pyarrow")


def _html_pages(
    sf_dir: str,
    page: Callable[..., tuple[str, str]],
    columns: tuple[str, ...] = ("doc_id",),
) -> ray.data.Dataset:
    """One synthetic (url, html) page per document: ``page`` maps a
    row's ``columns`` values to its url and html; html is stored as
    UTF-8 bytes."""
    docs = ray.data.read_parquet(_t(sf_dir, "documents"), columns=list(columns))

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for row in zip(*(batch[c].to_pylist() for c in columns)):
            url, html = page(*row)
            urls.append(url)
            htmls.append(html.encode("utf-8"))
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )

    return docs.map_batches(to_pages, batch_format="pyarrow")


def _doc_shards_dir(
    sf_dir: str, fmt: str, write_shard: Callable[[str, list], None]
) -> str:
    """Deterministic shards of the documents table in one file format
    (one file per ~100 docs, doc -> shard by doc_id % n, each shard's
    (doc_id, text) records sorted by doc_id); ``write_shard(stem,
    records)`` writes one as ``stem`` plus its extension. Built once per
    sf_dir under /tmp and reused; the build is input synthesis, not
    pipeline compute, so a single-process writer is fine at oracle
    scale."""
    import shutil

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/graft_{fmt}_{tag}"
    if not os.path.exists(os.path.join(d, "_DONE")):
        import pyarrow.parquet as pq

        t = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        n_files = max(1, len(ids) // 100)
        shards: list[list] = [[] for _ in range(n_files)]
        for i, txt in zip(ids, texts):
            shards[i % n_files].append((i, txt))
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        for k, sh in enumerate(shards):
            write_shard(os.path.join(tmp, f"part-{k:05d}"), sorted(sh))
        with open(os.path.join(tmp, "_DONE"), "w") as fh:
            fh.write("ok")
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
    return d


def _warc_dir(sf_dir: str) -> str:
    """The documents as gzipped multi-record WARC shards."""
    from pdf_extractor_ray.sources.warc import write_warc

    def write_shard(stem: str, records: list) -> None:
        write_warc(stem + ".warc.gz", records, compress=True)

    return _doc_shards_dir(sf_dir, "warc", write_shard)


# kernel/textutils.py:_TOKEN_RE re-expressed for RE2/DuckDB ('' escapes
# the leading quote of the contraction branch inside the SQL literal).
# It counts as the kernel does only on text whose whitespace is
# [\t\n\f\r ] and comes in runs of one char:
#   - RE2 has no lookahead, so the \s+(?!\S) branch is dropped, and the
#     kernel cuts a longer whitespace run one char short of a following
#     non-space: 'x\n\ny' is 3 matches here and 4 in the kernel;
#   - RE2's \s lacks \v, \x1c-\x1f and the non-ASCII spaces, which it
#     reads as punctuation.
# The gate's documents meet that (no whitespace run of two or more in
# the 500, 500 and 5,000 texts at sf0.001, sf0.01 and sf0.1);
# tests/test_token_oracle.py checks it at sf0.01.
_TOKEN_PAT_SQL = (
    "''(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]{1,3}| ?[^\\sA-Za-z0-9]+|\\s+"
)
