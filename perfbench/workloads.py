"""The benchmark's workloads: inputs from the seed, set-up, timed passes
and the correctness check of every pass.

Each workload object runs inside one process that owns one Ray session.
Its methods are called in this order by :func:`perfbench.bench.run`:

    make_inputs()   write the parquet input the program reads (untimed)
    reference()     serial per-document control over that input (untimed)
    warmup()        one-block pass; timed as part of set-up
    run_pass(k)     one timed pass plus its correctness check
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import measure

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Pass sizes: one extraction pass takes 3-5 s at one CPU, so a 10-s run
# holds two to four passes to take the median of. With 3000 html_small
# pages Ray's per-pass overhead was a third of the pass and the run-to-run
# spread of docs_per_s was 0.16-0.26; with 6000 it was 0.06-0.11.
HTML_SMALL_DOCS = 6000
CC_MIX_DOCS = 1600
ROWS_PER_FILE = 800
WARMUP_ROWS = 64
# extract_pages' default batch size; the traced pass batches the same way
BATCH_ROWS = 128
PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]
LANES = ("html", "giant", "pdf", "text", "empty")

# Manifest of pretrain_corpus_chain over data/documents.parquet (the
# 500-row sf0.01 `documents` table of the query gate) with the gate's
# injected duplicates. The gate's DuckDB oracle reproduces these rows.
PINNED_MANIFEST = [
    {"shard": 0, "n_chunks": 4, "n_tokens": 2048,
     "bin_md5": "5ec54e9c344e078541d2896f28c8b2a5",
     "idx_md5": "aa455f8a2cc17093a8d08085ced493be"},
    {"shard": 1, "n_chunks": 4, "n_tokens": 2015,
     "bin_md5": "145bf17783ae81998da84ca940ee0157",
     "idx_md5": "698b844ca0f9f1fb5e237b4cce82e526"},
    {"shard": 2, "n_chunks": 3, "n_tokens": 1536,
     "bin_md5": "9623bc4d78a4a9545b9e1f09af64751b",
     "idx_md5": "38c18b90dc5169c73facf36ddc6dfcc3"},
    {"shard": 3, "n_chunks": 3, "n_tokens": 1536,
     "bin_md5": "0270f7be2c92eb23c04a55df45c6368c",
     "idx_md5": "e506ff996db75f9a8a81a230e142c685"},
]


def lane_of(kind: str, payload_bytes: int) -> str:
    """Kernel lane of one document: its routed kind, with HTML payloads
    at or above the engine's giant threshold counted as ``giant``."""
    from pdf_extractor_ray.pipelines.extract_pipeline import GIANT_PAYLOAD_BYTES

    if kind == "html" and payload_bytes >= GIANT_PAYLOAD_BYTES:
        return "giant"
    return kind


def digest_batch(batch: pa.Table) -> pa.Table:
    """Sink of the html_small pass: (url, status, text sha) per row."""
    texts = batch["extracted_text"].to_pylist()
    return pa.table(
        {
            "url": batch["url"],
            "status": batch["status"],
            "sha": pa.array([measure.text_sha(t) for t in texts], pa.string()),
        }
    )


def _write_pages(path: str, indices: list[int], seed: int) -> list[str]:
    from pdf_extractor_ray.sources.corpus import PAGES_SCHEMA, make_page_row

    os.makedirs(path, exist_ok=True)
    files = []
    for shard, start in enumerate(range(0, len(indices), ROWS_PER_FILE)):
        rows = [make_page_row(i, seed) for i in indices[start : start + ROWS_PER_FILE]]
        fname = os.path.join(path, f"pages-{shard:05d}.parquet")
        pq.write_table(
            pa.Table.from_pylist(rows, schema=PAGES_SCHEMA), fname, row_group_size=1024
        )
        files.append(fname)
    return files


class ExtractionWorkload:
    """Pages parquet through ``pipelines`` into a digest or a write sink."""

    def __init__(self, name: str, seed: int, work: str, n_docs: int, html_only: bool,
                 write: bool):
        self.name = name
        self.seed = seed
        self.work = work
        self.n_docs = n_docs
        self.html_only = html_only
        self.write = write
        self.files: list[str] = []
        self.warm_files: list[str] = []
        self.expected: dict[str, str] = {}
        self.lanes: dict[str, dict] = {}
        self.serial_s = 0.0

    def _indices(self, start: int, n: int) -> list[int]:
        out, i = [], start
        while len(out) < n:
            if not self.html_only or i % 10 <= 6:
                out.append(i)
            i += 1
        return out

    def make_inputs(self) -> None:
        idx = self._indices(0, self.n_docs)
        self.files = _write_pages(os.path.join(self.work, "pages"), idx, self.seed)
        warm = self._indices(idx[-1] + 1, WARMUP_ROWS)
        self.warm_files = _write_pages(os.path.join(self.work, "warm"), warm, self.seed)

    def reference(self) -> None:
        """Serial ``kernel.extract_document`` over the rows the program
        reads: the expected text sha per url, and per-lane shares."""
        from pdf_extractor_ray.kernel import extract_document

        self.lanes = {
            lane: {"docs": 0, "bytes": 0, "kernel_s": 0.0} for lane in LANES
        }
        table = pa.concat_tables(pq.read_table(f, columns=PAGE_COLUMNS) for f in self.files)
        for row in table.to_pylist():
            t0 = time.perf_counter()
            out = extract_document(
                row["url"], row["warc_ts"], row["html"], row["text"], row["lang"]
            )
            dt = time.perf_counter() - t0
            self.serial_s += dt
            nbytes = len(row["html"] or b"")
            lane = self.lanes.setdefault(
                lane_of(out["kind"], nbytes), {"docs": 0, "bytes": 0, "kernel_s": 0.0}
            )
            lane["docs"] += 1
            lane["bytes"] += nbytes
            lane["kernel_s"] += dt
            self.expected[row["url"]] = measure.text_sha(out["extracted_text"])

    def properties(self) -> dict:
        """Share of documents, payload bytes and serial kernel time per lane."""
        tot = {k: sum(v[k] for v in self.lanes.values()) or 1 for k in ("docs", "bytes", "kernel_s")}
        return {
            lane: {k: v[k] / tot[k] for k in ("docs", "bytes", "kernel_s")}
            for lane, v in self.lanes.items()
            if v["docs"]
        }

    def _pass(self, files: list[str], out_dir: str, datasets: list | None = None):
        """One pass; returns the digest rows (html_small) or None (the
        rows are in ``out_dir``). ``datasets`` receives every dataset the
        pass executed."""
        from pdf_extractor_ray import pipelines
        from pdf_extractor_ray.pipelines import extract_pipeline

        if not self.write:
            ds = pipelines.extract_pages(files).map_batches(digest_batch, batch_format="pyarrow")
            if datasets is not None:
                datasets.append(ds)
            return ds.take_all()
        if datasets is None:
            pipelines.run_resumable_extraction(files, out_dir)
            return None
        # run_resumable_extraction builds one dataset per partition
        real = extract_pipeline.extract_pages

        def capture(*args, **kwargs):
            datasets.append(real(*args, **kwargs))
            return datasets[-1]

        extract_pipeline.extract_pages = capture
        try:
            pipelines.run_resumable_extraction(files, out_dir)
        finally:
            extract_pipeline.extract_pages = real
        return None

    def warmup(self) -> None:
        out = os.path.join(self.work, "warm-out")
        shutil.rmtree(out, ignore_errors=True)
        self._pass(self.warm_files, out)

    def run_pass(self, k: int, stats: list[str] | None = None) -> dict:
        """One timed pass, then its check. ``stats`` receives the
        ``ds.stats()`` text of every dataset the pass executed."""
        out = os.path.join(self.work, f"out-{k}")
        datasets: list | None = [] if stats is not None else None
        t0 = time.perf_counter()
        rows = self._pass(self.files, out, datasets)
        wall = time.perf_counter() - t0
        if stats is not None:
            stats.extend(ds.stats() for ds in datasets)
        if self.write:
            t = pads.dataset(out, format="parquet").to_table(
                columns=["url", "status", "extracted_text"]
            )
            rows = [
                {"url": u, "status": s, "sha": measure.text_sha(x)}
                for u, s, x in zip(
                    t["url"].to_pylist(), t["status"].to_pylist(),
                    t["extracted_text"].to_pylist(),
                )
            ]
            shutil.rmtree(out)
        failed = measure.extraction_failures(
            self.expected, ((r["url"], r["status"], r["sha"]) for r in rows)
        )
        n = len(self.expected)
        return {"docs": n, "wall_s": wall, "attempted": n, "failed": failed}


def pretrain_input(docs_path: str):
    """The pretrain_corpus gate's input: every document, an exact copy of
    every 10th (id + 1_000_000) and a near copy of every 7th (id +
    2_000_000, one word appended)."""
    import ray.data

    docs = ray.data.read_parquet(docs_path, columns=["doc_id", "text", "lang"])

    def dup_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dups = batch.filter(pa.array(ids % 10 == 0))
        return pa.table(
            {
                "doc_id": pc.add(dups["doc_id"], 1_000_000),
                "text": dups["text"],
                "lang": dups["lang"],
            }
        )

    def near_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        near = batch.filter(pa.array(ids % 7 == 0))
        return pa.table(
            {
                "doc_id": pc.add(near["doc_id"], 2_000_000),
                "text": pc.binary_join_element_wise(
                    near["text"], pa.scalar("graftpad"), " "
                ),
                "lang": near["lang"],
            }
        )

    return docs.union(
        docs.map_batches(dup_rows, batch_format="pyarrow"),
        docs.map_batches(near_rows, batch_format="pyarrow"),
    )


def eval_set(docs_path: str):
    """The gate's decontamination eval set: documents 0..19."""
    import ray.data

    def first_twenty(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < 20))

    return ray.data.read_parquet(docs_path, columns=["doc_id", "text"]).map_batches(
        first_twenty, batch_format="pyarrow"
    )


def gate_batch(batch: pa.Table) -> pa.Table:
    """The chain's quality gate on one batch; also imports every module
    of the chain, so the warm-up leaves them loaded in the worker."""
    from pdf_extractor_ray.functions import (  # noqa: F401
        binexport, decontaminate, dedup, graph, mixture, packing, pretrain,
    )
    from pdf_extractor_ray.functions.quality import gopher_stats_batch

    return batch.filter(gopher_stats_batch(batch, text_col="text", min_stopwords=1)["passes"])


class PretrainWorkload:
    """``functions.pretrain.pretrain_corpus_chain`` over a fixed table.

    The input is the committed gate table, so the seed is ignored and the
    output manifest can be pinned."""

    name = "pretrain_chain"

    def __init__(self, work: str):
        self.work = work
        self.docs_path = os.path.join(DATA_DIR, "documents.parquet")
        self.files = [self.docs_path]
        self.write = False
        self.n_docs = 0
        self.serial_s = 0.0

    def make_inputs(self) -> None:
        ids = pq.read_table(self.docs_path, columns=["doc_id"])["doc_id"].to_numpy()
        self.n_docs = int(len(ids) + (ids % 10 == 0).sum() + (ids % 7 == 0).sum())

    def reference(self) -> None:
        pass

    def properties(self) -> dict:
        return {}

    def warmup(self) -> None:
        import ray.data

        ray.data.read_parquet(self.docs_path).limit(BATCH_ROWS).map_batches(
            gate_batch, batch_format="pyarrow"
        ).take_all()

    def chain(self, out_dir: str, collect_stats: list | None = None):
        from pdf_extractor_ray.functions.pretrain import pretrain_corpus_chain

        return pretrain_corpus_chain(
            pretrain_input(self.docs_path), eval_set(self.docs_path), out_dir,
            collect_stats=collect_stats,
        )

    def check(self, manifest, out_dir: str) -> bool:
        rows = manifest.to_dict("records")
        audit = measure.bin_shard_manifest(out_dir, [int(r["shard"]) for r in rows])
        return measure.manifest_ok(rows, audit, PINNED_MANIFEST)

    def run_pass(self, k: int, stats: list[str] | None = None) -> dict:
        out = os.path.join(self.work, f"bins-{k}")
        tagged: list | None = [] if stats is not None else None
        t0 = time.perf_counter()
        manifest = self.chain(out, tagged)
        wall = time.perf_counter() - t0
        ok = self.check(manifest, out)
        shutil.rmtree(out)
        if stats is not None:
            stats.extend(text for _, text in tagged)
        return {"docs": self.n_docs, "wall_s": wall, "attempted": 1, "failed": 0 if ok else 1}


def make(name: str, seed: int, work: str):
    if name == "html_small":
        return ExtractionWorkload(name, seed, work, HTML_SMALL_DOCS, html_only=True, write=False)
    if name == "cc_mix_write":
        return ExtractionWorkload(name, seed, work, CC_MIX_DOCS, html_only=False, write=True)
    if name == "pretrain_chain":
        return PretrainWorkload(work)
    raise ValueError(f"unknown workload {name!r}")

