"""The traced run: per-layer numbers from spans recorded around calls
into each layer's public functions.

Spans are recorded from the benchmark's side only. Where a layer is
reached through another layer's function (the kernel lanes inside
``kernel.extract_document``, the chain's operators inside
``pretrain_corpus_chain``), the call goes through a wrapper that this
module puts in place of the module attribute for the length of the
traced pass and removes afterwards. Spans are kept in memory and
written when the run ends.

A span's self time is its duration minus its direct children's
durations; children run one after another in this single thread, so
they never overlap. The self times under the ``pass`` span add up to
the traced wall; the ``pass`` span's own self time is the remainder no
layer claims.
"""

from __future__ import annotations

import contextlib
import os
import re
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import measure, workloads

LANE_METRICS = [
    (f"kernel.{lane}.{m}", unit, better)
    for lane in workloads.LANES
    for m, unit, better in (
        ("docs", "count", "higher"),
        ("bytes", "bytes", "higher"),
        ("ms_per_doc_p50", "ms", "lower"),
        ("ms_per_doc_p99", "ms", "lower"),
    )
]

CHAIN_STAGES = (
    "quality_gate", "exact_dedup", "minhash", "components", "survivors",
    "decontaminate", "mixture", "packing", "binexport",
)

# (name, unit, better) of every per-layer metric; BENCHMARK.json's
# per_layer list is this list.
PER_LAYER = [
    ("sources.read_s", "s", "lower"),
    ("sources.bytes_read", "bytes", "lower"),
    ("sources.rows_read", "count", "higher"),
    ("stages.arrow_to_py_s", "s", "lower"),
    ("stages.py_to_arrow_s", "s", "lower"),
    ("stages.extract_batch_s", "s", "lower"),
    ("stages.batches", "count", "lower"),
    ("kernel.route_s", "s", "lower"),
    ("kernel.html_to_md_s", "s", "lower"),
    ("kernel.md_extract_s", "s", "lower"),
    ("kernel.token_count_s", "s", "lower"),
    ("kernel.pdfshape_s", "s", "lower"),
    ("kernel.assemble_s", "s", "lower"),
    ("kernel.serial_s", "s", "lower"),
    ("kernel.elements", "count", "higher"),
    ("kernel.tokens", "count", "higher"),
    *LANE_METRICS,
    ("pipelines.identity_pass_s", "s", "lower"),
    ("pipelines.overhead_s", "s", "lower"),
    ("pipelines.kernel_efficiency", "ratio", "higher"),
    ("pipelines.tasks", "count", "lower"),
    ("pipelines.blocks", "count", "lower"),
    ("state.write_partition_s", "s", "lower"),
    ("state.bytes_written", "bytes", "lower"),
    ("state.partitions", "count", "lower"),
    *[
        (f"functions.{stage}{suffix}", unit, better)
        for stage in CHAIN_STAGES
        for suffix, unit, better in (
            ("_s", "s", "lower"),
            (".rows_in", "count", "higher"),
            (".rows_out", "count", "higher"),
        )
    ],
    ("functions.minhash.candidate_pairs", "count", "lower"),
    ("functions.minhash.verified_pairs", "count", "higher"),
    ("functions.minhash.useful_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# The per-layer metrics on the result line, which BENCHMARK.json lists.
# Left out: the times of lanes and layers that html_small never runs
# (they would read a constant 0 on every html_small run), the empty lane
# (an empty payload in the corpus always carries upstream text, so it
# routes to the text lane) and the functions layer, which only
# pretrain_chain runs. The trace file keeps every metric.
_NOT_REPORTED = {
    "kernel.pdfshape_s",
    "state.write_partition_s",
    *(f"kernel.{lane}.{m}" for lane in ("giant", "pdf", "text")
      for m in ("ms_per_doc_p50", "ms_per_doc_p99")),
}
REPORTED = [
    m for m in PER_LAYER
    if m[0] not in _NOT_REPORTED
    and not m[0].startswith(("kernel.empty.", "functions."))
]

# untraced/traced pass pairs, and identity passes; two keep an html_small
# trace run near a minute
REPS = 2
_STATS_RE = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")


class Tracer:
    """In-memory span recorder for one workload's traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, ids: set[int] | None = None) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds and self seconds,
        over the spans in ``ids`` (default all)."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if ids is not None and s["id"] not in ids:
                continue
            t = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            t["calls"] += 1
            t["total_s"] += dur
            t["self_s"] += dur - child_s[s["id"]]
        return out

    def accounting(self, root: str = "pass") -> dict:
        """Self times of every span under the single ``root`` span. They
        add up to its wall; the root's own self time is the remainder."""
        (rid,) = [s["id"] for s in self.spans if s["name"] == root]
        inside = {rid}
        for s in self.spans[rid + 1 :]:
            if s["parent"] in inside:
                inside.add(s["id"])
        tot = self.totals(inside)
        return {
            "wall_s": tot[root]["total_s"],
            "remainder_s": tot[root]["self_s"],
            "self_s": {k: v["self_s"] for k, v in tot.items()},
        }


@contextlib.contextmanager
def _patched(targets):
    """Replace (module, attribute) -> wrapper for the ``with`` body."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    for mod, attr, fn in targets:
        setattr(mod, attr, fn)
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _timed(tr: Tracer, name: str, fn):
    def call(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    return call


def _null_span(name: str):
    return contextlib.nullcontext({})


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _stats_counts(stats_texts: list[str]) -> tuple[int, int]:
    tasks = blocks = 0
    for text in stats_texts:
        for t, b in _STATS_RE.findall(text):
            tasks += int(t)
            blocks += int(b)
    return tasks, blocks


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


def _identity_pass(files: list[str], out_dir: str | None) -> float:
    """read_parquet -> map_batches(identity) -> the workload's sink."""
    import ray.data

    t0 = time.perf_counter()
    ds = ray.data.read_parquet(files).map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=workloads.BATCH_ROWS
    )
    if out_dir is not None:
        ds.write_parquet(out_dir)
    else:
        ds.map_batches(
            lambda b: pa.table({"n": [b.num_rows]}), batch_format="pyarrow"
        ).take_all()
    return time.perf_counter() - t0


def _pipeline_metrics(wl, work: str, ray_wall: float, serial_s: float) -> dict:
    walls = []
    for k in range(REPS):
        out = os.path.join(work, f"identity-{k}") if wl.write else None
        walls.append(_identity_pass(wl.files, out))
    return {
        "pipelines.identity_pass_s": statistics.median(walls),
        "pipelines.overhead_s": ray_wall - serial_s if serial_s else 0.0,
        "pipelines.kernel_efficiency": serial_s / ray_wall if serial_s else 0.0,
    }


# ---------------------------------------------------------------- extraction


def _extraction_pass(wl, tr: Tracer | None, batches: list | None = None) -> float:
    """One single-process pass over the input: pyarrow read, then
    ``stages.extract_batch`` per 128-row batch, then the workload's
    in-process sink (the digest for html_small; cc_mix_write's writes
    are timed separately in the state layer)."""
    from pdf_extractor_ray.stages.extract_stage import extract_batch

    span = tr.span if tr else _null_span
    t0 = time.perf_counter()
    with span("pass"):
        with span("sources.read"):
            tables = [pq.read_table(f, columns=workloads.PAGE_COLUMNS) for f in wl.files]
        for table in tables:
            for rb in table.to_batches(max_chunksize=workloads.BATCH_ROWS):
                batch = pa.Table.from_batches([rb])
                if batches is not None:
                    batches.append((batch, []))
                with span("stages.extract_batch"):
                    out = extract_batch(batch)
                if not wl.write:
                    with span("sink.digest"):
                        workloads.digest_batch(out)
    return time.perf_counter() - t0


def _traced_extraction_pass(wl, tr: Tracer) -> tuple[float, list, list]:
    """The single-process pass with the kernel's lane functions wrapped.
    Returns its wall, the (input batch, output rows) pairs and per
    document (lane, payload bytes, seconds)."""
    import pdf_extractor_ray.kernel.extract as kx
    import pdf_extractor_ray.stages.extract_stage as stage

    batches: list = []
    per_doc: list[tuple[str, int, float]] = []
    real_doc = stage.extract_document

    def doc(url, warc_ts, html, text, lang=None, **kwargs):
        with tr.span("kernel.extract_document") as rec:
            out = real_doc(url, warc_ts, html, text, lang, **kwargs)
        nbytes = len(html) if html else 0
        per_doc.append((workloads.lane_of(out["kind"], nbytes), nbytes, rec["end"] - rec["start"]))
        batches[-1][1].append(out)
        return out

    with _patched(
        [
            (stage, "extract_document", doc),
            (kx, "route_payload", _timed(tr, "kernel.route", kx.route_payload)),
            (kx, "html_to_markdown", _timed(tr, "kernel.html_to_md", kx.html_to_markdown)),
            (kx, "extract_from_markdown_text",
             _timed(tr, "kernel.md_extract", kx.extract_from_markdown_text)),
            (kx, "extract_pdf_document", _timed(tr, "kernel.pdfshape", kx.extract_pdf_document)),
        ]
    ):
        wall = _extraction_pass(wl, tr, batches)
    return wall, batches, per_doc


def _trace_extraction(wl, work: str) -> tuple[dict, bool, Tracer]:
    from pdf_extractor_ray.kernel.textutils import token_count
    from pdf_extractor_ray.stages.extract_stage import EXTRACT_SCHEMA

    # untraced and traced passes alternate, so a drift in host speed
    # hits both sides of the overhead alike; the last traced pass's
    # spans are kept
    untraced, traced = [], []
    for _ in range(REPS):
        untraced.append(_extraction_pass(wl, None))
        tr = Tracer(wl.name)
        wall, batches, per_doc = _traced_extraction_pass(wl, tr)
        traced.append(wall)

    # replays of the steps extract_batch does inline, on the same batches
    n_elements = n_tokens = 0
    with tr.span("replay.stages.arrow_to_py"):
        for batch, _ in batches:
            for col in workloads.PAGE_COLUMNS:
                batch[col].to_pylist()
    with tr.span("replay.stages.py_to_arrow"):
        for _, rows in batches:
            pa.Table.from_pylist(rows, schema=EXTRACT_SCHEMA)
    with tr.span("replay.kernel.token_count"):
        for _, rows in batches:
            for r in rows:
                for e in r["elements"]:
                    n_tokens += token_count(e["content"])
                n_elements += len(r["elements"])

    tot = tr.totals()

    def total(name: str) -> float:
        return tot.get(name, {}).get("total_s", 0.0)

    m = {
        "sources.read_s": total("sources.read"),
        "sources.bytes_read": sum(os.path.getsize(f) for f in wl.files),
        "sources.rows_read": sum(len(rows) for _, rows in batches),
        "stages.arrow_to_py_s": total("replay.stages.arrow_to_py"),
        "stages.py_to_arrow_s": total("replay.stages.py_to_arrow"),
        "stages.extract_batch_s": total("stages.extract_batch"),
        "stages.batches": len(batches),
        "kernel.route_s": total("kernel.route"),
        "kernel.html_to_md_s": total("kernel.html_to_md"),
        "kernel.md_extract_s": total("kernel.md_extract"),
        "kernel.token_count_s": total("replay.kernel.token_count"),
        "kernel.pdfshape_s": total("kernel.pdfshape"),
        "kernel.assemble_s": tot.get("kernel.extract_document", {}).get("self_s", 0.0),
        "kernel.serial_s": wl.serial_s,
        "kernel.elements": n_elements,
        "kernel.tokens": n_tokens,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    for lane in workloads.LANES:
        ms = sorted(dt * 1000 for ln, _, dt in per_doc if ln == lane)
        m[f"kernel.{lane}.docs"] = len(ms)
        m[f"kernel.{lane}.bytes"] = sum(b for ln, b, _ in per_doc if ln == lane)
        m[f"kernel.{lane}.ms_per_doc_p50"] = _pct(ms, 50)
        m[f"kernel.{lane}.ms_per_doc_p99"] = _pct(ms, 99)

    ok = 0 == measure.extraction_failures(
        wl.expected,
        ((r["url"], r["status"], measure.text_sha(r["extracted_text"]))
         for _, rows in batches for r in rows),
    )
    if wl.write:
        m_state, state_ok = _trace_state(wl, tr, work)
        m.update(m_state)
        ok = ok and state_ok
    return m, ok, tr


def _trace_state(wl, tr: Tracer, work: str) -> tuple[dict, bool]:
    """``state.write_partition_with_lineage`` on already-materialized
    extraction output, one partition per input file, as
    ``run_resumable_extraction`` partitions it."""
    import pyarrow.dataset as pads

    from pdf_extractor_ray.pipelines import extract_pages
    from pdf_extractor_ray.state import lineage

    out = os.path.join(work, "state-out")
    for pid, f in enumerate(wl.files):
        with tr.span("pipelines.materialize"):
            ds = extract_pages([f]).materialize()
        with tr.span("state.write_partition"):
            lineage.write_partition_with_lineage(ds, out, pid, input_files=[f])
    t = pads.dataset(out, format="parquet").to_table(columns=["url", "status", "extracted_text"])
    failed = measure.extraction_failures(
        wl.expected,
        zip(t["url"].to_pylist(), t["status"].to_pylist(),
            map(measure.text_sha, t["extracted_text"].to_pylist())),
    )
    m = {
        "state.write_partition_s": tr.totals()["state.write_partition"]["total_s"],
        "state.bytes_written": _dir_bytes(out),
        "state.partitions": len(lineage.read_lineage(out)),
    }
    return m, failed == 0


# ------------------------------------------------------------------ pretrain


def _trace_pretrain(wl, work: str, untraced: float) -> tuple[dict, bool, Tracer]:
    """The real ``pretrain_corpus_chain`` with each operator it calls
    wrapped: the wrapper materializes the operator's output inside the
    operator's span and counts its rows. The quality gate is fused into
    exact dedup's input inside the chain, so it is also run once on its
    own, calling ``quality.gopher_stats_batch`` as the chain does."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from pdf_extractor_ray.functions import (
        binexport, decontaminate, dedup, graph, mixture, packing, pretrain,
    )

    tr = Tracer(wl.name)
    rows: dict[str, dict] = {}

    def stage(name: str, fn):
        def call(*args, **kwargs):
            with tr.span(f"functions.{name}"):
                out = fn(*args, **kwargs)
                if isinstance(out, ray.data.Dataset):
                    out = out.materialize()
                    n_out = out.count()
                else:
                    n_out = len(out)
            # a lazy input's rows are not known without running it again
            src = args[0] if args else None
            n_in = src.count() if isinstance(src, MaterializedDataset) else 0
            r = rows.setdefault(name, {"rows_in": 0, "rows_out": 0})
            r["rows_in"] += n_in
            r["rows_out"] += n_out
            return out

        return call

    with tr.span("sources.read"):
        table = pq.read_table(wl.docs_path)
    with tr.span("functions.quality_gate"):
        corpus = workloads.pretrain_input(wl.docs_path).materialize()
        gated = corpus.map_batches(workloads.gate_batch, batch_format="pyarrow").materialize()
    rows["quality_gate"] = {"rows_in": corpus.count(), "rows_out": gated.count()}

    out = os.path.join(work, "bins-traced")
    with _patched(
        [
            (dedup, "exact_dedup", stage("exact_dedup", dedup.exact_dedup)),
            (dedup, "minhash_dedup_pairs", stage("minhash", dedup.minhash_dedup_pairs)),
            (dedup, "minhash_candidates",
             stage("minhash_candidates", dedup.minhash_candidates)),
            (graph, "connected_components", stage("components", graph.connected_components)),
            (pretrain, "drop_rows_by_ids", stage("survivors", pretrain.drop_rows_by_ids)),
            (decontaminate, "strip_contaminated_spans",
             stage("decontaminate", decontaminate.strip_contaminated_spans)),
            (mixture, "select_mixture", stage("mixture", mixture.select_mixture)),
            (packing, "token_stream_chunks", stage("packing", packing.token_stream_chunks)),
            (binexport, "export_token_bin_shards",
             stage("binexport", binexport.export_token_bin_shards)),
            (binexport, "read_token_bin_manifest",
             stage("binexport_audit", binexport.read_token_bin_manifest)),
        ]
    ):
        with tr.span("pass"):
            manifest = wl.chain(out)
    ok = wl.check(manifest, out)

    tot = tr.totals()
    # exact dedup's input is the gated corpus; its rows are not
    # materialized inside the chain
    rows["exact_dedup"]["rows_in"] = rows["quality_gate"]["rows_out"]
    # likewise packing's input, the tokenized mixture selection
    rows["packing"]["rows_in"] = rows["mixture"]["rows_out"]
    m = {
        "sources.read_s": tot["sources.read"]["total_s"],
        "sources.bytes_read": os.path.getsize(wl.docs_path),
        "sources.rows_read": table.num_rows,
        "trace.overhead_s": tot["pass"]["total_s"] - untraced,
    }
    for name in CHAIN_STAGES:
        m[f"functions.{name}_s"] = tot.get(f"functions.{name}", {}).get("total_s", 0.0)
        m[f"functions.{name}.rows_in"] = rows.get(name, {}).get("rows_in", 0)
        m[f"functions.{name}.rows_out"] = rows.get(name, {}).get("rows_out", 0)
    # binexport's audit is part of stage 7
    m["functions.binexport_s"] += tot.get("functions.binexport_audit", {}).get("total_s", 0.0)
    cand = rows.get("minhash_candidates", {}).get("rows_out", 0)
    verified = rows.get("minhash", {}).get("rows_out", 0)
    m["functions.minhash.candidate_pairs"] = cand
    m["functions.minhash.verified_pairs"] = verified
    m["functions.minhash.useful_ratio"] = verified / cand if cand else 0.0
    return m, ok, tr


# ---------------------------------------------------------------------- run


def run(wl, work: str, ray_walls: list[float], stats_texts: list[str]) -> tuple[dict, dict, bool]:
    """Traced run of one workload in the live Ray session.

    Returns (per-layer metrics, trace record for the results file, ok)."""
    ray_median = statistics.median(ray_walls)
    if wl.name == "pretrain_chain":
        m, ok, tr = _trace_pretrain(wl, work, ray_median)
    else:
        m, ok, tr = _trace_extraction(wl, work)
    m.update(_pipeline_metrics(wl, work, ray_median, wl.serial_s))
    m["pipelines.tasks"], m["pipelines.blocks"] = _stats_counts(stats_texts)
    acc = tr.accounting("pass")
    m["trace.wall_s"] = acc["wall_s"]
    m["trace.remainder_s"] = acc["remainder_s"]
    metrics = {name: m.get(name, 0) for name, _, _ in PER_LAYER}
    record = {
        "workload": wl.name,
        "metrics": metrics,
        "accounting": acc,
        "totals": tr.totals(),
        "spans": tr.spans,
    }
    return metrics, record, ok
