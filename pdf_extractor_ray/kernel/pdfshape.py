"""PDF-layout extraction kernel over "pdf-shaped" payloads.

Real PDF parsing libraries (PyMuPDF/Camelot/pdfminer) are unavailable in
this environment, so PDF payloads in the corpus are *synthetic
structured layout records*: JSON documents of pages -> blocks with
bboxes, text spans, and table cell grids (FIXTURES.md F1). This kernel
implements the reference's layout-processing semantics over that shape:

  - reading-order reconstruction: blocks sorted top-to-bottom then
    left-to-right by bbox (the order PyMuPDF's "text" extraction yields;
    corpus_utils.py:121-131 concatenates pages in that order)
  - text-span merging: a text block's spans joined into one paragraph
  - table cell-grid detection: {row, col, text} cells -> dense
    list[list[str]] grid, the TableData shape of
    context7/pdf_extractor/type_definitions.py:37-45, with positional
    ids (context7/marker_processor.py:110-125 — uuid4 in the top-level
    copy is deliberately replaced for determinism, SURVEY.md §7.4)
  - quality metrics subset: completeness / consistency / whitespace /
    accuracy -> confidence, drop below LOW_CONFIDENCE_THRESHOLD=75.0
    (table_extraction.py:411-433, context7/config.py:37)
  - surrounding-text capture: nearest text block fully above / below the
    table bbox on the same page (table_extraction.py:447-451)
  - multi-page table merge fold (improved_table_merger semantics, see
    kernel/tables.py)

The page walk feeds its blocks (page markers, headings, paragraphs,
images and tables with their cell rows) into the markdown scanner, as
the html lane feeds the tag walk's, so every lane emits the same
element rows; a table's rich record goes into the metadata of the rows
its own block emits.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from pdf_extractor_ray.kernel.markdown_extract import _Scanner
from pdf_extractor_ray.kernel.tables import (
    parse_table_data,
    process_and_merge_tables,
)

__all__ = [
    "extract_pdf_document",
    "table_quality",
    "is_scanned_pdf",
    "ocr_preprocess",
    "CAMELOT_PARAMETER_SETS",
    "param_set_accuracy",
    "find_best_table_extraction",
]

from pdf_extractor_ray.config import CONFIG

LOW_CONFIDENCE_THRESHOLD = CONFIG.table_confidence_floor

# Scanned-PDF detection thresholds (context7/pdf_extractor/config.py:34-36:
# check at most 5 pages; a page with < 100 chars of text layer counts as
# image-only). Env-overridable via GRAFT_SCANNED_* (config.py).
SCANNED_CHECK_MAX_PAGES = CONFIG.scanned_check_max_pages
SCANNED_MIN_CHARS_PER_PAGE = CONFIG.scanned_min_chars_per_page


def _page_text_chars(page: dict[str, Any]) -> int:
    total = 0
    for block in page.get("blocks") or []:
        if block.get("type") == "text":
            for span in block.get("spans") or []:
                total += len(str(span.get("text", "")))
        elif block.get("type") == "heading":
            total += len(str(block.get("text", "")))
    return total


def is_scanned_pdf(doc: dict[str, Any]) -> bool:
    """True iff the document has no usable text layer (M13,
    table_extraction.py:177-187): every checked page (first
    ``SCANNED_CHECK_MAX_PAGES``) carries fewer than
    ``SCANNED_MIN_CHARS_PER_PAGE`` characters of text."""
    pages = (doc.get("pages") or [])[:SCANNED_CHECK_MAX_PAGES]
    if not pages:
        return False
    return all(_page_text_chars(p) < SCANNED_MIN_CHARS_PER_PAGE for p in pages)


def ocr_preprocess(doc: dict[str, Any]) -> dict[str, Any]:
    """OCR tier for scanned documents (M14, table_extraction.py:189-208).

    The real pipeline rasterizes pages at 200 dpi and runs tesseract;
    neither pdf2image nor pytesseract exists in this environment, so the
    recognizer is a DETERMINISTIC FAKE: each image block that carries an
    ``ocr_text`` field (the synthetic corpus's stand-in for pixels)
    becomes a text block, tagged ``source: "ocr"``. The surrounding
    plumbing — detection, page walk and synthetic-text-layer rebuild —
    is real; swapping in tesseract is a
    one-function change here.
    """
    out_pages = []
    for page in doc.get("pages") or []:
        blocks = []
        for block in page.get("blocks") or []:
            if block.get("type") == "image" and block.get("ocr_text"):
                blocks.append(
                    {
                        "type": "text",
                        "bbox": block.get("bbox") or [0, 0, 0, 0],
                        "spans": [{"text": str(block["ocr_text"])}],
                        "source": "ocr",
                    }
                )
            else:
                blocks.append(block)
        out_pages.append({**page, "blocks": blocks})
    return {**doc, "pages": out_pages, "ocr_applied": True}


def _reading_order(blocks: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Top-to-bottom, then left-to-right by bbox origin (y rounded to
    whole points so same-line blocks order by x)."""
    def key(b: dict[str, Any]):
        bbox = b.get("bbox") or [0.0, 0.0, 0.0, 0.0]
        return (round(float(bbox[1])), float(bbox[0]))

    return sorted(blocks, key=key)


# Densification bound: a corrupt/adversarial cell index like row=10^9
# would otherwise allocate a gigarow grid and OOM the worker (poison
# rows must cost O(their data), never O(their claimed indices)). Real
# extracted tables are orders of magnitude below this.
MAX_GRID_DIM = CONFIG.max_grid_dim

# The same rule for a heading's claimed level, which renders as a '#'
# run: levels above 6 already come out as text, so deeper ones are
# rendered at this depth.
MAX_HEADING_LEVEL = 16


# A grid may densify to at most this many slots per kept cell — the
# AREA bound that the per-dimension MAX_GRID_DIM check alone cannot
# give (a single poison cell {row: 9999, col: 9999} passes both
# dimension checks yet claims a 10k x 10k = 100M-slot grid).
GRID_AREA_PER_CELL = 64
GRID_AREA_FLOOR = 1024


def _cells_to_grid(cells: list[dict[str, Any]]) -> list[list[str]]:
    """Sparse {row, col, text} cells -> dense row-major grid ('' fill).
    Cells with out-of-bound indices (>= MAX_GRID_DIM, or negative) are
    dropped rather than densified, and the grid AREA is bounded
    relative to the number of cells: cells are sorted by their
    outermost index and the kept prefix is the longest whose implied
    area fits max(GRID_AREA_FLOOR, GRID_AREA_PER_CELL * kept) — poison
    rows cost O(their data), never O(their claimed indices)."""
    if not cells:
        return []
    cells = [
        c
        for c in cells
        if 0 <= int(c["row"]) < MAX_GRID_DIM and 0 <= int(c["col"]) < MAX_GRID_DIM
    ]
    if not cells:
        return []
    cells = sorted(
        cells, key=lambda c: (max(int(c["row"]), int(c["col"])), int(c["row"]), int(c["col"]))
    )
    keep = 0
    max_r = max_c = -1
    for c in cells:
        r, cc = int(c["row"]), int(c["col"])
        nr, nc = max(max_r, r), max(max_c, cc)
        if (nr + 1) * (nc + 1) > max(GRID_AREA_FLOOR, GRID_AREA_PER_CELL * (keep + 1)):
            break
        max_r, max_c = nr, nc
        keep += 1
    cells = cells[:keep]
    if not cells:
        return []
    n_rows, n_cols = max_r + 1, max_c + 1
    grid = [["" for _ in range(n_cols)] for _ in range(n_rows)]
    for c in cells:
        grid[int(c["row"])][int(c["col"])] = str(c.get("text", ""))
    return grid


def table_quality(data: list[list[str]], accuracy: float) -> dict[str, float]:
    """Quality metric subset: completeness (non-empty cell ratio),
    consistency (modal-arity row ratio), whitespace ratio, and their
    blend with the parser-reported accuracy into a confidence score."""
    if not data:
        return {
            "completeness": 0.0, "consistency": 0.0,
            "whitespace": 0.0, "accuracy": accuracy, "confidence": 0.0,
        }
    n_cells = sum(len(r) for r in data)
    non_empty = sum(1 for r in data for c in r if c.strip())
    completeness = non_empty / n_cells if n_cells else 0.0
    arities = [len(r) for r in data]
    modal = max(set(arities), key=arities.count)
    consistency = sum(1 for a in arities if a == modal) / len(arities)
    total_chars = sum(len(c) for r in data for c in r)
    ws_chars = sum(c.count(" ") for r in data for c in r)
    whitespace = 1.0 - (ws_chars / total_chars if total_chars else 0.0)
    confidence = (
        0.25 * completeness * 100
        + 0.25 * consistency * 100
        + 0.1 * whitespace * 100
        + 0.4 * accuracy
    )
    return {
        "completeness": round(completeness, 4),
        "consistency": round(consistency, 4),
        "whitespace": round(whitespace, 4),
        "accuracy": accuracy,
        "confidence": round(confidence, 2),
    }


# Camelot per-page parameter search (reference table_extraction.py:
# 544-575 read_tables_from_page: corrections-cache lookup ->
# find_best_table_extraction over candidate parameter sets, keep best
# by quality score -> save_parameters writes {parameters, accuracy
# list} per page to the corrections JSON, :637-654). The candidate
# grid below is the standard Camelot sweep: lattice at increasing
# line_scale, then stream with loosening tolerances.
CAMELOT_PARAMETER_SETS: tuple[dict[str, Any], ...] = (
    {"flavor": "lattice", "line_scale": 15},
    {"flavor": "lattice", "line_scale": 40},
    {"flavor": "lattice", "line_scale": 60, "process_background": True},
    {"flavor": "stream", "edge_tol": 50},
    {"flavor": "stream", "edge_tol": 500, "row_tol": 10},
)


def param_set_accuracy(page_key: str, idx: int) -> float:
    """Deterministic stand-in for the parser-reported accuracy of one
    (page, parameter-set) extraction attempt — Camelot is absent
    offline. Derivation is bytes 8..16 of md5 little-endian, i.e.
    DuckDB's ``md5_number_lower``, so a SQL oracle replays the whole
    search: ``md5_number_lower(key || ':' || idx) % 10000`` centi-%."""
    import hashlib

    h = hashlib.md5(f"{page_key}:{idx}".encode("utf-8")).digest()
    return (int.from_bytes(h[8:16], "little") % 10000) / 100.0


def find_best_table_extraction(
    page: dict[str, Any],
    page_key: str,
    corrections: Optional[dict[str, dict[str, Any]]] = None,
) -> dict[str, Any]:
    """Per-page parameter search with corrections-cache reuse.

    If ``corrections`` (the loaded corrections store: page_key ->
    saved entry) has this page, extract ONCE with the cached
    parameters and skip the search (reference ``load_parameters``
    branch); otherwise every ``CAMELOT_PARAMETER_SETS`` entry is
    attempted, each attempt's tables are scored with
    ``table_quality(...)['confidence']`` under that attempt's
    stand-in accuracy, and the best attempt wins (score desc, set
    index asc). Lattice attempts parse the block's cell grid; stream
    attempts parse ``stream_cells`` when the layout carries them
    (falling back to the lattice grid) — so a page whose stream
    variant is cleaner genuinely flips the winning flavor.

    Returns a corrections entry the caller persists (the
    ``save_parameters`` shape): ``parameters``, per-table
    ``accuracies``, mean ``accuracy``, mean ``confidence``,
    ``param_idx``, ``from_cache``, ``n_tables``.
    """
    blocks = [
        b for b in (page.get("blocks") or []) if b.get("type") == "table"
    ]

    def attempt(idx: int, params: dict[str, Any]) -> dict[str, Any]:
        acc = param_set_accuracy(page_key, idx)
        confs, accs, n_tables = [], [], 0
        for b in blocks:
            cells = b.get("cells") or []
            if params["flavor"] == "stream" and b.get("stream_cells"):
                cells = b["stream_cells"]
            grid = _cells_to_grid(cells)
            if not grid:
                continue
            n_tables += 1
            # compare on the UNROUNDED blend: table_quality's 2-dp
            # rounding can collapse attempts whose accuracies differ
            # by one centi-% into a tie, desyncing the winner from the
            # oracle's exact integer ordering
            q = table_quality(grid, acc)
            raw = (
                0.25 * q["completeness"] * 100
                + 0.25 * q["consistency"] * 100
                + 0.1 * q["whitespace"] * 100
                + 0.4 * acc
            )
            confs.append(raw)
            accs.append(acc)
        conf = sum(confs) / len(confs) if confs else 0.0
        return {
            "param_idx": idx,
            "parameters": dict(params),
            "accuracies": accs,
            "accuracy": round(sum(accs) / len(accs), 2) if accs else 0.0,
            "confidence": round(conf, 2),
            "_score": conf,
            "n_tables": n_tables,
        }

    if corrections and page_key in corrections:
        cached = corrections[page_key]
        idx = int(cached.get("param_idx", 0))
        out = attempt(idx, CAMELOT_PARAMETER_SETS[idx])
        out.pop("_score")
        out["from_cache"] = True
        return out

    best: Optional[dict[str, Any]] = None
    for idx, params in enumerate(CAMELOT_PARAMETER_SETS):
        a = attempt(idx, params)
        if best is None or a["_score"] > best["_score"]:
            best = a
    assert best is not None
    best.pop("_score")
    best["from_cache"] = False
    return best


def _nearest_text(
    blocks: list[dict[str, Any]], bbox: list[float], above: bool
) -> str:
    """Nearest text block strictly above (or below) the given bbox."""
    best: Optional[tuple[float, str]] = None
    for b in blocks:
        if b.get("type") != "text":
            continue
        bb = b.get("bbox") or [0, 0, 0, 0]
        text = " ".join(s.get("text", "") for s in b.get("spans", [])).strip()
        if not text:
            continue
        if above and bb[3] <= bbox[1]:
            dist = bbox[1] - bb[3]
        elif not above and bb[1] >= bbox[3]:
            dist = bb[1] - bbox[3]
        else:
            continue
        if best is None or dist < best[0]:
            best = (dist, text)
    return best[1] if best else ""


def extract_pdf_document(
    doc: dict[str, Any], merge_strategy: str = "conservative"
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Extract (element rows, table_records) from a parsed pdf-shaped doc.

    Table records carry the rich fields (bbox, accuracy, quality,
    above/below text, merge provenance); the element rows
    (``extract.ELEMENT_FIELDS``) carry the same tables as pipe-markdown
    content with the record in ``metadata_json["record"]``. The rows
    are not token-counted (``token_count`` None): ``extract_document``
    counts them.
    """
    # Scanned documents (no text layer) go through the OCR tier first
    # (table_extraction.py:225-229 branch): the rebuilt text layer then
    # flows through the exact same extraction below.
    if is_scanned_pdf(doc):
        doc = ocr_preprocess(doc)

    table_records: list[dict[str, Any]] = []
    # (page number, blocks in reading order, table id by block index)
    pages: list[tuple[int, list[dict[str, Any]], dict[int, str]]] = []
    # tables so far per page number: a number repeated across pages
    # goes on counting, so every table id is unique
    n_tables: dict[int, int] = {}

    for page in doc.get("pages") or []:
        page_no = int(page.get("page_number", 1))
        blocks = _reading_order(page.get("blocks") or [])
        table_ids: dict[int, str] = {}
        pages.append((page_no, blocks, table_ids))
        for k, block in enumerate(blocks):
            if block.get("type") != "table":
                continue
            grid = _cells_to_grid(block.get("cells") or [])
            if not grid:
                continue
            accuracy = float(block.get("accuracy", 100.0))
            flavor = "lattice"
            # Quality-driven re-extraction fallback (reference
            # context7/table_extractor.py:95-108: lattice accuracy < 80
            # -> retry the page with the stream flavor, keep whichever
            # parsed better). Camelot is absent offline, so the second
            # extraction attempt is the block's stream-variant record
            # (stream_cells / stream_accuracy — the deterministic
            # second-parser output baked into the layout JSON).
            if accuracy < CONFIG.stream_fallback_threshold and block.get(
                "stream_cells"
            ):
                s_grid = _cells_to_grid(block.get("stream_cells") or [])
                s_acc = float(block.get("stream_accuracy", 0.0))
                if s_grid and s_acc > accuracy:
                    grid, accuracy, flavor = s_grid, s_acc, "stream"
            quality = table_quality(grid, accuracy)
            bbox = [float(v) for v in (block.get("bbox") or [0, 0, 0, 0])]
            record = {
                "id": f"table_{page_no}_{n_tables.get(page_no, 0)}",
                "page": page_no,
                "data": grid,
                "accuracy": accuracy,
                "flavor": flavor,
                "bbox": bbox,
                "rows": len(grid),
                "cols": len(grid[0]) if grid else 0,
                "quality": quality,
                "quality_issues": [],
                "above_text": _nearest_text(blocks, bbox, above=True),
                "below_text": _nearest_text(blocks, bbox, above=False),
            }
            if quality["confidence"] < LOW_CONFIDENCE_THRESHOLD:
                record["quality_issues"].append(
                    f"low_confidence:{quality['confidence']}"
                )
            # J4 cross-validation vs an independent second detector
            # (reference table_extraction.py:454-500: IoU-intersect
            # each table with Image2Table / PyMuPDF find_tables /
            # Marker results; a miss records a quality issue but does
            # NOT drop the table). The second detector's records are
            # the layout doc's ``detector_tables`` (page + bbox) —
            # PyMuPDF is absent offline, so its output is baked into
            # the layout JSON the same way the stream variant is.
            detector = doc.get("detector_tables")
            if detector:
                from pdf_extractor_ray.kernel.tables import calculate_iou

                intersects = any(
                    d.get("page") == page_no
                    and d.get("bbox")
                    and calculate_iou(bbox, [float(v) for v in d["bbox"]]) > 0
                    for d in detector
                )
                if not intersects:
                    record["quality_issues"].append(
                        "No intersecting table with detector results"
                    )
            table_ids[k] = record["id"]
            n_tables[page_no] = n_tables.get(page_no, 0) + 1
            table_records.append(record)

    # Drop low-confidence tables (the reference's drop is ONLY the
    # accuracy/confidence floor, table_extraction.py:429-433 —
    # cross-validation misses are recorded, not fatal) then merge
    # multi-page continuations.
    kept = [
        t
        for t in table_records
        if not any(i.startswith("low_confidence") for i in t["quality_issues"])
    ]
    merged = process_and_merge_tables(kept, merge_strategy)

    return _page_rows(pages, {t["id"]: t for t in merged}), merged


def _record_json(record: dict[str, Any]) -> str:
    """The part of a table record its element rows carry, as JSON."""
    return json.dumps(
        {
            "id": record["id"],
            "page": record["page"],
            "bbox": record["bbox"],
            "accuracy": record["accuracy"],
            "rows": record["rows"],
            "cols": record["cols"],
            "is_multi_page": bool(record.get("is_multi_page", False)),
            "page_range": record.get("page_range", str(record["page"])),
            "quality": record["quality"],
            "above_text": record["above_text"],
            "below_text": record["below_text"],
            "parsed": parse_table_data(record["data"]),
        },
        sort_keys=True,
        ensure_ascii=False,
    )


def _page_rows(
    pages: list[tuple[int, list[dict[str, Any]], dict[int, str]]],
    merged_by_id: dict[str, dict[str, Any]],
) -> list[dict[str, Any]]:
    """The element rows of the pages, in reading order.

    Each page is a page marker, its blocks and an empty line, one blank
    line apart, as markdown would lay them out, so a page end is a gap
    of three lines and flushes text. A table renders once, at the block
    of its anchor record; a dropped table, or a continuation merged into
    an earlier anchor, renders nothing.
    """
    scanner = _Scanner(rows=True)
    out = scanner.out
    lineno = end = 1
    for n_page, (page_no, blocks, table_ids) in enumerate(pages, 1):
        scanner.lines([f"<!-- page: {page_no} -->", ""], lineno)
        lineno += 2
        for k, block in enumerate(blocks):
            btype = block.get("type")
            record = None
            if btype == "heading":
                level = min(int(block.get("level", 1)), MAX_HEADING_LEVEL)
                item = ("h", str(block.get("text", "")).strip(), level)
            elif btype == "text":
                text = " ".join(
                    s.get("text", "") for s in block.get("spans") or []
                ).strip()
                if not text:
                    continue
                item = ("p", text, None)
            elif btype == "image":
                alt = str(block.get("alt", "")).strip()
                item = ("img", alt, str(block.get("src", "")).strip())
            elif btype == "table":
                record = merged_by_id.get(table_ids.get(k))
                if record is None:
                    continue
                grid = record["data"]
                md = ["| " + " | ".join(row) + " |" for row in grid]
                md.insert(1, "|" + "---|" * len(grid[0]))
                item = ("table", "\n".join(md), grid)
            else:
                continue
            n = len(out)
            lineno = scanner.block(*item, lineno, False) + 2
            if record is not None:
                # every table row this block emitted: its metadata
                # gains the record (sort_keys order puts it first)
                for row in out[n:]:
                    if row["type"] == "table":
                        row["metadata_json"] = (
                            '{"record": ' + _record_json(record) + ", "
                            + row["metadata_json"][1:]
                        )
        scanner.lines(["", ""] if n_page < len(pages) else [""], lineno)
        end, lineno = lineno, lineno + 2
    return scanner.finish(end)
