"""Table geometry, similarity, and multi-page merge kernel.

Behavioral spec sources (reference, studied not copied):
  - IoU: /root/reference/src/pdf_extractor/utils.py:45-79
  - header similarity (exact + 0.5*partial >= threshold):
    improved_table_merger.py:28-65
  - table similarity (header band 0.9/0.3 + bbox x-alignment, 0.0 on
    column-count mismatch): improved_table_merger.py:67-121
  - merge rule (consecutive pages AND similarity >= threshold;
    duplicated header row dropped iff headers match; rows /
    is_multi_page / page_range updated): improved_table_merger.py:123-254
  - strategy thresholds 0.8 conservative / 0.6 aggressive / no merge:
    improved_table_merger.py:298-303
  - marker-variant similarity (col-count score, per-header Jaccard>0.8
    votes, normalized column-width diff): marker_processor.py:230-278
  - table data normalizer (pad/truncate to header arity, strip cells):
    context7/pdf_extractor/parsers.py:119-152

A "table" here is a plain dict: {page:int, data:list[list[str]],
accuracy:float, bbox:[x1,y1,x2,y2], rows:int, cols:int, id:str} —
the TableData shape of context7/pdf_extractor/type_definitions.py:37-45.
"""

from __future__ import annotations

from typing import Any, Optional

from pdf_extractor_ray.kernel.textutils import text_similarity

__all__ = [
    "calculate_iou",
    "has_matching_headers",
    "calculate_table_similarity",
    "should_merge_tables",
    "merge_table_data_safely",
    "merge_multi_page_tables",
    "process_and_merge_tables",
    "MERGE_STRATEGIES",
    "marker_table_similarity",
    "parse_table_data",
    "camelot_to_pymupdf_coords",
    "clean_table_grid",
]

Table = dict[str, Any]


def camelot_to_pymupdf_coords(
    bbox: list[float], page_height: float, zoom: float = 1.0
) -> list[float]:
    """Camelot bbox (bottom-left origin, y grows up) -> PyMuPDF bbox
    (top-left origin, y grows down), scaled by ``zoom``.

    The reference imports this from a missing module
    (table_extraction.py:17); the spec is inferred from its call sites
    (:446 converts before storing, :607 before rendering the pixmap):
    x passes through, y flips against the page height, and both corners
    re-sort so y1 <= y2 in the new frame.
    """
    x1, y1, x2, y2 = (float(v) for v in bbox)
    top = page_height - max(y1, y2)
    bottom = page_height - min(y1, y2)
    return [x1 * zoom, top * zoom, x2 * zoom, bottom * zoom]


_NUM_CLEAN_RE = None  # compiled lazily below


def clean_table_grid(grid: list[list[str]]) -> list[list[str]]:
    """Per-cell cleanup of a parsed table grid (M10,
    table_extraction.py:373-392 semantics without the pandas frame):
    newlines -> spaces, whitespace runs collapsed, cells stripped, and
    numeric-looking strings canonicalized (``"1,234.00 "`` -> ``"1234.0"``,
    the value ``pd.to_numeric(errors="ignore")`` would produce when
    round-tripped to str). Non-numeric cells pass through cleaned.
    """
    import re

    global _NUM_CLEAN_RE
    if _NUM_CLEAN_RE is None:
        _NUM_CLEAN_RE = re.compile(r"^-?\d{1,3}(,\d{3})*(\.\d+)?$|^-?\d+(\.\d+)?$")
    out: list[list[str]] = []
    for row in grid:
        new_row = []
        for cell in row:
            c = " ".join(str(cell).split())
            if _NUM_CLEAN_RE.match(c):
                plain = c.replace(",", "")
                # integer-looking cells parse as int directly — going
                # through float() silently corrupts integers above 2^53
                # (e.g. '9007199254740993' -> ...992)
                c = str(int(plain)) if "." not in plain else str(float(plain))
            new_row.append(c)
        out.append(new_row)
    return out


def calculate_iou(box1: list[float], box2: list[float]) -> float:
    """Intersection-over-union of two [x1, y1, x2, y2] boxes."""
    x_left = max(box1[0], box2[0])
    y_top = max(box1[1], box2[1])
    x_right = min(box1[2], box2[2])
    y_bottom = min(box1[3], box2[3])
    if x_right < x_left or y_bottom < y_top:
        return 0.0
    inter = (x_right - x_left) * (y_bottom - y_top)
    area1 = (box1[2] - box1[0]) * (box1[3] - box1[1])
    area2 = (box2[2] - box2[0]) * (box2[3] - box2[1])
    union = area1 + area2 - inter
    if union <= 0:
        return 0.0
    return inter / union


def has_matching_headers(
    headers1: list[str], headers2: list[str], similarity_threshold: float = 0.7
) -> bool:
    """True iff two header rows likely name the same table columns.

    Exact matches count 1.0, partial (substring, unequal) matches 0.5;
    the mean over the arity must reach ``similarity_threshold``.
    Different arity never matches.
    """
    if len(headers1) != len(headers2) or not headers1:
        return False
    n1 = [h.strip().lower() for h in headers1]
    n2 = [h.strip().lower() for h in headers2]
    exact = sum(1 for a, b in zip(n1, n2) if a == b)
    partial = sum(
        1 for a, b in zip(n1, n2) if a and b and a != b and (a in b or b in a)
    )
    return (exact + 0.5 * partial) / len(headers1) >= similarity_threshold


def calculate_table_similarity(table1: Table, table2: Table) -> float:
    """Similarity in [0, 1]: header-match band (0.9 / 0.3) averaged with
    bbox x-alignment when both tables carry a bbox; 0.0 when the column
    counts differ or either table is empty."""
    data1 = table1.get("data") or []
    data2 = table2.get("data") or []
    if not data1 or not data2:
        return 0.0
    if len(data1[0]) != len(data2[0]):
        return 0.0

    scores: list[float] = []
    headers1 = [h.strip() for h in data1[0]]
    headers2 = [h.strip() for h in data2[0]]
    scores.append(0.9 if has_matching_headers(headers1, headers2) else 0.3)

    bbox1, bbox2 = table1.get("bbox"), table2.get("bbox")
    if bbox1 is not None and bbox2 is not None:
        left_diff = abs(bbox1[0] - bbox2[0])
        right_diff = abs(bbox1[2] - bbox2[2])
        width = max(bbox1[2] - bbox1[0], 100)
        x_alignment = 1.0 - min(left_diff / width, right_diff / width, 1.0)
        scores.append(max(0.0, x_alignment))

    return sum(scores) / len(scores)


def should_merge_tables(table1: Table, table2: Table, threshold: float = 0.7) -> bool:
    """Merge iff table2 is on the page right after table1 AND similar enough."""
    if table2.get("page", 0) != table1.get("page", 0) + 1:
        return False
    return calculate_table_similarity(table1, table2) >= threshold


def merge_table_data_safely(table1: Table, table2: Table) -> Optional[list[list[str]]]:
    """Concatenate cell grids; drop table2's header row iff it repeats
    table1's header. None when column counts differ (caller keeps both)."""
    data1 = table1.get("data") or []
    data2 = table2.get("data") or []
    if not data1:
        return data2
    if not data2:
        return data1
    if len(data1[0]) != len(data2[0]):
        return None
    start_idx = 1 if has_matching_headers(data1[0], data2[0]) else 0
    return list(data1) + list(data2[start_idx:])


def merge_multi_page_tables(
    tables: list[Table], similarity_threshold: float = 0.7
) -> list[Table]:
    """Linear fold over page-sorted tables merging runs of continuations.

    Order-dependent within one document; never crosses documents (in the
    Ray pipeline this runs row-locally inside the extraction UDF, so no
    shuffle is ever needed for it).
    """
    if not tables:
        return []
    sorted_tables = sorted(tables, key=lambda t: t.get("page", 0))
    merged: list[Table] = [dict(sorted_tables[0])]
    for current in sorted_tables[1:]:
        last = merged[-1]
        if should_merge_tables(last, current, similarity_threshold):
            merged_data = merge_table_data_safely(last, current)
            if merged_data is None:
                merged.append(dict(current))
                continue
            last["data"] = merged_data
            last["rows"] = len(merged_data)
            last["is_multi_page"] = True
            start_page = str(last.get("page", 0))
            current_page = str(current.get("page", 0))
            if "page_range" in last:
                parts = last["page_range"].split("-")
                if len(parts) > 1:
                    start_page = parts[0]
            last["page_range"] = f"{start_page}-{current_page}"
        else:
            merged.append(dict(current))
    return merged


from pdf_extractor_ray.config import CONFIG

_STRATEGY_THRESHOLDS = {
    "conservative": CONFIG.merge_conservative,
    "aggressive": CONFIG.merge_aggressive,
}

# Every valid ``merge_strategy`` name; "none" skips the merge.
MERGE_STRATEGIES = ("none", *_STRATEGY_THRESHOLDS)


def process_and_merge_tables(
    tables: list[Table], merge_strategy: str = "conservative"
) -> list[Table]:
    """Apply the multi-page merge under a named strategy.

    ``conservative`` -> threshold 0.8, ``aggressive`` -> 0.6,
    ``none`` -> passthrough.
    """
    if merge_strategy == "none" or not tables:
        return list(tables)
    threshold = _STRATEGY_THRESHOLDS.get(merge_strategy, 0.8)
    return merge_multi_page_tables(tables, threshold)


def marker_table_similarity(table1: Table, table2: Table) -> float:
    """Marker-variant similarity: mean of column-count score (1.0/0.5),
    fraction of headers with word-Jaccard > 0.8, and 1 - mean normalized
    column-width difference."""
    scores: list[float] = []
    header1 = table1.get("header") or []
    header2 = table2.get("header") or []
    if header1 and header2:
        scores.append(1.0 if len(header1) == len(header2) else 0.5)
    if header1 and header2 and len(header1) == len(header2):
        votes = sum(1 for a, b in zip(header1, header2) if text_similarity(a, b) > 0.8)
        scores.append(votes / len(header1))
    widths1 = table1.get("column_widths") or [len(c) for c in header1]
    widths2 = table2.get("column_widths") or [len(c) for c in header2]
    if widths1 and widths2 and len(widths1) == len(widths2):
        total1, total2 = sum(widths1), sum(widths2)
        if total1 > 0 and total2 > 0:
            n1 = [w / total1 for w in widths1]
            n2 = [w / total2 for w in widths2]
            avg_diff = sum(abs(a - b) for a, b in zip(n1, n2)) / len(n1)
            scores.append(1.0 - min(avg_diff, 1.0))
    return sum(scores) / len(scores) if scores else 0.0


def parse_table_data(table_data: list[list[str]]) -> dict[str, Any]:
    """Split a cell grid into {headers, rows}; rows are padded/truncated
    to header arity with all cells stripped."""
    if not table_data or len(table_data) < 2:
        return {"headers": [], "rows": []}
    headers = [cell.strip() for cell in table_data[0]]
    rows: list[list[str]] = []
    for row in table_data[1:]:
        row = list(row)
        if len(row) < len(headers):
            row = row + [""] * (len(headers) - len(row))
        elif len(row) > len(headers):
            row = row[: len(headers)]
        rows.append([cell.strip() for cell in row])
    return {"headers": headers, "rows": rows}
