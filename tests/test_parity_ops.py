"""Kernel parity operators: bbox conversion (M11), cell cleaning (M10),
scanned detection + OCR tier (M13/M14), marker enrichment joins (J1/J2),
and output-contract finalization (M16). Pure kernel — no Ray.
"""

import json

from pdf_extractor_ray.kernel.extract import ELEMENT_FIELDS
from pdf_extractor_ray.kernel.finalize import ensure_element_types
from pdf_extractor_ray.kernel.markdown_extract import extract_from_markdown_text
from pdf_extractor_ray.kernel.pdfshape import (
    SCANNED_MIN_CHARS_PER_PAGE,
    extract_pdf_document,
    is_scanned_pdf,
    ocr_preprocess,
)
from pdf_extractor_ray.kernel.tables import (
    camelot_to_pymupdf_coords,
    clean_table_grid,
)


class TestBboxConversion:
    def test_flip_and_zoom(self):
        # camelot: origin bottom-left, y up. page height 800.
        # camelot box (10, 700, 110, 780) = near the top of the page
        out = camelot_to_pymupdf_coords([10, 700, 110, 780], page_height=800)
        assert out == [10, 20, 110, 100]

    def test_zoom_scales_everything(self):
        out = camelot_to_pymupdf_coords([0, 0, 100, 100], page_height=100, zoom=2.0)
        assert out == [0, 0, 200, 200]

    def test_y_corners_resorted(self):
        a = camelot_to_pymupdf_coords([0, 20, 50, 80], 100)
        assert a[1] <= a[3]


class TestCleanTableGrid:
    def test_whitespace_and_newlines(self):
        grid = [["  a\nb  ", "c   d"]]
        assert clean_table_grid(grid) == [["a b", "c d"]]

    def test_numeric_canonicalization(self):
        grid = [["1,234.00", "42", "-7.5", "0012"]]
        assert clean_table_grid(grid) == [["1234.0", "42", "-7.5", "12"]]

    def test_non_numeric_passthrough(self):
        grid = [["1,2", "v1.2.3", "12%"]]
        assert clean_table_grid(grid) == [["1,2", "v1.2.3", "12%"]]


def _scanned_doc():
    return {
        "kind": "pdf",
        "pages": [
            {
                "page_number": 1,
                "blocks": [
                    {
                        "type": "image",
                        "bbox": [0, 0, 600, 800],
                        "src": "scan-1.png",
                        "ocr_text": "Recovered line one.",
                    }
                ],
            },
            {
                "page_number": 2,
                "blocks": [
                    {
                        "type": "image",
                        "bbox": [0, 0, 600, 800],
                        "src": "scan-2.png",
                        "ocr_text": "Recovered line two.",
                    }
                ],
            },
        ],
    }


class TestScannedPdf:
    def test_detects_scanned(self):
        assert is_scanned_pdf(_scanned_doc())

    def test_text_layer_defeats_detection(self):
        doc = _scanned_doc()
        doc["pages"][0]["blocks"].append(
            {
                "type": "text",
                "bbox": [0, 0, 100, 20],
                "spans": [{"text": "x" * SCANNED_MIN_CHARS_PER_PAGE}],
            }
        )
        assert not is_scanned_pdf(doc)

    def test_empty_doc_not_scanned(self):
        assert not is_scanned_pdf({"kind": "pdf", "pages": []})

    def test_ocr_preprocess_rebuilds_text_layer(self):
        out = ocr_preprocess(_scanned_doc())
        assert out["ocr_applied"]
        b = out["pages"][0]["blocks"][0]
        assert b["type"] == "text" and b["source"] == "ocr"
        assert b["spans"][0]["text"] == "Recovered line one."

    def test_extract_runs_ocr_tier(self):
        elements, _ = extract_pdf_document(_scanned_doc())
        texts = [e for e in elements if e["type"] == "text"]
        assert [t["content"] for t in texts] == [
            "Recovered line one.",
            "Recovered line two.",
        ]
        assert texts[0]["page"] == 1 and texts[1]["page"] == 2

    def test_ocr_is_deterministic(self):
        a, _ = extract_pdf_document(_scanned_doc())
        b, _ = extract_pdf_document(_scanned_doc())
        assert a == b


_MD = """<!-- page: 1 -->

| h1 | h2 |
|---|---|
| a | b |

![fig](img.png)
"""


class TestMarkerEnrichment:
    def test_table_join_attaches_bbox_and_source(self):
        marker_tables = [
            {"page": 1, "bbox": [5, 5, 50, 50], "table_data": [["h1", "h2"], ["a", "b"]]},
            {"page": 2, "bbox": [0, 0, 1, 1], "table_data": []},
        ]
        els = extract_from_markdown_text(_MD, marker_tables=marker_tables)
        table = next(e for e in els if e["type"] == "table")
        v = table["metadata"]["validation"]
        assert v["source"] == "marker_json"
        assert v["bbox"] == [5, 5, 50, 50]
        assert table["metadata"]["table"]["marker_data"] == [["h1", "h2"], ["a", "b"]]

    def test_image_join(self):
        els = extract_from_markdown_text(
            _MD, marker_images=[{"page": 1, "bbox": [1, 2, 3, 4]}]
        )
        image = next(e for e in els if e["type"] == "image")
        assert image["metadata"]["source"] == "marker_json"
        assert image["metadata"]["bbox"] == [1, 2, 3, 4]

    def test_wrong_page_no_join(self):
        els = extract_from_markdown_text(
            _MD,
            marker_tables=[{"page": 9, "bbox": [0, 0, 1, 1], "table_data": []}],
            marker_images=[{"page": 9, "bbox": [0, 0, 1, 1]}],
        )
        table = next(e for e in els if e["type"] == "table")
        image = next(e for e in els if e["type"] == "image")
        assert table["metadata"]["validation"]["source"] == "markdown"
        assert image["metadata"]["source"] == "markdown"

    def test_marker_bbox_feeds_cache_validation(self):
        # marker sets a bbox; a cache entry elsewhere on the page now
        # fails the IoU>0.5 leg -> invalid (reference ordering).
        els = extract_from_markdown_text(
            _MD,
            marker_tables=[{"page": 1, "bbox": [0, 0, 10, 10], "table_data": []}],
            table_cache=[{"page": 1, "bbox": [500, 500, 600, 600]}],
        )
        v = next(e for e in els if e["type"] == "table")["metadata"]["validation"]
        assert not v["valid"] and v["issues"]


class TestFinalize:
    def test_type_padding_adds_missing_types(self):
        out = ensure_element_types([], "dir/doc.pdf")
        types = sorted(e["type"] for e in out)
        assert types == ["table", "text"]
        text = next(e for e in out if e["type"] == "text")
        assert text["content"] == "Content extracted from doc.pdf"
        table = next(e for e in out if e["type"] == "table")
        assert json.loads(table["content"]) == [["Header", "Value"], ["Sample", "Data"]]
        assert all(tuple(e) == ELEMENT_FIELDS for e in out)
        assert all(e["section_path"] == ["1. Document"] for e in out)

    def test_type_padding_noop_when_present(self):
        els = [{"type": "text", "content": "a"}, {"type": "table", "content": "[]"}]
        assert ensure_element_types(els, "d.pdf") == els
