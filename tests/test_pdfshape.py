"""PDF-layout kernel: reading order, cell grids, quality, merge."""

import json

from pdf_extractor_ray.kernel.extract import extract_document
from pdf_extractor_ray.kernel.pdfshape import (
    extract_pdf_document,
    table_quality,
)


def table_block(page_y, headers, rows, accuracy=98.0):
    cells = [{"row": 0, "col": c, "text": h} for c, h in enumerate(headers)]
    for r, row in enumerate(rows, start=1):
        for c, v in enumerate(row):
            cells.append({"row": r, "col": c, "text": v})
    height = 14.0 * (len(rows) + 1)
    return {
        "type": "table",
        "bbox": [72.0, page_y, 540.0, page_y + height],
        "cells": cells,
        "accuracy": accuracy,
    }


def make_doc(merge=True):
    headers = ["Signal", "IO", "Type"]
    other = ["X", "Y"]
    p1 = {
        "page_number": 1,
        "blocks": [
            {"type": "heading", "level": 1, "bbox": [72, 40, 540, 58], "text": "1. Intro"},
            {"type": "text", "bbox": [72, 70, 540, 90],
             "spans": [{"text": "Above the table."}]},
            table_block(100, headers, [["clk", "in", "logic"]]),
            {"type": "text", "bbox": [72, 200, 540, 220],
             "spans": [{"text": "Below the table."}]},
        ],
    }
    p2_headers = headers if merge else other
    p2_rows = [["rst", "in", "logic"]] if merge else [["1", "2"]]
    p2 = {
        "page_number": 2,
        "blocks": [
            table_block(60, p2_headers, p2_rows),
            {"type": "text", "bbox": [72, 300, 540, 320],
             "spans": [{"text": "Trailing text."}]},
        ],
    }
    return {"kind": "pdf", "pages": [p1, p2]}


class TestReadingOrderAndSpans:
    def test_blocks_ordered_top_to_bottom(self):
        elements, _ = extract_pdf_document(make_doc())
        contents = [e["content"] for e in elements if e["page"] == 1]
        i_above = next(i for i, c in enumerate(contents) if "Above" in c)
        i_table = next(i for i, c in enumerate(contents) if c.startswith("|"))
        i_below = next(i for i, c in enumerate(contents) if "Below" in c)
        assert i_above < i_table < i_below

    def test_spans_merged(self):
        doc = {
            "kind": "pdf",
            "pages": [{
                "page_number": 1,
                "blocks": [{
                    "type": "text", "bbox": [0, 0, 10, 10],
                    "spans": [{"text": "Part one."}, {"text": "Part two."}],
                }],
            }],
        }
        elements, _ = extract_pdf_document(doc)
        assert elements[0]["content"] == "Part one. Part two."


class TestMultiPageMerge:
    def test_continuation_merges(self):
        elements, tables = extract_pdf_document(make_doc(merge=True))
        assert len(tables) == 1
        assert tables[0]["is_multi_page"] is True
        assert tables[0]["page_range"] == "1-2"
        assert tables[0]["rows"] == 3  # header + 1 + 1 (dup header dropped)
        table_els = [e for e in elements if e["type"] == "table"]
        assert len(table_els) == 1
        rec = json.loads(table_els[0]["metadata_json"])["record"]
        assert rec["is_multi_page"] is True
        assert rec["page_range"] == "1-2"

    def test_different_headers_stay_separate(self):
        _, tables = extract_pdf_document(make_doc(merge=False))
        assert len(tables) == 2
        assert all(not t.get("is_multi_page") for t in tables)

    def test_none_strategy(self):
        _, tables = extract_pdf_document(make_doc(merge=True), merge_strategy="none")
        assert len(tables) == 2


class TestSurroundingText:
    def test_above_below_captured(self):
        _, tables = extract_pdf_document(make_doc())
        assert tables[0]["above_text"] == "Above the table."
        assert tables[0]["below_text"] == "Below the table."


class TestQuality:
    def test_full_table_high_confidence(self):
        q = table_quality([["A", "B"], ["1", "2"]], accuracy=100.0)
        assert q["completeness"] == 1.0
        assert q["consistency"] == 1.0
        assert q["confidence"] > 90

    def test_sparse_table_low_completeness(self):
        q = table_quality([["A", "B"], ["", ""], ["", ""]], accuracy=100.0)
        assert q["completeness"] < 0.5

    def test_low_accuracy_table_dropped(self):
        doc = make_doc(merge=False)
        doc["pages"][0]["blocks"][2]["accuracy"] = 10.0  # tanks confidence
        _, tables = extract_pdf_document(doc)
        assert all(t["page"] != 1 for t in tables)

    def test_empty(self):
        assert table_quality([], 0.0)["confidence"] == 0.0


class TestPdfLaneEndToEnd:
    def test_through_extract_document(self):
        raw = json.dumps(make_doc()).encode()
        out = extract_document("u", "2025", raw, "", "en")
        assert out["kind"] == "pdf"
        assert out["status"] == "ok"
        assert out["n_table"] == 1
        assert out["n_heading"] >= 1
        rec = json.loads(
            next(
                e["metadata_json"] for e in out["elements"] if e["type"] == "table"
            )
        )["record"]
        assert rec["page_range"] == "1-2"


class TestStreamFallback:
    """context7/table_extractor.py:95-108: lattice accuracy < 80 ->
    retry with the stream variant, keep whichever parsed better."""

    @staticmethod
    def _doc(lat_acc, stream_acc, with_stream=True):
        block = {
            "type": "table",
            "bbox": [10.0, 20.0, 100.0, 50.0],
            "accuracy": lat_acc,
            "cells": [
                {"row": 0, "col": 0, "text": "h"},
                {"row": 1, "col": 0, "text": "lat"},
            ],
        }
        if with_stream:
            block["stream_cells"] = [
                {"row": 0, "col": 0, "text": "h"},
                {"row": 1, "col": 0, "text": "str"},
            ]
            block["stream_accuracy"] = stream_acc
        text = {
            "type": "text",
            "bbox": [10.0, 60.0, 100.0, 70.0],
            "spans": [{"text": "enough page text to not look scanned " * 4}],
        }
        return {"kind": "pdf", "pages": [{"page_number": 1, "blocks": [block, text]}]}

    def test_low_accuracy_with_better_stream_falls_back(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(self._doc(50.0, 90.0))
        assert recs[0]["flavor"] == "stream"
        assert recs[0]["accuracy"] == 90.0
        assert recs[0]["data"][1][0] == "str"

    def test_high_accuracy_never_retries(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(self._doc(95.0, 99.0))
        assert recs[0]["flavor"] == "lattice"
        assert recs[0]["accuracy"] == 95.0

    def test_worse_stream_keeps_lattice(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(self._doc(60.0, 30.0))
        assert recs[0]["flavor"] == "lattice"
        assert recs[0]["data"][1][0] == "lat"

    def test_exact_threshold_does_not_retry(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(self._doc(80.0, 99.0))
        assert recs[0]["flavor"] == "lattice"

    def test_no_stream_variant_keeps_lattice(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(self._doc(50.0, 0.0, with_stream=False))
        assert recs[0]["flavor"] == "lattice"
        assert recs[0]["accuracy"] == 50.0


class TestDetectorCrossValidation:
    """table_extraction.py:454-500: IoU-intersect every table with an
    independent second detector's records; a miss records a quality
    issue without dropping the table."""

    @staticmethod
    def _doc(detector_tables=None):
        doc = {
            "kind": "pdf",
            "pages": [
                {
                    "page_number": 1,
                    "blocks": [
                        {
                            "type": "table",
                            "bbox": [10.0, 20.0, 100.0, 50.0],
                            "accuracy": 95.0,
                            "cells": [
                                {"row": 0, "col": 0, "text": "h"},
                                {"row": 1, "col": 0, "text": "v"},
                            ],
                        },
                        {
                            "type": "text",
                            "bbox": [10.0, 60.0, 100.0, 70.0],
                            "spans": [{"text": "page body text " * 10}],
                        },
                    ],
                }
            ],
        }
        if detector_tables is not None:
            doc["detector_tables"] = detector_tables
        return doc

    def test_intersecting_detector_table_validates(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(
            self._doc([{"page": 1, "bbox": [15.0, 25.0, 90.0, 45.0]}])
        )
        assert recs[0]["quality_issues"] == []

    def test_missing_intersection_records_issue_but_keeps_table(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        els, recs = extract_pdf_document(
            self._doc([{"page": 1, "bbox": [200.0, 200.0, 300.0, 300.0]}])
        )
        assert recs[0]["quality_issues"] == [
            "No intersecting table with detector results"
        ]
        # not dropped: the table still renders as an element
        assert any(e["type"] == "table" for e in els)

    def test_wrong_page_detector_is_a_miss(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(
            self._doc([{"page": 2, "bbox": [15.0, 25.0, 90.0, 45.0]}])
        )
        assert recs[0]["quality_issues"]

    def test_no_detector_output_no_issue(self):
        from pdf_extractor_ray.kernel.pdfshape import extract_pdf_document

        _, recs = extract_pdf_document(self._doc(None))
        assert recs[0]["quality_issues"] == []


class TestAdversarialCells:
    def test_out_of_bound_cell_indices_dropped_not_densified(self):
        # a corrupt row index like 10^9 must not allocate a gigarow grid
        from pdf_extractor_ray.kernel.pdfshape import MAX_GRID_DIM, _cells_to_grid

        grid = _cells_to_grid(
            [
                {"row": 10**9, "col": 10**9, "text": "boom"},
                {"row": -5, "col": 0, "text": "neg"},
                {"row": 1, "col": 1, "text": "keep"},
            ]
        )
        assert len(grid) == 2 and grid[1][1] == "keep"
        assert MAX_GRID_DIM == 10_000

    def test_all_cells_out_of_bound_gives_empty(self):
        from pdf_extractor_ray.kernel.pdfshape import _cells_to_grid

        assert _cells_to_grid([{"row": 10**9, "col": 0, "text": "x"}]) == []

    def test_poison_cell_inside_dim_bound_cannot_claim_giant_area(self):
        # {9999, 9999} passes both per-dimension checks but would
        # densify a 10k x 10k = 100M-slot grid; the AREA bound drops it
        from pdf_extractor_ray.kernel.pdfshape import _cells_to_grid

        grid = _cells_to_grid(
            [
                {"row": 0, "col": 0, "text": "a"},
                {"row": 1, "col": 1, "text": "b"},
                {"row": 9999, "col": 9999, "text": "boom"},
            ]
        )
        assert len(grid) == 2 and grid[0][0] == "a" and grid[1][1] == "b"

    def test_dense_real_tables_unaffected_by_area_bound(self):
        from pdf_extractor_ray.kernel.pdfshape import _cells_to_grid

        cells = [
            {"row": r, "col": c, "text": f"{r},{c}"}
            for r in range(40)
            for c in range(12)
        ]
        grid = _cells_to_grid(cells)
        assert len(grid) == 40 and len(grid[0]) == 12
        assert grid[39][11] == "39,11"


class TestCamelotParameterSearch:
    """find_best_table_extraction models the reference's per-page
    parameter sweep (table_extraction.py:544-575) with corrections
    cache reuse (:637-654)."""

    PAGE = {
        "page_number": 1,
        "blocks": [
            {
                "type": "table",
                "bbox": [0.0, 0.0, 10.0, 10.0],
                "cells": [
                    {"row": 0, "col": 0, "text": "a"},
                    {"row": 0, "col": 1, "text": "b"},
                    {"row": 1, "col": 0, "text": "c"},
                    {"row": 1, "col": 1, "text": "d"},
                ],
            }
        ],
    }

    def test_picks_accuracy_argmax_on_constant_grid(self):
        from pdf_extractor_ray.kernel.pdfshape import (
            CAMELOT_PARAMETER_SETS,
            find_best_table_extraction,
            param_set_accuracy,
        )

        best = find_best_table_extraction(self.PAGE, "k1")
        accs = [param_set_accuracy("k1", i) for i in range(5)]
        want = max(range(5), key=lambda i: (accs[i], -i))
        assert best["param_idx"] == want
        assert best["parameters"] == dict(CAMELOT_PARAMETER_SETS[want])
        assert best["from_cache"] is False
        assert best["n_tables"] == 1
        assert best["accuracies"] == [accs[want]]

    def test_cleaner_stream_variant_flips_flavor(self):
        """A page whose stream cells are dramatically cleaner must be
        able to win on quality even at lower stand-in accuracy."""
        import copy

        from pdf_extractor_ray.kernel.pdfshape import (
            find_best_table_extraction,
            param_set_accuracy,
        )

        page = copy.deepcopy(self.PAGE)
        # lattice grid: mostly empty cells (completeness tanks)
        page["blocks"][0]["cells"] = [
            {"row": 0, "col": 0, "text": "a"},
            {"row": 0, "col": 1, "text": ""},
            {"row": 1, "col": 0, "text": ""},
            {"row": 1, "col": 1, "text": ""},
        ]
        page["blocks"][0]["stream_cells"] = self.PAGE["blocks"][0]["cells"]
        # pick a key where a lattice attempt has the max accuracy, so
        # the flip is attributable to grid quality, not accuracy luck
        key = next(
            k
            for k in (f"key{i}" for i in range(200))
            if max(
                range(5), key=lambda i: (param_set_accuracy(k, i), -i)
            ) <= 2
            and max(param_set_accuracy(k, i) for i in (3, 4)) > 20.0
        )
        best = find_best_table_extraction(page, key)
        assert best["parameters"]["flavor"] == "stream"

    def test_corrections_cache_skips_search(self):
        from pdf_extractor_ray.kernel.pdfshape import (
            find_best_table_extraction,
            param_set_accuracy,
        )

        first = find_best_table_extraction(self.PAGE, "k2")
        store = {"k2": first}
        again = find_best_table_extraction(self.PAGE, "k2", corrections=store)
        assert again["from_cache"] is True
        assert again["param_idx"] == first["param_idx"]
        assert again["accuracy"] == first["accuracy"]
        # a cache entry forces its params even when search would differ
        store2 = {"k2": {"param_idx": 3}}
        forced = find_best_table_extraction(self.PAGE, "k2", corrections=store2)
        assert forced["param_idx"] == 3
        assert forced["parameters"]["flavor"] == "stream"
        assert forced["accuracies"] == [param_set_accuracy("k2", 3)]

    def test_no_tables_page(self):
        from pdf_extractor_ray.kernel.pdfshape import find_best_table_extraction

        best = find_best_table_extraction({"blocks": []}, "k3")
        assert best["n_tables"] == 0
        assert best["accuracy"] == 0.0
        assert best["param_idx"] == 0  # all-zero scores: first set wins
