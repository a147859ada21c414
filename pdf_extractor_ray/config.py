"""Engine configuration with environment overrides (SURVEY.md §2.10).

The reference exposes its thresholds via env vars (`PYMUPDF_DPI`,
`TABLE_ACCURACY_THRESHOLD`, `MAX_MEMORY_USAGE`, ...;
table_extraction.py:54-59, config.py:19-38). This module is the
equivalent surface: every tunable has a compiled-in default (the value
the byte-identity goldens pin) and a ``GRAFT_*`` env override read at
import time. Workers inherit the driver's environment under Ray local
mode; on a real cluster ship overrides via ``runtime_env={"env_vars"}``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


@dataclass(frozen=True)
class EngineConfig:
    # size skew: payloads >= this count as giant documents
    # (extract_pipeline.GIANT_PAYLOAD_BYTES labels the benchmark lane)
    giant_payload_bytes: int = _env_int("GRAFT_GIANT_PAYLOAD_BYTES", 256 * 1024)
    # table confidence floor; below -> dropped (reference
    # LOW_CONFIDENCE_THRESHOLD=75.0, context7/config.py:37)
    table_confidence_floor: float = _env_float("GRAFT_TABLE_CONFIDENCE_FLOOR", 75.0)
    # multi-page merge similarity thresholds (improved_table_merger.py:303)
    merge_conservative: float = _env_float("GRAFT_MERGE_CONSERVATIVE", 0.8)
    merge_aggressive: float = _env_float("GRAFT_MERGE_AGGRESSIVE", 0.6)
    # scanned-pdf detection (context7/config.py:34-36)
    scanned_check_max_pages: int = _env_int("GRAFT_SCANNED_MAX_PAGES", 5)
    scanned_min_chars_per_page: int = _env_int("GRAFT_SCANNED_MIN_CHARS", 100)
    # adversarial-payload bound for table cell densification
    max_grid_dim: int = _env_int("GRAFT_MAX_GRID_DIM", 10_000)
    # lattice accuracy below this retries the table with the stream
    # variant and keeps the better extraction (reference
    # context7/table_extractor.py:95-108)
    stream_fallback_threshold: float = _env_float(
        "GRAFT_STREAM_FALLBACK_THRESHOLD", 80.0
    )


CONFIG = EngineConfig()
