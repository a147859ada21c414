"""Pins the DuckDB gate contract of __ray_entry__.py: every query name
and every oracle SQL string. A refactor of the gate (moving builders,
folding engines) must keep both byte-identical; dropping or renaming a
gate entry fails here instead of silently shrinking the gate."""

import hashlib
import json

import __ray_entry__ as entry

N_QUERIES = 261
N_ORACLES = 252
NAMES_SHA256 = (
    "16514fcf4b1bab0abeec014c186ba588aee2d6d22ae5a3c477c79b9264ecb235"
)
ORACLES_SHA256 = (
    "bc0d1900f9cf84ef13f224e01d274413da0c163f5542f1c69bbd91d81e704a33"
)


def test_query_names_pinned():
    names = sorted(entry.queries())
    assert len(names) == N_QUERIES
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == NAMES_SHA256


def test_oracle_sql_pinned():
    oracles = entry.oracle_sql()
    assert len(oracles) == N_ORACLES
    digest = hashlib.sha256(
        json.dumps(oracles, sort_keys=True).encode()
    ).hexdigest()
    assert digest == ORACLES_SHA256
