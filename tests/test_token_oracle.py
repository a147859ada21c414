"""The DuckDB gate's token pattern against the kernel's counter.

``__ray_entry__._TOKEN_PAT_SQL`` is the kernel's ``_TOKEN_RE`` without
its lookahead branch and with RE2's narrower ``\\s``. The two count alike
only on text whose whitespace is ``[\\t\\n\\f\\r ]`` in runs of one char;
the gate relies on its documents meeting that. This checks the
precondition and the equal counts on the sf0.01 documents, and pins
where the two part when it does not hold.
"""

import re

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

import __ray_entry__ as entry
from pdf_extractor_ray.kernel.textutils import token_count, token_counts

# TESTDATA.md's sf0.01 tier (the query gate's), at the fixed location it
# gives, so that a checkout anywhere finds it
DOCUMENTS = "/root/testdata/sf0.01/documents.parquet"


def _duckdb_counts(texts: list[str]) -> list[int]:
    con = duckdb.connect()
    con.register("t", pa.table({"i": list(range(len(texts))), "text": texts}))
    rows = con.execute(
        f"SELECT len(regexp_extract_all(text, '{entry._TOKEN_PAT_SQL}')) "
        "FROM t ORDER BY i"
    ).fetchall()
    return [n for (n,) in rows]


def test_gate_documents_meet_the_precondition_and_count_alike():
    texts = pq.read_table(DOCUMENTS, columns=["text"])["text"].to_pylist()
    assert len(texts) == 500
    assert not any(re.search(r"\s\s|[^\S\t\n\f\r ]", t) for t in texts)
    assert _duckdb_counts(texts) == token_counts(texts)


def test_whitespace_runs_part_the_two():
    texts = ["x\n\ny", "a \vb", "x\ny"]
    assert _duckdb_counts(texts) == [3, 3, 3]
    assert [token_count(t) for t in texts] == [4, 4, 3]
    assert token_counts(texts) == [4, 4, 3]
