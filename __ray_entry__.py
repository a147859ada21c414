"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2 + the corpus-level training-data operators); each takes an
``sf_dir`` and returns a Dataset / DataFrame / Arrow table.
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible query (same column names, same value semantics —
float aggregates are compared as integer centi-units via
``floor(x*100 + 0.5)`` on BOTH sides so value hashes are exact).

Both tables come from the registrations in ``pdf_extractor_ray/gate/``.

Ray is initialised by the driver BEFORE this module is imported — no
ray.init()/ray.shutdown() here or in the library code these call.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from pdf_extractor_ray import gate


def entry() -> Any:
    """Flagship: extraction pipeline over pages derived from sf0.001."""
    from pdf_extractor_ray.gate.extraction import _pages_from_documents
    from pdf_extractor_ray.pipelines import extract_pages

    pages = _pages_from_documents("/root/testdata/sf0.001")
    ds = extract_pages(pages)
    return ds.select_columns(
        [
            "url", "kind", "status", "n_elements", "n_text", "n_heading",
            "n_table", "n_code", "n_image", "n_tokens",
        ]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return gate.queries()


def oracle_sql() -> dict[str, str]:
    return gate.oracle_sql()
