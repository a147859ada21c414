"""The DuckDB correctness gate: one registration per query.

Each family module declares its queries with ``@register(name, ...)``
on the builder, which takes an ``sf_dir`` and returns a Dataset /
DataFrame / Arrow table. The registration holds the name, the optional
DuckDB oracle SQL (same column names, same value semantics; float
aggregates compare as integer centi-units via ``floor(x*100 + 0.5)`` on
both sides) and whether ``bench.py`` times the query. A query with no
oracle is rows-only: the gate checks that it runs and counts its rows.

Ray is initialised by the caller before these builders run; nothing in
this package calls ``ray.init()``/``ray.shutdown()``.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections.abc import Callable
from typing import Any

_QUERIES: dict[str, Callable[[str], Any]] = {}
_ORACLES: dict[str, str] = {}
_BENCH: list[str] = []


def register(name: str, *, oracle: str | None = None, bench: bool = False):
    """Declare ``name`` as a gate query built by the decorated function."""

    def add(builder: Callable[[str], Any]) -> Callable[[str], Any]:
        if name in _QUERIES:
            raise ValueError(f"gate query {name!r} is registered twice")
        _QUERIES[name] = builder
        if oracle is not None:
            _ORACLES[name] = oracle
        if bench:
            _BENCH.append(name)
        return builder

    return add


def _load() -> None:
    for mod in pkgutil.iter_modules(__path__):
        importlib.import_module(f"{__name__}.{mod.name}")


def queries() -> dict[str, Callable[[str], Any]]:
    _load()
    return dict(_QUERIES)


def oracle_sql() -> dict[str, str]:
    _load()
    return dict(_ORACLES)


def bench_queries() -> list[str]:
    """The queries ``bench.py`` times, in registration order."""
    _load()
    return list(_BENCH)
