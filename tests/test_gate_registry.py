"""The gate registry (pdf_extractor_ray/gate/): every query is declared
once, by its registration, and nothing in the gate owns a Ray
session."""

import ast
from pathlib import Path

import pytest

from pdf_extractor_ray import gate

GATE = Path(gate.__file__).parent


def test_registering_a_name_twice_raises():
    name = next(iter(gate.queries()))
    before = gate.queries()[name]
    with pytest.raises(ValueError, match=name):
        gate.register(name)(lambda sf_dir: None)
    assert gate.queries()[name] is before


def test_every_oracle_belongs_to_a_registered_query():
    assert set(gate.oracle_sql()) <= set(gate.queries())


def test_bench_set_is_a_subset_of_the_names():
    bench = gate.bench_queries()
    assert bench
    assert len(set(bench)) == len(bench)
    assert set(bench) <= set(gate.queries())


def test_no_gate_module_starts_or_stops_ray():
    offenders = []
    shim = GATE.parents[1] / "__ray_entry__.py"
    for path in sorted(GATE.glob("*.py")) + [shim]:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ray"
                and node.func.attr in ("init", "shutdown")
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
