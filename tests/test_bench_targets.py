"""The benchmark's tracer still fits the package it wraps.

``bench/tracing.py`` wraps ``qreglp.<module>.<function>`` for each entry of
``TARGETS`` and ``HOMOTOPY_TARGETS``; a deleted or renamed function would
break its traced runs.  The tuples are read with ``ast``.  The span info of
its wrappers calls into the package as well, which the last test runs with
``bench/tracing.py`` loaded by its file path.
"""

import ast
import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from qreglp import PolytopeSpec, QlpInstance, polytope, projection

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped_names() -> dict[str, list[tuple[str, str]]]:
    """``(module, function)`` of each entry, per tuple name."""
    names = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TARGETS", "HOMOTOPY_TARGETS"):
                names[target.id] = [
                    (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
                ]
    return names


def test_bench_wrapped_functions_exist():
    names = _wrapped_names()
    assert set(names) == {"TARGETS", "HOMOTOPY_TARGETS"}
    assert names["TARGETS"] and names["HOMOTOPY_TARGETS"]
    for module, function in names["TARGETS"] + names["HOMOTOPY_TARGETS"]:
        assert callable(getattr(importlib.import_module(f"qreglp.{module}"), function, None)), (
            f"qreglp.{module}.{function}"
        )
    # The homotopy wrappers replace the names ``qreglp.homotopy`` imported.
    homotopy = importlib.import_module("qreglp.homotopy")
    for _, function in names["HOMOTOPY_TARGETS"]:
        assert callable(getattr(homotopy, function, None)), f"qreglp.homotopy.{function}"


def test_tracer_span_info_calls_into_the_package(monkeypatch):
    # After each ``project`` the tracer reads ``start`` by keyword and calls
    # ``spec.contains(start, tol)`` with a positional ``tol``; after each
    # ``enumerate_vertices`` it reads the spec's listed vertices.
    loader = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "bench_tracing", tracing)
    loader.loader.exec_module(tracing)
    square = PolytopeSpec.box(np.zeros(2), np.ones(2))
    inst = QlpInstance(square, np.array([-1.0, -0.5]))
    listed = replace(square, vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with tracing.Tracer() as tracer:  # it wraps the functions at their modules' attributes
        first = projection.solve_qlp(inst, 1.0)
        projection.solve_qlp(inst, 3.0, start=first.x, working_set=first.working_set)
        assert len(polytope.enumerate_vertices(listed)) == 4
    cold = [s.info["cold"] for s in tracer.spans if s.name == "projection.project"]
    assert cold == [True, False]
    assert [s.info for s in tracer.spans if s.name == "polytope.enumerate_vertices"] == [
        {"candidate_bases": 0, "vertices": 4}
    ]
