"""The functions the benchmark's tracer wraps by name still exist.

``bench/tracing.py`` wraps ``qreglp.<module>.<function>`` for each entry of
``TARGETS`` and ``HOMOTOPY_TARGETS``; a deleted or renamed function would
break its traced runs.  The tuples are read with ``ast``, so ``bench/`` is
not imported.
"""

import ast
import importlib
from pathlib import Path

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
