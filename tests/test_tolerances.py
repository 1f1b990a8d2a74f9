"""The solver layers take every threshold from ``qreglp._tolerances``."""

import ast
from pathlib import Path

import pytest

import qreglp

SOLVER_MODULES = ("polytope.py", "projection.py", "homotopy.py")


@pytest.mark.parametrize("name", SOLVER_MODULES)
def test_no_threshold_literal_outside_the_table(name):
    path = Path(qreglp.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
    ]
    assert found == [], f"{name}: move these thresholds into _tolerances.py: {found}"


@pytest.mark.parametrize("name", ("projection.py", "homotopy.py"))
def test_no_absolute_slack_comparison(name):
    # Which rows are tight is decided by polytope._tight_rows at the data's scale;
    # a comparison with the absolute FEAS_TOL would bring a second rule back.
    path = Path(qreglp.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id == "FEAS_TOL" for n in ast.walk(node))
    ]
    assert found == [], f"{name}: comparisons with FEAS_TOL at lines {found}"
