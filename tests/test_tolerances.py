"""The solver layers take every threshold from ``qreglp._tolerances``."""

import ast
from pathlib import Path

import pytest

import qreglp

SOLVER_MODULES = ("polytope.py", "projection.py", "homotopy.py")
PACKAGE = Path(qreglp.__file__).parent


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


@pytest.mark.parametrize("name", SOLVER_MODULES)
def test_no_absolute_slack_comparison(name):
    # Which rows hold, and which are tight, is decided at the data's scale (polytope._row_rule,
    # polytope._tight_rows); a comparison with the absolute FEAS_TOL would bring a second rule back.
    path = Path(qreglp.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id == "FEAS_TOL" for n in ast.walk(node))
    ]
    assert found == [], f"{name}: comparisons with FEAS_TOL at lines {found}"


def test_one_certificate_rule():
    # Every KKT acceptance goes through projection._check_certificate and the row rule
    # polytope._row_rule, at the data's scale; the tracer keeps no feasibility or KKT threshold
    # of its own.
    outside = []
    for name in SOLVER_MODULES:
        tree = ast.parse((Path(qreglp.__file__).parent / name).read_text())
        inside = {
            id(n)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("_check_certificate", "_row_rule")
            for n in ast.walk(node)
        }
        outside += [
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "KKT_TOL" and id(node) not in inside
        ]
    assert outside == [], f"KKT_TOL used outside the certificate check: {outside}"
    tree = ast.parse((Path(qreglp.__file__).parent / "homotopy.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not imported & {"FEAS_TOL", "KKT_TOL"}


def test_one_rank_rule():
    # Every independence decision of the solver is taken at RANK_TOL, in the working-set rule
    # polytope._column_rule (which the kernel's seed and the vertex check share), the
    # working-set factorization projection._FreeSystem, the row loop polytope._extend_basis
    # (the equality reduction, the double-description seed and enumeration) and the flat-row
    # test of enumerate_vertices; the kernel and the tracer make no SVD, and call the row loop
    # only to reduce the equality rows when no reduction is given.
    outside = []
    for name in SOLVER_MODULES:
        tree = ast.parse((PACKAGE / name).read_text())
        inside = {
            id(n)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in ("_column_rule", "_FreeSystem", "_extend_basis", "enumerate_vertices")
            for n in ast.walk(node)
        }
        outside += [
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "RANK_TOL" and id(node) not in inside
        ]
    assert outside == [], f"RANK_TOL used outside the four rank tests: {outside}"
    loops = {
        name: [
            ast.unparse(node)
            for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_extend_basis"
        ]
        for name in ("projection.py", "homotopy.py")
    }
    assert loops == {"projection.py": ["_extend_basis(np.zeros((0, d)), A, range(m))"],
                     "homotopy.py": []}
    for name in ("projection.py", "homotopy.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        svd = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "svd")
            or (isinstance(node, ast.Name) and node.id == "svd")
        ]
        assert svd == [], f"{name}: SVD calls at lines {svd}"


def test_one_factorization_site():
    # The kernel and the tracer factor and solve only inside projection._FreeSystem: every
    # other place reuses one of its factorizations, so no QR, triangular or least-squares
    # solve appears elsewhere in those two modules.
    banned = {"qr", "solve_triangular", "dtrtrs", "lstsq"}
    for name in ("projection.py", "homotopy.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        inside = {
            id(n)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "_FreeSystem"
            for n in ast.walk(node)
        }
        found = [
            (node.lineno, ast.unparse(node))
            for node in ast.walk(tree)
            if id(node) not in inside
            and ((isinstance(node, ast.Name) and node.id in banned)
                 or (isinstance(node, ast.Attribute) and node.attr in banned)
                 or (isinstance(node, ast.Attribute) and node.attr == "solve"
                     and ast.unparse(node.value).endswith("linalg")))
        ]
        assert found == [], f"{name}: factorizations or solves outside _FreeSystem: {found}"


def test_analysis_judges_every_check_by_two_constants():
    # Every check of ``analysis`` follows one rule at the size of its own terms
    # (``analysis._at_most``); its tolerances are ``_CHECK_TOL`` and ``_ROUTE_TOL`` alone.
    path = Path(qreglp.__file__).parent / "analysis.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {
        t.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.endswith("_TOL")
    }
    assert named == {"_CHECK_TOL": 1e-9, "_ROUTE_TOL": 1e-7}
    found = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
    ]
    assert sorted(v for _, v in found) == [1e-9, 1e-7], f"analysis.py literals: {found}"


def _is_one(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value == 1.0


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unit_floor(name):
    # Every zero, sign, tie, rank and check decision of the package is taken at the size of its
    # own terms; a ``1.0 + ...`` or ``max(1.0, ...)`` floor would make it absolute on small or
    # large data, and a rank floor would judge a scaled row by another row's size.
    path = PACKAGE / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and _is_one(node.left)
    ]
    assert found == [], f"{name}: 1.0 + ... floors at lines {found}"
    floors = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in ("max", "maximum", "fmax")
        and any(_is_one(arg) for arg in node.args)
    ]
    assert floors == [], f"{name}: max(1.0, ...) floors at lines {floors}"


def test_tolerance_table_names():
    path = Path(qreglp.__file__).parent / "_tolerances.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    assert names == {"OPT_TOL", "RECESSION_TOL", "RANK_TOL", "ZERO_TOL", "TIE_TOL", "KKT_TOL"}
