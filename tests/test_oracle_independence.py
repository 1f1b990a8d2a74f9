"""Production modules take from ``oracle`` only Wolfe's min-norm point.

The brute-force oracles are the ground truth the fast paths are checked
against, so the solver and analysis modules must not borrow their rules.
``ot_eta_star`` projects onto the hull of the optimal permutations with
``min_norm_over_M``, the one allowed name.  ``cli`` is exempt: it fronts
``oracle-check``.  The sources are read with ``ast``, so function-level
imports count too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qreglp"
PRODUCTION = ("polytope", "projection", "homotopy", "analysis", "ot")
ALLOWED = {"min_norm_over_M"}


def _oracle_imports(module: str) -> set[str]:
    """Names ``module`` imports from ``qreglp.oracle``, or ``oracle`` itself."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = ("." * node.level) + (node.module or "")
            if source in (".oracle", "qreglp.oracle"):
                names.update(alias.name for alias in node.names)
            elif source in (".", "qreglp"):
                names.update(alias.name for alias in node.names if alias.name == "oracle")
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names if alias.name == "qreglp.oracle")
    return names


def test_production_modules_take_only_min_norm_from_oracle():
    imported = {module: _oracle_imports(module) for module in PRODUCTION}
    for module, names in imported.items():
        assert names <= ALLOWED, f"qreglp.{module} imports {sorted(names - ALLOWED)} from oracle"
    assert set().union(*imported.values()) == ALLOWED
