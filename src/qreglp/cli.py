"""Command-line surface: solve, trace, analyze, and run experiments.

Exit codes: 0 success, 1 input or validation error, 2 certificate or
agreement failure.  All commands are deterministic given the same inputs
and ``--seed``.  JSON results come from the standard encoder, which prints
each float as the shortest string that reads back to the same double.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, oracle, ot
from .errors import BudgetExceeded, NumericalBreakdown, QreglpError
from .homotopy import trace_path
from .polytope import DEFAULT_BASIS_BUDGET, PolytopeSpec, validate
from .projection import QlpInstance, solve_qlp


def _csv_cell(v) -> str:
    return format(float(v), ".12g") if isinstance(v, (float, np.floating)) else str(v)


def _write_csv(handle, header: str, rows) -> None:
    """Write a CSV with a bit-exact header line and floats to 12 significant digits."""
    handle.write(header + "\n")
    for row in rows:
        handle.write(",".join(_csv_cell(v) for v in row) + "\n")


def _load_instance(path: str):
    """Load a generic instance or a transport instance from JSON.

    Returns ``(QlpInstance, OtInstance | None)``.
    """
    with open(path) as fh:
        data = json.load(fh)
    if "cost" in data or ("x" in data and "y" in data):
        inst = ot.from_json_dict(data)
        return inst.qlp(), inst
    spec = PolytopeSpec.from_json_dict(data)
    if "c" not in data:
        raise ValueError("instance file lacks a cost vector 'c'")
    report = validate(spec)
    if not report.vertex_consistent:
        raise ValueError("a listed vertex is not a vertex of the polytope")
    return QlpInstance(report.spec, np.asarray(data["c"], dtype=float)), None


def _cmd_project(args) -> int:
    inst, _ = _load_instance(args.instance)
    if args.eta <= 0:
        raise ValueError("--eta must be positive")
    try:
        res = solve_qlp(inst, args.eta)
    except NumericalBreakdown as exc:  # the solution fails its certificate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res.to_json_dict(), separators=(",", ": ")))
    return 0


def _cmd_path(args) -> int:
    inst, _ = _load_instance(args.instance)
    path = trace_path(inst)
    if args.format == "json":
        print(json.dumps(path.to_json_dict(), separators=(",", ": ")))
    else:
        header = "i,eta," + ",".join(f"x{j}" for j in range(inst.polytope.dim))
        _write_csv(sys.stdout, header, path.csv_rows())
    return 0


def _cmd_analyze(args) -> int:
    inst, _ = _load_instance(args.instance)
    report = analysis.analyze(inst, grid=args.grid, vertex_budget=args.budget)
    out = args.out
    if out:
        base = out[:-5] if out.endswith(".json") else out
        with open(base + ".json" if not out.endswith(".json") else out, "w") as fh:
            fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        with open(base + "_ecurve.csv", "w") as fh:
            _write_csv(
                fh,
                "eta,E,segment_index",
                ([row[0], row[1], int(row[2])] for row in report.e_curve),
            )
    slope = report.slope_last_segment
    print(
        "eta_star={:.12g} slope={} bounds_ok={}".format(
            report.eta_star_path,
            "{:.12g}".format(slope) if slope is not None else "nan",
            "true" if report.bounds_ok else "false",
        )
    )
    return 0 if report.bounds_ok else 2


def _load_ot(path: str) -> ot.OtInstance:
    with open(path) as fh:
        data = json.load(fh)
    return ot.from_json_dict(data)


def _cmd_ot(args) -> int:
    if args.ot_command == "threshold":
        inst = _load_ot(args.costfile)
        eta_formula = eta_path = None
        try:
            eta_formula = ot.ot_eta_star(inst)
        except BudgetExceeded:
            pass
        try:
            eta_path = ot.trace_ot_path(inst).eta_star
        except BudgetExceeded:
            pass
        if eta_formula is None and eta_path is None:
            raise BudgetExceeded("instance too large for both threshold routes")
        both = eta_formula is not None and eta_path is not None
        agree = analysis.routes_agree(eta_formula, eta_path) if both else None
        print(
            "eta_star_formula={} eta_star_path={} agree={}".format(
                "{:.12g}".format(eta_formula) if eta_formula is not None else "skipped",
                "{:.12g}".format(eta_path) if eta_path is not None else "skipped",
                {True: "true", False: "false", None: "n/a"}[agree],
            )
        )
        return 0 if agree in (True, None) else 2
    if args.ot_command == "slope-bound":
        inst = _load_ot(args.costfile)
        print("{:.12g}".format(ot.ot_slope_bound(inst)))
        return 0
    if args.ot_command == "experiment":
        n_values = [int(v) for v in args.n_list.split(",") if v.strip()]
        rows = ot.figure3_experiment(n_values)
        handle = open(args.out, "w") if args.out else sys.stdout
        try:
            _write_csv(handle, "N,L_N,bound,ratio", (r.csv_values() for r in rows))
        finally:
            if args.out:
                handle.close()
        bad = [r for r in rows if not r.skipped and r.ratio < 1.0]
        return 2 if bad else 0
    raise ValueError(f"unknown ot subcommand {args.ot_command!r}")


def _cmd_oracle_check(args) -> int:
    worst = oracle.run_cross_checks(
        n_polytopes=args.polytopes,
        n_transport=args.transport,
        seed=args.seed,
        verbose=True,
    )
    ok = worst.worst_measure() <= oracle._VERIFY_TOL
    print(
        "worst={} worst_rel_disagreement={:.3e} worst_path_discrepancy={:.3e} "
        "worst_x_star_gap={:.3e} worst_certificate_violation={:.3e} ok={}".format(
            worst.label, worst.rel_disagreement, worst.path_discrepancy, worst.x_star_gap,
            worst.certificate_violation, "true" if ok else "false",
        )
    )
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreglp",
        description="Regularized linear programs over polytopes: projection, "
        "solution paths, thresholds, and regularized optimal transport.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BASIS_BUDGET,
        help="vertex-enumeration budget: most rays held plus zero-set tests in one step",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="solve at a fixed eta")
    p.add_argument("instance")
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("path", help="trace the full solution path")
    p.add_argument("instance")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("analyze", help="threshold, slope, bounds, E-curve")
    p.add_argument("instance")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ot", help="transport-specific operations")
    oss = p.add_subparsers(dest="ot_command", required=True)
    t = oss.add_parser("threshold", help="stationarity threshold, two routes")
    t.add_argument("costfile")
    t.set_defaults(func=_cmd_ot)
    s = oss.add_parser("slope-bound", help="variance slope bound")
    s.add_argument("costfile")
    s.set_defaults(func=_cmd_ot)
    e = oss.add_parser("experiment", help="slope vs bound over sizes")
    e.add_argument("--n-list", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_ot)

    p = sub.add_parser("oracle-check", help="randomized cross-validation battery")
    p.add_argument("--polytopes", type=int, default=50)
    p.add_argument("--transport", type=int, default=25)
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QreglpError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
