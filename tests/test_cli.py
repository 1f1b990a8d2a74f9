import io
import json
from pathlib import Path

import numpy as np
import pytest

from qreglp import solve_qlp
from qreglp.cli import _write_csv, main
from qreglp.ot import ExperimentRow, from_json_dict


@pytest.fixture
def interval_file(tmp_path):
    data = {
        "dim": 1,
        "A": [],
        "b": [],
        "G": [[1.0], [-1.0]],
        "h": [1.0, 0.0],
        "c": [-1.0],
    }
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def neg_id_file(tmp_path):
    def make(n):
        path = tmp_path / f"negid{n}.json"
        path.write_text(json.dumps({"cost": (-np.eye(n)).tolist()}))
        return str(path)

    return make


def test_project_interior(interval_file, capsys):
    assert main(["project", interval_file, "--eta", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x"] == [0.5]
    assert out["active_set"] == []


def test_project_saturated(interval_file, capsys):
    assert main(["project", interval_file, "--eta", "5.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x"] == [1.0]


def test_path_on_an_interval_with_a_tiny_row(tmp_path, capsys):
    # The interval [0, 1] with its upper row scaled by 1e-200 is loaded, validated and traced.
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps({"dim": 1, "G": [[1e-200], [-1.0]], "h": [1e-200, 0.0], "c": [-1.0]}))
    assert main(["path", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eta_star"] == 2.0 and out["endpoints"][-1] == [1.0]


def test_analyze_on_an_interval_with_a_tiny_row(tmp_path, capsys):
    # Enumeration keeps the tiny row: both vertices are found, so the bounds hold.
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps({"dim": 1, "G": [[1e-200], [-1.0]], "h": [1e-200, 0.0], "c": [-1.0]}))
    assert main(["analyze", str(f), "--out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().out.startswith("eta_star=2 slope=0.5 bounds_ok=true")


def test_project_on_an_interval_with_a_tiny_row(tmp_path, capsys):
    # Past x = 1 the tiny row blocks and enters: its norm is taken at its own scale, not
    # squared to zero.
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps({"dim": 1, "G": [[1e-200], [-1.0]], "h": [1e-200, 0.0], "c": [-1.0]}))
    for eta, x in ((0.5, 0.25), (1.0, 0.5), (3.0, 1.0)):
        assert main(["project", str(f), "--eta", str(eta)]) == 0
        assert json.loads(capsys.readouterr().out)["x"] == [x]


def test_project_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["project", str(bad), "--eta", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_project_missing_cost(tmp_path, capsys):
    f = tmp_path / "nocost.json"
    f.write_text(json.dumps({"dim": 1, "G": [[1.0], [-1.0]], "h": [1.0, 0.0]}))
    assert main(["project", str(f), "--eta", "1.0"]) == 1


def test_project_bad_eta(interval_file):
    assert main(["project", interval_file, "--eta", "-1.0"]) == 1


def test_project_rejects_bogus_vertices(tmp_path, capsys):
    # A vertex list that is wildly wrong is bad input.
    data = {
        "dim": 1,
        "G": [[1.0], [-1.0]],
        "h": [1.0, 0.0],
        "vertices": [[0.0], [9.0]],
        "c": [-1.0],
    }
    f = tmp_path / "bogus.json"
    f.write_text(json.dumps(data))
    assert main(["project", str(f), "--eta", "5.0"]) == 1
    assert "not a vertex" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[0.5, 0.5], [1.2, 0.0]], ids=["interior", "infeasible"])
@pytest.mark.parametrize("command", [["project", "--eta", "1.0"], ["analyze"]])
def test_inconsistent_vertex_list_exits_1(tmp_path, capsys, command, extra):
    # Three corners of the unit square plus a point that is no vertex of it.
    data = {
        "dim": 2,
        "G": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "h": [1.0, 1.0, 0.0, 0.0],
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], extra],
        "c": [-1.0, -0.5],
    }
    f = tmp_path / "square.json"
    f.write_text(json.dumps(data))
    assert main([command[0], str(f), *command[1:]]) == 1
    assert "not a vertex" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["G", "h", "c"])
def test_non_finite_data_exit_1(tmp_path, capsys, field):
    # NaN in G used to escape as a ValueError from the integer cast, and an infinite cost as
    # "moving ray never blocked"; both are refused when the instance is built.
    data = {"dim": 2, "G": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            "h": [1.0, 1.0, 0.0, 0.0], "c": [-1.0, -0.5]}
    data[field][0] = [float("nan"), 0.0] if field == "G" else float("inf")
    f = tmp_path / "square.json"
    f.write_text(json.dumps(data))
    for command in (["path"], ["project", "--eta", "1.0"]):
        assert main([command[0], str(f), *command[1:]]) == 1
        assert "NaN or an infinite entry" in capsys.readouterr().err


def test_project_exit_2_on_wrong_point(tmp_path, monkeypatch, capsys):
    # A kernel fault: the corner (0, 0), with no working row, returned for the target
    # (0.5, 0.25) inside the unit square fails project's certificate, so the command exits 2.
    from qreglp import projection

    real = projection.min_distance_active_set

    def wrong(*args, **kwargs):
        x, *rest = real(*args, **kwargs)
        return np.zeros_like(x), *rest

    monkeypatch.setattr(projection, "min_distance_active_set", wrong)
    data = {
        "dim": 2,
        "G": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "h": [1.0, 1.0, 0.0, 0.0],
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "c": [-1.0, -0.5],
    }
    f = tmp_path / "square.json"
    f.write_text(json.dumps(data))
    assert main(["project", str(f), "--eta", "1.0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "fails its certificate" in out.err


def test_scaled_vertex_list_round_trips(tmp_path, capsys):
    # Vertices the program enumerates on a polytope scaled by 1e7, written with
    # ``to_json_dict``, load as a consistent list and trace.
    from dataclasses import replace

    from qreglp.oracle import random_polytope_instance
    from qreglp.polytope import enumerate_vertices

    for seed in range(20):
        inst = random_polytope_instance(seed)
        spec = inst.polytope
        scaled = replace(spec, h=1e7 * spec.h, feasible_point=1e7 * spec.feasible_point)
        listed = replace(scaled, vertices=enumerate_vertices(scaled).vertices)
        f = tmp_path / f"scaled{seed}.json"
        f.write_text(json.dumps({**listed.to_json_dict(), "c": inst.c.tolist()}))
        assert main(["path", str(f)]) == 0, seed
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e7, 1e8, 1e10, 1e12])
def test_enumerated_vertex_list_round_trips_through_project(tmp_path, capsys, scale):
    # The row rule judges a listed vertex at the data's scale, so every list the program
    # enumerates validates with its vertex count, and ``project`` on it exits 0.
    from dataclasses import replace

    from qreglp.oracle import random_polytope_instance
    from qreglp.polytope import enumerate_vertices, validate

    for seed in range(40):
        inst = random_polytope_instance(seed)
        spec = inst.polytope
        scaled = replace(spec, h=scale * spec.h, b=scale * spec.b,
                         feasible_point=scale * spec.feasible_point)
        listed = replace(scaled, vertices=enumerate_vertices(scaled).vertices)
        rep = validate(listed)
        assert rep.vertex_consistent, seed
        assert rep.spec.vertices.shape == listed.vertices.shape, seed
        f = tmp_path / f"scaled{seed}.json"
        f.write_text(json.dumps({**listed.to_json_dict(), "c": inst.c.tolist()}))
        assert main(["project", str(f), "--eta", "10"]) == 0, seed
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["project", "--eta", "0.7"], ["analyze"]])
def test_empty_vertex_list_matches_no_key(interval_file, tmp_path, capsys, command):
    data = json.loads(Path(interval_file).read_text())
    data["vertices"] = []
    empty = tmp_path / "empty_vertices.json"
    empty.write_text(json.dumps(data))
    outputs = []
    for path in (interval_file, str(empty)):
        assert main([command[0], path, *command[1:]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_path_json(interval_file, capsys):
    assert main(["path", interval_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["breakpoints"] == [0.0, 2.0]
    assert out["eta_star"] == 2.0


def test_path_csv_ot(neg_id_file, capsys):
    assert main(["path", neg_id_file(4), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("i,eta,")
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[1]) for r in rows] == [0.0, 8.0]


def test_path_empty_polytope(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"dim": 1, "G": [[1.0], [-1.0]], "h": [-1.0, 0.0], "c": [1.0]}))
    assert main(["path", str(f)]) == 1


def test_analyze_summary_and_files(interval_file, tmp_path, capsys):
    out_base = str(tmp_path / "report")
    assert main(["analyze", interval_file, "--grid", "64", "--out", out_base]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("eta_star=2 slope=0.5 bounds_ok=true")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["eta_star_path"] == 2.0
    csv_lines = (tmp_path / "report_ecurve.csv").read_text().splitlines()
    assert csv_lines[0] == "eta,E,segment_index"


def test_analyze_ecurve_round_trip(interval_file, tmp_path):
    out_base = str(tmp_path / "rt")
    main(["analyze", interval_file, "--grid", "48", "--out", out_base])
    from qreglp import PolytopeSpec, QlpInstance

    data = json.loads(Path(interval_file).read_text())
    inst = QlpInstance(PolytopeSpec.from_json_dict(data), np.asarray(data["c"]))
    lp_val = -1.0
    for line in (tmp_path / "rt_ecurve.csv").read_text().splitlines()[1:]:
        eta_s, e_s, _ = line.split(",")
        eta, e = float(eta_s), float(e_s)
        if eta == 0.0:
            continue
        x = solve_qlp(inst, eta).x
        assert abs(float(inst.c @ x) - lp_val - e) <= 1e-7


def test_analyze_zero_cost_flagged(tmp_path, capsys):
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"dim": 1, "G": [[1.0], [-1.0]], "h": [1.0, 0.0], "c": [0.0]}))
    assert main(["analyze", str(f)]) == 0
    assert capsys.readouterr().out.startswith("eta_star=0")


def test_analyze_failed_bounds_exit_2(interval_file, monkeypatch, capsys):
    from dataclasses import replace

    from qreglp import analysis

    real = analysis.analyze
    monkeypatch.setattr(
        analysis, "analyze", lambda *a, **k: replace(real(*a, **k), bounds_ok=False)
    )
    assert main(["analyze", interval_file]) == 2
    assert capsys.readouterr().out.strip().endswith("bounds_ok=false")


def test_analyze_solves_phase_one_once(tmp_path, monkeypatch):
    from qreglp import polytope

    phase_one = []
    real = polytope.linprog

    def counting(c, *args, bounds=None, **kwargs):
        if bounds is not None and bounds[0] == (None, None):
            phase_one.append(1)
        return real(c, *args, bounds=bounds, **kwargs)

    monkeypatch.setattr(polytope, "linprog", counting)
    f = tmp_path / "cut_square.json"
    G = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
    f.write_text(json.dumps({"dim": 2, "G": G, "h": [1.0, 1.0, 0.0, 0.0, 1.5], "c": [-1.0, -0.5]}))
    assert main(["analyze", str(f)]) == 0
    assert len(phase_one) == 1  # validate's point serves the cold solves


def _generic_polytope(rng, dim, cuts):
    # The analyze-vertex benchmark's polytopes: the unit box plus ``cuts`` random halfspaces
    # through an interior anchor, and a standard-normal cost.
    G, h = [np.eye(dim), -np.eye(dim)], [np.ones(dim), np.zeros(dim)]
    anchor = rng.uniform(0.3, 0.7, size=dim)
    for _ in range(cuts):
        g = rng.normal(size=dim)
        g /= np.linalg.norm(g)
        G.append(g[None, :])
        h.append(np.array([float(g @ anchor) + rng.uniform(0.05, 0.3)]))
    return np.vstack(G), np.concatenate(h), rng.normal(size=dim)


def test_analyze_a_polytope_of_size_1e8(tmp_path, capsys):
    # The cold projection's certificate is judged at the data's scale; an absolute
    # KKT_TOL (1 + |z|) failed its stationarity residual here and exited 1.
    G, h, c = _generic_polytope(np.random.default_rng([0, 3]), 6, 10)
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"dim": 6, "G": G.tolist(), "h": (1e8 * h).tolist(), "c": c.tolist()}))
    assert main(["analyze", str(f)]) == 0
    assert capsys.readouterr().out.strip().endswith("bounds_ok=true")


def test_ot_threshold_agreement_is_relative(tmp_path, monkeypatch, capsys):
    # eta* = 6e-8 for the cost -1e8 I at n = 3: a formula route twice off is inside an
    # absolute 1e-7 (1 + eta*), but the routes must agree to 1e-7 relative.
    from qreglp import ot

    f = tmp_path / "negid_big.json"
    f.write_text(json.dumps({"cost": (-1e8 * np.eye(3)).tolist()}))
    assert main(["ot", "threshold", str(f)]) == 0
    real = ot.ot_eta_star
    monkeypatch.setattr(ot, "ot_eta_star", lambda inst: 2.0 * real(inst))
    assert main(["ot", "threshold", str(f)]) == 2
    assert "agree=false" in capsys.readouterr().out


def test_ot_threshold(neg_id_file, capsys):
    assert main(["ot", "threshold", neg_id_file(5)]) == 0
    out = capsys.readouterr().out
    assert "eta_star_formula=10" in out
    assert "agree=true" in out


def test_ot_slope_bound_constant(tmp_path, capsys):
    f = tmp_path / "const.json"
    f.write_text(json.dumps({"cost": [[7.0, 7.0], [7.0, 7.0]]}))
    assert main(["ot", "slope-bound", str(f)]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_ot_experiment(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["ot", "experiment", "--n-list", "2,3,4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,L_N,bound,ratio"
    assert len(lines) == 4
    for line in lines[1:]:
        n, ln, bound, ratio = line.split(",")
        assert float(ratio) >= 1.0


def test_ot_points_input(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"x": [1 / 3, 2 / 3, 1.0], "y": [1 / 3, 2 / 3, 1.0],
                             "kind": "sqeuclidean"}))
    inst = from_json_dict(json.loads(f.read_text()))
    assert np.allclose(inst.cost[0, 1], 1.0 / 9.0)
    assert main(["ot", "threshold", str(f)]) == 0
    assert "eta_star_formula=54" in capsys.readouterr().out


def test_analyze_fig1_instance(tmp_path, capsys):
    # Uniform grid of three points with squared-distance cost: the
    # threshold is 54 and the first kink shows up in the curve samples.
    f = tmp_path / "fig1.json"
    f.write_text(json.dumps({"x": [1 / 3, 2 / 3, 1.0], "y": [1 / 3, 2 / 3, 1.0]}))
    out_base = str(tmp_path / "fig1_report")
    assert main(["analyze", str(f), "--grid", "64", "--out", out_base]) == 0
    line = capsys.readouterr().out
    assert line.startswith("eta_star=54 ")
    etas = [
        float(row.split(",")[0])
        for row in (tmp_path / "fig1_report_ecurve.csv").read_text().splitlines()[1:]
    ]
    assert any(abs(e - 9.0) < 1e-6 for e in etas)  # first breakpoint present


def test_analyze_generic_d8_polytope(tmp_path, capsys):
    # Unit box in d = 8 cut by 14 unit halfspaces through an interior anchor:
    # 30 rows and C(30, 8) = 5.85 million candidate bases, 2,623 vertices.
    rng = np.random.default_rng(1)
    d = 8
    anchor = rng.uniform(0.3, 0.7, size=d)
    cuts = rng.normal(size=(14, d))
    cuts /= np.linalg.norm(cuts, axis=1)[:, None]
    G = np.vstack([np.eye(d), -np.eye(d), cuts])
    h = np.concatenate([np.ones(d), np.zeros(d), cuts @ anchor + rng.uniform(0.05, 0.3, 14)])
    f = tmp_path / "generic.json"
    f.write_text(json.dumps({"dim": d, "G": G.tolist(), "h": h.tolist(),
                             "c": rng.normal(size=d).tolist()}))
    out_base = str(tmp_path / "generic_report")
    assert main(["analyze", str(f), "--out", out_base]) == 0
    report = json.loads((tmp_path / "generic_report.json").read_text())
    assert report["agreement"] is True
    assert report["bounds_ok"] is True


def test_oracle_check_small(capsys):
    assert main(["oracle-check", "--polytopes", "4", "--transport", "2"]) == 0
    assert "ok=true" in capsys.readouterr().out


@pytest.mark.parametrize("field", ["x_star_gap", "certificate_violation"])
def test_oracle_check_fails_on_each_measure(monkeypatch, capsys, field):
    from dataclasses import replace

    from qreglp import oracle

    good = oracle.CrossCheck(1.0, 1.0, 1.0, 1e-12, 1e-12, 1e-12)
    bad = replace(good, **{field: 1e-6})
    monkeypatch.setattr(oracle, "cross_check_instance", lambda inst, seed: bad)
    assert main(["oracle-check", "--polytopes", "1", "--transport", "0"]) == 2
    assert "ok=false" in capsys.readouterr().out


def _generic_d6(tmp_path, generic_d6):
    G, h, c = generic_d6(0)
    f = tmp_path / "generic6.json"
    f.write_text(json.dumps({"dim": 6, "G": G.tolist(), "h": h.tolist(), "c": c.tolist()}))
    return str(f)


@pytest.mark.parametrize("make", ["interval", "generic6", "negid4"])
def test_json_floats_read_back_exactly(make, interval_file, neg_id_file, generic_d6, tmp_path,
                                     capsys):
    # Every float the CLI prints as JSON parses back to the library's own double.
    from dataclasses import fields

    from qreglp import analysis, trace_path
    from qreglp.cli import _load_instance

    f = {"interval": lambda: interval_file, "generic6": lambda: _generic_d6(tmp_path, generic_d6),
         "negid4": lambda: neg_id_file(4)}[make]()
    inst, _ = _load_instance(f)

    assert main(["project", f, "--eta", "0.7"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == solve_qlp(inst, 0.7).x.tolist()

    assert main(["path", f]) == 0
    out = json.loads(capsys.readouterr().out)
    path = trace_path(inst)
    assert out["breakpoints"] == path.breakpoints.tolist()
    assert out["endpoints"] == path.endpoints.tolist()

    base = str(tmp_path / "report")
    assert main(["analyze", f, "--out", base]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    ref = analysis.analyze(inst)
    names = [fld.name for fld in fields(ref) if fld.name != "e_curve"]
    assert list(report) == names
    for name in names:
        value = getattr(ref, name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif name == "small_eta_bounds":
            value = [vars(row) for row in value]
        assert report[name] == value, name


def test_json_nonfinite_floats(interval_file, tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from qreglp import analysis

    real = analysis.analyze
    monkeypatch.setattr(analysis, "analyze", lambda *a, **k: replace(
        real(*a, **k), slope_bound_angle=float("nan"), gap_bound=float("inf"),
        slope_last_segment=-np.inf))
    assert main(["analyze", interval_file, "--out", str(tmp_path / "r")]) == 0
    text = (tmp_path / "r.json").read_text()
    assert '"slope_bound_angle": NaN' in text
    assert '"gap_bound": Infinity' in text
    assert '"slope_last_segment": -Infinity' in text
    report = json.loads(text)
    assert np.isnan(report["slope_bound_angle"]) and report["gap_bound"] == np.inf


def test_analyze_names_the_failed_check(interval_file, tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from qreglp import analysis

    real = analysis.slope_report
    monkeypatch.setattr(analysis, "slope_report",
                        lambda *a: replace(real(*a), slope=real(*a).bound_angle + 1.0))
    assert main(["analyze", interval_file, "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().out.strip().endswith("bounds_ok=false")
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["checks"] == {"agreement": True, "gap_bound": True, "aux_cost": True,
                                "slope_chain": False, "small_eta": True, "e_monotone": True}
    assert report["bounds_ok"] is False


def test_ot_threshold_without_the_formula_route(tmp_path, capsys):
    # n = 9 is past the permutation budget, so only the traced route runs.
    f = tmp_path / "cost9.json"
    f.write_text(json.dumps({"cost": np.random.default_rng(1).uniform(size=(9, 9)).tolist()}))
    assert main(["ot", "threshold", str(f)]) == 0
    assert capsys.readouterr().out.strip() == (
        "eta_star_formula=skipped eta_star_path=302.097171025 agree=n/a"
    )


def test_ot_threshold_too_large_for_both_routes(tmp_path, capsys):
    f = tmp_path / "cost33.json"
    f.write_text(json.dumps({"cost": np.random.default_rng(1).uniform(size=(33, 33)).tolist()}))
    assert main(["ot", "threshold", str(f)]) == 1
    assert "instance too large for both threshold routes" in capsys.readouterr().err


def _per_cell_csv(header, rows):
    """The CSV of one ``format(v, ".12g")`` per float cell and ``str`` per other cell: the
    reference for :func:`cli._write_csv`."""
    def cell(v):
        return format(float(v), ".12g") if isinstance(v, (float, np.floating)) else str(v)
    return header + "\n" + "".join(",".join(cell(v) for v in row) + "\n" for row in rows)


def test_write_csv_matches_the_per_cell_formatter():
    inf = float("inf")
    curve = np.column_stack([np.linspace(0.0, 1.1, 7), np.geomspace(1e-300, 3.0, 7),
                             np.arange(7.0)])
    rows = [
        [0, 0.1, 1.0 / 3.0, -0.0, 2.0],
        [np.int64(7), np.float64(2.5), inf, -inf, float("nan")],
        [1e-300, 5e-324, 1.7976931348623157e308, -1234.5678901234567, 1e16],
        [123456789012345, np.float32(0.1), True, -np.float64(0.0), 12345678901.5],
        *(r.csv_values() for r in (ExperimentRow(12, None, 2.5e-7, None, skipped=True),
                                   ExperimentRow(14, 1.0 / 7.0, 2.0 / 3.0, 3.0 / 14.0))),
        *([eta, e, int(seg)] for eta, e, seg in curve.tolist()),
        *([row[0], row[1], int(row[2])] for row in curve),
    ]
    for body in (rows, rows[:0]):
        buf = io.StringIO()
        _write_csv(buf, "a,b,c", iter(body))
        assert buf.getvalue().encode() == _per_cell_csv("a,b,c", body).encode()
