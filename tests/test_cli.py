import json
from pathlib import Path

import numpy as np
import pytest

from qreglp import solve_qlp
from qreglp._serialize import dumps
from qreglp.cli import main
from qreglp.ot import from_json_dict


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


def test_project_cert_failure_on_bogus_vertices(tmp_path, capsys):
    # A vertex list that is wildly wrong must trip the certificate.
    data = {
        "dim": 1,
        "G": [[1.0], [-1.0]],
        "h": [1.0, 0.0],
        "vertices": [[0.0], [9.0]],
        "c": [-1.0],
    }
    f = tmp_path / "bogus.json"
    f.write_text(json.dumps(data))
    assert main(["project", str(f), "--eta", "5.0"]) == 2


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


def test_oracle_check_small(capsys):
    assert main(["oracle-check", "--polytopes", "4", "--transport", "2"]) == 0
    assert "ok=true" in capsys.readouterr().out


def test_budget_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QREG_BUDGET", "10")
    from qreglp.cli import build_parser

    args = build_parser().parse_args(["analyze", "x"])
    assert args.budget == 10


def test_dumps_17_digits():
    text = dumps({"v": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["v"] == 1.0 / 3.0
