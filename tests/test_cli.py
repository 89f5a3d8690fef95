import json

import pytest

from srsurf.cli import main
from srsurf.report import (PointReport, parse_grid, parse_points, parse_probe)

HEIS = "dz + y*dx - x*dy"
W1 = "dy + x^2*dz"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ndjson(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# -- parsing helpers -------------------------------------------------------

def test_parse_points():
    assert parse_points("1,2,3; 4,5,6") == [(1, 2, 3), (4, 5, 6)]
    with pytest.raises(ValueError):
        parse_points("1,2")


def test_parse_probe():
    assert parse_probe("-1,0,0 : 1,0,0") == ((-1, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        parse_probe("1,2,3")


def test_parse_grid():
    pts = parse_grid("x=-1:1:3, y=0:1:2, z=0")
    assert len(pts) == 6
    assert (0.0, 0.0, 0.0) in pts
    assert (-1.0, 1.0, 0.0) in pts
    with pytest.raises(ValueError):
        parse_grid("x=0:1:3, y=0")
    with pytest.raises(ValueError):
        parse_grid("x=0, x=1, y=0, z=0")


# -- invariants subcommand -------------------------------------------------

def test_invariants_smoke(capsys):
    code, out, err = run_cli(capsys, "invariants", "--omega", HEIS,
                             "--points", "1,0,0; 0,0,0")
    assert code == 0
    recs = ndjson(out)
    assert len(recs) == 2
    for r in recs:
        assert r["schema"] == "srs/1"
        assert r["branch"] == "regular"
        assert r["contact"] is True
    assert abs(recs[0]["M"] - 9 / 64) < 1e-10
    assert abs(recs[1]["lam"] - 2.0) < 1e-10


def test_invariants_noncontact_branch(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--omega", W1,
                           "--points", "0,0.3,0.1")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "noncontact"
    assert rec["contact"] is False


def test_contact_test_is_scale_free(capsys):
    # omega -> 1e-12 omega scales lambda by 1e-12 but leaves the distribution,
    # M and K unchanged, so the point stays on the contact branch
    recs = []
    for omega in (HEIS, "1e-12*dz + 1e-12*y*dx - 1e-12*x*dy"):
        code, out, _ = run_cli(capsys, "invariants", "--omega", omega,
                               "--points", "0.5,0.5,0")
        assert code == 0
        recs += ndjson(out)
    plain, scaled = recs
    assert scaled["branch"] == "regular" and scaled["contact"] is True
    for key in ("M", "K"):
        assert abs(scaled[key] - plain[key]) <= 1e-8 * abs(plain[key])


def test_invariants_grid_and_csv(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEIS,
                           "--grid", "x=-1:1:3, y=-1:1:3, z=0",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x,y,z,branch,contact,lam,M,K")
    assert len(lines) == 10


def test_deterministic_output(capsys):
    argv = ("invariants", "--omega", HEIS, "--points", "0.3,0.4,-0.2;1,1,1")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.ndjson"
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEIS,
                           "--points", "1,0,0", "--out", str(target))
    assert code == 0
    assert out == ""
    recs = [json.loads(line) for line in target.read_text().splitlines()]
    assert recs[0]["schema"] == "srs/1"


def test_empty_point_list_ok(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEIS)
    assert code == 0
    assert out == ""


# -- error handling --------------------------------------------------------

def test_bad_omega_exits_1(capsys):
    code, out, err = run_cli(capsys, "invariants", "--omega", "dz + q*dx",
                             "--points", "0,0,0")
    assert code == 1
    assert "error" in err


def test_bad_jet_order_exits_1(capsys):
    code, _, err = run_cli(capsys, "invariants", "--omega", HEIS,
                           "--points", "0,0,0", "--jet-order", "9")
    assert code == 1
    assert "jet order" in err


def test_bad_grid_exits_1(capsys):
    code, _, err = run_cli(capsys, "invariants", "--omega", HEIS,
                           "--grid", "x=1:2, y=0, z=0")
    assert code == 1


@pytest.mark.parametrize("command, option, value, message", [
    ("invariants", "--points", "nan,0,0;inf,1,0", "finite"),
    ("invariants", "--points", "0,-inf,0", "finite"),
    ("invariants", "--grid", "x=0:nan:3, y=0, z=0", "finite"),
    ("invariants", "--grid", "x=0:1:3, y=inf, z=0", "finite"),
    ("symmetry", "--base", "nan,0,0", "finite"),
    ("singular", "--probe", "-1,0,0 : inf,0,0", "finite"),
    ("invariants", "--tol-contact", "nan", "positive"),
])
def test_nonfinite_input_exits_1(capsys, command, option, value, message):
    argv = [command, "--omega", W1, "--points", "1,0,0", option, value]
    if option == "--base":
        argv.append("--reconstruct")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_nonfinite_record_writes_nothing(capsys, monkeypatch):
    good = PointReport(point=(0.0, 0.0, 0.0), lam=1.0)
    bad = PointReport(point=(1.0, 0.0, 0.0), lam=float("nan"))
    with pytest.raises(ValueError):
        bad.to_json()
    monkeypatch.setattr("srsurf.cli.cmd_invariants", lambda cfg: [good, bad])
    code, out, err = run_cli(capsys, "invariants", "--omega", HEIS)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_reconstruct_without_base_exits_1(capsys):
    code, _, err = run_cli(capsys, "symmetry", "--omega", HEIS,
                           "--points", "1,0,0", "--reconstruct")
    assert code == 1


# -- symmetry subcommand ---------------------------------------------------

@pytest.fixture
def axial_metric_file(tmp_path):
    path = tmp_path / "metric.txt"
    path.write_text("1 + x^2\n0\n0\n1\n0\n1\n")
    return str(path)


def test_symmetry_degenerate_branch(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "--omega", "dz + y*dx",
                           "--points", "0.3,0.4,0.1")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "degenerate"
    assert "EQ1" not in rec and "residuals" not in rec


def test_symmetry_regular_branch(capsys, axial_metric_file):
    code, out, _ = run_cli(capsys, "symmetry", "--omega", "dz + y*dx",
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "regular"
    assert "EQ1" in rec and "EQ2" in rec and "D" in rec
    assert max(abs(v) for v in rec["residuals"]) < 1e-9


def test_symmetry_reconstruct(capsys, axial_metric_file):
    code, out, _ = run_cli(capsys, "symmetry", "--omega", "dz + y*dx",
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2",
                           "--reconstruct", "--base", "0,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert "lnf" in rec
    assert len(rec["V"]) == 3


def test_symmetry_budget_diagnostic_at_order_4(capsys, axial_metric_file):
    # the residuals need jet order 5; at 4 they are skipped with a note
    code, out, _ = run_cli(capsys, "symmetry", "--omega", "dz + y*dx",
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2", "--jet-order", "4")
    assert code == 0
    (rec,) = ndjson(out)
    assert "residuals" not in rec
    assert "residual_error" in rec["diagnostics"]


# -- singular subcommand ---------------------------------------------------

def test_singular_probe(capsys):
    code, out, _ = run_cli(capsys, "singular", "--omega", W1,
                           "--probe", "-1,0.2,0.1 : 1,0.2,0.1")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "noncontact"
    assert abs(rec["point"][0]) < 1e-9
    assert abs(rec["Q112"]) < 1e-6 and abs(rec["Q212"]) < 1e-6
    assert rec["diagnostics"]["transversal"] is True


def test_singular_probe_without_crossing(capsys):
    code, out, _ = run_cli(capsys, "singular", "--omega", W1,
                           "--probe", "0.5,0,0 : 1,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["error"] == "no Sigma crossing on probe"


def test_singular_error_formats_plain_floats(capsys):
    # lambda is proportional to x^2 here, so d(lambda)|_Delta vanishes on Sigma
    code, out, _ = run_cli(capsys, "singular", "--omega", "dy + x^3*dz",
                           "--probe", "-1,0,0 : 1,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["error"] == ("d(lambda)|_Delta vanishes at (0.0, 0.0, 0.0): "
                            "not transversal")
    assert "np.float64" not in out


# -- selftest subcommand ---------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "srs/1"
    assert doc["passed"] is True
    assert len(doc["checks"]) >= 10


def test_selftest_low_order_exits_2(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--jet-order", "2")
    assert code == 2
    assert "FAIL" in out


# -- report round-trip -----------------------------------------------------

def test_point_report_round_trip():
    rep = PointReport(point=(1.0, 2.0, 3.0), branch="regular", contact=True,
                      lam=2.0, M=0.5, K=1.5, D=0.01, EQ1=0.1, EQ2=-0.2,
                      residuals=(1e-12, 0.0, -1e-12), lnf=0.25,
                      V=(0.0, 0.0, 1.0), diagnostics={"jet_order": 4})
    back = PointReport.from_json(rep.to_json())
    assert back == rep
