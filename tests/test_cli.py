import json
import shlex
from pathlib import Path

import pytest

from srsurf import selftest
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


@pytest.mark.parametrize("command", ["invariants", "symmetry", "singular",
                                     "selftest"])
def test_no_jet_order_option(capsys, command):
    # each quantity runs at the least order its derivative budget needs
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--jet-order" not in capsys.readouterr().out


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
    argv = [command, "--omega", W1, option, value]
    if command != "singular":
        argv += ["--points", "1,0,0"]
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


@pytest.mark.parametrize("option, value", [("--base", "0,0,0"),
                                           ("--tol-quad", "1e-6")])
def test_reconstruct_option_without_reconstruct_exits_1(capsys, option, value):
    code, out, err = run_cli(capsys, "symmetry", "--omega", HEIS,
                             "--points", "1,0,0", option, value)
    assert code == 1
    assert out == "" and "--reconstruct" in err


# Every option of every subcommand, with a value, and the options each
# subcommand reads; each one it does not read is an argparse error.
OPTIONS = {"--omega": W1, "--metric-file": "metric.txt", "--format": "json",
           "--out": "out.ndjson", "--points": "1,0,0", "--grid": "x=0, y=0, z=0",
           "--tol-contact": "1e-9", "--tol-degenerate": "1e-9",
           "--reconstruct": None, "--base": "0,0,0", "--tol-quad": "1e-9",
           "--probe": "-1,0,0 : 1,0,0", "--tol-root": "1e-10", "--json": None}
COMMON = {"--omega", "--metric-file", "--format", "--out"}
POINTWISE = COMMON | {"--points", "--grid", "--tol-contact"}
READS = {"invariants": POINTWISE,
         "symmetry": POINTWISE | {"--tol-degenerate", "--reconstruct", "--base",
                                  "--tol-quad"},
         "singular": COMMON | {"--probe", "--tol-root"},
         "selftest": {"--json"}}


@pytest.mark.parametrize("command, option", [
    (command, option) for command, reads in READS.items()
    for option in OPTIONS if option not in reads])
def test_unread_option_exits_2(capsys, command, option):
    argv = [command] + (["--omega", W1] if "--omega" in READS[command] else [])
    value = OPTIONS[option]
    argv.append(option if value is None else f"{option}={value}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("scale", ["1e-12", "1e6"])
@pytest.mark.parametrize("coeff", ["x^2", "(x - 0.3)^2"])
def test_singular_sigma_decisions_are_scale_free(capsys, scale, coeff):
    # omega -> c omega moves neither the root, the transversality branch
    # nor the Q-invariants; only lambda scales with c
    probe = "-1,0.2,0.1 : 1,0.2,0.1"
    _, out, _ = run_cli(capsys, "singular", "--probe", probe,
                        "--omega", f"dy + {coeff}*dz")
    (want,) = ndjson(out)
    code, out, _ = run_cli(capsys, "singular", "--probe", probe,
                           "--omega", f"{scale}*dy + {scale}*{coeff}*dz")
    assert code == 0
    (got,) = ndjson(out)
    assert got["diagnostics"]["transversal"] is True
    assert got.pop("lam") == pytest.approx(float(scale) * want.pop("lam"),
                                           rel=1e-12, abs=0)
    for key in ("Q112", "Q212"):
        assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-9, abs=1e-12)
    del got["diagnostics"], want["diagnostics"]
    assert got == want  # point, branch, contact


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


def test_selftest_failing_check_exits_2(capsys, monkeypatch):
    def check_always_fails():
        return selftest.CheckResult("always-fails", 1.0, 0.5, False)

    def check_raises():
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "ALL_CHECKS",
                        (check_always_fails, check_raises))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 2
    assert "FAIL  always-fails" in out
    assert "FAIL  raises" in out and "error: boom" in out
    assert out.rstrip().endswith("selftest: FAIL")


# -- README examples -------------------------------------------------------

def readme_commands():
    """argv of each `srsurf ...` line of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    words = (shlex.split(line, comments=True) for line in block.splitlines())
    return [w[1:] for w in words if w[:1] == ["srsurf"]]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "metric.txt").write_text("1 + x^2\n0\n0\n1\n0\n1\n")
    commands = readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        recs = ndjson(out)
        assert recs and all(r["schema"] == "srs/1" for r in recs), argv


# -- report round-trip -----------------------------------------------------

def test_point_report_round_trip():
    rep = PointReport(point=(1.0, 2.0, 3.0), branch="regular", contact=True,
                      lam=2.0, M=0.5, K=1.5, D=0.01, EQ1=0.1, EQ2=-0.2,
                      residuals=(1e-12, 0.0, -1e-12), lnf=0.25,
                      V=(0.0, 0.0, 1.0), diagnostics={"jet_order": 4})
    back = PointReport.from_json(rep.to_json())
    assert back == rep
