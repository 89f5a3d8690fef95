import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srsurf.cli
from srsurf import selftest
from srsurf.cli import main
from srsurf.fields import OneForm, ParseError
from srsurf.report import map_arrays, parse_grid, parse_point, parse_points, parse_probe, render

from conftest import (AXIAL_METRIC, CARTAN, HEISENBERG, OMEGA_1, SPECIAL_FORM,
                      SPECIAL_METRIC, strict_json)

AXIAL_METRIC_TEXT = "".join(e + "\n" for e in AXIAL_METRIC)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ndjson(out):
    return [strict_json(line) for line in out.splitlines() if line.strip()]


# -- parsing helpers -------------------------------------------------------

def test_parse_points():
    assert parse_points("1,2,3; 4,5,6") == [(1, 2, 3), (4, 5, 6)]
    with pytest.raises(ValueError):
        parse_points("1,2")


POINT_TEXTS = ["1,2,3", "1,2,3;4,5,6", "-0.0,1e-300,1e300;7,8,9", "1, 2 ,3; 4,5,6",
               "1 .5,2,3", "- 1,2,3", ";1,2,3;;4,5,6;", " ; 1,2,3 ; ", "", " ", "1_0,2,3",
               "1,nan,3", "inf,0,0;1,2,3", "1,2,3;1e999,0,0", "1,2", "1,2,3;4,5", "1,2,3,4",
               "1,2,3,4;5,6", "1,,3", "1,,2,3", ",1,2", "1,a,3", "1,2,3;x", "1;2;3", "1,2,3:4,5,6"]


@pytest.mark.parametrize("text", POINT_TEXTS)
def test_parse_points_is_the_point_by_point_parse(text):
    # a regular text is split once; any other takes the loop, for its error text
    def point_by_point():
        return [parse_point(chunk) for chunk in text.split(";") if chunk.strip()]
    try:
        want = point_by_point()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_points(text)
        assert str(got.value) == str(exc)
    else:
        got = parse_points(text)
        assert got == want and all(map(math.isfinite, np.ravel(got)))
        assert [list(map(type, p)) for p in got] == [[float] * 3] * len(got)


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
    for spec in ("0:1", "0:1:5:7", "0:1:2.5"):  # a range names its form and axis
        with pytest.raises(ValueError) as err:
            parse_grid(f"x=0, y={spec}, z=0")
        assert str(err.value) == (f"grid range must be start:stop:count with an integer "
                                  f"count on axis 'y', got {spec!r}")


# -- invariants subcommand -------------------------------------------------

def test_invariants_smoke(capsys):
    code, out, err = run_cli(capsys, "invariants", "--omega", HEISENBERG,
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
    code, out, _ = run_cli(capsys, "invariants", "--omega", OMEGA_1,
                           "--points", "0,0.3,0.1")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "noncontact"
    assert rec["contact"] is False


def test_contact_test_is_scale_free(capsys):
    # omega -> 1e-12 omega scales lambda by 1e-12 but leaves the distribution,
    # M and K unchanged, so the point stays on the contact branch
    recs = []
    for omega in (HEISENBERG, "1e-12*dz + 1e-12*y*dx - 1e-12*x*dy"):
        code, out, _ = run_cli(capsys, "invariants", "--omega", omega,
                               "--points", "0.5,0.5,0")
        assert code == 0
        recs += ndjson(out)
    plain, scaled = recs
    assert scaled["branch"] == "regular" and scaled["contact"] is True
    for key in ("M", "K"):
        assert abs(scaled[key] - plain[key]) <= 1e-8 * abs(plain[key])


# g -> c g scales lambda and K by c^-1, M by c^-2, D by c^-4 and EQ by c^-1/2
METRIC_SCALE_LAWS = {"lam": -1.0, "K": -1.0, "M": -2.0, "D": -4.0, "EQ1": -0.5, "EQ2": -0.5}


def _regular_records(capsys, tmp_path, command, omega, metric, points, c=1.0):
    """The records of a call under the metric entries `metric` with {c} set to c,
    each of them regular."""
    metric_file = tmp_path / "metric.txt"
    metric_file.write_text("\n".join(e.format(c=repr(c)) for e in metric))
    code, out, err = run_cli(capsys, command, "--omega", omega, "--points", points,
                             "--metric-file", str(metric_file))
    assert (code, err) == (0, "")
    recs = ndjson(out)
    assert all(r["branch"] == "regular" and "error" not in r for r in recs)
    return recs


@pytest.mark.parametrize("command, omega, metric, points, c", [
    # g = 1e-30 I: every projection norm of the seed is 1e-30 or less
    ("invariants", HEISENBERG, "{c} 0 0 {c} 0 {c}".split(), "0,0.25,0; 1,0.5,0; -1,0,0", 1e-30),
    # a scale at which (g n) x omega, the seed unnormalized, overflows at order 5
    ("symmetry", "dz + y*dx", ["{c}*(1 + x^2)", "0", "0", "{c}", "0", "{c}"], "0.4,0.7,-0.2",
     1e-12),
    # a scale at which lambda's 1 / sqrt(q) would overflow at order 5, omega's;
    # it is formed at order 4
    ("symmetry", "dz + y*dx", ["{c}*(1 + x^2)", "0", "0", "{c}", "0", "{c}"], "0.4,0.7,-0.2",
     1e-30),
])
def test_metric_scale_law(capsys, tmp_path, command, omega, metric, points, c):
    plain, scaled = (_regular_records(capsys, tmp_path, command, omega, metric, points, scale)
                     for scale in (1.0, c))
    for p, s in zip(plain, scaled):
        for key, power in METRIC_SCALE_LAWS.items():
            if key in p:
                assert s[key] == pytest.approx(p[key] * c ** power, rel=1e-12)


# omega -> c omega, c > 0, scales lambda and its gradient on the Sigma roots by c and
# keeps the rest: the distribution, its frame and the Sigma roots do not change
OMEGA_SCALE_LAWS = {"lam": 1, "M": 0, "K": 0, "D": 0, "EQ1": 0, "EQ2": 0, "lnf": 0,
                    "Q112": 0, "Q212": 0, "point": 0, "diagnostics.lambda_gradient_on_delta": 1}


# c stays in [1e-3, 1e3]: omega of scale 1e-200 or 1e160 still fails, because
# q = omega^T adj(g) omega underflows or overflows (ROADMAP item 4).  The residuals
# are left out: on the axial fixture, where dz is a symmetry, they are roundoff about
# 0 and move by 18 times their size under c (ROADMAP item 11).  Of the fields
# checked, EQ1 comes closest to 1e-12: 8.3e-13 at (0.4, 0.3, 0.1) for c = 1e3.
@pytest.mark.parametrize("c", [1e-3, 0.37, 1024, 1e3])
@pytest.mark.parametrize("command, omega, metric, items", [
    ("symmetry", "{c}*dz + {c}*y*dx + {c}*x^2*y*dy",
     ("1 + x^2", "0.3*z", "0.2*y", "1 + y^2", "0.1*z", "1.5"),
     ["--points", "0.4,0.3,0.1; 1.0,-0.5,0.2; -0.7,0.8,0.0; 0.2,0.9,-0.3; 0.6,-0.2,0.5"]),
    ("symmetry", "{c}*dz + {c}*y*dx", AXIAL_METRIC,
     ["--points", "0.4,0.7,-0.2; 0.9,-0.4,0.3", "--reconstruct", "--base", "0.1,0.2,0"]),
    ("singular", "{c}*dz + {c}*(x + sin(y))^2*dx", SPECIAL_METRIC,
     ["--probe", "-1.5,0.3,-0.2 : 1.5,0.4,-0.4"]),
    ("singular", "{c}*dy + {c}*x^2*dz", AXIAL_METRIC,
     ["--probe", "-1,0,0 : 1,0,0", "--probe", "-1,0.2,0.1 : 1,0.2,0.1"]),
])
def test_omega_scale_law(capsys, tmp_path, command, omega, metric, items, c):
    metric_file = tmp_path / "metric.txt"
    metric_file.write_text("\n".join(metric))
    plain, scaled = (ndjson(run_cli(capsys, command, "--omega", omega.format(c=repr(k)),
                                    "--metric-file", str(metric_file), *items)[1])
                     for k in (1.0, c))
    assert len(plain) == len(scaled) > 0
    for p, s in zip(plain, scaled):
        assert (s["branch"], "error" in s) == (p["branch"], "error" in p)
        p, s = ({**r, **{f"diagnostics.{k}": v for k, v in r.get("diagnostics", {}).items()}}
                for r in (p, s))
        for key, power in OMEGA_SCALE_LAWS.items():
            if key in p:
                assert s[key] == pytest.approx(np.multiply(p[key], c ** power),
                                               rel=1e-12, abs=0), key
        if "V" in p:  # a direction: up to roundoff of its own size
            assert np.abs(np.subtract(s["V"], p["V"])).max() <= 1e-12 * np.linalg.norm(p["V"])


# omega -> -omega keeps lambda, M, K, EQ1, r3 and Q112, and changes the sign of
# D, EQ2, r1, r2 and Q212 (README, "Conventions")
OMEGA_SIGN_LAWS = {"lam": 1, "M": 1, "K": 1, "D": -1, "EQ1": 1, "EQ2": -1, "Q112": 1, "Q212": -1}
RESIDUAL_SIGN_LAWS = (-1, -1, 1)
SIGN_POINTS = ["--points", "0.4,0.3,0.1; 1.0,-0.5,0.2; -0.7,0.8,0.0; 0.2,0.9,-0.3"]


@pytest.mark.parametrize("command, omega, minus, metric, items, residuals", [
    # dz is a symmetry of these two, so their residuals are roundoff
    ("symmetry", "dz + y*dx + x^2*y*dy", "-dz - y*dx - x^2*y*dy", AXIAL_METRIC, SIGN_POINTS, 0),
    ("symmetry", "dz + y*dx", "-dz - y*dx", AXIAL_METRIC, SIGN_POINTS, 0),
    # no dz symmetry: each of the 4 x 3 residuals is 0.09 or more
    ("symmetry", "dz + y*dx + x^2*z*dy", "-dz - y*dx - x^2*z*dy", AXIAL_METRIC, SIGN_POINTS, 12),
    ("singular", SPECIAL_FORM, "-dz - (x + sin(y))^2*dx", SPECIAL_METRIC,
     ["--probe", "-1.5,0.3,-0.2 : 1.5,0.4,-0.4"], 0),
])
def test_omega_sign_parity(capsys, tmp_path, command, omega, minus, metric, items, residuals):
    metric_file = tmp_path / "metric.txt"
    metric_file.write_text("\n".join(metric))
    plain, flipped = (ndjson(run_cli(capsys, command, "--omega", form, "--metric-file",
                                     str(metric_file), *items)[1]) for form in (omega, minus))
    assert len(plain) == len(flipped) > 0
    checked = 0
    for p, f in zip(plain, flipped):
        assert "error" not in p and p["branch"] == f["branch"]
        for key, sign in OMEGA_SIGN_LAWS.items():
            if key in p:
                assert f[key] == pytest.approx(sign * p[key], rel=1e-12), key
        for r, s, sign in zip(p.get("residuals", ()), f.get("residuals", ()),
                              RESIDUAL_SIGN_LAWS):
            if abs(r) > 1e-8:  # far above roundoff
                assert s == pytest.approx(sign * r, rel=1e-12)
                checked += 1
    assert checked == residuals
    if command == "singular":
        (p,) = plain
        assert (p["Q112"], p["Q212"]) == pytest.approx((0.012158842068662523,
                                                        -0.8874547580771941), rel=1e-12)


def test_steep_metric_scale_gives_regular_records(capsys, tmp_path):
    # (g n) x omega, E1's seed unnormalized, overflows at order 5 here from x = 0.3 on
    c = "exp(-100*x)"
    _regular_records(capsys, tmp_path, "symmetry", "dz + y*dx",
                     [c, "0", "0", f"{c}*(1 + y^2)", "0", c],
                     "; ".join(f"{x / 10},0.5,0.2" for x in (-2, -1, 0, 1, 3, 4, 5)))


def test_invariants_grid_and_csv(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEISENBERG,
                           "--grid", "x=-1:1:3, y=-1:1:3, z=0",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x,y,z,branch,contact,lam,M,K")
    assert len(lines) == 10


def test_deterministic_output(capsys):
    argv = ("invariants", "--omega", HEISENBERG, "--points", "0.3,0.4,-0.2;1,1,1")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.ndjson"
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEISENBERG,
                           "--points", "1,0,0", "--out", str(target))
    assert code == 0
    assert out == ""
    recs = [strict_json(line) for line in target.read_text().splitlines()]
    assert recs[0]["schema"] == "srs/1"


def test_empty_point_list_ok(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEISENBERG)
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
    code, _, err = run_cli(capsys, "invariants", "--omega", HEISENBERG,
                           "--grid", "x=1:2, y=0, z=0")
    assert code == 1
    assert err == ("error: grid range must be start:stop:count with an integer "
                   "count on axis 'x', got '1:2'\n")



@pytest.mark.parametrize("omega, argv, metric, message", [
    (HEISENBERG, ["--grid", "x=0, y 1, z=0"], "", "bad grid axis spec: ' y 1'"),
    (HEISENBERG, ["--grid", "x=-1:1:0, y=0, z=0"], "", "grid count must be >= 1 on axis 'x'"),
    ("dz + x^(1/0)*dy", ["--points", "0,0,0"], "",
     "zero denominator in exponent (at position 10)"),
    (HEISENBERG, ["--points", "0,0,0"], "1 0 0 1 0",
     "metric needs exactly 6 upper-triangle entries"),
])
def test_bad_input_names_its_fault_and_exits_1(capsys, tmp_path, omega, argv, metric, message):
    path = tmp_path / "metric.txt"
    path.write_text(metric)
    code, out, err = run_cli(capsys, "invariants", "--omega", omega,
                             "--metric-file", str(path), *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_indented_expression_parses(capsys):
    # leading whitespace, an indent to Python, is skipped; positions stay the text's own
    plain = run_cli(capsys, "invariants", "--omega", HEISENBERG, "--points", "0.3,0.1,0.2")
    assert plain[0] == 0 and plain[1]
    assert run_cli(capsys, "invariants", "--omega", " \t" + HEISENBERG,
                   "--points", "0.3,0.1,0.2") == plain
    code, _, err = run_cli(capsys, "invariants", "--omega", "  dz + q*dx", "--points", "0,0,0")
    assert (code, err) == (1, "error: unknown identifier 'q' (at position 7)\n")


def test_json_metric_numbers_are_the_constants_they_denote(capsys, tmp_path):
    outs = []
    for name, text in (("text", "2 0 0 1 0 1"), ("json", "[2, 0, 0, 1, 0, 1]")):
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run_cli(capsys, "invariants", "--omega", HEISENBERG,
                               "--metric-file", str(path),
                               "--points", "0.3,-0.2,0.1;1,0.5,-0.4")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("entries, bad", [
    ('[[1], "0", "0", "1", "0", "1"]', "entry 1 ([1])"),
    ("[1, 0, 0, 1, 0, true]", "entry 6 (True)"),
    ('[1, 0, {"a": 1}, 1, 0, 1]', "entry 3 ({'a': 1})"),
    ("[1, null, 0, 1, 0, 1]", "entry 2 (None)"),
    ("[1, 0, 0, NaN, 0, 1]", "entry 4 (nan)"),
    ("[1, 0, 0, 1, 0, 1e999]", "entry 6 (inf)"),
])
def test_json_metric_entry_not_text_or_number_exits_1(capsys, tmp_path,
                                                      entries, bad):
    path = tmp_path / "metric.json"
    path.write_text(entries)
    code, out, err = run_cli(capsys, "invariants", "--omega", HEISENBERG,
                             "--metric-file", str(path), "--points", "0,0,0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and bad in err

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
    argv = [command, "--omega", OMEGA_1, option, value]
    if command != "singular":
        argv += ["--points", "1,0,0"]
    if option == "--base":
        argv.append("--reconstruct")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command, option, value", [
    ("invariants", "--tol-contact", "0"),
    ("symmetry", "--tol-degenerate", "-1"),
    ("singular", "--tol-root", "-1"),
    ("symmetry", "--tol-quad", "0"),
    # a tolerance that overflows to inf would make every point noncontact
    # (degenerate, a root) without a word
    ("invariants", "--tol-contact", "inf"),
    ("invariants", "--tol-contact", "1e400"),
    ("symmetry", "--tol-degenerate", "inf"),
    ("singular", "--tol-root", "1e400"),
    ("symmetry", "--tol-quad", "nan"),
])
def test_nonpositive_tolerance_names_its_option(capsys, command, option, value):
    argv = [command, "--omega", CARTAN, f"{option}={value}"]
    argv += (["--probe", "-1,0,0 : 1,0,0"] if command == "singular"
             else ["--points", "1,0,0"])
    if option == "--tol-quad":
        argv += ["--reconstruct", "--base", "0,0,0"]
    assert run_cli(capsys, *argv) == (1, "", f"error: {option} must be positive and finite\n")


@pytest.mark.parametrize("command, where", [
    ("invariants", ["--points", "0.1,0.2,0.3"]),
    ("invariants", ["--points", "0.1,0.2,0.3; 0.4,0.5,0.6"]),
    ("symmetry", ["--points", "0.1,0.2,0.3"]),
    ("singular", ["--probe", "0.1,0.2,0.3 : 1,1,1"]),
])
def test_overflowing_metric_entry_is_not_positive_definite(capsys, tmp_path,
                                                          command, where):
    # g12^2 overflows: the minors of g become -inf or NaN and fail the test
    metric = tmp_path / "metric.txt"
    metric.write_text("1 1e200 0 1 0 1")
    code, out, err = run_cli(capsys, command, "--omega", CARTAN,
                             "--metric-file", str(metric), *where)
    assert (code, err) == (0, "")
    recs = ndjson(out)
    assert len(recs) == len(where[1].split(";"))
    for rec in recs:
        assert rec["error"] == f"metric not positive definite at {tuple(rec['point'])}"


@pytest.mark.parametrize("command, where", [
    ("invariants", ["--points", "0.1,0.2,0.3; 0.4,0.5,0.6"]),
    ("symmetry", ["--points", "0.1,0.2,0.3; 0.4,0.5,0.6"]),
    ("singular", ["--probe", "0.1,0.2,0.3 : 1,1,1", "--probe", "0,0,0 : 1,1,1"]),
])
def test_metric_with_infinite_minors_is_out_of_range(capsys, tmp_path, command, where):
    # positive definite, but the cofactor 33 and det g overflow to +inf
    metric = tmp_path / "metric.txt"
    metric.write_text("1e200 0 0 1e200 0 1e200")
    code, out, err = run_cli(capsys, command, "--omega", CARTAN,
                             "--metric-file", str(metric), *where)
    assert (code, err) == (0, "")
    recs = ndjson(out)
    assert len(recs) == 2
    for rec in recs:
        assert rec["error"] == f"metric out of range at {tuple(rec['point'])}"


@pytest.mark.parametrize("command", ["invariants", "symmetry"])
def test_metric_of_scale_1e_minus_40_follows_the_laws(capsys, tmp_path, command):
    # lambda's 1 / sqrt(q), q = omega^T adj(g) omega of scale 1e-80, is a series
    # in powers of u / q(p): at order 4, as symmetry needs it, 1 / q(p)^4 would
    # overflow, and the series in scaled form does not
    metric = ["{c}*(1 + x^2)", "0", "0", "{c}", "0", "{c}"]
    plain, scaled = (_regular_records(capsys, tmp_path, command, "dz + y*dx", metric,
                                      "0.4,0.7,-0.2", c) for c in (1.0, 1e-40))
    keys = {"invariants": {"lam", "M", "K"}, "symmetry": set(METRIC_SCALE_LAWS)}[command]
    for p, s in zip(plain, scaled):
        assert keys <= p.keys() and keys <= s.keys()
        for key in keys:
            assert s[key] == pytest.approx(p[key] * 1e-40 ** METRIC_SCALE_LAWS[key], rel=1e-12)


@pytest.mark.parametrize("command", ["invariants", "symmetry"])
def test_float_fault_is_an_error_record(capsys, command):
    # omega is of scale e^400 at x = 1, where omega^T adj(g) omega overflows;
    # the chunk runs again point by point, and the other points keep their records
    code, out, err = run_cli(capsys, command, "--omega", "exp(400*x)*dz + exp(400*x)*y*dx",
                             "--points", "0.1,0.5,0.2; 1,0.5,0.2; 0.2,0.5,0.2")
    assert (code, err) == (0, "")
    recs = ndjson(out)
    assert [r.get("error") for r in recs] == [None, "overflow encountered in multiply", None]
    assert recs[0]["contact"] is recs[2]["contact"] is True


def test_float_fault_in_reconstruct_is_a_diagnostic(capsys, tmp_path, monkeypatch):
    def faulting(*args, **kwargs):
        return float(np.float64(1e300) * np.float64(1e300)), {}
    monkeypatch.setattr("srsurf.cli.reconstruct_lnf", faulting)
    metric = tmp_path / "metric.txt"
    metric.write_text(AXIAL_METRIC_TEXT)
    code, out, err = run_cli(capsys, "symmetry", "--omega", "dz + y*dx", "--metric-file",
                             str(metric), "--points", "0.4,0.7,-0.2", "--reconstruct",
                             "--base", "0,0,0")
    assert (code, err) == (0, "")
    (rec,) = ndjson(out)
    assert rec["diagnostics"]["reconstruct_error"] == "overflow encountered in scalar multiply"
    assert "lnf" not in rec and rec["branch"] == "regular" and "EQ1" in rec


def _poisoned(monkeypatch, place: str, value: float) -> list:
    """The argv of a call with `value` put by a patched library function into
    a scalar field, a vector, or a diagnostics value of its last record: an
    array of values, or (`reconstruct.abserr`) a one-record constant."""
    def last(a):  # a copy of `a` with `value` last
        a = np.array(a, dtype=float)
        a[-1] = value
        return a

    cli = srsurf.cli
    if place == "scalar":  # M
        def invariants_at(*args, original=cli.invariants_at, **kwargs):
            m, k, frame, c = original(*args, **kwargs)
            m.coeffs[0] = last(m.coeffs[0])
            return m, k, frame, c
        monkeypatch.setattr(cli, "invariants_at", invariants_at)
        return ["invariants", "--omega", HEISENBERG, "--points", "1,0,0; 0,0,0"]
    if place == "vector":  # the second integrability residual
        def residuals(sys_, original=cli.integrability_residuals):
            r1, r2, r3 = original(sys_)
            return r1, last(r2), r3
        monkeypatch.setattr(cli, "integrability_residuals", residuals)
        return ["symmetry", "--omega", CARTAN, "--metric-file", "metric.txt",
                "--points", "0.4,0.7,-0.2"]
    if place == "diagnostics":  # sigma.margin
        def locate_sigma(*args, original=cli.locate_sigma, **kwargs):
            roots = original(*args, **kwargs)
            return dataclasses.replace(roots, margin=last(roots.margin))
        monkeypatch.setattr(cli, "locate_sigma", locate_sigma)
        return ["singular", "--omega", OMEGA_1, "--probe", "-1,0.2,0.1 : 1,0.2,0.1"]

    def reconstruct_lnf(*args, original=cli.reconstruct_lnf, **kwargs):
        lnf, info = original(*args, **kwargs)
        return lnf, dict(info, abserr=value)
    monkeypatch.setattr(cli, "reconstruct_lnf", reconstruct_lnf)
    return ["symmetry", "--omega", CARTAN, "--metric-file", "metric.txt",
            "--points", "0.4,0.7,-0.2", "--reconstruct", "--base", "0,0,0"]


def test_nonfinite_record_writes_nothing(capsys, tmp_path, monkeypatch):
    # NaN, +inf and -inf, each in a scalar field, a vector and a diagnostics
    # value: exit 1, nothing on stdout, and no --out file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "metric.txt").write_text(AXIAL_METRIC_TEXT)
    for place in ("scalar", "vector", "diagnostics", "diagnostics constant"):
        for value in (math.nan, math.inf, -math.inf):
            with monkeypatch.context() as patch:
                argv = _poisoned(patch, place, value)
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (1, ""), (place, value)
                assert err == "error: Out of range float values are not JSON compliant\n"
                assert run_cli(capsys, *argv, "--out", "out.ndjson")[:2] == (1, "")
                assert not (tmp_path / "out.ndjson").exists()
            assert run_cli(capsys, *argv)[0] == 0  # the same call, unpatched


def test_reconstruct_without_base_exits_1(capsys):
    code, _, err = run_cli(capsys, "symmetry", "--omega", HEISENBERG,
                           "--points", "1,0,0", "--reconstruct")
    assert code == 1


@pytest.mark.parametrize("option, value", [("--base", "0,0,0"),
                                           ("--tol-quad", "1e-6")])
def test_reconstruct_option_without_reconstruct_exits_1(capsys, option, value):
    code, out, err = run_cli(capsys, "symmetry", "--omega", HEISENBERG,
                             "--points", "1,0,0", option, value)
    assert code == 1
    assert out == "" and "--reconstruct" in err


@pytest.mark.parametrize("base", [";", "0,0,0;1,1,1"])
def test_base_takes_exactly_one_point(capsys, base):
    code, out, err = run_cli(capsys, "symmetry", "--omega", HEISENBERG, "--points",
                             "1,0,0", "--reconstruct", "--base", base)
    assert (code, out) == (1, "")
    assert err == f"error: point must have 3 coordinates: {base!r}\n"


# Every option of every subcommand, with a value, and the options each
# subcommand reads; each one it does not read is an argparse error.
OPTIONS = {"--omega": OMEGA_1, "--metric-file": "metric.txt", "--format": "json",
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
    argv = [command] + (["--omega", OMEGA_1] if "--omega" in READS[command] else [])
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
    path.write_text(AXIAL_METRIC_TEXT)
    return str(path)


def test_symmetry_degenerate_branch(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "--omega", CARTAN,
                           "--points", "0.3,0.4,0.1")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "degenerate"
    assert "EQ1" not in rec and "residuals" not in rec


def test_symmetry_regular_branch(capsys, axial_metric_file):
    code, out, _ = run_cli(capsys, "symmetry", "--omega", CARTAN,
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["branch"] == "regular"
    assert "EQ1" in rec and "EQ2" in rec and "D" in rec
    assert max(abs(v) for v in rec["residuals"]) < 1e-9


def test_symmetry_reconstruct(capsys, axial_metric_file):
    code, out, _ = run_cli(capsys, "symmetry", "--omega", CARTAN,
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2",
                           "--reconstruct", "--base", "0,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert "lnf" in rec
    assert len(rec["V"]) == 3


def test_reconstruct_diagnostics(capsys, axial_metric_file):
    # from (0, -0.5, 0) the segment to (1, 0.5, 0) has its midpoint on the
    # degenerate plane y = 0 and detours; neval, abserr and rounds (the
    # batched build_system calls) are summed over the legs
    code, out, _ = run_cli(capsys, "symmetry", "--omega", CARTAN,
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2; 1,0.5,0",
                           "--reconstruct", "--base", "0,-0.5,0")
    assert code == 0
    direct, detour = (rec["diagnostics"]["reconstruct"] for rec in ndjson(out))
    for info in (direct, detour):
        assert set(info) == {"neval", "abserr", "route", "rounds"}
        assert type(info["neval"]) is type(info["rounds"]) is int
        assert isinstance(info["abserr"], float) and 0 <= info["abserr"] < 1e-9
    assert (direct["route"], direct["neval"], direct["rounds"]) == ("direct", 21, 1)
    assert (detour["route"], detour["neval"], detour["rounds"]) == ("detour", 42, 2)


def test_reconstruct_honours_tol_contact(capsys, axial_metric_file):
    # the base is noncontact at --tol-contact 0.5, and so is the segment's
    # midpoint: the target gets an error, not an ln f
    code, out, _ = run_cli(capsys, "symmetry", "--omega", CARTAN,
                           "--metric-file", axial_metric_file,
                           "--tol-contact", "0.5", "--reconstruct",
                           "--base", "2,2,0", "--points", "0.1,0.1,0; 2,2,0")
    assert code == 0
    target, base = ndjson(out)
    assert base["branch"] == "noncontact"
    assert target["branch"] == "regular"
    assert "noncontact" in target["diagnostics"]["reconstruct_error"]
    assert "lnf" not in target and "V" not in target


def test_diagnostics_give_the_order_and_the_budget_left(capsys, axial_metric_file):
    # jet_order is the command's jet order, budget_remaining the lowest
    # order among the jets a record reports
    code, out, _ = run_cli(capsys, "invariants", "--omega", HEISENBERG,
                           "--points", "1,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["diagnostics"] == {"jet_order": 3, "budget_remaining": 0}
    code, out, _ = run_cli(capsys, "symmetry", "--omega", CARTAN,
                           "--metric-file", axial_metric_file,
                           "--points", "0.4,0.7,-0.2")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["diagnostics"] == {"jet_order": 5, "budget_remaining": 1}


# -- singular subcommand ---------------------------------------------------

def test_singular_probe(capsys):
    code, out, _ = run_cli(capsys, "singular", "--omega", OMEGA_1,
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
    code, out, _ = run_cli(capsys, "singular", "--omega", OMEGA_1,
                           "--probe", "0.5,0,0 : 1,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["error"] == "no Sigma crossing on probe"


@pytest.mark.parametrize("omega, metric, probe, error", [
    # omega vanishes at x = 0
    ("x*dy + x*dz", "", "-1,0,0 : 1,0,0", "one-form vanishes at (0.0, 0.0, 0.0)"),
    # the metric is not positive definite at x <= 0
    (OMEGA_1, "x 0 0 1 0 1", "-1,0,0 : 1,0,0",
     "metric not positive definite at (-1.0, 0.0, 0.0)"),
])
def test_singular_bad_scan_point_fails_its_own_probe(capsys, tmp_path, omega,
                                                      metric, probe, error):
    metric_file = tmp_path / "metric.txt"
    metric_file.write_text(metric)
    common = ("singular", "--omega", omega, "--metric-file", str(metric_file))
    good = "0.5,-1,0 : 1,1,0"
    code, out, _ = run_cli(capsys, *common, "--probe", good, "--probe", probe,
                           "--probe", good)
    assert code == 0
    first, bad, last = ndjson(out)
    assert bad["error"] == error
    assert bad["diagnostics"]["probe"] == [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    _, alone, _ = run_cli(capsys, *common, "--probe", good)
    assert ndjson(alone) == [first] == [last]


def test_invariants_number_out_of_range_exits_1(capsys):
    code, out, err = run_cli(capsys, "invariants", "--omega", "1e400*dz + y*dx",
                             "--points", "0.1,0.2,0.3")
    assert (code, out) == (1, "")
    assert err == "error: number out of range (at position 0)\n"


def test_singular_error_formats_plain_floats(capsys):
    # lambda is proportional to x^2 here, so d(lambda)|_Delta vanishes on Sigma
    code, out, _ = run_cli(capsys, "singular", "--omega", "dy + x^3*dz",
                           "--probe", "-1,0,0 : 1,0,0")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["error"] == ("d(lambda)|_Delta vanishes at (0.0, 0.0, 0.0): "
                            "not transversal")
    assert "np.float64" not in out


def test_singular_every_sign_change_is_a_root(capsys):
    # lambda is proportional to -(3 x^2 - 0.25): two sign changes on the probe
    code, out, _ = run_cli(capsys, "singular", "--omega", "dy + (x^2-0.25)*x*dz",
                           "--probe", "-1,0.1,0 : 1,0.1,0")
    assert code == 0
    first, second = ndjson(out)
    root = math.sqrt(1 / 12)  # 0.288675...
    assert first["point"] == pytest.approx([-root, 0.1, 0.0], abs=1e-12)
    assert second["point"] == pytest.approx([root, 0.1, 0.0], abs=1e-12)
    for rec in (first, second):
        assert rec["diagnostics"]["transversal"] is True and "Q112" in rec
        assert rec["diagnostics"]["sigma"]["candidate"] == "sign_change"


def test_singular_tangential_sigma_is_a_minimum(capsys):
    # lambda is proportional to -x^2: it touches 0 at x = 0, between two scan
    # nodes, without a sign change, and d(lambda) vanishes there, so the root
    # record and its frame both find Sigma not transversal
    for probe in ("-1,0,0 : 0.9,0,0", "-0.5,0,0 : 1,0,0"):
        code, out, _ = run_cli(capsys, "singular", "--omega", "dy + x^3*dz",
                               "--probe", probe)
        assert code == 0
        (rec,) = ndjson(out)
        assert rec["point"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert rec["diagnostics"]["transversal"] is False
        assert rec["diagnostics"]["sigma"]["candidate"] == "minimum"
        assert rec["error"] == "d(lambda)|_Delta vanishes at (0.0, 0.0, 0.0): not transversal"


def test_singular_probe_tangent_to_a_transversal_sigma(capsys, tmp_path):
    # the probe touches Sigma = {x = -sin(y)} at y = 1 without crossing it:
    # its root is a minimum of |lambda|, but Sigma is transversal there, so
    # the record says so and has its Q
    metric = tmp_path / "metric.txt"
    metric.write_text("".join(e + "\n" for e in SPECIAL_METRIC))
    code, out, _ = run_cli(
        capsys, "singular", "--omega", SPECIAL_FORM, "--metric-file", str(metric),
        "--probe=-0.6793802930474546,0.7,0.0 : -1.0629949302138337,1.41,0.0")
    assert code == 0
    (rec,) = ndjson(out)
    assert rec["point"] == pytest.approx([-math.sin(1.0), 1.0, 0.0], abs=1e-12)
    assert rec["diagnostics"]["sigma"]["candidate"] == "minimum"
    assert rec["diagnostics"]["transversal"] is True
    assert rec["diagnostics"]["lambda_gradient_on_delta"] > 0.3
    assert "error" not in rec and "Q112" in rec and "Q212" in rec


def test_singular_sigma_diagnostics_schema(capsys):
    # lambda is proportional to -x^2 (x - 0.5): tangential at x = 0, crossing at 0.5
    f = "x^4/4 - x^3/6"
    probes = ["-0.35,0,0 : 0.9,0.2,0.1", "-1,0.2,0.1 : 0.9,0.2,0.1", "0.2,-1,0 : 0.7,1,0.5"]
    code, out, _ = run_cli(capsys, "singular", "--omega", f"dy + ({f})*dz",
                           *[a for p in probes for a in ("--probe", p)])
    assert code == 0
    records = ndjson(out)
    assert [r["diagnostics"]["sigma"]["candidate"] for r in records] == [
        "minimum", "sign_change", "minimum", "sign_change", "sign_change"]
    for rec in records:
        sigma = rec["diagnostics"]["sigma"]
        assert set(sigma) == {"candidate", "newton_iterations", "margin", "converged"}
        assert type(sigma["newton_iterations"]) is int and sigma["newton_iterations"] >= 1
        assert type(sigma["margin"]) is float and 0.0 <= sigma["margin"] <= 1e-10
        assert sigma["converged"] is True
        x = rec["point"][0]  # |omega| = |(0, 1, f(x))| under the Euclidean metric
        norm = math.hypot(1.0, x ** 4 / 4 - x ** 3 / 6)
        assert sigma["margin"] == pytest.approx(rec["lam"] / norm, rel=1e-12, abs=0)


@pytest.mark.parametrize("text", ["dx + y*", "dx + (y", "dx + q*dy", "y*dx + 2"])
def test_a_bad_omega_raises_the_same_parse_error_each_call(capsys, text):
    # a field text compiles once per process, but an error is not kept: each call
    # raises it anew, with its text and position
    before = srsurf.cli._compiled.cache_info().currsize
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            srsurf.cli._compiled(OneForm.parse, text)
        errors.append((str(exc.value), exc.value.pos))
    assert errors[0] == errors[1]
    with pytest.raises(ParseError) as exc:
        OneForm.parse(text)
    assert errors[0] == (str(exc.value), exc.value.pos)
    outputs = [run_cli(capsys, "singular", "--omega", text, "--probe", "-1,0,0 : 1,0,0")
               for _ in range(2)]
    assert outputs[0] == outputs[1] == (1, "", f"error: {errors[0][0]}\n")
    assert srsurf.cli._compiled.cache_info().currsize == before


def test_a_cached_field_gives_the_records_of_a_fresh_parse(capsys, tmp_path):
    metric = tmp_path / "metric.txt"
    metric.write_text(AXIAL_METRIC_TEXT)
    calls = [("singular", "--omega", SPECIAL_FORM, "--metric-file", str(metric),
              "--probe", "-1.5,0.3,-0.2 : 1.5,0.4,-0.4"),
             ("invariants", "--omega", "dz + y*dx + x^2*y*dy", "--metric-file", str(metric),
              "--points", "0.4,0.3,0.1; 0.1,-0.2,0.3"),
             ("symmetry", "--omega", "dz + y*dx + x^2*y*dy", "--points", "0.4,0.3,0.1")]
    srsurf.cli._compiled.cache_clear()
    fresh = [run_cli(capsys, *argv) for argv in calls]
    info = srsurf.cli._compiled.cache_info()
    cached = [run_cli(capsys, *argv) for argv in calls]
    assert srsurf.cli._compiled.cache_info().hits == info.hits + 2 * len(calls)
    assert srsurf.cli._compiled.cache_info().misses == info.misses
    assert cached == fresh and all(code == 0 and out for code, out, _ in fresh)


def test_singular_unconverged_root_says_so(capsys, monkeypatch):
    # with one Newton step the polish stops short: the bracketed root is
    # still reported, as not converged, whatever its margin
    monkeypatch.setattr("srsurf.singular.NEWTON_MAX_ITER", 1)
    code, out, _ = run_cli(capsys, "singular", "--omega", "dy + (x^2-0.25)*x*dz",
                           "--probe", "-1,0.1,0 : 1,0.1,0")
    assert code == 0
    records = ndjson(out)
    assert len(records) == 2
    for rec in records:
        sigma = rec["diagnostics"]["sigma"]
        assert (sigma["converged"], sigma["newton_iterations"]) == (False, 1)
        assert sigma["margin"] > 1e-10


def test_singular_and_invariants_import_no_scipy(tmp_path):
    # no subcommand loads scipy, ln f's quadrature (`symmetry --reconstruct`)
    # included: scipy is a test dependency only
    metric = tmp_path / "metric.txt"
    metric.write_text(AXIAL_METRIC_TEXT)
    code = ("import sys\n"
            "import srsurf.symmetry\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from srsurf.cli import main\n"
            "main(['singular', '--omega', 'dy + x^2*dz', '--probe', '-1,0,0 : 1,0,0'])\n"
            "main(['invariants', '--omega', 'dz + y*dx', '--points', '0.1,0.2,0.3'])\n"
            f"main(['symmetry', '--omega', 'dz + y*dx', '--metric-file', {str(metric)!r},\n"
            "      '--points', '0.4,0.7,-0.2', '--reconstruct', '--base', '0,0,0'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    lines = out.stdout.splitlines()
    assert len(lines) == 5 and '"Q112"' in lines[1] and '"K"' in lines[2]
    assert '"lnf"' in lines[3] and '"reconstruct"' in lines[3]
    assert lines[0] == lines[4] == "[]"


# -- selftest subcommand ---------------------------------------------------

def test_selftest_imports_no_numpy_ma():
    # every subcommand runs without numpy.ma, which the selftest's
    # injected-symmetry check would load through np.setdiff1d
    code = ("import sys\n"
            "from srsurf.cli import main\n"
            "code = main(['selftest'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "0 False"


# (name, tolerance) of each row of the selftest, in order
SELFTEST_ROWS = [("jet-vs-finite-difference", 1e-5), ("invariant-M-K-closed-forms", 1e-8),
                 ("frame-identities", 1e-8), ("gauge-invariance-M-K", 1e-8),
                 ("nonholonomity-properties", 1e-9), ("cartan-degenerate-branch", 1e-12),
                 ("injected-symmetry-verification", 1e-7),
                 ("symmetry-reconstruction-fixture", 1e-7), ("singular-fixture", 1e-6),
                 ("budget-exhaustion-designed-failure", 1.0)]


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0
    doc = strict_json(out)
    assert doc["schema"] == "srs/1"
    assert doc["passed"] is True
    assert [(check["name"], check["tol"]) for check in doc["checks"]] == SELFTEST_ROWS


@pytest.mark.parametrize("row", selftest.ALL_CHECKS, ids=[row[0] for row in selftest.ALL_CHECKS])
def test_selftest_row_passes(monkeypatch, row):
    monkeypatch.setattr(selftest, "ALL_CHECKS", (row,))
    (result,) = selftest.run_selftest()
    assert (result.name, result.tol, result.passed, result.note) == (row[0], row[1], True, "")


def _raises():
    raise RuntimeError("boom")


def test_selftest_failing_check_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CHECKS",
                        (("always-fails", 0.5, lambda: [1.0]), ("raises", 1e-8, _raises)))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 2
    assert "FAIL  always-fails" in out
    assert "FAIL  raises" in out and "error: boom" in out
    assert out.rstrip().endswith("selftest: FAIL")


def test_selftest_nan_in_a_later_array_fails(monkeypatch):
    # Python's max over per-array maxima drops a NaN that follows a finite value
    monkeypatch.setattr(selftest, "ALL_CHECKS", (
        ("nan-later", 1e-8, lambda: [np.array([1e-12]), np.array([np.nan, 0.0])]),
        ("nan-first", 1e-8, lambda: (np.nan, 1e-12))))
    for result in selftest.run_selftest():
        assert result.passed is False and math.isnan(result.max_dev), result.name


def test_selftest_raising_row_keeps_its_name_and_tolerance(monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CHECKS", (("my-row", 1e-3, _raises),))
    assert selftest.run_selftest() == [
        selftest.CheckResult("my-row", math.inf, 1e-3, False, "error: boom")]


def test_selftest_row_with_no_deviation_fails(monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CHECKS", (("empty", 1.0, lambda: []),
                                                 ("empty-arrays", 1.0, lambda: [np.zeros(0)])))
    for result in selftest.run_selftest():
        assert result.passed is False and "checked nothing" in result.note, result.name


def test_selftest_json_with_failing_rows_is_json(capsys, monkeypatch):
    # a non-finite max_dev is written as null, not as Infinity or NaN
    monkeypatch.setattr(selftest, "ALL_CHECKS", (
        ("raises", 1e-8, _raises), ("nan", 1e-8, lambda: [1e-12, np.array([np.nan])]),
        ("passes", 1e-8, lambda: [1e-12])))
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 2
    doc = strict_json(out)
    assert doc["passed"] is False
    assert [(c["name"], c["max_dev"], c["passed"]) for c in doc["checks"]] == [
        ("raises", None, False), ("nan", None, False), ("passes", 1e-12, True)]
    assert doc["checks"][0]["note"] == "error: boom"


# -- README examples -------------------------------------------------------

def readme_commands():
    """argv of each `srsurf ...` line of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    words = (shlex.split(line, comments=True) for line in block.splitlines())
    return [w[1:] for w in words if w[:1] == ["srsurf"]]


def readme_library_block():
    """The fenced python block under README's "## Library" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs():
    code = readme_library_block()
    assert "import" in code
    exec(compile(code, "README.md (Library)", "exec"), {})


def test_public_names_exist():
    # Python reads a stale __all__ entry only at a star import
    import srsurf
    assert len(set(srsurf.__all__)) == len(srsurf.__all__)
    assert [name for name in srsurf.__all__ if not hasattr(srsurf, name)] == []
    namespace = {}
    exec("from srsurf import *", namespace)
    assert set(srsurf.__all__) <= set(namespace)


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "metric.txt").write_text(AXIAL_METRIC_TEXT)
    commands = readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        recs = ndjson(out)
        assert recs and all(r["schema"] == "srs/1" for r in recs), argv


# -- report round-trip -----------------------------------------------------

def test_point_report_round_trip():
    # every field, an array of one value per record or a constant, comes back
    # as json reads it, written as json.dumps writes it
    column = lambda *values: np.array(values)  # noqa: E731
    record = dict(point=[column(1.0, -1.0), 2.0, column(3.0, 3.5)], branch="regular",
                  contact=True, lam=column(2.0, 1e300), M=0.5, K=column(1.5, -0.0), D=0.01,
                  EQ1=0.1, EQ2=column(-0.2, 5e-324), residuals=[column(1e-12, 0.0), 0.0, -1e-12],
                  lnf=0.25, V=(0.0, 0.0, 1.0), error=column("a", "b%\"\n\u00e9"),
                  diagnostics={"jet_order": column(4, 5), "ok": column(True, False)})
    first, second = render(record)
    assert strict_json(first) == {
        "schema": "srs/1", "point": [1.0, 2.0, 3.0], "branch": "regular",
        "contact": True, "lam": 2.0, "M": 0.5, "K": 1.5, "D": 0.01,
        "EQ1": 0.1, "EQ2": -0.2, "residuals": [1e-12, 0.0, -1e-12],
        "lnf": 0.25, "V": [0.0, 0.0, 1.0], "error": "a",
        "diagnostics": {"jet_order": 4, "ok": True}}
    for line, k in ((first, 0), (second, 1)):
        want = map_arrays(record, lambda a: a[k].item())
        assert line == json.dumps(dict(want, schema="srs/1"), sort_keys=True, allow_nan=False)
    assert render(record, csv=True) == [
        "1.0,2.0,3.0,regular,True,2.0,0.5,1.5,0.01,0.1,-0.2,0.25,,,a",
        "-1.0,2.0,3.5,regular,True,1e+300,0.5,-0.0,0.01,0.1,5e-324,0.25,,,b%\"\n\u00e9"]


def _lines_of_every_shape(capsys, tmp_path, monkeypatch):
    """The JSON lines of calls that give each record shape, and the shapes:
    each record's branch and its keys, those of diagnostics with a dot."""
    metric = tmp_path / "metric.txt"
    metric.write_text(AXIAL_METRIC_TEXT)
    bad_metric = tmp_path / "bad.txt"
    bad_metric.write_text("x 0 0 1 0 1")  # not positive definite at x <= 0
    axial = ["--omega", CARTAN, "--metric-file", str(metric)]
    calls = [
        ["invariants", "--omega", OMEGA_1, "--points", "0,0.3,0.1; 1,0,0"],
        ["invariants", "--omega", OMEGA_1, "--metric-file", str(bad_metric),
         "--points", "-1,0,0; 1,0.2,0"],
        ["symmetry", *axial, "--points", "0.4,0.7,-0.2; 0,0.3,0.1"],
        ["symmetry", "--omega", CARTAN, "--points", "0.3,0.4,0.1"],
        ["symmetry", *axial, "--points", "0.4,0.7,-0.2", "--reconstruct", "--base", "0,0,0"],
        ["symmetry", *axial, "--tol-contact", "0.5", "--reconstruct", "--base", "2,2,0",
         "--points", "0.1,0.1,0; 2,2,0"],
        ["singular", "--omega", OMEGA_1, "--probe", "-1,0.2,0.1 : 1,0.2,0.1",
         "--probe", "0.5,0,0 : 1,0,0"],
        ["singular", "--omega", "dy + x^3*dz", "--probe", "-1,0,0 : 1,0,0"],
        ["singular", "--omega", OMEGA_1, "--metric-file", str(bad_metric),
         "--probe", "-1,0,0 : 1,0,0"],
    ]
    lines = []
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        lines += out.splitlines()
    with monkeypatch.context() as patch:  # ln f found, V not
        def failing(*args):
            raise FloatingPointError("overflow encountered in exp")
        patch.setattr(srsurf.cli, "reconstructed_V", failing)
        lines += run_cli(capsys, *calls[4])[1].splitlines()

    def shape(rec):
        return rec["branch"], frozenset([*rec, *(f"diagnostics.{k}" for k in
                                                 rec.get("diagnostics", {}))])
    return lines, {shape(strict_json(line)) for line in lines}


def test_every_record_shape_is_canonical_json(capsys, tmp_path, monkeypatch):
    # each line is what json.dumps(sort_keys=True) writes of its own record
    lines, shapes = _lines_of_every_shape(capsys, tmp_path, monkeypatch)
    for line in lines:
        assert line == json.dumps(strict_json(line), sort_keys=True, allow_nan=False)
    base = {"schema", "point", "branch"}
    system = base | {"contact", "lam", "M", "K", "D"}
    regular = system | {"EQ1", "EQ2", "residuals", "diagnostics", "diagnostics.jet_order",
                        "diagnostics.budget_remaining"}
    found = {"lnf", "diagnostics.reconstruct"}
    root = base | {"contact", "lam", "diagnostics", "diagnostics.transversal",
                   "diagnostics.lambda_gradient_on_delta", "diagnostics.sigma"}
    assert shapes == {
        ("noncontact", frozenset(base | {"contact"})),
        ("regular", frozenset(base | {"error"})),  # an error record
        ("regular", frozenset(base | {"contact", "lam", "M", "K", "diagnostics",
                                      "diagnostics.jet_order",
                                      "diagnostics.budget_remaining"})),
        ("regular", frozenset(regular)),
        ("degenerate", frozenset(system)),
        ("regular", frozenset(regular | found | {"V"})),
        ("regular", frozenset(regular | {"diagnostics.reconstruct_error"})),
        ("regular", frozenset(regular | found | {"diagnostics.reconstruct_error"})),
        ("noncontact", frozenset(root | {"Q112", "Q212",
                                         "diagnostics.lambda_identity_residuals"})),
        ("noncontact", frozenset(root | {"error"})),
        ("regular", frozenset(base | {"error", "diagnostics", "diagnostics.probe"})),
    }


def test_error_text_is_written_as_json_writes_it(capsys, monkeypatch):
    # a %, a quote, a newline and a non-ASCII character, in JSON and in CSV
    text = '50% "off"\nat \u03bb = 0'

    def failing(*args, **kwargs):
        raise ValueError(text)
    monkeypatch.setattr(srsurf.cli, "invariants_at", failing)
    argv = ["invariants", "--omega", HEISENBERG, "--points", "1,0,0; 0,0,0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for line, point in zip(out.splitlines(), ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])):
        assert line == json.dumps({"schema": "srs/1", "point": point, "branch": "regular",
                                   "error": text}, sort_keys=True)
    _, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert out.split("\n", 1)[1] == f"1.0,0.0,0.0,regular,,,,,,,,,,,{text}\n" \
                                    f"0.0,0.0,0.0,regular,,,,,,,,,,,{text}\n"


# -- one parser per process -------------------------------------------------

@pytest.mark.parametrize("first, first_code, second", [
    (["invariants", "--omega", HEISENBERG, "--points", "1,0,0"], 0,
     ["invariants", "--omega", HEISENBERG, "--points", "0,0.5,0; 0.2,0,0"]),
    (["singular", "--omega", OMEGA_1, "--probe", "-1,0.2,0.1 : 1,0.2,0.1"], 0,
     ["singular", "--omega", OMEGA_1, "--probe", "0.5,0,0 : 1,0,0"]),
    (["invariants", "--omega", "dz + q*dx", "--points", "0,0,0"], 1,
     ["invariants", "--omega", HEISENBERG, "--grid", "x=0:1:2, y=0, z=0"]),
])
def test_reused_parser_keeps_calls_independent(capsys, first, first_code, second):
    # argparse's append action copies its default list before it appends, so
    # the one parser of the process keeps nothing of a call for the next
    srsurf.cli._build_parser.cache_clear()
    alone = run_cli(capsys, *second)  # on a parser of its own
    parser = srsurf.cli._build_parser()
    assert run_cli(capsys, *first)[0] == first_code
    assert run_cli(capsys, *second) == alone and alone[0] == 0 and alone[1]
    assert srsurf.cli._build_parser() is parser
    assert parser.parse_args(["singular", "--omega", OMEGA_1]).probe == []


# -- CSV, pinned for every subcommand ---------------------------------------

CSV_HEADER = "x,y,z,branch,contact,lam,M,K,D,EQ1,EQ2,lnf,Q112,Q212,error"
# the rows before the series took their terms from numpy in scaled form: the
# numbers moved in the last bits, and stay within 1e-12 of these
MATH_SERIES_ROWS = [
    "0.4,0.7,-0.2,regular,True,0.778498944161523,0.06713710760255023,1.671480646687258,"
    "0.09830249551684314,0.4242424242424241,-0.18872701676642978,0.25038764395624463,,,",
    "0.3,0.4,0.1,degenerate,True,0.9284766908852593,0.06384485091498286,"
    "1.9768133174791913,0.0,,,,,,",
    "0.0,0.2,0.1,noncontact,False,0.0,,,,,,,-0.0,-0.0,",
    "0.5,0.0,0.0,regular,,,,,,,,,,,no Sigma crossing on probe"]


def _near(row: str, want: str) -> bool:
    """Each field of a CSV row equal to `want`'s, numbers within 1e-12 relative."""
    got, near = row.split(","), want.split(",")
    return len(got) == len(near) and all(
        a == b or (a not in ("", "True", "False") and b and
                   float(a) == pytest.approx(float(b), rel=1e-12)) for a, b in zip(got, near))


@pytest.mark.parametrize("argv, rows", [
    (["symmetry", "--omega", CARTAN, "--metric-file", "metric.txt",
      "--points", "0.4,0.7,-0.2", "--reconstruct", "--base", "0,0,0"],
     ["0.4,0.7,-0.2,regular,True,0.778498944161523,0.06713710760255019,1.6714806466872587,"
      "0.0983024955168431,0.42424242424242414,-0.18872701676642983,0.2503876439562446,,,"]),
    (["symmetry", "--omega", CARTAN, "--points", "0.3,0.4,0.1"],
     ["0.3,0.4,0.1,degenerate,True,0.9284766908852593,0.06384485091498286,"
      "1.976813317479191,0.0,,,,,,"]),
    (["singular", "--omega", OMEGA_1, "--probe", "-1,0.2,0.1 : 1,0.2,0.1",
      "--probe", "0.5,0,0 : 1,0,0"],
     ["0.0,0.2,0.1,noncontact,False,0.0,,,,,,,-0.0,-0.0,",
      "0.5,0.0,0.0,regular,,,,,,,,,,,no Sigma crossing on probe"]),
])
def test_symmetry_and_singular_csv(capsys, tmp_path, monkeypatch, argv, rows):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "metric.txt").write_text(AXIAL_METRIC_TEXT)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == [CSV_HEADER, *rows]
    assert all(any(_near(row, want) for want in MATH_SERIES_ROWS) for row in rows)
