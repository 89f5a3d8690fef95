"""The batch axis of Jet and the chunked subcommands: every batch column,
and every record of a chunked `invariants`, `symmetry` or `singular` call,
equals its one-point (one-probe) result bit for bit."""

import json
import math

import numpy as np
import pytest

from srsurf import (Jet, JetError, MAX_ORDER, MetricField, OneForm, build_contact_frame,
                    build_system, delta_basis, integrability_residuals, n_coeffs)
from srsurf.cli import INVARIANTS_CHUNK, _chunk_width, main
from srsurf.frame import omega_norm
from srsurf.invariants import INVARIANTS_ORDER
from srsurf.singular import SIGMA_SCAN_NODES, SIGMA_SCAN_ORDER
from srsurf.symmetry import RESIDUAL_MIN_ORDER

from conftest import AXIAL_FORM, AXIAL_METRIC, HEISENBERG, OFF_DIAGONAL_METRIC, OMEGA_1

SIGMA_METRIC = "1 + x^2\n0\n0\n1\n0\n1\n"  # with OMEGA_1: Sigma = {x = 0}


def _ufunc_disagreements(rng):
    """Values at which numpy's exp, log or x ** -0.5 differ from math's in
    the last bit on this machine (none on some): a batch that took its
    series from numpy would show there."""
    v = rng.uniform(0.3, 3.0, 20000)
    bad = ((np.exp(v) != [math.exp(x) for x in v])
           | (np.log(v) != [math.log(x) for x in v])
           | (v ** -0.5 != [x ** -0.5 for x in v]))
    return v[bad][:40]


def _batch_and_columns(order, rng):
    """Three jets a, b, c of one batch (a and c with positive values, c one
    order lower), and the same jets one point at a time."""
    values = np.concatenate([rng.uniform(0.3, 3.0, 24), _ufunc_disagreements(rng)])
    points = rng.uniform(-1, 1, (len(values), 3))
    batch = []
    for k, m in enumerate((order, order, max(order - 1, 1))):
        coeffs = rng.uniform(-1, 1, (n_coeffs(m), len(points)))
        if k != 1:
            coeffs[0] = rng.permutation(values)
        batch.append(Jet(points, m, coeffs))
    columns = [[Jet(points[i], j.order, j.coeffs[:, i]) for j in batch]
               for i in range(len(points))]
    return batch, columns


OPERATIONS = {
    "add": lambda a, b, c: a + b, "sub": lambda a, b, c: b - a,
    "mul": lambda a, b, c: a * b, "mul_lower": lambda a, b, c: b * c,
    "add_number": lambda a, b, c: 2.5 - a, "mul_number": lambda a, b, c: a * 1.5,
    "div": lambda a, b, c: b / a, "rdiv": lambda a, b, c: 3.0 / a,
    "square": lambda a, b, c: b ** 2, "cube": lambda a, b, c: b ** 3,
    "power_7": lambda a, b, c: b ** 7, "power_minus_2": lambda a, b, c: a ** -2,
    "partial_x": lambda a, b, c: b.partial(0), "partial_y": lambda a, b, c: b.partial(1),
    "partial_z": lambda a, b, c: b.partial(2),
    "reciprocal": lambda a, b, c: a.reciprocal(), "sqrt": lambda a, b, c: a.sqrt(),
    "pow_half": lambda a, b, c: a ** 0.5, "pow": lambda a, b, c: c.pow(-1.5),
    "exp": lambda a, b, c: b.exp(), "log": lambda a, b, c: a.log(),
    "sin": lambda a, b, c: b.sin(), "cos": lambda a, b, c: b.cos(),
    "chain": lambda a, b, c: ((a * b).exp() + c.sin() * a.sqrt()).partial(0),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_batch_columns_are_the_one_point_jets(name):
    op = OPERATIONS[name]
    for order in range(1, MAX_ORDER + 1):
        batch, columns = _batch_and_columns(order, np.random.default_rng(order))
        got = op(*batch)
        assert got.coeffs.shape == (n_coeffs(got.order), len(columns))
        assert got.point is batch[0].point
        for i, jets in enumerate(columns):
            want = op(*jets)
            assert got.order == want.order
            assert np.array_equal(got.coeffs[:, i], want.coeffs), (order, i)
            assert got.value[i] == want.value


def test_batch_value_and_seeds():
    points = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -3.0]])
    for axis in range(3):
        x = Jet.variable(axis, points, 3)
        assert x.point is points
        assert np.array_equal(x.value, points[:, axis])
        assert np.array_equal(x.partial(axis).value, [1.0, 1.0])
    c = Jet.constant(np.array([2.0, -1.0]), points, 2)
    assert np.array_equal(c.value, [2.0, -1.0])
    assert Jet.constant(4.0, points, 2).coeffs.shape == (n_coeffs(2), 2)


def test_batch_errors():
    points = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    x = Jet.variable(0, points, 2)
    # the first bad point's error, as one point at a time
    with pytest.raises(JetError, match=r"sqrt of jet with non-positive value -0\.5"):
        x.sqrt()
    with pytest.raises(JetError, match="base point mismatch"):
        x + Jet.variable(0, points.copy(), 2)  # a batch shares one point array
    with pytest.raises(JetError, match="base point mismatch"):
        x + Jet.variable(0, (0.5, 0.0, 0.0), 2)
    for bad in (np.zeros((0, 3)), np.zeros((2, 2))):
        with pytest.raises(JetError, match="shape"):
            Jet.variable(0, bad, 2)
    with pytest.raises(JetError, match="wrong shape"):
        Jet(points, 2, np.zeros(n_coeffs(2)))


def test_omega_norm_matches_the_solve():
    """sqrt(omega^T adj(g) omega / det g) against omega^T g^-1 omega by
    np.linalg.solve, on random metrics with condition number at most 4 at
    scales 1e-3..1e3 (both carry rounding errors that grow with it)."""
    rng = np.random.default_rng(7)
    point = (0.0, 0.0, 0.0)
    for _ in range(300):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        g = (q * rng.uniform(0.5, 2.0, 3)) @ q.T * 10 ** rng.uniform(-3, 3)
        g = (g + g.T) / 2
        w = rng.normal(size=3) * 10 ** rng.uniform(-3, 3)
        got = omega_norm(tuple(Jet.constant(c, point, 1) for c in w),
                         tuple(tuple(Jet.constant(c, point, 1) for c in row) for row in g))
        want = math.sqrt(w @ np.linalg.solve(g, w))
        assert abs(got / want - 1) <= 1e-15


# -- chunked `srsurf invariants` -----------------------------------------------

def _invariants(capsys, omega, points, metric_file, *options):
    text = ";".join(",".join(repr(float(c)) for c in p) for p in points)
    argv = ["invariants", "--omega", omega, "--points=" + text, *options]
    if metric_file:
        argv += ["--metric-file", str(metric_file)]
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


def _assert_one_point_records(capsys, omega, points, metric_file=None, *options):
    """The records of one call over `points` are, byte for byte, those of
    one call per point; returns them."""
    lines = _invariants(capsys, omega, points, metric_file, *options)
    assert len(lines) == len(points)
    for p, line in zip(points, lines):
        assert [line] == _invariants(capsys, omega, [p], metric_file, *options), p
    return lines


@pytest.fixture
def sigma_metric(tmp_path):
    path = tmp_path / "metric.txt"
    path.write_text(SIGMA_METRIC)
    return path


def _sigma_fixture_points(n, rng):
    """n points, every fifth on Sigma = {x = 0}."""
    points = rng.uniform(-1.5, 1.5, (n, 3))
    points[::5, 0] = 0.0
    return points


@pytest.mark.parametrize("n", [1, INVARIANTS_CHUNK - 1, INVARIANTS_CHUNK,
                               INVARIANTS_CHUNK + 1])
def test_chunk_lengths(capsys, sigma_metric, n):
    points = _sigma_fixture_points(n, np.random.default_rng(n))
    lines = _assert_one_point_records(capsys, OMEGA_1, points, sigma_metric)
    assert sum('"noncontact"' in line for line in lines) == len(range(0, n, 5))


def test_chunk_of_sigma_points_only(capsys, sigma_metric):
    points = _sigma_fixture_points(INVARIANTS_CHUNK + 3, np.random.default_rng(3))
    points[:, 0] = 0.0
    lines = _assert_one_point_records(capsys, OMEGA_1, points, sigma_metric)
    assert all('"noncontact"' in line for line in lines)


def test_sigma_and_noncontact_points_mixed(capsys, sigma_metric):
    # below --tol-contact 0.3 a point off Sigma is noncontact too
    points = _sigma_fixture_points(60, np.random.default_rng(4))
    points[1::5, 0] = np.linspace(-0.2, 0.2, 12)
    lines = _assert_one_point_records(capsys, OMEGA_1, points, sigma_metric,
                                      "--tol-contact", "0.3")
    noncontact = sum('"noncontact"' in line for line in lines)
    assert len(range(0, 60, 5)) < noncontact < 60


def test_rows_with_errors_rerun_one_point_at_a_time(capsys, tmp_path):
    metric = tmp_path / "metric.txt"
    metric.write_text("x 0 0 1 0 1")  # not positive definite at x <= 0
    points = _sigma_fixture_points(40, np.random.default_rng(5))
    lines = _assert_one_point_records(capsys, OMEGA_1, points, metric)
    errors = [line for line in lines if "metric not positive definite at" in line]
    assert len(errors) == sum(points[:, 0] <= 0) > 0


@pytest.mark.parametrize("omega, metric, message", [
    ("x*dy + x*dz", "1 0 0 1 0 1", "one-form vanishes at"),
    (HEISENBERG, "x 0 0 1 0 1", "metric not positive definite at"),
    # positive definite, but every projection norm is below 1e-24 at x = 0
    (HEISENBERG, "1e-30+x^2 0 0 1e-30+x^2 0 1e-30+x^2", "degenerate projection seed at"),
])
def test_batch_error_names_its_first_failing_row(omega, metric, message):
    rows = np.array([[1.0, 0.5, 0.0], [0.0, 0.25, 0.0], [-1.0, 0.0, 0.0]])
    omega, metric = OneForm.parse(omega), MetricField.from_text(metric)

    def error(points):
        with pytest.raises(JetError) as info:
            delta_basis(omega.evaluate(points), metric.evaluate(points))
        return str(info.value)
    assert error(rows) == error(tuple(rows[1])) == f"{message} (0.0, 0.25, 0.0)"


def test_seed_axis_varies_from_row_to_row(capsys, tmp_path):
    metric = tmp_path / "metric.txt"
    metric.write_text("\n".join(OFF_DIAGONAL_METRIC))
    points = np.random.default_rng(6).uniform(-2, 2, (50, 3))
    # the seed of delta_basis: the largest g_ss - omega_s^2 / |omega|_g^2
    w = OneForm.parse(HEISENBERG).evaluate(points, 1)
    g = MetricField.from_text(metric.read_text()).evaluate(points, 1)
    norms = [g[i][i].value - w[i].value ** 2 / omega_norm(w, g) ** 2 for i in range(3)]
    assert len(set(np.argmax(norms, axis=0))) == 2
    _assert_one_point_records(capsys, HEISENBERG, points, metric)


def test_transcendental_form(capsys, tmp_path):
    metric = tmp_path / "metric.txt"
    metric.write_text("\n".join(OFF_DIAGONAL_METRIC))
    points = np.random.default_rng(8).uniform(-1, 1, (30, 3))
    _assert_one_point_records(capsys, "dz + sin(x)*exp(y)*dx + ln(2 + z)*dy - x*dy",
                              points, metric)


def test_batch_wide_errors_name_the_first_row(euclid):
    """An error of a whole batch names its first row, as a one-point call
    on that row names it: a batch with no contact point, and the residuals
    of a batch whose every row is degenerate."""
    def error(call, point):
        with pytest.raises(JetError) as info:
            call(point)
        return str(info.value)

    def contact_frame(points):
        return build_contact_frame(OneForm.parse(OMEGA_1), euclid, points)

    def residuals(points):
        return integrability_residuals(build_system(
            OneForm.parse(HEISENBERG), euclid, points, RESIDUAL_MIN_ORDER))

    sigma = np.array([[0.0, 0.1, 0.2], [0.0, 0.3, 0.4]])
    noncontact = error(contact_frame, sigma)
    assert noncontact == error(contact_frame, tuple(sigma[0]))
    assert noncontact.startswith("point (0.0, 0.1, 0.2) is noncontact")
    rows = np.array([[0.3, 0.4, 0.1], [-0.5, 0.2, 0.7], [0.9, -0.6, 0.0]])
    degenerate = error(residuals, rows)
    assert degenerate == error(residuals, tuple(rows[0]))
    assert degenerate == "system degenerate at (0.3, 0.4, 0.1)"


# -- chunked `srsurf symmetry` and `srsurf singular` ---------------------------

SYMMETRY_CHUNK = _chunk_width(RESIDUAL_MIN_ORDER)
# not positive definite at x <= 0; with the axial form, degenerate at y = 0
BAD_METRIC = "x 0 0 1 0 1"


def test_chunk_width_rule():
    """One rule for every order: 128 KiB over 8 bytes per product-table term
    and batch row."""
    assert INVARIANTS_CHUNK == _chunk_width(INVARIANTS_ORDER) == 195
    assert SYMMETRY_CHUNK == 35
    assert _chunk_width(SIGMA_SCAN_ORDER, SIGMA_SCAN_NODES) == 70


def _cli(capsys, argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out.splitlines()


def _points_option(p):
    return ["--points=" + ",".join(repr(float(c)) for c in p)]


def _assert_one_call_per_item(capsys, argv, items, batch=None):
    """One call of `argv` with every item's options (or with `batch`)
    prints, byte for byte, what one call per item prints; returns that."""
    lines = _cli(capsys, argv + (batch or [a for item in items for a in item]))
    assert len(lines) == len(items)
    for item, line in zip(items, lines):
        assert [line] == _cli(capsys, argv + item), item
    return lines


def _branches(lines):
    return {('"error"' in line, json.loads(line)["branch"]) for line in lines}


@pytest.fixture
def metric_file(tmp_path):
    def write(text):
        path = tmp_path / "metric.txt"
        path.write_text(text)
        return path
    return write


@pytest.mark.parametrize("n", [1, SYMMETRY_CHUNK - 1, SYMMETRY_CHUNK, SYMMETRY_CHUNK + 1])
def test_symmetry_chunk_lengths(capsys, metric_file, n):
    # degenerate rows at x = 0 or y = 0, noncontact rows below --tol-contact 0.6
    points = np.random.default_rng(n).uniform(-1, 1, (n, 3))
    points[::4, 0] = 0.0
    points[1::5, 1] = 0.0
    argv = ["symmetry", "--omega", AXIAL_FORM, "--metric-file",
            metric_file("\n".join(AXIAL_METRIC)), "--tol-contact", "0.6"]
    lines = _assert_one_call_per_item(capsys, argv, [_points_option(p) for p in points])
    if n > 1:
        assert _branches(lines) == {(False, "regular"), (False, "degenerate"),
                                    (False, "noncontact")}


def test_symmetry_rows_with_errors_rerun_one_point_at_a_time(capsys, metric_file):
    points = np.random.default_rng(7).uniform(-0.5, 1.5, (SYMMETRY_CHUNK + 5, 3))
    points[::3, 1] = 0.0
    argv = ["symmetry", "--omega", AXIAL_FORM, "--metric-file", metric_file(BAD_METRIC)]
    lines = _assert_one_call_per_item(capsys, argv, [_points_option(p) for p in points])
    assert _branches(lines) == {(True, "regular"), (False, "regular"), (False, "degenerate")}
    assert sum('"error"' in line for line in lines) == sum(points[:, 0] <= 0)


def test_symmetry_chunks_on_sigma(capsys, metric_file):
    # a first chunk wholly on Sigma = {x = 0}, a second partly on it, and a
    # third with a point where the metric is not positive definite
    w = SYMMETRY_CHUNK
    points = np.random.default_rng(9).uniform(-1, 1, (2 * w + 4, 3))
    points[:w, 0] = 0.0
    points[w:2 * w:3, 0] = 0.0
    points[-1, 2] = 30.0
    argv = ["symmetry", "--omega", OMEGA_1, "--metric-file",
            metric_file("\n".join(OFF_DIAGONAL_METRIC))]
    lines = _assert_one_call_per_item(capsys, argv, [_points_option(p) for p in points])
    assert all('"noncontact"' in line for line in lines[:w])
    assert _branches(lines[w:2 * w]) == {(False, "regular"), (False, "noncontact")}
    assert '"error"' in lines[-1]


def test_symmetry_reconstruct_grid(capsys, metric_file):
    argv = ["symmetry", "--omega", AXIAL_FORM, "--metric-file",
            metric_file("\n".join(AXIAL_METRIC)), "--reconstruct", "--base", "0.1,0.2,0.3"]
    grid = [(x, y, 0.2) for x in (-0.5, 0.0, 0.5) for y in (-0.5, 0.0, 0.5)]
    lines = _assert_one_call_per_item(capsys, argv, [_points_option(p) for p in grid],
                                      batch=["--grid", "x=-0.5:0.5:3, y=-0.5:0.5:3, z=0.2"])
    assert sum('"V"' in line for line in lines) == 4
    assert sum('"degenerate"' in line for line in lines) == 5


PROBES = ["-1,0.2,0.3 : 1,0.1,0.2", "-0.5,-0.4,0.1 : 0.7,0.3,-0.5",
          "-1,0,-1 : 1,0,-1.5", "0.5,0,0 : 1,0,0", "-0.8,0.9,0.9 : 0.3,-0.9,0.1",
          "1,0.5,-0.5 : -1,0.5,-0.5", "-0.2,0,0 : 0.9,0.1,0", "-1,-1,-1 : 1,1,1"]


@pytest.mark.parametrize("bad_scan", [False, True])
def test_singular_probes_in_one_batch(capsys, metric_file, bad_scan):
    # g33 = 2 + z is not positive definite at z <= -2: the third probe reaches
    # it if bad_scan
    probes = PROBES[:2] + ["-1,0,-1 : 1,0,-3"] * bad_scan + PROBES[2 + bad_scan:]
    argv = ["singular", "--omega", OMEGA_1, "--metric-file",
            metric_file("1 + x^2\n0\n0\n1\n0\n2 + z\n")]
    lines = _assert_one_call_per_item(capsys, argv, [["--probe=" + p] for p in probes])
    records = [json.loads(line) for line in lines]
    assert records[3]["error"] == "no Sigma crossing on probe"
    assert sum("Q112" in r for r in records) == 7 - bad_scan
    if bad_scan:
        assert records[2]["error"].startswith("metric not positive definite at")
