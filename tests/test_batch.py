"""The batch axis of Jet and the chunked subcommands: every batch column,
and every record of a chunked `invariants`, `symmetry` or `singular` call,
equals its one-point (one-probe) result bit for bit."""

import itertools
import json
import math

import numpy as np
import pytest

import srsurf.cli
from srsurf import (Jet, JetError, MAX_ORDER, MetricField, OneForm, build_contact_frame,
                    build_singular_frame, build_system, delta_basis, integrability_residuals,
                    lambda_identities, locate_sigma, multi_indices, n_coeffs, sigma_invariants)
from srsurf.cli import INVARIANTS_CHUNK, _chunk_width, main
from srsurf.frame import quadratic_form
from srsurf.invariants import INVARIANTS_ORDER
from srsurf.singular import SIGMA_SCAN_NODES, SIGMA_SCAN_ORDER, SINGULAR_FRAME_ORDER
from srsurf.symmetry import RESIDUAL_MIN_ORDER

from conftest import (AXIAL_FORM, AXIAL_METRIC, HEISENBERG, OFF_DIAGONAL_METRIC, OMEGA_1,
                      SPECIAL_FORM, SPECIAL_METRIC, TURNED_FORM, TURNED_METRIC)

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


def _batch_and_columns(order, rng, width):
    """Three jets a, b, c of one batch of `width` points (a and c with
    positive values, c one order lower), and the same jets one point at a
    time, each a batch of one."""
    values = np.concatenate([_ufunc_disagreements(rng), rng.uniform(0.3, 3.0, width)])[:width]
    points = rng.uniform(-1, 1, (width, 3))
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


def _loop_product(a, b):
    """Coefficients of a * b, one order the lower of theirs, term by term in
    graded order for every column at once: the reference for Jet.__mul__."""
    order = min(a.order, b.order)
    mis = multi_indices(order)
    index = {mi: k for k, mi in enumerate(mis)}
    out = np.zeros((len(mis), a.coeffs.shape[1]))
    for i, p in enumerate(mis):
        for j, q in enumerate(mis):
            s = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
            if sum(s) <= order:
                out[index[s]] += a.coeffs[i] * b.coeffs[j]
    return out


# a point alone, an ln f panel's nodes and an `invariants` chunk
WIDTHS = (1, 21, 195)


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_batch_columns_are_the_one_point_jets(name):
    op = OPERATIONS[name]
    for width, order in itertools.product(WIDTHS, range(1, MAX_ORDER + 1)):
        batch, columns = _batch_and_columns(order, np.random.default_rng(order), width)
        got = op(*batch)
        assert got.coeffs.shape == (n_coeffs(got.order), width)
        assert got.point is batch[0].point
        for i, jets in enumerate(columns):
            want = op(*jets)
            assert got.order == want.order
            assert np.array_equal(got.coeffs[:, i], want.coeffs[:, 0]), (width, order, i)
            assert got.value[i] == want.value[0]


@pytest.mark.parametrize("width", WIDTHS)
def test_products_are_the_loop_products(width):
    for order in range(1, MAX_ORDER + 1):
        a, b, c = _batch_and_columns(order, np.random.default_rng(order), width)[0]
        for x, y in ((a, b), (b, a), (b, c), (c, a), (a, a)):
            got = x * y
            assert got.order == min(x.order, y.order)
            assert np.array_equal(got.coeffs, _loop_product(x, y)), (order, x.order, y.order)


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
    # jets combine at one point array, or at equal ones
    assert np.array_equal((x + Jet.variable(0, points.copy(), 2)).coeffs, (x + x).coeffs)
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
        got = quadratic_form(tuple(Jet.constant(c, point, 1) for c in w),
                             tuple(tuple(Jet.constant(c, point, 1) for c in row) for row in g))[2]
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
    # positive definite, but at x = 0 omega = dz and every projection norm is
    # below 1e-24 max_s g_ss
    ("dz + x*dy", "1e-30+x^2 0 0 1e-30+x^2 0 1", "degenerate projection seed at"),
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
    norms = [g[i][i].value - w[i].value ** 2 / quadratic_form(w, g)[2] ** 2 for i in range(3)]
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


@pytest.mark.parametrize("reconstruct", [[], ["--reconstruct", "--base", "1,0.5,0.2"]])
def test_symmetry_series_overflow_in_a_chunk(capsys, metric_file, reconstruct):
    # g's scale c, about 1 for x < 0 and e^(-225 x) for x > 0, makes lambda's
    # 1 / sqrt(q), q = omega^T adj(g) omega of scale c^2, overflow in its
    # order-5 Taylor series from x = 0.3 on, and in its order-4 one (ln f's
    # quadrature) near the base at x = 1
    c = "exp(-112.5*(x + sqrt(x^2 + 0.01)))"
    argv = ["symmetry", "--omega", "dz + y*dx", "--metric-file",
            metric_file(f"{c}\n0\n0\n{c}*(1 + y^2)\n0\n{c}\n"), *reconstruct]
    points = [(x / 10, 0.5, 0.2) for x in (-2, -1, 0, 1, 3, 4, 5)]
    records = [json.loads(line) for line in _assert_one_call_per_item(
        capsys, argv, [_points_option(p) for p in points])]
    overflows = [r["error"].startswith("Taylor series of pow at ") for r in records[4:]]
    assert len(overflows) == 3 and all(overflows)
    for r in records[:4]:
        assert r["branch"] == "regular" and "error" not in r and "lnf" not in r
        if reconstruct:
            assert r["diagnostics"]["reconstruct_error"].startswith("Taylor series of pow at ")


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


# -- batched singular frames -------------------------------------------------

def _sigma_values(omega, metric, points):
    """Q112, Q212 and the two lambda-identity residuals, one row per point."""
    frame, c = build_singular_frame(omega, metric, points, SINGULAR_FRAME_ORDER)
    q = sigma_invariants(c)
    return np.reshape([q.Q112, q.Q212, *lambda_identities(frame, c)], (4, -1)).T


@pytest.mark.parametrize("form, metric", [(SPECIAL_FORM, SPECIAL_METRIC),
                                          (TURNED_FORM, TURNED_METRIC)])
def test_singular_frames_in_one_batch(form, metric):
    # Sigma = {x = -sin(y)}: one root on each probe, Q nonzero
    omega, g = OneForm.parse(form), MetricField.from_upper_triangle(metric)
    probes = [((-1.5, y, z), (1.5, y + 0.1, z - 0.2))
              for y, z in ((0.3, -0.2), (-0.7, 0.4), (1.1, 0.1), (0.0, -0.5), (-1.2, 0.3))]
    points = np.array([sp.point for roots in locate_sigma(omega, g, probes) for sp in roots])
    assert len(points) == len(probes)
    batch = _sigma_values(omega, g, points)
    alone = np.vstack([_sigma_values(omega, g, tuple(p)) for p in points])
    assert np.array_equal(batch, alone)  # bit for bit
    assert np.abs(batch[:, :2]).min() > 1e-3


def test_singular_frames_mix_both_branches_of_e3():
    # off Sigma E3 = w / omega(w); on it, the exact quotient, one order lower
    omega, g = OneForm.parse(OMEGA_1), MetricField.from_upper_triangle(OFF_DIAGONAL_METRIC)
    points = np.array([[0.3, 0.0, 0.0], [0.0, 0.2, -0.4], [-0.25, 0.4, 0.1], [0.0, -0.7, 0.5]])
    batch = _sigma_values(omega, g, points)
    assert np.array_equal(batch, np.vstack([_sigma_values(omega, g, tuple(p)) for p in points]))


@pytest.mark.parametrize("omega, probes, error", [
    # lambda is proportional to -x^2 (x - 0.5): the root at x = 0 is tangential
    ("dy + (x^4/4 - x^3/6)*dz", ["0.3,0,0 : 0.9,0.2,0.1", "-0.35,0,0 : 0.2,0.1,0",
                                 "1,0.5,0.2 : 0.2,-0.3,0"], "not transversal"),
    # Sigma = {x = 0} (special) and {y - 2 = z (x^2 + z^2)}, where w != 0
    ("dy + (x^2 + z^2)*dz + x*y*z*dx", ["-1,0.3,0.2 : 1,0.3,0.2", "0.5,1.5,0.1 : 0.5,2.5,0.1",
                                        "-1,-0.4,0.5 : 0.8,0.1,-0.2"],
     "no normalized characteristic field"),
])
def test_singular_frame_batch_falls_back_root_by_root(capsys, monkeypatch, omega, probes, error):
    sizes = []

    def counted(omega, metric, point, order):
        sizes.append(len(point) if isinstance(point, np.ndarray) else 1)
        return build_singular_frame(omega, metric, point, order)

    monkeypatch.setattr(srsurf.cli, "build_singular_frame", counted)
    argv = ["singular", "--omega", omega]
    lines = _assert_one_call_per_item(capsys, argv, [["--probe=" + p] for p in probes])
    assert sizes[:4] == [3, 1, 1, 1]  # the batch, then each root on its own
    records = [json.loads(line) for line in lines]
    with pytest.raises(JetError) as alone:  # the root's own frame
        build_singular_frame(OneForm.parse(omega), MetricField.identity(),
                             tuple(records[1]["point"]), SINGULAR_FRAME_ORDER)
    assert records[1]["error"] == str(alone.value) and str(alone.value).endswith(error)
    assert "Q112" in records[0] and "Q112" in records[2]
