import numpy as np
import pytest

from srsurf import MetricField, OneForm
from srsurf.frame import jvec_dot, jvec_values, metric_dot
# The fixtures the selftest also checks, and the closed forms of M and K on
# the Euclidean Heisenberg and Cartan fixtures; test_invariants.py derives
# all four symbolically from the definitions.
from srsurf.selftest import (AXIAL_FORM, AXIAL_METRIC, CARTAN,  # noqa: F401
                             HEISENBERG, OMEGA_1, SPECIAL_FORM, SPECIAL_METRIC,
                             SPECIAL_POINT, TURNED_FORM, TURNED_METRIC,
                             TURNED_POINT, cartan_K, cartan_M, heis_K, heis_M)

OMEGA_0 = "dz + x*dy"
# neither diagonal nor constant, positive definite on |x|, |y|, |z| <= 2
OFF_DIAGONAL_METRIC = ("2 + x^2", "0.3*x", "0.2", "1 + y^2", "0.1*z", "1.5")


@pytest.fixture
def heisenberg():
    return OneForm.parse(HEISENBERG)


@pytest.fixture
def cartan():
    return OneForm.parse(CARTAN)


@pytest.fixture
def omega0():
    return OneForm.parse(OMEGA_0)


@pytest.fixture
def omega1():
    return OneForm.parse(OMEGA_1)


@pytest.fixture
def euclid():
    return MetricField.identity()


@pytest.fixture
def rng():
    return np.random.default_rng(7041998)


def box_points(rng, n, scale=2.0):
    return [tuple(rng.uniform(-scale, scale, 3)) for _ in range(n)]


def pullback(omega, metric, phi):
    """(Phi*omega, Phi*g) as the texts OneForm.parse and
    MetricField.from_upper_triangle read, for a one-form text, the six
    upper-triangle texts of g and the three coordinate texts of the map Phi:
    Phi*omega = (omega o Phi) J and Phi*g = J^T (g o Phi) J, J = dPhi."""
    sp = pytest.importorskip("sympy")
    xyz, dxyz = sp.symbols("x y z"), sp.symbols("dx dy dz")
    names = {str(s): s for s in xyz + dxyz}

    def parse(text):
        return sp.sympify(text.replace("^", "**"), locals=names)

    phi = [parse(t) for t in phi]

    def at_phi(expr):
        return expr.subs(dict(zip(xyz, phi)), simultaneous=True)

    jac = sp.Matrix(3, 3, lambda i, j: sp.diff(phi[i], xyz[j]))
    form = parse(omega)
    pulled = sp.Matrix([[at_phi(form.diff(d)) for d in dxyz]]) * jac
    g11, g12, g13, g22, g23, g33 = (at_phi(parse(t)) for t in metric)
    g = sp.Matrix([[g11, g12, g13], [g12, g22, g23], [g13, g23, g33]])
    g = jac.T * g * jac

    def text(expr):
        return str(expr).replace("**", "^")

    return (" + ".join(f"({text(c)})*{d}" for c, d in zip(pulled, dxyz)),
            tuple(text(g[i, j]) for i in range(3) for j in range(i, 3)))


def assert_adapted(frame, w, gm, tol=1e-10):
    """E1, E2 g-orthonormal, eta^a(E_b) = delta^a_b and (E1, E2, g^-1 omega)
    positively oriented, for the jets w = omega and gm = metric."""
    assert abs(metric_dot(gm, frame.E1, frame.E1).value - 1) < tol
    assert abs(metric_dot(gm, frame.E2, frame.E2).value - 1) < tol
    assert abs(metric_dot(gm, frame.E1, frame.E2).value) < tol
    for a, eta in enumerate(frame.coframe):
        for b, e in enumerate(frame.frame):
            assert abs(jvec_dot(eta, e).value - (a == b)) < tol
    g = np.array([[gij.value[0] for gij in row] for row in gm])
    omega_sharp = np.linalg.solve(g, np.ravel(jvec_values(w)))
    assert np.linalg.det([np.ravel(jvec_values(frame.E1)), np.ravel(jvec_values(frame.E2)),
                          omega_sharp]) > 0
