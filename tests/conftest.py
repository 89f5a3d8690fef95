import numpy as np
import pytest

from srsurf import MetricField, OneForm
from srsurf.frame import jvec_dot, jvec_values, metric_dot
# closed forms of M and K on the Euclidean Heisenberg and Cartan fixtures;
# test_invariants.py derives all four symbolically from the definitions
from srsurf.selftest import cartan_K, cartan_M, heis_K, heis_M  # noqa: F401

HEISENBERG = "dz + y*dx - x*dy"
CARTAN = "dz + y*dx"
OMEGA_0 = "dz + x*dy"
OMEGA_1 = "dy + x^2*dz"
# the Cartan form under a metric stretched along x: dz is a symmetry with
# f = -1/lambda = -sqrt(1 + x^2 + y^2), and D != 0 off the planes x = 0, y = 0
AXIAL_FORM = CARTAN
AXIAL_METRIC = ("1 + x^2", "0", "0", "1", "0", "1")
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


def assert_adapted(frame, w, gm, tol=1e-10):
    """E1, E2 g-orthonormal, eta^a(E_b) = delta^a_b and (E1, E2, g^-1 omega)
    positively oriented, for the jets w = omega and gm = metric."""
    assert abs(metric_dot(gm, frame.E1, frame.E1).value - 1) < tol
    assert abs(metric_dot(gm, frame.E2, frame.E2).value - 1) < tol
    assert abs(metric_dot(gm, frame.E1, frame.E2).value) < tol
    for a, eta in enumerate(frame.coframe):
        for b, e in enumerate(frame.frame):
            assert abs(jvec_dot(eta, e).value - (a == b)) < tol
    g = np.array([[gij.value for gij in row] for row in gm])
    omega_sharp = np.linalg.solve(g, jvec_values(w))
    assert np.linalg.det([jvec_values(frame.E1), jvec_values(frame.E2),
                          omega_sharp]) > 0
