import math

import numpy as np
import pytest

from srsurf import (JetError, MetricField, NoncontactError, OneForm,
                    build_contact_frame, delta_basis, jet_seed, lie_bracket,
                    nonholonomity, nonholonomity_program)
from srsurf.frame import jvec_dot, jvec_values, metric_dot

from conftest import OFF_DIAGONAL_METRIC, assert_adapted, box_points


def _vals(u):
    return [c.value for c in u]


def _const_field(point, comps, order=4):
    return tuple(jet_seed(point, float(c), order) for c in comps)


def _field(point, fns, order=4):
    """Vector field given by componentwise closures of coordinate jets."""
    x, y, z = (jet_seed(point, v, order) for v in "xyz")
    return tuple(f(x, y, z) for f in fns)


# -- delta_basis -----------------------------------------------------------

def test_delta_basis_origin(heisenberg, cartan, euclid):
    for w in (heisenberg, cartan):
        e1, e2 = delta_basis(w.evaluate((0, 0, 0)), euclid.evaluate((0, 0, 0)))
        assert np.allclose(_vals(e1), [1, 0, 0], atol=1e-14)
        assert np.allclose(_vals(e2), [0, 1, 0], atol=1e-14)


def test_delta_basis_seed_override(heisenberg, euclid):
    # at (0,1,0) the documented largest-projection rule seeds from y
    w, g = heisenberg.evaluate((0, 1, 0)), euclid.evaluate((0, 1, 0))
    e1, e2 = delta_basis(w, g)
    assert np.allclose(_vals(e1), [0, 1, 0], atol=1e-14)
    # the x-seeded gauge gives the unit projection of dx into the kernel
    e1, e2 = delta_basis(w, g, seed="x")
    r = 1 / math.sqrt(2)
    assert np.allclose(_vals(e1), [r, 0, -r], atol=1e-14)
    assert np.allclose(_vals(e2), [0, 1, 0], atol=1e-14)


def test_delta_basis_orthonormal_random(heisenberg, euclid, rng):
    g = MetricField.from_upper_triangle(
        ["1 + x^2", "0", "0", "1 + z^2", "0", "2"])
    for metric in (euclid, g):
        for p in box_points(rng, 10):
            w, gm = heisenberg.evaluate(p), metric.evaluate(p)
            e1, e2 = delta_basis(w, gm)
            assert abs(metric_dot(gm, e1, e1).value - 1) < 1e-10
            assert abs(metric_dot(gm, e2, e2).value - 1) < 1e-10
            assert abs(metric_dot(gm, e1, e2).value) < 1e-10
            assert abs(jvec_dot(w, e1).value) < 1e-10
            assert abs(jvec_dot(w, e2).value) < 1e-10


def test_delta_basis_vanishing_form(euclid):
    w = OneForm.parse("x*dx + y*dy + z*dz")
    with pytest.raises(JetError):
        delta_basis(w.evaluate((0, 0, 0)), euclid.evaluate((0, 0, 0)))


# -- lie_bracket -----------------------------------------------------------

def test_lie_bracket_coordinate_fields():
    p = (0.4, -0.9, 0.1)
    dx = _const_field(p, (1, 0, 0))
    dy = _const_field(p, (0, 1, 0))
    br = lie_bracket(dx, dy)
    assert np.allclose(_vals(br), [0, 0, 0], atol=1e-15)


def test_lie_bracket_heisenberg_fields():
    p = (0.3, -0.8, 0.25)
    v = _field(p, (lambda x, y, z: 1 + 0 * x,
                   lambda x, y, z: 0 * x,
                   lambda x, y, z: -y))
    w = _field(p, (lambda x, y, z: 0 * x,
                   lambda x, y, z: 1 + 0 * x,
                   lambda x, y, z: x))
    br = lie_bracket(v, w)
    assert np.allclose(_vals(br), [0, 0, 2], atol=1e-14)


def test_lie_bracket_consumes_one_order():
    p = (0, 0, 0)
    v = _field(p, (lambda x, y, z: x * y,
                   lambda x, y, z: z,
                   lambda x, y, z: x), order=3)
    br = lie_bracket(v, v)
    assert br[0].valid_order == 2


def test_bracket_structure_relation_cartan(cartan, euclid):
    # [E1, E2] = -(C1_12 E1 + C2_12 E2 + C3_12 E3) at the origin
    frame, C = build_contact_frame(cartan, euclid, (0, 0, 0))
    br = lie_bracket(frame.E1, frame.E2)
    for a in range(3):
        rhs = -(C.C1_12.value * frame.E1[a].value
                + C.C2_12.value * frame.E2[a].value
                + C.C3_12.value * frame.E3[a].value)
        assert abs(br[a].value - rhs) < 1e-12


# -- nonholonomity ---------------------------------------------------------

def test_nonholonomity_oracles(heisenberg, cartan, omega1, euclid):
    assert abs(nonholonomity(heisenberg, euclid, (0, 0, 0)).value - 2.0) < 1e-12
    for y in (0.0, 0.7, -1.3):
        lam = nonholonomity(cartan, euclid, (0, y, 0)).value
        assert abs(lam - 1 / math.sqrt(1 + y * y)) < 1e-12
    for x in (0.6, -0.6, 1.2):
        lam = nonholonomity(omega1, euclid, (x, 0, 0)).value
        assert abs(lam - 2 * x / math.sqrt(1 + x ** 4)) < 1e-12


def test_nonholonomity_so2_invariant(heisenberg, euclid, rng):
    for p in box_points(rng, 6):
        base = nonholonomity(heisenberg, euclid, p).value
        for theta in rng.uniform(0, 2 * math.pi, 3):
            rot = nonholonomity(heisenberg, euclid, p, rotation=theta).value
            assert abs(rot - base) < 1e-10


def test_nonholonomity_program_wraps(omega1, euclid):
    lam = nonholonomity_program(omega1, euclid)
    assert abs(lam.value((0.5, 0.1, -0.2))
               - nonholonomity(omega1, euclid, (0.5, 0.1, -0.2)).value) < 1e-15


# -- build_contact_frame ---------------------------------------------------

def test_contact_frame_heisenberg_origin(heisenberg, euclid):
    frame, C = build_contact_frame(heisenberg, euclid, (0, 0, 0))
    assert np.allclose(_vals(frame.E3), [0, 0, -2], atol=1e-13)
    assert np.allclose(_vals(frame.eta3), [0, 0, -0.5], atol=1e-13)
    assert frame.kind == "contact"


def test_contact_frame_cartan_origin_structure(cartan, euclid):
    frame, C = build_contact_frame(cartan, euclid, (0, 0, 0))
    assert abs(C.C1_23.value + 1.0) < 1e-12
    assert abs(C.C1_12.value) < 1e-12
    assert abs(C.C3_12.value - 1.0) < 1e-12


def test_contact_frame_heisenberg_slice_structure(heisenberg, euclid):
    # regression pin in the x-seeded gauge at (0,1,0)
    frame, C = build_contact_frame(heisenberg, euclid, (0, 1, 0), seed="x")
    assert abs(C.C1_23.value - 0.25) < 1e-12
    assert abs(C.C1_31.value) < 1e-12
    assert abs(C.C1_12.value + 1.0) < 1e-12


def test_frame_identities_random(heisenberg, cartan, euclid, rng):
    off_diagonal = MetricField.from_upper_triangle(OFF_DIAGONAL_METRIC)
    for omega in (heisenberg, cartan):
        for metric in (euclid, off_diagonal):
            for p in box_points(rng, 15):
                try:
                    frame, C = build_contact_frame(omega, metric, p)
                except NoncontactError:
                    continue
                assert_adapted(frame, omega.evaluate(p), metric.evaluate(p))
                # contact kind: C3_23 = C3_31 = 0, C3_12 = 1, C1_31 = C2_23
                assert abs(C.C3_23.value) < 1e-8
                assert abs(C.C3_31.value) < 1e-8
                assert abs(C.C3_12.value - 1.0) < 1e-8
                assert abs(C.C1_31.value - C.C2_23.value) < 1e-8


def test_noncontact_point_flagged(omega1, euclid):
    with pytest.raises(NoncontactError):
        build_contact_frame(omega1, euclid, (0, 0.3, 0.1))


def test_deta3_on_e1_e2_is_one(heisenberg, cartan, euclid, rng):
    # d(eta3)(E1, E2) = 1 at contact points: compute d of the eta3 jets
    for omega in (heisenberg, cartan):
        for p in box_points(rng, 5):
            frame, _ = build_contact_frame(omega, euclid, p)
            eta3 = frame.eta3
            b = (eta3[2].partial(1) - eta3[1].partial(2),
                 eta3[0].partial(2) - eta3[2].partial(0),
                 eta3[1].partial(0) - eta3[0].partial(1))
            u = jvec_values(frame.E1)
            v = jvec_values(frame.E2)
            cross = np.cross(u, v)
            val = sum(b[i].value * cross[i] for i in range(3))
            assert abs(val - 1.0) < 1e-9

