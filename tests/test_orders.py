"""Each quantity's least jet order, as stated by the constants next to the
code that uses up its derivative budget: one order less raises
BudgetExhausted, and at the constant the values equal those at MAX_ORDER
bit for bit (a degree-d Taylor coefficient depends only on input
coefficients of degree <= d).  The same fact lets the frame form each jet
at the order its consumers keep, with the leading coefficients of the
quantity formed from uncut jets."""

import dataclasses
from functools import reduce
from operator import add

import numpy as np
import pytest

import srsurf.frame
import srsurf.symmetry
from srsurf import (BudgetExhausted, FieldProgram, Jet, MAX_ORDER, MIN_ORDER, MetricField,
                    OneForm, SymmetryField, assemble_and_verify_V, build_contact_frame,
                    build_singular_frame, build_system, directional_derivative,
                    integrability_residuals, invariants_at, lambda_identities, nonholonomity,
                    sigma_invariants)
from srsurf.fields import curl_and_defect
from srsurf.frame import delta_basis, kernel_basis, quadratic_form, structure_functions
from srsurf.invariants import INVARIANTS_ORDER
from srsurf.singular import (SIGMA_SCAN_ORDER, SINGULAR_FRAME_ORDER,
                             TRANSVERSALITY_ORDER)
from srsurf.symmetry import EQ_ORDER, RESIDUAL_MIN_ORDER

from conftest import (AXIAL_FORM, AXIAL_METRIC, CARTAN, HEISENBERG, OMEGA_1,
                      SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT)

FIXTURES = {
    "heisenberg": (HEISENBERG, None, (0.4, -0.3, 0.2)),
    "axial": (AXIAL_FORM, AXIAL_METRIC, (0.4, 0.7, -0.2)),
    "omega1": (OMEGA_1, None, (0.3, 0.4, -0.1)),
}
# lambda and the singular frame are also used on Sigma: {x = 0} for omega1,
# {x = -sin(y)} for the special form with nonzero Q
WITH_SIGMA = dict(FIXTURES, omega1_sigma=(OMEGA_1, None, (0.0, 0.4, -0.1)),
                  special_sigma=(SPECIAL_FORM, SPECIAL_METRIC, SPECIAL_POINT))


def _lambda(omega, g, p, order):
    return (nonholonomity(omega, g, p, order).value,)


def _lambda_on_delta(omega, g, p, order):
    e1, e2, _, _, lam, _ = delta_basis(omega.evaluate(p, order), g.evaluate(p, order))
    return (directional_derivative(lam, e1).value,
            directional_derivative(lam, e2).value)


def _invariants(omega, g, p, order):
    m, k, _, _ = invariants_at(omega, g, p, order)
    return m.value, k.value


def _singular(omega, g, p, order):
    frame, c = build_singular_frame(omega, g, p, order)
    return (*sigma_invariants(c), *lambda_identities(frame, c))


def _system(omega, g, p, order):
    sys_ = build_system(omega, g, p, order)
    return tuple(j.value for j in (sys_.D, sys_.EQ1, sys_.EQ2) if j is not None)


def _residuals(omega, g, p, order):
    return integrability_residuals(build_system(omega, g, p, order))


QUANTITIES = [
    ("lambda", _lambda, SIGMA_SCAN_ORDER, 1, WITH_SIGMA),
    ("lambda-on-delta", _lambda_on_delta, TRANSVERSALITY_ORDER, 2, WITH_SIGMA),
    ("M-K", _invariants, INVARIANTS_ORDER, 3, FIXTURES),
    ("singular-frame", _singular, SINGULAR_FRAME_ORDER, 3, WITH_SIGMA),
    ("D-EQ", _system, EQ_ORDER, 4, FIXTURES),
    # the residuals exist where D does not vanish; M and K are functions of
    # r on Heisenberg and of x on omega1, so D = 0 there
    ("residuals", _residuals, RESIDUAL_MIN_ORDER, 5,
     {"axial": FIXTURES["axial"]}),
]


@pytest.mark.parametrize("name, fn, order, expected, fixtures", QUANTITIES,
                         ids=[q[0] for q in QUANTITIES])
def test_least_order(name, fn, order, expected, fixtures):
    assert order == expected
    for text, metric, p in fixtures.values():
        omega = OneForm.parse(text)
        g = MetricField.identity() if metric is None \
            else MetricField.from_upper_triangle(metric)
        if order - 1 >= MIN_ORDER:
            with pytest.raises(BudgetExhausted):
                fn(omega, g, p, order - 1)
        else:
            assert order == MIN_ORDER
        want = repr(fn(omega, g, p, MAX_ORDER))  # repr tells -0.0 from 0.0
        for k in range(order, MAX_ORDER):
            assert repr(fn(omega, g, p, k)) == want, (name, text, p, k)


@pytest.mark.parametrize("order", [5, 6])
def test_assemble_and_verify_V_at_its_own_order(order, monkeypatch):
    # assemble_and_verify_V runs at EQ_ORDER: a higher order gives every
    # column bit for bit, on the selftest's injected symmetries
    points = np.random.default_rng(11).uniform(-1.5, 1.5, (12, 3))
    g = MetricField.identity()
    for text, f in ((HEISENBERG, "sqrt(1 + x^2 + y^2)"), (CARTAN, "-sqrt(1 + y^2)*y")):
        args = (OneForm.parse(text), g, points, FieldProgram.parse(f))
        want = assemble_and_verify_V(*args)
        with monkeypatch.context() as m:
            m.setattr(srsurf.symmetry, "EQ_ORDER", order)
            got = assemble_and_verify_V(*args)
        for field in dataclasses.fields(SymmetryField):
            assert (getattr(got, field.name).tobytes()
                    == getattr(want, field.name).tobytes()), (text, field.name)


def _uncut_basis(w, g):
    """delta_basis's (E1, E2, g E1, g E2, lambda) at one point with every jet
    formed at the order of w and g."""
    aw, q, norm = quadratic_form(w, g)
    s = np.argmax([g[i][i].value - w[i].value ** 2 / norm ** 2 for i in range(3)])
    u = Jet.stack([(q * float(i == s) - w[s] * a) / q.value for i, a in enumerate(aw)])
    return (*kernel_basis(w, g, u), -(curl_and_defect(w)[1] * q.pow(-0.5)))


def _uncut_bracket(v, w):
    """lie_bracket with the products formed at the orders of v and w."""
    return tuple(reduce(add, (v[b] * w[a].partial(b) - w[b] * v[a].partial(b)
                              for b in range(3))) for a in range(3))


def _jets(x):
    """The scalar jets of x: a jet's components, or those of a tuple's jets."""
    if isinstance(x, Jet) and not x.shape:
        return [x]
    return [j for y in x for j in _jets(y)]


def _assert_leading(got, want, order, what):
    """Each jet of got is at `order` and equals the leading coefficients of
    its jet in want (array_equal takes 0.0 == -0.0)."""
    got, want = _jets(got), _jets(want)
    assert len(got) == len(want), what
    for j, ref in zip(got, want):
        assert j.order == order, what
        assert np.array_equal(j.coeffs, ref.coeffs[:len(j.coeffs)]), what


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_frame_jets_at_the_order_kept(fixture, monkeypatch):
    # E1 and E2 come at n - 1 and E3 at n - 2, so C12 is bracketed from E1
    # and E2 before they are stacked: from the stacked E it would be at n - 3
    text, metric, p = FIXTURES[fixture]
    omega = OneForm.parse(text)
    g = MetricField.identity() if metric is None \
        else MetricField.from_upper_triangle(metric)
    fields = []  # the arguments of the frame's structure_functions call

    def spy(*args):
        fields[:] = args
        return structure_functions(*args)
    monkeypatch.setattr(srsurf.frame, "structure_functions", spy)
    for n in range(3, MAX_ORDER + 1):
        w, gn = omega.evaluate(p, n), g.evaluate(p, n)
        got = delta_basis(w, gn)
        _assert_leading(got[:5], _uncut_basis(w, gn), n - 1, (fixture, n, "delta_basis"))
        frame, (c12, c23_31) = build_contact_frame(omega, g, p, n)
        e1, e2, e3, eta = fields
        assert [e.order for e in (e1, e2, e3)] == [n - 1, n - 1, n - 2], (fixture, n)
        assert eta is frame.eta and eta.order == n - 2, (fixture, n)
        _assert_leading(frame.E, (e1, e2, e3), n - 2, (fixture, n, "E"))
        for c, pairs, order in ((c12, [(e1, e2)], n - 2), (c23_31, [(e2, e3), (e3, e1)], n - 3)):
            want = [[-(eta[a] * Jet.stack(_uncut_bracket(u, v))).sum() for a in range(3)]
                    for u, v in pairs]
            _assert_leading(c, want, order, (fixture, n, "structure_functions"))
