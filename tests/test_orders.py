"""Each quantity's least jet order, as stated by the constants next to the
code that uses up its derivative budget: one order less raises
BudgetExhausted, and at the constant the values equal those at MAX_ORDER
bit for bit (a degree-d Taylor coefficient depends only on input
coefficients of degree <= d)."""

import pytest

from srsurf import (BudgetExhausted, MAX_ORDER, MIN_ORDER, MetricField,
                    OneForm, build_singular_frame, build_system,
                    directional_derivative, integrability_residuals,
                    invariants_at, lambda_identities, nonholonomity,
                    sigma_invariants)
from srsurf.frame import basis_and_lambda
from srsurf.invariants import INVARIANTS_ORDER
from srsurf.singular import (SIGMA_SCAN_ORDER, SINGULAR_FRAME_ORDER,
                             TRANSVERSALITY_ORDER)
from srsurf.symmetry import EQ_ORDER, RESIDUAL_MIN_ORDER

from conftest import (AXIAL_FORM, AXIAL_METRIC, HEISENBERG, OMEGA_1,
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
    _, _, e1, e2, lam = basis_and_lambda(omega, g, p, order)
    return (directional_derivative(lam, e1).value,
            directional_derivative(lam, e2).value)


def _invariants(omega, g, p, order):
    vals, _, _ = invariants_at(omega, g, p, order)
    return vals.M.value, vals.K.value


def _singular(omega, g, p, order):
    frame, c = build_singular_frame(omega, g, p, order)
    q = sigma_invariants(c)
    return (q.Q112, q.Q212, *lambda_identities(frame, c))


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
