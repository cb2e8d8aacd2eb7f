"""Bigraded exterior calculus and the deformed differential.

Oracles: hand-expanded wedge products and derivatives of monomials; the
nilpotency and anticommutation identities are checked exactly over the
rationals on random forms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defham import expr as ex
from defham.forms import (
    BigradedForm,
    classify_hamiltonian,
    deformed_derivative,
    delta,
    form_from_json,
    form_to_json,
    omega_form,
    partial_minus,
    partial_plus,
    symbolic_bracket,
    wedge,
)
from defham.poly import Poly, poly_from_expression

from conftest import random_poly


def _poly(text, n):
    return poly_from_expression(ex.parse(text, n))


def random_form(rng, n, max_degree=2):
    """Random low-degree form with random polynomial coefficients."""
    out = BigradedForm.zero(n)
    for _ in range(3):
        p = int(rng.integers(0, max_degree + 1))
        q = int(rng.integers(0, max_degree + 1 - p))
        I = tuple(sorted(rng.choice(range(1, n + 1), size=p, replace=False))) if p else ()
        J = tuple(sorted(rng.choice(range(1, n + 1), size=q, replace=False))) if q else ()
        out = out + BigradedForm.basis(n, I, J, random_poly(rng, n, degree=2, terms=3))
    return out


# Polynomials of 1 to 3 terms of degree 1 or 2 over x1, x2, y1, y2 with
# coefficients a/b, 1 <= |a| <= 4 and 1 <= b <= 3: constants would only
# draw forms that every derivative maps to zero.
_POLYS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 3), min_size=1, max_size=2),
        st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3)),
    ),
    min_size=1,
    max_size=3,
).map(lambda terms: sum((Poly(2, {tuple(map(v.count, range(4))): c}) for v, c in terms),
                        Poly.zero(2)))


@st.composite
def _forms(draw):
    """A form on n = 2 of 1 to 3 basis terms of total degree <= 2, as random_form."""
    out = BigradedForm.zero(2)
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(0, 2))
        q = draw(st.integers(0, 2 - p))
        I = tuple(sorted(draw(st.sets(st.integers(1, 2), min_size=p, max_size=p))))
        J = tuple(sorted(draw(st.sets(st.integers(1, 2), min_size=q, max_size=q))))
        out = out + BigradedForm.basis(2, I, J, draw(_POLYS))
    return out


class TestWedge:
    def test_self_wedge_vanishes(self):
        # [TRIVIAL] dx1 ^ dx1 = 0.
        dx1 = BigradedForm.dx(1, 1)
        assert wedge(dx1, dx1).is_zero()

    def test_anticommutation(self):
        # [DERIVED] dy1 ^ dx1 = -(dx1 ^ dy1).
        dx1, dy1 = BigradedForm.dx(1, 1), BigradedForm.dy(1, 1)
        assert wedge(dy1, dx1) == wedge(dx1, dy1).scale(-1)

    def test_omega_squared(self):
        # [DERIVED] for n = 2, omega ^ omega is the (2,2) volume multiple
        # 2 dx1 dy1 dx2 dy2 = -2 dx1 dx2 dy1 dy2 in sorted basis order.
        w2 = wedge(omega_form(2), omega_form(2))
        assert w2 == BigradedForm.basis(2, (1, 2), (1, 2), Poly.constant(2, -2))

    def test_leibniz_sign_on_functions(self, rng):
        # [TRIVIAL] wedge of two 0-forms is the product of coefficients.
        a = random_poly(rng, 1)
        b = random_poly(rng, 1)
        got = wedge(BigradedForm.from_poly(a), BigradedForm.from_poly(b))
        assert got == BigradedForm.from_poly(a * b)


class TestDerivatives:
    def test_partials_of_x1y1(self):
        # [DERIVED] for H = x1 y1: d_+H = y1 dx1, d_-H = x1 dy1,
        # d_- d_+ H = dy1 ^ dx1.
        h = BigradedForm.from_poly(_poly("x1*y1", 1))
        y1 = _poly("y1", 1)
        x1 = _poly("x1", 1)
        assert partial_plus(h) == BigradedForm.basis(1, (1,), (), y1)
        assert partial_minus(h) == BigradedForm.basis(1, (), (1,), x1)
        assert partial_minus(partial_plus(h)) == wedge(
            BigradedForm.dy(1, 1), BigradedForm.dx(1, 1)
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_forms())
    def test_partials_square_to_zero(self, a):
        # [TRIVIAL] d_+^2 = d_-^2 = 0 on random forms, exactly.
        assert partial_plus(partial_plus(a)).is_zero()
        assert partial_minus(partial_minus(a)).is_zero()

    def test_delta_vanishes_in_flat_model(self, rng):
        assert delta(random_form(rng, 2)).is_zero()

    @pytest.mark.parametrize("q", [Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(a=_forms())
    def test_deformed_derivative_squares_to_zero(self, q, a):
        # [DERIVED] d_q^2 = 0 exactly over the rationals for every q != 0.
        assert deformed_derivative(deformed_derivative(a, q), q).is_zero()

    def test_deformed_derivative_hand_case(self):
        # [DERIVED] d_q(x1 y1) = y1 dx1 + q^{-1} x1 dy1.
        h = BigradedForm.from_poly(_poly("x1*y1", 1))
        q = Fraction(1, 3)
        want = BigradedForm.basis(1, (1,), (), _poly("y1", 1)) + BigradedForm.basis(
            1, (), (1,), _poly("x1", 1)
        ).scale(1 / q)
        assert deformed_derivative(h, q) == want

    def test_q_one_is_plain_exterior_derivative(self, rng):
        a = random_form(rng, 2)
        assert deformed_derivative(a, 1) == partial_plus(a) + partial_minus(a)

    def test_rejects_q_zero(self, rng):
        with pytest.raises(ValueError):
            deformed_derivative(random_form(rng, 1), 0)

    def test_omega_is_closed_and_type_1_1(self):
        # [DERIVED] omega is a (1,1)-form with d_q omega = 0 for any q.
        w = omega_form(2)
        assert w.types() == {(1, 1)}
        for q in (Fraction(1, 2), Fraction(2), Fraction(-1)):
            assert deformed_derivative(w, q).is_zero()


class TestClassification:
    def test_simple_but_not_exceptionally(self):
        c = classify_hamiltonian(_poly("x1^2 + y1^3", 1))
        assert c.simple and not c.exceptionally_simple
        assert c.conformal_ratio is None

    def test_exceptionally_simple(self):
        c = classify_hamiltonian(_poly("y1^2", 1))
        assert c.simple and c.exceptionally_simple

    def test_conformal_fixture(self):
        # [DERIVED] H = sum x_i y_i has d_- d_+ H = omega, ratio 1.
        c = classify_hamiltonian(_poly("x1*y1 + x2*y2", 2))
        assert not c.simple
        assert c.conformal_ratio == Fraction(1)

    def test_separable_sum_is_simple(self):
        # [DERIVED] H(x) + G(y) is always simple.
        hx = _poly("x1^3 - x2", 2)
        gy = _poly("y1*y2 + y2^2", 2)
        assert classify_hamiltonian(hx + gy).simple

    def test_generic_is_neither(self):
        c = classify_hamiltonian(_poly("x1^2*y1^2", 1))
        assert not c.simple and not c.exceptionally_simple
        assert c.conformal_ratio is None


class TestSymbolicBracket:
    def test_antisymmetrization_is_scaled_poisson(self, rng):
        # [DERIVED] {H,F}_q - {F,H}_q = (1 + q^{-1}) {H,F}_1, exactly.
        for _ in range(25):
            h = random_poly(rng, 2)
            f = random_poly(rng, 2)
            for q in (Fraction(1, 3), Fraction(2), Fraction(-2)):
                anti = symbolic_bracket(h, f, q) - symbolic_bracket(f, h, q)
                poisson = symbolic_bracket(h, f, 1)
                assert anti == poisson * (1 + 1 / q)

    def test_self_bracket_vanishes_at_q_one(self, rng):
        # [DERIVED] {H,H}_1 = q^{-1} H_y H_x - H_x H_y = 0 exactly at q = 1.
        for _ in range(10):
            h = random_poly(rng, 2)
            assert symbolic_bracket(h, h, 1).is_zero()

    def test_coordinate_bracket(self):
        # [DERIVED] {x1, y1}_q = -1 and {y1, x1}_q = q^{-1} by expansion.
        x1, y1 = _poly("x1", 1), _poly("y1", 1)
        assert symbolic_bracket(x1, y1, Fraction(1, 2)) == Poly.constant(1, -1)
        assert symbolic_bracket(y1, x1, Fraction(1, 2)) == Poly.constant(1, 2)


def test_json_round_trip(rng):
    for _ in range(10):
        a = random_form(rng, 2)
        assert form_from_json(form_to_json(a)) == a
