"""Deformed bracket, Lie-admissibility and Jacobi identity.

Oracles: the coordinate formula sum_i H_{y_i} F_{x_i} - H_{x_i} F_{y_i}
evaluated from jets (independent of the bracket implementation), hand cases
on coordinate functions, and the Jacobi sum built with every bracket
differentiating its own operands, evaluated by a plain tree walk.
"""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from defham import expr as ex
from defham.bracket import (
    _jacobi_cyclic,
    admissibility_defect,
    antisymmetrized_bracket_expression,
    bracket_expression,
    deformed_bracket,
    jacobi_defect,
)
from defham.dynamics import HamiltonianField
from defham.phase import PhasePoint

from conftest import evaluate_jet, random_polynomial_expr, random_point, tree_evaluate
from test_expr import N_RANDOM, RANDOM_POINTS, RANDOM_TREES


def poisson_oracle(h, f, z):
    """{H,F}_1 from raw gradients, bypassing the bracket module."""
    n = h.n
    gh = evaluate_jet(h, z).gradient
    gf = evaluate_jet(f, z).gradient
    return float(gh[n:] @ gf[:n] - gh[:n] @ gf[n:])


def unshared_bracket_expression(h, f, q):
    """{H,F}_q as built before partials were shared: every call
    differentiates both of its operands."""
    n = h.n
    qinv = ex.const(Fraction(1) / Fraction(q), n)
    out = ex.const(0, n)
    for i in range(1, n + 1):
        hy = ex.differentiate(h, ("y", i))
        hx = ex.differentiate(h, ("x", i))
        fy = ex.differentiate(f, ("y", i))
        fx = ex.differentiate(f, ("x", i))
        out = ex.add(out, ex.sub(ex.mul(qinv, ex.mul(hy, fx)), ex.mul(hx, fy)))
    return out


def unshared_jacobi_cyclic(h, f, g, q):
    """The Jacobi cyclic sum with both orders of every antisymmetrized
    bracket differentiated separately."""

    def brk(a, b):
        return ex.sub(unshared_bracket_expression(a, b, q), unshared_bracket_expression(b, a, q))

    return ex.add(ex.add(brk(brk(h, f), g), brk(brk(f, g), h)), brk(brk(g, h), f))


def float64_bracket(h, f, q, z):
    """{H,F}_q(z) with both fields from the compiled gradients on float64."""
    za = z.as_array()
    xh = HamiltonianField(h, q).field(za)
    xf = HamiltonianField(f, 1.0).field(za)
    n = h.n
    return float(xh[n:] @ xf[:n] - xh[:n] @ xf[n:])


def _bits_or_error(compute):
    try:
        return struct.pack("<d", compute())
    except (ArithmeticError, ValueError) as err:
        return type(err)


class TestBracketValues:
    @settings(
        max_examples=200, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(RANDOM_TREES, RANDOM_TREES, st.sampled_from([0.5, 1.0, -3.0]), RANDOM_POINTS)
    # x1^400 overflows: Python floats raise, float64 gives inf
    @example(ex.parse("y1*x1^400", 2), ex.parse("x1*y2 + y1", 2), 0.5, [10.0, 1.0, 1.0, 1.0])
    def test_bits_equal_the_float64_form(self, h, f, q, z):
        # the gradients run on Python floats and, where those raise, on float64
        point = PhasePoint(z[:N_RANDOM], z[N_RANDOM:])
        with np.errstate(all="ignore"):
            got = _bits_or_error(lambda: deformed_bracket(h, f, q, point))
            assert got == _bits_or_error(lambda: float64_bracket(h, f, q, point))

    def test_coordinate_pair(self):
        # [DERIVED] {x1, y1}_q = q^{-1}*0 - 1*1 = -1 for every q.
        x1 = ex.parse("x1", 1)
        y1 = ex.parse("y1", 1)
        z = PhasePoint((0.3,), (0.7,))
        for q in (0.5, 1.0, 2.0):
            assert deformed_bracket(x1, y1, q, z) == pytest.approx(-1.0, abs=1e-14)
        # [DERIVED] {y1, x1}_q = q^{-1}.
        assert deformed_bracket(y1, x1, 0.5, z) == pytest.approx(2.0, abs=1e-14)

    def test_q_one_matches_poisson_oracle(self, rng):
        # [DERIVED] at q = 1 the bracket is the classical Poisson bracket.
        for _ in range(100):
            h = random_polynomial_expr(rng, 2)
            f = random_polynomial_expr(rng, 2)
            z = random_point(rng, 2)
            got = deformed_bracket(h, f, 1.0, PhasePoint.from_array(z))
            assert got == pytest.approx(poisson_oracle(h, f, z), rel=1e-12, abs=1e-12)

    def test_self_bracket_vanishes_at_q_one(self, rng):
        for _ in range(20):
            h = random_polynomial_expr(rng, 2)
            z = PhasePoint.from_array(random_point(rng, 2))
            assert deformed_bracket(h, h, 1.0, z) == pytest.approx(0.0, abs=1e-12)

    def test_expression_matches_numeric(self, rng):
        h = random_polynomial_expr(rng, 2)
        f = random_polynomial_expr(rng, 2)
        e = bracket_expression(h, f, 0.5)
        for _ in range(10):
            z = random_point(rng, 2)
            assert ex.evaluate(e, z) == pytest.approx(
                deformed_bracket(h, f, 0.5, PhasePoint.from_array(z)), rel=1e-11, abs=1e-11
            )


class TestAdmissibility:
    def test_hand_case(self):
        # [DERIVED] antisymmetrization on (x1, y1) at q = 1/2:
        # {x1,y1}_q - {y1,x1}_q = -1 - 2 = -3 = (1 + q^{-1}) * {x1,y1}_1.
        x1 = ex.parse("x1", 1)
        y1 = ex.parse("y1", 1)
        anti = antisymmetrized_bracket_expression(x1, y1, 0.5)
        z = PhasePoint((0.2,), (0.4,))
        assert ex.evaluate(anti, z.as_array()) == pytest.approx(-3.0, abs=1e-14)
        assert admissibility_defect(x1, y1, 0.5, z) < 1e-14

    def test_random_sweep(self, rng):
        # [DERIVED] antisym = (1 + q^{-1}) Poisson for all polynomial pairs.
        for _ in range(50):
            h = random_polynomial_expr(rng, 2)
            f = random_polynomial_expr(rng, 2)
            z = PhasePoint.from_array(random_point(rng, 2))
            for q in (1.0 / 3.0, 0.5, 2.0, 3.0):
                assert admissibility_defect(h, f, q, z) < 1e-10

    def test_rejects_degenerate_q(self):
        h = ex.parse("x1", 1)
        f = ex.parse("y1", 1)
        z = PhasePoint((1.0,), (1.0,))
        with pytest.raises(ValueError):
            admissibility_defect(h, f, 0.0, z)
        with pytest.raises(ValueError):
            admissibility_defect(h, f, -1.0, z)


class TestJacobi:
    def test_linear_functions_exact(self):
        # [DERIVED] brackets of linear functions are constants, so every
        # nested bracket vanishes and Jacobi holds exactly.
        h = ex.parse("x1 + 2*y1", 1)
        f = ex.parse("3*x1 - y1", 1)
        g = ex.parse("x1 + y1", 1)
        z = PhasePoint((0.6,), (-0.2,))
        assert jacobi_defect(h, f, g, 0.5, z) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_hand_case(self):
        # [DERIVED] H = x1^2, F = y1^2, G = x1 y1 at q = 1/2, z = (1,1):
        # the antisymmetrized bracket is Lie-admissible, so the cyclic sum
        # cancels to rounding error.
        h = ex.parse("x1^2", 1)
        f = ex.parse("y1^2", 1)
        g = ex.parse("x1*y1", 1)
        assert jacobi_defect(h, f, g, 0.5, PhasePoint((1.0,), (1.0,))) < 1e-10

    def test_random_sweep(self, rng):
        for _ in range(25):
            h = random_polynomial_expr(rng, 2)
            f = random_polynomial_expr(rng, 2)
            g = random_polynomial_expr(rng, 2)
            z = PhasePoint.from_array(random_point(rng, 2))
            for q in (0.5, 2.0):
                assert jacobi_defect(h, f, g, q, z) < 1e-8


class TestSharedPartials:
    # the q_list of the golden bracket scenario
    Q_LIST = (0.3333333333333333, 0.5, 2.0, 3.0)

    def assert_matches_unshared(self, h, f, g, z):
        # same tree text and the same bits as the unshared construction
        # evaluated by a plain tree walk
        for q in self.Q_LIST:
            want = unshared_jacobi_cyclic(h, f, g, q)
            assert ex.to_text(_jacobi_cyclic(h, f, g, q)) == ex.to_text(want)
            got = jacobi_defect(h, f, g, q, PhasePoint.from_array(z))
            assert got == abs(tree_evaluate(want, z))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_triples_match_the_unshared_construction(self, rng, n):
        for _ in range(4):
            h, f, g = (random_polynomial_expr(rng, n) for _ in range(3))
            self.assert_matches_unshared(h, f, g, random_point(rng, n))

    def test_transcendental_and_quotient_inputs_match(self):
        h = ex.parse("sin(x1)*y2 + exp(x2*y1)", 2)
        f = ex.parse("cos(y1 - x2)/(2 + x1^2)", 2)
        g = ex.parse("x1*y1 - exp(y2)*sin(x2)", 2)
        self.assert_matches_unshared(h, f, g, np.array([0.3, -0.7, 0.5, 0.2]))

    def test_each_operand_is_differentiated_once(self, monkeypatch):
        # 2n partials of h, f, g and of the three inner brackets
        calls = []
        original = ex.differentiate

        def counted(e, v):
            calls.append(v)
            return original(e, v)

        monkeypatch.setattr(ex, "differentiate", counted)
        h, f, g = (ex.parse(text, 2) for text in ("x1*y2^2", "y1*x2 + x1^2", "y1*y2*x1"))
        jacobi_defect(h, f, g, 0.5, PhasePoint((0.1, 0.2), (0.3, 0.4)))
        assert len(calls) == 6 * 4
