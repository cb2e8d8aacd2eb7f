"""Deformed bracket, Lie-admissibility and Jacobi identity.

Oracles: the coordinate formula sum_i H_{y_i} F_{x_i} - H_{x_i} F_{y_i}
evaluated from jets (independent of the bracket implementation), plus hand
cases on coordinate functions.
"""

import numpy as np
import pytest

from defham import expr as ex
from defham.bracket import (
    admissibility_defect,
    antisymmetrized_bracket_expression,
    bracket_expression,
    deformed_bracket,
    jacobi_defect,
)
from defham.phase import PhasePoint

from conftest import random_polynomial_expr, random_point


def poisson_oracle(h, f, z):
    """{H,F}_1 from raw gradients, bypassing the bracket module."""
    n = h.n
    gh = ex.evaluate_jet(h, z).gradient
    gf = ex.evaluate_jet(f, z).gradient
    return float(gh[n:] @ gf[:n] - gh[:n] @ gf[n:])


class TestBracketValues:
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
