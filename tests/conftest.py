"""Shared fixtures, random-object builders and oracles for the defham test suite."""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from defham import expr as ex
from defham.poly import Poly


def random_polynomial_expr(rng, n, degree=3, terms=6):
    """Random polynomial expression over x1..xn, y1..yn with small
    rational-friendly coefficients."""
    e = ex.const(0, n)
    for _ in range(terms):
        coeff = ex.const(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))), n)
        term = coeff
        for _ in range(int(rng.integers(0, degree + 1))):
            kind = "x" if rng.random() < 0.5 else "y"
            index = int(rng.integers(1, n + 1))
            term = ex.mul(term, ex.var(kind, index, n))
        e = ex.add(e, term)
    return e


def random_poly(rng, n, degree=3, terms=6):
    """Random Poly with small rational coefficients."""
    p = Poly.zero(n)
    for _ in range(terms):
        exps = [0] * (2 * n)
        for _ in range(int(rng.integers(0, degree + 1))):
            exps[int(rng.integers(0, 2 * n))] += 1
        coeff = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        p = p + Poly(n, {tuple(exps): coeff})
    return p


def random_point(rng, n, scale=1.0):
    return np.asarray(rng.uniform(-scale, scale, 2 * n))


Jet = namedtuple("Jet", "value gradient hessian")


def evaluate_jet(e, point):
    """Value, gradient and Hessian of ``e`` at ``point`` from its exact
    symbolic derivatives, evaluated one by one: the oracle for compiled jets.

    The gradient is ordered (d/dx1..d/dxn, d/dy1..d/dyn); the Hessian is
    mirrored from its upper triangle, so it is exactly symmetric.
    """
    variables = ex._variable_list(e.n)
    grads = [ex.differentiate(e, v) for v in variables]
    m = len(variables)
    hessian = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            hij = ex.evaluate(ex.differentiate(grads[i], variables[j]), point)
            hessian[i, j] = hessian[j, i] = hij
    gradient = np.array([ex.evaluate(g, point) for g in grads])
    return Jet(ex.evaluate(e, point), gradient, hessian)


def tree_evaluate(e, z):
    """Plain recursive walk of ``e`` at the flat point ``z`` (x1..xn, y1..yn):
    a subtree reached along k paths is evaluated k times."""
    if isinstance(e, ex.Const):
        return float(e.value)
    if isinstance(e, ex.Var):
        return float(z[(0 if e.kind == "x" else e.n) + e.index - 1])
    if isinstance(e, ex.Neg):
        return -tree_evaluate(e.a, z)
    if isinstance(e, ex.Pow):
        return tree_evaluate(e.base, z) ** e.exponent
    if isinstance(e, ex.Call):
        return getattr(math, e.func)(tree_evaluate(e.arg, z))
    a, b = tree_evaluate(e.a, z), tree_evaluate(e.b, z)
    if isinstance(e, ex.Add):
        return a + b
    if isinstance(e, ex.Sub):
        return a - b
    if isinstance(e, ex.Mul):
        return a * b
    return a / b


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
