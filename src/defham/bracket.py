"""Numeric deformed bracket and its Lie-admissibility checks.

The bracket is {H,F}_q = omega(X^q_H, X_F); it is not itself a Lie bracket,
but its antisymmetrization equals (1 + 1/q) times the canonical Poisson
bracket and therefore satisfies the Jacobi identity.  This module verifies
those identities at floating-point scale; the exact versions live in the
forms module.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .dynamics import HamiltonianField
from .phase import PhasePoint

__all__ = [
    "deformed_bracket",
    "bracket_expression",
    "antisymmetrized_bracket_expression",
    "admissibility_defect",
    "jacobi_defect",
]


def deformed_bracket(h: ex.Node, f: ex.Node, q: float, z: PhasePoint) -> float:
    """{H,F}_q(z) = omega(X^q_H(z), X_F(z))."""
    if q == 0:
        raise ValueError("q must be nonzero")
    xh = HamiltonianField(h, q).field(z.as_array())
    xf = HamiltonianField(f, 1.0).field(z.as_array())
    n = h.n
    # omega(u, v) = sum_i (b_u a_v - a_u b_v)
    return float(xh[n:] @ xf[:n] - xh[:n] @ xf[n:])


def bracket_expression(h: ex.Node, f: ex.Node, q) -> ex.Node:
    """{H,F}_q as a symbolic expression:
    sum_i (1/q) H_{y_i} F_{x_i} - H_{x_i} F_{y_i}."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    n = h.n
    qinv = ex.const(Fraction(1) / q, n)
    out: ex.Node = ex.const(0, n)
    for i in range(1, n + 1):
        hy = ex.differentiate(h, ("y", i))
        hx = ex.differentiate(h, ("x", i))
        fy = ex.differentiate(f, ("y", i))
        fx = ex.differentiate(f, ("x", i))
        out = ex.add(out, ex.sub(ex.mul(qinv, ex.mul(hy, fx)), ex.mul(hx, fy)))
    return out


def antisymmetrized_bracket_expression(h: ex.Node, f: ex.Node, q) -> ex.Node:
    return ex.sub(bracket_expression(h, f, q), bracket_expression(f, h, q))


def admissibility_defect(h: ex.Node, f: ex.Node, q: float, z: PhasePoint) -> float:
    """Relative defect of ({H,F}_q - {F,H}_q) = (1 + 1/q) {H,F}_1 at z."""
    if q in (0, -1):
        raise ValueError("q must avoid 0 and -1")
    b1 = deformed_bracket(h, f, q, z)
    b2 = deformed_bracket(f, h, q, z)
    b3 = deformed_bracket(h, f, 1.0, z)
    lhs = b1 - b2
    rhs = (1.0 + 1.0 / q) * b3
    scale = abs(b1) + abs(b2) + abs(rhs)
    return abs(lhs - rhs) / max(1.0, scale)


def jacobi_defect(h: ex.Node, f: ex.Node, g: ex.Node, q: float, z: PhasePoint) -> float:
    """Jacobi cyclic sum of the antisymmetrized bracket, evaluated at z.

    The nested brackets are formed by exact symbolic differentiation and
    only the final value is floating point.
    """
    if q in (0, -1):
        raise ValueError("q must avoid 0 and -1")

    def brk(a: ex.Node, b: ex.Node) -> ex.Node:
        return antisymmetrized_bracket_expression(a, b, q)

    cyclic = ex.add(
        ex.add(brk(brk(h, f), g), brk(brk(f, g), h)),
        brk(brk(g, h), f),
    )
    return abs(ex.evaluate(cyclic, z))
