"""Numeric deformed bracket and its Lie-admissibility checks.

The bracket is {H,F}_q = omega(X^q_H, X_F); it is not itself a Lie bracket,
but its antisymmetrization equals (1 + 1/q) times the canonical Poisson
bracket and therefore satisfies the Jacobi identity.  This module verifies
those identities at floating-point scale; the exact versions live in the
forms module.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import expr as ex
from .dynamics import _NON_FINITE, HamiltonianField
from .phase import PhasePoint

__all__ = [
    "deformed_bracket",
    "bracket_expression",
    "antisymmetrized_bracket_expression",
    "admissibility_defect",
    "jacobi_defect",
]


def _field(field: HamiltonianField, z: tuple) -> np.ndarray:
    """field.field(z) from the gradient on Python floats, which round as
    float64; where they raise instead of giving inf or nan, on float64."""
    try:
        g = field.jet.gradient(z)
    except _NON_FINITE:
        return field.field(np.array(z))
    return np.array(field.field_from_gradient(g))


def deformed_bracket(h: ex.Node, f: ex.Node, q: float, z: PhasePoint) -> float:
    """{H,F}_q(z) = omega(X^q_H(z), X_F(z))."""
    zf = z.x + z.y
    xh = _field(HamiltonianField(h, q), zf)
    xf = _field(HamiltonianField(f, 1.0), zf)
    n = h.n
    # omega(u, v) = sum_i (b_u a_v - a_u b_v)
    return float(xh[n:] @ xf[:n] - xh[:n] @ xf[n:])


def _partials(e: ex.Node, n: int) -> dict:
    """dE/dx_i and dE/dy_i for i = 1..n, keyed ("x", i) and ("y", i)."""
    return {(kind, i): ex.differentiate(e, (kind, i)) for kind in "xy" for i in range(1, n + 1)}


def _bracket(dh: dict, df: dict, q, n: int) -> ex.Node:
    """{H,F}_q from the partials of H and F."""
    qinv = ex.const(1 / Fraction(q), n)
    out: ex.Node = ex.const(0, n)
    for i in range(1, n + 1):
        hy_fx = ex.mul(dh["y", i], df["x", i])
        out = ex.add(out, ex.sub(ex.mul(qinv, hy_fx), ex.mul(dh["x", i], df["y", i])))
    return out


def bracket_expression(h: ex.Node, f: ex.Node, q) -> ex.Node:
    """{H,F}_q as a symbolic expression:
    sum_i (1/q) H_{y_i} F_{x_i} - H_{x_i} F_{y_i}."""
    if q == 0:
        raise ValueError("q must be nonzero")
    return _bracket(_partials(h, h.n), _partials(f, h.n), q, h.n)


def _antisymmetrized(da: dict, db: dict, q, n: int) -> ex.Node:
    """{A,B}_q - {B,A}_q from the partials of A and B."""
    return ex.sub(_bracket(da, db, q, n), _bracket(db, da, q, n))


def antisymmetrized_bracket_expression(h: ex.Node, f: ex.Node, q) -> ex.Node:
    if q == 0:
        raise ValueError("q must be nonzero")
    return _antisymmetrized(_partials(h, h.n), _partials(f, h.n), q, h.n)


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


def _jacobi_cyclic(h: ex.Node, f: ex.Node, g: ex.Node, q) -> ex.Node:
    """[[H,F],G] + [[F,G],H] + [[G,H],F] for the antisymmetrized bracket; the
    partials of each of the six operands (H, F, G and the three inner
    brackets) are taken once and shared by both orders of every bracket."""
    n = h.n
    dh, df, dg = _partials(h, n), _partials(f, n), _partials(g, n)
    hf, fg, gh = (_antisymmetrized(da, db, q, n) for da, db in ((dh, df), (df, dg), (dg, dh)))
    outer = ((hf, dg), (fg, dh), (gh, df))
    a, b, c = (_antisymmetrized(_partials(e, n), d, q, n) for e, d in outer)
    return ex.add(ex.add(a, b), c)


def jacobi_defect(h: ex.Node, f: ex.Node, g: ex.Node, q: float, z: PhasePoint) -> float:
    """Jacobi cyclic sum of the antisymmetrized bracket, evaluated at z.

    The nested brackets are formed by exact symbolic differentiation and
    only the final value is floating point.
    """
    if q in (0, -1):
        raise ValueError("q must avoid 0 and -1")
    return abs(ex.evaluate(_jacobi_cyclic(h, f, g, q), z))
