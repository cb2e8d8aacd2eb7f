"""Multivariate polynomials over exact rationals.

Variables are x1..xn, y1..yn; a monomial is an exponent vector of length 2n
ordered (x-exponents, y-exponents).  Zero coefficients are never stored, so
equality of representations is equality of polynomials.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex

__all__ = ["Poly", "poly_from_expression"]


class Poly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> "Poly":
        return cls(n, {(0,) * (2 * n): Fraction(value)})

    @classmethod
    def variable(cls, n: int, kind: str, index: int) -> "Poly":
        if kind not in ("x", "y") or not 1 <= index <= n:
            raise ValueError(f"bad variable {kind}{index} for n={n}")
        exps = [0] * (2 * n)
        offset = 0 if kind == "x" else n
        exps[offset + index - 1] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return Poly(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(self.n, -Fraction(other)))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = Fraction(other)
            return Poly(self.n, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Poly(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    # -- calculus ----------------------------------------------------------

    def diff(self, kind: str, index: int) -> "Poly":
        offset = 0 if kind == "x" else self.n
        slot = offset + index - 1
        terms: dict = {}
        for exps, coeff in self.terms.items():
            k = exps[slot]
            if k == 0:
                continue
            new = list(exps)
            new[slot] = k - 1
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + coeff * k
        return Poly(self.n, terms)

    def evaluate(self, z) -> float:
        total = 0.0
        for exps, coeff in self.terms.items():
            term = float(coeff)
            for zi, e in zip(z, exps):
                if e:
                    term *= float(zi) ** e
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        names = [f"x{i}" for i in range(1, self.n + 1)] + [
            f"y{i}" for i in range(1, self.n + 1)
        ]
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            factors = [str(coeff)]
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return "Poly(" + " + ".join(parts) + ")"


def poly_from_expression(e: ex.Node) -> Poly:
    """Convert a polynomial expression tree to a Poly.

    Raises ValueError on sin/cos/exp, non-constant divisors, negative
    powers of non-constants or a tree too deep to walk.
    """
    try:
        return _poly(e)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def _poly(e: ex.Node) -> Poly:
    n = e.n
    if isinstance(e, ex.Const):
        return Poly.constant(n, e.value)
    if isinstance(e, ex.Var):
        return Poly.variable(n, e.kind, e.index)
    if isinstance(e, ex.Add):
        return _poly(e.a) + _poly(e.b)
    if isinstance(e, ex.Sub):
        return _poly(e.a) - _poly(e.b)
    if isinstance(e, ex.Mul):
        return _poly(e.a) * _poly(e.b)
    if isinstance(e, ex.Div):
        denom = _poly(e.b)
        if not denom.is_constant():
            raise ValueError(f"non-polynomial quotient: {ex.to_text(e)}")
        c = denom.constant_value()
        if c == 0:
            raise ValueError(f"division by zero: {ex.to_text(e)}")
        return _poly(e.a) * (Fraction(1) / c)
    if isinstance(e, ex.Neg):
        return -_poly(e.a)
    if isinstance(e, ex.Pow):
        base = _poly(e.base)
        if e.exponent < 0:
            if not base.is_constant():
                raise ValueError(f"negative power of non-constant: {ex.to_text(e)}")
            return Poly.constant(n, base.constant_value() ** e.exponent)
        return base ** e.exponent
    if isinstance(e, ex.Call):
        raise ValueError(f"transcendental term is not polynomial: {ex.to_text(e)}")
    raise TypeError(f"not an expression node: {e!r}")
