"""Coordinate conventions on flat T*R^n and T*T^n.

Fixed once here and used everywhere else:

* phase points are z = (x, y) with x on the base and y on the fibre;
* the symplectic form is omega = sum_i dy_i ^ dx_i, i.e.
  omega(u, v) = sum_i (b_u a_v - a_u b_v) for tangent vectors split into
  horizontal components a and vertical components b;
* the metric family is G_q = G_B (+) q G_B^{-1} on the horizontal/vertical
  blocks, positive definite for q > 0 and of neutral signature (n, n) for
  q < 0.

Under this convention the deformed field of a Hamiltonian H comes out as
(q^{-1} dH/dy, -dH/dx) in coordinates (see the dynamics module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhasePoint",
    "TangentVector",
    "MetricFamily",
    "omega",
    "omega_matrix",
    "metric",
    "metric_matrix",
    "signature",
    "dual_endomorphism",
    "fibre_volume_ratio",
    "wrap_angles",
]

TWO_PI = 2.0 * math.pi


def wrap_angles(x: np.ndarray) -> np.ndarray:
    return np.mod(x, TWO_PI)


@dataclass(frozen=True, init=False)
class PhasePoint:
    """Point z = (x, y); torus points store x reduced mod 2*pi."""

    x: tuple
    y: tuple
    space: str = "plane"

    def __init__(self, x, y, space: str = "plane"):
        if space not in ("plane", "torus"):
            raise ValueError(f"unknown space {space!r}")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if space == "torus":
            x = wrap_angles(x)
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "y", tuple(float(v) for v in y))
        object.__setattr__(self, "space", space)

    @property
    def n(self) -> int:
        return len(self.x)

    def as_array(self) -> np.ndarray:
        return np.array(self.x + self.y)

    @classmethod
    def from_array(cls, z, space: str = "plane") -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        n = z.size // 2
        return cls(z[:n], z[n:], space)


@dataclass(frozen=True, init=False)
class TangentVector:
    """Tangent vector split into horizontal (a) and vertical (b) parts."""

    a: tuple
    b: tuple

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("a and b must be 1-d arrays of equal length")
        object.__setattr__(self, "a", tuple(float(v) for v in a))
        object.__setattr__(self, "b", tuple(float(v) for v in b))

    @property
    def n(self) -> int:
        return len(self.a)

    def as_array(self) -> np.ndarray:
        return np.array(self.a + self.b)

    @classmethod
    def from_array(cls, v) -> "TangentVector":
        v = np.asarray(v, dtype=float)
        n = v.size // 2
        return cls(v[:n], v[n:])


@dataclass(frozen=True)
class MetricFamily:
    """The family G_q = G_B (+) q G_B^{-1} with constant base metric G_B."""

    n: int
    q: float
    base_metric: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be nonzero")
        gb = self.base_metric
        if gb is None:
            gb = np.eye(self.n)
        gb = np.asarray(gb, dtype=float)
        if gb.shape != (self.n, self.n):
            raise ValueError(f"base metric must be {self.n}x{self.n}")
        if not np.allclose(gb, gb.T):
            raise ValueError("base metric must be symmetric")
        if np.linalg.eigvalsh(gb).min() <= 0:
            raise ValueError("base metric must be positive definite")
        object.__setattr__(self, "base_metric", gb)

    @property
    def base_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.base_metric)


def omega(u: TangentVector, v: TangentVector) -> float:
    """omega(u, v) = sum_i (b_u a_v - a_u b_v) for omega = sum dy_i ^ dx_i."""
    if u.n != v.n:
        raise ValueError("dimension mismatch")
    au, bu = np.array(u.a), np.array(u.b)
    av, bv = np.array(v.a), np.array(v.b)
    return float(bu @ av - au @ bv)


def omega_matrix(n: int) -> np.ndarray:
    """Matrix O with omega(u, v) = u^T O v in stacked (a, b) coordinates."""
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = -np.eye(n)
    out[n:, :n] = np.eye(n)
    return out


def metric(u: TangentVector, v: TangentVector, fam: MetricFamily) -> float:
    """G_q(u, v) = a_u^T G_B a_v + q b_u^T G_B^{-1} b_v."""
    au, bu = np.array(u.a), np.array(u.b)
    av, bv = np.array(v.a), np.array(v.b)
    return float(au @ fam.base_metric @ av + fam.q * (bu @ fam.base_inverse @ bv))


def metric_matrix(fam: MetricFamily) -> np.ndarray:
    n = fam.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = fam.base_metric
    out[n:, n:] = fam.q * fam.base_inverse
    return out


def signature(fam: MetricFamily) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of G_q."""
    vals = np.linalg.eigvalsh(metric_matrix(fam))
    return int(np.sum(vals > 0)), int(np.sum(vals < 0))


class DualEndomorphism:
    """The unique J_q with omega(u, J_q v) = G_q(u, v) for all u, v.

    In flat coordinates J_q(a, b) = (q G_B^{-1} b, -G_B a); note that
    J_q^2 = -q id, so J_q is a genuine almost complex structure only at
    q = 1 (with G_B = I).
    """

    def __init__(self, fam: MetricFamily):
        self.family = fam
        n = fam.n
        m = np.zeros((2 * n, 2 * n))
        m[:n, n:] = fam.q * fam.base_inverse
        m[n:, :n] = -fam.base_metric
        self.matrix = m

    def __call__(self, v: TangentVector) -> TangentVector:
        return TangentVector.from_array(self.matrix @ v.as_array())


def dual_endomorphism(fam: MetricFamily) -> DualEndomorphism:
    return DualEndomorphism(fam)


def fibre_volume_ratio(fam: MetricFamily) -> float:
    """vol_{G_q}(fibre) / vol_{G_1}(fibre) = q^{n/2} on the torus model.

    The fibre metric block is q G_B^{-1}, so the volume scale factor is
    sqrt(det(q G_B^{-1}) / det(G_B^{-1})) = q^{n/2} for any constant G_B.
    """
    if fam.q <= 0:
        raise ValueError("fibre volume requires q > 0")
    return float(fam.q) ** (fam.n / 2.0)
