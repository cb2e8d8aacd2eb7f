"""Lagrange-multiplier Morse complex and its adiabatic limit.

The Hamiltonian of the construction is

    H_q(z) = f(x) + sum_i y_i w_i(x) + q g(y),       q in (0, 1],

with f and the constraint components w_i on the base, g on the fibre, and
k the number of independent constraints.  Critical points solve w(x) = 0,
df(x) + y . dw(x) = 0 together with the fibre condition from g; their index
decomposes as base index + fibre index + k.  The boundary operator counts
isolated negative-G_q-gradient flow lines mod 2, and for q -> 0 the flow
lines collapse onto the constraint set Z, recovering constrained gradient
flow on w^{-1}(0).

When every w_i vanishes identically and g = 0 (k = 0) the construction is
ordinary Morse theory of f on the base (used by the torus sanity fixture).
That case runs on the same code path, in a working space of the first
MorseSpec.dim = n coordinates: f reads no y, so its jet never reads past
them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from . import expr as ex
from .dynamics import IntegrationError, rkf45_path
from .phase import PhasePoint, TWO_PI

__all__ = [
    "MorseSpec",
    "MorseOptions",
    "CriticalPoint",
    "IndexCertificate",
    "MorseComplex",
    "MorseSpecError",
    "MorseConditionError",
    "build_hamiltonian",
    "find_critical_points",
    "critical_index",
    "count_flow_lines",
    "build_complex",
    "homology_ranks",
    "adiabatic_deviation",
    "mod2_rank",
    "complex_to_report",
]


class MorseSpecError(ValueError):
    pass


class MorseConditionError(RuntimeError):
    """A computed critical point violates the Morse (nondegeneracy) condition."""


@dataclass(frozen=True, init=False)
class MorseSpec:
    """Data of the multiplier Hamiltonian H_q = f + sum y_i w_i + q g."""

    n: int
    f: ex.Node
    w: tuple
    g: ex.Node
    q: float = 1.0
    space: str = "plane"

    def __init__(self, n, f, w, g, q=1.0, space="plane"):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "w", tuple(w))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "space", space)
        self._validate()

    def _validate(self):
        if not 0 < self.q <= 1:
            raise MorseSpecError(f"q must lie in (0, 1], got {self.q}")
        if self.space not in ("plane", "torus"):
            raise MorseSpecError(f"unknown space {self.space!r}")
        if len(self.w) != self.n:
            raise MorseSpecError(
                f"w must have {self.n} components, got {len(self.w)}"
            )
        for name, e in [("f", self.f)] + [
            (f"w{i+1}", wi) for i, wi in enumerate(self.w)
        ]:
            if e.n != self.n:
                raise MorseSpecError(f"{name} has dimension {e.n}, expected {self.n}")
            bad = [v for v in ex.used_variables(e) if v[0] == "y"]
            if bad:
                raise MorseSpecError(
                    f"{name} must depend only on base variables, "
                    f"found {bad[0][0]}{bad[0][1]} in '{ex.to_text(e)}'"
                )
        if self.g.n != self.n:
            raise MorseSpecError(f"g has dimension {self.g.n}, expected {self.n}")
        bad = [v for v in ex.used_variables(self.g) if v[0] == "x"]
        if bad:
            raise MorseSpecError(
                f"g must depend only on fibre variables, "
                f"found {bad[0][0]}{bad[0][1]} in '{ex.to_text(self.g)}'"
            )

    @property
    def constraint_rank(self) -> int:
        """k = number of constraint components that are not identically 0."""
        return sum(0 if _is_zero_expr(wi) else 1 for wi in self.w)

    @property
    def base_only(self) -> bool:
        return self.constraint_rank == 0 and _is_zero_expr(self.g)

    @property
    def dim(self) -> int:
        """Working dimension: n when base-only, else 2n."""
        return self.n if self.base_only else 2 * self.n


def _is_zero_expr(e: ex.Node) -> bool:
    return isinstance(e, ex.Const) and e.value == 0


@dataclass(frozen=True)
class MorseOptions:
    """Numerical parameters of the Morse pipeline; defaults validated on the
    bundled fixtures.

    A morse scenario sets ``search_box`` through its key ``box``;
    ``adiabatic_deviation`` widens ``capture_radius``.  The class constants
    have one value in every run.
    """

    search_box: Optional[tuple] = None  # per-coordinate (lo, hi); None = [-2,2]
    capture_radius: float = 1e-3

    grid: ClassVar[int] = 7  # Newton seeds per axis
    mesh: ClassVar[int] = 48  # coarse shots on the unstable circle
    shoot_radius: ClassVar[float] = 0.05
    t_max: ClassVar[float] = 200.0
    newton_tol: ClassVar[float] = 1e-12
    max_newton: ClassVar[int] = 60
    dedupe_distance: ClassVar[float] = 1e-6
    degenerate_tol: ClassVar[float] = 1e-8
    rel_tol: ClassVar[float] = 1e-9  # coarse sweep and the m = 1 shots
    abs_tol: ClassVar[float] = 1e-11

    def box_for(self, dim: int) -> list[tuple[float, float]]:
        if self.search_box is None:
            return [(-2.0, 2.0)] * dim
        box = [tuple(map(float, b)) for b in self.search_box]
        if len(box) != dim:
            raise MorseSpecError(f"search box must have {dim} entries, got {len(box)}")
        for i, (lo, hi) in enumerate(box):
            if not lo < hi:  # a reversed or empty entry, or a nan
                raise MorseSpecError(f"search box entry {i} needs lo < hi, got [{lo}, {hi}]")
        return box


@dataclass(frozen=True)
class CriticalPoint:
    z: PhasePoint
    index: int
    residual: float

    def coords(self) -> np.ndarray:
        return self.z.as_array()


@dataclass(frozen=True)
class IndexCertificate:
    total: int
    base_index: int
    fibre_index: int
    k: int
    separable: bool

    @property
    def consistent(self) -> bool:
        return self.separable and self.total == self.base_index + self.fibre_index + self.k


@dataclass
class MorseComplex:
    generators: dict  # index -> list[CriticalPoint]
    boundary: dict  # m -> uint8 matrix C_m -> C_{m-1}, rows = C_{m-1}
    flow_line_counts: dict  # ((m, col), (m-1, row)) -> raw count


# ---------------------------------------------------------------------------
# Hamiltonian assembly.


def build_hamiltonian(spec: MorseSpec) -> ex.Node:
    """H_q = f(x) + sum_i y_i w_i(x) + q g(y) as a single expression."""
    n = spec.n
    h: ex.Node = spec.f
    for i, wi in enumerate(spec.w, start=1):
        if _is_zero_expr(wi):
            continue
        h = ex.add(h, ex.mul(ex.var("y", i, n), wi))
    if not _is_zero_expr(spec.g):
        h = ex.add(h, ex.mul(ex.const(Fraction(spec.q), n), spec.g))
    return h


# ---------------------------------------------------------------------------
# Working system: gradient, Hessian and flow of H_q on z[:spec.dim].


class _System:
    def __init__(self, spec: MorseSpec, options: MorseOptions):
        self.spec = spec
        self.options = options
        n = spec.n
        self.dim = spec.dim
        self.wrap = spec.space == "torus"
        # H_q is f itself in base-only mode
        self.jet = ex.JetEvaluator(build_hamiltonian(spec))
        self.scales = np.ones(self.dim)
        self.scales[n:] = 1.0 / spec.q
        self.sqrt_scales = np.sqrt(self.scales)
        self.box = options.box_for(self.dim)
        self.span = max(hi - lo for lo, hi in self.box)  # Newton's step bound is 10 * span
        # u.tobytes() -> _newton_step(self, u): each iterate is solved once
        self.newton_steps: dict[bytes, tuple] = {}
        self._watches: dict[tuple, tuple] = {}  # (count, keep_states) -> watch
        # (axis, lo, hi) of every coordinate the box bounds; the angles
        # x1..xn of the torus are compact
        self.bounded_axes = [
            (axis, lo, hi)
            for axis, (lo, hi) in enumerate(self.box)
            if not (self.wrap and axis < n)
        ]

    def coords(self, p: CriticalPoint) -> np.ndarray:
        """The working coordinates of p."""
        return p.coords()[: self.dim]

    def gradient(self, u: np.ndarray) -> tuple:
        return self.jet.gradient(u)[: self.dim]

    def hessian(self, u: np.ndarray) -> np.ndarray:
        return self.jet.hessian(u)[: self.dim, : self.dim]

    @functools.cached_property
    def rhs(self) -> Callable[[list], list]:
        """Negative G_q-gradient flow (-dH/dx, -(1/q) dH/dy) on a list of
        floats, compiled once (expr.compile_scaled): the first self.dim
        entries of jet.gradient(u) times -self.scales (a base-only gradient
        holds constant zeros past them).  rkf45_path inlines its terms
        (dynamics._loop)."""
        return ex.compile_scaled(self.jet, [(-c, i) for i, c in enumerate(self.scales.tolist())],
                                 __name__)

    def symmetrized_hessian(self, u: np.ndarray) -> np.ndarray:
        """W^{1/2} Hess W^{1/2}: same inertia as the linearized flow."""
        s = self.sqrt_scales
        return self.hessian(u) * np.outer(s, s)

    def wrap_coords(self, u: np.ndarray) -> np.ndarray:
        if not self.wrap:
            return u
        out = np.array(u)
        n = self.spec.n
        out[:n] = np.mod(out[:n], TWO_PI)
        return out

    def _square_sum(self, u: str, v: str) -> list[str]:
        """Lines setting sq to the sum, left to right, of the squares of the
        shortest displacement u - v; ``u`` and ``v`` name the components,
        e.g. ``z_{}``, and torus angles are reduced as displacement does."""
        axes = range(self.dim)
        lines = []
        for i in axes:
            d = f"{u.format(i)} - {v.format(i)}"
            if self.wrap and i < self.spec.n:
                d = f"({d} + {math.pi!r}) % {TWO_PI!r} - {math.pi!r}"
            lines.append(f"u{i} = {d}")
        return lines + ["sq = " + " + ".join(f"u{i} * u{i}" for i in axes)]

    @functools.cached_property
    def distance(self) -> Callable[[Sequence[float], Sequence[float]], float]:
        """(u, v) -> the length of the shortest displacement u - v, generated
        once: the root of the sum of squares that the shot watch takes."""
        axes = range(self.dim)
        lines = ["def distance(a, b):",
                 "    " + ", ".join(f"a_{i}" for i in axes) + ", = a",
                 "    " + ", ".join(f"b_{i}" for i in axes) + ", = b"]
        lines += ["    " + line for line in self._square_sum("a_{}", "b_{}")]
        lines.append("    return sqrt(sq)")
        return ex.define("\n".join(lines) + "\n", "distance", __name__, sqrt=math.sqrt)

    def displacement(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Shortest v - u, reducing angular components to [-pi, pi).

        v may be a stack of points, one per row.
        """
        d = np.subtract(v, u, dtype=float)
        if self.wrap:
            angles = d[..., : self.spec.n]
            angles[...] = (angles + math.pi) % TWO_PI - math.pi
        return d

    def _outside(self, margin: float, pattern: str) -> str:
        """Source testing that a bounded coordinate (``pattern`` names axis i,
        e.g. ``u[{}]``) is more than margin outside the box, lo - margin and
        hi + margin folded into constants; a nan is inside; "" if none is bounded."""
        return " or ".join(
            f"{pattern.format(axis)} < {lo - margin!r} or {pattern.format(axis)} > {hi + margin!r}"
            for axis, lo, hi in self.bounded_axes
        )

    def _box_test(self, margin: float) -> Callable[[Sequence[float]], bool]:
        """u -> False when a bounded coordinate of u lies more than margin
        outside the box, generated (_outside)."""
        outside = self._outside(margin, "u[{}]") or "False"
        return ex.define(f"def in_box(u):\n    return not ({outside})\n", "in_box", __name__)

    def watch(self, count: int, keep_states: bool) -> tuple:
        """(source, make), generated once per (count, keep_states): the shot
        watch for ``count`` targets as a watch source (dynamics._loop), and
        ``make(args) -> observe`` running it on args = (shot, stop, root,
        lows, target components), root being math.sqrt.

        Per step: shot.last_state = z (and z joins shot.states if kept); per
        target, in order, sq is the sum of distance's squares; a sum below
        the least one so far replaces it in lows and, if its root is below
        delta, sets the capture and raises stop.  Last, a state more than 0.5
        outside the box sets "escaped" and raises stop.
        """
        key = (count, keep_states)
        if key in self._watches:
            return self._watches[key]
        axes, targets = range(self.dim), range(count)
        delta = self.options.capture_radius
        names = [f"p{k}_{i}" for k in targets for i in axes]
        setup = [", ".join(["shot", "stop", "root", "lows", *names]) + ", = watch"]
        if count:
            setup.append(f"{', '.join(f'l{k}' for k in targets)}, = lows")
        body = ["shot.last_state = z"]
        if keep_states:
            setup.append("store = shot.states.append")
            body.append("store(z)")
        for k in targets:
            body += self._square_sum("z_{}", f"p{k}_{{}}")
            body += [
                f"if sq < l{k}:",
                f"    lows[{k}] = l{k} = sq",
                f"    if root(sq) < {delta!r}:",
                f"        shot.outcome, shot.target = 'captured', {k}",
                "        raise stop",
            ]
        outside = self._outside(0.5, "z_{}")
        if outside:
            body += [f"if {outside}:", "    shot.outcome = 'escaped'", "    raise stop"]
        source = ("\n".join(setup), "\n".join(body))
        lines = ["def make(watch):", "    def observe(t, z):"]
        lines += ["        " + line for line in setup]
        lines.append("        " + ", ".join(f"z_{i}" for i in axes) + ", = z")
        lines += ["        " + line for line in body]
        lines.append("    return observe")
        watch = self._watches[key] = source, ex.define("\n".join(lines) + "\n", "make", __name__)
        return watch

    @functools.cached_property
    def in_box(self) -> Callable[[Sequence[float]], bool]:
        """The box test of the shots (the watch inlines it): margin 0.5."""
        return self._box_test(0.5)

    @functools.cached_property
    def in_search_box(self) -> Callable[[Sequence[float]], bool]:
        """The box test of Newton's points: margin 1e-6."""
        return self._box_test(1e-6)

    def phase_point(self, u: np.ndarray) -> PhasePoint:
        z = np.zeros(2 * self.spec.n)  # y = 0 in base-only mode
        z[: self.dim] = self.wrap_coords(u)
        return PhasePoint.from_array(z, self.spec.space)


# ---------------------------------------------------------------------------
# Critical points.


def _newton_seeds(system: _System) -> list[np.ndarray]:
    grids = []
    for axis, (lo, hi) in enumerate(system.box):
        if system.wrap and axis < system.spec.n:
            grids.append(np.linspace(0.0, TWO_PI, system.options.grid, endpoint=False))
        else:
            grids.append(np.linspace(lo, hi, system.options.grid))
    return [np.array(seed) for seed in itertools.product(*grids)]


def _newton_step(system: _System, u: np.ndarray) -> tuple:
    """One Newton step from u: (True, u) when u has converged, (True, None)
    when the gradient is not finite, the step leaves the search span or H_q
    cannot be evaluated (an overflow, a division by zero or a domain error),
    else (False, the next iterate)."""
    try:
        g = system.gradient(u)
        if not all(map(math.isfinite, g)):
            return True, None
        if max(map(abs, g)) <= system.options.newton_tol:
            return True, u
        step, *_ = np.linalg.lstsq(system.hessian(u), g, rcond=None)
        # np.linalg.norm's own formula; a nan or inf norm fails the test
        if not math.sqrt(step.dot(step)) <= 10 * system.span:
            return True, None
        v = system.wrap_coords(u - step)
    # np.linalg.LinAlgError is a ValueError
    except (OverflowError, ZeroDivisionError, ValueError):
        return True, None
    v.flags.writeable = False  # shared by every seed whose path reaches it
    return False, v


def _newton(system: _System, seed: np.ndarray) -> Optional[np.ndarray]:
    """The critical point Newton reaches from seed within max_newton steps,
    or None (see _newton_step).  A step depends only on the bits of its
    iterate, so it is taken from system.newton_steps once any seed has
    reached that iterate; -0.0 against 0.0 is a miss, never a wrong hit."""
    steps = system.newton_steps
    u = np.array(seed, dtype=float)
    u.flags.writeable = False  # a converged seed is kept in steps too
    for _ in range(system.options.max_newton):
        key = u.tobytes()
        outcome = steps.get(key)
        if outcome is None:
            outcome = steps[key] = _newton_step(system, u)
        done, u = outcome
        if done:
            return u
    return None


def _index(system: _System, u: np.ndarray) -> int:
    """Morse index at u: the negative eigenvalues of the G_q-symmetrized
    Hessian.  Raises MorseConditionError when one lies within the
    degeneracy tolerance of zero."""
    spectrum = np.linalg.eigvalsh(system.symmetrized_hessian(u))
    if np.min(np.abs(spectrum)) < system.options.degenerate_tol:
        raise MorseConditionError(
            f"degenerate critical point at {np.round(u, 6).tolist()}: "
            f"Hessian eigenvalue {spectrum[np.argmin(np.abs(spectrum))]:.3e} "
            "within tolerance of zero"
        )
    return int(np.sum(spectrum < 0))


def find_critical_points(
    spec: MorseSpec, options: Optional[MorseOptions] = None
) -> list[CriticalPoint]:
    """Newton iteration from every grid seed, deduplicated and index-checked.

    Each distinct Newton iterate is solved once per call: seeds whose paths
    merge share the steps from there on, with the same bits as alone.

    Raises MorseConditionError when a converged point has a Hessian
    eigenvalue within the degeneracy tolerance of zero.
    """
    options = options or MorseOptions()
    system = _System(spec, options)
    found: list[np.ndarray] = []
    kept: list[list[float]] = []  # found as Python floats, distance's fast input
    # a seed where the float64 gradient overflows is skipped by _newton; it
    # gives no RuntimeWarning on stderr
    with np.errstate(all="ignore"):
        for seed in _newton_seeds(system):
            u = _newton(system, seed)
            if u is None:
                continue
            u = system.wrap_coords(u)
            if not system.in_search_box(u):
                continue
            point = u.tolist()
            if any(system.distance(point, v) <= options.dedupe_distance for v in kept):
                continue
            found.append(u)
            kept.append(point)
    found.sort(key=lambda u: tuple(np.round(u, 9)))
    return [
        CriticalPoint(
            z=system.phase_point(u),
            index=_index(system, u),
            residual=float(np.linalg.norm(system.gradient(u))),
        )
        for u in found
    ]


def _nullspace(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    if m.size == 0:
        return np.eye(m.shape[1] if m.ndim == 2 else 0)
    u, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 0.0)))
    return vt[rank:].T


def _constraint_jets(spec: MorseSpec) -> list[tuple[int, ex.JetEvaluator]]:
    """(i, jet of w_i) for every constraint component that is not identically 0."""
    return [(i, ex.JetEvaluator(wi)) for i, wi in enumerate(spec.w) if not _is_zero_expr(wi)]


def _constraint_jacobian(jets_w, z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """dw at z (row i is grad_x w_i, a zero row for a zero w_i) and its rows
    of the nonzero components."""
    dw = np.zeros((n, n))
    for i, jet in jets_w:
        dw[i, :] = jet.gradient(z)[:n]
    return dw, dw[[i for i, _ in jets_w], :]


def critical_index(
    spec: MorseSpec, p: CriticalPoint, options: Optional[MorseOptions] = None
) -> tuple[int, IndexCertificate]:
    """Morse index of p with the base/fibre/k decomposition certificate.

    index = #negative eigenvalues of the G_q-symmetrized Hessian; the
    certificate reports index_base(f|_{w^{-1}(0)}) + index_fibre(g) + k and
    whether it matches.
    """
    system = _System(spec, options or MorseOptions())
    total = _index(system, system.coords(p))

    n = spec.n
    z = p.coords()
    y = z[n:]
    k = spec.constraint_rank
    jets_w = _constraint_jets(spec)
    dw, dw_active = _constraint_jacobian(jets_w, z, n)
    separable = int(np.linalg.matrix_rank(dw_active, tol=1e-8)) == k if k else True

    # Base index: Hessian of the Lagrangian f + y.w restricted to ker dw.
    a = ex.JetEvaluator(spec.f).hessian(z)[:n, :n]
    for i, jet in jets_w:
        a = a + y[i] * jet.hessian(z)[:n, :n]
    kernel = _nullspace(dw_active)  # the identity when k = 0
    if kernel.shape[1]:
        base_vals = np.linalg.eigvalsh(kernel.T @ a @ kernel)
        base_index = int(np.sum(base_vals < 0))
    else:
        base_index = 0

    # Fibre index: Hessian of g restricted to the vertical kernel of dw.
    vertical = _nullspace(dw.T)
    if vertical.shape[1] and not _is_zero_expr(spec.g):
        hg = ex.JetEvaluator(spec.g).hessian(z)[n:, n:]
        fibre_vals = np.linalg.eigvalsh(vertical.T @ hg @ vertical)
        fibre_index = int(np.sum(fibre_vals < 0))
    else:
        fibre_index = 0

    cert = IndexCertificate(total, base_index, fibre_index, k, separable)
    return total, cert


# ---------------------------------------------------------------------------
# Flow-line counting by unstable-sphere shooting.

# relative tolerance of the shots that bisect onto a separatrix
_SEPARATRIX_REL_TOL = 1e-12
# closest approach that sends a collapsed bracket to _pair_refine; moving it
# changes which brackets are refined, and so the shot counts
_REFINE_GATE = 0.5


class _Stop(Exception):
    """Ends a shot from inside its observer."""


def _unstable_frame(system: _System, u: np.ndarray) -> np.ndarray:
    """Columns spanning the unstable subspace of the linearized flow at u."""
    s = system.symmetrized_hessian(u)
    vals, vecs = np.linalg.eigh(s)
    unstable = vecs[:, vals < 0]
    frame = system.sqrt_scales[:, None] * unstable
    norms = np.linalg.norm(frame, axis=0)
    return frame / norms


@dataclass
class _ShotResult:
    outcome: str  # "captured", "escaped", "blew_up" (IntegrationError), "timeout"
    target: Optional[int]
    min_dist: list  # closest approach per target along the path
    states: list
    last_state: Optional[list] = None


def _shoot(
    system: _System,
    start: np.ndarray,
    targets: Sequence[np.ndarray],
    rel_tol: float,
    abs_tol: float,
    keep_states: bool = False,
) -> _ShotResult:
    """One RKF45 shot from start until it enters the capture ball of a target
    (system.distance below delta, checked in target order each step), leaves
    the box or times out.  min_dist[i] is the least system.distance from a
    state to target i.

    Each step runs _System.watch on this shot's state.  The observe handed
    to rkf45_path carries that source as its ``watch``, so the loop runs it
    inline; a loop that calls observe gets the same bits.
    """
    opts = system.options
    result = _ShotResult("timeout", None, [], [])
    lows = [math.inf] * len(targets)  # least sum of squares per target
    source, make = system.watch(len(targets), keep_states)
    goals = [v for t in targets for v in np.asarray(t, dtype=float).tolist()]
    args = (result, _Stop, math.sqrt, lows, *goals)
    observe = make(args)
    observe.watch = (source, args)
    try:
        rkf45_path(
            system.rhs, start, opts.t_max, rel_tol, abs_tol, stride=1, observe=observe
        )
    except _Stop:
        pass
    except IntegrationError:
        result.outcome = "blew_up"
    result.min_dist = [math.sqrt(s) for s in lows]
    return result


def _angle_shot(system, u_minus, frame, theta, stop_points, rel_tol, keep_states=False):
    direction = math.cos(theta) * frame[:, 0] + math.sin(theta) * frame[:, 1]
    start = u_minus + system.options.shoot_radius * direction
    return _shoot(
        system, start, stop_points, rel_tol, rel_tol * 1e-2, keep_states=keep_states
    )


def _fate(system: _System, shot: _ShotResult):
    """Coarse classification of where a shot ended up.

    Captures are keyed by target; escapes by the box face crossed, and so
    is a blow-up whose last state lies past a face; a blow-up inside the
    box is its own fate.  Two shots on the same side of a separatrix share
    a fate, so a fate change between neighbouring angles brackets a
    connecting orbit.
    """
    if shot.outcome == "captured":
        return ("captured", shot.target)
    if shot.outcome == "timeout" or shot.last_state is None:
        return ("timeout",)
    worst, axis, side = 0.0, -1, 0
    for a, lo, hi in system.bounded_axes:
        value = shot.last_state[a]
        over = max(lo - value, value - hi)
        if over > worst:
            worst, axis = over, a
            side = -1 if lo - value > value - hi else 1
    if axis < 0:  # an escape always lies past a face
        return ("blew_up",)
    return ("escaped", axis, side)


def _pair_refine(system, u_minus, frame, theta_a, theta_b, stop_points, keep_states):
    """Re-anchored shooting for separatrices too stiff for the angle alone.

    When the fast/slow eigenvalue ratio at the source is large the angular
    window that reaches the capture ball lies below double precision, and
    the angle bisection collapses onto two orbits with distinct escape
    fates that both still miss the ball.  The two orbits straddle the
    stable manifold of the target, so the segment between their closest
    approaches crosses it; bisecting along that segment recovers the
    capture with a fresh full mantissa of resolution, and each stage
    restarts from the refined pair until an orbit enters the ball.

    Trial starts inside the capture ball are rejected so that only shots
    with a genuine transit count.
    """
    rel = _SEPARATRIX_REL_TOL
    delta = system.options.capture_radius
    targets = [t.tolist() for t in stop_points]  # Python floats, distance's fast input
    shot_a = _angle_shot(system, u_minus, frame, theta_a, stop_points, rel, True)
    shot_b = _angle_shot(system, u_minus, frame, theta_b, stop_points, rel, True)
    prefix_states: list = []

    def finish(shot):
        if not keep_states:
            shot.states = []
        elif prefix_states:
            # a refined tail starts mid-segment, off the true orbit; the
            # genuine track up to the closest approach is what callers
            # measure along, so report that and drop the transient
            shot.states = list(prefix_states)
        return shot

    for _ in range(4):
        for shot in (shot_a, shot_b):
            if shot.outcome == "captured":
                return finish(shot)
        if not shot_a.states or not shot_b.states:
            return None
        fate_a, fate_b = _fate(system, shot_a), _fate(system, shot_b)
        if fate_a == fate_b:
            return None  # bracket lost; nothing left to straddle
        d_a = np.array([[system.distance(z, t) for t in targets] for z in shot_a.states])
        i_a, k = np.unravel_index(int(np.argmin(d_a)), d_a.shape)
        i_b = int(np.argmin([system.distance(z, targets[k]) for z in shot_b.states]))
        if keep_states:
            # the true orbit lies between the bracketing pair, so states
            # are certified only while the pair still agrees; the meterable
            # part of the journey ends where the orbits split
            zb = np.array(shot_b.states)
            zb = zb[:: max(1, len(zb) // 512)]
            cut = i_a + 1
            for j in range(i_a + 1):
                d = system.displacement(shot_a.states[j], zb)
                if float(np.min(np.linalg.norm(d, axis=1))) > 1e-2:
                    cut = j
                    break
            prefix_states.extend(shot_a.states[:cut])
        z_a = np.array(shot_a.states[i_a])
        z_b = np.array(shot_b.states[i_b])
        segment = system.displacement(z_a, z_b)
        lo_s, hi_s = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo_s + hi_s)
            if mid == lo_s or mid == hi_s:
                break
            start = z_a + mid * segment
            point = start.tolist()
            if min(system.distance(point, t) for t in targets) <= delta:
                # the segment sags into the ball; an instant capture proves
                # nothing, so shrink toward the better-tracked side instead
                hi_s = mid
                continue
            trial = _shoot(system, start, stop_points, rel, rel * 1e-2, True)
            if trial.outcome == "captured":
                return finish(trial)
            fm = _fate(system, trial)
            if fm == fate_a:
                lo_s, shot_a = mid, trial
            else:
                hi_s, shot_b = mid, trial
    return None


def _bisect_lines(
    system, u_minus, frame, stop_points, lo, hi, fate_lo, fate_hi, keep_states
):
    """Captured shots on fate boundaries inside the angle interval [lo, hi].

    Bisection drives the angle onto the separatrix between two escape (or
    capture) behaviours; the boundary trajectory is a connecting orbit and
    registers by entering a capture ball.  A midpoint showing a third fate
    splits the interval and both halves are searched.

    For strongly stiff spectra the angular window that reaches the capture
    ball can lie below double precision.  A collapsed bracket that came
    within ``_REFINE_GATE`` of a target, or whose fates are opposed escapes,
    goes to ``_pair_refine``.  Either way a line counts only if a shot
    entered a capture ball.
    """
    lines = []
    work = [(lo, hi, fate_lo, fate_hi)]
    budget = 220
    while work and budget > 0:
        a, b, fa, fb = work.pop()
        best = (np.inf, None)  # (distance, angle) of the closest approach
        captured = False
        for _ in range(70):
            budget -= 1
            mid = 0.5 * (a + b)
            if mid == a or mid == b or budget <= 0:
                break
            shot = _angle_shot(
                system, u_minus, frame, mid, stop_points, _SEPARATRIX_REL_TOL,
                keep_states,
            )
            fm = _fate(system, shot)
            if fm[0] == "captured":
                lines.append((mid, shot))
                captured = True
                break
            closest = min(shot.min_dist, default=math.inf)
            if closest < best[0]:
                best = (closest, mid)
            if fm == fa:
                a = mid
            elif fm == fb:
                b = mid
            else:
                work.append((mid, b, fm, fb))
                b, fb = mid, fm
        # refinement is worthwhile when the collapsed bracket plausibly holds
        # a connecting orbit: either the best shot already came close, or the
        # two fates are escapes along one axis with opposite signs -- the
        # signature of a single fast transverse direction flipping across it
        opposed = (
            fa[0] == "escaped"
            and fb[0] == "escaped"
            and fa[1] == fb[1]
            and fa[2] == -fb[2]
        )
        promising = best[1] is not None and (best[0] <= _REFINE_GATE or opposed)
        if not captured and promising:
            refined = _pair_refine(
                system, u_minus, frame, a, b, stop_points, keep_states
            )
            if refined is not None:
                lines.append((best[1], refined))
    return lines


def _lines_from(
    system: _System,
    p_minus: CriticalPoint,
    stop_points: Sequence[np.ndarray],
    keep_states: bool = False,
) -> dict:
    """All registered flow lines out of p_minus, grouped by capture target:
    {target index: [(angle, captured shot), ...]}.  A coarse sweep over the
    unstable-sphere mesh collects direct captures and fate changes; each
    fate change is refined by bisection onto the separatrix.
    """
    opts = system.options
    u_minus = system.coords(p_minus)
    frame = _unstable_frame(system, u_minus)
    m = frame.shape[1]
    lines: dict[int, list] = {}

    def register(theta, shot):
        lines.setdefault(shot.target, []).append((theta % (2.0 * math.pi), shot))

    if m == 1:
        for sign, theta in ((1.0, 0.0), (-1.0, math.pi)):
            start = u_minus + sign * opts.shoot_radius * frame[:, 0]
            shot = _shoot(
                system, start, stop_points, opts.rel_tol, opts.abs_tol, keep_states
            )
            if shot.outcome == "captured":
                register(theta, shot)
        return lines

    if m != 2:
        raise NotImplementedError(
            f"shooting mesh implemented for unstable dimension <= 2, got {m}"
        )

    thetas = np.linspace(0.0, 2.0 * math.pi, opts.mesh, endpoint=False)
    coarse = [
        _angle_shot(system, u_minus, frame, t, stop_points, opts.rel_tol, keep_states)
        for t in thetas
    ]
    fates = [_fate(system, shot) for shot in coarse]
    for t, shot, fate in zip(thetas, coarse, fates):
        if fate[0] == "captured":
            register(float(t), shot)
    spacing = 2.0 * math.pi / opts.mesh
    for i in range(opts.mesh):
        j = (i + 1) % opts.mesh
        if fates[i] == fates[j]:
            continue
        found = _bisect_lines(
            system,
            u_minus,
            frame,
            stop_points,
            float(thetas[i]),
            float(thetas[i]) + spacing,
            fates[i],
            fates[j],
            keep_states,
        )
        for theta, shot in found:
            register(theta, shot)

    # collapse registrations of the same orbit: angles closer than half a
    # mesh cell that hit the same target count once
    for target, found in lines.items():
        deduped: list = []
        for theta, shot in sorted(found, key=lambda item: item[0]):
            gap = min(
                (
                    min(abs(theta - t), 2.0 * math.pi - abs(theta - t))
                    for t, _ in deduped
                ),
                default=np.inf,
            )
            if gap > 0.5 * spacing:
                deduped.append((theta, shot))
        lines[target] = deduped
    return lines


def count_flow_lines(
    spec: MorseSpec,
    p_minus: CriticalPoint,
    p_plus: CriticalPoint,
    options: Optional[MorseOptions] = None,
) -> int:
    """The raw count of flow lines from p_minus down to p_plus.

    Shoots from a mesh on a small sphere in the unstable subspace of
    p_minus and bisects fate changes until trajectories enter the capture
    ball of p_plus; each registered separatrix is one flow line.
    """
    if p_minus.index - p_plus.index != 1:
        raise ValueError(
            f"index difference must be 1, got {p_minus.index} - {p_plus.index}"
        )
    options = options or MorseOptions()
    system = _System(spec, options)
    return len(_lines_from(system, p_minus, [system.coords(p_plus)]).get(0, []))


# ---------------------------------------------------------------------------
# Complex assembly and homology.


def build_complex(spec: MorseSpec, options: Optional[MorseOptions] = None) -> MorseComplex:
    """Critical points, mod-2 boundary matrices and flow-line counts.

    Raises MorseConditionError if the boundary operator fails d^2 = 0.
    """
    options = options or MorseOptions()
    system = _System(spec, options)
    points = find_critical_points(spec, options=options)
    generators: dict[int, list[CriticalPoint]] = {}
    for p in points:
        generators.setdefault(p.index, []).append(p)

    boundary: dict[int, np.ndarray] = {}
    counts: dict = {}
    for m, sources in sorted(generators.items()):
        rows = generators.get(m - 1, [])
        if not rows:
            continue
        matrix = np.zeros((len(rows), len(sources)), dtype=np.uint8)
        for col, p_minus in enumerate(sources):
            stop_points = [system.coords(p) for p in rows] + [
                system.coords(p) for p in points if p.index < m - 1
            ]
            lines = _lines_from(system, p_minus, stop_points)
            for row in range(len(rows)):
                raw = len(lines.get(row, []))
                counts[((m, col), (m - 1, row))] = raw
                matrix[row, col] = raw % 2
        boundary[m] = matrix

    # d^2 = 0 over Z/2
    for m in boundary:
        if m - 1 in boundary:
            square = (boundary[m - 1].astype(int) @ boundary[m].astype(int)) % 2
            if np.any(square):
                raise MorseConditionError(
                    f"boundary fails d^2 = 0 between degrees {m} and {m - 2}; "
                    "flow-line counting is inconsistent"
                )
    return MorseComplex(generators=generators, boundary=boundary, flow_line_counts=counts)


def mod2_rank(matrix: np.ndarray) -> int:
    m = np.array(matrix, dtype=np.uint8) % 2
    rank = 0
    rows, cols = m.shape
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(rows):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def homology_ranks(complex_: MorseComplex) -> dict[int, int]:
    """Mod-2 homology ranks by Gaussian elimination over Z/2."""
    ranks = {}
    for m, gens in sorted(complex_.generators.items()):
        dim = len(gens)
        r_in = mod2_rank(complex_.boundary[m]) if m in complex_.boundary else 0
        r_out = mod2_rank(complex_.boundary[m + 1]) if m + 1 in complex_.boundary else 0
        ranks[m] = dim - r_in - r_out
    return ranks


# ---------------------------------------------------------------------------
# Adiabatic limit.


class _DeviationMeter:
    """Distance of a phase path from the constraint set Z.

    deviation(z) = ||w(x)|| + ||P_N (df(x) + y . dw(x))|| where P_N projects
    onto the span of the constraint gradients; both terms vanish identically
    on Z.
    """

    def __init__(self, spec: MorseSpec):
        self.n = spec.n
        self.jet_f = ex.JetEvaluator(spec.f)
        self.jets_w = _constraint_jets(spec)

    def __call__(self, z: Sequence[float]) -> float:
        n = self.n
        z = np.asarray(z, dtype=float)
        w_vals = [jet.value(z) for _, jet in self.jets_w]
        dw, rows = _constraint_jacobian(self.jets_w, z, n)
        residual = np.array(self.jet_f.gradient(z)[:n]) + dw.T @ z[n:]
        if rows.size:
            # projection of the residual onto the constraint-gradient span
            pinv = np.linalg.pinv(rows)
            proj = rows.T @ (pinv.T @ residual)
        else:
            proj = np.zeros(n)
        return float(np.linalg.norm(w_vals) + np.linalg.norm(proj))


def _match_point(points: Sequence[CriticalPoint], reference: CriticalPoint) -> CriticalPoint:
    same_index = [p for p in points if p.index == reference.index]
    if not same_index:
        raise MorseConditionError(
            f"no critical point of index {reference.index} found"
        )
    ref = reference.coords()
    return min(same_index, key=lambda p: float(np.linalg.norm(p.coords() - ref)))


def adiabatic_deviation(
    spec: MorseSpec,
    q_list: Sequence[float],
    options: Optional[MorseOptions] = None,
) -> list[tuple[float, float]]:
    """Max distance of a recomputed flow line from Z, for each q in q_list.

    For each q the critical points are re-solved, the flow line joining the
    pair of lowest and highest index found at the first q is re-shot, and
    the trajectory's maximum deviation from the constraint set is recorded.
    The limit q -> 0 forces the flow onto Z, so the deviations should decrease.
    """
    options = options or MorseOptions()
    if not q_list:
        raise MorseSpecError("q_list must be nonempty")
    if any(not 0 < q <= 1 for q in q_list):
        raise MorseSpecError("all q values must lie in (0, 1]")
    if spec.base_only:
        raise MorseSpecError("adiabatic deviation needs a nontrivial constraint")

    # The deviation is a mid-journey quantity (it vanishes at both critical
    # points), so the flow line only needs to be located, not threaded into
    # a tight capture ball; a relaxed ball keeps the shooting well inside
    # the floating-point budget as the q -> 0 stiffness grows.
    options = replace(options, capture_radius=max(options.capture_radius, 0.15))
    meter = _DeviationMeter(spec)
    out = []
    reference_pair = None
    for q in q_list:
        spec_q = MorseSpec(spec.n, spec.f, spec.w, spec.g, q=q, space=spec.space)
        points = find_critical_points(spec_q, options=options)
        if reference_pair is None:
            by_index = sorted(points, key=lambda p: p.index)
            p_plus, p_minus = by_index[0], by_index[-1]
            if p_minus.index - p_plus.index != 1:
                raise MorseConditionError("no index-difference-1 pair found")
            reference_pair = (p_minus, p_plus)
        p_minus = _match_point(points, reference_pair[0])
        p_plus = _match_point(points, reference_pair[1])

        system = _System(spec_q, options)
        others = [p for p in points if p not in (p_minus, p_plus)]
        stop_points = [p_plus.coords()] + [p.coords() for p in others]
        lines = _lines_from(system, p_minus, stop_points, keep_states=True)
        best = None
        for _, shot in lines.get(0, []):
            deviation = max(meter(z) for z in shot.states)
            if best is None or deviation < best:
                best = deviation
        if best is None:
            raise MorseConditionError(f"no flow line found between the pair at q={q}")
        out.append((float(q), float(best)))
    return out


# ---------------------------------------------------------------------------
# Report serialization.


def complex_to_report(
    complex_: MorseComplex, adiabatic: Optional[list[tuple[float, float]]] = None
) -> dict:
    points = []
    for m in sorted(complex_.generators):
        for p in complex_.generators[m]:
            points.append(
                {
                    "z": [float(v) for v in p.coords()],
                    "index": m,
                    "residual": p.residual,
                }
            )
    doc = {
        "critical_points": points,
        "boundary": {
            str(m): matrix.astype(int).tolist() for m, matrix in sorted(complex_.boundary.items())
        },
        "homology_ranks": {str(m): r for m, r in sorted(homology_ranks(complex_).items())},
    }
    if adiabatic is not None:
        doc["adiabatic"] = [{"q": q, "deviation": d} for q, d in adiabatic]
    return doc
