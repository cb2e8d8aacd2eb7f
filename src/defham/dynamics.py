"""Flows of deformed Hamiltonian fields and their variational equations.

The field of a Hamiltonian H at parameter q is, in flat coordinates,

    X^q_H(z) = (q^{-1} dH/dy, -dH/dx),

the unique solution of omega(X, .) = -d_q H under the sign convention of
the phase module.  Flows are integrated with a fixed-step classical RK4 or
an adaptive Fehlberg RKF45; the Jacobian of the flow map is co-integrated
from the exact symbolic Hessian of H.

Both integrators are straight-line loops on lists of Python floats, each
from one generator (_rk4_loop, _rkf45_loop) and cached by what it is
generated from (_loop).  A generator forks only on how a stage is written
and, in RK4, on where the state list is made; every loop runs a watch at
its samples.  An rhs that carries its ``terms`` (the compiled field and the
Morse rhs, both a scaled jet.gradient from expr.compile_scaled) runs in a
loop whose stages compute those terms inline; any other rhs is called once
per stage.  In such a loop an observe that carries its ``watch`` runs that
source inline; any other observe is called at each sample.  Both forms do
the same operations in the same order, so they give the same path bit for
bit.  The variational rhs is generated once per (H, q)
(HamiltonianField.variational_rhs): gradient entries inline, the field
Jacobian from the compiled Hessian tuple, one BLAS product.
field_from_gradient stays the pointwise form for single evaluations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from .phase import PhasePoint, TangentVector, omega_matrix, wrap_angles

__all__ = [
    "FlowSpec",
    "Trajectory",
    "VariationalFlow",
    "IntegrationError",
    "HamiltonianField",
    "deformed_field",
    "energy_derivative_defect",
    "integrate",
    "integrate_variational",
    "pullback_defect",
    "regime_violations",
    "trajectory_csv",
]


# raised on Python floats where float64 gives inf or nan (ValueError: math of inf)
_NON_FINITE = (OverflowError, ZeroDivisionError, ValueError)


class IntegrationError(RuntimeError):
    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g}")
        self.t = t


@dataclass
class FlowSpec:
    hamiltonian: ex.Node
    n: int
    q: float
    space: str = "plane"
    integrator: str = "rk4"  # "rk4" or "rkf45"
    step: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_final: float = 1.0
    sample_stride: int = 1

    def __post_init__(self):
        for name in ("q", "step", "rel_tol", "abs_tol", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if self.space not in ("plane", "torus"):
            raise ValueError(f"unknown space {self.space!r}")
        if self.integrator not in ("rk4", "rkf45"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.step <= 0 or self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("step and tolerances must be positive")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be a positive integer")
        if self.hamiltonian.n != self.n:
            raise ValueError("Hamiltonian dimension does not match n")


@dataclass
class Trajectory:
    """Time-sampled solution of zdot = X^q_H(z), stacked once from its samples."""

    ts: np.ndarray
    zs: np.ndarray  # shape (m, 2n), torus x-coordinates wrapped mod 2*pi
    energies: np.ndarray  # H at each sample, taken before the wrap
    n: int
    space: str = "plane"


@dataclass
class VariationalFlow:
    trajectory: Trajectory
    jacobians: np.ndarray  # shape (m, 2n, 2n), aligned with samples


class HamiltonianField:
    """Compiled field and field-Jacobian evaluation for one (H, q); H is self.jet."""

    def __init__(self, hamiltonian: ex.Node, q: float):
        if q == 0:
            raise ValueError("q must be nonzero")
        self.n = hamiltonian.n
        self.q = float(q)
        self.jet = ex.JetEvaluator(hamiltonian)
        self._qinv = 1.0 / float(q)

    def field(self, z) -> np.ndarray:
        return np.array(self.field_from_gradient(self.jet.gradient(z)))

    @functools.cached_property
    def compiled_field(self) -> Callable[[Sequence[float]], list]:
        """The rhs of the flows, compiled once: field_from_gradient of
        jet.gradient(z), with its rounding (expr.compile_scaled)."""
        return ex.compile_scaled(self.jet, _field_terms(self.n, self._qinv), __name__)

    def field_from_gradient(self, g: Sequence[float]) -> list:
        """The field as a list of floats, given the gradient of H at the point."""
        n = self.n
        # -1.0 * v, not -v: the compiled field's `-1.0 * (e)`, which keeps
        # the sign of a nan where -v flips it
        return [self._qinv * v for v in g[n:]] + [-1.0 * v for v in g[:n]]

    @functools.cached_property
    def variational_rhs(self) -> Callable[[Sequence[float]], list]:
        """The rhs of the flow with its Jacobian D, on the state (z, D row by
        row), generated once.  It computes, in the order of the array form
        np.concatenate([field(z), (field_jacobian(z) @ D).ravel()]) and with
        its rounding: the gradient entries inline, the field from them, then
        the field Jacobian, from the compiled Hessian tuple
        (jet.hessian_tuple), and D as two np.arrays and one BLAS product."""
        n, m = self.n, 2 * self.n
        names = ex.coordinate_names("state[{}]", n)
        g = [f"g{i}" for i in range(m)]
        h = [f"h{k}" for k in range(m * (m + 1) // 2)]
        index = ex.hessian_index(m)
        # -(1.0 * h), not -h: a constant entry with no finite float (printed
        # exactly, an int) then raises OverflowError, as field_jacobian does
        rows = [[f"{self._qinv!r} * {h[k]}" for k in index[n + i]] for i in range(n)]
        rows += [[f"-(1.0 * {h[k]})" for k in index[i]] for i in range(n)]
        source = "\n".join([
            "def rhs(state):",
            f"    {', '.join(g)}, = {', '.join(ex.to_text(e, names) for e in self.jet.derivatives)},",
            f"    v = [{', '.join(f'{c!r} * g{i}' for c, i in _field_terms(n, self._qinv))}]",
            f"    {', '.join(h)}, = hessian(state)",
            f"    dd = array({ex.matrix_source(rows)}) @ array(state[{m}:]).reshape({m}, {m})",
            "    return v + dd.ravel().tolist()",
        ])
        return ex.define(source + "\n", "rhs", __name__, hessian=self.jet.hessian_tuple,
                         array=np.array)

    def field_jacobian(self, z) -> np.ndarray:
        """dX^q_H/dz at z on float64: the array form variational_rhs rounds as."""
        h = self.jet.hessian(z)
        n = self.n
        out = np.empty((2 * n, 2 * n))
        out[:n, :] = self._qinv * h[n:, :]
        out[n:, :] = -h[:n, :]
        return out


def _field_terms(n: int, qinv: float) -> list[tuple[float, int]]:
    """The entries of X^q_H as (scale, index into the gradient of H), for the
    generated forms of the field."""
    return [(qinv, n + i) for i in range(n)] + [(-1.0, i) for i in range(n)]


def deformed_field(hamiltonian: ex.Node, q: float, z: PhasePoint):
    """X^q_H(z) = (q^{-1} dH/dy, -dH/dx) as a TangentVector."""
    f = HamiltonianField(hamiltonian, q)
    v = f.field(z.as_array())
    return TangentVector.from_array(v)


def energy_derivative_defect(hamiltonian: ex.Node, q: float, z: PhasePoint) -> float:
    """Relative defect of the dissipation identity

        dH(X^q_H) = (q^{-1} - 1) sum_i (dH/dx_i)(dH/dy_i),

    which holds analytically for every q != 0; the result is the floating
    point residue normalized by the scale of the terms involved.
    """
    f = HamiltonianField(hamiltonian, q)
    za = z.as_array()
    g = np.array(f.jet.gradient(za))
    n = f.n
    lhs = float(g @ f.field_from_gradient(g))
    rhs = (1.0 / q - 1.0) * float(g[:n] @ g[n:])
    scale = (1.0 + 1.0 / abs(q)) * float(np.abs(g[:n]) @ np.abs(g[n:]))
    return abs(lhs - rhs) / max(1.0, scale)


# ---------------------------------------------------------------------------
# Steppers.  Both drive a generic autonomous right-hand side and invoke a
# callback at sample times; integration always runs in the covering space,
# torus reduction happens only when samples are stored.


def _stage(ks: str, args: Optional[list], terms: Optional[tuple]) -> list:
    """The lines that set the stage values ``ks`` (e.g. ``a_0, a_1``) from the
    rhs at the state (args None) or at the argument sources ``args``.
    Generic: one call, ``rhs(z)`` on the state list or ``rhs([...])``.
    Fused, given the rhs's terms: the arguments s_i, then each entry
    ``c * (e)`` on them (or on z_i), inline: the floats of the call's
    entries ``c * g[i]`` (expr.compile_scaled)."""
    indent = "            "
    if terms is None:
        return [f"{indent}{ks}, = rhs({'z' if args is None else '[' + ', '.join(args) + ']'})"]
    lines = [] if args is None else [f"{indent}s_{i} = {a}" for i, a in enumerate(args)]
    pattern = "z_{}" if args is None else "s_{}"
    return lines + [f"{indent}{k} = {c!r} * ({ex.to_text(e, ex.coordinate_names(pattern, e.n))})"
                    for k, (c, e) in zip(ks.split(", "), terms)]


@functools.lru_cache(maxsize=64)
def _rk4_loop(d: int, terms: Optional[tuple], watch: tuple) -> Callable:
    """RK4 loop ``(rhs, z, nsteps, h, stride, watch) -> z``, generated.

    Straight-line code for states of length d on unpacked components z_i:
    stage arguments ``z_i + half*k_i`` and ``z_i + h*k_i``, and the update
    ``z_i + sixth*(((a_i + 2.0*b_i) + 2.0*c_i) + e_i)``, the rounding of the
    array form on float64.  A step is finite when every ``z_i - z_i ==
    0.0``, which holds exactly for finite floats.  The generic loop makes a
    new state list z at each step, which its first stage ``rhs(z)`` gets.
    Given the rhs's terms the stages are fused (_stage), the loop never
    calls its rhs and makes z only where a sample is due; the last step is
    one, so z is the final state.

    The watch source (see _loop) runs on the watch's args, the last
    argument: setup once, body with t = k*h at every sample.  body must not
    assign the loop's names (its arguments, half, sixth, k, t, a_i, b_i,
    c_i, e_i, s_i, z_i).
    """
    zs = ", ".join(f"z_{i}" for i in range(d))
    fused = terms is not None

    def stage(k, scale, prev):
        args = [f"z_{i} + {scale} * {prev}_{i}" for i in range(d)] if prev else None
        return _stage(zs.replace("z_", k + "_"), args, terms)

    lines = [
        "def loop(rhs, z, nsteps, h, stride, watch):",
        *("    " + line for line in watch[0].splitlines()),
        "    half = 0.5 * h",
        "    sixth = h / 6.0",
        f"    {zs}, = z",
        "    for k in range(1, nsteps + 1):",
        "        try:",
        *stage("a", "", ""),
        *stage("b", "half", "a"),
        *stage("c", "half", "b"),
        *stage("e", "h", "c"),
        "        except non_finite as err:",
        '            raise IntegrationError("solution blew up", k * h) from err',
        *(f"        z_{i} = z_{i} + sixth * (((a_{i} + 2.0 * b_{i}) + 2.0 * c_{i}) + e_{i})"
          for i in range(d)),
        f"        if not ({' and '.join(f'z_{i} - z_{i} == 0.0' for i in range(d))}):",
        '            raise IntegrationError("solution blew up", k * h)',
        *([] if fused else [f"        z = [{zs}]"]),
        "        if k % stride == 0 or k == nsteps:",
        *([f"            z = [{zs}]"] if fused else []),
        "            t = k * h",
        *("            " + line for line in watch[1].splitlines()),
        "    return z",
    ]
    return ex.define("\n".join(lines) + "\n", "loop", __name__, non_finite=_NON_FINITE,
                     IntegrationError=IntegrationError)


# The watch source of an observe that a loop calls at every sample.
_CALL_WATCH = ("observe, = watch", "observe(t, z)")


def _loop(generator: Callable, rhs: Callable, d: int, observe: Callable) -> tuple:
    """(loop, args): the loop of ``generator`` (_rk4_loop or _rkf45_loop)
    for ``rhs`` on states of length d, and the args of its watch.  Each
    generator keeps its 64 last loops, keyed by d, the terms (scales and
    trees, compared by value) and the watch source, so equal fields and
    systems share a loop across paths and runs.

    An rhs whose attribute ``terms`` holds (scale, expression) pairs
    computes ``[c * e(z) for c, e in terms]`` (expr.compile_scaled) and gets
    the loop that inlines them; any other rhs is called at every stage.  A
    watch is (source, args), source = (setup, body), lines of Python: setup
    binds names from the tuple ``watch`` (args) once; body reads them, t, z
    and z_0, z_1, ..., and may raise to end the path.  Given terms, an
    observe whose attribute ``watch`` holds one runs it inline, so the path
    calls observe itself at t = 0 only and state kept between samples lives
    in args.  Otherwise the watch is _CALL_WATCH on (observe,).  A wrapper
    made with functools.wraps copies both attributes, so a caller that must
    see every call hands the path a plain closure, as bench/tracer.py's
    counting rhs is."""
    terms = getattr(rhs, "terms", None)
    watch = None if terms is None else getattr(observe, "watch", None)
    source, args = (_CALL_WATCH, (observe,)) if watch is None else watch
    return generator(d, terms, source), args


def rk4_path(rhs, z0, t_final, step, stride, observe):
    """Classical RK4 with a fixed step of about ``step`` over [0, t_final].

    The state is a list of Python floats.  The steps run in a generated
    straight-line loop (_rk4_loop) and round exactly as the array form on
    float64 does.  A stage that raises OverflowError, ZeroDivisionError or
    ValueError (where float64 gives inf or nan), or a non-finite step,
    raises IntegrationError.  _loop picks the loop from the attributes of
    rhs and observe.
    """
    z = [float(v) for v in z0]
    nsteps = max(1, int(round(t_final / step)))
    observe(0.0, z)
    loop, args = _loop(_rk4_loop, rhs, len(z), observe)
    return loop(rhs, z, nsteps, t_final / nsteps, stride, args)


# Fehlberg 4(5) tableau.
_RKF_A = [
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
]
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)

# Accepted RKF45 steps a path may take: over 100 times the most that one
# path of the golden scenarios (1,643) or of the 40 bench seeds took.  A
# step size that stalls above the underflow bound ends here.
_RKF45_BUDGET = 200_000


def _numpy_sum_source(terms: list[str]) -> str:
    """Source that sums ``terms`` in the pairwise order of ``np.add.reduce``.

    Below 8 terms that is left to right.  Up to 128 terms it is eight
    interleaved partial sums, combined as a tree, plus a left-to-right
    tail.  Longer vectors are split in two at a multiple of 8.
    """
    n = len(terms)
    if n < 8:
        total = "0.0"
        for term in terms:
            total = f"({total} + {term})"
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return f"({_numpy_sum_source(terms[:half])} + {_numpy_sum_source(terms[half:])})"
    top = n - n % 8
    r = list(terms[:8])
    for i in range(8, top):
        r[i % 8] = f"({r[i % 8]} + {terms[i]})"
    total = f"((({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))"
    for term in terms[top:]:
        total = f"({total} + {term})"
    return total


@functools.lru_cache(maxsize=64)
def _rkf45_loop(d: int, terms: Optional[tuple], watch: tuple) -> Callable:
    """RKF45 loop ``(rhs, z, t_final, h, rel_tol, abs_tol, stride, watch) -> z``, generated.

    Straight-line code for states of length d on unpacked components z_i.
    Each component is computed in the order of the array form of the scheme,

        y = z + h * sum(c * k for c, k in zip(row, ks))
        err = sqrt(mean(((z5 - z4) / (abs_tol + rel_tol * max(|z|, |z5|)))**2)),

    so on Python floats it rounds exactly as float64 arrays do: stage sums
    run left to right from ``0.0 + c0*k0`` (zero coefficients included) and
    the mean squares are summed in numpy's order; ``min`` and ``max`` are
    comparisons that pick the same operand, nan included.  |z_i| is a_i,
    the |y_i| of the step that made z (z_i is y_i there), and |t| is t (t
    starts at +0.0 and only adds positive steps): same bits, fewer calls.  A stage
    whose rhs raises OverflowError, ZeroDivisionError or ValueError is set
    to nan, as inf or nan would spread through the array form.  The first
    stage of an attempt gets the state list itself, which a rejected attempt
    reuses; an accepted step makes a new list.  Past _RKF45_BUDGET accepted
    steps the path raises IntegrationError.  Given the rhs's terms the
    stages are fused (_stage) and the loop never calls its rhs.

    The watch source (see _loop) runs on the watch's args, the last
    argument: setup once, body at every sample.  body must not assign the
    loop's names (its arguments, t, r, accepted, err, f, a_i, b_i, e_i,
    k<j>_i, s_i, w_i, y_i, z_i).
    """
    comps = range(d)
    zs = ", ".join(f"z_{i}" for i in comps)

    def combination(row, i):
        total = "0.0"
        for j, c in enumerate(row):
            total = f"({total} + {c!r} * k{j}_{i})"
        return f"z_{i} + h * {total}"

    def stage(j, args):
        ks = zs.replace("z_", f"k{j}_")
        return [
            "        try:",
            *_stage(ks, args, terms),
            "        except non_finite:",
            f"            {ks.replace(', ', ' = ')} = nan",
        ]

    lines = [
        "def loop(rhs, z, t_final, h, rel_tol, abs_tol, stride, watch):",
        *("    " + line for line in watch[0].splitlines()),
        f"    {zs}, = z",
        *(f"    a_{i} = abs(z_{i})" for i in comps),
        "    t, accepted = 0.0, 0",
        "    while t < t_final:",
        "        r = t_final - t",
        "        h = r if r < h else h",
        "        if h < 1e-14 * (t if t > 1.0 else 1.0):",
        '            raise IntegrationError("step size underflow (stiff blow-up)", t)',
    ]
    lines += stage(0, None)
    for j, row in enumerate(_RKF_A[1:], start=1):
        lines += stage(j, [combination(row, i) for i in comps])
    for name, row in (("y", _RKF_B5), ("w", _RKF_B4)):
        lines += [f"        {name}_{i} = {combination(row, i)}" for i in comps]
    for i in comps:  # np.maximum(a, b) is a if a >= b else b
        lines += [f"        b_{i} = abs(y_{i})",
                  f"        e_{i} = (y_{i} - w_{i}) / (abs_tol + rel_tol * (a_{i} if a_{i} >= b_{i} else b_{i}))"]
    squares = _numpy_sum_source([f"e_{i} * e_{i}" for i in comps])
    lines += [
        f"        err = sqrt({squares} / {d})",
        # a non-finite y or w makes err nan or inf, so err <= 1 implies finite
        "        if err <= 1.0:",
        "            t += h",
        f"            {zs}, = z = [{zs.replace('z_', 'y_')}]",
        *(f"            a_{i} = b_{i}" for i in comps),
        "            accepted += 1",
        f"            if accepted > {_RKF45_BUDGET}:",
        '                raise IntegrationError("step budget exhausted", t)',
        "            if accepted % stride == 0 or t >= t_final:",
        *("                " + line for line in watch[1].splitlines()),
        f"        elif not ({' and '.join(f'isfinite({v}_{i})' for v in 'yw' for i in comps)}):",
        "            h *= 0.25",
        "            continue",
        "        f = 0.9 * (err ** -0.2) if err > 0 else 5.0",
        "        f = f if f > 0.2 else 0.2",
        "        h *= f if f < 5.0 else 5.0",
        "    return z",
    ]
    return ex.define("\n".join(lines) + "\n", "loop", __name__, nan=math.nan, sqrt=math.sqrt,
                     isfinite=math.isfinite, non_finite=_NON_FINITE,
                     IntegrationError=IntegrationError)


def rkf45_path(rhs, z0, t_final, rel_tol, abs_tol, stride, observe):
    """Adaptive Fehlberg 4(5) integration of zdot = rhs(z) over [0, t_final].

    The state is a list of Python floats: ``rhs`` maps it to a sequence of
    floats, and ``observe(t, z)`` receives it at t = 0, after every
    ``stride``-th accepted step and at the end.  The path equals that of
    the same scheme on float64 arrays bit for bit (see _rkf45_loop).

    Where float64 arithmetic gives inf or nan, Python floats may raise
    OverflowError, ZeroDivisionError or ValueError.  Such a stage counts as
    non-finite: the step is quartered and retried, so a blow-up still ends
    in IntegrationError once the step underflows; a path whose step stalls
    above that ends in IntegrationError past _RKF45_BUDGET accepted steps.
    _loop picks the loop from the attributes of rhs and observe.
    """
    z = [float(v) for v in z0]
    observe(0.0, z)
    loop, args = _loop(_rkf45_loop, rhs, len(z), observe)
    return loop(rhs, z, t_final, min(1e-2, t_final), rel_tol, abs_tol, stride, args)


def _make_observer(jet: ex.JetEvaluator):
    """``(ts, states, es, observe)``: observe(t, z) keeps t, the integrator's
    list z (new at each sample) and H(z), H = jet.expression written inline
    on Python floats; it carries that source as its ``watch`` (see _loop),
    on args = (ts.append, states.append, es.append, retry, the exceptions
    Python floats raise).  H reads the first 2n components, so a state may
    carry more (a Jacobian), and rounds as jet.value; where Python floats
    raise, jet.value is called on float64, which rounds the same but gives
    inf or nan (a math function of those still raises, as IntegrationError)."""
    ts, states, es = [], [], []

    def retry(t, z):
        try:
            return jet.value(np.asarray(z, dtype=float))
        except _NON_FINITE as err:
            raise IntegrationError("solution blew up", t) from err

    names = ex.coordinate_names("z_{}", jet.n)
    setup = "ts_append, states_append, es_append, retry, raising = watch"
    body = "\n".join([
        "try:",
        f"    energy = {ex.to_text(jet.expression, names)}",
        "except raising:",
        "    energy = retry(t, z)",
        "ts_append(t)",
        "states_append(z)",
        "es_append(energy)",
    ])
    lines = ["def make(watch):", "    def observe(t, z):", "        " + setup,
             f"        {', '.join(names)}, = z[:{len(names)}]"]
    lines += ["        " + line for line in body.splitlines()]
    lines.append("    return observe")
    args = (ts.append, states.append, es.append, retry, _NON_FINITE)
    observe = ex.define("\n".join(lines) + "\n", "make", __name__)(args)
    observe.watch = ((setup, body), args)
    return ts, states, es, observe


def _trajectory(spec: FlowSpec, ts: list, zs: np.ndarray, es: list) -> Trajectory:
    """The Trajectory of stored samples zs, whose torus x-columns are wrapped in place."""
    if spec.space == "torus":
        zs[:, : spec.n] = wrap_angles(zs[:, : spec.n])
    return Trajectory(np.array(ts), zs, np.array(es), spec.n, spec.space)


def _path(spec: FlowSpec, rhs, z0, observe) -> None:
    """Integrate zdot = rhs(z) from z0 with the spec's integrator.

    The observer's float64 fallback energies overflow to inf quietly: a
    blow-up is reported as IntegrationError, not as a RuntimeWarning on stderr.
    """
    with np.errstate(all="ignore"):
        if spec.integrator == "rk4":
            rk4_path(rhs, z0, spec.t_final, spec.step, spec.sample_stride, observe)
        else:
            rkf45_path(
                rhs, z0, spec.t_final, spec.rel_tol, spec.abs_tol, spec.sample_stride, observe
            )


def integrate(spec: FlowSpec, z0: PhasePoint) -> Trajectory:
    """Numerically solve zdot = X^q_H(z) from z0 and sample the result."""
    f = HamiltonianField(spec.hamiltonian, spec.q)
    ts, zs, es, observe = _make_observer(f.jet)
    _path(spec, f.compiled_field, z0.as_array(), observe)
    return _trajectory(spec, ts, np.array(zs), es)


def integrate_variational(spec: FlowSpec, z0: PhasePoint) -> VariationalFlow:
    """Co-integrate the flow with Ddot = (dX^q_H/dz) D, D(0) = I."""
    f = HamiltonianField(spec.hamiltonian, spec.q)
    n2 = 2 * spec.n
    # H reads the first 2n entries of the state
    ts, states, es, observe = _make_observer(f.jet)
    _path(spec, f.variational_rhs, np.concatenate([z0.as_array(), np.eye(n2).ravel()]), observe)
    states = np.array(states)
    trajectory = _trajectory(spec, ts, states[:, :n2], es)
    return VariationalFlow(trajectory, states[:, n2:].reshape(len(ts), n2, n2))


def pullback_defect(
    vf: VariationalFlow, mode: str = "symplectic", c: Optional[float] = None
) -> list[tuple[float, float]]:
    """Per-sample defect of the pullback of omega along the flow.

    symplectic:  || D^T O D - O ||_max
    conformal:   || D^T O D - e^{ct} O ||_max  (c required)
    """
    if mode not in ("symplectic", "conformal"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "conformal" and c is None:
        raise ValueError("conformal mode requires the rate c")
    n = vf.trajectory.n
    om = omega_matrix(n)
    out = []
    for t, d in zip(vf.trajectory.ts, vf.jacobians):
        target = om if mode == "symplectic" else math.exp(c * t) * om
        defect = float(np.max(np.abs(d.T @ om @ d - target)))
        out.append((float(t), defect))
    return out


def _regime_rates(spec: FlowSpec):
    """``z -> (sum_i H_{x_i} H_{y_i}, dH/dt)`` on Python floats, generated once
    per (H, q) with the gradient entries inline, as jet.gradient rounds them."""
    n = spec.n
    names = ex.coordinate_names("z_{}", n)
    partials = ex.JetEvaluator(spec.hamiltonian).derivatives
    g = [f"g{i}" for i in range(2 * n)]
    velocity = [f"({c!r} * g{i})" for c, i in _field_terms(n, 1.0 / spec.q)]
    coupling = " + ".join(["0.0", *map("{} * {}".format, g[:n], g[n:])])
    dhdt = " + ".join(["0.0", *map("{} * {}".format, g, velocity)])
    source = "\n".join([
        "def rates(z):",
        f"    {', '.join(names)}, = z",
        f"    {', '.join(g)}, = {', '.join(ex.to_text(e, names) for e in partials)},",
        f"    return {coupling}, {dhdt}",
    ])
    return ex.define(source + "\n", "rates", __name__)


def regime_violations(spec: FlowSpec, trajectory: Trajectory, tol: float) -> int:
    """Sample-wise regime check of a trajectory of ``spec``: where
    sum H_x H_y > tol the sign of dH/dt must equal sign(1/q - 1); at q = 1
    the energy must be conserved.  Only signs are read, so the sums may round
    unlike np.dot's; a q != 1 flow with no coupled sample counts as one violation."""
    q = spec.q
    if q == 1:
        drift = float(np.max(np.abs(trajectory.energies - trajectory.energies[0])))
        return 0 if drift <= tol else 1
    rates = _regime_rates(spec)
    expected = 1.0 if (1.0 / q - 1.0) > 0 else -1.0
    violations = coupled = 0
    for z in trajectory.zs.tolist():
        try:
            coupling, dhdt = rates(z)
        except _NON_FINITE:  # Python floats raise where float64 gives inf or nan
            with np.errstate(all="ignore"):
                coupling, dhdt = rates(np.asarray(z))
        if coupling <= tol:
            continue
        coupled += 1
        if math.copysign(1.0, dhdt) != expected:
            violations += 1
    return violations if coupled else 1


def trajectory_csv(trajectory: Trajectory) -> str:
    """`t,x1..xn,y1..yn,H` rows with 17 significant digits."""
    n = trajectory.n
    header = (
        "t,"
        + ",".join(f"x{i}" for i in range(1, n + 1))
        + ","
        + ",".join(f"y{i}" for i in range(1, n + 1))
        + ",H"
    )
    lines = [header]
    for t, z, h in zip(trajectory.ts, trajectory.zs, trajectory.energies):
        lines.append(",".join(f"{v:.17g}" for v in (t, *z, h)))
    return "\n".join(lines) + "\n"
