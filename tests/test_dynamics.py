"""Deformed Hamiltonian flows and variational equations.

Oracles: closed-form solutions of the linear conformal model H = x1*y1
(exponential coordinates and Jacobian), exact energy conservation of the
harmonic oscillator at q = 1, and Runge-Kutta order measured by step halving.
"""

import functools
import gc
import math
import sys
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from defham import dynamics, morse
from defham import expr as ex
from defham.cli import _run_sweep
from defham.dynamics import (
    FlowSpec,
    HamiltonianField,
    IntegrationError,
    deformed_field,
    energy_derivative_defect,
    integrate,
    integrate_variational,
    pullback_defect,
    rkf45_path,
    trajectory_csv,
)
from defham.morse import MorseOptions, _System, build_hamiltonian
from defham.phase import PhasePoint, wrap_angles

from conftest import evaluate_jet, random_polynomial_expr, random_point
from test_expr import N_RANDOM, RANDOM_TREES
from test_morse import SYSTEMS, circle_spec

OSC = "(x1^2 + y1^2)/2"


class TestField:
    def test_hand_case(self):
        # [DERIVED] H = (x1^2+y1^2)/2, q = 1/2, z = (1,2):
        # X = (q^{-1} H_y, -H_x) = (4, -1).
        h = ex.parse(OSC, 1)
        v = deformed_field(h, 0.5, PhasePoint((1.0,), (2.0,)))
        assert v.a == pytest.approx((4.0,), abs=1e-15)
        assert v.b == pytest.approx((-1.0,), abs=1e-15)

    def test_q_one_is_canonical(self, rng):
        # [DERIVED] at q = 1 the field is the standard (H_y, -H_x).
        h = random_polynomial_expr(rng, 2)
        z = PhasePoint.from_array(random_point(rng, 2))
        jet = evaluate_jet(h, z.as_array())
        v = deformed_field(h, 1.0, z)
        assert v.as_array() == pytest.approx(
            np.concatenate([jet.gradient[2:], -jet.gradient[:2]]), abs=1e-13
        )

    def test_vanishes_at_critical_point(self):
        h = ex.parse(OSC, 1)
        v = deformed_field(h, 0.3, PhasePoint((0.0,), (0.0,)))
        assert v.as_array() == pytest.approx(np.zeros(2), abs=0)

    def test_rejects_q_zero(self):
        with pytest.raises(ValueError):
            deformed_field(ex.parse(OSC, 1), 0.0, PhasePoint((1.0,), (0.0,)))

    @pytest.mark.parametrize("text", ["x1^2/2 + y1^2/2 + y2", "x1 + 2*y1 + y2"])
    def test_field_list_bit_identical_to_array_form(self, text):
        # x2 is absent, so its derivative compiles to the integer (0): the
        # field keeps the -0.0 that float64 arithmetic gives, float or not
        f = HamiltonianField(ex.parse(text, 2), 0.5)
        z = [1.0, -0.0, 0.5, -0.0]
        g = np.array(f.jet.gradient(z), dtype=float)
        want = np.concatenate([2.0 * g[2:], -g[:2]])
        got = f.field_from_gradient(f.jet.gradient(z))
        assert np.array(got, dtype=float).tobytes() == want.tobytes()


_N = 2
# polynomial terms (coefficient, factors); variables no term uses have the
# integer derivative (0)
_TERMS = st.lists(
    st.tuples(
        st.fractions(-4, 4, max_denominator=3),
        st.lists(st.tuples(st.sampled_from("xy"), st.integers(1, _N)), max_size=3),
    ),
    max_size=5,
)
_POINTS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
    min_size=2 * _N,
    max_size=2 * _N,
)


def _polynomial(terms):
    e = ex.const(0, _N)
    for coeff, factors in terms:
        term = ex.const(coeff, _N)
        for kind, index in factors:
            term = ex.mul(term, ex.var(kind, index, _N))
        e = ex.add(e, term)
    return e


class TestCompiledField:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_TERMS, _POINTS, st.sampled_from([-2.0, 1 / 3, 0.5, 1.0, 3.0]))
    @example([(Fraction(3, 2), [("x", 1)])], [-0.0, 0.0, -0.0, 0.0], -2.0)
    def test_byte_identical_to_field_from_gradient(self, terms, z, q):
        field = HamiltonianField(_polynomial(terms), q)
        want = field.field_from_gradient(field.jet.gradient(z))
        got = field.compiled_field(z)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_reports_the_dynamics_module(self):
        # a tracer charges a callback to the layer named by its __module__
        field = HamiltonianField(ex.parse(OSC, 1), 0.5)
        assert field.compiled_field.__module__ == "defham.dynamics"
        assert dynamics._rk4_loop(2, None, dynamics._CALL_WATCH).__module__ == "defham.dynamics"


class TestDissipationIdentity:
    def test_hand_case(self):
        # [DERIVED] H = x1 y1, q = 1/3, z = (1,1):
        # dH(X^q_H) = (q^{-1}-1) H_x H_y = 2.
        h = ex.parse("x1*y1", 1)
        f = HamiltonianField(h, 1.0 / 3.0)
        z = np.array([1.0, 1.0])
        assert float(np.array(f.jet.gradient(z)) @ f.field(z)) == pytest.approx(2.0, abs=1e-13)
        assert energy_derivative_defect(h, 1.0 / 3.0, PhasePoint((1.0,), (1.0,))) < 1e-14

    def test_random_sweep(self, rng):
        # [DERIVED] the identity holds for every (H, q, z) to rounding error.
        for _ in range(100):
            h = random_polynomial_expr(rng, 2)
            z = PhasePoint.from_array(random_point(rng, 2, scale=2.0))
            for q in (-2.0, -1.0, 0.5, 1.0, 1.5):
                assert energy_derivative_defect(h, q, z) < 1e-12


class TestIntegrate:
    def test_oscillator_energy_conserved_at_q_one(self):
        # [DERIVED] circular orbit: |z(t)|^2 = 5 for all t from z0 = (1, 2).
        spec = FlowSpec(ex.parse(OSC, 1), 1, 1.0, step=1e-3, t_final=10.0, sample_stride=100)
        traj = integrate(spec, PhasePoint((1.0,), (2.0,)))
        radii = np.sum(traj.zs**2, axis=1)
        assert np.max(np.abs(radii - 5.0)) < 1e-8
        assert np.max(np.abs(traj.energies - 2.5)) < 1e-8

    @pytest.mark.parametrize(
        "q,direction", [(2.0, -1.0), (1.0, 0.0), (0.5, 1.0)]
    )
    def test_regime_trichotomy_on_conformal_model(self, q, direction):
        # [DERIVED] H = x1 y1 from (1,1): H(t) = e^{(1/q - 1) t}, so H is
        # decreasing for q > 1, constant at q = 1, increasing for q < 1.
        spec = FlowSpec(
            ex.parse("x1*y1", 1), 1, q, integrator="rkf45",
            rel_tol=1e-11, abs_tol=1e-13, t_final=1.0, sample_stride=10,
        )
        traj = integrate(spec, PhasePoint((1.0,), (1.0,)))
        want = math.exp((1.0 / q - 1.0) * 1.0)
        assert traj.energies[-1] == pytest.approx(want, rel=1e-8)
        delta = traj.energies[-1] - traj.energies[0]
        if direction == 0.0:
            assert abs(delta) < 1e-9
        else:
            assert math.copysign(1.0, delta) == direction

    def test_rk4_is_fourth_order(self):
        # [DERIVED] halving the step cuts the error by ~2^4; the measured
        # ratio lands in [12, 20] on the oscillator over one period-ish span.
        z0 = PhasePoint((1.0,), (0.0,))
        h = ex.parse(OSC, 1)

        def final_error(step):
            spec = FlowSpec(h, 1, 1.0, step=step, t_final=2.0, sample_stride=10**9)
            traj = integrate(spec, z0)
            exact = np.array([math.cos(2.0), -math.sin(2.0)])
            return float(np.max(np.abs(traj.zs[-1] - exact)))

        ratio = final_error(2e-2) / final_error(1e-2)
        assert 12.0 <= ratio <= 20.0

    def test_samples_well_formed(self):
        spec = FlowSpec(ex.parse(OSC, 1), 1, 0.5, step=1e-2, t_final=0.5, sample_stride=5)
        traj = integrate(spec, PhasePoint((1.0,), (2.0,)))
        assert traj.ts[0] == 0.0
        assert traj.zs[0] == pytest.approx([1.0, 2.0], abs=0)
        assert np.all(np.diff(traj.ts) > 0)
        assert traj.ts[-1] == pytest.approx(0.5, abs=1e-12)

    def test_blow_up_raises(self):
        # [DERIVED] H = x1^2 y1^2 escapes in finite time (~0.5) from (1,1).
        spec = FlowSpec(
            ex.parse("x1^2*y1^2", 1), 1, 0.5, integrator="rkf45", t_final=2.0
        )
        with pytest.raises(IntegrationError):
            integrate(spec, PhasePoint((1.0,), (1.0,)))

    def test_spec_validation(self):
        h = ex.parse(OSC, 1)
        with pytest.raises(ValueError):
            FlowSpec(h, 1, 0.0)
        with pytest.raises(ValueError):
            FlowSpec(h, 1, 1.0, integrator="euler")
        with pytest.raises(ValueError):
            FlowSpec(h, 1, 1.0, t_final=-1.0)
        with pytest.raises(ValueError):
            FlowSpec(h, 1, 1.0, sample_stride=0)
        with pytest.raises(ValueError):
            FlowSpec(h, 2, 1.0)  # dimension mismatch
        for name in ("q", "step", "rel_tol", "abs_tol", "t_final"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    FlowSpec(h, 1, **{"q": 1.0, name: value})


class TestVariational:
    def test_identity_at_t_zero(self):
        spec = FlowSpec(ex.parse(OSC, 1), 1, 1.0, step=1e-2, t_final=0.1)
        vf = integrate_variational(spec, PhasePoint((1.0,), (0.5,)))
        assert vf.jacobians[0] == pytest.approx(np.eye(2), abs=0)

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_conformal_jacobian_closed_form(self, q):
        # [DERIVED] H = x1 y1 is linear, so Dphi_t = diag(e^{t/q}, e^{-t}).
        spec = FlowSpec(
            ex.parse("x1*y1", 1), 1, q, integrator="rkf45",
            rel_tol=1e-11, abs_tol=1e-13, t_final=1.0, sample_stride=10,
        )
        vf = integrate_variational(spec, PhasePoint((0.3,), (0.7,)))
        want = np.diag([math.exp(1.0 / q), math.exp(-1.0)])
        assert vf.jacobians[-1] == pytest.approx(want, abs=1e-6)

    def test_symplectic_at_q_one(self):
        # [DERIVED] pendulum flow at q = 1 preserves omega to solver accuracy.
        spec = FlowSpec(
            ex.parse("y1^2/2 + (1 - cos(x1))", 1), 1, 1.0, integrator="rkf45",
            rel_tol=1e-11, abs_tol=1e-13, t_final=5.0, sample_stride=50,
        )
        vf = integrate_variational(spec, PhasePoint((1.0,), (0.5,)))
        defects = pullback_defect(vf, mode="symplectic")
        assert max(d for _, d in defects) < 1e-6

    def test_liouville_at_q_one(self):
        spec = FlowSpec(
            ex.parse("y1^2/2 + (1 - cos(x1))", 1), 1, 1.0, integrator="rkf45",
            rel_tol=1e-11, abs_tol=1e-13, t_final=5.0, sample_stride=50,
        )
        vf = integrate_variational(spec, PhasePoint((1.0,), (0.5,)))
        dets = [np.linalg.det(d) for d in vf.jacobians]
        assert np.max(np.abs(np.array(dets) - 1.0)) < 1e-6
        assert all(d > 0 for d in dets)

    def test_conformal_pullback(self):
        # [DERIVED] H = x1 y1, q = 1/2: phi_t^* omega = e^t omega (c = 1).
        spec = FlowSpec(
            ex.parse("x1*y1", 1), 1, 0.5, integrator="rkf45",
            rel_tol=1e-11, abs_tol=1e-13, t_final=1.0, sample_stride=10,
        )
        vf = integrate_variational(spec, PhasePoint((1.0,), (1.0,)))
        defects = pullback_defect(vf, mode="conformal", c=1.0)
        assert max(d for _, d in defects) < 1e-6

    def test_nonsimple_defect_is_genuine(self):
        # [DERIVED] H = x1^2 y1^2 at q = 1/2 is neither symplectic nor
        # conformal: the defect reaches ~3 by t = 1 and is step-independent.
        def run(rel):
            spec = FlowSpec(
                ex.parse("x1^2*y1^2", 1), 1, 0.5, integrator="rkf45",
                rel_tol=rel, abs_tol=rel * 1e-2, t_final=1.0, sample_stride=100,
            )
            vf = integrate_variational(spec, PhasePoint((0.5,), (0.5,)))
            return pullback_defect(vf, mode="symplectic")[-1][1]

        d1 = run(1e-9)
        d2 = run(1e-11)
        assert d1 > 1e-2 and d2 > 1e-2
        assert d1 == pytest.approx(d2, rel=1e-6)

    def test_pullback_mode_validation(self):
        spec = FlowSpec(ex.parse(OSC, 1), 1, 1.0, step=1e-2, t_final=0.1)
        vf = integrate_variational(spec, PhasePoint((1.0,), (0.0,)))
        with pytest.raises(ValueError):
            pullback_defect(vf, mode="volume")
        with pytest.raises(ValueError):
            pullback_defect(vf, mode="conformal")  # missing c


# Fehlberg 4(5) on float64 arrays: stage sums over generators and an
# np.mean error norm.  The kernel must reproduce its paths bit for bit.
_A = [
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
]
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def _reference_rkf45(rhs, z0, t_final, rel_tol, abs_tol):
    z = np.asarray(z0, dtype=float)
    t, h = 0.0, min(1e-2, t_final)
    path = [(t, z)]
    while t < t_final:
        h = min(h, t_final - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow (stiff blow-up)", t)
        ks = []
        for row in _A:
            zi = z + h * sum(c * k for c, k in zip(row, ks)) if row else z
            ks.append(rhs(zi))
        z5 = z + h * sum(b * k for b, k in zip(_B5, ks))
        z4 = z + h * sum(b * k for b, k in zip(_B4, ks))
        if not (np.all(np.isfinite(z5)) and np.all(np.isfinite(z4))):
            h *= 0.25
            continue
        scale = abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(z5))
        err = float(np.sqrt(np.mean(((z5 - z4) / scale) ** 2)))
        if err <= 1.0:
            t += h
            z = z5
            path.append((t, z))
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return path


class TestRKF45Kernel:
    def test_circle_shooting_path_is_bit_identical(self):
        # [DERIVED] the negative G_q-gradient flow of the circle fixture's
        # H_q (d = 4), from the unstable sphere of the index-2 point
        spec = circle_spec(q=0.25)
        system = _System(spec, MorseOptions())
        jet = ex.JetEvaluator(build_hamiltonian(spec))
        scales = np.array([1.0, 1.0, 4.0, 4.0])
        z0 = [0.03, 1.02, -0.5, 0.04]
        expected = _reference_rkf45(lambda z: -scales * jet.gradient(z), z0, 1.0, 1e-12, 1e-14)
        got = []
        rkf45_path(system.rhs, z0, 1.0, 1e-12, 1e-14, 1, lambda t, z: got.append((t, z)))
        assert len(got) == len(expected) > 100
        for (t, z), (t_ref, z_ref) in zip(got, expected):
            assert t == t_ref
            assert np.array(z).tobytes() == z_ref.tobytes()

    def test_integrate_path_is_bit_identical(self):
        h = ex.parse("y1^2/2 + y2^2/2 + (1 - cos(x1)) + x1*x2^2/4 - x2*y1/3", 2)
        spec = FlowSpec(
            h, 2, 0.5, integrator="rkf45", rel_tol=1e-10, abs_tol=1e-12, t_final=2.0
        )
        traj = integrate(spec, PhasePoint((0.7, -0.4), (0.3, 0.9)))
        field = HamiltonianField(h, 0.5)
        expected = _reference_rkf45(field.field, [0.7, -0.4, 0.3, 0.9], 2.0, 1e-10, 1e-12)
        assert len(traj.ts) == len(expected) > 50
        for t, z, (t_ref, z_ref) in zip(traj.ts, traj.zs, expected):
            assert t == t_ref
            assert z.tobytes() == z_ref.tobytes()

    def test_variational_path_is_bit_identical(self):
        # [DERIVED] n = 2 co-integrated Jacobian: a 20-component state, so
        # the error norm takes numpy's 8-way pairwise summation
        h = ex.parse("y1^2/2 + y2^2/2 + (1 - cos(x1)) + x1*x2^2/4 - x2*y1/3", 2)
        spec = FlowSpec(
            h, 2, 0.5, integrator="rkf45", rel_tol=1e-10, abs_tol=1e-12, t_final=2.0
        )
        z0 = PhasePoint((0.7, -0.4), (0.3, 0.9))
        vf = integrate_variational(spec, z0)
        field = HamiltonianField(h, 0.5)

        def rhs(state):
            d = state[4:].reshape(4, 4)
            dd = field.field_jacobian(state[:4]) @ d
            return np.concatenate([field.field(state[:4]), dd.ravel()])

        state0 = np.concatenate([z0.as_array(), np.eye(4).ravel()])
        expected = _reference_rkf45(rhs, state0, 2.0, 1e-10, 1e-12)
        assert len(vf.trajectory.ts) == len(expected) > 50
        for t, z, d, (t_ref, s_ref) in zip(
            vf.trajectory.ts, vf.trajectory.zs, vf.jacobians, expected
        ):
            assert t == t_ref
            assert np.concatenate([z, d.ravel()]).tobytes() == s_ref.tobytes()

    @pytest.mark.parametrize(
        "text, z0, error",
        [
            ("x1^2*y1^2", [1e200, 1e200], OverflowError),
            ("y1/x1", [0.0, 1.0], ZeroDivisionError),
            # x1*x1*x1 overflows to inf and sin(inf) is a math domain error
            ("y1*sin(x1*x1*x1)", [1e200, 1.0], ValueError),
        ],
    )
    def test_raising_stage_ends_in_underflow(self, text, z0, error):
        # [DERIVED] on Python floats the compiled gradient raises where
        # float64 gives inf or nan; the kernel quarters the step as for a
        # non-finite stage until the step underflows
        field = HamiltonianField(ex.parse(text, 1), 0.5)
        raised = []

        def rhs(z):
            try:
                return field.field_from_gradient(field.jet.gradient(z))
            except (ArithmeticError, ValueError) as exc:
                raised.append(type(exc))
                raise

        with pytest.raises(IntegrationError, match="step size underflow"):
            rkf45_path(rhs, z0, 1.0, 1e-9, 1e-11, 1, lambda t, z: None)
        assert raised and set(raised) == {error}


class TestRKF45Attempts:
    def test_rejections_counted_by_first_stage_identity(self):
        # [DERIVED] the circle shooting flow at q = 1/4 at loose tolerances:
        # 22 accepted steps and 10 rejected ones to t = 1.  Each attempt's
        # first stage gets the state list itself, and a rejected attempt
        # retries from that same list, so a tracer can count rejections by it.
        system = _System(circle_spec(q=0.25), MorseOptions())
        z0 = [0.03, 1.02, -0.5, 0.04]
        calls = repeats = 0
        first = None

        def rhs(z):
            nonlocal calls, repeats, first
            if calls % 6 == 0:
                if z is first:
                    repeats += 1
                first = z
            calls += 1
            return system.rhs(z)

        ref_calls = 0

        def ref_rhs(z):
            nonlocal ref_calls
            ref_calls += 1
            return np.array(system.rhs(z.tolist()))

        accepted = len(_reference_rkf45(ref_rhs, z0, 1.0, 1e-6, 1e-8)) - 1
        path = []
        rkf45_path(rhs, z0, 1.0, 1e-6, 1e-8, 1, lambda t, z: path.append(t))
        assert len(path) - 1 == accepted
        assert calls == ref_calls
        assert repeats == ref_calls // 6 - accepted == 10


def _observed(path, rhs, z0, *args):
    """The (t, state bytes) samples a path observes, its IntegrationError as
    (message, t, type of its cause) or None, and the bytes of the state it
    returns (None after an error)."""
    seen = []
    try:
        z = path(rhs, list(z0), *args, lambda t, z: seen.append((t, np.array(z).tobytes())))
    except IntegrationError as err:
        return seen, (str(err), err.t, type(err.__cause__)), None
    return seen, None, np.array(z).tobytes()


def _fused_and_generic(path, rhs, z0, *args):
    """The observed paths of the fused loop of a compiled rhs and of the
    generic loop, which a plain closure around it takes."""
    assert rhs.terms
    return _observed(path, rhs, z0, *args), _observed(path, lambda z: rhs(z), z0, *args)


class TestFusedLoop:
    """A compiled rhs (expr.compile_scaled: the compiled field, _System.rhs)
    runs in a loop that inlines its terms; the loop must round as the generic
    loop that calls it.  Both run a watch at every sample: the observe's
    own, or one that calls the observe."""

    @pytest.mark.parametrize("name,make,q", SYSTEMS, ids=[s[0] for s in SYSTEMS])
    def test_morse_paths_match_the_generic_loop(self, name, make, q):
        # the circle at q = 1 and 1/4 (d = 4) and the torus (d = 2, trig terms)
        system = _System(make(q), MorseOptions())
        starts = [[0.03, 1.02, -0.5, 0.04], [-0.02, 0.99, 0.51, -0.03]]
        if system.dim == 2:
            starts = [[0.02, 0.03], [3.1, 0.05]]
        for z0 in starts:
            fused, generic = _fused_and_generic(rkf45_path, system.rhs, z0, 30.0, 1e-10, 1e-12, 1)
            assert len(fused[0]) > 50
            assert fused == generic

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    @pytest.mark.parametrize(
        "text, n, q, z0",
        [
            (OSC, 1, 2.0 / 3.0, [1.0, 2.0]),
            ("y1^2/2 + (1 - cos(x1)) + x1^3/5", 1, 1 / 3, [0.9, -0.4]),
            ("y1^2/2 + y2^2/2 + (1 - cos(x1)) + x1*x2^2/4 - x2*y1/3", 2, 0.5, [0.7, -0.4, 0.3, 0.9]),
        ],
    )
    def test_flow_paths_match_the_generic_loop(self, integrator, text, n, q, z0):
        rhs = HamiltonianField(ex.parse(text, n), q).compiled_field
        if integrator == "rk4":
            fused, generic = _fused_and_generic(dynamics.rk4_path, rhs, z0, 2.0, 1e-3, 1)
        else:
            fused, generic = _fused_and_generic(rkf45_path, rhs, z0, 2.0, 1e-10, 1e-12, 1)
        assert len(fused[0]) > 50 and fused[1] is None
        assert fused == generic

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    def test_strided_paths_match_the_generic_loop(self, integrator):
        # a stride of 7 does not divide RK4's 100 steps: the last step is
        # sampled too, and its state is the one the path returns; the sample
        # watch runs inline in the fused loop and is called by the generic one
        h = ex.parse("y1^2/2 + (1 - cos(x1)) + x1^3/5", 1)
        rhs = HamiltonianField(h, 1 / 3).compiled_field
        path, args = (dynamics.rk4_path, (1.0, 1e-2, 7)) if integrator == "rk4" else (
            rkf45_path, (2.0, 1e-10, 1e-12, 7))
        fused, generic = _fused_and_generic(path, rhs, [0.9, -0.4], *args)
        assert fused == generic and fused[1] is None
        assert fused[2] == fused[0][-1][1]
        if integrator == "rk4":
            assert [t for t, _ in fused[0]] == [0.0, *(k * 1e-2 for k in range(7, 100, 7)), 1.0]
        else:
            assert len(fused[0]) > 10
        samples = []
        for f in (rhs, lambda z: rhs(z)):
            ts, states, es, observe = dynamics._make_observer(ex.JetEvaluator(h))
            assert observe.watch
            z = path(f, [0.9, -0.4], *args, observe)
            samples.append((ts, np.array(states).tobytes(), es, np.array(z).tobytes()))
        assert samples[0] == samples[1]
        assert len(samples[0][0]) == len(fused[0]) and samples[0][3] == fused[2]

    @pytest.mark.parametrize(
        "text, n, z0, args, t",
        [
            # x1' = x1^2 as a product, which overflows to inf without raising
            ("y1*x1*x1", 1, [1.0, 0.0], (2.0, 1e-3, 1), 1.003),
            # x1 = 1e76 e^t stays finite; x2' = x1^4 - x1^4 turns nan
            # once x1^4 overflows
            ("x1*y1 + y2*(x1*x1*x1*x1 - x1*x1*x1*x1)", 2, [1e76, 0.0, 0.0, 0.0], (4.0, 1e-2, 1),
             2.45),
        ],
        ids=["inf", "nan"],
    )
    def test_non_finite_state_ends_both_rk4_loops_at_the_same_step(self, text, n, z0, args, t):
        rhs = HamiltonianField(ex.parse(text, n), 1.0).compiled_field
        fused, generic = _fused_and_generic(dynamics.rk4_path, rhs, z0, *args)
        assert fused == generic
        assert fused[1] == (f"solution blew up at t={t:.6g}", pytest.approx(t), type(None))
        assert np.isfinite(np.frombuffer(fused[0][-1][1])).all()

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    def test_integer_constant_derivative_keeps_its_sign(self, integrator):
        # dH/dx1 = 0 compiles to -1.0 * (0.0), which is -0.0; RK4's update adds
        # it to y1 = -0.0, so y1 stays -0.0 (RKF45's stage sums start at 0.0)
        rhs = HamiltonianField(ex.parse("y1^2/2 + 3*y1", 1), 0.5).compiled_field
        z0 = [0.25, -0.0]
        if integrator == "rk4":
            fused, generic = _fused_and_generic(dynamics.rk4_path, rhs, z0, 1.0, 1e-2, 1)
            assert {math.copysign(1.0, np.frombuffer(z)[1]) for _, z in fused[0]} == {-1.0}
        else:
            fused, generic = _fused_and_generic(rkf45_path, rhs, z0, 1.0, 1e-10, 1e-12, 1)
        assert fused == generic

    @pytest.mark.parametrize(
        "integrator, text, z0, args, error",
        [
            ("rk4", "y1*x1^2", [1.0, 0.0], (2.0, 1e-3, 1), OverflowError),
            ("rk4", "y1 + exp(x1)*10^-300", [709.0, 0.0], (2.0, 1e-3, 1), OverflowError),
            ("rk4", "-y1 + 1/x1", [1.0, 0.0], (2.0, 0.125, 1), ZeroDivisionError),
            ("rk4", "y1*x1*x1 + sin(x1*x1*x1)", [1.0, 0.0], (2.0, 1e-3, 1), ValueError),
            ("rkf45", "x1^2*y1^2", [1e200, 1e200], (1.0, 1e-9, 1e-11, 1), OverflowError),
            ("rkf45", "y1/x1", [0.0, 1.0], (1.0, 1e-9, 1e-11, 1), ZeroDivisionError),
            ("rkf45", "y1*sin(x1*x1*x1)", [1e200, 1.0], (1.0, 1e-9, 1e-11, 1), ValueError),
        ],
    )
    def test_raising_stage_gives_the_same_error(self, integrator, text, z0, args, error):
        # the same IntegrationError at the same t after the same samples;
        # the generic loop's rhs shows which error the stage raised
        rhs = HamiltonianField(ex.parse(text, 1), 1.0).compiled_field
        raised = []

        def recording(z):
            try:
                return rhs(z)
            except dynamics._NON_FINITE as err:
                raised.append(type(err))
                raise

        path = dynamics.rk4_path if integrator == "rk4" else rkf45_path
        assert rhs.terms
        fused = _observed(path, rhs, z0, *args)
        assert fused == _observed(path, recording, z0, *args)
        assert fused[1] is not None and set(raised) == {error}
        if integrator == "rk4":
            assert fused[1][2] is error

    def test_rhs_without_weak_references_takes_the_generic_loop(self):
        # a ufunc carries no terms, so the loop calls it at every stage
        assert getattr(np.negative, "terms", None) is None
        got = _observed(dynamics.rk4_path, np.negative, [1.0, 2.0], 1.0, 0.25, 1)
        assert len(got[0]) == 5
        assert got == _observed(dynamics.rk4_path, lambda z: np.negative(z), [1.0, 2.0], 1.0, 0.25, 1)

    def test_one_loop_per_scheme_and_watch_kind(self, monkeypatch):
        # loops are cached by (d, terms, watch source): equal fields and
        # equal systems share them, and a repeated flow generates none
        generated = []
        define = ex.define

        def counting(source, name, module, **env):
            if name == "loop":
                generated.append(source)
            return define(source, name, module, **env)

        monkeypatch.setattr(ex, "define", counting)
        dynamics._rk4_loop.cache_clear()
        dynamics._rkf45_loop.cache_clear()
        z0 = [1.0, 2.0]
        for _ in range(2):
            field = HamiltonianField(ex.parse(OSC, 1), 0.5)
            _, _, _, sampler = dynamics._make_observer(field.jet)
            for observe in (lambda t, z: None, sampler):
                dynamics.rk4_path(field.compiled_field, z0, 1.0, 1e-2, 1, observe)
                rkf45_path(field.compiled_field, z0, 1.0, 1e-9, 1e-11, 1, observe)
        assert len(generated) == 4 and len(set(generated)) == 4
        # integrate of the same (H, q) takes the sampler's loop above
        integrate(FlowSpec(ex.parse(OSC, 1), 1, 0.5, integrator="rkf45"), PhasePoint((1.0,), (2.0,)))
        assert len(generated) == 4
        spec = FlowSpec(ex.parse("y1^2/2 + (1 - cos(x1))", 1), 1, 0.5, t_final=1.0)
        for _ in range(2):
            integrate(spec, PhasePoint((1.0,), (2.0,)))
            assert len(generated) == 5

        # a shot's loop: one per (target count, keep_states) for equal
        # systems; its observe and its result, which the watch's arguments
        # hold, are freed when the shot returns
        shots = []

        def path(rhs, z0, t_final, rel_tol, abs_tol, stride, observe):
            result = observe.watch[1][0]  # args, see _System.watch
            shots.extend((weakref.ref(observe), weakref.ref(result)))
            return rkf45_path(rhs, z0, t_final, rel_tol, abs_tol, stride, observe)

        monkeypatch.setattr(morse, "rkf45_path", path)
        start, one, two = [0.03, 1.02, -0.5, 0.04], [np.zeros(4)], [np.zeros(4), np.ones(4)]
        for _ in range(2):
            system = _System(circle_spec(), MorseOptions())
            for targets, keep in [(one, False), (two, False), (one, True), (one, False)]:
                morse._shoot(system, start, targets, 1e-6, 1e-8, keep)
        assert len(generated) == 8
        gc.disable()
        try:
            morse._shoot(system, start, two, 1e-6, 1e-8, True)
            assert len(shots) == 18 and all(ref() is None for ref in shots)
        finally:
            gc.enable()


class TestRhsCounting:
    """Flows mirror tests/test_morse.py::TestRhsCounting: an integrator whose
    rhs is wrapped as bench/tracer.py wraps it (a functools.wraps timer, then
    a counting closure) takes the generic loop, so the tracer's counts stay
    true while untraced flows take the fused loop."""

    H2 = "y1^2/2 + y2^2/2 + (1 - cos(x1)) + x1*x2^2/4 - x2*y1/3"

    @staticmethod
    def _wrapping(monkeypatch, name, stage_calls, counts):
        original = getattr(dynamics, name)

        def integrator(rhs, *args):
            @functools.wraps(rhs)
            def timed(z):
                return rhs(z)

            first = None

            def counted(z):
                nonlocal first
                if counts["calls"] % stage_calls == 0:
                    if z is first:
                        counts["rejected"] += 1
                    first = z
                counts["calls"] += 1
                return timed(z)

            return original(counted, *args)

        monkeypatch.setattr(dynamics, name, integrator)

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    def test_wrapped_rhs_sees_every_stage(self, monkeypatch, integrator):
        spec = FlowSpec(ex.parse(self.H2, 2), 2, 0.5, integrator=integrator, step=1e-2,
                        rel_tol=1e-6, abs_tol=1e-8, t_final=2.0)
        z0 = PhasePoint((0.7, -0.4), (0.3, 0.9))
        want = integrate(spec, z0)
        counts = {"calls": 0, "rejected": 0}
        name, stage_calls = ("rk4_path", 4) if integrator == "rk4" else ("rkf45_path", 6)
        self._wrapping(monkeypatch, name, stage_calls, counts)
        got = integrate(spec, z0)
        steps = len(got.ts) - 1
        if integrator == "rk4":
            assert steps == 200 and counts == {"calls": 4 * 200, "rejected": 0}
        else:
            assert steps > 10 and counts["rejected"] > 0
            assert counts["calls"] == 6 * (steps + counts["rejected"])
        for field in ("ts", "zs", "energies"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    def test_one_jet_gradient_per_field_call(self, monkeypatch, integrator):
        # as tests/test_morse.py::TestRhsCounting: a wrapper patched on the
        # class attribute JetEvaluator.gradient sees every call of a compiled
        # field, also one generated before the patch, handed to a path as a
        # counting closure
        field = HamiltonianField(ex.parse(self.H2, 2), 0.5)
        rhs = field.compiled_field
        counts = {"gradient": 0, "rhs": 0}
        gradient = ex.JetEvaluator.gradient

        def counting_gradient(jet, z):
            counts["gradient"] += 1
            return gradient(jet, z)

        def counted(z):
            counts["rhs"] += 1
            return rhs(z)

        monkeypatch.setattr(ex.JetEvaluator, "gradient", counting_gradient)
        z0 = [0.7, -0.4, 0.3, 0.9]
        if integrator == "rk4":
            dynamics.rk4_path(counted, z0, 2.0, 1e-2, 1, lambda t, z: None)
        else:
            rkf45_path(counted, z0, 2.0, 1e-6, 1e-8, 1, lambda t, z: None)
        assert counts["rhs"] > 100
        assert counts["gradient"] == counts["rhs"]


class TestErrorNormSum:
    def test_sum_and_mean_in_numpys_order(self, rng):
        # [DERIVED] the RKF45 error norm sums d squares in numpy's pairwise
        # order; past 128 terms (n >= 65, or n >= 6 for a variational flow)
        # the sum splits in two at a multiple of 8
        for m in range(1, 301):
            values = rng.standard_normal(m) * 10.0 ** rng.uniform(-8, 8, m)
            total = dynamics._numpy_sum_source([f"v[{i}]" for i in range(m)])
            got = eval(f"({total}, {total} / {m})", {"v": values.tolist()})
            want = (np.add.reduce(values), np.mean(values))
            assert np.array(got).tobytes() == np.array(want).tobytes(), m


# Classical RK4 on float64 arrays.  The kernel must reproduce its paths bit
# for bit and blow up at the same step.
def _rk4_step(rhs, z, h):
    k1 = rhs(z)
    k2 = rhs(z + 0.5 * h * k1)
    k3 = rhs(z + 0.5 * h * k2)
    k4 = rhs(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rk4(rhs, z0, t_final, step):
    z = np.asarray(z0, dtype=float)
    nsteps = max(1, int(round(t_final / step)))
    h = t_final / nsteps
    path = [(0.0, z)]
    for k in range(1, nsteps + 1):
        z = _rk4_step(rhs, z, h)
        if not np.all(np.isfinite(z)):
            raise IntegrationError("solution blew up", k * h)
        path.append((k * h, z))
    return path


class TestRK4Kernel:
    def test_oscillator_path_is_bit_identical(self):
        spec = FlowSpec(ex.parse(OSC, 1), 1, 2.0 / 3.0, step=1e-3, t_final=3.0)
        traj = integrate(spec, PhasePoint((1.0,), (2.0,)))
        field = HamiltonianField(spec.hamiltonian, spec.q)
        expected = _reference_rk4(field.field, [1.0, 2.0], 3.0, 1e-3)
        assert len(traj.ts) == len(expected) == 3001
        for t, z, (t_ref, z_ref) in zip(traj.ts, traj.zs, expected):
            assert t == t_ref
            assert z.tobytes() == z_ref.tobytes()

    def test_trig_and_power_path_is_bit_identical(self):
        spec = FlowSpec(
            ex.parse("y1^2/2 + (1 - cos(x1)) + x1^3/5", 1), 1, 1 / 3, step=1e-3, t_final=2.0
        )
        traj = integrate(spec, PhasePoint((0.9,), (-0.4,)))
        field = HamiltonianField(spec.hamiltonian, spec.q)
        expected = _reference_rk4(field.field, [0.9, -0.4], 2.0, 1e-3)
        assert len(traj.ts) == len(expected) == 2001
        for t, z, (t_ref, z_ref) in zip(traj.ts, traj.zs, expected):
            assert t == t_ref
            assert z.tobytes() == z_ref.tobytes()

    def test_variational_path_is_bit_identical(self):
        # [DERIVED] n = 2 co-integrated Jacobian: a 20-component state
        h = ex.parse("y1^2/2 + y2^2/2 + (1 - cos(x1)) + x1*x2^2/4 - x2*y1/3", 2)
        spec = FlowSpec(h, 2, 0.5, step=1e-2, t_final=2.0)
        z0 = PhasePoint((0.7, -0.4), (0.3, 0.9))
        vf = integrate_variational(spec, z0)
        field = HamiltonianField(h, 0.5)

        def rhs(state):
            d = state[4:].reshape(4, 4)
            dd = field.field_jacobian(state[:4]) @ d
            return np.concatenate([field.field(state[:4]), dd.ravel()])

        state0 = np.concatenate([z0.as_array(), np.eye(4).ravel()])
        expected = _reference_rk4(rhs, state0, 2.0, 1e-2)
        assert len(vf.trajectory.ts) == len(expected) == 201
        for t, z, d, (t_ref, s_ref) in zip(
            vf.trajectory.ts, vf.trajectory.zs, vf.jacobians, expected
        ):
            assert t == t_ref
            assert np.concatenate([z, d.ravel()]).tobytes() == s_ref.tobytes()

    def test_blow_up_raises_at_the_reference_step(self):
        # [DERIVED] H = y1 x1^2 at q = 1: xdot = x1^2 from x1 = 1 escapes
        # at t = 1; float64 overflows at step 1003 of 1e-3
        spec = FlowSpec(ex.parse("y1*x1^2", 1), 1, 1.0, step=1e-3, t_final=2.0)
        field = HamiltonianField(spec.hamiltonian, 1.0)
        with np.errstate(all="ignore"), pytest.raises(IntegrationError) as ref:
            _reference_rk4(field.field, [1.0, 0.0], 2.0, 1e-3)
        with np.errstate(all="ignore"), pytest.raises(IntegrationError) as got:
            integrate(spec, PhasePoint((1.0,), (0.0,)))
        assert got.value.t == ref.value.t == 1003 * 1e-3
        assert str(got.value) == "solution blew up at t=1.003"

    def test_stage_domain_error_is_a_blow_up(self):
        # [DERIVED] H = y1 x1^2 + sin(x1^3): the gradient takes cos(x1^3),
        # a math domain error once x1^3 overflows to inf
        h = ex.parse("y1*x1*x1 + sin(x1*x1*x1)", 1)
        field = HamiltonianField(h, 1.0)
        with pytest.raises(IntegrationError, match="solution blew up") as err:
            rhs = lambda z: field.field_from_gradient(field.jet.gradient(z))  # noqa: E731
            dynamics.rk4_path(rhs, [1e103, 0.0], 1.0, 0.1, 1, lambda t, z: None)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("flow", [integrate, integrate_variational])
    def test_energy_overflow_gives_no_runtime_warning(self, recwarn, flow):
        # the observer's float64 energy overflows before sin(inf) raises
        spec = FlowSpec(ex.parse("y1*x1*x1 + sin(x1*x1*x1)", 1), 1, 1.0, t_final=2.0)
        with pytest.raises(IntegrationError, match="solution blew up at t=1.002"):
            flow(spec, PhasePoint((1.0,), (0.0,)))
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_regime_sweep_integrates_each_q_once(self, monkeypatch):
        calls = []
        original = dynamics.rk4_path

        def counting(rhs, z0, t_final, step, stride, observe):
            calls.append(t_final)
            return original(rhs, z0, t_final, step, stride, observe)

        monkeypatch.setattr(dynamics, "rk4_path", counting)
        doc = {
            "n": 1, "q_list": [2.0, 1.0, 0.5], "hamiltonian": OSC, "z0": [1.0, 2.0],
            "t_final": 0.5, "integrator": {"type": "rk4", "step": 0.01},
            "observables": ["delta_H"], "checks": [{"type": "regime_trichotomy"}],
        }
        checks, _ = _run_sweep(doc, {"hamiltonian": ex.parse(OSC, 1)})
        assert checks.records == [
            {"name": "regime_trichotomy_violations", "measured": 0, "threshold": 0, "pass": True}
        ]
        assert calls == [0.5] * 3


def _float64_energy(energy, z, t):
    """The energy as a flow's observer took it on float64, overflowing to inf."""
    with np.errstate(all="ignore"):
        try:
            return energy(np.asarray(z, dtype=float))
        except dynamics._NON_FINITE as err:
            raise IntegrationError("solution blew up", t) from err


# states an integrator can hand over: finite, with signed zeros and values
# where Python's ** and / raise but float64 gives inf or nan
_STATES = st.lists(
    st.one_of(
        st.floats(-3.0, 3.0),
        st.sampled_from([0.0, -0.0, 1e-170, -1e200, 1e200, 710.0, 1e308]),
    ),
    min_size=2 * N_RANDOM,
    max_size=2 * N_RANDOM,
)


def _tree(text):
    return ex.parse(text, N_RANDOM)


class TestObserver:
    @settings(
        max_examples=400, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(RANDOM_TREES, _STATES)
    @example(_tree("x1^3 + y2/2"), [1e200, 0.0, 0.0, 1.0])  # ** overflows: inf
    @example(_tree("y1/x1 - x2"), [-0.0, 0.0, 1.0, 0.0])  # ZeroDivisionError: -inf
    @example(_tree("x2/x1"), [0.0, 0.0, 0.0, 0.0])  # 0/0: nan
    @example(_tree("exp(x1) + x2"), [710.0, 0.0, 0.0, 0.0])  # exp overflows: raises
    @example(_tree("sin(x1*x1*x1) + y1"), [1e200, 0.0, 0.0, 0.0])  # sin(inf): raises
    def test_energies_equal_the_float64_observer(self, h, z):
        energy = ex.compile_scalar(h)  # what JetEvaluator.value calls
        # the observer reads n, expression and value of its jet only; a tree
        # whose derivative divides by a constant zero has no JetEvaluator
        jet = types.SimpleNamespace(n=h.n, expression=h, value=energy)
        ts, states, es, observe = dynamics._make_observer(jet)
        try:
            want = _float64_energy(energy, z, 0.5)
        except IntegrationError:
            with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="t=0.5"):
                observe(0.5, list(z))
            assert es == []
            return
        with np.errstate(all="ignore"):
            observe(0.5, list(z))
        assert ts == [0.5] and states == [z]
        # bytes, so the sign of a zero and of a nan count
        assert np.array(es, dtype=float).tobytes() == np.array([want], dtype=float).tobytes()


_QS = st.one_of(
    st.sampled_from([1.0, 0.5, 2.0, -1.0, -0.5, -3.0]),
    st.floats(-4.0, 4.0).filter(lambda q: abs(q) > 1e-3),
)


def _field_of(h, q):
    """The HamiltonianField of a raw tree, or a rejected example where a
    derivative divides by a constant zero."""
    try:
        f = HamiltonianField(h, q)
        f.jet.hessian_tuple
    except ex.ExprError:
        assume(False)
    return f


def _result(compute):
    """The bytes of an array result, or the type of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(compute(), dtype=float).tobytes()
    except dynamics._NON_FINITE as err:
        return type(err)


class TestVariationalRhs:
    @settings(
        max_examples=400, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(RANDOM_TREES, _STATES, st.lists(st.floats(-3.0, 3.0), min_size=16, max_size=16), _QS)
    # constant second derivatives compile to the ints 0 and 1: -h of the int
    # 0 is 0, not the -0.0 of the float64 matrix
    @example(_tree("x1*y1"), [0.5, -1.0, 2.0, 0.25], [1.0, 0.0] * 8, -0.5)
    @example(_tree("x1*y1 + y2^2/2"), [0.5, -1.0, 2.0, 0.25], [-0.0, 1.0] * 8, 2.0)
    @example(_tree("y1/x1 + x2"), [0.0, 1.0, 1.0, 0.0], [1.0] * 16, 1.0)  # raises
    @example(_tree("x1^3*y2"), [1e200, 0.0, 0.0, 1.0], [1.0] * 16, -2.0)  # ** raises
    # x1*x1 is inf and times x2 = 0 a nan, whose sign the negation flips
    @example(_tree("x1*x1*x1*x1*x2"), [1e200, 0.0, 0.0, 0.0], [1.0] * 16, 0.5)
    def test_equals_the_array_form(self, h, z, m, q):
        f = _field_of(h, q)
        mat = np.array(m).reshape(4, 4)
        want = _result(lambda: np.concatenate([f.field(z), (f.field_jacobian(z) @ mat).ravel()]))
        # the product sums from +0.0 and so hides the sign of a zero entry;
        # the field Jacobian, the rhs's first array, is compared as well
        built = []
        rhs = f.variational_rhs
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(rhs.__globals__, "array", lambda rows: built.append(np.array(rows)) or built[-1])
            assert _result(lambda: rhs(list(z) + m)) == want
        if built:
            assert built[0].tobytes() == f.field_jacobian(z).tobytes()

    def test_generated_once_per_field(self):
        f = HamiltonianField(ex.parse(OSC, 1), 0.5)
        assert f.variational_rhs is f.variational_rhs
        assert f.variational_rhs.__module__ == "defham.dynamics"


class TestRegimeRates:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(RANDOM_TREES, _STATES, _QS)
    def test_rounds_as_the_compiled_gradient(self, h, z, q):
        # the gradient entries inline round as jet.gradient's, in the sums'
        # order: coupling sum_i g_i g_{n+i}, then dH/dt = sum_k g_k X_k
        f = _field_of(h, q)
        spec = FlowSpec(h, N_RANDOM, q)

        def reference():
            g = f.jet.gradient(z)
            x = [1.0 / q * v for v in g[N_RANDOM:]] + [-1.0 * v for v in g[:N_RANDOM]]
            return (0.0 + g[0] * g[2] + g[1] * g[3],
                    0.0 + g[0] * x[0] + g[1] * x[1] + g[2] * x[2] + g[3] * x[3])

        assert _result(lambda: dynamics._regime_rates(spec)(z)) == _result(reference)


def _wrapped_observer(monkeypatch):
    """Hand the flows an observe wrapped in a closure, which has no watch, so
    the fused loop calls it at every sample."""
    make = dynamics._make_observer

    def wrapping(*args):
        ts, states, es, observe = make(*args)
        return ts, states, es, lambda t, z: observe(t, z)

    monkeypatch.setattr(dynamics, "_make_observer", wrapping)


def _flow(spec, z0):
    """The samples of integrate as bytes, or its IntegrationError and t."""
    try:
        with np.errstate(all="ignore"):
            traj = integrate(spec, z0)
    except IntegrationError as err:
        return str(err), err.t, type(err.__cause__)
    return traj.ts.tobytes(), traj.zs.tobytes(), traj.energies.tobytes()


class TestSampleWatch:
    """A flow's observer carries its watch (_make_observer): the fused
    RK4 and RKF45 loops run it inline and must sample as the loop that calls
    a wrapped observe at every sample."""

    CASES = [
        # the torus turns x1 several times
        ("y1^2/2 + y2^2/2 - cos(x1) - cos(x2)/2 + x1*y2/5", 2, [0.5, 1.0, 3.0, -2.5], None),
        # y2 stays at 1e155, where y2^2 raises on Python floats: the energy
        # falls back to float64, which gives inf
        ("y1^2/2 + (1 - cos(x1)) + y2^2", 2, [0.9, 0.0, -0.4, 1e155], "inf"),
        # x1' = 2 x1^2 blows up at t = 1/2
        ("y1*x1^2", 1, [1.0, 0.0], "error"),
    ]

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    @pytest.mark.parametrize("space", ["plane", "torus"])
    @pytest.mark.parametrize("text, n, z0, kind", CASES, ids=["turning", "fallback", "blow-up"])
    def test_fused_samples_equal_a_wrapped_observe(self, monkeypatch, integrator, space, text, n,
                                                   z0, kind):
        spec = FlowSpec(ex.parse(text, n), n, 0.5, space=space, integrator=integrator,
                        step=1e-2, rel_tol=1e-9, abs_tol=1e-11, t_final=2.0)
        point = PhasePoint(z0[:n], z0[n:], space=space)
        fused = _flow(spec, point)
        _wrapped_observer(monkeypatch)
        assert _flow(spec, point) == fused
        if kind == "error":
            assert isinstance(fused[1], float) and 0.49 < fused[1] < 0.54
        else:
            assert len(np.frombuffer(fused[0])) > 50
            energies = np.frombuffer(fused[2])
            assert np.isinf(energies).all() if kind == "inf" else np.isfinite(energies).all()

    def test_registered_observe_is_called_for_the_start_state_only(self):
        # a profile hook, so that no wrapper hides the observe: fused flows
        # call it at t = 0; the variational flow's generic loop at every sample
        calls = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "observe"
                    and frame.f_globals["__name__"] == "defham.dynamics"):
                calls.append(frame.f_locals["t"])

        h = ex.parse("y1^2/2 + (1 - cos(x1)) + x1^3/5", 1)
        z0 = PhasePoint((0.9,), (-0.4,))
        specs = [FlowSpec(h, 1, 1 / 3, integrator=kind, step=1e-2, t_final=2.0)
                 for kind in ("rk4", "rkf45")]
        sys.setprofile(profile)
        try:
            flows = [integrate(spec, z0) for spec in specs]
            variational = integrate_variational(specs[0], z0)
        finally:
            sys.setprofile(None)
        assert all(len(flow.ts) > 50 for flow in flows)
        assert calls == [0.0, 0.0, *variational.trajectory.ts]


def _wrapped(states, n):
    """Each sample's x wrapped by itself, as the observer did per sample."""
    return np.array([np.concatenate((wrap_angles(z[:n]), z[n:])) for z in states])


class TestTorusSamples:
    # [DERIVED] xdot = y/q from y ~ 3 at q = 1/2 turns x1 several times
    H = "y1^2/2 + y2^2/2 - cos(x1) - cos(x2)/2 + x1*y2/5"
    Z0 = ((0.5, 1.0), (3.0, -2.5))  # x already in [0, 2 pi)

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    def test_integrate_wraps_as_per_sample(self, integrator):
        kw = dict(integrator=integrator, step=1e-2, t_final=5.0, rel_tol=1e-9, abs_tol=1e-11)
        plane = integrate(FlowSpec(ex.parse(self.H, 2), 2, 0.5, **kw), PhasePoint(*self.Z0))
        torus = integrate(
            FlowSpec(ex.parse(self.H, 2), 2, 0.5, space="torus", **kw),
            PhasePoint(*self.Z0, space="torus"),
        )
        assert np.ptp(plane.zs[:, 0]) > 4 * math.pi
        assert torus.ts.tobytes() == plane.ts.tobytes()
        assert torus.energies.tobytes() == plane.energies.tobytes()
        assert torus.zs.tobytes() == _wrapped(plane.zs, 2).tobytes()

    @pytest.mark.parametrize("integrator", ["rk4", "rkf45"])
    def test_integrate_variational_wraps_as_per_sample(self, integrator):
        kw = dict(integrator=integrator, step=1e-2, t_final=3.0, rel_tol=1e-9, abs_tol=1e-11)
        plane = integrate_variational(
            FlowSpec(ex.parse(self.H, 2), 2, 0.5, **kw), PhasePoint(*self.Z0)
        )
        torus = integrate_variational(
            FlowSpec(ex.parse(self.H, 2), 2, 0.5, space="torus", **kw),
            PhasePoint(*self.Z0, space="torus"),
        )
        assert np.ptp(plane.trajectory.zs[:, 0]) > 2 * math.pi
        assert torus.jacobians.tobytes() == plane.jacobians.tobytes()
        assert torus.trajectory.energies.tobytes() == plane.trajectory.energies.tobytes()
        assert torus.trajectory.zs.tobytes() == _wrapped(plane.trajectory.zs, 2).tobytes()


class TestCsv:
    def test_format(self):
        spec = FlowSpec(ex.parse(OSC, 1), 1, 1.0, step=1e-2, t_final=0.1, sample_stride=5)
        traj = integrate(spec, PhasePoint((1.0,), (2.0,)))
        lines = trajectory_csv(traj).strip().splitlines()
        assert lines[0] == "t,x1,y1,H"
        assert len(lines) == len(traj.ts) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0 and float(first[2]) == 2.0
        # 17 significant digits survive a float round trip exactly
        again = [float(v) for v in lines[-1].split(",")]
        assert again[1] == traj.zs[-1][0] and again[2] == traj.zs[-1][1]
