"""Multiplier Morse complex: critical points, indices, flow lines, homology.

Oracles: the circle fixture H = x2 + y1 (x1^2 + x2^2 - 1) + q y2^2/2 has
exactly two critical points with closed-form coordinates (0, -/+1, +/-1/2, 0);
the torus height function cos(x1) + cos(x2) has the textbook Betti numbers
(1, 2, 1); homology helpers are checked on hand-built matrices.
"""

import hashlib
import math
import sys

import numpy as np
import pytest

from defham import expr as ex
from defham import morse
from defham.dynamics import IntegrationError, rkf45_path
from defham.morse import (
    IndexCertificate,
    MorseComplex,
    MorseConditionError,
    MorseOptions,
    MorseSpec,
    MorseSpecError,
    adiabatic_deviation,
    build_complex,
    build_hamiltonian,
    complex_to_report,
    count_flow_lines,
    critical_index,
    find_critical_points,
    homology_ranks,
    mod2_rank,
    _lines_from,
    _newton,
    _newton_seeds,
    _ShotResult,
    _System,
)


def circle_spec(q=1.0):
    n = 2
    return MorseSpec(
        n,
        ex.parse("x2", n),
        [ex.parse("x1^2 + x2^2 - 1", n), ex.parse("0", n)],
        ex.parse("y2^2/2", n),
        q=q,
    )


def torus_spec():
    n = 2
    return MorseSpec(
        n,
        ex.parse("cos(x1) + cos(x2)", n),
        [ex.parse("0", n), ex.parse("0", n)],
        ex.parse("0", n),
        space="torus",
    )


def inside_z_spec(q=1.0):
    # Constraint surface Z = {x2 = 0}; f restricted to Z has critical
    # points at x1 = -/+1, and the connecting flow line stays inside Z.
    n = 2
    return MorseSpec(
        n,
        ex.parse("x1^3/3 - x1", n),
        [ex.parse("x2", n), ex.parse("0", n)],
        ex.parse("(y1^2 + y2^2)/2", n),
        q=q,
    )


# (id, spec builder taking q, q) of the fixtures the shooting tests run on
SYSTEMS = [("circle q=1", circle_spec, 1.0), ("circle q=1/4", circle_spec, 0.25),
           ("torus", lambda q: torus_spec(), 1.0)]


class TestSpecValidation:
    def test_rejects_q_out_of_range(self):
        with pytest.raises(MorseSpecError):
            circle_spec(q=0.0)
        with pytest.raises(MorseSpecError):
            circle_spec(q=2.0)
        with pytest.raises(MorseSpecError):
            circle_spec(q=-0.5)

    def test_rejects_fibre_variables_in_base_data(self):
        n = 1
        with pytest.raises(MorseSpecError):
            MorseSpec(n, ex.parse("y1", n), [ex.parse("0", n)], ex.parse("0", n))
        with pytest.raises(MorseSpecError):
            MorseSpec(n, ex.parse("x1", n), [ex.parse("y1", n)], ex.parse("0", n))

    def test_rejects_base_variables_in_g(self):
        n = 1
        with pytest.raises(MorseSpecError):
            MorseSpec(n, ex.parse("x1", n), [ex.parse("0", n)], ex.parse("x1", n))

    def test_rejects_wrong_constraint_count(self):
        with pytest.raises(MorseSpecError):
            MorseSpec(2, ex.parse("x1", 2), [ex.parse("0", 2)], ex.parse("0", 2))

    def test_constraint_rank(self):
        assert circle_spec().constraint_rank == 1
        assert torus_spec().constraint_rank == 0
        assert torus_spec().base_only
        assert circle_spec().dim == 4 and torus_spec().dim == 2


def test_build_hamiltonian_value():
    # [DERIVED] H_q(z) = f + y1 w1 + q g pointwise; at z = (0.5, 2, 3, 4)
    # with q = 1/2: 2 + 3*(0.25 + 4 - 1) + 0.5*8 = 15.75.
    h = build_hamiltonian(circle_spec(q=0.5))
    assert ex.evaluate(h, (0.5, 2.0, 3.0, 4.0)) == pytest.approx(15.75, abs=1e-12)


class TestCriticalPoints:
    def test_circle_fixture_closed_form(self):
        # [DERIVED] solving grad H = 0 by hand gives x1 = 0, x2 = -/+1,
        # y1 = 1/(2) * -/+... : (0, -1, 1/2, 0) index 1, (0, 1, -1/2, 0) index 2.
        points = sorted(find_critical_points(circle_spec()), key=lambda p: p.index)
        assert len(points) == 2
        lo, hi = points
        assert lo.index == 1 and hi.index == 2
        assert lo.coords() == pytest.approx([0.0, -1.0, 0.5, 0.0], abs=1e-9)
        assert hi.coords() == pytest.approx([0.0, 1.0, -0.5, 0.0], abs=1e-9)
        assert max(p.residual for p in points) < 1e-10

    def test_tilted_height_still_two_points(self):
        n = 2
        spec = MorseSpec(
            n,
            ex.parse("x2 + x1/100", n),
            [ex.parse("x1^2 + x2^2 - 1", n), ex.parse("0", n)],
            ex.parse("y2^2/2", n),
        )
        assert len(find_critical_points(spec)) == 2

    def test_degenerate_hamiltonian_rejected(self):
        # [TRIVIAL] f = 0 on the plane has a flat critical manifold.
        n = 1
        spec = MorseSpec(n, ex.parse("0", n), [ex.parse("0", n)], ex.parse("0", n))
        with pytest.raises(MorseConditionError):
            find_critical_points(spec)

    def test_index_certificate(self):
        # [DERIVED] index = base index + fibre index + k on the circle.
        spec = circle_spec()
        for p in find_critical_points(spec):
            total, cert = critical_index(spec, p)
            assert total == p.index
            assert cert.k == 1
            assert cert.fibre_index == 0
            assert cert.consistent

    @pytest.mark.parametrize(
        "make,indices",
        [
            (torus_spec, [0, 1, 1, 2]),
            (lambda: MorseSpec(1, ex.parse("x1^2/2", 1), [ex.parse("0", 1)], ex.parse("0", 1)), [0]),
        ],
        ids=["torus", "x1^2/2"],
    )
    def test_base_only_index_certificate(self, make, indices):
        # [DERIVED] with k = 0 and g = 0 the index is the base index of f
        spec = make()
        points = find_critical_points(spec)
        assert sorted(p.index for p in points) == indices
        for p in points:
            m = p.index
            assert critical_index(spec, p) == (m, IndexCertificate(m, m, 0, 0, True))

    def test_negative_fibre_metric_shifts_index(self):
        # [DERIVED] flipping g to -y2^2/2 adds one to the fibre index.
        n = 2
        spec = MorseSpec(
            n,
            ex.parse("x2", n),
            [ex.parse("x1^2 + x2^2 - 1", n), ex.parse("0", n)],
            ex.parse("0 - y2^2/2", n),
        )
        indices = sorted(p.index for p in find_critical_points(spec))
        assert indices == [2, 3]

    def test_each_newton_iterate_is_solved_once_per_call(self, monkeypatch):
        # seeds whose paths merge share the step from then on; the memo of
        # steps lives for one call, so a second call solves as often
        seen: list[bytes] = []
        hessian = _System.hessian

        def recording_hessian(self, u):
            seen.append(u.tobytes())
            return hessian(self, u)

        monkeypatch.setattr(_System, "hessian", recording_hessian)
        find_critical_points(circle_spec())
        first = len(seen)
        assert first and len(set(seen)) == first
        seen.clear()
        find_critical_points(circle_spec())
        assert len(seen) == first


class TestComplex:
    def test_circle_complex(self):
        # [DERIVED] two separatrices join the max to the min, cancelling
        # mod 2, so the homology matches the circle: ranks {1: 1, 2: 1}.
        complex_ = build_complex(circle_spec())
        assert sorted(complex_.generators) == [1, 2]
        assert complex_.flow_line_counts[((2, 0), (1, 0))] == 2
        assert int(complex_.boundary[2][0, 0]) == 0
        assert homology_ranks(complex_) == {1: 1, 2: 1}

    def test_torus_complex(self):
        # [DERIVED] cos(x1) + cos(x2) on T^2: one min, two saddles, one
        # max, each boundary count 2 (cancelling mod 2), Betti (1, 2, 1).
        complex_ = build_complex(torus_spec())
        sizes = {m: len(g) for m, g in complex_.generators.items()}
        assert sizes == {0: 1, 1: 2, 2: 1}
        assert all(v == 2 for v in complex_.flow_line_counts.values())
        assert homology_ranks(complex_) == {0: 1, 1: 2, 2: 1}

    def test_single_minimum(self):
        n = 1
        spec = MorseSpec(n, ex.parse("x1^2/2", n), [ex.parse("0", n)], ex.parse("0", n))
        complex_ = build_complex(spec)
        assert homology_ranks(complex_) == {0: 1}

    def test_count_requires_adjacent_indices(self):
        points = sorted(find_critical_points(circle_spec()), key=lambda p: p.index)
        with pytest.raises(ValueError):
            count_flow_lines(circle_spec(), points[0], points[0])

    @pytest.mark.parametrize("name,make,q", SYSTEMS, ids=[s[0] for s in SYSTEMS])
    def test_every_counted_line_entered_its_ball(self, name, make, q):
        # a line counts only if one of its shots came within capture_radius
        # of the target it is registered to; at q = 1/4 collapsed brackets
        # that fail _pair_refine have closest approaches of 0.45-0.5
        spec, options = make(q), MorseOptions()
        system = _System(spec, options)
        points = find_critical_points(spec, options)
        counted = 0
        for p_minus in points:
            stop_points = [system.coords(p) for p in points if p.index < p_minus.index]
            if not stop_points:
                continue
            lines = _lines_from(system, p_minus, stop_points)
            for target, found in lines.items():
                for _, shot in found:
                    assert shot.outcome == "captured" and shot.target == target
                    assert shot.min_dist[target] < options.capture_radius
                    counted += 1
        assert counted  # not vacuous

    def test_report_shape(self):
        complex_ = build_complex(torus_spec())
        report = complex_to_report(complex_, adiabatic=[(1.0, 0.5), (0.5, 0.1)])
        assert len(report["critical_points"]) == 4
        assert report["homology_ranks"] == {"0": 1, "1": 2, "2": 1}
        assert "adiabatic" in report


def _reference_newton(system, seed):
    """_newton with NumPy checks on the gradient array and np.linalg.norm."""
    opts = system.options
    u = np.array(seed, dtype=float)
    span = max(hi - lo for lo, hi in system.box)
    for _ in range(opts.max_newton):
        g = np.array(system.gradient(u))
        if not np.all(np.isfinite(g)):
            return None
        if np.max(np.abs(g)) <= opts.newton_tol:
            return u
        h = system.hessian(u)
        try:
            step, *_ = np.linalg.lstsq(h, g, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 10 * span:
            return None
        u = u - step
        u = system.wrap_coords(u)
    return None


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestFloatKernels:
    """The shooting rhs and Newton on Python floats against their array forms."""

    @pytest.mark.parametrize("name,make,q", SYSTEMS, ids=[s[0] for s in SYSTEMS])
    def test_rhs_bit_identical_to_array_form(self, rng, name, make, q):
        system = _System(make(q), MorseOptions())
        n = system.spec.n
        points = [rng.uniform(-2.0, 2.0, system.dim).tolist() for _ in range(200)]
        points += [[0.0] * system.dim, [-0.0] * system.dim, [1.0, -0.0, 0.5, 0.0][: system.dim]]
        for u in points:
            z = u + [0.0] * (2 * n - system.dim)  # y = 0 pads a base-only point
            g = np.array(system.jet.gradient(z))[: system.dim]
            assert _bits(system.rhs(u)) == _bits((-system.scales * g).tolist())

    @pytest.mark.parametrize(
        "n,f",
        [(2, "cos(x1) + cos(x2)"), (3, "x1^4/4 - x1*x2 + exp(x3/3)*sin(x2) - 1/(2 + x3^2)")],
    )
    def test_base_only_jet_reads_only_the_working_space(self, rng, n, f):
        # the single code path evaluates a base-only jet on z[:n] unpadded
        zero = ex.parse("0", n)
        system = _System(MorseSpec(n, ex.parse(f, n), [zero] * n, zero), MorseOptions())
        assert system.dim == n
        for _ in range(50):
            u = rng.uniform(-2.0, 2.0, n)
            padded = np.concatenate([u, np.zeros(n)])
            for short, full in ((u, padded), (u.tolist(), padded.tolist())):
                assert _bits(system.jet.gradient(short)) == _bits(system.jet.gradient(full))
                assert system.jet.hessian(short).tobytes() == system.jet.hessian(full).tobytes()
                assert _bits([system.jet.value(short)]) == _bits([system.jet.value(full)])

    @pytest.mark.parametrize("make,seeds", [(circle_spec, 2401), (torus_spec, 49)])
    def test_newton_matches_array_form_from_every_seed(self, make, seeds):
        system = _System(make(), MorseOptions())
        all_seeds = _newton_seeds(system)
        assert len(all_seeds) == seeds
        converged = 0
        for seed in all_seeds:
            got, want = _newton(system, seed), _reference_newton(system, seed)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
                converged += 1
        assert converged  # not vacuous

    def test_newton_rejects_non_finite_gradient(self):
        # x1^400 overflows to inf at x1 = 10, and inf - inf is nan
        for text in ("x1^400", "x1^400 - x1^400 + x1^2"):
            spec = MorseSpec(1, ex.parse(text, 1), [ex.parse("0", 1)], ex.parse("0", 1))
            system = _System(spec, MorseOptions())
            with np.errstate(over="ignore", invalid="ignore"):
                g = system.gradient(np.array([10.0]))
                assert not math.isfinite(g[0])
                assert _newton(system, np.array([10.0])) is None

    @pytest.mark.parametrize("text,seed", [("exp(x1^2)", 40.0), ("x1^2 + sin(x1^4000)", 2.0)])
    def test_newton_gives_up_where_the_gradient_cannot_be_evaluated(self, text, seed):
        # exp(1600) raises OverflowError; x1^4000 overflows to inf, and sin(inf)
        # raises ValueError (math domain error)
        spec = MorseSpec(1, ex.parse(text, 1), [ex.parse("0", 1)], ex.parse("0", 1))
        system = _System(spec, MorseOptions())
        with np.errstate(over="ignore"):
            assert _newton(system, np.array([seed])) is None
            assert abs(_newton(system, np.array([0.5]))[0]) < 1e-12  # the minimum

    def test_seed_sweep_gives_no_runtime_warning(self, recwarn):
        # x1^4000 overflows on float64 from the far seeds, which are skipped;
        # the minimum at 0 is found without a RuntimeWarning
        spec = MorseSpec(1, ex.parse("x1^2 + sin(x1^4000)", 1), [ex.parse("0", 1)], ex.parse("0", 1))
        [point] = find_critical_points(spec)
        assert abs(point.z.x[0]) < 1e-12 and point.index == 0
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    def test_newton_rejects_over_long_step(self):
        # for x1^3 the Newton step from x is x/2: 50 from 100, past 10 * span = 40
        spec = MorseSpec(1, ex.parse("x1^3", 1), [ex.parse("0", 1)], ex.parse("0", 1))
        system = _System(spec, MorseOptions())
        assert _newton(system, np.array([100.0])) is None
        assert _reference_newton(system, np.array([100.0])) is None
        assert _newton(system, np.array([60.0])) is not None  # step 30 is accepted


def _reference_shoot(system, start, targets, rel_tol, abs_tol, keep_states=False):
    """The shot with one state array per step and one system.distance per
    target, compared as the shot's contract reads, on the generic RKF45 loop."""
    opts = system.options
    delta = opts.capture_radius
    result = _ShotResult("timeout", None, np.full(len(targets), np.inf), [])

    class _Stop(Exception):
        pass

    def observe(t, z):
        result.last_state = z
        state = np.array(z)
        if keep_states:
            result.states.append(state)
        for idx, target in enumerate(targets):
            dist = system.distance(state, target)
            if dist < result.min_dist[idx]:
                result.min_dist[idx] = dist
            if dist < delta:
                result.outcome = "captured"
                result.target = idx
                raise _Stop
        if not system.in_box(z):
            result.outcome = "escaped"
            raise _Stop

    try:
        # a closure around the rhs takes the generic loop, which calls it
        rhs = lambda u: system.rhs(u)  # noqa: E731
        rkf45_path(rhs, start, opts.t_max, rel_tol, abs_tol, stride=1, observe=observe)
    except _Stop:
        pass
    except IntegrationError:
        result.outcome = "blew_up"
    return result


def _shot_hash(start, shot):
    digest = hashlib.sha256(np.asarray(start, dtype=float).tobytes())
    digest.update(repr((shot.outcome, shot.target)).encode())
    for values in (shot.min_dist, shot.last_state or [], shot.states):
        digest.update(np.array(values, dtype=float).tobytes())
    return digest.hexdigest()


class TestShotObserver:
    @pytest.mark.parametrize("name,make,q", [SYSTEMS[0], SYSTEMS[2]], ids=["circle q=1", "torus"])
    def test_every_shot_equals_the_reference(self, monkeypatch, name, make, q):
        # every shot of the complex (bisection, pair refinement), with the
        # torus's three targets and its wrapped displacements
        shoot, hashes = morse._shoot, []

        def both(system, start, targets, rel_tol, abs_tol, keep_states=False):
            got = shoot(system, start, targets, rel_tol, abs_tol, keep_states)
            want = _reference_shoot(system, start, targets, rel_tol, abs_tol, keep_states)
            hashes.append((_shot_hash(start, got), _shot_hash(start, want)))
            return got

        monkeypatch.setattr(morse, "_shoot", both)
        build_complex(make(q))
        assert len(hashes) >= 50
        assert all(got == want for got, want in hashes)

    def test_keep_states_shots_equal_the_reference(self, monkeypatch):
        # adiabatic_deviation keeps the states of its shots and widens the
        # capture radius to 0.15
        shoot, hashes = morse._shoot, []

        def both(system, start, targets, rel_tol, abs_tol, keep_states=False):
            got = shoot(system, start, targets, rel_tol, abs_tol, keep_states)
            want = _reference_shoot(system, start, targets, rel_tol, abs_tol, keep_states)
            hashes.append((keep_states, _shot_hash(start, got), _shot_hash(start, want)))
            return got

        monkeypatch.setattr(morse, "_shoot", both)
        adiabatic_deviation(inside_z_spec(), [1.0, 0.5])
        assert len(hashes) >= 50 and all(keep for keep, _, _ in hashes)
        assert all(got == want for _, got, want in hashes)


def _plane_system(d):
    """The base-only system of |x|^2 on the plane of dimension d."""
    f = ex.parse(" + ".join(f"x{i}^2" for i in range(1, d + 1)), d)
    zero = ex.parse("0", d)
    return _System(MorseSpec(d, f, [zero] * d, zero), MorseOptions())


def _replayed_shot(monkeypatch, system, targets, states):
    """_shoot whose integrator hands the observer each of states in turn."""

    def replay(rhs, start, t_final, rel_tol, abs_tol, stride, observe):
        for z in states:
            observe(0.0, list(z))

    monkeypatch.setattr(morse, "rkf45_path", replay)
    return morse._shoot(system, np.array(states[0]), targets, 1e-9, 1e-11)


def _on_sphere(rng, d, radius):
    """A random point of float64 norm about radius, as a list of floats."""
    v = rng.normal(size=d)
    return (v * (radius / np.linalg.norm(v))).tolist()


class TestShotObserverCertificate:
    """Captures and min_dist follow system.distance, a left-to-right float
    sum; these replayed shots are built where a BLAS ddot rounds otherwise."""

    def test_capture_within_one_ulp_of_delta(self, monkeypatch, rng):
        # a state at float distance one ulp inside delta from the origin is
        # captured though its ddot distance is delta; the state before it,
        # at float distance delta, is not, though its ddot distance is below
        system = _plane_system(4)
        delta = system.options.capture_radius
        inside, on = None, None
        for _ in range(20_000):
            z = _on_sphere(rng, 4, delta)
            dist, ddot = math.sqrt(sum(x * x for x in z)), math.sqrt(np.dot(z, z))
            if dist == math.nextafter(delta, 0.0) and ddot == delta:
                inside = z
            elif dist == delta and ddot < delta:
                on = z
            if inside and on:
                break
        assert inside and on
        # target 0 comes first and is nearest to the capture step; the state
        # after that step sits on target 0 and is never observed
        targets = [3.0 * np.array(inside), np.zeros(4)]
        states = [[0.5, 0.25, 0.0, 0.0], on, inside, targets[0].tolist()]
        shot = _replayed_shot(monkeypatch, system, targets, states)
        assert (shot.outcome, shot.target, shot.last_state) == ("captured", 1, inside)
        want = [min(system.distance(z, t) for z in states[:3]) for t in targets]
        assert system.distance(on, targets[1]) == delta
        assert want[1] == system.distance(inside, targets[1]) == math.nextafter(delta, 0.0)
        assert _bits(shot.min_dist) == _bits(want)


def _generic_shoot(shoot, system, start, targets, rel_tol, abs_tol, keep_states=False):
    """shoot with its observe wrapped: RKF45 then takes the loop that calls
    it after every step, where it runs the watch source inline."""

    def path(rhs, z0, t_final, rel_tol, abs_tol, stride, observe):
        return rkf45_path(rhs, z0, t_final, rel_tol, abs_tol, stride, lambda t, z: observe(t, z))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morse, "rkf45_path", path)
        return shoot(system, start, targets, rel_tol, abs_tol, keep_states)


class TestFusedWatch:
    """Untraced, a shot's RKF45 loop runs the watch of _System.watch inline
    and calls its observe for the start state only; a wrapped observe is
    called at every step.  Both give the same shot."""

    @pytest.mark.parametrize("name,make,q", SYSTEMS, ids=[s[0] for s in SYSTEMS])
    def test_every_shot_equals_the_generic_path(self, monkeypatch, name, make, q):
        # every shot of the complex; _pair_refine's keep the states
        shoot, hashes = morse._shoot, []

        def both(system, start, targets, rel_tol, abs_tol, keep_states=False):
            got = shoot(system, start, targets, rel_tol, abs_tol, keep_states)
            want = _generic_shoot(shoot, system, start, targets, rel_tol, abs_tol, keep_states)
            hashes.append((_shot_hash(start, got), _shot_hash(start, want)))
            return got

        monkeypatch.setattr(morse, "_shoot", both)
        build_complex(make(q))
        assert len(hashes) >= 50
        assert all(got == want for got, want in hashes)

    def test_registered_observe_is_called_for_the_start_state_only(self):
        # the torus complex (several targets a shot) and keep-states shots,
        # counted by a profile hook, so that no wrapper hides the observe
        calls, shots = [], []

        def profile(frame, event, arg):
            if event != "call":
                return
            if frame.f_code is morse._shoot.__code__:
                shots.append(frame.f_locals["keep_states"])
            elif frame.f_code.co_name == "observe" and frame.f_globals["__name__"] == "defham.morse":
                calls.append(frame.f_locals["t"])

        sys.setprofile(profile)
        try:
            build_complex(torus_spec())
            adiabatic_deviation(inside_z_spec(), [1.0])
        finally:
            sys.setprofile(None)
        assert len(shots) >= 50 and any(shots) and not all(shots)
        assert calls == [0.0] * len(shots)

    def test_integration_error_in_the_box(self):
        # x1' = -1/x1^2 reaches x1 = 0 at t = 1/3, inside the box, where the
        # step underflows: the shot blows up with its last accepted state
        zero = ex.parse("0", 2)
        spec = MorseSpec(2, ex.parse("x2^2 - 1/x1", 2), [zero, zero], zero)
        system = _System(spec, MorseOptions())
        start, targets = np.array([1.0, 0.5]), [np.array([1.5, -1.0])]
        with pytest.raises(IntegrationError, match="underflow"):
            rkf45_path(system.rhs, start, 200.0, 1e-9, 1e-11, 1, lambda t, z: None)
        for keep in (False, True):
            got = morse._shoot(system, start, targets, 1e-9, 1e-11, keep)
            want = _generic_shoot(morse._shoot, system, start, targets, 1e-9, 1e-11, keep)
            assert got.outcome == want.outcome == "blew_up"
            assert got.last_state == want.last_state and system.in_box(got.last_state)
            assert _shot_hash(start, got) == _shot_hash(start, want)

    def test_blow_up_in_the_box_is_its_own_fate(self):
        # the shot above ends in IntegrationError inside the box: a blow-up,
        # which neither the escaped fraction nor a face-keyed fate counts;
        # a blow-up past a face keeps that face's escape fate
        zero = ex.parse("0", 2)
        spec = MorseSpec(2, ex.parse("x2^2 - 1/x1", 2), [zero, zero], zero)
        system = _System(spec, MorseOptions())
        shot = morse._shoot(system, np.array([1.0, 0.5]), [np.array([1.5, -1.0])], 1e-9, 1e-11)
        assert shot.outcome == "blew_up"
        assert morse._fate(system, shot) == ("blew_up",)
        [(axis, lo, hi), *_] = system.bounded_axes
        past = [0.5] * system.dim
        past[axis] = math.nextafter(hi, math.inf)
        shot = morse._ShotResult("blew_up", None, [math.inf], [], last_state=past)
        assert morse._fate(system, shot) == ("escaped", axis, 1)

    def test_watch_escapes_one_ulp_beyond_the_box(self, monkeypatch):
        # the box test of the watch is in_box's: a state at lo - 0.5 or
        # hi + 0.5 stays in, one ulp beyond escapes
        box = [(-2.0, 2.0), (-0.3, 0.7), (-1.1, 1.3), (0.1, 2.9)]
        system = _System(circle_spec(), MorseOptions(search_box=box))
        for axis, lo, hi in system.bounded_axes:
            for edge, beyond in ((lo - 0.5, -math.inf), (hi + 0.5, math.inf)):
                inside, outside = [0.5] * 4, [0.5] * 4
                inside[axis], outside[axis] = edge, math.nextafter(edge, beyond)
                states = [[0.5] * 4, inside, outside, [0.5] * 4]
                shot = _replayed_shot(monkeypatch, system, [np.zeros(4)], states)
                assert (shot.outcome, shot.last_state) == ("escaped", outside)
                assert system.in_box(inside) and not system.in_box(outside)


class TestBoxTest:
    @pytest.mark.parametrize("name, margin", [("in_box", 0.5), ("in_search_box", 1e-6)])
    def test_folded_bounds_are_the_doubles_of_the_rule(self, name, margin):
        # the shots' margin 0.5 and Newton's 1e-6, folded into constants:
        # a coordinate at lo - margin or hi + margin is inside, one ulp
        # beyond is outside, and a nan coordinate counts as inside
        box = [(-2.0, 2.0), (-0.3, 0.7), (-1.1, 1.3), (0.1, 2.9)]
        system = _System(circle_spec(), MorseOptions(search_box=box))
        test = getattr(system, name)
        assert len(system.bounded_axes) == 4
        for axis, lo, hi in system.bounded_axes:
            for edge, beyond in ((lo - margin, -math.inf), (hi + margin, math.inf)):
                u = [0.5] * system.dim
                for value, inside in ((edge, True), (math.nextafter(edge, beyond), False),
                                      (math.nan, True)):
                    u[axis] = value
                    assert test(u) is inside and bool(test(np.array(u))) is inside

    def test_torus_angles_are_unbounded(self):
        system = _System(torus_spec(), MorseOptions())
        assert system.bounded_axes == []
        assert system.in_box([100.0, -100.0]) and system.in_search_box([100.0, -100.0])


class TestRhsCounting:
    def test_one_jet_gradient_per_rhs_call(self, monkeypatch):
        # a wrapper patched on the class attribute JetEvaluator.gradient sees
        # every rhs call of a shot, also one generated before the patch, and
        # the rhs reports the morse module
        system = _System(circle_spec(), MorseOptions())
        assert system.rhs.__module__ == "defham.morse"
        counts = {"gradient": 0, "rhs": 0}
        gradient, path = ex.JetEvaluator.gradient, morse.rkf45_path

        def counting_gradient(jet, z):
            counts["gradient"] += 1
            return gradient(jet, z)

        def counting_path(rhs, *args, **kwargs):
            def counted(u):
                counts["rhs"] += 1
                return rhs(u)

            return path(counted, *args, **kwargs)

        monkeypatch.setattr(ex.JetEvaluator, "gradient", counting_gradient)
        monkeypatch.setattr(morse, "rkf45_path", counting_path)
        targets = [p.coords() for p in find_critical_points(system.spec) if p.index == 1]
        counts["gradient"] = 0  # Newton's gradients
        start = np.array([0.03, 1.02, -0.5, 0.04])
        morse._shoot(system, start, targets, 1e-9, 1e-11)
        assert counts["rhs"] > 100
        assert counts["gradient"] == counts["rhs"]


class TestHomologyHelpers:
    def test_mod2_rank_hand_cases(self):
        assert mod2_rank(np.array([[1, 1], [1, 1]])) == 1
        assert mod2_rank(np.array([[2, 0], [0, 2]])) == 0
        assert mod2_rank(np.eye(3, dtype=int)) == 3
        assert mod2_rank(np.zeros((2, 3), dtype=int)) == 0

    def test_circle_chain_complex_by_hand(self):
        # [DERIVED] C_1 = C_0 = Z/2^2 with full boundary [[1,1],[1,1]]:
        # rank 1, so H_0 = H_1 = Z/2.
        dummy = object()
        complex_ = MorseComplex(
            generators={0: [dummy, dummy], 1: [dummy, dummy]},
            boundary={1: np.array([[1, 1], [1, 1]], dtype=np.uint8)},
            flow_line_counts={},
        )
        assert homology_ranks(complex_) == {0: 1, 1: 1}


class TestAdiabatic:
    def test_flow_line_inside_constraint_has_zero_deviation(self):
        # [DERIVED] for the inside-Z fixture the connecting flow line lies
        # in the constraint surface for every q, so deviations stay at the
        # numerical floor.
        spec = inside_z_spec()
        devs = adiabatic_deviation(spec, [1.0, 0.5, 0.3])
        assert [q for q, _ in devs] == [1.0, 0.5, 0.3]
        assert all(d <= 1e-8 for _, d in devs)
