"""End-to-end acceptance gate: one test (and one printed pass/fail line)
per shipped acceptance criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines;
the printed summary also appears with `-s`.
"""

import hashlib
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from defham import expr as ex
from defham import morse
from defham.bracket import admissibility_defect, jacobi_defect
from defham.cli import EXIT_PASS, run_scenario
from defham.dynamics import (
    FlowSpec,
    integrate,
    integrate_variational,
    pullback_defect,
    energy_derivative_defect,
)
from defham.forms import deformed_derivative, symbolic_bracket
from defham.morse import (
    MorseSpec,
    adiabatic_deviation,
    build_complex,
    homology_ranks,
)
from defham.phase import MetricFamily, PhasePoint, fibre_volume_ratio, signature

from conftest import random_polynomial_expr, random_point, random_poly
from test_forms import random_form
from test_morse import circle_spec, torus_spec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the two Morse scenarios whose determinism check takes most of a minute
_SLOW_GOLDEN = {"adiabatic_s1", "morse_s1"}
GOLDEN = [
    pytest.param(p, id=p.stem, marks=pytest.mark.slow) if p.stem in _SLOW_GOLDEN
    else pytest.param(p, id=p.stem)
    for p in sorted(SCENARIOS.glob("*.json"))
]
# `python tools/golden_sha256.py` output: "<sha256>  <scenario>/<file>" lines
GOLDEN_SHA256 = Path(__file__).resolve().parent / "golden_sha256.txt"


# raw flow-line counts of each complex a golden scenario builds, in build
# order; the golden bytes keep some only mod 2, so 0 lines where there are 2
# would keep every hash.  Scenarios not named build none.
_CIRCLE_LINES = {((2, 0), (1, 0)): 2}
_TORUS_LINES = {((1, 0), (0, 0)): 2, ((1, 1), (0, 0)): 2, ((2, 0), (1, 0)): 2, ((2, 0), (1, 1)): 2}
FLOW_LINE_COUNTS = {
    "adiabatic_s1": [_CIRCLE_LINES],
    "morse_s1": [_CIRCLE_LINES] * 3,  # q = 1, 1/2, 1/4
    "morse_t2": [_TORUS_LINES],
}


def _pinned_sha256(stem: str) -> dict:
    """file name -> pinned sha256 of each file the golden scenario writes."""
    pinned = {}
    for line in GOLDEN_SHA256.read_text().splitlines():
        digest, path = line.split()
        scenario, name = path.split("/")
        if scenario == stem:
            pinned[name] = digest
    return pinned


def _report(number, title):
    print(f"criterion {number:2d} ({title}): PASS")


def test_criterion_01_exact_nilpotency(rng):
    # d_q^2 = 0 exactly, rational arithmetic, 50 random 0/1-forms, < 5 s.
    started = time.perf_counter()
    for _ in range(50):
        a = random_form(rng, 2, max_degree=1)
        for q in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)):
            assert deformed_derivative(deformed_derivative(a, q), q).is_zero()
    assert time.perf_counter() - started < 5.0
    _report(1, "exact nilpotency d_q^2 = 0")


def test_criterion_02_dissipation_identity(rng):
    # Relative defect <= 1e-12 over 1000 random (H, q, z) samples, < 5 s.
    started = time.perf_counter()
    qs = (-2.0, -1.0, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0)
    count = 0
    while count < 1000:
        h = random_polynomial_expr(rng, 2)
        for q in qs:
            z = PhasePoint.from_array(random_point(rng, 2, scale=2.0))
            assert energy_derivative_defect(h, q, z) <= 1e-12
            count += 1
    assert time.perf_counter() - started < 5.0
    _report(2, "dissipation identity defect <= 1e-12")


def test_criterion_03_regime_trichotomy(tmp_path):
    # sign(dH/dt) = sign(1/q - 1) across the q sweep; |dH| <= 1e-8 at q = 1
    # over t in [0, 10] with rk4 step 1e-3.
    assert run_scenario(SCENARIOS / "regime_trichotomy.json", tmp_path / "a") == EXIT_PASS
    spec = FlowSpec(
        ex.parse("(x1^2 + y1^2)/2", 1), 1, 1.0, step=1e-3, t_final=10.0, sample_stride=100
    )
    traj = integrate(spec, PhasePoint((1.0,), (2.0,)))
    assert np.max(np.abs(traj.energies - traj.energies[0])) <= 1e-8
    # positive-dissipation fixture: H = x1 y1 from (1,1) keeps H_x H_y > 0
    for q, sign in ((2.0, -1.0), (1.5, -1.0), (2.0 / 3.0, 1.0), (0.5, 1.0)):
        s = FlowSpec(
            ex.parse("x1*y1", 1), 1, q, integrator="rkf45",
            rel_tol=1e-11, abs_tol=1e-13, t_final=2.0, sample_stride=5,
        )
        t = integrate(s, PhasePoint((1.0,), (1.0,)))
        diffs = np.diff(t.energies)
        assert np.all(np.sign(diffs) == sign)
    _report(3, "regime trichotomy in q")


def test_criterion_04_simple_vs_nonsimple():
    # Simple fixture stays symplectic to 1e-6 up to t = 10 at q = 1/3;
    # non-simple fixture has defect >= 1e-2 at t = 1, stable as step -> 0.
    pend = FlowSpec(
        ex.parse("y1^2/2 + (1 - cos(x1))", 1), 1, 1.0 / 3.0, integrator="rkf45",
        rel_tol=1e-11, abs_tol=1e-13, t_final=10.0, sample_stride=100,
    )
    vf = integrate_variational(pend, PhasePoint((1.0,), (0.5,)))
    assert max(d for _, d in pullback_defect(vf, mode="symplectic")) <= 1e-6

    def nonsimple_defect(rel_tol):
        s = FlowSpec(
            ex.parse("x1^2*y1^2", 1), 1, 0.5, integrator="rkf45",
            rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, t_final=1.0, sample_stride=100,
        )
        v = integrate_variational(s, PhasePoint((0.5,), (0.5,)))
        return pullback_defect(v, mode="symplectic")[-1][1]

    d_coarse = nonsimple_defect(1e-9)
    d_fine = nonsimple_defect(1e-12)
    assert d_coarse >= 1e-2 and d_fine >= 1e-2
    assert d_coarse == pytest.approx(d_fine, rel=1e-5)
    _report(4, "simple symplectic / non-simple defect")


def test_criterion_05_conformal_flow():
    # H = x1 y1 + x2 y2, q = 1/2: pullback equals e^t omega to 1e-6 up to
    # t = 1 and the Jacobian matches diag(e^{2t}, e^{2t}, e^{-t}, e^{-t}).
    spec = FlowSpec(
        ex.parse("x1*y1 + x2*y2", 2), 2, 0.5, integrator="rkf45",
        rel_tol=1e-11, abs_tol=1e-13, t_final=1.0, sample_stride=10,
    )
    vf = integrate_variational(spec, PhasePoint((1.0, 0.5), (1.0, -0.5)))
    defects = pullback_defect(vf, mode="conformal", c=1.0)
    assert max(d for _, d in defects) <= 1e-6
    for t, jac in zip(vf.trajectory.ts, vf.jacobians):
        want = np.diag(
            [math.exp(2.0 * t), math.exp(2.0 * t), math.exp(-t), math.exp(-t)]
        )
        assert np.max(np.abs(jac - want)) <= 1e-6
    _report(5, "conformal pullback and Jacobian")


def test_criterion_06_lie_admissibility(rng):
    # Numeric defect <= 1e-10 on 100 pairs x 4 q; exact zero symbolically;
    # Jacobi defect of the antisymmetrized bracket <= 1e-8.
    qs = (1.0 / 3.0, 0.5, 2.0, 3.0)
    for _ in range(100):
        h = random_polynomial_expr(rng, 2)
        f = random_polynomial_expr(rng, 2)
        z = PhasePoint.from_array(random_point(rng, 2))
        for q in qs:
            assert admissibility_defect(h, f, q, z) <= 1e-10
    for _ in range(25):
        hp = random_poly(rng, 2)
        fp = random_poly(rng, 2)
        for q in (Fraction(1, 3), Fraction(2)):
            anti = symbolic_bracket(hp, fp, q) - symbolic_bracket(fp, hp, q)
            assert (anti - symbolic_bracket(hp, fp, 1) * (1 + 1 / q)).is_zero()
    for _ in range(25):
        h = random_polynomial_expr(rng, 2, degree=2, terms=4)
        f = random_polynomial_expr(rng, 2, degree=2, terms=4)
        g = random_polynomial_expr(rng, 2, degree=2, terms=4)
        z = PhasePoint.from_array(random_point(rng, 2))
        assert jacobi_defect(h, f, g, 0.5, z) <= 1e-8
    _report(6, "Lie-admissibility and Jacobi")


@pytest.mark.slow
def test_criterion_07_morse_circle_fixture():
    # Two critical points at (0, -/+1, +/-1/2, 0) within 1e-8, indices
    # {1, 2}, raw count 2 with mod-2 boundary 0, ranks {1: 1, 2: 1}
    # identical for q in {1, 1/2, 1/4}; runtime < 60 s.
    started = time.perf_counter()
    seconds = {}
    for q in (1.0, 0.5, 0.25):
        q_started = time.perf_counter()
        complex_ = build_complex(circle_spec(q=q))
        points = sorted(
            (p for ps in complex_.generators.values() for p in ps),
            key=lambda p: p.index,
        )
        assert [p.index for p in points] == [1, 2]
        assert points[0].coords() == pytest.approx([0.0, -1.0, 0.5, 0.0], abs=1e-8)
        assert points[1].coords() == pytest.approx([0.0, 1.0, -0.5, 0.0], abs=1e-8)
        assert complex_.flow_line_counts[((2, 0), (1, 0))] == 2
        assert int(complex_.boundary[2][0, 0]) == 0
        assert homology_ranks(complex_) == {1: 1, 2: 1}
        seconds[q] = round(time.perf_counter() - q_started, 1)
    assert time.perf_counter() - started < 60.0, f"seconds per q: {seconds}"
    _report(7, "circle Morse complex, q-independent ranks")


def test_criterion_08_torus_sanity():
    # Ordinary Morse homology of T^2 gives ranks (1, 2, 1) with d^2 = 0.
    complex_ = build_complex(torus_spec())
    assert homology_ranks(complex_) == {0: 1, 1: 2, 2: 1}
    d2 = complex_.boundary[1].astype(int) @ complex_.boundary[2].astype(int)
    assert np.all(d2 % 2 == 0)
    _report(8, "torus Morse homology (1, 2, 1)")


@pytest.mark.slow
def test_criterion_09_adiabatic_limit():
    # Flow-line deviation from Z strictly decreases along q = 1, 0.3, 0.1,
    # 0.03 with total decrease factor >= 5 (pinned at 36.3 by the golden
    # scenario's frozen oracle value).
    devs = adiabatic_deviation(circle_spec(), [1.0, 0.3, 0.1, 0.03])
    values = [d for _, d in devs]
    assert all(a > b for a, b in zip(values, values[1:]))
    factor = values[0] / values[-1]
    assert factor >= 5.0
    assert factor >= 36.3
    _report(9, "adiabatic deviation decreases, factor >= 5")


def test_criterion_10_metric_geometry():
    # Fibre-volume ratio equals q^{n/2} to 1e-15 on a 7-point sweep; the
    # signature flips to (n, n) at q = -1.
    qs = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    for n in (1, 2):
        for q in qs:
            got = fibre_volume_ratio(MetricFamily(n, q))
            assert abs(got - q ** (n / 2.0)) <= 1e-15
    assert signature(MetricFamily(2, -1.0)) == (2, 2)
    assert signature(MetricFamily(3, -1.0)) == (3, 3)
    _report(10, "fibre volume q^{n/2} and split signature")


@pytest.mark.parametrize("scenario", GOLDEN)
def test_criterion_11_determinism(monkeypatch, tmp_path, scenario):
    # Repeated runs of every golden scenario are byte-identical, and the
    # first run writes the pinned golden bytes and finds the pinned raw
    # flow-line counts.
    out1, out2 = tmp_path / "a", tmp_path / "b"
    counts, build = [], morse.build_complex

    def recording(*args, **kwargs):
        complex_ = build(*args, **kwargs)
        counts.append(complex_.flow_line_counts)
        return complex_

    with monkeypatch.context() as patch:
        patch.setattr(morse, "build_complex", recording)
        assert run_scenario(scenario, out1) == EXIT_PASS
    assert counts == FLOW_LINE_COUNTS.get(scenario.stem, [])
    assert run_scenario(scenario, out2) == EXIT_PASS
    names = sorted(p.name for p in out1.iterdir())
    digests = {name: hashlib.sha256((out1 / name).read_bytes()).hexdigest() for name in names}
    assert digests == _pinned_sha256(scenario.stem)
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(11, f"determinism: {scenario.stem}")
