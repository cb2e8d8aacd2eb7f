"""Scenario validation, execution, exit codes and artifact determinism."""

import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from defham import cli
from defham import dynamics as dyn
from defham import expr as ex
from defham import morse
from defham.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_INVALID,
    EXIT_PASS,
    ScenarioError,
    _flow_spec,
    _z0,
    main,
    run_scenario,
    validate_scenario,
)
from defham.phase import PhasePoint

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def classify_doc(**overrides):
    doc = {
        "kind": "classify",
        "name": "unit fixture",
        "n": 1,
        "hamiltonian": "x1*y1",
        "expect": {
            "simple": False,
            "exceptionally_simple": False,
            "conformal_ratio": [1, 1],
        },
        "output": "classification.json",
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def assert_invalid_for_validate_and_run(tmp_path, base, change, message):
    """The golden scenario ``base`` with ``change`` applied exits 2 from both
    ``validate`` and ``run``, with ``message``, and writes no report."""
    doc = json.loads((SCENARIOS / f"{base}.json").read_text())
    doc.update(change)
    with pytest.raises(ScenarioError, match=message):
        validate_scenario(doc)
    path = write_doc(tmp_path, doc)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert run_scenario(path, tmp_path) == EXIT_INVALID
    assert not (tmp_path / "report.json").exists()


class TestValidation:
    def test_valid_document_passes(self):
        validate_scenario(classify_doc())

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="/kind"):
            validate_scenario(classify_doc(kind="optimize"))

    def test_q_zero_rejected(self):
        doc = {
            "kind": "simulate",
            "name": "x",
            "n": 1,
            "q": 0,
            "hamiltonian": "x1*y1",
            "z0": [1.0, 1.0],
            "t_final": 1.0,
            "integrator": {"type": "rk4", "step": 0.01},
            "output": "t.csv",
        }
        with pytest.raises(ScenarioError, match="/q: q must be nonzero"):
            validate_scenario(doc)

    def test_schema_violation_has_json_pointer(self):
        with pytest.raises(ScenarioError, match="/n"):
            validate_scenario(classify_doc(n="one"))

    def test_bad_expression_reported_with_path(self):
        with pytest.raises(ScenarioError, match="/hamiltonian"):
            validate_scenario(classify_doc(hamiltonian="x1 +"))

    def test_z0_length_mismatch(self):
        doc = {
            "kind": "simulate",
            "name": "x",
            "n": 2,
            "q": 1.0,
            "hamiltonian": "x1*y1 + x2*y2",
            "z0": [1.0, 1.0],
            "t_final": 1.0,
            "integrator": {"type": "rk4", "step": 0.01},
            "output": "t.csv",
        }
        with pytest.raises(ScenarioError, match="/z0"):
            validate_scenario(doc)

    def test_w_length_mismatch(self):
        doc = {
            "kind": "morse",
            "name": "x",
            "n": 2,
            "f": "x1",
            "w": ["0"],
            "g": "0",
            "q": 1.0,
            "output": "r.json",
        }
        with pytest.raises(ScenarioError, match="/w"):
            validate_scenario(doc)

    def test_conformal_mode_requires_c(self):
        doc = {
            "kind": "verify-flow",
            "name": "x",
            "n": 1,
            "q": 0.5,
            "hamiltonian": "x1*y1",
            "z0": [1.0, 1.0],
            "t_final": 1.0,
            "integrator": {"type": "rkf45", "rel_tol": 1e-9, "abs_tol": 1e-11},
            "mode": "conformal",
            "output": "r.json",
            "checks": [],
        }
        with pytest.raises(ScenarioError, match="/c"):
            validate_scenario(doc)

    def test_not_an_object(self):
        with pytest.raises(ScenarioError):
            validate_scenario([1, 2, 3])

    @pytest.mark.parametrize(
        "key, number",
        [("t_final", "Infinity"), ("t_final", "NaN"), ("q", "Infinity"), ("t_final", "1e999"),
         ("t_final", "1" + "0" * 400)],
        ids=["t_final_infinity", "t_final_nan", "q_infinity", "t_final_1e999", "t_final_big_int"],
    )
    def test_non_finite_number_is_invalid_for_validate_and_run(
        self, tmp_path, capsys, key, number
    ):
        # Python's json reads these; before the shared loader, validate passed
        # them and run crashed (exit 1), exited 2, or passed q = Infinity
        doc = {
            "kind": "simulate", "name": "x", "n": 1, "q": 1.0,
            "hamiltonian": "(x1^2 + y1^2)/2", "z0": [1.0, 0.0], "t_final": 1.0,
            "integrator": {"type": "rk4", "step": 0.01}, "output": "t.csv",
        }
        del doc[key]
        path = tmp_path / "scenario.json"
        path.write_text(f'{json.dumps(doc)[:-1]}, "{key}": {number}}}')
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_INVALID
        assert not (tmp_path / "report.json").exists()
        err = capsys.readouterr().err
        assert err.count("is not a finite float") == 2 and "Traceback" not in err


class TestRun:
    def test_passing_scenario_exits_zero(self, tmp_path):
        path = write_doc(tmp_path, classify_doc())
        assert run_scenario(path, tmp_path) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert all(record["pass"] for record in report["checks"])
        assert (tmp_path / "classification.json").exists()

    def test_failing_check_exits_one(self, tmp_path):
        doc = classify_doc()
        doc["expect"]["simple"] = True  # wrong on purpose
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is False

    def test_invalid_scenario_exits_two(self, tmp_path):
        path = write_doc(tmp_path, classify_doc(kind="optimize"))
        assert run_scenario(path, tmp_path) == EXIT_INVALID
        assert not (tmp_path / "report.json").exists()

    def test_unreadable_file_exits_two(self, tmp_path):
        assert run_scenario(tmp_path / "missing.json", tmp_path) == EXIT_INVALID
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_scenario(bad, tmp_path) == EXIT_INVALID

    @pytest.mark.parametrize("out_dir", ["F", "F/sub"])
    def test_output_directory_that_cannot_be_made_exits_two(
        self, tmp_path, capsys, monkeypatch, out_dir
    ):
        # F is a file; the directory is refused before any computation
        path = write_doc(tmp_path, classify_doc())
        (tmp_path / "F").write_text("")
        monkeypatch.setitem(cli._RUNNERS, "classify", None)  # not called
        assert main(["run", str(path), "--out-dir", str(tmp_path / out_dir)]) == EXIT_INVALID
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot write: ")

    def test_artifact_that_cannot_be_written_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, classify_doc())
        (tmp_path / "report.json").mkdir()
        assert run_scenario(path, tmp_path) == EXIT_INVALID
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot write: ") and "report.json" in line

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_artifacts_honour_the_umask(self, tmp_path, umask, mode):
        # the mode open(path, "w") would give, through the atomic rename
        path = write_doc(tmp_path, classify_doc())
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert run_scenario(path, out) == EXIT_PASS
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == {"classification.json": mode, "report.json": mode}

    def test_main_entry_point(self, tmp_path):
        path = write_doc(tmp_path, classify_doc())
        assert main(["validate", str(path)]) == EXIT_PASS
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_PASS
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_INVALID

    def test_bracket_q_minus_one_is_invalid_for_validate_and_run(self, tmp_path):
        doc = json.loads((SCENARIOS / "bracket_random.json").read_text())
        doc["q_list"] = [0.5, -1.0]
        path = write_doc(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert run_scenario(path, tmp_path) == EXIT_INVALID
        assert not (tmp_path / "report.json").exists()

    def test_morse_without_critical_points_fails(self, tmp_path):
        # H = x1 + y1 (x1^2 + 1): dH/dy1 never vanishes, so the complex is empty
        doc = {"kind": "morse", "n": 1, "f": "x1", "w": ["x1^2 + 1"], "g": "0", "q_list": [1.0]}
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [
            {"name": "critical_points_found", "measured": False, "threshold": True, "pass": False}
        ]

    @pytest.mark.parametrize(
        "base,change,message",
        [
            ("morse_s1", {"q": 1.5}, "/q: q must lie in"),
            ("adiabatic_s1", {"adiabatic_q_list": [1.0, 2.0]}, "/adiabatic_q_list/1: q must lie in"),
            ("adiabatic_s1", {"box": [[-2, 2], [-2, 2]]}, "/box: search box must have 4 entries"),
            # a reversed or zero-width entry leaves Newton no span to step in
            ("morse_s1", {"box": [[-2, 2], [2, -2], [-2, 2], [-2, 2]]},
             r"/box: search box entry 1 needs lo < hi, got \[2.0, -2.0\]"),
            ("morse_s1", {"box": [[-2, 2], [-2, 2], [-2, 2], [1, 1]]},
             r"/box: search box entry 3 needs lo < hi, got \[1.0, 1.0\]"),
            ("morse_t2", {"box": [[3, -3], [3, -3]]},
             r"/box: search box entry 0 needs lo < hi, got \[3.0, -3.0\]"),
            ("morse_t2", {"box": [[0, 6], [0, 0]]},
             r"/box: search box entry 1 needs lo < hi, got \[0.0, 0.0\]"),
            ("morse_t2", {"adiabatic_q_list": [1.0, 0.5]}, "needs a nontrivial constraint"),
            # q would be ignored: a run builds one complex per q_list entry
            ("morse_s1", {"q": 0.9}, "/q: .*set q or q_list"),
            # the shooting numerics are MorseOptions constants, not scenario keys
            ("morse_s1", {"grid": 9}, "'grid' was unexpected"),
            ("morse_s1", {"mesh": 24}, "'mesh' was unexpected"),
            ("morse_s1", {"shoot_radius": 0.1}, "'shoot_radius' was unexpected"),
            ("morse_s1", {"capture_radius": 0.01}, "'capture_radius' was unexpected"),
            ("morse_s1", {"t_max": 50.0}, "'t_max' was unexpected"),
        ],
        ids=[
            "q", "adiabatic_q", "box", "box_reversed_plane", "box_zero_width_plane",
            "box_reversed_torus", "box_zero_width_torus", "adiabatic_base_only", "q_and_q_list",
            "grid", "mesh", "shoot_radius", "capture_radius", "t_max",
        ],
    )
    def test_morse_spec_is_invalid_for_validate_and_run(self, tmp_path, base, change, message):
        assert_invalid_for_validate_and_run(tmp_path, base, change, message)

    def test_morse_box_sized_to_the_working_space(self):
        # base-only (w = 0, g = 0) works in n coordinates, the multiplier system in 2n
        torus = json.loads((SCENARIOS / "morse_t2.json").read_text())
        validate_scenario(dict(torus, box=[[0, 6], [0, 6]]))
        with pytest.raises(ScenarioError, match="/box: search box must have 2 entries"):
            validate_scenario(dict(torus, box=[[0, 6]] * 4))
        circle = json.loads((SCENARIOS / "morse_s1.json").read_text())
        validate_scenario(dict(circle, box=[[-2, 2]] * 4))

    @pytest.mark.parametrize(
        "base,change,message",
        [
            ("classify_conformal", {"hamiltonian": "sin(x1)"}, "/hamiltonian: transcendental"),
            ("classify_conformal", {"hamiltonian": "x1/y1"}, "/hamiltonian: non-polynomial"),
            ("oscillator_energy", {"checks": [{"name": "c", "measure": "bogus", "threshold": 1}]},
             "/checks/0/measure"),
            ("pendulum_symplectic",
             {"checks": [{"name": "c", "measure": "bogus", "threshold": 1}]}, "/checks/0/measure"),
            ("oscillator_energy", {"hamiltonian": "x1^2 + 0^-1"},
             "/hamiltonian: constant zero raised to a negative power"),
            # the parser and the polynomial conversion recurse per level
            ("oscillator_energy", {"hamiltonian": "(" * 1200 + "x1^2 + y1^2" + ")" * 1200},
             "/hamiltonian: expression nested too deeply"),
            ("classify_conformal", {"hamiltonian": " + ".join(["x1*y1"] * 3000)},
             "/hamiltonian: expression nested too deeply"),
            # 10^15 RK4 steps would run without end; the bounds are 10^6 a
            # flow (t_final / step, default step 1e-3) and 5 * 10^6 a sweep
            ("oscillator_energy", {"t_final": 1e6, "integrator": {"type": "rk4", "step": 1e-9}},
             r"/integrator/step: 1e\+15 RK4 steps per flow .* 1,000,000"),
            ("pendulum_symplectic", {"t_final": 1001.0, "integrator": {"type": "rk4"}},
             r"/t_final: 1e\+06 RK4 steps per flow"),
            ("regime_trichotomy", {"q_list": [0.5] * 501},
             r"/q_list: 5.01e\+06 RK4 steps in the sweep's 501 flows .* 5,000,000"),
        ],
        ids=["classify_sin", "classify_quotient", "simulate_measure", "verify_flow_measure",
             "simulate_zero_power", "simulate_nested_parentheses", "classify_deep_sum",
             "simulate_rk4_steps", "verify_flow_default_rk4_steps", "sweep_rk4_steps"],
    )
    def test_kind_input_is_invalid_for_validate_and_run(self, tmp_path, base, change, message):
        assert_invalid_for_validate_and_run(tmp_path, base, change, message)

    def test_long_sum_runs(self, tmp_path):
        # a sum is one tree level per term; its generated source nests no brackets
        doc = json.loads((SCENARIOS / "oscillator_energy.json").read_text())
        doc.update(hamiltonian=" + ".join(["x1^2/200"] * 100 + ["y1^2/200"] * 100), t_final=1.0)
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_PASS

    @pytest.mark.parametrize(
        "data",
        [{"f": "exp(x1^2)", "box": [[-40, 40]]}, {"f": "x1^2 + sin(x1^4000)"}],
        ids=["overflow", "domain_error"],
    )
    def test_morse_newton_seed_that_cannot_be_evaluated_is_skipped(self, tmp_path, capsys, data):
        # Newton from the far seeds raises OverflowError (exp(1600)) or
        # ValueError (sin(inf)); the minimum at 0 is still found
        path = write_doc(tmp_path, {"kind": "morse", "n": 1, "w": ["0"], "g": "0", **data})
        assert run_scenario(path, tmp_path) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["name"] for r in report["checks"]] == ["critical_point_residual"]
        morse_report = json.loads((tmp_path / "morse_report.json").read_text())
        assert morse_report["homology_ranks"] == {"0": 1}
        assert "Traceback" not in capsys.readouterr().err

    def test_fibre_volume_power_needs_its_observable(self, tmp_path):
        doc = json.loads((SCENARIOS / "fibre_volume_sweep.json").read_text())
        doc["observables"] = ["delta_H"]
        path = write_doc(tmp_path, doc)
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert run_scenario(path, tmp_path) == EXIT_INVALID
        assert not (tmp_path / "report.json").exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = write_doc(tmp_path, classify_doc())
        run_scenario(path, tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []


BLOW_UP = {"hamiltonian": "y1*x1^2", "n": 1, "z0": [1, 0], "t_final": 2}


def regime_sweep(**overrides):
    doc = {
        "kind": "sweep", "name": "regime", "n": 1, "q_list": [2.0, 1.0, 0.5],
        "hamiltonian": "(x1^2 + y1^2)/2", "z0": [1.0, 2.0], "t_final": 1.0,
        "integrator": {"type": "rk4", "step": 0.01},
        "observables": ["delta_H"], "checks": [{"type": "regime_trichotomy"}],
        "output": "sweep.csv",
    }
    doc.update(overrides)
    return doc


# sums of up to five terms, each an integer times up to three factors
_FACTORS = ["x1", "x2", "y1", "y2", "sin(x1)", "cos(x2)", "sin(y1)", "exp(y2/4)", "1/(2 + x1^2)"]
_HAMILTONIANS = st.lists(
    st.tuples(st.integers(-3, 3), st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3)),
    min_size=1,
    max_size=5,
).map(lambda terms: " + ".join(f"({c})*" + "*".join(factors) for c, factors in terms))


class TestSweepChecks:
    def test_row_whose_flow_blows_up_is_a_violation(self, tmp_path):
        # [DERIVED] xdot = x1^2 / q from x1 = 1 escapes at t = q < 2
        path = write_doc(tmp_path, regime_sweep(q_list=[1.0, 0.5], **BLOW_UP))
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [
            {"name": "regime_trichotomy_violations", "measured": 2, "threshold": 0, "pass": False}
        ]
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[1:] == [
            "0.5,,solution blew up at t=0.53",
            "1,,solution blew up at t=1.03",
        ]

    def test_regime_check_integrates_rows_without_flow_observables(self, tmp_path):
        # every row counts as a violation unless its flow was integrated and checked
        path = write_doc(tmp_path, regime_sweep(observables=["fibre_volume_ratio"]))
        assert run_scenario(path, tmp_path) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [
            {"name": "regime_trichotomy_violations", "measured": 0, "threshold": 0, "pass": True}
        ]

    def test_flow_with_no_coupled_sample_is_a_violation(self, tmp_path):
        # [DERIVED] H = x1^2/2 has H_y1 = 0, so no sample is coupled and the
        # check of each q != 1 row has nothing to check
        path = write_doc(tmp_path, regime_sweep(hamiltonian="x1^2/2", q_list=[2.0, 0.5]))
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"] == [
            {"name": "regime_trichotomy_violations", "measured": 2, "threshold": 0, "pass": False}
        ]

    def test_final_h_and_symplectic_defect_rows_equal_the_library(self, tmp_path):
        # .17g round-trips a float64, so each cell equals its library value bit for bit
        doc = regime_sweep(
            hamiltonian="(x1^2 + y1^2)/2 + x1^3/3", observables=["final_H", "symplectic_defect"],
            checks=[],
        )
        assert run_scenario(write_doc(tmp_path, doc), tmp_path) == EXIT_PASS
        header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header == "q,final_H,symplectic_defect,error"
        hamiltonian = ex.parse(doc["hamiltonian"], doc["n"])
        assert [float(row.split(",")[0]) for row in rows] == sorted(doc["q_list"])
        for row in rows:
            q, final_h, defect, error = row.split(",")
            spec = _flow_spec(doc, hamiltonian, float(q))
            want_defect = max(
                d for _, d in dyn.pullback_defect(dyn.integrate_variational(spec, _z0(doc)))
            )
            assert float(final_h) == dyn.integrate(spec, _z0(doc)).energies[-1]
            assert float(defect) == want_defect
            assert error == ""

    def test_golden_counts_equal_the_float64_check(self):
        doc = json.loads((SCENARIOS / "regime_trichotomy.json").read_text())
        tol = doc["checks"][0]["tol"]
        for q in doc["q_list"]:
            if q == 1:
                continue
            spec = _flow_spec(doc, ex.parse(doc["hamiltonian"], doc["n"]), q)
            trajectory = dyn.integrate(spec, _z0(doc))
            violations, coupled = _reference_regime_violations(spec, trajectory, tol)
            assert coupled > 1000  # x1 y1 > 0 on part of each turn
            assert dyn.regime_violations(spec, trajectory, tol) == violations == 0

    def test_sample_where_python_floats_raise_is_taken_on_float64(self, recwarn):
        # [DERIVED] at x1 = 0 the gradient of y1/x1 raises 0.0**-1; on float64
        # it is (-inf, inf), a coupling of -inf, so that sample is skipped
        spec = dyn.FlowSpec(ex.parse("y1*x1^-1", 1), 1, 0.5)
        zs = np.array([[-1.0, 1.0], [0.0, 2.0], [-2.0, 1.0]])
        trajectory = dyn.Trajectory(np.arange(3.0), zs, np.zeros(3), 1)
        with np.errstate(all="ignore"):
            violations, coupled = _reference_regime_violations(spec, trajectory, 1e-8)
        assert (violations, coupled) == (0, 2)
        assert dyn.regime_violations(spec, trajectory, 1e-8) == 0
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []

    @settings(
        max_examples=150, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        _HAMILTONIANS,
        st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
        st.sampled_from([-2.0, 0.5, 0.9, 1.1, 3.0]),
        st.sampled_from(["plane", "torus"]),
        st.sampled_from([0.0, 1e-8, 1e-3]),
    )
    def test_counts_equal_the_float64_check(self, text, z0, q, space, tol):
        # random polynomial, quotient and trig H; the sums differ from np.dot's
        # only in rounding, so a count may move only at the tolerance boundary
        spec = dyn.FlowSpec(ex.parse(text, 2), 2, q, space=space, step=0.02, t_final=1.0)
        try:
            with np.errstate(all="ignore"):
                trajectory = dyn.integrate(spec, PhasePoint(z0[:2], z0[2:]))
                violations, coupled = _reference_regime_violations(spec, trajectory, tol)
        except (dyn.IntegrationError, ArithmeticError, ValueError):
            assume(False)
        assert dyn.regime_violations(spec, trajectory, tol) == (violations if coupled else 1)

    def test_a_bug_in_a_row_propagates(self, tmp_path, monkeypatch):
        # a row records only a computation failure; a bug must not read as a failed check
        def broken(spec, z0):
            raise TypeError("a bug")

        monkeypatch.setattr(dyn, "integrate", broken)
        path = write_doc(tmp_path, json.loads((SCENARIOS / "regime_trichotomy.json").read_text()))
        with pytest.raises(TypeError, match="a bug"):
            run_scenario(path, tmp_path)

    def test_fibre_volume_power_fails_on_a_failed_row(self, tmp_path):
        # the fibre volume needs q > 0; a failed row must fail the check
        doc = json.loads((SCENARIOS / "fibre_volume_sweep.json").read_text())
        doc["q_list"] = [-0.5, -0.25]
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        [record] = json.loads((tmp_path / "report.json").read_text())["checks"]
        assert record["name"] == "fibre_volume_power" and record["pass"] is False
        assert record["measured"] == float("inf")


def _reference_regime_violations(spec, trajectory, tol):
    """The regime check of a q != 1 trajectory on float64 arrays, with np.dot
    sums: (violations, samples coupled above tol)."""
    field = dyn.HamiltonianField(spec.hamiltonian, spec.q)
    n = spec.n
    expected = 1.0 if (1.0 / spec.q - 1.0) > 0 else -1.0
    violations = coupled = 0
    for z in trajectory.zs:
        g = np.array(field.jet.gradient(z))
        coupling = float(g[:n] @ g[n:])
        if coupling <= tol:
            continue
        coupled += 1
        dhdt = float(g @ field.field_from_gradient(g.tolist()))
        if math.copysign(1.0, dhdt) != expected:
            violations += 1
    return violations, coupled


class TestPipelineFailures:
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"kind": "simulate", "name": "blow-up", "q": 1.0,
                 "integrator": {"type": "rk4", "step": 0.001}, **BLOW_UP},
                "IntegrationError: solution blew up at t=1.003",
            ),
            (
                {"kind": "morse", "name": "degenerate", "n": 2, "f": "x1^2",
                 "w": ["0", "0"], "g": "0"},
                "MorseConditionError: degenerate critical point",
            ),
            (
                # x1*x1*x1 overflows to inf, where sin is a math domain error
                {"kind": "simulate", "name": "domain error", "q": 1.0,
                 "integrator": {"type": "rk4", "step": 0.001},
                 **BLOW_UP, "hamiltonian": "y1*x1*x1 + sin(x1*x1*x1)"},
                "IntegrationError: solution blew up at t=1.002",
            ),
            (
                # the target e^{ct} of the conformal defect overflows past t = 0.71
                {"kind": "verify-flow", "name": "conformal overflow", "n": 1, "q": 0.5,
                 "hamiltonian": "x1*y1", "z0": [1.0, 1.0], "t_final": 1.0,
                 "mode": "conformal", "c": 1000.0,
                 "checks": [{"name": "d", "measure": "max_defect", "threshold": 1e-6}]},
                "OverflowError: math range error",
            ),
            (
                # a valid sum too deep for the recursive tree walkers of the run
                {"kind": "simulate", "name": "deep sum", "n": 1, "q": 1.0,
                 "hamiltonian": " + ".join(["x1^2/2", "y1^2/2"] * 1500),
                 "z0": [1.0, 0.0], "t_final": 0.01},
                "RecursionError: maximum recursion depth exceeded",
            ),
            (
                # x1 stalls at 709.78, where exp overflows: the accepted steps
                # (about 3e-14) stay above the underflow bound
                {"kind": "simulate", "name": "stalled step", "n": 1, "q": 1.0,
                 "hamiltonian": "y1 + exp(x1)*10^-300", "z0": [709.0, 0.0], "t_final": 2.0,
                 "integrator": {"type": "rkf45", "rel_tol": 1e-9, "abs_tol": 1e-11}},
                "IntegrationError: step budget exhausted at t=0.782713",
            ),
        ],
    )
    def test_failure_is_reported_and_exits_one(self, tmp_path, capsys, doc, message):
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is False
        [record] = report["checks"]
        assert record["name"] == "pipeline" and record["pass"] is False
        assert record["error"].startswith(message)
        err = capsys.readouterr().err
        assert f"error: pipeline failed: {message}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "scenario.json"]

    @pytest.mark.parametrize(
        "doc, code",
        [
            ({"kind": "simulate", "name": "domain error", "q": 1.0,
              "integrator": {"type": "rk4", "step": 0.001},
              **BLOW_UP, "hamiltonian": "y1*x1*x1 + sin(x1*x1*x1)"}, EXIT_CHECK_FAILURE),
            ({"kind": "morse", "n": 1, "w": ["0"], "g": "0", "f": "x1^2 + sin(x1^4000)"},
             EXIT_PASS),
        ],
        ids=["rk4_energy_overflow", "morse_newton_overflow"],
    )
    def test_float64_overflow_gives_no_runtime_warning(self, tmp_path, recwarn, doc, code):
        # the rk4 observer's energy and the Newton gradient overflow on float64
        # scalars; the run reports the blow-up or skips the seed, and stays quiet
        path = write_doc(tmp_path, doc)
        assert run_scenario(path, tmp_path) == code
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


class TestParseOnce:
    def test_run_parses_each_expression_of_the_scenario_once(self, tmp_path, monkeypatch):
        # validate_scenario parses each expression field; every q of a sweep
        # and every complex of a morse run execute those trees.  The complexes
        # are stubbed empty: what is counted happens before any shooting.
        texts, qs = [], []
        parse = ex.parse
        monkeypatch.setattr(ex, "parse", lambda text, n: texts.append(text) or parse(text, n))
        monkeypatch.setattr(
            morse, "build_complex",
            lambda spec, options: qs.append(spec.q) or morse.MorseComplex({}, {}, {}),
        )
        sweep = json.loads((SCENARIOS / "regime_trichotomy.json").read_text())
        assert run_scenario(SCENARIOS / "regime_trichotomy.json", tmp_path / "a") == EXIT_PASS
        assert texts == [sweep["hamiltonian"]]
        texts.clear()
        circle = json.loads((SCENARIOS / "morse_s1.json").read_text())
        run_scenario(SCENARIOS / "morse_s1.json", tmp_path / "b")
        assert sorted(texts) == sorted([circle["f"], *circle["w"], circle["g"]])
        assert qs == circle["q_list"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "name",
        ["classify_conformal.json", "fibre_volume_sweep.json", "oscillator_energy.json"],
    )
    def test_rerun_is_byte_identical(self, tmp_path, name):
        # [DERIVED] two runs of the same scenario produce identical bytes
        # for every artifact, including the report.
        scenario = SCENARIOS / name
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_scenario(scenario, out1) == EXIT_PASS
        assert run_scenario(scenario, out2) == EXIT_PASS
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for fname in files1:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


class TestGoldenScenariosFast:
    @pytest.mark.parametrize(
        "name",
        [
            "oscillator_energy.json",
            "regime_trichotomy.json",
            "pendulum_symplectic.json",
            "nonsimple_defect.json",
            "conformal_flow.json",
            "classify_conformal.json",
            "fibre_volume_sweep.json",
        ],
    )
    def test_scenario_passes(self, tmp_path, name):
        assert run_scenario(SCENARIOS / name, tmp_path) == EXIT_PASS
