"""Scenario-driven command line front end.

Usage:
    defham run <scenario.json> [--out-dir DIR]
    defham validate <scenario.json>

Scenarios are JSON documents with a "kind" field selecting the pipeline:
simulate, verify-flow, classify, bracket, morse or sweep.  Artifacts are
written atomically (temp file + rename) and a machine-readable report with
one record per check is produced alongside them.  Exit codes: 0 all checks
pass, 1 a check failed or the pipeline failed (the report then holds a failed
"pipeline" record), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import bracket as br
from . import dynamics as dyn
from . import expr as ex
from . import forms
from . import morse
from .phase import MetricFamily, PhasePoint, fibre_volume_ratio
from .poly import poly_from_expression

__all__ = ["main", "run_scenario", "validate_scenario", "ScenarioError"]

EXIT_PASS, EXIT_CHECK_FAILURE, EXIT_INVALID = 0, 1, 2


class ScenarioError(ValueError):
    pass


# what a valid scenario's computation may raise: a failed run, not a crash; a
# tree too deep for the recursive walkers (hash, differentiate) is one
_COMPUTATION_FAILURES = (dyn.IntegrationError, morse.MorseConditionError, NotImplementedError,
                        ArithmeticError, ValueError, RecursionError)


# ---------------------------------------------------------------------------
# Schemas.

_INTEGRATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["rk4", "rkf45"]},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "rel_tol": {"type": "number", "exclusiveMinimum": 0},
        "abs_tol": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["type"],
    "additionalProperties": False,
}

def _check_schema(*measures: str) -> dict:
    """Schema of one check record whose measure is one of ``measures``."""
    return {
        "type": "object",
        "properties": {
            "name": {"type": "string"},
            "measure": {"enum": list(measures)},
            "threshold": {"type": "number"},
            "comparator": {"enum": ["le", "ge"]},
        },
        "required": ["name", "measure", "threshold"],
        "additionalProperties": False,
    }


_BASE = {
    "kind": {"enum": ["simulate", "verify-flow", "classify", "bracket", "morse", "sweep"]},
    "name": {"type": "string"},
    "seed": {"type": "integer"},
    "n": {"type": "integer", "minimum": 1},
    "output": {"type": "string"},
}

# the properties simulate, verify-flow and sweep share: one flow of H
_FLOW = {
    "hamiltonian": {"type": "string"},
    "z0": {"type": "array", "items": {"type": "number"}},
    "space": {"enum": ["plane", "torus"]},
    "integrator": _INTEGRATOR_SCHEMA,
    "t_final": {"type": "number", "exclusiveMinimum": 0},
}

_KIND_SCHEMAS = {
    "simulate": {
        "type": "object",
        "properties": {
            **_BASE,
            **_FLOW,
            "q": {"type": "number"},
            "sample_stride": {"type": "integer", "minimum": 1},
            "checks": {"type": "array", "items": _check_schema("energy_drift")},
        },
        "required": ["kind", "n", "q", "hamiltonian", "z0", "t_final"],
        "additionalProperties": False,
    },
    "verify-flow": {
        "type": "object",
        "properties": {
            **_BASE,
            **_FLOW,
            "q": {"type": "number"},
            "sample_stride": {"type": "integer", "minimum": 1},
            "mode": {"enum": ["symplectic", "conformal"]},
            "c": {"type": "number"},
            "checks": {
                "type": "array",
                "items": _check_schema("max_defect", "final_defect"),
                "minItems": 1,
            },
        },
        "required": ["kind", "n", "q", "hamiltonian", "z0", "t_final", "mode", "checks"],
        "additionalProperties": False,
    },
    "classify": {
        "type": "object",
        "properties": {
            **_BASE,
            "hamiltonian": {"type": "string"},
            "expect": {
                "type": "object",
                "properties": {
                    "simple": {"type": "boolean"},
                    "exceptionally_simple": {"type": "boolean"},
                    "conformal_ratio": {
                        "anyOf": [
                            {"type": "null"},
                            {
                                "type": "array",
                                "items": {"type": "integer"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        ]
                    },
                },
                "additionalProperties": False,
            },
        },
        "required": ["kind", "n", "hamiltonian"],
        "additionalProperties": False,
    },
    "bracket": {
        "type": "object",
        "properties": {
            **_BASE,
            "q_list": {"type": "array", "items": {"type": "number"}},
            "pairs": {"type": "integer", "minimum": 1},
            "points": {"type": "integer", "minimum": 1},
            "jacobi_triples": {"type": "integer", "minimum": 0},
            "degree": {"type": "integer", "minimum": 1},
            "thresholds": {
                "type": "object",
                "properties": {
                    "admissibility": {"type": "number"},
                    "jacobi": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
        "required": ["kind", "n", "q_list", "pairs", "seed"],
        "additionalProperties": False,
    },
    "morse": {
        "type": "object",
        "properties": {
            **_BASE,
            "f": {"type": "string"},
            "w": {"type": "array", "items": {"type": "string"}},
            "g": {"type": "string"},
            "q": {"type": "number"},
            "q_list": {"type": "array", "items": {"type": "number"}},
            "space": {"enum": ["plane", "torus"]},
            "box": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "expect_ranks": {
                "type": "object",
                "additionalProperties": {"type": "integer", "minimum": 0},
            },
            "adiabatic_q_list": {"type": "array", "items": {"type": "number"}},
            "adiabatic_min_factor": {"type": "number"},
        },
        "required": ["kind", "n", "f", "w", "g"],
        "additionalProperties": False,
    },
    "sweep": {
        "type": "object",
        "properties": {
            **_BASE,
            **_FLOW,
            "q_list": {"type": "array", "items": {"type": "number"}},
            "observables": {
                "type": "array",
                "items": {
                    "enum": [
                        "final_H",
                        "delta_H",
                        "delta_H_sign",
                        "fibre_volume_ratio",
                        "symplectic_defect",
                    ]
                },
                "minItems": 1,
            },
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "type": {"enum": ["regime_trichotomy", "fibre_volume_power"]},
                        "tol": {"type": "number"},
                    },
                    "required": ["type"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["kind", "n", "q_list", "hamiltonian", "z0", "t_final", "observables"],
        "additionalProperties": False,
    },
}


# RK4 steps (t_final / step) a scenario may declare: 100 times the golden
# maxima, 10,000 per flow and 50,000 per sweep (regime_trichotomy), so that
# a valid flow ends.  RKF45 paths end by their step budget instead.
_RK4_STEPS_PER_FLOW = 1_000_000
_RK4_STEPS_PER_SWEEP = 5_000_000


def _sweep_wants_flow(doc) -> bool:
    """Whether a sweep integrates H at each q: for a regime check or an
    observable read from the flow."""
    return any(c["type"] == "regime_trichotomy" for c in doc.get("checks", [])) or any(
        obs in ("final_H", "delta_H", "delta_H_sign", "symplectic_defect")
        for obs in doc["observables"])


def _check_rk4_steps(doc) -> None:
    """ScenarioError if the RK4 flows of a flow scenario declare more steps
    than the bounds allow, per flow or in all of a sweep's flows."""
    integ = doc.get("integrator", {"type": "rk4"})
    if integ["type"] != "rk4":
        return
    steps = doc["t_final"] / integ.get("step", 1e-3)
    if steps > _RK4_STEPS_PER_FLOW:
        where = "/integrator/step" if "step" in integ else "/t_final"
        raise ScenarioError(f"{where}: {steps:.3g} RK4 steps per flow (t_final / step) "
                            f"exceed the bound of {_RK4_STEPS_PER_FLOW:,}")
    if doc["kind"] == "sweep":
        per_q = _sweep_wants_flow(doc) + ("symplectic_defect" in doc["observables"])
        flows = len(doc["q_list"]) * per_q
        if steps * flows > _RK4_STEPS_PER_SWEEP:
            raise ScenarioError(f"/q_list: {steps * flows:.3g} RK4 steps in the sweep's {flows} "
                                f"flows exceed the bound of {_RK4_STEPS_PER_SWEEP:,}")


def _pointer(error) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


def validate_scenario(doc) -> dict:
    """Check a scenario and return the inputs ``run`` executes: the trees of
    ``hamiltonian``, ``f``, ``w`` and ``g``, the ``poly`` of a classify
    Hamiltonian, and the ``specs`` and ``options`` of a morse run.  Raises
    ScenarioError (with JSON-pointer paths) if the scenario is bad."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KIND_SCHEMAS:
        raise ScenarioError(
            f"/kind: must be one of {sorted(_KIND_SCHEMAS)}, got {kind!r}"
        )
    validator = Draft202012Validator(_KIND_SCHEMAS[kind])
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        messages = "; ".join(f"{_pointer(e)}: {e.message}" for e in errors[:5])
        raise ScenarioError(messages)

    # semantic checks the schema cannot express
    if "q" in doc and doc["q"] == 0:
        raise ScenarioError("/q: q must be nonzero")
    for key in ("q_list", "adiabatic_q_list"):
        if key in doc:
            if not doc[key]:
                raise ScenarioError(f"/{key}: must be nonempty")
            if any(q == 0 for q in doc[key]):
                raise ScenarioError(f"/{key}: q must be nonzero")
    if kind == "bracket" and -1 in doc["q_list"]:
        raise ScenarioError("/q_list: q = -1 has vanishing antisymmetrization")
    n = doc.get("n")
    parsed = {
        key: _parse_or_raise(doc[key], n, f"/{key}")
        for key in ("hamiltonian", "f", "g")
        if key in doc
    }
    if "w" in doc:
        if len(doc["w"]) != n:
            raise ScenarioError(f"/w: expected {n} components, got {len(doc['w'])}")
        parsed["w"] = [_parse_or_raise(text, n, f"/w/{i}") for i, text in enumerate(doc["w"])]
    if kind == "classify":
        try:
            parsed["poly"] = poly_from_expression(parsed["hamiltonian"])
        except ValueError as err:
            raise ScenarioError(f"/hamiltonian: {err}") from None
    if "z0" in doc and len(doc["z0"]) != 2 * n:
        raise ScenarioError(f"/z0: expected {2 * n} coordinates, got {len(doc['z0'])}")
    if kind in ("simulate", "verify-flow", "sweep"):
        _check_rk4_steps(doc)
    if kind == "verify-flow" and doc["mode"] == "conformal" and "c" not in doc:
        raise ScenarioError("/c: conformal mode requires the rate c")
    if kind == "morse":
        parsed["specs"], parsed["options"] = _validate_morse(
            doc, parsed["f"], parsed["w"], parsed["g"]
        )
    if kind == "sweep" and "fibre_volume_ratio" not in doc["observables"]:
        for i, check in enumerate(doc.get("checks", [])):
            if check["type"] == "fibre_volume_power":
                raise ScenarioError(
                    f"/checks/{i}: fibre_volume_power needs the fibre_volume_ratio observable"
                )
    return parsed


def _validate_morse(doc, f: ex.Node, w: list, g: ex.Node):
    """Check the MorseSpec of every q the scenario names and the box against
    the working dimension ``MorseSpec.dim``.  Returns the specs of the
    complexes a run builds (one per ``q_list`` entry, else ``q``, else
    q = 1; a scenario may not set both) and the MorseOptions."""
    n, space = doc["n"], doc.get("space", "plane")
    try:
        base = morse.MorseSpec(n, f, w, g, space=space)
    except morse.MorseSpecError as err:
        raise ScenarioError(str(err)) from None
    qs = [("/q", doc["q"])] if "q" in doc else []
    for key in ("q_list", "adiabatic_q_list"):
        qs += [(f"/{key}/{i}", q) for i, q in enumerate(doc.get(key, []))]
    specs = {}
    for where, q in qs:
        try:
            specs[where] = morse.MorseSpec(n, f, w, g, q=q, space=space)
        except morse.MorseSpecError as err:
            raise ScenarioError(f"{where}: {err}") from None
    if "q" in doc and "q_list" in doc:
        raise ScenarioError("/q: a run builds one complex per q_list entry; set q or q_list")
    if "adiabatic_q_list" in doc and base.base_only:
        raise ScenarioError("/adiabatic_q_list: adiabatic deviation needs a nontrivial constraint")
    options = morse.MorseOptions(
        search_box=tuple(map(tuple, doc["box"])) if "box" in doc else None
    )
    try:
        options.box_for(base.dim)
    except morse.MorseSpecError as err:
        raise ScenarioError(f"/box: {err}") from None
    if "q_list" in doc:
        return [specs[f"/q_list/{i}"] for i in range(len(doc["q_list"]))], options
    return [specs.get("/q", base)], options


def _parse_or_raise(text: str, n: int, where: str) -> ex.Node:
    try:
        return ex.parse(text, n)
    except ex.ExprError as err:
        raise ScenarioError(f"{where}: {err}") from err


# ---------------------------------------------------------------------------
# Artifact helpers.


def _atomic_write(path: Path, content: str) -> None:
    """Write path through a temporary file and a rename, with the mode that
    open(path, "w") would give it: 0o666 less the umask, not mkstemp's 0o600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class Checks:
    def __init__(self):
        self.records = []

    def add(self, name: str, measured, threshold, comparator: str = "le") -> None:
        ok = measured <= threshold if comparator == "le" else measured >= threshold
        self.records.append(
            {"name": name, "measured": measured, "threshold": threshold, "pass": bool(ok)}
        )

    def add_bool(self, name: str, ok: bool) -> None:
        self.records.append(
            {"name": name, "measured": bool(ok), "threshold": True, "pass": bool(ok)}
        )

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)


def _flow_spec(doc, hamiltonian: ex.Node, q: float) -> dyn.FlowSpec:
    integ = doc.get("integrator", {"type": "rk4"})
    return dyn.FlowSpec(
        hamiltonian=hamiltonian,
        n=doc["n"],
        q=q,
        space=doc.get("space", "plane"),
        integrator=integ["type"],
        step=integ.get("step", 1e-3),
        rel_tol=integ.get("rel_tol", 1e-10),
        abs_tol=integ.get("abs_tol", 1e-12),
        t_final=doc["t_final"],
        sample_stride=doc.get("sample_stride", 1),
    )


def _z0(doc) -> PhasePoint:
    n = doc["n"]
    z = doc["z0"]
    return PhasePoint(z[:n], z[n:], doc.get("space", "plane"))


# ---------------------------------------------------------------------------
# Kind runners.  Each takes the scenario and what validate_scenario parsed
# from it, and returns (checks, artifacts: dict[str, str]).


def _run_simulate(doc, parsed):
    spec = _flow_spec(doc, parsed["hamiltonian"], doc["q"])
    trajectory = dyn.integrate(spec, _z0(doc))
    checks = Checks()
    for check in doc.get("checks", []):
        # the schema admits only energy_drift
        measured = float(np.max(np.abs(trajectory.energies - trajectory.energies[0])))
        checks.add(check["name"], measured, check["threshold"], check.get("comparator", "le"))
    out = doc.get("output", "trajectory.csv")
    return checks, {out: dyn.trajectory_csv(trajectory)}


def _run_verify_flow(doc, parsed):
    spec = _flow_spec(doc, parsed["hamiltonian"], doc["q"])
    vf = dyn.integrate_variational(spec, _z0(doc))
    mode = doc["mode"]
    defects = dyn.pullback_defect(vf, mode=mode, c=doc.get("c"))
    values = [d for _, d in defects]
    checks = Checks()
    for check in doc["checks"]:
        measured = max(values) if check["measure"] == "max_defect" else values[-1]
        checks.add(check["name"], measured, check["threshold"], check.get("comparator", "le"))
    artifact = _json_dumps(
        {"mode": mode, "defects": [{"t": t, "defect": d} for t, d in defects]}
    )
    return checks, {doc.get("output", "pullback_defect.json"): artifact}


def _run_classify(doc, parsed):
    result = forms.classify_hamiltonian(parsed["poly"])
    ratio = result.conformal_ratio
    payload = {
        "simple": result.simple,
        "exceptionally_simple": result.exceptionally_simple,
        "conformal_ratio": None
        if ratio is None
        else [ratio.numerator, ratio.denominator],
    }
    checks = Checks()
    expect = doc.get("expect")
    if expect:
        for key, wanted in expect.items():
            checks.add_bool(f"classify_{key}", payload[key] == wanted)
    return checks, {doc.get("output", "classification.json"): _json_dumps(payload)}


def _random_polynomial(rng, n: int, degree: int) -> ex.Node:
    """Random small-coefficient polynomial in x1..xn, y1..yn."""
    out: ex.Node = ex.const(0, n)
    terms = rng.integers(2, 5)
    for _ in range(terms):
        coeff = int(rng.integers(-3, 4)) or 1
        term: ex.Node = ex.const(Fraction(coeff), n)
        total = int(rng.integers(1, degree + 1))
        for _ in range(total):
            kind = "x" if rng.random() < 0.5 else "y"
            index = int(rng.integers(1, n + 1))
            term = ex.mul(term, ex.var(kind, index, n))
        out = ex.add(out, term)
    return out


def _run_bracket(doc, parsed):
    rng = np.random.default_rng(doc["seed"])
    n = doc["n"]
    degree = doc.get("degree", 3)
    pairs = doc["pairs"]
    points = doc.get("points", 5)
    triples = doc.get("jacobi_triples", 10)
    thresholds = doc.get("thresholds", {})
    adm_thr = thresholds.get("admissibility", 1e-10)
    jac_thr = thresholds.get("jacobi", 1e-8)

    reports = []
    checks = Checks()
    for q in doc["q_list"]:
        max_adm = 0.0
        count = 0
        for _ in range(pairs):
            h = _random_polynomial(rng, n, degree)
            f = _random_polynomial(rng, n, degree)
            for _ in range(points):
                z = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
                max_adm = max(max_adm, br.admissibility_defect(h, f, q, z))
                count += 1
        max_jac = 0.0
        for _ in range(triples):
            h = _random_polynomial(rng, n, degree)
            f = _random_polynomial(rng, n, degree)
            g = _random_polynomial(rng, n, degree)
            z = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
            max_jac = max(max_jac, br.jacobi_defect(h, f, g, q, z))
            count += 1
        reports.append(
            {
                "q": q,
                "samples": count,
                "max_admissibility_defect": max_adm,
                "max_jacobi_defect": max_jac,
            }
        )
        checks.add(f"admissibility_q={q}", max_adm, adm_thr)
        checks.add(f"jacobi_q={q}", max_jac, jac_thr)
    return checks, {doc.get("output", "bracket_report.json"): _json_dumps(reports)}


def _run_morse(doc, parsed):
    options = parsed["options"]
    checks = Checks()

    complexes = [morse.build_complex(spec, options) for spec in parsed["specs"]]
    main_complex = complexes[0]
    ranks = morse.homology_ranks(main_complex)

    residuals = [p.residual for gens in main_complex.generators.values() for p in gens]
    if residuals:
        checks.add("critical_point_residual", max(residuals), 1e-10)
    else:
        # an empty complex has nothing to certify; it must not pass vacuously
        checks.add_bool("critical_points_found", False)

    if "expect_ranks" in doc:
        wanted = {int(k): v for k, v in doc["expect_ranks"].items()}
        checks.add_bool("homology_ranks", {m: r for m, r in ranks.items() if r} == {m: r for m, r in wanted.items() if r})
    for other, q in zip(complexes[1:], doc.get("q_list", [])[1:]):
        checks.add_bool(
            f"ranks_consistent_q={q}", morse.homology_ranks(other) == ranks
        )

    adiabatic = None
    if "adiabatic_q_list" in doc:
        adiabatic = morse.adiabatic_deviation(
            parsed["specs"][0], doc["adiabatic_q_list"], options=options
        )
        deviations = [d for _, d in adiabatic]
        decreasing = all(a > b for a, b in zip(deviations, deviations[1:]))
        checks.add_bool("adiabatic_decreasing", decreasing)
        factor = deviations[0] / deviations[-1] if deviations[-1] > 0 else math.inf
        checks.add(
            "adiabatic_decrease_factor",
            factor,
            doc.get("adiabatic_min_factor", 5.0),
            comparator="ge",
        )

    report = morse.complex_to_report(main_complex, adiabatic)
    return checks, {doc.get("output", "morse_report.json"): _json_dumps(report)}


def _sweep_row(doc, hamiltonian: ex.Node, q: float, regime_tols: set):
    """One row of the sweep at q, with the regime violations of its flow
    for each tolerance in ``regime_tols`` (a row whose flow failed counts
    as one violation)."""
    row: dict = {"q": q, "error": "", "violations": dict.fromkeys(regime_tols, 1)}
    try:
        spec = _flow_spec(doc, hamiltonian, q)
        trajectory = None
        if _sweep_wants_flow(doc):
            trajectory = dyn.integrate(spec, _z0(doc))
            for tol in regime_tols:
                row["violations"][tol] = dyn.regime_violations(spec, trajectory, tol)
        for obs in doc["observables"]:
            if obs == "final_H":
                row[obs] = float(trajectory.energies[-1])
            elif obs == "delta_H":
                row[obs] = float(trajectory.energies[-1] - trajectory.energies[0])
            elif obs == "delta_H_sign":
                delta = float(trajectory.energies[-1] - trajectory.energies[0])
                row[obs] = "0" if abs(delta) <= 1e-8 else ("+" if delta > 0 else "-")
            elif obs == "fibre_volume_ratio":
                row[obs] = fibre_volume_ratio(MetricFamily(n=doc["n"], q=q))
            elif obs == "symplectic_defect":
                vf = dyn.integrate_variational(spec, _z0(doc))
                row[obs] = max(d for _, d in dyn.pullback_defect(vf))
    except _COMPUTATION_FAILURES as err:  # per-q failure is recorded, sweep continues
        row["error"] = str(err)
    return row


_SWEEP_CHECK_TOL = {"regime_trichotomy": 1e-8, "fibre_volume_power": 1e-15}


def _run_sweep(doc, parsed):
    # (type, tol) of each check, in the scenario's order
    wanted = [
        (c["type"], c.get("tol", _SWEEP_CHECK_TOL[c["type"]])) for c in doc.get("checks", [])
    ]
    regime_tols = {tol for kind, tol in wanted if kind == "regime_trichotomy"}
    rows = [_sweep_row(doc, parsed["hamiltonian"], q, regime_tols) for q in doc["q_list"]]
    rows.sort(key=lambda r: r["q"])

    columns = ["q", *doc["observables"], "error"]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    csv = "\n".join(lines) + "\n"

    checks = Checks()
    for kind, tol in wanted:
        if kind == "regime_trichotomy":
            violations = sum(row["violations"][tol] for row in rows)
            checks.add("regime_trichotomy_violations", violations, 0)
        elif kind == "fibre_volume_power":
            n = doc["n"]
            # a row whose ratio failed must not let the check pass
            worst = max(
                abs(row["fibre_volume_ratio"] - math.sqrt(row["q"]) ** n)
                if "fibre_volume_ratio" in row
                else math.inf
                for row in rows
            )
            checks.add("fibre_volume_power", worst, tol)
    return checks, {doc.get("output", "sweep.csv"): csv}


_RUNNERS = {
    "simulate": _run_simulate,
    "verify-flow": _run_verify_flow,
    "classify": _run_classify,
    "bracket": _run_bracket,
    "morse": _run_morse,
    "sweep": _run_sweep,
}


def _finite(parse):
    """JSON number hook: ``parse(text)``, ScenarioError if not a finite float."""

    def number(text: str):
        if not math.isfinite(float(text)):
            raise ScenarioError(f"number {text} is not a finite float")
        return parse(text)

    return number


def _load_scenario(path: Path) -> tuple[dict, dict]:
    """Read and validate a scenario file for ``run`` and ``validate``: the
    document and what validate_scenario parsed from it.  Python's json reads
    NaN, Infinity and 1e999, which raise ScenarioError here."""
    try:
        doc = json.loads(path.read_text(), parse_float=_finite(float),
                         parse_int=_finite(int), parse_constant=_finite(float))
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot read scenario: {err}") from None
    return doc, validate_scenario(doc)


def run_scenario(scenario_path, out_dir=None) -> int:
    """Execute a scenario file; returns the process exit code."""
    path = Path(scenario_path)
    try:
        doc, parsed = _load_scenario(path)
    except ScenarioError as err:
        print(f"error: invalid scenario: {err}", file=sys.stderr)
        return EXIT_INVALID

    out = Path(out_dir) if out_dir else path.parent
    try:
        out.mkdir(parents=True, exist_ok=True)  # fail before computing, not after
    except OSError as err:
        return _cannot_write(err)
    started = time.perf_counter()
    try:
        checks, artifacts = _RUNNERS[doc["kind"]](doc, parsed)
    except _COMPUTATION_FAILURES as err:
        # validity was decided above, so this is the computation failing:
        # report it, do not crash
        message = f"{type(err).__name__}: {err}"
        print(f"error: pipeline failed: {message}", file=sys.stderr)
        checks, artifacts = Checks(), {}
        checks.records.append(
            {"name": "pipeline", "measured": False, "threshold": True, "pass": False,
             "error": message}
        )
    elapsed = time.perf_counter() - started

    report = {
        "scenario": doc,
        "checks": checks.records,
        "pass": checks.all_pass,
    }
    try:
        for name, content in artifacts.items():
            _atomic_write(out / name, content)
        _atomic_write(out / "report.json", _json_dumps(report))
    except OSError as err:
        return _cannot_write(err)

    for record in checks.records:
        status = "PASS" if record["pass"] else "FAIL"
        print(
            f"{status} {record['name']}: measured={record['measured']} "
            f"threshold={record['threshold']}"
        )
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_PASS if checks.all_pass else EXIT_CHECK_FAILURE


def _cannot_write(err: OSError) -> int:
    """An output that cannot be written is a usage error, not a failed check."""
    print(f"error: cannot write: {err}", file=sys.stderr)
    return EXIT_INVALID


def validate_command(scenario_path) -> int:
    try:
        _load_scenario(Path(scenario_path))
    except ScenarioError as err:
        print(f"error: invalid scenario: {err}", file=sys.stderr)
        return EXIT_INVALID
    print("scenario is valid")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="defham", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument("scenario")
    run_p.add_argument("--out-dir", default=None)
    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, args.out_dir)
    return validate_command(args.scenario)


if __name__ == "__main__":
    sys.exit(main())
