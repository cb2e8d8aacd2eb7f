"""Outside-in tracing of the defham layers.

The tracer never edits the library.  It replaces the public entry points of
each module (and a few named private boundaries) with timing wrappers,
patched at every ``defham.*`` module attribute that holds the original
object, so a caller that imported a name (``morse`` imports ``rkf45_path``
by name) resolves the wrapper too.  Methods are patched on their class.
``uninstall`` restores every original.

Each wrapped call is a frame on one stack; a frame's self time is its
duration minus the durations of the wrapped calls nested in it.  Calls on
the hot path (compiled-jet evaluation, the integrators' rhs and observe
callbacks, symbolic differentiation, phase-point construction) are
aggregated per name; every other call is also kept as a span
``(name, start, end, parent span, pass id)`` for the trace file.  Node
constructors such as ``expr.add`` are not wrapped: their time is charged
to the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("expr", "poly", "forms", "phase", "dynamics", "bracket", "morse", "cli")

# (module, attribute path, span name, hot): the entry points other layers
# call.  Calls that stay inside one layer (e.g. forms.partial_plus from
# forms.classify_hamiltonian) are not wrapped: they would not move any
# layer's self time.
TARGETS = [
    ("expr", "parse", "expr.parse", False),
    ("expr", "differentiate", "expr.differentiate", True),
    ("expr", "evaluate", "expr.evaluate", False),
    ("expr", "JetEvaluator.__init__", "expr.jet_build", False),
    ("expr", "JetEvaluator.value", "expr.value", True),
    ("expr", "JetEvaluator.gradient", "expr.gradient", True),
    ("expr", "JetEvaluator.hessian", "expr.hessian", True),
    ("poly", "poly_from_expression", "poly.from_expression", False),
    ("poly", "Poly.__add__", "poly.add", True),
    ("poly", "Poly.__sub__", "poly.sub", True),
    ("poly", "Poly.__mul__", "poly.mul", True),
    ("poly", "Poly.diff", "poly.diff", True),
    ("forms", "classify_hamiltonian", "forms.classify", False),
    ("forms", "symbolic_bracket", "forms.symbolic_bracket", False),
    ("phase", "PhasePoint.__init__", "phase.point", True),
    ("phase", "PhasePoint.as_array", "phase.as_array", True),
    ("phase", "PhasePoint.from_array", "phase.from_array", True),
    ("phase", "MetricFamily.__post_init__", "phase.metric_family", False),
    ("phase", "fibre_volume_ratio", "phase.fibre_volume_ratio", False),
    ("phase", "omega_matrix", "phase.omega_matrix", True),
    ("phase", "wrap_angles", "phase.wrap_angles", True),
    ("dynamics", "HamiltonianField.__init__", "dynamics.field_build", False),
    ("dynamics", "integrate", "dynamics.integrate", False),
    ("dynamics", "integrate_variational", "dynamics.integrate_variational", False),
    ("dynamics", "pullback_defect", "dynamics.pullback_defect", False),
    ("bracket", "deformed_bracket", "bracket.bracket", False),
    ("bracket", "admissibility_defect", "bracket.admissibility", False),
    ("bracket", "jacobi_defect", "bracket.jacobi", False),
    ("bracket", "bracket_expression", "bracket.bracket_expression", False),
    ("morse", "build_complex", "morse.build_complex", False),
    ("morse", "find_critical_points", "morse.find_critical_points", False),
    ("morse", "_newton", "morse.newton", False),
    ("morse", "homology_ranks", "morse.homology_ranks", False),
    ("morse", "count_flow_lines", "morse.count_flow_lines", False),
    ("morse", "critical_index", "morse.critical_index", False),
    ("morse", "complex_to_report", "morse.complex_to_report", False),
    ("cli", "run_scenario", "cli.run_scenario", False),
    ("cli", "validate_scenario", "cli.validate_scenario", False),
    ("cli", "_atomic_write", "cli.write", False),
]

# span name -> stat whose calls made inside that span are counted
COUNT_INSIDE = {"morse.newton": "expr.hessian"}

# span name -> counts read off the returned value
RESULT_COUNTS = {
    "morse.build_complex": lambda c: {"morse.lines": sum(c.flow_line_counts.values())},
    "morse.find_critical_points": lambda points: {"morse.critical_points": len(points)},
}

# Integrators whose rhs/observe callbacks are wrapped at the call boundary,
# with the number of rhs calls per attempted step.
INTEGRATORS = [("rkf45_path", "dynamics.rkf45", 6), ("rk4_path", "dynamics.rk4", 4)]


def _module_of(fn) -> str:
    """Layer name of a callback, e.g. ``morse`` for ``_System.rhs``."""
    name = getattr(fn, "__module__", None) or ""
    return name.rsplit(".", 1)[-1] if name.startswith("defham.") else "bench"


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span store and patcher for one traced pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.counts: dict[str, int] = {}  # e.g. "dynamics.rkf45.morse.paths"
        self._stack: list = []  # frames: [child_time, span index or -1]
        self._patches: list = []

    # -- frames ------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, hot: bool):
        stat = self._stat(name)
        inside = self._stat(COUNT_INSIDE[name]) if name in COUNT_INSIDE else None
        on_result = RESULT_COUNTS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        if hot:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, -1]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    stat.calls += 1
                    stat.total += duration
                    stat.self_time += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                index = len(spans)
                spans.append(None)
                frame = [0.0, index]
                before = inside.calls if inside else 0
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if on_result:
                        for key, value in on_result(result).items():
                            self._count(key, value)
                    return result
                finally:
                    end = clock()
                    duration = end - start
                    stack.pop()
                    if inside:
                        self._count(f"{name}.{COUNT_INSIDE[name]}", inside.calls - before)
                    stat.calls += 1
                    stat.total += duration
                    stat.self_time += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                    spans[index] = (name, start, end, parent, self.pass_id)

        return wrapper

    def _integrator(self, fn, name: str, stage_calls: int):
        """Wrap an integrator and its rhs/observe callbacks.

        Attempted steps are counted from the rhs calls.  The first stage of
        an attempt receives the current state object itself, and a rejected
        attempt retries from that same object, so an attempt whose first
        stage repeats the previous one's object marks a rejection.  The last
        attempt is accepted unless the path ended in an IntegrationError.
        """
        signature = inspect.signature(fn)
        wrap = self.wrap
        count = self._count
        from defham.dynamics import IntegrationError

        def integrator(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            rhs = bound.arguments["rhs"]
            observe = bound.arguments["observe"]
            origin = _module_of(rhs)
            timed_rhs = wrap(rhs, f"{origin}.rhs", hot=True)
            calls = repeats = 0
            first = None

            def counted_rhs(z):
                nonlocal calls, repeats, first
                if calls % stage_calls == 0:
                    if z is first:
                        repeats += 1
                    first = z
                calls += 1
                return timed_rhs(z)

            bound.arguments["rhs"] = counted_rhs
            bound.arguments["observe"] = wrap(observe, f"{_module_of(observe)}.observe", hot=True)
            failed = False
            try:
                return fn(*bound.args, **bound.kwargs)
            except IntegrationError:
                failed = True
                raise
            finally:
                attempts = -(-calls // stage_calls)
                key = f"{name}.{origin}"
                count(f"{key}.paths", 1)
                count(f"{key}.rhs_calls", calls)
                count(f"{key}.attempts", attempts)
                count(f"{key}.rejected", repeats + (1 if failed and attempts else 0))

        return wrap(functools.wraps(fn)(integrator), name, hot=False)

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "defham" and not modname.startswith("defham."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        import importlib

        mods = {m: importlib.import_module(f"defham.{m}") for m in MODULES}
        for module, path, name, hot in TARGETS:
            owner = mods[module]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if parents else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, hot))
            else:
                wrapped = self.wrap(original, name, hot)
            if parents:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)
        for attr, name, stage_calls in INTEGRATORS:
            original = getattr(mods["dynamics"], attr)
            self._patch_everywhere(original, self._integrator(original, name, stage_calls))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_time if stat else 0.0

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(s.self_time for n, s in self.stats.items() if n.startswith(prefix))


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _integrator_count(tr: Tracer, integrator: str, field: str, origin: str = "") -> int:
    prefix = f"{integrator}.{origin}" if origin else f"{integrator}."
    return sum(
        v for k, v in tr.counts.items() if k.startswith(prefix) and k.endswith("." + field)
    )


def layer_metrics(tr: Tracer) -> dict:
    """name -> (value, unit) for every per-layer metric except the tracing
    overhead, which needs an untraced pass."""
    us = 1e6
    rkf_attempts = _integrator_count(tr, "dynamics.rkf45", "attempts")
    rkf_rejected = _integrator_count(tr, "dynamics.rkf45", "rejected")
    rkf_accepted = rkf_attempts - rkf_rejected
    rk4_steps = _integrator_count(tr, "dynamics.rk4", "attempts")
    shots = _integrator_count(tr, "dynamics.rkf45", "paths", "morse")
    shot_steps = _integrator_count(tr, "dynamics.rkf45", "attempts", "morse") - (
        _integrator_count(tr, "dynamics.rkf45", "rejected", "morse")
    )
    lines = tr.counts.get("morse.lines", 0)

    def per_call_us(name):
        return _ratio(tr.total(name), tr.calls(name)) * us

    values = {
        "expr.jet_builds": (tr.calls("expr.jet_build"), "count"),
        "expr.jet_build_us": (per_call_us("expr.jet_build"), "us"),
        "expr.self_s": (tr.module_self("expr"), "s"),
        "expr.grad_calls": (tr.calls("expr.gradient"), "count"),
        "expr.grad_us": (per_call_us("expr.gradient"), "us"),
        "expr.hess_calls": (tr.calls("expr.hessian"), "count"),
        "expr.hess_us": (per_call_us("expr.hessian"), "us"),
        "expr.evaluate_calls": (tr.calls("expr.evaluate"), "count"),
        "expr.evaluate_us": (per_call_us("expr.evaluate"), "us"),
        "expr.differentiate_calls": (tr.calls("expr.differentiate"), "count"),
        "expr.parse_calls": (tr.calls("expr.parse"), "count"),
        "dynamics.rkf45_paths": (_integrator_count(tr, "dynamics.rkf45", "paths"), "count"),
        "dynamics.rkf45_accepted": (rkf_accepted, "count"),
        "dynamics.rkf45_rejected": (rkf_rejected, "count"),
        "dynamics.reject_ratio": (_ratio(rkf_rejected, rkf_attempts), "ratio"),
        "dynamics.rhs_calls": (
            _integrator_count(tr, "dynamics.rkf45", "rhs_calls")
            + _integrator_count(tr, "dynamics.rk4", "rhs_calls"),
            "count",
        ),
        "dynamics.rkf45_step_us": (_ratio(tr.self_time("dynamics.rkf45"), rkf_accepted) * us, "us"),
        "dynamics.field_builds": (tr.calls("dynamics.field_build"), "count"),
        "dynamics.self_s": (tr.module_self("dynamics"), "s"),
        "dynamics.rk4_steps": (rk4_steps, "count"),
        "dynamics.rk4_step_us": (_ratio(tr.self_time("dynamics.rk4"), rk4_steps) * us, "us"),
        "morse.newton_seeds": (tr.calls("morse.newton"), "count"),
        "morse.newton_iters": (tr.counts.get("morse.newton.expr.hessian", 0), "count"),
        "morse.critical_points": (tr.counts.get("morse.critical_points", 0), "count"),
        "morse.find_s": (tr.total("morse.find_critical_points"), "s"),
        "morse.shots": (shots, "count"),
        "morse.steps_per_shot": (_ratio(shot_steps, shots), "steps"),
        "morse.lines": (lines, "count"),
        "morse.shots_per_line": (_ratio(shots, lines), "shots"),
        "morse.observe_us": (per_call_us("morse.observe"), "us"),
        "morse.shoot_s": (
            tr.total("morse.build_complex") - tr.total("morse.find_critical_points"),
            "s",
        ),
        "morse.homology_s": (tr.total("morse.homology_ranks"), "s"),
        "morse.self_s": (tr.module_self("morse"), "s"),
        "bracket.bracket_calls": (tr.calls("bracket.bracket"), "count"),
        "bracket.bracket_us": (per_call_us("bracket.bracket"), "us"),
        "bracket.admissibility_us": (per_call_us("bracket.admissibility"), "us"),
        "bracket.jacobi_calls": (tr.calls("bracket.jacobi"), "count"),
        "bracket.jacobi_us": (per_call_us("bracket.jacobi"), "us"),
        "bracket.self_s": (tr.module_self("bracket"), "s"),
        "forms.classify_calls": (tr.calls("forms.classify"), "count"),
        "forms.self_s": (tr.module_self("forms"), "s"),
        "poly.self_s": (tr.module_self("poly"), "s"),
        "phase.self_s": (tr.module_self("phase"), "s"),
        "cli.scenarios": (tr.calls("cli.run_scenario"), "count"),
        "cli.validate_s": (tr.total("cli.validate_scenario"), "s"),
        "cli.write_s": (tr.total("cli.write"), "s"),
        "cli.self_s": (tr.module_self("cli"), "s"),
    }
    return values
