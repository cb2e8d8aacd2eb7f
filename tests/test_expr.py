"""Parsing, exact differentiation and jet evaluation.

Oracles: hand-computed derivatives and values for small expressions,
central finite differences for randomized gradient checks, and for random
trees the constructors and derivative as they were before the 0/1
identities were tested ahead of constant folding.
"""

import ast
import copy
import dataclasses
import gc
import inspect
import math
import pickle
import struct
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from defham import expr as ex
from defham.cli import _run_bracket
from defham.dynamics import (
    _CALL_WATCH, FlowSpec, HamiltonianField, _regime_rates, _rk4_loop, _rkf45_loop,
)
from defham.morse import MorseOptions, MorseSpec, _System, build_hamiltonian

from conftest import evaluate_jet, random_polynomial_expr, random_point, tree_evaluate


class TestParsing:
    def test_value_and_gradient_of_quadratic(self):
        # [DERIVED] H = (x1^2 + y1^2)/2 at (1, 2): value 2.5, gradient (1, 2).
        e = ex.parse("(x1^2 + y1^2)/2", 1)
        jet = evaluate_jet(e, (1.0, 2.0))
        assert jet.value == pytest.approx(2.5, abs=1e-15)
        assert jet.gradient == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_parse_error_reports_offset(self):
        # [TRIVIAL] dangling operator fails with the offending offset.
        with pytest.raises(ex.ParseError) as err:
            ex.parse("x1 +", 1)
        assert err.value.offset == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ex.ParseError):
            ex.parse("(x1 + y1", 1)

    def test_unknown_function(self):
        with pytest.raises(ex.ExprError):
            ex.parse("tan(x1)", 1)

    def test_variable_index_out_of_range(self):
        with pytest.raises(ex.ExprError):
            ex.parse("x2 + y1", 1)

    def test_division_by_zero_raises_eval_error(self):
        e = ex.parse("x1/y1", 1)
        with pytest.raises(ex.EvalError):
            ex.evaluate(e, (1.0, 0.0))

    def test_functions_evaluate(self):
        # [DERIVED] sin, cos, exp against math module values.
        e = ex.parse("sin(x1) + cos(y1) + exp(x1*y1)", 1)
        got = ex.evaluate(e, (0.5, 0.25))
        want = math.sin(0.5) + math.cos(0.25) + math.exp(0.125)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_through_text(self, rng, n):
        # [TRIVIAL] parse(to_text(e)) evaluates identically to e.
        for _ in range(20):
            e = random_polynomial_expr(rng, n)
            e2 = ex.parse(ex.to_text(e), n)
            z = random_point(rng, n)
            assert ex.evaluate(e2, z) == pytest.approx(ex.evaluate(e, z), rel=1e-14, abs=1e-14)

    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.deferred(lambda: RANDOM_TREES), st.deferred(lambda: RANDOM_POINTS))
    def test_round_trip_through_text_of_raw_trees(self, e, z):
        # [TRIVIAL] parsing folds the unfolded constants of a raw tree
        # ("0 + x1" is read as x1), so the text of the parsed tree is the
        # fixed point; both trees take the same value wherever they evaluate
        try:
            parsed = ex.parse(ex.to_text(e), N_RANDOM)
        except (ArithmeticError, ex.ExprError):  # a constant pole, as in "0^-1"
            assume(False)
        text = ex.to_text(parsed)
        assert ex.to_text(ex.parse(text, N_RANDOM)) == text
        try:
            want, got = ex.evaluate(e, z), ex.evaluate(parsed, z)
        except (ArithmeticError, ValueError):
            assume(False)
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestDifferentiation:
    def test_hand_derivatives(self):
        # [DERIVED] d/dy1 of (x1^2 + y1^2)/2 is y1; d/dx1 of x1*y1 is y1;
        # d^2/(dy1 dx1) of x1*y1 is 1.
        h = ex.parse("(x1^2 + y1^2)/2", 1)
        d = ex.differentiate(h, ("y", 1))
        assert ex.evaluate(d, (3.0, 7.0)) == pytest.approx(7.0, abs=1e-15)

        f = ex.parse("x1*y1", 1)
        dx = ex.differentiate(f, ("x", 1))
        assert ex.evaluate(dx, (3.0, 7.0)) == pytest.approx(7.0, abs=1e-15)
        dxy = ex.differentiate(dx, ("y", 1))
        assert ex.evaluate(dxy, (3.0, 7.0)) == pytest.approx(1.0, abs=1e-15)

    def test_product_and_chain_rule(self):
        # [DERIVED] d/dx1 [x1^2 sin(y1 x1)] = 2 x1 sin(y1 x1) + x1^2 y1 cos(y1 x1).
        e = ex.parse("x1^2 * sin(y1*x1)", 1)
        d = ex.differentiate(e, ("x", 1))
        x, y = 0.7, 1.3
        want = 2 * x * math.sin(y * x) + x * x * y * math.cos(y * x)
        assert ex.evaluate(d, (x, y)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_gradient_matches_finite_differences(self, rng, n):
        # [DERIVED] symbolic gradient against central differences, 200 cases.
        step = 1e-5
        for _ in range(100):
            e = random_polynomial_expr(rng, n)
            z = random_point(rng, n)
            jet = evaluate_jet(e, z)
            for j in range(2 * n):
                zp, zm = z.copy(), z.copy()
                zp[j] += step
                zm[j] -= step
                fd = (ex.evaluate(e, zp) - ex.evaluate(e, zm)) / (2 * step)
                assert jet.gradient[j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_hessian_symmetric(self, rng):
        # [TRIVIAL] the jet Hessian is exactly symmetric by construction.
        for _ in range(20):
            e = random_polynomial_expr(rng, 2)
            jet = evaluate_jet(e, random_point(rng, 2))
            assert np.array_equal(jet.hessian, jet.hessian.T)

    def test_derivative_of_constant_is_zero(self):
        e = ex.const(Fraction(3, 2), 2)
        d = ex.differentiate(e, ("x", 1))
        assert ex.evaluate(d, (0.0, 0.0, 0.0, 0.0)) == 0.0


class TestSharedSubtrees:
    DEPTH = 14

    @staticmethod
    def distinct_nodes(e):
        seen, stack = set(), [e]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(v for v in vars(node).values() if isinstance(v, ex.Node))
        return len(seen)

    def test_derivative_of_a_dag_visits_each_node_once(self):
        # e = u^(2^14) as a DAG of 14 squarings; spelled as a tree it has
        # 2^14 copies of u, and so has its derivative
        u = ex.parse("1 + sin(x1)*exp(y1)/65536", 1)
        e = u
        for depth in range(1, self.DEPTH + 1):
            e = ex.mul(e, e)
            if depth <= 4:  # the same tree as the derivative of the spelled-out tree
                tree = ex.parse(ex.to_text(e), 1)
                want = ex.to_text(ex.differentiate(tree, ("x", 1)))
                assert ex.to_text(ex.differentiate(e, ("x", 1))) == want
        d = ex.differentiate(e, ("x", 1))
        assert self.distinct_nodes(d) <= 10 * self.DEPTH
        # the float operations of the product rule d(a*a) = da*a + a*da, level by level
        z = (0.3, 0.7)
        value, slope = tree_evaluate(u, z), tree_evaluate(ex.differentiate(u, ("x", 1)), z)
        for _ in range(self.DEPTH):
            value, slope = value * value, slope * value + value * slope
        assert ex.evaluate(d, z) == slope
        # nothing but the shared 0 and 1 leaves is kept between calls
        assert ex.differentiate(e, ("x", 1)) is not d

    @pytest.mark.parametrize(
        "text, value_first",
        [("exp(y1)", False), ("exp(x1^2)", False), ("exp(y1)", True)],
        ids=["exp(y1)", "exp(x1^2)", "exp(y1)-value"],
    )
    def test_exp_rooted_compiled_entry_goes_with_the_last_reference(self, text, value_first):
        # the derivative of exp(u) must not hold the node exp(u) itself: the
        # compiled jet keeps the derivatives, and an entry of the weak cache
        # whose value refers to its key would never be freed; nor may the
        # value, compiled on first use, keep the node it was compiled from
        probe = ex.parse(text, 1)
        gc.disable()  # plain reference counting must free the entry
        try:
            e = ex.parse(text, 1)
            jet = ex.JetEvaluator(e)
            if value_first:
                assert jet.value([0.0, 0.0]) == 1.0
            freed = weakref.ref(e)
            assert probe in ex._COMPILED_JETS
            del e, jet
            assert freed() is None
            assert probe not in ex._COMPILED_JETS
        finally:
            gc.enable()


class TestCompiled:
    def test_compile_scalar_matches_evaluate(self, rng):
        for _ in range(20):
            e = random_polynomial_expr(rng, 2)
            f = ex.compile_scalar(e)
            z = random_point(rng, 2)
            assert f(z) == pytest.approx(ex.evaluate(e, z), rel=1e-14, abs=1e-14)

    def test_jet_evaluator_matches_evaluate_jet(self, rng):
        e = random_polynomial_expr(rng, 2)
        je = ex.JetEvaluator(e)
        z = random_point(rng, 2)
        jet = evaluate_jet(e, z)
        assert je.value(z) == pytest.approx(jet.value, rel=1e-13, abs=1e-13)
        assert je.gradient(z) == pytest.approx(jet.gradient, rel=1e-12, abs=1e-12)
        assert je.hessian(z) == pytest.approx(jet.hessian, rel=1e-12, abs=1e-12)

    def test_gradient_is_the_compiled_tuple(self):
        # on Python floats the gradient is the compiled tuple of Python floats
        g = ex.JetEvaluator(ex.parse("x1^2*y1 + sin(y1)/(2 + cos(x1))", 1)).gradient([0.3, -0.7])
        assert type(g) is tuple and [type(v) for v in g] == [float, float]

    def test_used_variables(self):
        e = ex.parse("x1*y2 + 3", 2)
        assert ex.used_variables(e) == {("x", 1), ("y", 2)}


class TestSharedCompile:
    # each test compiles its own expression, so no entry is shared between tests
    TEXT = "sin(x1)*y2 + exp(x2*y1)/(2 + x1^2) - y1^3"

    @staticmethod
    def counting_differentiate(monkeypatch):
        calls = []
        original = ex.differentiate

        def counted(e, v):
            calls.append(v)
            return original(e, v)

        monkeypatch.setattr(ex, "differentiate", counted)
        return calls

    def test_equal_trees_share_one_compile(self, monkeypatch):
        text = "x1*y1 - cos(x2)*y2^2"
        a, b = ex.parse(text, 2), ex.parse(text, 2)
        assert a is not b and a == b
        calls = self.counting_differentiate(monkeypatch)
        ja, jb = ex.JetEvaluator(a), ex.JetEvaluator(b)
        assert ja._compiled is jb._compiled
        assert len(calls) == 4  # one gradient, differentiated once

    def test_entry_goes_with_the_last_reference(self):
        text = "exp(y1)/(3 + x1^2)"
        probe = ex.parse(text, 1)
        gc.disable()  # plain reference counting must free the entry
        try:
            e = ex.parse(text, 1)
            jet = ex.JetEvaluator(e)
            freed = weakref.ref(e)
            assert probe in ex._COMPILED_JETS
            del e, jet
            assert freed() is None
            assert probe not in ex._COMPILED_JETS
        finally:
            gc.enable()

    def test_regime_rates_free_their_jet_without_a_collection(self):
        # a generated function is popped from its exec namespace, so no
        # reference cycle keeps it alive; the rates inline the gradient, so
        # they do not keep the jet they were generated from
        text = "x1*y1 - sin(y1)/7"
        probe = ex.parse(text, 1)
        gc.disable()
        try:
            spec = FlowSpec(ex.parse(text, 1), 1, 0.5)
            rates = _regime_rates(spec)
            want = rates([0.3, 0.4])
            assert probe in ex._COMPILED_JETS
            del spec
            assert probe not in ex._COMPILED_JETS
            assert rates([0.3, 0.4]) == want
            probe = weakref.ref(rates)
            del rates
            assert probe() is None
        finally:
            gc.enable()

    def test_morse_system_frees_its_jet_without_a_collection(self):
        n = 2
        spec = MorseSpec(n, ex.parse("x2/3", n), [ex.parse("x1^2 + x2^2 - 1", n), ex.parse("0", n)],
                         ex.parse("y2^2/5", n), q=0.625)
        probe = build_hamiltonian(spec)
        gc.disable()
        try:
            system = _System(spec, MorseOptions())
            system.rhs([0.1, 0.9, -0.5, 0.2])
            assert probe in ex._COMPILED_JETS
            del system
            assert probe not in ex._COMPILED_JETS
        finally:
            gc.enable()

    def test_add_and_sub_hash_alike_but_compile_apart(self):
        x, y = ex.var("x", 1, 1), ex.var("y", 1, 1)
        plus, minus = ex.Add(1, x, y), ex.Sub(1, x, y)
        assert hash(plus) == hash(minus) and plus != minus
        jp, jm = ex.JetEvaluator(plus), ex.JetEvaluator(minus)
        assert jp._compiled is not jm._compiled
        assert (jp.value([1.0, 2.0]), jm.value([1.0, 2.0])) == (3.0, -1.0)
        assert list(jm.gradient([1.0, 2.0])) == [1.0, -1.0]

    def test_hessian_compiled_on_first_use_and_bit_identical(self, rng, monkeypatch):
        e = ex.parse(self.TEXT, 2)
        calls = self.counting_differentiate(monkeypatch)
        jet = ex.JetEvaluator(e)
        assert len(calls) == 4 and "hessian" not in vars(jet._compiled)
        z = random_point(rng, 2)
        lazy = jet.hessian(z)
        assert len(calls) == 4 + 10
        jet.hessian(z)
        assert len(calls) == 4 + 10

        # the Hessian as compiled eagerly, before compiles were shared
        variables = [("x", 1), ("x", 2), ("y", 1), ("y", 2)]
        grads = [ex.differentiate(e, v) for v in variables]
        pairs = [(i, j) for i in range(4) for j in range(i, 4)]
        flat = ex.compile_vector([ex.differentiate(grads[i], variables[j]) for i, j in pairs])(z)
        eager = np.empty((4, 4))
        for (i, j), value in zip(pairs, flat):
            eager[i, j] = eager[j, i] = value
        assert (lazy == eager).all()

    def test_value_compiled_on_first_use_and_shared(self, rng, monkeypatch):
        text = "x1*y2^2 - cos(y1)/(2 + x2^2)"
        z = random_point(rng, 2)
        want = ex.compile_scalar(ex.parse(text, 2))(z)
        compiles = []
        original = ex.compile_scalar
        monkeypatch.setattr(ex, "compile_scalar", lambda e: compiles.append(e) or original(e))
        jet = ex.JetEvaluator(ex.parse(text, 2))
        assert compiles == [] and jet._compiled.value is None
        assert jet.value(z) == want
        assert len(compiles) == 1
        assert jet.value(z) == want
        other = ex.JetEvaluator(ex.parse(text, 2))  # an equal tree shares the compile
        assert other._compiled is jet._compiled and other.value(z) == want
        assert len(compiles) == 1

    def test_threads_building_equal_jets_agree(self):
        # library users may build evaluators of equal expressions from several threads at once
        text = "x1^2*y1 + sin(y1)/(2 + cos(x1))"
        z = [0.3, -0.7]
        want = ex.JetEvaluator(ex.parse(text, 1))
        want = (list(want.gradient(z)), want.hessian(z).tolist())
        results, errors = [], []

        def build():
            try:
                for _ in range(20):
                    jet = ex.JetEvaluator(ex.parse(text, 1))
                    results.append((list(jet.gradient(z)), jet.hessian(z).tolist()))
            except Exception as err:  # reported by the assertion below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert results == [want] * 120

    def test_bracket_runs_repeat_their_differentiations(self, monkeypatch):
        doc = {"n": 2, "seed": 7, "q_list": [0.5, 2.0], "pairs": 4, "points": 2, "jacobi_triples": 1}
        calls = self.counting_differentiate(monkeypatch)
        counts = []
        for _ in range(2):
            before = len(calls)
            _run_bracket(doc, {})
            counts.append(len(calls) - before)
        assert counts[0] == counts[1] > 0


# The constructors and the derivative as they were when two constants were
# folded before the 0/1 identities were tested; neg, call and const are
# unchanged since.


def _ref_is_const(e, value):
    return isinstance(e, ex.Const) and e.value == value


def ref_add(a, b):
    n = ex._join_n(a, b)
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(n, a.value + b.value)
    if _ref_is_const(a, 0):
        return b
    if _ref_is_const(b, 0):
        return a
    return ex.Add(n, a, b)


def ref_sub(a, b):
    n = ex._join_n(a, b)
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(n, a.value - b.value)
    if _ref_is_const(b, 0):
        return a
    if _ref_is_const(a, 0):
        return ex.neg(b)
    return ex.Sub(n, a, b)


def ref_mul(a, b):
    n = ex._join_n(a, b)
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(n, a.value * b.value)
    if _ref_is_const(a, 0) or _ref_is_const(b, 0):
        return ex.Const(n, Fraction(0))
    if _ref_is_const(a, 1):
        return b
    if _ref_is_const(b, 1):
        return a
    return ex.Mul(n, a, b)


def ref_div(a, b):
    n = ex._join_n(a, b)
    if _ref_is_const(b, 0):
        raise ex.ExprError("division by constant zero")
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(n, a.value / b.value)
    if _ref_is_const(b, 1):
        return a
    if _ref_is_const(a, 0):
        return ex.Const(n, Fraction(0))
    return ex.Div(n, a, b)


def ref_powi(base, exponent):
    if exponent == 0:
        return ex.Const(base.n, Fraction(1))
    if exponent == 1:
        return base
    if isinstance(base, ex.Const):
        if base.value == 0 and exponent < 0:
            raise ex.ExprError("constant zero raised to a negative power")
        return ex.Const(base.n, base.value ** exponent)
    return ex.Pow(base.n, base, exponent)


def ref_diff(e, kind, index, memo):
    out = memo.get(id(e))
    if out is not None:
        return out
    n = e.n
    if isinstance(e, ex.Const):
        out = ex.Const(n, Fraction(0))
    elif isinstance(e, ex.Var):
        out = ex.Const(n, Fraction(1 if e.kind == kind and e.index == index else 0))
    elif isinstance(e, ex.Add):
        out = ref_add(ref_diff(e.a, kind, index, memo), ref_diff(e.b, kind, index, memo))
    elif isinstance(e, ex.Sub):
        out = ref_sub(ref_diff(e.a, kind, index, memo), ref_diff(e.b, kind, index, memo))
    elif isinstance(e, ex.Mul):
        da, db = ref_diff(e.a, kind, index, memo), ref_diff(e.b, kind, index, memo)
        out = ref_add(ref_mul(da, e.b), ref_mul(e.a, db))
    elif isinstance(e, ex.Div):
        da, db = ref_diff(e.a, kind, index, memo), ref_diff(e.b, kind, index, memo)
        out = ref_div(ref_sub(ref_mul(da, e.b), ref_mul(e.a, db)), ref_powi(e.b, 2))
    elif isinstance(e, ex.Pow):
        dbase = ref_diff(e.base, kind, index, memo)
        out = ref_mul(ref_mul(ex.const(e.exponent, n), ref_powi(e.base, e.exponent - 1)), dbase)
    elif isinstance(e, ex.Neg):
        out = ex.neg(ref_diff(e.a, kind, index, memo))
    elif isinstance(e, ex.Call):
        darg = ref_diff(e.arg, kind, index, memo)
        if e.func == "sin":
            outer = ex.call("cos", e.arg)
        elif e.func == "cos":
            outer = ex.neg(ex.call("sin", e.arg))
        else:
            outer = ex.call("exp", e.arg)
        out = ref_mul(outer, darg)
    memo[id(e)] = out
    return out


N_RANDOM = 2
_CONSTANTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
_BINARY = st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div])


def _random_trees(constants, exponents):
    """Raw trees over x1, x2, y1, y2 and the leaf ``constants``, with powers
    to the integer ``exponents`` range."""
    leaves = st.one_of(
        st.sampled_from(constants).map(lambda c: ex.Const(N_RANDOM, c)),
        st.builds(
            lambda kind, index: ex.Var(N_RANDOM, kind, index),
            st.sampled_from("xy"),
            st.integers(1, N_RANDOM),
        ),
    )

    def extend(children):
        # every node kind, built raw so that unfolded constants occur; a binary
        # node over one child twice makes the tree a DAG
        return st.one_of(
            st.builds(lambda cls, a, b: cls(N_RANDOM, a, b), _BINARY, children, children),
            st.builds(lambda cls, a: cls(N_RANDOM, a, a), _BINARY, children),
            st.builds(lambda a, k: ex.Pow(N_RANDOM, a, k), children, st.integers(*exponents)),
            st.builds(lambda a: ex.Neg(N_RANDOM, a), children),
            st.builds(
                lambda f, a: ex.Call(N_RANDOM, f, a), st.sampled_from(ex.FUNCTIONS), children
            ),
        )

    return st.recursive(leaves, extend, max_leaves=10)


RANDOM_TREES = _random_trees(_CONSTANTS, (-2, 3))
RANDOM_POINTS = st.lists(st.floats(-2.0, 2.0), min_size=2 * N_RANDOM, max_size=2 * N_RANDOM)


def _outcome(build):
    """The text of the built tree, or the type of the error it raised."""
    try:
        return ex.to_text(build())
    except (ArithmeticError, ex.ExprError) as err:
        return type(err)


def _all_nodes(e):
    seen, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(v for v in vars(node).values() if isinstance(v, ex.Node))
    return list(seen.values())


class TestConstructorsAndHashes:
    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(RANDOM_TREES)
    def test_partials_equal_folding_first_construction(self, e):
        for v in ex._variable_list(N_RANDOM):
            got = _outcome(lambda: ex.differentiate(e, v))
            assert got == _outcome(lambda: ref_diff(e, *v, {}))
            if isinstance(got, str):
                assert ex.differentiate(e, v) == ref_diff(e, *v, {})

    @settings(
        max_examples=200, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(RANDOM_TREES, RANDOM_POINTS)
    def test_compiled_gradient_equals_oracle_and_hashes_are_the_fields(self, e, z):
        try:
            want = evaluate_jet(e, z).gradient.tolist()
        except (ArithmeticError, ValueError):  # a pole, an overflow, a domain error
            want = None
        assume(want is not None and all(map(math.isfinite, want)))
        jet = ex.JetEvaluator(e)
        assert list(jet.gradient(z)) == want
        for node in _all_nodes(e) + [n for g in jet._compiled.grads for n in _all_nodes(g)]:
            fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
            assert hash(node) == hash(fields)

    def test_a_pickled_node_hashes_afresh(self):
        # str hashes differ between processes, so a cached hash is not pickled
        e = ex.parse("x1*y1 + sin(x1)", 1)
        hash(e)
        assert "_hash" not in e.__reduce_ex__(2)[2]
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and hash(copy) == hash(e)


_X1, _Y1 = ex.Var(N_RANDOM, "x", 1), ex.Var(N_RANDOM, "y", 1)
NODE_FIELDS = {
    ex.Const: (N_RANDOM, Fraction(-3, 4)),
    ex.Var: (N_RANDOM, "y", 2),
    ex.Add: (N_RANDOM, _X1, _Y1),
    ex.Sub: (N_RANDOM, _X1, _Y1),
    ex.Mul: (N_RANDOM, _X1, _Y1),
    ex.Div: (N_RANDOM, _X1, _Y1),
    ex.Pow: (N_RANDOM, _X1, -3),
    ex.Neg: (N_RANDOM, _Y1),
    ex.Call: (N_RANDOM, "sin", _X1),
}


class TestNodes:
    # nodes are built by a generated __init__, not the dataclass's; they must
    # keep the frozen dataclass's semantics
    @pytest.mark.parametrize("cls", list(NODE_FIELDS), ids=lambda cls: cls.__name__)
    def test_frozen_and_built_like_the_dataclass(self, cls):
        values = NODE_FIELDS[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        assert len(names) == len(values)
        node = cls(*values)
        assert tuple(getattr(node, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == node
        for name in names + ["other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, 0)
        with pytest.raises(TypeError):
            cls(*values[:-1])
        for other in (dataclasses.replace(node), copy.deepcopy(node),
                      pickle.loads(pickle.dumps(node))):
            assert type(other) is cls and other == node and other is not node
            assert hash(other) == hash(node) == hash(values)


def _exp(a):
    return ex.Call(N_RANDOM, "exp", a)


_OVERFLOW = _exp(_exp(_exp(_X1)))  # exp(exp(e^2)) = exp(1618.2) at x1 = 2
_E700 = _exp(ex.Const(N_RANDOM, Fraction(700)))
_INF = ex.Mul(N_RANDOM, _E700, _E700)  # exp(700)^2 overflows to inf


class TestEvaluate:
    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(RANDOM_TREES, RANDOM_POINTS)
    @example(_OVERFLOW, [2.0, 0.0, 0.0, 0.0])
    @example(ex.Div(N_RANDOM, _OVERFLOW, _Y1), [2.0, 0.0, 0.0, 0.0])  # overflow before the pole
    @example(ex.Div(N_RANDOM, _Y1, _OVERFLOW), [2.0, 0.0, 0.0, 0.0])
    @example(ex.Call(N_RANDOM, "sin", _INF), [0.0, 0.0, 0.0, 0.0])  # sin(inf): a domain error
    @example(ex.Sub(N_RANDOM, _INF, _INF), [0.0, 0.0, 0.0, 0.0])  # inf - inf: a nan
    def test_evaluate_equals_a_plain_walk(self, e, z):
        # the walk evaluates operands left to right and a shared subtree once
        # per path; evaluate gives its bits, and raises where it raises
        try:
            want = tree_evaluate(e, z)
        except ZeroDivisionError:
            with pytest.raises(ex.EvalError):
                ex.evaluate(e, z)
            return
        except Exception as err:  # an overflow or a math domain error
            with pytest.raises(Exception) as raised:
                ex.evaluate(e, z)
            assert raised.type is type(err)
            return
        assert struct.pack("<d", ex.evaluate(e, z)) == struct.pack("<d", want)


def _binary_power(v):
    """Whether the Fraction v is +-2^k."""
    return v != 0 and bin(abs(v.numerator)).count("1") == bin(v.denominator).count("1") == 1


def _has_float(v):
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _fold(e):
    """``(c, core)`` where the chain of constant scalings headed by ``e``
    prints as ``c*core`` (``core`` if c = 1) by the rule of to_text's
    docstring, else None: two or more Mul and Div nodes by a constant, each
    divisor +-2^k and at most one constant not, or a constant with no
    finite float; c exact and float(c) normal."""
    factors, divisors = [], []
    while True:
        if isinstance(e, ex.Mul) and isinstance(e.a, ex.Const):
            factors.append(e.a.value)
            e = e.b
        elif isinstance(e, ex.Mul) and isinstance(e.b, ex.Const):
            factors.append(e.b.value)
            e = e.a
        elif isinstance(e, ex.Div) and isinstance(e.b, ex.Const):
            divisors.append(e.b.value)
            e = e.a
        else:
            break
    if len(factors) + len(divisors) < 2 or 0 in divisors:
        return None
    exact = (all(map(_binary_power, divisors))
             and sum(not _binary_power(v) for v in factors) <= 1)
    if not exact and all(map(_has_float, factors + divisors)):
        return None
    c = Fraction(1)
    for v in factors:
        c *= v
    for v in divisors:
        c /= v
    try:
        f = float(c)
    except OverflowError:
        return None
    return None if abs(f) < sys.float_info.min else (c, e)


def _codegen(e, floats=True, fold=False):
    """The fully parenthesized Python source of ``e``: the reference for the
    printer's Python source, ``to_text(e, coordinate_names("z[{}]", e.n))``.
    A constant c is written as ``repr(float(c))`` where float(c) is finite
    and exactly otherwise; with ``floats`` False every constant is written
    exactly, as the compiled functions were once generated.  With ``fold``
    a chain that _fold folds is written ``((c)*core)``, or ``core`` if c = 1."""
    if fold and isinstance(e, (ex.Mul, ex.Div)):
        chain = _fold(e)
        if chain is not None:
            c, core = chain
            core = _codegen(core, floats, fold)
            return core if c == 1 else f"(({float(c)!r})*{core})"
    if isinstance(e, ex.Const):
        v = e.value
        if floats:
            try:
                return f"({float(v)!r})"
            except OverflowError:
                pass
        if v.denominator == 1:
            return f"({v.numerator})"
        return f"({v.numerator}/{v.denominator})"
    if isinstance(e, ex.Var):
        offset = 0 if e.kind == "x" else e.n
        return f"z[{offset + e.index - 1}]"
    if isinstance(e, ex.Add):
        return f"({_codegen(e.a, floats, fold)}+{_codegen(e.b, floats, fold)})"
    if isinstance(e, ex.Sub):
        return f"({_codegen(e.a, floats, fold)}-{_codegen(e.b, floats, fold)})"
    if isinstance(e, ex.Mul):
        return f"({_codegen(e.a, floats, fold)}*{_codegen(e.b, floats, fold)})"
    if isinstance(e, ex.Div):
        return f"({_codegen(e.a, floats, fold)}/{_codegen(e.b, floats, fold)})"
    if isinstance(e, ex.Pow):
        return f"({_codegen(e.base, floats, fold)}**({e.exponent}))"
    if isinstance(e, ex.Neg):
        return f"(-{_codegen(e.a, floats, fold)})"
    if isinstance(e, ex.Call):
        return f"{e.func}({_codegen(e.arg, floats, fold)})"
    raise TypeError(f"not an expression node: {e!r}")


# the float of 2**53 + 1 rounds; 1/10**400 underflows to 0.0; 10**400 has none
_EDGE_CONSTANTS = [Fraction(-7, 3), Fraction(10**20), Fraction(2**53 + 1),
                   Fraction(1, 10**400), Fraction(10**400)]
SOURCE_TREES = _random_trees(
    _CONSTANTS + [Fraction(-1, 2), Fraction(3)] + _EDGE_CONSTANTS, (-3, 3)
)


def _bits(f, z):
    """The doubles that f(z) returns, as bytes, or the type of the error
    that f(z) or float() of its result raised."""
    try:
        out = f(z)
        return [struct.pack("<d", float(v)) for v in (out if isinstance(out, (tuple, list)) else [out])]
    except (ArithmeticError, ValueError) as err:  # a pole, an overflow, a domain error
        return type(err)


def _int_literal_functions(entries, jet, pairs):
    """compile_scalar of entries[0], compile_vector of entries and
    compile_scaled of jet and pairs, from the exact-constant source."""
    old = [_codegen(e, floats=False) for e in entries]
    grads = ", ".join(_codegen(e, floats=False) for e in jet.derivatives)
    scaled = ", ".join(f"{c!r} * g[{i}]" for c, i in pairs)
    bodies = [f"return {old[0]}", f"return ({', '.join(old)},)",
              f"g = ({grads},)\n    return [{scaled}]"]
    return [ex.define(f"def _f(z):\n    {body}\n", "_f", __name__) for body in bodies]


_X2 = ex.Var(N_RANDOM, "x", 2)


class TestPrinter:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(SOURCE_TREES)
    # a chain that folds: -1.0*z[2], not (((-2.0)*z[2])/(2.0))
    @example(ex.div(ex.mul(ex.const(-2, 2), ex.var("y", 1, 2)), ex.const(2, 2)))
    def test_python_source_parses_as_the_fully_parenthesized_source(self, e):
        # equal ASTs compile to equal code
        source = ex.to_text(e, ex.coordinate_names("z[{}]", e.n))
        oracle = _codegen(e, fold=True)
        assert ast.dump(ast.parse(source)) == ast.dump(ast.parse(oracle))
        # how a fused loop inlines an entry of a compiled rhs (dynamics._stage):
        # c * (e), or (e) where the scale is +-1
        for entry in ("-0.5 * ({})", "({})"):
            assert ast.dump(ast.parse(entry.format(source))) == \
                ast.dump(ast.parse(entry.format(oracle)))

    @settings(
        max_examples=400, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(st.one_of(RANDOM_TREES, SOURCE_TREES), RANDOM_POINTS)
    @example(ex.Mul(N_RANDOM, _X1, ex.Const(N_RANDOM, Fraction(-7, 3))), [0.3, 0.0, -1.5, 2.0])
    @example(ex.Add(N_RANDOM, _X1, ex.Const(N_RANDOM, Fraction(10**20))), [0.7, 0.0, 0.0, 0.0])
    @example(ex.Add(N_RANDOM, _X1, ex.Const(N_RANDOM, Fraction(2**53 + 1))), [3.0, 0.0, 0.0, 0.0])
    @example(ex.Mul(N_RANDOM, _X1, ex.Const(N_RANDOM, Fraction(1, 10**400))), [-1.0, 0.0, 0.0, 0.0])
    # a whole-entry 0: -1.0 * (0.0) is -0.0, as -1.0 * (0) was
    @example(ex.Mul(N_RANDOM, _X2, ex.Const(N_RANDOM, Fraction(3))), [0.5, 0.25, 0.0, 0.0])
    # no finite float: the exact text, whose use raises OverflowError on
    # both sides; as a whole entry it is the int on both, which float() refuses
    @example(ex.Mul(N_RANDOM, _X1, ex.Const(N_RANDOM, Fraction(10**400))), [1.0, 0.0, 0.0, 0.0])
    @example(ex.Const(N_RANDOM, Fraction(10**400)), [1.0, 0.0, 0.0, 0.0])
    def test_compiled_values_keep_the_bits_of_the_int_literal_source(self, e, z):
        # the trees the constructors build, in which no constant meets a
        # constant; the entries are e and its partials in x1 and x2, and the
        # scaled entries three of the four partials of e's jet
        try:
            e = ex.parse(ex.to_text(e), e.n)
        except ex.ExprError:
            assume(False)
        entries = [e, ex.differentiate(e, ("x", 1)), ex.differentiate(e, ("x", 2))]
        jet, pairs = ex.JetEvaluator(e), [(2.5, 0), (-1.0, 1), (-1.0, 2)]
        new = [ex.compile_scalar(e), ex.compile_vector(entries),
               ex.compile_scaled(jet, pairs, __name__)]
        for f, old in zip(new, _int_literal_functions(entries, jet, pairs)):
            assert _bits(f, z) == _bits(old, z)


_POWERS_OF_TWO = st.builds(lambda sign, k: sign * Fraction(2) ** k,
                           st.sampled_from([1, -1]), st.integers(-60, 60))
_ORDINARY = st.sampled_from([Fraction(3), Fraction(-5), Fraction(7, 3), Fraction(1, 10),
                             Fraction(-2, 3), Fraction(10**20), Fraction(1, 3**30)])
_CHAIN_CORES = ["x1", "sin(x2)", "x1*y1 + 1", "exp(y2)/3", "(x1 - y2)^2"]


def _chain(core, links):
    """The raw chain of Mul and Div nodes by the constants of ``links``
    ((side, c): c*e for "l", e*c for "r", e/c for "d") around the parsed
    ``core``, and its nodes from the outermost to the core."""
    nodes = [ex.parse(core, N_RANDOM)]
    for side, c in links:
        k, e = ex.Const(N_RANDOM, c), nodes[0]
        nodes.insert(0, ex.Mul(N_RANDOM, k, e) if side == "l" else
                     ex.Mul(N_RANDOM, e, k) if side == "r" else ex.Div(N_RANDOM, e, k))
    return nodes


CHAINS = st.builds(_chain, st.sampled_from(_CHAIN_CORES), st.lists(
    st.tuples(st.sampled_from("lrd"), st.one_of(_POWERS_OF_TWO, _ORDINARY)),
    min_size=1, max_size=5))


def _source(e, names=ex.coordinate_names("z[{}]", N_RANDOM)):
    return ex.to_text(e, names)


class TestChainFold:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(CHAINS, RANDOM_POINTS)
    @example(_chain("x1", [("r", Fraction(2)), ("r", Fraction(2)), ("d", Fraction(4))]),
             [0.3, 0.0, 0.0, 0.0])
    @example(_chain("y2", [("l", Fraction(1, 10)), ("d", Fraction(-8)), ("l", Fraction(2**40))]),
             [0.0, 0.0, 0.0, -1.7])
    def test_folded_source_keeps_the_bits_of_the_unfolded_source(self, nodes, z):
        # [DERIVED] scaling by +-2^k is exact, so wherever no intermediate
        # overflows or is subnormal the folded c*core rounds as the chain
        unfolded = [ex.define(f"def _f(z):\n    return {_codegen(e)}\n", "_f", __name__)
                    for e in nodes]
        values = [f(z) for f in unfolded]
        assume(all(math.isfinite(v) and (v == 0 or abs(v) >= sys.float_info.min)
                   for v in values))
        folded = ex.compile_scalar(nodes[0])
        assert struct.pack("<d", folded(z)) == struct.pack("<d", values[0])

    @pytest.mark.parametrize("text, source", [
        ("x1*2*2/4", "z[0]"),
        ("3*(x1/4)", "0.75*z[0]"),
        ("x1/2*3", "1.5*z[0]"),
        ("-2*(y1/8)", "-0.25*z[2]"),
        ("(x1 + y1)*2/2", "(z[0] + z[2])"),
        ("x2*y2*4/2", "2.0*(z[1]*z[3])"),
        # two constants that are not +-2^k, or a divisor that is not
        ("3*(5*x1)", "3.0*(5.0*z[0])"),
        ("x1*2/3", "z[0]*2.0/3.0"),
        ("x1*3/2*5", "1.5*z[0]*5.0"),  # the inner chain x1*3/2 folds
        ("x1/4/3", "z[0]/4.0/3.0"),
        # a one-node chain, and scalings apart from one another
        ("x1/2", "z[0]/2.0"),
        ("2*sin(x1/2)", "2.0*sin(z[0]/2.0)"),
        ("2*-(x1*2)", "2.0*-(z[0]*2.0)"),
    ])
    def test_which_chains_fold(self, text, source):
        e = ex.parse(text, N_RANDOM)
        assert _source(e) == source
        assert ex.to_text(e) == ex.to_text(ex.parse(ex.to_text(e), N_RANDOM))  # trees unchanged

    def test_oscillator_gradient_is_the_coordinates(self):
        # the quotient rule gives d/dx1 (x1^2 + y1^2)/2 = (2*x1)*2/4
        e = ex.parse("(x1^2 + y1^2)/2", 1)
        names = ex.coordinate_names("z[{}]", 1)
        assert [ex.to_text(ex.differentiate(e, v), names) for v in (("x", 1), ("y", 1))] == \
            ["z[0]", "z[1]"]
        assert ex.to_text(ex.differentiate(e, ("x", 1))) == "2*x1*2/4"

    @pytest.mark.parametrize("x1", [-3.0, 0.0, 0.5, 2.0, 700.0])
    def test_constants_with_no_float_fold_to_a_finite_one(self, x1):
        # d/dx1 exp(x1)/10^300 is exp(x1)*10^300/10^600: 10^600 has no
        # float, so the unfolded gradient raised OverflowError at every point
        jet = ex.JetEvaluator(ex.parse("y1 + exp(x1)/10^300", 1))
        assert _source(jet.derivatives[0], ex.coordinate_names("z_{}", 1)) == "1e-300*exp(z_0)"
        gradient = jet.gradient([x1, 1.0])
        want = float(Fraction(1, 10**300)) * math.exp(x1)
        assert struct.pack("<dd", *gradient) == struct.pack("<dd", want, 1.0)

    def test_a_fold_with_no_normal_float_keeps_the_chain(self):
        # c = 10^-400 underflows, so the chain keeps its nodes and still raises
        e = ex.parse("exp(x1)*10^400/10^800", 1)
        assert _source(e, ex.coordinate_names("z_{}", 1)) == f"exp(z_0)*{10**400}/{10**800}"
        with pytest.raises(OverflowError):
            ex.compile_scalar(e)([0.0, 0.0])


class TestOneExec:
    def test_exec_only_in_define_and_callbacks_name_their_module(self):
        # one exec site: the no-cycle pop and the module name live in expr.define
        src = Path(ex.__file__).parent
        sites = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
                 for line in path.read_text().splitlines() if "exec(" in line]
        assert sites == [("expr.py", "exec(source, namespace)")]
        assert "exec(source, namespace)" in inspect.getsource(ex.define)
        # a tracer charges a generated callback to the layer its __module__ names
        field = HamiltonianField(ex.parse("x1*y1 + y1^2/2", 1), 0.5)
        assert field.compiled_field.__module__ == "defham.dynamics"
        rk4, rkf45 = _rk4_loop(3, None, _CALL_WATCH), _rkf45_loop(3, None, _CALL_WATCH)
        assert rk4.__module__ == rkf45.__module__ == "defham.dynamics"
        spec = MorseSpec(2, ex.parse("x2/3", 2), [ex.parse("x1^2 + x2^2 - 1", 2), ex.parse("0", 2)],
                         ex.parse("y2^2/5", 2), q=0.5)
        assert _System(spec, MorseOptions()).rhs.__module__ == "defham.morse"
