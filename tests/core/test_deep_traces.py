"""Deep traces must never hit Python's recursion limit.

Loop programs grow concrete-trace DAGs thousands of levels deep — far
beyond the default recursion limit — while the *visible* (depth-
bounded) expression stays small.  Every trace traversal
(``structural_key``, ``node_count``, deep-marking, the initial
conversion, the merge, value collection) is iterative; these tests
pin that, at and beyond the bound, under both engines — and that the
compiled engine's pooled anti-unification walk matches the reference
node walk there.
"""

import sys

import pytest

from repro.core import AnalysisConfig, analyze_program
from repro.core.antiunify import Generalization, collect_variable_values
from repro.core.trace import (
    TracePool,
    const_leaf,
    input_leaf,
    node_count,
    op_node,
    structural_key,
)
from repro.machine import FunctionBuilder, Program


class Nodes:
    """Builds structured trace nodes (the reference engine's traces)."""

    def input(self, value):
        return input_leaf(value, 0)

    def const(self, value):
        return const_leaf(value)

    def op(self, op, args, value, loc):
        return op_node(op, args, value, loc=loc)


class Pooled:
    """Interns the same traces through a :class:`TracePool` (the
    compiled engine's trace store), one execution per trace."""

    def __init__(self, max_depth):
        self.pool = TracePool(levels_depth=max_depth)
        self.sites = {}

    def begin(self):
        self.pool.begin_execution()

    def input(self, value):
        return self.pool.input_ident(value, 0)

    def const(self, value):
        return self.pool.const_ident(value)

    def op(self, op, args, value, loc):
        site = self.sites.setdefault(loc, len(self.sites))
        return self.pool.op_ident(op, args, value, loc=loc, site=site)


def build_chain(b, depth, salt=0.0):
    """A trace chain `(+ (+ ... x0 ...) 0.5)` of the given depth."""
    node = b.input(1.0)
    for level in range(depth - 1):
        node = b.op("+", (node, b.const(0.5)), float(level) + salt,
                    f"l:{level}")
    return node


def build_shared(b, share, salt=0.0):
    """`(- (* ... bottom ...) (+ x0 0.5))` with the bottom at depth 21,
    one past the default bound.  With ``share`` the bottom *is* the
    right operand, which then occurs past the bound and is truncated
    at its shallow position too (the plotter pattern); otherwise the
    bottom is a distinct op and the right operand stays expanded."""
    x0 = b.input(1.0)
    right = b.op("+", (x0, b.const(0.5)), 1.5 + salt, "s")
    node = right if share else b.op("+", (x0, b.const(0.25)), salt, "z")
    for level in range(19):
        node = b.op("*", (node, b.const(0.5)), float(level) + salt,
                    f"l:{level}")
    return b.op("-", (node, right), salt, "root")


def chain(depth, salt=0.0):
    return build_chain(Nodes(), depth, salt)


class NodeWalk:
    """The reference anti-unification walk over structured nodes."""

    def __init__(self, max_depth=20):
        self.site = Generalization(max_depth=max_depth)
        self.builder = Nodes()

    def update(self, size, salt=0.0, shape=build_chain):
        trace = shape(self.builder, size, salt)
        return self.site.update_with_bindings(trace)


class PooledWalk:
    """The compiled engine's walk: steady-state verification over the
    pool's arrays, bailing out to the full merge on a mismatch."""

    def __init__(self, max_depth=20):
        self.site = Generalization(max_depth=max_depth)
        self.builder = Pooled(max_depth)

    def update(self, size, salt=0.0, shape=build_chain):
        self.builder.begin()
        ident = shape(self.builder, size, salt)
        return self.site.update_with_bindings_pooled(self.builder.pool, ident)


WALKS = [NodeWalk, PooledWalk]

DEEP = sys.getrecursionlimit() * 3


class TestIterativeTraversals:
    def test_structural_key_beyond_recursion_limit(self):
        node = chain(DEEP)
        key = structural_key(node, DEEP)
        assert isinstance(key, tuple)
        # Cached second call returns the identical object.
        assert structural_key(node, DEEP) is key

    def test_node_count_beyond_recursion_limit(self):
        assert node_count(chain(DEEP)) == DEEP - 1

    def test_collect_variable_values_deep_expression(self):
        # An expression as deep as the trace: the collect walk spans it.
        node = chain(DEEP)
        site = Generalization(max_depth=DEEP + 1)
        expression = site.update(node)
        out = {}
        collect_variable_values(expression, node, out)
        assert out["x0"] == 1.0

    @pytest.mark.parametrize("walk", WALKS)
    def test_initial_and_merge_with_huge_depth_bound(self, walk):
        # max_depth at the trace's own scale: _initial and _merge (and
        # the pooled walk's generic verifier) must walk the whole chain
        # without recursing.
        site = walk(max_depth=DEEP + 1)
        first, __ = site.update(DEEP)
        assert first is not None
        merged, bindings = site.update(DEEP, salt=0.25)
        assert merged is not None
        assert bindings["x0"] == 1.0

    @pytest.mark.parametrize("walk", WALKS)
    def test_deep_trace_with_default_bound(self, walk):
        # The everyday case: a trace far beyond max_depth=20.
        site = walk()
        site.update(DEEP)
        expression, bindings = site.update(DEEP, salt=0.25)
        assert expression is not None
        assert "x0" not in bindings  # the input sits beyond the bound


class TestBoundaryParity:
    """The pooled and node walks agree exactly at the truncation bound."""

    @pytest.mark.parametrize("depth", [18, 19, 20, 21, 22, 40])
    def test_expression_identical_at_and_past_the_bound(self, depth):
        for salts in ([0.0, 0.0], [0.0, 0.25], [0.25, 0.5, 0.25]):
            node, pooled = NodeWalk(), PooledWalk()
            for salt in salts:
                expected = node.update(depth, salt=salt)
                actual = pooled.update(depth, salt=salt)
                assert str(actual[0]) == str(expected[0])
                assert actual[1] == expected[1]

    @pytest.mark.parametrize("shares", [
        [False, True], [False, False, True], [True, False, True],
    ])
    def test_shared_node_crossing_the_bound(self, shares):
        # The trace shape is the same each time; only the truncation of
        # the shared right operand changes.  The steady-state walk has
        # to bail out when it does, not accept the expanded operand.
        node, pooled = NodeWalk(), PooledWalk()
        for salt, share in enumerate(shares):
            expected = node.update(share, salt, shape=build_shared)
            actual = pooled.update(share, salt, shape=build_shared)
            assert str(actual[0]) == str(expected[0])
            assert actual[1] == expected[1]


class TestDeepLoopPrograms:
    def run_deep_loop(self, engine, iterations=None):
        if iterations is None:
            iterations = sys.getrecursionlimit() * 2
        fn = FunctionBuilder("main")
        total = fn.const(0.0)
        one = fn.const(1.0)
        count = fn.read()
        i = fn.const(0.0)
        head = fn.label()
        done = fn.fresh_label("done")
        fn.branch("ge", i, count, done)
        fn.mov_to(total, fn.op("+", total, fn.op("/", one, fn.op("+", i, one))))
        fn.mov_to(i, fn.op("+", i, one))
        fn.jump(head)
        fn.label(done)
        fn.out(total)
        fn.halt()
        program = Program()
        program.add(fn.build())
        config = AnalysisConfig(engine=engine)
        return analyze_program(program, [[float(iterations)]], config=config)

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_deep_loop_analysis_and_report(self, engine):
        analysis, outputs = self.run_deep_loop(engine)
        assert outputs[0][0] > 1.0
        # Report generation touches node_count/locations on the last
        # (deep) trace; it must not recurse either.
        from repro.core import generate_report

        report = generate_report(analysis)
        assert report.format()
