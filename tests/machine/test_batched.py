"""Lockstep batched execution: grouping, divergence, byte-identity.

The batched engine's one contract is that turning it on is invisible:
reports are byte-identical to the sequential per-point loop for every
lane pattern — uniform batches, divergent branches splitting the lanes
into sub-batches, loop programs falling back entirely, and the
degenerate one-lane batch.

The column adapters loop the lanes through the per-lane steps, so
their operand columns concentrate on the adversarial geography:
subnormals, signed zeros, infinities, NaN, near-overflow magnitudes,
the Dekker splitting limit, the deep-underflow guard band, division by
zero, negative square roots, exact cancellations, and wide
double-double pairs (operands that are themselves sums, so the kernel
sees a non-zero ``lo``).  Outputs are compared on their raw IEEE
encodings, which distinguish ``-0.0`` from ``0.0`` and one NaN from
another.
"""

import math
import random
import struct

import pytest

from repro.core import AnalysisConfig, EngineFeatures, analyze_program
from repro.fpcore.parser import parse_fpcore
from repro.machine import (
    BatchedProgram,
    FunctionBuilder,
    Program,
    Tracer,
    compile_fpcore,
)
from repro.machine.interpreter import MachineError

BATCHED = EngineFeatures(batched=True)
SEQUENTIAL = EngineFeatures(batched=False)

STRAIGHT = parse_fpcore("(FPCore (x y) (- (+ x y) x))")
BRANCHY = parse_fpcore(
    "(FPCore (x) (if (< x 1.0) (+ x 1e16) (- x 1e16)))"
)
LOOP = parse_fpcore(
    "(FPCore (x) (while (< i 3.0) "
    "([i 0.0 (+ i 1.0)] [acc x (+ acc x)]) acc))"
)

POLICIES = ["fixed", "adaptive"]

SPECIALS = [
    0.0, -0.0, 1.0, -1.0, 1.5, -2.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.ldexp(1.0, 970), math.ldexp(1.0, -960), math.ldexp(1.0, -970),
    math.ldexp(1.0, 1023), math.ldexp(1.0, -1060), 1e16, 1.0 + 2 ** -52,
]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def operand(rng: random.Random) -> float:
    """One lane value: a special, a full-range double, or a mid-range one."""
    shape = rng.randrange(3)
    if shape == 0:
        return rng.choice(SPECIALS)
    if shape == 1:
        value = math.ldexp(rng.random() + 0.5, rng.randint(-1074, 1023))
    else:
        value = math.ldexp(rng.random() + 0.5, rng.randint(-340, 340))
    return -value if rng.random() < 0.5 else value


def wide_pair(rng: random.Random):
    """Inputs ``(h, l)`` whose sum is a double-double with ``lo != 0``."""
    h = math.ldexp(rng.random() + 0.5, rng.randint(-340, 340))
    h = -h if rng.random() < 0.5 else h
    return h, math.ldexp(rng.random() - 0.5, math.frexp(h)[1] - 54)


def signature(analysis):
    """Every externally observable per-site statistic."""
    rows = []
    for record in analysis.candidate_records():
        rows.append((
            record.site_id, record.op, record.loc, record.executions,
            record.candidate_executions, record.max_local_error,
            record.sum_local_error, record.compensations_detected,
            str(record.symbolic_expression),
        ))
    for spot in sorted(
        analysis.spot_records.values(), key=lambda s: s.site_id
    ):
        rows.append((
            spot.site_id, spot.kind, spot.loc, spot.executions,
            spot.erroneous, spot.max_error, spot.sum_error,
            sorted(r.site_id for r in spot.influences),
        ))
    return rows


def run_both(core, points, policy="adaptive", hw_tier=None):
    """Batched vs sequential on ``core``: an FPCore or a built Program."""
    config = AnalysisConfig(precision_policy=policy, hw_tier=hw_tier)
    program = core if isinstance(core, Program) else compile_fpcore(core)
    batched, out_b = analyze_program(
        program, points, config=config, features=BATCHED
    )
    sequential, out_s = analyze_program(
        program, points, config=config, features=SEQUENTIAL
    )
    assert len(out_b) == len(out_s) == len(points)
    for lane, (row_b, row_s) in enumerate(zip(out_b, out_s)):
        assert [bits(v) for v in row_b] == [bits(v) for v in row_s], \
            (lane, points[lane])
    assert batched.runs == sequential.runs == len(points)
    assert signature(batched) == signature(sequential)
    assert batched.tier_residency() == sequential.tier_residency()
    return batched


def run_columns(source, points, policy):
    """``run_both`` on a straight-line program that must batch every lane.

    The hardware tier is pinned on, whatever ``REPRO_HWTIER`` says, so
    the adaptive columns always reach the double-double kernels.
    """
    analysis = run_both(parse_fpcore(source), points, policy, hw_tier=True)
    assert analysis.batched_lanes == len(points)
    return analysis


class TestLockstepParity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_uniform_batch_single_group(self, policy):
        points = [[1e16, 1.5], [2e16, 2.5], [3.0, 4.0], [5.0, 0.5]]
        analysis = run_both(STRAIGHT, points, policy)
        assert analysis.batched_groups == 1
        assert analysis.batched_lanes == 4

    @pytest.mark.parametrize("policy", POLICIES)
    def test_divergent_lanes_split_into_groups(self, policy):
        # Signatures T F T T F: maximal *consecutive* runs give four
        # sub-batches ([0], [1], [2,3], [4]) — never a reordering.
        points = [[0.5], [2.0], [0.25], [0.75], [3.0]]
        analysis = run_both(BRANCHY, points, policy)
        assert analysis.batched_groups == 4
        assert analysis.batched_lanes == 5

    def test_lane_diverging_mid_program(self):
        # Both branches agree on the first comparison but not the
        # second: grouping is by the *whole* signature.
        core = parse_fpcore(
            "(FPCore (x) (if (< x 10.0) "
            "(if (< x 1.0) (+ x 1e16) (- x 1e16)) (* x 2.0)))"
        )
        points = [[0.5], [5.0], [0.25]]
        analysis = run_both(core, points)
        assert analysis.batched_groups == 3

    def test_lane_count_one_degenerate(self):
        # A divergence pattern that isolates every lane: each runs as
        # a one-lane batch and must still be byte-identical.
        points = [[0.5], [2.0], [0.75]]
        analysis = run_both(BRANCHY, points)
        assert analysis.batched_groups == 3
        assert analysis.batched_lanes == 3

    def test_loop_program_falls_back_to_sequential(self):
        analysis = run_both(LOOP, [[1.0], [2.0], [3.0]])
        assert analysis.batched_groups == 0

    def test_single_point_uses_sequential_path(self):
        analysis = run_both(STRAIGHT, [[1e16, 1.5]])
        assert analysis.batched_groups == 0


class TestColumnParity:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("op", ["*", "+", "-", "/"])
    def test_binary_fuzz(self, op, policy):
        # Leaf operands, whose results are the program's outputs, then
        # double-double operands, so the kernel sees wide pairs too.
        rng = random.Random(0x1A0E5 + ord(op[0]))
        leaves = [[operand(rng), operand(rng)] for _ in range(64)]
        run_columns(f"(FPCore (x y) ({op} x y))", leaves, policy)
        pairs = [wide_pair(rng) + wide_pair(rng) for _ in range(48)]
        analysis = run_columns(
            f"(FPCore (a b c d) ({op} (+ a b) (+ c d)))", pairs, policy
        )
        if policy == "adaptive":
            assert analysis.hw_kernel_ops > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cancellation_lanes(self, policy):
        # x + (-x) on wide pairs, with the negated low part present in
        # half the lanes: the exact path must be reproduced per lane.
        rng = random.Random(0x1A0F0)
        points = []
        for _ in range(48):
            h, l = wide_pair(rng)
            points.append([h, l, -l if rng.random() < 0.5 else 0.0])
        source = "(FPCore (h l m) (+ (+ h l) (- (- h) m)))"
        run_columns(source, points, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_division_by_zero_lanes(self, policy):
        dividends = [1.0, -1.0, 0.0, -0.0, math.nan, math.inf, 2.0, 3.0]
        divisors = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 1.0]
        points = [[a, b] for a, b in zip(dividends, divisors)]
        run_columns("(FPCore (x y) (/ x y))", points, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("op", ["fabs", "neg", "sqrt"])
    def test_unary_fuzz(self, op, policy):
        rng = random.Random(0x1A120 + ord(op[0]))
        call = "-" if op == "neg" else op
        leaves = [[operand(rng)] for _ in range(64)]
        run_columns(f"(FPCore (x) ({call} x))", leaves, policy)
        pairs = []
        for _ in range(48):
            a, b = wide_pair(rng)
            pairs.append([abs(a), b])
        analysis = run_columns(
            f"(FPCore (a b) ({call} (+ a b)))", pairs, policy
        )
        if policy == "adaptive":
            assert analysis.hw_kernel_ops > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_negative_sqrt_lanes(self, policy):
        values = [-1.0, 4.0, -0.0, 0.0, -math.inf, math.inf, 2.0, -4.0]
        run_columns("(FPCore (x) (sqrt x))", [[v] for v in values], policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_precision_sites(self, policy):
        # Single-rounded sites narrow the machine result per lane; the
        # last lane's sum rounds past FLOAT32_MAX to infinity.
        fn = FunctionBuilder("main")
        x = fn.read()
        y = fn.read()
        for op in ("+", "*", "/", "-"):
            fn.out(fn.op(op, x, y, single=True))
        for op in ("sqrt", "fabs", "neg"):
            fn.out(fn.op(op, x, single=True))
        fn.out(fn.op("+", x, y))
        fn.halt()
        program = Program()
        program.add(fn.build())
        rng = random.Random(0x1A5E1)
        points = [[operand(rng), operand(rng)] for _ in range(51)]
        points.append([3e38, 3e38])
        analysis = run_both(program, points, policy)
        assert analysis.batched_lanes == len(points)
        config = AnalysisConfig(precision_policy=policy)
        reference, out_r = analyze_program(
            program, points, config=config.with_(engine="reference"),
        )
        _, out_b = analyze_program(
            program, points, config=config, features=BATCHED
        )
        assert [[bits(v) for v in row] for row in out_r] \
            == [[bits(v) for v in row] for row in out_b]
        assert out_b[-1][0] == math.inf
        assert signature(reference) == signature(analysis)
        assert reference.tier_residency() == analysis.tier_residency()


class TestStaticEligibility:
    def test_loop_program_is_ineligible(self):
        program = compile_fpcore(LOOP)
        assert BatchedProgram.compile(program, Tracer()) is None

    def test_straight_line_is_eligible(self):
        program = compile_fpcore(STRAIGHT)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched is not None
        # Lane 0 exhibits the rounding the analysis exists to find:
        # (1e16 + 1.5) - 1e16 is 2.0 in doubles.
        assert batched.run_points([[1e16, 1.5], [3.0, 4.0]]) == [
            [2.0], [4.0]
        ]

    def test_forward_branches_are_eligible(self):
        program = compile_fpcore(BRANCHY)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched is not None
        out = batched.run_points([[0.5], [2.0]])
        assert out == [[0.5 + 1e16], [2.0 - 1e16]]
        assert batched.groups_run == 2

    def test_empty_point_list(self):
        program = compile_fpcore(STRAIGHT)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched.run_points([]) == []


class TestErrorFallback:
    def test_probe_failure_returns_none(self):
        # Too few inputs: the probe lane raises, run_points reports
        # None, and nothing was aggregated.
        program = compile_fpcore(BRANCHY)
        batched = BatchedProgram.compile(program, Tracer())
        assert batched.run_points([[0.5], []]) is None

    def test_ragged_inputs_match_sequential_error(self):
        # Straight-line programs skip the probe, so the failure
        # surfaces mid-batch; the driver must reproduce the
        # sequential behaviour (raise on the short lane).
        program = compile_fpcore(STRAIGHT)
        config = AnalysisConfig()
        with pytest.raises(MachineError) as batched_err:
            analyze_program(
                program, [[1.0, 2.0], [1.0]], features=BATCHED
            )
        with pytest.raises(MachineError) as sequential_err:
            analyze_program(
                program, [[1.0, 2.0], [1.0]], features=SEQUENTIAL
            )
        assert str(batched_err.value) == str(sequential_err.value)


class TestEnvironmentSwitch:
    def test_repro_batched_off_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCHED", "0")
        assert not EngineFeatures.for_engine("compiled").batched

    def test_repro_batched_on_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCHED", raising=False)
        assert EngineFeatures.for_engine("compiled").batched
        assert not EngineFeatures.for_engine("reference").batched
