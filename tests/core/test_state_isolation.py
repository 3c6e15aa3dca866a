"""Analysis-state isolation: no leakage between runs or sessions.

Two guards this suite pins:

* **Counter freshness** — every ``HerbgrindAnalysis`` starts with zero
  engine counters (pipeline stage and tier-residency counters),
  and repeated ``analyze_batch`` calls through one session never see a
  previous analysis' counts.
* **Pool memory** — the ident-first :class:`~repro.core.trace.TracePool`
  resets its flat arrays per execution: its live size after an analysis
  is bounded by *one* run's unique nodes, and repeated batch iterations
  do not grow it.
"""

import dataclasses

from repro.api import AnalysisSession
from repro.core import AnalysisConfig, EngineFeatures, analyze_program
from repro.core.analysis import HerbgrindAnalysis, PipelineStageCounters
from repro.fpcore import parse_fpcore
from repro.machine import compile_fpcore

LOOP = """(FPCore (x n) :name "iso-loop" :pre (and (<= 1 x 2) (<= 20 n 40))
    (while (<= i n) ([i 1 (+ i 1)]
                     [acc 0 (+ acc (/ (log x) i))])
      acc))"""

FAST = AnalysisConfig(shadow_precision=192)

PROFILED = dataclasses.replace(
    EngineFeatures.for_engine("compiled"), profile=True
)


def run_analysis(points, features=PROFILED):
    program = compile_fpcore(parse_fpcore(LOOP))
    return analyze_program(program, points, config=FAST, features=features)


class TestCounterReset:
    def test_fresh_analysis_has_zero_counters(self):
        analysis = HerbgrindAnalysis(FAST)
        assert analysis.hw_kernel_ops == 0
        assert analysis.hw_promotions == 0
        assert all(
            value == 0 for value in analysis.stage_counters.to_dict().values()
        )

    def test_counters_do_not_accumulate_across_analyses(self):
        points = [[1.5, 25.0], [1.25, 30.0]]
        first, __ = run_analysis(points)
        second, __ = run_analysis(points)
        assert first.stage_counters.to_dict() == \
            second.stage_counters.to_dict()
        assert first.tier_residency() == second.tier_residency()
        assert second.stage_counters.to_dict()["fused_ops"] > 0

    def test_stage_counters_reset_method(self):
        counters = PipelineStageCounters()
        counters.fused_ops = 7
        counters.kernel_evals = 3
        counters.reset()
        assert all(value == 0 for value in counters.to_dict().values())

    def test_batch_iterations_report_identical_profiles(self):
        session = AnalysisSession(
            config=FAST, num_points=3, seed=11, result_cache_size=0
        )
        core = parse_fpcore(LOOP)
        first = session.analyze_batch([core], profile=True)[0]
        second = session.analyze_batch([core], profile=True)[0]
        profile_a = first.extra["pipeline_profile"]
        profile_b = second.extra["pipeline_profile"]
        assert profile_a == profile_b
        assert profile_a["fused_ops"] > 0


class TestPoolMemoryGuard:
    def test_pool_size_bounded_by_one_run(self):
        one_point = [[1.5, 25.0]]
        single, __ = run_analysis(one_point)
        single_size = len(single.pool)
        many, __ = run_analysis(one_point * 6)
        # Re-running the same point must not accumulate nodes: the pool
        # holds only the final execution's entries.
        assert len(many.pool) == single_size

    def test_pool_resets_between_different_points(self):
        points = [[1.5, 25.0], [1.25, 30.0], [1.75, 35.0]]
        analysis, __ = run_analysis(points)
        biggest_run = 0
        probe = HerbgrindAnalysis(FAST)
        program = compile_fpcore(parse_fpcore(LOOP))
        for point in points:
            single, __ = analyze_program(program, [point], config=FAST)
            biggest_run = max(biggest_run, len(single.pool))
        assert len(analysis.pool) <= biggest_run

    def test_batch_iterations_do_not_grow_pools(self):
        session = AnalysisSession(
            config=FAST, num_points=4, seed=3, result_cache_size=0
        )
        core = parse_fpcore(LOOP)
        sizes = []
        for __ in range(3):
            result = session.analyze_batch([core])[0]
            sizes.append(len(result.raw.pool))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_materialization_memo_cleared_per_run(self):
        analysis, __ = run_analysis([[1.5, 25.0], [1.25, 30.0]])
        pool = analysis.pool
        # Whatever was materialized for reporting belongs to the final
        # run only; the memo array has exactly the pool's length.
        assert len(pool.nodes) == len(pool)
