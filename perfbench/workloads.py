"""The benchmark's workloads: every input is generated from the seed.

A :class:`Job` is one analysis request: a corpus program, its input
points (drawn by the public sampler from the program's :pre box) and a
precision policy.  The program under test receives only these explicit
points.

* ``corpus-8`` — all 86 corpus programs at 8 points, each analysed
  under the fixed and the adaptive precision policy.
* ``straightline-64`` — the 83 loop-free programs at 64 points, both
  policies.
* ``serve-replay`` — a seeded open-loop request schedule (see
  :func:`replay_schedule`) against a live server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import AnalysisRequest, sample_inputs
from repro.core import AnalysisConfig
from repro.fpcore import FPCore, format_fpcore, load_corpus

POLICIES = ("fixed", "adaptive")

#: serve-replay: nominal request rate (req/s) of the open loop.
REPLAY_RATE = 100.0
#: serve-replay: the fewest requests a schedule holds (10 beyond its p99).
MIN_REPLAY_REQUESTS = 1000
#: serve-replay request mix: repeats of earlier requests (memory LRU),
#: requests pre-written to the store by an offline session, and fresh
#: requests that the server computes.
REPLAY_MIX = (("repeat", 0.6), ("store", 0.1), ("fresh", 0.3))
#: Repeats draw from this many most recent distinct requests, well
#: inside the service's 512-entry memory LRU.
REPEAT_WINDOW = 256
REPLAY_POINTS = 8


def is_loop(core: FPCore) -> bool:
    return "(while" in format_fpcore(core)


@dataclass
class Job:
    """One analysis request of a workload."""

    key: str
    core: FPCore
    points: List[List[float]]
    policy: str
    seed: int
    loop: bool = field(init=False)

    def __post_init__(self) -> None:
        self.loop = is_loop(self.core)

    def request(self, engine: str = "compiled", policy: Optional[str] = None,
                profile: bool = False) -> AnalysisRequest:
        config = AnalysisConfig(precision_policy=policy or self.policy,
                                engine=engine)
        return AnalysisRequest.build(
            self.core, num_points=len(self.points), seed=self.seed,
            points=self.points, config=config, profile=profile,
        )


def first_jobs(workload: str, seed: int) -> List[Job]:
    """The corpus's first program at the workload's point count, both
    policies: the analysis that ends a fresh process's setup."""
    core = load_corpus()[0]
    count = 64 if workload == "straightline-64" else 8
    points = sample_inputs(core, count, seed=seed)
    return [Job(f"setup/{policy}", core, points, policy, seed)
            for policy in POLICIES]


def offline_jobs(workload: str, seed: int) -> List[Job]:
    """The per-pass job list of an offline workload, in run order."""
    if workload == "corpus-8":
        programs, count = load_corpus(), 8
    elif workload == "straightline-64":
        programs = [core for core in load_corpus() if not is_loop(core)]
        count = 64
    else:
        raise ValueError(f"not an offline workload: {workload}")
    points = {core.name: sample_inputs(core, count, seed=seed)
              for core in programs}
    return [Job(f"{core.name}/{policy}", core, points[core.name], policy, seed)
            for policy in POLICIES for core in programs]


@dataclass
class Arrival:
    """One scheduled request of the serve-replay open loop."""

    due: float
    kind: str
    job: Job


def _program_cycle(rng: random.Random, programs: List[FPCore]):
    """Uniform draws over ``programs``, one shuffled permutation at a time."""
    while True:
        order = list(programs)
        rng.shuffle(order)
        yield from order


def replay_schedule(seed: int, seconds: float) -> List[Arrival]:
    """A seeded open-loop schedule: ``seconds`` of traffic at REPLAY_RATE.

    It holds ``REPLAY_RATE * seconds`` arrivals and at least
    MIN_REPLAY_REQUESTS, so that 10 or more samples lie beyond the p99
    whatever the duration; inter-arrival gaps are exponential.  The
    programs of fresh and store requests are drawn uniformly from the
    whole corpus, one shuffled permutation at a time, so every 86 of
    them hold exactly the 3 loop programs; each gets its own points and
    a policy drawn uniformly.  A repeat re-sends one of the most recent
    distinct requests scheduled before it.
    """
    rng = random.Random(seed)
    programs = load_corpus()
    cycles = {kind: _program_cycle(random.Random(rng.random()), programs)
              for kind in ("store", "fresh")}

    def draw(kind: str, index: int) -> Job:
        core = next(cycles[kind])
        points = sample_inputs(core, REPLAY_POINTS, seed=rng.randrange(2**31))
        return Job(f"{kind}-{index}/{core.name}", core, points,
                   rng.choice(POLICIES), seed)

    recent: List[Job] = []
    schedule: List[Arrival] = []
    due = 0.0
    count = max(MIN_REPLAY_REQUESTS, round(REPLAY_RATE * seconds))
    while len(schedule) < count:
        due += rng.expovariate(REPLAY_RATE)
        pick = rng.random()
        kind = "fresh"
        for name, share in REPLAY_MIX:
            if pick < share:
                kind = name
                break
            pick -= share
        if kind == "repeat" and not recent:
            kind = "fresh"
        if kind == "repeat":
            job = recent[rng.randrange(len(recent))]
        else:
            job = draw(kind, len(schedule))
            recent.append(job)
            del recent[:-REPEAT_WINDOW]
        schedule.append(Arrival(due, kind, job))
    return schedule


def distinct_jobs(jobs: List[Job]) -> Dict[str, Job]:
    """Jobs by key, first occurrence kept, in order."""
    out: Dict[str, Job] = {}
    for job in jobs:
        out.setdefault(job.key, job)
    return out

