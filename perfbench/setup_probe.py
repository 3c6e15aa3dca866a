"""A fresh process until it is ready to analyse: the setup_s probe.

Run as a child process::

    python3 perfbench/setup_probe.py --workload corpus-8 --seed 1

It imports the package, loads the corpus, analyses the workload's first
program under both precision policies (which builds the lazy constant
and kernel tables) and prints ``ready``.  The parent times it from
spawn to that line.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.api import AnalysisSession
    from workloads import first_jobs

    session = AnalysisSession(result_cache_size=0)
    for job in first_jobs(args.workload, args.seed):
        session.analyze(job.request())
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
