"""Host one live ``ReproServer`` for the serve-replay workload.

Run as a child process of the benchmark::

    python3 perfbench/serve_host.py --store DIR --workers N

It starts an ``AnalysisService`` over a ``ShardedResultStore`` at DIR
with a pool of N workers, prints ``port <n>`` once listening, serves
until its standard input closes, drains, and prints one JSON line with
the peak resident set sizes of itself and of its (exited) workers.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


async def _serve(store_dir: str, workers: int) -> None:
    from repro.api.store import ShardedResultStore
    from repro.serve import AnalysisService, ReproServer

    service = AnalysisService(
        store=ShardedResultStore(store_dir), workers=workers
    )
    server = ReproServer(service)
    _, port = await server.start()
    print(f"port {port}", flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    await server.stop(drain=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args(argv)
    asyncio.run(_serve(args.store, args.workers))
    usage = {
        "server_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "worker_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "workers": args.workers,
    }
    print(json.dumps(usage), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
