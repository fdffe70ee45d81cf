#!/usr/bin/env python
"""Sample where simulator host time goes, by core pipeline stage.

A ``SIGPROF`` interval timer interrupts the run; each sample is charged to the
innermost core stage on the Python stack (issue, rename/dispatch, front end,
writeback, commit, controller tick, idle skip).  Unlike cProfile this adds no
per-call cost, so call-heavy paths are not overstated.  POSIX only.

Usage::

    PYTHONPATH=src python scripts/stage_profile.py [--uops N] [--interval-ms MS]
"""

from __future__ import annotations

import argparse
import collections
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.registry import build_workload  # noqa: E402  (path bootstrap above)
from repro.simulation.golden import (  # noqa: E402
    DEFAULT_GOLDEN_VARIANTS,
    DEFAULT_GOLDEN_WORKLOADS,
)
from repro.simulation.simulator import SimulationRequest, run_simulation  # noqa: E402

#: Core method name -> stage; ``tick`` is split by the file that defines it.
STAGES = {
    "_issue": "issue",
    "_dispatch": "rename/dispatch",
    "_writeback": "writeback",
    "_commit": "commit / pseudo-retire",
    "next_wake_cycle": "run loop, idle skip",
    "skip_to": "run loop, idle skip",
    "step_cycle": "run loop, idle skip",
    "run": "run loop, idle skip",
}


def stage_of(frame) -> str:
    while frame is not None:
        code = frame.f_code
        if code.co_name == "tick":
            return "front end" if code.co_filename.endswith("frontend.py") else "controller tick"
        stage = STAGES.get(code.co_name)
        if stage is not None:
            return stage
        frame = frame.f_back
    return "other (set-up)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--uops", type=int, default=3000)
    parser.add_argument("--interval-ms", type=float, default=0.5)
    args = parser.parse_args()

    traces = {name: build_workload(name, num_uops=args.uops) for name in DEFAULT_GOLDEN_WORKLOADS}
    samples: collections.Counter = collections.Counter()
    signal.signal(signal.SIGPROF, lambda signum, frame: samples.update((stage_of(frame),)))
    interval = args.interval_ms / 1000
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        for trace in traces.values():
            for variant in DEFAULT_GOLDEN_VARIANTS:
                run_simulation(trace, SimulationRequest(variant=variant))
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    total = sum(samples.values())
    for stage, count in samples.most_common():
        print(f"{stage:24s} {100 * count / total:5.1f}%")
    print(f"({total} samples)")


if __name__ == "__main__":
    main()
