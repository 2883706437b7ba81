"""One benchmark run: a fresh interpreter builds a workload, runs it, reports.

``run.py`` starts this script once per run and reads the JSON object it
prints as its last line.  ``--spawned-at`` is the parent's
``time.perf_counter()`` just before the start (a system-wide monotonic clock
on Linux), so ``setup_s`` covers the interpreter start, ``import repro`` and
the scenario build.  All times are at the reference speed of ``clock.py``;
``raw_*`` fields are the probe-free times as the machine ran them.  ``--trace``
wraps every layer (see ``layers.py``).  An untraced run installs no tracing
wrapper, only the round clock on its own plane instance, and reports which
boundaries it found wrapped, which must be none.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402


def outcome_digest(result, plane) -> Dict[str, object]:
    """The run's outcome and evidence counters, plus a hash over them."""
    accounts = result.accounts
    counters = plane.counters
    outcome: Dict[str, object] = {
        "attempted": accounts.attempted,
        "completed": accounts.completed,
        "declined": accounts.declined,
        "defections": accounts.defections,
        "honest_welfare": result.honest_welfare(),
        "honest_losses": result.honest_losses(),
        "effective_delivery_ratio": plane.effective_delivery_ratio,
        "evidence": None if counters is None else counters.metrics_view(),
    }
    encoded = json.dumps(outcome, sort_keys=True).encode()
    outcome["digest"] = hashlib.sha256(encoded).hexdigest()[:16]
    return outcome


def run_scenario(scenario, trace: bool) -> Dict[str, object]:
    """Run a built scenario to a settled result and measure it.

    Times are at the reference speed (see ``clock.py``); ``raw_wall_s`` is
    the probe-free wall time as the machine ran it.
    """
    simulation = scenario.simulation()
    plane = simulation.evidence_plane
    clock = SpeedClock()
    tracer: Optional[layers.Tracer] = layers.Tracer(clock.now) if trace else None
    instrumentation = (
        layers.install(tracer, scenario) if tracer is not None else layers.Instrumentation()
    )
    # simulation.run() advances the plane at the start of every round and
    # once after the last, so the first rounds + 1 ticks bound the rounds.
    ticks: List[float] = []
    advance = plane.advance

    def ticked_advance(now: float) -> int:
        ticks.append(clock.now())
        return advance(now)

    with instrumentation, clock:
        plane.advance = ticked_advance
        start = clock.now()
        try:
            result = simulation.run()
            rounds = len(ticks) - 1
            if scenario.config.evidence_repair != "off":
                plane.drain(max_ticks=200)
            end = clock.now()
        finally:
            del plane.advance
        wrapped_during = layers.wrapped_entry_points(scenario)
    raw_wall_s = end - start
    wall_s = clock.scaled(start, end)
    report: Dict[str, object] = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "round_ms": [
            clock.scaled(a, b) * 1e3 for a, b in zip(ticks[:rounds], ticks[1 : rounds + 1])
        ],
        "outcome": outcome_digest(result, plane),
        "wrapped_during_run": wrapped_during,
        "wrapped_after_run": layers.wrapped_entry_points(scenario),
    }
    if tracer is not None:
        speed = wall_s / raw_wall_s
        report["layers"] = {
            name: value * speed if name.endswith(("_s", ".us_per_unit")) else value
            for name, value in layers.layer_metrics(
                tracer, raw_wall_s, scenario, simulation
            ).items()
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--warmup", action="store_true", help="build the workload only (fills caches)"
    )
    args = parser.parse_args(argv)

    with SpeedClock() as setup:
        import numpy
        import repro  # noqa: F401  (part of the measured set-up)

        scenario = workloads.WORKLOADS[args.workload].build(args.seed)
        built = setup.now()
    if args.warmup:
        return 0
    report = run_scenario(scenario, args.trace)
    report.update(
        setup_s=setup.scaled(args.spawned_at, built),
        raw_setup_s=built - args.spawned_at,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        context={
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": importlib.util.find_spec("scipy") is not None,
        },
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
