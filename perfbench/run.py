"""Pipeline benchmark: end-to-end ``repro run`` metrics per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flash-crowd --seed 0 --seconds 42 --trace 0

A closed loop: this one parent process starts one fresh interpreter
(``child.py``) at a time, each building the workload from the scenario
registry and running it to a settled result, until ``--seconds`` are used
up, the uncounted warm-up run included.  No threads or worker pools.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics plus the
tracing overhead.  Times are taken at a fixed reference speed (see
``clock.py``).  Every run is checked; a run fails when its outcome digest
differs from the invocation's first passing run, when ``attempted !=
completed + declined + defections``, when evidence is left undelivered
after the drain, or when tracing wrappers leak into it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
ROOT = _HERE.parent
CHILD = _HERE / "child.py"
sys.path.insert(0, str(_HERE))

import workloads  # noqa: E402

#: Fewest runs of each turn per invocation (see :func:`collect`).
MIN_RUNS_PER_TURN = 2
#: A single run that takes longer than this has hung.
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {
    "exchanges_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "effective_delivery_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_unit"):
        return "us"
    if name.endswith("_rounds"):
        return "rounds"
    if name.endswith(("_ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"


def spawn(workload: str, seed: int, *flags: str) -> Tuple[Optional[dict], str]:
    """Run ``child.py`` once; returns (its report or None, error text)."""
    started = time.perf_counter()
    command = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(started), *flags,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {CHILD_TIMEOUT_S:.0f}s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    if "--warmup" in flags:
        return {}, ""
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError) as exc:
        return None, f"unreadable report: {exc}"


def problems(report: dict, reference: Optional[str], traced: bool) -> List[str]:
    """Why a run's outputs are wrong (empty when they are right)."""
    outcome = report["outcome"]
    found = []
    settled = outcome["completed"] + outcome["declined"] + outcome["defections"]
    if outcome["attempted"] < 1 or outcome["attempted"] != settled:
        found.append(f"attempted {outcome['attempted']} != settled {settled}")
    if outcome["effective_delivery_ratio"] < 1.0:
        found.append(
            f"effective delivery ratio {outcome['effective_delivery_ratio']} < 1.0"
        )
    if reference is not None and outcome["digest"] != reference:
        found.append(f"digest {outcome['digest']} != {reference}")
    if report["wrapped_after_run"] or (report["wrapped_during_run"] and not traced):
        found.append(f"tracing wrappers leaked: {report['wrapped_during_run']}")
    return found


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Run the closed loop; returns (untraced, traced, attempted, failed).

    Without tracing every run is untraced; with tracing, runs take turns
    untraced and traced.  Every turn runs at least twice; after that, runs
    go on while one more, as long as the last, still ends within
    ``seconds`` of the start, the warm-up included.
    """
    deadline = time.monotonic() + seconds
    report, error = spawn(workload, seed, "--warmup")
    if report is None:
        raise RuntimeError(f"warm-up run failed: {error}")
    turns = [False, True] if trace else [False]
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    reference: Optional[str] = None
    while True:
        is_traced = turns[attempted % len(turns)]
        started = time.monotonic()
        attempted += 1
        report, error = spawn(workload, seed, *(["--trace"] if is_traced else []))
        found = [error] if report is None else problems(report, reference, is_traced)
        if found:
            failed += 1
            print(f"run {attempted} failed: {'; '.join(found)}", file=sys.stderr)
        else:
            reference = reference or report["outcome"]["digest"]
            (traced if is_traced else untraced).append(report)
        now = time.monotonic()
        if attempted >= MIN_RUNS_PER_TURN * len(turns) and 2 * now - started > deadline:
            return untraced, traced, attempted, failed


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """Medians over the runs; round percentiles over per-round medians."""

    def median(value) -> float:
        return statistics.median(value(run) for run in runs)

    # Round r does the same work in every run, so its median over the runs
    # is its time with the run-to-run noise taken out.  Pooling every run's
    # rounds instead lets one run's noisy rounds set p95.
    rounds = [statistics.median(times) for times in zip(*(run["round_ms"] for run in runs))]
    return {
        "exchanges_per_s": median(lambda run: run["outcome"]["attempted"] / run["wall_s"]),
        "wall_s": median(lambda run: run["wall_s"]),
        "setup_s": median(lambda run: run["setup_s"]),
        "round_ms_p50": percentile(rounds, 50),
        "round_ms_p95": percentile(rounds, 95),
        "peak_rss_mb": median(lambda run: run["peak_rss_mb"]),
        "effective_delivery_ratio": median(
            lambda run: run["outcome"]["effective_delivery_ratio"]
        ),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    names = traced[0]["layers"].keys()
    metrics = {
        name: statistics.median(run["layers"][name] for run in traced) for name in names
    }
    metrics["trace.overhead"] = statistics.median(
        run["wall_s"] for run in traced
    ) / statistics.median(run["wall_s"] for run in untraced)
    return metrics


def print_report(workload, seed, untraced, traced, attempted, failed, metrics) -> None:
    context = untraced[0]["context"]
    print(
        f"workload {workload}  seed {seed}  runs {attempted} ({failed} failed; "
        f"{len(untraced)} untraced, {len(traced)} traced)"
    )
    print(
        f"context  cpu_count={context['cpu_count']} python={context['python']} "
        f"numpy={context['numpy']} scipy={'yes' if context['scipy'] else 'no'}"
    )
    shown = {k: v for k, v in untraced[0]["outcome"].items() if k != "evidence"}
    print(f"outcome {json.dumps(shown, sort_keys=True)}")
    if not traced:
        rounds = len(untraced[0]["round_ms"])
        for name, value in metrics.items():
            basis = f"median over {len(untraced)} runs"
            if name.startswith("round_ms"):
                basis = f"over {rounds} rounds, each a median over {len(untraced)} runs"
            print(f"  {name:<26} {value:>14.4f} {E2E_UNITS[name]:<6} {basis}")
        for name in ("raw_wall_s", "raw_setup_s"):
            raw = statistics.median(run[name] for run in untraced)
            print(f"  {name + ' (as run)':<26} {raw:>14.4f} s      median over {len(untraced)} runs")
        return
    wall = statistics.median(run["wall_s"] for run in traced)
    print(f"  median of {len(traced)} traced runs, traced wall {wall:.3f} s")
    print(f"  {'layer':<18} {'calls':>9} {'units':>10} {'self_s':>9} {'share':>6} {'us/unit':>10}")
    layer_names = [n[: -len(".self_s")] for n in metrics if n.endswith(".self_s")]
    for layer in layer_names:
        print(
            f"  {layer:<18} {metrics[layer + '.calls']:>9.0f} "
            f"{metrics[layer + '.units']:>10.0f} {metrics[layer + '.self_s']:>9.3f} "
            f"{metrics[layer + '.self_s'] / wall:>6.1%} {metrics[layer + '.us_per_unit']:>10.2f}"
        )
    for name, value in metrics.items():
        if not name.endswith((".calls", ".units", ".self_s", ".us_per_unit")):
            print(f"  {name:<36} {value:>14.4f} {layer_unit(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        untraced, traced, attempted, failed = collect(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if not untraced or (args.trace and not traced):
        print(f"all {attempted} runs failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(untraced)
        units = E2E_UNITS
    print_report(args.workload, args.seed, untraced, traced, attempted, failed, metrics)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
