"""Telemetry overhead — `summary` instrumentation must stay under 5%.

The telemetry plane's design bar: a fully instrumented run (registry
counters, histograms and spans live on every hot path — backend batches,
evidence traffic, exchange screening/planning, shard scatter) costs less
than **5%** wall clock over the identical run with ``telemetry=off`` on
the flash-crowd scenario.  ``off`` itself is architecturally free (the
null registry is a shared class attribute; call sites pay one attribute
lookup and a false ``enabled`` check) and is pinned bit-identical by
``tests/obs/test_telemetry_wiring.py`` — this benchmark guards the *on*
path so instrumentation creep never silently taxes the pipeline.

Method: the instrumentation's own call count times its measured per-call
cost.  Timing two whole runs against each other cannot resolve 5% on a
shared 2-vCPU machine: there, consecutive paired off/summary ratios of the
same seeded run spread over -13% to +35%, and a min-of-5 per arm read
anywhere from -11% to +11%.  Instead:

1. one untimed instrumented run tallies every recorder call per method
   (``count``, ``observe``, ``span``, ...), which is exact and
   deterministic for a seeded run;
2. each method's cost per call is timed on a live registry, as the median
   of ``BATCHES`` short batches, so a slow stretch of the machine moves
   one batch, not the estimate;
3. the overhead is ``sum(calls x cost) + snapshot time`` over the median
   wall time of ``OFF_RUNS`` uninstrumented runs.

The noise of step 3 scales the estimate rather than adding to it: a 20%
slow swing moves a 1% overhead to 1.2%, nowhere near the bar.  The model
charges each call the full cost of the live method (not the difference
to the null registry the off arm calls), and a span's timing is charged
twice (in the span's cost and as the ``observe_seconds`` call its exit
makes), so it overstates rather than understates what the recorders
cost; the only work it leaves out is the
argument arithmetic at the ``if telemetry.enabled:`` call sites (a
``len`` or a subtraction).  A sanity check first asserts the instrumented
run actually recorded the hot-path metrics it claims to measure.

Scales: **full / default** a 60-peer, 20-round flash crowd; **smoke**
(``REPRO_BENCH_SMOKE=1``) a 24-peer, 8-round one for CI.  The < 5% bar is
enforced at both scales; the measured fraction lands in
``BENCH_telemetry_overhead.json`` either way.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from _harness import SMOKE, bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.obs.metrics import MetricsRegistry
from repro.workloads.registry import build_registered_scenario


if SMOKE:
    SIZE = 24
    ROUNDS = 8
else:
    SIZE = 60
    ROUNDS = 20

SEED = 11
MAX_OVERHEAD = 0.05
#: Uninstrumented runs whose median wall time is the denominator.
OFF_RUNS = 5
#: Timed batches per recorder method, and calls per batch.
BATCHES = 41
CALLS_PER_BATCH = 2000

#: Metrics the instrumented arm must have recorded — proof the measured
#: run exercised the instrumentation rather than a silently-dead registry.
EXPECTED_METRICS = (
    "backend.complaint.update_batches",
    "exchange.candidates",
    "evidence.records_applied",
)


class _CountingRegistry(MetricsRegistry):
    """A live registry that also tallies its recorder calls per method."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()

    def count(self, name, amount=1):
        self.calls["count"] += 1
        super().count(name, amount)

    def gauge(self, name, value):
        self.calls["gauge"] += 1
        super().gauge(name, value)

    def gauge_max(self, name, value):
        self.calls["gauge_max"] += 1
        super().gauge_max(name, value)

    def observe(self, name, value, *args, **kwargs):
        self.calls["observe"] += 1
        super().observe(name, value, *args, **kwargs)

    def observe_seconds(self, name, seconds):
        self.calls["observe_seconds"] += 1
        super().observe_seconds(name, seconds)

    def span(self, name, **tags):
        self.calls["span"] += 1
        return super().span(name, **tags)


def _run(registry):
    scenario = build_registered_scenario(
        "flash-crowd", size=SIZE, rounds=ROUNDS, seed=SEED, telemetry=registry
    )
    result = scenario.simulation().run()
    return result.accounts.attempted


def _span_call(registry):
    with registry.span("exchange.plan"):
        pass


#: One representative call per recorder method, on a live registry.
RECORDERS = {
    "count": lambda registry: registry.count("exchange.candidates", 3),
    "gauge": lambda registry: registry.gauge("bench.gauge", 3.0),
    "gauge_max": lambda registry: registry.gauge_max("bench.gauge_max", 3.0),
    "observe": lambda registry: registry.observe("exchange.round_candidates", 7),
    "observe_seconds": lambda registry: registry.observe_seconds(
        "bench.seconds", 1e-4
    ),
    "span": _span_call,
}


def _per_call_seconds(record):
    """Median seconds per call of ``record`` on a live registry."""
    registry = MetricsRegistry()
    batches = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(CALLS_PER_BATCH):
            record(registry)
        batches.append((time.perf_counter() - start) / CALLS_PER_BATCH)
    return statistics.median(batches)


def _measure():
    """Call counts x per-call costs over the median uninstrumented run."""
    registry = _CountingRegistry()
    attempted_summary = _run(registry)
    start = time.perf_counter()
    snapshot = registry.snapshot()
    snapshot_seconds = time.perf_counter() - start
    costs = {
        method: _per_call_seconds(RECORDERS[method])
        for method in sorted(registry.calls)
    }
    off_seconds = []
    attempted_off = 0
    for _ in range(OFF_RUNS):
        start = time.perf_counter()
        attempted_off = _run(None)
        off_seconds.append(time.perf_counter() - start)
    off = statistics.median(off_seconds)
    instrumentation = snapshot_seconds + sum(
        registry.calls[method] * cost for method, cost in costs.items()
    )
    return {
        "calls": dict(registry.calls),
        "costs": costs,
        "snapshot_seconds": snapshot_seconds,
        "off_seconds": off,
        "instrumentation_seconds": instrumentation,
        "overhead_fraction": instrumentation / off,
        "attempted_off": attempted_off,
        "attempted_summary": attempted_summary,
        "snapshot_metrics": snapshot["metrics"],
    }


def build_table() -> Table:
    measured = _measure()
    table = Table(
        title=(
            "Telemetry overhead — flash-crowd, {} peers x {} rounds "
            "(recorder calls x per-call cost over the median of {} "
            "uninstrumented runs, {:.4f} s)".format(
                SIZE, ROUNDS, OFF_RUNS, measured["off_seconds"]
            )
        ),
        columns=("recorder", "calls", "us per call", "seconds", "overhead"),
    )
    off = measured["off_seconds"]
    for method, cost in measured["costs"].items():
        calls = measured["calls"][method]
        table.add_row(
            method,
            calls,
            "{:.3f}".format(cost * 1e6),
            "{:.4f}".format(calls * cost),
            "{:+.3%}".format(calls * cost / off),
        )
    table.add_row(
        "snapshot",
        1,
        "{:.3f}".format(measured["snapshot_seconds"] * 1e6),
        "{:.4f}".format(measured["snapshot_seconds"]),
        "{:+.3%}".format(measured["snapshot_seconds"] / off),
    )
    table.add_row(
        "total",
        sum(measured["calls"].values()) + 1,
        "-",
        "{:.4f}".format(measured["instrumentation_seconds"]),
        "{:+.3%}".format(measured["overhead_fraction"]),
    )
    table.meta = measured  # stashed for the assertions below
    return table


def test_telemetry_summary_overhead(benchmark):
    table = run_once(benchmark, build_table)
    emit("telemetry_overhead", table)
    measured = table.meta
    snapshot = measured.pop("snapshot_metrics")
    recorded = all(name in snapshot for name in EXPECTED_METRICS)
    emit_json(
        "telemetry_overhead",
        table_metrics(table),
        bars={
            "instrumentation_live": bar(
                sum(name in snapshot for name in EXPECTED_METRICS),
                len(EXPECTED_METRICS),
                recorded,
            ),
            "same_work_measured": bar(
                measured["attempted_summary"],
                measured["attempted_off"],
                measured["attempted_summary"] == measured["attempted_off"],
            ),
            # The wall-clock numbers themselves are non-compared (they vary
            # by host); only the *ratio* is a bar, matching the BENCH
            # convention of never diffing raw timings.
            "overhead_under_bar": bar(
                round(measured["overhead_fraction"], 4),
                MAX_OVERHEAD,
                measured["overhead_fraction"] < MAX_OVERHEAD,
            ),
        },
    )
    # The instrumented arm really was instrumented, and did the same work.
    assert recorded
    assert measured["attempted_summary"] == measured["attempted_off"]
    # The headline bar: summary-mode telemetry costs < 5% wall clock.
    assert measured["overhead_fraction"] < MAX_OVERHEAD
