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

Method: interleaved off/summary pairs, min-of-repeats on each arm (min is
robust to scheduler noise), overhead = summary/off - 1.  A sanity check
first asserts the instrumented run actually recorded the hot-path metrics
it claims to measure.

Scales: **full / default** a 60-peer, 20-round flash crowd; **smoke**
(``REPRO_BENCH_SMOKE=1``) a 24-peer, 8-round one for CI.  The < 5% bar is
enforced at both scales; the measured fraction lands in
``BENCH_telemetry_overhead.json`` either way.
"""

from __future__ import annotations

import time

from _harness import SMOKE, bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.obs.metrics import MetricsRegistry
from repro.workloads.registry import build_registered_scenario


if SMOKE:
    SIZE = 24
    ROUNDS = 8
    REPEATS = 5
else:
    SIZE = 60
    ROUNDS = 20
    REPEATS = 5

SEED = 11
MAX_OVERHEAD = 0.05

#: Metrics the instrumented arm must have recorded — proof the measured
#: run exercised the instrumentation rather than a silently-dead registry.
EXPECTED_METRICS = (
    "backend.complaint.update_batches",
    "exchange.candidates",
    "evidence.records_applied",
)


def _run(registry):
    scenario = build_registered_scenario(
        "flash-crowd", size=SIZE, rounds=ROUNDS, seed=SEED, telemetry=registry
    )
    result = scenario.simulation().run()
    return result.accounts.attempted


def _measure():
    """Interleaved min-of-REPEATS for the off and summary arms."""
    best_off = float("inf")
    best_summary = float("inf")
    attempted_off = attempted_summary = 0
    last_snapshot = {}
    for _ in range(REPEATS):
        start = time.perf_counter()
        attempted_off = _run(None)
        best_off = min(best_off, time.perf_counter() - start)

        registry = MetricsRegistry()
        start = time.perf_counter()
        attempted_summary = _run(registry)
        best_summary = min(best_summary, time.perf_counter() - start)
        last_snapshot = registry.snapshot()["metrics"]
    return {
        "off_seconds": best_off,
        "summary_seconds": best_summary,
        "overhead_fraction": best_summary / best_off - 1.0,
        "attempted_off": attempted_off,
        "attempted_summary": attempted_summary,
        "snapshot_metrics": last_snapshot,
    }


def build_table() -> Table:
    measured = _measure()
    table = Table(
        title=(
            "Telemetry overhead — flash-crowd, {} peers x {} rounds "
            "(min of {})".format(SIZE, ROUNDS, REPEATS)
        ),
        columns=("mode", "best seconds", "overhead"),
    )
    table.add_row("off", "{:.4f}".format(measured["off_seconds"]), "-")
    table.add_row(
        "summary",
        "{:.4f}".format(measured["summary_seconds"]),
        "{:+.2%}".format(measured["overhead_fraction"]),
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
