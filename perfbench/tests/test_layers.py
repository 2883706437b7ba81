"""Span accounting of the pipeline benchmark's layer tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_BENCH.parent / "src"))
sys.path.insert(0, str(_BENCH))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.trust import TrustObservation, create_backend  # noqa: E402
from repro.trust.sharding import ShardedBackend  # noqa: E402


class TickClock:
    """Advances one second per read, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def small(name: str, size: int = 16, rounds: int = 5) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], size=size, rounds=rounds)


@pytest.fixture
def scenario():
    return small("collusive-complaint").build(seed=3)


def test_sharded_backend_counts_leaf_rows_once(scenario):
    backend = create_backend("beta", shards=3)
    assert isinstance(backend, ShardedBackend)
    observations = [
        TrustObservation(observer_id="me", subject_id=f"peer-{i}", honest=i % 3 != 0)
        for i in range(12)
    ]
    clock = TickClock()
    tracer = layers.Tracer(clock=clock)
    with layers.install(tracer, scenario):
        first_read = clock.now + 1.0
        backend.update_many(observations)
        outer = clock.now - first_read

    sharding = tracer.stats("sharding")
    update = tracer.stats("backend.update")
    assert (sharding.calls, sharding.units) == (1, len(observations))
    assert update.units == len(observations)
    assert update.calls == backend.num_shards
    assert sharding.self_s == outer - update.self_s
    assert update.self_s == 1.0 * update.calls  # one tick between start and end


def test_sharded_reads_count_subjects_once(scenario):
    backend = create_backend("beta", shards=2)
    subjects = [f"peer-{i}" for i in range(7)]
    tracer = layers.Tracer(clock=TickClock())
    with layers.install(tracer, scenario):
        backend.scores_for(subjects)
    assert tracer.stats("sharding").units == len(subjects)
    assert tracer.stats("backend.read").units == len(subjects)


def test_call_into_the_open_layer_joins_its_span():
    tracer = layers.Tracer(clock=TickClock())
    inner = tracer.wrap("trust_read", lambda subject: 0.5, layers._one)
    outer = tracer.wrap("trust_read", lambda subject: inner(subject), layers._one)
    other = tracer.wrap("plan", lambda: outer("x"))
    other()
    stats = tracer.stats("trust_read")
    assert (stats.calls, stats.units) == (1, 1)
    assert stats.self_s == 1.0
    assert tracer.stats("plan").self_s == 2.0


def test_untraced_run_carries_no_wrapper_and_install_is_undone():
    originals = {
        (id(owner), name): vars(owner)[name]
        for owner, name, _, _ in layers.entry_points()
    }
    untraced = child.run_scenario(small("flash-crowd").build(seed=2), trace=False)
    assert untraced["wrapped_during_run"] == []
    assert "layers" not in untraced

    scenario = small("flash-crowd").build(seed=2)
    traced = child.run_scenario(scenario, trace=True)
    assert "valuation_model.sample_bundle" in traced["wrapped_during_run"]
    assert len(traced["wrapped_during_run"]) == len(originals) + 1
    assert traced["wrapped_after_run"] == []
    assert "sample_bundle" not in vars(scenario.config.valuation_model)
    for owner, name, _, _ in layers.entry_points():
        assert vars(owner)[name] is originals[(id(owner), name)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outcome_equals_untraced(name):
    workload = small(name)
    untraced = child.run_scenario(workload.build(seed=5), trace=False)
    traced = child.run_scenario(workload.build(seed=5), trace=True)
    assert traced["outcome"] == untraced["outcome"]
    assert run.problems(traced, untraced["outcome"]["digest"], traced=True) == []
    metrics = traced["layers"]
    assert metrics["plan.calls"] > 0 and metrics["execute.units"] > 0
    self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total == pytest.approx(traced["wall_s"])
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_problems_flags_wrong_outputs():
    report = child.run_scenario(small("partition-heal").build(seed=1), trace=False)
    digest = report["outcome"]["digest"]
    assert run.problems(report, digest, traced=False) == []
    assert run.problems(report, "0" * 16, traced=False)
    broken = dict(report, outcome=dict(report["outcome"], declined=-1))
    assert run.problems(broken, None, traced=False)
    undelivered = dict(
        report, outcome=dict(report["outcome"], effective_delivery_ratio=0.99)
    )
    assert run.problems(undelivered, None, traced=False)
    leaked = dict(report, wrapped_during_run=["CommunityPeer.trust_in"])
    assert run.problems(leaked, None, traced=False)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((_BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    report = child.run_scenario(small("partition-heal").build(seed=1), trace=True)
    report.update(setup_s=1.0, peak_rss_mb=100.0, context={"seed": 1})
    end_to_end = run.end_to_end([report, report])
    per_layer = run.per_layer([report], [report])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.E2E_UNITS[name] for name in end_to_end
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in per_layer
    }
    assert all(value > 0 for value in end_to_end.values())


def test_round_percentiles_take_each_rounds_median_over_runs():
    runs = [
        {
            "outcome": {"attempted": 10, "effective_delivery_ratio": 1.0},
            "wall_s": wall,
            "setup_s": 1.0,
            "peak_rss_mb": 100.0,
            "round_ms": rounds,
        }
        for wall, rounds in ((1.0, [1.0, 10.0]), (2.0, [2.0, 20.0]), (4.0, [9.0, 30.0]))
    ]
    metrics = run.end_to_end(runs)
    assert metrics["round_ms_p50"] == 11.0  # per-round medians 2 and 20
    assert metrics["wall_s"] == 2.0
    assert metrics["exchanges_per_s"] == 5.0
