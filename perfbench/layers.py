"""Outside-in layer tracing for the pipeline benchmark.

A traced run wraps each layer's public entry points, from here and not
from inside ``src/``, and keeps one in-memory span stack.  For every layer
it counts calls and units of work and sums *self time*: a span's duration
minus the time its child spans cover.  A call into a layer that is already
the innermost open span (``trust_in_with_witnesses`` falling back to
``trust_in``, ``drain`` ticking ``advance``) belongs to that span and is not
counted again.  Whatever no span covers is the ``community`` residual.

Per-entry functions (``EvidencePlane.ingest_entry`` and the like) are not
wrapped; the evidence-delivery and repair units come from
``NetworkCounters`` after the run.

Only a traced run calls :func:`install`; :func:`wrapped_entry_points` lets
an untraced run prove it carries no wrapper.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "LayerStats",
    "Tracer",
    "Instrumentation",
    "entry_points",
    "install",
    "wrapped_entry_points",
    "layer_metrics",
]

#: Every traced layer, in pipeline order; ``community`` is the residual.
LAYERS = (
    "churn",
    "listings",
    "matching",
    "trust_read",
    "screen",
    "plan",
    "execute",
    "reputation",
    "backend.update",
    "backend.read",
    "backend.witness",
    "sharding",
    "evidence.submit",
    "evidence.witness",
    "evidence.deliver",
    "repair",
    "community",
)

_MARK = "__perfbench_layer__"

#: Backend method -> the leaf layer it belongs to on a concrete backend.
_BACKEND_METHODS = {
    "update_many": "backend.update",
    "scores_for": "backend.read",
    "trust_decisions": "backend.read",
    "aggregate_witness_reports": "backend.witness",
}

CountFn = Callable[["LayerStats", tuple, dict, object], None]


@dataclass
class LayerStats:
    """What one layer did during a traced run."""

    calls: int = 0
    units: int = 0
    self_s: float = 0.0
    extra: Dict[str, int] = field(default_factory=dict)


class Tracer:
    """Span stack plus per-layer totals; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []
        self.layers: Dict[str, LayerStats] = {}

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def wrap(self, layer: str, fn: Callable, count: Optional[CountFn] = None):
        """``fn`` timed as a span of ``layer``; ``count`` tallies its units."""
        stats = self.stats(layer)
        clock = self._clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # layer, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stats.self_s += duration - frame[1]
                stats.calls += 1
            if count is not None:
                count(stats, args, kwargs, result)
            return result

        setattr(traced, _MARK, layer)
        return traced


class Instrumentation:
    """Attribute patches that :meth:`remove` undoes in reverse order."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, bool, object]] = []

    def patch(self, owner: object, name: str, replacement: object) -> None:
        namespace = vars(owner)
        had = name in namespace
        self._patches.append((owner, name, had, namespace.get(name)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, name, had, original = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


# ----------------------------------------------------------------------
# Unit counters
# ----------------------------------------------------------------------
def _one(stats: LayerStats, args: tuple, kwargs: dict, result: object) -> None:
    stats.units += 1


def _sized(index: int, name: str) -> CountFn:
    """Units = length of the argument at position ``index`` / named ``name``."""

    def count(stats: LayerStats, args: tuple, kwargs: dict, result: object) -> None:
        stats.units += len(args[index] if len(args) > index else kwargs[name])

    return count


def _first_sized(fn: Callable) -> CountFn:
    """Units = length of a method's first argument after ``self``."""
    return _sized(1, list(inspect.signature(fn).parameters)[1])


def _result_len(stats: LayerStats, args: tuple, kwargs: dict, result) -> None:
    stats.units += len(result)


def _churn(stats: LayerStats, args: tuple, kwargs: dict, result) -> None:
    stats.units += len(result.arrived) + len(result.departed)


def _screen(stats: LayerStats, args: tuple, kwargs: dict, result) -> None:
    stats.units += len(result)  # the mask is aligned with the candidates
    stats.extra["kept"] = stats.extra.get("kept", 0) + int(result.sum())


def _plan(stats: LayerStats, args: tuple, kwargs: dict, result) -> None:
    stats.units += 1
    if result is not None:
        stats.extra["agreed"] = stats.extra.get("agreed", 0) + 1


def _execute(stats: LayerStats, args: tuple, kwargs: dict, result) -> None:
    stats.units += 1
    if result.defector is not None:
        stats.extra["defections"] = stats.extra.get("defections", 0) + 1


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def entry_points() -> List[Tuple[object, str, str, Optional[CountFn]]]:
    """``(owner, attribute, layer, count)`` for every class/module boundary."""
    from repro.marketplace import protocol, strategy
    from repro.reputation import manager
    from repro.simulation import churn, community, evidence, peer, repair
    from repro.trust import backend, sharding

    plane = evidence.EvidencePlane
    points: List[Tuple[object, str, str, Optional[CountFn]]] = [
        (churn.ChurnModel, "apply", "churn", _churn),
        (community, "trust_weighted_matching", "matching", _result_len),
        (community, "random_matching", "matching", _result_len),
        (peer.CommunityPeer, "trust_in", "trust_read", _one),
        (peer.CommunityPeer, "trust_in_many", "trust_read", _sized(1, "partner_ids")),
        (peer.CommunityPeer, "trust_in_with_witnesses", "trust_read", _one),
        (strategy.TrustAwareStrategy, "screen_candidates", "screen", _screen),
        (strategy.TrustAwareStrategy, "plan", "plan", _plan),
        (protocol, "execute_sequence", "execute", _execute),
        (manager.ReputationManager, "record_many", "reputation", _sized(1, "records")),
        (plane, "submit_records", "evidence.submit", _sized(2, "records")),
        (plane, "submit_complaint", "evidence.submit", _one),
        (plane, "request_witness_reports", "evidence.witness", _sized(2, "witness_ids")),
        # Units come from NetworkCounters after the run (see layer_metrics).
        (plane, "advance", "evidence.deliver", None),
        (plane, "drain", "evidence.deliver", None),
    ]
    for policy in (repair.RepairPolicy, *_subclasses(repair.RepairPolicy)):
        for name in ("on_round", "on_repair_message"):
            if name in vars(policy):
                points.append((policy, name, "repair", None))
    for kind in (backend.TrustBackend, *_subclasses(backend.TrustBackend)):
        routed = issubclass(kind, sharding.ShardedBackend)
        for name, layer in _BACKEND_METHODS.items():
            fn = vars(kind).get(name)
            if fn is not None:
                points.append(
                    (kind, name, "sharding" if routed else layer, _first_sized(fn))
                )
    return points


def install(tracer: Tracer, scenario) -> Instrumentation:
    """Wrap every entry point, plus the scenario's valuation model."""
    instrumentation = Instrumentation()
    for owner, name, layer, count in entry_points():
        instrumentation.patch(owner, name, tracer.wrap(layer, vars(owner)[name], count))
    model = scenario.config.valuation_model
    instrumentation.patch(
        model, "sample_bundle", tracer.wrap("listings", model.sample_bundle, _one)
    )
    return instrumentation


def wrapped_entry_points(scenario) -> List[str]:
    """Names of the boundaries that currently carry a tracing wrapper."""
    found = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in entry_points()
        if hasattr(vars(owner).get(name), _MARK)
    ]
    if hasattr(vars(scenario.config.valuation_model).get("sample_bundle"), _MARK):
        found.append("valuation_model.sample_bundle")
    return found


def _sharded_backends(scenario, simulation) -> list:
    """Every distinct sharded backend of the run, departed peers' included."""
    from repro.trust.sharding import ShardedBackend

    candidates = [scenario.complaint_store]
    for peer in list(simulation.peers) + list(simulation.departed_peers):
        candidates.extend(peer.reputation.backends.values())
    unique = {id(c): c for c in candidates if isinstance(c, ShardedBackend)}
    return list(unique.values())


def layer_metrics(
    tracer: Tracer, wall_s: float, scenario, simulation
) -> Dict[str, float]:
    """Flat ``<layer>.<metric>`` values of one traced run."""
    from repro.simulation.network import NetworkCounters

    # A sync plane has no network; its traffic is all zeros.
    counters = simulation.evidence_plane.counters or NetworkCounters()
    tracer.stats("evidence.deliver").units = counters.delivered
    tracer.stats("repair").units = counters.repair_messages
    covered = sum(
        stats.self_s for layer, stats in tracer.layers.items() if layer != "community"
    )
    community = tracer.stats("community")
    community.calls, community.units = 1, scenario.config.rounds
    community.self_s = wall_s - covered

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        stats = tracer.stats(layer)
        metrics[f"{layer}.calls"] = stats.calls
        metrics[f"{layer}.units"] = stats.units
        metrics[f"{layer}.self_s"] = stats.self_s
        metrics[f"{layer}.us_per_unit"] = (
            stats.self_s / stats.units * 1e6 if stats.units else 0.0
        )
    screen, plan = tracer.stats("screen"), tracer.stats("plan")
    metrics["screen.kept_ratio"] = (
        screen.extra.get("kept", 0) / screen.units if screen.units else 0.0
    )
    metrics["plan.agreed_ratio"] = (
        plan.extra.get("agreed", 0) / plan.units if plan.units else 0.0
    )
    metrics["execute.defections"] = tracer.stats("execute").extra.get("defections", 0)
    sharded = _sharded_backends(scenario, simulation)
    metrics["sharding.backends"] = len(sharded)
    metrics["sharding.splits"] = sum(len(b.rebalance_events) for b in sharded)
    metrics["sharding.split_pause_s"] = sum(b.rebalance_seconds for b in sharded)
    metrics["network.sent"] = counters.sent
    metrics["network.delivered"] = counters.delivered
    metrics["network.dropped"] = counters.dropped
    metrics["network.convergence_lag_p95_rounds"] = counters.convergence_lag_p95
    duplicates, applied = counters.duplicates_suppressed, counters.entries_applied
    metrics["repair.duplicates_suppressed"] = duplicates
    metrics["repair.duplicate_ratio"] = duplicates / applied if applied else 0.0
    metrics["trace.coverage"] = covered / wall_s
    return metrics
