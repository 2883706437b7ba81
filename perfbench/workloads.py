"""The pipeline benchmark's workloads, built from the scenario registry.

Each workload is a registered scenario plus the size it runs at.  The seed
is the only input the benchmark varies; everything else about a workload
is fixed here so that two commits measure the same work.

No workload turns on ``workers``, ``compact``, ``cache_scores=False`` or
extra ``shards``: those knobs may be deleted by later simplification work,
and a workload built on them would block the deletion.  They stay covered
by ``benchmarks/bench_worker_distribution.py`` and
``benchmarks/bench_million_peer.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SEED", "HELD_OUT_SEED"]

#: Seed used when none is given.  Changes are developed against this one.
DEFAULT_SEED = 0
#: Second seed, kept out of development, for checking a claimed gain.
HELD_OUT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """A registry scenario at a fixed size."""

    scenario: str
    size: int
    rounds: int
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self, seed: int):
        """The built scenario for ``seed``, from the scenario registry."""
        from repro.workloads.registry import build_registered_scenario

        return build_registered_scenario(
            self.scenario,
            size=self.size,
            rounds=self.rounds,
            seed=seed,
            **dict(self.params),
        )


WORKLOADS: Dict[str, Workload] = {
    # Most exchanges per run; the population grows eightfold, so trust
    # reads, sharded scatter/gather, churn and peer lookups carry weight.
    "flash-crowd": Workload(scenario="flash-crowd", size=60, rounds=20),
    # Async evidence with gossip repair after a partition: the evidence
    # plane and repair dominate, the exchange core does not.
    "partition-heal": Workload(scenario="partition-heal", size=60, rounds=20),
    # Fixed, unsharded, sync population with many declined candidates: the
    # exchange core dominates, and sharding, churn and repair are bypassed.
    "collusive-complaint": Workload(
        scenario="collusive-witness",
        size=120,
        rounds=40,
        params={"backend": "complaint"},
    ),
}

