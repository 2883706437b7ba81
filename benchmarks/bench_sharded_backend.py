"""Sharded-backend overhead — scatter/gather cost and working-set split.

``ShardedBackend`` buys horizontal partitioning (each shard's arrays hold
only its own peer-id range, so a community larger than one node's memory
can spread trust state across workers) at the cost of routing every batch:
updates scatter by home shard and queries gather per-shard vectors back
into caller order.  This experiment prices that indirection on the
workload shape the community simulation produces — a stream of
observations ingested in per-tick batches over a 10k-peer id space, with a
full score sweep after every tick — at 1, 4 and 16 shards for all three
backend kinds.

Two numbers matter:

* **overhead** — sharded wall time over unsharded (``shards=1`` uses the
  plain backend, no wrapper).  The acceptance bar for the refactor is
  **< 2x at 4 shards** for the row-partitioned beta family; the complaint
  backend's bar is 3x because complaint evidence is *delivered twice* by
  design (the accused's and the complainant's home shards each count their
  own row), an intrinsic write amplification on top of scatter/gather.
* **max shard share** — the largest shard's fraction of the interned
  peer-id table: how much of the working set one worker would actually
  hold (1/N is the ideal split).
"""

from __future__ import annotations

import random
import time

from _harness import SMOKE, bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.trust.backend import TrustObservation, create_backend
from repro.trust.sharding import ShardedBackend

NUM_PEERS = 2_000 if SMOKE else 10_000
NUM_OBSERVATIONS = 10_000 if SMOKE else 50_000
NUM_TICKS = 5 if SMOKE else 10
#: Subjects scored per tick for the complaint kind (its reference-median
#: recomputation makes full sweeps the dominant cost on both sides).
NUM_COMPLAINT_QUERIES = 200 if SMOKE else 1_000
SHARD_COUNTS = (1, 4, 16)
KINDS = ("beta", "decay", "complaint")
SEED = 23
REPEATS = 3

#: Maximum sharded/unsharded slowdown at 4 shards (beta family).
MAX_OVERHEAD = 2.0
#: Complaint bar: two-shard complaint delivery doubles the write work
#: before any scatter cost, so its bound is write amplification + 1.
MAX_COMPLAINT_OVERHEAD = 3.0


def _observation_stream():
    rng = random.Random(SEED)
    peers = [f"peer-{index:05d}" for index in range(NUM_PEERS)]
    observations = [
        TrustObservation(
            observer_id=rng.choice(peers),
            subject_id=rng.choice(peers),
            honest=rng.random() < 0.7,
            timestamp=float(index * NUM_TICKS // NUM_OBSERVATIONS),
            weight=rng.uniform(0.5, 5.0),
        )
        for index in range(NUM_OBSERVATIONS)
    ]
    batches = [[] for _ in range(NUM_TICKS)]
    for index, observation in enumerate(observations):
        batches[index * NUM_TICKS // NUM_OBSERVATIONS].append(observation)
    return peers, batches


def _build(kind: str, shards: int):
    if shards == 1:
        return create_backend(kind)
    return ShardedBackend(kind, shards)


def _drive(kind: str, shards: int, peers, batches) -> float:
    queries = peers if kind != "complaint" else peers[:NUM_COMPLAINT_QUERIES]
    best = float("inf")
    for _ in range(REPEATS):
        backend = _build(kind, shards)
        start = time.perf_counter()
        for tick, batch in enumerate(batches):
            backend.update_many(batch)
            backend.scores_for(queries, now=float(tick))
        best = min(best, time.perf_counter() - start)
    return best


def _max_shard_share(kind: str, shards: int, batches) -> float:
    backend = _build(kind, shards)
    for batch in batches:
        backend.update_many(batch)
    if shards == 1:
        return 1.0
    sizes = [len(shard.known_subjects()) for shard in backend.shards]
    return max(sizes) / max(1, sum(sizes))


def build_table() -> Table:
    peers, batches = _observation_stream()
    table = Table(
        columns=[
            "backend",
            "shards",
            "time s",
            "overhead",
            "max shard share",
        ],
        title=(
            f"Sharded backend overhead: {NUM_OBSERVATIONS} observations over "
            f"{NUM_PEERS} peers, {NUM_TICKS} ticks (best of {REPEATS})"
        ),
    )
    for kind in KINDS:
        baseline = None
        for shards in SHARD_COUNTS:
            elapsed = _drive(kind, shards, peers, batches)
            if baseline is None:
                baseline = elapsed
            table.add_row(
                kind,
                shards,
                round(elapsed, 4),
                round(elapsed / baseline, 2),
                round(_max_shard_share(kind, shards, batches), 3),
            )
    return table


def test_sharded_backend_overhead(benchmark):
    table = run_once(benchmark, build_table)
    emit("sharded_backend_overhead", table)
    overhead = {
        (row[0], row[1]): row[3] for row in table.rows
    }
    share = {(row[0], row[1]): row[4] for row in table.rows}
    emit_json(
        "sharded_backend_overhead",
        table_metrics(table),
        bars={
            "beta_overhead_4shards": bar(
                overhead[("beta", 4)], MAX_OVERHEAD,
                overhead[("beta", 4)] < MAX_OVERHEAD,
            ),
            "decay_overhead_4shards": bar(
                overhead[("decay", 4)], MAX_OVERHEAD,
                overhead[("decay", 4)] < MAX_OVERHEAD,
            ),
            "complaint_overhead_4shards": bar(
                overhead[("complaint", 4)], MAX_COMPLAINT_OVERHEAD,
                overhead[("complaint", 4)] < MAX_COMPLAINT_OVERHEAD,
            ),
            "share_4shards": bar(
                share[("beta", 4)], 0.5, share[("beta", 4)] < 0.5
            ),
            "share_16shards": bar(
                share[("beta", 16)], 0.2, share[("beta", 16)] < 0.2
            ),
        },
    )
    # The scatter/gather bar: sharding must stay a deployment knob, not a
    # performance regression.
    assert overhead[("beta", 4)] < MAX_OVERHEAD
    assert overhead[("decay", 4)] < MAX_OVERHEAD
    assert overhead[("complaint", 4)] < MAX_COMPLAINT_OVERHEAD
    # Partitioning must actually shrink the per-shard working set.
    assert share[("beta", 4)] < 0.5
    assert share[("beta", 16)] < 0.2
