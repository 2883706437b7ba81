"""Sharded trust backends: partition trust state by peer-id range.

The paper's premise is that reputation data in a P2P community is too large
and too decentralised to live on one node — that is why complaints are
stored in P-Grid in the first place.  This module brings the same idea to
the :class:`~repro.trust.backend.TrustBackend` layer: a
:class:`ShardedBackend` splits the peer-id space across ``N`` inner backends
of any registered kind (``beta``, ``complaint``, ``decay``, …) while
presenting the *same* ``TrustBackend`` interface, so every consumer — the
reputation manager, witness aggregation, matching, the community simulation
— stays unchanged and shard-agnostic.

Routing
-------
A :class:`ShardRouter` maps a subject-id to its home shard through a stable
32-bit key (``crc32`` of the UTF-8 id, so the assignment is identical
across processes and runs, unlike Python's seeded ``hash``).  The key space
is cut into ``N`` contiguous intervals held as an explicit boundary table,
mirroring how P-Grid partitions its trie key space.  The initial layout is
equal-width intervals; splitting a shard halves its interval in place, so
only the split shard's keys move.  The table always starts at key 0 and
covers the whole 32-bit key space — an id minted long after construction
(a flash-crowd arrival) lands in a real interval, never in an out-of-range
fallback shard.

Live rebalancing
----------------
The P-Grid substrate re-partitions the key space as the population shifts:
a peer *splits its path* when its partition grows hot.  A
:class:`RebalancePolicy` gives :class:`ShardedBackend` the same move: the
backend keeps per-shard load counters (resident rows and routed evidence
units), and when a shard exceeds the policy's skew threshold (or its
absolute row capacity) it is split in place through the very same
``shard-NNNN/*`` snapshot manifest a re-sharding restore uses — snapshot
the hot shard, redistribute its rows (beta/decay) or re-file its complaint
log (complaint) onto two successor shards, and atomically swap the
router's key intervals.  Row values
are copied bit-for-bit and complaint logs are re-filed complaint-for-
complaint, so results stay bit-identical to an unsharded run before,
during and after every split — the sharding invariant survives churn.

Semantics
---------
* ``update_many`` / ``record_complaints`` scatter a batch by home shard
  (order-preserving within each shard, so results are bit-identical to the
  unsharded backend).  Complaint evidence touches *two* rows — the accused's
  received count and the complainant's filed count — so it is delivered to
  both peers' home shards; each shard counts only its own peer-id range
  (``ComplaintTrustBackend.restrict_rows``), so every home row sees all of
  its evidence and no shard holds half-counted foreign rows.
* ``scores_for`` / ``trust_decisions`` / ``aggregate_witness_reports``
  scatter the query (the witness-belief matrix splits column-wise) and
  gather per-shard answers back into caller order.  For the complaint
  family the community *median* reference is global state: the wrapper
  pools every shard's home-subject metrics, takes one global median, and
  hands it to each shard's explicit-reference scoring helpers — per-shard
  medians would silently change the decision rule.
* ``snapshot`` / ``restore`` produce a per-shard manifest: each shard
  serialises independently under a ``shard-NNNN/`` key prefix (the format a
  multi-worker deployment checkpoints in parallel), plus the router's
  boundary state needed to re-shard — a snapshot taken after
  live splits records the uneven layout, so its per-shard logs are
  interpreted correctly on restore.  Restoring into a *different* shard
  count or router layout redistributes per-subject rows — or re-files the
  complaint log — onto the new layout without score drift; restoring onto
  a single shard, or onto more shards than there are peers (some shards
  end up empty), both work.
"""

from __future__ import annotations

import itertools
import time
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TrustModelError
from repro.trust.aggregation import (
    SparseWitnessMatrix,
    validate_witness_matrix,
)
from repro.trust.backend import (
    ComplaintTrustBackend,
    TrustBackend,
    TrustObservation,
    create_backend,
)
from repro.trust.beta import BetaBelief
from repro.trust.evidence import Complaint

__all__ = [
    "ShardRouter",
    "RebalancePolicy",
    "RebalanceEvent",
    "ShardSplitError",
    "ShardedBackend",
]


class ShardSplitError(TrustModelError):
    """A shard cannot be split (its key range is exhausted).

    Raised *before* any router mutation, so catching it is always safe;
    any other error escaping a split indicates a real failure (and the
    backend rolls its router back before re-raising).
    """

_KEY_BITS = 32
_KEY_SPACE = 1 << _KEY_BITS

def shard_key(peer_id: str) -> int:
    """Stable 32-bit routing key for a peer id.

    ``crc32`` rather than Python's builtin ``hash``: the builtin is salted
    per process (``PYTHONHASHSEED``), which would scatter the same peer to
    different shards across runs and break snapshot re-sharding; crc32 is
    deterministic everywhere and runs at C speed on the routing hot path.
    """
    return zlib.crc32(peer_id.encode("utf-8"))


class ShardRouter:
    """Maps subject-ids to shards over contiguous key intervals.

    The default layout gives shard ``i`` the equal-width interval
    ``[ceil(i * 2^32 / N), ceil((i + 1) * 2^32 / N))`` — the P-Grid-style
    split of the key space into contiguous ranges.  The boundary table
    always starts at key 0 and (implicitly) ends at ``2^32``, so *every*
    possible routing key falls inside a configured interval: ids first seen
    after construction route deterministically into a real home interval,
    and the assignment is stable across snapshot/restore because the table
    itself is the serialised router state.  A table whose first boundary
    is not 0 would silently send all low keys to whichever shard owns the
    last interval (an over-wide fallback), so it is rejected outright.

    :meth:`split` halves the hot shard's (widest) interval in place; the
    upper half moves to the new shard, nothing else changes.
    """

    def __init__(self, num_shards: int, state: Optional[np.ndarray] = None):
        if num_shards < 1:
            raise TrustModelError(f"num_shards must be >= 1, got {num_shards}")
        self._num_shards = num_shards
        if state is None:
            self._starts = [
                ((index << _KEY_BITS) + num_shards - 1) // num_shards
                for index in range(num_shards)
            ]
            self._owners = list(range(num_shards))
        else:
            self._starts, self._owners = _validate_boundary_state(
                state, num_shards
            )

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_of(self, peer_id: str) -> int:
        """Home shard index of ``peer_id`` in ``[0, num_shards)``."""
        return self._owners[bisect_right(self._starts, shard_key(peer_id)) - 1]

    def split(self, hot_index: int) -> int:
        """Split shard ``hot_index``'s widest key interval in place.

        Returns the index of the newly created shard (always the next free
        index, ``num_shards`` before the call).  Only the split shard's
        keys move: every other shard's assignment is untouched.
        """
        if not 0 <= hot_index < self._num_shards:
            raise TrustModelError(
                f"shard index {hot_index} out of range [0, {self._num_shards})"
            )
        best: Optional[Tuple[int, int]] = None  # (width, table position)
        for position, owner in enumerate(self._owners):
            if owner != hot_index:
                continue
            end = (
                self._starts[position + 1]
                if position + 1 < len(self._starts)
                else _KEY_SPACE
            )
            width = end - self._starts[position]
            if best is None or width > best[0]:
                best = (width, position)
        if best is None or best[0] < 2:
            raise ShardSplitError(
                f"shard {hot_index} owns no splittable key interval"
            )
        width, position = best
        midpoint = self._starts[position] + width // 2
        new_index = self._num_shards
        self._starts.insert(position + 1, midpoint)
        self._owners.insert(position + 1, new_index)
        self._num_shards += 1
        return new_index

    def state(self) -> np.ndarray:
        """Serialisable ``(2, M)`` boundary table (interval starts, owners)."""
        return np.array([self._starts, self._owners], dtype=np.int64)

    def same_layout(self, other: "ShardRouter") -> bool:
        """Whether ``other`` assigns every key exactly as this router does."""
        return self._starts == other._starts and self._owners == other._owners


def _validate_boundary_state(
    state: np.ndarray, num_shards: int
) -> Tuple[List[int], List[int]]:
    """Validate a ``(2, M)`` starts/owners table and return python lists."""
    table = np.asarray(state, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != 2 or table.shape[1] < 1:
        raise TrustModelError(
            "router state must be a (2, M>=1) array, "
            f"got shape {table.shape}"
        )
    starts = [int(value) for value in table[0]]
    owners = [int(value) for value in table[1]]
    if any(not 0 <= start < _KEY_SPACE for start in starts):
        raise TrustModelError(
            f"router interval starts must lie in [0, 2^{_KEY_BITS})"
        )
    if any(low >= high for low, high in zip(starts, starts[1:])):
        raise TrustModelError(
            "router interval starts must be strictly increasing"
        )
    if starts[0] != 0:
        raise TrustModelError(
            "router intervals must start at key 0: keys below the first "
            f"boundary ({starts[0]}) would fall outside every configured "
            "interval"
        )
    if set(owners) != set(range(num_shards)):
        raise TrustModelError(
            "router state must assign at least one key interval "
            f"to every shard in [0, {num_shards})"
        )
    return starts, owners


# ----------------------------------------------------------------------
# Rebalancing policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RebalancePolicy:
    """When to split a hot shard (the P-Grid path-split rule, parametrised).

    A shard is split when it holds at least ``min_shard_rows`` rows and
    either exceeds the *skew* bound — more than ``threshold`` times the
    ideal per-shard share ``total_rows / num_shards`` (meaningful only with
    two or more shards) — or the absolute *capacity* bound ``split_rows``.
    The capacity bound defaults on (1024 rows) because it is the only
    trigger a single-shard backend has: without it, ``rebalance`` at
    ``shards=1`` could never grow in place.  Pass ``split_rows=None`` for
    pure skew semantics.  Among shards over the bounds, the one with the
    most resident rows splits first, routed update traffic breaking ties.
    Splits stop at ``max_shards``; loads are checked every ``check_every``
    write batches.
    """

    threshold: float = 2.0
    max_shards: int = 16
    split_rows: Optional[int] = 1024
    min_shard_rows: int = 8
    check_every: int = 1

    def __post_init__(self) -> None:
        if self.threshold <= 1.0:
            raise TrustModelError(
                f"rebalance threshold must be > 1, got {self.threshold}"
            )
        if self.max_shards < 1:
            raise TrustModelError(f"max_shards must be >= 1, got {self.max_shards}")
        if self.split_rows is not None and self.split_rows < 2:
            raise TrustModelError(f"split_rows must be >= 2, got {self.split_rows}")
        if self.min_shard_rows < 2:
            raise TrustModelError(
                f"min_shard_rows must be >= 2, got {self.min_shard_rows}"
            )
        if self.check_every < 1:
            raise TrustModelError(
                f"check_every must be >= 1, got {self.check_every}"
            )

    def should_split(self, rows: int, total_rows: int, num_shards: int) -> bool:
        """Whether a shard holding ``rows`` of ``total_rows`` must split."""
        if num_shards >= self.max_shards or rows < self.min_shard_rows:
            return False
        if self.split_rows is not None and rows > self.split_rows:
            return True
        return num_shards > 1 and rows > self.threshold * (total_rows / num_shards)


@dataclass(frozen=True)
class RebalanceEvent:
    """One completed live split, for introspection and benchmarks."""

    source_shard: int
    new_shard: int
    rows_kept: int
    rows_moved: int
    num_shards_after: int
    seconds: float


def _matrix_columns(
    matrix: "np.ndarray | SparseWitnessMatrix", positions: np.ndarray
):
    """Column-select a witness matrix in either representation."""
    if isinstance(matrix, SparseWitnessMatrix):
        return matrix.select_columns(positions)
    return matrix[:, positions, :]


#: Per-subject row keys of the row-partitioned backends, used to re-shard a
#: snapshot into a different shard count.  Keys not listed here (``prior``,
#: ``half_life``, …) are per-backend configuration copied from shard 0.
_ROW_KEYS = {
    "beta": ("alpha", "beta", "count"),
    "decay": ("alpha", "beta", "ref", "count"),
}
_ROW_DTYPES = {"alpha": np.float64, "beta": np.float64, "ref": np.float64,
               "count": np.int64}


class ShardedBackend(TrustBackend):
    """N inner trust backends behind one ``TrustBackend`` interface.

    Parameters
    ----------
    kind:
        Registered backend name instantiated per shard (``beta``,
        ``complaint``, ``decay``, or any :func:`register_backend` addition).
    num_shards:
        How many partitions to split the peer-id space into initially
        (rebalancing may grow the count up to the policy's ``max_shards``).
    router:
        Optional ready :class:`ShardRouter` (whose shard count must
        match); by default ``num_shards`` equal-width key intervals.
    rebalance:
        Optional :class:`RebalancePolicy`.  When set, the backend monitors
        per-shard load after every write batch and splits hot shards in
        place.
    **shard_params:
        Constructor parameters forwarded to every inner backend.

    The complaint family gets special treatment in three places (global
    median reference, two-shard complaint delivery, complaint-log
    re-sharding); everything else is generic scatter/gather.  When the
    inner backends implement the ``ComplaintStore`` protocol the wrapper
    does too, so a sharded complaint backend can serve as a community's
    shared complaint store exactly like an unsharded one.
    """

    name = "sharded"

    def __init__(
        self,
        kind: str,
        num_shards: int,
        router: Optional[ShardRouter] = None,
        rebalance: Optional[RebalancePolicy] = None,
        **shard_params: object,
    ):
        if num_shards < 1:
            raise TrustModelError(f"num_shards must be >= 1, got {num_shards}")
        if "shards" in shard_params:
            raise TrustModelError("nested sharding is not supported")
        if shard_params.get("store") is not None:
            # One store behind every shard would persist cross-shard
            # complaints twice (each delivery files into the same log) and
            # double-count them on any rebuild.
            raise TrustModelError(
                "sharded backends own their per-shard stores; "
                "a shared store cannot back multiple shards"
            )
        self._kind = kind
        self._shard_params: Dict[str, object] = dict(shard_params)
        if router is None:
            router = ShardRouter(num_shards)
        elif router.num_shards != num_shards:
            raise TrustModelError(
                f"router covers {router.num_shards} shards, "
                f"backend has {num_shards}"
            )
        self._router = router
        self._shards: Tuple[TrustBackend, ...] = tuple(
            self._create_shard() for _ in range(num_shards)
        )
        self._complaint_family = self._detect_complaint_family()
        if rebalance is not None:
            if not isinstance(rebalance, RebalancePolicy):
                raise TrustModelError(
                    "rebalance must be a RebalancePolicy or None, "
                    f"got {type(rebalance).__name__}"
                )
            if not self._complaint_family and kind not in _ROW_KEYS:
                raise TrustModelError(
                    f"rebalancing is not supported for backend kind {kind!r}"
                )
        self._rebalance = rebalance
        self._rebalance_events: List[RebalanceEvent] = []
        self._split_seconds = 0.0
        self._in_rebalance = False
        #: Evidence units (observations / complaint deliveries) routed to
        #: each shard — the update-traffic half of the load signal.
        self._shard_updates: List[int] = [0] * num_shards
        # Routing is pure but hashing every id on every query adds up;
        # memoise per instance (invalidated whenever the router changes).
        self._route_cache: Dict[str, int] = {}
        # Complaint family: a complaint is delivered to both involved peers'
        # home shards; restricting each shard's counters to its own peer-id
        # range keeps every shard's agent set and metric array exactly the
        # home partition (see ComplaintTrustBackend.restrict_rows), so the
        # global median pools per-shard arrays at numpy speed.  The median
        # is cached per write version.
        if self._complaint_family:
            self._restrict_shard_rows()
        self._writes = 0
        self._reference_cache: Tuple[int, float] = (-1, 0.0)

    def _create_shard(self, **overrides: object) -> TrustBackend:
        """Instantiate one inner shard (``shard_params`` merged with overrides).

        The single construction point for inner backends — initial shards,
        split successors and re-sharded complaint shards all come through
        here, so a subclass that hosts shards elsewhere (the worker-process
        deployment in :mod:`repro.trust.workers`) overrides exactly one
        method to change where every shard lives.
        """
        params = dict(self._shard_params)
        params.update(overrides)
        shard = create_backend(self._kind, **params)
        if self.telemetry.enabled:
            # Shards minted after bind_telemetry (splits, re-shards) report
            # through the same registry as the initial fleet.
            shard.bind_telemetry(self.telemetry)
        return shard

    def _detect_complaint_family(self) -> bool:
        """Whether the inner shards are complaint-family backends."""
        return isinstance(self._shards[0], ComplaintTrustBackend)

    def _restrict_shard_rows(self) -> None:
        for index, shard in enumerate(self._shards):
            self._restrict_one(shard, index)

    def _restrict_one(self, shard: TrustBackend, home: int) -> None:
        shard.restrict_rows(  # type: ignore[attr-defined]
            lambda agent, home=home: self.shard_index_of(agent) == home
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """Registered name of the inner backends."""
        return self._kind

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shards(self) -> Tuple[TrustBackend, ...]:
        """The inner backends, indexable by shard index."""
        return self._shards

    @property
    def rebalance_policy(self) -> Optional[RebalancePolicy]:
        return self._rebalance

    @property
    def rebalance_events(self) -> Tuple[RebalanceEvent, ...]:
        """Every live split performed so far, in order."""
        return tuple(self._rebalance_events)

    @property
    def rebalance_seconds(self) -> float:
        """Cumulative wall time spent inside live splits (the split pause)."""
        return self._split_seconds

    @property
    def shard_update_counts(self) -> Tuple[int, ...]:
        """Evidence units routed to each shard (split-adjusted)."""
        return tuple(self._shard_updates)

    def shard_row_counts(self) -> np.ndarray:
        """Resident rows per shard (the working-set half of the load signal).

        Uses the backends' O(1) ``row_count`` rather than materialising
        ``known_subjects()`` name tuples — this is polled after every write
        batch when a rebalance policy is active.
        """
        return np.array(
            [shard.row_count() for shard in self._shards], dtype=np.int64
        )

    def describe(self) -> str:
        suffix = ""
        if self._rebalance is not None:
            suffix = f", rebalance@{self._rebalance.threshold:g}"
        return f"sharded({len(self._shards)}x{self._kind}{suffix})"

    def _config_parts(self) -> List[str]:
        rebalance = "rebalance off"
        if self._rebalance is not None:
            rebalance = "rebalance auto@{:g} (max {})".format(
                self._rebalance.threshold, self._rebalance.max_shards
            )
        return [
            self._kind,
            "{} shards".format(len(self._shards)),
            rebalance,
            "workers 0",
            "recovery off",
        ]

    def bind_telemetry(self, registry) -> None:
        """Bind the wrapper and every current shard to ``registry``.

        Registers a view over the existing rebalance / scatter tallies
        (the attributes stay authoritative) so one snapshot reports shard
        count, per-shard routed volumes and split pauses.
        """
        super().bind_telemetry(registry)
        for shard in self._shards:
            shard.bind_telemetry(registry)
        if registry.enabled:
            registry.add_view("sharded", self._telemetry_view)

    def _telemetry_view(self) -> Dict[str, object]:
        view: Dict[str, object] = {
            "shards": len(self._shards),
            "write_batches": self._writes,
            "rebalance_splits": len(self._rebalance_events),
            "rebalance_rows_moved": sum(
                event.rows_moved for event in self._rebalance_events
            ),
            # Routed through the timings section (monotonic clock).
            "split_pause_seconds": self._split_seconds,
        }
        for index, count in enumerate(self._shard_updates):
            view["shard_updates.{:04d}".format(index)] = count
        return view

    def shard_index_of(self, peer_id: str) -> int:
        """Home shard index of ``peer_id`` (memoised routing)."""
        index = self._route_cache.get(peer_id)
        if index is None:
            index = self._router.shard_of(peer_id)
            self._route_cache[peer_id] = index
        return index

    def _home_shard(self, peer_id: str) -> TrustBackend:
        return self._shards[self.shard_index_of(peer_id)]

    def _require_complaint_family(self) -> ComplaintTrustBackend:
        if not self._complaint_family:
            raise TrustModelError(
                f"operation requires complaint-family shards, not {self._kind!r}"
            )
        return self._shards[0]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Scatter helpers
    # ------------------------------------------------------------------
    def _route_many(self, subject_ids: Sequence[str]) -> np.ndarray:
        """Shard index per subject (memoised, one routing pass)."""
        cache = self._route_cache
        try:
            # Fast path: every id already routed — one C-level pass.
            return np.fromiter(
                map(cache.__getitem__, subject_ids),
                dtype=np.intp,
                count=len(subject_ids),
            )
        except KeyError:
            shard_of = self._router.shard_of
            for subject_id in subject_ids:
                if subject_id not in cache:
                    cache[subject_id] = shard_of(subject_id)
            return np.fromiter(
                map(cache.__getitem__, subject_ids),
                dtype=np.intp,
                count=len(subject_ids),
            )

    def _partition(
        self, subject_ids: Sequence[str]
    ) -> List[Tuple[int, np.ndarray, List[str]]]:
        """Group query positions by home shard (ascending shard index).

        Uses a stable argsort over the routed indices so the grouping runs
        at numpy speed; within a shard the caller's order is preserved,
        keeping per-subject accumulation sequences — and therefore float
        results — identical to the unsharded backend.
        """
        routed = self._route_many(subject_ids)
        order = np.argsort(routed, kind="stable")
        sorted_shards = routed[order]
        boundaries = np.flatnonzero(sorted_shards[1:] != sorted_shards[:-1]) + 1
        id_array = np.asarray(subject_ids, dtype=object)
        groups = []
        for positions in np.split(order, boundaries):
            index = int(routed[positions[0]])
            groups.append((index, positions, id_array[positions].tolist()))
        return groups

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        if not observations:
            return
        cache = self._route_cache
        cache_get = cache.get
        shard_of = self._router.shard_of
        buckets: List[Optional[List[TrustObservation]]] = [None] * len(self._shards)
        complaint_family = self._complaint_family
        for observation in observations:
            subject_id = observation.subject_id
            home = cache_get(subject_id)
            if home is None:
                home = cache[subject_id] = shard_of(subject_id)
            bucket = buckets[home]
            if bucket is None:
                bucket = buckets[home] = []
            bucket.append(observation)
            if (
                complaint_family
                and observation.complaint_filed
                and observation.observer_id != observation.subject_id
            ):
                # The complaint also increments the complainant's filed
                # count, whose authoritative row lives in *its* home shard.
                observer_id = observation.observer_id
                filer_home = cache_get(observer_id)
                if filer_home is None:
                    filer_home = cache[observer_id] = shard_of(observer_id)
                if filer_home != home:
                    filer_bucket = buckets[filer_home]
                    if filer_bucket is None:
                        filer_bucket = buckets[filer_home] = []
                    filer_bucket.append(observation)
        self._writes += 1
        telemetry = self.telemetry
        with telemetry.span("sharded.update_many"):
            fanout = 0
            for index, bucket in enumerate(buckets):
                if bucket is not None:
                    fanout += 1
                    self._shard_updates[index] += len(bucket)
                    self._shards[index].update_many(bucket)
            if telemetry.enabled:
                telemetry.observe("sharded.update_fanout", fanout)
        self._maybe_rebalance()

    def record_complaints(self, complaints: Sequence[Complaint]) -> None:
        """Scatter ready-made complaints to the accused's and filer's shards."""
        self._require_complaint_family()
        buckets: Dict[int, List[Complaint]] = {}
        for complaint in complaints:
            home = self.shard_index_of(complaint.accused_id)
            buckets.setdefault(home, []).append(complaint)
            filer_home = self.shard_index_of(complaint.complainant_id)
            if filer_home != home:
                buckets.setdefault(filer_home, []).append(complaint)
        self._writes += 1
        for index in sorted(buckets):
            self._shard_updates[index] += len(buckets[index])
            self._shards[index].record_complaints(buckets[index])  # type: ignore[attr-defined]
        self._maybe_rebalance()

    # ------------------------------------------------------------------
    # Live rebalancing
    # ------------------------------------------------------------------
    def _maybe_rebalance(self) -> None:
        """Split hot shards until the policy's bounds hold (or max is hit)."""
        policy = self._rebalance
        if policy is None or self._in_rebalance:
            return
        if self._writes % policy.check_every:
            return
        self._in_rebalance = True
        try:
            while len(self._shards) < policy.max_shards:
                rows = self.shard_row_counts()
                total = int(rows.sum())
                # Hottest by resident rows; routed update traffic breaks
                # ties (two equally-sized shards: split the busier one).
                updates = self._shard_updates
                hot = max(
                    range(len(rows)),
                    key=lambda index: (int(rows[index]), updates[index]),
                )
                if not policy.should_split(int(rows[hot]), total, len(self._shards)):
                    break
                before = int(rows[hot])
                try:
                    self.split_shard(hot)
                except ShardSplitError:
                    break  # key range too narrow to split further
                if self._rebalance_events[-1].rows_kept >= before:
                    break  # the split moved nothing; stop rather than spin
        finally:
            self._in_rebalance = False

    def split_shard(self, index: int) -> int:
        """Split shard ``index`` in place; returns the new shard's index.

        The hot shard is snapshotted through the same per-shard manifest
        format :meth:`snapshot` emits, the router's key table gains the new
        shard (only the hot shard's keys move), the snapshot's rows are
        redistributed (beta/decay) or its complaint log re-filed
        (complaint) onto the two successors, and the shard table is swapped
        atomically.  Scores are bit-identical before and after.
        """
        if not 0 <= index < len(self._shards):
            raise TrustModelError(
                f"shard index {index} out of range [0, {len(self._shards)})"
            )
        if not self._complaint_family and self._kind not in _ROW_KEYS:
            raise TrustModelError(
                f"live splits are not supported for backend kind {self._kind!r}"
            )
        started = time.perf_counter()  # repro: allow(DET001) — split-pause timing, reported via the telemetry timings section only
        state = self._shards[index].snapshot()
        saved_state = self._router.state()
        saved_shards = self._router.num_shards
        new_index = self._router.split(index)
        self._route_cache.clear()
        try:
            if self._complaint_family:
                kept_shard, moved_shard, kept, moved = self._split_complaints(
                    state, index, new_index
                )
            else:
                kept_shard, moved_shard, kept, moved = self._split_rows(
                    state, index, new_index
                )
        except Exception:
            # Roll the router back so a failed redistribution leaves the
            # backend exactly as it was: the shard table was never touched
            # and routing must not point at a phantom shard.
            self._router = ShardRouter(saved_shards, state=saved_state)
            self._route_cache.clear()
            raise
        shards = list(self._shards)
        shards[index] = kept_shard
        shards.append(moved_shard)
        self._shards = tuple(shards)
        # Re-apportion the split shard's routed-update tally by surviving
        # rows so the traffic signal stays roughly proportional.
        updates = self._shard_updates[index]
        kept_updates = updates * kept // max(1, kept + moved)
        self._shard_updates[index] = kept_updates
        self._shard_updates.append(updates - kept_updates)
        self._writes += 1
        seconds = time.perf_counter() - started  # repro: allow(DET001) — split-pause timing, reported via the telemetry timings section only
        self._split_seconds += seconds
        self._rebalance_events.append(
            RebalanceEvent(
                source_shard=index,
                new_shard=new_index,
                rows_kept=kept,
                rows_moved=moved,
                num_shards_after=len(self._shards),
                seconds=seconds,
            )
        )
        return new_index

    def _row_states(
        self,
        shard_states: List[Dict[str, np.ndarray]],
        num_targets: int,
        position_of,
    ) -> List[Dict[str, np.ndarray]]:
        """Regroup row-partitioned shard snapshots into ``num_targets`` states.

        The single redistribution engine behind both live splits and
        re-sharding restores: rows are bucketed by ``position_of(peer_id)``
        and each target gets a restorable shard state carrying shard 0's
        configuration keys.  Row values are copied verbatim, so no score
        can drift.
        """
        row_keys = _ROW_KEYS.get(self._kind)
        if row_keys is None:
            raise TrustModelError(
                f"re-sharding is not supported for backend kind {self._kind!r}"
            )
        config_keys = [
            key
            for key in shard_states[0]
            if key not in row_keys and key != "peer_ids"
        ]
        names: List[List[str]] = [[] for _ in range(num_targets)]
        rows: List[Dict[str, List[float]]] = [
            {key: [] for key in row_keys} for _ in range(num_targets)
        ]
        for shard_state in shard_states:
            for row, peer_id in enumerate(shard_state["peer_ids"]):
                peer_name = str(peer_id)
                target = position_of(peer_name)
                names[target].append(peer_name)
                for key in row_keys:
                    rows[target][key].append(shard_state[key][row])
        states = []
        for index in range(num_targets):
            state = {
                key: np.asarray(shard_states[0][key]) for key in config_keys
            }
            state["peer_ids"] = np.array(names[index], dtype=object)
            for key in row_keys:
                state[key] = np.array(rows[index][key], dtype=_ROW_DTYPES[key])
            states.append(state)
        return states

    def _split_rows(
        self, state: Dict[str, np.ndarray], kept_index: int, moved_index: int
    ) -> Tuple[TrustBackend, TrustBackend, int, int]:
        """Redistribute a beta/decay shard snapshot onto two successors."""

        def position_of(peer_name: str) -> int:
            home = self.shard_index_of(peer_name)
            if home == kept_index:
                return 0
            if home == moved_index:
                return 1
            # A split may only rehome keys between the two successors;
            # anything else is a router-invariant violation that would
            # otherwise strand the row where queries never reach it.
            raise TrustModelError(
                f"split rehomed {peer_name!r} to shard {home}, outside "
                f"successors ({kept_index}, {moved_index})"
            )

        states = self._row_states([state], 2, position_of)
        successors = []
        for shard_state in states:
            successor = self._create_shard()
            successor.restore(shard_state)
            successors.append(successor)
        return (
            successors[0],
            successors[1],
            len(states[0]["peer_ids"]),
            len(states[1]["peer_ids"]),
        )

    def _complaint_shard_from_config(
        self, shard_state: Dict[str, np.ndarray], home_index: int
    ) -> TrustBackend:
        """A fresh, row-restricted complaint shard with a snapshot's config."""
        tolerance_factor, trust_scale = (
            float(value) for value in shard_state["config"]
        )
        # The snapshot's scoring configuration overrides whatever the shard
        # params carry.
        shard = self._create_shard(
            tolerance_factor=tolerance_factor,
            trust_scale=trust_scale,
            metric_mode=str(np.asarray(shard_state["metric_mode"]).item()),
        )
        self._restrict_one(shard, home_index)
        return shard

    def _split_complaints(
        self, state: Dict[str, np.ndarray], kept_index: int, moved_index: int
    ) -> Tuple[TrustBackend, TrustBackend, int, int]:
        """Re-file a complaint shard's log onto two successor shards.

        Every complaint in the hot shard's store involves at least one peer
        homed in the old range; it is re-delivered to whichever of the two
        successors now homes each involved peer.  Shards outside the split
        already hold their own copies (the two-shard delivery invariant),
        so nothing is delivered beyond the successors and no count changes.
        """
        successors = (
            self._complaint_shard_from_config(state, kept_index),
            self._complaint_shard_from_config(state, moved_index),
        )
        batches: Tuple[List[Complaint], List[Complaint]] = ([], [])
        for complainant, accused, timestamp in zip(
            state["complainants"], state["accused"], state["timestamps"]
        ):
            complaint = Complaint(
                complainant_id=str(complainant),
                accused_id=str(accused),
                timestamp=float(timestamp),
            )
            targets = {
                self.shard_index_of(complaint.accused_id),
                self.shard_index_of(complaint.complainant_id),
            }
            if kept_index in targets:
                batches[0].append(complaint)
            if moved_index in targets:
                batches[1].append(complaint)
        for side in (0, 1):
            if batches[side]:
                successors[side].record_complaints(batches[side])
        return (
            successors[0],
            successors[1],
            successors[0].row_count(),
            successors[1].row_count(),
        )

    # ------------------------------------------------------------------
    # Reads (scatter the query, gather into caller order)
    # ------------------------------------------------------------------
    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        out = np.zeros(len(subject_ids))
        if not len(subject_ids):
            return out
        telemetry = self.telemetry
        with telemetry.span("sharded.scores_for"):
            groups = self._partition(subject_ids)
            if telemetry.enabled:
                telemetry.observe("sharded.query_fanout", len(groups))
            if self._complaint_family:
                reference = self.reference_metric()
                for index, positions, subjects in groups:
                    shard = self._shards[index]
                    metrics = shard.metrics_for(subjects)  # type: ignore[attr-defined]
                    out[positions] = shard.scores_from_metrics(  # type: ignore[attr-defined]
                        metrics, reference
                    )
                return out
            for index, positions, subjects in groups:
                out[positions] = self._shards[index].scores_for(subjects, now=now)
            return out

    def trust_decisions(
        self,
        subject_ids: Sequence[str],
        threshold: float = 0.5,
        now: Optional[float] = None,
    ) -> np.ndarray:
        out = np.zeros(len(subject_ids), dtype=bool)
        if not len(subject_ids):
            return out
        if self._complaint_family:
            reference = self.reference_metric()
            for index, positions, subjects in self._partition(subject_ids):
                shard = self._shards[index]
                metrics = shard.metrics_for(subjects)  # type: ignore[attr-defined]
                out[positions] = shard.decisions_from_metrics(  # type: ignore[attr-defined]
                    metrics, reference
                )
            return out
        for index, positions, subjects in self._partition(subject_ids):
            out[positions] = self._shards[index].trust_decisions(
                subjects, threshold=threshold, now=now
            )
        return out

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        matrix, discounts = validate_witness_matrix(
            len(subject_ids),
            witness_belief_matrix,
            discount_vector,
            positive=not self._complaint_family,
        )
        out = np.zeros(len(subject_ids))
        if not len(subject_ids):
            return out
        if self._complaint_family:
            reference = self.reference_metric()
            for index, positions, subjects in self._partition(subject_ids):
                shard = self._shards[index]
                metrics = shard.witness_metrics_for(  # type: ignore[attr-defined]
                    subjects, _matrix_columns(matrix, positions), discounts
                )
                out[positions] = shard.scores_from_metrics(  # type: ignore[attr-defined]
                    metrics, reference
                )
            return out
        # The witness-belief matrix splits column-wise: each shard sees
        # every witness's reports about its own subjects only.
        for index, positions, subjects in self._partition(subject_ids):
            out[positions] = self._shards[index].aggregate_witness_reports(
                subjects, _matrix_columns(matrix, positions), discounts, now=now
            )
        return out

    def known_subjects(self) -> Tuple[str, ...]:
        # Complaint shards are row-filtered to their home range, so a plain
        # concatenation is the home partition for every backend family.
        return tuple(
            subject
            for shard in self._shards
            for subject in shard.known_subjects()
        )

    def reference_metric(self) -> float:
        """The *global* community median metric (complaint family only).

        Pools every shard's (home-filtered) in-store metric array into one
        median — the same multiset an unsharded backend computes its
        reference over, so the decision rule is unchanged by sharding.
        Cached per write version (one query batch recomputes it at most
        once).
        """
        self._require_complaint_family()
        version, cached = self._reference_cache
        if version == self._writes:
            return cached
        values = np.concatenate(
            [
                shard.metric_values_in_store()  # type: ignore[attr-defined]
                for shard in self._shards
            ]
        )
        reference = float(np.median(values)) if values.size else 0.0
        self._reference_cache = (self._writes, reference)
        return reference

    # ------------------------------------------------------------------
    # Scalar conveniences (delegate to the home shard)
    # ------------------------------------------------------------------
    def belief(self, subject_id: str, now: Optional[float] = None) -> BetaBelief:
        return self._home_shard(subject_id).belief(subject_id, now=now)  # type: ignore[attr-defined]

    def observation_count(self, subject_id: str) -> int:
        return self._home_shard(subject_id).observation_count(subject_id)  # type: ignore[attr-defined]

    def trust(self, subject_id: str, now: Optional[float] = None) -> float:
        return self.score(subject_id, now=now)

    def counts(self, agent_id: str) -> Tuple[int, int]:
        """``(received, filed)`` complaint counts from the agent's home shard."""
        self._require_complaint_family()
        return self._home_shard(agent_id).counts(agent_id)  # type: ignore[attr-defined]

    def trustworthy(self, subject_id: str) -> bool:
        return bool(self.trust_decisions((subject_id,))[0])

    # ------------------------------------------------------------------
    # ComplaintStore protocol (complaint family only) — a sharded backend
    # can be a community's shared complaint store, like its inner kind.
    # ------------------------------------------------------------------
    @property
    def tolerance_factor(self) -> float:
        return self._require_complaint_family().tolerance_factor

    @property
    def metric_mode(self) -> str:
        return self._require_complaint_family().metric_mode

    def file_complaint(self, complaint: Complaint) -> None:
        self.record_complaints((complaint,))

    def complaints_about(self, agent_id: str) -> Sequence[Complaint]:
        self._require_complaint_family()
        return self._home_shard(agent_id).complaints_about(agent_id)  # type: ignore[attr-defined]

    def complaints_by(self, agent_id: str) -> Sequence[Complaint]:
        self._require_complaint_family()
        return self._home_shard(agent_id).complaints_by(agent_id)  # type: ignore[attr-defined]

    def known_agents(self) -> Sequence[str]:
        self._require_complaint_family()
        return list(self.known_subjects())

    def all_complaints(self) -> Tuple[Complaint, ...]:
        """The global complaint log, each complaint exactly once.

        Cross-shard complaints are stored in two shards; collecting each
        shard's log filtered to *accused-home* complaints de-duplicates
        without comparing complaint values (identical duplicate filings are
        legitimate evidence and must survive).
        """
        self._require_complaint_family()
        complaints: List[Complaint] = []
        for index, shard in enumerate(self._shards):
            for complaint in shard.all_complaints():  # type: ignore[attr-defined]
                if self.shard_index_of(complaint.accused_id) == index:
                    complaints.append(complaint)
        return tuple(complaints)

    def __len__(self) -> int:
        # Version stamp for change-tracking caches (cross-shard complaints
        # count twice — monotonicity is what matters, not the total).
        return sum(len(shard) for shard in self._shards)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Persistence: per-shard manifest, re-shardable
    # ------------------------------------------------------------------
    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Stream the per-shard manifest one entry at a time.

        Manifest metadata (router boundary state, inner kind,
        shard count) streams first, then every shard's own
        ``snapshot_items`` under its ``shard-NNNN/`` key prefix, then the
        prefix manifest.  Shard columns are materialised one at a time, so
        checkpointing a million-row sharded table holds at most one
        evidence column in memory beyond the consumer's own buffering —
        :meth:`snapshot` is simply ``dict`` of this stream.
        """
        yield "backend", np.array(self.name)
        yield "kind", np.array(self._kind)
        yield "num_shards", np.array([len(self._shards)])
        yield "router_state", self._router.state()
        prefixes: List[str] = []
        for index, shard in enumerate(self._shards):
            prefix = f"shard-{index:04d}"
            prefixes.append(prefix)
            for key, value in shard.snapshot_items():
                yield f"{prefix}/{key}", value
        yield "manifest", np.array(prefixes, dtype=object)

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Serialise every shard independently under a ``shard-NNNN/`` prefix.

        The manifest (shard prefixes, router boundary state,
        inner kind) is what a multi-worker deployment needs to checkpoint
        shards in parallel and to restore onto a different shard layout.
        The router state matters once live splits have run: the shards are
        no longer equal-width, and re-filing a snapshot's complaint logs
        needs the exact key table they were written under.
        """
        return dict(self.snapshot_items())

    def restore_items(
        self, items: Iterable[Tuple[str, np.ndarray]]
    ) -> None:
        """Restore from a :meth:`snapshot_items` stream, shard by shard.

        When the stream's recorded router layout matches the live one, each
        shard is restored as soon as its ``shard-NNNN/`` group completes —
        the full manifest is never materialised.  A layout mismatch needs
        the whole snapshot to redistribute rows, so the stream is drained
        into :meth:`restore`.
        """
        iterator = iter(items)
        meta: Dict[str, np.ndarray] = {}
        first_shard: Optional[Tuple[str, np.ndarray]] = None
        for key, value in iterator:
            if key.startswith("shard-") and "/" in key:
                first_shard = (key, value)
                break
            meta[key] = value
        self._check_snapshot_backend(meta)
        kind = str(np.asarray(meta["kind"]).item())
        if kind != self._kind:
            raise TrustModelError(
                f"snapshot holds {kind!r} shards, cannot restore into "
                f"{self._kind!r} shards"
            )
        old_router = ShardRouter(
            int(meta["num_shards"][0]), state=meta["router_state"]
        )
        entries = (
            itertools.chain([first_shard], iterator)
            if first_shard is not None
            else iterator
        )
        if not old_router.same_layout(self._router):
            # Re-sharding needs every row before anything is placed; drain
            # the stream and take the materialised path.
            state = dict(meta)
            state.update(entries)
            self.restore(state)
            return
        self._route_cache.clear()
        self._writes += 1
        restored = 0
        current_prefix: Optional[str] = None
        shard_state: Dict[str, np.ndarray] = {}

        def flush() -> None:
            nonlocal restored, shard_state
            if current_prefix is None:
                return
            index = int(current_prefix[len("shard-"):])
            if not 0 <= index < len(self._shards):
                raise TrustModelError(
                    f"snapshot prefix {current_prefix!r} out of range for "
                    f"{len(self._shards)} shards"
                )
            self._shards[index].restore(shard_state)
            restored += 1
            shard_state = {}

        for key, value in entries:
            if not (key.startswith("shard-") and "/" in key):
                continue  # trailing manifest entry
            prefix, _, inner = key.partition("/")
            if prefix != current_prefix:
                flush()
                current_prefix = prefix
            shard_state[inner] = value
        flush()
        if restored != len(self._shards):
            raise TrustModelError(
                f"snapshot stream restored {restored} shards, "
                f"backend has {len(self._shards)}"
            )
        self._shard_updates = [0] * len(self._shards)

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        self._check_snapshot_backend(state)
        kind = str(np.asarray(state["kind"]).item())
        if kind != self._kind:
            raise TrustModelError(
                f"snapshot holds {kind!r} shards, cannot restore into "
                f"{self._kind!r} shards"
            )
        prefixes = [str(prefix) for prefix in state["manifest"]]
        if len(prefixes) != int(state["num_shards"][0]):
            raise TrustModelError(
                f"snapshot manifest lists {len(prefixes)} shards but records "
                f"num_shards={int(state['num_shards'][0])}"
            )
        shard_states: List[Dict[str, np.ndarray]] = []
        for prefix in prefixes:
            marker = prefix + "/"
            shard_states.append(
                {
                    key[len(marker):]: value
                    for key, value in state.items()
                    if key.startswith(marker)
                }
            )
        old_router = ShardRouter(len(shard_states), state=state["router_state"])
        self._route_cache.clear()
        self._writes += 1
        if old_router.same_layout(self._router):
            for shard, shard_state in zip(self._shards, shard_states):
                shard.restore(shard_state)
            self._shard_updates = [0] * len(self._shards)
            return
        self._in_rebalance = True  # a restore is not a load signal
        try:
            self._restore_resharded(old_router, shard_states)
        finally:
            self._in_rebalance = False
            # Re-filing a complaint log goes through record_complaints,
            # which tallies routed units; a restore is not traffic, so the
            # load counters reset *after* the redistribution.
            self._shard_updates = [0] * len(self._shards)

    def _restore_resharded(
        self, old_router: ShardRouter, shard_states: List[Dict[str, np.ndarray]]
    ) -> None:
        """Redistribute a snapshot taken under a different shard layout.

        Handles any layout change: different shard count (more shards than
        peers leaves some shards empty; a single shard absorbs everything)
        or the uneven boundary tables a rebalanced run checkpoints.
        """
        if self._complaint_family:
            self._reshard_complaints(old_router, shard_states)
            return
        states = self._row_states(
            shard_states, len(self._shards), self.shard_index_of
        )
        for shard, shard_state in zip(self._shards, states):
            shard.restore(shard_state)

    def _reshard_complaints(
        self, old_router: ShardRouter, shard_states: List[Dict[str, np.ndarray]]
    ) -> None:
        """Re-file the de-duplicated global complaint log onto the new layout."""
        complaints: List[Complaint] = []
        for index, shard_state in enumerate(shard_states):
            for complainant, accused, timestamp in zip(
                shard_state["complainants"],
                shard_state["accused"],
                shard_state["timestamps"],
            ):
                if old_router.shard_of(str(accused)) == index:
                    complaints.append(
                        Complaint(
                            complainant_id=str(complainant),
                            accused_id=str(accused),
                            timestamp=float(timestamp),
                        )
                    )
        self._shards = tuple(
            self._complaint_shard_from_config(shard_states[0], index)
            for index in range(len(self._shards))
        )
        self.record_complaints(complaints)
