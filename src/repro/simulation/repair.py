"""Anti-entropy evidence repair: journals, digests, and repair policies.

The async evidence plane (:mod:`repro.simulation.evidence`) loses messages
permanently: a sampled drop is hard information loss, not slower
convergence.  This module turns loss back into a latency problem.  Every
piece of evidence entering the async plane is wrapped in an
:class:`EvidenceEntry` stamped with a per-origin sequence number, so the
whole community shares one global naming scheme ``(origin_peer, seq)`` for
evidence units.  Transient request/reply traffic (witness polling) is
numbered from its own per-origin counter, apart from the journaled
evidence, so every origin's journaled entries are numbered densely
``1, 2, 3, ...`` and a witness message never leaves a permanent hole in
anyone's journal.  On top of that identity three mechanisms compose:

* an append-only :class:`EvidenceJournal` per peer storing every entry the
  peer has originated or learned of, summarised by a compact per-origin
  digest (highest contiguous sequence number + explicit extras beyond it,
  near-empty once a peer has caught up), so two peers can compare what
  they know in one small message, and the comparison walks only the delta
  between the two digests;
* a pluggable :class:`RepairPolicy` — ``off`` (today's fire-and-forget),
  ``retransmit`` (recipients ack every delivered entry, origins re-send
  unacked entries with capped exponential backoff), and ``gossip``
  (periodic anti-entropy rounds: each peer exchanges digests with
  ``fanout`` random partners and push/pulls the missing entries as batched
  messages) — all repair traffic flows through the same
  :class:`~repro.simulation.network.SimulatedNetwork`, so it pays latency,
  loss and link faults like first-class evidence does;
* idempotent delivery — the plane dedups by ``(origin, seq)`` before
  applying anything to a backend or the complaint store, so repaired
  duplicates never double-count evidence
  (``NetworkCounters.duplicates_suppressed`` counts the copies thrown
  away).

With the policy ``off`` nothing here costs anything: entries still get
sequence numbers (which is what makes the effective-delivery accounting and
the dedup guard exact), but no journal is kept and no repair message is
ever sent — for a given submission stream the plane's wire traffic is
exactly the fire-and-forget traffic it always was.  (The community driver's
async flush granularity did change with this subsystem — per-counterparty
receipt batches instead of one self-addressed batch per peer, so entries
have a real origin to repair from — with identical evidence *content*; the
evidence-plane pinning tests hold.)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Tuple,
)

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evidence imports us)
    from repro.simulation.evidence import EvidencePlane
    from repro.simulation.network import Message

__all__ = [
    "REPAIR_POLICIES",
    "EvidenceEntry",
    "SequenceTracker",
    "EvidenceJournal",
    "RepairPolicy",
    "OffPolicy",
    "RetransmitPolicy",
    "GossipPolicy",
    "create_repair_policy",
]

REPAIR_POLICIES = ("off", "retransmit", "gossip")

#: A per-origin digest: (highest contiguous seq, explicit extras beyond it).
Digest = Tuple[int, frozenset]

#: The digest of an origin a partner has never heard of.
_EMPTY: Digest = (0, frozenset())


@dataclass(frozen=True)
class EvidenceEntry:
    """One immutable unit of evidence on the wire, named ``(origin, seq)``.

    ``origin_id`` is the peer that emitted the entry (the counterparty of an
    interaction for observation batches, the filer for complaints, the
    requester/witness for witness traffic); ``seq`` is assigned from the
    origin's monotone counter, so the pair is a community-wide unique,
    gap-detectable name.  ``transient`` marks request/reply traffic (witness
    polling) that is acked and deduped but never journaled or gossiped —
    a stale witness reply is not evidence worth replicating.  Transient
    entries are numbered from a separate per-origin counter, and their
    :attr:`key` negates the seq so the two numberings never collide.
    """

    origin_id: str
    seq: int
    recipient_id: str
    kind: str
    payload: Any
    emitted_at: float
    transient: bool = False

    @property
    def key(self) -> Tuple[str, int]:
        return (self.origin_id, -self.seq if self.transient else self.seq)


class SequenceTracker:
    """Which sequence numbers of one origin a peer has seen.

    Kept as the highest contiguous prefix (``1..contiguous`` all seen) plus
    an explicit set of extras beyond it; the holes between them are exactly
    what a repair partner needs to fill.  This is the compact form the
    digest messages carry.
    """

    __slots__ = ("contiguous", "extras")

    def __init__(self) -> None:
        self.contiguous = 0
        self.extras: set = set()

    def add(self, seq: int) -> bool:
        """Record ``seq``; returns ``False`` when it was already known."""
        if seq <= self.contiguous or seq in self.extras:
            return False
        if seq == self.contiguous + 1:
            self.contiguous = seq
            while self.contiguous + 1 in self.extras:
                self.contiguous += 1
                self.extras.remove(self.contiguous)
        else:
            self.extras.add(seq)
        return True

    def __contains__(self, seq: int) -> bool:
        return seq <= self.contiguous or seq in self.extras

    def __len__(self) -> int:
        return self.contiguous + len(self.extras)

    def known_seqs(self) -> Iterator[int]:
        """All known sequence numbers in ascending order."""
        yield from range(1, self.contiguous + 1)
        yield from sorted(self.extras)

    def digest(self) -> Digest:
        return (self.contiguous, frozenset(self.extras))

    @staticmethod
    def covers(digest: Digest, seq: int) -> bool:
        """Whether a digest claims knowledge of ``seq``."""
        contiguous, extras = digest
        return seq <= contiguous or seq in extras


class EvidenceJournal:
    """Append-only store of the evidence entries one peer knows about.

    Holds the entries themselves (so the peer can answer pull requests and
    relay third-party evidence onward), keyed ``(origin, seq)``, plus one
    :class:`SequenceTracker` per origin.  Only persistent entries are
    journaled; transient ones are numbered apart and never stored here.
    ``digest()`` summarises the whole journal for an anti-entropy exchange;
    ``entries_missing_from`` / ``is_missing_any`` are the two sides of the
    digest comparison.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, int], EvidenceEntry] = {}
        self._trackers: Dict[str, SequenceTracker] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        return key in self._entries

    def get(self, key: Tuple[str, int]) -> EvidenceEntry:
        return self._entries[key]

    def keys(self) -> Tuple[Tuple[str, int], ...]:
        """Every ``(origin, seq)`` key this journal holds (insertion order)."""
        return tuple(self._entries)

    def add(self, entry: EvidenceEntry) -> bool:
        """Store an entry; returns ``False`` when it was already journaled."""
        return bool(self.add_many((entry,)))

    def add_many(self, entries: Iterable[EvidenceEntry]) -> List[EvidenceEntry]:
        """Store a batch of entries; returns the fresh ones, in batch order.

        Equivalent to calling :meth:`add` on each entry in turn; an entry
        already journaled (or repeated within the batch) is skipped with an
        inline tracker check before any per-entry method call.
        """
        trackers = self._trackers
        stored = self._entries
        fresh: List[EvidenceEntry] = []
        for entry in entries:
            origin = entry.origin_id
            seq = entry.seq
            tracker = trackers.get(origin)
            if tracker is None:
                tracker = trackers[origin] = SequenceTracker()
            elif seq <= tracker.contiguous or seq in tracker.extras:
                continue
            tracker.add(seq)
            stored[(origin, seq)] = entry
            fresh.append(entry)
        return fresh

    def digest(self) -> Dict[str, Digest]:
        """Compact per-origin summary of everything this journal holds."""
        return {
            origin: tracker.digest()
            for origin, tracker in self._trackers.items()
        }

    def entries_missing_from(
        self, their_digest: Mapping[str, Digest]
    ) -> List[EvidenceEntry]:
        """Entries this journal holds that ``their_digest`` does not cover.

        Returned in deterministic ``(origin, seq)`` order — the push half of
        an anti-entropy exchange.
        """
        entries = self._entries
        missing: List[EvidenceEntry] = []
        for origin in sorted(self._trackers):
            tracker = self._trackers[origin]
            their_contiguous, their_extras = their_digest.get(origin, _EMPTY)
            # Everything up to their contiguous prefix is covered, so only
            # the delta beyond it is walked: the rest of our prefix, then
            # our extras (all of which lie above our prefix).
            for seq in range(their_contiguous + 1, tracker.contiguous + 1):
                if seq not in their_extras:
                    missing.append(entries[(origin, seq)])
            for seq in sorted(tracker.extras):
                if seq > their_contiguous and seq not in their_extras:
                    missing.append(entries[(origin, seq)])
        return missing

    def is_missing_any(self, their_digest: Mapping[str, Digest]) -> bool:
        """Whether ``their_digest`` claims entries this journal lacks."""
        for origin, (contiguous, extras) in their_digest.items():
            mine = self._trackers.get(origin)
            if mine is None:
                if contiguous > 0 or extras:
                    return True
                continue
            for seq in range(mine.contiguous + 1, contiguous + 1):
                if seq not in mine.extras:
                    return True
            for seq in extras:
                if seq not in mine:
                    return True
        return False


# ----------------------------------------------------------------------
# Repair policies
# ----------------------------------------------------------------------
class RepairPolicy(abc.ABC):
    """How the evidence plane recovers from lost messages.

    A policy is bound to exactly one :class:`EvidencePlane` and receives the
    plane's lifecycle callbacks; everything it sends goes through
    ``plane.repair_send`` so repair traffic is first-class network traffic
    (it pays latency, loss and faults, and is tallied in
    ``NetworkCounters.repair_messages``).
    """

    #: Registry/CLI name of the policy.
    name = "abstract"
    #: Whether the plane should maintain per-peer evidence journals.
    journaling = False
    #: Whether recipients acknowledge delivered entries.
    acking = False

    def bind(self, plane: "EvidencePlane") -> None:
        self._plane = plane

    # Lifecycle hooks -------------------------------------------------
    def on_emit(self, entry: EvidenceEntry, now: float) -> None:
        """An entry was just sent directly to its recipient."""

    def on_entry_delivered(
        self, entry: EvidenceEntry, holder_id: str, now: float
    ) -> None:
        """A direct copy of ``entry`` reached ``holder_id`` (maybe again)."""

    def on_ack(self, keys: Tuple[Tuple[str, int], ...]) -> None:
        """An acknowledgement for ``keys`` reached the origin."""

    def on_repair_message(self, message: "Message", now: float) -> None:
        """A policy-specific repair message (digest / entry batch) arrived."""

    def on_round(self, now: float) -> None:
        """The plane's clock advanced to ``now`` (once per tick)."""

    def on_peer_departed(self, peer_id: str) -> None:
        """``peer_id`` churned out; drop any state that targets it."""

    def has_pending(self) -> bool:
        """Whether the policy still has repair work to do (drain predicate)."""
        return False


class OffPolicy(RepairPolicy):
    """No repair: lost evidence stays lost (the pre-repair behaviour)."""

    name = "off"


@dataclass
class _PendingRetransmit:
    entry: EvidenceEntry
    deadline: float
    interval: float


class RetransmitPolicy(RepairPolicy):
    """Ack-and-retransmit with capped exponential backoff.

    Every delivered entry is acknowledged back to its origin; the origin
    keeps unacknowledged entries pending and re-sends them whenever their
    deadline passes, doubling the retry interval (``backoff``) up to
    ``max_interval`` (default ``8 x timeout``).  Acks ride the lossy network
    too, so a lost ack produces a duplicate delivery — which the plane's
    ``(origin, seq)`` dedup suppresses and re-acks.
    """

    name = "retransmit"
    acking = True

    def __init__(
        self,
        timeout: float = 2.0,
        backoff: float = 2.0,
        max_interval: float = 0.0,
    ) -> None:
        if timeout <= 0:
            raise SimulationError(f"retransmit timeout must be > 0, got {timeout}")
        if backoff < 1.0:
            raise SimulationError(f"retransmit backoff must be >= 1, got {backoff}")
        self._timeout = timeout
        self._backoff = backoff
        self._max_interval = max_interval if max_interval > 0 else 8.0 * timeout
        self._pending: Dict[Tuple[str, int], _PendingRetransmit] = {}

    def on_emit(self, entry: EvidenceEntry, now: float) -> None:
        self._pending[entry.key] = _PendingRetransmit(
            entry=entry,
            deadline=now + self._timeout,
            interval=self._timeout,
        )

    def on_entry_delivered(
        self, entry: EvidenceEntry, holder_id: str, now: float
    ) -> None:
        self._plane.repair_send(
            holder_id, entry.origin_id, (entry.key,), kind="repair-ack"
        )

    def on_ack(self, keys: Tuple[Tuple[str, int], ...]) -> None:
        for key in keys:
            self._pending.pop(key, None)

    def on_round(self, now: float) -> None:
        # Resend origin by origin, each origin's entries in emission order
        # (``_pending`` is insertion-ordered and the sort is stable).
        for state in sorted(
            self._pending.values(), key=lambda state: state.entry.origin_id
        ):
            if state.deadline > now:
                continue
            self._plane.resend_entry(state.entry)
            state.interval = min(
                state.interval * self._backoff, self._max_interval
            )
            state.deadline = now + state.interval

    def on_peer_departed(self, peer_id: str) -> None:
        # Entries *to* the departed peer can never be delivered and entries
        # *from* it have no one left to drive retries; both are dead state.
        self._pending = {
            key: state
            for key, state in self._pending.items()
            if peer_id not in (state.entry.recipient_id, state.entry.origin_id)
        }

    def has_pending(self) -> bool:
        # Pending state for an already-settled entry is just an ack that has
        # not made it home yet — noise, not unrecovered evidence — so the
        # drain predicate only counts pendings whose entry never reached its
        # destination.
        return any(
            not self._plane.is_settled(state.entry)
            for state in self._pending.values()
        )


class GossipPolicy(RepairPolicy):
    """Periodic anti-entropy: digest exchange plus push/pull of the deltas.

    Every ``period`` ticks each registered peer picks ``fanout`` random
    partners and sends them its journal digest.  A partner that holds
    entries the digest lacks — or is itself missing entries the digest
    claims — answers with one batched ``repair-entries`` message carrying
    its deltas (and its own digest when it wants a push back); the initiator
    then pushes the reverse delta.  Entries spread epidemically through
    relays, so evidence reaches its recipient even when every direct path
    keeps failing — and a healed partition backfills through the first
    cross-clique exchange.
    """

    name = "gossip"
    journaling = True

    def __init__(self, period: float = 1.0, fanout: int = 2) -> None:
        if period <= 0:
            raise SimulationError(f"gossip period must be > 0, got {period}")
        if fanout < 1:
            raise SimulationError(f"gossip fanout must be >= 1, got {fanout}")
        self._period = period
        self._fanout = fanout
        self._last_round = 0.0

    def on_round(self, now: float) -> None:
        if now - self._last_round < self._period:
            return
        self._last_round = now
        plane = self._plane
        peer_ids = plane.registered_ids()
        if len(peer_ids) < 2:
            return
        rng = plane.repair_rng
        for peer_id in peer_ids:
            others = [other for other in peer_ids if other != peer_id]
            partners = rng.sample(others, min(self._fanout, len(others)))
            digest = plane.journal_for(peer_id).digest()
            for partner_id in partners:
                plane.repair_send(
                    peer_id, partner_id, (peer_id, digest), kind="repair-digest"
                )

    def on_repair_message(self, message: "Message", now: float) -> None:
        plane = self._plane
        holder_id = message.recipient_id
        if not plane.is_registered(holder_id):
            return  # partner churned out while the message was in flight
        journal = plane.journal_for(holder_id)
        if message.kind == "repair-digest":
            sender_id, their_digest = message.payload
            push = journal.entries_missing_from(their_digest)
            wants_pull = journal.is_missing_any(their_digest)
            if push or wants_pull:
                plane.repair_send(
                    holder_id,
                    sender_id,
                    (
                        holder_id,
                        tuple(push),
                        journal.digest() if wants_pull else None,
                    ),
                    kind="repair-entries",
                )
        elif message.kind == "repair-entries":
            sender_id, entries, their_digest = message.payload
            plane.ingest_entries(holder_id, entries, now)
            if their_digest is not None:
                push_back = journal.entries_missing_from(their_digest)
                if push_back:
                    plane.repair_send(
                        holder_id,
                        sender_id,
                        (holder_id, tuple(push_back), None),
                        kind="repair-entries",
                    )

    def has_pending(self) -> bool:
        # Gossip keeps working exactly while some emitted entry has neither
        # been applied nor written off (its origin's journal still holds it,
        # so anti-entropy will eventually carry it home).
        counters = self._plane.counters
        return counters is not None and counters.missing_entries > 0


def create_repair_policy(
    name: str,
    gossip_period: float = 1.0,
    gossip_fanout: int = 2,
    retransmit_timeout: float = 2.0,
) -> RepairPolicy:
    """Build a repair policy from its registry name and tuning knobs."""
    if name == "off":
        return OffPolicy()
    if name == "retransmit":
        return RetransmitPolicy(timeout=retransmit_timeout)
    if name == "gossip":
        return GossipPolicy(period=gossip_period, fanout=gossip_fanout)
    raise SimulationError(
        f"evidence repair policy must be one of {REPAIR_POLICIES}, got {name!r}"
    )
