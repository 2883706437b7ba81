"""Multi-worker shard distribution: one process per trust shard.

The paper's reputation system is distributed by construction — trust data
lives on many peers, not in one address space — yet
:class:`~repro.trust.sharding.ShardedBackend` executes every shard inside
the calling process, so the GIL caps the whole trust pipeline at one core.
:class:`WorkerShardedBackend` lifts the same sharded layout across process
boundaries: each shard lives in its own ``multiprocessing`` worker and the
parent keeps only the router, so writes fan out over the transport and run
concurrently across cores while queries scatter/gather into caller order.

The deployment reuses the three mechanisms the sharded layer already has,
unchanged, as its distribution protocol:

* the per-shard ``shard-NNNN/*`` snapshot manifest is the checkpoint and
  handoff format — a worker checkpoints by streaming its manifest through
  the parent, and a :class:`~repro.trust.sharding.RebalancePolicy` split
  becomes a worker handoff (the hot worker snapshots, freshly spawned
  workers restore the successor states, the atomic router-table swap is
  the cutover);
* the ``(origin, seq)`` journal/digest machinery of
  :mod:`repro.simulation.repair` is the crash-recovery wire format — with
  ``recovery=True`` the parent journals every write batch per shard, and a
  killed worker is healed by respawning it from its last checkpoint
  manifest and gossip-backfilling exactly the journal entries the
  checkpoint digest does not cover, until
  :attr:`WorkerShardedBackend.effective_delivery_ratio` returns to 1.0;
* the :class:`~repro.distributed.transport.ShardTransport` interface keeps
  the medium pluggable — ``transport="process"`` uses pipes to real worker
  processes, ``transport="loopback"`` runs the identical protocol against
  in-process threads whose messages still round-trip through pickle (the
  test harness; nothing in the protocol precludes a socket transport).

Score invisibility is non-negotiable and holds by construction: batches are
partitioned by the same router, applied per shard in the same order, and
gathered back into caller order, so a distributed same-seed run is
bit-identical to the in-process sharded run.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
import traceback
import weakref
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.distributed.transport import (
    PipeTransport,
    ShardTransport,
    loopback_pair,
)
from repro.exceptions import TrustModelError
from repro.trust.aggregation import validate_witness_matrix
from repro.trust.backend import (
    ComplaintTrustBackend,
    TrustBackend,
    TrustObservation,
    create_backend,
)
from repro.trust.beta import BetaBelief
from repro.trust.evidence import Complaint
from repro.trust.sharding import (
    RebalancePolicy,
    ShardedBackend,
    ShardRouter,
    _matrix_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.repair import (
        Digest,
        EvidenceEntry,
        EvidenceJournal,
        SequenceTracker,
    )


def _repair():
    """The crash-recovery wire-format module, imported lazily.

    ``repro.simulation`` imports back into the trust package (its peers
    construct trust backends), so pulling :mod:`repro.simulation.repair` in
    at import time would close an import cycle through whichever package
    the process happens to import first.  Recovery machinery is only
    needed at runtime; by then every package involved is fully initialised.
    """
    from repro.simulation import repair

    return repair


__all__ = [
    "WORKER_TRANSPORTS",
    "WorkerCrashError",
    "HomeRowFilter",
    "WorkerShardProxy",
    "WorkerShardedBackend",
]

#: Transport media selectable for a worker deployment.
WORKER_TRANSPORTS = ("process", "loopback")

_EMPTY_DIGEST: Digest = (0, frozenset())


class RemoteWorkerTraceback(Exception):
    """Carrier for a worker-side traceback, chained onto re-raised errors.

    Tracebacks do not survive pickling, so a worker error used to arrive
    at the parent with its stack silently dropped.  The worker now stamps
    the formatted traceback onto the exception before sending, and the
    parent re-raises ``from`` this carrier so the worker-side stack shows
    up in the chained report.
    """

    def __str__(self) -> str:
        return "worker-side traceback:\n" + str(self.args[0])


def _stamp_remote_traceback(exc: BaseException) -> BaseException:
    """Attach the formatted traceback before the exception crosses the wire."""
    try:
        exc._remote_traceback = "".join(  # type: ignore[attr-defined]
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    except (AttributeError, TypeError):  # slots-only or exotic exceptions
        pass
    return exc


def _raise_remote(exc: BaseException) -> "NoReturn":
    """Re-raise a worker-sent exception, chaining its remote traceback."""
    remote = None
    try:
        remote = exc.__dict__.pop("_remote_traceback", None)
    except AttributeError:  # no __dict__ (slots-only exception)
        pass
    if remote is not None:
        raise exc from RemoteWorkerTraceback(remote)
    raise exc


class WorkerCrashError(TrustModelError):
    """A shard's worker is gone (crashed, killed, or its transport broke).

    Without ``recovery=True`` any operation touching the dead shard raises
    this; with recovery enabled, writes keep accumulating in the parent's
    journal and :meth:`WorkerShardedBackend.heal_workers` repairs the
    partition.
    """


class HomeRowFilter:
    """Picklable "is this agent homed in shard N" predicate.

    The in-process sharded backend restricts complaint shards with a
    closure over its live router; a closure cannot cross a pipe, so worker
    shards get this self-contained equivalent built from the router's
    serialisable boundary state.  The frozen layout stays correct across
    later splits because a split only moves keys *off the split shard* —
    every other shard's home range is untouched, and the split shard itself
    is replaced by successors carrying fresh filters for the new layout.
    """

    def __init__(
        self,
        num_shards: int,
        state: Optional[np.ndarray],
        home: int,
    ):
        self._num_shards = num_shards
        self._state = state
        self._home = home
        self._router = ShardRouter(num_shards, state=state)
        self._cache: Dict[str, int] = {}

    @property
    def home(self) -> int:
        return self._home

    def __call__(self, agent_id: str) -> bool:
        index = self._cache.get(agent_id)
        if index is None:
            index = self._cache[agent_id] = self._router.shard_of(agent_id)
        return index == self._home

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "num_shards": self._num_shards,
            "state": self._state,
            "home": self._home,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(**state)  # type: ignore[misc]


# ----------------------------------------------------------------------
# Wire codecs: columnar batches pickle an order of magnitude faster than
# lists of frozen dataclass instances, and the parent's packing cost is
# what serialises the otherwise-parallel write path.
# ----------------------------------------------------------------------
def _pack_observations(
    observations: Sequence[TrustObservation],
) -> Tuple[List[str], List[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    count = len(observations)
    observers = [o.observer_id for o in observations]
    subjects = [o.subject_id for o in observations]
    honest = np.fromiter((o.honest for o in observations), dtype=bool, count=count)
    times = np.fromiter(
        (o.timestamp for o in observations), dtype=np.float64, count=count
    )
    weights = np.fromiter(
        (o.weight for o in observations), dtype=np.float64, count=count
    )
    filed = np.fromiter(
        (
            -1 if o.files_complaint is None else int(o.files_complaint)
            for o in observations
        ),
        dtype=np.int64,
        count=count,
    )
    return observers, subjects, honest, times, weights, filed


def _unpack_observations(payload: Tuple) -> List[TrustObservation]:
    observers, subjects, honest, times, weights, filed = payload
    return [
        TrustObservation(
            observer_id=observer,
            subject_id=subject,
            honest=is_honest,
            timestamp=timestamp,
            weight=weight,
            files_complaint=None if files < 0 else bool(files),
        )
        for observer, subject, is_honest, timestamp, weight, files in zip(
            observers,
            subjects,
            honest.tolist(),
            times.tolist(),
            weights.tolist(),
            filed.tolist(),
        )
    ]


def _pack_complaints(
    complaints: Sequence[Complaint],
) -> Tuple[List[str], List[str], np.ndarray]:
    return (
        [c.complainant_id for c in complaints],
        [c.accused_id for c in complaints],
        np.fromiter(
            (c.timestamp for c in complaints),
            dtype=np.float64,
            count=len(complaints),
        ),
    )


def _unpack_complaints(payload: Tuple) -> List[Complaint]:
    complainants, accused, timestamps = payload
    return [
        Complaint(
            complainant_id=complainant, accused_id=accused_id, timestamp=timestamp
        )
        for complainant, accused_id, timestamp in zip(
            complainants, accused, timestamps.tolist()
        )
    ]


# ----------------------------------------------------------------------
# Worker side: a message loop hosting one inner backend.
# ----------------------------------------------------------------------
_WRITE_DECODERS = {
    "update_many": _unpack_observations,
    "record_complaints": _unpack_complaints,
}

#: Fused complaint-family query paths: the parent computes the global
#: median reference once and each shard maps its own metrics through the
#: scoring/decision rule in a single round trip (two RPCs fused into one).
_COMPOSITES = {
    "ping": lambda backend: None,
    "len": lambda backend: len(backend),  # type: ignore[arg-type]
    "metric_scores": lambda backend, subjects, reference: backend.scores_from_metrics(
        backend.metrics_for(subjects), reference
    ),
    "metric_decisions": (
        lambda backend, subjects, reference: backend.decisions_from_metrics(
            backend.metrics_for(subjects), reference
        )
    ),
    "witness_scores": (
        lambda backend, subjects, matrix, discounts, reference: (
            backend.scores_from_metrics(
                backend.witness_metrics_for(subjects, matrix, discounts), reference
            )
        )
    ),
}


def _apply_write(backend: TrustBackend, method: str, payload: Tuple) -> int:
    decoder = _WRITE_DECODERS.get(method)
    if decoder is None:
        raise TrustModelError(f"unknown worker write op {method!r}")
    batch = decoder(payload)
    getattr(backend, method)(batch)
    return len(batch)


def _dispatch(backend: TrustBackend, method: str, args: Tuple) -> Any:
    composite = _COMPOSITES.get(method)
    if composite is not None:
        return composite(backend, *args)
    return getattr(backend, method)(*args)


def _worker_main(transport: ShardTransport, kind: str, params: Dict[str, Any]) -> None:
    """Serve one shard over ``transport`` until told to stop (or cut off).

    Writes are fire-and-forget: the parent never waits for them, which is
    what lets a scattered batch run on every worker concurrently.  A write
    failure is held and surfaced on the next synchronous call, after which
    the worker keeps serving.  Calls and snapshot streams reply in FIFO
    order — the only ordering the proxy relies on.
    """
    try:
        backend = create_backend(kind, **params)
    except Exception as exc:  # constructor errors surface at the parent
        try:
            transport.send(("err", _stamp_remote_traceback(exc)))
        except (BrokenPipeError, OSError):
            pass
        transport.close()
        return
    meta: Dict[str, Any] = {
        "complaint_family": isinstance(backend, ComplaintTrustBackend)
    }
    if meta["complaint_family"]:
        meta["tolerance_factor"] = backend.tolerance_factor  # type: ignore[attr-defined]
        meta["metric_mode"] = backend.metric_mode  # type: ignore[attr-defined]
    pending_error: Optional[Exception] = None
    # Worker-local op tallies shipped to the parent on demand via the
    # ``__stats__`` pseudo-call (see WorkerShardedBackend.worker_stats).
    stats: Dict[str, int] = {
        "writes": 0,
        "write_units": 0,
        "calls": 0,
        "snapshots": 0,
    }
    try:
        transport.send(("ready", meta))
        while True:
            try:
                message = transport.recv()
            except EOFError:
                break
            op = message[0]
            if op == "write":
                if pending_error is None:
                    try:
                        units = _apply_write(backend, message[1], message[2])
                    except Exception as exc:
                        pending_error = _stamp_remote_traceback(exc)
                    else:
                        stats["writes"] += 1
                        stats["write_units"] += units
            elif op == "call":
                if message[1] == "__stats__":
                    # Telemetry probe: must not consume a held write error
                    # (the error belongs to the next *real* call).
                    payload = dict(stats)
                    payload["pending_error"] = 1 if pending_error else 0
                    transport.send(("ok", payload))
                    continue
                if pending_error is not None:
                    error, pending_error = pending_error, None
                    transport.send(("err", error))
                    continue
                stats["calls"] += 1
                try:
                    result = _dispatch(backend, message[1], message[2])
                except Exception as exc:
                    transport.send(("err", _stamp_remote_traceback(exc)))
                else:
                    transport.send(("ok", result))
            elif op == "snap":
                stats["snapshots"] += 1
                try:
                    for key, value in backend.snapshot_items():
                        transport.send(("item", key, value))
                except Exception as exc:
                    transport.send(("err", _stamp_remote_traceback(exc)))
                transport.send(("end",))
            elif op == "stop":
                transport.send(("bye",))
                break
            else:
                transport.send(
                    ("err", TrustModelError(f"unknown worker op {op!r}"))
                )
    except (BrokenPipeError, OSError):
        pass  # parent went away; nothing left to serve
    finally:
        transport.close()


def _worker_entry(connection: Any, kind: str, params: Dict[str, Any]) -> None:
    """Top-level process target (spawn-safe: importable, picklable args)."""
    _worker_main(PipeTransport(connection), kind, params)


def _tracker_from_digest(digest: "Digest") -> "SequenceTracker":
    tracker = _repair().SequenceTracker()
    tracker.contiguous = digest[0]
    tracker.extras = set(digest[1])
    return tracker


def _stop_proxies(registry: List["WorkerShardProxy"]) -> None:
    for proxy in list(registry):
        proxy.stop()
    registry.clear()


# ----------------------------------------------------------------------
# Parent side: a TrustBackend facade over one remote shard.
# ----------------------------------------------------------------------
class WorkerShardProxy(TrustBackend):
    """The parent-side handle of one shard-hosting worker.

    Presents the ``TrustBackend`` interface (plus the complaint-family
    extras the sharded wrapper needs) by translating calls into transport
    messages.  Writes are asynchronous sends; reads are synchronous
    request/reply pairs, with the two-phase :meth:`ask`/:meth:`result`
    split exposed so the owning backend can scatter a query to every
    worker before collecting any reply.
    """

    name = "worker-shard"

    def __init__(
        self,
        transport: ShardTransport,
        runner: Any,
        label: str,
        spawn_params: Dict[str, Any],
        journaling: bool = False,
    ):
        self._transport = transport
        self.runner = runner
        self.label = label
        self.spawn_params = spawn_params
        self.dead = False
        self.restrict_filter: Optional[HomeRowFilter] = None
        # Telemetry only: perf_counter stamps of outstanding ask()s, FIFO
        # with the reply channel.  Empty whenever telemetry is off.  The
        # per-label metric names are precomputed here so the hot RPC path
        # never builds strings per call (TEL001).
        self._pending: "deque[float]" = deque()
        self._rpc_gauge_metric = "worker.rpc.in_flight_max." + label
        self._rpc_span_metric = "worker.rpc.round_trip." + label
        # Recovery bookkeeping (populated only when journaling is on): the
        # journal holds every write batch ever routed here, ``applied``
        # tracks which of them the live worker has provably received, and
        # the checkpoint pair is the durable baseline a respawn starts from.
        self.journal: Optional["EvidenceJournal"] = (
            _repair().EvidenceJournal() if journaling else None
        )
        self.applied: Optional["SequenceTracker"] = (
            _repair().SequenceTracker() if journaling else None
        )
        self.seq = 0
        self.checkpoint_manifest: Optional[Dict[str, np.ndarray]] = None
        self.checkpoint_digest: Digest = _EMPTY_DIGEST
        reply = self._recv()
        if reply[0] == "err":
            self.stop()
            _raise_remote(reply[1])
        if reply[0] != "ready":
            self.stop()
            raise TrustModelError(
                f"worker {label!r} sent {reply[0]!r} instead of the ready handshake"
            )
        meta = reply[1]
        self.complaint_family: bool = bool(meta["complaint_family"])
        self._tolerance_factor = meta.get("tolerance_factor")
        self._metric_mode = meta.get("metric_mode")

    # -- liveness and transport plumbing --------------------------------
    def alive(self) -> bool:
        """Whether the worker looks up (cheap check, no message exchange)."""
        if self.dead:
            return False
        runner = self.runner
        if runner is not None and not runner.is_alive():
            return False
        return True

    def mark_dead(self) -> None:
        """Note the worker's death; roll ``applied`` back to the checkpoint.

        Send success only proves a batch reached the pipe buffer, not the
        worker; once the worker is dead, the checkpoint digest is the only
        thing provably applied, so everything past it goes back into the
        repairable gap.
        """
        if self.dead:
            return
        self.dead = True
        if self.applied is not None:
            self.applied = _tracker_from_digest(self.checkpoint_digest)

    def _crash(self, cause: Optional[BaseException]) -> WorkerCrashError:
        self.mark_dead()
        error = WorkerCrashError(f"worker {self.label!r} is down")
        error.__cause__ = cause
        return error

    def _send(self, message: Tuple) -> None:
        if self.dead:
            raise self._crash(None)
        try:
            self._transport.send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise self._crash(exc)

    def _recv(self) -> Tuple:
        if self.dead:
            raise self._crash(None)
        try:
            return self._transport.recv()
        except (EOFError, OSError) as exc:
            raise self._crash(exc)

    # -- two-phase request/reply ----------------------------------------
    def ask(self, method: str, *args: Any) -> None:
        """Send a request without waiting (phase one of a parallel gather)."""
        self._send(("call", method, args))
        telemetry = self.telemetry
        if telemetry.enabled:
            self._pending.append(time.perf_counter())  # repro: allow(DET001) — RPC latency stamp, telemetry timings section only
            telemetry.count("worker.rpc.calls")
            telemetry.gauge_max(self._rpc_gauge_metric, len(self._pending))

    def result(self) -> Any:
        """Collect the reply of the oldest outstanding :meth:`ask`."""
        reply = self._recv()
        if self._pending:
            started = self._pending.popleft()
            self.telemetry.observe_seconds(
                self._rpc_span_metric,
                time.perf_counter() - started,  # repro: allow(DET001) — RPC latency stamp, telemetry timings section only
            )
        tag = reply[0]
        if tag == "ok":
            return reply[1]
        if tag == "err":
            _raise_remote(reply[1])
        raise TrustModelError(f"unexpected worker reply {tag!r}")

    def call(self, method: str, *args: Any) -> Any:
        self.ask(method, *args)
        return self.result()

    # -- writes (fire-and-forget, journaled under recovery) -------------
    def _write(self, method: str, payload: Tuple) -> None:
        seq = None
        if self.journal is not None:
            self.seq += 1
            seq = self.seq
            self.journal.add(
                _repair().EvidenceEntry(
                    origin_id=self.label,
                    seq=seq,
                    recipient_id=self.label,
                    kind=method,
                    payload=payload,
                    emitted_at=0.0,
                )
            )
        if self.dead:
            if self.journal is None:
                raise self._crash(None)
            return  # journaled; heal_workers() will backfill it
        try:
            self._transport.send(("write", method, payload))
        except (BrokenPipeError, EOFError, OSError) as exc:
            if self.journal is None:
                raise self._crash(exc)
            self.mark_dead()
            return
        if self.applied is not None and seq is not None:
            self.applied.add(seq)

    def replay(self, entry: EvidenceEntry) -> None:
        """Re-send one journaled write batch (the gossip-backfill push)."""
        self._send(("write", entry.kind, entry.payload))
        if self.applied is not None:
            self.applied.add(entry.seq)

    def update_many(self, observations: Sequence[TrustObservation]) -> None:
        if not observations:
            return
        self._write("update_many", _pack_observations(observations))

    def record_complaints(self, complaints: Sequence[Complaint]) -> None:
        if not complaints:
            return
        self._write("record_complaints", _pack_complaints(complaints))

    def file_complaint(self, complaint: Complaint) -> None:
        self.record_complaints((complaint,))

    # -- reads ------------------------------------------------------------
    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        return self.call("scores_for", subject_ids, now)

    def trust_decisions(
        self,
        subject_ids: Sequence[str],
        threshold: float = 0.5,
        now: Optional[float] = None,
    ) -> np.ndarray:
        return self.call("trust_decisions", subject_ids, threshold, now)

    def aggregate_witness_reports(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
        now: Optional[float] = None,
    ) -> np.ndarray:
        return self.call(
            "aggregate_witness_reports",
            subject_ids,
            witness_belief_matrix,
            discount_vector,
            now,
        )

    def known_subjects(self) -> Tuple[str, ...]:
        return tuple(self.call("known_subjects"))

    def row_count(self) -> int:
        return int(self.call("row_count"))

    def belief(self, subject_id: str, now: Optional[float] = None) -> BetaBelief:
        return self.call("belief", subject_id, now)

    def observation_count(self, subject_id: str) -> int:
        return int(self.call("observation_count", subject_id))

    # -- complaint-family surface ----------------------------------------
    @property
    def tolerance_factor(self) -> float:
        return self._tolerance_factor  # type: ignore[return-value]

    @property
    def metric_mode(self) -> str:
        return self._metric_mode  # type: ignore[return-value]

    def restrict_rows(self, row_filter: HomeRowFilter) -> None:
        self.restrict_filter = row_filter
        self.call("restrict_rows", row_filter)

    def metrics_for(self, subject_ids: Sequence[str]) -> np.ndarray:
        return self.call("metrics_for", subject_ids)

    def metric_values_in_store(self) -> np.ndarray:
        return self.call("metric_values_in_store")

    def witness_metrics_for(
        self,
        subject_ids: Sequence[str],
        witness_belief_matrix: np.ndarray,
        discount_vector: np.ndarray,
    ) -> np.ndarray:
        return self.call(
            "witness_metrics_for",
            subject_ids,
            witness_belief_matrix,
            discount_vector,
        )

    def scores_from_metrics(
        self, metrics: np.ndarray, reference: float
    ) -> np.ndarray:
        return self.call("scores_from_metrics", metrics, reference)

    def decisions_from_metrics(
        self, metrics: np.ndarray, reference: float
    ) -> np.ndarray:
        return self.call("decisions_from_metrics", metrics, reference)

    def reference_metric(self) -> float:
        return float(self.call("reference_metric"))

    def counts(self, agent_id: str) -> Tuple[int, int]:
        return tuple(self.call("counts", agent_id))  # type: ignore[return-value]

    def complaints_about(self, agent_id: str) -> Sequence[Complaint]:
        return self.call("complaints_about", agent_id)

    def complaints_by(self, agent_id: str) -> Sequence[Complaint]:
        return self.call("complaints_by", agent_id)

    def known_agents(self) -> Sequence[str]:
        return self.call("known_agents")

    def all_complaints(self) -> Tuple[Complaint, ...]:
        return tuple(self.call("all_complaints"))

    def __len__(self) -> int:
        return int(self.call("len"))

    # -- persistence ------------------------------------------------------
    def snapshot_items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Stream the worker's manifest without materialising it here.

        Pending writes are applied first (the stream request rides the same
        FIFO channel), so the manifest is consistent with everything sent
        before it.  Abandoning the generator early drains the remaining
        stream to keep the channel in sync.
        """
        self._send(("snap",))
        finished = False
        try:
            while True:
                reply = self._recv()
                tag = reply[0]
                if tag == "end":
                    finished = True
                    return
                if tag == "err":
                    _raise_remote(reply[1])
                yield reply[1], reply[2]
        finally:
            if not finished and not self.dead:
                # Abandoned stream: drain to the end marker so the FIFO
                # channel stays in sync for the next caller.  Only channel
                # death is survivable here (EXC001) — the proxy is already
                # marked dead by _recv, and any other error must surface.
                try:
                    while self._recv()[0] != "end":
                        pass
                except (WorkerCrashError, EOFError, OSError):
                    pass

    def snapshot(self) -> Dict[str, np.ndarray]:
        return dict(self.snapshot_items())

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        self.call("restore", state)

    # -- shutdown ---------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Tell the worker to exit and release the transport (idempotent)."""
        if not self.dead:
            try:
                self._transport.send(("stop",))
                if self._transport.poll(timeout):
                    self._transport.recv()  # the "bye"
            except (BrokenPipeError, EOFError, OSError):
                pass
        self.dead = True
        try:
            self._transport.close()
        except OSError:
            pass
        runner = self.runner
        if runner is not None:
            runner.join(timeout)
            if runner.is_alive() and hasattr(runner, "terminate"):
                runner.terminate()
                runner.join(timeout)

    def describe(self) -> str:
        return f"worker-shard({self.label})"


# ----------------------------------------------------------------------
# The distributed backend
# ----------------------------------------------------------------------
class WorkerShardedBackend(ShardedBackend):
    """A :class:`ShardedBackend` whose shards live in worker processes.

    Same interface, same routing, same snapshot format and — by
    construction — the same scores as the in-process sharded backend; the
    difference is purely *where* the shards execute.  ``update_many`` /
    ``record_complaints`` partition a batch exactly as the in-process
    wrapper does and hand each bucket to its home worker as an
    asynchronous message, so the per-shard numpy work runs concurrently
    across cores; queries scatter in one pass (every worker computes its
    partition simultaneously) and gather replies back into caller order.

    Parameters beyond :class:`ShardedBackend`'s:

    transport:
        ``"process"`` (real worker processes over pipes) or ``"loopback"``
        (in-process threads over the pickling loopback — the deterministic
        test medium).
    recovery:
        Journal every write batch per shard so a crashed worker can be
        healed: :meth:`checkpoint` stores each worker's manifest and the
        digest of what it provably covers, :meth:`heal_workers` respawns
        dead workers from their manifests and gossip-backfills the journal
        entries the digest misses, and :attr:`effective_delivery_ratio`
        reports the journal coverage of the live fleet (1.0 = fully
        healed).

    Use as a context manager (or call :meth:`close`) to stop the workers
    deterministically; a garbage-collected backend shuts its fleet down
    via a finalizer as a backstop.
    """

    def __init__(
        self,
        kind: str,
        num_shards: int,
        router: Optional[ShardRouter] = None,
        rebalance: Optional[RebalancePolicy] = None,
        transport: str = "process",
        recovery: bool = False,
        **shard_params: object,
    ):
        if transport not in WORKER_TRANSPORTS:
            raise TrustModelError(
                f"worker transport must be one of {WORKER_TRANSPORTS}, "
                f"got {transport!r}"
            )
        self._transport_kind = transport
        self._recovery = bool(recovery)
        self._spawn_counter = itertools.count()
        self._last_worker_stats: Dict[str, Dict[str, int]] = {}
        self._healed_total = 0
        self._proxy_registry: List[WorkerShardProxy] = []
        self._finalizer = weakref.finalize(
            self, _stop_proxies, self._proxy_registry
        )
        if transport == "process":
            methods = multiprocessing.get_all_start_methods()
            self._mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
        else:
            self._mp_context = None
        super().__init__(
            kind, num_shards, router=router, rebalance=rebalance, **shard_params
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def transport_kind(self) -> str:
        return self._transport_kind

    @property
    def recovery(self) -> bool:
        return self._recovery

    def _create_shard(self, **overrides: object) -> TrustBackend:
        params = dict(self._shard_params)
        params.update(overrides)
        label = f"worker-{next(self._spawn_counter):04d}"
        proxy = self._spawn(label, params)
        if self.telemetry.enabled:
            proxy.bind_telemetry(self.telemetry)
        self._proxy_registry.append(proxy)
        return proxy

    def _spawn(self, label: str, params: Dict[str, object]) -> WorkerShardProxy:
        if self._transport_kind == "loopback":
            parent_end, worker_end = loopback_pair()
            runner: Any = threading.Thread(
                target=_worker_main,
                args=(worker_end, self._kind, params),
                name=label,
                daemon=True,
            )
            runner.start()
            transport: ShardTransport = parent_end
        else:
            parent_connection, child_connection = self._mp_context.Pipe()
            runner = self._mp_context.Process(
                target=_worker_entry,
                args=(child_connection, self._kind, params),
                name=label,
                daemon=True,
            )
            runner.start()
            child_connection.close()
            transport = PipeTransport(parent_connection)
        return WorkerShardProxy(
            transport, runner, label, dict(params), journaling=self._recovery
        )

    def _detect_complaint_family(self) -> bool:
        return bool(self._shards[0].complaint_family)  # type: ignore[attr-defined]

    def _restrict_one(self, shard: TrustBackend, home: int) -> None:
        shard.restrict_rows(  # type: ignore[attr-defined]
            HomeRowFilter(
                self._router.num_shards,
                self._router.state(),
                home,
            )
        )

    def _reap(self) -> None:
        """Stop workers whose shards were replaced (split/restore handoffs)."""
        live = {id(shard) for shard in self._shards}
        retired = [
            proxy for proxy in self._proxy_registry if id(proxy) not in live
        ]
        if not retired:
            return
        self._proxy_registry[:] = [
            proxy for proxy in self._proxy_registry if id(proxy) in live
        ]
        for proxy in retired:
            proxy.stop()

    def close(self) -> None:
        """Stop every worker and release the transports (idempotent)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "WorkerShardedBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def flush(self) -> None:
        """Barrier: every write sent so far has been applied by its worker.

        Also surfaces any held worker-side write error.  Benchmarks (and
        anything timing the write path) must flush before reading the
        clock — the scatter itself returns before the workers finish.
        Under telemetry the barrier doubles as the stats ship-back point:
        each flush refreshes the parent-side cache of worker op tallies.
        """
        self._scatter_gather(
            [(shard, "ping", ()) for shard in self._shards]
        )
        if self.telemetry.enabled:
            self._last_worker_stats = self.worker_stats()

    def worker_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-worker op tallies fetched over the transport (live workers).

        Each worker counts writes, write units, synchronous calls, and
        snapshot streams on its side of the pipe; the ``__stats__``
        pseudo-call ships them back without perturbing held write errors.
        Dead workers are skipped (their last shipped tallies survive in
        the telemetry cache refreshed by :meth:`flush`).
        """
        stats: Dict[str, Dict[str, int]] = {}
        for proxy in self._shards:
            if not proxy.alive():  # type: ignore[attr-defined]
                continue
            try:
                stats[proxy.label] = dict(  # type: ignore[attr-defined]
                    proxy.call("__stats__")  # type: ignore[attr-defined]
                )
            except (WorkerCrashError, TrustModelError):
                continue
        return stats

    def bind_telemetry(self, registry: Any) -> None:
        super().bind_telemetry(registry)
        if registry.enabled:
            registry.add_view("worker", self._worker_view)

    def _worker_view(self) -> Dict[str, float]:
        """Registry view: fleet shape plus the last shipped worker tallies."""
        view: Dict[str, float] = {
            "workers": len(self._shards),
            "healed_workers": self._healed_total,
        }
        for label, stats in sorted(self._last_worker_stats.items()):
            for key, value in stats.items():
                view[label + "." + key] = value
        if self._recovery:
            view["journal_entries"] = sum(
                len(proxy.journal)  # type: ignore[attr-defined]
                for proxy in self._shards
            )
            view["journal_applied"] = sum(
                len(proxy.applied)  # type: ignore[attr-defined]
                for proxy in self._shards
            )
        return view

    def _config_parts(self) -> List[str]:
        parts = [
            part
            for part in super()._config_parts()
            if part not in ("workers 0", "recovery off")
        ]
        parts.append(
            f"workers {len(self._shards)} ({self._transport_kind})"
        )
        parts.append("recovery " + ("on" if self._recovery else "off"))
        return parts

    # ------------------------------------------------------------------
    # Parallel scatter/gather plumbing
    # ------------------------------------------------------------------
    def _scatter_gather(
        self, requests: Sequence[Tuple[WorkerShardProxy, str, Tuple]]
    ) -> List[Any]:
        """Issue every request before collecting any reply.

        Failures are collected, not fast-raised: every successfully asked
        worker still gets its reply consumed, so one crashed or erroring
        shard cannot leave another proxy's channel holding a stale reply.
        """
        error: Optional[BaseException] = None
        asked: List[WorkerShardProxy] = []
        for proxy, method, args in requests:
            if error is not None:
                break
            try:
                proxy.ask(method, *args)
                asked.append(proxy)
            except WorkerCrashError as exc:
                error = exc
        results: List[Any] = []
        for proxy in asked:
            try:
                results.append(proxy.result())
            except BaseException as exc:
                if error is None:
                    error = exc
                results.append(None)
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------
    # Reads: column-partitioned scatter, parallel workers, ordered gather
    # ------------------------------------------------------------------
    def scores_for(
        self, subject_ids: Sequence[str], now: Optional[float] = None
    ) -> np.ndarray:
        out = np.zeros(len(subject_ids))
        if not len(subject_ids):
            return out
        groups = self._partition(subject_ids)
        if self._complaint_family:
            reference = self.reference_metric()
            requests = [
                (self._shards[index], "metric_scores", (subjects, reference))
                for index, _, subjects in groups
            ]
        else:
            requests = [
                (self._shards[index], "scores_for", (subjects, now))
                for index, _, subjects in groups
            ]
        for (_, positions, _), scores in zip(
            groups, self._scatter_gather(requests)
        ):
            out[positions] = scores
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
        groups = self._partition(subject_ids)
        if self._complaint_family:
            reference = self.reference_metric()
            requests = [
                (self._shards[index], "metric_decisions", (subjects, reference))
                for index, _, subjects in groups
            ]
        else:
            requests = [
                (
                    self._shards[index],
                    "trust_decisions",
                    (subjects, threshold, now),
                )
                for index, _, subjects in groups
            ]
        for (_, positions, _), decisions in zip(
            groups, self._scatter_gather(requests)
        ):
            out[positions] = decisions
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
        groups = self._partition(subject_ids)
        if self._complaint_family:
            reference = self.reference_metric()
            requests = [
                (
                    self._shards[index],
                    "witness_scores",
                    (
                        subjects,
                        _matrix_columns(matrix, positions),
                        discounts,
                        reference,
                    ),
                )
                for index, positions, subjects in groups
            ]
        else:
            requests = [
                (
                    self._shards[index],
                    "aggregate_witness_reports",
                    (subjects, _matrix_columns(matrix, positions), discounts, now),
                )
                for index, positions, subjects in groups
            ]
        for (_, positions, _), scores in zip(
            groups, self._scatter_gather(requests)
        ):
            out[positions] = scores
        return out

    def known_subjects(self) -> Tuple[str, ...]:
        partitions = self._scatter_gather(
            [(shard, "known_subjects", ()) for shard in self._shards]
        )
        return tuple(
            subject for partition in partitions for subject in partition
        )

    def reference_metric(self) -> float:
        self._require_complaint_family()
        version, cached = self._reference_cache
        if version == self._writes:
            return cached
        values = np.concatenate(
            self._scatter_gather(
                [(shard, "metric_values_in_store", ()) for shard in self._shards]
            )
        )
        reference = float(np.median(values)) if values.size else 0.0
        self._reference_cache = (self._writes, reference)
        return reference

    def shard_row_counts(self) -> np.ndarray:
        return np.array(
            self._scatter_gather(
                [(shard, "row_count", ()) for shard in self._shards]
            ),
            dtype=np.int64,
        )

    def __len__(self) -> int:
        return sum(
            self._scatter_gather([(shard, "len", ()) for shard in self._shards])
        )

    def describe(self) -> str:
        suffix = ""
        if self._rebalance is not None:
            suffix += f", rebalance@{self._rebalance.threshold:g}"
        if self._recovery:
            suffix += ", recovery"
        return (
            f"workers({len(self._shards)}x{self._kind}, "
            f"{self._transport_kind}{suffix})"
        )

    # ------------------------------------------------------------------
    # Splits are worker handoffs; restores re-baseline the fleet
    # ------------------------------------------------------------------
    def split_shard(self, index: int) -> int:
        new_index = super().split_shard(index)
        # The hot worker was replaced by two freshly restored successors;
        # retire it.  Under recovery the successors' restored state is
        # their new durable baseline (their journals start empty).
        self._reap()
        if self._recovery:
            for proxy in (self._shards[index], self._shards[-1]):
                self._rebaseline(proxy)  # type: ignore[arg-type]
        return new_index

    def restore(self, state: Dict[str, np.ndarray]) -> None:
        super().restore(state)
        self._reap()
        self._rebaseline_all()

    def restore_items(
        self, items: Sequence[Tuple[str, np.ndarray]]
    ) -> None:
        super().restore_items(items)
        self._reap()
        self._rebaseline_all()

    def _rebaseline_all(self) -> None:
        if not self._recovery:
            return
        for proxy in self._shards:
            self._rebaseline(proxy)  # type: ignore[arg-type]

    def _rebaseline(self, proxy: WorkerShardProxy) -> None:
        """Reset a worker's recovery baseline to its current state."""
        proxy.journal = _repair().EvidenceJournal()
        proxy.applied = _repair().SequenceTracker()
        proxy.seq = 0
        proxy.checkpoint_manifest = dict(proxy.snapshot_items())
        proxy.checkpoint_digest = _EMPTY_DIGEST

    # ------------------------------------------------------------------
    # Crash recovery: checkpoint, heal, delivery accounting
    # ------------------------------------------------------------------
    def _require_recovery(self) -> None:
        if not self._recovery:
            raise TrustModelError(
                "worker recovery is disabled; construct the backend with "
                "recovery=True"
            )

    def _poll_liveness(self) -> None:
        for proxy in self._shards:
            if not proxy.alive():  # type: ignore[attr-defined]
                proxy.mark_dead()  # type: ignore[attr-defined]

    @property
    def effective_delivery_ratio(self) -> float:
        """Fraction of journaled write batches the live fleet has applied.

        1.0 in steady state; drops when a worker dies (everything past its
        last checkpoint goes back into the repairable gap) and returns to
        1.0 once :meth:`heal_workers` has drained the backfill.
        """
        if not self._recovery:
            return 1.0
        self._poll_liveness()
        total = sum(len(proxy.journal) for proxy in self._shards)  # type: ignore[attr-defined]
        if total == 0:
            return 1.0
        applied = sum(len(proxy.applied) for proxy in self._shards)  # type: ignore[attr-defined]
        return applied / total

    def checkpoint(self) -> None:
        """Store every worker's manifest as its durable recovery baseline."""
        self._require_recovery()
        for proxy in self._shards:
            if not proxy.alive():  # type: ignore[attr-defined]
                raise WorkerCrashError(
                    f"cannot checkpoint: worker {proxy.label!r} is down"  # type: ignore[attr-defined]
                )
            digest = proxy.applied.digest()  # type: ignore[attr-defined]
            proxy.checkpoint_manifest = dict(proxy.snapshot_items())  # type: ignore[attr-defined]
            proxy.checkpoint_digest = digest  # type: ignore[attr-defined]

    def heal_workers(self) -> List[int]:
        """Respawn every dead worker and gossip-backfill its journal gap.

        Each dead shard's replacement restores the last checkpoint
        manifest, then receives — in ``(origin, seq)`` order — exactly the
        journal entries the checkpoint digest does not cover (the
        anti-entropy exchange of :mod:`repro.simulation.repair`, with the
        parent's journal as the up-to-date peer).  Returns the healed
        shard indices; afterwards :attr:`effective_delivery_ratio` is 1.0
        and scores are bit-identical to a run that never crashed.
        """
        self._require_recovery()
        self._poll_liveness()
        healed: List[int] = []
        shards = list(self._shards)
        for index, proxy in enumerate(shards):
            if not proxy.dead:  # type: ignore[attr-defined]
                continue
            shards[index] = self._respawn_from(proxy)  # type: ignore[arg-type]
            healed.append(index)
        if healed:
            self._shards = tuple(shards)
            self._writes += 1  # replayed evidence invalidates cached references
            self._healed_total += len(healed)
            self._reap()
        return healed

    def _respawn_from(self, proxy: WorkerShardProxy) -> WorkerShardProxy:
        replacement = self._spawn(proxy.label, dict(proxy.spawn_params))
        if self.telemetry.enabled:
            replacement.bind_telemetry(self.telemetry)
        self._proxy_registry.append(replacement)
        if proxy.restrict_filter is not None:
            replacement.restrict_rows(proxy.restrict_filter)
        if proxy.checkpoint_manifest is not None:
            replacement.restore(proxy.checkpoint_manifest)
        replacement.journal = proxy.journal
        replacement.seq = proxy.seq
        replacement.applied = _tracker_from_digest(proxy.checkpoint_digest)
        replacement.checkpoint_manifest = proxy.checkpoint_manifest
        replacement.checkpoint_digest = proxy.checkpoint_digest
        assert proxy.journal is not None
        for entry in proxy.journal.entries_missing_from(
            {proxy.label: proxy.checkpoint_digest}
        ):
            replacement.replay(entry)
        return replacement
