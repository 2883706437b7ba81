"""Sharded-versus-unsharded equivalence for every backend kind.

The contract of :class:`~repro.trust.sharding.ShardedBackend` is that
partitioning the peer-id space is invisible: updates, score queries,
trust decisions, witness aggregation and snapshot round-trips (including
re-sharding onto a different shard count) all produce *bit-identical*
results to the plain backend.  These tests pin that contract for the
``beta``, ``complaint`` and ``decay`` kinds at 1, 3 and 8 shards, on the
default equal-width ``range`` layout, the uneven layout that live splits
leave behind (``range-split``) and a layout where every shard owns two
disjoint intervals (``range-interleaved``), each passed as a ready router
object, plus the empty-shard and single-peer-shard edges.  Live
splitting and rebalancing have their own contract in
``test_rebalance.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrustModelError
from repro.trust import (
    ShardedBackend,
    ShardRouter,
    TrustObservation,
    create_backend,
)
from repro.trust.backend import BetaTrustBackend, ComplaintTrustBackend
from repro.trust.evidence import Complaint

KINDS = ("beta", "complaint", "decay")
SHARD_COUNTS = (1, 3, 8)


def _observation_stream(n_observations=240, n_peers=24, seed=11):
    """A deterministic evidence stream with honest, dishonest and spurious-
    complaint observations (so all three backend kinds get real work)."""
    rng = random.Random(seed)
    peers = [f"peer-{index:03d}" for index in range(n_peers)]
    observations = []
    for index in range(n_observations):
        observer, subject = rng.sample(peers, 2)
        honest = rng.random() < 0.6
        observations.append(
            TrustObservation(
                observer_id=observer,
                subject_id=subject,
                honest=honest,
                timestamp=float(index // 20),
                weight=rng.uniform(0.5, 4.0),
                files_complaint=True if honest and rng.random() < 0.15 else None,
            )
        )
    return peers, observations


def _feed(backend, observations, batch=30):
    for start in range(0, len(observations), batch):
        backend.update_many(observations[start:start + batch])


#: Router layouts under test: equal-width intervals, a router grown to the
#: shard count by successive splits from one shard (uneven widths), and
#: ``2 * shards`` equal intervals owned round-robin (non-contiguous homes).
LAYOUTS = ("range", "range-split", "range-interleaved")


def _router(layout, shards):
    """A fresh router for ``layout`` at ``shards`` shards."""
    if layout == "range":
        return ShardRouter(shards)
    if layout == "range-interleaved":
        even = ShardRouter(2 * shards).state()
        return ShardRouter(shards, state=np.array([even[0], even[1] % shards]))
    router = ShardRouter(1)
    while router.num_shards < shards:
        router.split(router.num_shards // 2)
    return router


def _query_ids(peers):
    # Mix known subjects, strangers and duplicates (gather must preserve
    # caller order, not just partition order).
    return list(peers) + ["stranger-a", "stranger-b", peers[0], peers[-1]]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("router", LAYOUTS)
class TestShardedEquivalence:
    def test_scores_and_decisions_bit_identical(self, kind, shards, router):
        peers, observations = _observation_stream()
        plain = create_backend(kind)
        sharded = ShardedBackend(kind, shards, router=_router(router, shards))
        _feed(plain, observations)
        _feed(sharded, observations)
        queries = _query_ids(peers)
        for now in (None, 6.0, 50.0):
            np.testing.assert_array_equal(
                plain.scores_for(queries, now=now),
                sharded.scores_for(queries, now=now),
            )
        np.testing.assert_array_equal(
            plain.trust_decisions(queries), sharded.trust_decisions(queries)
        )
        assert sorted(plain.known_subjects()) == sorted(sharded.known_subjects())
        assert plain.scores_snapshot() == sharded.scores_snapshot()

    def test_witness_aggregation_bit_identical(self, kind, shards, router):
        peers, observations = _observation_stream()
        plain = create_backend(kind)
        sharded = ShardedBackend(kind, shards, router=_router(router, shards))
        _feed(plain, observations)
        _feed(sharded, observations)
        queries = _query_ids(peers)
        generator = np.random.default_rng(5)
        if kind == "complaint":
            matrix = generator.integers(
                0, 6, size=(4, len(queries), 2)
            ).astype(np.float64)
        else:
            matrix = generator.uniform(1.0, 8.0, size=(4, len(queries), 2))
        discounts = generator.uniform(0.0, 1.0, size=4)
        np.testing.assert_array_equal(
            plain.aggregate_witness_reports(queries, matrix, discounts),
            sharded.aggregate_witness_reports(queries, matrix, discounts),
        )
        # The empty report set degrades to scores_for on both sides.
        empty = np.zeros((0, len(queries), 2))
        np.testing.assert_array_equal(
            plain.aggregate_witness_reports(queries, empty, np.zeros(0)),
            sharded.aggregate_witness_reports(queries, empty, np.zeros(0)),
        )

    def test_snapshot_round_trip(self, kind, shards, router):
        peers, observations = _observation_stream()
        sharded = ShardedBackend(kind, shards, router=_router(router, shards))
        _feed(sharded, observations)
        state = sharded.snapshot()
        assert all(isinstance(value, np.ndarray) for value in state.values())
        assert len(state["manifest"]) == shards
        assert int(state["num_shards"][0]) == shards

        restored = ShardedBackend(kind, shards, router=_router(router, shards))
        restored.restore(state)
        queries = _query_ids(peers)
        np.testing.assert_array_equal(
            sharded.scores_for(queries), restored.scores_for(queries)
        )
        # A restored backend keeps learning identically.
        update = TrustObservation(peers[1], peers[0], False, timestamp=99.0)
        sharded.update(update)
        restored.update(update)
        np.testing.assert_array_equal(
            sharded.scores_for(queries), restored.scores_for(queries)
        )

    def test_restore_into_different_shard_count(self, kind, shards, router):
        """Re-sharding via the manifest must not drift any score."""
        peers, observations = _observation_stream()
        sharded = ShardedBackend(kind, shards, router=_router(router, shards))
        _feed(sharded, observations)
        state = sharded.snapshot()
        queries = _query_ids(peers)
        expected = sharded.scores_for(queries)
        for new_shards in (1, 2, 5):
            resharded = ShardedBackend(kind, new_shards, router=_router(router, new_shards))
            resharded.restore(state)
            np.testing.assert_array_equal(expected, resharded.scores_for(queries))
            np.testing.assert_array_equal(
                sharded.trust_decisions(queries),
                resharded.trust_decisions(queries),
            )


class TestEdges:
    @pytest.mark.parametrize("kind", KINDS)
    def test_mostly_empty_shards(self, kind):
        """More shards than peers: empty shards answer and snapshot cleanly."""
        sharded = ShardedBackend(kind, 8)
        observations = [
            TrustObservation("a", "b", False, timestamp=1.0),
            TrustObservation("b", "c", True, timestamp=2.0),
        ]
        sharded.update_many(observations)
        occupied = {sharded.shard_index_of(peer) for peer in ("a", "b", "c")}
        assert len(occupied) < 8
        scores = sharded.scores_for(("a", "b", "c", "nobody"))
        assert scores.shape == (4,)
        restored = ShardedBackend(kind, 8)
        restored.restore(sharded.snapshot())
        np.testing.assert_array_equal(
            scores, restored.scores_for(("a", "b", "c", "nobody"))
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_peer_per_shard(self, kind):
        plain = create_backend(kind)
        sharded = ShardedBackend(kind, 2)
        observations = [
            TrustObservation("solo-1", "solo-2", False, timestamp=1.0),
            TrustObservation("solo-2", "solo-1", True, timestamp=2.0),
        ]
        plain.update_many(observations)
        sharded.update_many(observations)
        np.testing.assert_array_equal(
            plain.scores_for(("solo-1", "solo-2")),
            sharded.scores_for(("solo-1", "solo-2")),
        )

    def test_empty_query_batches(self):
        sharded = ShardedBackend("beta", 3)
        assert sharded.scores_for(()).shape == (0,)
        assert sharded.trust_decisions(()).shape == (0,)
        sharded.update_many(())


class TestRouters:
    def test_router_is_deterministic_and_in_range(self):
        router = ShardRouter(5)
        again = ShardRouter(5)
        for index in range(200):
            shard = router.shard_of(f"peer-{index}")
            assert 0 <= shard < 5
            assert shard == again.shard_of(f"peer-{index}")

    def test_range_router_partitions_key_space_contiguously(self):
        from repro.trust.sharding import shard_key

        router = ShardRouter(4)
        keys_by_shard = {}
        for index in range(400):
            peer = f"peer-{index}"
            keys_by_shard.setdefault(router.shard_of(peer), []).append(
                shard_key(peer)
            )
        assert len(keys_by_shard) == 4
        # Contiguity: every shard's key interval is disjoint and ordered.
        bounds = sorted(
            (min(keys), max(keys), shard)
            for shard, keys in keys_by_shard.items()
        )
        for (_, high, _), (low, _, _) in zip(bounds, bounds[1:]):
            assert high < low

    def test_router_shard_count_mismatch_rejected(self):
        with pytest.raises(TrustModelError):
            ShardedBackend("beta", 4, router=ShardRouter(3))


class TestFactoryAndGuards:
    def test_create_backend_shards_knob(self):
        sharded = create_backend("beta", shards=4, prior_alpha=2.0)
        assert isinstance(sharded, ShardedBackend)
        assert sharded.num_shards == 4
        assert sharded.kind == "beta"
        assert isinstance(create_backend("beta", shards=1), BetaTrustBackend)
        with pytest.raises(TrustModelError):
            create_backend("beta", shards=0)

    def test_nested_sharding_rejected(self):
        with pytest.raises(TrustModelError):
            ShardedBackend("beta", 2, shards=2)

    def test_shared_store_behind_shards_rejected(self):
        # One store behind every shard would double-count cross-shard
        # complaints; per-shard stores are the only supported layout.
        from repro.trust.complaint import LocalComplaintStore

        with pytest.raises(TrustModelError):
            create_backend("complaint", shards=4, store=LocalComplaintStore())

    def test_snapshot_kind_mismatch_rejected(self):
        sharded = ShardedBackend("beta", 2)
        sharded.update(TrustObservation("a", "b", True))
        state = sharded.snapshot()
        other = ShardedBackend("decay", 2)
        with pytest.raises(TrustModelError):
            other.restore(state)

    def test_complaint_protocol_guarded_on_beta_family(self):
        sharded = ShardedBackend("beta", 2)
        with pytest.raises(TrustModelError):
            sharded.file_complaint(Complaint("a", "b"))
        with pytest.raises(TrustModelError):
            sharded.reference_metric()


class TestShardedComplaintStore:
    """A sharded complaint backend is a drop-in community complaint store."""

    def test_complaint_store_protocol(self):
        sharded = ShardedBackend("complaint", 3, metric_mode="balanced")
        sharded.file_complaint(Complaint("victim", "cheat", timestamp=1.0))
        sharded.file_complaint(Complaint("victim", "cheat", timestamp=1.0))
        sharded.file_complaint(Complaint("other", "cheat", timestamp=2.0))
        assert len(sharded.complaints_about("cheat")) == 3
        assert len(sharded.complaints_by("victim")) == 2
        assert set(sharded.known_agents()) == {"victim", "cheat", "other"}
        assert sharded.counts("cheat") == (3, 0)
        assert sharded.metric_mode == "balanced"
        assert sharded.tolerance_factor == 4.0

    def test_all_complaints_deduplicates_cross_shard_copies(self):
        plain = ComplaintTrustBackend()
        sharded = ShardedBackend("complaint", 4)
        rng = random.Random(3)
        peers = [f"agent-{index}" for index in range(12)]
        filed = []
        for index in range(60):
            complainant, accused = rng.sample(peers, 2)
            complaint = Complaint(complainant, accused, timestamp=float(index))
            filed.append(complaint)
            plain.file_complaint(complaint)
            sharded.file_complaint(complaint)
        # Identical duplicate filings are legitimate evidence: file one twice.
        duplicate = filed[0]
        plain.file_complaint(duplicate)
        sharded.file_complaint(duplicate)
        assert sorted(
            (c.complainant_id, c.accused_id, c.timestamp)
            for c in sharded.all_complaints()
        ) == sorted(
            (c.complainant_id, c.accused_id, c.timestamp)
            for c in plain.all_complaints()
        )

    def test_global_reference_matches_unsharded(self):
        peers, observations = _observation_stream(seed=23)
        plain = create_backend("complaint")
        sharded = ShardedBackend("complaint", 5)
        _feed(plain, observations)
        _feed(sharded, observations)
        assert plain.reference_metric() == sharded.reference_metric()


@settings(deadline=None, max_examples=25)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.booleans(),
            st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    ),
    shards=st.integers(min_value=2, max_value=6),
)
def test_property_sharded_beta_matches_plain(data, shards):
    """Any observation stream: sharded beta scores equal plain bit for bit."""
    observations = [
        TrustObservation(
            observer_id=f"w-{observer}",
            subject_id=f"p-{subject}",
            honest=honest,
            timestamp=float(index),
            weight=weight,
        )
        for index, (observer, subject, honest, weight) in enumerate(data)
    ]
    plain = create_backend("beta")
    sharded = ShardedBackend("beta", shards)
    plain.update_many(observations)
    sharded.update_many(observations)
    queries = [f"p-{index}" for index in range(10)]
    np.testing.assert_array_equal(
        plain.scores_for(queries), sharded.scores_for(queries)
    )
