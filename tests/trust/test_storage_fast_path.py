"""The backend fast path must be invisible to results.

Three mechanisms are pinned here:

* **dirty-row score caching** must be *bit-identical* to the uncached
  read path (``beliefs_for`` for the beta family, a fresh median over
  ``metric_values_in_store`` for the complaint backend) on every backend
  kind, sharded and unsharded, under arbitrary interleavings of updates
  and queries — the cache only skips recomputation, never changes it;
* **streaming snapshots** (``snapshot_items``/``restore_items``) must
  round-trip across layouts — shard counts and post-split boundary
  tables may differ between writer and reader — without moving any score;
* the vectorized ``intern_many`` fast path behaves exactly like its
  sequential counterpart.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trust.backend import TrustObservation, create_backend
from repro.trust.backend import _PeerIndex
from repro.trust.sharding import ShardedBackend

KINDS = ("beta", "decay", "complaint")

SUBJECTS = tuple(f"s{i}" for i in range(6))

# One event: (subject index, honest, weight, timestamp, files_complaint).
# Streams are long enough for several write batches, so cached answers are
# read across many invalidations (and the complaint median climbs past 1).
event_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(SUBJECTS) - 1),
        st.booleans(),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=15,
    max_size=50,
)


def _to_observations(stream):
    return [
        TrustObservation(
            observer_id=f"observer-{index % 3}",
            subject_id=SUBJECTS[subject],
            honest=honest,
            timestamp=timestamp,
            weight=weight,
            files_complaint=files_complaint,
        )
        for index, (subject, honest, weight, timestamp, files_complaint) in enumerate(
            stream
        )
    ]


def _build(kind, shards, **params):
    if shards == 1:
        return create_backend(kind, **params)
    return ShardedBackend(kind, shards, **params)


def _uncached_scores(reference, subjects, now):
    """The score formula recomputed from raw evidence, bypassing every cache."""
    if reference.name == "complaint":
        metrics = reference.metrics_for(subjects)
        in_store = reference.metric_values_in_store()
        median = 0.0 if in_store.size == 0 else float(np.median(in_store))
        return reference.scores_from_metrics(metrics, reference=median)
    alpha, beta = reference.beliefs_for(subjects, now=now)
    return alpha / (alpha + beta)


class TestDirtyRowCacheBitIdentity:
    """Warm-cache ``scores_for`` equals the uncached formula after every batch.

    Queries between writes populate the cache, the next write must
    invalidate exactly the touched rows, and (decay) a query at a new
    ``now`` must never serve a score decayed to an older one.  A sharded
    backend's cached per-shard answers are held to the same unsharded
    reference.
    """

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shards", (1, 3))
    @settings(max_examples=40, deadline=None)
    @given(stream=event_streams)
    def test_warm_cache_equals_uncached_formula(self, kind, shards, stream):
        observations = _to_observations(stream)
        # The balanced metric lets complained-about subjects move the
        # community median, so a stale cached median would show.
        params = {"metric_mode": "balanced"} if kind == "complaint" else {}
        cached = _build(kind, shards, **params)
        reference = create_backend(kind, **params)
        for start in range(0, len(observations) + 1, 5):
            batch = observations[start:start + 5]
            cached.update_many(batch)
            reference.update_many(batch)
            latest = max((o.timestamp for o in observations[:start + 5]), default=0.0)
            for now in (latest, None, latest + 25.0, latest):
                for subjects in (SUBJECTS, SUBJECTS[:2]):
                    # Twice: the first read fills the cache, the second hits it.
                    for _ in range(2):
                        assert np.array_equal(
                            cached.scores_for(subjects, now=now),
                            _uncached_scores(reference, subjects, now),
                        )

    def test_decay_cache_tracks_now(self):
        """Changing ``now`` between queries must never serve stale decays."""
        backend = create_backend("decay")
        backend.update_many(
            [
                TrustObservation("o", "s0", True, timestamp=0.0, weight=5.0),
                TrustObservation("o", "s1", False, timestamp=10.0, weight=2.0),
            ]
        )
        subjects = ("s0", "s1", "missing")
        for now in (10.0, 50.0, 50.0, 10.0, 200.0):
            alpha, beta = backend.beliefs_for(subjects, now=now)
            assert np.array_equal(
                backend.scores_for(subjects, now=now), alpha / (alpha + beta)
            )


class TestStreamingSnapshots:
    @pytest.mark.parametrize("kind", KINDS)
    def test_items_match_snapshot(self, kind):
        backend = create_backend(kind)
        backend.update_many(_to_observations([(0, True, 2.0, 1.0, False),
                                              (1, False, 1.0, 2.0, True)]))
        streamed = dict(backend.snapshot_items())
        snapshot = backend.snapshot()
        assert set(streamed) == set(snapshot)
        for key in snapshot:
            assert np.array_equal(
                np.asarray(streamed[key]), np.asarray(snapshot[key])
            ), key

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "source_shards,target_shards", ((1, 1), (4, 4), (4, 2), (2, 4))
    )
    def test_roundtrip_across_layouts(self, kind, source_shards, target_shards):
        observations = _to_observations(
            [(i % len(SUBJECTS), i % 3 != 0, 1.0 + i, float(i), i % 4 == 0)
             for i in range(40)]
        )
        source = _build(kind, source_shards)
        source.update_many(observations)
        target = _build(kind, target_shards)
        target.restore_items(iter(source.snapshot_items()))
        now = 39.0
        assert np.array_equal(
            source.scores_for(SUBJECTS, now=now),
            target.scores_for(SUBJECTS, now=now),
        )
        assert sorted(source.known_subjects()) == sorted(target.known_subjects())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("target_shards", (5, 4, 2))
    def test_roundtrip_from_split_layout(self, kind, target_shards):
        """An uneven post-split layout streams onto even layouts."""
        observations = _to_observations(
            [(i % len(SUBJECTS), i % 3 != 0, 1.0 + i, float(i), i % 4 == 0)
             for i in range(40)]
        )
        source = _build(kind, 4)
        source.update_many(observations)
        source.split_shard(0)
        target = _build(kind, target_shards)
        assert not target.router.same_layout(source.router)
        target.restore_items(iter(source.snapshot_items()))
        now = 39.0
        assert np.array_equal(
            source.scores_for(SUBJECTS, now=now),
            target.scores_for(SUBJECTS, now=now),
        )
        assert sorted(source.known_subjects()) == sorted(target.known_subjects())

    def test_streaming_restore_is_incremental_per_shard(self):
        """Same-layout streaming restore loads one shard at a time."""
        source = _build("beta", 4)
        source.update_many(
            _to_observations([(i % 6, True, 1.0, 0.0, False) for i in range(30)])
        )
        target = _build("beta", 4)

        seen = []

        def spy_stream():
            for key, value in source.snapshot_items():
                seen.append(key)
                yield key, value

        target.restore_items(spy_stream())
        # The stream was actually consumed lazily as a generator (meta first,
        # then shard-prefixed entries, manifest last).
        assert seen[-1] == "manifest"
        assert any(key.startswith("shard-0000/") for key in seen)
        assert np.array_equal(
            source.scores_for(SUBJECTS), target.scores_for(SUBJECTS)
        )


class TestInternMany:
    @settings(max_examples=60, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from([f"p{i}" for i in range(9)]), max_size=40
        )
    )
    def test_matches_sequential_intern(self, names):
        batched = _PeerIndex()
        sequential = _PeerIndex()
        batched_rows = batched.intern_many(names)
        sequential_rows = np.array(
            [sequential.intern(name) for name in names], dtype=np.int64
        )
        assert np.array_equal(batched_rows, sequential_rows.reshape(-1))
        assert batched.names() == sequential.names()

    @settings(max_examples=60, deadline=None)
    @given(
        known=st.lists(st.sampled_from([f"p{i}" for i in range(9)]), max_size=9),
        queries=st.lists(
            st.sampled_from([f"p{i}" for i in range(12)]), max_size=30
        ),
    )
    def test_lookup_many_matches_scalar(self, known, queries):
        index = _PeerIndex()
        index.intern_many(known)
        rows = index.lookup_many(queries)
        expected = np.array(
            [index._ids.get(name, -1) for name in queries], dtype=np.int64
        )
        assert np.array_equal(rows, expected.reshape(-1))
