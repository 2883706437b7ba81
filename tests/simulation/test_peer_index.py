"""The community's ``peer_id -> peer`` index tracks churn exactly.

``CommunitySimulation.peer_by_id`` answers from a dict built at
construction and rebuilt after every churn event.  These tests run the two
churn-heavy registry scenarios and check, every round, that the index is
exactly ``{p.peer_id: p for p in simulation.peers}``, that new arrivals
resolve, and that departed ids raise ``SimulationError``.
"""

import pytest

from repro.exceptions import SimulationError
from repro.workloads.registry import build_registered_scenario


def _assert_index_matches(simulation):
    assert simulation._by_id == {p.peer_id: p for p in simulation.peers}


@pytest.mark.parametrize("scenario", ["flash-crowd", "high-churn"])
def test_peer_index_tracks_churn_every_round(scenario):
    simulation = build_registered_scenario(
        scenario, size=16, rounds=10, seed=3
    ).simulation()
    _assert_index_matches(simulation)
    arrived, departed, rounds = [], [], []
    apply_churn = simulation._apply_churn
    flush_observations = simulation._flush_observations

    def checked_churn(round_index):
        event = apply_churn(round_index)
        _assert_index_matches(simulation)
        if event is not None:
            for peer_id in event.arrived:
                assert simulation.peer_by_id(peer_id).peer_id == peer_id
            for peer_id in event.departed:
                with pytest.raises(SimulationError):
                    simulation.peer_by_id(peer_id)
            arrived.extend(event.arrived)
            departed.extend(event.departed)
        return event

    def checked_flush(round_outcomes, timestamp):
        flush_observations(round_outcomes, timestamp)
        _assert_index_matches(simulation)
        rounds.append(timestamp)

    simulation._apply_churn = checked_churn
    simulation._flush_observations = checked_flush
    simulation.run()

    assert len(rounds) == simulation.config.rounds
    assert arrived and departed, "scenario produced no churn"
    _assert_index_matches(simulation)
    for peer_id in departed:
        with pytest.raises(SimulationError):
            simulation.peer_by_id(peer_id)
    assert [p.peer_id for p in simulation.departed_peers] == departed


def test_unknown_peer_raises():
    simulation = build_registered_scenario("high-churn", size=6, rounds=1).simulation()
    with pytest.raises(SimulationError, match="unknown peer"):
        simulation.peer_by_id("nobody")
