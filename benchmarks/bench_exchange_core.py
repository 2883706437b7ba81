"""Exchange core — one state walk against the ExchangeState replay.

For every planned exchange the trust-aware scheduler reads both partners'
maximum temptation, then the exchange is executed against the partners'
behaviour models.  The reference model answers all three by replaying the
schedule through ``ExchangeState.apply``, once per question; the runtime
reads one cached :class:`~repro.core.exchange.StateProfile` per sequence.

Method: a fixed, seeded set of planned sequences (4-good bundles from the
community's default margin valuations, split-surplus prices, random
exposures, every payment policy in turn).  Each arm computes "both
temptation maxima plus execution" for every sequence, on fresh sequence
objects so no cached profile carries over between repeats.  Arms are
interleaved, min of repeats, reported as microseconds per exchange.  Both
arms must return identical maxima and ``TransactionResult``s.

Bar: the profile path is at least **2x** faster than the replay.

Scales: **full / default** 4000 sequences x 7 repeats; **smoke**
(``REPRO_BENCH_SMOKE=1``) 400 x 3.  The bar is enforced at both scales.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from _harness import SMOKE, bar, emit, emit_json, run_once, table_metrics

from repro.analysis.tables import Table
from repro.core.exchange import ExchangeSequence, ExchangeState, Role
from repro.core.negotiation import split_surplus_price
from repro.core.planner import PaymentPolicy, plan_exchange
from repro.core.safety import ExchangeRequirements
from repro.core.valuation import MarginValuationModel
from repro.marketplace.transaction import TransactionResult, execute_sequence
from repro.simulation.behaviors import OpportunisticBehavior, ProbabilisticBehavior

if SMOKE:
    SEQUENCES = 400
    REPEATS = 3
else:
    SEQUENCES = 4000
    REPEATS = 7

SEED = 13
BUNDLE_SIZE = 4
MIN_SPEEDUP = 2.0
#: About one exchange in eight stops at a defection with these partners,
#: close to the defection rate of the community scenarios.
SUPPLIER = OpportunisticBehavior(threshold=7.0)
CONSUMER = ProbabilisticBehavior(honesty=0.97)


def _planned_sequences() -> List[ExchangeSequence]:
    rng = random.Random(SEED)
    valuations = MarginValuationModel(
        cost_low=1.0, cost_high=10.0, margin_low=-0.1, margin_high=0.6
    )
    policies = list(PaymentPolicy)
    sequences: List[ExchangeSequence] = []
    while len(sequences) < SEQUENCES:
        bundle = valuations.sample_bundle(rng, BUNDLE_SIZE)
        if not bundle.is_rational_trade:
            continue
        exposure = rng.uniform(0.0, 8.0)
        sequence = plan_exchange(
            bundle,
            split_surplus_price(bundle, supplier_share=0.5).price,
            ExchangeRequirements(
                consumer_accepted_exposure=exposure,
                supplier_accepted_exposure=exposure,
            ),
            policies[len(sequences) % len(policies)],
        )
        if sequence is not None:
            sequences.append(sequence)
    return sequences


def _reference_execute(
    sequence: ExchangeSequence, rng: random.Random
) -> TransactionResult:
    """Execution by stepping ``ExchangeState.apply`` through the schedule."""
    state = ExchangeState.initial(sequence.bundle, sequence.price)
    defector: Optional[Role] = None
    defection_step: Optional[int] = None
    for step_index, action in enumerate(sequence.actions):
        actor = action.actor
        behavior = SUPPLIER if actor is Role.SUPPLIER else CONSUMER
        temptation = state.temptation_of(actor)
        if behavior.will_defect(temptation, max(0.0, -temptation), rng):
            defector, defection_step = actor, step_index
            break
        state = state.apply(action)
    return TransactionResult(
        completed=defector is None,
        defector=defector,
        defection_step=defection_step,
        supplier_payoff=state.supplier_utility,
        consumer_payoff=state.consumer_utility,
        price=sequence.price,
        paid=state.paid,
        goods_delivered=len(state.delivered_ids),
        goods_total=len(sequence.bundle),
    )


def _replay_arm(sequences: List[ExchangeSequence]) -> list:
    rng = random.Random(SEED)
    return [
        (
            max(state.supplier_temptation for state in sequence.states()),
            max(state.consumer_temptation for state in sequence.states()),
            _reference_execute(sequence, rng),
        )
        for sequence in sequences
    ]


def _profile_arm(sequences: List[ExchangeSequence]) -> list:
    rng = random.Random(SEED)
    return [
        (
            sequence.max_supplier_temptation,
            sequence.max_consumer_temptation,
            execute_sequence(sequence, SUPPLIER, CONSUMER, rng),
        )
        for sequence in sequences
    ]


def _fresh(sequences: List[ExchangeSequence]) -> List[ExchangeSequence]:
    """Uncached copies, so every repeat walks each profile anew."""
    return [
        ExchangeSequence(sequence.bundle, sequence.price, sequence.actions)
        for sequence in sequences
    ]


def _measure():
    planned = _planned_sequences()
    best = {"replay": float("inf"), "profile": float("inf")}
    outputs = {}
    for _ in range(REPEATS):
        for name, arm in (("replay", _replay_arm), ("profile", _profile_arm)):
            sequences = _fresh(planned)
            start = time.perf_counter()
            outputs[name] = arm(sequences)
            best[name] = min(best[name], time.perf_counter() - start)
    return {
        "replay_us": best["replay"] / SEQUENCES * 1e6,
        "profile_us": best["profile"] / SEQUENCES * 1e6,
        "speedup": best["replay"] / best["profile"],
        "identical": outputs["replay"] == outputs["profile"],
        "defections": sum(not result.completed for _, _, result in outputs["profile"]),
    }


def build_table() -> Table:
    measured = _measure()
    table = Table(
        title=(
            "Exchange core — both temptation maxima + execution, "
            "{} planned {}-good sequences (min of {})".format(
                SEQUENCES, BUNDLE_SIZE, REPEATS
            )
        ),
        columns=("path", "us per exchange", "speedup"),
    )
    table.add_row("ExchangeState replay", "{:.2f}".format(measured["replay_us"]), "1.00x")
    table.add_row(
        "state profile",
        "{:.2f}".format(measured["profile_us"]),
        "{:.2f}x".format(measured["speedup"]),
    )
    table.meta = measured  # stashed for the assertions below
    return table


def test_exchange_core_profile_speedup(benchmark):
    table = run_once(benchmark, build_table)
    emit("exchange_core", table)
    measured = table.meta
    emit_json(
        "exchange_core",
        dict(
            table_metrics(table),
            sequences=SEQUENCES,
            repeats=REPEATS,
            defections=measured["defections"],
        ),
        bars={
            "identical_results": bar(
                measured["identical"], True, measured["identical"]
            ),
            "profile_speedup": bar(
                round(measured["speedup"], 2),
                MIN_SPEEDUP,
                measured["speedup"] >= MIN_SPEEDUP,
            ),
        },
    )
    # Same maxima and the same TransactionResults on both paths.
    assert measured["identical"]
    # Some exchanges defect, so execution stops mid-schedule on both paths.
    assert measured["defections"] > 0
    assert measured["speedup"] >= MIN_SPEEDUP
