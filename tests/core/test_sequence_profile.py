"""The cached per-sequence state profile against the ExchangeState replay.

``ExchangeSequence.profile`` walks a schedule once; ``ExchangeState`` and
``ExchangeSequence.states()`` are the readable reference model.  These
properties pin the two together bit for bit (signed zeros included), so
swapping the replay for the profile can never move an outcome:

1. every profile column equals the matching state property at every state,
   for planned sequences under every ``PaymentPolicy`` and for hand-built
   ones;
2. both temptation maxima equal the maximum over the replayed states;
3. a mid-schedule over-payment between ``EPSILON`` and the 1e-6 construction
   tolerance raises ``InvalidActionError`` exactly like the replay;
4. ``execute_sequence`` returns the same ``TransactionResult`` as a
   state-stepping reference executor, for every behaviour model, and leaves
   the RNG in the same state.
"""

import dataclasses
import inspect
import random
import struct
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange import ExchangeAction, ExchangeSequence, ExchangeState, Role
from repro.core.goods import Good, GoodsBundle
from repro.core.numeric import EPSILON
from repro.core.planner import PaymentPolicy, plan_exchange
from repro.core.safety import ExchangeRequirements
from repro.exceptions import InvalidActionError
from repro.marketplace.transaction import TransactionResult, execute_sequence
from repro.simulation import behaviors
from repro.simulation.behaviors import (
    BehaviorModel,
    FluctuatingBehavior,
    HonestBehavior,
    OpportunisticBehavior,
    ProbabilisticBehavior,
    RationalDefectorBehavior,
)


def _bits(value):
    """Bit pattern of a float (ints pass through), so -0.0 != 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
amounts = st.one_of(
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=25),
)


@st.composite
def bundles(draw, max_items: int = 6):
    rows = draw(st.lists(st.tuples(amounts, amounts), min_size=1, max_size=max_items))
    return GoodsBundle(
        Good(good_id=f"g{i}", supplier_cost=cost, consumer_value=value)
        for i, (cost, value) in enumerate(rows)
    )


@st.composite
def planned_sequences(draw):
    bundle = draw(bundles())
    low = bundle.total_supplier_cost
    high = max(bundle.total_consumer_value, low)
    price = low + draw(st.floats(min_value=0.0, max_value=1.0)) * (high - low)
    requirements = ExchangeRequirements(
        consumer_accepted_exposure=draw(st.floats(min_value=0.0, max_value=25.0)),
        supplier_accepted_exposure=draw(st.floats(min_value=0.0, max_value=25.0)),
    )
    sequence = plan_exchange(
        bundle, price, requirements, draw(st.sampled_from(list(PaymentPolicy)))
    )
    if sequence is None:
        # Always feasible: both sides accept any exposure.
        sequence = plan_exchange(
            bundle,
            price,
            ExchangeRequirements(
                consumer_accepted_exposure=1e6, supplier_accepted_exposure=1e6
            ),
        )
    assert sequence is not None
    return sequence


@st.composite
def hand_built_sequences(draw):
    bundle = draw(bundles())
    price = draw(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=60.0)))
    weights = (
        draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6))
        if price > 0
        else []
    )
    scale = sum(weights)
    actions = [ExchangeAction.deliver(good) for good in bundle]
    actions += [ExchangeAction.pay(price * weight / scale) for weight in weights]
    return ExchangeSequence(bundle, price, draw(st.permutations(actions)))


sequences = st.one_of(planned_sequences(), hand_built_sequences())

#: One instance of every concrete behaviour model, tuned so each of them
#: actually defects on some drawn schedules.
BEHAVIORS = (
    HonestBehavior(),
    RationalDefectorBehavior(),
    OpportunisticBehavior(threshold=2.0),
    ProbabilisticBehavior(honesty=0.5),
    FluctuatingBehavior(initial_honesty=0.8, later_honesty=0.2, switch_time=50.0),
)


def test_behaviors_cover_every_model():
    concrete = {
        cls
        for _, cls in inspect.getmembers(behaviors, inspect.isclass)
        if issubclass(cls, BehaviorModel) and not inspect.isabstract(cls)
    }
    assert {type(behavior) for behavior in BEHAVIORS} == concrete


# ----------------------------------------------------------------------
# Profile against the replay
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(sequences)
def test_profile_matches_replay_bit_for_bit(sequence):
    states = list(sequence.states())
    profile = sequence.profile
    replay = {
        "supplier_temptation": [s.supplier_temptation for s in states],
        "consumer_temptation": [s.consumer_temptation for s in states],
        "supplier_utility": [s.supplier_utility for s in states],
        "consumer_utility": [s.consumer_utility for s in states],
        "paid": [s.paid for s in states],
        "delivered": [len(s.delivered_ids) for s in states],
    }
    assert set(replay) == set(profile._fields)
    for name, expected in replay.items():
        column = getattr(profile, name)
        assert len(column) == len(sequence) + 1
        assert [_bits(v) for v in column] == [_bits(v) for v in expected], name


@settings(max_examples=300, deadline=None)
@given(sequences)
def test_temptation_maxima_match_replay(sequence):
    states = list(sequence.states())
    assert _bits(sequence.max_supplier_temptation) == _bits(
        max(state.supplier_temptation for state in states)
    )
    assert _bits(sequence.max_consumer_temptation) == _bits(
        max(state.consumer_temptation for state in states)
    )


def test_profile_is_walked_once():
    bundle = GoodsBundle.from_valuations([1.0, 2.0], [2.0, 3.0])
    sequence = ExchangeSequence(
        bundle,
        4.0,
        [
            ExchangeAction.pay(1.0),
            ExchangeAction.deliver("good-0"),
            ExchangeAction.pay(3.0),
            ExchangeAction.deliver("good-1"),
        ],
    )
    assert sequence.profile is sequence.profile


@settings(max_examples=200, deadline=None)
@given(
    price=st.floats(min_value=0.5, max_value=60.0),
    overshoot=st.floats(min_value=2 * EPSILON, max_value=9e-7),
    split=st.floats(min_value=0.1, max_value=0.9),
)
def test_mid_schedule_overpayment_raises_like_the_replay(price, overshoot, split):
    bundle = GoodsBundle.from_valuations([1.0], [2.0])
    first = price * split
    sequence = ExchangeSequence(
        bundle,
        price,
        [
            ExchangeAction.pay(first),
            ExchangeAction.pay(price - first + overshoot),
            ExchangeAction.deliver("good-0"),
        ],
    )
    with pytest.raises(InvalidActionError):
        list(sequence.states())
    with pytest.raises(InvalidActionError):
        sequence.profile
    with pytest.raises(InvalidActionError):
        sequence.max_supplier_temptation
    with pytest.raises(InvalidActionError):
        execute_sequence(sequence, HonestBehavior(), HonestBehavior(), random.Random(0))


# ----------------------------------------------------------------------
# Execution against a state-stepping reference
# ----------------------------------------------------------------------
def _reference_execute(
    sequence: ExchangeSequence,
    supplier_behavior: BehaviorModel,
    consumer_behavior: BehaviorModel,
    rng: random.Random,
    time: float = 0.0,
) -> TransactionResult:
    """Execution by stepping ``ExchangeState.apply`` through the schedule."""
    state = ExchangeState.initial(sequence.bundle, sequence.price)
    defector: Optional[Role] = None
    defection_step: Optional[int] = None
    for step_index, action in enumerate(sequence.actions):
        actor = action.actor
        behavior = supplier_behavior if actor is Role.SUPPLIER else consumer_behavior
        temptation = state.temptation_of(actor)
        if behavior.will_defect(temptation, max(0.0, -temptation), rng, time):
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


@settings(max_examples=300, deadline=None)
@given(
    sequence=sequences,
    supplier_behavior=st.sampled_from(BEHAVIORS),
    consumer_behavior=st.sampled_from(BEHAVIORS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    time=st.floats(min_value=0.0, max_value=100.0),
)
def test_execution_matches_reference_executor(
    sequence, supplier_behavior, consumer_behavior, seed, time
):
    reference_rng = random.Random(seed)
    rng = random.Random(seed)
    expected = _reference_execute(
        sequence, supplier_behavior, consumer_behavior, reference_rng, time
    )
    result = execute_sequence(sequence, supplier_behavior, consumer_behavior, rng, time)
    assert [_bits(v) for v in dataclasses.astuple(result)] == [
        _bits(v) for v in dataclasses.astuple(expected)
    ]
    assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("behavior", BEHAVIORS, ids=lambda b: type(b).__name__)
def test_every_behavior_executes_like_the_reference(behavior):
    """Deterministic sweep: each model on both sides of many schedules."""
    draws = random.Random(7)
    for _ in range(200):
        bundle = GoodsBundle.from_valuations(
            [draws.uniform(0.0, 10.0) for _ in range(4)],
            [draws.uniform(0.0, 12.0) for _ in range(4)],
        )
        price = bundle.total_supplier_cost + draws.random() * max(
            0.0, bundle.total_surplus
        )
        exposure = draws.uniform(0.0, 8.0)
        sequence = plan_exchange(
            bundle,
            price,
            ExchangeRequirements(
                consumer_accepted_exposure=exposure,
                supplier_accepted_exposure=exposure,
            ),
            draws.choice(list(PaymentPolicy)),
        )
        if sequence is None:
            continue
        for supplier_behavior, consumer_behavior in (
            (behavior, HonestBehavior()),
            (HonestBehavior(), behavior),
            (behavior, behavior),
        ):
            seed = draws.getrandbits(32)
            time = draws.uniform(0.0, 100.0)
            reference_rng, rng = random.Random(seed), random.Random(seed)
            expected = _reference_execute(
                sequence, supplier_behavior, consumer_behavior, reference_rng, time
            )
            result = execute_sequence(
                sequence, supplier_behavior, consumer_behavior, rng, time
            )
            assert [_bits(v) for v in dataclasses.astuple(result)] == [
                _bits(v) for v in dataclasses.astuple(expected)
            ]
            assert rng.getstate() == reference_rng.getstate()
