"""Exchange state machine: actions, states and sequences.

An exchange between a supplier and a consumer is a sequence of two kinds of
actions:

* ``DELIVER`` — the supplier hands over one item of the goods bundle, and
* ``PAY`` — the consumer transfers a payment chunk of arbitrary size.

The state of the exchange is fully described by the set of goods still to be
delivered and the payment still outstanding.  From the state, the two
quantities the safety analysis revolves around are derived:

* the *supplier's temptation* to defect, ``Vs(remaining) - remaining_payment``
  (positive when the outstanding revenue no longer covers the outstanding
  production cost), and
* the *consumer's temptation* to defect, ``remaining_payment - Vc(remaining)``
  (positive when the outstanding payment exceeds the value still to be
  received).

:class:`ExchangeState` and :meth:`ExchangeSequence.states` are the readable
reference model.  The runtime reads a sequence through its
:class:`StateProfile` instead: one walk over the schedule, computed on first
use and cached, that yields the same quantities for every state bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.goods import Good, GoodsBundle
from repro.core.numeric import EPSILON, approx_eq, non_negative, total
from repro.exceptions import InvalidActionError, InvalidSequenceError

__all__ = [
    "Role",
    "ActionKind",
    "ExchangeAction",
    "ExchangeState",
    "StateProfile",
    "ExchangeSequence",
]


class Role(enum.Enum):
    """The two parties of an exchange."""

    SUPPLIER = "supplier"
    CONSUMER = "consumer"

    @property
    def other(self) -> "Role":
        """The counterparty of this role."""
        return Role.CONSUMER if self is Role.SUPPLIER else Role.SUPPLIER


class ActionKind(enum.Enum):
    """Kind of a single exchange step."""

    DELIVER = "deliver"
    PAY = "pay"


@dataclass(frozen=True)
class ExchangeAction:
    """One step of an exchange: a delivery of a good or a payment chunk."""

    kind: ActionKind
    good_id: Optional[str] = None
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is ActionKind.DELIVER:
            if not self.good_id:
                raise InvalidActionError("DELIVER action requires a good_id")
            if self.amount:
                raise InvalidActionError("DELIVER action must not carry an amount")
        else:
            if self.good_id is not None:
                raise InvalidActionError("PAY action must not carry a good_id")
            if self.amount <= 0:
                raise InvalidActionError(
                    f"PAY action requires a positive amount, got {self.amount}"
                )

    @classmethod
    def deliver(cls, good: "Good | str") -> "ExchangeAction":
        """Create a delivery action for ``good`` (a :class:`Good` or its id)."""
        good_id = good.good_id if isinstance(good, Good) else good
        return cls(kind=ActionKind.DELIVER, good_id=good_id)

    @classmethod
    def pay(cls, amount: float) -> "ExchangeAction":
        """Create a payment action transferring ``amount``."""
        return cls(kind=ActionKind.PAY, amount=float(amount))

    @property
    def actor(self) -> Role:
        """The role that performs this action."""
        return Role.SUPPLIER if self.kind is ActionKind.DELIVER else Role.CONSUMER

    def describe(self) -> str:
        """Human readable one-line description."""
        if self.kind is ActionKind.DELIVER:
            return f"supplier delivers {self.good_id}"
        return f"consumer pays {self.amount:.3f}"


@dataclass(frozen=True)
class ExchangeState:
    """Immutable snapshot of an exchange in progress.

    Attributes
    ----------
    bundle:
        The full goods bundle being traded.
    price:
        The agreed total price ``P``.
    delivered_ids:
        Ids of the goods already delivered.
    paid:
        Total amount already paid by the consumer.
    """

    bundle: GoodsBundle
    price: float
    delivered_ids: FrozenSet[str] = field(default_factory=frozenset)
    paid: float = 0.0

    @classmethod
    def initial(cls, bundle: GoodsBundle, price: float) -> "ExchangeState":
        """The state before any delivery or payment has happened."""
        if price < 0:
            raise InvalidActionError(f"price must be non-negative, got {price}")
        return cls(bundle=bundle, price=float(price))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def remaining_ids(self) -> Tuple[str, ...]:
        """Ids of the goods not yet delivered, in bundle order."""
        return tuple(
            good.good_id
            for good in self.bundle
            if good.good_id not in self.delivered_ids
        )

    @property
    def remaining_goods(self) -> Tuple[Good, ...]:
        """The goods not yet delivered, in bundle order."""
        return tuple(
            good for good in self.bundle if good.good_id not in self.delivered_ids
        )

    @property
    def delivered_goods(self) -> Tuple[Good, ...]:
        """The goods already delivered, in bundle order."""
        return tuple(
            good for good in self.bundle if good.good_id in self.delivered_ids
        )

    @property
    def remaining_payment(self) -> float:
        """Outstanding payment ``r = P - paid`` (never below zero)."""
        return non_negative(self.price - self.paid)

    @property
    def remaining_supplier_cost(self) -> float:
        """``Vs`` of the goods still to be delivered."""
        return total(good.supplier_cost for good in self.remaining_goods)

    @property
    def remaining_consumer_value(self) -> float:
        """``Vc`` of the goods still to be delivered."""
        return total(good.consumer_value for good in self.remaining_goods)

    @property
    def supplier_temptation(self) -> float:
        """How much the supplier gains by defecting right now.

        Positive when the cost of the goods still to be delivered exceeds the
        payment still to be received.
        """
        return self.remaining_supplier_cost - self.remaining_payment

    @property
    def consumer_temptation(self) -> float:
        """How much the consumer gains by defecting right now.

        Positive when the payment still owed exceeds the value of the goods
        still to be received.
        """
        return self.remaining_payment - self.remaining_consumer_value

    @property
    def supplier_utility(self) -> float:
        """The supplier's realised utility so far: payments minus costs."""
        delivered_cost = total(good.supplier_cost for good in self.delivered_goods)
        return self.paid - delivered_cost

    @property
    def consumer_utility(self) -> float:
        """The consumer's realised utility so far: received value minus payments."""
        delivered_value = total(good.consumer_value for good in self.delivered_goods)
        return delivered_value - self.paid

    @property
    def is_complete(self) -> bool:
        """``True`` when every good is delivered and the full price is paid."""
        return len(self.delivered_ids) == len(self.bundle) and approx_eq(
            self.paid, self.price
        )

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def apply(self, action: ExchangeAction) -> "ExchangeState":
        """Return the state reached by performing ``action``.

        Raises :class:`InvalidActionError` when the action is not applicable
        (unknown or already-delivered good, or an over-payment).
        """
        if action.kind is ActionKind.DELIVER:
            assert action.good_id is not None
            if action.good_id not in self.bundle:
                raise InvalidActionError(
                    f"good {action.good_id!r} is not part of the bundle"
                )
            if action.good_id in self.delivered_ids:
                raise InvalidActionError(
                    f"good {action.good_id!r} has already been delivered"
                )
            return replace(
                self, delivered_ids=self.delivered_ids | {action.good_id}
            )
        new_paid = self.paid + action.amount
        if new_paid > self.price + EPSILON:
            raise InvalidActionError(
                f"payment of {action.amount:.3f} exceeds the outstanding amount "
                f"({self.remaining_payment:.3f})"
            )
        return replace(self, paid=min(new_paid, self.price))

    def utility_of(self, role: Role) -> float:
        """Realised utility so far of the given role."""
        if role is Role.SUPPLIER:
            return self.supplier_utility
        return self.consumer_utility

    def temptation_of(self, role: Role) -> float:
        """Defection temptation of the given role in this state."""
        if role is Role.SUPPLIER:
            return self.supplier_temptation
        return self.consumer_temptation


class StateProfile(NamedTuple):
    """Per-state quantities of one schedule, as parallel columns.

    Entry ``i`` of every column describes the state after the first ``i``
    actions (entry 0 is the initial state), and equals the matching
    :class:`ExchangeState` property of ``list(sequence.states())[i]`` bit
    for bit.
    """

    supplier_temptation: Tuple[float, ...]
    consumer_temptation: Tuple[float, ...]
    supplier_utility: Tuple[float, ...]
    consumer_utility: Tuple[float, ...]
    paid: Tuple[float, ...]
    delivered: Tuple[int, ...]


class ExchangeSequence:
    """A complete schedule of deliveries and payments for one exchange.

    The sequence is validated on construction: every good of the bundle must
    be delivered exactly once, every payment must be positive and the
    payments must add up to the agreed price.
    """

    __slots__ = ("_bundle", "_price", "_actions", "_profile")

    def __init__(
        self,
        bundle: GoodsBundle,
        price: float,
        actions: Sequence[ExchangeAction],
    ):
        self._bundle = bundle
        self._price = float(price)
        self._actions: Tuple[ExchangeAction, ...] = tuple(actions)
        self._validate()
        self._profile: Optional[StateProfile] = None

    def _validate(self) -> None:
        if self._price < 0:
            raise InvalidSequenceError(f"price must be >= 0, got {self._price}")
        delivered: List[str] = []
        paid = 0.0
        for action in self._actions:
            if action.kind is ActionKind.DELIVER:
                assert action.good_id is not None
                if action.good_id not in self._bundle:
                    raise InvalidSequenceError(
                        f"sequence delivers unknown good {action.good_id!r}"
                    )
                if action.good_id in delivered:
                    raise InvalidSequenceError(
                        f"sequence delivers good {action.good_id!r} twice"
                    )
                delivered.append(action.good_id)
            else:
                paid += action.amount
        if len(delivered) != len(self._bundle):
            missing = set(self._bundle.good_ids) - set(delivered)
            raise InvalidSequenceError(
                f"sequence does not deliver all goods; missing: {sorted(missing)}"
            )
        if not approx_eq(paid, self._price, eps=1e-6):
            raise InvalidSequenceError(
                f"payments sum to {paid:.6f}, expected the agreed price "
                f"{self._price:.6f}"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def bundle(self) -> GoodsBundle:
        return self._bundle

    @property
    def price(self) -> float:
        return self._price

    @property
    def actions(self) -> Tuple[ExchangeAction, ...]:
        return self._actions

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[ExchangeAction]:
        return iter(self._actions)

    def __repr__(self) -> str:
        return (
            f"ExchangeSequence(n_actions={len(self._actions)}, "
            f"price={self._price:.3f}, goods={len(self._bundle)})"
        )

    @property
    def delivery_order(self) -> Tuple[str, ...]:
        """Good ids in the order they are delivered."""
        return tuple(
            action.good_id  # type: ignore[misc]
            for action in self._actions
            if action.kind is ActionKind.DELIVER
        )

    @property
    def payments(self) -> Tuple[float, ...]:
        """The payment chunks in order."""
        return tuple(
            action.amount
            for action in self._actions
            if action.kind is ActionKind.PAY
        )

    @property
    def num_deliveries(self) -> int:
        return len(self.delivery_order)

    @property
    def num_payments(self) -> int:
        return len(self.payments)

    # ------------------------------------------------------------------
    # State iteration
    # ------------------------------------------------------------------
    def states(self) -> Iterator[ExchangeState]:
        """Yield the initial state and the state after every action."""
        state = ExchangeState.initial(self._bundle, self._price)
        yield state
        for action in self._actions:
            state = state.apply(action)
            yield state

    def final_state(self) -> ExchangeState:
        """The state after the last action (complete by construction)."""
        state = ExchangeState.initial(self._bundle, self._price)
        for action in self._actions:
            state = state.apply(action)
        return state

    @property
    def profile(self) -> StateProfile:
        """The schedule's :class:`StateProfile`, walked once and cached.

        Raises :class:`InvalidActionError` when a payment overshoots the
        price by more than ``EPSILON`` mid-schedule, as
        :meth:`ExchangeState.apply` does (construction only checks the sum
        to within 1e-6).
        """
        if self._profile is None:
            self._profile = self._walk()
        return self._profile

    def _walk(self) -> StateProfile:
        # Mirrors the ExchangeState arithmetic exactly: every sum is a fresh
        # ``total`` over the goods in bundle order (never a running
        # difference), so each column matches the reference replay bit for
        # bit.  The sums only change on deliveries.
        goods = self._bundle.goods
        costs = [good.supplier_cost for good in goods]
        values = [good.consumer_value for good in goods]
        position = {good.good_id: index for index, good in enumerate(goods)}
        is_delivered = [False] * len(goods)
        price = self._price
        paid = 0.0
        delivered = 0
        remaining_cost = total(costs)
        remaining_value = total(values)
        delivered_cost = delivered_value = 0.0
        rows: List[Tuple[float, float, float, float, float, int]] = []
        # ``None`` stands for the initial state, before any action.
        for action in (None, *self._actions):
            if action is None:
                pass
            elif action.kind is ActionKind.DELIVER:
                is_delivered[position[action.good_id]] = True
                delivered += 1
                flags = list(zip(is_delivered, costs, values))
                remaining_cost = total(c for d, c, _ in flags if not d)
                remaining_value = total(v for d, _, v in flags if not d)
                delivered_cost = total(c for d, c, _ in flags if d)
                delivered_value = total(v for d, _, v in flags if d)
            else:
                new_paid = paid + action.amount
                if new_paid > price + EPSILON:
                    raise InvalidActionError(
                        f"payment of {action.amount:.3f} exceeds the outstanding "
                        f"amount ({non_negative(price - paid):.3f})"
                    )
                paid = min(new_paid, price)
            remaining_payment = non_negative(price - paid)
            rows.append(
                (
                    remaining_cost - remaining_payment,
                    remaining_payment - remaining_value,
                    paid - delivered_cost,
                    delivered_value - paid,
                    paid,
                    delivered,
                )
            )
        return StateProfile(*zip(*rows))

    @property
    def max_supplier_temptation(self) -> float:
        """Largest supplier temptation reached anywhere in the schedule."""
        return max(self.profile.supplier_temptation)

    @property
    def max_consumer_temptation(self) -> float:
        """Largest consumer temptation reached anywhere in the schedule."""
        return max(self.profile.consumer_temptation)

    def describe(self) -> str:
        """Multi-line human readable rendering of the schedule."""
        lines = [
            f"Exchange of {len(self._bundle)} goods for {self._price:.3f}",
        ]
        for index, (action, state) in enumerate(
            zip(self._actions, list(self.states())[1:]), start=1
        ):
            lines.append(
                f"  {index:3d}. {action.describe():<40s} "
                f"remaining payment={state.remaining_payment:8.3f}  "
                f"temptation(s)={state.supplier_temptation:8.3f}  "
                f"temptation(c)={state.consumer_temptation:8.3f}"
            )
        return "\n".join(lines)
