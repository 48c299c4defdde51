"""Exact accounting for the round-trip trader: cash, costs, mark-to-market.

Cash and costs are held in integer micro-currency (1e-6 units) so that
conservation identities can be asserted exactly, with no float drift.  A
fill moves cash by the full fill-price value of the trade: a buy pays the
notional plus the half-spread cost, a sell receives the notional minus it.
Mark-to-market gains are float currency; ``mark_to_market`` values a held
book against a mid move, and books nothing.

The ledger is a running account of two sums, not a value: ``record_fill``
updates it in place in O(1) and returns the same object, so a run's
accounting cost per day does not grow with its length.  Every name bound
to a ledger sees its later updates.

The run kernel books days that all book the same fill amounts, in
micro-currency, so after ``d`` whole days the sums are exact ints,
``cash - d*outflow`` and ``cost + d*day_cost``.  ``first_refused_day``
solves those for the first day on which ``record_fill`` would refuse a
fill, once per run, and ``book_days`` books a run of whole days before it:
the sums end as booking each fill in turn would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

MICRO_PER_UNIT = 10**6
_MICRO_LIMIT = 2**63 - 1  # ledger halts rather than exceeding i64 micro range


class AccountingError(OverflowError):
    """A ledger quantity left the representable micro-currency range."""


def to_micro(amount: float) -> int:
    """Currency to integer micro-currency, rounding half to even."""
    micro = float(np.rint(amount * float(MICRO_PER_UNIT)))  # a Python float compares with the int limit exactly
    if abs(micro) > _MICRO_LIMIT:
        raise AccountingError(f"{amount} does not fit in micro-currency range")
    return int(micro)  # NaN raises here, as round() would


def from_micro(micro: int) -> float:
    return micro / MICRO_PER_UNIT


@dataclass
class Ledger:
    """Running account of two integer sums, updated in place by ``record_fill`` and ``book_days``.

    Operations mutate the ledger they are given, so two names bound to one
    ledger alias the same account.
    """

    cash_micro: int = 0
    cumulative_cost_micro: int = 0

    @property
    def cumulative_cost(self) -> float:
        return from_micro(self.cumulative_cost_micro)


def record_fill(ledger: Ledger, signed_notional: float, cost: float) -> Ledger:
    """Book one fill in place: cash moves by -(notional + cost), cost accrues.

    ``signed_notional`` is the trade value at the fill price (positive =
    buy).  An aggressive fill always pays the cost, whichever the side.
    """
    if cost < 0:
        raise ValueError(f"cost must be >= 0, got {cost}")
    notional_micro = to_micro(signed_notional)
    cost_micro = to_micro(cost)
    cash = ledger.cash_micro - notional_micro - cost_micro
    if abs(cash) > _MICRO_LIMIT:
        raise AccountingError("cash balance left the micro-currency range")
    total_cost = ledger.cumulative_cost_micro + cost_micro
    if total_cost > _MICRO_LIMIT:
        raise AccountingError("cumulative cost left the micro-currency range")
    ledger.cash_micro = cash
    ledger.cumulative_cost_micro = total_cost
    return ledger


def mark_to_market(book_value, mid_prev, mid_now):
    """Gain ``book_value * (mid_now/mid_prev - 1)`` of a held book over a mid move; elementwise over arrays.

    A ``mid_prev`` that is not positive raises ``ValueError`` naming the first.
    """
    bad = ~(np.asarray(mid_prev) > 0)
    if bad.any():
        raise ValueError(f"mid_prev must be positive, got {np.ravel(mid_prev)[bad.argmax()].item()}")
    return book_value * ((mid_now - mid_prev) / mid_prev)


def first_refused_day(ledger: Ledger, notional_micro: list[int], cost_micro: list[int]) -> int | None:
    """The first day, counted from 0, on which ``record_fill`` refuses a fill if every day books the same; None if none.

    Each day books, from the ledger's sums and in order, one fill per pair
    of micro amounts in ``notional_micro`` and ``cost_micro`` (each in
    range, costs >= 0).  A fill is refused where it takes the cash out of the
    micro range or the cost sum past it.
    """
    outflows = list(map(operator.add, notional_micro, cost_micro))
    day_out, day_cost = sum(outflows), sum(cost_micro)
    days = []
    for paid, spent in zip(accumulate(outflows), accumulate(cost_micro)):
        cash, cost = ledger.cash_micro - paid, ledger.cumulative_cost_micro + spent
        # on day d the fill is refused where cash - d*day_out > LIMIT or < -LIMIT, or cost + d*day_cost > LIMIT:
        # where over + d*step > 0 for one of these (over, step)
        for over, step in ((cash - _MICRO_LIMIT, -day_out), (-_MICRO_LIMIT - cash, day_out), (cost - _MICRO_LIMIT, day_cost)):
            if over > 0:
                days.append(0)
            elif step > 0:
                days.append(-over // step + 1)
    return min(days, default=None)


def book_days(ledger: Ledger, days: int, notional_micro: list[int], cost_micro: list[int]) -> None:
    """Book ``days`` whole days into the sums, each one fill per micro amount of ``notional_micro`` and ``cost_micro``.

    The days must come before ``first_refused_day``; the sums then end as
    ``record_fill`` called on each fill in turn would leave them.
    """
    cost_sum = sum(cost_micro)
    ledger.cash_micro -= days * (sum(notional_micro) + cost_sum)
    ledger.cumulative_cost_micro += days * cost_sum
