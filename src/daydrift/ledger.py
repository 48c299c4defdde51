"""Exact accounting for the round-trip trader: cash, costs, mark-to-market.

Cash and costs are held in integer micro-currency (1e-6 units) so that
conservation identities can be asserted exactly, with no float drift.  A
fill moves cash by the full fill-price value of the trade: a buy pays the
notional plus the half-spread cost, a sell receives the notional minus it.
Mark-to-market gains are float currency; ``mark_to_market`` values a held
book against a mid move, and books nothing.

The ledger is a running account, not a value: ``record_fill`` updates it
in place in O(1) and returns the same object, so a run's accounting cost
per day does not grow with its length.  Every name bound to a ledger sees
its later updates; ``fills`` returns a tuple snapshot that later updates
do not change.

The fill trail is kept as ``(price, notional_micro, cost_micro)`` rows;
``fills`` builds the ``Fill`` records from them when it is read.  The run
kernel books a block of days at once: ``check_fills`` runs the checks of
``record_fill`` over the block's fills in order without booking them, and
``book_days`` then books them.  Both share ``to_micro``'s rounding and
every range check with ``record_fill``, so a block leaves the ledger as
booking its fills one at a time would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

MICRO_PER_UNIT = 10**6
_MICRO_LIMIT = 2**63 - 1  # ledger halts rather than exceeding i64 micro range
_MICRO_BOUND = _MICRO_LIMIT + 1  # an amount fits when abs(micro) < this, as an int or a float


class AccountingError(OverflowError):
    """A ledger quantity left the representable micro-currency range."""


def _rounded_micro(amount):
    """``amount`` in micro-currency, rounded half to even, as floats; elementwise over an array."""
    return np.rint(amount * float(MICRO_PER_UNIT))


def _fits(micro):
    """True where an integral micro amount (an int, or floats) is inside the i64 range."""
    return abs(micro) < _MICRO_BOUND


def to_micro(amount: float) -> int:
    """Currency to integer micro-currency, rounding half to even."""
    micro = int(_rounded_micro(amount))  # NaN and inf raise here, as round() would
    if not _fits(micro):
        raise AccountingError(f"{amount} does not fit in micro-currency range")
    return micro


def from_micro(micro: int) -> float:
    return micro / MICRO_PER_UNIT


@dataclass(frozen=True)
class Fill:
    """Audit record of one executed order (notional and cost in micro)."""

    fill_price: float
    signed_notional_micro: int
    cost_micro: int


@dataclass
class Ledger:
    """Running account updated in place by ``record_fill``.

    It holds integer running sums and an append-only list of every fill as
    a ``(price, notional_micro, cost_micro)`` row.  Operations mutate the
    ledger they are given, so two names bound to one ledger alias the same
    account.
    """

    cash_micro: int = 0
    cumulative_cost_micro: int = 0
    _fills: list[tuple[float, int, int]] = field(default_factory=list, init=False, repr=False)

    @property
    def fills(self) -> tuple[Fill, ...]:
        return tuple(Fill(*row) for row in self._fills)

    @property
    def cumulative_cost(self) -> float:
        return from_micro(self.cumulative_cost_micro)


def record_fill(ledger: Ledger, fill_price: float, signed_notional: float, cost: float) -> Ledger:
    """Book one fill in place: cash moves by -(notional + cost), cost accrues.

    ``signed_notional`` is the trade value at the fill price (positive =
    buy).  Aggressive fills always pay the cost, whichever the side.
    """
    if cost < 0:
        raise ValueError(f"cost must be >= 0, got {cost}")
    notional_micro = to_micro(signed_notional)
    cost_micro = to_micro(cost)
    cash = ledger.cash_micro - notional_micro - cost_micro
    if not _fits(cash):
        raise AccountingError("cash balance left the micro-currency range")
    total_cost = ledger.cumulative_cost_micro + cost_micro
    if total_cost > _MICRO_LIMIT:
        raise AccountingError("cumulative cost left the micro-currency range")
    ledger.cash_micro = cash
    ledger.cumulative_cost_micro = total_cost
    ledger._fills.append((fill_price, notional_micro, cost_micro))
    return ledger


def mark_to_market(book_value, mid_prev, mid_now):
    """Gain ``book_value * (mid_now/mid_prev - 1)`` of a held book over a mid move; elementwise over arrays.

    A ``mid_prev`` that is not positive raises ``ValueError`` naming the first.
    """
    bad = ~(np.asarray(mid_prev) > 0)
    if bad.any():
        raise ValueError(f"mid_prev must be positive, got {np.ravel(mid_prev)[bad.argmax()].item()}")
    return book_value * ((mid_now - mid_prev) / mid_prev)


def check_fills(ledger: Ledger, notionals: np.ndarray, costs: np.ndarray) -> tuple[int | None, list[int], list[int]]:
    """``record_fill``'s checks over a run of fills, in order, without booking them.

    Returns the index of the first fill that ``record_fill`` would refuse
    if the fills were booked one by one on ``ledger`` (None if it would
    book them all), and the notionals and costs in micro-currency of the
    fills before it.
    """
    n_micro, c_micro = _rounded_micro(notionals), _rounded_micro(costs)
    ok = ~(costs < 0) & _fits(n_micro) & _fits(c_micro)
    first = None if ok.all() else int(np.argmin(ok))
    n_list = n_micro[:first].astype(np.int64).tolist()
    c_list = c_micro[:first].astype(np.int64).tolist()
    # the running cash and cost sum after each fill; the sum never falls, as costs are >= 0
    cash = list(accumulate(map(operator.add, n_list, c_list), operator.sub, initial=ledger.cash_micro))[1:]
    total = list(accumulate(c_list, initial=ledger.cumulative_cost_micro))[1:]
    if cash and not (_fits(max(cash)) and _fits(min(cash)) and total[-1] <= _MICRO_LIMIT):
        k = next(k for k, (a, b) in enumerate(zip(cash, total)) if not _fits(a) or b > _MICRO_LIMIT)
        return k, n_list[:k], c_list[:k]
    return first, n_list, c_list


def book_days(ledger: Ledger, prices: list[float], notional_micro: list[int], cost_micro: list[int]) -> None:
    """Book fills in place, in booking order, with their micro amounts as ``check_fills`` returned them.

    The ledger ends as ``record_fill`` called on each fill in turn would
    leave it.
    """
    cost_sum = sum(cost_micro)
    ledger.cash_micro -= sum(notional_micro) + cost_sum
    ledger.cumulative_cost_micro += cost_sum
    ledger._fills += zip(prices, notional_micro, cost_micro)
