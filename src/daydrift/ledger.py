"""Exact accounting for the round-trip trader: cash, costs, mark-to-market.

Cash and costs are held in integer micro-currency (1e-6 units) so that
conservation identities can be asserted exactly, with no float drift.  A
fill moves cash by the full fill-price value of the trade: a buy pays the
notional plus the half-spread cost, a sell receives the notional minus it.
Mark-to-market gains are float currency; they value a held book against
the day's mid move and are kept per day so gain and cost can be compared
day by day.

The ledger is a running account, not a value: ``record_fill`` and
``mark_to_market`` update it in place in O(1) and return the same object,
so a run's accounting cost per day does not grow with its length.  Every
name bound to a ledger sees its later updates; the history properties
return tuple snapshots that later updates do not change.

The fill trail is kept as ``(price, notional_micro, cost_micro)`` rows;
``fills`` builds the ``Fill`` records from them when it is read.  The run
kernel books a block of days at once: ``check_fills`` runs the checks of
``record_fill`` over the block's fills in order without booking them, and
``book_days`` then books each day's fills and mark.  Both share
``to_micro``'s rounding and every range check with ``record_fill`` and
``mark_to_market``, so a block leaves the ledger as booking its fills and
marks one at a time would.
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
    """Running account updated in place by ``record_fill`` and ``mark_to_market``.

    It holds integer running sums and three append-only lists: every fill
    as a ``(price, notional_micro, cost_micro)`` row, and each marked day's
    cost and gain.  Operations mutate the ledger they are given, so two
    names bound to one ledger alias the same account.
    """

    cash_micro: int = 0
    cumulative_cost_micro: int = 0
    period_cost_micro: int = 0  # costs accrued since the last mark
    _fills: list[tuple[float, int, int]] = field(default_factory=list, init=False, repr=False)
    _day_costs_micro: list[int] = field(default_factory=list, init=False, repr=False)
    _day_gains: list[float] = field(default_factory=list, init=False, repr=False)

    @property
    def fills(self) -> tuple[Fill, ...]:
        return tuple(Fill(*row) for row in self._fills)

    @property
    def cost_history_micro(self) -> tuple[int, ...]:
        """Each marked day's spread costs, in micro-currency."""
        return tuple(self._day_costs_micro)

    @property
    def mtm_history(self) -> tuple[tuple[int, float], ...]:
        """``(day, gain)`` for each marked day, days numbered from 1."""
        return tuple(enumerate(self._day_gains, start=1))

    @property
    def cash(self) -> float:
        return from_micro(self.cash_micro)

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
    ledger.period_cost_micro += cost_micro
    ledger._fills.append((fill_price, notional_micro, cost_micro))
    return ledger


def mark_to_market(ledger: Ledger, book_value: float, mid_prev: float, mid_now: float) -> tuple[float, Ledger]:
    """Value the held book against the mid move; seals one accounting day.

    Returns the gain ``book_value * (mid_now/mid_prev - 1)`` and the same
    ledger, updated in place: the gain is appended to its day history and
    the costs accrued since the previous mark are sealed into the same day.
    """
    if not mid_prev > 0:
        raise ValueError(f"mid_prev must be positive, got {mid_prev}")
    gain = _gain(book_value, mid_prev, mid_now)
    ledger._day_costs_micro.append(ledger.period_cost_micro)
    ledger._day_gains.append(gain)
    ledger.period_cost_micro = 0
    return gain, ledger


def _gain(book_value, mid_prev, mid_now):
    """Mark-to-market gain of a book over a mid move; elementwise over arrays."""
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


def book_days(
    ledger: Ledger,
    prices: list[float],
    notional_micro: list[int],
    cost_micro: list[int],
    book_values: np.ndarray,
    mid_prevs: np.ndarray,
    mid_nows: np.ndarray,
) -> tuple[list[float], list[float]]:
    """Book whole days in place: each day's fills, then its mark.

    The fills are in booking order, the same number each day, with their
    micro amounts as ``check_fills`` returned them for this ledger; the
    marks are ``mark_to_market``'s, one per day.  The ledger ends as
    ``record_fill`` and ``mark_to_market`` called in that order would leave
    it.  Returns each day's sealed cost (currency) and gain.
    """
    if not (mid_prevs > 0).all():
        mid_prev = mid_prevs[np.argmin(mid_prevs > 0)].item()
        raise ValueError(f"mid_prev must be positive, got {mid_prev}")
    gains = _gain(book_values, mid_prevs, mid_nows).tolist()
    day_costs = np.array(cost_micro, dtype=np.int64).reshape(len(gains), -1).sum(axis=1).tolist()
    day_costs[0] += ledger.period_cost_micro
    cost_sum = sum(cost_micro)
    ledger.cash_micro -= sum(notional_micro) + cost_sum
    ledger.cumulative_cost_micro += cost_sum
    ledger.period_cost_micro = 0
    ledger._fills += zip(prices, notional_micro, cost_micro)
    ledger._day_costs_micro += day_costs
    ledger._day_gains += gains
    return [from_micro(c) for c in day_costs], gains


def daily_net_pnl(ledger: Ledger, day: int) -> float:
    """Mark-to-market gain minus spread costs for one recorded day (1-based)."""
    days = len(ledger._day_gains)
    if not 1 <= day <= days:
        raise KeyError(f"day {day} not in ledger history of {days} days")
    return ledger._day_gains[day - 1] - from_micro(ledger._day_costs_micro[day - 1])
