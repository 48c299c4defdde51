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
"""

from __future__ import annotations

from dataclasses import dataclass, field

MICRO_PER_UNIT = 10**6
_MICRO_LIMIT = 2**63 - 1  # ledger halts rather than exceeding i64 micro range


class AccountingError(OverflowError):
    """A ledger quantity left the representable micro-currency range."""


def to_micro(amount: float) -> int:
    """Currency to integer micro-currency, rounding half to even."""
    micro = round(amount * MICRO_PER_UNIT)
    if abs(micro) > _MICRO_LIMIT:
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

    It holds integer running sums and three append-only lists: every fill,
    and each marked day's cost and gain.  Operations mutate the ledger they
    are given, so two names bound to one ledger alias the same account.
    """

    cash_micro: int = 0
    cumulative_cost_micro: int = 0
    book_value_at_mark: float = 0.0
    period_cost_micro: int = 0  # costs accrued since the last mark
    _fills: list[Fill] = field(default_factory=list, init=False, repr=False)
    _day_costs_micro: list[int] = field(default_factory=list, init=False, repr=False)
    _day_gains: list[float] = field(default_factory=list, init=False, repr=False)

    @property
    def fills(self) -> tuple[Fill, ...]:
        return tuple(self._fills)

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
    if abs(cash) > _MICRO_LIMIT:
        raise AccountingError("cash balance left the micro-currency range")
    total_cost = ledger.cumulative_cost_micro + cost_micro
    if total_cost > _MICRO_LIMIT:
        raise AccountingError("cumulative cost left the micro-currency range")
    ledger.cash_micro = cash
    ledger.cumulative_cost_micro = total_cost
    ledger.period_cost_micro += cost_micro
    ledger._fills.append(Fill(fill_price, notional_micro, cost_micro))
    return ledger


def mark_to_market(ledger: Ledger, book_value: float, mid_prev: float, mid_now: float) -> tuple[float, Ledger]:
    """Value the held book against the mid move; seals one accounting day.

    Returns the gain ``book_value * (mid_now/mid_prev - 1)`` and the same
    ledger, updated in place: the gain is appended to its day history and
    the costs accrued since the previous mark are sealed into the same day.
    """
    if not mid_prev > 0:
        raise ValueError(f"mid_prev must be positive, got {mid_prev}")
    gain = book_value * ((mid_now - mid_prev) / mid_prev)
    ledger.book_value_at_mark = book_value
    ledger._day_costs_micro.append(ledger.period_cost_micro)
    ledger._day_gains.append(gain)
    ledger.period_cost_micro = 0
    return gain, ledger


def daily_net_pnl(ledger: Ledger, day: int) -> float:
    """Mark-to-market gain minus spread costs for one recorded day (1-based)."""
    days = len(ledger._day_gains)
    if not 1 <= day <= days:
        raise KeyError(f"day {day} not in ledger history of {days} days")
    return ledger._day_gains[day - 1] - from_micro(ledger._day_costs_micro[day - 1])
