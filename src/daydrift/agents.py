"""Round-trip trader: buys a fixed leg at one tick, sells it back at a later one.

The trader holds a large levered book that is never traded intraday; the
legs are a separate, exactly offsetting round trip.  Splitting one trader
into n smaller ones divides the book and the legs but leaves the aggregate
order flow per tick unchanged, so the market sees the same trades while
each participant pays 1/n of the spread cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RoundTripTrader:
    """One participant doing the same intraday buy/sell round trip every day.

    A negative ``leg_notional`` flips the legs: sell at ``buy_tick``, buy
    back at ``sell_tick`` (the contract-first variant of the schedule).
    """

    capital: float
    leverage: float
    leg_notional: float
    buy_tick: int
    sell_tick: int
    enabled: bool = True
    agent_id: str = "M"

    def __post_init__(self):
        if not 0.0 < self.capital < math.inf:
            raise ValueError(f"capital must be positive and finite, got {self.capital}")
        if not 0.0 < self.leverage < math.inf:
            raise ValueError(f"leverage must be positive and finite, got {self.leverage}")
        if not self.book_value < math.inf:
            raise ValueError(f"leverage: book value capital * leverage overflows: {self.capital} * {self.leverage}")
        if not math.isfinite(self.leg_notional):
            raise ValueError(f"leg_notional must be finite, got {self.leg_notional}")
        if abs(self.leg_notional) > self.book_value:
            raise ValueError(
                f"leg_notional {self.leg_notional} exceeds book value {self.book_value}"
            )
        if self.buy_tick < 0:
            raise ValueError(f"buy_tick must be >= 0, got {self.buy_tick}")
        if not self.buy_tick < self.sell_tick:
            raise ValueError(f"sell_tick must be after buy_tick {self.buy_tick}, got {self.sell_tick}")

    @property
    def book_value(self) -> float:
        """Marked book notional: capital times leverage."""
        return self.capital * self.leverage


def orders_for_tick(agent: RoundTripTrader, t: int) -> list[float]:
    """Signed notionals of the orders the agent submits at tick ``t``: positive buys, negative sells.

    Empty when the agent is disabled, has a zero leg or does not trade at ``t``.
    """
    if not agent.enabled or agent.leg_notional == 0:
        return []
    if t == agent.buy_tick:
        return [agent.leg_notional]
    if t == agent.sell_tick:
        return [-agent.leg_notional]
    return []


def split_trader(count: int, template: RoundTripTrader) -> list[RoundTripTrader]:
    """Split one trader into ``count`` equal smaller ones with the same schedule.

    Each clone carries 1/count of the capital, book, and leg notional;
    summed over the clones the per-tick order flow equals the template's
    exactly.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return [template]
    return [
        replace(
            template,
            capital=template.capital / count,
            leg_notional=template.leg_notional / count,
            agent_id=f"{template.agent_id}{i + 1}",
        )
        for i in range(count)
    ]
