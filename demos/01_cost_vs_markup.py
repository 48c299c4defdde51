#!/usr/bin/env python3
"""One trading day of the round-trip mechanism, by hand.

A trader holds a $10B book ($1B capital, 10x levered) and runs the same
intraday round trip every day: buy $10M aggressively at the open, sell
$10M back at the close.  Spreads are 15 bps at the open and 5 bps at the
close, so the two half-spread crossings cost $10,000.  Because impact is
larger where the market is wide and thin, the buy moves the mid up more
than the sell moves it back down; with the impact coefficient calibrated
to a +1 bp/day net drift, the book marks up by ~$1,000,000 -- two orders
of magnitude more than the trading cost.
"""

from daydrift import (
    ImpactParams,
    Ledger,
    MarketState,
    SpreadDepthProfile,
    apply_aggressive_trade,
    calibrate_lambda,
    mark_to_market,
    quoted_half_spread,
    record_fill,
)

BOOK = 10_000_000_000.0  # $1B capital x 10 leverage
LEG = 10_000_000.0
OPEN_TICK, CLOSE_TICK = 0, 391

profile = SpreadDepthProfile.default(392, open_spread_bps=15.0, close_spread_bps=5.0, depth=1e9)
lam = calibrate_lambda(profile, ImpactParams(), LEG, OPEN_TICK, CLOSE_TICK, target_net_nudge_bps=1.0)
params = ImpactParams(lam=lam)
print(f"impact coefficient calibrated for a +1 bp/day drift: lambda = {lam}")
print(f"half spread paid at the open:  {quoted_half_spread(profile, OPEN_TICK)} bps")
print(f"half spread paid at the close: {quoted_half_spread(profile, CLOSE_TICK)} bps")
print()

state = MarketState.initial(100.0)
ledger = Ledger()
prev_close = state.mid

fill, cost, state = apply_aggressive_trade(state, profile, params, +LEG, OPEN_TICK)
ledger = record_fill(ledger, +LEG, cost)
print(f"open:  buy  ${LEG:,.0f} filled at {fill:.6f}  (cost ${cost:,.2f}), mid now {state.mid:.6f}")

fill, cost, state = apply_aggressive_trade(state, profile, params, -LEG, CLOSE_TICK)
ledger = record_fill(ledger, -LEG, cost)
print(f"close: sell ${LEG:,.0f} filled at {fill:.6f}  (cost ${cost:,.2f}), mid now {state.mid:.6f}")
print()

gain = mark_to_market(BOOK, prev_close, state.mid)
nudge_bps = (state.mid - prev_close) / prev_close * 1e4
print(f"net drift left by the round trip:    {nudge_bps:+.4f} bp")
print(f"trading cost for the day:            ${ledger.cumulative_cost:,.2f}")
print(f"mark-to-market gain on the book:     ${gain:,.2f}")
print(f"net P&L:                             ${gain - ledger.cumulative_cost:,.2f}")
print(f"gain / cost:                         {gain / ledger.cumulative_cost:,.1f}x")
