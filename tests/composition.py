"""Reference runs shared by the tests.

``compose_days`` runs a scenario through the market operations one day at
a time, which the run kernel must equal bit for bit, its ledger in
``micro_sums`` since a run books no fill trail; ``bitwise_case``
names the scenarios the kernel is checked on, and ``make_scenario``
builds a small scenario around the reference trader.
"""

import math
from dataclasses import replace

from daydrift import (
    DayRecord,
    ImpactParams,
    Ledger,
    MarketState,
    NoiseParams,
    RoundTripTrader,
    Scenario,
    SpreadDepthProfile,
    advance_noise,
    apply_aggressive_trade,
    day_rng,
    from_micro,
    load_config,
    mark_to_market,
    orders_for_tick,
    record_fill,
)

from conftest import NOISY_CONFIG, REFERENCE_CONFIG


def make_scenario(
    days=1,
    seed=0,
    lam=20.0,
    sigma=0.0,
    half_life=None,
    agents=None,
    ticks=392,
    initial_mid=100.0,
    fundamental=None,
    **kwargs,
):
    if agents is None:
        agents = (RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=ticks - 1),)
    return Scenario(
        profile=SpreadDepthProfile.default(ticks),
        impact=ImpactParams(lam=lam),
        noise=NoiseParams(sigma, half_life),
        agents=tuple(agents),
        days=days,
        seed=seed,
        initial_mid=initial_mid,
        initial_fundamental=fundamental if fundamental is not None else initial_mid,
        **kwargs,
    )


def bitwise_case(case: str) -> Scenario:
    if case == "noisy-path":  # diffusion without reversion, 392 ticks
        return replace(load_config(NOISY_CONFIG).build(), days=4, seed=3)
    if case == "noisy-path-wide-seed":  # entropy past SeedSequence's 4-word pool, which day_keys mixes in after it
        return replace(load_config(NOISY_CONFIG).build(), days=4, seed=2**96 + 3)
    if case == "noisy-reverting":  # diffusion with reversion, 392 ticks
        noisy = load_config(NOISY_CONFIG).build()
        return replace(noisy, noise=replace(noisy.noise, half_life_days=504.0), days=4, seed=3)
    if case == "noiseless":
        return replace(load_config(REFERENCE_CONFIG).build(), days=3)
    # a buy-first and a sell-first agent trading at the same interior tick,
    # unwinding at different interior ticks
    agents = (
        RoundTripTrader(1e9, 10.0, 1e7, buy_tick=5, sell_tick=40, agent_id="A"),
        RoundTripTrader(5e8, 10.0, -4e6, buy_tick=5, sell_tick=50, agent_id="B"),
    )
    if case == "interior-trades-diffusing":
        return make_scenario(days=3, seed=5, sigma=0.01, agents=agents, ticks=64)
    return make_scenario(days=3, sigma=0.0, half_life=0.5, agents=agents, ticks=64, fundamental=95.0)


def micro_sums(ledger: Ledger) -> tuple[int, int]:
    """A ledger's cash and cumulative cost in micro, the sums that a run's ledger keeps."""
    return ledger.cash_micro, ledger.cumulative_cost_micro


def compose_days(scenario: Scenario, sums: tuple[int, int] = (0, 0)):
    """Reference run through the market operations, one day at a time, from a ledger of ``sums``.

    The noise steps once per stop (tick 0, each tick with orders and the
    close), over the ticks since the previous stop, counting from tick -1.
    The orders of a tick trade after its noise step.  Yields
    ``(record, ledger)`` after each day; fills are booked with
    ``record_fill`` into one ledger, which starts at ``sums`` (cash and
    cumulative cost, in micro), and each day's book is marked with
    ``mark_to_market``.  A day whose close, then whose fills in booking
    order, then whose open is outside (0, inf) raises ``ValueError``
    naming the first such price.
    """
    clock, profile, impact, noise = scenario.clock, scenario.profile, scenario.impact, scenario.noise
    traded = {t for t in range(clock.ticks_per_day) for agent in scenario.agents if orders_for_tick(agent, t)}
    ticks = sorted({0, clock.close_tick, *traded})
    state = MarketState.initial(scenario.initial_mid, scenario.initial_fundamental)
    ledger = Ledger(*sums)
    for day in range(1, scenario.days + 1):
        state, rng = state.start_day(), day_rng(scenario.seed, day)
        prev = state.day_anchor
        cost_before = ledger.cumulative_cost_micro
        last = -1
        prices = []
        for t in ticks:
            state = advance_noise(state, noise, (t - last) * clock.dt_days, rng)
            last = t
            for agent in scenario.agents:
                for notional in orders_for_tick(agent, t):
                    fill, cost, state = apply_aggressive_trade(state, profile, impact, notional, t)
                    ledger = record_fill(ledger, fill, notional, cost)
                    prices.append((f"fill at tick {t}", fill))
            if t == 0:
                open_price = state.mid
        for name, price in [("close", state.mid), *prices, ("open", open_price)]:
            if not 0.0 < price < math.inf:
                raise ValueError(f"{name} is non-positive or non-finite: {price}")
        book = scenario.total_book_value / scenario.initial_mid * prev
        gain = mark_to_market(book, prev, state.mid)
        cost = from_micro(ledger.cumulative_cost_micro - cost_before)
        yield DayRecord(day, prev, open_price, state.mid, cost, gain, gain - cost), ledger
