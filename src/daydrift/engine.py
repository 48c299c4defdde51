"""Simulation engine: deterministic trading days, runs, and parameter sweeps.

Per-tick processing order is fixed and part of the contract: (1) decay
temporary impact, (2) apply the noise increment, (3) execute agent orders
in agent-list order.  The day's open is the mid after tick 0 has been
fully processed; the close is the mid after the final tick.  Each day
draws its noise from a Philox substream keyed by (seed, day), so a run is
bit-reproducible and days can be replayed independently.

``run_day`` computes a day by segments: it stops only at tick 0, at the
ticks where orders trade and at the close, and between stops it advances
the state with the market model's step functions over the whole gap.  The
result has the bits of processing every tick in the order above.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .agents import RoundTripTrader, orders_for_tick
from .ledger import Ledger, from_micro, mark_to_market, record_fill
from .market import (
    ImpactParams,
    IntradayClock,
    MarketState,
    NoiseParams,
    SpreadDepthProfile,
    check_noise_price,
    decayed_temporary,
    diffusion_growth,
    diffusion_path,
    fill_order,
    mid_price,
    noise_step,
    reversion_pull,
)

DAILY_CSV_HEADER = "day,prev_close,open,close,overnight_ret,intraday_ret,total_cost,mtm_gain,net_pnl"


class SimulationError(RuntimeError):
    """A day failed mid-run; the message names the day."""


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one simulation run."""

    clock: IntradayClock
    profile: SpreadDepthProfile
    impact: ImpactParams
    noise: NoiseParams
    agents: tuple[RoundTripTrader, ...]
    days: int
    seed: int
    initial_mid: float
    initial_fundamental: float
    leg_growth_per_day: float = 1.0  # per-day scale on leg notionals; 1.0 = constant

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if not self.initial_mid > 0:
            raise ValueError(f"initial_mid must be positive, got {self.initial_mid}")
        if not self.initial_fundamental > 0:
            raise ValueError(f"initial_fundamental must be positive, got {self.initial_fundamental}")
        if not self.leg_growth_per_day > 0:
            raise ValueError(f"leg_growth_per_day must be positive, got {self.leg_growth_per_day}")
        if len(self.profile) != self.clock.ticks_per_day:
            raise ValueError(
                f"profile has {len(self.profile)} ticks but clock expects {self.clock.ticks_per_day}"
            )
        for agent in self.agents:
            if agent.sell_tick >= self.clock.ticks_per_day:
                raise ValueError(
                    f"agent {agent.agent_id!r} trades at tick {agent.sell_tick}, outside the "
                    f"{self.clock.ticks_per_day}-tick day"
                )

    @property
    def total_book_value(self) -> float:
        return sum(a.book_value for a in self.agents if a.enabled)

    def initial_state(self) -> MarketState:
        return MarketState.initial(self.initial_mid, self.initial_fundamental)

    @cached_property
    def plan(self) -> "DayPlan":
        """What every day of this scenario shares; built on first use."""
        return DayPlan.of(self)


@dataclass(frozen=True)
class DayPlan:
    """The parts of a trading day that do not change from day to day.

    ``stops`` lists, in tick order, tick 0, every tick with orders and the
    close, each as ``(tick, full_spread_bps, depth, notionals)``; the
    notionals are the day-1 signed orders of that tick in agent-list order,
    to be scaled by ``leg_growth_per_day ** (day - 1)``.
    """

    stops: tuple[tuple[int, float, float, tuple[float, ...]], ...]
    book_per_price: float  # marked book value per unit of price
    pull: float | None  # reversion_pull per tick; None without mean reversion

    @classmethod
    def of(cls, scenario: "Scenario") -> "DayPlan":
        orders: dict[int, list[float]] = {}
        for agent in scenario.agents:
            for tick in (agent.buy_tick, agent.sell_tick):
                for intent in orders_for_tick(agent, tick):
                    orders.setdefault(tick, []).append(intent.signed_notional)
        spread = scenario.profile.full_spread_bps.tolist()
        depth = scenario.profile.depth.tolist()
        ticks = sorted({0, scenario.clock.close_tick, *orders})
        noise = scenario.noise
        return cls(
            stops=tuple((t, spread[t], depth[t], tuple(orders.get(t, ()))) for t in ticks),
            book_per_price=scenario.total_book_value / scenario.initial_mid,
            pull=None if noise.half_life_days is None else reversion_pull(noise, scenario.clock.dt_days),
        )


@dataclass(frozen=True)
class DayRecord:
    """One simulated day: the price triple plus that day's economics."""

    day: int
    prev_close: float
    open: float
    close: float
    total_cost: float
    mtm_gain: float
    net_pnl: float


@dataclass(frozen=True)
class RunSummary:
    days: int
    initial_mid: float
    final_close: float
    total_return: float
    total_cost: float
    total_mtm_gain: float
    total_net_pnl: float
    cost_per_day: float
    mtm_gain_per_day: float
    net_pnl_per_day: float
    gain_cost_ratio: float


def day_rng(seed: int, day: int) -> np.random.Generator:
    """Counter-based substream for one (run seed, day) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, day))))


def run_day(
    state: MarketState, scenario: Scenario, day: int, book_ledger: Ledger
) -> tuple[MarketState, DayRecord, Ledger]:
    """Simulate one day; returns the carried state, the day record, and the ledger.

    The per-tick order of the module docstring is the contract; the day is
    computed by segments between the stops of ``scenario.plan``.  Without
    mean reversion the anchor does not depend on trades, so the whole
    day's diffusion is one ``diffusion_path``; with it, ``noise_step`` runs
    tick by tick.  Temporary impact decays over each gap at once.  The
    result is bit-identical to composing ``decay_temporary``,
    ``advance_noise`` and ``apply_aggressive_trade`` tick by tick, which
    the test suite checks.  A noise step that leaves the anchor outside
    (0, inf), or a close outside it, raises ``ValueError``.
    """
    plan = scenario.plan
    pull = plan.pull
    impact, noise = scenario.impact, scenario.noise
    state = state.start_day(day_rng(scenario.seed, day))
    prev_close = anchor = state.day_anchor
    perm = 0.0
    temp = state.temp_impact_bps
    fund = state.fundamental

    ticks = scenario.clock.ticks_per_day
    path = growth = None
    if noise.sigma_daily > 0.0:
        z = state.rng.standard_normal(ticks)
        # an overflow surfaces as a non-finite price, which the checks report
        with np.errstate(over="ignore", invalid="ignore"):
            growth = diffusion_growth(noise, scenario.clock.dt_days, z)
            if pull is None:
                path = diffusion_path(anchor, growth)
        if pull is not None:
            growth = growth.tolist()
    elif pull is not None:
        growth = [1.0] * ticks

    scale = scenario.leg_growth_per_day ** (day - 1)
    last = -1
    for t, spread, depth, notionals in plan.stops:
        temp = decayed_temporary(impact, temp, t - last)
        if path is not None:
            anchor = float(path[t + 1])
        elif pull is not None:
            for k in range(last + 1, t + 1):
                anchor = noise_step(anchor, perm, fund, pull, growth[k])
                check_noise_price(anchor, tick=k)
        for base in notionals:
            notional = base * scale
            fill, cost, perm, temp = fill_order(impact, spread, depth, anchor, perm, temp, notional, t)
            book_ledger = record_fill(book_ledger, fill, notional, cost)
        if t == 0:
            open_price = mid_price(anchor, perm)
        last = t

    close = mid_price(anchor, perm)
    if not 0.0 < close < math.inf:
        raise ValueError(f"close is non-positive or non-finite: {close}")
    mtm_gain, book_ledger = mark_to_market(book_ledger, plan.book_per_price * prev_close, prev_close, close)
    total_cost = from_micro(book_ledger.cost_history_micro[-1])
    record = DayRecord(
        day=day,
        prev_close=prev_close,
        open=open_price,
        close=close,
        total_cost=total_cost,
        mtm_gain=mtm_gain,
        net_pnl=mtm_gain - total_cost,
    )
    new_state = replace(state, day_anchor=anchor, perm_impact_bps=perm, temp_impact_bps=temp)
    return new_state, record, book_ledger


@dataclass(frozen=True)
class SimResult:
    records: tuple[DayRecord, ...]
    ledger: Ledger
    final_state: MarketState


def simulate(scenario: Scenario) -> SimResult:
    """Run the full scenario, carrying state and accounting across days."""
    state = scenario.initial_state()
    book_ledger = Ledger()
    records: list[DayRecord] = []
    for day in range(1, scenario.days + 1):
        try:
            state, record, book_ledger = run_day(state, scenario, day, book_ledger)
        except (ValueError, OverflowError) as exc:
            raise SimulationError(f"day {day}: {exc}") from exc
        records.append(record)
    return SimResult(tuple(records), book_ledger, state)


def run_sim(scenario: Scenario) -> list[DayRecord]:
    """Day records for one scenario; bit-identical for identical (scenario, seed)."""
    return list(simulate(scenario).records)


def summarize(records: list[DayRecord] | tuple[DayRecord, ...]) -> RunSummary:
    if not records:
        raise ValueError("cannot summarize an empty run")
    initial = records[0].prev_close
    final = records[-1].close
    total_cost = sum(r.total_cost for r in records)
    total_mtm = sum(r.mtm_gain for r in records)
    total_net = sum(r.net_pnl for r in records)
    n = len(records)
    ratio = total_mtm / total_cost if total_cost != 0 else math.inf * (1 if total_mtm > 0 else -1 if total_mtm < 0 else math.nan)
    return RunSummary(
        days=n,
        initial_mid=initial,
        final_close=final,
        total_return=(final - initial) / initial,
        total_cost=total_cost,
        total_mtm_gain=total_mtm,
        total_net_pnl=total_net,
        cost_per_day=total_cost / n,
        mtm_gain_per_day=total_mtm / n,
        net_pnl_per_day=total_net / n,
        gain_cost_ratio=ratio,
    )


def overnight_return(record: DayRecord) -> float:
    return (record.open - record.prev_close) / record.prev_close


def intraday_return(record: DayRecord) -> float:
    return (record.close - record.open) / record.open


def write_daily_csv(records, path) -> None:
    """Daily CSV: prices to 6 decimals, returns to 10, currency to 2.

    Before the file is opened, a price that is non-finite or would print
    as zero or less raises ``ValueError`` naming the day: ``read_daily_csv``
    and ``analyze`` could not use such a file.
    """
    inf = math.inf
    for r in records:
        if not (1e-6 <= r.prev_close < inf and 1e-6 <= r.open < inf and 1e-6 <= r.close < inf):
            for name in ("prev_close", "open", "close"):
                price = getattr(r, name)
                if not 0.0 < float(f"{price:.6f}") < inf:
                    raise ValueError(
                        f"day {r.day}: {name} {price!r} is non-finite or prints as "
                        "non-positive with 6 decimals; the daily CSV would be unreadable"
                    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(DAILY_CSV_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.day},{r.prev_close:.6f},{r.open:.6f},{r.close:.6f},"
                f"{overnight_return(r):.10f},{intraday_return(r):.10f},"
                f"{r.total_cost:.2f},{r.mtm_gain:.2f},{r.net_pnl:.2f}\n"
            )


def read_daily_csv(path) -> list[DayRecord]:
    """Parse a daily CSV produced by ``write_daily_csv``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != DAILY_CSV_HEADER:
            raise ValueError(f"not a daily simulation CSV: header is {header!r}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != 9:
                raise ValueError(f"line {lineno}: expected 9 columns, got {len(parts)}")
            try:
                records.append(
                    DayRecord(
                        day=int(parts[0]),
                        prev_close=float(parts[1]),
                        open=float(parts[2]),
                        close=float(parts[3]),
                        total_cost=float(parts[6]),
                        mtm_gain=float(parts[7]),
                        net_pnl=float(parts[8]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return records


# --- parameter sweeps -------------------------------------------------------

SWEEPABLE_KEYS = (
    "impact.lambda",
    "impact.permanent_fraction",
    "impact.temporary_decay_per_tick",
    "noise.sigma_daily",
    "noise.mean_reversion_half_life_days",
    "agents.capital",
    "agents.leverage",
    "agents.leg_notional",
    "agents.book_value",
    "profile.spread_open_bps",
    "profile.spread_close_bps",
    "profile.depth",
    "run.days",
    "run.seed",
    "run.initial_mid",
    "run.initial_fundamental",
)


@dataclass(frozen=True)
class SweepCell:
    params: tuple[tuple[str, float], ...]
    summary: RunSummary | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def apply_override(scenario: Scenario, key: str, value: float) -> Scenario:
    """Return the scenario with one named numeric field replaced."""
    if key == "impact.lambda":
        return replace(scenario, impact=replace(scenario.impact, lam=value))
    if key == "impact.permanent_fraction":
        return replace(scenario, impact=replace(scenario.impact, permanent_fraction=value))
    if key == "impact.temporary_decay_per_tick":
        return replace(scenario, impact=replace(scenario.impact, temporary_decay_per_tick=value))
    if key == "noise.sigma_daily":
        return replace(scenario, noise=replace(scenario.noise, sigma_daily=value))
    if key == "noise.mean_reversion_half_life_days":
        return replace(scenario, noise=replace(scenario.noise, half_life_days=value))
    if key == "agents.capital":
        return replace(scenario, agents=tuple(replace(a, capital=value) for a in scenario.agents))
    if key == "agents.leverage":
        return replace(scenario, agents=tuple(replace(a, leverage=value) for a in scenario.agents))
    if key == "agents.leg_notional":
        return replace(scenario, agents=tuple(replace(a, leg_notional=value) for a in scenario.agents))
    if key == "agents.book_value":
        # book = capital * leverage; hold leverage fixed and move capital
        return replace(
            scenario,
            agents=tuple(replace(a, capital=value / a.leverage) for a in scenario.agents),
        )
    if key in ("profile.spread_open_bps", "profile.spread_close_bps", "profile.depth"):
        open_bps = float(scenario.profile.full_spread_bps[0])
        close_bps = float(scenario.profile.full_spread_bps[-1])
        depth = float(scenario.profile.depth[0])
        if key == "profile.spread_open_bps":
            open_bps = value
        elif key == "profile.spread_close_bps":
            close_bps = value
        else:
            depth = value
        profile = SpreadDepthProfile.default(scenario.clock.ticks_per_day, open_bps, close_bps, depth)
        return replace(scenario, profile=profile)
    if key == "run.days":
        return replace(scenario, days=int(value))
    if key == "run.seed":
        return replace(scenario, seed=int(value))
    if key == "run.initial_mid":
        return replace(scenario, initial_mid=value)
    if key == "run.initial_fundamental":
        return replace(scenario, initial_fundamental=value)
    raise ValueError(f"unknown sweep key {key!r}; supported keys: {', '.join(SWEEPABLE_KEYS)}")


def _run_cell(args: tuple[Scenario, tuple[tuple[str, float], ...]]) -> SweepCell:
    base, params = args
    try:
        scenario = base
        for key, value in params:
            scenario = apply_override(scenario, key, value)
        summary = summarize(run_sim(scenario))
        return SweepCell(params, summary, None)
    except Exception as exc:  # cell failures must not abort the sweep
        return SweepCell(params, None, f"{type(exc).__name__}: {exc}")


def run_sweep(
    base: Scenario,
    grid: list[tuple[str, list[float]]],
    workers: int = 1,
) -> list[SweepCell]:
    """Run one scenario per grid point (cartesian product, row-major order).

    Cells run independently; results are merged in grid order, so the
    output is identical whatever the worker count.  A failing cell is
    reported in its row and does not abort the others.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    for key, values in grid:
        if key not in SWEEPABLE_KEYS:
            raise ValueError(f"unknown sweep key {key!r}; supported keys: {', '.join(SWEEPABLE_KEYS)}")
        if not values:
            raise ValueError(f"sweep key {key!r} has no values")
    combos = [
        tuple(zip((key for key, _ in grid), values))
        for values in itertools.product(*(values for _, values in grid))
    ]
    jobs = [(base, combo) for combo in combos]
    if workers <= 1 or len(jobs) == 1:
        return [_run_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, jobs))
