"""Simulation engine: deterministic trading days, runs, and parameter sweeps.

Per-tick processing order is fixed and part of the contract: (1) apply
the noise increment, (2) execute agent orders in agent-list order.  The
day's open is the mid after tick 0 has been fully processed; the close is
the mid after the final tick.  Only tick 0, the ticks where orders trade
and the close are *stops*, the ticks whose price an output reads.  The
noise of every tick since the previous stop is one step of the segment's
length, taken at the stop: the noise is an Ornstein-Uhlenbeck process in
the log of the mid (``market``), whose step over any length is exact, and
the permanent impact moves only at stops, so a day draws one normal per
stop and every output keeps its law.  Each day draws its noise from a
Philox substream keyed by (seed, day), so a run is bit-reproducible and
days can be replayed independently.  ``day_rng`` is the reference definition of a
substream.  ``simulate`` computes the Philox keys of a block of days in
one ``day_keys`` call, which gives the bits of ``SeedSequence`` for a
seed of any width, and re-keys one generator per day.

One run kernel computes every day of ``simulate``.  Every day places the
same orders, so the kernel computes the run's set-up once, at its start:
the day's orders and stops, the orders' costs and impacts, which do not
read the price, and each stop's noise coefficients.  The kernel works in
blocks of days.  Only the noise draw and the price chain go day by day;
the fill prices, the marks and the ledger are computed over a block at a
time with the market model's step functions applied to arrays.  Within a
day it stops only at the stops and between them advances the price over
the whole gap.  The result has the bits of composing ``advance_noise``
once per noise step and ``apply_aggressive_trade`` once per order, in the
order above, one day at a time, and a failing day raises the error that
doing so raises first.  After the close, the day's fills in booking order
and then its open must be in (0, inf): the first that is not fails the
day.  A day without noise builds no substream.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .agents import RoundTripTrader, orders_for_tick
from .ledger import Ledger, book_days, first_refused_day, from_micro, mark_to_market, record_fill, to_micro
from .market import (
    ImpactParams,
    IntradayClock,
    MarketState,
    NoiseParams,
    SpreadDepthProfile,
    check_noise_price,
    diffusion_coef,
    diffusion_growth,
    fill_order,
    fill_price,
    mid_price,
    noise_step,
    order_impact,
    reversion_pull,
)

if TYPE_CHECKING:
    from .config import ScenarioConfig

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

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        for name in ("days", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if not 1 <= self.days < 2**32:  # day_keys numbers a day with one uint32 word
            raise ValueError(f"days must be >= 1 and < 2**32, got {self.days}")
        if self.seed < 0:  # checked here because a noiseless run never hands it to day_keys
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.initial_mid < math.inf:
            raise ValueError(f"initial_mid must be positive and finite, got {self.initial_mid}")
        if not 0.0 < self.initial_fundamental < math.inf:
            raise ValueError(f"initial_fundamental must be positive and finite, got {self.initial_fundamental}")
        if len(self.profile) != self.clock.ticks_per_day:
            raise ValueError(
                f"profile has {len(self.profile)} ticks but clock expects {self.clock.ticks_per_day}"
            )
        for agent in self.agents:
            if agent.sell_tick >= self.clock.ticks_per_day:
                raise ValueError(
                    f"sell_tick: agent {agent.agent_id!r} trades at tick {agent.sell_tick}, outside the "
                    f"{self.clock.ticks_per_day}-tick day"
                )

    @property
    def total_book_value(self) -> float:
        return sum(a.book_value for a in self.agents if a.enabled)

    def initial_state(self) -> MarketState:
        """The state before day 1."""
        return MarketState.initial(self.initial_mid, self.initial_fundamental)


@dataclass(frozen=True, slots=True)
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


# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, mixed with these constants and shift.
_MIX_L, _MIX_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_POOL = 4


def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (xor, multiplier) pairs of ``n`` successive hashes from ``init``."""
    consts = []
    for _ in range(n):
        nxt = init * mult & 0xFFFFFFFF
        consts.append((init, nxt))
        init = nxt
    return tuple(consts)


# The 4 hashes that emit the key do not depend on the entropy's length.
_KEY_HASHES = _hash_consts(0x8B51F9DD, 0x58F38DED, _POOL)


def _hash(words: np.ndarray, consts: tuple[int, int]) -> np.ndarray:
    xor, mult = consts
    words = (words ^ xor) * mult
    return words ^ (words >> _XSHIFT)


def _mix(dst: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * dst - _MIX_R * hashed
    return mixed ^ (mixed >> _XSHIFT)


def day_keys(seed: int, days: range) -> np.ndarray:
    """The Philox key of ``day_rng(seed, day)`` for each day, in one vectorised pass.

    Row ``i`` of the ``(len(days), 2)`` uint64 result equals
    ``SeedSequence(entropy=(seed, days[i])).generate_state(2, np.uint64)``:
    the entropy is the seed's uint32 words, low first, then the day, and
    the hash is SeedSequence's in uint32 arithmetic over every day at once.
    Entropy past the 4-word pool, the words of a seed of 2**96 or more, is
    mixed into every pool word after the pool is mixed, as SeedSequence
    does; so the number of hashes grows with the seed's width.  A day is
    one uint32 word: a day of 2**32 or more raises ``OverflowError``.
    """
    n = len(days)
    words = [seed >> 32 * i & 0xFFFFFFFF for i in range((seed.bit_length() + 31) // 32 or 1)]
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(days.start, days.stop, dtype=np.uint32))
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL - len(entropy))
    # 4 hashes to fill the pool, 12 to mix it, and 4 for each entropy word past it
    hashes = iter(_hash_consts(0x43B0D7E5, 0x931E8875, _POOL * len(entropy)))
    pool = [_hash(w, next(hashes)) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(hashes)))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, next(hashes)))
    key_words = np.stack([_hash(w, c) for w, c in zip(pool, _KEY_HASHES)], axis=1)
    return key_words.astype("<u4").view("<u8").astype(np.uint64)


_DAY_COLUMNS = ("prev_close", "open", "close", "total_cost", "mtm_gain")


class DayColumns:
    """A run's per-day numbers as float64 columns named by ``_DAY_COLUMNS``; row ``i`` is day ``i + 1``.

    The run kernel appends each booked block of days with ``extend``.  The
    net P&L (gain minus cost) and the ``DayRecord``s are computed when read.
    """

    def __init__(self):
        for name in _DAY_COLUMNS:
            setattr(self, name, array("d"))

    def __len__(self) -> int:
        return len(self.close)

    def extend(self, *blocks: np.ndarray) -> None:
        """Append a block of days: a float64 array per column, in order."""
        for name, block in zip(_DAY_COLUMNS, blocks):
            getattr(self, name).frombytes(block.tobytes())

    def records(self) -> list[DayRecord]:
        return list(map(DayRecord, *(column.tolist() for column in _table(self))))


def _table(days: "DayColumns | list[DayRecord] | tuple[DayRecord, ...]") -> list[np.ndarray]:
    """The columns of ``DayRecord`` (day, prev_close, ..., net_pnl) of ``DayColumns`` or of ``DayRecord``s."""
    if isinstance(days, DayColumns):
        prev, opens, close, cost, gain = (np.frombuffer(getattr(days, name)) for name in _DAY_COLUMNS)
        return [np.arange(1, len(close) + 1), prev, opens, close, cost, gain, gain - cost]
    return [np.array([getattr(r, f.name) for r in days]) for f in fields(DayRecord)]


@dataclass(frozen=True, eq=False)
class SimResult:
    """A run's ``DayColumns``, its ledger and its final state; ``records`` builds the ``DayRecord``s when read."""

    columns: DayColumns
    ledger: Ledger
    final_state: MarketState

    @property
    def records(self) -> tuple[DayRecord, ...]:
        return tuple(self.columns.records())


def simulate(scenario: Scenario) -> SimResult:
    """Run the full scenario, carrying state and accounting across days.

    The run kernel computes the days in blocks (see ``_run_days``) into
    ``DayColumns``.  A noisy run computes its substream keys with one
    ``day_keys`` call per block and re-keys one Philox generator per day,
    drawing each day's normals, those of its ``day_rng``, into the
    block's array.  A noiseless run computes no keys and builds no
    generator.  A failing day raises ``SimulationError`` naming it, with
    the error of the first check it fails in the order of the module
    docstring; a noise step that fails names the tick it ends at.
    """
    book_ledger, columns = Ledger(), DayColumns()
    try:
        state = _run_days(scenario, book_ledger, columns)
    except (ValueError, OverflowError) as exc:
        raise SimulationError(f"day {len(columns) + 1}: {exc}") from exc
    return SimResult(columns, book_ledger, state)


# days per block: a 4096 x (stops + 1) float64 array and one day_keys call of 64 KB
_BLOCK_DAYS = 4096


def _run_days(scenario: Scenario, book_ledger: Ledger, columns: DayColumns) -> MarketState:
    """The run kernel: simulate days ``1..scenario.days`` from the initial state; returns the final state.

    Each finished day is booked into ``book_ledger`` and its numbers
    appended to ``columns``, so after an error ``len(columns)`` counts the
    days that finished and the ledger holds exactly those days; the failing
    day books nothing.  Between days the anchor and the permanent impact
    are carried as floats; the close becomes the next day's anchor, which
    is ``MarketState.start_day``.

    Every day is the same but for its noise, so the set-up is computed
    once, before the first block.  The day's orders are numbered in
    booking order (tick order, then agent-list order) and tabled as
    ``(stop, tick, spread, depth, notional)`` rows: the order's stop, its
    tick, its tick's full spread and depth and its signed notional.  The
    stops are, in tick order, tick 0, every tick with orders and the
    close.  A day takes one noise step per stop, over the ticks after the
    previous stop (from tick -1) up to it: its ``reversion_pull`` and the
    ``diffusion_coef`` of the one normal it draws are computed per stop.
    What does not read the price is computed as arrays over the orders:
    ``order_impact`` (costs and impacts) and the permanent impact before
    and after every order.  So is the first day that fails an order:
    ``_refusal`` replays day 1's orders from the ledger's sums, one at a
    time, which meets an order that drives the mid non-positive or that
    the ledger refuses.  If day 1 books, every day books the same micro
    amounts, ``first_refused_day`` finds the first day the ledger
    refuses, and ``_refusal`` replays it for its stop and error.  Then
    the days are computed in blocks of ``_BLOCK_DAYS``, in three steps.
    Only the draw and the chain go day by day:

    1. *Draw.*  Each noisy day draws its normals, one per stop, into a
       row of one array; ``diffusion_growth`` turns the block's rows into growth
       factors in place, each column with its step's ``diffusion_coef``.
       A day re-keys one Philox generator with its ``day_keys`` key,
       counter 0 and buffer empty, which is the state of a fresh
       ``day_rng``; the block's keys come from one ``day_keys`` call,
       read as two columns of ints and paired one day at a time, so the
       draw keeps no tracked object per day alive for the collector to
       walk.  A run without noise computes no keys and draws nothing.
    2. *The chain*, day by day: ``noise_step`` runs stop by stop and
       writes each stop's anchor into the row; a run with neither noise
       nor mean reversion keeps the day's anchor at every stop.  The
       failing day raises its refusal at its stop.
    3. *Booking*: ``fill_price`` of every fill and of the open, a fill of
       zero spread after tick 0's orders, over the finished days, checked
       with one min and one max; then the marks, ``book_days`` and the
       columns for the days before the first day with a price outside
       (0, inf), which then fails.

    The order of the module docstring is the contract: the result is
    bit-identical to composing ``advance_noise`` once per stop (over the
    segment's ``gap * dt_days``) and ``apply_aggressive_trade`` once per
    order, one day at a time, which the test suite checks at block
    boundaries.  A day fails with the error that this composition raises
    first: at each stop in turn its noise step, which names the stop's
    tick, then its orders, replayed through ``fill_order`` and
    ``record_fill`` to get their error; then the close, then the fills
    in booking order, then the open.  A day that fails on a price of
    step 3 comes before the block's failing chain day, so it wins.
    """
    noise, dt, profile = scenario.noise, scenario.clock.dt_days, scenario.profile
    placed = sorted(
        ((tick, notional) for agent in scenario.agents for tick in (agent.buy_tick, agent.sell_tick)
         for notional in orders_for_tick(agent, tick)),
        key=operator.itemgetter(0),
    )
    order_ticks = [tick for tick, _ in placed]
    stop_ticks = sorted({0, scenario.clock.close_tick, *order_ticks})
    firsts = np.searchsorted(order_ticks, stop_ticks)  # each stop's first order; firsts[1] ends tick 0's orders
    order_stop = [stop_ticks.index(tick) for tick in order_ticks]
    spreads, depths = profile.full_spread_bps[order_ticks], profile.depth[order_ticks]
    notionals = np.array([notional for _, notional in placed])
    orders = list(zip(order_stop, order_ticks, spreads.tolist(), depths.tolist(), notionals.tolist()))
    gaps = [tick - last for last, tick in zip([-1, *stop_ticks], stop_ticks)]
    revert, diffuse = noise.half_life_days is not None, noise.sigma_daily > 0.0
    pulls = [reversion_pull(noise, gap * dt) if revert else None for gap in gaps]
    coef = np.array([diffusion_coef(noise, gap * dt) for gap in gaps]) if diffuse else None
    steps = diffuse or revert
    book_per_price = scenario.total_book_value / scenario.initial_mid  # marked book value per unit of price
    # row i: day i's anchor, then its growth factors; after the chain, its anchor after each stop
    width = len(stop_ticks) + 1
    days = range(1, scenario.days + 1)
    rows = np.empty((min(len(days), _BLOCK_DAYS), width))
    flat = [1.0] * width
    state = scenario.initial_state()
    close = anchor = state.day_anchor
    fund = state.fundamental
    if diffuse:
        bits = np.random.Philox(key=0)  # re-keyed before every draw
        rng = np.random.Generator(bits)
        substream = {"counter": (0, 0, 0, 0), "key": None}
        rekeyed = {
            "bit_generator": "Philox",
            "state": substream,
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    # an overflow surfaces as a non-finite price, which the checks report
    with np.errstate(over="ignore", invalid="ignore"):
        # what does not read the price; perm[j] is the permanent impact before order j
        costs, perm_steps = order_impact(scenario.impact, spreads, depths, notionals)
        perm = np.zeros(len(orders) + 1)
        perm[1:] = perm_steps
        np.add.accumulate(perm, out=perm)
        tick_perm = perm[firsts].tolist()
        # the prices a day books: every order's fill, then the open, a zero-spread fill after tick 0's orders;
        # each reads the anchor of its stop's column
        price_col = [s + 1 if steps else 0 for s in [*order_stop, 0]]
        price_perm = np.append(perm[:-1], perm[firsts[1]])
        price_spreads, price_sides = np.append(spreads, 0.0), np.append(notionals, 1.0)
        close_perm = perm[-1].item()
        # the first day that fails, counted from 0 (len(days) if none), and its (stop, error)
        cash, spent = book_ledger.cash_micro, book_ledger.cumulative_cost_micro
        refused, refusal = 0, _refusal(scenario.impact, orders, cash, spent)
        if refusal is None:  # day 1 books, so every day books the same micro amounts
            notional_micro = list(map(to_micro, notionals.tolist()))
            cost_micro = list(map(to_micro, costs.tolist()))
            day_cost = from_micro(sum(cost_micro))
            refused = first_refused_day(book_ledger, notional_micro, cost_micro)
            if refused is None or refused >= len(days):
                refused = len(days)
            else:
                out, cost = sum(notional_micro) + sum(cost_micro), sum(cost_micro)
                refusal = _refusal(scenario.impact, orders, cash - refused * out, spent + refused * cost)
                if refusal is None:
                    raise RuntimeError(f"day {refused + 1}: first_refused_day refused an order that record_fill books")
        for start in range(0, len(days), _BLOCK_DAYS):
            n = min(_BLOCK_DAYS, len(days) - start)
            path = rows[:n]

            # 1. draw
            if diffuse:
                for i, key in enumerate(zip(*day_keys(scenario.seed, days[start : start + n]).T.tolist())):
                    substream["key"] = key
                    bits.state = rekeyed
                    rng.standard_normal(out=path[i, 1:])
                diffusion_growth(coef, path[:, 1:], out=path[:, 1:])

            # 2. the chain; the failing day raises at the stop of its first refused order
            bad_day = refused - start
            prev = close
            closes: list[float] = []
            try:
                for i in range(n):
                    row = path[i]
                    row[0] = anchor = close
                    if steps:
                        growth = row.tolist() if diffuse else flat
                        for s, tick in enumerate(stop_ticks):
                            anchor = noise_step(anchor, tick_perm[s], fund, pulls[s], growth[s + 1])
                            check_noise_price(anchor, tick=tick)
                            row[s + 1] = anchor
                            if i == bad_day and s == refusal[0]:
                                raise refusal[1]
                    elif i == bad_day:
                        raise refusal[1]
                    close = mid_price(anchor, close_perm)
                    if not 0.0 < close < math.inf:
                        raise ValueError(f"close is non-positive or non-finite: {close}")
                    closes.append(close)

            # 3. booking the finished days before the first with a price out of range, also when a day fails
            finally:
                if closes:
                    m = len(closes)
                    now = np.array(closes)
                    prevs = np.concatenate(([prev], now[:-1]))
                    priced = fill_price(path[:m, price_col], price_perm, price_spreads, price_sides)
                    if not (0.0 < priced.min() and priced.max() < math.inf):  # a NaN fails this too
                        bad = ~((priced > 0.0) & (priced < math.inf))
                        m = bad.any(axis=1).argmax().item()  # the first day with a price out of range fails
                    gains = mark_to_market(book_per_price * prevs[:m], prevs[:m], now[:m])
                    book_days(book_ledger, priced[:m, :-1], m, notional_micro, cost_micro)
                    columns.extend(prevs[:m], priced[:m, -1], now[:m], np.full(m, day_cost), gains)
                    if m < len(closes):
                        j = bad[m].argmax()
                        name = "open" if j == len(orders) else f"fill at tick {order_ticks[j]}"
                        raise ValueError(f"{name} is non-positive or non-finite: {priced[m, j].item()}")
    return MarketState(anchor, fund, close_perm)


def _refusal(impact: ImpactParams, orders: list[tuple], cash_micro: int, cost_micro: int) -> tuple[int, Exception] | None:
    """The stop and error of the first order that booking a day's orders one at a time refuses; None if it books them.

    Replays the day's ``(stop, tick, spread, depth, notional)`` order rows,
    from ledger sums at the day's start, through ``fill_order`` and
    ``record_fill`` on a scratch ledger, so the error and its message are
    theirs.
    """
    ledger = Ledger(cash_micro, cost_micro)
    perm = 0.0
    try:
        for s, tick, spread, depth, notional in orders:
            fill, cost, perm = fill_order(impact, spread, depth, 1.0, perm, notional, tick)
            record_fill(ledger, fill, notional, cost)
    except (ValueError, OverflowError) as exc:
        return s, exc
    return None


def run_sim(scenario: Scenario) -> list[DayRecord]:
    """Day records for one scenario; bit-identical for identical (scenario, seed)."""
    return simulate(scenario).columns.records()


def summarize(days: DayColumns | list[DayRecord] | tuple[DayRecord, ...]) -> RunSummary:
    """The totals of a run's ``DayColumns`` or of a sequence of ``DayRecord``s, each summed left to right."""
    _, prev, _, close, cost, gain, net = _table(days)
    if not (n := len(close)):
        raise ValueError("cannot summarize an empty run")
    initial, final = prev[0].item(), close[-1].item()
    total_cost, total_mtm, total_net = (sum(column.tolist()) for column in (cost, gain, net))
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


_CSV_BLOCK_ROWS = 1024  # rows formatted, joined and written at a time
_DAILY_ROW = "%s,%.6f,%.6f,%.6f,%.10f,%.10f,%.2f,%.2f,%.2f\n".__mod__


def write_daily_csv(days, path) -> None:
    """Daily CSV of ``DayColumns`` or ``DayRecord``s: prices to 6 decimals, returns to 10, currency to 2.

    Both are formatted from the columns that ``_table`` gives.  Before
    the file is opened, a price that is non-finite or would print as
    zero or less raises ``ValueError`` naming the first such day and
    field: ``read_daily_csv`` and ``analyze`` could not use such a file.
    """
    day, prev, opens, close, cost, gain, net = _table(days)
    prices = np.stack([prev, opens, close], axis=1)
    for i, j in zip(*np.nonzero(~((prices >= 1e-6) & (prices < math.inf)))):  # day by day, field by field
        price = prices[i, j].item()
        if not 0.0 < float(f"{price:.6f}") < math.inf:
            raise ValueError(
                f"day {day[i]}: {_DAY_COLUMNS[j]} {price!r} is non-finite or prints as "
                "non-positive with 6 decimals; the daily CSV would be unreadable"
            )
    with np.errstate(over="ignore"):  # the returns are overnight_return and intraday_return, elementwise
        columns = [day, prev, opens, close, (opens - prev) / prev, (close - opens) / opens, cost, gain, net]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(DAILY_CSV_HEADER + "\n")
        for start in range(0, len(day), _CSV_BLOCK_ROWS):
            rows = zip(*(column[start : start + _CSV_BLOCK_ROWS].tolist() for column in columns))
            fh.write("".join(map(_DAILY_ROW, rows)))


def read_daily_columns(fh) -> list[tuple]:
    """Columns day, prev_close, open, close, total_cost, mtm_gain, net_pnl of a daily CSV past its header."""
    rows = []
    for lineno, line in enumerate(fh, start=2):
        parts = line.rstrip("\n").split(",")
        if len(parts) != 9:
            if not line.strip():
                continue
            raise ValueError(f"line {lineno}: expected 9 columns, got {len(parts)}")
        try:
            rows.append((int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                         float(parts[6]), float(parts[7]), float(parts[8])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return list(zip(*rows)) or [()] * 7


def read_daily_csv(path) -> list[DayRecord]:
    """Parse a daily CSV produced by ``write_daily_csv``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        if (header := fh.readline().rstrip("\n")) != DAILY_CSV_HEADER:
            raise ValueError(f"not a daily simulation CSV: header is {header!r}")
        return list(map(DayRecord, *read_daily_columns(fh)))


# --- parameter sweeps -------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    params: tuple[tuple[str, float], ...]
    summary: RunSummary | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_cell(args: tuple[ScenarioConfig, tuple[tuple[str, float], ...]]) -> SweepCell:
    base, params = args
    try:
        summary = summarize(simulate(base.sweep_cell(params)).columns)
        return SweepCell(params, summary, None)
    except Exception as exc:  # cell failures must not abort the sweep
        return SweepCell(params, None, f"{type(exc).__name__}: {exc}")


def run_sweep(
    base: ScenarioConfig,
    grid: list[tuple[str, list[float]]],
    workers: int = 1,
) -> list[SweepCell]:
    """Run one scenario per grid point (cartesian product, row-major order).

    A cell's scenario is ``base`` with each of the cell's keys set, then
    built (``ScenarioConfig.sweep_cell``): the scenario that a config
    setting those keys builds.  Cells run independently, the pool with at
    most one worker per cell and per CPU this process may run on, since
    it starts all its workers at once; results are merged in grid order,
    so the output is identical whatever the worker count.  A failing cell is
    reported in its row and does not abort the others.  A grid that names
    a key twice, or both ``agents.book_value`` and ``agents.capital``, is a
    ``ValueError``: its cells would not run the values their rows show.
    """
    from .config import KEYS  # config imports this module

    if not grid:
        raise ValueError("sweep grid is empty")
    keys = [key for key, _ in grid]
    supported = [name for name, row in KEYS.items() if row.sweep]
    for key, values in grid:
        if key not in supported:
            raise ValueError(f"unknown sweep key {key!r}; supported keys: {', '.join(supported)}")
        if keys.count(key) > 1:
            raise ValueError(f"sweep key {key!r} appears more than once in the grid")
        if not values:
            raise ValueError(f"sweep key {key!r} has no values")
    if "agents.book_value" in keys and "agents.capital" in keys:
        raise ValueError("sweep keys 'agents.book_value' and 'agents.capital' both set the capital; sweep one of them")
    jobs = [(base, tuple(zip(keys, values))) for values in itertools.product(*(values for _, values in grid))]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(jobs), cpus)
    if workers <= 1:
        return [_run_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell, jobs))
