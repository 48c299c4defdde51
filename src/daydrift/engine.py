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
substream.  ``simulate`` draws a block of days at once with ``_draw``:
the Philox keys from one ``day_keys`` call, which gives the bits of
``SeedSequence`` for a seed of any width, then Philox4x64-10 and the fast
path of numpy's ziggurat over every day; a day the fast path rejects is
drawn again by numpy, so every day has its ``day_rng`` bits.

One run kernel computes every day of ``simulate``.  Every day places the
same orders, so the kernel computes the run's set-up once, at its start:
the day's orders and stops, the orders' costs and impacts, which do not
read the price, and each stop's noise coefficients.  The kernel works in
blocks of days.  Only the price chain goes day by day; the noise draw,
the fill prices, the marks and the ledger are computed over a block at a
time, the last three with the market model's step functions applied to
arrays.  The chain runs over plain floats, reading each block's growth
factors as one flat list: a run without mean reversion carries only its
close, and its stop anchors are rebuilt after the chain as column
products, while a reverting run appends each stop's anchor to one float
array.  Within a day it stops only at the stops and between them
advances the price over the whole gap.  The result has the bits of composing ``advance_noise``
once per noise step and ``apply_aggressive_trade`` once per order, in the
order above, one day at a time; after the close, the day's fill prices
in booking order and then its open must be in (0, inf).  Array checks find
a block's first failing day, and ``_fail_day`` replays that day alone
to raise its error.  A day without noise builds no substream.  A run is
its day columns and its ledger's sums; ``DayRecord``s are built when read.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .agents import RoundTripTrader, orders_for_tick
from .csvio import read_plain, undecodable, write_rows
from .ledger import Ledger, book_days, first_refused_day, from_micro, mark_to_market, record_fill, to_micro
from .market import (
    BPS,
    ImpactParams,
    IntradayClock,
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

class SimulationError(RuntimeError):
    """A day failed mid-run; the message names the day."""


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one simulation run; the day has one tick per entry of ``profile``."""

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
        for agent in self.agents:
            if agent.sell_tick >= self.clock.ticks_per_day:
                raise ValueError(
                    f"sell_tick: agent {agent.agent_id!r} trades at tick {agent.sell_tick}, outside the "
                    f"{self.clock.ticks_per_day}-tick day"
                )

    @property
    def clock(self) -> IntradayClock:
        return IntradayClock(len(self.profile))

    @property
    def total_book_value(self) -> float:
        # added left to right from 0 on every Python version, as summarize adds; from 3.12 sum compensates
        return functools.reduce(operator.add, (a.book_value for a in self.agents if a.enabled), 0)


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


# the daily CSV's columns in file order and their decimals, the day being the row's label;
# the readers keep the columns that are DayRecord's fields, at positions _KEPT, in its order
DAILY_CSV = {"day": None, "prev_close": 6, "open": 6, "close": 6, "overnight_ret": 10, "intraday_ret": 10,
             "total_cost": 2, "mtm_gain": 2, "net_pnl": 2}
DAILY_CSV_HEADER = ",".join(DAILY_CSV)
_KEPT = tuple(list(DAILY_CSV).index(field.name) for field in fields(DayRecord))


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


# Philox4x64-10 (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3", SC11), as numpy runs it:
# the multipliers of counter words 0 and 2 and the Weyl increments of key words 0 and 1, as columns
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None]
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M_HI, _PHILOX_M_LO = _PHILOX_M >> _SHIFT32, _PHILOX_M & _LOW32
# a ziggurat word: layer in bits 0-7, sign in bit 8, magnitude in bits 9-60
_LAYER, _SIGN, _MAGNITUDE_SHIFT, _MAGNITUDE = np.uint64(0xFF), np.uint64(0x100), np.uint64(9), np.uint64(2**52 - 1)


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 words of each 128-bit product of ``x``'s rows with ``_PHILOX_M``; overwrites ``x``."""
    lo = x * _PHILOX_M
    x_hi = x >> _SHIFT32
    x &= _LOW32
    mid = x_hi * _PHILOX_M_LO
    mid += (x * _PHILOX_M_LO) >> _SHIFT32  # below 2**64 - 2**32: no wrap
    x *= _PHILOX_M_HI
    x += mid & _LOW32
    x >>= _SHIFT32
    x_hi *= _PHILOX_M_HI
    x_hi += mid >> _SHIFT32
    x_hi += x
    return x_hi, lo


def _philox(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` words of a fresh ``Philox`` under each row's key, as an ``(n, 4 * blocks)`` uint64 array.

    After numpy's re-key (counter 0, buffer empty) a generator's words
    ``4(c-1)`` to ``4c-1`` are the Philox4x64-10 block at counter
    ``(c, 0, 0, 0)``.  The counter words are carried as pairs: rows
    (0, 2), which the round multiplies, and rows (1, 3).
    """
    n = len(keys)
    key = np.repeat(keys.T, blocks, axis=1)
    even = np.zeros((2, n * blocks), dtype=np.uint64)
    even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), n)
    odd = np.zeros_like(even)
    for round_ in range(10):
        if round_:
            key += _PHILOX_W
        hi, lo = _mulhilo(even)
        # counter words 0, 1, 2, 3 become hi(2) ^ 1 ^ key 0, lo(2), hi(0) ^ 3 ^ key 1, lo(0)
        even = hi[::-1]
        even ^= odd
        even ^= key
        odd = lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(n, 4 * blocks)


def _draw(seed: int, days: range, coef: np.ndarray, out: np.ndarray) -> None:
    """Set ``out`` to the growth factors of the noise of ``days``: row ``i`` for ``days[i]``, a column per stop.

    Row ``i`` first holds, bit for bit, the normals that
    ``day_rng(seed, days[i]).standard_normal(out=row)`` draws; then
    ``diffusion_growth`` turns them into growth factors in place, each
    column with its ``coef``.  The normals are computed for the whole
    block at once: the keys come from one ``day_keys`` call and every
    day's words from ``_philox``.  numpy's ziggurat takes one word per
    normal when the word's magnitude is below its layer's ``_ZIG_KI``,
    and the normal is then the magnitude times the layer's ``_ZIG_WI``,
    negated if the sign bit is set.  A day with a word that this fast
    path rejects draws further words, so it is drawn again as numpy draws
    it: one generator, re-keyed with the day's key at counter 0 with its
    buffer empty, which is the state of a fresh ``day_rng``, draws its row.
    """
    stops = out.shape[1]
    keys = day_keys(seed, days)
    words = _philox(keys, -(-stops // 4))[:, :stops]
    layers = words & _LAYER
    magnitudes = (words >> _MAGNITUDE_SHIFT) & _MAGNITUDE
    np.multiply(magnitudes, _ZIG_WI[layers], out=out)
    np.negative(out, out=out, where=(words & _SIGN).astype(bool))
    rejected = np.flatnonzero((magnitudes >= _ZIG_KI[layers]).any(axis=1))
    if rejected.size:
        rng = np.random.Generator(np.random.Philox(key=0))
        substream = {"counter": (0, 0, 0, 0), "key": None}
        rekeyed = {
            "bit_generator": "Philox",
            "state": substream,
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for i in rejected.tolist():
            substream["key"] = keys[i].tolist()
            rng.bit_generator.state = rekeyed
            rng.standard_normal(out=out[i])
    diffusion_growth(coef, out, out=out)


_DAY_COLUMNS = ("open", "close", "mtm_gain")


class DayColumns:
    """A run's per-day numbers as float64 columns named by ``_DAY_COLUMNS``; row ``i`` is day ``i + 1``.

    The run kernel sets ``first`` (day 1's previous close) and ``day_cost``
    (every day's cost), and appends each booked block with ``extend``.  The
    other ``DayRecord`` fields are computed when read (``_table``); ``records``
    sets each record field from its whole column (``_day_records``).
    """

    first, day_cost = math.nan, 0.0

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
        return _day_records([column.tolist() for column in _table(self)])


def _day_records(columns: list) -> list[DayRecord]:
    """``DayRecord``s from their columns, one per field in order, set a whole column at a time.

    Each row is made with ``object.__new__`` and each field set by mapping
    its slot descriptor's setter over the rows and the column, in C, so no
    Python frame runs per row.  The rows equal, hash, print and pickle as
    ``DayRecord(...)`` of the same values do, and stay frozen.
    """
    rows = list(map(object.__new__, itertools.repeat(DayRecord, len(columns[0]))))
    for field, column in zip(fields(DayRecord), columns):
        deque(map(getattr(DayRecord, field.name).__set__, rows, column), maxlen=0)
    return rows


def _table(days: "DayColumns | list[DayRecord] | tuple[DayRecord, ...]") -> list[np.ndarray]:
    """The columns of ``DayRecord`` (day, prev_close, ..., net_pnl) of ``DayColumns`` or of ``DayRecord``s."""
    if isinstance(days, DayColumns):
        opens, close, gain = (np.frombuffer(getattr(days, name)) for name in _DAY_COLUMNS)
        cost = np.broadcast_to(days.day_cost, close.shape)  # read-only, and no memory per day
        return [np.arange(1, len(close) + 1), np.append(days.first, close)[:-1], opens, close, cost, gain, gain - cost]
    return [np.array([getattr(r, f.name) for r in days]) for f in fields(DayRecord)]


@dataclass(frozen=True, eq=False)
class SimResult:
    """A run's ``DayColumns`` (three float64 columns) and its ledger's sums; ``records`` builds the rows."""

    columns: DayColumns
    ledger: Ledger

    @property
    def records(self) -> tuple[DayRecord, ...]:
        return tuple(self.columns.records())


def simulate(scenario: Scenario) -> SimResult:
    """Run the full scenario into its day columns and its ledger's sums.

    The run kernel computes the days in blocks (see ``_run_days``) into
    ``DayColumns``.  A noisy run draws each block's normals, those of
    each day's ``day_rng``, with one ``_draw`` call: one ``day_keys``
    call, then Philox and the ziggurat's fast path over the block, and
    numpy's own draw for the few days the fast path rejects.  A noiseless
    run computes no keys and builds no generator.  A failing day raises
    ``SimulationError`` naming it, with the error that ``_fail_day``
    raises when it replays the day; a noise step that fails names the
    tick it ends at.
    """
    book_ledger, columns = Ledger(), DayColumns()
    try:
        _run_days(scenario, book_ledger, columns)
    except (ValueError, OverflowError) as exc:
        raise SimulationError(f"day {len(columns) + 1}: {exc}") from exc
    return SimResult(columns, book_ledger)


# days per block: 4096 x stops float64 arrays of growth factors and anchors, and one day_keys call of 64 KB
_BLOCK_DAYS = 4096


def _run_days(scenario: Scenario, book_ledger: Ledger, columns: DayColumns) -> None:
    """The run kernel: simulate days ``1..scenario.days`` from the scenario's initial mid and fundamental.

    It sets ``columns.first`` and ``columns.day_cost``; each finished day
    is booked into ``book_ledger``'s sums and appended to ``columns``, so
    after an error ``len(columns)`` counts the days that finished and the
    sums hold exactly those days; the failing day books nothing.  The chain
    starts from the scenario's initial mid and fundamental as floats, and
    each close becomes the next day's anchor (``MarketState.start_day``).

    Every day is the same but for its noise, so the set-up is computed
    once, before the first block.  The day's orders are numbered in
    booking order (tick order, then agent-list order) and tabled as
    ``(stop, spread, depth, notional)`` rows: the order's stop, its tick's
    full spread and depth and its signed notional.  The stops are, in tick
    order, tick 0, every tick with orders and the close.  A day takes one
    noise step per stop, over the ticks after the previous stop (from tick
    -1) up to it: its ``reversion_pull`` and the ``diffusion_coef`` of the
    one normal it draws are computed per stop.  What does not read the
    price is computed as arrays over the orders: ``order_impact`` (costs
    and impacts) and the permanent impact before and after every order.
    So is the first day whose orders are refused: day 1 if an amount does
    not fit ``to_micro`` or an order puts ``1 + perm*BPS`` at or below 0,
    as ``fill_order`` refuses it; otherwise ``first_refused_day``, since
    every day books the same micro amounts.  Then the days are computed in
    blocks of ``_BLOCK_DAYS``, in three steps.  Only the chain goes day by
    day:

    1. *Draw.*  ``_draw`` sets the block's rows to each noisy day's
       normals, one per stop, those of its ``day_rng``, and
       ``diffusion_growth`` turns them into growth factors in place, each
       column with its step's ``diffusion_coef``.  It computes them as
       arrays over the block, from one ``day_keys`` call, and makes a
       per-day call only for a day that the ziggurat's fast path rejects,
       so the draw keeps no tracked object per day alive for the
       collector to walk.  A run without noise computes no keys and draws
       nothing.
    2. *The chain*, plain arithmetic on floats over the days before the
       refused day; it reads the block's growth factors as one flat list
       and appends each close to one float array.  Without mean reversion
       a stop's step is one multiply, which raises nothing: a day
       multiplies its row of factors (empty without noise) into the
       previous close, one array check after the loop finds the first
       close outside (0, inf), and the anchors are rebuilt a stop's column
       at a time in a new array, the chain's multiplies in its order (the
       previous close, without noise).  A reverting run's step is
       ``noise_step``'s ``**``: it appends each anchor to a second array
       and stops after the first close outside (0, inf).  No object per
       day outlives its day.
    3. *Booking*: ``fill_price`` of every fill and of the open, a fill of
       zero spread after tick 0's orders, over the chained days, checked
       with one min and one max; then the marks, the sums (``book_days``)
       and the open, close and gain columns for the days before the first
       failing day: the first day with a price outside (0, inf), with a
       close outside it, or refused.

    That day goes to ``_fail_day``, which holds the error order.  The
    noise steps need no check of their own: a stop's anchor outside
    (0, inf) puts the price that reads it outside too, the open at tick 0,
    the fill prices at an order's stop and the close at the close.  The result
    is bit-identical to composing ``advance_noise`` once per stop (over
    the segment's ``gap * dt_days``) and ``apply_aggressive_trade`` once
    per order, one day at a time, which the tests check at block edges.
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
    orders = list(zip(order_stop, spreads.tolist(), depths.tolist(), notionals.tolist()))
    gaps = [tick - last for last, tick in zip([-1, *stop_ticks], stop_ticks)]
    revert, diffuse = noise.half_life_days is not None, noise.sigma_daily > 0.0
    pulls = [reversion_pull(noise, gap * dt) if revert else None for gap in gaps]
    coef = np.array([diffusion_coef(noise, gap * dt) for gap in gaps]) if diffuse else None
    stops, days = len(stop_ticks), range(1, scenario.days + 1)
    block = min(len(days), _BLOCK_DAYS)
    growth = np.empty((block, stops)) if diffuse else None  # row i: day i's growth factors
    rebuilt = np.empty((block, stops)) if diffuse and not revert else None  # row i: day i's anchor after each stop
    columns.first = close = float(scenario.initial_mid)
    fund = float(scenario.initial_fundamental)
    # an overflow surfaces as a non-finite price, which the checks report
    with np.errstate(over="ignore", invalid="ignore"):
        # what does not read the price; perm[j] is the permanent impact before order j
        costs, perm_steps = order_impact(scenario.impact, spreads, depths, notionals)
        perm = np.zeros(len(orders) + 1)
        perm[1:] = perm_steps
        np.add.accumulate(perm, out=perm)
        tick_perm = perm[firsts].tolist()
        # the prices a day books: every order's fill, then the open, a zero-spread fill after tick 0's orders; each
        # reads its stop's column of a block's anchors (row i: day i), without steps the one column of previous closes
        price_col = [*order_stop, 0] if diffuse or revert else [0]
        price_perm = np.append(perm[:-1], perm[firsts[1]])
        price_spreads, price_sides = np.append(spreads, 0.0), np.append(notionals, 1.0)
        close_perm = perm[-1].item()
        lift = close_perm * BPS  # mid_price(anchor, close_perm) is anchor + anchor * lift
        # the first day whose orders are refused, counted from 0; len(days) if none
        refused = 0 if (1.0 + perm * BPS <= 0.0).any() else len(days)
        try:
            notional_micro = list(map(to_micro, notionals.tolist()))
            cost_micro = list(map(to_micro, costs.tolist()))
        except (ValueError, OverflowError):
            refused = 0
        else:
            columns.day_cost = from_micro(sum(cost_micro))
            first = first_refused_day(book_ledger, notional_micro, cost_micro)
            refused = refused if first is None else min(refused, first)
        for start in range(0, len(days), _BLOCK_DAYS):
            n = min(_BLOCK_DAYS, len(days) - start)

            # 1. draw
            if diffuse:
                _draw(scenario.seed, days[start : start + n], coef, growth[:n])

            # 2. the chain, over the days before the refused day; then the first close outside (0, inf)
            m = min(n, refused - start)
            closes = array("d", [close])
            if revert:  # noise_step's reversion is a **: stop after the first close outside (0, inf)
                factors = iter(growth[:m].ravel().tolist()) if diffuse else itertools.repeat(1.0)
                chained = array("d")
                for _ in range(m):
                    anchor = close
                    # zip ends the day on pulls, before it takes the next day's first factor
                    for pull, stop_perm, factor in zip(pulls, tick_perm, factors):
                        anchor = noise_step(anchor, stop_perm, fund, pull, factor)
                        chained.append(anchor)
                    close = mid_price(anchor, close_perm)
                    closes.append(close)
                    if not 0.0 < close < math.inf:
                        break
            else:  # a stop's step is one multiply, which raises nothing: carry the close alone, check the block after
                for row in zip(*[iter(growth[:m].ravel().tolist())] * stops) if diffuse else itertools.repeat((), m):
                    anchor = close
                    for factor in row:
                        anchor *= factor
                    close = anchor + anchor * lift
                    closes.append(close)
            path = np.frombuffer(closes)
            if m and not (0.0 < path.min() and path.max() < math.inf):  # a NaN fails this too
                m = (~((path[1:] > 0.0) & (path[1:] < math.inf))).argmax().item()
            if revert:
                anchors = np.frombuffer(chained).reshape(-1, stops)
            elif diffuse:  # the chain's multiplies in its order, a stop's column at a time: the same bits
                anchors, column = rebuilt[:m], path[:m]
                for s in range(stops):
                    column = np.multiply(column, growth[:m, s], out=anchors[:, s])
            else:
                anchors = path[:-1, None]

            # 3. booking the days before the first failing day, which is then replayed for its error
            priced = fill_price(anchors[:m, price_col], price_perm, price_spreads, price_sides)
            if m and not (0.0 < priced.min() and priced.max() < math.inf):  # a NaN fails this too
                m = (~((priced > 0.0) & (priced < math.inf))).any(axis=1).argmax().item()
            if m:
                prevs, now = path[:m], path[1 : m + 1]
                book_days(book_ledger, m, notional_micro, cost_micro)
                columns.extend(priced[:m, -1], now, _gains(scenario, prevs, now))
            if m < n:
                factors = growth[m].tolist() if diffuse else [1.0] * len(pulls)
                _fail_day(scenario.impact, orders, stop_ticks, pulls, fund, closes[m], factors, book_ledger)


def _gains(scenario: Scenario, prevs: np.ndarray, now: np.ndarray) -> np.ndarray:
    """The gains of the scenario's book, marked in proportion to the price, over closes ``now`` after ``prevs``."""
    return mark_to_market(scenario.total_book_value / scenario.initial_mid * prevs, prevs, now)


def _fail_day(impact: ImpactParams, orders: list[tuple], stop_ticks: list[int], pulls: list, fund: float,
              anchor: float, growth: list[float], ledger: Ledger) -> NoReturn:
    """Replay a day that the kernel's checks fail and raise its error, the first that its composition raises.

    The day starts from ``anchor``, its ``growth`` factors and the sums of
    ``ledger``.  At each stop in turn it runs ``noise_step`` and
    ``check_noise_price``, which names the stop's tick, then the stop's
    ``(stop, spread, depth, notional)`` order rows through ``fill_order``
    and ``record_fill`` on a scratch ledger; then it checks the close, the
    fill prices in booking order and the open.  A day that raises nothing raises
    ``RuntimeError``.
    """
    scratch = Ledger(ledger.cash_micro, ledger.cumulative_cost_micro)
    perm, prices = 0.0, []
    for s, tick in enumerate(stop_ticks):
        anchor = noise_step(anchor, perm, fund, pulls[s], growth[s])
        check_noise_price(anchor, tick=tick)
        for _, spread, depth, notional in (order for order in orders if order[0] == s):
            fill, cost, perm = fill_order(impact, spread, depth, anchor, perm, notional, tick)
            record_fill(scratch, notional, cost)
            prices.append((f"fill at tick {tick}", fill))
        if not s:
            open_price = mid_price(anchor, perm)
    for name, price in [("close", mid_price(anchor, perm)), *prices, ("open", open_price)]:
        if not 0.0 < price < math.inf:
            raise ValueError(f"{name} is non-positive or non-finite: {price}")
    raise RuntimeError("the kernel's checks failed a day whose replay raises no error")


def run_sim(scenario: Scenario) -> list[DayRecord]:
    """Day records for one scenario; bit-identical for identical (scenario, seed)."""
    return simulate(scenario).columns.records()


def summarize(days: DayColumns | list[DayRecord] | tuple[DayRecord, ...]) -> RunSummary:
    """The totals of a run's ``DayColumns`` or ``DayRecord``s, each added left to right from 0 on every Python version."""
    _, prev, _, close, cost, gain, net = _table(days)
    if not (n := len(close)):
        raise ValueError("cannot summarize an empty run")
    initial, final = prev[0].item(), close[-1].item()
    total_cost, total_mtm, total_net = (np.cumsum(np.append(0.0, column))[-1].item() for column in (cost, gain, net))
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


def write_daily_csv(days, path) -> None:
    """Daily CSV of ``DayColumns`` or ``DayRecord``s, each column with its decimals in ``DAILY_CSV``.

    Both are formatted from the columns that ``_table`` gives.  Before
    the file is opened, a price that is non-finite or would print as
    zero or less raises ``ValueError`` naming the first such day and
    field: ``read_daily_csv`` and ``analyze`` could not use such a file.
    """
    columns = {field.name: column for field, column in zip(fields(DayRecord), _table(days))}
    names = ("prev_close", "open", "close")
    prices = np.stack([columns[name] for name in names], axis=1)
    least = [10.0 ** -DAILY_CSV[name] for name in names]  # from 10**-d up a price prints as positive
    for i, j in zip(*np.nonzero(~((prices >= least) & (prices < math.inf)))):  # day by day, field by field
        name, price = names[j], prices[i, j].item()
        if not 0.0 < float(f"{price:.{DAILY_CSV[name]}f}") < math.inf:
            raise ValueError(
                f"day {columns['day'][i]}: {name} {price!r} is non-finite or prints as "
                f"non-positive with {DAILY_CSV[name]} decimals; the daily CSV would be unreadable"
            )
    prev, opens, close = (columns[name] for name in names)
    with np.errstate(over="ignore"):  # the returns are overnight_return and intraday_return, elementwise
        columns["overnight_ret"], columns["intraday_ret"] = (opens - prev) / prev, (close - opens) / opens
    label, *numbers = DAILY_CSV
    with open(path, "wb") as fh:
        fh.write(DAILY_CSV_HEADER.encode() + b"\n")
        write_rows(fh, columns[label], [columns[name] for name in numbers], tuple(DAILY_CSV[n] for n in numbers))


def _daily_block(cells: list[str]) -> list | None:
    """The columns ``read_daily_columns`` keeps of a plain block's cells, or None if a cell does not convert."""
    width, (day, *kept) = len(DAILY_CSV), _KEPT
    try:
        return [list(map(int, cells[day::width])), *(array("d", map(float, cells[i::width])) for i in kept)]
    except ValueError:
        return None


def read_daily_columns(path) -> list:
    """The columns of ``DayRecord``'s fields in the daily CSV at ``path``: the days as ints, then ``array('d')``s.

    The header must be ``DAILY_CSV_HEADER``, and the text UTF-8 (else ``undecodable``).  Plain blocks are
    converted a column at a time (``read_plain`` with ``_daily_block``); from the first that is declined,
    the rest goes line by line through the loop below, which defines what is accepted and every error.
    """
    width, (day, *kept) = len(DAILY_CSV), _KEPT
    columns = [[], *(array("d") for _ in kept)]
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            if (header := fh.readline().rstrip("\n")) != DAILY_CSV_HEADER:
                raise ValueError(f"not a daily simulation CSV: header is {header!r}")
            read, rest = read_plain(fh, width, _daily_block, columns)
            for lineno, line in enumerate(rest, start=2 + read):
                parts = line.rstrip("\n").split(",")
                if len(parts) != width:
                    if not line.strip():
                        continue
                    raise ValueError(f"line {lineno}: expected {width} columns, got {len(parts)}")
                try:
                    row = (int(parts[day]), *[float(parts[i]) for i in kept])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
                for column, value in zip(columns, row):
                    column.append(value)
        except UnicodeDecodeError:
            raise undecodable(path) from None
    return columns


def read_daily_csv(path) -> list[DayRecord]:
    """The ``DayRecord``s of a daily CSV produced by ``write_daily_csv``, as ``read_daily_columns`` reads them."""
    return _day_records(read_daily_columns(path))


# --- parameter sweeps -------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    params: tuple[tuple[str, float], ...]
    summary: RunSummary | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_path(base: ScenarioConfig, path: list[tuple[tuple[str, float], ...]]) -> list[SweepCell]:
    """The cells of one price path (``sweep_paths``): one ``simulate``, then each cell's gains marked at its book.

    Each cell is built on its own, so a cell whose build fails fails alone.
    The cells that build differ only in the agents' capital and leverage,
    which only ``_gains`` reads; the first is simulated, and if that fails,
    so does each of them, with its error.
    """
    cells, run = [], None
    for params in path:
        try:
            scenario = base.sweep_cell(params)
        except Exception as exc:  # cell failures must not abort the sweep
            cells.append(SweepCell(params, None, _error(exc)))
            continue
        if run is None:  # the first cell that builds
            try:
                run = simulate(scenario).columns
            except Exception as exc:
                run = _error(exc)
        if isinstance(run, str):
            cells.append(SweepCell(params, None, run))
            continue
        # the run's columns are this path's own, so each cell overwrites the gains in place
        _, prev, _, close, _, gain, _ = _table(run)
        gain[:] = _gains(scenario, prev, close)
        cells.append(SweepCell(params, summarize(run), None))
    return cells


# the keys that set the agents' book, which only the gains read
_BOOK_KEYS = ("agents.book_value", "agents.capital", "agents.leverage")


def sweep_paths(cells: list[tuple[tuple[str, float], ...]]) -> list[list[int]]:
    """The indices of sweep ``cells`` grouped by price path: cells whose other keys print the same share one.

    Groups are in order of their first cell, and each in grid order.
    Values are compared by ``repr``, so ``0.0`` and ``-0.0`` run apart.
    """
    paths: dict[str, list[int]] = {}
    for i, params in enumerate(cells):
        paths.setdefault(repr([param for param in params if param[0] not in _BOOK_KEYS]), []).append(i)
    return list(paths.values())


def run_sweep(base: ScenarioConfig, grid: list[tuple[str, list[float]]]) -> list[SweepCell]:
    """One summary per grid point (cartesian product, row-major order), from one price path per group of cells.

    A cell's scenario is ``base`` with each of the cell's keys set, then
    built (``ScenarioConfig.sweep_cell``): the scenario that a config
    setting those keys builds.  Cells that differ only in the book's keys
    (``agents.book_value``, ``agents.capital``, ``agents.leverage``) share
    one price path (``sweep_paths``), which ``_run_path`` simulates once
    and marks per cell, so each cell's summary has the bits of its own
    run.  Paths run one after another in this process, and their cells are
    merged in grid order.  A failing cell is reported in its row and
    does not abort the others; a failing run fails every cell of its path.
    A grid that names a key twice, or both ``agents.book_value`` and
    ``agents.capital``, is a ``ValueError``: its cells would not run the
    values their rows show.
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
    cells = [tuple(zip(keys, values)) for values in itertools.product(*(values for _, values in grid))]
    paths = sweep_paths(cells)
    runs = [_run_path(base, [cells[i] for i in path]) for path in paths]
    swept = dict(zip(itertools.chain(*paths), itertools.chain(*runs)))
    return [swept[i] for i in range(len(cells))]


# --- the ziggurat tables -------------------------------------------------------

# numpy's ziggurat for the standard normal (Marsaglia & Tsang 2000, "The ziggurat method for generating
# random variables", J. Stat. Softw. 5(8)): its 256-layer tables wi_double and ki_double, from numpy's
# ziggurat_constants.h, as little-endian bytes.  A layer's normal is its word's magnitude times _ZIG_WI,
# taken at once when the magnitude is below _ZIG_KI.
_ZIG_WI = np.frombuffer(bytes.fromhex(
    "79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c0ca72fe8fc01983cbcd04c2e0c239a3c"
    "f761382f4d009c3c7472745a2fac9d3cc3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13c"
    "f51a7a8fa227a23c80d863382eb5a23cf59157c03f3ca33c2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c"
    "74d31a627525a53c96ce07a78095a53cea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c"
    "772ab310ad98a73c43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93cea1e2c824763a93c"
    "46c5388ec9b9a93c2ca7a4dccc0eaa3c59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c"
    "3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c613b32a5138aac3c8b2672fec9d4ac3c48b7800e9f1ead3c"
    "101fe4299d67ad3cc3b82300ceafad3c5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c"
    "2662f084e70daf3c88f6d854f651af3caed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03c"
    "fca5169eea4eb03c10a0725b566fb03c0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03c"
    "ee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c34da781aa789b13c886dee511ba8b13c"
    "cb2af8f866c6b13c2ed4e0938be4b13c9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c"
    "7fd31d662a79b23c1bd719c78196b23cda2eb862bbb3b23c53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c"
    "30b9f4e18e27b33ca15e26704444b33cd552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33c"
    "e01d569886d2b33c835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c5dc7ca73f75eb43c"
    "36c3669edf7ab43c2f8f4832ba96b43c5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c"
    "5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c785f550e0074b53c14850ec6818fb53c591b2423fdaab53c"
    "3d737dd172c6b53cd38c2f7be3e1b53c385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c"
    "7296c957e26ab63c3731b1834286b63cb1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63c"
    "eb688bf7270fb73cc61469518e2ab73cdcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c"
    "09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c7686c8da0022b83c159f89cea23db83c"
    "bdf5d11f4e59b83cc57e7a6f0375b83c2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c"
    "8fb573293a00b93c478328dc381cb93cfc0aef124638b93c8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93c"
    "bf993f9319a9b93c2cd9d58c79c5b93c11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c"
    "88bb0b9e7f54ba3ca4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c36b38be1b4e5ba3c"
    "1aa1c34f0b03bb3c5b989af07c20bb3c000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c"
    "6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3ca016ec6c4810bc3c2d7af0e5d72ebc3c1c0d6e138c4dbc3c"
    "0587ec08666cbc3c17a6ebe0668bbc3caba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c"
    "20ef3710db28bd3c47c63315de48bd3c23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c"
    "372e5295d1ebbd3c1cd249fb060dbe3cf646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c"
    "086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c6d4db70fa442bf3c6801c9205f66bf3c"
    "82978904668abf3cbf227118bbaebf3c85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03c"
    "ab02a983a934c03cc7f53e4eda47c03c7eb3adf63b5bc03c6826a723d06ec03c172e638f9882c03c54a2e8089796c03c"
    "c4c07175cdaac03c48d4eed13dbfc03c303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c"
    "355dbb9b2129c13c6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13caceb4e561a9ac13c"
    "8e2f7f77adb1c13c94a671a99cc9c13c39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c"
    "249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c780e77cd2e98c23c520a2a5337b4c23c97db9631d4d0c23c"
    "f578a9b10deec23ceeae56d2ec0bc33ca3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33c"
    "fa88ae7075acc33ca60417b327cfc33c75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43c"
    "bc439c75628dc43c275a6b9d73b7c43c0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53c"
    "d98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63cc3e59fbe4095c63c32e2098d6bdbc63c"
    "347a5ff02827c73c730609569579c73c8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93c"
    "ab574001eecbc93c5a779478dc8fca3cb1fd78381f98cb3c33ad0982b43bcd3c"
), dtype="<f8")
_ZIG_KI = np.frombuffer(bytes.fromhex(
    "6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00eaeec17ef6510e007ef7d3e955b20e00"
    "b9ca7e814bef0e00aa44fa0a47190f0018cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f00"
    "9a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f0009f5db07a99d0f0074fa81f560a30f00"
    "f84b5bde6fa80f00dc54d360f1ac0f000fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00"
    "ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f0031ee7a97a2c60f00a49628a97ac80f00"
    "85de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f00"
    "50f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00ec998ec089d60f0032e8c8a96ed70f00"
    "e8087b5448d80f008c2cad8b17d90f00d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00"
    "7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f004e518d70eede0f002eb4a60174df0f00"
    "40ed9965f4df0f00f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00"
    "911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f007fad9ee910e40f003477d44667e40f00"
    "5c094cd3bae40f002495d2ae0be50f0078bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f00"
    "78d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00399e3e827be70f00a27070e3b6e70f00"
    "4342778df0e70f008cf0539028e80f003a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f00"
    "1d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00d5b69426dfe90f007ce6ab7309ea0f00"
    "a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f00"
    "13ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f001420e65f96eb0f007c9dcff4b4eb0f00"
    "d049f4b8d2eb0f003e2e6eb1efeb0f00e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00"
    "f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f0015fb5484d3ec0f00b3c88874e9ec0f00"
    "b7917fc4feec0f002885357713ed0f000349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00"
    "e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00b46a74c8b3ed0f00526641dfc2ed0f00"
    "526ea471d1ed0f00d38a3c81dfed0f008099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00"
    "e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00f48229ee47ee0f0086b01d2751ee0f00"
    "417f40e959ee0f002eb4283562ee0f00f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00"
    "b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00ea29a85198ee0f005c48130e9cee0f00"
    "f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f00"
    "3b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00241d4878a6ee0f00839ea28aa4ee0f00"
    "dae4221da2ee0f002420352e9fee0f002eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00"
    "7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f005ebda9c36cee0f007e009e5264ee0f00"
    "8828a3455bee0f00b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00"
    "5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f007e0422e4dbed0f00d339ce0ecbed0f00"
    "f42c0464b9ed0f00c938e9dca6ed0f008de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f00"
    "22a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00b8b70e10d4ec0f00b46e9508b7ec0f00"
    "c13012b698ec0f0078a90d0a79ec0f00fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f00"
    "92b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f004b2d0bb013eb0f00e9021a59e2ea0f00"
    "572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f00"
    "28471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f0040a990f604e80f00c0338248abe70f00"
    "a56a1f754ce70f0002a22a10e8e60f00d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00"
    "58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f005755990300e20f00148378823ce10f00"
    "b067eec468e00f00aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00"
    "75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00acc7b4a7a1d10f009e1f7604e2ce0f00"
    "b2115ed8a8cb0f00222dcd6ed2c70f00ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f00"
    "9845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00"
), dtype="<u8")
