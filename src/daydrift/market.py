"""Intraday market model: clock, spread/depth profile, price impact, noise.

The model is a single security quoted by mid price over a fixed grid of
intraday ticks.  Liquidity varies across the day: the full bid-ask spread
starts wide at the open and tightens into the close, while displayed depth
does the opposite.  Aggressive orders pay half the full spread versus mid
and move the mid by an impact proportional to spread(t) / depth(t), so a
trade of a given size moves the price more early in the day than late.

Only the permanent share of an impact, ``permanent_fraction`` of it, moves
the price; the rest leaves no trace in any price, fill or cost.  Within
one trading day the permanent part accumulates additively in basis points
against the day's anchor price (the previous close); across days the
resulting drift compounds multiplicatively.  This keeps round trips
exactly linear in notional, which is what makes the closed-form impact
calibration below exact.

Noise is an Ornstein-Uhlenbeck process in the log of the mid: a
zero-drift diffusion plus an optional pull of ``log(mid)`` toward
``log(fundamental)`` that halves the log deviation every half-life.  A
step of any length is exact (Gillespie 1996, Phys. Rev. E 54, 2084): the
deviation shrinks by ``reversion_pull`` and one normal carries the
step's variance, ``diffusion_coef`` squared.

A tick is two steps: noise, then trades.  Each operation on
``MarketState`` (``advance_noise``, ``apply_aggressive_trade``) is the
one-step case of a step function below (``noise_step``, ``fill_order``);
a noise step may span several ticks, as it does between two of the
engine's stops.  The engine's run kernel calls the same step functions,
over whole segments of a day and, where they work elementwise
(``mid_price``, ``fill_price``, ``order_impact``, ``crossing_cost``,
``diffusion_growth``), over arrays of a block of days, so there is one
implementation of the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

BPS = 1e-4  # one basis point as a fraction


class CalibrationError(ValueError):
    """No impact coefficient can produce the requested net price drift."""


@dataclass(frozen=True)
class IntradayClock:
    """Tick grid for one trading day: open auction, regular ticks, close auction."""

    ticks_per_day: int = 392

    def __post_init__(self):
        if self.ticks_per_day < 2:
            raise ValueError(f"ticks_per_day must be >= 2, got {self.ticks_per_day}")

    @property
    def close_tick(self) -> int:
        return self.ticks_per_day - 1

    @property
    def dt_days(self) -> float:
        """Fraction of a day represented by one tick."""
        return 1.0 / self.ticks_per_day


@dataclass(frozen=True)
class SpreadDepthProfile:
    """Per-tick full spread (bps) and displayed depth (currency notional).

    ``full_spread_bps[t]`` is the whole bid-ask gap at tick t; an aggressive
    fill pays half of it relative to mid.  ``depth[t]`` is the notional
    available near the touch and sets the denominator of price impact.
    """

    full_spread_bps: np.ndarray
    depth: np.ndarray

    def __post_init__(self):
        spread = np.asarray(self.full_spread_bps, dtype=float)
        depth = np.asarray(self.depth, dtype=float)
        object.__setattr__(self, "full_spread_bps", spread)
        object.__setattr__(self, "depth", depth)
        if spread.ndim != 1 or depth.ndim != 1 or len(spread) != len(depth):
            raise ValueError("full_spread_bps and depth must be 1-D tables of equal length")
        if len(spread) < 2:
            raise ValueError("profile needs at least 2 ticks")
        if not np.all(np.isfinite(spread)) or not np.all(spread > 0):
            raise ValueError("full_spread_bps must be positive and finite at every tick")
        if not np.all(np.isfinite(depth)) or not np.all(depth > 0):
            raise ValueError("depth must be positive and finite at every tick")

    def __len__(self) -> int:
        return len(self.full_spread_bps)

    @classmethod
    def default(
        cls,
        n_ticks: int = 392,
        open_spread_bps: float = 15.0,
        close_spread_bps: float = 5.0,
        depth: float = 1e9,
    ) -> "SpreadDepthProfile":
        """Wide-open/tight-close profile: geometric spread decay, constant depth.

        Endpoints are pinned exactly to the requested open/close spreads so
        that costs computed at the auctions are exact.  An endpoint outside
        (0, inf) raises ``ValueError`` naming it, before any arithmetic; so
        does a close spread so far from the open one that one between leaves it.
        """
        if n_ticks < 2:
            raise ValueError("n_ticks must be >= 2")
        ends = {"open_spread_bps": open_spread_bps, "close_spread_bps": close_spread_bps, "depth": depth}
        for name, value in ends.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        frac = np.arange(n_ticks, dtype=float) / (n_ticks - 1)
        spread = open_spread_bps * (close_spread_bps / open_spread_bps) ** frac
        spread[0] = open_spread_bps
        spread[-1] = close_spread_bps
        if not np.all((spread > 0.0) & (spread < math.inf)):
            raise ValueError(f"close_spread_bps {close_spread_bps} is too far from the open spread {open_spread_bps}: "
                             f"an interpolated spread leaves (0, inf)")
        return cls(spread, np.full(n_ticks, float(depth)))

    @classmethod
    def constant(cls, n_ticks: int, spread_bps: float, depth: float) -> "SpreadDepthProfile":
        """Flat profile; useful as the no-asymmetry control."""
        return cls(np.full(n_ticks, float(spread_bps)), np.full(n_ticks, float(depth)))


@dataclass(frozen=True)
class ImpactParams:
    """Scale of price impact and the share of it that moves the price.

    ``lam`` is the dimensionless impact coefficient and
    ``permanent_fraction`` the share of each impact that persists.  Only
    their product ``permanent_fraction * lam`` reaches an output: an order
    moves the mid by ``permanent_fraction`` times its impact
    ``lam * spread/depth * |notional|`` bps, and ``calibrate_lambda``
    solves for ``lam`` given the fraction.  They stay two fields because
    one product parameter would reorder the float products, which can move
    output bits.
    """

    lam: float = 0.0
    permanent_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.permanent_fraction <= 1.0:
            raise ValueError(f"permanent_fraction must be in [0, 1], got {self.permanent_fraction}")


@dataclass(frozen=True)
class NoiseParams:
    """Exogenous price noise and a deliberately weak pull toward fundamental.

    ``half_life_days=None`` disables mean reversion entirely, and so does
    an infinite half-life, which is stored as None.  The default
    half-life of two trading years makes the anchor almost irrelevant on
    trading horizons, which is the point: nothing in the model snaps the
    price back to fundamental value.
    """

    sigma_daily: float = 0.01
    half_life_days: float | None = 504.0

    def __post_init__(self):
        if not 0.0 <= self.sigma_daily < math.inf:
            raise ValueError(f"sigma_daily must be finite and >= 0, got {self.sigma_daily}")
        if self.half_life_days == math.inf:
            object.__setattr__(self, "half_life_days", None)
        if self.half_life_days is not None and not self.half_life_days > 0:
            raise ValueError(f"half_life_days must be positive or None, got {self.half_life_days}")


@dataclass(frozen=True)
class MarketState:
    """Mid price state for one security.

    The mid is carried as ``day_anchor`` (the reference price for the
    current day, moved only by noise) plus ``perm_impact_bps``, the
    permanent impact accumulated since the day started.  ``mid`` puts the
    two together.
    """

    day_anchor: float
    fundamental: float
    perm_impact_bps: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.day_anchor < math.inf:
            raise ValueError(f"day anchor price must be positive and finite, got {self.day_anchor}")
        if not 0.0 < self.fundamental < math.inf:
            raise ValueError(f"fundamental must be positive and finite, got {self.fundamental}")

    @classmethod
    def initial(cls, mid: float, fundamental: float | None = None) -> "MarketState":
        return cls(day_anchor=float(mid), fundamental=float(fundamental if fundamental is not None else mid))

    @property
    def mid(self) -> float:
        """Quoted mid: day anchor plus accumulated permanent impact."""
        return mid_price(self.day_anchor, self.perm_impact_bps)

    def start_day(self) -> "MarketState":
        """Roll accumulated impact into a fresh anchor at a day boundary.

        The current mid becomes the new anchor, so drift earned on one day
        compounds into the base of the next.
        """
        return replace(self, day_anchor=self.mid, perm_impact_bps=0.0)


def mid_price(anchor: float, perm_bps: float) -> float:
    """Mid quoted from a day anchor and the permanent impact (bps) accrued against it.

    The form ``anchor + anchor*(perm*BPS)`` is kept exactly: swapped legs
    then negate the day's relative move bit for bit.
    """
    return anchor + anchor * (perm_bps * BPS)


def quoted_half_spread(profile: SpreadDepthProfile, t: int) -> float:
    """Half spread (bps) paid by an aggressive fill at tick ``t``."""
    _check_tick(profile, t)
    return float(profile.full_spread_bps[t]) / 2.0


def crossing_cost(notional: float, full_spread_bps: float) -> float:
    """Cost (currency) of one aggressive fill of ``notional`` against a quoted full spread.

    The fill executes half the full spread away from mid, so the cost is
    notional * spread/2.  Elementwise over arrays of notionals or spreads.
    """
    if np.less(notional, 0).any():
        raise ValueError(f"notional must be >= 0, got {notional}")
    if np.less(full_spread_bps, 0).any():
        raise ValueError(f"full_spread_bps must be >= 0, got {full_spread_bps}")
    return notional * (full_spread_bps * BPS) / 2.0


def impact_bps(
    params: ImpactParams, profile: SpreadDepthProfile, signed_notional: float, t: int
) -> float:
    """Signed total price impact (bps) of an aggressive trade at tick ``t``.

    Linear in notional and proportional to spread(t)/depth(t): the same
    order moves the price more where the market is wide and thin.
    """
    _check_tick(profile, t)
    if signed_notional == 0:
        return 0.0
    return _signed_impact(params, float(profile.full_spread_bps[t]), float(profile.depth[t]), signed_notional)


def _side(signed_notional):
    """+1.0 for a buy, -1.0 for anything else (a sell, zero or NaN); elementwise over an array."""
    return (signed_notional > 0) * 2.0 - 1.0


def _signed_impact(params: ImpactParams, spread_bps, depth, signed_notional):
    return _side(signed_notional) * params.lam * spread_bps * abs(signed_notional) / depth


def apply_aggressive_trade(
    state: MarketState,
    profile: SpreadDepthProfile,
    params: ImpactParams,
    signed_notional: float,
    t: int,
) -> tuple[float, float, MarketState]:
    """Execute one aggressive order; returns (fill_price, cost, new state).

    The fill happens half the spread away from mid on the taker's side.
    The permanent share of the impact is added to the day's accumulated
    drift.
    """
    _check_tick(profile, t)
    if signed_notional == 0:
        return state.mid, 0.0, state
    fill_price, cost, perm = fill_order(
        params,
        float(profile.full_spread_bps[t]),
        float(profile.depth[t]),
        state.day_anchor,
        state.perm_impact_bps,
        signed_notional,
        t,
    )
    return fill_price, cost, replace(state, perm_impact_bps=perm)


def fill_order(
    params: ImpactParams,
    spread_bps: float,
    depth: float,
    anchor: float,
    perm_bps: float,
    signed_notional: float,
    t: int,
) -> tuple[float, float, float]:
    """One nonzero aggressive order against a tick's full spread and depth.

    Returns ``(fill_price, cost, perm_bps)``: the fill, its spread cost,
    and the permanent impact after the trade.  It is ``fill_price`` and
    ``order_impact`` put together, and raises ``ValueError`` where the
    permanent impact after the trade puts the mid at or below zero.
    """
    price = fill_price(anchor, perm_bps, spread_bps, signed_notional)
    cost, perm_step = order_impact(params, spread_bps, depth, signed_notional)
    perm_bps += perm_step
    if 1.0 + perm_bps * BPS <= 0.0:
        raise ValueError(
            f"trade of {signed_notional} at tick {t} would drive the mid non-positive "
            f"(cumulative permanent impact {perm_bps} bps)"
        )
    return price, cost, perm_bps


def fill_price(anchor, perm_bps, spread_bps, signed_notional):
    """Price of an aggressive fill: half the full spread off the mid, on the taker's side.

    The only part of an order that reads the price.  Elementwise over
    arrays of anchors, impacts, spreads and notionals.
    """
    return mid_price(anchor, perm_bps) * (1.0 + _side(signed_notional) * (spread_bps / 2.0) * BPS)


def order_impact(params: ImpactParams, spread_bps, depth, signed_notional):
    """The parts of an aggressive order that do not read the price.

    Returns ``(cost, perm_step)``: the spread cost and the addition to the
    permanent impact (bps).  Elementwise over arrays of spreads, depths
    and notionals.
    """
    perm_step = params.permanent_fraction * _signed_impact(params, spread_bps, depth, signed_notional)
    return crossing_cost(abs(signed_notional), spread_bps), perm_step


def calibrate_lambda(
    profile: SpreadDepthProfile,
    params: ImpactParams,
    leg_notional: float,
    buy_tick: int,
    sell_tick: int,
    target_net_nudge_bps: float,
) -> float:
    """Impact coefficient that makes a daily buy/sell round trip drift the close by a target.

    A buy of Q at tick b and a sell of Q at tick s leave a net permanent
    drift of ``permanent_fraction * lam * Q * (s(b)/D(b) - s(s)/D(s))`` bps
    per day.  Because the model is linear the unique solution is closed
    form.  ``params.lam`` is ignored.

    Raises CalibrationError when the schedule has no spread/depth asymmetry
    (or no permanent component) and the target is nonzero, and when the
    solved ``lam`` is negative or not finite.
    """
    _check_tick(profile, buy_tick)
    _check_tick(profile, sell_tick)
    if buy_tick == sell_tick:
        raise CalibrationError("buy and sell ticks must differ")
    if target_net_nudge_bps == 0.0:
        return 0.0
    ratio_buy = float(profile.full_spread_bps[buy_tick]) / float(profile.depth[buy_tick])
    ratio_sell = float(profile.full_spread_bps[sell_tick]) / float(profile.depth[sell_tick])
    denom = params.permanent_fraction * leg_notional * (ratio_buy - ratio_sell)
    if denom == 0.0:
        raise CalibrationError(
            "schedule has zero net-impact asymmetry (equal spread/depth at both legs, "
            "zero leg, or zero permanent fraction); no lambda reaches a nonzero drift"
        )
    lam = target_net_nudge_bps / denom
    if not math.isfinite(lam):
        raise CalibrationError(
            f"target of {target_net_nudge_bps} bps needs an impact coefficient of {lam}, which is not finite"
        )
    if lam < 0:
        raise CalibrationError(
            f"target of {target_net_nudge_bps} bps needs a negative impact coefficient "
            "with this schedule; swap the buy/sell ticks instead"
        )
    return lam


def advance_noise(
    state: MarketState, noise: NoiseParams, dt_days: float, rng: np.random.Generator | None = None
) -> MarketState:
    """One noise step of length ``dt_days``: mean reversion, then diffusion.

    Mean reversion shrinks the log of the mid's ratio to fundamental by the
    exact exponential factor for the configured half-life; diffusion
    multiplies the mid by exp(c*z) with c the step's ``diffusion_coef``
    and z drawn from ``rng``, so log returns are centred on zero; only a
    step with positive sigma draws, so only it needs ``rng``.  With zero
    sigma and no half-life the state is returned untouched.
    """
    if not dt_days > 0:
        raise ValueError(f"dt_days must be positive, got {dt_days}")
    revert = noise.half_life_days is not None
    diffuse = noise.sigma_daily > 0.0
    if not revert and not diffuse:
        return state

    growth = 1.0
    if diffuse:
        with np.errstate(over="ignore"):
            growth = diffusion_growth(diffusion_coef(noise, dt_days), rng.standard_normal(1)).item()
    pull = reversion_pull(noise, dt_days) if revert else None
    anchor = noise_step(state.day_anchor, state.perm_impact_bps, state.fundamental, pull, growth)
    check_noise_price(anchor)
    return replace(state, day_anchor=anchor)


def diffusion_coef(noise: NoiseParams, dt_days: float) -> float:
    """Log-price diffusion per standard normal over a step of ``dt_days``.

    ``sigma*sqrt(dt)`` without mean reversion; with it, the standard
    deviation of the exact OU step, ``sigma*sqrt((1 - exp(-2*theta*dt))/(2*theta))``
    with ``theta = ln2/half_life``, computed with ``expm1`` because
    ``theta*dt`` is tiny for a weak pull.
    """
    if noise.half_life_days is None:
        return noise.sigma_daily * math.sqrt(dt_days)
    theta = math.log(2.0) / noise.half_life_days
    return noise.sigma_daily * math.sqrt(-math.expm1(-2.0 * theta * dt_days) / (2.0 * theta))


def diffusion_growth(coef: float | np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Growth factors ``exp(coef*z)`` of the anchor for standard normals ``z``.

    ``coef`` is ``diffusion_coef``: one for every step, or an array with
    one per column of ``z``, for steps of different lengths.  ``np.exp``
    gives each element the same bits whatever the array around it: one
    draw, a day's row, or the rows of a block of days written in place
    through ``out``.  It overflows to inf for absurd sigmas: call it under
    ``np.errstate(over="ignore")`` and check the price it produces.
    """
    return np.exp(np.multiply(coef, z, out=out), out=out)


def reversion_pull(noise: NoiseParams, dt_days: float) -> float:
    """Fraction of the log of the mid's ratio to fundamental left after ``dt_days`` of mean reversion."""
    return math.exp(-math.log(2.0) * dt_days / noise.half_life_days)


def noise_step(anchor: float, perm_bps: float, fundamental: float, pull: float | None, growth: float) -> float:
    """The anchor after one noise step: reversion by ``pull`` (None: off), then diffusion by ``growth``.

    Reversion moves the mid to ``fundamental * (mid/fundamental)**pull``,
    holding the permanent impact ``perm_bps``; a mid at fundamental stays.
    """
    if pull is not None:
        mid = mid_price(anchor, perm_bps)
        if mid != fundamental:
            anchor = fundamental * (mid / fundamental) ** pull / (1.0 + perm_bps * BPS)
    return anchor * growth


def check_noise_price(anchor: float, tick: int | None = None) -> None:
    """Raise ``ValueError`` unless a noise step left the anchor in (0, inf)."""
    if not 0.0 < anchor < math.inf:
        where = "" if tick is None else f" at tick {tick}"
        raise ValueError(f"noise step produced a non-positive or non-finite price{where}: {anchor}")


def _check_tick(profile: SpreadDepthProfile, t: int) -> None:
    if not 0 <= t < len(profile):
        raise IndexError(f"tick {t} outside profile of {len(profile)} ticks")
