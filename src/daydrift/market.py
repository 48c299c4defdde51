"""Intraday market model: clock, spread/depth profile, price impact, noise.

The model is a single security quoted by mid price over a fixed grid of
intraday ticks.  Liquidity varies across the day: the full bid-ask spread
starts wide at the open and tightens into the close, while displayed depth
does the opposite.  Aggressive orders pay half the full spread versus mid
and move the mid by an impact proportional to spread(t) / depth(t), so a
trade of a given size moves the price more early in the day than late.

Impact splits into a permanent part and a temporary part that decays tick
by tick.  Within one trading day the permanent part accumulates additively
in basis points against the day's anchor price (the previous close); across
days the resulting drift compounds multiplicatively.  This keeps round
trips exactly linear in notional, which is what makes the closed-form
impact calibration below exact.

Each operation on ``MarketState`` (``decay_temporary``, ``advance_noise``,
``apply_aggressive_trade``) is the one-tick case of a scalar step function
below (``decayed_temporary``, ``noise_step``, ``fill_order``).  The
engine's day kernel calls the same step functions, over whole segments of
the day, so there is one implementation of the model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

BPS = 1e-4  # one basis point as a fraction


class CalibrationError(ValueError):
    """No impact coefficient can produce the requested net price drift."""


@dataclass(frozen=True)
class IntradayClock:
    """Tick grid for one trading day: open auction, regular ticks, close auction."""

    ticks_per_day: int = 392
    days_per_year: int = 252

    def __post_init__(self):
        if self.ticks_per_day < 2:
            raise ValueError(f"ticks_per_day must be >= 2, got {self.ticks_per_day}")
        if self.days_per_year < 1:
            raise ValueError(f"days_per_year must be >= 1, got {self.days_per_year}")

    @property
    def open_tick(self) -> int:
        return 0

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
        that costs computed at the auctions are exact.
        """
        if n_ticks < 2:
            raise ValueError("n_ticks must be >= 2")
        if open_spread_bps <= 0 or close_spread_bps <= 0:
            raise ValueError("spread endpoints must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        frac = np.arange(n_ticks, dtype=float) / (n_ticks - 1)
        spread = open_spread_bps * (close_spread_bps / open_spread_bps) ** frac
        spread[0] = open_spread_bps
        spread[-1] = close_spread_bps
        return cls(spread, np.full(n_ticks, float(depth)))

    @classmethod
    def constant(cls, n_ticks: int, spread_bps: float, depth: float) -> "SpreadDepthProfile":
        """Flat profile; useful as the no-asymmetry control."""
        return cls(np.full(n_ticks, float(spread_bps)), np.full(n_ticks, float(depth)))


@dataclass(frozen=True)
class ImpactParams:
    """Scale and permanent/temporary split of price impact.

    ``lam`` is the dimensionless impact coefficient, ``permanent_fraction``
    the share of each impact that persists, and ``temporary_decay_per_tick``
    the fraction of outstanding temporary impact removed at every tick.
    """

    lam: float = 0.0
    permanent_fraction: float = 0.5
    temporary_decay_per_tick: float = 0.5

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 <= self.permanent_fraction <= 1.0:
            raise ValueError(f"permanent_fraction must be in [0, 1], got {self.permanent_fraction}")
        if not 0.0 <= self.temporary_decay_per_tick < 1.0:
            raise ValueError(
                f"temporary_decay_per_tick must be in [0, 1), got {self.temporary_decay_per_tick}"
            )


@dataclass(frozen=True)
class NoiseParams:
    """Exogenous price noise and a deliberately weak pull toward fundamental.

    ``half_life_days=None`` disables mean reversion entirely.  The default
    half-life of two trading years makes the anchor almost irrelevant on
    trading horizons, which is the point: nothing in the model snaps the
    price back to fundamental value.
    """

    sigma_daily: float = 0.01
    half_life_days: float | None = 504.0

    def __post_init__(self):
        if self.sigma_daily < 0:
            raise ValueError(f"sigma_daily must be >= 0, got {self.sigma_daily}")
        if self.half_life_days is not None and not self.half_life_days > 0:
            raise ValueError(f"half_life_days must be positive or None, got {self.half_life_days}")


@dataclass(frozen=True)
class MarketState:
    """Mid price state for one security.

    The mid is carried as ``day_anchor`` (the reference price for the
    current day, moved only by noise) plus ``perm_impact_bps``, the
    permanent impact accumulated since the day started.  ``mid`` puts the
    two together.  Temporary impact is tracked separately and never enters
    recorded prices; it is observable through ``effective_mid``.
    """

    day_anchor: float
    fundamental: float
    perm_impact_bps: float = 0.0
    temp_impact_bps: float = 0.0
    rng: np.random.Generator = field(default_factory=np.random.default_rng, repr=False)

    def __post_init__(self):
        if not self.day_anchor > 0:
            raise ValueError(f"day anchor price must be positive, got {self.day_anchor}")
        if not self.fundamental > 0:
            raise ValueError(f"fundamental must be positive, got {self.fundamental}")

    @classmethod
    def initial(
        cls,
        mid: float,
        fundamental: float | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "MarketState":
        if rng is None:
            rng = np.random.default_rng(seed)
        return cls(day_anchor=float(mid), fundamental=float(fundamental if fundamental is not None else mid), rng=rng)

    @property
    def mid(self) -> float:
        """Quoted mid: day anchor plus accumulated permanent impact."""
        return mid_price(self.day_anchor, self.perm_impact_bps)

    @property
    def effective_mid(self) -> float:
        """Mid including the not-yet-decayed temporary impact (diagnostic)."""
        return mid_price(self.day_anchor, self.perm_impact_bps + self.temp_impact_bps)

    def start_day(self, rng: np.random.Generator | None = None) -> "MarketState":
        """Roll accumulated impact into a fresh anchor at a day boundary.

        The current mid becomes the new anchor, so drift earned on one day
        compounds into the base of the next.  Temporary impact carries over
        and keeps decaying.
        """
        return replace(
            self,
            day_anchor=self.mid,
            perm_impact_bps=0.0,
            rng=rng if rng is not None else self.rng,
        )

    def decay_temporary(self, params: ImpactParams) -> "MarketState":
        """One tick of temporary-impact decay."""
        if self.temp_impact_bps == 0.0:
            return self
        return replace(self, temp_impact_bps=decayed_temporary(params, self.temp_impact_bps, 1))


def mid_price(anchor: float, perm_bps: float) -> float:
    """Mid quoted from a day anchor and the permanent impact (bps) accrued against it.

    The form ``anchor + anchor*(perm*BPS)`` is kept exactly: swapped legs
    then negate the day's relative move bit for bit.
    """
    return anchor + anchor * (perm_bps * BPS)


def decayed_temporary(params: ImpactParams, temp_bps: float, n_ticks: int) -> float:
    """Temporary impact (bps) after ``n_ticks`` ticks of decay.

    The result is the product of ``n_ticks`` successive multiplications by
    the retained fraction, in order, so any split of a run of ticks into
    segments gives the same bits as decaying tick by tick.
    """
    return math.prod(itertools.repeat(1.0 - params.temporary_decay_per_tick, n_ticks), start=temp_bps)


def quoted_half_spread(profile: SpreadDepthProfile, t: int) -> float:
    """Half spread (bps) paid by an aggressive fill at tick ``t``."""
    _check_tick(profile, t)
    return float(profile.full_spread_bps[t]) / 2.0


def crossing_cost(notional: float, full_spread_bps: float) -> float:
    """Cost (currency) of one aggressive fill of ``notional`` against a quoted full spread.

    The fill executes half the full spread away from mid, so the cost is
    notional * spread/2.
    """
    if notional < 0:
        raise ValueError(f"notional must be >= 0, got {notional}")
    if full_spread_bps < 0:
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
    depth = float(profile.depth[t])
    if depth <= 0:
        raise ValueError(f"degenerate market: depth[{t}] = {depth}")
    if signed_notional == 0:
        return 0.0
    return _signed_impact(params, float(profile.full_spread_bps[t]), depth, signed_notional)


def _signed_impact(params: ImpactParams, spread_bps: float, depth: float, signed_notional: float) -> float:
    sign = 1.0 if signed_notional > 0 else -1.0
    return sign * params.lam * spread_bps * abs(signed_notional) / depth


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
    drift; the rest joins the decaying temporary component.
    """
    _check_tick(profile, t)
    if signed_notional == 0:
        return state.mid, 0.0, state
    fill_price, cost, perm, temp = fill_order(
        params,
        float(profile.full_spread_bps[t]),
        float(profile.depth[t]),
        state.day_anchor,
        state.perm_impact_bps,
        state.temp_impact_bps,
        signed_notional,
        t,
    )
    new_state = replace(state, perm_impact_bps=perm, temp_impact_bps=temp)
    return fill_price, cost, new_state


def fill_order(
    params: ImpactParams,
    spread_bps: float,
    depth: float,
    anchor: float,
    perm_bps: float,
    temp_bps: float,
    signed_notional: float,
    t: int,
) -> tuple[float, float, float, float]:
    """One nonzero aggressive order against a tick's full spread and depth.

    Returns ``(fill_price, cost, perm_bps, temp_bps)``: the fill, its
    spread cost, and the permanent and temporary impact after the trade.
    """
    sign = 1.0 if signed_notional > 0 else -1.0
    fill_price = mid_price(anchor, perm_bps) * (1.0 + sign * (spread_bps / 2.0) * BPS)
    cost = crossing_cost(abs(signed_notional), spread_bps)
    total = _signed_impact(params, spread_bps, depth, signed_notional)
    perm_bps += params.permanent_fraction * total
    temp_bps += (1.0 - params.permanent_fraction) * total
    if 1.0 + perm_bps * BPS <= 0.0:
        raise ValueError(
            f"trade of {signed_notional} at tick {t} would drive the mid non-positive "
            f"(cumulative permanent impact {perm_bps} bps)"
        )
    return fill_price, cost, perm_bps, temp_bps


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
    (or no permanent component) and the target is nonzero.
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
    if lam < 0:
        raise CalibrationError(
            f"target of {target_net_nudge_bps} bps needs a negative impact coefficient "
            "with this schedule; swap the buy/sell ticks instead"
        )
    return lam


def advance_noise(state: MarketState, noise: NoiseParams, dt_days: float) -> MarketState:
    """One noise step of length ``dt_days``: mean reversion, then diffusion.

    Mean reversion shrinks the gap between mid and fundamental by the
    exact exponential factor for the configured half-life; diffusion
    multiplies the mid by exp(sigma*sqrt(dt)*z) with z drawn from the
    state's generator, so log returns are centred on zero.  With zero
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
            growth = diffusion_growth(noise, dt_days, state.rng.standard_normal(1)).item()
    pull = reversion_pull(noise, dt_days) if revert else None
    anchor = noise_step(state.day_anchor, state.perm_impact_bps, state.fundamental, pull, growth)
    check_noise_price(anchor)
    return replace(state, day_anchor=anchor)


def diffusion_growth(noise: NoiseParams, dt_days: float, z: np.ndarray) -> np.ndarray:
    """Per-tick growth factors ``exp(sigma*sqrt(dt)*z)`` of the anchor for standard normals ``z``.

    ``np.exp`` gives the same bits for one draw as for a whole day's array.
    It overflows to inf for absurd sigmas: call it under
    ``np.errstate(over="ignore")`` and check the price it produces.
    """
    return np.exp((noise.sigma_daily * math.sqrt(dt_days)) * z)


def diffusion_path(anchor: float, growth: np.ndarray) -> np.ndarray:
    """Anchor before and after each tick of pure diffusion: ``path[k]`` after ``k`` ticks.

    ``np.multiply.accumulate`` multiplies in order, so ``path[k]`` has the
    bits of ``k`` successive ``noise_step`` calls without reversion.  A
    price that leaves (0, inf) never comes back under positive factors, so
    checking the last entry checks the whole path; ``ValueError`` names the
    first tick out of range.  Call it under ``np.errstate(over="ignore",
    invalid="ignore")``: that check, not a warning, reports an overflow.
    """
    path = np.empty(len(growth) + 1)
    path[0] = anchor
    path[1:] = growth
    np.multiply.accumulate(path, out=path)
    if not 0.0 < path[-1] < math.inf:
        k = int(np.flatnonzero(~((path > 0.0) & (path < math.inf)))[0])
        check_noise_price(float(path[k]), tick=k - 1)
    return path


def reversion_pull(noise: NoiseParams, dt_days: float) -> float:
    """Fraction of the mid's gap to fundamental left after ``dt_days`` of mean reversion."""
    return math.exp(-math.log(2.0) * dt_days / noise.half_life_days)


def noise_step(anchor: float, perm_bps: float, fundamental: float, pull: float | None, growth: float) -> float:
    """The anchor after one noise tick: reversion by ``pull`` (None: off), then diffusion by ``growth``."""
    if pull is not None:
        deviation = mid_price(anchor, perm_bps) - fundamental
        if deviation != 0.0:
            anchor = (fundamental + deviation * pull) / (1.0 + perm_bps * BPS)
    return anchor * growth


def check_noise_price(anchor: float, tick: int | None = None) -> None:
    """Raise ``ValueError`` unless a noise step left the anchor in (0, inf)."""
    if not 0.0 < anchor < math.inf:
        where = "" if tick is None else f" at tick {tick}"
        raise ValueError(f"noise step produced a non-positive or non-finite price{where}: {anchor}")


def _check_tick(profile: SpreadDepthProfile, t: int) -> None:
    if not 0 <= t < len(profile):
        raise IndexError(f"tick {t} outside profile of {len(profile)} ticks")
