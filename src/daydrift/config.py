"""Scenario config files: sectioned key=value text, validated before any run.

Every key is checked against the owning type's constraints up front, and
unknown sections or keys are hard errors, so a run either starts with a
fully valid scenario or not at all.  A key the model no longer has gets
its own message, saying why it went.  Error messages name the offending
``section.key``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .agents import RoundTripTrader, split_trader
from .engine import Scenario
from .market import ImpactParams, IntradayClock, NoiseParams, SpreadDepthProfile


class ConfigError(ValueError):
    """Invalid or unknown configuration; message names the key."""


_SCHEMA: dict[str, tuple[str, ...]] = {
    "clock": ("ticks_per_day", "days_per_year"),
    "profile": ("spread_open_bps", "spread_close_bps", "depth"),
    "impact": ("lambda", "permanent_fraction"),
    "noise": ("sigma_daily", "mean_reversion_half_life_days"),
    "agents": (
        "count",
        "capital",
        "leverage",
        "leg_notional",
        "buy_tick",
        "sell_tick",
        "enabled",
        "leg_growth_per_day",
    ),
    "run": ("days", "seed", "initial_mid", "initial_fundamental"),
    "output": ("daily_csv",),
}

# keys older configs may set, with why they went
_REMOVED_KEYS: dict[str, str] = {
    "impact.temporary_decay_per_tick": "temporary impact reached no price, fill or cost, so the model dropped it",
}


def check_removed_key(name: str) -> None:
    """Raise ``ConfigError`` when ``name`` (``section.key``) is a removed key."""
    reason = _REMOVED_KEYS.get(name)
    if reason is not None:
        raise ConfigError(f"{name}: removed key; {reason}; delete the setting")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scalar view of a config file; ``build()`` makes the Scenario."""

    ticks_per_day: int = 392
    days_per_year: int = 252
    spread_open_bps: float = 15.0
    spread_close_bps: float = 5.0
    depth: float = 1e9
    lam: float = 0.0
    permanent_fraction: float = 0.5
    sigma_daily: float = 0.01
    mean_reversion_half_life_days: float | None = 504.0
    has_agents: bool = True
    agent_count: int = 1
    capital: float = 1e9
    leverage: float = 10.0
    leg_notional: float = 1e7
    buy_tick: int = 0
    sell_tick: int = -1  # -1 means the close auction
    enabled: bool = True
    leg_growth_per_day: float = 1.0
    days: int = 1
    seed: int = 0
    initial_mid: float = 100.0
    initial_fundamental: float | None = None
    daily_csv: str | None = None

    def build(self) -> Scenario:
        clock = IntradayClock(self.ticks_per_day, self.days_per_year)
        profile = SpreadDepthProfile.default(
            self.ticks_per_day, self.spread_open_bps, self.spread_close_bps, self.depth
        )
        impact = ImpactParams(self.lam, self.permanent_fraction)
        noise = NoiseParams(self.sigma_daily, self.mean_reversion_half_life_days)
        agents: tuple[RoundTripTrader, ...] = ()
        if self.has_agents:
            sell = self.sell_tick if self.sell_tick >= 0 else clock.close_tick
            template = RoundTripTrader(
                capital=self.capital,
                leverage=self.leverage,
                leg_notional=self.leg_notional,
                buy_tick=self.buy_tick,
                sell_tick=sell,
                enabled=self.enabled,
            )
            agents = tuple(split_trader(self.agent_count, template))
        return Scenario(
            clock=clock,
            profile=profile,
            impact=impact,
            noise=noise,
            agents=agents,
            days=self.days,
            seed=self.seed,
            initial_mid=self.initial_mid,
            initial_fundamental=(
                self.initial_fundamental if self.initial_fundamental is not None else self.initial_mid
            ),
            leg_growth_per_day=self.leg_growth_per_day,
        )


def _fail(section: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"{section}.{key}: {message}")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _fail(section, key, f"not a number: {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(section, key, f"not an integer: {raw!r}") from None


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise _fail(section, key, f"not a boolean: {raw!r}")


def _parse_tick(section: str, key: str, raw: str, ticks_per_day: int) -> int:
    lowered = raw.strip().lower()
    if lowered == "open":
        return 0
    if lowered == "close":
        return ticks_per_day - 1
    tick = _parse_int(section, key, raw)
    if not 0 <= tick < ticks_per_day:
        raise _fail(section, key, f"tick {tick} outside the {ticks_per_day}-tick day")
    return tick


def load_config(path) -> ScenarioConfig:
    """Parse and fully validate a scenario config file."""
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                check_removed_key(f"{section}.{key}")
                raise ConfigError(f"{section}.{key}: unknown key")

    def get(section: str, key: str) -> str | None:
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key].strip()
        return None

    cfg = ScenarioConfig()
    values: dict[str, object] = {}

    raw = get("clock", "ticks_per_day")
    ticks = _parse_int("clock", "ticks_per_day", raw) if raw is not None else cfg.ticks_per_day
    if ticks < 2:
        raise _fail("clock", "ticks_per_day", f"must be >= 2, got {ticks}")
    values["ticks_per_day"] = ticks

    raw = get("clock", "days_per_year")
    if raw is not None:
        dpy = _parse_int("clock", "days_per_year", raw)
        if dpy < 1:
            raise _fail("clock", "days_per_year", f"must be >= 1, got {dpy}")
        values["days_per_year"] = dpy

    for key in ("spread_open_bps", "spread_close_bps", "depth"):
        raw = get("profile", key)
        if raw is not None:
            value = _parse_float("profile", key, raw)
            if not value > 0:
                raise _fail("profile", key, f"must be positive, got {value}")
            values[key] = value

    raw = get("impact", "lambda")
    if raw is not None:
        lam = _parse_float("impact", "lambda", raw)
        if not 0.0 <= lam < math.inf:
            raise _fail("impact", "lambda", f"must be finite and >= 0, got {lam}")
        values["lam"] = lam
    raw = get("impact", "permanent_fraction")
    if raw is not None:
        pf = _parse_float("impact", "permanent_fraction", raw)
        if not 0.0 <= pf <= 1.0:
            raise _fail("impact", "permanent_fraction", f"must be in [0, 1], got {pf}")
        values["permanent_fraction"] = pf

    raw = get("noise", "sigma_daily")
    if raw is not None:
        sigma = _parse_float("noise", "sigma_daily", raw)
        if not 0.0 <= sigma < math.inf:
            raise _fail("noise", "sigma_daily", f"must be finite and >= 0, got {sigma}")
        values["sigma_daily"] = sigma
    raw = get("noise", "mean_reversion_half_life_days")
    if raw is not None:
        if raw.lower() == "none":
            values["mean_reversion_half_life_days"] = None
        else:
            half_life = _parse_float("noise", "mean_reversion_half_life_days", raw)
            if not half_life > 0:
                raise _fail(
                    "noise", "mean_reversion_half_life_days", f"must be positive or 'none', got {half_life}"
                )
            values["mean_reversion_half_life_days"] = half_life

    values["has_agents"] = parser.has_section("agents")
    if parser.has_section("agents"):
        raw = get("agents", "count")
        if raw is not None:
            count = _parse_int("agents", "count", raw)
            if count < 1:
                raise _fail("agents", "count", f"must be >= 1, got {count}")
            values["agent_count"] = count
        for key in ("capital", "leverage", "leg_notional"):
            raw = get("agents", key)
            if raw is not None:
                value = _parse_float("agents", key, raw)
                if key == "leg_notional":  # may be negative (sell-first round trip)
                    if not math.isfinite(value):
                        raise _fail("agents", key, f"must be finite, got {value}")
                elif not 0.0 < value < math.inf:
                    raise _fail("agents", key, f"must be positive and finite, got {value}")
                values[key] = value
        raw = get("agents", "buy_tick")
        buy = _parse_tick("agents", "buy_tick", raw, ticks) if raw is not None else 0
        raw = get("agents", "sell_tick")
        sell = _parse_tick("agents", "sell_tick", raw, ticks) if raw is not None else ticks - 1
        if not buy < sell:
            raise _fail("agents", "sell_tick", f"must be after buy_tick {buy}, got {sell}")
        values["buy_tick"] = buy
        values["sell_tick"] = sell
        raw = get("agents", "enabled")
        if raw is not None:
            values["enabled"] = _parse_bool("agents", "enabled", raw)
        raw = get("agents", "leg_growth_per_day")
        if raw is not None:
            growth = _parse_float("agents", "leg_growth_per_day", raw)
            if not 0.0 < growth < math.inf:
                raise _fail("agents", "leg_growth_per_day", f"must be positive and finite, got {growth}")
            values["leg_growth_per_day"] = growth

    raw = get("run", "days")
    if raw is not None:
        days = _parse_int("run", "days", raw)
        if days < 1:
            raise _fail("run", "days", f"must be >= 1, got {days}")
        values["days"] = days
    raw = get("run", "seed")
    if raw is not None:
        seed = _parse_int("run", "seed", raw)
        if seed < 0:
            raise _fail("run", "seed", f"must be >= 0, got {seed}")
        values["seed"] = seed
    for key in ("initial_mid", "initial_fundamental"):
        raw = get("run", key)
        if raw is not None:
            value = _parse_float("run", key, raw)
            if not value > 0:
                raise _fail("run", key, f"must be positive, got {value}")
            values[key] = value

    raw = get("output", "daily_csv")
    if raw is not None:
        values["daily_csv"] = raw

    config = ScenarioConfig(**values)
    # book and leg consistency is owned by the agent type; surface it with a key name
    if config.has_agents and not config.capital * config.leverage < math.inf:
        raise _fail(
            "agents", "leverage", f"book value capital * leverage overflows: {config.capital} * {config.leverage}"
        )
    if config.has_agents and abs(config.leg_notional) > config.capital * config.leverage:
        raise _fail(
            "agents",
            "leg_notional",
            f"{config.leg_notional} exceeds book value {config.capital * config.leverage}",
        )
    return config
