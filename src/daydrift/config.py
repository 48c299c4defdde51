"""Scenario config files: sectioned key=value text, validated before any run.

``KEYS`` is the one table of keys: each ``section.key``, the
``ScenarioConfig`` field it sets, named as in the type that owns the
field, and its type.  It drives parsing, error naming, the sweep grid's
integer literals and ``engine.apply_override``.  This module only parses:
the owning types check every range when ``build()`` makes the scenario,
which ``load_config`` does, and ``keyed`` names the key in their errors.
Unknown sections or keys are hard errors, and a key the model no longer
has gets its own message, saying why it went.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from typing import NamedTuple

from .agents import RoundTripTrader, split_trader
from .engine import Scenario
from .market import ImpactParams, IntradayClock, NoiseParams, SpreadDepthProfile


class ConfigError(ValueError):
    """Invalid or unknown configuration; message names the key."""


class Key(NamedTuple):
    """One key: the field it sets, the field's type, and where it may be set."""

    field: str
    kind: str  # int, float, bool, str, tick (an int, or open/close) or float-or-none (a float, or none)
    sweep: bool = False  # a sweep may set it
    config: bool = True  # a config file may set it


KEYS: dict[str, Key] = {
    "clock.ticks_per_day": Key("ticks_per_day", "int"),
    "clock.days_per_year": Key("days_per_year", "int"),
    "profile.spread_open_bps": Key("open_spread_bps", "float", sweep=True),
    "profile.spread_close_bps": Key("close_spread_bps", "float", sweep=True),
    "profile.depth": Key("depth", "float", sweep=True),
    "impact.lambda": Key("lam", "float", sweep=True),
    "impact.permanent_fraction": Key("permanent_fraction", "float", sweep=True),
    "noise.sigma_daily": Key("sigma_daily", "float", sweep=True),
    "noise.mean_reversion_half_life_days": Key("half_life_days", "float-or-none", sweep=True),
    "agents.count": Key("count", "int"),
    "agents.capital": Key("capital", "float", sweep=True),
    "agents.leverage": Key("leverage", "float", sweep=True),
    # capital * leverage; a sweep moves capital at fixed leverage
    "agents.book_value": Key("book_value", "float", sweep=True, config=False),
    "agents.leg_notional": Key("leg_notional", "float", sweep=True),
    "agents.buy_tick": Key("buy_tick", "tick"),
    "agents.sell_tick": Key("sell_tick", "tick"),
    "agents.enabled": Key("enabled", "bool"),
    "agents.leg_growth_per_day": Key("leg_growth_per_day", "float"),
    "run.days": Key("days", "int", sweep=True),
    "run.seed": Key("seed", "int", sweep=True),
    "run.initial_mid": Key("initial_mid", "float", sweep=True),
    "run.initial_fundamental": Key("initial_fundamental", "float", sweep=True),
    "output.daily_csv": Key("daily_csv", "str"),
}

# keys older configs may set, with why they went
_REMOVED_KEYS: dict[str, str] = {
    "impact.temporary_decay_per_tick": "temporary impact reached no price, fill or cost, so the model dropped it",
}

_FIELD_KEYS = {row.field: name for name, row in KEYS.items()}


def check_removed_key(name: str) -> None:
    """Raise ``ConfigError`` when ``name`` (``section.key``) is a removed key."""
    reason = _REMOVED_KEYS.get(name)
    if reason is not None:
        raise ConfigError(f"{name}: removed key; {reason}; delete the setting")


def sweep_key(name: str) -> Key:
    """The row of sweep key ``name``; ``ValueError`` lists the sweep keys when it is none."""
    row = KEYS.get(name)
    if row is None or not row.sweep:
        supported = ", ".join(key for key, r in KEYS.items() if r.sweep)
        raise ValueError(f"unknown sweep key {name!r}; supported keys: {supported}")
    return row


def keyed(exc: ValueError, key: str | None = None) -> str:
    """The message of an owning type's ``ValueError``, naming a ``section.key``.

    The message starts with the name of the field it rejects, and that name
    becomes the field's key.  ``key`` is the key a sweep is setting: a
    message about another field, or about none, is prefixed with it.
    """
    message = str(exc)
    field = re.match(r"\w*", message).group()
    named = _FIELD_KEYS.get(field)
    if named is not None and key in (None, named):
        return named + message[len(field) :]
    return message if key is None else f"{key}: {message}"


@dataclass(frozen=True)
class ScenarioConfig:
    """Scalar view of a config file, a field per key; ``build()`` makes the Scenario."""

    ticks_per_day: int = 392
    days_per_year: int = 252
    open_spread_bps: float = 15.0
    close_spread_bps: float = 5.0
    depth: float = 1e9
    lam: float = 0.0
    permanent_fraction: float = 0.5
    sigma_daily: float = 0.01
    half_life_days: float | None = 504.0
    has_agents: bool = True
    count: int = 1
    capital: float = 1e9
    leverage: float = 10.0
    leg_notional: float = 1e7
    buy_tick: int = 0
    sell_tick: int = 391  # the close auction of the default day
    enabled: bool = True
    leg_growth_per_day: float = 1.0
    days: int = 1
    seed: int = 0
    initial_mid: float = 100.0
    initial_fundamental: float | None = None
    daily_csv: str | None = None

    def build(self) -> Scenario:
        """The scenario; ``ConfigError`` names the key of a value an owning type rejects."""
        try:
            clock = IntradayClock(self.ticks_per_day, self.days_per_year)
            profile = SpreadDepthProfile.default(
                self.ticks_per_day, self.open_spread_bps, self.close_spread_bps, self.depth
            )
            impact = ImpactParams(self.lam, self.permanent_fraction)
            noise = NoiseParams(self.sigma_daily, self.half_life_days)
            agents: tuple[RoundTripTrader, ...] = ()
            if self.has_agents:
                template = RoundTripTrader(
                    capital=self.capital,
                    leverage=self.leverage,
                    leg_notional=self.leg_notional,
                    buy_tick=self.buy_tick,
                    sell_tick=self.sell_tick,
                    enabled=self.enabled,
                )
                agents = tuple(split_trader(self.count, template))
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
        except ValueError as exc:
            raise ConfigError(keyed(exc)) from exc


_BOOLS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


def _parse(name: str, kind: str, raw: str, ticks_per_day: int):
    """``raw`` as a value of ``kind``; one that does not parse is a ``ConfigError`` naming ``name``."""
    word = raw.lower()
    if kind == "str":
        return raw
    if kind == "bool":
        if word in _BOOLS:
            return _BOOLS[word]
        raise ConfigError(f"{name}: not a boolean: {raw!r}")
    if kind == "tick" and word in ("open", "close"):
        return 0 if word == "open" else ticks_per_day - 1
    if kind == "float-or-none" and word == "none":
        return None
    integer = kind in ("int", "tick")
    try:
        return int(raw) if integer else float(raw)
    except ValueError:
        raise ConfigError(f"{name}: not {'an integer' if integer else 'a number'}: {raw!r}") from None


def load_config(path) -> ScenarioConfig:
    """Parse a scenario config file and validate it by building its scenario."""
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

    sections = {name.partition(".")[0] for name in KEYS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            name = f"{section}.{key}"
            if name not in KEYS or not KEYS[name].config:
                check_removed_key(name)
                raise ConfigError(f"{name}: unknown key")

    values: dict[str, object] = {
        "has_agents": parser.has_section("agents"),
        "ticks_per_day": ScenarioConfig.ticks_per_day,
    }
    for name, row in KEYS.items():  # the clock comes first: a tick word reads ticks_per_day
        raw = parser.get(*name.split("."), fallback=None)
        if raw is not None:
            values[row.field] = _parse(name, row.kind, raw.strip(), values["ticks_per_day"])
    values.setdefault("sell_tick", values["ticks_per_day"] - 1)  # the close auction
    config = ScenarioConfig(**values)
    config.build()
    return config
