"""Scenario config files: sectioned key=value text, validated before any run.

``ScenarioConfig`` declares every key once: each of its fields carries
its ``section.key``, its type and whether a sweep may set it, and ``KEYS``,
the table of keys, is read from those fields.  ``ScenarioConfig.with_key``
is the one setter of a key, for ``load_config``, ``--seed``/``--days`` and
every sweep cell.  This module only parses: the owning types check every
range when ``build()`` makes the scenario, which ``load_config`` does, and
``keyed`` names the key in their errors.  Unknown sections or keys are
hard errors, and a key the model no longer has gets its own message,
saying why it went.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, fields, replace
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


def _key(name: str, kind: str, default, sweep: bool = False):
    """A ``ScenarioConfig`` field that key ``name`` of type ``kind`` sets."""
    return field(default=default, metadata={"key": name, "kind": kind, "sweep": sweep})


@dataclass(frozen=True)
class ScenarioConfig:
    """Scalar view of a config file, a field per key; ``build()`` makes the Scenario.

    A tick of None is the close, and ``sell_tick`` is the close when
    unset; ``initial_fundamental`` follows ``initial_mid`` when unset.
    ``build()`` alone resolves them, as they follow other keys.
    """

    ticks_per_day: int = _key("clock.ticks_per_day", "int", 392)
    open_spread_bps: float = _key("profile.spread_open_bps", "float", 15.0, sweep=True)
    close_spread_bps: float = _key("profile.spread_close_bps", "float", 5.0, sweep=True)
    depth: float = _key("profile.depth", "float", 1e9, sweep=True)
    lam: float = _key("impact.lambda", "float", 0.0, sweep=True)
    permanent_fraction: float = _key("impact.permanent_fraction", "float", 0.5, sweep=True)
    sigma_daily: float = _key("noise.sigma_daily", "float", 0.01, sweep=True)
    half_life_days: float | None = _key("noise.mean_reversion_half_life_days", "float-or-none", 504.0, sweep=True)
    has_agents: bool = True  # the config has an [agents] section
    count: int = _key("agents.count", "int", 1)
    capital: float = _key("agents.capital", "float", 1e9, sweep=True)
    leverage: float = _key("agents.leverage", "float", 10.0, sweep=True)
    leg_notional: float = _key("agents.leg_notional", "float", 1e7, sweep=True)
    buy_tick: int | None = _key("agents.buy_tick", "tick", 0)
    sell_tick: int | None = _key("agents.sell_tick", "tick", None)
    enabled: bool = _key("agents.enabled", "bool", True)
    days: int = _key("run.days", "int", 1, sweep=True)
    seed: int = _key("run.seed", "int", 0, sweep=True)
    initial_mid: float = _key("run.initial_mid", "float", 100.0, sweep=True)
    initial_fundamental: float | None = _key("run.initial_fundamental", "float", None, sweep=True)
    daily_csv: str | None = _key("output.daily_csv", "str", None)

    def with_key(self, name: str, value) -> ScenarioConfig:
        """This config with key ``name`` (``section.key``) set to ``value``.

        An integral float sets an integer key.  ``agents.book_value`` sets
        ``capital`` to ``value / leverage``, at the leverage set so far;
        ``count`` then splits it like any capital.
        """
        row = KEYS[name]
        if row.kind == "int" and isinstance(value, float) and value.is_integer():
            value = int(value)
        if name == "agents.book_value":
            return replace(self, capital=value / self.leverage)
        return replace(self, **{row.field: value})

    def build(self) -> Scenario:
        """The scenario; ``ConfigError`` names the key of a value an owning type rejects."""
        try:
            return self._scenario()
        except ValueError as exc:
            raise ConfigError(keyed(exc)) from exc

    def sweep_cell(self, params: tuple[tuple[str, float], ...]) -> Scenario:
        """The scenario of a sweep cell: this config with each of one or more ``(key, value)`` set in turn.

        The leverage and then ``agents.book_value`` are set first, so the
        book is the cell's.  The config is built once every key is set, so a
        cell runs whenever a config setting its keys builds.  Only if that
        fails is it built again after each key, so an owning type's
        ``ValueError`` is raised again naming the first key whose value it
        rejects.
        """
        first = {"agents.leverage": 0, "agents.book_value": 1}
        ordered = sorted(params, key=lambda param: first.get(param[0], 2))
        config = self
        try:
            for key, value in ordered:
                config = config.with_key(key, value)
            return config._scenario()
        except (ValueError, ArithmeticError):  # a zero leverage fails agents.book_value's division
            pass
        config = self
        for key, value in ordered:
            config = config.with_key(key, value)
            try:
                scenario = config._scenario()
            except ValueError as exc:
                raise ValueError(keyed(exc, key)) from exc
        return scenario

    def _scenario(self) -> Scenario:
        """The scenario, or the ``ValueError`` of the owning type that rejects a value."""
        clock = IntradayClock(self.ticks_per_day)
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
                buy_tick=clock.close_tick if self.buy_tick is None else self.buy_tick,
                sell_tick=clock.close_tick if self.sell_tick is None else self.sell_tick,
                enabled=self.enabled,
            )
            agents = tuple(split_trader(self.count, template))
        return Scenario(
            profile=profile,
            impact=impact,
            noise=noise,
            agents=agents,
            days=self.days,
            seed=self.seed,
            initial_mid=self.initial_mid,
            initial_fundamental=(
                self.initial_mid if self.initial_fundamental is None else self.initial_fundamental
            ),
        )


KEYS: dict[str, Key] = {}
for _f in fields(ScenarioConfig):
    if _f.metadata:
        KEYS[_f.metadata["key"]] = Key(_f.name, _f.metadata["kind"], _f.metadata["sweep"])
    if _f.name == "leverage":  # capital * leverage; a sweep moves capital at fixed leverage
        KEYS["agents.book_value"] = Key("book_value", "float", sweep=True, config=False)

# keys older configs may set, with why they went
_REMOVED_KEYS: dict[str, str] = {
    "impact.temporary_decay_per_tick": "temporary impact reached no price, fill or cost, so the model dropped it",
    "clock.days_per_year": "no output read the trading year's length, so the model dropped it",
    "agents.leg_growth_per_day": "the trader's legs are the same every day, so the model dropped the per-day growth",
}

_FIELD_KEYS = {row.field: name for name, row in KEYS.items()}


def check_removed_key(name: str) -> None:
    """Raise ``ConfigError`` when ``name`` (``section.key``) is a removed key."""
    reason = _REMOVED_KEYS.get(name)
    if reason is not None:
        raise ConfigError(f"{name}: removed key; {reason}; delete the setting")


def keyed(exc: ValueError, key: str | None = None) -> str:
    """The message of an owning type's ``ValueError``, naming a ``section.key``.

    The message starts with the name of the field it rejects, and that name
    becomes the field's key.  ``key`` is the key a sweep is setting: a
    message about another field, or about none, is prefixed with it.
    """
    message = str(exc)
    field_name = re.match(r"\w*", message).group()
    named = _FIELD_KEYS.get(field_name)
    if named is not None and key in (None, named):
        return named + message[len(field_name) :]
    return message if key is None else f"{key}: {message}"


_BOOLS = {"true": True, "yes": True, "on": True, "1": True, "false": False, "no": False, "off": False, "0": False}


def _parse(name: str, kind: str, raw: str):
    """``raw`` as a value of ``kind``; one that does not parse is a ``ConfigError`` naming ``name``."""
    word = raw.lower()
    if kind == "str":
        return raw
    if kind == "bool":
        if word in _BOOLS:
            return _BOOLS[word]
        raise ConfigError(f"{name}: not a boolean: {raw!r}")
    if kind == "tick" and word in ("open", "close"):
        return 0 if word == "open" else None  # the close
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
    config = ScenarioConfig(has_agents=parser.has_section("agents"))
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            name = f"{section}.{key}"
            if name not in KEYS or not KEYS[name].config:
                check_removed_key(name)
                raise ConfigError(f"{name}: unknown key")
            config = config.with_key(name, _parse(name, KEYS[name].kind, raw.strip()))
    config.build()
    return config
