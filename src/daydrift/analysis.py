"""Overnight/intraday return decomposition and related closed-form algebra.

Each trading day splits into an overnight return (open versus the prior
close) and an intraday return (close versus open); their compounding is
exactly the close-to-close return.  The decomposition here works the same
on simulated day records and on ingested OHLC data, and reports both the
per-day returns and the cumulative growth factors of each bucket.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

DECOMPOSITION_CSV_HEADER = "day,overnight_ret,intraday_ret,cum_overnight,cum_intraday,cum_total"
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class PriceSeries:
    """Ordered (prev_close, open, close) triples, one per trading day."""

    days: tuple
    prev_close: np.ndarray
    open: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        prev = np.asarray(self.prev_close, dtype=float)
        opn = np.asarray(self.open, dtype=float)
        cls_ = np.asarray(self.close, dtype=float)
        object.__setattr__(self, "days", tuple(self.days))
        object.__setattr__(self, "prev_close", prev)
        object.__setattr__(self, "open", opn)
        object.__setattr__(self, "close", cls_)
        if not (len(self.days) == len(prev) == len(opn) == len(cls_)):
            raise ValueError("days, prev_close, open, close must have equal lengths")
        if len(prev) == 0:
            raise ValueError("price series is empty")
        for name, arr in (("prev_close", prev), ("open", opn), ("close", cls_)):
            bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0)))
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"non-positive or non-finite {name} at row {i} (day {self.days[i]}): {arr[i]}"
                )

    def __len__(self) -> int:
        return len(self.prev_close)

    @classmethod
    def from_day_records(cls, records) -> "PriceSeries":
        """Build from objects carrying day/prev_close/open/close attributes."""
        return cls(
            days=tuple(r.day for r in records),
            prev_close=np.array([r.prev_close for r in records], dtype=float),
            open=np.array([r.open for r in records], dtype=float),
            close=np.array([r.close for r in records], dtype=float),
        )

    def continuity_gaps(self) -> list[int]:
        """Rows whose prev_close does not equal the previous row's close.

        Simulated series have none; ingested data may, and the gaps are
        reported rather than repaired.
        """
        return [
            i
            for i in range(1, len(self))
            if self.prev_close[i] != self.close[i - 1]
        ]


@dataclass(frozen=True)
class DecompositionResult:
    """Per-day return buckets and their running growth factors."""

    days: tuple
    overnight_ret: np.ndarray
    intraday_ret: np.ndarray
    total_ret: np.ndarray
    cum_overnight: np.ndarray
    cum_intraday: np.ndarray
    cum_total: np.ndarray

    @property
    def cumulative_overnight(self) -> float:
        return float(self.cum_overnight[-1])

    @property
    def cumulative_intraday(self) -> float:
        return float(self.cum_intraday[-1])

    @property
    def cumulative_total(self) -> float:
        return float(self.cum_total[-1])

    @property
    def log_overnight(self) -> np.ndarray:
        return np.log1p(self.overnight_ret)

    @property
    def log_intraday(self) -> np.ndarray:
        return np.log1p(self.intraday_ret)

    @property
    def identity_gap(self) -> float:
        """Relative gap between cum_overnight * cum_intraday and cum_total.

        Zero in exact arithmetic; `decompose` keeps it to float rounding
        (at most 1e-12 for series of up to 300 days) and refuses series
        whose running factors would leave the normal float range.
        """
        return abs(self.cumulative_overnight * self.cumulative_intraday - self.cumulative_total) / abs(
            self.cumulative_total
        )


def decompose(series: PriceSeries) -> DecompositionResult:
    """Split each day into overnight and intraday returns and compound them.

    Per-day returns are (x - y) / y.  The cumulative factors compound the
    price ratios open/prev_close, close/open and close/prev_close directly,
    not 1 + return, which cancels when a return is near -1.  So
    cum_overnight * cum_intraday == cum_total holds to within float
    rounding: a relative gap of at most 1e-12 for series of up to 300 days.
    A series on which any running factor leaves the normal float range
    [finfo.tiny, finfo.max] raises ValueError naming the first such day.
    """
    prev, opn, cls_ = series.prev_close, series.open, series.close
    with np.errstate(over="ignore", under="ignore"):
        factors = {
            "cum_overnight": np.cumprod(opn / prev),
            "cum_intraday": np.cumprod(cls_ / opn),
            "cum_total": np.cumprod(cls_ / prev),
        }
    in_range = [(cum >= _TINY) & (cum <= _HUGE) for cum in factors.values()]
    bad = np.flatnonzero(~np.logical_and.reduce(in_range))
    if bad.size:
        i = int(bad[0])
        name = next(name for name, cum in factors.items() if not _TINY <= cum[i] <= _HUGE)
        raise ValueError(
            f"{name} leaves the float range at row {i} (day {series.days[i]}): {factors[name][i]}"
        )
    return DecompositionResult(
        days=series.days,
        overnight_ret=(opn - prev) / prev,
        intraday_ret=(cls_ - opn) / opn,
        total_ret=(cls_ - prev) / prev,
        **factors,
    )


def doubling_time(nudge_bps: float) -> int:
    """Trading days for a constant per-day drift to double the price.

    Smallest integer n with (1 + nudge)**n >= 2.
    """
    if not nudge_bps > 0:
        raise ValueError(f"nudge must be positive to double, got {nudge_bps} bps")
    r = nudge_bps * 1e-4
    n = max(1, math.ceil(math.log(2.0) / math.log1p(r)))
    while n > 1 and (1.0 + r) ** (n - 1) >= 2.0:
        n -= 1
    while (1.0 + r) ** n < 2.0:
        n += 1
    return n


def breakeven_book(
    leg_notional: float,
    spread_open_bps: float,
    spread_close_bps: float,
    net_nudge_bps: float,
) -> float:
    """Book value at which the daily mark-to-market gain equals the daily cost.

    Daily cost of the two half-spread crossings is
    leg * (spread_open + spread_close)/2; gain is book * nudge.  The
    formula is schedule-agnostic: it does not check that the nudge is
    attainable for these spreads.
    """
    if leg_notional < 0:
        raise ValueError(f"leg_notional must be >= 0, got {leg_notional}")
    if spread_open_bps < 0 or spread_close_bps < 0:
        raise ValueError("spreads must be >= 0")
    if not net_nudge_bps > 0:
        raise ValueError(f"net_nudge_bps must be positive, got {net_nudge_bps}")
    return leg_notional * (spread_open_bps + spread_close_bps) / (2.0 * net_nudge_bps)


def ingest_ohlc_csv(path) -> PriceSeries:
    """Read date-ordered OHLC rows into a price series.

    The header must name date, open and close columns (case-insensitive);
    high/low and anything else are ignored.  Each day's prev_close is the
    previous row's close, so the first row seeds the chain and contributes
    no overnight return.  Malformed rows are reported with their file line
    number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        columns = {name.strip().lower(): i for i, name in enumerate(header)}
        missing = [name for name in ("date", "open", "close") if name not in columns]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        date_i, open_i, close_i = columns["date"], columns["open"], columns["close"]

        days: list[str] = []
        opens: list[float] = []
        closes: list[float] = []
        last_date = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(date_i, open_i, close_i):
                raise ValueError(f"line {lineno}: row has {len(row)} columns, expected {len(header)}")
            raw_date = row[date_i].strip()
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable ISO date {raw_date!r}") from None
            if last_date is not None and date <= last_date:
                raise ValueError(f"line {lineno}: dates must be strictly increasing, got {raw_date}")
            last_date = date
            try:
                opn = float(row[open_i])
                cls_ = float(row[close_i])
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable price in open/close") from None
            if not (math.isfinite(opn) and opn > 0) or not (math.isfinite(cls_) and cls_ > 0):
                raise ValueError(f"line {lineno}: prices must be positive, got open={opn} close={cls_}")
            days.append(raw_date)
            opens.append(opn)
            closes.append(cls_)

    if len(closes) < 2:
        raise ValueError(f"{path}: need at least 2 rows to form one overnight/intraday day")
    return PriceSeries(
        days=tuple(days[1:]),
        prev_close=np.array(closes[:-1]),
        open=np.array(opens[1:]),
        close=np.array(closes[1:]),
    )


def write_decomposition_csv(result: DecompositionResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(DECOMPOSITION_CSV_HEADER + "\n")
        for i, day in enumerate(result.days):
            fh.write(
                f"{day},{result.overnight_ret[i]:.10f},{result.intraday_ret[i]:.10f},"
                f"{result.cum_overnight[i]:.10f},{result.cum_intraday[i]:.10f},"
                f"{result.cum_total[i]:.10f}\n"
            )


def locate_zero_crossing(xs, ys) -> float:
    """First x where linearly interpolated y crosses zero.

    Exact grid points with y == 0 are returned as-is; otherwise the
    crossing is interpolated between the first adjacent pair with opposite
    signs.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < 1:
        raise ValueError("xs and ys must be non-empty and of equal length")
    for i, y in enumerate(ys):
        if y == 0.0:
            return xs[i]
        if i > 0 and (ys[i - 1] < 0.0) != (y < 0.0):
            x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], y
            return x0 + (0.0 - y0) * (x1 - x0) / (y1 - y0)
    raise ValueError("no zero crossing in the given table")
