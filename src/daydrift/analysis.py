"""Overnight/intraday return decomposition and related closed-form algebra.

Each trading day splits into an overnight return (open versus the prior
close) and an intraday return (close versus open); their compounding is
exactly the close-to-close return.  The decomposition here works the same
on a simulated run's columns or day records and on ingested OHLC data,
and reports both the per-day returns and the cumulative growth factors of
each bucket.
"""

from __future__ import annotations

import csv
import datetime
import math
import operator
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .csvio import read_plain, undecodable, write_rows
from .engine import DayColumns, _table

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
        """Build from a run's ``DayColumns``, read as arrays, or from objects carrying day/prev_close/open/close attributes."""
        if isinstance(records, DayColumns):
            days, prev, opens, close = _table(records)[:4]  # copied, so the series shares no memory with the run
            return cls(days=days.tolist(), prev_close=prev, open=opens.copy(), close=close.copy())
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
        return (np.flatnonzero(self.prev_close[1:] != self.close[:-1]) + 1).tolist()


@dataclass(frozen=True)
class DecompositionResult:
    """Per-day return buckets and their running growth factors."""

    days: tuple
    overnight_ret: np.ndarray
    intraday_ret: np.ndarray
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


# the report's columns in file order and their decimals: the day label, then DecompositionResult's fields after days
DECOMPOSITION_CSV = {"day": None} | {field.name: 10 for field in fields(DecompositionResult)[1:]}
DECOMPOSITION_CSV_HEADER = ",".join(DECOMPOSITION_CSV)


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
        **factors,
    )


def doubling_time(nudge_bps: float) -> int:
    """Trading days for a constant per-day drift to double the price.

    Smallest integer n with (1 + nudge)**n >= 2, the power taken of the
    float ``1 + nudge``; a nudge too small to change that float from 1.0
    never doubles and raises ``ValueError``.
    """
    if not nudge_bps > 0:
        raise ValueError(f"nudge must be positive to double, got {nudge_bps} bps")
    base = 1.0 + nudge_bps * 1e-4
    if base == 1.0:
        raise ValueError(f"nudge of {nudge_bps} bps is lost in 1 + nudge == 1.0: the price never doubles")
    n = max(1, math.ceil(math.log(2.0) / math.log(base)))
    while n > 1 and base ** (n - 1) >= 2.0:
        n -= 1
    while base ** n < 2.0:
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
    if not leg_notional >= 0:
        raise ValueError(f"leg_notional must be >= 0, got {leg_notional}")
    if not (spread_open_bps >= 0 and spread_close_bps >= 0):
        raise ValueError("spreads must be >= 0")
    if not net_nudge_bps > 0:
        raise ValueError(f"net_nudge_bps must be positive, got {net_nudge_bps}")
    return leg_notional * (spread_open_bps + spread_close_bps) / (2.0 * net_nudge_bps)


def _ohlc_block(cells: list[str], width: int, date_i: int, open_i: int, close_i: int, days: list) -> tuple | None:
    """The dates, opens and closes of a plain block's cells, if every row is good.

    None if a date is not ``YYYY-MM-DD`` or does not parse, a price does
    not parse, the dates do not rise strictly from the last of ``days``
    (compared as strings, which such dates sort as), or a price is outside
    (0, inf): the row loop then reads the block and raises the error.
    """
    try:
        raw = list(map(str.strip, cells[date_i::width]))
        joined = "".join(raw)  # every date 10 characters with hyphens at 4 and 7, so fromisoformat takes one form
        if set(map(len, raw)) != {10} or not joined[4::10] == joined[7::10] == "-" * len(raw):
            return None
        list(map(datetime.date.fromisoformat, raw))  # raises for a date that does not exist
        opens, closes = (array("d", map(float, cells[i::width])) for i in (open_i, close_i))
    except ValueError:
        return None
    prices = np.frombuffer(opens + closes)
    rising = all(map(operator.lt, raw, raw[1:])) and (not days or days[-1] < raw[0])
    return (raw, opens, closes) if rising and ((prices > 0.0) & np.isfinite(prices)).all() else None


def ingest_ohlc_csv(path) -> PriceSeries:
    """Read date-ordered OHLC rows into a price series.

    The header must name date, open and close columns (case-insensitive),
    each once; high/low and anything else are ignored, as is a UTF-8
    byte-order mark.  Each day's prev_close is the previous row's close,
    so the first row seeds the chain and contributes no overnight return.
    Dates are ``YYYY-MM-DD`` alone, whatever else ``datetime.date.fromisoformat``
    takes.  Blank rows are skipped.  A malformed row, or one with a cell longer
    than ``csv.field_size_limit()``, is reported with the file line it starts
    on; such a header, or a file that is not UTF-8, with the path.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = ()
        try:
            if (header := next(reader := csv.reader(fh), None)) is None:
                raise ValueError(f"{path}: file is empty")
            names = [name.strip().lower() for name in header]
            if missing := [name for name in ("date", "open", "close") if name not in names]:
                raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
            for name in ("date", "open", "close"):
                if names.count(name) > 1:
                    raise ValueError(f"{path}: column {name!r} appears more than once")
            date_i, open_i, close_i = (names.index(name) for name in ("date", "open", "close"))
            days, opens, closes = [], array("d"), array("d")

            # plain blocks through _ohlc_block; from the first it declines, the rest through
            # csv.reader row by row, the one definition of what is accepted and of every error
            plain, rest = read_plain(
                fh, len(header), lambda cells: _ohlc_block(cells, len(header), date_i, open_i, close_i, days),
                [days, opens, closes],
            )
            rows = csv.reader(rest)

            # only a row that is short or has an empty date cell can be blank,
            # so only those pay the blank test
            last_col, inf, fromisoformat = max(date_i, open_i, close_i), math.inf, datetime.date.fromisoformat
            start, read = 1 + reader.line_num + plain, 0  # the row loop's first line; csv.reader's lines before a row
            for row in rows:
                lineno, read = start + read, rows.line_num
                if len(row) <= last_col:
                    if not any(cell.strip() for cell in row):
                        continue
                    raise ValueError(f"line {lineno}: row has {len(row)} columns, expected {len(header)}")
                raw_date = row[date_i].strip()
                if not raw_date and not any(cell.strip() for cell in row):
                    continue
                try:
                    if len(raw_date) != 10 or raw_date[4] + raw_date[7] != "--":  # YYYY-MM-DD only, on every Python
                        raise ValueError(raw_date)
                    fromisoformat(raw_date)
                except ValueError:
                    raise ValueError(f"line {lineno}: unparseable ISO date {raw_date!r}") from None
                if days and raw_date <= days[-1]:
                    raise ValueError(f"line {lineno}: dates must be strictly increasing, got {raw_date}")
                try:
                    opn = float(row[open_i])
                    cls_ = float(row[close_i])
                except ValueError:
                    raise ValueError(f"line {lineno}: unparseable price in open/close") from None
                if not (0.0 < opn < inf and 0.0 < cls_ < inf):
                    raise ValueError(f"line {lineno}: prices must be positive, got open={opn} close={cls_}")
                days.append(raw_date)
                opens.append(opn)
                closes.append(cls_)
        except UnicodeDecodeError:
            raise undecodable(path) from None
        except csv.Error as exc:  # a cell past csv.field_size_limit(), in the header or in the row after `read` lines
            raise ValueError(f"{f'line {start + read}' if rows else path}: {exc}") from None

    if len(closes) < 2:
        raise ValueError(f"{path}: need at least 2 rows to form one overnight/intraday day")
    del days[0]
    # views: the series copies no column; prev_close and close share
    # closes, so both are read-only and a write raises
    opens, closes = np.frombuffer(opens), np.frombuffer(closes)
    opens.flags.writeable = closes.flags.writeable = False
    return PriceSeries(days=days, prev_close=closes[:-1], open=opens[1:], close=closes[1:])


def write_decomposition_csv(result: DecompositionResult, path) -> None:
    """The report of ``result``: its day labels and its columns with their decimals in ``DECOMPOSITION_CSV``."""
    _, *names = DECOMPOSITION_CSV
    with open(path, "wb") as fh:
        fh.write(DECOMPOSITION_CSV_HEADER.encode() + b"\n")
        write_rows(fh, result.days, [getattr(result, n) for n in names], tuple(DECOMPOSITION_CSV[n] for n in names))


def locate_zero_crossing(xs, ys) -> float:
    """First x where linearly interpolated y crosses zero.

    Exact grid points with y == 0 are returned as-is; otherwise the
    crossing is interpolated between the first adjacent pair with opposite
    signs.  Every value must be finite.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < 1:
        raise ValueError("xs and ys must be non-empty and of equal length")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("xs and ys must be finite")
    for i, y in enumerate(ys):
        if y == 0.0:
            return xs[i]
        if i > 0 and (ys[i - 1] < 0.0) != (y < 0.0):
            x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], y
            return x0 + (0.0 - y0) * (x1 - x0) / (y1 - y0)
    raise ValueError("no zero crossing in the given table")
