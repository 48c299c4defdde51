import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from daydrift import (
    PriceSeries,
    breakeven_book,
    decompose,
    doubling_time,
    ingest_ohlc_csv,
    load_config,
    locate_zero_crossing,
    run_sim,
    simulate,
    write_daily_csv,
    write_decomposition_csv,
)
from daydrift.analysis import DECOMPOSITION_CSV_HEADER, DecompositionResult
from daydrift.engine import DayColumns, read_daily_columns

from composition import make_scenario
from conftest import NOISY_CONFIG, OHLC_INPUT_ERRORS, REFERENCE_CONFIG, REPO_ROOT


LOG_TINY = math.log(np.finfo(float).tiny)
LOG_HUGE = math.log(np.finfo(float).max)
LOG_EDGE = 1e-9  # far wider than the rounding of the log sums or of cumprod


def first_row_out_of_float_range(rows):
    """Row at which a running factor first leaves [tiny, max], or None.

    Decided from fsum'd running logs of the price ratios, independently of
    decompose.  A series with a running factor within LOG_EDGE of either
    range edge (in log space) cannot be classified and is assumed away.
    """
    logs = ([], [], [])
    for i, (prev, opn, close) in enumerate(rows):
        for bucket, ratio in zip(logs, (opn / prev, close / opn, close / prev)):
            bucket.append(math.log(ratio))
        sums = [math.fsum(bucket) for bucket in logs]
        assume(all(abs(s - edge) > LOG_EDGE for s in sums for edge in (LOG_TINY, LOG_HUGE)))
        if not all(LOG_TINY < s < LOG_HUGE for s in sums):
            return i
    return None


def series(rows):
    return PriceSeries(
        days=tuple(range(1, len(rows) + 1)),
        prev_close=np.array([r[0] for r in rows]),
        open=np.array([r[1] for r in rows]),
        close=np.array([r[2] for r in rows]),
    )


class TestPriceSeries:
    def test_rejects_non_positive_prices_with_row_index(self):
        with pytest.raises(ValueError, match="row 1"):
            series([(100.0, 101.0, 100.5), (100.5, 0.0, 101.0)])

    def test_infinite_price_is_reported_as_non_finite(self):
        with pytest.raises(ValueError, match="non-positive or non-finite close at row 1"):
            series([(100.0, 101.0, 100.5), (100.5, 101.0, math.inf)])

    def test_continuity_gaps_are_reported_not_fixed(self):
        s = series([(100.0, 101.0, 100.5), (100.6, 101.5, 101.0)])
        assert s.continuity_gaps() == [1]
        s = series([(100.0, 101.0, 100.5), (100.5, 101.5, 101.0)])
        assert s.continuity_gaps() == []
        s = series([(100.0, 101.0, 100.5), (100.6, 101.5, 101.0), (101.0, 99.0, 98.0), (98.5, 98.0, 97.0)])
        gaps = s.continuity_gaps()
        assert gaps == [1, 3] and all(type(i) is int for i in gaps)
        assert series([(100.0, 101.0, 100.5)]).continuity_gaps() == []

    def test_unequal_lengths_are_refused(self):
        with pytest.raises(ValueError, match="^days, prev_close, open, close must have equal lengths$"):
            PriceSeries(days=(1, 2), prev_close=np.array([100.0]), open=np.array([101.0]), close=np.array([100.5]))

    def test_no_rows_are_refused(self):
        with pytest.raises(ValueError, match="^price series is empty$"):
            series([])


class TestDecompose:
    def test_flat_intraday_day(self):
        result = decompose(series([(100.0, 102.0, 102.0)]))
        assert result.overnight_ret[0] == pytest.approx(0.02, rel=1e-12)
        assert result.intraday_ret[0] == 0.0
        assert result.cumulative_total == pytest.approx(1.02, rel=1e-12)

    def test_constant_series(self):
        result = decompose(series([(100.0, 100.0, 100.0)] * 5))
        assert result.cumulative_overnight == 1.0
        assert result.cumulative_intraday == 1.0
        assert result.cumulative_total == 1.0

    def test_two_day_worked_example(self):
        result = decompose(series([(100.0, 101.0, 100.5), (100.5, 101.5, 101.0)]))
        assert result.cumulative_total == pytest.approx(1.01, rel=1e-12)
        assert result.cumulative_overnight == pytest.approx(1.01 * (101.5 / 100.5), rel=1e-12)
        assert result.cumulative_intraday == pytest.approx(
            result.cumulative_total / result.cumulative_overnight, rel=1e-12
        )
        assert result.identity_gap <= 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e4),
                st.floats(min_value=1.0, max_value=1e4),
                st.floats(min_value=1.0, max_value=1e4),
            ),
            min_size=1,
            max_size=300,
        )
    )
    # returns near -1, where compounding 1 + return would cancel (gaps 1.05e-12, 2.1e-11)
    @example(rows=[(9997.0, 4069.0, 1.0)] * 3)
    @example(rows=[(9997.0, 4069.0, 1.0)] * 60)
    # cum_intraday underflows below finfo.tiny at row 76
    @example(rows=[(1.0, 1e4, 1.0)] * 78)
    @settings(max_examples=100, deadline=None)
    def test_product_identity_property(self, rows):
        out_row = first_row_out_of_float_range(rows)
        if out_row is None:
            assert decompose(series(rows)).identity_gap <= 1e-12
        else:
            with pytest.raises(ValueError, match=rf"at row {out_row} \(day {out_row + 1}\)"):
                decompose(series(rows))

    def test_totals_are_shuffle_invariant(self):
        rows = [(100.0, 101.0, 100.5), (100.5, 101.5, 101.0), (101.0, 100.2, 102.0)]
        base = decompose(series(rows))
        shuffled = decompose(series([rows[2], rows[0], rows[1]]))
        assert shuffled.cumulative_overnight == pytest.approx(base.cumulative_overnight, rel=1e-12)
        assert shuffled.cumulative_intraday == pytest.approx(base.cumulative_intraday, rel=1e-12)
        assert shuffled.cumulative_total == pytest.approx(base.cumulative_total, rel=1e-12)

    def test_simulation_signature(self):
        # noiseless run with open-auction buys and close-auction sells:
        # all drift accrues overnight, intraday drifts slightly down
        records = run_sim(make_scenario(days=252))
        result = decompose(PriceSeries.from_day_records(records))
        assert result.cumulative_overnight > 1.0
        assert result.cumulative_intraday < 1.0
        assert result.cumulative_total == pytest.approx(1.0001**252, rel=1e-9)

    @pytest.mark.parametrize("config", [NOISY_CONFIG, REFERENCE_CONFIG], ids=["noisy", "reference"])
    def test_columns_decompose_as_their_records(self, monkeypatch, config):
        result = simulate(replace(load_config(config).build(), days=300))
        by_records = decompose(PriceSeries.from_day_records(result.records))

        def no_rows(self):
            raise AssertionError("DayColumns.records called")

        monkeypatch.setattr(DayColumns, "records", no_rows)
        by_columns = decompose(PriceSeries.from_day_records(result.columns))
        assert by_columns.days == by_records.days == tuple(range(1, 301))
        for field in fields(DecompositionResult)[1:]:
            assert getattr(by_columns, field.name).tobytes() == getattr(by_records, field.name).tobytes(), field.name

    def test_log_columns_match_returns(self):
        result = decompose(series([(100.0, 101.0, 100.5)]))
        assert result.log_overnight[0] == pytest.approx(math.log(1.01), rel=1e-12)


class TestDoublingTime:
    def brute_force(self, nudge_bps: float) -> int:
        level, n = 1.0, 0
        while level < 2.0:
            level *= 1.0 + nudge_bps * 1e-4
            n += 1
        return n

    @pytest.mark.parametrize("nudge, expected", [(10_000.0, 1), (4.0, 1734), (1.0, 6932)])
    def test_frozen_oracle_values(self, nudge, expected):
        assert doubling_time(nudge) == expected
        assert self.brute_force(nudge) == expected

    @pytest.mark.parametrize("nudge", [0.37, 2.5, 8.0, 100.0, 5000.0])
    def test_matches_brute_force(self, nudge):
        assert doubling_time(nudge) == self.brute_force(nudge)

    def test_four_bp_is_about_seven_years(self):
        assert doubling_time(4.0) / 252 == pytest.approx(6.88, abs=0.01)

    def test_monotone_in_the_nudge(self):
        times = [doubling_time(n) for n in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert times == sorted(times, reverse=True)

    def test_a_first_estimate_one_short_is_corrected_upward(self):
        nudge = 3.0479043993817267e-09
        base = 1.0 + nudge * 1e-4
        assert math.ceil(math.log(2.0) / math.log(base)) == 2_273_603_338_735
        assert doubling_time(nudge) == 2_273_603_338_736
        assert base**2_273_603_338_736 >= 2.0 > base**2_273_603_338_735

    @pytest.mark.parametrize("nudge", [0.0, -1.0])
    def test_non_positive_nudge_rejected(self, nudge):
        with pytest.raises(ValueError):
            doubling_time(nudge)

    def test_tiny_nudges_return_or_raise_at_once(self):
        # in a child with a timeout, so that a hang fails this test, not the suite: from an estimate that is not
        # taken of the float 1 + r, stepping n by one takes ~7.7e-17 / r**2 steps, and never ends if 1 + r == 1.0
        nudges = [1e-8, 1e-9, 1.2e-12, 1e-12, 1e-13]
        code = (
            "from daydrift import doubling_time\n"
            f"for nudge in {nudges!r}:\n"
            "    try:\n"
            "        print(doubling_time(nudge))\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        *doubled, small, smaller = proc.stdout.splitlines()
        for nudge, n in zip(nudges, map(int, doubled)):
            base = 1.0 + nudge * 1e-4
            assert base ** n >= 2.0 > base ** (n - 1)
        assert small == "nudge of 1e-12 bps is lost in 1 + nudge == 1.0: the price never doubles"
        assert smaller == "nudge of 1e-13 bps is lost in 1 + nudge == 1.0: the price never doubles"


class TestBreakevenBook:
    def test_reference_numbers(self):
        assert breakeven_book(1e7, 15.0, 5.0, 1.0) == pytest.approx(1e8, rel=1e-12)
        assert breakeven_book(1e7, 15.0, 5.0, 4.0) == pytest.approx(2.5e7, rel=1e-12)

    def test_formula_is_schedule_agnostic(self):
        # symmetric spreads make the nudge unattainable in-model, but the
        # cost/nudge algebra still answers
        assert breakeven_book(1e7, 10.0, 10.0, 1.0) == pytest.approx(1e8, rel=1e-12)

    def test_zero_nudge_rejected(self):
        with pytest.raises(ValueError):
            breakeven_book(1e7, 15.0, 5.0, 0.0)


class TestIngestOhlcCsv:
    def write(self, tmp_path, text, name="prices.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_two_rows_make_one_day(self, tmp_path):
        path = self.write(tmp_path, "date,open,high,low,close\n2024-01-02,100,101,99,100.5\n2024-01-03,101,102,100,101.5\n")
        s = ingest_ohlc_csv(path)
        assert len(s) == 1
        assert s.prev_close[0] == 100.5
        assert s.open[0] == 101.0
        assert s.close[0] == 101.5

    def test_price_columns_are_read_only(self, tmp_path):
        # prev_close and close are views of one array: a write to either would change the other
        path = self.write(tmp_path, "date,open,close\n2024-01-02,100,100.5\n2024-01-03,101,101.5\n2024-01-04,102,102.5\n")
        s = ingest_ohlc_csv(path)
        for column in (s.prev_close, s.open, s.close):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        assert s.prev_close.tolist() == [100.5, 101.5]

    def test_zero_price_names_the_line(self, tmp_path):
        rows = ["date,open,close"]
        for d in range(2, 9):
            rows.append(f"2024-01-{d:02d},100,{0.0 if d == 7 else 100.0}")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="line 7"):
            ingest_ohlc_csv(path)

    def test_missing_column_is_named(self, tmp_path):
        path = self.write(tmp_path, "date,close\n2024-01-02,100\n2024-01-03,101\n")
        with pytest.raises(ValueError, match="open"):
            ingest_ohlc_csv(path)

    def test_unordered_dates_rejected_with_line(self, tmp_path):
        path = self.write(
            tmp_path, "date,open,close\n2024-01-03,100,100\n2024-01-02,100,100\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            ingest_ohlc_csv(path)

    def test_unparseable_price_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "date,open,close\n2024-01-02,100,abc\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_ohlc_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("2024-01-03,101\n", "line 3: row has 2 columns, expected 3"),
            (",101,102\n", "line 3: unparseable ISO date ''"),
            ("  ,101,102\n", "line 3: unparseable ISO date ''"),
            ("2024-13-01,101,102\n", "line 3: unparseable ISO date '2024-13-01'"),
            # forms of 2024-01-03 that date.fromisoformat reads from Python 3.11 on, and 3.10 does not
            ("20240103,101,102\n", "line 3: unparseable ISO date '20240103'"),
            ("2024-W01-4,101,102\n", "line 3: unparseable ISO date '2024-W01-4'"),
            ("2024W012,101,102\n", "line 3: unparseable ISO date '2024W012'"),
            ("2024-01-02,101,102\n", "line 3: dates must be strictly increasing, got 2024-01-02"),
            ("2024-01-03,1o1,102\n", "line 3: unparseable price in open/close"),
            ('"2024-01-03","1,01",102\n', "line 3: unparseable price in open/close"),
            ("2024-01-03,nan,102\n", "line 3: prices must be positive, got open=nan close=102.0"),
            ("2024-01-03,101,inf\n", "line 3: prices must be positive, got open=101.0 close=inf"),
            ("2024-01-03,101,-inf\n", "line 3: prices must be positive, got open=101.0 close=-inf"),
            ("2024-01-03,0,102\n", "line 3: prices must be positive, got open=0.0 close=102.0"),
        ],
    )
    def test_bad_row_message_is_pinned(self, tmp_path, body, message):
        path = self.write(tmp_path, "date,open,close\n2024-01-02,100,100\n" + body)
        with pytest.raises(ValueError) as info:
            ingest_ohlc_csv(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text",
        [
            "date,open,close\n2024-01-02,100,100\n   ,  ,  \n2024-01-03,101,102\n",
            "date,open,close\n2024-01-02,100,100\n   \n2024-01-03,101,102\n",
            "date,open,high,low,close\n2024-01-02,100,1,1,100\n , \n2024-01-03,101,1,1,102\n",
            "date,open,close\r\n2024-01-02,100,100\r\n2024-01-03,101,102\r\n",
            'date,open,close\n"2024-01-02","100","100"\n"2024-01-03","101",102\n',
            "date,open,close\n2024-01-02,100,100\n2024-01-03,101,102\n\n",
            "﻿date,open,close\n2024-01-02,100,100\n2024-01-03,101,102\n",
        ],
        ids=["whitespace-row", "whitespace-line", "short-blank-row", "crlf", "quoted", "trailing-blank", "bom"],
    )
    def test_tolerated_layouts_read_the_same_day(self, tmp_path, text):
        s = ingest_ohlc_csv(self.write(tmp_path, text))
        assert s.days == ("2024-01-03",)
        assert (s.prev_close.tolist(), s.open.tolist(), s.close.tolist()) == ([100.0], [101.0], [102.0])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "file is empty"),
            ("date,close\n2024-01-02,100\n", "missing required column(s): open"),
            ("date,open,close\n2024-01-02,100,100\n", "need at least 2 rows to form one overnight/intraday day"),
            ("Date,Open,Close,close\n2024-01-02,100,100,5\n2024-01-03,101,102,6\n", "column 'close' appears more than once"),
        ],
    )
    def test_whole_file_message_is_pinned(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            ingest_ohlc_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("case", list(OHLC_INPUT_ERRORS))
    def test_an_input_error_is_pinned(self, tmp_path, case):
        text, message = OHLC_INPUT_ERRORS[case]
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            ingest_ohlc_csv(path)
        assert str(info.value) == message.format(path=path)

    def test_single_row_cannot_decompose(self, tmp_path):
        path = self.write(tmp_path, "date,open,close\n2024-01-02,100,100.5\n")
        with pytest.raises(ValueError, match="at least 2"):
            ingest_ohlc_csv(path)

    def test_full_precision_round_trip_through_ohlc(self, tmp_path):
        # file written at full repr precision: ingest must reproduce the
        # direct decomposition bit-for-bit from the second day on
        records = run_sim(make_scenario(days=12, sigma=0.01, seed=4))
        lines = ["date,open,close"]
        for i, r in enumerate(records):
            lines.append(f"2024-02-{i + 1:02d},{r.open!r},{r.close!r}")
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        ingested = decompose(ingest_ohlc_csv(path))
        direct = decompose(PriceSeries.from_day_records(records[1:]))
        assert np.array_equal(ingested.overnight_ret, direct.overnight_ret)
        assert np.array_equal(ingested.intraday_ret, direct.intraday_ret)

    def test_six_decimal_simulation_csv_round_trip(self, tmp_path):
        # the daily CSV quantizes prices to 6 decimals, so the re-ingested
        # decomposition matches to format precision rather than bit-exactly
        records = run_sim(make_scenario(days=40, sigma=0.01, seed=8))
        path = tmp_path / "daily.csv"
        write_daily_csv(records, path)
        from daydrift import read_daily_csv

        back = decompose(PriceSeries.from_day_records(read_daily_csv(path)))
        direct = decompose(PriceSeries.from_day_records(records))
        assert np.allclose(back.overnight_ret, direct.overnight_ret, atol=2e-8)
        assert np.allclose(back.intraday_ret, direct.intraday_ret, atol=2e-8)
        assert back.cumulative_total == pytest.approx(direct.cumulative_total, rel=1e-6)
        assert back.cumulative_overnight == pytest.approx(direct.cumulative_overnight, rel=1e-6)


class TestDecompositionCsv:
    def test_header_and_shape(self, tmp_path):
        records = run_sim(make_scenario(days=3))
        result = decompose(PriceSeries.from_day_records(records))
        path = tmp_path / "report.csv"
        write_decomposition_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == DECOMPOSITION_CSV_HEADER
        assert len(lines) == 4

    def test_report_rows_match_per_row_formatting_across_blocks(self, tmp_path):
        # long enough to span several blocks of the writer, with a partial last block
        rng = np.random.default_rng(5)
        close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 2601)))
        opn = close * np.exp(rng.normal(0.0, 0.003, 2601))
        s = PriceSeries(tuple(range(1, 2601)), close[:-1], opn[1:], close[1:])
        result = decompose(s)
        path = tmp_path / "report.csv"
        write_decomposition_csv(result, path)
        expected = [DECOMPOSITION_CSV_HEADER] + [
            f"{day},{result.overnight_ret[i]:.10f},{result.intraday_ret[i]:.10f},"
            f"{result.cum_overnight[i]:.10f},{result.cum_intraday[i]:.10f},{result.cum_total[i]:.10f}"
            for i, day in enumerate(result.days)
        ]
        assert path.read_text().splitlines() == expected

    def test_report_bytes_are_pinned(self, tmp_path):
        # negative, tiny (one prints as -0.0000000000), large and near -1 returns
        rows = [
            (100.0, 95.0, 90.0),
            (90.0, 90.0000001, 90.0000002),
            (90.0000002, 900.0, 9000.0),
            (9000.0, 0.09, 0.0009),
            (0.0009, 0.0009, 0.0009),
            (100.0, 99.9999999999, 100.0),
        ]
        path = tmp_path / "report.csv"
        write_decomposition_csv(decompose(series(rows)), path)
        assert path.read_bytes() == (
            b"day,overnight_ret,intraday_ret,cum_overnight,cum_intraday,cum_total\n"
            b"1,-0.0500000000,-0.0526315789,0.9500000000,0.9473684211,0.9000000000\n"
            b"2,0.0000000011,0.0000000011,0.9500000011,0.9473684221,0.9000000020\n"
            b"3,8.9999999778,9.0000000000,9.4999999894,9.4736842211,90.0000000000\n"
            b"4,-0.9999900000,-0.9900000000,0.0000950000,0.0947368422,0.0000090000\n"
            b"5,0.0000000000,0.0000000000,0.0000950000,0.0947368422,0.0000090000\n"
            b"6,-0.0000000000,0.0000000000,0.0000950000,0.0947368422,0.0000090000\n"
        )


class TestCsvMemory:
    """The CSV readers and writers hold a block at a time, never a whole file.

    The readers take ``csvio.BLOCK_CHARS`` characters of lines at a time
    and convert a block's columns whole (or, from the first block they
    decline, go row by row); the writers format ``csvio.BLOCK_ROWS`` rows
    at a time.  Bounds on tracemalloc's traced peak, which counts numpy's
    buffers too, so they hold without timing anything.  On 60,000 rows,
    holding every parsed row (``list(csv.reader(fh))``) adds about 26 MiB,
    holding a whole daily CSV's lines about 9 MiB, and converting the whole
    report at once (``.tolist()`` of its five columns) about 9 MiB.
    """

    ROWS = 60_000

    @pytest.fixture(scope="class")
    def ohlc(self, tmp_path_factory):
        rng = np.random.default_rng(3)
        close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, self.ROWS)))
        opn = close * np.exp(rng.normal(0.0, 0.003, self.ROWS))
        dates = (np.datetime64("1900-01-01") + np.arange(self.ROWS)).astype(str)
        path = tmp_path_factory.mktemp("ohlc") / "prices.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("date,open,high,low,close\n")
            fh.writelines(f"{d},{o!r},{o!r},{c!r},{c!r}\n" for d, o, c in zip(dates, opn.tolist(), close.tolist()))
        return path

    @pytest.fixture(scope="class")
    def days(self):
        rng = np.random.default_rng(4)
        close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, self.ROWS)))
        days = DayColumns()
        days.first, days.day_cost = 100.0, 10_000.0
        days.extend(close * np.exp(rng.normal(0.0, 0.003, self.ROWS)), close, rng.normal(0.0, 1e6, self.ROWS))
        return days

    @staticmethod
    def traced(fn, *args):
        """Result of ``fn(*args)``, its traced peak and what stays allocated, in bytes."""
        tracemalloc.start()
        try:
            result = fn(*args)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak, retained

    def test_ingest_peak_is_the_series_plus_a_few_mib(self, ohlc):
        # the series' dates and three float arrays are about 5 MiB; the
        # reader's own arrays add about 2 MiB
        series, peak, retained = self.traced(ingest_ohlc_csv, ohlc)
        assert len(series) == self.ROWS - 1
        assert retained > 4 * 2**20
        assert peak - retained < 4 * 2**20

    def test_report_writer_peak_is_a_few_blocks(self, ohlc, tmp_path):
        # one 1024-row block's arrays and formatted bytes are about 0.6 MiB
        result = decompose(ingest_ohlc_csv(ohlc))
        _, peak, _ = self.traced(write_decomposition_csv, result, tmp_path / "report.csv")
        assert peak < 2**20

    def test_daily_writer_peak_is_its_columns_plus_a_few_blocks(self, days, tmp_path):
        # the writer makes about seven whole float64 columns (day numbers, net
        # P&L, the prices stacked for their check, two returns), 3.2 MiB; one
        # 1024-row block of eight columns is about 1 MiB
        _, peak, _ = self.traced(write_daily_csv, days, tmp_path / "daily.csv")
        assert peak < 9 * 8 * self.ROWS + 2**20

    def test_daily_reader_peak_is_the_columns_plus_a_few_mib(self, days, tmp_path):
        # the day numbers and six float arrays kept are about 4.6 MiB
        path = tmp_path / "daily.csv"
        write_daily_csv(days, path)
        columns, peak, retained = self.traced(read_daily_columns, path)
        assert len(columns[0]) == self.ROWS
        assert retained > 4 * 2**20
        assert peak - retained < 4 * 2**20


class TestLocateZeroCrossing:
    def test_exact_grid_zero(self):
        assert locate_zero_crossing([1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]) == 2.0

    def test_linear_interpolation(self):
        assert locate_zero_crossing([0.0, 10.0], [-5.0, 5.0]) == pytest.approx(5.0, rel=1e-12)

    def test_no_crossing(self):
        with pytest.raises(ValueError):
            locate_zero_crossing([1.0, 2.0], [1.0, 2.0])
