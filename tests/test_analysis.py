import math

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
    locate_zero_crossing,
    run_sim,
    write_daily_csv,
    write_decomposition_csv,
)
from daydrift.analysis import DECOMPOSITION_CSV_HEADER

from test_engine import make_scenario


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

    @pytest.mark.parametrize("nudge", [0.0, -1.0])
    def test_non_positive_nudge_rejected(self, nudge):
        with pytest.raises(ValueError):
            doubling_time(nudge)


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


class TestLocateZeroCrossing:
    def test_exact_grid_zero(self):
        assert locate_zero_crossing([1.0, 2.0, 3.0], [-1.0, 0.0, 5.0]) == 2.0

    def test_linear_interpolation(self):
        assert locate_zero_crossing([0.0, 10.0], [-5.0, 5.0]) == pytest.approx(5.0, rel=1e-12)

    def test_no_crossing(self):
        with pytest.raises(ValueError):
            locate_zero_crossing([1.0, 2.0], [1.0, 2.0])
