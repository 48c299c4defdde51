import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daydrift import (
    AccountingError,
    Ledger,
    from_micro,
    mark_to_market,
    record_fill,
    to_micro,
)
from daydrift.ledger import book_days, first_refused_day

from composition import micro_sums

LIMIT = 2**63 - 1


class TestMicroConversion:
    def test_round_trip(self):
        assert to_micro(7500.0) == 7_500_000_000
        assert from_micro(7_500_000_000) == 7500.0

    def test_sub_micro_amounts_round(self):
        assert to_micro(1.2345678) == 1_234_568

    def test_out_of_range(self):
        with pytest.raises(AccountingError):
            to_micro(1e19)


class TestRecordFill:
    def test_buy_leg_cost(self):
        led = record_fill(Ledger(), 100.075, 1e7, 7500.0)
        assert led.cumulative_cost_micro == 7_500_000_000
        assert led.cash_micro == -(10_000_000_000_000 + 7_500_000_000)

    def test_zero_notional_fill(self):
        led = record_fill(Ledger(), 100.0, 0.0, 0.0)
        assert led.cash_micro == 0
        assert led.cumulative_cost_micro == 0
        assert len(led.fills) == 1

    def test_round_trip_cash_equals_minus_costs(self):
        led = Ledger()
        led = record_fill(led, 100.075, 1e7, 7500.0)
        led = record_fill(led, 100.075, -1e7, 2500.0)
        assert led.cash_micro == -to_micro(7500.0 + 2500.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            record_fill(Ledger(), 100.0, 1e6, -1.0)

    def test_cash_overflow_halts(self):
        led = Ledger(cash_micro=-(2**63 - 1))
        with pytest.raises(AccountingError):
            record_fill(led, 100.0, 1e6, 0.0)

    def test_cost_overflow_halts(self):
        led = Ledger(cumulative_cost_micro=2**63 - 1)
        with pytest.raises(AccountingError):
            record_fill(led, 100.0, 0.0, 1.0)

    @given(
        fills=st.lists(
            st.tuples(
                st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_conservation_is_exact_in_micro(self, fills):
        led = Ledger()
        for notional, cost in fills:
            led = record_fill(led, 100.0, notional, cost)
        # cash moved by exactly the fill-valued flows; costs sum exactly
        assert led.cash_micro == -sum(f.signed_notional_micro + f.cost_micro for f in led.fills)
        assert led.cumulative_cost_micro == sum(f.cost_micro for f in led.fills)

    def test_cumulative_cost_is_non_decreasing(self):
        led = Ledger()
        last = 0
        for notional, cost in [(1e6, 10.0), (-1e6, 0.0), (5e5, 3.5), (0.0, 0.0)]:
            led = record_fill(led, 100.0, notional, cost)
            assert led.cumulative_cost_micro >= last
            last = led.cumulative_cost_micro


class TestRunningAccount:
    def test_operations_update_the_ledger_in_place(self):
        led = Ledger()
        alias = led
        assert record_fill(led, 100.0, 1e7, 7500.0) is led
        assert alias.cumulative_cost_micro == 7_500_000_000 and len(alias.fills) == 1

    def test_returned_fills_are_snapshots(self):
        led = record_fill(Ledger(), 100.0, 1e7, 7500.0)
        fills = led.fills
        assert isinstance(fills, tuple)
        with pytest.raises(AttributeError):
            fills.append(fills[0])
        record_fill(led, 100.0, -1e7, 2500.0)
        assert len(fills) == 1 and len(led.fills) == 2

    def test_equal_accounts_compare_equal(self):
        a, b = Ledger(), Ledger()
        for led in (a, b):
            record_fill(led, 100.0, 1e7, 7500.0)
        assert a == b
        record_fill(b, 100.0, 0.0, 0.0)
        assert a != b


def book_day_by_day(ledger: Ledger, fills, days: int) -> int | None:
    """Book ``fills`` once a day with ``record_fill``: the index of the first day refused, None after ``days`` days."""
    for day in range(days):
        try:
            for fill in fills:
                record_fill(ledger, *fill)
        except AccountingError:
            return day
    return None


class TestFirstRefusedDay:
    DAYS = 60  # booked one at a time; a later refused day must be reported as such

    @given(
        cash=st.integers(-LIMIT, LIMIT),
        cost=st.integers(0, LIMIT),
        legs=st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)),
        costs=st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)),
        buy_first=st.booleans(),
    )
    @example(cash=-LIMIT, cost=0, legs=(1, 1), costs=(0, 0), buy_first=True)  # the first buy is refused
    @example(cash=0, cost=LIMIT, legs=(0, 0), costs=(0, 1), buy_first=False)  # the second fill's cost is refused
    @example(cash=LIMIT, cost=0, legs=(5, 5), costs=(0, 0), buy_first=False)  # the first sell is refused
    @example(cash=0, cost=0, legs=(10**18, 10**18), costs=(10**17, 10**17), buy_first=True)  # refused on day 41
    @example(cash=0, cost=0, legs=(2**62, 2**62), costs=(0, 0), buy_first=False)  # never refused
    @settings(max_examples=300, deadline=None)
    def test_matches_booking_day_after_day(self, cash, cost, legs, costs, buy_first):
        side = 1.0 if buy_first else -1.0
        fills = [(100.0, side * legs[0] / 1e6, costs[0] / 1e6), (101.0, -side * legs[1] / 1e6, costs[1] / 1e6)]
        notional_micro = [to_micro(notional) for _, notional, _ in fills]
        cost_micro = [to_micro(c) for _, _, c in fills]
        refused = first_refused_day(Ledger(cash, cost), notional_micro, cost_micro)
        expected = book_day_by_day(Ledger(cash, cost), fills, self.DAYS)
        if expected is None:
            assert refused is None or refused >= self.DAYS
        else:
            assert refused == expected
        # book_days books the whole days before it into the sums as record_fill does, and no fill trail
        whole = self.DAYS if expected is None else expected
        booked, reference = Ledger(cash, cost), Ledger(cash, cost)
        book_days(booked, whole, notional_micro, cost_micro)
        assert book_day_by_day(reference, fills, whole) is None
        assert micro_sums(booked) == micro_sums(reference) and booked.fills == ()

    def test_a_day_that_moves_no_sum_is_never_refused(self):
        assert first_refused_day(Ledger(-LIMIT, LIMIT), [-(10**18), 10**18], [0, 0]) is None
        assert first_refused_day(Ledger(), [], []) is None

    def test_counts_whole_days_from_the_ledgers_sums(self):
        # a buy of 10 and a sell of 10, costing 1 each: the cash falls by 2 a day, the buy first takes it below -LIMIT
        assert first_refused_day(Ledger(-LIMIT + 10, 0), [10, -10], [1, 1]) == 0
        assert first_refused_day(Ledger(-LIMIT + 11, 0), [10, -10], [1, 1]) == 1
        assert first_refused_day(Ledger(-LIMIT + 13, 0), [10, -10], [1, 1]) == 2
        # the cost sum passes LIMIT on the second fill of day 3
        assert first_refused_day(Ledger(0, LIMIT - 5), [0, 0], [1, 1]) == 2


class TestMarkToMarket:
    def test_one_bp_on_ten_billion(self):
        assert mark_to_market(1e10, 100.0, 100.01) == pytest.approx(1_000_000.0, rel=1e-9)

    def test_flat_mid_is_zero_gain(self):
        assert mark_to_market(1e10, 100.0, 100.0) == 0.0

    def test_four_bp_gain_scales_linearly(self):
        assert mark_to_market(1e10, 100.0, 100.04) == pytest.approx(4_000_000.0, rel=1e-9)

    def test_non_positive_prev_mid_rejected(self):
        with pytest.raises(ValueError, match=r"^mid_prev must be positive, got 0\.0$"):
            mark_to_market(1e10, 0.0, 100.0)

    def test_arrays_are_marked_elementwise(self):
        books, prevs, nows = [1e10, 5e9, 2e10], [100.0, 99.5, 101.25], [100.01, 99.0, 101.3]
        gains = mark_to_market(np.array(books), np.array(prevs), np.array(nows))
        assert gains.tolist() == [mark_to_market(*args) for args in zip(books, prevs, nows)]

    def test_the_first_non_positive_prev_mid_of_an_array_is_named(self):
        with pytest.raises(ValueError, match=r"^mid_prev must be positive, got -1\.0$"):
            mark_to_market(np.full(4, 1e10), np.array([100.0, -1.0, 0.0, np.nan]), np.full(4, 100.0))

    def test_telescoping_over_a_drifting_path(self):
        # constant share count: book value at each mark moves with the mid
        mids = [100.0 * (1.001**d) for d in range(0, 61)]
        book0 = 1e10
        total = sum(mark_to_market(book0 * (prev / mids[0]), prev, now) for prev, now in zip(mids, mids[1:]))
        expected = book0 * (mids[-1] / mids[0] - 1.0)
        assert abs(total - expected) / expected <= 1e-9


class TestReferenceDay:
    def _reference_day(self) -> tuple[float, Ledger]:
        led = record_fill(Ledger(), 100.075, 1e7, 7500.0)
        led = record_fill(led, 100.0025, -1e7, 2500.0)
        return mark_to_market(1e10, 100.0, 100.01), led

    def test_reference_day_nets_990k(self):
        gain, led = self._reference_day()
        assert gain - led.cumulative_cost == pytest.approx(990_000.0, rel=1e-9)

    def test_gain_cost_ratio_is_two_orders_of_magnitude(self):
        gain, led = self._reference_day()
        assert gain / from_micro(led.cumulative_cost_micro) == pytest.approx(100.0, rel=1e-9)
