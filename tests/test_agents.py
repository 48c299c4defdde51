import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daydrift import RoundTripTrader, crossing_cost, orders_for_tick, split_trader

PAPER_AGENT = RoundTripTrader(
    capital=1e9, leverage=10.0, leg_notional=1e7, buy_tick=0, sell_tick=391
)


class TestTrader:
    def test_book_value(self):
        assert PAPER_AGENT.book_value == 1e10

    def test_leg_cannot_exceed_book(self):
        with pytest.raises(ValueError):
            RoundTripTrader(capital=100.0, leverage=1.0, leg_notional=101.0, buy_tick=0, sell_tick=1)
        with pytest.raises(ValueError):
            RoundTripTrader(capital=100.0, leverage=1.0, leg_notional=-101.0, buy_tick=0, sell_tick=1)

    def test_ticks_must_be_ordered(self):
        with pytest.raises(ValueError):
            RoundTripTrader(capital=1e9, leverage=10.0, leg_notional=1e7, buy_tick=5, sell_tick=5)
        with pytest.raises(ValueError):
            RoundTripTrader(capital=1e9, leverage=10.0, leg_notional=1e7, buy_tick=10, sell_tick=3)

    @pytest.mark.parametrize("capital, leverage", [(0.0, 10.0), (-1e9, 10.0), (1e9, 0.0)])
    def test_rejects_non_positive_capital_or_leverage(self, capital, leverage):
        with pytest.raises(ValueError):
            RoundTripTrader(capital=capital, leverage=leverage, leg_notional=0.0, buy_tick=0, sell_tick=1)

    @pytest.mark.parametrize(
        "capital, leverage, leg, match",
        [
            (float("inf"), 10.0, 0.0, "capital must be positive and finite"),
            (float("nan"), 10.0, 0.0, "capital must be positive and finite"),
            (1e9, float("inf"), 0.0, "leverage must be positive and finite"),
            (1e9, float("nan"), 0.0, "leverage must be positive and finite"),
            (1e200, 1e200, 0.0, "book value capital \\* leverage overflows"),
            (1e9, 10.0, float("nan"), "leg_notional must be finite"),
            (1e9, 10.0, float("-inf"), "leg_notional must be finite"),
        ],
    )
    def test_rejects_non_finite_values(self, capital, leverage, leg, match):
        # NaN compares false against any bound, so each check must accept only finite values
        with pytest.raises(ValueError, match=match):
            RoundTripTrader(capital=capital, leverage=leverage, leg_notional=leg, buy_tick=0, sell_tick=1)


class TestOrdersForTick:
    def test_buy_leg(self):
        assert orders_for_tick(PAPER_AGENT, 0) == [1e7]

    def test_sell_leg(self):
        assert orders_for_tick(PAPER_AGENT, 391) == [-1e7]

    @pytest.mark.parametrize("t", [1, 100, 390])
    def test_quiet_between_legs(self, t):
        assert orders_for_tick(PAPER_AGENT, t) == []

    def test_disabled_agent_is_silent(self):
        ghost = RoundTripTrader(1e9, 10.0, 1e7, 0, 391, enabled=False)
        for t in (0, 100, 391):
            assert orders_for_tick(ghost, t) == []

    def test_negative_leg_flips_the_round_trip(self):
        seller = RoundTripTrader(1e9, 10.0, -1e7, 0, 391)
        assert orders_for_tick(seller, 0) == [-1e7]
        assert orders_for_tick(seller, 391) == [1e7]

    def test_day_flow_is_exactly_neutral(self):
        total = sum(notional for t in range(392) for notional in orders_for_tick(PAPER_AGENT, t))
        assert total == 0.0


class TestSplitTrader:
    def test_identity_split(self):
        assert split_trader(1, PAPER_AGENT) == [PAPER_AGENT]

    def test_two_way_split(self):
        halves = split_trader(2, PAPER_AGENT)
        assert len(halves) == 2
        for half in halves:
            assert half.leg_notional == 5e6
            assert half.book_value == 5e9
            assert (half.buy_tick, half.sell_tick) == (0, 391)
        flow = sum(n for a in halves for n in orders_for_tick(a, 0))
        assert flow == 1e7

    def test_ten_way_split_shares_the_cost(self):
        tenths = split_trader(10, PAPER_AGENT)
        per_agent = [
            crossing_cost(abs(a.leg_notional), 15.0) + crossing_cost(abs(a.leg_notional), 5.0)
            for a in tenths
        ]
        assert all(c == pytest.approx(1_000.0, rel=1e-12) for c in per_agent)
        assert sum(per_agent) == pytest.approx(10_000.0, rel=1e-12)

    def test_zero_way_split_rejected(self):
        with pytest.raises(ValueError):
            split_trader(0, PAPER_AGENT)

    @given(n=st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_aggregate_flow_invariance(self, n):
        parts = split_trader(n, PAPER_AGENT)
        for t in (0, 57, 391):
            whole = sum(orders_for_tick(PAPER_AGENT, t))
            split = sum(n for a in parts for n in orders_for_tick(a, t))
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-6)

    def test_agent_ids_are_distinct(self):
        ids = [a.agent_id for a in split_trader(3, PAPER_AGENT)]
        assert len(set(ids)) == 3
