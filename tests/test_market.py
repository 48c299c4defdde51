import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daydrift import (
    BPS,
    CalibrationError,
    ImpactParams,
    IntradayClock,
    MarketState,
    NoiseParams,
    SpreadDepthProfile,
    advance_noise,
    apply_aggressive_trade,
    calibrate_lambda,
    crossing_cost,
    impact_bps,
    quoted_half_spread,
)

DEFAULT = SpreadDepthProfile.default(392)
PARAMS_1BP = ImpactParams(lam=20.0)  # +1 bp/day for $10M legs against the default profile


class TestClock:
    def test_defaults(self):
        clock = IntradayClock()
        assert clock.ticks_per_day == 392
        assert clock.close_tick == 391
        assert clock.dt_days == pytest.approx(1 / 392)

    @pytest.mark.parametrize("ticks", [0, 1, -5])
    def test_rejects_degenerate_grid(self, ticks):
        with pytest.raises(ValueError):
            IntradayClock(ticks_per_day=ticks)


class TestProfile:
    def test_default_endpoints_are_exact(self):
        assert DEFAULT.full_spread_bps[0] == 15.0
        assert DEFAULT.full_spread_bps[-1] == 5.0
        assert np.all(DEFAULT.depth == 1e9)

    def test_default_spread_monotone_and_positive(self):
        spread = DEFAULT.full_spread_bps
        assert np.all(np.diff(spread) <= 0)
        assert np.all(spread > 0)

    @pytest.mark.parametrize("open_bps, close_bps", [(1e-300, 1e10), (1e300, 1e-300), (15.0, 5e-324)])
    def test_interior_spread_out_of_range_names_the_close_spread(self, open_bps, close_bps):
        # the ratio of the ends overflows to inf or underflows to 0
        with pytest.raises(ValueError) as info:
            SpreadDepthProfile.default(392, open_bps, close_bps)
        assert str(info.value) == (
            f"close_spread_bps {close_bps} is too far from the open spread {open_bps}: "
            "an interpolated spread leaves (0, inf)"
        )

    def test_two_tick_profile_has_no_interior_to_leave_the_range(self):
        profile = SpreadDepthProfile.default(2, 1e-300, 1e10)
        assert profile.full_spread_bps.tolist() == [1e-300, 1e10]

    def test_constant(self):
        profile = SpreadDepthProfile.constant(10, 10.0, 5e8)
        assert np.all(profile.full_spread_bps == 10.0)
        assert np.all(profile.depth == 5e8)

    @pytest.mark.parametrize(
        "spread, depth",
        [
            ([0.0, 5.0], [1e9, 1e9]),
            ([15.0, -1.0], [1e9, 1e9]),
            ([15.0, 5.0], [0.0, 1e9]),
            ([15.0, 5.0], [1e9, -2.0]),
        ],
    )
    def test_degenerate_tables_rejected(self, spread, depth):
        with pytest.raises(ValueError):
            SpreadDepthProfile(np.array(spread), np.array(depth))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SpreadDepthProfile(np.array([15.0, 5.0]), np.array([1e9]))

    def test_a_profile_of_one_tick_rejected(self):
        with pytest.raises(ValueError, match="^n_ticks must be >= 2$"):
            SpreadDepthProfile.default(n_ticks=1)
        with pytest.raises(ValueError, match="^profile needs at least 2 ticks$"):
            SpreadDepthProfile([1.0], [1.0])


class TestQuotedHalfSpread:
    def test_open_and_close(self):
        assert quoted_half_spread(DEFAULT, 0) == 7.5
        assert quoted_half_spread(DEFAULT, 391) == 2.5

    def test_constant_profile(self):
        profile = SpreadDepthProfile.constant(392, 10.0, 1e9)
        for t in (0, 17, 391):
            assert quoted_half_spread(profile, t) == 5.0

    @pytest.mark.parametrize("t", [-1, 392, 1000])
    def test_out_of_range_tick(self, t):
        with pytest.raises(IndexError):
            quoted_half_spread(DEFAULT, t)


class TestCrossingCost:
    def test_open_leg(self):
        assert crossing_cost(10_000_000, 15.0) == pytest.approx(7_500.0, rel=1e-12)

    def test_close_leg_and_daily_total(self):
        close = crossing_cost(10_000_000, 5.0)
        assert close == pytest.approx(2_500.0, rel=1e-12)
        assert crossing_cost(10_000_000, 15.0) + close == pytest.approx(10_000.0, rel=1e-12)

    def test_zero_spread(self):
        assert crossing_cost(123_456.0, 0.0) == 0.0

    @pytest.mark.parametrize("notional, spread", [(-1.0, 10.0), (1e6, -0.5)])
    def test_negative_inputs(self, notional, spread):
        with pytest.raises(ValueError):
            crossing_cost(notional, spread)


class TestImpact:
    def test_zero_notional(self):
        assert impact_bps(PARAMS_1BP, DEFAULT, 0.0, 0) == 0.0

    def test_known_values(self):
        # lam * spread * Q/D: 20 * 15 * 0.01 = 3 bps at the open, 1 bp at the close
        assert impact_bps(PARAMS_1BP, DEFAULT, 1e7, 0) == pytest.approx(3.0, rel=1e-12)
        assert impact_bps(PARAMS_1BP, DEFAULT, 1e7, 391) == pytest.approx(1.0, rel=1e-12)

    @given(
        notional=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
        t=st.integers(min_value=0, max_value=391),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, notional, t):
        assert impact_bps(PARAMS_1BP, DEFAULT, -notional, t) == -impact_bps(
            PARAMS_1BP, DEFAULT, notional, t
        )

    @given(
        notional=st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
        t=st.integers(min_value=0, max_value=391),
    )
    @settings(max_examples=200, deadline=None)
    def test_doubling_notional_doubles_impact(self, notional, t):
        # power-of-two scaling is exact in floats
        assert impact_bps(PARAMS_1BP, DEFAULT, 2 * notional, t) == 2 * impact_bps(
            PARAMS_1BP, DEFAULT, notional, t
        )

    @given(
        notional=st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
        scale=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_linearity(self, notional, scale):
        scaled = impact_bps(PARAMS_1BP, DEFAULT, scale * notional, 0)
        assert scaled == pytest.approx(scale * impact_bps(PARAMS_1BP, DEFAULT, notional, 0), rel=1e-12)

    def test_open_impact_exceeds_close_impact(self):
        for notional in (1.0, 1e4, 1e7):
            assert impact_bps(PARAMS_1BP, DEFAULT, notional, 0) > impact_bps(
                PARAMS_1BP, DEFAULT, notional, 391
            )

    def test_bad_tick(self):
        with pytest.raises(IndexError):
            impact_bps(PARAMS_1BP, DEFAULT, 1e6, 392)


class TestApplyAggressiveTrade:
    def test_zero_notional_is_a_no_op(self):
        state = MarketState.initial(100.0)
        fill, cost, new_state = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, 0.0, 5)
        assert fill == state.mid
        assert cost == 0.0
        assert new_state is state

    def test_fill_price_and_cost_at_open(self):
        state = MarketState.initial(100.0)
        fill, cost, _ = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, 1e7, 0)
        assert fill == pytest.approx(100.075, rel=1e-12)  # mid + 7.5 bps
        assert cost == pytest.approx(7_500.0, rel=1e-12)

    def test_sell_fills_below_mid(self):
        state = MarketState.initial(100.0)
        fill, cost, _ = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, -1e7, 391)
        assert fill == pytest.approx(100.0 * (1 - 2.5 * BPS), rel=1e-12)
        assert cost == pytest.approx(2_500.0, rel=1e-12)

    def test_same_tick_round_trip_is_exactly_neutral(self):
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, 1e7, 40)
        _, _, state = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, -1e7, 40)
        assert state.perm_impact_bps == 0.0
        assert state.mid == 100.0

    def test_reference_day_nets_one_bp(self):
        # buy $10M at the open, sell $10M at the close, lambda calibrated to 1 bp
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, 1e7, 0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, -1e7, 391)
        assert state.perm_impact_bps == pytest.approx(1.0, rel=1e-12)
        assert (state.mid - 100.0) / 100.0 == pytest.approx(1e-4, rel=1e-9)

    def test_permanent_temporary_split(self):
        params = ImpactParams(lam=20.0, permanent_fraction=0.25)
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, params, 1e7, 0)
        total = impact_bps(params, DEFAULT, 1e7, 0)
        assert state.perm_impact_bps == pytest.approx(0.25 * total, rel=1e-12)

    def test_pathological_sell_rejected(self):
        params = ImpactParams(lam=1e6)
        profile = SpreadDepthProfile.constant(392, 15.0, 1e6)
        state = MarketState.initial(100.0)
        with pytest.raises(ValueError):
            apply_aggressive_trade(state, profile, params, -1e7, 0)


class TestCalibrateLambda:
    def test_zero_target(self):
        assert calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 0, 391, 0.0) == 0.0

    def test_closed_form_value(self):
        # 1 bp / (0.5 * (Q/D) * 10 bps) = 0.2 * D/Q = 20
        lam = calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 0, 391, 1.0)
        assert lam == pytest.approx(20.0, rel=1e-12)

    def test_four_bp_target_is_four_times_one_bp(self):
        one = calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 0, 391, 1.0)
        four = calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 0, 391, 4.0)
        assert four == pytest.approx(4.0 * one, rel=1e-15)

    def test_symmetric_profile_is_infeasible(self):
        flat = SpreadDepthProfile.constant(392, 10.0, 1e9)
        with pytest.raises(CalibrationError):
            calibrate_lambda(flat, ImpactParams(), 1e7, 0, 391, 4.0)

    def test_zero_permanent_fraction_is_infeasible(self):
        with pytest.raises(CalibrationError):
            calibrate_lambda(DEFAULT, ImpactParams(permanent_fraction=0.0), 1e7, 0, 391, 1.0)

    def test_equal_ticks_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 5, 5, 1.0)

    def test_wrong_direction_schedule_rejected(self):
        # buying where the market is tighter cannot produce an upward drift
        with pytest.raises(CalibrationError):
            calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 391, 0, 1.0)

    @pytest.mark.parametrize("target", [0.25, 1.0, 4.0, 10.0])
    def test_round_trip_reproduces_target(self, target):
        lam = calibrate_lambda(DEFAULT, ImpactParams(), 1e7, 0, 391, target)
        params = ImpactParams(lam=lam)
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, params, 1e7, 0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, params, -1e7, 391)
        assert abs(state.perm_impact_bps - target) / target <= 1e-12

    @given(
        open_bps=st.floats(min_value=2.0, max_value=100.0),
        close_ratio=st.floats(min_value=0.05, max_value=0.9),
        depth=st.floats(min_value=1e6, max_value=1e12),
        leg=st.floats(min_value=1e3, max_value=1e8),
        target=st.floats(min_value=0.01, max_value=50.0),
        pf=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, open_bps, close_ratio, depth, leg, target, pf):
        # close_ratio <= 0.9 keeps the schedule asymmetry away from the
        # cancellation regime where the identity inherently loses digits
        profile = SpreadDepthProfile.default(16, open_bps, open_bps * close_ratio, depth)
        base = ImpactParams(permanent_fraction=pf)
        lam = calibrate_lambda(profile, base, leg, 0, 15, target)
        params = ImpactParams(lam=lam, permanent_fraction=pf)
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, profile, params, leg, 0)
        _, _, state = apply_aggressive_trade(state, profile, params, -leg, 15)
        assert abs(state.perm_impact_bps - target) / target <= 1e-12


class TestAdvanceNoise:
    def test_quiet_params_leave_state_untouched(self):
        state = MarketState.initial(123.456, 100.0)
        out = advance_noise(state, NoiseParams(0.0, None), 1.0)
        assert out is state

    def test_fixed_point_of_mean_reversion(self):
        state = MarketState.initial(100.0, 100.0)
        out = advance_noise(state, NoiseParams(0.0, 504.0), 1.0)
        assert out.mid == 100.0

    def test_half_life_daily_steps(self):
        # start 2x above fundamental; after one half-life the log of the ratio has halved
        state = MarketState.initial(200.0, 100.0)
        noise = NoiseParams(0.0, 504.0)
        for _ in range(504):
            state = advance_noise(state, noise, 1.0)
        ratio = state.mid / 100.0
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_half_life_is_step_size_invariant(self):
        state = MarketState.initial(200.0, 100.0)
        noise = NoiseParams(0.0, 504.0)
        dt = 1.0 / 392
        for _ in range(504 * 392):
            state = advance_noise(state, noise, dt)
        assert state.mid / 100.0 == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_diffusion_is_deterministic_given_the_generator(self):
        a = b = MarketState.initial(100.0)
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        noise = NoiseParams(0.02, None)
        for _ in range(10):
            a = advance_noise(a, noise, 1.0, rng_a)
            b = advance_noise(b, noise, 1.0, rng_b)
        assert a.mid == b.mid
        assert a.mid != 100.0

    def test_price_stays_positive_under_large_noise(self):
        state = MarketState.initial(1e-3)
        rng = np.random.default_rng(1)
        noise = NoiseParams(0.5, None)
        for _ in range(200):
            state = advance_noise(state, noise, 1.0, rng)
            assert state.mid > 0

    def test_an_infinite_half_life_is_none(self):
        assert NoiseParams(0.01, math.inf) == NoiseParams(0.01, None)

    def test_rejects_non_positive_dt(self):
        state = MarketState.initial(100.0)
        with pytest.raises(ValueError):
            advance_noise(state, NoiseParams(0.01, None), 0.0)


class TestQuiescence:
    def test_mid_is_bit_constant_without_trades_noise_or_reversion(self):
        state = MarketState.initial(107.3331)
        noise = NoiseParams(0.0, None)
        start = state.mid
        for _ in range(2000):
            state = advance_noise(state, noise, 1.0 / 392)
        assert state.mid == start


class TestMarketState:
    @pytest.mark.parametrize("mid, fundamental", [(0.0, 100.0), (-5.0, 100.0), (100.0, 0.0)])
    def test_rejects_non_positive_prices(self, mid, fundamental):
        with pytest.raises(ValueError):
            MarketState.initial(mid, fundamental)

    @pytest.mark.parametrize(
        ("mid", "fundamental", "name"),
        [(math.inf, 1.0, "day anchor"), (math.nan, 1.0, "day anchor"), (1.0, math.inf, "fundamental")],
    )
    def test_rejects_non_finite_prices(self, mid, fundamental, name):
        with pytest.raises(ValueError, match=f"^{name}.* must be positive and finite"):
            MarketState(mid, fundamental)

    def test_start_day_rolls_drift_into_the_anchor(self):
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, DEFAULT, PARAMS_1BP, 1e7, 0)
        mid_before = state.mid
        rolled = state.start_day()
        assert rolled.day_anchor == mid_before
        assert rolled.perm_impact_bps == 0.0
        assert rolled.mid == mid_before


def test_bps_constant_is_exact():
    assert BPS == 1e-4
    assert math.isclose(15 * BPS, 0.0015, rel_tol=1e-15)
