import math
from dataclasses import replace

import numpy as np
import pytest

from daydrift import (
    DayRecord,
    ImpactParams,
    IntradayClock,
    Ledger,
    MarketState,
    NoiseParams,
    RoundTripTrader,
    Scenario,
    SimulationError,
    SpreadDepthProfile,
    advance_noise,
    apply_aggressive_trade,
    day_rng,
    from_micro,
    load_config,
    mark_to_market,
    orders_for_tick,
    read_daily_csv,
    record_fill,
    run_day,
    run_sim,
    run_sweep,
    simulate,
    summarize,
    write_daily_csv,
)

from conftest import NOISY_CONFIG, REFERENCE_CONFIG


def make_scenario(
    days=1,
    seed=0,
    lam=20.0,
    sigma=0.0,
    half_life=None,
    agents=None,
    ticks=392,
    initial_mid=100.0,
    fundamental=None,
    **kwargs,
):
    if agents is None:
        agents = (RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=ticks - 1),)
    return Scenario(
        clock=IntradayClock(ticks_per_day=ticks),
        profile=SpreadDepthProfile.default(ticks),
        impact=ImpactParams(lam=lam),
        noise=NoiseParams(sigma, half_life),
        agents=tuple(agents),
        days=days,
        seed=seed,
        initial_mid=initial_mid,
        initial_fundamental=fundamental if fundamental is not None else initial_mid,
        **kwargs,
    )


def nudge_bps(record: DayRecord) -> float:
    return (record.close - record.prev_close) / record.prev_close * 1e4


class TestRunDay:
    def test_quiescent_day(self):
        scenario = make_scenario(agents=())
        record = run_sim(scenario)[0]
        assert record.prev_close == record.open == record.close == 100.0
        assert record.total_cost == 0.0
        assert record.mtm_gain == 0.0

    def test_reference_day_numbers(self):
        record = run_sim(make_scenario())[0]
        assert record.total_cost == 10_000.0
        assert record.mtm_gain == pytest.approx(1_000_000.0, rel=1e-9)
        assert record.net_pnl == pytest.approx(990_000.0, rel=1e-9)
        assert nudge_bps(record) == pytest.approx(1.0, rel=1e-9)
        # morning leg lands in the overnight bucket, closing leg intraday
        assert record.open == pytest.approx(100.0 * (1 + 1.5e-4), rel=1e-12)
        assert record.close == pytest.approx(100.01, rel=1e-12)

    def test_swapped_schedule_negates_the_nudge_exactly(self):
        fwd = make_scenario()
        rev = replace(
            fwd, agents=tuple(replace(a, leg_notional=-a.leg_notional) for a in fwd.agents)
        )
        rf, rr = run_sim(fwd)[0], run_sim(rev)[0]
        # exact negation at scenario price scale (away from float binade edges)
        assert nudge_bps(rr) == -nudge_bps(rf)
        assert rr.total_cost == rf.total_cost

    def test_day_aborts_name_the_day(self):
        # a sell-first schedule with absurd impact drives the mid non-positive
        profile = SpreadDepthProfile.constant(392, 15.0, 1e4)
        agent = RoundTripTrader(1e9, 10.0, -1e7, buy_tick=0, sell_tick=391)
        scenario = replace(make_scenario(days=3, lam=1e7, agents=(agent,)), profile=profile)
        with pytest.raises(SimulationError, match="day 1"):
            run_sim(scenario)

    def test_leg_growth_hook_scales_costs(self):
        scenario = make_scenario(days=3, leg_growth_per_day=1.5)
        records = run_sim(scenario)
        assert records[0].total_cost == pytest.approx(10_000.0, abs=1e-6)
        assert records[1].total_cost == pytest.approx(15_000.0, abs=1e-6)
        assert records[2].total_cost == pytest.approx(22_500.0, abs=1e-6)

    def test_multi_agent_day_matches_single_agent_aggregate(self):
        from daydrift import split_trader

        single = make_scenario()
        split = replace(single, agents=tuple(split_trader(4, single.agents[0])))
        r1, r4 = run_sim(single)[0], run_sim(split)[0]
        assert r4.total_cost == pytest.approx(r1.total_cost, abs=1e-6)
        assert r4.close == pytest.approx(r1.close, rel=1e-12)
        assert r4.mtm_gain == pytest.approx(r1.mtm_gain, rel=1e-9)


class TestRunDayMatchesOperationComposition:
    def test_bitwise_equivalence_with_noise_reversion_and_trades(self):
        ticks = 6
        clock = IntradayClock(ticks_per_day=ticks)
        profile = SpreadDepthProfile.default(ticks, 15.0, 5.0, 1e9)
        impact = ImpactParams(lam=20.0, permanent_fraction=0.5, temporary_decay_per_tick=0.5)
        noise = NoiseParams(0.01, 504.0)
        agent = RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=ticks - 1)
        scenario = Scenario(
            clock, profile, impact, noise, (agent,), days=3, seed=99,
            initial_mid=100.0, initial_fundamental=95.0,
        )

        state = scenario.initial_state()
        expected = []
        for day in range(1, scenario.days + 1):
            state = state.start_day(day_rng(scenario.seed, day))
            prev = state.day_anchor
            open_price = None
            for t in range(ticks):
                state = state.decay_temporary(impact)
                state = advance_noise(state, noise, clock.dt_days)
                for intent in orders_for_tick(agent, t):
                    _, _, state = apply_aggressive_trade(
                        state, profile, impact, intent.signed_notional, t
                    )
                if t == 0:
                    open_price = state.mid
            expected.append((prev, open_price, state.mid, state.temp_impact_bps))

        records = simulate(scenario).records
        for record, (prev, open_price, close, _) in zip(records, expected):
            assert record.prev_close == prev
            assert record.open == open_price
            assert record.close == close
        # carried state agrees bit-for-bit too
        final = simulate(scenario).final_state
        assert final.mid == expected[-1][2]
        assert final.temp_impact_bps == expected[-1][3]

    @pytest.mark.parametrize(
        "case",
        ["noisy-path", "noiseless", "interior-trades-diffusing", "interior-trades-reverting"],
    )
    def test_bitwise_equivalence_across_day_shapes(self, case):
        scenario = bitwise_case(case)
        expected = list(compose_days(scenario))
        result = simulate(scenario)
        assert list(result.records) == [record for record, _, _ in expected]
        _, ledger, state = expected[-1]
        assert result.ledger == ledger
        final = result.final_state
        assert final.day_anchor == state.day_anchor
        assert final.perm_impact_bps == state.perm_impact_bps
        assert final.temp_impact_bps == state.temp_impact_bps

    @pytest.mark.parametrize("half_life", [None, 504.0])
    def test_non_finite_price_names_the_first_day_the_noise_step_fails(self, half_life):
        scenario = replace(
            load_config(NOISY_CONFIG).build(), noise=NoiseParams(300.0, half_life), days=50, seed=1
        )
        failed_day = None
        days = compose_days(scenario)
        for day in range(1, scenario.days + 1):
            try:
                next(days)
            except ValueError as exc:
                assert "non-finite" in str(exc)
                failed_day = day
                break
        assert failed_day is not None
        with pytest.raises(SimulationError, match=rf"^day {failed_day}: noise step produced"):
            simulate(scenario)


def bitwise_case(case: str) -> Scenario:
    if case == "noisy-path":  # diffusion without reversion, 392 ticks
        return replace(load_config(NOISY_CONFIG).build(), days=4, seed=3)
    if case == "noiseless":
        return replace(load_config(REFERENCE_CONFIG).build(), days=3)
    # a buy-first and a sell-first agent trading at the same interior tick,
    # unwinding at different interior ticks, with legs growing 1.5x a day
    agents = (
        RoundTripTrader(1e9, 10.0, 1e7, buy_tick=5, sell_tick=40, agent_id="A"),
        RoundTripTrader(5e8, 10.0, -4e6, buy_tick=5, sell_tick=50, agent_id="B"),
    )
    if case == "interior-trades-diffusing":
        scenario = make_scenario(days=3, seed=5, sigma=0.01, agents=agents, ticks=64, leg_growth_per_day=1.5)
    else:
        scenario = make_scenario(
            days=3, sigma=0.0, half_life=0.5, agents=agents, ticks=64, fundamental=95.0,
            leg_growth_per_day=1.5,
        )
    # a retained fraction that is not a power of two rounds at every tick
    return replace(scenario, impact=ImpactParams(lam=20.0, temporary_decay_per_tick=0.3))


def compose_days(scenario: Scenario):
    """Reference run, one tick at a time through the market operations.

    Yields ``(record, ledger, state)`` after each day; fills are booked
    with ``record_fill`` and each day is sealed with ``mark_to_market``.
    """
    clock, profile, impact, noise = scenario.clock, scenario.profile, scenario.impact, scenario.noise
    state = scenario.initial_state()
    ledger = Ledger()
    for day in range(1, scenario.days + 1):
        state = state.start_day(day_rng(scenario.seed, day))
        prev = state.day_anchor
        scale = scenario.leg_growth_per_day ** (day - 1)
        for t in range(clock.ticks_per_day):
            state = state.decay_temporary(impact)
            state = advance_noise(state, noise, clock.dt_days)
            for agent in scenario.agents:
                for intent in orders_for_tick(agent, t, scale):
                    fill, cost, state = apply_aggressive_trade(
                        state, profile, impact, intent.signed_notional, t
                    )
                    ledger = record_fill(ledger, fill, intent.signed_notional, cost)
            if t == 0:
                open_price = state.mid
        book = scenario.total_book_value / scenario.initial_mid * prev
        gain, ledger = mark_to_market(ledger, book, prev, state.mid)
        cost = from_micro(ledger.cost_history_micro[-1])
        yield DayRecord(day, prev, open_price, state.mid, cost, gain, gain - cost), ledger, state


class TestRunSim:
    def test_single_day_reduces_to_run_day(self):
        scenario = make_scenario()
        records = run_sim(scenario)
        state = scenario.initial_state()
        _, record, _ = run_day(state, scenario, 1, Ledger())
        assert records == [record]

    def test_days_chain_exactly(self):
        records = run_sim(make_scenario(days=40, sigma=0.01, half_life=504.0, seed=3))
        for a, b in zip(records, records[1:]):
            assert a.close == b.prev_close
            assert b.day == a.day + 1

    def test_identical_runs_are_bit_identical(self, tmp_path):
        scenario = make_scenario(days=25, sigma=0.01, seed=11)
        r1, r2 = run_sim(scenario), run_sim(scenario)
        assert r1 == r2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_daily_csv(r1, p1)
        write_daily_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        a = run_sim(make_scenario(days=5, sigma=0.01, seed=1))
        b = run_sim(make_scenario(days=5, sigma=0.01, seed=2))
        assert a != b

    def test_doubling_day_for_four_bp_calibration(self):
        # lambda=80 gives +4 bp/day; price doubles on the day the compounded
        # factor first reaches 2 (brute-force oracle: 1734 days, ~6.9 years)
        records = run_sim(make_scenario(days=1740, lam=80.0))
        first = next(r for r in records if r.close >= 2 * 100.0)
        assert first.day == 1734
        assert records[1732].close < 200.0

    def test_no_agent_runs_have_no_systematic_drift(self):
        # 4 sigma / sqrt(N) band on the mean daily log return, per seed
        for seed in (1, 2, 3):
            records = run_sim(make_scenario(days=500, sigma=0.01, seed=seed, agents=()))
            mean_log = np.mean([math.log(r.close / r.prev_close) for r in records])
            assert abs(mean_log) <= 4 * 0.01 / math.sqrt(len(records))

    def test_mtm_telescopes_to_the_total_move(self):
        scenario = make_scenario(days=120, sigma=0.01, seed=9)
        records = run_sim(scenario)
        total = sum(r.mtm_gain for r in records)
        expected = 1e10 * (records[-1].close / records[0].prev_close - 1.0)
        assert abs(total - expected) / abs(expected) <= 1e-9

    def test_ledger_conservation_through_a_run(self):
        scenario = make_scenario(days=30, sigma=0.01, seed=5)
        result = simulate(scenario)
        led = result.ledger
        assert led.cash_micro == -sum(f.signed_notional_micro + f.cost_micro for f in led.fills)
        assert led.cumulative_cost_micro == sum(f.cost_micro for f in led.fills)
        assert led.cumulative_cost_micro == 30 * 10_000_000_000


class TestDailyCsv:
    def test_round_trip_preserves_the_six_decimal_schema(self, tmp_path):
        records = run_sim(make_scenario(days=7, sigma=0.01, seed=2))
        path = tmp_path / "daily.csv"
        write_daily_csv(records, path)
        text = path.read_text()
        assert text.splitlines()[0] == (
            "day,prev_close,open,close,overnight_ret,intraday_ret,total_cost,mtm_gain,net_pnl"
        )
        parsed = read_daily_csv(path)
        assert len(parsed) == 7
        for raw, back in zip(records, parsed):
            assert back.day == raw.day
            assert back.prev_close == pytest.approx(raw.prev_close, abs=5e-7)
            assert back.close == pytest.approx(raw.close, abs=5e-7)
            assert back.total_cost == pytest.approx(raw.total_cost, abs=5e-3)

    def test_rejects_foreign_headers(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("date,open,close\n2024-01-02,1,2\n")
        with pytest.raises(ValueError):
            read_daily_csv(path)


class TestRunSweep:
    def test_single_point_grid_matches_run_sim(self):
        base = make_scenario(days=3)
        cells = run_sweep(base, [("impact.lambda", [20.0])])
        assert len(cells) == 1 and cells[0].ok
        assert cells[0].summary == summarize(run_sim(base))

    def test_worker_count_does_not_change_results(self):
        base = make_scenario(days=2, sigma=0.01, seed=21)
        grid = [("agents.book_value", [1e7, 1e8, 1e9, 1e10])]
        serial = run_sweep(base, grid, workers=1)
        parallel = run_sweep(base, grid, workers=4)
        assert serial == parallel

    def test_failed_cells_report_without_aborting(self):
        base = make_scenario(days=1)
        cells = run_sweep(base, [("agents.book_value", [1e9, -1.0, 1e10])])
        assert [c.ok for c in cells] == [True, False, True]
        assert "must be positive" in cells[1].error

    def test_unknown_key_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown sweep key"):
            run_sweep(make_scenario(), [("impact.nope", [1.0])])

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(make_scenario(), [])

    def test_cartesian_product_order_is_row_major(self):
        base = make_scenario(days=1)
        cells = run_sweep(base, [("impact.lambda", [0.0, 20.0]), ("run.seed", [1.0, 2.0])])
        combos = [tuple(v for _, v in c.params) for c in cells]
        assert combos == [(0.0, 1.0), (0.0, 2.0), (20.0, 1.0), (20.0, 2.0)]

    def test_breakeven_book_is_at_one_hundred_million(self):
        base = make_scenario(days=1)
        cells = run_sweep(base, [("agents.book_value", [1e7, 1e8, 1e9, 1e10])])
        nets = [c.summary.total_net_pnl for c in cells]
        assert nets[0] < 0 < nets[-1]
        from daydrift import locate_zero_crossing

        crossing = locate_zero_crossing([1e7, 1e8, 1e9, 1e10], nets)
        assert crossing == pytest.approx(1e8, rel=0.02)


class TestScenarioValidation:
    def test_profile_and_clock_must_agree(self):
        with pytest.raises(ValueError):
            make_scenario(ticks=392, agents=()).__class__(
                clock=IntradayClock(100),
                profile=SpreadDepthProfile.default(392),
                impact=ImpactParams(),
                noise=NoiseParams(0.0, None),
                agents=(),
                days=1,
                seed=0,
                initial_mid=100.0,
                initial_fundamental=100.0,
            )

    def test_agent_schedule_must_fit_the_day(self):
        agent = RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=500)
        with pytest.raises(ValueError):
            make_scenario(agents=(agent,))

    def test_days_must_be_positive(self):
        with pytest.raises(ValueError):
            make_scenario(days=0, agents=())
