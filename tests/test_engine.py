import builtins
import copy
import functools
import gc
import itertools
import math
import operator
import pickle
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daydrift import (
    DayRecord,
    ImpactParams,
    IntradayClock,
    Ledger,
    MarketState,
    NoiseParams,
    RoundTripTrader,
    Scenario,
    ScenarioConfig,
    SimulationError,
    SpreadDepthProfile,
    advance_noise,
    apply_aggressive_trade,
    day_rng,
    load_config,
    mark_to_market,
    orders_for_tick,
    read_daily_csv,
    run_sim,
    run_sweep,
    simulate,
    summarize,
    write_daily_csv,
)
from daydrift import engine
from daydrift.csvio import BLOCK_ROWS
from daydrift.engine import _BLOCK_DAYS, _DAY_COLUMNS, DAILY_CSV, DayColumns, SimResult, _run_days, day_keys
from daydrift.ledger import AccountingError
from daydrift.market import diffusion_coef, diffusion_growth

import composition
from composition import bitwise_case, compose_days, make_scenario
from conftest import NOISY_CONFIG, REFERENCE_CONFIG

# Every test here runs the kernel with a 64-day block, except in the classes that override ``edge_block``
# to run the kernel's own ``_BLOCK_DAYS``: so the block-edge tests cross edges in runs of a few hundred days,
# and their hand-tuned data fail on the edge days 64 and 65.
TEST_BLOCK_DAYS = 64


@pytest.fixture(autouse=True)
def edge_block(monkeypatch):
    monkeypatch.setattr(engine, "_BLOCK_DAYS", TEST_BLOCK_DAYS)


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

    @pytest.mark.parametrize("tick", [0, 5])
    @pytest.mark.parametrize("half_life", [None, 504.0, 1e-6])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_day_aborts_name_the_day(self, sigma, half_life, tick):
        # a sell-first schedule with absurd impact drives the mid non-positive; a step of the mid past that
        # order would take a negative power under mean reversion, so the refused day must not be stepped
        profile = SpreadDepthProfile.constant(392, 15.0, 1e4)
        agent = RoundTripTrader(1e9, 10.0, -1e7, buy_tick=tick, sell_tick=391)
        scenario = replace(
            make_scenario(days=3, lam=1e7, sigma=sigma, half_life=half_life, agents=(agent,)), profile=profile
        )
        message = (
            f"trade of -10000000.0 at tick {tick} would drive the mid non-positive "
            "(cumulative permanent impact -75000000000.0 bps)"
        )
        with pytest.raises(SimulationError, match=f"^day 1: {re.escape(message)}$"):
            run_sim(scenario)
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _run_days(scenario, ledger, columns)
        assert len(columns) == 0 and ledger == Ledger()

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
        impact = ImpactParams(lam=20.0, permanent_fraction=0.5)
        noise = NoiseParams(0.01, 504.0)
        agent = RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=ticks - 1)
        scenario = Scenario(
            profile, impact, noise, (agent,), days=3, seed=99,
            initial_mid=100.0, initial_fundamental=95.0,
        )

        # the stops are the open and the close: one noise step over tick 0, one over ticks 1..5
        state = MarketState.initial(scenario.initial_mid, scenario.initial_fundamental)
        expected = []
        for day in range(1, scenario.days + 1):
            state, rng = state.start_day(), day_rng(scenario.seed, day)
            prev = state.day_anchor
            open_price = None
            for t, gap in ((0, 1), (ticks - 1, ticks - 1)):
                state = advance_noise(state, noise, gap * clock.dt_days, rng)
                for notional in orders_for_tick(agent, t):
                    _, _, state = apply_aggressive_trade(state, profile, impact, notional, t)
                if t == 0:
                    open_price = state.mid
            expected.append((prev, open_price, state.mid))

        records = simulate(scenario).records
        for record, (prev, open_price, close) in zip(records, expected):
            assert record.prev_close == prev
            assert record.open == open_price
            assert record.close == close

    @pytest.mark.parametrize(
        "case",
        [
            "noisy-path",
            "noisy-reverting",
            "noiseless",
            "interior-trades-diffusing",
            "interior-trades-reverting",
            "interior-trades-noiseless",
        ],
    )
    def test_bitwise_equivalence_across_day_shapes(self, case):
        scenario = bitwise_case(case)
        expected = list(compose_days(scenario))
        result = simulate(scenario)
        assert list(result.records) == [record for record, _ in expected]
        _, ledger = expected[-1]
        assert result.ledger == ledger

    def test_a_run_returns_its_columns_and_its_ledger(self):
        assert [f.name for f in fields(SimResult)] == ["columns", "ledger"]

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


class TestSegmentLaw:
    def test_the_tick_0_step_keeps_the_per_tick_bits(self, monkeypatch):
        # the segment ending at tick 0 spans one tick, so the open is one per-tick noise step and the opening fill
        scenario = bitwise_case("noisy-path")
        noise, dt = scenario.noise, scenario.clock.dt_days
        coefs, growth = [], diffusion_growth

        def spy(coef, z, out=None):
            coefs.append(coef)
            return growth(coef, z, out=out)

        monkeypatch.setattr("daydrift.engine.diffusion_growth", spy)
        records = simulate(scenario).records
        assert coefs[0][0] == diffusion_coef(noise, dt)
        for record in records:
            state = advance_noise(MarketState.initial(record.prev_close), noise, dt, day_rng(scenario.seed, record.day))
            for agent in scenario.agents:
                for notional in orders_for_tick(agent, 0):
                    _, _, state = apply_aggressive_trade(state, scenario.profile, scenario.impact, notional, 0)
            assert record.open == state.mid

    def test_segment_variances_are_those_of_the_per_tick_steps(self):
        # trader off: log(open / prev_close) sums the noise of 1 tick, log(close / open) that of the other 391
        base = load_config(NOISY_CONFIG).build()
        days = 20_000
        control = replace(base, agents=tuple(replace(a, enabled=False) for a in base.agents), days=days, seed=7)
        prev, opens, closes = map(np.array, zip(*((r.prev_close, r.open, r.close) for r in simulate(control).records)))
        var, ticks = base.noise.sigma_daily**2, base.clock.ticks_per_day
        segments = ((np.log(opens / prev), var / ticks), (np.log(closes / opens), var * (ticks - 1) / ticks))
        for logs, expected in segments:
            # (n - 1) s^2 / v is chi-square with n - 1 degrees of freedom, so s^2 has standard error v sqrt(2 / (n - 1))
            assert abs(logs.var(ddof=1) - expected) <= 6 * expected * math.sqrt(2 / (days - 1))


HALF_LIFE, LAW_DAYS = 5.0, 20_000


class TestReversionLaw:
    @pytest.fixture(scope="class")
    def log_deviations(self) -> np.ndarray:
        # trader off: the log of the close's ratio to fundamental is the OU process sampled once a day
        base = load_config(NOISY_CONFIG).build()
        control = replace(
            base, agents=tuple(replace(a, enabled=False) for a in base.agents),
            noise=NoiseParams(base.noise.sigma_daily, HALF_LIFE), days=LAW_DAYS, seed=7,
        )
        return np.log(np.frombuffer(simulate(control).columns.close) / control.initial_fundamental)

    def test_lag_1_autocorrelation_is_the_daily_pull(self, log_deviations):
        x = log_deviations - log_deviations.mean()
        phi = 2 ** (-1 / HALF_LIFE)
        # the lag-1 sample autocorrelation of an AR(1) has standard error sqrt((1 - phi^2) / n)
        assert abs((x[:-1] @ x[1:]) / (x @ x) - phi) <= 6 * math.sqrt((1 - phi**2) / LAW_DAYS)

    def test_stationary_variance(self, log_deviations):
        theta, phi = math.log(2.0) / HALF_LIFE, 2 ** (-1 / HALF_LIFE)
        expected = 0.01**2 / (2 * theta)
        # the sample variance of an AR(1) has standard error v sqrt(2 (1 + phi^2) / ((1 - phi^2) n))
        error = expected * math.sqrt(2 * (1 + phi**2) / ((1 - phi**2) * LAW_DAYS))
        assert abs(log_deviations.var(ddof=1) - expected) <= 6 * error

    @pytest.mark.parametrize("half_life", [0.5, 5.0, 504.0])
    def test_a_noiseless_run_closes_on_the_log_law(self, half_life):
        scenario = make_scenario(days=50, sigma=0.0, half_life=half_life, agents=(), fundamental=95.0)
        for record in run_sim(scenario):
            expected = 95.0 * (100.0 / 95.0) ** (2 ** (-record.day / half_life))
            assert record.close == pytest.approx(expected, rel=1e-12)

    def test_a_reverting_noisy_day_draws_one_normal_per_stop(self, monkeypatch):
        scenario = bitwise_case("noisy-reverting")
        shapes, growth = [], diffusion_growth

        def spy(coef, z, out=None):
            shapes.append(z.shape)
            return growth(coef, z, out=out)

        monkeypatch.setattr("daydrift.engine.diffusion_growth", spy)
        simulate(scenario)
        assert shapes == [(4, 2)]  # 4 days, stops at ticks 0 and 391

    def test_an_infinite_half_life_runs_as_none(self):
        scenario = bitwise_case("noisy-path")
        endless = simulate(replace(scenario, noise=NoiseParams(scenario.noise.sigma_daily, math.inf)))
        result = simulate(scenario)
        assert endless.records == result.records
        assert endless.ledger == result.ledger


BLOCK_EDGE_DAYS = [1, TEST_BLOCK_DAYS, TEST_BLOCK_DAYS + 1, 2 * TEST_BLOCK_DAYS + 3]


def key_calls(monkeypatch) -> list[range]:
    """The day ranges of every ``day_keys`` call the kernel makes from now on, in order."""
    calls, keys = [], engine.day_keys

    def recorded(seed, days):
        calls.append(days)
        return keys(seed, days)

    monkeypatch.setattr(engine, "day_keys", recorded)
    return calls


class TestBlockBoundaries:
    def test_the_kernel_runs_the_test_block(self, monkeypatch):
        # one day_keys call per block: were the block not patched, the edge tests would run inside one block
        calls = key_calls(monkeypatch)
        simulate(replace(bitwise_case("noisy-path"), days=2 * TEST_BLOCK_DAYS + 1))
        assert calls == [range(1, 65), range(65, 129), range(129, 130)]

    @pytest.mark.parametrize("days", BLOCK_EDGE_DAYS)
    @pytest.mark.parametrize(
        "case",
        [
            "noisy-path",
            "noisy-path-wide-seed",
            "noisy-reverting",
            "noiseless",
            "interior-trades-diffusing",
            "interior-trades-reverting",
            "interior-trades-noiseless",
        ],
    )
    def test_simulate_and_composition_agree(self, case, days):
        scenario = replace(bitwise_case(case), days=days)
        result = simulate(scenario)
        composed = list(compose_days(scenario))
        _, composed_ledger = composed[-1]
        assert result.records == tuple(record for record, _ in composed)
        assert result.ledger == composed_ledger

    @pytest.mark.parametrize("sigma", [0.01, 300.0])
    def test_block_growth_in_place_over_strided_rows_has_the_per_day_bits(self, sigma):
        ticks = 392
        coef = diffusion_coef(NoiseParams(sigma, None), 1.0 / ticks)
        rows = np.empty((TEST_BLOCK_DAYS, ticks + 1))
        expected = []
        with np.errstate(over="ignore"):
            for i in range(TEST_BLOCK_DAYS):
                day_rng(7, i + 1).standard_normal(out=rows[i, 1:])
                expected.append(diffusion_growth(coef, day_rng(7, i + 1).standard_normal(ticks)))
            diffusion_growth(coef, rows[:, 1:], out=rows[:, 1:])
        for row, day in zip(rows, expected):
            assert row[1:].tobytes() == day.tobytes()


@st.composite
def composed_scenarios(draw) -> Scenario:
    """2 to 64 ticks, 0 to 3 traders at any ticks (some disabled), a default or constant profile, any ``lam``,
    noise (up to an overflowing sigma) or none, mean reversion or none, 1 to 3 blocks plus a day, and an
    initial mid of 100 or one near the float maximum, where fills, opens and closes overflow."""
    ticks = draw(st.integers(2, 64))
    agents = []
    for agent_id in "ABC"[: draw(st.integers(0, 3))]:
        buy = draw(st.integers(0, ticks - 2))
        sell = draw(st.integers(buy + 1, ticks - 1))
        leg = draw(st.floats(-1e8, 1e8))
        enabled = draw(st.integers(0, 3)) > 0
        agents.append(RoundTripTrader(1e9, 10.0, leg, buy, sell, enabled=enabled, agent_id=agent_id))
    scenario = make_scenario(
        days=draw(st.integers(1, 3 * TEST_BLOCK_DAYS + 1)),
        seed=draw(st.integers(0, 2**96 - 1) | st.integers(2**96, 2**160)),
        lam=draw(st.floats(0.0, 2e4)),
        sigma=draw(st.just(0.0) | st.floats(1e-4, 0.05) | st.just(300.0)),
        half_life=draw(st.none() | st.floats(0.5, 1000.0)),
        agents=agents,
        ticks=ticks,
        initial_mid=draw(st.just(100.0) | st.floats(1e300, sys.float_info.max)),
        fundamental=draw(st.sampled_from([100.0, 95.0])),
    )
    if draw(st.booleans()):
        scenario = replace(scenario, profile=SpreadDepthProfile.constant(ticks, draw(st.floats(1.0, 20.0)), 1e9))
    return scenario


_LIMIT = 2**63 - 1  # the ledger's micro-currency bound

# a ledger's starting (cash, cumulative cost) in micro: zero, or near a bound, within a few days' legs and costs
ledger_sums = st.tuples(
    st.just(0) | st.integers(-_LIMIT, -_LIMIT + 2 * 10**14) | st.integers(_LIMIT - 2 * 10**14, _LIMIT),
    st.just(0) | st.integers(_LIMIT - 10**13, _LIMIT),
)


def composed_run(scenario: Scenario, sums: tuple[int, int]):
    """``compose_days`` up to its first failing day: the records, the ledger after them, and the error."""
    records, ledger = [], Ledger(*sums)
    try:
        for record, day_ledger in compose_days(scenario, sums):
            records.append(record)
            ledger = copy.deepcopy(day_ledger)
    except (ValueError, OverflowError) as exc:
        return records, ledger, exc
    return records, ledger, None


def one_trader_day(lam: float, leg: float, **kwargs) -> Scenario:
    """A 2-tick day: one trader buys ``leg`` at the open and sells it at the close."""
    return make_scenario(lam=lam, ticks=2, agents=(RoundTripTrader(1e9, 10.0, leg, 0, 1, agent_id="A"),), **kwargs)


class TestComposedRuns:
    @given(scenario=composed_scenarios(), sums=ledger_sums)
    @settings(max_examples=100, deadline=None, derandomize=True)
    # shapes that failed: a refusal day one too early, stops swapped, a day booked twice
    @example(one_trader_day(19999.0, 51546392.0, days=193, seed=37719116, fundamental=95.0), (0, 9_223_362_036_854_775_932))
    @example(one_trader_day(1.0, 1.0), (0, 0))
    @example(one_trader_day(0.0, 1.0), (0, 0))
    # prices out of range: an infinite close, an infinite fill and a negative one
    @example(make_scenario(days=2, initial_mid=1.7976e308), (0, 0))
    @example(make_scenario(days=1, initial_mid=sys.float_info.max / (1 + 1.25e-4)), (0, 0))
    @example(replace(one_trader_day(20.0, -1e7), profile=SpreadDepthProfile.constant(2, 30000.0, 1e9)), (0, 0))
    @example(one_trader_day(2e4, 1e8, initial_mid=sys.float_info.max / 2.2, half_life=1e-6), (0, 0))  # the open
    def test_the_kernel_has_the_bits_and_the_failing_day_of_the_composition(self, scenario, sums):
        records, composed_ledger, composed_error = composed_run(scenario, sums)
        columns, ledger, error = DayColumns(), Ledger(*sums), None
        try:
            _run_days(scenario, ledger, columns)
        except (ValueError, OverflowError) as exc:
            error = exc
        assert columns.records() == records
        assert ledger == composed_ledger
        if composed_error is None:
            assert error is None
        else:
            # the kernel also names the tick that a failing noise step ends at
            assert type(error) is type(composed_error)
            assert re.sub(r" at tick \d+:", ":", str(error)) == str(composed_error)


def spike_on(monkeypatch, spike_day: int, step: int = 5, factor: float = math.inf) -> None:
    """Make the growth factor of noise step ``step`` of ``spike_day`` equal ``factor``, inf (an overflow) or 0.0.

    The kernel turns a block's normals into growth factors with one
    ``diffusion_growth`` call, a row per day; the spike is written into the
    block that holds ``spike_day``.  Each run has its own block array, so
    the days are counted afresh for each run.  A day has one noise step
    per stop segment, so ``step`` is a segment index.  ``compose_days``
    draws the step's normal as +inf (factor inf) or -inf (factor 0.0),
    which gives it the same factor.  Spikes set by several calls add up.
    """
    growth, rng_of = engine.diffusion_growth, composition.day_rng
    run = {"rows": None, "days": 0}  # the current run's block array and the days it has drawn

    def spiked(coef, z, out=None):
        factors = growth(coef, z, out=out)
        if factors.base is not run["rows"]:
            run.update(rows=factors.base, days=0)
        first, run["days"] = run["days"], run["days"] + len(factors)
        if first < spike_day <= run["days"]:
            factors[spike_day - first - 1, step] = factor
        return factors

    class SpikedDay:
        """A day's generator whose normal of draw ``step`` is spiked."""

        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def standard_normal(self, size):
            z = self.rng.standard_normal(size)
            if self.draws == step:
                z[:] = math.inf if factor == math.inf else -math.inf
            self.draws += 1
            return z

    def spiked_rng(seed, day):
        return SpikedDay(rng_of(seed, day)) if day == spike_day else rng_of(seed, day)

    monkeypatch.setattr("daydrift.engine.diffusion_growth", spiked)
    monkeypatch.setattr(composition, "day_rng", spiked_rng)


SPIKE_SEEDS = [7, 2**96]  # a seed within SeedSequence's 4-word pool and one wider


# flat spreads of the trader's legs, in bps, and the day on which its cash leaves the micro-currency range:
# the last day of the first block and the first of the second
CASH_FAILURES = [(1300.0, TEST_BLOCK_DAYS), (1285.0, TEST_BLOCK_DAYS + 1)]


def wide_spread_scenario(spread_bps: float, half_life: float | None, seed: int = 7) -> Scenario:
    """``noisy.ini`` without impact, trading 1e12 legs across a flat spread of ``spread_bps``.

    Each day the opening buy pays its notional and the closing sell
    returns less, so the cash falls until an opening fill takes it out of
    the micro-currency range.
    """
    config = replace(
        load_config(NOISY_CONFIG), lam=0.0, capital=1e13, leg_notional=1e12,
        open_spread_bps=spread_bps, close_spread_bps=spread_bps, half_life_days=half_life, days=2 * TEST_BLOCK_DAYS,
        seed=seed,
    )
    return config.build()


class TestErrorsAtBlockEdges:
    @pytest.mark.parametrize("seed", SPIKE_SEEDS)
    @pytest.mark.parametrize("half_life", [None, 504.0])
    @pytest.mark.parametrize("spike_day", [TEST_BLOCK_DAYS, TEST_BLOCK_DAYS + 1])
    def test_noise_failure_names_its_day_and_books_only_the_days_before(self, monkeypatch, half_life, spike_day, seed):
        scenario = replace(
            load_config(NOISY_CONFIG).build(), noise=NoiseParams(0.01, half_life), days=2 * TEST_BLOCK_DAYS, seed=seed
        )
        finished = simulate(replace(scenario, days=spike_day - 1))
        spike_on(monkeypatch, spike_day, step=1)  # segment 1 ends at the close
        with pytest.raises(SimulationError, match=rf"^day {spike_day}: noise step produced .* at tick 391: inf$"):
            simulate(scenario)
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(ValueError, match="noise step produced"):
            _run_days(scenario, ledger, columns)
        assert len(columns) == spike_day - 1
        assert tuple(columns.records()) == finished.records
        assert ledger == finished.ledger

    @pytest.mark.parametrize("trader", [True, False])
    @pytest.mark.parametrize("spike_day", [TEST_BLOCK_DAYS, TEST_BLOCK_DAYS + 1])
    @pytest.mark.parametrize(
        "spikes",
        [
            {1: 0.0},  # the close is 0
            {0: math.inf, 1: 0.0},  # the close is inf * 0, NaN
            {1: math.inf},  # the close is inf; NaN without the trader, inf + inf * 0 with no impact to add
        ],
        ids=["zero", "inf-then-zero", "inf-at-the-close"],
    )
    def test_a_close_outside_the_range_fails_its_day_as_in_the_composition(self, monkeypatch, spikes, spike_day, trader):
        # without reversion the chain checks a block's closes after its loop; without the trader only the close reads
        # the closing stop's anchor, so that check alone finds the day
        config = load_config(NOISY_CONFIG)
        scenario = replace(config, half_life_days=None, days=2 * TEST_BLOCK_DAYS, enabled=trader).build()
        for step, factor in spikes.items():
            spike_on(monkeypatch, spike_day, step, factor)
        records, composed_ledger, composed_error = composed_run(scenario, (0, 0))
        assert len(records) == spike_day - 1
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(ValueError) as info:
            _run_days(scenario, ledger, columns)
        # the kernel also names the tick that a failing noise step ends at
        assert re.sub(r" at tick \d+:", ":", str(info.value)) == str(composed_error)
        assert columns.records() == records
        assert ledger == composed_ledger

    @pytest.mark.parametrize("seed", SPIKE_SEEDS)
    @pytest.mark.parametrize("half_life", [None, 504.0])
    @pytest.mark.parametrize(("spread", "day"), CASH_FAILURES)
    def test_noise_failure_before_a_failing_fill_reports_the_noise(self, monkeypatch, half_life, seed, spread, day):
        scenario = wide_spread_scenario(spread, half_life, seed)
        with pytest.raises(SimulationError, match=rf"^day {day}: cash balance left the micro-currency range$"):
            simulate(scenario)
        spike_on(monkeypatch, day, step=0)  # the noise step of tick 0 comes before the opening fill
        with pytest.raises(SimulationError, match=rf"^day {day}: noise step produced .* at tick 0: inf$"):
            simulate(scenario)

    @pytest.mark.parametrize("seed", SPIKE_SEEDS)
    @pytest.mark.parametrize("half_life", [None, 504.0])
    @pytest.mark.parametrize(("spread", "day"), CASH_FAILURES)
    def test_a_failing_fill_before_a_failing_segment_reports_the_fill(self, monkeypatch, half_life, seed, spread, day):
        scenario = wide_spread_scenario(spread, half_life, seed)
        spike_on(monkeypatch, day, step=1)  # segment 1 ends at the close, after the opening fill
        with pytest.raises(SimulationError, match=rf"^day {day}: cash balance left the micro-currency range$") as info:
            simulate(scenario)
        assert isinstance(info.value.__cause__, AccountingError)

    @pytest.mark.parametrize("seed", SPIKE_SEEDS)
    @pytest.mark.parametrize("spike_day", [TEST_BLOCK_DAYS, TEST_BLOCK_DAYS + 1])
    @pytest.mark.parametrize(("case", "step", "tick"), [("noisy-path", 0, 0), ("interior-trades-diffusing", 2, 40)])
    @pytest.mark.parametrize("half_life", [None, 1e-6])
    def test_a_failing_segment_names_its_stop_tick(self, monkeypatch, half_life, case, step, tick, spike_day, seed):
        # stops at ticks 0 and 391 on noisy-path; at 0, 5, 40, 50 and 63 on interior-trades-diffusing.  A half-life
        # far below a tick reverts the mid fully at the next stop, so the close is finite after the spike
        scenario = bitwise_case(case)
        noise = replace(scenario.noise, half_life_days=half_life)
        scenario = replace(scenario, noise=noise, days=2 * TEST_BLOCK_DAYS, seed=seed)
        spike_on(monkeypatch, spike_day, step)
        with pytest.raises(SimulationError, match=rf"^day {spike_day}: noise step produced .* at tick {tick}: inf$"):
            simulate(scenario)

    @pytest.mark.parametrize("half_life", [None, 504.0])
    @pytest.mark.parametrize(("spread", "day"), CASH_FAILURES)
    def test_wide_spread_legs_leave_the_micro_range_at_the_block_edge(self, half_life, spread, day):
        with pytest.raises(SimulationError, match=rf"^day {day}: cash balance left the micro-currency range$") as info:
            simulate(wide_spread_scenario(spread, half_life))
        assert isinstance(info.value.__cause__, AccountingError)

    @pytest.mark.parametrize(
        ("spread", "day", "sums"),
        [
            *((spread, day, (0, 0)) for spread, day in CASH_FAILURES),
            # from 3e18 micro above the cash bound, days of 1.3e17 (1.285e17) micro of costs leave too little
            # for the next opening buy of 1e18 plus its cost after 15 (16) days
            (1300.0, 16, (-(2**63 - 1) + 3 * 10**18, 10**17)),
            (1285.0, 17, (-(2**63 - 1) + 3 * 10**18, 10**17)),
            (1300.0, 1, (-(2**63 - 1) + 10**18, 0)),  # the first opening buy
        ],
    )
    def test_a_failing_day_books_nothing_into_the_callers_ledger(self, spread, day, sums):
        scenario = wide_spread_scenario(spread, None)
        finished, finished_columns = Ledger(*sums), DayColumns()
        if day > 1:
            _run_days(replace(scenario, days=day - 1), finished, finished_columns)
        columns, ledger = DayColumns(), Ledger(*sums)
        with pytest.raises(AccountingError, match="^cash balance left the micro-currency range$"):
            _run_days(scenario, ledger, columns)
        assert columns.records() == finished_columns.records()
        assert ledger == finished
        _, composed_ledger, _ = composed_run(scenario, sums)
        assert len(columns) == day - 1 and ledger == composed_ledger


class TestErrorsAtTheKernelsBlockEdge:
    @pytest.fixture(autouse=True)
    def edge_block(self):
        """These tests run the kernel's own block."""

    @pytest.mark.parametrize("spike_day", [_BLOCK_DAYS, _BLOCK_DAYS + 1])
    def test_a_noise_failure_books_only_the_days_before(self, monkeypatch, spike_day):
        scenario = replace(load_config(NOISY_CONFIG).build(), days=_BLOCK_DAYS + 1)
        spike_on(monkeypatch, spike_day, step=1)  # segment 1 ends at the close
        calls = key_calls(monkeypatch)
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(ValueError, match=r"^noise step produced .* at tick 391: inf$"):
            _run_days(scenario, ledger, columns)
        assert calls[0] == range(1, _BLOCK_DAYS + 1)
        *_, (_, composed_ledger) = compose_days(replace(scenario, days=spike_day - 1))
        assert len(columns) == spike_day - 1 and ledger == composed_ledger


# a scenario whose day 1 has a price out of range, and the error naming it
PRICE_FAILURES = [
    (make_scenario(days=2, initial_mid=1.7976e308), "close is non-positive or non-finite: inf"),
    (make_scenario(days=1, initial_mid=sys.float_info.max / (1 + 1.25e-4)), "fill at tick 0 is non-positive or non-finite: inf"),
    (
        replace(
            make_scenario(agents=(RoundTripTrader(1e9, 10.0, -1e7, buy_tick=0, sell_tick=391),)),
            profile=SpreadDepthProfile.constant(392, 30000.0, 1e9),  # half the spread is 1.5 mids: a sell fills below 0
        ),
        "fill at tick 0 is non-positive or non-finite: -50.0",
    ),
    # the opening buy lifts the mid 150% past the float maximum; a full reversion at the closing stop brings it back
    (one_trader_day(2e4, 1e8, initial_mid=sys.float_info.max / 2.2, half_life=1e-6), "open is non-positive or non-finite: inf"),
]


def overflowing_reference(day: int) -> Scenario:
    """``reference.ini`` over two blocks from a mid whose 1 bp/day drift makes day ``day``'s opening fill overflow.

    The opening buy fills 7.5 bps above the anchor and the close is 1 bp
    above it, so the day's anchor, 0.5 bp above ``float max / (1 + 7.5e-4)``,
    overflows the fill but not the close, and the day before's does neither.
    """
    mid = sys.float_info.max / (1 + 7.5e-4) * (1 + 5e-5) / 1.0001 ** (day - 1)
    return replace(
        load_config(REFERENCE_CONFIG).build(), days=2 * TEST_BLOCK_DAYS, initial_mid=mid, initial_fundamental=100.0
    )


class TestMicroRange:
    def test_an_order_past_the_micro_range_refuses_day_1_in_the_kernel_and_the_composition(self):
        # a 1e13 leg is 1e19 micro, past the ledger's 2**63 - 1: the kernel's set-up refuses day 1
        scenario = replace(load_config(REFERENCE_CONFIG), capital=1e13, leg_notional=1e13).build()
        message = "10000000000000.0 does not fit in micro-currency range"
        with pytest.raises(SimulationError, match=f"^day 1: {re.escape(message)}$") as info:
            simulate(scenario)
        assert type(info.value.__cause__) is AccountingError
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(AccountingError, match=f"^{re.escape(message)}$"):
            _run_days(scenario, ledger, columns)
        assert len(columns) == 0 and ledger == Ledger()
        with pytest.raises(AccountingError, match=f"^{re.escape(message)}$"):
            next(compose_days(scenario))


class TestPriceRange:
    @pytest.mark.parametrize(("scenario", "message"), PRICE_FAILURES)
    def test_a_price_out_of_range_fails_day_1_in_the_kernel_and_the_composition(self, scenario, message):
        with pytest.raises(SimulationError, match=f"^day 1: {re.escape(message)}$"):
            simulate(scenario)
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _run_days(scenario, ledger, columns)
        assert len(columns) == 0 and ledger == Ledger()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(compose_days(scenario))

    @pytest.mark.parametrize("day", [TEST_BLOCK_DAYS, TEST_BLOCK_DAYS + 1])
    def test_a_drift_into_overflow_fails_that_day_and_books_the_days_before(self, day):
        scenario = overflowing_reference(day)
        message = "fill at tick 0 is non-positive or non-finite: inf"
        with pytest.raises(SimulationError, match=f"^day {day}: {message}$"):
            simulate(scenario)
        columns, ledger = DayColumns(), Ledger()
        with pytest.raises(ValueError, match=f"^{message}$"):
            _run_days(scenario, ledger, columns)
        records, composed_ledger, error = composed_run(scenario, (0, 0))
        assert str(error) == message
        assert columns.records() == records and len(records) == day - 1
        assert ledger == composed_ledger

    def test_an_earlier_price_failure_wins_over_a_later_noise_failure_in_its_block(self, monkeypatch):
        # noise too weak to move the drift out of its 6.5 bp overflow window
        scenario = replace(overflowing_reference(TEST_BLOCK_DAYS - 1), noise=NoiseParams(1e-9, None))
        spike_on(monkeypatch, TEST_BLOCK_DAYS, step=0)  # too late: the day before's opening fill already overflows
        with pytest.raises(SimulationError, match=rf"^day {TEST_BLOCK_DAYS - 1}: fill at tick 0 .*: inf$"):
            simulate(scenario)


class TestDayKeys:
    @pytest.fixture(autouse=True)
    def edge_block(self):
        """These tests run the kernel's own block."""

    @pytest.mark.parametrize(
        "seed", [0, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 - 1, 2**96, 2**96 + 3, 2**128 + 5, 2**160 + 7]
    )
    def test_keys_equal_seed_sequence(self, seed):
        for days in (range(1, 2001), range(2**32 - 1, 2**32)):
            expected = [np.random.SeedSequence(entropy=(seed, d)).generate_state(2, np.uint64) for d in days]
            keys = day_keys(seed, days)
            assert keys.dtype == np.uint64 and keys.shape == (len(days), 2)
            assert keys.tolist() == np.array(expected).tolist()

    def test_a_day_wider_than_one_word_is_refused(self):
        with pytest.raises(OverflowError):
            day_keys(1, range(2**32 - 1, 2**32 + 1))

    @pytest.mark.parametrize("days", [1, _BLOCK_DAYS])
    def test_a_run_of_up_to_4096_days_computes_its_keys_in_one_call(self, monkeypatch, days):
        calls = key_calls(monkeypatch)
        simulate(replace(bitwise_case("noisy-path"), days=days))
        assert calls == [range(1, days + 1)]

    def test_a_longer_run_computes_the_keys_of_4096_days_at_a_time(self, monkeypatch):
        scenario = replace(bitwise_case("noisy-path"), days=2 * _BLOCK_DAYS + 1)
        calls = key_calls(monkeypatch)
        records = simulate(scenario).records
        assert calls == [range(1, 4097), range(4097, 8193), range(8193, 8194)]
        assert all(len(days) <= 4096 for days in calls)
        edges = {_BLOCK_DAYS - 1, _BLOCK_DAYS, _BLOCK_DAYS + 1, 2 * _BLOCK_DAYS, 2 * _BLOCK_DAYS + 1}
        composed = [record for record, _ in compose_days(scenario) if record.day in edges]
        assert composed == [records[day - 1] for day in sorted(edges)]

    def test_the_draw_starts_no_collection(self, monkeypatch):
        # a list per day's key, alive through the draw, would start collector passes that grow with the block
        log, keys, growth = [], engine.day_keys, engine.diffusion_growth
        monkeypatch.setattr(engine, "day_keys", lambda seed, days: log.append("keys") or keys(seed, days))
        monkeypatch.setattr(engine, "diffusion_growth", lambda *args, **kw: log.append("growth") or growth(*args, **kw))

        def collection(phase, info):
            if phase == "start":
                log.append(f"collection of generation {info['generation']}")

        gc.collect()
        gc.callbacks.append(collection)
        try:
            simulate(replace(bitwise_case("noisy-path"), days=_BLOCK_DAYS))
        finally:
            gc.callbacks.remove(collection)
        assert log[log.index("keys") :] == ["keys", "growth"]


def words_used(rng: np.random.Generator) -> int:
    """The uint64 words a Philox generator has taken since ``day_rng`` built it: counter 0, buffer empty."""
    state = rng.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def reference_draw(seed: int, days: range, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each day's ``width`` normals from its own ``day_rng``, and the index of its first normal that took more than one word.

    numpy's ziggurat takes one word per normal on its fast path, so a day
    whose normals took ``width`` words took it for each; its index is then
    ``width``.
    """
    normals, first_slow = np.empty((len(days), width)), np.full(len(days), width)
    for i, day in enumerate(days):
        rng = day_rng(seed, day)
        rng.standard_normal(out=normals[i])
        if words_used(rng) > width:
            rng = day_rng(seed, day)
            for j in range(width):
                rng.standard_normal()
                if words_used(rng) > j + 1:
                    first_slow[i] = j
                    break
    return normals, first_slow


def drawn_normals(monkeypatch, seed: int, days: range, width: int) -> np.ndarray:
    """The normals that ``_draw`` hands to ``diffusion_growth`` for a block of ``days``, ``width`` per day."""
    seen = []
    growth = diffusion_growth

    def spy(coef, z, out=None):
        seen.append(z.copy())
        return growth(coef, z, out=out)

    monkeypatch.setattr(engine, "diffusion_growth", spy)
    out = np.empty((len(days), width + 1))[:, 1:]  # the kernel draws into the columns after a day's anchor
    coef = np.full(width, 0.01)
    engine._draw(seed, days, coef, out)
    (normals,) = seen
    assert out.tobytes() == growth(coef, normals).tobytes()
    return normals


# the stop widths of a day: 1 to 4 normals take Philox counter 1, 5 to 8 counter 2 too, 9 counter 3 too
DRAW_WIDTHS = [1, 2, 4, 5, 8, 9]


class TestDraw:
    @pytest.fixture(autouse=True)
    def edge_block(self):
        """These tests draw the kernel's own block."""

    @pytest.mark.parametrize("seed", [*range(1, 21), 7, 2**32, 2**96 + 3])
    def test_the_draw_has_the_bits_of_day_rng(self, monkeypatch, seed):
        days = range(1, _BLOCK_DAYS + 1)
        expected, first_slow = reference_draw(seed, days, max(DRAW_WIDTHS))
        for width in DRAW_WIDTHS:
            normals = drawn_normals(monkeypatch, seed, days, width)
            assert normals.tobytes() == expected[:, :width].tobytes(), width
            # fast-path days and redrawn days both occur, and some redrawn day took the fast path for its first normal
            assert (first_slow >= width).any() and (first_slow < width).any()
            assert width == 1 or ((0 < first_slow) & (first_slow < width)).any()

    @pytest.mark.parametrize(
        ("seed", "day", "tick", "price", "path"),
        [(1, 4, 391, "0.0", "fast"), (15, 9, 0, "inf", "fast"), (7, 4, 391, "inf", "redrawn")],
    )
    @pytest.mark.parametrize("half_life", [None, 504.0])
    def test_an_overflowing_noise_fails_the_day_and_tick_of_the_per_day_draw(self, seed, day, tick, price, path, half_life):
        scenario = replace(load_config(NOISY_CONFIG).build(), noise=NoiseParams(300.0, half_life), days=200, seed=seed)
        failure = "noise step produced a non-positive or non-finite price"
        with pytest.raises(SimulationError, match=f"^day {day}: {failure} at tick {tick}: {price}$"):
            simulate(scenario)
        _, first_slow = reference_draw(seed, range(day, day + 1), 2)
        assert path == ("fast" if first_slow[0] == 2 else "redrawn")
        records, _, error = composed_run(scenario, (0, 0))
        assert len(records) == day - 1 and str(error) == f"{failure}: {price}"


class TestRunSim:
    @pytest.mark.parametrize("half_life", [None, 0.5])
    def test_noiseless_runs_draw_no_substream(self, monkeypatch, half_life):
        scenario = make_scenario(days=5, sigma=0.0, half_life=half_life, fundamental=95.0)
        expected = simulate(scenario).records

        def no_substream(seed, day):
            raise AssertionError(f"day_rng({seed}, {day}) called on a noiseless day")

        monkeypatch.setattr("daydrift.engine.day_rng", no_substream)
        assert simulate(scenario).records == expected

    @pytest.mark.parametrize("half_life", [None, 0.5])
    def test_noiseless_runs_compute_no_keys(self, monkeypatch, half_life):
        scenario = make_scenario(days=5, sigma=0.0, half_life=half_life, fundamental=95.0)
        expected = simulate(scenario).records

        def no_keys(seed, days):
            raise AssertionError(f"day_keys({seed}, {days}) called on a noiseless run")

        monkeypatch.setattr("daydrift.engine.day_keys", no_keys)
        assert simulate(scenario).records == expected

    @pytest.mark.parametrize("half_life", [None, 504.0])
    @pytest.mark.parametrize("seed", [0, 2**96, 2**160 + 7])
    def test_simulate_never_builds_day_rng(self, monkeypatch, seed, half_life):
        # compose_days draws from the reference day_rng; simulate must reach its bits through day_keys alone
        scenario = make_scenario(days=4, sigma=0.01, half_life=half_life, seed=seed)
        expected = [record for record, _ in compose_days(scenario)]

        def no_substream(seed, day):
            raise AssertionError(f"day_rng({seed}, {day}) called by simulate")

        monkeypatch.setattr("daydrift.engine.day_rng", no_substream)
        assert list(simulate(scenario).records) == expected

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
        # the run books its sums a block at a time; the composition books each fill with record_fill
        scenario = make_scenario(days=30, sigma=0.01, seed=5)
        led = simulate(scenario).ledger
        *_, (_, composed) = compose_days(scenario)
        assert led == composed
        assert led.cumulative_cost_micro == 30 * 10_000_000_000

    @pytest.mark.parametrize("days", BLOCK_EDGE_DAYS)
    def test_simulate_computes_the_order_impacts_once(self, monkeypatch, days):
        calls, order_impact = [], engine.order_impact

        def counted(*args):
            calls.append(args)
            return order_impact(*args)

        monkeypatch.setattr(engine, "order_impact", counted)
        simulate(replace(load_config(NOISY_CONFIG).build(), days=days))
        assert len(calls) == 1

    def test_the_day_records_match_the_composed_costs_and_ledger(self):
        days = 300
        scenario = replace(load_config(NOISY_CONFIG).build(), days=days)
        result = simulate(scenario)
        composed = list(compose_days(scenario))
        records = result.records
        assert len(records) == days and result.ledger == composed[-1][1]
        book_per_price = scenario.total_book_value / scenario.initial_mid
        for record, (composed_record, _) in zip(records, composed):
            assert record.total_cost == composed_record.total_cost
            prev = record.prev_close
            assert record.mtm_gain == mark_to_market(book_per_price * prev, prev, record.close)
            assert record.net_pnl == record.mtm_gain - record.total_cost

    @pytest.mark.parametrize(
        ("config", "days", "bound"), [(NOISY_CONFIG, 8000, 32), (REFERENCE_CONFIG, 64000, 28)], ids=["noisy", "reference"]
    )
    def test_a_finished_run_retains_its_columns_and_little_more(self, config, days, bound):
        # three float64 columns, 24 B/day; the ledger keeps two sums and no fill trail.  The warm-up is the
        # measured run itself, so what a first run imports or caches (numpy.random, on a first rejected draw)
        # is not counted
        scenario = replace(load_config(config).build(), days=days)
        simulate(scenario)
        tracemalloc.start()
        try:
            result = simulate(scenario)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result.columns) == days
        assert retained / days <= bound


class TestCollection:
    @pytest.fixture(autouse=True)
    def edge_block(self):
        """These tests run the kernel's own block."""

    @pytest.mark.parametrize(
        ("sigma", "half_life"),
        [(0.0, None), (0.0, 504.0), (0.01, None), (0.01, 504.0)],
        ids=["noiseless", "reversion", "noise", "noise-and-reversion"],
    )
    def test_a_run_starts_no_collection(self, sigma, half_life):
        # the chain's floats and the block's arrays are untracked; a list per day alive through a block of
        # 4096 days would start collector passes
        scenario = replace(load_config(NOISY_CONFIG).build(), noise=NoiseParams(sigma, half_life), days=_BLOCK_DAYS + 1)
        log = []

        def collection(phase, info):
            if phase == "start":
                log.append(f"collection of generation {info['generation']}")

        gc.collect()
        gc.callbacks.append(collection)
        try:
            simulate(scenario)
        finally:
            gc.callbacks.remove(collection)
        assert log == []


DAILY_HEADER = "day,prev_close,open,close,overnight_ret,intraday_ret,total_cost,mtm_gain,net_pnl\n"
DAILY_ROW_1 = "1,100.000000,100.000000,100.010000,0.0000000000,0.0001000000,10000.00,0.00,-10000.00\n"
DAILY_ROW_2 = "2,100.010000,100.110000,100.020000,0.0010000000,-0.0009000000,10000.00,0.00,-10000.00\n"


class TestDailyCsv:
    def test_round_trip_preserves_the_six_decimal_schema(self, tmp_path):
        # every field reads back as the value printed with its column's decimals, from columns and from records
        result = simulate(make_scenario(days=7, sigma=0.01, seed=2))
        records = result.records
        for kind, days in (("columns", result.columns), ("records", records)):
            path = tmp_path / "daily.csv"
            write_daily_csv(days, path)
            assert path.read_text().splitlines()[0] == (
                "day,prev_close,open,close,overnight_ret,intraday_ret,total_cost,mtm_gain,net_pnl"
            )
            parsed = read_daily_csv(path)
            assert len(parsed) == 7
            for raw, back in zip(records, parsed):
                assert back.day == raw.day
                for field in fields(DayRecord)[1:]:
                    value, decimals = getattr(raw, field.name), DAILY_CSV[field.name]
                    assert getattr(back, field.name) == float(f"{value:.{decimals}f}"), (kind, raw.day, field.name)

    def test_rows_match_per_row_formatting_across_blocks(self, tmp_path):
        # several writer blocks and a partial last one; -0.0, the smallest
        # writable price (the float above 5e-7, which prints as 0.000001),
        # large values and values halfway between printed digits
        rng = np.random.default_rng(11)
        n = 2603
        low = math.nextafter(5e-7, 1.0)
        prices = np.exp(rng.uniform(math.log(low), math.log(1e12), (n, 3)))
        prices[:5] = [[low, low, low], [1.0000005, 2.5000005, 0.0000015], [1e15, 1e15, 1e-6],
                      [100.0, 100.0, 100.0], [0.125, 0.375, 2.675]]
        money = rng.normal(0.0, 1e6, (n, 3)) * 10.0 ** rng.integers(-8, 10, (n, 1))
        money[:5] = [[-0.0, 0.0, -0.0], [0.125, 0.375, 2.675], [1.005, -1.005, 5e-3], [1e18, -1e18, 5e-7],
                     [-0.004, 0.004, -5e-7]]
        records = [DayRecord(d, *p, *m) for d, p, m in zip(range(1, n + 1), prices.tolist(), money.tolist())]
        path = tmp_path / "daily.csv"
        write_daily_csv(records, path)
        expected = DAILY_HEADER + "".join(
            f"{r.day},{r.prev_close:.6f},{r.open:.6f},{r.close:.6f},"
            f"{(r.open - r.prev_close) / r.prev_close:.10f},{(r.close - r.open) / r.open:.10f},"
            f"{r.total_cost:.2f},{r.mtm_gain:.2f},{r.net_pnl:.2f}\n"
            for r in records
        )
        assert path.read_text() == expected
        assert path.read_text().splitlines()[1] == (
            "1,0.000001,0.000001,0.000001,0.0000000000,0.0000000000,-0.00,0.00,-0.00"
        )

    @pytest.mark.parametrize("days", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_records_and_columns_write_the_same_bytes(self, tmp_path, days):
        result = simulate(replace(load_config(NOISY_CONFIG).build(), days=days, seed=7))
        from_columns, from_records = tmp_path / "columns.csv", tmp_path / "records.csv"
        write_daily_csv(result.columns, from_columns)
        write_daily_csv(list(result.records), from_records)
        assert from_columns.read_bytes() == from_records.read_bytes()
        assert from_columns.read_text().count("\n") == days + 1

    @pytest.mark.parametrize("days", [1, BLOCK_ROWS + 1])
    def test_records_and_columns_summarize_to_the_same_bits(self, days):
        result = simulate(replace(load_config(NOISY_CONFIG).build(), days=days, seed=1))
        by_columns, by_records = (astuple(summarize(run)) for run in (result.columns, result.records))
        assert [float(x).hex() for x in by_columns] == [float(x).hex() for x in by_records]

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            ((1, 1, math.nan), "day 2: open nan"),
            ((1, 1, 4e-7), "day 2: open 4e-07"),
            ((0, 0, -1.0), "day 1: prev_close -1.0"),
            ((2, 2, math.inf), "day 3: close inf"),
        ],
    )
    def test_records_and_columns_refuse_a_bad_price_alike(self, tmp_path, bad, message):
        # day 1's close, day 2's prev_close, of 7e-7 prints as 0.000001, so day 2's row is readable up to the bad
        # field; the columns take day 1's prev_close as first and each later one as the close before it
        prices = np.array([[100.0, 100.0, 7e-7], [7e-7, 100.0, 100.0], [100.0, 100.0, 100.0]])
        prices[bad[0], bad[1]] = bad[2]
        columns = DayColumns()
        columns.first, columns.day_cost = prices[0, 0].item(), 10.0
        columns.extend(prices[:, 1], prices[:, 2], np.zeros(3))
        messages = []
        for days in (columns, columns.records()):
            with pytest.raises(ValueError) as info:
                write_daily_csv(days, tmp_path / "daily.csv")
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            f"{message} is non-finite or prints as non-positive with 6 decimals; the daily CSV would be unreadable"
        )
        assert not (tmp_path / "daily.csv").exists()

    def test_rejects_foreign_headers(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("date,open,close\n2024-01-02,1,2\n")
        with pytest.raises(ValueError):
            read_daily_csv(path)

    @pytest.mark.parametrize(
        "last, message",
        [
            ("2,100.0,100.0,100.0\n", "line 3: expected 9 columns, got 4"),
            (DAILY_ROW_2[:-6] + "abc\n", "line 3: could not convert string to float: '-100abc'"),
            (DAILY_ROW_2[:-6] + "abc\r\n", "line 3: could not convert string to float: '-100abc'"),
            ("2.0" + DAILY_ROW_2[1:], "line 3: invalid literal for int() with base 10: '2.0'"),
        ],
    )
    def test_bad_row_message_is_pinned(self, tmp_path, last, message):
        path = tmp_path / "daily.csv"
        path.write_bytes((DAILY_HEADER + DAILY_ROW_1 + last).encode())
        with pytest.raises(ValueError) as info:
            read_daily_csv(path)
        assert str(info.value) == message

    def test_foreign_header_message_is_pinned(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("date,open,close\n")
        with pytest.raises(ValueError) as info:
            read_daily_csv(path)
        assert str(info.value) == "not a daily simulation CSV: header is 'date,open,close'"

    @pytest.mark.parametrize("prefix", ["", "﻿"], ids=["plain", "bom"])
    def test_blank_lines_are_skipped(self, tmp_path, prefix):
        path = tmp_path / "daily.csv"
        path.write_bytes((prefix + DAILY_HEADER + "\n" + DAILY_ROW_1 + "   \n" + DAILY_ROW_2 + "\n").encode())
        assert read_daily_csv(path) == [
            DayRecord(1, 100.0, 100.0, 100.01, 10000.0, 0.0, -10000.0),
            DayRecord(2, 100.01, 100.11, 100.02, 10000.0, 0.0, -10000.0),
        ]


def records_and_their_values(source: str, tmp_path) -> tuple[list, list[tuple]]:
    """The ``DayRecord``s that ``source`` builds and, read apart from them, each record's field values."""
    scenario = replace(load_config(NOISY_CONFIG).build(), days=TEST_BLOCK_DAYS + 1, seed=3)
    result = simulate(scenario)
    opens, closes, gains = (getattr(result.columns, name).tolist() for name in _DAY_COLUMNS)
    prevs, cost = [result.columns.first, *closes[:-1]], result.columns.day_cost
    values = [(day, prev, open_, close, cost, gain, gain - cost)
              for day, prev, open_, close, gain in zip(range(1, len(closes) + 1), prevs, opens, closes, gains)]
    if source == "run_sim":
        return run_sim(scenario), values
    if source == "SimResult.records":
        return list(result.records), values
    path = tmp_path / "daily.csv"
    if source == "read_daily_csv":
        write_daily_csv(result.columns, path)
    else:
        path.write_text(DAILY_HEADER)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return read_daily_csv(path), [(int(r[0]), *map(float, r[1:4]), *map(float, r[6:9])) for r in rows]


class TestDayRecordBuilder:
    @pytest.mark.parametrize("source", ["run_sim", "SimResult.records", "read_daily_csv", "empty daily CSV"])
    def test_built_records_cannot_be_told_from_constructed_ones(self, tmp_path, source):
        built, values = records_and_their_values(source, tmp_path)
        constructed = [DayRecord(*row) for row in values]
        assert len(built) == len(values) == (0 if source == "empty daily CSV" else TEST_BLOCK_DAYS + 1)
        assert built == constructed
        assert [hash(r) for r in built] == [hash(r) for r in constructed]
        assert [repr(r) for r in built] == [repr(r) for r in constructed]
        assert [astuple(r) for r in built] == values
        assert all(type(r) is DayRecord for r in built)
        for r, c in zip(built, constructed):
            assert replace(r, close=1.5) == replace(c, close=1.5)
            assert repr(pickle.loads(pickle.dumps(r))) == repr(c)
            for field in fields(DayRecord):
                with pytest.raises(FrozenInstanceError):
                    setattr(r, field.name, 1.0)


def compensated_sum(iterable, start=0):
    """``sum`` as Python 3.12 and later add floats: Neumaier's compensated summation; ints stay exact."""
    items = list(iterable)
    if all(type(x) is int for x in [start, *items]):
        return functools.reduce(operator.add, items, start)
    total, error = float(start), 0.0
    for x in items:
        t = total + x
        error += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + error if error and math.isfinite(error) else total


class TestEmptyRun:
    @pytest.mark.parametrize("days", [[], DayColumns()], ids=["records", "columns"])
    def test_an_empty_run_cannot_be_summarized(self, days):
        with pytest.raises(ValueError, match="^cannot summarize an empty run$"):
            summarize(days)


class TestTotals:
    """Totals are added left to right from 0, one rounding per term, whatever the interpreter's ``sum`` does."""

    @pytest.fixture(autouse=True)
    def compensating_sum(self, monkeypatch):
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0 and compensated_sum([1, 2**70]) == 2**70 + 1
        monkeypatch.setattr(builtins, "sum", compensated_sum)

    def test_run_totals_round_after_every_day(self):
        records = [DayRecord(day, 100.0, 100.0, 100.0, 0.0, gain, gain) for day, gain in enumerate([1e16, 1.0, -1e16], 1)]
        summary = summarize(records)
        assert (summary.total_cost, summary.total_mtm_gain, summary.total_net_pnl) == (0.0, 0.0, 0.0)

    def test_run_totals_start_from_a_positive_zero(self):
        records = [DayRecord(day, 100.0, 100.0, 100.0, 0.0, -0.0, -0.0) for day in (1, 2)]
        summary = summarize(records)
        assert math.copysign(1.0, summary.total_mtm_gain) == math.copysign(1.0, summary.total_net_pnl) == 1.0

    def test_a_split_book_adds_its_parts_in_agent_order(self):
        # six parts of 1e10 are 1666666666.6666665 each; compensated summation would give 1e10
        scenario = ScenarioConfig(count=6, capital=1e9, leverage=10.0).build()
        assert scenario.total_book_value == 9999999999.999998


def make_config(**kwargs) -> ScenarioConfig:
    """The config of ``make_scenario``'s defaults: the reference trader at lambda 20, noiseless."""
    return ScenarioConfig(**{"lam": 20.0, "sigma_daily": 0.0, "half_life_days": None, **kwargs})


class TestRunSweep:
    def test_single_point_grid_matches_run_sim(self):
        base = make_config(days=3)
        cells = run_sweep(base, [("impact.lambda", [20.0])])
        assert len(cells) == 1 and cells[0].ok
        assert cells[0].summary == summarize(run_sim(base.build()))

    def test_a_sweep_takes_no_worker_count(self):
        # paths run in the calling process; a worker count would be a parameter with no effect
        with pytest.raises(TypeError, match="workers"):
            run_sweep(make_config(days=2), [("run.seed", [1, 2])], workers=2)

    @pytest.mark.parametrize("book_first", [True, False])
    def test_book_value_is_set_at_the_cells_leverage_in_either_order(self, book_first):
        grid = [("agents.book_value", [1e8]), ("agents.leverage", [5.0])]
        cells = run_sweep(make_config(days=2), grid if book_first else grid[::-1])
        assert cells[0].summary == summarize(run_sim(make_config(days=2, leverage=5.0, capital=2e7).build()))

    def test_book_value_and_capital_together_are_rejected_up_front(self):
        # the cell would run one of the two capitals while its row showed both
        grid = [("agents.book_value", [1e8]), ("agents.capital", [1e9])]
        message = r"^sweep keys 'agents\.book_value' and 'agents\.capital' both set the capital; sweep one of them$"
        with pytest.raises(ValueError, match=message):
            run_sweep(make_config(), grid)

    def test_failed_cells_report_without_aborting(self):
        base = make_config(days=1)
        cells = run_sweep(base, [("agents.book_value", [1e9, -1.0, 1e10])])
        assert [c.ok for c in cells] == [True, False, True]
        assert "must be positive" in cells[1].error

    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_negative_seed_cell_is_an_error_with_or_without_noise(self, sigma):
        cells = run_sweep(make_config(days=1, sigma_daily=sigma), [("run.seed", [-1.0, 1.0])])
        assert [c.ok for c in cells] == [False, True]
        assert "seed must be >= 0, got -1" in cells[0].error

    @pytest.mark.parametrize("key", ["run.days", "run.seed"])
    @pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
    def test_non_integral_days_or_seed_cell_is_an_error(self, key, value):
        cells = run_sweep(make_config(days=1, sigma_daily=0.01), [(key, [value, 2.0])])
        assert [c.ok for c in cells] == [False, True]
        assert f"{key} must be an integer, got {value!r}" in cells[0].error

    def test_unknown_key_is_rejected_up_front(self):
        with pytest.raises(ValueError) as info:
            run_sweep(make_config(), [("impact.nope", [1.0])])
        assert str(info.value) == (
            "unknown sweep key 'impact.nope'; supported keys: profile.spread_open_bps, profile.spread_close_bps, "
            "profile.depth, impact.lambda, impact.permanent_fraction, noise.sigma_daily, "
            "noise.mean_reversion_half_life_days, agents.capital, agents.leverage, agents.book_value, "
            "agents.leg_notional, run.days, run.seed, run.initial_mid, run.initial_fundamental"
        )

    def test_key_named_twice_is_rejected_up_front(self):
        # every cell would run the last value while the table showed the first
        grid = [("agents.book_value", [1e7, 1e10]), ("agents.book_value", [1e8])]
        with pytest.raises(ValueError, match=r"^sweep key 'agents\.book_value' appears more than once in the grid$"):
            run_sweep(make_config(), grid)

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(make_config(), [])

    def test_a_key_with_no_values_is_rejected(self):
        with pytest.raises(ValueError, match=r"^sweep key 'run\.seed' has no values$"):
            run_sweep(make_config(), [("run.seed", [])])

    def test_cartesian_product_order_is_row_major(self):
        base = make_config(days=1)
        cells = run_sweep(base, [("impact.lambda", [0.0, 20.0]), ("run.seed", [1.0, 2.0])])
        combos = [tuple(v for _, v in c.params) for c in cells]
        assert combos == [(0.0, 1.0), (0.0, 2.0), (20.0, 1.0), (20.0, 2.0)]

    def test_breakeven_book_is_at_one_hundred_million(self):
        base = make_config(days=1)
        cells = run_sweep(base, [("agents.book_value", [1e7, 1e8, 1e9, 1e10])])
        nets = [c.summary.total_net_pnl for c in cells]
        assert nets[0] < 0 < nets[-1]
        from daydrift import locate_zero_crossing

        crossing = locate_zero_crossing([1e7, 1e8, 1e9, 1e10], nets)
        assert crossing == pytest.approx(1e8, rel=0.02)


def noisy_base(**kwargs) -> ScenarioConfig:
    """noisy.ini (seed 7) at 150 days, so the 64-day test block splits a run into three."""
    return replace(load_config(NOISY_CONFIG), days=150, **kwargs)


class TestSweepPaths:
    """A sweep simulates one price path per group of cells that differ only in the book, and marks each cell."""

    @staticmethod
    def per_cell(base: ScenarioConfig, grid: list) -> list[str]:
        """Each cell of ``grid`` built and simulated on its own, as ``repr``: a NaN ratio never equals itself."""
        keys, cells = [key for key, _ in grid], []
        for values in itertools.product(*(values for _, values in grid)):
            params = tuple(zip(keys, values))
            try:
                cells.append(engine.SweepCell(params, summarize(simulate(base.sweep_cell(params)).columns), None))
            except Exception as exc:
                cells.append(engine.SweepCell(params, None, f"{type(exc).__name__}: {exc}"))
        return list(map(repr, cells))

    @pytest.mark.parametrize(
        ("base", "grid"),
        [
            (noisy_base(), [("run.seed", [1, 2]), ("agents.book_value", [1e7, 1e8, 1e10])]),
            (noisy_base(), [("agents.book_value", [1e7, 1e8, 1e10]), ("run.seed", [1, 2])]),  # paths interleave
            (noisy_base(), [("agents.leverage", [2.0, 10.0]), ("agents.book_value", [1e7, 3e8, 1e10])]),
            (noisy_base(count=3), [("agents.capital", [5e8, 1e9, 2e9]), ("run.seed", [3])]),
            (noisy_base(enabled=False), [("agents.book_value", [1e7, 1e10])]),  # no cost: a NaN gain/cost ratio
            (noisy_base(), [("noise.sigma_daily", [0.01, 300.0]), ("agents.book_value", [1e7, 5e6, 1e10])]),
        ],
        ids=["book-last", "book-first", "leverage", "count-3-capital", "disabled", "failing-path"],
    )
    @pytest.mark.parametrize("order", ["grid", "reversed"])
    def test_each_cell_summarizes_its_own_run(self, monkeypatch, base, grid, order):
        # the paths run one after another in one process, so no path may depend on the ones run before it
        if order == "reversed":
            paths = engine.sweep_paths
            monkeypatch.setattr(engine, "sweep_paths", lambda cells: paths(cells)[::-1])
        assert list(map(repr, run_sweep(base, grid))) == self.per_cell(base, grid)

    def test_a_failing_run_fails_every_cell_of_its_path_with_its_error(self):
        cells = run_sweep(noisy_base(sigma_daily=300.0), [("agents.book_value", [1e7, 1e8, 1e10])])
        error = "SimulationError: day 4: noise step produced a non-positive or non-finite price at tick 391: inf"
        assert [cell.error for cell in cells] == [error] * 3

    @pytest.mark.parametrize("books", [[5e6, 1e8, 1e10], [1e8, 5e6, 1e10]])
    def test_a_book_the_build_rejects_fails_alone(self, books):
        cells = run_sweep(noisy_base(), [("agents.book_value", books)])
        rejected = books.index(5e6)
        assert [cell.ok for cell in cells] == [i != rejected for i in range(3)]
        assert cells[rejected].error == (
            "ValueError: agents.book_value: leg_notional 10000000.0 exceeds book value 5000000.0"
        )

    @pytest.mark.parametrize(
        ("grid", "runs"),
        [
            ([("agents.book_value", [1e7, 1e8, 1e9, 1e10])], 1),  # criterion 5's grid
            ([("agents.book_value", [1e7, 3e7, 1e8, 3e8, 1e9, 1e10]), ("run.seed", [1, 2])], 2),
        ],
    )
    def test_a_sweep_simulates_once_per_price_path(self, monkeypatch, grid, runs):
        calls = []
        monkeypatch.setattr(engine, "simulate", lambda scenario: calls.append(scenario) or simulate(scenario))
        cells = run_sweep(replace(load_config(REFERENCE_CONFIG), days=20), grid)
        assert all(cell.ok for cell in cells) and len(calls) == runs

    def test_paths_group_by_the_printed_values_of_the_other_keys(self):
        cells = [(("impact.lambda", lam), ("agents.leverage", lev)) for lam in (0.0, -0.0, 0) for lev in (2.0, 5.0)]
        assert engine.sweep_paths(cells) == [[0, 1], [2, 3], [4, 5]]


class TestScenarioValidation:
    def test_agent_schedule_must_fit_the_day(self):
        agent = RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=500)
        with pytest.raises(ValueError):
            make_scenario(agents=(agent,))

    def test_days_must_be_positive(self):
        with pytest.raises(ValueError):
            make_scenario(days=0, agents=())

    def test_days_the_substream_keys_cannot_number_are_refused(self):
        # a day's key holds the day in one uint32 word; these scenarios are built, never run
        with pytest.raises(ValueError, match=r"^days must be >= 1 and < 2\*\*32, got 4294967296$"):
            make_scenario(days=2**32, sigma=0.01)
        assert make_scenario(days=2**32 - 1, sigma=0.01).days == 2**32 - 1

    @pytest.mark.parametrize("field", ["days", "seed"])
    def test_days_and_seed_must_be_integers(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 1.5$"):
            make_scenario(**{field: 1.5})

    def test_integer_like_days_and_seed_become_ints(self):
        scenario = make_scenario(days=np.int64(3), seed=np.uint32(7), sigma=0.01)
        assert type(scenario.days) is int and type(scenario.seed) is int
        assert simulate(scenario).records == simulate(make_scenario(days=3, seed=7, sigma=0.01)).records
