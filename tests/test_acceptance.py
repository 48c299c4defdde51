"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from daydrift import (
    ImpactParams,
    Ledger,
    MarketState,
    NoiseParams,
    PriceSeries,
    SpreadDepthProfile,
    apply_aggressive_trade,
    decompose,
    impact_bps,
    load_config,
    locate_zero_crossing,
    record_fill,
    run_sim,
    run_sweep,
    simulate,
    to_micro,
    write_daily_csv,
)
from daydrift.cli import main

from conftest import NOISY_CONFIG, REFERENCE_CONFIG, parse_stanza


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_criterion_1_daily_cost_is_exactly_ten_thousand():
    with criterion(1, "daily trading cost $10,000 exact in micro-currency", 1.0):
        scenario = load_config(REFERENCE_CONFIG).build()
        result = simulate(scenario)
        assert result.ledger.cumulative_cost_micro == 10_000 * 10**6  # exact integer micro
        assert result.records[0].total_cost == 10_000.0


def test_criterion_2_calibrated_gain_is_one_million(capsys):
    with criterion(2, "1 bp calibration yields ~$1M MTM gain and ratio 100", 1.0):
        code = main(["calibrate", "--config", str(REFERENCE_CONFIG), "--target-bps", "1"])
        stanza = parse_stanza(capsys.readouterr().out)
        assert code == 0
        lam = float(stanza["lambda"])
        scenario = load_config(REFERENCE_CONFIG).build()
        scenario = replace(
            scenario, impact=replace(scenario.impact, lam=lam), noise=NoiseParams(0.0, None), days=1
        )
        record = run_sim(scenario)[0]
        assert record.mtm_gain == pytest.approx(1_000_000.0, rel=1e-3)
        assert record.mtm_gain / record.total_cost == pytest.approx(100.0, rel=1e-3)


def test_criterion_3_four_bp_drift_doubles_on_day_1734(capsys):
    with criterion(3, "4 bp/day run first doubles on day 1734", 5.0):
        code = main(["calibrate", "--config", str(REFERENCE_CONFIG), "--target-bps", "4"])
        stanza = parse_stanza(capsys.readouterr().out)
        assert code == 0
        scenario = load_config(REFERENCE_CONFIG).build()
        scenario = replace(
            scenario,
            impact=replace(scenario.impact, lam=float(stanza["lambda"])),
            noise=NoiseParams(0.0, None),
            days=1740,
        )
        records = run_sim(scenario)
        threshold = 2 * scenario.initial_mid
        first = next(r for r in records if r.close >= threshold)
        assert first.day == 1734
        assert records[1732].close < threshold  # day 1733 is still short


def test_criterion_4_overnight_bucket_carries_the_drift():
    with criterion(4, "overnight decomposition signature over 20 seeds", 60.0):
        base = load_config(NOISY_CONFIG).build()
        assert base.noise.sigma_daily == 0.01 and base.days == 2000
        seeds = range(1, 21)

        logs_o, logs_i, logs_t = [], [], []
        for seed in seeds:
            records = run_sim(replace(base, seed=seed))
            result = decompose(PriceSeries.from_day_records(records))
            logs_o.append(math.log(result.cumulative_overnight))
            logs_i.append(math.log(result.cumulative_intraday))
            logs_t.append(math.log(result.cumulative_total))
        mean_o, mean_i, mean_t = np.mean(logs_o), np.mean(logs_i), np.mean(logs_t)
        assert mean_o > mean_i, "overnight factor must beat intraday on average"
        assert mean_t > 0
        assert mean_o >= 0.80 * mean_t, f"overnight log-capture {mean_o / mean_t:.3f} < 0.80"

        # control: with the trader disabled the price is a driftless walk
        disabled = replace(base, agents=tuple(replace(a, enabled=False) for a in base.agents))
        sigma, n = base.noise.sigma_daily, base.days
        for seed in seeds:
            records = run_sim(replace(disabled, seed=seed))
            mean_log = np.mean([math.log(r.close / r.prev_close) for r in records])
            assert abs(mean_log) <= 4 * sigma / math.sqrt(n)


def test_criterion_5_breakeven_book_is_one_hundred_million():
    with criterion(5, "net P&L crosses zero at a $100M book (±2%)", 30.0):
        base = replace(load_config(REFERENCE_CONFIG), days=20)
        books = [1e7, 1e8, 1e9, 1e10]
        cells = run_sweep(base, [("agents.book_value", books)])
        assert all(cell.ok for cell in cells)
        nets = [cell.summary.total_net_pnl for cell in cells]
        assert nets[0] < 0 < nets[-1]
        crossing = locate_zero_crossing(books, nets)
        assert crossing == pytest.approx(1e8, rel=0.02)


def test_criterion_6_invariant_suite(tmp_path):
    with criterion(6, "model and accounting invariants", 30.0):
        profile = SpreadDepthProfile.default(392)
        params = ImpactParams(lam=20.0)

        # impact antisymmetry and linearity (exact)
        for q in (1.0, 1e4, 1e7):
            for t in (0, 137, 391):
                assert impact_bps(params, profile, -q, t) == -impact_bps(params, profile, q, t)
                assert impact_bps(params, profile, 2 * q, t) == 2 * impact_bps(params, profile, q, t)

        # symmetric round trip is exactly neutral
        state = MarketState.initial(100.0)
        _, _, state = apply_aggressive_trade(state, profile, params, 1e7, 100)
        _, _, state = apply_aggressive_trade(state, profile, params, -1e7, 100)
        assert state.perm_impact_bps == 0.0
        assert state.mid == 100.0

        # ledger conservation, exact in integer micro
        rng = np.random.default_rng(123)
        led, notional_micro, cost_micro = Ledger(), [], []
        for _ in range(500):
            notional, cost = float(rng.uniform(-1e8, 1e8)), float(rng.uniform(0, 1e5))
            led = record_fill(led, notional, cost)
            notional_micro.append(to_micro(notional))
            cost_micro.append(to_micro(cost))
        assert led.cash_micro == -(sum(notional_micro) + sum(cost_micro))
        assert led.cumulative_cost_micro == sum(cost_micro)

        # decomposition product identity on a noisy simulated series
        noisy = load_config(NOISY_CONFIG).build()
        records = run_sim(replace(noisy, days=300, seed=42))
        result = decompose(PriceSeries.from_day_records(records))
        assert result.identity_gap <= 1e-12

        # determinism: identical runs produce byte-identical CSVs
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_daily_csv(run_sim(replace(noisy, days=50, seed=7)), a)
        write_daily_csv(run_sim(replace(noisy, days=50, seed=7)), b)
        assert a.read_bytes() == b.read_bytes()

        # schedule antisymmetry: swapped legs negate the noiseless nudge exactly
        fwd = load_config(REFERENCE_CONFIG).build()
        rev = replace(fwd, agents=tuple(replace(x, leg_notional=-x.leg_notional) for x in fwd.agents))
        rf, rr = run_sim(fwd)[0], run_sim(rev)[0]
        nf = (rf.close - rf.prev_close) / rf.prev_close
        nr = (rr.close - rr.prev_close) / rr.prev_close
        assert nf == -nr
