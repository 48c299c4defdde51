#!/usr/bin/env python3
"""How long can a small daily nudge run before prices double?

The drift each round trip leaves is tiny -- a few basis points at most --
so nothing looks wrong on any single day.  Compounded, it is anything but
tiny.  Here the impact coefficient is calibrated to +4 bp/day and the
simulation runs until the close first reaches twice the starting price,
which the closed-form count says happens on day 1734, about 6.9 trading
years in.
"""

from dataclasses import replace

from daydrift import NoiseParams, doubling_time, load_config, run_sim
from daydrift.market import ImpactParams, calibrate_lambda

DAYS_PER_YEAR = 252  # trading days

cfg = load_config("configs/reference.ini")
scenario = cfg.build()

lam = calibrate_lambda(scenario.profile, scenario.impact, cfg.leg_notional, 0,
                       scenario.clock.close_tick, target_net_nudge_bps=4.0)
predicted = doubling_time(4.0)
print(f"calibrated lambda for +4 bp/day: {lam}")
print(f"closed-form doubling day: {predicted}  ({predicted / DAYS_PER_YEAR:.2f} years)")

scenario = replace(
    scenario,
    impact=ImpactParams(lam=lam),
    noise=NoiseParams(0.0, None),
    days=predicted + 10,
)
records = run_sim(scenario)
first = next(r for r in records if r.close >= 2 * scenario.initial_mid)
print(f"simulated doubling day:   {first.day}  (close {first.close:.6f} vs start {scenario.initial_mid})")
print()
for day in (1, 252, 1008, first.day - 1, first.day):
    r = records[day - 1]
    years = day / DAYS_PER_YEAR
    print(f"  day {day:>5} ({years:4.1f}y): close {r.close:10.4f}  cumulative {r.close / 100 - 1:+8.2%}")
print()
print("every single day of it cost the trader only "
      f"${records[0].total_cost:,.0f} in spread while the book marked up "
      f"${records[0].mtm_gain:,.0f}.")
