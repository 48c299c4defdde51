#!/usr/bin/env python3
"""The footprint: returns split into overnight and intraday buckets.

With 1%/day noise the +1 bp/day drift is invisible in the daily series.
But the morning leg executes at the open auction, so the drift accrues
between one day's close and the next day's open.  Almost none of the
noise lands in that bucket (one tick out of 392), which makes the
footprint stark: with the trader on, the overnight factor compounds far
above 1; with the trader off, the same seed leaves it flat.  A single
noisy path still wiggles the intraday bucket either way -- average over
seeds (as the test suite does) and the split is unambiguous.
"""

from dataclasses import replace

from daydrift import PriceSeries, decompose, load_config, simulate, write_decomposition_csv

scenario = load_config("configs/noisy.ini").build()
result = decompose(PriceSeries.from_day_records(simulate(scenario).columns))

print(f"{scenario.days} noisy days, trader enabled (seed {scenario.seed}):")
print(f"  cumulative overnight factor  {result.cumulative_overnight:8.4f}")
print(f"  cumulative intraday factor   {result.cumulative_intraday:8.4f}")
print(f"  cumulative total factor      {result.cumulative_total:8.4f}")
print(f"  product identity gap         {result.identity_gap:.2e}")

control = replace(scenario, agents=tuple(replace(a, enabled=False) for a in scenario.agents))
control_result = decompose(PriceSeries.from_day_records(simulate(control).columns))
print()
print("same seed with the trader disabled:")
print(f"  cumulative overnight factor  {control_result.cumulative_overnight:8.4f}")
print(f"  cumulative intraday factor   {control_result.cumulative_intraday:8.4f}")
print(f"  cumulative total factor      {control_result.cumulative_total:8.4f}")

write_decomposition_csv(result, "demo_overnight_signature.csv")
print()
print("per-day report written to demo_overnight_signature.csv")
print("(same output as: daydrift run --config configs/noisy.ini && daydrift analyze noisy_daily.csv)")
