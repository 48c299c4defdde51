#!/usr/bin/env python3
"""Where the strategy stops paying: the breakeven book size.

The daily cost depends only on the legs (here $10,000 for $10M legs at
15/5 bps), while the daily gain scales with the marked book.  Sweeping
the book size at a fixed +1 bp/day calibration locates the zero crossing
of net P&L; the closed form puts it at cost/nudge = $100M.  The $10B
reference book sits a factor of 100 above breakeven.
"""

from dataclasses import replace

from daydrift import breakeven_book, load_config, locate_zero_crossing, run_sweep

base = replace(load_config("configs/reference.ini"), days=20)
books = [1e7, 3e7, 1e8, 3e8, 1e9, 1e10]
cells = run_sweep(base, [("agents.book_value", books)])

print(f"{'book':>14}  {'cost/day':>12}  {'gain/day':>14}  {'net/day':>14}")
for cell in cells:
    s = cell.summary
    print(f"{dict(cell.params)['agents.book_value']:>14,.0f}  {s.cost_per_day:>12,.2f}  "
          f"{s.mtm_gain_per_day:>14,.2f}  {s.net_pnl_per_day:>14,.2f}")

crossing = locate_zero_crossing(books, [c.summary.total_net_pnl for c in cells])
closed_form = breakeven_book(1e7, 15.0, 5.0, 1.0)
print()
print(f"swept zero crossing:   ${crossing:,.0f}")
print(f"closed-form breakeven: ${closed_form:,.0f}")
print(f"reference book:        ${1e10:,.0f}  ({1e10 / closed_form:,.0f}x breakeven)")
