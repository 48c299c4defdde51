"""Write the ohlc_analyze workload's synthetic OHLC CSV.

    python3 perfbench/ohlc_gen.py --seed 1 --out ohlc.csv

The file is a seeded random walk with separate overnight and intraday draws,
strictly increasing ISO dates and high/low columns.  The last line of
standard output is a JSON object with the number of rows and the reference
cumulative factors, computed independently of ``daydrift`` as exp of summed
log price ratios.  The workload runs this in a child process, so that the
generator's arrays never count in the peak RSS of the process that runs
``daydrift analyze``.
"""

from __future__ import annotations

import argparse
import json
import math
import zlib

import numpy as np

ROWS = 60_000


def generate(out: str, rng: np.random.Generator) -> dict:
    n = ROWS + int(rng.integers(-(ROWS // 200), ROWS // 200 + 1))  # differs between seeds
    log_overnight = rng.normal(1e-4, 0.005, n)
    log_intraday = rng.normal(-0.5e-4, 0.01, n)
    opens = 100.0 * np.exp(np.cumsum(log_overnight) + np.concatenate(([0.0], np.cumsum(log_intraday)[:-1])))
    closes = opens * np.exp(log_intraday)
    highs = np.maximum(opens, closes) * np.exp(np.abs(rng.normal(0, 0.003, n)))
    lows = np.minimum(opens, closes) * np.exp(-np.abs(rng.normal(0, 0.003, n)))
    dates = (np.datetime64("1900-01-01") + np.cumsum(rng.integers(1, 4, n))).astype(str)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,open,high,low,close\n")
        fh.writelines(f"{d},{o!r},{h!r},{lo!r},{c!r}\n" for d, o, h, lo, c in
                      zip(dates, opens.tolist(), highs.tolist(), lows.tolist(), closes.tolist()))
    return {
        "rows": n,
        # sums of logs of the price ratios, not cumulative products
        "expected": {
            "cum_overnight": math.exp(np.log(opens[1:] / closes[:-1]).sum()),
            "cum_intraday": math.exp(np.log(closes[1:] / opens[1:]).sum()),
            "cum_total": math.exp(np.log(closes[1:] / closes[:-1]).sum()),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--out", required=True, help="CSV to write")
    args = parser.parse_args()
    # the same stream as the workload's Ctx.rng("ohlc_analyze")
    rng = np.random.default_rng([args.seed, zlib.crc32(b"ohlc_analyze")])
    print(json.dumps(generate(args.out, rng)))


if __name__ == "__main__":
    main()
