"""daydrift: a deterministic single-security market simulator.

Liquidity is asymmetric across the trading day (wide spread and thin depth
at the open, the reverse at the close), so aggressive trades move the
price more in the morning than in the afternoon.  A trader who buys a leg
early and sells it back late therefore leaves a small net drift in the
direction of the morning trade while paying only the spread on the legs;
on a large marked-to-market book the drift can dwarf the cost.  The
package simulates that mechanism end to end with exact accounting, plus
the analysis that makes it visible: the decomposition of returns into
overnight and intraday buckets.
"""

from .agents import RoundTripTrader, orders_for_tick, split_trader
from .analysis import (
    DecompositionResult,
    PriceSeries,
    breakeven_book,
    decompose,
    doubling_time,
    ingest_ohlc_csv,
    locate_zero_crossing,
    write_decomposition_csv,
)
from .config import ConfigError, ScenarioConfig, load_config
from .engine import (
    DayRecord,
    RunSummary,
    Scenario,
    SimulationError,
    SweepCell,
    day_rng,
    intraday_return,
    overnight_return,
    read_daily_csv,
    run_sim,
    run_sweep,
    simulate,
    summarize,
    write_daily_csv,
)
from .ledger import (
    AccountingError,
    Fill,
    Ledger,
    from_micro,
    mark_to_market,
    record_fill,
    to_micro,
)
from .market import (
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

__version__ = "0.1.0"
