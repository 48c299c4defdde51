import csv
import datetime
import hashlib
import math
import os
import re
import sys
from dataclasses import fields, replace

import pytest

from daydrift import (
    ImpactParams,
    NoiseParams,
    RoundTripTrader,
    Scenario,
    SpreadDepthProfile,
    load_config,
    run_sweep,
    summarize,
)
from daydrift import cli, csvio, engine
from daydrift.cli import main
from daydrift.config import KEYS, ConfigError

from composition import compose_days
from conftest import NOISY_CONFIG, OHLC_INPUT_ERRORS, REFERENCE_CONFIG, parse_stanza


def run_cli(capsys, *argv) -> tuple[int, dict, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, parse_stanza(captured.out), captured.out, captured.err


class TestRun:
    def test_reference_scenario_summary(self, capsys, reference_config_path, tmp_path):
        out = tmp_path / "daily.csv"
        code, stanza, text, _ = run_cli(
            capsys, "run", "--config", str(reference_config_path), "--out", str(out)
        )
        assert code == 0
        assert float(stanza["cost_per_day"]) == 10_000.0
        assert float(stanza["mtm_gain_per_day"]) == pytest.approx(1_000_000.0, rel=1e-3)
        assert float(stanza["gain_cost_ratio"]) == pytest.approx(100.0, rel=1e-3)
        assert out.exists()
        assert "$10,000.00" in text

    def test_same_seed_twice_is_byte_identical(self, capsys, noisy_config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _, _ = run_cli(
            capsys, "run", "--config", str(noisy_config_path), "--days", "30", "--out", str(a)
        )
        code2, _, _, _ = run_cli(
            capsys, "run", "--config", str(noisy_config_path), "--days", "30", "--out", str(b)
        )
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_the_path(self, capsys, noisy_config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "run", "--config", str(noisy_config_path), "--days", "5", "--seed", "1", "--out", str(a))
        run_cli(capsys, "run", "--config", str(noisy_config_path), "--days", "5", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_days_the_substream_keys_cannot_number_exit_one(self, capsys, noisy_config_path, tmp_path):
        # a day's key holds the day in one uint32 word; the scenario is refused when built, before any day runs
        out = tmp_path / "daily.csv"
        code, _, _, err = run_cli(
            capsys, "run", "--config", str(noisy_config_path), "--days", "4294967296", "--out", str(out)
        )
        assert code == 1
        assert err == "error: run.days must be >= 1 and < 2**32, got 4294967296\n"
        assert not out.exists()

    def test_negative_spread_names_the_key(self, capsys, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[profile]\nspread_close_bps = -5\n")
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "profile.spread_close_bps" in err

    def test_interior_spread_overflow_names_the_close_key(self, capsys, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[profile]\nspread_open_bps = 1e-300\nspread_close_bps = 1e10\n")
        out = tmp_path / "x.csv"
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(out))
        assert code == 1
        assert err.startswith("error: profile.spread_close_bps 10000000000.0 is too far from the open spread 1e-300")
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, name",
        [
            ("noise", "sigma_daily", "noise.sigma_daily"),
            ("impact", "lambda", "impact.lambda"),
            ("agents", "capital", "agents.capital"),
            ("agents", "leverage", "agents.leverage"),
            ("agents", "leg_notional", "agents.leg_notional"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_names_the_key(self, capsys, tmp_path, section, key, name, value):
        # NaN compares false against any bound; it must not pass as a valid value
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "x.csv"
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--days", "3", "--out", str(out))
        assert code == 1
        assert name in err
        assert not out.exists()

    def test_an_infinite_half_life_runs_as_none(self, capsys, noisy_config_path, tmp_path):
        text = noisy_config_path.read_text()
        daily = []
        for value in ("inf", "none"):
            config, out = tmp_path / f"{value}.ini", tmp_path / f"{value}.csv"
            config.write_text(text.replace("mean_reversion_half_life_days = none", f"mean_reversion_half_life_days = {value}"))
            code, _, _, _ = run_cli(capsys, "run", "--config", str(config), "--days", "5", "--out", str(out))
            assert code == 0
            daily.append(out.read_bytes())
        assert daily[0] == daily[1]

    def test_book_value_overflow_names_the_key(self, capsys, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[agents]\ncapital = 1e200\nleverage = 1e200\n")
        out = tmp_path / "x.csv"
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--days", "3", "--out", str(out))
        assert code == 1
        assert "agents.leverage" in err and "overflows" in err
        assert not out.exists()

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[impact]\nlamda = 3\n")
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "impact.lamda" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "nope.ini" in err

    def test_an_unknown_section_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "bogus.ini"
        config.write_text("[bogus]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"^unknown section \[bogus\]$"):
            load_config(config)
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert err == "error: unknown section [bogus]\n"

    def test_a_line_without_a_value_is_a_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\ndays = 5\ngarbage\n")
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        parsing = f"Source contains parsing errors: '{config}'\n\t[line  3]: 'garbage\\n'"
        assert err == f"error: malformed config {config}: {parsing}\n"

    @pytest.mark.parametrize("sigma", ["300", "60"])
    def test_unwritable_prices_are_a_runtime_error(self, capsys, tmp_path, sigma):
        # sigma 300 overflows the price to inf; sigma 60 leaves closes that
        # print as 0.000000, which analyze could not read back
        config = tmp_path / "wild.ini"
        config.write_text(NOISY_CONFIG.read_text().replace("sigma_daily = 0.01", f"sigma_daily = {sigma}"))
        out = tmp_path / "daily.csv"
        code, _, _, err = run_cli(
            capsys, "run", "--config", str(config), "--days", "50", "--seed", "1", "--out", str(out)
        )
        assert code == 2
        assert re.search(r"day \d+: ", err)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("edits", "message"),
        [
            ({"initial_mid = 100.0": "initial_mid = 1.7976e308"}, "close is non-positive or non-finite: inf"),
            (
                {"initial_mid = 100.0": f"initial_mid = {sys.float_info.max / (1 + 1.25e-4)!r}"},
                "fill at tick 0 is non-positive or non-finite: inf",
            ),
            (
                {"spread_open_bps = 15": "spread_open_bps = 30000", "spread_close_bps = 5": "spread_close_bps = 30000",
                 "leg_notional = 1e7": "leg_notional = -1e7"},
                "fill at tick 0 is non-positive or non-finite: -50.0",
            ),
        ],
    )
    def test_a_price_out_of_range_is_a_runtime_error(self, capsys, tmp_path, edits, message):
        text = REFERENCE_CONFIG.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        config, out = tmp_path / "edge.ini", tmp_path / "daily.csv"
        config.write_text(text)
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--days", "2", "--out", str(out))
        assert code == 2
        assert err == f"runtime error: day 1: {message}\n"
        assert not out.exists()

    def test_no_output_path_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "min.ini"
        config.write_text("[run]\ndays = 1\n")
        code, _, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 1
        assert "output" in err


# sweep key -> (grid values, sha256 of the sweep table over reference.ini at 3 days)
SWEEP_DIGESTS = {
    "impact.lambda": ("0,10,20", "ea9fd1dad92d1d01c9e1d94ec4513b11e29fec4e7c4499774a1ca07f9a426183"),
    "impact.permanent_fraction": ("0.25,1", "de8b60dc54955b858fc233720c9d49b3c2b269193829b68d0c779a6eddb70999"),
    "noise.sigma_daily": ("0", "cf3fcdc8795ff5f7c1ca597c368e1086a894b99920a5e6f5e2c98d6ab60b18c2"),
    "noise.mean_reversion_half_life_days": (
        "0.5,504", "91d6b496b43fd746f552cb0c0071e39d9b219f89b013d7cb83109752f6cb5d46"
    ),
    "agents.capital": ("5e8,2e9", "173b773b81049c001090af26116fb857f6af5d30bc310f389fb7e59a031aa471"),
    "agents.leverage": ("2,10", "472caaf9e8fb07d9c3c5982a8a60b50cf2a95f8cf62c5bcffa7f4f7c543ff166"),
    "agents.leg_notional": ("-1e7,5e6", "7fcc5de15b4b3516c9f460dfd164c5e70bc5312034ce209d0e0577d4096bd79f"),
    "agents.book_value": ("1e7,1e8,1e10", "88687f635a83cf199a683579f3e68bb57c932cfe00097b9f70627fa6508d3d7c"),
    "profile.spread_open_bps": ("10,20", "720f36435f65ece52f78789916fbc1f9d55aa6dc3b3e5c87aaee748cd54604e8"),
    "profile.spread_close_bps": ("2,10", "4410930988513a464bd8c75b7d9e135870d29ac95b9f97bfcb029284130544ae"),
    "profile.depth": ("5e8,2e9", "00e7f8152698687ae784b6481af1a127699e257024b3fee319149cee660f0ab4"),
    "run.days": ("1,3", "4569190d34ee99f706cbf2a50ed19a68762e008e2895e8bb73d28087a38b775d"),
    "run.seed": ("0,18446744073709551619", "60417f85c75df43d43892906da5033530b98039a7c82a4d7549302e81fe5cca5"),
    "run.initial_mid": ("50,100.5", "374bb7f324bb311777b88da22cc790d1a386d3bdb14a3e3b95e4187d4598643b"),
    "run.initial_fundamental": ("90,110", "80486ff0d161deeb16e931a391914a57c5d40499c738992f5db225df10a9532d"),
}


class TestGoldenDigests:
    def test_noiseless_reference_run_and_report(self, capsys, reference_config_path, tmp_path):
        # a noiseless run calls no np.exp, so these bytes do not depend on the CPU's SIMD paths
        daily, report = tmp_path / "daily.csv", tmp_path / "report.csv"
        code, _, _, _ = run_cli(
            capsys, "run", "--config", str(reference_config_path), "--days", "8000", "--seed", "0", "--out", str(daily)
        )
        assert code == 0
        code, _, _, _ = run_cli(capsys, "analyze", str(daily), "--out", str(report))
        assert code == 0
        assert hashlib.sha256(daily.read_bytes()).hexdigest() == (
            "35ba75441f671a323e8f951b5b6ca16252d2bf9cb4f48812ce81ed9404d73f66"
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "b164b6d91b7899275af0be547b4b11a847078f0ce77c1234d67e0b845f2c2f4d"
        )

    @pytest.mark.parametrize("key", SWEEP_DIGESTS)
    def test_noiseless_sweep_table(self, capsys, reference_config_path, tmp_path, key):
        # one grid per sweep key over reference.ini; noiseless, so no np.exp reaches these bytes
        values, digest = SWEEP_DIGESTS[key]
        out = tmp_path / "sweep.csv"
        code, _, _, _ = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--days", "3",
            "--grid", f"{key}={values}", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_the_reversion_sweep_cells_summarize_the_composed_days(self):
        # the one digest above that runs mean reversion: each cell is the step-by-step composition's summary
        base = load_config(REFERENCE_CONFIG).with_key("run.days", 3)
        key, values = "noise.mean_reversion_half_life_days", [0.5, 504.0]
        cells = run_sweep(base, [(key, values)])
        assert [cell.params for cell in cells] == [((key, value),) for value in values]
        for cell in cells:
            composed = [record for record, _ in compose_days(base.sweep_cell(cell.params))]
            assert cell.summary == summarize(composed)

    @pytest.mark.parametrize(
        ("path", "sigma", "days", "seed"), [(REFERENCE_CONFIG, 0.0, 1, 0), (NOISY_CONFIG, 0.01, 2000, 7)]
    )
    def test_shipped_configs_build_the_paper_scenario(self, path, sigma, days, seed):
        expected = Scenario(
            profile=SpreadDepthProfile.default(392, 15.0, 5.0, 1e9),
            impact=ImpactParams(20.0, 0.5),
            noise=NoiseParams(sigma, None),
            agents=(RoundTripTrader(1e9, 10.0, 1e7, buy_tick=0, sell_tick=391, enabled=True),),
            days=days,
            seed=seed,
            initial_mid=100.0,
            initial_fundamental=100.0,
        )
        assert scenario_fields(load_config(path).build()) == scenario_fields(expected)



# a value for each sweep key that differs from configs/noisy.ini
SWEEP_VALUES = {
    "impact.lambda": 3.0,
    "impact.permanent_fraction": 0.25,
    "noise.sigma_daily": 0.02,
    "noise.mean_reversion_half_life_days": 100.0,
    "agents.capital": 2e9,
    "agents.leverage": 5.0,
    "agents.leg_notional": 2e7,
    "agents.book_value": 2e10,
    "profile.spread_open_bps": 20.0,
    "profile.spread_close_bps": 4.0,
    "profile.depth": 2e9,
    "run.days": 3,
    "run.seed": 8,
    "run.initial_mid": 50.0,
    "run.initial_fundamental": 60.0,
}


def scenario_fields(scenario) -> list:
    """A scenario's fields as comparable values, the profile's tables as bytes."""
    values = []
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if isinstance(value, SpreadDepthProfile):
            value = (value.full_spread_bps.tobytes(), value.depth.tobytes())
        values.append((f.name, value))
    return values


SWEEP_KEYS = [name for name, row in KEYS.items() if row.sweep]

# the base configs a sweep cell is checked against: noisy.ini, and a variant
# in which count splits a swept capital and the fundamental follows the mid
CONFIG_VARIANTS = {
    "noisy": NOISY_CONFIG.read_text(),
    "split-following": re.sub(
        r"^initial_fundamental = .*\n", "", NOISY_CONFIG.read_text().replace("count = 1\n", "count = 2\n"), flags=re.M
    ),
}


def with_setting(text: str, key: str, value) -> str:
    """Config text with ``key`` set to ``value``: its line replaced, or added at the top of its section."""
    section, _, name = key.partition(".")
    line = f"{name} = {value!r}"
    text, n = re.subn(rf"^{name} = .*$", line, text, flags=re.M)
    return text if n else text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


# a value for each config key that its owning type rejects; any text is a
# path and any boolean word is valid, so output.daily_csv and agents.enabled have none
BAD_VALUES = {
    "clock.ticks_per_day": "1",
    "profile.spread_open_bps": "inf",
    "profile.spread_close_bps": "0",
    "profile.depth": "inf",
    "impact.lambda": "-1",
    "impact.permanent_fraction": "1.5",
    "noise.sigma_daily": "nan",
    "noise.mean_reversion_half_life_days": "0",
    "agents.count": "0",
    "agents.capital": "0",
    "agents.leverage": "-2",
    "agents.leg_notional": "2e10",
    "agents.buy_tick": "-1",
    "agents.sell_tick": "392",
    "run.days": "0",
    "run.seed": "-1",
    "run.initial_mid": "inf",
    "run.initial_fundamental": "inf",
}

# each removed key, with a value an old config may set it to
REMOVED_KEYS = {"impact.temporary_decay_per_tick": 0.5, "clock.days_per_year": 252, "agents.leg_growth_per_day": 2.0}

# a value for each sweep key that its owning type rejects
BAD_CELLS = {
    "impact.lambda": -1.0,
    "impact.permanent_fraction": 1.5,
    "noise.sigma_daily": math.nan,
    "noise.mean_reversion_half_life_days": 0.0,
    "agents.capital": 0.0,
    "agents.leverage": math.inf,
    "agents.leg_notional": 2e11,
    "agents.book_value": -1.0,
    "profile.spread_open_bps": math.inf,
    "profile.spread_close_bps": 0.0,
    "profile.depth": -1.0,
    "run.days": 0,
    "run.seed": -1,
    "run.initial_mid": math.inf,
    "run.initial_fundamental": math.inf,
}


class TestKeyTables:
    def test_every_sweep_key_has_a_value_here(self):
        assert len(SWEEP_KEYS) == 15
        assert sorted(SWEEP_VALUES) == sorted(BAD_CELLS) == sorted(SWEEP_KEYS)

    def test_every_config_key_with_a_range_has_a_bad_value_here(self):
        ranged = [name for name, row in KEYS.items() if row.config and row.kind not in ("str", "bool")]
        assert sorted(BAD_VALUES) == sorted(ranged)

    @pytest.mark.parametrize("key", BAD_VALUES)
    def test_bad_value_exits_one_naming_the_key(self, capsys, tmp_path, key):
        section, _, name = key.partition(".")
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{name} = {BAD_VALUES[key]}\n")
        out = tmp_path / "x.csv"
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(out))
        assert code == 1
        assert err.startswith(f"error: {key}")
        assert not out.exists()

    @pytest.mark.parametrize("key", [name for name, row in KEYS.items() if row.config and row.kind != "str"])
    def test_malformed_value_is_a_parse_error_naming_the_key(self, tmp_path, key):
        section, _, name = key.partition(".")
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{name} = 1x\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: not (an integer|a number|a boolean): '1x'$"):
            load_config(config)

    @pytest.mark.parametrize("variant", CONFIG_VARIANTS)
    @pytest.mark.parametrize("key", SWEEP_KEYS)
    def test_sweep_key_changes_the_scenario_and_names_a_config_key(self, tmp_path, key, variant):
        # the swept scenario is the one a config setting the key to the same value builds
        text = CONFIG_VARIANTS[variant]
        config = tmp_path / "base.ini"
        config.write_text(text)
        base = load_config(config)
        swept = base.sweep_cell(((key, SWEEP_VALUES[key]),))
        assert scenario_fields(swept) != scenario_fields(base.build())
        name, value = key, SWEEP_VALUES[key]
        if key == "agents.book_value":  # capital * leverage: a sweep moves capital at fixed leverage
            assert not KEYS[key].config
            name, value = "agents.capital", value / base.leverage
        config.write_text(with_setting(text, name, value))
        assert scenario_fields(load_config(config).build()) == scenario_fields(swept)

    @pytest.mark.parametrize("key", SWEEP_KEYS)
    def test_bad_cell_names_the_key(self, noisy_config_path, key):
        base = replace(load_config(noisy_config_path), days=2)
        cells = run_sweep(base, [(key, [SWEEP_VALUES[key], BAD_CELLS[key]])])
        assert [cell.ok for cell in cells] == [True, False]
        assert cells[1].error.startswith(f"ValueError: {key}")

    @pytest.mark.parametrize("key", [name for name, row in KEYS.items() if row.sweep and row.kind == "int"])
    def test_integer_key_takes_integral_floats_only(self, noisy_config_path, key):
        base = replace(load_config(noisy_config_path), days=2)
        cells = run_sweep(base, [(key, [2.0, 2, 2.5, math.nan, math.inf])])
        assert [cell.ok for cell in cells] == [True, True, False, False, False]
        assert cells[0].summary == cells[1].summary
        assert all(f"{key} must be an integer, got " in cell.error for cell in cells[2:])

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_in_no_table(self, noisy_config_path, key):
        assert key not in KEYS
        with pytest.raises(ValueError, match="unknown sweep key"):
            run_sweep(load_config(noisy_config_path), [(key, [0.5])])

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_in_a_config_names_it_as_removed(self, capsys, noisy_config_path, tmp_path, key):
        config = tmp_path / "old.ini"
        config.write_text(with_setting(noisy_config_path.read_text(), key, REMOVED_KEYS[key]))
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: removed key; "):
            load_config(config)
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--days", "3", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert f"{key}: removed key; " in err and "unknown" not in err

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_in_a_sweep_grid_names_it_as_removed(self, capsys, noisy_config_path, tmp_path, key):
        code, _, _, err = run_cli(
            capsys, "sweep", "--config", str(noisy_config_path),
            "--grid", f"{key}=0.3,0.5", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 1
        assert f"{key}: removed key; " in err and "unknown" not in err


class TestAnalyze:
    def test_reference_run_shows_the_overnight_signature(self, capsys, reference_config_path, tmp_path):
        daily = tmp_path / "daily.csv"
        run_cli(capsys, "run", "--config", str(reference_config_path), "--days", "252", "--out", str(daily))
        code, stanza, _, _ = run_cli(capsys, "analyze", str(daily), "--out", str(tmp_path / "rep.csv"))
        assert code == 0
        assert float(stanza["cum_overnight"]) > 1.0
        assert float(stanza["cum_intraday"]) < 1.0
        assert float(stanza["identity_gap"]) <= 1e-12

    def test_flat_ohlc_series(self, capsys, tmp_path):
        prices = tmp_path / "flat.csv"
        prices.write_text(
            "date,open,close\n"
            + "\n".join(f"2024-01-{d:02d},50,50" for d in range(1, 11))
            + "\n"
        )
        code, stanza, _, _ = run_cli(capsys, "analyze", str(prices))
        assert code == 0
        assert float(stanza["cum_overnight"]) == 1.0
        assert float(stanza["cum_intraday"]) == 1.0
        assert float(stanza["cum_total"]) == 1.0

    def test_factor_out_of_float_range_names_the_day(self, capsys, tmp_path):
        # overnight x1e4 and intraday x1e-4 each day: cum_intraday drops
        # below the smallest normal float on the 77th day, 2024-03-18
        start = datetime.date(2024, 1, 1)
        prices = tmp_path / "extreme.csv"
        prices.write_text(
            "date,open,close\n"
            + "".join(f"{start + datetime.timedelta(days=d)},10000,1\n" for d in range(120))
        )
        code, _, _, err = run_cli(capsys, "analyze", str(prices))
        assert code == 1
        assert "cum_intraday" in err and "row 76 (day 2024-03-18)" in err

    def test_missing_open_column(self, capsys, tmp_path):
        prices = tmp_path / "broken.csv"
        prices.write_text("date,close\n2024-01-02,100\n2024-01-03,101\n")
        code, _, _, err = run_cli(capsys, "analyze", str(prices))
        assert code == 1
        assert "open" in err

    def test_malformed_row_reports_line_number(self, capsys, tmp_path):
        prices = tmp_path / "broken.csv"
        prices.write_text("date,open,close\n2024-01-02,100,100\n2024-01-03,100,-3\n")
        code, _, _, err = run_cli(capsys, "analyze", str(prices))
        assert code == 1
        assert "line 3" in err

    def test_ohlc_file_with_a_byte_order_mark(self, capsys, tmp_path):
        text = "date,open,close\n2024-01-02,100,100\n2024-01-03,101,102\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        reports = []
        for path in (plain, marked):
            report = tmp_path / f"{path.stem}.rep.csv"
            code, stanza, _, err = run_cli(capsys, "analyze", str(path), "--out", str(report))
            assert code == 0, err
            assert stanza["days"] == "1"
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_daily_csv_with_a_byte_order_mark(self, capsys, reference_config_path, tmp_path):
        daily = tmp_path / "daily.csv"
        run_cli(capsys, "run", "--config", str(reference_config_path), "--days", "30", "--out", str(daily))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + daily.read_bytes())
        reports = []
        for path in (daily, marked):
            report = tmp_path / f"{path.stem}.rep.csv"
            code, stanza, _, err = run_cli(capsys, "analyze", str(path), "--out", str(report))
            assert code == 0, err
            assert stanza["days"] == "30" and stanza["continuity_gaps"] == "0"
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,100.0,100.0,100.0\n", "line 3: expected 9 columns, got 4"),
            (
                "2,100.010000,100.110000,100.020000,0.0010000000,-0.0009000000,10000.00,0.00,-100abc\n",
                "line 3: could not convert string to float: '-100abc'",
            ),
        ],
    )
    def test_bad_daily_row_message_is_pinned(self, capsys, tmp_path, row, message):
        daily = tmp_path / "daily.csv"
        daily.write_text(
            "day,prev_close,open,close,overnight_ret,intraday_ret,total_cost,mtm_gain,net_pnl\n"
            "1,100.000000,100.000000,100.010000,0.0000000000,0.0001000000,10000.00,0.00,-10000.00\n" + row
        )
        code, _, _, err = run_cli(capsys, "analyze", str(daily))
        assert code == 1
        assert err == f"error: {message}\n"

    def test_a_utf16_export_is_refused_naming_the_path(self, capsys, tmp_path):
        prices = tmp_path / "utf16.csv"
        prices.write_bytes("date,open,close\n2024-01-02,100,100\n2024-01-03,101,102\n".encode("utf-16"))
        assert prices.read_bytes()[:2] == b"\xff\xfe"
        code, _, _, err = run_cli(capsys, "analyze", str(prices))
        assert code == 1
        assert err == f"error: {prices}: not UTF-8 text: line 1, byte 1 (0xff)\n"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("kind", ["ohlc", "daily"])
    @pytest.mark.parametrize("block_chars", [1, 64, None], ids=["one-line-blocks", "small-blocks", "real-blocks"])
    def test_a_stray_byte_mid_file_names_the_path_and_line(self, capsys, monkeypatch, tmp_path, kind, block_chars,
                                                             eol):
        # the text names the file, the line and the byte, whatever the block size and the line ending
        if block_chars is not None:
            monkeypatch.setattr(csvio, "BLOCK_CHARS", block_chars)
        start = datetime.date(2000, 1, 3)
        if kind == "ohlc":
            text = "date,open,close\n" + "".join(f"{start + datetime.timedelta(days=d)},100,101\n" for d in range(400))
        else:
            text = "day,prev_close,open,close,overnight_ret,intraday_ret,total_cost,mtm_gain,net_pnl\n" + "".join(
                f"{d},100.000000,100.000000,100.000000,0.0000000000,0.0000000000,1.00,0.00,-1.00\n" for d in range(1, 400)
            )
        data = bytearray(text.replace("\n", eol).encode())
        assert data[5000] not in b"\r\n"
        data[5000] = 0xFF
        line = data[:5000].count(eol.encode()) + 1
        column = 5000 - data[:5000].rfind(eol[-1].encode())
        prices = tmp_path / f"{kind}.csv"
        prices.write_bytes(bytes(data))
        code, _, _, err = run_cli(capsys, "analyze", str(prices))
        assert code == 1
        assert err == f"error: {prices}: not UTF-8 text: line {line}, byte {column} (0xff)\n"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_an_unreadable_path_exits_one_naming_it(self, capsys, tmp_path, kind):
        path = tmp_path / "nope.csv" if kind == "missing" else tmp_path
        reason = "[Errno 2] No such file or directory" if kind == "missing" else "[Errno 21] Is a directory"
        code, _, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert err == f"error: cannot read {path}: {reason}: '{path}'\n"

    def test_an_edited_prev_close_is_noted_as_a_continuity_gap(self, capsys, reference_config_path, tmp_path):
        daily = tmp_path / "daily.csv"
        run_cli(capsys, "run", "--config", str(reference_config_path), "--days", "10", "--out", str(daily))
        lines = daily.read_text().splitlines(keepends=True)
        cells = lines[5].split(",")  # day 5, row 4 of the series
        cells[1] = "99.000000"
        lines[5] = ",".join(cells)
        daily.write_text("".join(lines))
        code, stanza, text, _ = run_cli(capsys, "analyze", str(daily), "--out", str(tmp_path / "rep.csv"))
        assert code == 0
        assert text.startswith("note: 1 day(s) whose prev_close != prior close (first at row 4)\n")
        assert stanza["continuity_gaps"] == "1"

    @pytest.mark.parametrize("case", list(OHLC_INPUT_ERRORS))
    def test_an_ohlc_input_error_exits_one(self, capsys, tmp_path, case):
        text, message = OHLC_INPUT_ERRORS[case]
        prices = tmp_path / "prices.csv"
        prices.write_text(text)
        code, _, _, err = run_cli(capsys, "analyze", str(prices))
        assert code == 1
        assert err == f"error: {message.format(path=prices)}\n"

    def test_report_csv_written(self, capsys, reference_config_path, tmp_path):
        daily = tmp_path / "daily.csv"
        run_cli(capsys, "run", "--config", str(reference_config_path), "--out", str(daily))
        report = tmp_path / "decomp.csv"
        code, _, _, _ = run_cli(capsys, "analyze", str(daily), "--out", str(report))
        assert code == 0
        assert report.read_text().splitlines()[0] == (
            "day,overnight_ret,intraday_ret,cum_overnight,cum_intraday,cum_total"
        )


class TestSweep:
    def test_book_value_grid_crosses_zero_at_breakeven(self, capsys, reference_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stanza, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(reference_config_path),
            "--grid",
            "agents.book_value=1e7,1e8,1e9,1e10",
            "--out",
            str(out),
        )
        assert code == 0
        assert stanza["ok"] == "4"
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        book_i = header.index("agents.book_value")
        net_i = header.index("total_net_pnl")
        books = [float(r.split(",")[book_i]) for r in rows[1:]]
        nets = [float(r.split(",")[net_i]) for r in rows[1:]]
        from daydrift import locate_zero_crossing

        assert locate_zero_crossing(books, nets) == pytest.approx(1e8, rel=0.02)

    def test_single_point_grid_matches_run_summary(self, capsys, reference_config_path, tmp_path):
        out_run = tmp_path / "daily.csv"
        _, run_stanza, _, _ = run_cli(
            capsys, "run", "--config", str(reference_config_path), "--out", str(out_run)
        )
        sweep_out = tmp_path / "sweep.csv"
        code, _, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(reference_config_path),
            "--grid",
            "impact.lambda=20.0",
            "--out",
            str(sweep_out),
        )
        assert code == 0
        rows = sweep_out.read_text().splitlines()
        header, row = rows[0].split(","), rows[1].split(",")
        cell = dict(zip(header, row))
        for key in ("total_cost", "total_mtm_gain", "total_net_pnl", "gain_cost_ratio"):
            assert float(cell[key]) == pytest.approx(float(run_stanza[key]), rel=1e-12)

    def test_worker_count_is_immaterial(self, capsys, reference_config_path, tmp_path):
        outs = []
        for workers, name in ((1, "w1.csv"), (3, "w3.csv")):
            out = tmp_path / name
            code, _, _, _ = run_cli(
                capsys,
                "sweep",
                "--config",
                str(reference_config_path),
                "--grid",
                "agents.book_value=1e8,1e9",
                "--grid",
                "run.seed=1,2",
                "--out",
                str(out),
                "--workers",
                str(workers),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_the_stanza_counts_price_paths_and_reports_no_pool(self, capsys, reference_config_path, tmp_path):
        code, stanza, _, _ = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", "agents.book_value=1e7,1e8,1e9,1e10",
            "--workers", "4", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 0
        assert (stanza["cells"], stanza["paths"]) == ("4", "1")
        assert "workers" not in stanza and "pool_workers" not in stanza

    def test_the_stanza_counts_one_price_path_per_seed(self, capsys, reference_config_path, tmp_path):
        code, stanza, _, _ = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", "run.seed=1,2,3,4", "--days", "2",
            "--workers", "64", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 0
        assert (stanza["cells"], stanza["ok"], stanza["paths"]) == ("4", "4", "4")

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_every_price_path_runs_once_in_this_process(self, capsys, monkeypatch, reference_config_path, tmp_path, workers):
        pids, run_path = [], engine._run_path
        monkeypatch.setattr(engine, "_run_path", lambda base, path: pids.append(os.getpid()) or run_path(base, path))
        code, stanza, _, _ = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", "agents.book_value=1e8,1e9",
            "--grid", "run.seed=1,2", "--days", "2", "--workers", workers, "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 0 and stanza["paths"] == "2"
        assert pids == [os.getpid()] * 2

    def test_key_named_twice_exits_one_naming_it(self, capsys, reference_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _, err = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", "agents.book_value=1e7,1e10",
            "--grid", "run.days=1", "--grid", "agents.book_value=1e8", "--out", str(out),
        )
        assert code == 1
        assert err == "error: sweep key 'agents.book_value' appears more than once in the grid\n"
        assert not out.exists()

    def test_cell_error_names_the_key_that_set_the_rejected_value(self, capsys, reference_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, text, _ = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", "agents.book_value=-1",
            "--grid", "run.seed=1,2", "--out", str(out),
        )
        assert code == 2
        message = "ValueError: agents.book_value: capital must be positive and finite, got -0.1"
        assert text.splitlines()[1:3] == [
            f"  failed cell [agents.book_value=-1.0, run.seed=1]: {message}",
            f"  failed cell [agents.book_value=-1.0, run.seed=2]: {message}",
        ]
        assert [row[-1] for row in csv.reader(out.read_text().splitlines()[1:])] == [message, message]

    def test_bad_cell_is_reported_but_not_fatal(self, capsys, reference_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stanza, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(reference_config_path),
            "--grid",
            "agents.book_value=1e9,-1",
            "--out",
            str(out),
        )
        assert code == 0
        assert stanza["ok"] == "1" and stanza["failed"] == "1"

    def test_non_integral_seed_or_days_cell_is_an_error(self, capsys, reference_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stanza, text, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(reference_config_path),
            "--grid",
            "run.seed=1,1.5",
            "--grid",
            "run.days=2,2.5",
            "--out",
            str(out),
        )
        assert code == 0
        assert stanza["ok"] == "1" and stanza["failed"] == "3"
        rows = out.read_text().splitlines()[1:]
        assert rows[0].startswith("1,2,") and rows[0].endswith(",")
        assert "run.days must be an integer, got 2.5" in rows[1]
        assert "run.seed must be an integer, got 1.5" in rows[2] and "run.seed must be" in rows[3]
        assert "run.days must be an integer, got 2.5" in text

    def test_swept_seed_above_two_to_the_53_runs_exactly(self, capsys, noisy_config_path, tmp_path):
        from dataclasses import replace

        from daydrift import load_config, run_sim, summarize

        seed = 2**64 + 3  # float(seed) is 2**64, a different seed
        out = tmp_path / "sweep.csv"
        code, stanza, _, _ = run_cli(
            capsys, "sweep", "--config", str(noisy_config_path),
            "--grid", f"run.seed={seed}", "--grid", "run.days=3", "--out", str(out),
        )
        assert code == 0 and stanza["ok"] == "1"
        header, row = (line.split(",") for line in out.read_text().splitlines())
        cell = dict(zip(header, row))
        assert cell["run.seed"] == str(seed) and cell["run.days"] == "3"
        expected = summarize(run_sim(replace(load_config(noisy_config_path).build(), seed=seed, days=3)))
        for key in ("final_close", "total_cost", "total_mtm_gain", "total_net_pnl"):
            assert cell[key] == repr(getattr(expected, key))
        assert expected != summarize(run_sim(replace(load_config(noisy_config_path).build(), seed=2**64, days=3)))

    def test_nan_sigma_cell_is_an_error_not_a_noiseless_run(self, capsys, noisy_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stanza, text, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(noisy_config_path),
            "--grid",
            "noise.sigma_daily=0.01,nan",
            "--grid",
            "run.days=5",
            "--out",
            str(out),
        )
        assert code == 0
        assert stanza["ok"] == "1" and stanza["failed"] == "1"
        assert "sigma_daily must be finite" in text
        rows = out.read_text().splitlines()
        assert rows[2].startswith("nan,5,,") and "sigma_daily must be finite and >= 0, got nan" in rows[2]

    @pytest.mark.parametrize("key", ["agents.capital", "agents.leverage", "agents.leg_notional", "agents.book_value"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_agent_cell_is_an_error(self, capsys, noisy_config_path, tmp_path, key, value):
        out = tmp_path / "sweep.csv"
        code, stanza, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(noisy_config_path),
            "--grid",
            f"{key}=1e9,{value}",
            "--grid",
            "run.days=3",
            "--out",
            str(out),
        )
        assert code == 0
        assert stanza["ok"] == "1" and stanza["failed"] == "1"
        rows = out.read_text().splitlines()
        assert rows[2].startswith(f"{value},3,,") and "ValueError" in rows[2]

    def test_interior_spread_underflow_cell_names_the_close_key(self, noisy_config_path):
        base = replace(load_config(noisy_config_path), days=2)
        cells = run_sweep(base, [("profile.spread_close_bps", [5.0, 5e-324])])
        assert [cell.ok for cell in cells] == [True, False]
        assert cells[1].error == (
            "ValueError: profile.spread_close_bps 5e-324 is too far from the open spread 15.0: "
            "an interpolated spread leaves (0, inf)"
        )

    def test_all_cells_failing_is_a_runtime_error(self, capsys, reference_config_path, tmp_path):
        code, _, _, _ = run_cli(
            capsys,
            "sweep",
            "--config",
            str(reference_config_path),
            "--grid",
            "agents.book_value=-1,-2",
            "--out",
            str(tmp_path / "sweep.csv"),
        )
        assert code == 2

    def test_unknown_grid_key_is_a_config_error(self, capsys, reference_config_path, tmp_path):
        code, _, _, err = run_cli(
            capsys,
            "sweep",
            "--config",
            str(reference_config_path),
            "--grid",
            "impact.zeta=1,2",
            "--out",
            str(tmp_path / "sweep.csv"),
        )
        assert code == 1
        assert "impact.zeta" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_one_naming_the_option(self, capsys, reference_config_path, tmp_path, workers):
        out = tmp_path / "sweep.csv"
        code, _, _, err = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", "run.seed=1,2",
            "--workers", workers, "--out", str(out),
        )
        assert code == 1
        assert err == f"error: --workers must be >= 1, got {workers}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("agents.book_value", "is not of the form key=v1,v2,..."),
            ("agents.book_value=1e7,x", "has a non-numeric value"),
            ("agents.book_value=, ,", "has no values"),
        ],
    )
    def test_a_malformed_grid_spec_exits_one_naming_it(self, capsys, reference_config_path, tmp_path, spec, problem):
        out = tmp_path / "sweep.csv"
        code, _, _, err = run_cli(
            capsys, "sweep", "--config", str(reference_config_path), "--grid", spec, "--out", str(out)
        )
        assert code == 1
        assert err == f"error: grid spec {spec!r} {problem}\n"
        assert not out.exists()


class TestCalibrate:
    def test_one_bp_target(self, capsys, reference_config_path):
        code, stanza, text, _ = run_cli(
            capsys, "calibrate", "--config", str(reference_config_path), "--target-bps", "1"
        )
        assert code == 0
        assert float(stanza["lambda"]) == pytest.approx(20.0, rel=1e-12)
        assert float(stanza["achieved_nudge_bps"]) == pytest.approx(1.0, rel=1e-9)
        assert "1.0000 bp" in text

    def test_zero_target(self, capsys, reference_config_path):
        code, stanza, _, _ = run_cli(
            capsys, "calibrate", "--config", str(reference_config_path), "--target-bps", "0"
        )
        assert code == 0
        assert float(stanza["lambda"]) == 0.0

    def test_symmetric_profile_is_infeasible(self, capsys, tmp_path):
        config = tmp_path / "flat.ini"
        config.write_text(
            "[profile]\nspread_open_bps = 10\nspread_close_bps = 10\n[agents]\n[run]\ndays = 1\n"
        )
        code, _, _, err = run_cli(
            capsys, "calibrate", "--config", str(config), "--target-bps", "4"
        )
        assert code == 1
        assert "asymmetry" in err

    @pytest.mark.parametrize(("target", "lam"), [("nan", "nan"), ("inf", "inf"), ("1e308", "inf")])
    def test_a_target_without_a_finite_lambda_is_named(self, capsys, reference_config_path, target, lam):
        code, _, _, err = run_cli(capsys, "calibrate", "--config", str(reference_config_path), "--target-bps", target)
        assert code == 1
        assert err == (
            f"error: target of {float(target)} bps needs an impact coefficient of {lam}, which is not finite\n"
        )

    def test_a_target_whose_check_day_fails_names_the_target_and_lambda(self, capsys, reference_config_path):
        code, _, out, err = run_cli(capsys, "calibrate", "--config", str(reference_config_path), "--target-bps", "1e300")
        assert code == 1
        assert out == ""
        m = re.fullmatch(
            r"error: target of 1e\+300 bps needs an impact coefficient of (\S+), at which the check day fails: "
            r"day 1: close is non-positive or non-finite: nan\n",
            err,
        )
        assert m and float(m.group(1)) == pytest.approx(2e301, rel=1e-12)

    def test_a_disabled_trader_is_calibrated_as_if_it_traded(self, capsys, tmp_path, reference_config_path):
        config = tmp_path / "disabled.ini"
        config.write_text(reference_config_path.read_text().replace("enabled = true", "enabled = false"))
        code, stanza, text, _ = run_cli(capsys, "calibrate", "--config", str(config), "--target-bps", "1")
        assert code == 0
        assert float(stanza["lambda"]) == pytest.approx(20.0, rel=1e-12)
        assert float(stanza["achieved_nudge_bps"]) == pytest.approx(1.0, rel=1e-9)
        assert "verified nudge  1.0000 bp" in text

    def test_agentless_config_cannot_calibrate(self, capsys, tmp_path):
        config = tmp_path / "quiet.ini"
        config.write_text("[run]\ndays = 1\n")
        code, _, _, err = run_cli(capsys, "calibrate", "--config", str(config), "--target-bps", "1")
        assert code == 1
        assert "agents" in err


class TestArgumentHandling:
    def test_usage_errors_exit_one(self, capsys):
        assert main(["run"]) == 1  # missing --config
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_an_unexpected_error_is_a_runtime_error(self, capsys, monkeypatch, reference_config_path):
        def broken(args):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "cmd_calibrate", broken)
        code, _, _, err = run_cli(capsys, "calibrate", "--config", str(reference_config_path), "--target-bps", "1")
        assert code == 2
        assert err == "runtime error: KeyError: 'lost'\n"
