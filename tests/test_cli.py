import datetime
import re

import pytest

from daydrift.cli import main

from conftest import NOISY_CONFIG, parse_stanza


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

    def test_negative_spread_names_the_key(self, capsys, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[profile]\nspread_close_bps = -5\n")
        code, _, _, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "profile.spread_close_bps" in err

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

    def test_no_output_path_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "min.ini"
        config.write_text("[run]\ndays = 1\n")
        code, _, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 1
        assert "output" in err


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
