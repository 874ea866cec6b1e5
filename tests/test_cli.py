"""Tests for the command-line interface."""

import csv
import io
import json

import pytest

from repro.cli import main
from repro.scenario import Scenario


def scenario_file(tmp_path, **overrides):
    """Write a small scaled-regime scenario to disk, return its path."""
    payload = {
        "tracker": {"name": overrides.pop("tracker", "mint")},
        "attack": {"name": overrides.pop("attack", "double-sided")},
        "trh": 60.0,
        "intervals": 64,
        "max_act": 8,
        "num_rows": 1024,
        "refi_per_refw": 64,
        "scaled_timing": True,
        "seed": 3,
        **overrides,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


class TestRunCommand:
    def test_run_scenario_file(self, capsys, tmp_path):
        code = main(["run", str(scenario_file(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out and "MINT" in out

    def test_run_detects_flips(self, capsys, tmp_path):
        path = scenario_file(tmp_path, tracker="none")
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FLIP" in out and "first flip" in out

    def test_run_json_format_is_the_result_payload(self, capsys, tmp_path):
        path = scenario_file(tmp_path)
        code = main(["run", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["failed"] is False
        assert payload["num_banks"] == 1
        assert payload["per_bank"][0]["demand_acts"] == 512

    def test_run_csv_format(self, capsys, tmp_path):
        path = scenario_file(tmp_path, num_banks=2, attack="rank-stripe")
        code = main(["run", str(path), "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        # One aggregate rank row plus one row per bank.
        assert [row["scope"] for row in rows] == ["rank", "bank", "bank"]

    def test_run_windows_monte_carlo(self, capsys, tmp_path):
        path = scenario_file(tmp_path, trh=30.0)
        code = main(["run", str(path), "--windows", "6", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert payload["windows"] == 6
        assert code == (1 if payload["failures"] else 0)

    @pytest.mark.parametrize("windows", ["0", "-3", "two"])
    def test_non_positive_windows_is_a_usage_error(
        self, capsys, tmp_path, windows
    ):
        # `--windows 0` used to run a single trace; `-3` reached
        # run_many(-3).
        path = scenario_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path), "--windows", windows])
        assert excinfo.value.code == 2
        assert "--windows" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_is_a_usage_error(
        self, capsys, tmp_path, workers
    ):
        # `--workers 0` used to run quietly on one worker.
        path = scenario_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path), "--windows", "2", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(tmp_path / "absent.json")])
        assert excinfo.value.code == 2

    def test_invalid_scenario_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tracker": {"name": "mint"}}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path)])
        assert excinfo.value.code == 2
        assert "attack" in capsys.readouterr().out


class TestScenarioCommand:
    def test_show(self, capsys, tmp_path):
        path = scenario_file(tmp_path)
        assert main(["scenario", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mint vs double-sided" in out
        assert "fingerprint" in out

    def test_show_json_round_trips(self, capsys, tmp_path):
        path = scenario_file(tmp_path)
        assert main(["scenario", "show", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        original = Scenario.from_payload(json.loads(path.read_text()))
        assert Scenario.from_payload(payload) == original

    def test_fingerprint(self, capsys, tmp_path):
        path = scenario_file(tmp_path)
        assert main(["scenario", "fingerprint", str(path)]) == 0
        printed = capsys.readouterr().out.strip()
        expected = Scenario.from_payload(
            json.loads(path.read_text())
        ).fingerprint()
        assert printed == expected

    def test_repo_example_scenario_runs(self, capsys):
        """The README's examples/scenario.json must stay runnable."""
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "scenario.json"
        assert main(["run", str(example)]) == 0
        assert "[ok]" in capsys.readouterr().out


class TestAttackCommand:
    def test_mint_survives_double_sided(self, capsys):
        code = main([
            "attack", "--attack", "double-sided", "--tracker", "mint",
            "--trh", "4800", "--intervals", "300",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out

    def test_unprotected_fails(self, capsys):
        code = main([
            "attack", "--attack", "double-sided", "--tracker", "none",
            "--trh", "1000", "--intervals", "300",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FLIP" in out
        assert "first flip" in out

    def test_trr_falls_to_many_sided(self, capsys):
        code = main([
            "attack", "--attack", "many-sided", "--tracker", "trr",
            "--trh", "1300", "--intervals", "300",
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--intervals", "-5", "intervals"),
            ("--trh", "-3", "trh"),
            ("--banks", "0", "num_banks"),
            ("--ranks", "0", "num_ranks"),
            ("--max-act", "-1", "max_act"),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(
        self, capsys, flag, value, field
    ):
        # Each used to escape as a ValueError traceback with exit 1,
        # the "a bit flipped" exit code.
        code = main(["attack", "--attack", "double-sided", flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and field in err

    def test_dmq_flag(self, capsys):
        code = main([
            "attack", "--attack", "single-sided", "--tracker", "mint",
            "--dmq", "--allow-postponement",
            "--trh", "4800", "--intervals", "200",
        ])
        assert code == 0
        assert "MINT+DMQ" in capsys.readouterr().out


class TestMintrhCommand:
    @pytest.mark.parametrize(
        "scheme,expected", [("mint", 1481), ("rfm32", 700), ("rfm16", 360)]
    )
    def test_schemes(self, capsys, scheme, expected):
        code = main(["mintrh", "--scheme", scheme])
        out = capsys.readouterr().out
        assert code == 0
        assert str(expected) in out

    def test_custom_target(self, capsys):
        code = main(["mintrh", "--scheme", "mint", "--target-ttf", "1000"])
        assert code == 0
        assert "1,000 years" in capsys.readouterr().out


class TestTableCommand:
    @pytest.mark.parametrize("which", ["3", "4", "5", "7", "9"])
    def test_tables_print(self, capsys, which):
        assert main(["table", "--which", which]) == 0
        assert capsys.readouterr().out.strip()

    def test_table3_contents(self, capsys):
        main(["table", "--which", "3"])
        out = capsys.readouterr().out
        assert "MINT" in out and "PRCT" in out and "Mithril" in out


class TestExpCommand:
    def _run_args(self, store):
        return [
            "exp", "run",
            "--trackers", "mint,none",
            "--attacks", "single-sided",
            "--trh", "300", "--intervals", "120",
            "--workers", "2", "--seed", "5",
            "--store", str(store),
        ]

    def test_run_reports_grid_and_flips(self, capsys, tmp_path):
        store = tmp_path / "store.json"
        code = main(self._run_args(store))
        out = capsys.readouterr().out
        assert code == 1  # the unprotected point flips
        assert "2 points (2 executed, 0 cached)" in out
        assert "[FLIP] none" in out
        assert "[  ok] mint" in out
        assert store.exists()

    def test_rerun_is_cached(self, capsys, tmp_path):
        store = tmp_path / "store.json"
        main(self._run_args(store))
        capsys.readouterr()
        main(self._run_args(store))
        assert "(0 executed, 2 cached)" in capsys.readouterr().out

    def test_status_lists_store(self, capsys, tmp_path):
        store = tmp_path / "store.json"
        main(self._run_args(store))
        capsys.readouterr()
        code = main(["exp", "status", "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 cached result(s)" in out
        assert "mint" in out and "none" in out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_is_a_usage_error(self, capsys, workers):
        # `--workers -2` used to run quietly on one worker.
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", "run", "--preset", "shootout", "--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_run_without_grid_errors(self, capsys):
        code = main(["exp", "run"])
        assert code == 2
        assert "--preset" in capsys.readouterr().out

    def test_exp_run_json_format(self, capsys, tmp_path):
        args = self._run_args(tmp_path / "store.json")
        code = main(args + ["--format", "json"])
        payloads = json.loads(capsys.readouterr().out)
        assert code == 1
        assert len(payloads) == 2
        assert {p["tracker"] for p in payloads} == {"mint", "none"}
        assert any(p["metrics"]["failed"] for p in payloads)

    def test_exp_run_csv_format(self, capsys, tmp_path):
        args = self._run_args(tmp_path / "store.json")
        code = main(args + ["--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert code == 1
        assert {row["tracker"] for row in rows} == {"mint", "none"}
        assert {row["failed"] for row in rows} == {"True", "False"}


class TestPlanCommand:
    def test_plain_mint_for_high_trh(self, capsys):
        assert main(["plan", "--trh-d", "4800"]) == 0
        out = capsys.readouterr().out
        assert "use MINT " in out or "use MINT\n" in out or "use MINT (" in out

    def test_rfm16_for_low_trh(self, capsys):
        assert main(["plan", "--trh-d", "400"]) == 0
        assert "RFM16" in capsys.readouterr().out

    def test_prac_below_reach(self, capsys):
        assert main(["plan", "--trh-d", "200"]) == 1
        assert "PRAC" in capsys.readouterr().out
