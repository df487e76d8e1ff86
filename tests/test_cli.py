"""End-to-end coverage of the fit, mle, diagnose, and simulate subcommands."""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import sysconfig
from importlib.metadata import EntryPoint

import pytest

from btrank import load_chain
from btrank.cli import main

from .conftest import DATA_DIR

# The btrank script of an installed package, if this environment has one.
INSTALLED_SCRIPT = (
    shutil.which("btrank", path=sysconfig.get_path("scripts")) or shutil.which("btrank")
)


def fixture_args(out_dir, *extra: str) -> list[str]:
    return [
        "fit",
        "--indicators", str(DATA_DIR / "indicators.csv"),
        "--polarity", str(DATA_DIR / "polarity.csv"),
        "--income", str(DATA_DIR / "income.csv"),
        "--out", str(out_dir),
        "--iterations", "2000",
        "--burn-in", "500",
        "--beta", "0.05",
        "--seed", "1",
        *extra,
    ]


class TestFit:
    def test_writes_the_full_output_set(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(fixture_args(out, "--export-win-matrix")) == 0
        for name in (
            "chain.npz",
            "diagnostics.json",
            "traces.csv",
            "acf.csv",
            "kendall.csv",
            "ranking.csv",
            "ranking.json",
            "win_matrix.csv",
        ):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "fit: 33 entities, 116 indicators, 61248 comparisons" in stdout
        assert "acceptance rate" in stdout

        payload = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        assert payload["rank_est"] == 32
        with open(out / "ranking.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["entity", "mean", "sd", "ci_low", "ci_high", "rank", "mle_rank"]
        assert len(rows) == 34

    def test_same_seed_reproduces_outputs_byte_for_byte(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(fixture_args(out_a)) == 0
        assert main(fixture_args(out_b)) == 0
        assert (out_a / "chain.npz").read_bytes() == (out_b / "chain.npz").read_bytes()
        assert (out_a / "ranking.csv").read_bytes() == (out_b / "ranking.csv").read_bytes()

    def test_flags_override_config_which_overrides_defaults(self, tmp_path):
        config = tmp_path / "fit.conf"
        config.write_text(
            "# sampler settings\n"
            "iterations = 600\n"
            "beta = 0.05\n"
            "seed = 3\n"
            f"indicators = {DATA_DIR / 'indicators.csv'}\n"
            f"polarity = {DATA_DIR / 'polarity.csv'}\n"
            f"income = {DATA_DIR / 'income.csv'}\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main(
            ["fit", "--config", str(config), "--out", str(out), "--iterations", "900"]
        )
        assert code == 0
        samples = load_chain(out / "chain.npz")
        assert samples.config.iterations == 900  # flag beats config
        assert samples.config.beta == 0.05  # config beats default
        assert samples.config.seed == 3

    def test_zone_subset_restricts_the_entities(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(fixture_args(out, "--zones", "high")) == 0
        assert "fit: 10 entities" in capsys.readouterr().out


class TestMle:
    def test_writes_the_baseline_ranking(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "mle",
            "--indicators", str(DATA_DIR / "indicators.csv"),
            "--polarity", str(DATA_DIR / "polarity.csv"),
            "--income", str(DATA_DIR / "income.csv"),
            "--out", str(out),
        ])
        assert code == 0
        with open(out / "mle_ranking.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["entity", "merit", "rank"]
        assert len(rows) == 34
        ranks = {row[0]: int(row[2]) for row in rows[1:]}
        assert sorted(ranks.values()) == list(range(1, 34))
        assert "mle: 33 entities" in capsys.readouterr().out


class TestDiagnose:
    def test_reproduces_the_diagnostics_from_the_dump(self, tmp_path):
        fit_out = tmp_path / "fit"
        assert main(fixture_args(fit_out)) == 0
        diag_out = tmp_path / "diag"
        code = main([
            "diagnose", str(fit_out / "chain.npz"), "--out", str(diag_out),
            "--trace-params", "variance",
        ])
        assert code == 0
        original = json.loads((fit_out / "diagnostics.json").read_text(encoding="utf-8"))
        recomputed = json.loads((diag_out / "diagnostics.json").read_text(encoding="utf-8"))
        assert recomputed == original

    def test_missing_dump_maps_to_the_io_exit_code(self, tmp_path, capsys):
        code = main(["diagnose", str(tmp_path / "absent.npz"), "--out", str(tmp_path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_zero_window_maps_to_the_validation_exit_code(self, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        assert main(fixture_args(fit_out)) == 0
        code = main([
            "diagnose", str(fit_out / "chain.npz"), "--out", str(tmp_path / "diag"),
            "--window", "0",
        ])
        assert code == 1
        assert "window must be at least 1" in capsys.readouterr().err

    def test_corrupt_dump_maps_to_the_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a chain dump")
        code = main(["diagnose", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "corrupt or unreadable" in capsys.readouterr().err


class TestSimulate:
    def test_runs_a_tiny_study(self, tmp_path, capsys):
        spec = tmp_path / "study.conf"
        spec.write_text(
            "m = 4\nk_comparisons = 30\nreplications = 2\nlength_scales = 0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main([
            "simulate", str(spec),
            "--iterations", "1500", "--beta", "0.3", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        with open(out / "study.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "replication", "length_scale", "method", "spearman", "pearson", "rmse", "kendall",
        ]
        assert len(rows) == 1 + 4
        stdout = capsys.readouterr().out
        assert "bayes: median spearman" in stdout
        assert "mle: median spearman" in stdout


class TestFailureModes:
    def test_missing_input_specification(self, tmp_path, capsys):
        code = main(["fit", "--out", str(tmp_path)])
        assert code == 1
        assert "no indicators file given" in capsys.readouterr().err

    def test_nonexistent_data_file(self, tmp_path, capsys):
        code = main([
            "fit",
            "--indicators", str(tmp_path / "nope.csv"),
            "--polarity", str(DATA_DIR / "polarity.csv"),
            "--income", str(DATA_DIR / "income.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_tie_policy(self, tmp_path, capsys):
        code = main(fixture_args(tmp_path, "--tie-policy", "ignore"))
        assert code == 1
        assert "tie policy" in capsys.readouterr().err

    def test_bad_sampler_setting(self, tmp_path, capsys):
        code = main(fixture_args(tmp_path, "--beta", "2.0"))
        assert code == 1
        assert "beta" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "fit.conf"
        config.write_text("iterationz = 100\n", encoding="utf-8")
        code = main(["fit", "--config", str(config)])
        assert code == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_malformed_config_line_reports_the_line_number(self, tmp_path, capsys):
        config = tmp_path / "fit.conf"
        config.write_text("beta = 0.1\niterations\n", encoding="utf-8")
        code = main(["fit", "--config", str(config)])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_usage_errors_share_the_validation_exit_code(self, capsys):
        assert main(["fit", "--no-such-flag"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "btrank", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "simulate" in proc.stdout

    def test_console_script(self, tmp_path):
        # The contract an installer consumes: [project.scripts] names
        # btrank.cli:main, and the wrapper it would generate from that entry
        # runs. Checked from the repo, so it holds without an install.
        tomllib = pytest.importorskip("tomllib")
        with open(DATA_DIR.parent / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"btrank": "btrank.cli:main"}
        entry = EntryPoint("btrank", scripts["btrank"], "console_scripts")
        assert entry.load() is main

        wrapper = tmp_path / "btrank"
        wrapper.write_text(
            f"import sys\nfrom {entry.module} import {entry.attr}\nsys.exit({entry.attr}())\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, str(wrapper), "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "diagnose" in proc.stdout
        assert proc.stdout.startswith("usage: btrank")

    @pytest.mark.skipif(INSTALLED_SCRIPT is None, reason="no installed btrank script")
    def test_installed_console_script(self):
        proc = subprocess.run(
            [INSTALLED_SCRIPT, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "diagnose" in proc.stdout
