"""End-to-end coverage of the fit, mle, diagnose, and simulate subcommands."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import warnings
import zipfile
from importlib.metadata import EntryPoint

import numpy as np
import pytest

from btrank import (
    KernelSpec, SamplerConfig, SimStudySpec, build_prior, build_win_matrix, constrain, diagnose,
    diagnostics, load_chain, mcmc, mle_newman, run_chain, save_chain, summarize, trace_export,
)
from btrank.bt import NoMleError
from btrank.cli import (
    OPTIONS, _kernel_spec, _load_tables, _merged_options, _write_diagnostics, build_parser, main,
    read_config_file,
)
from btrank.diagnostics import ESS_MIN_DRAWS, default_bandwidth

from .conftest import DATA_DIR, csv_floats, make_income, rewrite_dump, toy_samples

# a child Python that imports the package from this checkout
SRC_ENV = {**os.environ, "PYTHONPATH": str(DATA_DIR.parent / "src")}

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

        # traces.csv: draws 1..n_kept of each parameter, one parameter after the other
        samples = load_chain(out / "chain.npz")
        n, lags = samples.n_kept, default_bandwidth(samples.n_kept) + 1
        names = [f"merit{i}" for i in range(33)] + ["variance", "quad_form", "loglik"]
        with open(out / "traces.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["draw", "parameter", "value"]
        assert rows[1] == ["1", "merit0", repr(float(samples.merit_draws[0, 0]))]
        draws = [[str(t), p] for p in names for t in range(1, n + 1)]
        assert [row[:2] for row in rows[1:]] == draws
        assert rows[n] == [str(n), "merit0", repr(float(samples.merit_draws[-1, 0]))]
        # acf.csv: lags 0..bandwidth of each parameter, same order, lag 0 exactly 1.0
        with open(out / "acf.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["lag", "parameter", "autocorrelation"]
        assert [row[:2] for row in rows[1:]] == [[str(k), p] for p in names for k in range(lags)]
        assert all(row[2] == "1.0" for row in rows[1::lags])

    def test_every_float_cell_parses_back_to_the_value_in_memory(self, tmp_path):
        out = tmp_path / "run"
        argv = fixture_args(out, "--export-win-matrix")
        assert main(argv) == 0
        options = _merged_options(build_parser().parse_args(argv), "run", None)
        table, income = _load_tables(options)
        w = build_win_matrix(table, options["tie_policy"])
        kernel = _kernel_spec(options, options["length_scale"])
        cov = build_prior(income, kernel, jitter=options["jitter"])
        samples = load_chain(out / "chain.npz")

        def same(path, column, values):
            # == on every cell, NaN matching NaN
            assert np.array_equal(csv_floats(out / path, column), values, equal_nan=True)

        trace, acf, _ = trace_export(samples, "all", cov=cov)
        same("traces.csv", "value", trace)
        same("acf.csv", "autocorrelation", acf)
        ranking = summarize(samples, w.entities, level=options["level"], mle_merits=mle_newman(w))
        for column in ("mean", "sd", "ci_low", "ci_high", "rank", "mle_rank"):
            same("ranking.csv", column, getattr(ranking, column))
        off_diagonal = ~np.eye(w.m, dtype=bool)
        same("win_matrix.csv", "wins", w.wins[off_diagonal])
        same("win_matrix.csv", "comparisons", w.comparisons[off_diagonal])

    def test_the_dump_metadata_names_the_kernel(self, tmp_path):
        out = tmp_path / "run"
        extra = ("--kernel", "rational_quadratic", "--mixture", "2", "--length-scale", "0.3")
        assert main(fixture_args(out, *extra)) == 0
        _, metadata = mcmc._read_chain(out / "chain.npz")
        assert metadata["kernel"] == {"kind": "rational_quadratic", "length_scale": 0.3, "mixture": 2.0}
        assert set(metadata) == {"jitter_applied", "prior_rank_deficient", "kernel", "entities"}

    @pytest.mark.parametrize("length_scale, deficient", [("0.6", True), ("0.09", False)])
    def test_a_prior_that_loses_rank_is_warned_and_flagged(
        self, tmp_path, capsys, length_scale, deficient
    ):
        # on the bundled incomes the prior keeps rank 32 = M - 1 at 0.09 and 15 at 0.6
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        short = ("--iterations", "600", "--burn-in", "200", "--length-scale", length_scale)
        assert main(fixture_args(fit_out, *short)) == 0
        warning = "warning: the prior has rank 15, below M - 1 = 32, at length scale 0.6"
        err = capsys.readouterr().err
        assert (warning in err) is deficient
        assert ("the prior has rank" in err) is deficient
        flags = json.loads((fit_out / "diagnostics.json").read_text(encoding="utf-8"))["flags"]
        assert flags["prior_rank_deficient"] is deficient
        _, metadata = mcmc._read_chain(fit_out / "chain.npz")
        assert metadata["prior_rank_deficient"] is deficient
        # diagnose carries every flag the fit stored
        assert main(["diagnose", str(fit_out / "chain.npz"), "--out", str(diag_out)]) == 0
        assert json.loads((diag_out / "diagnostics.json").read_text(encoding="utf-8"))["flags"] == flags

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
            "seed = 3  # note\n"
            f"out = {tmp_path / 'run#1'}\n"
            f"indicators = {DATA_DIR / 'indicators.csv'}\n"
            f"polarity = {DATA_DIR / 'polarity.csv'}\n"
            f"income = {DATA_DIR / 'income.csv'}\n",
            encoding="utf-8",
        )
        code = main(["fit", "--config", str(config), "--iterations", "900"])
        assert code == 0
        # a '#' inside a value is kept; one after whitespace starts a comment
        samples = load_chain(tmp_path / "run#1" / "chain.npz")
        assert samples.config.iterations == 900  # flag beats config
        assert samples.config.beta == 0.05  # config beats default
        assert samples.config.seed == 3

    @pytest.mark.parametrize("raw, written", [("yes", True), ("Off", False)])
    def test_a_config_file_sets_a_switch_by_word(self, tmp_path, raw, written):
        config, out = tmp_path / "fit.cfg", tmp_path / "run"
        config.write_text(f"export_win_matrix = {raw}\n", encoding="utf-8")
        assert main(fixture_args(out, "--config", str(config))) == 0
        assert (out / "win_matrix.csv").exists() is written

    def test_a_switch_that_is_not_a_boolean_names_its_line(self, tmp_path, capsys):
        config, out = tmp_path / "fit.cfg", tmp_path / "run"
        config.write_text("seed = 2\nexport_win_matrix = maybe\n", encoding="utf-8")
        assert main(fixture_args(out, "--config", str(config))) == 1
        err = capsys.readouterr().err
        assert f"{config}:2: bad value for 'export_win_matrix': expected a boolean, got 'maybe'" in err
        assert not out.exists()

    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        config = tmp_path / "fit.conf"
        config.write_text("iterations = 600\nbeta = 0.05\n", encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbf")
        coercers = {"iterations": int, "beta": float}
        assert read_config_file(config, coercers) == {"iterations": 600, "beta": 0.05}

    def test_none_flags_override_config_values(self, tmp_path):
        config = tmp_path / "fit.conf"
        config.write_text(
            "iterations = 600\n"
            "beta = 0.05\n"
            "burn_in = 100\n"
            "fix_variance = 0.5\n"
            f"indicators = {DATA_DIR / 'indicators.csv'}\n"
            f"polarity = {DATA_DIR / 'polarity.csv'}\n"
            f"income = {DATA_DIR / 'income.csv'}\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main([
            "fit", "--config", str(config), "--out", str(out),
            "--burn-in", "none", "--fix-variance", "none",
        ])
        assert code == 0
        samples = load_chain(out / "chain.npz")
        assert samples.config.burn_in == 600 // 3
        assert samples.config.fix_variance is None

    def test_zone_subset_restricts_the_entities(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(fixture_args(out, "--zones", "high")) == 0
        assert "fit: 10 entities" in capsys.readouterr().out

    def test_no_likelihood_estimate_leaves_the_baseline_out(self, tmp_path, capsys, monkeypatch):
        def no_estimate(w):
            raise NoMleError("'a' beats 'b' along no chain of wins (Ford's condition)")

        monkeypatch.setattr("btrank.cli.mle_newman", no_estimate)
        out = tmp_path / "run"
        assert main(fixture_args(out)) == 0
        assert "warning: skipping likelihood baseline: 'a' beats 'b'" in capsys.readouterr().err
        with open(out / "ranking.csv", newline="", encoding="utf-8") as handle:
            assert {row["mle_rank"] for row in csv.DictReader(handle)} == {""}

    def test_a_baseline_solver_that_fails_fails_the_fit(self, tmp_path, capsys, monkeypatch):
        def diverges(w):
            raise RuntimeError("Newton's method did not converge within 100 steps")

        monkeypatch.setattr("btrank.cli.mle_newman", diverges)
        out = tmp_path / "run"
        assert main(fixture_args(out)) == 2
        assert "error: Newton's method did not converge" in capsys.readouterr().err
        assert not (out / "ranking.csv").exists()


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

    def test_writes_the_fits_loglik_rows(self, tmp_path):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        assert main(["diagnose", str(fit_out / "chain.npz"), "--out", str(diag_out)]) == 0
        for name in ("traces.csv", "acf.csv"):
            fit_rows, diag_rows = (
                [line for line in (out / name).read_text(encoding="utf-8").splitlines()
                 if ",loglik," in line]
                for out in (fit_out, diag_out)
            )
            assert len(fit_rows) > 1
            assert diag_rows == fit_rows, name

    def test_dump_without_loglik_writes_merit_and_variance_rows(self, tmp_path):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        dump = fit_out / "chain.npz"
        rewrite_dump(dump, drop=("loglik_draws.npy",))
        assert main(["diagnose", str(dump), "--out", str(diag_out)]) == 0
        for name in ("traces.csv", "acf.csv"):
            with open(diag_out / name, newline="", encoding="utf-8") as handle:
                parameters = {row["parameter"] for row in csv.DictReader(handle)}
            assert parameters == {f"merit{i}" for i in range(33)} | {"variance"}, name

    def test_accepted_that_disagrees_with_the_flags_maps_to_the_validation_exit_code(
        self, tmp_path, capsys
    ):
        fit_out = tmp_path / "fit"
        assert main(fixture_args(fit_out)) == 0
        dump = fit_out / "chain.npz"
        rewrite_dump(dump, accepted=load_chain(dump).accepted + 1)
        code = main(["diagnose", str(dump), "--out", str(tmp_path / "diag")])
        assert code == 1
        assert f"corrupt or unreadable chain dump {dump}: accepted must equal" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("setting, value", [("iterations", 9000), ("thin", 7)])
    def test_settings_that_contradict_the_arrays_write_nothing(self, tmp_path, capsys, setting, value):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        dump = fit_out / "chain.npz"
        rewrite_dump(dump, config={**dataclasses.asdict(load_chain(dump).config), setting: value})
        code = main(["diagnose", str(dump), "--out", str(diag_out)])
        assert code == 1
        assert f"corrupt or unreadable chain dump {dump}: " in capsys.readouterr().err
        assert not diag_out.exists()

    def test_a_dump_from_before_the_rank_flag_keeps_its_flags(self, tmp_path):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        dump = fit_out / "chain.npz"
        _, metadata = mcmc._read_chain(dump)
        del metadata["prior_rank_deficient"]
        rewrite_dump(dump, extra=metadata)
        assert main(["diagnose", str(dump), "--out", str(diag_out)]) == 0
        flags = json.loads((diag_out / "diagnostics.json").read_text(encoding="utf-8"))["flags"]
        assert set(flags) == {"ess_capped", "jitter_applied"}
        assert flags["jitter_applied"] is False

    def test_reads_the_dump_once(self, tmp_path, monkeypatch):
        fit_out = tmp_path / "fit"
        assert main(fixture_args(fit_out)) == 0
        loads, real_load = [], np.load

        def counted_load(*args, **kwargs):
            loads.append(args[0])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", counted_load)
        assert main(["diagnose", str(fit_out / "chain.npz"), "--out", str(tmp_path / "diag")]) == 0
        assert loads == [fit_out / "chain.npz"]

    def test_unknown_trace_parameter_writes_nothing(self, tmp_path, capsys):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        code = main([
            "diagnose", str(fit_out / "chain.npz"), "--out", str(diag_out),
            "--trace-params", "bogus",
        ])
        assert code == 1
        assert "unknown trace parameter 'bogus'" in capsys.readouterr().err
        assert not diag_out.exists()

    @pytest.mark.parametrize("kept", [ESS_MIN_DRAWS - 1, ESS_MIN_DRAWS + 1])
    def test_too_few_kept_draws_write_nothing(self, tmp_path, capsys, toy_wins, toy_prior, kept):
        dump, diag_out = tmp_path / "chain.npz", tmp_path / "diag"
        save_chain(run_chain(toy_wins, toy_prior, SamplerConfig(0.3, kept + 2, burn_in=2)), dump)
        code = main(["diagnose", str(dump), "--out", str(diag_out)])
        if kept < ESS_MIN_DRAWS:
            assert code == 1
            assert f"need at least 4 kept draws to diagnose, got {kept}" in capsys.readouterr().err
            assert not diag_out.exists()
        else:
            assert code == 0
            assert (diag_out / "diagnostics.json").exists()

    def test_the_threshold_option_is_gone(self, tmp_path, capsys):
        config, out = tmp_path / "old.cfg", tmp_path / "diag"
        config.write_text("threshold = 1e-8\n", encoding="utf-8")
        dump = str(tmp_path / "chain.npz")
        assert main(["diagnose", dump, "--out", str(out), "--threshold", "1e-8"]) == 1
        assert main(["diagnose", dump, "--out", str(out), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threshold 1e-8" in err
        assert f"{config}:1: unknown configuration key 'threshold'" in err
        assert not out.exists()

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

    def test_memory_per_kept_draw_is_bounded(self, tmp_path):
        # Peak traced bytes of the diagnostics outputs at M=33, every parameter
        # traced.  Measured: 4.27 MB at 8,000 kept draws against 1.12 MB at
        # 2,000, or 525 B per extra draw, set by diagnose; the trace column
        # and its CSV rows peak at 304 B.  Building one row tuple per draw and
        # parameter took 34.8 MB against 8.7 MB, or 4,356 B per draw.
        options = {"bandwidth": None, "window": None, "trace_params": "all"}
        rng = np.random.default_rng(21)
        peaks = {}
        for n in (2_000, 8_000):
            draws = rng.standard_normal((n, 33))
            samples = toy_samples(draws - draws.mean(axis=1, keepdims=True))
            out = tmp_path / str(n)
            out.mkdir()
            tracemalloc.start()
            try:
                _write_diagnostics(out, samples, options, {}, "all")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[8_000] - peaks[2_000]) / 6_000 < 1_000

    def test_non_finite_draw_in_a_dump_is_named(self, tmp_path, capsys):
        samples = toy_samples(np.random.default_rng(4).standard_normal((500, 4)))
        samples.merit_draws[123, 2] = np.nan  # in place, past the constructor's check
        dump = tmp_path / "chain.npz"
        save_chain(samples, dump)
        code = main(["diagnose", str(dump), "--out", str(tmp_path / "diag")])
        assert code == 1
        assert f"corrupt or unreadable chain dump {dump}: non-finite merit draws" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("meta", [[], {"config": "beta = 0.05"}, {"extra": []}])
    def test_meta_json_of_another_shape_is_corrupt(self, tmp_path, capsys, meta):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        dump = fit_out / "chain.npz"
        with zipfile.ZipFile(dump) as archive:
            stored = json.loads(archive.read("meta.json"))
        rewrite_dump(dump, drop=("meta.json",))
        with zipfile.ZipFile(dump, "a") as archive:
            archive.writestr("meta.json", json.dumps(meta if isinstance(meta, list) else {**stored, **meta}))
        code = main(["diagnose", str(dump), "--out", str(diag_out)])
        assert code == 1
        assert f"corrupt or unreadable chain dump {dump}: meta.json must be an object" in (
            capsys.readouterr().err
        )
        assert not diag_out.exists()

    @pytest.mark.parametrize("stored", [False, True])
    def test_a_dump_that_stores_the_retired_shape_setting_loads(self, tmp_path, stored):
        # dumps written before the Gibbs shape lost its rank-adjusted variant store the key
        fit_out = tmp_path / "fit"
        assert main(fixture_args(fit_out)) == 0
        dump, old = fit_out / "chain.npz", tmp_path / "old.npz"
        settings = dataclasses.asdict(load_chain(dump).config)
        shutil.copy(dump, old)
        rewrite_dump(old, config={**settings, "rank_adjusted_shape": stored})
        assert load_chain(old).config == load_chain(dump).config
        for chain, out in ((dump, tmp_path / "new_diag"), (old, tmp_path / "old_diag")):
            assert main(["diagnose", str(chain), "--out", str(out)]) == 0
        for name in ("diagnostics.json", "traces.csv", "acf.csv"):
            assert (tmp_path / "old_diag" / name).read_bytes() == (
                tmp_path / "new_diag" / name
            ).read_bytes(), name

    def test_another_unknown_setting_in_a_dump_is_corrupt(self, tmp_path, capsys):
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert main(fixture_args(fit_out)) == 0
        dump = fit_out / "chain.npz"
        settings = dataclasses.asdict(load_chain(dump).config)
        rewrite_dump(dump, config={**settings, "variance_step": "coherent"})
        code = main(["diagnose", str(dump), "--out", str(diag_out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"corrupt or unreadable chain dump {dump}: " in err
        assert "variance_step" in err
        assert not diag_out.exists()

    def test_corrupt_dump_maps_to_the_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a chain dump")
        code = main(["diagnose", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "corrupt or unreadable" in capsys.readouterr().err


class TestTraceStride:
    CAP = 50

    @pytest.mark.parametrize("n, stride", [(CAP - 1, 1), (CAP, 1), (CAP + 1, 2), (3 * CAP + 1, 4)])
    def test_traces_are_strided_and_every_other_output_is_not(self, tmp_path, monkeypatch, n, stride):
        m = 4
        rng = np.random.default_rng(n)
        draws = rng.standard_normal((n, m))
        samples = dataclasses.replace(
            toy_samples(draws - draws.mean(axis=1, keepdims=True)),
            variance_draws=rng.uniform(0.5, 2.0, n),
            loglik_draws=rng.standard_normal(n),
        )
        cov = build_prior(make_income(m), KernelSpec("squared_exponential", 0.5))
        options = {"bandwidth": None, "window": 1, "trace_params": "all"}
        names = [f"merit{i}" for i in range(m)] + ["variance", "quad_form", "loglik"]
        full, capped = tmp_path / "full", tmp_path / "capped"
        for out in (full, capped):
            out.mkdir()
        _write_diagnostics(full, samples, options, {}, names, cov=cov)
        monkeypatch.setattr(diagnostics, "TRACE_EXPORT_CAP", self.CAP)
        _write_diagnostics(capped, samples, options, {}, names, cov=cov)

        with open(full / "traces.csv", newline="", encoding="utf-8") as handle:
            full_rows = list(csv.reader(handle))
        with open(capped / "traces.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        # the draw column keeps the kept-draw number of each exported row
        kept = range(1, n + 1, stride)
        assert len(kept) <= self.CAP
        assert [row[:2] for row in rows[1:]] == [[str(t), p] for p in names for t in kept]
        # every parameter, quad_form and loglik included, is strided alike
        assert rows[1:] == [row for row in full_rows[1:] if (int(row[0]) - 1) % stride == 0]
        for name in ("acf.csv", "diagnostics.json", "kendall.csv"):
            assert (capped / name).read_bytes() == (full / name).read_bytes(), name


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

    def test_a_method_with_no_estimate_prints_nan_without_a_warning(self, tmp_path, capsys):
        # one contest per pair among 3 entities: no replication has a likelihood estimate
        spec = tmp_path / "study.conf"
        spec.write_text("m = 3\nk_comparisons = 1\nreplications = 2\nseed = 1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(spec), "--iterations", "300", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "  mle: median spearman nan over 2 cells\n" in capsys.readouterr().out

    @pytest.mark.parametrize("replications", [3, 4])
    def test_the_printed_medians_are_numpys_over_the_cells_with_an_estimate(
        self, tmp_path, capsys, replications
    ):
        # one contest per pair among 6 entities: some replications have no likelihood estimate
        spec = tmp_path / "study.conf"
        spec.write_text(f"m = 6\nk_comparisons = 1\nreplications = {replications}\nseed = 7\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", str(spec), "--iterations", "300", "--out", str(out)]) == 0
        with open(out / "study.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        printed = capsys.readouterr().out
        for method in ("bayes", "mle"):
            scores = [float(row["spearman"]) for row in rows if row["method"] == method]
            median = np.nanmedian(scores) if not np.isnan(scores).all() else np.nan
            assert f"  {method}: median spearman {median:.3f} over {replications} cells\n" in printed

    def test_a_small_study_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique and np.nanmedian each import numpy.ma, which adds over 1 MB to a study's peak memory
        spec = tmp_path / "study.conf"
        spec.write_text("m = 4\nk_comparisons = 1\nreplications = 3\nseed = 2\n", encoding="utf-8")
        code = (
            "import sys\nfrom btrank.cli import main\n"
            f"main(['simulate', {str(spec)!r}, '--iterations', '300', '--out', {str(tmp_path / 'out')!r}])\n"
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--length-scale", "inf"), "length_scale must be positive and finite"),
            (("--kernel", "rational_quadratic", "--mixture", "inf"), "finite mixture"),
            (("--jitter", "inf"), "jitter must be nonnegative and finite"),
            (("--prior-shape", "inf"), "prior_shape and prior_scale must be positive and finite"),
            (("--prior-scale", "inf"), "prior_shape and prior_scale must be positive and finite"),
            (("--fix-variance", "inf"), "fix_variance must be positive and finite"),
        ],
    )
    def test_non_finite_setting_is_refused_before_sampling(self, tmp_path, capsys, flags, message):
        assert main(fixture_args(tmp_path, *flags)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "chain.npz").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--level", "1.5"), "level must lie strictly between 0 and 1"),
            (("--threshold", "1e-8"), "unrecognized arguments: --threshold 1e-8"),
            (("--thin", "30000"), "need at least 100 kept draws, got 67"),
            (("--window", "0"), "window must be at least 1"),
            (("--bandwidth", "2000001"), "bandwidth must lie in [1, 2000000], got 2000001"),
            (("--trace-params", "merit99"), "unknown trace parameter 'merit99'"),
        ],
    )
    def test_output_setting_is_refused_before_sampling(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def sample(*args):
            raise AssertionError("the chain was run before the settings were checked")

        # the default chain keeps 2,000,000 draws and takes minutes to sample
        monkeypatch.setattr("btrank.cli.run_chain", sample)
        out = tmp_path / "out"
        default_length = ("--iterations", str(RUN_DEFAULTS["iterations"]), "--burn-in", "none")
        assert main(fixture_args(out, *default_length, *flags)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_seed_is_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fixture_args(out, "--seed", "-1")) == 1
        spec = tmp_path / "study.cfg"
        spec.write_text("m = 4\nseed = -1\n", encoding="utf-8")
        assert main(["simulate", str(spec), "--iterations", "300", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: seed must be non-negative, got -1") == 2
        assert not out.exists()

    def test_the_rank_adjusted_shape_option_is_gone(self, tmp_path, capsys):
        config, out = tmp_path / "old.cfg", tmp_path / "out"
        config.write_text("rank_adjusted_shape = false\n", encoding="utf-8")
        assert main(fixture_args(out, "--rank-adjusted-shape", "true")) == 1
        assert main(fixture_args(out, "--config", str(config))) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --rank-adjusted-shape true" in err
        assert f"{config}:1: unknown configuration key 'rank_adjusted_shape'" in err
        assert not out.exists()

    @pytest.mark.parametrize("table, message, cell", [
        ("indicators", "indicator '{indicator}' for '{entity}' must be finite, got 'nan'", "nan"),
        ("income", "income for '{entity}' must be a finite positive number, got 'inf'", "inf"),
        ("indicators", "indicator '{indicator}' for '{entity}' has misplaced digit-group commas, "
                       "got '0,5'", '"0,5"'),
    ])
    def test_a_non_finite_input_value_names_its_place(self, tmp_path, capsys, table, message, cell):
        # the first entity's first indicator, or its income, replaced in a copy of the data; a
        # misplaced comma is refused the same way, not read as the digits without it
        lines = (DATA_DIR / f"{table}.csv").read_text(encoding="utf-8").splitlines()
        indicator = lines[0].split(",")[1]
        entity, *cells = lines[1].split(",")
        cells[0] = cell
        lines[1] = ",".join([entity, *cells])
        bad = tmp_path / f"{table}.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inputs = {name: str(DATA_DIR / f"{name}.csv") for name in ("indicators", "polarity", "income")}
        inputs[table] = str(bad)
        argv = ["mle", *(arg for name, path in inputs.items() for arg in (f"--{name}", path))]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        expected = f"error: {bad}: " + message.format(indicator=indicator, entity=entity)
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_fit_makes_its_output_directory_before_sampling(self, tmp_path, capsys, monkeypatch):
        def sample(*args):
            raise AssertionError("the chain was run before the output directory was made")

        monkeypatch.setattr("btrank.cli.run_chain", sample)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory", encoding="utf-8")
        default_length = ("--iterations", str(RUN_DEFAULTS["iterations"]), "--burn-in", "none")
        assert main(fixture_args(out, *default_length)) == 3
        assert str(out) in capsys.readouterr().err

    def test_simulate_makes_its_output_directory_before_the_study(
        self, tmp_path, capsys, monkeypatch
    ):
        def study(*args):
            raise AssertionError("the study was run before the output directory was made")

        monkeypatch.setattr("btrank.cli.run_recovery_study", study)
        spec = tmp_path / "study.conf"
        spec.write_text("", encoding="utf-8")
        out = tmp_path / "taken"
        out.write_text("a file, not a directory", encoding="utf-8")
        assert main(["simulate", str(spec), "--out", str(out)]) == 3
        assert str(out) in capsys.readouterr().err

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

    def test_duplicate_config_key_reports_its_line(self, tmp_path, capsys):
        config = tmp_path / "fit.conf"
        config.write_text("beta = 0.1\nseed = 2\n\nbeta = 0.2\n", encoding="utf-8")
        code = main(["fit", "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{config}:4: duplicate configuration key 'beta'" in err

    def test_duplicate_spec_key_reports_its_line(self, tmp_path, capsys):
        spec = tmp_path / "study.conf"
        spec.write_text("m = 4\n# design\nreplications = 2\nm = 5\n", encoding="utf-8")
        code = main(["simulate", str(spec), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{spec}:4: duplicate configuration key 'm'" in err

    def test_usage_errors_share_the_validation_exit_code(self, capsys):
        assert main(["fit", "--no-such-flag"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()


# The command-line surface, written out: each subcommand's flags, and the
# keys and defaults of the fit/mle/diagnose config file and the simulate spec.
LOAD_FLAGS = {
    "--config", "--indicators", "--polarity", "--income", "--out", "--missing-policy",
    "--drop-entities", "--tie-policy", "--zones", "--low-income-max", "--middle-income-max",
}
FLAGS = {
    "fit": LOAD_FLAGS | {
        "--kernel", "--length-scale", "--mixture", "--jitter", "--beta", "--iterations",
        "--burn-in", "--thin", "--prior-shape", "--prior-scale", "--seed", "--fix-variance",
        "--bandwidth", "--window", "--level", "--trace-params", "--export-win-matrix",
    },
    "mle": LOAD_FLAGS,
    "diagnose": {"--config", "--out", "--bandwidth", "--window", "--trace-params"},
    "simulate": {"--seed", "--iterations", "--beta", "--out"},
}
RUN_DEFAULTS = {
    "indicators": None,
    "polarity": None,
    "income": None,
    "out": "btrank_out",
    "missing_policy": "drop_indicators",
    "drop_entities": (),
    "tie_policy": "split",
    "zones": (),
    "low_income_max": 100_000.0,
    "middle_income_max": 200_000.0,
    "kernel": "squared_exponential",
    "length_scale": 0.09,
    "mixture": 1.0,
    "jitter": 1e-10,
    "beta": 0.009,
    "iterations": 3_000_000,
    "burn_in": None,
    "thin": 1,
    "prior_shape": 2.0,
    "prior_scale": 1.0,
    "seed": 0,
    "fix_variance": None,
    "bandwidth": None,
    "window": None,
    "level": 0.95,
    "trace_params": "all",
    "export_win_matrix": False,
}
SIM_DEFAULTS = {
    "m": 10,
    "k_comparisons": 100,
    "kernel": "squared_exponential",
    "length_scales": (0.5,),
    "mixture": 1.0,
    "prior_variance": 1.0,
    "replications": 20,
    "seed": 0,
    "beta": 0.2,
    "iterations": 100_000,
    "burn_in": None,
    "thin": 1,
    "prior_shape": 2.0,
    "prior_scale": 1.0,
    "out": "btrank_out",
}
FAMILIES = [
    (["fit"], "run", RUN_DEFAULTS),
    (["mle"], "run", RUN_DEFAULTS),
    (["diagnose", "chain.npz"], "run", RUN_DEFAULTS),
    (["simulate", "study.cfg"], "sim", SIM_DEFAULTS),
]


def config_text(options) -> str:
    def raw(value):
        if isinstance(value, tuple):
            return ", ".join(str(item) for item in value)
        return "none" if value is None else str(value)

    return "".join(f"{key} = {raw(value)}\n" for key, value in options.items())


class TestSurface:
    def test_each_subcommand_takes_exactly_its_flags(self):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        found = {
            name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert found == FLAGS

    @pytest.mark.parametrize("argv, family, defaults", FAMILIES)
    def test_no_file_and_no_flags_give_the_family_defaults(self, argv, family, defaults):
        assert _merged_options(build_parser().parse_args(argv), family, None) == defaults

    @pytest.mark.parametrize("argv, family, defaults", FAMILIES)
    def test_a_file_takes_exactly_the_family_keys(self, tmp_path, argv, family, defaults):
        args = build_parser().parse_args(argv)
        every = tmp_path / "every.cfg"
        every.write_text(config_text(defaults), encoding="utf-8")
        assert set(_merged_options(args, family, every)) == set(defaults)
        for key in (set(RUN_DEFAULTS) | set(SIM_DEFAULTS)) - set(defaults):
            foreign = tmp_path / f"{key}.cfg"
            foreign.write_text(f"{key} = 1\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"unknown configuration key '{key}'"):
                _merged_options(args, family, foreign)


class TestLibraryDefaults:
    def test_the_option_table_repeats_the_library_defaults(self):
        sampler = {field.name: field.default for field in dataclasses.fields(SamplerConfig)}
        study = {field.name: field.default for field in dataclasses.fields(SimStudySpec)}

        def default(func, name):
            return inspect.signature(func).parameters[name].default

        sampled = ("burn_in", "thin", "prior_shape", "prior_scale", "seed")
        library = {
            "run": {
                **{key: sampler[key] for key in (*sampled, "fix_variance")},
                "bandwidth": default(diagnose, "bandwidth"),
                "window": default(diagnose, "window"),
                "level": default(summarize, "level"),
                "jitter": default(build_prior, "jitter"),
                "tie_policy": default(build_win_matrix, "tie_policy"),
                "trace_params": default(trace_export, "params"),
            },
            "sim": {
                **{key: sampler[key] for key in sampled},
                **{key: study[key] for key in ("m", "k_comparisons", "prior_variance", "replications")},
                "length_scales": (SimStudySpec().kernel.length_scale,),
            },
        }
        table = {opt.key: opt for opt in OPTIONS}
        for family, defaults in library.items():
            for key, value in defaults.items():
                assert getattr(table[key], family) == value, (family, key)
        # the sim family's seed seeds both the study and its chains
        assert table["seed"].sim == study["seed"]
        assert default(constrain, "jitter") == table["jitter"].run


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "btrank", "--help"],
            capture_output=True, text=True, timeout=60, env=SRC_ENV,
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
            capture_output=True, text=True, timeout=60, env=SRC_ENV,
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
