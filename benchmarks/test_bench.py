"""Tests of the benchmark: tiny runs of every workload, and the output checks.

    python -m pytest benchmarks

Run from the repository root.  The workloads run at a few thousand
iterations; the whole file takes under two minutes on two cores.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import checks
import tracer

from btrank.cli import main as btrank_main
from btrank.mcmc import load_chain, save_chain

TINY = {
    "fit_thinned": dataclasses.replace(bench.WORKLOADS["fit_thinned"], iterations=20_000, thin=10),
    "fit_full_trace": dataclasses.replace(bench.WORKLOADS["fit_full_trace"], iterations=20_000),
    "recovery_study": dataclasses.replace(bench.WORKLOADS["recovery_study"], iterations=1_000),
}
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declaration_matches_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert DECLARED["paths"] == [bench.BENCH_DIR.name]
    layers = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert layers == {name: row[:2] for name, row in tracer.LAYER_MAP.items()}


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_is_correct_and_reports_every_metric(name):
    record, result = bench.measure(name, seed=3, seconds=0, trace=True, workload=TINY[name])
    assert result["correct"], [run["problems"] for run in record["runs"]]
    kinds = collections.Counter(run["kind"] for run in record["runs"])
    assert kinds == {"run": bench.MIN_RUNS, "setup": bench.MIN_RUNS, "traced": 1,
                     "reference": 2 * bench.MIN_RUNS}
    assert result["attempted"] == len(record["runs"])
    assert set(record["summary"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(row["median"] > 0 for row in record["summary"].values())

    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert set(metrics) == set(tracer.LAYER_MAP)
    assert metrics["mcmc.us_per_iter"] > 0 and metrics["bt.loglik_us"] > 0
    assert 0 < metrics["mcmc.accept_ratio"] < 1
    assert metrics["diagnostics.ess"] > 0
    fit = name != "recovery_study"
    assert (metrics["diagnostics.diagnose_s"] > 0) == fit
    assert (metrics["diagnostics.longrun_s"] > 0) == fit
    assert (metrics["mcmc.chain_bytes"] > 0) == fit
    assert (metrics["wins.comparisons"] == 61_248) == fit
    assert (metrics["sim.study_s"] > 0) == (not fit)


def test_runs_whose_outputs_differ_are_failures(monkeypatch):
    seeds = itertools.count(3)
    cli_args = bench.cli_args
    monkeypatch.setattr(bench, "cli_args", lambda w, _seed, out, work: cli_args(w, next(seeds), out, work))
    record, result = bench.measure("fit_thinned", 3, 0, False, workload=TINY["fit_thinned"])
    assert not result["correct"]
    assert result["failed"] == bench.MIN_RUNS - 1
    differ = [run for run in record["runs"] if run["problems"]]
    assert all("outputs differ" in run["problems"][0] for run in differ)


def test_harness_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{bench.BENCH_DIR.name}/bench.py", "--workload", "fit_thinned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_the_covered_part_of_the_interval():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 4.0, 0],
        ["c", 9.0, 12.0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def fit_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    args = bench.cli_args(TINY["fit_thinned"], 3, out, out)
    assert btrank_main(args) == 0
    return out


@pytest.fixture(scope="module")
def study_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    assert btrank_main(bench.cli_args(TINY["recovery_study"], 3, out, out)) == 0
    return out


@pytest.fixture
def fit_copy(fit_out, tmp_path):
    copy = tmp_path / "fit"
    shutil.copytree(fit_out, copy)
    return copy


def _rewrite_chain(out, **changes):
    samples = load_chain(out / "chain.npz")
    save_chain(dataclasses.replace(samples, **changes), out / "chain.npz")


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fields)
        writer.writeheader()
        writer.writerows(rows)


def test_fit_check_accepts_a_real_fit(fit_out):
    assert checks.check_fit(fit_out) == []
    assert checks.read_ess(fit_out) > 0


def test_fit_check_rejects_draws_that_do_not_sum_to_zero(fit_copy):
    draws = load_chain(fit_copy / "chain.npz").merit_draws.copy()
    draws[:, 0] += 1e-9
    _rewrite_chain(fit_copy, merit_draws=draws)
    assert any("sum to" in p for p in checks.check_fit(fit_copy))


def test_fit_check_rejects_acceptance_outside_the_band(fit_copy):
    samples = load_chain(fit_copy / "chain.npz")
    flags = np.zeros(samples.proposed, dtype=bool)
    flags[: samples.proposed // 20] = True
    _rewrite_chain(fit_copy, accept_flags=flags, accepted=int(flags.sum()))
    assert any("acceptance" in p for p in checks.check_fit(fit_copy))


def test_fit_check_rejects_a_truncated_dump(fit_copy):
    dump = fit_copy / "chain.npz"
    dump.write_bytes(dump.read_bytes()[: dump.stat().st_size // 2])
    assert any("load_chain failed" in p for p in checks.check_fit(fit_copy))


def test_fit_check_rejects_ranks_that_are_not_a_permutation(fit_copy):
    def duplicate(rows):
        rows[1]["rank"] = rows[0]["rank"]
        return rows

    _rewrite_csv(fit_copy / "ranking.csv", duplicate)
    assert any("not a permutation" in p for p in checks.check_fit(fit_copy))


def test_fit_check_rejects_a_top_three_that_disagrees_with_the_baseline(fit_copy):
    def swap_best_and_worst(rows):
        best = min(rows, key=lambda row: int(row["rank"]))
        worst = max(rows, key=lambda row: int(row["rank"]))
        best["rank"], worst["rank"] = worst["rank"], best["rank"]
        return rows

    _rewrite_csv(fit_copy / "ranking.csv", swap_best_and_worst)
    assert any("top-3" in p for p in checks.check_fit(fit_copy))


def test_study_check_accepts_a_real_study(study_out):
    assert checks.check_study(study_out, bench.REPLICATIONS) == []


def test_study_check_rejects_a_truncated_study(study_out, tmp_path):
    shutil.copytree(study_out, tmp_path / "study")
    _rewrite_csv(tmp_path / "study" / "study.csv", lambda rows: rows[:-3])
    assert any("rows" in p for p in checks.check_study(tmp_path / "study", bench.REPLICATIONS))


def test_study_check_rejects_poor_recovery(study_out, tmp_path):
    def scramble(rows):
        for row in rows:
            row["spearman"] = "0.5"
        return rows

    shutil.copytree(study_out, tmp_path / "study")
    _rewrite_csv(tmp_path / "study" / "study.csv", scramble)
    assert any("Spearman" in p for p in checks.check_study(tmp_path / "study", bench.REPLICATIONS))
