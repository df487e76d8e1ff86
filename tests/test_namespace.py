"""The package namespace: one public API, resolved from its submodules on first use.

``btrank`` imports none of its submodules until a name is asked for, so
loading the indicator tables does not run the sampler's module.  These
tests pin the public names and check that each one is its defining
module's own object.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import btrank

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "ChainSamples", "ConstrainedCovariance", "DiagnosticsReport", "IncomeTable", "IndicatorTable",
    "KernelSpec", "RankingReport", "SamplerConfig", "SimStudySpec", "WinMatrix",
    "acceptance_rate", "align_entities", "apply_missing_policy", "build_prior", "build_win_matrix",
    "constrain", "diagnose", "export_report", "export_win_matrix", "gibbs_variance",
    "income_for_entities", "kendall_tau_distance", "kernel_matrix", "load_chain", "load_dataset",
    "load_income", "load_indicators", "log_income_distance", "log_likelihood", "mle_newman",
    "multivariate_ess", "posterior_mean", "rank_entities", "rank_stability_series", "run_chain",
    "run_recovery_study", "sample_constrained", "sample_covariance", "save_chain",
    "simulate_win_matrix", "spectral_longrun", "subset_by_zone", "summarize", "total_comparisons",
    "trace_export", "univariate_ess", "win_probability",
}

HEAVY = ["btrank.bt", "btrank.cli", "btrank.diagnostics", "btrank.mcmc", "btrank.report",
         "btrank.sim", "numpy.random"]


def loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("statement", [
    "import btrank.data, btrank.prior, btrank.wins",
    "from btrank import load_dataset",
])
def test_loading_the_inputs_leaves_the_sampler_unloaded(statement):
    loaded = loaded_after(statement)
    assert "btrank.data" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_all_holds_the_public_names_in_order():
    assert len(PUBLIC) == 47
    assert btrank.__all__ == sorted(PUBLIC)


def test_each_name_is_its_defining_modules_object():
    homes = {name: getattr(btrank, name).__module__ for name in PUBLIC}
    assert all(home.startswith("btrank.") for home in homes.values())
    assert [name for name, home in homes.items()
            if getattr(importlib.import_module(home), name) is not getattr(btrank, name)] == []


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(btrank))
    assert PUBLIC <= listed
    assert {"bt", "mcmc", "wins", "__version__"} <= listed


def test_submodules_are_attributes():
    assert btrank.mcmc.run_chain is btrank.run_chain


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'run_chains'"):
        btrank.run_chains
    assert not hasattr(btrank, "_log_likelihood")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from btrank import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert namespace["run_chain"] is btrank.mcmc.run_chain
