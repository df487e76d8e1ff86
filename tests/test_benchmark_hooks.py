"""The benchmark's tracer finds every function it times.

``benchmarks/tracer.py`` wraps module attributes that the CLI, the study loop
and ``diagnose`` look up at call time, and reads results through names such
as ``mcmc.run_chain``.  A refactor that moved or renamed one of them would
not fail the benchmark: the metric built on it would quietly read 0.  These
tests read the tracer as it is and check its contract against the package.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from btrank import IncomeTable, KernelSpec, build_prior, diagnostics, trace_export

from .conftest import make_income, toy_samples

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # executed from its source, so no bytecode cache is written next to it
    module = types.ModuleType("btrank_bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def hooked(tracer):
    for module_name, attrs in tracer.HOOKS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            yield module_name, attr, getattr(module, attr, None)


def test_every_hooked_attribute_exists(tracer):
    missing = [f"{name}.{attr}" for name, attr, func in hooked(tracer) if func is None]
    assert missing == []


def test_every_hook_the_tracer_source_lists_exists_after_importing_the_cli():
    # read from the source without running it: the tracer's own imports and
    # set-up play no part in whether the package still has these names
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    hooks = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "HOOKS"
    )
    importlib.import_module("btrank.cli")
    missing = [
        f"{name}.{attr}" for name, attrs in hooks.items() for attr in attrs
        if not hasattr(importlib.import_module(name), attr)
    ]
    assert "btrank.cli" in hooks
    assert missing == []


@pytest.mark.parametrize("module_name", ["btrank.cli", "btrank.sim"])
def test_chains_run_through_the_sampler_entry_point(module_name):
    func = importlib.import_module(module_name).run_chain
    assert (func.__module__, func.__name__) == ("btrank.mcmc", "run_chain")


def test_every_observed_result_has_a_hook(tracer):
    # the tracer names a span after the wrapped function's own module and name
    names = {
        f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        for _, _, func in hooked(tracer)
        if func is not None
    }
    assert set(tracer.OBSERVE) <= names


def test_trace_rows_count_every_kept_draw_of_every_parameter(tracer):
    # the tracer reads diagnostics.trace_rows through this observer; a return
    # value it misreads would report a wrong row count without failing
    n, m = 50, 4
    draws = np.random.default_rng(3).standard_normal((n, m))
    samples = toy_samples(draws - draws.mean(axis=1, keepdims=True))
    observe = tracer.OBSERVE["diagnostics.trace_export"]
    assert observe(trace_export(samples)) == n * (m + 1)
    assert observe(trace_export(samples, params=["merit0", "variance"])) == n * 2


@pytest.mark.parametrize("incomes, width", [(make_income(m=7).income, 6), ([5e4, 5e4, 2e5], 1)])
def test_the_prior_rank_is_the_width_of_the_prior_factor(tracer, incomes, width):
    # the tracer reads prior.rank through this observer; a misread would
    # report a wrong rank without failing.  Equal incomes cost a dimension.
    m = len(incomes)
    income = IncomeTable(entities=tuple(f"e{i}" for i in range(m)), income=np.asarray(incomes),
                         zone=("low",) * m)
    cov = build_prior(income, KernelSpec("squared_exponential", 0.5))
    assert cov.factor.shape[1] == width
    assert tracer.OBSERVE["prior.build_prior"](cov) == width


def test_the_harness_reads_of_a_chain_still_work(tracer, tmp_path):
    # benchmarks/test_bench.py rewrites a dump's flags through dataclasses.replace,
    # and the tracer sums each chain's accepted and proposed counts
    draws = np.random.default_rng(4).standard_normal((120, 3))
    samples = toy_samples(draws - draws.mean(axis=1, keepdims=True))
    flags = np.zeros(samples.proposed, dtype=bool)
    flags[: samples.proposed // 20] = True
    rewritten = dataclasses.replace(samples, accept_flags=flags, accepted=int(flags.sum()))
    assert rewritten.proposed == len(flags) == 120
    run = tracer.Tracer()
    run.observed["mcmc.run_chain"] = [rewritten]
    counts = tracer._counts(run, tmp_path)
    assert (counts["accepted"], counts["proposed"]) == (6, 120)


def test_diagnose_reaches_the_hooked_longrun_once(tracer, monkeypatch):
    # diagnostics.longrun_s times btrank.diagnostics.spectral_longrun as the
    # tracer wraps it; a diagnose that stopped looking it up there would read 0
    assert "spectral_longrun" in tracer.HOOKS["btrank.diagnostics"]
    draws = np.random.default_rng(5).standard_normal((200, 4))
    samples = toy_samples(draws - draws.mean(axis=1, keepdims=True))
    calls, real = [], diagnostics.spectral_longrun

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "spectral_longrun", counted)
    assert diagnostics.diagnose(samples).ess > 0
    assert len(calls) == 1
