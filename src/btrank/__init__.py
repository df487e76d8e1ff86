"""Bayesian Bradley-Terry ranking from indicator tables.

Builds pairwise win counts from polarity-adjusted indicators, places a
kernel covariance over log-income distances on the merit vector (constrained
to sum to zero), samples the posterior with a preconditioned Crank-Nicolson
chain whose prior variance is Gibbs-refreshed, and summarizes rankings with
effective-sample-size and rank-stability diagnostics.  A classical maximum
likelihood fit is included as a baseline.

Each public name, and each library submodule, is imported on first use
(PEP 562), so ``import btrank.data`` runs the data loader and what it
imports, not the sampler.
"""

import importlib

__version__ = "0.1.0"

# each library submodule and the public names it defines
_API = {
    "bt": ("log_likelihood", "mle_newman", "win_probability"),
    "data": (
        "IncomeTable", "IndicatorTable", "align_entities", "apply_missing_policy",
        "income_for_entities", "load_dataset", "load_income", "load_indicators", "subset_by_zone",
    ),
    "diagnostics": (
        "DiagnosticsReport", "acceptance_rate", "diagnose", "kendall_tau_distance",
        "multivariate_ess", "rank_entities", "rank_stability_series", "sample_covariance",
        "spectral_longrun", "trace_export", "univariate_ess",
    ),
    "mcmc": (
        "ChainSamples", "SamplerConfig", "gibbs_variance", "load_chain", "posterior_mean",
        "run_chain", "save_chain",
    ),
    "prior": (
        "ConstrainedCovariance", "KernelSpec", "build_prior", "constrain", "kernel_matrix",
        "log_income_distance", "sample_constrained",
    ),
    "report": ("RankingReport", "export_report", "summarize"),
    "sim": ("SimStudySpec", "run_recovery_study", "simulate_win_matrix"),
    "wins": ("WinMatrix", "build_win_matrix", "export_win_matrix", "total_comparisons"),
}
_HOME = {name: module for module, names in _API.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _API:
        # importing a submodule binds it here, so this runs once per submodule
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_API, *__all__})
