"""Bayesian Bradley-Terry ranking from indicator tables.

Builds pairwise win counts from polarity-adjusted indicators, places a
kernel covariance over log-income distances on the merit vector (constrained
to sum to zero), samples the posterior with a preconditioned Crank-Nicolson
chain whose prior variance is Gibbs-refreshed, and summarizes rankings with
effective-sample-size and rank-stability diagnostics.  A classical maximum
likelihood fit is included as a baseline.
"""

from .bt import log_likelihood, mle_newman, win_probability
from .data import (
    IncomeTable,
    IndicatorTable,
    align_entities,
    apply_missing_policy,
    income_for_entities,
    load_dataset,
    load_income,
    load_indicators,
    subset_by_zone,
)
from .diagnostics import (
    DiagnosticsReport,
    acceptance_rate,
    autocovariance,
    diagnose,
    kendall_tau_distance,
    multivariate_ess,
    rank_entities,
    rank_stability_series,
    sample_covariance,
    spectral_longrun,
    trace_export,
    univariate_ess,
)
from .mcmc import (
    ChainSamples,
    SamplerConfig,
    gibbs_variance,
    load_chain,
    posterior_mean,
    run_chain,
    save_chain,
)
from .prior import (
    ConstrainedCovariance,
    KernelSpec,
    build_prior,
    constrain,
    kernel_matrix,
    log_income_distance,
    sample_constrained,
)
from .report import RankingReport, compare_rankings, export_report, summarize
from .sim import SimStudySpec, run_recovery_study, simulate_win_matrix
from .wins import WinMatrix, build_win_matrix, export_win_matrix, total_comparisons

__version__ = "0.1.0"

__all__ = [
    "ChainSamples",
    "ConstrainedCovariance",
    "DiagnosticsReport",
    "IncomeTable",
    "IndicatorTable",
    "KernelSpec",
    "RankingReport",
    "SamplerConfig",
    "SimStudySpec",
    "WinMatrix",
    "acceptance_rate",
    "align_entities",
    "apply_missing_policy",
    "autocovariance",
    "build_prior",
    "build_win_matrix",
    "compare_rankings",
    "constrain",
    "diagnose",
    "export_report",
    "export_win_matrix",
    "gibbs_variance",
    "income_for_entities",
    "kendall_tau_distance",
    "kernel_matrix",
    "load_chain",
    "load_dataset",
    "load_income",
    "load_indicators",
    "log_income_distance",
    "log_likelihood",
    "mle_newman",
    "multivariate_ess",
    "posterior_mean",
    "rank_entities",
    "rank_stability_series",
    "run_chain",
    "run_recovery_study",
    "sample_constrained",
    "sample_covariance",
    "save_chain",
    "simulate_win_matrix",
    "spectral_longrun",
    "subset_by_zone",
    "summarize",
    "total_comparisons",
    "trace_export",
    "univariate_ess",
    "win_probability",
]
