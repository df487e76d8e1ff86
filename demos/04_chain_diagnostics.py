"""
Reading chain diagnostics
=========================

Correlated MCMC draws carry less information than independent ones. The
multivariate effective sample size (ESS) quantifies the discount through
the ratio of the draws' covariance to their long-run covariance, handling
the sum-to-zero constraint by working on the non-degenerate subspace.
"""

import numpy as np

from btrank import (
    IncomeTable,
    IndicatorTable,
    KernelSpec,
    SamplerConfig,
    WinMatrix,
    build_prior,
    build_win_matrix,
    diagnose,
    multivariate_ess,
    rank_stability_series,
    run_chain,
    trace_export,
    univariate_ess,
)

# baseline intuition: independent draws have ESS equal to the draw count,
# while a sticky chain loses most of its nominal sample size
rng = np.random.default_rng(1)
iid = rng.standard_normal((20_000, 4))
print("iid ESS:", round(multivariate_ess(iid)[0]), "of 20000, rank", multivariate_ess(iid)[1])

sticky = np.zeros((20_000, 4))
for t in range(1, 20_000):
    sticky[t] = 0.95 * sticky[t - 1] + rng.standard_normal(4)
ess, rank_est = multivariate_ess(sticky)
print("AR(0.95) ESS:", round(ess), "of 20000, rank", rank_est)

# the same discount shows up per coordinate
print("per-coordinate ESS of the sticky chain:", [round(univariate_ess(sticky[:, j])) for j in range(4)])

# now a real posterior chain on a small synthetic contest
entities = ("a", "b", "c", "d", "e")
values = np.array(
    [
        [9.1, 3.2, 5.5, 7.7, 1.2, 6.3, 8.8, 2.4],
        [7.4, 2.8, 5.1, 6.9, 1.7, 5.8, 7.9, 2.2],
        [5.0, 2.0, 4.5, 5.5, 2.0, 5.0, 6.0, 2.0],
        [3.3, 1.4, 3.8, 4.1, 2.6, 4.0, 4.4, 1.8],
        [1.9, 1.1, 3.1, 3.0, 3.1, 3.2, 2.5, 1.6],
    ]
)
table = IndicatorTable(
    entities=entities,
    indicators=tuple(f"ind{k}" for k in range(8)),
    values=values,
    polarity=np.array([1, 1, 1, 1, -1, 1, 1, 1]),
)
w = build_win_matrix(table)
income = IncomeTable(
    entities=entities,
    income=np.array([250e3, 180e3, 120e3, 80e3, 55e3]),
    zone=("high", "middle", "middle", "low", "low"),
)
cov = build_prior(income, KernelSpec("squared_exponential", 0.5))
samples = run_chain(w, cov, SamplerConfig(beta=0.15, iterations=60_000, seed=7))

# diagnose bundles acceptance, ESS, per-parameter ESS, and rank stability
report = diagnose(samples)
print(
    f"\nchain: acceptance {report.acceptance_rate:.3f}, ess {report.ess:.0f} "
    f"(rank {report.rank_est}), bandwidth {report.bandwidth}"
)
print("flags:", report.flags)

# rank stability: Kendall distance of the running-mean ranking from the
# final one; it should fall to zero well before the chain ends
series = rank_stability_series(samples, window=4000)
print("rank stability (kept draws, distance):", series)

# autocorrelation tables are exportable for plotting elsewhere
_, acf, _ = trace_export(samples, params="merit0", bandwidth=8)
print("\nlag autocorrelation of merit0:")
for lag, value in enumerate(acf):
    print(f"  lag {lag:>2}: {value:+.3f}")

# an uninformative chain accepts every proposal and mixes instantly
flat = WinMatrix(entities=entities, wins=np.zeros((5, 5)))
flat_samples = run_chain(flat, cov, SamplerConfig(beta=0.5, iterations=30_000, seed=8, fix_variance=1.0))
flat_report = diagnose(flat_samples)
print(
    f"\nflat-likelihood chain: acceptance {flat_report.acceptance_rate:.0%}, "
    f"ess {flat_report.ess:.0f} of {flat_samples.n_kept} kept draws"
)
