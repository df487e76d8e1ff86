"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Criterion 8's full profile (3 million iterations, about two and a half
minutes: 148 s on a 2-core x86-64 machine with Python 3.11 and numpy 2.4)
only runs when the environment variable BTRANK_FULL_RUN=1 is set; the
default is a hundred-thousand-iteration smoke profile of the same pipeline.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.signal import lfilter

from btrank import (
    IncomeTable,
    KernelSpec,
    SamplerConfig,
    SimStudySpec,
    WinMatrix,
    apply_missing_policy,
    build_prior,
    build_win_matrix,
    constrain,
    gibbs_variance,
    kendall_tau_distance,
    kernel_matrix,
    load_dataset,
    mle_newman,
    multivariate_ess,
    posterior_mean,
    run_chain,
    run_recovery_study,
    sample_constrained,
    spectral_longrun,
    summarize,
)

from .conftest import DATA_DIR


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def empty_wins(m: int) -> WinMatrix:
    return WinMatrix(
        entities=tuple(f"e{i}" for i in range(m)),
        wins=np.zeros((m, m)),
    )


def test_criterion_1_closed_form_mle():
    """A 3-1 head-to-head record has the closed-form merit gap ln 3."""
    start = time.perf_counter()
    w = WinMatrix(
        entities=("strong", "weak"),
        wins=np.array([[0.0, 3.0], [1.0, 0.0]]),
    )
    merits = mle_newman(w, max_iter=100)  # must converge within 100 sweeps
    gap = merits[0] - merits[1]
    err = abs(gap - np.log(3.0))
    elapsed = time.perf_counter() - start
    report(1, err < 1e-8, f"merit gap {gap:.12f} vs ln 3, error {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_pcn_preserves_the_prior():
    """With no data and fixed variance, pCN must leave the prior invariant."""
    start = time.perf_counter()
    income = IncomeTable(
        entities=tuple(f"e{i}" for i in range(5)),
        income=np.array([45e3, 70e3, 110e3, 160e3, 260e3]),
        zone=("low", "low", "middle", "middle", "high"),
    )
    cov = build_prior(income, KernelSpec("squared_exponential", 0.5))
    config = SamplerConfig(
        beta=0.3, iterations=250_000, burn_in=50_000, fix_variance=1.0, seed=123
    )
    samples = run_chain(empty_wins(5), cov, config)
    assert samples.n_kept == 200_000
    rel_err = np.linalg.norm(np.cov(samples.merit_draws.T) - cov.projected)
    rel_err /= np.linalg.norm(cov.projected)
    max_sum = float(np.abs(samples.merit_draws.sum(axis=1)).max())
    elapsed = time.perf_counter() - start
    report(
        2,
        rel_err < 0.10 and max_sum <= 1e-8,
        f"covariance Frobenius error {rel_err:.4f} (< 0.10), "
        f"max |sum| {max_sum:.1e} (<= 1e-8), {elapsed:.0f}s",
    )


def test_criterion_3_posterior_matches_dense_grid():
    """Sampled posterior equals a brute-force grid evaluation in total variation."""
    start = time.perf_counter()
    m = 3
    wins = np.zeros((m, m))
    wins[0, 1], wins[1, 0] = 14, 6
    wins[0, 2], wins[2, 0] = 16, 4
    wins[1, 2], wins[2, 1] = 12, 8
    w = WinMatrix(("a", "b", "c"), wins)
    income = IncomeTable(
        ("a", "b", "c"), np.array([60e3, 90e3, 180e3]), ("low", "low", "middle")
    )
    cov = build_prior(income, KernelSpec("squared_exponential", 0.6))

    basis = null_space(np.ones((1, m)))  # orthonormal coordinates on the constraint
    prior_2d = basis.T @ cov.projected @ basis
    prior_inv = np.linalg.inv(prior_2d)

    def log_posterior(points):
        merits = points @ basis.T
        diff = merits[..., None, :] - merits[..., :, None]
        loglik = -np.sum(wins * np.logaddexp(0.0, diff), axis=(-2, -1))
        logprior = -0.5 * np.einsum("...i,ij,...j->...", points, prior_inv, points)
        return loglik + logprior

    def grid_pmf(lo, hi, n):
        xs = (np.arange(n) + 0.5) / n * (hi[0] - lo[0]) + lo[0]
        ys = (np.arange(n) + 0.5) / n * (hi[1] - lo[1]) + lo[1]
        grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
        logp = log_posterior(np.stack([grid_x, grid_y], axis=-1))
        pmf = np.exp(logp - logp.max())
        return pmf / pmf.sum(), grid_x, grid_y

    # coarse pass finds the mass, the fine 50x50 grid covers mean +- 5 sd
    coarse, grid_x, grid_y = grid_pmf(np.array([-3.0, -3.0]), np.array([3.0, 3.0]), 200)
    mean_x, mean_y = (coarse * grid_x).sum(), (coarse * grid_y).sum()
    sd_x = np.sqrt((coarse * (grid_x - mean_x) ** 2).sum())
    sd_y = np.sqrt((coarse * (grid_y - mean_y) ** 2).sum())
    lo = np.array([mean_x - 5 * sd_x, mean_y - 5 * sd_y])
    hi = np.array([mean_x + 5 * sd_x, mean_y + 5 * sd_y])
    pmf, _, _ = grid_pmf(lo, hi, 50)

    config = SamplerConfig(
        beta=0.25, iterations=1_100_000, burn_in=100_000, fix_variance=1.0, seed=31
    )
    samples = run_chain(w, cov, config)
    coords = samples.merit_draws @ basis
    hist, _, _ = np.histogram2d(
        coords[:, 0], coords[:, 1], bins=50, range=[[lo[0], hi[0]], [lo[1], hi[1]]]
    )
    n_draws = len(coords)
    outside = (n_draws - hist.sum()) / n_draws
    tv = 0.5 * (np.abs(hist / n_draws - pmf).sum() + outside)
    elapsed = time.perf_counter() - start
    report(3, tv < 0.02, f"total variation {tv:.4f} (< 0.02) on 1e6 draws, {elapsed:.0f}s")


def test_criterion_4_gibbs_conditional_moments():
    """Variance draws match the inverse-gamma conditional's analytic moments."""
    start = time.perf_counter()
    m = 33
    rng = np.random.default_rng(5)
    log_incomes = rng.uniform(10.8, 13.0, m)
    distances = np.abs(log_incomes[:, None] - log_incomes[None, :])
    cov = constrain(kernel_matrix(distances, KernelSpec("squared_exponential", 0.09)))
    merits = sample_constrained(cov, 1.0, rng)

    chi, omega = 2.0, 1.0
    quad = float(merits @ cov.pinv @ merits)
    shape, scale = chi + m / 2, omega + quad
    exact_mean = scale / (shape - 1)
    exact_var = scale**2 / ((shape - 1) ** 2 * (shape - 2))

    gibbs_rng = np.random.default_rng(42)
    draws = np.array(
        [gibbs_variance(merits, cov, chi, omega, gibbs_rng) for _ in range(100_000)]
    )
    mean_err = abs(draws.mean() - exact_mean) / exact_mean
    var_err = abs(draws.var(ddof=1) - exact_var) / exact_var
    elapsed = time.perf_counter() - start
    report(
        4,
        mean_err < 0.02 and var_err < 0.02,
        f"mean error {mean_err:.4f}, variance error {var_err:.4f} (both < 0.02), {elapsed:.0f}s",
    )


def test_criterion_5_ess_sanity():
    """ESS of known chains: iid counts fully, constraints drop rank, AR(1) long-run."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    n, m = 100_000, 5

    transform = rng.standard_normal((m, m))
    iid = rng.standard_normal((n, m)) @ transform.T
    ess_iid, rank_iid = multivariate_ess(iid)

    idx = np.arange(m)
    sigma = np.exp(-(((idx[:, None] - idx[None, :]) / 2.0) ** 2))
    cov = constrain(sigma)
    constrained = rng.standard_normal((n, cov.rank)) @ cov.factor.T
    _, rank_constrained = multivariate_ess(constrained, threshold=1e-8)

    # AR(1) at rho = 0.5 has marginal variance 4/3 and long-run variance
    # 3 times that, so the windowed estimate should land near 4.0
    rho = 0.5
    ar_series = lfilter([1.0], [1.0, -rho], rng.standard_normal(n))
    mixed = rng.standard_normal((n, m))
    mixed[:, 0] = ar_series
    longrun = spectral_longrun(mixed, int(n ** (1.0 / 3.0)))
    target = 3.0 / (1.0 - rho**2)
    ar_err = abs(longrun[0, 0] - target) / target

    ok = (
        0.9 * n < ess_iid < 1.1 * n
        and rank_iid == 5
        and rank_constrained == 4
        and ar_err < 0.10
    )
    elapsed = time.perf_counter() - start
    report(
        5,
        ok,
        f"iid ess {ess_iid:.0f} (in [0.9N, 1.1N]) rank {rank_iid} (= 5), "
        f"sum-zero rank {rank_constrained} (= 4), AR(1) long-run error {ar_err:.3f} "
        f"(< 0.10), {elapsed:.0f}s",
    )


def test_criterion_6_recovery_study():
    """Posterior means recover synthetic merits; more data helps the baseline."""
    start = time.perf_counter()
    kernel = KernelSpec("squared_exponential", 0.5)
    sampler = SamplerConfig(beta=0.2, iterations=100_000)
    study = SimStudySpec(
        m=10, k_comparisons=100, kernel=kernel, replications=20, seed=2024
    )
    rows_small = run_recovery_study(study, sampler)
    rows_large = run_recovery_study(
        dataclasses.replace(study, k_comparisons=10_000), sampler
    )

    bayes_spearman = [r["spearman"] for r in rows_small if r["method"] == "bayes"]
    median_spearman = float(np.median(bayes_spearman))
    mle_small = [r["rmse"] for r in rows_small if r["method"] == "mle"]
    mle_large = [r["rmse"] for r in rows_large if r["method"] == "mle"]
    improved = sum(1 for a, b in zip(mle_large, mle_small) if a < b)
    elapsed = time.perf_counter() - start
    report(
        6,
        median_spearman >= 0.9 and improved >= 18,
        f"median Spearman {median_spearman:.3f} (>= 0.9), baseline RMSE improved in "
        f"{improved}/20 paired replications (>= 18), {elapsed:.0f}s",
    )


def test_criterion_7_kendall_distance_exhaustive():
    """The discordant-pair count equals brute force on every small permutation."""
    start = time.perf_counter()
    checked = 0
    for m in range(1, 6):
        for a in itertools.permutations(range(1, m + 1)):
            for b in itertools.permutations(range(1, m + 1)):
                brute = sum(
                    1
                    for i in range(m)
                    for j in range(i + 1, m)
                    if (a[i] - a[j]) * (b[i] - b[j]) < 0
                )
                if kendall_tau_distance(a, b) != brute:
                    report(7, False, f"mismatch at a={a}, b={b}")
                checked += 1
    elapsed = time.perf_counter() - start
    report(7, True, f"{checked} permutation pairs, M <= 5, all exact, {elapsed:.0f}s")


def _fixture_profile(iterations: int, seed: int):
    table, income = load_dataset(
        DATA_DIR / "indicators.csv", DATA_DIR / "polarity.csv", DATA_DIR / "income.csv"
    )
    table = apply_missing_policy(table, "drop_indicators")
    w = build_win_matrix(table)
    kernel = KernelSpec("squared_exponential", 0.09)
    cov = build_prior(income, kernel)
    config = SamplerConfig(
        beta=0.009, iterations=iterations, seed=seed,
        prior_shape=2.0, prior_scale=1.0,
    )
    samples = run_chain(w, cov, config)
    ranking = summarize(samples, w.entities, mle_merits=mle_newman(w))
    return samples, ranking


def _rank_sets(ranking):
    by_rank = sorted(ranking.entities, key=lambda e: ranking.ranks_by_entity()[e])
    mle_ranks = ranking.mle_ranks_by_entity()
    by_mle = sorted(ranking.entities, key=lambda e: mle_ranks[e])
    return set(by_rank[:3]), set(by_rank[-3:]), set(by_mle[:3]), set(by_mle[-3:])


def test_criterion_8_application_profile_smoke():
    """Bundled-data run at application-scale settings, short-chain profile."""
    start = time.perf_counter()
    samples, ranking = _fixture_profile(iterations=100_000, seed=0)
    rate = samples.accepted / samples.proposed
    top, bottom, mle_top, mle_bottom = _rank_sets(ranking)
    agree = top == mle_top and bottom == mle_bottom
    elapsed = time.perf_counter() - start
    report(
        8,
        0.15 <= rate <= 0.45 and agree,
        f"smoke acceptance {rate:.3f} (in [0.15, 0.45]), top-3 {sorted(top)} and "
        f"bottom-3 {sorted(bottom)} agree with baseline: {agree}, {elapsed:.0f}s",
    )


@pytest.mark.skipif(
    os.environ.get("BTRANK_FULL_RUN") != "1",
    reason="full 3e6-iteration profile; set BTRANK_FULL_RUN=1 to run",
)
def test_criterion_8_application_profile_full():
    """Full-length run: tighter acceptance band plus the ranking agreement."""
    start = time.perf_counter()
    samples, ranking = _fixture_profile(iterations=3_000_000, seed=0)
    rate = samples.accepted / samples.proposed
    ess, rank_est = multivariate_ess(samples.merit_draws)
    top, bottom, mle_top, mle_bottom = _rank_sets(ranking)
    agree = top == mle_top and bottom == mle_bottom
    elapsed = time.perf_counter() - start
    report(
        8,
        0.20 <= rate <= 0.36 and agree,
        f"full acceptance {rate:.3f} (in [0.20, 0.36]), ess {ess:.0f} on rank "
        f"{rank_est} (reported, not asserted), agreement {agree}, {elapsed:.0f}s",
    )
