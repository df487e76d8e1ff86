"""Synthetic merit recovery studies for the sampler and the likelihood baseline."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit
from scipy.stats import pearsonr, spearmanr

from .bt import mle_newman
from .data import write_csv
from .diagnostics import kendall_tau_distance, rank_entities
from .mcmc import SamplerConfig, posterior_mean, run_chain
from .prior import KernelSpec, constrain, kernel_matrix, sample_constrained
from .wins import WinMatrix

STUDY_COLUMNS = ("replication", "length_scale", "method", "spearman", "pearson", "rmse", "kendall")


@dataclass(frozen=True)
class SimStudySpec:
    """Design of a recovery study.

    Each replication draws true merits from the constrained kernel prior on
    ``m`` synthetic entities with evenly spaced log incomes, simulates
    ``k_comparisons`` contests per pair, and scores how well each method
    recovers the truth.
    """

    m: int = 10
    k_comparisons: int = 100
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("squared_exponential", 0.5))
    length_scales: tuple[float, ...] = ()
    prior_variance: float = 1.0
    replications: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("need at least 2 entities")
        if self.k_comparisons < 1:
            raise ValueError("k_comparisons must be positive")
        if not self.prior_variance > 0:
            raise ValueError("prior_variance must be positive")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if not self.length_scales:
            object.__setattr__(self, "length_scales", (self.kernel.length_scale,))
        for scale in self.length_scales:
            if not scale > 0:
                raise ValueError("length scales must be positive")


def simulate_win_matrix(true_merits: np.ndarray, k: int, rng: np.random.Generator) -> WinMatrix:
    """Draw a binomial win matrix with ``k`` contests per unordered pair."""
    true_merits = np.asarray(true_merits, dtype=float)
    if true_merits.ndim != 1 or len(true_merits) < 2:
        raise ValueError("true merits must be a 1-D vector of length at least 2")
    if k < 1:
        raise ValueError("k must be positive")
    m = len(true_merits)
    entities = tuple(f"item{i:02d}" for i in range(m))
    wins = np.zeros((m, m))
    comparisons = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            p = expit(true_merits[i] - true_merits[j])
            won = int(rng.binomial(k, p))
            wins[i, j] = won
            wins[j, i] = k - won
            comparisons[i, j] = comparisons[j, i] = k
    return WinMatrix(entities=entities, wins=wins, comparisons=comparisons)


def _metric_row(replication: int, length_scale: float, method: str,
                truth: np.ndarray, estimate: np.ndarray) -> dict:
    spearman = float(spearmanr(truth, estimate)[0])
    pearson = float(pearsonr(truth, estimate)[0])
    rmse = float(np.sqrt(np.mean((estimate - truth) ** 2)))
    kendall = int(kendall_tau_distance(rank_entities(truth), rank_entities(estimate)))
    return {
        "replication": replication,
        "length_scale": length_scale,
        "method": method,
        "spearman": spearman,
        "pearson": pearson,
        "rmse": rmse,
        "kendall": kendall,
    }


def _failed_row(replication: int, length_scale: float, method: str) -> dict:
    row = {"replication": replication, "length_scale": length_scale, "method": method}
    row.update({name: float("nan") for name in ("spearman", "pearson", "rmse", "kendall")})
    return row


def run_recovery_study(spec: SimStudySpec, sampler: SamplerConfig) -> list[dict]:
    """Run the full replication-by-length-scale grid and score both methods.

    True merits for a given replication depend only on the study seed, the
    replication index, and the length scale, never on ``k_comparisons``, so
    studies at different comparison counts are paired.  A nonexistent
    maximum likelihood estimate is recorded as NaN metrics for that cell
    rather than aborting the study.
    """
    log_incomes = np.linspace(0.0, 1.0, spec.m)
    distances = np.abs(log_incomes[:, None] - log_incomes[None, :])
    rows: list[dict] = []
    for scale_index, length_scale in enumerate(spec.length_scales):
        kspec = dataclasses.replace(spec.kernel, length_scale=length_scale)
        cov = constrain(kernel_matrix(distances, kspec))
        for rep in range(spec.replications):
            root = np.random.SeedSequence(entropy=(spec.seed, scale_index, rep))
            truth_seed, sim_seed, chain_seed = root.spawn(3)
            truth = sample_constrained(
                cov, spec.prior_variance, np.random.default_rng(truth_seed)
            )
            w = simulate_win_matrix(truth, spec.k_comparisons, np.random.default_rng(sim_seed))

            config = dataclasses.replace(
                sampler, seed=int(chain_seed.generate_state(1)[0]), kernel=kspec
            )
            estimate = posterior_mean(run_chain(w, cov, config))
            rows.append(_metric_row(rep, length_scale, "bayes", truth, estimate))

            try:
                baseline = mle_newman(w)
            except RuntimeError:
                rows.append(_failed_row(rep, length_scale, "mle"))
            else:
                rows.append(_metric_row(rep, length_scale, "mle", truth, baseline))
    return rows


def write_study_csv(rows: list[dict], path) -> None:
    """Write recovery study rows with stable column order and full precision."""
    write_csv(path, STUDY_COLUMNS, ([row[key] for key in STUDY_COLUMNS] for row in rows))
