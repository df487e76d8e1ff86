"""Synthetic merit recovery studies for the sampler and the likelihood baseline."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .bt import NoMleError, _expit, mle_newman
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
        if not 0 < self.prior_variance < np.inf:
            raise ValueError("prior_variance must be positive and finite")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.length_scales:
            object.__setattr__(self, "length_scales", (self.kernel.length_scale,))
        for scale in self.length_scales:
            if not 0 < scale < np.inf:
                raise ValueError("length scales must be positive and finite")


def simulate_win_matrix(true_merits: np.ndarray, k: int, rng: np.random.Generator) -> WinMatrix:
    """Draw a binomial win matrix with ``k`` contests per unordered pair."""
    true_merits = np.asarray(true_merits, dtype=float)
    if true_merits.ndim != 1 or len(true_merits) < 2:
        raise ValueError("true merits must be a 1-D vector of length at least 2")
    if k < 1:
        raise ValueError("k must be positive")
    m = len(true_merits)
    # one binomial draw per pair i < j, in row order
    i, j = np.triu_indices(m, 1)
    won = rng.binomial(k, [_expit(d) for d in (true_merits[i] - true_merits[j]).tolist()])
    wins = np.zeros((m, m))
    wins[i, j], wins[j, i] = won, k - won
    entities = tuple(f"item{n:02d}" for n in range(m))
    return WinMatrix(entities=entities, wins=wins)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n by ascending value, tied values sharing the mean of their ranks."""
    sorted_x = np.sort(x)
    # a value's ties occupy the sorted positions from its left to its right insertion point
    return 0.5 * (np.searchsorted(sorted_x, x, "left") + np.searchsorted(sorted_x, x, "right") + 1)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rank correlation: Pearson's of the average ranks, NaN if an input is constant."""
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's correlation, clipped to [-1, 1] and exactly +-1 for two points; NaN if an input is constant."""
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    unit = []
    for v in (x, y):
        centred = v - v.mean()
        vmax = np.abs(centred).max()
        # the norm scaled by the largest deviation, so large values cannot overflow
        unit.append(centred / (vmax * np.sqrt(np.add.reduce((centred / vmax) ** 2))))
    r = np.clip(np.vecdot(*unit), -1.0, 1.0)
    return float(np.round(r) if len(x) == 2 else r)


def _metric_row(replication: int, length_scale: float, method: str,
                truth: np.ndarray, estimate: np.ndarray | None) -> dict:
    """One study row; an ``estimate`` of None, a likelihood estimate that does not exist, scores NaN."""
    metrics = (float("nan"),) * 4
    if estimate is not None:
        metrics = (
            _spearman(truth, estimate),
            _pearson(truth, estimate),
            float(np.sqrt(np.mean((estimate - truth) ** 2))),
            kendall_tau_distance(rank_entities(truth), rank_entities(estimate)),
        )
    return dict(zip(STUDY_COLUMNS, (replication, length_scale, method, *metrics)))


def run_recovery_study(spec: SimStudySpec, sampler: SamplerConfig) -> list[dict]:
    """Run the full replication-by-length-scale grid and score both methods.

    True merits for a given replication depend only on the study seed, the
    replication index, and the length scale, never on ``k_comparisons``, so
    studies at different comparison counts are paired.  A maximum likelihood
    estimate that does not exist is recorded as NaN metrics for that cell;
    any other solver failure aborts the study.
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

            config = dataclasses.replace(sampler, seed=int(chain_seed.generate_state(1)[0]))
            estimate = posterior_mean(run_chain(w, cov, config))
            rows.append(_metric_row(rep, length_scale, "bayes", truth, estimate))

            try:
                baseline = mle_newman(w)
            except NoMleError:
                baseline = None
            rows.append(_metric_row(rep, length_scale, "mle", truth, baseline))
    return rows


def write_study_csv(rows: list[dict], path) -> None:
    """Write recovery study rows with stable column order and full precision."""
    write_csv(path, STUDY_COLUMNS, ([row[key] for key in STUDY_COLUMNS] for row in rows))
