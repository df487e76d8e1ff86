"""Kernel covariance over log-income distances, constrained to the sum-to-zero subspace."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IncomeTable

SQUARED_EXPONENTIAL = "squared_exponential"
RATIONAL_QUADRATIC = "rational_quadratic"
KERNEL_KINDS = (SQUARED_EXPONENTIAL, RATIONAL_QUADRATIC)

# relative eigenvalue cutoff used when factoring the projected covariance
RANK_TOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and hyperparameters for the merit covariance.

    ``mixture`` is the tail-weight exponent of the rational-quadratic kernel
    and is ignored by the squared-exponential kernel; the rational quadratic
    approaches the squared exponential as the mixture grows.
    """

    kind: str
    length_scale: float
    mixture: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if not 0 < self.length_scale < np.inf:
            raise ValueError("length_scale must be positive and finite")
        if self.kind == RATIONAL_QUADRATIC:
            if self.mixture is None or not 0 < self.mixture < np.inf:
                raise ValueError("rational_quadratic needs a positive finite mixture exponent")


def log_income_distance(income: IncomeTable) -> np.ndarray:
    """Matrix of absolute differences between log incomes."""
    logs = np.log(income.income)
    return np.abs(logs[:, None] - logs[None, :])


def kernel_matrix(distances: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Evaluate the kernel on a symmetric zero-diagonal distance matrix.

    Parameters
    ----------
    distances : ndarray
        Pairwise distances, shape (M, M).
    spec : KernelSpec
        Kernel family and hyperparameters.

    Returns
    -------
    ndarray
        Covariance with unit diagonal.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distances must be a square matrix")
    if (distances < 0).any() or not np.allclose(distances, distances.T):
        raise ValueError("distances must be symmetric and nonnegative")
    if np.diagonal(distances).any():
        raise ValueError("distance diagonal must be zero")

    sq = distances**2
    if spec.kind == SQUARED_EXPONENTIAL:
        return np.exp(-sq / spec.length_scale**2)
    return (1.0 + sq / (2.0 * spec.mixture * spec.length_scale**2)) ** (-spec.mixture)


@dataclass(frozen=True)
class ConstrainedCovariance:
    """Kernel covariance projected onto the sum-to-zero subspace.

    ``projected`` annihilates the all-ones vector and has rank ``rank``
    (M - 1 for a positive definite kernel matrix).  ``factor`` maps standard
    normals in R^rank to merit-space draws, and ``pinv`` is the Moore-Penrose
    pseudo-inverse used in quadratic forms.
    """

    full: np.ndarray
    projected: np.ndarray
    factor: np.ndarray
    pinv: np.ndarray
    rank: int
    jitter_applied: bool

    @property
    def m(self) -> int:
        return self.projected.shape[0]


def constrain(sigma: np.ndarray, jitter: float = 1e-10) -> ConstrainedCovariance:
    """Project a kernel covariance onto {mu : sum(mu) = 0} and factor it.

    The projected matrix is ``sigma - sigma @ 1 (1' sigma 1)^-1 1' sigma``.
    When the smallest eigenvalue of ``sigma`` falls below ``10 * jitter``,
    ``jitter`` is added to the diagonal first (flagged in the result).
    Eigenvalues of the projected matrix below ``RANK_TOL`` times the largest
    are treated as exact zeros from the constraint.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-12, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    if not 0 <= jitter < np.inf:
        raise ValueError("jitter must be nonnegative and finite")

    m = sigma.shape[0]
    jitter_applied = False
    if jitter > 0 and np.linalg.eigvalsh(sigma).min() < 10.0 * jitter:
        sigma = sigma + jitter * np.eye(m)
        jitter_applied = True

    ones = np.ones(m)
    row_sums = sigma @ ones
    projected = sigma - np.outer(row_sums, row_sums) / (ones @ row_sums)
    projected = 0.5 * (projected + projected.T)

    eigvals, eigvecs = np.linalg.eigh(projected)
    largest = eigvals[-1]
    if largest <= 0:
        raise ValueError("projected covariance has no positive eigenvalues")
    keep = eigvals > RANK_TOL * largest
    kept_vals = eigvals[keep]
    kept_vecs = eigvecs[:, keep]

    return ConstrainedCovariance(
        full=sigma,
        projected=projected,
        factor=kept_vecs * np.sqrt(kept_vals),
        pinv=(kept_vecs / kept_vals) @ kept_vecs.T,
        rank=int(keep.sum()),
        jitter_applied=jitter_applied,
    )


def sample_constrained(cov: ConstrainedCovariance, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one mean-zero Gaussian vector with covariance ``scale * projected``.

    Every draw lies in the sum-to-zero subspace by construction.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    return np.sqrt(scale) * (cov.factor @ rng.standard_normal(cov.rank))


def build_prior(income: IncomeTable, spec: KernelSpec, jitter: float = 1e-10) -> ConstrainedCovariance:
    """Kernel covariance on log-income distances, constrained and factored."""
    return constrain(kernel_matrix(log_income_distance(income), spec), jitter=jitter)
