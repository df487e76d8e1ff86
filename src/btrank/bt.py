"""Bradley-Terry win probabilities, log-likelihood, and maximum likelihood merits."""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.special import expit

from .wins import PairList, WinMatrix

# draws per batched likelihood evaluation; at M=33 (528 compared pairs) each
# (chunk, P) temporary takes about 2 MB
LOGLIK_CHUNK = 512


def win_probability(merit_i: float, merit_j: float) -> float:
    """Probability that the entity with merit ``merit_i`` beats ``merit_j``.

    Depends only on the merit difference, so a common shift of both merits
    leaves the probability unchanged.
    """
    return float(expit(merit_i - merit_j))


def _pair_log_likelihood(merits: np.ndarray, diff: np.ndarray, pairs: PairList) -> np.ndarray:
    # score . merits - counts . log(1 + exp(diff)) along the last axis, where diff holds
    # m_j - m_i per compared pair; vecdot reduces every row alike, so a row of a batch
    # matches the vector result bit for bit
    return np.vecdot(merits, pairs.score) - np.vecdot(np.logaddexp(0.0, diff), pairs.counts)


def log_likelihood(merits: np.ndarray, w: WinMatrix):
    """Bradley-Terry log-likelihood of a merit vector, or of each row of a draw array.

    A vector of shape ``(M,)`` gives a float; draws of shape ``(N, M)`` give an
    ``(N,)`` array, evaluated ``LOGLIK_CHUNK`` draws at a time so the
    ``(chunk, P)`` temporaries over the P compared pairs stay small.
    Binomial coefficients are constant in the merits and omitted.  Each pair
    ``i < j`` contributes ``wins[i,j] log pi_ij + wins[j,i] log pi_ji``,
    written as ``wins[j,i] (m_j - m_i) - comparisons[i,j] log(1 + exp(m_j - m_i))``
    and evaluated with ``logaddexp``, so large merit gaps stay finite.
    """
    merits = np.asarray(merits, dtype=float)
    if merits.ndim not in (1, 2) or merits.shape[-1] != w.m:
        raise ValueError(f"merits must have shape {(w.m,)} or (N, {w.m}), got {merits.shape}")
    pairs = w.pairs
    if merits.ndim == 1:
        return float(_pair_log_likelihood(merits, merits[pairs.j] - merits[pairs.i], pairs))
    out = np.empty(len(merits))
    for start in range(0, len(merits), LOGLIK_CHUNK):
        chunk = merits[start : start + LOGLIK_CHUNK]
        # take keeps the rows contiguous, as vecdot's bit-for-bit match needs
        diff = chunk.take(pairs.j, axis=1) - chunk.take(pairs.i, axis=1)
        out[start : start + len(chunk)] = _pair_log_likelihood(chunk, diff, pairs)
    return out


def _check_mle_exists(w: WinMatrix) -> None:
    totals_won = w.wins.sum(axis=1)
    totals_lost = w.wins.sum(axis=0)
    for i, name in enumerate(w.entities):
        if totals_won[i] == 0:
            raise RuntimeError(
                f"entity {name!r} has no wins, so the maximum likelihood merits do not exist"
            )
        if totals_lost[i] == 0:
            raise RuntimeError(
                f"entity {name!r} has no losses, so the maximum likelihood merits do not exist"
            )
    n_parts, _ = connected_components(w.comparisons > 0, directed=False)
    if n_parts > 1:
        raise RuntimeError(
            f"comparison graph is disconnected ({n_parts} components); merits are not jointly identifiable"
        )


def mle_newman(w: WinMatrix, tol: float = 1e-10, max_iter: int = 10_000) -> np.ndarray:
    """Maximum likelihood merit vector via the fixed-point strength iteration.

    Iterates, for each entity in turn,

        pi_i <- sum_j wins[i,j] pi_j / (pi_i + pi_j)  /  sum_j wins[j,i] / (pi_i + pi_j)

    updating strengths in place within a sweep (a simultaneous update cycles
    without converging on two-entity data), renormalizing the geometric mean
    to one after each sweep, until the largest relative change falls below
    ``tol``.  Returns log-strengths centered to sum to zero.

    Raises
    ------
    RuntimeError
        If the estimate does not exist (an entity with no wins or no losses,
        or a disconnected comparison graph) or ``max_iter`` is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_mle_exists(w)

    wins = w.wins
    pi = np.ones(w.m)
    for sweep in range(1, max_iter + 1):
        previous = pi.copy()
        for i in range(w.m):
            denom = pi[i] + pi
            numer = np.sum(wins[i] * pi / denom)
            pi[i] = numer / np.sum(wins[:, i] / denom)
        pi /= np.exp(np.mean(np.log(pi)))
        if np.max(np.abs(pi - previous) / previous) < tol:
            merits = np.log(pi)
            return merits - merits.mean()
    raise RuntimeError(f"strength iteration did not converge within {max_iter} sweeps")
