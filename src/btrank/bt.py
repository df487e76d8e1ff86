"""Bradley-Terry win probabilities, log-likelihood, and maximum likelihood merits."""

from __future__ import annotations

import math

import numpy as np

from .wins import PairList, WinMatrix


def _expit(x: float) -> float:
    """Logistic function ``1 / (1 + exp(-x))`` with the C library's ``exp``.

    ``math.exp`` is that ``exp``; numpy's vectorised ``exp`` differs from it
    in the last bit on some inputs, which would move the simulated wins.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        # exp(-x) is past the largest double, where C's exp gives inf
        return 0.0


def win_probability(merit_i: float, merit_j: float) -> float:
    """Probability that the entity with merit ``merit_i`` beats ``merit_j``.

    Depends only on the merit difference, so a common shift of both merits
    leaves the probability unchanged.
    """
    return _expit(float(merit_i - merit_j))


def _log_likelihood(merits: np.ndarray, pairs: PairList) -> np.ndarray:
    """Log-likelihood of each merit vector along the last axis of ``merits``.

    In strength form, ``total_wins @ m - sum_k counts[k] log(exp(m_i) +
    exp(m_j))``, after a shift of each vector to a zero largest merit, which
    leaves the value unchanged since the wins add up to the contests.  It is
    exact to rounding while each compared pair has a merit within about 708
    of the largest; past about 745 both strengths underflow and the value is
    ``+inf``.  Every reduction runs along the last axis, so a row's value
    does not depend on the other rows beside it.
    """
    shifted = merits - merits.max(axis=-1, keepdims=True)
    strength = np.exp(shifted)
    pair_strength = strength.take(pairs.i, axis=-1) + strength.take(pairs.j, axis=-1)
    return np.vecdot(shifted, pairs.total_wins) - np.vecdot(np.log(pair_strength), pairs.counts)


def log_likelihood(merits: np.ndarray, w: WinMatrix) -> float:
    """Bradley-Terry log-likelihood of a merit vector of shape ``(M,)``.

    Binomial coefficients are constant in the merits and omitted.  Each pair
    ``i < j`` contributes ``wins[i,j] log pi_ij + wins[j,i] log pi_ji``,
    summed in the strength form ``wins[i,j] m_i + wins[j,i] m_j -
    comparisons[i,j] log(exp(m_i) + exp(m_j))`` over the compared pairs only.

    Raises
    ------
    ValueError
        If the value is not finite: a merit is not finite, or both merits of
        a compared pair lie more than about 745 below the largest merit.
    """
    merits = np.asarray(merits, dtype=float)
    if merits.shape != (w.m,):
        raise ValueError(f"merits must have shape {(w.m,)}, got {merits.shape}")
    with np.errstate(all="ignore"):
        value = float(_log_likelihood(merits, w.pairs))
    if not math.isfinite(value):
        raise ValueError(
            "log-likelihood is not finite: merits must be finite, and each compared pair "
            "needs a merit within about 745 of the largest merit"
        )
    return value


def _reach(adjacency: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Entities reachable from the boolean set ``seen``; ``adjacency[i, j]`` is an edge i -> j."""
    frontier = seen
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def _check_mle_exists(w: WinMatrix) -> None:
    """Ford's condition: each entity beats each other one along some chain of wins.

    It holds exactly when entity 0 reaches every entity along ``wins > 0``
    and along its transpose; otherwise the raised error names one pair.
    """
    beats, first = w.wins > 0, np.arange(w.m) == 0
    not_beaten = np.flatnonzero(~_reach(beats, first))  # by entity 0, along any chain
    not_beating = np.flatnonzero(~_reach(beats.T, first))  # entity 0, along any chain
    if not_beaten.size or not_beating.size:
        winner, loser = (0, not_beaten[0]) if not_beaten.size else (not_beating[0], 0)
        raise RuntimeError(
            f"{w.entities[winner]!r} beats {w.entities[loser]!r} along no chain of wins "
            "(Ford's condition), so the maximum likelihood merits do not exist"
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
    ValueError
        If ``tol`` is not positive (or is NaN) or ``max_iter`` is below 1.
    RuntimeError
        If the estimate does not exist (the directed win graph is not
        strongly connected) or ``max_iter`` is exhausted.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
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
