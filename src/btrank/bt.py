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

    In strength form, ``total_wins @ m - sum_k counts[k] log(s_i + s_j)``,
    with strengths ``s = exp(m - max(m))``: the wins add up to the contests,
    so the shift keeps the value.  It is exact to rounding while each compared
    pair has a merit within about 708 of the largest; past about 745 both
    strengths underflow and the value is ``+inf``, where the callers that
    test finiteness fall back on :func:`_pairwise_log_likelihood`.  ``s @ pairs.incidence``
    gives the pair strengths in one BLAS call, bit for bit the gathered
    ``s_i + s_j``: each output adds exact zeros to ``s_i * 1 + s_j * 1`` (``s``
    is finite and nonnegative), one rounding in any order or fused form.  At
    O(M) per pair it gives way to gathers above ``wins.INCIDENCE_MAX_ENTITIES``
    entities.  Each row is reduced on its own, along the last axis.
    """
    shifted = merits - merits.max(axis=-1, keepdims=True)
    strength = np.exp(shifted)
    pair_strength = (strength.take(pairs.i, axis=-1) + strength.take(pairs.j, axis=-1)
                     if pairs.incidence is None else strength @ pairs.incidence)
    return np.vecdot(shifted, pairs.total_wins) - np.vecdot(np.log(pair_strength), pairs.counts)


def _pairwise_log_likelihood(merits: np.ndarray, pairs: PairList) -> float:
    """Log-likelihood of one merit vector, ``total_wins @ m - counts @ logaddexp(m_i, m_j)``.

    Finite where the strength form gives ``+inf``, but slower: two gathers and a ``logaddexp`` per pair.
    """
    return float(pairs.total_wins @ merits - pairs.counts @ np.logaddexp(merits[pairs.i], merits[pairs.j]))


def log_likelihood(merits: np.ndarray, w: WinMatrix) -> float:
    """Bradley-Terry log-likelihood of a merit vector of shape ``(M,)``.

    Binomial coefficients are constant in the merits and omitted.  Each pair
    ``i < j`` contributes ``wins[i,j] log pi_ij + wins[j,i] log pi_ji``,
    summed in the strength form ``wins[i,j] m_i + wins[j,i] m_j -
    comparisons[i,j] log(exp(m_i) + exp(m_j))`` over the compared pairs only.

    Past the strength form's limit, the pairwise form gives the value.

    Raises
    ------
    ValueError
        If the value is not finite, as when a merit is not finite.
    """
    merits = np.asarray(merits, dtype=float)
    if merits.shape != (w.m,):
        raise ValueError(f"merits must have shape {(w.m,)}, got {merits.shape}")
    with np.errstate(all="ignore"):
        value = float(_log_likelihood(merits, w.pairs))
        if value == math.inf:
            value = _pairwise_log_likelihood(merits, w.pairs)
    if not math.isfinite(value):
        raise ValueError("log-likelihood is not finite: merits must be finite")
    return value


def _reach(adjacency: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Entities reachable from the boolean set ``seen``; ``adjacency[i, j]`` is an edge i -> j."""
    frontier = seen
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


class NoMleError(RuntimeError):
    """The maximum likelihood merits do not exist: Ford's condition fails."""


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
        raise NoMleError(
            f"{w.entities[winner]!r} beats {w.entities[loser]!r} along no chain of wins "
            "(Ford's condition), so the maximum likelihood merits do not exist"
        )


# Newton's stopping decrement as a share of 1 + |log-likelihood|: far above where rounding stalls it
NEWTON_DECREMENT = 1e-16


def mle_newman(w: WinMatrix, max_iter: int = 100) -> np.ndarray:
    """Maximum likelihood merit vector by damped Newton steps on the sum-to-zero subspace.

    Each step, from zero merits, solves ``(L + 11'/M) step = gradient``, where
    the gradient, each entity's wins minus its expected wins, sums to zero as
    the step then does, and ``L``, the negated Hessian, is the Laplacian with
    weights ``comparisons[i,j] p_ij (1 - p_ij)`` on the compared pairs.  Steps
    are halved until Armijo's rule holds.  At a decrement ``gradient @ step``
    of at most ``NEWTON_DECREMENT * (1 + |log-likelihood|)`` the full step is
    taken and the centred merits returned.  ``max_iter`` caps the steps.  The
    name stays from the fixed-point iteration this replaced, for its callers.

    Raises
    ------
    ValueError
        If ``max_iter`` is below 1.
    NoMleError
        A ``RuntimeError``: no estimate exists (Ford's condition fails).
    RuntimeError
        If ``max_iter`` steps do not reach the stopping rule.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    _check_mle_exists(w)

    i, j, counts, total_wins, m = w.pairs.i, w.pairs.j, w.pairs.counts, w.pairs.total_wins, w.m
    merits = np.zeros(m)
    loglik = float(_log_likelihood(merits, w.pairs))
    for _ in range(max_iter):
        p = 0.5 + 0.5 * np.tanh(0.5 * (merits[i] - merits[j]))  # p_ij, with no overflow
        expected, weight = counts * p, counts * p * (1.0 - p)
        gradient = total_wins - np.bincount(i, expected, m) - np.bincount(j, counts - expected, m)
        hessian = np.diag(np.bincount(i, weight, m) + np.bincount(j, weight, m)) + 1.0 / m
        hessian[i, j] = hessian[j, i] = 1.0 / m - weight
        step = np.linalg.solve(hessian, gradient)
        decrement = float(gradient @ step)
        if decrement <= NEWTON_DECREMENT * (1.0 + abs(loglik)):
            return merits + step - (merits + step).mean()
        # Armijo's rule (a rise of decrement / 4 per unit of t) holds while no pair's gap moves
        # by more than 1, its curvature then within a factor e, so only longer steps are tested:
        # near the maximum, rounding of a large log-likelihood hides the rise.  +inf: an underflow.
        gap, t = np.abs(step[i] - step[j]).max(), 1.0
        value = float(_log_likelihood(merits + step, w.pairs))
        while not value < math.inf or (t * gap > 1.0 and value < loglik + 0.25 * t * decrement):
            t /= 2
            value = float(_log_likelihood(merits + t * step, w.pairs))
        merits, loglik = merits + t * step, value
    raise RuntimeError(f"Newton's method did not converge within {max_iter} steps")
