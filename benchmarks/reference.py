"""Reference probe: fixed work that measures how fast the machine is right now.

    python benchmarks/reference.py

It imports the third-party modules ``btrank`` loads, then runs a small
random-walk Metropolis loop on a fixed Bradley-Terry problem, with the same
kinds of numpy calls per step as a ``btrank`` chain.  It uses no ``btrank``
code, so its time does not change when the package does.  The harness runs
it before every timed child and reports times relative to it
(``bench.REFERENCE_S``), because the speed of a shared host drifts.
"""

import numpy as np
import scipy.sparse.csgraph  # noqa: F401
import scipy.special  # noqa: F401
import scipy.stats  # noqa: F401

M = 33
STEPS = 16_000


def main() -> float:
    rng = np.random.default_rng(20260)
    wins = rng.poisson(40.0, size=(M, M)).astype(float)
    np.fill_diagonal(wins, 0.0)
    centre = np.eye(M) - 1.0 / M
    factor = centre @ rng.standard_normal((M, M - 1)) / np.sqrt(M)
    precision = np.linalg.pinv(factor @ factor.T)
    merits = np.zeros(M)
    loglik = -np.inf
    for _ in range(STEPS):
        variance = (1.0 + float(merits @ precision @ merits)) / rng.gamma(1.0 + 0.5 * M)
        noise = np.sqrt(variance) * (factor @ rng.standard_normal(M - 1))
        proposal = 0.99 * merits + 0.1 * noise
        new = float(-np.sum(wins * np.logaddexp(0.0, proposal[None, :] - proposal[:, None])))
        if np.log(rng.random()) < new - loglik:
            merits, loglik = proposal, new
    return loglik


if __name__ == "__main__":
    print(f"{main():.6f}")
