"""
Pairwise comparison basics: win probabilities and the likelihood fit
====================================================================

Entities carry a latent merit; entity i beats entity j with probability
expit(merit_i - merit_j). Win counts over many contests are the sufficient
statistic, and the maximum likelihood merits can be found by a simple
fixed-point iteration.
"""

import numpy as np

from btrank import WinMatrix, log_likelihood, mle_newman, win_probability

# a merit gap of 1.1 gives roughly a 3:1 favourite
print("win probability at merit gap 1.1:", round(win_probability(1.1, 0.0), 3))
print("win probability at merit gap 0.0:", win_probability(0.0, 0.0))

# a small three-player tournament: wins[i, j] counts i's wins over j.
# "alice" dominates, "cara" struggles, "ben" sits in between.
wins = np.array(
    [
        [0.0, 7.0, 9.0],
        [3.0, 0.0, 6.0],
        [1.0, 4.0, 0.0],
    ]
)
w = WinMatrix(entities=("alice", "ben", "cara"), wins=wins)
print("contests per pair, wins[i, j] + wins[j, i]:", w.comparisons[np.triu_indices(3, 1)])

# the Newman iteration converges to the unique (sum-to-zero) optimum
merits = mle_newman(w)
for name, merit in zip(w.entities, merits):
    print(f"  {name}: merit {merit:+.3f}")
print("merits sum to", round(float(merits.sum()), 12))

# the fit really is the maximum: nudging any merit lowers the log-likelihood
best = log_likelihood(merits, w)
for k in range(3):
    nudge = np.zeros(3)
    nudge[k] = 0.05
    assert log_likelihood(merits + nudge, w) < best
print("log-likelihood at the optimum:", round(best, 4))

# implied head-to-head odds from the fitted merits
p = win_probability(merits[0], merits[2])
print(f"alice beats cara with probability {p:.3f} under the fitted model")

# two-entity record of 3 wins to 1 recovers the closed form ln 3
tiny = WinMatrix(entities=("x", "y"), wins=np.array([[0.0, 3.0], [1.0, 0.0]]))
gap = mle_newman(tiny)[0] - mle_newman(tiny)[1]
print("3-1 record merit gap:", round(gap, 6), "= ln 3 =", round(np.log(3), 6))
