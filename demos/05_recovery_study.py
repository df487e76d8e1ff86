"""
Synthetic merit recovery
========================

When the truth is known we can score estimators directly. Each replication
draws true merits from the constrained kernel prior, simulates a round-robin
tournament, and measures how well the posterior mean and the maximum
likelihood baseline recover the generating merits. Because the true merits
for a replication never depend on the number of contests, studies at
different comparison counts are paired replication by replication.
"""

import dataclasses
import statistics
import tempfile
from pathlib import Path

from btrank import SamplerConfig, SimStudySpec, run_recovery_study
from btrank.sim import write_study_csv

sampler = SamplerConfig(beta=0.25, iterations=20_000)

# a data-poor regime: 25 contests per pair among 8 entities
sparse = SimStudySpec(m=8, k_comparisons=25, replications=6, seed=7)
sparse_rows = run_recovery_study(sparse, sampler)

# the identical truths judged with 100x more contests per pair
dense = dataclasses.replace(sparse, k_comparisons=2500)
dense_rows = run_recovery_study(dense, sampler)


def summary(rows, method):
    picked = [r for r in rows if r["method"] == method]
    return (
        statistics.median(r["spearman"] for r in picked),
        statistics.median(r["rmse"] for r in picked),
    )


print("median over replications (spearman, rmse):")
for label, rows in (("k=25", sparse_rows), ("k=2500", dense_rows)):
    for method in ("bayes", "mle"):
        rho, rmse = summary(rows, method)
        print(f"  {label:<7} {method:<6} spearman {rho:.3f}  rmse {rmse:.3f}")

# the prior's pull matters most when data are scarce: count replications
# where the posterior mean beats the unregularized fit on RMSE
for label, rows in (("k=25", sparse_rows), ("k=2500", dense_rows)):
    bayes = {r["replication"]: r["rmse"] for r in rows if r["method"] == "bayes"}
    mle = {r["replication"]: r["rmse"] for r in rows if r["method"] == "mle"}
    better = sum(bayes[rep] < mle[rep] for rep in bayes)
    print(f"{label}: posterior mean beats the baseline on {better} of {len(bayes)} replications")

# rows export to CSV for analysis elsewhere
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "study.csv"
    write_study_csv(sparse_rows + dense_rows, out)
    lines = out.read_text().splitlines()
    print(f"\nwrote {len(lines) - 1} rows to {out}")
    print(lines[0])
