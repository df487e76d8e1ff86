"""Set-up probe: import btrank and build a workload's inputs, stopping where the chain starts.

    python benchmarks/prepare.py fit|simulate

Run from the repository root with ``src`` on the path.  For ``fit`` it loads
the bundled fixture, applies the missing-data policy, counts wins and builds
the prior, as ``btrank fit`` does before sampling.  The recovery study builds
its inputs inside the timed run, so for ``simulate`` set-up is the import.
"""

import sys


def main(command: str) -> int:
    from btrank.data import apply_missing_policy, load_dataset
    from btrank.prior import KernelSpec, build_prior
    from btrank.wins import build_win_matrix

    if command == "fit":
        table, income = load_dataset(
            "data/indicators.csv", "data/polarity.csv", "data/income.csv"
        )
        table = apply_missing_policy(table, "drop_indicators")
        wins = build_win_matrix(table)
        cov = build_prior(income, KernelSpec("squared_exponential", 0.09))
        print(f"{wins.m} entities, prior rank {cov.rank}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
