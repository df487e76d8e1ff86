"""Output checks applied to every benchmark run.

Each check takes a run's output directory and returns a list of problems;
an empty list means the outputs are correct.  The thresholds are the
package's acceptance criteria: draws sum to zero, acceptance in the smoke
band, posterior top-3 and bottom-3 equal to the likelihood baseline's
(criterion 8) and a median Spearman of at least 0.9 in the recovery study
(criterion 6).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

SUM_TO_ZERO_TOL = 1e-10
ACCEPT_BAND = (0.15, 0.45)
MIN_SPEARMAN = 0.9


def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _extremes(rows: list[dict], column: str) -> tuple[set, set]:
    ordered = sorted(rows, key=lambda row: int(row[column]))
    names = [row["entity"] for row in ordered]
    return set(names[:3]), set(names[-3:])


def check_fit(out: Path) -> list[str]:
    """Checks on the outputs of ``btrank fit``."""
    from btrank.mcmc import load_chain

    try:
        samples = load_chain(out / "chain.npz")
    except (OSError, ValueError) as exc:
        return [f"load_chain failed: {exc}"]
    problems = []
    drift = float(np.max(np.abs(samples.merit_draws.sum(axis=1))))
    if not drift <= SUM_TO_ZERO_TOL:
        problems.append(f"draws sum to {drift:.3g}, not zero within {SUM_TO_ZERO_TOL}")
    rate = samples.accepted / samples.proposed
    if not ACCEPT_BAND[0] <= rate <= ACCEPT_BAND[1]:
        problems.append(f"acceptance {rate:.3f} outside {ACCEPT_BAND}")

    try:
        rows = _read_csv(out / "ranking.csv")
        expected = list(range(1, samples.m + 1))
        bad = [c for c in ("rank", "mle_rank") if sorted(int(r[c]) for r in rows) != expected]
        for column in bad:
            problems.append(f"ranking.csv {column} is not a permutation of 1..{samples.m}")
        if not bad and _extremes(rows, "rank") != _extremes(rows, "mle_rank"):
            problems.append("posterior top-3 or bottom-3 differ from the likelihood baseline")
        ess = read_ess(out)
        if not ess > 0:
            problems.append(f"diagnostics.json ess is {ess}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    return problems


def check_study(out: Path, replications: int) -> list[str]:
    """Checks on the ``study.csv`` of ``btrank simulate`` with one length scale."""
    try:
        rows = _read_csv(out / "study.csv")
        spearman = [float(row["spearman"]) for row in rows if row["method"] == "bayes"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable study.csv: {exc!r}"]
    problems = []
    if len(rows) != 2 * replications:
        problems.append(f"study.csv has {len(rows)} rows, expected {2 * replications}")
    median = float(np.median(spearman)) if spearman else float("nan")
    if not median >= MIN_SPEARMAN:
        problems.append(f"bayes median Spearman {median:.3f} below {MIN_SPEARMAN}")
    return problems


def read_ess(out: Path) -> float:
    """Multivariate ESS that ``btrank fit`` wrote to diagnostics.json."""
    return float(json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))["ess"])
