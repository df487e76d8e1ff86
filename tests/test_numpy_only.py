"""The package runs on numpy alone, and its own small numerics match scipy's bit for bit.

scipy is a test dependency only.  The logistic function, the reachability
search behind the maximum likelihood existence check and the recovery
study's correlations are written with numpy and the standard library; these
tests hold them to scipy's functions, so every output stays byte-identical
and the estimate is refused on exactly the win graphs scipy finds not
strongly connected.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.special import expit
from scipy.stats import pearsonr, spearmanr

from btrank import WinMatrix, mle_newman
from btrank.bt import _expit
from btrank.sim import _pearson, _spearman

from .conftest import random_wins

SRC = Path(__file__).resolve().parents[1] / "src"


def same(a, b) -> bool:
    """Equal as doubles, bit for bit, with NaN matching NaN."""
    return np.array_equal(np.float64(a), np.float64(b), equal_nan=True)


def test_importing_the_cli_and_the_study_loads_no_scipy():
    code = "import sys, btrank.cli, btrank.sim; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestExpit:
    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([rng.normal(scale=s, size=5000) for s in (1.0, 30.0, 400.0)])
        assert all(same(_expit(x), expit(x)) for x in xs.tolist())

    @pytest.mark.parametrize(
        "x", [800.0, -800.0, -709.0, -709.5, -709.78, -709.79, -745.2, 0.0, -0.0,
              math.inf, -math.inf, math.nan],
    )
    def test_matches_scipy_at_the_extremes(self, x):
        # -709.5 gives a subnormal, not 0: exp(709.5) is still a finite double
        assert same(_expit(x), expit(x))


class TestFordsCondition:
    """``mle_newman`` refuses a win matrix exactly when scipy finds it not strongly connected."""

    def test_matches_scipy_on_random_win_matrices(self):
        rng = np.random.default_rng(1)
        refused = 0
        for _ in range(400):
            wins = random_wins(rng)
            w = WinMatrix(entities=tuple(f"e{i}" for i in range(len(wins))), wins=wins)
            beats = wins > 0
            if connected_components(beats, directed=True, connection="strong")[0] > 1:
                refused += 1
                with pytest.raises(RuntimeError, match="along no chain") as info:
                    mle_newman(w)
                # the named pair is a real counterexample: no chain of wins links them
                winner, loser = (int(e) for e in re.findall(r"'e(\d+)'", str(info.value)))
                assert loser not in breadth_first_order(beats, winner, return_predecessors=False)
            else:
                assert np.isfinite(mle_newman(w)).all()
        assert 100 < refused < 300


class TestCorrelations:
    @staticmethod
    def check(x, y):
        with warnings.catch_warnings():
            # scipy warns on a constant input; the package returns NaN silently
            warnings.simplefilter("ignore")
            expected_s, expected_p = spearmanr(x, y)[0], pearsonr(x, y)[0]
        assert same(_spearman(x, y), expected_s)
        assert same(_pearson(x, y), expected_p)

    def test_random_inputs(self):
        rng = np.random.default_rng(2)
        for n in range(3, 40):
            for scale in (1e-4, 1.0, 1e4):
                x = rng.normal(scale=scale, size=n)
                self.check(x, 0.5 * x / scale + rng.normal(size=n))
                self.check(x + 1e3, rng.normal(size=n))

    def test_tied_inputs(self):
        rng = np.random.default_rng(3)
        for n in range(3, 30):
            self.check(rng.integers(0, 4, size=n).astype(float),
                       rng.integers(0, 3, size=n).astype(float))

    def test_two_points(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            self.check(rng.normal(size=2), rng.normal(size=2))

    def test_a_constant_input_gives_nan(self):
        x, y = np.full(5, 0.3), np.arange(5.0)
        for a, b in ((x, y), (y, x)):
            self.check(a, b)
            assert math.isnan(_spearman(a, b)) and math.isnan(_pearson(a, b))
