"""Every output of the fixed-seed runs in ``scripts/output_digest.py`` is byte-identical to the record.

``scripts/output_digest.txt`` holds the digests at the current commit under
the ``# key: value`` lines naming the machine they were made on.  The digest
lines are compared on every machine.  Elsewhere the last bits of numpy's and
OpenBLAS's kernels may differ, so where the digests differ on a machine that
the record does not name, the test is skipped, not failed; the skip names the
first differing line.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
RECORD = SCRIPT.with_name("output_digest.txt")


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def split(lines: list[str]) -> tuple[list[str], list[str]]:
    """The leading ``# key: value`` machine lines and the digest lines after them."""
    header = list(itertools.takewhile(lambda line: line.startswith("#"), lines))
    return header, lines[len(header) :]


def test_outputs_match_the_recorded_digests(capsys):
    script = load_script()
    header, recorded = split(RECORD.read_text(encoding="utf-8").splitlines())
    assert script.main([]) == 0, capsys.readouterr().err
    machine, fresh = split(capsys.readouterr().out.splitlines())
    if fresh != recorded and machine != header:
        first = next(
            (got, want) for got, want in itertools.zip_longest(fresh, recorded) if got != want
        )
        pytest.skip(
            "the digests were recorded on another machine and differ here, first at "
            f"{first[0]!r} (recorded {first[1]!r}); recorded on: " + "; ".join(header)
        )
    # a change meant to move an output rewrites the record in the same commit (see the script)
    assert fresh == recorded
