"""Every output of the fixed-seed runs in ``scripts/output_digest.py`` is byte-identical to the record.

``scripts/output_digest.txt`` holds the digests at the current commit and the
machine they were made on.  Elsewhere the last bits of numpy's and OpenBLAS's
kernels may differ, so on another machine the test is skipped, not failed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
RECORD = SCRIPT.with_name("output_digest.txt")


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_digests(capsys):
    script = load_script()
    recorded = RECORD.read_text(encoding="utf-8").splitlines()
    header = [line for line in recorded if line.startswith("#")]
    if header != script.machine():
        pytest.skip("the digests were recorded on another machine: " + "; ".join(header))
    assert script.main([]) == 0, capsys.readouterr().err
    fresh = capsys.readouterr().out.splitlines()
    # a change meant to move an output rewrites the record in the same commit (see the script)
    assert fresh == recorded
