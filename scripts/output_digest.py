"""Print a sha256 digest of every output of six fixed-seed btrank runs.

Run it at two commits and diff the results: identical lines mean the commits
write byte-identical outputs for these runs, so a change that is meant to keep
the random stream and every output format can be checked in one step::

    python3 scripts/output_digest.py > after.txt
    python3 scripts/output_digest.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the root of the checkout to run (default: the one
holding this script); its ``src`` goes on ``PYTHONPATH`` and its ``data`` is
the input.  Each line is ``sha256  relative/path``.  A run's stdout is
digested as ``<run>.stdout`` after its output directory is replaced by
``<out>``.  Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STUDY_SPEC = "m = 6\nk_comparisons = 50\nreplications = 3\nlength_scales = 0.25, 0.5\nseed = 7\n"


def runs(data: Path, work: Path) -> list[tuple[str, list[str]]]:
    inputs = [
        "--indicators", str(data / "indicators.csv"),
        "--polarity", str(data / "polarity.csv"),
        "--income", str(data / "income.csv"),
    ]
    spec = work / "study.cfg"
    spec.write_text(STUDY_SPEC, encoding="utf-8")
    return [
        ("fit_thinned", ["fit", *inputs, "--beta", "0.009", "--iterations", "6000",
                         "--thin", "4", "--seed", "3", "--export-win-matrix"]),
        ("fit_options", ["fit", *inputs, "--zones", "high,middle",
                         "--kernel", "rational_quadratic", "--mixture", "2",
                         "--fix-variance", "0.3", "--beta", "0.05",
                         "--iterations", "3000", "--seed", "5"]),
        ("mle_drop", ["mle", *inputs, "--missing-policy", "drop_entities",
                      "--drop-entities", "Chandigarh"]),
        ("diagnose", ["diagnose", str(work / "fit_thinned" / "chain.npz"),
                      "--window", "7", "--bandwidth", "9"]),
        ("diagnose_subset", ["diagnose", str(work / "fit_thinned" / "chain.npz"),
                             "--trace-params", "merit0,variance"]),
        ("simulate", ["simulate", str(spec), "--iterations", "2000", "--beta", "0.3"]),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = []
        for name, args in runs(root / "data", work):
            out = work / name
            proc = subprocess.run(
                [sys.executable, "-m", "btrank", *args, "--out", str(out)],
                capture_output=True, env=env, check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            stdout = proc.stdout.replace(str(out).encode(), b"<out>")
            lines.append(f"{sha256(stdout)}  {name}.stdout")
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(work)}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
