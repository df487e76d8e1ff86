"""Print a sha256 digest of every output of twelve fixed-seed btrank runs.

Run it at two commits and diff the results: identical lines mean the commits
write byte-identical outputs for these runs, so a change that is meant to keep
the random stream and every output format can be checked in one step::

    python3 scripts/output_digest.py > after.txt
    python3 scripts/output_digest.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the root of the checkout to run (default: the one
holding this script); its ``src`` goes on ``PYTHONPATH`` and its ``data`` is
the input.  The output opens with ``# key: value`` lines naming the machine
(``machine()``); each line after them is ``sha256  relative/path``.  A run's
stdout is digested as ``<run>.stdout`` after its output directory is replaced
by ``<out>``.  ``output_digest.txt`` beside this script is the output at the
current commit, whose digest lines ``tests/test_output_digest.py`` checks on
every machine; a change that moves an output rewrites it::

    python3 scripts/output_digest.py > scripts/output_digest.txt
"""

from __future__ import annotations

import hashlib
import os
import platform
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
    # one contest per pair: some replications have no likelihood estimate
    sparse = work / "sparse.cfg"
    sparse.write_text("m = 6\nk_comparisons = 1\nreplications = 4\nseed = 7\n", encoding="utf-8")
    return [
        ("fit_thinned", ["fit", *inputs, "--beta", "0.009", "--iterations", "6000",
                         "--thin", "4", "--seed", "3", "--export-win-matrix"]),
        ("fit_options", ["fit", *inputs, "--zones", "high,middle",
                         "--kernel", "rational_quadratic", "--mixture", "2",
                         "--fix-variance", "0.3", "--beta", "0.05",
                         "--iterations", "3000", "--seed", "5"]),
        # a thin above mcmc.BLOCK leaves some blocks without a kept draw
        ("fit_rank_adjusted", ["fit", *inputs, "--rank-adjusted-shape", "true",
                               "--iterations", "120000", "--burn-in", "1500",
                               "--thin", "1100", "--seed", "9"]),
        # the only exported win matrix whose contest counts leave ties out
        ("fit_tie_drop", ["fit", *inputs, "--tie-policy", "drop", "--export-win-matrix",
                          "--iterations", "3000", "--seed", "4"]),
        # acceptance about 0.014: runs of about 70 equal trace rows cross the
        # 1,024-row chunk edges of data.write_long_csv
        ("fit_sticky", ["fit", *inputs, "--beta", "0.03", "--iterations", "4000", "--seed", "6"]),
        # 100,003 kept draws: above diagnostics.TRACE_EXPORT_CAP, so traces.csv
        # holds every second draw
        ("fit_strided", ["fit", *inputs, "--iterations", "100003", "--burn-in", "0", "--seed", "7"]),
        ("mle_drop", ["mle", *inputs, "--missing-policy", "drop_entities",
                      "--drop-entities", "Chandigarh"]),
        ("mle_tie_drop", ["mle", *inputs, "--tie-policy", "drop"]),
        ("diagnose", ["diagnose", str(work / "fit_thinned" / "chain.npz"),
                      "--window", "7", "--bandwidth", "9"]),
        ("diagnose_subset", ["diagnose", str(work / "fit_thinned" / "chain.npz"),
                             "--trace-params", "merit0,variance"]),
        ("simulate", ["simulate", str(spec), "--iterations", "2000", "--beta", "0.3"]),
        ("simulate_sparse", ["simulate", str(sparse), "--iterations", "2000", "--beta", "0.3"]),
    ]


def machine() -> list[str]:
    """What the digests depend on beside the code and the data, as ``# key: value`` lines.

    The CPU and its SIMD extensions choose numpy's and OpenBLAS's kernels, which
    can differ in the last bit; the C library's ``exp`` draws the simulated wins.
    """
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return [
        f"# cpu: {cpu}",
        f"# simd: {' '.join(config['SIMD Extensions']['found'])}",
        f"# python: {platform.python_version()}",
        f"# numpy: {np.__version__}",
        f"# blas: {blas['name']} {blas['version']}",
        f"# libc: {' '.join(platform.libc_ver())}",
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = machine()
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
