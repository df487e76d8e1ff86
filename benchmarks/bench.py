"""Benchmark harness for btrank.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A workload is one ``python -m btrank ...``
command, run as a child process with ``src`` on the path.  For about
``--seconds`` seconds the harness runs the command again and again, one
child at a time, with a fresh set-up child (``prepare.py``) before every
third run; at least three of each.  Every run's outputs are checked (``checks.py``) and must be
byte-identical across the runs of one invocation.

Each timed child follows a reference probe (``reference.py``), fixed work
that uses no btrank code.  The speed of a shared host drifts by a third over
minutes, and a child and the probe just before it slow down together, so
``wall_s`` and ``setup_s`` are each child's wall time divided by its probe's
and multiplied by ``REFERENCE_S``: seconds on a machine where the probe takes
``REFERENCE_S``.  The raw wall times are in the record line.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, each the median over the untraced runs.  With ``--trace 1`` it holds
the per-layer metrics of one extra traced run (``tracer.py``), whose outputs
must match the untraced ones.  The line before it is the full record: the
machine, quartiles and run counts, every run, the failure rate and, when
traced, the self time of every span.

BLAS keeps its default thread count; the thread variables are recorded, not
set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE = ("data/indicators.csv", "data/polarity.csv", "data/income.csv")

MIN_RUNS = 3
# reported times are seconds on a machine where reference.py takes this long
REFERENCE_S = 1.0
# a set-up child before every SETUP_EVERY-th run leaves most of the time to the runs
SETUP_EVERY = 3
# a traced run takes about this many untraced runs' time
TRACE_FACTOR = 1.3
# an invocation must end within 180 s
BUDGET_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the output checks read results through the package's own loaders
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """A ``btrank`` subcommand (``fit`` or ``simulate``) at a fixed size."""

    command: str
    iterations: int
    thin: int = 1


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "fit_thinned": Workload("fit", 40_000, thin=20),
    "fit_full_trace": Workload("fit", 16_000),
    "recovery_study": Workload("simulate", 4_000),
}

# criterion-6 design; the seed is the workload seed
REPLICATIONS = 20
STUDY_SPEC = """\
m = 10
k_comparisons = 100
kernel = squared_exponential
length_scales = 0.5
replications = {replications}
beta = 0.2
seed = {seed}
"""


def cli_args(workload: Workload, seed: int, out: Path, work: Path) -> list[str]:
    """Arguments after ``btrank`` for one run of ``workload``."""
    if workload.command == "fit":
        indicators, polarity, income = FIXTURE
        return [
            "fit", "--indicators", indicators, "--polarity", polarity, "--income", income,
            "--beta", "0.009", "--length-scale", "0.09",
            "--iterations", str(workload.iterations), "--thin", str(workload.thin),
            "--seed", str(seed), "--out", str(out),
        ]
    spec = work / "study.cfg"
    spec.write_text(STUDY_SPEC.format(replications=REPLICATIONS, seed=seed), encoding="utf-8")
    return ["simulate", str(spec), "--iterations", str(workload.iterations), "--out", str(out)]


@dataclass
class Run:
    """One child process: what it cost and what was wrong with it."""

    kind: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    ess: float | None = None
    reference_s: float | None = None

    @property
    def scaled_s(self) -> float:
        """Wall time relative to the reference probe run just before this child."""
        return self.wall_s / self.reference_s * REFERENCE_S

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(kind: str, argv: list[str], log: Path, deadline: float) -> Run:
    """Run ``argv`` from the root to completion, killing it at ``deadline``.

    Wall time and peak RSS (``ru_maxrss`` from ``wait4``) are this child's own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = time.perf_counter()
    with open(log, "wb") as handle:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=handle, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    finished = False
    try:
        timeout = max(0.0, deadline - time.perf_counter())
        finished = bool(select.select([pidfd], [], [], timeout)[0])
    finally:
        if not finished:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(kind, wall, usage.ru_maxrss / 1024.0, proc.returncode if finished else None)
    if not finished:
        run.problems.append("killed at the time limit")
    elif proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    return run


def check_outputs(workload: Workload, out: Path) -> tuple[list[str], float | None]:
    """Problems with one run's outputs, and the ESS a fit reports."""
    if workload.command == "fit":
        problems = checks.check_fit(out)
        return problems, (None if problems else checks.read_ess(out))
    return checks.check_study(out, REPLICATIONS), None


class Invocation:
    """The runs of one workload and seed, sharing a deadline and reference outputs."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.reference: dict[str, str] = {}
        self.runs: list[Run] = []

    def probe(self) -> float:
        """Run the reference probe; its wall time."""
        argv = [sys.executable, str(BENCH_DIR / "reference.py")]
        run = run_child("reference", argv, self.work / "reference.log", self.deadline)
        self.runs.append(run)
        return run.wall_s

    def setup(self) -> Run:
        reference_s = self.probe()
        argv = [sys.executable, str(BENCH_DIR / "prepare.py"), self.workload.command]
        run = run_child("setup", argv, self.work / "setup.log", self.deadline)
        run.reference_s = reference_s
        self.runs.append(run)
        return run

    def workload_run(self, kind: str, prefix: list[str], reference_s: float | None = None) -> Run:
        index = len(self.runs)
        out = self.work / f"out{index}"
        args = cli_args(self.workload, self.seed, out, self.work)
        run = run_child(kind, prefix + args, self.work / f"run{index}.log", self.deadline)
        run.reference_s = reference_s
        if run.ok:
            run.problems, run.ess = check_outputs(self.workload, out)
        if run.ok:
            hashes = checks.output_hashes(out)
            if not self.reference:
                self.reference = hashes
            elif hashes != self.reference:
                changed = sorted(k for k in hashes.keys() | self.reference.keys()
                                 if hashes.get(k) != self.reference.get(k))
                run.problems.append(f"outputs differ from the first run: {changed}")
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(run)
        return run

    def cycles(self, seconds: float, traced_after: bool) -> tuple[list[Run], list[Run]]:
        """Untraced runs for about ``seconds``, a set-up child before every third one.

        Interleaving spreads both kinds of sample over the whole invocation,
        so drift of the machine's speed moves them alike.  At least MIN_RUNS
        of each; the traced run, when one follows, is counted in ``seconds``.
        """
        prefix = [sys.executable, "-m", "btrank"]
        setups: list[Run] = []
        runs: list[Run] = []
        start = time.perf_counter()
        while len(runs) < MIN_RUNS or self._room(start, seconds, setups, runs, traced_after):
            if len(runs) % SETUP_EVERY == 0:
                setups.append(self.setup())
            runs.append(self.workload_run("run", prefix, self.probe()))
        while len(setups) < MIN_RUNS:
            setups.append(self.setup())
        return setups, runs

    def _room(self, start, seconds, setups, runs, traced_after) -> bool:
        typical = statistics.median(r.wall_s + r.reference_s for r in runs)
        needed = typical + statistics.median(r.wall_s + r.reference_s for r in setups) / SETUP_EVERY
        if traced_after:
            needed += TRACE_FACTOR * typical
        now = time.perf_counter()
        return now - start + needed <= seconds and now + needed <= self.deadline

    def traced(self) -> tuple[Run, dict]:
        spans = self.work / "spans.json"
        prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans)]
        run = self.workload_run("traced", prefix)
        trace = json.loads(spans.read_text(encoding="utf-8")) if spans.exists() else {}
        if run.ok and trace.get("missing_hooks"):
            run.problems.append(f"hooks not found: {trace['missing_hooks']}")
        return run, trace


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine_record() -> dict:
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "loadavg_start": os.getloadavg(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            workload: Workload | None = None) -> tuple[dict, dict]:
    """Run one workload; return the full record and the result line."""
    workload = workload or WORKLOADS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(), "size": asdict(workload)}
    deadline = time.perf_counter() + BUDGET_S
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Invocation(workload, seed, work, deadline)
    try:
        # the study's ESS comes from the traced run, so the study always has one
        needs_trace = trace or workload.command == "simulate"
        setups, runs = bench.cycles(seconds, needs_trace)
        traced, spans = bench.traced() if needs_trace else (None, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    basis = [r for r in runs if r.ok] or runs
    walls = [r.scaled_s for r in basis]
    if workload.command == "fit":
        ess = [r.ess or 0.0 for r in basis]
    else:
        study_ess = spans.get("counts", {}).get("ess", 0.0) if traced and traced.ok else 0.0
        ess = [study_ess] * len(basis)
    summary = {
        "wall_s": quartiles(walls),
        "ess_per_s": quartiles([e / w for e, w in zip(ess, walls)]),
        "peak_rss_mb": quartiles([r.peak_rss_mb for r in basis]),
        "setup_s": quartiles([r.scaled_s for r in setups]),
    }
    record["raw_s"] = {
        "wall": quartiles([r.wall_s for r in basis]),
        "setup": quartiles([r.wall_s for r in setups]),
        "reference": quartiles([r.wall_s for r in bench.runs if r.kind == "reference"]),
    }
    units = {"wall_s": "s", "ess_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {key: {"value": summary[key]["median"], "unit": units[key]} for key in units}

    if trace:
        layers = tracer.layer_metrics(spans) if spans.get("spans") else {}
        if layers:
            traced_wall = traced.wall_s - spans["after_main_s"]
            layers["trace.overhead_s"] = traced_wall - record["raw_s"]["wall"]["median"]
            record["spans"] = {
                span: {k: v for k, v in row.items() if k != "each_s"}
                for span, row in tracer.span_table(spans["spans"]).items()
            }
        metrics = {key: {"value": layers.get(key, 0.0), "unit": unit}
                   for key, (unit, *_rest) in tracer.LAYER_MAP.items()}
        record["layer_map"] = {key: {"moves": moves, "on": where}
                               for key, (_, _, moves, where) in tracer.LAYER_MAP.items()}

    every = bench.runs
    failed = sum(not r.ok for r in every)
    record.update({
        "summary": summary,
        "attempted": len(every),
        "failed": failed,
        "error_rate": failed / len(every),
        "runs": [r.__dict__ for r in every],
        "loadavg_end": os.getloadavg(),
    })
    result = {"correct": failed == 0, "attempted": len(every), "failed": failed,
              "metrics": metrics}
    return record, result


def missing_inputs() -> list[str]:
    needed = [SRC / "btrank" / "__init__.py", *(ROOT / path for path in FIXTURE)]
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print(f"error: not a btrank checkout, missing {missing}", file=sys.stderr)
        return 2
    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
