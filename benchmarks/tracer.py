"""Traced run of one btrank command, for per-layer times.

    python benchmarks/tracer.py SPANS_JSON BTRANK_ARGS...

Replaces the module attributes that ``btrank.cli``, ``btrank.sim`` and
``btrank.diagnostics`` look up at call time with timing wrappers, runs
``btrank.cli.main`` in this process and writes the recorded spans and a few
counts to SPANS_JSON.  No file of the package is edited, and the wrappers
only read the clock, so the outputs match an untraced run byte for byte.

``layer_metrics`` turns that file into the per-layer metrics; it needs no
btrank import, so the harness can call it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# attributes looked up at call time by the CLI, the study loop and diagnose
HOOKS = {
    "btrank.cli": (
        "load_dataset", "apply_missing_policy", "income_for_entities", "build_win_matrix",
        "build_prior", "run_chain", "save_chain", "diagnose", "trace_export", "mle_newman",
        "summarize", "export_report", "run_recovery_study", "write_study_csv",
    ),
    "btrank.diagnostics": (
        "sample_covariance", "spectral_longrun", "univariate_ess", "rank_stability_series",
    ),
    "btrank.sim": ("simulate_win_matrix", "run_chain", "mle_newman"),
}

# per-layer metric -> (unit, better, end-to-end metrics it should move, workloads where it shows)
LAYER_MAP = {
    "mcmc.us_per_iter": ("us", "lower", "wall_s ess_per_s", "fit_thinned recovery_study"),
    "mcmc.chain_s": ("s", "lower", "wall_s", "recovery_study fit_thinned"),
    "bt.loglik_us": ("us", "lower", "wall_s ess_per_s", "fit_thinned recovery_study"),
    "mcmc.accept_ratio": ("ratio", "higher", "ess_per_s", "fit_thinned fit_full_trace"),
    "diagnostics.ess": ("count", "higher", "ess_per_s", "fit_thinned fit_full_trace recovery_study"),
    "diagnostics.diagnose_s": ("s", "lower", "wall_s peak_rss_mb", "fit_full_trace"),
    "diagnostics.diagnose_self_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "diagnostics.sample_cov_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "diagnostics.longrun_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "diagnostics.univariate_ess_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "diagnostics.rank_stability_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "diagnostics.trace_export_s": ("s", "lower", "wall_s peak_rss_mb", "fit_full_trace"),
    "diagnostics.trace_rows": ("count", "lower", "wall_s peak_rss_mb", "fit_full_trace"),
    "report.summarize_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "report.export_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "cli.self_s": ("s", "lower", "wall_s peak_rss_mb", "fit_full_trace"),
    "cli.output_bytes": ("bytes", "lower", "wall_s", "fit_full_trace"),
    "mcmc.save_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "mcmc.chain_bytes": ("bytes", "lower", "wall_s", "fit_full_trace"),
    "mcmc.load_s": ("s", "lower", "wall_s", "fit_full_trace"),
    "sim.study_s": ("s", "lower", "wall_s", "recovery_study"),
    "sim.study_self_s": ("s", "lower", "wall_s", "recovery_study"),
    "sim.simulate_wins_s": ("s", "lower", "wall_s", "recovery_study"),
    "bt.mle_s": ("s", "lower", "wall_s", "recovery_study"),
    "data.load_s": ("s", "lower", "setup_s", "fit_thinned fit_full_trace"),
    "wins.build_s": ("s", "lower", "setup_s", "fit_thinned fit_full_trace"),
    "prior.build_s": ("s", "lower", "setup_s", "fit_thinned fit_full_trace"),
    "wins.comparisons": ("count", "higher", "setup_s", "fit_thinned fit_full_trace"),
    "prior.rank": ("count", "higher", "setup_s", "fit_thinned fit_full_trace"),
    "trace.overhead_s": ("s", "lower", "none (cost of tracing)", "all"),
}

# results kept past the call, reduced to what the counts need
OBSERVE = {
    "mcmc.run_chain": lambda samples: samples,
    "diagnostics.diagnose": lambda report: report.ess,
    "diagnostics.trace_export": lambda rows: len(rows[0]),
    "wins.build_win_matrix": lambda w: w,
    "sim.simulate_win_matrix": lambda w: w,
    "prior.build_prior": lambda cov: cov.rank,
}

LOGLIK_REPEATS = 300
LOGLIK_BATCH = 10


class Tracer:
    """Spans recorded in memory as ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.observed: dict[str, list] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._wrapped: list[tuple] = []

    def call(self, name, func, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        keep = OBSERVE.get(name)

        def timed(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if keep is not None:
                self.observed.setdefault(name, []).append(keep(result))
            return result

        self._wrapped.append((module, attr, original))
        setattr(module, attr, timed)

    def unwrap(self) -> None:
        """Put the original functions back, so later calls record no spans."""
        for module, attr, original in reversed(self._wrapped):
            setattr(module, attr, original)
        self._wrapped.clear()


def _loglik_us(w) -> float:
    """Median wall time of one ``bt.log_likelihood`` call on ``w``, in microseconds."""
    import numpy as np

    from btrank.bt import log_likelihood

    merits = np.random.default_rng(0).standard_normal((LOGLIK_BATCH, w.m))
    merits -= merits.mean(axis=1, keepdims=True)
    per_call = []
    for _ in range(LOGLIK_REPEATS):
        start = time.perf_counter()
        for row in merits:
            log_likelihood(row, w)
        per_call.append((time.perf_counter() - start) / LOGLIK_BATCH)
    return statistics.median(per_call) * 1e6


def _counts(tracer: Tracer, out: Path) -> dict:
    """Counts and read-back timings taken after ``main`` returned."""
    from btrank.diagnostics import multivariate_ess
    from btrank.mcmc import load_chain
    from btrank.wins import total_comparisons

    obs = tracer.observed
    chains = obs.get("mcmc.run_chain", [])
    counts = {
        "iterations": sum(s.config.iterations for s in chains),
        "accepted": sum(s.accepted for s in chains),
        "proposed": sum(s.proposed for s in chains),
        "trace_rows": sum(obs.get("diagnostics.trace_export", [])),
        "output_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }
    reports = obs.get("diagnostics.diagnose", [])
    # the study runs no diagnostics, so its chains are measured here, untimed
    counts["ess"] = (sum(reports) if reports
                     else sum(multivariate_ess(s.merit_draws)[0] for s in chains))
    fixture_wins = obs.get("wins.build_win_matrix", [])
    if fixture_wins:
        counts["comparisons"] = total_comparisons(fixture_wins[0])
    if obs.get("prior.build_prior"):
        counts["prior_rank"] = obs["prior.build_prior"][0]
    wins = fixture_wins or obs.get("sim.simulate_win_matrix", [])
    if wins:
        counts["loglik_us"] = _loglik_us(wins[0])
    dump = out / "chain.npz"
    if dump.exists():
        counts["chain_bytes"] = dump.stat().st_size
        start = time.perf_counter()
        load_chain(dump)
        counts["load_s"] = time.perf_counter() - start
    return counts


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    for module_name, attrs in HOOKS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            tracer.wrap(module, attr)
    import btrank.cli

    code = tracer.call("cli.main", btrank.cli.main, cli_args)
    after_main = time.perf_counter()
    tracer.unwrap()
    out = Path(cli_args[cli_args.index("--out") + 1])
    counts = _counts(tracer, out) if code == 0 else {}
    payload = {
        "exit_code": code,
        "spans": tracer.spans,
        "counts": counts,
        "missing_hooks": tracer.missing,
        "after_main_s": time.perf_counter() - after_main,
    }
    spans_path.write_text(json.dumps(payload), encoding="utf-8")
    return code


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def span_table(spans: list[list]) -> dict[str, dict]:
    """Calls, total time and total self time per span name."""
    table: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "each_s": []})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        row["each_s"].append(end - start)
    return table


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of ``LAYER_MAP`` from a SPANS_JSON payload.

    A layer the workload never enters reads 0.  ``trace.overhead_s`` needs the
    untraced runs and is filled in by the harness.
    """
    table = span_table(trace["spans"])
    counts = trace["counts"]

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def own(name):
        return table[name]["self_s"] if name in table else 0.0

    chain_each = table.get("mcmc.run_chain", {}).get("each_s", [])
    proposed = counts.get("proposed", 0)
    iterations = counts.get("iterations", 0)
    return {
        "mcmc.us_per_iter": total("mcmc.run_chain") / iterations * 1e6 if iterations else 0.0,
        "mcmc.chain_s": statistics.median(chain_each) if chain_each else 0.0,
        "bt.loglik_us": counts.get("loglik_us", 0.0),
        "mcmc.accept_ratio": counts.get("accepted", 0) / proposed if proposed else 0.0,
        "diagnostics.ess": counts.get("ess", 0.0),
        "diagnostics.diagnose_s": total("diagnostics.diagnose"),
        "diagnostics.diagnose_self_s": own("diagnostics.diagnose"),
        "diagnostics.sample_cov_s": total("diagnostics.sample_covariance"),
        "diagnostics.longrun_s": total("diagnostics.spectral_longrun"),
        "diagnostics.univariate_ess_s": total("diagnostics.univariate_ess"),
        "diagnostics.rank_stability_s": total("diagnostics.rank_stability_series"),
        "diagnostics.trace_export_s": total("diagnostics.trace_export"),
        "diagnostics.trace_rows": counts.get("trace_rows", 0),
        "report.summarize_s": total("report.summarize"),
        "report.export_s": total("report.export_report"),
        "cli.self_s": own("cli.main"),
        "cli.output_bytes": counts.get("output_bytes", 0),
        "mcmc.save_s": total("mcmc.save_chain"),
        "mcmc.chain_bytes": counts.get("chain_bytes", 0),
        "mcmc.load_s": counts.get("load_s", 0.0),
        "sim.study_s": total("sim.run_recovery_study"),
        "sim.study_self_s": own("sim.run_recovery_study"),
        "sim.simulate_wins_s": total("sim.simulate_win_matrix"),
        "bt.mle_s": total("bt.mle_newman"),
        "data.load_s": total("data.load_dataset", "data.apply_missing_policy",
                             "data.income_for_entities"),
        "wins.build_s": total("wins.build_win_matrix"),
        "prior.build_s": total("prior.build_prior"),
        "wins.comparisons": counts.get("comparisons", 0),
        "prior.rank": counts.get("prior_rank", 0),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
