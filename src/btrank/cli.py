"""Command line front end with fit, mle, diagnose, and simulate subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bt import mle_newman
from .data import apply_missing_policy, income_for_entities, load_dataset, subset_by_zone
from .diagnostics import diagnose, rank_entities, trace_export
from .mcmc import SamplerConfig, load_chain, read_chain_metadata, run_chain, save_chain
from .prior import RATIONAL_QUADRATIC, KernelSpec, build_prior
from .report import export_report, summarize
from .sim import SimStudySpec, run_recovery_study, write_study_csv
from .wins import build_win_matrix, export_win_matrix, total_comparisons

# acceptance rates outside this band get a stderr warning (target is 20-30%)
ACCEPT_BAND = (0.15, 0.45)

_MISSING = object()


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _optional(parse):
    def inner(raw: str):
        lowered = raw.strip().lower()
        if lowered in ("", "none"):
            return None
        return parse(raw)

    return inner


def _csv_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


RUN_DEFAULTS = {
    "indicators": None,
    "polarity": None,
    "income": None,
    "out": "btrank_out",
    "missing_policy": "drop_indicators",
    "drop_entities": (),
    "tie_policy": "split",
    "zones": (),
    "low_income_max": 100_000.0,
    "middle_income_max": 200_000.0,
    "kernel": "squared_exponential",
    "length_scale": 0.09,
    "mixture": 1.0,
    "jitter": 1e-10,
    "beta": 0.009,
    "iterations": 3_000_000,
    "burn_in": None,
    "thin": 1,
    "prior_shape": 2.0,
    "prior_scale": 1.0,
    "seed": 0,
    "fix_variance": None,
    "rank_adjusted_shape": False,
    "threshold": 1e-8,
    "bandwidth": None,
    "window": None,
    "level": 0.95,
    "trace_params": "all",
    "export_win_matrix": False,
}

RUN_COERCERS = {
    "indicators": str,
    "polarity": str,
    "income": str,
    "out": str,
    "missing_policy": str,
    "drop_entities": _csv_list,
    "tie_policy": str,
    "zones": _csv_list,
    "low_income_max": float,
    "middle_income_max": float,
    "kernel": str,
    "length_scale": float,
    "mixture": float,
    "jitter": float,
    "beta": float,
    "iterations": int,
    "burn_in": _optional(int),
    "thin": int,
    "prior_shape": float,
    "prior_scale": float,
    "seed": int,
    "fix_variance": _optional(float),
    "rank_adjusted_shape": _parse_bool,
    "threshold": float,
    "bandwidth": _optional(int),
    "window": _optional(int),
    "level": float,
    "trace_params": str,
    "export_win_matrix": _parse_bool,
}

SIM_DEFAULTS = {
    "m": 10,
    "k_comparisons": 100,
    "kernel": "squared_exponential",
    "length_scales": (0.5,),
    "mixture": 1.0,
    "prior_variance": 1.0,
    "replications": 20,
    "seed": 0,
    "beta": 0.2,
    "iterations": 100_000,
    "burn_in": None,
    "thin": 1,
    "prior_shape": 2.0,
    "prior_scale": 1.0,
    "out": "btrank_out",
}

SIM_COERCERS = {
    "m": int,
    "k_comparisons": int,
    "kernel": str,
    "length_scales": _float_list,
    "mixture": float,
    "prior_variance": float,
    "replications": int,
    "seed": int,
    "beta": float,
    "iterations": int,
    "burn_in": _optional(int),
    "thin": int,
    "prior_shape": float,
    "prior_scale": float,
    "out": str,
}


def read_config_file(path, coercers) -> dict:
    """Parse a flat ``key = value`` file, coercing each known key's type."""
    options = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in coercers:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
            try:
                options[key] = coercers[key](raw.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return options


def _merged_options(args, defaults, coercers) -> dict:
    options = dict(defaults)
    if getattr(args, "config", None):
        options.update(read_config_file(args.config, coercers))
    for key in defaults:
        value = getattr(args, key, _MISSING)
        if value is not _MISSING and value is not None:
            options[key] = value
    return options


def _kernel_spec(options) -> KernelSpec:
    mixture = options["mixture"] if options["kernel"] == RATIONAL_QUADRATIC else None
    return KernelSpec(options["kernel"], options["length_scale"], mixture)


def _sampler_config(options, kernel) -> SamplerConfig:
    return SamplerConfig(
        beta=options["beta"],
        iterations=options["iterations"],
        burn_in=options["burn_in"],
        thin=options["thin"],
        prior_shape=options["prior_shape"],
        prior_scale=options["prior_scale"],
        seed=options["seed"],
        kernel=kernel,
        fix_variance=options.get("fix_variance"),
        rank_adjusted_shape=options.get("rank_adjusted_shape", False),
    )


def _load_tables(options):
    for key in ("indicators", "polarity", "income"):
        if not options[key]:
            raise ValueError(f"no {key} file given (flag --{key} or config key '{key}')")
    table, income = load_dataset(
        options["indicators"],
        options["polarity"],
        options["income"],
        low_max=options["low_income_max"],
        middle_max=options["middle_income_max"],
    )
    table = apply_missing_policy(table, options["missing_policy"], options["drop_entities"])
    income = income_for_entities(income, table.entities)
    if options["zones"]:
        table, income = subset_by_zone(table, income, options["zones"])
    return table, income


def _out_dir(options) -> Path:
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_rows(path, header, rows, formats) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(value) for fmt, value in zip(formats, row)])


def _write_diagnostics(out: Path, samples, options, extra_flags, cov=None, wins=None):
    report = diagnose(
        samples,
        threshold=options["threshold"],
        bandwidth=options["bandwidth"],
        window=options["window"],
        extra_flags=extra_flags,
    )
    _write_json(report.to_dict(), out / "diagnostics.json")

    params = options["trace_params"]
    if params != "all":
        params = _csv_list(params)
    trace_rows, acf_rows = trace_export(
        samples, params, cov=cov, wins=wins, bandwidth=options["bandwidth"]
    )
    _write_rows(
        out / "traces.csv",
        ["draw", "parameter", "value"],
        trace_rows,
        (str, str, lambda v: f"{v:.17g}"),
    )
    _write_rows(
        out / "acf.csv",
        ["lag", "parameter", "autocorrelation"],
        acf_rows,
        (str, str, lambda v: f"{v:.17g}"),
    )
    _write_rows(out / "kendall.csv", ["draw", "distance"], report.kendall_series, (str, str))
    return report


def _preview(report) -> list[str]:
    by_rank = sorted(range(report.m), key=lambda i: report.rank[i])
    lines = []
    for label, idx in (("top", by_rank[:5]), ("bottom", by_rank[-5:])):
        entries = ", ".join(
            f"{report.rank[i]}. {report.entities[i]} ({report.mean[i]:+.3f})" for i in idx
        )
        lines.append(f"  {label}: {entries}")
    return lines


def cmd_fit(args) -> int:
    options = _merged_options(args, RUN_DEFAULTS, RUN_COERCERS)
    table, income = _load_tables(options)
    w = build_win_matrix(table, options["tie_policy"])
    kernel = _kernel_spec(options)
    cov = build_prior(income, kernel, jitter=options["jitter"])
    config = _sampler_config(options, kernel)

    print(
        f"fit: {w.m} entities, {table.k} indicators, {total_comparisons(w)} comparisons; "
        f"{config.iterations} iterations (burn-in {config.burn_in}, thin {config.thin})"
    )
    samples = run_chain(w, cov, config)

    out = _out_dir(options)
    if options["export_win_matrix"]:
        export_win_matrix(w, out / "win_matrix.csv")
    save_chain(
        samples,
        out / "chain.npz",
        metadata={"jitter_applied": cov.jitter_applied, "entities": list(w.entities)},
    )
    report = _write_diagnostics(
        out, samples, options, {"jitter_applied": cov.jitter_applied}, cov=cov, wins=w
    )

    baseline = None
    try:
        baseline = mle_newman(w)
    except RuntimeError as exc:
        print(f"warning: skipping likelihood baseline: {exc}", file=sys.stderr)
    ranking = summarize(samples, w.entities, level=options["level"], mle_merits=baseline)
    export_report(ranking, "csv", out / "ranking.csv")
    export_report(ranking, "json", out / "ranking.json")

    rate = report.acceptance_rate
    print(f"acceptance rate {rate:.3f}, ess {report.ess:.1f} on a rank-{report.rank_est} subspace")
    for line in _preview(ranking):
        print(line)
    print(f"outputs written to {out}")
    if not ACCEPT_BAND[0] <= rate <= ACCEPT_BAND[1]:
        print(
            f"warning: acceptance rate {rate:.3f} is outside [{ACCEPT_BAND[0]}, {ACCEPT_BAND[1]}]; "
            "aim for roughly 20-30% by adjusting beta",
            file=sys.stderr,
        )
    return 0


def cmd_mle(args) -> int:
    options = _merged_options(args, RUN_DEFAULTS, RUN_COERCERS)
    table, income = _load_tables(options)
    w = build_win_matrix(table, options["tie_policy"])
    merits = mle_newman(w)
    ranks = rank_entities(merits, w.entities)

    out = _out_dir(options)
    _write_rows(
        out / "mle_ranking.csv",
        ["entity", "merit", "rank"],
        [(name, merits[i], int(ranks[i])) for i, name in enumerate(w.entities)],
        (str, lambda v: f"{v:.17g}", str),
    )
    best = sorted(range(w.m), key=lambda i: ranks[i])[:5]
    print(f"mle: {w.m} entities, {table.k} indicators, {total_comparisons(w)} comparisons")
    print("  top: " + ", ".join(f"{ranks[i]}. {w.entities[i]} ({merits[i]:+.3f})" for i in best))
    print(f"outputs written to {out}")
    return 0


def cmd_diagnose(args) -> int:
    options = _merged_options(args, RUN_DEFAULTS, RUN_COERCERS)
    samples = load_chain(args.chain)
    extra = read_chain_metadata(args.chain)
    flags = {"jitter_applied": extra["jitter_applied"]} if "jitter_applied" in extra else {}
    out = _out_dir(options)
    report = _write_diagnostics(out, samples, options, flags)
    print(
        f"diagnose: {samples.n_kept} kept draws, acceptance {report.acceptance_rate:.3f}, "
        f"ess {report.ess:.1f} on a rank-{report.rank_est} subspace"
    )
    print(f"outputs written to {out}")
    return 0


def cmd_simulate(args) -> int:
    options = dict(SIM_DEFAULTS)
    options.update(read_config_file(args.spec, SIM_COERCERS))
    for key in ("seed", "iterations", "beta", "out"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value

    mixture = options["mixture"] if options["kernel"] == RATIONAL_QUADRATIC else None
    base_scale = options["length_scales"][0] if options["length_scales"] else 0.5
    kernel = KernelSpec(options["kernel"], base_scale, mixture)
    spec = SimStudySpec(
        m=options["m"],
        k_comparisons=options["k_comparisons"],
        kernel=kernel,
        length_scales=tuple(options["length_scales"]),
        prior_variance=options["prior_variance"],
        replications=options["replications"],
        seed=options["seed"],
    )
    sampler = SamplerConfig(
        beta=options["beta"],
        iterations=options["iterations"],
        burn_in=options["burn_in"],
        thin=options["thin"],
        prior_shape=options["prior_shape"],
        prior_scale=options["prior_scale"],
        kernel=kernel,
    )
    rows = run_recovery_study(spec, sampler)
    out = _out_dir(options)
    write_study_csv(rows, out / "study.csv")

    for method in ("bayes", "mle"):
        scores = [row["spearman"] for row in rows if row["method"] == method]
        print(f"  {method}: median spearman {np.nanmedian(scores):.3f} over {len(scores)} cells")
    print(f"outputs written to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation failures, same exit code as bad config values
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _add_option(parser, key, coercers, help_text="", flag=None):
    flag = flag or "--" + key.replace("_", "-")
    parser.add_argument(flag, dest=key, type=coercers[key], default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btrank", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="sample the posterior and rank")
    mle = commands.add_parser("mle", help="likelihood-only ranking")
    for sub in (fit, mle):
        sub.add_argument("--config", help="flat key = value configuration file")
        for key in ("indicators", "polarity", "income", "out", "missing_policy",
                    "drop_entities", "tie_policy", "zones", "low_income_max",
                    "middle_income_max"):
            _add_option(sub, key, RUN_COERCERS)
    for key in ("kernel", "length_scale", "mixture", "jitter", "beta", "iterations",
                "burn_in", "thin", "prior_shape", "prior_scale", "seed", "fix_variance",
                "rank_adjusted_shape", "threshold", "bandwidth", "window", "level",
                "trace_params"):
        _add_option(fit, key, RUN_COERCERS)
    fit.add_argument(
        "--export-win-matrix", dest="export_win_matrix", action="store_const", const=True,
        default=None, help="also write the counted wins as CSV",
    )
    fit.set_defaults(func=cmd_fit)
    mle.set_defaults(func=cmd_mle)

    diag = commands.add_parser("diagnose", help="recompute diagnostics from a saved chain")
    diag.add_argument("chain", help="chain dump written by fit")
    diag.add_argument("--config", help="flat key = value configuration file")
    for key in ("out", "threshold", "bandwidth", "window", "trace_params"):
        _add_option(diag, key, RUN_COERCERS)
    diag.set_defaults(func=cmd_diagnose)

    sim = commands.add_parser("simulate", help="synthetic merit recovery study")
    sim.add_argument("spec", help="study design as a flat key = value file")
    for key in ("seed", "iterations", "beta", "out"):
        _add_option(sim, key, SIM_COERCERS)
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
