"""Command line front end with fit, mle, diagnose, and simulate subcommands."""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bt import NoMleError, mle_newman
from .data import (
    LOW_INCOME_MAX, MIDDLE_INCOME_MAX, apply_missing_policy, income_for_entities, load_dataset,
    subset_by_zone, write_csv, write_json, write_long_csv,
)
from .diagnostics import (
    ESS_MIN_DRAWS, _check_bandwidth, _check_window, _resolve_params, diagnose, rank_entities,
    trace_export, trace_stride,
)
from .mcmc import SamplerConfig, _read_chain, run_chain, save_chain
from .prior import RATIONAL_QUADRATIC, KernelSpec, build_prior
from .report import _check_summary, export_report, summarize
from .sim import SimStudySpec, run_recovery_study, write_study_csv
from .wins import build_win_matrix, export_win_matrix, total_comparisons

# acceptance rates outside this band get a stderr warning (target is 20-30%)
ACCEPT_BAND = (0.15, 0.45)


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


class Option(NamedTuple):
    """One option, declared once.

    ``run`` is its default for fit, mle and diagnose, which share one config
    file format; ``sim`` is its default in a simulate spec file.  ``_UNUSED``
    marks a family that does not read the key.  ``flags`` names the
    subcommands that take it as ``--key-name``.  A non-empty ``switch`` makes
    the flag take no value and mean True, with ``switch`` as its help text.
    """

    key: str
    parse: Callable[[str], object]
    run: object
    sim: object
    flags: tuple[str, ...] = ()
    switch: str = ""


_UNUSED = object()
_LOAD = ("fit", "mle")
_DIAGNOSE = ("fit", "diagnose")

OPTIONS = (
    Option("indicators", str, None, _UNUSED, _LOAD),
    Option("polarity", str, None, _UNUSED, _LOAD),
    Option("income", str, None, _UNUSED, _LOAD),
    Option("out", str, "btrank_out", "btrank_out", ("fit", "mle", "diagnose", "simulate")),
    Option("missing_policy", str, "drop_indicators", _UNUSED, _LOAD),
    Option("drop_entities", _csv_list, (), _UNUSED, _LOAD),
    Option("tie_policy", str, "split", _UNUSED, _LOAD),
    Option("zones", _csv_list, (), _UNUSED, _LOAD),
    Option("low_income_max", float, LOW_INCOME_MAX, _UNUSED, _LOAD),
    Option("middle_income_max", float, MIDDLE_INCOME_MAX, _UNUSED, _LOAD),
    Option("m", int, _UNUSED, 10),
    Option("k_comparisons", int, _UNUSED, 100),
    Option("kernel", str, "squared_exponential", "squared_exponential", ("fit",)),
    Option("length_scale", float, 0.09, _UNUSED, ("fit",)),
    Option("length_scales", _float_list, _UNUSED, (0.5,)),
    Option("mixture", float, 1.0, 1.0, ("fit",)),
    Option("jitter", float, 1e-10, _UNUSED, ("fit",)),
    Option("prior_variance", float, _UNUSED, 1.0),
    Option("replications", int, _UNUSED, 20),
    Option("beta", float, 0.009, 0.2, ("fit", "simulate")),
    Option("iterations", int, 3_000_000, 100_000, ("fit", "simulate")),
    Option("burn_in", _optional(int), None, None, ("fit",)),
    Option("thin", int, 1, 1, ("fit",)),
    Option("prior_shape", float, 2.0, 2.0, ("fit",)),
    Option("prior_scale", float, 1.0, 1.0, ("fit",)),
    Option("seed", int, 0, 0, ("fit", "simulate")),
    Option("fix_variance", _optional(float), None, _UNUSED, ("fit",)),
    Option("bandwidth", _optional(int), None, _UNUSED, _DIAGNOSE),
    Option("window", _optional(int), None, _UNUSED, _DIAGNOSE),
    Option("level", float, 0.95, _UNUSED, ("fit",)),
    Option("trace_params", str, "all", _UNUSED, _DIAGNOSE),
    Option("export_win_matrix", _parse_bool, False, _UNUSED, ("fit",),
           switch="also write the counted wins as CSV"),
)


def read_config_file(path, coercers) -> dict:
    """Parse a flat ``key = value`` file, coercing each known key's type.

    A ``#`` at the start of a line or after whitespace starts a comment.
    """
    options = {}
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in coercers:
                raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
            if key in options:
                raise ValueError(f"{path}:{lineno}: duplicate configuration key {key!r}")
            try:
                options[key] = coercers[key](raw.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return options


def _merged_options(args, family, path) -> dict:
    """The family's defaults, overridden by the file at ``path``, then by the flags given."""
    read = [opt for opt in OPTIONS if getattr(opt, family) is not _UNUSED]
    options = {opt.key: getattr(opt, family) for opt in read}
    if path:
        options.update(read_config_file(path, {opt.key: opt.parse for opt in read}))
    # absent flags are suppressed, so a flag given as "none" still overrides
    options.update((key, value) for key, value in vars(args).items() if key in options)
    return options


def _from_options(cls, options, **given):
    """Build a config dataclass from ``given`` and the options named like its other fields."""
    names = {field.name for field in fields(cls)} - given.keys()
    return cls(**{key: value for key, value in options.items() if key in names}, **given)


def _kernel_spec(options, length_scale) -> KernelSpec:
    mixture = options["mixture"] if options["kernel"] == RATIONAL_QUADRATIC else None
    return KernelSpec(options["kernel"], length_scale, mixture)


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


def _trace_names(options, n_kept: int, m: int, quad_form: bool, loglik: bool) -> list[str]:
    """Check the diagnostics settings against a chain's shape; return the traced names."""
    if n_kept < ESS_MIN_DRAWS:
        raise ValueError(f"need at least {ESS_MIN_DRAWS} kept draws to diagnose, got {n_kept}")
    _check_bandwidth(options["bandwidth"], n_kept)
    if options["window"] is not None:
        _check_window(options["window"])
    params = options["trace_params"]
    params = params if params == "all" else _csv_list(params)
    return _resolve_params(params, m, quad_form, loglik)


def _write_diagnostics(out: Path, samples, options, extra_flags, names, cov=None):
    report = diagnose(
        samples,
        bandwidth=options["bandwidth"],
        window=options["window"],
        extra_flags=extra_flags,
    )
    write_json(asdict(report), out / "diagnostics.json")

    trace, acf, names = trace_export(samples, names, cov=cov, bandwidth=options["bandwidth"])
    # the draw column numbers the kept draws from 1, so the stride shows
    draws = range(1, samples.n_kept + 1, trace_stride(samples.n_kept))
    write_long_csv(out / "traces.csv", ["draw", "parameter", "value"], trace, names, draws)
    lags = range(len(acf) // max(len(names), 1))
    write_long_csv(out / "acf.csv", ["lag", "parameter", "autocorrelation"], acf, names, lags)
    write_csv(out / "kendall.csv", ["draw", "distance"], report.kendall_series)
    return report


def _preview(entities, ranks, merits) -> list[str]:
    """The ``top`` and ``bottom`` lines: the five best and five worst as ``rank. name (merit)``."""
    by_rank = sorted(range(len(entities)), key=lambda i: ranks[i])
    lines = []
    for label, idx in (("top", by_rank[:5]), ("bottom", by_rank[-5:])):
        entries = ", ".join(f"{ranks[i]}. {entities[i]} ({merits[i]:+.3f})" for i in idx)
        lines.append(f"  {label}: {entries}")
    return lines


def cmd_fit(args) -> int:
    options = _merged_options(args, "run", args.config)
    table, income = _load_tables(options)
    w = build_win_matrix(table, options["tie_policy"])
    kernel = _kernel_spec(options, options["length_scale"])
    cov = build_prior(income, kernel, jitter=options["jitter"])
    config = _from_options(SamplerConfig, options)
    # fail before sampling; a fit has the prior and run_chain records the log-likelihood
    _check_summary(config.n_kept, options["level"])
    names = _trace_names(options, config.n_kept, w.m, quad_form=True, loglik=True)
    out = _out_dir(options)

    print(
        f"fit: {w.m} entities, {table.k} indicators, {total_comparisons(w)} comparisons; "
        f"{config.iterations} iterations (burn-in {config.burn_in}, thin {config.thin})"
    )
    rank_deficient = cov.rank < w.m - 1
    if rank_deficient:
        print(
            f"warning: the prior has rank {cov.rank}, below M - 1 = {w.m - 1}, at length scale "
            f"{kernel.length_scale}; the merits are sampled on a rank-{cov.rank} subspace",
            file=sys.stderr,
        )
    samples = run_chain(w, cov, config)

    if options["export_win_matrix"]:
        export_win_matrix(w, out / "win_matrix.csv")
    flags = {"jitter_applied": cov.jitter_applied, "prior_rank_deficient": rank_deficient}
    metadata = {**flags, "kernel": asdict(kernel), "entities": list(w.entities)}
    save_chain(samples, out / "chain.npz", metadata=metadata)
    report = _write_diagnostics(out, samples, options, flags, names, cov=cov)

    baseline = None
    try:
        baseline = mle_newman(w)
    except NoMleError as exc:
        print(f"warning: skipping likelihood baseline: {exc}", file=sys.stderr)
    ranking = summarize(samples, w.entities, level=options["level"], mle_merits=baseline)
    export_report(ranking, "csv", out / "ranking.csv")
    export_report(ranking, "json", out / "ranking.json")

    rate = report.acceptance_rate
    print(f"acceptance rate {rate:.3f}, ess {report.ess:.1f} on a rank-{report.rank_est} subspace")
    for line in _preview(ranking.entities, ranking.rank, ranking.mean):
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
    options = _merged_options(args, "run", args.config)
    table, income = _load_tables(options)
    w = build_win_matrix(table, options["tie_policy"])
    merits = mle_newman(w)
    ranks = rank_entities(merits, w.entities)

    out = _out_dir(options)
    write_csv(
        out / "mle_ranking.csv",
        ["entity", "merit", "rank"],
        zip(w.entities, merits.tolist(), ranks.tolist()),
    )
    print(f"mle: {w.m} entities, {table.k} indicators, {total_comparisons(w)} comparisons")
    print(_preview(w.entities, ranks, merits)[0])
    print(f"outputs written to {out}")
    return 0


def cmd_diagnose(args) -> int:
    options = _merged_options(args, "run", args.config)
    samples, extra = _read_chain(args.chain)
    # the fit's flags are the metadata's booleans
    flags = {key: value for key, value in extra.items() if isinstance(value, bool)}
    loglik = samples.loglik_draws is not None
    names = _trace_names(options, samples.n_kept, samples.m, quad_form=False, loglik=loglik)
    out = _out_dir(options)
    report = _write_diagnostics(out, samples, options, flags, names)
    print(
        f"diagnose: {samples.n_kept} kept draws, acceptance {report.acceptance_rate:.3f}, "
        f"ess {report.ess:.1f} on a rank-{report.rank_est} subspace"
    )
    print(f"outputs written to {out}")
    return 0


def cmd_simulate(args) -> int:
    options = _merged_options(args, "sim", args.spec)
    scales = options["length_scales"]
    kernel = _kernel_spec(options, scales[0] if scales else 0.5)
    spec = _from_options(SimStudySpec, options, kernel=kernel)
    sampler = _from_options(SamplerConfig, options)
    out = _out_dir(options)
    rows = run_recovery_study(spec, sampler)
    write_study_csv(rows, out / "study.csv")

    for method in ("bayes", "mle"):
        scores = np.array([row["spearman"] for row in rows if row["method"] == method])
        # the bits of np.nanmedian without its numpy.ma import; nan when no cell has an estimate
        s = np.sort(scores[np.isfinite(scores)])
        k = len(s)
        median = (s[(k - 1) // 2] + s[k // 2]) / 2 if k else np.nan
        print(f"  {method}: median spearman {median:.3f} over {len(scores)} cells")
    print(f"outputs written to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation failures, same exit code as bad config values
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btrank", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, func, text in (
        ("fit", cmd_fit, "sample the posterior and rank"),
        ("mle", cmd_mle, "likelihood-only ranking"),
        ("diagnose", cmd_diagnose, "recompute diagnostics from a saved chain"),
        ("simulate", cmd_simulate, "synthetic merit recovery study"),
    ):
        subs[name] = commands.add_parser(name, help=text)
        subs[name].set_defaults(func=func)
    subs["diagnose"].add_argument("chain", help="chain dump written by fit")
    subs["simulate"].add_argument("spec", help="study design as a flat key = value file")
    for name in ("fit", "mle", "diagnose"):
        subs[name].add_argument("--config", help="flat key = value configuration file")
    for opt in OPTIONS:
        if opt.switch:
            kind = {"action": "store_true", "help": opt.switch}
        else:
            kind = {"type": opt.parse}
        for name in opt.flags:
            subs[name].add_argument(
                "--" + opt.key.replace("_", "-"), dest=opt.key, default=argparse.SUPPRESS, **kind
            )
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
