"""Chain quality measures: long-run covariance, effective sample size, rank stability."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mcmc import ChainSamples
from .prior import ConstrainedCovariance

# multiplier shared by the effective-sample-size estimators
ESS_CAP_FACTOR = 1.5

# lags univariate_ess first asks of its autocovariance transform
ESS_FIRST_LAG = 64

# window sums per Gram-matrix block in spectral_longrun; at M=33 each
# (block, M) temporary takes about 1 MB
LONGRUN_BLOCK = 4096

# draws per product in the quad_form export, so that its (block, M)
# temporary stays small next to the draws: about 270 kB at M=33
QUAD_FORM_BLOCK = 1024

# windows per comparison in rank_stability_series: at M=33 the (block, M, M)
# pair comparison takes about 1 MB
RANK_STABILITY_BLOCK = 1024

# most draws per parameter that trace_export returns; a longer chain's draws
# are strided, since the file would otherwise grow without bound
TRACE_EXPORT_CAP = 100_000


def default_bandwidth(n: int) -> int:
    """Bartlett window width used when none is requested: floor(N^(1/3))."""
    b = max(1, int(n ** (1.0 / 3.0)))
    # float cube roots misround near perfect cubes
    while (b + 1) ** 3 <= n:
        b += 1
    while b > 1 and b**3 > n:
        b -= 1
    return b


def _check_bandwidth(bandwidth: int | None, n: int) -> int:
    """The bandwidth to use for ``n`` draws: ``default_bandwidth(n)`` for None, else checked."""
    bandwidth = default_bandwidth(n) if bandwidth is None else int(bandwidth)
    if not 1 <= bandwidth <= n:
        raise ValueError(f"bandwidth must lie in [1, {n}], got {bandwidth}")
    return bandwidth


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")


def _check_window(window: int) -> None:
    if window < 1:
        raise ValueError("window must be at least 1")


def _as_draws(draws) -> np.ndarray:
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must be a 2-D array of shape (N, M)")
    if len(draws) < 2:
        raise ValueError("need at least 2 draws")
    return draws


def _centred(draws, pad: int = 0) -> np.ndarray:
    """Column-centred ``(N, M)`` draws with ``pad`` rows of zeros above and below."""
    draws = _as_draws(draws)
    n = len(draws)
    out = np.zeros((n + 2 * pad, draws.shape[1]))
    np.subtract(draws, draws.mean(axis=0), out=out[pad : pad + n])
    return out


def _covariance(gram: np.ndarray, n: int) -> np.ndarray:
    # two steps, not one divisor: the ESS determinant ratio turns a last-bit
    # change here into ~5e-13 relative
    return gram / n * (n / (n - 1.0))


def sample_covariance(draws: np.ndarray) -> np.ndarray:
    """Sample covariance of the draws with the usual N - 1 divisor."""
    centred = _centred(draws)
    return _covariance(centred.T @ centred, len(centred))


def spectral_longrun(draws: np.ndarray, bandwidth: int | None, return_flag: bool = False,
                     covariance_out: np.ndarray | None = None):
    """Bartlett-windowed long-run covariance estimate.

    The sample covariance plus the lag-``k`` autocovariances (divisor N),
    ``0 < |k| < bandwidth``, weighted by ``1 - |k| / bandwidth``.  The weight
    ``bandwidth - |k|`` is the number of length-``bandwidth`` windows of the
    zero-padded centred draws holding both draws of a lag-``k`` pair, so the
    sum is the Gram matrix of the window sums, formed ``LONGRUN_BLOCK``
    windows at a time; a ``bandwidth`` of None uses ``default_bandwidth(N)``.
    Materially negative eigenvalues are floored at zero; ``return_flag``
    additionally reports whether that flooring occurred.
    ``covariance_out``, an ``(M, M)`` array, receives the
    :func:`sample_covariance` of the draws, formed from the same centred
    draws instead of a second centred copy.
    """
    n = len(draws)
    b = _check_bandwidth(bandwidth, n)
    padded = _centred(draws, pad=b)
    centred = padded[b : b + n]
    gram = centred.T @ centred
    if covariance_out is not None:
        covariance_out[...] = _covariance(gram, n)
    # after the running sum, padded[i] - padded[i - b] sums the b rows ending
    # at row i; the windows ending at rows b .. n + 2b - 2 hold a draw
    np.cumsum(padded, axis=0, out=padded)
    windows = np.zeros_like(gram)
    for start in range(0, n + b - 1, LONGRUN_BLOCK):
        stop = min(start + LONGRUN_BLOCK, n + b - 1)
        block = padded[start + b : stop + b] - padded[start:stop]
        windows += block.T @ block
    longrun = (windows / b + gram / (n - 1.0)) / n
    longrun = 0.5 * (longrun + longrun.T)

    eigvals, eigvecs = np.linalg.eigh(longrun)
    tol = 1e-12 * max(eigvals[-1], np.finfo(float).tiny)
    floored = bool(eigvals[0] < -tol)
    if floored:
        longrun = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        longrun = 0.5 * (longrun + longrun.T)
    return (longrun, floored) if return_flag else longrun


def _ess_core(sigma: np.ndarray, longrun: np.ndarray, n: int, threshold: float) -> tuple[float, int]:
    eigvals, eigvecs = np.linalg.eigh(sigma)
    largest = eigvals[-1]
    if largest <= 0:
        raise ValueError("draws have zero variance in every direction")
    keep = eigvals > threshold * largest
    rank_est = int(keep.sum())
    basis = eigvecs[:, keep]

    sig_eigs = np.linalg.eigvalsh(basis.T @ sigma @ basis)
    lr_eigs = np.linalg.eigvalsh(basis.T @ longrun @ basis)
    if lr_eigs.min() <= 0:
        raise RuntimeError(
            "long-run covariance is singular on the retained subspace; "
            "increase the chain length or the bandwidth"
        )
    log_ratio = (np.log(sig_eigs).sum() - np.log(lr_eigs).sum()) / rank_est
    return float(n * np.exp(log_ratio)), rank_est


def _cap_ess(ess: float, n: int) -> tuple[float, bool]:
    cap = ESS_CAP_FACTOR * n
    if ess > cap:
        warnings.warn(
            f"effective sample size {ess:.0f} exceeds {ESS_CAP_FACTOR} times the "
            f"{n} draws; capping at {cap:.0f}",
            RuntimeWarning,
        )
        return cap, True
    return ess, False


def _ess(draws, threshold: float, bandwidth: int | None):
    """Capped ESS, retained rank, bandwidth, and the eigenvalue-floor and cap flags."""
    _check_threshold(threshold)
    draws = _as_draws(draws)
    n, m = draws.shape
    b = _check_bandwidth(bandwidth, n)
    sigma = np.empty((m, m))
    longrun, floored = spectral_longrun(draws, b, return_flag=True, covariance_out=sigma)
    ess, rank_est = _ess_core(sigma, longrun, n, threshold)
    ess, capped = _cap_ess(ess, n)
    return ess, rank_est, b, floored, capped


def multivariate_ess(draws: np.ndarray, threshold: float = 1e-8,
                     bandwidth: int | None = None) -> tuple[float, int]:
    """Effective sample size of a vector chain on its non-degenerate subspace.

    Eigendirections of the sample covariance below ``threshold`` times the
    largest eigenvalue are treated as exact constraints and excluded.  On the
    retained subspace the estimate is
    ``N * (pdet(sample cov) / pdet(long-run cov)) ** (1 / rank)``.

    Parameters
    ----------
    draws : ndarray, shape (N, M)
    threshold : float
        Relative eigenvalue cutoff in (0, 1).
    bandwidth : int, optional
        Bartlett window width; defaults to ``floor(N ** (1/3))``.

    Returns
    -------
    (ess, rank_est) : tuple of float and int
        The estimate is capped at 1.5 N (with a warning) since values beyond
        that exceed what the estimator can resolve.
    """
    return _ess(draws, threshold, bandwidth)[:2]


def _fft_autocovariance(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Lag 0..max_lag autocovariances of a series, divisor N, via a zero-padded FFT.

    A constant series gives the unit impulse ``1, 0, 0, ...``, the
    autocovariances of unit white noise, so it counts as fully independent.
    Constancy is tested exactly: centering a constant such as 0.3 can leave
    a ~1e-17 residue whose autocovariances look like a perfectly correlated
    series.
    """
    if np.ptp(x) == 0:
        return np.eye(1, max_lag + 1)[0]
    n = len(x)
    centered = x - x.mean()
    # a circular transform of length n + max_lag or more wraps no lag up to max_lag
    nfft = 1 << int(n + max_lag - 1).bit_length()
    spectrum = np.fft.rfft(centered, nfft)
    return np.fft.irfft(spectrum * np.conj(spectrum), nfft)[: max_lag + 1] / n


def univariate_ess(x: np.ndarray) -> float:
    """Scalar effective sample size via the initial monotone sequence rule.

    Pairs of consecutive autocovariances are summed, truncated at the first
    nonpositive pair, and forced nonincreasing before entering the asymptotic
    variance.  A constant series counts as fully independent, and the result
    is capped at 1.5 N.  The autocovariances come from a power-of-two
    transform of length at least N + L, which holds every lag up to its
    length minus N.  L starts at ``ESS_FIRST_LAG`` and becomes four times
    the lags held until a nonpositive pair appears or they reach N - 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 4:
        raise ValueError("need a 1-D series of at least 4 draws")
    n, lag = len(x), ESS_FIRST_LAG
    while True:
        max_lag = min(n - 1, (1 << (n + lag - 1).bit_length()) - n)
        acov = _fft_autocovariance(x, max_lag)
        pair_count = (max_lag + 1) // 2
        pairs = acov[0 : 2 * pair_count : 2] + acov[1 : 2 * pair_count : 2]
        nonpositive = np.flatnonzero(pairs <= 0)
        if len(nonpositive) or max_lag == n - 1:
            break
        lag = 4 * max_lag
    cutoff = int(nonpositive[0]) if len(nonpositive) else pair_count
    head = np.minimum.accumulate(pairs[:cutoff])
    asymptotic_var = -acov[0] + 2.0 * head.sum()
    if asymptotic_var <= 0:
        return ESS_CAP_FACTOR * n
    return float(min(n * acov[0] / asymptotic_var, ESS_CAP_FACTOR * n))


def acceptance_rate(samples: ChainSamples) -> float:
    """Share of post-burn-in proposals that were accepted."""
    if samples.proposed == 0:
        raise ValueError("chain recorded no proposals")
    return samples.accepted / samples.proposed


def _inversions(order: np.ndarray) -> np.ndarray:
    """Number of pairs ``i < j`` with ``order[..., i] > order[..., j]``, along the last axis."""
    return np.count_nonzero(np.triu(order[..., :, None] > order[..., None, :], 1), axis=(-2, -1))


def kendall_tau_distance(rank_a, rank_b) -> int:
    """Number of entity pairs ordered differently by two rankings.

    Both arguments must be permutations of the same values.  Zero means
    identical orderings; the maximum is M (M - 1) / 2 for full reversal.
    The count is the inversions of ``rank_b`` read in ``rank_a``'s order.
    """
    a = np.asarray(rank_a)
    b = np.asarray(rank_b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("rankings must be 1-D arrays of equal length")
    if len(np.unique(a)) != len(a) or not np.array_equal(np.sort(a), np.sort(b)):
        raise ValueError("rankings must be permutations of the same values")
    # a stable sort, as in rank_stability_series: the default's first call maps about 0.3 MB more
    return int(_inversions(b[np.argsort(a, kind="stable")]))


def rank_entities(values, names=None) -> np.ndarray:
    """Ranks 1..M by descending value.

    Exact ties go to the lexicographically smaller name when ``names`` are
    given, and to the earlier position otherwise.
    """
    values = np.asarray(values, dtype=float)
    keys = np.arange(len(values)) if names is None else np.asarray(names)
    order = np.lexsort((keys, -values))
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def rank_stability_series(samples: ChainSamples, window: int) -> list[tuple[int, int]]:
    """Distance of running-mean rankings from the final ranking, every ``window`` draws.

    Returns (kept-draw count, Kendall tau distance) pairs; the last point is
    always the full chain and has distance zero by construction.
    """
    _check_window(window)
    n = samples.n_kept
    if n < 1:
        raise ValueError("chain has no kept draws")
    # running sums at the window ends only
    sums = np.cumsum(np.add.reduceat(samples.merit_draws, np.arange(0, n, window), axis=0), axis=0)
    final = rank_entities(sums[-1] / n)
    points = list(range(window, n, window)) + [n]
    distances = []
    for lo in range(0, len(points), RANK_STABILITY_BLOCK):
        ends = np.array(points[lo : lo + RANK_STABILITY_BLOCK], dtype=float)
        # each window's entities from first to last (a stable sort of the
        # negated means breaks ties as rank_entities does), by final rank:
        # a pair out of order is discordant
        order = final[np.argsort(-(sums[lo : lo + len(ends)] / ends[:, None]), axis=1, kind="stable")]
        distances += _inversions(order).tolist()
    return list(zip(points, distances))


def _quad_form(draws: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """``draw' pinv draw`` for each row, ``QUAD_FORM_BLOCK`` rows per product."""
    quad = np.empty(len(draws))
    for start in range(0, len(draws), QUAD_FORM_BLOCK):
        rows = draws[start : start + QUAD_FORM_BLOCK]
        np.vecdot(rows @ pinv, rows, out=quad[start : start + QUAD_FORM_BLOCK])
    return quad


def _resolve_params(params, m: int, quad_form: bool, loglik: bool) -> list[str]:
    merit_names = [f"merit{i}" for i in range(m)]
    if params == "all":
        return merit_names + ["variance"] + ["quad_form"] * quad_form + ["loglik"] * loglik
    valid = set(merit_names) | {"variance", "quad_form", "loglik"}
    names = [params] if isinstance(params, str) else list(params)
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown trace parameter {name!r}")
        if name == "quad_form" and not quad_form:
            raise ValueError("quad_form requires the constrained covariance")
        if name == "loglik" and not loglik:
            raise ValueError("loglik requires a chain that recorded its log-likelihood")
    return names


def trace_stride(n_kept: int) -> int:
    """Stride of the kept draws that :func:`trace_export` returns.

    ``ceil(n_kept / TRACE_EXPORT_CAP)``, so at most ``TRACE_EXPORT_CAP``
    draws of each parameter are exported: kept draws 0, stride, 2 stride, ...
    """
    return max(1, -(-n_kept // TRACE_EXPORT_CAP))


def trace_export(samples: ChainSamples, params="all", cov: ConstrainedCovariance | None = None,
                 bandwidth: int | None = None):
    """Trace and autocorrelation columns for external plotting.

    ``params`` selects among the merit components (``merit0`` ...),
    ``variance``, ``quad_form`` (which needs ``cov``), and ``loglik`` (the
    chain's own log-likelihood, which needs ``samples.loglik_draws``), or
    ``"all"`` for everything available from the inputs given.  Returns
    ``(trace, acf, names)``: ``trace`` holds every ``trace_stride(n_kept)``-th
    kept draw, from the first, of each parameter in ``names``, one parameter
    after the other, and ``acf`` holds each parameter's autocorrelations at
    lags 0 to the bandwidth (at most ``n_kept - 1``) in the same order.  The
    autocorrelations, like every diagnostic, use every kept draw.
    """
    names = _resolve_params(params, samples.m, cov is not None, samples.loglik_draws is not None)
    n = samples.n_kept
    if n < 1:
        raise ValueError("chain has no kept draws")
    series: dict[str, np.ndarray] = {}
    for name in names:
        if name.startswith("merit"):
            series[name] = samples.merit_draws[:, int(name[5:])]
        elif name == "variance":
            series[name] = samples.variance_draws
        elif name == "quad_form":
            series[name] = _quad_form(samples.merit_draws, cov.pinv)
        else:
            series[name] = samples.loglik_draws

    b = _check_bandwidth(bandwidth, n)
    max_lag = min(b, n - 1)
    stride = trace_stride(n)
    # stacked then flattened, so an empty ``names`` gives empty columns
    trace = np.array([series[name][::stride] for name in names]).ravel()
    acovs = (_fft_autocovariance(series[name], max_lag) for name in names)
    acf = np.array([acov / acov[0] for acov in acovs]).ravel()
    return trace, acf, names


@dataclass(frozen=True)
class DiagnosticsReport:
    """Summary of chain quality produced by ``diagnose``."""

    ess: float
    rank_est: int
    acceptance_rate: float
    bandwidth: int
    per_param_ess: np.ndarray
    kendall_series: list
    flags: dict

    def __post_init__(self) -> None:
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance_rate must lie in [0, 1]")
        if not self.ess > 0:
            raise ValueError("ess must be positive")
        if self.rank_est < 1:
            raise ValueError("rank_est must be at least 1")
        if self.bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")


def diagnose(samples: ChainSamples, threshold: float = 1e-8, bandwidth: int | None = None,
             window: int | None = None, extra_flags: dict | None = None) -> DiagnosticsReport:
    """Compute the standard diagnostics bundle for one chain.

    ``window`` controls the rank-stability stride and defaults to a hundredth
    of the kept draws.  ``extra_flags`` are merged into the report flags so
    callers can carry provenance such as whether prior jitter was applied.
    """
    draws = samples.merit_draws
    ess, rank_est, b, floored, capped = _ess(draws, threshold, bandwidth)

    per_param = np.array([univariate_ess(draws[:, j]) for j in range(samples.m)])
    window = max(1, samples.n_kept // 100) if window is None else window
    series = rank_stability_series(samples, window)
    flags = {"eigenvalue_floor_hit": floored, "ess_capped": capped}
    if extra_flags:
        flags.update(extra_flags)

    return DiagnosticsReport(
        ess=ess,
        rank_est=rank_est,
        acceptance_rate=acceptance_rate(samples),
        bandwidth=b,
        per_param_ess=per_param,
        kendall_series=series,
        flags=flags,
    )
