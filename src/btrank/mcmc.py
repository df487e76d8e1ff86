"""Preconditioned Crank-Nicolson sampler with a Gibbs step for the prior variance."""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bt import _log_likelihood, _pairwise_log_likelihood
from .prior import ConstrainedCovariance
from .wins import WinMatrix

# fixed zip entry timestamp so chain dumps are byte-identical across runs
_EPOCH = (1980, 1, 1, 0, 0, 0)

# iterations whose random draws are made at once; at rank 32 the block's
# normals take 256 kB
BLOCK = 1024

# most proposals scored in one likelihood call; it sets the speed, never the draws
BATCH = 64


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning and hyperparameters for one chain.

    ``burn_in`` defaults to a third of ``iterations``.  ``fix_variance`` pins
    the prior variance instead of Gibbs-sampling it, which turns the sampler
    into plain preconditioned Crank-Nicolson at that variance.
    ``rank_adjusted_shape`` bases the Gibbs shape on the constraint rank
    (M - 1) rather than the nominal dimension M.
    """

    beta: float
    iterations: int
    burn_in: int | None = None
    thin: int = 1
    prior_shape: float = 2.0
    prior_scale: float = 1.0
    seed: int = 0
    fix_variance: float | None = None
    rank_adjusted_shape: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie strictly between 0 and 1")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.iterations // 3)
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if not 0 < self.prior_shape < math.inf or not 0 < self.prior_scale < math.inf:
            raise ValueError("prior_shape and prior_scale must be positive and finite")
        if self.fix_variance is not None and not 0 < self.fix_variance < math.inf:
            raise ValueError("fix_variance must be positive and finite when given")

    @property
    def n_kept(self) -> int:
        return -(-(self.iterations - self.burn_in) // self.thin)


@dataclass(frozen=True)
class ChainSamples:
    """Post-burn-in draws and acceptance bookkeeping, as many as ``config`` makes: at least one.

    ``accept_flags`` records the accept/reject outcome of every post-burn-in
    proposal, before thinning, and ``accepted`` must equal their count.
    ``loglik_draws`` holds the chain's own log-likelihood of each kept merit
    draw; it is ``None`` for a chain that did not record it, such as a dump
    written before it was recorded.
    """

    merit_draws: np.ndarray
    variance_draws: np.ndarray
    accepted: int
    accept_flags: np.ndarray
    config: SamplerConfig
    loglik_draws: np.ndarray | None = None

    def __post_init__(self) -> None:
        n_post, n_kept = self.config.iterations - self.config.burn_in, self.config.n_kept
        if self.accept_flags.shape != (n_post,):
            raise ValueError(f"accept_flags must have one entry per post-burn-in iteration ({n_post})")
        if self.accepted != int(self.accept_flags.sum()):
            raise ValueError("accepted must equal the number of set accept_flags")
        for name, ndim in (("merit", 2), ("variance", 1), ("loglik", 1)):
            draws = getattr(self, f"{name}_draws")
            if draws is None:
                continue
            if draws.ndim != ndim or len(draws) != n_kept:
                raise ValueError(f"{name} draws must have one entry per kept draw ({n_kept})")
            if not np.isfinite(draws).all():
                raise ValueError(f"non-finite {name} draws")

    @property
    def proposed(self) -> int:
        return len(self.accept_flags)

    @property
    def n_kept(self) -> int:
        return len(self.merit_draws)

    @property
    def m(self) -> int:
        return self.merit_draws.shape[1]


def gibbs_variance(merits: np.ndarray, cov: ConstrainedCovariance, prior_shape: float,
                   prior_scale: float, rng: np.random.Generator,
                   rank_adjusted: bool = False) -> float:
    """Draw the prior variance from its inverse-gamma full conditional.

    The conditional has shape ``prior_shape + M/2`` and scale
    ``prior_scale + merits' pinv merits``.  With ``rank_adjusted`` the shape
    uses the constraint rank instead of M.
    """
    scale = prior_scale + float(merits @ cov.pinv @ merits)
    return scale / rng.gamma(_gibbs_shape(prior_shape, cov, len(merits), rank_adjusted))


def _gibbs_shape(prior_shape: float, cov: ConstrainedCovariance, m: int, rank_adjusted: bool) -> float:
    return prior_shape + 0.5 * (cov.rank if rank_adjusted else m)


# a compared pair whose strengths both underflow takes log(0) before the fallback
@np.errstate(divide="ignore")
def run_chain(w: WinMatrix, cov: ConstrainedCovariance, config: SamplerConfig) -> ChainSamples:
    """Run one Gibbs-within-pCN chain and return post-burn-in draws.

    Each iteration refreshes the prior variance from its full conditional
    and then makes one preconditioned Crank-Nicolson move on the merits.  The
    chain starts from zero merits and unit variance; draws are recorded after
    ``config.burn_in`` iterations, every ``config.thin``-th proposal, each
    with the log-likelihood the accept test computed for it.

    The state is one row ``(merits | u)``, with whitened coordinates ``u``
    in R^rank and ``merits = cov.factor @ u``.  Since ``factor' pinv
    factor`` is the identity, the Gibbs scale ``prior_scale + merits' pinv
    merits`` is ``prior_scale + u @ u``.  The proposal is ``sqrt(1 - beta^2)
    state + sqrt(scale) step``; each block's steps are lifted once, as
    ``(beta z / sqrt(gamma)) @ [factor' | I]`` for standard normals ``z``
    and the Gibbs step's gamma variates, so the merits are never rebuilt
    from ``u``.  A pinned variance runs the same step with scale
    ``fix_variance`` and unit gammas.  All randomness comes from a single
    generator seeded with ``config.seed``, drawn ``BLOCK`` iterations at a
    time: first the normals, then the standard-gamma variates of the Gibbs
    step (whose shape is constant; none when pinned), then the acceptance
    uniforms.  A seed therefore reproduces its chain exactly.  Each
    iteration's variance, its scale over its gamma, is formed at block end.

    While the chain rejects, the state does not move, so the proposals and
    accept tests of the next iterations are known in advance.  They are
    scored together in one likelihood call, up to ``BATCH`` at a time and
    about twice the running number of iterations per acceptance.  The
    accept tests then run one by one on Python floats and stop at the first
    acceptance; the chain moves there, and proposals scored past it are
    discarded unchecked.  The Gibbs scale and the contracted state are
    recomputed only when the chain moves.  Every proposal and log-likelihood
    is computed row by row, so the draws do not depend on how the
    iterations were batched.  A proposal whose strength-form log-likelihood
    is ``+inf`` is scored in the pairwise form instead; a log-likelihood or
    Gibbs scale that is still not finite raises ``FloatingPointError``
    naming its iteration.
    """
    if w.m != cov.m:
        raise ValueError(f"win matrix has {w.m} entities but covariance is {cov.m}-dimensional")

    rng = np.random.default_rng(config.seed)
    contraction = math.sqrt(1.0 - config.beta**2)
    pinned, thin, m = config.fix_variance, config.thin, w.m
    shape = _gibbs_shape(config.prior_shape, cov, m, config.rank_adjusted_shape)
    pairs, lift = w.pairs, np.hstack([cov.factor.T, np.eye(cov.rank)])

    # the state and what each proposal takes from it change only on acceptance
    state = np.zeros(m + cov.rank)
    scale = config.prior_scale if pinned is None else pinned
    root_scale, pulled = math.sqrt(scale), contraction * state
    loglik = float(_log_likelihood(state[:m], pairs))
    accepted = 0

    n_post, n_kept = config.iterations - config.burn_in, config.n_kept
    merit_draws = np.empty((n_kept, m))
    variance_draws = np.empty(n_kept)
    loglik_draws = np.empty(n_kept)
    accept_flags = np.zeros(n_post, dtype=bool)

    # every block's steps share one array and its normals are scaled in place;
    # fresh arrays each block raised a recovery study's peak RSS by about 0.25 MB
    steps = np.empty((min(BLOCK, config.iterations), m + cov.rank))
    for start in range(0, config.iterations, BLOCK):
        size = min(BLOCK, config.iterations - start)
        normals = rng.standard_normal((size, cov.rank))
        gammas = rng.standard_gamma(shape, size) if pinned is None else np.ones(size)
        log_uniforms = np.log(rng.random(size)).tolist()
        normals *= config.beta
        normals /= np.sqrt(gammas)[:, None]
        np.matmul(normals, lift, out=steps[:size])
        # row 0 is the state the block starts from, row r its r-th acceptance
        states = np.empty((size + 1, m))
        state_logliks, state_scales = np.empty(size + 1), np.empty(size + 1)
        states[0], state_logliks[0], state_scales[0] = state[:m], loglik, scale
        moves = np.zeros(size, dtype=bool)
        n_moves = 0

        k = 0
        while k < size:
            stop = k + min(BATCH, size - k, 2 * (start + k + 2) // (accepted + 1))
            proposals = steps[k:stop] * root_scale
            proposals += pulled
            # scan to the first acceptance; rows past it are never checked
            for row, proposed in enumerate(_log_likelihood(proposals[:, :m], pairs).tolist(), k):
                if not math.isfinite(proposed):
                    if proposed == math.inf:  # both strengths of a compared pair underflowed
                        proposed = _pairwise_log_likelihood(proposals[row - k, :m], pairs)
                    if not math.isfinite(proposed):
                        t = start + row + 1
                        raise FloatingPointError(f"non-finite log-likelihood at iteration {t}")
                if log_uniforms[row] < proposed - loglik:
                    state, loglik = proposals[row - k], proposed
                    if pinned is None:
                        scale = config.prior_scale + float(state[m:] @ state[m:])
                        if not math.isfinite(scale):
                            t = start + row + 1
                            raise FloatingPointError(f"non-finite Gibbs variance scale at iteration {t}")
                        root_scale = math.sqrt(scale)
                    pulled = contraction * state
                    accepted += 1
                    n_moves += 1
                    moves[row] = True
                    states[n_moves], state_logliks[n_moves], state_scales[n_moves] = state[:m], loglik, scale
                    break
            k = row + 1

        # iteration ``start + i + 1`` has post-burn-in offset ``post[i]`` and
        # starts from state ``before[i]``
        post = np.arange(start - config.burn_in, start - config.burn_in + size)
        after = post >= 0
        keep = after & (post % thin == 0)
        reached = np.cumsum(moves)
        slots, rows, before = post[keep] // thin, reached[keep], (reached - moves)[keep]
        merit_draws[slots] = states[rows]
        loglik_draws[slots] = state_logliks[rows]
        variance_draws[slots] = state_scales[before] / gammas[keep]
        accept_flags[post[after]] = moves[after]

    return ChainSamples(
        merit_draws=merit_draws,
        variance_draws=variance_draws,
        accepted=int(accept_flags.sum()),
        accept_flags=accept_flags,
        config=config,
        loglik_draws=loglik_draws,
    )


def posterior_mean(samples: ChainSamples) -> np.ndarray:
    """Mean of the kept merit draws (sum-to-zero up to accumulated roundoff)."""
    return samples.merit_draws.mean(axis=0)


def save_chain(samples: ChainSamples, path, metadata: dict | None = None) -> None:
    """Write draws and metadata to a zipped numpy archive.

    Zip entry timestamps are pinned, so identical samples produce
    byte-identical files.  ``loglik_draws`` is written only when set.
    ``meta.json`` holds the sampler settings and ``metadata``, which may
    carry extra JSON-serializable context (for example prior flags), which
    ``btrank diagnose`` reads back.  Each array goes into its entry in one
    write of its own buffer, without a copy of it.
    """
    meta = {"config": asdict(samples.config), "extra": metadata or {}}
    names = ("merit_draws", "variance_draws", "accept_flags", "loglik_draws")
    arrays = {name: getattr(samples, name) for name in names if getattr(samples, name) is not None}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            buffer = io.BytesIO()
            np.lib.format.write_array_header_1_0(buffer, np.lib.format.header_data_from_array_1_0(array))
            header = buffer.getvalue()
            # the entry's size is set before it opens, as writestr sets it,
            # so the archive keeps its bytes
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH)
            info.file_size = len(header) + array.nbytes
            with archive.open(info, "w") as entry:
                entry.write(header)
                entry.write(array)
        payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        archive.writestr(zipfile.ZipInfo("meta.json", date_time=_EPOCH), payload)


def load_chain(path) -> ChainSamples:
    """Reconstruct ChainSamples from a dump written by ``save_chain``.

    Each array entry fills the field of its name, so a dump without a
    ``loglik_draws`` entry loads with ``loglik_draws=None``.  The acceptance
    counts are those of ``accept_flags``; older dumps' ``meta.json`` repeats
    them, and a repeated count that differs makes the dump corrupt, as do
    arrays whose lengths the stored sampler settings contradict.  A
    ``kernel`` key in the stored settings, which older dumps hold, is ignored.
    """
    return _read_chain(path)[0]


def _read_chain(path) -> tuple[ChainSamples, dict]:
    """The samples of a chain dump and the ``metadata`` it was saved with, from one read."""
    path = Path(path)
    try:
        # np.load gives meta.json, not a .npy entry, as bytes; an empty file is an EOFError
        with np.load(path) as archive:
            meta = json.loads(archive["meta.json"])
            arrays = {name: archive[name] for name in archive.files if name != "meta.json"}
        flags = arrays["accept_flags"]
        if meta.get("proposed", len(flags)) != len(flags):
            raise ValueError("proposed must equal the number of accept_flags")
        return ChainSamples(
            accepted=int(meta.get("accepted", flags.sum())),
            config=SamplerConfig(**{k: v for k, v in meta["config"].items() if k != "kernel"}),
            **arrays,
        ), meta.get("extra", {})
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt or unreadable chain dump {path}: {exc}") from exc
