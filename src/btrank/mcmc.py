"""Preconditioned Crank-Nicolson sampler with a Gibbs step for the prior variance."""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bt import log_likelihood
from .prior import ConstrainedCovariance, KernelSpec
from .wins import WinMatrix

# fixed zip entry timestamp so chain dumps are byte-identical across runs
_EPOCH = (1980, 1, 1, 0, 0, 0)

# iterations whose random draws are made at once; at rank 32 the block's
# normals take 256 kB
BLOCK = 1024


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
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("squared_exponential", 0.09))
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
        if not self.prior_shape > 0 or not self.prior_scale > 0:
            raise ValueError("prior_shape and prior_scale must be positive")
        if self.fix_variance is not None and not self.fix_variance > 0:
            raise ValueError("fix_variance must be positive when given")


@dataclass(frozen=True)
class ChainSamples:
    """Post-burn-in draws plus acceptance bookkeeping.

    ``accept_flags`` records the accept/reject outcome of every post-burn-in
    proposal, before thinning, so ``accepted`` can always be recounted.
    """

    merit_draws: np.ndarray
    variance_draws: np.ndarray
    accepted: int
    proposed: int
    accept_flags: np.ndarray
    config: SamplerConfig

    def __post_init__(self) -> None:
        if not 0 <= self.accepted <= self.proposed:
            raise ValueError("accepted must lie between 0 and proposed")
        if self.accept_flags.shape != (self.proposed,):
            raise ValueError("accept_flags must have one entry per post-burn-in proposal")
        if self.merit_draws.ndim != 2 or len(self.merit_draws) != len(self.variance_draws):
            raise ValueError("merit and variance draws must have matching lengths")
        if not np.isfinite(self.merit_draws).all():
            raise ValueError("non-finite merit draws")
        if not np.isfinite(self.variance_draws).all():
            raise ValueError("non-finite variance draws")

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


def run_chain(w: WinMatrix, cov: ConstrainedCovariance, config: SamplerConfig) -> ChainSamples:
    """Run one Gibbs-within-pCN chain and return post-burn-in draws.

    Each iteration refreshes the prior variance from its full conditional
    (unless pinned) and then makes one preconditioned Crank-Nicolson move on
    the merits.  The chain starts from zero merits and unit variance; draws
    are recorded after ``config.burn_in`` iterations, every ``config.thin``-th
    proposal.

    The state is kept in whitened coordinates ``u`` in R^rank, with
    ``merits = cov.factor @ u``.  Since ``factor' pinv factor`` is the
    identity, the Gibbs scale ``prior_scale + merits' pinv merits`` is
    ``prior_scale + u @ u``, and the proposal is ``sqrt(1 - beta^2) u +
    beta sqrt(variance) z`` for standard normal ``z``.  All randomness comes
    from a single generator seeded with ``config.seed``, drawn ``BLOCK``
    iterations at a time: first the normals, then the standard-gamma
    variates of the Gibbs step (whose shape is constant), then the
    acceptance uniforms.  A seed therefore reproduces its chain exactly, but
    gives a different (equally valid) chain than versions before block draws.
    """
    if w.m != cov.m:
        raise ValueError(f"win matrix has {w.m} entities but covariance is {cov.m}-dimensional")

    rng = np.random.default_rng(config.seed)
    contraction = math.sqrt(1.0 - config.beta**2)
    fixed = config.fix_variance is not None
    shape = _gibbs_shape(config.prior_shape, cov, w.m, config.rank_adjusted_shape)
    burn_in, thin = config.burn_in, config.thin

    u = np.zeros(cov.rank)
    merits = np.zeros(w.m)
    variance = float(config.fix_variance) if fixed else 1.0
    loglik = log_likelihood(merits, w)

    n_post = config.iterations - burn_in
    n_kept = -(-n_post // thin)
    merit_draws = np.empty((n_kept, w.m))
    variance_draws = np.empty(n_kept)
    accept_flags = np.zeros(n_post, dtype=bool)
    kept = 0

    for start in range(0, config.iterations, BLOCK):
        size = min(BLOCK, config.iterations - start)
        noise = config.beta * rng.standard_normal((size, cov.rank))
        gammas = None if fixed else rng.standard_gamma(shape, size).tolist()
        log_uniforms = np.log(rng.random(size)).tolist()
        for k in range(size):
            t = start + k + 1
            if not fixed:
                variance = (config.prior_scale + float(u @ u)) / gammas[k]
            proposal = contraction * u + math.sqrt(variance) * noise[k]
            proposal_merits = cov.factor @ proposal
            loglik_new = log_likelihood(proposal_merits, w)
            if not math.isfinite(loglik_new):
                raise FloatingPointError(f"non-finite log-likelihood at iteration {t}")
            accept = log_uniforms[k] < loglik_new - loglik
            if accept:
                u, merits, loglik = proposal, proposal_merits, loglik_new

            if t > burn_in:
                offset = t - burn_in - 1
                accept_flags[offset] = accept
                if offset % thin == 0:
                    merit_draws[kept] = merits
                    variance_draws[kept] = variance
                    kept += 1

    return ChainSamples(
        merit_draws=merit_draws,
        variance_draws=variance_draws,
        accepted=int(accept_flags.sum()),
        proposed=n_post,
        accept_flags=accept_flags,
        config=config,
    )


def posterior_mean(samples: ChainSamples) -> np.ndarray:
    """Mean of the kept merit draws (sum-to-zero up to accumulated roundoff)."""
    if samples.n_kept == 0:
        raise ValueError("chain has no kept draws")
    return samples.merit_draws.mean(axis=0)


def _config_from_dict(data: dict) -> SamplerConfig:
    kernel = KernelSpec(**data.pop("kernel"))
    return SamplerConfig(kernel=kernel, **data)


def save_chain(samples: ChainSamples, path, metadata: dict | None = None) -> None:
    """Write draws and metadata to a zipped numpy archive.

    Zip entry timestamps are pinned, so identical samples produce
    byte-identical files.  ``metadata`` may carry extra JSON-serializable
    context (for example prior flags) retrievable via
    ``read_chain_metadata``.
    """
    meta = {
        "config": asdict(samples.config),
        "accepted": samples.accepted,
        "proposed": samples.proposed,
        "extra": metadata or {},
    }
    arrays = {
        "merit_draws": samples.merit_draws,
        "variance_draws": samples.variance_draws,
        "accept_flags": samples.accept_flags,
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.ascontiguousarray(array), allow_pickle=False)
            archive.writestr(zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH), buffer.getvalue())
        payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        archive.writestr(zipfile.ZipInfo("meta.json", date_time=_EPOCH), payload)


def _read_meta(path) -> dict:
    with zipfile.ZipFile(path) as archive:
        return json.loads(archive.read("meta.json").decode("utf-8"))


def read_chain_metadata(path) -> dict:
    """Return the extra metadata dict stored alongside a chain dump."""
    try:
        return _read_meta(path).get("extra", {})
    except (zipfile.BadZipFile, KeyError, json.JSONDecodeError, OSError) as exc:
        raise ValueError(f"corrupt or unreadable chain dump {path}: {exc}") from exc


def load_chain(path) -> ChainSamples:
    """Reconstruct ChainSamples from a dump written by ``save_chain``."""
    path = Path(path)
    try:
        meta = _read_meta(path)
        with np.load(path) as archive:
            merit_draws = archive["merit_draws"]
            variance_draws = archive["variance_draws"]
            accept_flags = archive["accept_flags"]
        config = _config_from_dict(meta["config"])
        return ChainSamples(
            merit_draws=merit_draws,
            variance_draws=variance_draws,
            accepted=int(meta["accepted"]),
            proposed=int(meta["proposed"]),
            accept_flags=accept_flags,
            config=config,
        )
    except (zipfile.BadZipFile, KeyError, json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt or unreadable chain dump {path}: {exc}") from exc
