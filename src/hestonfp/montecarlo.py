"""Path-simulation oracle for the first-passage problem.

Variance follows full-truncation Euler (the positive part of the variance
enters drift and diffusion, the state itself may dip negative), the return
moves with the same frozen step variance, and barrier hits between grid
points are recovered by the Brownian-bridge crossing probability.  In the
realistic parameter regime the variance process touches zero, which is why
the truncation scheme is the right default.

Reproducibility: one master seed, counter-based (Philox) substreams per
path block, and integer per-block tallies merged in block order -- the
estimate is bit-identical no matter how many worker threads run the blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Dimensionless
from .errors import ConfigError

__all__ = [
    "McConfig",
    "McEstimate",
    "ProfileEstimate",
    "estimate_survival",
    "estimate_survival_averaged",
    "sample_stationary_volatility",
    "survival_profile",
]

_BLOCK = 2**16

_PURPOSE_PATHS = 0
_PURPOSE_GAMMA = 1


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    ``record_grid`` lists the times at which the surviving fraction is read
    off; ``horizon`` defaults to the last record time.
    """

    dt: float = 1e-3
    n_paths: int = 10**6
    seed: int = 0
    scheme: str = "euler_full_truncation"
    bridge_correction: bool = True
    horizon: float | None = None
    record_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ConfigError("dt must be finite and > 0")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.scheme != "euler_full_truncation":
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        grid = tuple(float(t) for t in self.record_grid)
        if not all(math.isfinite(t) for t in grid):
            raise ConfigError("record_grid entries must be finite")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ConfigError("record_grid must be sorted ascending")
        object.__setattr__(self, "record_grid", grid)
        horizon = self.horizon if self.horizon is not None else (grid[-1] if grid else None)
        if horizon is None:
            raise ConfigError("either horizon or a nonempty record_grid is required")
        horizon = float(horizon)
        if not 0.0 < horizon < math.inf:
            raise ConfigError("horizon must be finite and > 0")
        if grid and grid[-1] > horizon * (1.0 + 1e-12):
            raise ConfigError("record_grid extends past the horizon")
        object.__setattr__(self, "horizon", horizon)
        if not grid:
            object.__setattr__(self, "record_grid", (horizon,))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))

    def record_steps(self) -> np.ndarray:
        steps = np.minimum(np.round(np.asarray(self.record_grid) / self.dt), self.n_steps)
        return steps.astype(np.int64)


@dataclass(frozen=True)
class McEstimate:
    """Survival curve estimate with binomial confidence half-widths."""

    grid: tuple[float, ...]
    survival: np.ndarray
    ci_halfwidth: np.ndarray
    n_paths: int
    seed: int
    scheme: str = "euler_full_truncation"


@dataclass(frozen=True)
class ProfileEstimate:
    """Survival at one horizon, simultaneously for a whole grid of starting
    distances, from a single simulation (see :func:`survival_profile`)."""

    z_grid: np.ndarray
    tau: float
    survival: np.ndarray
    ci_halfwidth: np.ndarray
    n_paths: int
    seed: int
    scheme: str = "euler_full_truncation"


def _block_rng(seed: int, purpose: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((purpose << 32) | block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n_paths: int) -> list[tuple[int, int]]:
    return [(b, min(_BLOCK, n_paths - b * _BLOCK))
            for b in range((n_paths + _BLOCK - 1) // _BLOCK)]


def _simulate_block(block: int, n_block: int, z0: float, v0: float | None,
                    d: Dimensionless, cfg: McConfig) -> np.ndarray:
    """Alive counts of one path block at each record step.

    ``v0 = None`` means: draw the starting variance from its stationary
    Gamma law, using the block's own substream (keeps worker-count
    invariance intact).
    """
    theta, beta = d.theta, d.beta
    dt = cfg.dt
    rng = _block_rng(cfg.seed, _PURPOSE_PATHS, block)
    if v0 is None:
        v = rng.gamma(shape=d.nu, scale=beta * beta / 2.0, size=n_block)
    else:
        v = np.full(n_block, float(v0))
    w = np.full(n_block, float(z0))
    record_steps = cfg.record_steps()
    counts = np.zeros(len(record_steps), dtype=np.int64)
    rec_i = 0
    alive = n_block
    for step in range(1, cfg.n_steps + 1):
        if alive:
            vpos = np.maximum(v, 0.0)
            sdt = np.sqrt(vpos * dt)
            n1 = rng.standard_normal(alive)
            n2 = rng.standard_normal(alive)
            w_next = w + sdt * n1
            crossed = w_next <= 0.0
            if cfg.bridge_correction:
                u = rng.random(alive)
                with np.errstate(divide="ignore", over="ignore"):
                    p = np.exp(-2.0 * w * w_next / (vpos * dt))
                crossed |= u < p
            v = v - (vpos - theta) * dt + beta * sdt * n2
            keep = ~crossed
            w = w_next[keep]
            v = v[keep]
            alive = w.size
        while rec_i < len(record_steps) and record_steps[rec_i] <= step:
            counts[rec_i] = alive
            rec_i += 1
        if rec_i >= len(record_steps):
            break
    while rec_i < len(record_steps):
        counts[rec_i] = alive
        rec_i += 1
    return counts


def _run_blocks(worker, n_paths: int, n_out: int, workers: int) -> np.ndarray:
    """Run per-block tallies (possibly concurrently) and merge in block order."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    blocks = _blocks(n_paths)
    per_block = np.zeros((len(blocks), n_out), dtype=np.int64)
    if workers <= 1:
        for b, nb in blocks:
            per_block[b] = worker(b, nb)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(worker, b, nb): b for b, nb in blocks}
            for fut, b in futures.items():
                per_block[b] = fut.result()
    return per_block.sum(axis=0)


def _wald(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    p = counts / float(n)
    return p, 1.96 * np.sqrt(p * (1.0 - p) / n)


def estimate_survival(d: Dimensionless, z0: float, v0: float, cfg: McConfig,
                      workers: int = 1) -> McEstimate:
    """Survival curve for a fixed starting variance ``v0``.

    ``z0`` must be strictly positive (starting on the barrier is absorption
    at time zero, not a simulation).
    """
    if not 0.0 < z0 < math.inf:
        raise ConfigError(f"z0 must be finite and > 0, got {z0!r}")
    if not 0.0 <= v0 < math.inf:
        raise ConfigError(f"v0 must be finite and >= 0, got {v0!r}")

    def worker(b: int, nb: int) -> np.ndarray:
        return _simulate_block(b, nb, z0, v0, d, cfg)

    counts = _run_blocks(worker, cfg.n_paths, len(cfg.record_grid), workers)
    p, ci = _wald(counts, cfg.n_paths)
    return McEstimate(grid=cfg.record_grid, survival=p, ci_halfwidth=ci,
                      n_paths=cfg.n_paths, seed=cfg.seed, scheme=cfg.scheme)


def estimate_survival_averaged(d: Dimensionless, z0: float, cfg: McConfig,
                               workers: int = 1) -> McEstimate:
    """Survival curve with the starting variance drawn from its stationary
    Gamma law, path by path."""
    if not 0.0 < z0 < math.inf:
        raise ConfigError(f"z0 must be finite and > 0, got {z0!r}")

    def worker(b: int, nb: int) -> np.ndarray:
        return _simulate_block(b, nb, z0, None, d, cfg)

    counts = _run_blocks(worker, cfg.n_paths, len(cfg.record_grid), workers)
    p, ci = _wald(counts, cfg.n_paths)
    return McEstimate(grid=cfg.record_grid, survival=p, ci_halfwidth=ci,
                      n_paths=cfg.n_paths, seed=cfg.seed, scheme=cfg.scheme)


def sample_stationary_volatility(d: Dimensionless, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from the stationary variance law,
    Gamma(shape ``nu``, rate ``2/beta**2``)."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    out = np.empty(n)
    for b, nb in _blocks(n):
        rng = _block_rng(seed, _PURPOSE_GAMMA, b)
        out[b * _BLOCK:b * _BLOCK + nb] = rng.gamma(
            shape=d.nu, scale=d.beta**2 / 2.0, size=nb)
    return out


def _profile_block(block: int, n_block: int, v0: float | None,
                   d: Dimensionless, cfg: McConfig,
                   z_grid: np.ndarray) -> np.ndarray:
    """Per-block counts of paths whose running minimum stayed above ``-z``
    for every ``z`` in the grid simultaneously.

    The walk starts at 0; a path started at distance ``z`` survives exactly
    when the walk's minimum stays above ``-z``.  With the bridge correction
    the within-step minimum is sampled from the exact bridge-minimum law
    (inverse CDF), which is distributionally identical to per-step Bernoulli
    killing but serves every threshold in one pass.
    """
    theta, beta = d.theta, d.beta
    dt = cfg.dt
    rng = _block_rng(cfg.seed, _PURPOSE_PATHS, block)
    if v0 is None:
        v = rng.gamma(shape=d.nu, scale=beta * beta / 2.0, size=n_block)
    else:
        v = np.full(n_block, float(v0))
    x = np.zeros(n_block)
    m = np.zeros(n_block)
    for _ in range(cfg.n_steps):
        vpos = np.maximum(v, 0.0)
        sdt = np.sqrt(vpos * dt)
        n1 = rng.standard_normal(n_block)
        n2 = rng.standard_normal(n_block)
        x_next = x + sdt * n1
        if cfg.bridge_correction:
            u = 1.0 - rng.random(n_block)  # in (0, 1]
            step = x_next - x
            low = 0.5 * (x + x_next - np.sqrt(step * step - 2.0 * vpos * dt * np.log(u)))
        else:
            low = np.minimum(x, x_next)
        np.minimum(m, low, out=m)
        v = v - (vpos - theta) * dt + beta * sdt * n2
        x = x_next
    return (m[:, None] > -z_grid[None, :]).sum(axis=0).astype(np.int64)


def survival_profile(d: Dimensionless, z_grid, cfg: McConfig,
                     v0: float | None = None, workers: int = 1) -> ProfileEstimate:
    """Survival at ``cfg.horizon`` for every starting distance in ``z_grid``
    out of one shared simulation.

    Pass ``v0 = None`` to draw starting variances from the stationary law.
    Estimates across the grid share paths (they are correlated), but each
    individual estimate carries a valid binomial confidence interval -- this
    is what makes million-path survival-vs-distance sweeps affordable.
    """
    z_grid = np.sort(np.asarray(z_grid, dtype=float))
    if z_grid.size == 0 or not np.all((z_grid > 0.0) & (z_grid < math.inf)):
        raise ConfigError("z_grid must be nonempty with all entries finite and > 0")
    if v0 is not None and not 0.0 <= v0 < math.inf:
        raise ConfigError(f"v0 must be finite and >= 0, got {v0!r}")

    def worker(b: int, nb: int) -> np.ndarray:
        return _profile_block(b, nb, v0, d, cfg, z_grid)

    counts = _run_blocks(worker, cfg.n_paths, z_grid.size, workers)
    p, ci = _wald(counts, cfg.n_paths)
    return ProfileEstimate(z_grid=z_grid, tau=cfg.horizon, survival=p,
                           ci_halfwidth=ci, n_paths=cfg.n_paths, seed=cfg.seed,
                           scheme=cfg.scheme)
