"""Conditional Monte Carlo oracle for the first-passage problem.

With zero correlation the return is a Brownian motion run on the clock
``I(tau) = int_0^tau v dt``, so given one variance path the survival
probability is exactly ``erf(z / sqrt(2 I))`` (reflection principle).  The
simulator therefore steps only the variance, by Andersen's quadratic-
exponential (QE) scheme ("Efficient simulation of the Heston stochastic
volatility model", J. Comput. Finance 11(3), 2008): one standard normal per
path-step, a moment-matched quadratic in it where the variance is far from
zero (``psi <= 1.5``), and a point mass at zero plus an exponential tail on
the paths near zero.  ``I`` accumulates by the trapezoid rule, and every
estimate is the path mean of ``erf(z / sqrt(2 I))`` with the CLT interval
``1.96 * sd / sqrt(n)``.  No barrier is monitored, so there is no
discrete-monitoring bias to correct, and one simulation serves any number of
starting distances.

Reproducibility: one master seed, counter-based (Philox) substreams per
path block, and per-block float sums merged in block order -- the estimate
is bit-identical no matter how many worker threads run the blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, log_ndtr, ndtri

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

_K_SWITCH = 2.0 / 1.5  # 2/psi at Andersen's switch psi_c = 1.5 between the QE branches
_Z_FAR = 0.8416212335729144  # ndtri(0.8), and q = 1 - p < 0.8 where 2/psi < _K_SWITCH


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    ``record_grid`` lists the times at which survival is read off;
    ``horizon`` defaults to the last record time.
    """

    dt: float = 1e-3
    n_paths: int = 10**6
    seed: int = 0
    horizon: float | None = None
    record_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ConfigError("dt must be finite and > 0")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        grid = tuple(float(t) for t in self.record_grid)
        if not all(0.0 <= t < math.inf for t in grid):
            raise ConfigError("record_grid entries must be finite and >= 0")
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
    """Survival curve estimate with CLT confidence half-widths.

    ``path_steps`` and ``rng_draws`` count the variance steps taken and the
    random variates drawn (one normal per path-step, plus one Gamma start
    per path for stationary starts)."""

    grid: tuple[float, ...]
    survival: np.ndarray
    ci_halfwidth: np.ndarray
    n_paths: int
    seed: int
    path_steps: int
    rng_draws: int


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
    path_steps: int
    rng_draws: int


def _block_rng(seed: int, purpose: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((purpose << 32) | block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n_paths: int) -> list[tuple[int, int]]:
    return [(b, min(_BLOCK, n_paths - b * _BLOCK))
            for b in range((n_paths + _BLOCK - 1) // _BLOCK)]


def _erf_sums(clock: np.ndarray, z_grid: np.ndarray) -> np.ndarray:
    """Block sums of ``s = erf(z / sqrt(2 I))`` and of ``(s - mean(s))**2``,
    one row per ``z``; one ``z`` at a time, so memory stays O(block).  The
    centred square keeps the variance exact where every path gives nearly
    the same ``s``."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(2.0 * clock)  # I = 0 gives inf, and erf(inf) = 1
    out = np.empty((z_grid.size, 2))
    for j, z in enumerate(z_grid):
        s = erf(z * inv)
        total = s.sum()
        s -= total / s.size
        out[j] = total, (s * s).sum()
    return out


def _block(block: int, n_block: int, z_grid: np.ndarray, steps: np.ndarray,
           v0: float | None, d: Dimensionless, cfg: McConfig):
    """The one simulation kernel: QE variance steps of one path block.

    Returns the ``(len(steps), z_grid.size, 2)`` sums of :func:`_erf_sums`
    at each record step, and the block's path-steps and variates drawn.
    ``v0 = None`` draws the starting variances from the stationary Gamma law
    on the block's own substream (keeps worker-count invariance intact).
    """
    rng = _block_rng(cfg.seed, _PURPOSE_PATHS, block)
    draws = 0
    if v0 is None:
        v = rng.gamma(shape=d.nu, scale=d.beta**2 / 2.0, size=n_block)
        draws += n_block
    else:
        v = np.full(n_block, float(v0))
    # one step's conditional mean m = e v + m0 and half variance s2 / 2 = s1 v + s0
    e = math.exp(-cfg.dt)
    m0 = d.theta * -math.expm1(-cfg.dt)
    s1 = 0.5 * d.beta**2 * e * -math.expm1(-cfg.dt)
    s0 = 0.25 * d.theta * d.beta**2 * math.expm1(-cfg.dt)**2
    # on the atom v = 0 every path has the same q, so one threshold screens them
    k0 = m0 * m0 / s0
    z_atom = ndtri(2.0 * k0 / (2.0 + k0)) + 1e-9
    clock = np.zeros(n_block)
    sums = np.empty((len(steps), z_grid.size, 2))
    done = 0
    with np.errstate(invalid="ignore"):
        for rec, stop in enumerate(steps.tolist()):
            for _ in range(stop - done):
                normal = rng.standard_normal(n_block)
                m = v * e + m0
                k = m * m / (v * s1 + s0)  # 2 / psi
                b2 = k - 1.0 + np.sqrt(k * (k - 1.0))  # NaN where k < 1: exponential branch
                v_next = m / (1.0 + b2) * (np.sqrt(b2) + normal) ** 2
                far = np.flatnonzero(k < _K_SWITCH)
                if far.size:
                    # v' = (m / q) log(q / Phi(Z)) where U = Phi(-Z) > p = 1 - q, else 0;
                    # only Z < ndtri(q) can pass, and q < 0.8 off the atom
                    v_next[far] = 0.0
                    hit = far[normal[far] < np.where(v[far] == 0.0, z_atom, _Z_FAR)]
                    q = 2.0 * k[hit] / (2.0 + k[hit])
                    v_next[hit] = m[hit] / q * np.maximum(np.log(q) - log_ndtr(normal[hit]), 0.0)
                clock += (v + v_next) * (0.5 * cfg.dt)
                v = v_next
            draws += n_block * (stop - done)
            done = stop
            sums[rec] = _erf_sums(clock, z_grid)
    return sums, n_block * done, draws


def _run_blocks(z_grid, steps, v0, d, cfg: McConfig, workers: int):
    """Run every block (possibly concurrently); merge their sums in block
    order.  Returns the mean and CI half-width, shape ``(len(steps),
    z_grid.size)``, and the total path-steps and variates drawn."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")

    def run(block):
        return _block(*block, z_grid, steps, v0, d, cfg)

    blocks = _blocks(cfg.n_paths)
    if workers == 1:
        results = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    sums = np.array([r[0] for r in results])  # (block, record, z, 2)
    n_block = np.array([nb for _, nb in blocks], dtype=float)[:, None, None]
    n = cfg.n_paths
    mean = sums[..., 0].sum(axis=0) / n
    # pooled sum of squared deviations: within blocks plus between block means
    m2 = (sums[..., 1] + n_block * (sums[..., 0] / n_block - mean) ** 2).sum(axis=0)
    return (mean, 1.96 * np.sqrt(m2 / n) / math.sqrt(n),
            sum(r[1] for r in results), sum(r[2] for r in results))


def _curve(d: Dimensionless, z0: float, v0: float | None, cfg: McConfig,
           workers: int) -> McEstimate:
    if not 0.0 < z0 < math.inf:
        raise ConfigError(f"z0 must be finite and > 0, got {z0!r}")
    mean, ci, path_steps, draws = _run_blocks(np.array([float(z0)]), cfg.record_steps(),
                                              v0, d, cfg, workers)
    return McEstimate(grid=cfg.record_grid, survival=mean[:, 0], ci_halfwidth=ci[:, 0],
                      n_paths=cfg.n_paths, seed=cfg.seed, path_steps=path_steps,
                      rng_draws=draws)


def estimate_survival(d: Dimensionless, z0: float, v0: float, cfg: McConfig,
                      workers: int = 1) -> McEstimate:
    """Survival curve for a fixed starting variance ``v0``.

    ``z0`` must be strictly positive (starting on the barrier is absorption
    at time zero, not a simulation).
    """
    if not 0.0 <= v0 < math.inf:
        raise ConfigError(f"v0 must be finite and >= 0, got {v0!r}")
    return _curve(d, z0, v0, cfg, workers)


def estimate_survival_averaged(d: Dimensionless, z0: float, cfg: McConfig,
                               workers: int = 1) -> McEstimate:
    """Survival curve with the starting variance drawn from its stationary
    Gamma law, path by path."""
    return _curve(d, z0, None, cfg, workers)


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


def survival_profile(d: Dimensionless, z_grid, cfg: McConfig,
                     v0: float | None = None, workers: int = 1) -> ProfileEstimate:
    """Survival at ``cfg.horizon`` for every starting distance in ``z_grid``
    out of one shared simulation.

    Pass ``v0 = None`` to draw starting variances from the stationary law.
    Estimates across the grid share paths (they are correlated), but each
    individual estimate carries a valid confidence interval.
    """
    z_grid = np.sort(np.asarray(z_grid, dtype=float))
    if z_grid.size == 0 or not np.all((z_grid > 0.0) & (z_grid < math.inf)):
        raise ConfigError("z_grid must be nonempty with all entries finite and > 0")
    if v0 is not None and not 0.0 <= v0 < math.inf:
        raise ConfigError(f"v0 must be finite and >= 0, got {v0!r}")
    mean, ci, path_steps, draws = _run_blocks(z_grid, np.array([cfg.n_steps]), v0, d, cfg,
                                              workers)
    return ProfileEstimate(z_grid=z_grid, tau=cfg.horizon, survival=mean[0],
                           ci_halfwidth=ci[0], n_paths=cfg.n_paths, seed=cfg.seed,
                           path_steps=path_steps, rng_draws=draws)
