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
discrete-monitoring bias to correct, and one simulation serves every record
time and any number of starting distances.

One call, :func:`estimate_survival`, runs it: a scalar ``z0`` or a 1-D grid
of them, a fixed starting variance ``v0`` or (``v0 = None``) starts drawn
from the stationary Gamma law, and one :class:`McEstimate` over the
``(record time x z)`` grid.

Cost: a block's normals are drawn in chunks of about ``2**16`` on one
helper thread per block, one chunk ahead of the steps that use them, so the
Philox draws (which release the GIL) overlap the step arithmetic when a
core is free; with ``workers`` blocks at once that is up to ``2 * workers``
threads.  The stream, and so every output bit, is the same as drawing each
step's normals inline.  Each step runs in-place ufuncs on scratch buffers
allocated once per block, and evaluates the exponential branch only on the
paths that take it.  At large vol-of-vol (``2 nu < 4/3``, so ``psi > 1.5``
at ``v = 0``) paths on the atom take the exponential branch and mostly stay
there; once more than half of a block sits on the atom, a step runs only on
the paths off it or whose normal can lift them off it.  A parked path gets
``v' = 0`` and a clock increment of ``(0 + 0) dt / 2 = 0``, exactly what
the full step gives it, and every path's arithmetic runs in the same
operation order either way, so parking changes no bit of the output.

Reproducibility: one master seed, an integer in ``[0, 2**64)``, counter-based
(Philox) substreams per path block, and per-block float sums merged in
block order -- the estimate is bit-identical no matter how many worker
threads run the blocks.
"""

from __future__ import annotations

import itertools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, log_ndtr, ndtri

from .core import Dimensionless, _positive_arrays
from .errors import ConfigError

__all__ = ["McConfig", "McEstimate", "estimate_survival"]

_BLOCK = 2**16

_K_SWITCH = 2.0 / 1.5  # 2/psi at Andersen's switch psi_c = 1.5 between the QE branches


def _checked_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int; :class:`ConfigError` unless it is an integer,
    not a bool, in ``[low, high)``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value >= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ConfigError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    ``record_grid`` lists the times at which survival is read off;
    ``horizon`` defaults to the last record time.  Every time above 0 must
    be a positive multiple of ``dt``, to within 1e-9 of a step.
    """

    dt: float = 1e-3
    n_paths: int = 10**6
    seed: int = 0
    horizon: float | None = None
    record_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ConfigError("dt must be finite and > 0")
        object.__setattr__(self, "n_paths", _checked_int("n_paths", self.n_paths, 1))
        object.__setattr__(self, "seed", _checked_int("seed", self.seed, 0, 2**64))
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
        if not horizon / self.dt < math.inf:
            raise ConfigError("horizon / dt overflows a float")
        times = np.array((horizon, *self.record_grid))
        steps = np.round(times / self.dt)
        off = (np.abs(times / self.dt - steps) > 1e-9) | ((steps == 0.0) & (times > 0.0))
        if off.any():
            raise ConfigError(f"time {float(times[off][0])!r} is not a positive multiple of "
                              f"dt = {self.dt!r}; the nearest step time is "
                              f"{float(steps[off][0]) * self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def record_steps(self) -> np.ndarray:
        steps = np.minimum(np.round(np.asarray(self.record_grid) / self.dt), self.n_steps)
        return steps.astype(np.int64)


@dataclass(frozen=True)
class McEstimate:
    """Survival estimate with CLT confidence half-widths, read at each time
    of ``grid``.

    ``survival`` and ``ci_halfwidth`` have shape ``(len(grid),)`` for a
    scalar ``z0`` and ``(len(grid), len(z0))`` for a grid of them.
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


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


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


def _qe_step(v: np.ndarray, normal: np.ndarray, out: np.ndarray, scratch, coef) -> None:
    """One QE step of the variances ``v`` driven by ``normal``: writes ``v'``
    into ``out``.  ``scratch`` is ``(m, k, tmp, far)``, three float buffers
    and a bool one of ``v``'s length; ``coef`` is ``(e, m0, s1, s0)``.  Only
    in-place ufuncs touch full-width data, in a fixed operation order, so a
    path's ``v'`` depends on nothing but its own ``v`` and normal."""
    m, k, tmp, far = scratch
    e, m0, s1, s0 = coef
    # conditional mean m = e v + m0 and k = 2 / psi = m^2 / (s1 v + s0)
    np.multiply(v, e, out=m)
    m += m0
    np.multiply(v, s1, out=tmp)
    tmp += s0
    np.multiply(m, m, out=k)
    k /= tmp
    # quadratic branch: b^2 = k - 1 + sqrt(k (k - 1)), NaN where k < 1, and
    # v' = m / (1 + b^2) * (b + Z)^2
    np.subtract(k, 1.0, out=tmp)
    tmp *= k
    np.sqrt(tmp, out=tmp)
    np.subtract(k, 1.0, out=out)
    out += tmp
    np.sqrt(out, out=tmp)
    tmp += normal
    tmp *= tmp
    out += 1.0
    np.divide(m, out, out=out)
    out *= tmp
    # exponential branch where k < _K_SWITCH: v' = (m / q) log(q / Phi(Z)) where
    # U = Phi(-Z) > p = 1 - q, else 0
    np.less(k, _K_SWITCH, out=far)
    idx = np.flatnonzero(far)
    if idx.size:
        q = 2.0 * k[idx] / (2.0 + k[idx])
        out[idx] = m[idx] / q * np.maximum(np.log(q) - log_ndtr(normal[idx]), 0.0)


def _normals(rng: np.random.Generator, n_block: int, n_steps: int, drawer):
    """Yield ``n_steps`` arrays of ``n_block`` standard normals from ``rng``,
    in the order ``n_steps`` calls of ``rng.standard_normal(n_block)`` give
    them.

    The normals come in chunks of ``rows`` steps: while the caller steps
    through one chunk, ``drawer`` (a one-thread executor) draws the next.
    """
    rows = max(1, _BLOCK // n_block)
    pending = None
    for start in range(0, n_steps, rows):
        chunk = drawer.submit(rng.standard_normal, (min(rows, n_steps - start), n_block))
        if pending is not None:
            yield from pending.result()
        pending = chunk
    if pending is not None:
        yield from pending.result()


def _block(block: int, n_block: int, z_grid: np.ndarray, steps: np.ndarray,
           v0: float | None, d: Dimensionless, cfg: McConfig):
    """The one simulation kernel: QE variance steps of one path block.

    Returns the ``(len(steps), z_grid.size, 2)`` sums of :func:`_erf_sums`
    at each record step, and the block's path-steps and variates drawn.
    ``v0 = None`` draws the starting variances from the stationary Gamma law
    on the block's own substream (keeps worker-count invariance intact).

    When paths on the atom ``v = 0`` take the exponential branch and more
    than half of the block sits there, a step runs only on the paths off the
    atom or whose normal can lift them off it; every other path is parked:
    its ``v'`` is 0 and its clock gains ``(0 + 0) dt / 2 = 0``, exactly what
    the full-width step gives it.
    """
    rng = _block_rng(cfg.seed, block)
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
    coef = (e, m0, s1, s0)
    # on the atom v = 0 every path has q = q0, and only Z < ndtri(q0) gives v' > 0
    k0 = m0 * m0 / s0
    z_atom = ndtri(2.0 * k0 / (2.0 + k0)) + 1e-9
    parkable = k0 < _K_SWITCH
    half_dt = 0.5 * cfg.dt
    v_next = np.empty(n_block)
    scratch = (np.empty(n_block), np.empty(n_block), np.empty(n_block),
               np.empty(n_block, dtype=bool))
    moving, lifts = scratch[3], np.empty(n_block, dtype=bool)
    clock = np.zeros(n_block)
    sums = np.empty((len(steps), z_grid.size, 2))
    done = 0
    # the drawer's first chunk is drawn after the Gamma start draw above, so the
    # stream order is that of drawing every step's normals inline
    with ThreadPoolExecutor(max_workers=1) as drawer, np.errstate(invalid="ignore"):
        normals = _normals(rng, n_block, int(steps[-1]), drawer)
        for rec, stop in enumerate(steps.tolist()):
            for normal in itertools.islice(normals, stop - done):
                live = None
                if parkable and 2 * np.count_nonzero(np.not_equal(v, 0.0, out=moving)) < n_block:
                    np.less(normal, z_atom, out=lifts)
                    moving |= lifts
                    live = np.flatnonzero(moving)
                    n = live.size
                    v_in, z_in, out = v[live], normal[live], v_next[:n]
                    _qe_step(v_in, z_in, out, tuple(a[:n] for a in scratch), coef)
                else:
                    v_in, out = v, v_next
                    _qe_step(v, normal, out, scratch, coef)
                # trapezoid clock: I += (v + v') dt / 2
                inc = scratch[2][:out.size]
                np.add(v_in, out, out=inc)
                inc *= half_dt
                if live is None:
                    clock += inc
                    v, v_next = v_next, v
                else:
                    clock[live] += inc
                    v.fill(0.0)
                    v[live] = out
            draws += n_block * (stop - done)
            done = stop
            sums[rec] = _erf_sums(clock, z_grid)
    return sums, n_block * done, draws


def estimate_survival(d: Dimensionless, z0: float | np.ndarray, v0: float | None,
                      cfg: McConfig, workers: int = 1) -> McEstimate:
    """Survival at every record time of ``cfg`` for each starting distance
    ``z0``, out of one simulation of ``cfg.n_paths`` variance paths.

    ``z0`` is a scalar or a 1-D grid, kept in the caller's order; every
    entry must be strictly positive (starting on the barrier is absorption
    at time zero, not a simulation).  ``v0 = None`` draws each path's
    starting variance from the stationary Gamma law.  The ``z``s share
    paths, so their estimates are correlated, but each carries a valid
    CLT interval.  ``workers`` blocks run at once; merged in block order,
    the result does not depend on it.
    """
    z = np.asarray(z0, dtype=float)
    if z.ndim > 1:
        raise ConfigError(f"z0 must be a scalar or a 1-D grid, got shape {z.shape}")
    z_grid = z.reshape(-1)
    if z_grid.size == 0 or not np.all((z_grid > 0.0) & (z_grid < math.inf)):
        raise ConfigError(f"z must be nonempty, finite and > 0, got {z_grid.tolist()!r}")
    if v0 is not None and not 0.0 <= v0 < math.inf:
        raise ConfigError(f"v0 must be finite and >= 0, got {v0!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    _positive_arrays(nu=d.nu, beta_squared=d.beta * d.beta)
    steps = cfg.record_steps()

    def run(block):
        return _block(*block, z_grid, steps, v0, d, cfg)

    blocks = _blocks(cfg.n_paths)
    if workers == 1:
        results = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    # each (record, z, 2) block sum is added left to right, in block order:
    # numpy's sum over a block axis may pair them, and pairs them or not
    # depending on the z grid's size
    n = cfg.n_paths
    mean = sum(r[0][..., 0] for r in results) / n
    # pooled sum of squared deviations: within blocks plus between block means
    m2 = sum(r[0][..., 1] + nb * (r[0][..., 0] / nb - mean) ** 2
             for r, (_, nb) in zip(results, blocks))
    ci = 1.96 * np.sqrt(m2 / n) / math.sqrt(n)
    if z.ndim == 0:
        mean, ci = mean[:, 0], ci[:, 0]
    return McEstimate(grid=cfg.record_grid, survival=mean, ci_halfwidth=ci, n_paths=n,
                      seed=cfg.seed, path_steps=sum(r[1] for r in results),
                      rng_draws=sum(r[2] for r in results))


def estimate_survival_averaged(d: Dimensionless, z0: float, cfg: McConfig,
                               workers: int = 1) -> McEstimate:
    """``estimate_survival(d, z0, None, cfg, workers)``.  Kept only because
    the benchmark's ``mc`` workload calls it by this name."""
    return estimate_survival(d, z0, None, cfg, workers)


def survival_profile(d: Dimensionless, z_grid, cfg: McConfig, v0: float | None = None,
                     workers: int = 1) -> McEstimate:
    """:func:`estimate_survival` over ``z_grid``, with ``survival`` and
    ``ci_halfwidth`` 1-D at the last record time.  Kept only because the
    benchmark's ``mc`` workload calls it by this name."""
    est = estimate_survival(d, z_grid, v0, cfg, workers)
    return replace(est, survival=est.survival[-1], ci_halfwidth=est.ci_halfwidth[-1])
