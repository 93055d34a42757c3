"""Conditional Monte Carlo oracle for the first-passage problem.

With zero correlation the return is a Brownian motion run on the clock
``I(tau) = int_0^tau v dt``, so given one variance path the survival
probability is exactly ``erf(z / sqrt(2 I))`` (reflection principle).  The
simulator therefore steps only the variance, by Andersen's quadratic-
exponential (QE) scheme ("Efficient simulation of the Heston stochastic
volatility model", J. Comput. Finance 11(3), 2008): one standard normal per
path-step, a moment-matched quadratic in it where the variance is far from
zero (``psi <= 1.5``), and a point mass at zero plus an exponential tail on
the paths near zero.  ``I`` is the trapezoid rule, kept as a running sum
``S`` of the stepped variances; every estimate is the path mean of
``erf(z / sqrt(2 I))``.  No barrier is monitored, so there is no
discrete-monitoring bias to correct, and one simulation serves every record
time and any number of starting distances.

Precision: ``u = v / theta`` is stepped in float32, on the float64 normals
rounded to float32; ``S``, the clock ``theta dt (S - u/2 + u0/2)`` and the
erf sums are float64.  The mean is ``u + c (1 - u)``, ``c = -expm1(-dt)``:
its fixed point is exactly 1, which ``e u + c`` in float32 moves by up to
6e-5.  The quadratic branch is ``m (1 + ((2b + Z) Z - 1) / (1 + b^2))``: at
beta = 1e-9, ``b ~ 1e9``, and ``m (b + Z)^2 / (1 + b^2)`` rounds ``b + Z``
to ``b``, a float32-sized bias a step.  Every clock product is float64, from
the rounded start, or ``I < 0`` at a zero-step record.

Antithetic pairs (Glasserman, *Monte Carlo Methods in Financial
Engineering*, 2004, sec. 4.2): paths ``p`` and ``p + h`` of a block of ``2h``
or ``2h + 1`` paths take ``Z`` and ``-Z`` of one draw a step, and the odd
block's last path its own draw, until the block first parks (below); each
path keeps QE's law.  The interval is the CLT of the pair units, ``1.96
sqrt(sum_j (u_j - m_j mean)**2) / n`` over the sums ``u_j`` of ``m_j`` paths
(2 a pair, 1 the lone path), never narrower than an ulp of the estimate a step.

One call, :func:`estimate_survival`, runs it for a scalar or 1-D grid ``z0``
from a fixed or (``v0 = None``) stationary start, into one :class:`McEstimate`.

Cost: a step runs only on the live paths and draws one normal per pair, or
per live path once the block has parked.  Where paths on the atom ``v = 0``
take the exponential branch (``2 nu < 4/3``) and more than half of the live
paths sit there, those paths are parked: each draws its wait on the atom
and, when it lifts, its lift value, the law of stepping it, so a parked path
costs one draw per excursion (see :func:`_block`).  The normals come from a
FIFO that one helper thread per block fills in chunks of ``2**16``, one
chunk ahead of the takes but never past two normals per path-step, so the
draws (which release the GIL) overlap the step arithmetic; with ``workers``
blocks at once that is up to ``2 * workers`` threads.  Where nothing parks,
the stream and every output bit are those of inline draws.

Reproducibility: one master seed, an integer in ``[0, 2**64)``; path block
``b`` draws from its own SFC64 stream, seeded by ``SeedSequence([seed, b])``,
and per-block float sums are merged in block order -- the estimate is
bit-identical no matter how many worker threads run the blocks.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, log_ndtr

from .core import Dimensionless, _fields_equal, _nonnegative_arrays, _positive_arrays
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


def _checked_real(name: str, value) -> float:
    """``float(value)``; TypeError unless ``value`` is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    ``record_grid`` lists the times at which survival is read off, and
    ``horizon`` is the last of them, where the run ends (alone, it is short
    for ``record_grid=(horizon,)``).  Every time above 0 must be a positive
    multiple of ``dt``, to within 1e-9 of a step.
    """

    dt: float = 1e-3
    n_paths: int = 10**6
    seed: int = 0
    horizon: float | None = None
    record_grid: tuple[float, ...] = ()

    def __post_init__(self):
        try:
            dt = _checked_real("dt", self.dt)
            grid = tuple(_checked_real("record_grid entry", t) for t in self.record_grid)
            horizon = None if self.horizon is None else _checked_real("horizon", self.horizon)
        except (TypeError, OverflowError) as exc:  # a float holds no int past 2**1024
            raise ConfigError(f"bad dt, horizon or record_grid: {exc}") from None
        if not 0.0 < dt < math.inf:
            raise ConfigError("dt must be finite and > 0")
        object.__setattr__(self, "n_paths", _checked_int("n_paths", self.n_paths, 1))
        object.__setattr__(self, "seed", _checked_int("seed", self.seed, 0, 2**64))
        if not all(0.0 <= t < math.inf for t in grid):
            raise ConfigError("record_grid entries must be finite and >= 0")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ConfigError("record_grid must be sorted ascending")
        if horizon is None and not grid:
            raise ConfigError("either horizon or a nonempty record_grid is required")
        horizon = grid[-1] if horizon is None else horizon
        if not 0.0 < horizon < math.inf:
            raise ConfigError("horizon must be finite and > 0")
        grid = grid or (horizon,)
        if not max(horizon, grid[-1]) / dt < math.inf:
            raise ConfigError("horizon / dt overflows a float")
        times = np.array((horizon, *grid))
        steps = np.round(times / dt)
        off = (np.abs(times / dt - steps) > 1e-9) | ((steps == 0.0) & (times > 0.0))
        if off.any():
            raise ConfigError(f"time {float(times[off][0])!r} is not a positive multiple of "
                              f"dt = {dt!r}; the nearest step time is "
                              f"{float(steps[off][0]) * dt!r}")
        if steps[0] != steps[-1]:
            raise ConfigError(f"horizon {horizon!r} is not the last record time {grid[-1]!r}")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "record_grid", grid)
        object.__setattr__(self, "horizon", grid[-1])

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def record_steps(self) -> np.ndarray:
        return np.round(np.asarray(self.record_grid) / self.dt).astype(np.int64)


@dataclass(frozen=True)
class McEstimate:
    """Survival estimate with CLT confidence half-widths, read at each time
    of ``grid``.

    ``survival`` and ``ci_halfwidth`` have shape ``(len(grid),)`` for a
    scalar ``z0`` and ``(len(grid), len(z0))`` for a grid of them.
    ``path_steps`` counts the live path-steps, the QE steps actually taken;
    ``rng_draws`` counts the variates actually drawn: one normal a step per
    pair (per live path once a block parks), one per parked wait and one per
    lift, plus one Gamma start per path for stationary starts."""

    grid: tuple[float, ...]
    survival: np.ndarray
    ci_halfwidth: np.ndarray
    n_paths: int
    seed: int
    path_steps: int
    rng_draws: int

    __eq__ = _fields_equal


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block])))


def _blocks(n_paths: int) -> list[tuple[int, int]]:
    return [(b, min(_BLOCK, n_paths - b * _BLOCK))
            for b in range((n_paths + _BLOCK - 1) // _BLOCK)]


def _erf_sums(clock: np.ndarray, z_grid: np.ndarray, h: int) -> np.ndarray:
    """Block sums of ``s = erf(z / sqrt(2 I))``, one ``z`` (row) at a time,
    so memory stays O(block).  ``clock`` is in path order; unit ``j`` is the
    pair sum ``u_j = s_j + s_{j+h}`` (``m_j = 2``) for ``j < h``, or the odd
    block's last path (``m_j = 1``).  A row is the sum of ``s``, the sum of
    ``(u_j - m_j c)**2`` and ``c = sum(m_j u_j) / sum(m_j**2)``, a centre that
    pools blocks exactly and keeps the sum exact for near-equal ``s``."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(2.0 * clock)  # I = 0 gives inf, and erf(inf) = 1
    size = np.repeat((2.0, 1.0), (h, clock.size - 2 * h))
    out = np.empty((z_grid.size, 3))
    for j, z in enumerate(z_grid):
        s = erf(z * inv)
        u = s[h:]
        u[:h] += s[:h]
        c = (size * u).sum() / (size * size).sum()
        total = u.sum()
        u -= size * c
        out[j] = total, (u * u).sum(), c
    return out


def _qe_step(u: np.ndarray, normal: np.ndarray, out: np.ndarray, scratch, coef) -> None:
    """One QE step, in ``u``'s dtype, of the variances ``u`` (in units of
    theta) driven by ``normal``: writes ``u'`` into ``out``.  ``scratch`` is
    ``(m, k, tmp, far)``, three buffers of that dtype and a bool one of
    ``u``'s length; ``coef`` is ``(c, s1, s0)``.  Only in-place ufuncs touch
    full-width data, in a fixed operation order, so a path's ``u'`` depends
    on nothing but its own ``u`` and normal."""
    m, k, tmp, far = scratch
    c, s1, s0 = coef
    # conditional mean m = u + c (1 - u) and k = 2 / psi = m^2 / (s1 u + s0)
    np.subtract(1.0, u, out=m)
    m *= c
    m += u
    np.multiply(u, s1, out=tmp)
    tmp += s0
    np.multiply(m, m, out=k)
    k /= tmp
    # past k = 1e18, u' - m is under 1e-8 m, which float32 rounds away: holding k
    # there keeps k (k - 1) finite where beta -> 0 or u is huge
    np.minimum(k, 1e18, out=k)
    # quadratic branch: b^2 = k - 1 + sqrt(k (k - 1)), NaN where k < 1, and
    # u' = m (1 + ((2b + Z) Z - 1) / (1 + b^2)), that is m (b + Z)^2 / (1 + b^2)
    np.subtract(k, 1.0, out=out)
    np.multiply(out, k, out=tmp)
    np.sqrt(tmp, out=tmp)
    out += tmp
    np.sqrt(out, out=tmp)
    tmp += tmp
    tmp += normal
    tmp *= normal
    tmp -= 1.0
    out += 1.0
    tmp /= out
    tmp += 1.0
    np.multiply(m, tmp, out=out)
    # exponential branch where k < _K_SWITCH: u' = (m / q) log(q / Phi(Z)) where
    # U = Phi(-Z) > p = 1 - q, else 0
    np.less(k, _K_SWITCH, out=far)
    idx = np.flatnonzero(far)
    if idx.size:
        q = 2.0 * k[idx] / (2.0 + k[idx])
        out[idx] = m[idx] / q * np.maximum(np.log(q) - log_ndtr(normal[idx]), 0.0)


def _fifo(rng: np.random.Generator, drawer, bound: int):
    """``take(n)``: the next ``n`` standard normals of ``rng``, the ones that
    inline ``rng.standard_normal`` calls of the same counts give, for any
    sequence of counts taking at most ``bound`` in all.  ``drawer`` (a
    one-thread executor) draws the first ``bound`` normals of the stream in
    chunks of ``_BLOCK``, one chunk ahead of the takes."""
    chunks = (drawer.submit(rng.standard_normal, min(_BLOCK, bound - i))
              for i in range(0, bound, _BLOCK))
    pending, chunk, at = next(chunks, None), np.empty(0), 0

    def take(n: int) -> np.ndarray:
        nonlocal chunk, at, pending
        parts = []
        while at + n > chunk.size:
            if at < chunk.size:
                parts.append(chunk[at:])
                n -= chunk.size - at
            chunk, at = pending.result(), 0
            pending = next(chunks, None)
        at += n
        return np.concatenate([*parts, chunk[at - n:at]]) if parts else chunk[at - n:at]
    return take


def _block(block: int, n_block: int, z_grid: np.ndarray, steps: np.ndarray,
           v0: float | None, d: Dimensionless, cfg: McConfig):
    """The one simulation kernel: QE variance steps of one path block.

    Returns the ``(len(steps), z_grid.size, 3)`` sums of :func:`_erf_sums`
    at each record step, and the block's live path-steps and variates drawn.
    ``v0 = None`` draws the starting variances from the stationary Gamma law
    on the block's own stream (keeps worker-count invariance intact).

    The live paths sit in the prefix ``[:n]`` of ``u``, ``total`` and
    ``path``.  A step draws one normal per pair until the block first parks
    and ``n`` after: lifts change the live set nearly every step, and finding
    the live pairs costs more than they save there.  Where paths on the atom
    ``u = 0`` take the exponential branch and more than half of the live
    paths sit there, those paths are parked.  From the atom, QE lifts a path
    with probability ``q0`` a step, to an ``Exp(c / q0)`` value; so a parked
    path draws its lift step (after a ``Geometric(q0)`` wait) and, at that
    step, its lift value, each from one normal as ``log U = log_ndtr(Z)``.
    Until it lifts, its ``u`` is 0 and its running sum gains 0.  The parked
    paths are kept sorted by lift step, so a step pops a contiguous head.
    """
    rng = _block_rng(cfg.seed, block)
    u = (rng.gamma(shape=d.nu, scale=1.0 / d.nu, size=n_block) if v0 is None
         else np.full(n_block, v0 / d.theta)).astype(np.float32)
    draws = n_block if v0 is None else 0
    # one step's conditional mean m = u + c (1 - u) and half variance s2 / 2 = s1 u + s0
    c = -math.expm1(-cfg.dt)
    coef = (c, math.exp(-cfg.dt) * c / d.nu, 0.5 * c * c / d.nu)
    # on the atom every path has k = k0 = 2 nu; below _K_SWITCH it leaves with probability q0
    q0, parkable = 2.0 * d.nu / (1.0 + d.nu), 2.0 * d.nu < _K_SWITCH
    tdt, half_tdt, n_steps, n = d.theta * cfg.dt, 0.5 * d.theta * cfg.dt, int(steps[-1]), n_block
    h, paired = n_block // 2, True  # paths p and p + h share a draw until the block parks
    u_next, normal, *f32 = (np.empty(n_block, np.float32) for _ in range(5))
    scratch, clock, work = (*f32, np.empty(n_block, bool)), np.empty(n_block), np.empty(n_block)
    # the clock I = theta dt S - (theta dt/2) u + base, base = (theta dt/2) u0, in float64;
    # it needs no clamp at 0: S >= u after rounding, so fl(theta dt S) >= fl(theta dt u / 2)
    base = np.multiply(u, half_tdt, dtype=np.float64)
    total, path = np.zeros(n_block), np.arange(n_block, dtype=np.int32)
    # live path i is path[i]; parked path p has key lift step * n_block + p and sum parked[p]
    keys, parked = np.empty(0, dtype=np.int64), np.empty(0)
    sums = np.empty((len(steps), z_grid.size, 3))
    done = path_steps = 0
    # the drawer's first chunk is drawn after the Gamma start draw above; a path takes
    # at most one normal a step, or two on a step where it parks and lifts again
    with ThreadPoolExecutor(1) as drawer, np.errstate(divide="ignore", invalid="ignore"):
        take = _fifo(rng, drawer, 2 * n_block * n_steps)
        for rec, stop in enumerate(steps.tolist()):
            for step in range(done, stop):
                atom = scratch[3][:n]
                if parkable and 2 * np.count_nonzero(np.equal(u[:n], 0.0, out=atom)) > n:
                    p = path[:n][atom]
                    parked = parked if parked.size else np.empty(n_block)
                    parked[p] = total[:n][atom]
                    wait = np.floor(log_ndtr(take(p.size)) / math.log1p(-q0))
                    due = (step + np.minimum(wait, n_steps).astype(np.int64)) * n_block + p
                    # two sorted runs: the stable sort merges them in one pass
                    keys = np.concatenate((keys, np.sort(due)))
                    keys.sort(kind="stable")
                    keep = np.flatnonzero(np.logical_not(atom, out=atom))
                    n = keep.size
                    u[:n], total[:n], path[:n] = u[keep], total[keep], path[keep]
                    draws, paired = draws + p.size, False
                z = take(n - h if paired else n)
                draws += z.size
                if paired:
                    normal[:h] = z[:h]
                    np.negative(z, out=normal[h:])
                else:
                    normal[:n] = z
                _qe_step(u[:n], normal[:n], u_next[:n], tuple(a[:n] for a in scratch), coef)
                np.add(total[:n], u_next[:n], out=total[:n])
                u, u_next = u_next, u
                path_steps += n
                if keys.size and keys[0] < (step + 1) * n_block:
                    up = int(np.searchsorted(keys, (step + 1) * n_block))
                    p = keys[:up] % n_block
                    u[n:n + up] = c / q0 * -log_ndtr(take(up))
                    np.add(parked[p], u[n:n + up], out=total[n:n + up])
                    path[n:n + up], keys, n = p, keys[up:], n + up
                    draws += up
            done = stop
            # a parked path's u is 0, so its clock is theta dt S + base
            live, off, p = clock[:n], clock[n:], keys % n_block
            np.multiply(total[:n], tdt, out=live)
            live -= np.multiply(u[:n], half_tdt, out=work[:n], dtype=np.float64)
            live += np.take(base, path[:n], out=work[:n])
            np.multiply(np.take(parked, p, out=off), tdt, out=off)
            off += np.take(base, p, out=work[n:])
            work[path[:n]], work[p] = live, off
            sums[rec] = _erf_sums(work, z_grid, h)
    return sums, path_steps, draws


def estimate_survival(d: Dimensionless, z0: float | np.ndarray, v0: float | None,
                      cfg: McConfig, workers: int = 1) -> McEstimate:
    """Survival at every record time of ``cfg`` for each starting distance
    ``z0``, out of one simulation of ``cfg.n_paths`` variance paths.

    ``z0`` is a scalar or a nonempty 1-D grid, kept in the caller's order,
    of finite and strictly positive distances (starting on the barrier is
    absorption at time zero, not a simulation).  ``v0`` is finite and >= 0,
    or ``None`` to draw each path's starting variance from the stationary
    Gamma law.  The ``z``s share paths, so their estimates are correlated,
    but each carries a valid CLT interval.  ``workers`` (an integer >= 1)
    blocks run at once; merged in block order, the result does not depend on it.
    """
    z = np.asarray(z0, dtype=float)
    if z.ndim > 1:
        raise ConfigError(f"z0 must be a scalar or a 1-D grid, got shape {z.shape}")
    z_grid = z.reshape(-1)
    if z_grid.size == 0:
        raise ConfigError("z0 must be nonempty")
    _positive_arrays(z0=z_grid, nu=d.nu, beta_squared=d.beta * d.beta)
    if v0 is not None:
        _nonnegative_arrays(v0=v0)
    workers = _checked_int("workers", workers, 1)
    steps = cfg.record_steps()

    def run(block):
        return _block(*block, z_grid, steps, v0, d, cfg)

    blocks = _blocks(cfg.n_paths)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, blocks))
    # each (record, z, 2) block sum is added left to right, in block order:
    # numpy's sum over a block axis may pair them, and pairs them or not
    # depending on the z grid's size
    n = cfg.n_paths
    mean = sum(r[0][..., 0] for r in results) / n
    # pooled sum of (u_j - m_j mean)**2 over the pair units: within blocks, plus
    # sum(m_j**2) = 2 nb - nb % 2 times the squared gap of each block's centre
    m2 = sum(r[0][..., 1] + (2 * nb - nb % 2) * (r[0][..., 2] - mean) ** 2
             for r, (_, nb) in zip(results, blocks))
    # where the paths spread, never narrower than an ulp of the estimate per step summed
    ci = np.where(m2 > 0.0, np.maximum(1.96 * np.sqrt(m2) / n,
                                       steps[:, None] * np.spacing(mean)), 0.0)
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
