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

Precision: ``u = v / theta`` is stepped in float32, on float32 normals; ``S``,
the clock ``theta dt (S - u/2 + u0/2)`` and the erf sums are float64.  The
mean is ``u + c (1 - u)``, ``c = -expm1(-dt)``: its fixed point is exactly 1,
which ``e u + c`` in float32 moves by up to 6e-5.  The quadratic branch is
``m (1 + ((2b + Z) Z - 1) / (1 + b^2))``: at beta = 1e-9, ``b ~ 1e9``, and
``m (b + Z)^2 / (1 + b^2)`` rounds ``b + Z`` to ``b``, a float32-sized bias
a step.  Every clock product is float64, from the rounded start, or ``I <
0`` at a zero-step record.

Antithetic pairs (Glasserman, *Monte Carlo Methods in Financial
Engineering*, 2004, sec. 4.2): paths ``p`` and ``p + h`` of a block of ``2h``
or ``2h + 1`` paths take ``Z`` and ``-Z`` of one draw a step, and the odd
block's last path its own draw, until the block first parks (below); each
path keeps QE's law.  The interval is the CLT of the pair units, ``1.96
sqrt(sum_j (u_j - m_j mean)**2) / n`` over the sums ``u_j`` of ``m_j`` paths
(2 a pair, 1 the lone path), never narrower than an ulp of the estimate a step.

One call, :func:`estimate_survival`, runs it for a scalar or 1-D grid ``z0``
from a fixed or (``v0 = None``) stationary start, into one :class:`McEstimate`.

Cost: a step runs only on the live paths and takes one normal per pair, or
per live path once the block has parked, from a chunk of float32 Box-Muller
normals (:class:`_Normals`).  Where paths on the atom ``v = 0`` take the
exponential branch (``2 nu < 4/3``) and more than half of the live
paths sit there, those paths are parked: each draws its wait on the atom
and, when it lifts, its lift value, the law of stepping it, so a parked path
costs one draw per excursion (see :func:`_block`).  A path block is the unit
of work and of threads: it runs on one thread and draws its variates in-line
from its own generator, and a call runs up to ``2 * workers`` blocks at once.
So 2^17 paths keep two cores busy at ``workers = 1``, while a call of one
block (``2**16`` paths or fewer) runs on one thread.

Reproducibility: one seed, an integer in ``[0, 2**64)``; path block ``b``
draws from its own SFC64 stream, ``SeedSequence([seed, b])``, its normals in
the layout of :class:`_Normals` (cut at ``|Z| = 6.764``), and block sums
merge in block order: the estimate is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, ndtr

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
    ``rng_draws`` counts the variates paths take, not a chunk's unused tail:
    a normal a step per pair (per live path once a block parks), one per
    parked wait and one per lift, and one Gamma start a path if stationary."""

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


class _Normals:
    """A block's step normals, in order: float32 Box-Muller (Box & Muller,
    1958), ``_BLOCK`` at a time, ``r cos(a)`` of each raw word ``x``, then ``r
    sin(a)``, for ``r = sqrt(-2 log(((x >> 32) + 1/2) 2^-32))`` and ``a = (x &
    (2^24 - 1)) 2 pi / 2^24``.  So ``|Z| <= 6.764``, cutting a 1.3e-11 tail."""

    def __init__(self, rng: np.random.Generator):
        self._raw, self._pos = rng.bit_generator.random_raw, _BLOCK
        self._chunk = np.empty(_BLOCK, np.float32)

    def take(self, size: int) -> np.ndarray:
        """The next ``size <= _BLOCK`` normals, valid until the next take."""
        start, self._pos = self._pos, self._pos + size
        if self._pos <= _BLOCK:
            return self._chunk[start:self._pos]
        tail, x, self._pos = self._chunk[start:].copy(), self._raw(_BLOCK // 2), self._pos - _BLOCK
        cos, sin = np.split(self._chunk, 2)
        np.bitwise_and(x, 2**24 - 1, out=cos, casting="unsafe")  # the angles, in the cos half
        cos *= np.float32(2.0 * math.pi / 2**24)
        radius = x.view(float)
        radius[...] = np.right_shift(x, 32, out=x)  # converted in place, with no copy
        np.log(np.multiply(np.add(radius, 0.5, out=radius), 2.0**-32, out=radius), out=radius)
        np.sqrt(np.multiply(radius, -2.0, out=radius), out=sin)  # rounded to float32
        sin_a = np.sin(cos, out=x.view(np.float32)[:_BLOCK // 2])  # the radii are spent
        np.multiply(np.cos(cos, out=cos), sin, out=cos)
        sin *= sin_a
        return np.append(tail, self._chunk[:self._pos]) if tail.size else self._chunk[:self._pos]


def _blocks(n_paths: int) -> list[tuple[int, int]]:
    return [(b, min(_BLOCK, n_paths - b * _BLOCK))
            for b in range((n_paths + _BLOCK - 1) // _BLOCK)]


def _erf_sums(clock: np.ndarray, z_grid: np.ndarray, h: int, s: np.ndarray) -> np.ndarray:
    """Block sums of ``s = erf(z / sqrt(2 I))``, a ``z`` (row) at a time, in
    the block's buffers: ``clock`` (path order) becomes ``1 / sqrt(2 I)`` and
    ``s`` holds a row.  Unit ``j`` is ``u_j = s_j + s_{j+h}`` (``m_j = 2``) for
    ``j < h``, or the odd block's last path (``m_j = 1``).  A row is the sum of
    ``s``, the sum of ``(u_j - m_j c)**2`` and ``c = sum(m_j u_j) / sum(m_j**2)``,
    a centre that pools blocks exactly and keeps the sum exact for near-equal ``s``."""
    with np.errstate(divide="ignore"):  # I = 0 gives inf, and erf(inf) = 1
        inv = np.divide(1.0, np.sqrt(np.multiply(clock, 2.0, out=clock), out=clock), out=clock)
    u, prod, out = s[h:], np.empty(clock.size - h), np.empty((z_grid.size, 3))
    for j, z in enumerate(z_grid):
        u[:h] += erf(np.multiply(inv, z, out=s), out=s)[:h]
        np.multiply(u[:h], 2.0, out=prod[:h])
        prod[h:] = u[h:]
        c = out[j, 2] = prod.sum() / (2 * h + clock.size)  # sum(m_j**2) = 4h + (n - 2h)
        out[j, 0] = u.sum()
        u[:h] -= 2.0 * c
        u[h:] -= c
        out[j, 1] = np.multiply(u, u, out=prod).sum()
    return out


def _coef(d: Dimensionless, dt: float) -> tuple[float, float, float]:
    """``(c, s1, s0)`` of a step of ``dt`` in units of theta: the conditional
    mean is ``m = u + c (1 - u)`` and half the conditional variance ``s1 u + s0``."""
    c = -math.expm1(-dt)
    return c, math.exp(-dt) * c / d.nu, 0.5 * c * c / d.nu


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
    # U = Phi(-Z) > p = 1 - q, else 0; Phi (ndtr, which computes in double) is held
    # at the smallest normal float, so q / Phi stays finite where Phi underflows
    np.less(k, _K_SWITCH, out=far)
    idx = np.flatnonzero(far)
    if idx.size:
        kf = k[idx]
        q = 2.0 * kf / (2.0 + kf)
        phi = np.maximum(ndtr(normal[idx]), np.finfo(normal.dtype).tiny)
        out[idx] = m[idx] / q * np.maximum(np.log(q / phi), 0.0)


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
    step, its lift value, from one ``E ~ Exp(1)`` each: the wait is
    ``floor(E / -log(1 - q0))`` and the lift value ``(c / q0) E``.
    Until it lifts, its ``u`` is 0 and its running sum gains 0.  The parked
    paths are kept sorted by lift step, so a step pops a contiguous head.
    The block draws every variate in-line, on the thread that runs it.
    """
    rng = _block_rng(cfg.seed, block)
    normals = _Normals(rng)
    u = (rng.gamma(shape=d.nu, scale=1.0 / d.nu, size=n_block) if v0 is None
         else np.full(n_block, v0 / d.theta)).astype(np.float32)
    draws = n_block if v0 is None else 0
    coef = _coef(d, cfg.dt)
    c = coef[0]
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
    # the step may divide by 0 or overflow in k, held at 1e18, and takes NaN roots where k < 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rec, stop in enumerate(steps.tolist()):
            for step in range(done, stop):
                atom = scratch[3][:n]
                if parkable and 2 * np.count_nonzero(np.equal(u[:n], 0.0, out=atom)) > n:
                    p = path[:n][atom]
                    parked = parked if parked.size else np.empty(n_block)
                    parked[p] = total[:n][atom]
                    wait = np.floor(rng.standard_exponential(p.size) / -math.log1p(-q0))
                    due = (step + np.minimum(wait, n_steps).astype(np.int64)) * n_block + p
                    # two sorted runs: the stable sort merges them in one pass
                    keys = np.concatenate((keys, np.sort(due)))
                    keys.sort(kind="stable")
                    keep = np.flatnonzero(np.logical_not(atom, out=atom))
                    n = keep.size
                    u[:n], total[:n], path[:n] = u[keep], total[keep], path[keep]
                    draws, paired = draws + p.size, False
                z = normals.take(n - h if paired else n)
                draws += z.size
                if paired:
                    normal[:h] = z[:h]
                    np.negative(z, out=normal[h:])
                    z = normal
                _qe_step(u[:n], z[:n], u_next[:n], tuple(a[:n] for a in scratch), coef)
                np.add(total[:n], u_next[:n], out=total[:n])
                u, u_next = u_next, u
                path_steps += n
                if keys.size and keys[0] < (step + 1) * n_block:
                    up = int(np.searchsorted(keys, (step + 1) * n_block))
                    p = keys[:up] % n_block
                    u[n:n + up] = c / q0 * rng.standard_exponential(up)
                    np.add(parked[p], u[n:n + up], out=total[n:n + up])
                    path[n:n + up], keys, n = p, keys[up:], n + up
                    draws += up
            done = stop
            # a parked path (u = 0) reads theta dt S + base; takes clip, as "raise" buffers out
            live, off, p = clock[:n], clock[n:], keys % n_block
            np.multiply(total[:n], tdt, out=live)
            live -= np.multiply(u[:n], half_tdt, out=work[:n], dtype=np.float64)
            live += np.take(base, path[:n], out=work[:n], mode="clip")
            np.multiply(np.take(parked, p, out=off, mode="clip"), tdt, out=off)
            off += np.take(base, p, out=work[n:], mode="clip")
            work[path[:n]], work[p] = live, off
            sums[rec] = _erf_sums(work, z_grid, h, clock)
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
    sets the threads: up to ``2 * workers`` blocks run at once, one thread
    each; merged in block order, the result does not depend on it.  A start
    or a model the float32 step cannot hold (``v0 / theta``, or the step's
    ``s1 = exp(-dt) c / nu`` or ``s0 = c**2 / (2 nu)``, past 3.4e38) raises
    :class:`ParameterError`.
    """
    z = np.asarray(z0, dtype=float)
    if z.ndim > 1:
        raise ConfigError(f"z0 must be a scalar or a 1-D grid, got shape {z.shape}")
    z_grid = z.reshape(-1)
    if z_grid.size == 0:
        raise ConfigError("z0 must be nonempty")
    _positive_arrays(z0=z_grid, nu=d.nu, beta_squared=d.beta * d.beta)
    # the step holds u = v / theta, s1 and s0 in float32: past its range they read inf
    with np.errstate(over="ignore"):
        _nonnegative_arrays(**{"the float32 step's s1, s0": np.float32(_coef(d, cfg.dt)[1:])})
        if v0 is not None:
            _nonnegative_arrays(v0=v0)
            _nonnegative_arrays(**{"v0 / theta in float32": np.float32(v0 / d.theta)})
    workers = _checked_int("workers", workers, 1)
    steps = cfg.record_steps()

    def run(block):
        return _block(*block, z_grid, steps, v0, d, cfg)

    blocks = _blocks(cfg.n_paths)
    with ThreadPoolExecutor(max_workers=2 * workers) as pool:
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
