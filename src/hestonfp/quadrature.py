"""Fourier-sine inversion of the survival-probability integrands.

Both survival representations handled here have the form

    S = (2/pi) * integral_0^inf  [sin(omega*z)/omega] * F(omega) d(omega)

with ``F`` a smooth, positive, decaying frequency factor: the conditional
(fixed starting variance) factor ``exp(-A - (2/beta**2)*B*v)`` and the
stationary-averaged factor ``exp(-nu*(mu_minus*tau + log(...)))``.

Strategy: the axis is split at the sine zeros ``omega_k = k*pi/z`` so the
panel contributions alternate in sign and decay; fixed-order adaptive
Gauss-Legendre handles each panel; summation stops once two consecutive
contributions drop below tolerance.  Slowly decaying tails (small ``theta*tau``
with large ``beta``) are resummed by iterated averaging of the partial sums.
When the truncation frequency sits below the first sine zero the whole range
is one adaptive pass.  The truncation frequency itself is found by a doubling
scan of ``log F`` -- analytic envelope guesses only seed the scan.

Python call overhead, not arithmetic, dominates at 16 nodes per leaf, so the
work is batched -- across the panels of one point and across the points of
one call -- without changing any decision.  The batch entry points
(``survival_exact_batch``, ``survival_averaged_batch``) take many points of
one integrand family, with ``z``, ``v``, ``tau``, ``theta`` and ``beta``
free to vary per point; ``log F`` receives each node's owning point.  The
single-point functions are one-point calls of the same kernel.

* The cutoff scans of all points are one call of ``log F``: every point's
  whole doubling ladder is evaluated at once and its scan replayed on the
  result.
* Panels are computed a block at a time, and the current blocks of all
  still-open points are refined together, level by level: every bisection
  level of every open interval is one call of ``F``, each interval accepted
  or split by its own tolerance exactly as in a depth-first bisection.
* The stopping rules then run point by point and panel by panel over the
  blocks' results; panels past a point's stop are discarded.

Only summation order differs from a point-by-point, depth-first evaluation.
A batch fails as a loop over its points would: with the ``NonConvergence``
of the lowest-numbered failing point.  Memory stays bounded whatever the
batch size: one call of ``F`` takes at most ``_MAX_NODES`` nodes (a larger
level or ladder is split), a round admits the lowest-numbered open points
whose blocks fit ``_MAX_LEAVES`` root intervals, and a level whose open
intervals outgrow that budget defers its highest-numbered points to a later
round.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf

from .core import Dimensionless, State, _nonnegative_arrays, _with_boundaries
from .errors import ConfigError, NonConvergence

__all__ = [
    "QuadConfig",
    "SPResult",
    "sine_transform",
    "survival_exact",
    "survival_exact_batch",
    "survival_averaged",
    "survival_averaged_batch",
    "survival_wiener",
    "hitting",
]

_OMEGA_CAP = 1e8
# Leaves plus open intervals one point's refinement of a block may reach;
# the open intervals of one level of a whole batch are held to the same
# budget by deferring its highest-numbered points.
_MAX_LEAVES = 2**16
# Nodes one call of ``F`` receives at most; a larger level is split.
_MAX_NODES = 2**12
# Panels per block of the panel loop; the last size repeats.  Every block
# ends on a panel where series acceleration is tried (k = 24, 56, 120, ...):
# no accelerated stop can come earlier, and most slowly decaying integrands
# stop at the first such panel.
_BLOCKS = (25, 32, 64)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and limits for the oscillatory quadrature."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_panels: int = 10**6
    points_per_panel: int = 16

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ConfigError("tolerances must be > 0")
        if self.max_panels < 1:
            raise ConfigError("max_panels must be >= 1")
        if self.points_per_panel < 2:
            raise ConfigError("points_per_panel must be >= 2")


@dataclass(frozen=True)
class SPResult:
    """A survival (or hitting) probability with quadrature diagnostics.

    ``value`` is the raw quadrature output -- never clamped.  If it falls
    outside ``[-1e-6, 1 + 1e-6]`` the ``out_of_range`` flag is set and it is
    the caller's job to decide what to do about it.
    """

    value: float
    err_estimate: float
    method: str
    panels_used: int
    out_of_range: bool = False

    @staticmethod
    def make(value: float, err_estimate: float, method: str, panels_used: int) -> "SPResult":
        out = not (-1e-6 <= value <= 1.0 + 1e-6)
        return SPResult(value, err_estimate, method, panels_used, out)


@functools.cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


def _log_factor_exact(omega, tau, v, theta, beta):
    """log F for the conditional survival integrand, cancellation-free."""
    nu = 2.0 * theta / (beta * beta)
    x = beta * np.asarray(omega, dtype=float)
    delta = np.hypot(1.0, x)
    mu_minus = x * x / (2.0 * (delta + 1.0))
    mu_plus = mu_minus + 1.0
    e = np.exp(-delta * tau)
    em1 = np.expm1(-delta * tau)
    acc = nu * (mu_minus * tau + np.log1p(mu_minus * em1 / delta))
    b = mu_minus * (-em1) / (1.0 + (mu_minus / mu_plus) * e)
    return -acc - (2.0 / (beta * beta)) * b * v


def _log_factor_averaged(omega, tau, theta, beta):
    """log F for the stationary-averaged integrand.

    The Gamma average of ``exp(-(2/beta**2)*B*v)`` collapses to
    ``(1 + B)**(-nu)``, which combines with ``exp(-A)`` into a single
    log-stable expression.
    """
    nu = 2.0 * theta / (beta * beta)
    x = beta * np.asarray(omega, dtype=float)
    delta = np.hypot(1.0, x)
    mu_minus = x * x / (2.0 * (delta + 1.0))
    mu_plus = mu_minus + 1.0
    e = np.exp(-delta * tau)
    log_den = 2.0 * np.log(mu_plus) + np.log1p(-((mu_minus / mu_plus) ** 2) * e)
    return nu * (np.log(delta) - log_den - mu_minus * tau)


def _sine_weight(omega, z):
    """sin(omega*z)/omega, series-expanded where omega*z is tiny; ``z``
    broadcasts against ``omega``."""
    t = omega * z
    w = np.sin(t) / omega
    small = np.abs(t) < 1e-4
    if small.any():
        ts = t[small]
        w[small] = np.broadcast_to(z, t.shape)[small] * (1.0 - ts * ts / 6.0 + ts**4 / 120.0)
    return w


def _find_cutoffs(log_f, seeds, log_thresh: float, cap: float = _OMEGA_CAP) -> list[float]:
    """Per point, the smallest doubling-scan frequency past which log F stays
    below threshold.

    Each scan starts from its ``seeds`` entry (any positive guess), walks
    down while already below threshold, then up until two consecutive
    probes are below.  Probing the actual integrand makes the rule robust in
    regimes where closed-form envelopes are wildly off (large ``v`` with
    small ``tau``).  The whole ladder ``seed * 2**j`` each scan can visit,
    from ``1e-6`` to ``cap``, is evaluated -- for all points in one call of
    ``log_f(omega, point)`` (or more, of ``_MAX_NODES`` rungs each); scaling
    by powers of two is exact, so the rungs are the very frequencies a
    probe-by-probe scan would reach.
    """
    ladders, starts = [], []
    for seed in seeds:
        w0 = max(min(seed, cap), 1e-6)
        n_down = n_up = 0
        w = w0
        while w > 1e-6:
            w *= 0.5
            n_down += 1
        w = w0
        while w < cap:
            w *= 2.0
            n_up += 1
        ladders.append(np.ldexp(w0, np.arange(-n_down, n_up + 1)))
        starts.append(n_down)
    sizes = [ladder.size for ladder in ladders]
    rungs = np.concatenate(ladders)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    below_all = np.concatenate([log_f(rungs[s:s + _MAX_NODES], owner[s:s + _MAX_NODES])
                                for s in range(0, rungs.size, _MAX_NODES)])
    below_all = (below_all < log_thresh).tolist()
    cutoffs = []
    end = 0
    for ladder, i, size in zip(ladders, starts, sizes):
        below = below_all[end:end + size]
        end += size
        ladder = ladder.tolist()
        while ladder[i] > 1e-6 and below[i]:
            i -= 1
        count = 0
        cut = cap
        while ladder[i] < cap:
            i += 1
            if below[i]:
                count += 1
                if count >= 2:
                    cut = min(ladder[i], cap)
                    break
            else:
                count = 0
        cutoffs.append(cut)
    return cutoffs


def _adaptive_gl(g, lo, hi, owner, tol, order: int):
    """Adaptive bisection with fixed-order Gauss-Legendre leaves.

    Refines every root interval ``[lo[r], hi[r]]`` of point ``owner[r]``
    (nondecreasing) at once, breadth-first: each refinement level of all
    open intervals is one call of ``g(omega, point)``, split into calls of
    at most ``_MAX_NODES`` nodes.  An interval becomes a leaf when its two
    halves agree with it to within its tolerance (``tol[r]`` halved per
    level) or it is too narrow to split, so the leaves are those of a
    depth-first bisection of each root.

    A point whose leaves plus open intervals exceed ``_MAX_LEAVES`` fails.
    When the open intervals of all points exceed it, the highest-numbered
    points are deferred.  Either way that point and every higher-numbered
    one stop refining.

    Returns per-root arrays ``(integral, error, leaves)``, valid for the
    roots of points below ``stop``; then ``stop`` (one past the last point
    when all finished) and, if point ``stop`` failed, the sums of its
    accepted leaves ``(integral, error, leaves)``, ``None`` if it was
    deferred.
    """
    x, wts = _gl_nodes(order)
    step = max(1, _MAX_NODES // order)

    def gl(lo, hi, own):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        out = np.empty(lo.size)
        for s in range(0, lo.size, step):
            nodes = mid[s:s + step, None] + half[s:s + step, None] * x
            out[s:s + step] = (g(nodes, own[s:s + step, None]) * wts).sum(axis=1)
        return half * out

    n = lo.size
    n_points = int(owner[-1]) + 1
    root, own, t = np.arange(n), owner, tol
    coarse = gl(lo, hi, own)
    total, err_total = np.zeros(n), np.zeros(n)
    leaves = np.zeros(n, dtype=int)
    point_leaves = np.zeros(n_points, dtype=int)
    stop, failure = n_points, None
    while root.size:
        opened = np.bincount(own, minlength=n_points)
        over = np.flatnonzero(point_leaves + opened > _MAX_LEAVES)
        cut = int(over[0]) if over.size else n_points
        crowded = np.flatnonzero(np.cumsum(opened[:cut]) > _MAX_LEAVES)
        if crowded.size:
            stop, failure = int(crowded[0]), None
        elif over.size:
            mine = owner == cut
            stop, failure = cut, (float(total[mine].sum()), float(err_total[mine].sum()),
                                  int(point_leaves[cut]))
        if crowded.size or over.size:
            keep = own < stop
            lo, hi, own, root, t, coarse = (a[keep] for a in (lo, hi, own, root, t, coarse))
            if not root.size:
                break
        m = 0.5 * (lo + hi)
        halves = gl(np.concatenate((lo, m)), np.concatenate((m, hi)), np.tile(own, 2))
        left, right = halves[:root.size], halves[root.size:]
        fine = left + right
        err = np.abs(fine - coarse)
        done = (err <= t) | ((hi - lo) < 1e-14 * np.maximum(np.abs(lo), 1.0))
        total += np.bincount(root[done], fine[done], n)
        err_total += np.bincount(root[done], err[done], n)
        leaves += np.bincount(root[done], minlength=n)
        point_leaves += np.bincount(own[done], minlength=n_points)
        open_ = ~done
        lo, m, hi = lo[open_], m[open_], hi[open_]
        lo, hi = np.concatenate((lo, m)), np.concatenate((m, hi))
        coarse = np.concatenate((left[open_], right[open_]))
        root = np.tile(root[open_], 2)
        own = np.tile(own[open_], 2)
        t = np.tile(0.5 * t[open_], 2)
    return total, err_total, leaves, stop, failure


def _euler_accel(partials) -> tuple[float, float]:
    """Iterated-mean acceleration of an alternating sequence of partial sums."""
    s = np.asarray(partials, dtype=float)
    prev_last = s[-1]
    while len(s) > 2:
        s = 0.5 * (s[1:] + s[:-1])
        if abs(s[-1] - prev_last) < 1e-18:
            break
        prev_last = s[-1]
    if len(s) >= 2:
        return float(s[-1]), abs(float(s[-1]) - float(s[-2]))
    return float(s[-1]), 0.0


class _PanelSum:
    """One point's panel loop: the roots of its next refinement, and the
    stopping rules replayed panel by panel over each refined block."""

    def __init__(self, z: float, omega_max: float, cfg: QuadConfig):
        self.cfg = cfg
        self.omega_max = omega_max
        self.panel_w = math.pi / z
        self.single = self.panel_w >= omega_max
        self.k = 0
        self.n_blocks = 0
        self.total = self.err_total = 0.0
        self.panels = 0
        self.partials: list[float] = []
        self.contributions: list[float] = []
        self.below = 0

    def failure(self, message: str, total: float, err_total: float,
                panels: int) -> NonConvergence:
        """The point's ``NonConvergence``, from its panel sums so far."""
        front = 2.0 / math.pi
        return NonConvergence(message, partial=front * total,
                              err_estimate=front * err_total, panels_used=panels)

    def roots(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Root intervals of the next refinement and their tolerance."""
        cfg = self.cfg
        if self.single:
            return np.zeros(1), np.array([self.omega_max]), 0.05 * cfg.abs_tol
        block = _BLOCKS[min(self.n_blocks, len(_BLOCKS) - 1)]
        ks = np.arange(self.k, min(self.k + block, cfg.max_panels + 1))
        return ks * self.panel_w, (ks + 1) * self.panel_w, cfg.abs_tol / 64.0

    def feed(self, cs, es, lvs) -> tuple[float, float, int] | None:
        """``(value, err_estimate, panels_used)`` once a stopping rule fires
        within the refined block, else ``None``."""
        cfg = self.cfg
        front = 2.0 / math.pi
        if self.single:
            return front * cs[0], front * (es[0] + 0.01 * cfg.abs_tol), lvs[0]
        k, total, err_total, panels = self.k, self.total, self.err_total, self.panels
        partials, contributions, below = self.partials, self.contributions, self.below
        for c, e, lv in zip(cs, es, lvs):
            a = k * self.panel_w
            total += c
            err_total += e
            panels += lv
            contributions.append(c)
            partials.append(total)
            thresh = cfg.abs_tol + cfg.rel_tol * abs(total)
            if abs(c) < thresh:
                below += 1
                if below >= 2:
                    return front * total, front * (err_total + abs(c)), panels
            else:
                below = 0
            if k >= 24 and k % 8 == 0:
                tail = np.asarray(contributions[-17:])
                if np.all(tail[1:] * tail[:-1] < 0.0):
                    est, aerr = _euler_accel(partials[-17:])
                    if aerr < 0.5 * thresh:
                        return front * est, front * (err_total + 2.0 * aerr), panels
            if a > self.omega_max and abs(c) < thresh:
                return front * total, front * (err_total + abs(c)), panels
            k += 1
        if k > cfg.max_panels:
            raise self.failure(
                f"sine transform failed to converge within {cfg.max_panels} panels",
                total, err_total + abs(c), panels)
        self.k, self.total, self.err_total, self.panels = k, total, err_total, panels
        self.below = below
        self.n_blocks += 1
        return None


def _sine_transforms(F, log_f, z, cfg: QuadConfig, seeds=None,
                     omega_max=None) -> list[tuple[float, float, int]]:
    """``(value, err_estimate, panels_used)`` of the sine transform of every
    point; the kernel behind every public entry point.

    ``F(omega, point)`` and ``log_f(omega, point)`` evaluate the frequency
    factor of the given points (an integer array broadcasting against
    ``omega``).  ``z`` holds each point's sine scale.  Cutoffs come from
    ``omega_max`` or are scanned from ``seeds``.  Points with ``z = 0``
    short-circuit to 0.

    Raises ``ConfigError`` for a negative or non-finite ``z`` before any
    call of ``F``, and otherwise the ``NonConvergence`` of the
    lowest-numbered failing point, its index in ``point``.
    """
    z = np.asarray(z, dtype=float)
    bad = np.flatnonzero(~((z >= 0.0) & (z < math.inf)))
    if bad.size:
        raise ConfigError(f"z must be finite and >= 0, got {float(z[bad[0]])!r}")
    results = [(0.0, 0.0, 0)] * z.size
    live = np.flatnonzero(z > 0.0)
    if not live.size:
        return results
    if omega_max is None:
        cut = _find_cutoffs(lambda w, i: log_f(w, live[i]), [seeds[i] for i in live],
                            math.log(0.01 * cfg.abs_tol))
    else:
        cut = [omega_max[i] for i in live]
    open_ = {int(i): _PanelSum(float(z[i]), c, cfg) for i, c in zip(live, cut)}
    failure = None

    def g(w, i):
        return _sine_weight(w, z[i]) * F(w, i)

    while open_:
        # the lowest-numbered open points whose roots fit the leaf budget
        ids, parts, n_roots = [], [], 0
        for i, point in open_.items():
            part = point.roots()
            n_roots += part[0].size
            if ids and n_roots > _MAX_LEAVES:
                break
            ids.append(i)
            parts.append(part)
        sizes = [lo.size for lo, _, _ in parts]
        vals, errs, lvs, stop, failed = _adaptive_gl(
            g, np.concatenate([lo for lo, _, _ in parts]),
            np.concatenate([hi for _, hi, _ in parts]), np.repeat(ids, sizes),
            np.repeat([tol for _, _, tol in parts], sizes), cfg.points_per_panel)
        exc = None
        if failed is not None:
            # the point's finished panels count, as in the panel-limit failure
            sums = open_[stop]
            exc = sums.failure("adaptive refinement exceeded the leaf budget",
                               sums.total + failed[0], sums.err_total + failed[1],
                               sums.panels + failed[2])
        vals, errs, lvs = vals.tolist(), errs.tolist(), lvs.tolist()
        end = 0
        for i, size in zip(ids, sizes):
            if i >= stop:
                break
            mine = slice(end, end + size)
            end += size
            try:
                res = open_[i].feed(vals[mine], errs[mine], lvs[mine])
            except NonConvergence as e:
                stop, exc = i, e
                break
            if res is not None:
                results[i] = res
                del open_[i]
        if exc is not None:
            exc.point = stop
            failure = exc
            for i in [i for i in open_ if i >= stop]:
                del open_[i]
    if failure is not None:
        raise failure
    return results


def sine_transform(F, z: float, config: QuadConfig | None = None, *,
                   log_f=None, seed_scale: float | None = None,
                   omega_max: float | None = None) -> tuple[float, float, int]:
    """Evaluate ``(2/pi) * integral_0^inf sin(omega z)/omega * F(omega) d(omega)``.

    Parameters
    ----------
    F : callable
        Vectorised frequency factor; continuous, finite at ``0+``, decaying.
    z : float
        Sine argument scale, ``>= 0``; ``z = 0`` short-circuits to 0.
    config : QuadConfig, optional
    log_f : callable, optional
        Vectorised ``log F`` used for the truncation scan (defaults to
        ``log |F|`` evaluated directly).
    seed_scale : float, optional
        Initial guess for the truncation frequency.
    omega_max : float, optional
        Explicit truncation frequency, skipping the scan.

    Returns
    -------
    (value, err_estimate, panels_used)

    Raises
    ------
    ConfigError
        If ``z`` is negative or not finite.
    NonConvergence
        If the panel sum has not met tolerance within ``config.max_panels``
        panels; the exception carries the partial value and its bound.
    """
    if log_f is None:
        def log_f(w):
            return np.log(np.maximum(np.abs(F(w)), 1e-300))

    def one_point(f):
        return lambda w, i: f(np.ravel(w)).reshape(np.shape(w))

    return _sine_transforms(one_point(F), one_point(log_f), [z], config or QuadConfig(),
                            seeds=[seed_scale or 1.0],
                            omega_max=None if omega_max is None else [omega_max])[0]


def _cutoff_seed_exact(tau: float, v: float, theta: float, beta: float) -> float:
    nu = 2.0 * theta / beta**2
    scale = theta * tau + v
    if scale <= 0.0:
        return 1.0
    return beta * (25.0 + nu * math.log(2.0) + 0.5 * nu * tau + v / beta**2) / scale


def _per_point(d, *arrays) -> list[np.ndarray]:
    """Flat per-point arrays of the broadcast ``arrays`` followed by
    ``theta`` and ``beta``, from one ``Dimensionless`` or one per point."""
    if isinstance(d, Dimensionless):
        theta, beta = d.theta, d.beta
    else:
        theta, beta = [x.theta for x in d], [x.beta for x in d]
    return [a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (*arrays, theta, beta)))]


def _survival_batch(method, log_f, seeds, z, live, config) -> list[SPResult]:
    """Run the ``live`` points through one kernel call and wrap every point
    in an SPResult; the others short-circuit, to 0 at ``z = 0`` and else
    (at ``tau = 0``) to 1.

    ``log_f(omega, point)`` and ``seeds`` index the live points in order.
    """
    live = np.flatnonzero(live)
    results = [SPResult.make(0.0 if zi == 0.0 else 1.0, 0.0, method, 0) for zi in z.tolist()]

    def F(w, i):
        return np.exp(log_f(w, i))

    try:
        out = _sine_transforms(F, log_f, z[live], config or QuadConfig(), seeds=seeds)
    except NonConvergence as exc:
        exc.point = int(live[exc.point])
        raise
    for i, (val, err, n) in zip(live.tolist(), out):
        results[i] = SPResult.make(val, err, method, n)
    return results


def survival_exact_batch(z, v, tau, d, config: QuadConfig | None = None) -> list[SPResult]:
    """:func:`survival_exact` at many points, in one batched quadrature.

    ``z``, ``v`` and ``tau`` broadcast against each other and against ``d``,
    which is one :class:`Dimensionless` or a sequence of them, one per
    point.  Returns one SPResult per point of the flattened broadcast,
    each equal to the single-point call.

    Raises
    ------
    ParameterError
        If any ``z``, ``v`` or ``tau`` is negative or not finite.
    NonConvergence
        Of the lowest-numbered failing point, its index in ``point``.
    """
    z, v, tau, theta, beta = _per_point(d, z, v, tau)
    _nonnegative_arrays(z=z, v=v, tau=tau)
    live = (z > 0.0) & (tau > 0.0)
    tau, v, theta, beta = tau[live], v[live], theta[live], beta[live]

    def log_f(w, i):
        return _log_factor_exact(w, tau[i], v[i], theta[i], beta[i])

    seeds = [_cutoff_seed_exact(*p) for p in zip(tau.tolist(), v.tolist(),
                                                  theta.tolist(), beta.tolist())]
    return _survival_batch("exact", log_f, seeds, z, live, config)


def survival_exact(state: State, d: Dimensionless,
                   config: QuadConfig | None = None) -> SPResult:
    """Survival probability for fixed starting variance, by exact inversion.

    Probability that the return, started a distance ``state.z`` from the
    barrier with variance ``state.v``, has not touched the barrier up to
    ``state.tau``.
    """
    return survival_exact_batch(state.z, state.v, state.tau, d, config)[0]


def survival_averaged_batch(z, tau, d, config: QuadConfig | None = None) -> list[SPResult]:
    """:func:`survival_averaged` at many points, in one batched quadrature.

    ``z`` and ``tau`` broadcast against each other and against ``d``, one
    :class:`Dimensionless` or a sequence of them, one per point.  Returns
    one SPResult per point of the flattened broadcast, each equal to the
    single-point call.

    Raises
    ------
    ParameterError
        If any ``z`` or ``tau`` is negative or not finite.
    NonConvergence
        Of the lowest-numbered failing point, its index in ``point``.
    """
    z, tau, theta, beta = _per_point(d, z, tau)
    _nonnegative_arrays(z=z, tau=tau)
    live = (z > 0.0) & (tau > 0.0)
    tau, theta, beta = tau[live], theta[live], beta[live]

    def log_f(w, i):
        return _log_factor_averaged(w, tau[i], theta[i], beta[i])

    return _survival_batch("averaged", log_f, (25.0 * beta / (theta * tau)).tolist(),
                           z, live, config)


def survival_averaged(z: float, tau: float, d: Dimensionless,
                      config: QuadConfig | None = None) -> SPResult:
    """Survival probability with the starting variance averaged over its
    stationary Gamma law, by exact inversion of the averaged integrand."""
    return survival_averaged_batch(z, tau, d, config)[0]


def survival_wiener(z, sigma_sq, t):
    """Constant-volatility baseline: ``erf(z / sqrt(2 sigma^2 t))``.

    The inputs broadcast; a float when all are scalars, else an ndarray.
    """
    z, sigma_sq, t = (np.asarray(a, dtype=float) for a in (z, sigma_sq, t))
    if not (np.all(z >= 0.0) and np.all(sigma_sq > 0.0) and np.all(t >= 0.0)):
        raise ConfigError("require z >= 0, sigma_sq > 0, t >= 0")
    return _with_boundaries(z, t, lambda z, t: erf(z / np.sqrt(2.0 * sigma_sq * t)))


def hitting(sp: SPResult) -> SPResult:
    """Complement ``W = 1 - S`` with the same diagnostics."""
    return replace(sp, value=1.0 - sp.value)
