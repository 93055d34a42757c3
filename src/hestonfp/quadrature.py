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
work is batched without changing any decision.  Panels are computed a block
at a time and refined level by level: every bisection level of every open
interval in the block is one call of ``F``, each interval accepted or split
by its own tolerance exactly as in a depth-first bisection.  The stopping
rules then run panel by panel over the block's results, and panels past the
stop are discarded.  The cutoff scan evaluates its whole doubling ladder in
one call of ``log F`` and replays the scan on the result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf

from .core import Dimensionless, State
from .errors import ConfigError, NonConvergence

__all__ = [
    "QuadConfig",
    "SPResult",
    "sine_transform",
    "survival_exact",
    "survival_averaged",
    "survival_wiener",
    "hitting",
]

_OMEGA_CAP = 1e8
# Leaves plus open intervals one adaptive refinement may reach; bounds the
# nodes of a single level to 2 * _MAX_LEAVES * points_per_panel.
_MAX_LEAVES = 2**16
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
    """sin(omega*z)/omega, series-expanded where omega*z is tiny."""
    omega = np.asarray(omega, dtype=float)
    t = omega * z
    small = np.abs(t) < 1e-4
    w = np.empty_like(omega)
    ts = t[small]
    w[small] = z * (1.0 - ts * ts / 6.0 + ts**4 / 120.0)
    wb = omega[~small]
    w[~small] = np.sin(wb * z) / wb
    return w


def _find_cutoff(log_f, seed: float, log_thresh: float, cap: float = _OMEGA_CAP) -> float:
    """Smallest doubling-scan frequency past which log F stays below threshold.

    The scan starts from ``seed`` (any positive guess), walks down while
    already below threshold, then up until two consecutive probes are below.
    Probing the actual integrand makes the rule robust in regimes where
    closed-form envelopes are wildly off (large ``v`` with small ``tau``).
    The whole ladder ``seed * 2**j`` the scan can visit, from ``1e-6`` to
    ``cap``, is evaluated in one call; scaling by powers of two is exact, so
    the rungs are the very frequencies a probe-by-probe scan would reach.
    """
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
    ladder = np.ldexp(w0, np.arange(-n_down, n_up + 1))
    below = (log_f(ladder) < log_thresh).tolist()
    i = n_down
    while ladder[i] > 1e-6 and below[i]:
        i -= 1
    count = 0
    while ladder[i] < cap:
        i += 1
        if below[i]:
            count += 1
            if count >= 2:
                return min(float(ladder[i]), cap)
        else:
            count = 0
    return cap


def _adaptive_gl(g, a, b, tol: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive bisection with fixed-order Gauss-Legendre leaves.

    Refines every root interval ``[a[i], b[i]]`` at once, breadth-first:
    each refinement level of all open intervals is a single call of ``g``.
    An interval becomes a leaf when its two halves agree with it to within
    its tolerance (``tol`` halved per level) or it is too narrow to split,
    so the leaves are those of a depth-first bisection of each root.

    Returns per-root arrays ``(integral, error, leaves)``.
    """
    x, wts = _gl_nodes(order)

    def gl(lo, hi):
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x
        return half * (g(nodes.ravel()).reshape(-1, order) @ wts)

    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = lo.size
    root = np.arange(n)
    t = np.full(n, tol)
    coarse = gl(lo, hi)
    total, err_total = np.zeros(n), np.zeros(n)
    leaves = np.zeros(n, dtype=int)
    while root.size:
        if leaves.sum() + root.size > _MAX_LEAVES:
            raise NonConvergence("adaptive refinement exceeded the leaf budget",
                                 partial=float(total.sum()),
                                 err_estimate=float(err_total.sum()),
                                 panels_used=int(leaves.sum()))
        m = 0.5 * (lo + hi)
        halves = gl(np.concatenate((lo, m)), np.concatenate((m, hi)))
        left, right = halves[:root.size], halves[root.size:]
        fine = left + right
        err = np.abs(fine - coarse)
        done = (err <= t) | ((hi - lo) < 1e-14 * np.maximum(np.abs(lo), 1.0))
        total += np.bincount(root[done], fine[done], n)
        err_total += np.bincount(root[done], err[done], n)
        leaves += np.bincount(root[done], minlength=n)
        open_ = ~done
        lo, m, hi = lo[open_], m[open_], hi[open_]
        lo, hi = np.concatenate((lo, m)), np.concatenate((m, hi))
        coarse = np.concatenate((left[open_], right[open_]))
        root = np.tile(root[open_], 2)
        t = np.tile(0.5 * t[open_], 2)
    return total, err_total, leaves


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


def sine_transform(F, z: float, config: QuadConfig | None = None, *,
                   log_f=None, seed_scale: float | None = None,
                   omega_max: float | None = None) -> tuple[float, float, int]:
    """Evaluate ``(2/pi) * integral_0^inf sin(omega z)/omega * F(omega) d(omega)``.

    Parameters
    ----------
    F : callable
        Vectorised frequency factor; continuous, finite at ``0+``, decaying.
    z : float
        Sine argument scale; ``z = 0`` short-circuits to 0.
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
        If ``z`` is not finite.
    NonConvergence
        If the panel sum has not met tolerance within ``config.max_panels``
        panels; the exception carries the partial value and its bound.
    """
    cfg = config or QuadConfig()
    if not math.isfinite(z):
        raise ConfigError(f"z must be finite, got {z!r}")
    if z == 0.0:
        return 0.0, 0.0, 0
    front = 2.0 / math.pi
    if omega_max is None:
        lf = log_f if log_f is not None else (
            lambda w: np.log(np.maximum(np.abs(F(w)), 1e-300)))
        omega_max = _find_cutoff(lf, seed_scale or 1.0, math.log(0.01 * cfg.abs_tol))

    def g(w):
        return _sine_weight(w, z) * F(w)

    panel_w = math.pi / z
    if panel_w >= omega_max:
        val, err, leaves = _adaptive_gl(g, [0.0], [omega_max], 0.05 * cfg.abs_tol,
                                        cfg.points_per_panel)
        return (front * float(val[0]), front * (float(err[0]) + 0.01 * cfg.abs_tol),
                int(leaves[0]))

    total = err_total = 0.0
    panels_total = 0
    partials: list[float] = []
    contributions: list[float] = []
    below = 0
    k = 0
    for block in itertools.chain(_BLOCKS, itertools.repeat(_BLOCKS[-1])):
        # Panels are refined a block at a time; the stopping rules below are
        # then applied panel by panel, so panels past the stop are discarded.
        ks = np.arange(k, min(k + block, cfg.max_panels + 1))
        cs, es, lvs = _adaptive_gl(g, ks * panel_w, (ks + 1) * panel_w,
                                   cfg.abs_tol / 64.0, cfg.points_per_panel)
        for c, e, lv in zip(cs.tolist(), es.tolist(), lvs.tolist()):
            a = k * panel_w
            total += c
            err_total += e
            panels_total += lv
            contributions.append(c)
            partials.append(total)
            thresh = cfg.abs_tol + cfg.rel_tol * abs(total)
            if abs(c) < thresh:
                below += 1
                if below >= 2:
                    return front * total, front * (err_total + abs(c)), panels_total
            else:
                below = 0
            if k >= 24 and k % 8 == 0:
                tail = np.asarray(contributions[-17:])
                if np.all(tail[1:] * tail[:-1] < 0.0):
                    est, aerr = _euler_accel(partials[-17:])
                    if aerr < 0.5 * thresh:
                        return front * est, front * (err_total + 2.0 * aerr), panels_total
            if a > omega_max and abs(c) < thresh:
                return front * total, front * (err_total + abs(c)), panels_total
            k += 1
        if k > cfg.max_panels:
            raise NonConvergence(
                f"sine transform failed to converge within {cfg.max_panels} panels",
                partial=front * total,
                err_estimate=front * (err_total + abs(c)),
                panels_used=panels_total)


def _cutoff_seed_exact(tau: float, v: float, theta: float, beta: float) -> float:
    nu = 2.0 * theta / beta**2
    scale = theta * tau + v
    if scale <= 0.0:
        return 1.0
    return beta * (25.0 + nu * math.log(2.0) + 0.5 * nu * tau + v / beta**2) / scale


def survival_exact(state: State, d: Dimensionless,
                   config: QuadConfig | None = None) -> SPResult:
    """Survival probability for fixed starting variance, by exact inversion.

    Probability that the return, started a distance ``state.z`` from the
    barrier with variance ``state.v``, has not touched the barrier up to
    ``state.tau``.
    """
    if state.z == 0.0:
        return SPResult.make(0.0, 0.0, "exact", 0)
    if state.tau == 0.0:
        return SPResult.make(1.0, 0.0, "exact", 0)
    theta, beta = d.theta, d.beta
    tau, v = state.tau, state.v

    def lf(w):
        return _log_factor_exact(w, tau, v, theta, beta)

    def F(w):
        return np.exp(lf(w))

    val, err, n = sine_transform(F, state.z, config, log_f=lf,
                                 seed_scale=_cutoff_seed_exact(tau, v, theta, beta))
    return SPResult.make(val, err, "exact", n)


def survival_averaged(z: float, tau: float, d: Dimensionless,
                      config: QuadConfig | None = None) -> SPResult:
    """Survival probability with the starting variance averaged over its
    stationary Gamma law, by exact inversion of the averaged integrand."""
    if not (0.0 <= z < math.inf and 0.0 <= tau < math.inf):
        raise ConfigError(f"z and tau must be finite and >= 0, got z={z!r}, tau={tau!r}")
    if z == 0.0:
        return SPResult.make(0.0, 0.0, "averaged", 0)
    if tau == 0.0:
        return SPResult.make(1.0, 0.0, "averaged", 0)
    theta, beta = d.theta, d.beta

    def lf(w):
        return _log_factor_averaged(w, tau, theta, beta)

    def F(w):
        return np.exp(lf(w))

    val, err, n = sine_transform(F, z, config, log_f=lf,
                                 seed_scale=25.0 * beta / (theta * tau))
    return SPResult.make(val, err, "averaged", n)


def survival_wiener(z: float, sigma_sq: float, t: float) -> float:
    """Constant-volatility baseline: ``erf(z / sqrt(2 sigma^2 t))``."""
    if z < 0.0 or sigma_sq <= 0.0 or t < 0.0:
        raise ConfigError("require z >= 0, sigma_sq > 0, t >= 0")
    if z == 0.0:
        return 0.0
    if t == 0.0:
        return 1.0
    return float(erf(z / math.sqrt(2.0 * sigma_sq * t)))


def hitting(sp: SPResult) -> SPResult:
    """Complement ``W = 1 - S`` with the same diagnostics."""
    return replace(sp, value=1.0 - sp.value)
