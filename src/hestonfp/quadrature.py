"""Fourier-sine inversion of the survival-probability integrands.

Both survival representations handled here have the form

    S = (2/pi) * integral_0^inf  [sin(omega*z)/omega] * F(omega) d(omega)

with ``F`` a smooth, positive, decaying frequency factor: the conditional
(fixed starting variance) factor ``exp(-A - (2/beta**2)*B*v)`` and the
stationary-averaged factor ``exp(-nu*(mu_minus*tau + log(...)))``, whose
logarithms live in :mod:`hestonfp.core`.

With ``u = omega*z`` the integral is ``(2/pi) int sin(u)/u F(u/z) du``, which
the double-exponential rule of Ooura & Mori ("A robust double exponential
formula for Fourier-type integrals", J. Comput. Appl. Math. 112, 1999)
evaluates as a trapezoid sum in ``t`` after the map ``u = M phi(t)``,
``M = pi/h``,

    phi(t) = t / (1 - exp(-g(t))),  g(t) = 2t + a(1 - e^-t) + b(e^t - 1),

with ``b = 1/4`` and ``a = b / sqrt(1 + M log(1 + M) / (4 pi))``.  As
``t -> -inf`` the nodes crowd double-exponentially into ``u = 0``; as
``t -> +inf`` they run double-exponentially into the zeros ``n pi`` of the
sine, so the oscillatory tail needs no cutoff, no panels and no series
acceleration.  Nodes lie at ``t = n h`` in ``[-12, 8]``; a node whose weight
is zero or not finite is dropped, and so are the tail nodes of smallest
``|w|`` whose ``|w|`` sum to at most ``1e-20``, about a third of each level:
both survival factors have ``0 < F <= 1``, so they move no sum by more than
that mass.  Nodes, weights and that mass depend only on ``h`` and are cached.

Every point starts at ``h = 0.2`` and halves ``h`` until two consecutive
sums agree, and reports the finer sum.  Its ``err_estimate`` is their
difference plus a rounding floor from the sum of the absolute terms and the
finer level's dropped mass, and the point stops once that is within
``abs_tol + rel_tol*|S|``; ``panels_used`` counts the nodes evaluated.  A
point still open at the finest step raises :class:`NonConvergence`.  At a
subnormal ``z``, ``u/z`` passes the largest float; the log factors hold
``beta*omega`` at that float, where ``F`` is 0, so such a point gives 0.

One call, :func:`survival`, covers both integrands over a grid: ``z``,
``tau`` and ``v`` broadcast against each other and against ``theta`` and
``beta``, which may vary per point, and ``v=None`` selects the averaged
factor.  It returns one :class:`SPResult` of arrays.  Each step level is one
pass over the open points' ``(points x nodes)`` array, in calls of ``F`` on
whole rows of at most ``_MAX_NODES`` nodes.  Every point's sum is formed the
same way whatever grid it is in, so a grid gives each point its one-point
result, and fails in the two phases :mod:`hestonfp.core` states: with the
``NonConvergence`` of the first failing point on valid input.
``survival_exact`` and ``survival_averaged`` are its one-point calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf

from .core import (Dimensionless, State, _fields_equal, _float_or_array, _log_factor_averaged,
                   _log_factor_exact, _nonnegative_arrays, _positive_arrays,
                   _with_boundaries)
from .errors import ConfigError, NonConvergence

__all__ = [
    "QuadConfig",
    "SPResult",
    "sine_transform",
    "survival",
    "survival_exact",
    "survival_averaged",
    "survival_wiener",
    "hitting",
]

# Nodes one call of ``F`` receives at most, in whole rows; a finest-level row has 4,245
_MAX_NODES = 2**13
# First and last step of the halving; a point open at the last one fails.
_H_START = 0.2
_H_MIN = 0.2 / 64
# Rounding floor of a sum, per unit of the sum of its absolute terms.
_ROUNDING = 4.0 * np.finfo(float).eps
_TRIM = 1e-20  # |w| a rule may drop: what the dropped nodes can add where |F| <= 1


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of the oscillatory quadrature."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ConfigError("tolerances must be finite and > 0")


@dataclass(frozen=True)
class SPResult:
    """A survival (or hitting) probability with quadrature diagnostics, at
    one point or over a grid: each field is a scalar or an array of the
    grid's shape.

    ``value`` is the raw quadrature output -- never clamped.  Where it falls
    outside ``[-1e-6, 1 + 1e-6]`` the ``out_of_range`` flag is set and it is
    the caller's job to decide what to do about it.
    """

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    method: str
    panels_used: int | np.ndarray
    out_of_range: bool | np.ndarray = False

    __eq__ = _fields_equal

    @staticmethod
    def make(value, err_estimate, method: str, panels_used) -> "SPResult":
        a = np.asarray(value)
        out = _float_or_array(~((a >= -1e-6) & (a <= 1.0 + 1e-6)))
        return SPResult(value, err_estimate, method, panels_used, out)


@functools.cache
def _rule(h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes ``u`` and weights ``w`` of the Ooura-Mori rule of step ``h``:
    ``S = sum(w * F(u / z))``, the weights including ``2/pi``, and the mass
    ``sum(|w|)`` of the smallest-``|w|`` nodes dropped, at most ``_TRIM``.

    The map is evaluated without cancellation: ``exp(g)`` never as
    ``expm1(g) + 1`` (which is 0 below ``g = -37``), ``phi = t e^g/expm1(g)``
    for ``t < 0`` and ``t + t/expm1(g)`` for ``t > 0``, where the sine is
    ``(-1)^n sin(M t/expm1(g))``; ``t = 0`` takes the limits of ``phi`` and
    ``phi'``.
    """
    m = math.pi / h
    b = 0.25
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    n = np.arange(round(-12.0 / h), round(8.0 / h) + 1)
    t = n * h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = 2.0 * t - a * np.expm1(-t) + b * np.expm1(t)
        dg = 2.0 + a * np.exp(-t) + b * np.exp(t)
        d = np.expm1(g)
        pos = t > 0.0
        phi = t * np.where(pos, 1.0 + 1.0 / d, np.exp(g) / d)
        dlog = (1.0 - t * dg / d) / t  # phi'/phi
        sine = np.where(pos, np.where(n % 2, -1.0, 1.0) * np.sin(m * t / d), np.sin(m * phi))
        zero = n == 0
        g1, g2 = 2.0 + a + b, b - a  # g'(0), g''(0)
        phi[zero] = 1.0 / g1
        dlog[zero] = (g1 * g1 - g2) / (2.0 * g1)
        sine[zero] = np.sin(m / g1)
        w = (2.0 / math.pi) * h * dlog * sine
    # zero and non-finite weights count as 0 and so head the dropped prefix
    mag = np.where(np.isfinite(w), np.abs(w), 0.0)
    small = np.argsort(mag, kind="stable")
    mass = np.cumsum(mag[small])
    cut = int(np.searchsorted(mass, _TRIM, side="right"))
    keep = np.delete(np.arange(w.size), small[:cut])
    return m * phi[keep], w[keep], float(mass[cut - 1]) if cut else 0.0


def _level(F, u, w, z, points):
    """``sum(w * F)`` and ``sum(|w * F|)`` of each of ``points``: calls of
    ``F`` on whole rows of at most ``_MAX_NODES`` nodes, so every row is
    summed alike in any batch."""
    rows = max(1, _MAX_NODES // u.size)
    sums, mags = np.empty(points.size), np.empty(points.size)
    for r in range(0, points.size, rows):
        own = points[r:r + rows, None]
        # at a subnormal z, u / z (and then terms of -log F) may pass the
        # largest float; F is 0 there
        with np.errstate(over="ignore"):
            f = w * F(u / z[own], own)
        sums[r:r + rows] = f.sum(axis=1)
        mags[r:r + rows] = np.abs(f).sum(axis=1)
    return sums, mags


def _sine_transforms(F, z, cfg: QuadConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``value``, ``err_estimate`` and ``panels_used`` of the sine transform
    of every point, as three arrays; the kernel behind every public entry point.

    ``F(omega, point)`` evaluates the frequency factor of the given points
    (an integer array broadcasting against ``omega``).  ``z`` holds each
    point's sine scale, finite and >= 0 (the callers check it).  Points with
    ``z = 0`` short-circuit to 0.

    Raises the ``NonConvergence`` of the lowest-numbered failing point, its
    index in ``point``.
    """
    z = np.asarray(z, dtype=float)
    value, err_estimate, nodes = np.zeros(z.size), np.zeros(z.size), np.zeros(z.size, int)
    open_ = np.flatnonzero(z > 0.0)
    h = _H_START
    u, w, _ = _rule(h)
    prev, _ = _level(F, u, w, z, open_)
    nodes[open_] += u.size
    while open_.size:
        h *= 0.5
        u, w, dropped = _rule(h)
        fine, mag = _level(F, u, w, z, open_)
        nodes[open_] += u.size
        err = np.abs(fine - prev) + _ROUNDING * mag + dropped
        done = err <= cfg.abs_tol + cfg.rel_tol * np.abs(fine)
        value[open_[done]], err_estimate[open_[done]] = fine[done], err[done]
        if h <= _H_MIN and not done.all():
            k = int(np.argmin(done))
            i = int(open_[k])
            raise NonConvergence(f"sine transform did not converge at step h = {h:g}",
                                 partial=float(fine[k]), err_estimate=float(err[k]),
                                 panels_used=int(nodes[i]), point=i)
        open_, prev = open_[~done], fine[~done]
    return value, err_estimate, nodes


def sine_transform(F, z: float,
                   config: QuadConfig | None = None) -> tuple[float, float, int]:
    """Evaluate ``(2/pi) * integral_0^inf sin(omega z)/omega * F(omega) d(omega)``.

    Parameters
    ----------
    F : callable
        Vectorised frequency factor; continuous, finite at ``0+``, decaying.
    z : float
        Sine argument scale, ``>= 0``; ``z = 0`` short-circuits to 0.
    config : QuadConfig, optional

    Returns
    -------
    (value, err_estimate, panels_used), ``panels_used`` counting the nodes.
    ``err_estimate`` includes the weight mass of the dropped nodes, their
    bound where ``|F| <= 1``; for a general ``F`` the bound is ``max |F|`` times it.

    Raises
    ------
    ParameterError
        If ``z`` is negative or not finite, before any call of ``F``.
    NonConvergence
        If two consecutive step levels never agree within tolerance; the
        exception carries the finest sum and its bound.
    """
    z, = _nonnegative_arrays(z=z)
    return tuple(a[0].item() for a in _sine_transforms(
        lambda w, i: F(np.ravel(w)).reshape(np.shape(w)), [z], config or QuadConfig()))


def survival(z, tau, d, v=None, config: QuadConfig | None = None) -> SPResult:
    """Survival probability by exact inversion, over a broadcast grid.

    ``z``, ``tau`` and the starting variance ``v`` broadcast against each
    other and against ``d``, one :class:`Dimensionless` or a sequence of
    them, one per point.  ``v=None`` averages the start over its stationary
    Gamma law (method ``"averaged"``); else the method is ``"exact"``.  A
    point with ``z = 0`` gives 0, and else one with ``tau = 0`` gives 1,
    without quadrature.

    Returns one SPResult whose fields are arrays of the broadcast shape, or
    a float, int and bool when every input is a scalar.  Each point has the
    bits of its one-point call.

    Raises
    ------
    ParameterError
        If any ``z``, ``v`` or ``tau`` is negative or not finite, before any
        evaluation.
    NonConvergence
        Of the first failing point in flat order, its flat index in ``point``.
    """
    if isinstance(d, Dimensionless):
        theta, beta = d.theta, d.beta
    else:
        theta, beta = [x.theta for x in d], [x.beta for x in d]
    averaged = v is None
    grid = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                 for a in (z, 0.0 if averaged else v, tau, theta, beta)))
    z, v, tau, theta, beta = (a.ravel() for a in grid)
    _nonnegative_arrays(z=z, v=v, tau=tau)
    live = np.flatnonzero((z > 0.0) & (tau > 0.0))
    v, tau, theta, beta = v[live], tau[live], theta[live], beta[live]

    def F(w, i):
        if averaged:
            return np.exp(_log_factor_averaged(w, tau[i], theta[i], beta[i]))
        return np.exp(_log_factor_exact(w, tau[i], v[i], theta[i], beta[i]))

    value, err, panels = np.where(z == 0.0, 0.0, 1.0), np.zeros(z.size), np.zeros(z.size, int)
    try:
        value[live], err[live], panels[live] = _sine_transforms(F, z[live],
                                                                 config or QuadConfig())
    except NonConvergence as exc:
        exc.point = int(live[exc.point])
        raise
    value, err, panels = (_float_or_array(a.reshape(grid[0].shape)) for a in (value, err, panels))
    return SPResult.make(value, err, "averaged" if averaged else "exact", panels)


def survival_exact(state: State, d: Dimensionless,
                   config: QuadConfig | None = None) -> SPResult:
    """Probability that the return, started ``state.z`` from the barrier with
    variance ``state.v``, has not touched it by ``state.tau``: one point of :func:`survival`."""
    return survival(state.z, state.tau, d, state.v, config)


def survival_averaged(z: float, tau: float, d: Dimensionless,
                      config: QuadConfig | None = None) -> SPResult:
    """Survival probability with the starting variance averaged over its
    stationary Gamma law, by exact inversion of the averaged integrand."""
    return survival(z, tau, d, None, config)


def survival_wiener(z, sigma_sq, t):
    """Constant-volatility baseline: ``erf(z / sqrt(2 sigma^2 t))``.

    The inputs broadcast; a float when all are scalars, else an ndarray.
    ``z`` and ``t`` must be finite and >= 0, ``sigma_sq`` finite and > 0.
    """
    z, t = _nonnegative_arrays(z=z, t=t)
    sigma_sq, = _positive_arrays(sigma_sq=sigma_sq)
    return _with_boundaries(z, t, lambda z, t: erf(z / np.sqrt(2.0 * sigma_sq * t)))


def hitting(sp: SPResult) -> SPResult:
    """Complement ``W = 1 - S`` with the same diagnostics."""
    return replace(sp, value=1.0 - sp.value)
