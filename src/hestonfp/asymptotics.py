"""Closed-form survival/hitting approximations, the risk ratio, and the
crossing-level machinery.

Each closed form is one numpy expression: its inputs broadcast, a Python
``float`` comes back when every input is a scalar and an ndarray of the
broadcast shape otherwise, and each boundary rule (0 at ``z = 0``, 1 where
the form's scale vanishes) is applied once with ``np.where``.  The survival
forms take ``z``, ``v`` and ``tau`` finite and >= 0, ``theta`` and ``beta``
finite and > 0.

Each approximation is valid in a particular corner of parameter space; the
``REGIMES`` table records those predicates as advisory metadata.  Nothing is
enforced: out-of-regime evaluation is legal (and is exactly what the regime
comparison plots need).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc

from .core import (Dimensionless, _float_or_array, _nonnegative_arrays, _positive_arrays,
                   _with_boundaries, variance_scale)
from .errors import DivisionDomain, InsufficientData, NoRoot
from .quadrature import QuadConfig, survival

__all__ = [
    "Regime",
    "REGIMES",
    "CrossingResult",
    "LineFit",
    "CrossingLawFits",
    "survival_erf",
    "survival_arctan",
    "survival_pheno",
    "survival_avg_erf",
    "survival_avg_arctan",
    "tail_gaussian_hitting",
    "tail_powerlaw_hitting",
    "risk_ratio",
    "ratio_asymptote",
    "crossing_level",
    "fit_crossing_laws",
]


@dataclass(frozen=True)
class Regime:
    """An approximation tag plus its advisory validity predicate."""

    tag: str
    validity: str


REGIMES = {r.tag: r for r in (
    Regime("erf_joint", "(theta/beta**2)*tau >> 1 or v >> 1 or beta << 1"),
    Regime("arctan_joint", "beta >> 1 and tau not small"),
    Regime("pheno", "interpolating guess; exact only in the arctan corner"),
    Regime("erf_averaged", "(theta/beta**2)*tau >> 1"),
    Regime("arctan_averaged", "beta >> 1"),
    Regime("tail_gaussian", "z**2/variance_scale >> 1 in the Gaussian regime"),
    Regime("tail_powerlaw", "beta >> 1 and beta*z/(theta*tau) >> 1"),
    Regime("wiener", "frozen variance (beta -> 0 with v = theta)"),
)}


@dataclass(frozen=True)
class CrossingResult:
    """Root of the Gaussian-vs-heavy-tail hitting balance: floats for one
    point, ndarrays of the grid's shape (``bracket`` a pair of them) for a
    grid."""

    l_c: float | np.ndarray
    beta: float | np.ndarray
    theta_tau: float | np.ndarray
    bracket: tuple[float, float] | tuple[np.ndarray, np.ndarray]
    residual: float | np.ndarray


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    rms_residual: float


@dataclass(frozen=True)
class CrossingLawFits:
    """Least-squares summaries of how the crossing level moves.

    ``log_law``: per fixed ``theta_tau``, fit of ``l_c`` against ``log(beta)``.
    ``power_law``: per fixed ``beta``, fit of ``log(l_c)`` against
    ``log(theta_tau)`` -- the slope is the growth exponent.
    """

    log_law: dict[float, LineFit]
    power_law: dict[float, LineFit]


def survival_erf(z, v, tau, theta):
    """Gaussian-regime survival: ``erf(z / sqrt(variance_scale))``.

    Meets both the barrier condition (0 at z=0) and the initial condition
    (1 at tau=0, v=0).
    """
    z, = _nonnegative_arrays(z=z)
    return _with_boundaries(z, variance_scale(tau, v, theta), lambda z, lam: erf(z / np.sqrt(lam)))


def survival_arctan(z, v, tau, theta, beta):
    """Large-vol-of-vol survival: ``(2/pi) * arctan(beta*z / (theta*tau + v))``.

    Obeys the barrier condition but not the initial condition.
    """
    z, v, tau = _nonnegative_arrays(z=z, v=v, tau=tau)
    _positive_arrays(theta=theta, beta=beta)
    return _with_boundaries(z, theta * tau + v,
                            lambda z, denom: (2.0 / np.pi) * np.arctan(beta * z / denom))


def survival_pheno(z, v, tau, theta):
    """Semi-phenomenological interpolation ``(2/pi) * arctan(2 z / variance_scale)``.

    The other candidate, with a factor ``beta`` in the numerator (the
    large-beta long-time limit), is this form at ``beta * z``."""
    z, = _nonnegative_arrays(z=z)
    return _with_boundaries(z, variance_scale(tau, v, theta),
                            lambda z, lam: (2.0 / np.pi) * np.arctan(2.0 * z / lam))


def survival_avg_erf(z, tau, theta):
    """Stationary-averaged Gaussian regime: ``erf(z / sqrt(2*theta*tau))``.

    Independent of beta by construction: the constant-volatility baseline
    at the long-run variance level.
    """
    return survival_erf(z, 0.0, tau, theta)


def survival_avg_arctan(z, tau, theta, beta):
    """Stationary-averaged large-vol-of-vol survival:
    ``(2/pi) * arctan(beta*z / (theta*tau))``; meets both boundary and
    initial conditions."""
    return survival_arctan(z, 0.0, tau, theta, beta)


def tail_gaussian_hitting(L_abs, lam):
    """Deep-tail hitting in the Gaussian regime:
    ``sqrt(lam/pi) * exp(-L**2/lam) / |L|``  (for the averaged case pass
    ``lam = 2*theta*tau``).  ``|L|`` and ``lam`` must be finite and > 0."""
    L_abs, lam = _positive_arrays(L_abs=np.abs(L_abs), lam=lam)
    return _float_or_array(np.sqrt(lam / np.pi) * np.exp(-L_abs * L_abs / lam) / L_abs)


def tail_powerlaw_hitting(L_abs, tau, theta, beta):
    """Slow power-law hitting tail ``theta*tau / (beta*|L|)``; every input
    (``L`` in absolute value) must be finite and > 0."""
    L_abs, tau, theta, beta = _positive_arrays(L_abs=np.abs(L_abs), tau=tau, theta=theta,
                                               beta=beta)
    return _float_or_array(theta * tau / (beta * L_abs))


def risk_ratio(z, tau, d: Dimensionless, config: QuadConfig | None = None):
    """Hitting probability relative to the constant-volatility baseline.

    Numerator: stationary-averaged hitting from the exact quadrature.
    Denominator: ``1 - erf(z / sqrt(2*theta*tau))`` (the baseline whose
    variance rate equals the long-run level).  ``z`` and ``tau`` must be
    finite and > 0; a denominator that underflows to 0 raises
    :class:`DivisionDomain`, never masked.

    ``z`` and ``tau`` broadcast; arrays give an array from one batched
    quadrature, and fail in the two phases that :mod:`hestonfp.core` states.
    """
    zs, taus = np.broadcast_arrays(*_positive_arrays(z=z, tau=tau))
    zf, tf = zs.ravel(), taus.ravel()
    with np.errstate(divide="ignore"):
        denom = erfc(zf / np.sqrt(2.0 * d.theta * tf))
    bad = np.flatnonzero(denom == 0.0)
    n = int(bad[0]) if bad.size else zf.size
    num = 1.0 - survival(zf[:n], tf[:n], d, None, config).value
    if bad.size:
        raise DivisionDomain("baseline hitting probability underflowed at "
                             f"z={float(zf[n])!r}, tau={float(tf[n])!r}")
    return _float_or_array((num / denom).reshape(zs.shape))


def ratio_asymptote(z, theta_tau):
    """Large-``z`` growth law of the risk ratio:
    ``sqrt(pi*theta_tau/2) * exp(z**2 / (2*theta_tau))``; the power-law tail
    implies it divided by ``beta``, the other candidate.

    ``z`` must be finite and >= 0, ``theta_tau`` finite and > 0; past the
    largest float the law is ``inf``."""
    z, = _nonnegative_arrays(z=z)
    theta_tau, = _positive_arrays(theta_tau=theta_tau)
    with np.errstate(over="ignore"):
        return _float_or_array(np.sqrt(np.pi * theta_tau / 2.0) * np.exp(z * z / 2.0 / theta_tau))


def _crossing_gap(l, beta, theta_tau):
    return erf(l / np.sqrt(2.0 * theta_tau)) - (2.0 / np.pi) * np.arctan(beta * l / theta_tau)


# the scan grid of crossing_level: 200 log-spaced levels from 1e-4 to 10, and
# the |gap| at or below which a leading level counts as the trivial root l = 0
_SCAN = np.logspace(-4.0, 1.0, 200)
_GAP_FLOOR = 1e-9


def crossing_level(beta, theta_tau) -> CrossingResult:
    """Level beyond which heavy-tail hitting overtakes the Gaussian hitting.

    Solves ``erf(l/sqrt(2*theta_tau)) = (2/pi)*arctan(beta*l/theta_tau)`` for
    the nontrivial root.  Both sides vanish at ``l = 0``, so the scan for a
    sign change discards leading grid points where the gap is still within
    ``_GAP_FLOOR`` of zero before bracketing.  The bracket is then bisected down
    to adjacent floats (or an exact zero of the gap), and ``l_c`` is the end
    with the smaller ``|gap|``, reported as ``residual``.

    ``beta`` and ``theta_tau`` broadcast, and a whole grid is scanned and
    bisected at once.  Scalar input gives a result of floats; array input
    gives fields of the broadcast shape, ``bracket`` a pair of arrays.  A
    scalar call equals the matching grid element bit for bit.  ``beta`` and
    ``theta_tau`` must be finite and > 0; a grid fails in the two phases that
    :mod:`hestonfp.core` states, with :class:`NoRoot` as its numerical failure.
    """
    b, tt = np.broadcast_arrays(*_positive_arrays(beta=beta, theta_tau=theta_tau))
    bf, tf = b.ravel(), tt.ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        gaps = _crossing_gap(_SCAN, bf[:, None], tf[:, None])
    alive = np.abs(gaps) > _GAP_FLOOR
    start = np.argmax(alive, axis=1)
    change = ((gaps[:, :-1] * gaps[:, 1:] < 0.0)
              & (np.arange(_SCAN.size - 1) >= start[:, None]))
    bad = ~change.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        if not alive[k].any():
            raise NoRoot("gap function indistinguishable from zero on the scan grid")
        raise NoRoot(f"no sign change on the scan grid for beta={float(bf[k])!r}, "
                     f"theta_tau={float(tf[k])!r}")
    i = np.argmax(change, axis=1)
    bracket = _SCAN[i], _SCAN[i + 1]
    rising = gaps[np.arange(i.size), i] < 0.0
    # bisect each bracket over the floats in it (positive doubles order as
    # their bit patterns, below 2**63, so a uint64 sum of two cannot
    # overflow) down to adjacent floats; an exact zero of the gap closes its
    # bracket onto itself
    lo, hi = (x.view(np.uint64) for x in bracket)
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        g = _crossing_gap(mid.view(float), bf, tf)
        up = (g < 0.0) == rising
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        if not g.all():
            lo, hi = np.where(g == 0.0, mid, lo), np.where(g == 0.0, mid, hi)
    ends = np.stack((lo, hi)).view(float)
    res = np.abs(_crossing_gap(ends, bf, tf))
    hi_wins = res[1] < res[0]
    out = (np.where(hi_wins, ends[1], ends[0]), b, tt, *bracket, np.where(hi_wins, res[1], res[0]))
    l_c, beta, theta_tau, lo, hi, residual = (_float_or_array(x.reshape(b.shape)) for x in out)
    return CrossingResult(l_c=l_c, beta=beta, theta_tau=theta_tau, bracket=(lo, hi),
                          residual=residual)


def _line_fit(x: np.ndarray, y: np.ndarray) -> LineFit:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return LineFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def fit_crossing_laws(samples) -> CrossingLawFits:
    """Least-squares growth laws from ``(beta, theta_tau, l_c)`` samples.

    Every ``beta``, ``theta_tau`` and ``l_c`` must be finite and > 0, and a
    group needing a fit must hold at least 5 samples spanning at least one
    decade of the abscissa, or :class:`InsufficientData` is raised.
    """
    rows = [(float(b), float(tt), float(lc)) for b, tt, lc in samples]
    if not rows:
        raise InsufficientData("no samples")
    _positive_arrays(**dict(zip(("beta", "theta_tau", "l_c"), zip(*rows))))
    fits: list[dict[float, LineFit]] = []
    # (law, name and column of the grouping, transform of l_c); the other of
    # beta and theta_tau is the abscissa
    for law, name, key, ordinate in (("log-law", "theta_tau", 1, lambda lc: lc),
                                     ("power-law", "beta", 0, np.log)):
        groups: dict[float, list[tuple[float, float]]] = {}
        for row in rows:
            groups.setdefault(row[key], []).append((row[1 - key], row[2]))
        fits.append({})
        for g, pts in groups.items():
            if len(pts) < 2:
                continue
            x = np.array([p[0] for p in pts])
            lc = np.array([p[1] for p in pts])
            if len(pts) < 5 or x.max() / x.min() < 10.0:
                raise InsufficientData(
                    f"{law} fit at {name}={g!r} needs >= 5 samples over a decade")
            fits[-1][g] = _line_fit(np.log(x), ordinate(lc))
    log_law, power_law = fits
    if not log_law and not power_law:
        raise InsufficientData("no group had enough samples to fit")
    return CrossingLawFits(log_law=log_law, power_law=power_law)
