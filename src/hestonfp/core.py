"""Parameter handling, dimensionless transforms, and closed-form kernels.

Everything downstream (quadrature, asymptotics, Monte Carlo, CLI) builds on
the functions here.  The model is the mean-reverting square-root variance
process driving a log-return whose first passage to a fixed level we study.
Working variables are dimensionless throughout:

* ``theta``  -- long-run variance level divided by the reversion rate,
* ``beta``   -- vol-of-vol divided by the reversion rate,
* ``nu``     -- Gamma shape ``2*theta/beta**2`` of the stationary variance law,
* ``z``      -- distance of the starting return to the barrier,
* ``v``      -- instantaneous variance divided by the reversion rate,
* ``tau``    -- time multiplied by the reversion rate.

All kernel functions are numpy-vectorised: scalars in, scalar out; arrays
in, arrays out.  They are pure and thread-safe.

Errors, for every public function and model dataclass of the package, come
in two phases.  First, a numeric argument outside its domain (NaN, an
infinity, a negative value, or zero where it must be > 0) anywhere in a grid
raises :class:`ParameterError` before anything is computed; only
:func:`_nonnegative_arrays` and :func:`_positive_arrays` make that check
(and ``cli.RunSpec``: some ``approx`` methods never check its ``--v``).
A public function checks, before it evaluates anything, only the inputs
it does not pass on to another public function, so each is checked once.
Then :class:`NonConvergence`, :class:`NoRoot` and :class:`DivisionDomain`
mean a numerical failure on valid input, the one a loop over the grid's
points would meet first.  :class:`ConfigError` is kept for malformed config
objects (``McConfig``, ``QuadConfig``), the ``workers`` count and CLI options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "Dimensionless",
    "State",
    "to_dimensionless",
    "kernel",
    "riccati_B",
    "exponent_A",
    "stationary_density",
    "variance_scale",
    "second_moment",
]


def _checked_arrays(named: dict, positive: bool) -> list:
    out = []
    for name, value in named.items():
        if isinstance(value, (float, int)):
            # one number: Python comparisons, several times cheaper than ufuncs on a 0-d array
            a = np.float64(value)
            bad = None if (value > 0.0 if positive else value >= 0.0) and value < math.inf else a
        else:
            a = np.asarray(value, dtype=float)
            mask = ~(((a > 0.0) if positive else (a >= 0.0)) & (a < math.inf))
            bad = a[mask][0] if mask.any() else None
        if bad is not None:
            raise ParameterError(f"{name} must be finite and {'>' if positive else '>='} 0, "
                                 f"got {float(bad)!r}")
        out.append(a)
    return out


def _nonnegative_arrays(**named) -> list[np.ndarray]:
    """The named inputs as float arrays (numpy floats for Python numbers); a
    negative or non-finite entry raises :class:`ParameterError` naming it."""
    return _checked_arrays(named, positive=False)


def _positive_arrays(**named) -> list[np.ndarray]:
    """As :func:`_nonnegative_arrays`, but zero is rejected too."""
    return _checked_arrays(named, positive=True)


def _float_or_array(out):
    """A Python float (int or bool, by dtype) when ``out`` is 0-d -- every
    input was a scalar -- else ``out``, an ndarray of the inputs' broadcast
    shape."""
    return np.asarray(out).item() if np.ndim(out) == 0 else out


def _fields_equal(a, b):
    """``a == b`` for results whose fields may be arrays: the same class, and
    each pair of fields the same object or equal by ``np.array_equal`` (same
    shape, equal elements, so NaN is unequal)."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(x is y or np.array_equal(x, y) for x, y in pairs)


def _with_boundaries(z, scale, form):
    """``form(z, scale)`` under the survival boundary rules: 0 at ``z = 0``,
    else 1 where ``scale = 0``; a float or an ndarray as
    :func:`_float_or_array` gives it."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where(z == 0.0, 0.0, np.where(scale == 0.0, 1.0, form(z, scale)))
    return _float_or_array(out)


@dataclass(frozen=True)
class ModelParams:
    """Physical model parameters, all carrying units of 1/time.

    Attributes
    ----------
    alpha : float
        Mean-reversion rate of the variance process.
    m_sq : float
        Long-run ("normal") variance level.
    k : float
        Vol-of-vol, the diffusion coefficient of the variance process.
    """

    alpha: float
    m_sq: float
    k: float

    def __post_init__(self):
        _positive_arrays(alpha=self.alpha, m_sq=self.m_sq, k=self.k)

    def dimensionless(self) -> "Dimensionless":
        return Dimensionless(theta=self.m_sq / self.alpha, beta=self.k / self.alpha)


@dataclass(frozen=True)
class Dimensionless:
    """Dimensionless model parameters.

    ``nu`` is derived, never supplied: the Gamma shape of the stationary
    variance distribution, ``2*theta/beta**2``.  ``nu < 1`` (zero-touching
    variance) is perfectly legal and is the realistic regime.
    """

    theta: float
    beta: float

    def __post_init__(self):
        _positive_arrays(theta=self.theta, beta=self.beta)

    @property
    def nu(self) -> float:
        # 0 or inf, not OverflowError or ZeroDivisionError, if beta**2 over- or underflows
        return 2.0 * self.theta / self.beta / self.beta


@dataclass(frozen=True)
class State:
    """Initial condition in dimensionless coordinates.

    ``z`` is the distance of the start point to the absorbing barrier
    (nonnegative by construction: the transform takes an absolute value),
    ``v`` the starting variance, ``tau`` the elapsed time.
    """

    z: float
    v: float
    tau: float

    def __post_init__(self):
        _nonnegative_arrays(z=self.z, v=self.v, tau=self.tau)


def to_dimensionless(params: ModelParams, y: float, t: float,
                     L: float, x: float) -> tuple[Dimensionless, State]:
    """Map physical inputs to dimensionless parameters and state.

    Parameters
    ----------
    params : ModelParams
    y : float
        Instantaneous variance (1/time units), ``y >= 0``.
    t : float
        Elapsed time (time units), ``t >= 0``.
    L, x : float
        Barrier level and starting point of the return; only the distance
        ``|L - x|`` matters.

    Returns
    -------
    (Dimensionless, State), whose checks reject a bad ``y``, ``t``, ``L`` or ``x``.
    """
    d = params.dimensionless()
    state = State(z=abs(L - x), v=y / params.alpha, tau=params.alpha * t)
    return d, state


_FLOAT_MAX = np.finfo(float).max


def _delta_mu(omega, beta):
    """``delta = sqrt(1 + (beta*omega)**2)`` and ``mu_minus = (delta - 1)/2``.

    ``mu_minus`` is evaluated as ``x * (x/2 / (delta + 1))`` with
    ``x = beta*omega``, which is exact algebra but avoids the subtractive
    cancellation of ``(delta - 1)/2`` for small ``x`` and the overflow of
    ``x*x``, and of ``2*(delta + 1)``, for large ``x``.  An ``x`` past the
    largest float (an infinite ``omega`` too) is held at it, so both stay
    finite; the survival factors reach 0 long before it.
    """
    # beta*omega past the largest float, and x*x past 1.34e154, where delta = x is exact
    with np.errstate(over="ignore"):
        x = np.minimum(beta * np.asarray(omega, dtype=float), _FLOAT_MAX)
        delta = np.where(x > 1e150, x, np.sqrt(1.0 + x * x))
    return delta, x * (0.5 * x / (delta + 1.0))


def _riccati(omega, tau, beta):
    """``(B, A/nu)`` of the Riccati flow, both cancellation-free.

    ``B = mu_minus*(1 - e)/(1 + (mu_minus/mu_plus)*e)`` with
    ``e = exp(-delta*tau)`` and ``1 - e`` taken from ``expm1``; ``A/nu`` is
    ``mu_minus*tau + log1p(mu_minus*expm1(-delta*tau)/delta)``: the argument
    of ``log1p`` lies in ``(-mu_minus/delta, 0]`` so the logarithm never
    sees a catastrophic subtraction, and the linear term carries the
    large-``tau`` growth exactly.
    """
    delta, mu_minus = _delta_mu(omega, beta)
    em1 = np.expm1(-delta * tau)
    b = mu_minus * -em1 / (1.0 + mu_minus / (mu_minus + 1.0) * (em1 + 1.0))
    return b, mu_minus * tau + np.log1p(mu_minus * em1 / delta)


def _log_factor_exact(omega, tau, v, theta, beta):
    """log F of the conditional survival integrand, ``-A - (2/beta**2)*B*v``."""
    b, a = _riccati(omega, tau, beta)
    return -(2.0 / (beta * beta)) * (theta * a + b * v)


def _log_factor_averaged(omega, tau, theta, beta):
    """log F of the stationary-averaged integrand: the Gamma average of
    ``exp(-(2/beta**2)*B*v)`` is ``(1 + B)**(-nu)``, so log F is
    ``-nu*(A/nu + log1p(B))``, a sum of two nonnegative terms."""
    b, a = _riccati(omega, tau, beta)
    return -(2.0 * theta / (beta * beta)) * (a + np.log1p(b))


def kernel(omega, beta: float):
    """Frequency kernel ``(delta, mu_plus, mu_minus)``:
    ``delta = sqrt(1 + (beta*omega)**2)``, ``mu = (delta +- 1)/2``.

    Each is a float for scalar ``omega`` and an ndarray otherwise.
    Satisfies ``mu_plus - mu_minus == 1``, ``mu_plus + mu_minus == delta``
    and ``mu_plus * mu_minus == (beta*omega)**2 / 4`` to rounding error.
    """
    omega, = _nonnegative_arrays(omega=omega)
    _positive_arrays(beta=beta)
    delta, mu_minus = _delta_mu(omega, beta)
    return tuple(_float_or_array(a) for a in (delta, mu_minus + 1.0, mu_minus))


def riccati_B(omega, tau, beta: float):
    """Closed-form solution ``B(omega, tau)`` of the Riccati flow.

    Satisfies ``dB/dtau = -B - B**2 + (beta*omega/2)**2`` with ``B(., 0) = 0``,
    increases monotonically in ``tau`` and saturates at ``mu_minus(omega)``.
    ``exp(-delta*tau)`` is allowed to underflow: the returned value is then
    exactly the stationary limit.
    """
    omega, tau = _nonnegative_arrays(omega=omega, tau=tau)
    _positive_arrays(beta=beta)
    return _float_or_array(_riccati(omega, tau, beta)[0])


def exponent_A(omega, tau, theta: float, beta: float):
    """Accumulated exponent ``A(omega, tau) = nu * integral of B``, in the
    cancellation-free form of the Riccati helper."""
    omega, tau = _nonnegative_arrays(omega=omega, tau=tau)
    _positive_arrays(theta=theta, beta=beta)
    out = 2.0 * theta / beta**2 * _riccati(omega, tau, beta)[1]
    # the two terms cancel to O(tau^2) as tau -> 0 and can leave a negative
    # rounding residue; A >= 0 analytically, so pin the floor
    return _float_or_array(np.maximum(out, 0.0))


def stationary_density(v, theta: float, beta: float):
    """Stationary variance density: Gamma(shape ``nu``, rate ``2/beta**2``).

    Pointwise value; for ``nu < 1`` the density diverges (integrably) at
    ``v = 0`` and ``inf`` is returned there.  ``v`` must be finite and
    >= 0, ``theta``, ``beta`` and ``nu`` finite and > 0.  Evaluated as
    ``exp(xlogy(nu - 1, x) - x - gammaln(nu)) / scale`` with
    ``x = v/scale``, the expression ``scipy.stats.gamma.pdf`` evaluates,
    so the values are the same to the bit.
    """
    v, = _nonnegative_arrays(v=v)
    _positive_arrays(theta=theta, beta=beta)   # checked only: nu and scale use them as given
    nu = 2.0 * theta / beta**2
    _positive_arrays(nu=nu)   # 0 or inf where 2*theta/beta**2 under- or overflows
    scale = beta**2 / 2.0
    x = v / scale
    return _float_or_array(np.exp(xlogy(nu - 1.0, x) - x - gammaln(nu)) / scale)


def variance_scale(tau, v, theta: float):
    """Accumulated variance scale ``2*theta*tau + 2*(1 - exp(-tau))*v``.

    This is the width parameter that the Gaussian (error-function) survival
    approximations are built on; monotone increasing in both ``tau`` and ``v``.
    """
    tau, v = _nonnegative_arrays(tau=tau, v=v)
    _positive_arrays(theta=theta)
    return _float_or_array(2.0 * theta * tau - 2.0 * np.expm1(-tau) * v)


def second_moment(tau, v, theta: float):
    """Second moment of the centred return: ``theta*tau + (v - theta)*(1 - exp(-tau))``."""
    tau, v = _nonnegative_arrays(tau=tau, v=v)
    _positive_arrays(theta=theta)
    return _float_or_array(theta * tau - (v - theta) * np.expm1(-tau))
