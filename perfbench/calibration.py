"""Calibration kernels: fixed work, timed between a workload's operations.

The machine this benchmark was written on changes speed in phases of
seconds to minutes, by up to 2x, with no steal time and process CPU time
equal to wall time.  An operation's time divided by the time of a fixed
kernel of the same kind of work, run just before and just after it, does
not depend on the phase.  Each workload names the kernel closest to its
own work:

* ``quadrature_kernel``: adaptive Gauss-Legendre bisection in Python over
  a 15-node numpy integrand (``hypot``, ``exp``, ``expm1``, ``log1p``,
  ``sin``, masks, ``dot``), the shape of ``hestonfp.quadrature``'s inner
  loop;
* ``euler_kernel``: Euler steps on 2^16 paths with Philox normals and
  uniforms, the shape of ``hestonfp.montecarlo``'s block loop;
* ``format_kernel``: per-point Python arithmetic and ``repr`` formatting,
  the shape of ``hestonfp.cli``'s row loops.

The kernels do not use the package, so a change to the package leaves them
alone.  Each returns a value that depends on all of its work.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)


def _integrand(w):
    x = 0.7 * w
    delta = np.hypot(1.0, x)
    mu = x * x / (2.0 * (delta + 1.0))
    em1 = np.expm1(-delta * 0.3)
    log_f = -0.05 * (mu * 0.3 + np.log1p(mu * em1 / delta)) + mu * em1 * 0.02
    t = w * 0.01
    small = np.abs(t) < 1e-4
    sw = np.empty_like(w)
    sw[small] = 0.01
    sw[~small] = np.sin(w[~small] * 0.01) / w[~small]
    return np.exp(log_f) * sw


def quadrature_kernel(reps: int = 1) -> float:
    """Adaptive bisection of a fixed oscillatory integral on [0, 400]."""
    def one(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * float(np.dot(_GL_W, _integrand(mid + half * _GL_X)))

    total = 0.0
    for _ in range(reps):
        stack = [(0.0, 400.0, one(0.0, 400.0), 1e-10)]
        while stack:
            a, b, coarse, tol = stack.pop()
            m = 0.5 * (a + b)
            left, right = one(a, m), one(m, b)
            if abs(left + right - coarse) <= tol:
                total += left + right
            else:
                stack.append((a, m, left, 0.5 * tol))
                stack.append((m, b, right, 0.5 * tol))
    return total


def euler_kernel(steps: int = 1, n: int = 2**16) -> float:
    """``steps`` Euler steps of a square-root diffusion pair on ``n`` paths,
    with a Brownian-bridge minimum, drawing from Philox."""
    rng = np.random.Generator(np.random.Philox(key=[7, 11]))
    dt, theta, beta = 1e-3, 2e-3, 0.1
    v = np.full(n, theta)
    x = np.zeros(n)
    m = np.zeros(n)
    for _ in range(steps):
        vpos = np.maximum(v, 0.0)
        sdt = np.sqrt(vpos * dt)
        x_next = x + sdt * rng.standard_normal(n)
        u = 1.0 - rng.random(n)
        step = x_next - x
        low = 0.5 * (x + x_next - np.sqrt(step * step - 2.0 * vpos * dt * np.log(u)))
        np.minimum(m, low, out=m)
        v = v - (vpos - theta) * dt + beta * sdt * rng.standard_normal(n)
        x = x_next
    return float(m.sum())


def format_kernel(rows: int = 1) -> float:
    """``rows`` rows of closed-form arithmetic, each formatted with ``repr``."""
    size = 0
    for i in range(rows):
        z = 1e-3 * (1.0 + i % 97)
        tau = 0.01 * (1.0 + i % 53)
        s = math.erf(z / math.sqrt(2.0 * 2e-3 * tau))
        a = 1.0 - 2.0 / math.pi * math.atan(tau / z)
        size += len(",".join((repr(z), repr(tau), repr(s), repr(a))))
    return float(size)
