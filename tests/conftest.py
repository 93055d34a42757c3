import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import hestonfp as h

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("package")

# Standard reference parameter set (dimensionless theta ~ 1.9156e-3, beta = 0.1).
FIG1 = h.ModelParams(alpha=0.045, m_sq=8.62e-5, k=0.0045)


@pytest.fixture(scope="session")
def fig1_params() -> h.ModelParams:
    return FIG1


@pytest.fixture(scope="session")
def fig1_d(fig1_params) -> h.Dimensionless:
    return fig1_params.dimensionless()


def rk4_riccati(omega: float, tau: float, beta: float, hstep: float = 1e-4) -> float:
    """Independent RK4 integration of db/dtau = -b - b**2 + (beta*omega/2)**2."""
    c = (beta * omega / 2.0) ** 2

    def f(b):
        return -b - b * b + c

    n = max(1, int(round(tau / hstep)))
    step = tau / n
    b = 0.0
    for _ in range(n):
        k1 = f(b)
        k2 = f(b + 0.5 * step * k1)
        k3 = f(b + 0.5 * step * k2)
        k4 = f(b + step * k3)
        b += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return b


def gamma_average_oracle(z: float, tau: float, d: h.Dimensionless,
                         nodes: int = 200) -> float:
    """Stationary-averaged survival via generalized Gauss-Laguerre over the
    Gamma weight, averaging the conditional exact survival directly."""
    from scipy.special import gammaln, roots_genlaguerre

    x, w = roots_genlaguerre(nodes, d.nu - 1.0)
    rate = 2.0 / d.beta**2
    vals = np.array([sp.value for sp in h.survival_exact_batch(z, x / rate, tau, d)])
    return float(np.dot(w, vals) / np.exp(gammaln(d.nu)))
