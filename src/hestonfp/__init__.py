"""First-passage survival probabilities under stochastic (square-root) volatility.

Three independent routes to the same quantities:

* :mod:`hestonfp.quadrature` -- exact Fourier-sine inversion,
* :mod:`hestonfp.asymptotics` -- closed-form regime approximations,
* :mod:`hestonfp.montecarlo` -- conditional Monte Carlo: simulated variance
  paths, each contributing its exact survival given the variance clock,

built on the shared kernels in :mod:`hestonfp.core` and fronted by the
``hestonfp`` command line (:mod:`hestonfp.cli`).
"""

from .core import (
    Dimensionless,
    ModelParams,
    State,
    exponent_A,
    kernel,
    riccati_B,
    second_moment,
    stationary_density,
    to_dimensionless,
    variance_scale,
)
from .errors import (
    ConfigError,
    DivisionDomain,
    HestonFPError,
    InsufficientData,
    NoRoot,
    NonConvergence,
    ParameterError,
)
from .quadrature import (
    QuadConfig,
    SPResult,
    hitting,
    sine_transform,
    survival_averaged,
    survival_averaged_batch,
    survival_exact,
    survival_exact_batch,
    survival_wiener,
)
from .asymptotics import (
    REGIMES,
    CrossingLawFits,
    CrossingResult,
    LineFit,
    Regime,
    crossing_level,
    fit_crossing_laws,
    ratio_asymptote,
    risk_ratio,
    survival_arctan,
    survival_avg_arctan,
    survival_avg_erf,
    survival_erf,
    survival_pheno,
    tail_gaussian_hitting,
    tail_powerlaw_hitting,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    ProfileEstimate,
    estimate_survival,
    estimate_survival_averaged,
    sample_stationary_volatility,
    survival_profile,
)

__version__ = "0.1.0"
