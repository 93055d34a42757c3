"""One contract for every public call that takes numbers: NaN, an infinity or
an out-of-domain value in any numeric argument raises ParameterError
(ConfigError for the config dataclasses and the worker count) before any
quadrature, Monte Carlo block, root scan or other evaluation runs."""
import math

import numpy as np
import pytest

import hestonfp as h
from hestonfp import asymptotics, core, montecarlo, quadrature

TH = 8.62e-5 / 0.045
D = h.Dimensionless(TH, 1.0)
# five samples over two decades of beta at one theta*tau: one log-law fit
SAMPLES = [(b, 1e-3, 0.1 + 0.01 * i) for i, b in enumerate(np.geomspace(1.0, 100.0, 5))]

# Each public call that takes numbers, as a function of its numeric arguments
# by keyword, and each argument's valid value and an out-of-domain value
# (None where every finite value is valid).
CONTRACT = {
    "ModelParams": (h.ModelParams, {"alpha": (0.045, 0.0), "m_sq": (8.62e-5, -1.0),
                                    "k": (0.0045, 0.0)}),
    "Dimensionless": (h.Dimensionless, {"theta": (TH, 0.0), "beta": (1.0, -1.0)}),
    "State": (h.State, {"z": (0.01, -1.0), "v": (TH, -1e-300), "tau": (0.5, -1.0)}),
    "to_dimensionless": (
        lambda **kw: h.to_dimensionless(h.ModelParams(0.045, 8.62e-5, 0.0045), **kw),
        {"y": (8.62e-5, -1.0), "t": (1.0, -1e-300), "L": (0.1, None), "x": (0.0, None)}),
    "kernel": (h.kernel, {"omega": (1.0, -1.0), "beta": (1.0, 0.0)}),
    "riccati_B": (h.riccati_B, {"omega": (1.0, -1.0), "tau": (0.5, -1.0), "beta": (1.0, 0.0)}),
    "exponent_A": (h.exponent_A, {"omega": (1.0, -1.0), "tau": (0.5, -1.0),
                                  "theta": (TH, 0.0), "beta": (1.0, 0.0)}),
    "stationary_density": (h.stationary_density, {"v": (TH, -1.0), "theta": (TH, 0.0),
                                                  "beta": (1.0, 0.0)}),
    "variance_scale": (h.variance_scale, {"tau": (0.5, -1.0), "v": (TH, -1.0),
                                          "theta": (TH, 0.0)}),
    "second_moment": (h.second_moment, {"tau": (0.5, -1.0), "v": (TH, -1.0),
                                        "theta": (TH, 0.0)}),
    "QuadConfig": (h.QuadConfig, {"abs_tol": (1e-9, 0.0), "rel_tol": (1e-7, -1.0)}),
    "sine_transform": (lambda z: h.sine_transform(lambda w: np.exp(-w), z), {"z": (0.5, -1.0)}),
    "survival": (lambda z, tau, v: h.survival(z, tau, D, v),
                 {"z": (0.01, -1.0), "tau": (0.5, -1.0), "v": (TH, -1.0)}),
    "survival_averaged": (lambda z, tau: h.survival_averaged(z, tau, D),
                          {"z": (0.01, -1.0), "tau": (0.5, -1.0)}),
    "survival_wiener": (h.survival_wiener, {"z": (0.01, -1.0), "sigma_sq": (TH, 0.0),
                                            "t": (0.5, -1.0)}),
    "survival_erf": (h.survival_erf, {"z": (0.01, -1.0), "v": (TH, -1.0), "tau": (0.5, -1.0),
                                      "theta": (TH, 0.0)}),
    "survival_arctan": (h.survival_arctan, {"z": (0.01, -1.0), "v": (TH, -1.0),
                                            "tau": (0.5, -1.0), "theta": (TH, 0.0),
                                            "beta": (10.0, 0.0)}),
    "survival_pheno": (h.survival_pheno, {"z": (0.01, -1.0), "v": (TH, -1.0),
                                          "tau": (0.5, -1.0), "theta": (TH, 0.0)}),
    "survival_avg_erf": (h.survival_avg_erf, {"z": (0.01, -1.0), "tau": (0.5, -1.0),
                                              "theta": (TH, 0.0)}),
    "survival_avg_arctan": (h.survival_avg_arctan, {"z": (0.01, -1.0), "tau": (0.5, -1.0),
                                                    "theta": (TH, 0.0), "beta": (10.0, 0.0)}),
    "tail_gaussian_hitting": (h.tail_gaussian_hitting, {"L_abs": (0.01, 0.0), "lam": (TH, 0.0)}),
    "tail_powerlaw_hitting": (h.tail_powerlaw_hitting, {"L_abs": (0.01, 0.0), "tau": (0.5, 0.0),
                                                        "theta": (TH, -1.0),
                                                        "beta": (10.0, 0.0)}),
    "risk_ratio": (lambda z, tau: h.risk_ratio(z, tau, D), {"z": (0.01, 0.0), "tau": (3.0, 0.0)}),
    "ratio_asymptote": (h.ratio_asymptote, {"z": (0.1, -1.0), "theta_tau": (TH, 0.0)}),
    "crossing_level": (h.crossing_level, {"beta": (10.0, 0.0), "theta_tau": (5.76e-3, -1.0)}),
    "fit_crossing_laws": (
        lambda beta, theta_tau, l_c: h.fit_crossing_laws([(beta, theta_tau, l_c), *SAMPLES]),
        {"beta": (2.0, 0.0), "theta_tau": (1e-3, 0.0), "l_c": (0.15, -1.0)}),
    "McConfig": (lambda record, **kw: h.McConfig(record_grid=(record,), **kw),
                 {"dt": (1e-3, 0.0), "n_paths": (8, 0), "seed": (0, -1), "horizon": (0.01, 0.0),
                  "record": (0.01, -0.01)}),
    "estimate_survival": (
        lambda z0, v0, workers: h.estimate_survival(D, z0, v0, h.McConfig(n_paths=8, horizon=0.01),
                                                    workers),
        {"z0": (0.01, 0.0), "v0": (TH, -1.0), "workers": (1, 0)}),
}
# the arguments rejected with ConfigError: config objects and the worker count
CONFIG = {"QuadConfig", "McConfig", "estimate_survival-workers"}
# public names that take no number: results that the package builds, the regime
# table, and calls whose numbers arrive in an object made by a call above
NO_NUMBERS = {"SPResult", "McEstimate", "CrossingResult", "LineFit", "CrossingLawFits", "Regime",
              "REGIMES", "hitting", "survival_exact"}
# what the calls above evaluate, in every module that binds it
EVALUATORS = ("_sine_transforms", "_block", "_crossing_gap", "_delta_mu", "_with_boundaries",
              "_line_fit")


def _valid(name):
    return {arg: valid for arg, (valid, _) in CONTRACT[name][1].items()}


BAD = [pytest.param(name, arg, bad, id=f"{name}-{arg}-{bad!r}")
       for name, (_, args) in CONTRACT.items() for arg, (_, out_of_domain) in args.items()
       for bad in (math.nan, math.inf, -math.inf, out_of_domain) if bad is not None]


def test_the_table_covers_every_public_name_that_takes_numbers():
    public = {name for module in (core, quadrature, asymptotics, montecarlo)
              for name in module.__all__}
    assert all(hasattr(h, name) for name in public)
    assert set(CONTRACT) == public - NO_NUMBERS


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_the_valid_call_runs(name):
    CONTRACT[name][0](**_valid(name))


@pytest.mark.parametrize("name,arg,bad", BAD)
def test_a_bad_number_is_rejected_before_any_evaluation(name, arg, bad, monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError(f"{name} evaluated before rejecting {arg}={bad!r}")

    for module in (core, quadrature, asymptotics, montecarlo):
        for evaluator in EVALUATORS:
            if hasattr(module, evaluator):
                monkeypatch.setattr(module, evaluator, evaluated)
    error = h.ConfigError if {name, f"{name}-{arg}"} & CONFIG else h.ParameterError
    with pytest.raises(error):
        CONTRACT[name][0](**{**_valid(name), arg: bad})
