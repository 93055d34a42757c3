"""Acceptance gate: one test per shipping criterion, at the stated tolerance.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers before asserting, so the verdict table survives in the report
(``-rA`` keeps it for green tests).  Criteria that the implemented formulas
genuinely cannot meet are asserted faithfully anyway and fail red; the
measured values in their print lines document how far off they are.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate

import hestonfp as h
from conftest import gamma_average_oracle, rk4_riccati

TH = 8.62e-5 / 0.045  # theta of the standard parameter set
D_FIG = h.Dimensionless(theta=TH, beta=0.1)
D_B1 = h.Dimensionless(theta=TH, beta=1.0)
D_B10 = h.Dimensionless(theta=TH, beta=10.0)


def _verdict(ok: bool, label: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    return line


def test_c01_fig1_mc_quadrature_agreement():
    """16-point z grid: MC (1e6 paths, dt=1e-3, conditional erf) brackets the
    exact quadrature within the 95% CI at every point, in under 5 minutes."""
    start = time.time()
    zs = np.logspace(math.log10(2e-3), math.log10(2e-1), 16)
    cfg = h.McConfig(dt=1e-3, n_paths=10**6, seed=0, horizon=0.5)
    est = h.estimate_survival(D_FIG, zs, TH, cfg)
    misses = []
    for z, mc, ci in zip(zs, est.survival[0], est.ci_halfwidth[0]):
        exact = h.survival_exact(h.State(float(z), TH, 0.5), D_FIG).value
        if abs(mc - exact) > ci:
            misses.append((float(z), mc, exact, ci))
    elapsed = time.time() - start
    ok = not misses and elapsed <= 300.0
    line = _verdict(ok, "c1", f"{16 - len(misses)}/16 grid points inside the "
                    f"95% CI, wall time {elapsed:.0f}s (cap 300s); "
                    f"misses={misses!r}")
    assert ok, line


def test_c02_mean_first_passage_time_divergence():
    """Survival decays like tau^(-1/2) at long times, so the mean
    first-passage time diverges: log-log slope -0.5 +/- 0.02."""
    taus = np.geomspace(1e4, 1e5, 9)
    vals = [h.survival_exact(h.State(0.01, TH, float(t)), D_B1).value
            for t in taus]
    slope = float(np.polyfit(np.log(taus), np.log(vals), 1)[0])
    ok = abs(slope - (-0.5)) <= 0.02
    line = _verdict(ok, "c2", f"long-time slope {slope:+.5f} vs -0.5 +/- 0.02")
    assert ok, line


def test_c03_large_variance_power_law():
    """Survival falls off as v^(-1/2) for large starting variance:
    slope -0.5 +/- 0.05 over v in [1e3, 1e5] theta."""
    vs = np.geomspace(1e3 * TH, 1e5 * TH, 9)
    vals = [h.survival_exact(h.State(0.01, float(v), 0.1), D_B1).value
            for v in vs]
    slope = float(np.polyfit(np.log(vs), np.log(vals), 1)[0])
    ok = abs(slope - (-0.5)) <= 0.05
    line = _verdict(ok, "c3", f"large-v slope {slope:+.5f} vs -0.5 +/- 0.05")
    assert ok, line


def test_c04_gaussian_regime_convergence():
    """Erf form vs exact: <= 5% relative for all tau >= 0.1 at v=1e3*theta,
    and <= 2% at tau=1e5 for v=5*theta."""
    worst, worst_tau = 0.0, None
    for tau in np.geomspace(0.1, 1e4, 40):
        exact = h.survival_exact(h.State(0.01, 1e3 * TH, float(tau)), D_B1).value
        approx = float(h.survival_erf(0.01, 1e3 * TH, float(tau), TH))
        rel = abs(approx - exact) / exact
        if rel > worst:
            worst, worst_tau = rel, float(tau)
    exact = h.survival_exact(h.State(0.01, 5 * TH, 1e5), D_B1).value
    approx = float(h.survival_erf(0.01, 5 * TH, 1e5, TH))
    late = abs(approx - exact) / exact
    ok = worst <= 0.05 and late <= 0.02
    line = _verdict(ok, "c4", f"max relative deviation {worst:.2%} at "
                    f"tau={worst_tau:.1f} (cap 5%); v=5theta tau=1e5 "
                    f"deviation {late:.2%} (cap 2%)")
    assert ok, line


def test_c05_large_beta_regimes():
    """Arctan forms vs exact at beta=10, tau=0.5, on the hitting metric:
    joint <= 10% over z in [1e-3, 1e-1]; averaged <= 10%."""
    worst_joint = 0.0
    worst_avg = worst_avg_s = 0.0
    for z in np.geomspace(1e-3, 1e-1, 16):
        exact = h.survival_exact(h.State(float(z), TH, 0.5), D_B10).value
        approx = float(h.survival_arctan(float(z), TH, 0.5, TH, 10.0))
        worst_joint = max(worst_joint,
                          abs((1 - approx) - (1 - exact)) / (1 - exact))
        exact_a = h.survival_averaged(float(z), 0.5, D_B10).value
        approx_a = float(h.survival_avg_arctan(float(z), 0.5, TH, 10.0))
        worst_avg = max(worst_avg,
                        abs((1 - approx_a) - (1 - exact_a)) / (1 - exact_a))
        worst_avg_s = max(worst_avg_s, abs(approx_a - exact_a) / exact_a)
    ok = worst_joint <= 0.10 and worst_avg <= 0.10
    line = _verdict(ok, "c5", f"joint hitting deviation {worst_joint:.2%} "
                    f"(cap 10%); averaged hitting deviation {worst_avg:.2%} "
                    f"(cap 10%; survival metric would be {worst_avg_s:.3%})")
    assert ok, line


def test_c06_beta_scaling_of_averaged_hitting():
    """W(beta) at z=0.01, tau=1: log-log slope -1 +/- 0.05 over [10, 100];
    variation < 2% over the small-beta plateau [0.01, 0.1]."""
    betas = np.geomspace(10.0, 100.0, 9)
    ws = [1.0 - h.survival_averaged(0.01, 1.0, h.Dimensionless(TH, float(b))).value
          for b in betas]
    slope = float(np.polyfit(np.log(betas), np.log(ws), 1)[0])
    lows = np.geomspace(0.01, 0.1, 9)
    wlow = np.array([1.0 - h.survival_averaged(0.01, 1.0,
                                               h.Dimensionless(TH, float(b))).value
                     for b in lows])
    variation = float((wlow.max() - wlow.min()) / wlow.min())
    ok = abs(slope - (-1.0)) <= 0.05 and variation < 0.02
    line = _verdict(ok, "c6", f"decay slope {slope:+.4f} vs -1 +/- 0.05; "
                    f"plateau variation {variation:.2%} (cap 2%)")
    assert ok, line


def test_c07_crossing_level():
    """crossing_level(beta=10, theta_tau=5.76e-3) in [0.30, 0.37]."""
    lc = h.crossing_level(10.0, 5.76e-3).l_c
    ok = 0.30 <= lc <= 0.37
    line = _verdict(ok, "c7", f"l_c = {lc:.5f} vs [0.30, 0.37] "
                    "(the asymptotic-balance equation roots at 0.2406; "
                    "0.336 is the exact-curve intersection)")
    assert ok, line


def test_c08_crossing_power_law_exponents():
    """Exponent of l_c(theta_tau) over one decade bracketing 5.76e-3:
    0.33 +/- 0.05 at beta=1, 0.42 +/- 0.05 at beta=5, 0.44 +/- 0.05 at
    beta=10."""
    lo, hi = 5.76e-3 / math.sqrt(10.0), 5.76e-3 * math.sqrt(10.0)
    tts = np.geomspace(lo, hi, 8)
    gammas = {}
    for beta in (1.0, 5.0, 10.0):
        samples = [(beta, float(tt), h.crossing_level(beta, float(tt)).l_c)
                   for tt in tts]
        gammas[beta] = h.fit_crossing_laws(samples).power_law[beta].slope
    targets = {1.0: 0.33, 5.0: 0.42, 10.0: 0.44}
    deviations = {b: abs(gammas[b] - targets[b]) for b in targets}
    ok = all(dev <= 0.05 for dev in deviations.values())
    line = _verdict(ok, "c8", "gamma = " + ", ".join(
        f"{gammas[b]:.4f} vs {targets[b]} +/- 0.05 (beta={b:g})"
        for b in (1.0, 5.0, 10.0)))
    assert ok, line


def test_c09_oracle_consistency():
    """Independent oracles: RK4 for the Riccati kernel, quadrature of the
    kernel for its accumulated exponent, a 200-node Gamma average for the
    averaged survival, and two closed-form sine transforms."""
    # (a) closed-form kernel vs RK4 integration, 5x5 grid
    worst_a = 0.0
    for omega in (0.3, 1.0, 3.0, 10.0, 30.0):
        for tau in (0.2, 0.5, 1.0, 2.0, 4.0):
            got = h.riccati_B(omega, tau, 1.0)
            want = rk4_riccati(omega, tau, 1.0)
            worst_a = max(worst_a, abs(got - want) / abs(want))
    # (b) accumulated exponent vs numerically integrated kernel
    worst_b = 0.0
    for omega, tau, beta in ((1.0, 0.5, 1.0), (3.0, 1.0, 1.0),
                             (0.5, 2.0, 0.1), (10.0, 0.3, 1.0),
                             (2.0, 4.0, 10.0)):
        nu = 2.0 * TH / beta**2
        want, err = integrate.quad(
            lambda s: h.riccati_B(omega, s, beta), 0.0, tau,
            epsabs=1e-14, epsrel=1e-12, limit=200)
        want *= nu
        got = h.exponent_A(omega, tau, TH, beta)
        worst_b = max(worst_b, abs(got - want) / abs(want))
    # (c) averaged survival vs direct Gamma-weighted average
    pts = ((0.01, 0.5, 0.1), (0.05, 2.0, 0.1), (0.02, 1.0, 0.1),
           (0.01, 1.0, 1.0), (0.3, 5.0, 1.0))
    worst_c = 0.0
    for z, tau, beta in pts:
        d = h.Dimensionless(TH, beta)
        got = h.survival_averaged(z, tau, d).value
        want = gamma_average_oracle(z, tau, d)
        worst_c = max(worst_c, abs(got - want) / want)
    # (d) sine transform vs closed forms
    worst_d = 0.0
    val, _, _ = h.sine_transform(lambda w: np.exp(-0.5 * w), 0.3)
    worst_d = max(worst_d, abs(val - (2 / math.pi) * math.atan(0.3 / 0.5)))
    val, _, _ = h.sine_transform(lambda w: np.exp(-0.2 * w * w), 1.0)
    worst_d = max(worst_d, abs(val - math.erf(1.0 / (2 * math.sqrt(0.2)))))
    ok = worst_a <= 1e-8 and worst_b <= 1e-6 and worst_c <= 1e-5 and worst_d <= 1e-8
    line = _verdict(ok, "c9", f"kernel vs RK4 {worst_a:.1e} (cap 1e-8); "
                    f"exponent vs quadrature {worst_b:.1e} (cap 1e-6); "
                    f"averaged vs Gamma average {worst_c:.1e} (cap 1e-5); "
                    f"sine transform vs closed forms {worst_d:.1e} (cap 1e-8)")
    assert ok, line


def test_c10_invariant_suite():
    """Compact rerun of the property checks: bounds, monotonicity along all
    three axes, kernel identities, stationary-density moments, and MC
    worker determinism."""
    failures = []

    zs = np.geomspace(2e-3, 0.2, 10)
    taus = np.geomspace(0.05, 5.0, 10)
    vs = np.geomspace(0.1 * TH, 100.0 * TH, 10)
    z, tau, v = np.meshgrid(zs, taus, vs, indexing="ij")
    grid = h.survival(z, tau, D_FIG, v)
    for point in zip(z[grid.out_of_range], v[grid.out_of_range], tau[grid.out_of_range]):
        failures.append(f"S out of range at {point}")
    table, errs = grid.value, grid.err_estimate
    # monotone to within the reported quadrature error of the two points
    for axis, sign, name in ((0, 1.0, "nondecreasing in z"),
                             (1, -1.0, "nonincreasing in tau"),
                             (2, -1.0, "nonincreasing in v")):
        allowance = (np.take(errs, range(0, 9), axis=axis)
                     + np.take(errs, range(1, 10), axis=axis))
        if not np.all(sign * np.diff(table, axis=axis) >= -allowance):
            failures.append(f"not {name}")

    omegas = np.geomspace(1e-3, 1e3, 101)
    for beta in (0.01, 0.1, 1.0, 10.0):
        delta, mu_p, mu_m = h.kernel(omegas, beta=beta)
        if not np.allclose(mu_p - mu_m, 1.0, rtol=0.0, atol=1e-12):
            failures.append(f"mu_plus - mu_minus != 1 at beta={beta}")
        target = (beta * omegas) ** 2 / 4.0
        if not np.allclose(mu_p * mu_m, target, rtol=1e-12, atol=1e-300):
            failures.append(f"mu product != (beta*omega)^2/4 at beta={beta}")

    for nu_theta, beta in ((TH, 0.1), (0.005, 0.1), (0.02, 0.1)):
        norm, _ = integrate.quad(
            lambda v: h.stationary_density(v, nu_theta, beta), 0.0, np.inf)
        mean, _ = integrate.quad(
            lambda v: v * h.stationary_density(v, nu_theta, beta), 0.0, np.inf)
        if abs(norm - 1.0) > 1e-8 or abs(mean - nu_theta) / nu_theta > 1e-8:
            failures.append(f"Gamma density moments off at theta={nu_theta}")

    cfg = h.McConfig(dt=1e-3, n_paths=2 * 10**4, seed=6, record_grid=(0.25, 0.5))
    runs = [h.estimate_survival(D_FIG, 0.01, TH, cfg, workers=w)
            for w in (1, 2, 4)]
    if not all(np.array_equal(runs[0].survival, r.survival) for r in runs[1:]):
        failures.append("MC estimate depends on worker count")

    ok = not failures
    line = _verdict(ok, "c10", "bounds/monotonicity on a 10x10x10 grid, "
                    "kernel identities, Gamma moments, MC determinism: "
                    + ("all hold" if ok else "; ".join(failures)))
    assert ok, line
