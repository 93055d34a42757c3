#!/usr/bin/env python3
"""Step-size bias of the Monte Carlo estimator against the exact quadrature.

The simulator steps only the variance (Andersen's QE scheme) and averages
``erf(z / sqrt(2 I))`` over the paths, where ``I`` is the trapezoid sum of
the variance.  Given a variance path that average is exact, so no barrier
is monitored and nothing depends on catching crossings between grid
points.  What is left is the weak error of the QE step and of the
trapezoid clock.  This scan measures it: for each vol-of-vol it draws
stationary starting variances and sweeps ``dt``, reading every starting
distance and record time of the grid from one simulation.  A bias well
inside the CI at the default ``dt`` = 1e-3 is what lets the test suite run
at that step.  ``live`` is the share of path-steps the kernel took live,
``path_steps / (paths x steps)``: below 1 where paths park on the atom.

Run:  python3 scripts/dt_bias_scan.py [--paths 400000] [--seed 2024]
"""
import argparse
import time

import hestonfp as h

TH = 8.62e-5 / 0.045


def scan(beta: float, zs, taus, dts, n_paths: int, seed: int):
    d = h.Dimensionless(theta=TH, beta=beta)
    # targets[i][j]: quadrature survival at taus[i], zs[j]
    targets = h.survival(zs, [[tau] for tau in taus], d).value
    print(f"\nbeta={beta}: quadrature " + ", ".join(
        f"S(tau={t:g}, z={z:g}) = {s:.6f}"
        for t, row in zip(taus, targets) for z, s in zip(zs, row)))
    print(f"{'dt':>8} {'tau':>5} {'z':>6} {'S_mc':>10} {'bias':>10} {'ci':>9} "
          f"{'bias/ci':>8} {'live':>6} {'secs':>6}")
    for dt in dts:
        t0 = time.time()
        cfg = h.McConfig(dt=dt, n_paths=n_paths, seed=seed, record_grid=tuple(taus))
        est = h.estimate_survival(d, zs, None, cfg)
        secs = time.time() - t0
        live = est.path_steps / (n_paths * cfg.n_steps)
        for tau, s_row, ci_row, t_row in zip(taus, est.survival, est.ci_halfwidth, targets):
            for z, s, ci, target in zip(zs, s_row, ci_row, t_row):
                bias = s - target
                print(f"{dt:>8g} {tau:>5g} {z:>6g} {s:>10.6f} {bias:>+10.6f} {ci:>9.6f} "
                      f"{bias / ci:>+8.2f} {live:>6.3f} {secs:>6.1f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=400_000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    for beta in (0.1, 1.0, 10.0):
        scan(beta, zs=(2e-3, 0.01), taus=(0.5, 1.0), dts=(4e-3, 2e-3, 1e-3, 5e-4),
             n_paths=args.paths, seed=args.seed)


if __name__ == "__main__":
    main()
