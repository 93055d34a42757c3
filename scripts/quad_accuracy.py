#!/usr/bin/env python3
"""Accuracy of the quadrature at its default tolerance.

Draws random points, log-uniform over beta in [0.01, 30], z in [3e-4, 3],
v in [1e-3, 3e3] theta and tau in [1e-3, 1e3], and adds named hard points:
a large starting variance at tau = 8, the slow tails of beta = 10, tau = 1e5,
small beta on the averaged integrand, and small survival (z <= 1e-4 with
tau >= 1e3).  Every point is computed, exact and averaged, at the default
tolerance and at a tight one.  Per group the script prints the largest
absolute and relative deviation of the default result from the tight one,
the number of points whose deviation exceeds the two reported
``err_estimate``s together ("dishonest"), the nodes evaluated per point,
and the wall time of the default batch.

Run:  python3 scripts/quad_accuracy.py [--points 800] [--seed 2026]
"""
import argparse
import time

import numpy as np

import hestonfp as h

TH = 8.62e-5 / 0.045
TIGHT = h.QuadConfig(abs_tol=1e-14, rel_tol=1e-12)


def random_points(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def logu(lo, hi):
        return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), n)

    return {"beta": logu(0.01, 30.0), "z": logu(3e-4, 3.0),
            "v": TH * logu(1e-3, 3e3), "tau": logu(1e-3, 1e3)}


def named_points() -> dict[str, dict]:
    zs = np.geomspace(1e-3, 1e-1, 8)
    small = [(z, tau, beta) for z in (1e-5, 1e-4) for tau in (1e3, 1e4)
             for beta in (0.1, 1.0)]
    return {
        "v = 1000 theta, tau = 8": dict(beta=np.ones(8), z=zs, v=1e3 * TH * np.ones(8),
                                        tau=8.0 * np.ones(8)),
        "beta = 10 tails": dict(beta=10.0 * np.ones(8), z=zs, v=TH * np.ones(8),
                                tau=np.geomspace(0.01, 0.5, 8)),
        "tau = 1e5": dict(beta=np.array([0.1, 1.0, 10.0] * 2),
                          z=np.repeat([0.01, 0.1], 3), v=TH * np.ones(6), tau=1e5 * np.ones(6)),
        "beta = 0.01": dict(beta=0.01 * np.ones(8), z=zs, v=TH * np.ones(8),
                            tau=np.geomspace(0.01, 10.0, 8)),
        "z <= 1e-4, tau >= 1e3": {k: np.array(c) for k, c in
                                  zip(("z", "tau", "beta"), zip(*small))} | {
                                      "v": TH * np.ones(len(small))},
    }


def run(kind: str, p: dict, config=None):
    d = [h.Dimensionless(TH, float(b)) for b in p["beta"]]
    start = time.perf_counter()
    if kind == "exact":
        res = h.survival_exact_batch(p["z"], p["v"], p["tau"], d, config)
    else:
        res = h.survival_averaged_batch(p["z"], p["tau"], d, config)
    secs = time.perf_counter() - start
    return (np.array([r.value for r in res]), np.array([r.err_estimate for r in res]),
            np.array([r.panels_used for r in res]), secs)


def report(group: str, p: dict) -> None:
    for kind in ("exact", "averaged"):
        val, err, nodes, secs = run(kind, p)
        ref, ref_err, _, _ = run(kind, p, TIGHT)
        dev = np.abs(val - ref)
        rel = dev / np.abs(ref)
        dishonest = int(np.count_nonzero(dev > err + ref_err))
        print(f"{group:<24} {kind:<9} {val.size:>5} {dev.max():>10.2e} {rel.max():>10.2e} "
              f"{dishonest:>9} {nodes.mean():>8.0f} {nodes.max():>7} {secs:>8.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=int, default=800)
    ap.add_argument("--seed", type=int, default=2026)
    args = ap.parse_args()
    print(f"default {h.QuadConfig()} against tight {TIGHT}")
    print(f"{'group':<24} {'kind':<9} {'n':>5} {'max |dev|':>10} {'max rel':>10} "
          f"{'dishonest':>9} {'nodes':>8} {'max':>7} {'secs':>8}")
    report("random", random_points(args.points, args.seed))
    for group, p in named_points().items():
        report(group, p)


if __name__ == "__main__":
    main()
