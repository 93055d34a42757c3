#!/usr/bin/env python3
"""Regenerate every canned figure dataset (fig1..fig10) into an output dir.

Usage:
    python3 scripts/run_figures.py [outdir] [--paths N] [--seed S] [--only fig1,fig9]

fig1 is the only one that runs the simulator, so --paths and --seed go to
it alone; pass a smaller --paths for a quick look (the default 10^6 takes
~half a minute).
"""
import argparse
import sys
import time
from pathlib import Path

from hestonfp.cli import main as cli_main

ALL = [f"fig{i}" for i in range(1, 11)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="figures")
    ap.add_argument("--paths", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--only", default=None, help="comma-separated subset")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    wanted = args.only.split(",") if args.only else ALL

    for name in wanted:
        argv = ["figure", name, "--output", str(outdir / f"{name}.csv")]
        # any other figure rejects them
        if name == "fig1" and args.paths is not None:
            argv += ["--paths", str(args.paths)]
        if name == "fig1" and args.seed is not None:
            argv += ["--seed", str(args.seed)]
        t0 = time.time()
        rc = cli_main(argv)
        print(f"{name}: exit {rc}  {time.time() - t0:.1f}s  -> {outdir / (name + '.csv')}")
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
