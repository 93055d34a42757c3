#!/usr/bin/env python3
"""Record the reference tables that the figures and approx-scan checks use.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record.py

It runs every recorded command once in CSV and writes
``perfbench/reference/tables.json``: per command and column the values and
the tolerance ``|got - ref| <= rel*|ref| + abs``.  Quadrature columns get,
per row, the ``err_estimate`` of the survival call behind it plus the CLI's
``abs_tol`` (scaled like the column, for a risk ratio); closed forms get
1e-12 relative.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

ABS_TOL = 1e-9                  # the CLI's default RunSpec.abs_tol
ROOT_REL, ROOT_ABS = 1e-12, 1e-14   # crossing levels: brentq's xtol is 1e-14
RESIDUAL_ABS = 1e-12

# quadrature columns: name -> position of its survival call within a row
QUAD = {
    "fig2": {"exact": 0}, "fig3": {"exact": 0}, "fig4": {"exact": 0},
    "fig5": {"exact": 0}, "fig6": {"W_averaged": 0}, "fig7": {"averaged": 0},
    "fig8": {"W_averaged": 0}, "fig10": {"ratio": 0},
    "sweep": {"exact": 0, "averaged": 1},
}


def _capture(layers, results):
    """Make every survival call the CLI (or risk_ratio) makes append its result."""
    def wrap(fn):
        def call(*args, **kwargs):
            r = fn(*args, **kwargs)
            results.append(r)
            return r
        return call
    cli, asy = layers["cli"], layers["asymptotics"]
    cli.survival_exact = wrap(cli.survival_exact)
    cli.survival_averaged = wrap(cli.survival_averaged)
    asy.survival_averaged = wrap(asy.survival_averaged)


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    layers = workloads.import_layers()
    results: list = []
    _capture(layers, results)
    commands = {}
    for key, argv in workloads.RECORDED.items():
        results.clear()
        rc, text, _ = workloads.call_cli(layers["cli"], argv)
        if rc != 0:
            print(f"record: {' '.join(argv)} exited {rc}", file=sys.stderr)
            return 1
        cols = {c: np.asarray(v, dtype=float)
                for c, v in oracle.parse_table(text, "csv").items()}
        spec = {}
        for name, values in cols.items():
            rel, tol = oracle.CLOSED_REL, oracle.CLOSED_ABS
            if name in QUAD.get(key, {}):
                per_row = len(QUAD[key])
                err = np.array([r.err_estimate for r in results[QUAD[key][name]::per_row]])
                tol = err + ABS_TOL
                if name == "ratio":    # ratio = (1 - S_averaged) / baseline
                    tol = tol * values / (1.0 - np.array([r.value for r in results]))
                rel, tol = 0.0, tol.tolist()
            elif name == "l_c":
                rel, tol = ROOT_REL, ROOT_ABS
            elif name == "residual":
                rel, tol = 0.0, RESIDUAL_ABS
            spec[name] = {"values": values.tolist(), "rel": rel, "abs": tol}
        commands[key] = {"argv": argv, "columns": spec}
    out = {"commit": _commit(), "abs_tol": ABS_TOL, "commands": commands}
    oracle.TABLES.parent.mkdir(exist_ok=True)
    with open(oracle.TABLES, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
        fh.write("\n")
    print(f"wrote {oracle.TABLES} ({len(commands)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
