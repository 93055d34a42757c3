"""Output parsing and the references the outputs are checked against.

Quadrature values are checked against tables recorded at commit 4ea10c7
(``reference/tables.json``, written by ``record.py``), within each row's
recorded ``err_estimate`` plus the CLI's ``abs_tol``.  The closed forms of
the approx-scan workload are checked against the formulas below, frozen from
that commit's ``asymptotics`` module: the seeded 40x20x20 grids would need
megabytes of recorded tables per seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import erf

TABLES = Path(__file__).resolve().parent / "reference" / "tables.json"

# closed forms: 1e-12 relative, plus a few ulps of 1 for values formed as 1 - x
CLOSED_REL, CLOSED_ABS = 1e-12, 1e-15


def parse_table(text: str, fmt: str) -> dict:
    """Columns of a CLI CSV or JSON table, keyed by name, unconverted: only
    the columns a check reads are converted to float."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        names = list(rows[0]) if rows else []
        return {c: [r[c] for r in rows] for c in names}
    header, _, body = text.partition("\n")
    names = header.split(",")
    cells = np.array(body.replace("\n", ",").split(",")[:-1] if body else [])
    cells = cells.reshape(-1, len(names))
    return {c: cells[:, i] for i, c in enumerate(names)}


def mismatches(got, ref, rel: float, abs_tol) -> int:
    """Number of cells outside ``rel*|ref| + abs_tol``.  A missing, short or
    non-numeric column mismatches in every cell; NaN never matches."""
    ref = np.asarray(ref, dtype=float)
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        return int(ref.size) or 1
    if got.shape != ref.shape:
        return int(ref.size) or 1
    ok = np.abs(got - ref) <= rel * np.abs(ref) + np.asarray(abs_tol, dtype=float)
    return int(ref.size - np.count_nonzero(ok))


def check_table(cols: dict[str, np.ndarray], ref_cols: dict) -> int:
    """Bad cells of a parsed table against one recorded reference table."""
    return sum(mismatches(cols.get(name), spec["values"], spec["rel"], spec["abs"])
               for name, spec in ref_cols.items())


def load_tables() -> dict:
    with open(TABLES, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def approx_reference(method: str, z, v, tau, theta: float, beta: float) -> np.ndarray:
    """Commit 4ea10c7's closed-form survival for one ``approx --method``."""
    lam = 2.0 * theta * tau - 2.0 * np.expm1(-tau) * v
    two_over_pi = 2.0 / math.pi
    if method == "erf":
        return erf(z / np.sqrt(lam))
    if method == "arctan":
        return two_over_pi * np.arctan(beta * z / (theta * tau + v))
    if method == "pheno":
        return two_over_pi * np.arctan(2.0 * z / lam)
    if method == "pheno_beta":
        return two_over_pi * np.arctan(2.0 * beta * z / lam)
    if method in ("erf_avg", "wiener"):
        return erf(z / np.sqrt(2.0 * theta * tau))
    if method == "arctan_avg":
        return two_over_pi * np.arctan(beta * z / (theta * tau))
    if method == "tail_gaussian":
        return 1.0 - np.sqrt(lam / np.pi) * np.exp(-z * z / lam) / z
    if method == "tail_powerlaw":
        return 1.0 - theta * tau / (beta * z)
    raise ValueError(f"no reference for method {method!r}")
