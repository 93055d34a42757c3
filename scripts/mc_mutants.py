#!/usr/bin/env python3
"""Planted faults in the Monte Carlo kernel, and the test that catches each.

Each mutation replaces one exact piece of ``src/hestonfp/montecarlo.py``
with a plausible mistake.  For each, the script copies ``src/`` and
``tests/`` into a temporary directory, plants the mutation there and runs
``pytest -x -q tests/test_montecarlo.py`` on the copy; the repository itself
is only read.  It prints the first test that failed on each mutation, or
``SURVIVED``, and exits 1 if any mutation survived or no longer applies.
Standard library only; it runs the copies one after another.

Run:  python3 scripts/mc_mutants.py
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
KERNEL = pathlib.Path("src", "hestonfp", "montecarlo.py")

# (name, exact text in montecarlo.py, replacement); each text occurs once
MUTATIONS = [
    ("paired-normal-sign", "np.negative(z, out=normal[h:])", "np.copyto(normal[h:], z)"),
    ("k-hold-dropped", "np.minimum(k, 1e18, out=k)", "np.minimum(k, np.inf, out=k)"),
    ("float32-clock-product",
     "live -= np.multiply(u[:n], half_tdt, out=work[:n], dtype=np.float64)",
     "live -= np.multiply(u[:n], half_tdt, out=work[:n], dtype=np.float32)"),
    ("lift-scale", "u[n:n + up] = c / q0 * rng", "u[n:n + up] = c * rng"),
    ("wait-rate", "/ -math.log1p(-q0))", "/ q0)"),
    ("angle-mask", "np.bitwise_and(x, 2**24 - 1,", "np.bitwise_and(x, 2**23 - 1,"),
    ("pooled-centre", "(2 * nb - nb % 2)", "(2 * nb)"),
    ("block-order-merge", "results = list(pool.map(run, blocks))",
     "results = list(pool.map(run, blocks))[::-1]"),
    ("parked-clock-base", 'off += np.take(base, p, out=work[n:], mode="clip")', "off += 0.0"),
    ("start-scale", "scale=1.0 / d.nu", "scale=1.0"),
    ("unit-size-sum", "prod.sum() / (2 * h + clock.size)", "prod.sum() / (2 * clock.size)"),
]


def catcher(old: str, new: str) -> str:
    """The first test of ``tests/test_montecarlo.py`` that fails with ``old``
    replaced by ``new`` in a copy of the kernel, or ``SURVIVED``; ValueError
    unless ``old`` occurs exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, tmp / sub,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        kernel = tmp / KERNEL
        text = kernel.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError(f"its text occurs {text.count(old)} times, not once")
        kernel.write_text(text.replace(old, new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "tests/test_montecarlo.py"],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tmp / "src")})
    if proc.returncode == 0:
        return "SURVIVED"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def main() -> int:
    survived = 0
    for name, old, new in MUTATIONS:
        try:
            result = catcher(old, new)
        except ValueError as exc:
            result = f"STALE ({exc})"
        survived += not result.startswith("tests/")
        print(f"{name:24s} {result}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
