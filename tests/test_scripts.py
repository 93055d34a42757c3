"""The scripts under scripts/ run against the package as it is."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,header", [
    (["quad_accuracy.py", "--points", "16"],
     ["group", "kind", "n", "max", "|dev|", "max", "rel", "dishonest", "nodes", "max", "secs"]),
    (["dt_bias_scan.py", "--paths", "2000"],
     ["dt", "tau", "z", "S_mc", "bias", "ci", "bias/ci", "secs"]),
], ids=["quad_accuracy", "dt_bias_scan"])
def test_script_runs(argv, header):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert header in [line.split() for line in proc.stdout.splitlines()]
