"""The scripts under scripts/ run against the package as it is."""
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(argv):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv,header", [
    (["quad_accuracy.py", "--points", "16"],
     ["group", "kind", "n", "max", "|dev|", "max", "rel", "dishonest", "nodes", "max", "secs"]),
    (["dt_bias_scan.py", "--paths", "2000"],
     ["dt", "tau", "z", "S_mc", "bias", "ci", "bias/ci", "live", "secs"]),
], ids=["quad_accuracy", "dt_bias_scan"])
def test_script_runs(argv, header):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert header in [line.split() for line in proc.stdout.splitlines()]


def test_run_figures_writes_the_figure_tables(tmp_path):
    proc = _run(["run_figures.py", str(tmp_path), "--only", "fig2,fig9"])
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv", "fig9.csv"]
    for name, header, rows in (("fig2", "tau,exact,erf", 64), ("fig9", "beta,l_c", 32)):
        lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == header and len(lines) == 1 + rows


def test_run_figures_passes_paths_and_seed_to_every_figure(tmp_path):
    proc = _run(["run_figures.py", str(tmp_path), "--paths", "64", "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"fig{i}.csv"
                                                                for i in range(1, 11))


def test_mc_mutants_each_name_one_spot_of_the_kernel():
    # checked without running pytest: a mutation whose text no longer occurs
    # exactly once in montecarlo.py cannot be planted
    spec = importlib.util.spec_from_file_location("mc_mutants", ROOT / "scripts" / "mc_mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    kernel = (ROOT / mutants.KERNEL).read_text(encoding="utf-8")
    assert len(mutants.MUTATIONS) >= 8
    for name, old, new in mutants.MUTATIONS:
        assert kernel.count(old) == 1 and new != old, name
