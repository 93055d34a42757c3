"""Self-tests of the benchmark: span arithmetic, metric schema, reference checks.

    python3 -m pytest perfbench/test_perfbench.py -q

Everything runs on tiny configurations (a few CLI rows, 2^10 Monte Carlo
paths), so the suite takes seconds.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, uninstall  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# ---------------------------------------------------------------------------
# span self-time arithmetic


def test_self_time_is_duration_minus_direct_children():
    # a [0, 10] holds b [2, 5] (which holds c [3, 4]) and d [6, 7]
    tr = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    tr.begin("cli", "cli.main")
    tr.begin("quadrature", "quadrature.survival_exact")
    tr.begin("core", "core.variance_scale")
    tr.end()
    tr.end()
    tr.begin("asymptotics", "asymptotics.survival_erf")
    tr.end()
    tr.end()
    assert dict(tr.layer_self_s) == {"cli": 6, "quadrature": 2, "core": 1, "asymptotics": 1}
    assert sum(tr.layer_self_s.values()) == 10   # self times add up to the root span
    assert tr.calls == {"cli.main": 1, "quadrature.survival_exact": 1,
                        "core.variance_scale": 1, "asymptotics.survival_erf": 1}


def test_same_layer_nesting_counts_each_span_once():
    tr = Tracer(clock=FakeClock([0, 1, 3, 4]))
    tr.begin("asymptotics", "asymptotics.survival_avg_arctan")
    tr.begin("asymptotics", "asymptotics.survival_arctan")
    tr.end()
    tr.end()
    assert tr.layer_self_s["asymptotics"] == 4
    assert tr.label_self_s["asymptotics.survival_avg_arctan"] == 2


def test_wrappers_nest_and_restore():
    import types
    mod = types.ModuleType("hestonfp.core")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = outer.__module__ = "hestonfp.core"
    mod.inner, mod.outer = inner, outer
    tr = Tracer(clock=FakeClock([0, 1, 2, 5]))
    patched = tr.install({"core": mod})
    assert mod.outer(1) == 4
    uninstall(patched)
    assert mod.inner is inner and mod.outer is outer
    assert tr.label_self_s["core.outer"] == 4 and tr.label_self_s["core.inner"] == 1


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert run.tail(values) == 89
    assert run.tail([3.0, 1.0]) == 3.0


def test_each_operation_is_divided_by_the_kernel_around_it():
    rel = run.relative({"a": 3.0, "b": 6.0}, [1.0, 2.0, 4.0])
    assert rel == {"a": 2.0, "b": 2.0}
    assert run.relative({"a": 3.0}, []) == {}
    # a pass at half speed, operations and kernel alike, reads the same
    fast = {"traced": False, "rel": run.relative({"a": 1.0, "b": 2.0}, [0.5, 0.5, 0.5])}
    slow = {"traced": False, "rel": run.relative({"a": 2.0, "b": 4.0}, [1.0, 1.0, 1.0])}
    odd = {"traced": False, "rel": {"a": 10.0, "b": 10.0}}
    traced = {"traced": True, "rel": {}}
    assert run.pass_cal([fast, slow, odd, traced]) == 6.0


# ---------------------------------------------------------------------------
# metric-name schema


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(SPEC["paths"]) == {"perfbench"}
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _tiny(name):
    layers = workloads.import_layers()
    if name == "figures":
        wl = workloads.Figures(layers, seed=3)
        wl.commands = [c for c in wl.commands if c[0] == "fig9"]
    elif name == "approx-scan":
        wl = workloads.ApproxScan(layers, seed=3, shape=(3, 2, 2))
        wl.commands = [c for c in wl.commands if c[0] != "crossing-level"]
    else:
        wl = workloads.MonteCarlo(layers, seed=3, paths=2**10)
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metric_keys_match_schema(name):
    wl = _tiny(name)
    passes = [run.one_pass(wl, traced) for traced in (False, True, False, True)]
    attempted = sum(p["outcome"].attempted for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    assert failed == 0
    per_layer = run.per_layer_metrics(wl, passes)
    e2e = run.end_to_end_metrics([1.0], passes, attempted, failed)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    counts, repeat = run.exact_counts(passes)
    assert repeat, "work counts must repeat exactly between passes"


# ---------------------------------------------------------------------------
# reference comparison


def test_mismatches_counts_bad_missing_and_nan_cells():
    ref = np.array([1.0, 2.0, 3.0])
    assert oracle.mismatches(ref + 1e-13, ref, 1e-12, 0.0) == 0
    assert oracle.mismatches(np.array([1.0, 2.1, np.nan]), ref, 1e-12, 0.0) == 2
    assert oracle.mismatches(None, ref, 1e-12, 0.0) == 3
    assert oracle.mismatches(ref[:2], ref, 1e-12, 0.0) == 3
    assert oracle.mismatches(np.array(["1", "x", "3"]), ref, 1e-12, 0.0) == 3
    assert oracle.mismatches(ref + 0.5, ref, 0.0, [0.4, 0.6, 0.6]) == 1


def _corrupt(raw):
    """Move the last value of the first (CSV) output by one part in 1e9."""
    rc, text, dur = raw[0]
    head, _, last = text.rstrip("\n").rpartition(",")
    return [(rc, f"{head},{float(last) * (1 + 1e-9) + 1e-9!r}\n", dur)] + raw[1:]


@pytest.mark.parametrize("name", ["figures", "approx-scan"])
def test_reference_check_catches_a_changed_value(name):
    wl = _tiny(name)
    wl.commands = [(k, argv[:-1] + ["csv"]) for k, argv in wl.commands[:1]]
    raw = wl.execute()
    assert wl.check(raw).failed == 0
    assert wl.check(_corrupt(raw)).failed == 1
    assert wl.check([(2, *raw[0][1:])]).failed == 1          # nonzero exit code


def test_csv_and_json_parse_to_the_same_columns():
    wl = _tiny("approx-scan")
    argv = wl.commands[0][1][:-1]
    cli = wl.layers["cli"]
    csv = oracle.parse_table(workloads.call_cli(cli, argv + ["csv"])[1], "csv")
    js = oracle.parse_table(workloads.call_cli(cli, argv + ["json"])[1], "json")
    assert csv.keys() == js.keys()
    for c in csv:
        assert np.array_equal(np.asarray(csv[c], dtype=float), np.asarray(js[c], dtype=float))


def test_mc_check_flags_range_and_worker_mismatch():
    wl = _tiny("mc")
    raw = wl.execute()
    out = wl.check(raw)
    assert out.failed == 0 and out.extras["bias_ci"] > 0
    est, t = raw["profile_2w"]
    shifted = type(est)(**{**est.__dict__, "survival": est.survival + 1e-12})
    assert wl.check({**raw, "profile_2w": (shifted, t)}).failed == 1
    above = type(est)(**{**est.__dict__, "survival": est.survival + 2.0})
    assert wl.check({**raw, "profile_1w": (above, t)}).failed == 2   # and 2w differs now
    assert wl.check({**raw, "estimate": (None, t)}).failed == 1
