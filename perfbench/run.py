#!/usr/bin/env python3
"""hestonfp benchmark: one workload, its correctness checks and its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the passes run untraced and the last stdout line carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced passes alternate and it carries the per-layer metrics.  The line
before it is a report with the machine record and every figure measured.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3      # set-ups per run: this process plus two fresh interpreters


def setup(workload: str, seed: int):
    """Import the package, build the inputs and references, warm up."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r} "
                 f"(choose from {', '.join(workloads.WORKLOADS)})")
    wl = workloads.WORKLOADS[workload](workloads.import_layers(), seed)
    wl.warm_up()
    return wl


def setup_in_subprocess(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def one_pass(wl, traced: bool):
    """One pass.  An untraced pass also times the workload's calibration
    kernel before its first operation and after each operation."""
    from tracer import Tracer, uninstall
    tracer = Tracer() if traced else None
    cal: list[float] = []

    def between():
        t = time.perf_counter()
        wl.calibrate()
        cal.append(time.perf_counter() - t)

    gc.collect()
    if not traced:
        between()
    patched = tracer.install(wl.layers) if traced else []
    try:
        start = time.perf_counter()
        raw = wl.execute(None if traced else between)
        wall = time.perf_counter() - start - sum(cal[1:])
    finally:
        uninstall(patched)
    outcome = wl.check(raw)
    return {"traced": traced, "wall": wall, "outcome": outcome, "tracer": tracer,
            "cal": cal, "rel": relative(outcome.op_s, cal)}


def relative(op_s: dict, cal: list[float]) -> dict:
    """Each operation's time over the mean of the calibration kernel's
    times just before and just after it."""
    if not cal:
        return {}
    assert len(cal) == len(op_s) + 1, "one kernel time around each operation"
    return {op: t / (0.5 * (cal[k] + cal[k + 1])) for k, (op, t) in enumerate(op_s.items())}


def measure(wl, seconds: float, trace: bool) -> list[dict]:
    """Passes until the next one would end after ``seconds``; at least one
    of each kind.  With tracing, untraced and traced passes alternate."""
    start = time.perf_counter()
    kinds = [False, True] if trace else [False]
    passes, cost = [], {}
    while True:
        for traced in kinds:
            t = time.perf_counter()
            passes.append(one_pass(wl, traced))
            cost[traced] = max(cost.get(traced, 0.0), time.perf_counter() - t)
        if time.perf_counter() - start + sum(cost.values()) > seconds:
            return passes


def tail(values: list[float]) -> float:
    """The highest sample with at least ten samples beyond it (the maximum
    when there are fewer than eleven)."""
    s = sorted(values)
    return s[len(s) - 11] if len(s) > 10 else s[-1]


def mc_figures(wl, passes: list[dict]) -> dict:
    """Throughput, efficiency and bias of the mc workload (untraced passes)."""
    untraced = [p for p in passes if not p["traced"]]
    wall = pass_wall(untraced)
    have = [p["outcome"].extras for p in untraced if "mean_ci2" in p["outcome"].extras]
    if not have:
        return {}
    return {"path_steps_per_s": wl.path_steps / wall,
            "mc_efficiency": 1.0 / (statistics.median(e["mean_ci2"] for e in have) * wall),
            "mc_bias_ci": statistics.median(e["bias_ci"] for e in have),
            "mc_signed_bias_ci": have[0]["signed_bias_ci"]}


def layer_figures(tr, op_s: dict) -> dict:
    """Per-layer figures of one traced pass."""
    self_s = tr.layer_self_s
    fmt = tr.label_self_s["cli.emit_csv"] + tr.label_self_s["cli.emit_json"]
    run_self = tr.label_self_s["cli.run"]
    quad_calls = (tr.durations("quadrature.survival_exact")
                  + tr.durations("quadrature.survival_averaged"))
    crossing = tr.durations("asymptotics.crossing_level")
    calls = tr.calls

    def layer_calls(layer):
        return sum(n for label, n in calls.items() if label.startswith(layer + "."))

    return {
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.exact.calls": calls.get("quadrature.survival_exact", 0),
        "quadrature.averaged.calls": calls.get("quadrature.survival_averaged", 0),
        "quadrature.call_p50_ms": 1e3 * statistics.median(quad_calls) if quad_calls else 0.0,
        "quadrature.call_tail_ms": 1e3 * tail(quad_calls) if quad_calls else 0.0,
        "quadrature.leaves": tr.counts["leaves"],
        "quadrature.f_evals": tr.counts["f_evals"],
        "quadrature.f_nodes": tr.counts["f_nodes"],
        "quadrature.cutoff_probes": tr.counts["cutoff_probes"],
        "cli.main_self_s": self_s["cli"] - run_self - fmt,
        "cli.run_self_s": run_self,
        "cli.format_s": fmt,
        "asymptotics.self_s": self_s["asymptotics"],
        "asymptotics.calls": layer_calls("asymptotics"),
        "asymptotics.crossing_level.p50_ms": 1e3 * statistics.median(crossing) if crossing else 0.0,
        "core.self_s": self_s["core"],
        "core.calls": layer_calls("core"),
        "montecarlo.self_s": self_s["montecarlo"],
        "montecarlo.profile_s": op_s.get("profile_1w", 0.0),
        "montecarlo.estimate_s": op_s.get("estimate", 0.0),
        "montecarlo.estimate_averaged_s": op_s.get("estimate_averaged", 0.0),
        "montecarlo.speedup_2w": (op_s["profile_1w"] / op_s["profile_2w"]
                                  if "profile_2w" in op_s else 0.0),
        "trace.self_sum_s": sum(self_s.values()),
    }


def exact_counts(passes: list[dict]) -> tuple[dict, bool]:
    """Work counts of the passes and whether every pass repeated them exactly."""
    seen = [p["outcome"].counts for p in passes]
    traced = [dict(p["tracer"].counts, **{f"calls.{k}": v for k, v in p["tracer"].calls.items()})
              for p in passes if p["traced"]]
    repeat = all(c == seen[0] for c in seen) and all(c == traced[0] for c in traced)
    return seen[0], repeat


def per_layer_metrics(wl, passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [layer_figures(p["tracer"], p["outcome"].op_s) for p in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    counts, _ = exact_counts(passes)
    out.update({k: counts.get(k, 0) for k in
                ("cli.rows", "cli.bytes_out", "montecarlo.path_steps", "montecarlo.rng_draws")})
    mc = mc_figures(wl, passes) if wl.name == "mc" else {}
    mc_1w = sum(out[f"montecarlo.{k}_s"] for k in ("profile", "estimate", "estimate_averaged"))
    out["montecarlo.ns_per_path_step"] = 1e9 * mc_1w / wl.path_steps_1w if mc else 0.0
    out["montecarlo.rng_share"] = wl.rng_probe() / mc_1w if mc else 0.0
    out["montecarlo.path_steps_per_s"] = mc.get("path_steps_per_s", 0.0)
    out["montecarlo.efficiency"] = mc.get("mc_efficiency", 0.0)
    out["montecarlo.bias_ci"] = mc.get("mc_bias_ci", 0.0)
    out["trace.traced_wall_s"] = statistics.median(p["wall"] for p in traced)
    out["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
    return out


def fastest_ops(passes: list[dict]) -> dict:
    """Each operation's fastest run over the passes."""
    return {op: min(p["outcome"].op_s[op] for p in passes) for op in passes[0]["outcome"].op_s}


def pass_cal(passes: list[dict]) -> float:
    """Time of one untraced pass in calibration-kernel runs: the sum over
    its operations of each operation's median ratio to the kernel.  The
    kernel runs around every operation, so a phase of the machine slows
    both alike and the ratio does not depend on it."""
    rel = [p["rel"] for p in passes if p["rel"]]
    return sum(statistics.median(r[op] for r in rel) for op in rel[0])


def pass_wall(passes: list[dict]) -> float:
    """Wall time of one pass: the sum over its operations of each operation's
    fastest run.  The machine's speed drifts in phases of seconds to minutes
    by up to 1.7x; a pass median depends on how long a run spent in slow
    phases, while each operation's fastest run does not."""
    return sum(fastest_ops(passes).values())


def end_to_end_metrics(setups: list[float], passes: list[dict], attempted: int,
                       failed: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_cal": pass_cal(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_rate": (attempted - failed) / attempted,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": git_commit(), "seed": seed,
            "load_threads": 1, "mc_worker_threads_max": 2}


def schema() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: time one set-up and print it")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hestonfp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'hestonfp'}", file=sys.stderr)
        return 2
    spec = schema()
    wl = setup(args.workload, args.seed)
    setups = [time.perf_counter() - START]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        setups += [setup_in_subprocess(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]

    passes = measure(wl, args.seconds, bool(args.trace))
    attempted = sum(p["outcome"].attempted for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    counts, repeat = exact_counts(passes)
    if args.trace:
        metrics = per_layer_metrics(wl, passes)
        kind = "per_layer"
    else:
        metrics = end_to_end_metrics(setups, passes, attempted, failed)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    not_finite = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if not_finite:
        print(f"perfbench: metrics {not_finite} are not finite", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload, "machine": machine(args.seed),
        "passes": {"untraced": sum(not p["traced"] for p in passes),
                   "traced": sum(p["traced"] for p in passes)},
        "wall_s": pass_wall([p for p in passes if not p["traced"]]),
        "pass_wall_s": [p["wall"] for p in passes if not p["traced"]],
        "pass_cal": [sum(p["rel"].values()) for p in passes if not p["traced"]],
        "kernel_s": statistics.median(t for p in passes for t in p["cal"]),
        "fastest_op_s": fastest_ops([p for p in passes if not p["traced"]]),
        "setup_s": setups, "counts": counts, "counts_repeat": repeat,
        "fail_rate": failed / attempted,
    }
    if args.workload == "mc":
        report["mc"] = mc_figures(wl, passes)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
