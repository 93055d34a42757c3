"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs one pass
(``execute``, the timed part) and checks that pass (``check``, untimed).
``calibrate`` runs the workload's calibration kernel (``calibration.py``);
``execute`` calls its ``between`` hook after every operation, so that the
benchmark can time the kernel around each one.
Every workload drives the package through its public functions only, looked
up as module attributes at call time so that the tracer's wrappers see them.

* ``figures``: the canned figure datasets fig2..fig10 plus ``sweep``, run
  in-process through ``hestonfp.cli.main``; quadrature does ~90 % of the work.
* ``approx-scan``: ``approx`` for all nine methods on a 40x20x20 grid in CSV
  and JSON, plus ``crossing-level``; closed forms and CLI formatting only.
* ``mc``: direct calls of the three Monte Carlo estimators at 2^17 paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import calibration
import oracle
from tracer import LAYERS

FIGURES = {f"fig{i}": ["figure", f"fig{i}"] for i in range(2, 11)}
SWEEP = {"sweep": ["sweep"]}
CROSSING = {"crossing-level": ["crossing-level", "--beta", "1:100:32",
                               "--theta-tau", "1e-4:1e-1:16"]}
RECORDED = {**FIGURES, **SWEEP, **CROSSING}

METHODS = ("erf", "arctan", "pheno", "pheno_beta", "erf_avg", "arctan_avg",
           "tail_gaussian", "tail_powerlaw", "wiener")

MC_PATHS = 2**17
MC_DT = 1e-3
DRAWS_PER_PATH_STEP = 3        # two normals and one uniform per Euler step
RNG_CHUNK = 2**16              # the estimators' path block


def import_layers() -> dict:
    """Fresh import of the package; returns the layer modules by name."""
    for name in [m for m in sys.modules if m == "hestonfp" or m.startswith("hestonfp.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"hestonfp.{layer}") for layer in LAYERS}


@dataclass
class Outcome:
    """What one pass did: operations, failures, exact work counts and
    workload-specific figures (``extras``)."""

    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    op_s: dict = field(default_factory=dict)    # operation -> wall seconds

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _report(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def call_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    """In-process ``hestonfp`` run; returns the exit code, its stdout and
    its wall time."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        _report(" ".join(argv))
        rc = -1
    return rc, buf.getvalue(), time.perf_counter() - start


def _fmt_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "csv"


class CliWorkload:
    """A list of CLI commands, each checked by a callable on its parsed table."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.commands: list[tuple[str, list[str]]] = []   # (check key, argv)
        self.warm: list[list[str]] = []
        self.verdicts: dict[bytes, tuple[bool, int]] = {}  # output digest -> (ok, rows)

    def warm_up(self) -> None:
        for argv in self.warm:
            call_cli(self.layers["cli"], argv)

    def execute(self, between=None) -> list[tuple[int, str, float]]:
        cli = self.layers["cli"]
        raw = []
        for _, argv in self.commands:
            raw.append(call_cli(cli, argv))
            if between is not None:
                between()
        return raw

    def check(self, raw) -> Outcome:
        out = Outcome(counts={"cli.rows": 0, "cli.bytes_out": 0},
                      op_s={f"{key}:{_fmt_of(argv)}": dur
                            for (key, argv), (_, _, dur) in zip(self.commands, raw)})
        for (key, argv), (rc, text, _) in zip(self.commands, raw):
            data = text.encode()
            out.counts["cli.bytes_out"] += len(data)
            # an output already checked is not parsed again
            digest = hashlib.blake2b(f"{rc} {key} {argv}".encode() + data).digest()
            if digest not in self.verdicts:
                self.verdicts[digest] = self.verdict(key, argv, rc, text)
            ok, rows = self.verdicts[digest]
            out.counts["cli.rows"] += rows
            out.record(ok)
        return out

    def verdict(self, key: str, argv: list[str], rc: int, text: str) -> tuple[bool, int]:
        """Whether one command's output is right, and its row count."""
        if rc != 0:
            return False, 0
        try:
            cols = oracle.parse_table(text, _fmt_of(argv))
            return self.bad_cells(key, cols) == 0, len(next(iter(cols.values()), ()))
        except (ValueError, KeyError, IndexError):
            _report(f"parsing the output of {' '.join(argv)}")
            return False, 0

    def bad_cells(self, key: str, cols: dict) -> int:
        raise NotImplementedError


class Figures(CliWorkload):
    name = "figures"

    @staticmethod
    def calibrate():
        calibration.quadrature_kernel(60)

    def __init__(self, layers: dict, seed: int):
        super().__init__(layers)
        rng = random.Random(seed)
        cmds = [(k, argv + ["--format", rng.choice(("csv", "json"))])
                for k, argv in FIGURES.items()]
        cmds += [("sweep", SWEEP["sweep"] + ["--format", f]) for f in ("csv", "json")]
        rng.shuffle(cmds)
        self.commands = cmds
        self.warm = [["sweep", "--z", "1e-3:1e-1:4", "--format", f] for f in ("csv", "json")]
        self.warm += [["averaged", "--z", "1e-3:1e-1:4"], ["figure", "fig9"]]
        self.tables = oracle.load_tables()

    def bad_cells(self, key, cols):
        return oracle.check_table(cols, self.tables[key]["columns"])


class ApproxScan(CliWorkload):
    name = "approx-scan"

    @staticmethod
    def calibrate():
        calibration.format_kernel(15000)

    def __init__(self, layers: dict, seed: int, shape=(40, 20, 20)):
        super().__init__(layers)
        rng = random.Random(seed)
        u = rng.uniform
        theta, beta = u(1e-3, 4e-3), 10.0 ** u(-1.0, 1.0)
        ends = {"z": (10 ** u(-3.2, -2.8), 10 ** u(-0.2, 0.2)),
                "v": (theta * 10 ** u(-2.2, -1.8), theta * 10 ** u(2.8, 3.2)),
                "tau": (10 ** u(-2.2, -1.8), 10 ** u(1.8, 2.2))}
        grid = {k: np.logspace(math.log10(a), math.log10(b), n)
                for (k, (a, b)), n in zip(ends.items(), shape)}
        z, v, tau = (a.ravel() for a in np.meshgrid(grid["z"], grid["v"], grid["tau"],
                                                      indexing="ij"))
        self.inputs = {"z": z, "v": v, "tau": tau}
        self.expected = {m: oracle.approx_reference(m, z, v, tau, theta, beta)
                         for m in METHODS}
        flags = ["--theta", repr(theta), "--beta", repr(beta)]
        flags += [x for k, (a, b) in ends.items()
                  for x in (f"--{k}", f"{a!r}:{b!r}:{grid[k].size}")]
        cmds = [(m, ["approx", "--method", m, *flags, "--format", f])
                for m in METHODS for f in ("csv", "json")]
        cmds.append(("crossing-level",
                     CROSSING["crossing-level"] + ["--format", rng.choice(("csv", "json"))]))
        rng.shuffle(cmds)
        self.commands = cmds
        small = ["--theta", repr(theta), "--beta", repr(beta), "--z", "1e-3:1:2",
                 "--v", f"{theta!r}", "--tau", "0.1:1:2"]
        self.warm = [["approx", "--method", m, *small, "--format", f]
                     for m in METHODS for f in ("csv", "json")]
        self.warm.append(["crossing-level", "--beta", "1:10:2", "--theta-tau", "1e-3"])
        self.tables = {"crossing-level": oracle.load_tables()["crossing-level"]}

    def bad_cells(self, key, cols):
        if key in self.tables:
            return oracle.check_table(cols, self.tables[key]["columns"])
        tol = (oracle.CLOSED_REL, oracle.CLOSED_ABS)
        bad = sum(oracle.mismatches(cols.get(c), x, *tol) for c, x in self.inputs.items())
        return bad + oracle.mismatches(cols.get("S"), self.expected[key], *tol)


class MonteCarlo:
    """The three estimators at ``paths`` paths, dt = 1e-3, one worker; the
    profile is repeated with two workers and must be bit-identical."""

    name = "mc"

    @staticmethod
    def calibrate():
        calibration.euler_kernel(50)

    def __init__(self, layers: dict, seed: int, paths: int = MC_PATHS):
        self.layers = layers
        core, quad, mc = layers["core"], layers["quadrature"], layers["montecarlo"]
        theta = layers["cli"].DEFAULT_PARAMS.dimensionless().theta
        self.theta = theta
        self.d01 = core.Dimensionless(theta=theta, beta=0.1)
        self.d1 = core.Dimensionless(theta=theta, beta=1.0)
        self.zs = tuple(np.logspace(math.log10(2e-3), math.log10(2e-1), 16))
        mc_seed = seed % 2**32
        self.cfg_profile = mc.McConfig(dt=MC_DT, n_paths=paths, seed=mc_seed, horizon=0.5)
        self.cfg_est = mc.McConfig(dt=MC_DT, n_paths=paths, seed=mc_seed,
                                   record_grid=(0.1, 0.25, 0.5))
        self.cfg_avg = mc.McConfig(dt=MC_DT, n_paths=paths, seed=mc_seed,
                                   record_grid=(0.1, 0.5))
        # reference values from the quadrature route
        self.ref_profile = np.array([quad.survival_exact(core.State(z=z, v=theta, tau=0.5),
                                                         self.d01).value for z in self.zs])
        self.ref_est = np.array([quad.survival_exact(core.State(z=0.01, v=theta, tau=t),
                                                     self.d01).value for t in (0.1, 0.25, 0.5)])
        self.ref_avg = np.array([quad.survival_averaged(2e-3, t, self.d1).value
                                 for t in (0.1, 0.5)])
        steps = self.cfg_profile.n_steps
        self.path_steps_1w = paths * steps * 3
        self.path_steps = paths * steps * 4
        self.rng_draws = DRAWS_PER_PATH_STEP * self.path_steps_1w + paths
        self.paths = paths

    def warm_up(self) -> None:
        """Every call at full width for 20 steps, so that the first timed pass
        does not pay for the allocator growing to full-width arrays."""
        mc = self.layers["montecarlo"]
        cfg = mc.McConfig(dt=MC_DT, n_paths=self.paths, seed=0, horizon=20 * MC_DT)
        mc.survival_profile(self.d01, self.zs, cfg, v0=self.theta, workers=2)
        mc.estimate_survival(self.d01, 0.01, self.theta, cfg)
        mc.estimate_survival_averaged(self.d1, 2e-3, cfg)

    def execute(self, between=None) -> dict:
        mc = self.layers["montecarlo"]
        calls = {
            "profile_1w": lambda: mc.survival_profile(self.d01, self.zs, self.cfg_profile,
                                                      v0=self.theta, workers=1),
            "profile_2w": lambda: mc.survival_profile(self.d01, self.zs, self.cfg_profile,
                                                      v0=self.theta, workers=2),
            "estimate": lambda: mc.estimate_survival(self.d01, 0.01, self.theta,
                                                     self.cfg_est, workers=1),
            "estimate_averaged": lambda: mc.estimate_survival_averaged(
                self.d1, 2e-3, self.cfg_avg, workers=1),
        }
        raw = {}
        for key, call in calls.items():
            start = time.perf_counter()
            try:
                result = call()
            except Exception:  # a crash is a failed operation, not a benchmark error
                _report(key)
                result = None
            raw[key] = (result, time.perf_counter() - start)
            if between is not None:
                between()
        return raw

    def check(self, raw) -> Outcome:
        out = Outcome(counts={"montecarlo.path_steps": self.path_steps,
                              "montecarlo.rng_draws": self.rng_draws})
        refs = {"profile_1w": self.ref_profile, "profile_2w": self.ref_profile,
                "estimate": self.ref_est, "estimate_averaged": self.ref_avg}
        z_scores, ci2 = [], []
        for key, (est, _) in raw.items():
            ok = est is not None
            if ok:
                s, ci = np.asarray(est.survival), np.asarray(est.ci_halfwidth)
                ok = bool(np.all((s >= 0.0) & (s <= 1.0)))
                if key != "profile_2w":
                    has_ci = ci > 0.0     # a zero half-width (all paths alike) has no scale
                    z_scores.append((s - refs[key])[has_ci] / ci[has_ci])
                    ci2.append(ci * ci)
            if ok and key == "profile_2w":
                one = raw["profile_1w"][0]
                ok = one is not None and np.array_equal(est.survival, one.survival) \
                    and np.array_equal(est.ci_halfwidth, one.ci_halfwidth)
            out.record(ok)
        out.op_s = {k: t for k, (_, t) in raw.items()}
        z_all = np.concatenate(z_scores) if z_scores else np.empty(0)
        if len(ci2) == 3 and z_all.size:
            out.extras["bias_ci"] = float(np.max(np.abs(z_all)))
            out.extras["signed_bias_ci"] = float(z_all[np.argmax(np.abs(z_all))])
            out.extras["mean_ci2"] = float(np.mean(np.concatenate(ci2)))
        return out

    def rng_probe(self, share: int = 16) -> float:
        """Seconds that ``rng_draws`` Philox draws take, timed on 1/``share``
        of them in the estimators' chunk size and scaled up."""
        gen = np.random.Generator(np.random.Philox(key=[1, 2]))
        chunks = max(1, self.rng_draws // (DRAWS_PER_PATH_STEP * RNG_CHUNK) // share)
        start = time.perf_counter()
        for _ in range(chunks):
            gen.standard_normal(RNG_CHUNK)
            gen.standard_normal(RNG_CHUNK)
            gen.random(RNG_CHUNK)
        per_draw = (time.perf_counter() - start) / (chunks * DRAWS_PER_PATH_STEP * RNG_CHUNK)
        return per_draw * self.rng_draws


WORKLOADS = {w.name: w for w in (Figures, ApproxScan, MonteCarlo)}
