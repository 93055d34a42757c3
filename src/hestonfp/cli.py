"""Command-line front end.

Subcommands
-----------
exact           survival by exact inversion over a (z, v, tau) grid
averaged        stationary-averaged survival over a (z, tau) grid
approx          one closed-form approximation over a grid
simulate        Monte Carlo survival curve (optionally stationary starts)
crossing-level  root of the Gaussian-vs-heavy-tail hitting balance
ratio           risk ratio against the constant-volatility baseline
sweep           side-by-side comparison table of all survival routes
figure          canned datasets behind the standard plots (fig1..fig10)

Every survival column comes from one method table, once per grid: ``approx``,
``sweep`` and fig2-fig5, fig7 and fig8 (rows of a figure table) read it.

Parameters come either as physical rates (--alpha --m2 --k, units 1/day) or
directly as dimensionless (--theta --beta) -- never both.  Grid-valued flags
accept a scalar or ``start:stop:count`` (log-spaced).  Every flag --x-y is
also the --config file key x_y, parsed the same way; a flag wins over the
file.  A command reads --output, --format and its own options, theta and
beta among them (README lists them); any other option, theta or beta that
differs from its default is an error, not a value dropped.  Output is CSV
(17 significant digits, LF line endings) or JSON; exit codes: 0 ok, 2
parameter or usage error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .core import Dimensionless, ModelParams, variance_scale
from .errors import (ConfigError, DivisionDomain, HestonFPError, NoRoot,
                     NonConvergence, ParameterError)
from .quadrature import QuadConfig, survival, survival_wiener
from . import asymptotics as asy
from .montecarlo import McConfig, estimate_survival

__all__ = ["RunSpec", "load_config", "run", "main"]

DEFAULT_PARAMS = ModelParams(alpha=0.045, m_sq=8.62e-5, k=0.0045)


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved description of one CLI run.  It checks its grids itself:
    ``approx`` reads ``--v`` for every method, but some never check it."""

    command: str
    params: ModelParams | Dimensionless
    z: tuple[float, ...] = ()
    v: tuple[float, ...] = ()
    tau: tuple[float, ...] = ()
    method: str | None = None
    output_format: str = "csv"
    output_path: str | None = None
    seed: int = 0
    paths: int = 10**6
    dt: float = 1e-3
    theta_tau: tuple[float, ...] = ()
    beta_grid: tuple[float, ...] = ()
    stationary: bool = False
    figure: str | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.command == "figure" and self.figure not in _FIGURES:
            raise ParameterError(f"figure: unknown figure {self.figure!r} (fig1..fig10)")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"--format: must be csv or json, got {self.output_format!r}")
        grids = (("--z", self.z), ("--v", self.v), ("--tau", self.tau),
                 ("--theta-tau", self.theta_tau), ("--beta", self.beta_grid))
        # every negative value first (-inf too), in the order parsing the flags met them
        for name, grid in grids:
            for value in grid:
                if value < 0.0:
                    raise ParameterError(f"{name}: must be >= 0, got {value!r}")
        for name, grid in grids:
            for value in grid:
                if not math.isfinite(value):
                    raise ParameterError(f"{name}: grid values must be finite")
                if value <= 0.0 and name in ("--theta-tau", "--beta"):
                    raise ParameterError(f"{name}: must be > 0, got {value!r}")

    @property
    def dimensionless(self) -> Dimensionless:
        if isinstance(self.params, Dimensionless):
            return self.params
        return self.params.dimensionless()


def _flag(key: str) -> str:
    """The flag of config key ``key``: ``--theta-tau`` for ``theta_tau``."""
    return "--" + key.replace("_", "-")


def _parse_grid(key: str, text: str) -> tuple[float, ...]:
    """A scalar, or ``start:stop:count`` expanded log-spaced."""
    flag = _flag(key)
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"{flag}: expected start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParameterError(f"{flag}: {exc}") from None
        if count < 1:
            raise ParameterError(f"{flag}: count must be >= 1")
        if not (0.0 < start < math.inf and 0.0 < stop < math.inf):
            raise ParameterError(f"{flag}: log grid endpoints must be finite and > 0")
        return tuple(np.logspace(math.log10(start), math.log10(stop), count))
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"{flag}: not a number or grid: {text!r}") from None
    return (value,)


def _number(cast):
    """The parser ``cast(text)``, raising :class:`ConfigError` that names the
    key when the text does not parse."""
    kind = "an integer" if cast is int else "a number"

    def parse(key: str, text: str):
        try:
            return cast(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind}, got {text!r}") from None
    return parse


_float, _int = _number(float), _number(int)


def _text(key: str, text: str) -> str:
    if not text.strip():
        raise ConfigError(f"{_flag(key)}: expected a value, got an empty text")
    return text


def _parse_beta(key: str, text: str) -> float | tuple[float, ...]:
    """A scalar beta (a model parameter), or a ``start:stop:count`` scan."""
    return _parse_grid(key, text) if ":" in text else _float(key, text)


def _as_bool(key: str, text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _resolve_method(key: str, text: str) -> str:
    name = text.strip().lower().replace("-", "_")
    if name not in _METHOD_ALIASES:
        raise ParameterError(
            f"{_flag(key)}: unknown method {text!r} (choose from "
            f"{', '.join(sorted(set(_METHOD_ALIASES)))})")
    return _METHOD_ALIASES[name]


# Every option, by config key, with the parser of its text.  Its flag is
# ``_flag(key)``; a flag and a config value of the same key are parsed alike,
# and RunSpec holds the defaults.
_OPTIONS = {
    "alpha": _float, "m2": _float, "k": _float, "theta": _float, "beta": _parse_beta,
    "z": _parse_grid, "v": _parse_grid, "tau": _parse_grid, "method": _resolve_method,
    "paths": _int, "dt": _float, "seed": _int, "output": _text, "format": _text,
    "theta_tau": _parse_grid, "stationary": _as_bool,
}
# RunSpec's field of an option, where it is not the key (``beta`` here is a scan)
_FIELDS = {"output": "output_path", "format": "output_format", "beta": "beta_grid"}
_KEYS = {field: key for key, field in _FIELDS.items()}


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path!r}: {exc}") from None
    out: dict[str, str] = {}
    for i, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"--config {path}:{i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"--config {path}:{i}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"--config {path}:{i}: duplicate key {key!r}")
        out[key] = value
    return out


def _resolve_params(given: dict[str, float]) -> ModelParams | Dimensionless:
    """Apply the exactly-one-group rule for parameter intake.

    ``given`` holds the supplied members of alpha, m2, k, theta and beta, in
    that order.  Missing members of the chosen group fall back to the
    standard defaults; supplying members of both groups is rejected.
    """
    physical = {("m_sq" if n == "m2" else n): x for n, x in given.items()
                if n in ("alpha", "m2", "k")}
    if physical and len(physical) < len(given):
        raise ParameterError(
            "supply either --alpha/--m2/--k or --theta/--beta, not both "
            f"(got {', '.join('--' + n for n in given)})")
    if given and not physical:
        return replace(DEFAULT_PARAMS.dimensionless(), **given)
    return replace(DEFAULT_PARAMS, **physical)


def load_config(path: str, command: str = "exact") -> RunSpec:
    """Build a RunSpec for ``command`` from a flat key=value file.

    The same keys the flags accept; an empty file yields pure defaults.
    Flag merging (flags win) happens in :func:`main`, which passes flag
    values as overrides through the shared resolution path.
    """
    return _build_spec(command, _parse_config_file(path), {})


def _build_spec(command: str, config: dict[str, str], flags: dict[str, str],
                figure: str | None = None) -> RunSpec:
    """The RunSpec of option texts by key, a flag winning over the config
    value of its key; each given text is parsed once, by its key's parser."""
    texts = {**config, **flags}
    values = {key: parse(key, texts[key]) for key, parse in _OPTIONS.items() if key in texts}
    # beta is a model parameter, or a scan when crossing-level is given a grid
    given = {n: values.pop(n) for n in ("alpha", "m2", "k", "theta", "beta")
             if isinstance(values.get(n), float)}
    return RunSpec(command=command, params=_resolve_params(given), figure=figure,
                   **{_FIELDS.get(key, key): value for key, value in values.items()})


# ---------------------------------------------------------------------------
# output formatting: a table is its column names and one 1-D float or integer
# array per column, and each emitter fills one row template per table


def emit_csv(names, columns) -> str:
    """A header line, then one line per row: ``str`` of an integer and 17
    significant digits of a float (``"{:.17g}".format``)."""
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in cols)
    return "\n".join([",".join(names), *map(row.__mod__, zip(*(c.tolist() for c in cols)))]) + "\n"


def _meta(spec: RunSpec) -> dict:
    p, d = spec.params, spec.dimensionless
    params = ({"alpha": p.alpha, "m2": p.m_sq, "k": p.k} if isinstance(p, ModelParams)
              else {"theta": p.theta, "beta": p.beta})
    return {**asdict(spec), "params": params, "theta": d.theta, "beta": d.beta,
            **asdict(_QUAD_CONFIG), "version": __version__}


# The texts json writes for a float that repr writes otherwise
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_column(col) -> tuple[str, list]:
    """The row-template conversion and the cells of one column: ``%r`` of
    its numbers, which is the text json writes, or ``%s`` of the texts when
    a float column holds NaN or an infinity."""
    col = np.asarray(col)
    if col.dtype.kind != "f" or np.isfinite(col).all():
        return "%r", col.tolist()
    return "%s", [_NONFINITE.get(t, t) for t in map(repr, col.tolist())]


def emit_json(spec: RunSpec, names, columns, work: dict | None = None) -> str:
    """The text ``json.dumps(payload, indent=2) + "\\n"`` of the payload
    ``{"meta": ..., "rows": [{name: cell, ...}, ...]}``, its rows filled into
    one template after the dumped ``meta``."""
    head = json.dumps({"meta": {**_meta(spec), **(work or {})}}, indent=2)[:-2]
    cols = [_json_column(c) for c in columns]
    row = "\n    {" + ",".join(f"\n      {json.dumps(n).replace('%', '%%')}: {conv}"
                                for n, (conv, _) in zip(names, cols)) + "\n    }"
    rows = ",".join(map(row.__mod__, zip(*(cells for _, cells in cols))))
    return head + (f',\n  "rows": [{rows}\n  ]' if rows else ',\n  "rows": []') + "\n}\n"


# ---------------------------------------------------------------------------
# command implementations (each returns column names, columns)


def _grid(*axes) -> list[np.ndarray]:
    """The product grid of ``axes``, first axis slowest, one flat array per axis."""
    return [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]


# Tolerances of every quadrature the CLI runs.
_QUAD_CONFIG = QuadConfig()


def _zvtau(spec: RunSpec, d: Dimensionless, z=(0.01,)) -> list[np.ndarray]:
    """The (z, v, tau) product grid of ``spec``, with each axis defaulted."""
    return _grid(spec.z or z, spec.v or (d.theta,), spec.tau or (0.5,))


def _cmd_survival(spec: RunSpec):
    """``exact`` over the (z, v, tau) grid of ``spec``, ``averaged`` over its (z, tau) grid."""
    d = spec.dimensionless
    if spec.command == "exact":
        axes = dict(zip(("z", "v", "tau"), _zvtau(spec, d)))
    else:
        axes = dict(zip(("z", "tau"), _grid(spec.z or (0.01,), spec.tau or (0.5,))))
    res = survival(axes["z"], axes["tau"], d, axes.get("v"), _QUAD_CONFIG)
    return [*axes, "S", "err_estimate", "panels"], [*axes.values(), res.value,
                                                    res.err_estimate, res.panels_used]


# Each method's survival over a flat (z, v, tau) grid as one vectorised
# call: the two quadrature routes, then every closed form.  Functions are
# looked up when an entry is called, so a module attribute replaced later
# (a tracer, a test double) still sees it.
_COLUMNS = {
    "exact": lambda z, v, tau, d: survival(z, tau, d, v, _QUAD_CONFIG).value,
    "averaged": lambda z, v, tau, d: survival(z, tau, d, None, _QUAD_CONFIG).value,
    "erf_joint": lambda z, v, tau, d: asy.survival_erf(z, v, tau, d.theta),
    "arctan_joint": lambda z, v, tau, d: asy.survival_arctan(z, v, tau, d.theta, d.beta),
    "pheno": lambda z, v, tau, d: asy.survival_pheno(z, v, tau, d.theta),
    # the candidate with a factor beta in the numerator: 2 (beta z) rounds as (2 beta) z;
    # a beta z past the largest float is held there, where 2 (beta z) overflows as before
    "pheno_beta": np.errstate(over="ignore")(lambda z, v, tau, d: asy.survival_pheno(
        np.minimum(d.beta * z, np.finfo(float).max), v, tau, d.theta)),
    "erf_averaged": lambda z, v, tau, d: asy.survival_avg_erf(z, tau, d.theta),
    "arctan_averaged": lambda z, v, tau, d: asy.survival_avg_arctan(z, tau, d.theta, d.beta),
    "wiener": lambda z, v, tau, d: survival_wiener(z, d.theta, tau),
    "tail_gaussian": lambda z, v, tau, d:
        1.0 - asy.tail_gaussian_hitting(z, variance_scale(tau, v, d.theta)),
    "tail_powerlaw": lambda z, v, tau, d: 1.0 - asy.tail_powerlaw_hitting(z, tau, d.theta, d.beta),
}

# ``approx --method`` takes every closed form by its name or a short one;
# the quadrature routes have commands of their own.
_METHOD_ALIASES = {**{m: m for m in _COLUMNS if m not in ("exact", "averaged")},
                   "erf": "erf_joint", "arctan": "arctan_joint",
                   "erf_avg": "erf_averaged", "arctan_avg": "arctan_averaged"}


def _table(d: Dimensionless, z, v, tau, methods) -> list:
    """One column per method over the flat grid ``z, v, tau``, each evaluated once.
    A failing quadrature column raises the ``NonConvergence`` a loop over the
    rows would meet first: each later column runs only on the rows before the
    failure, and a failure among them is an earlier one."""
    cols, rows, failure = [], len(z), None
    for m in methods:
        try:
            cols.append(_COLUMNS[m](z[:rows], v[:rows], tau[:rows], d))
        except NonConvergence as exc:
            rows, failure = exc.point, exc
    if failure is not None:
        raise failure
    return cols


def _cmd_approx(spec: RunSpec):
    if spec.method is None:
        raise ParameterError("--method is required for the approx command")
    d = spec.dimensionless
    z, v, tau = _zvtau(spec, d)
    return ["z", "v", "tau", "S"], [z, v, tau, *_table(d, z, v, tau, [spec.method])]


def _cmd_simulate(spec: RunSpec):
    d = spec.dimensionless
    zs = spec.z or (0.01,)
    if len(zs) != 1:
        raise ParameterError("--z: simulate needs exactly one starting distance")
    if len(spec.v) > (0 if spec.stationary else 1):
        raise ParameterError("--v: simulate takes one starting variance, none with --stationary")
    cfg = McConfig(dt=spec.dt, n_paths=spec.paths, seed=spec.seed,
                   record_grid=tuple(sorted(spec.tau or (0.5,))))
    v0 = None if spec.stationary else (spec.v[0] if spec.v else d.theta)
    est = estimate_survival(d, zs[0], v0, cfg)
    return ["tau", "S", "ci"], [np.array(est.grid), est.survival, est.ci_halfwidth], _mc_work(est)


def _mc_work(est) -> dict:
    """A Monte Carlo result's work counts, for the JSON ``meta``."""
    return {"path_steps": est.path_steps, "rng_draws": est.rng_draws}


def _cmd_crossing_level(spec: RunSpec):
    d = spec.dimensionless
    betas = spec.beta_grid or (d.beta,)
    tts = spec.theta_tau
    if not tts:
        raise ParameterError("--theta-tau is required for crossing-level")
    beta, tt = _grid(betas, tts)
    res = asy.crossing_level(beta, tt)
    return ["beta", "theta_tau", "l_c", "residual"], [beta, tt, res.l_c, res.residual]


def _cmd_ratio(spec: RunSpec):
    for flag, grid in (("--z", spec.z), ("--tau", spec.tau)):
        if grid and min(grid) <= 0.0:
            raise ParameterError(f"{flag}: ratio needs values > 0, got {min(grid)!r}")
    d = spec.dimensionless
    tau, z = _grid(spec.tau or (3.0,),
                   spec.z or tuple(np.logspace(-3, math.log10(0.6), 48)))
    return ["z", "tau", "ratio"], [z, tau, asy.risk_ratio(z, tau, d, _QUAD_CONFIG)]


_SWEEP = ("exact", "averaged", "erf_joint", "arctan_joint", "pheno", "erf_averaged",
          "arctan_averaged")


def _cmd_sweep(spec: RunSpec):
    d = spec.dimensionless
    z, v, tau = _zvtau(spec, d, z=tuple(np.logspace(-3, -1, 64)))
    return ["z", "v", "tau", *_SWEEP], [z, v, tau, *_table(d, z, v, tau, _SWEEP)]


def _log_z(theta):
    return np.logspace(-3, -1, 64), theta, 0.5


# The figures that are a few ``_COLUMNS`` methods along one axis.  Each row:
# beta, the axis ("z", "v" or "tau", the first column), the (z, v, tau) grid
# as a function of theta, {column: method}, and whether to print 1 - S.
_CURVES = {
    "fig2": (1.0, "tau", lambda th: (0.01, 1000.0 * th, np.logspace(math.log10(0.1), 2, 64)),
             {"exact": "exact", "erf": "erf_joint"}, False),
    "fig3": (1.0, "v", lambda th: (0.01, np.logspace(math.log10(1e3 * th),
                                                     math.log10(1e5 * th), 64), 0.1),
             {"exact": "exact", "erf": "erf_joint"}, False),
    "fig4": (10.0, "z", _log_z, {"exact": "exact", "arctan": "arctan_joint", "erf": "erf_joint"},
             False),
    "fig5": (10.0, "z", _log_z, {"exact": "exact", "pheno": "pheno", "pheno_beta": "pheno_beta"},
             False),
    "fig7": (10.0, "z", _log_z, {"averaged": "averaged", "arctan_averaged": "arctan_averaged"},
             False),
    "fig8": (10.0, "z", lambda th: (np.logspace(-3, 0, 64), th, 3.0),
             {"W_averaged": "averaged", "W_wiener": "wiener"}, True),
}


def _curve(beta, axis, grid, columns, hitting, spec: RunSpec):
    d = Dimensionless(theta=spec.dimensionless.theta, beta=beta)
    z, v, tau = _grid(*(np.atleast_1d(a) for a in grid(d.theta)))
    cols = _table(d, z, v, tau, columns.values())
    if hitting:
        cols = [1.0 - np.asarray(c) for c in cols]
    return [axis, *columns], [{"z": z, "v": v, "tau": tau}[axis], *cols]


def _figure_fig1(spec: RunSpec):
    d = spec.dimensionless
    zs = np.logspace(math.log10(2e-3), math.log10(2e-1), 16)
    mc_cfg = McConfig(dt=spec.dt, n_paths=spec.paths, seed=spec.seed, horizon=0.5)
    est = estimate_survival(d, zs, d.theta, mc_cfg)
    exact = survival(zs, 0.5, d, d.theta, _QUAD_CONFIG)
    return ["z", "S_exact", "err_estimate", "S_mc", "ci"], [
        zs, exact.value, exact.err_estimate, est.survival[0], est.ci_halfwidth[0]], _mc_work(est)


def _figure_fig6(spec: RunSpec):
    theta = spec.dimensionless.theta
    betas = np.logspace(-2, 2, 64)
    ds = [Dimensionless(theta=theta, beta=beta) for beta in betas]
    return ["beta", "W_averaged"], [betas, 1.0 - survival(0.01, 1.0, ds, None, _QUAD_CONFIG).value]


def _figure_fig9(spec: RunSpec):
    betas = np.logspace(0, 2, 32)
    l_c = asy.crossing_level(betas, 3.0 * spec.dimensionless.theta).l_c
    return ["beta", "l_c"], [betas, l_c]


def _figure_fig10(spec: RunSpec):
    d = Dimensionless(theta=spec.dimensionless.theta, beta=10.0)
    tau = 3.0
    theta_tau = d.theta * tau
    zs = np.logspace(-3, math.log10(0.6), 48)
    # the growth law divided by beta, the candidate that the power-law tail implies
    return ["z", "ratio", "asymptote"], [
        zs, asy.risk_ratio(zs, tau, d, _QUAD_CONFIG), asy.ratio_asymptote(zs, theta_tau) / d.beta]


# Each figure and the fields it reads: fig1 alone simulates; fig2 to fig10 set beta
_FIGURES = {
    "fig1": (_figure_fig1, {"paths", "dt", "seed", "theta", "beta"}),
    "fig6": (_figure_fig6, {"theta"}), "fig9": (_figure_fig9, {"theta"}),
    "fig10": (_figure_fig10, {"theta"}),
    **{name: (functools.partial(_curve, *curve), {"theta"}) for name, curve in _CURVES.items()},
}

# Each command's runner and the RunSpec fields it reads besides those that
# every command reads (the command, --output and --format), theta and beta
# standing for the model parameters; crossing-level takes theta*tau directly
_MODEL = {"theta", "beta"}
_COMMANDS = {
    "exact": (_cmd_survival, {"z", "v", "tau", *_MODEL}),
    "averaged": (_cmd_survival, {"z", "tau", *_MODEL}),
    "approx": (_cmd_approx, {"z", "v", "tau", "method", *_MODEL}),
    "simulate": (_cmd_simulate, {"z", "v", "tau", "paths", "dt", "seed", "stationary", *_MODEL}),
    "crossing-level": (_cmd_crossing_level, {"theta_tau", "beta_grid", "beta"}),
    "ratio": (_cmd_ratio, {"z", "tau", *_MODEL}),
    "sweep": (_cmd_sweep, {"z", "v", "tau", *_MODEL}),
    "figure": (lambda spec: _FIGURES[spec.figure][0](spec), {"figure"}),
}
_READ_BY_ALL = {"command", "params", "output_path", "output_format"}


# theta = m2 / alpha and beta = k / alpha: the ModelParams field of each config
# key that a physical model derives them from
_DERIVED = {"theta": {"alpha": "alpha", "m2": "m_sq"}, "beta": {"alpha": "alpha", "k": "k"}}


def _passed(spec: RunSpec, name: str) -> str:
    """The flag that set field ``name``; for a theta or beta derived from a
    physical model, the flags of its sources that differ from their defaults."""
    if isinstance(spec.params, ModelParams) and name in _DERIVED:
        return ", ".join(_flag(key) for key, field in _DERIVED[name].items()
                         if getattr(spec.params, field) != getattr(DEFAULT_PARAMS, field))
    return _flag(_KEYS.get(name, name))


def run(spec: RunSpec) -> str:
    """Execute a RunSpec and return the rendered table (also written to
    ``spec.output_path`` when one is set).  A field, or a model parameter
    theta or beta, that the command does not read must hold its default, or
    the command would drop its value unseen."""
    runner, reads = _COMMANDS[spec.command]
    what = spec.command
    if spec.command == "figure":
        reads, what = reads | _FIGURES[spec.figure][1], f"figure {spec.figure}"
    d, d0 = spec.dimensionless, DEFAULT_PARAMS.dimensionless()
    given = {**{f.name: (getattr(spec, f.name), f.default) for f in fields(spec)},
             "theta": (d.theta, d0.theta), "beta": (d.beta, d0.beta)}
    for name, (value, default) in given.items():
        if name not in reads | _READ_BY_ALL and value != default:
            raise ParameterError(f"{_passed(spec, name)}: {what} does not read this option")
    # a runner returns (names, columns), plus a dict of work counts for meta
    # when Monte Carlo made the table
    names, columns, *work = runner(spec)
    if spec.output_format == "json":
        text = emit_json(spec, names, columns, *work)
    else:
        text = emit_csv(names, columns)
    if spec.output_path:
        with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _add_common(p: argparse.ArgumentParser):
    """Every option's flag, taking its value as text (``--stationary`` none)."""
    for key, parse in _OPTIONS.items():
        if key == "stationary":
            p.add_argument(_flag(key), action="store_const", const="true")
        else:
            p.add_argument(_flag(key), help="scalar or start:stop:count (log)"
                           if parse in (_parse_grid, _parse_beta) else None)
    p.add_argument("--config")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hestonfp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "figure":
            p.add_argument("figure", choices=sorted(_FIGURES, key=lambda s: int(s[3:])))
        _add_common(p)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _parse_config_file(args.config) if args.config else {}
        flags = {key: text for key in _OPTIONS if (text := getattr(args, key)) is not None}
        spec = _build_spec(args.command, config, flags, getattr(args, "figure", None))
        text = run(spec)
        if not spec.output_path:
            sys.stdout.write(text)
        return 0
    except (NonConvergence, NoRoot, DivisionDomain) as exc:
        print(f"hestonfp: numerical failure: {exc}", file=sys.stderr)
        return 3
    except HestonFPError as exc:
        print(f"hestonfp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
