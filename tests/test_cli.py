"""End-to-end CLI coverage: config intake, output formats, exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hestonfp.cli as cli
from hestonfp import (Dimensionless, ModelParams, NonConvergence, ParameterError, QuadConfig,
                      State, survival, survival_arctan, survival_averaged,
                      survival_avg_arctan, survival_avg_erf, survival_erf, survival_exact,
                      survival_pheno, survival_wiener,
                      tail_gaussian_hitting, tail_powerlaw_hitting, variance_scale)

DEFAULT_D = cli.DEFAULT_PARAMS.dimensionless()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _read_rows(path):
    lines = open(path, encoding="utf-8", newline="").read().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    return header, rows


class TestLoadConfig:
    def test_physical_parameters(self, tmp_path):
        path = _write(tmp_path, "fig1.cfg",
                      "alpha=0.045\nm2=8.62e-5\nk=0.0045\n")
        spec = cli.load_config(path)
        d = spec.dimensionless
        assert math.isclose(d.theta, 1.9156e-3, rel_tol=1e-4)
        assert math.isclose(d.beta, 0.1, rel_tol=1e-12)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = _write(tmp_path, "empty.cfg", "")
        spec = cli.load_config(path)
        assert spec.params == cli.DEFAULT_PARAMS
        assert spec.seed == 0 and spec.paths == 10**6 and spec.dt == 1e-3

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "# comment\n\nseed=7\n")
        assert cli.load_config(path).seed == 7

    def test_mixed_parameter_groups_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.cfg", "theta=1.92e-3\nalpha=0.045\n")
        with pytest.raises(cli.ParameterError, match="not both"):
            cli.load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = _write(tmp_path, "bad.cfg", "volvol=3\n")
        with pytest.raises(cli.ConfigError, match="volvol"):
            cli.load_config(path)

    def test_duplicate_key_named(self, tmp_path):
        path = _write(tmp_path, "bad.cfg", "seed=1\nseed=2\n")
        with pytest.raises(cli.ConfigError, match="duplicate key 'seed'"):
            cli.load_config(path)

    def test_missing_file_named(self):
        with pytest.raises(cli.ConfigError, match="no/such/file"):
            cli.load_config("no/such/file.cfg")


class TestOutputFormats:
    def test_csv_round_trip_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "exact.csv")
        rc = cli.main(["exact", "--z", "1e-3:1e-1:7", "--output", out])
        assert rc == 0
        original = open(out, encoding="utf-8", newline="").read()
        header, rows = _read_rows(out)

        def cell(text):
            try:
                return int(text)
            except ValueError:
                return float(text)

        re_emitted = cli.emit_csv(
            header, [[cell(row[c]) for c in header] for row in rows])
        assert re_emitted == original
        assert original.endswith("\n") and "\r" not in original

    def test_json_envelope(self, tmp_path):
        out = str(tmp_path / "exact.json")
        rc = cli.main(["exact", "--z", "0.01", "--seed", "5",
                       "--format", "json", "--output", out])
        assert rc == 0
        payload = json.loads(open(out, encoding="utf-8").read())
        assert set(payload) == {"meta", "rows"}
        meta = payload["meta"]
        assert meta["seed"] == 5
        assert meta["version"] == cli.__version__
        assert math.isclose(meta["theta"], 1.9156e-3, rel_tol=1e-4)
        assert math.isclose(meta["beta"], 0.1, rel_tol=1e-12)
        row = payload["rows"][0]
        assert set(row) == {"z", "v", "tau", "S", "err_estimate", "panels"}

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--z", "0.01", "--tau", "0.2", "--paths", "2000",
                "--dt", "5e-3", "--seed", "42"]
        assert cli.main(args + ["--output", a]) == 0
        assert cli.main(args + ["--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestCommands:
    def test_boundary_start_has_zero_survival(self, tmp_path):
        out = str(tmp_path / "a.csv")
        rc = cli.main(["approx", "--method", "erf", "--z", "0", "--output", out])
        assert rc == 0
        _, rows = _read_rows(out)
        assert float(rows[0]["S"]) == 0.0

    def test_method_aliases_agree(self, tmp_path):
        outs = []
        for method in ("erf", "erf_joint"):
            out = str(tmp_path / f"{method}.csv")
            assert cli.main(["approx", "--method", method, "--z", "0.02",
                             "--output", out]) == 0
            outs.append(_read_rows(out)[1][0]["S"])
        assert outs[0] == outs[1]
        # every method over a small grid equals its library form, cell by cell
        th, b = DEFAULT_D.theta, DEFAULT_D.beta
        library = {
            "erf": lambda z, v, tau: survival_erf(z, v, tau, th),
            "arctan": lambda z, v, tau: survival_arctan(z, v, tau, th, b),
            "pheno": lambda z, v, tau: survival_pheno(z, v, tau, th, b),
            "pheno_beta": lambda z, v, tau: survival_pheno(z, v, tau, th, b,
                                                           use_beta_factor=True),
            "erf_avg": lambda z, v, tau: survival_avg_erf(z, tau, th),
            "arctan_avg": lambda z, v, tau: survival_avg_arctan(z, tau, th, b),
            "wiener": lambda z, v, tau: survival_wiener(z, th, tau),
            "tail_gaussian": lambda z, v, tau:
                1.0 - tail_gaussian_hitting(z, variance_scale(tau, v, th)),
            "tail_powerlaw": lambda z, v, tau: 1.0 - tail_powerlaw_hitting(z, tau, th, b),
        }
        assert set(cli._METHOD_ALIASES[m] for m in library) == set(cli._METHOD_ALIASES.values())
        for method, form in library.items():
            out = str(tmp_path / f"grid-{method}.csv")
            assert cli.main(["approx", "--method", method, "--z", "1e-3:0.2:4",
                             "--v", "1e-4:1e-2:3", "--tau", "0.1:30:2", "--output", out]) == 0
            rows = _read_rows(out)[1]
            assert len(rows) == 24
            for row in rows:
                z, v, tau = (float(row[c]) for c in ("z", "v", "tau"))
                assert float(row["S"]) == form(z, v, tau), (method, row)

    @pytest.mark.xfail(strict=True, reason="documented l_c ~ 0.336 within "
                       "10%: the asymptotic-balance root is 0.2406 (see the "
                       "matching analysis test); row emitted is correct")
    def test_crossing_level_documented_value(self, tmp_path):
        out = str(tmp_path / "lc.csv")
        rc = cli.main(["crossing-level", "--beta", "10",
                       "--theta-tau", "5.76e-3", "--output", out])
        assert rc == 0
        _, rows = _read_rows(out)
        assert abs(float(rows[0]["l_c"]) - 0.336) / 0.336 <= 0.10

    def test_crossing_level_row_contents(self, tmp_path):
        out = str(tmp_path / "lc.csv")
        rc = cli.main(["crossing-level", "--beta", "10",
                       "--theta-tau", "5.76e-3", "--output", out])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["beta", "theta_tau", "l_c", "residual"]
        assert math.isclose(float(rows[0]["l_c"]), 0.24059, rel_tol=1e-3)
        assert float(rows[0]["residual"]) <= 1e-10

    def test_beta_scan_expands_rows(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        rc = cli.main(["crossing-level", "--beta", "1:100:5",
                       "--theta-tau", "5.76e-3", "--output", out])
        assert rc == 0
        _, rows = _read_rows(out)
        assert len(rows) == 5
        lcs = [float(r["l_c"]) for r in rows]
        assert lcs == sorted(lcs)

    def test_grid_flag_expansion(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert cli.main(["exact", "--z", "1e-3:1e-1:5", "--output", out]) == 0
        _, rows = _read_rows(out)
        assert len(rows) == 5
        assert math.isclose(float(rows[0]["z"]), 1e-3, rel_tol=1e-12)
        assert math.isclose(float(rows[-1]["z"]), 1e-1, rel_tol=1e-12)

    def test_sweep_columns(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert cli.main(["sweep", "--z", "0.01", "--output", out]) == 0
        header, rows = _read_rows(out)
        assert header == ["z", "v", "tau", "exact", "averaged", "erf_joint",
                          "arctan_joint", "pheno", "erf_averaged",
                          "arctan_averaged"]
        assert len(rows) == 1

    @pytest.mark.parametrize("zs", [(1e-3, 0.01, 0.02), (1e-3, 0.015, 0.01)])
    def test_sweep_fails_as_a_row_loop_would(self, zs, monkeypatch):
        # no point meets this tolerance, so a row loop meets the exact
        # failure of row 0 first
        cfg = QuadConfig(abs_tol=1e-300, rel_tol=1e-300)
        monkeypatch.setattr(cli, "_QUAD_CONFIG", cfg)
        d = DEFAULT_D
        with pytest.raises(NonConvergence) as batch:
            cli.run(cli.RunSpec(command="sweep", params=d, z=zs))
        with pytest.raises(NonConvergence) as loop:
            for z in zs:
                survival_exact(State(z, d.theta, 0.5), d, cfg)
                survival_averaged(z, 0.5, d, cfg)
        got, want = batch.value, loop.value
        assert got.point == 0
        assert (str(got), got.partial, got.err_estimate, got.panels_used) == \
            (str(want), want.partial, want.err_estimate, want.panels_used)

    def test_figure_fig1_pairs_exact_and_mc(self, tmp_path):
        out = str(tmp_path / "fig1.csv")
        rc = cli.main(["figure", "fig1", "--paths", "2000", "--seed", "1",
                       "--output", out])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["z", "S_exact", "err_estimate", "S_mc", "ci"]
        assert len(rows) == 16
        for row in rows:
            assert abs(float(row["S_mc"]) - float(row["S_exact"])) <= \
                max(3.0 / 1.96 * float(row["ci"]), 0.01)

    @pytest.mark.parametrize("stationary", [False, True])
    def test_simulate_json_reports_work(self, tmp_path, stationary):
        base = ["simulate", "--z", "0.01", "--tau", "0.05:0.1:2", "--paths", "500",
                "--dt", "5e-3"] + (["--stationary"] if stationary else [])
        out = str(tmp_path / "sim.json")
        assert cli.main(base + ["--format", "json", "--output", out]) == 0
        meta = json.loads(open(out, encoding="utf-8").read())["meta"]
        assert meta["path_steps"] == 500 * 20
        assert meta["rng_draws"] == 500 * 20 + (500 if stationary else 0)
        csv = str(tmp_path / "sim.csv")
        assert cli.main(base + ["--output", csv]) == 0
        assert open(csv, encoding="utf-8").read().splitlines()[0] == "tau,S,ci"

    @pytest.mark.parametrize("extra", [["--v", "1e-3:1e-2:3"], ["--v", "1e-3", "--stationary"]])
    def test_simulate_rejects_an_unused_v(self, extra, capsys):
        # printed one curve, at the first v or from stationary starts, with exit 0
        assert cli.main(["simulate", "--paths", "64", "--tau", "0.01", *extra]) == 2
        assert capsys.readouterr().err.startswith("hestonfp: error: --v:")

    def test_simulate_stationary_smoke(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        rc = cli.main(["simulate", "--z", "0.01", "--tau", "0.2", "--paths",
                       "500", "--dt", "5e-3", "--stationary", "--output", out])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["tau", "S", "ci"] and len(rows) == 1

    def test_flags_override_config(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", "theta=1.92e-3\nbeta=0.1\n")
        out = str(tmp_path / "o.json")
        rc = cli.main(["crossing-level", "--config", cfg, "--beta", "1.0",
                       "--theta-tau", "0.03", "--format", "json",
                       "--output", out])
        assert rc == 0
        meta = json.loads(open(out, encoding="utf-8").read())["meta"]
        assert meta["beta"] == 1.0
        assert meta["theta"] == 1.92e-3


def _figure_columns(name):
    """Figure ``name``'s columns by name, each from a direct library call."""
    th = DEFAULT_D.theta
    d1, d10 = Dimensionless(th, 1.0), Dimensionless(th, 10.0)
    zs = np.logspace(-3, -1, 64)
    if name == "fig2":
        taus = np.logspace(math.log10(0.1), 2, 64)
        return {"tau": taus, "exact": survival(0.01, taus, d1, 1e3 * th).value,
                "erf": survival_erf(0.01, 1e3 * th, taus, th)}
    if name == "fig3":
        vs = np.logspace(math.log10(1e3 * th), math.log10(1e5 * th), 64)
        return {"v": vs, "exact": survival(0.01, 0.1, d1, vs).value,
                "erf": survival_erf(0.01, vs, 0.1, th)}
    if name == "fig4":
        return {"z": zs, "exact": survival(zs, 0.5, d10, th).value,
                "arctan": survival_arctan(zs, th, 0.5, th, 10.0),
                "erf": survival_erf(zs, th, 0.5, th)}
    if name == "fig5":
        return {"z": zs, "exact": survival(zs, 0.5, d10, th).value,
                "pheno": survival_pheno(zs, th, 0.5, th, 10.0),
                "pheno_beta": survival_pheno(zs, th, 0.5, th, 10.0, use_beta_factor=True)}
    if name == "fig7":
        return {"z": zs, "averaged": survival(zs, 0.5, d10).value,
                "arctan_averaged": survival_avg_arctan(zs, 0.5, th, 10.0)}
    zs = np.logspace(-3, 0, 64)
    return {"z": zs,
            "W_averaged": 1.0 - survival(zs, 3.0, d10).value,
            "W_wiener": 1.0 - survival_wiener(zs, th, 3.0)}


class TestFigures:
    """The curve figures hold exactly what the library computes, cell by cell."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig7", "fig8"])
    def test_columns_match_the_library(self, name, tmp_path):
        out = str(tmp_path / f"{name}.csv")
        assert cli.main(["figure", name, "--output", out]) == 0
        header, rows = _read_rows(out)
        want = _figure_columns(name)
        assert header == list(want)
        assert len(rows) == 64
        for column, values in want.items():
            assert [float(row[column]) for row in rows] == list(values), column


class TestExitCodes:
    def test_conflicting_parameter_groups(self, capsys):
        rc = cli.main(["exact", "--theta", "1.92e-3", "--alpha", "0.045"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        rc = cli.main(["approx", "--method", "parabola"])
        assert rc == 2
        assert "--method" in capsys.readouterr().err

    def test_malformed_grid(self, capsys):
        rc = cli.main(["exact", "--z", "1:2"])
        assert rc == 2
        assert "--z" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,named", [("--paths", "0", "n_paths"),
                                                  ("--dt", "0", "dt"),
                                                  ("--dt", "inf", "dt")])
    def test_zero_simulation_setting_is_rejected(self, flag, value, named, capsys):
        # the other settings are tiny, so a silent fallback to the default
        # of the rejected flag still finishes quickly
        args = {"--paths": "64", "--dt": "0.01", flag: value}
        rc = cli.main(["simulate", "--z", "0.01", "--tau", "0.02",
                       *(x for kv in args.items() for x in kv)])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["simulate", "--tau", "0.5"], ["figure", "fig1"]])
    def test_record_time_under_half_a_step_is_rejected(self, argv, capsys):
        # simulate printed S = 1 with a CI of 0 at tau = 0.5 (no step taken),
        # and fig1 simulated to tau = 1 under a tau = 0.5 label; both exit 0
        assert cli.main([*argv, "--dt", "1", "--paths", "64"]) == 2
        assert "dt" in capsys.readouterr().err

    def test_record_time_off_the_step_grid_is_rejected(self, capsys):
        # printed the S and CI of tau = 0.3 under the label tau = 0.4, exit 0
        argv = ["simulate", "--dt", "0.3", "--tau", "0.4", "--paths", "2000", "--seed", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "dt = 0.3" in err and "nearest step time is 0.3" in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_the_key_range_is_rejected(self, seed, capsys):
        # raised OverflowError from the Philox key, exit 1
        rc = cli.main(["simulate", "--paths", "64", "--tau", "0.01", f"--seed={seed}"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["tail_gaussian", "tail_powerlaw"])
    def test_tail_at_the_barrier_is_rejected(self, method, capsys):
        # printed S = -inf with exit 0 before the tails checked their input
        assert cli.main(["approx", "--method", method, "--z", "0"]) == 2
        assert "L_abs" in capsys.readouterr().err

    def test_parser_reused_after_usage_error(self, capsys):
        # the parser is built once per process; a rejected flag must leave
        # it as a fresh one would be
        good = [["exact", "--z", "0.01"], ["approx", "--method", "erf", "--z", "0.02"],
                ["averaged", "--z", "0.02", "--format", "json"]]
        fresh = []
        for argv in good:
            cli._parser.cache_clear()
            assert cli.main(argv) == 0
            fresh.append(capsys.readouterr().out)
        for argv, want in zip(good * 2, fresh * 2):
            assert cli.main(["exact", "--no-such-flag", "1"]) == 2
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == want
        assert cli._parser() is cli._parser()

    def test_usage_error_from_argparse(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_no_root_is_exit_3_with_no_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = cli.main(["crossing-level", "--beta", "0.01",
                       "--theta-tau", "10", "--output", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_no_root_message_prints_plain_floats(self, capsys):
        # printed beta=np.float64(0.29999999999999993)
        assert cli.main(["crossing-level", "--beta", "0.3:300:4", "--theta-tau", "1"]) == 3
        err = capsys.readouterr().err
        assert "beta=0.29999999999999993, theta_tau=1.0" in err and "np.float64" not in err

    @pytest.mark.parametrize("argv,config", [
        (["exact", "--output", ""], None), (["exact"], "output =\n"),
        (["exact", "--output", "  "], None), (["simulate", "--paths", "64"], "stationary =\n")])
    def test_empty_output_or_stationary_is_rejected(self, argv, config, tmp_path, capsys):
        # an empty output meant stdout, an empty stationary meant false
        if config:
            argv = [*argv, "--config", _write(tmp_path, "empty.cfg", config)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        key = "output" if "output" in (config or " ".join(argv)) else "stationary"
        assert not out and err.startswith("hestonfp: error: ") and key in err

    @pytest.mark.parametrize("beta,theta_tau,named", [
        ("10", "nan", "--theta-tau"), ("10", "inf", "--theta-tau"),
        ("10", "1e-3:inf:3", "--theta-tau"), ("10", "nan:1:3", "--theta-tau"),
        ("1:nan:3", "0.01", "--beta"), ("1:inf:3", "0.01", "--beta"),
        ("10", "0", "--theta-tau"), ("10", "-0.0", "--theta-tau")])
    def test_non_finite_crossing_level_grid(self, beta, theta_tau, named, capsys):
        # exited 3: non-finite entries with "gap function indistinguishable
        # from zero", zero ones with "crossing_level requires ... theta_tau > 0"
        assert cli.main(["crossing-level", f"--beta={beta}", f"--theta-tau={theta_tau}"]) == 2
        assert capsys.readouterr().err.startswith(f"hestonfp: error: {named}:")

    @pytest.mark.parametrize("field,flag", [("theta_tau", "--theta-tau"),
                                            ("beta_grid", "--beta")])
    def test_zero_scan_entry_is_rejected(self, field, flag):
        with pytest.raises(ParameterError, match=f"^{flag}: must be > 0"):
            cli.RunSpec(command="crossing-level", params=DEFAULT_D,
                        **{field: (0.01, 0.0)})

    def test_missing_required_theta_tau(self, capsys):
        rc = cli.main(["crossing-level", "--beta", "10"])
        assert rc == 2
        assert "--theta-tau" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--z", "0"), ("--tau", "0"), ("--z", "-0.0")])
    def test_ratio_outside_its_domain(self, flag, value, capsys, monkeypatch):
        # exited 3 with "numerical failure: risk_ratio requires z > 0 and tau > 0"
        monkeypatch.setattr(cli.asy, "risk_ratio", None)  # rejected before any quadrature
        assert cli.main(["ratio", f"{flag}={value}"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith(f"hestonfp: error: {flag}:")

    @pytest.mark.parametrize("extra", [[], ["--stationary"]])
    def test_simulate_at_an_overflowing_beta(self, extra, capsys):
        # nu = 2*theta/beta**2 underflows: ended in an OverflowError traceback, exit 1
        rc = cli.main(["simulate", "--beta", "1e200", "--paths", "64", "--tau", "0.01", *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("hestonfp: error: nu") and "Traceback" not in err


# two valid texts for every option, the first not its default
_TEXTS = {"alpha": ("0.05", "0.06"), "m2": ("1e-4", "2e-4"), "k": ("0.01", "0.02"),
          "theta": ("2e-3", "3e-3"), "beta": ("1:100:5", "10"), "z": ("1e-3:0.1:4", "0.02"),
          "v": ("1e-3", "1e-4:1e-2:3"), "tau": ("0.5", "0.1:3:2"), "method": ("Erf-Avg", "pheno"),
          "paths": ("64", "128"), "dt": ("5e-3", "0.01"), "seed": ("7", "8"),
          "output": ("a.csv", "b.csv"), "format": ("json", "csv"),
          "theta_tau": ("0.01", "1e-3:1e-2:3"), "stationary": ("true", "yes")}


class TestIntakeParity:
    """A flag and the config key of the same name take one parse path."""

    @staticmethod
    def _spec(monkeypatch, tmp_path, flags, config):
        specs = []
        monkeypatch.setattr(cli, "run", lambda spec: specs.append(spec) or "")
        argv = ["exact"]
        for key, text in flags.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag] if key == "stationary" else [f"{flag}={text}"]
        if config:
            argv += ["--config", _write(tmp_path, "c.cfg",
                                        "".join(f"{k} = {v}\n" for k, v in config.items()))]
        assert cli.main(argv) == 0
        return specs[0]

    def test_every_key_is_a_flag(self):
        assert set(_TEXTS) == set(cli._OPTIONS)

    @pytest.mark.parametrize("key", sorted(_TEXTS))
    @pytest.mark.parametrize("which", [0, 1])
    def test_flag_and_config_give_one_spec(self, key, which, monkeypatch, tmp_path):
        text = _TEXTS[key][which]
        from_flag = self._spec(monkeypatch, tmp_path, {key: text}, {})
        assert from_flag == self._spec(monkeypatch, tmp_path, {}, {key: text})
        if which == 0:
            assert from_flag != self._spec(monkeypatch, tmp_path, {}, {})

    @pytest.mark.parametrize("key", sorted(_TEXTS))
    def test_flag_overrides_config(self, key, monkeypatch, tmp_path):
        flag_text, config_text = _TEXTS[key]
        if key == "stationary":
            config_text = "off"  # --stationary can only say true
        want = self._spec(monkeypatch, tmp_path, {key: flag_text}, {})
        assert self._spec(monkeypatch, tmp_path, {key: flag_text}, {key: config_text}) == want
        assert want != self._spec(monkeypatch, tmp_path, {}, {key: config_text})

    def test_beta_scan_from_config_or_flag(self, tmp_path, capsys):
        args = ["crossing-level", "--theta-tau", "5.76e-3"]
        assert cli.main([*args, "--beta", "1:100:5"]) == 0
        from_flag = capsys.readouterr().out
        cfg = _write(tmp_path, "scan.cfg", "beta = 1:100:5\n")
        assert cli.main([*args, "--config", cfg]) == 0
        assert capsys.readouterr().out == from_flag
        assert len(from_flag.splitlines()) == 6

    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_help_lists_every_flag(self, command, capsys):
        argv = [command, "fig1", "--help"] if command == "figure" else [command, "--help"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        for key in [*cli._OPTIONS, "config"]:
            assert "--" + key.replace("_", "-") in out, key


def _nonpositive_or_nan():
    return st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])


_INVALID_SIMULATE = {
    "--seed": st.integers(max_value=-1) | st.integers(min_value=2**64)
    | st.sampled_from(["nan", "inf", "-inf", "1.5"]),
    "--paths": st.integers(max_value=0) | st.sampled_from(["nan", "inf", "-inf", "2.5"]),
    "--dt": _nonpositive_or_nan(),
    "--z": _nonpositive_or_nan(),
    "--tau": _nonpositive_or_nan(),
}


class TestSimulateFuzz:
    """Every invalid ``simulate`` setting is a clean usage error: exit code 2,
    a message and no traceback, before any simulation runs."""

    @given(data=st.data(), flag=st.sampled_from(sorted(_INVALID_SIMULATE)))
    @settings(deadline=5000)
    def test_invalid_setting_exits_2(self, data, flag):
        value = data.draw(_INVALID_SIMULATE[flag], label=flag)
        args = {"--seed": "1", "--paths": "64", "--dt": "0.01", "--z": "0.01",
                "--tau": "0.02", flag: str(value)}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["simulate", *(f"{k}={v}" for k, v in args.items())])
        assert rc == 2
        assert err.getvalue() and "Traceback" not in err.getvalue()


def _not_a_number():
    return st.text(st.characters(whitelist_categories=("L",)), min_size=1)


def _fractional():
    return st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())


_INVALID_CONFIG = {
    "seed": _not_a_number() | _fractional() | st.integers(max_value=-1)
    | st.integers(min_value=2**64),
    "paths": _not_a_number() | _fractional() | st.integers(max_value=0),
    **{key: _not_a_number() | _nonpositive_or_nan()
       for key in ("dt", "theta", "beta", "alpha", "m2", "k")},
}


class TestConfigFuzz:
    """Every invalid numeric value in a ``--config`` file is a clean usage
    error: exit code 2, a message and no traceback."""

    @given(data=st.data(), key=st.sampled_from(sorted(_INVALID_CONFIG)))
    @settings(deadline=5000)
    def test_invalid_value_exits_2(self, data, key):
        value = data.draw(_INVALID_CONFIG[key], label=key)
        flags = {"--seed": "1", "--paths": "64", "--dt": "0.01"}
        flags.pop(f"--{key}", None)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{key} = {value}\n")
            with contextlib.redirect_stderr(err):
                rc = cli.main(["simulate", "--config", path, "--z", "0.01", "--tau", "0.02",
                               *(f"{k}={v}" for k, v in flags.items())])
        assert rc == 2
        assert err.getvalue().startswith("hestonfp: error:")
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("line,named", [("seed = abc", "seed"), ("paths = 2.5", "paths"),
                                            ("theta = abc", "theta")])
    def test_unparsable_value_names_its_key(self, tmp_path, line, named, capsys):
        cfg = _write(tmp_path, "bad.cfg", line + "\n")
        assert cli.main(["simulate", "--config", cfg, "--tau", "0.01"]) == 2
        assert capsys.readouterr().err.startswith(f"hestonfp: error: {named}:")


_INVALID_CROSSING = {"--beta": _not_a_number() | _nonpositive_or_nan(),
                     "--theta-tau": _not_a_number() | _nonpositive_or_nan()}


class TestCrossingLevelFuzz:
    """Every invalid ``crossing-level`` flag is a clean usage error: exit
    code 2, a message and no traceback."""

    @given(data=st.data(), flag=st.sampled_from(sorted(_INVALID_CROSSING)))
    @settings(deadline=5000)
    def test_invalid_value_exits_2(self, data, flag):
        value = data.draw(_INVALID_CROSSING[flag], label=flag)
        args = {"--beta": "10", "--theta-tau": "0.01", flag: str(value)}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["crossing-level", *(f"{k}={v}" for k, v in args.items())])
        assert rc == 2
        assert not out.getvalue()
        assert err.getvalue().startswith("hestonfp: error:")
        assert "Traceback" not in err.getvalue()


def _negative_or_non_finite():
    return st.floats(max_value=-5e-324) | st.sampled_from([math.nan, math.inf, -math.inf])


class TestQuadratureFuzz:
    """Every invalid numeric flag of the quadrature commands is a clean usage
    error: exit code 2, a message and no traceback, and no output."""

    @given(command=st.sampled_from(["exact", "averaged", "approx", "ratio", "sweep"]),
           flag=st.sampled_from(["--alpha", "--m2", "--k", "--theta", "--beta", "--z", "--v",
                                 "--tau"]),
           value=_not_a_number() | _negative_or_non_finite())
    @settings(deadline=5000)
    def test_invalid_value_exits_2(self, command, flag, value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--z=0.01", f"{flag}={value}"])
        assert rc == 2
        assert not out.getvalue()
        assert err.getvalue() and "Traceback" not in err.getvalue()


_STARTUP = """
import contextlib, io, json, sys
import hestonfp, hestonfp.cli as cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    figure = cli.main(["figure", "fig2"])
with contextlib.redirect_stdout(out):
    crossing = cli.main(["crossing-level", "--beta", "10", "--theta-tau", "0.01"])
    fig9 = cli.main(["figure", "fig9"])
print(json.dumps({"codes": [figure, crossing, fig9],
                  "loaded": sorted(m for m in ("scipy.stats", "scipy.optimize")
                                   if m in sys.modules),
                  "crossing_line": out.getvalue().splitlines()[-34]}))
"""


def test_startup_loads_neither_scipy_stats_nor_optimize():
    # importing scipy.stats and scipy.optimize took about 1.1 s of every
    # command's start-up; a fresh interpreter sees what the import path loads,
    # and the root finder of crossing-level and fig9 needs neither
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _STARTUP], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0] and got["loaded"] == []
    beta, theta_tau, l_c, residual = map(float, got["crossing_line"].split(","))
    assert (beta, theta_tau, residual) == (10.0, 0.01, 0.0)
    assert abs(l_c - 0.30804886710639989) <= 1e-15  # brentq's root


def test_crossing_grid_solves_in_a_bounded_number_of_gap_calls(monkeypatch, capsys):
    # one scan, one bisection round per halving of the widest bracket (the
    # scan's spacing bounds it, whatever the grid) and one final evaluation;
    # a loop over the 512 points made 4911 calls
    calls, gap = [], cli.asy._crossing_gap
    monkeypatch.setattr(cli.asy, "_crossing_gap", lambda *a: calls.append(1) or gap(*a))
    for beta, theta_tau in (("10", "0.01"), ("1:100:32", "1e-4:1e-1:16")):
        calls.clear()
        assert cli.main(["crossing-level", "--beta", beta, "--theta-tau", theta_tau]) == 0
        assert len(calls) <= 55
    assert len(capsys.readouterr().out.splitlines()) == 2 + 513
