"""Simulation oracle: QE variance paths, the conditional erf estimator, and
stream splitting.

The heavy cross-oracle brackets run at the documented path counts, so this
file takes about half of the suite's runtime (about 17 s on a 2-core
machine); every seed here was verified once against the quadrature before
being frozen.
"""
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import erf, ndtr, ndtri

import hestonfp as h
from hestonfp import montecarlo

TH = 8.62e-5 / 0.045  # dimensionless long-run variance of the Fig.-1 set


@pytest.fixture(scope="module")
def dfig():
    return h.Dimensionless(theta=TH, beta=0.1)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"dt": 0.0},
        {"dt": -1e-3},
        {"dt": math.inf},
        {"n_paths": 0},
        {"record_grid": (0.5, 0.2)},
        {"record_grid": (0.2, 0.5), "horizon": 0.3},
        {"horizon": math.nan},
        {"horizon": math.inf},
        {"record_grid": (0.1, math.nan)},
        {"record_grid": (0.1, math.inf)},
        {"record_grid": (math.nan,), "horizon": 1.0},
        {"record_grid": (-0.1, 0.5)},
        {"seed": -1, "horizon": 0.5},
        {"seed": 2**64, "horizon": 0.5},
        {"seed": 1.5, "horizon": 0.5},
        {"seed": True, "horizon": 0.5},
        {"n_paths": 2.5, "horizon": 0.5},
        {"n_paths": True, "horizon": 0.5},
        {"dt": 1.0, "horizon": 0.5},  # the horizon rounds to 0 steps
        {"dt": 0.3, "record_grid": (0.1, 1.0)},  # so does a record time > 0
        {"dt": 1e-300, "horizon": 1e300},  # the step count overflows a float
        {"dt": 0.3, "horizon": 0.45},  # ran 2 steps, to tau = 0.6
        {"dt": 0.3, "record_grid": (0.3, 0.4)},  # read tau = 0.4 at the step of 0.3
        {"record_grid": (0.1,), "horizon": 1.0},  # reported 1000 steps, simulated 100
        {"horizon": "abc"},  # these four raised ValueError or TypeError
        {"record_grid": ("x",)},
        {"record_grid": 0.5},
        {"dt": "abc", "horizon": 0.5},
        {"dt": "0.001", "horizon": "0.5"},  # these three built a config
        {"record_grid": ("0.1", "0.2")},
        {"dt": True, "horizon": 2},
        {"dt": 10**400, "horizon": 0.5},  # raised OverflowError
    ])
    def test_rejected(self, kw):
        with pytest.raises(h.ConfigError):
            h.McConfig(**kw)

    @pytest.mark.parametrize("error,call", [
        pytest.param(h.ParameterError, lambda d, cfg: h.estimate_survival(d, 0.01, math.nan, cfg),
                     id="v0-nan"),
        pytest.param(h.ParameterError, lambda d, cfg: h.estimate_survival(d, 0.01, math.inf, cfg),
                     id="v0-inf"),
        pytest.param(h.ParameterError, lambda d, cfg: h.estimate_survival(d, math.nan, TH, cfg),
                     id="z0-nan"),
        pytest.param(h.ParameterError, lambda d, cfg: h.estimate_survival(d, math.inf, TH, cfg),
                     id="z0-inf"),
        pytest.param(h.ParameterError, lambda d, cfg: h.estimate_survival(d, math.inf, None, cfg),
                     id="averaged-z0-inf"),
        pytest.param(h.ParameterError,
                     lambda d, cfg: h.estimate_survival(d, (0.01, 0.02), math.nan, cfg),
                     id="profile-v0-nan"),
        pytest.param(h.ParameterError,
                     lambda d, cfg: h.estimate_survival(d, (0.01, math.nan, 0.02), None, cfg),
                     id="profile-z-nan"),
        pytest.param(h.ParameterError,
                     lambda d, cfg: h.estimate_survival(d, (0.01, math.inf), None, cfg),
                     id="profile-z-inf"),
        pytest.param(h.ConfigError, lambda d, cfg: h.estimate_survival(d, (), TH, cfg),
                     id="z0-empty"),
        pytest.param(h.ConfigError, lambda d, cfg: h.estimate_survival(d, [[0.01, 0.02]], TH, cfg),
                     id="z0-2d"),
        pytest.param(h.ConfigError,
                     lambda d, cfg: h.estimate_survival(d, 0.01, TH, cfg, workers=0),
                     id="workers-0"),
        pytest.param(h.ConfigError,
                     lambda d, cfg: h.estimate_survival(d, 0.01, None, cfg, workers=0),
                     id="averaged-workers-0"),
        pytest.param(h.ConfigError,
                     lambda d, cfg: h.estimate_survival(d, (0.01,), None, cfg, workers=0),
                     id="profile-workers-0"),
        *(pytest.param(h.ConfigError,
                       lambda d, cfg, w=w: h.estimate_survival(d, 0.01, TH, cfg, workers=w),
                       id=f"workers-{w!r}") for w in (True, 1.5, "2")),
        # the float32 step cannot hold u0 = 1e40 or s1 = exp(-dt) c / nu = 5e44
        pytest.param(h.ParameterError,
                     lambda d, cfg: h.estimate_survival(d, 0.01, 1e40 * TH, cfg),
                     id="v0-past-float32"),
        pytest.param(h.ParameterError,
                     lambda d, cfg: h.estimate_survival(h.Dimensionless(1e-50, 0.1), 0.01,
                                                        1e-50, cfg),
                     id="model-past-float32"),
        pytest.param(h.ParameterError,
                     lambda d, cfg: h.estimate_survival(h.Dimensionless(1e-50, 0.1), 0.01,
                                                        None, cfg),
                     id="averaged-model-past-float32"),
    ])
    def test_rejected_inputs(self, dfig, error, call):
        # each of these used to return a survival value (1.0 or 0.0, or NaN
        # past float32), run with one worker, or (workers="2") end in a TypeError
        with pytest.raises(error):
            call(dfig, h.McConfig(n_paths=8, horizon=0.01))

    @pytest.mark.parametrize("beta", [1e200, 1e-200])
    def test_unrepresentable_model_rejected(self, beta):
        # nu or beta**2 under- or overflows a float: these calls ended in
        # OverflowError or ZeroDivisionError
        d = h.Dimensionless(theta=TH, beta=beta)
        assert d.nu in (0.0, math.inf)
        cfg = h.McConfig(n_paths=8, horizon=0.01)
        for call in (lambda: h.estimate_survival(d, 0.01, TH, cfg),
                     lambda: h.estimate_survival(d, 0.01, None, cfg),
                     lambda: h.estimate_survival(d, (0.01,), None, cfg)):
            with pytest.raises(h.ParameterError):
                call()

    def test_horizon_defaults_to_last_record(self):
        cfg = h.McConfig(record_grid=(0.1, 0.4))
        assert cfg.horizon == 0.4

    def test_record_defaults_to_horizon(self):
        cfg = h.McConfig(horizon=0.25)
        assert cfg.record_grid == (0.25,)

    @pytest.mark.parametrize("kw", [{"horizon": 0.25}, {"record_grid": (0.1, 0.4)},
                                    {"record_grid": (0.1, 0.4), "horizon": 0.4}])
    def test_one_end_time(self, kw):
        cfg = h.McConfig(**kw)
        assert cfg.horizon == cfg.record_grid[-1]
        assert cfg.n_steps == cfg.record_steps()[-1]
        assert replace(cfg, seed=7) == h.McConfig(**kw, seed=7)

    def test_step_count(self):
        cfg = h.McConfig(dt=1e-3, horizon=0.5)
        assert cfg.n_steps == 500

    def test_times_off_the_step_grid_name_the_nearest_step(self):
        with pytest.raises(h.ConfigError, match="nearest step time is 0.6"):
            h.McConfig(dt=0.3, horizon=0.45)
        # times within rounding of a step are on it
        cfg = h.McConfig(dt=1e-3, record_grid=(0.0, 0.1, 0.25, 0.7))
        assert cfg.record_steps().tolist() == [0, 100, 250, 700]


class TestDegenerateDynamics:
    def test_frozen_variance_never_absorbs(self):
        d = h.Dimensionless(theta=1e-12, beta=1e-12)
        cfg = h.McConfig(dt=1e-3, n_paths=10**4, seed=1, record_grid=(0.5, 1.0))
        est = h.estimate_survival(d, 0.01, 0.0, cfg)
        assert np.all(est.survival == 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_at_the_float32_limit_stays_finite(self, dfig):
        # u0 = 3.4e38 is held; k = m^2 / (s1 u + s0) overflows, silently, and is
        # held at 1e18
        cfg = h.McConfig(n_paths=64, seed=1, horizon=0.5)
        est = h.estimate_survival(dfig, (0.01, 1e30), 3.4e38 * TH, cfg)
        assert np.all(np.isfinite(est.survival)) and np.all(np.isfinite(est.ci_halfwidth))
        assert est.survival[0, 1] == 1.0

    def test_unreachable_barrier(self, dfig):
        cfg = h.McConfig(dt=1e-3, n_paths=10**4, seed=2, record_grid=(1.0,))
        est = h.estimate_survival(dfig, 10.0, None, cfg)
        assert est.survival[0] == 1.0

    def test_single_path_in_unit_interval(self, dfig):
        cfg = h.McConfig(dt=1e-3, n_paths=1, seed=3, record_grid=(1.0,))
        est = h.estimate_survival(dfig, 0.001, None, cfg)
        assert 0.0 <= est.survival[0] <= 1.0
        assert est.ci_halfwidth[0] == 0.0

    def test_curve_shape_and_ci(self, dfig, monkeypatch):
        grid = (0.1, 0.2, 0.3, 0.4, 0.5)
        cfg = h.McConfig(dt=1e-3, n_paths=2 * 10**4, seed=4, record_grid=grid)
        est, per_path = _with_per_path_values(
            monkeypatch, lambda: h.estimate_survival(dfig, 0.01, TH, cfg))
        assert np.all(np.diff(est.survival) <= 0.0)
        assert np.all((est.survival >= 0.0) & (est.survival <= 1.0))
        assert len(per_path) == len(grid)  # one block and one z: a (1, path) array a record
        for i, values in enumerate(per_path):
            mean, ci = _pair_interval([values])
            assert math.isclose(est.survival[i], mean[0], rel_tol=1e-12)
            assert math.isclose(est.ci_halfwidth[i], ci[0], rel_tol=1e-9)
        assert est.grid == grid


def _by_block(monkeypatch):
    """A thread-local whose ``block`` is the index of the path block its
    thread runs, set when the block makes its generator."""
    local = threading.local()
    make = montecarlo._block_rng

    def spy(seed, block):
        local.block = block
        return make(seed, block)

    monkeypatch.setattr(montecarlo, "_block_rng", spy)
    return local


def _in_block_order(seen):
    """The values of ``(block, value)`` pairs, by block, each block's in the
    order it gave them."""
    return [value for _, value in sorted(seen, key=lambda pair: pair[0])]


def _with_per_path_values(monkeypatch, call):
    """Run ``call`` and also return every ``erf(z / sqrt(2 I))`` array the
    kernel reduced, shape ``(z, path)`` with paths in path order, block by
    block, each block's in the order it reduced them."""
    seen, local = [], _by_block(monkeypatch)
    reduce = montecarlo._erf_sums

    def spy(clock, z_grid, h):
        assert h == clock.size // 2
        seen.append((local.block, erf(z_grid[:, None] / np.sqrt(2.0 * clock))))
        return reduce(clock, z_grid, h)

    monkeypatch.setattr(montecarlo, "_erf_sums", spy)
    return call(), _in_block_order(seen)


class _Logged:
    """A block's generator that appends ``(name, values)`` to ``log`` for
    each normal or exponential draw it makes."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name not in ("standard_normal", "standard_exponential"):
            return draw

        def logged(*args, **kwargs):
            out = draw(*args, **kwargs)
            self._log.append((name, np.array(out, copy=True)))
            return out
        return logged


def _log_draws(monkeypatch):
    """The ``(name, values)`` of every normal and exponential draw of every
    block's generator, in the order they are drawn."""
    log, make = [], montecarlo._block_rng
    monkeypatch.setattr(montecarlo, "_block_rng", lambda *key: _Logged(make(*key), log))
    return log


def _pair_interval(blocks):
    """Mean and CI half-width, one per ``z``, from the per-path values
    ``(z, path)`` of each block, in path order: paths ``p`` and ``p + h``
    of a block (``h`` half its size, rounded down) form a unit of size 2,
    and the last path of an odd block one of size 1; the half-width is
    ``1.96 sqrt(sum_j (u_j - m_j S)**2) / n`` over the unit sums ``u_j`` of
    size ``m_j``."""
    units, sizes = [], []
    for s in blocks:
        h = s.shape[1] // 2
        units.append(np.concatenate((s[:, :h] + s[:, h:2 * h], s[:, 2 * h:]), axis=1))
        sizes.append(np.concatenate((np.full(h, 2.0), np.ones(s.shape[1] - 2 * h))))
    u, m = np.concatenate(units, axis=1), np.concatenate(sizes)
    n = m.sum()
    mean = u.sum(axis=1) / n
    return mean, 1.96 * np.sqrt(((u - m * mean[:, None]) ** 2).sum(axis=1)) / n


class TestEstimator:
    def test_ci_is_clt_of_per_path_values(self, dfig, monkeypatch):
        # two blocks, the second odd, stationary starts: the CLT of the pair units
        z_grid = np.array([0.002, 0.01, 0.05])
        cfg = h.McConfig(dt=1e-3, n_paths=2**16 + 17, seed=31, horizon=0.05)
        est, per_path = _with_per_path_values(
            monkeypatch, lambda: h.estimate_survival(dfig, z_grid, None, cfg))
        assert [v.shape for v in per_path] == [(3, 2**16), (3, 17)]
        assert est.survival.shape == est.ci_halfwidth.shape == (1, 3)
        mean, ci = _pair_interval(per_path)
        np.testing.assert_allclose(est.survival[0], mean, rtol=1e-12)
        np.testing.assert_allclose(est.ci_halfwidth[0], ci, rtol=1e-9)

    def test_work_counts(self, dfig):
        # a step draws one normal per pair and one for the lone last path of
        # the odd block: 2**15 + 9 for 2**16 + 17 paths
        n = 2**16 + 17
        cfg = h.McConfig(dt=1e-3, n_paths=n, seed=1, record_grid=(0.01, 0.02))
        fixed = h.estimate_survival(dfig, 0.01, TH, cfg)
        assert (fixed.path_steps, fixed.rng_draws) == (n * 20, (2**15 + 9) * 20)
        averaged = h.estimate_survival(dfig, 0.01, None, cfg, workers=2)
        assert averaged.path_steps == n * 20
        assert averaged.rng_draws == (2**15 + 9) * 20 + n  # plus one Gamma start per path
        grid = h.estimate_survival(dfig, (0.01, 0.02), TH, cfg)
        assert (grid.path_steps, grid.rng_draws) == (n * 20, (2**15 + 9) * 20)


class TestPairs:
    """Paths ``p`` and ``p + h`` of a block (``h`` half its size, rounded
    down) take ``Z`` and ``-Z`` of one draw a step, and the last path of an
    odd block a draw of its own, until the block first parks; from then on
    each live path takes its own normal."""

    @pytest.mark.parametrize("beta, v0", [(0.1, TH), (1.0, None)],
                             ids=["beta0.1", "beta1-stationary"])
    def test_step_normals(self, beta, v0, monkeypatch):
        n = 2**12 + 1
        half = n // 2
        seen, step, log = [], montecarlo._qe_step, _log_draws(monkeypatch)

        def spy(u, normal, *args):
            seen.append((normal.copy(), log[-1]))
            return step(u, normal, *args)

        monkeypatch.setattr(montecarlo, "_qe_step", spy)
        d = h.Dimensionless(theta=TH, beta=beta)
        cfg = h.McConfig(dt=1e-3, n_paths=n, seed=17, record_grid=(0.03,))
        est = h.estimate_survival(d, 0.01, v0, cfg)
        assert len(seen) == 30 and est.path_steps == sum(z.size for z, _ in seen)
        assert all(z.dtype == np.float32 for z, _ in seen)
        # the paired steps draw the block stream, one normal per pair and one
        # for the lone path: [Z, -Z], rounded to float32; at beta = 1 the block
        # parks before the first step (2/3 of the float32 starts underflow to 0)
        rng = montecarlo._block_rng(cfg.seed, 0)
        if v0 is None:
            rng.gamma(shape=d.nu, scale=1.0 / d.nu, size=n)
        paired = 30 if beta == 0.1 else 0
        for z, _ in seen[:paired]:
            draw = rng.standard_normal(n - half)
            assert np.array_equal(z, np.concatenate((draw[:half], -draw)).astype(np.float32))
            assert np.array_equal(z[:half], -z[half:2 * half])  # the members of a pair
            assert np.count_nonzero(np.abs(draw) == abs(draw[-1])) == 1  # the lone path
        # after that each live path takes its own normal: the step's draw, rounded
        for z, (name, draw) in seen[paired:]:
            assert name == "standard_normal"
            assert z.size < n and np.array_equal(z, draw.astype(np.float32))
            assert np.unique(np.abs(draw)).size == draw.size

    def test_pairs_narrow_the_interval(self, dfig, monkeypatch):
        # beta = 0.1 from v0 = theta: the pair interval against the per-path
        # CLT interval of the same paths
        zs = np.array([0.005, 0.01, 0.05])
        cfg = h.McConfig(dt=1e-3, n_paths=2**17, seed=25, horizon=0.5)
        est, per_path = _with_per_path_values(
            monkeypatch, lambda: h.estimate_survival(dfig, zs, TH, cfg))
        values = np.concatenate(per_path, axis=1)
        per_path_ci = 1.96 * values.std(axis=1) / math.sqrt(cfg.n_paths)
        assert np.all(est.ci_halfwidth[0] <= 0.6 * per_path_ci)


def _euler_bridge_alive(d, z, tau, dt, n, v0, seed):
    """Survival indicators of ``n`` paths of a plain full-truncation Euler
    scheme for the return ``w`` and the variance ``v``, with Brownian-bridge
    killing between grid points; ``v0 = None`` draws stationary starts.
    Shares no code with the package's simulator."""
    rng = np.random.default_rng(seed)
    v = rng.gamma(d.nu, d.beta**2 / 2.0, n) if v0 is None else np.full(n, v0)
    w = np.full(n, z)
    alive = np.ones(n, dtype=bool)
    for _ in range(int(round(tau / dt))):
        vpos = np.maximum(v, 0.0)
        sdt = np.sqrt(vpos * dt)
        w_next = w + sdt * rng.standard_normal(n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            crossed = rng.random(n) < np.exp(-2.0 * w * w_next / (vpos * dt))
        alive &= (w_next > 0.0) & ~crossed
        v = v - (vpos - d.theta) * dt + d.beta * sdt * rng.standard_normal(n)
        w = w_next
    return alive


class TestIndependentSimulation:
    """The kernel's mean of erf(z / sqrt(2 I)) against the survival fraction
    of an independent Euler-and-bridge simulation of both coordinates."""

    @pytest.mark.parametrize("beta, v0, z, tau, euler_dt", [
        (0.1, TH, 0.01, 0.5, 1e-3),
        (1.0, None, 0.01, 0.2, 1e-4),  # Euler needs the fine step at beta = 1
    ])
    def test_agrees_with_euler_bridge(self, beta, v0, z, tau, euler_dt):
        d = h.Dimensionless(theta=TH, beta=beta)
        n = 4000
        alive = _euler_bridge_alive(d, z, tau, euler_dt, n, v0, seed=41)
        p = alive.mean()
        cfg = h.McConfig(dt=1e-3, n_paths=n, seed=42, record_grid=(tau,))
        est = h.estimate_survival(d, z, v0, cfg)
        sigma = math.hypot(est.ci_halfwidth[0] / 1.96, math.sqrt(p * (1.0 - p) / n))
        assert abs(est.survival[0] - p) <= 3.0 * sigma


@pytest.fixture(scope="module")
def leg(dfig):
    # one simulation over every bracketed level per dt; each level's survival
    # and CI have the bits of its own scalar-z run.  2**18 paths give the pair
    # interval no wider than the per-path interval of 1e6 paths at each level
    # (pilot at seed 12346)
    cache = {}

    def run(z, dt):
        if dt not in cache:
            zs = (0.005, 0.01, 0.05)
            cfg = h.McConfig(dt=dt, n_paths=2**18, seed=12345, horizon=0.5)
            est = h.estimate_survival(dfig, zs, TH, cfg)
            cache[dt] = dict(zip(zs, zip(est.survival[0].tolist(),
                                         est.ci_halfwidth[0].tolist())))
        return cache[dt][z]
    return run


class TestQuadratureBrackets:
    """The Fig.-1 pairing: simulation vs exact inversion, both directions."""

    @pytest.mark.parametrize("z", [0.005, 0.01, 0.05])
    def test_brackets_exact(self, leg, dfig, z):
        exact = h.survival_exact(h.State(z, TH, 0.5), dfig).value
        mc, ci = leg(z, 1e-3)
        assert abs(mc - exact) <= ci

    def test_halving_dt_stays_within_one_ci(self, leg):
        coarse, ci = leg(0.01, 1e-3)
        fine, _ = leg(0.01, 5e-4)
        assert abs(coarse - fine) <= ci

    def test_averaged_brackets_quadrature(self):
        d1 = h.Dimensionless(theta=1.92e-3, beta=1.0)
        target = h.survival_averaged(0.01, 1.0, d1).value
        cfg = h.McConfig(dt=5e-5, n_paths=10**4, seed=777, record_grid=(1.0,))
        est = h.estimate_survival(d1, 0.01, None, cfg)
        assert abs(est.survival[0] - target) <= est.ci_halfwidth[0]


class TestCoverage:
    def test_wiener_limit_ci_coverage(self):
        # beta -> 0 with v0 = theta freezes the variance, where the answer
        # is erf(z / sqrt(2 theta tau)); the estimator is exact given the
        # variance path, so only the noise of that path remains.
        d = h.Dimensionless(theta=TH, beta=1e-9)
        want = math.erf(0.05 / math.sqrt(2.0 * TH * 0.5))
        hits = 0
        for seed in range(100):
            cfg = h.McConfig(dt=5e-3, n_paths=2000, seed=seed, record_grid=(0.5,))
            est = h.estimate_survival(d, 0.05, TH, cfg)
            if abs(est.survival[0] - want) <= est.ci_halfwidth[0]:
                hits += 1
        assert hits >= 90  # measured 97/100


class TestProfile:
    """A grid ``z0``: one simulation, one column per ``z``."""

    def test_consistent_with_single_level_runs(self, dfig):
        z_grid = np.array([0.005, 0.02, 0.08])
        cp = h.McConfig(dt=1e-3, n_paths=5 * 10**4, seed=21, horizon=0.5)
        prof = h.estimate_survival(dfig, z_grid, TH, cp)
        survival, ci = prof.survival[0], prof.ci_halfwidth[0]
        assert np.all(np.diff(survival) > 0.0)  # farther start, safer
        for i, z in enumerate(z_grid):
            cs = h.McConfig(dt=1e-3, n_paths=5 * 10**4, seed=22, record_grid=(0.5,))
            single = h.estimate_survival(dfig, float(z), TH, cs)
            dev = survival[i] - single.survival[0]
            lim = 3.0 / 1.96 * math.sqrt(ci[i]**2 + single.ci_halfwidth[0]**2)
            assert abs(dev) <= lim

    @pytest.mark.parametrize("v0", [TH, None])
    def test_columns_in_caller_order_match_scalar_runs(self, dfig, v0):
        # two record times, an unsorted grid: each column has the bits of
        # the scalar run at its z
        cfg = h.McConfig(dt=1e-3, n_paths=2**16 + 17, seed=23, record_grid=(0.01, 0.02))
        zs = (0.05, 0.002, 0.01)
        est = h.estimate_survival(dfig, zs, v0, cfg)
        assert est.survival.shape == est.ci_halfwidth.shape == (2, 3)
        for j, z in enumerate(zs):
            one = h.estimate_survival(dfig, z, v0, cfg)
            assert one.survival.shape == (2,)
            assert np.array_equal(est.survival[:, j], one.survival)
            assert np.array_equal(est.ci_halfwidth[:, j], one.ci_halfwidth)
            assert (est.path_steps, est.rng_draws) == (one.path_steps, one.rng_draws)

    def test_grid_estimates_compare_field_by_field(self, dfig):
        # == raised "The truth value of an array ... is ambiguous"
        cfg = h.McConfig(dt=1e-2, n_paths=500, seed=5, record_grid=(0.1, 0.2))
        est = h.estimate_survival(dfig, (0.01, 0.02), TH, cfg)
        assert est == h.estimate_survival(dfig, (0.01, 0.02), TH, cfg)
        assert est != h.estimate_survival(dfig, (0.01, 0.02), TH, replace(cfg, seed=6))
        assert est != h.estimate_survival(dfig, (0.01, 0.03), TH, cfg)
        assert est != h.estimate_survival(dfig, 0.01, TH, cfg)


def _stationary_starts(monkeypatch, d, n, seed):
    """The starting variances that ``estimate_survival(d, z, None, ...)``
    draws for ``n`` paths: theta times the float32 ``u`` of each block's one
    ``_qe_step``, in block order."""
    seen, local = [], _by_block(monkeypatch)
    step = montecarlo._qe_step

    def spy(u, *args):
        assert u.dtype == np.float32
        seen.append((local.block, d.theta * u.astype(np.float64)))
        return step(u, *args)

    monkeypatch.setattr(montecarlo, "_qe_step", spy)
    cfg = h.McConfig(dt=1e-3, n_paths=n, seed=seed, horizon=1e-3)
    h.estimate_survival(d, 0.01, None, cfg)
    # each block's step ran on all of its paths
    starts = _in_block_order(seen)
    assert [v.size for v in starts] == [nb for _, nb in montecarlo._blocks(n)]
    return np.concatenate(starts)


class TestStationarySampler:
    """The stationary Gamma law of the starting variances that the kernel
    draws when ``v0 = None``."""

    def test_moments(self, dfig, monkeypatch):
        draws = _stationary_starts(monkeypatch, dfig, 10**6, seed=5)
        mean_se = math.sqrt(TH * 0.1**2 / 2.0 / 10**6)
        assert abs(draws.mean() - TH) <= 3.0 * mean_se
        want_var = TH * 0.1**2 / 2.0
        var_se = want_var * math.sqrt((2.0 + 6.0 / dfig.nu) / 10**6)
        assert abs(draws.var(ddof=1) - want_var) <= 3.0 * var_se

    def test_exponential_special_case(self, monkeypatch):
        # nu = 1 collapses the Gamma to an exponential with scale beta^2/2
        d = h.Dimensionless(theta=0.5 * 0.1**2, beta=0.1)
        assert math.isclose(d.nu, 1.0, rel_tol=1e-12)
        draws = _stationary_starts(monkeypatch, d, 10**5, seed=6)
        ks = stats.kstest(draws, "expon", args=(0.0, 0.1**2 / 2.0)).statistic
        assert ks <= 1.63 / math.sqrt(10**5)  # 1% critical value

    def test_deterministic_for_seed(self, dfig, monkeypatch):
        a = _stationary_starts(monkeypatch, dfig, 1000, seed=9)
        b = _stationary_starts(monkeypatch, dfig, 1000, seed=9)
        c = _stationary_starts(monkeypatch, dfig, 1000, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n,seed", [(0, 1), (2.5, 1), (True, 1), (10, -1),
                                        (10, 2**64), (10, 1.5), (10, False)])
    def test_rejects_bad_count_or_seed(self, n, seed):
        # the start draw takes its count and seed from McConfig
        with pytest.raises(h.ConfigError):
            h.McConfig(n_paths=n, seed=seed, horizon=1e-3)


class TestWorkerDeterminism:
    def test_estimate_survival(self, dfig):
        cfg = h.McConfig(dt=1e-3, n_paths=2 * 10**4, seed=3,
                         record_grid=(0.25, 0.5))
        runs = [h.estimate_survival(dfig, 0.01, TH, cfg, workers=w)
                for w in (1, 2, 4)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].survival, other.survival)

    def test_averaged_and_profile(self, dfig):
        cfg = h.McConfig(dt=1e-3, n_paths=2 * 10**4, seed=11, record_grid=(0.5,))
        a1 = h.estimate_survival(dfig, 0.01, None, cfg, workers=1)
        a2 = h.estimate_survival(dfig, 0.01, None, cfg, workers=4)
        assert np.array_equal(a1.survival, a2.survival)
        z_grid = np.array([0.01, 0.05])
        cp = h.McConfig(dt=1e-3, n_paths=2 * 10**4, seed=12, horizon=0.5)
        p1 = h.estimate_survival(dfig, z_grid, TH, cp, workers=1)
        p2 = h.estimate_survival(dfig, z_grid, TH, cp, workers=3)
        assert np.array_equal(p1.survival, p2.survival)

    def test_parked_runs_identical(self):
        # beta = 10, stationary starts: most paths park at the first step, and
        # three blocks, the last one short, draw their waits and lifts
        d = h.Dimensionless(theta=TH, beta=10.0)
        cfg = h.McConfig(dt=1e-3, n_paths=140_000, seed=2204, record_grid=(0.05, 0.2))
        runs = [h.estimate_survival(d, (2e-3, 0.01), None, cfg, workers=w) for w in (1, 2, 4)]
        assert runs[0].path_steps < cfg.n_paths * cfg.n_steps
        for other in runs[1:]:
            assert other == runs[0]

    @pytest.mark.parametrize("call", [
        pytest.param(lambda d, cfg, w: h.estimate_survival(d, 0.01, TH, cfg, workers=w),
                     id="fixed"),
        pytest.param(lambda d, cfg, w: h.estimate_survival(d, 0.01, None, cfg, workers=w),
                     id="averaged"),
        pytest.param(lambda d, cfg, w: h.estimate_survival(d, (0.005, 0.05), None, cfg,
                                                           workers=w),
                     id="profile"),
    ])
    def test_every_field_identical(self, dfig, call):
        # three blocks, the last one short; the pooled CI merges block sums
        cfg = h.McConfig(dt=1e-3, n_paths=140_000, seed=13, record_grid=(0.01, 0.02))
        runs = [call(dfig, cfg, w) for w in (1, 2, 4)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].survival, other.survival)
            assert np.array_equal(runs[0].ci_halfwidth, other.ci_halfwidth)
            assert (runs[0].path_steps, runs[0].rng_draws) == (other.path_steps,
                                                               other.rng_draws)


class TestBlockMerge:
    def test_one_z_and_three_z_merge_alike(self, dfig, monkeypatch):
        # 16 blocks of crafted sums, the same for every z: numpy's sum over
        # the block axis paired them for one z and not for three
        def block(b, n_block, z_grid, steps, v0, d, cfg):
            rng = np.random.default_rng(b)
            mean = rng.uniform(0.2, 0.9)
            one = np.array([n_block * mean, n_block * rng.uniform(0.0, 0.1), mean])
            return np.broadcast_to(one, (len(steps), z_grid.size, 3)).copy(), 0, 0

        monkeypatch.setattr(montecarlo, "_block", block)
        cfg = h.McConfig(dt=1e-3, n_paths=16 * 2**16 - 5, seed=1, horizon=0.5)
        one = h.estimate_survival(dfig, 0.01, None, cfg)
        three = h.estimate_survival(dfig, (0.005, 0.01, 0.05), None, cfg)
        assert len(montecarlo._blocks(cfg.n_paths)) == 16
        for got, want in ((three.survival, one.survival), (three.ci_halfwidth, one.ci_halfwidth)):
            assert [x.hex() for x in got[0]] == [want[0].hex()] * 3


class TestNormalStream:
    """A record at step 0 comes before the first draw and reads ``I = 0``."""

    def test_zero_step_record(self, dfig):
        cfg = h.McConfig(n_paths=17, seed=1, record_grid=(0.0, 0.01))
        est = h.estimate_survival(dfig, 0.01, TH, cfg)
        assert est.survival[0] == 1.0 and est.ci_halfwidth[0] == 0.0


class TestDrawerThreads:
    """Each path block runs on one thread, which draws its variates; a call
    runs up to ``2 * workers`` blocks at once."""

    @pytest.mark.parametrize("beta,v0", [(0.1, TH), (1.0, None)], ids=["fixed", "parked"])
    def test_a_call_draws_at_most_two_normals_per_path_step(self, beta, v0, monkeypatch):
        # a path takes at most one normal a step; every normal, wait and lift
        # drawn is counted in rng_draws
        log = _log_draws(monkeypatch)
        cfg = h.McConfig(n_paths=8, seed=5, record_grid=(0.01,))
        est = h.estimate_survival(h.Dimensionless(TH, beta), 0.01, v0, cfg)
        drawn = {name: sum(v.size for n, v in log if n == name)
                 for name in ("standard_normal", "standard_exponential")}
        assert 0 < drawn["standard_normal"] <= 8 * 10
        assert (drawn["standard_exponential"] > 0) == (v0 is None)  # beta = 1 parks
        assert est.rng_draws - (8 if v0 is None else 0) == sum(drawn.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_at_most_two_blocks_per_worker_at_once(self, dfig, workers, monkeypatch):
        # six one-step blocks, each held 0.2 s: the budget fills and is never passed
        lock, running, most = threading.Lock(), [0], [0]
        block = montecarlo._block

        def spy(*args):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(0.2)
                return block(*args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(montecarlo, "_block", spy)
        cfg = h.McConfig(n_paths=6 * 2**16, seed=4, horizon=1e-3)
        est = h.estimate_survival(dfig, 0.01, TH, cfg, workers=workers)
        assert most[0] == 2 * workers and est.path_steps == cfg.n_paths

    def test_no_thread_outlives_a_call(self, dfig):
        before = threading.active_count()
        cfg = h.McConfig(n_paths=2**16 + 17, seed=2, record_grid=(0.005,))
        h.estimate_survival(dfig, 0.01, None, cfg, workers=2)
        assert threading.active_count() == before

    def test_step_error_propagates_and_stops_the_drawer(self, dfig, monkeypatch):
        # the drawer is the block's own thread
        def fail(*args):
            raise FloatingPointError("step failed")

        monkeypatch.setattr(montecarlo, "_qe_step", fail)
        before = threading.active_count()
        cfg = h.McConfig(n_paths=1000, seed=3, record_grid=(0.1,))
        done = []

        def call():
            with pytest.raises(FloatingPointError, match="step failed"):
                h.estimate_survival(dfig, 0.01, TH, cfg)
            done.append(True)

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=30.0)
        assert not caller.is_alive() and done == [True]
        assert threading.active_count() == before


class TestPinnedKernel:
    """Exact survival, CI, live path-step and draw counts of six small runs,
    recorded from the kernel with SFC64 block streams drawn in-line, float32
    variance steps in units of theta on float32-rounded normals, the
    exponential branch read as log(q / Phi(Z)), the float64 running-sum
    clock, parked paths drawing their lift steps and values from Exp(1)
    variates, and paths p and p + h of a block sharing one normal a step (Z
    and -Z) until the block parks.  Two blocks, the second of 17 paths; 40
    steps, so 2622120 path-steps and 40 * (2**15 + 9) = 1311080 normals
    where nothing parks.
    At beta = 1 more than half of the live paths sit at u = 0 before the
    first step (stationary starts, most of which underflow float32) or the
    seventh (v0 = theta), and at beta = 10 before the first, so those runs
    take fewer live path-steps; at beta = 0.01, 2 nu >= _K_SWITCH, so paths
    on the atom take the quadratic branch and nothing parks; at beta = 0.3
    paths reach the atom, but never half of the block.  So the beta = 0.1,
    0.01 and 0.3 runs keep their pairs to the end, and the stationary runs
    park before their first step draws."""

    CASES = {
        "beta0.1-v0theta": (0.1, TH, 0.01, (
            ["0x1.dffec493bc7e5p-1", "0x1.81a587aa5284ap-1"],
            ["0x1.6d87072fd0cf9p-16", "0x1.ae4a36e5207bep-16"], 2622120, 1311080)),
        "beta1-stationary": (1.0, None, 2e-3, (
            ["0x1.f2d1e5e32de25p-1", "0x1.ea4f08461340bp-1"],
            ["0x1.129c557aca9efp-10", "0x1.4da1a73c3bcadp-10"], 152581, 318671)),
        "beta1-v0theta": (1.0, TH, 5e-3, (
            ["0x1.990582aab8e53p-1", "0x1.8916f7de23342p-1"],
            ["0x1.611f528234abap-10", "0x1.bc51b633f6bb4p-10"], 1053696, 938508)),
        "beta0.01-v0zero": (0.01, 0.0, 1e-3, (
            ["0x1.efecfc45b43b7p-1", "0x1.2c2799e7e896ap-1"],
            ["0x1.2a955543a8e15p-16", "0x1.f1b7359f3dd19p-17"], 2622120, 1311080)),
        "beta0.3-v0theta": (0.3, TH, 5e-3, (
            ["0x1.5a760dcdbcf74p-1", "0x1.070099f77e53cp-1"],
            ["0x1.12f98f1687751p-13", "0x1.f3614d7cd4b98p-12"], 2622120, 1311080)),
        "beta10-stationary": (10.0, None, 2e-3, (
            ["0x1.ff80fdc6ae3cbp-1", "0x1.fedb99d3b34bdp-1"],
            ["0x1.af94c478a0eafp-13", "0x1.45084f5e89daap-12"], 1472, 132981)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical(self, case):
        beta, v0, z, (survival, ci, path_steps, draws) = self.CASES[case]
        d = h.Dimensionless(theta=TH, beta=beta)
        cfg = h.McConfig(dt=1e-3, n_paths=2**16 + 17, seed=7, record_grid=(0.015, 0.04))
        est = h.estimate_survival(d, z, v0, cfg)
        assert [x.hex() for x in est.survival.tolist()] == survival
        assert [x.hex() for x in est.ci_halfwidth.tolist()] == ci
        assert (est.path_steps, est.rng_draws) == (path_steps, draws)


class TestBlockStream:
    """Path block ``b`` of seed ``s`` draws from
    ``Generator(SFC64(SeedSequence([s, b])))``."""

    @pytest.mark.parametrize("seed, block", [(0, 0), (7, 1), (2**64 - 1, 3)])
    def test_definition(self, seed, block):
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block])))
        got = montecarlo._block_rng(seed, block)
        assert np.array_equal(got.standard_normal(1000), want.standard_normal(1000))
        assert np.array_equal(got.gamma(0.4, 2.0, 100), want.gamma(0.4, 2.0, 100))

    def test_neighbours_differ(self):
        keys = [(7, 1), (7, 2), (8, 1), (1, 7), (0, 0), (0, 1), (1, 0)]
        draws = {key: montecarlo._block_rng(*key).standard_normal(64) for key in keys}
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert not np.any(draws[a] == draws[b]), (a, b)

    def test_largest_seed(self, dfig):
        cfg = h.McConfig(n_paths=2**16 + 3, seed=2**64 - 1, record_grid=(0.005,))
        est = h.estimate_survival(dfig, 0.01, None, cfg)
        assert est.seed == 2**64 - 1 and 0.0 < est.survival[0] < 1.0


def _reference_qe_step(u, normal, coef):
    """``u'`` by the QE step in units of theta, in the dtype of ``u``, each
    branch written out whole: the mean ``u + c (1 - u)``, the quadratic
    branch ``m (1 + ((2b + Z) Z - 1) / (1 + b^2))`` and the exponential one,
    ``(m / q) log(q / Phi(Z))``, with ``Phi`` held at the smallest normal float."""
    c, s1, s0 = coef
    m = (1.0 - u) * c + u
    k = np.minimum(m * m / (u * s1 + s0), 1e18)
    with np.errstate(invalid="ignore"):
        b2 = (k - 1.0) + np.sqrt((k - 1.0) * k)
        b = np.sqrt(b2)
    out = m * (((b + b + normal) * normal - 1.0) / (b2 + 1.0) + 1.0)
    idx = np.flatnonzero(k < montecarlo._K_SWITCH)
    if idx.size:
        q = 2.0 * k[idx] / (2.0 + k[idx])
        phi = np.maximum(ndtr(normal[idx]), np.finfo(normal.dtype).tiny)
        out[idx] = m[idx] / q * np.maximum(np.log(q / phi), 0.0)
    return out


def _coef(d, dt):
    """The kernel's ``(c, s1, s0)`` for the model ``d`` and step ``dt``."""
    c = -math.expm1(-dt)
    return c, math.exp(-dt) * c / d.nu, 0.5 * c * c / d.nu


def _q0(d):
    """``q0``, the probability a step that a path on the atom leaves it: the
    law the kernel draws parked paths' waits from."""
    return 2.0 * d.nu / (1.0 + d.nu)


def _step(u, normal, coef):
    """``u'`` of ``montecarlo._qe_step`` and its mask of paths on the
    exponential branch, in the dtype of ``u``."""
    n = u.size
    out = np.empty_like(u)
    scratch = (np.empty_like(u), np.empty_like(u), np.empty_like(u), np.empty(n, dtype=bool))
    with np.errstate(invalid="ignore"):
        montecarlo._qe_step(u, normal, out, scratch, coef)
    return out, scratch[3]


def _bits(a):
    return a.view(f"i{a.itemsize}")


class TestTrimmedStep:
    """The step with fewer full-width passes gives the reference step's bits,
    in float32 (the kernel's dtype) and in float64."""

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_same_bits_as_reference(self, beta, dt):
        rng = np.random.default_rng(int(beta * 100) + int(dt * 1e4))
        n = 20_000
        u = 10.0 ** rng.uniform(-12.0, 3.0, n)
        u[rng.random(n) < 0.3] = 0.0  # the atom
        normal = rng.standard_normal(n) * 3.0
        coef = _coef(h.Dimensionless(theta=TH, beta=beta), dt)
        for dtype in (np.float32, np.float64):
            got, far = _step(u.astype(dtype), normal.astype(dtype), coef)
            want = _reference_qe_step(u.astype(dtype), normal.astype(dtype), coef)
            assert got.dtype == want.dtype == dtype
            assert np.any(far) and not np.all(far)  # both branches
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("u", [np.full(50, 1e3, dtype=np.float32),
                                   np.empty(0, dtype=np.float32)],
                             ids=["quadratic-only", "empty"])
    def test_no_path_on_the_exponential_branch(self, u):
        normal = np.linspace(-4.0, 4.0, u.size, dtype=np.float32)
        coef = _coef(h.Dimensionless(theta=TH, beta=0.01), 1e-3)
        got, far = _step(u, normal, coef)
        assert not np.any(far)
        assert np.array_equal(_bits(got), _bits(_reference_qe_step(u, normal, coef)))


def _scheduled_clocks(d, cfg, v0, records):
    """Trapezoid clocks at the steps ``records`` of one block of
    ``cfg.n_paths`` paths, in path order, and the block's live path-steps
    and draws, from the kernel's schedule followed path by path.

    Every path keeps its own full-width variance and trapezoid sum.  Until
    the block first parks, a step draws one normal per pair: path ``p <
    h`` takes ``Z_p``, path ``p + h`` takes ``-Z_p`` and the last path of an
    odd block ``-Z_h``.  When more than half of the live paths sit at v = 0,
    each of them draws its lift step from one exponential and holds v = 0
    until that step, where it draws its lift value; from then on every live path
    draws its own normal, in the kernel's order: the live paths, then the
    lifted ones by lift step and path.  The live ones are stepped by
    ``_reference_qe_step`` in float32 and in units of theta, on the normals
    rounded to float32; the trapezoid sum is float64, times theta."""
    n, dt = cfg.n_paths, cfg.dt
    h = n // 2
    rng = montecarlo._block_rng(cfg.seed, 0)
    u = (rng.gamma(shape=d.nu, scale=1.0 / d.nu, size=n) if v0 is None
         else np.full(n, v0 / d.theta)).astype(np.float32)
    draws = n if v0 is None else 0
    coef, q0 = _coef(d, dt), _q0(d)
    live, lift, paired = np.arange(n), np.full(n, -1), True
    trapezoid, clocks, path_steps = np.zeros(n), [], 0
    for step in range(cfg.n_steps + 1):
        if step in records:
            clocks.append(trapezoid.copy())
        if step == cfg.n_steps:
            break
        atom = live[u[live] == 0.0]
        if 2.0 * d.nu < montecarlo._K_SWITCH and 2 * atom.size > live.size:
            wait = np.floor(rng.standard_exponential(atom.size) / -math.log1p(-q0))
            lift[atom] = step + np.minimum(wait, cfg.n_steps)
            live = live[u[live] != 0.0]
            draws += atom.size
            paired = False
        if paired:
            z = rng.standard_normal(n - h)
            normal = np.concatenate((z[:h], -z))
        else:
            normal = rng.standard_normal(live.size)
        draws += n - h if paired else live.size
        u_next = u.copy()  # a parked path's u is 0
        u_next[live] = _reference_qe_step(u[live], normal.astype(np.float32), coef)
        path_steps += live.size
        up = np.flatnonzero(lift == step)
        u_next[up] = coef[0] / q0 * rng.standard_exponential(up.size)
        lift[up] = -1
        live = np.concatenate((live, up))
        draws += up.size
        trapezoid += (u.astype(np.float64) + u_next) * (0.5 * dt)
        u = u_next
    return [d.theta * t for t in clocks], path_steps, draws


class TestClock:
    """The running-sum clock ``theta dt S - (theta dt/2) u + base`` of the
    live paths and ``theta dt S + base`` of the parked ones (``u = v /
    theta``), read at record steps, against the
    trapezoid sum of the same variance paths from the kernel's schedule
    followed path by path at full width."""

    @pytest.mark.parametrize("beta, v0", [(0.1, TH), (1.0, TH), (10.0, None), (1.0, 0.0)],
                             ids=["beta0.1", "beta1", "beta10-stationary", "beta1-atom"])
    def test_against_the_trapezoid_sum(self, beta, v0, monkeypatch):
        d = h.Dimensionless(theta=TH, beta=beta)
        cfg = h.McConfig(dt=1e-3, n_paths=3001, seed=5, record_grid=(0.0, 0.05, 0.2))
        clocks = []
        sums = montecarlo._erf_sums

        def spy(clock, *args):
            clocks.append(clock.copy())
            return sums(clock, *args)

        monkeypatch.setattr(montecarlo, "_erf_sums", spy)
        est = h.estimate_survival(d, 0.01, v0, cfg)
        want, path_steps, draws = _scheduled_clocks(d, cfg, v0, (0, 50, 200))
        assert (est.path_steps, est.rng_draws) == (path_steps, draws)
        # beta = 0.1 never parks; the others park, so they take fewer live path-steps
        assert (path_steps == 3001 * 200) == (beta == 0.1)
        assert len(clocks) == 3
        assert np.all(clocks[0] == 0.0)  # a zero-step record reads I = 0
        for got, exp, n in zip(clocks, want, (0, 50, 200)):
            assert np.all(got >= 0.0)
            assert np.all(np.abs(got - exp) <= 4 * n * np.spacing(exp))


def _plain_qe(d, z_grid, cfg, seed):
    """Survival and CI half-widths, shape ``(record, z)``, from a plain loop
    over stationary starts: every path stepped by ``_reference_qe_step`` at
    every step in float64, one normal each, and the trapezoid clock."""
    rng = np.random.default_rng(seed)
    n, dt = cfg.n_paths, cfg.dt
    u = rng.gamma(shape=d.nu, scale=1.0 / d.nu, size=n)
    coef = _coef(d, dt)
    clock, survival, ci = np.zeros(n), [], []
    records = cfg.record_steps().tolist()
    for step in range(cfg.n_steps + 1):
        if step in records:
            with np.errstate(divide="ignore"):
                s = erf(np.asarray(z_grid)[:, None] / np.sqrt(2.0 * d.theta * clock))
            survival.append(s.mean(axis=1))
            ci.append(1.96 * s.std(axis=1) / math.sqrt(n))
        if step < cfg.n_steps:
            u_next = _reference_qe_step(u, rng.standard_normal(n), coef)
            clock += (u + u_next) * (0.5 * dt)
            u = u_next
    return np.array(survival), np.array(ci)


class TestAtomSchedule:
    """Parked paths draw a Geometric(q0) wait and an Exp(c / q0) lift value
    in units of theta, each from one ``Exp(1)`` variate: the law of stepping
    them by QE from the atom, on a different stream."""

    @pytest.mark.parametrize("beta", [1.0, 10.0])
    def test_lifts_follow_the_one_step_law(self, beta, monkeypatch):
        # from v0 = 0 every path parks at step 0; a path that lifts at step s
        # reads I = theta (dt u' - (dt/2) u') = (dt/2) v' at the record of step
        # s + 1, and I = 0 at every record before that
        d = h.Dimensionless(theta=TH, beta=beta)
        cfg = h.McConfig(dt=1e-3, n_paths=2**22, seed=2201, record_grid=(1e-3, 4e-3))
        lifted, seen, local = [[], []], [], _by_block(monkeypatch)
        sums = montecarlo._erf_sums

        def spy(clock, *args):
            rec = seen.count(local.block)  # each block reads both records in turn
            seen.append(local.block)
            lifted[rec].append(clock[clock > 0.0].copy())
            return sums(clock, *args)

        monkeypatch.setattr(montecarlo, "_erf_sums", spy)
        h.estimate_survival(d, 0.01, 0.0, cfg)
        assert len(seen) == 2 * len(montecarlo._blocks(cfg.n_paths))
        m0, q0 = TH * _coef(d, cfg.dt)[0], _q0(d)  # the lift mean m0 / q0 in v
        for rec, steps in enumerate((1, 4)):
            share = sum(c.size for c in lifted[rec]) / cfg.n_paths
            want = 1.0 - (1.0 - q0) ** steps
            assert abs(share - want) <= 4.0 * math.sqrt(want * (1.0 - want) / cfg.n_paths)
        values = 2.0 * np.concatenate(lifted[0]) / cfg.dt
        # at beta = 1 this sample read p = 0.0025 (32k values) on lifts drawn by
        # inverse CDF from a normal, as the kernel once drew them; over seeds 3000-3029
        # the lift values' mean was 0.9984 +- 0.0010 of m0 / q0 and 2 of 30 p-values
        # fell below 0.05, so the law holds and the bound is 1e-3
        assert stats.kstest(values, "expon", args=(0.0, m0 / q0)).pvalue > 1e-3

    @pytest.mark.parametrize("beta", [1.0, 10.0])
    def test_agrees_with_a_plain_loop(self, beta):
        d = h.Dimensionless(theta=TH, beta=beta)
        z_grid = (2e-3, 0.01)
        cfg = h.McConfig(dt=1e-3, n_paths=2**16, seed=2202, record_grid=(0.1, 0.3))
        est = h.estimate_survival(d, z_grid, None, cfg)
        assert est.path_steps < cfg.n_paths * cfg.n_steps  # it parked
        plain, plain_ci = _plain_qe(d, z_grid, replace(cfg, n_paths=2**15), seed=2203)
        assert np.all(np.abs(est.survival - plain) <= 3.0 * np.hypot(est.ci_halfwidth, plain_ci))


class TestQeStep:
    """Facts of the exponential branch on float32 variances: a path on the
    atom with ``Z >= ndtri(q0) + 1e-6`` stays there and one with ``Z <
    ndtri(q0) - 1e-6`` leaves it, so it leaves with probability q0 a step,
    the law parked paths draw their waits from; and off the atom (where q <
    0.8) no path with ``Z >= ndtri(0.8) + 1e-6`` moves.  A live path on the
    atom leaves by its step's float32 ``q``, a parked path by the float64
    ``q0``; the two are within two float32 epsilons relative (measured: at
    most 1.8e-7), and 1e-6 is 4 to 17 float32 spacings of these quantiles."""

    @pytest.mark.parametrize("beta", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_atom_threshold(self, beta, dt):
        d = h.Dimensionless(theta=TH, beta=beta)
        coef, q0 = _coef(d, dt), _q0(d)
        k = np.float32(coef[0]) * np.float32(coef[0]) / np.float32(coef[2])  # the step's at u = 0
        assert k < montecarlo._K_SWITCH
        q = 2.0 * k / (2.0 + k)
        assert q.dtype == np.float32 and abs(q - q0) <= 2 * np.finfo(np.float32).eps * q0
        z_q = ndtri(q0)
        near = np.float32(z_q) + np.spacing(np.float32(z_q)) * np.arange(-400.0, 401.0)
        normal = np.concatenate([np.linspace(-8.0, 8.0, 16001), near]).astype(np.float32)
        out, _ = _step(np.zeros(normal.size, dtype=np.float32), normal, coef)
        assert np.all(out[normal >= z_q + 1e-6] == 0.0)
        assert np.all(out[normal < z_q - 1e-6] > 0.0)

    @pytest.mark.parametrize("u", [0.0, 1e-3])
    def test_a_far_path_at_extreme_normals(self, u):
        # Phi(-40) underflows to 0: held at the smallest normal float, q / Phi
        # stays finite, so the path leaves to a finite u' > 0; Phi(40) = 1 keeps it at 0
        normal = np.array([-40.0, 40.0], dtype=np.float32)
        out, far = _step(np.full(2, u, dtype=np.float32), normal,
                         _coef(h.Dimensionless(theta=TH, beta=1.0), 1e-3))
        assert np.all(far)
        assert np.isfinite(out[0]) and out[0] > 0.0 and out[1] == 0.0

    @pytest.mark.parametrize("beta", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_far_paths_above_the_quantile_stay_put(self, beta, dt):
        u, normal = (a.ravel().astype(np.float32) for a in np.meshgrid(
            np.logspace(-14.0, 0.0, 300) / TH, np.linspace(ndtri(0.8) + 1e-6, 9.0, 300)))
        out, far = _step(u, normal, _coef(h.Dimensionless(theta=TH, beta=beta), dt))
        assert far.sum() > u.size // 2
        assert np.all(out[far] == 0.0)


def _float64_paired_run(d, z_grid, cfg):
    """Mean of ``erf(z / sqrt(2 I))`` at the horizon over one block of paths
    from ``v0 = theta``, on the kernel's paired normals (the block never
    parks), stepped by ``_reference_qe_step`` in float64 on the normals as
    drawn, with a float64 trapezoid clock."""
    n = cfg.n_paths
    h = n // 2
    assert n % 2 == 0 and len(montecarlo._blocks(n)) == 1
    rng = montecarlo._block_rng(cfg.seed, 0)
    coef = _coef(d, cfg.dt)
    u, clock = np.ones(n), np.zeros(n)
    for _ in range(cfg.n_steps):
        z = rng.standard_normal(n - h)
        u_next = _reference_qe_step(u, np.concatenate((z[:h], -z)), coef)
        clock += (u + u_next) * (0.5 * cfg.dt)
        u = u_next
    return erf(np.asarray(z_grid)[:, None] / np.sqrt(2.0 * d.theta * clock)).mean(axis=1)


class TestFloat32Step:
    """The kernel steps the variances in float32, in units of theta, with a
    float64 clock."""

    def test_rounding_shift_within_a_tenth_of_c01s_interval(self, dfig):
        # beta = 0.1 from v0 = theta, tau = 0.5, on c01's grid of z, against a
        # float64 step on the same normals: the shift is rounding alone.  c01's
        # half-width at each z is this run's pair interval scaled to c01's 2**20
        # paths.  Seed and path count were fixed before the first run
        zs = np.logspace(math.log10(2e-3), math.log10(2e-1), 16)
        cfg = h.McConfig(dt=1e-3, n_paths=2**16, seed=2601, horizon=0.5)
        est = h.estimate_survival(dfig, zs, TH, cfg)
        shift = est.survival[0] - _float64_paired_run(dfig, zs, cfg)
        c01_halfwidth = est.ci_halfwidth[0] * math.sqrt(cfg.n_paths / 2**20)
        assert np.all(np.abs(shift) <= 0.1 * c01_halfwidth)

    @pytest.mark.parametrize("beta", [1e-9, 1e-30])
    def test_frozen_variance_is_exact(self, beta, monkeypatch):
        # from v0 = theta: the mean's fixed point is 1 and u' = m (1 + O(beta Z))
        # rounds to it, so every u stays 1.0 and the clock reads theta tau up to
        # the rounding of its float64 products.  At beta = 1e-30, k overflows
        # float32 and is held at 1e18 (it read NaN without that)
        d = h.Dimensionless(theta=TH, beta=beta)
        cfg = h.McConfig(dt=5e-3, n_paths=2001, seed=3, record_grid=(0.0, 0.1, 0.5))
        exact, clocks = [], []
        step, sums = montecarlo._qe_step, montecarlo._erf_sums

        def step_spy(u, normal, out, *args):
            step(u, normal, out, *args)
            exact.append(bool(np.all(u == 1.0) and np.all(out == 1.0)))

        def sums_spy(clock, *args):
            clocks.append(clock.copy())
            return sums(clock, *args)

        monkeypatch.setattr(montecarlo, "_qe_step", step_spy)
        monkeypatch.setattr(montecarlo, "_erf_sums", sums_spy)
        h.estimate_survival(d, 0.05, TH, cfg)
        assert len(exact) == cfg.n_steps and all(exact)
        assert len(clocks) == 3
        for got, tau in zip(clocks, cfg.record_grid):
            assert np.all(np.abs(got - TH * tau) <= 4 * np.spacing(TH * tau))
