"""Simulation oracle: QE variance paths, the conditional erf estimator, and
stream splitting.

The heavy cross-oracle brackets run at the documented path counts, so this
file dominates the suite's runtime (a couple of minutes); every seed here
was verified once against the quadrature before being frozen.
"""
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats
from scipy.special import erf, ndtri

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
    ])
    def test_rejected(self, kw):
        with pytest.raises(h.ConfigError):
            h.McConfig(**kw)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda d, cfg: h.estimate_survival(d, 0.01, math.nan, cfg), id="v0-nan"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, 0.01, math.inf, cfg), id="v0-inf"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, math.nan, TH, cfg), id="z0-nan"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, math.inf, TH, cfg), id="z0-inf"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, math.inf, None, cfg),
                     id="averaged-z0-inf"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, (0.01, 0.02), math.nan, cfg),
                     id="profile-v0-nan"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, (0.01, math.nan, 0.02), None, cfg),
                     id="profile-z-nan"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, (0.01, math.inf), None, cfg),
                     id="profile-z-inf"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, (), TH, cfg), id="z0-empty"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, [[0.01, 0.02]], TH, cfg),
                     id="z0-2d"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, 0.01, TH, cfg, workers=0),
                     id="workers-0"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, 0.01, None, cfg, workers=0),
                     id="averaged-workers-0"),
        pytest.param(lambda d, cfg: h.estimate_survival(d, (0.01,), None, cfg, workers=0),
                     id="profile-workers-0"),
    ])
    def test_rejected_inputs(self, dfig, call):
        # each of these used to return a survival value (1.0 or 0.0) or run
        # with one worker
        with pytest.raises(h.ConfigError):
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
        values = np.stack(per_path)[:, 0, :]  # (record, path): one block, one z
        np.testing.assert_allclose(est.survival, values.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(
            est.ci_halfwidth, 1.96 * values.std(axis=1) / math.sqrt(cfg.n_paths),
            rtol=1e-9)
        assert est.grid == grid


def _with_per_path_values(monkeypatch, call):
    """Run ``call`` and also return every ``erf(z / sqrt(2 I))`` array the
    kernel reduced, shape ``(z, path)``, in the order it reduced them."""
    seen = []
    reduce = montecarlo._erf_sums

    def spy(clock, z_grid):
        seen.append(erf(z_grid[:, None] / np.sqrt(2.0 * clock)))
        return reduce(clock, z_grid)

    monkeypatch.setattr(montecarlo, "_erf_sums", spy)
    return call(), seen


class TestEstimator:
    def test_ci_is_clt_of_per_path_values(self, dfig, monkeypatch):
        # two blocks (workers=1 reduces them in block order), stationary starts
        z_grid = np.array([0.002, 0.01, 0.05])
        cfg = h.McConfig(dt=1e-3, n_paths=70_000, seed=31, horizon=0.05)
        est, per_path = _with_per_path_values(
            monkeypatch, lambda: h.estimate_survival(dfig, z_grid, None, cfg))
        values = np.concatenate(per_path, axis=1)
        assert values.shape == (3, cfg.n_paths)
        assert est.survival.shape == est.ci_halfwidth.shape == (1, 3)
        np.testing.assert_allclose(est.survival[0], values.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(
            est.ci_halfwidth[0], 1.96 * values.std(axis=1) / math.sqrt(cfg.n_paths),
            rtol=1e-9)

    def test_work_counts(self, dfig):
        cfg = h.McConfig(dt=1e-3, n_paths=70_000, seed=1, record_grid=(0.01, 0.02))
        fixed = h.estimate_survival(dfig, 0.01, TH, cfg)
        assert fixed.path_steps == fixed.rng_draws == 70_000 * 20
        averaged = h.estimate_survival(dfig, 0.01, None, cfg, workers=2)
        assert averaged.path_steps == 70_000 * 20
        assert averaged.rng_draws == 70_000 * 21  # plus one Gamma start per path
        grid = h.estimate_survival(dfig, (0.01, 0.02), TH, cfg)
        assert grid.path_steps == grid.rng_draws == 70_000 * 20


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
    # and CI have the bits of its own scalar-z run
    cache = {}

    def run(z, dt):
        if dt not in cache:
            zs = (0.005, 0.01, 0.05)
            cfg = h.McConfig(dt=dt, n_paths=10**6, seed=12345, horizon=0.5)
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


def _stationary_starts(monkeypatch, d, n, seed):
    """The starting variances that ``estimate_survival(d, z, None, ...)``
    draws for ``n`` paths: the ``v`` of each block's one ``_qe_step``."""
    seen = []
    step = montecarlo._qe_step

    def spy(v, *args):
        seen.append(v.copy())
        return step(v, *args)

    monkeypatch.setattr(montecarlo, "_qe_step", spy)
    cfg = h.McConfig(dt=1e-3, n_paths=n, seed=seed, horizon=1e-3)
    h.estimate_survival(d, 0.01, None, cfg)
    # each block's step ran on all of its paths, in block order
    assert [v.size for v in seen] == [nb for _, nb in montecarlo._blocks(n)]
    return np.concatenate(seen)


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
            one = np.array([n_block * rng.uniform(0.2, 0.9), n_block * rng.uniform(0.0, 0.1)])
            return np.broadcast_to(one, (len(steps), z_grid.size, 2)).copy(), 0, 0

        monkeypatch.setattr(montecarlo, "_block", block)
        cfg = h.McConfig(dt=1e-3, n_paths=16 * 2**16 - 5, seed=1, horizon=0.5)
        one = h.estimate_survival(dfig, 0.01, None, cfg)
        three = h.estimate_survival(dfig, (0.005, 0.01, 0.05), None, cfg)
        assert len(montecarlo._blocks(cfg.n_paths)) == 16
        for got, want in ((three.survival, one.survival), (three.ci_halfwidth, one.ci_halfwidth)):
            assert [x.hex() for x in got[0]] == [want[0].hex()] * 3


class TestNormalStream:
    """The helper thread draws each block's normals one chunk ahead; the
    stream must be the one the inline draws gave."""

    @pytest.mark.parametrize("n_block, n_steps", [
        pytest.param(2**16, 5, id="one-row-chunks"),
        pytest.param(2**14, 4, id="ends-on-a-chunk"),
        pytest.param(2**14, 9, id="partial-last-chunk"),
        pytest.param(17, 1, id="one-step"),
        pytest.param(17, 0, id="no-steps"),
    ])
    def test_same_stream_as_inline_draws(self, n_block, n_steps):
        want = montecarlo._block_rng(99, 3)
        rng = montecarlo._block_rng(99, 3)
        with ThreadPoolExecutor(max_workers=1) as drawer:
            # kept uncopied: a yielded step stays valid after later draws
            got = list(montecarlo._normals(rng, n_block, n_steps, drawer))
        assert len(got) == n_steps
        for z in got:
            assert np.array_equal(z, want.standard_normal(n_block))

    def test_zero_step_record(self, dfig):
        cfg = h.McConfig(n_paths=17, seed=1, record_grid=(0.0,), horizon=0.01)
        est = h.estimate_survival(dfig, 0.01, TH, cfg)
        assert est.survival.tolist() == [1.0]
        assert est.path_steps == 0


class TestDrawerThreads:
    def test_no_thread_outlives_a_call(self, dfig):
        before = threading.active_count()
        cfg = h.McConfig(n_paths=2**16 + 17, seed=2, record_grid=(0.005,))
        h.estimate_survival(dfig, 0.01, None, cfg, workers=2)
        assert threading.active_count() == before

    def test_step_error_propagates_and_stops_the_drawer(self, dfig, monkeypatch):
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
    """Exact survival, CI, path-step and draw counts of six small runs.  The
    first four were recorded from the kernel before it stepped in place and
    parked paths on the atom, the last two before it dropped its screen of
    the exponential branch.  Two blocks, the second of 17 paths.
    ``parks_from`` is the first step taken on the live paths only, or None:
    at beta = 1 more than half of the block sits at v = 0 from the second
    step on (stationary starts) or from the eighth (v0 = theta), and at
    beta = 10 from the first; at beta = 0.01, 2 nu >= _K_SWITCH, so paths on
    the atom take the quadratic branch and nothing parks; at beta = 0.3
    paths reach the atom, but never half of the block."""

    CASES = {
        "beta0.1-v0theta": (0.1, TH, 0.01, None, (
            ["0x1.dffeb4ce064b9p-1", "0x1.81ba4e1e1492ap-1"],
            ["0x1.4a034b61c03f6p-13", "0x1.e73c7c8096a6ap-12"], 2622120, 2622120)),
        "beta1-stationary": (1.0, None, 2e-3, 1, (
            ["0x1.f3754bdc4765bp-1", "0x1.eb6326c6f0192p-1"],
            ["0x1.093973d907934p-10", "0x1.42a2693fc62a9p-10"], 2622120, 2687673)),
        "beta1-v0theta": (1.0, TH, 5e-3, 7, (
            ["0x1.98b4a3027196dp-1", "0x1.88d5ea89e631ep-1"],
            ["0x1.d5266db40972dp-10", "0x1.191edb5aea6abp-9"], 2622120, 2622120)),
        "beta0.01-v0zero": (0.01, 0.0, 1e-3, None, (
            ["0x1.efee95614c889p-1", "0x1.2c3a1d7c9cca3p-1"],
            ["0x1.61c841d932f21p-14", "0x1.ebedebf73c84ap-13"], 2622120, 2622120)),
        "beta0.3-v0theta": (0.3, TH, 5e-3, None, (
            ["0x1.5a82479263307p-1", "0x1.073a0eeec2f47p-1"],
            ["0x1.d05287453086ap-11", "0x1.66c71e5b391a7p-10"], 2622120, 2622120)),
        "beta10-stationary": (10.0, None, 2e-3, 0, (
            ["0x1.ff84137bef32bp-1", "0x1.fed5c95639badp-1"],
            ["0x1.b701ee629248ap-13", "0x1.4bac83b14e72ep-12"], 2622120, 2687673)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical(self, case, monkeypatch):
        beta, v0, z, parks_from, (survival, ci, path_steps, draws) = self.CASES[case]
        d = h.Dimensionless(theta=TH, beta=beta)
        cfg = h.McConfig(dt=1e-3, n_paths=2**16 + 17, seed=7, record_grid=(0.015, 0.04))
        widths = []
        step = montecarlo._qe_step

        def spy(v, *args):
            widths.append(v.size)
            return step(v, *args)

        monkeypatch.setattr(montecarlo, "_qe_step", spy)
        est = h.estimate_survival(d, z, v0, cfg)
        assert [x.hex() for x in est.survival.tolist()] == survival
        assert [x.hex() for x in est.ci_halfwidth.tolist()] == ci
        assert (est.path_steps, est.rng_draws) == (path_steps, draws)
        assert len(widths) == 2 * 40  # 40 steps in each block
        parked = [i for i, w in enumerate(widths) if w not in (2**16, 17)]
        assert (parked[0] if parked else None) == parks_from


class TestQeStep:
    """The facts that let the exponential branch run on every path that takes
    it: a path on the atom with ``Z >= z_atom`` stays there and one with
    ``Z < ndtri(q0)`` leaves it, and off the atom (where q < 0.8) no path
    with ``Z >= ndtri(0.8)`` moves."""

    @staticmethod
    def coef(beta, dt):
        e = math.exp(-dt)
        return (e, TH * -math.expm1(-dt), 0.5 * beta**2 * e * -math.expm1(-dt),
                0.25 * TH * beta**2 * math.expm1(-dt)**2)

    @staticmethod
    def step(v, normal, coef):
        """``v'`` and the mask of paths on the exponential branch."""
        n = v.size
        out = np.empty(n)
        scratch = (np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool))
        with np.errstate(invalid="ignore"):
            montecarlo._qe_step(v, normal, out, scratch, coef)
        return out, scratch[3]

    @pytest.mark.parametrize("beta", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_atom_threshold(self, beta, dt):
        coef = self.coef(beta, dt)
        k0 = coef[1] ** 2 / coef[3]
        assert k0 < montecarlo._K_SWITCH
        z_q = ndtri(2.0 * k0 / (2.0 + k0))
        z_atom = z_q + 1e-9  # as _block computes it
        near = [np.nextafter(z_q, -np.inf), z_q, np.nextafter(z_atom, -np.inf), z_atom]
        normal = np.concatenate([np.linspace(-8.0, 8.0, 16001),
                                 z_q + np.linspace(-1e-8, 1e-8, 2001), near])
        out, _ = self.step(np.zeros(normal.size), normal, coef)
        assert np.all(out[normal >= z_atom] == 0.0)
        assert np.all(out[normal < z_q] > 0.0)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_far_paths_above_the_quantile_stay_put(self, beta, dt):
        v, normal = (a.ravel() for a in np.meshgrid(
            np.logspace(-14.0, 0.0, 300), np.linspace(ndtri(0.8) + 1e-9, 9.0, 300)))
        out, far = self.step(v, normal, self.coef(beta, dt))
        assert far.sum() > v.size // 2
        assert np.all(out[far] == 0.0)
