import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hestonfp as h
import hestonfp.asymptotics as asy
import hestonfp.cli as cli
from hestonfp import quadrature as quad
from conftest import gamma_average_oracle

TIGHT = h.QuadConfig(abs_tol=1e-12, rel_tol=1e-10)
# A tolerance no sum can meet: every point fails at the finest step.
UNREACHABLE = h.QuadConfig(abs_tol=1e-300, rel_tol=1e-300)

# (z, tau, beta, S) at v = theta, checked against a 30-digit mpmath integral.
SMALL_S = [
    (1e-5, 1e4, 1.0, 1.858151109138600e-06),
    (1e-5, 1e3, 0.1, 5.776162510826235e-06),
    (1e-4, 1e4, 0.1, 1.823382030252744e-05),
]

# The cases of TestAdaptiveDecisions.test_pinned, also run as one batch: each
# point with the leaves, value and err_estimate recorded from the removed
# panel loop (its leaf counts are kept only as part of that record).
PINNED = [
    # whole range in one adaptive pass (first sine zero past the cutoff)
    ("exact", 0.1, 1.0, 1.0, 0.1, 3, 0.10015558425580438, 6.366250733038467e-12),
    # panel sum stopped by two small contributions after 4 panels
    ("exact", 0.01, None, 0.5, 0.1, 5, 0.31184742617392336, 1.2402731111251348e-12),
    # first fig4 point (beta = 10, z = 1e-3): 16 panels of a slow tail
    ("exact", 1e-3, None, 0.5, 10.0, 25, 0.8219218213488749, 2.2418732417561807e-08),
    # beta = 10 tail stopped by series acceleration after 25 panels
    ("exact", 2e-3, None, 0.5, 10.0, 33, 0.9092107481578457, 1.3069520419900042e-12),
    ("averaged", 0.01, None, 1.0, 1.0, 27, 0.8720805751941723, 4.45678121191465e-08),
]


# float.hex of value and err_estimate, and panels_used, of each point of three
# grids, recorded from the per-point results of the calls survival replaced.
# A grid is (z, tau, v, beta per point) at theta = fig1_d.theta.
PINNED_GRIDS = {
    # the PINNED cases (the exact ones; the averaged one is the second point below)
    "pinned": lambda d: ([0.1, 0.01, 1e-3, 2e-3], [1.0, 0.5, 0.5, 0.5],
                         [1.0, d.theta, d.theta, d.theta], [0.1, 0.1, 10.0, 10.0]),
    # z = 0 and tau = 0 short-circuits among quadrature points
    "mixed": lambda d: ([0.01, 0.0, 0.02, 0.01, 0.0, 1e-3], [0.5, 0.5, 0.0, 0.0, 0.0, 2.0],
                        d.theta, [d.beta]),
    # theta and beta given per point
    "perpoint": lambda d: ([1e-3, 0.01, 0.03, 0.1, 0.0, 0.3], [0.5, 1.0, 3.0, 0.1, 1.0, 8.0],
                           np.array([1.0, 3.0, 0.1, 100.0, 1.0, 0.0]) * d.theta,
                           [0.1, 1.0, 10.0, 30.0, 0.01, 3.0]),
}
_Z = ("0x0.0p+0", "0x0.0p+0", 0)
_ONE = ("0x1.0000000000000p+0", "0x0.0p+0", 0)
PINNED_BITS = {
    "pinned-exact": [("0x1.9a3cbdee3f4b1p-4", "0x1.0e835a47224cdp-38", 398),
                     ("0x1.3f54ee8308fc6p-2", "0x1.933dcffacba42p-31", 166),
                     ("0x1.a4d2f01232208p-1", "0x1.9a4c5b5327473p-34", 166),
                     ("0x1.d1841239054d1p-1", "0x1.22210fd951b1ap-37", 166)],
    "mixed-exact": [("0x1.3f54ee8308fc6p-2", "0x1.933dcffacba42p-31", 166), _Z, _ONE, _ONE, _Z,
                    ("0x1.1a0478c560756p-6", "0x1.a0f1a2e0a3fb6p-44", 398)],
    "mixed-averaged": [("0x1.c2fd691796b76p-2", "0x1.579d86b87607fp-36", 166), _Z, _ONE, _ONE,
                       _Z, ("0x1.3e7041783dc82p-6", "0x1.4757d33a5e528p-45", 398)],
    "perpoint-exact": [("0x1.0ad018b8be6d3p-5", "0x1.e272b9385d7a6p-45", 398),
                       ("0x1.2de1e74d9b2c7p-1", "0x1.544a1f77d0781p-31", 166),
                       ("0x1.f9978b8c35feep-1", "0x1.5ee1060bb80c2p-41", 166),
                       ("0x1.eb557cd218861p-1", "0x1.035455915a3e6p-36", 166), _Z,
                       ("0x1.fb50b54c1e692p-1", "0x1.602e00c944017p-42", 166)],
    "perpoint-averaged": [("0x1.ae88a3af8e384p-5", "0x1.a7ba75b1b2e4ep-49", 398),
                          ("0x1.be8158df55dd3p-1", "0x1.95dda18a56917p-34", 166),
                          ("0x1.f9b5f99043902p-1", "0x1.1c6046712c343p-38", 166),
                          ("0x1.fff89a4f193e4p-1", "0x1.4ace4c556cfbcp-43", 166), _Z,
                          ("0x1.fb0807f5c403ep-1", "0x1.7c6d6832ca94ap-42", 166)],
}


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-9},
        {"rel_tol": 0.0},
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
    ])
    def test_rejected(self, kw):
        with pytest.raises(h.ConfigError):
            h.QuadConfig(**kw)

    def test_defaults(self):
        assert h.QuadConfig() == h.QuadConfig(abs_tol=1e-9, rel_tol=1e-7)


class TestSineTransform:
    """Closed-form targets: exp(-a w) -> (2/pi) atan(z/a) and
    exp(-a w^2) -> erf(z / (2 sqrt(a)))."""

    @pytest.mark.parametrize("a,z", [(0.5, 0.3), (2.0, 10.0), (0.05, 0.01)])
    def test_exponential_factor(self, a, z):
        val, err, _ = h.sine_transform(lambda w: np.exp(-a * w), z)
        target = (2.0 / math.pi) * math.atan(z / a)
        assert abs(val - target) <= 1e-8
        assert abs(val - target) <= max(err, 1e-13)

    @pytest.mark.parametrize("a,z", [(1.0, 1.0), (0.2, 3.0)])
    def test_gaussian_factor(self, a, z):
        val, err, _ = h.sine_transform(lambda w: np.exp(-a * w * w), z)
        target = math.erf(z / (2.0 * math.sqrt(a)))
        assert abs(val - target) <= 1e-8
        assert abs(val - target) <= max(err, 1e-13)

    def test_lorentzian_factor(self):
        # 1/w^2 tail decay: exercises the alternating-tail acceleration
        val, _, _ = h.sine_transform(lambda w: 1.0 / (1.0 + w * w), 2.0)
        assert abs(val - (1.0 - math.exp(-2.0))) <= 1e-8

    def test_zero_distance_short_circuit(self):
        assert h.sine_transform(lambda w: np.exp(-w), 0.0) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_distance(self, z):
        with pytest.raises(h.ParameterError):
            h.sine_transform(lambda w: np.exp(-w), z)

    @pytest.mark.parametrize("z", [-1.0, -1e-300])
    def test_rejects_negative_distance_before_evaluating(self, z):
        # a negative z once ran the quadrature to its panel limit (~12 s)
        calls = []

        def F(w):
            calls.append(w.size)
            return np.exp(-w)

        start = time.perf_counter()
        with pytest.raises(h.ParameterError):
            h.sine_transform(F, z)
        assert not calls
        assert time.perf_counter() - start < 0.5

    @given(a=st.floats(min_value=0.05, max_value=20.0),
           z=st.floats(min_value=1e-3, max_value=20.0))
    def test_exponential_factor_property(self, a, z):
        val, _, _ = h.sine_transform(lambda w: np.exp(-a * w), z)
        assert abs(val - (2.0 / math.pi) * math.atan(z / a)) <= 1e-7

    def test_nan_integrand_never_converges(self):
        # NaN sums never agree: the point fails at the finest step
        with pytest.raises(h.NonConvergence) as exc:
            h.sine_transform(lambda w: np.full_like(w, np.nan), 1.0)
        assert math.isnan(exc.value.partial)
        assert exc.value.panels_used == sum(quad._rule(quad._H_START / 2**k)[0].size
                                            for k in range(7))

    def test_nonconvergence_carries_partial(self):
        d = h.ModelParams(0.045, 8.62e-5, 0.0045).dimensionless()
        with pytest.raises(h.NonConvergence) as exc:
            h.survival_exact(h.State(0.2, d.theta, 0.5), d, UNREACHABLE)
        e = exc.value
        assert 0.0 < e.partial < 1.1
        assert e.err_estimate > 0.0
        assert e.panels_used >= 3

    def test_small_survival_is_relatively_accurate(self, fig1_d):
        # values from a 30-digit mpmath integral of the same sine transform
        for z, tau, beta, want in SMALL_S:
            d = h.Dimensionless(fig1_d.theta, beta)
            got = h.survival_exact(h.State(z, d.theta, tau), d, TIGHT).value
            assert abs(got - want) <= 1e-12 * want


class TestAdaptiveDecisions:
    """The points the removed panel loop's decisions were pinned on: the
    value lies within the recorded and the new error bound of the recorded
    value.  ``v=None`` starts at the long-run variance."""

    @pytest.mark.parametrize("kind,z,v,tau,beta,leaves,value,err", PINNED)
    def test_pinned(self, fig1_d, kind, z, v, tau, beta, leaves, value, err):
        d = h.Dimensionless(fig1_d.theta, beta)
        if kind == "exact":
            sp = h.survival_exact(h.State(z, d.theta if v is None else v, tau), d)
        else:
            sp = h.survival_averaged(z, tau, d)
        assert abs(sp.value - value) <= err + sp.err_estimate


def _full_rule(hstep):
    """The Ooura-Mori rule of step ``hstep`` with every node whose weight is
    finite and nonzero: ``quadrature._rule``'s map, without its trimming."""
    m = math.pi / hstep
    b = 0.25
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    n = np.arange(round(-12.0 / hstep), round(8.0 / hstep) + 1)
    t = n * hstep
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = 2.0 * t - a * np.expm1(-t) + b * np.expm1(t)
        dg = 2.0 + a * np.exp(-t) + b * np.exp(t)
        d = np.expm1(g)
        pos = t > 0.0
        phi = t * np.where(pos, 1.0 + 1.0 / d, np.exp(g) / d)
        dlog = (1.0 - t * dg / d) / t
        sine = np.where(pos, np.where(n % 2, -1.0, 1.0) * np.sin(m * t / d), np.sin(m * phi))
        g1, g2 = 2.0 + a + b, b - a
        phi[n == 0], dlog[n == 0], sine[n == 0] = 1.0 / g1, (g1 * g1 - g2) / (2.0 * g1), \
            np.sin(m / g1)
        w = (2.0 / math.pi) * hstep * dlog * sine
    keep = np.isfinite(w) & (w != 0.0)
    return m * phi[keep], w[keep]


# Every step level, from _H_START down to _H_MIN = _H_START / 64.
_LEVELS = [quad._H_START / 2**k for k in range(7)]


def _seeded_points(n=24, seed=2024):
    """Log-uniform ``(z, v, tau, theta, beta)`` over the ranges the CLI reaches."""
    rng = np.random.default_rng(seed)

    def logu(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)

    theta = np.full(n, 1.9156e-3)
    return logu(3e-4, 3.0), theta * logu(1e-3, 3e3), logu(1e-3, 1e3), theta, logu(0.01, 30.0)


class TestTrimmedRule:
    """Each step level drops the smallest-weight nodes whose weights sum to
    at most ``quadrature._TRIM``; with ``0 < F <= 1`` that mass bounds what
    the dropping changes, and every ``err_estimate`` includes it."""

    @pytest.mark.parametrize("hstep", _LEVELS)
    def test_dropped_mass_within_budget(self, hstep):
        u, w, dropped = quad._rule(hstep)
        full_u, full_w = _full_rule(hstep)
        kept = np.isin(full_u, u)
        np.testing.assert_array_equal(full_u[kept], u)
        np.testing.assert_array_equal(full_w[kept], w)
        gone = np.abs(full_w[~kept])
        assert gone.size and dropped <= quad._TRIM == 1e-20
        assert math.isclose(gone.sum(), dropped, rel_tol=1e-12)
        assert gone.max() <= np.abs(w).min()

    @pytest.mark.parametrize("kind", ["exact", "averaged"])
    def test_trimmed_sum_within_dropped_mass(self, kind):
        z, v, tau, theta, beta = (a[:, None] for a in _seeded_points())
        for hstep in _LEVELS:
            u, w, dropped = quad._rule(hstep)
            sums = []
            for nodes, weights in ((u, w), _full_rule(hstep)):
                omega = nodes / z
                if kind == "exact":
                    f = weights * np.exp(quad._log_factor_exact(omega, tau, v, theta, beta))
                else:
                    f = weights * np.exp(quad._log_factor_averaged(omega, tau, theta, beta))
                sums.append((f.sum(axis=1), np.abs(f).sum(axis=1)))
            (trimmed, _), (full, mag) = sums
            assert np.all(np.abs(trimmed - full) <= dropped + quad._ROUNDING * mag)

    def test_err_estimate_covers_dropped_mass(self):
        z, v, tau, theta, beta = _seeded_points()
        d = [h.Dimensionless(t, b) for t, b in zip(theta, beta)]
        nodes = np.cumsum([quad._rule(hs)[0].size for hs in _LEVELS])
        for grid in (h.survival(z, tau, d, v), h.survival(z, tau, d)):
            for panels, err in zip(grid.panels_used, grid.err_estimate, strict=True):
                last = int(np.flatnonzero(nodes == panels)[0])
                assert last >= 1 and err >= quad._rule(_LEVELS[last])[2]

    @pytest.mark.parametrize("z", [1e-50, 1e-200])
    def test_err_estimate_covers_survival_below_budget(self, fig1_d, z):
        # S is linear in z near the barrier and lies far below the dropped
        # mass here, so the trimmed rule may return 0
        for call in (lambda z: h.survival_exact(h.State(z, fig1_d.theta, 0.5), fig1_d),
                     lambda z: h.survival_averaged(z, 0.5, fig1_d)):
            slope = call(1e-10).value / 1e-10
            sp = call(z)
            assert 0.0 < slope * z < quad._TRIM
            assert abs(sp.value - slope * z) <= sp.err_estimate


def _same_as_single_calls(grid, z, tau, d, v=None):
    """Every point of the grid call ``survival(z, tau, d, v)``, in flat
    order, equals its one-point call."""
    ds = [d] if isinstance(d, h.Dimensionless) else list(d)
    *axes, j = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                     for a in (z, tau, 0.0 if v is None else v)),
                                   np.arange(len(ds)))
    fields = (grid.value, grid.err_estimate, grid.panels_used, grid.out_of_range)
    points = zip(*(np.ravel(a).tolist() for a in (*fields, *axes, j)), strict=True)
    for value, err, panels, out, zi, ti, vi, ji in points:
        if v is None:
            one = h.survival_averaged(zi, ti, ds[ji])
        else:
            one = h.survival_exact(h.State(zi, vi, ti), ds[ji])
        assert panels == one.panels_used
        assert abs(value - one.value) <= 1e-14
        assert abs(err - one.err_estimate) <= 1e-14
        assert grid.method == one.method and out == one.out_of_range


def _exp_family(nan_points=()):
    """``F(w, i) = exp(-a_i w)`` with ``a_i = 0.1 (i + 1)``, NaN at ``nan_points``."""
    def F(w, i):
        f = np.exp(-0.1 * (i + 1) * w)
        return np.where(np.isin(i, nan_points), np.nan, f)
    return F


def _first_raised(calls):
    for call in calls:
        try:
            call()
        except h.NonConvergence as exc:
            return exc
    raise AssertionError("no point failed")


def _failure(e):
    """What a ``NonConvergence`` reports, comparable when ``partial`` is NaN."""
    return str(e), repr(e.partial), repr(e.err_estimate), e.panels_used


class TestBatch:
    """A grid changes nothing per point: equal ``panels_used``, value and
    error bound within 1e-14 of the one-point call, and the failure of the
    first point a loop over the points would meet."""

    @pytest.mark.parametrize("argv", [["figure", f"fig{i}"] for i in (2, 3, 4, 5, 6, 7, 8, 10)]
                             + [["sweep"]], ids=lambda a: a[-1])
    def test_cli_batches_match_single_calls(self, argv, monkeypatch, capsys):
        calls = []

        def recording(*args):
            calls.append((quad.survival(*args), args))
            return calls[-1][0]

        monkeypatch.setattr(cli, "survival", recording)
        monkeypatch.setattr(asy, "survival", recording)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert sum(np.size(grid.value) for grid, _ in calls) >= 48
        for grid, (z, tau, d, v, _) in calls:
            _same_as_single_calls(grid, z, tau, d, v)

    def test_pinned_cases_in_one_batch(self, fig1_d):
        for kind in ("exact", "averaged"):
            cases = [c for c in PINNED if c[0] == kind]
            z, v, tau, beta, _, value, err = (np.array(x, dtype=float)
                                              for x in list(zip(*cases))[1:])
            v = np.where(np.isnan(v), fig1_d.theta, v) if kind == "exact" else None
            d = [h.Dimensionless(fig1_d.theta, b) for b in beta]
            grid = h.survival(z, tau, d, v)
            assert np.all(np.abs(grid.value - value) <= err + grid.err_estimate)
            _same_as_single_calls(grid, z, tau, d, v)

    def test_short_circuits_mixed_in(self, fig1_d):
        z = [0.01, 0.0, 0.02, 0.01, 0.0, 1e-3]
        tau = [0.5, 0.5, 0.0, 0.0, 0.0, 2.0]
        exact = h.survival(z, tau, fig1_d, fig1_d.theta)
        averaged = h.survival(z, tau, fig1_d)
        assert exact.value[1:5].tolist() == [0.0, 1.0, 1.0, 0.0]
        assert not exact.panels_used[1:5].any() and not averaged.panels_used[1:5].any()
        _same_as_single_calls(exact, z, tau, fig1_d, fig1_d.theta)
        _same_as_single_calls(averaged, z, tau, fig1_d)

    @pytest.mark.parametrize("name", sorted(PINNED_BITS))
    def test_pinned_bits(self, fig1_d, name):
        # each point's value and err_estimate to the bit, and its panels_used
        grid, kind = name.split("-")
        z, tau, v, betas = PINNED_GRIDS[grid](fig1_d)
        d = [h.Dimensionless(fig1_d.theta, b) for b in betas]
        res = h.survival(z, tau, d, v if kind == "exact" else None)
        got = [(a.hex(), b.hex(), n) for a, b, n in
               zip(res.value.tolist(), res.err_estimate.tolist(), res.panels_used.tolist())]
        assert got == PINNED_BITS[name]

    def test_fields_take_the_broadcast_shape(self, fig1_d):
        d = [fig1_d, h.Dimensionless(fig1_d.theta, 1.0), h.Dimensionless(fig1_d.theta, 10.0)]
        for v in (fig1_d.theta, None):
            grid = h.survival([[0.01], [0.02]], 0.5, d, v)
            for field in (grid.value, grid.err_estimate, grid.panels_used, grid.out_of_range):
                assert isinstance(field, np.ndarray) and field.shape == (2, 3)
            _same_as_single_calls(grid, [[0.01], [0.02]], 0.5, d, v)

    def test_scalar_call_gives_python_scalars(self, fig1_d):
        one = h.survival_exact(h.State(0.01, fig1_d.theta, 0.5), fig1_d)
        assert one == h.survival(0.01, 0.5, fig1_d, fig1_d.theta)
        for sp in (one, h.survival_averaged(0.01, 0.5, fig1_d), h.survival(0.0, 0.5, fig1_d)):
            assert [type(x) for x in (sp.value, sp.err_estimate, sp.panels_used,
                                      sp.out_of_range)] == [float, float, int, bool]

    def test_empty_batch(self, fig1_d):
        for v in (fig1_d.theta, None):
            grid = h.survival([], 0.5, fig1_d, v)
            for field in (grid.value, grid.err_estimate, grid.panels_used, grid.out_of_range):
                assert field.shape == (0,)

    @pytest.mark.parametrize("nan_points", [(5,), (6, 2), tuple(range(8))])
    def test_nan_point_fails_as_the_loop_would(self, nan_points):
        z = np.geomspace(0.05, 20.0, 8)
        F = _exp_family(nan_points)
        with pytest.raises(h.NonConvergence) as batch:
            quad._sine_transforms(F, z, h.QuadConfig())
        first = _first_raised(
            (lambda i=i: h.sine_transform(lambda w: F(w, i), z[i])) for i in range(z.size))
        assert batch.value.point == min(nan_points)
        assert _failure(batch.value) == _failure(first)

    def test_panel_limit_fails_as_the_loop_would(self, fig1_d):
        # no point meets the tolerance; points 0 and 3 short-circuit, so the
        # first failure a loop meets is point 1's
        z = [0.0, 1e-3, 3e-3, 0.0, 0.1]
        with pytest.raises(h.NonConvergence) as batch:
            h.survival(z, 0.5, fig1_d, fig1_d.theta, UNREACHABLE)
        first = _first_raised(
            (lambda zi=zi: h.survival_exact(h.State(zi, fig1_d.theta, 0.5), fig1_d,
                                            UNREACHABLE))
            for zi in z)
        assert batch.value.point == 1
        assert _failure(batch.value) == _failure(first)

    def test_nan_batch_is_bounded(self):
        # every point fails, point 0 first, and no call of F sees more than
        # _MAX_NODES nodes however many points there are
        sizes = []
        F = _exp_family(tuple(range(256)))

        def counted(w, i):
            sizes.append(np.size(w))
            return F(w, i)

        start = time.perf_counter()
        with pytest.raises(h.NonConvergence) as exc:
            quad._sine_transforms(counted, np.ones(256), h.QuadConfig())
        assert time.perf_counter() - start < 5.0
        assert exc.value.point == 0
        assert max(sizes) <= quad._MAX_NODES

    def test_rejects_bad_distance_before_evaluating(self, fig1_d, monkeypatch):
        F = _exp_family()
        calls = []

        def counted(w, i):
            calls.append(w)
            return F(w, i)

        for z in (-1.0, math.nan, math.inf):
            with pytest.raises(h.ParameterError):
                h.sine_transform(lambda w: counted(w, 0), z)
        assert not calls
        monkeypatch.setattr(quad, "_sine_transforms", lambda *args: calls.append(args))
        for z, tau, v in (([0.1, -1.0], 0.5, fig1_d.theta), (0.1, 0.5, [fig1_d.theta, math.nan]),
                          ([0.1, -1.0], 0.5, None), (0.1, [0.5, math.inf], None)):
            with pytest.raises(h.ParameterError):
                h.survival(z, tau, fig1_d, v)
        assert not calls


class TestSurvivalExact:
    def test_boundary_start(self, fig1_d):
        sp = h.survival_exact(h.State(0.0, fig1_d.theta, 0.5), fig1_d)
        assert sp.value == 0.0 and not sp.out_of_range

    def test_zero_horizon(self, fig1_d):
        sp = h.survival_exact(h.State(0.01, fig1_d.theta, 0.0), fig1_d)
        assert sp.value == 1.0

    def test_frozen_reference_point(self, fig1_d):
        # value pinned against abs_tol=1e-12 run of the same integral
        sp = h.survival_exact(h.State(0.01, fig1_d.theta, 0.5), fig1_d)
        assert sp.method == "exact"
        assert abs(sp.value - 0.31184742617392336) <= 1e-9
        assert not sp.out_of_range

    def test_err_estimate_honest(self, fig1_d):
        state = h.State(0.03, 3.0 * fig1_d.theta, 1.7)
        loose = h.survival_exact(state, fig1_d, h.QuadConfig(abs_tol=1e-6, rel_tol=1e-5))
        tight = h.survival_exact(state, fig1_d, TIGHT)
        assert abs(loose.value - tight.value) <= max(loose.err_estimate, 1e-12)
        # a fig6 point: averaged, beta = 100, at the default tolerance
        d = h.Dimensionless(fig1_d.theta, 100.0)
        default = h.survival_averaged(0.01, 1.0, d)
        tight = h.survival_averaged(0.01, 1.0, d, TIGHT)
        assert abs(default.value - tight.value) <= max(default.err_estimate, 1e-12)

    @pytest.mark.parametrize("z", [1e-200, 1e-300])
    def test_tiny_distance_converges(self, fig1_d, z):
        # the nodes reach omega = u/z ~ 1e303, where (beta*omega)**2 overflows
        for sp in (h.survival_exact(h.State(z, fig1_d.theta, 0.5), fig1_d),
                   h.survival_averaged(z, 0.5, fig1_d)):
            assert 0.0 <= sp.value <= 1e-9 and sp.err_estimate <= 1e-9

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_subnormal_distance_converges_silently(self, fig1_d, beta):
        # u/z passes the largest float, and so does beta*omega at beta > 1;
        # these gave NaN (NonConvergence) and RuntimeWarnings
        d = h.Dimensionless(theta=fig1_d.theta, beta=beta)
        z, tau = [1e-306, 1e-310, 5e-324], [[0.5], [5.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = (h.survival(z, tau, d, d.theta), h.survival(z, tau, d))
        assert sum(sp.value.size for sp in results) == 12
        for sp in results:
            assert np.all((0.0 <= sp.value) & (sp.value <= 1e-9) & (sp.err_estimate <= 1e-9))

    def test_monotone_in_distance(self, fig1_d):
        vals = [h.survival_exact(h.State(z, fig1_d.theta, 0.5), fig1_d).value
                for z in (0.005, 0.01, 0.02, 0.05, 0.1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_horizon(self, fig1_d):
        vals = [h.survival_exact(h.State(0.02, fig1_d.theta, t), fig1_d).value
                for t in (0.1, 0.3, 1.0, 3.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_variance(self, fig1_d):
        vals = [h.survival_exact(h.State(0.02, v, 0.5), fig1_d).value
                for v in (0.2 * fig1_d.theta, fig1_d.theta, 5.0 * fig1_d.theta)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestSurvivalAveraged:
    def test_matches_gamma_average_small_vol_of_vol(self, fig1_d):
        for z, tau in [(0.01, 0.5), (0.05, 2.0)]:
            got = h.survival_averaged(z, tau, fig1_d).value
            want = gamma_average_oracle(z, tau, fig1_d)
            assert abs(got - want) <= 1e-8

    def test_matches_gamma_average_unit_vol_of_vol(self, fig1_d):
        d1 = h.Dimensionless(fig1_d.theta, 1.0)
        for z, tau in [(0.01, 1.0), (0.3, 5.0)]:
            got = h.survival_averaged(z, tau, d1).value
            want = gamma_average_oracle(z, tau, d1)
            assert abs(got - want) <= 1e-5

    def test_frozen_reference_point(self, fig1_d):
        d1 = h.Dimensionless(fig1_d.theta, 1.0)
        sp = h.survival_averaged(0.01, 1.0, d1)
        assert abs(sp.value - 0.8720805751941723) <= 1e-6
        assert sp.method == "averaged"

    def test_short_circuits(self, fig1_d):
        assert h.survival_averaged(0.0, 1.0, fig1_d).value == 0.0
        assert h.survival_averaged(0.01, 0.0, fig1_d).value == 1.0

    @pytest.mark.parametrize("z,tau", [(math.nan, 1.0), (math.inf, 1.0),
                                       (0.01, math.nan), (0.01, math.inf)])
    def test_rejects_non_finite_arguments(self, fig1_d, z, tau):
        with pytest.raises(h.ParameterError):
            h.survival_averaged(z, tau, fig1_d)

    def test_rejects_negative_arguments(self, fig1_d):
        with pytest.raises(h.ParameterError):
            h.survival_averaged(-0.01, 1.0, fig1_d)
        with pytest.raises(h.ParameterError):
            h.survival_averaged(0.01, -1.0, fig1_d)

    @pytest.mark.xfail(strict=True, reason="documented 1e-3 agreement with the "
                       "constant-volatility erf curve is not attained at "
                       "beta=0.01: max deviation is 6.97e-3 near the knee")
    def test_near_erf_at_tiny_vol_of_vol(self, fig1_d):
        d = h.Dimensionless(fig1_d.theta, 0.01)
        zs = np.geomspace(2e-3, 0.2, 12)
        worst = 0.0
        for z in zs:
            s = h.survival_averaged(float(z), 0.5, d).value
            lam = 2.0 * d.theta * 0.5
            worst = max(worst, abs(s - math.erf(z / math.sqrt(lam))))
        assert worst <= 1e-3


class TestWienerBaseline:
    def test_values(self):
        assert h.survival_wiener(0.0, 1e-3, 1.0) == 0.0
        assert h.survival_wiener(0.05, 1e-3, 0.0) == 1.0
        got = h.survival_wiener(0.05, 1.92e-3, 0.5)
        assert math.isclose(got, math.erf(0.05 / math.sqrt(2 * 1.92e-3 * 0.5)),
                            rel_tol=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(h.ParameterError):
            h.survival_wiener(-1.0, 1e-3, 1.0)
        with pytest.raises(h.ParameterError):
            h.survival_wiener(0.05, 0.0, 1.0)
        with pytest.raises(h.ParameterError):
            h.survival_wiener(np.array([0.05, math.nan]), 1e-3, 1.0)
        # infinite input gave 1.0, 0.0 and 0.0
        for args in ((math.inf, 1e-3, 1.0), (0.05, math.inf, 1.0), (0.05, 1e-3, math.inf),
                     (np.array([0.05, math.inf]), 1e-3, 1.0)):
            with pytest.raises(h.ParameterError):
                h.survival_wiener(*args)


class TestResultType:
    def test_out_of_range_flagging(self):
        assert not h.SPResult.make(0.5, 0.0, "exact", 1).out_of_range
        assert not h.SPResult.make(1.0 + 1e-6, 0.0, "exact", 1).out_of_range
        assert h.SPResult.make(1.0 + 1e-5, 0.0, "exact", 1).out_of_range
        assert h.SPResult.make(-1e-5, 0.0, "exact", 1).out_of_range

    def test_flag_is_elementwise(self):
        sp = h.SPResult.make(np.array([0.5, 1.0 + 1e-5, -1e-5, math.nan]), np.zeros(4), "exact",
                             np.ones(4, dtype=int))
        assert sp.out_of_range.tolist() == [False, True, True, True]
        assert type(h.SPResult.make(0.5, 0.0, "exact", 1).out_of_range) is bool

    def test_grid_results_compare_field_by_field(self, fig1_d):
        # == raised "The truth value of an array ... is ambiguous"
        grid = h.survival([0.01, 0.02], 0.5, fig1_d)
        assert grid == h.survival([0.01, 0.02], 0.5, fig1_d)
        assert grid != h.survival([0.01, 0.03], 0.5, fig1_d)
        assert grid != h.survival([0.01], 0.5, fig1_d)
        assert grid != h.survival([0.01, 0.02], 0.5, fig1_d, fig1_d.theta)
        nan = h.SPResult.make(np.array([math.nan]), np.zeros(1), "exact", np.ones(1, dtype=int))
        assert nan == nan and nan != replace(nan, value=np.array([math.nan]))

    def test_value_never_clamped(self):
        sp = h.SPResult.make(1.000002, 1e-9, "exact", 1)
        assert sp.value == 1.000002 and sp.out_of_range

    def test_hitting_complement(self, fig1_d):
        sp = h.survival_exact(h.State(0.01, fig1_d.theta, 0.5), fig1_d)
        w = h.hitting(sp)
        assert w.value == 1.0 - sp.value
        assert w.err_estimate == sp.err_estimate
        assert w.panels_used == sp.panels_used
