import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hestonfp as h
from conftest import gamma_average_oracle

TIGHT = h.QuadConfig(abs_tol=1e-12, rel_tol=1e-10)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-9},
        {"rel_tol": 0.0},
        {"max_panels": 0},
        {"points_per_panel": 1},
    ])
    def test_rejected(self, kw):
        with pytest.raises(h.ConfigError):
            h.QuadConfig(**kw)

    def test_defaults(self):
        cfg = h.QuadConfig()
        assert cfg.abs_tol == 1e-9 and cfg.points_per_panel == 16


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
        with pytest.raises(h.ConfigError):
            h.sine_transform(lambda w: np.exp(-w), z)

    @given(a=st.floats(min_value=0.05, max_value=20.0),
           z=st.floats(min_value=1e-3, max_value=20.0))
    def test_exponential_factor_property(self, a, z):
        val, _, _ = h.sine_transform(lambda w: np.exp(-a * w), z)
        assert abs(val - (2.0 / math.pi) * math.atan(z / a)) <= 1e-7

    @pytest.mark.parametrize("omega_max", [None, 1.0])
    def test_nan_integrand_exhausts_leaf_budget(self, omega_max):
        # never-accepted leaves are bisected breadth-first until the shared
        # leaf budget runs out, in both the panel loop and the single pass
        with pytest.raises(h.NonConvergence):
            h.sine_transform(lambda w: np.full_like(w, np.nan), 1.0,
                             omega_max=omega_max)

    def test_nonconvergence_carries_partial(self):
        d = h.ModelParams(0.045, 8.62e-5, 0.0045).dimensionless()
        with pytest.raises(h.NonConvergence) as exc:
            h.survival_exact(h.State(0.2, d.theta, 0.5), d,
                             h.QuadConfig(max_panels=3))
        e = exc.value
        assert 0.0 < e.partial < 1.1
        assert e.err_estimate > 0.0
        assert e.panels_used >= 3


class TestAdaptiveDecisions:
    """Leaf counts, values and error bounds recorded from the depth-first,
    one-panel-at-a-time implementation: batching the refinement may reorder
    sums but must not move a single stopping or refinement decision.
    ``v=None`` starts at the long-run variance."""

    @pytest.mark.parametrize("kind,z,v,tau,beta,leaves,value,err", [
        # whole range in one adaptive pass (first sine zero past the cutoff)
        ("exact", 0.1, 1.0, 1.0, 0.1, 3, 0.10015558425580438, 6.366250733038467e-12),
        # panel sum stopped by two small contributions after 4 panels
        ("exact", 0.01, None, 0.5, 0.1, 5, 0.31184742617392336, 1.2402731111251348e-12),
        # first fig4 point (beta = 10, z = 1e-3): 16 panels of a slow tail
        ("exact", 1e-3, None, 0.5, 10.0, 25, 0.8219218213488749, 2.2418732417561807e-08),
        # beta = 10 tail stopped by series acceleration after 25 panels
        ("exact", 2e-3, None, 0.5, 10.0, 33, 0.9092107481578457, 1.3069520419900042e-12),
        ("averaged", 0.01, None, 1.0, 1.0, 27, 0.8720805751941723, 4.45678121191465e-08),
    ])
    def test_pinned(self, fig1_d, kind, z, v, tau, beta, leaves, value, err):
        d = h.Dimensionless(fig1_d.theta, beta)
        if kind == "exact":
            sp = h.survival_exact(h.State(z, d.theta if v is None else v, tau), d)
        else:
            sp = h.survival_averaged(z, tau, d)
        assert sp.panels_used == leaves
        assert abs(sp.value - value) <= 1e-14
        assert abs(sp.err_estimate - err) <= 1e-14


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
        with pytest.raises(h.ConfigError):
            h.survival_averaged(z, tau, fig1_d)

    def test_rejects_negative_arguments(self, fig1_d):
        with pytest.raises(h.ConfigError):
            h.survival_averaged(-0.01, 1.0, fig1_d)
        with pytest.raises(h.ConfigError):
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
        with pytest.raises(h.ConfigError):
            h.survival_wiener(-1.0, 1e-3, 1.0)
        with pytest.raises(h.ConfigError):
            h.survival_wiener(0.05, 0.0, 1.0)


class TestResultType:
    def test_out_of_range_flagging(self):
        assert not h.SPResult.make(0.5, 0.0, "exact", 1).out_of_range
        assert not h.SPResult.make(1.0 + 1e-6, 0.0, "exact", 1).out_of_range
        assert h.SPResult.make(1.0 + 1e-5, 0.0, "exact", 1).out_of_range
        assert h.SPResult.make(-1e-5, 0.0, "exact", 1).out_of_range

    def test_value_never_clamped(self):
        sp = h.SPResult.make(1.000002, 1e-9, "exact", 1)
        assert sp.value == 1.000002 and sp.out_of_range

    def test_hitting_complement(self, fig1_d):
        sp = h.survival_exact(h.State(0.01, fig1_d.theta, 0.5), fig1_d)
        w = h.hitting(sp)
        assert w.value == 1.0 - sp.value
        assert w.err_estimate == sp.err_estimate
        assert w.panels_used == sp.panels_used
