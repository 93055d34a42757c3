import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import integrate, stats

import hestonfp as h
from conftest import rk4_riccati

BETAS = (0.01, 0.1, 1.0, 10.0)


class TestParams:
    def test_dimensionless_mapping(self, fig1_params):
        d, state = h.to_dimensionless(fig1_params, y=8.62e-5, t=10.0, L=-0.1, x=0.0)
        assert abs(d.theta - 1.9156e-3) < 1e-7
        assert math.isclose(d.beta, 0.1, rel_tol=1e-12)
        assert math.isclose(d.nu, 2.0 * d.theta / d.beta**2, rel_tol=0.0, abs_tol=0.0)
        assert math.isclose(state.z, 0.1, rel_tol=1e-15)
        assert math.isclose(state.v, 8.62e-5 / 0.045, rel_tol=1e-15)
        assert math.isclose(state.tau, 0.45, rel_tol=1e-15)

    def test_start_on_barrier(self, fig1_params):
        _, state = h.to_dimensionless(fig1_params, y=0.0, t=0.0, L=0.3, x=0.3)
        assert state.z == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=-1.0, m_sq=8.62e-5, k=0.0045),
        dict(alpha=0.045, m_sq=0.0, k=0.0045),
        dict(alpha=0.045, m_sq=8.62e-5, k=-0.1),
        dict(alpha=float("nan"), m_sq=8.62e-5, k=0.0045),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(h.ParameterError):
            h.ModelParams(**kwargs)

    def test_invalid_state_rejected(self, fig1_params):
        with pytest.raises(h.ParameterError):
            h.to_dimensionless(fig1_params, y=-1e-9, t=1.0, L=0.0, x=1.0)
        with pytest.raises(h.ParameterError):
            h.to_dimensionless(fig1_params, y=1e-4, t=float("inf"), L=0.0, x=1.0)


class TestKernel:
    def test_omega_zero_hardcoded(self):
        assert h.kernel(0.0, beta=3.7) == (1.0, 1.0, 0.0)

    def test_reference_point(self):
        delta, mu_plus, mu_minus = h.kernel(1.0, beta=1.0)
        assert math.isclose(delta, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(mu_plus, (math.sqrt(2.0) + 1.0) / 2.0, rel_tol=1e-15)
        assert math.isclose(mu_minus, (math.sqrt(2.0) - 1.0) / 2.0, rel_tol=1e-12)

    @given(omega=st.floats(min_value=0.0, max_value=1e4),
           beta=st.sampled_from(BETAS))
    def test_identities(self, omega, beta):
        delta, mu_plus, mu_minus = h.kernel(omega, beta=beta)
        assert delta >= 1.0
        assert abs(mu_plus - mu_minus - 1.0) <= 1e-12
        assert abs(mu_plus + mu_minus - delta) <= 1e-12 * delta
        target = (beta * omega) ** 2 / 4.0
        assert abs(mu_plus * mu_minus - target) <= 1e-12 * max(target, 1.0)

    def test_rejects_negative_omega(self):
        with pytest.raises(h.ParameterError):
            h.kernel(-0.5, beta=1.0)

    def test_delta_within_one_ulp_of_hypot(self):
        x = np.logspace(-300, 300, 6001)
        delta = h.kernel(x, beta=1.0)[0]
        ref = np.hypot(1.0, x)
        assert np.all(np.abs(delta - ref) <= np.spacing(ref))

    def test_large_argument_without_overflow(self):
        # x*x overflows above about 1.34e154; delta = x is exact above 1e150
        x = np.array([1.0000001e150, 1e154, 1.34e154, 1e200, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta, _, mu_minus = h.kernel(x, beta=1.0)
        np.testing.assert_array_equal(delta, x)
        big = x >= 1e154
        assert np.all(np.isfinite(mu_minus))
        np.testing.assert_allclose(mu_minus[big], x[big] / 2.0, rtol=4 * np.finfo(float).eps)


class TestRiccati:
    def test_initial_condition(self):
        assert h.riccati_B(2.0, 0.0, 1.0) == 0.0

    def test_stationary_limit(self):
        _, _, mu_minus = h.kernel(3.0, beta=2.0)
        assert math.isclose(h.riccati_B(3.0, 1e4, 2.0), mu_minus, rel_tol=1e-14)

    def test_against_rk4(self):
        # independently integrated with step 1e-4: 0.15047884749273796
        oracle = rk4_riccati(1.0, 1.0, 1.0)
        assert math.isclose(oracle, 0.15047884749273796, rel_tol=1e-12)
        assert math.isclose(h.riccati_B(1.0, 1.0, 1.0), oracle, rel_tol=1e-8)

    @given(omega=st.floats(min_value=1e-3, max_value=100.0),
           tau=st.floats(min_value=1e-3, max_value=50.0),
           beta=st.sampled_from(BETAS))
    def test_bounded_and_monotone(self, omega, tau, beta):
        _, _, mu_minus = h.kernel(omega, beta=beta)
        b1 = h.riccati_B(omega, tau, beta)
        b2 = h.riccati_B(omega, tau * 1.5, beta)
        assert 0.0 <= b1 <= mu_minus * (1.0 + 1e-12)
        assert b2 >= b1 - 1e-15

    @given(omega=st.floats(min_value=1e-2, max_value=30.0),
           tau=st.floats(min_value=0.05, max_value=20.0),
           beta=st.sampled_from((0.1, 1.0, 10.0)))
    def test_ode_residual(self, omega, tau, beta):
        # The central-difference truncation error grows like (beta*omega)^3;
        # keep the probe where the h^2 term stays well below the bound.
        assume(beta * omega <= 20.0)
        hstep = 1e-5
        db = (h.riccati_B(omega, tau + hstep, beta)
              - h.riccati_B(omega, tau - hstep, beta)) / (2.0 * hstep)
        b = h.riccati_B(omega, tau, beta)
        resid = db + b + b * b - (beta * omega / 2.0) ** 2
        assert abs(resid) <= 1e-6


class TestExponentA:
    def test_initial_condition(self):
        assert h.exponent_A(5.0, 0.0, 1.92e-3, 1.0) == 0.0

    def test_derivative_matches_B(self):
        omega, beta, theta, tau = 1.0, 1.0, 1.92e-3, 0.5
        hstep = 1e-6
        da = (h.exponent_A(omega, tau + hstep, theta, beta)
              - h.exponent_A(omega, tau - hstep, theta, beta)) / (2.0 * hstep)
        want = (2.0 * theta / beta**2) * h.riccati_B(omega, tau, beta)
        assert math.isclose(da, want, rel_tol=1e-6)

    def test_against_trapezoid_quadrature(self):
        # (2*theta/beta**2) * integral of B over [0, 2] with 1e5 points:
        # 0.004085087954994673
        omega, beta, theta, tau = 2.0, 0.5, 1.92e-3, 2.0
        ts = np.linspace(0.0, tau, 100001)
        oracle = np.trapezoid((2.0 * theta / beta**2) * h.riccati_B(omega, ts, beta), ts)
        assert math.isclose(oracle, 0.004085087954994673, rel_tol=1e-9)
        assert math.isclose(h.exponent_A(omega, tau, theta, beta), oracle, rel_tol=1e-6)

    @given(omega=st.floats(min_value=1e-3, max_value=100.0),
           tau=st.floats(min_value=0.0, max_value=50.0),
           beta=st.sampled_from(BETAS))
    def test_nonnegative_and_monotone(self, omega, tau, beta):
        theta = 1.92e-3
        a1 = h.exponent_A(omega, tau, theta, beta)
        a2 = h.exponent_A(omega, tau + 0.5, theta, beta)
        assert a1 >= 0.0
        assert a2 >= a1

    def test_log_space_stability_small_beta(self):
        # exponent 2*theta/beta**2 ~ 4e3 at beta = 0.001 with theta ~ 1.92e-3:
        # must stay finite and positive, no overflow
        a = h.exponent_A(50.0, 2.0, 1.92e-3, 0.001)
        assert np.isfinite(a) and a > 0.0


class TestStationaryDensity:
    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.0, 2.0, 10.0])
    def test_normalization_mean_variance(self, nu):
        beta = 0.5
        theta = nu * beta**2 / 2.0
        total, _ = integrate.quad(h.stationary_density, 0.0, np.inf,
                                  args=(theta, beta), limit=200)
        mean, _ = integrate.quad(lambda v: v * h.stationary_density(v, theta, beta),
                                 0.0, np.inf, limit=200)
        second, _ = integrate.quad(lambda v: v * v * h.stationary_density(v, theta, beta),
                                   0.0, np.inf, limit=200)
        assert abs(total - 1.0) <= 1e-8
        assert math.isclose(mean, theta, rel_tol=1e-6)
        assert math.isclose(second - mean**2, theta * beta**2 / 2.0, rel_tol=1e-6)

    def test_zero_endpoint_by_shape(self, fig1_d):
        assert fig1_d.nu < 1.0
        assert h.stationary_density(0.0, fig1_d.theta, fig1_d.beta) == np.inf
        # nu > 1: vanishes at the origin
        assert h.stationary_density(0.0, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("nu,beta", [(0.0038, 1.0), (0.38, 0.1), (1.0, 0.5), (2.0, 0.5),
                                         (10.0, 0.5)])
    def test_bit_identical_to_scipy_gamma(self, nu, beta):
        theta = nu * beta**2 / 2.0
        scale = beta**2 / 2.0
        rng = np.random.default_rng(20261018)
        v = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12, theta, 1e3 * theta],
                            rng.gamma(nu, scale, 10**4)])
        with np.errstate(over="ignore"):   # the density at 5e-324 overflows for nu < 1
            got = h.stationary_density(v, theta, beta)
            want = stats.gamma.pdf(v, a=2.0 * theta / beta**2, scale=scale)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
        for x, w in zip(v[:6].tolist(), want[:6].tolist()):
            with np.errstate(over="ignore"):
                one = h.stationary_density(x, theta, beta)
            assert type(one) is float and one.hex() == w.hex()

    @pytest.mark.parametrize("v,theta,beta,named", [
        (-1e-300, 1.0, 0.5, "v"), (math.nan, 1.0, 0.5, "v"), (math.inf, 1.0, 0.5, "v"),
        ([0.1, math.inf], 1.0, 0.5, "v"),
        (0.1, 0.0, 0.5, "theta"), (0.1, -1.0, 0.5, "theta"), (0.1, math.nan, 0.5, "theta"),
        (0.1, math.inf, 0.5, "theta"),
        (0.1, 1.0, 0.0, "beta"), (0.1, 1.0, -0.5, "beta"), (0.1, 1.0, math.nan, "beta"),
        (0.1, 1.0, math.inf, "beta"), (0.1, 5e-324, 2.0, "nu"), (0.1, 1e300, 1e-10, "nu")])
    def test_out_of_domain_input_is_rejected(self, v, theta, beta, named):
        # NaN and negative parameters passed through silently, v = inf gave
        # NaN (nu > 1) or 0 (nu < 1), and nu over- or underflowed to a NaN
        with pytest.raises(h.ParameterError, match=f"^{named} must be"):
            h.stationary_density(v, theta, beta)


class TestScales:
    def test_variance_scale_examples(self):
        theta = 1.92e-3
        assert h.variance_scale(0.0, 0.0, theta) == 0.0
        got = h.variance_scale(1.0, theta, theta)
        want = theta * (2.0 + 2.0 * (1.0 - math.exp(-1.0)))
        assert math.isclose(got, want, rel_tol=1e-15)
        assert abs(got - 6.267e-3) < 5e-6
        # dominant term at long times
        assert math.isclose(h.variance_scale(1e10, 5.0, theta), 2.0 * theta * 1e10,
                            rel_tol=1e-6)

    @given(tau=st.floats(min_value=0.0, max_value=100.0),
           v=st.floats(min_value=0.0, max_value=1.0),
           bump=st.floats(min_value=1e-6, max_value=10.0))
    def test_variance_scale_monotone(self, tau, v, bump):
        theta = 1.92e-3
        base = h.variance_scale(tau, v, theta)
        assert h.variance_scale(tau + bump, v, theta) >= base
        assert h.variance_scale(tau, v + bump, theta) >= base

    def test_second_moment_examples(self):
        theta = 1.92e-3
        assert h.second_moment(0.0, 0.7, theta) == 0.0
        assert math.isclose(h.second_moment(3.0, theta, theta), theta * 3.0,
                            rel_tol=1e-15)
        want = theta * (1.0 + (1.0 - math.exp(-1.0)))
        assert math.isclose(h.second_moment(1.0, 2.0 * theta, theta), want,
                            rel_tol=1e-15)

    def test_second_moment_identity(self):
        # exactly theta*tau + (v - theta)*(1 - exp(-tau)), in the stable form
        theta, tau, v = 1.92e-3, 0.8, 5e-3
        assert h.second_moment(tau, v, theta) == theta * tau - (v - theta) * math.expm1(-tau)
