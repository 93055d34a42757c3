"""Closed-form approximations, tails, risk ratio, crossing level, fits.

Oracle comparisons use the exact quadrature; documented agreement levels
that the formulas do not actually attain are kept as strict xfails with the
measured deviation in the reason string.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hestonfp as h

TH = 1.92e-3


class TestRegimeTable:
    def test_all_tags_present(self):
        assert set(h.REGIMES) == {
            "erf_joint", "arctan_joint", "pheno", "erf_averaged",
            "arctan_averaged", "tail_gaussian", "tail_powerlaw", "wiener",
        }

    def test_validity_is_advisory_text(self):
        for regime in h.REGIMES.values():
            assert isinstance(regime.validity, str) and regime.validity


class TestGaussianRegime:
    def test_boundary_and_initial(self):
        assert h.survival_erf(0.0, TH, 0.5, TH) == 0.0
        assert h.survival_erf(0.01, 0.0, 0.0, TH) == 1.0

    def test_vectorised(self):
        z = np.array([0.0, 0.01, 0.1])
        out = h.survival_erf(z, TH, 0.5, TH)
        assert out.shape == (3,) and out[0] == 0.0 and out[2] > out[1]

    @pytest.mark.xfail(strict=True, reason="documented 1% agreement with the "
                       "exact quadrature at beta=0.1, v=theta, tau=0.5, "
                       "z=0.01 is not attained: measured 38.7% relative")
    def test_small_vol_of_vol_example(self):
        d = h.Dimensionless(TH, 0.1)
        exact = h.survival_exact(h.State(0.01, TH, 0.5), d).value
        approx = h.survival_erf(0.01, TH, 0.5, TH)
        assert abs(approx - exact) / exact <= 0.01

    def test_long_time_convergence_at_mean_variance(self):
        # (theta/beta^2)*tau >= 100 at beta=0.1 needs tau >= 521
        d = h.Dimensionless(TH, 0.1)
        for tau in (521.0, 1000.0):
            exact = h.survival_exact(h.State(0.01, TH, tau), d).value
            approx = h.survival_erf(0.01, TH, tau, TH)
            assert abs(approx - exact) / exact <= 0.05


class TestArctanRegime:
    def test_boundary(self):
        assert h.survival_arctan(0.0, TH, 0.5, TH, 10.0) == 0.0
        assert h.survival_arctan(0.01, 0.0, 0.0, TH, 10.0) == 1.0

    def test_large_vol_of_vol_example(self):
        d = h.Dimensionless(TH, 10.0)
        exact = h.survival_exact(h.State(0.01, TH, 0.5), d).value
        approx = h.survival_arctan(0.01, TH, 0.5, TH, 10.0)
        assert abs(approx - exact) / exact <= 0.05  # measured 0.006%

    def test_averaged_form_is_v0_special_case(self):
        for z in (0.001, 0.02, 0.4):
            assert (h.survival_avg_arctan(z, 0.7, TH, 5.0)
                    == h.survival_arctan(z, 0.0, 0.7, TH, 5.0))


class TestPheno:
    def test_boundary_and_initial(self):
        assert h.survival_pheno(0.0, TH, 0.5, TH, 1.0) == 0.0
        assert h.survival_pheno(0.01, 0.0, 0.0, TH, 1.0) == 1.0

    def test_long_time_limit_drops_beta(self):
        # default (printed) form tends to (2/pi) arctan(z/(theta*tau))
        tau = 1e8
        got = h.survival_pheno(0.01, TH, tau, TH, beta=7.0)
        want = (2.0 / math.pi) * math.atan(0.01 / (TH * tau))
        assert math.isclose(got, want, rel_tol=1e-7)

    def test_beta_factor_variant_matches_averaged_arctan_long_time(self):
        tau = 1e8
        got = h.survival_pheno(0.01, TH, tau, TH, beta=7.0, use_beta_factor=True)
        want = h.survival_avg_arctan(0.01, tau, TH, 7.0)
        assert math.isclose(got, want, rel_tol=1e-7)


class TestAveragedForms:
    def test_avg_erf_direct_value(self):
        # theta*tau = 1.92e-3, z=0.01 -> erf(0.01/sqrt(3.84e-3))
        got = h.survival_avg_erf(0.01, 1.0, TH)
        assert math.isclose(got, math.erf(0.01 / math.sqrt(3.84e-3)),
                            rel_tol=1e-14)

    def test_avg_erf_equals_wiener_baseline(self):
        for z, tau in [(0.01, 0.5), (0.05, 2.0), (0.3, 7.0)]:
            assert h.survival_avg_erf(z, tau, TH) == h.survival_wiener(z, TH, tau)

    def test_avg_arctan_example(self):
        d = h.Dimensionless(TH, 10.0)
        for z in np.geomspace(0.01, 0.1, 8):
            exact = h.survival_averaged(float(z), 0.5, d).value
            approx = h.survival_avg_arctan(float(z), 0.5, TH, 10.0)
            assert abs(approx - exact) / exact <= 0.05  # measured worst 0.018%

    def test_avg_arctan_initial_condition(self):
        assert h.survival_avg_arctan(0.0, 1.0, TH, 10.0) == 0.0
        assert h.survival_avg_arctan(0.01, 0.0, TH, 10.0) == 1.0


class TestGaussianTail:
    @pytest.mark.xfail(strict=True, reason="documented 5% agreement once "
                       "L^2/lambda >= 4 is not attained at the boundary: "
                       "measured 10.45% there; 5% needs L^2/lambda >= 9.2")
    def test_documented_onset(self):
        lam = 1.0
        L = 2.0  # L^2/lam = 4
        exact = 1.0 - math.erf(L / math.sqrt(lam))
        assert abs(h.tail_gaussian_hitting(L, lam) - exact) / exact <= 0.05

    def test_five_percent_beyond_measured_onset(self):
        lam = 1.0
        for q in (9.2, 12.0, 25.0):
            L = math.sqrt(q * lam)
            exact = 1.0 - math.erf(L / math.sqrt(lam))
            rel = abs(h.tail_gaussian_hitting(L, lam) - exact) / exact
            assert rel <= 0.05

    def test_vanishes_at_infinity(self):
        assert h.tail_gaussian_hitting(100.0, 1.0) == 0.0

    def test_doubling_quadruples_log_tail(self):
        lam, L = 1.0, 5.0
        a = -math.log(h.tail_gaussian_hitting(L, lam) * L)
        b = -math.log(h.tail_gaussian_hitting(2 * L, lam) * 2 * L)
        assert 3.8 <= b / a <= 4.0  # exactly 4 minus the shared log prefactor


class TestPowerLawTail:
    def test_product_with_level_is_constant(self):
        w1 = h.tail_powerlaw_hitting(0.1, 1.0, TH, 10.0)
        w2 = h.tail_powerlaw_hitting(0.7, 1.0, TH, 10.0)
        assert math.isclose(w1 * 0.1, w2 * 0.7, rel_tol=1e-15)

    def test_inverse_beta_scaling(self):
        w1 = h.tail_powerlaw_hitting(0.3, 1.0, TH, 10.0)
        w2 = h.tail_powerlaw_hitting(0.3, 1.0, TH, 20.0)
        assert math.isclose(w1, 2.0 * w2, rel_tol=1e-15)

    @pytest.mark.xfail(strict=True, reason="documented 2% agreement with "
                       "1 - averaged arctan once beta*L/(theta*tau) >= 10 is "
                       "not attained: the tail lacks the 2/pi factor, so the "
                       "relative deviation converges to pi/2 - 1 = 57.1%")
    def test_matches_arctan_complement(self):
        beta, tau = 10.0, 1.0
        for y in (10.0, 100.0):
            L = y * TH * tau / beta
            w = h.tail_powerlaw_hitting(L, tau, TH, beta)
            exact = 1.0 - h.survival_avg_arctan(L, tau, TH, beta)
            assert abs(w - exact) / exact <= 0.02


class TestRiskRatio:
    def test_below_one_in_the_bulk(self):
        d = h.Dimensionless(TH, 10.0)
        assert h.risk_ratio(0.005, 3.0, d) < 1.0

    def test_tends_to_one_for_small_vol_of_vol(self):
        d = h.Dimensionless(TH, 0.01)
        for z in np.geomspace(0.005, 0.1, 8):
            assert abs(h.risk_ratio(float(z), 3.0, d) - 1.0) <= 0.05

    @pytest.mark.xfail(strict=True, reason="documented factor-2 agreement "
                       "with sqrt(pi*theta_tau/2)*exp(z^2/(2 theta_tau)) is "
                       "not attained: measured ratio 0.064-0.066 at beta=10; "
                       "the variant divided by beta is the one within "
                       "factor 2 (0.64-0.66)")
    def test_growth_law_as_printed(self):
        d = h.Dimensionless(TH, 10.0)
        tt = TH * 3.0
        for z in (0.4, 0.5, 0.6):
            ratio = h.risk_ratio(z, 3.0, d) / h.ratio_asymptote(z, tt)
            assert 0.5 <= ratio <= 2.0

    def test_growth_law_with_beta_reinstated(self):
        d = h.Dimensionless(TH, 10.0)
        tt = TH * 3.0
        for z in (0.4, 0.5, 0.6):
            ratio = h.risk_ratio(z, 3.0, d) / h.ratio_asymptote(z, tt, beta=10.0)
            assert 0.5 <= ratio <= 2.0  # measured 0.64-0.66

    def test_division_domain_signalled(self):
        d = h.Dimensionless(TH, 10.0)
        with pytest.raises(h.DivisionDomain):
            h.risk_ratio(0.0, 3.0, d)
        with pytest.raises(h.DivisionDomain):
            # erfc underflows: z/sqrt(2 theta tau) ~ 132
            h.risk_ratio(10.0, 3.0, d)

    def test_array_matches_scalar_calls(self):
        d = h.Dimensionless(TH, 10.0)
        z = np.geomspace(1e-3, 0.6, 12)
        tau = np.array([[0.5], [3.0]])
        got = h.risk_ratio(z, tau, d)
        assert got.shape == (2, 12)
        for (i, j), r in np.ndenumerate(got):
            assert r == h.risk_ratio(float(z[j]), float(tau[i, 0]), d)

    @pytest.mark.parametrize("z,match", [([0.005, 0.0, 10.0], "requires"),
                                         ([0.005, 10.0, 0.0], "underflowed")])
    def test_array_signals_first_bad_point(self, z, match):
        with pytest.raises(h.DivisionDomain, match=match):
            h.risk_ratio(np.array(z), 3.0, h.Dimensionless(TH, 10.0))

    def test_asymptote_broadcasts(self):
        z, tt = np.geomspace(1e-3, 0.6, 12), np.array([[TH], [3.0 * TH]])
        for beta in (None, 10.0):
            got = h.ratio_asymptote(z, tt, beta)
            assert got.shape == (2, 12)
            for (i, j), r in np.ndenumerate(got):
                one = h.ratio_asymptote(float(z[j]), float(tt[i, 0]), beta)
                assert type(one) is float and r == one
                t = float(tt[i, 0])
                want = math.sqrt(math.pi * t / 2.0) * math.exp(z[j] * z[j] / (2.0 * t))
                assert math.isclose(r, want / (beta or 1.0), rel_tol=1e-15)

    @pytest.mark.parametrize("args", [(0.1, 0.0), (0.1, -1.0), (0.1, math.nan), (0.1, math.inf),
                                      (-0.1, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                      (0.1, 1.0, 0.0), (0.1, 1.0, -1.0), (0.1, 1.0, math.nan),
                                      (np.array([0.1, -0.1]), 1.0)])
    def test_asymptote_rejects_bad_input(self, args):
        # gave ZeroDivisionError, a math domain ValueError, or NaN
        with pytest.raises(h.ParameterError):
            h.ratio_asymptote(*args)

    def test_asymptote_overflows_to_inf_silently(self):
        # raised OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h.ratio_asymptote(1.0, 1e-5) == math.inf
            assert h.ratio_asymptote(1e200, 1e308, 1e-300) == math.inf


class TestCrossingLevel:
    @pytest.mark.xfail(strict=True, reason="documented l_c ~ 0.336 within "
                       "10% at beta=10, theta_tau=5.76e-3 is not what the "
                       "erf-vs-arctan balance yields: its root is 0.2406; "
                       "0.336 comes from intersecting the exact curves")
    def test_documented_level(self):
        got = h.crossing_level(10.0, 5.76e-3).l_c
        assert abs(got - 0.336) / 0.336 <= 0.10

    def test_frozen_root(self):
        res = h.crossing_level(10.0, 5.76e-3)
        assert math.isclose(res.l_c, 0.24059, rel_tol=1e-3)
        assert res.residual <= 1e-10
        assert res.bracket[0] < res.l_c < res.bracket[1]

    def test_monotone_in_theta_tau(self):
        prev = 0.0
        for tt in np.geomspace(1e-3, 1e-1, 10):
            lc = h.crossing_level(10.0, float(tt)).l_c
            assert lc >= prev
            prev = lc

    def test_logarithmic_growth_in_beta(self):
        betas = np.geomspace(1.0, 100.0, 12)
        lcs = np.array([h.crossing_level(float(b), 5.76e-3).l_c for b in betas])
        assert np.all(np.diff(lcs) > 0.0)
        slope, intercept = np.polyfit(np.log(betas), lcs, 1)
        resid = lcs - (slope * np.log(betas) + intercept)
        # log-linear to ~1% relative rms over two decades
        assert slope > 0.0
        assert np.sqrt(np.mean(resid**2)) / np.mean(lcs) <= 0.05

    def test_no_root_reported(self):
        with pytest.raises(h.NoRoot):
            h.crossing_level(0.01, 10.0)
        with pytest.raises(h.NoRoot):
            h.crossing_level(-1.0, 0.01)

    def test_grid_matches_scalar_calls_bit_for_bit(self):
        betas, tts = np.geomspace(1.0, 100.0, 7)[:, None], np.geomspace(1e-4, 1e-1, 5)
        grid = h.crossing_level(betas, tts)
        assert grid.l_c.shape == grid.residual.shape == grid.beta.shape == (7, 5)
        assert grid.bracket[0].shape == grid.bracket[1].shape == (7, 5)
        for idx in np.ndindex(7, 5):
            one = h.crossing_level(float(betas[idx[0], 0]), float(tts[idx[1]]))
            assert isinstance(one.l_c, float) and isinstance(one.bracket[0], float)
            assert (one.l_c, one.residual, one.bracket) == (
                grid.l_c[idx], grid.residual[idx], (grid.bracket[0][idx], grid.bracket[1][idx]))

    def test_root_is_a_sign_change_between_adjacent_floats(self):
        betas = np.geomspace(1.0, 100.0, 16)
        res = h.crossing_level(betas, 5.76e-3)
        for beta, l_c, residual in zip(betas, res.l_c, res.residual):
            near = np.array([np.nextafter(l_c, 0.0), l_c, np.nextafter(l_c, 1.0)])
            below, at, above = h.asymptotics._crossing_gap(near, beta, 5.76e-3)
            assert residual == abs(at) <= 1e-15
            assert at == 0.0 or below * at < 0.0 or at * above < 0.0

    @pytest.mark.parametrize("beta,theta_tau,match", [
        ([10.0, 0.01, -1.0], 0.01, "no sign change .* beta=0.01, theta_tau=0.01$"),
        ([10.0, -1.0, 0.01], 0.01, "requires beta > 0"),
        ([10.0, math.nan, -1.0], 0.01, "indistinguishable"),
    ])
    def test_grid_raises_the_first_failing_point(self, beta, theta_tau, match):
        with pytest.raises(h.NoRoot, match=match):
            h.crossing_level(np.array(beta), theta_tau)


class TestCrossingLawFits:
    def test_power_law_exponent_examples(self):
        # fit window is unspecified upstream; these decades reproduce the
        # documented exponents
        def gamma(beta, center):
            tts = np.geomspace(center / math.sqrt(10.0), center * math.sqrt(10.0), 8)
            samples = [(beta, float(tt), h.crossing_level(beta, float(tt)).l_c)
                       for tt in tts]
            return h.fit_crossing_laws(samples).power_law[beta].slope

        assert abs(gamma(1.0, 0.03) - 0.3293) <= 0.05    # measured 0.3447
        assert abs(gamma(10.0, 5.76e-3) - 0.4358) <= 0.05  # measured 0.4494

    def test_synthetic_power_law_recovered_exactly(self):
        tts = np.geomspace(1e-3, 1e-1, 6)
        samples = [(2.0, float(tt), float(0.7 * tt**0.41)) for tt in tts]
        fit = h.fit_crossing_laws(samples).power_law[2.0]
        assert abs(fit.slope - 0.41) <= 1e-10
        assert fit.rms_residual <= 1e-12

    def test_synthetic_log_law_recovered_exactly(self):
        betas = np.geomspace(1.0, 100.0, 6)
        samples = [(float(b), 0.005, 0.1 + 0.02 * math.log(b)) for b in betas]
        fit = h.fit_crossing_laws(samples).log_law[0.005]
        assert abs(fit.slope - 0.02) <= 1e-10
        assert abs(fit.intercept - 0.1) <= 1e-10

    @pytest.mark.parametrize("samples", [
        [],
        [(1.0, 0.01, 0.1), (1.0, 0.02, 0.12)],
        # five samples but under a decade of span
        [(1.0, 0.010, 0.10), (1.0, 0.012, 0.11), (1.0, 0.014, 0.12),
         (1.0, 0.016, 0.125), (1.0, 0.018, 0.13)],
    ])
    def test_insufficient_data(self, samples):
        with pytest.raises(h.InsufficientData):
            h.fit_crossing_laws(samples)


@given(z=st.floats(min_value=0.0, max_value=50.0),
       v=st.floats(min_value=0.0, max_value=50.0),
       tau=st.floats(min_value=0.0, max_value=50.0),
       beta=st.sampled_from((0.01, 0.1, 1.0, 10.0)))
def test_all_approximations_bounded(z, v, tau, beta):
    values = [
        h.survival_erf(z, v, tau, TH),
        h.survival_arctan(z, v, tau, TH, beta),
        h.survival_pheno(z, v, tau, TH, beta),
        h.survival_pheno(z, v, tau, TH, beta, use_beta_factor=True),
        h.survival_avg_erf(z, tau, TH),
        h.survival_avg_arctan(z, tau, TH, beta),
    ]
    for val in values:
        assert 0.0 <= val <= 1.0


# every closed form as a call on (z, v, tau) and the inputs it uses; the
# Gaussian tail takes v as its scale
CLOSED_FORMS = {
    "erf": (lambda z, v, tau: h.survival_erf(z, v, tau, TH), "zvt"),
    "arctan": (lambda z, v, tau: h.survival_arctan(z, v, tau, TH, 10.0), "zvt"),
    "pheno": (lambda z, v, tau: h.survival_pheno(z, v, tau, TH, 10.0), "zvt"),
    "pheno_beta": (lambda z, v, tau: h.survival_pheno(z, v, tau, TH, 10.0,
                                                      use_beta_factor=True), "zvt"),
    "avg_erf": (lambda z, v, tau: h.survival_avg_erf(z, tau, TH), "zt"),
    "avg_arctan": (lambda z, v, tau: h.survival_avg_arctan(z, tau, TH, 10.0), "zt"),
    "wiener": (lambda z, v, tau: h.survival_wiener(z, TH, tau), "zt"),
    "tail_gaussian": (lambda z, v, tau: h.tail_gaussian_hitting(z, v), "zv"),
    "tail_powerlaw": (lambda z, v, tau: h.tail_powerlaw_hitting(z, tau, TH, 10.0), "zt"),
    "variance_scale": (lambda z, v, tau: h.variance_scale(tau, v, TH), "vt"),
    "second_moment": (lambda z, v, tau: h.second_moment(tau, v, TH), "vt"),
}
SURVIVAL_FORMS = ("erf", "arctan", "pheno", "pheno_beta", "avg_erf", "avg_arctan")
TAILS = ("tail_gaussian", "tail_powerlaw")  # defined for positive input only


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_return_contract(name):
    # scalars give a Python float; arrays give the broadcast shape of the
    # inputs used, each element equal to the scalar call
    form, uses = CLOSED_FORMS[name]
    assert type(form(0.01, TH, 0.5)) is float
    low = 1e-4 if name in TAILS else 0.0
    inputs = {"z": np.array([low, 1e-3, 0.05])[:, None, None],
              "v": np.array([low, TH, 10.0 * TH])[None, :, None],
              "t": np.array([low, 0.5, 3.0, 40.0])}
    with np.errstate(all="ignore"):
        got = form(inputs["z"], inputs["v"], inputs["t"])
        assert isinstance(got, np.ndarray)
        assert got.shape == np.broadcast_shapes(*(inputs[k].shape for k in uses))
        z, v, tau = np.broadcast_arrays(inputs["z"], inputs["v"], inputs["t"])
        want = [form(*p) for p in zip(z.ravel().tolist(), v.ravel().tolist(),
                                      tau.ravel().tolist())]
    np.testing.assert_array_equal(np.broadcast_to(got, z.shape).ravel(), want)


_BAD = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                 st.floats(max_value=-1e-300, allow_infinity=False))


@given(data=st.data(), bad=_BAD, as_array=st.booleans(),
       good=st.tuples(*[st.floats(min_value=0.0, max_value=50.0)] * 3))
def test_survival_forms_reject_bad_input(data, bad, as_array, good):
    name = data.draw(st.sampled_from(SURVIVAL_FORMS))
    form, uses = CLOSED_FORMS[name]
    position = data.draw(st.sampled_from(["zvt".index(k) for k in uses]))
    args = list(good)
    args[position] = np.array([good[position], bad]) if as_array else bad
    with pytest.raises(h.ParameterError):
        form(*args)


# each form's model parameters, as keyword arguments after (z, v, tau) or (z, tau)
_FORM_PARAMETERS = {
    "erf": (h.survival_erf, (0.01, TH, 0.5), {"theta": TH}),
    "arctan": (h.survival_arctan, (0.01, TH, 0.5), {"theta": TH, "beta": 10.0}),
    "pheno": (h.survival_pheno, (0.01, TH, 0.5), {"theta": TH, "beta": 10.0}),
    "avg_erf": (h.survival_avg_erf, (0.01, 0.5), {"theta": TH}),
    "avg_arctan": (h.survival_avg_arctan, (0.01, 0.5), {"theta": TH, "beta": 10.0}),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name,parameter", [(name, p) for name, (_, _, params)
                                            in _FORM_PARAMETERS.items() for p in params])
def test_survival_forms_reject_bad_parameters(name, parameter, bad):
    # survival_arctan(0.01, 1e-3, 1.0, -1.0, 1.0) returned -0.0064, and a nan
    # theta returned nan from every form
    form, args, params = _FORM_PARAMETERS[name]
    with pytest.raises(h.ParameterError, match=parameter):
        form(*args, **{**params, parameter: bad})


TAIL_CALLS = {"tail_gaussian": (h.tail_gaussian_hitting, (0.01, TH)),
              "tail_powerlaw": (h.tail_powerlaw_hitting, (0.01, 0.5, TH, 10.0))}


@given(data=st.data(), as_array=st.booleans())
def test_tails_reject_bad_input(data, as_array):
    # |L| = 0 or non-finite L; zero, negative or non-finite lam, tau, theta, beta
    name = data.draw(st.sampled_from(TAILS))
    form, good = TAIL_CALLS[name]
    position = data.draw(st.sampled_from(range(len(good))))
    bad = data.draw(st.sampled_from([0.0, math.nan, math.inf, -math.inf]) if position == 0
                    else st.one_of(st.just(0.0), _BAD))
    args = list(good)
    args[position] = np.array([good[position], bad]) if as_array else bad
    with pytest.raises(h.ParameterError):
        form(*args)


def test_tails_take_the_distance_unsigned():
    with pytest.raises(h.ParameterError):
        h.tail_powerlaw_hitting(0.01, -1.0, 1e-3, 10.0)  # returned -0.01
    for name in TAILS:
        form, good = TAIL_CALLS[name]
        assert form(-good[0], *good[1:]) == form(*good)
