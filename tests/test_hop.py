"""Per-hop SNR statistics: densities, tails, kernels."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import fso_relay as fr
from fso_relay import hop as hop_module
from fso_relay.errors import IntegerConditionError
from fso_relay.hop import kernel_ccdf
from helpers import make_hop, unit_hop


def two_term_hop(gamma_bar=1.0, xi_sq=1.0):
    """Mixture (1/2, 3, 1): two reduced kernels per hop at xi^2 = 1."""
    return fr.HopChannel(
        mg=fr.MixtureGamma(terms=((0.5, 3.0, 1.0),)),
        pointing=fr.Pointing(xi_sq=xi_sq, a0=1.0),
        gamma_bar=gamma_bar)


class TestPointingLoss:
    def test_full_capture_limit(self):
        assert fr.pointing_loss(100.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_reference_ratio(self):
        assert fr.pointing_loss(0.1, 1.0) == pytest.approx(
            0.0197920869452193226, rel=1e-12)

    def test_small_aperture_expansion(self):
        # erf(v)^2 ~ (2v/sqrt(pi))^2 with v = sqrt(pi) r / (sqrt(2) w),
        # i.e. 2 r^2 / w^2 to first order
        r, w = 1e-5, 1.0
        assert fr.pointing_loss(r, w) == pytest.approx(
            2.0 * r * r / (w * w), rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            fr.pointing_loss(0.0, 1.0)
        with pytest.raises(ValueError):
            fr.pointing_loss(0.1, -1.0)


class TestTypes:
    def test_pointing_geometry_consistency(self):
        p = fr.Pointing.from_geometry(1.0, r=0.1, w_z=1.0)
        assert p.a0 == pytest.approx(0.0197920869452193226, rel=1e-12)

    def test_pointing_validation(self):
        with pytest.raises(ValueError):
            fr.Pointing(xi_sq=0.0, a0=0.5)
        with pytest.raises(ValueError):
            fr.Pointing(xi_sq=1.0, a0=1.5)
        with pytest.raises(ValueError):
            fr.Pointing(xi_sq=1.0, a0=0.0)

    def test_gamma_bar_positive(self):
        mg = fr.MixtureGamma(terms=((1.0, 2.0, 1.0),))
        with pytest.raises(ValueError):
            fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=1.0, a0=1.0),
                          gamma_bar=0.0)

    def test_kernel_scale_cached_outside_identity(self):
        """kernel_scale is computed once per hop; equality and hashing
        still see only the fields."""
        fresh, used = make_hop(4, 2, 1, 10.0), make_hop(4, 2, 1, 10.0)
        scale = used.kernel_scale
        assert used.__dict__["kernel_scale"] == scale
        assert "kernel_scale" not in fresh.__dict__
        assert fresh == used and hash(fresh) == hash(used)
        assert fresh.kernel_scale == scale

    def test_kernel_tail_terms_cached_outside_identity(self):
        """A kernel's tail columns are built once, at first use."""
        fresh, used = (fr.reduced_kernel(make_hop(4, 2, 1, 10.0))
                       for _ in range(2))
        kernel_ccdf(used, 1.0)
        assert "ccdf_terms" not in fresh.__dict__
        assert used.ccdf_terms is used.ccdf_terms
        assert fresh == used and hash(fresh) == hash(used)
        assert kernel_ccdf(fresh, 1.0) == kernel_ccdf(used, 1.0)


class TestMeanIrradiance:
    def test_unit_channel(self):
        assert fr.mean_irradiance(unit_hop()) == pytest.approx(1.0, rel=1e-12)

    def test_no_pointing_limit(self):
        mg = fr.MixtureGamma(terms=((1.0, 2.0, 1.0),))
        hop = fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=1e9, a0=1.0),
                            gamma_bar=1.0)
        assert fr.mean_irradiance(hop) == pytest.approx(fr.mg_mean(mg),
                                                        rel=1e-8)

    def test_matches_monte_carlo_product(self):
        hop = make_hop(4, 2, 1, 10.0)
        rng = np.random.default_rng(5)
        n = 300_000
        i_a = fr.sample_gamma_gamma(4.0, 2.0, rng, n)
        i_p = fr.sample_pointing(hop, rng, n)
        prod = i_a * i_p
        se = prod.std(ddof=1) / math.sqrt(n)
        # fit mean differs from the exact product mean only at fit error
        assert abs(prod.mean() - fr.mean_irradiance(hop)) < 3.0 * se + 1e-3


class TestXiCoeff:
    def test_unit_channel_is_one(self):
        assert fr.xi_coeff(unit_hop(), 0, 0) == pytest.approx(1.0, rel=1e-12)

    def test_snr_power_law(self):
        hop1 = two_term_hop(gamma_bar=1.0)
        hop2 = two_term_hop(gamma_bar=2.0)
        for k in (0, 1):
            ratio = fr.xi_coeff(hop2, 0, k) / fr.xi_coeff(hop1, 0, k)
            assert ratio == pytest.approx(2.0 ** -(1.0 + k), rel=1e-12)

    @pytest.mark.parametrize("builder", [
        lambda: make_hop(4, 2, 1, 7.0),
        lambda: make_hop(5, 3, 2, 13.0),
        lambda: two_term_hop(3.7),
    ])
    def test_kernel_normalization(self, builder):
        """sum over (i, k) of Xi * Gamma(m) / rate^m is the pdf mass, 1."""
        kern = fr.reduced_kernel(builder())
        assert kern.mass == pytest.approx(1.0, rel=1e-10)
        assert kern.mode == "exact"

    def test_integer_condition_errors(self):
        mg = fr.MixtureGamma(terms=((1.0, 2.0, 1.0),))
        frac_xi = fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=0.6, a0=1.0),
                                gamma_bar=1.0)
        with pytest.raises(IntegerConditionError):
            fr.xi_coeff(frac_xi, 0, 0)
        equal = fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=2.0, a0=1.0),
                              gamma_bar=1.0)
        with pytest.raises(IntegerConditionError):
            fr.xi_coeff(equal, 0, 0)  # b - xi^2 = 0
        with pytest.raises(ValueError):
            fr.xi_coeff(unit_hop(), 0, 5)  # k out of range


class TestSnrPdf:
    def test_unit_channel_exponential(self):
        hop = unit_hop()
        for x in np.geomspace(0.01, 20, 12):
            assert fr.snr_pdf(hop, x) == pytest.approx(math.exp(-x),
                                                       rel=1e-12)

    @pytest.mark.parametrize("builder", [
        lambda: make_hop(4, 2, 1, 5.0),
        lambda: make_hop(2.9, 1.7, 0.8, 10.0),   # non-integer parameters
    ])
    def test_integrates_to_one(self, builder):
        hop = builder()
        val, _ = quad(lambda u: fr.snr_pdf(hop, math.exp(u)) * math.exp(u),
                      -30, 30, epsabs=1e-10, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_matches_sampled_distribution(self):
        """Kolmogorov distance between the sampled SNR and the analytic
        CDF within the 1e6-sample DKW band."""
        hop = make_hop(4, 2, 1, 10.0)
        rng = np.random.default_rng(17)
        n = 1_000_000
        draws = np.sort(fr.sample_snr(replace(hop, gg=None), rng, n))
        grid = draws[:: n // 500]
        emp = np.searchsorted(draws, grid, side="right") / n
        ana = np.array([1.0 - fr.snr_ccdf_general(hop, x) for x in grid])
        assert np.max(np.abs(emp - ana)) < 0.01


class TestReducedPdf:
    def test_unit_channel(self):
        hop = unit_hop()
        assert fr.snr_pdf_reduced(hop, 0.8) == pytest.approx(math.exp(-0.8),
                                                             rel=1e-12)

    def test_two_kernel_expansion_matches_exact(self):
        hop = two_term_hop()
        kern = fr.reduced_kernel(hop)
        assert len(kern) == 2
        for x in np.geomspace(1e-3, 50.0, 25):
            assert fr.snr_pdf_reduced(hop, x) == pytest.approx(
                fr.snr_pdf(hop, x), rel=1e-12)

    @pytest.mark.parametrize("builder", [
        lambda: make_hop(4, 2, 1, 0.0),
        lambda: make_hop(4, 2, 1, 20.0),
        lambda: make_hop(5, 3, 2, 10.0),
        lambda: make_hop(4, 3, 1, 30.0),
    ])
    def test_equals_exact_form_at_1e10(self, builder):
        hop = builder()
        for x in np.geomspace(1e-3, 50.0, 30):
            exact = fr.snr_pdf(hop, x)
            red = fr.snr_pdf_reduced(hop, x)
            assert abs(red - exact) <= 1e-10 * abs(exact)

    def test_zero_limit_lowest_power(self):
        """At xi^2 = 1 the x -> 0+ density tends to the sum of k=0
        coefficients."""
        hop = two_term_hop()
        expected = fr.xi_coeff(hop, 0, 0)
        assert fr.snr_pdf_reduced(hop, 1e-12) == pytest.approx(expected,
                                                               rel=1e-9)

    def test_integer_condition_enforced(self):
        hop = make_hop(2.9, 1.7, 0.8, 10.0)
        with pytest.raises(IntegerConditionError):
            fr.snr_pdf_reduced(hop, 1.0)


def _bound_pdf(hop, x):
    """Density of the bound kernel, summed term by term."""
    kern = fr.bound_kernel(hop)
    return math.fsum(math.exp(lc + (m - 1.0) * math.log(x) - lam * x)
                     for lc, m, lam in zip(kern.log_coef, kern.power,
                                           kern.rate))


class TestBoundPdf:
    """The bound PDF is the density of the bound kernel."""

    def bound_hop(self, xi_sq=2.0, gamma_bar=10.0):
        return make_hop(4, 2, xi_sq, 10.0 * math.log10(gamma_bar))

    def test_upper_bounds_exact_pdf(self):
        hop = self.bound_hop()
        for x in np.geomspace(1e-3, 100.0, 40):
            assert _bound_pdf(hop, x) >= fr.snr_pdf(hop, x) * (1 - 1e-12)

    def test_ratio_tends_to_one_at_large_argument(self):
        hop = self.bound_hop(gamma_bar=0.05)  # rate >> 1: envelope is tight
        x = 50.0
        assert fr.snr_pdf(hop, x) / _bound_pdf(hop, x) \
            == pytest.approx(1.0, abs=0.02)

    def test_single_term_formula(self):
        mg = fr.MixtureGamma(terms=((0.5, 3.0, 1.0),))
        hop = fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=3.0, a0=0.5),
                            gamma_bar=2.0)
        a, b, c = 0.5, 3.0, 1.0
        s = hop.kernel_scale
        x = 1.7
        expected = a / c * 3.0 * s ** (1.0 - b) * x ** (b - 2.0) \
            * math.exp(-c * x / s)
        assert _bound_pdf(hop, x) == pytest.approx(expected, rel=1e-12)

    def test_rejects_shape_above_pointing_plus_one(self):
        # b - xi^2 = 2: the envelope of Gamma(s, y) would fall below the pdf
        with pytest.raises(IntegerConditionError):
            fr.bound_kernel(make_hop(5, 3, 1, 10.0))

    def test_bound_kernel_mass_exceeds_one(self):
        kern = fr.bound_kernel(self.bound_hop())
        assert kern.mode == "bound"
        assert kern.mass > 1.0

    def test_bound_kernel_needs_integer_shape_at_least_two(self):
        mg = fr.MixtureGamma(terms=((1.0, 1.0, 1.0),))
        hop = fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=2.0, a0=1.0),
                            gamma_bar=1.0)
        with pytest.raises(IntegerConditionError):
            fr.bound_kernel(hop)


class TestRoute:
    """One test decides a hop's route, and the hop's cached kernel is the
    only kernel its callers see."""

    @pytest.mark.parametrize("builder,route", [
        (unit_hop, "exact"),
        (lambda: make_hop(4, 2, 2, 10.0), "bound"),
        (lambda: make_hop(4, 2, 1.5, 10.0), None),
        # b = 2 meets the bound condition and b = 3 the exact one
        (lambda: fr.HopChannel(
            mg=fr.MixtureGamma(terms=((0.5, 2.0, 1.0), (0.25, 3.0, 1.0))),
            pointing=fr.Pointing(xi_sq=2.0, a0=1.0), gamma_bar=1.0), None),
        (lambda: replace(unit_hop(),
                         pointing=fr.Pointing(xi_sq=1.0 + 5e-10, a0=1.0)),
         "exact"),
    ], ids=["unit-exact", "bound", "numeric", "mixed-numeric",
            "near-integer-exact"])
    def test_route_table(self, builder, route):
        hop = builder()
        assert hop_module._route(hop) == route
        if route is None:
            assert hop.kernel is None
        else:
            assert hop.kernel.mode == route

    def test_kernel_getters_return_the_hops_kernel(self):
        exact, bound = make_hop(4, 2, 1, 10.0), make_hop(4, 2, 2, 10.0)
        assert fr.reduced_kernel(exact) is exact.kernel
        assert fr.bound_kernel(bound) is bound.kernel

    @pytest.mark.parametrize("getter,xi_sq", [
        (fr.reduced_kernel, 2.0), (fr.reduced_kernel, 1.5),
        (fr.bound_kernel, 1.0), (fr.bound_kernel, 1.5), (fr.auto_kernel, 1.5),
    ])
    def test_kernel_getters_reject_other_routes(self, getter, xi_sq):
        with pytest.raises(IntegerConditionError):
            getter(make_hop(4, 2, xi_sq, 10.0))


class TestSnrCcdf:
    def test_unit_channel(self):
        hop = unit_hop()
        for x in (0.1, 1.0, 5.0):
            assert fr.snr_ccdf(hop, x) == pytest.approx(math.exp(-x),
                                                        rel=1e-12)

    @pytest.mark.parametrize("builder", [
        lambda: make_hop(4, 2, 1, 10.0),
        lambda: make_hop(5, 3, 2, 0.0),
        lambda: two_term_hop(5.0),
    ])
    def test_ccdf_at_zero_is_one(self, builder):
        assert fr.snr_ccdf(builder(), 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_complement_matches_pdf_integral(self):
        hop = make_hop(4, 2, 1, 10.0)
        for x in (0.3, 2.0, 15.0):
            integral, _ = quad(lambda t: fr.snr_pdf_reduced(hop, t), 0.0, x,
                               epsabs=1e-12, limit=300)
            assert abs((1.0 - fr.snr_ccdf(hop, x)) - integral) < 1e-8

    def test_monotone_and_bounded(self):
        hop = make_hop(5, 3, 2, 10.0)
        xs = np.geomspace(1e-3, 1e3, 200)
        vals = np.array([fr.snr_ccdf(hop, x) for x in xs])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_general_route_agrees(self):
        hop = make_hop(4, 3, 1, 10.0)
        for x in np.geomspace(0.01, 50, 12):
            assert fr.snr_ccdf_general(hop, x) == pytest.approx(
                fr.snr_ccdf(hop, x), abs=1e-10)


class TestIncompleteGammaRoutesOnArrays:
    """snr_pdf and snr_ccdf_general, the quadrature oracle's per-hop
    statistics, evaluate arrays of x elementwise."""

    # integer conditions; b - xi^2 = 0 (E_1 seed); b - xi^2 = -1 (the
    # recurrence below lam x = 2, the continued fraction above); real
    # parameters off the integer conditions; two mixture shapes
    HOPS = [lambda: make_hop(4, 2, 1, 10.0), lambda: make_hop(4, 2, 2, 10.0),
            lambda: make_hop(4, 2, 3, 0.0), lambda: make_hop(2.9, 1.7, 0.8, 10.0),
            lambda: fr.HopChannel(
                mg=fr.MixtureGamma(terms=((0.5, 2.0, 1.0), (0.25, 3.0, 1.0))),
                pointing=fr.Pointing(xi_sq=1.0, a0=1.0), gamma_bar=3.0)]

    @pytest.mark.parametrize("fn", [fr.snr_pdf, fr.snr_ccdf_general])
    @pytest.mark.parametrize("builder", HOPS)
    def test_array_equals_scalar_calls(self, fn, builder):
        hop = builder()
        x = np.geomspace(1e-4, 3e3, 60) * hop.gamma_bar
        vals = fn(hop, x)
        assert vals.shape == x.shape
        assert vals.tolist() == [fn(hop, float(v)) for v in x]
        # the same x among other neighbours, and in a 2-D array
        mixed = fn(hop, np.concatenate([x[::-1], x[:7] * 1.5]))
        assert mixed[:len(x)][::-1].tolist() == vals.tolist()
        assert fn(hop, x.reshape(6, 10)).ravel().tolist() == vals.tolist()

    @pytest.mark.parametrize("builder", HOPS)
    def test_ccdf_limits_on_arrays(self, builder):
        hop = builder()
        vals = fr.snr_ccdf_general(hop, np.array([0.0, 1e-9, 1e300]))
        assert vals[0] == 1.0 and vals[1] == pytest.approx(1.0, abs=1e-6)
        assert vals[2] == 0.0

    def test_two_shapes_match_reduced_form(self):
        hop = self.HOPS[-1]()
        x = np.geomspace(1e-3, 50.0, 25)
        np.testing.assert_allclose(
            fr.snr_pdf(hop, x), [fr.snr_pdf_reduced(hop, v) for v in x],
            rtol=1e-12)
        np.testing.assert_allclose(
            fr.snr_ccdf_general(hop, x), [fr.snr_ccdf(hop, v) for v in x],
            rtol=1e-11, atol=1e-15)


class TestScaleEquivariance:
    def test_pdf_and_ccdf_rescale_exactly(self):
        base = make_hop(4, 2, 1, 10.0)
        s = 3.7
        scaled = fr.HopChannel(mg=base.mg, pointing=base.pointing,
                               gamma_bar=base.gamma_bar * s, gg=base.gg)
        for x in (0.2, 1.0, 8.0):
            assert fr.snr_pdf(scaled, x) == pytest.approx(
                fr.snr_pdf(base, x / s) / s, rel=1e-12)
            assert fr.snr_ccdf(scaled, x) == pytest.approx(
                fr.snr_ccdf(base, x / s), rel=1e-12)

    def test_mean_snr_is_gamma_bar(self):
        hop = make_hop(4, 2, 1, 10.0)
        mean, _ = quad(lambda u: math.exp(u) * fr.snr_pdf(hop, math.exp(u))
                       * math.exp(u), -25, 25, epsabs=1e-10, limit=400)
        assert mean == pytest.approx(hop.gamma_bar, rel=1e-6)


class TestPointingFreeLimit:
    def test_ccdf_approaches_pure_mixture_tail(self):
        """Growing xi^2 (integer sweep) walks the composite CCDF to the
        no-misalignment CCDF, monotonically in sup norm over a grid."""
        b, c = 10.0, 1.0
        a = 1.0 / math.exp(math.lgamma(b))
        mg = fr.MixtureGamma(terms=((a, b, c),))
        mean = fr.mg_mean(mg)
        grid = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 4.0])

        def pure_tail(x):
            from scipy.special import gammaincc
            return gammaincc(b, c * x * mean)

        sups = []
        for xi2 in range(1, 10):
            hop = fr.HopChannel(mg=mg,
                                pointing=fr.Pointing(xi_sq=float(xi2), a0=1.0),
                                gamma_bar=1.0)
            dev = max(abs(fr.snr_ccdf(hop, x) - pure_tail(x)) for x in grid)
            sups.append(dev)
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(sups, sups[1:]))
        assert sups[-1] < 0.01
