"""Mixture construction, fit quality and sampling."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import fso_relay as fr
from fso_relay.errors import DegenerateFitError
from helpers import fitted_mixture


class TestMixtureType:
    def test_single_exponential_term(self):
        mg = fr.MixtureGamma(terms=((1.0, 1.0, 1.0),))
        assert fr.mg_pdf(mg, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            fr.MixtureGamma(terms=((2.0, 1.0, 1.0),))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            fr.MixtureGamma(terms=((1.0, -2.0, 1.0),))

    def test_term_count_bounds(self):
        with pytest.raises(ValueError):
            fr.MixtureGamma(terms=())

    def test_component_probs_sum_to_one(self):
        mg = fitted_mixture(4, 2)
        probs = mg.component_probs()
        assert all(p > 0 for p in probs)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_json_round_trip(self):
        mg = fitted_mixture(4, 2)
        doc = json.loads(json.dumps(mg.to_json_dict()))
        assert set(doc) == {"terms"}
        again = fr.MixtureGamma.from_json_dict(doc)
        assert again == mg


class TestGammaGammaFit:
    def test_all_shapes_equal_min_parameter(self):
        for al, be in [(4, 2), (2, 4), (8.5, 3.2)]:
            mg = fr.fit_gamma_gamma(fr.GammaGammaParams(al, be), 10)
            assert all(b == min(al, be) for _, b, _ in mg.terms)

    def test_term_count(self):
        assert len(fitted_mixture(4, 2, L=7)) == 7

    def test_pdf_error_within_one_percent_of_exact(self):
        gg = fr.GammaGammaParams(4, 2)
        mg = fitted_mixture(4, 2, L=10)
        grid = np.geomspace(0.05, 5.0, 120)
        rel = np.abs(fr.mg_pdf(mg, grid) - fr.gamma_gamma_pdf(gg, grid)) \
            / fr.gamma_gamma_pdf(gg, grid)
        assert rel.max() < 1e-2

    def test_fit_error_monotone_in_term_count(self):
        grid = np.geomspace(0.05, 5.0, 120)
        for al, be in [(8, 4), (4, 2), (3, 1)]:
            gg = fr.GammaGammaParams(al, be)
            exact = fr.gamma_gamma_pdf(gg, grid)
            errs = [np.max(np.abs(fr.mg_pdf(fitted_mixture(al, be, L=L), grid)
                                  - exact) / exact) for L in (4, 10)]
            assert errs[1] <= errs[0]

    def test_exponential_limit(self):
        """beta=1 with huge alpha degenerates to a unit-mean exponential.

        The node count has to track max(alpha, beta): the rule must
        resolve the t^(alpha-1) large-scale mass, so alpha=200 needs the
        full 64-node rule.
        """
        mg = fr.fit_gamma_gamma(fr.GammaGammaParams(200.0, 1.0), 64)
        for x in np.linspace(0.1, 3.0, 10):
            assert fr.mg_pdf(mg, x) == pytest.approx(math.exp(-x), rel=0.02)

    def test_unit_mean(self):
        assert fr.mg_mean(fitted_mixture(4, 2)) == pytest.approx(1.0, rel=0.01)
        # integer shapes make the quadrature exact: much tighter in practice
        assert fr.mg_mean(fitted_mixture(5, 3)) == pytest.approx(1.0,
                                                                 rel=1e-12)

    def test_cdf_kolmogorov_distance(self):
        """Fit vs exact channel distribution within 1e-2 everywhere."""
        for al, be in [(8, 4), (4, 2), (2, 1)]:
            gg = fr.GammaGammaParams(al, be)
            mg = fitted_mixture(al, be, L=10)
            grid = np.geomspace(0.02, 8.0, 40)
            for x in grid:
                exact_cdf, _ = quad(lambda t: fr.gamma_gamma_pdf(gg, t), 0, x,
                                    epsabs=1e-10, limit=200)
                fit_cdf, _ = quad(lambda t: fr.mg_pdf(mg, t), 0, x,
                                  epsabs=1e-10, limit=200)
                assert abs(exact_cdf - fit_cdf) < 1e-2

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            fr.GammaGammaParams(0.0, 2.0)
        with pytest.raises((DegenerateFitError, ValueError)):
            fr.fit_gamma_gamma(fr.GammaGammaParams(4, 2), 0)


class TestMgPdf:
    def test_gamma_two_term(self):
        mg = fr.MixtureGamma(terms=((1.0, 2.0, 1.0),))
        assert fr.mg_pdf(mg, 1.5) == pytest.approx(1.5 * math.exp(-1.5),
                                                   rel=1e-12)

    @pytest.mark.parametrize("al,be", [(4, 2), (2.5, 1.5)])
    def test_integrates_to_one(self, al, be):
        mg = fitted_mixture(al, be)
        val, _ = quad(lambda t: fr.mg_pdf(mg, t), 0, np.inf,
                      epsabs=1e-12, limit=300)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_domain(self):
        mg = fitted_mixture(4, 2)
        with pytest.raises(ValueError):
            fr.mg_pdf(mg, 0.0)


class TestMgMean:
    def test_single_terms(self):
        assert fr.mg_mean(fr.MixtureGamma(terms=((1.0, 2.0, 1.0),))) \
            == pytest.approx(2.0, rel=1e-12)
        assert fr.mg_mean(fr.MixtureGamma(terms=((1.0, 1.0, 1.0),))) \
            == pytest.approx(1.0, rel=1e-12)


class TestMgSample:
    def test_exponential_mean(self):
        mg = fr.MixtureGamma(terms=((1.0, 1.0, 1.0),))
        rng = np.random.default_rng(42)
        draws = fr.mg_sample(mg, rng, size=1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.005)

    def test_mean_matches_analytic_within_3_sigma(self):
        mg = fitted_mixture(4, 2)
        rng = np.random.default_rng(7)
        n = 400_000
        draws = fr.mg_sample(mg, rng, size=n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - fr.mg_mean(mg)) < 3.0 * se

    def test_seed_reproducibility(self):
        mg = fitted_mixture(4, 2)
        a = fr.mg_sample(mg, np.random.default_rng(123), size=1000)
        b = fr.mg_sample(mg, np.random.default_rng(123), size=1000)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self):
        mg = fitted_mixture(4, 2)
        val = fr.mg_sample(mg, np.random.default_rng(0))
        assert isinstance(val, float) and val > 0
