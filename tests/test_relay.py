"""End-to-end SNR CDFs for the three relay protocols."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import fso_relay as fr
from fso_relay.errors import IntegerConditionError
from helpers import make_hop, unit_hop

U_UNIT = 1.676875028178701          # 1 / (e * Gamma(0, 1))


def unit_link(protocol):
    hop = unit_hop()
    return fr.RelayLink(hop, hop, protocol)


class TestFixedGain:
    def test_unit_channel_value(self):
        assert fr.fixed_gain(unit_hop()) == pytest.approx(U_UNIT, rel=1e-10)

    def test_inverse_mean_round_trip(self):
        """U * E[1/(1+g)] = 1 with the expectation by quadrature."""
        for hop in (unit_hop(), make_hop(4, 2, 1, 10.0),
                    make_hop(5, 3, 2, 0.0)):
            expect, _ = quad(
                lambda u: fr.snr_pdf_reduced(hop, math.exp(u))
                / (1.0 + math.exp(u)) * math.exp(u),
                -30, 30, epsabs=1e-12, limit=400)
            assert fr.fixed_gain(hop) * expect == pytest.approx(1.0, abs=1e-8)

    def test_grows_without_bound_in_snr(self):
        gains = [fr.fixed_gain(make_hop(4, 2, 1, db))
                 for db in (0.0, 20.0, 40.0)]
        assert gains[0] < gains[1] < gains[2]
        assert gains[2] > 100.0 * gains[0]

    def test_numeric_route_agrees(self):
        hop = make_hop(4, 2, 1, 10.0)
        assert fr.fixed_gain_numeric(hop) == pytest.approx(
            fr.fixed_gain(hop), rel=1e-8)

    def test_explicit_gain_respected(self):
        link = fr.RelayLink(unit_hop(), unit_hop(), fr.FixedAf(gain=3.0))
        assert fr.resolve_gain(link) == 3.0


class TestCsiCdf:
    def test_unit_channel_closed_form(self):
        """q=0 collapses to 1 - 2x e^{-2x} K_1(2x)."""
        link = unit_link(fr.CsiAf(q=0))
        for x in np.geomspace(1e-3, 8.0, 20):
            expected = 1.0 - 2.0 * x * math.exp(-2.0 * x) \
                * fr.bessel_k(1, 2.0 * x)
            assert fr.cdf(link, x) == pytest.approx(expected, abs=1e-12)

    def test_unit_channel_q1_closed_form(self):
        """q=1: same shape with x^2 + x inside the Bessel factor."""
        link = unit_link(fr.CsiAf(q=1))
        for x in (0.1, 1.0, 3.0):
            z = x * x + x
            expected = 1.0 - 2.0 * math.sqrt(z) * math.exp(-2.0 * x) \
                * fr.bessel_k(1, 2.0 * math.sqrt(z))
            assert fr.cdf(link, x) == pytest.approx(expected, rel=1e-12)

    def test_reference_point(self):
        link = unit_link(fr.CsiAf(q=0))
        assert fr.cdf(link, 1.0) == pytest.approx(0.962142422538444681,
                                                  rel=1e-10)

    def test_zero_limit(self):
        link = unit_link(fr.CsiAf(q=0))
        assert fr.cdf(link, 0.0) == 0.0
        assert fr.cdf(link, 1e-9) < 1e-7

    def test_q1_dominates_q0(self):
        """Exact normalization lowers the SNR, so its CDF is larger."""
        h = make_hop(4, 2, 1, 10.0)
        l0 = fr.RelayLink(h, h, fr.CsiAf(q=0))
        l1 = fr.RelayLink(h, h, fr.CsiAf(q=1))
        for x in np.geomspace(0.01, 50.0, 15):
            assert fr.cdf(l1, x) >= fr.cdf(l0, x) - 1e-14


class TestFixedCdf:
    def test_unit_channel_closed_form(self):
        link = unit_link(fr.FixedAf())
        for x in np.geomspace(1e-3, 8.0, 20):
            arg = 2.0 * math.sqrt(U_UNIT * x)
            expected = 1.0 - arg * math.exp(-x) * fr.bessel_k(1, arg)
            assert fr.cdf(link, x) == pytest.approx(expected, abs=1e-10)

    def test_reference_point(self):
        link = unit_link(fr.FixedAf())
        assert fr.cdf(link, 1.0) == pytest.approx(0.937018518116781861,
                                                  rel=1e-9)

    def test_zero_limit(self):
        link = unit_link(fr.FixedAf())
        assert fr.cdf(link, 0.0) == 0.0
        assert fr.cdf(link, 1e-10) < 1e-4   # ~ sqrt(Ux) log decay near 0

    def test_vanishes_in_high_snr_limit(self):
        h = make_hop(4, 2, 1, 50.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        assert fr.cdf(link, 1.0) < 1e-3


class TestDfCdf:
    def test_unit_channel(self):
        link = unit_link(fr.Df())
        for x in (0.05, 1.0, 4.0):
            assert fr.cdf(link, x) == pytest.approx(-math.expm1(-2.0 * x),
                                                    rel=1e-12)

    def test_limits(self):
        link = unit_link(fr.Df())
        assert fr.cdf(link, 0.0) == 0.0
        assert fr.cdf(link, 60.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_sampled_minimum(self):
        """Empirical CDF of min(g1, g2) within the 1e6-sample DKW band."""
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.Df())
        rng = np.random.default_rng(3)
        n = 1_000_000
        src = fr.FadingSource.mixture(h.mg)
        g = np.minimum(fr.sample_snr(h, rng, n, src),
                       fr.sample_snr(h, rng, n, src))
        g.sort()
        for x in np.geomspace(0.1, 30.0, 12):
            emp = np.searchsorted(g, x, side="right") / n
            assert abs(emp - fr.cdf(link, x)) < 0.0017  # DKW 1e6 @ 5%


class TestNumericOracle:
    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.CsiAf(1),
                                       fr.FixedAf(), fr.Df()])
    def test_agrees_with_closed_form(self, proto):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, proto)
        for x in (0.2, 1.0, 10.0):
            assert abs(fr.cdf(link, x) - fr.cdf_numeric(link, x)) < 1e-6

    def test_deep_sum_with_negative_bessel_orders(self):
        """(5, 4, 1) pushes r1 past the second hop's kernel powers, so the
        sums hit K_nu with nu < 0."""
        h = make_hop(5, 4, 1, 10.0)
        for proto in (fr.CsiAf(0), fr.FixedAf()):
            link = fr.RelayLink(h, h, proto)
            for x in (0.5, 5.0):
                assert abs(fr.cdf(link, x) - fr.cdf_numeric(link, x)) < 1e-6

    def test_asymmetric_hops(self):
        h1 = make_hop(4, 2, 1, 13.0)
        h2 = make_hop(5, 3, 2, 7.0)
        for proto in (fr.CsiAf(0), fr.FixedAf(), fr.Df()):
            link = fr.RelayLink(h1, h2, proto)
            for x in (0.5, 3.0):
                assert abs(fr.cdf(link, x) - fr.cdf_numeric(link, x)) < 1e-6

    @pytest.mark.parametrize("db", [10.0, 30.0])
    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.CsiAf(1),
                                       fr.FixedAf(), fr.Df()])
    def test_strong_turbulence(self, proto, db):
        """(8, 6, 1): a 52,500-term CSI table whose merged terms and
        distinct Bessel arguments are far fewer than its terms."""
        h = make_hop(8, 6, 1, db)
        link = fr.RelayLink(h, h, proto)
        for x in (1.0, 10.0):
            assert abs(fr.cdf(link, x) - fr.cdf_numeric(link, x)) <= 1e-12

    def test_evaluates_outside_integer_conditions(self):
        h = make_hop(2.9, 1.7, 0.8, 10.0)
        link = fr.RelayLink(h, h, fr.CsiAf(q=0))
        with pytest.raises(IntegerConditionError):
            fr.cdf(link, 1.0)
        val = fr.cdf_numeric(link, 1.0)
        assert 0.0 < val < 1.0
        assert fr.link_mode(link) == "numeric"


def _termwise_tail(link, x):
    """Tail sum of the AF CDFs with one term per kernel index tuple, as
    the sums are written, without merging."""
    k1, k2 = fr.auto_kernel(link.hop1), fr.auto_kernel(link.hop2)
    lg = math.lgamma
    binom = lambda n, k: lg(n + 1.0) - lg(k + 1.0) - lg(n - k + 1.0)
    terms = []
    for lc1, m1, lam1 in zip(k1.log_coef, k1.power, k1.rate):
        for lc2, m2, lam2 in zip(k2.log_coef, k2.power, k2.rate):
            lead = math.log(2.0) + lc1 + lc2 + lg(m1)
            for r1 in range(m1):
                for s in range(r1 + 1):
                    if isinstance(link.protocol, fr.FixedAf):
                        u = fr.resolve_gain(link)
                        half = 0.5 * (m2 - s)
                        terms.append(math.exp(
                            lead - lg(r1 + 1.0) + binom(r1, s)
                            + (half + r1 - m1) * math.log(lam1)
                            - half * math.log(lam2)
                            + 0.5 * (m2 + s) * math.log(u)
                            + (half + r1) * math.log(x) - lam1 * x)
                            * fr.bessel_k(m2 - s,
                                          2.0 * math.sqrt(lam1 * lam2 * u * x)))
                        continue
                    z = x * x + link.protocol.q * x
                    for p in range(m2):
                        half = 0.5 * (p - s + 1.0)
                        terms.append(math.exp(
                            lead - lg(r1 + 1.0) + binom(r1, s)
                            + binom(m2 - 1, p)
                            + (half + r1 - m1) * math.log(lam1)
                            - half * math.log(lam2)
                            + 0.5 * (p + s + 1.0) * math.log(z)
                            + (m2 + r1 - p - s - 1.0) * math.log(x)
                            - (lam1 + lam2) * x)
                            * fr.bessel_k(p - s + 1,
                                          2.0 * math.sqrt(lam1 * lam2 * z)))
    return math.fsum(terms)


class TestLinkPlan:
    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.CsiAf(1),
                                       fr.FixedAf()])
    def test_merged_table_matches_termwise_sum(self, proto):
        """Merging terms and sharing Bessel factors changes only the
        rounding of the tail sum."""
        link = fr.RelayLink(make_hop(5, 4, 1, 13.0), make_hop(4, 3, 1, 7.0),
                            proto)
        plan = fr.LinkPlan(link)
        for x in (0.05, 0.7, 6.0):
            z = x * x + proto.q * x if isinstance(proto, fr.CsiAf) else x
            assert plan.table.tail(x, z) == pytest.approx(
                _termwise_tail(link, x), rel=1e-13)

    def test_routes_and_gain(self):
        h = make_hop(4, 2, 1, 10.0)
        plan = fr.LinkPlan(fr.RelayLink(h, h, fr.FixedAf()))
        assert plan.mode == "closed"
        assert plan.gain == fr.fixed_gain(h)
        assert plan.outage(1.0) == fr.outage(plan.link, 1.0)
        hn = make_hop(2.9, 1.7, 0.8, 10.0)
        numeric = fr.LinkPlan(fr.RelayLink(hn, hn, fr.CsiAf(0)))
        assert numeric.mode == "numeric" and numeric.kernels is None
        assert numeric.cdf(1.0) == fr.cdf_numeric(numeric.link, 1.0)
        with pytest.raises(IntegerConditionError):
            numeric.require_kernels()


class TestOutage:
    def test_df_unit_reference(self):
        link = unit_link(fr.Df())
        assert fr.outage(link, 1.0) == pytest.approx(0.864664716763387298,
                                                     rel=1e-10)

    def test_vanishing_threshold(self):
        link = unit_link(fr.Df())
        assert fr.outage(link, 1e-12) < 1e-10
        with pytest.raises(ValueError):
            fr.outage(link, 0.0)

    def test_monotone_in_average_snr(self):
        vals = [fr.outage(fr.RelayLink(make_hop(4, 2, 1, db),
                                       make_hop(4, 2, 1, db), fr.Df()), 1.0)
                for db in np.arange(0.0, 41.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_method_forcing(self):
        link = unit_link(fr.Df())
        assert fr.outage(link, 1.0, method="closed") == pytest.approx(
            fr.outage(link, 1.0, method="numeric"), abs=1e-9)
        with pytest.raises(ValueError):
            fr.outage(link, 1.0, method="magic")


class TestCdfShapeProperties:
    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.CsiAf(1),
                                       fr.FixedAf(), fr.Df()])
    def test_zero_monotone_and_saturating(self, proto):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, proto)
        assert fr.cdf(link, 0.0) <= 1e-9
        xs = np.geomspace(1e-3, 1e4, 200)
        vals = np.array([fr.cdf(link, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert vals[-1] > 1.0 - 1e-6

    def test_protocol_ordering_pointwise(self):
        """min(g1,g2) >= g1 g2/(g1+g2) >= g1 g2/(g1+g2+1) sample-wise, so
        the CDFs order the other way."""
        h = make_hop(4, 2, 1, 10.0)
        df = fr.RelayLink(h, h, fr.Df())
        c0 = fr.RelayLink(h, h, fr.CsiAf(0))
        c1 = fr.RelayLink(h, h, fr.CsiAf(1))
        for x in np.geomspace(0.01, 100.0, 20):
            f_df, f_c0, f_c1 = (fr.cdf(link, x) for link in (df, c0, c1))
            assert f_df <= f_c0 + 1e-12
            assert f_c0 <= f_c1 + 1e-12


class TestBoundRegime:
    def test_mode_detection(self):
        h = make_hop(4, 2, 2, 10.0)
        assert fr.link_mode(fr.RelayLink(h, h, fr.Df())) == "bound"
        hx = make_hop(4, 2, 1, 10.0)
        assert fr.link_mode(fr.RelayLink(hx, hx, fr.Df())) == "closed"
        assert fr.link_mode(fr.RelayLink(h, hx, fr.Df())) == "bound"

    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.FixedAf(), fr.Df()])
    def test_upper_bounds_true_cdf(self, proto):
        """With b - xi^2 <= 0 the closed route returns an upper bound of
        the true CDF (checked against the exact quadrature route)."""
        h = make_hop(4, 2, 2, 15.0)
        link = fr.RelayLink(h, h, proto)
        for x in np.geomspace(0.05, 30.0, 10):
            assert fr.cdf(link, x) >= fr.cdf_numeric(link, x) - 1e-9

    def test_bound_cdf_shape(self):
        h = make_hop(4, 2, 3, 10.0)   # non-trivial xi^2 > b
        link = fr.RelayLink(h, h, fr.Df())
        assert fr.cdf(link, 0.0) == 0.0
        xs = np.geomspace(1e-3, 1e3, 60)
        vals = [fr.cdf(link, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
