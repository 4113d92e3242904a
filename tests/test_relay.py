"""End-to-end SNR CDFs for the three relay protocols."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import fso_relay as fr
from fso_relay import hop as hop_module, relay
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

    @pytest.mark.parametrize("db", [0.0, 10.0, 30.0])
    def test_bound_hop_takes_quadrature_gain(self, db):
        """A bound kernel's mass is above 1, so a gain from it comes out
        too small (0.748 against 1.686 at 0 dB, 50.3 against 293.5 at
        30 dB): a bound hop 1 takes the quadrature gain, and fixed_gain
        refuses it."""
        hop = make_hop(4, 2, 2, db)
        link = fr.RelayLink(hop, hop, fr.FixedAf())
        assert link.mode == "bound"
        assert link.gain == fr.fixed_gain_numeric(hop)
        assert relay._gain_from_kernel(hop.kernel) < 0.9 * link.gain
        with pytest.raises(IntegerConditionError):
            fr.fixed_gain(hop)

    def test_explicit_gain_respected(self):
        link = fr.RelayLink(unit_hop(), unit_hop(), fr.FixedAf(gain=3.0))
        assert link.gain == 3.0


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
        mixture = replace(h, gg=None)
        g = np.minimum(fr.sample_snr(mixture, rng, n),
                       fr.sample_snr(mixture, rng, n))
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

    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.CsiAf(1)])
    def test_deep_upper_tail(self, proto):
        """At 40 dB and x = 1e5 the CSI CDF is 1 - 1.08e-9: the integral is
        a sliver of the density's mass, which an adaptive rule can miss
        (it returned exactly 1 here)."""
        h = make_hop(4, 2, 1, 40.0)
        link = fr.RelayLink(h, h, proto)
        closed, numeric = fr.cdf(link, 1e5), fr.cdf_numeric(link, 1e5)
        assert closed < 1.0 - 1e-9
        assert abs(numeric - closed) <= min(1e-12, 1e-9 * closed)

    def test_small_fixed_gain_cdf_at_high_snr(self):
        """(8, 6, 1) fixed gain at 80 dB, x = 1e-4: the CDF is 1.85e-12.
        Both sides form it as a difference of numbers near 1, so they can
        agree only absolutely, to a few 1e-15 (an adaptive rule was
        6.3e-13 off)."""
        h = make_hop(8, 6, 1, 80.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        closed, numeric = fr.cdf(link, 1e-4), fr.cdf_numeric(link, 1e-4)
        assert 1e-12 < closed < 1e-11
        assert abs(numeric - closed) <= 1e-14

    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.FixedAf()])
    def test_step_resolves_large_shapes(self, proto, monkeypatch):
        """(20, 18, 1): mixture shapes b_i = 18 narrow the integrand's peak
        in u; a quarter of the rule's step moves no value by 1e-12."""
        h = make_hop(20, 18, 1, 20.0)
        link = fr.RelayLink(h, h, proto)
        xs = (0.1, 10.0, 100.0, 1000.0)
        values = [fr.cdf_numeric(link, x) for x in xs]
        step = relay._step
        monkeypatch.setattr(relay, "_step", lambda *hops: step(*hops) / 4.0)
        for x, val in zip(xs, values):
            fine = fr.cdf_numeric(link, x)
            assert abs(val - fine) <= min(1e-12, 1e-9 * fine)

    def test_df_large_shapes(self):
        """(20, 18, 1) DF: the incomplete-Gamma CCDF, whose two terms per
        mixture component nearly cancel in the tail, against the kernel
        sums."""
        h = make_hop(20, 18, 1, 20.0)
        link = fr.RelayLink(h, h, fr.Df())
        for x in (0.1, 10.0, 100.0, 1000.0):
            closed = fr.cdf(link, x)
            assert abs(fr.cdf_numeric(link, x) - closed) \
                <= min(1e-12, 1e-9 * closed)

    @pytest.mark.parametrize("params", [(4, 2, 3), (4, 2, 6), (4.2, 1.4, 6.7)])
    def test_window_when_pointing_dominates(self, params, monkeypatch):
        """xi^2 > b: near 0 the density goes like y^{b-1}, not y^{xi^2-1},
        so the window must reach further down than xi^2 alone suggests.
        A window 20 wider in u moves neither the fixed-gain CDF (by
        1e-12) nor the numeric gain (by 1e-12 relative)."""
        links = [fr.RelayLink(h, h, fr.FixedAf())
                 for h in (make_hop(*params, 20.0), make_hop(*params, 80.0))]
        xs = (0.01, 1.0, 10.0, 100.0)
        values = [fr.cdf_numeric(links[0], x) for x in xs]
        gains = [relay.fixed_gain_numeric(link.hop1) for link in links]
        window = relay._density_window

        def wide(hop, depth=40.0):
            lo, hi = window(hop, depth)
            return lo - 20.0, hi + 5.0

        monkeypatch.setattr(relay, "_density_window", wide)
        for x, val in zip(xs, values):
            assert abs(val - fr.cdf_numeric(links[0], x)) <= 1e-12
        for link, gain in zip(links, gains):
            assert gain == pytest.approx(relay.fixed_gain_numeric(link.hop1),
                                         rel=1e-12, abs=0.0)

    def test_gain_where_incomplete_gamma_overflows(self, monkeypatch):
        """(2.1, 0.6, 6.7) at 120 dB: at the window's lower edge
        Gamma(b - xi^2, t) = Gamma(-6.1, t) is about e^{720}, past the
        float range, while the density there is tiny.  The gain is finite
        and a window 20 wider in u moves it by under 1e-12 relative."""
        hop = make_hop(2.1, 0.6, 6.7, 120.0)
        gain = relay.fixed_gain_numeric(hop)
        assert 0.0 < gain < math.inf
        window = relay._density_window
        monkeypatch.setattr(relay, "_density_window",
                            lambda hop, depth=40.0: (window(hop, depth)[0] - 20.0,
                                                     window(hop, depth)[1]))
        assert gain == pytest.approx(relay.fixed_gain_numeric(hop),
                                     rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("proto", [fr.CsiAf(0), fr.CsiAf(1)])
    @pytest.mark.parametrize("params", [(8, 6, 3), (8, 6, 5)])
    def test_csi_window_with_strong_first_hop(self, proto, params):
        """Hop 1 at 60 dB, hop 2 at 0 dB: hop 1's CCDF at z/y stays near 1
        far below hop 2's scale, so the CSI integrand there is hop 2's
        density at x + y, whose mass near y = 0 does not vanish."""
        link = fr.RelayLink(make_hop(4, 2, 1, 60.0), make_hop(*params, 0.0),
                            proto)
        for x in (1e-6, 1e-2, 1.0, 10.0):
            assert abs(fr.cdf_numeric(link, x) - fr.cdf(link, x)) <= 1e-13


def _termwise_tail(link, x):
    """Tail sum of the AF CDFs with one term per kernel index tuple, as
    the sums are written, without merging."""
    k1, k2 = fr.auto_kernel(link.hop1), fr.auto_kernel(link.hop2)
    if isinstance(link.protocol, fr.FixedAf):
        u = link.gain
    lg = math.lgamma
    binom = lambda n, k: lg(n + 1.0) - lg(k + 1.0) - lg(n - k + 1.0)
    terms = []
    for lc1, m1, lam1 in zip(k1.log_coef, k1.power, k1.rate):
        for lc2, m2, lam2 in zip(k2.log_coef, k2.power, k2.rate):
            lead = math.log(2.0) + lc1 + lc2 + lg(m1)
            for r1 in range(m1):
                for s in range(r1 + 1):
                    if isinstance(link.protocol, fr.FixedAf):
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
        for x in (0.05, 0.7, 6.0):
            z = x * x + proto.q * x if isinstance(proto, fr.CsiAf) else x
            assert link.table.tail(x, z) == pytest.approx(
                _termwise_tail(link, x), rel=1e-13)

    @pytest.mark.parametrize("xi_sq,route", [(1, "closed"), (2, "bound"),
                                             (1.5, "numeric")])
    @pytest.mark.parametrize("proto", [fr.Df(), fr.CsiAf(0), fr.CsiAf(1),
                                       fr.FixedAf()])
    def test_array_cdf_equals_scalar_calls(self, proto, xi_sq, route):
        """On an array, each x's CDF is the scalar call's bit for bit, on
        every route."""
        h = make_hop(4, 2, xi_sq, 10.0)
        link = fr.RelayLink(h, h, proto)
        assert link.mode == route
        x = np.geomspace(1e-6, 1e3, 36)
        scalar = [link.cdf(float(v)) for v in x]
        assert all(type(v) is float for v in scalar)
        assert link.cdf(x.reshape(6, 6)).ravel().tolist() == scalar

    def test_routes_and_gain(self):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        assert link.mode == "closed"
        assert link.gain == fr.fixed_gain(h)
        hn = make_hop(2.9, 1.7, 0.8, 10.0)
        numeric = fr.RelayLink(hn, hn, fr.CsiAf(0))
        assert numeric.mode == "numeric" and numeric.kernels is None
        assert numeric.cdf(1.0) == fr.cdf_numeric(numeric, 1.0)
        with pytest.raises(IntegerConditionError):
            fr.cdf(numeric, 1.0)

    def test_link_resolves_once(self, monkeypatch):
        """Every evaluation of one link shares its hops' kernels, its term
        table and its gain: nine calls build two kernels, one table and one
        gain."""
        calls = {"kernel": 0, "table": 0, "gain": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(hop_module, "auto_kernel",
                            counted("kernel", hop_module.auto_kernel))
        monkeypatch.setattr(relay.TermTable, "merged", classmethod(
            counted("table", relay.TermTable.merged.__func__)))
        monkeypatch.setattr(relay, "_gain_from_kernel",
                            counted("gain", relay._gain_from_kernel))
        link = fr.RelayLink(make_hop(8, 6, 1, 10.0), make_hop(8, 6, 1, 10.0),
                            fr.FixedAf())
        cfg = fr.McConfig(samples=10_000, seed=1)
        fr.cdf(link, 1.0)
        fr.cdf_numeric(link, 1.0)
        fr.aber_fixed(link, fr.BPSK)
        fr.aber_quadrature(link, fr.BPSK)
        fr.outage(link, 1.0)
        fr.aber(link, fr.BPSK)
        fr.link_mode(link)
        fr.estimate_outage(link, 1.0, cfg)
        fr.estimate_aber(link, fr.BPSK, cfg)
        assert calls == {"kernel": 2, "table": 1, "gain": 1}

    def test_gain_rule_on_asymmetric_links(self):
        """The fixed gain comes from hop 1's kernel whenever hop 1 has
        one, even when hop 2 puts the link on the numeric route.  At 0 dB
        the two gains of the closed hop differ in the last bits."""
        closed, numeric = make_hop(4, 2, 1, 0.0), make_hop(4, 2, 1.5, 0.0)
        assert fr.fixed_gain(closed) != fr.fixed_gain_numeric(closed)
        link = fr.RelayLink(closed, numeric, fr.FixedAf())
        assert link.mode == "numeric"
        assert link.gain == fr.fixed_gain(closed)
        link = fr.RelayLink(numeric, closed, fr.FixedAf())
        assert link.mode == "numeric"
        assert link.gain == fr.fixed_gain_numeric(numeric)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_parameters_rejected(self, bad):
        for build in (lambda: fr.Pointing(xi_sq=bad, a0=1.0),
                      lambda: replace(unit_hop(), gamma_bar=bad),
                      lambda: fr.Modulation(bad, 1.0),
                      lambda: fr.Modulation(0.5, bad),
                      lambda: fr.FixedAf(gain=bad)):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("xi_sq", [1.0, 1.5])
    def test_nan_x_rejected(self, xi_sq):
        h = make_hop(4, 2, xi_sq, 10.0)
        link = fr.RelayLink(h, h, fr.CsiAf(0))
        for fn in (link.cdf, partial(fr.cdf_numeric, link)):
            with pytest.raises(ValueError, match="x >= 0"):
                fn(np.array([1.0, math.nan]))


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
