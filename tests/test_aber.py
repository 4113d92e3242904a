"""Average BER: kernel quadrature and the three closed forms."""

import math
import warnings

import numpy as np
import pytest

import fso_relay as fr
from fso_relay import relay
from fso_relay.errors import IntegerConditionError
from helpers import make_hop, unit_hop

ABER_DF_UNIT = 0.211324865405187118      # 1/2 - 1/(2 sqrt(3))
ABER_CSI0_UNIT = 0.243331153476390513
ABER_FIXED_UNIT = 0.276862261695711094


def unit_link(protocol):
    hop = unit_hop()
    return fr.RelayLink(hop, hop, protocol)


class TestModulation:
    def test_presets(self):
        assert (fr.BPSK.p, fr.BPSK.q) == (0.5, 1.0)
        assert (fr.DPSK.p, fr.DPSK.q) == (1.0, 1.0)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (0.5, 0.0), (-1.0, 1.0)])
    def test_validation(self, p, q):
        with pytest.raises(ValueError):
            fr.Modulation(p, q)


class TestKernelQuadrature:
    def test_always_outage_gives_half(self):
        assert fr.aber_from_cdf(lambda z: 1.0, fr.BPSK) == pytest.approx(
            0.5, rel=1e-9)
        assert fr.aber_from_cdf(lambda z: 1.0, fr.DPSK) == pytest.approx(
            0.5, rel=1e-9)

    def test_never_outage_gives_zero(self):
        assert fr.aber_from_cdf(lambda z: 0.0, fr.BPSK) == 0.0

    def test_df_unit_channel(self):
        """Exp(2) end-to-end SNR under the coherent binary kernel."""
        link = unit_link(fr.Df())
        assert fr.aber_quadrature(link, fr.BPSK) == pytest.approx(
            ABER_DF_UNIT, rel=1e-8)


class TestCsiAber:
    def test_unit_channel(self):
        link = unit_link(fr.CsiAf(q=0))
        assert fr.aber_csi(link, fr.BPSK) == pytest.approx(ABER_CSI0_UNIT,
                                                           rel=1e-10)

    def test_matches_quadrature_on_unit_channel(self):
        link = unit_link(fr.CsiAf(q=0))
        assert abs(fr.aber_csi(link, fr.BPSK)
                   - fr.aber_quadrature(link, fr.BPSK)) < 1e-6

    @pytest.mark.parametrize("db", [0.0, 10.0, 20.0])
    def test_matches_quadrature_on_fitted_channel(self, db):
        h = make_hop(4, 2, 1, db)
        link = fr.RelayLink(h, h, fr.CsiAf(q=0))
        assert abs(fr.aber_csi(link, fr.BPSK)
                   - fr.aber_quadrature(link, fr.BPSK)) < 1e-6

    def test_negative_bessel_orders(self):
        h = make_hop(5, 4, 1, 10.0)
        link = fr.RelayLink(h, h, fr.CsiAf(q=0))
        assert abs(fr.aber_csi(link, fr.BPSK)
                   - fr.aber_quadrature(link, fr.BPSK)) < 1e-6

    def test_decreasing_in_snr(self):
        vals = [fr.aber_csi(fr.RelayLink(make_hop(4, 2, 1, db),
                                         make_hop(4, 2, 1, db),
                                         fr.CsiAf(q=0)), fr.BPSK)
                for db in np.arange(0.0, 41.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_q1_has_no_closed_form(self):
        link = unit_link(fr.CsiAf(q=1))
        with pytest.raises(ValueError):
            fr.aber_csi(link, fr.BPSK)
        # served through quadrature over its closed-form CDF instead
        val = fr.aber_quadrature(link, fr.BPSK)
        assert val == pytest.approx(fr.aber(link, fr.BPSK), rel=1e-10)
        assert val > fr.aber(unit_link(fr.CsiAf(q=0)), fr.BPSK)


class TestFixedAber:
    def test_unit_channel(self):
        link = unit_link(fr.FixedAf())
        assert fr.aber_fixed(link, fr.BPSK) == pytest.approx(ABER_FIXED_UNIT,
                                                             rel=1e-10)

    @pytest.mark.parametrize("db", [0.0, 10.0, 20.0])
    def test_matches_quadrature(self, db):
        h = make_hop(4, 2, 1, db)
        link = fr.RelayLink(h, h, fr.FixedAf())
        assert abs(fr.aber_fixed(link, fr.BPSK)
                   - fr.aber_quadrature(link, fr.BPSK)) < 1e-6

    @pytest.mark.parametrize("alpha,beta", [(4, 2), (8, 6)])
    def test_matches_quadrature_at_low_snr(self, alpha, beta):
        # at -30 dB most Whittaker arguments exceed 1,500, where
        # e^{-w/2} W underflows unless the term is formed in logs
        h = make_hop(alpha, beta, 1, -30.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            closed = fr.aber_fixed(link, fr.BPSK)
        assert closed == pytest.approx(fr.aber_quadrature(link, fr.BPSK),
                                       rel=1e-10)

    def test_no_warning_at_high_snr(self):
        # at 80 dB scipy's hyperu is non-finite at some of the sum's U
        # arguments; U is evaluated there without any quadrature warning
        h = make_hop(4, 2, 1, 80.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = fr.aber(link, fr.BPSK)
        assert closed == pytest.approx(fr.aber_quadrature(link, fr.BPSK),
                                       rel=1e-6)

    def test_matches_monte_carlo(self):
        for al, be, xi, db in [(4, 2, 1, 10.0), (5, 3, 2, 5.0)]:
            h = make_hop(al, be, xi, db)
            link = fr.RelayLink(h, h, fr.FixedAf())
            est = fr.estimate_aber(link, fr.BPSK,
                                   fr.McConfig(samples=1_000_000, seed=23))
            assert abs(fr.aber_fixed(link, fr.BPSK) - est.value) \
                < 3.0 * est.std_err + 1e-4

    def test_never_beats_csi_assisted(self):
        for db in np.arange(0.0, 31.0, 5.0):
            h = make_hop(4, 2, 1, db)
            a_fx = fr.aber_fixed(fr.RelayLink(h, h, fr.FixedAf()), fr.BPSK)
            a_csi = fr.aber_csi(fr.RelayLink(h, h, fr.CsiAf(0)), fr.BPSK)
            assert a_fx >= a_csi - 1e-12


class TestDfAber:
    def test_unit_channel(self):
        link = unit_link(fr.Df())
        assert fr.aber_df(link, fr.BPSK) == pytest.approx(ABER_DF_UNIT,
                                                          rel=1e-12)

    def test_dpsk_kernel_matches_quadrature(self):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.Df())
        assert abs(fr.aber_df(link, fr.DPSK)
                   - fr.aber_quadrature(link, fr.DPSK)) < 1e-6

    def test_protocol_ordering(self):
        for db in np.arange(0.0, 31.0, 5.0):
            h = make_hop(4, 2, 1, db)
            a_df = fr.aber_df(fr.RelayLink(h, h, fr.Df()), fr.BPSK)
            a_csi = fr.aber_csi(fr.RelayLink(h, h, fr.CsiAf(0)), fr.BPSK)
            a_fx = fr.aber_fixed(fr.RelayLink(h, h, fr.FixedAf()), fr.BPSK)
            assert a_df <= a_csi + 1e-12 <= a_fx + 2e-12


class TestAberDispatcher:
    def test_closed_paths(self):
        assert fr.aber(unit_link(fr.Df()), fr.BPSK) == pytest.approx(
            ABER_DF_UNIT, rel=1e-10)
        assert fr.aber(unit_link(fr.CsiAf(0)), fr.BPSK) == pytest.approx(
            ABER_CSI0_UNIT, rel=1e-10)

    def test_bound_regime_upper_bounds_truth(self):
        h = make_hop(4, 2, 2, 10.0)
        link = fr.RelayLink(h, h, fr.Df())
        with pytest.raises(IntegerConditionError):
            fr.aber_df(link, fr.BPSK)
        val = fr.aber(link, fr.BPSK)     # quadrature over the bound CDF
        truth = fr.aber_quadrature(link, fr.BPSK, basis="numeric")
        assert val >= truth - 1e-9

    def test_values_in_physical_range(self):
        for proto in (fr.Df(), fr.CsiAf(0), fr.CsiAf(1), fr.FixedAf()):
            for db in (0.0, 20.0, 40.0):
                h = make_hop(4, 2, 1, db)
                val = fr.aber(fr.RelayLink(h, h, proto), fr.BPSK)
                assert 0.0 < val <= 0.5


class TestStrongTurbulence:
    @pytest.mark.parametrize("db", [10.0, 30.0])
    @pytest.mark.parametrize("proto,closed", [(fr.CsiAf(0), fr.aber_csi),
                                              (fr.FixedAf(), fr.aber_fixed),
                                              (fr.Df(), fr.aber_df)])
    def test_closed_forms_match_kernel_quadrature(self, proto, closed, db):
        """(8, 6, 1): the fixed-gain sum needs the confluent U at arguments
        where scipy's hyperu is non-finite."""
        h = make_hop(8, 6, 1, db)
        link = fr.RelayLink(h, h, proto)
        assert closed(link, fr.BPSK) == pytest.approx(
            fr.aber_quadrature(link, fr.BPSK), rel=1e-9)


class TestQuadratureOracle:
    def test_fixed_gain_resolved_once(self, monkeypatch):
        """The quadrature ABERs of a fixed-gain link off the integer
        conditions compute the gain once, not once per CDF point."""
        calls = []
        gain_fn = relay.fixed_gain_numeric

        def counted(hop):
            calls.append(hop)
            return gain_fn(hop)

        monkeypatch.setattr(relay, "fixed_gain_numeric", counted)
        h = fr.HopChannel(mg=fr.MixtureGamma(terms=((1.0, 2.0, 1.0),)),
                          pointing=fr.Pointing(xi_sq=1.5, a0=1.0),
                          gamma_bar=1.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        val = fr.aber_quadrature(link, fr.BPSK, basis="numeric")
        assert len(calls) == 1
        calls.clear()
        assert fr.aber(link, fr.BPSK) == pytest.approx(val, rel=1e-12)
        assert len(calls) == 1


class TestMonteCarloKernelConsistency:
    def test_expectation_matches_definition(self):
        """Averaging Gamma(P, Q g)/(2 Gamma(P)) over end-to-end SNR
        samples reproduces the CDF-weighted integral (by parts)."""
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.Df())
        est = fr.estimate_aber(link, fr.BPSK,
                               fr.McConfig(samples=1_000_000, seed=31))
        assert abs(est.value - fr.aber_df(link, fr.BPSK)) \
            < 3.0 * est.std_err + 1e-4


class TestHighSnrSlopes:
    def test_diversity_order_shared_across_protocols(self):
        """log10 ABER slopes over 30..40 dB agree within 10%."""
        dbs = np.arange(30.0, 41.0, 2.5)
        slopes = []
        for proto in (fr.Df(), fr.CsiAf(0), fr.FixedAf()):
            logs = [math.log10(fr.aber(fr.RelayLink(make_hop(4, 2, 1, db),
                                                    make_hop(4, 2, 1, db),
                                                    proto), fr.BPSK))
                    for db in dbs]
            slope = np.polyfit(dbs, logs, 1)[0]
            slopes.append(slope)
        ref = min(abs(s) for s in slopes)
        assert max(abs(s) for s in slopes) - ref <= 0.10 * ref
