"""Monte Carlo sampling, estimators and the determinism contract."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc, gammaincc

import fso_relay as fr
from fso_relay import mcsim
from fso_relay.mcsim import _conditional_ber, _end_to_end
from helpers import make_hop, unit_hop


class TestConfigTypes:
    def test_sample_floor(self):
        with pytest.raises(ValueError):
            fr.McConfig(samples=5000, seed=1)

    def test_stream_floor(self):
        with pytest.raises(ValueError):
            fr.McConfig(samples=10_000, seed=1, streams=0)

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            fr.Estimate(value=0.5, std_err=0.1, ci95=(0.6, 0.7))
        with pytest.raises(ValueError):
            fr.Estimate(value=0.5, std_err=-0.1, ci95=(0.4, 0.6))


class TestSamplePointing:
    def test_support_bounded_by_a0(self):
        hop = make_hop(4, 2, 1, 10.0)
        draws = fr.sample_pointing(hop, np.random.default_rng(1), 100_000)
        assert draws.max() <= hop.pointing.a0
        assert draws.min() > 0.0

    def test_mean_matches_moment(self):
        hop = make_hop(4, 2, 2, 10.0)
        n = 400_000
        draws = fr.sample_pointing(hop, np.random.default_rng(2), n)
        p = hop.pointing
        expected = p.xi_sq * p.a0 / (1.0 + p.xi_sq)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - expected) < 3.0 * se

    def test_degenerate_limit(self):
        mg = fr.MixtureGamma(terms=((1.0, 2.0, 1.0),))
        hop = fr.HopChannel(mg=mg, pointing=fr.Pointing(xi_sq=1e8, a0=0.7),
                            gamma_bar=1.0)
        draws = fr.sample_pointing(hop, np.random.default_rng(3), 10_000)
        assert np.all(np.abs(draws - 0.7) < 1e-5)


class TestSampleGammaGamma:
    def test_unit_mean(self):
        n = 400_000
        draws = fr.sample_gamma_gamma(4.0, 2.0, np.random.default_rng(4), n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.0) < 3.0 * se

    def test_product_variance(self):
        al, be, n = 4.0, 2.0, 400_000
        draws = fr.sample_gamma_gamma(al, be, np.random.default_rng(5), n)
        expected = (1.0 + 1.0 / al) * (1.0 + 1.0 / be) - 1.0
        sample_var = draws.var(ddof=1)
        # var of the variance estimator via 4th-moment bound, loose 5 sigma
        se = math.sqrt((np.mean((draws - draws.mean()) ** 4)
                        - sample_var ** 2) / n)
        assert abs(sample_var - expected) < 5.0 * se

    def test_degenerate_limit(self):
        draws = fr.sample_gamma_gamma(5e4, 5e4, np.random.default_rng(6),
                                      50_000)
        assert draws.var() < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            fr.sample_gamma_gamma(0.0, 2.0, np.random.default_rng(0), 10)


class TestSampleSnr:
    def test_mean_is_gamma_bar(self):
        hop = make_hop(4, 2, 1, 10.0)
        n = 500_000
        draws = fr.sample_snr(hop, np.random.default_rng(7), n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - hop.gamma_bar) < 3.0 * se

    def test_empirical_cdf_within_dkw_band(self):
        hop = make_hop(5, 3, 2, 10.0)
        n = 1_000_000
        draws = np.sort(fr.sample_snr(replace(hop, gg=None),
                                      np.random.default_rng(8), n))
        for x in np.geomspace(0.05, 80.0, 15):
            emp = np.searchsorted(draws, x, side="right") / n
            ana = 1.0 - fr.snr_ccdf(hop, x)
            assert abs(emp - ana) < 0.0017   # DKW at 1e6, 5%

    def test_mixture_source_close_to_gamma_gamma_source(self):
        """Two-sample Kolmogorov distance between fit-based and exact
        channel sampling stays below 1e-2 at L=10."""
        hop = make_hop(4, 2, 1, 10.0)
        n = 400_000
        a = np.sort(fr.sample_snr(replace(hop, gg=None),
                                  np.random.default_rng(9), n))
        b = np.sort(fr.sample_snr(hop, np.random.default_rng(10), n))
        grid = np.geomspace(0.05, 100.0, 60)
        ks = max(abs(np.searchsorted(a, x) - np.searchsorted(b, x)) / n
                 for x in grid)
        assert ks < 0.01


class TestEstimateOutage:
    def test_df_unit_channel_within_ci(self):
        hop = unit_hop()
        link = fr.RelayLink(hop, hop, fr.Df())
        est = fr.estimate_outage(link, 1.0,
                                 fr.McConfig(samples=1_000_000, seed=12))
        assert est.ci95[0] <= 0.864664716763387 <= est.ci95[1]
        assert not est.degenerate

    def test_unreachable_threshold_flags_degenerate(self):
        hop = unit_hop()
        link = fr.RelayLink(hop, hop, fr.Df())
        est = fr.estimate_outage(link, 1e-300,
                                 fr.McConfig(samples=10_000, seed=1))
        assert est.value == 0.0 and est.std_err == 0.0 and est.degenerate

    def test_q_ordering_with_common_draws(self):
        """Same seed means same SNR draws, so the exact-normalization
        outage dominates the approximate one deterministically."""
        h = make_hop(4, 2, 1, 10.0)
        cfg = fr.McConfig(samples=500_000, seed=13)
        e0 = fr.estimate_outage(fr.RelayLink(h, h, fr.CsiAf(0)), 1.0, cfg)
        e1 = fr.estimate_outage(fr.RelayLink(h, h, fr.CsiAf(1)), 1.0, cfg)
        assert e1.value >= e0.value

    def test_closed_form_within_ci(self):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.CsiAf(0))
        est = fr.estimate_outage(link, 1.0,
                                 fr.McConfig(samples=2_000_000, seed=14))
        assert est.ci95[0] <= fr.outage(link, 1.0) <= est.ci95[1]


class TestEstimateAber:
    def test_df_unit_channel_within_ci(self):
        hop = unit_hop()
        link = fr.RelayLink(hop, hop, fr.Df())
        est = fr.estimate_aber(link, fr.BPSK,
                               fr.McConfig(samples=1_000_000, seed=15))
        assert est.ci95[0] <= 0.211324865405187 <= est.ci95[1]

    def test_interval_clipped_at_zero(self):
        """At 50 dB the ABER is ~7e-6 and 1e4 samples give a standard error
        above half of it: the interval's lower end is 0, not negative."""
        h = make_hop(4, 2, 1, 50.0)
        est = fr.estimate_aber(fr.RelayLink(h, h, fr.Df()), fr.BPSK,
                               fr.McConfig(samples=10_000, seed=1))
        assert est.value - 1.96 * est.std_err < 0.0
        assert est.ci95 == (0.0, est.value + 1.96 * est.std_err)

    def test_replay_determinism(self):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        cfg = fr.McConfig(samples=100_000, seed=16)
        assert fr.estimate_aber(link, fr.BPSK, cfg) \
            == fr.estimate_aber(link, fr.BPSK, cfg)

    def test_fixed_gain_link_within_ci(self):
        h = make_hop(4, 3, 1, 10.0)
        link = fr.RelayLink(h, h, fr.FixedAf())
        est = fr.estimate_aber(link, fr.BPSK,
                               fr.McConfig(samples=2_000_000, seed=17))
        assert est.ci95[0] - 1e-4 <= fr.aber_fixed(link, fr.BPSK) \
            <= est.ci95[1] + 1e-4

    @pytest.mark.parametrize("mod", [fr.BPSK, fr.Modulation(0.5, 2.0)])
    def test_erfc_kernel_matches_incomplete_gamma(self, mod):
        g = np.geomspace(1e-8, 700.0, 400)
        np.testing.assert_allclose(_conditional_ber(mod, g),
                                   0.5 * gammaincc(mod.p, mod.q * g),
                                   rtol=1e-12, atol=0.0)

    def test_other_orders_use_incomplete_gamma(self, monkeypatch):
        """P = 1/2 goes through erfc; P = 3/2 takes scipy's regularized
        incomplete Gamma, with the same stream invariance."""
        calls = []

        def counted(p, x):
            calls.append(p)
            return gammaincc(p, x)

        monkeypatch.setattr(mcsim, "gammaincc", counted)
        hop = unit_hop()
        link = fr.RelayLink(hop, hop, fr.Df())
        fr.estimate_aber(link, fr.BPSK, fr.McConfig(samples=100_000, seed=22))
        assert calls == []
        mod = fr.Modulation(1.5, 1.0)
        ests = [fr.estimate_aber(link, mod, fr.McConfig(samples=300_000,
                                                        seed=22, streams=s))
                for s in (1, 4, 16)]
        assert set(calls) == {1.5}
        assert ests[0] == ests[1] == ests[2]
        # min of two unit exponentials is Exp(2), and E[Q(P, g)] over
        # g ~ Exp(2) is 1 - 3^{-P}
        assert ests[0].ci95[0] <= 0.5 * (1.0 - 3.0 ** -1.5) <= ests[0].ci95[1]


class TestDeterminism:
    def test_stream_count_invariance(self):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.Df())
        results = [fr.estimate_outage(
            link, 1.0, fr.McConfig(samples=200_000, seed=18, streams=s))
            for s in (1, 4, 16)]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("streams", [1, 4])
    def test_contract_rebuilt_from_draws(self, streams):
        """Block b holds 65,536 samples drawn from
        default_rng(SeedSequence(seed, spawn_key=(b,))) in the order hop-1
        pointing, hop-1 fading, hop-2 pointing, hop-2 fading; the per-block
        sums are reduced in block order with fsum."""
        h1, h2 = make_hop(4, 2, 1, 10.0), make_hop(4, 2, 1, 13.0)
        link = fr.RelayLink(h1, h2, fr.CsiAf(0))
        n, seed, gamma_th = 100_000, 23, 10.0
        hits, sums, squares = [], [], []
        for b, size in enumerate((65_536, n - 65_536)):
            rng = np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(b,)))
            g1 = fr.sample_snr(h1, rng, size)
            g2 = fr.sample_snr(h2, rng, size)
            g = g1 * g2 / (g1 + g2)
            hits.append(float(np.count_nonzero(g < gamma_th)))
            kern = 0.5 * erfc(np.sqrt(g))
            sums.append(float(kern.sum()))
            squares.append(float(np.square(kern).sum()))
        cfg = fr.McConfig(samples=n, seed=seed, streams=streams)

        p_hat = math.fsum(hits) / n
        out = fr.estimate_outage(link, gamma_th, cfg)
        assert out.value == p_hat
        assert out.std_err == math.sqrt(p_hat * (1.0 - p_hat) / n)
        mean = math.fsum(sums) / n
        est = fr.estimate_aber(link, fr.BPSK, cfg)
        assert est.value == mean
        assert est.std_err == math.sqrt(
            (math.fsum(squares) / n - mean * mean) / n)

    def test_std_err_scales_with_sample_count(self):
        h = make_hop(4, 2, 1, 10.0)
        link = fr.RelayLink(h, h, fr.Df())
        e4 = fr.estimate_outage(link, 1.0, fr.McConfig(samples=10_000, seed=19))
        e6 = fr.estimate_outage(link, 1.0,
                                fr.McConfig(samples=1_000_000, seed=19))
        assert e4.std_err / e6.std_err == pytest.approx(10.0, rel=0.3)

    def test_sample_wise_protocol_ordering(self):
        h = make_hop(4, 2, 1, 10.0)
        rng = np.random.default_rng(20)
        n = 50_000
        df = fr.RelayLink(h, h, fr.Df())
        g_df = _end_to_end(df, None, np.random.default_rng(21), n)
        g_c0 = _end_to_end(fr.RelayLink(h, h, fr.CsiAf(0)), None,
                           np.random.default_rng(21), n)
        g_c1 = _end_to_end(fr.RelayLink(h, h, fr.CsiAf(1)), None,
                           np.random.default_rng(21), n)
        assert np.all(g_c1 <= g_c0) and np.all(g_c0 <= g_df)
