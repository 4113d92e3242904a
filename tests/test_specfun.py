"""Reference tests for the special-function layer.

Frozen high-precision values were computed once with a 30-digit
arbitrary-precision evaluation (series/quadrature) and are asserted at
the library's accuracy contract of 1e-10 relative.
"""

import math
import sys

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import fso_relay as fr
from fso_relay.specfun import _log_hyperu, _scaled_gamma

from helpers import make_hop


class TestUpperIncGamma:
    def test_order_one_is_exponential(self):
        for x in np.geomspace(0.01, 30.0, 14):
            assert fr.upper_inc_gamma(1.0, x) == pytest.approx(math.exp(-x),
                                                               rel=1e-12)

    def test_half_order_erfc(self):
        # Gamma(1/2, 1) = sqrt(pi) erfc(1)
        assert fr.upper_inc_gamma(0.5, 1.0) == pytest.approx(
            0.278805585280661976, rel=1e-12)

    def test_negative_half_order(self):
        # one recurrence step below the erfc value
        assert fr.upper_inc_gamma(-0.5, 1.0) == pytest.approx(
            0.17814771178156069, rel=1e-10)

    def test_zero_order_is_e1(self):
        assert fr.upper_inc_gamma(0.0, 1.0) == pytest.approx(
            0.219383934395520274, rel=1e-12)

    def test_strictly_decreasing_in_x(self):
        for a in (0.3, 1.0, 2.5):
            vals = [fr.upper_inc_gamma(a, x) for x in np.linspace(0.05, 8, 40)]
            assert np.all(np.diff(vals) < 0)

    def test_small_x_limit_is_gamma(self):
        # Gamma(a) - Gamma(a, x) = lower incomplete ~ x^a / a as x -> 0+
        for a in (0.4, 1.3, 3.0):
            x = 1e-13
            # the gap allowed is below one ulp of Gamma(a), so the
            # reference is scipy's Gamma, the one upper_inc_gamma uses
            gap = abs(fr.upper_inc_gamma(a, x) - special.gamma(a))
            assert gap <= 2.0 * x ** a / a

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_integer_order_finite_sum(self, n):
        """Gamma(n, x) = (n-1)! e^{-x} sum_{m<n} x^m / m!."""
        for x in np.geomspace(0.05, 20.0, 10):
            expected = (math.factorial(n - 1) * math.exp(-x)
                        * sum(x ** m / math.factorial(m) for m in range(n)))
            assert fr.upper_inc_gamma(float(n), x) == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 2, 4, 6])
    def test_negative_order_envelope(self, j):
        """Gamma(-j, x) <= e^{-x} x^{-j-1}, asymptotically tight."""
        for x in np.geomspace(0.2, 60.0, 16):
            val = fr.upper_inc_gamma(-float(j), x)
            envelope = math.exp(-x) * x ** (-j - 1.0)
            assert val <= envelope * (1.0 + 1e-12)
        # ratio -> 1 as x grows
        x_big = 300.0
        ratio = (fr.upper_inc_gamma(-float(j), x_big)
                 / (math.exp(-x_big) * x_big ** (-j - 1.0)))
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fr.upper_inc_gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            fr.upper_inc_gamma(1.0, -2.0)

    @pytest.mark.parametrize("a", [-2.5, -1.0, 0.0, 0.5, 2.0, 6.0])
    def test_array_against_mpmath(self, a):
        """Elementwise on an array, through every branch: a > 0, and for
        a <= 0 the recurrence below x = 2 and the continued fraction
        above, where each element stops at its own converged step."""
        mpmath = pytest.importorskip("mpmath")
        x = np.geomspace(1e-3, 700.0, 80)
        vals = fr.upper_inc_gamma(a, x)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.gammainc(a, v)) for v in x])
        np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0.0)
        # a scalar x gives the array's value for it
        np.testing.assert_allclose(
            vals, [fr.upper_inc_gamma(a, float(v)) for v in x],
            rtol=1e-13, atol=0.0)
        # shape kept, and each value independent of its neighbours
        grid = fr.upper_inc_gamma(a, x[::-1].reshape(8, 10))
        assert grid.ravel().tolist() == vals[::-1].tolist()
        assert fr.upper_inc_gamma(a, x[5:6])[0] == vals[5]

    @pytest.mark.parametrize("a", [-6.1, -2.5, -1.0, 0.0])
    def test_power_scaled_where_gamma_overflows(self, a):
        """e^x x^{-a} Gamma(a, x) stays finite down to x = 1e-300, where
        Gamma(a, x) itself is far beyond the float range for a < 0."""
        mpmath = pytest.importorskip("mpmath")
        x = np.array([1e-300, 1e-120, 1e-10, 0.5, 1.9, 2.1, 50.0])
        vals = _scaled_gamma(a, x)
        with mpmath.workdps(40):
            ref = [float(mpmath.exp(v) * mpmath.mpf(v) ** -a
                         * mpmath.gammainc(a, v)) for v in x]
        np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0.0)


class TestScaledUpperIncGamma:
    """_scaled_gamma, e^x x^{-a} Gamma(a, x) for a <= 0: the one route of
    the negative orders, for upper_inc_gamma, the exact PDF and CCDF, and
    the fixed gain."""

    @pytest.mark.parametrize("a", [0.0, -0.5, -3.0, -6.2])
    def test_matches_direct_product_moderate_x(self, a):
        mpmath = pytest.importorskip("mpmath")
        for x in (0.5, 5.0, 50.0, 400.0):
            with mpmath.workdps(30):
                direct = float(mpmath.exp(x) * mpmath.mpf(x) ** -a
                               * mpmath.gammainc(a, x))
            assert _scaled_gamma(a, x) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("a", [-6.2, -4.5, -3.0, -2.5, -1.0, -0.5, 0.0])
    def test_matches_mpmath(self, a):
        """Within 1e-13 of 40 digits from x = 1e-300 to 5e4, through the
        recurrence below x = 2 and the continued fraction from there."""
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-300, 5e4, 61),
                            [1.9, 1.99, 1.999999, 2.0, 2.000001, 2.01, 2.1]])
        with mpmath.workdps(40):
            ref = [float(mpmath.exp(v) * mpmath.mpf(v) ** -a
                         * mpmath.gammainc(a, v)) for v in x]
        np.testing.assert_allclose(_scaled_gamma(a, x), ref, rtol=1e-13,
                                   atol=0.0)

    @pytest.mark.parametrize("a,x,expected", [
        # straddles the recurrence/continued-fraction switchover at x=2
        (-0.5, 1.9, 0.0353312863067417537),
        (-0.5, 2.1, 0.0257066516256644684),
        (-3.0, 1.9, 0.00411609436304712832),
        (-3.0, 2.1, 0.00239599375625371595),
    ])
    def test_reference_values_around_switchover(self, a, x, expected):
        assert fr.upper_inc_gamma(a, x) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("a,expected", [
        (0.5, 0.0407908930549111623),
        (-4.5, 5.20249557731695316e-16),
    ])
    def test_large_x_reference(self, a, expected):
        """e^x Gamma(a, x) at x = 600, where Gamma(a, x) is near 1e-262."""
        assert math.exp(600.0) * fr.upper_inc_gamma(a, 600.0) == pytest.approx(
            expected, rel=1e-10)

    def test_huge_argument_asymptotic(self):
        # e^x Gamma(a, x) -> x^{a-1} (1 + (a-1)/x + ...)
        a, x = -2.0, 5e4
        lead = x ** (a - 1.0) * (1.0 + (a - 1.0) / x)
        assert x ** a * _scaled_gamma(a, x) == pytest.approx(lead, rel=1e-6)


class TestBesselK:
    def test_half_order_closed_form(self):
        for x in (0.3, 1.0, 4.0, 20.0):
            expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert fr.bessel_k(0.5, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.3, 1.0, 2.7])
    def test_order_symmetry(self, nu):
        for x in (0.5, 2.0, 9.0):
            assert fr.bessel_k(nu, x) == fr.bessel_k(-nu, x)

    def test_reference_point(self):
        assert fr.bessel_k(1.0, 2.0) == pytest.approx(0.139865881816522427,
                                                      rel=1e-12)

    @pytest.mark.parametrize("nu,x", [(0.0, 0.8), (1.5, 2.3), (3.0, 5.0)])
    def test_integral_representation(self, nu, x):
        """K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt."""
        ref, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                      0.0, 60.0, epsabs=1e-13, limit=300)
        assert fr.bessel_k(nu, x) == pytest.approx(ref, rel=1e-10)

    def test_positive_and_decreasing(self):
        xs = np.geomspace(0.05, 30.0, 50)
        vals = np.array([fr.bessel_k(1.3, x) for x in xs])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_domain_and_overflow(self):
        with pytest.raises(ValueError):
            fr.bessel_k(1.0, 0.0)
        with pytest.raises(OverflowError):
            fr.bessel_k(10.0, 1e-40)

    def test_log_variant_tracks_value(self):
        from fso_relay.specfun import log_bessel_k

        for nu, x in [(0.0, 0.3), (2.0, 1e-8), (1.3, 7.0)]:
            assert log_bessel_k(nu, x) == pytest.approx(
                math.log(fr.bessel_k(nu, x)), rel=1e-12)
        # beyond the plain kv range the scaled form carries the value
        assert log_bessel_k(1.0, 50.0) == pytest.approx(
            -51.722793870183626, rel=1e-12)
        assert log_bessel_k(4.0, 700.0) == pytest.approx(
            -703.038506869141208, rel=1e-12)

    def test_log_variant_tiny_argument(self):
        from fso_relay.specfun import log_bessel_k

        # far below kve's range: small-argument form takes over
        val = log_bessel_k(3.0, 1e-120)
        expected = math.log(math.gamma(3.0) / 2.0) - 3.0 * math.log(5e-121)
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 3.0])
    def test_log_variant_huge_argument(self, nu):
        from fso_relay.specfun import log_bessel_k

        # scipy's kve is NaN here; the large-argument form takes over
        # (its next term, ln(1 + (4 nu^2 - 1)/(8x)), is below 1e-8)
        x = 3e9
        assert log_bessel_k(nu, x) == pytest.approx(
            0.5 * math.log(math.pi / (2.0 * x)) - x, rel=1e-15)


class TestGauss2F1:
    def test_at_zero(self):
        assert fr.gauss_2f1(2.3, 0.7, 1.9, 0.0) == 1.0

    def test_log_identity(self):
        z = 0.3
        assert fr.gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log1p(-z) / z, rel=1e-12)

    def test_arcsine_identity(self):
        z = 0.25
        expected = math.asin(math.sqrt(z)) / math.sqrt(z)
        assert fr.gauss_2f1(0.5, 0.5, 1.5, z) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            fr.gauss_2f1(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            fr.gauss_2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            fr.gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            fr.gauss_2f1(1.0, 1.0, 2.0, -0.1)

    def test_elementwise(self):
        z = np.array([0.0, 0.3, 0.9])
        vals = fr.gauss_2f1(1.0, 1.0, 2.0, z)
        assert vals.shape == z.shape
        for zi, v in zip(z, vals):
            assert v == fr.gauss_2f1(1.0, 1.0, 2.0, float(zi))
        with pytest.raises(ValueError):
            fr.gauss_2f1(1.0, 1.0, 2.0, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            fr.gauss_2f1(1.0, 1.0, np.array([2.0, -1.0]), 0.5)


def _fixed_aber_u_arguments():
    """The distinct (a, b, z) at which the closed fixed-gain ABER of the
    (8, 6, 1) link evaluates the confluent U, at 20 and 30 dB."""
    aber_mod = sys.modules["fso_relay.aber"]
    seen = []

    def record(a, b, z):
        seen.append(np.column_stack([a, b, z]))
        return _log_hyperu(a, b, z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aber_mod, "_log_hyperu", record)
        for db in (20.0, 30.0):
            hop = make_hop(8, 6, 1, db)
            fr.aber(fr.RelayLink(hop, hop, fr.FixedAf()), fr.BPSK)
    return np.unique(np.vstack(seen), axis=0)


def _mpmath_log_hyperu(a, b, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        return np.array([float(mpmath.log(mpmath.hyperu(*abz)))
                         for abz in zip(a, b, z)])


def _assert_log_u_close(log_u, ref, rel):
    """ln U within rel of ln U_ref absolutely, i.e. U within rel relative
    (to first order)."""
    np.testing.assert_allclose(log_u, ref, rtol=0.0, atol=rel)


class TestConfluentU:
    def test_against_mpmath_on_grid(self):
        grid = np.meshgrid(np.arange(0.5, 17.0), np.arange(1.0, 10.0),
                           np.geomspace(1e-6, 5e3, 15), indexing="ij")
        a, b, z = (v.ravel() for v in grid)
        assert a.size == 2295
        _assert_log_u_close(_log_hyperu(a, b, z), _mpmath_log_hyperu(a, b, z),
                            1e-12)

    def test_against_mpmath_at_large_parameters(self):
        # the integrand's peak narrows like 1/sqrt(max(a, b-1)); a fixed
        # step of 0.15 is up to 8e-3 off here
        grid = [(a, b, z) for a in (30.0, 60.0, 100.0)
                for b in (1.0, a, 2.0 * a - 1.0) for z in (1.0, 30.0)]
        a, b, z = np.array(grid).T
        _assert_log_u_close(_log_hyperu(a, b, z), _mpmath_log_hyperu(a, b, z),
                            1e-12)

    def test_beyond_the_float_range(self):
        # U is about e^802 and e^1400 here, beyond the largest float
        a, b = np.array([60.0, 100.0]), np.array([119.0, 199.0])
        z = np.full(2, 0.01)
        ref = _mpmath_log_hyperu(a, b, z)
        assert np.all(ref > math.log(sys.float_info.max))
        _assert_log_u_close(_log_hyperu(a, b, z), ref, 1e-12)

    def test_against_mpmath_where_scipy_is_not_finite(self):
        args = _fixed_aber_u_arguments()
        args = args[~np.isfinite(special.hyperu(*args.T))]
        assert len(args) == 378
        _assert_log_u_close(_log_hyperu(*args.T), _mpmath_log_hyperu(*args.T),
                            1e-12)

    def test_where_scipy_is_inaccurate(self):
        # scipy's hyperu is 7.8e-4 relative off here
        a, b, z = np.array([11.5]), np.array([2.0]), np.array([4.66])
        _assert_log_u_close(_log_hyperu(a, b, z), _mpmath_log_hyperu(a, b, z),
                            1e-12)

    def test_kummer_transformation(self):
        """U(a, b, z) = z^{1-b} U(a-b+1, 2-b, z), here with b < 1 on the
        right."""
        a, b = np.full(3, 2.5), np.full(3, 1.7)
        z = np.array([1e-3, 0.4, 30.0])
        _assert_log_u_close(
            _log_hyperu(a, b, z),
            (1.0 - b) * np.log(z) + _log_hyperu(a - b + 1.0, 2.0 - b, z), 1e-13)

    def test_value_independent_of_batch(self):
        """Each U is summed on its own nodes, whatever else is in its
        chunk."""
        args = _fixed_aber_u_arguments()[::7]
        batch = _log_hyperu(*args.T)
        assert all(u == _log_hyperu(*row[:, None])
                   for u, row in zip(batch, args))


def _whittaker_w(kappa, mu, z):
    """W_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} U(mu - kappa + 1/2, 1 + 2 mu, z),
    the form in which the closed fixed-gain ABER uses the confluent U."""
    kappa, mu, z = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                         for v in (kappa, mu, z)))
    log_u = _log_hyperu(*(v.ravel()
                          for v in (mu - kappa + 0.5, 1.0 + 2.0 * mu, z)))
    return np.exp(-0.5 * z + (mu + 0.5) * np.log(z) + log_u.reshape(z.shape))


class TestWhittakerW:
    """Whittaker W formed from the confluent U."""

    def test_mu_symmetry(self):
        for kappa, mu, z in [(-0.7, 0.4, 1.3), (-1.2, 0.6, 2.5)]:
            assert _whittaker_w(kappa, mu, z) == pytest.approx(
                _whittaker_w(kappa, -mu, z), rel=1e-12)

    def test_bessel_identity(self):
        """W_{0,mu}(2z) = sqrt(2z/pi) K_mu(z)."""
        mu, z = 0.3, 1.5
        expected = math.sqrt(2.0 * z / math.pi) * fr.bessel_k(mu, z)
        assert _whittaker_w(0.0, mu, 2.0 * z) == pytest.approx(expected,
                                                               rel=1e-10)

    def test_reference_point(self):
        assert _whittaker_w(-0.5, 0.5, 1.0) == pytest.approx(
            0.412999214846500869, rel=1e-10)

    def test_against_u_integral(self):
        """Cross-check against direct quadrature of the confluent-U
        integral representation (a=1.5, b=2, z=1)."""
        a, b, z = 1.5, 2.0, 1.0
        ref, _ = quad(lambda t: math.exp(-z * t) * t ** (a - 1.0)
                      * (1.0 + t) ** (b - a - 1.0), 0, np.inf,
                      epsabs=1e-13, limit=300)
        ref /= math.gamma(a)
        expected = math.exp(-0.5 * z) * z ** (0.5 + 0.5) * ref
        assert _whittaker_w(-0.5, 0.5, z) == pytest.approx(expected,
                                                           rel=1e-9)

    def test_half_integer_degenerate_parameters(self):
        # 1 + 2mu integer: U must still deliver
        val = _whittaker_w(-1.0, 1.0, 2.0)
        assert math.isfinite(val) and val > 0.0

    def test_elementwise(self):
        kappa = np.array([-0.7, 0.2, -1.0])
        mu = np.array([0.4, 1.1, 1.0])
        vals = _whittaker_w(kappa, mu, 2.0)
        assert vals.shape == kappa.shape
        for k, m, v in zip(kappa, mu, vals):
            assert v == _whittaker_w(float(k), float(m), 2.0)

    # (a, b, z) of the fixed-gain ABER at (alpha, beta, xi^2) = (8, 6, 1),
    # where scipy's hyperu is non-finite
    @pytest.mark.parametrize("a", [3.5, 5.5, 7.5, 9.5])
    @pytest.mark.parametrize("b", [4.0, 6.0])
    @pytest.mark.parametrize("z", [1.3e-4, 1.3e-3, 1.3e-2])
    def test_hyperu_fallback_against_mpmath(self, a, b, z):
        mpmath = pytest.importorskip("mpmath")

        mpmath.mp.dps = 30
        [val] = np.exp(_log_hyperu(np.array([a]), np.array([b]),
                                   np.array([z])))
        w = _whittaker_w(0.5 * b - a, 0.5 * (b - 1.0), z)
        assert val == pytest.approx(float(mpmath.hyperu(a, b, z)), rel=1e-12)
        assert w == pytest.approx(
            float(mpmath.whitw(0.5 * b - a, 0.5 * (b - 1.0), z)), rel=1e-12)


class TestGaussLaguerre:
    def test_single_node(self):
        [(t, w)] = fr.gauss_laguerre(1)
        assert t == pytest.approx(1.0, rel=1e-12)
        assert w == pytest.approx(1.0, rel=1e-12)

    def test_two_nodes_closed_form(self):
        rule = fr.gauss_laguerre(2)
        nodes = sorted(t for t, _ in rule)
        assert nodes[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)
        assert nodes[1] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)
        weights = {round(t, 6): w for t, w in rule}
        assert weights[round(2.0 - math.sqrt(2.0), 6)] == pytest.approx(
            (2.0 + math.sqrt(2.0)) / 4.0, rel=1e-12)

    @pytest.mark.parametrize("L", [1, 2, 5, 10, 20, 40, 64])
    def test_first_moments(self, L):
        rule = fr.gauss_laguerre(L)
        assert math.fsum(w for _, w in rule) == pytest.approx(1.0, rel=1e-10)
        assert math.fsum(w * t for t, w in rule) == pytest.approx(1.0,
                                                                  rel=1e-10)

    @pytest.mark.parametrize("L", [3, 6, 10])
    def test_polynomial_exactness(self, L):
        """Moments sum(w t^k) = k! exactly for k <= 2L-1."""
        rule = fr.gauss_laguerre(L)
        for k in range(2 * L):
            moment = math.fsum(w * t ** k for t, w in rule)
            assert moment == pytest.approx(float(math.factorial(k)),
                                           rel=1e-8), f"k={k}"

    @pytest.mark.parametrize("L", [0, 65, -3])
    def test_invalid_order(self, L):
        with pytest.raises(ValueError):
            fr.gauss_laguerre(L)
