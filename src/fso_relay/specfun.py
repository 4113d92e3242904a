"""Real-valued special functions used by the closed-form link statistics.

Everything here is a deterministic pure function.  Bessel K, the Gauss
and confluent hypergeometric functions and the Gauss-Laguerre nodes wrap
their scipy routines with argument checks and overflow handling; the
Gamma and error functions are used directly from scipy and math.  The
pieces scipy does not provide -- the upper incomplete Gamma with
non-positive first argument and its exponentially-scaled variant -- are
implemented here.  Small arguments use the finite downward recurrence

    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a

(cancellation-free there); larger arguments use the Lentz continued
fraction, since each recurrence step loses ~x/|a| relative precision
once x dominates the order.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError

log = logging.getLogger(__name__)

_EULER_GAMMA = 0.5772156649015329
# the Lentz continued fraction for Gamma(a, x) converges fast and to
# ~5e-14 relative for x >= 2 at any a <= 0 (and for x > a + 2 generally);
# below that the downward recurrence is cancellation-free instead
_CF_MIN_X = 2.0
# relative step at which the continued fraction stops, and its term cap
_CF_TOL = 1e-14
_CF_MAX_TERMS = 500


def _gamma_cf(a: float, x: float) -> float:
    """Modified Lentz continued fraction h with Gamma(a, x) = e^{-x} x^a h."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise ConvergenceError(
        f"continued fraction for Gamma({a}, {x}) did not converge")


def upper_inc_gamma(a: float, x: float) -> float:
    """Upper incomplete Gamma(a, x) for x > 0 and any real a.

    For a <= 0: continued fraction when x >= 2; below that the downward
    recurrence from the first non-negative order (Gamma(0, x) = E_1(x)
    seeds the integer ladder).  The recurrence is avoided at large x
    where its subtraction cancels catastrophically.
    """
    if x <= 0.0:
        raise ValueError(f"upper_inc_gamma needs x > 0, got {x}")
    if a > 0.0:
        return float(sp.gammaincc(a, x) * sp.gamma(a))
    if x >= _CF_MIN_X:
        return math.exp(-x + a * math.log(x)) * _gamma_cf(a, x)
    order = a - math.floor(a)
    if order == 0.0:
        g = float(sp.exp1(x))
    else:
        g = float(sp.gammaincc(order, x) * sp.gamma(order))
    while order > a + 0.5:
        order -= 1.0
        g = (g - x ** order * math.exp(-x)) / order
    return g


def scaled_upper_inc_gamma(a: float, x: float) -> float:
    """e^x * Gamma(a, x), stable for large x where e^x alone overflows.

    Needed by the fixed-gain formula, whose terms are exactly of this
    shape with x = c/(A0*gbar) growing like 1/SNR.
    """
    if x <= 0.0:
        raise ValueError(f"scaled_upper_inc_gamma needs x > 0, got {x}")
    if x >= max(_CF_MIN_X, a + 2.0):
        return math.exp(a * math.log(x)) * _gamma_cf(a, x)
    return math.exp(x) * upper_inc_gamma(a, x)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, real order.

    K_nu = K_{-nu} is enforced; x <= 0 is rejected and an x small enough
    to overflow the result raises OverflowError rather than returning inf.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_k needs x > 0, got {x}")
    val = float(sp.kv(abs(nu), x))
    if math.isinf(val):
        raise OverflowError(f"bessel_k({nu}, {x}) overflows")
    return val


def log_bessel_k(nu, x):
    """ln K_nu(x) for x > 0, elementwise on arrays.

    Uses the exponentially scaled kv to stay finite for large x, and the
    small-argument forms K_n(x) ~ (Gamma(n)/2)(2/x)^n (n > 0) resp.
    -ln(x/2) - euler_gamma (n = 0) where even the scaled value overflows.
    """
    nu = np.abs(np.asarray(nu, dtype=float))
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_bessel_k needs x > 0")
    with np.errstate(over="ignore", divide="ignore"):
        out = np.log(sp.kve(nu, x)) - x
    bad = ~np.isfinite(out)
    if np.any(bad):
        nu_b, x_b = np.broadcast_arrays(nu, x)
        small = bad & (nu_b > 0.0)
        out = np.where(small,
                       sp.gammaln(np.where(small, nu_b, 1.0))
                       - math.log(2.0)
                       - nu_b * np.log(np.where(small, x_b, 1.0) / 2.0),
                       out)
        zero = bad & (nu_b == 0.0)
        out = np.where(zero,
                       np.log(-np.log(np.where(zero, x_b, 0.5) / 2.0)
                              - _EULER_GAMMA),
                       out)
    return out if out.ndim else float(out)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) on 0 <= z < 1, elementwise on
    arrays."""
    a, b, c, z = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (a, b, c, z)))
    pole = (c <= 0.0) & (c == np.floor(c))
    if np.any(pole):
        raise ValueError(f"gauss_2f1 pole at c={c[pole].flat[0]}")
    outside = ~((z >= 0.0) & (z < 1.0))
    if np.any(outside):
        raise ValueError(f"gauss_2f1 needs 0 <= z < 1, got {z[outside].flat[0]}")
    val = sp.hyp2f1(a, b, c, z)
    bad = ~np.isfinite(val)
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ConvergenceError(
            f"gauss_2f1({a.flat[i]}, {b.flat[i]}, {c.flat[i]}, {z.flat[i]}) diverged")
    return val if val.ndim else float(val)


def _hyperu_quadrature(a: float, b: float, z: float) -> float:
    # With t = s/z the integral representation reads
    #   U(a,b,z) = z^{-a}/Gamma(a) int_0^inf e^{-s} s^{a-1} (1+s/z)^{b-a-1} ds,
    # a > 0, whose integrand keeps the e^{-s} scale however small z is
    # (in t the mass spreads over t ~ 1/z, where a fixed-budget quad loses
    # digits).
    if a <= 0.0:
        raise ConvergenceError(
            f"no quadrature fallback for hyperu with a={a} <= 0")
    from scipy.integrate import quad

    val, _ = quad(lambda s: math.exp(-s + (a - 1.0) * math.log(s)
                                     + (b - a - 1.0) * math.log1p(s / z)),
                  0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return math.exp(math.log(val) - a * math.log(z) - math.lgamma(a))


def whittaker_w(kappa, mu, z):
    """Whittaker W_{kappa,mu}(z) for z > 0, elementwise on arrays.

    Evaluated as e^{-z/2} z^{mu+1/2} U(mu - kappa + 1/2, 1 + 2 mu, z); the
    mu -> -mu symmetry of W is applied first so the confluent U is always
    called with second parameter >= 1.  Where the scipy U backend returns
    a non-finite value, U comes from its integral representation instead.
    """
    kappa, mu, z = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                         for v in (kappa, mu, z)))
    if np.any(z <= 0.0):
        raise ValueError("whittaker_w needs z > 0")
    mu = np.abs(mu)
    a = mu - kappa + 0.5
    b = 1.0 + 2.0 * mu
    u = np.array(sp.hyperu(a, b, z), dtype=float)
    for i in np.flatnonzero(~np.isfinite(u)):
        ai, bi, zi = a.flat[i], b.flat[i], z.flat[i]
        log.warning("hyperu(%g, %g, %g) non-finite; using integral fallback",
                    ai, bi, zi)
        u.flat[i] = _hyperu_quadrature(ai, bi, zi)
    out = np.exp(-0.5 * z + (mu + 0.5) * np.log(z)) * u
    return out if out.ndim else float(out)


def gauss_laguerre(L: int) -> list[tuple[float, float]]:
    """Nodes and weights of the L-point Gauss-Laguerre rule (weight e^{-t}).

    The weights sum to 1 and the rule integrates polynomials of degree
    <= 2L-1 exactly against e^{-t} on (0, inf).
    """
    if not 1 <= L <= 64:
        raise ValueError(f"gauss_laguerre needs 1 <= L <= 64, got {L}")
    nodes, weights = sp.roots_laguerre(L)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ConvergenceError(f"Laguerre root finding failed for L={L}")
    return [(float(t), float(w)) for t, w in zip(nodes, weights)]
