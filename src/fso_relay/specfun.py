"""Real-valued special functions used by the closed-form link statistics.

Everything here is a deterministic pure function.  Bessel K, the Gauss
hypergeometric function and the Gauss-Laguerre nodes wrap their scipy
routines with argument checks and overflow handling; the Gamma and error
functions are used directly from scipy and math.  The pieces scipy does
not provide are implemented here: the confluent U by the trapezoidal
rule on its integral (scipy's hyperu is non-finite or inaccurate at some
arguments the fixed-gain ABER needs), and the upper incomplete Gamma with
non-positive first argument and its exponentially-scaled variant.  Small
arguments use the finite downward recurrence

    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a

(cancellation-free there); larger arguments use the Lentz continued
fraction, since each recurrence step loses ~x/|a| relative precision
once x dominates the order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError

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

    Uses the exponentially scaled kv; where that is not finite, above
    x = nu + 1 (kve is NaN from x ~ 1.07e9) K_nu(x) ~ sqrt(pi/(2x)) e^{-x},
    below it the small-argument forms K_n(x) ~ (Gamma(n)/2)(2/x)^n (n > 0)
    resp. -ln(x/2) - euler_gamma (n = 0), where kve overflows.
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
        large = bad & (x_b > nu_b + 1.0)
        out = np.where(large, 0.5 * np.log(np.pi / (2.0 * x_b)) - x_b, out)
        bad &= ~large
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


def _hyperu(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Confluent U(a, b, z) elementwise on 1-D arrays, a > 0, z > 0.

    U = z^{-a}/Gamma(a) int exp(a u - e^u + (b-a-1) log1p(e^u/z)) du, the
    integral representation in s = e^u, by the trapezoidal rule, whose
    error falls off exponentially in 1/h for this analytic integrand.  The
    step is 0.15, or 0.6 of the peak width 1/sqrt(max(a, b-1)) if smaller;
    u spans [min(ln z, 0) - 38/a, ln(a+38) + 1], outside which the
    integrand is below e^{-38} of its peak.  Each row is a log-sum-exp;
    rows go 256 at a time to bound the transient memory.
    """
    log_z = np.log(z)
    h = np.minimum(0.15, 0.6 / np.sqrt(np.maximum(a, b - 1.0)))
    lo = np.minimum(log_z, 0.0) - 38.0 / a
    hi = np.log(a + 38.0) + 1.0
    n = np.ceil((hi - lo) / h).astype(int) + 1
    log_int = np.empty(len(a))
    for start in range(0, len(a), 256):
        r = slice(start, start + 256)
        j = np.arange(n[r].max())
        # columns past a row's own n are clipped to hi and masked out; the
        # running sum adds their zeros last, so no row depends on the others
        u = np.minimum(lo[r, None] + h[r, None] * j, hi[r, None])
        g = np.where(j < n[r, None],
                     a[r, None] * u - np.exp(u) + (b[r, None] - a[r, None] - 1.0)
                     * np.log1p(np.exp(u - log_z[r, None])), -np.inf)
        peak = g.max(axis=1)
        log_int[r] = peak + np.log(
            h[r] * np.cumsum(np.exp(g - peak[:, None]), axis=1)[:, -1])
    return np.exp(log_int - a * log_z - sp.gammaln(a))


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
