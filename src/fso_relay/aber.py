"""Average bit-error rate of the relayed link.

ABER = Q^P / (2 Gamma(P)) * int_0^inf z^{P-1} e^{-Qz} F(z) dz, where F is
the end-to-end SNR CDF and (P, Q) the modulation kernel -- (1/2, 1) for
coherent BPSK.  aber_from_cdf integrates that kernel against any array
CDF by relay's trapezoidal rule in ln z; aber_quadrature runs it over a
link's CDF at the link's step, split on the bound route where the
clamped bound reaches 1.  aber_csi (q=0), aber_fixed and aber_df carry
out the integral symbolically term by term, under the integer conditions
of the CDF sums (exact kernels on both hops): the CSI and fixed-gain
ABERs transform the columns of the link's merged CDF term table, whose
terms each integrate to one 2F1 resp. confluent-U factor, and the DF
ABER pairs the terms of the two hop tails.  The special functions are
evaluated once per distinct argument tuple.  aber takes the closed form
where one exists and aber_quadrature for the rest (q=1, and the bound
and numeric routes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import IntegerConditionError
from .relay import (CsiAf, Df, FixedAf, RelayLink, _step,
                    _trapezoid, cdf_numeric)
from .specfun import _exp_fsum, _log_hyperu, gauss_2f1

_BER_FLOOR = 1e-300
_LN2 = math.log(2.0)
# the ABER rule's window in z: e^{-Qz} < e^{-800} above 800/Q, and below
# e^{-350} the CSI CDF's z^2 would leave the normal floats
_Z_TOP = 800.0
_LOG_Z_MIN = -350.0


@dataclass(frozen=True, slots=True)
class Modulation:
    """ABER kernel parameters; the conditional error probability is
    Gamma(P, Q*gamma) / (2 Gamma(P))."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < math.inf and 0.0 < self.q < math.inf):
            raise ValueError("modulation parameters must be positive and "
                             f"finite: {self.p}, {self.q}")


BPSK = Modulation(0.5, 1.0)
DPSK = Modulation(1.0, 1.0)


def aber_from_cdf(cdf_fn, mod: Modulation, h: float,
                  kink: float | None = None) -> float:
    """Kernel quadrature of the ABER definition over an arbitrary CDF;
    cdf_fn takes 1-D arrays of z, and a scalar return broadcasts.  Above
    z_top, the kink where F reaches 1 with a corner (the bound route's
    clamp) or else 800/Q, F = 1 integrates to Gamma(P, Q z_top) /
    (2 Gamma(P)).  Below it z = z_top y / (1 + y), and relay's trapezoidal
    rule in ln y (step h, at most 0.6/sqrt(P)) walks down from about
    y = 1, or y = e^40 past a kink's corner, until F(z) z^P / P, which
    bounds the rest as F is non-decreasing, is under 1e-16 of the sum."""
    p, q = mod.p, mod.q
    h = min(h, 0.6 / math.sqrt(p))
    top = _Z_TOP / q if kink is None else kink

    def integrand(y):   # z^{P-1} e^{-Qz} F(z) dz/dy
        z = top * y / (1.0 + y)
        return (np.exp((p - 1.0) * np.log(z) - q * z) * cdf_fn(z)
                * top / np.square(1.0 + y))

    val = _trapezoid(
        integrand, _LOG_Z_MIN - math.log(top), 0.0 if kink is None else 40.0,
        h, lambda y, s: s * (1.0 + y) * math.exp(q * top * y / (1.0 + y)) / p)
    return math.exp(_log_pref(mod)) * val + 0.5 * float(gammaincc(p, q * top))


def aber_quadrature(link: RelayLink, mod: Modulation,
                    basis: str = "auto") -> float:
    """ABER by kernel integration (aber_from_cdf) at the link's step:
    basis 'auto' over the link's own CDF (the closed-form CDF where the
    link supports it, so the integral stays an independent check of the
    symbolic ABER sums), 'numeric' over cdf_numeric.  On the bound route
    the clamped CDF reaches 1 at a corner, the kink, found by bisection
    in ln z to 1e-9 (the bound is monotone) unless it lies above
    z = 400/Q, where the walk without a kink starts and the kernel has
    decayed by e^{-400}."""
    h = _step(link.hop1, link.hop2)
    if basis == "numeric":
        return aber_from_cdf(partial(cdf_numeric, link), mod, h, None)
    if basis != "auto":
        raise ValueError(f"unknown basis {basis!r}")
    lo, hi = _LOG_Z_MIN, math.log(0.5 * _Z_TOP / mod.q)
    kink = None
    if link.mode == "bound" and link.cdf(math.exp(hi)) >= 1.0:
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if link.cdf(math.exp(mid)) < 1.0 else (lo, mid)
        kink = math.exp(lo)
    return aber_from_cdf(link.cdf, mod, h, kink)


def _require_closed(link: RelayLink, applies: bool, message: str) -> None:
    """The closed forms' shared check: the protocol, then the route."""
    if not applies:
        raise ValueError(message)
    if link.mode != "closed":
        raise IntegerConditionError(
            "closed-form ABER needs exact kernels on both hops; "
            "use aber_quadrature in the bound regime")


def _log_pref(mod: Modulation) -> float:
    # Q^P / (2 Gamma(P)) of the ABER kernel
    return mod.p * math.log(mod.q) - _LN2 - gammaln(mod.p)


def _per_distinct(fn, *args) -> np.ndarray:
    """fn(*args) elementwise, with one fn call per distinct argument tuple."""
    uniq, inv = np.unique(np.column_stack(args), axis=0, return_inverse=True)
    return fn(*uniq.T)[inv.reshape(-1)]


def _closed_sum(log_terms: np.ndarray) -> float:
    return max(_BER_FLOOR, 0.5 - _exp_fsum(log_terms.ravel()))


def aber_csi(link: RelayLink, mod: Modulation) -> float:
    """Closed-form ABER of the CSI-assisted AF link, q = 0.

    A term of the merged CDF tail is x^{mu-P} e^{-rate x} K_nu(beta x)
    with mu = P + ex + 2 ez and beta = 2 sqrt(R), and integrates against
    the kernel via
    int_0^inf e^{-a x} x^{mu-1} K_nu(b x) dx
      = sqrt(pi) (2b)^nu Gamma(mu+nu) Gamma(mu-nu)
        / ((a+b)^{mu+nu} Gamma(mu+1/2))
        * 2F1(mu+nu, nu+1/2; mu+1/2; (a-b)/(a+b)),
    whose argument lies in [0, 1) because a > b always holds here.
    """
    proto = link.protocol
    _require_closed(link, isinstance(proto, CsiAf) and proto.q == 0,
                    "aber_csi applies to CsiAf links with q=0")
    table = link.table
    mu = mod.p + table.ex + 2.0 * table.ez
    nu = table.nu
    assert np.all(mu > nu)
    beta = 2.0 * np.sqrt(table.big_r)
    alpha = table.rate + mod.q
    f = _per_distinct(gauss_2f1, mu + nu, nu + 0.5, mu + 0.5,
                      (alpha - beta) / (alpha + beta))
    return _closed_sum(
        _log_pref(mod) + table.log_coef + 0.5 * math.log(math.pi)
        + nu * np.log(2.0 * beta) + gammaln(mu + nu) + gammaln(mu - nu)
        - (mu + nu) * np.log(alpha + beta) - gammaln(mu + 0.5) + np.log(f))


def aber_fixed(link: RelayLink, mod: Modulation) -> float:
    """Closed-form ABER of the fixed-gain AF link.

    A term of the merged CDF tail is x^{rho-P} e^{-rate x} K_nu(2 sqrt(R x))
    with rho = P + ex, and integrates via
    int_0^inf z^{rho-1} e^{-a z} K_nu(2 c sqrt(z)) dz
      = Gamma(rho+nu/2) Gamma(rho-nu/2) / (2c) * a^{-(rho-1/2)}
        * e^{w/2} W_{-(rho-1/2), nu/2}(w),   w = c^2 / a,
    producing Whittaker-W factors with argument
    lam1*lam2*U / (lam1 + Q).
    """
    _require_closed(link, isinstance(link.protocol, FixedAf),
                    "aber_fixed applies to FixedAf links")
    table = link.table
    rho = mod.p + table.ex
    nu = table.nu
    a_rate = table.rate + mod.q
    w = table.big_r / a_rate
    # e^{w/2} W_{-(rho-1/2), nu/2}(w) = w^{(nu+1)/2} U(rho + nu/2, 1 + nu, w),
    # formed in logs: e^{-w/2} inside W underflows once w passes ~1,500
    log_u = _per_distinct(_log_hyperu, rho + 0.5 * nu, 1.0 + nu, w)
    return _closed_sum(
        _log_pref(mod) + table.log_coef + gammaln(rho + 0.5 * nu)
        + gammaln(rho - 0.5 * nu) - _LN2 - 0.5 * np.log(table.big_r)
        - (rho - 0.5) * np.log(a_rate) + 0.5 * (nu + 1.0) * np.log(w)
        + log_u)


def aber_df(link: RelayLink, mod: Modulation) -> float:
    """Closed-form ABER of the decode-and-forward link: the product of
    the hop tails sum_j exp(c_j) x^{r_j} e^{-lam_j x} integrates termwise
    to Gamma(r1 + r2 + P) / (lam1 + lam2 + Q)^(r1 + r2 + P)."""
    _require_closed(link, isinstance(link.protocol, Df),
                    "aber_df applies to Df links")
    (c1, r1, lam1), (c2, r2, lam2) = (k.ccdf_terms for k in link.kernels)
    n = r1[:, None] + r2[None, :] + mod.p
    return _closed_sum(
        _log_pref(mod) + c1[:, None] + c2[None, :] + gammaln(n)
        - n * np.log(lam1[:, None] + lam2[None, :] + mod.q))


def aber(link: RelayLink, mod: Modulation) -> float:
    """Best available ABER: closed form where one exists (exact kernels,
    and q=0 for CSI), kernel quadrature over the link's CDF otherwise."""
    proto = link.protocol
    if link.mode == "closed":
        if isinstance(proto, Df):
            return aber_df(link, mod)
        if isinstance(proto, FixedAf):
            return aber_fixed(link, mod)
        if proto.q == 0:
            return aber_csi(link, mod)
    return aber_quadrature(link, mod)
