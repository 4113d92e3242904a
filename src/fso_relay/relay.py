"""End-to-end SNR distributions of the dual-hop relayed link.

Protocols and their end-to-end SNRs:

* CSI-assisted AF: g1*g2 / (g1 + g2 + q), q=0 approximate / q=1 exact;
* fixed-gain AF:   g1*g2 / (g2 + U), U the statistical relay gain;
* decode-forward:  min(g1, g2).

For integer-condition hops the CDFs are finite sums over the per-hop
kernel terms with Bessel-K factors.  A LinkPlan resolves a link once: the
route (closed, bound or numeric), both hop kernels, the fixed gain and the
CDF term table.  The table's integer index structure depends only on the
kernels' integer powers and is shared between links; only its
rate-dependent columns are computed per link.  At build time the terms
that share (z-power, x-power, Bessel order, rate, Bessel scale) are
merged, since their x-dependence is identical, and the Bessel factor is
then evaluated once per distinct (order, scale) at each x.  Each sum is
assembled in log space (every term is positive and no term can exceed
the total, which is a probability) and reduced with compensated
summation, because terms mix magnitudes across many orders once the
average SNRs are large.

When a hop is in the upper-bound regime its kernel mass N exceeds 1 and
the plain tail sums would produce a LOWER bound on outage.  The
evaluators therefore use the mass-corrected combinations

    CSI:   F(x) <= N2 + (N1 - 1) * T2(x) - S_csi(x)
    fixed: F(x) <= N1 * N2 - S_fixed(x)
    DF:    F(x) <= 1 - prod_j max(0, Tj(x) - (Nj - 1))

with Tj the kernel tail integral; these reduce to the exact closed forms
when N1 = N2 = 1 and stay true upper bounds otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import IntegerConditionError
from .hop import (HopChannel, SnrKernel, auto_kernel, kernel_ccdf,
                  snr_ccdf_general, snr_pdf)
from .specfun import log_bessel_k, scaled_upper_inc_gamma

_LN2 = math.log(2.0)
_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400)


@dataclass(frozen=True)
class CsiAf:
    """CSI-assisted amplify-and-forward; q=0 approximate, q=1 exact SNR."""

    q: int = 0

    def __post_init__(self) -> None:
        if self.q not in (0, 1):
            raise ValueError(f"q must be 0 or 1, got {self.q}")


@dataclass(frozen=True)
class FixedAf:
    """Fixed-gain amplify-and-forward; gain=None means derive it from hop1."""

    gain: float | None = None

    def __post_init__(self) -> None:
        if self.gain is not None and self.gain <= 0.0:
            raise ValueError(f"gain must be positive, got {self.gain}")


@dataclass(frozen=True)
class Df:
    """Decode-and-forward."""


Protocol = CsiAf | FixedAf | Df


@dataclass(frozen=True)
class RelayLink:
    hop1: HopChannel
    hop2: HopChannel
    protocol: Protocol


def _gain_from_kernel(kern: SnrKernel) -> float:
    # U = 1 / E[1/(1+g)]; each expectation term is
    # C Gamma(m) e^lam Gamma(1-m, lam), evaluated in scaled form since
    # lam = c/S blows up at low SNR.
    total = math.fsum(
        math.exp(lc + gammaln(m)
                 + math.log(scaled_upper_inc_gamma(1.0 - m, lam)))
        for lc, m, lam in zip(kern.log_coef, kern.power, kern.rate))
    return 1.0 / total


def fixed_gain(hop1: HopChannel) -> float:
    """Statistical AF gain U = 1 / E[1/(1+gamma_1)] in closed form."""
    return _gain_from_kernel(auto_kernel(hop1))


_EXP_RANGE = 700.0  # |u| beyond this makes every y = e^u integrand vanish


def fixed_gain_numeric(hop1: HopChannel) -> float:
    """Quadrature fallback for the AF gain, any real parameters."""

    def integrand(u: float) -> float:
        if abs(u) > _EXP_RANGE:
            return 0.0
        y = math.exp(u)
        return snr_pdf(hop1, y) / (1.0 + y) * y

    val, _ = quad(integrand, -np.inf, np.inf, **_QUAD_OPTS)
    return 1.0 / val


@dataclass(frozen=True)
class _Index:
    """Integer structure of a kernel-sum table.  Term j pairs kernel terms
    t1[j] of hop 1 and t2[j] of hop 2 and has the log coefficient

        const + lc1 + lc2 + c1 ln lam1 - c2 ln lam2 + cg ln U

    with (lc, lam) the kernel terms' log coefficient and rate, U the
    fixed gain, and the powers ez, ex and Bessel order nu of TermTable."""

    t1: np.ndarray
    t2: np.ndarray
    const: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    cg: np.ndarray
    ez: np.ndarray
    ex: np.ndarray
    nu: np.ndarray


def _pair_blocks(pow1: tuple[int, ...], pow2: tuple[int, ...], block):
    """Index columns (t1, t2, *inner) over every pair of kernel terms,
    block(m1, m2) listing the inner index tuples of a pair with powers
    (m1, m2)."""
    pow1, pow2 = np.asarray(pow1), np.asarray(pow2)
    parts = []
    for m1 in np.unique(pow1):
        for m2 in np.unique(pow2):
            inner = np.array(block(int(m1), int(m2)), dtype=np.int64)
            t1, t2 = np.meshgrid(np.flatnonzero(pow1 == m1),
                                 np.flatnonzero(pow2 == m2), indexing="ij")
            n = len(inner)
            parts.append(np.column_stack((np.repeat(t1.ravel(), n),
                                          np.repeat(t2.ravel(), n),
                                          np.tile(inner, (t1.size, 1)))))
    return np.concatenate(parts).T


def _log_binom(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


@lru_cache(maxsize=8)
def _csi_index(pow1: tuple[int, ...], pow2: tuple[int, ...]) -> _Index:
    """CSI-AF terms (t1, t2, r1, p, s), r1 < m1, p < m2, s <= r1, with
    z = x^2 + q x."""
    t1, t2, r1, p, s = _pair_blocks(
        pow1, pow2, lambda m1, m2: [(r1, p, s) for r1 in range(m1)
                                    for p in range(m2) for s in range(r1 + 1)])
    m1, m2 = np.asarray(pow1)[t1], np.asarray(pow2)[t2]
    half = 0.5 * (p - s + 1.0)
    return _Index(t1, t2,
                  const=(_LN2 + gammaln(m1) - gammaln(r1 + 1.0)
                         + _log_binom(r1, s) + _log_binom(m2 - 1, p)),
                  c1=half + r1 - m1, c2=half, cg=np.zeros(len(t1)),
                  ez=0.5 * (p + s + 1.0), ex=m2 + r1 - p - s - 1.0,
                  nu=np.abs(p - s + 1.0))


@lru_cache(maxsize=8)
def _fixed_index(pow1: tuple[int, ...], pow2: tuple[int, ...]) -> _Index:
    """Fixed-gain terms (t1, t2, r1, s), r1 < m1, s <= r1, with z = x."""
    t1, t2, r1, s = _pair_blocks(
        pow1, pow2, lambda m1, m2: [(r1, s) for r1 in range(m1)
                                    for s in range(r1 + 1)])
    m1, m2 = np.asarray(pow1)[t1], np.asarray(pow2)[t2]
    half = 0.5 * (m2 - s)
    return _Index(t1, t2,
                  const=_LN2 + gammaln(m1) - gammaln(r1 + 1.0) + _log_binom(r1, s),
                  c1=half + r1 - m1, c2=half, cg=0.5 * (m2 + s),
                  ez=np.zeros(len(t1)), ex=half + r1, nu=np.abs(m2 - s))


@dataclass(frozen=True)
class TermTable:
    """Tail sum of a kernel-sum CDF,

        S(x) = sum_j exp(log_coef_j) z^ez_j x^ex_j e^{-rate_j x}
                     K_nu_j(2 sqrt(big_r_j z)),

    with no two terms sharing (ez, ex, nu, rate, big_r).  The Bessel
    factor has the distinct (order, scale) pairs (k_nu, k_r); term j
    takes pair k_idx[j]."""

    log_coef: np.ndarray
    ez: np.ndarray
    ex: np.ndarray
    nu: np.ndarray
    rate: np.ndarray
    big_r: np.ndarray
    k_nu: np.ndarray
    k_r: np.ndarray
    k_idx: np.ndarray

    @classmethod
    def merged(cls, index: _Index, k1: SnrKernel, k2: SnrKernel,
               rate: np.ndarray, big_r: np.ndarray,
               log_gain: float = 0.0) -> "TermTable":
        """Table of the index's terms with per-term rate and big_r, terms
        with equal x-dependence merged by a segment log-sum-exp."""
        t1, t2 = index.t1, index.t2
        base = (index.const + np.asarray(k1.log_coef)[t1]
                + np.asarray(k2.log_coef)[t2]
                + index.c1 * np.log(k1.rate)[t1]
                - index.c2 * np.log(k2.rate)[t2] + index.cg * log_gain)
        keys = np.column_stack((index.ez, index.ex, index.nu, rate, big_r))
        order = np.lexsort(keys.T[::-1])
        keys, base = keys[order], base[order]
        first = np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)]
        start = np.flatnonzero(first)
        top = np.maximum.reduceat(base, start)
        total = np.add.reduceat(np.exp(base - top[np.cumsum(first) - 1]), start)
        ez, ex, nu, rate, big_r = keys[start].T
        pairs, k_idx = np.unique(np.column_stack((nu, big_r)), axis=0,
                                 return_inverse=True)
        return cls(top + np.log(total), ez, ex, nu, rate, big_r,
                   pairs[:, 0], pairs[:, 1], k_idx.reshape(-1))

    def tail(self, x: float, z: float) -> float:
        log_k = log_bessel_k(self.k_nu, 2.0 * np.sqrt(self.k_r * z))
        logs = (self.log_coef + self.ez * math.log(z) + self.ex * math.log(x)
                - self.rate * x + log_k[self.k_idx])
        return math.fsum(np.exp(logs).tolist())


class LinkPlan:
    """A relay link resolved once for evaluation.

    mode is the CDF route: 'closed' (exact kernels on both hops), 'bound'
    (a hop in the upper-bound regime; the sums bound the CDF from above)
    or 'numeric' (a hop fails the integer conditions; quadrature only).
    kernels holds both hop kernels (None on the numeric route), gain the
    fixed-gain AF gain (None for other protocols) and table the CDF term
    table of the AF protocols, built at first use.
    """

    def __init__(self, link: RelayLink) -> None:
        self.link = link
        kerns: list[SnrKernel | None] = []
        self._why: IntegerConditionError | None = None
        for hop in (link.hop1, link.hop2):
            try:
                kerns.append(auto_kernel(hop))
            except IntegerConditionError as exc:
                kerns.append(None)
                self._why = self._why or exc
        k1, k2 = kerns
        if k1 is None or k2 is None:
            self.kernels, self.mode = None, "numeric"
        else:
            self.kernels = (k1, k2)
            exact = k1.mode == k2.mode == "exact"
            self.mode = "closed" if exact else "bound"
        self.gain = None
        if isinstance(link.protocol, FixedAf):
            if link.protocol.gain is not None:
                self.gain = link.protocol.gain
            elif k1 is None:
                self.gain = fixed_gain_numeric(link.hop1)
            else:
                self.gain = _gain_from_kernel(k1)

    def require_kernels(self) -> tuple[SnrKernel, SnrKernel]:
        """Both hop kernels; IntegerConditionError on the numeric route."""
        if self.kernels is None:
            raise IntegerConditionError(str(self._why))
        return self.kernels

    @cached_property
    def table(self) -> TermTable:
        """CDF term table of a CSI-assisted or fixed-gain AF link."""
        k1, k2 = self.require_kernels()
        lam1, lam2 = np.asarray(k1.rate), np.asarray(k2.rate)
        if isinstance(self.link.protocol, CsiAf):
            index = _csi_index(k1.power, k2.power)
            lam1, lam2 = lam1[index.t1], lam2[index.t2]
            return TermTable.merged(index, k1, k2, lam1 + lam2, lam1 * lam2)
        if isinstance(self.link.protocol, FixedAf):
            index = _fixed_index(k1.power, k2.power)
            lam1, lam2 = lam1[index.t1], lam2[index.t2]
            return TermTable.merged(index, k1, k2, lam1,
                                    lam1 * lam2 * self.gain,
                                    math.log(self.gain))
        raise ValueError("decode-and-forward links have no term table")

    def cdf(self, x: float) -> float:
        """End-to-end SNR CDF: the kernel sums (an upper bound on the
        bound route), quadrature on the numeric route."""
        if x < 0.0:
            raise ValueError(f"cdf needs x >= 0, got {x}")
        if x == 0.0:
            return 0.0
        if self.kernels is None:
            return cdf_numeric(self.link, x)
        k1, k2 = self.kernels
        proto = self.link.protocol
        if isinstance(proto, CsiAf):
            val = (k2.mass + (k1.mass - 1.0) * kernel_ccdf(k2, x)
                   - self.table.tail(x, x * x + proto.q * x))
        elif isinstance(proto, FixedAf):
            val = k1.mass * k2.mass - self.table.tail(x, x)
        else:
            acc = 1.0
            for kern in self.kernels:
                acc *= max(0.0, kernel_ccdf(kern, x) - (kern.mass - 1.0))
            val = 1.0 - acc
        return _clamp01(val)

    def outage(self, gamma_th: float) -> float:
        """Outage probability P[end-to-end SNR < gamma_th]."""
        if gamma_th <= 0.0:
            raise ValueError(f"gamma_th must be positive, got {gamma_th}")
        return self.cdf(gamma_th)


def link_mode(link: RelayLink) -> str:
    """Which CDF route the link supports: 'closed', 'bound' or 'numeric'."""
    return LinkPlan(link).mode


def resolve_gain(link: RelayLink) -> float:
    """Explicit gain if the protocol carries one, else the auto gain."""
    if not isinstance(link.protocol, FixedAf):
        raise ValueError("resolve_gain applies to fixed-gain links")
    return LinkPlan(link).gain


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def cdf_csi(link: RelayLink, x: float) -> float:
    """End-to-end SNR CDF of the CSI-assisted AF link."""
    if not isinstance(link.protocol, CsiAf):
        raise ValueError("cdf_csi needs a CsiAf link")
    return cdf(link, x)


def cdf_fixed(link: RelayLink, x: float) -> float:
    """End-to-end SNR CDF of the fixed-gain AF link."""
    if not isinstance(link.protocol, FixedAf):
        raise ValueError("cdf_fixed needs a FixedAf link")
    return cdf(link, x)


def cdf_df(link: RelayLink, x: float) -> float:
    """End-to-end SNR CDF of the decode-and-forward link."""
    if not isinstance(link.protocol, Df):
        raise ValueError("cdf_df needs a Df link")
    return cdf(link, x)


def cdf(link: RelayLink, x: float) -> float:
    """Closed-form CDF (an upper bound in the bound regime);
    IntegerConditionError when a hop fails the integer conditions."""
    plan = LinkPlan(link)
    plan.require_kernels()
    return plan.cdf(x)


def cdf_numeric(link: RelayLink, x: float) -> float:
    """Reference CDF from the defining single integrals, valid for any
    real channel parameters.

    The semi-infinite integration variable is substituted y = e^u; the
    per-hop statistics come through the incomplete-Gamma (non-reduced)
    routes, so this path shares no algebra with the closed-form sums.
    """
    if x < 0.0:
        raise ValueError(f"cdf needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    h1, h2 = link.hop1, link.hop2
    if isinstance(link.protocol, Df):
        return _clamp01(1.0 - snr_ccdf_general(h1, x) * snr_ccdf_general(h2, x))
    if isinstance(link.protocol, CsiAf):
        z = x * x + link.protocol.q * x

        def integrand(u: float) -> float:
            if abs(u) > _EXP_RANGE:
                return 0.0
            y = math.exp(u)
            return (snr_ccdf_general(h1, x + z / y) * snr_pdf(h2, x + y) * y)

        val, _ = quad(integrand, -np.inf, np.inf, **_QUAD_OPTS)
        return _clamp01(1.0 - val)
    gain = resolve_gain(link)

    def integrand(u: float) -> float:
        if abs(u) > _EXP_RANGE:
            return 0.0
        y = math.exp(u)
        return ((1.0 - snr_ccdf_general(h1, x + gain * x / y))
                * snr_pdf(h2, y) * y)

    val, _ = quad(integrand, -np.inf, np.inf, **_QUAD_OPTS)
    return _clamp01(val)


def outage(link: RelayLink, gamma_th: float, method: str = "auto") -> float:
    """Outage probability P[end-to-end SNR < gamma_th].

    method 'auto' prefers the closed form and falls back to quadrature
    when the integer conditions fail; 'closed' and 'numeric' force a
    route.
    """
    if gamma_th <= 0.0:
        raise ValueError(f"gamma_th must be positive, got {gamma_th}")
    if method == "closed":
        return cdf(link, gamma_th)
    if method == "numeric":
        return cdf_numeric(link, gamma_th)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    return LinkPlan(link).outage(gamma_th)
