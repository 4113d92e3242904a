"""End-to-end SNR distributions of the dual-hop relayed link.

Protocols and their end-to-end SNRs:

* CSI-assisted AF: g1*g2 / (g1 + g2 + q), q=0 approximate / q=1 exact;
* fixed-gain AF:   g1*g2 / (g2 + U), U the statistical relay gain;
* decode-forward:  min(g1, g2).

For integer-condition hops the CDFs are finite sums over the per-hop
kernel terms with Bessel-K factors, each hop's kernel built once by the
hop.  A RelayLink resolves the rest once, at first use: the route
(closed, bound or numeric), the fixed gain and the CDF term table.  The
table's integer index structure depends only on the kernels' integer
powers and is shared between links; only its rate-dependent columns are
computed per link.
At build time the terms that share (z-power, x-power, Bessel order,
rate, Bessel scale) are merged, since their x-dependence is identical,
and the Bessel factor is then evaluated once per distinct (order,
scale) at each x of an array.  Each x's sum is assembled in log space
(every term is positive and no term can exceed the total, which is a
probability) and reduced with compensated summation, because terms mix
magnitudes across many orders once the average SNRs are large.

cdf, outage and link_mode read the resolved link; cdf needs the kernel
sums, outage falls back to quadrature.  cdf_numeric is the quadrature
oracle, valid for any real parameters: the defining single integral
over the other hop's density, substituted y = e^u and summed by the
package's one trapezoidal rule, _trapezoid, on an array of u nodes
(window and step in cdf_numeric), over the incomplete-Gamma per-hop
statistics.  It and the Monte Carlo oracle take the fixed gain from the
link; fixed_gain_numeric integrates the gain, and the ABER evaluator
its kernel, with the same rule.

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
from scipy.special import gammaln

from .errors import IntegerConditionError
from .hop import (HopChannel, SnrKernel, kernel_ccdf, reduced_kernel,
                  snr_ccdf_general, snr_pdf)
from .specfun import _elementwise, _exp_fsum, _scaled_gamma, log_bessel_k

_LN2 = math.log(2.0)
# elements of the (x, term) grids of TermTable.tail, about 2 MB each
_GRID_SIZE = 1 << 18
# nodes per call of fn in the walking trapezoidal rule
_CHUNK = 16


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
        if self.gain is not None and not 0.0 < self.gain < math.inf:
            raise ValueError(f"gain must be positive and finite, got {self.gain}")


@dataclass(frozen=True)
class Df:
    """Decode-and-forward."""


Protocol = CsiAf | FixedAf | Df


def _gain_from_kernel(kern: SnrKernel) -> float:
    # U = 1 / E[1/(1+g)]; each expectation term is
    # C Gamma(m) lam^{1-m} _scaled_gamma(1-m, lam), in logs since lam = c/S
    # runs from tiny to huge with the SNR; one call per distinct power m.
    m, lam = np.asarray(kern.power, dtype=float), np.asarray(kern.rate)
    scaled = np.empty_like(lam)
    for power in np.unique(m):
        scaled[m == power] = _scaled_gamma(1.0 - power, lam[m == power])
    return 1.0 / _exp_fsum(np.asarray(kern.log_coef) + gammaln(m)
                           + (1.0 - m) * np.log(lam) + np.log(scaled))


def fixed_gain(hop1: HopChannel) -> float:
    """Statistical AF gain U = 1 / E[1/(1+gamma_1)] in closed form, from
    hop 1's exact kernel; IntegerConditionError on any other hop."""
    return _gain_from_kernel(reduced_kernel(hop1))


def fixed_gain_numeric(hop1: HopChannel) -> float:
    """Quadrature fallback for the AF gain, any real parameters: the
    oracle's trapezoidal rule over y = e^u on hop 1's density window.
    The mean E[1/(1+g)] is at least 1/(1 + gamma_bar) (Jensen), so the
    window drops a mass under e^{-40} of it."""
    lo, hi = _density_window(hop1, 40.0 + math.log1p(hop1.gamma_bar))
    mean = _trapezoid(lambda y: snr_pdf(hop1, y) / (1.0 + y), lo, hi,
                      _step(hop1))
    return 1.0 / mean


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

    def tail(self, x, z):
        """S at each x, with z = z(x) of the same shape, for a few x at a
        time so that the (x, term) grids stay near _GRID_SIZE elements."""
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        xs, zs = x.reshape(-1, 1), z.reshape(-1, 1)
        rows = max(1, _GRID_SIZE // len(self.log_coef))
        out = []
        for r in range(0, len(xs), rows):
            x_r, z_r = xs[r:r + rows], zs[r:r + rows]
            logs = (self.log_coef + self.ez * np.log(z_r)
                    + self.ex * np.log(x_r) - self.rate * x_r
                    + log_bessel_k(self.k_nu, 2.0 * np.sqrt(self.k_r * z_r))
                    [:, self.k_idx])
            out += _exp_fsum(logs)
        return np.reshape(out, x.shape) if x.ndim else out[0]


@dataclass(frozen=True)
class RelayLink:
    """A dual-hop relay link, resolved once at first use.

    mode is the CDF route: 'closed' (exact kernels on both hops), 'bound'
    (a hop in the upper-bound regime; the sums bound the CDF from above)
    or 'numeric' (a hop fails the integer conditions; quadrature only).
    kernels holds both hop kernels (None on the numeric route), gain the
    fixed-gain AF gain (None for other protocols) and table the CDF term
    table of the AF protocols.  Each is computed at its first use and
    kept, so every evaluation of the link reuses it.
    """

    hop1: HopChannel
    hop2: HopChannel
    protocol: Protocol

    @cached_property
    def kernels(self) -> tuple[SnrKernel, SnrKernel] | None:
        k1, k2 = self.hop1.kernel, self.hop2.kernel
        return None if k1 is None or k2 is None else (k1, k2)

    @cached_property
    def mode(self) -> str:
        if self.kernels is None:
            return "numeric"
        k1, k2 = self.kernels
        return "closed" if k1.mode == k2.mode == "exact" else "bound"

    @cached_property
    def gain(self) -> float | None:
        """The protocol's own gain if set, else the closed gain from hop
        1's exact kernel (whatever hop 2's route), else quadrature."""
        if not isinstance(self.protocol, FixedAf):
            return None
        if self.protocol.gain is not None:
            return self.protocol.gain
        k1 = self.hop1.kernel
        if k1 is not None and k1.mode == "exact":
            return _gain_from_kernel(k1)
        return fixed_gain_numeric(self.hop1)

    @cached_property
    def table(self) -> TermTable:
        """CDF term table of a CSI-assisted or fixed-gain AF link."""
        k1, k2 = self.kernels
        lam1, lam2 = np.asarray(k1.rate), np.asarray(k2.rate)
        if isinstance(self.protocol, CsiAf):
            index = _csi_index(k1.power, k2.power)
            lam1, lam2 = lam1[index.t1], lam2[index.t2]
            return TermTable.merged(index, k1, k2, lam1 + lam2, lam1 * lam2)
        if isinstance(self.protocol, FixedAf):
            index = _fixed_index(k1.power, k2.power)
            lam1, lam2 = lam1[index.t1], lam2[index.t2]
            return TermTable.merged(index, k1, k2, lam1,
                                    lam1 * lam2 * self.gain,
                                    math.log(self.gain))
        raise ValueError("decode-and-forward links have no term table")

    @_elementwise
    def cdf(self, x):
        """End-to-end SNR CDF, elementwise on an array of x: the kernel
        sums (an upper bound on the bound route), quadrature on the
        numeric route."""
        if self.kernels is None:
            return cdf_numeric(self, x)
        _check_x(x)
        (k1, k2), proto = self.kernels, self.protocol
        xp = x[x > 0.0]
        if isinstance(proto, CsiAf):
            val = (k2.mass + (k1.mass - 1.0) * kernel_ccdf(k2, xp)
                   - self.table.tail(xp, xp * xp + proto.q * xp))
        elif isinstance(proto, FixedAf):
            val = k1.mass * k2.mass - self.table.tail(xp, xp)
        else:
            acc = np.ones_like(xp)
            for kern in self.kernels:
                acc *= np.maximum(0.0, kernel_ccdf(kern, xp) - (kern.mass - 1.0))
            val = 1.0 - acc
        out = np.zeros(x.shape)
        out[x > 0.0] = np.clip(val, 0.0, 1.0)
        return out


def _check_x(x: np.ndarray) -> None:
    if not np.all(x >= 0.0):   # false at a NaN too
        raise ValueError(f"cdf needs x >= 0, got {x[~(x >= 0.0)][0]}")


def link_mode(link: RelayLink) -> str:
    """Which CDF route the link supports: 'closed', 'bound' or 'numeric'."""
    return link.mode


def cdf(link: RelayLink, x: float) -> float:
    """Closed-form CDF (an upper bound in the bound regime);
    IntegerConditionError when a hop fails the integer conditions."""
    if link.kernels is None:
        raise IntegerConditionError("no kernel sums: a hop meets neither "
                                    "the exact nor the bound conditions")
    return link.cdf(x)


@_elementwise
def cdf_numeric(link: RelayLink, x):
    """Reference CDF from the defining single integrals, valid for any
    real channel parameters.

    The semi-infinite integration variable is substituted y = e^u and the
    integral over u summed by the trapezoidal rule at _step, whose error
    falls off exponentially in 1/h for these analytic integrands, over
    hop 2's _density_window.  CSI-assisted, with z = x (x + q), the window
    starts at the larger of ln x - 40 and ln(lam_1 z/800), lam_1 hop 1's
    slowest decay rate: below y = x e^{-40} hop 2's density at x + y is
    flat, so the part cut off is about e^{-40} x pdf_2(x); below
    y = lam_1 z/800 hop 1's CCDF at z/y is under e^{-800}.  The per-hop
    statistics come through the incomplete-Gamma (non-reduced) routes, so
    this path shares no algebra with the closed-form sums.
    """
    _check_x(x)
    h1, h2 = link.hop1, link.hop2
    if isinstance(link.protocol, Df):
        val = 1.0 - snr_ccdf_general(h1, x) * snr_ccdf_general(h2, x)
        return np.clip(val, 0.0, 1.0)
    gain = link.gain
    lo, hi = _density_window(h2)
    h = _step(h1, h2)
    val = np.zeros(x.shape)
    for i in np.flatnonzero(x):
        v = float(x[i])
        if isinstance(link.protocol, FixedAf):
            val[i] = _trapezoid(
                lambda y: ((1.0 - snr_ccdf_general(h1, v + gain * v / y))
                           * snr_pdf(h2, y)), lo, hi, h)
            continue
        # ln z of z = x (x + q), formed so that huge x cannot overflow
        log_z = math.log(v) + math.log(v + link.protocol.q)
        lo_v = max(math.log(v) - 40.0,
                   math.log(_slowest_rate(h1)) + log_z - math.log(800.0))
        val[i] = 1.0 - (_trapezoid(
            lambda y: (snr_ccdf_general(h1, v + np.exp(log_z - np.log(y)))
                       * snr_pdf(h2, v + y)), lo_v, hi, h) if lo_v < hi else 0.0)
    return np.clip(val, 0.0, 1.0)


def _slowest_rate(hop: HopChannel) -> float:
    """Slowest exponential decay min_i c_i / S of the hop's density."""
    return min(c for _, _, c in hop.mg.terms) / hop.kernel_scale


def _density_window(hop: HopChannel,
                    depth: float = 40.0) -> tuple[float, float]:
    """u-range of y = e^u holding the hop's density.  It ends at
    ln(800/lam), lam = min_i c_i/S the slowest decay rate, where the
    density has decayed by e^{-800}, and starts at
    ln(S/max_i c_i) - depth/m, m = min(xi^2, min_i b_i): near 0 a
    component's density goes like y^{min(xi^2, b_i) - 1} on the scale
    S/c_i, so the mass below the start is under about e^{-depth}."""
    _, b, c = zip(*hop.mg.terms)
    m = min(hop.pointing.xi_sq, min(b))
    return (math.log(hop.kernel_scale / max(c)) - depth / m,
            math.log(800.0 / _slowest_rate(hop)))


def _step(*hops: HopChannel) -> float:
    """Trapezoid step in u: 0.2, or 0.6 of the narrowest peak width."""
    b_max = max(b for hop in hops for _, b, _ in hop.mg.terms)
    return min(0.2, 0.6 / math.sqrt(b_max))


def _trapezoid(fn, lo: float, hi: float, h: float, rest=None) -> float:
    """int fn(y) dy over y = e^u, u in [lo, hi], by the trapezoidal rule
    on the nodes u = lo + k h; fn takes an array of nodes y and must be
    negligible at both ends.

    With rest, the nodes are taken from the top down, _CHUNK at a time,
    until rest(y, s), a bound on the integral below the lowest node y with
    summand s = y fn(y), is under 1e-16 of the sum; lo only caps it.
    """
    u = lo + h * np.arange(math.ceil((hi - lo) / h) + 1)
    chunks = ([u] if rest is None
              else np.split(u[::-1], range(_CHUNK, len(u), _CHUNK)))
    total = 0.0
    for y in map(np.exp, chunks):
        s = fn(y) * y
        total += float(np.sum(s))
        if rest is not None and rest(y[-1], s[-1]) < 1e-16 * h * total:
            break
    return h * total


def outage(link: RelayLink, gamma_th: float) -> float:
    """Outage probability P[end-to-end SNR < gamma_th]: the closed form,
    or quadrature when the integer conditions fail."""
    if not gamma_th > 0.0:
        raise ValueError(f"gamma_th must be positive, got {gamma_th}")
    return link.cdf(gamma_th)
