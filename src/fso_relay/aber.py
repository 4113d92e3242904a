"""Average bit-error rate of the relayed link.

ABER = Q^P / (2 Gamma(P)) * int_0^inf z^{P-1} e^{-Qz} F(z) dz, where F is
the end-to-end SNR CDF and (P, Q) the modulation kernel -- (1/2, 1) for
coherent BPSK.  The generic evaluator integrates that kernel against any
CDF callable; the three protocol-specific closed forms carry out the
integral symbolically term by term and are valid under the same integer
conditions as the CDF sums (exact kernels on both hops).

The closed forms are computed from a LinkPlan: the CSI (q=0) and
fixed-gain ABERs transform the columns of the plan's merged CDF term
table, whose terms each integrate to one 2F1 resp. confluent-U factor,
and the DF ABER pairs the terms of the two hop tails.  The special
functions are evaluated once per distinct argument tuple and gathered
back onto the terms.

The exact CSI-assisted case (q=1) has no closed ABER; it is served by
the quadrature evaluator over its closed-form CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import IntegerConditionError
from .relay import (CsiAf, Df, FixedAf, LinkPlan, RelayLink, TermTable,
                    _oracle_cdf, _oracle_gain)
from .specfun import _hyperu, gauss_2f1

_BER_FLOOR = 1e-300
_LN2 = math.log(2.0)


@dataclass(frozen=True, slots=True)
class Modulation:
    """ABER kernel parameters; the conditional error probability is
    Gamma(P, Q*gamma) / (2 Gamma(P))."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if self.p <= 0.0 or self.q <= 0.0:
            raise ValueError(
                f"modulation parameters must be positive: {self.p}, {self.q}")


BPSK = Modulation(0.5, 1.0)
DPSK = Modulation(1.0, 1.0)


def aber_from_cdf(cdf_fn, mod: Modulation) -> float:
    """Kernel quadrature of the ABER definition over an arbitrary CDF.

    The substitution z = t^2 removes the z^{P-1} endpoint singularity
    for P < 1 (BPSK).
    """
    p, q = mod.p, mod.q
    pref = math.exp(p * math.log(q) - gammaln(p))

    def integrand(t: float) -> float:
        if t <= 0.0:   # open quadrature rules never probe the endpoint
            return 0.0
        z = t * t
        return math.exp((2.0 * p - 1.0) * math.log(t) - q * z) * cdf_fn(z)

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-10,
                  limit=400)
    return pref * val


def aber_quadrature(link: RelayLink, mod: Modulation,
                    basis: str = "auto") -> float:
    """ABER by numeric kernel integration.

    basis 'auto' integrates the link's LinkPlan CDF (the closed-form CDF
    where the link supports it -- the kernel integral stays an
    independent check of the symbolic ABER sums); 'numeric' integrates
    the quadrature CDF of cdf_numeric.
    """
    if basis == "numeric":
        gain = _oracle_gain(link)
        return aber_from_cdf(lambda z: _oracle_cdf(link, gain, z), mod)
    if basis != "auto":
        raise ValueError(f"unknown basis {basis!r}")
    return aber_from_cdf(LinkPlan(link).cdf, mod)


def _exact_plan(link: RelayLink) -> LinkPlan:
    plan = LinkPlan(link)
    if plan.mode != "closed":
        raise IntegerConditionError(
            "closed-form ABER needs exact kernels on both hops; "
            "use aber_quadrature in the bound regime")
    return plan


def _log_pref(mod: Modulation) -> float:
    # Q^P / (2 Gamma(P)) of the ABER kernel
    return mod.p * math.log(mod.q) - _LN2 - gammaln(mod.p)


def _per_distinct(fn, *args) -> np.ndarray:
    """fn(*args) elementwise, with one fn call per distinct argument tuple."""
    uniq, inv = np.unique(np.column_stack(args), axis=0, return_inverse=True)
    return fn(*uniq.T)[inv.reshape(-1)]


def _closed_sum(log_terms: np.ndarray) -> float:
    return max(_BER_FLOOR, 0.5 - math.fsum(np.exp(log_terms).ravel().tolist()))


def _aber_csi_closed(table: TermTable, mod: Modulation) -> float:
    # q = 0: a term of the CDF tail is x^{mu-P} e^{-rate x} K_nu(beta x)
    # with mu = P + ex + 2 ez and beta = 2 sqrt(R); see aber_csi
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


def _aber_fixed_closed(table: TermTable, mod: Modulation) -> float:
    # a term of the CDF tail is x^{rho-P} e^{-rate x} K_nu(2 sqrt(R x))
    # with rho = P + ex; see aber_fixed
    rho = mod.p + table.ex
    nu = table.nu
    a_rate = table.rate + mod.q
    w = table.big_r / a_rate
    # e^{w/2} W_{-(rho-1/2), nu/2}(w) = w^{(nu+1)/2} U(rho + nu/2, 1 + nu, w),
    # formed in logs: e^{-w/2} inside W underflows once w passes ~1,500
    u = _per_distinct(_hyperu, rho + 0.5 * nu, 1.0 + nu, w)
    return _closed_sum(
        _log_pref(mod) + table.log_coef + gammaln(rho + 0.5 * nu)
        + gammaln(rho - 0.5 * nu) - _LN2 - 0.5 * np.log(table.big_r)
        - (rho - 0.5) * np.log(a_rate) + 0.5 * (nu + 1.0) * np.log(w)
        + np.log(u))


def _aber_df_closed(plan: LinkPlan, mod: Modulation) -> float:
    # the product of the hop tails sum_j exp(c_j) x^{r_j} e^{-lam_j x}
    # integrates termwise to Gamma(r1 + r2 + P) / (lam1 + lam2 + Q)^(...)
    (c1, r1, lam1), (c2, r2, lam2) = (k.ccdf_terms for k in plan.kernels)
    n = r1[:, None] + r2[None, :] + mod.p
    return _closed_sum(
        _log_pref(mod) + c1[:, None] + c2[None, :] + gammaln(n)
        - n * np.log(lam1[:, None] + lam2[None, :] + mod.q))


def aber_csi(link: RelayLink, mod: Modulation) -> float:
    """Closed-form ABER of the CSI-assisted AF link, q = 0.

    Each CDF tail term integrates against the kernel via
    int_0^inf e^{-a x} x^{mu-1} K_nu(b x) dx
      = sqrt(pi) (2b)^nu Gamma(mu+nu) Gamma(mu-nu)
        / ((a+b)^{mu+nu} Gamma(mu+1/2))
        * 2F1(mu+nu, nu+1/2; mu+1/2; (a-b)/(a+b)),
    whose argument lies in [0, 1) because a > b always holds here.
    """
    if not (isinstance(link.protocol, CsiAf) and link.protocol.q == 0):
        raise ValueError("aber_csi applies to CsiAf links with q=0")
    return _aber_csi_closed(_exact_plan(link).table, mod)


def aber_fixed(link: RelayLink, mod: Modulation) -> float:
    """Closed-form ABER of the fixed-gain AF link.

    Tail terms integrate via
    int_0^inf z^{rho-1} e^{-a z} K_nu(2 c sqrt(z)) dz
      = Gamma(rho+nu/2) Gamma(rho-nu/2) / (2c) * a^{-(rho-1/2)}
        * e^{w/2} W_{-(rho-1/2), nu/2}(w),   w = c^2 / a,
    producing Whittaker-W factors with argument
    lam1*lam2*U / (lam1 + Q).
    """
    if not isinstance(link.protocol, FixedAf):
        raise ValueError("aber_fixed applies to FixedAf links")
    return _aber_fixed_closed(_exact_plan(link).table, mod)


def aber_df(link: RelayLink, mod: Modulation) -> float:
    """Closed-form ABER of the decode-and-forward link: the product of
    per-hop tails integrates termwise to elementary Gamma factors."""
    if not isinstance(link.protocol, Df):
        raise ValueError("aber_df applies to Df links")
    return _aber_df_closed(_exact_plan(link), mod)


def plan_aber(plan: LinkPlan, mod: Modulation) -> float:
    """Best available ABER of a planned link: closed form where one exists
    (exact kernels, and q=0 for CSI), kernel quadrature over the plan's
    CDF otherwise."""
    proto = plan.link.protocol
    if plan.mode == "closed":
        if isinstance(proto, Df):
            return _aber_df_closed(plan, mod)
        if isinstance(proto, FixedAf):
            return _aber_fixed_closed(plan.table, mod)
        if proto.q == 0:
            return _aber_csi_closed(plan.table, mod)
    return aber_from_cdf(plan.cdf, mod)


def aber(link: RelayLink, mod: Modulation) -> float:
    """Best available ABER: closed form where one exists (exact kernels,
    and q=0 for CSI), kernel quadrature otherwise."""
    return plan_aber(LinkPlan(link), mod)
