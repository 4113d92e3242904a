"""Single-hop SNR statistics under mixture-Gamma fading with zero-boresight
pointing errors.

The received SNR of a hop is gamma = gamma_bar * (I_a * I_p) / Ibar, where
I_a is the turbulence irradiance (Gamma mixture), I_p the pointing-error
attenuation with density (xi^2/A0^xi2) I_p^{xi^2-1} on (0, A0], and Ibar
the mean of the product; gamma_bar is therefore the hop's exact average
SNR.  All composite statistics depend on gamma_bar only through the
kernel scale S = A0 * gamma_bar / Ibar.

Three per-hop densities are provided:

* the exact PDF, valid for any real shape parameters (incomplete-Gamma
  form);
* the reduced PDF, a finite sum of Gamma kernels C x^{m-1} e^{-lam x},
  valid when xi^2 and every b_i - xi^2 are positive integers -- the form
  every downstream closed form consumes;
* the bound PDF, bound_kernel's upper envelope from Gamma(s, y) <=
  y^{s-1} e^{-y} (s = b_i - xi^2), used when the pointing parameter
  dominates the fading shape (b_i - xi^2 <= 0).

The reduced/bound decomposition is packaged as an SnrKernel so that the
relay and ABER layers can treat both regimes uniformly; kernels in the
bound regime carry total mass > 1 and the consumers correct for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import IntegerConditionError
from .mgfit import GammaGammaParams, MixtureGamma, mg_mean
from .specfun import upper_inc_gamma

_INT_TOL = 1e-9


def _as_positive_int(value: float, what: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > _INT_TOL or rounded < 1:
        raise IntegerConditionError(f"{what} must be a positive integer, got {value}")
    return int(rounded)


def pointing_loss(r: float, w_z: float) -> float:
    """Fraction of optical power collected at perfect alignment,
    A0 = erf(sqrt(pi) r / (sqrt(2) w_z))^2."""
    if r <= 0.0 or w_z <= 0.0:
        raise ValueError(f"aperture radius and beam waist must be positive: {r}, {w_z}")
    return math.erf(math.sqrt(math.pi) * r / (math.sqrt(2.0) * w_z)) ** 2


@dataclass(frozen=True)
class Pointing:
    """Zero-boresight pointing-error parameters.

    xi_sq is the squared ratio of equivalent beam radius to jitter
    standard deviation; a0 the pointing loss at perfect alignment.
    """

    xi_sq: float
    a0: float

    def __post_init__(self) -> None:
        if self.xi_sq <= 0.0:
            raise ValueError(f"xi_sq must be positive, got {self.xi_sq}")
        if not 0.0 < self.a0 <= 1.0:
            raise ValueError(f"a0 must lie in (0, 1], got {self.a0}")

    @classmethod
    def from_geometry(cls, xi_sq: float, r: float, w_z: float) -> "Pointing":
        """Pointing with a0 derived from aperture radius r and beam waist w_z."""
        return cls(xi_sq=xi_sq, a0=pointing_loss(r, w_z))


@dataclass(frozen=True)
class HopChannel:
    """One transmission hop: fading mixture, pointing, average SNR.

    gamma_bar is the mean received SNR (linear).  gg optionally records
    the Gamma-Gamma parameters the mixture was fitted from, which the
    Monte Carlo oracle uses to sample the original channel instead of
    the fit.
    """

    mg: MixtureGamma
    pointing: Pointing
    gamma_bar: float
    gg: GammaGammaParams | None = None

    def __post_init__(self) -> None:
        if self.gamma_bar <= 0.0:
            raise ValueError(f"gamma_bar must be positive, got {self.gamma_bar}")

    @cached_property
    def kernel_scale(self) -> float:
        """Scale S of the composite SNR kernels, computed once per hop.

        S = A0 * gamma_bar / Ibar; the A0 in the numerator cancels the
        one inside Ibar, which calibrates the statistics so the mean SNR
        is exactly gamma_bar regardless of the deterministic loss.
        """
        return self.pointing.a0 * self.gamma_bar / mean_irradiance(self)


def mean_irradiance(hop: HopChannel) -> float:
    """Mean of the composite irradiance I_a * I_p."""
    p = hop.pointing
    return (p.xi_sq * p.a0 / (1.0 + p.xi_sq)) * mg_mean(hop.mg)


def xi_coeff(hop: HopChannel, i: int, k: int) -> float:
    """Coefficient of the x^{xi^2+k-1} e^{-c_i x / S} kernel in the
    reduced PDF. Requires xi^2 and b_i - xi^2 to be positive integers."""
    a, b, c = hop.mg.terms[i]
    xi2 = _as_positive_int(hop.pointing.xi_sq, "xi^2")
    span = _as_positive_int(b - xi2, f"b_{i} - xi^2")
    if not 0 <= k <= span - 1:
        raise ValueError(f"k must lie in 0..{span - 1}, got {k}")
    return math.exp(_log_xi_coeff(a, b, c, xi2, k, hop.kernel_scale))


def _log_xi_coeff(a: float, b: float, c: float, xi2: int, k: int,
                  scale: float) -> float:
    return (math.log(a) + (xi2 - b + k) * math.log(c) + math.log(xi2)
            + gammaln(b - xi2) - gammaln(k + 1.0)
            - (xi2 + k) * math.log(scale))


@dataclass(frozen=True)
class SnrKernel:
    """Per-hop SNR density as a finite sum of Gamma kernels.

    pdf(x) = sum_t exp(log_coef_t) x^{power_t - 1} e^{-rate_t x};
    mass is its total integral -- exactly 1 in exact mode, > 1 when any
    term is an upper-bound envelope.
    """

    log_coef: tuple[float, ...]
    power: tuple[int, ...]
    rate: tuple[float, ...]
    mass: float
    mode: str  # "exact" or "bound"

    def __len__(self) -> int:
        return len(self.power)

    @cached_property
    def ccdf_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tail from x as sum_j exp(log_coef_j) x^{r_j} e^{-rate_j x}."""
        m_t = np.asarray(self.power)
        t = np.repeat(np.arange(len(m_t)), m_t)
        m = m_t[t]
        r = np.arange(len(t)) - np.repeat(np.cumsum(m_t) - m_t, m_t)
        rate = np.asarray(self.rate)[t]
        log_coef = (np.asarray(self.log_coef)[t] + gammaln(m)
                    - gammaln(r + 1.0) - (m - r) * np.log(rate))
        return log_coef, r, rate


def _term_mass(log_coef: float, m: int, rate: float) -> float:
    return math.exp(log_coef + gammaln(m) - m * math.log(rate))


def reduced_kernel(hop: HopChannel) -> SnrKernel:
    """Exact kernel decomposition; raises IntegerConditionError unless
    xi^2 and every b_i - xi^2 are positive integers."""
    xi2 = _as_positive_int(hop.pointing.xi_sq, "xi^2")
    scale = hop.kernel_scale
    log_coef: list[float] = []
    power: list[int] = []
    rate: list[float] = []
    for i, (a, b, c) in enumerate(hop.mg.terms):
        span = _as_positive_int(b - xi2, f"b_{i} - xi^2")
        lam = c / scale
        for k in range(span):
            log_coef.append(_log_xi_coeff(a, b, c, xi2, k, scale))
            power.append(xi2 + k)
            rate.append(lam)
    mass = math.fsum(_term_mass(lc, m, lam)
                     for lc, m, lam in zip(log_coef, power, rate))
    return SnrKernel(tuple(log_coef), tuple(power), tuple(rate), mass, "exact")


def bound_kernel(hop: HopChannel) -> SnrKernel:
    """Upper-envelope kernel for hops with b_i - xi^2 <= 0.

    Each mixture term contributes a single kernel with power b_i - 1, so
    the fading shapes must be integers >= 2; xi^2 may be any positive
    real.  The kernel mass exceeds 1: consumers must apply their
    mass corrections to keep the resulting CDFs upper bounds.
    """
    scale = hop.kernel_scale
    xi2 = hop.pointing.xi_sq
    log_coef: list[float] = []
    power: list[int] = []
    rate: list[float] = []
    for i, (a, b, c) in enumerate(hop.mg.terms):
        b_int = round(b)
        if abs(b - b_int) > _INT_TOL or b_int < 2:
            raise IntegerConditionError(
                f"bound path needs integer fading shape >= 2, got b_{i}={b}")
        if b - xi2 > _INT_TOL:
            raise IntegerConditionError(
                f"bound path applies when b_i - xi^2 <= 0, got {b - xi2}")
        log_coef.append(math.log(a) - math.log(c) + math.log(xi2)
                        - (b_int - 1.0) * math.log(scale))
        power.append(b_int - 1)
        rate.append(c / scale)
    mass = math.fsum(_term_mass(lc, m, lam)
                     for lc, m, lam in zip(log_coef, power, rate))
    return SnrKernel(tuple(log_coef), tuple(power), tuple(rate), mass, "bound")


def auto_kernel(hop: HopChannel) -> SnrKernel:
    """Exact kernel when the integer conditions hold, bound kernel when
    the pointing parameter dominates; IntegerConditionError otherwise
    (callers then fall back to the quadrature path)."""
    try:
        return reduced_kernel(hop)
    except IntegerConditionError:
        return bound_kernel(hop)


def snr_pdf(hop: HopChannel, x: float) -> float:
    """Exact SNR PDF, valid for any real fading/pointing parameters."""
    if x <= 0.0:
        raise ValueError(f"snr_pdf needs x > 0, got {x}")
    scale = hop.kernel_scale
    xi2 = hop.pointing.xi_sq
    terms = []
    for a, b, c in hop.mg.terms:
        lead = math.exp(math.log(a) + (xi2 - b) * math.log(c) + math.log(xi2)
                        + (xi2 - 1.0) * math.log(x) - xi2 * math.log(scale))
        terms.append(lead * upper_inc_gamma(b - xi2, c * x / scale))
    return math.fsum(terms)


def snr_pdf_reduced(hop: HopChannel, x: float) -> float:
    """Reduced (finite Gamma sum) SNR PDF; equals snr_pdf exactly under
    the integer conditions."""
    if x <= 0.0:
        raise ValueError(f"snr_pdf_reduced needs x > 0, got {x}")
    kern = reduced_kernel(hop)
    return _kernel_pdf(kern, x)


def _kernel_pdf(kern: SnrKernel, x: float) -> float:
    return math.fsum(
        math.exp(lc + (m - 1.0) * math.log(x) - lam * x)
        for lc, m, lam in zip(kern.log_coef, kern.power, kern.rate))


def kernel_ccdf(kern: SnrKernel, x: float) -> float:
    """Tail integral of the kernel density from x to infinity.

    For an exact kernel this is the SNR CCDF; for a bound kernel it is
    the (mass > 1) upper tail envelope.
    """
    if x < 0.0:
        raise ValueError(f"kernel_ccdf needs x >= 0, got {x}")
    if x == 0.0:
        return kern.mass
    log_coef, r, rate = kern.ccdf_terms
    return math.fsum(np.exp(log_coef + r * math.log(x) - rate * x).tolist())


def snr_ccdf(hop: HopChannel, x: float) -> float:
    """SNR CCDF under the integer conditions (triple finite sum)."""
    return kernel_ccdf(reduced_kernel(hop), x)


def snr_ccdf_general(hop: HopChannel, x: float) -> float:
    """SNR CCDF for any real parameters, via one integration by parts of
    the incomplete-Gamma PDF:

        ccdf(x) = sum_i a_i [ c^{-b} Gamma(b, lam x)
                              - c^{xi2-b} (x/S)^{xi2} Gamma(b-xi2, lam x) ]

    Independent of the reduced triple-sum path; used by the quadrature
    oracles."""
    if x < 0.0:
        raise ValueError(f"snr_ccdf_general needs x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    scale = hop.kernel_scale
    xi2 = hop.pointing.xi_sq
    terms = []
    for a, b, c in hop.mg.terms:
        lam_x = c * x / scale
        if lam_x > 700.0:
            continue  # tail mass below 1e-300
        terms.append(math.exp(math.log(a) - b * math.log(c))
                     * upper_inc_gamma(b, lam_x))
        terms.append(-math.exp(math.log(a) + (xi2 - b) * math.log(c)
                               + xi2 * (math.log(x) - math.log(scale)))
                     * upper_inc_gamma(b - xi2, lam_x))
    val = math.fsum(terms)
    return min(1.0, max(0.0, val))
