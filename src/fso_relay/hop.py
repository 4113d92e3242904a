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
HopChannel.kernel builds it once, for every link on the hop.
The densities and tails are elementwise on arrays of x; a kernel sum is
reduced with fsum per x, so a value does not depend on the other x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import IntegerConditionError
from .mgfit import GammaGammaParams, MixtureGamma, mg_mean
from .specfun import _elementwise, _exp_fsum, _scaled_gamma, upper_inc_gamma

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
        if not 0.0 < self.xi_sq < math.inf:
            raise ValueError(f"xi_sq must be positive and finite, got {self.xi_sq}")
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
        if not 0.0 < self.gamma_bar < math.inf:
            raise ValueError(
                f"gamma_bar must be positive and finite, got {self.gamma_bar}")

    @cached_property
    def kernel_scale(self) -> float:
        """Scale S of the composite SNR kernels, computed once per hop.

        S = A0 * gamma_bar / Ibar; the A0 in the numerator cancels the
        one inside Ibar, which calibrates the statistics so the mean SNR
        is exactly gamma_bar regardless of the deterministic loss.
        """
        return self.pointing.a0 * self.gamma_bar / mean_irradiance(self)

    @cached_property
    def kernel(self) -> SnrKernel | None:
        """auto_kernel's kernel, built once, or None on the quadrature
        route: the one place a hop's route is decided."""
        try:
            return auto_kernel(self)
        except IntegerConditionError:
            return None


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
    mode: str  # "exact" or "bound"

    def __len__(self) -> int:
        return len(self.power)

    @cached_property
    def mass(self) -> float:
        m = np.asarray(self.power, dtype=float)
        return _exp_fsum(np.asarray(self.log_coef) + gammaln(m)
                         - m * np.log(self.rate))

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
    return SnrKernel(tuple(log_coef), tuple(power), tuple(rate), "exact")


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
    return SnrKernel(tuple(log_coef), tuple(power), tuple(rate), "bound")


def auto_kernel(hop: HopChannel) -> SnrKernel:
    """Exact kernel when the integer conditions hold, bound kernel when
    the pointing parameter dominates; IntegerConditionError otherwise
    (callers then fall back to the quadrature path)."""
    try:
        return reduced_kernel(hop)
    except IntegerConditionError:
        return bound_kernel(hop)


def _mixture_columns(hop: HopChannel):
    """Weights a_i, shapes b_i and rates c_i of the hop's mixture, each as
    an (L, 1) column."""
    return (np.array(col)[:, None] for col in zip(*hop.mg.terms))


def _upper_gamma_rows(shape: np.ndarray, shift: float, y: np.ndarray,
                      power: float = 0.0) -> np.ndarray:
    """y_ij^power Gamma(shape_i - shift, y_ij) for a column of shapes, one
    incomplete-Gamma call per distinct shape.  A non-positive order a is
    taken as y^{power+a} e^{-y} (e^y y^{-a} Gamma(a, y)), finite where
    Gamma(a, y) alone overflows at small y."""
    out = np.empty_like(y)
    for b in np.unique(shape):
        rows = shape[:, 0] == b
        a, yr = b - shift, y[rows]
        if a > 0.0:
            out[rows] = np.exp(power * np.log(yr)) * upper_inc_gamma(a, yr)
        else:
            out[rows] = (np.exp((power + a) * np.log(yr))
                         * (np.exp(-yr) * _scaled_gamma(a, yr)))
    return out


@_elementwise
def snr_pdf(hop: HopChannel, x):
    """Exact SNR PDF, valid for any real fading/pointing parameters;
    elementwise on an array of x."""
    if np.any(x <= 0.0):
        raise ValueError(f"snr_pdf needs x > 0, got {x.min()}")
    scale = hop.kernel_scale
    xi2 = hop.pointing.xi_sq
    a, b, c = _mixture_columns(hop)
    # component i is a_i xi2 c_i^{1-b_i} / S * t^{xi2-1} Gamma(b_i - xi2, t)
    # with t = c_i x / S
    lead = np.exp(np.log(a) + (1.0 - b) * np.log(c) + math.log(xi2 / scale))
    # a running sum over the terms keeps each x's value independent of
    # the other x (numpy's sum blocks a single column pairwise)
    return np.cumsum(lead * _upper_gamma_rows(b, xi2, c * x / scale,
                                              xi2 - 1.0), axis=0)[-1]


def _gamma_sum(log_coef, power, rate, x: np.ndarray) -> np.ndarray:
    """sum_t exp(log_coef_t) x^power_t e^{-rate_t x} at each x > 0 of a
    1-D array, each x's terms reduced with fsum, so that its value does not
    depend on the other x."""
    col = x[:, None]
    return np.array(_exp_fsum(log_coef + power * np.log(col) - rate * col))


@_elementwise
def snr_pdf_reduced(hop: HopChannel, x):
    """Reduced (finite Gamma sum) SNR PDF; equals snr_pdf exactly under
    the integer conditions.  Elementwise on an array of x."""
    if np.any(x <= 0.0):
        raise ValueError(f"snr_pdf_reduced needs x > 0, got {x.min()}")
    kern = reduced_kernel(hop)
    return _gamma_sum(kern.log_coef, np.subtract(kern.power, 1.0), kern.rate,
                      x)


@_elementwise
def kernel_ccdf(kern: SnrKernel, x):
    """Tail integral of the kernel density from x to infinity, elementwise
    on an array of x.

    For an exact kernel this is the SNR CCDF; for a bound kernel it is
    the (mass > 1) upper tail envelope.
    """
    if np.any(x < 0.0):
        raise ValueError(f"kernel_ccdf needs x >= 0, got {x.min()}")
    total = np.full(x.shape, kern.mass)
    total[x > 0.0] = _gamma_sum(*kern.ccdf_terms, x[x > 0.0])
    return total


def snr_ccdf(hop: HopChannel, x):
    """SNR CCDF under the integer conditions (triple finite sum),
    elementwise on an array of x."""
    return kernel_ccdf(reduced_kernel(hop), x)


@_elementwise
def snr_ccdf_general(hop: HopChannel, x):
    """SNR CCDF for any real parameters, via one integration by parts of
    the incomplete-Gamma PDF:

        ccdf(x) = sum_i a_i c^{-b} [ Gamma(b, lam x)
                                     - (lam x)^{xi2} Gamma(b-xi2, lam x) ],

    lam = c/S; elementwise on an array of x.  The two terms of a mixture
    component nearly cancel in the tail, so each component's difference is
    formed before the components are summed.  Independent of the reduced
    triple-sum path; used by the quadrature oracles."""
    if np.any(x < 0.0):
        raise ValueError(f"snr_ccdf_general needs x >= 0, got {x.min()}")
    xi2 = hop.pointing.xi_sq
    a, b, c = _mixture_columns(hop)
    lam_x = c * x / hop.kernel_scale
    # beyond lam x = 700 a component's tail mass is below 1e-300
    live = (lam_x > 0.0) & (lam_x <= 700.0)
    y = np.where(live, lam_x, 700.0)
    part = _upper_gamma_rows(b, 0.0, y) - _upper_gamma_rows(b, xi2, y, xi2)
    total = np.cumsum(np.where(live, np.exp(np.log(a) - b * np.log(c)) * part,
                               0.0), axis=0)[-1]
    return np.where(x == 0.0, 1.0, np.clip(total, 0.0, 1.0))
