"""Mixture-Gamma representations of turbulence-induced irradiance fading.

The irradiance PDF is f(I) = sum_i a_i I^{b_i-1} e^{-c_i I}; the weights
are kept normalized so the PDF integrates to exactly 1.  A Gamma-Gamma
channel (product of two unit-mean Gamma variates, shapes alpha and beta)
is mapped onto this form with a Gauss-Laguerre discretization of the
large-scale mixing integral, which pins every shape b_i to min(alpha,
beta) and gives c_i = alpha*beta / t_i at the rule's nodes t_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, kv, logsumexp

from .errors import DegenerateFitError
from .specfun import gauss_laguerre

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class GammaGammaParams:
    """Large- and small-scale fading parameters of a Gamma-Gamma channel."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"alpha/beta must be positive: {self}")


@dataclass(frozen=True)
class MixtureGamma:
    """Finite Gamma mixture; terms is a tuple of (weight, shape, rate)."""

    terms: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.terms) <= 64:
            raise ValueError(f"need 1..64 terms, got {len(self.terms)}")
        for a, b, c in self.terms:
            if not (a > 0.0 and b > 0.0 and c > 0.0):
                raise ValueError(f"non-positive mixture term ({a}, {b}, {c})")
        total = math.fsum(p for p in self.component_probs())
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"mixture not normalized: integral of pdf = {total!r}")

    def __len__(self) -> int:
        return len(self.terms)

    def component_probs(self) -> list[float]:
        """Probability mass of each Gamma component, a_i Gamma(b_i) c_i^-b_i."""
        return [a * math.exp(gammaln(b) - b * math.log(c))
                for a, b, c in self.terms]

    def to_json_dict(self) -> dict:
        return {"terms": [[a, b, c] for a, b, c in self.terms]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MixtureGamma":
        return cls(terms=tuple((float(a), float(b), float(c))
                               for a, b, c in doc["terms"]))


def fit_gamma_gamma(gg: GammaGammaParams, L: int) -> MixtureGamma:
    """Discretize a Gamma-Gamma channel into an L-term Gamma mixture.

    The conditional small-scale density is averaged over the large-scale
    variate with an L-point Gauss-Laguerre rule, then the raw weights are
    rescaled so the mixture integrates to exactly 1.  Weights are carried
    in log space: Gamma(max(alpha, beta)) overflows long before the
    mixture itself degenerates.

    The rule has to resolve a t^(max(alpha,beta)-1) factor, so accuracy
    at fixed L degrades as the larger fading parameter grows; L = 10
    covers the usual turbulence range (max parameter ~ 10) at the 1e-2
    level, while extreme parameters need the full 64-node rule.
    """
    m = min(gg.alpha, gg.beta)
    big = max(gg.alpha, gg.beta)
    rule = gauss_laguerre(L)
    t = np.array([node for node, _ in rule])
    w = np.array([weight for _, weight in rule])
    c = big * m / t
    log_theta = (np.log(w) + m * math.log(big * m) + (big - m - 1.0) * np.log(t)
                 - gammaln(big) - gammaln(m))
    if not np.all(np.isfinite(log_theta)):
        raise DegenerateFitError(
            f"non-finite mixture weight for alpha={gg.alpha}, beta={gg.beta}, L={L}")
    # component masses theta_k Gamma(b) c_k^-b; nodes whose mass would
    # underflow double precision relative to the total carry nothing and
    # are dropped (extreme alpha/beta ratios only)
    log_mass = log_theta + gammaln(m) - m * np.log(c)
    keep = log_mass > log_mass.max() - 700.0
    log_norm = logsumexp(log_mass[keep])
    a = np.exp(log_theta[keep] - log_norm)
    return MixtureGamma(terms=tuple(
        (float(a_i), float(m), float(c_i)) for a_i, c_i in zip(a, c[keep])))


def gamma_gamma_pdf(gg: GammaGammaParams, x) -> np.ndarray | float:
    """Exact Gamma-Gamma irradiance PDF (Bessel-K form), for fit checks."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("gamma_gamma_pdf needs x > 0")
    al, be = gg.alpha, gg.beta
    lognorm = (math.log(2.0) + 0.5 * (al + be) * math.log(al * be)
               - gammaln(al) - gammaln(be))
    val = np.exp(lognorm + (0.5 * (al + be) - 1.0) * np.log(x)) \
        * kv(al - be, 2.0 * np.sqrt(al * be * x))
    return val if val.ndim else float(val)


def mg_pdf(mg: MixtureGamma, x) -> np.ndarray | float:
    """Mixture PDF at x > 0 (vectorized)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("mg_pdf needs x > 0")
    xs = x[..., None]
    a, b, c = (np.array(col) for col in zip(*mg.terms))
    val = np.sum(a * xs ** (b - 1.0) * np.exp(-c * xs), axis=-1)
    return val if val.ndim else float(val)


def mg_mean(mg: MixtureGamma) -> float:
    """Mean irradiance of the mixture, sum a_i Gamma(1+b_i) c_i^-(1+b_i)."""
    return math.fsum(
        a * math.exp(gammaln(1.0 + b) - (1.0 + b) * math.log(c))
        for a, b, c in mg.terms)


def mg_sample(mg: MixtureGamma, rng: np.random.Generator, size=None):
    """Draw irradiance samples: pick a component, then its Gamma variate."""
    probs = np.array(mg.component_probs())
    probs = probs / probs.sum()
    b = np.array([term[1] for term in mg.terms])
    c = np.array([term[2] for term in mg.terms])
    idx = rng.choice(len(mg.terms), size=size, p=probs)
    draw = rng.standard_gamma(b[idx]) / c[idx]
    return draw if size is not None else float(draw)
