"""Monte Carlo oracle for the relayed link.

Samples the composite channel (turbulence fading x pointing attenuation),
composes the end-to-end SNR sample-wise per protocol, and estimates
outage and ABER with binomial/sample standard errors.  A hop's fading is
drawn from the Gamma-Gamma channel its mixture was fitted from when the
hop records one (hop.gg), so the fit stays under test, and from the
mixture otherwise.

Determinism contract (_blocked_reduce): samples are generated in blocks
of 65,536, block b drawing from a default_rng seeded with the
SeedSequence of (seed, spawn_key=(b,)), and the partial sums are reduced
in block order with exact (fsum) accumulation.  Estimates therefore
depend only on (seed, samples), not on the stream count or scheduling.

The ABER estimator averages the smooth conditional kernel
Gamma(P, Q*gamma) / (2 Gamma(P)) instead of flipping bits; that is the
exact expectation the ABER integral defines, at a fraction of the
variance.  For P = 1/2 (coherent binary) the kernel is evaluated as
erfc(sqrt(Q*gamma))/2, an order of magnitude cheaper than scipy's
regularized incomplete Gamma, which serves every other P.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc

from .aber import Modulation
from .hop import HopChannel, mean_irradiance
from .mgfit import mg_sample
from .relay import CsiAf, FixedAf, RelayLink

_BLOCK = 1 << 16


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    streams: int = 1

    def __post_init__(self) -> None:
        if self.samples < 10_000:
            raise ValueError(
                f"need >= 1e4 samples for CI validity, got {self.samples}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and 95% interval."""

    value: float
    std_err: float
    ci95: tuple[float, float]
    degenerate: bool = False

    def __post_init__(self) -> None:
        low, high = self.ci95
        if not (low <= self.value <= high) or self.std_err < 0.0:
            raise ValueError(f"inconsistent estimate {self}")


def sample_pointing(hop: HopChannel, rng: np.random.Generator, size=None):
    """Pointing attenuation draws, inverse-CDF: I_p = A0 * u^{1/xi^2}."""
    p = hop.pointing
    u = rng.random(size)
    return p.a0 * u ** (1.0 / p.xi_sq)


def sample_gamma_gamma(alpha: float, beta: float,
                       rng: np.random.Generator, size=None):
    """Gamma-Gamma irradiance: product of independent unit-mean Gamma
    variates with shapes alpha and beta."""
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    return (rng.standard_gamma(alpha, size) / alpha
            * rng.standard_gamma(beta, size) / beta)


def sample_snr(hop: HopChannel, rng: np.random.Generator, size=None):
    """Per-hop SNR draws gamma_bar * I_a * I_p / mean(I_a * I_p), I_a from
    hop.gg when set, from the mixture otherwise."""
    i_p = sample_pointing(hop, rng, size)
    if hop.gg is not None:
        i_a = sample_gamma_gamma(hop.gg.alpha, hop.gg.beta, rng, size)
    else:
        i_a = mg_sample(hop.mg, rng, size)
    return hop.gamma_bar * i_a * i_p / mean_irradiance(hop)


def _end_to_end(link: RelayLink, gain, rng: np.random.Generator,
                size: int) -> np.ndarray:
    # draw order is part of the determinism contract: hop1 pointing,
    # hop1 fading, hop2 pointing, hop2 fading
    g1 = sample_snr(link.hop1, rng, size)
    g2 = sample_snr(link.hop2, rng, size)
    proto = link.protocol
    if isinstance(proto, CsiAf):
        return g1 * g2 / (g1 + g2 + proto.q)
    if isinstance(proto, FixedAf):
        return g1 * g2 / (g2 + gain)
    return np.minimum(g1, g2)


def _blocked_reduce(link: RelayLink, cfg: McConfig, stats):
    """stats(g) of each block's end-to-end SNR draws g, reduced
    componentwise in block order: the module's determinism contract."""
    gain = link.gain   # resolved here, not in blocks that may run on threads

    def block(b: int, size: int):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                           spawn_key=(b,)))
        return stats(_end_to_end(link, gain, rng, size))

    n_blocks = (cfg.samples + _BLOCK - 1) // _BLOCK
    sizes = [min(_BLOCK, cfg.samples - b * _BLOCK) for b in range(n_blocks)]
    if cfg.streams > 1:
        with ThreadPoolExecutor(max_workers=cfg.streams) as pool:
            partials = list(pool.map(block, range(n_blocks), sizes))
    else:
        partials = [block(b, s) for b, s in enumerate(sizes)]
    return tuple(math.fsum(part[i] for part in partials)
                 for i in range(len(partials[0])))


def estimate_outage(link: RelayLink, gamma_th: float,
                    cfg: McConfig) -> Estimate:
    """Outage estimate: indicator mean of {end-to-end SNR < gamma_th}."""
    if not gamma_th > 0.0:
        raise ValueError(f"gamma_th must be positive, got {gamma_th}")
    (hits,) = _blocked_reduce(
        link, cfg, lambda g: (float(np.count_nonzero(g < gamma_th)),))
    n = cfg.samples
    p_hat = hits / n
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n)
    degenerate = hits in (0.0, float(n))
    lo = max(0.0, p_hat - 1.96 * std_err)
    hi = min(1.0, p_hat + 1.96 * std_err)
    return Estimate(value=p_hat, std_err=std_err, ci95=(lo, hi),
                    degenerate=degenerate)


def _conditional_ber(mod: Modulation, g: np.ndarray) -> np.ndarray:
    """Gamma(P, Q*g) / (2 Gamma(P)), through erfc for P = 1/2."""
    qg = mod.q * g
    if mod.p == 0.5:
        return 0.5 * erfc(np.sqrt(qg))
    return 0.5 * gammaincc(mod.p, qg)


def estimate_aber(link: RelayLink, mod: Modulation,
                  cfg: McConfig) -> Estimate:
    """ABER estimate: sample mean of Gamma(P, Q*gamma) / (2 Gamma(P))."""

    def stats(g: np.ndarray):
        kern = _conditional_ber(mod, g)
        return (float(kern.sum()), float(np.square(kern).sum()))

    total, total_sq = _blocked_reduce(link, cfg, stats)
    n = cfg.samples
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    std_err = math.sqrt(var / n)
    degenerate = var == 0.0
    return Estimate(value=mean, std_err=std_err,
                    ci95=(max(0.0, mean - 1.96 * std_err),
                          mean + 1.96 * std_err),
                    degenerate=degenerate)
