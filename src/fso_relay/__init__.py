"""Dual-hop all-optical FSO link performance under mixture-Gamma fading
and zero-boresight pointing errors: closed-form outage/ABER for
CSI-assisted AF, fixed-gain AF and DF relaying, with quadrature and
Monte Carlo cross-verification."""

from .aber import (BPSK, DPSK, Modulation, aber, aber_csi, aber_df,
                   aber_fixed, aber_from_cdf, aber_quadrature)
from .errors import ConvergenceError, DegenerateFitError, IntegerConditionError
from .hop import (HopChannel, Pointing, SnrKernel, auto_kernel, bound_kernel,
                  mean_irradiance, pointing_loss, reduced_kernel, snr_ccdf,
                  snr_ccdf_general, snr_pdf, snr_pdf_reduced, xi_coeff)
from .mcsim import (Estimate, McConfig, estimate_aber, estimate_outage,
                    sample_gamma_gamma, sample_pointing, sample_snr)
from .mgfit import (GammaGammaParams, MixtureGamma, fit_gamma_gamma,
                    gamma_gamma_pdf, mg_mean, mg_pdf, mg_sample)
from .relay import (CsiAf, Df, FixedAf, RelayLink, cdf, cdf_numeric,
                    fixed_gain, fixed_gain_numeric, link_mode, outage)
from .specfun import bessel_k, gauss_2f1, gauss_laguerre, upper_inc_gamma

__version__ = "0.1.0"
