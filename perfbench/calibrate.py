"""Host-speed probe: a fixed computation in the mix the library runs.

The benchmark shares a machine whose speed drifts by tens of percent over
minutes and flips between fast and slow spells a few seconds long, which
moves every timing of a run.  run.py runs this file as a process of its
own on a CPU the benchmark's children do not use, probing without a break
while they run, and scales each child's timings by REFERENCE_S over the
mean time of the probes that ran beside it, so timings read as seconds on
a host where the probe takes REFERENCE_S.  Probes taken between children
miss the spells a child runs in; probes taken beside it see them.  The
probe calls no fso_relay code, so no change to the library can move it.

    python3 calibrate.py CPU DEADLINE

probes on CPU until the monotonic clock reads DEADLINE, or until its
reader goes away, and prints one line per probe: the monotonic time it
ended and its duration in seconds.
"""

from __future__ import annotations

import math
import os
import sys
import time

# probe time of the 2-vCPU Xeon host the benchmark was defined on, at the
# faster end of its drift
REFERENCE_S = 0.4


def probe() -> float:
    """Seconds for: a Python-level quadrature callback calling scalar scipy
    special functions, a Python loop of math calls, array Bessel K, and
    blocked Gamma draws as the Monte Carlo makes them."""
    import numpy as np
    from scipy import special as sp
    from scipy.integrate import quad

    t0 = time.perf_counter()
    for k in range(108):
        a = 0.5 + 0.03 * k
        quad(lambda t: math.exp(-0.5 * t) * float(sp.gammaincc(a, t)) * math.log1p(t),
             0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=400)
    math.fsum(math.exp(-1e-3 * i) * math.lgamma(1.0 + i % 50) for i in range(600_000))
    x = np.linspace(0.05, 40.0, 40_000)
    for nu in range(12):
        np.log(sp.kve(0.9 * nu, x)).sum()
    rng = np.random.default_rng(np.random.SeedSequence(7))
    for _ in range(32):
        g = (rng.standard_gamma(4.0, 1 << 16) * rng.standard_gamma(2.0, 1 << 16)
             * rng.random(1 << 16))
        np.minimum(g, g[::-1]).sum()
    return time.perf_counter() - t0


def main() -> None:
    cpu, deadline = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    probe()  # its first call pays for lazy imports
    try:
        while time.monotonic() < deadline:
            seconds = probe()
            print(time.monotonic(), seconds, flush=True)
    except BrokenPipeError:
        os._exit(0)


if __name__ == "__main__":
    main()
