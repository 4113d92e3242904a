"""One sample in a fresh interpreter.

Times the set-up every CLI call pays (``import fso_relay.cli`` plus
``cli.load_scenario``), then, with --run, one ``cli.main(argv)``, and
writes a JSON record.  With --trace the run is traced from outside: the
public functions of the library modules are wrapped in spans (see
tracer.py), fso_relay log records and scipy IntegrationWarnings are
counted, and the library source is left untouched.

    python3 child.py --src SRC --config SCENARIO --record OUT.json
                     [--run [--trace]] -- CLI-ARGS...
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import platform
import resource
import sys
import time
import warnings

from tracer import Tracer

MODULES = ("specfun", "mgfit", "hop", "relay", "aber", "mcsim", "cli")
# Called millions of times from the quadrature oracle; a span per call
# would cost about half the run, so their time stays with the outermost
# of them and everything below is only counted.
HOT_LEAVES = {"specfun.upper_inc_gamma", "hop.snr_pdf", "hop.snr_ccdf_general"}
# Bodies the CLI reaches only through a dispatcher: their time is the work
# of relay.cdf, aber.aber and hop.auto_kernel (the kernel rebuilds).
FOLDED = {"relay.cdf_csi", "relay.cdf_fixed", "relay.cdf_df",
          "aber.aber_csi", "aber.aber_fixed", "aber.aber_df",
          "hop.reduced_kernel", "hop.bound_kernel"}


def _count_elements(tracer, args, kwargs):
    import numpy as np
    tracer.count("specfun.log_bessel_k.elements",
                 int(np.broadcast(*args, *kwargs.values()).size))
    return args, kwargs


def _count_cdf_evals(tracer, args, kwargs):
    cdf_fn, *rest = args

    def counted(z):
        tracer.count("aber.cdf_evals")
        return cdf_fn(z)

    return (counted, *rest), kwargs


def _count_samples(name):
    def hook(tracer, args, kwargs):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
        tracer.count(name + ".samples", cfg.samples)
        return args, kwargs
    return hook


HOOKS = {
    "specfun.log_bessel_k": _count_elements,
    "aber.aber_from_cdf": _count_cdf_evals,
    "mcsim.estimate_outage": _count_samples("mcsim.estimate_outage"),
    "mcsim.estimate_aber": _count_samples("mcsim.estimate_aber"),
}


def install_layers(tracer: Tracer) -> list[str]:
    """Wrap every public function defined in the library modules, looked
    up through sys.modules: the package re-exports ``aber`` the function
    over the ``aber`` submodule."""
    wrapped = []
    for short in MODULES:
        mod = sys.modules[f"fso_relay.{short}"]
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in FOLDED):
                continue
            wrapper = tracer.wrap(name, fn, leaf=name in HOT_LEAVES,
                                  on_call=HOOKS.get(name))
            tracer.patch(fn, wrapper, "fso_relay")
            wrapped.append(name)
    return wrapped


class _RecordCounter(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        hyperu = (record.name == "fso_relay.specfun"
                  and str(record.msg).startswith("hyperu"))
        self.tracer.count("specfun.hyperu_fallbacks" if hyperu
                          else "log.other_records")


def csi_terms(scenario) -> int:
    """Size of the CSI-AF term table, sum over kernel term pairs of
    m1 * m2 * (m1 + 1) / 2, from the kernels auto_kernel builds."""
    from fso_relay.errors import IntegerConditionError
    auto_kernel = getattr(sys.modules["fso_relay.hop"], "auto_kernel", None)
    if auto_kernel is None:
        return 0
    try:
        k1, k2 = (auto_kernel(spec.at(scenario.grid_db[0]))
                  for spec in scenario.hops)
    except IntegerConditionError:
        return 0
    return sum(m2 * m1 * (m1 + 1) // 2 for m1 in k1.power for m2 in k2.power)


def traced_main(cli, argv: list[str]) -> tuple[int, float, dict]:
    tracer = Tracer()
    wrapped = install_layers(tracer)
    counter = _RecordCounter(tracer)
    logger = logging.getLogger("fso_relay")
    logger.addHandler(counter)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            code = cli.main(argv)
            run_s = time.perf_counter() - t0
    finally:
        logger.removeHandler(counter)
        tracer.uninstall()
    from scipy.integrate import IntegrationWarning
    counts = tracer.counts()
    counts["specfun.quad_warnings"] = sum(
        issubclass(w.category, IntegrationWarning) for w in caught)
    counts["other_warnings"] = len(caught) - counts["specfun.quad_warnings"]
    return code, run_s, {"wrapped": wrapped, "spans": tracer.spans(),
                         "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--run", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    from fso_relay import cli
    scenario = cli.load_scenario(args.config)
    record = {"setup_s": time.perf_counter() - t0}

    if args.run:
        if args.trace:
            code, run_s, trace = traced_main(cli, args.argv)
            trace["counts"]["relay.csi_terms"] = csi_terms(scenario)
            record["trace"] = trace
        else:
            t1 = time.perf_counter()
            code = cli.main(args.argv)
            run_s = time.perf_counter() - t1
        record.update(exit_code=code, run_s=run_s)
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy
    record["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
