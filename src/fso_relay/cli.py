"""Batch front-end: scenario-driven sweeps of outage/ABER over average
SNR for the relay protocols, with closed-form / quadrature / Monte Carlo
cross-verification and CSV output.

Scenario files are JSON with a versioned schema:

    {
      "schema": 1,
      "hops": [ {"alpha": 4, "beta": 2, "L": 10,
                 "xi_sq": 1, "r_over_wz": 0.1} ],
      "protocols": ["df", "csi0", "csi1", "fixed"],
      "modulation": {"P": 0.5, "Q": 1.0},
      "gamma_th_db": 0.0,
      "sweep": {"start_db": 0.0, "stop_db": 30.0, "step_db": 5.0},
      "mc": {"samples": 1000000, "seed": 1, "streams": 1}
    }

One hop spec means identical channels on both hops.  A hop is either a
Gamma-Gamma description (alpha, beta, optional L) or an explicit mixture
({"mg": {"terms": [[a, b, c], ...]}}); pointing is given as xi_sq plus
either A0 or r_over_wz.  dB/linear conversion happens only here, at the
boundary: gamma_linear = 10^(dB/10).

Exit codes: 0 ok, 2 config/validation error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .aber import Modulation, aber_quadrature, plan_aber
from .errors import ConvergenceError
from .hop import HopChannel, Pointing, snr_pdf
from .mcsim import McConfig, estimate_aber, estimate_outage
from .mgfit import (GammaGammaParams, MixtureGamma, fit_gamma_gamma,
                    gamma_gamma_pdf, mg_pdf)
from .relay import CsiAf, Df, FixedAf, LinkPlan, RelayLink, cdf_numeric

log = logging.getLogger("fso_relay")

_PROTOCOLS = ("csi0", "csi1", "fixed", "df")
_ABER_QUAD_TOL = 1e-6

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


class ScenarioError(ValueError):
    pass


@dataclass
class HopSpec:
    """Deferred hop: everything except the average SNR, which the sweep
    assigns point by point."""

    mg: MixtureGamma
    pointing: Pointing
    gg: GammaGammaParams | None = None
    gamma_bar_offset_db: float = 0.0

    def at(self, gamma_bar_db: float) -> HopChannel:
        g = 10.0 ** ((gamma_bar_db + self.gamma_bar_offset_db) / 10.0)
        return HopChannel(mg=self.mg, pointing=self.pointing, gamma_bar=g,
                          gg=self.gg)


@dataclass
class Scenario:
    hops: tuple[HopSpec, HopSpec]
    protocols: tuple[str, ...]
    modulation: Modulation
    gamma_th_db: float
    grid_db: tuple[float, ...]
    mc: dict | None = None
    fixed_gain: float | None = None

    @property
    def gamma_th(self) -> float:
        return 10.0 ** (self.gamma_th_db / 10.0)


def _parse_hop_spec(doc: dict) -> HopSpec:
    xi_sq = float(doc.get("xi_sq", 1.0))
    if "r_over_wz" in doc and "A0" in doc:
        raise ScenarioError("give A0 or r_over_wz, not both")
    if "A0" in doc:
        pointing = Pointing(xi_sq=xi_sq, a0=float(doc["A0"]))
    else:
        ratio = float(doc.get("r_over_wz", 0.1))
        pointing = Pointing.from_geometry(xi_sq, r=ratio, w_z=1.0)
    gg = None
    if "mg" in doc:
        mg = MixtureGamma.from_json_dict(doc["mg"])
    elif "alpha" in doc and "beta" in doc:
        gg = GammaGammaParams(alpha=float(doc["alpha"]), beta=float(doc["beta"]))
        mg = fit_gamma_gamma(gg, int(doc.get("L", 10)))
    else:
        raise ScenarioError("hop needs either alpha/beta or an mg mixture")
    return HopSpec(mg=mg, pointing=pointing, gg=gg,
                   gamma_bar_offset_db=float(doc.get("gamma_bar_offset_db", 0.0)))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if doc.get("schema") != 1:
        raise ScenarioError(f"unsupported schema {doc.get('schema')!r}")
    hops_doc = doc.get("hops")
    if not isinstance(hops_doc, list) or len(hops_doc) not in (1, 2):
        raise ScenarioError("hops must be a list of one or two specs")
    specs = [_parse_hop_spec(h) for h in hops_doc]
    if len(specs) == 1:
        specs = [specs[0], specs[0]]
    protocols = tuple(doc.get("protocols", []))
    if not protocols:
        raise ScenarioError("at least one protocol required")
    for p in protocols:
        if p not in _PROTOCOLS:
            raise ScenarioError(f"unknown protocol {p!r}; choose from {_PROTOCOLS}")
    mod_doc = doc.get("modulation", {"P": 0.5, "Q": 1.0})
    modulation = Modulation(float(mod_doc["P"]), float(mod_doc["Q"]))
    sweep = doc.get("sweep")
    if not sweep:
        raise ScenarioError("sweep block required")
    start, stop = float(sweep["start_db"]), float(sweep["stop_db"])
    step = float(sweep.get("step_db", 5.0))
    if step <= 0.0 or stop < start:
        raise ScenarioError(f"invalid sweep range {start}..{stop} step {step}")
    n = int(round((stop - start) / step)) + 1
    grid = tuple(start + i * step for i in range(n))
    gain = doc.get("fixed_gain")
    return Scenario(hops=(specs[0], specs[1]), protocols=protocols,
                    modulation=modulation,
                    gamma_th_db=float(doc.get("gamma_th_db", 0.0)),
                    grid_db=grid, mc=doc.get("mc"),
                    fixed_gain=None if gain is None else float(gain))


def _protocol_object(name: str, scenario: Scenario):
    if name == "csi0":
        return CsiAf(q=0)
    if name == "csi1":
        return CsiAf(q=1)
    if name == "fixed":
        return FixedAf(gain=scenario.fixed_gain)
    return Df()


def make_link(scenario: Scenario, proto: str, gamma_bar_db: float) -> RelayLink:
    return RelayLink(hop1=scenario.hops[0].at(gamma_bar_db),
                     hop2=scenario.hops[1].at(gamma_bar_db),
                     protocol=_protocol_object(proto, scenario))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17e")
    return str(v)


def _write_rows(header: list[str], rows: list[list], out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_x_db(text: str) -> list[float]:
    """Either comma-separated values or start:stop:step, all in dB."""
    if ":" in text:
        parts = [float(t) for t in text.split(":")]
        if len(parts) != 3 or parts[2] <= 0.0 or parts[1] < parts[0]:
            raise ScenarioError(f"bad range {text!r}, want start:stop:step")
        n = int(round((parts[1] - parts[0]) / parts[2])) + 1
        return [parts[0] + i * parts[2] for i in range(n)]
    return [float(t) for t in text.split(",")]


def _sweep_point(scenario: Scenario, gamma_bar_db: float):
    rows = []
    for proto in scenario.protocols:
        try:
            plan = LinkPlan(make_link(scenario, proto, gamma_bar_db))
            p_out = plan.outage(scenario.gamma_th)
            p_err = plan_aber(plan, scenario.modulation)
        except (ConvergenceError, OverflowError, FloatingPointError) as exc:
            raise ConvergenceError(
                f"at gamma_bar_db={gamma_bar_db}, protocol={proto}: {exc}"
            ) from exc
        rows.append([gamma_bar_db, proto, p_out, p_err, plan.mode,
                     plan.mode == "bound"])
    return rows


def cmd_fit(args) -> int:
    gg = GammaGammaParams(alpha=args.alpha, beta=args.beta)
    mix = fit_gamma_gamma(gg, args.L)
    grid = np.geomspace(0.05, 5.0, 200)
    rel_err = np.max(np.abs(mg_pdf(mix, grid) - gamma_gamma_pdf(gg, grid))
                     / gamma_gamma_pdf(gg, grid))
    text = json.dumps(mix.to_json_dict()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"max_rel_pdf_error={rel_err:.6e} on I in [0.05, 5] ({len(grid)} points)",
          file=sys.stderr)
    return EXIT_OK


def cmd_pdf(args) -> int:
    scenario = load_scenario(args.config)
    spec = scenario.hops[args.hop - 1]
    hop = spec.at(args.gamma_bar_db)
    rows = [[x_db, snr_pdf(hop, 10.0 ** (x_db / 10.0))]
            for x_db in _parse_x_db(args.x_db)]
    _write_rows(["x_db", "pdf"], rows, args.out)
    return EXIT_OK


def cmd_cdf(args) -> int:
    scenario = load_scenario(args.config)
    protocols = _select_protocols(scenario, args.protocol)
    rows = []
    for proto in protocols:
        plan = LinkPlan(make_link(scenario, proto, args.gamma_bar_db))
        for x_db in _parse_x_db(args.x_db):
            rows.append([proto, x_db, plan.cdf(10.0 ** (x_db / 10.0)),
                         plan.mode, plan.mode == "bound"])
    _write_rows(["protocol", "x_db", "cdf", "method", "bound_regime"], rows,
                args.out)
    return EXIT_OK


def cmd_outage(args) -> int:
    scenario = load_scenario(args.config)
    if args.gamma_th_db is not None:
        scenario.gamma_th_db = args.gamma_th_db
    protocols = _select_protocols(scenario, args.protocol)
    rows = []
    for proto in protocols:
        plan = LinkPlan(make_link(scenario, proto, args.gamma_bar_db))
        rows.append([args.gamma_bar_db, proto, plan.outage(scenario.gamma_th),
                     plan.mode, plan.mode == "bound"])
    _write_rows(["gamma_bar_db", "protocol", "outage", "method", "bound_regime"],
                rows, args.out)
    return EXIT_OK


def cmd_aber(args) -> int:
    scenario = load_scenario(args.config)
    protocols = _select_protocols(scenario, args.protocol)
    rows = []
    for proto in protocols:
        plan = LinkPlan(make_link(scenario, proto, args.gamma_bar_db))
        rows.append([args.gamma_bar_db, proto,
                     plan_aber(plan, scenario.modulation), plan.mode,
                     plan.mode == "bound"])
    _write_rows(["gamma_bar_db", "protocol", "aber", "method", "bound_regime"],
                rows, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    scenario.protocols = _select_protocols(scenario, args.protocol)
    with ThreadPoolExecutor(max_workers=min(8, len(scenario.grid_db))) as pool:
        per_point = list(pool.map(lambda g: _sweep_point(scenario, g),
                                  scenario.grid_db))
    rows = [row for point in per_point for row in point]
    _write_rows(["gamma_bar_db", "protocol", "outage", "aber", "method",
                 "bound_regime"], rows, args.out)
    return EXIT_OK


def _verify_point(scenario: Scenario, proto: str, gamma_bar_db: float,
                  mc_cfg: McConfig):
    link = make_link(scenario, proto, gamma_bar_db)
    plan = LinkPlan(link)
    bound = plan.mode == "bound"
    gth = scenario.gamma_th
    mod = scenario.modulation

    out_closed = plan.outage(gth)
    out_quad = cdf_numeric(link, gth)
    out_mc = estimate_outage(link, gth, mc_cfg)

    aber_closed = plan_aber(plan, mod)
    aber_quad = aber_quadrature(link, mod, basis="numeric")
    aber_mc = estimate_aber(link, mod, mc_cfg)

    rows = []
    for metric, closed, quadv, est in (("outage", out_closed, out_quad, out_mc),
                                       ("aber", aber_closed, aber_quad, aber_mc)):
        if bound:
            passed = est.value <= closed
        else:
            passed = (abs(closed - quadv) <= _ABER_QUAD_TOL
                      and est.ci95[0] <= closed <= est.ci95[1])
        rows.append([gamma_bar_db, proto, metric, closed, quadv, est.value,
                     est.std_err, est.ci95[0], est.ci95[1], plan.mode, bound,
                     passed])
    return rows


def cmd_verify(args) -> int:
    scenario = load_scenario(args.config)
    scenario.protocols = _select_protocols(scenario, args.protocol)
    mc_doc = dict(scenario.mc or {})
    if args.samples is not None:
        mc_doc["samples"] = args.samples
    if args.seed is not None:
        mc_doc["seed"] = args.seed
    if "samples" not in mc_doc or "seed" not in mc_doc:
        raise ScenarioError("verify needs an mc block or --samples/--seed")
    mc_cfg = McConfig(samples=int(mc_doc["samples"]), seed=int(mc_doc["seed"]),
                      streams=int(mc_doc.get("streams", 1)))
    tasks = [(g, p) for g in scenario.grid_db for p in scenario.protocols]
    with ThreadPoolExecutor(max_workers=4) as pool:
        per_task = list(pool.map(
            lambda gp: _verify_point(scenario, gp[1], gp[0], mc_cfg), tasks))
    rows = [row for task in per_task for row in task]
    _write_rows(["gamma_bar_db", "protocol", "metric", "analytic",
                 "quadrature", "mc", "mc_std_err", "mc_ci_low", "mc_ci_high",
                 "method", "bound_regime", "passed"], rows, args.out)
    failures = [r for r in rows if not r[-1]]
    print(f"verify: {len(rows) - len(failures)}/{len(rows)} checks passed "
          f"(samples={mc_cfg.samples}, seed={mc_cfg.seed})", file=sys.stderr)
    return EXIT_VERIFY if failures else EXIT_OK


def _select_protocols(scenario: Scenario, override: str | None) -> tuple[str, ...]:
    if not override:
        return scenario.protocols
    names = tuple(p.strip() for p in override.split(",") if p.strip())
    if not names:
        raise ScenarioError("empty protocol list")
    for p in names:
        if p not in _PROTOCOLS:
            raise ScenarioError(f"unknown protocol {p!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso-relay",
        description="Dual-hop FSO relay outage/ABER analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a Gamma-Gamma channel as a Gamma mixture")
    p_fit.add_argument("--alpha", type=float, required=True)
    p_fit.add_argument("--beta", type=float, required=True)
    p_fit.add_argument("--L", type=int, default=10)
    p_fit.add_argument("--out")
    p_fit.set_defaults(fn=cmd_fit)

    p_pdf = sub.add_parser("pdf", help="per-hop SNR pdf at given points")
    p_pdf.add_argument("--config", required=True)
    p_pdf.add_argument("--hop", type=int, choices=(1, 2), default=1)
    p_pdf.add_argument("--gamma-bar-db", type=float, required=True)
    p_pdf.add_argument("--x-db", required=True,
                       help="comma list or start:stop:step (dB)")
    p_pdf.add_argument("--out")
    p_pdf.set_defaults(fn=cmd_pdf)

    p_cdf = sub.add_parser("cdf", help="end-to-end SNR CDF at given points")
    p_cdf.add_argument("--config", required=True)
    p_cdf.add_argument("--protocol", help="comma list, default from config")
    p_cdf.add_argument("--gamma-bar-db", type=float, required=True)
    p_cdf.add_argument("--x-db", required=True)
    p_cdf.add_argument("--out")
    p_cdf.set_defaults(fn=cmd_cdf)

    p_out = sub.add_parser("outage", help="outage probability at one SNR point")
    p_out.add_argument("--config", required=True)
    p_out.add_argument("--protocol")
    p_out.add_argument("--gamma-bar-db", type=float, required=True)
    p_out.add_argument("--gamma-th-db", type=float, default=None)
    p_out.add_argument("--out")
    p_out.set_defaults(fn=cmd_outage)

    p_aber = sub.add_parser("aber", help="average BER at one SNR point")
    p_aber.add_argument("--config", required=True)
    p_aber.add_argument("--protocol")
    p_aber.add_argument("--gamma-bar-db", type=float, required=True)
    p_aber.add_argument("--out")
    p_aber.set_defaults(fn=cmd_aber)

    p_sweep = sub.add_parser("sweep", help="outage+ABER over the SNR grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--protocol")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ver = sub.add_parser("verify",
                           help="cross-check closed forms vs quadrature and MC")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--protocol")
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FSO_RELAY_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
