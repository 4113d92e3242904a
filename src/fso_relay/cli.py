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
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .aber import Modulation, aber, aber_quadrature
from .errors import ConvergenceError
from .hop import HopChannel, Pointing, snr_pdf
from .mcsim import McConfig, estimate_aber, estimate_outage
from .mgfit import (GammaGammaParams, MixtureGamma, fit_gamma_gamma,
                    gamma_gamma_pdf, mg_pdf)
from .relay import CsiAf, Df, FixedAf, RelayLink, cdf_numeric, outage

_PROTOCOLS = ("csi0", "csi1", "fixed", "df")
_ABER_QUAD_TOL = 1e-6
_MAX_GRID_POINTS = 10_000
_NUMERICAL = (ConvergenceError, OverflowError, FloatingPointError)

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
        g = _linear(gamma_bar_db + self.gamma_bar_offset_db,
                    "--gamma-bar-db plus the hop's gamma_bar_offset_db")
        return HopChannel(mg=self.mg, pointing=self.pointing, gamma_bar=g,
                          gg=self.gg)


@dataclass
class Scenario:
    hops: tuple[HopSpec, HopSpec]
    protocols: tuple[str, ...]
    modulation: Modulation
    gamma_th_db: float
    grid_db: tuple[float, ...]
    mc: dict[str, int]
    fixed: FixedAf

    @property
    def gamma_th(self) -> float:
        return _linear(self.gamma_th_db, "gamma_th_db")


def _object(value, what: str, keys: str, required: str = "") -> dict:
    """value as a JSON object holding every required key and no key
    outside keys (both space-separated names)."""
    if not isinstance(value, dict):
        raise ScenarioError(
            f"{what} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys.split():
            raise ScenarioError(f"unknown key {key!r} in {what}; "
                                f"accepted keys: {keys}")
    for key in required.split():
        if key not in value:
            raise ScenarioError(f"{what} needs {key!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer, or an integral number such as 2e6; not a boolean."""
    integral = type(value) is float and value.is_integer()
    if not (type(value) is int or integral):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _protocols(names) -> tuple[str, ...]:
    """The scenario's protocol list or --protocol, checked."""
    names = tuple(names)
    if not names:
        raise ScenarioError("at least one protocol required")
    for p in names:
        if p not in _PROTOCOLS:
            raise ScenarioError(f"unknown protocol {p!r}; choose from {_PROTOCOLS}")
    return names


def _grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... up to stop: the sweep grid and --x-db ranges."""
    if not (step > 0.0 and stop >= start and math.isfinite(stop - start)):
        raise ScenarioError(f"invalid range {start}..{stop} step {step}")
    steps = (stop - start) / step   # checked before any point is built
    if steps >= _MAX_GRID_POINTS - 0.5:
        raise ScenarioError(f"range {start}..{stop} step {step} has more "
                            f"than {_MAX_GRID_POINTS} points")
    n = int(round(steps)) + 1
    return tuple(start + i * step for i in range(n))


def _linear(db: float, what: str) -> float:
    """10^(dB/10), the one dB conversion; ScenarioError naming what unless
    the result is positive and finite (so the dB value is not NaN, and the
    result neither over- nor underflows)."""
    try:
        value = 10.0 ** (db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ScenarioError(f"{what} is out of range: {db} dB")
    return value


def _parse_x_db(text: str) -> list[tuple[float, float]]:
    """Either comma-separated values or start:stop:step, all in dB, as
    (dB, linear) pairs."""
    if ":" not in text:
        xs = [float(t) for t in text.split(",")]
    else:
        parts = [float(t) for t in text.split(":")]
        if len(parts) != 3:
            raise ScenarioError(f"bad range {text!r}, want start:stop:step")
        xs = _grid(*parts)
    return [(x, _linear(x, "--x-db")) for x in xs]


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
    if "mg" in doc and doc.keys() & {"alpha", "beta", "L"}:
        raise ScenarioError("give mg or alpha/beta/L, not both")
    if "mg" in doc:
        mg = MixtureGamma.from_json_dict(_object(doc["mg"], "mg", "terms",
                                                 "terms"))
    elif "alpha" in doc and "beta" in doc:
        gg = GammaGammaParams(alpha=float(doc["alpha"]), beta=float(doc["beta"]))
        mg = fit_gamma_gamma(gg, _integer(doc.get("L", 10), "L"))
    else:
        raise ScenarioError("hop needs either alpha/beta or an mg mixture")
    return HopSpec(mg=mg, pointing=pointing, gg=gg,
                   gamma_bar_offset_db=float(doc.get("gamma_bar_offset_db", 0.0)))


def _parse_scenario(doc: dict) -> Scenario:
    if doc.get("schema") != 1:
        raise ScenarioError(f"unsupported schema {doc.get('schema')!r}")
    hops_doc = doc.get("hops")
    if not isinstance(hops_doc, list) or len(hops_doc) not in (1, 2):
        raise ScenarioError("hops must be a list of one or two specs")
    specs = [_parse_hop_spec(_object(
        h, "hop", "alpha beta L mg xi_sq A0 r_over_wz gamma_bar_offset_db"))
        for h in hops_doc]
    protocols = _protocols(doc.get("protocols", []))
    mod_doc = _object(doc.get("modulation", {"P": 0.5, "Q": 1.0}),
                      "modulation", "P Q", "P Q")
    modulation = Modulation(float(mod_doc["P"]), float(mod_doc["Q"]))
    sweep = _object(doc["sweep"], "sweep", "start_db stop_db step_db",
                    "start_db stop_db")
    grid = _grid(float(sweep["start_db"]), float(sweep["stop_db"]),
                 float(sweep.get("step_db", 5.0)))
    mc = _object(doc.get("mc") or {}, "mc", "samples seed streams")
    mc = {key: _integer(value, f"mc {key}") for key, value in mc.items()}
    gain = doc.get("fixed_gain")
    gamma_th_db = float(doc.get("gamma_th_db", 0.0))
    _linear(gamma_th_db, "gamma_th_db")
    for spec in specs:   # the grid's two ends on each hop
        for key, end in (("start_db", grid[0]), ("stop_db", grid[-1])):
            _linear(end + spec.gamma_bar_offset_db,
                    f"sweep {key} plus the hop's gamma_bar_offset_db")
    return Scenario(hops=(specs[0], specs[-1]), protocols=protocols,
                    modulation=modulation, gamma_th_db=gamma_th_db,
                    grid_db=grid, mc=mc,
                    fixed=FixedAf(None if gain is None else float(gain)))


def _no_constant(name: str):
    raise ScenarioError(f"scenario numbers must be finite, got {name}")


def load_scenario(path: str) -> Scenario:
    """Read and check the whole scenario: a malformed field raises
    ScenarioError, or ValueError from the channel and protocol types."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_no_constant)
            return _parse_scenario(_object(
                doc, "scenario", "schema hops protocols modulation "
                "gamma_th_db sweep mc fixed_gain", "sweep"))
    except (OSError, json.JSONDecodeError, TypeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc


def _scenario(args) -> Scenario:
    """The --config scenario with --protocol and --gamma-th-db applied."""
    scenario = load_scenario(args.config)
    if args.protocol:
        scenario.protocols = _protocols(
            p.strip() for p in args.protocol.split(",") if p.strip())
    if getattr(args, "gamma_th_db", None) is not None:
        _linear(args.gamma_th_db, "--gamma-th-db")
        scenario.gamma_th_db = args.gamma_th_db
    return scenario


def _point_rows(scenario: Scenario, gamma_bar_db: float, protocols, values):
    """Rows of one SNR point: the point's two hops, built once and shared
    by one link per protocol, resolved once for all of that protocol's rows
    from values(gamma_bar_db, proto, link), each ended by method and
    bound_regime.  A numerical failure is re-raised naming the point and
    the protocol."""
    hop1, hop2 = (spec.at(gamma_bar_db) for spec in scenario.hops)
    by_name = {"csi0": CsiAf(q=0), "csi1": CsiAf(q=1), "fixed": scenario.fixed,
               "df": Df()}
    rows = []
    for proto in protocols:
        try:
            link = RelayLink(hop1, hop2, by_name[proto])
            rows += [[*row, link.mode, link.mode == "bound"]
                     for row in values(gamma_bar_db, proto, link)]
        except _NUMERICAL as exc:
            raise ConvergenceError(
                f"at gamma_bar_db={gamma_bar_db}, protocol={proto}: {exc}"
            ) from exc
    return rows


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17e")
    return str(v)


def _check_out(out_path: str) -> None:
    """Fail before any computing when --out cannot be written: its folder
    must exist and be writable, and it must not be a folder itself."""
    folder = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        raise ScenarioError(f"cannot write {out_path}: it is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ScenarioError(
            f"cannot write {out_path}: {folder} is not a writable directory")


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScenarioError(f"cannot write {out_path}: "
                                f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _write_rows(header: list[str], rows: list[list], out_path: str | None) -> None:
    lines = [header, *([_fmt(v) for v in row] for row in rows)]
    _write("".join(",".join(line) + "\n" for line in lines), out_path)


def cmd_fit(args) -> int:
    gg = GammaGammaParams(alpha=args.alpha, beta=args.beta)
    mix = fit_gamma_gamma(gg, args.L)
    grid = np.geomspace(0.05, 5.0, 200)
    rel_err = np.max(np.abs(mg_pdf(mix, grid) - gamma_gamma_pdf(gg, grid))
                     / gamma_gamma_pdf(gg, grid))
    _write(json.dumps(mix.to_json_dict()) + "\n", args.out)
    print(f"max_rel_pdf_error={rel_err:.6e} on I in [0.05, 5] ({len(grid)} points)",
          file=sys.stderr)
    return EXIT_OK


def cmd_pdf(args) -> int:
    scenario = load_scenario(args.config)
    hop = scenario.hops[args.hop - 1].at(args.gamma_bar_db)
    rows = [[x_db, snr_pdf(hop, x)] for x_db, x in _parse_x_db(args.x_db)]
    _write_rows(["x_db", "pdf"], rows, args.out)
    return EXIT_OK


def cmd_cdf(args) -> int:
    scenario = _scenario(args)
    xs = _parse_x_db(args.x_db)
    rows = _point_rows(
        scenario, args.gamma_bar_db, scenario.protocols,
        lambda g, proto, link: [[proto, x_db, link.cdf(x)] for x_db, x in xs])
    _write_rows(["protocol", "x_db", "cdf", "method", "bound_regime"], rows,
                args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """outage and aber at --gamma-bar-db, sweep both over the grid."""
    scenario = _scenario(args)
    sweep = args.command == "sweep"
    columns = ("outage", "aber") if sweep else (args.command,)
    value = {"outage": lambda link: outage(link, scenario.gamma_th),
             "aber": lambda link: aber(link, scenario.modulation)}

    def point(g: float, proto: str, link: RelayLink) -> list[list]:
        return [[g, proto, *(value[c](link) for c in columns)]]

    rows = [row for g in (scenario.grid_db if sweep else (args.gamma_bar_db,))
            for row in _point_rows(scenario, g, scenario.protocols, point)]
    _write_rows(["gamma_bar_db", "protocol", *columns, "method", "bound_regime"],
                rows, args.out)
    return EXIT_OK


def _passed(row: list) -> bool:
    """A verify row passes when the analytic value lies within 1e-6 of
    quadrature and inside the Monte Carlo 95% interval; in the bound
    regime when the Monte Carlo value does not exceed it."""
    _, _, _, closed, quadv, mc, _, low, high, _, bound = row
    if bound:
        return mc <= closed
    return abs(closed - quadv) <= _ABER_QUAD_TOL and low <= closed <= high


def cmd_verify(args) -> int:
    scenario = _scenario(args)
    flags = {"samples": args.samples, "seed": args.seed}
    mc = {**scenario.mc, **{k: v for k, v in flags.items() if v is not None}}
    if "samples" not in mc or "seed" not in mc:
        raise ScenarioError("verify needs an mc block or --samples/--seed")
    mc_cfg = McConfig(**mc)
    gth, mod = scenario.gamma_th, scenario.modulation

    def checks(gamma_bar_db: float, proto: str, link: RelayLink) -> list[list]:
        outages = (outage(link, gth), cdf_numeric(link, gth),
                   estimate_outage(link, gth, mc_cfg))
        abers = (aber(link, mod), aber_quadrature(link, mod, basis="numeric"),
                 estimate_aber(link, mod, mc_cfg))
        return [[gamma_bar_db, proto, metric, closed, quadv, est.value,
                 est.std_err, *est.ci95]
                for metric, (closed, quadv, est) in (("outage", outages),
                                                     ("aber", abers))]

    rows = [row + [_passed(row)] for g in scenario.grid_db
            for row in _point_rows(scenario, g, scenario.protocols, checks)]
    _write_rows(["gamma_bar_db", "protocol", "metric", "analytic",
                 "quadrature", "mc", "mc_std_err", "mc_ci_low", "mc_ci_high",
                 "method", "bound_regime", "passed"], rows, args.out)
    failures = sum(not row[-1] for row in rows)
    print(f"verify: {len(rows) - failures}/{len(rows)} checks passed "
          f"(samples={mc_cfg.samples}, seed={mc_cfg.seed})", file=sys.stderr)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    def shared(flag: str, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **kwargs)
        return parent

    config = shared("--config", required=True)
    protocol = shared("--protocol", help="comma list, default from config")
    gamma_bar = shared("--gamma-bar-db", type=float, required=True)
    out = shared("--out")
    parser = argparse.ArgumentParser(
        prog="fso-relay",
        description="Dual-hop FSO relay outage/ABER analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[*parents, out])
        p.set_defaults(fn=fn)
        return p

    p = command("fit", cmd_fit, "fit a Gamma-Gamma channel as a Gamma mixture")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--L", type=int, default=10)
    p = command("pdf", cmd_pdf, "per-hop SNR pdf at given points", config,
                gamma_bar)
    p.add_argument("--hop", type=int, choices=(1, 2), default=1)
    p.add_argument("--x-db", required=True,
                   help="comma list or start:stop:step (dB)")
    p = command("cdf", cmd_cdf, "end-to-end SNR CDF at given points", config,
                protocol, gamma_bar)
    p.add_argument("--x-db", required=True)
    p = command("outage", cmd_sweep, "outage probability at one SNR point",
                config, protocol, gamma_bar)
    p.add_argument("--gamma-th-db", type=float, default=None)
    command("aber", cmd_sweep, "average BER at one SNR point", config,
            protocol, gamma_bar)
    command("sweep", cmd_sweep, "outage+ABER over the SNR grid", config,
            protocol)
    p = command("verify", cmd_verify,
                "cross-check closed forms vs quadrature and MC", config, protocol)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
