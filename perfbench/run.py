"""Benchmark of the fso-relay CLI: `sweep` and `verify` on fixed scenarios.

    python3 perfbench/run.py --workload sweep-weak --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from
src/.  Load is a closed loop from one client: one command at a time, each
in a fresh interpreter, so the library's lru_cache tables start cold as
they do for every CLI call.  A run

1. warms the bytecode cache with one untimed import, then times the
   set-up (import fso_relay.cli + load_scenario) in SETUP_SAMPLES fresh
   interpreters;
2. runs the workload's command in fresh interpreters, one after another,
   until the commands have taken about --seconds (at least one call), and
   checks every output against perfbench/reference;
3. with --trace 1, runs the command once untraced instead, and once more
   under the outside-in tracer (child.py) for the per-layer metrics.

The process and its children run on one CPU (pick_cpus); a fixed
host-speed probe (calibrate.py) runs without a break on another.  setup_s
and run_s are medians over their samples, each scaled by the reference
probe time over the mean time of the probes that ran beside its child:
the host's speed drifts by tens of percent over minutes and flips within
seconds, and moves probe and workload together.  The samples as measured
are in the result file.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
Every sample, check and the run record (machine, versions, commit,
scenario) go to .bench_build/perfbench/result-<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
from workloads import REFERENCE_DIR, WORKLOADS, Check, check_output, read_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 2
# children still running at this point are killed, so that a run ends
# within the 180 s a run is allowed
RUN_LIMIT_S = 165.0
# work counts that depend only on the code, never on timing or the seed
WORK_COUNTS = ("relay.csi_terms", "specfun.log_bessel_k.elements",
               "aber.cdf_evals", "aber.aber_from_cdf.calls",
               "mcsim.estimate_outage.samples", "mcsim.estimate_aber.samples")


class Prober:
    """Host-speed probes (calibrate.py) run without a break on a CPU of
    their own, beside the children on another."""

    def __init__(self, cpu: int, deadline: float) -> None:
        self.times: list[tuple[float, float]] = []  # (end, seconds)
        self.cond = threading.Condition()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py"), str(cpu), str(deadline)],
            stdout=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        with self.cond:  # the first probe pays for lazy imports
            self.cond.wait_for(lambda: self.times or not self.reader.is_alive(),
                               timeout=60.0)

    def _read(self) -> None:
        for line in self.proc.stdout:
            end, seconds = map(float, line.split())
            with self.cond:
                self.times.append((end, seconds))
                self.cond.notify_all()
        with self.cond:
            self.cond.notify_all()

    def mean_over(self, t0: float, t1: float) -> float:
        """Mean time of the probes that overlap [t0, t1] on the monotonic
        clock, once the probe running at t1 has ended."""
        with self.cond:
            self.cond.wait_for(lambda: (self.times and self.times[-1][0] >= t1)
                               or not self.reader.is_alive(), timeout=30.0)
            beside = [s for end, s in self.times if end > t0 and end - s < t1]
        if not beside or self.times[-1][0] < t1:
            raise RuntimeError("the host-speed probe stopped")
        return statistics.fmean(beside)

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.reader.join()


class Run:
    def __init__(self, run_dir: Path, deadline: float, prober: Prober) -> None:
        self.dir = run_dir
        self.deadline = deadline
        self.prober = prober
        self.env = {k: v for k, v in os.environ.items() if k != "FSO_RELAY_LOG"}
        self.n = 0

    def child(self, config: Path, workload=None,
              trace: bool = False) -> tuple[dict | None, Path]:
        """One fresh interpreter: set-up only, or set-up and the workload's
        command.  Returns its record (None if it failed), with the mean
        time of the host-speed probes beside it as probe_s, and the path
        its command writes its CSV to."""
        self.n += 1
        stem = self.dir / f"{self.n:02d}"
        record, out = stem.with_suffix(".json"), stem.with_suffix(".csv")
        cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
               "--config", str(config), "--record", str(record)]
        if workload is not None:
            cmd += ["--run", *["--trace"] * trace, "--",
                    *workload.argv(config, out)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0.0:
            return None, out
        t0 = time.monotonic()
        with open(stem.with_suffix(".stdout"), "wb") as so, \
                open(stem.with_suffix(".stderr"), "wb") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=ROOT,
                                    env=self.env)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                return None, out
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        probe_s = self.prober.mean_over(t0, time.monotonic())
        if proc.returncode != 0 or not record.is_file():
            return None, out
        rec = json.loads(record.read_text(encoding="utf-8"))
        rec["probe_s"] = probe_s
        return rec, out


def invoke(run: Run, workload, config: Path, reference: list[dict],
           trace: bool = False) -> tuple[dict | None, Check]:
    """Run the workload's command once and check its output."""
    rec, out = run.child(config, workload, trace)
    code = None if rec is None else rec["exit_code"]
    rows = read_rows(out) if rec is not None and out.is_file() else None
    check = check_output(workload.command, rows, reference, code,
                         code is not None and workload.ok_exit(code))
    return rec, check


def pick_cpus() -> tuple[int, int] | None:
    """Run this process and every child on one CPU and return it with
    another for the host-speed probes; None if there are not two.

    The CLI runs its cells on a thread pool that holds the GIL most of the
    time.  Spread over two cores, the GIL's hand-offs between them cost a
    varying amount: five verify calls took 10.7-14.9 s wall (13.6-19.0 s
    CPU with their set-up) on two cores and 15.6-16.4 s on one, run in
    turn.  On one CPU the timings measure the program's work rather than
    the scheduler."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1], cpus[-2]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fso_relay").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def layer_metrics(trace: dict, untraced_run_s: float, traced_run_s: float,
                  ci_misses: int, drift: int) -> dict:
    spans, counts = trace["spans"], trace["counts"]
    out = dict(counts)
    for name, rec in spans.items():
        for field in ("calls", "self_s", "cpu_s"):
            out[f"{name}.{field}"] = rec[field]
    for est in ("mcsim.estimate_outage", "mcsim.estimate_aber"):
        wall = spans.get(est, {}).get("wall_s", 0.0)
        out[f"{est}.samples_per_s"] = counts.get(f"{est}.samples", 0) / wall if wall else 0.0
    evals, abers = counts.get("aber.cdf_evals", 0), out.get("aber.aber_from_cdf.calls", 0)
    out["aber.cdf_evals_per_aber"] = evals / abers if abers else 0.0
    for name, rec in spans.items():  # module totals, e.g. cli.cpu_s
        module = name.split(".")[0]
        for field in ("self_s", "cpu_s"):
            out[f"{module}.{field}"] = out.get(f"{module}.{field}", 0.0) + rec[field]
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    out["trace.count_drift"] = drift
    out["verify.ci_misses"] = ci_misses
    return out


def count_drift(workload: str, digest: str, counts: dict) -> tuple[int, dict]:
    """Compare the work counts with those of the first traced run of the
    same source; return how many differ and the earlier counts."""
    mine = {name: counts.get(name, 0) for name in WORK_COUNTS}
    path = WORK / "counts" / f"{workload}-{digest[:16]}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(mine, sort_keys=True), encoding="utf-8")
        return 0, mine
    first = json.loads(path.read_text(encoding="utf-8"))
    return sum(first.get(k) != v for k, v in mine.items()), first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # exit through the finally blocks that stop a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fso_relay" / "cli.py").is_file():
        print(f"error: no fso_relay sources under {SRC}", file=sys.stderr)
        return 2
    cpus = pick_cpus()
    if cpus is None:
        print("error: the benchmark needs two CPUs, one for the host-speed "
              "probes", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    prober = Prober(cpus[1], started + RUN_LIMIT_S)
    try:
        return measure(args, Run(run_dir, started + RUN_LIMIT_S, prober),
                       tag, cpus)
    finally:
        prober.stop()


def measure(args, run: Run, tag: str, cpus: tuple[int, int]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    reference = read_rows(REFERENCE_DIR / f"{args.workload}.csv")
    run_dir = run.dir
    scenario = workload.scenario(args.seed)
    config = run_dir / "scenario.json"
    config.write_text(json.dumps(scenario, indent=1), encoding="utf-8")

    # the first child compiles bytecode on a fresh checkout; not timed
    run.child(config)
    setups = [rec for rec in (run.child(config)[0]
                              for _ in range(SETUP_SAMPLES)) if rec]
    records, check, measured = [], Check(), 0.0
    while True:
        rec, one = invoke(run, workload, config, reference)
        check.add(one)
        if rec is None:
            break
        records.append(rec)
        measured += rec["run_s"]
        # stop when one more call, if it takes as long as the last, would
        # take the measured time further from --seconds than it is; a
        # traced run needs only one untraced call, to time the trace's
        # overhead
        if args.trace or measured + rec["run_s"] / 2.0 > args.seconds:
            break
    setups += records
    if not records:
        print(f"error: no run of {args.workload} completed; see {run_dir}",
              file=sys.stderr)
        return 1
    setup = [rec["setup_s"] for rec in setups]
    run_s = [rec["run_s"] for rec in records]
    rss = [rec["peak_rss_mb"] for rec in records]
    raw = {"setup_s": statistics.median(setup), "run_s": statistics.median(run_s)}
    probe_s = [rec["probe_s"] for rec in records]
    # above 1 on a host slower than the one the benchmark was defined on
    slowdown = statistics.median(probe_s) / calibrate.REFERENCE_S

    def scaled(key: str, recs: list[dict]) -> float:
        return statistics.median(rec[key] * calibrate.REFERENCE_S / rec["probe_s"]
                                 for rec in recs)

    end_to_end = {"setup_s": scaled("setup_s", setups),
                  "run_s": scaled("run_s", records),
                  "peak_rss_mb": statistics.median(rss)}

    digest = source_digest()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scenario": scenario,
        "command": ["fso-relay", *workload.argv(Path("scenario.json"),
                                                Path("out.csv"))],
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "cpu": cpus[0], "probe_cpu": cpus[1]},
        "versions": records[0]["versions"], "git_commit": git_commit(),
        "source_sha256": digest,
        "samples": {"setup_s": setup, "run_s": run_s, "peak_rss_mb": rss,
                    "probe_s": probe_s, "all_probes": run.prober.times},
        "raw_medians": raw, "slowdown": slowdown,
        "end_to_end": end_to_end,
    }
    metrics, drift = end_to_end, 0
    if args.trace:
        traced, one = invoke(run, workload, config, reference, trace=True)
        check.add(one)
        if traced is None:
            print(f"error: traced run failed; see {run_dir}", file=sys.stderr)
            return 1
        drift, first = count_drift(args.workload, digest,
                                   traced["trace"]["counts"])
        if drift:
            check.problems.append(f"work counts drifted from {first}")
        metrics = layer_metrics(traced["trace"], raw["run_s"],
                                traced["run_s"], one.ci_misses, drift)
        result["trace_record"] = traced["trace"]
        result["per_layer"] = metrics
    section = "per_layer" if args.trace else "end_to_end"
    result["checks"] = {"attempted": check.attempted, "failed": check.failed,
                        "ci_misses": check.ci_misses, "problems": check.problems}
    result_path = WORK / f"result-{tag}.json"
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    correct = check.failed == 0 and not drift
    for problem in check.problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(run_s)} runs, {len(setup)} set-ups, "
          f"median run {raw['run_s']:.3f} s and set-up {raw['setup_s']:.3f} s "
          f"as measured, host slowdown {slowdown:.3f}, "
          f"{check.ci_misses} Monte Carlo interval misses; record in {result_path}")
    print(json.dumps({
        "correct": correct, "attempted": check.attempted, "failed": check.failed,
        # a layer the workload never enters reports 0
        "metrics": {m["name"]: {"value": metrics[m["name"]] if section == "end_to_end"
                                else metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in spec[section]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
