"""Write perfbench/reference/<workload>.csv: each workload's CLI output,
against which every benchmark run checks its own.

    python3 perfbench/make_reference.py

Run it from the root of the checkout whose results are the reference (the
commit that defined the benchmark).  verify-weak is written at seed 1; its
Monte Carlo columns are not compared.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FSO_RELAY_LOG", None)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(workload.scenario(1)), encoding="utf-8")
            out = REFERENCE_DIR / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "fso_relay.cli", *workload.argv(config, out)],
                env=env, stderr=subprocess.DEVNULL)
            if not workload.ok_exit(proc.returncode):
                print(f"{name}: exit {proc.returncode}", file=sys.stderr)
                return 1
            print(f"{name}: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
