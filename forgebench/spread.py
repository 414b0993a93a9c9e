"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 forgebench/spread.py --workload spectral_sweep

Runs run.py once for each of the seeds 1-10, for BENCHMARK.json's
run_seconds, and prints, per metric, the median, the quartiles and the
interquartile range as a share of the median, next to the metric's bound.
Raw results go to .forgebench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)

    runs = []
    for seed in SEEDS:
        cmd = [sys.executable, str(ROOT / "forgebench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    os.makedirs(ROOT / ".forgebench_out", exist_ok=True)
    (ROOT / ".forgebench_out" / f"spread-{args.workload}.json").write_text(json.dumps(runs))
    worst = 0.0
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("inf")
        worst = max(worst, share / m["bound"])
        print(f"{m['name']:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{share:>9.3f}{m['bound']:>7}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
