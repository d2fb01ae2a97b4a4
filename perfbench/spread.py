"""Run the benchmark once per seed, one process at a time, for as long as
BENCHMARK.json's run_seconds, and report each end-to-end metric's median,
quartiles and spread (q3 - q1) / median beside its bound:

    python3 perfbench/spread.py --workload uniform --seeds 1-10

The bounds in BENCHMARK.json hold only if every spread stays inside them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:7.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
