"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload kolp-desk --seeds 1 2 3 4 5 [--out DIR]

For every end-to-end metric in BENCHMARK.json this prints the median of the
runs, the inter-quartile distance (statistics.quantiles, n=4) as a share of
the median, and that spread against a third of the metric's bound.  Runs are
sequential, untraced and use the benchmark's own command and run length;
``--out`` is passed on to run.py, which writes each run's full record there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", help="directory for the runs' records (run.py's default if not given)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med
        worst = max(worst, share / m["bound"])
        print(f"{m['name']:>12}: median {med:.5g} {m['unit']}, spread {share:.4f} "
              f"(bound {m['bound']}, bound/3 {m['bound'] / 3:.4f})")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
