#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the driver takes it.

Runs each workload N times (default 10), each time with another seed, and
prints for every end-to-end metric the distance between the first and third
quartile of its N values as a share of their median, beside the bound that
BENCHMARK.json fixes. Build first; pass the built binary:

    python3 benchmarks/spread.py <path-to-pe_benchmark> [runs] [first-seed]
"""

import json
import pathlib
import statistics
import subprocess
import sys


def main() -> int:
    binary = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first_seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    spec = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for run in range(runs):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(first_seed + run),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, out
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, seen in values.items():
            q1, _, q3 = statistics.quantiles(seen, n=4)
            median = statistics.median(seen)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:<22} {name:<18} median {median:>14.6f}  spread {spread * 100:6.2f} %"
                  f"  bound {bounds[name] * 100:3.0f} %  min {min(seen):.6f} max {max(seen):.6f}", flush=True)
    print(f"worst spread is {worst:.2f} of its bound (aim: below 0.33)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
