"""Short run of every workload with all checks on.

    python3 bench/smoke.py

Runs each workload untraced for one second (at least 100 operations) and
traced once, and fails unless every run is correct with no failed operation,
reports exactly the metrics ``BENCHMARK.json`` lists, makes no call to the
layers a workload must bypass, and repeats its traced counts exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# layers each workload must not reach
BYPASSED = {
    "certify-operator": (),
    "certify-symbol": ("geometry.lie_operator", "geometry.compose", "quantizer.quantize"),
    "cli-roundtrip": ("geometry.lie_operator", "geometry.compose"),
}


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in BYPASSED:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            where = f"{workload} trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correct {result['correct']}, "
                                f"{result['failed']} of {result['attempted']} failed")
            if trace == 0 and result["attempted"] < 100:
                problems.append(f"{where}: only {result['attempted']} operations")
            if set(result["metrics"]) != {m["name"] for m in spec[section]}:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            if trace:
                for layer in BYPASSED[workload]:
                    if result["metrics"][f"{layer}.calls"]["value"]:
                        problems.append(f"{where}: {layer} was called")
                again = bench(workload, 1)
                counts = {name: m["value"] for name, m in result["metrics"].items()
                          if m["unit"] == "count"}
                if counts != {name: again["metrics"][name]["value"] for name in counts}:
                    problems.append(f"{where}: traced counts do not repeat")
        print(f"{workload}: done", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke passed" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
