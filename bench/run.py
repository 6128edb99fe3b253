"""superquant benchmark: certification throughput and CLI round-trip latency.

    python3 bench/run.py --workload certify-operator --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 2     # every workload in turn

Each workload runs in fresh interpreters (``bench/worker.py``) that import the
program from ``src/`` of this checkout and drive ``superquant.cli.main`` in
process.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a fixed number of rounds runs once traced and once untraced,
and the per-layer metrics and the tracing overhead are printed.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of every run, with the kernel backend, Python version and CPU count,
go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("certify-operator", "certify-symbol", "cli-roundtrip")
SETUP_SAMPLES = 5          # setup-only interpreters per run, besides the timed one
CHILD_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def spawn(workload: str, seed: int, mode: str, seconds: float = 0, spans: str | None = None):
    """Run one worker in a fresh interpreter; returns its result with
    ``setup_s``, the time from the spawn to its first timed operation."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    # a fixed hash seed keeps every iteration order, and so every count, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("SUPERQUANT_PURE_PYTHON", None)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_monotonic"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float) -> dict:
    run = spawn(workload, seed, "run", seconds)
    setups = [run["setup_s"]] + [spawn(workload, seed, "setup")["setup_s"]
                                 for _ in range(SETUP_SAMPLES)]
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({name: run[name] for name, _unit in END_TO_END if name != "setup_s"})
    return {
        "correct": not run["problems"] and run["work"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "backend": run["backend"],
        "rounds": run["rounds"],
        "busy_s": run["busy_s"],
        "loop_s": run["loop_s"],
        "setup_samples_s": setups,
        "problems": run["problems"],
        "messages": run["messages"],
    }


def trace(workload: str, seed: int) -> dict:
    os.makedirs(OUT, exist_ok=True)
    # one file per workload: a traced round holds up to about a million spans
    spans = os.path.join(OUT, f"spans-{workload}.tsv")
    traced = spawn(workload, seed, "trace", spans=spans)
    plain = spawn(workload, seed, "replay")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["per_layer"].items()}
    metrics["trace.untraced_s"] = {"value": plain["busy_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["busy_s"] - plain["busy_s"], "unit": "s"}
    return {
        "correct": traced["work"] > 0,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": metrics,
        "backend": traced["backend"],
        "spans_file": os.path.relpath(spans, ROOT),
        "messages": traced["messages"],
    }


def report(workload: str, seed: int, traced: bool, result: dict) -> dict:
    env = {"backend": result["backend"], "python": platform.python_version(),
           "cpus": os.cpu_count()}
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  "
          f"backend {env['backend']}  python {env['python']}  cpus {env['cpus']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for line in result.get("problems", []) + result.get("messages", []):
        print(f"  ! {line}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{workload}_seed{seed}_trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, workload=workload, seed=seed, trace=int(traced), **env),
                  fh, indent=2)
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superquant", "cli.py")):
        print(f"no program to measure: {ROOT}/src/superquant is missing", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.trace:
            result = trace(workload, args.seed)
        else:
            result = measure(workload, args.seed, args.seconds)
        print(json.dumps(report(workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
