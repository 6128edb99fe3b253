"""One workload in one fresh interpreter; started by ``run.py``.

Modes:
  setup   import, build the inputs, warm up, and report when the first timed
          operation would start;
  run     setup, then whole rounds until ``--seconds`` of operation time and
          at least 100 operations, then the untimed checks;
  trace   setup, then the workload's first ``trace_rounds`` rounds with every
          layer traced;
  replay  the same rounds untraced (the base of the tracing overhead).

Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_OPERATIONS = 100
MAX_MESSAGES = 5


class Op:
    __slots__ = ("rc", "out", "err", "ok")

    def __init__(self, rc, out, err):
        self.rc, self.out, self.err, self.ok = rc, out, err, True


class Runner:
    """Times each CLI command and counts work, attempts and failures."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.latencies = []
        self.work = 0
        self.failed = 0
        self.messages = []

    def call(self, argv):
        """Untimed, untraced command; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def execute(self, argv) -> Op:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer:
            tracer.op = len(self.latencies)
            tracer.active = True
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        self.latencies.append(elapsed)
        return Op(rc, out.getvalue(), err.getvalue())

    def accept(self, op: Op, work: int) -> None:
        if op.ok:
            self.work += work

    def reject(self, op: Op, message: str) -> None:
        if op.ok:
            op.ok = False
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def run_round(self, items) -> None:
        for item in items:
            item(self)


def import_program():
    sys.path.insert(0, SRC)
    import superquant
    from superquant import cli

    if os.path.dirname(os.path.abspath(superquant.__file__)) != os.path.join(SRC, "superquant"):
        raise SystemExit(f"superquant was imported from {superquant.__file__}, not {SRC}")
    return superquant, cli


def untimed_checks(runner, workload, rounds: int) -> list:
    """Sensitivity of the verifier and the scalar constants of the theory;
    returns the problems found."""
    from superquant import QuantizationConfig, Signature, affine_quantize
    from superquant.verifier import check_equivariance
    from workloads import alpha, critical_set, expected_identities

    problems = []
    cfg = QuantizationConfig(Signature(2, 1), Fraction(1, 3), Fraction(1, 5))
    report = check_equivariance(
        cfg, degree_max=2, sample_count=2, quantizer=lambda s, c: affine_quantize(s, c.lam))
    want = expected_identities(["check", "equivariance", "--p=2", "--q=1", "--samples=2",
                                "--degree-max=2"])
    if report.passed or report.samples_run != want:
        problems.append("check_equivariance does not reject the coefficient-wise map "
                        f"({len(report.failures)} failures in {report.samples_run})")
    used = workload.constants(rounds)
    for p, q, kmax, delta in sorted(used):
        for k in range(kmax + 1):
            rc, out = runner.call(["alpha", f"--p={p}", f"--q={q}", f"--delta={delta}",
                                   f"--k={k}", "--format=json"])
            if rc != 0 or Fraction(json.loads(out)["value"]) != alpha(p, q, k, delta):
                problems.append(f"alpha at {p}|{q}, k={k}, delta={delta}")
    for p, q, kmax in sorted({(p, q, kmax) for p, q, kmax, _ in used}):
        rc, out = runner.call(["critical", f"--p={p}", f"--q={q}", f"--kmax={kmax}",
                               "--format=json"])
        got = {Fraction(v) for v in json.loads(out)["values"]} if rc == 0 else None
        if got != critical_set(p, q, kmax):
            problems.append(f"critical at {p}|{q}, kmax={kmax}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "replay"), required=True)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    args = parser.parse_args(argv)

    superquant, cli = import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    runner = Runner(cli, tracer)
    for command in workload.warm_up():
        rc, _out = runner.call(command)
        if rc != 0:
            raise SystemExit(f"warm-up command failed with exit code {rc}: {command}")
    items = workload.round(0)
    first_op = time.monotonic()
    result = {"first_op_monotonic": first_op, "backend": superquant.kernel_backend()}

    if args.mode in ("trace", "replay"):
        for r in range(workload.trace_rounds):
            runner.run_round(items if r == 0 else workload.round(r))
        result.update({"busy_s": sum(runner.latencies), "work": runner.work})
        if tracer:
            result["per_layer"] = tracer.metrics()
            if args.spans:
                tracer.write(args.spans)
    elif args.mode == "run":
        r = 0
        loop_start = time.perf_counter()
        while True:
            runner.run_round(items)
            r += 1
            if sum(runner.latencies) >= args.seconds and len(runner.latencies) >= MIN_OPERATIONS:
                break
            items = workload.round(r)
        loop_s = time.perf_counter() - loop_start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        busy = sum(runner.latencies)
        latencies_ms = sorted(1000 * t for t in runner.latencies)
        result.update({
            "rounds": r,
            "busy_s": busy,
            "loop_s": loop_s,
            "work": runner.work,
            "throughput_per_s": runner.work / busy,
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
            "peak_rss_mb": peak_kb / 1024,
            "problems": untimed_checks(runner, workload, r),
        })
    if args.mode != "setup":
        result.update({"attempted": len(runner.latencies), "failed": runner.failed,
                       "messages": runner.messages})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
