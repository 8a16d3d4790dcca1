"""Runs one workload in a fresh interpreter and prints its measurements as one
JSON line.  run.py starts it; by hand:

    python3 perfbench/worker.py --workload theta_q --seed 1 --seconds 20 --trace 0

It runs the preflight op, then timed passes over the workload's jobs until
the next pass would end after --seconds.  With --trace 1 it first runs one
untraced reference pass, then traced passes, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Module objects, looked up in sys.modules: the package binds the functions
# `theta` and `brandt` over the names of their submodules.
cli, fields, orders, quaternions = (
    importlib.import_module(f"quatheta.{name}") for name in ("cli", "fields", "orders", "quaternions")
)

from gate import Gate  # noqa: E402
from tracing import Tracer, layer_metrics, median_metrics, stage_disagreements, write_spans  # noqa: E402
from workloads import PREFLIGHT, WORKLOADS, jobs  # noqa: E402

SPANS_DIR = ROOT / ".perfbench_out"


def execute(job):
    """One op through the public API.  Attributes are looked up at call time,
    so the tracer's wrappers are used when installed."""
    if job.kind == "classes":
        fld = fields.field(job.d)
        order = orders.standard_order(quaternions.construct(fld, job.p))
        return orders.ideal_classes(order)
    cfg = cli.RunConfig(d=job.d, p=job.p, bound=job.bound, workers=job.workers, use_cache=False)
    return cli.run(cfg)


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest peak RSS of any of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Runner:
    """Runs ops, times passes and counts ops that raise or fail the gate."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.ops: dict[int, str] = {}

    def run_pass(self, todo) -> dict:
        """Times the jobs as one pass, then checks every output outside the timing."""
        outputs = []
        cpu0 = cpu_seconds()
        wall0 = time.perf_counter()
        for job in todo:
            op = self.attempted
            self.attempted += 1
            self.ops[op] = f"{job.key}:workers={job.workers}"
            if self.tracer is not None:
                self.tracer.op = op
            try:
                outputs.append((job, execute(job), None))
            except Exception:  # an op that raises is counted as failed; the run goes on
                outputs.append((job, None, traceback.format_exc()))
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
        reports = []
        for job, out, error in outputs:
            problems = [f"raised:\n{error}"] if error else self.gate.check(job, out)
            if problems:
                self.failed += 1
                print(f"op {job.key} workers={job.workers} failed: {'; '.join(problems)}", file=sys.stderr)
            elif job.kind == "run":
                reports.append(out)
        return {"wall_s": wall, "cpu_s": cpu, "reports": reports}

    def passes(self, todo, seconds: float, started: float) -> list[dict]:
        """Passes until the next one would end after `seconds` since `started`; at least one."""
        done = []
        while True:
            if self.tracer is not None:
                self.tracer.clear()
            result = self.run_pass(todo)
            if self.tracer is not None:
                result["spans"] = list(self.tracer.spans)
                result["counts"] = self.tracer.counts.copy()
            done.append(result)
            typical = statistics.median(p["wall_s"] for p in done)
            if time.perf_counter() - started + typical > seconds:
                return done


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gate = Gate.load(ROOT)
    todo = jobs(workload, seed)
    runner = Runner(gate)
    runner.run_pass([PREFLIGHT])
    started = time.perf_counter()
    if not trace:
        passes = runner.passes(todo, seconds, started)
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        problems = []
    else:
        reference = runner.run_pass(todo)["wall_s"]
        with Tracer() as tracer:
            runner.tracer = tracer
            passes = runner.passes(todo, seconds, started)
            names = set(tracer.names)
        runner.tracer = None
        per_pass, problems = [], []
        for p in passes:
            overhead = p["wall_s"] - reference
            m = layer_metrics(names, p["spans"], p["counts"], p["reports"])
            m["trace.overhead_s"] = (overhead, "s")
            per_pass.append(m)
            problems += stage_disagreements(p["spans"], p["reports"], 0.05 + abs(overhead))
        metrics = median_metrics(per_pass)
        spans = []
        for p in passes:  # parent indices are per pass; shift them into one list
            base = len(spans)
            spans += [(n, t0, t1, parent + base if parent >= 0 else -1, op) for n, t0, t1, parent, op in p["spans"]]
        write_spans(SPANS_DIR / f"spans-{workload}.jsonl", spans, runner.ops)
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "passes": len(passes),
        "trace_problems": problems,
        "sympy": sys.modules["sympy"].__version__,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
