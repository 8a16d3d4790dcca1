"""quatheta benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Measures set-up time in fresh
interpreters, then runs the workload in one more (worker.py).  Prints the
environment as one JSON line, then the result as the last line:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics when it is 1.  Both lines are
also written to .perfbench_out/.  Exits 2, printing no result, when the
checkout holds no quatheta sources or golden report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 175
REQUIRED = (Path("src/quatheta/__init__.py"), Path("tests/golden/q11_b12.json"))


def setup_seconds(env: dict) -> float:
    """Median wall time to start an interpreter and import quatheta.  The
    median also drops the one slow start that writes bytecode caches."""
    cmd = [sys.executable, "-c", "import quatheta"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quatheta").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="quatheta benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a quatheta checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    setup = None if args.trace else setup_seconds(env)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        print("perfbench: the workload did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    measured = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = measured["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    for problem in measured["trace_problems"]:
        print(f"perfbench: trace disagrees with the reports: {problem}", file=sys.stderr)
    result = {
        "correct": measured["failed"] == 0 and not measured["trace_problems"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": measured["passes"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "sympy": measured["sympy"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": environment, "result": result}, indent=1))
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
