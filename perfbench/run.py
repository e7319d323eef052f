"""Benchmark entry point for hotilab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory that holds
``src/hotilab``).  Every workload runs in fresh interpreters started from
here, with BLAS pinned to one thread.  With ``--trace 0`` it prints the
end-to-end metrics (``setup_s``, ``run_s``, ``peak_rss_mb``); with
``--trace 1`` it prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a copy is written under
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire-hinge-flow", "cube-hinge-modes", "slab-gap-scan", "kss-pages")
# set-up-only interpreters timed before and after the measured one, so that
# the set-up samples span the whole run rather than one moment of it
SETUP_BEFORE, SETUP_AFTER = 3, 3
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args, deadline, extra=()):
    """Start worker.py; return (process, seconds from start to its ``ready`` line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    # a worker stuck before ``ready`` is stopped at the deadline too
    proc.watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    proc.watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not reach ready inputs (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for the worker within the deadline; return its last output line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the deadline and was stopped")
    finally:
        proc.watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def setup_samples(args, deadline, count):
    """Set-up times of ``count`` interpreters that only build the inputs."""
    times = []
    for _ in range(count):
        proc, ready = start_worker(args, deadline, ["--setup-only"])
        finish(proc, deadline)
        times.append(ready)
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "hotilab", "__init__.py")):
        print("perfbench: run from the root of a hotilab checkout (src/hotilab not found)",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # a traced run reports no set-up time, so it needs no set-up samples
    before, after = (0, 0) if args.trace else (SETUP_BEFORE, SETUP_AFTER)
    try:
        setups = setup_samples(args, deadline, before)
        spans = ["--spans", os.path.join(out_dir, f"{tag}-spans.json")] if args.trace else []
        proc, ready = start_worker(args, deadline, spans)
        setups.append(ready)
        result = json.loads(finish(proc, deadline))
        setups += setup_samples(args, deadline, after)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    # one round, each operation taken at its median over the run's rounds
    run_s = sum(statistics.median(t) for t in result["op_s"].values())
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['round_s'])} rounds, run_s {run_s:.4f} s, checks {result['check_s']:.1f} s",
          file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    line = json.dumps(summary)
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump({**summary, "rounds": result["round_s"], "op_s": result["op_s"],
                   "setup_samples": setups}, fh, indent=1)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
