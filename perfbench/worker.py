"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints ``ready`` once the inputs are built (run.py times the interval from
process start to that line as set-up), then, unless ``--setup-only``, runs
whole rounds of the workload's operations for about ``--seconds`` seconds,
timing every operation, checks the outputs of the last round and prints
one JSON line.  With ``--trace 1`` the layer tracer is installed for the
rounds and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_rounds(ops, seconds):
    """Whole rounds until the next one would end past ``seconds``; at least one.

    Returns the round times, each operation's time in every round, the
    counts and the outputs of the last round.
    """
    times, op_s, attempted, failed = [], {key: [] for key, _ in ops}, 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs = {}
        for key, op in ops:
            attempted += 1
            t = time.perf_counter()
            try:
                outputs[key] = op()
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
            op_s[key].append(time.perf_counter() - t)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(times) > seconds:
            return times, op_s, attempted, failed, outputs


def layer_metrics(tracer, rounds):
    """Per-round values of the per-layer metrics named in BENCHMARK.json."""
    calls, busy, self_time = tracer.totals()
    distinct, snf_calls, bits = tracer.snf_stats()
    per_round = {}
    for name in ("models.instantiate", "spectral.near_zero", "spectral.eigsh", "spectral.dense_eigh",
                 "cli.slab_h", "cli.eigvalsh", "fgab.snf", "fgab.hnf", "fgab.solve_integer",
                 "ktheory.derive", "ktheory.verify", "ktheory.boundary_map"):
        per_round[f"{name}.calls"] = (calls[name], "count")
        per_round[f"{name}.s"] = (busy[name], "s")
    for name in ("models.sites", "spectral.disentangle", "spectral.weights", "spectral.regions",
                 "ktheory.build"):
        per_round[f"{name}.s"] = (busy[name], "s")
    for name in ("spectral.ritz", "invariants.hinge_flow"):
        per_round[f"{name}.self_s"] = (self_time[name], "s")
    per_round["invariants.crossings"] = (tracer.crossings, "count")
    per_round["invariants.warnings"] = (tracer.warnings, "count")
    metrics = {k: {"value": v / rounds, "unit": u} for k, (v, u) in per_round.items()}
    # every round repeats the same inputs, so one round's distinct set is the run's
    metrics["fgab.snf.distinct_per_call"] = {
        "value": distinct * rounds / snf_calls if snf_calls else 0.0, "unit": "ratio"}
    metrics["fgab.snf.max_bits"] = {"value": bits, "unit": "bits"}
    metrics["models.nnz"] = {"value": tracer.max_nnz, "unit": "count"}
    return dict(sorted(metrics.items()))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    # hotilab comes from the checkout this is run in; this directory is
    # already first on the path, as the directory of the script
    sys.path.insert(1, os.path.join(os.getcwd(), "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workload.operations()
    times, op_s, attempted, failed, outputs = run_rounds(ops, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "round_s": times,
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, len(times))
        if args.spans:
            tracer.dump(args.spans)
    t0 = time.perf_counter()
    # an operation that raised leaves no output to check, so it fails the run
    result["problems"] = [f"no output for {key}" for key, _ in ops if key not in outputs]
    result["problems"] += workload.check(outputs)
    result["check_s"] = time.perf_counter() - t0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
