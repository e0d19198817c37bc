"""One fresh benchmark process: set up a workload, then run timed passes.

Started by ``run.py`` with the BLAS thread count already pinned in the
environment and ``src`` on ``PYTHONPATH``.  Prints one JSON line: the
set-up time measured from the moment the parent spawned this process, and
one record per pass (wall and CPU time, operations attempted and failed,
and per-layer values for traced passes).

    python3 perfbench/worker.py --workload m2-emit --seed 1 --seconds 30 \
        --trace 0 --spawned-at <time.monotonic() of the parent> --out-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # imported here so that set-up is timed as a user sees it: interpreter
    # start, package import, config and charts
    from tracing import Tracer
    from workloads import WORKLOADS, load_reference

    run_dir = os.path.join(args.out_dir, "%s-%d" % (args.workload, os.getpid()))
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = load_reference(args.workload)
    tracer = Tracer()
    os.makedirs(run_dir, exist_ok=True)
    try:
        passes, peak_rss_mb = run_passes(workload, reference, tracer, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        path = os.path.join(args.out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(workload, args.seed),
    }))
    return 0


def run_passes(workload, reference, tracer, args) -> list:
    """Closed loop, one pass at a time, until the next pass would overrun
    ``--seconds``; at least one pass, and with tracing one untraced pass
    followed by traced ones, alternating.  A pass that raises ends the loop.

    Returns the pass records and the peak resident memory, in MB, after the
    first pass: a fresh process running the workload once, as a user would.
    """
    passes, roots, peak_rss_mb = [], {}, None
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        run_id = "%s-seed%d-pass%d" % (workload.name, args.seed, len(passes))
        record = {"traced": traced}
        scope = tracer.traced_pass(run_id) if traced else contextlib.nullcontext()
        try:
            with scope as root:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                result = workload.run_pass()
                check = tracer.region("bench.check") if traced else contextlib.nullcontext()
                with check:
                    attempted, failed, notes = workload.check(result, reference)
                record["wall_s"] = time.perf_counter() - wall0
                record["cpu_s"] = time.process_time() - cpu0
            del result  # keep one pass's outputs alive at a time
        except Exception:  # a failed pass is a measured outcome, not a crash
            traceback.print_exc()
            attempted = failed = workload.operations
            notes = ["pass raised"]
            record.update(wall_s=None, cpu_s=None)
        record.update(attempted=attempted, failed=failed, notes=notes[:20])
        if traced:
            roots[len(passes)] = root
        passes.append(record)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if record["wall_s"] is None:
            break
        walls = [p["wall_s"] for p in passes]
        elapsed = time.perf_counter() - started
        need_both = args.trace and len(passes) < 2
        if not need_both and elapsed + statistics.median(walls) > args.seconds:
            break
    untraced = [p["wall_s"] for p in passes if not p["traced"] and p["wall_s"] is not None]
    base = statistics.median(untraced) if untraced else None
    for index, root in roots.items():
        if passes[index]["wall_s"] is not None:
            passes[index]["layers"] = tracer.pass_metrics(root, base)
    return passes, peak_rss_mb


def environment(workload, seed: int) -> dict:
    """What the numbers depend on besides the code."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "workload": workload.name,
        "params": workload.params(),
    }


if __name__ == "__main__":
    sys.exit(main())
