"""Benchmark of the certified-basis pipeline.

    python3 perfbench/run.py --workload m1-run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Workloads, metric names and
units come from ``BENCHMARK.json``.  The BLAS thread count is pinned to
the number of usable processors before any process imports numpy.  Every
sample of a run starts a fresh process:

* set-up probes, each timing interpreter start, ``import flatsections``,
  config validation and lattice/chart construction, so ``setup_s`` is
  the median of several processes;
* one worker that sets up the workload the same way and then runs passes
  in a closed loop for ``--seconds`` (at least one pass), checking every
  pass against the recorded reference values.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over passes); with ``--trace 1`` the worker alternates untraced and
traced passes and the last line reports the per-layer metrics of the
traced ones, including the trace overhead.  Output files go to
``.perfbench_run/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole run, every child included


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(usable_cpus())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = threads
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn_worker(args, started: float, *extra) -> dict:
    """Run one worker process to completion; returns its JSON line."""
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise RuntimeError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=left)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over the package sources, standing in for a commit id in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "flatsections")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(main: dict, setups: list) -> dict:
    passes = [p for p in main["passes"] if p["wall_s"] is not None]
    attempted = sum(p["attempted"] for p in main["passes"])
    failed = sum(p["failed"] for p in main["passes"])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes) if passes else None,
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes) if passes else None,
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(main: dict) -> dict:
    traced = [p["layers"] for p in main["passes"] if "layers" in p]
    if not traced:
        return {}
    return {name: statistics.median(t[name] for t in traced) for name in traced[0]}


def report(spec: list, values: dict, computed: set) -> dict:
    """Print one line per metric and return the result's metrics object."""
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name)
        if value is None:
            raise RuntimeError("metric %s was not measured" % name)
        tag = "  (computed from array sizes)" if name in computed else ""
        print("%-32s %16.6g %s%s" % (name, value, unit, tag))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    started = time.monotonic()
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "flatsections", "__init__.py")):
        print("no flatsections sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    # set-up probes on both sides of the worker, so that one slow moment of
    # the machine does not set every sample
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [spawn_worker(args, started, "--setup-only")["setup_s"]
                  for _ in range(probes // 2)]
        main_run = spawn_worker(args, started)
        setups += [spawn_worker(args, started, "--setup-only")["setup_s"]
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    setups.append(main_run["setup_s"])

    env = dict(main_run["env"], git_commit=git_commit(), source_sha256=source_digest())
    print("env: " + json.dumps(env, sort_keys=True))
    passes = main_run["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for i, p in enumerate(passes):
        print("pass %d%s: wall %s s, %d/%d operations failed%s"
              % (i, " (traced)" if p["traced"] else "", p["wall_s"], p["failed"],
                 p["attempted"], "".join("\n  " + n for n in p["notes"])))
    print("samples: %d passes, %d set-up processes" % (len(passes), len(setups)))

    if args.trace:
        from tracing import PER_LAYER

        computed = {name for name, _, flag in PER_LAYER if flag}
        values, spec = per_layer(main_run), bench["per_layer"]
    else:
        computed = set()
        values, spec = end_to_end(main_run, setups), bench["end_to_end"]
    try:
        metrics = report(spec, values, computed)
    except RuntimeError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, env=env, passes=passes, setup_samples=setups), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
