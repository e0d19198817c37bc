"""Self-test of the benchmark harness on tiny configs (a few seconds).

    PYTHONPATH=src python3 perfbench/selftest.py

Checks, for m = 1 at k = 20, m = 2 at k = 6 and one small hexagonal
build:
* the output check passes on a repeat of the same config;
* every wrapped name is the original object again after a traced pass,
  and an untraced pass after a traced one records no span or count;
* the layer self times, ``cli.self_s`` included, add up to the traced
  wall time;
* every metric in BENCHMARK.json is printed with its unit;
* ``run.py`` fails, without printing a result, in a directory holding
  only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run as runner
from tracing import PER_LAYER, SPAN_LAYERS, Tracer, traced_names
from workloads import DensityBuild, M1Run, M2Emit


def _current(target, attr):
    return target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)


def check_workload(workload) -> dict:
    """Untraced, traced, untraced; returns the traced pass's per-layer values."""
    workload.setup()
    originals = {(t, a): _current(t, a) for t, a in traced_names()}
    started = time.perf_counter()
    reference = workload.snapshot(workload.run_pass())
    untraced_wall = time.perf_counter() - started

    tracer = Tracer()
    with tracer.traced_pass(workload.name + "-selftest") as root:
        result = workload.run_pass()
        with tracer.region("bench.check"):
            attempted, failed, notes = workload.check(result, reference)
    assert attempted == workload.operations and failed == 0, notes
    moved = [(t, a) for (t, a), v in originals.items() if _current(t, a) is not v]
    assert not moved, "wrappers left behind: %r" % moved

    seen = (len(tracer.spans), dict(tracer.counts))
    attempted, failed, notes = workload.check(workload.run_pass(), reference)
    assert failed == 0, notes
    assert (len(tracer.spans), dict(tracer.counts)) == seen, "untraced pass was traced"

    layers = tracer.pass_metrics(root, untraced_wall)
    assert set(layers) == {name for name, _, _ in PER_LAYER}
    total = sum(layers[layer + "_s"] for layer in SPAN_LAYERS)
    assert abs(total - layers["trace.wall_s"]) <= 1e-9 * layers["trace.wall_s"], \
        (total, layers["trace.wall_s"])
    assert all(layers[layer + "_s"] >= 0 for layer in SPAN_LAYERS), layers
    return layers


def check_printed(bench: dict, layers: dict):
    fake = {"setup_s": 0.3, "peak_rss_mb": 100.0,
            "passes": [{"wall_s": 1.0, "cpu_s": 1.5, "attempted": 2, "failed": 0,
                        "traced": False},
                       {"wall_s": 1.1, "cpu_s": 1.6, "attempted": 2, "failed": 0,
                        "traced": True, "layers": layers}]}
    for spec, values in ((bench["end_to_end"], runner.end_to_end(fake, [0.3, 0.31])),
                         (bench["per_layer"], runner.per_layer(fake))):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            metrics = runner.report(spec, values, set())
        lines = text.getvalue().splitlines()
        for entry in spec:
            assert metrics[entry["name"]]["unit"] == entry["unit"]
            assert any(line.split()[0] == entry["name"] and line.split()[2] == entry["unit"]
                       for line in lines), entry


def check_bare_directory(scratch: str):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(runner.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(runner.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "m2-emit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    with open(os.path.join(runner.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(e["name"], e["unit"]) for e in bench["per_layer"]]
    assert declared == [(name, unit) for name, unit, _ in PER_LAYER], "per_layer drifted"

    os.makedirs(runner.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=runner.OUT_DIR)
    try:
        # each with a layer value that only its own workload produces
        tiny = [
            (M1Run(0, os.path.join(scratch, "m1"), k=(20,)),
             lambda v: v["cli.bytes_written"] > 0 and v["whitening.neumann_terms"] > 0),
            (M2Emit(0, scratch, k=(6,), mesh=4),
             lambda v: v["certify.sup_dup_frac"] == 0.5 and v["cli.bytes_written"] == 0),
            (DensityBuild(0, scratch, builds=(("hexagonal", 0.2, 1.971, 0.9, ((2000, "<"),)),)),
             lambda v: v["frame.points"] > 0 and v["whitening.gram_s"] == 0),
        ]
        os.makedirs(os.path.join(scratch, "m1"))
        for workload, expected in tiny:
            layers = check_workload(workload)
            assert expected(layers), layers
            print("%s: traced wall %.3f s, %d spans, self times add up"
                  % (workload.name, layers["trace.wall_s"], layers["trace.spans"]))
        check_printed(bench, layers)
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
