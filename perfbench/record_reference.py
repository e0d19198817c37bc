"""Record the reference outputs that every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

Runs one pass of each named workload (all by default) at seed 0 and
writes ``perfbench/reference/<workload>.json``.  Re-record only when a
change is meant to alter the outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from workloads import REFERENCE_DIR, WORKLOADS


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        out_dir = tempfile.mkdtemp(prefix="perfbench-ref-", dir=os.getcwd())
        try:
            workload = WORKLOADS[name](0, out_dir)
            workload.setup()
            snapshot = workload.snapshot(workload.run_pass())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        path = os.path.join(REFERENCE_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
