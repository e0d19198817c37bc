"""The benchmark's output check still passes on the package.

perfbench/workloads.py checks every pass against a recorded reference
through compare_levels, which maps the report's drift entries to failed
levels by their ``where`` labels.  A change to the report's format would
make every benchmark pass fail (or none), and so would a changed
``emit_polys`` result or a written file of another size; these tests
catch both first.
"""

import copy
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))  # for workloads' own `from tracing import`
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("name", ["m1-run", "m2-emit"])
def test_compare_levels_on_recorded_reference(workloads, name):
    ref = workloads.load_reference(name)["core"]
    levels = tuple(ref["config"]["k"])
    assert workloads.compare_levels(ref, ref, levels) == (set(), [])

    drifted = copy.deepcopy(ref)
    drifted["rows"][1]["eta_hat"] *= 1 + 1e-3
    assert workloads.compare_levels(ref, drifted, levels)[0] == {levels[1]}

    moved = copy.deepcopy(ref)
    moved["spec"]["spacing"] *= 1 + 1e-3
    assert workloads.compare_levels(ref, moved, levels)[0] == set(levels)


# (operations, failed, notes) of a clean pass: one operation per level,
# or per frame build on density-build
CLEAN_CHECK = {"m1-run": (2, 0, []), "m2-emit": (2, 0, []), "density-build": (4, 0, [])}


@pytest.mark.parametrize("name", list(CLEAN_CHECK))
def test_one_pass_checks_clean(workloads, name, tmp_path):
    # one fresh pass at seed 0 through the workload's own run_pass and
    # check: none of its operations may fail
    workload = workloads.WORKLOADS[name](0, str(tmp_path / "out"))
    workload.setup()
    result = workload.run_pass()
    assert workload.check(result, workloads.load_reference(name)) == CLEAN_CHECK[name]
