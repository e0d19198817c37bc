"""Every name the benchmark's tracer rebinds exists on the package.

perfbench/tracing.py wraps package functions by (module or class,
attribute) for the length of a traced pass.  A refactor that renames or
drops one of them breaks the traced benchmark run; this test catches it
first.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    names = _tracing().traced_names()
    assert names
    for target, attr in names:
        if isinstance(target, type):
            found = target.__dict__.get(attr)
        else:
            found = getattr(target, attr, None)
        assert callable(found), "%s.%s does not resolve" % (target.__name__, attr)


def test_traced_level_counts_each_sup_once():
    # a hook that reads a removed field, or a sup_norm call that bypasses
    # the module-global name the tracer rebinds, shows here
    from flatsections import cli

    cfg = cli.RunConfig(m=2, k=(20,), spacing=2.4, eta=0.9,
                        cover={"name": "balls", "radius": 0.4}, mesh=6).validate()
    spec = cli.lattice_spec(cfg)[0]
    tracer = _tracing().Tracer()
    with tracer.traced_pass(0) as root:
        level = cli._run_level(cfg, spec, 20)
    counts = tracer.pass_metrics(root, None)
    n = level.row["n_k"]
    assert n > 1
    assert counts["certify.sup_calls"] == n
    assert counts["certify.sup_dups"] == 0
    assert counts["kernel.coherent_state_calls"] == n
    assert counts["kernel.evaluate_points"] > 0
    sups = level.cert.sup_estimates
    assert counts["certify.sup_evals"] == sum(e.evaluations for e in sups)
    assert counts["certify.sup_rounds"] == sum(e.rounds_used for e in sups)


def test_traced_m1_level_counts_each_sup_once():
    # the m = 1 twin: round 1 reads the family's shared first level, and
    # sup_norm is still called once per section through the traced name
    from flatsections import cli

    cfg = cli.RunConfig(m=1, k=(200,), spacing=1.945, eta=0.995, epsilon=0.005,
                        cover={"name": "latlon", "radius": 0.35}, delta=1e-9).validate()
    spec = cli.lattice_spec(cfg)[0]
    tracer = _tracing().Tracer()
    with tracer.traced_pass(0) as root:
        level = cli._run_level(cfg, spec, 200)
    counts = tracer.pass_metrics(root, None)
    n = level.row["n_k"]
    assert n > 1
    assert counts["certify.sup_calls"] == n
    assert counts["certify.sup_dups"] == 0
    assert counts["kernel.coherent_state_calls"] == n
    assert counts["kernel.evaluate_points"] > 0
    sups = level.cert.sup_estimates
    assert counts["certify.sup_evals"] == sum(e.evaluations for e in sups)
    assert counts["certify.sup_rounds"] == sum(e.rounds_used for e in sups)
