"""The command line's error contract as a property (after Claessen and
Hughes, "QuickCheck", ICFP 2000): whatever config or manifest it is given,
flatsections ends with exit code 0, 1 or 2 and at most one line on
stderr, and no exception gets past main's ERROR_PREFIXES.

The configs are drawn over every RunConfig field, with non-finite,
oversized and wrongly typed values among them, and go through main as a
--config file.  k and mesh stay small, so a config that is accepted runs
in well under a second.  The drawing is derandomized, so every run tries
the same examples.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatsections import cli

CONTRACT = settings(derandomize=True, database=None, deadline=timedelta(seconds=10),
                    max_examples=25)

# values no field means: non-finite, past the float range, of another type
ODD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e300,
                       10 ** 400, 2 ** 53 + 1, True, "x", None, [], {}, [10 ** 400]])

# values a run reads, each field on its own in range; together they can
# still be refused (a cube chart too wide for m = 2, say)
SANE = st.fixed_dictionaries({
    "k": st.lists(st.integers(1, 16), min_size=1, max_size=2),
    "mesh": st.integers(4, 8),
}, optional={
    "m": st.integers(1, 3),
    "lattice": st.sampled_from(["cubic", "hex", "hexagonal", "square"]),
    "eta": st.floats(0.05, 0.99),
    "spacing": st.one_of(st.none(), st.floats(1.5, 4.0)),
    "t": st.one_of(st.none(), st.floats(0.1, 0.6)),
    "cover": st.one_of(st.none(), st.fixed_dictionaries(
        {"name": st.sampled_from(["latlon", "two-cap", "balls", "ring"])},
        optional={"radius": st.floats(0.1, 0.9), "extra": st.just(1)})),
    "delta": st.one_of(st.none(), st.floats(0.0, 1.0)),
    "epsilon": st.floats(0.0, 0.5),
    "beta": st.one_of(st.none(), st.floats(0.1, 0.99)),
    "rounds": st.integers(1, 3),
    "neumann_tol": st.sampled_from([1e-10, 1e-3]),
    "ortho_tol": st.sampled_from([1e-8, 1e-3]),
    "drift_tol": st.sampled_from([1e-6, 1.0]),
    "seed": st.integers(0, 2 ** 64),
    "mode": st.sampled_from(cli.MODES),
    "constants_max_m": st.integers(1, 3),
    "out": st.sampled_from([None, "OUT"]),
    "dumps": st.booleans(),
})


@st.composite
def configs(draw):
    """A SANE config, about half the time with one field, or an unknown
    key, set to an ODD value."""
    config = draw(SANE)
    bad = draw(st.one_of(st.none(), st.sampled_from(
        ["colour", *(f.name for f in fields(cli.RunConfig))])))
    if bad is not None:
        config[bad] = draw(ODD)
    return config


def _main(argv) -> tuple:
    """main(argv) with its streams captured: (exit code, stderr lines).
    A warning would reach the user's stderr too, so each counts as a line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    return code, lines


def _assert_contract(code, lines):
    assert code in (0, 1, 2)
    assert len(lines) <= 1, lines
    if lines:
        assert code == 1
        assert lines[0].split(":")[0] in set(cli.ERROR_PREFIXES.values()), lines


@CONTRACT
@given(cmd=st.sampled_from(["run", "emit-polys", "kernel-check"]), config=configs())
# a coarse spacing bound of a vanishing (1+eta)^{1/2m} - 1: chosen, and checked
@example(cmd="run", config={"m": 1, "k": [4], "eta": 1e-300, "spacing": None})
@example(cmd="run", config={"m": 1, "k": [22], "eta": 1e-300, "spacing": 2.7, "t": 0.5})
# an integer past the float range in a float field
@example(cmd="run", config={"k": [4], "mesh": 4, "eta": 10 ** 400})
def test_every_config_ends_in_an_exit_code(cmd, config):
    with tempfile.TemporaryDirectory() as tmp:
        if config.get("out") == "OUT":
            config = dict(config, out=os.path.join(tmp, "out"))
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        _assert_contract(*_main([cmd, "--config", path]))


@CONTRACT
@given(max_m=st.integers(-2, 14), out=st.booleans())
def test_constants_ends_in_an_exit_code(max_m, out):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["constants", "--max-m", str(max_m)] + (["--out", tmp] if out else [])
        _assert_contract(*_main(argv))


# fixed strings rather than st.text, whose character tables take a second to build
TEXT = st.sampled_from(["", "x", "k=1", "\n", "\u00e9"])
LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), TEXT,
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from([10 ** 400, -10 ** 400, 2 ** 63]))
JSON = st.recursive(LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8)
ROW = st.dictionaries(st.sampled_from(["k", "m", "n_k", "max_sup", "status"]), JSON, max_size=4)
CORE = st.fixed_dictionaries({}, optional={
    "mode": st.one_of(st.sampled_from(["full", "kernel-check"]), JSON),
    "config": st.one_of(st.dictionaries(st.sampled_from(["m", "k", "seed", "eta"]), LEAF,
                                        max_size=3), JSON),
    "rows": st.one_of(st.lists(ROW, max_size=3), JSON),
    "spec": JSON,
    "invariants": JSON,
})
MANIFEST = st.one_of(st.fixed_dictionaries({"core": CORE}), JSON)
# what a reader can find on disk: a manifest, or bytes that are none
FILE = st.one_of(MANIFEST.map(lambda v: json.dumps(v).encode()),
                 st.sampled_from([b"", b"{", b"\xff\xfe", b"[1, 2", b"null"]))


@st.composite
def _manifest_pairs(draw):
    """Two manifest files, the second often the first with some leaves
    replaced, so that the walk reaches the field comparisons."""
    first = draw(FILE)
    if draw(st.booleans()):
        return first, draw(FILE)
    try:
        value = json.loads(first)
    except ValueError:
        return first, first

    def vary(v):
        if isinstance(v, dict):
            return {key: vary(item) for key, item in v.items()}
        if isinstance(v, list):
            return [vary(item) for item in v]
        return draw(LEAF) if draw(st.booleans()) else v

    return first, json.dumps(vary(value)).encode()


_HUGE = [json.dumps({"core": {"mode": "full", "config": {}, "rows": [{"k": v}]}}).encode()
         for v in (10 ** 400, 1)]


@CONTRACT
@given(files=_manifest_pairs(),
       tol=st.sampled_from(["1e-6", "nan", "inf", "0", "-1", "1e-300", "1e300"]))
# a field past the float range against a number: no relative gap exists
@example(files=tuple(_HUGE), tol="1e-6")
@example(files=tuple(_HUGE[::-1]), tol="1e-6")
def test_compare_ends_in_an_exit_code(files, tol):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.json", "b.json")]
        for path, data in zip(paths, files):
            with open(path, "wb") as fh:
                fh.write(data)
        _assert_contract(*_main(["compare", *paths, "--tol", tol]))
