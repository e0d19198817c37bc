"""The BLAS thread policy: scopes restore what they found, the package's
entry points run on one thread, and a level's count follows its size."""

import numpy as np
import pytest

from flatsections import blas, cli, frame
from flatsections.cli import RunConfig
from flatsections.flatten import load_family
from flatsections.whitening import load_matrix

needs_library = pytest.mark.skipif(blas.library_path() is None,
                                   reason="no OpenBLAS loaded in this process")


def _count() -> int:
    return blas._library()[1]()


@pytest.fixture(params=(1, 2), ids=("caller1", "caller2"))
def caller(request):
    """Set the raw thread count, outside every scope, to 1 or 2; put the
    count found back afterwards."""
    _, get, set_ = blas._library()
    found = get()
    set_(request.param)
    yield request.param
    set_(found)


def _m1_level_inputs(k):
    """The m = 1 lat-lon spec of the m1-run benchmark and its frame at k."""
    cfg = RunConfig(m=1, k=(k,), lattice="cubic", spacing=1.945, eta=0.995,
                    epsilon=0.005, cover={"name": "latlon", "radius": 0.35},
                    delta=1e-9, beta=0.8, seed=0)
    spec, _ = cli.lattice_spec(cfg.validate())
    return cfg, spec, frame.build(spec, k)


@needs_library
def test_scope_restores_on_return_and_exception(caller):
    with blas.threads(3 - caller):
        assert _count() == 3 - caller
    assert _count() == caller
    with pytest.raises(RuntimeError):
        with blas.threads(3 - caller):
            raise RuntimeError("inside")
    assert _count() == caller
    assert blas._caller is None


@needs_library
def test_nested_scopes_restore_in_order(caller):
    with blas.threads(1):
        with blas.threads(2):
            assert _count() == 2
            # the outermost scope keeps the count it found
            assert blas.caller_threads() == caller
            with blas.serial():
                assert _count() == 1
            assert _count() == 2
        assert _count() == 1
    assert _count() == caller


def test_no_library_makes_every_scope_a_no_op(monkeypatch):
    real = blas._library()
    found = real and real[1]()
    monkeypatch.setattr(blas, "_found", blas._UNSET)
    monkeypatch.setattr(blas, "_lookup", lambda: None)
    assert blas.library_path() is None
    assert blas.caller_threads() is None
    assert blas.level_threads(blas.DENSE_MIN_N) is None
    for scope in (blas.threads(3 - (found or 1)), blas.serial(), blas.level(10 ** 6)):
        with scope:
            assert blas._caller is None
            assert (real and real[1]()) == found
    assert blas._found is None  # looked up once


@needs_library
def test_frame_build_is_serial_and_leaves_the_count(caller, monkeypatch):
    _, spec, _ = _m1_level_inputs(200)
    seen = []
    assemble = frame._assemble

    def counted(*args):
        seen.append(_count())
        return assemble(*args)

    monkeypatch.setattr(frame, "_assemble", counted)
    frame.build(spec, 200)
    assert _count() == caller
    with blas.threads(2):
        frame.build(spec, 200)
        assert _count() == 2
    assert seen == [1, 1]
    assert _count() == caller


@needs_library
def test_level_rule_at_the_crossover(caller):
    n = blas.DENSE_MIN_N
    assert blas.level_threads(n - 1) == 1
    assert blas.level_threads(n) == caller
    with blas.serial():
        with blas.level(n - 1):
            assert _count() == 1
        with blas.level(n):
            assert _count() == caller
        assert _count() == 1
    assert _count() == caller


# the stages _pipeline calls by name, and the two that may run threaded
_STAGES = ("nearest_neighbor_distance", "assemble_gram", "dump_matrix", "inv_sqrt_neumann",
           "inv_sqrt_eigen", "flatten_frame", "fk_norm", "certify_family", "dump_family")
_SOLVERS = ("inv_sqrt_neumann", "inv_sqrt_eigen")


def _stage_threads(cfg, spec, k, dump_dir):
    """Run the level at k through cli._run_level; the BLAS thread counts
    each stage of _STAGES saw, one per call, by stage name."""
    seen = {name: [] for name in _STAGES}

    def counted(name, stage):
        def wrapper(*args, **kwargs):
            seen[name].append(_count())
            return stage(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in _STAGES:
            patch.setattr(cli, name, counted(name, getattr(cli, name)))
        cli._run_level(cfg, spec, k, str(dump_dir))
    return seen


@needs_library
def test_run_level_scopes(caller, monkeypatch, tmp_path):
    # the pipeline runs on one thread: below DENSE_MIN_N every stage does,
    # and from DENSE_MIN_N on only the two whitening solvers see the
    # caller's count
    cfg, spec, built = _m1_level_inputs(200)
    assert built.n < blas.DENSE_MIN_N
    small = _stage_threads(cfg, spec, 200, tmp_path)
    assert small == {name: [1, 1] if name == "dump_matrix" else [1] for name in _STAGES}
    assert _count() == caller
    monkeypatch.setattr(blas, "DENSE_MIN_N", built.n)
    dense = _stage_threads(cfg, spec, 200, tmp_path)
    assert {name: dense[name] for name in _SOLVERS} == {name: [caller] for name in _SOLVERS}
    assert _count() == caller


@needs_library
def test_small_stages_stay_serial_in_a_large_level(caller, monkeypatch, tmp_path):
    # nn, Gram, the mixing, F_k, the certificate and the dumps run on one
    # thread even where the solvers run on the caller's count
    cfg, spec, built = _m1_level_inputs(200)
    monkeypatch.setattr(blas, "DENSE_MIN_N", built.n)
    seen = _stage_threads(cfg, spec, 200, tmp_path)
    assert seen == {name: [caller] if name in _SOLVERS
                    else [1, 1] if name == "dump_matrix" else [1] for name in _STAGES}
    assert _count() == caller


@needs_library
def test_level_output_does_not_depend_on_the_thread_count(caller, monkeypatch, tmp_path):
    # the k = 200 level with its whitening solvers on the caller's count,
    # against the same level all on one thread: the whitening entries and
    # the family are bit for bit the same; b_agree and ortho_dev may move
    # by rounding
    cfg, spec, built = _m1_level_inputs(200)
    seen = []
    neumann = cli.inv_sqrt_neumann

    def counted(*args, **kwargs):
        seen.append(_count())
        return neumann(*args, **kwargs)

    monkeypatch.setattr(cli, "inv_sqrt_neumann", counted)
    levels = []
    for threshold, name in ((blas.DENSE_MIN_N, "serial"), (built.n, "dense")):
        monkeypatch.setattr(blas, "DENSE_MIN_N", threshold)
        (tmp_path / name).mkdir()
        levels.append(cli._pipeline(cfg, spec, built, str(tmp_path / name)))
    assert seen == [1, caller]
    serial, dense = (load_matrix(str(tmp_path / c / "whitening-k200.bin"))[2]
                     for c in ("serial", "dense"))
    assert np.array_equal(serial, dense)
    fams = [load_family(str(tmp_path / c / "family-k200.bin")).ortho for c in ("serial", "dense")]
    assert np.array_equal(*fams)
    assert np.array_equal(levels[0].fam.ortho, levels[1].fam.ortho)
    rows = [{k: v for k, v in level.row.items() if k not in ("b_agree", "ortho_dev")}
            for level in levels]
    assert rows[0] == rows[1]
    for key in ("b_agree", "ortho_dev"):
        assert levels[0].row[key] == pytest.approx(levels[1].row[key], abs=1e-15)
