"""The package's BLAS thread policy.

Most of the pipeline is small work: lattice points, the cross-chart
dedup, the mixing, one sup-norm search per section.  Each small product
handed to a threaded OpenBLAS wakes its worker threads, which then spin,
so CPU time doubles for no gain in wall time.  Only the two dense n x n
whitening solvers of a large level (the series and eigh, with n >=
DENSE_MIN_N frame points) gain from more threads.  So the package's
entry points and each level run on one thread, and a large level's
whitening solvers run on the caller's count (cli._pipeline): the count
in effect when the outermost scope of the package was entered, which
OPENBLAS_NUM_THREADS or the caller's own limit sets.

The OpenBLAS that numpy loaded is found among the files mapped into the
process, on first use.  Where there is none (another BLAS, another
platform), every scope does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes

# the whitening solvers of a level with at least this many frame points
# run on the caller's BLAS threads.  Measured on m = 1 lat-lon levels, the
# series plus eigh, two threads against one (medians of warm calls, two
# rounds on a noisy 2-core host): at n = 45 to 98 two save no wall time
# and burn twice the CPU; at n = 131 to 228 they save 0 to 30% of it,
# varying from round to round; from n = 293 on 20 to 40% (n = 511)
DENSE_MIN_N = 150

# (getter, setter) symbol names: scipy-openblas' 64-bit build, then a plain one
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# the thread count is a property of the process, so the scopes' state is
# too; scopes opened from several Python threads at once may restore out
# of order
_UNSET = object()
_found = _UNSET  # (path, get, set) of the loaded OpenBLAS, or None
_caller = None  # the count found by the outermost open scope


def _lookup():
    """(path, get, set) of the first mapped OpenBLAS that exports a symbol
    pair of _SYMBOLS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return path, get, set_
    return None


def _library():
    global _found
    if _found is _UNSET:
        _found = _lookup()
    return _found


def library_path() -> str | None:
    """Path of the OpenBLAS whose thread count the scopes set, or None."""
    lib = _library()
    return None if lib is None else lib[0]


@contextlib.contextmanager
def threads(count: int):
    """Run the block on count BLAS threads; the count found is restored on
    leaving, by return or by exception.  Also a function decorator."""
    global _caller
    lib = _library()
    if lib is None:
        yield
        return
    _, get, set_ = lib
    found = get()
    outermost = _caller is None
    if outermost:
        _caller = found
    set_(count)
    try:
        yield
    finally:
        set_(found)
        if outermost:
            _caller = None


def caller_threads() -> int | None:
    """The caller's count: the one the outermost open scope found, or the
    current one outside every scope; None without a library."""
    lib = _library()
    if lib is None:
        return None
    return _caller if _caller is not None else lib[1]()


def level_threads(n: int) -> int | None:
    """BLAS threads of the whitening solvers of a level with n frame
    points."""
    caller = caller_threads()
    if caller is None:
        return None
    return caller if n >= DENSE_MIN_N else 1


def level(n: int):
    """Scope of the whitening solvers of a level with n frame points."""
    return threads(level_threads(n))


def serial():
    """Scope of a package entry point: one BLAS thread."""
    return threads(1)
