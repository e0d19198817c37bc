"""Spans and counters around the package's public functions.

Nothing in the package is edited.  Each traced function is rebound, for
the length of one pass, in the module namespace where its caller looks it
up: ``cli.build`` is the name ``_run_level`` calls, ``flatten.whiten`` the
one ``flatten_frame`` calls, ``certify.sup_norm`` the one
``certify_family`` and ``emit_polynomials`` call.  Leaving the pass puts
every original object back.

A span is (name, start, end, parent, run id).  Spans stay in memory until
the run ends.  A layer's self time is the length of its spans minus the
part covered by their child spans, so the self times of all layers plus
the pass's own self time (``cli.self_s``) add up to the traced wall time.
Functions called hundreds of thousands of times per pass
(``kernel.multi_indices``) get a counter and no span.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time
from collections import Counter

ROOT_SPAN = "cli.self"

# layers whose self time is reported; bench.check is the output check
# that the benchmark runs inside the timed pass
SPAN_LAYERS = (
    "frame.build", "frame.nn", "geometry.cover", "geometry.distortion",
    "constants.theta", "cli.lattice_spec", "whitening.gram",
    "whitening.neumann", "whitening.eigen", "whitening.whiten",
    "kernel.coherent_state", "kernel.evaluate", "flatten.flatten",
    "flatten.mix", "flatten.fk", "certify.certify", "certify.emit",
    "certify.eigen", "certify.sup", "cli.write", "bench.check", ROOT_SPAN,
)

# every per-layer metric: (name, unit, computed from array sizes)
PER_LAYER = tuple((layer + "_s", "s", False) for layer in SPAN_LAYERS) + (
    ("frame.points_per_s", "1/s", False),
    ("frame.points", "count", False),
    ("frame.dropped", "count", False),
    ("frame.keep_ratio", "ratio", False),
    ("whitening.gram_entries", "count", True),
    ("whitening.neumann_terms", "count", False),
    ("whitening.neumann_gflop", "GFLOP", True),
    ("whitening.neumann_gflops", "GFLOP/s", True),
    ("kernel.coherent_state_calls", "count", False),
    ("kernel.multi_indices_calls", "count", False),
    ("kernel.evaluate_points", "count", False),
    ("kernel.monomial_terms", "count", True),
    ("kernel.terms_per_s", "1/s", True),
    ("flatten.fk_points", "count", False),
    ("flatten.fk_kernel_terms", "count", True),
    ("certify.sup_calls", "count", False),
    ("certify.sup_dups", "count", False),
    ("certify.sup_dup_frac", "ratio", False),
    ("certify.sup_evals", "count", False),
    ("certify.sup_rounds", "count", False),
    ("cli.bytes_written", "B", False),
    ("trace.wall_s", "s", False),
    ("trace.untraced_wall_s", "s", False),
    ("trace.overhead_s", "s", False),
    ("trace.spans", "count", False),
)


# hooks run after the wrapped call returns, with the tracer, the call's
# arguments and its result


def _frame_hook(tracer, args, kwargs, frame):
    tracer.counts["frame.points"] += frame.n
    tracer.counts["frame.dropped"] += frame.dropped


def _gram_hook(tracer, args, kwargs, gram):
    tracer.counts["whitening.gram_entries"] += gram.n * gram.n


def _neumann_hook(tracer, args, kwargs, op):
    tracer.counts["whitening.neumann_terms"] += op.series_terms
    # one complex n x n product per series term: 8 n^3 real flops
    tracer.counts["whitening.neumann_gflop"] += op.series_terms * 8.0 * op.n ** 3 / 1e9


def _evaluate_hook(tracer, args, kwargs, values):
    section = args[0]
    tracer.counts["kernel.evaluate_points"] += values.shape[0]
    tracer.counts["kernel.monomial_terms"] += values.shape[0] * section.ortho_coeffs.shape[0]


def _sup_hook(tracer, args, kwargs, est):
    section = args[0]
    digest = hashlib.blake2b(section.ortho_coeffs.tobytes()).digest()
    key = (section.m, section.k, digest)
    tracer.counts["certify.sup_calls"] += 1
    tracer.counts["certify.sup_dups"] += key in tracer.sup_keys
    tracer.sup_keys.add(key)
    tracer.counts["certify.sup_evals"] += est.evaluations
    tracer.counts["certify.sup_rounds"] += est.rounds_used


def _write_paths_hook(tracer, args, kwargs, paths):
    tracer.counts["cli.bytes_written"] += sum(os.path.getsize(p) for p in paths)


def _write_file_hook(tracer, args, kwargs, result):
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _multi_indices_hook(tracer, args, kwargs, result):
    tracer.counts["kernel.multi_indices_calls"] += 1


def _frame_sum_hook(tracer, args, kwargs, values):
    frame = args[0]
    tracer.counts["flatten.fk_points"] += values.shape[0]
    tracer.counts["flatten.fk_kernel_terms"] += values.shape[0] * frame.n


# (module, attribute, span name, result hook)
SPANS = (
    ("cli", "lattice_spec", "cli.lattice_spec", None),
    ("cli", "cp1_latlon_cover", "geometry.cover", None),
    ("cli", "cp2_ball_cover", "geometry.cover", None),
    ("cli", "two_cap_cover", "geometry.cover", None),
    ("cli", "covering_defect", "geometry.cover", None),
    ("cli", "distortion_estimate", "geometry.distortion", None),
    ("cli", "solve_beta", "constants.theta", None),
    ("cli", "solve_beta_prime", "constants.theta", None),
    ("constants", "theta_1d", "constants.theta", None),
    ("constants", "theta_hex", "constants.theta", None),
    ("cli", "build", "frame.build", _frame_hook),
    ("frame", "build", "frame.build", _frame_hook),
    ("cli", "nearest_neighbor_distance", "frame.nn", None),
    ("cli", "assemble_gram", "whitening.gram", _gram_hook),
    ("cli", "inv_sqrt_neumann", "whitening.neumann", _neumann_hook),
    ("cli", "inv_sqrt_eigen", "whitening.eigen", None),
    ("flatten", "whiten", "whitening.whiten", None),
    ("whitening", "coherent_state", "kernel.coherent_state", None),
    ("SectionExpansion", "evaluate_lifts", "kernel.evaluate", _evaluate_hook),
    ("cli", "flatten_frame", "flatten.flatten", None),
    ("flatten", "dft_mix", "flatten.mix", None),
    ("cli", "fk_norm", "flatten.fk", None),
    ("cli", "certify_family", "certify.certify", None),
    ("cli", "emit_polynomials", "certify.emit", None),
    ("cli", "emit_eigenfunction", "certify.eigen", None),
    ("certify", "sup_norm", "certify.sup", _sup_hook),
    ("cli", "write_outputs", "cli.write", _write_paths_hook),
    ("cli", "dump_matrix", "cli.write", _write_file_hook),
    ("cli", "dump_family", "cli.write", _write_file_hook),
)

# (module, attribute, hook): counters without a span
COUNTERS = (
    ("kernel", "multi_indices", _multi_indices_hook),
    ("certify", "multi_indices", _multi_indices_hook),
    ("flatten", "frame_sum", _frame_sum_hook),
)


class Tracer:
    """Spans and counters of one process; one run id per pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.counts = Counter()
        self.run_id = None
        self.sup_keys = set()  # (m, k, coefficient digest) of each sup_norm call
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def region(self, name):
        """A span around code of the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def counter(self, fn, hook):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, kwargs, result)
            return result

        return counted

    @contextlib.contextmanager
    def traced_pass(self, run_id):
        """Install every wrapper, open the root span, and restore on exit.

        Yields the index of the root span.  Counters start from zero in
        every pass; a sup-norm duplicate is a repeat within the pass of the
        same (m, k, coefficients) key, so within the same level.
        """
        self.run_id = run_id
        self.counts = Counter()
        self.sup_keys = set()
        patches = [(target, attr, self.span(name, getattr(target, attr), hook))
                   for target, attr, name, hook in _resolve(SPANS)]
        patches += [(target, attr, self.counter(getattr(target, attr), hook))
                    for target, attr, hook in _resolve(COUNTERS)]
        with rebound(patches):
            self._open(ROOT_SPAN)
            root = len(self.spans) - 1
            try:
                yield root
            finally:
                self._close()

    def pass_metrics(self, root: int, untraced_wall: float | None) -> dict:
        """Per-layer values of the pass whose root span is ``root``."""
        spans = self.spans[root:]
        self_time = Counter()
        for name, start, end, parent, _ in spans:
            self_time[name] += end - start
            if parent is not None:
                self_time[spans[parent - root][0]] -= end - start
        wall = spans[0][2] - spans[0][1]
        c = self.counts
        out = {layer + "_s": self_time[layer] for layer in SPAN_LAYERS}
        kept = c["frame.points"] + c["frame.dropped"]
        out.update({
            "frame.points_per_s": _rate(c["frame.points"], self_time["frame.build"]),
            "frame.points": c["frame.points"],
            "frame.dropped": c["frame.dropped"],
            "frame.keep_ratio": _rate(c["frame.points"], kept),
            "whitening.gram_entries": c["whitening.gram_entries"],
            "whitening.neumann_terms": c["whitening.neumann_terms"],
            "whitening.neumann_gflop": c["whitening.neumann_gflop"],
            "whitening.neumann_gflops": _rate(c["whitening.neumann_gflop"],
                                              self_time["whitening.neumann"]),
            "kernel.coherent_state_calls": sum(
                1 for n, *_ in spans if n == "kernel.coherent_state"),
            "kernel.multi_indices_calls": c["kernel.multi_indices_calls"],
            "kernel.evaluate_points": c["kernel.evaluate_points"],
            "kernel.monomial_terms": c["kernel.monomial_terms"],
            "kernel.terms_per_s": _rate(c["kernel.monomial_terms"],
                                        self_time["kernel.evaluate"]),
            "flatten.fk_points": c["flatten.fk_points"],
            "flatten.fk_kernel_terms": c["flatten.fk_kernel_terms"],
            "certify.sup_calls": c["certify.sup_calls"],
            "certify.sup_dups": c["certify.sup_dups"],
            "certify.sup_dup_frac": _rate(c["certify.sup_dups"], c["certify.sup_calls"]),
            "certify.sup_evals": c["certify.sup_evals"],
            "certify.sup_rounds": c["certify.sup_rounds"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall if untraced_wall is not None else 0.0,
            "trace.overhead_s": wall - untraced_wall if untraced_wall is not None else 0.0,
            "trace.spans": len(spans),
        })
        return out

    def span_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.spans]


def _rate(num, den) -> float:
    return num / den if den > 0 else 0.0


def _resolve(table):
    """Replace module names by the modules (and the class) they name."""
    from flatsections import certify, cli, constants, flatten, frame, kernel, whitening

    targets = {
        "cli": cli, "constants": constants, "frame": frame, "flatten": flatten,
        "whitening": whitening, "certify": certify, "kernel": kernel,
        "SectionExpansion": kernel.SectionExpansion,
    }
    return [(targets[row[0]],) + tuple(row[1:]) for row in table]


def traced_names() -> list:
    """(target, attribute) of every name a traced pass rebinds."""
    return [(t, a) for t, a, *_ in _resolve(SPANS) + _resolve(COUNTERS)]


@contextlib.contextmanager
def rebound(patches):
    """Bind each (target, attribute, value) for the block, then restore.

    Class attributes are read from the class dict so that a plain function
    goes back as a plain function, not as a bound method.
    """
    saved = []
    try:
        for target, attr, value in patches:
            original = (target.__dict__[attr] if isinstance(target, type)
                        else getattr(target, attr))
            saved.append((target, attr, original))
            setattr(target, attr, value)
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
