"""Root-of-unity mixing into flat sections, and the mapping norm of the
pointwise frame sum.

Whitening hands over an orthonormal family that still has localized
members, as an (n, d_k) matrix of orthonormal-basis coefficients.
Mixing by a unitary DFT spreads every member evenly over the whole
frame; the flat family is the mixed matrix, FlatFamily.ortho.  The
sup-norm of each mixed section is then controlled by the chain
(1/sqrt(n)) * F * ||B||,  where F is the sup over x of sum_mu |Phi_mu(x)|.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .frame import Frame
from .geometry import (
    BallRegion,
    canonical_point,
    distinct_base,
    exp_chart_vectors,
    make_chart,
)
from .kernel import dimension, kernel_diag
from .whitening import WhiteningOperator, read_dump, whiten, write_dump

_MAGIC = b"FLT1"

# lift-frame products held at once by frame_sum (lifts x frame points);
# its three buffers take 25 bytes per entry, about 6 MB
FRAME_SUM_BLOCK_ENTRIES = 2.5e5

# log of the smallest normal float64: exp of anything below is subnormal or 0
LOG_TINY = math.log(np.finfo(np.float64).tiny)

# fk_norm's base mesh size, in cells, and its zoom rounds
FK_MESH = 16384
FK_ROUNDS = 6


class FlattenError(ValueError):
    pass


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT with every entry an exact root of unity.

    Entry (j, q) is the root exp(2 pi i p / n) / sqrt(n) at the reduced
    integer phase p = j*q mod n, not an accumulated power, so there is no
    drift at large n; the n roots are computed once and gathered.
    """
    if n < 1:
        raise FlattenError("mixing needs at least one section")
    p = np.arange(n)
    roots = np.exp(2j * np.pi * p / n) / math.sqrt(n)
    return roots[(p[:, None] * p) % n]


@dataclass(frozen=True)
class FlatFamily:
    """The flat family of one level: row j of ortho holds the coefficients
    of s_j over the L^2-orthonormal monomials (graded lex order)."""

    k: int
    m: int
    ortho: np.ndarray = field(repr=False)  # (n, d_k) complex

    @property
    def n(self) -> int:
        return self.ortho.shape[0]


def dft_mix(psis: np.ndarray) -> np.ndarray:
    """Mix the rows of a coefficient matrix by the unitary root-of-unity
    matrix."""
    if len(psis) == 0:
        raise FlattenError("cannot mix an empty family")
    return dft_matrix(len(psis)) @ psis


def flatten_frame(frame: Frame, op: WhiteningOperator) -> FlatFamily:
    """Whiten a frame and mix.  The weights of section j over the coherent
    frame, v^{(j)} of the sup-norm chain, are row j of
    dft_matrix(n) @ op.entries."""
    return FlatFamily(k=frame.k, m=frame.m, ortho=dft_mix(whiten(frame, op)))


def sup_norm_chain_bound(fk: float, op: WhiteningOperator, n: int) -> float:
    """||s_j||_inf <= (1/sqrt(n)) * fk * ||B||, uniform in j."""
    if n < 1:
        raise FlattenError("empty family")
    return fk * op.norm_inf / math.sqrt(n)


def _tangent_ball_grid(m: int, radius: float, side: int) -> np.ndarray:
    axes = [np.linspace(-radius, radius, side)] * (2 * m)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * m)
    keep = np.linalg.norm(pts, axis=1) <= radius + 1e-15
    return pts[keep]


def frame_sum(frame: Frame, lifts: np.ndarray) -> np.ndarray:
    """sum_mu |Phi_mu(x)| = sqrt(diag) * sum_mu cos^k d(x, y_mu) at each x.

    The lifts go through in blocks of at most FRAME_SUM_BLOCK_ENTRIES
    lift-point products; each value is a sum over its own row only, so it
    does not depend on the blocking.  No block holds a single lift (the
    last lift is repeated instead and its value dropped), as a one-row
    product goes through another BLAS kernel and rounds differently.
    Every block reuses one complex buffer for the products, one real
    buffer for their moduli, in which cos^k is formed in place, and one
    mask, so a call makes three large allocations however many blocks it
    has.

    A term whose exponent k log cos d lies below LOG_TINY would be
    subnormal or zero, and numpy's exp takes about a hundred times longer
    per element for a subnormal result (at k = 800 about one term in 70
    is one), so such terms are set to 0 instead.  Each zeroed term is
    below 2^-1022, and a row sum holds its nearest frame point's term,
    which on a frame that covers the space is vastly larger: a sum then
    changes only if under n 2^-1022 in all crosses one of its rounding
    boundaries.  On the benchmark levels every mesh value is
    bit-identical to the plain exp.
    """
    root = math.sqrt(kernel_diag(frame.m, frame.k))
    conj = frame.points.conj().T
    count = lifts.shape[0]
    step = max(2, int(FRAME_SUM_BLOCK_ENTRIES // max(1, frame.n)))
    if count % step == 1:
        lifts = np.concatenate([lifts, lifts[-1:]])
    out = np.empty(lifts.shape[0])
    rows = min(step, lifts.shape[0])
    prod = np.empty((rows, frame.n), dtype=np.complex128)
    mods = np.empty((rows, frame.n))
    low = np.empty((rows, frame.n), dtype=bool)
    for lo in range(0, lifts.shape[0], step):
        hi = min(lo + step, lifts.shape[0])
        q = np.abs(np.matmul(lifts[lo:hi], conj, out=prod[:hi - lo]), out=mods[:hi - lo])
        np.clip(q, 0.0, 1.0, out=q)
        with np.errstate(divide="ignore"):
            np.log(q, out=q)
        q *= frame.k
        tiny = np.less(q, LOG_TINY, out=low[:hi - lo])
        q[tiny] = 0.0
        np.exp(q, out=q)
        q[tiny] = 0.0
        out[lo:hi] = root * np.sum(q, axis=1)
    return out[:count]


def fk_norm(frame: Frame) -> float:
    """Mapping norm sup_x sum_mu |Phi_mu(x)|, by mesh plus FK_ROUNDS rounds
    of local refinement.

    The mesh is the cell centres of geometry.base_boxes, the equal-area
    mesh the sup norms start from, with round(FK_MESH ** (1/2m)) cells
    per dimension, at least two.  Only its distinct cells
    (geometry.distinct_base) are evaluated (all 128^2 at m = 1, 7986 of
    11^4 at m = 2): each other cell's lift lies within rounding of its
    twin's.  The frame points themselves are always included: each is the
    peak of its own term, so the estimate can never fall below sqrt(diag).
    """
    if frame.n == 0:
        raise FlattenError("empty frame")
    m = frame.m
    side = max(2, round(FK_MESH ** (1 / (2 * m))))
    lifts = np.vstack([distinct_base(m, side)[1], frame.points])
    vals = frame_sum(frame, lifts)
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    best_lift = lifts[best]
    # zoom: geodesic grids around the incumbent, shrinking by halves
    radius = 0.7 / math.sqrt(max(frame.k, 1))
    for _ in range(FK_ROUNDS):
        chart = make_chart(canonical_point(best_lift), BallRegion(min(radius * 1.1, 0.7)), 1.0)
        cand = exp_chart_vectors(chart, _tangent_ball_grid(frame.m, radius, 5))
        vals = frame_sum(frame, cand)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_lift = cand[i]
        radius /= 2
    return best_val


def dump_family(path, fam: FlatFamily, tag: str):
    """Binary dump of fam.ortho in the whitening.write_dump layout."""
    write_dump(path, _MAGIC, fam.m, fam.k, fam.ortho, tag)


def load_family(path) -> FlatFamily:
    """Inverse of dump_family (the tag is not kept)."""
    m, k, ortho, _ = read_dump(path, _MAGIC, "flat-family",
                               lambda m, k, n: dimension(m, k), error=FlattenError)
    return FlatFamily(k=k, m=m, ortho=ortho)
