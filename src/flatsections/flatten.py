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
    ProjectivePoint,
    base_boxes,
    center_lifts,
    exp_chart_vectors,
    make_chart,
)
from .kernel import KernelModel, SectionExpansion, dimension
from .whitening import WhiteningOperator, read_dump, whiten, write_dump

_MAGIC = b"FLT1"

# lift-frame products held at once by frame_sum (lifts x frame points)
FRAME_SUM_BLOCK_ENTRIES = 1e6


class FlattenError(ValueError):
    pass


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT with every entry an exact root of unity.

    Entries are recomputed from the reduced integer phase (j*q mod n)
    rather than by accumulating powers, so there is no drift at large n.
    """
    if n < 1:
        raise FlattenError("mixing needs at least one section")
    j, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    phase = (j * q) % n
    return np.exp(2j * np.pi * phase / n) / math.sqrt(n)


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
    does not depend on the blocking.  cos^k is formed in place in the
    block's one real buffer.
    """
    root = math.sqrt(KernelModel(frame.m, frame.k).diag)
    conj = frame.points.conj().T
    step = max(1, int(FRAME_SUM_BLOCK_ENTRIES // max(1, frame.n)))
    out = np.empty(lifts.shape[0])
    for lo in range(0, lifts.shape[0], step):
        q = np.abs(lifts[lo:lo + step] @ conj)
        np.clip(q, 0.0, 1.0, out=q)
        with np.errstate(divide="ignore"):
            np.log(q, out=q)
        q *= frame.k
        np.exp(q, out=q)
        out[lo:lo + step] = root * np.sum(q, axis=1)
    return out


def fk_norm(frame: Frame, mesh: int = 16384, rounds: int = 6) -> float:
    """Mapping norm sup_x sum_mu |Phi_mu(x)|, by mesh plus local refinement.

    The mesh is the cell centres of geometry.base_boxes, the equal-area
    mesh the sup norms start from, with about mesh cells: isqrt(mesh) per
    dimension at m = 1, round(mesh ** 0.25) at m = 2, at least two.  The
    frame points themselves are always included: each is the peak of its
    own term, so the estimate can never fall below sqrt(diag).
    """
    if frame.n == 0:
        raise FlattenError("empty frame")
    m = frame.m
    side = max(2, math.isqrt(mesh) if m == 1 else int(round(mesh ** 0.25)))
    lifts = np.vstack([center_lifts(m, base_boxes(m, side)), frame.points])
    vals = frame_sum(frame, lifts)
    best = int(np.argmax(vals))
    best_val = float(vals[best])
    best_lift = lifts[best]
    # zoom: geodesic grids around the incumbent, shrinking by halves
    radius = 0.7 / math.sqrt(max(frame.k, 1))
    for _ in range(rounds):
        center = ProjectivePoint.from_vector(best_lift)
        chart = make_chart(center, BallRegion(min(radius * 1.1, 0.7)), 2.0)
        cand = exp_chart_vectors(chart, _tangent_ball_grid(frame.m, radius, 5))
        vals = frame_sum(frame, cand)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_lift = cand[i]
        radius /= 2
    return best_val


def fk_ceilings(frame: Frame, eta_hat: float | None = None) -> dict:
    """Analytic ceilings for fk_norm.

    "theta": sqrt(diag) * (1 + sqrt(2 pi)/a_tilde)^{2m}, the Poisson
    summation tail bound with the distortion-adjusted spacing;
    "eta": (1 + eta) * sqrt(diag) * 1.05, with eta the measured row mass
    when given, the design constant otherwise.
    """
    spec = frame.spec
    model = KernelModel(frame.m, frame.k)
    root = math.sqrt(model.diag)
    atil = (spec.a / spec.gamma) * math.sqrt(1 - spec.epsilon)
    eta = spec.eta if eta_hat is None else eta_hat
    return {
        "theta": root * (1 + math.sqrt(2 * math.pi) / atil) ** (2 * frame.m),
        "eta": (1 + eta) * root * 1.05,
    }


def bourgain_reference(signs, k: int) -> list:
    """Sign-twisted DFT of the monomial basis on the projective line.

    For any sign vector the output is exactly orthonormal; with trivial
    signs it is the classical highly peaked family, kept as a reference
    point rather than a bounded construction.
    """
    sigma = np.asarray(signs, dtype=np.float64)
    if sigma.ndim != 1 or sigma.shape[0] != k + 1:
        raise FlattenError("need one sign per monomial, k + 1 of them")
    if not np.all(np.abs(sigma) == 1.0):
        raise FlattenError("signs must be +1 or -1")
    mixed = dft_matrix(k + 1) * sigma[None, :]  # rows: coefficients over chi_q
    return [SectionExpansion.from_ortho(1, k, row) for row in mixed]


def dump_family(path, fam: FlatFamily, tag: str):
    """Binary dump of fam.ortho in the whitening.write_dump layout."""
    write_dump(path, _MAGIC, fam.m, fam.k, fam.ortho, tag)


def load_family(path) -> FlatFamily:
    """Inverse of dump_family (the tag is not kept)."""
    m, k, ortho, _ = read_dump(path, _MAGIC, "flat-family",
                               lambda m, k, n: dimension(m, k), error=FlattenError)
    return FlatFamily(k=k, m=m, ortho=ortho)
