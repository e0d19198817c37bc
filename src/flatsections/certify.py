"""Exact inner products, sup-norm estimation, the universal flatness
bound, and the polynomial / eigenfunction emitters.

The L^2 pairing diagonalizes over monomials, so inner products are exact
sums against factorial weights; tests/test_certify.py checks them against
exact torus quadrature on the projective line.  Sup norms have no closed
form: they are estimated from equal-area product meshes with greedy cell
refinement and reported as certified lower bounds together with the
refinement history.

A flat family is its (n, d_k) matrix fam.ortho: row j holds the
coefficients of s_j over the L^2-orthonormal monomials, so its L^2 norm
is the Euclidean norm of the row.  A family's sups have one path:

    certify_family -> NormCertificate -> emit_polynomials

certify_family is the one producer of a family's sups and L^2 norms.  It
evaluates one shared base mesh, then refines each section by sup_norm,
the single-section evaluator, which reads round 1 from the family's
shared first level and refines on its own from round 2, with basis
rows from the block's RowTable (below).  It needs the frame points and
the whitening matrix the family was mixed from: the base mesh and every
refinement round are screened on the frame side (below).  Families
whose base values pass BASE_BLOCK_ENTRIES are split into blocks of rows
that share one evaluation each.  The base mesh is evaluated at its
distinct lifts only (geometry.distinct_base): at m = 2 the fold of the
moment coordinates makes 540 of the 1296 cells at mesh 6 the same point
of CP^2 as another cell, to within 4.4e-16, and each such cell takes the
value of that twin; at m = 1 every cell is its own twin.  The refinement
still sees every cell, twins included: _take and evaluations count all
of them.  Every sup is bit-identical to the evaluation of each cell and
child of the section alone, which tests/oracles.py keeps as the
reference (unscreened_sups), not merely close: a basis row does not
depend on the other lifts of its batch, and each row gets its own
matrix-vector product, since a single product over all rows rounds
differently.
emit_polynomials reads the certificate and computes no sup; its records
are the dicts polynomials.json holds, each with its row as two lists,
and monomial_header gives the exponents and log weights that turn a row
back into its polynomial sum_alpha c_alpha z^alpha / sqrt(w_alpha).
emit_eigenfunction reads a record, so an eigenfunction is that of the
polynomial as written.

Screen and confirm.  Each refinement round splits the top cells of the
last round into children.  Reported values are always monomial values,
|s_j| from the monomial basis.  Given the frame points y_mu and the
whitening matrix B of the family (fam.ortho = F B Psi, F the unitary
DFT, Psi the coherent states), every cell of the base mesh and every
child is first screened on the frame side:

    s_j(x) = sum_mu W_{j mu} Phi_mu(x),   W = F B,   Phi_mu(x) = r <x, y_mu>^k,

with r = sqrt(diag) and W = ifft(B, axis=0, norm="ortho").  Terms with
|<x, y_mu>|^k < u = 2^-53 are dropped (|<x, y_mu>| < cut = u^{1/k}): each
is below the rounding of one full-size term.  One FrameScreen per
family holds W, the frame points and delta_j (below) for every section,
and its one route gives the screen values of any sections at any lifts:
root |T W^T|, T the dense block of the kept terms <x, y_mu>^k of the
lifts, zero at the dropped ones, and W the rows of the sections
screened.  Each entry is an inner product of length n <= N (below), so
its rounding is within delta_j.  Let t be the _take-th largest screen
value of section j on the mesh or round.  Only the cells whose screen
value is at least t - 2 delta_j are evaluated exactly.  If every screen
value is within delta_j of the monomial value, a cell below t - 2 delta_j
has a monomial value under t - delta_j, which is below the monomial value
of each of the _take cells screened at t or more.  So it can be
neither among the next round's top cells nor the maximum, and value,
history, rounds_used and last_increment are those of the full
evaluation.  evaluations counts the cells examined, screened out or not.
The top cells are chosen by a stable sort, exact ties going to the lower
cell index.  Every cell of the full evaluation that can be chosen is
confirmed and keeps its value, and the rest get -inf and sort below
them, so the screened mesh or round picks the same cells in the same
order, ties included.  Evaluation is per point, so a cell's value does
not depend on which other cells share its call (the tests check this
from one point per call up).

The shared levels.  Every section refines from the same base mesh, so
the base mesh and round 1, which splits base cells into the same
children at the same lifts in every section, are shared by a block of
sections (SharedLevel; BaseLevel and FirstLevel).  Each level does each
step once for the block.  One call of the family's screen, with W the
block's rows, screens every section of the block at every lift of the
level.  The top cells and the confirm sets are taken along the rows of
the resulting (sections, cells) matrix, by the same stable sort and
partition a single section uses, so every row is that section's own
choice, ties included.  Every distinct confirmed lift gets its monomial
basis row in one monomial_basis call, which bounds its own temporaries
by BASIS_CHUNK_ENTRIES, and each section then applies its own
matrix-vector product to the gathered rows of its confirmed cells.
The base level's rows are freed before round 1 builds its own.

Rounds 2 and later run per section, in sup_norm, which calls the same
screen with W the section's one row.  Yet the sections of a block still
refine many of the same children there.  So they take their basis rows
from one RowTable per block, freed with the block: a least-recently-used
table of rows keyed by the bytes of their lift, in one preallocated
block of ROW_TABLE_BYTES, which builds every lift a call misses in one
monomial_basis call.  The sections of a block are
refined in the order of their top base cells, so that sections which
split the same cells follow one another and find their rows still held.
A row depends only on its lift, so each call returns an array equal, in
shape and bit for bit, to the one monomial_basis builds at the same
lifts, and each section's matrix-vector product, its sup, history and
counts do not change.

At m=1 k=800 the 511 sections confirm 8 or 9 of the 256 base cells each
(4,090 pairs), 98 distinct, then screen the 32 children of their top
cells among the 392 children of the 98 cells some section splits, and
confirm 4,090 of them, 261 distinct; 9 sections go on to round 2 and
evaluate 297 lifts in the later rounds, which build 187 rows and reuse
110.  At k=200 the later rounds evaluate 1,288 lifts from 708 built
rows.  At m=2 k=40 the 47 sections confirm 12 to 24 of the 1296 cells of
mesh 6 (36 distinct lifts) and 576 children (48 distinct), and the
later rounds evaluate 1,200 lifts from 530 built rows; at mesh 16, 656
to 704 of the 65,536 cells (30,984 pairs, 1,436 distinct lifts) and
5,560 of their 27,520 children (2,040 distinct).
The sups are those of the section refined alone, bit for bit: a cell's
box and lift are computed elementwise, a basis row does not depend on
the other lifts of its batch (kernel.monomial_basis), and each value
is the section's own matrix-vector product over such rows, which does
not depend on the other rows of the product.  The screen only
chooses which cells are confirmed and never supplies a reported value.

The bound delta.  gamma_N = N u / (1 - N u) with
N = 2 (d_k + n + m + 12), which covers every inner-product length below,
and with U the largest row or column sum of |B|:

    rho     = gamma_N Lambda,
    Lambda  = 4 + k (pi + 4) + (k/2) log(m+1) + sqrt(k (m+1)) + lgamma(m+k+1) + m log pi,
    delta_j = 2 r rho (|c_j|_2 + sqrt(n) U + |W_j|_1),

where c_j is row j of fam.ortho; FrameScreen.deltas holds delta_j.  The
derivation assumes unit lifts and frame points (to a few u), elementary
functions within 2 ulp, and an FFT
no less accurate than the direct DFT sum; the exact values of both
routes agree at the stored x, y_mu and B, because the coherent-state
coefficients sum to r <x, y>^k.

* Monomial route.  e_alpha(x) = x^alpha / sqrt(w_alpha) is computed as
  exp(alpha . log|x| - log(w_alpha)/2 + i alpha . arg x).  Its exponent
  is off by at most gamma_N (X_alpha + k (pi + 1) + lgamma(m+k+1)
  + m log pi + 1), X_alpha = sum_i alpha_i |log |x_i||.  The weights
  p_alpha = |e_alpha|^2 / r^2 form the multinomial law of
  (|x_0|^2, ..., |x_m|^2), so by Cauchy-Schwarz the basis error costs at
  most |c_j| r times the root mean square of that bound, and
  E[X^2]^{1/2} <= (k/2) log(m+1) + sqrt(k (m+1)) / e (entropy mean,
  variance at most k (m+1) / e^2).  The dot product over d_k terms adds
  gamma_N |c_j| r.  The coefficients carry the coherent-state error
  (the same bound with log(k!/alpha!) for the weight) and the rounding of
  the products B Psi and F (B Psi); as |Psi_mu|_2 = 1 and |F| = 1/sqrt(n)
  entrywise, |c_j - exact|_2 <= sqrt(n) U (rho + 3 gamma_N) and costs r
  times that (the e_alpha have r as their l2 norm).
* Frame route.  |<x, y> computed - exact| <= gamma_N, so each term's
  <x, y>^k is off by at most e k gamma_N; binary powering adds
  (k - 1) sqrt(5) u (each complex product errs by at most sqrt(5) u,
  Brent, Percival and Zimmermann 2007), the sums gamma_N, each weight at
  most gamma_N U / sqrt(n) (the direct-sum bound), so
  r (sqrt(n) U + |W_j|_1) rho in all.
* Tail.  A dropped term has |<x, y>| < cut + gamma_N, so
  |Phi_mu(x)| <= r (u + e k gamma_N), and the dropped mass is at most
  r u |W_j|_1 beyond the e k gamma_N already counted: the tail bound.
  The frame route's allowance r rho |W_j|_1 holds it with room to spare.

Summed, the gap is at most r rho (|c_j|_2 + 2 sqrt(n) U + |W_j|_1) to
first order; the factor 2 in delta covers that and the second-order
terms.  Neither delta nor cut has a tuning constant.  On the benchmark
families the largest gap seen is under 1e-4 of delta.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .geometry import base_boxes, center_lifts, distinct_base, volume
from .kernel import (
    BASIS_CHUNK_ENTRIES,
    SectionExpansion,
    dimension,
    kernel_diag,
    monomial_basis,
    monomial_table,
    multi_indices,
)


# base-mesh values held at once by certify_family (sections x cells)
BASE_BLOCK_ENTRIES = 4e6

# bytes of the basis rows a RowTable keeps for a block of sections
ROW_TABLE_BYTES = 2 ** 21

# u = 2^-53, the unit roundoff of float64
UNIT_ROUNDOFF = 2.0 ** -53


class CertifyError(ValueError):
    pass


def l2_inner(sa: SectionExpansion, sb: SectionExpansion) -> complex:
    """Exact diagonal pairing sum_alpha w_alpha a_alpha conj(b_alpha) of
    the coefficients over the monomials z^alpha, which is the plain
    pairing of the orthonormal coefficients a_alpha sqrt(w_alpha)."""
    if (sa.m, sa.k) != (sb.m, sb.k):
        raise CertifyError("sections live on different spaces")
    return complex(np.sum(sa.ortho_coeffs * np.conj(sb.ortho_coeffs)))


def _split_boxes(boxes: np.ndarray) -> np.ndarray:
    """Halve every dimension: each box becomes 2^{dims} children."""
    out = boxes
    for d in range(boxes.shape[1]):
        lo, hi = out[:, d, 0], out[:, d, 1]
        mid = 0.5 * (lo + hi)
        low = out.copy()
        low[:, d, 1] = mid
        high = out.copy()
        high[:, d, 0] = mid
        out = np.concatenate([low, high], axis=0)
    return out


@dataclass(frozen=True)
class SupNormEstimate:
    """Certified lower bound for a sup-norm, with its refinement trace;
    a record of emit_polynomials holds it as to_dict's dict.  exact_lifts
    counts the lifts sup_norm evaluated by monomials itself: work, not
    part of the estimate, so equality and to_dict leave it out."""

    value: float
    mesh: int
    rounds_used: int
    last_increment: float
    evaluations: int
    history: tuple
    exact_lifts: int = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "mesh": self.mesh,
            "rounds used": self.rounds_used,
            "last increment": self.last_increment,
            "evaluations": self.evaluations,
            "history": list(self.history),
        }


def _take(cells: int) -> int:
    """Cells a refinement round splits: the top percent, at least eight."""
    return min(cells, max(8, cells // 100))


def _power(z: np.ndarray, k: int) -> np.ndarray:
    """z**k elementwise for an integer k >= 0, by binary powering: floor(log2 k)
    squarings of z, in place, and popcount(k) - 1 products into the result.
    Each complex product errs by at most sqrt(5) u relative (Brent,
    Percival and Zimmermann, Math. Comp. 76, 2007), and an error of a
    factor adds up in a product and doubles in a square, so the result is
    within (k - 1) sqrt(5) u of z**k relative, to first order.  z is
    overwritten."""
    out = None
    while k:
        if k & 1:
            out = z.copy() if out is None else np.multiply(out, z, out=out)
        k >>= 1
        if k:
            np.multiply(z, z, out=z)
    return np.ones_like(z) if out is None else out


@dataclass(frozen=True)
class FrameScreen:
    """Frame-side values of the sections of one flat family, for screening
    refinement cells.

    s_j(x) = sum_mu weights[j, mu] Phi_mu(x), Phi_mu(x) = root <x, y_mu>^k,
    with conj_points the (m+1, n) conjugated frame points y_mu and weights
    the (n, n) matrix W = F B (module docstring).  Terms with
    |<x, y_mu>| < cut are dropped, at most root u |W_j|_1 in all.  Every
    screen value of section j is within deltas[j] of the monomial
    evaluation of s_j (module docstring).
    """

    k: int
    conj_points: np.ndarray
    weights: np.ndarray
    root: float
    cut: float
    deltas: np.ndarray

    @classmethod
    def from_family(cls, fam, points: np.ndarray, entries: np.ndarray, l2s) -> "FrameScreen":
        """The screen of fam, from the frame points, the whitening matrix B
        the family was mixed from (fam.ortho = F B Psi) and the rows' L^2
        norms l2s (l2_norms)."""
        n = fam.n
        if np.shape(points) != (n, fam.m + 1) or np.shape(entries) != (n, n):
            raise CertifyError("frame points or whitening matrix do not match the family")
        rho = _rounding_level(fam.m, fam.k, n)
        root = math.sqrt(kernel_diag(fam.m, fam.k))
        mags = np.abs(entries)
        mapnorm = max(float(np.max(mags.sum(axis=0))), float(np.max(mags.sum(axis=1))))
        weights = np.fft.ifft(entries, axis=0, norm="ortho")  # = dft_matrix(n) @ B
        scale = np.array(l2s) + math.sqrt(n) * mapnorm
        scale += np.sum(np.abs(weights), axis=1)
        return cls(k=fam.k, conj_points=points.conj().T, weights=weights, root=root,
                   cut=UNIT_ROUNDOFF ** (1.0 / fam.k) if fam.k else 0.0,
                   deltas=2 * root * rho * scale)

    def terms(self, lifts: np.ndarray) -> np.ndarray:
        """T, the dense (lifts, n) block of the kept terms
        <x, y_mu>^k = Phi_mu(x) / root, zero at the dropped ones.  They do
        not depend on the section (about 47 of 511 are kept per lift at
        m=1 k=800).  The k-th power is taken by binary powering of the kept
        inner products (_power): no transcendental function, and within
        (k - 1) sqrt(5) u of the power of the computed inner product
        (module docstring)."""
        g = lifts @ self.conj_points
        flat = np.flatnonzero(np.abs(g) >= self.cut)
        phi = _power(g.ravel()[flat], self.k)
        g.fill(0)
        np.put(g, flat, phi)
        return g

    def values(self, lifts: np.ndarray, items: np.ndarray, sections: slice) -> np.ndarray:
        """Screen values of the sections, a slice of the family's rows, at
        their cells, shape (sections, cells): entry [i, c] is section i's
        at lifts[items[i, c]], or at lifts[items[c]] when items has one
        row for every section.  They are root |T W[sections]^T|: one
        product serves every section, and each takes the entries at its
        own cells.  T stands in for the (lifts, d_k) monomial basis, so it
        is built in chunks of at most BASIS_CHUNK_ENTRIES entries, as the
        basis is: chunks of BASE_BLOCK_ENTRIES raise the peak memory of
        certify_family on the m = 2 mesh-16 k=40 level from 76 to 82 MB."""
        weights = self.weights[sections].T
        step = max(1, int(BASIS_CHUNK_ENTRIES // len(weights)))
        vals = np.concatenate([np.abs(self.terms(lifts[lo:lo + step]) @ weights)
                               for lo in range(0, len(lifts), step)])
        return self.root * vals.T[np.arange(weights.shape[1])[:, None], items]


def _rounding_level(m: int, k: int, n: int) -> float:
    """rho = gamma_N Lambda, the relative rounding level of both routes
    (module docstring)."""
    count = 2 * (dimension(m, k) + n + m + 12)
    gamma = count * UNIT_ROUNDOFF / (1 - count * UNIT_ROUNDOFF)
    spread = (4 + k * (math.pi + 4) + 0.5 * k * math.log(m + 1)
              + math.sqrt(k * (m + 1)) + math.lgamma(m + k + 1) + m * math.log(math.pi))
    return gamma * spread


def l2_norms(fam) -> list:
    """The L^2 norm of every section of fam, the Euclidean norm of its row."""
    return [float(np.linalg.norm(row)) for row in fam.ortho]


def _confirmed(approx: np.ndarray, delta) -> np.ndarray:
    """Mask of the cells whose screen value is within 2 delta of the
    _take-th largest along the last axis: no other cell can be among the
    top cells or be the maximum.  approx may hold one row per section,
    with delta one per row (shape (sections, 1)); a row's mask is the one
    its own call gives, as partition finds the same _take-th value."""
    take = _take(approx.shape[-1])
    edge = np.partition(approx, -take, axis=-1)[..., [-take]]
    return approx >= edge - 2 * delta


def _top_cells(vals: np.ndarray) -> np.ndarray:
    """The _take largest values along the last axis, exact ties broken by
    cell index, so the choice does not depend on which other cells a
    round evaluated; one row per section when vals has a row per
    section, each the row's own choice (the sort is stable)."""
    return np.argsort(-vals, axis=-1, kind="stable")[..., :_take(vals.shape[-1])]


class RowTable:
    """Monomial basis rows of the lifts that the sections of one block
    refine, kept for the block's later rounds: a row source for
    kernel.evaluate_sections, called as monomial_basis is.

    The rows live in one preallocated (slots, d_k) block, slots =
    ROW_TABLE_BYTES // (16 d_k), keyed by the bytes of their lift; when
    it is full, the least recently used row makes room.  A call builds
    the lifts it misses, each once however often the call repeats it, in
    one monomial_basis call, stores them, and returns the rows of all its
    lifts gathered from the block.  A call with more distinct lifts than
    slots builds all its rows in one monomial_basis call and keeps none.
    A row depends only on its lift, so either way the array equals
    monomial_basis's at the same lifts, bit for bit.  built counts the
    rows built and reused the rows taken without building."""

    def __init__(self, m: int, k: int):
        d = dimension(m, k)
        self.block = np.empty((int(ROW_TABLE_BYTES // (16 * d)), d), dtype=np.complex128)
        self.slot = OrderedDict()  # lift bytes -> row of block, least recently used first
        self.built = self.reused = 0

    def __call__(self, m: int, k: int, lifts: np.ndarray) -> np.ndarray:
        lifts = np.ascontiguousarray(lifts)
        keys = lifts.view("V%d" % (lifts.itemsize * lifts.shape[1])).ravel().tolist()
        where = dict(zip(keys, range(len(keys))))  # each distinct lift's bytes -> an index of it
        if len(where) > len(self.block):
            self.built += len(keys)
            return monomial_basis(m, k, lifts)
        fresh = []
        for key in where:
            if key in self.slot:
                self.slot.move_to_end(key)
            else:
                fresh.append(key)
        if fresh:
            rows = monomial_basis(m, k, lifts[[where[key] for key in fresh]])
            # a full block evicts its least recently used rows, none of them
            # this call's: the call holds at most slots lifts
            free = len(self.block) - len(self.slot)
            at = list(range(len(self.slot), len(self.slot) + min(free, len(fresh))))
            at += [self.slot.popitem(last=False)[1] for _ in range(len(fresh) - len(at))]
            self.slot.update(zip(fresh, at))
            self.block[at] = rows
        self.built += len(fresh)
        self.reused += len(keys) - len(fresh)
        return self.block[[self.slot[key] for key in keys]]


class SharedLevel:
    """A level of cells that every section of a block evaluates, at lifts
    shared by the family.

    sections is the block, a slice of the family's rows, and items[j, c],
    or items[c] for every section alike, is the index into lifts of
    section j's cell c.  The screen values of all sections at their cells
    come from one screen.values call.  Each section confirms the cells
    whose screen value is within 2 delta of its _take-th largest
    (_confirmed, row by row), and the distinct lifts of all confirmed
    cells get their monomial basis rows in one monomial_basis call, held
    as basis.  values applies each section's own matrix-vector product to
    the rows of its confirmed cells, gathered by plain indexing, in cell
    order.  rows and confirmed count the basis rows built and the
    (section, cell) pairs confirmed.
    """

    def __init__(self, m: int, k: int, lifts: np.ndarray, items: np.ndarray,
                 screen: FrameScreen, sections: slice):
        approx = screen.values(lifts, items, sections)
        self.section, self.cell = np.nonzero(_confirmed(approx, screen.deltas[sections, None]))
        self.shape = approx.shape
        self.bounds = np.searchsorted(self.section, np.arange(len(approx) + 1))
        at = np.broadcast_to(items, approx.shape)[self.section, self.cell]
        distinct, self.place = np.unique(at, return_inverse=True)
        self.basis = monomial_basis(m, k, lifts[distinct])
        self.rows, self.confirmed = len(distinct), len(self.section)

    def values(self, coeffs) -> np.ndarray:
        """|s_j| at the confirmed cells of each section, -inf at the rest,
        shape (sections, cells); coeffs[j] is the ortho_coeffs of section j."""
        found = np.empty(len(self.place), dtype=np.complex128)
        bounds = self.bounds.tolist()
        for j, lo, hi in zip(range(len(coeffs)), bounds, bounds[1:]):
            np.matmul(self.basis[self.place[lo:hi]], coeffs[j], out=found[lo:hi])
        vals = np.full(self.shape, -np.inf)
        vals[self.section, self.cell] = np.abs(found)
        return vals


class BaseLevel(SharedLevel):
    """The base mesh of a block of sections, screened on the frame side:
    its cells, twins included, at the distinct lifts of base_boxes
    (geometry.distinct_base)."""

    def __init__(self, m: int, k: int, mesh: int, screen: FrameScreen, sections: slice):
        rank, lifts = distinct_base(m, mesh)
        super().__init__(m, k, lifts, rank, screen, sections)


class FirstLevel(SharedLevel):
    """Round 1 of a block of sections: the children of each section's top
    base cells (top[j], as _top_cells gives them), in the order
    _split_boxes gives them.  Every section refines from the same base
    mesh, so the children of a base cell are the same boxes, at the same
    lifts, in every section: the lifts are the children of the union of
    the top cells, and child c of cells[i] is item c * len(cells) + i,
    its place in _split_boxes(boxes[cells])."""

    def __init__(self, m: int, k: int, boxes: np.ndarray, top: np.ndarray,
                 screen: FrameScreen, sections: slice):
        cells = np.unique(top)
        child = np.arange(2 ** boxes.shape[1])[:, None]
        items = len(cells) * child + np.searchsorted(cells, top)[:, None, :]
        super().__init__(m, k, center_lifts(m, _split_boxes(boxes[cells])),
                         items.reshape(len(top), -1), screen, sections)


def sup_norm(s: SectionExpansion, mesh: int, rounds: int, base: np.ndarray,
             screen: FrameScreen, row: int, first: tuple, basis) -> SupNormEstimate:
    """Mesh maximum of |s| at unit lifts, with greedy refinement: one
    section of the family certify_family certifies.

    Splits the top percent (at least eight) of cells by center value
    until a full refinement round improves the estimate by under 0.1%.
    The estimate only ever grows, so it is always a valid lower bound.
    base holds |s| at the base-mesh centres, -inf at the cells that
    cannot win (BaseLevel), and first is round 1 (FirstLevel): the pair
    (top, values) of the base cells round 1 splits, _top_cells(base), and
    |s| at their children in the order _split_boxes gives them.  Their
    boxes are split only if a round 2 follows.  From round 2 on, screen,
    the family's FrameScreen, called for row, s's row of the family,
    alone, picks the children that can win (_confirmed; module
    docstring), and only those are evaluated, by s.evaluate_lifts with
    the row source basis (the block's RowTable), the rest taking -inf;
    the estimate is the one the full evaluation gives.
    Every reported value is a monomial value, and evaluations counts the
    cells examined, screened out or not.  exact_lifts counts the lifts
    evaluated here.
    """
    boxes = base_boxes(s.m, mesh)
    if base.shape != (len(boxes),):
        raise CertifyError("base values do not match the base mesh")
    best = float(np.max(base))
    evals = len(base)
    history = [best]
    used = 0
    increment = 0.0
    exact = 0
    for _ in range(rounds):
        if used == 0:
            split, vals = first  # split: the base cells whose children vals holds
            if vals.shape != (len(split) * 2 ** boxes.shape[1],):
                raise CertifyError("round-1 values do not match the base mesh")
        else:
            if used == 1:
                boxes = _split_boxes(boxes[split])
            boxes = _split_boxes(boxes[_top_cells(vals)])
            lifts = center_lifts(s.m, boxes)
            approx = screen.values(lifts, np.arange(len(lifts)), slice(row, row + 1))[0]
            confirm = np.flatnonzero(_confirmed(approx, screen.deltas[row]))
            vals = np.full(len(lifts), -np.inf)
            vals[confirm] = np.abs(s.evaluate_lifts(lifts[confirm], basis=basis))
            exact += len(confirm)
        evals += len(vals)
        used += 1
        new_best = max(best, float(np.max(vals)))
        increment = new_best - best
        best = new_best
        history.append(best)
        if increment < 1e-3 * max(best, 1e-300):
            break
    return SupNormEstimate(value=best, mesh=mesh, rounds_used=used,
                           last_increment=increment, evaluations=evals,
                           history=tuple(history), exact_lifts=exact)


def flat_bound(beta: float, eta: float, vol: float) -> float:
    """Universal sup-norm ceiling (1+eta)/sqrt(beta(1-eta)) / sqrt(vol)."""
    # eta = 0 is the perfectly orthogonal degenerate case and is allowed
    if not 0.0 <= eta < 1.0:
        raise CertifyError("eta must lie in [0, 1)")
    if beta <= 0.0 or vol <= 0.0:
        raise CertifyError("beta and vol must be positive")
    return (1.0 + eta) / math.sqrt(beta * (1.0 - eta)) / math.sqrt(vol)


@dataclass(frozen=True)
class NormCertificate:
    """Sup estimates and exact L^2 norms of one flat family, row by row.
    work counts what certify_family evaluated: the basis rows built and
    the (section, cell) pairs confirmed by the shared base and round-1
    levels of the family ("base rows", "base confirmed",
    "round 1 rows", "round 1 confirmed"), the lifts sup_norm evaluated
    itself ("sup_norm lifts") and the rows its RowTables built and
    reused for them ("sup_norm rows built", "sup_norm rows reused"); it
    is not part of the certificate, so equality leaves it out."""

    k: int
    m: int
    sup_estimates: tuple
    l2_norms: tuple
    work: dict = field(compare=False)


def certify_family(fam, mesh: int, rounds: int, points: np.ndarray,
                   entries: np.ndarray) -> NormCertificate:
    """sup_norm of every row of fam.ortho and its exact L^2 norm, the
    Euclidean norm of the row; the one producer of a family's sups.

    points are the frame points and entries the whitening matrix B the
    family was mixed from (fam.ortho = F B Psi).  The rows are taken in
    blocks whose base values fit in BASE_BLOCK_ENTRIES (all of them at
    the benchmark levels).  The base mesh and round 1 are the block's
    shared levels (BaseLevel, FirstLevel), and each section's later
    rounds are screened by its row of the family's one FrameScreen, built
    once for all blocks; the estimates equal, field by field, those of
    every cell evaluated.  The rounds sup_norm evaluates
    take their rows from one RowTable per block, freed with the block,
    and the block's sections go through sup_norm in the order of their
    top base cells.  A sup under the flatness floor l2 / sqrt(Vol), less
    0.1%, raises: every section reaches its L^2 average somewhere.
    """
    if fam.m not in (1, 2):
        raise CertifyError("sup_norm meshes cover m = 1 and m = 2 only")
    if mesh < 4:
        raise CertifyError("mesh is below the coarse default")
    boxes = base_boxes(fam.m, mesh)
    block = max(1, int(BASE_BLOCK_ENTRIES // len(boxes)))
    l2s = l2_norms(fam)
    screen = FrameScreen.from_family(fam, points, entries, l2s)
    work = dict.fromkeys(("base rows", "base confirmed", "round 1 rows", "round 1 confirmed",
                          "sup_norm rows built", "sup_norm rows reused"), 0)
    sups = []
    for lo in range(0, fam.n, block):
        part = slice(lo, lo + block)
        rows = fam.ortho[part]
        secs = [SectionExpansion.from_ortho(fam.m, fam.k, row) for row in rows]
        level = BaseLevel(fam.m, fam.k, mesh, screen, part)
        base = level.values(rows)
        work["base rows"] += level.rows
        work["base confirmed"] += level.confirmed
        del level  # its basis rows: one level's are held at a time
        top = _top_cells(base).copy()  # not a view that keeps the whole sort
        level = FirstLevel(fam.m, fam.k, boxes, top, screen, part)
        firsts = list(zip(top, level.values(rows)))
        work["round 1 rows"] += level.rows
        work["round 1 confirmed"] += level.confirmed
        del level
        # sections that split the same base cells refine the same children,
        # so taken in the order of their top cells they find more of them in
        # the table (m=2 k=40 mesh 6: 674 rows built in index order, 530 so)
        table = RowTable(fam.m, fam.k)
        done = [None] * len(secs)
        for j in np.lexsort(top.T[::-1]):
            done[j] = sup_norm(secs[j], mesh=mesh, rounds=rounds, base=base[j], screen=screen,
                               row=lo + j, first=firsts[j], basis=table)
        sups += done
        work["sup_norm rows built"] += table.built
        work["sup_norm rows reused"] += table.reused
        del table  # its block, before the next block's levels
    work["sup_norm lifts"] = sum(est.exact_lifts for est in sups)
    root_vol = math.sqrt(volume(fam.m))
    for est, l2 in zip(sups, l2s):
        floor = l2 / root_vol * (1 - 1e-3)
        if est.value < floor:
            raise CertifyError(
                "sup estimate %.6f under the flatness floor %.6f" % (est.value, floor)
            )
    return NormCertificate(k=fam.k, m=fam.m, sup_estimates=tuple(sups),
                           l2_norms=tuple(l2s), work=work)


def monomial_header(m: int, k: int) -> dict:
    """The monomials the records of level k are written over, once per
    level: a record's polynomial is sum_i c_i z^alpha_i exp(-log_weights[i] / 2)
    with alpha_i = exponents[i]; the products c_i / sqrt(w_alpha_i) would
    overflow float64 at m = 1 from about k = 2060."""
    return {
        "exponents": multi_indices(m, k).tolist(),
        "log_weights": monomial_table(m, k).log_weights.tolist(),
    }


def emit_polynomials(fam, cert: NormCertificate) -> list:
    """Sections as the JSON-ready records polynomials.json holds, one per
    row of fam.ortho: {k, m, "ortho re", "ortho im", sup, l2,
    "sphere ratio"}, the row split into its real and imaginary parts (the
    coefficients over the orthonormal monomials of monomial_header(m, k))
    and sup its SupNormEstimate as a dict.

    |s(z)|_h at a point equals |p(x)| at any unit lift x, so the metric
    sup over the manifold and the sup over the sphere coincide, and the
    sphere ratio, sup over the unit sphere / sphere L^2 norm, is the
    manifold ratio rescaled by sqrt(Vol) >= 1.  The sups and L^2 norms
    are those of cert, certify_family's output for this family."""
    if (cert.m, cert.k, len(cert.sup_estimates)) != (fam.m, fam.k, fam.n):
        raise CertifyError("certificate was computed for another family")
    root_vol = math.sqrt(volume(fam.m))
    records = []
    for row, est, l2 in zip(fam.ortho, cert.sup_estimates, cert.l2_norms):
        if l2 == 0.0:
            raise CertifyError("zero section has no flatness ratio")
        records.append({"k": fam.k, "m": fam.m, "ortho re": row.real.tolist(),
                        "ortho im": row.imag.tolist(), "sup": est.to_dict(), "l2": l2,
                        "sphere ratio": est.value * root_vol / l2})
    return records


# the stencil's shifts of one coordinate, in units of the step: +-2 and
# +-1 along its real part, then along its imaginary part
STENCIL_SHIFTS = np.array([2.0, 1.0, -1.0, -2.0, 2j, 1j, -1j, -2j])


def _stencil_domain(points: np.ndarray, k: int, h: float) -> np.ndarray:
    """Rows of points whose every coordinate has modulus at least 2 h k,
    the probes fd_laplacian_residual accepts."""
    return np.all(np.abs(points) >= 2 * h * k, axis=1)


def _stencil_values(section: SectionExpansion, points: np.ndarray, h: float) -> tuple:
    """(centre, shifted): p(x) at each probe x, shape (probes,), and
    p(x + h s e_i) for s in STENCIL_SHIFTS, shape (m + 1, probes, 8),
    from one monomial basis row per probe.

    e_alpha(x + s e_i) = e_alpha(x) (1 + s / x_i)^alpha_i exactly, so
    p(x + s e_i) = sum_a Q_ia(x) (1 + s / x_i)^a with
    Q_ia = sum over alpha_i = a of c_alpha e_alpha(x), summed by Horner's
    rule over a."""
    m, k = section.m, section.k
    npts = len(points)
    weighted = monomial_basis(m, k, points) * section.ortho_coeffs
    # q[i, p, a] = Q_ia at probe p: the weighted row binned by alpha_i
    keys = (np.arange((m + 1) * npts).reshape(m + 1, npts, 1) * (k + 1)
            + multi_indices(m, k).T[:, None, :]).ravel()
    size = (m + 1) * npts * (k + 1)
    q = np.empty(size, dtype=np.complex128)
    for part, dest in ((weighted.real, q.real), (weighted.imag, q.imag)):
        dest[:] = np.bincount(keys, np.broadcast_to(part, (m + 1,) + part.shape).ravel(), size)
    q = q.reshape(m + 1, npts, k + 1)
    ratio = 1 + h * STENCIL_SHIFTS / points.T[:, :, None]
    shifted = np.repeat(q[:, :, k:], len(STENCIL_SHIFTS), axis=2)
    for a in range(k - 1, -1, -1):
        shifted *= ratio
        shifted += q[:, :, a:a + 1]
    return np.sum(weighted, axis=1), shifted


def fd_laplacian_residual(section: SectionExpansion, part: str, lam: float,
                          points: np.ndarray, h: float) -> float:
    """Max relative defect of the eigen equation at the given lifts.

    Fourth-order central differences of the degree-zero homogeneous
    extension: its ambient Laplacian at the sphere equals the spherical
    one, and the sign convention puts the spectrum at +k(k+2m).  The
    high-order stencil tolerates the evaluation noise of long coefficient
    sums, keeping the defect well under 1e-6 at every tested level.

    Every stencil point is a probe shifted in one coordinate, so the
    8 (m + 1) shifted values of a probe come from its one monomial basis
    row (_stencil_values), each then divided by |x + h s e_i|^k.  The
    re-expansion multiplies rounding by up to |1 + h s / x_i|^k <=
    exp(2 h k / |x_i|), so a probe with some |x_i| < 2 h k is refused:
    on the rest the factor is at most e.
    """
    k = section.k
    if not np.all(_stencil_domain(points, k, h)):
        raise CertifyError("stencil probe within 2 h k = %.3g of a coordinate hyperplane"
                           % (2 * h * k))
    centre, shifted = _stencil_values(section, points, h)
    norm2 = np.sum(np.abs(points) ** 2, axis=1)
    shift = h * STENCIL_SHIFTS
    shifted /= (norm2[:, None] + 2 * (points.T[:, :, None].conj() * shift).real
                + np.abs(shift) ** 2) ** (k / 2)
    centre /= norm2 ** (k / 2)
    f0 = centre.real if part == "re" else centre.imag
    f = (shifted.real if part == "re" else shifted.imag).reshape(shifted.shape[:2] + (2, 4))
    f2p, f1p, f1m, f2m = f[..., 0], f[..., 1], f[..., 2], f[..., 3]
    lap = np.sum(-f2p + 16 * f1p - 30 * f0[:, None] + 16 * f1m - f2m, axis=(0, 2)) / (12 * h ** 2)
    scale = lam * max(float(np.max(np.abs(f0))), 1e-300)
    return float(np.max(np.abs(lap + lam * f0)) / scale)


def emit_eigenfunction(rec: dict, seed: int = 5) -> dict:
    """Real eigenfunction from a record of emit_polynomials, as written or
    as read back from polynomials.json, with an FD check at 24 random unit
    lifts and step 0.01 / k (a lift with a coordinate under 0.02 in
    modulus, outside the stencil's domain, is drawn again from the same
    stream), as the JSON-ready dict
    {k, m, lambda, part, l2, residual, step, samples}: lambda = k(k + 2m)
    is its eigenvalue, part ("re" or "im") the chosen real part and l2 the
    sphere L^2 norm of that part.

    The real and imaginary parts have equal sphere L^2 norms whenever
    k >= 1 (the square of the polynomial integrates to zero over the
    phase circle), so the tie goes to the real part; at k = 0 the larger
    constant wins.
    """
    k, m = rec["k"], rec["m"]
    ortho = np.empty(len(rec["ortho re"]), dtype=np.complex128)
    ortho.real, ortho.imag = rec["ortho re"], rec["ortho im"]
    if not np.any(ortho):
        raise CertifyError("zero polynomial has no eigenfunction")
    section = SectionExpansion.from_ortho(m, k, ortho)
    # sphere measure is normalized, so sphere norms are manifold norms / sqrt(Vol)
    root_vol = math.sqrt(volume(m))
    if k == 0:
        # the constant is ortho[0] / sqrt(w_0), and w_0 = Vol
        c = complex(ortho[0]) / root_vol
        part = "re" if abs(c.real) >= abs(c.imag) else "im"
        l2 = abs(c.real) if part == "re" else abs(c.imag)
    else:
        part = "re"
        l2 = rec["l2"] / root_vol / math.sqrt(2)
    lam = k * (k + 2 * m)
    samples = 24
    step = 0.01 / max(k, 1)
    rng = np.random.default_rng(seed)
    pts = np.empty((samples, m + 1), dtype=np.complex128)
    redraw = np.ones(samples, dtype=bool)
    while np.any(redraw):
        # probes outside the stencil's domain are drawn again from the same stream
        count = int(np.sum(redraw))
        new = rng.standard_normal((count, m + 1)) + 1j * rng.standard_normal((count, m + 1))
        pts[redraw] = new / np.linalg.norm(new, axis=1)[:, None]
        redraw = ~_stencil_domain(pts, k, step)
    if k == 0:
        residual = 0.0  # constant: the equation is 0 = 0
    else:
        residual = fd_laplacian_residual(section, part, lam, pts, step)
    return {"k": k, "m": m, "lambda": lam, "part": part, "l2": l2,
            "residual": residual, "step": step, "samples": samples}

