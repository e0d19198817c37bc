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
evaluates one shared base mesh, then advances the sections of a block
together, one shared level per refinement round, stopping each by one
rule (_stops).  It records each section's estimate after every round,
and sup_norm reads the estimate off that history.  It needs the frame
points and the whitening matrix the family was mixed from: the base
mesh and every refinement round are screened on the frame side (below).
Families whose base values pass BASE_BLOCK_ENTRIES are split into blocks
of rows that share one evaluation each.  The base mesh is evaluated at
its distinct lifts only (geometry.distinct_base): at m = 2 the fold of
the moment coordinates makes 540 of the 1296 cells at mesh 6 the same
point of CP^2 as another cell, to within 4.4e-16, and each such cell
takes the value of that twin; at m = 1 every cell is its own twin.  The
refinement still sees every cell, twins included: _take and evaluations
count all of them.  Every sup is bit-identical to the evaluation of each
cell and child of the section alone, which tests/oracles.py keeps as the
reference (unscreened_sups), not merely close: a basis row does not
depend on the other lifts of its batch, and each section's values are
its own matrix-vector products, since a single product over all
sections' rows rounds differently.
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

The shared levels.  Every section refines from the same base mesh, and
sections that split the same cell split it into the same children, at
the same lifts, bit for bit.  So every level, the base mesh and each
refinement round, is shared by the live sections of a block
(SharedLevel; BaseLevel and RoundLevel), and each level does each step
once for them.  A round's level splits and lifts the union of the live
sections' top cells once, and one call of the family's screen, with W
the live sections' rows, screens every section at every child of the
level.  The top cells and the confirm sets are taken along the rows of
the resulting (sections, cells) matrix, by the same stable sort and
partition a single section uses, so every row is that section's own
choice, ties included.  Each
section then evaluates its confirmed cells by its own evaluate_lifts,
from basis rows built once per distinct confirmed lift of the level, in
monomial_basis calls of at most cap rows each: cap is the block's base
values over d_k, so a level's rows never take more entries than the
block's base values do.  A section whose round raises its estimate by
under 0.1% leaves; the rounds end when none is left or rounds have run.
One level is held at a time.

At m=1 k=800 the 511 sections confirm 8 or 9 of the 256 base cells each
(4,090 pairs), 98 distinct, then screen the 32 children of their top
cells among the 392 children of the 98 cells some section splits, and
confirm 4,090 of them, 261 distinct; 9 sections go on to round 2, and
the later rounds confirm 297 cells at 187 distinct lifts.  At k=200 the
later rounds confirm 1,288 cells at 708 distinct lifts, and 75, 37, 29,
19 and 1 sections go on after rounds 1 to 5.  At m=2 k=40 the 47
sections confirm 12 to 24 of the 1296 cells of mesh 6 (36 distinct
lifts) and 576 children (48 distinct), and the later rounds 1,200 cells
(508 rows, in calls of at most 70); at mesh 16, 656 to 704 of the 65,536
cells (30,984 pairs, 1,436 distinct lifts) and 5,560 of their 27,520
children (1,932 distinct).
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
    a record of emit_polynomials holds it as to_dict's dict."""

    value: float
    mesh: int
    rounds_used: int
    last_increment: float
    evaluations: int
    history: tuple

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


def _stops(increment, best):
    """The stopping rule: a refinement round that raises the estimate best
    by an increment under 0.1% of it is the last.  Elementwise: the round
    driver of certify_family applies it to every live section at once."""
    return increment < 1e-3 * np.maximum(best, 1e-300)


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

    def values(self, lifts: np.ndarray, items: np.ndarray, sections) -> np.ndarray:
        """Screen values of the sections, a slice or an index array of the
        family's rows, at their cells, shape (sections, cells): entry
        [i, c] is section i's at lifts[items[i, c]], or at lifts[items[c]]
        when items has one row for every section.  They are
        root |T W[sections]^T|: one product serves every section, and each
        takes the entries at its own cells.  T stands in for the monomial
        basis rows of its lifts, so it is built in chunks of as many lifts
        as a basis chunk holds rows, BASIS_CHUNK_ENTRIES // d_k (n <= d_k,
        so a chunk of T is no larger): chunks of BASIS_CHUNK_ENTRIES // n
        lifts raise the peak memory of certify_family on the m = 2 mesh-6
        k=40 level from 2.4 to 3.2 MB, as a round's level screens up to
        1,280 lifts there."""
        weights = self.weights[sections].T
        step = max(1, int(BASIS_CHUNK_ENTRIES // dimension(len(self.conj_points) - 1, self.k)))
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
    section, each the row's own choice (the sort is stable).  The rows
    are sorted in blocks of at most BASIS_CHUNK_ENTRIES values, so the
    sort's temporaries stay within a block (at m = 2 mesh 16 the base
    values of 47 sections are 24.6 MB, and a sort of all of them at once
    holds twice that)."""
    take = _take(vals.shape[-1])
    rows = vals.reshape(-1, vals.shape[-1])
    step = max(1, int(BASIS_CHUNK_ENTRIES // rows.shape[1]))
    top = [np.argsort(-rows[lo:lo + step], axis=1, kind="stable")[:, :take]
           for lo in range(0, len(rows), step)]
    return np.concatenate(top).reshape(vals.shape[:-1] + (take,))


class SharedLevel:
    """A level of cells that the sections of a block evaluate, at lifts
    shared by the family.

    sections indexes the family's rows, and items[j, c], or items[c] for
    every section alike, is the index into lifts of section j's cell c.
    The screen values of all sections at their cells come from one
    screen.values call.  Each section confirms the cells whose screen
    value is within 2 delta of its _take-th largest (_confirmed, row by
    row); confirm is that (sections, cells) mask.  values builds the
    monomial basis row of every distinct confirmed lift once, in
    monomial_basis calls of at most cap rows (twins, lifts equal in every
    byte, share one), and each section evaluates its confirmed cells at
    each call's lifts by its own evaluate_lifts, given their rows.  rows
    and confirmed count the basis rows built and the (section, cell)
    pairs confirmed.
    """

    def __init__(self, m: int, k: int, lifts: np.ndarray, items: np.ndarray,
                 screen: FrameScreen, sections):
        approx = screen.values(lifts, items, sections)
        self.confirm = _confirmed(approx, screen.deltas[sections, None])
        self.items = np.broadcast_to(items, approx.shape)
        self.m, self.k, self.lifts = m, k, lifts
        self.rows, self.confirmed = 0, int(np.count_nonzero(self.confirm))

    def values(self, secs, cap: int) -> np.ndarray:
        """|s_j| at the confirmed cells of each section, -inf at the rest,
        shape (sections, cells); secs[j] is section j."""
        section, cell = np.nonzero(self.confirm)  # the confirmed pairs, by section
        at = self.items[section, cell]  # the lift of each
        _, first = np.unique(at, return_index=True)
        touched = at[np.sort(first)]  # each lift once, where a section first confirms it
        call = np.empty(len(self.lifts), dtype=np.int64)
        call[touched] = np.arange(len(touched)) // cap
        key = call[at] * len(secs) + section
        order = np.argsort(key, kind="stable")  # by call, then by section, then by cell
        vals = np.full(self.confirm.shape, -np.inf)
        part = -1
        for pairs in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            j, mine = section[pairs[0]], at[pairs]
            if call[mine[0]] != part:
                part = call[mine[0]]
                basis = row = None  # the last call's rows, freed before this call's
                basis, row = self._rows(touched[part * cap:(part + 1) * cap])
            vals[j, cell[pairs]] = np.abs(secs[j].evaluate_lifts(self.lifts[mine],
                                                                 rows=basis[row[mine]]))
        return vals

    def _rows(self, at) -> tuple:
        """(basis, row): the monomial basis rows of the lifts indexed by at,
        one per distinct lift (twins share one) and counted in rows, and
        row[i], the row of lift i."""
        lifts = self.lifts[at]
        keys = lifts.view("V%d" % (lifts.itemsize * lifts.shape[1])).ravel()
        _, first, place = np.unique(keys, return_index=True, return_inverse=True)
        self.rows += len(first)
        row = np.empty(len(self.lifts), dtype=np.int64)
        row[at] = place
        return monomial_basis(self.m, self.k, lifts[first]), row


class BaseLevel(SharedLevel):
    """The base mesh of a block of sections, screened on the frame side:
    its cells, twins included, at the distinct lifts of base_boxes
    (geometry.distinct_base)."""

    def __init__(self, m: int, k: int, mesh: int, screen: FrameScreen, sections):
        rank, lifts = distinct_base(m, mesh)
        super().__init__(m, k, lifts, rank, screen, sections)


class RoundLevel(SharedLevel):
    """A refinement round of the live sections of a block: the children of
    each section's top cells of the level before, parents[top[j]] (top[j]
    in the order _top_cells gives them), in the order _split_boxes gives
    them.  Sections that split the same cell split the same box, into the
    same children at the same lifts, so the level's boxes are the
    children of the union of the top cells, and child c of cells[i] is
    item c * len(cells) + i, its place in _split_boxes(parents[cells]).
    parents are the base mesh or the boxes of the round before, distinct
    either way, so the union is taken by index."""

    def __init__(self, m: int, k: int, parents: np.ndarray, top: np.ndarray,
                 screen: FrameScreen, sections):
        cells = np.unique(top)
        child = np.arange(2 ** parents.shape[1])[:, None]
        items = len(cells) * child + np.searchsorted(cells, top)[:, None, :]
        self.boxes = _split_boxes(parents[cells])
        super().__init__(m, k, center_lifts(m, self.boxes), items.reshape(len(top), -1),
                         screen, sections)


def sup_norm(s: SectionExpansion, l2: float, mesh: int, history: list) -> SupNormEstimate:
    """Mesh maximum of |s| at unit lifts, with greedy refinement: the
    estimate of one section of the family certify_family certifies, read
    off its refinement history.

    history holds the maximum of |s| over the base-mesh centres, then the
    estimate after each refinement round, at least one; certify_family
    runs the rounds.  Each round splits the top percent (at least eight)
    of the last round's cells by value into 2^{2m} children each, and
    evaluations counts those and the base mesh, screened out or not.  The
    estimate only ever grows, so it is always a valid lower bound.  One
    under the flatness floor l2 / sqrt(Vol), less 0.1%, raises: every
    section reaches its L^2 average somewhere.
    """
    value = history[-1]
    floor = l2 / math.sqrt(volume(s.m)) * (1 - 1e-3)
    if value < floor:
        raise CertifyError("sup estimate %.6f under the flatness floor %.6f" % (value, floor))
    cells = evals = mesh ** (2 * s.m)
    for _ in history[1:]:
        cells = 2 ** (2 * s.m) * _take(cells)
        evals += cells
    return SupNormEstimate(value=value, mesh=mesh, rounds_used=len(history) - 1,
                           last_increment=value - history[-2], evaluations=evals,
                           history=tuple(history))


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
    the (section, cell) pairs confirmed by the shared levels of the
    family, on the base mesh ("base rows", "base confirmed"), in round 1
    ("round 1 rows", "round 1 confirmed") and in the rounds after it
    ("later rows", "later confirmed"); it is not part of the certificate,
    so equality leaves it out."""

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
    the benchmark levels).  The base mesh and every refinement round are
    shared levels of the block (BaseLevel, RoundLevel), screened by the
    family's one FrameScreen, built once for all blocks.  The live
    sections of a block advance together, one round at a time, and a
    section leaves when its round raises its estimate by under 0.1%
    (_stops).  Each section's history, its estimate on the base mesh and
    after each of its rounds, goes to sup_norm, which reads the estimate
    off it and raises if it is under the flatness floor.  The estimates
    equal, field by field, those of every cell evaluated.  A level holds
    no more basis entries at once than the block has base values (cap, in
    rows).
    """
    if fam.m not in (1, 2):
        raise CertifyError("sup_norm meshes cover m = 1 and m = 2 only")
    if mesh < 4:
        raise CertifyError("mesh is below the coarse default")
    if rounds < 1:
        raise CertifyError("rounds must be at least 1")
    boxes = base_boxes(fam.m, mesh)
    block = max(1, int(BASE_BLOCK_ENTRIES // len(boxes)))
    l2s = l2_norms(fam)
    screen = FrameScreen.from_family(fam, points, entries, l2s)
    work = dict.fromkeys(("base rows", "base confirmed", "round 1 rows", "round 1 confirmed",
                          "later rows", "later confirmed"), 0)
    sups = []
    for lo in range(0, fam.n, block):
        rows = slice(lo, min(lo + block, fam.n))
        secs = [SectionExpansion.from_ortho(fam.m, fam.k, row) for row in fam.ortho[rows]]
        # no level holds more basis entries at once than the block has base values
        cap = max(1, len(secs) * len(boxes) // dimension(fam.m, fam.k))
        level = BaseLevel(fam.m, fam.k, mesh, screen, rows)
        base = level.values(secs, cap)
        work["base rows"] += level.rows
        work["base confirmed"] += level.confirmed
        del level  # its confirm mask and lifts, before the sort below
        parents, top = boxes, _top_cells(base)
        best = np.max(base, axis=1)
        history = [[b] for b in best.tolist()]
        live = np.arange(len(secs))  # the block's sections still refining
        for name in ["round 1"] + ["later"] * (rounds - 1):
            # the whole block as a slice: W's rows are then a view, not a copy
            level = RoundLevel(fam.m, fam.k, parents, top, screen,
                               rows if len(live) == len(secs) else lo + live)
            vals = level.values([secs[j] for j in live], cap)
            work[name + " rows"] += level.rows
            work[name + " confirmed"] += level.confirmed
            new = np.maximum(best[live], np.max(vals, axis=1))
            go = ~_stops(new - best[live], new)
            best[live] = new
            for j, b in zip(live, new.tolist()):
                history[j].append(b)
            live, vals = live[go], vals[go]
            if not len(live):
                break
            parents = level.boxes
            top = np.take_along_axis(level.items[go], _top_cells(vals), axis=1)
            del level  # its confirm mask and lifts, before the next round's
        sups += [sup_norm(s, l2, mesh, own) for s, l2, own in zip(secs, l2s[rows], history)]
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

