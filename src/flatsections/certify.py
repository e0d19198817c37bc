"""Exact inner products, sup-norm estimation, the universal flatness
bound, and the polynomial / eigenfunction emitters.

The L^2 pairing diagonalizes over monomials, so inner products are exact
sums against factorial weights.  Sup norms have no closed form: they are
estimated from equal-area product meshes with greedy cell refinement and
reported as certified lower bounds together with the refinement history.

A flat family is its (n, d_k) matrix fam.ortho: row j holds the
coefficients of s_j over the L^2-orthonormal monomials, so its L^2 norm
is the Euclidean norm of the row.  A family's sups have one path:

    certify_family -> NormCertificate -> emit_polynomials

certify_family is the one producer of a family's sups and L^2 norms.  It
evaluates one shared base mesh: the monomial basis at the base-mesh
centres is built once per chunk of at most 2e6 entries and applied to
each row, then each section is refined on its own by sup_norm, the
single-section evaluator.  Families whose base values pass
BASE_BLOCK_ENTRIES are split into blocks of rows that share one
evaluation each.  Every sup is bit-identical to the section-by-section
evaluation, not merely close: the basis is built in the same chunks and
each row gets its own matrix-vector product, since a single product over
all rows rounds differently.  emit_polynomials reads the certificate and
computes no sup; it is the one place that forms raw monomial
coefficients, the row times monomial_table(m, k).inv_sqrt_weights.

Screen and confirm.  Each refinement round splits the top cells of the
last round into children.  Reported values are always monomial values,
|s_j| from SectionExpansion.evaluate_lifts.  Given the frame points
y_mu and the whitening matrix B of the family (fam.ortho = F B Psi, F
the unitary DFT, Psi the coherent states), every child is first
screened on the frame side:

    s_j(x) = sum_mu W_{j mu} Phi_mu(x),   W = F B,   Phi_mu(x) = r <x, y_mu>^k,

with r = sqrt(diag) and W = ifft(B, axis=0, norm="ortho").  Terms with
|<x, y_mu>|^k < u = 2^-53 are dropped (|<x, y_mu>| < cut = u^{1/k}): each
is below the rounding of one full-size term.  Let t be the _take-th
largest screen value of the round.  Only the children whose screen
value is at least t - 2 delta are evaluated exactly.  If every screen
value is within delta of the monomial value, a child below t - 2 delta
has a monomial value under t - delta, which is below the monomial value
of each of the _take children screened at t or more.  So it can be
neither among the next round's top cells nor the round maximum, and
value, history, rounds_used and last_increment are those of the full
evaluation.  evaluations counts the cells examined, screened out or not.
The top cells are chosen by a stable sort, exact ties going to the lower
cell index.  Every child of the full round that can be chosen is
confirmed and keeps its value, and the rest sort below them, so the
screened round picks the same cells in the same order, ties included.
Without a screen every child is confirmed.  Evaluation is
per point, so a child's value does not depend on which other children
share its call (the tests check this for two or more points per call;
every confirm call has at least eight).

The bound delta.  gamma_N = N u / (1 - N u) with
N = 2 (d_k + n + m + 12), which covers every inner-product length below,
and with U the largest row or column sum of |B|:

    rho    = gamma_N Lambda,
    Lambda = 4 + k (pi + 4) + (k/2) log(m+1) + sqrt(k (m+1)) + lgamma(m+k+1) + m log pi,
    delta  = 2 r rho (|c_j|_2 + sqrt(n) U + |W_j|_1),

where c_j is row j of fam.ortho.  The derivation assumes unit lifts and
frame points (to a few u), elementary functions within 2 ulp, and an FFT
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
  <x, y>^k is off by at most e k gamma_N; log, angle, exp, cos and sin
  add u (k (3 pi + 2) + 12) (using a^k k |log a| <= 1/e), the sums
  gamma_N, each weight at most gamma_N U / sqrt(n) (the direct-sum
  bound), so r (sqrt(n) U + |W_j|_1) rho in all.
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
from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldModel, base_boxes, center_lifts
from .kernel import (
    KernelModel,
    SectionExpansion,
    dimension,
    evaluate_sections,
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
    the raw coefficients, which is the plain pairing of the orthonormal
    coefficients: no raw coefficient is ever formed."""
    if (sa.m, sa.k) != (sb.m, sb.k):
        raise CertifyError("sections live on different spaces")
    return complex(np.sum(sa.ortho_coeffs * np.conj(sb.ortho_coeffs)))


def torus_quadrature_inner(sa: SectionExpansion, sb: SectionExpansion) -> complex:
    """Independent oracle for l2_inner on the projective line.

    Exact quadrature in sphere coordinates (u, phi, psi): Gauss-Legendre
    in the area variable u (the integrand is a polynomial in u of degree
    at most k) and equispaced nodes in both angles (trigonometric degree
    at most k each).  Normalized so that <1, 1> at k = 0 equals Vol.
    """
    if sa.m != 1 or sb.m != 1:
        raise CertifyError("quadrature oracle covers m = 1 only")
    if sa.k != sb.k:
        raise CertifyError("sections live on different spaces")
    k = sa.k
    nodes, weights = np.polynomial.legendre.leggauss(k + 2)
    u = 0.5 * (nodes + 1.0)
    na = 2 * k + 3
    ang = 2 * np.pi * np.arange(na) / na
    uu, p1, p2 = np.meshgrid(u, ang, ang, indexing="ij")
    lifts = np.stack(
        [np.sqrt(1 - uu.ravel()) * np.exp(1j * p1.ravel()),
         np.sqrt(uu.ravel()) * np.exp(1j * p2.ravel())],
        axis=1,
    )
    va = sa.evaluate_lifts(lifts).reshape(k + 2, na, na)
    vb = sb.evaluate_lifts(lifts).reshape(k + 2, na, na)
    w = (0.5 * weights)[:, None, None] / na ** 2
    return complex(ManifoldModel(1).volume * np.sum(w * va * np.conj(vb)))


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
    """Certified lower bound for a sup-norm, with its refinement trace."""

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


def _check_mesh(m: int, mesh: int):
    if m not in (1, 2):
        raise CertifyError("sup_norm meshes cover m = 1 and m = 2 only")
    if mesh < 4:
        raise CertifyError("mesh is below the coarse default")


def _base_values(m: int, k: int, ortho_rows, boxes: np.ndarray) -> np.ndarray:
    """|s_j| at the base-mesh cell centres, one row per coefficient vector."""
    return np.abs(evaluate_sections(m, k, ortho_rows, center_lifts(m, boxes)))


def _take(cells: int) -> int:
    """Cells a refinement round splits: the top percent, at least eight."""
    return min(cells, max(8, cells // 100))


@dataclass(frozen=True)
class FrameScreen:
    """Frame-side values of one flat section, for screening refinement cells.

    s(x) = sum_mu weights_mu Phi_mu(x), Phi_mu(x) = root <x, y_mu>^k, with
    conj_points the (m+1, n) conjugated frame points y_mu.  Terms with
    |<x, y_mu>| < cut are dropped, at most root u |weights|_1 in all.
    |values(x) - |s(x)|| <= delta holds against the monomial evaluation
    of the same section (module docstring).
    """

    k: int
    conj_points: np.ndarray
    weights: np.ndarray
    root: float
    cut: float
    delta: float

    def values(self, lifts: np.ndarray) -> np.ndarray:
        """|s| at the lifts, from the kept terms of the kernel block only
        (about 47 of 511 per lift at m=1 k=800); the row sums are
        bincounts over those terms, not a dense product."""
        g = lifts @ self.conj_points
        flat = np.flatnonzero(np.abs(g) >= self.cut)
        rows, cols = np.divmod(flat, g.shape[1])
        kept = g.ravel()[flat]
        mag = np.exp(self.k * np.log(np.abs(kept)))
        phase = self.k * np.angle(kept)
        terms = self.weights[cols] * (mag * np.cos(phase) + 1j * (mag * np.sin(phase)))
        count = len(lifts)
        return self.root * np.hypot(np.bincount(rows, terms.real, count),
                                    np.bincount(rows, terms.imag, count))


def _rounding_level(m: int, k: int, n: int) -> float:
    """rho = gamma_N Lambda, the relative rounding level of both routes
    (module docstring)."""
    count = 2 * (dimension(m, k) + n + m + 12)
    gamma = count * UNIT_ROUNDOFF / (1 - count * UNIT_ROUNDOFF)
    spread = (4 + k * (math.pi + 4) + 0.5 * k * math.log(m + 1)
              + math.sqrt(k * (m + 1)) + math.lgamma(m + k + 1) + m * math.log(math.pi))
    return gamma * spread


def frame_screens(fam, points: np.ndarray, entries: np.ndarray) -> list:
    """One FrameScreen per row of fam.ortho, from the frame points and the
    whitening matrix B the family was mixed from (fam.ortho = F B Psi)."""
    n = fam.n
    if np.shape(points) != (n, fam.m + 1) or np.shape(entries) != (n, n):
        raise CertifyError("frame points or whitening matrix do not match the family")
    rho = _rounding_level(fam.m, fam.k, n)
    root = math.sqrt(KernelModel(fam.m, fam.k).diag)
    cut = UNIT_ROUNDOFF ** (1.0 / fam.k) if fam.k else 0.0
    mags = np.abs(entries)
    mapnorm = max(float(np.max(mags.sum(axis=0))), float(np.max(mags.sum(axis=1))))
    weights = np.fft.ifft(entries, axis=0, norm="ortho")  # = dft_matrix(n) @ B
    conj = points.conj().T
    scale = np.linalg.norm(fam.ortho, axis=1) + math.sqrt(n) * mapnorm
    scale += np.sum(np.abs(weights), axis=1)
    return [FrameScreen(k=fam.k, conj_points=conj, weights=w, root=root, cut=cut,
                        delta=2 * root * rho * float(sc))
            for w, sc in zip(weights, scale)]


def _refined_values(s: SectionExpansion, lifts: np.ndarray,
                    screen: FrameScreen | None) -> np.ndarray:
    """|s| at the refinement children, by s.evaluate_lifts.  With a screen,
    only the children whose screen value is within 2 delta of the _take-th
    largest are evaluated; the rest get -inf, as no such child can be in
    the next round's top cells or be the round maximum."""
    if screen is None:
        return np.abs(s.evaluate_lifts(lifts))
    approx = screen.values(lifts)
    take = _take(len(approx))
    edge = np.partition(approx, -take)[-take]
    confirm = np.flatnonzero(approx >= edge - 2 * screen.delta)
    vals = np.full(len(lifts), -np.inf)
    vals[confirm] = np.abs(s.evaluate_lifts(lifts[confirm]))
    return vals


def sup_norm(s: SectionExpansion, mesh: int = 16, rounds: int = 16,
             base: np.ndarray | None = None,
             screen: FrameScreen | None = None) -> SupNormEstimate:
    """Mesh maximum of |s| at unit lifts, with greedy refinement.

    Splits the top percent (at least eight) of cells by center value
    until a full refinement round improves the estimate by under 0.1%.
    The estimate only ever grows, so it is always a valid lower bound.
    base, when given, holds |s| at the base-mesh centres, as evaluated
    for a whole family by certify_family; otherwise it is computed here.
    screen, when given, is this section's FrameScreen: each round then
    evaluates exactly only the children that can win (module docstring),
    and the estimate is the one the full evaluation gives.  Every reported
    value is a monomial value from s.evaluate_lifts, and evaluations
    counts the cells examined, screened out or not.
    """
    _check_mesh(s.m, mesh)
    boxes = base_boxes(s.m, mesh)
    vals = _base_values(s.m, s.k, [s.ortho_coeffs], boxes)[0] if base is None else base
    if vals.shape != (len(boxes),):
        raise CertifyError("base values do not match the base mesh")
    best = float(np.max(vals))
    evals = len(vals)
    history = [best]
    used = 0
    increment = 0.0
    for _ in range(rounds):
        # the take largest values, exact ties broken by cell index, so the
        # choice does not depend on which other cells a round evaluated
        top = np.argsort(-vals, kind="stable")[:_take(len(vals))]
        boxes = _split_boxes(boxes[top])
        vals = _refined_values(s, center_lifts(s.m, boxes), screen)
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
    """Sup estimates and exact L^2 norms of one flat family, row by row."""

    k: int
    m: int
    sup_estimates: tuple
    l2_norms: tuple


def certify_family(fam, mesh: int, rounds: int, points: np.ndarray | None = None,
                   entries: np.ndarray | None = None) -> NormCertificate:
    """sup_norm of every row of fam.ortho and its exact L^2 norm, the
    Euclidean norm of the row; the one producer of a family's sups.

    The base mesh is evaluated once for a block of rows (all of them
    unless their values pass BASE_BLOCK_ENTRIES).  Given the frame points
    and the whitening matrix of the family, each section's refinement is
    screened by its FrameScreen; the estimates equal the unscreened ones
    field by field.  A sup under the flatness floor l2 / sqrt(Vol), less
    0.1%, raises: every section reaches its L^2 average somewhere.
    """
    _check_mesh(fam.m, mesh)
    boxes = base_boxes(fam.m, mesh)
    block = max(1, int(BASE_BLOCK_ENTRIES // len(boxes)))
    unscreened = points is None and entries is None
    screens = [None] * fam.n if unscreened else frame_screens(fam, points, entries)
    sups = []
    for lo in range(0, fam.n, block):
        rows = fam.ortho[lo:lo + block]
        base = _base_values(fam.m, fam.k, rows, boxes)
        sups += [sup_norm(SectionExpansion.from_ortho(fam.m, fam.k, row),
                          mesh=mesh, rounds=rounds, base=vals, screen=scr)
                 for row, vals, scr in zip(rows, base, screens[lo:lo + block])]
    l2s = [float(np.linalg.norm(row)) for row in fam.ortho]
    root_vol = math.sqrt(ManifoldModel(fam.m).volume)
    for est, l2 in zip(sups, l2s):
        floor = l2 / root_vol * (1 - 1e-3)
        if est.value < floor:
            raise CertifyError(
                "sup estimate %.6f under the flatness floor %.6f" % (est.value, floor)
            )
    return NormCertificate(k=fam.k, m=fam.m, sup_estimates=tuple(sups),
                           l2_norms=tuple(l2s))


@dataclass(frozen=True)
class PolynomialRecord:
    """A section as a homogeneous polynomial on the ambient space."""

    k: int
    m: int
    exponents: np.ndarray
    coeffs: np.ndarray
    sup: SupNormEstimate
    l2: float
    sphere_ratio: float  # sup over the unit sphere / sphere L^2 norm

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "exponents": self.exponents.tolist(),
            "coeffs re": self.coeffs.real.tolist(),
            "coeffs im": self.coeffs.imag.tolist(),
            "sup": self.sup.to_dict(),
            "l2": self.l2,
            "sphere ratio": self.sphere_ratio,
        }


def emit_polynomials(fam, cert: NormCertificate) -> list:
    """Sections as polynomial records with their sphere flatness ratios.

    |s(z)|_h at a point equals |p(x)| at any unit lift x, so the metric
    sup over the manifold and the sup over the sphere coincide, and the
    sphere ratio is the manifold ratio rescaled by sqrt(Vol) >= 1.  The
    sups and L^2 norms are those of cert, certify_family's output for
    this family.  The raw coefficients row * inv_sqrt_weights are formed
    here only; where they overflow (m = 1 from about k = 2060) the
    family cannot be written as polynomials and CertifyError is raised.
    """
    if (cert.m, cert.k, len(cert.sup_estimates)) != (fam.m, fam.k, fam.n):
        raise CertifyError("certificate was computed for another family")
    exponents = multi_indices(fam.m, fam.k)
    to_raw = monomial_table(fam.m, fam.k).inv_sqrt_weights
    root_vol = math.sqrt(ManifoldModel(fam.m).volume)
    records = []
    for row, est, l2 in zip(fam.ortho, cert.sup_estimates, cert.l2_norms):
        if l2 == 0.0:
            raise CertifyError("zero section has no flatness ratio")
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = row * to_raw
        if not np.all(np.isfinite(coeffs)):
            raise CertifyError("raw monomial coefficients overflow at k=%d" % fam.k)
        records.append(
            PolynomialRecord(k=fam.k, m=fam.m, exponents=exponents, coeffs=coeffs,
                             sup=est, l2=l2, sphere_ratio=est.value * root_vol / l2)
        )
    return records


def select_flat_sequence(records_by_k: dict) -> dict:
    """Per level, the record with the smallest sphere flatness ratio."""
    out = {}
    for k, records in records_by_k.items():
        if not records:
            raise CertifyError("no records at level %d" % k)
        out[k] = min(records, key=lambda r: r.sphere_ratio)
    return out


@dataclass(frozen=True)
class EigenfunctionRecord:
    k: int
    m: int
    lam: int  # k(k + 2m)
    part: str  # "re" | "im"
    l2: float  # sphere L^2 norm of the chosen real part
    residual: float
    step: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "lambda": self.lam,
            "part": self.part,
            "l2": self.l2,
            "residual": self.residual,
            "step": self.step,
            "samples": self.samples,
        }


def _real_values(section: SectionExpansion, vectors: np.ndarray, part: str,
                 k: int) -> np.ndarray:
    """Degree-zero extension of the chosen real part off the sphere."""
    vals = section.evaluate_lifts(vectors)
    r = np.linalg.norm(vectors, axis=1)
    scaled = vals / r ** k
    return scaled.real if part == "re" else scaled.imag


def fd_laplacian_residual(section: SectionExpansion, part: str, lam: float,
                          points: np.ndarray, h: float) -> float:
    """Max relative defect of the eigen equation at the given lifts.

    Fourth-order central differences of the degree-zero homogeneous
    extension: its ambient Laplacian at the sphere equals the spherical
    one, and the sign convention puts the spectrum at +k(k+2m).  The
    high-order stencil tolerates the evaluation noise of long coefficient
    sums, keeping the defect well under 1e-6 at every tested level.
    """
    k, m = section.k, section.m
    npts, dim = points.shape[0], 2 * (m + 1)
    reals = np.empty((npts, dim))
    reals[:, 0::2] = points.real
    reals[:, 1::2] = points.imag
    stencil = [reals]
    for d in range(dim):
        for mult in (2.0, 1.0, -1.0, -2.0):
            shifted = reals.copy()
            shifted[:, d] += mult * h
            stencil.append(shifted)
    stacked = np.concatenate(stencil, axis=0)
    z = stacked[:, 0::2] + 1j * stacked[:, 1::2]
    f = _real_values(section, z, part, k).reshape(4 * dim + 1, npts)
    lap = np.zeros(npts)
    for d in range(dim):
        f2p, f1p, f1m, f2m = f[4 * d + 1], f[4 * d + 2], f[4 * d + 3], f[4 * d + 4]
        lap += (-f2p + 16 * f1p - 30 * f[0] + 16 * f1m - f2m) / (12 * h ** 2)
    scale = lam * max(float(np.max(np.abs(f[0]))), 1e-300)
    return float(np.max(np.abs(lap + lam * f[0])) / scale)


def emit_eigenfunction(rec: PolynomialRecord, seed: int = 5) -> EigenfunctionRecord:
    """Real eigenfunction from a polynomial record, with an FD check at
    24 random unit lifts and step 0.01 / k.

    The real and imaginary parts have equal sphere L^2 norms whenever
    k >= 1 (the square of the polynomial integrates to zero over the
    phase circle), so the tie goes to the real part; at k = 0 the larger
    constant wins.
    """
    k, m = rec.k, rec.m
    if not np.any(rec.coeffs):
        raise CertifyError("zero polynomial has no eigenfunction")
    section = SectionExpansion.from_coeffs(m, k, rec.coeffs)
    # sphere measure is normalized, so sphere norms are manifold norms / sqrt(Vol)
    sphere_l2 = section.l2_norm() / math.sqrt(ManifoldModel(m).volume)
    if k == 0:
        c = complex(rec.coeffs[0])
        part = "re" if abs(c.real) >= abs(c.imag) else "im"
        l2 = abs(c.real) if part == "re" else abs(c.imag)
    else:
        part = "re"
        l2 = sphere_l2 / math.sqrt(2)
    lam = k * (k + 2 * m)
    samples = 24
    step = 0.01 / max(k, 1)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((samples, m + 1)) + 1j * rng.standard_normal((samples, m + 1))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    if k == 0:
        residual = 0.0  # constant: the equation is 0 = 0
    else:
        residual = fd_laplacian_residual(section, part, lam, pts, step)
    return EigenfunctionRecord(k=k, m=m, lam=lam, part=part, l2=l2,
                               residual=residual, step=step, samples=samples)

