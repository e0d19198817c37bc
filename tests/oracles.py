"""Test oracles that several test files share.

The package holds the pipeline only; these closed forms and bookkeeping
helpers are what the tests check it against.  A helper that one test file
uses lives in that file.
"""

import math

import numpy as np

from flatsections import certify, constants
from flatsections.geometry import (
    GeometryError,
    base_boxes,
    center_lifts,
    distinct_base,
    exp_chart_vectors,
)
from flatsections.kernel import (
    SectionExpansion,
    evaluate_sections,
    log_normalized_from_distance,
    monomial_table,
)


def fs_distance(z, w) -> float:
    """Geodesic distance between the points of two unit vectors, valued in
    [0, pi/2]: atan2(|w - c z|, |c|) with c = <z, w>, the sine and cosine
    of the distance.  arccos |c| cannot resolve distances below
    sqrt(2u) ~ 1.5e-8, where |c| rounds to within an ulp of 1."""
    c = np.vdot(z, w)
    return math.atan2(float(np.linalg.norm(w - c * z)), abs(c))


def normalized_from_distance(k: int, d):
    """cos^k(d) evaluated as exp(k log cos d); exactly 0 at the cut locus."""
    out = np.exp(log_normalized_from_distance(k, d))
    return float(out) if np.ndim(out) == 0 else out


def section_from_raw(m: int, k: int, coeffs) -> SectionExpansion:
    """Section with the given coefficients over the plain monomials
    z^alpha; its orthonormal coefficients are coeffs * sqrt(w_alpha)."""
    sqrt_w = np.exp(0.5 * monomial_table(m, k).log_weights)
    return SectionExpansion.from_ortho(m, k, np.asarray(coeffs, dtype=np.complex128) * sqrt_w)


def raw_coeffs(m: int, k: int, ortho) -> np.ndarray:
    """Coefficients over the plain monomials z^alpha of the orthonormal
    coefficients ortho: ortho / sqrt(w_alpha).  These overflow float64 at
    m = 1 from about k = 2060, which is why the package never forms them."""
    return np.asarray(ortho) * np.exp(-0.5 * monomial_table(m, k).log_weights)


def full_base_values(m: int, k: int, ortho_rows, boxes: np.ndarray) -> np.ndarray:
    """|s_j| at the centres of mesh cells, every cell evaluated at its own
    lift, one row per coefficient vector: the base mesh without the twin
    map of geometry.base_twins."""
    return np.abs(evaluate_sections(m, k, ortho_rows, center_lifts(m, boxes)))


def base_values(m: int, k: int, ortho_rows, mesh: int) -> np.ndarray:
    """|s_j| at the centres of base_boxes(m, mesh), one row per
    coefficient vector, on the twin-mapped base mesh: only the cells
    distinct_base keeps are evaluated, and every other cell
    takes its twin's value, its own to within rounding of the lift; at
    m = 1 that is every cell."""
    rank, lifts = distinct_base(m, mesh)
    return np.abs(evaluate_sections(m, k, ortho_rows, lifts))[:, rank]


def unscreened_sups(m: int, k: int, ortho_rows, mesh: int, rounds: int) -> tuple:
    """The SupNormEstimate of each coefficient vector without the frame:
    base_values, then each section refined alone, with every child of its
    top cells evaluated by evaluate_lifts.  The cells are chosen and split
    by the package's own _top_cells (the _take largest, ties to the lower
    index) and _split_boxes, so certify_family's screened estimates must
    equal these field by field.  The stopping rule is written out here
    rather than read from the package, so that the two stay independent."""
    sups = []
    for row, vals in zip(ortho_rows, base_values(m, k, ortho_rows, mesh)):
        section = SectionExpansion.from_ortho(m, k, row)
        boxes = base_boxes(m, mesh)
        best = float(np.max(vals))
        history, evals, used, increment = [best], len(vals), 0, 0.0
        for _ in range(rounds):
            boxes = certify._split_boxes(boxes[certify._top_cells(vals)])
            vals = np.abs(section.evaluate_lifts(center_lifts(m, boxes)))
            evals += len(vals)
            used += 1
            new_best = max(best, float(np.max(vals)))
            increment = new_best - best
            best = new_best
            history.append(best)
            if increment < 1e-3 * max(best, 1e-300):
                break
        sups.append(certify.SupNormEstimate(
            value=best, mesh=mesh, rounds_used=used, last_increment=increment,
            evaluations=evals, history=tuple(history)))
    return tuple(sups)


def distortion_estimate(chart, nsamples: int = 10000, seed: int = 0) -> float:
    """geometry.distortion_estimate as it was first written: the region
    test on every draw of a batch, and the exp lifts of the kept draws
    computed again for the pair distances."""
    rng = np.random.default_rng(seed)
    m = chart.m
    dim = 2 * m
    rad = chart.region.circumradius(m)
    want = 2 * nsamples
    vs = []
    total = 0
    while total < want:
        batch = rng.uniform(-rad, rad, size=(4 * want, dim))
        keep = batch[np.asarray(chart.region.contains(batch, exp_chart_vectors(chart, batch)))]
        vs.append(keep)
        total += keep.shape[0]
        if not keep.size:
            raise GeometryError("region rejected every distortion sample")
    pts = np.concatenate(vs)[:want]
    a, b = pts[:nsamples], pts[nsamples:]
    chord = np.linalg.norm(a - b, axis=1)
    mask = chord > 1e-9
    a, b, chord = a[mask], b[mask], chord[mask]
    za = exp_chart_vectors(chart, a)
    zb = exp_chart_vectors(chart, b)
    geo = np.arccos(np.clip(np.abs(np.sum(za.conj() * zb, axis=1)), 0.0, 1.0))
    ratio = chord / geo
    return float(max(ratio.max(), (1.0 / ratio).max()))


def eta_from_cubic_density(beta: float, m: int) -> float:
    """Gram-perturbation level eta implied by running a cubic lattice at
    density fraction beta: spacing a = sqrt(pi / beta^{1/m}) and
    eta = theta_1d(a)^{2m} - 1.  Strictly below 1 for beta < beta_m."""
    if not 0 < beta:
        raise constants.ConstantsError("density fraction must be positive")
    a = math.sqrt(math.pi / beta ** (1.0 / m))
    return constants.theta_1d(a) ** (2 * m) - 1.0


def density_threshold(ratios: dict, beta: float):
    """Smallest k in a {k: n_k/d_k} record from which the ratio stays
    above beta; None when the tail never clears it."""
    k0 = None
    for k in sorted(ratios):
        if ratios[k] > beta:
            if k0 is None:
                k0 = k
        else:
            k0 = None
    return k0
