"""Geometry of complex projective space with the Fubini-Study metric.

Normalization: the Kahler form is half the curvature of the hyperplane
bundle metric, so CP^m has volume pi^m / m! and CP^1 is a round sphere of
radius 1/2 (diameter pi/2); volume(m) is that constant.  Points are unit
vectors in C^{m+1} modulo phase, and the package holds every point as a
plain (m+1,) unit vector (one lift, any phase) or as a row of such
vectors; canonical_rows picks the lift whose first non-negligible
coordinate is real and positive, for chart centres (canonical_point) and
frame points alike.  Moment coordinates, the equal-area mesh and the map
of its twin cells, exponential charts, chart distortion estimates,
geodesic-ball volumes, and the covers and cell decompositions used by the
lattice builders all live here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Entries below this relative size are treated as zero when picking the
# canonical phase of a homogeneous vector.
PHASE_TOL = 1e-12

HALF_PI = math.pi / 2.0


class GeometryError(ValueError):
    pass


def volume(m: int) -> float:
    """Fubini-Study volume of CP^m: pi^m / m!."""
    if m < 1:
        raise GeometryError("complex dimension m must be >= 1")
    return math.pi ** m / math.factorial(m)


def canonical_rows(pts: np.ndarray) -> np.ndarray:
    """Canonical representatives of rows of nonzero vectors: each row
    rotated so its first entry above PHASE_TOL times its largest is real
    and positive, then divided by its norm.  The phase multiplication
    preserves the modulus only up to rounding, and downstream code relies
    on exact unit norm."""
    mags = np.abs(pts)
    lead = np.argmax(mags > PHASE_TOL * mags.max(axis=1, keepdims=True), axis=1)
    lv = np.take_along_axis(pts, lead[:, None], axis=1)[:, 0]
    out = pts * (np.abs(lv) / lv)[:, None]
    return out / np.linalg.norm(out, axis=1)[:, None]


def as_unit_vector(values) -> np.ndarray:
    """values as a flat complex vector divided by its norm."""
    v = np.asarray(values, dtype=np.complex128).reshape(-1)
    n = np.linalg.norm(v)
    if not np.isfinite(n) or n == 0.0:
        raise GeometryError("homogeneous vector must be nonzero and finite")
    return v / n


def canonical_point(values) -> np.ndarray:
    """The canonical unit representative of the point [values] of CP^m,
    read-only: unit norm and a real positive first non-negligible
    coordinate (canonical_rows), so equal points have arrays equal to
    within a few ulp."""
    v = canonical_rows(as_unit_vector(values)[None, :])[0]
    v.flags.writeable = False
    return v


def standard_point(m: int, index: int = 0) -> np.ndarray:
    v = np.zeros(m + 1, dtype=np.complex128)
    v[index] = 1.0
    return canonical_point(v)


def _folds(coords: np.ndarray) -> np.ndarray:
    """Which rows of m = 2 moment coordinates (a, b, t1, t2) moment_lifts
    folds: a + b > 1."""
    return coords[:, 0] + coords[:, 1] > 1


def moment_lifts(m: int, coords: np.ndarray) -> np.ndarray:
    """Unit lifts (z_0 >= 0 real) from moment coordinates, one row each.

    m = 1 reads (u, theta) as z_1 = sqrt(u) e^{i theta}; m = 2 reads
    (a, b, t1, t2), folds (a, b) from the unit square onto the simplex
    a + b <= 1 by (a, b) -> (1 - a, 1 - b) where a + b > 1, which keeps the
    uniform measure, and sets z_1 = sqrt(a) e^{i t1}, z_2 = sqrt(b) e^{i t2}.
    Uniform coordinates give lifts uniform for the volume.  The fold maps
    the square two to one, so a folded point is, to within rounding, the
    lift of its unfolded mirror (base_twins).
    """
    if m == 1:
        u, th = coords[:, 0], coords[:, 1]
        return np.stack([np.sqrt(1 - u) + 0j, np.sqrt(u) * np.exp(1j * th)], axis=1)
    if m != 2:
        raise GeometryError("moment coordinates cover m = 1 and m = 2 only")
    a, b, t1, t2 = coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]
    over = _folds(coords)
    a = np.where(over, 1 - a, a)
    b = np.where(over, 1 - b, b)
    w = np.maximum(1 - a - b, 0.0)
    return np.stack(
        [np.sqrt(w) + 0j, np.sqrt(a) * np.exp(1j * t1), np.sqrt(b) * np.exp(1j * t2)],
        axis=1,
    )


@functools.lru_cache(maxsize=8)
def base_boxes(m: int, per_dim: int) -> np.ndarray:
    """The equal-area base mesh: per_dim cells along each moment
    coordinate, as (cells, dims, 2) lower and upper edges (cached and
    read-only).  Its cell centres, center_lifts(m, boxes), are uniform for
    the volume; the sup-norm search and the F_k search both start there.
    Cell (i_0, i_1, ...) is row i_0 per_dim^{dims-1} + i_1 per_dim^{dims-2}
    + ..., the first coordinate slowest.  At m = 2 the fold of
    moment_lifts makes the cells with a + b > 1 twins of their mirrors in
    (a, b), so the searches evaluate only the cells base_twins keeps."""
    if m == 1:
        spans = [(0.0, 1.0), (0.0, 2 * np.pi)]
    else:
        spans = [(0.0, 1.0), (0.0, 1.0), (0.0, 2 * np.pi), (0.0, 2 * np.pi)]
    axes = []
    for lo, hi in spans:
        edges = np.linspace(lo, hi, per_dim + 1)
        axes.append(np.stack([edges[:-1], edges[1:]], axis=1))
    grids = np.meshgrid(*[np.arange(per_dim)] * len(spans), indexing="ij")
    flat = [g.ravel() for g in grids]
    boxes = np.empty((per_dim ** len(spans), len(spans), 2))
    for d, (ax, ix) in enumerate(zip(axes, flat)):
        boxes[:, d, :] = ax[ix]
    boxes.flags.writeable = False
    return boxes


@functools.lru_cache(maxsize=8)
def base_twins(m: int, per_dim: int) -> np.ndarray:
    """For each cell of base_boxes(m, per_dim), the cell whose centre lift
    is evaluated in its place (cached and read-only).

    At m = 2 the fold of moment_lifts sends a centre (a, b) with a + b > 1
    to (1 - a, 1 - b), the centre of the cell mirrored in both a and b,
    with the same angles.  Such a cell takes its mirror as its twin only
    when the mirror's centre does not fold itself; every other cell is its
    own twin.  The check matters on the anti-diagonal, where a + b = 1 up
    to rounding and a cell and its mirror can both fold: at per_dim 10 the
    centres (0.35, 0.65) and (0.65, 0.35) both sum above 1 by rounding
    (200 cells), so each folds onto the other's centre and their lifts lie
    0.21 apart.  With the check a cell's lift is within 4.4e-16 of its
    twin's for per_dim 2 to 16; 756 of the 1296 cells are distinct at
    per_dim 6, and 7986 of 14641 at per_dim 11.  At m = 1 nothing folds
    and the map is the identity.
    """
    boxes = base_boxes(m, per_dim)
    twins = np.arange(len(boxes))
    if m == 2:
        folds = _folds(_centres(boxes))
        mirror = twins.reshape((per_dim,) * 4)[::-1, ::-1].ravel()
        twins = np.where(folds & ~folds[mirror], mirror, twins)
    twins.flags.writeable = False
    return twins


def distinct_base(m: int, per_dim: int) -> tuple:
    """(rank, lifts): the centre lifts of the cells of base_boxes(m, per_dim)
    that base_twins maps to themselves, and for each cell the index of
    its twin among them."""
    twins = base_twins(m, per_dim)
    kept = twins == np.arange(len(twins))
    return (np.cumsum(kept) - 1)[twins], center_lifts(m, base_boxes(m, per_dim)[kept])


def _centres(boxes: np.ndarray) -> np.ndarray:
    return 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])


def center_lifts(m: int, boxes: np.ndarray) -> np.ndarray:
    """Unit lifts at the centres of mesh cells in moment coordinates."""
    return moment_lifts(m, _centres(boxes))


# ---------------------------------------------------------------------------
# chart regions


@dataclass(frozen=True)
class CubeRegion:
    """Axis cube [-t, t]^{2m} in tangent coordinates."""

    t: float

    def circumradius(self, m: int) -> float:
        return self.t * math.sqrt(2 * m)

    def contains(self, v: np.ndarray, lifts) -> np.ndarray:
        v = np.atleast_2d(v)
        return np.all(np.abs(v) <= self.t + 1e-15, axis=1)


@dataclass(frozen=True)
class BallRegion:
    """Euclidean ball of the given radius in tangent coordinates."""

    radius: float

    def circumradius(self, m: int) -> float:
        return self.radius

    def contains(self, v: np.ndarray, lifts) -> np.ndarray:
        v = np.atleast_2d(v)
        return np.linalg.norm(v, axis=1) <= self.radius + 1e-15


@dataclass(frozen=True)
class LatLonCell:
    """CP^1 cell cut from polar coordinates about the first standard point.

    r is the geodesic distance from [1:0] (in [0, pi/2]) and theta the
    phase of z1/z0.  Caps are encoded with theta_lo = 0, theta_hi = 2*pi.
    Intervals are half open in both coordinates so cells tile exactly.
    """

    r_lo: float
    r_hi: float
    theta_lo: float
    theta_hi: float

    def circumradius(self, m: int) -> float:
        # the distance to a point of the cell is maximized at a corner:
        # along each edge |<z, center>|^2 is monotone in cos(dtheta) and
        # in the radial offset, so checking corners (plus the radial
        # midline) is exact.
        rc, tc = self.center_coords()
        corners = []
        for r in (self.r_lo, self.r_hi):
            for th in (self.theta_lo, self.theta_hi):
                corners.append(_latlon_distance(rc, tc, r, th))
            corners.append(_latlon_distance(rc, tc, r, tc))
        return max(corners)

    def center_coords(self) -> tuple:
        if self.r_lo <= 0.0:
            return 0.0, 0.0
        if self.r_hi >= HALF_PI:
            return HALF_PI, 0.0
        return 0.5 * (self.r_lo + self.r_hi), 0.5 * (self.theta_lo + self.theta_hi)

    def center_point(self) -> np.ndarray:
        rc, tc = self.center_coords()
        return canonical_point([math.cos(rc), math.sin(rc) * np.exp(1j * tc)])

    def contains(self, v: np.ndarray, lifts) -> np.ndarray:
        """Membership of exp_center(v) per row, read from lifts, those exp
        lifts already computed (any phase)."""
        r, theta = latlon_coords(lifts)
        ok_r = (r >= self.r_lo) & (r < self.r_hi)
        if self.r_lo <= 0.0:
            ok_r = r < self.r_hi
        if self.r_hi >= HALF_PI:
            ok_r = (r >= self.r_lo) & (r <= HALF_PI)
        if self.theta_hi - self.theta_lo >= 2 * math.pi - 1e-12:
            return ok_r
        return ok_r & (theta >= self.theta_lo) & (theta < self.theta_hi)


def _latlon_distance(r1, t1, r2, t2) -> float:
    q = math.cos(r1) * math.cos(r2) + math.sin(r1) * math.sin(r2) * complex(
        math.cos(t1 - t2), math.sin(t1 - t2)
    )
    return math.acos(min(1.0, abs(q)))


def latlon_coords(points: np.ndarray) -> tuple:
    """(r, theta) polar coordinates on CP^1 for rows of unit vectors."""
    z0 = points[:, 0]
    z1 = points[:, 1]
    r = np.arccos(np.clip(np.abs(z0), 0.0, 1.0))
    theta = np.where(
        np.abs(z0) > PHASE_TOL,
        np.angle(z1 * np.conj(z0) / np.where(np.abs(z0) > 0, np.abs(z0), 1.0)),
        0.0,
    )
    return r, np.mod(theta, 2 * math.pi)


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class ChartSpec:
    """Geodesic normal chart: center (a canonical unit vector), orthonormal
    tangent frame, region.

    gamma is the two-sided distortion bound make_chart derives from the
    region: for v, w in the region,
    |v - w| / gamma <= dist(exp v, exp w) <= gamma |v - w|.
    """

    center: np.ndarray
    frame_matrix: np.ndarray
    region: object
    gamma: float

    @property
    def m(self) -> int:
        return self.center.shape[0] - 1


def _householder_frame(p: np.ndarray) -> np.ndarray:
    """Columns: an orthonormal basis of the complex orthocomplement of p.

    Deterministic construction from the Householder reflection taking the
    first standard basis vector to (a phase multiple of) p.
    """
    n = p.shape[0]
    alpha = p[0]
    omega = alpha / abs(alpha) if abs(alpha) > PHASE_TOL else 1.0
    u = p + omega * np.eye(n, dtype=np.complex128)[0]
    h = np.eye(n, dtype=np.complex128) - 2.0 * np.outer(u, u.conj()) / np.vdot(u, u)
    frame = h[:, 1:]
    # rounding guard: re-orthogonalize against p once.
    frame = frame - np.outer(p, p.conj() @ frame)
    q, _ = np.linalg.qr(frame)
    return q


def make_chart(center: np.ndarray, region, slack: float) -> ChartSpec:
    """The chart at center over region; the one place a chart's gamma is
    computed.

    d exp_p at |v| = rho has singular values 1, sin rho / rho and
    sin 2rho / 2rho (Cheeger-Ebin, Comparison Theorems in Riemannian
    Geometry, 1975), so inside the convexity radius pi/4 a region of
    circumradius R has distortion at most 2R / sin 2R; gamma is that times
    slack (at least 1).  GeometryError unless 0 < R < pi/4.
    """
    rad = region.circumradius(center.shape[0] - 1)
    if not 0 < rad < math.pi / 4:
        raise GeometryError("chart circumradius %.6g lies outside (0, pi/4), "
                            "the convexity radius" % rad)
    gamma = 2 * rad / math.sin(2 * rad) * slack
    frame = _householder_frame(center)
    frame.flags.writeable = False
    return ChartSpec(center=center, frame_matrix=frame, region=region, gamma=gamma)


def _pack_complex(v: np.ndarray) -> np.ndarray:
    """Real tangent coordinates (..., 2m) -> complex (..., m)."""
    v = np.asarray(v, dtype=np.float64)
    return v[..., 0::2] + 1j * v[..., 1::2]


def exp_chart_vectors(chart: ChartSpec, v: np.ndarray) -> np.ndarray:
    """Unit lifts of exp_center(v) for rows v in R^{2m}.

    Radial unit-speed geodesics: dist(center, exp v) = |v| for |v| < pi/2.
    The returned lift is the geodesic formula's own phase; callers wanting
    the canonical phase re-canonicalize.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    c = _pack_complex(v)
    big = chart.frame_matrix @ c.T  # (m+1, n)
    r = np.linalg.norm(v, axis=1)
    p = chart.center[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        direction = np.where(r > 0, big / np.where(r > 0, r, 1.0), 0.0)
    out = np.cos(r) * p + np.sin(r) * direction
    return out.T


def ball_volume(m: int, radius: float) -> float:
    """Fubini-Study volume of a geodesic ball: volume(m) sin^{2m}(radius)."""
    return volume(m) * math.sin(radius) ** (2 * m)


def distortion_estimate(chart: ChartSpec, nsamples: int, seed: int) -> float:
    """Sampled two-sided distortion of the chart over its region.

    Draws pairs in the region, compares geodesic distance of the images
    with the Euclidean distance of the chart coordinates, and returns the
    worst ratio in either direction.  The draws come in batches of
    8 nsamples from the seeded stream, and each batch is tested in chunks
    of nsamples only until 2 nsamples draws are kept.  A lat-lon cell
    tests the exp lifts of its draws, so the kept draws' lifts are reused
    for the distances; a ball or cube tests the coordinates alone, and
    only the kept draws are mapped.  The flag is worth its branch:
    mapping every draw makes the estimate on the seven-ball cover
    (nsamples 2000) about 1.6 times as slow, and on the m = 2 cube about
    2.4 times.
    """
    rng = np.random.default_rng(seed)
    m = chart.m
    rad = chart.region.circumradius(m)
    want = 2 * nsamples
    mapped = isinstance(chart.region, LatLonCell)
    vs, zs = [], []
    total = 0
    while total < want:
        batch = rng.uniform(-rad, rad, size=(4 * want, 2 * m))
        before = total
        for lo in range(0, len(batch), nsamples):
            chunk = batch[lo:lo + nsamples]
            lifts = exp_chart_vectors(chart, chunk) if mapped else None
            keep = np.asarray(chart.region.contains(chunk, lifts))
            vs.append(chunk[keep])
            if mapped:
                zs.append(lifts[keep])
            total += vs[-1].shape[0]
            if total >= want:
                break
        if total == before:
            raise GeometryError("region rejected every distortion sample")
    pts = np.concatenate(vs)[:want]
    a, b = pts[:nsamples], pts[nsamples:]
    chord = np.linalg.norm(a - b, axis=1)
    mask = chord > 1e-9
    chord = chord[mask]
    if mapped:
        lifts = np.concatenate(zs)[:want]
        za, zb = lifts[:nsamples][mask], lifts[nsamples:][mask]
    else:
        za, zb = exp_chart_vectors(chart, a[mask]), exp_chart_vectors(chart, b[mask])
    geo = np.arccos(np.clip(np.abs(np.sum(za.conj() * zb, axis=1)), 0.0, 1.0))
    ratio = chord / geo
    return float(max(ratio.max(), (1.0 / ratio).max()))


# ---------------------------------------------------------------------------
# covers


def cube_cover(m: int, t: float) -> list:
    """The single cube chart [-t, t]^{2m} at the standard point, gamma 0.1%
    above 2R/sin 2R at its corner R = t sqrt(2m); make_chart refuses a
    corner at pi/4 or beyond, so t < pi / (4 sqrt(2m))."""
    return [make_chart(standard_point(m), CubeRegion(t), 1.001)]


def cp1_latlon_cover(max_radius: float) -> list:
    """Exact cell partition of CP^1 by polar caps, bands, and sectors.

    Every cell fits in a geodesic disc of radius max_radius about its own
    center, keeping the per-chart distortion near 2r/sin(2r), r the cell's
    circumradius; each chart's gamma is 0.1% above it.  Bands are
    half open so the cells tile the sphere exactly (defect zero).
    """
    if not 0.05 < max_radius < 0.6:
        raise GeometryError("cell radius outside the supported range")
    r_cap = max_radius
    lo, hi = r_cap, HALF_PI - r_cap
    nbands = max(1, math.ceil((hi - lo) / (1.2 * max_radius)))
    edges = np.linspace(lo, hi, nbands + 1)
    cells = [LatLonCell(0.0, float(edges[0]), 0.0, 2 * math.pi)]
    for i in range(nbands):
        r0, r1 = float(edges[i]), float(edges[i + 1])
        half_h = 0.5 * (r1 - r0)
        w_max = 2.0 * math.sqrt(max(max_radius**2 - half_h**2, 1e-12))
        # widest latitude circle inside the band (length pi sin 2r)
        r_wide = min(max(math.pi / 4, r0), r1)
        circ = math.pi * math.sin(2 * r_wide)
        nsec = max(1, math.ceil(circ / w_max))
        step = 2 * math.pi / nsec
        for s in range(nsec):
            cells.append(LatLonCell(r0, r1, s * step, (s + 1) * step))
    cells.append(LatLonCell(float(edges[-1]), HALF_PI, 0.0, 2 * math.pi))
    return [make_chart(cell.center_point(), cell, 1.001) for cell in cells]


def cp2_ball_cover(radius: float = 0.4) -> list:
    """Disjoint geodesic balls in CP^2 about a fixed 7-point configuration.

    Centers: the three standard points plus the four sign patterns of
    [1:+-1:+-1]/sqrt(3); pairwise distances >= arccos(1/sqrt 3) ~ 0.955,
    so balls of radius < 0.47 are disjoint.  This is a partial cover with
    a large declared covering slack, intended for pipeline smoke runs.
    Each chart's gamma is 1% above 2r/sin(2r).
    """
    if radius >= 0.47:
        raise GeometryError("balls of this radius would overlap")
    centers = [standard_point(2, i) for i in range(3)]
    s = 1.0 / math.sqrt(3.0)
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            centers.append(canonical_point([s, s1 * s, s2 * s]))
    return [make_chart(c, BallRegion(radius), 1.01) for c in centers]


def two_cap_cover(m: int, radius: float) -> list:
    """Two geodesic-ball charts at the standard points e_0 and e_m, each
    gamma 1% above 2r/sin(2r).  The centres are pi/2 apart, so the balls
    are disjoint below the radius pi/4 that make_chart refuses."""
    return [make_chart(standard_point(m, i), BallRegion(radius), 1.01) for i in (0, m)]


def covering_defect(m: int, charts: list) -> float:
    """Volume of the complement of the union of chart images.

    Exact for the covers built here: lat-lon cells tile CP^1 (defect 0 up
    to a measure-zero grid), and ball covers are disjoint by construction
    so the covered volume is a sum of geodesic-ball volumes.
    """
    covered = 0.0
    for chart in charts:
        region = chart.region
        if isinstance(region, LatLonCell):
            covered += (
                (math.sin(region.r_hi) ** 2 - math.sin(region.r_lo) ** 2)
                * (region.theta_hi - region.theta_lo)
                / 2.0
            )
        elif isinstance(region, BallRegion):
            covered += ball_volume(m, region.radius)
        else:
            raise GeometryError(
                "no closed-form volume for a %s chart region" % type(region).__name__
            )
    return max(0.0, volume(m) - covered)
