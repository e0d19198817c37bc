"""Geometry of complex projective space with the Fubini-Study metric.

Normalization: the Kahler form is half the curvature of the hyperplane
bundle metric, so CP^m has volume pi^m / m! and CP^1 is a round sphere of
radius 1/2 (diameter pi/2).  Points are unit vectors in C^{m+1} modulo
phase; distances, exponential charts, chart distortion estimates, volume
densities, and cell decompositions used by the lattice builders all live
here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Entries below this relative size are treated as zero when picking the
# canonical phase of a homogeneous vector.
PHASE_TOL = 1e-12

# Geodesic distance beyond which log_map refuses to invert (cut locus).
CUT_LOCUS_MARGIN = 1e-9

HALF_PI = math.pi / 2.0


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class ManifoldModel:
    """CP^m with the Fubini-Study metric scaled to volume pi^m/m!."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise GeometryError("complex dimension m must be >= 1")

    @property
    def volume(self) -> float:
        return math.pi ** self.m / math.factorial(self.m)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its first non-negligible entry is real and positive."""
    norms = np.abs(v)
    lead = np.argmax(norms > PHASE_TOL * norms.max())
    w = v * (norms[lead] / v[lead])
    # re-normalize; the phase multiplication is modulus-preserving up to
    # rounding, and downstream code relies on exact unit norm.
    return w / np.linalg.norm(w)


def _as_unit_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128).reshape(-1)
    n = np.linalg.norm(v)
    if not np.isfinite(n) or n == 0.0:
        raise GeometryError("homogeneous vector must be nonzero and finite")
    return v / n


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of CP^m held as its canonical unit representative.

    The canonical representative has unit norm and a real positive first
    non-negligible coordinate, so equal points have equal arrays.
    """

    homogeneous: np.ndarray

    @classmethod
    def from_vector(cls, values) -> "ProjectivePoint":
        v = _canonical_phase(_as_unit_vector(values))
        v.flags.writeable = False
        return cls(homogeneous=v)

    @property
    def m(self) -> int:
        return self.homogeneous.shape[0] - 1

    def lift(self) -> "UnitLift":
        """Canonical-phase unit lift (the default circle-bundle lift)."""
        return UnitLift(vector=self.homogeneous, point=self)

    def almost_equal(self, other: "ProjectivePoint", tol: float = 1e-12) -> bool:
        return fs_distance(self, other) <= tol


@dataclass(frozen=True)
class UnitLift:
    """A unit vector over a projective point; the phase is free data."""

    vector: np.ndarray
    point: ProjectivePoint

    @classmethod
    def from_vector(cls, values) -> "UnitLift":
        v = _as_unit_vector(values)
        v.flags.writeable = False
        return cls(vector=v, point=ProjectivePoint.from_vector(v))


def standard_point(m: int, index: int = 0) -> ProjectivePoint:
    v = np.zeros(m + 1, dtype=np.complex128)
    v[index] = 1.0
    return ProjectivePoint.from_vector(v)


def fs_distance(z: ProjectivePoint, w: ProjectivePoint) -> float:
    """Geodesic distance arccos |<z, w>|, valued in [0, pi/2]."""
    q = abs(np.vdot(w.homogeneous, z.homogeneous))
    return math.acos(min(1.0, q))


def fs_distance_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise arccos |<a_i, b_j>| for stacks of unit vectors (rows)."""
    q = np.abs(a @ b.conj().T)
    return np.arccos(np.clip(q, -1.0, 1.0))


def moment_lifts(m: int, coords: np.ndarray) -> np.ndarray:
    """Unit lifts (z_0 >= 0 real) from moment coordinates, one row each.

    m = 1 reads (u, theta) as z_1 = sqrt(u) e^{i theta}; m = 2 reads
    (a, b, t1, t2), folds (a, b) from the unit square onto the simplex
    a + b <= 1, which keeps the uniform measure, and sets
    z_1 = sqrt(a) e^{i t1}, z_2 = sqrt(b) e^{i t2}.  Uniform coordinates
    give lifts uniform for the volume.
    """
    if m == 1:
        u, th = coords[:, 0], coords[:, 1]
        return np.stack([np.sqrt(1 - u) + 0j, np.sqrt(u) * np.exp(1j * th)], axis=1)
    if m != 2:
        raise GeometryError("moment coordinates cover m = 1 and m = 2 only")
    a, b, t1, t2 = coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]
    over = a + b > 1
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
    the volume; the sup-norm search and the F_k search both start there."""
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


def center_lifts(m: int, boxes: np.ndarray) -> np.ndarray:
    """Unit lifts at the centres of mesh cells in moment coordinates."""
    return moment_lifts(m, 0.5 * (boxes[:, :, 0] + boxes[:, :, 1]))


# ---------------------------------------------------------------------------
# chart regions


@dataclass(frozen=True)
class CubeRegion:
    """Axis cube [-t, t]^{2m} in tangent coordinates."""

    t: float
    kind: str = field(default="cube", init=False)

    def circumradius(self, m: int) -> float:
        return self.t * math.sqrt(2 * m)

    def contains(self, chart: "ChartSpec", v: np.ndarray, lifts=None) -> np.ndarray:
        v = np.atleast_2d(v)
        return np.all(np.abs(v) <= self.t + 1e-15, axis=1)


@dataclass(frozen=True)
class BallRegion:
    """Euclidean ball of the given radius in tangent coordinates."""

    radius: float
    kind: str = field(default="ball", init=False)

    def circumradius(self, m: int) -> float:
        return self.radius

    def contains(self, chart: "ChartSpec", v: np.ndarray, lifts=None) -> np.ndarray:
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
    kind: str = field(default="latlon", init=False)

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

    def center_point(self) -> ProjectivePoint:
        rc, tc = self.center_coords()
        return ProjectivePoint.from_vector(
            [math.cos(rc), math.sin(rc) * np.exp(1j * tc)]
        )

    def contains(self, chart: "ChartSpec", v: np.ndarray, lifts=None) -> np.ndarray:
        """Membership of exp_center(v) per row; lifts, when given, are
        those exp lifts already computed (any phase)."""
        if lifts is None:
            lifts = exp_chart_vectors(chart, np.atleast_2d(v))
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
    """Geodesic normal chart: center, orthonormal tangent frame, region.

    gamma is the declared two-sided distortion bound: for v, w in the
    region, |v - w| / gamma <= dist(exp v, exp w) <= gamma |v - w|.
    """

    center: ProjectivePoint
    frame_matrix: np.ndarray
    region: object
    gamma: float

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise GeometryError("distortion gamma must exceed 1")

    @property
    def m(self) -> int:
        return self.center.m


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


def make_chart(center: ProjectivePoint, region, gamma: float) -> ChartSpec:
    frame = _householder_frame(center.homogeneous)
    frame.flags.writeable = False
    return ChartSpec(center=center, frame_matrix=frame, region=region, gamma=gamma)


def _pack_complex(v: np.ndarray) -> np.ndarray:
    """Real tangent coordinates (..., 2m) -> complex (..., m)."""
    v = np.asarray(v, dtype=np.float64)
    return v[..., 0::2] + 1j * v[..., 1::2]


def _unpack_complex(c: np.ndarray) -> np.ndarray:
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],), dtype=np.float64)
    out[..., 0::2] = c.real
    out[..., 1::2] = c.imag
    return out


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
    p = chart.center.homogeneous[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        direction = np.where(r > 0, big / np.where(r > 0, r, 1.0), 0.0)
    out = np.cos(r) * p + np.sin(r) * direction
    return out.T


def exp_map(chart: ChartSpec, v) -> ProjectivePoint:
    """exp at the chart center; v must stay inside the doubled region."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != 2 * chart.m:
        raise GeometryError("tangent vector has wrong dimension")
    _check_in_doubled_region(chart, v)
    lift = exp_chart_vectors(chart, v[None, :])[0]
    return ProjectivePoint.from_vector(lift)


def _check_in_doubled_region(chart: ChartSpec, v: np.ndarray):
    region = chart.region
    if isinstance(region, CubeRegion):
        ok = np.all(np.abs(v) <= 2 * region.t + 1e-12)
    else:
        ok = np.linalg.norm(v) <= 2 * region.circumradius(chart.m) + 1e-12
    if not ok:
        raise GeometryError("tangent vector outside the doubled chart region")
    if np.linalg.norm(v) >= HALF_PI:
        raise GeometryError("tangent vector reaches the cut locus")


def log_map(chart: ChartSpec, z: ProjectivePoint) -> np.ndarray:
    """Inverse of exp_map for points at distance < pi/2 from the center."""
    p = chart.center.homogeneous
    zv = z.homogeneous
    inner = np.vdot(p, zv)  # <z, p> ordering: conj(p) . z
    d = math.acos(min(1.0, abs(inner)))
    if d >= HALF_PI - CUT_LOCUS_MARGIN:
        raise GeometryError("point at or beyond the cut locus of the chart")
    if d <= 1e-15:
        return np.zeros(2 * chart.m)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    aligned = zv / phase
    direction = (aligned - math.cos(d) * p) / math.sin(d)
    c = chart.frame_matrix.conj().T @ direction
    return _unpack_complex(c * d)


def volume_density(m: int, r) -> np.ndarray:
    """Jacobian of exp in geodesic normal coordinates at radius r.

    CP^m is rank one, so the density depends only on r:
        g(r) = (sin(2r) / 2r) * (sin r / r)^{2m-2},
    with g(0) = 1, positive for r < pi/2, and g = 1 - (m+1) r^2 / 3 + ...
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim == 0:
        if r > 0:
            return float(
                math.sin(2 * r) / (2 * r) * (math.sin(r) / r) ** (2 * m - 2)
            )
        return 1.0
    out = np.ones_like(r)
    nz = r > 0
    out[nz] = (
        np.sin(2 * r[nz]) / (2 * r[nz]) * (np.sin(r[nz]) / r[nz]) ** (2 * m - 2)
    )
    return out


def ball_volume(m: int, radius: float) -> float:
    """Fubini-Study volume of a geodesic ball: pi^m sin^{2m}(radius) / m!."""
    return math.pi ** m * math.sin(radius) ** (2 * m) / math.factorial(m)


def distortion_estimate(chart: ChartSpec, nsamples: int = 10000, seed: int = 0) -> float:
    """Sampled two-sided distortion of the chart over its region.

    Draws pairs in the region, compares geodesic distance of the images
    with the Euclidean distance of the chart coordinates, and returns the
    worst ratio in either direction.
    """
    rng = np.random.default_rng(seed)
    m = chart.m
    dim = 2 * m
    rad = chart.region.circumradius(m)
    want = 2 * nsamples
    vs = []
    total = 0
    while total < want:
        batch = rng.uniform(-rad, rad, size=(4 * want, dim))
        keep = batch[np.asarray(chart.region.contains(chart, batch))]
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


# ---------------------------------------------------------------------------
# covers


def cp1_latlon_cover(max_radius: float) -> list:
    """Exact cell partition of CP^1 by polar caps, bands, and sectors.

    Every cell fits in a geodesic disc of radius max_radius about its own
    center, keeping the per-chart distortion near 2r/sin(2r); the declared
    gamma is 0.1% above it, r the cell's circumradius.  Bands are
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
    charts = []
    for cell in cells:
        rad = cell.circumradius(1)
        gamma = (2 * rad / math.sin(2 * rad)) * 1.001
        charts.append(make_chart(cell.center_point(), cell, gamma))
    return charts


def cp2_ball_cover(radius: float = 0.4) -> list:
    """Disjoint geodesic balls in CP^2 about a fixed 7-point configuration.

    Centers: the three standard points plus the four sign patterns of
    [1:+-1:+-1]/sqrt(3); pairwise distances >= arccos(1/sqrt 3) ~ 0.955,
    so balls of radius < 0.47 are disjoint.  This is a partial cover with
    a large declared covering slack, intended for pipeline smoke runs.
    The declared gamma is 1% above 2r/sin(2r).
    """
    if radius >= 0.47:
        raise GeometryError("balls of this radius would overlap")
    centers = [standard_point(2, i) for i in range(3)]
    s = 1.0 / math.sqrt(3.0)
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            centers.append(ProjectivePoint.from_vector([s, s1 * s, s2 * s]))
    g = (2 * radius / math.sin(2 * radius)) * 1.01
    return [make_chart(c, BallRegion(radius), g) for c in centers]


def two_cap_cover(m: int, radius: float) -> list:
    """Two geodesic-ball charts at antipodal standard points, declared
    gamma 1% above 2r/sin(2r)."""
    g = (2 * radius / math.sin(2 * radius)) * 1.01
    return [
        make_chart(standard_point(m, 0), BallRegion(radius), g),
        make_chart(standard_point(m, m), BallRegion(radius), g),
    ]


def covering_defect(m: int, charts: list) -> float:
    """Volume of the complement of the union of chart images.

    Exact for the covers built here: lat-lon cells tile CP^1 (defect 0 up
    to a measure-zero grid), and ball covers are disjoint by construction
    so the covered volume is a sum of geodesic-ball volumes.
    """
    model = ManifoldModel(m)
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
    return max(0.0, model.volume - covered)


def volume_by_radial_quadrature(m: int, r_max: float = HALF_PI) -> float:
    """Volume of the geodesic ball of radius r_max via the radial density.

    400-node Gauss-Legendre in r.  With r_max = pi/2 this recovers the
    full volume pi^m/m! because the cut locus has measure zero.
    """
    nodes, weights = np.polynomial.legendre.leggauss(400)
    r = 0.5 * r_max * (nodes + 1.0)
    w = 0.5 * r_max * weights
    # area of the unit sphere S^{2m-1} in R^{2m}
    sphere_area = 2 * math.pi ** m / math.factorial(m - 1)
    vals = volume_density(m, r) * r ** (2 * m - 1)
    return float(sphere_area * np.sum(w * vals))
