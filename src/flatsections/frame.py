"""Lattice point sets in exponential charts and their coherent frames.

A frame at level k places points exp_p(v) for v in a lattice of spacing
a/sqrt(k) intersected with the chart's inner region.  Cubic lattices use
a Z^{2m} grid; hexagonal lattices use mu_1 + e^{i pi/3} mu_2 per complex
tangent coordinate.  Only the lattice points within one step of the
region's circumradius ball are generated (a cubic lattice in a cube takes
its box), row by row in lex order on mu, and each one's exp map is
computed once and shared by the region test and the frame.  Multi-chart
builds walk a cell decomposition in order and drop any candidate too
close to a point accepted from an earlier chart, so near-duplicates on
cell boundaries cannot poison the Gram matrix.

The dedup keeps its comparisons local with an exact chart prefilter.
Every point of chart i lies within R_i = circumradius + REACH_SLACK of
the chart centre c_i; the slack of 1e-9 absorbs the rounding of the exp
map and of the computed overlaps, which is far smaller.  For a candidate
x of chart j, an accepted point y of chart i and the dedup threshold
thr, the triangle inequality for the Fubini-Study distance gives
d(x, y) >= d(x, c_i) - R_i >= d(c_i, c_j) - R_i - R_j.  So chart i is
skipped when d(c_i, c_j) > R_i + R_j + thr, and inside it only the
candidates with d(x, c_i) <= R_i + thr are tested.  Both tests are made
in cosine form, |<x, c>| >= cos r, and the centre overlaps are computed
once per build.

Inside a chart the comparisons are confined to a cell index.  Chart i
has two pivots p_i = (c_i + e)/sqrt 2 and q_i = (c_i + i e)/sqrt 2, e a
unit vector orthogonal to c_i, both at distance pi/4 from c_i.  The keys
f(y) = |<y, p_i>|^2 = cos^2 d(y, p_i) and g(y) = |<y, q_i>|^2 are
1-Lipschitz for d_FS, since |d/dd cos^2 d| = |sin 2d| <= 1: |f(x) - f(y)|
<= |d(x, p_i) - d(y, p_i)| <= d(x, y).  The accepted points are sorted
by their cell (floor(f/h), floor(g/h)) of side h = thr + REACH_SLACK.  A
pair with d(x, y) <= thr has |f(x) - f(y)| < h and |g(x) - g(y)| < h,
so the two cells differ by at most one in each index: the 3 x 3 cells
around the candidate's own hold every point that can drop it.  The keys
carry only absolute rounding (about 1e-16, no arccos), far inside the
slack, so the index is exact even where a chart contains a pivot.  On
CP^1, (f, g) = (1/2, 1/2) + (sin 2r / 2)(cos phi, sin phi) in polar
coordinates (r, phi) about c_i, one-to-one on a chart of radius under
pi/4, so each cell holds a few points; on CP^2 a cell is a two-dimensional
slab and holds more, which costs time, not exactness.  The neighbouring
pairs are gathered into one list and tested elementwise with the
brute-force rule |<x, y>| < cos thr, so the frame is the same as with no
prefilter.  Frame.compared counts those pairs, the overlaps computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as tc
from .geometry import (
    ChartSpec,
    CubeRegion,
    ManifoldModel,
    ProjectivePoint,
    exp_chart_vectors,
    make_chart,
    standard_point,
)

HEX_DIRECTION = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))

# a dropped candidate must be this many lattice steps (times a/sqrt k)
# from every earlier-chart point; see LatticeSpec.dedup_factor
DEFAULT_DEDUP_FACTOR = 1.25

# added to a region's circumradius so that the rounding in a computed
# distance from the chart centre cannot break the dedup prefilter
REACH_SLACK = 1e-9

DEFAULT_EPSILON = 0.05


class FrameError(ValueError):
    pass


def choose_spacing(m: int, eta: float, gamma: float) -> float:
    """Sufficient cubic spacing from the coarse tail bound, with a 1.01
    safety factor: a = 1.01 * gamma * sqrt(2 pi) / ((1+eta)^{1/2m} - 1).

    This is the conservative closed form; the sharp theta-sum relation
    (constants.eta_from_cubic_density) certifies much denser lattices.
    """
    if not 0 < eta < 1:
        raise FrameError("eta must lie in (0,1)")
    if gamma < 1:
        raise FrameError("gamma cannot be under 1")
    return 1.01 * gamma * math.sqrt(2 * math.pi) / ((1 + eta) ** (1 / (2 * m)) - 1)


def formal_eta(kind: str, a: float, gamma: float, epsilon: float, m: int) -> float:
    """Theta-sum certificate on the Gram row sums.

    With geodesic spacing at least a_tilde/sqrt(k), a_tilde =
    (a/gamma) sqrt(1-epsilon), the off-diagonal absolute row sums of the
    coherent Gram matrix are at most theta(a_tilde)^{2m} - 1 (cubic; the
    hexagonal sum enters once per complex coordinate).
    """
    atil = (a / gamma) * math.sqrt(1.0 - epsilon)
    if kind == "cubic":
        return tc.theta_1d(atil) ** (2 * m) - 1.0
    if kind == "hexagonal":
        return tc.theta_hex(atil) ** m - 1.0
    raise FrameError("unknown lattice kind: %r" % (kind,))


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of a lattice frame build.

    Single-chart mode: give t (the halfwidth of a cube at the standard point).
    Multi-chart mode: give charts (inner regions with declared gamma)
    and the covering slack delta.  eta is the target Gram perturbation;
    a LatticeSpec is 'certified' when the theta-sum bound proves the target,
    otherwise builds still run and the measured row sums must carry the
    downstream bounds.
    """

    kind: str
    m: int
    a: float
    eta: float
    gamma: float
    epsilon: float = DEFAULT_EPSILON
    t: float | None = None
    charts: tuple | None = None
    delta: float | None = None
    beta_target: float | None = None
    dedup_factor: float = DEFAULT_DEDUP_FACTOR

    def __post_init__(self):
        if self.kind not in ("cubic", "hexagonal"):
            raise FrameError("lattice kind must be cubic or hexagonal")
        if self.a <= 0:
            raise FrameError("spacing must be positive")
        if not 0 < self.eta < 1:
            raise FrameError("eta target must lie in (0,1)")
        if self.gamma <= 1:
            raise FrameError("gamma must exceed 1")
        if not 0 <= self.epsilon < 1:
            raise FrameError("epsilon must lie in [0,1)")
        if (self.t is None) == (self.charts is None):
            raise FrameError("give exactly one of t (single chart) or charts")

    @property
    def formal_eta(self) -> float:
        return formal_eta(self.kind, self.a, self.gamma, self.epsilon, self.m)

    @property
    def certified(self) -> bool:
        """True when the theta-sum certificate meets the eta target."""
        return self.formal_eta <= self.eta

    @property
    def abound_satisfied(self) -> bool:
        """Whether the coarse closed-form spacing bound also holds."""
        bound = (
            self.gamma
            * math.sqrt(2 * math.pi)
            / ((1 + self.eta) ** (1 / (2 * self.m)) - 1)
        )
        return self.a > bound

    def validate(self):
        """Raise unless the covering slack fits the density budget.

        delta, when given with a density target, must leave room under
        the density bound: beta-mode builds require
        delta <= a^{2m} * epsilon / (3 m!).  An uncertified spec still
        builds (see certified).
        """
        if self.beta_target is not None and self.charts is not None:
            if self.delta is None:
                raise FrameError("density-targeted multichart spec needs delta")
            cap = self.a ** (2 * self.m) * self.epsilon / (
                3 * math.factorial(self.m)
            )
            if self.delta > cap:
                raise FrameError(
                    "covering slack delta=%.3g exceeds the density budget %.3g"
                    % (self.delta, cap)
                )
        return self


# ---------------------------------------------------------------------------
# lattice enumeration in a single chart


def _lattice_rows(spec: LatticeSpec, chart: ChartSpec, k: int,
                  radius: float) -> np.ndarray:
    """Integer coordinates mu, in lex order, of every lattice point that
    can lie in the chart's region.

    A cubic lattice in a CubeRegion takes the exact box |mu_j| <= t sqrt(k)/a.
    Otherwise the region lies in the ball of its circumradius, radius
    (which _assemble computes once per build), and the rows
    are generated one prefix (mu_0, ..., mu_{2m-2}) at a time: the range of
    the last coordinate is solved from the radius left by the prefix, with
    the radius padded by one lattice step so that rounding cannot lose a
    point of the region.
    """
    scale = spec.a / math.sqrt(k)
    dim = 2 * spec.m
    region = chart.region
    if spec.kind == "cubic" and isinstance(region, CubeRegion):
        mmax = int(math.floor(region.t / scale + 1e-12))
        return _box(mmax, dim)
    # the rows stay inside the box that bounds |mu|_inf over the ball
    rad = radius / scale
    if spec.kind == "cubic":
        mmax = int(math.floor(rad + 1e-12)) + 1
    else:
        # |mu_1 + e^{i pi/3} mu_2| >= |mu|_inf * sin(pi/3); pad one step
        mmax = int(math.floor(rad / math.sin(math.pi / 3) + 1e-12)) + 1
    prefix = _box(mmax, dim - 1)
    room = (rad + 1.0) ** 2
    if spec.kind == "cubic":
        centre = np.zeros(prefix.shape[0])
        room = room - np.sum(prefix * prefix, axis=1)
    else:
        # |z|^2 = mu_1^2 + mu_1 mu_2 + mu_2^2 per complex coordinate; the
        # last coordinate mu_2 of the last pair, with b = mu_1, solves
        # mu_2^2 + b mu_2 + b^2 <= room, i.e. (mu_2 + b/2)^2 <= room - 3b^2/4
        p, q = prefix[:, 0:-1:2], prefix[:, 1::2]
        room = room - np.sum(p * p + p * q + q * q, axis=1)
        b = prefix[:, -1]
        centre = -0.5 * b
        room = room - 0.75 * b * b
    half = np.sqrt(np.maximum(room, 0.0))
    lo = np.maximum(np.ceil(centre - half), -mmax).astype(np.int64)
    hi = np.minimum(np.floor(centre + half), mmax).astype(np.int64)
    counts = np.where(room >= 0, np.maximum(hi - lo + 1, 0), 0)
    grid = np.empty((int(counts.sum()), dim), dtype=np.int64)
    grid[:, :-1] = np.repeat(prefix, counts, axis=0)
    grid[:, -1] = _ranges(lo, counts)
    return grid


def _box(mmax: int, dim: int) -> np.ndarray:
    """The integer box [-mmax, mmax]^dim, rows in lex order."""
    if mmax < 0:
        return np.zeros((0, dim), dtype=np.int64)
    axes = [np.arange(-mmax, mmax + 1, dtype=np.int64)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


def _tangent_vectors(spec: LatticeSpec, grid: np.ndarray, k: int) -> np.ndarray:
    """Cubic v = a mu / sqrt(k); hexagonal v_j = a (mu_1 + e^{i pi/3} mu_2)/sqrt(k)."""
    scale = spec.a / math.sqrt(k)
    if spec.kind == "cubic":
        return grid * scale
    zs = grid[:, 0::2] + HEX_DIRECTION * grid[:, 1::2]
    v = np.empty(grid.shape, dtype=np.float64)
    v[:, 0::2] = zs.real * scale
    v[:, 1::2] = zs.imag * scale
    return v


def _chart_candidates(spec: LatticeSpec, chart: ChartSpec, k: int, radius: float):
    """Lattice coordinates, tangent vectors and exp lifts (the geodesic
    formula's phase) of the lattice points in the chart's region, in lex
    order on mu; radius is the region's circumradius.  Each point's exp
    map is computed once, and the region test reads it."""
    grid = _lattice_rows(spec, chart, k, radius)
    v = _tangent_vectors(spec, grid, k)
    lifts = exp_chart_vectors(chart, v)
    keep = np.asarray(chart.region.contains(chart, v, lifts))
    return grid[keep], v[keep], lifts[keep]


def _canonicalize_rows(pts: np.ndarray) -> np.ndarray:
    """Vectorized canonical representatives (first sizable entry real > 0)."""
    mags = np.abs(pts)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=1, keepdims=True), axis=1)
    lv = np.take_along_axis(pts, lead[:, None], axis=1)[:, 0]
    out = pts * (np.abs(lv) / lv)[:, None]
    return out / np.linalg.norm(out, axis=1)[:, None]


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True)
class Frame:
    """A lattice frame: canonical unit lifts, chart-major and in lex
    order on mu within each chart, plus provenance."""

    k: int
    m: int
    points: np.ndarray  # (n, m+1) complex canonical unit lifts
    chart_index: np.ndarray  # (n,) which chart produced each point
    mu: np.ndarray  # (n, 2m) integer lattice coordinates
    tangent: np.ndarray  # (n, 2m) tangent coordinates in the chart
    spec: LatticeSpec
    dropped: int = 0  # candidates removed by cross-chart dedup
    compared: int = 0  # overlaps |<x, y>| the dedup computed

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _single_chart(spec: LatticeSpec) -> ChartSpec:
    return make_chart(standard_point(spec.m), CubeRegion(spec.t), spec.gamma)


def _pivots(center: ProjectivePoint) -> np.ndarray:
    """Rows p = (c + e)/sqrt 2 and q = (c + i e)/sqrt 2 for a unit e
    orthogonal to the centre c: two unit vectors at FS distance pi/4 from it."""
    c = center.homogeneous
    e = np.zeros_like(c)
    e[np.argmin(np.abs(c))] = 1.0
    e -= np.vdot(c, e) * c
    e /= np.linalg.norm(e)
    return np.stack([c + e, c + 1j * e]) / math.sqrt(2.0)


def _pivot_keys(lifts: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """(f, g) = (|<y, p>|^2, |<y, q>|^2) per row, each 1-Lipschitz for d_FS."""
    return np.abs(lifts @ pivots.conj().T) ** 2


def _cell_width(side: float) -> int:
    """Cell numbers are floor(f/side) * width + floor(g/side).  The width
    leaves a gap after the largest g cell (keys reach 1 plus rounding), so
    the cells g - 1, g, g + 1 of one f cell are consecutive numbers."""
    return int(1.0 / side) + 3


def _cells(lifts: np.ndarray, pivots: np.ndarray, side: float) -> np.ndarray:
    """Cell number of each row for the keys of the given pivots."""
    cells = np.floor(_pivot_keys(lifts, pivots) / side).astype(np.int64)
    return cells[:, 0] * _cell_width(side) + cells[:, 1]


def _neighbour_pairs(cells: np.ndarray, accepted: np.ndarray, side: float):
    """(candidate, accepted) index pairs whose cells are among each
    other's 3 x 3 neighbours; accepted holds sorted cell numbers."""
    rows = cells[:, None] + _cell_width(side) * np.arange(-1, 2)[None, :]
    lo = np.searchsorted(accepted, rows - 1, side="left").ravel()
    counts = np.searchsorted(accepted, rows + 1, side="right").ravel() - lo
    a = np.repeat(np.arange(cells.shape[0]).repeat(3), counts)
    return a, _ranges(lo, counts)


def _cos_bound(radius: np.ndarray) -> np.ndarray:
    """Overlap |<x, y>| below which d(x, y) > radius; -1 once radius
    reaches pi/2, where no pair is farther apart."""
    return np.where(radius < math.pi / 2, np.cos(radius), -1.0)


def _assemble(spec: LatticeSpec, k: int, charts: list) -> Frame:
    threshold = spec.dedup_factor * spec.a / math.sqrt(k) if k > 0 else 0.0
    cos_thr = math.cos(min(threshold, math.pi / 2))
    side = threshold + REACH_SLACK
    radius = [c.region.circumradius(spec.m) for c in charts]
    reach = np.array(radius) + REACH_SLACK
    centres = np.array([c.center.homogeneous for c in charts], dtype=np.complex128)
    centres = centres.reshape(len(charts), spec.m + 1)
    # the chart skip and the reach test of the module docstring, in
    # cosine form, once per build
    linked = np.abs(centres @ centres.conj().T) >= _cos_bound(
        reach[:, None] + reach[None, :] + threshold)
    near_cos = _cos_bound(reach + threshold)
    pts, cidx, mus, tans = [], [], [], []
    # (chart number, pivots, sorted cell numbers, conjugated accepted lifts in cell order)
    earlier = []
    dropped = compared = 0
    for j, chart in enumerate(charts):
        grid, v, lifts = _chart_candidates(spec, chart, k, radius[j])
        if v.shape[0] == 0:
            continue
        lifts = _canonicalize_rows(lifts)
        keep = np.ones(lifts.shape[0], dtype=bool)
        nbrs = [e for e in earlier if linked[e[0], j]]
        if nbrs:
            ids = [e[0] for e in nbrs]
            near = np.abs(lifts @ centres[ids].conj().T) >= near_cos[ids]
        for col, (i, pivots, cells_i, acc_i) in enumerate(nbrs):
            test = np.flatnonzero(keep & near[:, col])
            a, b = _neighbour_pairs(_cells(lifts[test], pivots, side), cells_i, side)
            compared += a.shape[0]
            q = np.abs(np.sum(lifts[test[a]] * acc_i[b], axis=1))
            keep[test[a[q >= cos_thr]]] = False
        dropped += int(np.sum(~keep))
        grid, v, lifts = grid[keep], v[keep], lifts[keep]
        if lifts.shape[0] == 0:
            continue
        pivots = _pivots(chart.center)
        cells = _cells(lifts, pivots, side)
        order = np.argsort(cells, kind="stable")
        earlier.append((j, pivots, cells[order], lifts[order].conj()))
        pts.append(lifts)
        cidx.append(np.full(lifts.shape[0], j, dtype=np.int64))
        mus.append(grid)
        tans.append(v)
    if pts:
        points = np.concatenate(pts)
        chart_index = np.concatenate(cidx)
        mu = np.concatenate(mus)
        tan = np.concatenate(tans)
    else:
        points = np.zeros((0, spec.m + 1), dtype=np.complex128)
        chart_index = np.zeros(0, dtype=np.int64)
        mu = np.zeros((0, 2 * spec.m), dtype=np.int64)
        tan = np.zeros((0, 2 * spec.m))
    return Frame(
        k=k,
        m=spec.m,
        points=points,
        chart_index=chart_index,
        mu=mu,
        tangent=tan,
        spec=spec,
        dropped=dropped,
        compared=compared,
    )


def build(spec: LatticeSpec, k: int) -> Frame:
    """The frame of spec at level k: over its chart list with cross-chart
    dedup, or in the single cube chart at the standard point, where a
    cubic lattice has (2 floor(t sqrt k/a) + 1)^{2m} points."""
    if k < 0:
        raise FrameError("level must be nonnegative")
    if not k:
        return _assemble(spec, k, [])
    charts = list(spec.charts) if spec.charts is not None else [_single_chart(spec)]
    return _assemble(spec, k, charts)


def expected_cubic_count(spec: LatticeSpec, k: int) -> int:
    """Exact single-chart cubic count (2 floor(t sqrt k / a) + 1)^{2m}."""
    if spec.t is None:
        raise FrameError("count formula applies to single-chart specs")
    half = int(math.floor(spec.t * math.sqrt(k) / spec.a + 1e-12))
    return (2 * half + 1) ** (2 * spec.m)


def density_bound(spec: LatticeSpec, k: int) -> float:
    """Multi-chart counting floor (Vol(M) - 3 delta) k^m / a^{2m}."""
    if spec.delta is None:
        raise FrameError("density bound needs a covering slack delta")
    vol = ManifoldModel(spec.m).volume
    return (vol - 3 * spec.delta) * k**spec.m / spec.a ** (2 * spec.m)


def nearest_neighbor_distance(frame: Frame) -> float:
    """Min pairwise geodesic distance, O(n^2) in row blocks; every level
    of a run reports it as nn and checks it against the spacing floor."""
    if frame.n < 2:
        return math.inf
    pts = frame.points
    step = max(1, int(4e6 // max(1, frame.n)))
    worst = 0.0
    for s in range(0, frame.n, step):
        e = min(s + step, frame.n)
        q = np.abs(pts[s:e] @ pts.conj().T)
        for i in range(s, e):
            q[i - s, i] = 0.0
        worst = max(worst, float(q.max()))
    return math.acos(min(1.0, worst))


def density_threshold(ratios: dict, beta: float) -> int | None:
    """Smallest k in a {k: n_k/d_k} record from which the ratio stays
    above beta; None when the tail never clears it."""
    ks = sorted(ratios)
    k0 = None
    for k in ks:
        if ratios[k] > beta:
            if k0 is None:
                k0 = k
        else:
            k0 = None
    return k0
