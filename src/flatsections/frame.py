"""Lattice point sets in exponential charts and their coherent frames.

A frame at level k places points exp_p(v) for v in a lattice of spacing
a/sqrt(k) intersected with the chart's inner region.  Cubic lattices use
a Z^{2m} grid; hexagonal lattices use mu_1 + e^{i pi/3} mu_2 per complex
tangent coordinate.  Multi-chart builds walk a cell decomposition in
order and drop any candidate too close to a point accepted from an
earlier chart, so near-duplicates on cell boundaries cannot poison the
Gram matrix.

The dedup keeps its comparisons local with an exact chart prefilter.
Every point of chart i lies within R_i = circumradius + REACH_SLACK of
the chart centre c_i; the slack of 1e-9 absorbs the rounding of the exp
map and of the computed distances, which is far smaller.  For a
candidate x of chart j, an accepted point y of chart i and the dedup
threshold thr, the triangle inequality for the Fubini-Study distance
gives d(x, y) >= d(x, c_i) - R_i >= d(c_i, c_j) - R_i - R_j.  So chart i
is skipped when d(c_i, c_j) > R_i + R_j + thr, and inside it only the
candidates with d(x, c_i) <= R_i + thr are tested.

Inside a chart the comparisons are banded.  Chart i has a pivot p_i at
distance pi/4 from c_i, and its accepted points are kept sorted by the
key f(y) = |<y, p_i>|^2 = cos^2 d(y, p_i).  Since |d/dd cos^2 d| =
|sin 2d| <= 1, f is 1-Lipschitz for d_FS: |f(x) - f(y)| <= |d(x, p_i) -
d(y, p_i)| <= d(x, y).  So a pair with |f(x) - f(y)| > thr + REACH_SLACK
lies farther apart than thr and cannot drop x.  The key carries only
absolute rounding (about 1e-16, no arccos), so the skip is exact even
where a chart contains its pivot.  The candidates that pass the chart
skip are sorted by f and taken BAND_BLOCK at a time; each block is
tested only against the points whose keys lie within thr + REACH_SLACK
of the block's key range.  The test itself, |<x, y>| < cos thr, is the
brute-force one, so the frame is the same as with no prefilter.
Frame.compared counts the overlaps computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as tc
from .geometry import (
    BallRegion,
    ChartSpec,
    CubeRegion,
    GeometryError,
    ManifoldModel,
    ProjectivePoint,
    exp_chart_vectors,
    fs_distance,
    fs_distance_vectors,
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

# candidates tested together against one key window of an earlier chart
BAND_BLOCK = 64

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

    Single-chart mode: give t (cube halfwidth) and optionally center.
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
    order: str = "lex"

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
        if self.order not in ("lex", "reversed"):
            raise FrameError("order must be lex or reversed")

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

    def validate(self, strict: bool = True):
        """Raise unless the certificate proves the eta target (strict mode).

        delta, when given with a density target, must leave room under
        the density bound: beta-mode builds require
        delta <= a^{2m} * epsilon / (3 m!).
        """
        if strict and not self.certified:
            raise FrameError(
                "spacing a=%.6g fails the theta certificate for eta=%.3g "
                "(formal eta %.6g)" % (self.a, self.eta, self.formal_eta)
            )
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


def _cubic_tangent_points(spec: LatticeSpec, chart: ChartSpec, k: int):
    """Integer grid and tangent coordinates of candidates in the region."""
    scale = spec.a / math.sqrt(k)
    region = chart.region
    if isinstance(region, CubeRegion):
        # exact per-axis bound: |mu_j| <= t sqrt(k) / a
        mmax = int(math.floor(region.t / scale + 1e-12))
    else:
        mmax = int(math.floor(region.circumradius(spec.m) / scale + 1e-12)) + 1
    if mmax < 0:
        return np.zeros((0, 2 * spec.m), dtype=np.int64), np.zeros((0, 2 * spec.m))
    axes = [np.arange(-mmax, mmax + 1, dtype=np.int64)] * (2 * spec.m)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * spec.m)
    v = grid * scale
    keep = np.asarray(chart.region.contains(chart, v))
    return grid[keep], v[keep]


def _hex_tangent_points(spec: LatticeSpec, chart: ChartSpec, k: int):
    """Hexagonal candidates: v_j = a (mu_1 + e^{i pi/3} mu_2)/sqrt(k)."""
    scale = spec.a / math.sqrt(k)
    rad = chart.region.circumradius(spec.m)
    # |mu_1 + e^{i pi/3} mu_2| >= |mu|_inf * sin(pi/3); pad one step
    mmax = int(math.floor(rad / (scale * math.sin(math.pi / 3)) + 1e-12)) + 1
    axes = [np.arange(-mmax, mmax + 1, dtype=np.int64)] * (2 * spec.m)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * spec.m)
    zs = grid[:, 0::2] + HEX_DIRECTION * grid[:, 1::2]
    v = np.empty((grid.shape[0], 2 * spec.m), dtype=np.float64)
    v[:, 0::2] = zs.real * scale
    v[:, 1::2] = zs.imag * scale
    keep = np.asarray(chart.region.contains(chart, v))
    return grid[keep], v[keep]


def _sort_rows(grid: np.ndarray, v: np.ndarray):
    order = np.lexsort(tuple(grid[:, j] for j in range(grid.shape[1] - 1, -1, -1)))
    return grid[order], v[order]


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
    """An ordered lattice frame: canonical unit lifts plus provenance."""

    k: int
    m: int
    points: np.ndarray  # (n, m+1) complex canonical unit lifts
    chart_index: np.ndarray  # (n,) which chart produced each point
    mu: np.ndarray  # (n, 2m) integer lattice coordinates
    tangent: np.ndarray  # (n, 2m) tangent coordinates in the chart
    spec: LatticeSpec
    dropped: int = 0  # candidates removed by cross-chart dedup
    compared: int = 0  # overlaps |<x, y>| the dedup computed
    order_tag: str = "chart-major, lex on mu"

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "order": self.order_tag,
            "dropped": self.dropped,
            "spec": {
                "kind": self.spec.kind,
                "a": self.spec.a,
                "eta": self.spec.eta,
                "gamma": self.spec.gamma,
                "epsilon": self.spec.epsilon,
                "t": self.spec.t,
                "delta": self.spec.delta,
                "beta_target": self.spec.beta_target,
                "charts": None if self.spec.charts is None else len(self.spec.charts),
            },
            "points_re": self.points.real.tolist(),
            "points_im": self.points.imag.tolist(),
            "chart_index": self.chart_index.tolist(),
            "mu": self.mu.tolist(),
        }
        return json.dumps(payload)


def _single_chart(spec: LatticeSpec, center: ProjectivePoint | None) -> ChartSpec:
    c = center if center is not None else standard_point(spec.m)
    return make_chart(c, CubeRegion(spec.t), spec.gamma)


def _pivot(center: ProjectivePoint) -> np.ndarray:
    """A unit vector at FS distance pi/4 from center."""
    c = center.homogeneous
    e = np.zeros_like(c)
    e[np.argmin(np.abs(c))] = 1.0
    e -= np.vdot(c, e) * c
    return (c + e / np.linalg.norm(e)) / math.sqrt(2.0)


def _pivot_key(lifts: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """f(y) = |<y, pivot>|^2 per row, 1-Lipschitz for d_FS."""
    return np.abs(lifts @ pivot.conj()) ** 2


def _assemble(spec, k, charts, per_chart) -> Frame:
    threshold = spec.dedup_factor * spec.a / math.sqrt(k) if k > 0 else 0.0
    cos_thr = math.cos(min(threshold, math.pi / 2))
    band = threshold + REACH_SLACK
    pts, cidx, mus, tans = [], [], [], []
    # (centre, reach, pivot, sorted keys, conjugated accepted lifts in key order)
    earlier = []
    dropped = compared = 0
    for j, chart in enumerate(charts):
        grid, v = per_chart(chart)
        grid, v = _sort_rows(grid, v)
        if v.shape[0] == 0:
            continue
        lifts = _canonicalize_rows(exp_chart_vectors(chart, v))
        reach = chart.region.circumradius(spec.m) + REACH_SLACK
        keep = np.ones(lifts.shape[0], dtype=bool)
        for c_i, r_i, p_i, keys_i, acc_i in earlier:
            # chart, reach and band skips drop only pairs farther apart
            # than the threshold (module docstring)
            if fs_distance(chart.center, c_i) > r_i + reach + threshold:
                continue
            near = fs_distance_vectors(lifts, c_i.homogeneous[None, :])[:, 0]
            test = np.flatnonzero(keep & (near <= r_i + threshold))
            f = _pivot_key(lifts[test], p_i)
            order = np.argsort(f, kind="stable")
            test, f = test[order], f[order]
            starts = np.arange(0, test.shape[0], BAND_BLOCK)
            ends = np.minimum(starts + BAND_BLOCK, test.shape[0])
            lo = np.searchsorted(keys_i, f[starts] - band, side="left")
            hi = np.searchsorted(keys_i, f[ends - 1] + band, side="right")
            for s, e, w0, w1 in zip(starts, ends, lo, hi):
                if w1 > w0:
                    rows = test[s:e]
                    q = np.abs(lifts[rows] @ acc_i[w0:w1].T)
                    keep[rows] = np.all(q < cos_thr, axis=1)
                    compared += int((e - s) * (w1 - w0))
        dropped += int(np.sum(~keep))
        grid, v, lifts = grid[keep], v[keep], lifts[keep]
        if lifts.shape[0] == 0:
            continue
        pivot = _pivot(chart.center)
        keys = _pivot_key(lifts, pivot)
        order = np.argsort(keys, kind="stable")
        earlier.append((chart.center, reach, pivot, keys[order], lifts[order].conj()))
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
    tag = "chart-major, lex on mu"
    if spec.order == "reversed":
        points, chart_index, mu, tan = (
            points[::-1].copy(),
            chart_index[::-1].copy(),
            mu[::-1].copy(),
            tan[::-1].copy(),
        )
        tag = "chart-major, lex on mu, reversed"
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
        order_tag=tag,
    )


def build_cubic(spec: LatticeSpec, k: int, center: ProjectivePoint | None = None) -> Frame:
    """Single-chart cubic frame; count is (2 floor(t sqrt k/a) + 1)^{2m}."""
    if spec.kind != "cubic" or spec.t is None:
        raise FrameError("build_cubic needs a single-chart cubic spec")
    if k < 0:
        raise FrameError("level must be nonnegative")
    chart = _single_chart(spec, center)
    if k == 0:
        return _assemble(spec, 0, [], None)
    return _assemble(spec, k, [chart], lambda ch: _cubic_tangent_points(spec, ch, k))


def build_hexagonal(spec: LatticeSpec, k: int, center: ProjectivePoint | None = None) -> Frame:
    if spec.kind != "hexagonal" or spec.t is None:
        raise FrameError("build_hexagonal needs a single-chart hexagonal spec")
    if k < 0:
        raise FrameError("level must be nonnegative")
    chart = _single_chart(spec, center)
    if k == 0:
        return _assemble(spec, 0, [], None)
    return _assemble(spec, k, [chart], lambda ch: _hex_tangent_points(spec, ch, k))


def build_multichart(spec: LatticeSpec, k: int) -> Frame:
    """Frame over a cell decomposition with cross-chart deduplication."""
    if spec.charts is None:
        raise FrameError("build_multichart needs a chart list")
    if k < 0:
        raise FrameError("level must be nonnegative")
    if k == 0:
        return _assemble(spec, 0, [], None)
    if spec.kind == "cubic":
        per = lambda ch: _cubic_tangent_points(spec, ch, k)
    else:
        per = lambda ch: _hex_tangent_points(spec, ch, k)
    return _assemble(spec, k, list(spec.charts), per)


def build(spec: LatticeSpec, k: int) -> Frame:
    if spec.charts is not None:
        return build_multichart(spec, k)
    if spec.kind == "cubic":
        return build_cubic(spec, k)
    return build_hexagonal(spec, k)


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
