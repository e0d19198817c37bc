"""Lattice frame construction: counts, spacing, dedup, density trends."""

import itertools
import math

import numpy as np
import pytest

from flatsections import constants as C
from flatsections import frame as F
from flatsections import geometry as G
from flatsections import kernel as K
from oracles import density_threshold, eta_from_cubic_density, fs_distance


def _cube_spec(t=0.4, **kw):
    """A spec with no density target over geometry.cube_cover's chart of
    halfwidth t, whose gamma it takes unless kw gives one."""
    base = dict(kind="cubic", m=1, a=2.2, eta=0.7, epsilon=0.05, delta=None, beta_target=None)
    base.update(kw)
    charts = tuple(G.cube_cover(base["m"], t))
    base.setdefault("gamma", charts[0].gamma)
    return F.LatticeSpec(charts=charts, **base)


def _latlon_spec(kind, radius, a):
    cover = G.cp1_latlon_cover(radius)
    return F.LatticeSpec(
        kind=kind, m=1, a=a, eta=0.995,
        gamma=max(c.gamma for c in cover), epsilon=0.005,
        charts=tuple(cover), delta=1e-9, beta_target=None,
    )


def _dedup_spec(kind, radius, a, lattice="cubic"):
    """Multichart specs of the dedup tests: lat-lon cells on CP^1, or the
    disjoint balls and the two overlapping caps on CP^2."""
    if kind in ("balls", "caps"):
        cover = G.cp2_ball_cover(radius) if kind == "balls" else G.two_cap_cover(2, radius)
        return F.LatticeSpec(kind=lattice, m=2, a=a, eta=0.9, gamma=cover[0].gamma,
                             charts=tuple(cover), epsilon=0.05, delta=3.0, beta_target=None)
    return _latlon_spec(kind, radius, a)


def expected_cubic_count(spec, k: int) -> int:
    """Exact single-chart cubic count (2 floor(t sqrt k / a) + 1)^{2m}."""
    if len(spec.charts) != 1 or not isinstance(spec.charts[0].region, G.CubeRegion):
        raise F.FrameError("count formula applies to single-chart specs")
    half = int(math.floor(spec.charts[0].region.t * math.sqrt(k) / spec.a + 1e-12))
    return (2 * half + 1) ** (2 * spec.m)


def density_bound(spec, k: int) -> float:
    """Multi-chart counting floor (Vol(M) - 3 delta) k^m / a^{2m}."""
    if spec.delta is None:
        raise F.FrameError("density bound needs a covering slack delta")
    vol = G.volume(spec.m)
    return (vol - 3 * spec.delta) * k**spec.m / spec.a ** (2 * spec.m)


def _box_candidates(spec, chart, k):
    """The lattice points of the chart's region by the plain route: the
    whole box around the circumradius ball (the exact box for a cubic
    lattice in a cube), in lex order, filtered by region.contains."""
    scale = spec.a / math.sqrt(k)
    region = chart.region
    if spec.kind == "cubic" and isinstance(region, G.CubeRegion):
        mmax = int(math.floor(region.t / scale + 1e-12))
    elif spec.kind == "cubic":
        mmax = int(math.floor(region.circumradius(spec.m) / scale + 1e-12)) + 1
    else:
        # |mu_1 + e^{i pi/3} mu_2| >= |mu|_inf sin(pi/3)
        mmax = int(math.floor(region.circumradius(spec.m)
                              / (scale * math.sin(math.pi / 3)) + 1e-12)) + 1
    axis = np.arange(-mmax, mmax + 1)
    grid = np.array(list(itertools.product(axis, repeat=2 * spec.m)), dtype=np.int64)
    if spec.kind == "cubic":
        v = grid * scale
    else:
        zs = grid[:, 0::2] + F.HEX_DIRECTION * grid[:, 1::2]
        v = np.empty(grid.shape)
        v[:, 0::2], v[:, 1::2] = zs.real * scale, zs.imag * scale
    keep = np.asarray(region.contains(v, G.exp_chart_vectors(chart, v)))
    return grid[keep], v[keep]


def _brute_force_dedup(spec, k):
    """The dedup rule with no prefilter: each candidate is compared with
    every point accepted from every earlier chart.  Returns the points and
    their provenance, the chart index and lattice coordinates mu of each,
    then the dropped count and the comparisons made."""
    cos_thr = math.cos(F.DEDUP_FACTOR * spec.a / math.sqrt(k))
    pts, cidx, mus, dropped, compared = [], [], [], 0, 0
    for j, chart in enumerate(spec.charts):
        grid, v = _box_candidates(spec, chart, k)
        if v.shape[0] == 0:
            continue
        lifts = G.canonical_rows(G.exp_chart_vectors(chart, v))
        if pts:
            acc = np.concatenate(pts)
            keep = np.all(np.abs(lifts @ acc.conj().T) < cos_thr, axis=1)
            dropped += int(np.sum(~keep))
            compared += lifts.shape[0] * acc.shape[0]
            grid, lifts = grid[keep], lifts[keep]
        pts.append(lifts)
        cidx.append(np.full(lifts.shape[0], j, dtype=np.int64))
        mus.append(grid)
    points, chart_index, mu = (np.concatenate(x) for x in (pts, cidx, mus))
    return points, chart_index, mu, dropped, compared


# (kind, level) of a dedup case -> (level of its pair-count bound, the
# bound): about 1.15 times the pairs the cell index tests there.  Testing
# each candidate against every accepted point of a linked chart takes 1.8
# (caps) to 50 (cubic k = 3000) times the bound.
_DEDUP_PAIR_BOUNDS = {
    ("cubic", 800): (800, 1600),
    ("cubic", 3000): (3000, 3800),
    ("hexagonal", 3000): (3000, 5800),
    ("balls", 40): (200, 1150),
    ("caps", 30): (120, 20500),
}


def _build_counted(monkeypatch, spec, k):
    """frame.build(spec, k) and the number of overlaps |<x, y>| its dedup
    computed: the pairs frame._neighbour_pairs returns, summed over the
    build."""
    pairs = F._neighbour_pairs
    count = 0

    def counted(*args):
        nonlocal count
        a, b = pairs(*args)
        count += a.shape[0]
        return a, b

    with monkeypatch.context() as mp:
        mp.setattr(F, "_neighbour_pairs", counted)
        fr = F.build(spec, k)
    return fr, count


class TestSpacingRules:
    def test_choose_spacing_closed_form(self):
        a = F.choose_spacing(1, 0.5, 1.0)
        want = 1.01 * math.sqrt(2 * math.pi) / (math.sqrt(1.5) - 1)
        assert abs(a - want) < 1e-12
        assert abs(a - 11.264748964910346) < 1e-9

    def test_choose_spacing_diverges_at_zero_eta(self):
        assert F.choose_spacing(1, 1e-6, 1.0) > 1e5
        assert F.choose_spacing(2, 1e-6, 1.0) > F.choose_spacing(1, 1e-3, 1.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_coarse_bound_refuses_a_vanishing_gap(self, m):
        # 1 + 1e-300 rounds to 1, so (1+eta)^{1/2m} - 1 is 0: both readers
        # of the coarse bound refuse, neither divides by zero
        with pytest.raises(F.FrameError, match="no coarse spacing bound"):
            F.choose_spacing(m, 1e-300, 1.27)
        spec = _cube_spec(t=0.35, m=m, a=2.7, eta=1e-300)
        with pytest.raises(F.FrameError, match="no coarse spacing bound"):
            spec.abound_satisfied

    def test_chosen_spacing_passes_both_certificates(self):
        # the coarse closed form implies the crude tail inequality
        # (1 + sqrt(2 pi)/a_tilde)^{2m} <= 1 + eta at epsilon = 0, and the
        # sharp theta certificate a fortiori
        for m in (1, 2):
            for eta in (0.3, 0.5, 0.9):
                a = F.choose_spacing(m, eta, 1.0)
                crude = (1 + math.sqrt(2 * math.pi) / a) ** (2 * m)
                assert crude <= 1 + eta
                assert F.formal_eta("cubic", a, 1.0 + 1e-12, 0.0, m) <= eta

    def test_formal_eta_matches_density_remark(self):
        # at gamma -> 1, eps = 0, the cubic certificate equals the
        # theta-sum eta of the implied density
        a = 1.98
        got = F.formal_eta("cubic", a, 1.0 + 1e-15, 0.0, 1)
        want = eta_from_cubic_density(math.pi / a**2, 1)
        assert abs(got - want) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(F.FrameError):
            _cube_spec(a=-1.0)
        with pytest.raises(F.FrameError):
            _cube_spec(eta=1.5)
        with pytest.raises(F.FrameError):
            _cube_spec(kind="triangular")
        with pytest.raises(F.FrameError, match="at least one chart"):
            F.LatticeSpec(kind="cubic", m=1, a=2.0, eta=0.5, gamma=1.1, charts=(),
                          epsilon=0.05, delta=None, beta_target=None)

    def test_gamma_covers_every_chart(self):
        # the certificate divides the spacing by gamma, so a gamma below
        # a chart's own distortion bound would overstate it
        charts = tuple(G.cp1_latlon_cover(0.35))
        derived = max(c.gamma for c in charts)
        kw = dict(kind="cubic", m=1, a=1.945, eta=0.995, charts=charts, epsilon=0.05,
                  delta=1e-9, beta_target=None)
        with pytest.raises(F.FrameError, match="below the .* of its charts"):
            F.LatticeSpec(gamma=derived * (1 - 1e-12), **kw)
        for gamma in (derived, 1.5):
            assert F.build(F.LatticeSpec(gamma=gamma, **kw), 50).n > 0

    def test_uncertified_spec_still_validates(self):
        spec = _cube_spec()  # a=2.2 cannot prove eta=0.7, yet constructs
        assert not spec.certified
        assert F.build(spec, 50).n > 0

    def test_sparse_spec_is_certified(self):
        a = F.choose_spacing(1, 0.5, G.cube_cover(1, 0.5)[0].gamma)
        spec = _cube_spec(a=a, eta=0.5, t=0.5)
        assert spec.certified
        assert spec.abound_satisfied

    def test_delta_budget(self):
        cover = G.cp1_latlon_cover(0.35)
        good = F.LatticeSpec(
            kind="cubic", m=1, a=1.945, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=1e-9, beta_target=0.8,
        )
        assert good.certified
        with pytest.raises(F.FrameError):
            F.LatticeSpec(
                kind="cubic", m=1, a=1.945, eta=0.995,
                gamma=max(c.gamma for c in cover), epsilon=0.005,
                charts=tuple(cover), delta=0.5, beta_target=0.8,
            )


class TestCandidateCap:
    @pytest.mark.parametrize("chart", ["cube", "ball"])
    def test_box_at_the_cap_builds_and_one_more_is_refused(self, chart, monkeypatch):
        if chart == "cube":
            spec = _cube_spec()
            rows = expected_cubic_count(spec, 200)  # (2 floor(0.4 sqrt 200 / 2.2) + 1)^2
        else:
            # a ball just inside 3 steps: the box reaches one step past it
            ball = G.BallRegion(3 * 2.2 / math.sqrt(200) - 5e-16)
            charts = (G.make_chart(G.standard_point(1), ball, 1.01),)
            spec = F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=charts[0].gamma,
                                 charts=charts, epsilon=0.05, delta=None, beta_target=None)
            rows = 9 ** 2
        monkeypatch.setattr(F, "MAX_CHART_CANDIDATES", rows)
        assert F.build(spec, 200).n > 0
        monkeypatch.setattr(F, "MAX_CHART_CANDIDATES", rows - 1)
        with pytest.raises(F.FrameError, match="passes %d candidates" % (rows - 1)):
            F.build(spec, 200)

    @pytest.mark.parametrize("a,message", [(1e-300, "passes"), (5e-324, "underflows")])
    def test_vanishing_step_is_refused(self, a, message):
        # 1e-300 leaves 2.8e300 steps each way; 5e-324 / sqrt(50) underflows to 0
        with pytest.raises(F.FrameError, match=message):
            F.build(_cube_spec(a=a), 50)


class TestSingleChartCubic:
    def test_count_identity_example(self):
        spec = _cube_spec(a=1.0, eta=0.9, t=0.5)
        assert F.build(spec, 100).n == 121

    def test_count_identity_sweep(self):
        for t, a in ((0.4, 2.2), (0.4, 1.55), (0.5, 5.65)):
            spec = _cube_spec(a=a, eta=0.9, t=t)
            for k in (1, 7, 50, 144, 400):
                assert F.build(spec, k).n == expected_cubic_count(spec, k)
        spec2 = _cube_spec(m=2, a=2.6, eta=0.9, t=0.35)
        for k in (20, 40, 90):
            assert F.build(spec2, k).n == expected_cubic_count(spec2, k)

    def test_count_asymptotics(self):
        spec = _cube_spec()
        vals = []
        for k in (400, 1600, 6400, 25600):
            n = F.build(spec, k).n
            vals.append(n * spec.a**2 / ((2 * spec.charts[0].region.t) ** 2 * k))
        assert abs(vals[-1] - 1.0) < 0.05
        assert abs(vals[-1] - 1.0) <= abs(vals[0] - 1.0)

    def test_nearest_neighbor_window(self):
        spec = _cube_spec()
        for k in (50, 200, 400):
            fr = F.build(spec, k)
            nn = F.nearest_neighbor_distance(fr)
            assert spec.a / (spec.gamma * math.sqrt(k)) <= nn
            assert nn <= spec.gamma * spec.a / math.sqrt(k)

    def test_points_are_canonical_unit_lifts(self):
        fr = F.build(_cube_spec(), 200)
        norms = np.linalg.norm(fr.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-13)
        lead = fr.points[np.arange(fr.n), np.argmax(np.abs(fr.points) > 1e-12, axis=1)]
        assert np.allclose(lead.imag, 0.0, atol=1e-13)
        assert np.all(lead.real > 0)

    def test_k_zero_empty(self):
        assert F.build(_cube_spec(), 0).n == 0

    def test_center_zero_present_and_order_deterministic(self):
        fr1 = F.build(_cube_spec(), 200)
        fr2 = F.build(_cube_spec(), 200)
        points, _, mu, _, _ = _brute_force_dedup(_cube_spec(), 200)
        assert np.array_equal(fr1.points, points)
        assert np.array_equal(fr2.points, points)
        centre = (mu == 0).all(axis=1)
        assert centre.any()
        assert np.array_equal(fr1.points[centre], [[1.0, 0.0]])


# (id, m, charts) of every cover kind at the ends of its radius range
_COVERS = [
    ("cube-m1-t0.01", 1, lambda: G.cube_cover(1, 0.01)),
    ("cube-m1-t0.4", 1, lambda: G.cube_cover(1, 0.4)),
    ("cube-m2-t0.01", 2, lambda: G.cube_cover(2, 0.01)),
    ("cube-m2-t0.39", 2, lambda: G.cube_cover(2, 0.39)),
    ("latlon-r0.06", 1, lambda: G.cp1_latlon_cover(0.06)),
    ("latlon-r0.35", 1, lambda: G.cp1_latlon_cover(0.35)),
    ("latlon-r0.59", 1, lambda: G.cp1_latlon_cover(0.59)),
    ("two-cap-m1", 1, lambda: G.two_cap_cover(1, 0.5)),
    ("two-cap-m2", 2, lambda: G.two_cap_cover(2, 0.5)),
    ("balls-r0.1", 2, lambda: G.cp2_ball_cover(0.1)),
    ("balls-r0.46", 2, lambda: G.cp2_ball_cover(0.46)),
]


@pytest.mark.parametrize("m, cover, kind", [
    pytest.param(m, cover, kind, id="%s-%s" % (cid, kind)) for cid, m, cover in _COVERS
    for kind in (("cubic", "hexagonal") if m == 1 else ("cubic",))
])
def test_every_level_has_a_family(m, cover, kind):
    # chart 0's lattice holds mu = 0, its centre lies in its region and no
    # earlier chart can drop it: a level of an accepted config never has an
    # empty frame, so the pipeline carries no branch for one
    charts = tuple(cover())
    for a in (0.5, 2.2, 1e3, 1e100):
        spec = F.LatticeSpec(kind=kind, m=m, a=a, eta=0.9, gamma=max(c.gamma for c in charts),
                             charts=charts, epsilon=0.05, delta=None, beta_target=None)
        fr = F.build(spec, 1)
        assert fr.n >= 1
        assert min(fs_distance(charts[0].center, p) for p in fr.points) <= 1e-15


class TestHexagonal:
    def test_quadratic_form_exact(self):
        # |mu1 + e^{i pi/3} mu2|^2 = mu1^2 + mu2^2 + mu1 mu2
        for m1 in range(-6, 7):
            for m2 in range(-6, 7):
                z = m1 + F.HEX_DIRECTION * m2
                assert abs(abs(z) ** 2 - (m1 * m1 + m2 * m2 + m1 * m2)) < 1e-9

    def test_ball_count_ratio(self):
        # equal spacing, equal ball: hex/cubic point count -> 2/sqrt(3)
        ch = (G.make_chart(G.standard_point(1), G.BallRegion(0.6), 1.01),)
        kw = dict(m=1, a=0.75, eta=0.9, gamma=ch[0].gamma, charts=ch, epsilon=0.05,
                  delta=3.0, beta_target=None)
        nc = F.build(F.LatticeSpec(kind="cubic", **kw), 4000).n
        nh = F.build(F.LatticeSpec(kind="hexagonal", **kw), 4000).n
        assert abs(nh / nc - 2 / math.sqrt(3)) < 0.01

    def test_hex_beats_cubic_at_equal_eta(self):
        # at the doubling target both solvers hit the same formal eta = 1,
        # and the hexagonal lattice supports strictly higher density
        for m in (1, 2):
            assert C.solve_beta_prime(m).density > C.solve_beta(m).density
        # same conclusion at a milder eta: tighten hex spacing until its
        # certificate matches the cubic one, then compare densities
        a = 2.6
        eta_c = F.formal_eta("cubic", a, 1.0, 0.0, 1)
        lo, hi = 1.5, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if F.formal_eta("hexagonal", mid, 1.0, 0.0, 1) > eta_c:
                lo = mid
            else:
                hi = mid
        dens_c = math.pi / a**2
        dens_h = 2 * math.pi / (math.sqrt(3) * hi**2)
        assert dens_h > dens_c

    def test_single_chart_hex_spacing(self):
        spec = _cube_spec(kind="hexagonal", a=2.4, eta=0.9)
        fr = F.build(spec, 300)
        assert fr.n > 4
        nn = F.nearest_neighbor_distance(fr)
        assert spec.a / (spec.gamma * math.sqrt(300)) <= nn
        assert nn <= spec.gamma * spec.a / math.sqrt(300)

    def test_k_zero_empty(self):
        spec = _cube_spec(kind="hexagonal", a=2.4, eta=0.9)
        assert F.build(spec, 0).n == 0


class TestMultichart:
    def test_two_cap_cover_defect(self):
        charts = G.two_cap_cover(1, math.pi / 5)
        defect = G.covering_defect(1, charts)
        assert defect < 1.0
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=3.0, eta=0.9, gamma=max(c.gamma for c in charts),
            charts=tuple(charts), epsilon=0.05, delta=1.0, beta_target=None,
        )
        fr = F.build(spec, 500)
        assert fr.n > 0
        points, chart_index, _, _, _ = _brute_force_dedup(spec, 500)
        assert np.array_equal(fr.points, points)
        assert set(np.unique(chart_index)) == {0, 1}

    def test_single_chart_degenerates_to_build_cubic(self):
        spec = _cube_spec()
        chart = G.make_chart(G.standard_point(1), G.CubeRegion(0.4), 1.001)
        multi = F.LatticeSpec(
            kind="cubic", m=1, a=spec.a, eta=spec.eta, gamma=spec.gamma,
            charts=(chart,), epsilon=spec.epsilon, delta=3.0, beta_target=None,
        )
        f1 = F.build(spec, 250)
        f2 = F.build(multi, 250)
        assert f1.n == f2.n
        assert np.array_equal(f1.points, f2.points)

    def test_points_stay_in_their_region(self):
        cover = G.cp1_latlon_cover(0.35)
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=1.945, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=1e-9, beta_target=None,
        )
        fr = F.build(spec, 600)
        points, chart_index, mu, _, _ = _brute_force_dedup(spec, 600)
        assert np.array_equal(fr.points, points)
        for j, chart in enumerate(cover):
            mine = chart_index == j
            if mine.any():
                v = F._tangent_vectors(spec, mu[mine], 600)
                assert np.all(chart.region.contains(v, G.exp_chart_vectors(chart, v)))
                # the cells test the built points themselves
                assert np.all(chart.region.contains(v, fr.points[mine]))

    @pytest.mark.parametrize("kind,radius,a", [("cubic", 0.35, 1.945),
                                               ("hexagonal", 0.2, 1.971)])
    def test_dedup_enforces_min_cross_distance(self, kind, radius, a):
        spec = _latlon_spec(kind, radius, a)
        k = 800
        fr = F.build(spec, k)
        assert fr.dropped > 0
        points, chart_index, _, _, _ = _brute_force_dedup(spec, k)
        assert np.array_equal(fr.points, points)
        thr = F.DEDUP_FACTOR * spec.a / math.sqrt(k)
        # check distances between points of distinct charts
        q = np.abs(fr.points @ fr.points.conj().T)
        np.fill_diagonal(q, 0.0)
        cross = chart_index[:, None] != chart_index[None, :]
        dmin = np.arccos(np.clip(np.max(q[cross]), 0, 1))
        assert dmin >= thr - 1e-12

    @pytest.mark.parametrize("kind,radius,a,k", [
        ("cubic", 0.35, 1.945, 800),
        ("cubic", 0.35, 1.945, 3000),
        ("hexagonal", 0.2, 1.971, 3000),
        ("balls", 0.4, 2.4, 40),
        ("caps", 0.7, 2.4, 30),
    ])
    def test_dedup_matches_brute_force(self, kind, radius, a, k, monkeypatch):
        spec = _dedup_spec(kind, radius, a)
        fr, count = _build_counted(monkeypatch, spec, k)
        points, _, _, dropped, compared = _brute_force_dedup(spec, k)
        assert np.array_equal(fr.points, points)
        assert fr.dropped == dropped
        assert 0 < count < compared
        if kind != "balls":
            assert dropped > 0
        # the cell index keeps the tested pairs local, at a level of the
        # case's geometry where the 3 x 3 cells around a candidate leave out
        # accepted points (at the m = 2 cases' own levels they leave out none)
        level, bound = _DEDUP_PAIR_BOUNDS[kind, k]
        local = count if level == k else _build_counted(monkeypatch, spec, level)[1]
        assert 0 < local <= bound

    @pytest.mark.parametrize("kind,radius,a,k,factor", [
        ("hexagonal", 0.2, 1.971, 3000, 6.0),
        ("caps", 0.7, 2.4, 30, 3.0),
    ])
    def test_dedup_matches_brute_force_in_crowded_cells(self, kind, radius, a, k, factor,
                                                        monkeypatch):
        # a wide threshold on CP^1, or the slabs that two keys leave on
        # CP^2, put many accepted points in one cell
        monkeypatch.setattr(F, "DEDUP_FACTOR", factor)
        spec = _dedup_spec(kind, radius, a)
        fr = F.build(spec, k)
        points, chart_index, _, dropped, _ = _brute_force_dedup(spec, k)
        assert np.array_equal(fr.points, points)
        assert fr.dropped == dropped > 0
        side = factor * a / math.sqrt(k) + F.REACH_SLACK
        crowd = max(np.unique(F._cells(fr.points[chart_index == j],
                                       F._pivots(chart.center), side),
                              return_counts=True)[1].max()
                    for j, chart in enumerate(spec.charts) if np.any(chart_index == j))
        assert crowd >= 16

    @pytest.mark.parametrize("kind,radius,a,k,lattice,m", [
        ("cubic", 0.35, 1.945, 800, "cubic", 1),
        ("hexagonal", 0.2, 1.971, 3000, "hexagonal", 1),
        ("balls", 0.4, 2.4, 40, "cubic", 2),
        ("balls", 0.4, 2.2, 40, "hexagonal", 2),
        ("caps", 0.7, 2.4, 30, "cubic", 2),
        ("caps", 0.7, 2.2, 30, "hexagonal", 2),
        ("cube", 0.4, 2.2, 200, "cubic", 1),
        ("cube", 0.35, 2.6, 90, "cubic", 2),
        ("cube", 0.4, 2.4, 300, "hexagonal", 1),
        ("rim", 3, 2.0, 100, "cubic", 1),
        ("rim", 3, 2.0, 100, "hexagonal", 1),
        ("rim", 2, 2.0, 40, "cubic", 2),
    ])
    def test_enumeration_matches_box(self, kind, radius, a, k, lattice, m):
        """Each chart's lattice rows, kept by contains, are the
        box-plus-contains rows in the same order, and its candidates are
        the exp lifts of those rows."""
        if kind == "cube":
            spec = _cube_spec(kind=lattice, m=m, a=a, eta=0.9, t=radius)
            charts = spec.charts
        elif kind == "rim":
            # a ball just inside the lattice shell of `radius` steps, whose
            # points contains() still accepts within its 1e-15 tolerance
            ball = G.BallRegion(radius * a / math.sqrt(k) - 5e-16)
            charts = (G.make_chart(G.standard_point(m), ball, 1.01),)
            spec = F.LatticeSpec(kind=lattice, m=m, a=a, eta=0.9, gamma=charts[0].gamma,
                                 charts=charts, epsilon=0.05, delta=3.0, beta_target=None)
        else:
            spec = _dedup_spec(kind, radius, a, lattice=lattice)
            charts = spec.charts
        assert spec.m == m
        for chart in charts:
            radius = chart.region.circumradius(spec.m)
            grid = F._lattice_rows(spec, chart, k, radius)
            v = F._tangent_vectors(spec, grid, k)
            keep = np.asarray(chart.region.contains(v, G.exp_chart_vectors(chart, v)))
            grid, v = grid[keep], v[keep]
            lifts = F._chart_candidates(spec, chart, k, radius)
            want_grid, want_v = _box_candidates(spec, chart, k)
            assert grid.shape[0] > 0
            assert np.array_equal(grid, want_grid)
            assert np.array_equal(v, want_v)
            assert np.array_equal(lifts, G.exp_chart_vectors(chart, want_v))

    def test_compared_counts_repeat(self, monkeypatch):
        spec = _latlon_spec("hexagonal", 0.2, 1.971)
        _, first = _build_counted(monkeypatch, spec, 3000)
        _, second = _build_counted(monkeypatch, spec, 3000)
        assert first == second > 0

    def test_compared_cubic_latlon_16000(self, monkeypatch):
        # the single-key band of the previous dedup computed 769681 overlaps
        spec = _latlon_spec("cubic", 0.35, 1.945)
        _, first = _build_counted(monkeypatch, spec, 16000)
        _, second = _build_counted(monkeypatch, spec, 16000)
        assert first == second > 0
        assert first < 769681 / 20

    def test_compared_zero_for_single_chart(self, monkeypatch):
        assert _build_counted(monkeypatch, _cube_spec(), 250)[1] == 0
        hexa = _cube_spec(kind="hexagonal", a=2.4, eta=0.9)
        assert _build_counted(monkeypatch, hexa, 300)[1] == 0
        assert _build_counted(monkeypatch, _cube_spec(), 0)[1] == 0

    @pytest.mark.parametrize("m", [1, 2])
    def test_pivot_key_is_lipschitz(self, m):
        rng = np.random.default_rng(7 + m)

        def unit(z):
            return z / np.linalg.norm(z, axis=-1, keepdims=True)

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def dist(x, y):
            # 2 arcsin(|x - phase * y| / 2) with the phase aligning y to x:
            # accurate for near pairs, where arccos |<x, y>| is not
            c = np.sum(x * y.conj(), axis=1)
            aligned = y * (c / np.abs(c))[:, None]
            return 2 * np.arcsin(np.linalg.norm(x - aligned, axis=1) / 2)

        centre = G.canonical_point(unit(gauss(m + 1)))
        for c in (centre, G.standard_point(m), G.standard_point(m, m)):
            pivots = F._pivots(c)
            assert pivots.shape == (2, m + 1)
            for p in pivots:
                assert abs(np.linalg.norm(p) - 1) < 1e-15
                assert abs(fs_distance(c, p) - math.pi / 4) < 1e-12
            steps = np.logspace(-9, 0, 400)[:, None]
            x = unit(gauss(400, m + 1))
            y = unit(x + steps * gauss(400, m + 1))
            pairs = [(x, y)]
            for p in pivots:
                # pairs next to the pivot, where its key is nearly flat
                xp = unit(p + steps * gauss(400, m + 1))
                yp = unit(xp + steps * gauss(400, m + 1))
                # pairs on one geodesic through the pivot, around pi/4 from
                # it, where the slope |sin 2d| reaches 1
                g = gauss(m + 1)
                e = unit(g - np.vdot(p, g) * p)
                t = math.pi / 4 + rng.uniform(-0.3, 0.3, size=(400, 1))
                tg = np.cos(t) * p + np.sin(t) * e
                tg2 = np.cos(t + steps) * p + np.sin(t + steps) * e
                pairs += [(xp, yp), (tg, tg2)]
            for a, b in pairs:
                gap = np.abs(F._pivot_keys(a, pivots) - F._pivot_keys(b, pivots))
                assert np.all(gap <= dist(a, b)[:, None] + 1e-15)

    def test_count_floor(self):
        cover = G.cp1_latlon_cover(0.35)
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=1.945, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=0.002, beta_target=0.8,
        )
        # (Vol - 3 delta) k^m / a^{2m} is an asymptotic floor; holds from
        # moderate k once boundary losses are subleading
        for k in (8000, 16000):
            fr = F.build(spec, k)
            assert fr.n * 1.15 > density_bound(spec, k)

    def test_density_threshold_bookkeeping(self):
        ratios = {100: 0.70, 200: 0.82, 400: 0.79, 800: 0.83, 1600: 0.85}
        assert density_threshold(ratios, 0.8) == 800
        assert density_threshold(ratios, 0.9) is None
        assert density_threshold(ratios, 0.6) == 100


class TestDensityScans:
    def test_cubic_density_crosses_beta(self):
        cover = G.cp1_latlon_cover(0.35)
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=1.945, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=1e-9, beta_target=0.8,
        )
        assert spec.certified
        ratios = {}
        for k in (2000, 8000, 16000, 32000):
            fr = F.build(spec, k)
            ratios[k] = fr.n / K.dimension(1, k)
        k0 = density_threshold(ratios, 0.8)
        assert k0 == 16000
        assert ratios[32000] > ratios[16000] > 0.8
