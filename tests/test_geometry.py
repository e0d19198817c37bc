"""Metric, chart, density, and cover tests for the geometry layer.

Independent oracles: the Bloch-sphere model of CP^1 (distance equals half
the central angle between Bloch vectors), the inverse exponential map
log_map, and radial Gauss-Legendre quadrature of the volume density,
which must recover pi^m/m!.
"""

import math

import numpy as np
import pytest

from flatsections import geometry as G
from oracles import distortion_estimate, fs_distance

# geodesic distance beyond which log_map refuses to invert (cut locus)
CUT_LOCUS_MARGIN = 1e-9


def log_map(chart, z):
    """Inverse of the chart's exp for points at distance < pi/2 from the
    center, as real tangent coordinates (re, im per complex coordinate)."""
    p = chart.center
    inner = np.vdot(p, z)  # <z, p> ordering: conj(p) . z
    d = math.acos(min(1.0, abs(inner)))
    if d >= math.pi / 2 - CUT_LOCUS_MARGIN:
        raise G.GeometryError("point at or beyond the cut locus of the chart")
    if d <= 1e-15:
        return np.zeros(2 * chart.m)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    aligned = z / phase
    direction = (aligned - math.cos(d) * p) / math.sin(d)
    c = (chart.frame_matrix.conj().T @ direction) * d
    out = np.empty(2 * c.shape[0])
    out[0::2], out[1::2] = c.real, c.imag
    return out


def exp_point(chart, v):
    """The point exp_center(v) of one tangent vector v in R^{2m}."""
    lift = G.exp_chart_vectors(chart, np.asarray(v)[None, :])[0]
    return G.canonical_point(lift)


def volume_density(m: int, r) -> np.ndarray:
    """Jacobian of exp in geodesic normal coordinates at radius r.

    CP^m is rank one, so the density depends only on r:
        g(r) = (sin(2r) / 2r) * (sin r / r)^{2m-2},
    with g(0) = 1, positive for r < pi/2, and g = 1 - (m+1) r^2 / 3 + ...
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim == 0:
        if r > 0:
            return float(math.sin(2 * r) / (2 * r) * (math.sin(r) / r) ** (2 * m - 2))
        return 1.0
    out = np.ones_like(r)
    nz = r > 0
    out[nz] = np.sin(2 * r[nz]) / (2 * r[nz]) * (np.sin(r[nz]) / r[nz]) ** (2 * m - 2)
    return out


def volume_by_radial_quadrature(m: int, r_max: float = math.pi / 2) -> float:
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


def _rand_point(rng, m):
    return G.canonical_point(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))


def _bloch(z):
    a, b = z
    return np.array(
        [
            2 * (a.conjugate() * b).real,
            2 * (a.conjugate() * b).imag,
            abs(a) ** 2 - abs(b) ** 2,
        ]
    )


class TestPointsAndDistance:
    def test_canonical_representative(self):
        p = G.canonical_point([2j, 2.0])
        assert abs(p[0].imag) < 1e-15
        assert p[0].real > 0
        assert abs(np.linalg.norm(p) - 1.0) < 1e-14
        assert not p.flags.writeable
        q = G.canonical_point([1.0, -1j])
        assert fs_distance(p, q) <= 1e-12

    def test_canonical_rep_is_phase_invariant(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = G.canonical_point(v)
        q = G.canonical_point(v * np.exp(1j * 1.234) * 5.0)
        assert np.allclose(p, q, atol=1e-13)

    def test_rejects_zero_vector(self):
        with pytest.raises(G.GeometryError):
            G.canonical_point([0.0, 0.0])

    def test_distance_example(self):
        p = G.canonical_point([1, 0])
        q = G.canonical_point([1, 1])
        assert abs(fs_distance(p, q) - math.pi / 4) < 1e-14

    def test_distance_range_and_symmetry(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 4):
            for _ in range(40):
                x, y = _rand_point(rng, m), _rand_point(rng, m)
                d = fs_distance(x, y)
                assert 0.0 <= d <= math.pi / 2 + 1e-15
                assert abs(d - fs_distance(y, x)) < 1e-15
        e0 = G.standard_point(2, 0)
        e1 = G.standard_point(2, 1)
        assert abs(fs_distance(e0, e1) - math.pi / 2) < 1e-15

    def test_distance_against_bloch_sphere_oracle(self):
        # CP^1 with this normalization is a round 2-sphere of radius 1/2:
        # distance = half the angle between Bloch vectors.
        rng = np.random.default_rng(1)
        for _ in range(300):
            x, y = _rand_point(rng, 1), _rand_point(rng, 1)
            cosang = np.clip(np.dot(_bloch(x), _bloch(y)), -1.0, 1.0)
            assert abs(fs_distance(x, y) - 0.5 * math.acos(cosang)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for m in (1, 3):
            for _ in range(200):
                x, y, z = (_rand_point(rng, m) for _ in range(3))
                assert fs_distance(x, z) <= fs_distance(x, y) + fs_distance(y, z) + 1e-12

    def test_vectorized_distances_match_scalar(self):
        rng = np.random.default_rng(4)
        pts = [_rand_point(rng, 2) for _ in range(8)]
        arr = np.stack(pts)
        # the stacked overlaps |<a_i, a_j>| = cos d the frame and whitening
        # layers compute inline; compared as cosines, since arccos cannot
        # resolve the zero distances of the diagonal
        q = np.abs(arr @ arr.conj().T)
        for i in range(8):
            for j in range(8):
                assert abs(q[i, j] - math.cos(fs_distance(pts[i], pts[j]))) < 1e-15


class TestMomentLifts:
    def test_unit_lifts_with_the_given_moments(self):
        rng = np.random.default_rng(4)
        u, th = rng.uniform(size=50), rng.uniform(0, 2 * np.pi, size=50)
        z = G.moment_lifts(1, np.stack([u, th], axis=1))
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-14)
        assert np.allclose(np.abs(z[:, 1]) ** 2, u, atol=1e-14)
        assert np.allclose(np.angle(z[:, 1]) % (2 * np.pi), th, atol=1e-12)
        assert np.all(z[:, 0].real >= 0) and np.all(z[:, 0].imag == 0)

    def test_square_folds_onto_the_simplex(self):
        rng = np.random.default_rng(5)
        c = np.column_stack([rng.uniform(size=(60, 2)),
                             rng.uniform(0, 2 * np.pi, size=(60, 2))])
        z = G.moment_lifts(2, c)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-14)
        over = c[:, 0] + c[:, 1] > 1
        assert 0 < over.sum() < 60
        folded = c.copy()
        folded[over, :2] = 1 - c[over, :2]
        assert np.array_equal(z, G.moment_lifts(2, folded))
        assert np.allclose(np.abs(z[:, 1:]) ** 2, folded[:, :2], atol=1e-14)

    def test_rejects_other_dimensions(self):
        with pytest.raises(G.GeometryError):
            G.moment_lifts(3, np.zeros((1, 6)))


class TestBaseTwins:
    @pytest.mark.parametrize("per_dim", range(2, 17))
    def test_each_cell_shares_its_twins_lift(self, per_dim):
        twins = G.base_twins(2, per_dim)
        lifts = G.center_lifts(2, G.base_boxes(2, per_dim))
        assert twins.shape == (per_dim ** 4,)
        assert np.max(np.abs(lifts - lifts[twins])) <= 1e-15
        assert np.array_equal(twins[twins], twins)

    @pytest.mark.parametrize("per_dim,distinct", ((6, 756), (11, 7986)))
    def test_distinct_counts(self, per_dim, distinct):
        assert len(np.unique(G.base_twins(2, per_dim))) == distinct

    def test_cells_that_fold_in_pairs_keep_their_own_lift(self):
        # at per_dim 10 the anti-diagonal centres (0.35, 0.65) and
        # (0.65, 0.35) both fold by rounding; taking the mirror as the
        # twin would copy a value from a lift 0.21 away
        boxes = G.base_boxes(2, 10)
        centres = 0.5 * (boxes[:, :2, 0] + boxes[:, :2, 1])
        cells = np.arange(len(boxes))
        mirror = cells.reshape((10,) * 4)[::-1, ::-1].ravel()
        folds = centres.sum(axis=1) > 1
        both = folds & folds[mirror]
        assert both.sum() == 200
        assert np.array_equal(G.base_twins(2, 10)[both], cells[both])
        lifts = G.center_lifts(2, boxes)
        assert np.min(np.linalg.norm(lifts[both] - lifts[mirror[both]], axis=1)) > 0.2

    @pytest.mark.parametrize("per_dim", (2, 5, 16, 128))
    def test_identity_at_m1(self, per_dim):
        assert np.array_equal(G.base_twins(1, per_dim), np.arange(per_dim ** 2))

    def test_cached_read_only(self):
        twins = G.base_twins(2, 6)
        assert twins is G.base_twins(2, 6)
        with pytest.raises(ValueError):
            twins[0] = 1


class TestChartsAndExpLog:
    def test_frame_is_orthonormal_and_horizontal(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 5):
            p = _rand_point(rng, m)
            ch = G.make_chart(p, G.BallRegion(0.3), 1.0)
            f = ch.frame_matrix
            assert f.shape == (m + 1, m)
            assert np.allclose(f.conj().T @ f, np.eye(m), atol=1e-13)
            assert np.max(np.abs(f.conj().T @ p)) < 1e-13

    def test_exp_is_radial_isometry(self):
        rng = np.random.default_rng(6)
        for m in (1, 2, 3):
            ch = G.make_chart(_rand_point(rng, m), G.BallRegion(0.7), 1.0)
            for _ in range(60):
                v = rng.normal(size=2 * m)
                v *= rng.uniform(0.0, 0.69) / np.linalg.norm(v)
                z = exp_point(ch, v)
                d = fs_distance(ch.center, z)
                assert abs(d - np.linalg.norm(v)) < 1e-12

    def test_log_inverts_exp(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 4):
            ch = G.make_chart(_rand_point(rng, m), G.BallRegion(0.75), 1.0)
            for _ in range(60):
                v = rng.normal(size=2 * m)
                v *= rng.uniform(0.0, 0.74) / np.linalg.norm(v)
                w = log_map(ch, exp_point(ch, v))
                assert np.max(np.abs(v - w)) < 1e-10

    def test_log_of_generic_point(self):
        # log of any point short of the cut locus, re-exponentiated by the
        # raw geodesic formula (no region gate), lands back on the point
        rng = np.random.default_rng(8)
        ch = G.make_chart(_rand_point(rng, 2), G.BallRegion(0.7), 1.0)
        for _ in range(40):
            z = _rand_point(rng, 2)
            if fs_distance(ch.center, z) >= math.pi / 2 - 1e-6:
                continue
            v = log_map(ch, z)
            back = G.canonical_point(
                G.exp_chart_vectors(ch, v[None, :])[0]
            )
            assert fs_distance(back, z) <= 1e-10

    def test_log_rejects_cut_locus(self):
        ch = G.make_chart(G.standard_point(1, 0), G.BallRegion(0.2), 1.0)
        with pytest.raises(G.GeometryError):
            log_map(ch, G.standard_point(1, 1))

    def test_distortion_tiny_region_is_isometric(self):
        rng = np.random.default_rng(9)
        ch = G.make_chart(
            _rand_point(rng, 1), G.CubeRegion(0.01 / math.sqrt(2)), 1.0
        )
        assert G.distortion_estimate(ch, nsamples=4000) <= 1.001

    def test_distortion_disc_example(self):
        # disc of radius pi/8: the sampled distortion approaches the
        # chart's gamma, 2r/sin(2r) ~ 1.11, from below
        ch = G.make_chart(G.standard_point(1), G.BallRegion(math.pi / 8), 1.0)
        assert ch.gamma == (math.pi / 4) / math.sin(math.pi / 4)
        g = G.distortion_estimate(ch, nsamples=20000)
        assert 1.0 <= g <= ch.gamma

    @pytest.mark.parametrize("cover", ("latlon", "balls", "cube"))
    def test_distortion_equals_the_test_every_draw_oracle(self, cover):
        # chunked region tests and reused lat-lon lifts give the value of
        # testing every draw and mapping the kept draws again, bit for bit;
        # the m = 2 cube keeps about 1/16 of the draws of its circumscribed
        # square, so its runs take several batches; the other regions keep
        # 30-80% and stop inside the first
        charts = {"latlon": G.cp1_latlon_cover(0.35)[::4],
                  "balls": G.cp2_ball_cover(0.4)[:4],
                  "cube": G.cube_cover(1, 0.4) + G.cube_cover(2, 0.3)}[cover]
        for seed in range(4):
            for chart in charts:
                assert (G.distortion_estimate(chart, nsamples=500, seed=seed)
                        == distortion_estimate(chart, nsamples=500, seed=seed))

    def test_distortion_is_deterministic_per_seed(self):
        ch = G.make_chart(G.standard_point(1), G.BallRegion(0.3), 1.0)
        a = G.distortion_estimate(ch, nsamples=2000, seed=11)
        b = G.distortion_estimate(ch, nsamples=2000, seed=11)
        assert a == b


class TestDensityAndVolume:
    def test_density_at_zero_and_positivity(self):
        for m in (1, 2, 3):
            assert volume_density(m, 0.0) == 1.0
            r = np.linspace(1e-6, math.pi / 2 - 1e-6, 200)
            assert np.all(volume_density(m, r) > 0)

    def test_density_small_radius_expansion(self):
        # g(r) = 1 - (m+1) r^2 / 3 + O(r^4)
        for m in (1, 2, 4):
            for r in (1e-3, 2e-3):
                g = volume_density(m, r)
                assert abs(g - (1.0 - (m + 1) * r**2 / 3.0)) < 5 * r**4

    def test_radial_quadrature_recovers_total_volume(self):
        for m in (1, 2):
            v = volume_by_radial_quadrature(m)
            assert abs(v - G.volume(m)) < 1e-6

    def test_ball_volume_formula(self):
        assert abs(G.ball_volume(1, math.pi / 2) - math.pi) < 1e-15
        # small balls are Euclidean: pi^m r^{2m} / m!
        for m in (1, 2):
            r = 1e-3
            euclid = math.pi**m * r ** (2 * m) / math.factorial(m)
            assert abs(G.ball_volume(m, r) / euclid - 1.0) < 1e-5

    def test_ball_volume_matches_radial_quadrature(self):
        for m in (1, 2):
            for rad in (0.3, 0.7):
                q = volume_by_radial_quadrature(m, r_max=rad)
                assert abs(q - G.ball_volume(m, rad)) < 1e-10


class TestCovers:
    @pytest.mark.parametrize("rho", [0.35, 0.2])
    def test_latlon_cover_is_exact_partition(self, rho):
        charts = G.cp1_latlon_cover(rho)
        assert G.covering_defect(1, charts) < 1e-12
        # cells fit in discs of radius rho about their centers
        for ch in charts:
            assert ch.region.circumradius(1) <= rho + 1e-9
        # declared distortion dominates a sampled estimate
        for i, ch in enumerate(charts[:: max(1, len(charts) // 6)]):
            assert G.distortion_estimate(ch, nsamples=2500, seed=i) <= ch.gamma

    def test_latlon_cells_are_disjoint(self):
        charts = G.cp1_latlon_cover(0.35)
        rng = np.random.default_rng(12)
        pts = np.stack(
            [_rand_point(rng, 1) for _ in range(500)]
        )
        r, theta = G.latlon_coords(pts)
        hits = np.zeros(len(pts), dtype=int)
        for ch in charts:
            cell = ch.region
            in_r = (r >= cell.r_lo) & (r < cell.r_hi)
            if cell.r_hi >= math.pi / 2:
                in_r = (r >= cell.r_lo) & (r <= math.pi / 2)
            if cell.theta_hi - cell.theta_lo >= 2 * math.pi - 1e-12:
                hits += in_r
            else:
                hits += in_r & (theta >= cell.theta_lo) & (theta < cell.theta_hi)
        assert np.all(hits == 1)

    def test_cell_membership_through_chart(self):
        charts = G.cp1_latlon_cover(0.35)
        ch = charts[3]
        v = np.zeros((1, 2))
        assert bool(ch.region.contains(v, G.exp_chart_vectors(ch, v))[0])

    def test_cp2_ball_cover_disjoint(self):
        charts = G.cp2_ball_cover()
        assert len(charts) == 7
        rad = charts[0].region.radius
        for i, a in enumerate(charts):
            for b in charts[i + 1 :]:
                assert fs_distance(a.center, b.center) > 2 * rad + 0.1

    def test_cp2_cover_defect_positive(self):
        charts = G.cp2_ball_cover()
        defect = G.covering_defect(2, charts)
        assert 0 < defect < G.volume(2)
        covered = G.volume(2) - defect
        assert abs(covered - 7 * G.ball_volume(2, 0.4)) < 1e-12

    def test_two_cap_cover_defect(self):
        charts = G.two_cap_cover(1, math.pi / 5)
        defect = G.covering_defect(1, charts)
        expect = math.pi - 2 * G.ball_volume(1, math.pi / 5)
        assert abs(defect - expect) < 1e-12
        assert defect < 1.0

    def test_two_cap_cover_defect_matches_sampling_on_cp2(self):
        # caps at e_0 and e_2 of radius 0.7 < pi/4 are disjoint, so the
        # volume sum is exact: compare with uniform samples of CP^2
        charts = G.two_cap_cover(2, 0.7)
        rng = np.random.default_rng(0)
        coords = rng.uniform(size=(200_000, 4)) * [1, 1, 2 * math.pi, 2 * math.pi]
        lifts = G.moment_lifts(2, coords)
        near = np.zeros(len(lifts), dtype=bool)
        for ch in charts:
            near |= np.abs(lifts @ ch.center.conj()) > math.cos(0.7)
        sampled = G.volume(2) * float(np.mean(~near))
        assert abs(G.covering_defect(2, charts) - sampled) < 0.03

    def test_two_cap_cover_refuses_overlapping_caps_on_cp2(self):
        with pytest.raises(G.GeometryError):
            G.two_cap_cover(2, 0.9)
        with pytest.raises(G.GeometryError):
            G.two_cap_cover(3, math.pi / 4)
        # on CP^1 too: caps that would cover the line pass the convexity radius
        with pytest.raises(G.GeometryError, match="convexity radius"):
            G.two_cap_cover(1, 0.9)

    def test_defect_needs_a_closed_form_region(self):
        chart = G.make_chart(G.standard_point(1, 0), G.CubeRegion(0.3), 1.0)
        with pytest.raises(G.GeometryError):
            G.covering_defect(1, [chart])

    @pytest.mark.parametrize("m,t,gamma", [(1, 0.4, 1.2513888879018475),
                                           (2, 0.35, 1.422091819961644),
                                           (2, 0.3, 1.2887871529051285)],
                             ids=["1-0.4", "2-0.35", "2-0.3"])
    def test_cube_cover_is_one_cube_chart(self, m, t, gamma):
        (chart,) = G.cube_cover(m, t)
        assert chart.region == G.CubeRegion(t)
        reach = t * math.sqrt(2 * m)
        assert chart.gamma == 2 * reach / math.sin(2 * reach) * 1.001 == gamma
        assert np.array_equal(chart.center, G.standard_point(m))
        assert chart.m == m

    @pytest.mark.parametrize("m,t", [(1, 1.2), (2, math.pi / 4), (2, 0.8)])
    def test_cube_cover_stops_at_the_injectivity_radius(self, m, t):
        # the corner t sqrt(2m) reaches pi/2, past the convexity radius
        with pytest.raises(G.GeometryError, match="the convexity radius"):
            G.cube_cover(m, t)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_make_chart_refuses_the_convexity_radius(self, m):
        edge = math.pi / (4 * math.sqrt(2 * m))
        assert G.cube_cover(m, edge * (1 - 1e-12))[0].gamma < math.pi / 2 * 1.001
        for region in (G.CubeRegion(edge), G.BallRegion(math.pi / 4), G.BallRegion(0.0)):
            with pytest.raises(G.GeometryError, match="outside \\(0, pi/4\\)"):
                G.make_chart(G.standard_point(m), region, 1.0)


def _farthest_vector(chart) -> np.ndarray:
    """A tangent vector of the chart's region of length its circumradius:
    a cube's corner, a ball's rim, a lat-lon cell's farthest corner."""
    region, m = chart.region, chart.m
    if isinstance(region, G.CubeRegion):
        return np.full(2 * m, region.t)
    if isinstance(region, G.BallRegion):
        return np.eye(2 * m)[0] * region.radius
    rc, tc = region.center_coords()
    corners = [np.array([math.cos(r), math.sin(r) * np.exp(1j * th)])
               for r in (region.r_lo, region.r_hi)
               for th in (region.theta_lo, region.theta_hi, tc)]
    return max((log_map(chart, z) for z in corners), key=np.linalg.norm)


def _corner_ratio(chart) -> float:
    """|dv| / dist(exp v, exp(v + dv)) at the region's farthest vector v,
    dv of length 1e-4 along J v, where d exp shrinks most (by sin 2|v| / 2|v|)."""
    v = _farthest_vector(chart)
    jv = np.empty_like(v)
    jv[0::2], jv[1::2] = -v[1::2], v[0::2]
    za, zb = G.exp_chart_vectors(chart, np.stack([v, v + 1e-4 * jv / np.linalg.norm(jv)]))
    return 1e-4 / fs_distance(za, zb)


@pytest.mark.parametrize("chart", [
    pytest.param(lambda: G.cube_cover(1, 0.4)[0], id="cube-m1-t0.4"),
    pytest.param(lambda: G.cube_cover(2, 0.3)[0], id="cube-m2-t0.3"),
    pytest.param(lambda: G.cube_cover(2, 0.35)[0], id="cube-m2-t0.35"),
    pytest.param(lambda: max(G.cp1_latlon_cover(0.59), key=lambda c: c.region.circumradius(1)),
                 id="latlon-r0.59"),
    pytest.param(lambda: G.cp2_ball_cover(0.46)[3], id="ball-r0.46"),
    pytest.param(lambda: G.two_cap_cover(2, 0.78)[1], id="cap-m2-r0.78"),
])
def test_corner_ratio_is_within_gamma(chart):
    # the two-point ratio at the farthest point of the region is the
    # distortion bound 2R/sin 2R to within the step; gamma's slack covers it
    chart = chart()
    reach = chart.region.circumradius(chart.m)
    assert abs(np.linalg.norm(_farthest_vector(chart)) - reach) < 1e-12
    ratio = _corner_ratio(chart)
    assert ratio == pytest.approx(2 * reach / math.sin(2 * reach), rel=1e-6)
    assert ratio <= chart.gamma
