"""Theta sums, critical spacings, and the twelve tabulated densities."""

import math
import time

import numpy as np
import pytest

from flatsections import constants as C
from oracles import eta_from_cubic_density

BETA_TABLE = [0.99220, 0.44342, 0.17782, 0.06630, 0.02345, 0.00796]
BETA_PRIME_TABLE = [0.99564, 0.45867, 0.19254, 0.07572, 0.02838, 0.01024]


def theta_1d_terms(a: float, terms: int) -> float:
    """sum over |j| <= terms of exp(-a^2 j^2 / 2), summed as theta_1d sums."""
    j = np.arange(1, terms + 1, dtype=np.float64)
    return float(1.0 + 2.0 * np.sum(np.exp(-0.5 * a * a * j * j)))


def theta_hex_terms(alpha: float, radius: int) -> float:
    """theta_hex's sum over the box |mu|_inf <= radius."""
    g = np.arange(-radius, radius + 1, dtype=np.float64)
    m1, m2 = np.meshgrid(g, g, indexing="ij")
    return float(np.sum(np.exp(-0.5 * alpha * alpha * (m1 * m1 + m2 * m2 + m1 * m2))))


def theta_1d_tail_bound(a: float) -> float:
    """Geometric-majorant bound on the tail theta_1d drops:
    2 e^{-a^2 J^2/2} / (1 - e^{-a^2 J})."""
    J = C._truncation_1d(a)
    top = 2.0 * math.exp(-0.5 * a * a * J * J)
    return top / (1.0 - math.exp(-(a * a) * J))


def theta_hex_tail_bound(alpha: float) -> float:
    """Computable majorant of the tail theta_hex drops, via the shell
    count 8s and the lower bound Q >= |mu|_inf^2 / 2 on each shell."""
    R = C._truncation_hex(alpha)
    s = np.arange(R + 1, R + 200, dtype=np.float64)
    return float(np.sum(8.0 * s * np.exp(-0.25 * alpha * alpha * s * s)))


def hex_vs_cubic_margin(covolumes) -> np.ndarray:
    """theta_1d(a)^2 - theta_hex(alpha) at equal per-coordinate covolume.

    Cubic spacing a = sqrt(c); hexagonal spacing alpha = sqrt(2c/sqrt 3).
    Positive margin means the hexagonal lattice achieves a smaller theta
    sum (hence lower eta) at the same point density -- the quantitative
    form of "hexagonal beats cubic".  The literal same-spacing comparison
    theta_hex(x) < theta_1d(x)^2 is false in both asymptotic regimes, so
    the equal-density form is the one checked.
    """
    out = []
    for c in np.atleast_1d(np.asarray(covolumes, dtype=np.float64)):
        if c <= 0:
            raise C.ConstantsError("covolume must be positive")
        a = math.sqrt(c)
        alpha = math.sqrt(2.0 * c / math.sqrt(3.0))
        out.append(C.theta_1d(a) ** 2 - C.theta_hex(alpha))
    return np.asarray(out)


class TestThetaSums:
    def test_limits(self):
        assert abs(C.theta_1d(40.0) - 1.0) < 1e-300
        assert abs(C.theta_hex(40.0) - 1.0) < 1e-300

    def test_rejects_nonpositive(self):
        with pytest.raises(C.ConstantsError):
            C.theta_1d(0.0)
        with pytest.raises(C.ConstantsError):
            C.theta_hex(-1.0)

    def test_term_cap(self, monkeypatch):
        # an argument that needs more terms than the cap is refused before
        # its truncation is rounded: 1e-300 would need 1e301 terms, and
        # sqrt(90)/5e-324 is infinite
        for a in (1e-300, 5e-324):
            with pytest.raises(C.ConstantsError, match="passes %d terms" % C.MAX_THETA_TERMS):
                C.theta_1d(a)
        with pytest.raises(C.ConstantsError):
            C.theta_hex(1e-3)  # about 2.7e4 terms per axis, 7e8 in all
        # the cap counts 2 reach terms per axis, over one axis or two
        monkeypatch.setattr(C, "MAX_THETA_TERMS", 100)
        assert C.theta_1d(math.sqrt(90) / 50) > 0
        with pytest.raises(C.ConstantsError):
            C.theta_1d(math.sqrt(90) / 50.5)
        assert C.theta_hex(math.sqrt(180) / 5) > 0
        with pytest.raises(C.ConstantsError):
            C.theta_hex(math.sqrt(180) / 5.5)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.9, 6.0, 120)
        v1 = [C.theta_1d(a) for a in grid]
        vh = [C.theta_hex(a) for a in grid]
        assert np.all(np.diff(v1) < 0)
        assert np.all(np.diff(vh) < 0)

    def test_truncation_independence(self):
        for a in (1.0, 1.78, 2.65, 4.0):
            J = C._truncation_1d(a)
            assert C.theta_1d(a) == theta_1d_terms(a, J)
            assert abs(C.theta_1d(a) - theta_1d_terms(a, J + 5)) < 1e-14
            assert theta_1d_tail_bound(a) < 1e-16
        for al in (1.3, 1.91, 2.8):
            R = C._truncation_hex(al)
            assert C.theta_hex(al) == theta_hex_terms(al, R)
            assert abs(C.theta_hex(al) - theta_hex_terms(al, R + 5)) < 1e-14
            assert theta_hex_tail_bound(al) < 1e-16

    def test_poisson_small_a_limit(self):
        # theta_1d(a) -> sqrt(2 pi)/a and theta_hex -> 4 pi/(sqrt 3 a^2)
        a = 0.05
        J = math.ceil(20 / a)
        assert abs(theta_1d_terms(a, J) * a / math.sqrt(2 * math.pi) - 1) < 1e-12
        ah = 0.3
        R = math.ceil(30 / ah)
        want = 4 * math.pi / (math.sqrt(3) * ah * ah)
        assert abs(theta_hex_terms(ah, R) / want - 1) < 1e-10

    def test_defining_value_m1(self):
        # a_1 ~ 1.7794: square root of pi/beta_1
        a1 = math.sqrt(math.pi / BETA_TABLE[0])
        assert abs(C.theta_1d(a1) - math.sqrt(2.0)) < 2e-5


class TestSolvers:
    def test_all_twelve_constants_to_five_decimals(self):
        t0 = time.time()
        rows = C.constants_table(6)
        for row, b, bp in zip(rows, BETA_TABLE, BETA_PRIME_TABLE):
            assert round(row["beta_m"], 5) == b
            assert round(row["beta_prime_m"], 5) == bp
        assert time.time() - t0 < 1.0

    def test_residuals(self):
        for m in (1, 3, 6):
            assert C.solve_beta(m).residual <= 1e-13
            assert C.solve_beta_prime(m).residual <= 1e-13

    def test_density_identity(self):
        # beta'/beta = (2/sqrt 3)^m (a/alpha)^{2m}
        for row in C.constants_table(6):
            m = row["m"]
            lhs = row["beta_prime_m"] / row["beta_m"]
            rhs = (2 / math.sqrt(3)) ** m * (row["a_m"] / row["alpha_m"]) ** (2 * m)
            assert abs(lhs - rhs) < 1e-10

    def test_hex_always_denser(self):
        for row in C.constants_table(6):
            assert row["beta_prime_m"] > row["beta_m"]

    def test_extended_range_flagged(self):
        rows = C.constants_table(9)
        assert rows[-1]["extrapolated"]
        assert 0 < C.solve_beta(9).density < C.solve_beta(6).density
        assert not rows[3]["extrapolated"]
        with pytest.raises(C.ConstantsError):
            C.solve_beta(13)

    def test_spacings_increase_with_m(self):
        a = [C.solve_beta(m).spacing for m in range(1, 9)]
        al = [C.solve_beta_prime(m).spacing for m in range(1, 9)]
        assert np.all(np.diff(a) > 0)
        assert np.all(np.diff(al) > 0)


class TestDerivedRelations:
    def test_eta_at_critical_density_is_one(self):
        for m in (1, 2, 4):
            beta = C.solve_beta(m).density
            assert abs(eta_from_cubic_density(beta, m) - 1.0) < 1e-9

    def test_eta_below_one_under_critical(self):
        assert eta_from_cubic_density(0.8, 1) < 1.0
        assert eta_from_cubic_density(0.4, 2) < 1.0
        # monotone in beta
        vals = [eta_from_cubic_density(b, 1) for b in (0.5, 0.7, 0.9)]
        assert vals[0] < vals[1] < vals[2]

    def test_hex_beats_cubic_at_equal_density(self):
        # below c ~ 1 the true margin falls under float resolution (both
        # sums approach 2 pi/c and differ by O(e^{-2 pi^2/c})), so the
        # grid starts where the sign is numerically meaningful
        margins = hex_vs_cubic_margin(np.linspace(1.0, 12.0, 60))
        assert np.all(margins > 0)
