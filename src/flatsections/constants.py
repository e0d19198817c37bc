"""Universal lattice constants from Gaussian theta sums.

A lattice of spacing a/sqrt(k) in each tangent plane produces a coherent
frame whose Gram row sums are controlled by the Gaussian lattice sum
("theta sum") of the spacing.  Requiring the 2m-th power of the
one-dimensional sum to equal 2 (equivalently, Gram perturbation eta = 1)
pins the critical cubic spacing a_m, hence the density fraction

    beta_m = pi^m / a_m^{2m},

and likewise the hexagonal form mu1^2 + mu2^2 + mu1*mu2 per complex
coordinate pins alpha_m and beta'_m = (2*pi/(sqrt(3)*alpha_m^2))^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# e^{-45} ~ 2.9e-20: truncation keeps tails three orders under 1e-16
TAIL_EXPONENT = 45.0

# frozen reference values stop at m = 6; larger m is solver extrapolation
TABLE_LIMIT = 6

# theta sums past this many terms (arguments under 4.5e-6 cubic, 0.013 hexagonal) are refused
MAX_THETA_TERMS = 2 ** 22


class ConstantsError(ValueError):
    pass


def _truncation(reach: float, dims: int) -> int:
    """max(4, ceil(reach) + 2) terms per axis of a sum over dims axes;
    ConstantsError past MAX_THETA_TERMS, tested before reach is rounded."""
    if not 2 * reach <= MAX_THETA_TERMS ** (1 / dims):
        raise ConstantsError("a theta sum reaching %.3g lattice steps passes %d terms"
                             % (reach, MAX_THETA_TERMS))
    return max(4, math.ceil(reach) + 2)


def _truncation_1d(a: float) -> int:
    return _truncation(math.sqrt(2 * TAIL_EXPONENT) / a, 1)


def theta_1d(a: float) -> float:
    """sum_{j in Z} exp(-a^2 j^2 / 2), truncated with tail < 1e-16."""
    if a <= 0:
        raise ConstantsError("theta argument must be positive")
    J = _truncation_1d(a)
    j = np.arange(1, J + 1, dtype=np.float64)
    return float(1.0 + 2.0 * np.sum(np.exp(-0.5 * a * a * j * j)))


def _truncation_hex(alpha: float) -> int:
    # Q(mu) >= |mu|^2 / 2, so per-term decay is at least e^{-alpha^2 |mu|^2/4}
    return _truncation(math.sqrt(4 * TAIL_EXPONENT) / alpha, 2)


def theta_hex(alpha: float) -> float:
    """sum over Z^2 of exp(-alpha^2 (mu1^2 + mu2^2 + mu1 mu2)/2)."""
    if alpha <= 0:
        raise ConstantsError("theta argument must be positive")
    R = _truncation_hex(alpha)
    g = np.arange(-R, R + 1, dtype=np.float64)
    m1, m2 = np.meshgrid(g, g, indexing="ij")
    q = m1 * m1 + m2 * m2 + m1 * m2
    return float(np.sum(np.exp(-0.5 * alpha * alpha * q)))


# ---------------------------------------------------------------------------
# root finding


def _bisect_then_secant(f, lo: float, hi: float) -> float:
    """Bisection to width 1e-10 followed by two secant polish steps.

    f must be continuous and strictly monotone on [lo, hi] with a sign
    change; both assumptions hold for theta sums minus a level.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ConstantsError("root not bracketed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    x0, x1 = lo, hi
    f0, f1 = f(x0), f(x1)
    for _ in range(2):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x0, f0, x1, f1 = x1, f1, x2, f(x2)
    return x1


@dataclass(frozen=True)
class ThetaSolution:
    spacing: float
    density: float
    residual: float
    truncation: int


def _solve_critical(m: int, factors: int, theta, truncation, density) -> ThetaSolution:
    """The spacing x in [0.9, 8] at which the product of `factors` theta
    sums theta(x) equals 2, with its density fraction density(x)."""
    if not 1 <= m <= 12:
        raise ConstantsError("m out of the supported range 1..12")
    target = 2.0 ** (1.0 / factors)
    x = _bisect_then_secant(lambda s: theta(s) - target, 0.9, 8.0)
    return ThetaSolution(
        spacing=x,
        density=density(x),
        residual=abs(theta(x) - target),
        truncation=truncation(x),
    )


def solve_beta(m: int) -> ThetaSolution:
    """Critical cubic spacing a_m with theta_1d(a_m) = 2^{1/2m} and the
    density fraction beta_m = pi^m / a_m^{2m}."""
    return _solve_critical(m, 2 * m, theta_1d, _truncation_1d,
                           lambda a: math.pi**m / a ** (2 * m))


def solve_beta_prime(m: int) -> ThetaSolution:
    """Critical hexagonal spacing alpha_m with theta_hex = 2^{1/m} and
    beta'_m = (2 pi / (sqrt(3) alpha_m^2))^m."""
    return _solve_critical(m, m, theta_hex, _truncation_hex,
                           lambda alpha: (2 * math.pi / (math.sqrt(3.0) * alpha * alpha)) ** m)


def constants_table(max_m: int = TABLE_LIMIT) -> list:
    """One JSON-ready row per m = 1..max_m, keys in constants.csv column
    order: the critical cubic spacing a_m and density beta_m, the critical
    hexagonal spacing alpha_m and density beta'_m, the larger solver
    residual and truncation of the two, and whether m lies past the
    table the paper prints."""
    rows = []
    for m in range(1, max_m + 1):
        c = solve_beta(m)
        h = solve_beta_prime(m)
        rows.append({
            "m": m,
            "a_m": c.spacing,
            "beta_m": c.density,
            "alpha_m": h.spacing,
            "beta_prime_m": h.density,
            "residual": max(c.residual, h.residual),
            "truncation": max(c.truncation, h.truncation),
            "extrapolated": m > TABLE_LIMIT,
        })
    return rows
