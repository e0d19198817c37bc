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


class ConstantsError(ValueError):
    pass


def _truncation_1d(a: float) -> int:
    return max(4, math.ceil(math.sqrt(2 * TAIL_EXPONENT) / a) + 2)


def theta_1d(a: float, terms: int | None = None) -> float:
    """sum_{j in Z} exp(-a^2 j^2 / 2), truncated with tail < 1e-16."""
    if a <= 0:
        raise ConstantsError("theta argument must be positive")
    J = _truncation_1d(a) if terms is None else terms
    j = np.arange(1, J + 1, dtype=np.float64)
    return float(1.0 + 2.0 * np.sum(np.exp(-0.5 * a * a * j * j)))


def theta_1d_tail_bound(a: float) -> float:
    """Geometric-majorant bound on the tail theta_1d drops: 2 e^{-a^2 J^2/2} / (1 - e^{-a^2 J})."""
    J = _truncation_1d(a)
    top = 2.0 * math.exp(-0.5 * a * a * J * J)
    return top / (1.0 - math.exp(-(a * a) * J))


def _truncation_hex(alpha: float) -> int:
    # Q(mu) >= |mu|^2 / 2, so per-term decay is at least e^{-alpha^2 |mu|^2/4}
    return max(4, math.ceil(math.sqrt(4 * TAIL_EXPONENT) / alpha) + 2)


def theta_hex(alpha: float, radius: int | None = None) -> float:
    """sum over Z^2 of exp(-alpha^2 (mu1^2 + mu2^2 + mu1 mu2)/2)."""
    if alpha <= 0:
        raise ConstantsError("theta argument must be positive")
    R = _truncation_hex(alpha) if radius is None else radius
    g = np.arange(-R, R + 1, dtype=np.float64)
    m1, m2 = np.meshgrid(g, g, indexing="ij")
    q = m1 * m1 + m2 * m2 + m1 * m2
    return float(np.sum(np.exp(-0.5 * alpha * alpha * q)))


def theta_hex_tail_bound(alpha: float) -> float:
    """Computable majorant of the tail theta_hex drops, via the shell
    count 8s and the lower bound Q >= |mu|_inf^2 / 2 on each shell."""
    R = _truncation_hex(alpha)
    s = np.arange(R + 1, R + 200, dtype=np.float64)
    return float(np.sum(8.0 * s * np.exp(-0.25 * alpha * alpha * s * s)))


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
    m: int
    spacing: float
    density: float
    residual: float
    truncation: int
    lattice: str
    extrapolated: bool


def solve_beta(m: int) -> ThetaSolution:
    """Critical cubic spacing a_m with theta_1d(a_m) = 2^{1/2m} and the
    density fraction beta_m = pi^m / a_m^{2m}."""
    if not 1 <= m <= 12:
        raise ConstantsError("m out of the supported range 1..12")
    target = 2.0 ** (1.0 / (2 * m))
    a = _bisect_then_secant(lambda x: theta_1d(x) - target, 0.9, 8.0)
    beta = math.pi**m / a ** (2 * m)
    return ThetaSolution(
        m=m,
        spacing=a,
        density=beta,
        residual=abs(theta_1d(a) - target),
        truncation=_truncation_1d(a),
        lattice="cubic",
        extrapolated=m > TABLE_LIMIT,
    )


def solve_beta_prime(m: int) -> ThetaSolution:
    """Critical hexagonal spacing alpha_m with theta_hex = 2^{1/m} and
    beta'_m = (2 pi / (sqrt(3) alpha_m^2))^m."""
    if not 1 <= m <= 12:
        raise ConstantsError("m out of the supported range 1..12")
    target = 2.0 ** (1.0 / m)
    alpha = _bisect_then_secant(lambda x: theta_hex(x) - target, 0.9, 8.0)
    beta_p = (2 * math.pi / (math.sqrt(3.0) * alpha * alpha)) ** m
    return ThetaSolution(
        m=m,
        spacing=alpha,
        density=beta_p,
        residual=abs(theta_hex(alpha) - target),
        truncation=_truncation_hex(alpha),
        lattice="hexagonal",
        extrapolated=m > TABLE_LIMIT,
    )


@dataclass(frozen=True)
class ConstantsRow:
    m: int
    a: float
    beta: float
    alpha: float
    beta_prime: float
    residual: float
    truncation: int
    extrapolated: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "a_m": self.a,
            "beta_m": self.beta,
            "alpha_m": self.alpha,
            "beta_prime_m": self.beta_prime,
            "residual": self.residual,
            "truncation": self.truncation,
            "extrapolated": self.extrapolated,
        }


def constants_table(max_m: int = TABLE_LIMIT) -> list:
    rows = []
    for m in range(1, max_m + 1):
        c = solve_beta(m)
        h = solve_beta_prime(m)
        rows.append(
            ConstantsRow(
                m=m,
                a=c.spacing,
                beta=c.density,
                alpha=h.spacing,
                beta_prime=h.density,
                residual=max(c.residual, h.residual),
                truncation=max(c.truncation, h.truncation),
                extrapolated=m > TABLE_LIMIT,
            )
        )
    return rows


def eta_from_cubic_density(beta: float, m: int) -> float:
    """Gram-perturbation level eta implied by running a cubic lattice at
    density fraction beta: spacing a = sqrt(pi / beta^{1/m}) and
    eta = theta_1d(a)^{2m} - 1.  Strictly below 1 for beta < beta_m."""
    if not 0 < beta:
        raise ConstantsError("density fraction must be positive")
    a = math.sqrt(math.pi / beta ** (1.0 / m))
    return theta_1d(a) ** (2 * m) - 1.0


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
            raise ConstantsError("covolume must be positive")
        a = math.sqrt(c)
        alpha = math.sqrt(2.0 * c / math.sqrt(3.0))
        out.append(theta_1d(a) ** 2 - theta_hex(alpha))
    return np.asarray(out)
