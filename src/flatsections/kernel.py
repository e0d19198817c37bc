"""Level-k reproducing kernels on CP^m and their coherent-state sections.

Degree-k holomorphic sections of the k-th power of the hyperplane bundle
are homogeneous polynomials of degree k on C^{m+1}; restricted to the
unit sphere they become the equivariant lifts everything here computes
with.  The reproducing kernel has the closed form

    Pi_k(x, y) = diag * <x, y>^k,     diag = C(k+m, m) * m! / pi^m,

which this module verifies against the defining monomial-basis sum.  All
large-k magnitudes are carried as log magnitude plus phase so that levels
in the thousands stay exact to working precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ProjectivePoint, UnitLift, fs_distance

# stand-in for log 0 in masked log-domain work; large enough that exp
# underflows to exactly 0.0 after any multiplication by a level k
LOG_ZERO = -1e12


class KernelError(ValueError):
    pass


def dimension(m: int, k: int) -> int:
    """dim of the degree-k section space: C(k+m, m) (exact integer)."""
    return math.comb(k + m, m)


@dataclass(frozen=True)
class KernelModel:
    """CP^m at level k with its kernel normalization constants."""

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 0:
            raise KernelError("need m >= 1 and k >= 0")

    @property
    def d_k(self) -> int:
        return dimension(self.m, self.k)

    @property
    def diag(self) -> float:
        """On-diagonal kernel value d_k * m! / pi^m."""
        return self.d_k * math.factorial(self.m) / math.pi**self.m

    @property
    def log_diag(self) -> float:
        return (
            math.lgamma(self.m + self.k + 1)
            - math.lgamma(self.k + 1)
            - math.lgamma(self.m + 1)
            + math.log(math.factorial(self.m))
            - self.m * math.log(math.pi)
        )

    def _check_lift(self, x: UnitLift):
        if x.vector.shape[0] != self.m + 1:
            raise KernelError("lift dimension does not match the model")


def _graded_lex(m: int, k: int) -> np.ndarray:
    if m == 0:
        return np.array([[k]], dtype=np.int64)
    blocks = []
    for a0 in range(k, -1, -1):
        sub = _graded_lex(m - 1, k - a0)
        block = np.empty((sub.shape[0], m + 1), dtype=np.int64)
        block[:, 0] = a0
        block[:, 1:] = sub
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def log_monomial_weights(m: int, k: int, indices: np.ndarray) -> np.ndarray:
    """log of the L^2 weights w_alpha = pi^m * alpha! / (m+k)!.

    w_alpha is the squared L^2 norm of the monomial z^alpha over CP^m
    with total volume pi^m/m! (derived from the sphere moment
    integral alpha!*m!/(m+k)! times the volume normalization).
    """
    lg = np.vectorize(math.lgamma)
    return (
        m * math.log(math.pi)
        + np.sum(lg(indices + 1.0), axis=1)
        - math.lgamma(m + k + 1)
    )


@dataclass(frozen=True)
class MonomialTable:
    """Read-only per-(m, k) tables shared by every section of a level.

    indices: multi_indices(m, k); log_weights: log w_alpha;
    sqrt_weights / inv_sqrt_weights: exp(+-log_weights / 2), the factors
    between raw and orthonormal coefficients; half_multinomial:
    log sqrt(k!/alpha!), the coherent-state magnitudes at |y_i| = 1.
    """

    indices: np.ndarray
    log_weights: np.ndarray
    sqrt_weights: np.ndarray
    inv_sqrt_weights: np.ndarray
    half_multinomial: np.ndarray


@functools.lru_cache(maxsize=32)
def monomial_table(m: int, k: int) -> MonomialTable:
    """The cached MonomialTable of level k on CP^m (arrays are read-only)."""
    idx = _graded_lex(m, k)
    logw = log_monomial_weights(m, k, idx)
    lg = np.vectorize(math.lgamma)
    # inv_sqrt_weights overflows to inf at m = 1 from about k = 2060;
    # the package reads it only in certify.emit_polynomials, which checks
    with np.errstate(over="ignore"):
        inv_sqrt_weights = np.exp(-0.5 * logw)
    table = MonomialTable(
        indices=idx,
        log_weights=logw,
        sqrt_weights=np.exp(0.5 * logw),
        inv_sqrt_weights=inv_sqrt_weights,
        half_multinomial=0.5 * (math.lgamma(k + 1) - np.sum(lg(idx + 1.0), axis=1)),
    )
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def multi_indices(m: int, k: int) -> np.ndarray:
    """All (m+1)-part multi-indices of degree k, graded lex order.

    Graded lex with z_0 > z_1 > ... > z_m: (k,0,...,0) first, then
    descending in alpha_0, recursively.  This order is shared by every
    coefficient vector in the package.  The array is cached and read-only.
    """
    return monomial_table(m, k).indices


def monomial_weight_exact(m: int, alpha) -> float:
    """Exact-rational monomial weight, for small-degree oracles."""
    k = int(sum(alpha))
    num = math.prod(math.factorial(int(a)) for a in alpha)
    return math.pi**m * num / math.factorial(m + k)


# ---------------------------------------------------------------------------
# kernel values


def _inner(x: UnitLift, y: UnitLift) -> complex:
    # <x, y> = sum_i x_i conj(y_i)
    return complex(np.vdot(y.vector, x.vector))


def szego_kernel(model: KernelModel, x: UnitLift, y: UnitLift) -> complex:
    """Closed-form kernel diag * <x,y>^k, evaluated in log-domain."""
    model._check_lift(x)
    model._check_lift(y)
    u = _inner(x, y)
    r = abs(u)
    if r == 0.0:
        return 0.0 if model.k > 0 else complex(model.diag)
    logmag = model.log_diag + model.k * math.log(r)
    return math.exp(logmag) * np.exp(1j * model.k * np.angle(u))


def szego_kernel_monomial_sum(model: KernelModel, x: UnitLift, y: UnitLift) -> complex:
    """Defining sum over an orthonormal monomial basis (oracle path).

    Pi_k(x, y) = sum_alpha x^alpha conj(y^alpha) / w_alpha with exact
    weights; O(d_k) work, intended for small k.
    """
    model._check_lift(x)
    model._check_lift(y)
    idx = multi_indices(model.m, model.k)
    total = 0.0 + 0.0j
    for alpha in idx:
        w = monomial_weight_exact(model.m, alpha)
        mono_x = np.prod(x.vector**alpha)
        mono_y = np.prod(y.vector**alpha)
        total += mono_x * np.conj(mono_y) / w
    return complex(total)


def normalized_kernel(model: KernelModel, z: ProjectivePoint, w: ProjectivePoint) -> float:
    """P_k(z, w) = cos^k of the geodesic distance, in [0, 1]."""
    return normalized_from_distance(model.k, fs_distance(z, w))


def normalized_from_distance(k: int, d) -> np.ndarray:
    """cos^k(d) evaluated as exp(k log cos d); exactly 0 at the cut locus."""
    out = np.exp(log_normalized_from_distance(k, d))
    return float(out) if np.ndim(out) == 0 else out


def log_normalized_from_distance(k: int, d) -> np.ndarray:
    """k * log cos d, stable for small d via log1p(-2 sin^2(d/2)).

    Inner products under 1e-14 (distance within rounding of pi/2) are
    treated as exact orthogonality and mapped to LOG_ZERO.
    """
    d = np.asarray(d, dtype=np.float64)
    dd = np.minimum(d, math.pi / 2)
    s = np.sin(0.5 * dd)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log1p(np.clip(-2.0 * s * s, -1.0, -0.0))
    c = np.cos(dd)
    logs = np.where(c > 1e-14, logs, LOG_ZERO)
    out = k * logs
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# coherent states as explicit polynomial sections


@dataclass(frozen=True)
class SectionExpansion:
    """A degree-k section as orthonormal-basis coefficients only.

    ortho_coeffs[i] multiplies the L^2-orthonormal monomial
    z^alpha_i / sqrt(w_alpha_i) (graded lex order, multi_indices); the
    plain Euclidean norm of ortho_coeffs is the L^2 norm of the section.
    Raw monomial coefficients, ortho_coeffs * inv_sqrt_weights, overflow
    at high levels (m = 1 from about k = 2060) and are formed only where
    a polynomial is written out (certify.emit_polynomials).
    """

    m: int
    k: int
    ortho_coeffs: np.ndarray

    def __post_init__(self):
        if self.ortho_coeffs.shape[0] != dimension(self.m, self.k):
            raise KernelError("coefficient count must equal C(k+m, m)")

    @classmethod
    def from_ortho(cls, m: int, k: int, ortho: np.ndarray) -> "SectionExpansion":
        return cls(m=m, k=k, ortho_coeffs=np.asarray(ortho, dtype=np.complex128))

    @classmethod
    def from_coeffs(cls, m: int, k: int, coeffs) -> "SectionExpansion":
        """Section with the given raw monomial coefficients."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        return cls.from_ortho(m, k, coeffs * monomial_table(m, k).sqrt_weights)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.ortho_coeffs))

    def evaluate_lifts(self, lifts: np.ndarray) -> np.ndarray:
        """Section values at unit lifts (rows); log-domain monomials."""
        return evaluate_sections(self.m, self.k, [self.ortho_coeffs], lifts)[0]


def evaluate_sections(m: int, k: int, ortho_rows, lifts: np.ndarray) -> np.ndarray:
    """Values of several level-k sections at unit lifts, shape (sections, points).

    ortho_rows holds one orthonormal-basis coefficient vector per section.
    The log-domain monomial basis is built once per chunk of at most 2e6
    entries and applied to each section by its own matrix-vector product,
    so row j is bit-identical to evaluating section j on its own.
    """
    tab = monomial_table(m, k)
    idx, half_logw = tab.indices, 0.5 * tab.log_weights
    lifts = np.atleast_2d(np.asarray(lifts, dtype=np.complex128))
    mag = np.abs(lifts)
    logmag = np.where(mag > 0, np.log(np.maximum(mag, 1e-300)), LOG_ZERO)
    phase = np.angle(lifts)
    out = np.empty((len(ortho_rows), lifts.shape[0]), dtype=np.complex128)
    step = max(1, int(2e6 // max(1, len(idx))))
    for lo in range(0, lifts.shape[0], step):
        hi = min(lo + step, lifts.shape[0])
        # the exponent log|z^alpha| - log w_alpha + i arg z^alpha, (chunk, d_k),
        # built in one buffer and exponentiated in place
        basis = np.empty((hi - lo, len(idx)), dtype=np.complex128)
        basis.real = logmag[lo:hi] @ idx.T
        basis.real -= half_logw
        basis.imag = phase[lo:hi] @ idx.T
        np.exp(basis, out=basis)
        for j, row in enumerate(ortho_rows):
            out[j, lo:hi] = basis @ row
    return out


def coherent_state(model: KernelModel, y: UnitLift) -> SectionExpansion:
    """L^2-normalized kernel section peaked at y.

    Phi_y = Pi_k(., y) / sqrt(diag); its orthonormal-basis coefficients
    are sqrt(k!/alpha!) * conj(y)^alpha, computed with lgamma so that no
    factorial is ever formed.
    """
    model._check_lift(y)
    m, k = model.m, model.k
    tab = monomial_table(m, k)
    idx = tab.indices
    mag = np.abs(y.vector)
    logmag = np.where(mag > 0, np.log(np.maximum(mag, 1e-300)), LOG_ZERO)
    phase = np.angle(np.conj(y.vector))
    logb = tab.half_multinomial + idx @ logmag
    ortho = np.exp(logb + 1j * (idx @ phase))
    return SectionExpansion.from_ortho(m, k, ortho)


def coherent_peak(model: KernelModel) -> float:
    """Value |Phi_y(y)| = sqrt(diag), independent of y."""
    return math.exp(0.5 * model.log_diag)


# ---------------------------------------------------------------------------
# decay regimes


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    k: int
    max_deviation: float
    sample_count: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "k": self.k,
            "max deviation": self.max_deviation,
            "sample count": self.sample_count,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class DecayReport:
    m: int
    k: int
    near: RegimeReport
    far: RegimeReport | None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "near": self.near.to_dict(),
            "far": self.far.to_dict() if self.far is not None else None,
        }


def gaussian_deviation(d) -> np.ndarray:
    """Relative deviation of log P_k from its Gaussian model:
    (-log cos d) / (d^2/2) - 1 = d^2/6 + 2 d^4/45 + ...  (k cancels).
    Evaluated through log1p(-2 sin^2(d/2)) so small d keeps full
    relative precision."""
    d = np.asarray(d, dtype=np.float64)
    s = np.sin(0.5 * d)
    num = -np.log1p(np.clip(-2.0 * s * s, -1.0 + 1e-300, -0.0))
    return num / (d * d / 2.0) - 1.0


def near_threshold(m: int, k: int) -> float:
    """b sqrt(log k / k) with b = sqrt(4m+3)."""
    return math.sqrt(4 * m + 3) * math.sqrt(math.log(k) / k)


def far_threshold(m: int, k: int) -> float:
    """sqrt((2q+2m+1) log k / k) with q = m+1."""
    q = m + 1
    return math.sqrt((2 * q + 2 * m + 1) * math.log(k) / k)


def verify_decay(model: KernelModel) -> DecayReport:
    """Measure both decay regimes of the normalized kernel.

    Near regime (d <= b sqrt(log k / k), b = sqrt(4m+3)): max relative
    deviation of log P_k from -k d^2/2 over an interior grid of the
    regime (fractions i/20 of the threshold, i = 1..19; d = 0 is excluded
    as the regimes are defined by strict distance windows).

    Far regime (d >= sqrt((2q+2m+1) log k / k), q = m+1): max of
    P_k * k^q over 19 equispaced distances up to pi/2.  Empty when the
    threshold exceeds the diameter.
    """
    samples = 19
    m, k = model.m, model.k
    if k < 2:
        raise KernelError("decay regimes need k >= 2")
    q = m + 1
    d_near = near_threshold(m, k)
    fracs = np.arange(1, samples + 1) / (samples + 1.0)
    grid = fracs * min(d_near, math.pi / 2 - 1e-9)
    near = RegimeReport(
        regime="near",
        k=k,
        max_deviation=float(np.max(gaussian_deviation(grid))),
        sample_count=samples,
        threshold=d_near,
    )
    d_far = far_threshold(m, k)
    far = None
    if d_far < math.pi / 2:
        fgrid = np.linspace(d_far, math.pi / 2, samples)
        vals = np.exp(log_normalized_from_distance(k, fgrid) + q * math.log(k))
        far = RegimeReport(
            regime="far",
            k=k,
            max_deviation=float(np.max(vals)),
            sample_count=samples,
            threshold=d_far,
        )
    return DecayReport(m=m, k=k, near=near, far=far)
