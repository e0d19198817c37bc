"""Level-k reproducing kernels on CP^m and their coherent-state sections.

Degree-k holomorphic sections of the k-th power of the hyperplane bundle
are homogeneous polynomials of degree k on C^{m+1}, evaluated here at
unit vectors: a point of CP^m enters every function of this module as one
(m+1,) unit vector over it, whose phase the values follow equivariantly,
and a level as the pair (m, k).  The reproducing kernel has the closed
form

    Pi_k(x, y) = diag * <x, y>^k,     diag = C(k+m, m) * m! / pi^m,

which this module verifies against the defining monomial-basis sum; diag
is kernel_diag(m, k), d_k over the volume pi^m/m! of CP^m.  All
large-k magnitudes are carried as log magnitude plus phase so that levels
in the thousands stay exact to working precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import volume

# stand-in for log 0 in masked log-domain work; large enough that exp
# underflows to exactly 0.0 after any multiplication by a level k
LOG_ZERO = -1e12

# monomial-basis entries monomial_basis builds at once (lifts x d_k): with
# the chunk's real temporary, 24 bytes each, about 12 MB
BASIS_CHUNK_ENTRIES = 5e5


class KernelError(ValueError):
    pass


def dimension(m: int, k: int) -> int:
    """dim of the degree-k section space: C(k+m, m) (exact integer)."""
    return math.comb(k + m, m)


def kernel_diag(m: int, k: int) -> float:
    """On-diagonal kernel value d_k / Vol, Vol = pi^m / m! (geometry.volume)."""
    if m < 1 or k < 0:
        raise KernelError("need m >= 1 and k >= 0")
    return dimension(m, k) / volume(m)


def _check_lift(m: int, x: np.ndarray):
    if np.shape(x) != (m + 1,):
        raise KernelError("lift dimension does not match m")


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

    indices: multi_indices(m, k); log_weights: log w_alpha, which scale
    the orthonormal monomials z^alpha / sqrt(w_alpha); half_multinomial:
    log sqrt(k!/alpha!), the coherent-state magnitudes at |y_i| = 1.
    """

    indices: np.ndarray
    log_weights: np.ndarray
    half_multinomial: np.ndarray


@functools.lru_cache(maxsize=32)
def monomial_table(m: int, k: int) -> MonomialTable:
    """The cached MonomialTable of level k on CP^m (arrays are read-only)."""
    idx = _graded_lex(m, k)
    logw = log_monomial_weights(m, k, idx)
    lg = np.vectorize(math.lgamma)
    table = MonomialTable(
        indices=idx,
        log_weights=logw,
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


def _inner(x: np.ndarray, y: np.ndarray) -> complex:
    # <x, y> = sum_i x_i conj(y_i)
    return complex(np.vdot(y, x))


def szego_kernel(m: int, k: int, x: np.ndarray, y: np.ndarray) -> complex:
    """Closed-form kernel diag * <x,y>^k at unit vectors x and y,
    evaluated in log-domain."""
    _check_lift(m, x)
    _check_lift(m, y)
    u = _inner(x, y)
    r = abs(u)
    if r == 0.0:
        return 0.0 if k > 0 else complex(kernel_diag(m, k))
    logmag = math.log(kernel_diag(m, k)) + k * math.log(r)
    return math.exp(logmag) * np.exp(1j * k * np.angle(u))


def szego_kernel_monomial_sum(m: int, k: int, x: np.ndarray, y: np.ndarray) -> complex:
    """Defining sum over an orthonormal monomial basis (oracle path).

    Pi_k(x, y) = sum_alpha x^alpha conj(y^alpha) / w_alpha with exact
    weights; O(d_k) work, intended for small k.
    """
    _check_lift(m, x)
    _check_lift(m, y)
    idx = multi_indices(m, k)
    total = 0.0 + 0.0j
    for alpha in idx:
        w = monomial_weight_exact(m, alpha)
        mono_x = np.prod(x**alpha)
        mono_y = np.prod(y**alpha)
        total += mono_x * np.conj(mono_y) / w
    return complex(total)


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
    Coefficients over the plain monomials z^alpha would overflow float64
    at high levels (m = 1 from about k = 2060), so none is ever formed.
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

    def evaluate_lifts(self, rows: np.ndarray) -> np.ndarray:
        """Section values at the lifts whose orthonormal monomial basis rows
        (monomial_basis) are rows: rows @ ortho_coeffs.  A value depends on
        its row only, not on the other rows of the call: a lone row is
        evaluated as a pair, since a one-row product goes through another
        BLAS kernel and rounds differently."""
        pair = np.concatenate([rows, rows]) if len(rows) == 1 else rows
        return (pair @ self.ortho_coeffs)[:len(rows)]


def _log_modulus(z: np.ndarray) -> np.ndarray:
    """log|z| elementwise, LOG_ZERO where z = 0."""
    mag = np.abs(z)
    return np.where(mag > 0, np.log(np.maximum(mag, 1e-300)), LOG_ZERO)


def monomial_basis(m: int, k: int, lifts: np.ndarray) -> np.ndarray:
    """The orthonormal monomials z^alpha / sqrt(w_alpha) at unit lifts,
    shape (points, d_k), in graded lex order.

    Each entry is exp(alpha . log|z| - log(w_alpha) / 2 + i alpha . arg z),
    built into one preallocated output, one chunk of at most
    BASIS_CHUNK_ENTRIES entries at a time and exponentiated in place, so
    the real temporaries stay within one chunk however many lifts the
    call has.  A row depends on its lift only, not on the other lifts of
    the call: no chunk holds a single lift (a lone last lift is built
    again with the one before it, and a lone lift as a batch of two),
    since a one-row product goes through another BLAS kernel and rounds
    differently.
    """
    if len(lifts) == 1:
        return monomial_basis(m, k, np.concatenate([lifts, lifts]))[:1]
    tab = monomial_table(m, k)
    idx = tab.indices
    basis = np.empty((len(lifts), len(idx)), dtype=np.complex128)
    step = max(2, int(BASIS_CHUNK_ENTRIES // len(idx)))
    for lo in range(0, len(lifts), step):
        lo = min(lo, len(lifts) - 2)
        chunk, part = lifts[lo:lo + step], basis[lo:lo + step]
        part.real = _log_modulus(chunk) @ idx.T
        part.real -= 0.5 * tab.log_weights
        part.imag = np.angle(chunk) @ idx.T
        np.exp(part, out=part)
    return basis


def coherent_state(m: int, k: int, y: np.ndarray) -> SectionExpansion:
    """L^2-normalized kernel section peaked at the unit vector y.

    Phi_y = Pi_k(., y) / sqrt(diag); its orthonormal-basis coefficients
    are sqrt(k!/alpha!) * conj(y)^alpha, computed with lgamma so that no
    factorial is ever formed.
    """
    _check_lift(m, y)
    tab = monomial_table(m, k)
    idx = tab.indices
    phase = np.angle(np.conj(y))
    logb = tab.half_multinomial + idx @ _log_modulus(y)
    ortho = np.exp(logb + 1j * (idx @ phase))
    return SectionExpansion.from_ortho(m, k, ortho)


# ---------------------------------------------------------------------------
# decay regimes


def gaussian_deviation(d) -> np.ndarray:
    """Relative deviation of log P_k from its Gaussian model:
    (-log cos d) / (d^2/2) - 1 = d^2/6 + 2 d^4/45 + ...  (k cancels).
    The numerator is -log_normalized_from_distance(1, d), so small d keeps
    full relative precision; d is below pi/2."""
    d = np.asarray(d, dtype=np.float64)
    return -log_normalized_from_distance(1, d) / (d * d / 2.0) - 1.0


def near_threshold(m: int, k: int) -> float:
    """b sqrt(log k / k) with b = sqrt(4m+3)."""
    return math.sqrt(4 * m + 3) * math.sqrt(math.log(k) / k)


def far_threshold(m: int, k: int) -> float:
    """sqrt((2q+2m+1) log k / k) with q = m+1."""
    q = m + 1
    return math.sqrt((2 * q + 2 * m + 1) * math.log(k) / k)


def verify_decay(m: int, k: int) -> tuple:
    """Measure both decay regimes of the normalized kernel, as the pair
    (near, far) of JSON-ready dicts with the keys regime, k,
    "max deviation", "sample count" and threshold; far is None when its
    regime is empty.

    Near regime (d <= b sqrt(log k / k), b = sqrt(4m+3)): max relative
    deviation of log P_k from -k d^2/2 over an interior grid of the
    regime (fractions i/20 of the threshold, i = 1..19; d = 0 is excluded
    as the regimes are defined by strict distance windows).

    Far regime (d >= sqrt((2q+2m+1) log k / k), q = m+1): max of
    P_k * k^q over 19 equispaced distances up to pi/2.  Empty when the
    threshold reaches the diameter pi/2.
    """
    samples = 19
    if k < 2:
        raise KernelError("decay regimes need k >= 2")
    q = m + 1
    d_near = near_threshold(m, k)
    fracs = np.arange(1, samples + 1) / (samples + 1.0)
    grid = fracs * min(d_near, math.pi / 2 - 1e-9)
    near = {
        "regime": "near",
        "k": k,
        "max deviation": float(np.max(gaussian_deviation(grid))),
        "sample count": samples,
        "threshold": d_near,
    }
    d_far = far_threshold(m, k)
    far = None
    if d_far < math.pi / 2:
        fgrid = np.linspace(d_far, math.pi / 2, samples)
        vals = np.exp(log_normalized_from_distance(k, fgrid) + q * math.log(k))
        far = {
            "regime": "far",
            "k": k,
            "max deviation": float(np.max(vals)),
            "sample count": samples,
            "threshold": d_far,
        }
    return near, far
