"""Gram assembly and inverse-square-root whitening of a coherent frame.

The frame sections have pairwise inner products <Phi_mu, Phi_nu> equal to
a k-th power of the lift inner product, so the Gram matrix is assembled
from the closed-form kernel in the log domain rather than by quadrature.
Whitening multiplies by B = Gram^{-1/2}, computed two independent ways:
a binomial-series expansion in A = I - Gram (the constructive route,
valid whenever the off-diagonal mass eta_hat is below one) and a dense
Hermitian eigendecomposition (the oracle route).
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .frame import Frame
from .geometry import as_unit_vector
from .kernel import coherent_state

_MAGIC = b"WMX1"
_MAX_TERMS = 4000

# real and imaginary parts below this are flushed to zero in the Neumann
# series, the eigen route's Gram and the whitening product, so that the
# product of two kept parts is a normal float
FLUSH_BELOW = math.sqrt(np.finfo(np.float64).tiny)


class WhiteningError(ValueError):
    pass


def _mapnorm(a: np.ndarray) -> float:
    """Mapping norm on sequences with the sup norm: max absolute row sum."""
    return float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0


def _offdiag_row_sums(entries: np.ndarray) -> np.ndarray:
    s = np.sum(np.abs(entries), axis=1) - np.abs(np.diagonal(entries))
    return np.maximum(s, 0.0)


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray  # (n, n) complex Hermitian, unit diagonal
    eta_hat: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def assemble_gram(frame: Frame) -> GramMatrix:
    """Exact Gram matrix of the normalized coherent sections of a frame.

    entry(mu, nu) = <y_nu, y_mu>^k, evaluated as exp(k log u) so that
    arbitrarily large k costs nothing in accuracy; the diagonal is set
    to exactly one.
    """
    if frame.n == 0:
        raise WhiteningError("cannot assemble a Gram matrix for an empty frame")
    x = frame.points
    u = np.conj(x) @ x.T  # u[mu, nu] = <y_nu, y_mu>
    mag = np.abs(u)
    np.clip(mag, 0.0, 1.0, out=mag)
    with np.errstate(divide="ignore"):
        logmag = np.log(mag)
    scale = np.exp(frame.k * logmag)
    entries = scale * np.exp(1j * frame.k * np.angle(u))
    np.fill_diagonal(entries, 1.0)
    return GramMatrix(entries=entries, eta_hat=float(np.max(_offdiag_row_sums(entries))))


@dataclass(frozen=True)
class WhiteningOperator:
    entries: np.ndarray  # (n, n) complex Hermitian positive definite
    method: str  # "neumann" | "eigen"
    norm_inf: float
    series_terms: int | None = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_mapnorm_bound(norm_inf: float, eta_hat: float, tol: float):
    if eta_hat < 1.0 and norm_inf > (1.0 - eta_hat) ** -0.5 * (1 + 1e-6) + tol:
        raise WhiteningError(
            "whitening norm %g exceeds the (1-eta)^(-1/2) bound at eta=%g"
            % (norm_inf, eta_hat)
        )


def _flush(x: np.ndarray) -> np.ndarray:
    """Zero, in place, the real and imaginary parts of the C-contiguous
    complex array x that lie below FLUSH_BELOW in magnitude, in one pass
    over its float64 view.  Two comparisons, not abs: the only temporaries
    are boolean masks.  It keeps subnormal operands out of the dense
    algebra that meets them: the series' powers (inv_sqrt_neumann), the
    Gram matrix eigh decomposes (inv_sqrt_eigen) and the coherent-state
    basis (whiten)."""
    parts = x.view(np.float64)
    parts[(parts < FLUSH_BELOW) & (parts > -FLUSH_BELOW)] = 0.0
    return x


def inv_sqrt_neumann(g: GramMatrix, tol: float) -> WhiteningOperator:
    """Inverse square root by the binomial series in A = I - Gram.

    Coefficients (2j)!/(4^j j!^2), accumulated until the mapping norm of
    the next term drops under tol.  Diverges unless eta_hat < 1.

    Far pairs give Gram entries far below tol, down into the subnormal
    range, and products with subnormal floats run many times slower than
    normal arithmetic.  So the real and imaginary parts of A, and of each
    power after its matmul, are flushed to zero below FLUSH_BELOW =
    sqrt(tiny), about 1.5e-154, where tiny is the smallest normal
    float64: a product of two kept parts is then at least tiny, hence
    normal.  The flushed parts move the entries of a term by about
    n * 1.5e-154, far below tol; on the m = 1 lat-lon frames at k = 200
    to 800, B is bit-identical to the unflushed series.
    """
    if g.eta_hat >= 1.0:
        raise WhiteningError(
            "series diverges: off-diagonal mass %.6f is not below one" % g.eta_hat
        )
    n = g.n
    a = _flush(np.eye(n, dtype=np.complex128) - g.entries)
    b = np.eye(n, dtype=np.complex128)
    power = a
    coeff = 1.0
    terms = 0
    for j in range(1, _MAX_TERMS + 1):
        coeff *= (2 * j - 1) / (2 * j)
        if coeff * _mapnorm(power) < tol:
            break
        b += coeff * power
        terms += 1
        power = _flush(power @ a)
    else:
        raise WhiteningError("series failed to converge in %d terms" % _MAX_TERMS)
    norm_inf = _mapnorm(b)
    _check_mapnorm_bound(norm_inf, g.eta_hat, tol)
    return WhiteningOperator(entries=b, method="neumann", norm_inf=norm_inf,
                             series_terms=terms)


def inv_sqrt_eigen(g: GramMatrix) -> WhiteningOperator:
    """Oracle route: Hermitian eigendecomposition with eigenvalue map
    lambda -> lambda^{-1/2}; its mapping norm is held to the series
    bound with slack 1e-10.

    g.entries is flushed in place first (_flush), as the series flushes
    A = I - G, so both routes whiten the same matrix and eigh meets no
    subnormal operand; flushing a copy instead would add n^2 entries to
    the peak memory of a level (4 MB at n = 511).  flush(I - G) equals
    I - flush(G) exactly, so the series gives the same B before or after.
    A flushed entry moves by less than sqrt(2) FLUSH_BELOW, about 2e-154;
    on the m = 1 lat-lon frames at k = 200 and 800, B is bit-identical to
    that of the unflushed Gram."""
    w, v = np.linalg.eigh(_flush(g.entries))
    if w[0] <= 0:
        raise WhiteningError(
            "frame too dense: smallest Gram eigenvalue %.3e is not positive" % w[0]
        )
    b = (v * w ** -0.5) @ v.conj().T
    b = 0.5 * (b + b.conj().T)
    norm_inf = _mapnorm(b)
    _check_mapnorm_bound(norm_inf, g.eta_hat, 1e-10)
    return WhiteningOperator(entries=b, method="eigen", norm_inf=norm_inf)


def whiten(frame: Frame, op: WhiteningOperator) -> np.ndarray:
    """Orthonormal quasi-coherent family Psi_mu = sum_nu B_{mu,nu} Phi_nu,
    as the (n, d_k) matrix whose row mu holds the coefficients of Psi_mu
    over the L^2-orthonormal monomials.

    A coherent state's coefficients fall off binomially away from its
    point, and at large k some of them are subnormal (0.6% at the m = 1
    k = 800 level of 511 points), which made the product over three times
    slower.  So the basis is flushed (_flush) first.  A flushed entry
    moves by less than sqrt(2) * FLUSH_BELOW, so an entry of the family
    moves by at most sqrt(2) * op.norm_inf * FLUSH_BELOW, about 4e-154
    there.  On the m = 1 lat-lon frames the family is bit-identical to
    the unflushed product; only where a monomial is that small at every
    frame point, as on a one-chart frame, do its entries move."""
    if op.n != frame.n:
        raise WhiteningError("operator size does not match the frame")
    basis = np.vstack(
        [coherent_state(frame.m, frame.k, as_unit_vector(p)).ortho_coeffs
         for p in frame.points]
    )
    return op.entries @ _flush(basis)


def write_dump(path, magic: bytes, m: int, k: int, rows: np.ndarray, tag: str):
    """The one binary layout of the package: 4-byte magic, <IIII (m, k,
    row count, tag length), the utf-8 tag, then the rows as row-major
    complex128, written from the C-contiguous buffer itself (a copy only
    when rows is not one already)."""
    data = np.ascontiguousarray(rows, dtype=np.complex128)
    raw = tag.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<IIII", m, k, data.shape[0], len(raw)))
        fh.write(raw)
        fh.write(data.data)


def read_dump(path, magic: bytes, what: str, cols, error=WhiteningError):
    """Inverse of write_dump: (m, k, rows, tag), where rows has
    cols(m, k, row count) columns.  Raises error when the magic is not
    magic or the body size does not match the header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic or len(blob) < 20:
        raise error("not a %s dump" % what)
    m, k, n, tag_len = struct.unpack_from("<IIII", blob, 4)
    tag = blob[20:20 + tag_len].decode("utf-8")
    body = blob[20 + tag_len:]
    d = cols(m, k, n)
    if len(body) != 16 * n * d:
        raise error("%s dump body has the wrong size" % what)
    rows = np.frombuffer(body, dtype=np.complex128).reshape(n, d).copy()
    return m, k, rows, tag


def dump_matrix(path, m: int, k: int, entries: np.ndarray, tag: str):
    """Binary dump of a square matrix in the write_dump layout."""
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise WhiteningError("dump_matrix expects a square matrix")
    write_dump(path, _MAGIC, m, k, entries, tag)


def load_matrix(path):
    """Inverse of dump_matrix; returns (m, k, entries, tag)."""
    return read_dump(path, _MAGIC, "matrix", lambda m, k, n: n)
