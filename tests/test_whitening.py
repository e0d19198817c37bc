"""Gram assembly, inverse-sqrt whitening, and the orthonormalized family."""

import math
import struct

import numpy as np
import pytest

from flatsections import frame as F
from flatsections import geometry as G
from flatsections import whitening as W
from flatsections.geometry import as_unit_vector
from flatsections.kernel import (coherent_state, kernel_diag, near_threshold,
                                 szego_kernel_monomial_sum)
from oracles import normalized_from_distance


def neumann_term_estimate(eta_hat: float, tol: float = 1e-10) -> float:
    """Geometric-decay estimate of the series length, log tol / log eta."""
    if not 0.0 < eta_hat < 1.0:
        raise W.WhiteningError("estimate needs 0 < eta < 1")
    return math.log(tol) / math.log(eta_hat)


def row_split(g: W.GramMatrix, frame: F.Frame) -> tuple:
    """(max near, max far) off-diagonal row mass of the Gram matrix, split
    at the distance near_threshold = b sqrt(log k / k).

    The far part has O(k^m) entries of size O(k^{-m-1}) each, so its total
    must shrink like 1/k.
    """
    q = np.abs(np.conj(frame.points) @ frame.points.T)
    far = np.arccos(np.clip(q, 0.0, 1.0)) >= near_threshold(frame.m, frame.k)
    a = np.abs(g.entries)
    np.fill_diagonal(a, 0.0)
    return (float(np.max(np.sum(np.where(far, 0.0, a), axis=1))),
            float(np.max(np.sum(np.where(far, a, 0.0), axis=1))))


def _run_b_spec(t=0.4, **kw):
    base = dict(kind="cubic", m=1, a=2.2, eta=0.7, epsilon=0.05, delta=None, beta_target=None)
    base.update(kw)
    charts = tuple(G.cube_cover(base["m"], t))
    return F.LatticeSpec(gamma=charts[0].gamma, charts=charts, **base)


def _two_point_frame(k: int, d: float) -> F.Frame:
    # canonical lifts: leading coordinate real positive
    v0 = np.array([math.cos(0.3), math.sin(0.3) * np.exp(0.9j)])
    w = np.array([math.cos(0.3 + d), math.sin(0.3 + d) * np.exp(0.9j)])
    return F.Frame(k=k, m=1, points=np.vstack([v0, w]), dropped=0)


def _gram_of(entries) -> W.GramMatrix:
    e = np.asarray(entries, dtype=np.complex128)
    s = np.sum(np.abs(e), axis=1) - np.abs(np.diagonal(e))
    return W.GramMatrix(entries=e, eta_hat=float(np.max(s)))


class TestGramAssembly:
    def test_single_point_frame(self):
        spec = _run_b_spec(t=0.1)  # floor(t sqrt(k)/a) = 0 keeps only mu = 0
        fr = F.build(spec, 50)
        assert fr.n == 1
        g = W.assemble_gram(fr)
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == 1.0 + 0.0j
        assert g.eta_hat == 0.0

    def test_empty_frame_rejected(self):
        with pytest.raises(W.WhiteningError):
            W.assemble_gram(F.build(_run_b_spec(), 0))

    def test_two_point_modulus(self):
        # |entry| = cos^k d, checked through the distance route
        for k, d in ((8, 0.5), (60, 0.21), (500, 0.07)):
            g = W.assemble_gram(_two_point_frame(k, d))
            want = normalized_from_distance(k, d)
            assert abs(abs(g.entries[0, 1]) - want) < 1e-12
            assert abs(abs(g.entries[1, 0]) - want) < 1e-12

    def test_entries_match_monomial_sum_oracle(self):
        # brute-force kernel sum over the monomial basis, k small
        for k in (1, 3, 8):
            fr = _two_point_frame(k, 0.44)
            g = W.assemble_gram(fr)
            y0 = as_unit_vector(fr.points[0])
            y1 = as_unit_vector(fr.points[1])
            want = szego_kernel_monomial_sum(1, k, y1, y0) / kernel_diag(1, k)
            assert abs(g.entries[0, 1] - want) < 1e-12

    def test_entries_match_coherent_coefficient_products(self):
        # Gram == P P^H where P rows are orthonormal-basis coefficients
        fr = F.build(_run_b_spec(), 60)
        assert fr.n == 9
        g = W.assemble_gram(fr)
        m, k = 1, 60
        p = np.vstack([coherent_state(m, k, as_unit_vector(x)).ortho_coeffs
                       for x in fr.points])
        assert np.max(np.abs(g.entries - p @ p.conj().T)) < 1e-10

    def test_hermitian_unit_diagonal(self):
        g = W.assemble_gram(F.build(_run_b_spec(), 400))
        assert np.all(np.diagonal(g.entries) == 1.0)
        assert np.max(np.abs(g.entries - g.entries.conj().T)) < 1e-12

    def test_row_split_far_mass_shrinks(self):
        # far entries: O(k^m) of them, each O(k^{-m-1}); total O(1/k)
        for k in (100, 200, 400, 800):
            fr = F.build(_run_b_spec(), k)
            g = W.assemble_gram(fr)
            near, far = row_split(g, fr)
            assert far * k < 1e-4
            # near part carries eta up to the (tiny) far mass of that row
            assert abs(near - g.eta_hat) <= far + 1e-12


class TestEtaMeasure:
    def test_identity_gram(self):
        assert np.max(W._offdiag_row_sums(np.eye(7))) == 0.0

    def test_row_sum_definition(self):
        assert np.max(W._offdiag_row_sums(np.array([[0.0, 0.5], [0.25, 0.0]]))) == 0.5

    def test_gram_field_agrees(self):
        g = W.assemble_gram(F.build(_run_b_spec(), 100))
        assert g.eta_hat == np.max(W._offdiag_row_sums(g.entries))
        # the unit diagonal leaves the off-diagonal mass of each row
        assert abs(np.max(np.sum(np.abs(g.entries), axis=1) - 1.0) - g.eta_hat) < 1e-15

    def test_sparse_lattice_obeys_theta_limit(self):
        # spacing from the closed form at eta = 0.5 keeps the measured
        # off-diagonal mass under the crude tail bound by a wide margin
        a = F.choose_spacing(1, 0.5, 1.0)
        charts = tuple(G.cube_cover(1, 0.5))
        spec = F.LatticeSpec(kind="cubic", m=1, a=a, eta=0.5, gamma=charts[0].gamma,
                             charts=charts, epsilon=0.05, delta=None, beta_target=None)
        fr = F.build(spec, 2000)
        assert fr.n == 9
        g = W.assemble_gram(fr)
        crude = (1 + math.sqrt(2 * math.pi) / a) ** 2 - 1
        assert g.eta_hat <= F.formal_eta("cubic", a, 1.0, 0.0, 1) <= crude

    def test_eta_grows_toward_formal_limit(self):
        spec = _run_b_spec()
        values = []
        for k in (50, 100, 200, 400, 800):
            values.append(W.assemble_gram(F.build(spec, k)).eta_hat)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < spec.formal_eta
        assert abs(values[0] - 0.368536) < 1e-5
        assert abs(values[-1] - 0.535636) < 1e-5


class TestInverseSqrt:
    def test_identity_needs_no_terms(self):
        b = W.inv_sqrt_neumann(_gram_of(np.eye(4)), tol=1e-10)
        assert b.series_terms == 0
        assert np.array_equal(b.entries, np.eye(4))
        assert b.norm_inf == 1.0

    def test_two_by_two_eigen_oracle(self):
        g = _gram_of([[1.0, 0.3], [0.3, 1.0]])
        for op in (W.inv_sqrt_neumann(g, tol=1e-10), W.inv_sqrt_eigen(g)):
            w = np.linalg.eigvalsh(op.entries)
            assert abs(w[0] - 1.3 ** -0.5) < 1e-9
            assert abs(w[1] - 0.7 ** -0.5) < 1e-9

    def test_divergence_signal(self):
        g = _gram_of([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(W.WhiteningError):
            W.inv_sqrt_neumann(g, tol=1e-10)
        with pytest.raises(W.WhiteningError):
            W.inv_sqrt_eigen(g)  # smallest eigenvalue 0

    def test_term_count_tracks_geometric_estimate(self):
        # the estimate uses eta; the actual decay follows the spectral
        # radius, which is smaller, so allow a factor-of-two band
        for k in (100, 200, 400):
            g = W.assemble_gram(F.build(_run_b_spec(), k))
            op = W.inv_sqrt_neumann(g, tol=1e-10)
            est = neumann_term_estimate(g.eta_hat)
            assert est / 2.2 <= op.series_terms <= est + 2

    def test_methods_agree(self):
        for k in (100, 400):
            g = W.assemble_gram(F.build(_run_b_spec(), k))
            bn = W.inv_sqrt_neumann(g, tol=1e-10)
            be = W.inv_sqrt_eigen(g)
            assert np.max(np.abs(bn.entries - be.entries)) < 1e-9

    def test_whitening_identity_and_norm_bound(self):
        for k in (100, 200, 400):
            g = W.assemble_gram(F.build(_run_b_spec(), k))
            for op in (W.inv_sqrt_neumann(g, tol=1e-10), W.inv_sqrt_eigen(g)):
                resid = op.entries @ g.entries @ op.entries - np.eye(g.n)
                assert np.max(np.abs(resid)) < 1e-8
                assert op.norm_inf <= (1 - g.eta_hat) ** -0.5 * (1 + 1e-6)
                herm = np.max(np.abs(op.entries - op.entries.conj().T))
                assert herm < 1e-12

    def test_flushed_series_matches_plain_series(self):
        # m = 1 latlon frame at k = 400: far pairs give Gram parts below
        # the flush threshold, some of them subnormal
        cover = G.cp1_latlon_cover(0.35)
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=1.945, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=1e-9, beta_target=None,
        )
        g = W.assemble_gram(F.build(spec, 400))
        parts = np.abs(np.concatenate([g.entries.real, g.entries.imag]))
        assert np.any((parts > 0) & (parts < np.finfo(np.float64).tiny))
        assert np.any((parts > 0) & (parts < W.FLUSH_BELOW))
        # the series with no flush, as inv_sqrt_neumann computed it before
        a = np.eye(g.n, dtype=np.complex128) - g.entries
        b = np.eye(g.n, dtype=np.complex128)
        power, coeff, terms = a, 1.0, 0
        for j in range(1, 4001):
            coeff *= (2 * j - 1) / (2 * j)
            if coeff * W._mapnorm(power) < 1e-10:
                break
            b = b + coeff * power
            terms += 1
            power = power @ a
        op = W.inv_sqrt_neumann(g, tol=1e-10)
        assert op.series_terms == terms
        assert np.array_equal(op.entries, b)

    def test_eigen_route_whitens_the_flushed_gram(self):
        # the m1-run level k = 800: its Gram holds parts below FLUSH_BELOW,
        # which inv_sqrt_eigen flushes in place, as the series flushes A;
        # B moves by at most 1e-14 (bit-identical here)
        cover = G.cp1_latlon_cover(0.35)
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=1.945, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=1e-9, beta_target=None,
        )
        g = W.assemble_gram(F.build(spec, 800))
        assert g.n == 511
        entries = g.entries.copy()
        parts = np.abs(entries.view(np.float64))
        assert np.any((parts > 0) & (parts < W.FLUSH_BELOW))
        # the eigen route on the unflushed Gram, as inv_sqrt_eigen computed it before
        w, v = np.linalg.eigh(entries)
        plain = (v * w ** -0.5) @ v.conj().T
        plain = 0.5 * (plain + plain.conj().T)
        op = W.inv_sqrt_eigen(g)
        assert np.max(np.abs(op.entries - plain)) <= 1e-14
        assert np.array_equal(g.entries, W._flush(entries))

    def test_flush_zeroes_small_parts_only(self):
        x = np.array([[1e-160 + 1.0j, 0.5 - 1e-170j], [1e-150 + 1e-160j, -1e-155]])
        W._flush(x)
        want = np.array([[1.0j, 0.5], [1e-150, 0.0]])
        assert np.array_equal(x, want)
        assert W.FLUSH_BELOW ** 2 >= np.finfo(np.float64).tiny

    def test_min_eigenvalue_floor(self):
        g = W.assemble_gram(F.build(_run_b_spec(), 400))
        w = np.linalg.eigvalsh(g.entries)
        assert w[0] >= 1 - g.eta_hat - 1e-12

    def test_estimate_domain(self):
        with pytest.raises(W.WhiteningError):
            neumann_term_estimate(1.0)


class TestWhiten:
    def test_identity_operator_returns_coherent_states(self):
        fr = F.build(_run_b_spec(), 60)
        op = W.WhiteningOperator(entries=np.eye(fr.n, dtype=np.complex128),
                                 method="eigen", norm_inf=1.0)
        psi = W.whiten(fr, op)
        m, k = 1, 60
        for row, x in zip(psi, fr.points):
            phi = coherent_state(m, k, as_unit_vector(x))
            assert np.allclose(row, phi.ortho_coeffs)

    def test_whitened_family_is_orthonormal(self):
        fr = F.build(_run_b_spec(), 60)
        g = W.assemble_gram(fr)
        op = W.inv_sqrt_neumann(g, tol=1e-10)
        q = W.whiten(fr, op)
        assert q.shape == (fr.n, 61)
        gram = q @ q.conj().T
        assert np.max(np.abs(gram - np.eye(fr.n))) < 1e-8

    def test_span_is_preserved(self):
        fr = F.build(_run_b_spec(), 60)
        g = W.assemble_gram(fr)
        q = W.whiten(fr, W.inv_sqrt_eigen(g))
        assert np.linalg.matrix_rank(q) == fr.n

    def test_flushed_product_matches_plain_product(self):
        # an m = 1 lat-lon frame at k = 800 (95 points): its coherent
        # states hold subnormal parts, which whiten flushes before the
        # product, and the family is bit for bit the unflushed product
        cover = G.cp1_latlon_cover(0.35)
        spec = F.LatticeSpec(
            kind="cubic", m=1, a=4.0, eta=0.995,
            gamma=max(c.gamma for c in cover), epsilon=0.005,
            charts=tuple(cover), delta=1e-9, beta_target=None,
        )
        fr = F.build(spec, 800)
        basis = np.vstack([coherent_state(1, 800, as_unit_vector(x)).ortho_coeffs
                           for x in fr.points])
        parts = np.abs(basis.view(np.float64))
        assert np.any((parts > 0) & (parts < np.finfo(np.float64).tiny))
        op = W.inv_sqrt_eigen(W.assemble_gram(fr))
        assert np.array_equal(W.whiten(fr, op), op.entries @ basis)

    def test_flushed_product_moves_entries_within_bound(self):
        # on a one-chart frame at k = 800 the high-degree monomials are
        # tiny at every point, so the family's entries there are tiny too
        # and the flush moves them, each by at most
        # sqrt(2) * norm_inf * FLUSH_BELOW
        fr = F.build(_run_b_spec(t=0.2), 800)
        basis = np.vstack([coherent_state(1, 800, as_unit_vector(x)).ortho_coeffs
                           for x in fr.points])
        op = W.inv_sqrt_eigen(W.assemble_gram(fr))
        moved = np.abs(W.whiten(fr, op) - op.entries @ basis)
        assert 0 < np.max(moved) <= math.sqrt(2) * op.norm_inf * W.FLUSH_BELOW

    def test_size_mismatch(self):
        fr = F.build(_run_b_spec(), 60)
        op = W.WhiteningOperator(entries=np.eye(3, dtype=np.complex128),
                                 method="eigen", norm_inf=1.0)
        with pytest.raises(W.WhiteningError):
            W.whiten(fr, op)


class TestBinaryDump:
    def test_roundtrip(self, tmp_path):
        g = W.assemble_gram(F.build(_run_b_spec(), 100))
        path = tmp_path / "gram.bin"
        W.dump_matrix(path, 1, 100, g.entries, g_tag := "chart-major, lex on mu")
        m, k, entries, tag = W.load_matrix(path)
        assert (m, k, tag) == (1, 100, g_tag)
        assert entries.dtype == np.complex128
        assert np.array_equal(entries, g.entries)

    def test_body_is_the_row_major_bytes(self, tmp_path):
        # the body written from the buffer itself is the layout tobytes
        # gave, for a C-contiguous matrix, a non-contiguous view and a
        # real one
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for rows in (a, a.T, a[::2, 1:4], a.real):
            path = tmp_path / "rows.bin"
            W.write_dump(path, b"TEST", 1, 5, rows, "tag")
            want = (b"TEST" + struct.pack("<IIII", 1, 5, rows.shape[0], 3) + b"tag"
                    + np.asarray(rows, dtype=np.complex128).tobytes(order="C"))
            assert path.read_bytes() == want

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(W.WhiteningError):
            W.load_matrix(path)

    def test_truncated_body(self, tmp_path):
        g = W.assemble_gram(F.build(_run_b_spec(), 50))
        path = tmp_path / "gram.bin"
        W.dump_matrix(path, 1, 50, g.entries, "x")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(W.WhiteningError):
            W.load_matrix(path)
