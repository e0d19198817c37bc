"""Gram assembly, inverse-sqrt whitening, and the orthonormalized family."""

import math

import numpy as np
import pytest

from flatsections import frame as F
from flatsections import geometry as G
from flatsections import whitening as W
from flatsections.geometry import UnitLift
from flatsections.kernel import (
    KernelModel,
    coherent_state,
    normalized_from_distance,
    szego_kernel_monomial_sum,
)


def _run_b_spec(**kw):
    base = dict(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27, t=0.4)
    base.update(kw)
    return F.LatticeSpec(**base)


def _two_point_frame(k: int, d: float) -> F.Frame:
    # canonical lifts: leading coordinate real positive
    v0 = np.array([math.cos(0.3), math.sin(0.3) * np.exp(0.9j)])
    w = np.array([math.cos(0.3 + d), math.sin(0.3 + d) * np.exp(0.9j)])
    return F.Frame(
        k=k, m=1,
        points=np.vstack([v0, w]),
        chart_index=np.zeros(2, dtype=np.int64),
        mu=np.zeros((2, 2), dtype=np.int64),
        tangent=np.zeros((2, 2)),
        spec=_run_b_spec(),
    )


def _gram_of(entries) -> W.GramMatrix:
    e = np.asarray(entries, dtype=np.complex128)
    s = np.sum(np.abs(e), axis=1) - np.abs(np.diagonal(e))
    return W.GramMatrix(m=1, k=10, entries=e, eta_hat=float(np.max(s)))


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
            model = KernelModel(1, k)
            y0 = UnitLift.from_vector(fr.points[0])
            y1 = UnitLift.from_vector(fr.points[1])
            want = szego_kernel_monomial_sum(model, y1, y0) / model.diag
            assert abs(g.entries[0, 1] - want) < 1e-12

    def test_entries_match_coherent_coefficient_products(self):
        # Gram == P P^H where P rows are orthonormal-basis coefficients
        fr = F.build(_run_b_spec(), 60)
        assert fr.n == 9
        g = W.assemble_gram(fr)
        model = KernelModel(1, 60)
        p = np.vstack([coherent_state(model, UnitLift.from_vector(x)).ortho_coeffs
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
            rep = W.row_split_report(g, fr)
            assert rep.max_far_sum * k < 1e-4
            # near part carries eta up to the (tiny) far mass of that row
            assert abs(rep.max_near_sum - g.eta_hat) <= rep.max_far_sum + 1e-12
            d = rep.to_dict()
            assert d["k"] == k and d["threshold"] == rep.threshold


class TestEtaMeasure:
    def test_identity_gram(self):
        assert W.eta_measure(np.eye(7)) == 0.0

    def test_row_sum_definition(self):
        assert W.eta_measure(np.array([[0.0, 0.5], [0.25, 0.0]])) == 0.5

    def test_gram_field_agrees(self):
        g = W.assemble_gram(F.build(_run_b_spec(), 100))
        assert W.eta_measure(g) == g.eta_hat
        assert abs(W.eta_measure(g.entries) - g.eta_hat) < 1e-15

    def test_sparse_lattice_obeys_theta_limit(self):
        # spacing from the closed form at eta = 0.5 keeps the measured
        # off-diagonal mass under the crude tail bound by a wide margin
        a = F.choose_spacing(1, 0.5, 1.0)
        spec = F.LatticeSpec(kind="cubic", m=1, a=a, eta=0.5, gamma=1.05, t=0.5)
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

    def test_rejects_nonsquare(self):
        with pytest.raises(W.WhiteningError):
            W.eta_measure(np.zeros((2, 3)))


class TestInverseSqrt:
    def test_identity_needs_no_terms(self):
        b = W.inv_sqrt_neumann(_gram_of(np.eye(4)))
        assert b.series_terms == 0
        assert np.array_equal(b.entries, np.eye(4))
        assert b.norm_inf == 1.0

    def test_two_by_two_eigen_oracle(self):
        g = _gram_of([[1.0, 0.3], [0.3, 1.0]])
        for op in (W.inv_sqrt_neumann(g), W.inv_sqrt_eigen(g)):
            w = np.linalg.eigvalsh(op.entries)
            assert abs(w[0] - 1.3 ** -0.5) < 1e-9
            assert abs(w[1] - 0.7 ** -0.5) < 1e-9

    def test_divergence_signal(self):
        g = _gram_of([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(W.WhiteningError):
            W.inv_sqrt_neumann(g)
        with pytest.raises(W.WhiteningError):
            W.inv_sqrt_eigen(g)  # smallest eigenvalue 0

    def test_term_count_tracks_geometric_estimate(self):
        # the estimate uses eta; the actual decay follows the spectral
        # radius, which is smaller, so allow a factor-of-two band
        for k in (100, 200, 400):
            g = W.assemble_gram(F.build(_run_b_spec(), k))
            op = W.inv_sqrt_neumann(g)
            est = W.neumann_term_estimate(g.eta_hat)
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
            for op in (W.inv_sqrt_neumann(g), W.inv_sqrt_eigen(g)):
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
            charts=tuple(cover), delta=1e-9,
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
            W.neumann_term_estimate(1.0)


class TestWhiten:
    def test_identity_operator_returns_coherent_states(self):
        fr = F.build(_run_b_spec(), 60)
        op = W.WhiteningOperator(entries=np.eye(fr.n, dtype=np.complex128),
                                 method="eigen", norm_inf=1.0)
        psi = W.whiten(fr, op)
        model = KernelModel(1, 60)
        for row, x in zip(psi, fr.points):
            phi = coherent_state(model, UnitLift.from_vector(x))
            assert np.allclose(row, phi.ortho_coeffs)

    def test_whitened_family_is_orthonormal(self):
        fr = F.build(_run_b_spec(), 60)
        g = W.assemble_gram(fr)
        op = W.inv_sqrt_neumann(g)
        q = W.whiten(fr, op)
        assert q.shape == (fr.n, 61)
        gram = q @ q.conj().T
        assert np.max(np.abs(gram - np.eye(fr.n))) < 1e-8

    def test_span_is_preserved(self):
        fr = F.build(_run_b_spec(), 60)
        g = W.assemble_gram(fr)
        q = W.whiten(fr, W.inv_sqrt_eigen(g))
        assert np.linalg.matrix_rank(q) == fr.n

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
