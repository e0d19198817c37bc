"""Kernel closed forms against the monomial-basis sum, coherent states,
and the two decay regimes.

The oracle direction is fixed: the defining sum over an exact-weight
orthonormal monomial basis is ground truth for the closed form.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from flatsections import geometry as G
from flatsections import kernel as K
from oracles import (
    evaluate_sections,
    fs_distance,
    normalized_from_distance,
    raw_coeffs,
    section_values,
)


def _lift(rng, m):
    return G.as_unit_vector(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))


class TestDimensionsAndDiag:
    def test_dimension_formula(self):
        assert K.dimension(1, 0) == 1
        assert K.dimension(1, 3) == 4
        assert K.dimension(2, 40) == 861
        assert K.dimension(3, 5) == math.comb(8, 3)

    def test_diag_identity_exact(self):
        # diag * pi^m / m! == C(k+m, m), as integers
        for m in (1, 2, 3):
            for k in (0, 1, 7, 100, 1000):
                lhs = K.kernel_diag(m, k) * math.pi**m / math.factorial(m)
                assert abs(lhs - K.dimension(m, k)) <= 1e-9 * K.dimension(m, k)

    def test_diag_example(self):
        assert abs(K.kernel_diag(1, 3) - 4 / math.pi) < 1e-15

    def test_trace_identity(self):
        # diag * Vol(M) = d_k: constant diagonal integrates to the trace
        for m in (1, 2):
            k = 17
            vol = G.volume(m)
            assert abs(K.kernel_diag(m, k) * vol - K.dimension(m, k)) < 1e-9 * K.dimension(m, k)

    def test_diag_growth_matches_leading_order(self):
        # diag * pi^m / k^m -> 1
        for m in (1, 2):
            vals = [
                K.kernel_diag(m, k) * math.pi**m / k**m
                for k in (10, 100, 1000)
            ]
            assert abs(vals[-1] - 1.0) < 5e-3 * math.pi ** 0
            assert abs(vals[-1] - 1.0) < abs(vals[0] - 1.0)


class TestMultiIndices:
    def test_enumeration_count_and_degree(self):
        for m, k in ((1, 5), (2, 7), (3, 4)):
            idx = K.multi_indices(m, k)
            assert idx.shape == (K.dimension(m, k), m + 1)
            assert np.all(idx.sum(axis=1) == k)
            assert np.all(idx >= 0)

    def test_graded_lex_order(self):
        idx = K.multi_indices(1, 2)
        assert idx.tolist() == [[2, 0], [1, 1], [0, 2]]
        idx2 = K.multi_indices(2, 2)
        assert idx2.tolist() == [
            [2, 0, 0],
            [1, 1, 0],
            [1, 0, 1],
            [0, 2, 0],
            [0, 1, 1],
            [0, 0, 2],
        ]

    def test_rows_unique(self):
        idx = K.multi_indices(2, 9)
        assert len({tuple(r) for r in idx.tolist()}) == idx.shape[0]

    def test_cached_matches_itertools_reference(self):
        for m, k in ((1, 0), (1, 6), (2, 5), (3, 4)):
            ref = sorted((a for a in itertools.product(range(k + 1), repeat=m + 1)
                          if sum(a) == k), reverse=True)
            idx = K.multi_indices(m, k)
            assert idx.tolist() == [list(a) for a in ref]
            assert K.multi_indices(m, k) is idx  # built once per (m, k)
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0, 0] = 1

    def test_table_read_only_and_consistent(self):
        tab = K.monomial_table(2, 7)
        for arr in (tab.indices, tab.log_weights, tab.half_multinomial):
            assert not arr.flags.writeable
        logw = K.log_monomial_weights(2, 7, tab.indices)
        assert np.array_equal(tab.log_weights, logw)

    def test_weights_exact_vs_log(self):
        for m, k in ((1, 4), (2, 6)):
            idx = K.multi_indices(m, k)
            logw = K.log_monomial_weights(m, k, idx)
            for row, lw in zip(idx, logw):
                assert abs(math.exp(lw) - K.monomial_weight_exact(m, row)) < 1e-15


class TestSzegoKernel:
    def test_closed_form_matches_monomial_oracle(self):
        rng = np.random.default_rng(0)
        for m in (1, 2):
            for k in range(0, 9):
                for _ in range(5):
                    x, y = _lift(rng, m), _lift(rng, m)
                    a = K.szego_kernel(m, k, x, y)
                    b = K.szego_kernel_monomial_sum(m, k, x, y)
                    assert abs(a - b) <= 1e-12 * K.kernel_diag(m, k)

    def test_worked_example(self):
        m, k = 1, 2
        x = G.as_unit_vector([1, 0])
        y = G.as_unit_vector([1, 1])
        val = K.szego_kernel(m, k, x, y)
        assert abs(val - 3 / (2 * math.pi)) < 1e-14

    def test_diagonal_and_orthogonal(self):
        rng = np.random.default_rng(1)
        m, k = 2, 11
        x = _lift(rng, 2)
        assert abs(K.szego_kernel(m, k, x, x) - K.kernel_diag(m, k)) < 1e-12 * K.kernel_diag(m, k)
        e0 = G.as_unit_vector([1, 0, 0])
        e1 = G.as_unit_vector([0, 1, 0])
        assert K.szego_kernel(m, k, e0, e1) == 0

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        m, k = 1, 9
        for _ in range(20):
            x, y = _lift(rng, 1), _lift(rng, 1)
            a = K.szego_kernel(m, k, x, y)
            b = K.szego_kernel(m, k, y, x)
            assert abs(a - np.conj(b)) < 1e-13 * K.kernel_diag(m, k)

    def test_lift_dimension_mismatch(self):
        m, k = 2, 3
        x = G.as_unit_vector([1, 0])
        with pytest.raises(K.KernelError):
            K.szego_kernel(m, k, x, x)


class TestNormalizedKernel:
    def test_diagonal_is_one(self):
        rng = np.random.default_rng(3)
        k = 77
        z = G.canonical_point(_lift(rng, 1))
        assert normalized_from_distance(k, fs_distance(z, z)) == 1.0

    def test_half_inner_example(self):
        # z=[1:0], w=[1:1]: P_k = 2^{-k/2}
        for k in (1, 2, 10, 41):
            z = G.canonical_point([1, 0])
            w = G.canonical_point([1, 1])
            p = normalized_from_distance(k, fs_distance(z, w))
            assert abs(p - 2 ** (-k / 2)) < 1e-13

    def test_matches_szego_ratio(self):
        # P_k * diag == |Pi_k| for arbitrary lifts (phase independence)
        rng = np.random.default_rng(4)
        for m, k in ((1, 10), (2, 31)):
            for _ in range(30):
                x, y = _lift(rng, m), _lift(rng, m)
                p = normalized_from_distance(k, fs_distance(x, y))
                s = abs(K.szego_kernel(m, k, x, y))
                assert abs(p * K.kernel_diag(m, k) - s) <= 1e-9 * K.kernel_diag(m, k)

    def test_gaussian_window_bound(self):
        # log P_k + (k/2) d^2 in [-k d^4, 0] for d <= 0.5
        rng = np.random.default_rng(5)
        for k in (10, 100, 1000):
            d = rng.uniform(1e-3, 0.5, size=200)
            lp = K.log_normalized_from_distance(k, d)
            gap = lp + 0.5 * k * d * d
            assert np.all(gap <= 1e-9)
            assert np.all(gap >= -k * d**4)

    def test_log_domain_no_underflow_small_distance(self):
        # k up to 1e6: P_k finite, positive, strictly decreasing in d
        for k in (10**4, 10**6):
            d = np.linspace(1e-6, 1e-2, 400)
            p = normalized_from_distance(k, d)
            assert np.all(np.isfinite(p))
            assert np.all(p > 0)
            assert np.all(np.diff(p) < 0)

    def test_beyond_cut_locus_clamps_to_zero(self):
        assert normalized_from_distance(3, math.pi / 2) == 0.0


class TestCoherentStates:
    def test_l2_normalized(self):
        rng = np.random.default_rng(6)
        for m, k in ((1, 1), (1, 40), (2, 25), (1, 400)):
            phi = K.coherent_state(m, k, _lift(rng, m))
            assert abs(np.linalg.norm(phi.ortho_coeffs) - 1.0) < 1e-10

    def test_evaluation_reproduces_kernel(self):
        rng = np.random.default_rng(7)
        for m, k in ((1, 6), (2, 9), (1, 150)):
            y = _lift(rng, m)
            phi = K.coherent_state(m, k, y)
            for _ in range(10):
                x = _lift(rng, m)
                want = K.szego_kernel(m, k, x, y) / math.sqrt(K.kernel_diag(m, k))
                got = section_values(phi, x[None, :])[0]
                assert abs(got - want) < 1e-11

    def test_overlap_is_normalized_kernel(self):
        # <Phi_y, Phi_y'> = Pi_k(y', y)/diag; modulus = P_k
        rng = np.random.default_rng(8)
        m, k = 1, 33
        y1, y2 = _lift(rng, 1), _lift(rng, 1)
        p1 = K.coherent_state(m, k, y1)
        p2 = K.coherent_state(m, k, y2)
        overlap = np.vdot(p2.ortho_coeffs, p1.ortho_coeffs)
        want = K.szego_kernel(m, k, y2, y1) / K.kernel_diag(m, k)
        assert abs(overlap - want) < 1e-10
        p = normalized_from_distance(k, fs_distance(y1, y2))
        assert abs(abs(overlap) - p) < 1e-10

    def test_explicit_k1_coefficients(self):
        m, k = 1, 1
        phi = K.coherent_state(m, k, G.as_unit_vector([1, 0]))
        c = math.sqrt(2 / math.pi)  # 1/sqrt(w_(1,0)), w = pi/2
        raw = raw_coeffs(1, 1, phi.ortho_coeffs)
        assert np.allclose(raw, [c, 0.0], atol=1e-14)

    def test_peak_value(self):
        rng = np.random.default_rng(9)
        m, k = 2, 12
        y = _lift(rng, 2)
        phi = K.coherent_state(m, k, y)
        got = abs(section_values(phi, y[None, :])[0])
        assert abs(got - math.sqrt(K.kernel_diag(m, k))) < 1e-11

    def test_coherent_state_past_raw_overflow(self):
        # from about k = 2060 at m = 1 the plain monomial coefficients,
        # ortho / sqrt(w_alpha), overflow; the section holds orthonormal
        # coefficients only and stays exact
        m, k = 1, 2100
        log_weights = K.monomial_table(1, 2100).log_weights
        assert np.max(-0.5 * log_weights) > math.log(np.finfo(np.float64).max)
        phi = K.coherent_state(m, k, _lift(np.random.default_rng(2), 1))
        assert np.all(np.isfinite(phi.ortho_coeffs))
        assert abs(np.linalg.norm(phi.ortho_coeffs) - 1.0) < 1e-12

    def test_family_evaluation_matches_single(self):
        # 2500 points at d_k = 861 span five of the oracle's basis chunks
        # of 580 points, and each section alone gives its row of the
        # family's values; evaluate_lifts of rows built beforehand gives the
        # same values, also at one row and past a whole chunk (581 points)
        rng = np.random.default_rng(8)
        m, k = 2, 40
        d = K.dimension(m, k)
        rows = [K.SectionExpansion.from_ortho(m, k, rng.standard_normal(d)
                                              + 1j * rng.standard_normal(d))
                for _ in range(3)]
        lifts = rng.standard_normal((2500, 3)) + 1j * rng.standard_normal((2500, 3))
        lifts /= np.linalg.norm(lifts, axis=1)[:, None]
        vals = evaluate_sections(m, k, [s.ortho_coeffs for s in rows], lifts)
        assert vals.shape == (3, 2500)
        for s, row in zip(rows, vals):
            assert np.array_equal(row, section_values(s, lifts))
        for count in (1, 2, 581, 2500):
            built = K.monomial_basis(m, k, lifts[:count])
            for s, row in zip(rows, vals):
                assert np.array_equal(s.evaluate_lifts(built), row[:count])

    def test_one_row_is_its_value_in_any_call(self):
        # a lone row is evaluated as a pair: its value is bit for bit the
        # one it has in every larger call, gathered subsets included
        rng = np.random.default_rng(4)
        for m, k in ((1, 200), (1, 800), (2, 20), (2, 40)):
            d = K.dimension(m, k)
            s = K.SectionExpansion.from_ortho(m, k, rng.standard_normal(d)
                                              + 1j * rng.standard_normal(d))
            lifts = rng.standard_normal((300, m + 1)) + 1j * rng.standard_normal((300, m + 1))
            lifts /= np.linalg.norm(lifts, axis=1)[:, None]
            built = K.monomial_basis(m, k, lifts)
            full = s.evaluate_lifts(built)
            assert full.shape == (300,)
            alone = np.concatenate([s.evaluate_lifts(built[i:i + 1]) for i in range(300)])
            assert np.array_equal(alone, full)
            for size in (2, 3, 17, 299):
                pick = rng.choice(300, size, replace=False)
                assert np.array_equal(s.evaluate_lifts(built[pick]), full[pick])

    def test_monomial_basis_builds_in_chunks(self, monkeypatch):
        # chunks of 7 lifts: every row, across chunks and in a last chunk
        # of one lift (built again with the lift before it), is the row of
        # its lift alone, and a call holds only its output and the
        # temporaries of one chunk, two real (chunk, d_k) arrays at most
        m, k = 2, 40
        d = K.dimension(m, k)
        monkeypatch.setattr(K, "BASIS_CHUNK_ENTRIES", 7 * d)
        rng = np.random.default_rng(5)
        lifts = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        lifts /= np.linalg.norm(lifts, axis=1)[:, None]
        alone = np.concatenate([K.monomial_basis(m, k, lifts[i:i + 1]) for i in range(50)])
        for count in (1, 7, 8, 15, 50):
            assert K.monomial_basis(m, k, lifts[:count]).tobytes() == alone[:count].tobytes()
        tracemalloc.start()
        try:
            K.monomial_basis(m, k, lifts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the unchunked build held a (50, d_k) real temporary, 8 * 50 * d_k
        assert peak <= alone.nbytes + 2 * 8 * 7 * d + 16 * 1024 < alone.nbytes + 8 * 50 * d

    def test_coefficient_phase_equivariance(self):
        # multiplying the lift by a phase rotates every coefficient
        m, k = 1, 5
        y = G.as_unit_vector([3, 4j])
        y2 = G.as_unit_vector(y * np.exp(0.7j))
        a = K.coherent_state(m, k, y).ortho_coeffs
        b = K.coherent_state(m, k, y2).ortho_coeffs
        ratio = b[np.abs(b) > 1e-12] / a[np.abs(b) > 1e-12]
        assert np.allclose(ratio, np.exp(-5 * 0.7j), atol=1e-12)


class TestDecayRegimes:
    def test_near_regime_bound_and_monotone_in_k(self):
        prev = None
        for k in (100, 400, 1600):
            near, _ = K.verify_decay(1, k)
            bound = 7 * math.log(k) / (6 * k) * 1.01
            assert near["max deviation"] <= bound
            if prev is not None:
                assert near["max deviation"] < prev
            prev = near["max deviation"]

    def test_near_deviation_series(self):
        # deviation(d) = d^2/6 + 2 d^4/45 + O(d^6)
        for d in (1e-3, 0.05, 0.2):
            dev = K.gaussian_deviation(d)
            model = d * d / 6 + 2 * d**4 / 45
            assert abs(dev - model) < d**6 + 1e-14

    def test_far_regime_below_one(self):
        ks = []
        for k in range(2, 60):
            _, far = K.verify_decay(1, k)
            if far is not None and far["max deviation"] < 1.0:
                ks.append(k)
        assert ks and min(ks) <= 400

    def test_far_regime_shrinks(self):
        vals = [
            K.verify_decay(1, k)[1]["max deviation"]
            for k in (100, 400, 1600)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[1] < 1.0

    def test_report_serializable(self):
        import json

        near, far = K.verify_decay(2, 50)
        blob = json.dumps({"near": near, "far": far})
        back = json.loads(blob)
        assert back["near"]["regime"] == "near"
        assert back["near"]["sample count"] == 19
        assert back["near"]["k"] == 50
        assert back == {"near": near, "far": far}
