"""Exact inner products, sup-norm estimates, bounds, and emitters."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from flatsections import certify as C
from flatsections import cli
from flatsections import constants as K0
from flatsections import flatten as FL
from flatsections import frame as F
from flatsections import whitening as W
from flatsections.geometry import UnitLift
from flatsections.kernel import (
    KernelModel,
    SectionExpansion,
    coherent_peak,
    coherent_state,
    dimension,
    szego_kernel,
)


def _unit_basis(m, k, q):
    d = dimension(m, k)
    e = np.zeros(d, dtype=np.complex128)
    e[q] = 1.0
    return SectionExpansion.from_ortho(m, k, e)


def _family(sec):
    """The one-section flat family of sec."""
    return FL.FlatFamily(k=sec.k, m=sec.m, ortho=FL.dft_mix(sec.ortho_coeffs[None, :]))


def _sections(fam):
    return [SectionExpansion.from_ortho(fam.m, fam.k, row) for row in fam.ortho]


# (m, k, mesh) of the screened-refinement cases: m = 1 lat-lon r=0.35 and
# m = 2 balls r=0.4, the configurations of the benchmark's pipeline runs
SCREEN_CASES = ((1, 200, 16), (1, 800, 16), (2, 20, 6), (2, 40, 6))


@functools.lru_cache(maxsize=4)
def _screened_level(m: int, k: int):
    """(frame points, whitening matrix, flat family) of one screen case."""
    if m == 1:
        cfg = cli.RunConfig(m=1, k=(k,), spacing=1.945, eta=0.995, epsilon=0.005,
                            cover={"name": "latlon", "radius": 0.35}, delta=1e-9)
    else:
        cfg = cli.RunConfig(m=2, k=(k,), spacing=2.4, eta=0.9,
                            cover={"name": "balls", "radius": 0.4}, mesh=6)
    fr = F.build(cli.lattice_spec(cfg.validate())[0], k)
    op = W.inv_sqrt_eigen(W.assemble_gram(fr))
    return fr.points, op.entries, FL.flatten_frame(fr, op)


@functools.lru_cache(maxsize=4)
def _unscreened_sups(m: int, k: int, mesh: int):
    return C.certify_family(_screened_level(m, k)[2], mesh, 16).sup_estimates


def _records(fam, mesh=16):
    """emit_polynomials of fam on its certificate at the given mesh."""
    return C.emit_polynomials(fam, C.certify_family(fam, mesh, 16))


def _pipeline(k: int):
    spec = F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27, t=0.4)
    fr = F.build(spec, k)
    g = W.assemble_gram(fr)
    op = W.inv_sqrt_neumann(g)
    return fr, g, op, FL.flatten_frame(fr, op)


class TestL2Inner:
    def test_distinct_monomials_orthogonal(self):
        a, b = _unit_basis(1, 6, 2), _unit_basis(1, 6, 3)
        assert C.l2_inner(a, b) == 0.0

    def test_normalized_monomials_unit(self):
        for q in (0, 3, 7):
            chi = _unit_basis(1, 7, q)
            assert abs(C.l2_inner(chi, chi) - 1.0) < 1e-14

    def test_coherent_cross_check(self):
        model = KernelModel(1, 30)
        y = UnitLift.from_vector([math.cos(0.5), math.sin(0.5) * np.exp(0.3j)])
        yp = UnitLift.from_vector([math.cos(0.9), math.sin(0.9) * np.exp(-1.1j)])
        lhs = C.l2_inner(coherent_state(model, y), coherent_state(model, yp))
        rhs = szego_kernel(model, yp, y) / model.diag
        assert abs(lhs - rhs) < 1e-12

    def test_quadrature_oracle_m1(self):
        rng = np.random.default_rng(3)
        for k in range(9):
            ca = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            cb = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            sa = SectionExpansion.from_coeffs(1, k, ca)
            sb = SectionExpansion.from_coeffs(1, k, cb)
            assert abs(C.l2_inner(sa, sb) - C.torus_quadrature_inner(sa, sb)) < 1e-10

    def test_reproduces_whitening_gram(self):
        fr, g, op, fam = _pipeline(60)
        model = KernelModel(1, 60)
        states = [coherent_state(model, UnitLift.from_vector(x)) for x in fr.points]
        inner = np.array([[C.l2_inner(sa, sb) for sb in states] for sa in states])
        assert np.max(np.abs(inner - g.entries)) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(C.CertifyError):
            C.l2_inner(_unit_basis(1, 3, 0), _unit_basis(1, 4, 0))
        with pytest.raises(C.CertifyError):
            C.torus_quadrature_inner(_unit_basis(2, 3, 0), _unit_basis(2, 3, 0))


class TestSupNorm:
    def test_coherent_peak_found(self):
        for k in (50, 400):
            model = KernelModel(1, k)
            y = UnitLift.from_vector([math.cos(0.61), math.sin(0.61) * np.exp(0.8j)])
            est = C.sup_norm(coherent_state(model, y), mesh=16)
            peak = coherent_peak(model)
            assert est.value <= peak * (1 + 1e-12)
            assert est.value >= peak * 0.995

    def test_constant_section_equality_case(self):
        s = SectionExpansion.from_coeffs(1, 0, [1.7 - 0.4j])
        est = C.sup_norm(s, mesh=16)
        assert abs(est.value - abs(1.7 - 0.4j)) < 1e-12
        # flat equality: sup norm equals L2 norm / sqrt(Vol)
        assert abs(est.value - s.l2_norm() / math.sqrt(math.pi)) < 1e-12

    def test_monomial_closed_form_peak(self):
        # |z0^{k-q} z1^q| peaks at |z1|^2 = q/k with a closed-form value
        for k, q in ((6, 2), (20, 7), (80, 40)):
            chi = _unit_basis(1, k, q)
            mod = ((k - q) / k) ** ((k - q) / 2) * (q / k) ** (q / 2)
            weight = math.exp(
                0.5 * (math.lgamma(k + 2) - math.lgamma(q + 1) - math.lgamma(k - q + 1)
                       - math.log(math.pi))
            )
            want = mod * weight
            est = C.sup_norm(chi, mesh=16)
            assert est.value <= want * (1 + 1e-12)
            assert est.value >= want * 0.995

    def test_history_nondecreasing(self):
        fr, g, op, fam = _pipeline(100)
        est = C.sup_norm(_sections(fam)[0], mesh=16)
        hist = est.history
        assert all(b >= a for a, b in zip(hist, hist[1:]))
        assert est.value == hist[-1]
        assert est.evaluations > 0 and est.rounds_used >= 1

    def test_input_validation(self):
        with pytest.raises(C.CertifyError):
            C.sup_norm(_unit_basis(1, 3, 0), mesh=2)

    def test_base_boxes_cached_read_only(self, monkeypatch):
        boxes = C.base_boxes(2, 6)
        assert boxes is C.base_boxes(2, 6)
        assert not boxes.flags.writeable
        with pytest.raises(ValueError):
            boxes[0, 0, 0] = 1.0
        fresh = C.base_boxes.__wrapped__
        assert np.array_equal(boxes, fresh(2, 6))
        fam = _pipeline(60)[3]
        m2 = _unit_basis(2, 5, 7)
        cached = (C.certify_family(fam, 16, 16), C.sup_norm(m2, mesh=6))
        # a writable mesh built afresh in every call, as before the cache
        monkeypatch.setattr(C, "base_boxes", lambda m, per_dim: fresh(m, per_dim).copy())
        assert cached == (C.certify_family(fam, 16, 16), C.sup_norm(m2, mesh=6))


class TestScreenedRefinement:
    @pytest.mark.parametrize("m,k,mesh", SCREEN_CASES)
    def test_screened_sups_equal_unscreened(self, m, k, mesh):
        points, entries, fam = _screened_level(m, k)
        screened = C.certify_family(fam, mesh, 16, points=points, entries=entries)
        assert screened.sup_estimates == _unscreened_sups(m, k, mesh)

    @pytest.mark.parametrize("m,k,mesh", SCREEN_CASES)
    def test_screen_within_delta_of_monomial(self, m, k, mesh):
        points, entries, fam = _screened_level(m, k)
        rng = np.random.default_rng(k)
        raw = rng.standard_normal((10 ** 4, m + 1)) + 1j * rng.standard_normal((10 ** 4, m + 1))
        lifts = raw / np.linalg.norm(raw, axis=1)[:, None]
        for j, (screen, sec) in enumerate(zip(C.frame_screens(fam, points, entries),
                                              _sections(fam))):
            mine = lifts[j::fam.n]  # the 10^4 lifts, shared out over the sections
            gap = np.abs(screen.values(mine) - np.abs(sec.evaluate_lifts(mine)))
            assert np.max(gap) <= screen.delta / 100

    @pytest.mark.parametrize("m,k,mesh", SCREEN_CASES)
    def test_tail_within_its_bound_of_dense_block(self, m, k, mesh):
        points, entries, fam = _screened_level(m, k)
        # lifts next to frame points, where both kept and dropped terms are large
        rng = np.random.default_rng(1)
        near = points[rng.integers(0, fam.n, 400)]
        near = near + 0.5 / math.sqrt(k) * (rng.standard_normal(near.shape)
                                            + 1j * rng.standard_normal(near.shape))
        lifts = near / np.linalg.norm(near, axis=1)[:, None]
        g = lifts @ points.conj().T
        block = np.exp(k * np.log(np.abs(g))) * np.exp(1j * k * np.angle(g))
        count = 2 * fam.n + 4
        gamma = count * C.UNIT_ROUNDOFF / (1 - count * C.UNIT_ROUNDOFF)
        for screen in C.frame_screens(fam, points, entries)[:8]:
            w = np.abs(screen.weights)
            mass = screen.root * (np.abs(block) * (np.abs(g) < screen.cut)) @ w
            assert np.max(mass) > 0
            assert np.max(mass) <= screen.root * C.UNIT_ROUNDOFF * np.sum(w)
            # beyond the dropped mass, the two routes differ by the rounding
            # of their sums only
            dense = screen.root * np.abs(block @ screen.weights)
            rounding = 2 * gamma * screen.root * (np.abs(block) @ w)
            assert np.all(np.abs(screen.values(lifts) - dense) <= mass + rounding)

    @pytest.mark.parametrize("m,k,mesh", SCREEN_CASES)
    def test_ifft_weights_match_dft_matrix(self, m, k, mesh):
        points, entries, fam = _screened_level(m, k)
        weights = np.array([s.weights for s in C.frame_screens(fam, points, entries)])
        assert np.max(np.abs(weights - FL.dft_matrix(fam.n) @ entries)) <= 1e-12

    @pytest.mark.parametrize("k,row", ((20, 0), (40, 34)))
    def test_exact_ties_pick_the_same_cells(self, k, row):
        # at mesh 8 these sections meet children of exactly equal value at
        # a round's top-cell boundary (two to five of them); ordered by
        # cell index, the screened round picks the same twins as the full one
        points, entries, fam = _screened_level(2, k)
        sec = _sections(fam)[row]
        base = C._base_values(2, k, [sec.ortho_coeffs], C.base_boxes(2, 8))[0]
        screen = C.frame_screens(fam, points, entries)[row]
        assert (C.sup_norm(sec, mesh=8, base=base, screen=screen)
                == C.sup_norm(sec, mesh=8, base=base))

    def test_zero_window_misses_cells(self, monkeypatch):
        # a window of 0 confirms only the children screened at or above
        # the take-th value, and at m = 2 k = 40 rounding then drops a
        # winning cell
        points, entries, fam = _screened_level(2, 40)
        screens = C.frame_screens
        monkeypatch.setattr(C, "frame_screens", lambda *a: [
            dataclasses.replace(s, delta=0.0) for s in screens(*a)])
        assert (C.certify_family(fam, 6, 16, points=points, entries=entries).sup_estimates
                != _unscreened_sups(2, 40, 6))

    def test_screen_rejects_mismatched_frame(self):
        points, entries, fam = _screened_level(2, 20)
        with pytest.raises(C.CertifyError):
            C.certify_family(fam, 6, 16, points=points[1:], entries=entries)
        with pytest.raises(C.CertifyError):
            C.certify_family(fam, 6, 16, points=points)

    def test_evaluation_does_not_depend_on_batch(self):
        # the confirm step evaluates a subset of the children; each value
        # must equal the one the full round computes
        fam = _screened_level(2, 40)[2]
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        lifts = raw / np.linalg.norm(raw, axis=1)[:, None]
        for sec in _sections(fam)[:4]:
            full = sec.evaluate_lifts(lifts)
            for size in (2, 8, 13, 64, 199):
                pick = rng.choice(200, size, replace=False)
                assert np.array_equal(sec.evaluate_lifts(lifts[pick]), full[pick])

    def test_confirm_goes_through_evaluate_lifts(self, monkeypatch):
        cfg = cli.RunConfig(m=2, k=(20,), spacing=2.4, eta=0.9,
                            cover={"name": "balls", "radius": 0.4}, mesh=6).validate()
        seen = []
        evaluate = SectionExpansion.evaluate_lifts

        def counted(self, lifts):
            seen.append(len(lifts))
            return evaluate(self, lifts)

        monkeypatch.setattr(SectionExpansion, "evaluate_lifts", counted)
        level = cli._run_level(cfg, cli.lattice_spec(cfg)[0], 20)
        base = len(C.base_boxes(2, 6))
        examined = sum(e.evaluations - base for e in level.cert.sup_estimates)
        assert min(seen) >= 8
        assert 0 < sum(seen) < examined / 4


class TestFlatBound:
    def test_limit_value(self):
        assert abs(C.flat_bound(1.0, 1e-12, 1.0) - 1.0) < 1e-9

    def test_worked_example(self):
        want = 1.3 / math.sqrt(0.8 * 0.7) / math.sqrt(math.pi)
        got = C.flat_bound(0.8, 0.3, math.pi)
        assert got == want
        assert abs(got - 0.9801) < 1e-4

    def test_remark_eta_from_limit_lattice(self):
        # eta of the critical-density limit: [sum_j exp(-pi j^2/(2 beta))]^2 - 1
        beta = 0.8
        theta = 1.0 + 2.0 * sum(math.exp(-math.pi * j * j / (2 * beta))
                                for j in range(1, 30))
        assert abs((theta ** 2 - 1) - K0.eta_from_cubic_density(beta, 1)) < 1e-12
        bound = C.flat_bound(beta, theta ** 2 - 1, math.pi)
        assert bound > C.flat_bound(beta, 0.1, math.pi)

    def test_domain_errors(self):
        for bad in ((1.0, -0.1, 1.0), (1.0, 1.0, 1.0), (0.0, 0.5, 1.0),
                    (1.0, 0.5, 0.0)):
            with pytest.raises(C.CertifyError):
                C.flat_bound(*bad)


class TestCertifyFamily:
    def test_run_certificate(self):
        fr, g, op, fam = _pipeline(100)
        fk = FL.fk_norm(fr, mesh=4096, rounds=5)
        cert = C.certify_family(fam, 16, 16)
        assert all(abs(v - 1.0) < 1e-8 for v in cert.l2_norms)
        max_sup = max(e.value for e in cert.sup_estimates)
        assert max_sup <= FL.sup_norm_chain_bound(fk, op, fr.n)
        beta_hat = fr.n / (100 + 1)
        assert max_sup <= C.flat_bound(beta_hat, g.eta_hat, math.pi) * 1.10

    def test_flatness_floor_enforced(self):
        fr, g, op, fam = _pipeline(60)
        cert = C.certify_family(fam, 16, 16)
        for est, l2 in zip(cert.sup_estimates, cert.l2_norms):
            assert est.value >= l2 / math.sqrt(math.pi) * (1 - 1e-3)

    def test_unnormalized_family_reports_its_l2_norm(self):
        # the certificate reports the norm; _run_level turns its distance
        # from 1 into the hard invariant l2_normalized
        bad = _family(SectionExpansion.from_coeffs(1, 4, [2.0, 0, 0, 0, 0]))
        cert = C.certify_family(bad, 16, 16)
        assert abs(cert.l2_norms[0] - 2 * math.sqrt(math.pi / 5)) < 1e-12

    def test_shared_base_mesh_matches_single_sections(self):
        m1 = _pipeline(200)[3]
        cfg = cli.RunConfig(m=2, k=(20,), spacing=2.4, eta=0.9,
                            cover={"name": "balls", "radius": 0.4}, mesh=6).validate()
        m2 = cli._run_level(cfg, cli.lattice_spec(cfg)[0], 20).fam
        for fam, mesh in ((m1, 16), (m2, 6)):
            assert fam.n > 1
            cert = C.certify_family(fam, mesh, 16)
            single = [C.sup_norm(s, mesh=mesh) for s in _sections(fam)]
            assert np.array_equal([e.value for e in cert.sup_estimates],
                                  [e.value for e in single])
            assert cert.sup_estimates == tuple(single)

    def test_blocked_base_mesh_matches_single_sections(self, monkeypatch):
        fam = _pipeline(60)[3]
        # 256 base cells at mesh 16: blocks of 4 sections, the last one short
        monkeypatch.setattr(C, "BASE_BLOCK_ENTRIES", 4 * 256 + 10)
        assert fam.n > 4 and fam.n % 4
        assert C.certify_family(fam, 16, 16).sup_estimates == tuple(
            C.sup_norm(s) for s in _sections(fam))

    def test_emit_reuses_matching_certificate_only(self):
        fr, g, op, fam = _pipeline(60)
        cert = C.certify_family(fam, 8, 6)
        records = C.emit_polynomials(fam, cert)
        assert [r.sup for r in records] == list(cert.sup_estimates)
        assert [r.l2 for r in records] == list(cert.l2_norms)
        with pytest.raises(C.CertifyError):
            C.emit_polynomials(_pipeline(100)[3], cert)
        with pytest.raises(C.CertifyError):
            C.emit_polynomials(fam, dataclasses.replace(
                cert, sup_estimates=cert.sup_estimates[1:]))

    def test_raw_overflow_past_k2060(self):
        # the orthonormal coefficients stay exact past the level where the
        # raw ones overflow; only writing polynomials out needs the raw ones
        spec = F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27, t=0.1)
        fr = F.build(spec, 2100)
        assert fr.n == 25
        fam = FL.flatten_frame(fr, W.inv_sqrt_neumann(W.assemble_gram(fr)))
        assert np.max(np.abs(fam.ortho @ fam.ortho.conj().T - np.eye(fr.n))) <= 1e-8
        cert = C.certify_family(fam, 16, 16)
        with pytest.raises(C.CertifyError):
            C.emit_polynomials(fam, cert)


class TestEmitters:
    def test_degree_one_record(self):
        spec = F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27, t=0.1)
        fr = F.build(spec, 1)
        assert fr.n == 1
        fam = FL.flatten_frame(fr, W.inv_sqrt_eigen(W.assemble_gram(fr)))
        rec = _records(fam)[0]
        assert rec.exponents.tolist() == [[1, 0], [0, 1]]
        assert abs(rec.coeffs[0] - math.sqrt(2 / math.pi)) < 1e-12
        assert abs(rec.coeffs[1]) < 1e-12
        # coherent state at the pole: sup = sqrt(2/pi), l2 = 1, Vol = pi
        assert abs(rec.sphere_ratio - math.sqrt(2)) < 5e-3

    def test_ratio_floor(self):
        fr, g, op, fam = _pipeline(100)
        for rec in _records(fam):
            assert rec.sphere_ratio >= 1.0 - 1e-3

    def test_selected_sequence_bounded(self):
        table = {}
        for k in (50, 100, 200):
            fr, g, op, fam = _pipeline(k)
            table[k] = _records(fam)
        seq = C.select_flat_sequence(table)
        for k, rec in seq.items():
            assert rec.sphere_ratio == min(r.sphere_ratio for r in table[k])
            assert rec.sphere_ratio < 4.0

    def test_empty_level_rejected(self):
        with pytest.raises(C.CertifyError):
            C.select_flat_sequence({3: []})

    def test_record_json(self):
        import json

        fr, g, op, fam = _pipeline(60)
        rec = _records(fam)[0]
        blob = json.loads(json.dumps(rec.to_dict()))
        assert blob["k"] == 60 and len(blob["coeffs re"]) == 61

    def test_record_dict_matches_json(self):
        import json

        m1 = _records(_pipeline(60)[3])[0]
        m2 = _records(_family(_unit_basis(2, 4, 3)), mesh=6)[0]
        for rec in (m1, m2):
            assert rec.to_dict() == json.loads(json.dumps(rec.to_dict()))
        assert m2.to_dict()["m"] == 2 and len(m2.to_dict()["exponents"]) == 15


class TestEigenfunctions:
    def test_degree_one_exact(self):
        rec_fam = _family(SectionExpansion.from_coeffs(1, 1, [1.0, 0.0]))
        rec = _records(rec_fam)[0]
        e = C.emit_eigenfunction(rec)
        assert e.lam == 3
        assert e.part == "re"
        # || Re z0 ||_2 over the sphere is exactly 1/2
        assert abs(e.l2 - 0.5) < 1e-12
        assert e.residual < 1e-6

    def test_real_part_keeps_half_the_mass(self):
        rng = np.random.default_rng(11)
        for k in (2, 9):
            coeffs = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            sec = SectionExpansion.from_coeffs(1, k, coeffs)
            fam = _family(sec)
            rec = _records(fam)[0]
            e = C.emit_eigenfunction(rec)
            sphere_norm = sec.l2_norm() / math.sqrt(math.pi)
            assert e.l2 >= sphere_norm / math.sqrt(2) - 1e-12

    def test_residual_small_across_levels(self):
        for k in (8, 60):
            fr, g, op, fam = _pipeline(k) if k >= 50 else (None,) * 4
            if fam is None:
                sec = SectionExpansion.from_coeffs(1, k, np.ones(k + 1, dtype=complex))
                fam = _family(sec)
            rec = _records(fam)[0]
            e = C.emit_eigenfunction(rec)
            assert e.residual < 1e-6

    def test_full_pipeline_residual_at_400(self):
        fr, g, op, fam = _pipeline(400)
        rec = C.select_flat_sequence({400: _records(fam)})[400]
        e = C.emit_eigenfunction(rec)
        assert e.lam == 400 * 402
        assert e.residual < 1e-6

    def test_constant_polynomial(self):
        fam = _family(SectionExpansion.from_coeffs(1, 0, [0.3 - 2.0j]))
        rec = _records(fam)[0]
        e = C.emit_eigenfunction(rec)
        assert e.lam == 0 and e.part == "im" and e.residual == 0.0

    def test_zero_polynomial_rejected(self):
        rec = C.PolynomialRecord(
            k=2, m=1, exponents=C.multi_indices(1, 2),
            coeffs=np.zeros(3, dtype=np.complex128),
            sup=C.SupNormEstimate(0.0, 16, 0, 0.0, 0, (0.0,)),
            l2=0.0, sphere_ratio=1.0,
        )
        with pytest.raises(C.CertifyError):
            C.emit_eigenfunction(rec)

