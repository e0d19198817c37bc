"""DFT mixing, the frame-sum mapping norm, and the reference family."""

import math

import numpy as np
import pytest

from flatsections import flatten as FL
from flatsections import frame as F
from flatsections import geometry as G
from flatsections import whitening as W
from flatsections.geometry import UnitLift
from flatsections.kernel import KernelModel, SectionExpansion, coherent_state


def _run_b_spec():
    return F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27, t=0.4)


def _mesh(m: int, target: int) -> np.ndarray:
    """The shared equal-area mesh at fk_norm's size for a target count."""
    side = max(2, math.isqrt(target) if m == 1 else round(target ** 0.25))
    return G.center_lifts(m, G.base_boxes(m, side))


def _whitened(k: int):
    fr = F.build(_run_b_spec(), k)
    g = W.assemble_gram(fr)
    op = W.inv_sqrt_neumann(g)
    return fr, g, op


class TestDftMatrix:
    def test_unitary(self):
        for n in (1, 2, 7, 64):
            w = FL.dft_matrix(n)
            assert np.max(np.abs(w @ w.conj().T - np.eye(n))) < 1e-13

    def test_entries_are_exact_roots(self):
        n = 257
        w = FL.dft_matrix(n) * math.sqrt(n)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-15
        # the reduced-phase rule keeps large indices exact: entry (n-1, n-1)
        # has phase (n-1)^2 mod n = 1
        assert abs(w[n - 1, n - 1] - np.exp(2j * np.pi / n)) < 1e-15

    def test_rejects_empty(self):
        with pytest.raises(FL.FlattenError):
            FL.dft_matrix(0)


class TestDftMix:
    def test_single_section_passthrough(self):
        model = KernelModel(1, 12)
        phi = coherent_state(model, UnitLift.from_vector([1.0, 0.0]))
        mixed = FL.dft_mix(phi.ortho_coeffs[None, :])
        assert mixed.shape == (1, 13)
        assert np.allclose(mixed[0], phi.ortho_coeffs)

    def test_mixed_family_orthonormal(self):
        fr, g, op = _whitened(60)
        q = FL.flatten_frame(fr, op).ortho
        assert q.shape == (fr.n, 61)
        assert np.max(np.abs(q @ q.conj().T - np.eye(fr.n))) < 1e-8

    def test_parseval(self):
        fr, g, op = _whitened(60)
        psis = W.whiten(fr, op)
        before = np.linalg.norm(psis) ** 2
        after = np.linalg.norm(FL.dft_mix(psis)) ** 2
        assert abs(before - after) < 1e-10

    def test_gram_preserved_by_mixing(self):
        # mix a deliberately non-orthonormal family: Gram must be conjugated
        # by a unitary, so its eigenvalues survive exactly
        model = KernelModel(1, 40)
        pts = [UnitLift.from_vector([math.cos(r), math.sin(r)]) for r in (0.1, 0.35, 0.7)]
        p = np.vstack([coherent_state(model, x).ortho_coeffs for x in pts])
        q = FL.dft_mix(p)
        mixed_eigs = np.linalg.eigvalsh(q @ q.conj().T)
        raw_eigs = np.linalg.eigvalsh(p @ p.conj().T)
        assert np.max(np.abs(mixed_eigs - raw_eigs)) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(FL.FlattenError):
            FL.dft_mix(np.zeros((0, 5), dtype=np.complex128))

    def test_mix_weights_reproduce_sections(self):
        fr, g, op = _whitened(100)
        fam = FL.flatten_frame(fr, op)
        model = KernelModel(1, 100)
        p = np.vstack([coherent_state(model, UnitLift.from_vector(x)).ortho_coeffs
                       for x in fr.points])
        alt = (FL.dft_matrix(fr.n) @ op.entries) @ p
        assert np.max(np.abs(alt - fam.ortho)) < 1e-12

    def test_mix_weights_bounded_by_mapping_norm(self):
        fr, g, op = _whitened(100)
        weights = FL.dft_matrix(fr.n) @ op.entries
        assert np.max(np.abs(weights)) <= op.norm_inf / math.sqrt(fr.n) + 1e-12


class TestFrameMappingNorm:
    def test_single_point_peak(self):
        spec = F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27, t=0.1)
        fr = F.build(spec, 50)
        assert fr.n == 1
        root = math.sqrt(KernelModel(1, 50).diag)
        assert abs(FL.fk_norm(fr, mesh=1024, rounds=3) - root) < 1e-10 * root

    def test_floor_and_ceilings(self):
        for k in (100, 200, 400):
            fr, g, op = _whitened(k)
            fk = FL.fk_norm(fr, mesh=4096, rounds=5)
            root = math.sqrt(KernelModel(1, k).diag)
            ceil = FL.fk_ceilings(fr, eta_hat=g.eta_hat)
            assert root * (1 - 1e-12) <= fk
            assert fk <= ceil["eta"] <= ceil["theta"]

    def test_growth_rate_bounded(self):
        # fk / k^{m/2} stays in a narrow band as k doubles
        ratios = []
        for k in (100, 200, 400):
            fr = F.build(_run_b_spec(), k)
            ratios.append(FL.fk_norm(fr, mesh=4096, rounds=5) / math.sqrt(k))
        assert all(0.7 < r < 0.9 for r in ratios)
        assert max(ratios) / min(ratios) < 1.1

    def test_sup_norm_chain(self):
        fr, g, op = _whitened(200)
        fam = FL.flatten_frame(fr, op)
        fk = FL.fk_norm(fr, mesh=4096, rounds=5)
        chain = FL.sup_norm_chain_bound(fk, op, fr.n)
        mesh = _mesh(1, 4096)
        sups = [float(np.max(np.abs(SectionExpansion.from_ortho(1, 200, row)
                                    .evaluate_lifts(mesh))))
                for row in fam.ortho]
        assert max(sups) <= chain
        # flatness across the family is exploratory: log the spread only
        spread = max(sups) / min(sups) - 1
        assert spread >= 0.0

    def test_frame_sum_blocks_match_unchunked(self, monkeypatch):
        fr, g, op = _whitened(200)
        lifts = np.vstack([_mesh(1, 4096), fr.points])
        # the formula over all lifts at once
        q = np.abs(lifts @ fr.points.conj().T)
        np.clip(q, 0.0, 1.0, out=q)
        with np.errstate(divide="ignore"):
            logq = np.log(q)
        want = math.sqrt(KernelModel(1, 200).diag) * np.sum(np.exp(200 * logq), axis=1)
        rows = len(lifts) // 3 - 7  # three full blocks and a short fourth
        monkeypatch.setattr(FL, "FRAME_SUM_BLOCK_ENTRIES", rows * fr.n)
        assert -(-len(lifts) // rows) >= 3 and len(lifts) % rows
        got = FL.frame_sum(fr, lifts)
        assert got.tobytes() == want.tobytes()

    def test_empty_frame_rejected(self):
        with pytest.raises(FL.FlattenError):
            FL.fk_norm(F.build(_run_b_spec(), 0))


class TestAreaMesh:
    def test_unit_lifts(self):
        for m in (1, 2):
            mesh = _mesh(m, 2048)
            assert mesh.shape[1] == m + 1
            assert np.max(np.abs(np.linalg.norm(mesh, axis=1) - 1.0)) < 1e-12

    def test_equidistribution_moments(self):
        # uniform measure gives E|z_i|^2 = 1/(m+1)
        for m in (1, 2):
            mesh = _mesh(m, 20000 if m == 1 else 200000)
            mom = np.mean(np.abs(mesh) ** 2, axis=0)
            assert np.max(np.abs(mom - 1.0 / (m + 1))) < 5e-3

    def test_unsupported_dimension(self):
        with pytest.raises(G.GeometryError):
            _mesh(3, 100)


class TestBourgainReference:
    def test_orthonormal_for_any_signs(self):
        rng = np.random.default_rng(7)
        for k in (4, 64):
            signs = rng.choice([-1.0, 1.0], size=k + 1)
            fam = FL.bourgain_reference(signs, k)
            q = np.vstack([s.ortho_coeffs for s in fam])
            assert np.max(np.abs(q @ q.conj().T - np.eye(k + 1))) < 1e-10

    def test_trivial_signs_small_family(self):
        fam = FL.bourgain_reference(np.ones(5), 4)
        assert len(fam) == 5
        q = np.vstack([s.ortho_coeffs for s in fam])
        assert np.allclose(np.abs(q), 1 / math.sqrt(5), atol=1e-13)
        mesh = _mesh(1, 4096)
        sups = [float(np.max(np.abs(s.evaluate_lifts(mesh)))) for s in fam]
        assert all(s > 0 for s in sups)

    def test_input_validation(self):
        with pytest.raises(FL.FlattenError):
            FL.bourgain_reference(np.ones(5), 5)
        with pytest.raises(FL.FlattenError):
            FL.bourgain_reference(np.array([1.0, 0.5, 1.0]), 2)


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        fr, g, op = _whitened(60)
        fam = FL.flatten_frame(fr, op)
        path = tmp_path / "family.bin"
        FL.dump_family(path, fam, "test-dump")
        back = FL.load_family(path)
        tag = W.read_dump(path, b"FLT1", "flat-family", lambda m, k, n: k + 1)[3]
        assert tag == "test-dump"
        assert back.k == fam.k and back.m == fam.m and back.n == fam.n
        assert np.array_equal(back.ortho, fam.ortho)

    def test_bad_dump_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRNG" + b"\x00" * 64)
        with pytest.raises(FL.FlattenError):
            FL.load_family(path)
        fr, g, op = _whitened(60)
        fam = FL.flatten_frame(fr, op)
        good = tmp_path / "family.bin"
        FL.dump_family(good, fam, "x")
        good.write_bytes(good.read_bytes()[:-4])
        with pytest.raises(FL.FlattenError):
            FL.load_family(good)
