"""DFT mixing, the frame-sum mapping norm, and the reference family."""

import math

import numpy as np
import pytest

from flatsections import cli
from flatsections import flatten as FL
from flatsections import frame as F
from flatsections import geometry as G
from flatsections import whitening as W
from flatsections.geometry import as_unit_vector
from flatsections.kernel import SectionExpansion, coherent_state, kernel_diag
from oracles import evaluate_sections, section_values


def _run_b_spec():
    return F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27,
                         charts=tuple(G.cube_cover(1, 0.4)),
                         epsilon=0.05, delta=None, beta_target=None)


def fk_ceilings(frame: F.Frame, spec: F.LatticeSpec, eta_hat: float) -> dict:
    """Analytic ceilings for fk_norm on a frame of spec.

    "theta": sqrt(diag) * (1 + sqrt(2 pi)/a_tilde)^{2m}, the Poisson
    summation tail bound with the distortion-adjusted spacing;
    "eta": (1 + eta_hat) * sqrt(diag) * 1.05, with eta_hat the measured
    row mass.
    """
    root = math.sqrt(kernel_diag(frame.m, frame.k))
    atil = (spec.a / spec.gamma) * math.sqrt(1 - spec.epsilon)
    return {
        "theta": root * (1 + math.sqrt(2 * math.pi) / atil) ** (2 * frame.m),
        "eta": (1 + eta_hat) * root * 1.05,
    }


def bourgain_reference(signs, k: int) -> list:
    """Sign-twisted DFT of the monomial basis on the projective line.

    For any sign vector the output is exactly orthonormal; with trivial
    signs it is the classical highly peaked family, kept as a reference
    point rather than a bounded construction.
    """
    sigma = np.asarray(signs, dtype=np.float64)
    if sigma.ndim != 1 or sigma.shape[0] != k + 1:
        raise FL.FlattenError("need one sign per monomial, k + 1 of them")
    if not np.all(np.abs(sigma) == 1.0):
        raise FL.FlattenError("signs must be +1 or -1")
    mixed = FL.dft_matrix(k + 1) * sigma[None, :]  # rows: coefficients over chi_q
    return [SectionExpansion.from_ortho(1, k, row) for row in mixed]


@pytest.fixture
def small_fk(monkeypatch):
    """fk_norm on a mesh of 4096 cells with 5 zoom rounds, a quarter of the
    pipeline's mesh and one round less."""
    monkeypatch.setattr(FL, "FK_MESH", 4096)
    monkeypatch.setattr(FL, "FK_ROUNDS", 5)


def _mesh(m: int, target: int) -> np.ndarray:
    """The shared equal-area mesh at fk_norm's size for a target count."""
    side = max(2, math.isqrt(target) if m == 1 else round(target ** 0.25))
    return G.center_lifts(m, G.base_boxes(m, side))


def _m2_frame(k: int):
    """The frame of the benchmark's m = 2 level k (balls r=0.4, a=2.4)."""
    cfg = cli.RunConfig(m=2, k=(k,), spacing=2.4, eta=0.9,
                        cover={"name": "balls", "radius": 0.4}, mesh=6)
    return F.build(cli.lattice_spec(cfg.validate())[0], k)


def _m1_frame(k: int):
    """The frame of the benchmark's m = 1 level k (lat-lon r=0.35, a=1.945)."""
    cfg = cli.RunConfig(m=1, k=(k,), spacing=1.945, eta=0.995, epsilon=0.005,
                        cover={"name": "latlon", "radius": 0.35}, delta=1e-9, beta=0.8)
    return F.build(cli.lattice_spec(cfg.validate())[0], k)


def _full_mesh_fk(monkeypatch, fr) -> float:
    """fk_norm with every mesh cell its own twin: the full-mesh oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(G, "base_twins", lambda m, per_dim: np.arange(per_dim ** (2 * m)))
        return FL.fk_norm(fr)


def _plain_frame_sum(fr: F.Frame, lifts: np.ndarray) -> np.ndarray:
    """frame_sum's formula over all lifts at once, every term through exp."""
    q = np.abs(lifts @ fr.points.conj().T)
    np.clip(q, 0.0, 1.0, out=q)
    with np.errstate(divide="ignore"):
        logq = np.log(q)
    return math.sqrt(kernel_diag(fr.m, fr.k)) * np.sum(np.exp(fr.k * logq), axis=1)


def _whitened(k: int):
    fr = F.build(_run_b_spec(), k)
    g = W.assemble_gram(fr)
    op = W.inv_sqrt_neumann(g, tol=1e-10)
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
        m, k = 1, 12
        phi = coherent_state(m, k, as_unit_vector([1.0, 0.0]))
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
        m, k = 1, 40
        pts = [as_unit_vector([math.cos(r), math.sin(r)]) for r in (0.1, 0.35, 0.7)]
        p = np.vstack([coherent_state(m, k, x).ortho_coeffs for x in pts])
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
        m, k = 1, 100
        p = np.vstack([coherent_state(m, k, as_unit_vector(x)).ortho_coeffs
                       for x in fr.points])
        alt = (FL.dft_matrix(fr.n) @ op.entries) @ p
        assert np.max(np.abs(alt - fam.ortho)) < 1e-12

    def test_mix_weights_bounded_by_mapping_norm(self):
        fr, g, op = _whitened(100)
        weights = FL.dft_matrix(fr.n) @ op.entries
        assert np.max(np.abs(weights)) <= op.norm_inf / math.sqrt(fr.n) + 1e-12


class TestFrameMappingNorm:
    def test_single_point_peak(self, monkeypatch):
        monkeypatch.setattr(FL, "FK_MESH", 1024)
        monkeypatch.setattr(FL, "FK_ROUNDS", 3)
        spec = F.LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27,
                             charts=tuple(G.cube_cover(1, 0.1)),
                             epsilon=0.05, delta=None, beta_target=None)
        fr = F.build(spec, 50)
        assert fr.n == 1
        root = math.sqrt(kernel_diag(1, 50))
        assert abs(FL.fk_norm(fr) - root) < 1e-10 * root

    def test_floor_and_ceilings(self, small_fk):
        for k in (100, 200, 400):
            fr, g, op = _whitened(k)
            fk = FL.fk_norm(fr)
            root = math.sqrt(kernel_diag(1, k))
            ceil = fk_ceilings(fr, _run_b_spec(), g.eta_hat)
            assert root * (1 - 1e-12) <= fk
            assert fk <= ceil["eta"] <= ceil["theta"]

    def test_growth_rate_bounded(self, small_fk):
        # fk / k^{m/2} stays in a narrow band as k doubles
        ratios = []
        for k in (100, 200, 400):
            fr = F.build(_run_b_spec(), k)
            ratios.append(FL.fk_norm(fr) / math.sqrt(k))
        assert all(0.7 < r < 0.9 for r in ratios)
        assert max(ratios) / min(ratios) < 1.1

    def test_sup_norm_chain(self, small_fk):
        fr, g, op = _whitened(200)
        fam = FL.flatten_frame(fr, op)
        fk = FL.fk_norm(fr)
        chain = FL.sup_norm_chain_bound(fk, op, fr.n)
        mesh = _mesh(1, 4096)
        sups = np.max(np.abs(evaluate_sections(1, 200, fam.ortho, mesh)), axis=1).tolist()
        assert max(sups) <= chain
        # flatness across the family is exploratory: log the spread only
        spread = max(sups) / min(sups) - 1
        assert spread >= 0.0

    def test_frame_sum_blocks_match_unchunked(self, monkeypatch):
        fr, g, op = _whitened(200)
        lifts = np.vstack([_mesh(1, 4096), fr.points])
        want = _plain_frame_sum(fr, lifts)
        rows = len(lifts) // 3 - 7  # three full blocks and a short fourth
        monkeypatch.setattr(FL, "FRAME_SUM_BLOCK_ENTRIES", rows * fr.n)
        assert -(-len(lifts) // rows) >= 3 and len(lifts) % rows
        got = FL.frame_sum(fr, lifts)
        assert got.tobytes() == want.tobytes()
        # lone lifts and a one-row tail, on the m1-run frame at k = 200:
        # no block holds a single lift, whose product rounds differently
        fr = _m1_frame(200)
        lifts = np.vstack([_mesh(1, 4096), fr.points])
        want = _plain_frame_sum(fr, lifts)
        for i in (int(np.argmax(want)), 0, len(lifts) - 1):
            assert FL.frame_sum(fr, lifts[i:i + 1]).tobytes() == want[i:i + 1].tobytes()
        monkeypatch.setattr(FL, "FRAME_SUM_BLOCK_ENTRIES", 1000 * fr.n)
        # four blocks of 1,000 lifts, then one
        assert FL.frame_sum(fr, lifts[:4001]).tobytes() == want[:4001].tobytes()

    def test_subnormal_terms_zeroed_bit_for_bit(self):
        # the m1-run level k = 800: about one term in 70 of its F_k mesh
        # would come out of exp subnormal, and zeroing them leaves every
        # mesh value as the plain exp gives it, bit for bit
        fr = _m1_frame(800)
        lifts = np.vstack([_mesh(1, FL.FK_MESH), fr.points])
        with np.errstate(divide="ignore"):
            expo = 800 * np.log(np.abs(lifts[::16] @ fr.points.conj().T))
        assert np.any((expo < FL.LOG_TINY) & (expo > math.log(2.0 ** -1074)))
        assert FL.frame_sum(fr, lifts).tobytes() == _plain_frame_sum(fr, lifts).tobytes()

    def test_twin_mesh_matches_full_mesh(self, monkeypatch):
        m1 = F.build(_run_b_spec(), 200)
        assert FL.fk_norm(m1) == _full_mesh_fk(monkeypatch, m1)
        for k in (20, 40):
            m2 = _m2_frame(k)
            fk = FL.fk_norm(m2)
            assert abs(fk - _full_mesh_fk(monkeypatch, m2)) <= 1e-12 * fk

    def test_m2_mesh_sends_each_distinct_lift_once(self, monkeypatch):
        # the 14641 cells of the m = 2 mesh hold 7986 distinct lifts, and
        # the frame points follow them
        fr = _m2_frame(20)
        sent = []
        frame_sum = FL.frame_sum
        monkeypatch.setattr(FL, "frame_sum",
                            lambda frame, lifts: sent.append(len(lifts))
                            or frame_sum(frame, lifts))
        FL.fk_norm(fr)
        assert sent[0] == 7986 + fr.n
        assert len(sent) == 1 + FL.FK_ROUNDS

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
            fam = bourgain_reference(signs, k)
            q = np.vstack([s.ortho_coeffs for s in fam])
            assert np.max(np.abs(q @ q.conj().T - np.eye(k + 1))) < 1e-10

    def test_trivial_signs_small_family(self):
        fam = bourgain_reference(np.ones(5), 4)
        assert len(fam) == 5
        q = np.vstack([s.ortho_coeffs for s in fam])
        assert np.allclose(np.abs(q), 1 / math.sqrt(5), atol=1e-13)
        mesh = _mesh(1, 4096)
        sups = [float(np.max(np.abs(section_values(s, mesh)))) for s in fam]
        assert all(s > 0 for s in sups)

    def test_input_validation(self):
        with pytest.raises(FL.FlattenError):
            bourgain_reference(np.ones(5), 5)
        with pytest.raises(FL.FlattenError):
            bourgain_reference(np.array([1.0, 0.5, 1.0]), 2)


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
