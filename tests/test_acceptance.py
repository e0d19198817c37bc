"""Acceptance suite: one end-to-end test per top-level claim.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
claim.  Runtime budgets are asserted inside the tests themselves.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from flatsections import cli
from flatsections.certify import (
    emit_eigenfunction,
    emit_polynomials,
    flat_bound,
)
from flatsections.cli import RunConfig
from flatsections.flatten import flatten_frame, fk_norm, sup_norm_chain_bound
from flatsections.frame import LatticeSpec, build, choose_spacing
from flatsections.geometry import as_unit_vector, cp1_latlon_cover, cube_cover
from flatsections.kernel import (
    dimension,
    multi_indices,
    szego_kernel,
    verify_decay,
)
from flatsections.whitening import assemble_gram, inv_sqrt_eigen, inv_sqrt_neumann
from oracles import density_threshold, raw_coeffs


def _unit_rows(rng, count: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# shared end-to-end runs (dense single-chart family, m = 1)


@pytest.fixture(scope="module")
def ortho_levels():
    """Dense cubic family at a = 2.2, eta target 0.7, k in {50,...,400}."""
    spec = LatticeSpec(kind="cubic", m=1, a=2.2, eta=0.7, gamma=1.27,
                       charts=tuple(cube_cover(1, 0.4)),
                       epsilon=0.05, delta=None, beta_target=None)
    levels = {}
    for k in (50, 100, 200, 400):
        frame = build(spec, k)
        g = assemble_gram(frame)
        op = inv_sqrt_neumann(g, tol=1e-10)
        fam = flatten_frame(frame, op)
        levels[k] = {"frame": frame, "gram": g, "op": op, "fam": fam}
    return levels


def test_constants_reproduction():
    """Twelve critical densities, exact at five decimals, under a second."""
    started = time.perf_counter()
    manifest = cli.run(RunConfig(mode="constants-only"))
    elapsed = time.perf_counter() - started
    core = manifest["core"]
    cubic_expected = [0.99220, 0.44342, 0.17782, 0.06630, 0.02345, 0.00796]
    hex_expected = [0.99564, 0.45867, 0.19254, 0.07572, 0.02838, 0.01024]
    assert [round(v, 5) for v in core["beta"]] == cubic_expected
    assert [round(v, 5) for v in core["beta_prime"]] == hex_expected
    assert elapsed < 1.0


def test_kernel_exactness():
    """Normalized kernel equals cos^k of the distance to 1e-10 relative on
    1e4 random pairs per (m, k), and the diagonal reproduces the section
    count as an integer identity.  Under ten seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for m in (1, 2):
        for k in (10, 100, 1000):
            a = _unit_rows(rng, 10_000, m + 1)
            b = _unit_rows(rng, 10_000, m + 1)
            r = np.abs(np.einsum("ij,ij->i", a, b.conj()))
            d = np.arccos(np.clip(r, 0.0, 1.0))
            # log-domain route vs direct power route; both full range
            log_p = k * np.log(np.clip(r, 1e-300, 1.0))
            log_ref = k * np.log(np.cos(np.minimum(d, math.pi / 2 - 1e-12)))
            assert np.max(np.abs(np.expm1(log_p - log_ref))) <= 1e-10
            # linear-domain comparison where a double can resolve 1e-10
            p = np.exp(log_p)
            ref = np.cos(d) ** k
            ok = p >= 1e-290
            assert np.all(np.abs(p[ok] - ref[ok]) <= 1e-10 * p[ok])

            x = as_unit_vector(_unit_rows(rng, 1, m + 1)[0])
            diag = szego_kernel(m, k, x, x).real * math.pi**m / math.factorial(m)
            assert int(round(diag)) == math.comb(k + m, m)
            assert abs(diag - math.comb(k + m, m)) <= 1e-9 * math.comb(k + m, m)
    assert time.perf_counter() - started < 10.0


def test_decay_regimes():
    """Near-regime deviation from the Gaussian profile shrinks with k and
    stays under b^2 log k/(6k) * 1.01; far regime decays below k^-(m+1)."""
    b2 = 7.0  # 4m + 3 at m = 1
    devs = []
    for k in (100, 400, 1600):
        near, _ = verify_decay(1, k)
        dev = near["max deviation"]
        assert dev <= b2 * math.log(k) / (6 * k) * 1.01
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]
    for k in (400, 1600):
        _, far = verify_decay(1, k)
        assert far is not None and far["max deviation"] < 1.0


def test_step2_bounds():
    """Closed-form spacing at eta = 0.5 keeps the measured perturbation
    under target on every level, the whitening map-norm under the
    (1-eta)^{-1/2} ceiling, and the two square-root routes together."""
    charts = tuple(cp1_latlon_cover(0.35))
    gamma = max(c.gamma for c in charts)
    a = choose_spacing(1, 0.5, gamma)
    spec = LatticeSpec(kind="cubic", m=1, a=a, eta=0.5, gamma=gamma,
                       charts=charts, delta=1e-9, epsilon=0.05, beta_target=None)
    assert spec.certified and spec.abound_satisfied
    grid = (50, 100, 200, 400, 800)
    k0 = None
    for k in grid:
        g = assemble_gram(build(spec, k))
        assert g.eta_hat < 0.5
        if k0 is None:
            k0 = k
        op = inv_sqrt_neumann(g, tol=1e-10)
        assert op.norm_inf <= (1 - g.eta_hat) ** -0.5 * (1 + 1e-6) + 1e-10
        agree = np.max(np.abs(op.entries - inv_sqrt_eigen(g).entries))
        assert agree <= 1e-8
    print("step-2 threshold: eta_hat < 0.5 from k0=%d on (expected <= 200)" % k0)
    assert k0 <= 200


def test_orthonormality(ortho_levels):
    """Flat-family Gram within 1e-8 of the identity at every level, checked
    through exact-rational monomial weights, in under two minutes."""
    started = time.perf_counter()
    for k, level in ortho_levels.items():
        fam = level["fam"]
        idx = multi_indices(1, k)
        fk = math.factorial(1 + k)
        weights = np.array(
            [
                float(Fraction(math.prod(math.factorial(int(q)) for q in alpha), fk))
                * math.pi
                for alpha in idx
            ]
        )
        coeffs = raw_coeffs(1, k, fam.ortho)
        gram = (coeffs * weights[None, :]) @ coeffs.conj().T
        dev = np.max(np.abs(gram - np.eye(fam.n)))
        assert dev <= 1e-8, "k=%d deviates by %.3e" % (k, dev)
    assert time.perf_counter() - started < 120.0


def test_uniform_boundedness(ortho_levels):
    """Measured sup-norms obey the frame-sum chain bound on every run and
    the universal density ceiling * 1.10 at k in {100, 200, 400}."""
    from flatsections.certify import certify_family

    for k, level in ortho_levels.items():
        frame, g, op, fam = (level[key] for key in ("frame", "gram", "op", "fam"))
        fk = fk_norm(frame)
        chain = sup_norm_chain_bound(fk, op, frame.n)
        cert = certify_family(fam, 16, 16, points=frame.points, entries=op.entries)
        max_sup = max(e.value for e in cert.sup_estimates)
        assert max_sup <= chain
        if k >= 100:
            beta_hat = frame.n / dimension(1, k)
            ceiling = flat_bound(beta_hat, g.eta_hat, math.pi) * 1.10
            assert max_sup <= ceiling, "k=%d: %.4f > %.4f" % (k, max_sup, ceiling)


def test_density_fraction():
    """Frame density passes the configured targets beyond the logged
    thresholds: 0.8 on the cubic lattice, 0.9 on the hexagonal one."""
    charts = tuple(cp1_latlon_cover(0.35))
    cubic = LatticeSpec(kind="cubic", m=1, a=1.945, eta=0.995,
                        gamma=max(c.gamma for c in charts), epsilon=0.005,
                        charts=charts, delta=1e-9, beta_target=0.8)
    assert cubic.certified
    ratios = {}
    for k in (8000, 16000, 32000):
        frame = build(cubic, k)
        ratios[k] = frame.n / dimension(1, k)
    assert ratios[8000] < 0.8  # threshold is genuine
    assert ratios[16000] > 0.8 and ratios[32000] > 0.8
    print("cubic density threshold k0=%s" % density_threshold(ratios, 0.8))

    fine = tuple(cp1_latlon_cover(0.2))
    hexspec = LatticeSpec(kind="hexagonal", m=1, a=1.971, eta=0.995,
                          gamma=max(c.gamma for c in fine), epsilon=0.005,
                          charts=fine, delta=1e-9, beta_target=0.9)
    assert hexspec.certified
    hex_ratios = {}
    for k in (64000, 128000):
        frame = build(hexspec, k)
        hex_ratios[k] = frame.n / dimension(1, k)
    assert hex_ratios[64000] < 0.9 < hex_ratios[128000]
    print("hexagonal density threshold k0=%s" % density_threshold(hex_ratios, 0.9))


def test_corollary_outputs():
    """Flattest-polynomial sphere ratios stay in a 1.25 band over k >= 50
    (m = 1 up to 200); eigenfunction residuals hold to 1e-4 relative for
    both m = 1 (k to 200) and m = 2 (k to 40)."""
    cfg = RunConfig(k=(50, 100, 200), spacing=1.945, eta=0.995, epsilon=0.005,
                    cover={"name": "latlon", "radius": 0.35}, delta=1e-9,
                    beta=0.8).validate()
    spec, _ = cli.lattice_spec(cfg)
    selected = []
    for k in cfg.k:
        level = cli._run_level(cfg, spec, k)
        selected.append(min(emit_polynomials(level.fam, level.cert),
                            key=lambda r: r["sphere ratio"]))
    ratios = [rec["sphere ratio"] for rec in selected]
    assert max(ratios) <= 1.25 * min(ratios), ratios
    for rec in selected:
        assert emit_eigenfunction(rec, seed=5)["residual"] <= 1e-4

    cfg2 = RunConfig(m=2, k=(20, 40), spacing=2.4, eta=0.9,
                     cover={"name": "balls", "radius": 0.4}, mesh=6,
                     rounds=12).validate()
    spec2, _ = cli.lattice_spec(cfg2)
    for k in cfg2.k:
        level = cli._run_level(cfg2, spec2, k)
        rec = min(emit_polynomials(level.fam, level.cert), key=lambda r: r["sphere ratio"])
        assert emit_eigenfunction(rec, seed=5)["residual"] <= 1e-4


def test_m2_smoke_run():
    """Full pipeline on the projective plane at k in {20, 40} with every
    hard invariant green, inside five minutes."""
    started = time.perf_counter()
    manifest = cli.run(RunConfig(
        m=2, k=(20, 40), spacing=2.4, eta=0.9,
        cover={"name": "balls", "radius": 0.4}, mesh=6,
    ))
    rows = manifest["core"]["rows"]
    assert rows[1]["d_k"] == 861
    for row in rows:
        assert all(row["invariants"].values()), (row["k"], row["invariants"])
    assert manifest["core"]["status"]["hard_failures"] == []
    assert time.perf_counter() - started < 300.0
