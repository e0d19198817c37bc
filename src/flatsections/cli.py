"""Command-line driver for the bounded-section pipeline.

Subcommands
-----------
constants     critical lattice densities (cubic and hexagonal) per dimension
run           frame -> Gram -> whitening -> mixing -> certification
kernel-check  decay regimes and dual-route agreement of the reproducing kernel
compare       field-wise drift report between two run manifests
emit-polys    flattest-section polynomial and eigenfunction records

Configuration is a single JSON file (--config) whose keys mirror RunConfig;
individual flags override file values.  A run writes manifest.json,
summary.csv, and optional binary dumps into --out.  The manifest splits into
a deterministic "core" (bit-identical for identical configs, including the
distortion-sampling seed) and an "envelope" holding wall-clock data.

Exit codes: 0 every check passed, 2 a soft property deviated (logged
empirical trends such as density ratios below target), 1 a hard invariant
failed or the pipeline errored out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .certify import (
    CertifyError,
    NormCertificate,
    certify_family,
    emit_eigenfunction,
    emit_polynomials,
    flat_bound,
    l2_inner,
    select_flat_sequence,
)
from .constants import ConstantsError, constants_table, solve_beta, solve_beta_prime
from .flatten import (
    FlatFamily,
    FlattenError,
    dump_family,
    flatten_frame,
    fk_norm,
    sup_norm_chain_bound,
)
from .frame import (
    Frame,
    FrameError,
    LatticeSpec,
    build,
    choose_spacing,
    nearest_neighbor_distance,
)
from .geometry import (
    GeometryError,
    ManifoldModel,
    cp1_latlon_cover,
    cp2_ball_cover,
    covering_defect,
    distortion_estimate,
    make_chart,
    BallRegion,
    ProjectivePoint,
    UnitLift,
    exp_chart_vectors,
    two_cap_cover,
)
from .kernel import (
    KernelError,
    KernelModel,
    coherent_state,
    dimension,
    szego_kernel,
    szego_kernel_monomial_sum,
    verify_decay,
)
from .whitening import (
    WhiteningError,
    WhiteningOperator,
    assemble_gram,
    dump_matrix,
    inv_sqrt_eigen,
    inv_sqrt_neumann,
)

# Gram assembly is dense; frames past this size are a config mistake, not a run.
GRAM_SIZE_CAP = 4000

# the dual-route kernel comparison forms two coherent states of d_k
# coefficients each, so its cost follows d_k, not k (d_k grows like k^m):
# m=2 k=700 already takes about 2 s, m=3 k=600 holds 36.4M coefficients
DUAL_ROUTE_DIM_CAP = 200_000

MODES = ("full", "constants-only", "kernel-check")
COVER_NAMES = ("latlon", "two-cap", "balls")


class CliError(ValueError):
    """Configuration rejected before any computation starts."""


class CompareError(ValueError):
    """Two manifests cannot be compared field by field."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on, plus io fields that do not affect it.

    Semantic fields enter the manifest core verbatim; out/dumps are io-only
    and excluded so identical configs give bit-identical cores.
    """

    m: int = 1
    k: tuple = (50, 100, 200, 400)
    lattice: str = "cubic"
    eta: float = 0.7
    gamma: float | None = None  # None: 1.27 single chart, max chart gamma else
    spacing: float | None = 2.2  # None: choose_spacing(m, eta, gamma)
    t: float | None = 0.4
    cover: dict | None = None  # {"name": ..., "radius": ...}; overrides t
    delta: float | None = None
    epsilon: float = 0.05
    beta: float | None = None
    mesh: int = 16
    rounds: int = 16
    neumann_tol: float = 1e-10
    ortho_tol: float = 1e-8
    drift_tol: float = 1e-6
    seed: int = 0
    mode: str = "full"
    constants_max_m: int = 6
    out: str | None = None
    dumps: bool = False

    _IO_FIELDS = ("out", "dumps")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        unknown = sorted(set(data) - known)
        if unknown:
            raise CliError("unknown config keys: %s" % ", ".join(unknown))
        clean = dict(data)
        if "k" in clean:
            clean["k"] = tuple(int(v) for v in clean["k"])
        if "lattice" in clean and clean["lattice"] == "hex":
            clean["lattice"] = "hexagonal"
        return cls(**clean)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError("cannot read config %s: %s" % (path, exc)) from exc
        except json.JSONDecodeError as exc:
            raise CliError("config %s is not valid JSON: %s" % (path, exc)) from exc
        if not isinstance(data, dict):
            raise CliError("config %s must hold a JSON object" % path)
        return cls.from_dict(data)

    def merged(self, overrides: dict) -> "RunConfig":
        if not overrides:
            return self
        probe = RunConfig.from_dict(overrides)  # normalizes k and lattice
        clean = {key: getattr(probe, key) for key in overrides}
        return replace(self, **clean)

    def echo(self) -> dict:
        """Semantic fields only, JSON-ready; io fields stay out of the core."""
        out = {}
        for f in fields(self):
            if f.name.startswith("_") or f.name in self._IO_FIELDS:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise CliError("mode must be one of %s" % " | ".join(MODES))
        if not isinstance(self.m, int) or self.m < 1:
            raise CliError("m must be a positive integer")
        if self.mode == "full" and self.m > 2:
            raise CliError("full mode supports m in {1, 2} (sup-norm meshes)")
        if self.lattice not in ("cubic", "hexagonal"):
            raise CliError("lattice must be cubic or hexagonal")
        if self.lattice == "hexagonal" and self.m != 1:
            raise CliError("hexagonal lattices are planar: m must be 1")
        if self.mode in ("full", "kernel-check"):
            if len(self.k) == 0:
                raise CliError("k list is empty: give at least one degree")
            floor = 2 if self.mode == "kernel-check" else 1
            if any((not isinstance(v, int)) or v < floor for v in self.k):
                raise CliError("every k must be an integer >= %d" % floor)
        for name in ("neumann_tol", "ortho_tol", "drift_tol"):
            if not getattr(self, name) > 0:
                raise CliError("%s must be positive" % name)
        if self.mesh < 4:
            raise CliError("mesh must be at least 4 cells per dimension")
        if self.rounds < 1:
            raise CliError("rounds must be at least 1")
        if not 0 < self.eta < 1:
            raise CliError("eta target must lie in (0, 1)")
        if not 0 <= self.epsilon < 1:
            raise CliError("epsilon must lie in [0, 1)")
        if self.gamma is not None and not self.gamma > 1:
            raise CliError("gamma must exceed 1")
        if self.spacing is not None and not self.spacing > 0:
            raise CliError("spacing must be positive")
        if self.seed < 0:
            raise CliError("seed must be a non-negative integer")
        if not 1 <= self.constants_max_m <= 12:
            raise CliError("constants_max_m must lie in 1..12")
        if self.beta is not None:
            if self.lattice == "cubic":
                critical = solve_beta(self.m).density
                label = "critical cubic density"
            else:
                critical = solve_beta_prime(self.m).density
                label = "critical hexagonal density"
            if not 0 < self.beta < critical:
                raise CliError(
                    "beta target %.6g must lie below the %s %.6g for m=%d"
                    % (self.beta, label, critical, self.m)
                )
        if self.cover is not None:
            if not isinstance(self.cover, dict) or "name" not in self.cover:
                raise CliError('cover must be an object with a "name" key')
            if self.cover["name"] not in COVER_NAMES:
                raise CliError("cover name must be one of %s" % ", ".join(COVER_NAMES))
        elif self.mode == "full":
            if self.t is None or not self.t > 0:
                raise CliError("single-chart runs need a positive halfwidth t")
        return self


# ---------------------------------------------------------------------------
# chart and lattice assembly


def build_charts(cfg: RunConfig):
    """Charts from the cover stanza, or None for a single-chart run."""
    if cfg.cover is None:
        return None
    name = cfg.cover["name"]
    radius = cfg.cover.get("radius")
    if name == "latlon":
        if cfg.m != 1:
            raise GeometryError("latlon covers exist only on the projective line")
        if radius is None:
            raise CliError("latlon cover needs a radius")
        return tuple(cp1_latlon_cover(float(radius)))
    if name == "balls":
        if cfg.m != 2:
            raise GeometryError("the disjoint ball cover is specific to m=2")
        return tuple(cp2_ball_cover(float(radius) if radius is not None else 0.4))
    if radius is None:
        raise CliError("two-cap cover needs a radius")
    return tuple(two_cap_cover(cfg.m, float(radius)))


def lattice_spec(cfg: RunConfig):
    """Resolve spacing/gamma/charts into a LatticeSpec plus a report dict."""
    charts = build_charts(cfg)
    if charts is not None:
        gamma = cfg.gamma if cfg.gamma is not None else max(c.gamma for c in charts)
        t = None
    else:
        gamma = cfg.gamma if cfg.gamma is not None else 1.27
        t = cfg.t
        reach = t * math.sqrt(2 * cfg.m)
        if reach >= math.pi / 2 - 1e-9:
            raise GeometryError(
                "single-chart halfwidth %.3g reaches %.3g, past the "
                "injectivity radius" % (t, reach)
            )
    a = cfg.spacing if cfg.spacing is not None else choose_spacing(cfg.m, cfg.eta, gamma)
    spec = LatticeSpec(
        kind=cfg.lattice,
        m=cfg.m,
        a=a,
        eta=cfg.eta,
        gamma=gamma,
        epsilon=cfg.epsilon,
        t=t,
        charts=charts,
        delta=cfg.delta,
        beta_target=cfg.beta,
    )
    spec.validate()
    info = {
        "kind": spec.kind,
        "spacing": spec.a,
        "eta_target": spec.eta,
        "gamma": spec.gamma,
        "epsilon": spec.epsilon,
        "t": spec.t,
        "delta": spec.delta,
        "beta_target": spec.beta_target,
        "formal_eta": spec.formal_eta,
        # the m-exponent reading of the same certificate (disputed form);
        # theta^m - 1 = sqrt(1 + theta^{2m} - 1) - 1
        "formal_eta_m_exponent": math.sqrt(1.0 + spec.formal_eta) - 1.0,
        "certified": spec.certified,
        "abound": spec.abound_satisfied,
        "chart_count": 1 if charts is None else len(charts),
    }
    if charts is not None:
        info["covering_defect"] = covering_defect(cfg.m, list(charts))
        info["distortion_samples"] = [
            distortion_estimate(c, nsamples=2000, seed=cfg.seed + i)
            for i, c in enumerate(charts)
        ]
    return spec, info


# ---------------------------------------------------------------------------
# per-level pipeline


class Level(NamedTuple):
    """One degree's manifest row and the objects behind it (None past an
    empty frame)."""

    row: dict
    frame: Frame
    op: WhiteningOperator | None
    fam: FlatFamily | None
    cert: NormCertificate | None


def _run_level(cfg: RunConfig, spec: LatticeSpec, k: int,
               dump_dir: str | None = None) -> Level:
    """One degree through the whole pipeline."""
    frame = build(spec, k)
    n, d = frame.n, dimension(cfg.m, k)
    # a single section is one unmixed coherent state, not a flat family
    invariants: dict = {"frame_nonempty": n >= 1, "frame_nondegenerate": n >= 2}
    soft: dict = {}
    row = {
        "k": k,
        "n_k": n,
        "d_k": d,
        "ratio": n / d,
        "invariants": invariants,
        "soft": soft,
    }
    if n == 0:
        return Level(row, frame, None, None, None)
    if n > GRAM_SIZE_CAP:
        raise CliError(
            "k=%d builds %d frame points, past the dense-pipeline cap %d"
            % (k, n, GRAM_SIZE_CAP)
        )

    scale = spec.a / math.sqrt(k)
    nn = nearest_neighbor_distance(frame) if n >= 2 else None
    row["nn"] = nn
    invariants["nn_floor"] = nn is None or nn >= scale / spec.gamma * (1 - 1e-9)
    # ceiling only binds for dense frames; sparse multichart frames sit far apart
    reach = 1.0 if spec.charts is None else 1.0 + spec.dedup_factor
    soft["nn_ceiling"] = nn is None or nn <= scale * spec.gamma * reach * (1 + 1e-9)

    g = assemble_gram(frame)
    row["eta_hat"] = g.eta_hat
    soft["eta_within_target"] = g.eta_hat <= spec.eta

    op = inv_sqrt_neumann(g, tol=cfg.neumann_tol)  # raises on divergence
    reference = inv_sqrt_eigen(g)
    agree = float(np.max(np.abs(op.entries - reference.entries)))
    row["b_norm"] = op.norm_inf
    row["neumann_terms"] = op.series_terms
    row["b_agree"] = agree
    invariants["whitening_methods_agree"] = agree <= max(1e3 * cfg.neumann_tol, 1e-8)
    invariants["b_norm_within_bound"] = True  # enforced inside the solvers

    fam = flatten_frame(frame, op)
    ortho_dev = float(np.max(np.abs(fam.ortho @ fam.ortho.conj().T - np.eye(n))))
    row["ortho_dev"] = ortho_dev
    invariants["orthonormal"] = ortho_dev <= cfg.ortho_tol

    fk = fk_norm(frame)
    chain = sup_norm_chain_bound(fk, op, n)
    row["fk_norm"] = fk
    row["chain_bound"] = chain

    cert = certify_family(fam, cfg.mesh, cfg.rounds, points=frame.points,
                          entries=op.entries)
    l2_dev = float(max(abs(v - 1.0) for v in cert.l2_norms))
    sups = [e.value for e in cert.sup_estimates]
    row["l2_dev"] = l2_dev
    row["section_sups"] = sups
    row["max_sup"] = max(sups)
    row["min_sup"] = min(sups)
    invariants["l2_normalized"] = l2_dev <= max(cfg.ortho_tol, 1e-8)
    invariants["sup_within_chain"] = row["max_sup"] <= chain * (1 + 1e-9)

    if n <= d:
        bound = flat_bound(n / d, g.eta_hat, ManifoldModel(cfg.m).volume) * 1.10
        row["flat_bound"] = bound
        invariants["sup_within_flat_bound"] = row["max_sup"] <= bound
    else:
        row["flat_bound"] = None
        invariants["sup_within_flat_bound"] = False

    spread = (row["max_sup"] - row["min_sup"]) / row["min_sup"] if n > 1 else 0.0
    row["flat_spread"] = spread
    soft["flat_within_5pct"] = spread <= 0.05
    if cfg.beta is not None:
        soft["density_at_target"] = row["ratio"] >= cfg.beta

    if dump_dir is not None:
        dump_matrix(os.path.join(dump_dir, "gram-k%d.bin" % k),
                    cfg.m, k, g.entries, tag="gram")
        dump_matrix(os.path.join(dump_dir, "whitening-k%d.bin" % k),
                    cfg.m, k, op.entries, tag="whitening %s" % op.method)
        dump_family(os.path.join(dump_dir, "family-k%d.bin" % k),
                    fam, tag="flat family")
    return Level(row, frame, op, fam, cert)


# ---------------------------------------------------------------------------
# mode runners


def _constants_core(cfg: RunConfig) -> dict:
    rows = constants_table(cfg.constants_max_m)
    return {
        "rows": [r.to_dict() for r in rows],
        "beta": [r.beta for r in rows],
        "beta_prime": [r.beta_prime for r in rows],
        "invariants": {"solver_converged": all(r.residual < 1e-8 for r in rows)},
    }


def dual_route_deviation(model: KernelModel, seed: int = 0) -> float:
    """Worst relative gap between the closed-form kernel and a literal
    basis sum, over pairs a geodesic step c/sqrt(k) apart.  Kept to near
    pairs: far pairs drown the tiny true value in summation noise.  The
    second route is the exact-rational monomial sum while its factorials
    fit in a float, and the coherent-coefficient inner product beyond."""
    rng = np.random.default_rng(seed)
    m, k = model.m, model.k
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        for _ in range(2):
            raw = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
            center = ProjectivePoint.from_vector(raw)
            chart = make_chart(center, BallRegion(1.0), 2.0)
            v = rng.standard_normal(2 * m)
            v *= c / math.sqrt(k) / np.linalg.norm(v)
            x = UnitLift.from_vector(exp_chart_vectors(chart, v[None, :])[0])
            y = center.lift()
            a = szego_kernel(model, x, y)
            if m + k <= 120:
                b = szego_kernel_monomial_sum(model, x, y)
            else:
                b = model.diag * l2_inner(
                    coherent_state(model, y), coherent_state(model, x)
                )
            rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
            worst = max(worst, rel)
    return float(worst)


def _kernel_core(cfg: RunConfig) -> dict:
    rows = []
    for k in cfg.k:
        model = KernelModel(cfg.m, k)
        rep = verify_decay(model)
        cap = min(rep.near.threshold, math.pi / 2 - 1e-9)
        # the Gaussian window argument needs log P ~ -k d^2/2 with a
        # quadratic correction; 0.25 d^2 holds once the window is inside d ~ 1
        near_ok = rep.near.max_deviation <= 0.25 * cap * cap
        far_ok = rep.far is None or rep.far.max_deviation < 1.0
        dual = None
        if model.d_k <= DUAL_ROUTE_DIM_CAP:
            dual = dual_route_deviation(model, seed=cfg.seed)
        row = {
            "k": k,
            "near": rep.near.to_dict(),
            "far": rep.far.to_dict() if rep.far is not None else None,
            "dual_route_rel": dual,
            "invariants": {"dual_route_agree": dual is None or dual <= 1e-10},
            "soft": {"near_regime": near_ok, "far_regime": far_ok},
        }
        rows.append(row)
    return {"rows": rows}


def _full_core(cfg: RunConfig, dump_dir: str | None):
    spec, info = lattice_spec(cfg)
    rows = []
    for k in cfg.k:
        rows.append(_run_level(cfg, spec, k, dump_dir)[0])
    return {"spec": info, "rows": rows}


def _status(rows: list) -> dict:
    hard, soft = [], []
    for row in rows:
        for name, ok in row.get("invariants", {}).items():
            if not ok:
                hard.append("k=%s:%s" % (row.get("k", "-"), name))
        for name, ok in row.get("soft", {}).items():
            if not ok:
                soft.append("k=%s:%s" % (row.get("k", "-"), name))
    code = 1 if hard else (2 if soft else 0)
    return {"exit_code": code, "hard_failures": hard, "soft_deviations": soft}


def run(cfg: RunConfig) -> dict:
    """Execute the configured mode and assemble the manifest."""
    cfg.validate()
    started = time.perf_counter()
    dump_dir = None
    if cfg.dumps:
        if cfg.out is None:
            raise CliError("binary dumps need an output directory")
        os.makedirs(cfg.out, exist_ok=True)
        dump_dir = cfg.out
    core = {
        "tool": "flatsections",
        "version": __version__,
        "mode": cfg.mode,
        "config": cfg.echo(),
    }
    if cfg.mode == "constants-only":
        body = _constants_core(cfg)
        core.update(body)
        core["status"] = _status([{"k": "*", "invariants": body["invariants"]}])
    elif cfg.mode == "kernel-check":
        body = _kernel_core(cfg)
        core.update(body)
        core["status"] = _status(body["rows"])
    else:
        body = _full_core(cfg, dump_dir)
        core.update(body)
        core["status"] = _status(body["rows"])
    envelope = {
        "wall_clock_s": time.perf_counter() - started,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "out": cfg.out,
        "dumps": cfg.dumps,
    }
    return {"core": core, "envelope": envelope}


def core_bytes(manifest: dict) -> bytes:
    """Canonical serialization of the deterministic part."""
    return json.dumps(manifest["core"], sort_keys=True).encode("utf-8")


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a temporary path beside path; it replaces path only once the
    block succeeds, so readers see the old file or the whole new one."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path: str, obj, trailing_newline: bool = False):
    with _replacing(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            if trailing_newline:
                fh.write("\n")


# summary.csv header -> manifest row key, in column order
SUMMARY_COLUMNS = {
    "k": "k",
    "n_k": "n_k",
    "d_k": "d_k",
    "ratio": "ratio",
    "eta_hat": "eta_hat",
    "b_norm": "b_norm",
    "fk_norm": "fk_norm",
    "max_sup": "max_sup",
    "bound": "chain_bound",
}


def write_outputs(manifest: dict, cfg: RunConfig) -> list:
    """Write manifest.json and the mode's CSV into cfg.out, each atomically."""
    if cfg.out is None:
        return []
    os.makedirs(cfg.out, exist_ok=True)
    paths = []
    mpath = os.path.join(cfg.out, "manifest.json")
    _write_json(mpath, manifest, trailing_newline=True)
    paths.append(mpath)
    core = manifest["core"]
    if core["mode"] == "full":
        cpath = os.path.join(cfg.out, "summary.csv")
        with _replacing(cpath) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_COLUMNS)
            # an empty frame's row lacks the pipeline fields: blank cells
            writer.writerows([row.get(key) for key in SUMMARY_COLUMNS.values()]
                             for row in core["rows"])
        paths.append(cpath)
    if core["mode"] == "constants-only":
        cpath = os.path.join(cfg.out, "constants.csv")
        with _replacing(cpath) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            keys = list(core["rows"][0])
            fh.write(",".join(keys) + "\n")
            for row in core["rows"]:
                fh.write(",".join(repr(row[key]) for key in keys) + "\n")
        paths.append(cpath)
    return paths


# ---------------------------------------------------------------------------
# emit-polys


def emit_polys(cfg: RunConfig) -> dict:
    """Run the pipeline and keep the flattest section per degree, as a
    polynomial record and as the matching sphere eigenfunction."""
    cfg.validate()
    spec, info = lattice_spec(cfg)
    levels: dict = {}
    rows = []
    for k in cfg.k:
        level = _run_level(cfg, spec, k)
        if level.fam is None:
            raise FrameError("degree k=%d yields an empty frame" % k)
        records = emit_polynomials(level.fam, level.cert)
        levels[k] = records
        invariants = {name: level.row["invariants"][name]
                      for name in ("frame_nonempty", "frame_nondegenerate")}
        invariants["sphere_ratio_floor"] = all(r.sphere_ratio >= 1 - 1e-3 for r in records)
        rows.append({"k": k, "invariants": invariants, "soft": {}})
    selected = select_flat_sequence(levels)
    eigen = {}
    for k, rec in selected.items():
        erec = emit_eigenfunction(rec, seed=cfg.seed + 5)
        eigen[k] = erec
        for row in rows:
            if row["k"] == k:
                row["invariants"]["eigen_residual_small"] = erec.residual <= 1e-6
    return {
        "spec": info,
        "levels": {str(k): [r.to_dict() for r in v] for k, v in levels.items()},
        "selected": {str(k): r.to_dict() for k, r in selected.items()},
        "eigenfunctions": {str(k): e.to_dict() for k, e in eigen.items()},
        "status": _status(rows),
    }


# ---------------------------------------------------------------------------
# compare

# skipped wherever it appears: manifests written while the frame order was
# a config field carry "order" in their config and spec, the benchmark's
# recorded references among them
_COMPARE_IGNORED_KEYS = ("order",)

# core entries compare leaves alone: the mode and config are matched before
# the walk, and the status follows from the invariants the walk checks
_COMPARE_UNWALKED_KEYS = ("tool", "version", "mode", "config", "status")

# stands in for a field the second manifest lacks
_MISSING = "<missing>"


def _kind(value):
    """The JSON kind of a manifest value; bool is its own kind, not a number."""
    for kind in (bool, numbers.Number, str, list, dict):
        if isinstance(value, kind):
            return kind
    return type(value)


def _rel_gap(a, b) -> float:
    # relative for O(1)-and-larger numbers, absolute below 1: residual-level
    # quantities (ortho_dev, b_agree) sit at the noise floor, where a
    # relative comparison would flag meaningless jitter.  Everything else
    # is equal or not; values of two kinds, and lists or dicts that reach
    # here (another length, another type), always differ.
    kind = _kind(a)
    if kind is not _kind(b) or kind in (list, dict):
        return math.inf
    if kind is numbers.Number:
        return abs(a - b) / max(abs(a), abs(b), 1.0)
    return 0.0 if a == b else math.inf


def _load_manifest(path: str) -> dict:
    """A manifest read from disk; CompareError when it is not valid JSON
    with a core (a truncated write, say)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise CompareError("%s is not a valid manifest: %s" % (path, exc)) from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("core"), dict):
        raise CompareError("%s holds no manifest core" % path)
    return manifest


def _check_core(core: dict, label: str):
    """CompareError unless core has the structure compare reads before its
    walk: a mode string, a config object and a list of row objects."""
    if not isinstance(core.get("mode"), str):
        raise CompareError("%s manifest core has no mode string" % label)
    if not isinstance(core.get("config"), dict):
        raise CompareError("%s manifest core has no config object" % label)
    rows = core.get("rows", [])
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise CompareError("%s manifest core rows are not a list of objects" % label)


def compare_manifests(ma: dict, mb: dict, tol: float = 1e-6) -> dict:
    """Field-wise drift report between two manifest cores.

    Every leaf under the first core's spec, rows and other entries is
    checked against the same path in the second, lists element by
    element; a field only the second holds is not drift.
    """
    ca, cb = ma["core"], mb["core"]
    _check_core(ca, "first")
    _check_core(cb, "second")
    if ca["mode"] != cb["mode"]:
        raise CompareError("manifests come from different modes")
    mismatched = []
    for key in ca["config"]:
        if key in _COMPARE_IGNORED_KEYS:
            continue
        if ca["config"].get(key) != cb["config"].get(key):
            mismatched.append(key)
    if mismatched:
        raise CompareError("incompatible configs: %s" % ", ".join(sorted(mismatched)))
    rows_a = ca.get("rows", [])
    rows_b = cb.get("rows", [])
    if len(rows_a) != len(rows_b):
        raise CompareError("manifests hold different row counts")
    drift = []
    checked = 0

    def walk(where, field, a, b):
        nonlocal checked
        if isinstance(a, dict):
            b = b if isinstance(b, dict) else {}
            for key, value in a.items():
                if key not in _COMPARE_IGNORED_KEYS:
                    walk(where, "%s.%s" % (field, key) if field else key,
                         value, b.get(key, _MISSING))
            return
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(where, "%s[%d]" % (field, i), x, y)
            return
        checked += 1
        rel = _rel_gap(a, b)
        if rel > tol:
            drift.append({"where": where, "field": field, "a": a, "b": b, "rel": rel})

    for key, value in ca.items():
        if key == "rows":
            for ra, rb in zip(rows_a, rows_b):
                walk("k=%s" % ra["k"] if "k" in ra else "m=%s" % ra.get("m", "-"),
                     "", ra, rb)
        elif key == "spec":
            walk("spec", "", value, cb.get(key, _MISSING))
        elif key not in _COMPARE_UNWALKED_KEYS:
            walk("core", key, value, cb.get(key, _MISSING))
    return {
        "identical": not drift,
        "drift": drift,
        # always empty since lists are walked element by element; kept
        # because perfbench/workloads.compare_levels reads it
        "permuted": [],
        "checked": checked,
        "tol": tol,
    }


def render_compare(report: dict) -> str:
    lines = []
    for entry in report["drift"]:
        lines.append(
            "drift %s %s: %r vs %r (rel %.3g)"
            % (entry["where"], entry["field"], entry["a"], entry["b"], entry["rel"])
        )
    if report["identical"]:
        lines.append("identical: %d fields within %.1g" % (report["checked"], report["tol"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _parse_k(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise CliError("cannot parse k list %r" % text) from exc


def _add_run_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--m", type=int, help="complex dimension of the base space")
    sub.add_argument("--k", help="comma-separated degrees, e.g. 50,100,200")
    sub.add_argument("--lattice", choices=("cubic", "hex", "hexagonal"))
    sub.add_argument("--eta", type=float, help="target Gram perturbation in (0,1)")
    sub.add_argument("--beta", type=float, help="density target (below the critical value)")
    sub.add_argument("--mesh", type=int, help="sup-norm mesh cells per dimension")
    sub.add_argument("--out", help="output directory for manifest and csv files")
    sub.add_argument("--spacing", type=float, help="lattice spacing (default 2.2)")
    sub.add_argument("--gamma", type=float, help="declared chart distortion bound")
    sub.add_argument("--t", type=float, help="single-chart halfwidth")
    sub.add_argument("--seed", type=int, help="sampling seed (distortion, kernel pairs)")
    sub.add_argument("--dumps", action="store_true", default=None,
                     help="write Gram/whitening/family binaries per degree")


def _collect_config(args) -> RunConfig:
    """The --config file (or the defaults) with every given flag on top;
    a flag's dest is the RunConfig field it sets."""
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    names = {f.name for f in fields(RunConfig)}
    overrides = {key: value for key, value in vars(args).items()
                 if key in names and value is not None}
    if "k" in overrides:
        overrides["k"] = _parse_k(overrides["k"])
    return cfg.merged(overrides)


def _print_run(manifest: dict):
    core = manifest["core"]
    if core["mode"] == "constants-only":
        for row in core["rows"]:
            print(
                "m=%d  a=%.6f  beta=%.5f  alpha=%.6f  beta_prime=%.5f"
                % (row["m"], row["a_m"], row["beta_m"], row["alpha_m"], row["beta_prime_m"])
            )
    elif core["mode"] == "kernel-check":
        for row in core["rows"]:
            far = row["far"]["max deviation"] if row["far"] else float("nan")
            dual = row["dual_route_rel"]
            print(
                "k=%d  near_dev=%.4g  far_max=%.4g  dual=%s"
                % (row["k"], row["near"]["max deviation"], far,
                   "%.3g" % dual if dual is not None else "skipped")
            )
    else:
        for row in core["rows"]:
            if "eta_hat" not in row:
                print("k=%d  empty frame" % row["k"])
                continue
            print(
                "k=%d  n=%d  d=%d  ratio=%.5f  eta=%.4f  b=%.4f  fk=%.4f  "
                "sup=%.4f  bound=%.4f"
                % (row["k"], row["n_k"], row["d_k"], row["ratio"], row["eta_hat"],
                   row["b_norm"], row["fk_norm"], row["max_sup"], row["chain_bound"])
            )
    _print_status(core["status"])


def _print_status(status: dict):
    for item in status["hard_failures"]:
        print("hard failure: %s" % item)
    for item in status["soft_deviations"]:
        print("soft deviation: %s" % item)
    verdict = {0: "pass", 1: "hard failure", 2: "soft deviation"}[status["exit_code"]]
    print("status: %s (exit %d)" % (verdict, status["exit_code"]))


# the one-line message prefix of each error class main reports (exit 1);
# the first class that matches wins
ERROR_PREFIXES = {
    CliError: "config error",
    GeometryError: "chart error",
    FrameError: "chart error",
    WhiteningError: "whitening error",
    CompareError: "compare error",
    KernelError: "pipeline error",
    FlattenError: "pipeline error",
    CertifyError: "pipeline error",
    ConstantsError: "pipeline error",
    OSError: "io error",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flatsections",
        description="uniformly bounded orthonormal sections over complex projective space",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="full pipeline per degree")
    _add_run_flags(p_run)

    p_const = sub.add_parser("constants", help="critical density table")
    p_const.add_argument("--max-m", dest="constants_max_m", type=int)
    p_const.add_argument("--out")
    p_const.set_defaults(mode="constants-only")

    p_kc = sub.add_parser("kernel-check", help="kernel decay and dual-route checks")
    _add_run_flags(p_kc)
    p_kc.set_defaults(mode="kernel-check")

    p_cmp = sub.add_parser("compare", help="drift report between two manifests")
    p_cmp.add_argument("manifest_a")
    p_cmp.add_argument("manifest_b")
    p_cmp.add_argument("--tol", type=float, default=1e-6)

    p_emit = sub.add_parser("emit-polys", help="flattest polynomial per degree")
    _add_run_flags(p_emit)

    args = parser.parse_args(argv)
    try:
        if args.cmd == "compare":
            ma, mb = _load_manifest(args.manifest_a), _load_manifest(args.manifest_b)
            report = compare_manifests(ma, mb, tol=args.tol)
            text = render_compare(report)
            if text:
                print(text)
            return 1 if report["drift"] else 0

        cfg = _collect_config(args)
        if args.cmd == "emit-polys":
            result = emit_polys(cfg)
            if cfg.out is not None:
                os.makedirs(cfg.out, exist_ok=True)
                _write_json(os.path.join(cfg.out, "polynomials.json"),
                            {"levels": result["levels"], "selected": result["selected"]})
                _write_json(os.path.join(cfg.out, "eigenfunctions.json"),
                            result["eigenfunctions"])
            for k, rec in sorted(result["selected"].items(), key=lambda kv: int(kv[0])):
                print("k=%s  sup/l2 on the sphere: %.4f" % (k, rec["sphere ratio"]))
            _print_status(result["status"])
            return result["status"]["exit_code"]

        manifest = run(cfg)
        write_outputs(manifest, cfg)
        _print_run(manifest)
        return manifest["core"]["status"]["exit_code"]
    except tuple(ERROR_PREFIXES) as exc:
        prefix = next(p for cls, p in ERROR_PREFIXES.items() if isinstance(exc, cls))
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
